//! The committed `BENCH_*.json` baselines are what CI's `bench_regress`
//! steps compare against, so they must stay readable by the one report
//! reader: each parses, its top level is its newest history entry, and
//! every history entry is a run that passes against itself.

use fw_bench::regress::{compare, RegressConfig};
use fw_types::Json;

fn baseline(gate: &str) -> Json {
    let path = format!("{}/../../BENCH_{gate}.json", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn committed_baselines_are_runs_of_their_gate() {
    for gate in ["pipeline", "stream", "serve"] {
        let doc = baseline(gate);
        assert_eq!(doc.get("gate").and_then(Json::as_str), Some(gate));
        let history = doc.get("history").and_then(Json::as_arr).unwrap();
        let newest = history.last().expect("history is not empty");
        for (key, value) in newest.as_obj().unwrap() {
            assert_eq!(doc.get(key), Some(value), "{gate}: top-level {key}");
        }
        for (i, entry) in history.iter().enumerate() {
            let alone = Json::Obj(vec![(
                "history".to_string(),
                Json::Arr(vec![entry.clone()]),
            )]);
            let r = compare(&alone, entry, &RegressConfig::default())
                .unwrap_or_else(|e| panic!("{gate} history entry {i}: {e}"));
            assert!(!r.regressed(), "{gate} history entry {i}");
        }
    }
}

#[test]
fn baselines_hold_the_golden_identities() {
    // CI's identity step reads the pipeline hashes from the top level.
    let pipeline = baseline("pipeline");
    let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
    assert_eq!(pipeline.get("scale").and_then(Json::as_f64), Some(0.1));
    assert_eq!(
        field(&pipeline, "rows_fnv").as_deref(),
        Some("671bc96157a6d3fc")
    );
    assert_eq!(
        field(&pipeline, "figures_fnv").as_deref(),
        Some("67933fdd98602df9")
    );
    assert_eq!(
        field(&baseline("serve"), "digest").as_deref(),
        Some("b88d3a71f871c5dd")
    );
}
