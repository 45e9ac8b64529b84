//! Daemon checkpoint/status document (DESIGN.md §14).
//!
//! A small JSON summary of a daemon's progress — the watermark plus
//! monotone counters — using the shared [`fw_types::Json`] value type.
//! It is the daemon's status (`StreamDaemon::checkpoint`) and what the
//! stream gate embeds in `BENCH_stream.json`; `from_json` exists so a
//! supervisor can read a checkpoint back and verify resume invariants
//! (watermark monotonicity, row-count continuity) without re-deriving
//! state.

use fw_types::{DayStamp, Json};

/// Progress summary of one daemon instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Checkpoint {
    /// Highest watermark closed so far (`None` before the first batch).
    pub watermark_day: Option<DayStamp>,
    /// Batches applied.
    pub batches: u64,
    /// Rows applied.
    pub rows: u64,
    /// Rows that arrived below the already-closed watermark (applied
    /// anyway — updates commute — but counted as feed disorder).
    pub late_rows: u64,
    /// Distinct fqdns identified as functions so far.
    pub identified: u64,
    /// Distinct fqdns classified as noise so far.
    pub unmatched: u64,
    /// Requests accumulated across identified functions.
    pub total_requests: u64,
    /// Abuse candidates flagged by the scorer.
    pub candidates: u64,
}

impl Checkpoint {
    pub fn to_json(&self) -> Json {
        let mut fields = vec![(
            "watermark_day".to_string(),
            match self.watermark_day {
                Some(d) => Json::Num(d.0 as f64),
                None => Json::Null,
            },
        )];
        for (k, v) in [
            ("batches", self.batches),
            ("rows", self.rows),
            ("late_rows", self.late_rows),
            ("identified", self.identified),
            ("unmatched", self.unmatched),
            ("total_requests", self.total_requests),
            ("candidates", self.candidates),
        ] {
            fields.push((k.to_string(), Json::Num(v as f64)));
        }
        Json::Obj(fields)
    }

    pub fn from_json(v: &Json) -> Result<Checkpoint, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("checkpoint field {k:?} missing or not a u64"))
        };
        let watermark_day = match v.get("watermark_day") {
            None | Some(Json::Null) => None,
            Some(d) => Some(DayStamp(
                d.as_f64()
                    .ok_or_else(|| "checkpoint watermark_day not a number".to_string())?
                    as i64,
            )),
        };
        Ok(Checkpoint {
            watermark_day,
            batches: num("batches")?,
            rows: num("rows")?,
            late_rows: num("late_rows")?,
            identified: num("identified")?,
            unmatched: num("unmatched")?,
            total_requests: num("total_requests")?,
            candidates: num("candidates")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let cp = Checkpoint {
            watermark_day: Some(DayStamp(19_813)),
            batches: 731,
            rows: 230_000,
            late_rows: 3,
            identified: 53_000,
            unmatched: 41_000,
            total_requests: 9_000_000,
            candidates: 812,
        };
        let text = cp.to_json().render();
        let back = Checkpoint::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cp);

        let empty = Checkpoint::default();
        let back = Checkpoint::from_json(&Json::parse(&empty.to_json().render()).unwrap()).unwrap();
        assert_eq!(back, empty);
        assert_eq!(back.watermark_day, None);
    }

    #[test]
    fn rejects_missing_fields() {
        let v = Json::parse(r#"{"batches": 1}"#).unwrap();
        assert!(Checkpoint::from_json(&v).is_err());
    }
}
