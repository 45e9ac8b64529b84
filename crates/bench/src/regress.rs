//! Bench regression gate: compare a fresh gate report against a
//! committed baseline and fail on regressed metrics.
//!
//! Both documents use the [`crate::gate`] schema. The candidate's top
//! level is its run; the baseline is the newest entry of the committed
//! report's `history` with the same `gate` and the **same scale** — CI
//! gates at scale 0.1 while a committed top level may be a scale-1.0
//! run, so matching by scale is what makes the comparison
//! apples-to-apples.
//!
//! Each metric says which direction is better. A lower-is-better
//! metric regresses when it exceeds `baseline * (1 + tolerance)`; a
//! wall-time (`ms`) one must also exceed `baseline + abs_slack_ms`, so
//! a 3 ms stage going to 5 ms (a 66% "regression") cannot fail the
//! build. The slack is a wall-time notion: µs latencies, rates and
//! ratios get the relative bound only. A higher-is-better metric
//! regresses when it drops below `baseline / (1 + tolerance)`. The
//! `total` metric uses its own tolerance.

use crate::gate::{Better, Run};
use fw_types::Json;

/// Comparison knobs. Defaults are deliberately loose enough for
/// cross-machine CI comparisons; tighten for same-machine A/B runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegressConfig {
    /// Allowed relative change per metric (0.25 = 25% worse).
    pub tolerance: f64,
    /// Allowed absolute slowdown of an `ms` metric, applied on top of
    /// the relative tolerance as a floor for tiny stages.
    pub abs_slack_ms: f64,
    /// Allowed relative slowdown for the end-to-end `total`; totals
    /// aggregate away per-stage jitter, so this can sit tighter than
    /// the per-metric tolerance.
    pub total_tolerance: f64,
}

impl Default for RegressConfig {
    fn default() -> RegressConfig {
        RegressConfig {
            tolerance: 0.25,
            abs_slack_ms: 50.0,
            total_tolerance: 0.20,
        }
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    pub name: String,
    pub unit: String,
    /// `NaN` for informational rows (no baseline to compare against).
    pub baseline: f64,
    /// `NaN` for a metric the candidate lost.
    pub current: f64,
    /// Signed relative change (+0.10 = 10% higher).
    pub ratio: f64,
    pub regressed: bool,
    /// The baseline predates this metric (new instrumentation): the row
    /// is reported for visibility but can never fail the gate — the
    /// next committed baseline picks it up.
    pub informational: bool,
}

/// Outcome of a full comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressReport {
    pub gate: String,
    /// Scale both runs were matched at.
    pub scale: f64,
    pub rows: Vec<MetricDelta>,
    /// Which baseline history entry was compared against.
    pub baseline_from: String,
}

impl RegressReport {
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }

    /// Fixed-width table plus a PASS/FAIL verdict line.
    pub fn render_text(&self, config: &RegressConfig) -> String {
        let fmt = |v: f64, unit: &str| {
            if v.is_nan() {
                "-".to_string()
            } else if unit == "ratio" {
                format!("{v:.4}")
            } else {
                format!("{v:.1}")
            }
        };
        let mut out = format!(
            "bench_regress {} @ scale {} (baseline: {})\n{:<16} {:>5} {:>12} {:>12} {:>8}  verdict\n",
            self.gate, self.scale, self.baseline_from, "metric", "unit", "baseline", "current", "delta"
        );
        for r in &self.rows {
            let (delta, verdict) = if r.informational {
                ("-".to_string(), "new (info)")
            } else if r.current.is_nan() {
                ("-".to_string(), "MISSING")
            } else {
                let verdict = if r.regressed { "REGRESSED" } else { "ok" };
                (format!("{:+.1}%", r.ratio * 100.0), verdict)
            };
            out.push_str(&format!(
                "{:<16} {:>5} {:>12} {:>12} {:>8}  {verdict}\n",
                r.name,
                r.unit,
                fmt(r.baseline, &r.unit),
                fmt(r.current, &r.unit),
                delta
            ));
        }
        out.push_str(&format!(
            "{} (tolerance {:.0}% per metric / {:.0}% total, slack {} ms on ms metrics)\n",
            if self.regressed() { "FAIL" } else { "PASS" },
            config.tolerance * 100.0,
            config.total_tolerance * 100.0,
            config.abs_slack_ms
        ));
        out
    }
}

/// Scales within 1% count as "the same" — reports store them as f64.
fn scale_matches(a: f64, b: f64) -> bool {
    (a - b).abs() <= 0.01 * a.abs().max(b.abs()).max(1e-9)
}

/// Compare a candidate report against a baseline document. Returns
/// `Err` with a diagnostic when either document is missing the needed
/// shape, the baseline holds no run of the candidate's gate, or none
/// at its scale.
pub fn compare(
    baseline: &Json,
    current: &Json,
    config: &RegressConfig,
) -> Result<RegressReport, String> {
    let cur = Run::read(current).ok_or("candidate report has no gate/scale/metrics")?;
    let history: Vec<(usize, Run)> = baseline
        .get("history")
        .and_then(Json::as_arr)
        .ok_or("baseline has no history")?
        .iter()
        .enumerate()
        .filter_map(|(i, entry)| Some((i, Run::read(entry)?)))
        .filter(|(_, run)| run.gate == cur.gate)
        .collect();
    if history.is_empty() {
        return Err(format!(
            "gate mismatch: the baseline holds no {} runs",
            cur.gate
        ));
    }
    let (index, base) = history
        .iter()
        .rev()
        .find(|(_, run)| scale_matches(run.scale, cur.scale))
        .ok_or_else(|| format!("baseline has no {} run at scale {}", cur.gate, cur.scale))?;

    let mut rows = Vec::new();
    for m in &cur.metrics {
        // A metric the baseline predates (new instrumentation) has
        // nothing to regress against; report it as informational
        // rather than failing (or silently dropping it).
        let Some(b) = base.metrics.iter().find(|b| b.name == m.name) else {
            rows.push(MetricDelta {
                name: m.name.clone(),
                unit: m.unit.clone(),
                baseline: f64::NAN,
                current: m.value,
                ratio: 0.0,
                regressed: false,
                informational: true,
            });
            continue;
        };
        let tolerance = if m.name == "total" {
            config.total_tolerance
        } else {
            config.tolerance
        };
        let regressed = match m.better {
            Better::Higher => b.value > 0.0 && m.value < b.value / (1.0 + tolerance),
            Better::Lower => {
                m.value > b.value * (1.0 + tolerance)
                    && (m.unit != "ms" || m.value > b.value + config.abs_slack_ms)
            }
        };
        rows.push(MetricDelta {
            name: m.name.clone(),
            unit: m.unit.clone(),
            baseline: b.value,
            current: m.value,
            ratio: if b.value > 0.0 {
                m.value / b.value - 1.0
            } else {
                0.0
            },
            regressed,
            informational: false,
        });
    }
    if rows.iter().all(|r| r.informational) {
        return Err("no metric names in common between baseline and candidate".to_string());
    }
    // The reverse direction is a failure, not a footnote: a metric the
    // baseline has but the candidate dropped usually means the gate
    // binary lost instrumentation (or a metric was renamed) and the
    // number it used to guard is now ungated. Surface it as a
    // regressed row so CI goes red until the baseline is re-committed.
    for b in &base.metrics {
        if !cur.metrics.iter().any(|m| m.name == b.name) {
            rows.push(MetricDelta {
                name: b.name.clone(),
                unit: b.unit.clone(),
                baseline: b.value,
                current: f64::NAN,
                ratio: 0.0,
                regressed: true,
                informational: false,
            });
        }
    }
    Ok(RegressReport {
        gate: cur.gate,
        scale: cur.scale,
        rows,
        baseline_from: format!("history entry {index}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{Metric, Report};

    fn report(gate: &'static str, scale: f64, metrics: Vec<Metric>) -> Report {
        Report {
            gate,
            scale,
            config: Json::Obj(Vec::new()),
            metrics,
            summary: Vec::new(),
            detail: Vec::new(),
        }
    }

    fn stages(gen: f64, ingest: f64, total: f64) -> Vec<Metric> {
        vec![
            Metric::ms("generate", gen),
            Metric::ms("ingest", ingest),
            Metric::ms("total", total),
        ]
    }

    /// A pipeline report whose history holds a scale-0.1 run and then
    /// this one.
    fn pipeline(scale: f64, gen: f64, ingest: f64, total: f64) -> Json {
        let older = report("pipeline", 0.1, stages(40.0, 60.0, 100.0)).document(Vec::new());
        let older = older
            .get("history")
            .and_then(Json::as_arr)
            .unwrap()
            .to_vec();
        report("pipeline", scale, stages(gen, ingest, total)).document(older)
    }

    fn row<'a>(r: &'a RegressReport, name: &str) -> &'a MetricDelta {
        r.rows.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn within_tolerance_passes() {
        let base = pipeline(1.0, 1000.0, 2000.0, 3000.0);
        let cur = pipeline(1.0, 1100.0, 2100.0, 3200.0);
        let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
        assert!(
            !r.regressed(),
            "{}",
            r.render_text(&RegressConfig::default())
        );
        assert_eq!(r.baseline_from, "history entry 1");
        assert_eq!(r.rows.len(), 3); // generate, ingest, total
    }

    #[test]
    fn big_stage_slowdown_fails() {
        let base = pipeline(1.0, 1000.0, 2000.0, 3000.0);
        let cur = pipeline(1.0, 1400.0, 2000.0, 3400.0);
        let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
        assert!(row(&r, "generate").regressed);
        assert!(r.regressed());
        assert!(r.render_text(&RegressConfig::default()).contains("FAIL"));
    }

    #[test]
    fn tiny_stage_jitter_is_absorbed_by_abs_slack() {
        // 3 ms -> 5 ms is +66% but only 2 ms; the slack floor absorbs it.
        let base = pipeline(1.0, 3.0, 2000.0, 2003.0);
        let cur = pipeline(1.0, 5.0, 2000.0, 2005.0);
        let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
        assert!(!r.regressed());
    }

    #[test]
    fn baseline_found_in_history_when_scales_differ() {
        // Baseline top level is scale 1.0; candidate runs at 0.1 and
        // must match the 0.1 history entry instead.
        let base = pipeline(1.0, 1000.0, 2000.0, 3000.0);
        let cur = pipeline(0.1, 42.0, 61.0, 103.0);
        let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
        assert_eq!(r.baseline_from, "history entry 0");
        assert_eq!(row(&r, "generate").baseline, 40.0);
        assert!(!r.regressed());
    }

    #[test]
    fn missing_scale_is_a_clean_error() {
        let base = pipeline(1.0, 1000.0, 2000.0, 3000.0);
        let cur = pipeline(0.5, 500.0, 1000.0, 1500.0);
        let err = compare(&base, &cur, &RegressConfig::default()).unwrap_err();
        assert!(err.contains("no pipeline run at scale 0.5"), "{err}");
    }

    #[test]
    fn gate_mismatch_is_a_clean_error() {
        let base = pipeline(0.1, 40.0, 60.0, 100.0);
        let cur = serve(100_000.0, 0.70).document(Vec::new());
        let err = compare(&base, &cur, &RegressConfig::default()).unwrap_err();
        assert!(err.contains("gate mismatch"), "{err}");
        assert!(err.contains("no serve runs"), "{err}");
    }

    #[test]
    fn new_stages_absent_from_baseline_are_informational() {
        let base = pipeline(1.0, 1000.0, 2000.0, 3000.0);
        let mut metrics = stages(1000.0, 2000.0, 3000.0);
        metrics.push(Metric::ms("brand_new", 9999.0));
        let cur = report("pipeline", 1.0, metrics).document(Vec::new());
        let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
        // The new metric shows up, marked informational, and cannot
        // fail the gate no matter how slow it is.
        let new = row(&r, "brand_new");
        assert!(new.informational);
        assert!(!new.regressed);
        assert!(new.baseline.is_nan());
        assert_eq!(new.current, 9999.0);
        assert!(!r.regressed());
        let text = r.render_text(&RegressConfig::default());
        assert!(text.contains("new (info)"), "{text}");
        assert!(text.contains("PASS"), "{text}");
    }

    #[test]
    fn stage_missing_from_candidate_fails_the_gate() {
        // The baseline has generate + ingest; the candidate lost ingest
        // (dropped instrumentation). That must fail, not pass silently.
        let base = pipeline(1.0, 1000.0, 2000.0, 3000.0);
        let metrics = vec![Metric::ms("generate", 1000.0), Metric::ms("total", 3000.0)];
        let cur = report("pipeline", 1.0, metrics).document(Vec::new());
        let r = compare(&base, &cur, &RegressConfig::default()).unwrap();
        let lost = row(&r, "ingest");
        assert!(lost.regressed);
        assert!(!lost.informational);
        assert_eq!(lost.baseline, 2000.0);
        assert!(lost.current.is_nan());
        assert!(r.regressed());
        let text = r.render_text(&RegressConfig::default());
        assert!(text.contains("MISSING"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
    }

    /// A serve run: one wall stage, a µs latency, and two
    /// higher-is-better metrics.
    fn serve_run(serve_ms: f64, p50_us: f64, qps: f64, hit_rate: f64) -> Report {
        report(
            "serve",
            1.0,
            vec![
                Metric::ms("serve", serve_ms),
                Metric::new("p50_us", p50_us, "us", Better::Lower),
                Metric::new("qps", qps, "1/s", Better::Higher),
                Metric::new("hit_rate", hit_rate, "ratio", Better::Higher),
                Metric::ms("total", 5000.0),
            ],
        )
    }

    fn serve(qps: f64, hit_rate: f64) -> Report {
        serve_run(4000.0, 19.0, qps, hit_rate)
    }

    fn compare_serve(base: Report, cur: Report, config: &RegressConfig) -> RegressReport {
        compare(
            &base.document(Vec::new()),
            &cur.document(Vec::new()),
            config,
        )
        .unwrap()
    }

    #[test]
    fn throughput_drop_beyond_tolerance_fails() {
        let config = RegressConfig::default();
        let r = compare_serve(serve(100_000.0, 0.70), serve(70_000.0, 0.70), &config);
        assert!(
            row(&r, "qps").regressed,
            "qps 100k -> 70k must regress at 25% tol"
        );
        assert!(r.regressed());
    }

    #[test]
    fn throughput_gain_and_jitter_pass() {
        let config = RegressConfig::default();
        // Faster and slightly-lucky hit rate: both fine.
        let r = compare_serve(serve(100_000.0, 0.70), serve(140_000.0, 0.72), &config);
        assert!(!r.regressed(), "{}", r.render_text(&config));
        // A within-tolerance dip is fine too.
        let r = compare_serve(serve(100_000.0, 0.70), serve(90_000.0, 0.69), &config);
        assert!(!r.regressed(), "{}", r.render_text(&config));
    }

    #[test]
    fn rate_stages_ignore_the_ms_slack_floor() {
        // hit_rate 0.70 -> 0.30 is a tiny absolute delta — far under
        // abs_slack_ms — but must still fail: slack floors are for wall
        // time, not ratios.
        let config = RegressConfig::default();
        let r = compare_serve(serve(100_000.0, 0.70), serve(100_000.0, 0.30), &config);
        assert!(row(&r, "hit_rate").regressed);
        assert!(r.regressed());
    }

    #[test]
    fn us_latency_ignores_the_ms_slack_floor() {
        // CI's serve flags: p50 19 µs -> 110 µs (+479%) is under the
        // 100 "ms" slack in absolute terms, but µs are not wall-time
        // ms; the relative bound (fail above 57 µs) must catch it.
        let config = RegressConfig {
            tolerance: 2.0,
            total_tolerance: 1.5,
            abs_slack_ms: 100.0,
        };
        let base = serve_run(4000.0, 19.0, 100_000.0, 0.70);
        let r = compare_serve(base, serve_run(4000.0, 110.0, 100_000.0, 0.70), &config);
        assert!(row(&r, "p50_us").regressed, "{}", r.render_text(&config));
        let base = serve_run(4000.0, 19.0, 100_000.0, 0.70);
        let r = compare_serve(base, serve_run(4000.0, 57.0, 100_000.0, 0.70), &config);
        assert!(!r.regressed(), "{}", r.render_text(&config));
    }

    #[test]
    fn direction_comes_from_the_report() {
        // `detect_recall` is higher-is-better by its `better` field,
        // not by a list of names the comparator knows.
        let recall = |v: f64| {
            report(
                "stream",
                0.1,
                vec![Metric::new("detect_recall", v, "ratio", Better::Higher)],
            )
            .document(Vec::new())
        };
        let config = RegressConfig::default();
        let r = compare(&recall(1.0), &recall(0.5), &config).unwrap();
        assert!(row(&r, "detect_recall").regressed);
        let r = compare(&recall(0.5), &recall(1.0), &config).unwrap();
        assert!(!r.regressed(), "{}", r.render_text(&config));
    }

    #[test]
    fn slower_wall_stages_still_fail_in_the_same_report() {
        // Mixing directions: qps fine, but the serve wall stage blew up.
        let config = RegressConfig::default();
        let r = compare_serve(
            serve(100_000.0, 0.70),
            serve_run(9000.0, 19.0, 100_000.0, 0.70),
            &config,
        );
        assert!(row(&r, "serve").regressed);
        assert!(!row(&r, "qps").regressed);
    }

    #[test]
    fn all_informational_is_a_clean_error() {
        let base = pipeline(1.0, 1000.0, 2000.0, 3000.0);
        let cur = report("pipeline", 1.0, vec![Metric::ms("brand_new", 9.0)]).document(Vec::new());
        let err = compare(&base, &cur, &RegressConfig::default()).unwrap_err();
        assert!(err.contains("no metric names in common"), "{err}");
    }
}
