//! The one harness behind the CI gates (`pipeline_gate`, `fw_stream_gate`,
//! `fw_serve_gate`; DESIGN.md §13): their shared flags, stage timing,
//! typed metrics, machine fingerprint, report writer and trace artifacts.
//!
//! Every gate writes one report schema:
//!
//! ```text
//! { "gate": "serve", "scale": 0.1, "unix_ms": …,
//!   "machine": {"nproc": 2, "cpu": "…"}, "config": {…},
//!   "metrics": [{"name": "qps", "value": 36687, "unit": "1/s", "better": "higher"}, …],
//!   …summary fields…, …gate-specific detail…,
//!   "history": [run, …] }
//! ```
//!
//! A *run* is the fields from `gate` through the summary. `history`
//! keeps one run per gate invocation, newest last, so the top level is
//! itself the newest run and `Run::read` is the only reader
//! `bench_regress` needs. Only `metrics` are gated; each carries its
//! unit and which direction is better, so nothing downstream guesses
//! either from a name.

use fw_types::Json;
use std::path::{Path, PathBuf};
use std::str::FromStr;
use std::time::Instant;

/// How many runs a report's `history` retains (newest last).
const HISTORY_CAP: usize = 50;

/// Print `error: <msg>` and exit 2 (usage or input error).
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parse the value following `flag`, or exit with a usage error.
pub fn value<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> T {
    flag_value(args, flag).unwrap_or_else(|e| die(&e))
}

/// Parse the value following `flag`.
pub fn flag_value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} needs a valid value"))
}

/// A gate's command line. [`Args::next_flag`] consumes the flags every
/// gate shares (`--out`, `--metrics`, `--trace`, `--trace-out`,
/// `--help`) and hands back the rest.
pub struct Args {
    rest: std::iter::Skip<std::env::Args>,
    usage: &'static str,
    /// Report path.
    pub out: PathBuf,
    trace_out: Option<PathBuf>,
}

impl Args {
    /// `usage` lists the gate's own flags; `out` is the default report path.
    pub fn new(usage: &'static str, out: &str) -> Args {
        Args {
            rest: std::env::args().skip(1),
            usage,
            out: PathBuf::from(out),
            trace_out: None,
        }
    }

    /// The next flag that is not one of the shared ones.
    pub fn next_flag(&mut self) -> Option<String> {
        while let Some(flag) = self.rest.next() {
            match flag.as_str() {
                "--out" => self.out = value(&mut self.rest, "--out"),
                "--metrics" => fw_obs::set_enabled(true),
                "--trace" => fw_obs::set_trace_enabled(true),
                "--trace-out" => self.trace_out = Some(value(&mut self.rest, "--trace-out")),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: {} [--out <path>] [--metrics] [--trace] [--trace-out <path>]",
                        self.usage
                    );
                    std::process::exit(0);
                }
                _ => return Some(flag),
            }
        }
        None
    }

    /// Parse the value following `flag`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        value(&mut self.rest, flag)
    }

    /// Close the gate's root span, write `report` to `--out`, then the
    /// trace dump and its Chrome / folded / critical-path artifacts
    /// (with `--trace` or `FW_TRACE=1`) and the metrics report (with
    /// `--metrics` or `FW_METRICS=1`).
    pub fn finish(self, root: fw_obs::Span, report: &Report) {
        drop(root);
        let dump = fw_obs::trace_enabled().then(fw_obs::drain_trace);
        report
            .write(&self.out)
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", self.out.display())));
        if let Some(dump) = dump {
            let trace_path = self.trace_out.unwrap_or_else(|| {
                let stem = self.out.file_stem().and_then(|s| s.to_str());
                self.out
                    .with_file_name(format!("{}.trace.jsonl", stem.unwrap_or("trace")))
            });
            if let Err(e) = std::fs::write(&trace_path, dump.to_jsonl()) {
                die(&format!("cannot write {}: {e}", trace_path.display()));
            }
            eprintln!(
                "[trace] {} events ({} dropped) -> {}",
                dump.events.len(),
                dump.dropped,
                trace_path.display()
            );
            match fw_obs::write_trace_reports(&dump, &trace_path) {
                Ok(paths) => {
                    eprintln!("[trace] chrome trace  -> {}", paths.chrome.display());
                    eprintln!("[trace] folded stacks -> {}", paths.folded.display());
                    eprintln!("[trace] critical path -> {}", paths.critpath_txt.display());
                    if let Some(crit) = &paths.crit {
                        eprint!("{}", crit.render_text());
                    }
                }
                Err(e) => eprintln!("[trace] cannot write trace reports: {e}"),
            }
        }
        if fw_obs::enabled() {
            eprint!("{}", fw_obs::registry().render_text());
        }
    }
}

/// Peak resident set (VmHWM) in KiB; `None` off Linux or if unreadable.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The host a run was measured on: core count and CPU model (`null`
/// where `/proc/cpuinfo` has none).
fn machine() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", cpu.map_or(Json::Null, Json::Str)),
    ])
}

/// A JSON object from literal keys.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// A JSON number rounded to 4 decimals. A non-finite value (a
/// percentile of nothing) stays non-finite and renders as `null`.
pub fn num(v: f64) -> Json {
    Json::Num((v * 1e4).round() / 1e4)
}

/// A JSON number, or `null` when absent.
pub fn opt(v: Option<u64>) -> Json {
    v.map_or(Json::Null, |v| Json::Num(v as f64))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One gated number: `unit` is `ms` for wall time, `us`, `1/s`, `ratio`
/// or `days` otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub better: Better,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, better: Better) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            better,
        }
    }

    /// A wall time in milliseconds.
    pub fn ms(name: &str, value: f64) -> Metric {
        Metric::new(name, value, "ms", Better::Lower)
    }

    fn to_json(&self) -> Json {
        let better = match self.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        obj([
            ("name", Json::Str(self.name.clone())),
            ("value", num(self.value)),
            ("unit", Json::Str(self.unit.clone())),
            ("better", Json::Str(better.to_string())),
        ])
    }

    /// `None` if a field is missing or the value is `null`.
    fn from_json(j: &Json) -> Option<Metric> {
        let better = match j.get("better")?.as_str()? {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            _ => return None,
        };
        Some(Metric::new(
            j.get("name")?.as_str()?,
            j.get("value")?.as_f64()?,
            j.get("unit")?.as_str()?,
            better,
        ))
    }
}

/// The fields of a run that `bench_regress` compares, read from a
/// report's top level or from one of its history entries.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Run {
    pub(crate) gate: String,
    pub(crate) scale: f64,
    pub(crate) metrics: Vec<Metric>,
}

impl Run {
    pub(crate) fn read(doc: &Json) -> Option<Run> {
        Some(Run {
            gate: doc.get("gate")?.as_str()?.to_string(),
            scale: doc.get("scale")?.as_f64()?,
            metrics: doc
                .get("metrics")?
                .as_arr()?
                .iter()
                .filter_map(Metric::from_json)
                .collect(),
        })
    }
}

/// Wall time of a gate's stages, each an `ms` metric, plus the process
/// peak RSS at the end of each. VmHWM only grows, so a stage's RSS
/// reads "the run had peaked at N KiB by the time it finished".
pub struct Stages {
    start: Instant,
    metrics: Vec<Metric>,
    rss: Vec<(String, Json)>,
}

impl Stages {
    pub fn start() -> Stages {
        Stages {
            start: Instant::now(),
            metrics: Vec::new(),
            rss: Vec::new(),
        }
    }

    /// Run `f` as stage `name` under a `stage/<name>` span (a child of
    /// the gate's `gate/<gate>` root span in the trace), timed by that
    /// span's clock.
    pub fn run<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let span = fw_obs::span(&format!("stage/{name}"));
        let out = f();
        let ms = span.elapsed().as_secs_f64() * 1e3;
        drop(span);
        self.record(name, ms, peak_rss_kb());
        out
    }

    /// Record a stage timed elsewhere.
    pub fn record(&mut self, name: &str, ms: f64, rss_kb: Option<u64>) {
        self.metrics.push(Metric::ms(name, ms));
        self.rss.push((name.to_string(), opt(rss_kb)));
    }

    /// Wall ms of the most recent stage.
    pub fn last_ms(&self) -> f64 {
        self.metrics.last().map_or(0.0, |m| m.value)
    }

    /// The stage metrics, then `extra`, then `total` (wall ms since
    /// [`Stages::start`]); and the per-stage RSS as a
    /// `stage_peak_rss_kb` detail object.
    pub fn finish(self, extra: Vec<Metric>) -> (Vec<Metric>, Json) {
        let total = Metric::ms("total", self.start.elapsed().as_secs_f64() * 1e3);
        let mut metrics = self.metrics;
        metrics.extend(extra);
        metrics.push(total);
        (metrics, Json::Obj(self.rss))
    }
}

/// One gate run, ready to write.
pub struct Report {
    pub gate: &'static str,
    /// The scale `bench_regress` matches baselines on.
    pub scale: f64,
    pub config: Json,
    pub metrics: Vec<Metric>,
    /// Ungated numbers recorded in the history entry as well.
    pub summary: Vec<(&'static str, Json)>,
    /// Gate-specific detail, top level only.
    pub detail: Vec<(&'static str, Json)>,
}

impl Report {
    /// `total N ms (stage N / stage N …)` over the run's wall-time
    /// metrics, for a gate's stdout summary line.
    pub fn walls(&self) -> String {
        let walls = self.metrics.iter().filter(|m| m.unit == "ms");
        let (total, stages): (Vec<&Metric>, Vec<&Metric>) = walls.partition(|m| m.name == "total");
        let stages: Vec<String> = stages
            .iter()
            .map(|m| format!("{} {:.0}", m.name, m.value))
            .collect();
        let total = total.first().map_or(0.0, |m| m.value);
        format!("total {total:.0} ms ({})", stages.join(" / "))
    }

    /// The whole document: this run, its detail, and `history` (prior
    /// runs, oldest first) with this run appended and capped.
    pub(crate) fn document(&self, mut history: Vec<Json>) -> Json {
        let unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let mut run = vec![
            ("gate".to_string(), Json::Str(self.gate.to_string())),
            ("scale".to_string(), Json::Num(self.scale)),
            ("unix_ms".to_string(), Json::Num(unix_ms as f64)),
            ("machine".to_string(), machine()),
            ("config".to_string(), self.config.clone()),
            (
                "metrics".to_string(),
                Json::Arr(self.metrics.iter().map(Metric::to_json).collect()),
            ),
        ];
        run.extend(self.summary.iter().map(|(k, v)| (k.to_string(), v.clone())));
        history.push(Json::Obj(run.clone()));
        history.drain(..history.len().saturating_sub(HISTORY_CAP));
        run.extend(self.detail.iter().map(|(k, v)| (k.to_string(), v.clone())));
        run.push(("history".to_string(), Json::Arr(history)));
        Json::Obj(run)
    }

    /// Write the report to `path`, carrying over the history of the
    /// report already there (a file that is not JSON starts afresh).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let history = match std::fs::read_to_string(path).map(|t| Json::parse(&t)) {
            Ok(Ok(old)) => old
                .get("history")
                .and_then(Json::as_arr)
                .map_or_else(Vec::new, <[Json]>::to_vec),
            Ok(Err(_)) => {
                eprintln!(
                    "[history] existing {} is not valid JSON; starting a fresh history",
                    path.display()
                );
                Vec::new()
            }
            Err(_) => Vec::new(),
        };
        std::fs::write(path, render_lines(&self.document(history)))
    }
}

/// One top-level field per line, and one line per element of a
/// top-level array: committed reports stay readable and diff by run.
fn render_lines(doc: &Json) -> String {
    let fields = doc.as_obj().unwrap_or_default();
    let lines: Vec<String> = fields
        .iter()
        .map(|(k, v)| match v.as_arr() {
            Some(items) if !items.is_empty() => {
                let items: Vec<String> = items
                    .iter()
                    .map(|e| format!("    {}", e.render()))
                    .collect();
                format!("  \"{k}\": [\n{}\n  ]", items.join(",\n"))
            }
            _ => format!("  \"{k}\": {}", v.render()),
        })
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(value: f64) -> Report {
        Report {
            gate: "test",
            scale: 0.1,
            config: obj([("seed", Json::Num(42.0))]),
            metrics: vec![Metric::ms("stage", value)],
            summary: vec![("rows", Json::Num(10.0))],
            detail: vec![("digest", Json::Str("00ff".to_string()))],
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fw-gate-{}-{name}.json", std::process::id()))
    }

    fn read(path: &Path) -> Json {
        Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn history_values(doc: &Json) -> Vec<f64> {
        let history = doc.get("history").and_then(Json::as_arr).unwrap();
        history
            .iter()
            .map(|e| Run::read(e).unwrap().metrics[0].value)
            .collect()
    }

    #[test]
    fn two_writes_give_two_history_entries_newest_last() {
        let path = temp_path("two-writes");
        report(1.0).write(&path).unwrap();
        report(2.0).write(&path).unwrap();
        let doc = read(&path);
        assert_eq!(history_values(&doc), [1.0, 2.0]);
        // The top level is the newest run, summary included.
        let newest = doc.get("history").and_then(Json::as_arr).unwrap()[1].clone();
        for (k, v) in newest.as_obj().unwrap() {
            assert_eq!(
                doc.get(k),
                Some(v),
                "top-level {k} differs from the newest run"
            );
        }
        assert_eq!(newest.get("rows"), Some(&Json::Num(10.0)));
        assert_eq!(newest.get("digest"), None, "detail stays top-level only");
        assert_eq!(Run::read(&doc).unwrap().metrics, [Metric::ms("stage", 2.0)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn history_caps_at_fifty_runs() {
        let path = temp_path("cap");
        for i in 0..HISTORY_CAP + 3 {
            report(i as f64).write(&path).unwrap();
        }
        let values = history_values(&read(&path));
        assert_eq!(values.len(), HISTORY_CAP);
        assert_eq!(values[0], 3.0);
        assert_eq!(values[HISTORY_CAP - 1], (HISTORY_CAP + 2) as f64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_non_json_file_starts_a_fresh_history() {
        let path = temp_path("garbage");
        std::fs::write(&path, "not json {").unwrap();
        report(7.0).write(&path).unwrap();
        assert_eq!(history_values(&read(&path)), [7.0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_finite_values_render_as_null_and_read_back_as_absent() {
        let doc = Report {
            metrics: vec![Metric::ms("stage", f64::NAN), Metric::ms("ok", 1.23456)],
            ..report(0.0)
        }
        .document(Vec::new());
        let text = render_lines(&doc);
        let run = Run::read(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(run.metrics, [Metric::ms("ok", 1.2346)]);
    }
}
