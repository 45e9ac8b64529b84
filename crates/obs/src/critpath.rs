//! Critical-path attribution over the cross-thread span DAG.
//!
//! Walks backwards from the end of a root span: at each cursor
//! position, the *latest-finishing* sync child whose end is at or
//! before the cursor is the span the root was (transitively) waiting
//! on; the walk descends into that child, attributes the child's
//! non-covered remainder to the child itself, and resumes at the
//! child's begin. Gaps with no candidate child are attributed to the
//! current span's own work. Every nanosecond of the root interval is
//! attributed exactly once, so the per-stage breakdown sums to the
//! root's wall duration by construction.
//!
//! Async lifetime spans (SimNet connections) are observational — they
//! do not occupy a worker — and are excluded from the walk.

use crate::forest::Forest;
use crate::trace::TraceDump;
use std::collections::HashMap;

/// Wall time attributed to one span label along the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CritEntry {
    /// Span name (interned string, without the `[arg]` suffix).
    pub name: String,
    /// Worker/shard label if the span carried one.
    pub arg: Option<u64>,
    pub self_ns: u64,
    /// How many distinct spans of this label contributed.
    pub spans: u64,
}

/// Critical-path report for one root span.
#[derive(Debug, Clone)]
pub struct CritReport {
    pub root: String,
    pub total_ns: u64,
    /// Aggregated by `(name, arg)`, descending by `self_ns`.
    pub entries: Vec<CritEntry>,
}

impl CritReport {
    pub fn attributed_ns(&self) -> u64 {
        self.entries.iter().map(|e| e.self_ns).sum()
    }

    /// Human-readable table, one line per entry plus header/footer.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path of {} — total {:.3} ms\n",
            self.root,
            self.total_ns as f64 / 1e6
        ));
        out.push_str(&format!(
            "{:<32} {:>12} {:>8} {:>7}\n",
            "span", "self_ms", "spans", "share"
        ));
        for e in &self.entries {
            let label = match e.arg {
                Some(a) => format!("{}[{}]", e.name, a),
                None => e.name.clone(),
            };
            out.push_str(&format!(
                "{:<32} {:>12.3} {:>8} {:>6.1}%\n",
                label,
                e.self_ns as f64 / 1e6,
                e.spans,
                if self.total_ns == 0 {
                    0.0
                } else {
                    e.self_ns as f64 * 100.0 / self.total_ns as f64
                }
            ));
        }
        out.push_str(&format!(
            "attributed {:.3} ms of {:.3} ms ({:.2}%)\n",
            self.attributed_ns() as f64 / 1e6,
            self.total_ns as f64 / 1e6,
            if self.total_ns == 0 {
                100.0
            } else {
                self.attributed_ns() as f64 * 100.0 / self.total_ns as f64
            }
        ));
        out
    }

    /// JSON object for machine consumption (bench_regress, CI).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"root\": ");
        fw_types::json::write_str(&mut out, &self.root);
        out.push_str(&format!(
            ",\n  \"total_ns\": {},\n  \"attributed_ns\": {},\n  \"entries\": [\n",
            self.total_ns,
            self.attributed_ns()
        ));
        for (i, e) in self.entries.iter().enumerate() {
            let arg = match e.arg {
                Some(a) => a.to_string(),
                None => "null".to_string(),
            };
            out.push_str("    {\"name\": ");
            fw_types::json::write_str(&mut out, &e.name);
            out.push_str(&format!(
                ", \"arg\": {}, \"self_ns\": {}, \"spans\": {}}}{}\n",
                arg,
                e.self_ns,
                e.spans,
                if i + 1 == self.entries.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Attribute the wall time of `root` (a node index) across the spans on
/// its critical path.
pub fn critical_path(dump: &TraceDump, forest: &Forest, root: usize) -> CritReport {
    // (name_id, arg) → (self_ns, span hit count)
    let mut attrib: HashMap<(u32, u64), (u64, u64)> = HashMap::new();
    walk(forest, root, forest.nodes[root].begin_ns, &mut attrib);

    let mut entries: Vec<CritEntry> = attrib
        .into_iter()
        .map(|((name_id, arg), (self_ns, spans))| CritEntry {
            name: dump.name(name_id).to_string(),
            arg: (arg != crate::trace::ARG_NONE).then_some(arg),
            self_ns,
            spans,
        })
        .collect();
    entries.sort_by(|a, b| {
        b.self_ns
            .cmp(&a.self_ns)
            .then_with(|| a.name.cmp(&b.name))
            .then_with(|| a.arg.cmp(&b.arg))
    });
    let node = &forest.nodes[root];
    CritReport {
        root: node.label(dump),
        total_ns: node.wall_dur_ns(),
        entries,
    }
}

/// Attribute `[floor, node.end]` — the walk never descends below
/// `floor`, which clips children that began before the cursor region
/// (they are charged only for their in-window tail).
fn walk(
    forest: &Forest,
    node_idx: usize,
    floor: u64,
    attrib: &mut HashMap<(u32, u64), (u64, u64)>,
) {
    let node = &forest.nodes[node_idx];
    let mut cursor = node.end_ns;
    let mut self_ns = 0u64;

    // Children sorted by begin; scan from the back for the
    // latest-finishing candidate ending at or before the cursor.
    let mut remaining: Vec<usize> = node
        .children
        .iter()
        .copied()
        .filter(|&c| !forest.nodes[c].is_async)
        .collect();

    while cursor > floor {
        let mut best: Option<usize> = None;
        let mut best_end = 0u64;
        for &c in &remaining {
            let ch = &forest.nodes[c];
            if ch.end_ns <= cursor && ch.end_ns > best_end && ch.end_ns > floor {
                best = Some(c);
                best_end = ch.end_ns;
            }
        }
        match best {
            Some(c) => {
                // The stretch between the child's end and the cursor is
                // this span's own work.
                self_ns += cursor - best_end;
                let ch_floor = forest.nodes[c].begin_ns.max(floor);
                walk(forest, c, ch_floor, attrib);
                cursor = ch_floor;
                remaining.retain(|&r| r != c);
            }
            None => {
                self_ns += cursor - floor;
                cursor = floor;
            }
        }
    }

    let e = attrib.entry((node.name_id, node.arg)).or_insert((0, 0));
    e.0 += self_ns;
    e.1 += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{build_forest, testutil::dump};

    #[test]
    fn attribution_sums_exactly_to_root_duration() {
        // root [0,100]; sequential children a [10,40], b [50,90];
        // b has a nested grandchild c [60,80]; plus a concurrent
        // worker d [20,85] forked from root on another thread — the
        // walk must pick the *latest-finishing* dependency at each
        // cursor, never double-counting.
        let d = dump(
            &["root", "a", "b", "c", "d"],
            &[
                ('B', 1, 0, 1, 0, 0),
                ('B', 2, 1, 1, 1, 10),
                ('E', 2, 0, 1, 1, 40),
                ('B', 5, 1, 2, 4, 20),
                ('B', 3, 1, 1, 2, 50),
                ('B', 4, 3, 1, 3, 60),
                ('E', 4, 0, 1, 3, 80),
                ('E', 5, 0, 2, 4, 85),
                ('E', 3, 0, 1, 2, 90),
                ('E', 1, 0, 1, 0, 100),
            ],
        );
        let f = build_forest(&d);
        let root = f.longest_root().unwrap();
        let rep = critical_path(&d, &f, root);
        assert_eq!(rep.total_ns, 100);
        // Exact-sum invariant: every ns attributed exactly once.
        assert_eq!(rep.attributed_ns(), rep.total_ns);
        let by_name: HashMap<&str, u64> = rep
            .entries
            .iter()
            .map(|e| (e.name.as_str(), e.self_ns))
            .collect();
        // Walk: [90,100] root self; b ends 90 → descend b with floor 50:
        //   c ends 80 → b self [80,90]; c floor 60 → c self [60,80];
        //   cursor 60 → d? d began 20 < 60 but ends 85 > 60 cursor… d
        //   is root's child, not b's; inside b no candidates below 60 →
        //   b self [50,60]. Back at root, cursor 50: d ends 85 > 50 →
        //   not eligible (end must be ≤ cursor); a ends 40 → root self
        //   [40,50]; descend a floor 10 → a self 30; cursor 10 → root
        //   self [0,10].
        assert_eq!(by_name["root"], 10 + 10 + 10);
        assert_eq!(by_name["b"], 10 + 10);
        assert_eq!(by_name["c"], 20);
        assert_eq!(by_name["a"], 30);
        assert!(!by_name.contains_key("d"), "off-path worker not charged");
    }

    #[test]
    fn cross_thread_fork_lands_on_path() {
        // root [0,100] forks worker w [5,95] on tid 2; root itself idle
        // waiting. Critical path ≈ all in w.
        let d = dump(
            &["root", "w"],
            &[
                ('B', 1, 0, 1, 0, 0),
                ('B', 2, 1, 2, 1, 5),
                ('E', 2, 0, 2, 1, 95),
                ('E', 1, 0, 1, 0, 100),
            ],
        );
        let f = build_forest(&d);
        let rep = critical_path(&d, &f, f.longest_root().unwrap());
        assert_eq!(rep.attributed_ns(), 100);
        let w = rep.entries.iter().find(|e| e.name == "w").unwrap();
        assert_eq!(w.self_ns, 90);
    }

    #[test]
    fn async_spans_are_excluded() {
        let d = dump(
            &["root", "conn"],
            &[
                ('B', 1, 0, 1, 0, 0),
                ('b', 2, 1, 1, 1, 10),
                ('e', 2, 0, 1, 1, 90),
                ('E', 1, 0, 1, 0, 100),
            ],
        );
        let f = build_forest(&d);
        let rep = critical_path(&d, &f, f.longest_root().unwrap());
        assert_eq!(rep.attributed_ns(), 100);
        assert_eq!(rep.entries.len(), 1);
        assert_eq!(rep.entries[0].name, "root");
    }

    #[test]
    fn report_renders_text_and_json() {
        let d = dump(
            &["root", "a"],
            &[
                ('B', 1, 0, 1, 0, 0),
                ('B', 2, 1, 1, 1, 10),
                ('E', 2, 0, 1, 1, 60),
                ('E', 1, 0, 1, 0, 100),
            ],
        );
        let f = build_forest(&d);
        let rep = critical_path(&d, &f, f.longest_root().unwrap());
        let text = rep.render_text();
        assert!(text.contains("critical path of root"));
        assert!(text.contains("100.00%"), "exact attribution: {text}");
        let j = crate::Json::parse(&rep.render_json()).expect("valid JSON");
        assert_eq!(j.get("total_ns").and_then(|v| v.as_u64()), Some(100));
        assert_eq!(j.get("attributed_ns").and_then(|v| v.as_u64()), Some(100));
        assert_eq!(
            j.get("entries").and_then(|v| v.as_arr()).map(|a| a.len()),
            Some(2)
        );
    }
}
