//! Reconstructing the span forest from a raw event stream.
//!
//! A [`crate::TraceDump`] is a flat multiset of begin/end events from
//! many threads. This module pairs them back into [`SpanNode`]s with
//! intervals on both clocks, resolves parent links (same-thread
//! nesting and explicit cross-thread fork edges alike), and checks the
//! structural invariants the exporters rely on.

#[cfg(test)]
use crate::trace::TraceEvent;
use crate::trace::{TraceDump, TraceEventKind, ARG_NONE};
use std::collections::HashMap;

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct SpanNode {
    pub id: u64,
    /// Parent span id (0 = root). May live on another thread.
    pub parent: u64,
    pub tid: u32,
    pub name_id: u32,
    /// Worker/shard label ([`ARG_NONE`] = none).
    pub arg: u64,
    pub begin_ns: u64,
    pub end_ns: u64,
    pub begin_sim_us: u64,
    pub end_sim_us: u64,
    /// Indices into [`Forest::nodes`] in sibling order (see [`Forest`]).
    pub children: Vec<usize>,
    /// Off-stack lifetime span ([`crate::trace_async`]).
    pub is_async: bool,
    /// No matching end event was seen (clamped to the dump horizon).
    pub unclosed: bool,
}

impl SpanNode {
    pub fn wall_dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.begin_ns)
    }

    /// Display label: `name` or `name[arg]`.
    pub fn label(&self, dump: &TraceDump) -> String {
        if self.arg == ARG_NONE {
            dump.name(self.name_id).to_string()
        } else {
            format!("{}[{}]", dump.name(self.name_id), self.arg)
        }
    }
}

/// The reconstructed cross-thread span forest.
///
/// Sibling order — of [`Forest::roots`] and of every
/// [`SpanNode::children`] — is time order: ascending `(begin_ns, id)`.
/// Concurrent siblings (forked workers) therefore appear in the order
/// they began, which depends on the schedule, not in spawn order; the
/// span id breaks timestamp ties deterministically. The tree itself
/// (names, args and parent edges, with children taken as unordered)
/// does not depend on the schedule.
#[derive(Debug, Default)]
pub struct Forest {
    pub nodes: Vec<SpanNode>,
    /// Indices of parentless spans, in sibling order.
    pub roots: Vec<usize>,
}

impl Forest {
    /// The root with the longest wall duration — the natural critical-
    /// path anchor (e.g. `gate/pipeline`).
    pub fn longest_root(&self) -> Option<usize> {
        self.roots
            .iter()
            .copied()
            .max_by_key(|&i| self.nodes[i].wall_dur_ns())
    }
}

/// Pair begins with ends and link parents. Tolerant of unclosed spans
/// (their end is clamped to the latest timestamp in the dump) and of
/// ends whose begin was dropped by the retention cap (ignored);
/// instants become zero-width leaves.
pub fn build_forest(dump: &TraceDump) -> Forest {
    let horizon_ns = dump.events.iter().map(|e| e.wall_ns).max().unwrap_or(0);
    let horizon_sim = dump.events.iter().map(|e| e.sim_us).max().unwrap_or(0);
    let mut nodes: Vec<SpanNode> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();

    // Two passes, matching by span id: sink order is per-thread flush
    // order, so a worker's End can precede the spawner's Begin in the
    // stream even though it happened later on the clock.
    for ev in &dump.events {
        match ev.kind {
            TraceEventKind::Begin | TraceEventKind::AsyncBegin | TraceEventKind::Instant => {
                let idx = nodes.len();
                nodes.push(SpanNode {
                    id: ev.span_id,
                    parent: ev.parent_id,
                    tid: ev.tid,
                    name_id: ev.name_id,
                    arg: ev.arg,
                    begin_ns: ev.wall_ns,
                    end_ns: if ev.kind == TraceEventKind::Instant {
                        ev.wall_ns
                    } else {
                        horizon_ns
                    },
                    begin_sim_us: ev.sim_us,
                    end_sim_us: if ev.kind == TraceEventKind::Instant {
                        ev.sim_us
                    } else {
                        horizon_sim
                    },
                    children: Vec::new(),
                    is_async: ev.kind == TraceEventKind::AsyncBegin,
                    unclosed: ev.kind != TraceEventKind::Instant,
                });
                by_id.insert(ev.span_id, idx);
            }
            TraceEventKind::End | TraceEventKind::AsyncEnd => {}
        }
    }
    for ev in &dump.events {
        if matches!(ev.kind, TraceEventKind::End | TraceEventKind::AsyncEnd) {
            if let Some(&idx) = by_id.get(&ev.span_id) {
                let n = &mut nodes[idx];
                n.end_ns = ev.wall_ns.max(n.begin_ns);
                n.end_sim_us = ev.sim_us.max(n.begin_sim_us);
                n.unclosed = false;
            }
        }
    }

    // Link children; a parent id whose begin was dropped orphans the
    // child into a root.
    let mut roots = Vec::new();
    for idx in 0..nodes.len() {
        let parent = nodes[idx].parent;
        match (parent != 0).then(|| by_id.get(&parent)).flatten() {
            Some(&p) if p != idx => nodes[p].children.push(idx),
            _ => roots.push(idx),
        }
    }
    // Children append in begin-event order per parent, but cross-thread
    // children can interleave: sort into sibling order for exporters.
    let keys: Vec<(u64, u64)> = nodes.iter().map(|n| (n.begin_ns, n.id)).collect();
    for n in &mut nodes {
        n.children.sort_by_key(|&c| keys[c]);
    }
    roots.sort_by_key(|&r| keys[r]);
    Forest { nodes, roots }
}

/// Check the event stream reconstructs a well-formed forest:
///
/// 1. every End/AsyncEnd matches an open Begin of the same kind, and
///    no span is ended twice;
/// 2. every sync span closes (unclosed spans are reported);
/// 3. timestamps are non-regressive within a span (`begin ≤ end`) on
///    both the wall and the sim clock;
/// 4. children nest within their parents on both clocks (begin and end
///    inside the parent's interval).
///
/// Returns the forest on success so callers can keep analyzing.
pub fn validate_forest(dump: &TraceDump) -> Result<Forest, String> {
    // Matching is by span id, not stream position: events arrive in
    // per-thread flush order, so a cross-thread end may precede its
    // begin in the stream. Begins first, then resolve every end.
    let mut open: HashMap<u64, bool> = HashMap::new(); // id → is_async
    for ev in &dump.events {
        if matches!(ev.kind, TraceEventKind::Begin | TraceEventKind::AsyncBegin) {
            let is_async = ev.kind == TraceEventKind::AsyncBegin;
            if open.insert(ev.span_id, is_async).is_some() {
                return Err(format!("span {} begun twice", ev.span_id));
            }
        }
    }
    let mut closed: HashMap<u64, bool> = HashMap::new();
    for ev in &dump.events {
        if matches!(ev.kind, TraceEventKind::End | TraceEventKind::AsyncEnd) {
            let is_async = ev.kind == TraceEventKind::AsyncEnd;
            match open.remove(&ev.span_id) {
                Some(was_async) if was_async == is_async => {
                    closed.insert(ev.span_id, is_async);
                }
                Some(_) => {
                    return Err(format!("span {} ended with wrong kind", ev.span_id));
                }
                None => {
                    return Err(if closed.contains_key(&ev.span_id) {
                        format!("span {} ended twice", ev.span_id)
                    } else {
                        format!("end without begin for span {}", ev.span_id)
                    });
                }
            }
        }
    }
    if let Some((&id, _)) = open.iter().next() {
        return Err(format!("span {id} never ended"));
    }

    let forest = build_forest(dump);
    for node in &forest.nodes {
        if node.begin_ns > node.end_ns {
            return Err(format!("span {} wall clock regressed", node.id));
        }
        if node.begin_sim_us > node.end_sim_us {
            return Err(format!("span {} sim clock regressed", node.id));
        }
        for &c in &node.children {
            let child = &forest.nodes[c];
            if child.begin_ns < node.begin_ns || child.end_ns > node.end_ns {
                return Err(format!(
                    "child {} [{}, {}] ns escapes parent {} [{}, {}] ns",
                    child.id, child.begin_ns, child.end_ns, node.id, node.begin_ns, node.end_ns
                ));
            }
            if child.begin_sim_us < node.begin_sim_us || child.end_sim_us > node.end_sim_us {
                return Err(format!(
                    "child {} escapes parent {} on the sim clock",
                    child.id, node.id
                ));
            }
        }
    }
    Ok(forest)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// Build a dump from `(phase, id, parent, tid, name, wall_ns)`
    /// tuples — shared scaffolding for exporter tests.
    pub fn dump(names: &[&str], evs: &[(char, u64, u64, u32, usize, u64)]) -> TraceDump {
        TraceDump {
            events: evs
                .iter()
                .map(|&(ph, id, par, tid, name, w)| TraceEvent {
                    kind: TraceEventKind::from_phase(ph).expect("phase"),
                    tid,
                    span_id: id,
                    parent_id: par,
                    name_id: name as u32,
                    arg: ARG_NONE,
                    wall_ns: w,
                    sim_us: w / 1000,
                })
                .collect(),
            threads: vec![(1, "main".to_string()), (2, "worker".to_string())],
            names: names.iter().map(|s| s.to_string()).collect(),
            dropped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::dump;
    use super::*;

    #[test]
    fn builds_nested_forest_with_cross_thread_child() {
        // root(1) on tid 1 spans [0, 100]; child(2) same thread
        // [10, 40]; worker root(3) on tid 2 forked child-of 1 [20, 90].
        let d = dump(
            &["root", "child", "worker"],
            &[
                ('B', 1, 0, 1, 0, 0),
                ('B', 2, 1, 1, 1, 10),
                ('E', 2, 0, 1, 1, 40),
                ('B', 3, 1, 2, 2, 20),
                ('E', 3, 0, 2, 2, 90),
                ('E', 1, 0, 1, 0, 100),
            ],
        );
        let f = validate_forest(&d).expect("well-formed");
        assert_eq!(f.roots.len(), 1);
        let root = &f.nodes[f.roots[0]];
        assert_eq!(root.id, 1);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.wall_dur_ns(), 100);
        assert_eq!(f.longest_root(), Some(f.roots[0]));
    }

    #[test]
    fn equal_begin_times_order_siblings_by_span_id() {
        // Children 3 and 2 of root 1 begin at the same instant; 3's
        // begin arrives first in the stream, yet 2 sorts first.
        let d = dump(
            &["root", "w"],
            &[
                ('B', 1, 0, 1, 0, 0),
                ('B', 3, 1, 2, 1, 10),
                ('E', 3, 0, 2, 1, 20),
                ('B', 2, 1, 1, 1, 10),
                ('E', 2, 0, 1, 1, 20),
                ('E', 1, 0, 1, 0, 30),
            ],
        );
        let f = validate_forest(&d).expect("well-formed");
        let ids: Vec<u64> = f.nodes[f.roots[0]]
            .children
            .iter()
            .map(|&c| f.nodes[c].id)
            .collect();
        assert_eq!(ids, [2, 3]);
    }

    #[test]
    fn rejects_end_without_begin_and_double_end() {
        let d = dump(&["x"], &[('E', 9, 0, 1, 0, 5)]);
        assert!(validate_forest(&d)
            .unwrap_err()
            .contains("end without begin"));
        let d = dump(
            &["x"],
            &[
                ('B', 1, 0, 1, 0, 0),
                ('E', 1, 0, 1, 0, 5),
                ('E', 1, 0, 1, 0, 6),
            ],
        );
        assert!(validate_forest(&d).unwrap_err().contains("ended twice"));
    }

    #[test]
    fn rejects_unclosed_and_escaping_children() {
        let d = dump(&["x"], &[('B', 1, 0, 1, 0, 0)]);
        assert!(validate_forest(&d).unwrap_err().contains("never ended"));
        // Child [5, 50] escapes parent [0, 20].
        let d = dump(
            &["p", "c"],
            &[
                ('B', 1, 0, 1, 0, 0),
                ('B', 2, 1, 1, 1, 5),
                ('E', 1, 0, 1, 0, 20),
                ('E', 2, 0, 1, 1, 50),
            ],
        );
        assert!(validate_forest(&d).unwrap_err().contains("escapes parent"));
    }

    #[test]
    fn unclosed_spans_clamp_to_horizon_in_build() {
        let d = dump(&["p"], &[('B', 1, 0, 1, 0, 10), ('B', 2, 1, 1, 0, 20)]);
        let f = build_forest(&d);
        assert!(f.nodes.iter().all(|n| n.unclosed));
        assert_eq!(f.nodes[0].end_ns, 20);
    }
}
