//! Trace event-ordering properties (ISSUE-6 satellite).
//!
//! Begin/end events produced by N concurrent worker threads — with
//! random nesting depths, spans closed out of LIFO order, and instants
//! mixed in — must always reconstruct a well-formed forest: every end
//! matches an open begin of the same kind, and children nest within
//! their parents. Siblings come in time order, `(begin_ns, id)`, and
//! the tree with timestamps and ids stripped does not depend on the
//! schedule. Each thread's span stack pops by position and starts from
//! its own root.
//!
//! These run in the integration-test process (not the lib tests)
//! because they flip the process-global trace flag and drain the global
//! sink; the [`TRACE_LOCK`] serializes the cases within this process.

use fw_obs::{Forest, TraceDump};
use proptest::prelude::*;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Run `body` under an enabled tracer inside a `prop/root` span and
/// drain the resulting dump. `body` gets the root's id as a fork edge.
fn traced(body: impl FnOnce(u64)) -> TraceDump {
    let _serialize = TRACE_LOCK.lock().unwrap();
    fw_obs::trace_reset();
    fw_obs::set_trace_enabled(true);
    {
        let root = fw_obs::trace_span("prop/root");
        let fork = root.id();
        assert_ne!(fork, 0, "tracing is on, root must be live");
        body(fork);
    }
    fw_obs::set_trace_enabled(false);
    fw_obs::drain_trace()
}

/// Execute one program per worker thread under an enabled tracer and
/// drain the resulting dump. Ops (per byte, mod 4): 0 = open a nested
/// span, 1 = close the innermost open span, 2 = close a randomly chosen
/// open span that has no open child, 3 = record an instant. Op 0 with
/// the byte's top bit set opens the span as a sibling of the innermost
/// one instead (an explicit parent), so the stack holds childless spans
/// under open ones, and op 2 pops them from the middle of the stack;
/// the next nested span and instant must still parent to the stack's
/// innermost span. Unclosed spans unwind LIFO at thread end.
fn run_workers(programs: &[Vec<u8>]) -> TraceDump {
    traced(|fork| {
        let handles: Vec<_> = programs
            .iter()
            .cloned()
            .enumerate()
            .map(|(w, prog)| {
                std::thread::spawn(move || {
                    let worker = fw_obs::trace_span_child_of(fork, "prop/worker", w as u64);
                    // Open spans in opening order, each with its parent.
                    let mut open: Vec<(fw_obs::TraceSpan, u64)> = Vec::new();
                    for op in prog {
                        match op % 4 {
                            0 if op & 0x80 == 0 => {
                                let top = open.last().map_or(worker.id(), |(s, _)| s.id());
                                let span = fw_obs::trace_span_arg("prop/op", u64::from(op));
                                open.push((span, top));
                            }
                            0 => {
                                // A sibling of the innermost open span.
                                let parent = open.last().map_or(worker.id(), |(_, p)| *p);
                                let span =
                                    fw_obs::trace_span_child_of(parent, "prop/op", u64::from(op));
                                open.push((span, parent));
                            }
                            1 => {
                                open.pop();
                            }
                            2 => {
                                // A span with an open child would end
                                // before it and fail the nesting check.
                                let leaves: Vec<usize> = (0..open.len())
                                    .filter(|&i| {
                                        let id = open[i].0.id();
                                        !open.iter().any(|(_, p)| *p == id)
                                    })
                                    .collect();
                                if !leaves.is_empty() {
                                    drop(open.remove(leaves[usize::from(op / 4) % leaves.len()]));
                                }
                            }
                            _ => fw_obs::trace_instant("prop/mark", u64::from(op)),
                        }
                    }
                    // Vec::pop returns the innermost first: LIFO unwind.
                    while open.pop().is_some() {}
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    })
}

/// A span tree with timestamps and ids stripped: names, args and
/// parent edges, children as an unordered (sorted) multiset.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Shape {
    name: String,
    arg: u64,
    children: Vec<Shape>,
}

fn shape(dump: &TraceDump, forest: &Forest, idx: usize) -> Shape {
    let node = &forest.nodes[idx];
    let mut children: Vec<Shape> = node
        .children
        .iter()
        .map(|&c| shape(dump, forest, c))
        .collect();
    children.sort();
    Shape {
        name: dump.name(node.name_id).to_string(),
        arg: node.arg,
        children,
    }
}

fn forest_shape(dump: &TraceDump, forest: &Forest) -> Vec<Shape> {
    let mut roots: Vec<Shape> = forest
        .roots
        .iter()
        .map(|&r| shape(dump, forest, r))
        .collect();
    roots.sort();
    roots
}

/// Every sibling list — roots and each node's children — is in
/// ascending `(begin_ns, id)` order.
fn siblings_in_time_order(forest: &Forest) -> bool {
    let key = |i: usize| (forest.nodes[i].begin_ns, forest.nodes[i].id);
    std::iter::once(&forest.roots)
        .chain(forest.nodes.iter().map(|n| &n.children))
        .all(|sibs| sibs.windows(2).all(|w| key(w[0]) < key(w[1])))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any mix of worker programs yields a forest that passes every
    /// structural check, with one connected tree under `prop/root`.
    #[test]
    fn concurrent_workers_reconstruct_a_well_formed_forest(
        programs in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..24),
            1..6,
        )
    ) {
        let dump = run_workers(&programs);
        let forest = match fw_obs::validate_forest(&dump) {
            Ok(f) => f,
            Err(e) => return Err(proptest::test_runner::TestCaseError::Fail(
                format!("forest invalid: {e}"),
            )),
        };
        prop_assert_eq!(dump.dropped, 0);

        // Exactly one root: everything hangs off prop/root via the
        // explicit fork edges.
        prop_assert_eq!(forest.roots.len(), 1);
        let root = &forest.nodes[forest.roots[0]];
        prop_assert_eq!(dump.name(root.name_id), "prop/root");
        prop_assert_eq!(root.children.len(), programs.len());

        // Begin/end events pair off exactly (instants aside).
        let begins = dump.events.iter()
            .filter(|e| e.kind == fw_obs::TraceEventKind::Begin).count();
        let ends = dump.events.iter()
            .filter(|e| e.kind == fw_obs::TraceEventKind::End).count();
        prop_assert_eq!(begins, ends);

        // Siblings are in time order, not spawn order: concurrent
        // workers may begin in any order.
        prop_assert!(siblings_in_time_order(&forest));

        // Worker roots hang off prop/root by the fork edge and carry
        // their worker indices, each exactly once.
        let mut args = Vec::new();
        for &c in &root.children {
            let node = &forest.nodes[c];
            prop_assert_eq!(dump.name(node.name_id), "prop/worker");
            prop_assert_eq!(node.parent, root.id);
            args.push(node.arg);
        }
        args.sort_unstable();
        prop_assert_eq!(args, (0..programs.len() as u64).collect::<Vec<_>>());
    }

    /// The tree does not depend on the schedule: two runs of the same
    /// programs give equal trees once timestamps and ids are stripped.
    #[test]
    fn same_programs_give_the_same_tree_under_any_schedule(
        programs in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..24),
            1..6,
        )
    ) {
        let first = run_workers(&programs);
        let second = run_workers(&programs);
        let a = fw_obs::validate_forest(&first).map_err(TestCaseError::Fail)?;
        let b = fw_obs::validate_forest(&second).map_err(TestCaseError::Fail)?;
        prop_assert_eq!(forest_shape(&first, &a), forest_shape(&second, &b));
    }
}

/// Sibling order is begin order, not spawn order: worker 1 begins its
/// span before worker 0 is allowed to, so it is the root's first child.
#[test]
fn siblings_follow_begin_order_not_spawn_order() {
    let dump = traced(|fork| {
        let (began, wait) = std::sync::mpsc::channel::<()>();
        let w0 = std::thread::spawn(move || {
            wait.recv().unwrap();
            let _worker = fw_obs::trace_span_child_of(fork, "prop/worker", 0);
        });
        let w1 = std::thread::spawn(move || {
            let _worker = fw_obs::trace_span_child_of(fork, "prop/worker", 1);
            began.send(()).unwrap();
        });
        w0.join().unwrap();
        w1.join().unwrap();
    });
    let forest = fw_obs::validate_forest(&dump).expect("well-formed");
    let root = &forest.nodes[forest.roots[0]];
    let args: Vec<u64> = root.children.iter().map(|&c| forest.nodes[c].arg).collect();
    assert_eq!(args, [1, 0]);
    assert!(siblings_in_time_order(&forest));
}

/// The parent a `Begin` event recorded for the span called `name`.
fn parent_of(dump: &TraceDump, name: &str) -> u64 {
    dump.events
        .iter()
        .find(|e| e.kind == fw_obs::TraceEventKind::Begin && dump.name(e.name_id) == name)
        .unwrap_or_else(|| panic!("no span {name}"))
        .parent_id
}

/// A guard dropped out of LIFO order removes only itself from the
/// thread's span stack: a span opened next nests under the innermost
/// span still open, and once that closes too, under the root — not
/// under the closed middle span.
#[test]
fn out_of_order_guard_drops_do_not_corrupt_the_stack() {
    let mut ids = (0, 0, 0);
    let dump = traced(|_| {
        let root = fw_obs::trace_span("ooo/root");
        let a = fw_obs::trace_span("ooo/a");
        let b = fw_obs::trace_span("ooo/b");
        ids = (root.id(), a.id(), b.id());
        // Drop the outer child first — a mis-scoped guard.
        drop(a);
        drop(fw_obs::trace_span("ooo/mid"));
        drop(b);
        let _after = fw_obs::trace_span("ooo/after");
    });
    let (root, a, b) = ids;
    assert_eq!(parent_of(&dump, "ooo/b"), a);
    assert_eq!(parent_of(&dump, "ooo/mid"), b);
    assert_eq!(parent_of(&dump, "ooo/after"), root);
}

/// The span stack is thread-local: a spawned thread's first span is a
/// root of its own, not a child of the spawner's open span.
#[test]
fn worker_threads_start_their_own_root() {
    let dump = traced(|fork| {
        assert_eq!(fw_obs::current_trace_span(), fork);
        std::thread::spawn(|| {
            let _inner = fw_obs::trace_span("thread/inner");
        })
        .join()
        .unwrap();
    });
    assert_eq!(parent_of(&dump, "thread/inner"), 0);
}

/// `fw_obs::span` emits trace events when tracing is on even with the
/// metrics layer off — and records nothing into its timer.
#[test]
fn stage_spans_trace_without_metrics() {
    let _serialize = TRACE_LOCK.lock().unwrap();
    fw_obs::trace_reset();
    fw_obs::set_enabled(false);
    fw_obs::set_trace_enabled(true);
    {
        let _outer = fw_obs::span("traced_only_outer");
        assert_ne!(fw_obs::current_trace_span(), 0);
        let _inner = fw_obs::span("traced_only_inner");
    }
    fw_obs::set_trace_enabled(false);
    let dump = fw_obs::drain_trace();
    let forest = fw_obs::validate_forest(&dump).expect("well-formed");
    assert_eq!(forest.nodes.len(), 2);
    assert_eq!(forest.roots.len(), 1);
    // Metrics gate was off: nothing reached the timer.
    assert_eq!(fw_obs::registry().timer("traced_only_outer").count(), 0);
}

/// With tracing off, instrumentation is inert: no events, id 0 guards.
#[test]
fn disabled_tracing_records_nothing() {
    let _serialize = TRACE_LOCK.lock().unwrap();
    fw_obs::trace_reset();
    fw_obs::set_trace_enabled(false);
    {
        let s = fw_obs::trace_span("never");
        assert_eq!(s.id(), 0);
        let a = fw_obs::trace_async("never_conn", 1);
        drop(a);
        fw_obs::trace_instant("never_mark", 2);
        assert_eq!(fw_obs::current_trace_span(), 0);
    }
    let dump = fw_obs::drain_trace();
    assert!(dump.events.is_empty());
}

/// Async spans may outlive their opening scope and close from another
/// thread; the forest stays valid and the span is flagged async.
#[test]
fn async_spans_cross_threads_without_breaking_the_forest() {
    let _serialize = TRACE_LOCK.lock().unwrap();
    fw_obs::trace_reset();
    fw_obs::set_trace_enabled(true);
    {
        let root = fw_obs::trace_span("async_root");
        let conn = fw_obs::trace_async("async_conn", 443);
        let _ = root.id();
        std::thread::spawn(move || drop(conn)).join().unwrap();
    }
    fw_obs::set_trace_enabled(false);
    let dump = fw_obs::drain_trace();
    let forest = fw_obs::validate_forest(&dump).expect("well-formed");
    let conn = forest
        .nodes
        .iter()
        .find(|n| dump.name(n.name_id) == "async_conn")
        .expect("conn span present");
    assert!(conn.is_async);
    assert!(!conn.unclosed);
}
