//! The workspace's one fork-join worker pool.
//!
//! Every fan-out outside SimNet's own listeners goes through [`fork`]
//! or the map built on it, [`par_map`]: the §3.2/§4 PDNS sweeps, the
//! store's shard pools, the §3.3 prober, the §5 C2 scan, the fused
//! pipeline's seal/analyze workers, the serve load harness and the
//! stream replay's feeder. The CI
//! determinism gates byte-diff their downstream figures, so the pool
//! follows one protocol everywhere:
//!
//! 1. **Round-robin partition.** [`par_map`] gives item `i` to worker
//!    `i % workers` (`skip(w).step_by(workers)`): the assignment is a
//!    pure function of `(index, workers)`, never of thread timing.
//! 2. **Index-ordered merge.** Worker `w`'s results come back in its
//!    items' order, so item `i` is the `i / workers`-th result of
//!    worker `i % workers`, and the output is `items.map(f)` in input
//!    order whichever worker finished first.
//! 3. **Clock registration before spawn.** Given a virtual
//!    [`fw_net::Clock`], [`fork`] registers every worker on the caller
//!    before the first spawn and activates each registration inside its
//!    worker (DESIGN.md §10), so no worker can see a world in which it
//!    is the only actor and race time past a peer's timeout.
//! 4. **A trace span parented to the caller.** With a non-empty label,
//!    worker `w` runs under `trace_span_child_of(fork, label, w)`, so
//!    the fan-out is one connected tree in the Chrome trace and the
//!    critical-path walk can attribute a stall to its slowest worker.
//!
//! The only way a schedule can leak into a result is through the
//! caller's function itself (shared mutable state, I/O ordering);
//! callers pass pure per-item functions or merge commutatively.

use fw_net::vclock::Registration;
use fw_net::Clock;

/// Default worker count for data-parallel stages: the machine's
/// available parallelism, or 1 if it cannot be determined. Results are
/// worker-count-invariant everywhere this is used, so the value only
/// affects speed.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Run `f(w)` for every worker `w` in `0..workers` on scoped threads
/// and return the results in worker order. A worker's panic reaches the
/// caller with the worker's own payload.
///
/// With a `clock`, every worker's registration exists before the first
/// spawn, and a worker is spawned even when there is only one: the
/// caller then waits in `join`, outside the clock, so it must not hold
/// a registration itself. Without a clock, a single worker runs inline
/// on the caller's thread.
pub fn fork<R, F>(workers: usize, label: &str, clock: Option<&Clock>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let fork = if label.is_empty() {
        0
    } else {
        fw_obs::current_trace_span()
    };
    let run = |w: usize| {
        let _span = if label.is_empty() {
            fw_obs::TraceSpan::inert()
        } else {
            fw_obs::trace_span_child_of(fork, label, w as u64)
        };
        f(w)
    };
    if workers == 1 && clock.is_none() {
        return vec![run(0)];
    }
    debug_assert!(
        clock.is_none() || !fw_net::vclock::thread_registered(),
        "a clocked fork's caller waits outside the clock and must not be registered"
    );
    let registrations: Vec<Option<Registration>> = (0..workers)
        .map(|_| clock.and_then(Clock::register))
        .collect();
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = registrations
            .into_iter()
            .enumerate()
            .map(|(w, registration)| {
                scope.spawn(move || {
                    let _active = registration.map(Registration::activate);
                    run(w)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Map `f` over `items` on up to `workers` [`fork`] workers, returning
/// results in input order. `workers` is clamped to `[1, items.len()]`;
/// `f` gets each item's input index.
pub fn par_map<T, R, F>(
    items: &[T],
    workers: usize,
    label: &str,
    clock: Option<&Clock>,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, items.len());
    let parts = fork(workers, label, clock, |w| {
        items
            .iter()
            .enumerate()
            .skip(w)
            .step_by(workers)
            .map(|(i, t)| f(i, t))
            .collect::<Vec<R>>()
    });
    let mut parts: Vec<_> = parts.into_iter().map(Vec::into_iter).collect();
    (0..items.len())
        .map(|i| {
            parts[i % workers]
                .next()
                .expect("partition covers every item")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_input_ordered_at_any_worker_count() {
        let items: Vec<u32> = (0..103).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| u64::from(*v) * 3 + i as u64)
            .collect();
        for workers in [1, 2, 3, 8, 16, 64, 200] {
            let par = par_map(&items, workers, "", None, |i, v| {
                u64::from(*v) * 3 + i as u64
            });
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        assert_eq!(
            par_map(&[] as &[u8], 8, "", None, |_, v| *v),
            Vec::<u8>::new()
        );
        assert_eq!(par_map(&[7u8], 8, "", None, |i, v| (i, *v)), vec![(0, 7)]);
    }

    #[test]
    fn workers_see_correct_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = par_map(&items, 3, "", None, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn fork_returns_results_in_worker_order() {
        assert_eq!(fork(5, "", None, |w| w * 10), vec![0, 10, 20, 30, 40]);
        assert_eq!(fork(0, "", None, |w| w), Vec::<usize>::new());
    }

    /// With a clock, every worker holds an active registration (even a
    /// lone one, which is spawned rather than run inline), and the
    /// caller does not.
    #[test]
    fn clocked_workers_are_registered_and_the_caller_is_not() {
        let clock = Clock::new_virtual();
        for workers in [1, 4] {
            let seen = fork(workers, "", Some(&clock), |_| {
                fw_net::vclock::thread_registered()
            });
            assert_eq!(seen, vec![true; workers], "workers={workers}");
            assert!(!fw_net::vclock::thread_registered());
        }
        // Unclocked workers stay unregistered.
        assert_eq!(
            fork(2, "", None, |_| fw_net::vclock::thread_registered()),
            [false; 2]
        );
    }

    #[test]
    #[should_panic(expected = "worker 2 failed on purpose")]
    fn a_worker_panic_reaches_the_caller_with_its_message() {
        fork(4, "", None, |w| {
            if w == 2 {
                panic!("worker {w} failed on purpose");
            }
            w
        });
    }

    #[test]
    #[should_panic(expected = "clocked worker 1 failed")]
    fn a_clocked_worker_panic_reaches_the_caller_with_its_message() {
        let clock = Clock::new_virtual();
        fork(2, "", Some(&clock), |w| {
            if w == 1 {
                panic!("clocked worker {w} failed");
            }
            w
        });
    }

    /// With tracing on, the fan-out is one `label` child per worker
    /// under the caller's span, at every worker count and with or
    /// without a clock.
    #[test]
    fn each_worker_is_one_labelled_child_of_the_callers_span() {
        use std::collections::BTreeSet;
        let clock = Clock::new_virtual();
        fw_obs::set_trace_enabled(true);
        let mut roots = Vec::new();
        for (workers, clock) in [(1, None), (3, None), (1, Some(&clock)), (4, Some(&clock))] {
            let root = fw_obs::trace_span("par_test/root");
            roots.push((root.id(), workers));
            fork(workers, "par_test/worker", clock, |w| w);
            drop(root);
        }
        let dump = fw_obs::drain_trace();
        fw_obs::set_trace_enabled(false);
        let forest = fw_obs::build_forest(&dump);
        for (root_id, workers) in roots {
            let root = forest
                .nodes
                .iter()
                .find(|n| n.id == root_id)
                .unwrap_or_else(|| panic!("root span {root_id} in the forest"));
            let children: Vec<_> = root.children.iter().map(|&c| &forest.nodes[c]).collect();
            assert_eq!(children.len(), workers, "workers={workers}");
            assert!(children
                .iter()
                .all(|c| dump.name(c.name_id) == "par_test/worker" && c.parent == root_id));
            let args: BTreeSet<u64> = children.iter().map(|c| c.arg).collect();
            assert_eq!(args, (0..workers as u64).collect(), "workers={workers}");
        }
    }
}
