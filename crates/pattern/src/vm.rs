//! Pike VM: NFA simulation with capture slots.
//!
//! Runs in `O(input × program)` time regardless of pattern shape. Threads
//! are kept in priority order (earlier = higher priority), which gives
//! leftmost-first match semantics with greedy/lazy quantifier behaviour
//! driven by `Split` operand order.
//!
//! This engine serves the searches too long for the bounded backtracker
//! (`backtrack.rs`): its memory is two thread lists, whatever the input
//! length, where the backtracker's visited set grows with it. Both give
//! the same answer on every input, and the tests use this one as the
//! oracle. Each thread carries its own slot `Vec`, cloned when the thread
//! is added; short searches, where that cost would show, never come here.

use crate::compile::{Inst, Program};
use crate::Slots;

/// One thread's capture slots.
type Caps = Vec<Option<usize>>;

struct ThreadList {
    /// `(pc, slots)` in priority order.
    threads: Vec<(usize, Caps)>,
    /// Per pc: already added in this step.
    seen: Vec<bool>,
}

impl ThreadList {
    fn new(len: usize) -> Self {
        ThreadList {
            threads: Vec::new(),
            seen: vec![false; len],
        }
    }

    fn clear(&mut self) {
        self.threads.clear();
        self.seen.fill(false);
    }
}

/// Add a thread, following zero-width instructions.
fn add_thread(
    prog: &Program,
    list: &mut ThreadList,
    pc: usize,
    pos: usize,
    input_len: usize,
    slots: &mut Caps,
) {
    if list.seen[pc] {
        return;
    }
    list.seen[pc] = true;
    match &prog.insts[pc] {
        Inst::Jump(t) => add_thread(prog, list, *t, pos, input_len, slots),
        Inst::Split(a, b) => {
            add_thread(prog, list, *a, pos, input_len, slots);
            add_thread(prog, list, *b, pos, input_len, slots);
        }
        Inst::Save(n) => {
            let old = slots[*n];
            slots[*n] = Some(pos);
            add_thread(prog, list, pc + 1, pos, input_len, slots);
            slots[*n] = old;
        }
        Inst::AssertStart => {
            if pos == 0 {
                add_thread(prog, list, pc + 1, pos, input_len, slots);
            }
        }
        Inst::AssertEnd => {
            if pos == input_len {
                add_thread(prog, list, pc + 1, pos, input_len, slots);
            }
        }
        _ => list.threads.push((pc, slots.clone())),
    }
}

/// Search for the leftmost match starting at byte offset `start`.
/// Returns its capture slots.
pub fn search_at(prog: &Program, input: &[u8], start: usize) -> Option<Slots> {
    let n = prog.insts.len();
    let (mut clist, mut nlist) = (ThreadList::new(n), ThreadList::new(n));
    let mut matched: Option<Caps> = None;
    let anchored = prog.anchored_start();

    // One iteration per input position, inclusive of the end-of-input step
    // (pos == input.len()) where `$`/Match threads fire with byte == None.
    for pos in start..=input.len() {
        // Seed a fresh start thread at the lowest priority, unless a match
        // was already found (leftmost wins) or the pattern is start-anchored
        // and this is past the only legal start position.
        if matched.is_none() && (!anchored || pos == start) {
            let mut slots = vec![None; prog.slot_count];
            add_thread(prog, &mut clist, 0, pos, input.len(), &mut slots);
        }
        if clist.threads.is_empty() {
            if matched.is_some() || anchored {
                break;
            }
            continue;
        }

        let byte = input.get(pos).copied();
        nlist.clear();
        // Drain (not take): the vector keeps its capacity for the next
        // position, and a `Match` break drops the lower-priority tail.
        for (pc, mut slots) in clist.threads.drain(..) {
            let consumed = match &prog.insts[pc] {
                Inst::Byte(b) => byte == Some(*b),
                Inst::Any => matches!(byte, Some(b) if b != b'\n'),
                Inst::Class(set) => matches!(byte, Some(b) if set.contains(b)),
                Inst::Match => {
                    // Highest-priority thread reaching Match at this step
                    // wins; lower-priority threads are discarded. Threads
                    // already moved to nlist have higher priority and may
                    // still produce a better (earlier-starting, longer)
                    // match on later steps, overriding this one.
                    matched = Some(slots);
                    break;
                }
                // Zero-width instructions never appear in thread lists.
                _ => unreachable!("zero-width inst in thread list"),
            };
            if consumed {
                add_thread(prog, &mut nlist, pc + 1, pos + 1, input.len(), &mut slots);
            }
        }
        std::mem::swap(&mut clist, &mut nlist);
    }
    matched.map(Slots::Heap)
}

#[cfg(test)]
mod tests {
    //! The Pike VM on its own, over whole (unpeeled) programs.

    use super::*;
    use crate::ast::parse;
    use crate::compile::compile;
    use crate::Pattern;

    fn search(pat: &str, input: &str) -> Option<Slots> {
        let (ast, groups) = parse(pat).unwrap();
        search_at(&compile(&ast, groups), input.as_bytes(), 0)
    }

    fn find(pat: &str, input: &str) -> Option<(usize, usize)> {
        let slots = search(pat, input)?;
        Some((slots.get(0)?, slots.get(1)?))
    }

    #[test]
    fn empty_pattern_matches_empty_input() {
        assert_eq!(find("", ""), Some((0, 0)));
        assert_eq!(find("", "abc"), Some((0, 0))); // matches empty prefix
    }

    #[test]
    fn anchored_end_only() {
        assert_eq!(find("abc$", "xxabc"), Some((2, 5)));
        assert_eq!(find("abc$", "abcx"), None);
    }

    #[test]
    fn match_at_exact_end_of_input() {
        assert_eq!(find("^a+$", "a"), Some((0, 1)));
        assert_eq!(find("^a+$", "aaaa"), Some((0, 4)));
        assert_eq!(find("^a+$", ""), None);
    }

    #[test]
    fn leftmost_priority_over_longer_later() {
        assert_eq!(find("a|aa", "aa"), Some((0, 1)));
    }

    #[test]
    fn abandoned_paths_leave_no_captures() {
        // `(a)` opens on the first branch, which dies at `c`; the match
        // through the second branch must not carry its start.
        let slots = search("^((a)b|a)c", "ac").unwrap();
        assert_eq!((slots.get(2), slots.get(3)), (Some(0), Some(1)));
        assert_eq!((slots.get(4), slots.get(5)), (None, None));
    }

    #[test]
    fn unanchored_long_scan() {
        let hay = format!("{}{}", "x".repeat(10_000), "needle");
        assert_eq!(find("needle$", &hay), Some((10_000, 10_006)));
        assert_eq!(find("needle$", &format!("{hay}x")), None);
    }

    #[test]
    fn is_match_agrees_with_search_across_shapes() {
        // The public membership test (the backtracker's capture-free run,
        // over the peeled program where there is a suffix) must agree
        // with this engine's capturing search; spot-check shapes that
        // stress priority order.
        let cases = [
            ("^(a|ab)(c?)$", vec!["ac", "abc", "ab", "a", "abcc"]),
            ("(x+)(y*)z", vec!["xyz", "xz", "yz", "xxyyz", ""]),
            (
                "^[a-z]{3}-[0-9]+$",
                vec!["abc-123", "ab-1", "abc-", "abc-0"],
            ),
        ];
        for (pat, inputs) in cases {
            let p = Pattern::compile(pat).unwrap();
            for input in inputs {
                assert_eq!(
                    p.is_match(input),
                    search(pat, input).is_some(),
                    "divergence for {pat:?} on {input:?}"
                );
            }
        }
    }

    #[test]
    fn many_groups_fall_back_to_heap_slots() {
        // 8 groups → 18 slots, past what `Captures` keeps inline.
        let pat = "^(a)(b)(c)(d)(e)(f)(g)(h)$";
        let slots = search(pat, "abcdefgh").unwrap();
        assert_eq!(slots.len(), 18);
        for g in 1..=8 {
            assert_eq!(
                (slots.get(2 * g), slots.get(2 * g + 1)),
                (Some(g - 1), Some(g))
            );
        }
        let caps = Pattern::compile(pat).unwrap().captures("abcdefgh").unwrap();
        assert!(matches!(caps.slots, Slots::Heap(_)));
        for (i, s) in ["a", "b", "c", "d", "e", "f", "g", "h"].iter().enumerate() {
            assert_eq!(caps.get(i + 1), Some(*s));
        }
    }
}
