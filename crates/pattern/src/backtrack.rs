//! Bounded backtracker: a depth-first NFA search for short inputs.
//!
//! It runs the same [`Program`] as the Pike VM and gives the same
//! leftmost-first answer, captures included, without thread lists or
//! per-thread slot copies:
//!
//! * It follows one path at a time in the Pike VM's priority order: a
//!   `Split` tries its first operand and leaves the second on an explicit
//!   stack, and start positions are tried left to right.
//! * A `Save` pushes the slot's old value before it writes, so popping
//!   back past it restores the captures of the path being resumed.
//! * A bitset over (instruction, position) marks the states it has
//!   entered. Without backreferences a state's outcome depends only on
//!   the state, so one that failed once fails again, from any path and
//!   from any later start position. The set is cleared once per search,
//!   and no state is entered twice: the work is bounded by
//!   `(len + 1) × program`, and shapes like `(x+x+)+y` cannot blow up.
//!
//! The visited set is what bounds the input: a search runs here only
//! while `(len + 1) × program` fits [`BUDGET`], so the set never
//! outgrows it. Longer searches run on the Pike VM, whose memory does
//! not grow with the input.

use crate::compile::{Inst, Program};
use crate::{Slots, UNSET};
use std::cell::RefCell;

/// The most (instruction, position) states one search may span, and so
/// the visited bitset's largest size in bits (8 KiB). Any program of up
/// to 256 instructions fits with any input of up to 255 bytes, so every
/// fqdn (at most 253 bytes) classifies here.
pub const BUDGET: usize = 64 * 1024;

/// Does a search over `len` bytes (positions `0..=len`) fit [`BUDGET`]?
pub fn fits(prog: &Program, len: usize) -> bool {
    (len + 1).saturating_mul(prog.insts.len()) <= BUDGET
}

/// Leftmost match starting at `start` or later, with its capture slots.
/// The search must [`fit`](fits) over `input[start..]`.
pub fn search_at(prog: &Program, input: &[u8], start: usize) -> Option<Slots> {
    SCRATCH.with(|s| {
        let s = &mut *s.borrow_mut();
        s.run::<true>(prog, input, start)
            .then(|| Slots::from_raw(&s.slots))
    })
}

/// Membership test: the same search, with no capture bookkeeping.
pub fn is_match(prog: &Program, input: &[u8]) -> bool {
    SCRATCH.with(|s| s.borrow_mut().run::<false>(prog, input, 0))
}

/// One entry of the explicit stack.
#[derive(Clone, Copy)]
enum Frame {
    /// Resume at instruction `pc`, position `pos`: a split's second
    /// operand, or a start position.
    Step { pc: u32, pos: u32 },
    /// Put slot `slot` back to `old`: undoes a `Save` on the way out.
    Restore { slot: u32, old: u32 },
}

/// Per-thread buffers, reused across searches so a search allocates
/// nothing once they have grown.
#[derive(Default)]
struct Scratch {
    visited: Vec<u64>,
    stack: Vec<Frame>,
    /// Capture slots of the path being followed; [`UNSET`] when unset.
    slots: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

impl Scratch {
    /// Search `input` from `start`; on a match, `slots` holds its
    /// captures (when `CAPS`).
    fn run<const CAPS: bool>(&mut self, prog: &Program, input: &[u8], start: usize) -> bool {
        debug_assert!(start <= input.len() && fits(prog, input.len() - start));
        let width = input.len() - start + 1;
        let states = width * prog.insts.len();
        self.visited.clear();
        self.visited.resize(states.div_ceil(64), 0);
        if CAPS {
            self.slots.clear();
            self.slots.resize(prog.slot_count, UNSET);
        }
        let last = if prog.anchored_start() {
            start
        } else {
            input.len()
        };
        for at in start..=last {
            self.stack.push(Frame::Step {
                pc: 0,
                pos: at as u32,
            });
            while let Some(frame) = self.stack.pop() {
                match frame {
                    Frame::Step { pc, pos } => {
                        if self.step::<CAPS>(prog, input, start, pc as usize, pos as usize) {
                            self.stack.clear();
                            return true;
                        }
                    }
                    Frame::Restore { slot, old } => self.slots[slot as usize] = old,
                }
            }
        }
        false
    }

    /// Follow the highest-priority path from `(pc, pos)` until it matches
    /// (true) or dies (false), pushing every alternative it passes.
    fn step<const CAPS: bool>(
        &mut self,
        prog: &Program,
        input: &[u8],
        start: usize,
        mut pc: usize,
        mut pos: usize,
    ) -> bool {
        let width = input.len() - start + 1;
        loop {
            let bit = pc * width + (pos - start);
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            if self.visited[word] & mask != 0 {
                return false;
            }
            self.visited[word] |= mask;
            match &prog.insts[pc] {
                Inst::Byte(b) => {
                    if input.get(pos) != Some(b) {
                        return false;
                    }
                    pos += 1;
                }
                Inst::Any => {
                    if !matches!(input.get(pos), Some(&b) if b != b'\n') {
                        return false;
                    }
                    pos += 1;
                }
                Inst::Class(set) => {
                    if !matches!(input.get(pos), Some(&b) if set.contains(b)) {
                        return false;
                    }
                    pos += 1;
                }
                Inst::Split(a, b) => {
                    self.stack.push(Frame::Step {
                        pc: *b as u32,
                        pos: pos as u32,
                    });
                    pc = *a;
                    continue;
                }
                Inst::Jump(t) => {
                    pc = *t;
                    continue;
                }
                Inst::Save(n) => {
                    if CAPS {
                        self.stack.push(Frame::Restore {
                            slot: *n as u32,
                            old: self.slots[*n],
                        });
                        self.slots[*n] = pos as u32;
                    }
                }
                Inst::AssertStart => {
                    if pos != 0 {
                        return false;
                    }
                }
                Inst::AssertEnd => {
                    if pos != input.len() {
                        return false;
                    }
                }
                Inst::Match => return true,
            }
            pc += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    //! The backtracker and the suffix peel, pinned to the Pike VM running
    //! the whole (unpeeled) program.

    use super::*;
    use crate::compile::compile;
    use crate::{vm, Pattern, Rng, Sampler, SamplerConfig, XorShiftRng};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Every pattern the workspace compiles, copied from its source.
    const PATTERNS: [&str; 30] = [
        // crates/cloud/src/formats.rs:154-226, Table 1.
        r"^(.*)-(.*)-[a-z]{10}\.(.*)\.fcapp\.run$",
        r"^[a-z0-9]{13}\.cfc-execute\.(.*)\.baidubce\.com$",
        r"^[0-9]{10}-[a-z0-9]{10}-(.*)\.scf\.tencentcs\.com$",
        r"^(.*)-(eu-east-1|cn-beijing-6)\.ksyuncf\.com$",
        r"^(.*)\.lambda-url\.(.*)\.on\.aws$",
        r"^(asia|europe|us|australia|northamerica|southamerica)-(.*)-(.*)\.cloudfunctions\.net$",
        r"^(.*)-[a-z0-9]{10}-(.*)\.a\.run\.app$",
        r"^(us-south|us-east|eu-gb|eu-de|jp-tok|au-syd)\.functions\.appdomain\.cloud$",
        r"^[a-z0-9]{11}\.(.*)\.functions\.oci\.oraclecloud\.com$",
        r"^(.*)\.azurewebsites\.net$",
        // crates/abuse/src/sensitive.rs:78-112, the sensitive-data detectors.
        r"\+861[3-9]\d{9}",
        r"\+[0-9]{11,14}",
        r"[1-9]\d{16}(\d|X)",
        r"eyJ[A-Za-z0-9_-]{6,}\.[A-Za-z0-9_-]{6,}\.[A-Za-z0-9_-]{6,}",
        r"ghp_[A-Za-z0-9]{20,}",
        r"AKIA[A-Z0-9]{16}",
        r"Bearer [A-Za-z0-9._~+/-]{16,}",
        r"sk-[A-Za-z0-9]{20,}",
        r#"api[_-]?key["']?\s*[:=]\s*["']?[A-Za-z0-9_-]{12,}"#,
        r#""password[A-Za-z0-9_]*"\s*:\s*"[^"]{4,}""#,
        r"password=[^&\s]{4,}",
        r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}",
        r"[0-9A-Fa-f]{2}(:[0-9A-Fa-f]{2}){5}",
        // crates/abuse/src/illicit.rs:53-61, the illicit-service patterns.
        r#"location\.href\s*=\s*["']([^"']+)["']"#,
        r#"http-equiv=["']refresh["'][^>]*url=([^"'>]+)"#,
        r#"location\.href\s*=\s*["']https?://["']\s*\+\s*\w+\s*\+\s*["']\.([a-z0-9.-]+)["']"#,
        r#"'(https?://[^']+)'"#,
        r"(wechat|weixin|微信)[:\s]*([a-zA-Z][a-zA-Z0-9_-]{4,19})",
        r"(qq|QQ)[:\s]*([0-9]{5,11})",
        r"[a-zA-Z0-9._%+-]+@[a-zA-Z0-9.-]+\.[a-zA-Z]{2,}",
    ];

    /// Bytes a mutation inserts: the patterns' separators and quotes,
    /// class edges, and bytes no pattern names.
    const MUTATION_BYTES: &[u8] = b"-._:=@/+'\" \n\taAzZ09Xq\xff";

    fn spans(slots: Option<Slots>) -> Option<Vec<Option<usize>>> {
        slots.map(|s| (0..s.len()).map(|i| s.get(i)).collect())
    }

    /// Hold every search path on `input` to the Pike VM over the whole
    /// program: the backtracker on the whole program (where it fits), and
    /// the public entry points, which peel and pick their engine by
    /// length.
    fn check(p: &Pattern, input: &[u8]) -> Result<(), String> {
        let full = compile(p.ast(), p.group_count());
        let oracle = |input: &[u8], start| spans(vm::search_at(&full, input, start));
        let want = oracle(input, 0);
        if fits(&full, input.len()) {
            let got = spans(search_at(&full, input, 0));
            if got != want {
                return Err(format!("backtracker {got:?} != pike {want:?}"));
            }
            if is_match(&full, input) != want.is_some() {
                return Err(format!("backtracker is_match != pike {want:?}"));
            }
        }
        let got = spans(p.search_at(input, 0));
        if got != want {
            return Err(format!("peeled search {got:?} != pike {want:?}"));
        }
        let text = String::from_utf8_lossy(input);
        let bytes = text.as_bytes();
        let want = oracle(bytes, 0);
        if p.is_match(&text) != want.is_some() {
            return Err(format!("is_match != pike {want:?}"));
        }
        let caps = p.captures(&text);
        let got: Option<Vec<Option<&str>>> = caps.map(|c| (0..c.len()).map(|g| c.get(g)).collect());
        let expect = want.as_ref().map(|w| {
            w.chunks(2)
                .map(|g| text.get(g[0]?..g[1]?))
                .collect::<Vec<_>>()
        });
        if got != expect {
            return Err(format!("captures {got:?} != pike {expect:?}"));
        }
        let mut all = Vec::new();
        let mut at = 0;
        while let Some(w) = (at <= bytes.len()).then(|| oracle(bytes, at)).flatten() {
            let (s, e) = (w[0].unwrap(), w[1].unwrap());
            all.push((s, e));
            at = if e > at { e } else { at + 1 };
        }
        if p.find_all(&text) != all {
            return Err(format!("find_all {:?} != pike {all:?}", p.find_all(&text)));
        }
        Ok(())
    }

    fn sample(p: &Pattern, seed: u64) -> Vec<u8> {
        let config = SamplerConfig {
            max_unbounded_reps: 12,
            ..SamplerConfig::default()
        };
        Sampler::with_config(p, config)
            .sample(&mut XorShiftRng::new(seed))
            .into_bytes()
    }

    /// Apply `edits` random edits to `s`: delete, insert, replace or
    /// duplicate a stretch.
    fn mutate(mut s: Vec<u8>, seed: u64, edits: usize) -> Vec<u8> {
        let mut rng = XorShiftRng::new(seed);
        for _ in 0..edits {
            let at = rng.below(s.len() as u32 + 1) as usize;
            let byte = MUTATION_BYTES[rng.below(MUTATION_BYTES.len() as u32) as usize];
            match rng.below(4) {
                0 if at < s.len() => {
                    s.remove(at);
                }
                1 if at < s.len() => s[at] = byte,
                2 => {
                    let end = (at + 1 + rng.below(8) as usize).min(s.len());
                    let stretch = s[at..end].to_vec();
                    s.splice(at..at, stretch);
                }
                _ => s.insert(at, byte),
            }
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        #[test]
        fn samples_agree_with_pike(idx in 0usize..30, seed in any::<u64>()) {
            let p = Pattern::compile(PATTERNS[idx]).unwrap();
            let s = sample(&p, seed);
            prop_assert!(p.is_match(&String::from_utf8_lossy(&s)), "{:?}", s);
            check(&p, &s).map_err(|e| TestCaseError::Fail(format!("{}: {e}", PATTERNS[idx])))?;
        }

        #[test]
        fn mutated_samples_agree_with_pike(
            idx in 0usize..30,
            seed in any::<u64>(),
            edits in 1usize..6,
        ) {
            let p = Pattern::compile(PATTERNS[idx]).unwrap();
            let s = mutate(sample(&p, seed), seed ^ 0x9e37_79b9, edits);
            check(&p, &s).map_err(|e| TestCaseError::Fail(format!("{}: {e}", PATTERNS[idx])))?;
        }

        #[test]
        fn random_bytes_agree_with_pike(idx in 0usize..30, input in vec(any::<u8>(), 0..80)) {
            let p = Pattern::compile(PATTERNS[idx]).unwrap();
            check(&p, &input).map_err(|e| TestCaseError::Fail(format!("{}: {e}", PATTERNS[idx])))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(90))]

        /// Inputs just inside and just past the budget, so the public
        /// searches run one on each engine. Filler before a sample keeps
        /// the unanchored patterns, and the Table 1 formats that open
        /// with `^(.*)`, matching.
        #[test]
        fn lengths_across_the_budget_edge_agree_with_pike(
            idx in 0usize..30,
            seed in any::<u64>(),
            filler in 0usize..3,
        ) {
            let p = Pattern::compile(PATTERNS[idx]).unwrap();
            let s = sample(&p, seed);
            let peeled = p.suffix.as_ref().map_or(0, |x| x.len());
            let edge = BUDGET / p.program.insts.len() - 1 + peeled;
            let engines: Vec<bool> = (edge.saturating_sub(2)..edge + 3)
                .filter(|len| *len >= s.len())
                .map(|len| {
                    let mut input = vec![b"a-0"[filler]; len - s.len()];
                    input.extend_from_slice(&s);
                    check(&p, &input).map(|()| fits(&p.program, len - peeled))
                })
                .collect::<Result<_, _>>()
                .map_err(|e| TestCaseError::Fail(format!("{}: {e}", PATTERNS[idx])))?;
            prop_assert!(engines.contains(&true) && engines.contains(&false), "{:?}", engines);
        }
    }

    #[test]
    fn every_fqdn_fits_the_budget_for_every_table1_format() {
        for src in &PATTERNS[..10] {
            let p = Pattern::compile(src).unwrap();
            assert!(p.suffix.is_some(), "{src} peels its suffix");
            assert!(fits(&compile(p.ast(), p.group_count()), 253), "{src}");
        }
    }

    fn check_peel(src: &str, suffix: Option<&str>, inputs: &[&str]) {
        let p = Pattern::compile(src).unwrap();
        assert_eq!(p.suffix.as_deref(), suffix.map(str::as_bytes), "{src}");
        for input in inputs.iter().chain([&""]) {
            check(&p, input.as_bytes()).unwrap_or_else(|e| panic!("{src} on {input:?}: {e}"));
        }
    }

    #[test]
    fn literal_off_some_path_is_not_peeled() {
        check_peel("a|bc$", None, &["bc", "xbc", "a", "abc", "bcx", "b"]);
    }

    #[test]
    fn literal_inside_a_group_is_not_peeled() {
        check_peel(r"(.*\.com)$", None, &["x.com", ".com", "com", "a.comx"]);
    }

    #[test]
    fn head_with_its_own_end_anchor_is_not_peeled() {
        check_peel(r"(a$|b)\.com$", None, &["a.com", "b.com", "a", "ab.com"]);
    }

    #[test]
    fn unanchored_suffix_is_peeled() {
        check_peel(
            r"x\.com$",
            Some("x.com"),
            &["x.com", "yyx.com", "x.comx", "x.co", "x.com.x.com", "X.com"],
        );
        let p = Pattern::compile(r"x\.com$").unwrap();
        assert_eq!(p.find("yyx.com"), Some((2, 7)));
        assert_eq!(p.find_all("x.com.x.com"), vec![(6, 11)]);
    }

    #[test]
    fn suffix_longer_than_the_input_does_not_match() {
        check_peel(r"\.com$", Some(".com"), &["com", ".com", "a.com", ".co"]);
        assert!(!Pattern::compile(r"\.com$").unwrap().is_match("com"));
    }

    #[test]
    fn bare_anchors_are_not_peeled() {
        check_peel("^$", None, &["a", "\n"]);
        assert!(Pattern::compile("^$").unwrap().is_match(""));
    }

    #[test]
    fn group_zero_ends_past_the_peeled_suffix() {
        let p = Pattern::compile(r"^(.*)-[a-z0-9]{10}-(.*)\.a\.run\.app$").unwrap();
        let c = p.captures("fn-a1b2c3d4e5-uc.a.run.app").unwrap();
        assert_eq!(c.get(0), Some("fn-a1b2c3d4e5-uc.a.run.app"));
        assert_eq!(c.get(2), Some("uc"));
    }

    /// No workspace pattern has a group that a match can skip, so these
    /// shapes check that a path abandoned after a `Save` leaves no stale
    /// span behind for the path that matches.
    #[test]
    fn captures_of_abandoned_paths_are_restored() {
        for (src, inputs) in [
            ("^((a)b|a)c", &["ac", "abc", "abac"][..]),
            ("(a)|b", &["b", "ab", "ba"]),
            ("((a)|b)+c", &["abc", "bac", "bbc", "ab"]),
            ("^(a(b)?)+$", &["aba", "aab", "ab", "abab"]),
            ("(x)?(x)?y", &["xy", "y", "xxy", "xxxy"]),
        ] {
            let p = Pattern::compile(src).unwrap();
            for input in inputs {
                check(&p, input.as_bytes()).unwrap_or_else(|e| panic!("{src} on {input:?}: {e}"));
            }
        }
    }

    #[test]
    fn nested_plus_shapes_stay_bounded() {
        // `(x+x+)+y` explodes a plain backtracker on a run of x's with no
        // y; the visited set enters each state once.
        let p = Pattern::compile("(x+x+)+y").unwrap();
        let input = "x".repeat(200);
        assert!(fits(&p.program, input.len()));
        assert!(!p.is_match(&input));
        check(&p, input.as_bytes()).unwrap();
    }
}
