//! # fw-pattern
//!
//! A from-scratch regular-expression engine sized for the paper's needs.
//!
//! Paper §3.2 converts each provider's function-URL format into a domain
//! regular expression (Table 1) and filters billions of PDNS records through
//! them. This crate implements exactly the construct set those expressions
//! (and the sensitive-data detectors in `fw-abuse`) require:
//!
//! * anchors `^` `$`
//! * literals, escaped metacharacters (`\.`), escape classes
//!   (`\d \D \w \W \s \S`)
//! * the any-char dot `.`
//! * character classes `[a-z0-9]`, ranges, negation `[^...]`
//! * groups `(...)` with alternation `a|b|c`; groups capture
//! * quantifiers `*` `+` `?` and bounded repetition `{n}` `{m,n}` `{m,}`,
//!   each with a lazy variant (`*?` ...)
//!
//! A pattern compiles to one Thompson NFA program, and two engines run it
//! with the same leftmost-first answer, captures included. Both run in
//! `O(len(input) × len(program))`, with no catastrophic backtracking:
//!
//! * a bounded backtracker, which searches depth-first and marks each
//!   (instruction, position) state it enters so it never enters one twice.
//!   It takes every search whose `(len + 1) × program` fits a fixed bitset,
//!   which covers every fqdn;
//! * a Pike VM (NFA simulation with capture slots), whose memory does not
//!   grow with the input, for longer inputs, and as the tests' oracle.
//!
//! When a pattern ends in literal bytes and then `$`, outside every group
//! (all ten Table 1 expressions do), compilation peels that suffix off: a
//! search checks `ends_with` first and runs the engine over the rest only.
//! A companion [`Sampler`] generates random strings that match a pattern;
//! the workload generator uses it to mint provider-shaped domains, and the
//! property tests use it to cross-validate the matcher.
//!
//! ```
//! use fw_pattern::Pattern;
//! let p = Pattern::compile(r"^[0-9]{10}-[a-z0-9]{10}-(.*)\.scf\.tencentcs\.com$").unwrap();
//! let caps = p.captures("1257890123-a1b2c3d4e5-gz.scf.tencentcs.com").unwrap();
//! assert_eq!(caps.get(1), Some("gz"));
//! assert!(!p.is_match("a.scf.tencentcs.com"));
//! ```

mod ast;
mod backtrack;
mod compile;
mod sample;
mod vm;

pub use ast::{Ast, ClassItem, ParseError};
pub use sample::{Rng, Sampler, SamplerConfig, XorShiftRng};

use compile::Program;

/// A compiled pattern, ready for matching.
#[derive(Debug, Clone)]
pub struct Pattern {
    source: String,
    ast: Ast,
    /// The program a search runs: the whole pattern, or only its head
    /// when `suffix` was peeled off.
    program: Program,
    /// The literal suffix every match ends with, at the end of the input
    /// (see `compile::compile_peeled`).
    suffix: Option<Box<[u8]>>,
    group_count: usize,
}

impl Pattern {
    /// Parse and compile a pattern.
    pub fn compile(source: &str) -> Result<Pattern, ParseError> {
        let (ast, group_count) = ast::parse(source)?;
        let (program, suffix) = compile::compile_peeled(&ast, group_count);
        Ok(Pattern {
            source: source.to_string(),
            ast,
            program,
            suffix,
            group_count,
        })
    }

    /// The original pattern text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Number of capture groups (excluding the implicit whole-match group 0).
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Does the pattern match anywhere in `input`?
    /// (Anchors inside the pattern still apply.)
    pub fn is_match(&self, input: &str) -> bool {
        let Some(hay) = self.haystack(input.as_bytes()) else {
            return false;
        };
        if backtrack::fits(&self.program, hay.len()) {
            backtrack::is_match(&self.program, hay)
        } else {
            vm::search_at(&self.program, hay, 0).is_some()
        }
    }

    /// Leftmost match with capture groups, or `None`.
    pub fn captures<'i>(&self, input: &'i str) -> Option<Captures<'i>> {
        let slots = self.search_at(input.as_bytes(), 0)?;
        Some(Captures { input, slots })
    }

    /// Leftmost match span `(start, end)` in byte offsets, or `None`.
    pub fn find(&self, input: &str) -> Option<(usize, usize)> {
        let slots = self.search_at(input.as_bytes(), 0)?;
        Some((slots.get(0)?, slots.get(1)?))
    }

    /// All non-overlapping match spans, leftmost-first.
    pub fn find_all(&self, input: &str) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let bytes = input.as_bytes();
        let mut at = 0;
        while at <= bytes.len() {
            let Some(slots) = self.search_at(bytes, at) else {
                break;
            };
            let (s, e) = slots
                .get(0)
                .zip(slots.get(1))
                .expect("a match sets group 0");
            out.push((s, e));
            // Empty matches must still advance the cursor.
            at = if e > at { e } else { at + 1 };
        }
        out
    }

    /// The parsed AST (used by [`Sampler`] and tests).
    pub fn ast(&self) -> &Ast {
        &self.ast
    }

    /// The bytes the program runs over: all of `input`, or `input` with
    /// the peeled suffix cut off; `None` when `input` lacks that suffix.
    fn haystack<'a>(&self, input: &'a [u8]) -> Option<&'a [u8]> {
        match &self.suffix {
            Some(suffix) => input.strip_suffix(&suffix[..]),
            None => Some(input),
        }
    }

    /// The leftmost match starting at `start` or later. Every public
    /// search comes through here or [`Pattern::is_match`], which pick
    /// the engine by the same [`backtrack::fits`] test.
    fn search_at(&self, input: &[u8], start: usize) -> Option<Slots> {
        let hay = self.haystack(input)?;
        let len = hay.len().checked_sub(start)?;
        let mut slots = if backtrack::fits(&self.program, len) {
            backtrack::search_at(&self.program, hay, start)
        } else {
            vm::search_at(&self.program, hay, start)
        }?;
        if self.suffix.is_some() {
            // The head matched up to the cut; the whole match runs on
            // through the suffix to the end.
            slots.set(1, input.len());
        }
        Some(slots)
    }
}

/// Capture slots up to this many (patterns with ≤ 7 groups) live inline
/// in [`Captures`]; more spill to the heap.
const INLINE_SLOTS: usize = 16;

/// An unset inline slot. Inline slots therefore need the input to be
/// shorter than `u32::MAX` bytes.
const UNSET: u32 = u32::MAX;

/// One match's capture slots: a `(start, end)` pair per group, group 0
/// first. The backtracker returns them inline whenever they fit, so a
/// capturing search on it allocates nothing; the Pike VM returns its
/// winning thread's `Vec`.
#[derive(Debug, Clone)]
enum Slots {
    Inline {
        len: usize,
        buf: [u32; INLINE_SLOTS],
    },
    Heap(Vec<Option<usize>>),
}

impl Slots {
    /// From raw slots, [`UNSET`] marking an unset one.
    fn from_raw(raw: &[u32]) -> Slots {
        if raw.len() > INLINE_SLOTS {
            return Slots::Heap(raw.iter().map(|&v| offset(v)).collect());
        }
        let mut buf = [UNSET; INLINE_SLOTS];
        buf[..raw.len()].copy_from_slice(raw);
        Slots::Inline {
            len: raw.len(),
            buf,
        }
    }

    fn get(&self, i: usize) -> Option<usize> {
        match self {
            Slots::Inline { len, buf } => offset(*buf[..*len].get(i)?),
            Slots::Heap(v) => *v.get(i)?,
        }
    }

    fn set(&mut self, i: usize, v: usize) {
        match self {
            Slots::Inline { buf, .. } => {
                buf[i] = u32::try_from(v).expect("inline slots hold offsets below u32::MAX")
            }
            Slots::Heap(slots) => slots[i] = Some(v),
        }
    }

    fn len(&self) -> usize {
        match self {
            Slots::Inline { len, .. } => *len,
            Slots::Heap(v) => v.len(),
        }
    }
}

/// A raw slot as a byte offset.
fn offset(v: u32) -> Option<usize> {
    (v != UNSET).then_some(v as usize)
}

/// Capture groups for one match. Group 0 is the whole match.
#[derive(Debug, Clone)]
pub struct Captures<'i> {
    input: &'i str,
    slots: Slots,
}

impl<'i> Captures<'i> {
    /// Text of group `idx`, if the group participated in the match.
    pub fn get(&self, idx: usize) -> Option<&'i str> {
        let s = self.slots.get(idx * 2)?;
        let e = self.slots.get(idx * 2 + 1)?;
        self.input.get(s..e)
    }

    /// Number of groups including group 0.
    pub fn len(&self) -> usize {
        self.slots.len() / 2
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(pat: &str, input: &str) -> bool {
        Pattern::compile(pat).unwrap().is_match(input)
    }

    #[test]
    fn literals_and_anchors() {
        assert!(ok("^abc$", "abc"));
        assert!(!ok("^abc$", "abcd"));
        assert!(!ok("^abc$", "zabc"));
        assert!(ok("abc", "zabcd")); // unanchored search
        assert!(!ok("abc", "ab"));
    }

    #[test]
    fn dot_and_escape() {
        assert!(ok(r"^a.c$", "abc"));
        assert!(ok(r"^a.c$", "a-c"));
        assert!(!ok(r"^a\.c$", "abc"));
        assert!(ok(r"^a\.c$", "a.c"));
    }

    #[test]
    fn classes() {
        assert!(ok(r"^[a-z0-9]$", "q"));
        assert!(ok(r"^[a-z0-9]$", "7"));
        assert!(!ok(r"^[a-z0-9]$", "Q"));
        assert!(ok(r"^[^a-z]$", "Q"));
        assert!(!ok(r"^[^a-z]$", "q"));
        assert!(ok(r"^[-a]$", "-")); // leading hyphen is literal
        assert!(ok(r"^[a\]]$", "]")); // escaped bracket
    }

    #[test]
    fn escape_classes() {
        assert!(ok(r"^\d+$", "0198"));
        assert!(!ok(r"^\d+$", "01a8"));
        assert!(ok(r"^\w+$", "a_9Z"));
        assert!(ok(r"^\s$", " "));
        assert!(ok(r"^\S$", "x"));
        assert!(ok(r"^\D$", "x"));
        assert!(!ok(r"^\D$", "5"));
    }

    #[test]
    fn quantifiers() {
        assert!(ok("^ab*c$", "ac"));
        assert!(ok("^ab*c$", "abbbc"));
        assert!(ok("^ab+c$", "abc"));
        assert!(!ok("^ab+c$", "ac"));
        assert!(ok("^ab?c$", "ac"));
        assert!(ok("^ab?c$", "abc"));
        assert!(!ok("^ab?c$", "abbc"));
    }

    #[test]
    fn bounded_repetition() {
        assert!(ok(r"^[a-z]{10}$", "abcdefghij"));
        assert!(!ok(r"^[a-z]{10}$", "abcdefghi"));
        assert!(!ok(r"^[a-z]{10}$", "abcdefghijk"));
        assert!(ok(r"^a{2,4}$", "aa"));
        assert!(ok(r"^a{2,4}$", "aaaa"));
        assert!(!ok(r"^a{2,4}$", "a"));
        assert!(!ok(r"^a{2,4}$", "aaaaa"));
        assert!(ok(r"^a{2,}$", "aaaaaaa"));
        assert!(!ok(r"^a{2,}$", "a"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(ok("^(foo|bar)$", "foo"));
        assert!(ok("^(foo|bar)$", "bar"));
        assert!(!ok("^(foo|bar)$", "baz"));
        assert!(ok("^(a|b)(c|d)$", "ad"));
    }

    #[test]
    fn captures_basic() {
        let p = Pattern::compile(r"^(\d+)-([a-z]+)$").unwrap();
        let c = p.captures("123-abc").unwrap();
        assert_eq!(c.get(0), Some("123-abc"));
        assert_eq!(c.get(1), Some("123"));
        assert_eq!(c.get(2), Some("abc"));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn greedy_vs_lazy() {
        let g = Pattern::compile(r"^(a*)(a*)$").unwrap();
        let c = g.captures("aaa").unwrap();
        assert_eq!(c.get(1), Some("aaa"));
        assert_eq!(c.get(2), Some(""));

        let l = Pattern::compile(r"^(a*?)(a*)$").unwrap();
        let c = l.captures("aaa").unwrap();
        assert_eq!(c.get(1), Some(""));
        assert_eq!(c.get(2), Some("aaa"));
    }

    #[test]
    fn leftmost_match_and_find() {
        let p = Pattern::compile("b+").unwrap();
        assert_eq!(p.find("aabbbabb"), Some((2, 5)));
        assert_eq!(p.find_all("aabbbabb"), vec![(2, 5), (6, 8)]);
    }

    #[test]
    fn find_all_with_empty_matches_terminates() {
        let p = Pattern::compile("a*").unwrap();
        let spans = p.find_all("ba");
        // Must not loop forever; empty match at 0, then "a" at 1.
        assert!(spans.contains(&(1, 2)));
    }

    #[test]
    fn table1_tencent_pattern() {
        let p = Pattern::compile(r"^[0-9]{10}-[a-z0-9]{10}-(.*)\.scf\.tencentcs\.com$").unwrap();
        assert!(p.is_match("1300000001-abcde01234-ap-guangzhou.scf.tencentcs.com"));
        assert!(!p.is_match("130000001-abcde01234-gz.scf.tencentcs.com")); // 9-digit uid
        assert!(!p.is_match("1300000001-abcde01234-gz.scf.tencentcs.org"));
        let c = p
            .captures("1300000001-abcde01234-ap-guangzhou.scf.tencentcs.com")
            .unwrap();
        assert_eq!(c.get(1), Some("ap-guangzhou"));
    }

    #[test]
    fn table1_google_pattern() {
        let p = Pattern::compile(
            r"^(asia|europe|us|australia|northamerica|southamerica)-(.*)-(.*)\.cloudfunctions\.net$",
        )
        .unwrap();
        let c = p.captures("us-central1-myproj.cloudfunctions.net").unwrap();
        assert_eq!(c.get(1), Some("us"));
        assert!(!p.is_match("africa-south1-x.cloudfunctions.net"));
    }

    #[test]
    fn no_pathological_blowup() {
        // The classic (a|a)* trap: a Pike VM handles this in linear time.
        let p = Pattern::compile("^(a|a)*b$").unwrap();
        let input = "a".repeat(200); // no trailing b => no match
        assert!(!p.is_match(&input));
    }

    #[test]
    fn parse_errors() {
        for bad in ["(", ")", "a{", "a{2", "[a", r"\q", "a**", "*a", "a{4,2}"] {
            assert!(Pattern::compile(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn empty_alternation_branch() {
        let p = Pattern::compile("^a(b|)c$").unwrap();
        assert!(p.is_match("abc"));
        assert!(p.is_match("ac"));
    }
}
