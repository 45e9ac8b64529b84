//! AST → NFA program (Thompson construction).
//!
//! The program is a flat instruction list executed by either engine: the
//! bounded backtracker in `backtrack.rs` or the Pike VM in `vm.rs`.
//! Bounded repetitions are expanded at compile time (the Table 1
//! expressions use small counts like `{10}`/`{13}`), keeping both engines
//! free of counters, and each character class is folded into a 256-bit
//! [`ByteSet`].
//!
//! [`compile_peeled`] also peels a required literal suffix off the
//! program when the pattern ends in one, so a search can test it with
//! `ends_with` before running an engine over the rest.

use crate::ast::{Ast, ClassItem};

/// One NFA instruction.
#[derive(Debug, Clone)]
pub enum Inst {
    /// Consume exactly this byte.
    Byte(u8),
    /// Consume any byte except `\n`.
    Any,
    /// Consume one byte in the set.
    Class(ByteSet),
    /// Try `a` first (higher priority), then `b`.
    Split(usize, usize),
    /// Unconditional jump.
    Jump(usize),
    /// Record the current input position into capture slot `n`.
    Save(usize),
    /// Zero-width assertion: at input start.
    AssertStart,
    /// Zero-width assertion: at input end.
    AssertEnd,
    /// Successful match.
    Match,
}

/// A character class folded at compile time: one bit per byte value,
/// with negation already applied.
#[derive(Debug, Clone, Copy)]
pub struct ByteSet([u64; 4]);

impl ByteSet {
    fn of(items: &[ClassItem], negated: bool) -> ByteSet {
        let mut bits = [0u64; 4];
        for b in 0..=u8::MAX {
            if items.iter().any(|i| i.contains(b)) != negated {
                bits[usize::from(b >> 6)] |= 1 << (b & 63);
            }
        }
        ByteSet(bits)
    }

    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.0[usize::from(b >> 6)] >> (b & 63) & 1 != 0
    }
}

/// A compiled NFA program.
#[derive(Debug, Clone)]
pub struct Program {
    pub insts: Vec<Inst>,
    /// Capture slots: `2 * (group_count + 1)`.
    pub slot_count: usize,
}

impl Program {
    /// True when the pattern can only match at input start (leading `^`),
    /// letting the VM skip seeding threads at later offsets.
    pub fn anchored_start(&self) -> bool {
        // Save(0) is always first; check the instruction after it.
        matches!(self.insts.get(1), Some(Inst::AssertStart))
    }
}

/// Compile an AST into the program a search runs, peeling a required
/// literal suffix off it where there is one.
///
/// The peel applies when the top-level concatenation ends in a run of
/// literal bytes and then `$`: the run sits outside every group and on
/// every path, so every match ends with it at the end of the input.
/// The program returned then matches only the head (everything before
/// the run) followed by `$`, to be run over the input with the run cut
/// off; the search itself checks `ends_with(suffix)` and sets the
/// group-0 end past the cut. A head that holds a `$` of its own is not
/// peeled: that `$` would see the cut as the end of the input.
pub fn compile_peeled(ast: &Ast, group_count: usize) -> (Program, Option<Box<[u8]>>) {
    if let Ast::Concat(parts) = ast {
        if let Some((Ast::EndAnchor, body)) = parts.split_last() {
            let mut suffix: Vec<u8> = body
                .iter()
                .rev()
                .map_while(|p| match p {
                    Ast::Literal(b) => Some(*b),
                    _ => None,
                })
                .collect();
            suffix.reverse();
            let head = &body[..body.len() - suffix.len()];
            if !suffix.is_empty() && !head.iter().any(has_end_anchor) {
                let mut head = head.to_vec();
                head.push(Ast::EndAnchor);
                let program = compile(&Ast::Concat(head), group_count);
                return (program, Some(suffix.into()));
            }
        }
    }
    (compile(ast, group_count), None)
}

fn has_end_anchor(ast: &Ast) -> bool {
    match ast {
        Ast::EndAnchor => true,
        Ast::Concat(parts) | Ast::Alternation(parts) => parts.iter().any(has_end_anchor),
        Ast::Repeat { node, .. } | Ast::Group { node, .. } => has_end_anchor(node),
        _ => false,
    }
}

/// Compile an AST into a program.
pub fn compile(ast: &Ast, group_count: usize) -> Program {
    let mut c = Compiler { insts: Vec::new() };
    c.push(Inst::Save(0));
    c.node(ast);
    c.push(Inst::Save(1));
    c.push(Inst::Match);
    Program {
        insts: c.insts,
        slot_count: 2 * (group_count + 1),
    }
}

struct Compiler {
    insts: Vec<Inst>,
}

impl Compiler {
    fn push(&mut self, inst: Inst) -> usize {
        self.insts.push(inst);
        self.insts.len() - 1
    }

    fn here(&self) -> usize {
        self.insts.len()
    }

    fn patch_split_second(&mut self, at: usize, to: usize) {
        if let Inst::Split(_, b) = &mut self.insts[at] {
            *b = to;
        } else {
            unreachable!("patch target is not a split");
        }
    }

    fn patch_jump(&mut self, at: usize, to: usize) {
        if let Inst::Jump(t) = &mut self.insts[at] {
            *t = to;
        } else {
            unreachable!("patch target is not a jump");
        }
    }

    fn node(&mut self, ast: &Ast) {
        match ast {
            Ast::Empty => {}
            Ast::Literal(b) => {
                self.push(Inst::Byte(*b));
            }
            Ast::AnyChar => {
                self.push(Inst::Any);
            }
            Ast::Class { items, negated } => {
                self.push(Inst::Class(ByteSet::of(items, *negated)));
            }
            Ast::Concat(parts) => {
                for p in parts {
                    self.node(p);
                }
            }
            Ast::Alternation(branches) => {
                // split b1, split b2, ... with jumps to a common end.
                let mut jump_ends = Vec::new();
                let mut pending_split: Option<usize> = None;
                for (i, br) in branches.iter().enumerate() {
                    if let Some(sp) = pending_split.take() {
                        let here = self.here();
                        self.patch_split_second(sp, here);
                    }
                    let last = i + 1 == branches.len();
                    if !last {
                        let sp = self.push(Inst::Split(0, 0));
                        let body = self.here();
                        if let Inst::Split(a, _) = &mut self.insts[sp] {
                            *a = body;
                        }
                        self.node(br);
                        jump_ends.push(self.push(Inst::Jump(0)));
                        pending_split = Some(sp);
                    } else {
                        self.node(br);
                    }
                }
                let end = self.here();
                for j in jump_ends {
                    self.patch_jump(j, end);
                }
            }
            Ast::Group { index, node } => {
                self.push(Inst::Save(2 * index));
                self.node(node);
                self.push(Inst::Save(2 * index + 1));
            }
            Ast::Repeat {
                node,
                min,
                max,
                greedy,
            } => self.repeat(node, *min, *max, *greedy),
            Ast::StartAnchor => {
                self.push(Inst::AssertStart);
            }
            Ast::EndAnchor => {
                self.push(Inst::AssertEnd);
            }
        }
    }

    fn repeat(&mut self, node: &Ast, min: u32, max: Option<u32>, greedy: bool) {
        // Mandatory copies.
        for _ in 0..min {
            self.node(node);
        }
        match max {
            None => {
                // Star over one more copy: L: split(body, out); body; jump L
                let sp = self.push(Inst::Split(0, 0));
                let body = self.here();
                self.node(node);
                self.push(Inst::Jump(sp));
                let out = self.here();
                if greedy {
                    if let Inst::Split(a, b) = &mut self.insts[sp] {
                        *a = body;
                        *b = out;
                    }
                } else if let Inst::Split(a, b) = &mut self.insts[sp] {
                    *a = out;
                    *b = body;
                }
            }
            Some(max) => {
                // (max - min) optional copies, each splitting to the common
                // end, so matching can stop after any prefix of the copies.
                let mut splits = Vec::new();
                for _ in min..max {
                    let sp = self.push(Inst::Split(0, 0));
                    let body = self.here();
                    if let Inst::Split(a, _) = &mut self.insts[sp] {
                        *a = body; // will fix for lazy below
                    }
                    splits.push(sp);
                    self.node(node);
                }
                let end = self.here();
                for sp in splits {
                    if let Inst::Split(a, b) = &mut self.insts[sp] {
                        if greedy {
                            *b = end;
                        } else {
                            *b = *a; // body becomes second priority
                            *a = end;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;

    fn prog(pat: &str) -> Program {
        let (ast, groups) = parse(pat).unwrap();
        compile(&ast, groups)
    }

    #[test]
    fn anchored_start_detection() {
        assert!(prog("^abc").anchored_start());
        assert!(!prog("abc").anchored_start());
    }

    #[test]
    fn slot_count_includes_group_zero() {
        assert_eq!(prog("a").slot_count, 2);
        assert_eq!(prog("(a)(b)").slot_count, 6);
    }

    #[test]
    fn bounded_repeat_expands() {
        // `a{3}` should contain three Byte instructions.
        let p = prog("a{3}");
        let bytes = p
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Byte(b'a')))
            .count();
        assert_eq!(bytes, 3);
    }

    #[test]
    fn program_always_ends_with_match() {
        for pat in ["a", "(a|b)*", "^x{2,5}$"] {
            let p = prog(pat);
            assert!(matches!(p.insts.last(), Some(Inst::Match)));
        }
    }
}
