//! Random sample generation: produce strings that match a pattern.
//!
//! `table1_formats` mints function URLs straight from the Table 1
//! expressions to validate them, and the property tests cross-validate
//! the matcher (`sample ∈ L(pattern)` must always hold).
//!
//! The sampler is deliberately runtime-free: it consumes randomness through
//! the [`Rng`] trait below so `fw-pattern` does not depend on the `rand`
//! crate; [`XorShiftRng`] is the seeded implementation its callers use.

use crate::ast::{Ast, ClassItem};
use crate::Pattern;

/// Minimal source of randomness for sampling.
pub trait Rng {
    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    fn below(&mut self, bound: u32) -> u32;
}

/// A simple xorshift RNG for self-contained use in tests.
#[derive(Debug, Clone)]
pub struct XorShiftRng(u64);

impl XorShiftRng {
    pub fn new(seed: u64) -> Self {
        XorShiftRng(seed.max(1))
    }
}

impl Rng for XorShiftRng {
    fn below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0);
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        (x % u64::from(bound)) as u32
    }
}

/// Configuration for unconstrained constructs.
#[derive(Debug, Clone)]
pub struct SamplerConfig {
    /// Maximum repetitions generated for `*`/`+`/`{n,}`.
    pub max_unbounded_reps: u32,
    /// Minimum repetitions for unbounded quantifiers (raise to 1 to keep
    /// `(.*)` components non-empty, e.g. when samples must be valid
    /// domain labels).
    pub min_unbounded_reps: u32,
    /// Bytes to choose from for `.` and for wildcard-ish `(.*)` content.
    pub any_alphabet: Vec<u8>,
}

impl Default for SamplerConfig {
    fn default() -> Self {
        SamplerConfig {
            max_unbounded_reps: 8,
            min_unbounded_reps: 0,
            // Domain-friendly alphabet: the Table 1 wildcards stand for
            // user-chosen labels, which are lowercase alphanumerics and '-'.
            any_alphabet: (b'a'..=b'z').chain(b'0'..=b'9').collect(),
        }
    }
}

impl SamplerConfig {
    /// A configuration whose samples are valid fqdn material: unbounded
    /// repetitions produce at least one byte.
    pub fn domain_friendly() -> SamplerConfig {
        SamplerConfig {
            min_unbounded_reps: 1,
            ..SamplerConfig::default()
        }
    }
}

/// Generates strings matching a [`Pattern`].
pub struct Sampler<'p> {
    pattern: &'p Pattern,
    config: SamplerConfig,
}

impl<'p> Sampler<'p> {
    pub fn new(pattern: &'p Pattern) -> Self {
        Sampler {
            pattern,
            config: SamplerConfig::default(),
        }
    }

    pub fn with_config(pattern: &'p Pattern, config: SamplerConfig) -> Self {
        Sampler { pattern, config }
    }

    /// Generate one matching string.
    pub fn sample(&self, rng: &mut dyn Rng) -> String {
        let mut out = Vec::new();
        self.node(self.pattern.ast(), rng, &mut out);
        // The alphabets used are always ASCII.
        String::from_utf8(out).expect("sampler produces ascii")
    }

    fn node(&self, ast: &Ast, rng: &mut dyn Rng, out: &mut Vec<u8>) {
        match ast {
            Ast::Empty | Ast::StartAnchor | Ast::EndAnchor => {}
            Ast::Literal(b) => out.push(*b),
            Ast::AnyChar => {
                let a = &self.config.any_alphabet;
                out.push(a[rng.below(a.len() as u32) as usize]);
            }
            Ast::Class { items, negated } => {
                let candidates: Vec<u8> = if *negated {
                    (0x20..0x7f)
                        .filter(|b| !items.iter().any(|i| i.contains(*b)))
                        .collect()
                } else {
                    items
                        .iter()
                        .flat_map(|i| match *i {
                            ClassItem::Byte(b) => b..=b,
                            ClassItem::Range(lo, hi) => lo..=hi,
                        })
                        .collect()
                };
                assert!(!candidates.is_empty(), "unsatisfiable class in sampler");
                out.push(candidates[rng.below(candidates.len() as u32) as usize]);
            }
            Ast::Concat(parts) => {
                for p in parts {
                    self.node(p, rng, out);
                }
            }
            Ast::Alternation(branches) => {
                let pick = rng.below(branches.len() as u32) as usize;
                self.node(&branches[pick], rng, out);
            }
            Ast::Group { node, .. } => self.node(node, rng, out),
            Ast::Repeat { node, min, max, .. } => {
                let lo = if max.is_none() {
                    (*min).max(self.config.min_unbounded_reps)
                } else {
                    *min
                };
                let hi = max.unwrap_or(lo + self.config.max_unbounded_reps).max(lo);
                let count = if hi > lo {
                    lo + rng.below(hi - lo + 1)
                } else {
                    lo
                };
                for _ in 0..count {
                    self.node(node, rng, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pattern;

    const TABLE1: &[&str] = &[
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
    ];

    #[test]
    fn samples_match_their_pattern() {
        let mut rng = XorShiftRng::new(42);
        for pat in TABLE1 {
            let p = Pattern::compile(pat).unwrap();
            let sampler = Sampler::new(&p);
            for _ in 0..50 {
                let s = sampler.sample(&mut rng);
                assert!(p.is_match(&s), "sample {s:?} does not match {pat}");
            }
        }
    }

    #[test]
    fn bounded_rep_counts_respected() {
        let p = Pattern::compile("^a{3,5}$").unwrap();
        let sampler = Sampler::new(&p);
        let mut rng = XorShiftRng::new(7);
        for _ in 0..100 {
            let s = sampler.sample(&mut rng);
            assert!((3..=5).contains(&s.len()), "{s:?}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = Pattern::compile(r"^[a-z0-9]{13}\.example\.com$").unwrap();
        let a = Sampler::new(&p).sample(&mut XorShiftRng::new(99));
        let b = Sampler::new(&p).sample(&mut XorShiftRng::new(99));
        assert_eq!(a, b);
    }

    #[test]
    fn negated_class_sampling() {
        let p = Pattern::compile("^[^a-z]$").unwrap();
        let mut rng = XorShiftRng::new(3);
        let s = Sampler::new(&p).sample(&mut rng);
        assert!(p.is_match(&s));
    }
}
