//! FNV-1a 64-bit hashing, shared by every subsystem that needs a
//! stable, dependency-free hash, and the splitmix64 finalizer ([`mix`])
//! that seeds per-flow RNG streams.
//!
//! Four crates used to carry their own copy of this loop (fw-store
//! shard routing, the fw-dns resolver cache shards, fw-net's simulated
//! packet jitter, fw-cloud's anycast node pick). They are consolidated
//! here so shard assignment can never silently diverge between layers:
//! the unit tests pin exact hash values, and any edit that changes them
//! breaks the pins before it breaks a snapshot.
//!
//! FNV-1a is used (not SipHash) because these hashes are *persisted
//! semantics*, not DoS-hardened table hashes: fw-store writes the shard
//! index into the snapshot directory layout, and the generator derives
//! per-shard RNG seeds from it. Both must be identical across runs,
//! platforms, and std versions.

/// FNV-1a 64-bit offset basis.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hash a byte slice with FNV-1a 64.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    update(OFFSET, bytes)
}

/// Continue an FNV-1a hash over more bytes. `update(OFFSET, b)` is
/// `fnv1a(b)`; chaining `update` calls equals hashing the
/// concatenation.
#[inline]
pub fn update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Fold a whole `u64` into the hash in one step (xor + multiply).
///
/// This is **not** the same as hashing the value's 8 bytes — it is the
/// one-step variant the resolver's cache sharding has always used to
/// mix the record type into the name hash, kept bit-exact here.
#[inline]
pub fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(PRIME)
}

/// Derive a child seed from a parent seed and a stream index by
/// hashing both as little-endian bytes. Used for per-shard RNG streams
/// in the parallel world generator: `stream_seed(seed, shard)` is a
/// pure function of its inputs, so the set of streams is independent
/// of worker count.
#[inline]
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    update(update(OFFSET, &seed.to_le_bytes()), &stream.to_le_bytes())
}

/// The splitmix64 finalizer: a bijective mix that spreads structured
/// seed material (small integers, xor-combined hashes) across the whole
/// word. Used where nearby inputs must get unrelated RNG streams
/// (SimNet's per-flow fault seeds, the serve load harness's clients).
#[inline]
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A [`std::hash::Hasher`] over the FNV-1a loop, for `HashMap`s on hot
/// ingest paths where SipHash dominates the lookup cost. These tables
/// are rebuilt per run and never face untrusted keys, so DoS hardening
/// buys nothing. Unlike the free functions above, hasher output is
/// *not* persisted semantics — only bucket placement.
#[derive(Debug, Default, Clone, Copy)]
pub struct FnvHasher(u64);

impl std::hash::Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // A fresh hasher starts at 0 (from Default); mix the offset in
        // lazily so short integer keys still avalanche.
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let h = if self.0 == 0 { OFFSET } else { self.0 };
        self.0 = update(h, bytes);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let h = if self.0 == 0 { OFFSET } else { self.0 };
        self.0 = fold(h, v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FnvHasher`]-keyed maps.
pub type FnvBuildHasher = std::hash::BuildHasherDefault<FnvHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard FNV-1a 64 test vectors; if these move, every persisted
    /// shard assignment in the repo moves with them.
    #[test]
    fn pinned_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// Pin the exact values the pre-consolidation copies produced for
    /// representative inputs from each call site.
    #[test]
    fn pinned_call_site_values() {
        // fw-store shard routing hashes the fqdn string.
        assert_eq!(fnv1a(b"abc123.fcapp.run"), 0x2869_15fe_3d27_9b62);
        assert_eq!(fnv1a(b"abc123.fcapp.run") % 16, 2);
        // fw-dns resolver cache: name bytes, then the record type is
        // folded in as a whole u64.
        assert_eq!(fold(fnv1a(b"abc123.fcapp.run"), 1) % 16, 9);
        // fw-cloud anycast node pick hashes the fqdn the same way.
        assert_eq!(fnv1a(b"x.cloudfunctions.net"), 0x3fc3_fd38_b4c6_dcc0);
    }

    #[test]
    fn update_chaining_equals_concatenation() {
        let h = update(update(OFFSET, b"foo"), b"bar");
        assert_eq!(h, fnv1a(b"foobar"));
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let s0 = stream_seed(42, 0);
        let s1 = stream_seed(42, 1);
        assert_ne!(s0, s1);
        assert_ne!(s0, stream_seed(43, 0));
        // Pin one value so shard RNG streams never drift.
        assert_eq!(
            stream_seed(42, 0),
            fnv1a(&[42, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])
        );
    }
}
