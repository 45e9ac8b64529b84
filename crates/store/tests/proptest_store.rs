//! Property tests for the segment codec's varint reader: the SWAR
//! fast path decodes exactly what the scalar reader does. The segment
//! round-trip, truncation, corruption and decoded-field properties run
//! against the crate-private reader, so they live in `segment.rs`'s
//! unit tests.

use proptest::prelude::*;

proptest! {
    /// SWAR batch uvarint decode ≡ the scalar `Reader` on encoded value
    /// streams spanning every varint length (1..=10 bytes).
    #[test]
    fn swar_uvarint_matches_scalar_on_encoded_streams(
        seeds in proptest::collection::vec((any::<u64>(), 0u32..64), 1..200),
    ) {
        // Shift each raw seed by a random bit width so short and long
        // varints are equally likely.
        let values: Vec<u64> = seeds.iter().map(|&(v, s)| v >> s).collect();
        let mut buf = Vec::new();
        for &v in &values {
            fw_store::codec::put_uvarint(&mut buf, v);
        }
        let mut scalar = fw_store::codec::Reader::new(&buf);
        let mut swar = fw_store::codec::Reader::new(&buf);
        for &v in &values {
            prop_assert_eq!(scalar.uvarint().unwrap(), v);
            prop_assert_eq!(swar.uvarint_swar().unwrap(), v);
        }
        prop_assert!(scalar.is_empty());
        prop_assert!(swar.is_empty());
    }

    /// SWAR and scalar decode accept/reject exactly the same arbitrary
    /// byte strings: same values, same errors, in lockstep until the
    /// buffer is exhausted.
    #[test]
    fn swar_uvarint_matches_scalar_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut scalar = fw_store::codec::Reader::new(&bytes);
        let mut swar = fw_store::codec::Reader::new(&bytes);
        loop {
            let done = scalar.is_empty();
            prop_assert_eq!(done, swar.is_empty());
            if done {
                break;
            }
            match (scalar.uvarint(), swar.uvarint_swar()) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.to_string(), b.to_string());
                    break;
                }
                (a, b) => prop_assert!(false, "scalar {:?} vs swar {:?}", a, b),
            }
        }
    }
}
