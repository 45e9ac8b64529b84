//! Property tests for PDNS aggregation.

use fw_dns::pdns::PdnsStore;
use fw_types::{DayStamp, Fqdn, Rdata};
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    /// Aggregation invariant: total_request_cnt equals the sum of per-day
    /// counts, and days_count never exceeds the lifespan.
    #[test]
    fn pdns_aggregate_invariants(
        observations in proptest::collection::vec((0i64..730, 1u64..100, 0u8..3), 1..60)
    ) {
        let mut store = PdnsStore::new();
        let fqdn = Fqdn::parse("prop.on.aws").unwrap();
        let rdatas = [
            Rdata::V4(Ipv4Addr::new(10, 0, 0, 1)),
            Rdata::V4(Ipv4Addr::new(10, 0, 0, 2)),
            Rdata::Name(Fqdn::parse("edge.on.aws").unwrap()),
        ];
        let mut expected_total = 0u64;
        for (day_off, cnt, which) in &observations {
            store.observe_count(
                &fqdn,
                &rdatas[*which as usize],
                DayStamp(19083 + day_off),
                *cnt,
            );
            expected_total += cnt;
        }
        let agg = store.aggregate(&fqdn).unwrap();
        prop_assert_eq!(agg.total_request_cnt, expected_total);
        prop_assert!(i64::from(agg.days_count) <= agg.lifespan_days());
        prop_assert!(agg.activity_density() > 0.0 && agg.activity_density() <= 1.0);
        let dist_total: u64 = agg.rdata_dist.iter().map(|(_, c)| *c).sum();
        prop_assert_eq!(dist_total, expected_total);
    }
}
