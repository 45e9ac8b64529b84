//! Property tests for the analysis layer.

use fw_analysis::cluster::{cluster_corpus_par, ClusterParams};
use fw_analysis::content::ContentType;
use fw_analysis::stats::{cdf_points, entropy_bits, log10_histogram, percentile, top_k_share};
use fw_analysis::text::{cosine_distance, TfIdf};
use proptest::prelude::*;

fn arb_docs() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec("[a-d ]{0,40}", 1..25)
}

proptest! {
    /// Cosine distance is a bounded, symmetric semi-metric with zero
    /// self-distance (for non-empty vectors).
    #[test]
    fn cosine_distance_properties(docs in arb_docs()) {
        let (_, vecs) = TfIdf::fit_transform_par(&docs, 1);
        for a in &vecs {
            for b in &vecs {
                let d_ab = cosine_distance(a, b);
                let d_ba = cosine_distance(b, a);
                prop_assert!((0.0..=1.0).contains(&d_ab));
                prop_assert!((d_ab - d_ba).abs() < 1e-6);
            }
            if !a.is_empty() {
                prop_assert!(cosine_distance(a, a) < 1e-5);
            }
        }
    }

    /// Cluster count is monotonically non-increasing in the threshold:
    /// a looser cut can only merge more.
    #[test]
    fn cluster_count_monotone_in_threshold(docs in arb_docs()) {
        let count_at = |t: f32| {
            cluster_corpus_par(
                &docs,
                &ClusterParams { distance_threshold: t, exact_limit: 4_000 },
                1,
            )
            .cluster_count
        };
        let c005 = count_at(0.05);
        let c01 = count_at(0.1);
        let c05 = count_at(0.5);
        let c10 = count_at(1.0);
        prop_assert!(c005 >= c01, "{c005} < {c01}");
        prop_assert!(c01 >= c05, "{c01} < {c05}");
        prop_assert!(c05 >= c10, "{c05} < {c10}");
    }

    /// Every document gets an assignment, cluster ids are dense, and
    /// identical documents always share a cluster.
    #[test]
    fn clustering_assignment_invariants(docs in arb_docs()) {
        let c = cluster_corpus_par(&docs, &ClusterParams::default(), 1);
        prop_assert_eq!(c.assignment.len(), docs.len());
        let max_id = c.assignment.iter().max().copied().unwrap_or(0);
        prop_assert_eq!(c.cluster_count, (max_id as usize) + 1);
        for (i, a) in docs.iter().enumerate() {
            for (j, b) in docs.iter().enumerate() {
                if a == b {
                    prop_assert_eq!(c.assignment[i], c.assignment[j]);
                }
            }
        }
    }

    /// Content classification is total and stable.
    #[test]
    fn content_classify_total(body in "\\PC{0,200}") {
        let a = ContentType::classify(&body, None);
        let b = ContentType::classify(&body, None);
        prop_assert_eq!(a, b);
    }

    /// Stats helpers: CDF is monotone and ends at 1, percentiles are
    /// monotone in p, top-k share bounded and monotone in k, entropy
    /// non-negative, histogram conserves mass.
    #[test]
    fn stats_invariants(values in proptest::collection::vec(1u64..100_000, 1..50)) {
        let floats: Vec<f64> = values.iter().map(|v| *v as f64).collect();
        // CDF strictly increasing in value and fraction, ending at 1.
        let pts = cdf_points(&floats);
        prop_assert!(pts.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
        prop_assert_eq!(pts.last().map(|p| p.1), Some(1.0));
        // Percentiles monotone in p, within the sample's range.
        let mut sorted = floats.clone();
        sorted.sort_by(f64::total_cmp);
        let (p50, p99) = (percentile(&sorted, 50.0), percentile(&sorted, 99.0));
        prop_assert!(sorted[0] <= p50 && p50 <= p99 && p99 <= sorted[sorted.len() - 1]);
        // top-k share.
        let t1 = top_k_share(&values, 1);
        let t10 = top_k_share(&values, 10);
        let tall = top_k_share(&values, values.len());
        prop_assert!(t1 <= t10 + 1e-12);
        prop_assert!((tall - 1.0).abs() < 1e-12);
        // entropy.
        prop_assert!(entropy_bits(&values) >= 0.0);
        prop_assert!(entropy_bits(&values) <= (values.len() as f64).log2() + 1e-9);
        // histogram mass.
        let bins = log10_histogram(&floats, 4);
        let mass: u64 = bins.iter().map(|b| b.count).sum();
        prop_assert_eq!(mass, values.len() as u64);
    }
}
