//! Calibration constants, each cited to the paper table/figure it
//! reproduces.
//!
//! The synthetic world is generated so that the *measurement pipeline*
//! (`fw-core`) rediscovers these numbers. Population counts scale with
//! `WorldConfig::scale`; distributional targets (mixes, shares) are
//! scale-invariant.

use fw_types::ProviderId;

/// Table 2 row: per-provider population and resolution calibration.
#[derive(Debug, Clone, Copy)]
pub struct ProviderCalib {
    pub provider: ProviderId,
    /// Table 2 "Domains" (full scale).
    pub domains: u64,
    /// Table 2 "All Request" (full scale).
    pub total_requests: u64,
    /// Table 2 rtype request shares `(A, CNAME, AAAA)`; sums to 1.
    pub rtype_share: (f64, f64, f64),
    /// Table 2 `rdata_cnt` per rtype `(A, CNAME, AAAA)` (full scale).
    pub rdata_pool: (u32, u32, u32),
    /// Table 2 "Top10" concentration per rtype (share of requests served
    /// by the ten most frequent rdata values).
    pub top10: (f64, f64, f64),
}

/// Table 2, verbatim.
pub const PROVIDERS: [ProviderCalib; 9] = [
    ProviderCalib {
        provider: ProviderId::Aliyun,
        domains: 59_404,
        total_requests: 440_860_944,
        rtype_share: (0.2796, 0.7204, 0.0),
        rdata_pool: (65, 44, 0),
        top10: (0.9357, 0.9554, 0.0),
    },
    ProviderCalib {
        provider: ProviderId::Baidu,
        domains: 753,
        total_requests: 17_005_075,
        rtype_share: (0.2247, 0.7753, 0.0),
        rdata_pool: (10, 3, 0),
        top10: (1.0, 1.0, 0.0),
    },
    ProviderCalib {
        provider: ProviderId::Tencent,
        domains: 6_154,
        total_requests: 3_024_609,
        rtype_share: (0.2389, 0.7611, 0.0),
        rdata_pool: (35, 36, 0),
        top10: (0.9570, 0.9203, 0.0),
    },
    ProviderCalib {
        provider: ProviderId::Kingsoft,
        domains: 123,
        total_requests: 4_044,
        rtype_share: (1.0, 0.0, 0.0),
        rdata_pool: (4, 0, 0),
        top10: (1.0, 0.0, 0.0),
    },
    ProviderCalib {
        provider: ProviderId::Aws,
        domains: 19_683,
        total_requests: 346_651_678,
        rtype_share: (0.7673, 0.0, 0.2327),
        rdata_pool: (10_914, 0, 17_312),
        top10: (0.0179, 0.0, 0.0214),
    },
    ProviderCalib {
        provider: ProviderId::Google,
        domains: 120_603,
        total_requests: 543_330_521,
        rtype_share: (0.7641, 0.0, 0.2359),
        rdata_pool: (1, 0, 1),
        top10: (1.0, 0.0, 1.0),
    },
    ProviderCalib {
        provider: ProviderId::Google2,
        domains: 324_343,
        total_requests: 199_308_250,
        rtype_share: (0.6675, 0.0, 0.3325),
        rdata_pool: (4, 0, 4),
        top10: (1.0, 0.0, 1.0),
    },
    ProviderCalib {
        provider: ProviderId::Ibm,
        domains: 6,
        total_requests: 107_421,
        rtype_share: (0.1015, 0.8755, 0.0230),
        rdata_pool: (6, 6, 6),
        top10: (1.0, 1.0, 1.0),
    },
    ProviderCalib {
        provider: ProviderId::Oracle,
        domains: 14,
        total_requests: 2_080_577,
        rtype_share: (1.0, 0.0, 0.0),
        rdata_pool: (31, 0, 0),
        top10: (0.5797, 0.0, 0.0),
    },
];

/// Calibration for one provider.
pub fn provider_calib(provider: ProviderId) -> Option<&'static ProviderCalib> {
    PROVIDERS.iter().find(|c| c.provider == provider)
}

/// Abstract: 531,089 function domains across the nine collected
/// providers.
pub const TOTAL_DOMAINS: u64 = 531_089;

// ---- Figure 5 / §4.3: invocation-count mixture ----

/// Fraction of functions invoked fewer than five times (§4.3).
pub const FRACTION_UNDER_5_REQUESTS: f64 = 0.7814;
/// Fraction invoked more than 100 times (§4.3).
pub const FRACTION_OVER_100_REQUESTS: f64 = 0.0787;
/// Figure 5 annotation: 73.51% of functions fall in ≈[3.35, 6.13]
/// requests.
pub const FRACTION_PEAK_3_TO_6: f64 = 0.7351;

/// Invocation mixture: `(weight, lo, hi)` — counts sampled uniformly in
/// `lo..=hi`, tail sampled log-uniformly. Calibrated jointly against the
/// §4.3 anchors: `P(< 5) = w₁ + w₂ = 0.7814` and `P(> 100) = 0.0787`,
/// with the Figure 5 peak bucket (≈3–6 requests) carrying ≈74% mass.
pub const REQUEST_MIXTURE: [(f64, u64, u64); 5] = [
    (0.046, 1, 2),         // one-off tests
    (0.7354, 3, 4),        // bulk of the Figure 5 peak (still < 5)
    (0.030, 5, 6),         // upper half of the peak bucket
    (0.1099, 7, 100),      // moderate
    (0.0787, 101, 80_000), // heavy tail (log-uniform; hi capped per provider)
];

// ---- §4.3: lifespan mixture ----

/// 81.30% of functions active a single day.
pub const FRACTION_SINGLE_DAY: f64 = 0.8130;
/// 83.94% active fewer than five days.
pub const FRACTION_UNDER_5_DAYS: f64 = 0.8394;

/// Lifespan mixture: `(weight, lo_days, hi_days, contiguous)`.
/// Contiguous lifespans have p = 1 (active every day).
pub const LIFESPAN_MIXTURE: [(f64, i64, i64, bool); 4] = [
    (0.8130, 1, 1, true),      // single day
    (0.0264, 2, 4, true),      // short continuous
    (0.0866, 5, 120, false),   // intermittent medium
    (0.0740, 121, 730, false), // long-lived intermittent
];

// ---- §4.4 / Figure 6: probe-outcome mix ----

/// 2.03% of probed functions unreachable.
pub const FRACTION_UNREACHABLE: f64 = 0.0203;
/// 19.12% of unreachable are DNS failures (all Tencent).
pub const FRACTION_UNREACHABLE_DNS: f64 = 0.1912;
/// Figure 6 buckets (share of reachable functions).
pub const FRACTION_200: f64 = 0.0314;
pub const FRACTION_502: f64 = 0.0282;
pub const FRACTION_401: f64 = 0.0013;
/// AWS's share of all 502 responses (§4.4).
pub const AWS_SHARE_OF_502: f64 = 0.5056;
/// 96.01% of 200s carried a non-empty body.
pub const FRACTION_200_NONEMPTY: f64 = 0.9601;
/// Probed total / content-rich corpus (§4.4, §5).
pub const PAPER_PROBED: u64 = 410_460;
pub const PAPER_CONTENT_RICH: u64 = 12_138;

/// §3.4 content mix over the content-rich corpus.
pub const CONTENT_MIX_JSON: f64 = 0.3698;
pub const CONTENT_MIX_HTML: f64 = 0.3154;
pub const CONTENT_MIX_PLAIN: f64 = 0.3034;
pub const CONTENT_MIX_OTHERS: f64 = 0.0115;

/// §3.4: 4,512 clusters over the 12,138 content-rich responses.
pub const PAPER_CLUSTERS: u64 = 4_512;

// ---- Table 3: abuse inventory (full scale) ----

/// `(case, functions, requests)` rows of Table 3.
#[derive(Debug, Clone, Copy)]
pub struct AbuseCalib {
    pub functions: u64,
    pub requests: u64,
}

pub const ABUSE_C2: AbuseCalib = AbuseCalib {
    functions: 16,
    requests: 273_291,
};
pub const ABUSE_GAMBLING: AbuseCalib = AbuseCalib {
    functions: 194,
    requests: 24_979,
};
pub const ABUSE_PORN: AbuseCalib = AbuseCalib {
    functions: 8,
    requests: 854,
};
pub const ABUSE_CHEAT: AbuseCalib = AbuseCalib {
    functions: 4,
    requests: 11_941,
};
pub const ABUSE_REDIRECT: AbuseCalib = AbuseCalib {
    functions: 23,
    requests: 16_771,
};
pub const ABUSE_OPENAI_RESALE: AbuseCalib = AbuseCalib {
    functions: 243,
    requests: 106_315,
};
pub const ABUSE_ILLEGAL_PROXY: AbuseCalib = AbuseCalib {
    functions: 20,
    requests: 170_195,
};
pub const ABUSE_GEO_PROXY: AbuseCalib = AbuseCalib {
    functions: 86,
    requests: 10_873,
};

/// Table 3 totals: 594 functions. Note: the paper's Table 3 prints a
/// total of 614,219 requests, but its own rows sum to 615,219 — a
/// 1,000-request inconsistency in the paper itself. We carry the row sum;
/// EXPERIMENTS.md reports both.
pub const ABUSE_TOTAL_FUNCTIONS: u64 = 594;
pub const ABUSE_TOTAL_REQUESTS: u64 = 615_219;

/// §5.3: the largest resale group used one WeChat across 157 functions.
pub const OPENAI_BIGGEST_GROUP: u64 = 157;
/// §5.3: one group of 14 functions sold accounts outright.
pub const OPENAI_ACCOUNT_GROUP: u64 = 14;
/// §5.3: 28 distinct contact handles.
pub const OPENAI_CONTACTS: u64 = 28;

// ---- Finding 5: sensitive-data exposure (item counts, full scale) ----

pub const SENSITIVE_PHONE: u64 = 8;
pub const SENSITIVE_NATIONAL_ID: u64 = 5;
pub const SENSITIVE_TOKEN: u64 = 82;
pub const SENSITIVE_API_KEY: u64 = 156;
pub const SENSITIVE_PASSWORD: u64 = 16;
pub const SENSITIVE_NETWORK_ID: u64 = 127;
/// Finding 5 total: 394 sensitive data items.
pub const SENSITIVE_TOTAL: u64 = 394;

// ---- Figures 3/4/7: timeline events (month index 0 = April 2022) ----

/// Measurement window: 24 months, April 2022 – March 2024.
pub const MONTHS: usize = 24;

/// Month index helpers for the annotated Figure 3/4 events.
pub const MONTH_AWS_FUNCTION_URL: usize = 0; // Apr 2022 (Fig 3 spike)
pub const MONTH_KINGSOFT_LAUNCH: usize = 4; // Aug 2022
pub const MONTH_TENCENT_LAUNCH: usize = 16; // Aug 2023
pub const MONTH_GOOGLE2_DEFAULT: usize = 16; // Aug 2023
pub const MONTH_TENCENT_TRIAL_CHANGE: usize = 21; // Jan 2024
pub const MONTH_OPENAI_WAVE_START: usize = 9; // Jan 2023 (Fig 7)
pub const MONTH_OPENAI_WAVE_END: usize = 13; // May 2023

/// Relative weight of month `m` for newly-observed functions of
/// `provider` (Figures 3/4 shape).
pub fn first_seen_weight(provider: ProviderId, m: usize) -> f64 {
    debug_assert!(m < MONTHS);
    let base = 1.0 + 0.3 * (m as f64 / (MONTHS - 1) as f64); // mild growth
    match provider {
        ProviderId::Aws => match m {
            MONTH_AWS_FUNCTION_URL => 6.0, // function-URL launch (§4.1)
            1 => 2.5,
            2 => 1.5,
            _ => base,
        },
        ProviderId::Kingsoft => {
            if m < MONTH_KINGSOFT_LAUNCH {
                0.0
            } else {
                base
            }
        }
        ProviderId::Tencent => {
            if m < MONTH_TENCENT_LAUNCH {
                0.0
            } else if m >= MONTH_TENCENT_TRIAL_CHANGE {
                0.3 * base // free-trial quota change (§4.1)
            } else {
                base
            }
        }
        ProviderId::Google2 => {
            if m == 0 {
                1.6 // slight post-release spike (released Feb 2022)
            } else if m >= MONTH_GOOGLE2_DEFAULT {
                2.4 * base // became the console default (§4.1)
            } else {
                base
            }
        }
        _ => base,
    }
}

/// Per-day request multiplier for provider activity in month `m`
/// (Figure 4's invocation trends; Tencent's Jan-2024 cliff).
pub fn request_weight(provider: ProviderId, m: usize) -> f64 {
    match provider {
        ProviderId::Tencent if m >= MONTH_TENCENT_TRIAL_CHANGE => 0.2,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_domains_sum_to_abstract_total() {
        let sum: u64 = PROVIDERS.iter().map(|c| c.domains).sum();
        // Table 2 sums to 531,083; the abstract reports 531,089 (six
        // domains of rounding/dedup slack in the paper itself).
        assert!(
            (TOTAL_DOMAINS as i64 - sum as i64).abs() <= 10,
            "sum = {sum}"
        );
    }

    #[test]
    fn probed_count_matches_paper() {
        // §4.4: 410,460 probed = all collected minus the path-identified
        // providers (Google, IBM, Oracle).
        let probed: u64 = PROVIDERS
            .iter()
            .filter(|c| c.provider.function_identifiable())
            .map(|c| c.domains)
            .sum();
        assert_eq!(probed, 410_460);
    }

    #[test]
    fn rtype_shares_sum_to_one() {
        for c in &PROVIDERS {
            let (a, cn, aaaa) = c.rtype_share;
            assert!((a + cn + aaaa - 1.0).abs() < 1e-6, "{}", c.provider);
        }
    }

    #[test]
    fn request_mixture_sums_to_one() {
        let total: f64 = REQUEST_MIXTURE.iter().map(|(w, _, _)| w).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
        // Under-5 mass matches §4.3 exactly.
        let under5: f64 = REQUEST_MIXTURE
            .iter()
            .filter(|(_, _, hi)| *hi < 5)
            .map(|(w, _, _)| w)
            .sum();
        assert!(
            (under5 - FRACTION_UNDER_5_REQUESTS).abs() < 1e-6,
            "{under5}"
        );
        // The 3–6 peak carries roughly the Figure 5 annotation's mass.
        let peak: f64 = REQUEST_MIXTURE
            .iter()
            .filter(|(_, lo, hi)| *lo >= 3 && *hi <= 6)
            .map(|(w, _, _)| w)
            .sum();
        assert!((peak - FRACTION_PEAK_3_TO_6).abs() < 0.05, "{peak}");
        // Over-100 mass matches exactly.
        assert!((REQUEST_MIXTURE[4].0 - FRACTION_OVER_100_REQUESTS).abs() < 1e-9);
    }

    #[test]
    fn lifespan_mixture_sums_to_one() {
        let total: f64 = LIFESPAN_MIXTURE.iter().map(|(w, ..)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((LIFESPAN_MIXTURE[0].0 - FRACTION_SINGLE_DAY).abs() < 1e-9);
        let under5: f64 = LIFESPAN_MIXTURE
            .iter()
            .filter(|(_, _, hi, _)| *hi < 5)
            .map(|(w, ..)| w)
            .sum();
        assert!((under5 - FRACTION_UNDER_5_DAYS).abs() < 1e-6);
    }

    #[test]
    fn abuse_rows_sum_to_table3_totals() {
        let rows = [
            ABUSE_C2,
            ABUSE_GAMBLING,
            ABUSE_PORN,
            ABUSE_CHEAT,
            ABUSE_REDIRECT,
            ABUSE_OPENAI_RESALE,
            ABUSE_ILLEGAL_PROXY,
            ABUSE_GEO_PROXY,
        ];
        assert_eq!(
            rows.iter().map(|r| r.functions).sum::<u64>(),
            ABUSE_TOTAL_FUNCTIONS
        );
        assert_eq!(
            rows.iter().map(|r| r.requests).sum::<u64>(),
            ABUSE_TOTAL_REQUESTS
        );
    }

    #[test]
    fn sensitive_categories_sum_to_total() {
        assert_eq!(
            SENSITIVE_PHONE
                + SENSITIVE_NATIONAL_ID
                + SENSITIVE_TOKEN
                + SENSITIVE_API_KEY
                + SENSITIVE_PASSWORD
                + SENSITIVE_NETWORK_ID,
            SENSITIVE_TOTAL
        );
    }

    #[test]
    fn timeline_weights_respect_launch_dates() {
        assert_eq!(first_seen_weight(ProviderId::Kingsoft, 0), 0.0);
        assert!(first_seen_weight(ProviderId::Kingsoft, 5) > 0.0);
        assert_eq!(first_seen_weight(ProviderId::Tencent, 10), 0.0);
        assert!(first_seen_weight(ProviderId::Tencent, 17) > 0.0);
        // AWS launch spike dominates its steady state.
        assert!(
            first_seen_weight(ProviderId::Aws, 0) > 3.0 * first_seen_weight(ProviderId::Aws, 12)
        );
        // Google2 default-option boost.
        assert!(
            first_seen_weight(ProviderId::Google2, 17)
                > 2.0 * first_seen_weight(ProviderId::Google2, 15)
        );
        // Tencent request cliff.
        assert!(request_weight(ProviderId::Tencent, 21) < 0.5);
        assert_eq!(request_weight(ProviderId::Tencent, 20), 1.0);
        assert_eq!(request_weight(ProviderId::Aws, 21), 1.0);
    }

    #[test]
    fn content_mix_sums_to_one() {
        let total = CONTENT_MIX_JSON + CONTENT_MIX_HTML + CONTENT_MIX_PLAIN + CONTENT_MIX_OTHERS;
        assert!((total - 1.0).abs() < 0.001, "{total}");
    }
}
