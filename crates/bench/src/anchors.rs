//! The paper anchors: every paper-vs-measured line that a figure or
//! table binary prints, in one table.
//!
//! A row holds an id (`<binary>.<anchor>`; `table3_abuse` adds the
//! section it prints in), the printed label, a [`Band`] that names the
//! paper value (from [`fw_workload::calib`] where calib has it, else a
//! literal in that row alone) and the model judging the measured value,
//! fixed before any result was seen, a function reading the measured
//! value and its sample size from the report the binary builds, and a
//! [`State`]. The binaries print their rows with [`print()`];
//! `tests/anchors.rs` judges every row at the binaries' default scales
//! and seed 42, and the paper columns of Tables 2 and 3 and Finding 5,
//! which their binaries read from calib directly.

use crate::paper_scaled;
use fw_abuse::sensitive::SensitiveKind;
use fw_analysis::content::ContentType;
use fw_cloud::formats::all_formats;
use fw_core::pipeline::{FullReport, UsageReport};
use fw_core::report::{compare, pct, thousands};
use fw_core::usage::MonthlySeries;
use fw_types::{MonthStamp, ProviderId, MEASUREMENT_START};
use fw_workload::calib::*;

/// How many standard errors a measured value may sit from the paper's
/// under [`Band::Binomial`] and [`Band::Poisson`].
pub const K: f64 = 3.0;

/// A paper value and how it prints.
#[derive(Debug, Clone, Copy)]
pub enum Paper {
    /// A share: "89.31%".
    Share(f64),
    /// A share the paper gives to one decimal: "60.4%".
    Tenths(f64),
    /// A full-scale count, its unit after the number: "410,460 (×scale)".
    Count(u64, &'static str),
    /// A full-scale count shown at the run's scale: "~26,554".
    Approx(u64),
    /// A count and its share of a full-scale total: "4 (0.67%)".
    CountOf(u64, u64),
    /// A mean: "21.44".
    Mean(f64),
    /// A month of the window by index, 0 = April 2022: "2022-08".
    Month(usize),
    /// The providers with the most Table 2 requests: "Google, Aliyun".
    Leaders(usize),
    /// Formats, vendors, collected and probed providers: "10/9, 9, 6".
    Inventory([u64; 4]),
    /// The paper's words, which the row's band reads as a test.
    Says(&'static str),
}

impl Paper {
    pub fn text(self, scale: f64) -> String {
        match self {
            Paper::Share(p) => pct(p),
            Paper::Tenths(p) => format!("{:.1}%", p * 100.0),
            Paper::Count(n, unit) => format!("{}{unit} (×scale)", thousands(n)),
            Paper::Approx(n) => format!("~{}", thousands(paper_scaled(n, scale))),
            Paper::CountOf(n, of) => format!("{n} ({})", pct(n as f64 / of as f64)),
            Paper::Mean(x) => format!("{x:.2}"),
            Paper::Month(i) => month(i).label(),
            Paper::Leaders(k) => {
                leaders(PROVIDERS.iter().map(|c| (c.provider, c.total_requests)), k)
            }
            Paper::Inventory([f, v, c, p]) => format!("{f}/{v}, {c}, {p}"),
            Paper::Says(words) => words.to_string(),
        }
    }
}

/// The paper value and the model a measured value `m` is judged by.
#[derive(Debug, Clone, Copy)]
pub enum Band {
    /// A share p: |m − p| ≤ K·√(p(1 − p)/n), n the measured denominator.
    Binomial(Paper),
    /// A count of units drawn independently: |m − λ| ≤ K·√λ, λ = count ×
    /// scale. The reason says what is drawn.
    Poisson(Paper, &'static str),
    /// A mean, or a count the generator rounds as [`paper_scaled`] does:
    /// |m − e| ≤ tol·e, with the reason tol is what it is.
    Relative(Paper, f64, &'static str),
    /// A month, a ranking or an inventory: m prints as the paper value.
    Exact(Paper),
    /// A month within the paper's span of month indices.
    Within(usize, usize),
    /// The paper's words, read as a test of m, with the reading.
    Holds(Paper, fn(f64) -> bool, &'static str),
}

impl Band {
    pub fn paper_text(self, scale: f64) -> String {
        match self {
            Band::Binomial(p) | Band::Poisson(p, _) | Band::Relative(p, ..) => p.text(scale),
            Band::Exact(p) | Band::Holds(p, ..) => p.text(scale),
            Band::Within(a, b) => format!("{}..{}", month(a).label(), month(b).label()),
        }
    }
}

/// Whether a row is expected in its band. An out-of-band row pins its
/// value as printed, how far out it sits in its band's unit to one
/// decimal (standard errors under `Binomial` and `Poisson`, percent of
/// the expected value under `Relative`, months under an `Exact` month),
/// and the cause, so that a fix, a regression or a moved paper value
/// shows.
#[derive(Debug, Clone, Copy)]
pub enum State {
    InBand,
    /// A documented simplification holds the value out of band.
    Limit(&'static str, f64, &'static str),
    /// Out of band when the table landed: a calibration task, whose fix
    /// moves `calib` and the pipeline pins.
    Gap(&'static str, f64, &'static str),
}

/// A measured value as a row reads it.
#[derive(Debug)]
pub struct Measured {
    /// What the band judges.
    pub value: f64,
    /// The denominator behind a share (0 for other values).
    pub n: u64,
    /// The value as printed.
    pub text: String,
}

/// How a row reads its value; `None` where its binary prints no line.
#[derive(Clone, Copy)]
pub enum Read {
    Inventory(fn() -> Option<Measured>),
    Usage(fn(&UsageReport) -> Option<Measured>),
    Full(fn(&FullReport) -> Option<Measured>),
}

/// What a binary built: nothing (Table 1), or one of the two reports.
#[derive(Clone, Copy)]
pub enum Source<'a> {
    Inventory,
    Usage(&'a UsageReport),
    Full(&'a FullReport),
}

pub struct Anchor {
    pub id: &'static str,
    pub label: &'static str,
    pub band: Band,
    pub read: Read,
    pub state: State,
}

impl Anchor {
    pub fn measure(&self, src: Source) -> Option<Measured> {
        match (self.read, src) {
            (Read::Inventory(f), Source::Inventory) => f(),
            (Read::Usage(f), Source::Usage(r)) => f(r),
            (Read::Full(f), Source::Full(r)) => f(r),
            _ => panic!("anchor {} handed the wrong report", self.id),
        }
    }

    pub fn line(&self, m: &Measured, scale: f64) -> String {
        let paper = self.band.paper_text(scale);
        match self.band {
            Band::Exact(Paper::Inventory(_)) => {
                format!("{}: {} (paper: {paper})", self.label, m.text)
            }
            _ => compare(self.label, &paper, &m.text),
        }
    }

    const fn gap(self, measured: &'static str, off: f64, cause: &'static str) -> Anchor {
        Anchor {
            state: State::Gap(measured, off, cause),
            ..self
        }
    }
}

/// Print the rows of `section` (an id prefix such as `"fig6"` or
/// `"table3.corpus"`) in table order.
pub fn print(section: &str, src: Source, scale: f64) {
    let rows = ANCHORS.iter().filter(|a| {
        a.id.strip_prefix(section)
            .is_some_and(|rest| rest.starts_with('.'))
    });
    for a in rows {
        if let Some(m) = a.measure(src) {
            println!("{}", a.line(&m, scale));
        }
    }
}

/// Month `i` of the measurement window.
fn month(i: usize) -> MonthStamp {
    (0..i).fold(MEASUREMENT_START.month(), |m, _| m.next())
}

/// The `k` providers with the largest totals, largest first (ties keep
/// input order), as printed.
fn leaders(totals: impl Iterator<Item = (ProviderId, u64)>, k: usize) -> String {
    let mut totals: Vec<(ProviderId, u64)> = totals.collect();
    totals.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
    let names: Vec<&str> = totals.iter().take(k).map(|(p, _)| p.label()).collect();
    names.join(", ")
}

/// Table 1's inventory as `table1_formats` prints it measured.
pub fn inventory_text([formats, vendors, collected, probed]: [u64; 4]) -> String {
    format!(
        "{formats} formats / {vendors} vendors; {collected} collected, {probed} actively probed"
    )
}

const RESALE: &str = "Resale of OpenAI Key";

/// Table 3's cases as the scan names them, with their calib rows.
pub const TABLE3_CASES: [(&str, AbuseCalib); 8] = [
    ("Hide C2 server", ABUSE_C2),
    ("Gambling Website", ABUSE_GAMBLING),
    ("Porn-related Sites", ABUSE_PORN),
    ("Cheating Tool", ABUSE_CHEAT),
    ("Redirect to New Domains", ABUSE_REDIRECT),
    (RESALE, ABUSE_OPENAI_RESALE),
    ("Illegal Service Proxy", ABUSE_ILLEGAL_PROXY),
    ("Geo-bypass Proxy", ABUSE_GEO_PROXY),
];

/// Finding 5's categories with their calib counts.
pub const FINDING5_KINDS: [(SensitiveKind, u64); 6] = [
    (SensitiveKind::Phone, SENSITIVE_PHONE),
    (SensitiveKind::NationalId, SENSITIVE_NATIONAL_ID),
    (SensitiveKind::AccessToken, SENSITIVE_TOKEN),
    (SensitiveKind::ApiKey, SENSITIVE_API_KEY),
    (SensitiveKind::Password, SENSITIVE_PASSWORD),
    (SensitiveKind::NetworkId, SENSITIVE_NETWORK_ID),
];

/// §5.3: the paper's WebAdvisor flagged 3 of its 13 redirect targets.
pub const REDIRECTS_FLAGGED: &str = "3/13";

/// Functions a report lists under `case`.
fn case_functions(r: &FullReport, case: &str) -> u64 {
    r.abuse
        .table3
        .iter()
        .find(|row| row.case == case)
        .map_or(0, |row| row.functions)
}

fn share(value: f64, n: u64) -> Option<Measured> {
    Some(Measured {
        value,
        n,
        text: pct(value),
    })
}

fn ratio(k: u64, n: u64) -> Option<Measured> {
    share(k as f64 / n.max(1) as f64, n)
}

fn valued(value: f64, text: String) -> Option<Measured> {
    Some(Measured { value, n: 0, text })
}

fn count(c: u64) -> Option<Measured> {
    valued(c as f64, c.to_string())
}

/// Month `i` of a report's series, or "none".
fn month_of(months: &[MonthStamp], i: Option<usize>) -> Option<Measured> {
    match i {
        Some(i) => valued(i as f64, months[i].label()),
        None => valued(f64::NAN, "none".into()),
    }
}

/// The first month in which `p`'s series is non-zero.
fn first_month(series: &MonthlySeries, p: ProviderId) -> Option<Measured> {
    let s = series.for_provider(p)?;
    month_of(
        &series.months,
        Some(s.iter().position(|v| *v > 0).unwrap_or(0)),
    )
}

/// Index of a series' largest month (the last of equal maxima).
fn peak(s: &[u64]) -> Option<usize> {
    s.iter()
        .enumerate()
        .max_by_key(|(_, v)| **v)
        .map(|(i, _)| i)
}

fn status(r: &FullReport, code: u16) -> Option<Measured> {
    share(r.status.frac_status(code), r.status.reachable)
}

fn mix(r: &FullReport, ct: ContentType) -> Option<Measured> {
    let n = r.abuse.corpus_size as u64;
    ratio(r.abuse.content_mix.get(&ct).copied().unwrap_or(0), n)
}

const fn usage(
    id: &'static str,
    label: &'static str,
    band: Band,
    read: fn(&UsageReport) -> Option<Measured>,
) -> Anchor {
    Anchor {
        id,
        label,
        band,
        read: Read::Usage(read),
        state: State::InBand,
    }
}

const fn full(
    id: &'static str,
    label: &'static str,
    band: Band,
    read: fn(&FullReport) -> Option<Measured>,
) -> Anchor {
    Anchor {
        id,
        label,
        band,
        read: Read::Full(read),
        state: State::InBand,
    }
}

const MINTED: &str = "the generator mints round(paper × scale), at least one; 1% covers \
                      the rounding of its parts";
const BUDGET: &str = "the generator splits ⌊paper × scale⌋ requests over the functions \
                      in whole requests, under 1% lost at these scales";
const DRAWN: &str = "each probed function's outcome is drawn independently";

use Band::{Binomial, Exact, Holds, Poisson, Relative};
use Paper::{Count, Month, Says, Share};

pub static ANCHORS: &[Anchor] = &[
    Anchor {
        id: "table1.providers",
        label: "providers",
        band: Exact(Paper::Inventory([10, 9, PROVIDERS.len() as u64, 6])),
        read: Read::Inventory(|| {
            let mut vendors: Vec<&str> = all_formats()
                .iter()
                .filter_map(|f| f.provider.product_name().split(' ').next())
                .collect();
            vendors.sort_unstable();
            vendors.dedup();
            let (formats, vendors) = (all_formats().len() as u64, vendors.len() as u64);
            let collected = ProviderId::collected().count() as u64;
            let probed = ProviderId::actively_probed().count() as u64;
            valued(
                f64::NAN,
                inventory_text([formats, vendors, collected, probed]),
            )
        }),
        state: State::InBand,
    },
    usage(
        "fig3.domains",
        "total identified domains (end of window)",
        Relative(Paper::Approx(TOTAL_DOMAINS), 0.01, MINTED),
        |r| {
            let total: u64 = r.new_fqdns.total().iter().sum();
            valued(total as f64, thousands(total))
        },
    ),
    usage(
        "fig3.aws_peak",
        "AWS new-FQDN peak month (function URL launch)",
        Exact(Month(MONTH_AWS_FUNCTION_URL)),
        |r| {
            let s = r.new_fqdns.for_provider(ProviderId::Aws)?;
            month_of(&r.new_fqdns.months, Some(peak(s).unwrap_or(0)))
        },
    ),
    usage(
        "fig3.kingsoft_first",
        "Kingsoft first observed month",
        Exact(Month(MONTH_KINGSOFT_LAUNCH)),
        |r| first_month(&r.new_fqdns, ProviderId::Kingsoft),
    ),
    usage(
        "fig3.tencent_first",
        "Tencent first observed month",
        Exact(Month(MONTH_TENCENT_LAUNCH)),
        |r| first_month(&r.new_fqdns, ProviderId::Tencent),
    ),
    usage(
        "fig4.kingsoft_first",
        "Kingsoft first resolutions",
        Exact(Month(MONTH_KINGSOFT_LAUNCH)),
        |r| first_month(&r.request_series, ProviderId::Kingsoft),
    ),
    usage(
        "fig4.tencent_first",
        "Tencent first resolutions",
        Exact(Month(MONTH_TENCENT_LAUNCH)),
        |r| first_month(&r.request_series, ProviderId::Tencent),
    ),
    usage(
        "fig4.tencent_cliff",
        "Tencent Jan-2024 volume vs Dec-2023",
        Holds(
            Says("sharp decline"),
            |x| x < 0.5,
            "the month's volume at least halves",
        ),
        |r| {
            let s = r.request_series.for_provider(ProviderId::Tencent)?;
            let m = MONTH_TENCENT_TRIAL_CHANGE;
            let x = if s[m - 1] > 0 {
                s[m] as f64 / s[m - 1] as f64
            } else {
                1.0
            };
            valued(x, format!("x{x:.2}"))
        },
    ),
    usage(
        "fig4.google2_growth",
        "Google2 volume after becoming default (4-mo sums)",
        Holds(
            Says("increase"),
            |x| x > 1.0,
            "the four months after exceed the four before",
        ),
        |r| {
            let s = r.request_series.for_provider(ProviderId::Google2)?;
            let m = MONTH_GOOGLE2_DEFAULT;
            let (before, after): (u64, u64) = (s[m - 4..m].iter().sum(), s[m..m + 4].iter().sum());
            valued(after as f64 / before as f64, format!("{before} -> {after}"))
        },
    ),
    usage(
        "fig4.leaders",
        "volume leaders",
        Exact(Paper::Leaders(2)),
        |r| {
            let s = &r.request_series;
            let totals = ProviderId::ALL
                .iter()
                .filter_map(|p| Some((*p, s.for_provider(*p)?.iter().sum())));
            valued(f64::NAN, leaders(totals, 2))
        },
    ),
    usage(
        "fig5.functions",
        "functions analysed",
        Relative(Count(PAPER_PROBED, ""), 0.01, MINTED),
        |r| count(r.invocation.functions),
    ),
    usage(
        "fig5.under_5",
        "invoked < 5 times",
        Binomial(Share(FRACTION_UNDER_5_REQUESTS)),
        |r| share(r.invocation.frac_under_5, r.invocation.functions),
    ),
    usage(
        "fig5.over_100",
        "invoked > 100 times",
        Binomial(Share(FRACTION_OVER_100_REQUESTS)),
        |r| share(r.invocation.frac_over_100, r.invocation.functions),
    ),
    usage(
        "fig5.single_day",
        "single-day lifespan",
        Binomial(Share(FRACTION_SINGLE_DAY)),
        |r| share(r.invocation.frac_single_day, r.invocation.functions),
    ),
    usage(
        "fig5.under_5_days",
        "lifespan < 5 days",
        Binomial(Share(FRACTION_UNDER_5_DAYS)),
        |r| share(r.invocation.frac_under_5_days, r.invocation.functions),
    ),
    usage(
        "fig5.mean_lifespan",
        "mean lifespan (days)",
        Relative(
            Paper::Mean(21.44),
            0.12,
            "K standard errors of a mean of ~20k lifespans whose SD is about 120 d \
             (calib's 121–730 d tail): 4% each",
        ),
        |r| {
            let mean = r.invocation.mean_lifespan_days;
            valued(mean, format!("{mean:.2}"))
        },
    )
    .gap(
        "24.70",
        15.2,
        "LIFESPAN_MIXTURE is fit to the single-day and < 5-day shares, and its 121–730 d \
         tail sets the mean",
    ),
    usage(
        "fig5.density_one",
        "activity density p = 1",
        Binomial(Share(0.8301)),
        |r| share(r.invocation.frac_density_one, r.invocation.functions),
    )
    .gap(
        "84.21%",
        4.6,
        "LIFESPAN_MIXTURE makes every lifespan under 5 days contiguous, so p = 1 for at \
         least its 83.94%",
    ),
    usage(
        "fig5.full_window",
        "active across whole window",
        Poisson(Count(14, " functions"), "functions are drawn independently"),
        |r| count(r.invocation.full_window_functions),
    )
    .gap(
        "4",
        3.9,
        "the request top-up stretches each provider's heaviest function over its whole \
         window: one per provider whatever the scale",
    ),
    full(
        "fig6.probed",
        "probed functions",
        Relative(Count(PAPER_PROBED, ""), 0.01, MINTED),
        |r| count(r.status.probed),
    ),
    full(
        "fig6.unreachable",
        "unreachable",
        Binomial(Share(FRACTION_UNREACHABLE)),
        |r| share(r.status.frac_unreachable(), r.status.probed),
    ),
    full(
        "fig6.dns_failures",
        "DNS failures among unreachable (Tencent)",
        Binomial(Share(FRACTION_UNREACHABLE_DNS)),
        |r| {
            share(
                r.status.frac_dns_failures_of_unreachable(),
                r.status.unreachable,
            )
        },
    ),
    Anchor {
        id: "fig6.https",
        label: "HTTPS supported (reachable)",
        band: Binomial(Share(0.9982)),
        read: Read::Full(|r| share(r.status.frac_https(), r.status.reachable)),
        state: State::Limit("100.00%", 3.8, "every simulated ingress terminates TLS"),
    },
    full(
        "fig6.status_404",
        "status 404",
        Binomial(Share(0.8931)),
        |r| status(r, 404),
    )
    .gap(
        "91.86%",
        7.4,
        "sample_benign_class sends every roll past its named codes to 404, and those hold \
         about 8% of reachable functions where the paper's hold 10.69%",
    ),
    full(
        "fig6.status_200",
        "status 200",
        Binomial(Share(FRACTION_200)),
        |r| status(r, 200),
    ),
    full(
        "fig6.status_502",
        "status 502",
        Binomial(Share(FRACTION_502)),
        |r| status(r, 502),
    ),
    full(
        "fig6.status_401",
        "status 401",
        Binomial(Share(FRACTION_401)),
        |r| status(r, 401),
    ),
    full(
        "fig6.ok_nonempty",
        "200s with non-empty body",
        Binomial(Share(FRACTION_200_NONEMPTY)),
        |r| {
            ratio(
                r.status.ok_with_content,
                r.status.ok_with_content + r.status.ok_empty,
            )
        },
    ),
    full(
        "fig6.aws_502",
        "AWS share of 502 responses",
        Binomial(Share(AWS_SHARE_OF_502)),
        |r| {
            let all = r
                .probe_records
                .iter()
                .filter(|p| p.outcome.status() == Some(502));
            let aws = all
                .clone()
                .filter(|p| p.fqdn.as_str().ends_with("on.aws"))
                .count();
            match all.count() as u64 {
                0 => None,
                n => ratio(aws as u64, n),
            }
        },
    ),
    full(
        "fig7.first_active",
        "first resale activity (ChatGPT released 2022-11-30)",
        Exact(Month(MONTH_OPENAI_WAVE_START)),
        |r| {
            month_of(
                &r.new_fqdns.months,
                r.abuse.openai_monthly_requests.iter().position(|v| *v > 0),
            )
        },
    )
    .gap(
        "2023-02",
        1.0,
        "five resale functions at scale 0.02, each starting in the wave's first month with \
         probability 0.2: none does for one seed in three",
    ),
    full(
        "fig7.peak",
        "peak activity month",
        Band::Within(MONTH_OPENAI_WAVE_START + 1, MONTH_OPENAI_WAVE_END),
        |r| month_of(&r.new_fqdns.months, peak(&r.abuse.openai_monthly_requests)),
    ),
    full(
        "fig7.wave_share",
        "share of volume in Jan–May 2023",
        Holds(
            Says("\"highly active until May 2023\""),
            |x| x > 0.5,
            "most volume falls in it",
        ),
        |r| {
            let s = &r.abuse.openai_monthly_requests;
            let wave: u64 = s[MONTH_OPENAI_WAVE_START..=MONTH_OPENAI_WAVE_END]
                .iter()
                .sum();
            let total = s.iter().sum::<u64>().max(1) as f64;
            valued(
                wave as f64 / total,
                format!("{:.1}%", 100.0 * wave as f64 / total),
            )
        },
    ),
    full(
        "fig7.requests",
        "total resale requests",
        Relative(Count(ABUSE_OPENAI_RESALE.requests, ""), 0.01, BUDGET),
        |r| count(r.abuse.openai_monthly_requests.iter().sum()),
    ),
    full(
        "fig7.functions",
        "resale functions",
        Relative(Count(ABUSE_OPENAI_RESALE.functions, ""), 0.01, MINTED),
        |r| count(case_functions(r, RESALE)),
    ),
    full(
        "finding5.tokens_keys",
        "tokens+keys share of findings",
        Binomial(Paper::Tenths(
            (SENSITIVE_TOKEN + SENSITIVE_API_KEY) as f64 / SENSITIVE_TOTAL as f64,
        )),
        |r| {
            let found = |k| r.abuse.sensitive.get(&k).copied().unwrap_or(0);
            let keys = found(SensitiveKind::AccessToken) + found(SensitiveKind::ApiKey);
            ratio(keys, r.abuse.sensitive_total)
        },
    ),
    full(
        "finding5.status_401",
        "401-protected functions",
        Binomial(Share(FRACTION_401)),
        |r| status(r, 401),
    ),
    full(
        "table3.corpus.size",
        "200-with-content corpus",
        Poisson(Count(PAPER_CONTENT_RICH, ""), DRAWN),
        |r| count(r.abuse.corpus_size as u64),
    ),
    full(
        "table3.corpus.json",
        "content mix JSON",
        Binomial(Share(CONTENT_MIX_JSON)),
        |r| mix(r, ContentType::Json),
    ),
    full(
        "table3.corpus.html",
        "content mix HTML",
        Binomial(Share(CONTENT_MIX_HTML)),
        |r| mix(r, ContentType::Html),
    ),
    full(
        "table3.corpus.plaintext",
        "content mix Plaintext",
        Binomial(Share(CONTENT_MIX_PLAIN)),
        |r| mix(r, ContentType::Plaintext),
    ),
    full(
        "table3.corpus.others",
        "content mix Others",
        Binomial(Share(CONTENT_MIX_OTHERS)),
        |r| mix(r, ContentType::Others),
    ),
    full(
        "table3.corpus.clusters",
        "clusters (review workload)",
        Poisson(Count(PAPER_CLUSTERS, ""), DRAWN),
        |r| count(r.abuse.clusters as u64),
    )
    .gap(
        "271",
        19.0,
        "each synthetic body carries its own fqdn, service or version, and in a corpus of \
         279 those tokens keep most pairs past the 0.1 cut",
    ),
    full(
        "table3.abused.share",
        "abused share of content-rich corpus",
        Binomial(Share(
            ABUSE_TOTAL_FUNCTIONS as f64 / PAPER_CONTENT_RICH as f64,
        )),
        |r| {
            let found = TABLE3_CASES
                .iter()
                .map(|(case, _)| case_functions(r, case))
                .sum();
            ratio(found, r.abuse.corpus_size as u64)
        },
    ),
    full(
        "table3.groups.largest",
        "largest group share",
        Binomial(Share(
            OPENAI_BIGGEST_GROUP as f64 / ABUSE_OPENAI_RESALE.functions as f64,
        )),
        |r| {
            let groups = &r.abuse.openai_groups;
            let first = groups.first().map_or(0, |(_, c)| *c);
            ratio(first as u64, groups.iter().map(|(_, c)| *c as u64).sum())
        },
    ),
    full(
        "table3.intel.flagged",
        "abused functions flagged by threat intel",
        Binomial(Paper::CountOf(4, ABUSE_TOTAL_FUNCTIONS)),
        |r| {
            let flagged = r.abuse.ti_flagged as u64;
            let m = ratio(flagged, r.abuse.ti_total_abused as u64)?;
            Some(Measured {
                text: format!("{flagged} ({})", m.text),
                ..m
            })
        },
    ),
    full(
        "table3.sensitive.items",
        "sensitive items detected",
        Relative(Count(SENSITIVE_TOTAL, ""), 0.01, MINTED),
        |r| count(r.abuse.sensitive_total),
    )
    .gap("12", 50.0, SENSITIVE_GAP),
];

/// Why the sensitive-item total sits above the paper's at small scales.
pub const SENSITIVE_GAP: &str = "each of the six categories is planted at least once (11 \
                                 items where 394 × 0.02 rounds to 8), and a proxy body's \
                                 egress IP adds a network identifier";
