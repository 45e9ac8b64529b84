//! The paper anchors, judged. Every row of `fw_bench::anchors::ANCHORS`
//! and every paper cell of Tables 2 and 3 and Finding 5 is read from the
//! report its binary builds at the binary's default scale and seed 42,
//! then held to its band: a row in band must stay in it, and a `Limit`
//! or `Gap` row must print exactly its pinned value and stay out of band,
//! so that a fix or a regression shows.

use fw_bench::anchors::{inventory_text, FINDING5_KINDS, SENSITIVE_GAP, TABLE3_CASES};
use fw_bench::anchors::{Band, Measured, Paper, Source, State, ANCHORS, K};
use fw_bench::{paper_scaled, Cli};
use fw_core::pipeline::{FullReport, UsageReport};
use fw_core::report::{pct, thousands};
use fw_workload::calib;
use std::sync::OnceLock;

/// `fig3_monthly`, `fig4_trends`, `fig5_requests` and `table2_ingress`.
const USAGE_SCALE: f64 = 0.05;
/// `fig6_status`, `fig7_openai`, `finding5_sensitive` and `table3_abuse`.
const FULL_SCALE: f64 = 0.02;

fn cli(scale: f64) -> Cli {
    // `Cli::parse` would read the test harness's argv.
    Cli {
        scale,
        seed: 42,
        tsv: false,
        snapshot: None,
        gen_workers: 0,
        flags: Vec::new(),
    }
}

fn usage() -> &'static UsageReport {
    static REPORT: OnceLock<UsageReport> = OnceLock::new();
    REPORT.get_or_init(|| fw_bench::run_usage(&cli(USAGE_SCALE)).1)
}

fn full() -> &'static FullReport {
    static REPORT: OnceLock<FullReport> = OnceLock::new();
    REPORT.get_or_init(|| fw_bench::run_full(&cli(FULL_SCALE)).1)
}

/// How far `m` sits from the paper value in `band`'s unit, and the most
/// the band allows; `None` for bands that only say yes or no.
fn distance(band: Band, m: &Measured, scale: f64) -> Option<(f64, f64)> {
    let off = |e: f64| (m.value - e).abs();
    let in_errors = |dev: f64, se: f64| match dev {
        0.0 => 0.0,
        _ if se > 0.0 => dev / se,
        _ => f64::INFINITY,
    };
    Some(match band {
        Band::Binomial(paper) => {
            let p = match paper {
                Paper::Share(p) | Paper::Tenths(p) => p,
                Paper::CountOf(k, of) => k as f64 / of as f64,
                other => panic!("no share in {other:?}"),
            };
            let se = (p * (1.0 - p) / m.n.max(1) as f64).sqrt();
            (in_errors(off(p), se), K)
        }
        Band::Poisson(Paper::Count(n, _) | Paper::Approx(n), _) => {
            let lambda = n as f64 * scale;
            (in_errors(off(lambda), lambda.sqrt()), K)
        }
        Band::Relative(Paper::Count(n, _) | Paper::Approx(n), tol, _) => {
            let e = paper_scaled(n, scale) as f64;
            (100.0 * off(e) / e, 100.0 * tol)
        }
        Band::Relative(Paper::Mean(x), tol, _) => (100.0 * off(x) / x, 100.0 * tol),
        Band::Exact(Paper::Month(i)) => (off(i as f64), 0.0),
        _ => return None,
    })
}

/// Does `m` sit in `band` at `scale`? The models are the ones
/// [`Band`]'s variants state.
fn holds(band: Band, m: &Measured, scale: f64) -> bool {
    if let Some((off, most)) = distance(band, m, scale) {
        return off <= most;
    }
    match band {
        Band::Exact(Paper::Inventory(n)) => m.text == inventory_text(n),
        Band::Exact(paper) => m.text == paper.text(scale),
        Band::Within(a, b) => (a as f64..=b as f64).contains(&m.value),
        Band::Holds(_, test, _) => test(m.value),
        band => panic!("no model judges {band:?}"),
    }
}

/// Judge one reading against its band and state; `Err` says why not.
fn judge(id: &str, band: Band, state: State, m: &Measured, scale: f64) -> Result<(), String> {
    let in_band = holds(band, m, scale);
    let paper = band.paper_text(scale);
    match state {
        State::InBand if in_band => Ok(()),
        State::InBand => Err(format!(
            "{id}: measured {} is out of band around paper {paper} ({band:?}, n = {})",
            m.text, m.n
        )),
        State::Limit(pinned, off, why) | State::Gap(pinned, off, why) => {
            assert!(!why.is_empty(), "{id}: a limit or gap states its cause");
            let (now, _) = distance(band, m, scale)
                .unwrap_or_else(|| panic!("{id}: a pinned row needs a band with a distance"));
            if m.text != pinned || format!("{now:.1}") != format!("{off:.1}") {
                Err(format!(
                    "{id}: measured {} at {now:.1} from paper {paper} moved from its pinned \
                     {pinned} at {off:.1}",
                    m.text
                ))
            } else if in_band {
                Err(format!("{id}: {pinned} is now in band: drop its {state:?}"))
            } else {
                Ok(())
            }
        }
    }
}

fn check_all(checks: impl Iterator<Item = Result<(), String>>) {
    let failures: Vec<String> = checks.filter_map(Result::err).collect();
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn every_anchor_row_is_in_band_or_pinned_with_its_cause() {
    check_all(ANCHORS.iter().map(|a| {
        let (src, scale) = match a.read {
            fw_bench::anchors::Read::Inventory(_) => (Source::Inventory, 1.0),
            fw_bench::anchors::Read::Usage(_) => (Source::Usage(usage()), USAGE_SCALE),
            fw_bench::anchors::Read::Full(_) => (Source::Full(full()), FULL_SCALE),
        };
        let m = a
            .measure(src)
            .unwrap_or_else(|| panic!("{}: nothing measured at seed 42", a.id));
        println!("{:<26} {}", a.id, a.line(&m, scale));
        judge(a.id, a.band, a.state, &m, scale)
    }));
}

#[test]
fn anchor_ids_are_unique_and_name_a_binary() {
    let sections = [
        "table1.",
        "fig3.",
        "fig4.",
        "fig5.",
        "fig6.",
        "fig7.",
        "finding5.",
    ];
    let table3 = ["corpus.", "abused.", "groups.", "intel.", "sensitive."];
    let mut ids: Vec<&str> = ANCHORS.iter().map(|a| a.id).collect();
    for id in &ids {
        let in_table3 = id
            .strip_prefix("table3.")
            .is_some_and(|rest| table3.iter().any(|s| rest.starts_with(s)));
        assert!(
            in_table3 || sections.iter().any(|s| id.starts_with(s)),
            "{id} names no printed section"
        );
    }
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), ANCHORS.len(), "duplicate anchor ids");
    // The 44 paper-vs-measured lines of the figure and table binaries,
    // and Table 1's inventory.
    assert_eq!(ANCHORS.len(), 45);
}

/// Paper cells out of band at seed 42, each with its measured value as
/// printed and its cause.
const CELL_STATES: &[(&str, State)] = &[
    (
        "table2.Aliyun.top10_a",
        State::Limit("100.00%", 650.8, SMALL_POOL),
    ),
    (
        "table2.Tencent.top10_a",
        State::Limit("100.00%", 40.4, SMALL_POOL),
    ),
    (
        "table2.Oracle.top10_a",
        State::Limit("100.00%", 274.6, SMALL_POOL),
    ),
    (
        "table2.AWS.top10_a",
        State::Gap(
            "5.16%",
            926.2,
            "the scaled pool holds 546 addresses instead of 10,914, so its ten busiest \
             carry more of the traffic",
        ),
    ),
    ("table2.Google2.a", State::Gap("66.81%", 4.3, ROUNDED_SPLIT)),
    (
        "table2.Google2.aaaa",
        State::Gap("33.19%", 4.3, ROUNDED_SPLIT),
    ),
    ("table2.IBM.a", State::Gap("14.08%", 9.5, ROUNDED_SPLIT)),
    ("table2.IBM.cname", State::Gap("85.81%", 3.9, ROUNDED_SPLIT)),
    ("table2.IBM.aaaa", State::Gap("0.11%", 10.7, ROUNDED_SPLIT)),
    (
        "table3.TOTAL.functions",
        State::Gap(
            "16",
            33.3,
            "each of the eight cases is planted at least once, so their rounded counts \
             sum to 16 where 594 × 0.02 rounds to 12",
        ),
    ),
    (
        "finding5.network identifier",
        State::Gap(
            "4",
            33.3,
            "a proxy body's egress IP is a network identifier too",
        ),
    ),
    ("finding5.TOTAL", State::Gap("12", 50.0, SENSITIVE_GAP)),
];

const SMALL_POOL: &str = "the pool scales to at most ten addresses, which then carry all of \
                          the traffic";
const ROUNDED_SPLIT: &str = "the generator splits each day's count by the rtype shares and \
                             rounds, which biases providers whose days hold few requests";
const MINTED: &str = "planted: the generator plants round(paper × scale), at least one";
const BUDGET: &str = "budgeted: the generator spreads ⌊paper × scale⌋ requests in whole \
                      requests";

struct Cell {
    id: String,
    band: Band,
    m: Measured,
}

fn cell(id: String, band: Band, value: f64, n: u64, text: String) -> Cell {
    Cell {
        id,
        band,
        m: Measured { value, n, text },
    }
}

fn count(id: String, full: u64, why: &'static str, measured: u64, text: String) -> Cell {
    let band = Band::Relative(Paper::Count(full, ""), 0.01, why);
    cell(id, band, measured as f64, 0, text)
}

/// Table 2's calib columns: domains, requests, rtype shares, A pool size
/// and A Top10, per provider.
fn table2_cells(r: &UsageReport) -> Vec<Cell> {
    let mut cells = Vec::new();
    for c in &calib::PROVIDERS {
        let row = r
            .ingress
            .iter()
            .find(|row| row.provider == c.provider)
            .expect("every calibrated provider has a Table 2 row");
        let id = |col: &str| format!("table2.{}.{col}", c.provider.label());
        let requests = row.total_requests;
        cells.push(count(
            id("domains"),
            c.domains,
            MINTED,
            row.domains,
            thousands(row.domains),
        ));
        cells.push(count(
            id("requests"),
            c.total_requests,
            BUDGET,
            requests,
            thousands(requests),
        ));
        let shares = [
            ("a", c.rtype_share.0, row.rtype_share.0),
            ("cname", c.rtype_share.1, row.rtype_share.1),
            ("aaaa", c.rtype_share.2, row.rtype_share.2),
        ];
        for (col, paper, measured) in shares {
            let band = Band::Binomial(Paper::Share(paper));
            cells.push(cell(id(col), band, measured, requests, pct(measured)));
        }
        let pool = row.rdata_cnt.0;
        let why = "the A pool holds round(paper × scale) addresses and the feed draws each";
        cells.push(count(
            id("rdata_a"),
            c.rdata_pool.0.into(),
            why,
            pool,
            pool.to_string(),
        ));
        let a_requests = (requests as f64 * row.rtype_share.0).round() as u64;
        let band = Band::Binomial(Paper::Share(c.top10.0));
        cells.push(cell(
            id("top10_a"),
            band,
            row.top10.0,
            a_requests,
            pct(row.top10.0),
        ));
    }
    cells
}

/// Table 3's paper column (functions and requests per case and in
/// total) and Finding 5's (items per category and in total).
fn table3_and_finding5_cells(r: &FullReport) -> Vec<Cell> {
    let mut cells = Vec::new();
    let (mut functions, mut requests) = (0, 0);
    for (case, paper) in TABLE3_CASES {
        let row = r.abuse.table3.iter().find(|row| row.case == case);
        let (f, q) = row.map_or((0, 0), |row| (row.functions, row.requests));
        functions += f;
        requests += q;
        let id = |col: &str| format!("table3.{case}.{col}");
        cells.push(count(
            id("functions"),
            paper.functions,
            MINTED,
            f,
            f.to_string(),
        ));
        cells.push(count(
            id("requests"),
            paper.requests,
            BUDGET,
            q,
            thousands(q),
        ));
    }
    let (id_f, id_q) = ("table3.TOTAL.functions", "table3.TOTAL.requests");
    let total_f = calib::ABUSE_TOTAL_FUNCTIONS;
    cells.push(count(
        id_f.into(),
        total_f,
        MINTED,
        functions,
        functions.to_string(),
    ));
    let total_q = calib::ABUSE_TOTAL_REQUESTS;
    cells.push(count(
        id_q.into(),
        total_q,
        BUDGET,
        requests,
        thousands(requests),
    ));
    for (kind, paper) in FINDING5_KINDS {
        let found = r.abuse.sensitive.get(&kind).copied().unwrap_or(0);
        let id = format!("finding5.{}", kind.label());
        cells.push(count(id, paper, MINTED, found, found.to_string()));
    }
    let total = r.abuse.sensitive_total;
    let id = "finding5.TOTAL".to_string();
    cells.push(count(
        id,
        calib::SENSITIVE_TOTAL,
        MINTED,
        total,
        total.to_string(),
    ));
    cells
}

#[test]
fn table_paper_columns_are_in_band_or_pinned_with_their_cause() {
    let cells = table2_cells(usage())
        .into_iter()
        .map(|c| (c, USAGE_SCALE))
        .chain(
            table3_and_finding5_cells(full())
                .into_iter()
                .map(|c| (c, FULL_SCALE)),
        );
    let cells: Vec<(Cell, f64)> = cells.collect();
    for (id, _) in CELL_STATES {
        assert!(cells.iter().any(|(c, _)| c.id == *id), "no cell {id}");
    }
    check_all(cells.iter().map(|(c, scale)| {
        let state = CELL_STATES
            .iter()
            .find(|(id, _)| *id == c.id)
            .map_or(State::InBand, |(_, s)| *s);
        judge(&c.id, c.band, state, &c.m, *scale)
    }));
}

#[test]
fn bands_widen_with_the_error_their_sample_implies() {
    let share = |value: f64, n: u64| Measured {
        value,
        n,
        text: String::new(),
    };
    let half = Band::Binomial(Paper::Share(0.5));
    // 3 SE at n = 100 is 15 points; at n = 100,000 it is 0.47.
    assert!(holds(half, &share(0.6, 100), 1.0));
    assert!(!holds(half, &share(0.6, 100_000), 1.0));
    let drawn = Band::Poisson(Paper::Count(10_000, ""), "drawn");
    // λ = 100 at scale 0.01: 3·√100 = 30 either side.
    assert!(holds(drawn, &share(129.0, 0), 0.01));
    assert!(!holds(drawn, &share(131.0, 0), 0.01));
}
