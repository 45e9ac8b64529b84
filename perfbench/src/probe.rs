//! `probe_scan`: the full §3–§5 pipeline (`fw_core::pipeline::Pipeline::run`)
//! on a live world — identify, usage, active probing, status, and the
//! abuse scan with C2 fingerprinting. Untraced iterations call
//! `Pipeline::run`; the traced iteration calls its public steps in
//! order, timing each `Prober::probe_one` and `C2Scanner::scan_one`,
//! and must reach the same Table 3 digest.

use crate::measure::{measure_loop, nproc, percentile_us, phase, Phase};
use crate::report::{Checks, Hex, Layer, Outcome};
use crate::RunConfig;
use fw_core::abusescan::{abuse_scan, AbuseScanConfig, Detection, DetectionKind};
use fw_core::identify::{identify_functions, IdentificationReport};
use fw_core::pipeline::{Pipeline, PipelineConfig};
use fw_core::status::{status_report, StatusReport};
use fw_core::usage::{ingress_table, invocation_report, monthly_new_fqdns, monthly_requests};
use fw_probe::c2probe::C2Scanner;
use fw_probe::prober::{ProbeOutcome, ProbeRecord, Prober};
use fw_types::fnv::{fnv1a, fold, update};
use fw_types::Fqdn;
use fw_workload::{World, WorldConfig};
use std::collections::HashSet;
use std::time::{Duration, Instant};

pub const SCALE: f64 = 0.006;
/// Pinned Table 3 digest at `SCALE`, seed 42 (identical at 1 and 2
/// probe/abuse workers).
const PINNED_SEED: u64 = 42;
const PINNED_DIGEST: u64 = 0xd305_9bf5_bf85_86fa;

fn setup(seed: u64) -> World {
    World::generate(WorldConfig {
        gen_workers: nproc(),
        ..WorldConfig::live(seed, SCALE)
    })
}

/// `fw_bench::pipeline_config` with every worker knob capped at `nproc`.
fn pipeline_config() -> PipelineConfig {
    let mut config = fw_bench::pipeline_config(false);
    config.probe.workers = config.probe.workers.min(nproc());
    config.abuse.workers = config.abuse.workers.min(nproc());
    config
}

/// What the traced and untraced paths must agree on: the probing
/// outcome of every function, the status breakdown, and the Table 3
/// inputs (corpus, clusters, every detection with its requests).
struct Table3Inputs<'a> {
    identification: &'a IdentificationReport,
    records: &'a [ProbeRecord],
    status: &'a StatusReport,
    corpus_size: usize,
    clusters: usize,
    sensitive_total: u64,
    detections: &'a [Detection],
}

fn digest(t: &Table3Inputs) -> u64 {
    let mut h = fnv1a(b"perfbench-probe-v1");
    h = fold(h, t.identification.functions.len() as u64);
    h = fold(h, t.identification.total_requests);
    for r in t.records {
        h = update(h, r.fqdn.as_str().as_bytes());
        h = fold(
            h,
            match &r.outcome {
                ProbeOutcome::Responded { https, response } => {
                    u64::from(response.status) << 1 | u64::from(*https)
                }
                ProbeOutcome::DnsFailure(_) => 1 << 20,
                ProbeOutcome::Unreachable { .. } => 2 << 20,
                ProbeOutcome::OptedOut => 3 << 20,
            },
        );
        h = fold(h, u64::from(r.requests_issued));
    }
    let s = t.status;
    for v in [
        s.probed,
        s.reachable,
        s.unreachable,
        s.dns_failures,
        s.https_ok,
        s.ok_with_content,
        s.ok_empty,
        s.opted_out,
    ] {
        h = fold(h, v);
    }
    let mut codes: Vec<(u16, u64)> = s.status_counts.iter().map(|(c, n)| (*c, *n)).collect();
    codes.sort_unstable();
    for (c, n) in codes {
        h = fold(fold(h, u64::from(c)), n);
    }
    h = fold(h, t.corpus_size as u64);
    h = fold(h, t.clusters as u64);
    h = fold(h, t.sensitive_total);
    let mut dets: Vec<(&str, &str, u64)> = t
        .detections
        .iter()
        .map(|d| {
            let requests = t
                .identification
                .find(&d.fqdn)
                .map_or(0, |f| f.agg.total_request_cnt);
            (d.fqdn.as_str(), d.kind.label(), requests)
        })
        .collect();
    dets.sort_unstable();
    for (fqdn, label, requests) in dets {
        h = update(update(h, fqdn.as_bytes()), label.as_bytes());
        h = fold(h, requests);
    }
    h
}

/// One untraced `Pipeline::run`; returns the digest and its phase.
fn untraced(world: &World) -> (u64, u64, Phase) {
    let pipeline = Pipeline::new(world.net.clone(), world.resolver.clone());
    let config = pipeline_config();
    let (report, ph) = phase(|| pipeline.run(&world.pdns, &config));
    let d = digest(&Table3Inputs {
        identification: &report.identification,
        records: &report.probe_records,
        status: &report.status,
        corpus_size: report.abuse.corpus_size,
        clusters: report.abuse.clusters,
        sensitive_total: report.abuse.sensitive_total,
        detections: &report.abuse.detections,
    });
    (d, report.probe_records.len() as u64, ph)
}

fn check_digest(checks: &mut Checks, seed: u64, got: u64, reference: u64) {
    checks.expect_eq("Table 3 digest vs first run", Hex(got), Hex(reference));
    if seed == PINNED_SEED {
        checks.expect_eq("Table 3 digest (pinned)", Hex(got), Hex(PINNED_DIGEST));
    }
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    if cfg.trace {
        return run_traced(cfg);
    }
    // Probing moves the live world's state (cold starts, billing), so
    // every iteration gets a freshly generated world: each set-up is
    // timed, and the set-up time is the median over iterations. A
    // set-up shares its iteration's host factor.
    let mut setups: Vec<Phase> = Vec::new();
    let runs = measure_loop("iteration", cfg.seconds, 3, |_| {
        let (world, ph) = phase(|| setup(cfg.seed));
        setups.push(ph);
        let (d, probed, ph) = untraced(&world);
        Ok(((d, probed), ph))
    })?;
    for (setup, (_, ph)) in setups.iter_mut().zip(&runs) {
        setup.host = ph.host;
    }
    let mut checks = Checks::default();
    for ((d, _), _) in &runs {
        check_digest(&mut checks, cfg.seed, *d, runs[0].0 .0);
    }
    let mut out = Outcome::new(checks);
    let measured: Vec<(u64, Phase)> = runs.iter().map(|((_, n), p)| (*n, *p)).collect();
    out.end_to_end(&setups, &measured);
    knobs(&mut out);
    Ok(out)
}

fn knobs(out: &mut Outcome) {
    let config = pipeline_config();
    out.knob("scale", SCALE);
    out.knob("probe_workers", config.probe.workers);
    out.knob("abuse_workers", config.abuse.workers);
    out.knob("probe_timeout_ms", config.probe.timeout.as_millis());
    out.knob("gen_workers", nproc());
}

/// `f` over `items` on `workers` clock-registered threads, round-robin
/// like `Prober::probe_all` / `C2Scanner::scan_parallel`; returns the
/// results in input order and each call's wall time.
fn timed_pool<T: Send>(
    world: &World,
    items: &[Fqdn],
    workers: usize,
    f: &(dyn Fn(&Fqdn) -> T + Sync),
) -> (Vec<T>, Vec<Duration>) {
    let workers = workers.clamp(1, items.len().max(1));
    let registrations: Vec<_> = (0..workers).map(|_| world.net.clock().register()).collect();
    let parts: Vec<Vec<(usize, T, Duration)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = registrations
            .into_iter()
            .enumerate()
            .map(|(w, registration)| {
                scope.spawn(move || {
                    let _active = registration.map(|r| r.activate());
                    items
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(i, item)| {
                            let t = Instant::now();
                            let out = f(item);
                            (i, out, t.elapsed())
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool workers do not panic"))
            .collect()
    });
    let mut indexed: Vec<(usize, T, Duration)> = parts.into_iter().flatten().collect();
    indexed.sort_by_key(|(i, _, _)| *i);
    let times = indexed.iter().map(|(_, _, d)| *d).collect();
    (indexed.into_iter().map(|(_, t, _)| t).collect(), times)
}

fn counter(name: &str) -> u64 {
    fw_obs::registry().counter(name).get()
}

fn run_traced(cfg: &RunConfig) -> Result<Outcome, String> {
    let (reference, probed, untraced_phase) = untraced(&setup(cfg.seed));
    let world = setup(cfg.seed);
    let config = pipeline_config();
    fw_obs::set_enabled(true);
    let counters = [
        "fw.http.conn.dialed",
        "fw.http.conn.reused",
        "fw.net.connections",
    ];
    let before: Vec<u64> = counters.iter().map(|c| counter(c)).collect();

    let mut steps: Vec<(&'static str, f64)> = Vec::new();
    let mut step = |name: &'static str, t: Instant| steps.push((name, t.elapsed().as_secs_f64()));
    let (traced, ph) = phase(|| {
        let t = Instant::now();
        let identification = identify_functions(&world.pdns);
        step("identify.functions_s", t);
        let t = Instant::now();
        let tables = (
            monthly_new_fqdns(&identification),
            monthly_requests(&identification, &world.pdns),
            ingress_table(&identification, &world.pdns),
            invocation_report(&identification),
        );
        step("usage.tables_s", t);
        drop(tables);

        let t = Instant::now();
        let prober = Prober::new(
            world.net.clone(),
            world.resolver.clone(),
            config.probe.clone(),
        );
        let (records, probe_times) = timed_pool(
            &world,
            &identification.probe_scope(),
            config.probe.workers,
            &|fqdn| prober.probe_one(fqdn),
        );
        step("probe.probe_all_s", t);
        let t = Instant::now();
        let status = status_report(&records);
        step("probe.status_s", t);

        // `abuse_scan` minus its C2 step, then the C2 step by hand with
        // the same scanner, candidates, partition and merge rule.
        let t = Instant::now();
        let content_only = AbuseScanConfig {
            scan_c2: false,
            ..config.abuse.clone()
        };
        let abuse = abuse_scan(
            &records,
            &identification,
            &world.pdns,
            &world.net,
            &world.resolver,
            &content_only,
        );
        step("abuse.scan_s", t);
        let t = Instant::now();
        let scanner = C2Scanner::new(world.net.clone(), world.resolver.clone())
            .with_timeout(config.abuse.c2_timeout);
        let candidates: Vec<Fqdn> = records
            .iter()
            .filter(|r| r.outcome.is_reachable())
            .map(|r| r.fqdn.clone())
            .collect();
        let (hits, c2_times) = timed_pool(&world, &candidates, config.abuse.workers, &|fqdn| {
            scanner.scan_one(fqdn)
        });
        let mut detections = abuse.detections.clone();
        let mut detected: HashSet<Fqdn> = detections.iter().map(|d| d.fqdn.clone()).collect();
        for hit in hits.into_iter().flatten() {
            if detected.insert(hit.fqdn.clone()) {
                detections.push(Detection {
                    fqdn: hit.fqdn,
                    kind: DetectionKind::C2 { family: hit.family },
                });
            }
        }
        step("abuse.c2_scan_s", t);
        let d = digest(&Table3Inputs {
            identification: &identification,
            records: &records,
            status: &status,
            corpus_size: abuse.corpus_size,
            clusters: abuse.clusters,
            sensitive_total: abuse.sensitive_total,
            detections: &detections,
        });
        (d, records.len() as u64, probe_times, c2_times)
    });
    let (d, traced_probed, mut probe_times, mut c2_times) = traced;
    let after: Vec<u64> = counters.iter().map(|c| counter(c)).collect();
    fw_obs::set_enabled(false);

    let mut checks = Checks::default();
    check_digest(&mut checks, cfg.seed, reference, reference);
    check_digest(&mut checks, cfg.seed, d, reference);
    let moves = |name: &str| match name {
        "identify.functions_s" | "usage.tables_s" => "wall_s cpu_s",
        _ => "wall_s",
    };
    let layers = steps
        .iter()
        .map(|(name, s)| Layer {
            name,
            busy_s: *s,
            threads: 1.0,
            moves: moves(name),
        })
        .collect();
    let mut out = Outcome::new(checks);
    out.attempted = probed + traced_probed;
    out.traced(&ph, untraced_phase.wall_s, layers);
    out.set(
        "probe.probe_one_p50_us",
        percentile_us(&mut probe_times, 50.0),
    );
    out.set(
        "probe.probe_one_p99_us",
        percentile_us(&mut probe_times, 99.0),
    );
    out.set(
        "abuse.c2_scan_one_p50_us",
        percentile_us(&mut c2_times, 50.0),
    );
    out.set(
        "abuse.c2_scan_one_p99_us",
        percentile_us(&mut c2_times, 99.0),
    );
    for ((name, b), a) in ["http.conn_dialed", "http.conn_reused", "net.connections"]
        .into_iter()
        .zip(before)
        .zip(after)
    {
        out.set(name, (a - b) as f64);
    }
    eprintln!("[probe] Table 3 digest {d:016x} ({traced_probed} functions probed)");
    knobs(&mut out);
    Ok(out)
}
