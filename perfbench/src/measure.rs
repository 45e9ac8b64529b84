//! Process accounting and the statistics every workload shares:
//! `getrusage` CPU and context-switch deltas, VmHWM, the machine
//! fingerprint, percentiles, and the timed iteration loop.

use std::os::raw::c_int;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss` … `ru_nivcsw`).
#[repr(C)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

/// `cpu_set_t`: a 1024-bit CPU mask.
#[repr(C)]
struct CpuSet {
    bits: [u64; 16],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: c_int = -8;

/// A `getrusage(RUSAGE_SELF)` reading.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut raw = RawRusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            longs: [0; 14],
        };
        // SAFETY: `raw` is a properly sized, writable `struct rusage`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Usage {
            user_s: secs(&raw.utime),
            sys_s: secs(&raw.stime),
            // `ru_nvcsw` + `ru_nivcsw`.
            ctx_switches: (raw.longs[12] + raw.longs[13]) as u64,
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Wall time and resource use of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub wall_s: f64,
    pub usage: Usage,
    /// Host slowness while the phase ran: the calibration kernel's time
    /// over [`CALIBRATION_REF_S`] (1 = reference speed). Only
    /// [`measure_loop`] measures it; elsewhere it is 1.
    pub host: f64,
}

/// Run `f` and account its wall time and `getrusage` delta.
pub fn phase<T>(f: impl FnOnce() -> T) -> (T, Phase) {
    let u0 = Usage::now();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let usage = Usage::now().since(&u0);
    let host = 1.0;
    (
        out,
        Phase {
            wall_s,
            usage,
            host,
        },
    )
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restrict the whole process to the last CPU it may run on, so every
/// thread it starts shares one core (and `nproc` reads 1). Returns the
/// CPU index.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = CpuSet { bits: [0; 16] };
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `mask` is a writable cpu_set_t of `size` bytes.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| mask.bits[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("empty CPU mask")?;
    let mut one = CpuSet { bits: [0; 16] };
    one.bits[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of `size` bytes.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(cpu)
}

/// Let every thread allocate from one malloc arena. glibc sizes its
/// arena limit by the online CPUs, not by the affinity mask, so a
/// process pinned to one core still gives threads arenas of their own,
/// and how many pages those keep resident depends on which thread
/// allocated first: VmHWM of `probe_scan` wandered by ±15% from run to
/// run. On one core the arenas save no lock contention. Call it before
/// any thread starts.
pub fn one_malloc_arena() -> Result<(), String> {
    // SAFETY: `mallopt` only adjusts allocator parameters.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 1 {
        Ok(())
    } else {
        Err("mallopt(M_ARENA_MAX, 1) failed".into())
    }
}

/// Online cores: the cap on every worker knob.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host CPUs and the CPU model, for the report header.
pub fn machine() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let host_cpus = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    format!("host_cpus={host_cpus} cpu=\"{model}\"")
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending-sorted sample (0 if empty).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile of durations, in microseconds.
pub fn percentile_us(samples: &mut [Duration], p: f64) -> f64 {
    samples.sort_unstable();
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1].as_secs_f64() * 1e6
}

/// Percentile of whole-microsecond latencies (sorted ascending), read
/// as a continuous quantile: a latency truncated to `v` µs lies in
/// `[v, v+1)`, so the quantile is placed inside that interval by the
/// rank's position among the samples equal to `v`.
pub fn percentile_truncated_us(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let v = sorted[rank.min(sorted.len()) - 1];
    let below = sorted.partition_point(|&x| x < v);
    let at = sorted.partition_point(|&x| x <= v) - below;
    v as f64 + (rank - below) as f64 / at as f64
}

/// Median time of [`Calibrator::run`] on the host the bounds were set
/// on (2-vCPU Xeon VM, process pinned to one CPU).
pub const CALIBRATION_REF_S: f64 = 0.1;

/// A fixed workload that uses nothing from the system under test:
/// sorting and hashing in cache, then a thread ping-pong on the pinned
/// core. The system's own work is the same mix of computation and
/// thread hand-offs, so while the shared host runs slow (it drifts by
/// up to 2x over minutes on a busy VM) this kernel runs slow by about
/// as much, and dividing by its time removes most of the drift. Its
/// buffers are about 2 MB, a small constant in every run's VmHWM.
pub struct Calibrator {
    sort: Vec<u64>,
    map: std::collections::HashMap<u64, u32>,
}

impl Calibrator {
    const SORT: usize = 1 << 17;
    const KEYS: usize = 20_000;
    const PASSES: u64 = 4;
    const ROUND_TRIPS: u32 = 8_000;

    pub fn new() -> Calibrator {
        Calibrator {
            sort: vec![0; Self::SORT],
            map: std::collections::HashMap::with_capacity(Self::KEYS),
        }
    }

    /// Run the kernel once; returns its wall time in seconds.
    pub fn run(&mut self) -> f64 {
        use std::sync::{Arc, Condvar, Mutex};
        let turn = Arc::new((Mutex::new(0u32), Condvar::new()));
        let peer = Arc::clone(&turn);
        // The peer takes odd turns; `u32::MAX` ends the exchange.
        let ponger = std::thread::spawn(move || {
            let (lock, cv) = &*peer;
            let mut t = lock.lock().expect("calibration lock");
            loop {
                while *t % 2 == 0 {
                    t = cv.wait(t).expect("calibration lock");
                }
                if *t == u32::MAX {
                    return;
                }
                *t += 1;
                cv.notify_one();
            }
        });

        let start = Instant::now();
        for pass in 0..Self::PASSES {
            let mut x = 0x9e37_79b9_7f4a_7c15_u64 ^ pass;
            for v in self.sort.iter_mut() {
                x = xorshift(x);
                *v = x;
            }
            self.sort.sort_unstable();
            self.map.clear();
            for (i, v) in self
                .sort
                .iter()
                .step_by(Self::SORT / Self::KEYS)
                .enumerate()
            {
                self.map.insert(*v, i as u32);
            }
            std::hint::black_box(self.map.len());
        }
        let (lock, cv) = &*turn;
        let mut t = lock.lock().expect("calibration lock");
        for _ in 0..Self::ROUND_TRIPS {
            *t += 1;
            cv.notify_one();
            while *t % 2 == 1 {
                t = cv.wait(t).expect("calibration lock");
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        *t = u32::MAX;
        cv.notify_one();
        drop(t);
        ponger.join().expect("calibration thread panicked");
        elapsed
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

/// Run `iteration` back to back until `seconds` of wall time are used
/// (at least `min_runs` times), stopping early when the next run would
/// overshoot the budget by more than half a run. The calibration kernel
/// runs between iterations; each phase's `host` factor is the mean of
/// the kernel times before and after it. `what` labels the log lines.
pub fn measure_loop<T>(
    what: &str,
    seconds: f64,
    min_runs: usize,
    mut iteration: impl FnMut(usize) -> Result<(T, Phase), String>,
) -> Result<Vec<(T, Phase)>, String> {
    let mut calibrator = Calibrator::new();
    let start = Instant::now();
    let mut out: Vec<(T, Phase)> = Vec::new();
    let mut before = calibrator.run();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if out.len() >= min_runs {
            let typical = median(&out.iter().map(|(_, p)| p.wall_s).collect::<Vec<_>>());
            if elapsed + typical * 0.5 >= seconds {
                break;
            }
        }
        let (value, mut ph) = iteration(out.len())?;
        let after = calibrator.run();
        ph.host = (before + after) / 2.0 / CALIBRATION_REF_S;
        before = after;
        eprintln!(
            "[perfbench] {what} {}: wall {:.4} s, cpu {:.4} s, ctx {}, host {:.4}",
            out.len(),
            ph.wall_s,
            ph.usage.cpu_s(),
            ph.usage.ctx_switches,
            ph.host
        );
        out.push((value, ph));
    }
    Ok(out)
}

/// Run `setup` `times` times, calibrated like [`measure_loop`]'s
/// iterations; returns each set-up's phase.
pub fn measure_setups(
    times: usize,
    mut setup: impl FnMut() -> Result<Phase, String>,
) -> Result<Vec<Phase>, String> {
    let runs = measure_loop("setup", 0.0, times, |_| setup().map(|ph| ((), ph)))?;
    Ok(runs.into_iter().map(|(_, ph)| ph).collect())
}
