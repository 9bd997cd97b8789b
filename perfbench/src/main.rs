//! End-to-end and per-layer benchmark of the h2push replay testbed.
//!
//! ```text
//! perfbench --workload <paper-realworld|lossy-sweep|live-loopback>
//!           --seed <n> --seconds <n> --trace <0|1> [--queue-cap <bytes>]
//! ```
//!
//! Each run sets its workload up five times (the median is `setup_s`),
//! then issues whole rounds of loads for `--seconds`, checks every output,
//! and prints one JSON line last: the verdict, loads attempted and failed,
//! and the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). A host-calibration line precedes it. See
//! README.md for the workloads, metrics and reference figures.

mod alloc;
mod calib;
mod checks;
mod hostspeed;
mod layers;
mod live_wl;
mod lossy;
mod micro;
mod realworld;
mod report;
mod spans;
mod sys;

use report::{median, percentile, RunResult};
use spans::Spans;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperRealworld,
    LossySweep,
    LiveLoopback,
}

impl Workload {
    const ALL: [(&'static str, Workload); 3] = [
        ("paper-realworld", Workload::PaperRealworld),
        ("lossy-sweep", Workload::LossySweep),
        ("live-loopback", Workload::LiveLoopback),
    ];

    fn name(self) -> &'static str {
        Self::ALL.iter().find(|(_, w)| *w == self).map(|(n, _)| *n).expect("listed")
    }
}

/// A run's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// live-loopback only: the servers' `max_queued_bytes` (default: the
    /// program's own), for reproducing the queue-cap stall.
    pub queue_cap: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut queue_cap = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::ALL.iter().find(|(n, _)| n == v).map(|(_, w)| *w);
                workload = Some(w.ok_or_else(|| {
                    format!(
                        "unknown workload {v:?} (expected paper-realworld, lossy-sweep or live-loopback)"
                    )
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|_| format!("--seed {v:?} is not a u64"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s = v.parse::<u64>().ok().filter(|s| (1..=3600).contains(s));
                seconds = Some(s.ok_or_else(|| format!("--seconds {v:?} is not 1..=3600"))?);
            }
            "--trace" => {
                let v = value()?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v:?} is not 0 or 1")),
                });
            }
            "--queue-cap" => {
                let v = value()?;
                let c = v.parse::<usize>().ok().filter(|&c| c > 0);
                queue_cap =
                    Some(c.ok_or_else(|| format!("--queue-cap {v:?} is not a byte count"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: Duration::from_secs(seconds.unwrap_or(10)),
        trace: trace.unwrap_or(false),
        queue_cap,
    })
}

/// Where a run leaves its journals and span dumps, inside the checkout.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        fail(&format!("cannot create {}: {e}", dir.display()));
    }
    dir
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

/// SplitMix64: a well-mixed 64-bit value from `x`, for deriving
/// independent per-load seeds from the run's seed.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Time from the start of a load to its first pushed resource loaded: sim
/// ms in a replay, wall ms in a live load (both clocks start at 0).
pub fn first_push_ms(load: &h2push_browser::LoadResult) -> Option<f64> {
    let first = load.waterfall.iter().filter(|t| t.pushed).filter_map(|t| t.loaded).min();
    first.map(|t| t.as_millis_f64())
}

/// Wall and process CPU time since `start`.
#[derive(Clone, Copy)]
pub struct Stopwatch {
    t: Instant,
    cpu: Duration,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch { t: Instant::now(), cpu: sys::process_cpu() }
    }

    /// (wall s, CPU s) so far.
    pub fn read(&self) -> (f64, f64) {
        (self.t.elapsed().as_secs_f64(), (sys::process_cpu() - self.cpu).as_secs_f64())
    }
}

/// A time, the CPU time spent in it, and the host-speed factor sampled
/// among or right after it; scaled, the CPU part counts `factor` times.
#[derive(Debug, Clone, Copy)]
pub struct HostTime {
    pub ms: f64,
    pub cpu_ms: f64,
    pub factor: f64,
}

impl HostTime {
    /// A simulated time: no host CPU time, nothing to scale.
    pub fn sim(ms: f64) -> HostTime {
        HostTime { ms, cpu_ms: 0.0, factor: 1.0 }
    }

    pub fn scaled(&self) -> f64 {
        self.ms + self.cpu_ms * (self.factor - 1.0)
    }
}

/// The set-up timed by `sw` has just ended.
pub fn setup_done(sw: Stopwatch) -> HostTime {
    let (s, cpu_s) = sw.read();
    HostTime { ms: s * 1e3, cpu_ms: cpu_s * 1e3, factor: hostspeed::after_setup() }
}

/// One timed round: its wall and process CPU time, the loads it completed
/// with their times and the CPU parts of those, and the host-speed factor
/// sampled among them.
pub struct Round {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub loads: usize,
    pub load_ms: Vec<(f64, f64)>,
    pub factor: f64,
}

/// Times one round: `start` before its first load, `record` after each
/// completed load (which also takes a host-speed slice), `finish` after
/// its last. The slices' own time is left out of the round's.
pub struct RoundClock {
    sw: Stopwatch,
    loads: usize,
    load_ms: Vec<(f64, f64)>,
    slices: hostspeed::Slices,
}

impl RoundClock {
    pub fn start() -> RoundClock {
        RoundClock {
            sw: Stopwatch::start(),
            loads: 0,
            load_ms: Vec::new(),
            slices: hostspeed::Slices::default(),
        }
    }

    /// A completed sample of `loads` loads that took `ms` each, `cpu_ms`
    /// of it CPU time.
    pub fn record(&mut self, ms: f64, cpu_ms: f64, loads: usize) {
        self.load_ms.push((ms, cpu_ms));
        self.loads += loads;
        self.slices.take();
    }

    pub fn finish(self) -> Round {
        let (wall_s, cpu_s) = self.sw.read();
        Round {
            wall_s: wall_s - self.slices.wall_ms / 1e3,
            cpu_s: cpu_s - self.slices.cpu_ms / 1e3,
            loads: self.loads,
            load_ms: self.load_ms,
            factor: self.slices.factor(),
        }
    }
}

/// The end-to-end metrics every workload reports from its timed phase.
/// Every host time is scaled (`HostTime::scaled`) by the host-speed
/// factor sampled among the loads or right after the set-up it covers
/// (`hostspeed`); the unscaled figures go to stderr.
pub struct EndToEnd {
    pub setups: Vec<HostTime>,
    pub rounds: Vec<Round>,
    /// Sim ms (simulated workloads) or wall ms (live).
    pub first_push_ms: Vec<HostTime>,
}

impl EndToEnd {
    pub fn emit(&self, r: &mut RunResult) {
        let setup: Vec<f64> = self.setups.iter().map(|x| x.scaled() / 1e3).collect();
        let setup_raw: Vec<f64> = self.setups.iter().map(|x| x.ms / 1e3).collect();
        eprintln!("perfbench: set-ups took {setup_raw:.3?} s");
        let mut load_ms = Vec::new();
        let mut load_ms_raw = Vec::new();
        for x in &self.rounds {
            for &(ms, cpu_ms) in &x.load_ms {
                load_ms.push(HostTime { ms, cpu_ms, factor: x.factor }.scaled());
                load_ms_raw.push(ms);
            }
        }
        let sum = |f: &dyn Fn(&Round) -> f64| self.rounds.iter().map(f).sum::<f64>();
        let loads = sum(&|x| x.loads as f64);
        let wall = sum(&|x| x.wall_s + x.cpu_s * (x.factor - 1.0));
        let (wall_raw, cpu_raw) = (sum(&|x| x.wall_s), sum(&|x| x.cpu_s));
        let cpu = sum(&|x| x.cpu_s * x.factor);
        let factors: Vec<f64> = self.rounds.iter().map(|x| x.factor).collect();
        eprintln!(
            "perfbench: unscaled: {:.1} loads/s, {:.3} CPU ms/load, load ms p50 {:.3} p99 {:.3}, \
             setup {:.3} s; host-speed factor p25/p50/p75 {:.3}/{:.3}/{:.3} over {} rounds",
            loads / wall_raw,
            cpu_raw * 1e3 / loads,
            median(&load_ms_raw),
            percentile(&load_ms_raw, 99.0),
            median(&setup_raw),
            percentile(&factors, 25.0),
            median(&factors),
            percentile(&factors, 75.0),
            self.rounds.len(),
        );
        r.metric("throughput_per_s", loads / wall, "1/s");
        r.metric("cpu_ms_per_load", cpu * 1e3 / loads, "ms");
        r.metric("load_ms.p50", median(&load_ms), "ms");
        r.metric("load_ms.p99", percentile(&load_ms, 99.0), "ms");
        // A mean, not a median: in testbed mode most loads of a page reach
        // their first push at the same simulated instant, so the median
        // read the same on every seed.
        let pushes = self.first_push_ms.len() as f64;
        let first_push = self.first_push_ms.iter().map(HostTime::scaled).sum::<f64>();
        r.metric("first_push_ms.mean", first_push / pushes, "ms");
        r.metric("setup_s", median(&setup), "s");
        r.metric("peak_rss_mb", sys::peak_rss_mb(), "MB");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args).unwrap_or_else(|e| fail(&e));
    // One worker thread: the simulated workloads replay on the calling
    // thread, so a run's figures do not depend on how many cores the host
    // lends it at that moment.
    h2push_testbed::set_worker_threads(Some(1));
    println!("{}", calib::probe().to_json());
    // The whole run on one CPU, the one it is on now. The live client and
    // every server thread hand off on one core instead of waking an idle
    // virtual CPU, which on the reference host moved throughput between
    // runs by up to 2.5x (README); the simulated replays keep their caches;
    // and the host-speed reference samples the CPU the loads ran on.
    if sys::pin_to_current_cpu().is_none() {
        eprintln!("perfbench: could not pin to one CPU; figures may spread more");
    }
    let mut spans = Spans::new(opts.trace);
    let result = match opts.workload {
        Workload::PaperRealworld => realworld::run(&opts, &mut spans),
        Workload::LossySweep => lossy::run(&opts, &mut spans),
        Workload::LiveLoopback => live_wl::run(&opts, &mut spans),
    };
    if spans.is_on() {
        let path = out_dir().join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
        if let Err(e) = std::fs::write(&path, spans.to_json()) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
        eprintln!("perfbench: {} spans written to {}", spans.len(), path.display());
    }
    for v in result.violations.iter().take(20) {
        eprintln!("perfbench: check failed: {v}");
    }
    if result.violations.len() > 20 {
        eprintln!("perfbench: ... {} failed checks in all", result.violations.len());
    }
    println!("{}", result.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o =
            parse_args(&args("--workload lossy-sweep --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(o.workload, Workload::LossySweep);
        assert_eq!((o.seed, o.seconds, o.trace), (7, Duration::from_secs(12), true));
    }

    #[test]
    fn bad_arguments_are_one_line_errors() {
        for bad in [
            "",
            "--workload nope",
            "--workload live-loopback --seed -3",
            "--workload live-loopback --seconds 0",
            "--workload live-loopback --trace 2",
            "--workload live-loopback --frobnicate",
            "--workload live-loopback --queue-cap 0",
            "--workload",
        ] {
            let e = parse_args(&args(bad)).expect_err(bad);
            assert!(!e.contains('\n'), "{e}");
        }
    }
}
