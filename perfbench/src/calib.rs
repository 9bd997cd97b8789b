//! Host calibration printed with every run, so that a reading taken on a
//! contended host can be recognised: the cores the OS reports, the cores
//! two spinning threads actually get, and the rate of a fixed
//! single-thread loop.

use crate::sys::thread_cpu;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SPIN: Duration = Duration::from_millis(300);
const CALIB_ITERS: u64 = 50_000_000;

pub struct Host {
    pub nproc: usize,
    pub effective_cores: f64,
    pub calib_mops: f64,
}

impl Host {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\": {{\"nproc\": {}, \"effective_cores\": {:.3}, \"calib_mops\": {:.1}}}}}",
            self.nproc, self.effective_cores, self.calib_mops
        )
    }
}

/// CPU seconds two threads get while each spins for [`SPIN`] of wall
/// time, divided by that wall time.
fn effective_cores() -> f64 {
    let t0 = Instant::now();
    let cpu: f64 = std::thread::scope(|s| {
        let spinners: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let c0 = thread_cpu();
                    let start = Instant::now();
                    let mut x = 1u64;
                    while start.elapsed() < SPIN {
                        for _ in 0..1000 {
                            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                        }
                    }
                    (thread_cpu() - c0).as_secs_f64()
                })
            })
            .collect();
        spinners.into_iter().map(|h| h.join().expect("spin thread")).sum()
    });
    cpu / t0.elapsed().as_secs_f64()
}

/// Millions of iterations per second of a fixed dependent-multiply loop.
fn calib_mops() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    for _ in 0..CALIB_ITERS {
        x = black_box(x ^ (x << 13)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    black_box(x);
    CALIB_ITERS as f64 / t.elapsed().as_secs_f64() / 1e6
}

pub fn probe() -> Host {
    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        effective_cores: effective_cores(),
        calib_mops: calib_mops(),
    }
}
