//! Host speed, sampled by a short fixed reference computation (a "slice")
//! that runs on the run's pinned CPU right after every timed load and
//! after every set-up.
//!
//! The reference host's speed is not steady: over minutes the same replay
//! took from 4.6 to 11.6 ms of CPU time, in stretches that outlast a whole
//! run, and within a run it changes from one second to the next, so no
//! statistic inside one run removes it. The factor `NOMINAL_MS / slice
//! time`, over the slices taken among the loads a time covers, turns the
//! CPU part of that time into what it would have been on a host where a
//! slice takes `NOMINAL_MS`; the rest of the time (waiting on sockets or
//! timers) is left as it is. The slice is the benchmark's own code (hashing
//! freshly allocated path strings and sorting keys, the kind of work a
//! replay does) and shares nothing with the program, so a change to the
//! program moves a scaled time exactly as much as the raw one.
//!
//! Six 20 s `paper-realworld` runs on the reference host: CPU time per
//! load spread 8.8 % (IQR ÷ median) unscaled and 2.9 % scaled by slices
//! taken after every load. A slice taken once per one-second round
//! tracked less well (6.0 %), and a pointer chase through 8 MiB tracked
//! worse than no scaling at all (23 %).

use crate::sys::thread_cpu;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What a slice takes on the reference host; scaled times are times on a
/// host where it takes this long.
pub const NOMINAL_MS: f64 = 0.45;

/// Paths hashed and keys sorted per slice.
const KEYS: u64 = 1_000;

/// Slices run after a set-up, which is one event and not a stream of loads.
const SETUP_SLICES: usize = 20;

fn slice_work() {
    let mut counts: HashMap<String, u64> = HashMap::new();
    let mut keys = Vec::with_capacity(KEYS as usize);
    let mut x = 7u64;
    for k in 0..KEYS {
        x = crate::mix(x ^ k);
        let path = format!("/static/{:x}/res-{}.css", x & 0xffff, x % 977);
        *counts.entry(path).or_default() += x;
        keys.push(x);
    }
    keys.sort_unstable();
    black_box((counts.len(), keys[keys.len() / 2]));
}

/// The slices taken over a stretch of the run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Slices {
    pub n: usize,
    pub cpu_ms: f64,
    pub wall_ms: f64,
}

impl Slices {
    /// Runs one slice on the calling thread and adds it.
    pub fn take(&mut self) {
        let (t, c) = (Instant::now(), thread_cpu());
        slice_work();
        self.cpu_ms += (thread_cpu() - c).as_secs_f64() * 1e3;
        self.wall_ms += t.elapsed().as_secs_f64() * 1e3;
        self.n += 1;
    }

    /// The factor that scales CPU time spent in the stretch to the nominal
    /// host: `NOMINAL_MS` over the mean slice CPU time (1 when no slice was
    /// taken).
    pub fn factor(&self) -> f64 {
        if self.n == 0 {
            return 1.0;
        }
        NOMINAL_MS * self.n as f64 / self.cpu_ms
    }
}

/// The factor right after a set-up.
pub fn after_setup() -> f64 {
    let mut s = Slices::default();
    for _ in 0..SETUP_SLICES {
        s.take();
    }
    s.factor()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_the_mean_slice() {
        let s = Slices { n: 4, cpu_ms: 4.0 * NOMINAL_MS * 2.0, wall_ms: 1.0 };
        assert_eq!(s.factor(), 0.5);
        assert_eq!(Slices::default().factor(), 1.0);
    }

    #[test]
    fn a_measured_factor_is_positive_and_finite() {
        let f = after_setup();
        assert!(f.is_finite() && f > 0.0);
    }
}
