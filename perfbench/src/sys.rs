//! Host clocks and memory, read through the C library std already links
//! (the same direct-FFI style as the testbed's live `poll` runtime).

use std::os::unix::thread::RawPthread;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: RawPthread, clock: *mut i32) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and every thread it spawns later, to the CPU it
/// is running on now. Returns that CPU, or `None` if pinning failed.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only reads kernel state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16]; // a 1024-bit cpu_set_t
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly sized cpu_set_t for the call; pid
    // 0 names the calling thread, so no other process is affected.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

fn read_clock(clock: i32) -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; clock_gettime writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time (user + system) of the whole process so far.
pub fn process_cpu() -> Duration {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread so far.
pub fn thread_cpu() -> Duration {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// The CPU-time clock of another thread of this process, read from any
/// thread while that thread is alive.
#[derive(Debug, Clone, Copy)]
pub struct ThreadClock(i32);

impl ThreadClock {
    /// The clock of the thread behind `handle`; the thread must not have
    /// been joined yet.
    pub fn of(thread: RawPthread) -> ThreadClock {
        let mut clock = 0i32;
        // SAFETY: `thread` comes from a live JoinHandle (the caller keeps
        // it unjoined while the clock is used) and `clock` is writable.
        let rc = unsafe { pthread_getcpuclockid(thread, &mut clock) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        ThreadClock(clock)
    }

    /// CPU time the thread has used so far.
    pub fn read(self) -> Duration {
        read_clock(self.0)
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
