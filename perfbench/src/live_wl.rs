//! `live-loopback`: in-process `LiveServer`s serve push-all for generated
//! Random pages over 127.0.0.1 to one client thread issuing `load_page`
//! back to back (a closed loop, one load in flight), alternating
//! `enable_push` on and off. Browser compute is not slept (`cpu_scale` 0).
//! The page corpus is fixed; the seed orders the pages of every round. The
//! process is pinned to one CPU, so one thread runs at a time.

use crate::layers::{Counts, Layers};
use crate::micro::Shapes;
use crate::report::{median, percentile, RunResult};
use crate::spans::Spans;
use crate::sys::{self, ThreadClock};
use crate::{
    alloc, checks, first_push_ms, mix, setup_done, EndToEnd, HostTime, Opts, RoundClock, Stopwatch,
    SETUPS,
};
use h2push_browser::BrowserConfig;
use h2push_strategies::{push_all, Strategy};
use h2push_testbed::{load_page, LiveLimits, LiveServer, LiveServerHandle, LiveServerStats};
use h2push_webmodel::{generate_set, CorpusKind, Page};
use std::io;
use std::net::SocketAddr;
use std::os::unix::thread::JoinHandleExt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The page corpus: `random-7000` … `random-7007`. `random-7000`'s second
/// connection carries ~3.5 MB, over the server's 1 MiB output-queue cap
/// (README, "Live queue-cap stall").
const CORPUS_SEED: u64 = 7;
const PAGES: usize = 8;
const LOAD_TIMEOUT: Duration = Duration::from_secs(20);

struct Server {
    page: Arc<Page>,
    strategy: Arc<Strategy>,
    addr: SocketAddr,
    handle: LiveServerHandle,
    thread: JoinHandle<io::Result<LiveServerStats>>,
    clock: ThreadClock,
    loads: u64,
    push_loads: u64,
    /// Wall ms of this server's loads, warm-up included (a per-page
    /// diagnostic on stderr).
    wall_ms: Vec<f64>,
}

impl Server {
    fn start(page: &Page, queue_cap: Option<usize>, spans: &mut Spans) -> io::Result<Server> {
        let page = Arc::new(page.clone());
        let strategy = Arc::new(spans.time("strategies.derive", None, || push_all(&page, &[])));
        let mut server = spans.time("live.bind", None, || {
            LiveServer::bind("127.0.0.1:0", Arc::clone(&page), Arc::clone(&strategy))
        })?;
        if let Some(cap) = queue_cap {
            server.set_limits(LiveLimits { max_queued_bytes: cap, ..LiveLimits::new() });
        }
        let addr = server.local_addr()?;
        let handle = server.handle();
        let thread = std::thread::Builder::new()
            .name(format!("live-{}", page.name))
            .spawn(move || server.run())?;
        let clock = ThreadClock::of(thread.as_pthread_t());
        Ok(Server {
            page,
            strategy,
            addr,
            handle,
            thread,
            clock,
            loads: 0,
            push_loads: 0,
            wall_ms: Vec::new(),
        })
    }

    /// Stop (graceful drain), join, and check what the server served.
    fn stop(self, r: &mut RunResult) -> Option<LiveServerStats> {
        self.handle.stop();
        let name = &self.page.name;
        match self.thread.join().expect("live server thread panicked") {
            Ok(stats) => {
                r.check(
                    name,
                    checks::live_server(&stats, self.push_loads, &self.strategy, &self.page),
                );
                Some(stats)
            }
            Err(e) => {
                r.violation(format!("{name}: server failed: {e}"));
                None
            }
        }
    }
}

/// The seeded page order of one round (a Fisher–Yates shuffle).
fn order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut x = mix(seed) ^ mix(round);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        x = mix(x);
        v.swap(i, (x % (i as u64 + 1)) as usize);
    }
    v
}

/// What the timed phase accumulates.
#[derive(Default)]
struct Tally {
    /// Each with the load's share of CPU time as its CPU part; the factor
    /// is set when the load's round ends.
    first_push_ms: Vec<HostTime>,
    server_ms: f64,
    client_ms: f64,
    idle_ms: f64,
    allocs: u64,
    counts: Counts,
}

/// One load through `server`, checked and tallied. With `clocks` the CPU
/// time of the server's thread and of this (client) thread is read around
/// it. Returns the load's wall time and the process CPU time spent in it
/// (client and server), in ms, or `None` when `load_page` itself failed.
fn load(
    server: &mut Server,
    push: bool,
    clocks: bool,
    r: &mut RunResult,
    tally: &mut Tally,
) -> Option<(f64, f64)> {
    let cpu =
        |s: &Server| if clocks { (s.clock.read(), sys::thread_cpu()) } else { Default::default() };
    let cfg = BrowserConfig { enable_push: push, cpu_scale: 0.0, ..BrowserConfig::default() };
    let (s0, c0) = cpu(server);
    let a0 = alloc::allocations();
    let sw = Stopwatch::start();
    let res = load_page(server.addr, Arc::clone(&server.page), cfg, LOAD_TIMEOUT);
    let (wall_s, process_s) = sw.read();
    let wall_ms = wall_s * 1e3;
    tally.allocs += alloc::allocations() - a0;
    let (s1, c1) = cpu(server);
    server.loads += 1;
    server.push_loads += u64::from(push);
    let label = format!("{} push {push}", server.page.name);
    let rep = match res {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("perfbench: {label}: {e}");
            return None;
        }
    };
    r.check(&label, checks::live_load(&rep, &server.page));
    if push {
        match first_push_ms(&rep.load) {
            Some(ms) => tally.first_push_ms.push(HostTime {
                ms,
                cpu_ms: ms * (process_s / wall_s).min(1.0),
                factor: 1.0,
            }),
            None => r.violation(format!("{label}: nothing pushed")),
        }
    }
    let (server_ms, client_ms) = ((s1 - s0).as_secs_f64() * 1e3, (c1 - c0).as_secs_f64() * 1e3);
    server.wall_ms.push(wall_ms);
    tally.server_ms += server_ms;
    tally.client_ms += client_ms;
    tally.idle_ms += (wall_ms - server_ms - client_ms).max(0.0);
    let c = &mut tally.counts;
    c.loads += 1;
    c.requests += u64::from(rep.load.requests);
    c.resources += rep.load.waterfall.len() as u64;
    c.accepted += u64::from(rep.load.pushed_count);
    c.cancelled += u64::from(rep.load.cancelled_pushes);
    c.promised += u64::from(rep.load.pushed_count + rep.load.cancelled_pushes);
    Some((wall_ms, process_s * 1e3))
}

pub fn run(opts: &Opts, spans: &mut Spans) -> RunResult {
    let mut r = RunResult::default();
    let mut setups = Vec::new();
    let mut servers: Vec<Server> = Vec::new();
    let mut page_set = Vec::new();
    for _ in 0..SETUPS {
        for old in servers.drain(..) {
            old.stop(&mut r);
        }
        let t = Stopwatch::start();
        spans.enter("setup");
        page_set = spans.time("webmodel.generate", None, || {
            generate_set(CorpusKind::Random, PAGES, CORPUS_SEED)
        });
        for p in &page_set {
            match Server::start(p, opts.queue_cap, spans) {
                Ok(s) => servers.push(s),
                Err(e) => crate::fail(&format!("cannot start a live server: {e}")),
            }
        }
        let mut warm = Tally::default();
        spans.time("warmup", None, || {
            for srv in servers.iter_mut() {
                for push in [true, false] {
                    load(srv, push, false, &mut r, &mut warm);
                }
            }
        });
        spans.exit();
        setups.push(setup_done(t));
    }

    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    let t0 = Instant::now();
    let mut round = 0u64;
    while round == 0 || t0.elapsed() < opts.seconds {
        spans.enter("round");
        let mut clock = RoundClock::start();
        let pushes_before = tally.first_push_ms.len();
        for i in order(opts.seed, round, servers.len()) {
            let srv = &mut servers[i];
            for push in [true, false] {
                r.attempted += 1;
                let id = Some(r.attempted);
                let timed =
                    spans.time("live.load", id, || load(srv, push, opts.trace, &mut r, &mut tally));
                match timed {
                    Some((ms, cpu_ms)) => clock.record(ms, cpu_ms, 1),
                    None => r.failed += 1,
                }
            }
        }
        let done = clock.finish();
        for p in &mut tally.first_push_ms[pushes_before..] {
            p.factor = done.factor;
        }
        rounds.push(done);
        spans.exit();
        round += 1;
    }

    let per_page: Vec<String> = servers
        .iter()
        .map(|s| {
            format!("{} {:.2}/{:.2}", s.page.name, median(&s.wall_ms), percentile(&s.wall_ms, 90.0))
        })
        .collect();
    eprintln!("perfbench: load ms p50/p90 by page: {}", per_page.join(", "));
    let served: u64 = servers.iter().map(|s| s.loads).sum();
    let push_served: u64 = servers.iter().map(|s| s.push_loads).sum();
    let (mut requests, mut pushed, mut max_queued) = (0, 0, 0);
    for s in servers {
        if let Some(st) = s.stop(&mut r) {
            requests += st.requests;
            pushed += st.pushed_bytes;
            max_queued = max_queued.max(st.max_queued_bytes);
        }
    }

    if opts.trace {
        let n = tally.counts.loads as f64;
        let layers = Layers {
            generate_ms: spans.total_ms("webmodel.generate") / SETUPS as f64,
            derive_ms: spans.total_ms("strategies.derive") / SETUPS as f64,
            live_server_cpu_ms: tally.server_ms / n,
            live_client_cpu_ms: tally.client_ms / n,
            live_idle_ms: tally.idle_ms / n,
            alloc_per_load: tally.allocs as f64 / n,
            live_max_queued_kb: max_queued as f64 / 1024.0,
            live_requests: requests as f64 / served as f64,
            live_pushed_kb: pushed as f64 / 1024.0 / push_served as f64,
            counts: tally.counts,
            ..Layers::default()
        };
        let pages: Vec<&Page> = page_set.iter().collect();
        layers.emit(&Shapes::of(&pages), &mut r);
    } else {
        EndToEnd { setups, rounds, first_push_ms: tally.first_push_ms }.emit(&mut r);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_visit_every_page_once_in_a_seeded_order() {
        let a = order(3, 1, 8);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_eq!(a, order(3, 1, 8));
        assert_ne!(a, order(4, 1, 8));
    }

    #[test]
    fn the_corpus_holds_a_page_over_the_queue_cap() {
        let pages = generate_set(CorpusKind::Random, PAGES, CORPUS_SEED);
        let over = pages.iter().any(|p| {
            let mut per_group = vec![0usize; p.server_group_count()];
            for r in &p.resources {
                per_group[p.server_group_of(r.id)] += r.size;
            }
            per_group.iter().any(|&b| b > 1 << 20)
        });
        assert!(over);
    }
}
