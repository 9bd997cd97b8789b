//! Per-layer numbers of a traced run. Every workload prints the same set
//! of names; a layer a workload does not exercise reads 0 there (the
//! README lists which layers each workload drives).

use crate::micro::Shapes;
use crate::report::{ratio, RunResult};
use h2push_strategies::Strategy;
use h2push_testbed::ReplayOutcome;
use h2push_trace::{FrameKind, Timeline, TraceEvent};

/// Exact work counters, summed over loads.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub loads: u64,
    pub packets: u64,
    pub drops: u64,
    pub retransmits: u64,
    pub frames: u64,
    pub window_updates: u64,
    pub block_bytes: u64,
    pub picks: u64,
    pub switches: u64,
    pub promised: u64,
    pub accepted: u64,
    pub cancelled: u64,
    pub requests: u64,
    pub resources: u64,
    pub events: u64,
}

impl Counts {
    /// Fold in one simulated load and its timeline.
    pub fn add_replay(&mut self, out: &ReplayOutcome, tl: &Timeline) {
        self.loads += 1;
        self.packets += out.net.data_packets;
        self.drops += out.net.drops_total();
        self.retransmits += out.net.retransmits;
        self.requests += u64::from(out.load.requests);
        self.resources += out.load.waterfall.len() as u64;
        self.events += tl.len() as u64;
        for (_, ev) in tl.events() {
            match ev {
                TraceEvent::FrameSent { kind, bytes, .. } => {
                    self.frames += 1;
                    if matches!(
                        kind,
                        FrameKind::Headers | FrameKind::PushPromise | FrameKind::Continuation
                    ) {
                        self.block_bytes += u64::from(*bytes);
                    }
                }
                TraceEvent::WindowUpdate { .. } => self.window_updates += 1,
                TraceEvent::SchedulerPick { .. } => self.picks += 1,
                TraceEvent::InterleaveSuspend { .. } | TraceEvent::InterleaveResume { .. } => {
                    self.switches += 1
                }
                TraceEvent::PushPromised { .. } => self.promised += 1,
                TraceEvent::PushAccepted { .. } => self.accepted += 1,
                TraceEvent::PushCancelled { .. } => self.cancelled += 1,
                _ => {}
            }
        }
    }

    fn per_load(&self, n: u64) -> f64 {
        ratio(n as f64, self.loads as f64)
    }
}

/// The class a strategy's replay time is filed under.
pub fn class_of(s: &Strategy) -> usize {
    match s {
        Strategy::NoPush => 0,
        Strategy::PushList { .. } => 1,
        Strategy::Interleaved { .. } => 2,
    }
}

#[derive(Debug, Default)]
pub struct Layers {
    pub generate_ms: f64,
    pub derive_ms: f64,
    pub build_ms: f64,
    /// Median µs of one untraced replay per strategy class
    /// (no push, push list, interleaved).
    pub replay_us: [f64; 3],
    pub trace_replay_us: f64,
    pub counts: Counts,
    pub alloc_per_load: f64,
    pub population_ms: f64,
    pub journal_kb: f64,
    pub live_server_cpu_ms: f64,
    pub live_client_cpu_ms: f64,
    pub live_idle_ms: f64,
    pub live_max_queued_kb: f64,
    pub live_requests: f64,
    pub live_pushed_kb: f64,
}

impl Layers {
    /// Print every per-layer metric, running the codec and scheduler
    /// rows over `shapes`.
    pub fn emit(&self, shapes: &Shapes, r: &mut RunResult) {
        let c = &self.counts;
        r.metric("webmodel.generate_ms", self.generate_ms, "ms");
        r.metric("strategies.derive_ms", self.derive_ms, "ms");
        r.metric("prepared.build_ms", self.build_ms, "ms");
        r.metric("replay.us.no_push", self.replay_us[0], "us");
        r.metric("replay.us.push_all", self.replay_us[1], "us");
        r.metric("replay.us.interleaved", self.replay_us[2], "us");
        r.metric("netsim.packets", c.per_load(c.packets), "count");
        r.metric("netsim.drops", c.per_load(c.drops), "count");
        r.metric("netsim.retransmits", c.per_load(c.retransmits), "count");
        r.metric("h2proto.frames", c.per_load(c.frames), "count");
        r.metric("h2proto.window_updates", c.per_load(c.window_updates), "count");
        r.metric("h2proto.frame_ns_per_kb", shapes.frame_ns_per_kb(), "ns/KiB");
        let (enc, dec) = shapes.hpack_ns();
        r.metric("hpack.block_bytes", c.per_load(c.block_bytes), "B");
        r.metric("hpack.encode_ns", enc, "ns");
        r.metric("hpack.decode_ns", dec, "ns");
        r.metric("h2server.scheduler_picks", c.per_load(c.picks), "count");
        r.metric("h2server.interleave_switches", c.per_load(c.switches), "count");
        r.metric("h2server.pick_ns", shapes.pick_ns(), "ns");
        r.metric("push.promised", c.per_load(c.promised), "count");
        r.metric("push.accepted", c.per_load(c.accepted), "count");
        r.metric("push.cancelled", c.per_load(c.cancelled), "count");
        r.metric("push.useful_ratio", ratio(c.accepted as f64, c.promised as f64), "ratio");
        r.metric("browser.requests", c.per_load(c.requests), "count");
        r.metric("browser.resources", c.per_load(c.resources), "count");
        r.metric("sweep.population_ms", self.population_ms, "ms");
        r.metric("checkpoint.journal_kb", self.journal_kb, "KiB");
        r.metric("alloc.per_load", self.alloc_per_load, "count");
        r.metric("trace.events", c.per_load(c.events), "count");
        r.metric("trace.replay_us", self.trace_replay_us, "us");
        r.metric("live.server_cpu_ms", self.live_server_cpu_ms, "ms");
        r.metric("live.client_cpu_ms", self.live_client_cpu_ms, "ms");
        r.metric("live.idle_ms", self.live_idle_ms, "ms");
        r.metric("live.max_queued_kb", self.live_max_queued_kb, "KiB");
        r.metric("live.requests", self.live_requests, "count");
        r.metric("live.pushed_kb", self.live_pushed_kb, "KiB");
    }
}
