//! `lossy-sweep`: generated Random pages × {no push, push all} in Internet
//! mode under 2 % Gilbert–Elliott loss. Each page is one `SweepPlan` (a
//! single rep per call, streaming aggregation); a round runs every page
//! once. The seed draws the network conditions and the loss process of
//! every load. After the timed phase each page's last sweep runs again
//! with a checkpoint journal, which must match and resume byte for byte;
//! journaling stays out of the timed phase because its fsyncs on a shared
//! disk made wall time per load swing twofold between runs.
//!
//! Per-load outputs are not kept by a streaming sweep, so the load checks
//! run on the first rounds' grids again through `RunPlan::run_rep_in`,
//! which must also reproduce the sweep's PLT and SpeedIndex exactly.

use crate::layers::{class_of, Counts, Layers};
use crate::micro::Shapes;
use crate::report::{median, RunResult};
use crate::spans::Spans;
use crate::{
    alloc, checks, first_push_ms, mix, out_dir, setup_done, sys, EndToEnd, HostTime, Opts,
    RoundClock, Stopwatch, SETUPS,
};
use h2push_strategies::{push_all, Strategy};
use h2push_testbed::{
    FaultProfile, Mode, PreparedPage, ReplayCtx, ReplayInputs, RunPlan, SweepPlan, SweepReport,
};
use h2push_webmodel::{generate_site, CorpusKind, Page};
use std::sync::Arc;
use std::time::Instant;

/// The page corpus, the same on every seed: `random-7001` … `random-7024`.
/// Seed-drawn page mixes moved throughput by more than the host's own
/// noise, and `random-7000` is left out because its loads end partial on
/// some seeds (README, "Left out").
const CORPUS: std::ops::RangeInclusive<u64> = 7001..=7024;
/// Burst-loss rate of the Gilbert–Elliott fault profile.
const LOSS: f64 = 0.02;

struct Site {
    page: Arc<Page>,
    inputs: ReplayInputs,
    strategies: [Arc<Strategy>; 2],
    plan: SweepPlan,
    /// The reports of rounds 0 (warm-up) to `VERIFY_ROUNDS - 1`, verified
    /// load by load after the timed phase.
    kept: Vec<(u64, SweepReport)>,
    /// The report of the last call.
    last: Option<SweepReport>,
}

/// Rounds whose grid is replayed again load by load after the timed phase.
const VERIFY_ROUNDS: u64 = 12;

/// The sweep seed of page `page` in `round`: every load draws its own
/// network conditions and loss process. (Seeds shared by all pages of a
/// round made a run's conditions rest on a dozen draws, and the median
/// time to first push moved by 35 % between seeds.)
fn round_seed(seed: u64, round: u64, page: usize) -> u64 {
    mix(mix(seed) ^ mix(round) ^ mix(page as u64).rotate_left(17))
}

fn run_plan(site: &Site, strategy: &Arc<Strategy>, seed: u64) -> RunPlan {
    RunPlan::new(site.inputs.clone())
        .strategy(Arc::clone(strategy))
        .mode(Mode::Internet)
        .faults(FaultProfile::gilbert_elliott(LOSS))
        .seed(seed)
}

fn setup(seed: u64, spans: &mut Spans) -> Vec<Site> {
    spans.enter("setup");
    let pages: Vec<Page> = spans.time("webmodel.generate", None, || {
        CORPUS.map(|s| generate_site(CorpusKind::Random, s)).collect()
    });
    let mut sites = Vec::new();
    for page in pages {
        let page = Arc::new(page);
        let all = spans.time("strategies.derive", None, || push_all(&page, &[]));
        let prepared = spans.time("prepared.build", None, || PreparedPage::build(&page));
        let inputs = ReplayInputs::from(Arc::clone(&page)).with_prepared(Arc::new(prepared));
        let plan = SweepPlan::new()
            .strategies([Strategy::NoPush, all.clone()])
            .site(inputs.clone())
            .reps(1)
            .mode(Mode::Internet)
            .faults(FaultProfile::gilbert_elliott(LOSS))
            .streaming();
        let strategies = [Arc::new(Strategy::NoPush), Arc::new(all)];
        sites.push(Site { page, inputs, strategies, plan, kept: Vec::new(), last: None });
    }
    // Warm-up: one round fills the context pools and HPACK block caches.
    spans.time("warmup", None, || {
        for (i, s) in sites.iter_mut().enumerate() {
            s.last = Some(s.plan.clone().seed(round_seed(seed, 0, i)).run());
            s.kept.extend(s.last.clone().map(|rep| (0, rep)));
        }
    });
    spans.exit();
    sites
}

/// A finished single-rep call: both cells complete, no rep failed or
/// partial.
fn check_report(rep: &SweepReport) -> checks::Check {
    if rep.cells.len() != 2 || !rep.is_complete() || rep.failed() != 0 {
        return Err(format!("{} of 2 reps completed, {} failed", rep.completed(), rep.failed()));
    }
    match rep.cells.iter().find(|c| c.stats.partial != 0) {
        Some(c) => Err(format!("{} load was partial", c.strategy)),
        None => Ok(()),
    }
}

pub fn run(opts: &Opts, spans: &mut Spans) -> RunResult {
    let mut r = RunResult::default();
    let mut setups = Vec::new();
    let mut sites = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut sites));
        let t = Stopwatch::start();
        sites = setup(opts.seed, spans);
        setups.push(setup_done(t));
    }
    for s in &sites {
        let warm = s.last.as_ref().ok_or_else(|| "warm-up sweep failed".to_string());
        r.check(&format!("{} warm-up", s.page.name), warm.and_then(check_report));
    }

    let mut rounds = Vec::new();
    let mut population_ms = Vec::new();
    let mut allocs = 0u64;
    let t0 = Instant::now();
    let mut round = 1u64;
    while round == 1 || t0.elapsed() < opts.seconds {
        spans.enter("round");
        let mut clock = RoundClock::start();
        for (i, s) in sites.iter_mut().enumerate() {
            r.attempted += 2;
            let plan = s.plan.clone().seed(round_seed(opts.seed, round, i));
            let c = sys::thread_cpu();
            let (rep, allocated) = spans.time("sweep.run", Some(round), || {
                let a0 = alloc::allocations();
                let rep = plan.run();
                (rep, alloc::allocations() - a0)
            });
            let cpu = sys::thread_cpu() - c;
            if round == 1 {
                allocs += allocated;
            }
            r.failed += rep.failed() as u64;
            let cpu_ms = cpu.as_secs_f64() * 1e3 / 2.0;
            clock.record(cpu_ms, cpu_ms, 2);
            r.check(&format!("{} round {round}", s.page.name), check_report(&rep));
            if opts.trace {
                let t = Instant::now();
                spans.time("sweep.population", Some(round), || rep.population());
                population_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            if round < VERIFY_ROUNDS {
                s.kept.push((round, rep.clone()));
            }
            s.last = Some(rep);
        }
        rounds.push(clock.finish());
        spans.exit();
        round += 1;
    }

    // Each page's last sweep again with a checkpoint journal: the journaled
    // run and the resume over its finished journal both reproduce the
    // in-memory report byte for byte.
    let dir = out_dir().join(format!("lossy-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        crate::fail(&format!("cannot create {}: {e}", dir.display()));
    }
    let mut journal_kb = Vec::new();
    for (i, s) in sites.iter().enumerate() {
        let plan = s.plan.clone().seed(round_seed(opts.seed, round - 1, i));
        let journal = dir.join(format!("journal-{i}.bin"));
        let journaled = spans.time("sweep.checkpoint", None, || plan.checkpoint(&journal));
        journal_kb.push(std::fs::metadata(&journal).map_or(0, |m| m.len()) as f64 / 1024.0);
        let resumed = spans.time("sweep.resume", None, || plan.resume(&journal));
        let check = match (&s.last, journaled, resumed) {
            (Some(run), Ok(journaled), Ok(resumed)) => {
                let bytes = run.canonical_bytes();
                checks::same_report(&bytes, &journaled.canonical_bytes())
                    .and_then(|()| checks::same_report(&bytes, &resumed.canonical_bytes()))
            }
            (_, Err(e), _) | (_, _, Err(e)) => Err(format!("journal failed: {e}")),
            (None, _, _) => Err("no finished report".into()),
        };
        r.check(&format!("{} journal", s.page.name), check);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The first rounds' grids again, load by load: the checks a streaming
    // sweep cannot run, and the sweep ≡ RunPlan cross-check.
    let mut ctx = ReplayCtx::new();
    let mut first_push = Vec::new();
    let (mut drops, mut retransmits) = (0, 0);
    let mut class_us: [Vec<f64>; 3] = Default::default();
    let mut traced_us = Vec::new();
    let mut counts = Counts::default();
    for (i, s) in sites.iter().enumerate() {
        for (round, report) in &s.kept {
            let (round, seed) = (*round, round_seed(opts.seed, *round, i));
            for (cell, strategy) in s.strategies.iter().enumerate() {
                let label =
                    format!("{} / {} round {round}", s.page.name, report.cells[cell].strategy);
                let plan = run_plan(s, strategy, seed);
                let t = Instant::now();
                let out = match plan.run_rep_in(0, &mut ctx) {
                    Ok(o) => o.outcome,
                    Err(e) => {
                        r.violation(format!("{label}: {e:?}"));
                        continue;
                    }
                };
                let us = t.elapsed().as_secs_f64() * 1e6;
                r.check(&label, checks::lossy_load(&out.load, &s.page));
                let st = &report.cells[cell].stats;
                if out.load.finished()
                    && (st.plt.first() != Some(&out.load.plt())
                        || st.speed_index.first() != Some(&out.load.speed_index()))
                {
                    r.violation(format!(
                        "{label}: RunPlan and SweepPlan disagree on PLT/SpeedIndex"
                    ));
                }
                drops += out.net.drops_total();
                retransmits += out.net.retransmits;
                if let Some(ms) = first_push_ms(&out.load) {
                    first_push.push(HostTime::sim(ms));
                }
                // Per-layer counts come from the warm-up round only, which
                // every run replays under the same seed.
                if opts.trace && round == 0 {
                    class_us[class_of(strategy)].push(us);
                    let traced = plan.traced();
                    let t = Instant::now();
                    let tr = spans.time("trace.replay", None, || traced.run_rep_in(0, &mut ctx));
                    traced_us.push(t.elapsed().as_secs_f64() * 1e6);
                    match tr {
                        Ok(tr) if tr.outcome == out => {
                            counts.add_replay(&tr.outcome, tr.timeline.as_ref().expect("traced"))
                        }
                        Ok(_) => r.violation(format!("{label}: traced outcome differs")),
                        Err(e) => r.violation(format!("{label}: traced replay failed: {e:?}")),
                    }
                }
            }
        }
    }
    r.check("loss recovery", checks::recovery(drops, retransmits));

    if opts.trace {
        let layers = Layers {
            generate_ms: spans.total_ms("webmodel.generate") / SETUPS as f64,
            derive_ms: spans.total_ms("strategies.derive") / SETUPS as f64,
            build_ms: spans.total_ms("prepared.build") / SETUPS as f64,
            replay_us: [median(&class_us[0]), median(&class_us[1]), median(&class_us[2])],
            trace_replay_us: median(&traced_us),
            alloc_per_load: allocs as f64 / (2 * sites.len()) as f64,
            population_ms: median(&population_ms),
            journal_kb: median(&journal_kb),
            counts,
            ..Layers::default()
        };
        let pages: Vec<&Page> = sites.iter().map(|s| s.page.as_ref()).collect();
        layers.emit(&Shapes::of(&pages), &mut r);
    } else {
        EndToEnd { setups, rounds, first_push_ms: first_push }.emit(&mut r);
    }
    r
}
