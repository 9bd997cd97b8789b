//! `paper-realworld`: the twenty real-world pages w1–w20 under the six §5
//! strategies, replayed in testbed mode on prepared pages, one
//! `RunPlan::run_rep_in` at a time through one recycled `ReplayCtx`.

use crate::layers::{class_of, Counts, Layers};
use crate::micro::Shapes;
use crate::report::{median, RunResult};
use crate::spans::Spans;
use crate::{
    alloc, checks, first_push_ms, setup_done, EndToEnd, HostTime, Opts, RoundClock, Stopwatch,
    SETUPS,
};
use h2push_strategies::{paper_strategy, PaperStrategy, Strategy};
use h2push_testbed::{Mode, PreparedPage, ReplayCtx, ReplayInputs, ReplayOutcome, RunPlan};
use h2push_webmodel::{realworld_set, Page};
use std::sync::Arc;
use std::time::Instant;

struct Load {
    site: usize,
    which: PaperStrategy,
    page: Arc<Page>,
    strategy: Arc<Strategy>,
    plan: RunPlan,
    rate_bps: u64,
}

struct Setup {
    names: Vec<String>,
    variants: Vec<Arc<Page>>,
    loads: Vec<Load>,
    ctx: ReplayCtx,
    /// Rep 0 of every load, replayed by the warm-up pass.
    warm: Vec<Result<ReplayOutcome, String>>,
}

fn optimized(which: PaperStrategy) -> bool {
    matches!(
        which,
        PaperStrategy::NoPushOptimized
            | PaperStrategy::PushAllOptimized
            | PaperStrategy::PushCriticalOptimized
    )
}

fn setup(seed: u64, spans: &mut Spans) -> Setup {
    spans.enter("setup");
    let pages = spans.time("webmodel.generate", None, realworld_set);
    let mut variants = Vec::new();
    let mut loads = Vec::new();
    for (site, page) in pages.iter().enumerate() {
        // The original page and its critical-CSS rewrite, each recorded
        // and prepared once and shared by the strategies deployed on it.
        let mut inputs: [Option<ReplayInputs>; 2] = [None, None];
        for which in PaperStrategy::ALL {
            let (variant, strategy) =
                spans.time("strategies.derive", None, || paper_strategy(page, which));
            let slot = &mut inputs[optimized(which) as usize];
            let inputs = slot.get_or_insert_with(|| {
                let variant = Arc::new(variant);
                let prepared = spans.time("prepared.build", None, || PreparedPage::build(&variant));
                variants.push(Arc::clone(&variant));
                ReplayInputs::from(variant).with_prepared(Arc::new(prepared))
            });
            let strategy = Arc::new(strategy);
            let plan = RunPlan::new(inputs.clone())
                .strategy(Arc::clone(&strategy))
                .mode(Mode::Testbed)
                .seed(seed);
            let rate_bps =
                plan.config_for(0).network.client_down.rate_bps.expect("the testbed link is rated");
            loads.push(Load {
                site,
                which,
                page: Arc::clone(&inputs.page),
                strategy,
                plan,
                rate_bps,
            });
        }
    }
    // Warm-up: one pass fills the context pools and HPACK block caches.
    let mut ctx = ReplayCtx::new();
    let warm = spans.time("warmup", None, || {
        loads
            .iter()
            .map(|l| {
                l.plan.run_rep_in(0, &mut ctx).map(|o| o.outcome).map_err(|e| format!("{e:?}"))
            })
            .collect()
    });
    spans.exit();
    let names = pages.into_iter().map(|p| p.name).collect();
    Setup { names, variants, loads, ctx, warm }
}

/// Every check a fault-free paper load must pass.
fn check_load(l: &Load, out: &ReplayOutcome) -> checks::Check {
    checks::fault_free_load(&out.load, &l.page)?;
    checks::bandwidth_bound(out.load.plt(), &l.page, l.rate_bps)?;
    checks::pushed_bytes(out.server_pushed_bytes, out.load.cancelled_pushes, &l.strategy, &l.page)
}

pub fn run(opts: &Opts, spans: &mut Spans) -> RunResult {
    let mut r = RunResult::default();
    let mut setups = Vec::new();
    let mut s = None;
    for _ in 0..SETUPS {
        drop(s.take());
        let t = Stopwatch::start();
        s = Some(setup(opts.seed, spans));
        setups.push(setup_done(t));
    }
    let Setup { names, variants, loads, mut ctx, warm } = s.expect("set up");
    for (l, w) in loads.iter().zip(&warm) {
        let label = format!("{} / {} warm-up", names[l.site], l.which.label());
        r.check(&label, w.as_ref().map_err(Clone::clone).and_then(|o| check_load(l, o)));
    }

    let traced: Vec<RunPlan> = if opts.trace {
        loads.iter().map(|l| l.plan.clone().traced()).collect()
    } else {
        Vec::new()
    };
    let mut class_us: [Vec<f64>; 3] = Default::default();
    let mut traced_us = Vec::new();
    let mut counts = Counts::default();
    let mut allocs = 0u64;
    // Per site: SpeedIndex sums of no push and push-critical-optimized.
    let mut si = vec![[(0.0f64, 0u32); 2]; names.len()];
    let mut rounds = Vec::new();
    let mut first_push = Vec::new();

    let t0 = Instant::now();
    let mut round = 0usize;
    while round == 0 || t0.elapsed() < opts.seconds {
        spans.enter("round");
        let mut clock = RoundClock::start();
        let rep = round + 1;
        for (i, l) in loads.iter().enumerate() {
            let load_id = Some((round * loads.len() + i) as u64);
            r.attempted += 1;
            let (t, c) = (Instant::now(), crate::sys::thread_cpu());
            let (res, allocated) = spans.time("testbed.replay", load_id, || {
                let a0 = alloc::allocations();
                let res = l.plan.run_rep_in(rep, &mut ctx);
                (res, alloc::allocations() - a0)
            });
            let (dt, cpu) = (t.elapsed(), crate::sys::thread_cpu() - c);
            if round == 0 {
                allocs += allocated;
            }
            let out = match res {
                Ok(o) => o.outcome,
                Err(e) => {
                    r.failed += 1;
                    eprintln!(
                        "perfbench: {} / {} rep {rep}: {e:?}",
                        names[l.site],
                        l.which.label()
                    );
                    continue;
                }
            };
            let cpu_ms = cpu.as_secs_f64() * 1e3;
            clock.record(cpu_ms, cpu_ms, 1);
            let label = || format!("{} / {} rep {rep}", names[l.site], l.which.label());
            if let Err(e) = check_load(l, &out) {
                r.violation(format!("{}: {e}", label()));
            }
            if let Some(ms) = first_push_ms(&out.load) {
                first_push.push(HostTime::sim(ms));
            }
            let col = match l.which {
                PaperStrategy::NoPush => Some(0),
                PaperStrategy::PushCriticalOptimized => Some(1),
                _ => None,
            };
            if let Some(c) = col {
                si[l.site][c].0 += out.load.speed_index();
                si[l.site][c].1 += 1;
            }
            if opts.trace {
                class_us[class_of(&l.strategy)].push(dt.as_secs_f64() * 1e6);
                let t = Instant::now();
                let tr =
                    spans.time("trace.replay", load_id, || traced[i].run_rep_in(rep, &mut ctx));
                traced_us.push(t.elapsed().as_secs_f64() * 1e6);
                match tr {
                    Ok(tr) if tr.outcome == out => {
                        if round == 0 {
                            counts.add_replay(&tr.outcome, tr.timeline.as_ref().expect("traced"));
                        }
                    }
                    Ok(_) => r.violation(format!("{}: traced outcome differs", label())),
                    Err(e) => r.violation(format!("{}: traced replay failed: {e:?}", label())),
                }
            }
        }
        rounds.push(clock.finish());
        spans.exit();
        round += 1;
    }
    let e2e = EndToEnd { setups, rounds, first_push_ms: first_push };

    // Determinism: rep 0 again through the same recycled context.
    for (l, w) in loads.iter().zip(&warm) {
        let again = l.plan.run_rep_in(0, &mut ctx).map(|o| o.outcome);
        let same = match (&again, w) {
            (Ok(a), Ok(w)) => a == w,
            (Err(_), Err(_)) => true,
            _ => false,
        };
        if !same {
            r.violation(format!(
                "{} / {}: rep 0 differs when replayed again",
                names[l.site],
                l.which.label()
            ));
        }
    }
    let means: Vec<(String, f64, f64)> = names
        .iter()
        .zip(&si)
        .map(|(n, [a, b])| (n.clone(), a.0 / f64::from(a.1), b.0 / f64::from(b.1)))
        .collect();
    if let Err(e) = checks::fig6a(&means) {
        r.violation(format!("Fig. 6a: {e}"));
    }

    if opts.trace {
        let layers = Layers {
            generate_ms: spans.total_ms("webmodel.generate") / SETUPS as f64,
            derive_ms: spans.total_ms("strategies.derive") / SETUPS as f64,
            build_ms: spans.total_ms("prepared.build") / SETUPS as f64,
            replay_us: [median(&class_us[0]), median(&class_us[1]), median(&class_us[2])],
            trace_replay_us: median(&traced_us),
            alloc_per_load: allocs as f64 / loads.len() as f64,
            counts,
            ..Layers::default()
        };
        let pages: Vec<&Page> = variants.iter().map(|p| p.as_ref()).collect();
        layers.emit(&Shapes::of(&pages), &mut r);
    } else {
        e2e.emit(&mut r);
    }
    r
}
