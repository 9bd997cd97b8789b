//! Correctness checks. Each compares a program output against a property
//! the method must have, or against a value computed here from the page
//! model — never against a stored copy of earlier output.

use h2push_browser::LoadResult;
use h2push_strategies::Strategy;
use h2push_testbed::{CloseReason, LiveLoadReport, LiveServerStats};
use h2push_webmodel::Page;

pub type Check = Result<(), String>;

fn body_bytes(page: &Page) -> u64 {
    page.resources.iter().map(|r| r.size as u64).sum()
}

fn all_loaded(load: &LoadResult, page: &Page) -> Check {
    if load.waterfall.len() != page.resources.len() {
        return Err(format!(
            "waterfall has {} rows for {} resources",
            load.waterfall.len(),
            page.resources.len()
        ));
    }
    match load.waterfall.iter().position(|t| t.loaded.is_none()) {
        Some(i) => Err(format!("resource {i} has no load time")),
        None => Ok(()),
    }
}

/// Every fault-free load: it finished whole, requests + accepted pushes
/// cover each resource exactly once, every resource has a load time, and
/// 0 < first paint ≤ PLT (both from `connectEnd`).
pub fn fault_free_load(load: &LoadResult, page: &Page) -> Check {
    if !load.finished() || load.partial {
        return Err("load did not finish whole".into());
    }
    let fetched = load.requests as usize + load.pushed_count as usize;
    if fetched != page.resources.len() {
        return Err(format!(
            "{} requests + {} accepted pushes != {} resources",
            load.requests,
            load.pushed_count,
            page.resources.len()
        ));
    }
    all_loaded(load, page)?;
    let fp = match load.first_paint {
        Some(t) if t > load.connect_end => t.since(load.connect_end).as_millis_f64(),
        _ => return Err("no first paint after connectEnd".into()),
    };
    if fp > load.plt() {
        return Err(format!("first paint {fp} ms after PLT {} ms", load.plt()));
    }
    Ok(())
}

/// A load under injected loss: it finished whole, every resource has a
/// load time, and requests + accepted pushes cover every resource (retries
/// may add requests).
pub fn lossy_load(load: &LoadResult, page: &Page) -> Check {
    if !load.finished() || load.partial {
        return Err("load did not finish whole".into());
    }
    let fetched = load.requests as usize + load.pushed_count as usize;
    if fetched < page.resources.len() {
        return Err(format!(
            "{} requests + {} accepted pushes < {} resources",
            load.requests,
            load.pushed_count,
            page.resources.len()
        ));
    }
    all_loaded(load, page)
}

/// The simulated PLT cannot beat the access link: every body byte has to
/// cross `client_down` at `rate_bps`.
pub fn bandwidth_bound(plt_ms: f64, page: &Page, rate_bps: u64) -> Check {
    let floor_ms = body_bytes(page) as f64 * 8.0 / rate_bps as f64 * 1e3;
    if plt_ms < floor_ms {
        return Err(format!("PLT {plt_ms} ms below the bandwidth bound {floor_ms} ms"));
    }
    Ok(())
}

/// With no push cancelled, the server pushed exactly the bodies of the
/// strategy's pushed resources.
pub fn pushed_bytes(server_pushed: u64, cancelled: u32, strategy: &Strategy, page: &Page) -> Check {
    let expect = strategy.pushed_bytes(page) as u64;
    if cancelled == 0 && server_pushed != expect {
        return Err(format!("server pushed {server_pushed} B, strategy pushes {expect} B"));
    }
    Ok(())
}

/// Fig. 6a: the sites where push-critical-optimized cuts mean SpeedIndex
/// by at least 20 % against no push are a non-empty minority that
/// includes w1. `sites` holds (name, mean SI no push, mean SI push
/// critical optimized). Returns the number of such sites.
pub fn fig6a(sites: &[(String, f64, f64)]) -> Result<usize, String> {
    let winners: Vec<&str> = sites
        .iter()
        .filter(|(_, base, opt)| *opt <= 0.8 * *base)
        .map(|(name, _, _)| name.as_str())
        .collect();
    if winners.is_empty() || 2 * winners.len() >= sites.len() {
        return Err(format!(
            "{} of {} sites gain >= 20 %: {winners:?}",
            winners.len(),
            sites.len()
        ));
    }
    if !winners.iter().any(|w| w.starts_with("w1-")) {
        return Err(format!("w1 is not among the sites that gain >= 20 %: {winners:?}"));
    }
    Ok(winners.len())
}

/// Loss recovery: the workload did drop packets, nothing was resent that
/// was not dropped, and every drop was resent except the few still waiting
/// for their retransmission timer when `onload` ended the replay (at most
/// 1 % of the drops; about one in 2 000 loads ends with one pending).
pub fn recovery(drops: u64, retransmits: u64) -> Check {
    if drops == 0 {
        return Err("no packet was dropped under 2 % loss".into());
    }
    if retransmits > drops || (drops - retransmits) * 100 > drops {
        return Err(format!("{retransmits} retransmits for {drops} drops"));
    }
    Ok(())
}

/// A resumed sweep must reproduce the finished run byte for byte.
pub fn same_report(run: &[u8], resumed: &[u8]) -> Check {
    if run != resumed {
        return Err(format!(
            "resumed report differs ({} vs {} canonical bytes)",
            resumed.len(),
            run.len()
        ));
    }
    Ok(())
}

/// A live load: no connection shed or closed under it, at least every
/// body byte arrived, and the load itself is whole.
pub fn live_load(report: &LiveLoadReport, page: &Page) -> Check {
    if report.shed_conns != 0 || report.closed_conns != 0 {
        return Err(format!(
            "{} connections shed, {} closed mid-load",
            report.shed_conns, report.closed_conns
        ));
    }
    if report.bytes_in < body_bytes(page) {
        return Err(format!("{} B in, page bodies are {} B", report.bytes_in, body_bytes(page)));
    }
    fault_free_load(&report.load, page)
}

/// A stopped live server: every connection closed cleanly, and it pushed
/// the strategy's bodies once per push-enabled load.
pub fn live_server(
    stats: &LiveServerStats,
    push_loads: u64,
    strategy: &Strategy,
    page: &Page,
) -> Check {
    if let Some(c) = stats.close_log.iter().find(|c| c.reason != CloseReason::Clean) {
        return Err(format!("a connection closed {:?}", c.reason));
    }
    let expect = push_loads * strategy.pushed_bytes(page) as u64;
    if stats.pushed_bytes != expect {
        return Err(format!(
            "server pushed {} B over {push_loads} push loads, expected {expect} B",
            stats.pushed_bytes
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2push_strategies::push_all;
    use h2push_testbed::{ConnClose, RunPlan};
    use h2push_webmodel::{PageBuilder, ResourceSpec};

    fn page() -> Page {
        let mut b = PageBuilder::new("check", "check.test", 40_000, 4_000);
        b.resource(ResourceSpec::css(0, 15_000, 300, 0.4));
        b.resource(ResourceSpec::js(0, 20_000, 1_000, 5_000));
        b.resource(ResourceSpec::image(0, 25_000, 9_000, true, 1.5));
        b.text_paint(8_000, 1.0);
        b.build()
    }

    fn replayed(page: &Page, strategy: &Strategy) -> h2push_testbed::ReplayOutcome {
        RunPlan::new(page).strategy(strategy.clone()).run_one().expect("replay runs").outcome
    }

    #[test]
    fn a_real_load_passes_every_load_check() {
        let p = page();
        let s = push_all(&p, &[]);
        let out = replayed(&p, &s);
        assert_eq!(fault_free_load(&out.load, &p), Ok(()));
        assert_eq!(lossy_load(&out.load, &p), Ok(()));
        assert_eq!(bandwidth_bound(out.load.plt(), &p, 16_000_000), Ok(()));
        assert_eq!(pushed_bytes(out.server_pushed_bytes, 0, &s, &p), Ok(()));
    }

    #[test]
    fn a_missing_resource_is_rejected() {
        let p = page();
        let mut out = replayed(&p, &Strategy::NoPush);
        out.load.waterfall[2].loaded = None;
        assert!(fault_free_load(&out.load, &p).is_err());
        assert!(lossy_load(&out.load, &p).is_err());
        let mut out = replayed(&p, &Strategy::NoPush);
        out.load.requests -= 1;
        assert!(fault_free_load(&out.load, &p).is_err());
        assert!(lossy_load(&out.load, &p).is_err());
    }

    #[test]
    fn an_extra_request_is_rejected_only_without_loss() {
        let p = page();
        let mut out = replayed(&p, &Strategy::NoPush);
        out.load.requests += 1;
        assert!(fault_free_load(&out.load, &p).is_err());
        assert_eq!(lossy_load(&out.load, &p), Ok(()));
    }

    #[test]
    fn first_paint_after_plt_is_rejected() {
        let p = page();
        let mut out = replayed(&p, &Strategy::NoPush);
        out.load.first_paint = out.load.onload.map(|t| h2push_netsim::SimTime(t.0 + 1));
        assert!(fault_free_load(&out.load, &p).is_err());
    }

    #[test]
    fn altered_pushed_bytes_are_rejected() {
        let p = page();
        let s = push_all(&p, &[]);
        let out = replayed(&p, &s);
        assert!(pushed_bytes(out.server_pushed_bytes + 1, 0, &s, &p).is_err());
        // A cancelled push legitimately changes what was sent.
        assert_eq!(pushed_bytes(out.server_pushed_bytes + 1, 1, &s, &p), Ok(()));
    }

    #[test]
    fn a_plt_below_the_bandwidth_bound_is_rejected() {
        let p = page();
        let out = replayed(&p, &Strategy::NoPush);
        let rate = 16_000_000;
        let floor_ms = 100_000.0 * 8.0 / rate as f64 * 1e3;
        assert!(out.load.plt() >= floor_ms);
        assert!(bandwidth_bound(floor_ms * 0.99, &p, rate).is_err());
    }

    #[test]
    fn a_resumed_report_that_differs_is_rejected() {
        let run = vec![1u8, 2, 3];
        assert_eq!(same_report(&run, &run), Ok(()));
        assert!(same_report(&run, &[1, 2, 4]).is_err());
        assert!(same_report(&run, &[1, 2]).is_err());
    }

    #[test]
    fn recovery_needs_drops_and_a_retransmit_for_each() {
        assert_eq!(recovery(500, 500), Ok(()));
        assert_eq!(recovery(500, 499), Ok(()));
        assert!(recovery(0, 0).is_err());
        assert!(recovery(500, 501).is_err());
        assert!(recovery(500, 480).is_err());
    }

    #[test]
    fn fig6a_needs_a_minority_led_by_w1() {
        let site = |n: &str, base: f64, opt: f64| (n.to_string(), base, opt);
        let ok = [site("w1-a", 100.0, 70.0), site("w2-b", 100.0, 95.0), site("w3-c", 100.0, 99.0)];
        assert_eq!(fig6a(&ok), Ok(1));
        let none = [site("w1-a", 100.0, 90.0), site("w2-b", 100.0, 95.0)];
        assert!(fig6a(&none).is_err());
        let most =
            [site("w1-a", 100.0, 70.0), site("w2-b", 100.0, 70.0), site("w3-c", 100.0, 99.0)];
        assert!(fig6a(&most).is_err());
        let no_w1 = [site("w1-a", 100.0, 90.0), site("w2-b", 100.0, 70.0), site("w3-c", 1.0, 1.0)];
        assert!(fig6a(&no_w1).is_err());
    }

    fn live_report(p: &Page, s: &Strategy) -> LiveLoadReport {
        let out = replayed(p, s);
        LiveLoadReport {
            load: out.load,
            bytes_in: 200_000,
            bytes_out: 1_000,
            conns: 1,
            shed_conns: 0,
            closed_conns: 0,
        }
    }

    #[test]
    fn live_loads_reject_shed_closed_and_short_transfers() {
        let p = page();
        let r = live_report(&p, &Strategy::NoPush);
        assert_eq!(live_load(&r, &p), Ok(()));
        assert!(live_load(&LiveLoadReport { shed_conns: 1, ..r.clone() }, &p).is_err());
        assert!(live_load(&LiveLoadReport { closed_conns: 1, ..r.clone() }, &p).is_err());
        assert!(live_load(&LiveLoadReport { bytes_in: 1_000, ..r.clone() }, &p).is_err());
        let mut missing = r;
        missing.load.waterfall[1].loaded = None;
        assert!(live_load(&missing, &p).is_err());
    }

    #[test]
    fn live_servers_reject_unclean_closes_and_altered_pushed_bytes() {
        let p = page();
        let s = push_all(&p, &[]);
        let mut stats =
            LiveServerStats { pushed_bytes: 2 * s.pushed_bytes(&p) as u64, ..Default::default() };
        stats.close_log.push(ConnClose { reason: CloseReason::Clean, error: None });
        assert_eq!(live_server(&stats, 2, &s, &p), Ok(()));
        assert!(live_server(&stats, 3, &s, &p).is_err());
        stats.pushed_bytes += 1;
        assert!(live_server(&stats, 2, &s, &p).is_err());
        stats.pushed_bytes -= 1;
        stats.close_log.push(ConnClose { reason: CloseReason::Shed, error: None });
        assert!(live_server(&stats, 2, &s, &p).is_err());
    }
}
