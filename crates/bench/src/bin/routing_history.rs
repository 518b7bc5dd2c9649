//! The full Appendix A discovery pipeline, end to end — exactly the chain
//! the paper runs against RIPEstat + RIS archives, here against simulated
//! collector data:
//!
//! 1. simulate a multi-day prefix lifecycle (announced for days, withdrawn,
//!    later re-announced);
//! 2. aggregate the collector feed into **day-granularity visibility**
//!    (RIPEstat Routing History);
//! 3. flag potential withdrawals via the paper's `>0.9 → <0.7` rule;
//! 4. drill into the update stream around the flagged day, estimate the
//!    withdrawal instant from the 5-in-20s burst, and compute per-peer
//!    convergence.
//!
//! Run: `cargo run --release -p bobw-bench --bin routing_history`

use bobw_bench::{parse_cli, write_json};
use bobw_bgp::{OriginConfig, Standalone};
use bobw_event::{RngFactory, SimDuration, SimTime};
use bobw_measure::{
    daily_visibility, estimate_event_time, flag_potential_withdrawals, per_peer_convergence,
    pick_collector_peers, Cdf, Collector,
};
use bobw_net::Prefix;
use bobw_topology::{attach_origin, generate, OriginProfile};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct HistoryReport {
    visibility: Vec<f64>,
    flagged_days: Vec<usize>,
    estimated_withdrawal_s: Option<f64>,
    true_withdrawal_s: f64,
    convergence_p50: f64,
    convergence_p90: f64,
}

fn main() {
    let cli = parse_cli();
    let cfg = cli.scale.config(cli.seed);
    let rng = RngFactory::new(cli.seed);
    let (mut topo, _cdn) = generate(&cfg.gen, &rng);
    let origin = attach_origin(&mut topo, OriginProfile::Hypergiant, &rng, 0);
    let peers = pick_collector_peers(&topo, 3);
    let collector = Collector::new(peers.clone(), &rng);
    let prefix: Prefix = "184.164.248.0/24".parse().unwrap();

    // Lifecycle: announce on day 0, withdraw mid-day-2, re-announce day 4.
    let mut sim = Standalone::new(&topo, cfg.timing.clone(), &rng);
    sim.sim_mut().set_record_history(true);
    sim.announce(origin, prefix, OriginConfig::plain());
    sim.run_to_idle(cfg.max_events)
        .expect_within_budget("converge");
    let t_withdraw = SimTime::from_secs(2 * 86_400 + 41_234);
    sim.run_until(t_withdraw, cfg.max_events)
        .expect_within_budget("run to deadline");
    sim.withdraw(origin, prefix);
    sim.run_to_idle(cfg.max_events)
        .expect_within_budget("converge");
    sim.run_until(SimTime::from_secs(4 * 86_400), cfg.max_events)
        .expect_within_budget("run to deadline");
    sim.announce(origin, prefix, OriginConfig::plain());
    sim.run_until(SimTime::from_secs(5 * 86_400), cfg.max_events)
        .expect_within_budget("run to deadline");

    let feed = collector.feed(sim.sim().history(), prefix);
    println!(
        "collector: {} peers, {} updates over 5 simulated days",
        peers.len(),
        feed.len()
    );

    // Step 2-3: day-granularity visibility and the paper's flag rule.
    let vis = daily_visibility(&feed, &peers, 5);
    println!("\nRouting-History visibility by day:");
    for (day, v) in vis.iter().enumerate() {
        println!("  day {day}: {:>5.1}% of peers", v * 100.0);
    }
    let flagged = flag_potential_withdrawals(&vis);
    println!("flagged as potentially withdrawn on day(s): {flagged:?}");

    // Step 4: drill into the updates *around the flagged day* (the paper
    // downloads updates from one day before to one day after the potential
    // withdrawal) and estimate the withdrawal instant.
    let window: Vec<_> = match flagged.first() {
        Some(&day) => {
            let lo = SimTime::from_secs((day as u64).saturating_sub(2) * 86_400);
            let hi = SimTime::from_secs((day as u64 + 1) * 86_400);
            feed.iter()
                .filter(|u| u.time >= lo && u.time <= hi)
                .cloned()
                .collect()
        }
        None => feed.clone(),
    };
    let est = estimate_event_time(&window, true);
    let (est_s, conv) = match est {
        Some(t) => {
            let conv: Vec<f64> = per_peer_convergence(&window, t)
                .into_iter()
                .map(|(_, d)| d.as_secs_f64())
                .collect();
            (Some(t.as_secs_f64()), conv)
        }
        None => (None, Vec::new()),
    };
    let cdf = Cdf::new(conv);
    println!(
        "\nburst-estimated withdrawal: {} (true: {:.0}s; error {})",
        est_s
            .map(|s| format!("{s:.0}s"))
            .unwrap_or_else(|| "not found".into()),
        t_withdraw.as_secs_f64(),
        est_s
            .map(|s| format!("{:.1}s", (s - t_withdraw.as_secs_f64()).abs()))
            .unwrap_or_else(|| "-".into()),
    );
    println!(
        "per-peer convergence from the estimate: p50 {:.1}s p90 {:.1}s (n={})",
        cdf.median().unwrap_or(f64::NAN),
        cdf.quantile(0.9).unwrap_or(f64::NAN),
        cdf.len()
    );

    // Sanity assertions: the pipeline must find the day-2 withdrawal and
    // nothing else.
    assert_eq!(flagged, vec![3], "visibility drop must land on day 3");
    assert!(vis[0] > 0.9 && vis[1] > 0.9, "announced days fully visible");
    assert!(vis[3] < 0.2, "withdrawn day near-invisible");
    assert!(vis[4] > 0.9, "re-announcement restores visibility");

    let report = HistoryReport {
        visibility: vis,
        flagged_days: flagged,
        estimated_withdrawal_s: est_s,
        true_withdrawal_s: t_withdraw.as_secs_f64(),
        convergence_p50: cdf.median().unwrap_or(f64::NAN),
        convergence_p90: cdf.quantile(0.9).unwrap_or(f64::NAN),
    };
    write_json(&cli, "routing_history", &report);
    let _ = SimDuration::ZERO;
}
