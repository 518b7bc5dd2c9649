//! Route-collector forensics (Appendices A & B): watch a withdrawal and a
//! fresh anycast announcement through the eyes of a RIS-style collector,
//! run the paper's burst estimator, and compare per-peer convergence
//! against per-peer propagation.
//!
//! ```sh
//! cargo run --release --example collector_forensics
//! ```

use bobw::bgp::{BgpTimingConfig, OriginConfig, Standalone};
use bobw::event::RngFactory;
use bobw::measure::{
    estimate_event_time, per_peer_convergence, per_peer_propagation, pick_collector_peers, Cdf,
    Collector,
};
use bobw::net::Prefix;
use bobw::topology::{generate, GenConfig};

fn main() {
    let rng = RngFactory::new(21);
    let (topo, cdn) = generate(&GenConfig::small(), &rng);
    let peers = pick_collector_peers(&topo, 3);
    let collector = Collector::new(peers, &rng);
    println!(
        "Internet: {} ASes; collector peers with full tables: {}",
        topo.len(),
        collector.peers().len()
    );
    let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
    let site = cdn.node(cdn.by_name("atl").unwrap());

    // --- Announcement: how fast does the world learn a new prefix? ---
    let mut sim = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
    sim.sim_mut().set_record_history(true);
    sim.announce(site, prefix, OriginConfig::plain());
    sim.run_to_idle(50_000_000).expect_within_budget("converge");
    let feed = collector.feed(sim.sim().history(), prefix);
    println!("\n== Announcement from 'atl' ==");
    println!("collector saw {} updates", feed.len());
    let est = estimate_event_time(&feed, false).expect("burst found");
    println!("burst estimator places the announcement at {est}");
    let prop: Vec<f64> = per_peer_propagation(&feed, est)
        .into_iter()
        .map(|(_, d)| d.as_secs_f64())
        .collect();
    let pc = Cdf::new(prop);
    println!(
        "per-peer propagation: p50 {:.1}s  p90 {:.1}s  max {:.1}s",
        pc.quantile(0.5).unwrap(),
        pc.quantile(0.9).unwrap(),
        pc.max().unwrap()
    );

    // --- Withdrawal: the slow path. ---
    sim.sim_mut().take_history();
    let t0 = sim.now();
    sim.withdraw(site, prefix);
    sim.run_to_idle(50_000_000).expect_within_budget("converge");
    let feed = collector.feed(sim.sim().history(), prefix);
    println!("\n== Withdrawal from 'atl' (true instant: {t0}) ==");
    println!(
        "collector saw {} updates ({} withdrawals, {} path-exploration announcements)",
        feed.len(),
        feed.iter().filter(|u| u.is_withdrawal()).count(),
        feed.iter().filter(|u| !u.is_withdrawal()).count()
    );
    let est = estimate_event_time(&feed, true).expect("burst found");
    println!(
        "burst estimator places the withdrawal at {est} (error {:.1}s; paper validates ≤10s median)",
        (est.as_nanos() as f64 - t0.as_nanos() as f64).abs() / 1e9
    );
    let conv: Vec<f64> = per_peer_convergence(&feed, est)
        .into_iter()
        .map(|(_, d)| d.as_secs_f64())
        .collect();
    let cc = Cdf::new(conv);
    println!(
        "per-peer convergence: p50 {:.1}s  p90 {:.1}s  max {:.1}s",
        cc.quantile(0.5).unwrap(),
        cc.quantile(0.9).unwrap(),
        cc.max().unwrap()
    );
    println!(
        "\nThe withdrawal converges an order of magnitude slower than the announcement \
         propagates — path exploration re-advertises doomed routes, MRAI paces every \
         correction round. This asymmetry is the entire case for reactive-anycast over \
         proactive-superprefix (§3, §4)."
    );
}
