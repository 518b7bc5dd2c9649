//! Timing calibration tool: checks the raw BGP dynamics against the
//! paper's published scales before any experiment runs.
//!
//! * Unicast withdrawal convergence (Appendix A / Figure 3 target:
//!   ~100 s median, ~400 s p90 per observer).
//! * Fresh anycast announcement propagation (Appendix B / Figure 4 target:
//!   <10 s median per observer).
//!
//! Run: `cargo run --release -p bobw-bench --bin calibrate`

use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
use bobw_event::{RngFactory, SimTime};
use bobw_net::Prefix;
use bobw_topology::{generate, GenConfig};

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let cfg = GenConfig::eval();
    let rng = RngFactory::new(42);
    let (topo, cdn) = generate(&cfg, &rng);
    println!(
        "topology: {} nodes, {} links",
        topo.len(),
        topo.link_count()
    );
    let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
    let timing = BgpTimingConfig::default();

    // --- Anycast propagation: announce at one site, fresh network. ---
    let mut props: Vec<f64> = Vec::new();
    for (i, &site) in cdn.site_nodes().iter().enumerate() {
        let mut s = Standalone::new(&topo, timing.clone(), &rng.derive("prop", i as u64));
        s.sim_mut().set_record_history(true);
        s.announce(site, prefix, OriginConfig::plain());
        let t0 = SimTime::ZERO;
        s.run_to_idle(50_000_000).expect_within_budget("converge");
        // First time each node got a best route.
        let mut first = std::collections::HashMap::new();
        for rc in s.sim().history() {
            if rc.new.is_some() {
                first.entry(rc.node).or_insert(rc.time);
            }
        }
        props.extend(first.values().map(|t| t.since(t0).as_secs_f64()));
        println!(
            "prop site {}: events={} now={}",
            cdn.name(bobw_topology::SiteId(i as u8)),
            s.sim().stats().messages,
            s.now()
        );
    }
    props.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "anycast announcement propagation: n={} p50={:.1}s p90={:.1}s p99={:.1}s",
        props.len(),
        quantile(&props, 0.5),
        quantile(&props, 0.9),
        quantile(&props, 0.99)
    );

    // --- Unicast withdrawal convergence. ---
    let mut convs: Vec<f64> = Vec::new();
    for (i, &site) in cdn.site_nodes().iter().enumerate() {
        let mut s = Standalone::new(&topo, timing.clone(), &rng.derive("wd", i as u64));
        s.announce(site, prefix, OriginConfig::plain());
        s.run_to_idle(50_000_000).expect_within_budget("converge");
        let t0 = s.now();
        s.sim_mut().set_record_history(true);
        s.withdraw(site, prefix);
        let out = s.run_to_idle(50_000_000);
        // Per-node convergence: last change time after withdrawal.
        let mut last = std::collections::HashMap::new();
        for rc in s.sim().history() {
            last.insert(rc.node, rc.time);
        }
        convs.extend(last.values().map(|t| t.since(t0).as_secs_f64()));
        // Exploration depth diagnostics: best-route changes per node during
        // convergence, and update-vs-withdraw mix.
        let mut per_node = std::collections::HashMap::new();
        let mut to_some = 0u64;
        let mut to_none = 0u64;
        for rc in s.sim().history() {
            *per_node.entry(rc.node).or_insert(0u64) += 1;
            if rc.new.is_some() {
                to_some += 1;
            } else {
                to_none += 1;
            }
        }
        let max_changes = per_node.values().max().copied().unwrap_or(0);
        let avg: f64 = per_node.values().sum::<u64>() as f64 / per_node.len().max(1) as f64;
        println!(
            "withdraw site {}: outcome={:?} events={} took {:.0}s; changes/node avg={:.1} max={} (explore={} drop={})",
            cdn.name(bobw_topology::SiteId(i as u8)),
            out,
            s.sim().stats().messages,
            s.now().since(t0).as_secs_f64(),
            avg,
            max_changes,
            to_some,
            to_none
        );
    }
    convs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    println!(
        "unicast withdrawal convergence: n={} p50={:.1}s p90={:.1}s p99={:.1}s max={:.1}s",
        convs.len(),
        quantile(&convs, 0.5),
        quantile(&convs, 0.9),
        quantile(&convs, 0.99),
        convs.last().copied().unwrap_or(f64::NAN)
    );
}
