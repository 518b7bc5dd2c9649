//! §3's first hybrid non-solution: "identify the subset of clients with
//! poor anycast performance and use unicast just for these clients"
//! [Calder et al. '15]. The paper rejects it because that subset inherits
//! unicast's DNS-bound failover.
//!
//! This binary quantifies the rejection: it finds the poor-anycast clients
//! on the simulated Internet (anycast RTT inflation over the best site),
//! then shows the failover exposure of exactly that subset under the
//! DNS model.
//!
//! Run: `cargo run --release -p bobw-bench --bin hybrid_unicast [--scale quick]`

use bobw_bench::{parse_cli, write_json};
use bobw_bgp::{OriginConfig, Standalone};
use bobw_core::Testbed;
use bobw_dataplane::{rtt_to_site, walk, Delivery, ForwardEnv};
use bobw_dns::{ClientPopulation, DnsFailoverConfig};
use bobw_event::{RngFactory, SimDuration};
use bobw_measure::{percent, Cdf};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct HybridReport {
    clients: usize,
    measurable: usize,
    poor_anycast: usize,
    poor_fraction: f64,
    inflation_ms_p50: f64,
    inflation_ms_p90: f64,
    unicast_subset_failover_p50_s: f64,
    unicast_subset_failover_p90_s: f64,
}

fn main() {
    let cli = parse_cli();
    let cfg = cli.scale.config(cli.seed);
    let testbed = Testbed::new(cfg.clone());
    let topo = &testbed.topo;
    let cdn = &testbed.cdn;
    let plan = &cfg.plan;

    // Converge an anycast announcement plus one unicast measurement prefix
    // per comparison site (we reuse rtt_probe per-site sequentially).
    let rng = RngFactory::new(cli.seed);
    let mut sim = Standalone::new(topo, cfg.timing.clone(), &rng);
    for s in cdn.sites() {
        sim.announce(cdn.node(s), plan.anycast_probe, OriginConfig::plain());
    }
    sim.run_to_idle(cfg.max_events)
        .expect_within_budget("converge");

    // Anycast RTT per client, and the geographically best site's RTT lower
    // bound (direct fiber distance — the CDN could serve from there with a
    // unicast record).
    let env = ForwardEnv {
        topo,
        bgp: sim.sim(),
        down: &[],
    };
    let mut inflation_ms = Vec::new();
    let mut measurable = 0usize;
    let mut poor = 0usize;
    let threshold_ms = 25.0;
    let clients: Vec<_> = topo.client_nodes().collect();
    for &client in &clients {
        let anycast_rtt = match walk(&env, client, plan.anycast_addr()) {
            Delivery::Delivered { .. } => rtt_to_site(&env, client, plan.anycast_addr()),
            _ => None,
        };
        let Some(anycast_rtt) = anycast_rtt else {
            continue;
        };
        // Best possible: nearest site by great-circle fiber distance.
        let best_ms = cdn
            .site_nodes()
            .iter()
            .map(|&s| {
                let km = topo.node(client).coords.distance_km(&topo.node(s).coords);
                2.0 * bobw_topology::propagation_delay(km).as_secs_f64() * 1000.0
            })
            .fold(f64::INFINITY, f64::min);
        measurable += 1;
        let infl = anycast_rtt.as_secs_f64() * 1000.0 - best_ms;
        inflation_ms.push(infl.max(0.0));
        if infl > threshold_ms {
            poor += 1;
        }
    }
    let infl_cdf = Cdf::new(inflation_ms);

    // The poor subset gets unicast records: its failover is DNS-bound.
    let dns = ClientPopulation::sample(
        &DnsFailoverConfig::default(),
        poor.max(1),
        &rng.derive("hybrid-dns", 0),
    );
    let dns_cdf = Cdf::new(dns.sorted_secs());

    let report = HybridReport {
        clients: clients.len(),
        measurable,
        poor_anycast: poor,
        poor_fraction: poor as f64 / measurable.max(1) as f64,
        inflation_ms_p50: infl_cdf.median().unwrap_or(f64::NAN),
        inflation_ms_p90: infl_cdf.quantile(0.9).unwrap_or(f64::NAN),
        unicast_subset_failover_p50_s: dns_cdf.median().unwrap_or(f64::NAN),
        unicast_subset_failover_p90_s: dns_cdf.quantile(0.9).unwrap_or(f64::NAN),
    };

    println!("§3 hybrid non-solution #1 — unicast for poor-anycast clients");
    println!(
        "clients measurable: {} / {}; anycast RTT inflation p50 {:.1} ms, p90 {:.1} ms",
        report.measurable, report.clients, report.inflation_ms_p50, report.inflation_ms_p90
    );
    println!(
        "poor-anycast subset (inflation > {threshold_ms:.0} ms): {} clients = {}",
        report.poor_anycast,
        percent(report.poor_fraction)
    );
    println!(
        "that subset's failover under unicast+DNS: p50 {:.0}s, p90 {:.0}s — vs ~{}s for \
         reactive-anycast (Figure 2). Fixing anycast's performance problem this way \
         re-creates unicast's availability problem for exactly the moved clients, which \
         is why the paper rejects it (§3).",
        report.unicast_subset_failover_p50_s,
        report.unicast_subset_failover_p90_s,
        SimDuration::from_secs(6).as_secs()
    );

    write_json(&cli, "hybrid_unicast", &report);
}
