//! A Verfploeter-style catchment census (the measurement the paper uses
//! for its §5.1 target-selection criterion): map every client AS to the
//! site its anycast traffic lands at, and break the map down by region and
//! by the BGP reason (relationship class of the first hop).
//!
//! ```sh
//! cargo run --release --example catchment_map
//! ```

use std::collections::BTreeMap;

use bobw::bgp::{OriginConfig, Standalone};
use bobw::core::{ExperimentConfig, Testbed};
use bobw::dataplane::{walk_with_path, Delivery, ForwardEnv};
use bobw::net::Prefix;
use bobw::topology::REGIONS;

fn main() {
    let testbed = Testbed::new(ExperimentConfig::quick(5));
    let topo = &testbed.topo;
    let cdn = &testbed.cdn;
    let prefix: Prefix = "184.164.247.0/24".parse().unwrap();

    let mut sim = Standalone::new(topo, testbed.cfg.timing.clone(), &testbed.rng);
    for site in cdn.sites() {
        sim.announce(cdn.node(site), prefix, OriginConfig::plain());
    }
    sim.run_to_idle(testbed.cfg.max_events)
        .expect_within_budget("converge");
    let env = ForwardEnv {
        topo,
        bgp: sim.sim(),
        down: &[],
    };

    // site -> count, and (client region -> site -> count).
    let mut per_site: BTreeMap<String, usize> = BTreeMap::new();
    let mut per_region: BTreeMap<&str, BTreeMap<String, usize>> = BTreeMap::new();
    let mut hops_hist: BTreeMap<usize, usize> = BTreeMap::new();
    for client in topo.client_nodes() {
        let (delivery, path) = walk_with_path(&env, client, prefix.addr_at(1));
        let Delivery::Delivered { node, hops, .. } = delivery else {
            continue;
        };
        let site = cdn.site_at(node).expect("anycast terminates at sites");
        let name = cdn.name(site).to_string();
        *per_site.entry(name.clone()).or_default() += 1;
        let region = REGIONS[topo.node(client).region].name;
        *per_region
            .entry(region)
            .or_default()
            .entry(name)
            .or_default() += 1;
        *hops_hist.entry(hops).or_default() += 1;
        let _ = path;
    }

    println!(
        "== Anycast catchment census ({} client ASes) ==\n",
        topo.client_nodes().count()
    );
    println!("{:<8} {:>8}", "site", "clients");
    for (site, n) in &per_site {
        println!("{site:<8} {n:>8}");
    }

    println!("\nPer-region dominant site:");
    for (region, sites) in &per_region {
        let (best, n) = sites.iter().max_by_key(|(_, n)| **n).expect("nonempty");
        let total: usize = sites.values().sum();
        println!(
            "  {region:<16} -> {best:<5} ({n}/{total} clients{})",
            if sites.len() > 1 {
                format!(", {} sites seen", sites.len())
            } else {
                String::new()
            }
        );
    }

    println!("\nAS-hops to the serving site:");
    for (hops, n) in &hops_hist {
        println!("  {hops} hops: {n}");
    }
    println!(
        "\nRegions without a nearby site drain to whichever site their transit's business \
         relationships prefer — the control gap that DNS-based steering (and this paper's \
         hybrid techniques) exist to close."
    );
}
