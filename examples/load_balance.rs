//! Load-aware mapping vs anycast's economics (§3's control motivation):
//! assign heavy-tailed client demand to capacity-constrained sites, fail
//! one, and compare against where pure anycast would have dumped the load.
//!
//! The second half replays the same comparison as a *time process* with
//! the demand-driven data plane (`bobw::traffic`): diurnal demand plus a
//! flash crowd, ticked through a site failure, anycast catchment steering
//! against the periodic load-aware DNS controller.
//!
//! ```sh
//! cargo run --release --example load_balance
//! ```

use bobw::bgp::{OriginConfig, Standalone};
use bobw::core::{anycast_load, assign_load_aware, ExperimentConfig, LoadModel, Testbed};
use bobw::dataplane::{catchment, ForwardEnv};
use bobw::event::{SimDuration, SimTime};
use bobw::net::Prefix;
use bobw::traffic::{Steering, Surge, TrafficConfig, TrafficSim};

fn main() {
    let testbed = Testbed::new(ExperimentConfig::quick(64));
    let topo = &testbed.topo;
    let cdn = &testbed.cdn;
    let model = LoadModel::sample(topo, &testbed.rng);
    println!(
        "== Load balancing: {} clients, total demand {:.0} units ==\n",
        model.demands().len(),
        model.total()
    );

    // --- Where does pure anycast put the load? ---
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
    let bgp_load = anycast_load(&env, cdn, &model, prefix.addr_at(1));

    // --- The CDN's load-aware assignment under 1.3x fair-share capacity. ---
    let fair = model.total() / cdn.num_sites() as f64;
    let caps = vec![fair * 1.3; cdn.num_sites()];
    let managed = assign_load_aware(topo, cdn, &model, &caps);

    println!(
        "{:<6} {:>14} {:>14} {:>10}",
        "site", "anycast load", "managed load", "capacity"
    );
    for site in cdn.sites() {
        println!(
            "{:<6} {:>14.0} {:>14.0} {:>10.0}",
            cdn.name(site),
            bgp_load[site.index()],
            managed.load[site.index()],
            caps[site.index()]
        );
    }
    let anycast_imbalance = {
        let mean = bgp_load.iter().sum::<f64>() / bgp_load.len() as f64;
        bgp_load.iter().fold(0.0f64, |a, b| a.max(*b)) / mean
    };
    println!(
        "\nimbalance (max/mean): anycast {:.2} vs managed {:.2} — anycast overloads whichever \
         site BGP's economics happen to favour; DNS control packs to capacity.",
        anycast_imbalance,
        managed.imbalance()
    );

    // --- Fail the hottest site; load-aware mapping re-packs. ---
    let hottest = cdn
        .sites()
        .max_by(|a, b| {
            managed.load[a.index()]
                .partial_cmp(&managed.load[b.index()])
                .unwrap()
        })
        .unwrap();
    let mut caps_after = caps.clone();
    caps_after[hottest.index()] = 0.0;
    let after = assign_load_aware(topo, cdn, &model, &caps_after);
    println!(
        "\nAfter failing '{}' (capacity 0): survivors carry {:.0} units, unplaced {:.0} \
         ({:.1}% of demand); imbalance {:.2}.",
        cdn.name(hottest),
        after.load.iter().sum::<f64>(),
        after.unplaced,
        100.0 * after.unplaced / model.total(),
        after.imbalance()
    );
    println!(
        "This re-pack is what the paper's techniques make *safe* to rely on: reactive-anycast \
         and proactive-prepending keep the BGP layer available while DNS moves the load."
    );

    // --- The same story as a time process: demand-driven data plane. ---
    // Diurnal demand plus a 2x flash crowd, ticked through the hottest
    // site's failure at t = 600 s. Catchment steering follows wherever
    // BGP delivers; the DNS controller re-packs within capacity every
    // few ticks (resteers adopt after a TTL lag).
    let tcfg = TrafficConfig::default();
    let mut any = TrafficSim::new(&tcfg, topo, cdn, &testbed.rng, Steering::Catchment);
    let mut dns = TrafficSim::new(&tcfg, topo, cdn, &testbed.rng, Steering::Dns);
    let surge = Surge {
        region: None,
        factor: 2.0,
        start_s: 300.0,
        ramp_s: 30.0,
        duration_s: 600.0,
    };
    any.add_surge(surge.clone());
    dns.add_surge(surge);

    let tick = SimDuration::from_secs_f64(tcfg.tick_interval_s);
    let t_fail = SimTime::ZERO + SimDuration::from_secs(600);
    let horizon = SimTime::ZERO + SimDuration::from_secs(1200);
    let down_nodes = [cdn.node(hottest)];
    let mut failed = false;
    let mut now = SimTime::ZERO;
    let addr = prefix.addr_at(1);
    while now <= horizon {
        if !failed && now >= t_fail {
            any.site_down(hottest);
            dns.site_down(hottest);
            failed = true;
        }
        let env = ForwardEnv {
            topo,
            bgp: sim.sim(),
            down: if failed { &down_nodes } else { &[] },
        };
        any.on_tick(now, t_fail, &testbed.rng, |c| catchment(&env, cdn, c, addr));
        dns.on_tick(now, t_fail, &testbed.rng, |_| None);
        now += tick;
    }
    let sa = any.summary(&[]);
    let sd = dns.summary(&[]);
    println!(
        "\nDynamic replay (flash crowd x2 at 300s, '{}' fails at 600s, {:.0}s ticks):",
        cdn.name(hottest),
        tcfg.tick_interval_s
    );
    println!(
        "{:<18} {:>16} {:>16} {:>12}",
        "steering", "peak util before", "peak util after", "shed"
    );
    println!(
        "{:<18} {:>15.2}x {:>15.2}x {:>11.1}%",
        "anycast catchment",
        sa.peak_before(),
        sa.peak_after(),
        100.0 * sa.shed_fraction()
    );
    println!(
        "{:<18} {:>15.2}x {:>15.2}x {:>11.1}% ({} resteers)",
        "load-aware DNS",
        sd.peak_before(),
        sd.peak_after(),
        100.0 * sd.shed_fraction(),
        sd.resteers
    );
}
