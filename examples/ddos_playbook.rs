//! An anycast "playbook" under attack (the use case of Rizvi et al.,
//! USENIX Security '22, which the paper cites as using techniques similar
//! to proactive-prepending): a site is being overwhelmed, and the operator
//! wants to *shed* most of its catchment onto other sites without taking it
//! fully offline — the flip side of failover.
//!
//! The knob is the same as the paper's §4: AS-path prepending at the
//! attacked site (instead of at the backups). We sweep the prepend count
//! and watch the site's catchment drain, then compare with the blunter
//! instrument of withdrawing entirely. The last section replays the sweep
//! against the demand-driven data plane (`bobw::traffic`): a regional
//! volumetric surge ticked through each catchment, showing how much
//! *load* (not just clients) each prepend level sheds off the site.
//!
//! ```sh
//! cargo run --release --example ddos_playbook
//! ```

use bobw::bgp::{OriginConfig, Standalone};
use bobw::core::{ExperimentConfig, Testbed};
use bobw::dataplane::{catchment, ForwardEnv};
use bobw::event::{SimDuration, SimTime};
use bobw::net::Prefix;
use bobw::topology::REGIONS;
use bobw::traffic::{Steering, Surge, TrafficConfig, TrafficSim};

fn main() {
    let testbed = Testbed::new(ExperimentConfig::quick(31));
    let topo = &testbed.topo;
    let cdn = &testbed.cdn;
    let prefix: Prefix = "184.164.247.0/24".parse().unwrap();
    let attacked = cdn.by_name("ams").unwrap();

    println!("== DDoS playbook: shed load from 'ams' by self-prepending ==\n");
    println!(
        "{:<22} {:>12} {:>16}",
        "announcement", "ams clients", "share of clients"
    );

    let total_clients = topo.client_nodes().count();
    for step in [0u8, 1, 2, 3, 5, 8] {
        let mut sim = Standalone::new(topo, testbed.cfg.timing.clone(), &testbed.rng);
        for site in cdn.sites() {
            let cfg = if site == attacked {
                OriginConfig::prepended(step)
            } else {
                OriginConfig::plain()
            };
            sim.announce(cdn.node(site), prefix, cfg);
        }
        sim.run_to_idle(testbed.cfg.max_events)
            .expect_within_budget("converge");
        let env = ForwardEnv {
            topo,
            bgp: sim.sim(),
            down: &[],
        };
        let kept = topo
            .client_nodes()
            .filter(|c| catchment(&env, cdn, *c, prefix.addr_at(1)) == Some(attacked))
            .count();
        println!(
            "{:<22} {:>12} {:>15.1}%",
            format!("prepend x{step}"),
            kept,
            100.0 * kept as f64 / total_clients as f64
        );
    }

    // The blunt instrument: withdraw entirely.
    {
        let mut sim = Standalone::new(topo, testbed.cfg.timing.clone(), &testbed.rng);
        for site in cdn.sites() {
            if site != attacked {
                sim.announce(cdn.node(site), prefix, OriginConfig::plain());
            }
        }
        sim.run_to_idle(testbed.cfg.max_events)
            .expect_within_budget("converge");
        let env = ForwardEnv {
            topo,
            bgp: sim.sim(),
            down: &[],
        };
        let kept = topo
            .client_nodes()
            .filter(|c| catchment(&env, cdn, *c, prefix.addr_at(1)) == Some(attacked))
            .count();
        println!(
            "{:<22} {:>12} {:>15.1}%",
            "withdraw",
            kept,
            100.0 * kept as f64 / total_clients as f64
        );
    }

    println!(
        "\nPrepending drains the catchment gradually — clients whose routes are chosen on \
         LOCAL_PREF (direct peers/customers) stick to ams no matter how long the path gets, \
         which is exactly the control residue Appendix C.1 dissects. Withdrawal clears \
         everyone but gives up the site entirely (and costs a convergence transient, \
         Figure 3)."
    );

    // --- Does shedding the catchment shed the *load*? ---
    // Replay each prepend level against the demand-driven data plane: a
    // 6x volumetric surge concentrated in ams's home region, demand
    // following the (prepend-shrunk) catchment tick by tick.
    let tcfg = TrafficConfig::default();
    let region = REGIONS
        .iter()
        .position(|r| r.name == "amsterdam")
        .expect("amsterdam region");
    println!(
        "\nDynamic replay (6x surge in amsterdam at 60s):\n{:<22} {:>14} {:>12}",
        "announcement", "ams peak util", "shed"
    );
    let tick = SimDuration::from_secs_f64(tcfg.tick_interval_s);
    let t_surge = SimTime::ZERO + SimDuration::from_secs(60);
    let horizon = SimTime::ZERO + SimDuration::from_secs(600);
    for step in [0u8, 3, 8] {
        let mut sim = Standalone::new(topo, testbed.cfg.timing.clone(), &testbed.rng);
        for site in cdn.sites() {
            let cfg = if site == attacked {
                OriginConfig::prepended(step)
            } else {
                OriginConfig::plain()
            };
            sim.announce(cdn.node(site), prefix, cfg);
        }
        sim.run_to_idle(testbed.cfg.max_events)
            .expect_within_budget("converge");
        let env = ForwardEnv {
            topo,
            bgp: sim.sim(),
            down: &[],
        };
        let mut tr = TrafficSim::new(&tcfg, topo, cdn, &testbed.rng, Steering::Catchment);
        tr.add_surge(Surge {
            region: Some(region),
            factor: 6.0,
            start_s: 60.0,
            ramp_s: 10.0,
            duration_s: 600.0,
        });
        let mut now = SimTime::ZERO;
        while now <= horizon {
            tr.on_tick(now, t_surge, &testbed.rng, |c| {
                catchment(&env, cdn, c, prefix.addr_at(1))
            });
            now += tick;
        }
        let s = tr.summary(&[]);
        println!(
            "{:<22} {:>13.2}x {:>11.1}%",
            format!("prepend x{step}"),
            s.peak_utilization_after[attacked.index()],
            100.0 * s.shed_fraction()
        );
    }
    println!(
        "\nThe catchment numbers above translate directly into load: each prepend level \
         moves a chunk of the attack volume onto other sites' capacity, trading ams \
         overload for fleet-wide utilization — without ever touching DNS or withdrawing \
         the announcement."
    );
}
