//! Target selection (§5.1).
//!
//! For each site the paper selects clients that are (a) within 50 ms RTT of
//! the site — measured via a unicast announcement from the site — and
//! (b) *not* routed to the site by anycast, because those are the clients
//! on which a technique can demonstrate control *beyond* anycast. Targets
//! are spread across ASes; in the simulator each eligible client AS
//! contributes one target, and a deterministic shuffle caps the count.

use bobw_bgp::BgpSim;
use bobw_dataplane::{ForwardEnv, Resolver};
use bobw_event::{RngFactory, SimDuration};
use bobw_net::NodeId;
use bobw_topology::{CdnDeployment, SiteId, Topology};
use rand::seq::SliceRandom;

use crate::plan::AddressPlan;

/// Selects up to `limit` targets for `site` from a converged simulation in
/// which `plan.rtt_probe` is announced unicast from the site and
/// `plan.anycast_probe` is announced from every site.
///
/// `require_not_anycast` applies criterion (b); the harness disables it for
/// the pure-anycast technique, whose "controllable" clients are by
/// definition the ones anycast *does* route to the site (§5.2's
/// reachability test keeps targets that respond at the current site).
#[allow(clippy::too_many_arguments)]
pub fn select_targets(
    topo: &Topology,
    cdn: &CdnDeployment,
    bgp: &BgpSim,
    plan: &AddressPlan,
    site: SiteId,
    proximity_ms: f64,
    require_not_anycast: bool,
    limit: usize,
    rng: &RngFactory,
) -> Vec<NodeId> {
    select_targets_counted(
        topo,
        cdn,
        bgp,
        plan,
        site,
        proximity_ms,
        require_not_anycast,
        limit,
        rng,
    )
    .0
}

/// [`select_targets`] plus the total eligible-candidate count before the
/// cap. Candidate filtering resolves every client node toward two
/// addresses, so a harness wanting both the capped selection and the
/// candidate count should make one call here rather than two
/// `select_targets` calls.
#[allow(clippy::too_many_arguments)]
pub fn select_targets_counted(
    topo: &Topology,
    cdn: &CdnDeployment,
    bgp: &BgpSim,
    plan: &AddressPlan,
    site: SiteId,
    proximity_ms: f64,
    require_not_anycast: bool,
    limit: usize,
    rng: &RngFactory,
) -> (Vec<NodeId>, usize) {
    let mut resolver = Resolver::new();
    let mut res = resolver.at(ForwardEnv {
        topo,
        bgp,
        down: &[],
    });
    let max_rtt = SimDuration::from_secs_f64(proximity_ms / 1000.0);
    let mut eligible: Vec<NodeId> = topo
        .client_nodes()
        .filter(|client| {
            match res.rtt(*client, plan.rtt_addr()) {
                Some(rtt) if rtt <= max_rtt => {}
                _ => return false,
            }
            if require_not_anycast {
                res.site(cdn, *client, plan.anycast_addr()) != Some(site)
            } else {
                true
            }
        })
        .collect();
    let num_candidates = eligible.len();
    // Deterministic spread: shuffle with a site-keyed stream, then cap.
    let mut r = rng.stream("target-shuffle", site.0 as u64);
    eligible.shuffle(&mut r);
    eligible.truncate(limit);
    // Sorted output keeps downstream processing order-stable.
    eligible.sort();
    (eligible, num_candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
    use bobw_dataplane::{catchment, rtt_to_site};
    use bobw_topology::{generate, GenConfig};

    fn converged_testbed() -> (Topology, CdnDeployment, Standalone, AddressPlan, SiteId) {
        let rng = RngFactory::new(11);
        let (topo, cdn) = generate(&GenConfig::small(), &rng);
        let plan = AddressPlan::default();
        let site = cdn.by_name("ams").unwrap();
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(cdn.node(site), plan.rtt_probe, OriginConfig::plain());
        for other in cdn.sites() {
            s.announce(cdn.node(other), plan.anycast_probe, OriginConfig::plain());
        }
        s.run_to_idle(50_000_000).expect_within_budget("converge");
        (topo, cdn, s, plan, site)
    }

    #[test]
    fn criteria_are_enforced() {
        let (topo, cdn, s, plan, site) = converged_testbed();
        let rng = RngFactory::new(11);
        let targets = select_targets(&topo, &cdn, s.sim(), &plan, site, 50.0, true, 1000, &rng);
        assert!(!targets.is_empty(), "no targets selected");
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        for t in &targets {
            let rtt = rtt_to_site(&env, *t, plan.rtt_addr()).expect("reachable");
            assert!(rtt <= SimDuration::from_secs_f64(0.050), "{t}: {rtt}");
            assert_ne!(
                catchment(&env, &cdn, *t, plan.anycast_addr()),
                Some(site),
                "{t} is anycast-routed to the site"
            );
            assert!(topo.node(*t).kind.hosts_clients());
        }
    }

    #[test]
    fn limit_and_determinism() {
        let (topo, cdn, s, plan, site) = converged_testbed();
        let rng = RngFactory::new(11);
        let a = select_targets(&topo, &cdn, s.sim(), &plan, site, 50.0, true, 5, &rng);
        let b = select_targets(&topo, &cdn, s.sim(), &plan, site, 50.0, true, 5, &rng);
        assert_eq!(a, b);
        assert!(a.len() <= 5);
        // Output is sorted.
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(a, sorted);
    }

    #[test]
    fn without_anycast_criterion_more_targets_qualify() {
        let (topo, cdn, s, plan, site) = converged_testbed();
        let rng = RngFactory::new(11);
        let strict = select_targets(&topo, &cdn, s.sim(), &plan, site, 50.0, true, 10_000, &rng);
        let loose = select_targets(&topo, &cdn, s.sim(), &plan, site, 50.0, false, 10_000, &rng);
        assert!(loose.len() >= strict.len());
        // ams is well connected, so anycast captures some nearby clients:
        // the strict set must actually be smaller.
        assert!(
            loose.len() > strict.len(),
            "expected ams to capture some nearby clients via anycast (strict={}, loose={})",
            strict.len(),
            loose.len()
        );
    }

    #[test]
    fn tighter_proximity_selects_fewer() {
        let (topo, cdn, s, plan, site) = converged_testbed();
        let rng = RngFactory::new(11);
        let wide = select_targets(&topo, &cdn, s.sim(), &plan, site, 50.0, true, 10_000, &rng);
        let tight = select_targets(&topo, &cdn, s.sim(), &plan, site, 10.0, true, 10_000, &rng);
        assert!(tight.len() <= wide.len());
    }
}
