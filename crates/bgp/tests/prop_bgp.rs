//! Property-based tests of the BGP simulator over random small topologies:
//! convergence, determinism, decision-process invariants, and ghost-free
//! teardown under arbitrary announce/withdraw sequences.

use bobw_bgp::{BgpTimingConfig, NextHop, OriginConfig, Standalone};
use bobw_event::{RngFactory, StepOutcome};
use bobw_net::{NodeId, Prefix};
use bobw_topology::{generate, GenConfig, Topology};
use proptest::prelude::*;

fn tiny(seed: u64) -> (Topology, Vec<NodeId>) {
    let rng = RngFactory::new(seed);
    let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
    let sites = cdn.site_nodes().to_vec();
    (topo, sites)
}

fn prefix() -> Prefix {
    "184.164.244.0/24".parse().unwrap()
}

/// A random sequence of announce/withdraw operations on site origins.
#[derive(Debug, Clone)]
enum Op {
    Announce { site: usize, prepend: u8 },
    Withdraw { site: usize },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..8, 0u8..6).prop_map(|(site, prepend)| Op::Announce { site, prepend }),
            (0usize..8).prop_map(|site| Op::Withdraw { site }),
        ],
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any announce/withdraw sequence converges (queue drains) and ends in
    /// a state consistent with the surviving origin set: every node has a
    /// route iff at least one origin still announces, and every best route
    /// originates at an announcing site.
    #[test]
    fn arbitrary_churn_converges_consistently(seed in 0u64..500, ops in arb_ops()) {
        let (topo, sites) = tiny(seed);
        let rng = RngFactory::new(seed);
        let mut sim = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
        let mut announcing = [false; 8];
        for op in &ops {
            match *op {
                Op::Announce { site, prepend } => {
                    sim.announce(sites[site], prefix(), OriginConfig::prepended(prepend));
                    announcing[site] = true;
                }
                Op::Withdraw { site } => {
                    sim.withdraw(sites[site], prefix());
                    announcing[site] = false;
                }
            }
        }
        prop_assert_eq!(sim.run_to_idle(20_000_000), StepOutcome::Idle);
        let live: Vec<NodeId> = sites
            .iter()
            .enumerate()
            .filter(|(i, _)| announcing[*i])
            .map(|(_, n)| *n)
            .collect();
        for id in topo.ids() {
            match sim.sim().best(id, &prefix()) {
                Some(sel) => {
                    prop_assert!(!live.is_empty(), "{id} has a route but nothing announces");
                    prop_assert!(
                        live.contains(&sel.attrs.origin),
                        "{id} routes to a withdrawn origin {:?}", sel.attrs.origin
                    );
                }
                None => {
                    // Only other sites (loop detection) may lack a route
                    // while origins announce.
                    if !live.is_empty() {
                        prop_assert!(
                            sites.contains(&id),
                            "{id} (non-site) has no route while origins announce"
                        );
                    }
                }
            }
        }
    }

    /// Bit-identical determinism under the default (stochastic) timing:
    /// message counts, final time, and every node's best route.
    #[test]
    fn runs_are_bit_identical(seed in 0u64..500) {
        let run = |_| {
            let (topo, sites) = tiny(seed);
            let rng = RngFactory::new(seed);
            let mut sim = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
            sim.announce(sites[0], prefix(), OriginConfig::plain());
            sim.announce(sites[1], prefix(), OriginConfig::prepended(3));
            sim.run_to_idle(20_000_000)
.expect_within_budget("converge");
            sim.withdraw(sites[0], prefix());
            sim.run_to_idle(20_000_000)
.expect_within_budget("converge");
            let bests: Vec<_> = topo
                .ids()
                .map(|id| sim.sim().best(id, &prefix()).cloned())
                .collect();
            (sim.sim().stats(), sim.now(), bests)
        };
        prop_assert_eq!(run(0), run(1));
    }

    /// The decision process never selects a route whose AS path contains
    /// the node's own ASN, and FIB state always mirrors the Loc-RIB.
    #[test]
    fn no_self_loops_and_fib_mirrors_locrib(seed in 0u64..500) {
        let (topo, sites) = tiny(seed);
        let rng = RngFactory::new(seed);
        let mut sim = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        for &s in &sites {
            sim.announce(s, prefix(), OriginConfig::plain());
        }
        sim.run_to_idle(20_000_000)
.expect_within_budget("converge");
        for id in topo.ids() {
            let asn = topo.node(id).asn;
            match sim.sim().best(id, &prefix()) {
                Some(sel) if sel.from.is_some() => {
                    prop_assert!(!sel.attrs.path.contains(asn), "{id} accepted its own ASN");
                    let (_, nh) = sim.sim().fib_lookup(id, prefix().addr_at(1)).expect("fib");
                    prop_assert_eq!(nh, sel.next_hop());
                }
                Some(sel) => {
                    // Self-originated.
                    prop_assert_eq!(sel.attrs.origin, id);
                    let (_, nh) = sim.sim().fib_lookup(id, prefix().addr_at(1)).expect("fib");
                    prop_assert_eq!(nh, NextHop::Local);
                }
                None => {
                    prop_assert!(sim.sim().fib_lookup(id, prefix().addr_at(1)).is_none());
                }
            }
        }
    }

    /// Instant-timing convergence reaches the same *routing outcome* as the
    /// full stochastic timing — timing shapes the transient, not the fixed
    /// point. (Origins only, since tie-breaks are timing-independent by
    /// construction: deterministic neighbor ordering.)
    #[test]
    fn fixed_point_independent_of_timing(seed in 0u64..200) {
        let (topo, sites) = tiny(seed);
        let outcome = |timing: BgpTimingConfig| {
            let rng = RngFactory::new(seed);
            let mut sim = Standalone::new(&topo, timing, &rng);
            for &s in &sites[..3] {
                sim.announce(s, prefix(), OriginConfig::plain());
            }
            sim.run_to_idle(20_000_000)
.expect_within_budget("converge");
            topo.ids()
                .map(|id| sim.sim().best(id, &prefix()).map(|s| s.attrs.origin))
                .collect::<Vec<_>>()
        };
        let fast = outcome(BgpTimingConfig::instant());
        let slow = outcome(BgpTimingConfig::default());
        prop_assert_eq!(fast, slow);
    }

    /// Anycast catchment partitions all nodes among origins; withdrawing
    /// one origin only moves *its* catchment (other nodes keep their
    /// origin).
    #[test]
    fn withdrawal_only_moves_the_failed_catchment(seed in 0u64..200) {
        let (topo, sites) = tiny(seed);
        let rng = RngFactory::new(seed);
        let mut sim = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        for &s in &sites {
            sim.announce(s, prefix(), OriginConfig::plain());
        }
        sim.run_to_idle(20_000_000)
.expect_within_budget("converge");
        let before: Vec<_> = topo
            .ids()
            .map(|id| sim.sim().best(id, &prefix()).map(|s| s.attrs.origin))
            .collect();
        let failed = sites[0];
        sim.withdraw(failed, prefix());
        sim.run_to_idle(20_000_000)
.expect_within_budget("converge");
        for id in topo.ids() {
            let after = sim.sim().best(id, &prefix()).map(|s| s.attrs.origin);
            let prior = before[id.index()];
            if prior != Some(failed) && prior.is_some() {
                prop_assert_eq!(
                    after, prior,
                    "{}'s origin moved although its site survived", id
                );
            } else if prior == Some(failed) {
                // CDN site nodes reject each other's announcements (loop
                // detection on the shared ASN), so the failed site itself
                // may end route-free; every other node must re-home.
                if !sites.contains(&id) {
                    prop_assert!(after.is_some(), "{} lost service entirely", id);
                    prop_assert_ne!(after, Some(failed));
                }
            }
        }
    }
}
