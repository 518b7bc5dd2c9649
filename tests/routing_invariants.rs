//! Property-based integration tests over randomly generated topologies:
//! BGP routing invariants that must hold for every seed, checked across
//! crates (topology → bgp → dataplane).

use bobw::bgp::{BgpTimingConfig, NextHop, OriginConfig, Standalone};
use bobw::dataplane::{walk, walk_with_path, Delivery, ForwardEnv};
use bobw::event::RngFactory;
use bobw::net::Prefix;
use bobw::topology::{generate, GenConfig, Rel};
use proptest::prelude::*;

fn converged_anycast(
    seed: u64,
) -> (
    bobw::topology::Topology,
    bobw::topology::CdnDeployment,
    Standalone,
) {
    let rng = RngFactory::new(seed);
    let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
    let mut sim = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
    let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
    for &site in cdn.site_nodes() {
        sim.announce(site, prefix, OriginConfig::plain());
    }
    sim.run_to_idle(50_000_000).expect_within_budget("converge");
    (topo, cdn, sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every client AS reaches some site under anycast, with no loops, and
    /// the forwarding path follows existing links.
    #[test]
    fn anycast_full_reachability(seed in 0u64..1000) {
        let (topo, cdn, sim) = converged_anycast(seed);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        let env = ForwardEnv { topo: &topo, bgp: sim.sim(), down: &[] };
        for client in topo.client_nodes() {
            let (d, path) = walk_with_path(&env, client, prefix.addr_at(1));
            match d {
                Delivery::Delivered { node, .. } => {
                    prop_assert!(cdn.site_at(node).is_some(), "ended at non-site {node}");
                }
                other => prop_assert!(false, "client {client} undelivered: {other:?}"),
            }
            // The path is made of real links and visits no node twice.
            for w in path.windows(2) {
                prop_assert!(topo.are_linked(w[0], w[1]));
            }
            let mut sorted = path.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), path.len(), "loop in delivered path");
        }
    }

    /// Valley-free invariant: no converged best path contains a
    /// customer→provider step after a peer/provider step (no valleys, no
    /// peer-peer-peer chains), checked by walking actual forwarding paths
    /// backwards. Equivalently: once a path goes "down" (provider→customer
    /// direction), it never goes "up" or "across" again.
    #[test]
    fn forwarding_paths_are_valley_free(seed in 0u64..1000) {
        let (topo, _cdn, sim) = converged_anycast(seed);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        let env = ForwardEnv { topo: &topo, bgp: sim.sim(), down: &[] };
        for client in topo.client_nodes() {
            let (_d, path) = walk_with_path(&env, client, prefix.addr_at(1));
            // Packet direction client→site corresponds to route export
            // direction site→client. Walk the packet path and classify each
            // hop by the relationship of the NEXT node from the CURRENT
            // node's perspective: going to a Provider = "up", Peer/
            // MutualTransit = "across", Customer = "down".
            let mut gone_down_or_across = false;
            for w in path.windows(2) {
                let rel = topo.rel(w[0], w[1]).expect("linked");
                match rel {
                    Rel::Provider => {
                        prop_assert!(
                            !gone_down_or_across,
                            "valley: up-step after down/across step on {path:?}"
                        );
                    }
                    Rel::Peer => {
                        // At most one lateral step, and nothing after a
                        // down-step. (MutualTransit fabric links are exempt:
                        // R&E networks deliberately chain them.)
                        prop_assert!(
                            !gone_down_or_across,
                            "lateral step after down/across on {path:?}"
                        );
                        gone_down_or_across = true;
                    }
                    Rel::MutualTransit => {
                        // Fabric hops may chain, but never after a real
                        // down-step into a customer cone... (checked below
                        // via the down flag only for Customer steps).
                    }
                    Rel::Customer => {
                        gone_down_or_across = true;
                    }
                }
            }
        }
    }

    /// Withdrawing every origin leaves the whole network route-free: no
    /// ghost state survives full convergence.
    #[test]
    fn withdrawal_leaves_no_ghosts(seed in 0u64..1000) {
        let (topo, cdn, mut sim) = converged_anycast(seed);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        for &site in cdn.site_nodes() {
            sim.withdraw(site, prefix);
        }
        sim.run_to_idle(50_000_000)
.expect_within_budget("converge");
        for id in topo.ids() {
            prop_assert!(sim.sim().best(id, &prefix).is_none(), "{id} kept a route");
            prop_assert!(sim.sim().fib_lookup(id, prefix.addr_at(1)).is_none());
        }
    }

    /// Longest-prefix-match consistency: with a /23 covering announced
    /// anycast and a /24 unicast, every node's FIB matches the /24 for
    /// addresses inside it and the /23 for the other half.
    #[test]
    fn lpm_consistency_across_network(seed in 0u64..1000) {
        let rng = RngFactory::new(seed);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let mut sim = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let covering: Prefix = "184.164.244.0/23".parse().unwrap();
        let specific: Prefix = "184.164.244.0/24".parse().unwrap();
        let site0 = cdn.site_nodes()[0];
        sim.announce(site0, specific, OriginConfig::plain());
        for &site in cdn.site_nodes() {
            sim.announce(site, covering, OriginConfig::plain());
        }
        sim.run_to_idle(50_000_000)
.expect_within_budget("converge");
        let in_specific = specific.addr_at(7);
        let in_other_half = covering.addr_at(0x17f); // 184.164.245.127
        for id in topo.ids() {
            // CDN sites other than site0 reject the /24 (their own ASN is
            // on its path) and match their self-originated /23 instead —
            // that is correct behaviour, so they are exempt here.
            if cdn.site_at(id).is_some() {
                continue;
            }
            if let Some((p, _)) = sim.sim().fib_lookup(id, in_specific) {
                prop_assert_eq!(p, specific, "node {} matched {} for specific addr", id, p);
            }
            if let Some((p, _)) = sim.sim().fib_lookup(id, in_other_half) {
                prop_assert_eq!(p, covering);
            }
        }
        // And the specific's traffic all lands at site0.
        let env = ForwardEnv { topo: &topo, bgp: sim.sim(), down: &[] };
        for client in topo.client_nodes() {
            if let Delivery::Delivered { node, .. } = walk(&env, client, in_specific) {
                prop_assert_eq!(node, site0);
            } else {
                prop_assert!(false, "client {} lost", client);
            }
        }
    }

    /// Prepending monotonicity: a site's anycast catchment never grows when
    /// it prepends more while others stay plain.
    #[test]
    fn prepending_shrinks_catchment(seed in 0u64..200) {
        let rng = RngFactory::new(seed);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        let site0 = cdn.site_nodes()[0];
        let count_catchment = |prepend: u8| -> usize {
            let mut sim = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
            for &site in cdn.site_nodes() {
                let cfg = if site == site0 {
                    OriginConfig::prepended(prepend)
                } else {
                    OriginConfig::plain()
                };
                sim.announce(site, prefix, cfg);
            }
            sim.run_to_idle(50_000_000)
.expect_within_budget("converge");
            let env = ForwardEnv { topo: &topo, bgp: sim.sim(), down: &[] };
            topo.client_nodes()
                .filter(|c| {
                    matches!(
                        walk(&env, *c, prefix.addr_at(1)),
                        Delivery::Delivered { node, .. } if node == site0
                    )
                })
                .count()
        };
        let c0 = count_catchment(0);
        let c3 = count_catchment(3);
        let c7 = count_catchment(7);
        prop_assert!(c3 <= c0, "prepend 3 grew catchment {c3} > {c0}");
        prop_assert!(c7 <= c3, "prepend 7 grew catchment {c7} > {c3}");
    }

    /// The FIB next hop is always a real neighbor (or Local at an origin).
    #[test]
    fn fib_next_hops_are_neighbors(seed in 0u64..1000) {
        let (topo, cdn, sim) = converged_anycast(seed);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        for id in topo.ids() {
            match sim.sim().fib_lookup(id, prefix.addr_at(1)) {
                Some((_, NextHop::Via(nh))) => prop_assert!(topo.are_linked(id, nh)),
                Some((_, NextHop::Local)) => {
                    prop_assert!(cdn.site_at(id).is_some(), "{id} claims Local without originating");
                }
                None => prop_assert!(false, "{id} has no route under anycast"),
            }
        }
    }
}
