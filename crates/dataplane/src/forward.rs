//! Hop-by-hop forwarding over the current FIBs.

use bobw_bgp::{BgpSim, NextHop};
use bobw_event::SimDuration;
use bobw_net::{Ipv4Net, NodeId};
use bobw_topology::Topology;

/// Hop budget for a forwarding walk, standing in for the IP TTL. AS-level
/// paths are short; anything beyond this is a routing loop.
pub const MAX_HOPS: usize = 64;

/// Everything a forwarding walk needs to know about the world.
pub struct ForwardEnv<'a> {
    pub topo: &'a Topology,
    pub bgp: &'a BgpSim,
    /// Nodes that currently drop all traffic (failed CDN sites). A packet
    /// arriving here — even one the FIB would "deliver" — is lost, exactly
    /// like a packet reaching a dead PEERING site.
    pub down: &'a [NodeId],
}

impl ForwardEnv<'_> {
    fn is_down(&self, n: NodeId) -> bool {
        self.down.contains(&n)
    }
}

/// Outcome of forwarding one packet toward a destination address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// The packet reached a node that locally originates the matched
    /// prefix (for CDN prefixes: a live site).
    Delivered {
        node: NodeId,
        hops: usize,
        latency: SimDuration,
    },
    /// Some router on the path had no route at all.
    Blackhole { at: NodeId, hops: usize },
    /// The packet revisited a router: a forwarding loop (stale routes
    /// pointing at each other during convergence). Real packets die by TTL.
    Loop { at: NodeId, hops: usize },
    /// The packet arrived at a node marked down (the failed site).
    DeadNode { at: NodeId, hops: usize },
    /// The FIB pointed across a failed link (hold timer not yet expired):
    /// the packet is dropped at the interface.
    DeadLink { at: NodeId, hops: usize },
}

impl Delivery {
    /// Did the packet arrive at a live origin?
    pub fn delivered_to(&self) -> Option<NodeId> {
        match self {
            Delivery::Delivered { node, .. } => Some(*node),
            _ => None,
        }
    }
}

/// Forwards a packet from `from` toward `dst`, following each node's
/// current FIB. Returns where (and whether) it arrived.
pub fn walk(env: &ForwardEnv<'_>, from: NodeId, dst: Ipv4Net) -> Delivery {
    walk_inner(env, from, dst, None)
}

/// Like [`walk`], but also returns the node path traversed (including the
/// source and the final node). Used by the Appendix C.1 divergence
/// analysis, which compares AS-level paths the way reverse traceroute does.
pub fn walk_with_path(env: &ForwardEnv<'_>, from: NodeId, dst: Ipv4Net) -> (Delivery, Vec<NodeId>) {
    let mut path = Vec::with_capacity(8);
    let d = walk_inner(env, from, dst, Some(&mut path));
    (d, path)
}

fn walk_inner(
    env: &ForwardEnv<'_>,
    from: NodeId,
    dst: Ipv4Net,
    mut record: Option<&mut Vec<NodeId>>,
) -> Delivery {
    let mut node = from;
    let mut hops = 0usize;
    let mut latency = SimDuration::ZERO;
    // Visited set for loop detection; paths are short so a vec scan beats
    // hashing.
    let mut visited: Vec<NodeId> = Vec::with_capacity(8);
    loop {
        if let Some(rec) = record.as_deref_mut() {
            rec.push(node);
        }
        if env.is_down(node) {
            return Delivery::DeadNode { at: node, hops };
        }
        if visited.contains(&node) {
            return Delivery::Loop { at: node, hops };
        }
        visited.push(node);
        match env.bgp.fib_lookup(node, dst) {
            None => return Delivery::Blackhole { at: node, hops },
            Some((_, NextHop::Local)) => {
                return Delivery::Delivered {
                    node,
                    hops,
                    latency,
                }
            }
            Some((_, NextHop::Via(next))) => {
                if !env.bgp.link_is_up(node, next) {
                    return Delivery::DeadLink { at: node, hops };
                }
                let link = env
                    .topo
                    .delay(node, next)
                    .expect("FIB next hop must be a neighbor");
                latency += link;
                node = next;
                hops += 1;
                if hops > MAX_HOPS {
                    return Delivery::Loop { at: node, hops };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
    use bobw_event::RngFactory;
    use bobw_net::{Asn, Prefix};
    use bobw_topology::{NodeKind, Topology, REGIONS};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// t1 provides mid and leaf2; mid provides leaf.
    fn chain() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let c = REGIONS[0].center;
        let t1 = t.add_node(Asn(10), NodeKind::Tier1, c, 0);
        let mid = t.add_node(Asn(20), NodeKind::Transit, c, 0);
        let leaf = t.add_node(Asn(30), NodeKind::Stub, c, 0);
        let leaf2 = t.add_node(Asn(40), NodeKind::Stub, c, 0);
        t.link_provider_customer(t1, mid);
        t.link_provider_customer(mid, leaf);
        t.link_provider_customer(t1, leaf2);
        (t, t1, mid, leaf, leaf2)
    }

    fn converged(topo: &Topology, origin: NodeId, prefix: Prefix) -> Standalone {
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(topo, BgpTimingConfig::instant(), &rng);
        s.announce(origin, prefix, OriginConfig::plain());
        s.run_to_idle(1_000_000).expect_within_budget("converge");
        s
    }

    #[test]
    fn delivers_across_hops_with_latency() {
        let (topo, _t1, _mid, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        match walk(&env, leaf2, pre.addr_at(10)) {
            Delivery::Delivered {
                node,
                hops,
                latency,
            } => {
                assert_eq!(node, leaf);
                assert_eq!(hops, 3); // leaf2 -> t1 -> mid -> leaf
                assert!(latency > SimDuration::ZERO);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_with_path_records_route() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        let (d, path) = walk_with_path(&env, leaf2, pre.addr_at(1));
        assert!(matches!(d, Delivery::Delivered { .. }));
        assert_eq!(path, vec![leaf2, t1, mid, leaf]);
    }

    #[test]
    fn blackhole_when_no_route() {
        let (topo, _, _, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        // An address outside any announced prefix dies at the source.
        match walk(&env, leaf2, p("9.9.9.0/24").addr_at(1)) {
            Delivery::Blackhole { at, hops } => {
                assert_eq!(at, leaf2);
                assert_eq!(hops, 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dead_site_swallows_packets() {
        let (topo, _, _, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        // Mark the origin down without withdrawing: packets still routed
        // there (FIBs unchanged) but die on arrival — the instant after a
        // site failure, before any BGP reaction.
        let down = [leaf];
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &down,
        };
        match walk(&env, leaf2, pre.addr_at(1)) {
            Delivery::DeadNode { at, .. } => assert_eq!(at, leaf),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn source_down_immediately_dead() {
        let (topo, _, _, leaf, leaf2) = chain();
        let pre = p("184.164.244.0/24");
        let s = converged(&topo, leaf, pre);
        let down = [leaf2];
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &down,
        };
        assert!(matches!(
            walk(&env, leaf2, pre.addr_at(1)),
            Delivery::DeadNode { .. }
        ));
    }

    #[test]
    fn delivery_accessor() {
        let d = Delivery::Delivered {
            node: NodeId(3),
            hops: 2,
            latency: SimDuration::ZERO,
        };
        assert_eq!(d.delivered_to(), Some(NodeId(3)));
        assert_eq!(
            Delivery::Blackhole {
                at: NodeId(1),
                hops: 0
            }
            .delivered_to(),
            None
        );
    }
}
