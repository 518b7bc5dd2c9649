//! Memoized forwarding: where does a packet from any node toward a
//! destination end up?
//!
//! [`walk`](crate::walk) answers that for one source by following FIB next
//! hops. Probe rounds, traffic ticks, target selection and DNS connection
//! attempts ask it for hundreds of sources at a time, over FIBs that mostly
//! did not change since the last time they asked. A [`Resolver`] answers
//! the same question once per node: each node's terminal outcome (the
//! delivering node with hop count and latency, or lost) is a function of
//! its own FIB entry, its outgoing link and its next hop's outcome, so a
//! walk that reaches an already-resolved node stops there and every node it
//! passed inherits that outcome (path compression). Sources with a shared
//! path suffix resolve each node once.
//!
//! Outcomes are kept per destination and stay valid while the destination's
//! [`forwarding_key`](bobw_bgp::BgpSim::forwarding_key) and the down set are
//! unchanged; a table resets only when one of them moves.

use bobw_bgp::NextHop;
use bobw_event::SimDuration;
use bobw_net::{Ipv4Net, NodeId};
use bobw_topology::{CdnDeployment, SiteId};

use crate::forward::{ForwardEnv, MAX_HOPS};

/// Where a delivered packet ended up: the same node, hop count and latency
/// [`walk`](crate::walk) reports as [`Delivery::Delivered`](crate::Delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reach {
    pub node: NodeId,
    pub hops: usize,
    pub latency: SimDuration,
}

/// One node's memoized outcome toward a table's destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Unknown,
    /// On the walk currently being resolved; meeting it again is a loop.
    OnPath,
    /// Blackhole, dead link, dead node or forwarding loop.
    Lost,
    /// Hops are counted without the `MAX_HOPS` cap, which depends on where
    /// the packet started and is applied per query.
    Reached {
        node: NodeId,
        hops: u32,
        latency: SimDuration,
    },
}

/// Outcomes of every node toward one destination, valid for one
/// forwarding key and down set.
struct Table {
    dst: Ipv4Net,
    key: u64,
    down: Vec<NodeId>,
    /// The [`Resolver::at`] generation that last validated this table.
    checked: u64,
    slots: Vec<Slot>,
}

/// Memoized forwarding outcomes, one table per destination address.
///
/// Build one per experiment cell and query it through [`Resolver::at`],
/// which borrows the forwarding state for the lifetime of the returned
/// [`Resolution`], so the FIBs cannot change under a query. A resolver
/// must only ever see one `BgpSim`: forwarding keys of different
/// simulators are not comparable. Answers equal
/// [`walk`](crate::walk)'s: a packet is delivered iff it reaches a live
/// node that holds the destination locally within [`MAX_HOPS`] hops, and
/// latencies are integer nanosecond sums, so they are bit-identical.
#[derive(Default)]
pub struct Resolver {
    tables: Vec<Table>,
    generation: u64,
    /// Scratch for the walk being resolved: each node passed and the delay
    /// of the link it forwarded over.
    path: Vec<(NodeId, SimDuration)>,
}

impl Resolver {
    pub fn new() -> Resolver {
        Resolver::default()
    }

    /// Opens a query window over `env`. Tables are revalidated lazily, on
    /// their first query in the window.
    pub fn at<'r, 'e>(&'r mut self, env: ForwardEnv<'e>) -> Resolution<'r, 'e> {
        self.generation += 1;
        Resolution {
            resolver: self,
            env,
        }
    }
}

/// A [`Resolver`] bound to one forwarding state.
pub struct Resolution<'r, 'e> {
    resolver: &'r mut Resolver,
    env: ForwardEnv<'e>,
}

impl Resolution<'_, '_> {
    /// Where a packet from `from` toward `dst` is delivered, or `None` if
    /// it is lost.
    pub fn reach(&mut self, from: NodeId, dst: Ipv4Net) -> Option<Reach> {
        let t = self.table(dst);
        match self.resolve(t, from) {
            Slot::Reached {
                node,
                hops,
                latency,
            } if hops as usize <= MAX_HOPS => Some(Reach {
                node,
                hops: hops as usize,
                latency,
            }),
            _ => None,
        }
    }

    /// The site that receives `from`'s traffic toward `dst`: the resolver
    /// form of [`catchment`](crate::catchment).
    pub fn site(&mut self, cdn: &CdnDeployment, from: NodeId, dst: Ipv4Net) -> Option<SiteId> {
        self.reach(from, dst).and_then(|r| cdn.site_at(r.node))
    }

    /// Round-trip time from `from` to whatever serves `dst`: the resolver
    /// form of [`rtt_to_site`](crate::rtt_to_site).
    pub fn rtt(&mut self, from: NodeId, dst: Ipv4Net) -> Option<SimDuration> {
        self.reach(from, dst).map(|r| r.latency.saturating_mul(2))
    }

    /// Index of `dst`'s table, created or reset as needed.
    fn table(&mut self, dst: Ipv4Net) -> usize {
        let r = &mut *self.resolver;
        let t = match r.tables.iter().position(|t| t.dst == dst) {
            Some(t) => t,
            None => {
                r.tables.push(Table {
                    dst,
                    key: 0,
                    down: Vec::new(),
                    checked: 0,
                    slots: Vec::new(),
                });
                r.tables.len() - 1
            }
        };
        let table = &mut r.tables[t];
        if table.checked != r.generation {
            table.checked = r.generation;
            let key = self.env.bgp.forwarding_key(dst);
            let nodes = self.env.bgp.num_nodes();
            if table.slots.len() != nodes || table.key != key || table.down != self.env.down {
                table.key = key;
                table.down.clear();
                table.down.extend_from_slice(self.env.down);
                table.slots.clear();
                table.slots.resize(nodes, Slot::Unknown);
            }
        }
        t
    }

    /// Resolves `from` in table `t`, filling every node its walk passes.
    fn resolve(&mut self, t: usize, from: NodeId) -> Slot {
        let env = &self.env;
        let Resolver { tables, path, .. } = &mut *self.resolver;
        let table = &mut tables[t];
        let slots = &mut table.slots;
        path.clear();
        let mut node = from;
        let mut outcome = loop {
            match slots[node.index()] {
                Slot::Unknown => {}
                // Every node on the path leads into the cycle.
                Slot::OnPath => break Slot::Lost,
                done => break done,
            }
            let terminal = if env.down.contains(&node) {
                Slot::Lost
            } else {
                match env.bgp.fib_lookup(node, table.dst) {
                    None => Slot::Lost,
                    Some((_, NextHop::Local)) => Slot::Reached {
                        node,
                        hops: 0,
                        latency: SimDuration::ZERO,
                    },
                    Some((_, NextHop::Via(next))) => {
                        if !env.bgp.link_is_up(node, next) {
                            Slot::Lost
                        } else {
                            let delay = env
                                .topo
                                .delay(node, next)
                                .expect("FIB next hop must be a neighbor");
                            slots[node.index()] = Slot::OnPath;
                            path.push((node, delay));
                            node = next;
                            continue;
                        }
                    }
                }
            };
            slots[node.index()] = terminal;
            break terminal;
        };
        for &(n, delay) in path.iter().rev() {
            if let Slot::Reached { hops, latency, .. } = &mut outcome {
                *hops += 1;
                *latency += delay;
            }
            slots[n.index()] = outcome;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::{walk, Delivery};
    use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
    use bobw_event::RngFactory;
    use bobw_net::{Asn, Prefix};
    use bobw_topology::{generate, GenConfig, NodeKind, Topology, REGIONS};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Every node's resolver answer equals `walk`'s delivered node, hops
    /// and latency.
    fn assert_matches_walk(env: &ForwardEnv<'_>, resolver: &mut Resolver, dst: Ipv4Net) {
        let mut res = resolver.at(ForwardEnv {
            topo: env.topo,
            bgp: env.bgp,
            down: env.down,
        });
        for n in env.topo.ids() {
            let want = match walk(env, n, dst) {
                Delivery::Delivered {
                    node,
                    hops,
                    latency,
                } => Some(Reach {
                    node,
                    hops,
                    latency,
                }),
                _ => None,
            };
            assert_eq!(res.reach(n, dst), want, "node {n}");
        }
    }

    #[test]
    fn matches_walk_on_a_converged_anycast_network() {
        let rng = RngFactory::new(5);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let prefix = p("184.164.244.0/24");
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        for &site in cdn.site_nodes() {
            s.announce(site, prefix, OriginConfig::plain());
        }
        assert_eq!(s.run_to_idle(10_000_000), bobw_event::StepOutcome::Idle);
        let mut resolver = Resolver::new();
        let down = [cdn.site_nodes()[0]];
        for down in [&[][..], &down[..]] {
            let env = ForwardEnv {
                topo: &topo,
                bgp: s.sim(),
                down,
            };
            assert_matches_walk(&env, &mut resolver, prefix.addr_at(1));
            // An address no prefix covers blackholes everywhere.
            assert_matches_walk(&env, &mut resolver, p("9.9.9.0/24").addr_at(1));
        }
    }

    /// A long customer chain: delivery past `MAX_HOPS` is a loop for
    /// `walk`, and must be lost for the resolver too, while nodes closer to
    /// the origin on the same chain still deliver.
    #[test]
    fn hop_cap_applies_per_source() {
        let mut topo = Topology::new();
        let c = REGIONS[0].center;
        let chain: Vec<NodeId> = (0..MAX_HOPS as u32 + 4)
            .map(|i| topo.add_node(Asn(100 + i), NodeKind::Transit, c, 0))
            .collect();
        for w in chain.windows(2) {
            topo.link_provider_customer(w[0], w[1]);
        }
        let origin = *chain.last().unwrap();
        let prefix = p("184.164.244.0/24");
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(origin, prefix, OriginConfig::plain());
        assert_eq!(s.run_to_idle(10_000_000), bobw_event::StepOutcome::Idle);
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        let mut resolver = Resolver::new();
        // Resolve the far end first so the near nodes come from the memo.
        let mut res = resolver.at(ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        });
        assert_eq!(res.reach(chain[0], prefix.addr_at(1)), None);
        let near = chain[chain.len() - 1 - MAX_HOPS];
        assert_eq!(
            res.reach(near, prefix.addr_at(1)).map(|r| r.hops),
            Some(MAX_HOPS)
        );
        assert_matches_walk(&env, &mut resolver, prefix.addr_at(1));
    }

    #[test]
    fn tables_follow_the_forwarding_key_and_down_set() {
        let rng = RngFactory::new(7);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let prefix = p("184.164.244.0/24");
        let other = p("184.164.250.0/24");
        let ams = cdn.node(cdn.by_name("ams").unwrap());
        let bos = cdn.node(cdn.by_name("bos").unwrap());
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(ams, prefix, OriginConfig::plain());
        assert_eq!(s.run_to_idle(10_000_000), bobw_event::StepOutcome::Idle);
        let mut resolver = Resolver::new();
        let client = topo.client_nodes().next().unwrap();
        let at_ams = |resolver: &mut Resolver, s: &Standalone, down: &[NodeId]| {
            resolver
                .at(ForwardEnv {
                    topo: &topo,
                    bgp: s.sim(),
                    down,
                })
                .reach(client, prefix.addr_at(1))
                .map(|r| r.node)
        };
        assert_eq!(at_ams(&mut resolver, &s, &[]), Some(ams));
        // A change to a prefix that does not cover the destination keeps
        // its key.
        let key = s.sim().forwarding_key(prefix.addr_at(1));
        s.announce(bos, other, OriginConfig::plain());
        assert_eq!(s.run_to_idle(10_000_000), bobw_event::StepOutcome::Idle);
        assert_eq!(s.sim().forwarding_key(prefix.addr_at(1)), key);
        // Moving the covered prefix moves the answer.
        s.withdraw(ams, prefix);
        s.announce(bos, prefix, OriginConfig::plain());
        assert_eq!(s.run_to_idle(10_000_000), bobw_event::StepOutcome::Idle);
        assert_ne!(s.sim().forwarding_key(prefix.addr_at(1)), key);
        assert_eq!(at_ams(&mut resolver, &s, &[]), Some(bos));
        // So does the down set, with FIBs untouched.
        assert_eq!(at_ams(&mut resolver, &s, &[bos]), None);
        assert_eq!(at_ams(&mut resolver, &s, &[]), Some(bos));
    }
}
