//! Looking-glass diagnostics: human-readable RIB dumps and decision
//! explanations, the `show ip bgp` of the simulator.
//!
//! Operators debug exactly the situations this paper is about — "why is
//! this client suddenly landing at the wrong site?" — by reading a looking
//! glass. These helpers answer the same questions against simulated state
//! and back the `inspect` subcommand of the CLI.

use std::fmt::Write as _;

use bobw_net::{NodeId, Prefix};

use crate::sim::BgpSim;

/// Why a candidate route lost the decision process (first differing
/// criterion against the winner), or won.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    Best,
    LowerLocalPref { candidate: u32, best: u32 },
    LongerAsPath { candidate: usize, best: usize },
    HigherMed { candidate: u32, best: u32 },
    TieBreak,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Best => write!(f, "best"),
            Verdict::LowerLocalPref { candidate, best } => {
                write!(f, "lower LOCAL_PREF ({candidate} < {best})")
            }
            Verdict::LongerAsPath { candidate, best } => {
                write!(f, "longer AS path ({candidate} > {best})")
            }
            Verdict::HigherMed { candidate, best } => {
                write!(f, "higher MED ({candidate} > {best})")
            }
            Verdict::TieBreak => write!(f, "lost deterministic tie-break"),
        }
    }
}

/// One explained candidate in a node's Adj-RIB-In.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Neighbor the route was learned from (`None` = self-originated).
    pub from: Option<NodeId>,
    pub local_pref: u32,
    pub med: u32,
    pub path: String,
    pub origin: NodeId,
    pub verdict: Verdict,
}

/// Explains node `node`'s decision for `prefix`: every candidate with the
/// criterion that eliminated it. Empty if the node knows no route.
pub fn explain(sim: &BgpSim, node: NodeId, prefix: &Prefix) -> Vec<Candidate> {
    let n = sim.node(node);
    let best = match n.best(prefix) {
        Some(b) => *b,
        None => return Vec::new(),
    };
    let mut out = Vec::new();
    // Self-originated route, if it is the best (it always wins when present).
    if best.from.is_none() {
        out.push(Candidate {
            from: None,
            local_pref: best.attrs.local_pref,
            med: best.attrs.med,
            path: "(self)".to_string(),
            origin: best.attrs.origin,
            verdict: Verdict::Best,
        });
    }
    for (from, attrs) in n.adj_in(prefix) {
        let verdict = if Some(from) == best.from {
            Verdict::Best
        } else if attrs.local_pref < best.attrs.local_pref {
            Verdict::LowerLocalPref {
                candidate: attrs.local_pref,
                best: best.attrs.local_pref,
            }
        } else if attrs.path.len() > best.attrs.path.len() {
            Verdict::LongerAsPath {
                candidate: attrs.path.len(),
                best: best.attrs.path.len(),
            }
        } else if attrs.med > best.attrs.med {
            Verdict::HigherMed {
                candidate: attrs.med,
                best: best.attrs.med,
            }
        } else {
            Verdict::TieBreak
        };
        out.push(Candidate {
            from: Some(from),
            local_pref: attrs.local_pref,
            med: attrs.med,
            path: attrs.path.to_string(),
            origin: attrs.origin,
            verdict,
        });
    }
    // Best first, then by neighbor id.
    out.sort_by_key(|c| (c.verdict != Verdict::Best, c.from));
    out
}

/// A looking-glass style dump of `node`'s view of `prefix`.
pub fn dump_rib(sim: &BgpSim, node: NodeId, prefix: &Prefix) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "BGP routing table entry for {prefix} at {node}");
    let candidates = explain(sim, node, prefix);
    if candidates.is_empty() {
        let _ = writeln!(s, "  (no route)");
        return s;
    }
    for c in candidates {
        let marker = if c.verdict == Verdict::Best { ">" } else { " " };
        let from = match c.from {
            Some(f) => format!("from {f}"),
            None => "local".to_string(),
        };
        let _ = writeln!(
            s,
            " {marker} path [{}] {from} localpref {} med {} origin {} — {}",
            c.path, c.local_pref, c.med, c.origin, c.verdict
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BgpTimingConfig, OriginConfig, Standalone};
    use bobw_event::RngFactory;
    use bobw_net::Asn;
    use bobw_topology::{NodeKind, Topology, REGIONS};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Node `x` with a customer route and a peer route to the same prefix.
    fn setup() -> (Standalone, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let c = REGIONS[0].center;
        let x = t.add_node(Asn(10), NodeKind::Transit, c, 0);
        let cust = t.add_node(Asn(20), NodeKind::Stub, c, 0);
        let peer = t.add_node(Asn(30), NodeKind::Transit, c, 0);
        let origin = t.add_node(Asn(40), NodeKind::Stub, c, 0);
        t.link_provider_customer(x, cust);
        t.link_peers(x, peer);
        t.link_provider_customer(cust, origin);
        t.link_provider_customer(peer, origin);
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&t, BgpTimingConfig::instant(), &rng);
        s.announce(origin, p("10.9.0.0/24"), OriginConfig::plain());
        s.run_to_idle(1_000_000).expect_within_budget("converge");
        (s, x, cust, peer)
    }

    #[test]
    fn explain_ranks_best_first_with_reasons() {
        let (s, x, cust, peer) = setup();
        let cands = explain(s.sim(), x, &p("10.9.0.0/24"));
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].from, Some(cust));
        assert_eq!(cands[0].verdict, Verdict::Best);
        assert_eq!(cands[1].from, Some(peer));
        assert!(matches!(
            cands[1].verdict,
            Verdict::LowerLocalPref {
                candidate: 200,
                best: 300
            }
        ));
    }

    #[test]
    fn dump_is_readable() {
        let (s, x, _, _) = setup();
        let text = dump_rib(s.sim(), x, &p("10.9.0.0/24"));
        assert!(text.contains("BGP routing table entry"));
        assert!(text.contains("> path"));
        assert!(text.contains("lower LOCAL_PREF (200 < 300)"));
    }

    #[test]
    fn no_route_dump() {
        let (s, x, _, _) = setup();
        let text = dump_rib(s.sim(), x, &p("99.0.0.0/24"));
        assert!(text.contains("(no route)"));
        assert!(explain(s.sim(), x, &p("99.0.0.0/24")).is_empty());
    }

    #[test]
    fn self_originated_listed_as_local_best() {
        let (mut s, x, _, _) = setup();
        s.announce(x, p("10.9.0.0/24"), OriginConfig::plain());
        s.run_to_idle(1_000_000).expect_within_budget("converge");
        let cands = explain(s.sim(), x, &p("10.9.0.0/24"));
        assert_eq!(cands[0].from, None);
        assert_eq!(cands[0].verdict, Verdict::Best);
        assert!(dump_rib(s.sim(), x, &p("10.9.0.0/24")).contains("local"));
    }

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::Best.to_string(), "best");
        assert_eq!(
            Verdict::LongerAsPath {
                candidate: 5,
                best: 2
            }
            .to_string(),
            "longer AS path (5 > 2)"
        );
        assert_eq!(
            Verdict::HigherMed {
                candidate: 9,
                best: 0
            }
            .to_string(),
            "higher MED (9 > 0)"
        );
        assert_eq!(
            Verdict::TieBreak.to_string(),
            "lost deterministic tie-break"
        );
    }
}
