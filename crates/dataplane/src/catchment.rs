//! Anycast catchment and path-RTT computation.
//!
//! The paper's target selection (§5.1) needs two data-plane facts per
//! ⟨client, site⟩ pair: the round-trip latency to the site (keep clients
//! within 50 ms) and which site anycast routes the client to (evaluate
//! control only on clients anycast sends *elsewhere*).

use bobw_event::SimDuration;
use bobw_net::{Ipv4Net, NodeId};
use bobw_topology::{CdnDeployment, SiteId};

use crate::forward::{walk, Delivery, ForwardEnv};

/// Which site does `client`'s traffic toward `dst` reach under the current
/// FIBs? `None` if the packet is lost or arrives at a non-site node.
pub fn catchment(
    env: &ForwardEnv<'_>,
    cdn: &CdnDeployment,
    client: NodeId,
    dst: Ipv4Net,
) -> Option<SiteId> {
    walk(env, client, dst)
        .delivered_to()
        .and_then(|node| cdn.site_at(node))
}

/// Round-trip time from `client` to whatever currently serves `dst`,
/// measured along the actual forwarding path (one-way path latency × 2,
/// symmetric-path approximation). `None` if undeliverable.
pub fn rtt_to_site(env: &ForwardEnv<'_>, client: NodeId, dst: Ipv4Net) -> Option<SimDuration> {
    match walk(env, client, dst) {
        Delivery::Delivered { latency, .. } => Some(latency.saturating_mul(2)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
    use bobw_event::RngFactory;
    use bobw_net::Prefix;
    use bobw_topology::{generate, GenConfig};

    #[test]
    fn anycast_catchment_covers_every_client() {
        let rng = RngFactory::new(5);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        for &site in cdn.site_nodes() {
            s.announce(site, prefix, OriginConfig::plain());
        }
        s.run_to_idle(10_000_000).expect_within_budget("converge");
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        let mut per_site = vec![0usize; cdn.num_sites()];
        for client in topo.client_nodes() {
            let site = catchment(&env, &cdn, client, prefix.addr_at(1))
                .unwrap_or_else(|| panic!("client {client} unreachable under anycast"));
            per_site[site.index()] += 1;
            // RTT must be measurable for every reachable client.
            assert!(rtt_to_site(&env, client, prefix.addr_at(1)).is_some());
        }
        // Anycast must split clients across more than one site.
        let nonempty = per_site.iter().filter(|c| **c > 0).count();
        assert!(nonempty >= 2, "catchment degenerate: {per_site:?}");
    }

    #[test]
    fn unicast_catchment_is_single_site() {
        let rng = RngFactory::new(5);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        let ams = cdn.by_name("ams").unwrap();
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(cdn.node(ams), prefix, OriginConfig::plain());
        s.run_to_idle(10_000_000).expect_within_budget("converge");
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        for client in topo.client_nodes() {
            assert_eq!(
                catchment(&env, &cdn, client, prefix.addr_at(1)),
                Some(ams),
                "unicast must route every client to the announcing site"
            );
        }
    }

    #[test]
    fn nearby_clients_have_lower_rtt() {
        let rng = RngFactory::new(5);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        let ams = cdn.by_name("ams").unwrap();
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(cdn.node(ams), prefix, OriginConfig::plain());
        s.run_to_idle(10_000_000).expect_within_budget("converge");
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        let site_coords = topo.node(cdn.node(ams)).coords;
        let mut near = Vec::new();
        let mut far = Vec::new();
        for client in topo.client_nodes() {
            let km = topo.node(client).coords.distance_km(&site_coords);
            if let Some(rtt) = rtt_to_site(&env, client, prefix.addr_at(1)) {
                if km < 1000.0 {
                    near.push(rtt.as_secs_f64());
                } else if km > 7000.0 {
                    far.push(rtt.as_secs_f64());
                }
            }
        }
        if !near.is_empty() && !far.is_empty() {
            let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
            assert!(
                avg(&near) < avg(&far),
                "near {:.4} !< far {:.4}",
                avg(&near),
                avg(&far)
            );
        }
    }
}
