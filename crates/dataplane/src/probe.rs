//! The Verfploeter-style prober (§5.2).
//!
//! After a failure the paper sends a ping to every controllable target
//! every ~1.5 s for ~600 s *from a surviving PEERING site*, with the source
//! address inside the failed site's prefix, so each reply is routed by the
//! Internet toward whatever currently announces that prefix. Sequence
//! numbers match replies to requests and expose disconnection gaps.
//!
//! This module holds the probing configuration, the single-probe data-plane
//! evaluation, and the per-target result log. The composite experiment loop
//! in `bobw-core` schedules the probe events.

use bobw_event::{SimDuration, SimTime};
use bobw_net::{Ipv4Net, NodeId};
use bobw_topology::{propagation_delay, CdnDeployment, SiteId, Topology};
use serde::{Deserialize, Serialize};

use crate::forward::{walk, Delivery, ForwardEnv};

/// Probing parameters; defaults mirror the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeConfig {
    /// Inter-probe interval per target (paper: ~1.5 s).
    pub interval: SimDuration,
    /// Probing window after the failure (paper: ~600 s).
    pub duration: SimDuration,
    /// Host offset inside the probed prefix used as the source address
    /// (the paper uses 184.164.244.10, offset 10).
    pub source_offset: u32,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            interval: SimDuration::from_millis(1500),
            duration: SimDuration::from_secs(600),
            source_offset: 10,
        }
    }
}

impl ProbeConfig {
    /// A shortened window for tests and quick benches.
    pub fn quick() -> ProbeConfig {
        ProbeConfig {
            interval: SimDuration::from_millis(1500),
            duration: SimDuration::from_secs(120),
            source_offset: 10,
        }
    }

    /// Number of probes each target receives.
    pub fn probes_per_target(&self) -> u32 {
        (self.duration.as_nanos() / self.interval.as_nanos().max(1)) as u32
    }
}

/// What happened to one probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeOutcome {
    /// The reply arrived at a live site at the given time.
    Received { site: SiteId, at: SimTime },
    /// The reply was lost (blackhole, loop, or dead site).
    Lost,
}

impl ProbeOutcome {
    pub fn site(&self) -> Option<SiteId> {
        match self {
            ProbeOutcome::Received { site, .. } => Some(*site),
            ProbeOutcome::Lost => None,
        }
    }
}

/// One probe's record in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeRecord {
    pub seq: u32,
    pub sent: SimTime,
    pub outcome: ProbeOutcome,
}

/// Per-target probe results for one failover experiment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProbeLog {
    records: Vec<Vec<ProbeRecord>>,
}

impl ProbeLog {
    pub fn new(num_targets: usize) -> ProbeLog {
        ProbeLog {
            records: vec![Vec::new(); num_targets],
        }
    }

    pub fn push(&mut self, target: usize, rec: ProbeRecord) {
        self.records[target].push(rec);
    }

    /// Probe records of one target, in send order.
    pub fn for_target(&self, target: usize) -> &[ProbeRecord] {
        &self.records[target]
    }

    pub fn num_targets(&self) -> usize {
        self.records.len()
    }

    /// Fraction of probes (across all targets) that were answered.
    pub fn response_rate(&self) -> f64 {
        let mut total = 0usize;
        let mut ok = 0usize;
        for t in &self.records {
            total += t.len();
            ok += t
                .iter()
                .filter(|r| matches!(r.outcome, ProbeOutcome::Received { .. }))
                .count();
        }
        if total == 0 {
            0.0
        } else {
            ok as f64 / total as f64
        }
    }
}

/// Evaluates one probe at simulated time `now`.
///
/// The request travels `prober_site → target` (assumed deliverable — the
/// paper pre-selects responsive targets); the reply is forwarded by the
/// FIBs from `target` toward `reply_dst` (an address in the failed site's
/// prefix). The reply's arrival time accounts for the request leg
/// (geographic) plus the reply path latency.
pub fn probe_once(
    env: &ForwardEnv<'_>,
    cdn: &CdnDeployment,
    topo: &Topology,
    prober_site: NodeId,
    target: NodeId,
    reply_dst: Ipv4Net,
    now: SimTime,
) -> ProbeOutcome {
    match probe_path(env, cdn, topo, prober_site, target, reply_dst) {
        Some((site, delay)) => ProbeOutcome::Received {
            site,
            at: now + delay,
        },
        None => ProbeOutcome::Lost,
    }
}

/// The time-independent part of [`probe_once`]: which site answers and the
/// total request+reply delay, or `None` when the probe is lost; the answer
/// is `now + delay`. Probing many targets per round, query a
/// [`Resolver`](crate::Resolver) for the reply leg instead: it walks each
/// node once per change of the reply address's
/// [`forwarding_key`](bobw_bgp::BgpSim::forwarding_key), and
/// [`request_leg`] gives the other half.
pub fn probe_path(
    env: &ForwardEnv<'_>,
    cdn: &CdnDeployment,
    topo: &Topology,
    prober_site: NodeId,
    target: NodeId,
    reply_dst: Ipv4Net,
) -> Option<(SiteId, SimDuration)> {
    let request_leg = request_leg(topo, prober_site, target);
    match walk(env, target, reply_dst) {
        Delivery::Delivered { node, latency, .. } => cdn
            .site_at(node)
            // Delivered to a non-site origin (not a CDN prefix): treat as
            // lost from the experiment's point of view.
            .map(|site| (site, request_leg + latency)),
        _ => None,
    }
}

/// The probe's outbound leg, `prober_site → target`: geographic
/// propagation delay (the paper pre-selects responsive targets, so the
/// request is assumed deliverable). Fixed for a cell's lifetime.
pub fn request_leg(topo: &Topology, prober_site: NodeId, target: NodeId) -> SimDuration {
    propagation_delay(
        topo.node(prober_site)
            .coords
            .distance_km(&topo.node(target).coords),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
    use bobw_event::RngFactory;
    use bobw_net::Prefix;
    use bobw_topology::{generate, GenConfig};

    #[test]
    fn default_matches_paper() {
        let c = ProbeConfig::default();
        assert_eq!(c.interval, SimDuration::from_millis(1500));
        assert_eq!(c.duration, SimDuration::from_secs(600));
        assert_eq!(c.probes_per_target(), 400);
        assert_eq!(c.source_offset, 10);
    }

    #[test]
    fn probe_round_trip_on_converged_network() {
        let rng = RngFactory::new(7);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        let ams = cdn.by_name("ams").unwrap();
        let bos = cdn.by_name("bos").unwrap();
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(cdn.node(ams), prefix, OriginConfig::plain());
        s.run_to_idle(10_000_000).expect_within_budget("converge");
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &[],
        };
        let target = topo.client_nodes().next().unwrap();
        let now = SimTime::from_secs(100);
        let out = probe_once(
            &env,
            &cdn,
            &topo,
            cdn.node(bos),
            target,
            prefix.addr_at(10),
            now,
        );
        match out {
            ProbeOutcome::Received { site, at } => {
                assert_eq!(site, ams);
                assert!(at > now, "arrival must be after send");
            }
            ProbeOutcome::Lost => panic!("probe lost on a converged network"),
        }
    }

    #[test]
    fn probe_lost_when_site_down() {
        let rng = RngFactory::new(7);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let prefix: Prefix = "184.164.244.0/24".parse().unwrap();
        let ams = cdn.by_name("ams").unwrap();
        let bos = cdn.by_name("bos").unwrap();
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(cdn.node(ams), prefix, OriginConfig::plain());
        s.run_to_idle(10_000_000).expect_within_budget("converge");
        // Site down, routes not yet withdrawn: every reply dies at the site.
        let down = [cdn.node(ams)];
        let env = ForwardEnv {
            topo: &topo,
            bgp: s.sim(),
            down: &down,
        };
        let target = topo.client_nodes().next().unwrap();
        let out = probe_once(
            &env,
            &cdn,
            &topo,
            cdn.node(bos),
            target,
            prefix.addr_at(10),
            SimTime::ZERO,
        );
        assert_eq!(out, ProbeOutcome::Lost);
    }

    #[test]
    fn log_bookkeeping() {
        let mut log = ProbeLog::new(2);
        log.push(
            0,
            ProbeRecord {
                seq: 0,
                sent: SimTime::ZERO,
                outcome: ProbeOutcome::Lost,
            },
        );
        log.push(
            0,
            ProbeRecord {
                seq: 1,
                sent: SimTime::from_secs(2),
                outcome: ProbeOutcome::Received {
                    site: SiteId(1),
                    at: SimTime::from_secs(2),
                },
            },
        );
        assert_eq!(log.num_targets(), 2);
        assert_eq!(log.for_target(0).len(), 2);
        assert!(log.for_target(1).is_empty());
        assert!((log.response_rate() - 0.5).abs() < 1e-12);
        assert_eq!(log.for_target(0)[1].outcome.site(), Some(SiteId(1)));
        assert_eq!(log.for_target(0)[0].outcome.site(), None);
    }

    #[test]
    fn empty_log_rate_is_zero() {
        assert_eq!(ProbeLog::new(3).response_rate(), 0.0);
    }
}
