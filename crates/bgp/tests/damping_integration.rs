//! Flap damping end-to-end: suppression hides flapping routes from the
//! decision, and reuse timers bring them back.

use bobw_bgp::{BgpTimingConfig, DampingConfig, OriginConfig, Standalone};
use bobw_event::RngFactory;
use bobw_net::{Asn, NodeId, Prefix};
use bobw_topology::{NodeKind, Topology, REGIONS};

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// receiver has two providers: flappy (direct to origin A) and steady
/// (direct to origin B).
fn topo() -> (Topology, NodeId, NodeId, NodeId, NodeId, NodeId) {
    let mut t = Topology::new();
    let c = REGIONS[0].center;
    let receiver = t.add_node(Asn(10), NodeKind::Stub, c, 0);
    let flappy = t.add_node(Asn(20), NodeKind::Transit, c, 0);
    let steady = t.add_node(Asn(21), NodeKind::Transit, c, 0);
    let a = t.add_node(Asn(30), NodeKind::Stub, c, 0);
    let b = t.add_node(Asn(31), NodeKind::Stub, c, 0);
    t.link_provider_customer(flappy, receiver);
    t.link_provider_customer(steady, receiver);
    t.link_provider_customer(flappy, a);
    t.link_provider_customer(steady, b);
    (t, receiver, flappy, steady, a, b)
}

fn damped_timing() -> BgpTimingConfig {
    let mut t = BgpTimingConfig::instant();
    t.flap_damping = Some(DampingConfig::default());
    t
}

#[test]
fn flapping_route_gets_suppressed_and_reused() {
    let (topo, receiver, flappy, steady, a, b) = topo();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, damped_timing(), &rng);
    let pre = p("184.164.244.0/24");
    // Both origins announce; receiver prefers the lower-id provider
    // (deterministic tie-break on equal pref/length).
    s.announce(a, pre, OriginConfig::plain());
    s.announce(b, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000).expect_within_budget("converge");
    assert_eq!(
        s.sim().best(receiver, &pre).unwrap().from,
        Some(flappy),
        "baseline: route via the lower-id provider"
    );
    // Origin A flaps three times in quick succession.
    for _ in 0..3 {
        s.withdraw(a, pre);
        s.run_until_secs(5).expect_within_budget("run to deadline");
        s.announce(a, pre, OriginConfig::plain());
        s.run_until_secs(5).expect_within_budget("run to deadline");
    }
    s.run_until_secs(60).expect_within_budget("run to deadline");
    // The flapped route is suppressed: receiver uses the steady path even
    // though the flappy one is present and would otherwise win.
    assert_eq!(
        s.sim().best(receiver, &pre).unwrap().from,
        Some(steady),
        "suppression must move traffic to the steady provider"
    );
    // After the penalty decays (~tens of minutes), the route returns.
    s.run_to_idle(10_000_000).expect_within_budget("converge");
    assert_eq!(
        s.sim().best(receiver, &pre).unwrap().from,
        Some(flappy),
        "reuse must restore the preferred route"
    );
}

#[test]
fn damping_off_by_default_means_no_suppression() {
    let (topo, receiver, flappy, _steady, a, b) = topo();
    let rng = RngFactory::new(1);
    let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
    let pre = p("184.164.244.0/24");
    s.announce(a, pre, OriginConfig::plain());
    s.announce(b, pre, OriginConfig::plain());
    s.run_to_idle(1_000_000).expect_within_budget("converge");
    for _ in 0..5 {
        s.withdraw(a, pre);
        s.run_until_secs(2).expect_within_budget("run to deadline");
        s.announce(a, pre, OriginConfig::plain());
        s.run_until_secs(2).expect_within_budget("run to deadline");
    }
    s.run_to_idle(1_000_000).expect_within_budget("converge");
    assert_eq!(
        s.sim().best(receiver, &pre).unwrap().from,
        Some(flappy),
        "without damping the flappy-but-preferred route stays best"
    );
}
