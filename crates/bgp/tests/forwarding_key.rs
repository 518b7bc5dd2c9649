//! The forwarding-key invariant: while `BgpSim::forwarding_key(dst)` keeps
//! its value, every node's `fib_lookup(n, dst)` and every `link_is_up`
//! answer stays the same. Checked after every single event and every
//! injected fault, under random fault scripts, in both session models — a
//! FIB or link mutation that skips its stamp fails here.

use bobw_bgp::{BgpTimingConfig, NextHop, OriginConfig, Standalone};
use bobw_event::{RngFactory, SimDuration, SimTime, StepOutcome};
use bobw_net::{Ipv4Net, NodeId, Prefix};
use bobw_topology::{generate, GenConfig, Topology};
use proptest::prelude::*;
use rand::Rng;

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

/// The last observed forwarding state and keys.
struct Watch {
    dsts: Vec<Ipv4Net>,
    keys: Vec<u64>,
    fibs: Vec<Vec<Option<(Prefix, NextHop)>>>,
    links: Vec<bool>,
}

impl Watch {
    fn new(dsts: Vec<Ipv4Net>) -> Watch {
        Watch {
            keys: vec![u64::MAX; dsts.len()],
            fibs: vec![Vec::new(); dsts.len()],
            links: Vec::new(),
            dsts,
        }
    }

    fn check(&mut self, topo: &Topology, s: &Standalone, what: &str) {
        let sim = s.sim();
        let links: Vec<bool> = topo
            .ids()
            .flat_map(|n| topo.neighbors(n).iter().map(move |a| (n, a.peer)))
            .map(|(a, b)| sim.link_is_up(a, b))
            .collect();
        for (k, &dst) in self.dsts.iter().enumerate() {
            let key = sim.forwarding_key(dst);
            let fib: Vec<_> = topo.ids().map(|n| sim.fib_lookup(n, dst)).collect();
            if key == self.keys[k] {
                assert!(
                    fib == self.fibs[k],
                    "{what} at {:?}: a FIB entry covering dst #{k} changed under key {key}",
                    s.now()
                );
                assert!(
                    links == self.links,
                    "{what} at {:?}: a link flag changed under key {key}",
                    s.now()
                );
            }
            self.keys[k] = key;
            self.fibs[k] = fib;
        }
        self.links = links;
    }
}

/// Runs to `deadline` one event at a time, checking after each.
fn step_until(topo: &Topology, s: &mut Standalone, w: &mut Watch, deadline: SimTime) {
    loop {
        let out = s.run_until(deadline, 1);
        w.check(topo, s, "event");
        if out != StepOutcome::BudgetExhausted {
            return;
        }
    }
}

fn run_script(seed: u64, message_level: bool) {
    let rng = RngFactory::new(seed);
    let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
    let mut s = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
    if message_level {
        s.enable_message_level();
    }
    let sites: Vec<NodeId> = cdn.site_nodes().to_vec();
    let covering = p("184.164.244.0/23");
    let specific = p("184.164.244.0/24");
    let other = p("184.164.250.0/24");
    let mut w = Watch::new(vec![
        specific.addr_at(10),
        covering.addr_at(300), // only the /23 covers it
        other.addr_at(10),
        p("9.9.9.0/24").addr_at(1), // nothing covers it
    ]);
    w.check(&topo, &s, "start");
    s.announce(sites[0], covering, OriginConfig::plain());
    for &site in &sites[1..3] {
        s.announce(site, specific, OriginConfig::plain());
    }
    s.announce(sites[3], other, OriginConfig::plain());
    w.check(&topo, &s, "announce");
    step_until(&topo, &mut s, &mut w, SimTime::FAR_FUTURE);

    let mut r = rng.stream("forwarding-key-script", 0);
    for _ in 0..8 {
        let site = sites[r.gen_range(0..sites.len())];
        let peers: Vec<NodeId> = topo.neighbors(site).iter().map(|a| a.peer).collect();
        let peer = peers[r.gen_range(0..peers.len())];
        let prefix = [covering, specific, other][r.gen_range(0..3usize)];
        let op = r.gen_range(0..9);
        match op {
            0 => s.fail_link(site, peer),
            1 => s.restore_link(site, peer),
            2 => s.reset_link(site, peer),
            3 => s.half_open(site, peer),
            4 => s.notify_reset(site, peer, 6),
            5 => s.graceful_restart(site, SimDuration::from_secs(30)),
            6 => s.withdraw(site, prefix),
            7 => s.announce(site, prefix, OriginConfig::plain()),
            _ => s.fail_all_links(site, &peers),
        }
        w.check(&topo, &s, &format!("fault op {op}"));
        // Sometimes let the fault settle, sometimes strike mid-convergence.
        let until = s.now() + SimDuration::from_secs(r.gen_range(0..200));
        step_until(&topo, &mut s, &mut w, until);
    }
    step_until(&topo, &mut s, &mut w, SimTime::FAR_FUTURE);
}

/// Cutting the wire of a session that is already down flips only the
/// forwarding flag; that alone must move the key.
#[test]
fn forwarding_flip_under_a_dead_session_moves_the_key() {
    for message_level in [false, true] {
        let rng = RngFactory::new(3);
        let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
        let mut s = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
        if message_level {
            s.enable_message_level();
        }
        let site = cdn.site_nodes()[0];
        let peer = topo.neighbors(site)[0].peer;
        let specific = p("184.164.244.0/24");
        s.announce(site, specific, OriginConfig::plain());
        let mut w = Watch::new(vec![specific.addr_at(10)]);
        step_until(&topo, &mut s, &mut w, SimTime::FAR_FUTURE);
        s.half_open(site, peer);
        step_until(&topo, &mut s, &mut w, SimTime::FAR_FUTURE);
        assert!(s.sim().link_is_up(site, peer), "half-open keeps forwarding");
        s.fail_link(site, peer);
        assert!(!s.sim().link_is_up(site, peer));
        w.check(&topo, &s, "cut a half-open session's wire");
        step_until(&topo, &mut s, &mut w, SimTime::FAR_FUTURE);
    }
}

#[test]
fn keys_bracket_stable_forwarding_abstract() {
    run_script(3, false);
}

#[test]
fn keys_bracket_stable_forwarding_message_level() {
    run_script(3, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn keys_bracket_stable_forwarding(seed in 0u64..1000) {
        run_script(seed, false);
        run_script(seed, true);
    }
}
