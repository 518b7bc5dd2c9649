//! The network-wide BGP simulation: all nodes, message dispatch, the
//! route-change history (collector feed), and a standalone driver for
//! pure-control-plane experiments.

use bobw_event::{Engine, Handler, RngFactory, Scheduler, SimDuration, SimTime, StepOutcome};
use bobw_net::{AsPath, FlatPrefixMap, Ipv4Net, NodeId, Prefix};
use bobw_session::{
    codec, BgpMessage, DownReason, FsmInput, FsmOutput, PeerFsm, PeerState, SessionConfig,
    SessionPayload, TimerKind, UpdateAttrs, UpdateMsg, CEASE,
};
use bobw_topology::Topology;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::node::BgpNode;
use crate::policy::OriginConfig;
use crate::route::{
    BgpEvent, Message, NextHop, RouteChange, Selected, SessionTimerKind, WireRoute,
};
use crate::timing::BgpTimingConfig;

/// Aggregate counters, exposed for the engine benchmarks and for sanity
/// checks in experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// BGP messages delivered to nodes.
    pub messages: u64,
    /// Best-route changes across all nodes.
    pub best_changes: u64,
    /// Session-management messages (OPEN/KEEPALIVE/NOTIFICATION) delivered;
    /// always zero in the abstract session model.
    pub session_msgs: u64,
}

/// The whole-network BGP state: one [`BgpNode`] per topology node.
///
/// `BgpSim` is deliberately engine-agnostic: [`BgpSim::handle`] consumes an
/// event and pushes follow-ups (as `(delay, event)` pairs) into a caller
/// buffer. `bobw-core` embeds it in a composite simulation next to the data
/// plane and DNS; [`Standalone`] wraps it for control-plane-only runs.
pub struct BgpSim {
    timing: BgpTimingConfig,
    nodes: Vec<BgpNode>,
    proc_rngs: Vec<SmallRng>,
    history: Vec<RouteChange>,
    record_history: bool,
    stats: SimStats,
    /// Forwarding-state clock: advanced by every change a data-plane walk
    /// could observe, which then stamps what it touched with the new value.
    clock: u64,
    /// Per prefix, the clock value of the last FIB insert or remove of that
    /// prefix at any node.
    fib_stamps: FlatPrefixMap<u64>,
    /// The clock value of the last session (`up`) or forwarding (`fwd_up`)
    /// flag flip at any node.
    link_stamp: u64,
    /// Message-level session layer (per-peer FSMs + wire codec on every
    /// message). `None` = the abstract model: adjacencies are booleans and
    /// session management is implicit. Strictly opt-in via
    /// [`BgpSim::enable_message_level`]; when `None`, no code path below
    /// touches it, keeping abstract runs byte-identical to before.
    session: Option<SessionLayer>,
}

/// Knobs for the message-level session layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionKnobs {
    /// Base connect-retry interval; each scheduled retry is jittered
    /// uniformly in `[0.5, 1.5) ×` this from the node's processing-delay
    /// RNG stream (deterministic given the seed).
    pub connect_retry_s: f64,
    /// Graceful-restart window advertised in every OPEN; 0 disables the
    /// capability network-wide.
    pub gr_restart_s: u16,
}

impl Default for SessionKnobs {
    fn default() -> SessionKnobs {
        SessionKnobs {
            connect_retry_s: 1.0,
            gr_restart_s: 120,
        }
    }
}

/// Per-directed-session state in the message-level model, parallel to the
/// owning node's neighbor list.
struct PeerSession {
    fsm: PeerFsm,
    /// Per-timer-kind generation counters; an armed timer event carries the
    /// generation at arming time and is a no-op if it was bumped since.
    gens: [u32; 4],
    /// Administrative link state for this direction (fault injection).
    admin_up: bool,
    /// This endpoint's TCP is unreachable (process restarting). Connect
    /// attempts against — or from — a blocked endpoint fail.
    blocked: bool,
    /// Graceful restart: prefixes retained from the restarting peer,
    /// sorted; pruned as re-advertisements arrive, leftovers purged by the
    /// stale sweep.
    stale: Vec<Prefix>,
}

struct SessionLayer {
    knobs: SessionKnobs,
    /// `sessions[node][nix]` for the session from `node` to its `nix`-th
    /// neighbor.
    sessions: Vec<Vec<PeerSession>>,
}

fn kind_ix(kind: SessionTimerKind) -> usize {
    match kind {
        SessionTimerKind::ConnectRetry => 0,
        SessionTimerKind::Hold => 1,
        SessionTimerKind::Keepalive => 2,
        SessionTimerKind::StaleSweep => 3,
    }
}

impl SessionLayer {
    /// Bumps and returns the generation for `(node, nix, kind)` — the next
    /// scheduled timer of that kind is the only live one.
    fn arm(&mut self, node: usize, nix: usize, kind: SessionTimerKind) -> u32 {
        let gen = &mut self.sessions[node][nix].gens[kind_ix(kind)];
        *gen += 1;
        *gen
    }

    /// Invalidates any armed timer of `kind` without scheduling a new one.
    fn cancel(&mut self, node: usize, nix: usize, kind: SessionTimerKind) {
        self.sessions[node][nix].gens[kind_ix(kind)] += 1;
    }

    fn cancel_all(&mut self, node: usize, nix: usize) {
        for g in &mut self.sessions[node][nix].gens {
            *g += 1;
        }
    }
}

/// Message-level model: every route UPDATE and WITHDRAW crosses the wire
/// as RFC 4271 bytes. Encode, decode, and rebuild — the *decoded* message
/// is what gets delivered, so a codec asymmetry would surface as a routing
/// difference instead of passing silently.
fn roundtrip_update(msg: Message) -> Message {
    let update = match msg {
        Message::Update { prefix, route } => UpdateMsg {
            withdrawn: Vec::new(),
            attrs: Some(UpdateAttrs {
                as_path: route.path.hops(),
                med: route.med,
                origin_node: route.origin.index() as u32,
                no_export: route.no_export,
            }),
            nlri: vec![prefix],
        },
        Message::Withdraw { prefix } => UpdateMsg {
            withdrawn: vec![prefix],
            attrs: None,
            nlri: Vec::new(),
        },
    };
    let bytes = codec::encode(&BgpMessage::Update(update)).expect("route update encodes");
    let (decoded, len) = codec::decode(&bytes).expect("route update decodes");
    debug_assert_eq!(len, bytes.len());
    let BgpMessage::Update(u) = decoded else {
        unreachable!("UPDATE decodes as UPDATE");
    };
    let rebuilt = match (&u.withdrawn[..], &u.nlri[..], u.attrs) {
        ([], [prefix], Some(a)) => Message::Update {
            prefix: *prefix,
            route: WireRoute {
                path: AsPath::from_hops(a.as_path),
                med: a.med,
                origin: NodeId(a.origin_node),
                no_export: a.no_export,
            },
        },
        ([prefix], [], None) => Message::Withdraw { prefix: *prefix },
        _ => unreachable!("codec preserved the update shape"),
    };
    debug_assert_eq!(rebuilt, msg);
    rebuilt
}

/// Precomputed stochastic per-session state for one `(topology, timing,
/// seed)` triple: every session's MRAI value and every node's
/// processing-delay RNG stream in its initial state.
///
/// [`BgpSim::new`] derives roughly two RNG streams per directed session and
/// one per node. A harness that builds one simulator per experiment cell
/// over a shared testbed re-derives all of them for identical values; with
/// a seed built once per testbed, [`BgpSim::from_seed`] turns per-cell
/// construction into plain clones. The seed is `Send + Sync`, so one
/// instance serves a cell-parallel thread pool.
pub struct SimSeed {
    mrai: Vec<Box<[SimDuration]>>,
    proc: Vec<SmallRng>,
}

impl SimSeed {
    /// Samples the per-session MRAI values and per-node processing streams
    /// exactly as [`BgpSim::new`] would with the same arguments.
    pub fn new(topo: &Topology, timing: &BgpTimingConfig, rng: &RngFactory) -> SimSeed {
        let mrai = topo
            .nodes()
            .map(|node| {
                topo.neighbors(node.id)
                    .iter()
                    .map(|adj| {
                        let session_key = (node.id.index() as u64) << 32 | adj.peer.index() as u64;
                        timing.sample_session_mrai(rng, session_key)
                    })
                    .collect()
            })
            .collect();
        let proc = topo
            .nodes()
            .map(|node| rng.stream("bgp-proc", node.id.index() as u64))
            .collect();
        SimSeed { mrai, proc }
    }
}

impl BgpSim {
    /// Builds per-node BGP state over `topo`. MRAI values are sampled per
    /// directed session from the factory's `"mrai-session"` stream.
    pub fn new(topo: &Topology, timing: BgpTimingConfig, rng: &RngFactory) -> BgpSim {
        let seed = SimSeed::new(topo, &timing, rng);
        BgpSim::from_seed(topo, timing, &seed)
    }

    /// [`BgpSim::new`] against a prebuilt [`SimSeed`] — byte-identical
    /// state, but all RNG stream derivation replaced by clones.
    pub fn from_seed(topo: &Topology, timing: BgpTimingConfig, seed: &SimSeed) -> BgpSim {
        let n = topo.len();
        let mut nodes = Vec::with_capacity(n);
        for node in topo.nodes() {
            let neighbors = topo
                .neighbors(node.id)
                .iter()
                .zip(seed.mrai[node.id.index()].iter())
                .map(|(adj, &session_mrai)| {
                    BgpNode::neighbor_state(
                        adj.peer,
                        topo.node(adj.peer).asn,
                        adj.rel,
                        adj.delay,
                        session_mrai,
                    )
                })
                .collect();
            nodes.push(BgpNode::new(node.id, node.asn, neighbors));
        }
        BgpSim {
            timing,
            nodes,
            proc_rngs: seed.proc.clone(),
            history: Vec::new(),
            record_history: false,
            stats: SimStats::default(),
            clock: 0,
            fib_stamps: FlatPrefixMap::new(),
            link_stamp: 0,
            session: None,
        }
    }

    /// Switches to the message-level session model: one [`PeerFsm`] per
    /// directed session, wire-codec round-trips on every message, and
    /// session-fault realism (half-open, NOTIFICATION resets, graceful
    /// restart). Every session starts administratively quiesced; call
    /// [`BgpSim::start_sessions`] to kick off establishment — and call both
    /// *before* announcing anything, so the initial table exchange happens
    /// through real session establishment.
    pub fn enable_message_level(&mut self, knobs: SessionKnobs) {
        if self.session.is_some() {
            return;
        }
        let hold_time_s = self.timing.hold_time().as_secs_f64().round() as u16;
        let sessions = self
            .nodes
            .iter()
            .map(|node| {
                let cfg = SessionConfig {
                    hold_time_s,
                    connect_retry_s: knobs.connect_retry_s,
                    gr_restart_s: knobs.gr_restart_s,
                    asn: node.asn.0,
                };
                node.neighbors()
                    .iter()
                    .map(|_| PeerSession {
                        fsm: PeerFsm::new(cfg),
                        gens: [0; 4],
                        admin_up: true,
                        blocked: false,
                        stale: Vec::new(),
                    })
                    .collect()
            })
            .collect();
        for node in &mut self.nodes {
            node.quiesce_sessions();
        }
        self.session = Some(SessionLayer { knobs, sessions });
        self.link_changed();
    }

    /// Is the message-level session model active?
    pub fn message_level(&self) -> bool {
        self.session.is_some()
    }

    /// Starts every idle session (both directions of every adjacency), in
    /// node-then-neighbor order. With the simulator's instant TCP the OPEN
    /// exchanges interleave deterministically and every session reaches
    /// Established, triggering the initial full-table exports.
    pub fn start_sessions(&mut self, now: SimTime, out: &mut Vec<(SimDuration, BgpEvent)>) {
        let Some(mut layer) = self.session.take() else {
            return;
        };
        for i in 0..self.nodes.len() {
            let node = self.nodes[i].id;
            for nix in 0..layer.sessions[i].len() {
                if layer.sessions[i][nix].fsm.state() == PeerState::Idle {
                    let peer = self.nodes[i].neighbors()[nix].peer;
                    self.drive(&mut layer, now, node, peer, FsmInput::Start, out);
                }
            }
        }
        self.session = Some(layer);
    }

    /// The forwarding key of destination `dst`: the latest stamp among the
    /// prefixes covering `dst` and the link flags. Stamps come from one
    /// monotone clock, so two calls returning the same key bracket a window
    /// in which no FIB entry covering `dst` and no link flag changed: every
    /// [`fib_lookup`](BgpSim::fib_lookup)`(n, dst)` and
    /// [`link_is_up`](BgpSim::link_is_up) answer, for every node, was
    /// stable. Changes to prefixes that do not cover `dst` leave it alone.
    pub fn forwarding_key(&self, dst: Ipv4Net) -> u64 {
        self.fib_stamps
            .iter()
            .filter(|(p, _)| p.contains(dst))
            .fold(self.link_stamp, |key, (_, &stamp)| key.max(stamp))
    }

    /// A node's FIB entry for `prefix` was inserted or removed: stamp the
    /// prefix and feed the collector history.
    fn fib_changed(&mut self, now: SimTime, node: NodeId, prefix: Prefix) {
        self.clock += 1;
        match self.fib_stamps.get_mut(&prefix) {
            Some(stamp) => *stamp = self.clock,
            None => {
                self.fib_stamps.insert(prefix, self.clock);
            }
        }
        self.record_change(now, node, prefix);
    }

    /// Some node's session or forwarding flag flipped.
    fn link_changed(&mut self) {
        self.clock += 1;
        self.link_stamp = self.clock;
    }

    /// [`BgpNode::fail_session`] with link bookkeeping. The forwarding flag
    /// can drop even when the session was already down (a half-open
    /// session whose wire is cut later), so both flags are checked.
    fn fail_session(&mut self, node: NodeId, peer: NodeId) -> bool {
        let fwd_was_up = self.nodes[node.index()].forwarding_is_up(peer);
        let went_down = self.nodes[node.index()].fail_session(peer);
        if went_down || fwd_was_up {
            self.link_changed();
        }
        went_down
    }

    /// [`BgpNode::fail_session_control`] with link bookkeeping.
    fn fail_session_control(&mut self, node: NodeId, peer: NodeId) -> bool {
        let went_down = self.nodes[node.index()].fail_session_control(peer);
        if went_down {
            self.link_changed();
        }
        went_down
    }

    /// [`BgpNode::restore_session`] with link bookkeeping.
    fn restore_session(
        &mut self,
        now: SimTime,
        node: NodeId,
        peer: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        let idx = node.index();
        let (n, rng) = (&mut self.nodes[idx], &mut self.proc_rngs[idx]);
        if n.restore_session(now, peer, &self.timing, rng, out) {
            self.link_changed();
        }
    }

    /// Enables/disables the route-change history (collector feed). Off by
    /// default: failover experiments only need current state, and the
    /// history grows with path-exploration churn.
    pub fn set_record_history(&mut self, on: bool) {
        self.record_history = on;
    }

    /// The recorded route changes, in time order.
    pub fn history(&self) -> &[RouteChange] {
        &self.history
    }

    /// Takes ownership of the recorded history, clearing the buffer.
    pub fn take_history(&mut self) -> Vec<RouteChange> {
        std::mem::take(&mut self.history)
    }

    pub fn stats(&self) -> SimStats {
        self.stats
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Current best route of `node` for `prefix`.
    pub fn best(&self, node: NodeId, prefix: &Prefix) -> Option<&Selected> {
        self.nodes[node.index()].best(prefix)
    }

    /// Longest-prefix-match lookup in `node`'s FIB.
    pub fn fib_lookup(&self, node: NodeId, addr: u32) -> Option<(Prefix, NextHop)> {
        self.nodes[node.index()].fib_lookup(addr)
    }

    /// Does `node` currently originate `prefix`?
    pub fn originates(&self, node: NodeId, prefix: &Prefix) -> bool {
        self.nodes[node.index()].originates(prefix)
    }

    /// Direct node access (read-only), for diagnostics and tests.
    pub fn node(&self, id: NodeId) -> &BgpNode {
        &self.nodes[id.index()]
    }

    /// Starts originating `prefix` at `node`.
    pub fn announce(
        &mut self,
        now: SimTime,
        node: NodeId,
        prefix: Prefix,
        cfg: OriginConfig,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        let changed = self.nodes[node.index()].originate(
            now,
            prefix,
            cfg,
            &self.timing,
            &mut self.proc_rngs[node.index()],
            out,
        );
        if changed {
            self.fib_changed(now, node, prefix);
        }
    }

    /// Stops originating `prefix` at `node`.
    pub fn withdraw(
        &mut self,
        now: SimTime,
        node: NodeId,
        prefix: Prefix,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        let changed = self.nodes[node.index()].withdraw_origin(
            now,
            prefix,
            &self.timing,
            &mut self.proc_rngs[node.index()],
            out,
        );
        if changed {
            self.fib_changed(now, node, prefix);
        }
    }

    /// Processes one event, pushing follow-ups into `out`.
    pub fn handle(&mut self, now: SimTime, ev: BgpEvent, out: &mut Vec<(SimDuration, BgpEvent)>) {
        match ev {
            BgpEvent::Deliver { to, from, msg } => {
                self.stats.messages += 1;
                // Message-level model: the update crosses the wire as RFC
                // 4271 bytes, and a refresh from a restarting peer prunes
                // the graceful-restart stale set.
                let msg = if let Some(layer) = self.session.as_mut() {
                    let msg = roundtrip_update(msg);
                    if let Some(nix) = self.nodes[to.index()].neighbor_index(from) {
                        let stale = &mut layer.sessions[to.index()][nix].stale;
                        if !stale.is_empty() {
                            if let Ok(pos) = stale.binary_search(&msg.prefix()) {
                                stale.remove(pos);
                            }
                        }
                    }
                    msg
                } else {
                    msg
                };
                let prefix = msg.prefix();
                let changed = self.nodes[to.index()].receive(
                    now,
                    from,
                    msg,
                    &self.timing,
                    &mut self.proc_rngs[to.index()],
                    out,
                );
                if changed {
                    self.stats.best_changes += 1;
                    self.fib_changed(now, to, prefix);
                }
            }
            BgpEvent::Fire {
                node,
                neighbor,
                prefix,
                gen,
            } => {
                self.nodes[node.index()].fire(now, neighbor, prefix, gen, &self.timing, out);
            }
            BgpEvent::DampingReuse {
                node,
                neighbor,
                prefix,
            } => {
                let changed = self.nodes[node.index()].damping_reuse(
                    now,
                    neighbor,
                    prefix,
                    &self.timing,
                    &mut self.proc_rngs[node.index()],
                    out,
                );
                if changed {
                    self.stats.best_changes += 1;
                    self.fib_changed(now, node, prefix);
                }
            }
            BgpEvent::HoldExpire { node, neighbor } => {
                self.expire_now(now, node, neighbor, out);
            }
            BgpEvent::SessionMsg { to, from, payload } => {
                let Some(mut layer) = self.session.take() else {
                    return; // abstract model: stray event, drop
                };
                if self.wire_ok(&layer, to, from) {
                    self.stats.session_msgs += 1;
                    // Exercise the wire codec on every session message:
                    // serialize, parse, feed the *parsed* form to the FSM.
                    let full = payload.to_message(from.index() as u32);
                    let bytes = codec::encode(&full).expect("session message encodes");
                    let (decoded, len) = codec::decode(&bytes).expect("session message decodes");
                    debug_assert_eq!(len, bytes.len());
                    let payload = SessionPayload::from_message(&decoded)
                        .expect("session payload survives the codec");
                    self.drive(&mut layer, now, to, from, FsmInput::Recv(payload), out);
                }
                self.session = Some(layer);
            }
            BgpEvent::SessionTimer {
                node,
                neighbor,
                kind,
                gen,
            } => {
                self.session_timer(now, node, neighbor, kind, gen, out);
            }
        }
    }

    /// Purge everything learned from `neighbor` at `node` right now (the
    /// session must already be marked down), with stats/history
    /// bookkeeping.
    fn expire_now(
        &mut self,
        now: SimTime,
        node: NodeId,
        neighbor: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        let idx = node.index();
        let changed = self.nodes[idx].expire_session(
            now,
            neighbor,
            &self.timing,
            &mut self.proc_rngs[idx],
            out,
        );
        for prefix in changed {
            self.stats.best_changes += 1;
            self.fib_changed(now, node, prefix);
        }
    }

    /// Control-plane teardown with purge: the session drops (forwarding
    /// preserved — physical cuts go through `fail_session` separately) and
    /// every route learned from the peer is removed.
    fn teardown_purge(
        &mut self,
        now: SimTime,
        node: NodeId,
        peer: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        self.fail_session_control(node, peer);
        self.expire_now(now, node, peer, out);
    }

    /// Can a message (or TCP connect) cross the wire between `a` and `b`?
    fn wire_ok(&self, layer: &SessionLayer, a: NodeId, b: NodeId) -> bool {
        let (Some(ab), Some(ba)) = (
            self.nodes[a.index()].neighbor_index(b),
            self.nodes[b.index()].neighbor_index(a),
        ) else {
            return false;
        };
        let sa = &layer.sessions[a.index()][ab];
        let sb = &layer.sessions[b.index()][ba];
        sa.admin_up && sb.admin_up && !sa.blocked && !sb.blocked
    }

    /// Schedules a jittered connect-retry for `node`'s session to `peer`,
    /// `extra` from now. The jitter draws from the node's processing-delay
    /// stream, so it is deterministic given the seed and event order.
    fn schedule_retry(
        &mut self,
        layer: &mut SessionLayer,
        node: NodeId,
        peer: NodeId,
        nix: usize,
        extra: SimDuration,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        let idx = node.index();
        let jit: f64 = self.proc_rngs[idx].gen_range(0.5..1.5) * layer.knobs.connect_retry_s;
        let gen = layer.arm(idx, nix, SessionTimerKind::ConnectRetry);
        out.push((
            SimDuration::from_secs_f64(extra.as_secs_f64() + jit),
            BgpEvent::SessionTimer {
                node,
                neighbor: peer,
                kind: SessionTimerKind::ConnectRetry,
                gen,
            },
        ));
    }

    /// Feeds one input to the FSM for `node`'s session to `peer` and
    /// performs the required effects. TCP connects resolve instantly
    /// ([`Self::wire_ok`]); timer requests follow the integration policy
    /// documented in DESIGN.md §9 (steady-state liveness timers elided so
    /// `run_to_idle` terminates; fault paths arm them explicitly).
    fn drive(
        &mut self,
        layer: &mut SessionLayer,
        now: SimTime,
        node: NodeId,
        peer: NodeId,
        input: FsmInput,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        let idx = node.index();
        let Some(nix) = self.nodes[idx].neighbor_index(peer) else {
            return;
        };
        let mut fx = Vec::new();
        layer.sessions[idx][nix].fsm.step(input, &mut fx);
        // Honor Arm(Keepalive) only on OpenConfirm entry (an OPEN just
        // arrived): one bounded shot, never re-armed from its own firing —
        // a wedged handshake must not tick forever.
        let ka_entry = matches!(input, FsmInput::Recv(SessionPayload::Open { .. }));
        for o in fx {
            match o {
                FsmOutput::Send(payload) => {
                    let delay = self.nodes[idx].neighbors()[nix].delay;
                    out.push((
                        delay,
                        BgpEvent::SessionMsg {
                            to: peer,
                            from: node,
                            payload,
                        },
                    ));
                }
                FsmOutput::AttemptConnect => {
                    let tcp = if self.wire_ok(layer, node, peer) {
                        FsmInput::TcpUp
                    } else {
                        FsmInput::TcpFail
                    };
                    self.drive(layer, now, node, peer, tcp, out);
                }
                FsmOutput::Arm(kind, d) => {
                    if kind == TimerKind::Keepalive && ka_entry {
                        let gen = layer.arm(idx, nix, SessionTimerKind::Keepalive);
                        out.push((
                            d,
                            BgpEvent::SessionTimer {
                                node,
                                neighbor: peer,
                                kind: SessionTimerKind::Keepalive,
                                gen,
                            },
                        ));
                    }
                    // ConnectRetry and Hold are scheduled explicitly (with
                    // jitter) by the fault injectors; steady-state requests
                    // are elided — the wire is loss-free.
                }
                FsmOutput::Up { .. } => {
                    layer.cancel(idx, nix, SessionTimerKind::Hold);
                    layer.cancel(idx, nix, SessionTimerKind::Keepalive);
                    self.restore_session(now, node, peer, out);
                }
                FsmOutput::Down { reason } => match reason {
                    DownReason::PeerRestarting { window_s } => {
                        // Graceful restart: keep forwarding AND keep the
                        // routes (marked stale) for the advertised window.
                        self.fail_session_control(node, peer);
                        layer.sessions[idx][nix].stale = self.nodes[idx].prefixes_from(peer);
                        let gen = layer.arm(idx, nix, SessionTimerKind::StaleSweep);
                        out.push((
                            SimDuration::from_secs_f64(f64::from(window_s)),
                            BgpEvent::SessionTimer {
                                node,
                                neighbor: peer,
                                kind: SessionTimerKind::StaleSweep,
                                gen,
                            },
                        ));
                    }
                    DownReason::HoldExpired => {
                        self.teardown_purge(now, node, peer, out);
                        // Reconnect on our own initiative (the peer may be
                        // gone); parks in Active if the wire is still dead.
                        self.schedule_retry(layer, node, peer, nix, SimDuration::ZERO, out);
                    }
                    DownReason::NotificationReceived { .. } | DownReason::Stopped => {
                        // Injector-driven teardown: purge now; whether and
                        // when to reconnect is the injector's decision
                        // (receivers of a NOTIFICATION listen passively).
                        self.teardown_purge(now, node, peer, out);
                    }
                },
            }
        }
    }

    /// A [`BgpEvent::SessionTimer`] fired: generation-check, then dispatch.
    fn session_timer(
        &mut self,
        now: SimTime,
        node: NodeId,
        neighbor: NodeId,
        kind: SessionTimerKind,
        gen: u32,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        let Some(mut layer) = self.session.take() else {
            return;
        };
        let idx = node.index();
        if let Some(nix) = self.nodes[idx].neighbor_index(neighbor) {
            if layer.sessions[idx][nix].gens[kind_ix(kind)] == gen {
                match kind {
                    SessionTimerKind::ConnectRetry => {
                        // A retry firing from our own side implies the local
                        // process is reachable again (graceful-restart
                        // completion clears the block).
                        layer.sessions[idx][nix].blocked = false;
                        let input = if layer.sessions[idx][nix].fsm.state() == PeerState::Idle {
                            FsmInput::Start
                        } else {
                            FsmInput::Timer(TimerKind::ConnectRetry)
                        };
                        self.drive(&mut layer, now, node, neighbor, input, out);
                    }
                    SessionTimerKind::Hold => {
                        self.drive(
                            &mut layer,
                            now,
                            node,
                            neighbor,
                            FsmInput::Timer(TimerKind::Hold),
                            out,
                        );
                    }
                    SessionTimerKind::Keepalive => {
                        self.drive(
                            &mut layer,
                            now,
                            node,
                            neighbor,
                            FsmInput::Timer(TimerKind::Keepalive),
                            out,
                        );
                    }
                    SessionTimerKind::StaleSweep => {
                        // The graceful-restart window closed: purge whatever
                        // the restarted peer never re-advertised.
                        let stale = std::mem::take(&mut layer.sessions[idx][nix].stale);
                        let changed = self.nodes[idx].purge_stale_from(
                            now,
                            neighbor,
                            &stale,
                            &self.timing,
                            &mut self.proc_rngs[idx],
                            out,
                        );
                        for prefix in changed {
                            self.stats.best_changes += 1;
                            self.fib_changed(now, node, prefix);
                        }
                    }
                }
            }
        }
        self.session = Some(layer);
    }

    /// Fails the link between `a` and `b` silently: no withdrawals are
    /// sent; each side discovers the failure when its hold timer expires
    /// (or via the operator's monitoring at a higher layer). In-flight and
    /// future messages on the link are lost.
    pub fn fail_link(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        if self.session.is_some() {
            self.ml_link_down(now, a, b, out);
            return;
        }
        let hold = self.timing.hold_time();
        for (x, y) in [(a, b), (b, a)] {
            // Only a real up→down transition arms a hold timer: failing an
            // already-failed link (a SilentCrash after a drill, overlapping
            // whole-site failures) must not schedule a duplicate HoldExpire,
            // which would rerun the purge and inflate best_changes/history.
            if self.fail_session(x, y) {
                out.push((
                    hold,
                    BgpEvent::HoldExpire {
                        node: x,
                        neighbor: y,
                    },
                ));
            }
        }
    }

    /// Restores a failed link; both ends re-establish and exchange full
    /// tables.
    pub fn restore_link(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        if self.session.is_some() {
            self.ml_link_up(now, a, b, out);
            return;
        }
        self.restore_sessions_raw(now, a, b, out);
    }

    /// The abstract restore: flip both directions up and re-export full
    /// tables. Also the message-level fast path when both FSMs survived
    /// the outage.
    fn restore_sessions_raw(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        for (x, y) in [(a, b), (b, a)] {
            self.restore_session(now, x, y, out);
        }
    }

    /// Bounces the BGP session on a link (an RFC 4271 session reset /
    /// operator `clear bgp`).
    ///
    /// Abstract model: down and immediately back up — the hold timers armed
    /// by the teardown find the session up again when they fire and never
    /// purge; the observable effect is a burst of duplicate UPDATEs and any
    /// route-flap-damping penalty they earn.
    ///
    /// Message-level model: `a` sends an administrative Cease NOTIFICATION
    /// (see [`BgpSim::notify_reset`]): both ends purge, then re-establish
    /// after a jittered connect-retry — duplicate updates *plus* a real
    /// withdraw/re-announce flap, which is what damping actually penalizes.
    pub fn reset_link(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        if self.session.is_some() {
            self.notify_reset(now, a, b, CEASE, out);
            return;
        }
        self.fail_link(now, a, b, out);
        self.restore_link(now, a, b, out);
    }

    /// Message-level physical cut: both directions go administratively
    /// down, and each endpoint whose session was Established discovers the
    /// loss when its (now explicitly armed) hold timer expires.
    fn ml_link_down(
        &mut self,
        _now: SimTime,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        let Some(mut layer) = self.session.take() else {
            return;
        };
        for (x, y) in [(a, b), (b, a)] {
            let xi = x.index();
            let Some(nix) = self.nodes[xi].neighbor_index(y) else {
                continue;
            };
            layer.sessions[xi][nix].admin_up = false;
            if self.fail_session(x, y) && layer.sessions[xi][nix].fsm.is_established() {
                let hold = layer.sessions[xi][nix].fsm.hold_time();
                let gen = layer.arm(xi, nix, SessionTimerKind::Hold);
                out.push((
                    hold,
                    BgpEvent::SessionTimer {
                        node: x,
                        neighbor: y,
                        kind: SessionTimerKind::Hold,
                        gen,
                    },
                ));
            }
        }
        self.session = Some(layer);
    }

    /// Message-level link restoration. If both FSMs are still Established
    /// (the outage fit inside the hold window) the sessions never noticed:
    /// cancel the hold timers and restore. Otherwise each torn-down side
    /// restarts its handshake; an endpoint still Established sees the fresh
    /// OPEN and replaces its session.
    fn ml_link_up(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        let Some(mut layer) = self.session.take() else {
            return;
        };
        let (Some(ab), Some(ba)) = (
            self.nodes[a.index()].neighbor_index(b),
            self.nodes[b.index()].neighbor_index(a),
        ) else {
            self.session = Some(layer);
            return;
        };
        layer.sessions[a.index()][ab].admin_up = true;
        layer.sessions[b.index()][ba].admin_up = true;
        let both_established = layer.sessions[a.index()][ab].fsm.is_established()
            && layer.sessions[b.index()][ba].fsm.is_established();
        if both_established {
            layer.cancel(a.index(), ab, SessionTimerKind::Hold);
            layer.cancel(b.index(), ba, SessionTimerKind::Hold);
            self.restore_sessions_raw(now, a, b, out);
        } else {
            for (x, y, nix) in [(a, b, ab), (b, a, ba)] {
                if !layer.sessions[x.index()][nix].fsm.is_established() {
                    self.drive(&mut layer, now, x, y, FsmInput::Start, out);
                }
            }
        }
        self.session = Some(layer);
    }

    /// `a` resets its session to `b` with a NOTIFICATION carrying `code`:
    /// `a` purges immediately and reconnects after a jittered retry; `b`
    /// purges when the NOTIFICATION arrives and then listens passively.
    ///
    /// Abstract approximation: both ends purge and immediately re-establish
    /// (a noticed reset, unlike [`BgpSim::fail_link`]'s silent loss).
    pub fn notify_reset(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        code: u8,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        if let Some(mut layer) = self.session.take() {
            self.drive(
                &mut layer,
                now,
                a,
                b,
                FsmInput::Stop {
                    notify: Some((code, 0)),
                },
                out,
            );
            if let Some(nix) = self.nodes[a.index()].neighbor_index(b) {
                self.schedule_retry(&mut layer, a, b, nix, SimDuration::ZERO, out);
            }
            self.session = Some(layer);
        } else {
            for (x, y) in [(a, b), (b, a)] {
                self.fail_session(x, y);
                self.expire_now(now, x, y, out);
            }
            self.restore_sessions_raw(now, a, b, out);
        }
    }

    /// Half-open session: `peer`'s side of the session to `site` silently
    /// loses its state (state-table corruption, one-sided TCP teardown).
    /// The peer purges instantly; `site` keeps advertising into the void
    /// until its hold timer expires — the §5 pathology where a site keeps
    /// attracting traffic it can no longer coordinate with its neighbor.
    ///
    /// Message-level: the peer FSM stops silently and then listens; the
    /// site's hold expiry notifies, purges, and reconnects (full recovery).
    /// Abstract approximation: same two-phase purge via [`BgpEvent::HoldExpire`],
    /// but no re-establishment (the abstract model has no reconnect logic).
    /// Forwarding stays up in both models: the wire is fine.
    pub fn half_open(
        &mut self,
        now: SimTime,
        site: NodeId,
        peer: NodeId,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        if let Some(mut layer) = self.session.take() {
            self.drive(
                &mut layer,
                now,
                peer,
                site,
                FsmInput::Stop { notify: None },
                out,
            );
            let si = site.index();
            if let Some(nix) = self.nodes[si].neighbor_index(peer) {
                if layer.sessions[si][nix].fsm.is_established() {
                    let hold = layer.sessions[si][nix].fsm.hold_time();
                    let gen = layer.arm(si, nix, SessionTimerKind::Hold);
                    out.push((
                        hold,
                        BgpEvent::SessionTimer {
                            node: site,
                            neighbor: peer,
                            kind: SessionTimerKind::Hold,
                            gen,
                        },
                    ));
                }
            }
            self.session = Some(layer);
        } else {
            self.fail_session_control(peer, site);
            self.expire_now(now, peer, site, out);
            if self.fail_session_control(site, peer) {
                out.push((
                    self.timing.hold_time(),
                    BgpEvent::HoldExpire {
                        node: site,
                        neighbor: peer,
                    },
                ));
            }
        }
    }

    /// Graceful restart (RFC 4724) of `node`'s BGP process: every neighbor
    /// that negotiated the capability keeps forwarding *and* keeps the
    /// routes learned from `node` (marked stale) while the process is down.
    /// After `restart`, `node` reconnects with per-session jitter; routes
    /// the peers never see re-advertised are purged when the advertised
    /// stale window closes.
    ///
    /// Abstract approximation: a restart without helper-mode support — every
    /// session bounces ([`BgpSim::reset_link`] per neighbor), producing the
    /// duplicate-update burst but no retention.
    pub fn graceful_restart(
        &mut self,
        now: SimTime,
        node: NodeId,
        restart: SimDuration,
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        if let Some(mut layer) = self.session.take() {
            let idx = node.index();
            for nix in 0..layer.sessions[idx].len() {
                let peer = self.nodes[idx].neighbors()[nix].peer;
                // The restarting process forgets its session state without
                // touching the FIB; its TCP is unreachable until restart
                // completes. (The node's own RIB is preserved, as if
                // checkpointed — the model captures the peer-side retention
                // and the control-plane outage window.)
                let cfg = layer.sessions[idx][nix].fsm.config();
                layer.sessions[idx][nix].fsm = PeerFsm::new(cfg);
                layer.sessions[idx][nix].blocked = true;
                layer.sessions[idx][nix].stale.clear();
                layer.cancel_all(idx, nix);
                self.fail_session_control(node, peer);
                // The peer detects the restart (GR negotiated ⇒ retain).
                self.drive(&mut layer, now, peer, node, FsmInput::PeerRestart, out);
                // Restart completes after `restart`, then reconnect.
                self.schedule_retry(&mut layer, node, peer, nix, restart, out);
            }
            self.session = Some(layer);
        } else {
            let peers: Vec<NodeId> = self.nodes[node.index()]
                .neighbors()
                .iter()
                .map(|n| n.peer)
                .collect();
            for peer in peers {
                self.reset_link(now, node, peer, out);
            }
        }
    }

    /// Fails every link of `node` (a whole-site crash).
    pub fn fail_node_links(
        &mut self,
        now: SimTime,
        node: NodeId,
        topo_neighbors: &[NodeId],
        out: &mut Vec<(SimDuration, BgpEvent)>,
    ) {
        for &peer in topo_neighbors {
            self.fail_link(now, node, peer, out);
        }
    }

    /// Is the (bidirectional) link between `a` and `b` usable by the data
    /// plane? Keyed to the *forwarding* flag, which the abstract model
    /// keeps locked to the session flag; the message-level model splits
    /// them so graceful restart and half-open sessions keep forwarding
    /// while the control plane is down.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        self.nodes[a.index()].forwarding_is_up(b) && self.nodes[b.index()].forwarding_is_up(a)
    }

    fn record_change(&mut self, now: SimTime, node: NodeId, prefix: Prefix) {
        if !self.record_history {
            return;
        }
        self.history.push(RouteChange {
            time: now,
            node,
            prefix,
            new: self.nodes[node.index()].best(&prefix).cloned(),
        });
    }
}

struct Adapter<'a> {
    sim: &'a mut BgpSim,
    scratch: &'a mut Vec<(SimDuration, BgpEvent)>,
}

impl Handler<BgpEvent> for Adapter<'_> {
    fn handle(&mut self, now: SimTime, event: BgpEvent, sched: &mut Scheduler<'_, BgpEvent>) {
        self.sim.handle(now, event, self.scratch);
        for (d, e) in self.scratch.drain(..) {
            sched.after(d, e);
        }
    }
}

/// A self-contained control-plane-only simulation: engine + [`BgpSim`].
/// Used by the BGP tests and the Appendix A/B experiments (Figures 3/4),
/// where no data-plane probing is needed.
///
/// ```
/// use bobw_bgp::{BgpTimingConfig, OriginConfig, Standalone};
/// use bobw_event::RngFactory;
/// use bobw_topology::{generate, GenConfig};
///
/// let rng = RngFactory::new(42);
/// let (topo, cdn) = generate(&GenConfig::tiny(), &rng);
/// let mut sim = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
/// // Anycast: every site originates the same prefix.
/// let prefix = "184.164.244.0/24".parse().unwrap();
/// for &site in cdn.site_nodes() {
///     sim.announce(site, prefix, OriginConfig::plain());
/// }
/// sim.run_to_idle(1_000_000);
/// // Every AS now has a best route to one of the sites.
/// assert!(topo.ids().all(|n| {
///     sim.sim().best(n, &prefix).is_some() || cdn.site_at(n).is_some()
/// }));
/// ```
pub struct Standalone {
    engine: Engine<BgpEvent>,
    sim: BgpSim,
    /// Reusable buffer for events emitted by [`BgpSim`] before they are
    /// scheduled on the engine — one allocation for the sim's lifetime
    /// instead of one per injected operation or handled event.
    scratch: Vec<(SimDuration, BgpEvent)>,
}

impl Standalone {
    pub fn new(topo: &Topology, timing: BgpTimingConfig, rng: &RngFactory) -> Standalone {
        Standalone::with_queue_capacity(topo, timing, rng, 0)
    }

    /// Like [`Standalone::new`] but with the engine queue preallocated for
    /// `cap` pending events — feed back a comparable run's
    /// [`peak_queue_depth`]. Allocation only; behavior is identical.
    ///
    /// [`peak_queue_depth`]: Standalone::peak_queue_depth
    pub fn with_queue_capacity(
        topo: &Topology,
        timing: BgpTimingConfig,
        rng: &RngFactory,
        cap: usize,
    ) -> Standalone {
        Standalone {
            engine: Engine::with_capacity(cap),
            sim: BgpSim::new(topo, timing, rng),
            scratch: Vec::with_capacity(64),
        }
    }

    pub fn sim(&self) -> &BgpSim {
        &self.sim
    }

    pub fn sim_mut(&mut self) -> &mut BgpSim {
        &mut self.sim
    }

    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Number of BGP events waiting in the engine queue.
    pub fn pending_events(&self) -> usize {
        self.engine.pending()
    }

    /// Total events the engine has processed.
    pub fn events_processed(&self) -> u64 {
        self.engine.processed()
    }

    /// High-water mark of the engine queue (see [`Engine::peak_pending`]).
    pub fn peak_queue_depth(&self) -> usize {
        self.engine.peak_pending()
    }

    /// Events the engine's hot queue lane can hold without reallocating
    /// (see [`Engine::queue_capacity`]).
    pub fn queue_capacity(&self) -> usize {
        self.engine.queue_capacity()
    }

    /// Schedule everything the sim emitted into `scratch` onto the engine.
    /// Shared drain for every injection method below.
    fn flush_scratch(&mut self) {
        for (d, e) in self.scratch.drain(..) {
            self.engine.schedule_after(d, e);
        }
    }

    pub fn announce(&mut self, node: NodeId, prefix: Prefix, cfg: OriginConfig) {
        let now = self.engine.now();
        self.sim.announce(now, node, prefix, cfg, &mut self.scratch);
        self.flush_scratch();
    }

    pub fn withdraw(&mut self, node: NodeId, prefix: Prefix) {
        let now = self.engine.now();
        self.sim.withdraw(now, node, prefix, &mut self.scratch);
        self.flush_scratch();
    }

    /// Silently fails the link between `a` and `b` (see [`BgpSim::fail_link`]).
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        let now = self.engine.now();
        self.sim.fail_link(now, a, b, &mut self.scratch);
        self.flush_scratch();
    }

    /// Restores a previously failed link.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        let now = self.engine.now();
        self.sim.restore_link(now, a, b, &mut self.scratch);
        self.flush_scratch();
    }

    /// Bounces the session on a link (see [`BgpSim::reset_link`]).
    pub fn reset_link(&mut self, a: NodeId, b: NodeId) {
        let now = self.engine.now();
        self.sim.reset_link(now, a, b, &mut self.scratch);
        self.flush_scratch();
    }

    /// Crashes every listed link of `node` at once (whole-site failure).
    pub fn fail_all_links(&mut self, node: NodeId, peers: &[NodeId]) {
        let now = self.engine.now();
        self.sim
            .fail_node_links(now, node, peers, &mut self.scratch);
        self.flush_scratch();
    }

    /// Switches to the message-level session model and starts every
    /// session (see [`BgpSim::enable_message_level`]). Call before
    /// announcing anything; run the engine afterwards to let the sessions
    /// establish.
    pub fn enable_message_level(&mut self) {
        self.sim.enable_message_level(SessionKnobs::default());
        let now = self.engine.now();
        self.sim.start_sessions(now, &mut self.scratch);
        self.flush_scratch();
    }

    /// Half-opens the session between `site` and `peer` (see
    /// [`BgpSim::half_open`]).
    pub fn half_open(&mut self, site: NodeId, peer: NodeId) {
        let now = self.engine.now();
        self.sim.half_open(now, site, peer, &mut self.scratch);
        self.flush_scratch();
    }

    /// Resets `a`'s session to `b` with a NOTIFICATION (see
    /// [`BgpSim::notify_reset`]).
    pub fn notify_reset(&mut self, a: NodeId, b: NodeId, code: u8) {
        let now = self.engine.now();
        self.sim.notify_reset(now, a, b, code, &mut self.scratch);
        self.flush_scratch();
    }

    /// Gracefully restarts `node`'s BGP process (see
    /// [`BgpSim::graceful_restart`]).
    pub fn graceful_restart(&mut self, node: NodeId, restart: SimDuration) {
        let now = self.engine.now();
        self.sim
            .graceful_restart(now, node, restart, &mut self.scratch);
        self.flush_scratch();
    }

    /// Runs until no BGP work remains (full convergence) or the event
    /// budget is exhausted.
    pub fn run_to_idle(&mut self, max_events: u64) -> StepOutcome {
        let mut adapter = Adapter {
            sim: &mut self.sim,
            scratch: &mut self.scratch,
        };
        self.engine.run_to_idle(&mut adapter, max_events)
    }

    /// Runs for `secs` of simulated time from now (convenience wrapper).
    pub fn run_until_secs(&mut self, secs: u64) -> StepOutcome {
        let deadline = self.engine.now() + SimDuration::from_secs(secs);
        self.run_until(deadline, u64::MAX)
    }

    /// Runs until `deadline` (events at the deadline included).
    pub fn run_until(&mut self, deadline: SimTime, max_events: u64) -> StepOutcome {
        let mut adapter = Adapter {
            sim: &mut self.sim,
            scratch: &mut self.scratch,
        };
        self.engine.run_until(&mut adapter, deadline, max_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_net::Asn;
    use bobw_topology::{NodeKind, REGIONS};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Chain topology: t1 --(provides)--> mid --(provides)--> leaf, plus a
    /// second leaf under t1 directly.
    ///
    /// ```text
    ///        t1
    ///       /  \
    ///     mid   leaf2
    ///      |
    ///     leaf
    /// ```
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

    #[test]
    fn announcement_propagates_to_whole_chain() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain());
        assert_eq!(s.run_to_idle(100_000), StepOutcome::Idle);
        // Everyone has a route; FIB next hops walk back down the chain.
        assert_eq!(
            s.sim().fib_lookup(leaf, pre.addr_at(1)).unwrap().1,
            NextHop::Local
        );
        assert_eq!(
            s.sim().fib_lookup(mid, pre.addr_at(1)).unwrap().1,
            NextHop::Via(leaf)
        );
        assert_eq!(
            s.sim().fib_lookup(t1, pre.addr_at(1)).unwrap().1,
            NextHop::Via(mid)
        );
        assert_eq!(
            s.sim().fib_lookup(leaf2, pre.addr_at(1)).unwrap().1,
            NextHop::Via(t1)
        );
        // AS paths lengthen along the chain.
        let best_at_leaf2 = s.sim().best(leaf2, &pre).unwrap();
        assert_eq!(best_at_leaf2.attrs.path.hops().len(), 3);
        assert_eq!(best_at_leaf2.attrs.origin, leaf);
    }

    #[test]
    fn withdrawal_clears_the_network() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain());
        s.run_to_idle(100_000).expect_within_budget("converge");
        s.withdraw(leaf, pre);
        assert_eq!(s.run_to_idle(100_000), StepOutcome::Idle);
        for n in [t1, mid, leaf, leaf2] {
            assert!(s.sim().best(n, &pre).is_none(), "{n} still has a route");
            assert!(s.sim().fib_lookup(n, pre.addr_at(1)).is_none());
        }
    }

    #[test]
    fn anycast_two_origins_split_catchment() {
        // Diamond: two tier-1 peers, each providing one leaf; both leaves
        // announce the same prefix (anycast). Each tier-1 must prefer its
        // own customer leaf.
        let mut t = Topology::new();
        let c = REGIONS[0].center;
        let a = t.add_node(Asn(10), NodeKind::Tier1, c, 0);
        let b = t.add_node(Asn(11), NodeKind::Tier1, c, 0);
        let la = t.add_node(Asn(30), NodeKind::Stub, c, 0);
        let lb = t.add_node(Asn(31), NodeKind::Stub, c, 0);
        t.link_peers(a, b);
        t.link_provider_customer(a, la);
        t.link_provider_customer(b, lb);
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&t, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(la, pre, OriginConfig::plain());
        s.announce(lb, pre, OriginConfig::plain());
        s.run_to_idle(100_000).expect_within_budget("converge");
        assert_eq!(s.sim().best(a, &pre).unwrap().attrs.origin, la);
        assert_eq!(s.sim().best(b, &pre).unwrap().attrs.origin, lb);
        // Withdraw one origin: both tier-1s converge to the survivor.
        s.withdraw(la, pre);
        s.run_to_idle(100_000).expect_within_budget("converge");
        assert_eq!(s.sim().best(a, &pre).unwrap().attrs.origin, lb);
        assert_eq!(s.sim().best(b, &pre).unwrap().attrs.origin, lb);
        assert!(
            s.sim().best(la, &pre).is_some(),
            "ex-origin learns the other site"
        );
    }

    #[test]
    fn valley_free_blocks_peer_to_peer_transit() {
        // leafA - t1a (peer) t1b - leafB, and t1a peers with t1c which has
        // no customer route: t1c must NOT relay t1a's peer-learned route to
        // t1b. Build: origin under t1a; t1b reaches it via its own peer link
        // to t1a, never via t1c.
        let mut t = Topology::new();
        let c = REGIONS[0].center;
        let t1a = t.add_node(Asn(10), NodeKind::Tier1, c, 0);
        let t1b = t.add_node(Asn(11), NodeKind::Tier1, c, 0);
        let t1c = t.add_node(Asn(12), NodeKind::Tier1, c, 0);
        let origin = t.add_node(Asn(30), NodeKind::Stub, c, 0);
        t.link_peers(t1a, t1b);
        t.link_peers(t1a, t1c);
        t.link_peers(t1b, t1c);
        t.link_provider_customer(t1a, origin);
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&t, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(origin, pre, OriginConfig::plain());
        s.run_to_idle(100_000).expect_within_budget("converge");
        // t1b and t1c both learn via t1a directly (valley-free: they cannot
        // relay to each other).
        assert_eq!(s.sim().best(t1b, &pre).unwrap().from, Some(t1a));
        assert_eq!(s.sim().best(t1c, &pre).unwrap().from, Some(t1a));
        // Adj-RIB-In of t1b contains only the t1a route.
        assert_eq!(s.sim().node(t1b).adj_in(&pre).len(), 1);
    }

    #[test]
    fn covering_prefix_lpm_fallthrough_after_withdrawal() {
        // The §3 proactive-superprefix mechanism at a single router: /24
        // from one origin, /23 from another; withdrawing the /24 makes the
        // FIB fall through to the /23.
        let (topo, t1, _mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let specific = p("184.164.244.0/24");
        let covering = p("184.164.244.0/23");
        s.announce(leaf, specific, OriginConfig::plain());
        s.announce(leaf2, covering, OriginConfig::plain());
        s.run_to_idle(100_000).expect_within_budget("converge");
        let addr = specific.addr_at(10);
        let (matched, _) = s.sim().fib_lookup(t1, addr).unwrap();
        assert_eq!(matched, specific);
        s.withdraw(leaf, specific);
        s.run_to_idle(100_000).expect_within_budget("converge");
        let (matched, nh) = s.sim().fib_lookup(t1, addr).unwrap();
        assert_eq!(matched, covering);
        assert_eq!(nh, NextHop::Via(leaf2));
    }

    #[test]
    fn history_records_convergence_and_withdrawals() {
        let (topo, _t1, _mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.sim_mut().set_record_history(true);
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain());
        s.run_to_idle(100_000).expect_within_budget("converge");
        let announces = s.sim().history().len();
        assert!(announces >= 4, "each node's first best counts: {announces}");
        s.withdraw(leaf, pre);
        s.run_to_idle(100_000).expect_within_budget("converge");
        let hist = s.sim_mut().take_history();
        assert!(hist.iter().any(|rc| rc.is_withdrawal() && rc.node == leaf2));
        // Times are monotone.
        for w in hist.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        assert!(s.sim().history().is_empty());
    }

    #[test]
    fn deterministic_across_runs() {
        let (topo, ..) = chain();
        let run = || {
            let rng = RngFactory::new(99);
            let mut s = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
            s.sim_mut().set_record_history(true);
            let pre = p("184.164.244.0/24");
            s.announce(NodeId(2), pre, OriginConfig::plain());
            s.run_to_idle(1_000_000).expect_within_budget("converge");
            s.withdraw(NodeId(2), pre);
            s.run_to_idle(1_000_000).expect_within_budget("converge");
            (s.sim().stats(), s.now(), s.sim().history().len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_export_stays_at_direct_neighbors() {
        // leaf originates with NO_EXPORT: mid (its provider) learns and
        // uses the route but never re-advertises it to t1.
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain().with_no_export());
        s.run_to_idle(100_000).expect_within_budget("converge");
        assert_eq!(
            s.sim().fib_lookup(mid, pre.addr_at(1)).unwrap().1,
            NextHop::Via(leaf),
            "direct neighbor uses the NO_EXPORT route"
        );
        assert!(
            s.sim().best(t1, &pre).is_none(),
            "NO_EXPORT route must not propagate beyond the neighbor"
        );
        assert!(s.sim().best(leaf2, &pre).is_none());
    }

    #[test]
    fn stats_count_messages() {
        let (topo, ..) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.announce(NodeId(2), p("184.164.244.0/24"), OriginConfig::plain());
        s.run_to_idle(100_000).expect_within_budget("converge");
        let stats = s.sim().stats();
        assert!(stats.messages >= 3);
        assert!(stats.best_changes >= 3);
    }

    /// A message-level Standalone over the chain topology with sessions
    /// established and `prefix` announced from `leaf`.
    fn ml_converged() -> (Standalone, NodeId, NodeId, NodeId, NodeId, Prefix) {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut s = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        s.enable_message_level();
        let pre = p("184.164.244.0/24");
        s.announce(leaf, pre, OriginConfig::plain());
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        (s, t1, mid, leaf, leaf2, pre)
    }

    #[test]
    fn message_level_converges_like_abstract() {
        let (topo, t1, mid, leaf, leaf2) = chain();
        let rng = RngFactory::new(1);
        let mut a = Standalone::new(&topo, BgpTimingConfig::instant(), &rng);
        let pre = p("184.164.244.0/24");
        a.announce(leaf, pre, OriginConfig::plain());
        a.run_to_idle(1_000_000).expect_within_budget("converge");

        let (m, ..) = ml_converged();
        for n in [t1, mid, leaf, leaf2] {
            assert_eq!(
                m.sim().best(n, &pre),
                a.sim().best(n, &pre),
                "best at {n} differs between models"
            );
            assert_eq!(
                m.sim().fib_lookup(n, pre.addr_at(1)),
                a.sim().fib_lookup(n, pre.addr_at(1))
            );
        }
        // OPEN/KEEPALIVE exchanges went through the codec: 2 per direction
        // per adjacency at minimum.
        assert!(m.sim().stats().session_msgs >= 12);
        assert_eq!(a.sim().stats().session_msgs, 0);
    }

    #[test]
    fn message_level_notify_reset_flaps_and_recovers() {
        let (mut s, t1, mid, _leaf, leaf2, pre) = ml_converged();
        s.sim_mut().set_record_history(true);
        let before = s.sim().stats().session_msgs;
        s.notify_reset(t1, mid, 6); // administrative Cease from t1
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        // t1 purged its only route (via mid) and propagated the loss to
        // leaf2, then re-learned everything after re-establishment.
        let hist = s.sim().history();
        assert!(
            hist.iter().any(|rc| rc.node == leaf2 && rc.is_withdrawal()),
            "reset must propagate a real withdrawal"
        );
        assert_eq!(s.sim().best(t1, &pre).unwrap().from, Some(mid));
        assert_eq!(s.sim().best(leaf2, &pre).unwrap().from, Some(t1));
        assert!(
            s.sim().stats().session_msgs > before,
            "reset must exchange NOTIFICATION + fresh handshake"
        );
    }

    #[test]
    fn message_level_half_open_purges_peer_then_site() {
        let (mut s, t1, mid, _leaf, _leaf2, pre) = ml_converged();
        // t1's side of the (mid, t1) session silently loses its state.
        s.half_open(mid, t1);
        s.run_until_secs(1).expect_within_budget("run to deadline");
        // Phase 1: t1 purged instantly; mid still believes the session is
        // up and keeps its state.
        assert!(s.sim().best(t1, &pre).is_none(), "peer purges immediately");
        assert!(s.sim().best(mid, &pre).is_some());
        // The wire itself is fine: forwarding stays up in both directions.
        assert!(s.sim().link_is_up(t1, mid));
        // Phase 2: mid's hold timer expires, it notices, reconnects, and
        // the session fully recovers.
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        assert_eq!(s.sim().best(t1, &pre).unwrap().from, Some(mid));
    }

    #[test]
    fn message_level_graceful_restart_retains_routes() {
        let (mut s, t1, mid, _leaf, _leaf2, pre) = ml_converged();
        s.sim_mut().set_record_history(true);
        let best_before = *s.sim().best(t1, &pre).unwrap();
        s.graceful_restart(mid, SimDuration::from_secs(5));
        // During the restart window: control plane down, but t1 retains
        // the stale route and the data plane keeps forwarding through mid.
        assert_eq!(s.sim().best(t1, &pre), Some(&best_before));
        assert!(s.sim().link_is_up(t1, mid));
        assert!(!s.sim().node(t1).session_is_up(mid));
        // Restart completes, sessions re-establish, stale set is refreshed
        // before the sweep: no withdrawal ever reaches the network.
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        assert_eq!(s.sim().best(t1, &pre), Some(&best_before));
        assert!(s.sim().node(t1).session_is_up(mid));
        assert!(
            !s.sim().history().iter().any(|rc| rc.is_withdrawal()),
            "graceful restart must not leak withdrawals"
        );
    }

    #[test]
    fn message_level_link_cut_purges_at_hold_and_recovers_on_restore() {
        let (mut s, t1, mid, _leaf, leaf2, pre) = ml_converged();
        s.fail_link(t1, mid);
        // Before the hold timer: sessions still Established, routes kept.
        s.run_until_secs(1).expect_within_budget("run to deadline");
        assert!(s.sim().best(t1, &pre).is_some());
        assert!(!s.sim().link_is_up(t1, mid));
        // Hold expires: both sides purge; t1 and leaf2 lose the route.
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        assert!(s.sim().best(t1, &pre).is_none());
        assert!(s.sim().best(leaf2, &pre).is_none());
        // Restore: handshake from scratch, full tables re-exchanged.
        s.restore_link(t1, mid);
        assert_eq!(s.run_to_idle(1_000_000), StepOutcome::Idle);
        assert_eq!(s.sim().best(t1, &pre).unwrap().from, Some(mid));
        assert_eq!(s.sim().best(leaf2, &pre).unwrap().from, Some(t1));
    }

    #[test]
    fn message_level_deterministic_across_runs() {
        let (topo, t1, mid, leaf, _leaf2) = chain();
        let run = || {
            let rng = RngFactory::new(99);
            let mut s = Standalone::new(&topo, BgpTimingConfig::default(), &rng);
            s.sim_mut().set_record_history(true);
            s.enable_message_level();
            let pre = p("184.164.244.0/24");
            s.announce(leaf, pre, OriginConfig::plain());
            s.run_to_idle(1_000_000).expect_within_budget("converge");
            s.notify_reset(t1, mid, 6);
            s.run_to_idle(1_000_000).expect_within_budget("converge");
            s.graceful_restart(mid, SimDuration::from_secs(5));
            s.run_to_idle(1_000_000).expect_within_budget("converge");
            (s.sim().stats(), s.now(), s.sim().history().len())
        };
        assert_eq!(run(), run());
    }
}
