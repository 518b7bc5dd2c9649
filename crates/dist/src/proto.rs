//! Protocol messages. Every message derives `Serialize`/`Deserialize` and
//! crosses the wire as typed JSON (see [`crate::wire`]).
//!
//! The coordinator ships the **full `ExperimentConfig`** in each batch
//! header rather than asking workers to reconstruct it from CLI flags:
//! ablation studies mutate a dozen config knobs (MRAI bands, detection
//! delay, flap damping, reaction faults, …) that no flag set could
//! express, and a worker building even a slightly different config would
//! silently produce different — deterministically wrong — results.
//!
//! The *handshake* fingerprint guards against a subtler hazard: two
//! builds that parse the same config but whose topology generators (or
//! RNG streams) diverged. [`build_fingerprint`] hashes the protocol
//! version together with the JSON rendering of a topology generated from
//! a fixed canonical config; any semantic drift in the generator changes
//! the hash and the coordinator rejects the worker at `Hello` time
//! instead of merging corrupt cells.

use std::sync::OnceLock;

use bobw_core::{CellPerf, ControlResult, ExperimentConfig, FailoverResult};
use bobw_event::RngFactory;
use bobw_topology::{generate, GenConfig};
use serde::{Deserialize, Serialize};

/// Bump on any incompatible change to the message set or an encoding.
/// v2: `ExperimentConfig` carries an optional fault scenario.
/// v3: `ExperimentConfig` carries an optional traffic layer; results
/// carry its summary.
/// v4: challenge/HMAC handshake (server sends [`Challenge`] first, peers
/// answer with a [`Greeting`]), multiplexed workers (`Hello` advertises
/// a capacity, `Ready` reports testbed-cache hits), client greetings for
/// the `bobw serve` job service, and `TrafficSummary` gains scrubbed
/// volume.
/// v5: `CellPerf` reports the final event-queue capacity.
/// v6: `ExperimentConfig` carries the session model (abstract vs
/// message-level FSMs) and `TrafficConfig` carries per-region capacity
/// overrides. Scenarios still cross as JSON, so the session-fault actions
/// need no encoding change.
/// v7: every message crosses as typed JSON; the hand-written binary
/// encoding is gone. Adding a config or result field no longer needs a
/// bump of its own.
pub const PROTOCOL_VERSION: u32 = 7;

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a, the same construction the vendored proptest stub uses — small,
/// stable, and plenty for equality fingerprints (this is not security).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fingerprint of this *build's* experiment semantics: protocol version
/// plus the JSON of a topology generated from a fixed canonical config.
/// Two binaries agree iff their generators (and the RNG streams beneath
/// them) produce identical worlds.
pub fn build_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let cfg = GenConfig::tiny();
        let rng = RngFactory::new(0xb0b3_d157);
        let (topo, _) = generate(&cfg, &rng);
        let json = serde_json::to_string(&topo).expect("topology serializes");
        fnv1a(json.as_bytes()) ^ ((PROTOCOL_VERSION as u64) << 56)
    })
}

/// Fingerprint of one experiment config — the worker's testbed cache key
/// and a per-batch sanity check.
pub fn config_fingerprint(cfg: &ExperimentConfig) -> u64 {
    let json = serde_json::to_string(cfg).expect("config serializes");
    fnv1a(json.as_bytes())
}

// ---------------------------------------------------------------------------
// Cell descriptions and outputs
// ---------------------------------------------------------------------------

/// One unit of distributable work. Sites travel by *name* (the grids in
/// `ablation.rs` and friends are written in site names) and techniques by
/// their paper name, which round-trips through `Technique::parse`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CellSpec {
    /// A §5.2 failover experiment: run `technique`, fail `site`.
    Failover { technique: String, site: String },
    /// A Table 1 control measurement of `site` across `prepends`.
    Control { site: String, prepends: Vec<u8> },
}

/// The result of one executed cell, mirroring [`CellSpec`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CellOutput {
    Failover(FailoverResult, CellPerf),
    Control(ControlResult, CellPerf),
}

impl CellOutput {
    pub fn perf(&self) -> CellPerf {
        match self {
            CellOutput::Failover(_, p) | CellOutput::Control(_, p) => *p,
        }
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// First frame the *server* (coordinator or `bobw serve` daemon) sends
/// on every accepted connection: a fresh nonce the peer must fold into
/// its authentication tag, plus whether a tag is required at all (no
/// configured secret ⇒ open, the pre-v4 behavior).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Challenge {
    pub nonce: Vec<u8>,
    pub auth_required: bool,
}

/// First frame a peer sends after the [`Challenge`]: identifies the
/// connection as a cell-computing worker or a job-service client. A
/// plain batch coordinator rejects `Client` greetings; the `bobw serve`
/// daemon accepts both on one listener.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Greeting {
    Worker(Hello),
    Client(ClientHello),
}

/// Worker half of a [`Greeting`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    pub protocol: u32,
    /// [`build_fingerprint`] of the worker's binary.
    pub fingerprint: u64,
    /// Human-readable worker name for logs (hostname/pid by default).
    pub worker_name: String,
    /// Concurrent cells this worker computes (its `--threads`); the
    /// coordinator assigns up to this many cells over the one connection.
    pub capacity: u32,
    /// HMAC tag over (nonce, protocol, fingerprint, name); empty when the
    /// worker has no secret configured.
    pub auth: Vec<u8>,
}

/// Client half of a [`Greeting`] (submit/watch/status connections).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientHello {
    pub protocol: u32,
    /// Human-readable client name for logs.
    pub client_name: String,
    /// HMAC tag over (nonce, protocol, name); empty when unauthenticated.
    pub auth: Vec<u8>,
}

/// Coordinator's answer to a [`Hello`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HelloReply {
    Welcome,
    /// The worker must exit; `reason` is for its log.
    Rejected {
        reason: String,
    },
}

/// Coordinator → worker after the handshake.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ToWorker {
    /// Announces a batch: workers (re)build their testbed for `config`
    /// (cached across batches by [`config_fingerprint`]).
    Batch {
        batch_id: u64,
        config_print: u64,
        /// Boxed to keep the enum lease-message-sized (the config dwarfs
        /// every other variant).
        config: Box<ExperimentConfig>,
    },
    /// Assigns one cell of the current batch.
    Assign {
        batch_id: u64,
        cell_index: u64,
        cell: CellSpec,
    },
    /// No more cells in this batch; idle until the next `Batch`.
    Drain,
    /// The run is over; the worker exits.
    Shutdown,
}

/// Worker → coordinator after the handshake.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum FromWorker {
    /// Acknowledges a `Batch`: the testbed for its config is up (either
    /// freshly built or — `cache_hit` — served warm from the worker's
    /// process-wide cache) and the worker will accept assignments.
    Ready { cache_hit: bool },
    /// Still alive and still computing `cell_index` (lease renewal).
    Heartbeat { batch_id: u64, cell_index: u64 },
    /// A finished cell. Boxed to keep the enum heartbeat-sized (the
    /// result dwarfs every other variant).
    Done {
        batch_id: u64,
        cell_index: u64,
        output: Box<CellOutput>,
    },
    /// The worker could not run the cell (bad technique name, unknown
    /// site, …). The coordinator treats the worker as poisoned for this
    /// cell and reassigns elsewhere.
    Failed {
        batch_id: u64,
        cell_index: u64,
        error: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_exact, encode_vec, Wire};
    use bobw_core::{FailureMode, ReactionFault};
    use bobw_event::SimDuration;

    #[test]
    fn experiment_config_round_trips_exactly() {
        // A config with every optional knob exercised — the ablation bins'
        // mutations must survive the wire bit-for-bit.
        let mut cfg = ExperimentConfig::quick(99);
        cfg.timing.flap_damping = Some(bobw_bgp::DampingConfig::default());
        cfg.timing.withdrawal_rate_limiting = true;
        cfg.timing.mrai_min_s *= 0.25;
        cfg.failure_mode = FailureMode::SilentCrash;
        cfg.reaction_fault = Some(ReactionFault::SkipSites(3));
        cfg.pre_failure_flaps = 4;
        cfg.detection_delay = SimDuration::from_nanos(123_456_789);
        cfg.scenario = Some(bobw_scenario::Scenario::site_failure(2.5, 3));
        cfg.traffic = Some(bobw_core::TrafficConfig {
            capacity_headroom: 1.25,
            control_every: 5,
            region_capacity: vec![
                bobw_core::RegionCapacity {
                    region: "seattle".into(),
                    factor: 2.0,
                },
                bobw_core::RegionCapacity {
                    region: "boston".into(),
                    factor: 0.5,
                },
            ],
            ..Default::default()
        });
        cfg.session_model = bobw_core::SessionModel::MessageLevel;
        let bytes = encode_vec(&cfg);
        let back: ExperimentConfig = decode_exact(&bytes).unwrap();
        // The vendored serde can't derive PartialEq-able configs, but JSON
        // rendering is canonical: equal JSON ⇒ equal config.
        assert_eq!(
            serde_json::to_string(&cfg).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
        assert_eq!(config_fingerprint(&cfg), config_fingerprint(&back));
    }

    #[test]
    fn cell_messages_round_trip() {
        let spec = CellSpec::Failover {
            technique: "proactive-prepending-3-selective".into(),
            site: "sea1".into(),
        };
        let bytes = encode_vec(&spec);
        assert_eq!(decode_exact::<CellSpec>(&bytes).unwrap(), spec);

        let spec = CellSpec::Control {
            site: "ams".into(),
            prepends: vec![3, 5],
        };
        let bytes = encode_vec(&spec);
        assert_eq!(decode_exact::<CellSpec>(&bytes).unwrap(), spec);

        let hello = Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint: build_fingerprint(),
            worker_name: "w-1".into(),
            capacity: 8,
            auth: vec![0xaa; 32],
        };
        let bytes = encode_vec(&hello);
        assert_eq!(decode_exact::<Hello>(&bytes).unwrap(), hello);

        let challenge = Challenge {
            nonce: crate::auth::fresh_nonce(),
            auth_required: true,
        };
        let bytes = encode_vec(&challenge);
        assert_eq!(decode_exact::<Challenge>(&bytes).unwrap(), challenge);

        let greeting = Greeting::Client(ClientHello {
            protocol: PROTOCOL_VERSION,
            client_name: "cli".into(),
            auth: Vec::new(),
        });
        let bytes = encode_vec(&greeting);
        assert_eq!(decode_exact::<Greeting>(&bytes).unwrap(), greeting);

        let reply = HelloReply::Rejected {
            reason: "fingerprint mismatch".into(),
        };
        let bytes = encode_vec(&reply);
        assert_eq!(decode_exact::<HelloReply>(&bytes).unwrap(), reply);
    }

    #[test]
    fn failover_result_round_trips_via_execution() {
        use bobw_core::{run_failover_instrumented, Technique, Testbed};
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 20;
        let tb = Testbed::new(cfg);
        let site = tb.site("bos");
        let (r, perf) = run_failover_instrumented(&tb, &Technique::ReactiveAnycast, site);
        let out = CellOutput::Failover(r.clone(), perf);
        let bytes = encode_vec(&out);
        let back: CellOutput = decode_exact(&bytes).unwrap();
        let CellOutput::Failover(r2, p2) = back else {
            panic!("wrong variant");
        };
        assert_eq!(r.outcomes, r2.outcomes);
        assert_eq!(r.site_name, r2.site_name);
        assert_eq!(r.t_fail, r2.t_fail);
        assert_eq!(r.num_candidates, r2.num_candidates);
        assert_eq!(perf.events_processed, p2.events_processed);
        // JSON rendering — what actually lands in results/*.json — must be
        // identical after a wire round trip.
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    /// A traffic-enabled cell's summary (peak utilizations, shed volume,
    /// demand weights) must survive the wire bit-for-bit — the extended
    /// resilience matrix is computed on the coordinator from these.
    #[test]
    fn traffic_summary_round_trips_via_execution() {
        use bobw_core::{run_failover_instrumented, Technique, Testbed};
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 20;
        cfg.traffic = Some(bobw_core::TrafficConfig::default());
        let tb = Testbed::new(cfg);
        let site = tb.site("bos");
        let (r, perf) = run_failover_instrumented(&tb, &Technique::ReactiveAnycast, site);
        assert!(r.traffic.is_some(), "traffic layer must have observed");
        let bytes = encode_vec(&CellOutput::Failover(r.clone(), perf));
        let back: CellOutput = decode_exact(&bytes).unwrap();
        let CellOutput::Failover(r2, _) = back else {
            panic!("wrong variant");
        };
        assert_eq!(r.traffic, r2.traffic);
        assert_eq!(
            serde_json::to_string(&r).unwrap(),
            serde_json::to_string(&r2).unwrap()
        );
    }

    #[test]
    fn build_fingerprint_is_stable_within_a_build() {
        assert_eq!(build_fingerprint(), build_fingerprint());
        assert_ne!(build_fingerprint(), 0);
    }

    /// A scenario that crossed the wire must compile to a byte-identical
    /// event list on the worker — including the RNG-jittered flap cycles,
    /// which is what coordinator/worker byte-identity of results rests on.
    #[test]
    fn scenario_compiles_identically_after_wire_round_trip() {
        use bobw_core::Testbed;
        use bobw_scenario::{compile, Scenario, ScenarioAction, ScenarioEvent};

        let mut scenario = Scenario::site_failure(2.0, 0);
        scenario.events.insert(
            0,
            ScenarioEvent {
                at_s: 1.0,
                action: ScenarioAction::Flap {
                    site: "$site".into(),
                    count: 3,
                    period_s: 3.0,
                    down_s: 1.0,
                    jitter_s: 1.5,
                },
            },
        );
        let bytes = encode_vec(&scenario);
        let back: Scenario = decode_exact(&bytes).unwrap();
        assert_eq!(back, scenario);

        let tb = Testbed::new(ExperimentConfig::quick(7));
        let site = tb.site("bos");
        let local = compile(&scenario, &tb.topo, &tb.cdn, &tb.rng, site, true).unwrap();
        let remote = compile(&back, &tb.topo, &tb.cdn, &tb.rng, site, true).unwrap();
        assert_eq!(local, remote);
        assert_eq!(
            serde_json::to_string(&local).unwrap(),
            serde_json::to_string(&remote).unwrap()
        );
    }

    /// Malformed scenario JSON is rejected at decode time, before a
    /// worker could try to build a testbed from it.
    #[test]
    fn malformed_scenario_is_rejected_at_decode() {
        let err = decode_exact::<bobw_scenario::Scenario>(b"{\"name\": \"x\"}").unwrap_err();
        assert!(err.to_string().contains("missing field"), "{err}");
    }

    /// A real traffic-enabled failover cell and a real control cell.
    fn real_outputs() -> [CellOutput; 2] {
        use bobw_core::{measure_control_instrumented, run_failover_instrumented};
        use bobw_core::{Technique, Testbed};
        let mut cfg = ExperimentConfig::quick(7);
        cfg.targets_per_site = 20;
        cfg.traffic = Some(bobw_core::TrafficConfig::default());
        let tb = Testbed::new(cfg);
        let site = tb.site("bos");
        let (r, p) = run_failover_instrumented(&tb, &Technique::ReactiveAnycast, site);
        let (c, q) = measure_control_instrumented(&tb, site, &[1, 3]);
        [CellOutput::Failover(r, p), CellOutput::Control(c, q)]
    }

    /// `encode(decode(b)) == b`: the payload is a fixed point of the codec.
    fn assert_reencodes<T: Wire>(value: &T) {
        let bytes = encode_vec(value);
        let back: T = decode_exact(&bytes).unwrap();
        assert_eq!(
            encode_vec(&back),
            bytes,
            "{}",
            String::from_utf8_lossy(&bytes)
        );
    }

    #[test]
    fn every_message_type_reencodes_identically() {
        let outputs = real_outputs();
        let spec = CellSpec::Control {
            site: "bos".into(),
            prepends: vec![1, 3],
        };
        let hello = Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint: u64::MAX,
            worker_name: "w-\"1\"\n".into(),
            capacity: 2,
            auth: vec![0, 255, 7],
        };
        let client = ClientHello {
            protocol: PROTOCOL_VERSION,
            client_name: "cli".into(),
            auth: Vec::new(),
        };
        assert_reencodes(&Challenge {
            nonce: crate::auth::fresh_nonce(),
            auth_required: false,
        });
        assert_reencodes(&Greeting::Worker(hello.clone()));
        assert_reencodes(&Greeting::Client(client.clone()));
        assert_reencodes(&hello);
        assert_reencodes(&client);
        assert_reencodes(&HelloReply::Welcome);
        assert_reencodes(&HelloReply::Rejected {
            reason: "no".into(),
        });
        assert_reencodes(&spec);
        assert_reencodes(&ToWorker::Batch {
            batch_id: 1,
            config_print: 2,
            config: Box::new(ExperimentConfig::eval(42)),
        });
        assert_reencodes(&ToWorker::Assign {
            batch_id: 1,
            cell_index: 3,
            cell: spec,
        });
        assert_reencodes(&ToWorker::Drain);
        assert_reencodes(&ToWorker::Shutdown);
        assert_reencodes(&FromWorker::Ready { cache_hit: true });
        assert_reencodes(&FromWorker::Heartbeat {
            batch_id: 1,
            cell_index: 3,
        });
        assert_reencodes(&FromWorker::Failed {
            batch_id: 1,
            cell_index: 3,
            error: "unknown site".into(),
        });
        for output in outputs {
            assert_reencodes(&output);
            assert_reencodes(&FromWorker::Done {
                batch_id: 1,
                cell_index: 3,
                output: Box::new(output),
            });
        }
    }

    /// A non-finite float renders as `null`; decoding must fail and name
    /// the field instead of handing the coordinator a different number.
    #[test]
    fn non_finite_result_float_fails_decode_with_its_path() {
        let [CellOutput::Failover(mut r, p), _] = real_outputs() else {
            panic!("wrong variant");
        };
        r.traffic
            .as_mut()
            .expect("traffic observed")
            .peak_utilization_after[1] = f64::INFINITY;
        let bytes = encode_vec(&CellOutput::Failover(r, p));
        let err = decode_exact::<CellOutput>(&bytes).unwrap_err();
        assert!(
            err.to_string()
                .contains("Failover[0].traffic.peak_utilization_after[1]: expected number"),
            "{err}"
        );
    }

    /// A config from the wire cannot carry a prefix `Prefix::new` would
    /// assert on: a length over 32 or host bits set.
    #[test]
    fn impossible_prefixes_fail_config_decode() {
        let cfg = ExperimentConfig::quick(1);
        let json = serde_json::to_string(&cfg).unwrap();
        let covering = cfg.plan.covering;
        let field = |bits: u32, len: u8| format!("\"covering\":{{\"bits\":{bits},\"len\":{len}}}");
        let ours = field(covering.bits(), covering.len());
        assert!(json.contains(&ours));
        for (bad, why) in [
            (
                field(covering.bits(), 40),
                "plan.covering.len: prefix length 40 > 32",
            ),
            (
                field(covering.bits() | 1, covering.len()),
                "plan.covering: host bits set",
            ),
        ] {
            let err =
                decode_exact::<ExperimentConfig>(json.replace(&ours, &bad).as_bytes()).unwrap_err();
            assert!(err.to_string().contains(why), "{err}");
        }
    }
}
