//! The declarative scenario model: what a JSON scenario file contains.
//!
//! Times are seconds relative to the experiment's scenario epoch — the
//! instant after the pre-failure network has converged and targets have
//! been selected (the legacy hard-coded failure fired 10 s after that
//! epoch). Site names are the paper's (`"ams"`, `"bos"`, …) or the
//! placeholder `"$site"`, which binds to the cell's measured site at
//! compile time so one scenario file serves the whole per-site grid.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A named, timestamped script of injectable fault events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    pub name: String,
    pub description: String,
    /// The measured site: which site's targets are selected and probed.
    /// `"$site"` defers to the grid cell (the common case).
    pub site: String,
    /// Measurement anchor in seconds: reconnection/failover times count
    /// from here. Defaults to the first impactful event's time (site
    /// failure, drain shutdown, link cut, …), falling back to the first
    /// event, falling back to 10 s.
    pub measure_from_s: Option<f64>,
    pub events: Vec<ScenarioEvent>,
}

/// One scripted event: an action at a time offset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioEvent {
    /// Seconds after the scenario epoch.
    pub at_s: f64,
    pub action: ScenarioAction,
}

/// The injectable actions. Each compiles to one or more `FaultOp`s applied
/// through the BGP simulator, the DNS authoritative, or the technique
/// reaction path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioAction {
    /// The site withdraws everything it announces (control plane only —
    /// the data plane stays up). The legacy pre-failure "flap down".
    Withdraw { site: String },
    /// The site re-announces its original advertisements (flap up).
    Announce { site: String },
    /// The site dies: data plane down, and either a graceful withdrawal
    /// of all its announcements or a silent crash of all its links
    /// (neighbors discover via hold timers). `graceful: null` defers to
    /// the experiment config's `failure_mode`.
    SiteFail {
        site: String,
        graceful: Option<bool>,
    },
    /// The site comes back: data plane up, links restored, original
    /// announcements replayed.
    SiteRestore { site: String },
    /// One of the site's links drops silently (index into the site
    /// node's adjacency list). Data plane drops packets crossing it at
    /// once; BGP discovers via the hold timer.
    LinkDown { site: String, link: usize },
    /// The link comes back and sessions re-establish.
    LinkUp { site: String, link: usize },
    /// BGP session reset on one link: down and immediately up again, so
    /// the hold-timer purge never fires but both ends re-advertise
    /// (a soft reset / RFC 4271 session bounce).
    SessionReset { site: String, link: usize },
    /// Half-open session on one of the site's links: the remote end
    /// silently loses its session state (one-sided TCP teardown) and
    /// purges at once, while the site keeps advertising into the void
    /// until its hold timer expires. Under the message-level model the
    /// site's FSM then notifies, reconnects, and recovers; the abstract
    /// model approximates the two-phase purge without re-establishment.
    HalfOpen { site: String, link: usize },
    /// The site's router restarts its BGP process with graceful restart
    /// (RFC 4724): every session drops but forwarding — and, under the
    /// message-level model, the neighbors' learned routes, marked stale —
    /// is retained for `restart_s` while the sessions re-handshake.
    GracefulRestart { site: String, restart_s: f64 },
    /// The site sends a NOTIFICATION with error `code` (1–6, RFC 4271
    /// §4.5) on one link: an administrative/error reset. Both ends purge;
    /// the session re-establishes after the connect-retry backoff.
    NotifyReset { site: String, link: usize, code: u8 },
    /// The neighbor on one of the site's links originates the site's
    /// prefixes as its own — a plain origin hijack. Route-level, so its
    /// semantics are identical under both session models; under
    /// message-level the forged UPDATEs still cross the wire codec.
    HijackAnnounce { site: String, link: usize },
    /// A periodic withdraw/re-announce sequence: `count` cycles starting
    /// here, one every `period_s`, each staying down `down_s`, with
    /// per-cycle jitter drawn uniformly from `[0, jitter_s)` out of the
    /// cell RNG (deterministic per seed).
    Flap {
        site: String,
        count: u32,
        period_s: f64,
        down_s: f64,
        jitter_s: f64,
    },
    /// Regional partition: silently fail every topology link with exactly
    /// one endpoint in the named region (a geo cut).
    Partition { region: String },
    /// Restore every link the matching `Partition` cut.
    HealPartition { region: String },
    /// Maintenance drain: the site withdraws its announcements and the
    /// DNS authoritative steers its clients elsewhere (each re-resolves
    /// within `ttl_s`); the data plane stays up until `shutdown_after_s`
    /// later, when the machines actually power off.
    Drain {
        site: String,
        ttl_s: f64,
        shutdown_after_s: f64,
    },
    /// The technique's reactive reconfiguration fires, minus its first
    /// `skip` actions (partial rollout). The legacy path is `skip: 0` at
    /// failure + detection delay; scheduling it later models slow
    /// detection, twice models a retry. With `stagger_s` set, the actions
    /// roll out one every `stagger_s` seconds (a staged rollout) instead
    /// of all at once; `null` (or omitted) keeps the legacy all-at-once
    /// behavior.
    React { skip: usize, stagger_s: Option<f64> },
    /// Demand surge (flash crowd / volumetric DDoS): demand ramps from 1×
    /// to `factor`× over `ramp_s`, holds until `duration_s` past the
    /// event time, then ramps back down. `region: null` surges globally.
    /// Only observed when the experiment enables the traffic layer.
    Surge {
        region: Option<String>,
        factor: f64,
        ramp_s: f64,
        duration_s: f64,
    },
    /// Permanent multiplicative shift of a region's demand (population
    /// moves, sustained regional event). Traffic layer only.
    DemandShift { region: String, factor: f64 },
    /// The site's serving capacity scales by `factor` (partial hardware
    /// failure at factor < 1, emergency provisioning at factor > 1).
    /// Traffic layer only.
    CapacityChange { site: String, factor: f64 },
    /// DDoS scrubbing comes online for `duration_s`: each tick, up to
    /// `capacity_factor × total site capacity` of overload is diverted to
    /// the scrubbing centers (reported as `scrubbed`) instead of shed at
    /// the door. A mitigation, not a fault — it is never a measurement
    /// anchor. Traffic layer only.
    Scrub {
        capacity_factor: f64,
        duration_s: f64,
    },
}

impl ScenarioAction {
    /// Whether this event is a measurement anchor candidate: something
    /// that takes capacity away — or, for the traffic layer, throws
    /// demand at it (not churn, not recovery).
    pub fn is_impactful(&self) -> bool {
        matches!(
            self,
            ScenarioAction::SiteFail { .. }
                | ScenarioAction::LinkDown { .. }
                | ScenarioAction::Partition { .. }
                | ScenarioAction::Drain { .. }
                | ScenarioAction::Surge { .. }
                | ScenarioAction::CapacityChange { .. }
                | ScenarioAction::HalfOpen { .. }
                | ScenarioAction::HijackAnnounce { .. }
        )
    }

    /// Whether this action only gains its full semantics under the
    /// message-level session model (`SessionModel::MessageLevel`). The
    /// abstract model runs a documented approximation instead.
    pub fn is_session_action(&self) -> bool {
        matches!(
            self,
            ScenarioAction::HalfOpen { .. }
                | ScenarioAction::GracefulRestart { .. }
                | ScenarioAction::NotifyReset { .. }
                | ScenarioAction::HijackAnnounce { .. }
        )
    }
}

/// A scenario that fails validation or compilation; points at the
/// offending event by index.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioError {
    /// Index into `events`, if the problem is tied to one event.
    pub event: Option<usize>,
    pub msg: String,
}

impl ScenarioError {
    pub fn new(msg: impl Into<String>) -> ScenarioError {
        ScenarioError {
            event: None,
            msg: msg.into(),
        }
    }

    pub fn at(event: usize, msg: impl Into<String>) -> ScenarioError {
        ScenarioError {
            event: Some(event),
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.event {
            Some(i) => write!(f, "events[{i}]: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn finite_nonneg(event: usize, what: &str, v: f64) -> Result<(), ScenarioError> {
    if v.is_finite() && v >= 0.0 {
        Ok(())
    } else {
        Err(ScenarioError::at(
            event,
            format!("{what} must be finite and >= 0, got {v}"),
        ))
    }
}

impl Scenario {
    /// Structural validation that needs no testbed: names, times, counts.
    /// Site/region names and link indices are checked at [`compile`] time
    /// against a concrete topology.
    ///
    /// [`compile`]: crate::compile
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::new("scenario name must not be empty"));
        }
        if self.site.is_empty() {
            return Err(ScenarioError::new("scenario site must not be empty"));
        }
        if let Some(m) = self.measure_from_s {
            if !m.is_finite() || m < 0.0 {
                return Err(ScenarioError::new(format!(
                    "measure_from_s must be finite and >= 0, got {m}"
                )));
            }
        }
        if self.events.is_empty() {
            return Err(ScenarioError::new(
                "scenario must contain at least one event",
            ));
        }
        for (i, ev) in self.events.iter().enumerate() {
            finite_nonneg(i, "at_s", ev.at_s)?;
            match &ev.action {
                ScenarioAction::Flap {
                    count,
                    period_s,
                    down_s,
                    jitter_s,
                    ..
                } => {
                    if *count == 0 {
                        return Err(ScenarioError::at(i, "flap count must be >= 1"));
                    }
                    finite_nonneg(i, "period_s", *period_s)?;
                    finite_nonneg(i, "down_s", *down_s)?;
                    finite_nonneg(i, "jitter_s", *jitter_s)?;
                    if *down_s + *jitter_s > *period_s {
                        return Err(ScenarioError::at(
                            i,
                            format!(
                                "flap cycles overlap: down_s + jitter_s = {} > period_s = {period_s}",
                                down_s + jitter_s
                            ),
                        ));
                    }
                }
                ScenarioAction::Drain {
                    ttl_s,
                    shutdown_after_s,
                    ..
                } => {
                    finite_nonneg(i, "ttl_s", *ttl_s)?;
                    finite_nonneg(i, "shutdown_after_s", *shutdown_after_s)?;
                }
                ScenarioAction::React {
                    stagger_s: Some(st),
                    ..
                } => {
                    finite_nonneg(i, "stagger_s", *st)?;
                }
                ScenarioAction::React {
                    stagger_s: None, ..
                } => {}
                ScenarioAction::Surge {
                    factor,
                    ramp_s,
                    duration_s,
                    ..
                } => {
                    finite_nonneg(i, "factor", *factor)?;
                    finite_nonneg(i, "ramp_s", *ramp_s)?;
                    finite_nonneg(i, "duration_s", *duration_s)?;
                }
                ScenarioAction::DemandShift { factor, .. } => {
                    finite_nonneg(i, "factor", *factor)?;
                }
                // A zero capacity would make utilization `load / 0` = +inf,
                // which no result float can carry; same rule as
                // `TrafficConfig::region_capacity`.
                ScenarioAction::CapacityChange { factor, .. }
                    if !factor.is_finite() || *factor <= 0.0 =>
                {
                    return Err(ScenarioError::at(
                        i,
                        format!("factor must be finite and > 0, got {factor}"),
                    ));
                }
                ScenarioAction::Scrub {
                    capacity_factor,
                    duration_s,
                } => {
                    finite_nonneg(i, "capacity_factor", *capacity_factor)?;
                    finite_nonneg(i, "duration_s", *duration_s)?;
                }
                ScenarioAction::GracefulRestart { restart_s, .. } => {
                    finite_nonneg(i, "restart_s", *restart_s)?;
                }
                ScenarioAction::NotifyReset { code, .. } if !(1..=6).contains(code) => {
                    return Err(ScenarioError::at(
                        i,
                        format!(
                            "NOTIFICATION error code must be 1..=6 (RFC 4271 §4.5), got {code}"
                        ),
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Whether any event is a session-level action ([`ScenarioAction::is_session_action`]).
    /// The bench matrix runs such scenarios under both session models —
    /// the abstract approximation and the message-level FSMs — so the
    /// resilience matrix shows what the approximation misses.
    pub fn uses_session_actions(&self) -> bool {
        self.events.iter().any(|e| e.action.is_session_action())
    }

    /// Convention: scenarios named `damping-*` are run with route-flap
    /// damping enabled (the catalog's damping-interaction studies).
    pub fn wants_damping(&self) -> bool {
        self.name.starts_with("damping-")
    }

    /// The measurement anchor in seconds (see `measure_from_s`).
    pub fn t_fail_s(&self) -> f64 {
        if let Some(m) = self.measure_from_s {
            return m;
        }
        self.events
            .iter()
            .find(|e| e.action.is_impactful())
            .or(self.events.first())
            .map(|e| e.at_s)
            .unwrap_or(10.0)
    }

    /// The built-in baseline: the paper's hard-coded site failure,
    /// expressed as a scenario. `flaps` withdraw/re-announce cycles on a
    /// fixed 30 s cadence (down 10 s), then the site fails at
    /// 10 s + 30 s × flaps, then the technique reacts `detection_delay_s`
    /// later. Compiling this replicates the legacy experiment loop's
    /// event schedule exactly — same events, same order, same timestamps.
    pub fn site_failure(detection_delay_s: f64, flaps: u32) -> Scenario {
        let mut events = Vec::new();
        for k in 0..flaps {
            let down = 10.0 + 30.0 * k as f64;
            events.push(ScenarioEvent {
                at_s: down,
                action: ScenarioAction::Withdraw {
                    site: "$site".into(),
                },
            });
            events.push(ScenarioEvent {
                at_s: down + 10.0,
                action: ScenarioAction::Announce {
                    site: "$site".into(),
                },
            });
        }
        let t_fail = 10.0 + 30.0 * flaps as f64;
        events.push(ScenarioEvent {
            at_s: t_fail,
            action: ScenarioAction::SiteFail {
                site: "$site".into(),
                graceful: None,
            },
        });
        events.push(ScenarioEvent {
            at_s: t_fail + detection_delay_s,
            action: ScenarioAction::React {
                skip: 0,
                stagger_s: None,
            },
        });
        Scenario {
            name: "site-failure".into(),
            description: "The paper's baseline: the measured site dies and the technique reacts \
                          after the detection delay."
                .into(),
            site: "$site".into(),
            measure_from_s: Some(t_fail),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_failure_builder_matches_legacy_schedule() {
        let s = Scenario::site_failure(2.0, 2);
        s.validate().unwrap();
        assert_eq!(s.t_fail_s(), 70.0);
        let times: Vec<f64> = s.events.iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![10.0, 20.0, 40.0, 50.0, 70.0, 72.0]);
        assert!(matches!(
            s.events[4].action,
            ScenarioAction::SiteFail { graceful: None, .. }
        ));
        assert!(matches!(
            s.events[5].action,
            ScenarioAction::React { skip: 0, .. }
        ));
    }

    #[test]
    fn json_round_trip_preserves_the_scenario() {
        let s = Scenario::site_failure(2.0, 1);
        let text = serde_json::to_string_pretty(&s).unwrap();
        let back: Scenario = serde_json::from_str_typed(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn typed_parse_reports_field_paths() {
        let bad = r#"{
            "name": "x", "description": "", "site": "$site",
            "measure_from_s": null,
            "events": [ { "at_s": "ten", "action": { "React": { "skip": 0 } } } ]
        }"#;
        let err = serde_json::from_str_typed::<Scenario>(bad)
            .unwrap_err()
            .to_string();
        assert!(err.contains("events[0].at_s"), "{err}");
    }

    #[test]
    fn validation_catches_bad_flaps() {
        let mut s = Scenario::site_failure(2.0, 0);
        s.events.insert(
            0,
            ScenarioEvent {
                at_s: 5.0,
                action: ScenarioAction::Flap {
                    site: "$site".into(),
                    count: 3,
                    period_s: 10.0,
                    down_s: 9.0,
                    jitter_s: 2.0,
                },
            },
        );
        let err = s.validate().unwrap_err().to_string();
        assert!(
            err.contains("events[0]") && err.contains("overlap"),
            "{err}"
        );
    }

    /// A site cannot drop to zero capacity: its utilization would be
    /// +inf, which no result float carries across the wire or into JSON.
    #[test]
    fn capacity_change_requires_a_positive_finite_factor() {
        let mut s = Scenario::site_failure(2.0, 0);
        for (factor, ok) in [
            (0.5, true),
            (0.0, false),
            (-1.0, false),
            (f64::INFINITY, false),
        ] {
            s.events.insert(
                0,
                ScenarioEvent {
                    at_s: 5.0,
                    action: ScenarioAction::CapacityChange {
                        site: "$site".into(),
                        factor,
                    },
                },
            );
            let res = s.validate();
            assert_eq!(res.is_ok(), ok, "factor {factor}: {res:?}");
            if let Err(err) = res {
                let err = err.to_string();
                assert!(err.contains("events[0]") && err.contains("> 0"), "{err}");
            }
            s.events.remove(0);
        }
    }

    #[test]
    fn scrub_is_a_mitigation_not_an_anchor() {
        let mut s = Scenario::site_failure(2.0, 0);
        s.measure_from_s = None;
        s.events.insert(
            0,
            ScenarioEvent {
                at_s: 5.0,
                action: ScenarioAction::Scrub {
                    capacity_factor: 1.5,
                    duration_s: 120.0,
                },
            },
        );
        s.validate().unwrap();
        // The anchor skips the scrub and lands on the SiteFail at 10.
        assert_eq!(s.t_fail_s(), 10.0);
        assert!(!s.events[0].action.is_impactful());

        s.events[0] = ScenarioEvent {
            at_s: 5.0,
            action: ScenarioAction::Scrub {
                capacity_factor: -1.0,
                duration_s: 120.0,
            },
        };
        let err = s.validate().unwrap_err().to_string();
        assert!(
            err.contains("events[0]") && err.contains("capacity_factor"),
            "{err}"
        );
    }

    #[test]
    fn session_actions_validate_and_classify() {
        let mut s = Scenario::site_failure(2.0, 0);
        assert!(!s.uses_session_actions());
        assert!(!s.wants_damping());
        s.events.insert(
            0,
            ScenarioEvent {
                at_s: 5.0,
                action: ScenarioAction::NotifyReset {
                    site: "$site".into(),
                    link: 0,
                    code: 6,
                },
            },
        );
        s.validate().unwrap();
        assert!(s.uses_session_actions());
        // Code 0 and 7 are outside RFC 4271 §4.5.
        for bad in [0u8, 7] {
            s.events[0] = ScenarioEvent {
                at_s: 5.0,
                action: ScenarioAction::NotifyReset {
                    site: "$site".into(),
                    link: 0,
                    code: bad,
                },
            };
            let err = s.validate().unwrap_err().to_string();
            assert!(err.contains("error code"), "{err}");
        }
        s.events[0] = ScenarioEvent {
            at_s: 5.0,
            action: ScenarioAction::GracefulRestart {
                site: "$site".into(),
                restart_s: f64::NAN,
            },
        };
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("restart_s"), "{err}");

        s.name = "damping-storm".into();
        assert!(s.wants_damping());

        // Impact classification: half-open and hijack take service away;
        // graceful restart and a noticed reset do not.
        let site = || "$site".to_string();
        assert!(ScenarioAction::HalfOpen {
            site: site(),
            link: 0
        }
        .is_impactful());
        assert!(ScenarioAction::HijackAnnounce {
            site: site(),
            link: 0
        }
        .is_impactful());
        assert!(!ScenarioAction::GracefulRestart {
            site: site(),
            restart_s: 120.0
        }
        .is_impactful());
        assert!(!ScenarioAction::NotifyReset {
            site: site(),
            link: 0,
            code: 6
        }
        .is_impactful());
    }

    #[test]
    fn measurement_anchor_prefers_impactful_events() {
        let mut s = Scenario::site_failure(2.0, 1);
        s.measure_from_s = None;
        // Flaps at 10/20 come first, but the anchor is the SiteFail at 40.
        assert_eq!(s.t_fail_s(), 40.0);
    }
}
