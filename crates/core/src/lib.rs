//! # bobw-core
//!
//! The primary contribution of *"The Best of Both Worlds: High Availability
//! CDN Routing Without Compromising Control"* (IMC '22), as a library:
//!
//! * [`technique`] — the five CDN redirection techniques of the paper's
//!   Figure 1 (plus the briefly-evaluated *combined* variant), expressed as
//!   "announcements before failure" + "reactions after failure". The two
//!   novel techniques are:
//!   - **reactive-anycast** (§4): unicast per-site prefixes in normal
//!     operation (full DNS control); on failure, *every other site
//!     immediately announces the failed site's prefix*, injecting valid
//!     routes that displace the invalid ones much faster than a bare
//!     withdrawal converges.
//!   - **proactive-prepending** (§4): backup sites announce the prefix
//!     *ahead of* failure with AS-path prepending, so alternative routes
//!     are pre-positioned and failover needs no global reconfiguration —
//!     at the price of some control wherever relationship preferences
//!     trump path length.
//! * [`experiment`] — the paper's §5 failover experiment: converge, select
//!   targets (≤50 ms, not anycast-routed to the site), measure control,
//!   fail the site, probe every 1.5 s for 600 s, extract per-target
//!   reconnection and failover times (Figures 2 and 5).
//! * [`control`] — the Table 1 traffic-control measurement.
//! * [`divergence`] — the Appendix C.1 "why did control fail" path
//!   analysis.
//! * [`tradeoffs`] — Table 2, derived from measured quantities instead of
//!   asserted.

pub mod control;
pub mod divergence;
pub mod dns_experiment;
pub mod experiment;
pub mod load;
pub mod metrics;
pub mod plan;
pub mod targets;
pub mod technique;
pub mod tradeoffs;

pub use bobw_traffic::{RegionCapacity, Steering, TrafficConfig, TrafficSim, TrafficSummary};
pub use control::{
    measure_control, measure_control_instrumented, try_measure_control_instrumented, ControlResult,
};
pub use divergence::{analyze_divergence, DivergenceReport};
pub use dns_experiment::{run_unicast_dns_failover, try_run_unicast_dns_failover, DnsClientConfig};
pub use experiment::{
    run_failover, run_failover_instrumented, try_run_failover_instrumented, CellPerf,
    ExperimentConfig, FailoverResult, FailureMode, ReactionFault, SessionModel, Testbed,
};
pub use load::{anycast_load, apply_to_dns, assign_load_aware, Assignment, LoadModel};
pub use metrics::{analyze_target, TargetOutcome};
pub use plan::AddressPlan;
pub use targets::select_targets;
pub use technique::{Action, Technique};
pub use tradeoffs::{derive_tradeoffs, MeasuredTechnique, Rating, TechniqueTradeoff};
