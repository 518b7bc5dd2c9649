//! # bobw-dataplane
//!
//! The data plane of the *Best of Both Worlds* simulator: hop-by-hop packet
//! forwarding over the BGP FIBs, anycast catchment computation, path RTT,
//! and a Verfploeter-style prober.
//!
//! The paper measures availability on the data plane: after emulating a
//! site failure it pings every controllable target every ~1.5 s for ~600 s
//! and records at which site (if any) each reply arrives (§5.2). This crate
//! reproduces that instrument:
//!
//! * [`forward::walk`] follows each node's longest-prefix-match FIB entry
//!   hop by hop, so packets die in exactly the ways BGP convergence lets
//!   them die — blackholed at a router with no route, looping between
//!   routers holding mutually stale routes, or arriving at a failed site.
//! * [`probe`] implements the paper's probing protocol, including sequence
//!   numbers (to detect disconnection) and the per-site capture logs that
//!   stand in for `tcpdump`.
//! * [`mod@catchment`] computes which site each client AS reaches — the basis
//!   of the paper's target selection ("not routed to the site by anycast")
//!   and Table 1's traffic-control percentages.
//! * [`resolve`] memoizes [`forward::walk`]'s outcome for every node toward
//!   a destination, so callers asking for many sources at once (probe
//!   rounds, demand ticks, target selection) walk each node once per
//!   routing change instead of once per source.

pub mod capture;
pub mod catchment;
pub mod forward;
pub mod packet;
pub mod probe;
pub mod resolve;

pub use capture::SiteCapture;
pub use catchment::{catchment, rtt_to_site};
pub use forward::{walk, walk_with_path, Delivery, ForwardEnv};
pub use packet::{internet_checksum, IcmpEcho, PacketError, ETHICS_PAYLOAD};
pub use probe::{
    probe_once, probe_path, request_leg, ProbeConfig, ProbeLog, ProbeOutcome, ProbeRecord,
};
pub use resolve::{Reach, Resolution, Resolver};
