//! # bobw-dist
//!
//! Distributed cell execution: a coordinator/worker runner over a framed
//! socket protocol (TCP or Unix-domain).
//!
//! The paper's evaluation is a grid of independent ⟨technique, failed
//! site, seed⟩ cells; `--scale large` sweeps outgrow one process on one
//! machine. This crate fans the same deterministic cell grid the local
//! runner executes (`bobw_bench::runner`) across worker *processes*:
//!
//! * [`coordinator`] — enumerates cells, leases them to workers with
//!   heartbeat-renewed timeouts, reassigns cells of dead or stalled
//!   workers (first completion wins), and merges results in cell-index
//!   order — so distributed `results/*.json` are byte-identical to a
//!   local `--jobs 1` run.
//! * [`worker`] — connects (`bobw-worker` binary or `bobw worker`
//!   subcommand), proves via a build fingerprint that its generator
//!   produces the same worlds, builds a local `Testbed` from the config
//!   shipped in each batch, and streams back `(cell_index, result,
//!   CellPerf)` records.
//! * [`wire`] — the length-prefixed frame layer; each payload is the
//!   compact JSON of the message's `Serialize`/`Deserialize` schema,
//!   decoded typed, with exact `f64` round-trips.
//! * [`proto`] — the message set and the build/config fingerprints.
//! * [`endpoint`] — `tcp://host:port` and `unix://path` transports.
//! * [`interrupt`] — Ctrl-C detection for the coordinator's graceful
//!   drain.

pub mod auth;
pub mod coordinator;
pub mod endpoint;
pub mod interrupt;
pub mod proto;
pub mod wire;
pub mod worker;

pub use auth::{AuthSecret, SECRET_ENV};
pub use coordinator::{
    vet_client, Coordinator, CoordinatorConfig, WorkerPort, WorkerStat, MAX_ASSIGNMENTS,
};
pub use endpoint::{Conn, Endpoint, Listener};
pub use interrupt::{install_sigint_handler, interrupted};
pub use proto::{
    build_fingerprint, config_fingerprint, CellOutput, CellSpec, Challenge, ClientHello,
    FromWorker, Greeting, Hello, HelloReply, ToWorker, PROTOCOL_VERSION,
};
pub use wire::{Wire, WireError, MAX_FRAME};
pub use worker::{execute_cell, run_worker, WorkerConfig};
