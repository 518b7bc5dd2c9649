//! The client half of the service wire protocol.
//!
//! Workers speak the unchanged `bobw_dist` coordinator protocol; this
//! module adds what a *client* connection exchanges after its
//! `Greeting::Client` handshake is welcomed: framed [`ClientRequest`] /
//! [`ClientReply`] messages on the same codec. Every request gets at
//! least one reply; `Watch` streams a [`ClientReply::Cell`] per completed
//! cell (in completion order) and terminates with
//! [`ClientReply::JobDone`].

use bobw_core::ExperimentConfig;
use bobw_dist::{CellOutput, CellSpec};
use serde::{Deserialize, Serialize};

use crate::job::JobRow;

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Waiting for the scheduler (FIFO by job id).
    Queued,
    /// Its batch is on the coordinator now.
    Running,
    /// Every cell completed; outputs are available.
    Done,
    /// The batch errored (interrupt, poisoned cell, …); see the job error.
    Failed,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Inverse of [`JobState::as_str`], for reloading persisted metadata.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }
}

/// What a welcomed client may ask the daemon.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClientRequest {
    /// Submit a job described by a [`crate::job::JobSpec`] JSON document;
    /// the daemon expands it to a cell grid.
    Submit { spec_json: String },
    /// Submit an exact, pre-expanded batch — the `--dispatch daemon:…`
    /// path, which must reproduce a local run byte-for-byte and therefore
    /// ships its own config and cell list rather than a spec.
    SubmitRaw {
        name: String,
        config: Box<ExperimentConfig>,
        cells: Vec<CellSpec>,
    },
    /// List all jobs the daemon knows (including reloaded ones).
    Jobs,
    /// Stream the job's completed cells (replaying any that already
    /// landed), then its terminal state.
    Watch { job_id: u64 },
    /// The metrics plane: queue/job counters, throughput, worker liveness.
    Status,
    /// The resilience matrix aggregated over all completed jobs.
    Matrix,
    /// Shut the daemon down (drains workers, persists state).
    Quit,
}

/// Daemon → client replies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClientReply {
    /// The request failed; the connection stays usable.
    Error {
        message: String,
    },
    Submitted {
        job_id: u64,
    },
    Jobs {
        rows: Vec<JobRow>,
    },
    /// One completed cell of a watched job (completion order). Boxed to
    /// keep the enum small next to the result payload.
    Cell {
        job_id: u64,
        cell_index: u64,
        output: Box<CellOutput>,
    },
    /// Terminal frame of a watch stream.
    JobDone {
        job_id: u64,
        state: JobState,
        error: Option<String>,
    },
    /// JSON of [`crate::daemon::StatusSnapshot`].
    Status {
        json: String,
    },
    /// JSON of [`crate::matrix::ResilienceMatrix`].
    Matrix {
        json: String,
    },
    /// Acknowledges `Quit`.
    Bye,
}

/// The replayable essence of a job, persisted to `--state-dir` in the
/// wire's JSON (`job-<id>.task.json`) so a restarted daemon re-runs
/// exactly the batch that was submitted — same config, same cell order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobTask {
    pub config: ExperimentConfig,
    pub cells: Vec<CellSpec>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bobw_dist::wire::{decode_exact, encode_vec, Wire};

    /// Decodes `value`'s payload and checks it re-encodes to the same
    /// bytes; returns the decoded copy.
    fn reencode<T: Wire>(value: &T) -> T {
        let bytes = encode_vec(value);
        let back: T = decode_exact(&bytes).unwrap();
        assert_eq!(encode_vec(&back), bytes);
        back
    }

    fn real_cell() -> (ExperimentConfig, CellSpec, CellOutput) {
        let mut config = ExperimentConfig::quick(3);
        config.targets_per_site = 10;
        let tb = bobw_core::Testbed::new(config.clone());
        let cell = CellSpec::Failover {
            technique: "reactive-anycast".into(),
            site: "bos".into(),
        };
        let output = bobw_dist::execute_cell(&tb, &cell).unwrap();
        (config, cell, output)
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            ClientRequest::Submit {
                spec_json: "{\"techniques\": [\"anycast\"]}".into(),
            },
            ClientRequest::SubmitRaw {
                name: "bench".into(),
                config: Box::new(ExperimentConfig::quick(3)),
                cells: vec![CellSpec::Failover {
                    technique: "anycast".into(),
                    site: "bos".into(),
                }],
            },
            ClientRequest::Jobs,
            ClientRequest::Watch { job_id: 7 },
            ClientRequest::Status,
            ClientRequest::Matrix,
            ClientRequest::Quit,
        ];
        for req in &reqs {
            let back = reencode(req);
            // The config has no PartialEq; compare debug skeletons.
            assert_eq!(
                std::mem::discriminant(req),
                std::mem::discriminant(&back),
                "{req:?}"
            );
        }
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            ClientReply::Error {
                message: "no".into(),
            },
            ClientReply::Submitted { job_id: 3 },
            ClientReply::Jobs { rows: Vec::new() },
            ClientReply::JobDone {
                job_id: 3,
                state: JobState::Failed,
                error: Some("boom".into()),
            },
            ClientReply::Status { json: "{}".into() },
            ClientReply::Matrix { json: "{}".into() },
            ClientReply::Bye,
        ];
        for reply in &replies {
            let back = reencode(reply);
            assert_eq!(
                std::mem::discriminant(reply),
                std::mem::discriminant(&back),
                "{reply:?}"
            );
        }
    }

    #[test]
    fn job_state_round_trips() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
        ] {
            assert_eq!(reencode(&state), state);
            assert_eq!(JobState::parse(state.as_str()), Some(state));
        }
        assert_eq!(JobState::parse("weird"), None);
    }

    #[test]
    fn real_cells_reencode_identically() {
        let (config, cell, output) = real_cell();
        reencode(&ClientRequest::SubmitRaw {
            name: "bench".into(),
            config: Box::new(config.clone()),
            cells: vec![cell.clone()],
        });
        reencode(&ClientReply::Cell {
            job_id: 1,
            cell_index: 0,
            output: Box::new(output.clone()),
        });
        reencode(&JobTask {
            config,
            cells: vec![cell],
        });
        reencode(&vec![output]);
    }
}
