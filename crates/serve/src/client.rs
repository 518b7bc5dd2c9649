//! Client-side wrapper around the service protocol: handshake, then
//! typed request/reply calls. Used by the `bobw submit`/`watch`/`jobs`
//! subcommands and by the bench runner's `daemon:` dispatch.

use std::time::Duration;

use bobw_core::ExperimentConfig;
use bobw_dist::wire::{recv, send};
use bobw_dist::{
    AuthSecret, CellOutput, CellSpec, Challenge, ClientHello, Conn, Endpoint, Greeting, HelloReply,
    PROTOCOL_VERSION,
};

use crate::proto::{ClientReply, ClientRequest, JobState};

/// An authenticated client connection to a `bobw serve` daemon.
pub struct ServeClient {
    reader: Conn,
    writer: Conn,
}

impl ServeClient {
    /// Connects and completes the challenge/greeting handshake. Retries
    /// the TCP/unix connect briefly so a client racing daemon startup
    /// (tests, scripts) does not flake.
    pub fn connect(
        endpoint: &Endpoint,
        name: &str,
        secret: Option<&AuthSecret>,
    ) -> Result<ServeClient, String> {
        let conn = endpoint
            .connect_with_retry(Duration::from_secs(10))
            .map_err(|e| format!("connect to {endpoint}: {e}"))?;
        conn.set_nodelay();
        let writer = conn
            .try_clone()
            .map_err(|e| format!("clone connection: {e}"))?;
        let mut client = ServeClient {
            reader: conn,
            writer,
        };
        let challenge: Challenge = match recv(&mut client.reader) {
            Ok(Some(c)) => c,
            Ok(None) => return Err("server closed the connection before its challenge".into()),
            Err(e) => return Err(format!("read challenge: {e}")),
        };
        if challenge.auth_required && secret.is_none() {
            return Err(format!(
                "daemon requires authentication and client {name} has no secret \
                 (set BOBW_SECRET or pass --secret-file)"
            ));
        }
        let auth = secret
            .map(|s| s.client_tag(&challenge.nonce, PROTOCOL_VERSION, name))
            .unwrap_or_default();
        let greeting = Greeting::Client(ClientHello {
            protocol: PROTOCOL_VERSION,
            client_name: name.to_string(),
            auth,
        });
        send(&mut client.writer, &greeting).map_err(|e| format!("send greeting: {e}"))?;
        match recv::<_, HelloReply>(&mut client.reader) {
            Ok(Some(HelloReply::Welcome)) => Ok(client),
            Ok(Some(HelloReply::Rejected { reason })) => {
                Err(format!("daemon rejected client {name}: {reason}"))
            }
            Ok(None) => Err("server closed the connection during the handshake".into()),
            Err(e) => Err(format!("read handshake reply: {e}")),
        }
    }

    fn call(&mut self, request: &ClientRequest) -> Result<ClientReply, String> {
        send(&mut self.writer, request).map_err(|e| format!("send request: {e}"))?;
        match recv::<_, ClientReply>(&mut self.reader) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err("daemon closed the connection".into()),
            Err(e) => Err(format!("read reply: {e}")),
        }
    }

    /// Submits a [`crate::job::JobSpec`] JSON document; returns the job id.
    pub fn submit_spec(&mut self, spec_json: &str) -> Result<u64, String> {
        match self.call(&ClientRequest::Submit {
            spec_json: spec_json.to_string(),
        })? {
            ClientReply::Submitted { job_id } => Ok(job_id),
            ClientReply::Error { message } => Err(message),
            other => Err(format!("unexpected reply to submit: {other:?}")),
        }
    }

    /// Submits a pre-expanded batch (config + exact cell list); the
    /// byte-identity path used by `--dispatch daemon:…`.
    pub fn submit_raw(
        &mut self,
        name: &str,
        config: &ExperimentConfig,
        cells: &[CellSpec],
    ) -> Result<u64, String> {
        match self.call(&ClientRequest::SubmitRaw {
            name: name.to_string(),
            config: Box::new(config.clone()),
            cells: cells.to_vec(),
        })? {
            ClientReply::Submitted { job_id } => Ok(job_id),
            ClientReply::Error { message } => Err(message),
            other => Err(format!("unexpected reply to submit: {other:?}")),
        }
    }

    /// Streams a job's cells (replaying completed ones) until it reaches
    /// a terminal state, which is returned with the job's error, if any.
    pub fn watch(
        &mut self,
        job_id: u64,
        mut on_cell: impl FnMut(u64, CellOutput),
    ) -> Result<(JobState, Option<String>), String> {
        send(&mut self.writer, &ClientRequest::Watch { job_id })
            .map_err(|e| format!("send watch: {e}"))?;
        loop {
            match recv::<_, ClientReply>(&mut self.reader) {
                Ok(Some(ClientReply::Cell {
                    cell_index, output, ..
                })) => on_cell(cell_index, *output),
                Ok(Some(ClientReply::JobDone { state, error, .. })) => return Ok((state, error)),
                Ok(Some(ClientReply::Error { message })) => return Err(message),
                Ok(Some(other)) => return Err(format!("unexpected frame in watch: {other:?}")),
                Ok(None) => return Err("daemon closed the connection mid-watch".into()),
                Err(e) => return Err(format!("read watch frame: {e}")),
            }
        }
    }

    /// All jobs the daemon knows, as typed rows.
    pub fn jobs(&mut self) -> Result<Vec<crate::job::JobRow>, String> {
        match self.call(&ClientRequest::Jobs)? {
            ClientReply::Jobs { rows } => Ok(rows),
            ClientReply::Error { message } => Err(message),
            other => Err(format!("unexpected reply to jobs: {other:?}")),
        }
    }

    /// The metrics plane, as the daemon's status JSON.
    pub fn status_json(&mut self) -> Result<String, String> {
        match self.call(&ClientRequest::Status)? {
            ClientReply::Status { json } => Ok(json),
            ClientReply::Error { message } => Err(message),
            other => Err(format!("unexpected reply to status: {other:?}")),
        }
    }

    /// The resilience matrix over completed jobs, as JSON.
    pub fn matrix_json(&mut self) -> Result<String, String> {
        match self.call(&ClientRequest::Matrix)? {
            ClientReply::Matrix { json } => Ok(json),
            ClientReply::Error { message } => Err(message),
            other => Err(format!("unexpected reply to matrix: {other:?}")),
        }
    }

    /// Asks the daemon to shut down; returns once it acknowledges.
    pub fn quit(&mut self) -> Result<(), String> {
        match self.call(&ClientRequest::Quit)? {
            ClientReply::Bye => Ok(()),
            ClientReply::Error { message } => Err(message),
            other => Err(format!("unexpected reply to quit: {other:?}")),
        }
    }
}
