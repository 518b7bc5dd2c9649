//! The worker side: connect, handshake, pull cells, push results.
//!
//! A worker process runs [`run_worker`], which opens **one** connection
//! to the coordinator and multiplexes all `threads` executor threads
//! over it (pre-v4 workers opened one connection per thread; one
//! multiplexed connection cuts coordinator fan-in and lets all threads
//! share a single warm testbed). The connection:
//!
//! 1. receives the server's [`Challenge`], answers with a
//!    [`Greeting::Worker`] carrying this build's fingerprint, its
//!    capacity (`threads`), and — when a shared secret is configured —
//!    an HMAC credential over the challenge nonce, then waits for
//!    [`HelloReply::Welcome`] (a `Rejected` reply ends the worker with an
//!    error — a version-skewed or unauthenticated binary must not
//!    compute cells);
//! 2. answers every [`ToWorker::Batch`] by looking up a [`Testbed`] in
//!    the **process-wide cache** keyed by the config fingerprint —
//!    surviving across batches, jobs, and reconnects — building one on a
//!    miss, and replying `Ready { cache_hit }` (`Ready` *always* means
//!    "batch acknowledged, give me work");
//! 3. fans every [`ToWorker::Assign`] out to an executor thread (the
//!    coordinator assigns up to `capacity` cells concurrently), each
//!    streaming back `Done` with a background heartbeat renewing the
//!    cell's lease while it computes;
//! 4. exits on `Shutdown` or a closed socket.
//!
//! Determinism: the cell computation is exactly the same
//! `run_failover_instrumented` / `measure_control_instrumented` call a
//! local run makes, against a `Testbed` built from the coordinator's own
//! config — so a cell's bytes are identical no matter which process (or
//! which of its threads) ran it.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use bobw_core::{
    try_measure_control_instrumented, try_run_failover_instrumented, Technique, Testbed,
};

use crate::auth::AuthSecret;
use crate::endpoint::{Conn, Endpoint};
use crate::proto::{
    build_fingerprint, config_fingerprint, CellOutput, CellSpec, Challenge, FromWorker, Greeting,
    Hello, HelloReply, ToWorker, PROTOCOL_VERSION,
};
use crate::wire::{recv, send};

/// How often a busy worker renews its lease on the cell it is computing.
pub const HEARTBEAT_INTERVAL: Duration = Duration::from_secs(2);

/// Distinct testbeds kept warm per process. Grids cycle between a small
/// number of configs (repro_all reuses one; ablations mutate a handful),
/// and a testbed is the dominant memory cost — bound the cache and evict
/// the least-recently-used config beyond it.
pub const TESTBED_CACHE_CAPACITY: usize = 4;

/// Worker configuration.
pub struct WorkerConfig {
    /// Coordinator endpoint to connect to.
    pub connect: Endpoint,
    /// Executor threads (concurrent cells) multiplexed over the one
    /// connection; advertised to the coordinator as capacity.
    pub threads: usize,
    /// Name reported in the handshake (logs only).
    pub name: String,
    /// How long to keep retrying the initial connect (workers usually
    /// race the coordinator's bind).
    pub connect_timeout: Duration,
    /// Shared handshake secret ([`crate::auth::SECRET_ENV`] by default);
    /// required when the coordinator's challenge demands authentication.
    pub secret: Option<AuthSecret>,
}

impl WorkerConfig {
    pub fn new(connect: Endpoint) -> WorkerConfig {
        WorkerConfig {
            connect,
            threads: 1,
            name: format!("worker-{}", std::process::id()),
            connect_timeout: Duration::from_secs(10),
            secret: AuthSecret::from_env(),
        }
    }
}

/// Runs a worker until the coordinator shuts it down or disconnects.
/// Returns the number of cells this process completed.
pub fn run_worker(cfg: &WorkerConfig) -> Result<u64, String> {
    let conn = cfg
        .connect
        .connect_with_retry(cfg.connect_timeout)
        .map_err(|e| format!("connect {}: {e}", cfg.connect))?;
    serve_connection(conn, &cfg.name, cfg.threads.max(1), cfg.secret.as_ref())
}

/// One assigned cell traveling from the reader loop to an executor.
struct Job {
    batch_id: u64,
    cell_index: u64,
    cell: CellSpec,
    testbed: Arc<Testbed>,
}

/// The connection's work loop. Public for in-process tests, which drive a
/// worker against a coordinator over a loopback socket without spawning a
/// subprocess.
pub fn serve_connection(
    conn: Conn,
    name: &str,
    threads: usize,
    secret: Option<&AuthSecret>,
) -> Result<u64, String> {
    conn.set_nodelay();
    let writer = Arc::new(Mutex::new(
        conn.try_clone().map_err(|e| format!("clone conn: {e}"))?,
    ));
    let mut reader = conn;

    // Handshake: challenge first, then our greeting, then the verdict.
    let challenge: Challenge = recv(&mut reader)
        .map_err(|e| format!("handshake recv: {e}"))?
        .ok_or("coordinator closed during handshake")?;
    let auth = match secret {
        Some(s) => s.worker_tag(
            &challenge.nonce,
            PROTOCOL_VERSION,
            build_fingerprint(),
            name,
        ),
        None if challenge.auth_required => {
            return Err(format!(
                "coordinator requires authentication and worker {name} has no secret \
                 (set {} or pass --secret-file)",
                crate::auth::SECRET_ENV
            ));
        }
        None => Vec::new(),
    };
    send(
        &mut *writer.lock().unwrap(),
        &Greeting::Worker(Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint: build_fingerprint(),
            worker_name: name.to_string(),
            capacity: threads as u32,
            auth,
        }),
    )
    .map_err(|e| format!("handshake send: {e}"))?;
    match recv::<_, HelloReply>(&mut reader).map_err(|e| format!("handshake recv: {e}"))? {
        Some(HelloReply::Welcome) => {}
        Some(HelloReply::Rejected { reason }) => {
            return Err(format!("coordinator rejected worker {name}: {reason}"));
        }
        None => return Err("coordinator closed during handshake".into()),
    }

    let completed = AtomicU64::new(0);
    let executor_error: Mutex<Option<String>> = Mutex::new(None);

    let reader_result: Result<(), String> = std::thread::scope(|scope| {
        let (jobs_tx, jobs_rx) = mpsc::channel::<Job>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        for _ in 0..threads {
            let jobs_rx = Arc::clone(&jobs_rx);
            let writer = Arc::clone(&writer);
            let completed = &completed;
            let executor_error = &executor_error;
            scope.spawn(move || {
                loop {
                    // Take the next job; all executors share one receiver.
                    let job = match jobs_rx.lock().unwrap().recv() {
                        Ok(job) => job,
                        Err(_) => return, // reader closed the channel: done
                    };
                    let _beat = heartbeat_guard(Arc::clone(&writer), job.batch_id, job.cell_index);
                    let reply = match execute_cell(&job.testbed, &job.cell) {
                        Ok(output) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                            FromWorker::Done {
                                batch_id: job.batch_id,
                                cell_index: job.cell_index,
                                output: Box::new(output),
                            }
                        }
                        Err(error) => FromWorker::Failed {
                            batch_id: job.batch_id,
                            cell_index: job.cell_index,
                            error,
                        },
                    };
                    if let Err(e) = send(&mut *writer.lock().unwrap(), &reply) {
                        let mut slot = executor_error.lock().unwrap();
                        if slot.is_none() {
                            *slot = Some(format!("send: {e}"));
                        }
                        return; // connection gone; the reader will notice too
                    }
                }
            });
        }

        // Reader loop: dispatch assignments, manage the testbed cache.
        // `jobs_tx` is dropped on exit, which retires the executors.
        let mut current: Option<(u64, Arc<Testbed>)> = None;
        loop {
            let msg = match recv::<_, ToWorker>(&mut reader) {
                Ok(Some(m)) => m,
                // Clean EOF or a torn connection both mean "no more work".
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(format!("recv: {e}")),
            };
            match msg {
                ToWorker::Batch {
                    batch_id,
                    config_print,
                    config,
                } => {
                    let local_print = config_fingerprint(&config);
                    if local_print != config_print {
                        // The config decoded differently than the coordinator
                        // encoded it — a codec bug; refuse loudly rather than
                        // compute wrong cells.
                        return Err(format!(
                            "batch {batch_id}: config fingerprint mismatch \
                             (coordinator {config_print:#x}, local {local_print:#x})"
                        ));
                    }
                    let (testbed, cache_hit) =
                        cached_testbed(local_print, || Testbed::new(*config));
                    current = Some((local_print, testbed));
                    send(
                        &mut *writer.lock().unwrap(),
                        &FromWorker::Ready { cache_hit },
                    )
                    .map_err(|e| format!("send: {e}"))?;
                }
                ToWorker::Assign {
                    batch_id,
                    cell_index,
                    cell,
                } => {
                    let Some((_, testbed)) = current.as_ref() else {
                        return Err(format!("assigned cell {cell_index} before any batch"));
                    };
                    let job = Job {
                        batch_id,
                        cell_index,
                        cell,
                        testbed: Arc::clone(testbed),
                    };
                    if jobs_tx.send(job).is_err() {
                        // All executors died (writer gone); surface why.
                        break;
                    }
                }
                ToWorker::Drain => {
                    // Nothing to do: stay connected for the next batch.
                }
                ToWorker::Shutdown => break,
            }
        }
        Ok(())
    });

    reader_result?;
    if let Some(e) = executor_error.into_inner().unwrap() {
        return Err(e);
    }
    Ok(completed.load(Ordering::Relaxed))
}

/// The process-wide warm testbed cache, keyed by config fingerprint.
/// Long-lived workers attached to a `bobw serve` daemon run many jobs;
/// jobs reusing a config skip the (dominant) topology build + BGP
/// convergence entirely. Holding the lock across a build also means two
/// batches racing on the same config build it once.
fn cached_testbed(print: u64, build: impl FnOnce() -> Testbed) -> (Arc<Testbed>, bool) {
    struct Cache {
        /// fingerprint -> testbed; `lru` tracks recency, oldest first.
        entries: HashMap<u64, Arc<Testbed>>,
        lru: Vec<u64>,
    }
    static CACHE: OnceLock<Mutex<Cache>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| {
        Mutex::new(Cache {
            entries: HashMap::new(),
            lru: Vec::new(),
        })
    });
    let mut cache = cache.lock().unwrap();
    cache.lru.retain(|&p| p != print);
    cache.lru.push(print);
    if let Some(tb) = cache.entries.get(&print) {
        return (Arc::clone(tb), true);
    }
    let tb = Arc::new(build());
    cache.entries.insert(print, Arc::clone(&tb));
    while cache.lru.len() > TESTBED_CACHE_CAPACITY {
        let evict = cache.lru.remove(0);
        cache.entries.remove(&evict);
    }
    (tb, false)
}

/// A live heartbeat for one cell: a background thread sends
/// [`FromWorker::Heartbeat`] every [`HEARTBEAT_INTERVAL`] until dropped.
/// The thread waits on a condvar (not a plain sleep) so dropping the
/// guard after a short cell returns immediately instead of stalling the
/// work loop for the rest of the interval.
struct HeartbeatGuard {
    state: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

fn heartbeat_guard(writer: Arc<Mutex<Conn>>, batch_id: u64, cell_index: u64) -> HeartbeatGuard {
    let state = Arc::new((Mutex::new(false), Condvar::new()));
    let state2 = Arc::clone(&state);
    let handle = std::thread::spawn(move || {
        let (stopped, wake) = &*state2;
        let mut stopped = stopped.lock().unwrap();
        loop {
            // The predicate is checked before waiting: a cell that finishes
            // before this thread first takes the lock has already set the
            // flag and notified, and must not hold its reply for a whole
            // interval waiting for a wake-up that already happened.
            let (guard, _) = wake
                .wait_timeout_while(stopped, HEARTBEAT_INTERVAL, |stopped| !*stopped)
                .unwrap();
            stopped = guard;
            if *stopped {
                return;
            }
            let beat = FromWorker::Heartbeat {
                batch_id,
                cell_index,
            };
            if send(&mut *writer.lock().unwrap(), &beat).is_err() {
                return; // connection gone; the main loop will notice too
            }
        }
    });
    HeartbeatGuard {
        state,
        handle: Some(handle),
    }
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        let (stopped, wake) = &*self.state;
        *stopped.lock().unwrap() = true;
        wake.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Runs one cell against a local testbed. Errors (unknown technique or
/// site name) are reported, not panicked: over the wire the coordinator
/// decides whether to retry elsewhere. Public because the `Dispatch::Local`
/// path in `bobw-bench` shares this exact code, so local and distributed
/// execution cannot drift apart.
pub fn execute_cell(tb: &Testbed, cell: &CellSpec) -> Result<CellOutput, String> {
    match cell {
        CellSpec::Failover { technique, site } => {
            let technique = Technique::parse(technique)?;
            let site = tb
                .cdn
                .by_name(site)
                .ok_or_else(|| format!("unknown site {site:?}"))?;
            let (result, perf) = try_run_failover_instrumented(tb, &technique, site)?;
            Ok(CellOutput::Failover(result, perf))
        }
        CellSpec::Control { site, prepends } => {
            let site = tb
                .cdn
                .by_name(site)
                .ok_or_else(|| format!("unknown site {site:?}"))?;
            let (result, perf) = try_measure_control_instrumented(tb, site, prepends)?;
            Ok(CellOutput::Control(result, perf))
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn dropping_a_fresh_heartbeat_guard_does_not_wait_an_interval() {
        let (ours, _theirs) = UnixStream::pair().unwrap();
        let writer = Arc::new(Mutex::new(Conn::Unix(ours)));
        for _ in 0..20 {
            let start = Instant::now();
            drop(heartbeat_guard(Arc::clone(&writer), 1, 0));
            assert!(
                start.elapsed() < HEARTBEAT_INTERVAL / 4,
                "guard drop took {:?}",
                start.elapsed()
            );
        }
    }
}
