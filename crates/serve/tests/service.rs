//! End-to-end tests for the `bobw serve` daemon: byte-identity with the
//! local runner, client authentication, lease-based rescue of cells from
//! a stuck worker across queued jobs, and state-dir persistence.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bobw_core::{ExperimentConfig, Testbed};
use bobw_dist::{
    build_fingerprint, execute_cell, run_worker, AuthSecret, CellOutput, CellSpec, Challenge,
    Endpoint, FromWorker, Greeting, Hello, HelloReply, ToWorker, Wire, WorkerConfig,
    PROTOCOL_VERSION,
};
use bobw_serve::{daemon, JobState, ServeClient, ServeConfig};

/// The daemon's quit path raises the process-wide interrupt flag, so two
/// daemons must never overlap in this test binary: each test holds this
/// lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_config() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::quick(5);
    cfg.targets_per_site = 6;
    cfg.probe.duration = bobw_event::SimDuration::from_secs(45);
    cfg
}

/// `techniques × first n sites`, in the runner's technique-major order.
fn grid(tb: &Testbed, techniques: &[&str], n_sites: usize) -> Vec<CellSpec> {
    let sites: Vec<String> = tb
        .cdn
        .sites()
        .take(n_sites)
        .map(|s| tb.cdn.name(s).to_string())
        .collect();
    techniques
        .iter()
        .flat_map(|t| {
            sites.iter().map(move |s| CellSpec::Failover {
                technique: t.to_string(),
                site: s.clone(),
            })
        })
        .collect()
}

/// Serializes the deterministic part of the outputs (results only — perf
/// wall times are host dependent by design).
fn results_json(outputs: &[CellOutput]) -> String {
    outputs
        .iter()
        .map(|o| match o {
            CellOutput::Failover(r, _) => serde_json::to_string(r).unwrap(),
            CellOutput::Control(r, _) => serde_json::to_string(r).unwrap(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn local_baseline(cfg: &ExperimentConfig, cells: &[CellSpec]) -> String {
    let tb = Testbed::new(cfg.clone());
    let outputs: Vec<CellOutput> = cells
        .iter()
        .map(|c| execute_cell(&tb, c).expect("local cell"))
        .collect();
    results_json(&outputs)
}

/// An open-mode config on an ephemeral TCP port, immune to a stray
/// BOBW_SECRET in the test environment.
fn open_serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(Endpoint::parse("tcp://127.0.0.1:0").unwrap());
    cfg.secret = None;
    cfg.catalog = PathBuf::from("../../scenarios");
    cfg
}

fn spawn_worker(endpoint: &Endpoint, name: &str, threads: usize) -> std::thread::JoinHandle<u64> {
    let endpoint = endpoint.clone();
    let name = name.to_string();
    std::thread::spawn(move || {
        let mut wc = WorkerConfig::new(endpoint);
        wc.name = name;
        wc.threads = threads;
        wc.secret = None;
        run_worker(&wc).expect("worker")
    })
}

fn collect_watch(
    client: &mut ServeClient,
    job_id: u64,
    num_cells: usize,
) -> (Vec<CellOutput>, JobState) {
    let mut slots: Vec<Option<CellOutput>> = vec![None; num_cells];
    let (state, error) = client
        .watch(job_id, |index, output| {
            let slot = &mut slots[index as usize];
            assert!(slot.is_none(), "cell {index} streamed twice");
            *slot = Some(output);
        })
        .expect("watch");
    assert_eq!(error, None, "job reported an error");
    let outputs: Vec<CellOutput> = slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("cell {i} never streamed")))
        .collect();
    (outputs, state)
}

/// The tentpole acceptance test: a job submitted to the daemon and
/// watched over the wire yields results byte-identical to a sequential
/// local run of the same cells, and the metrics plane sees the work.
#[test]
fn serve_job_is_byte_identical_to_local_run() {
    let _guard = serial();
    let cfg = test_config();
    let tb = Testbed::new(cfg.clone());
    let cells = grid(&tb, &["anycast", "reactive-anycast"], 2);
    let expected = local_baseline(&cfg, &cells);

    let handle = daemon::start(open_serve_config()).expect("daemon");
    let endpoint = handle.endpoint().clone();
    let worker = spawn_worker(&endpoint, "svc-w1", 2);

    let mut client = ServeClient::connect(&endpoint, "identity-test", None).expect("client");
    let job_id = client.submit_raw("identity", &cfg, &cells).expect("submit");
    let (outputs, state) = collect_watch(&mut client, job_id, cells.len());
    assert_eq!(state, JobState::Done);
    assert_eq!(
        results_json(&outputs),
        expected,
        "service results must be byte-identical to the local run"
    );

    // A second watch replays the full stream from the completion log.
    let (replayed, state) = collect_watch(&mut client, job_id, cells.len());
    assert_eq!(state, JobState::Done);
    assert_eq!(results_json(&replayed), expected);

    let rows = client.jobs().expect("jobs");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].id, job_id);
    assert_eq!(rows[0].state, "done");
    assert_eq!(rows[0].cells_done, cells.len());

    let status = client.status_json().expect("status");
    assert!(
        status.contains("jobs_done"),
        "status missing counters: {status}"
    );
    assert!(
        status.contains("svc-w1"),
        "status missing worker stats: {status}"
    );

    let matrix = client.matrix_json().expect("matrix");
    assert!(
        matrix.contains("reactive-anycast"),
        "matrix missing technique: {matrix}"
    );

    client.quit().expect("quit");
    handle.join();
    assert_eq!(worker.join().unwrap(), cells.len() as u64);
}

/// Satellite: the daemon rejects unauthenticated and wrongly-keyed
/// clients, and accepts the right credential.
#[test]
fn client_authentication_is_enforced() {
    let _guard = serial();
    let secret = AuthSecret::new("svc-secret");
    let mut cfg = open_serve_config();
    cfg.secret = Some(secret.clone());
    let handle = daemon::start(cfg).expect("daemon");
    let endpoint = handle.endpoint().clone();

    let err = ServeClient::connect(&endpoint, "no-creds", None)
        .map(|_| ())
        .expect_err("must be rejected");
    assert!(err.contains("no secret"), "unexpected error: {err}");

    let wrong = AuthSecret::new("not-the-secret");
    let err = ServeClient::connect(&endpoint, "wrong-creds", Some(&wrong))
        .map(|_| ())
        .expect_err("must be rejected");
    assert!(err.contains("authentication"), "unexpected error: {err}");

    let mut client =
        ServeClient::connect(&endpoint, "right-creds", Some(&secret)).expect("authorized client");
    assert!(client.status_json().is_ok());
    client.quit().expect("quit");
    handle.join();
}

/// Satellite: cells leased to a dead (stuck) worker are reassigned to a
/// live one — across *two* queued jobs, exercising the daemon's FIFO
/// scheduler on top of the coordinator's lease machinery.
#[test]
fn stuck_worker_cells_are_rescued_across_queued_jobs() {
    let _guard = serial();
    let cfg = test_config();
    let tb = Testbed::new(cfg.clone());
    let cells_a = grid(&tb, &["anycast"], 1);
    let cells_b = grid(&tb, &["reactive-anycast"], 1);
    let expected_a = local_baseline(&cfg, &cells_a);
    let expected_b = local_baseline(&cfg, &cells_b);

    let mut serve_cfg = open_serve_config();
    serve_cfg.lease_timeout = Duration::from_millis(300);
    serve_cfg.tick = Duration::from_millis(20);
    let handle = daemon::start(serve_cfg).expect("daemon");
    let endpoint = handle.endpoint().clone();

    // A worker that completes the handshake, acks batches, and then
    // swallows every assignment without answering — only the lease
    // timeout can recover its cells.
    let stuck_got_assignment = Arc::new(AtomicBool::new(false));
    let stuck = {
        let endpoint = endpoint.clone();
        let got = Arc::clone(&stuck_got_assignment);
        std::thread::spawn(move || {
            let mut conn = endpoint.connect().unwrap();
            let _: Challenge = bobw_dist::wire::recv(&mut conn)
                .unwrap()
                .expect("challenge");
            let hello = Hello {
                protocol: PROTOCOL_VERSION,
                fingerprint: build_fingerprint(),
                worker_name: "stuck".to_string(),
                capacity: 1,
                auth: Vec::new(),
            };
            let mut payload = Vec::new();
            Greeting::Worker(hello).encode(&mut payload);
            bobw_dist::wire::write_frame(&mut conn, &payload).unwrap();
            match bobw_dist::wire::recv::<_, HelloReply>(&mut conn).unwrap() {
                Some(HelloReply::Welcome) => {}
                other => panic!("stuck worker not welcomed: {other:?}"),
            }
            loop {
                match bobw_dist::wire::recv::<_, ToWorker>(&mut conn) {
                    Ok(Some(ToWorker::Batch { .. })) => {
                        let mut payload = Vec::new();
                        FromWorker::Ready { cache_hit: false }.encode(&mut payload);
                        bobw_dist::wire::write_frame(&mut conn, &payload).unwrap();
                    }
                    Ok(Some(ToWorker::Assign { .. })) => {
                        got.store(true, Ordering::SeqCst);
                    }
                    Ok(Some(ToWorker::Drain)) => {}
                    Ok(Some(ToWorker::Shutdown)) | Ok(None) | Err(_) => break,
                }
            }
        })
    };

    // The rescuer joins after the stuck worker owns the first lease.
    let rescuer = {
        let endpoint = endpoint.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(700));
            let mut wc = WorkerConfig::new(endpoint);
            wc.name = "rescuer".to_string();
            wc.secret = None;
            run_worker(&wc).expect("rescuer")
        })
    };

    let mut client = ServeClient::connect(&endpoint, "queue-test", None).expect("client");
    let job_a = client
        .submit_raw("job-a", &cfg, &cells_a)
        .expect("submit a");
    let job_b = client
        .submit_raw("job-b", &cfg, &cells_b)
        .expect("submit b");

    let (outputs_a, state_a) = collect_watch(&mut client, job_a, cells_a.len());
    assert_eq!(state_a, JobState::Done);
    assert_eq!(results_json(&outputs_a), expected_a);

    let (outputs_b, state_b) = collect_watch(&mut client, job_b, cells_b.len());
    assert_eq!(state_b, JobState::Done);
    assert_eq!(results_json(&outputs_b), expected_b);

    assert!(
        stuck_got_assignment.load(Ordering::SeqCst),
        "the stuck worker should have been assigned at least one cell"
    );

    client.quit().expect("quit");
    handle.join();
    stuck.join().unwrap();
    let rescued = rescuer.join().unwrap();
    assert_eq!(
        rescued,
        (cells_a.len() + cells_b.len()) as u64,
        "the rescuer must have computed every cell of both jobs"
    );
}

/// A restarted daemon replays done jobs (results, watch stream, matrix)
/// from its state dir and re-queues jobs that never ran.
#[test]
fn state_dir_survives_daemon_restart() {
    let _guard = serial();
    let state_dir = std::env::temp_dir().join(format!("bobw-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);

    let cfg = test_config();
    let tb = Testbed::new(cfg.clone());
    let cells = grid(&tb, &["anycast"], 2);
    let expected = local_baseline(&cfg, &cells);

    // First life: run one job to completion.
    let mut serve_cfg = open_serve_config();
    serve_cfg.state_dir = Some(state_dir.clone());
    let handle = daemon::start(serve_cfg).expect("daemon 1");
    let endpoint = handle.endpoint().clone();
    let worker = spawn_worker(&endpoint, "persist-w", 1);
    let mut client = ServeClient::connect(&endpoint, "persist-test", None).expect("client 1");
    let job_id = client
        .submit_raw("persisted", &cfg, &cells)
        .expect("submit");
    let (_, state) = collect_watch(&mut client, job_id, cells.len());
    assert_eq!(state, JobState::Done);
    client.quit().expect("quit 1");
    handle.join();
    worker.join().unwrap();

    // Second life: no workers at all — the done job must be fully
    // servable from disk, and a new submission must queue behind it.
    let mut serve_cfg = open_serve_config();
    serve_cfg.state_dir = Some(state_dir.clone());
    let handle = daemon::start(serve_cfg).expect("daemon 2");
    let endpoint = handle.endpoint().clone();
    let mut client = ServeClient::connect(&endpoint, "persist-test", None).expect("client 2");

    let rows = client.jobs().expect("jobs");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].id, job_id);
    assert_eq!(rows[0].state, "done");
    assert_eq!(rows[0].cells_done, cells.len());

    let (replayed, state) = collect_watch(&mut client, job_id, cells.len());
    assert_eq!(state, JobState::Done);
    assert_eq!(
        results_json(&replayed),
        expected,
        "replayed results must match the original run byte-for-byte"
    );

    let matrix = client.matrix_json().expect("matrix");
    assert!(
        matrix.contains("\"jobs_included\":1"),
        "unexpected matrix: {matrix}"
    );

    let queued_id = client.submit_raw("later", &cfg, &cells).expect("submit 2");
    assert_eq!(
        queued_id,
        job_id + 1,
        "ids must continue past reloaded jobs"
    );
    client.quit().expect("quit 2");
    handle.join();

    // Third life: the unrun job came back queued, not lost or done.
    let mut serve_cfg = open_serve_config();
    serve_cfg.state_dir = Some(state_dir.clone());
    let handle = daemon::start(serve_cfg).expect("daemon 3");
    let endpoint = handle.endpoint().clone();
    let mut client = ServeClient::connect(&endpoint, "persist-test", None).expect("client 3");
    let rows = client.jobs().expect("jobs");
    assert_eq!(rows.len(), 2);
    let later = rows.iter().find(|r| r.id == queued_id).expect("queued job");
    // The scheduler may already have claimed it (it runs as soon as the
    // daemon is up, waiting for workers) — what matters is that the job
    // came back unfinished rather than lost or spuriously done.
    assert!(
        later.state == "queued" || later.state == "running",
        "unexpected state {:?}",
        later.state
    );
    assert_eq!(later.cells_done, 0);
    client.quit().expect("quit 3");
    handle.join();

    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A spec submitted as JSON expands server-side against the catalog and
/// runs like any other job; bad specs come back as submit-time errors.
#[test]
fn spec_submission_expands_and_runs() {
    let _guard = serial();
    let handle = daemon::start(open_serve_config()).expect("daemon");
    let endpoint = handle.endpoint().clone();
    let worker = spawn_worker(&endpoint, "spec-w", 2);

    let mut client = ServeClient::connect(&endpoint, "spec-test", None).expect("client");
    let err = client
        .submit_spec(r#"{"techniques": ["warp-drive"]}"#)
        .expect_err("bad technique must be rejected");
    assert!(err.contains("warp-drive"), "unexpected error: {err}");

    // Match the expansion exactly so the byte-identity baseline lines up.
    let spec_cfg = ExperimentConfig::quick(11);
    let tb = Testbed::new(spec_cfg.clone());
    let first_site = tb.cdn.name(tb.cdn.sites().next().unwrap()).to_string();
    let spec = format!(r#"{{"techniques": ["anycast"], "sites": ["{first_site}"], "seed": 11}}"#);
    let cells = vec![CellSpec::Failover {
        technique: "anycast".to_string(),
        site: first_site,
    }];
    let expected = local_baseline(&spec_cfg, &cells);

    let job_id = client.submit_spec(&spec).expect("submit spec");
    let (outputs, state) = collect_watch(&mut client, job_id, 1);
    assert_eq!(state, JobState::Done);
    assert_eq!(results_json(&outputs), expected);

    client.quit().expect("quit");
    handle.join();
    worker.join().unwrap();
}

/// Completes a client handshake by hand and returns the raw connection.
fn welcomed_connection(endpoint: &Endpoint) -> bobw_dist::Conn {
    let mut conn = endpoint.connect().unwrap();
    let _: Challenge = bobw_dist::wire::recv(&mut conn)
        .unwrap()
        .expect("challenge");
    let hello = Greeting::Client(bobw_dist::ClientHello {
        protocol: PROTOCOL_VERSION,
        client_name: "fuzzer".to_string(),
        auth: Vec::new(),
    });
    bobw_dist::wire::send(&mut conn, &hello).unwrap();
    match bobw_dist::wire::recv::<_, HelloReply>(&mut conn).unwrap() {
        Some(HelloReply::Welcome) => conn,
        other => panic!("client not welcomed: {other:?}"),
    }
}

/// Input from the wire never takes the daemon down: a welcomed client
/// sending garbage gets an `Error` reply or a dropped connection, and the
/// daemon keeps serving other clients.
#[test]
fn garbage_client_frames_never_take_the_daemon_down() {
    let _guard = serial();
    let handle = daemon::start(open_serve_config()).expect("daemon");
    let endpoint = handle.endpoint().clone();

    let watch = bobw_dist::wire::encode_vec(&bobw_serve::ClientRequest::Watch { job_id: 7 });
    let deep_spec = bobw_dist::wire::encode_vec(&bobw_serve::ClientRequest::Submit {
        spec_json: "[".repeat(100_000),
    });
    let frames: [(&str, Vec<u8>); 5] = [
        ("non-utf8", vec![0xff, 0xfe, 0x00, 0x80]),
        ("truncated json", watch[..watch.len() / 2].to_vec()),
        ("unknown variant", br#"{"Reboot":{"now":true}}"#.to_vec()),
        ("deep frame", "[".repeat(100_000).into_bytes()),
        ("deep spec_json", deep_spec),
    ];
    for (what, frame) in frames {
        let mut conn = welcomed_connection(&endpoint);
        bobw_dist::wire::write_frame(&mut conn, &frame).unwrap();
        match bobw_dist::wire::recv::<_, bobw_serve::ClientReply>(&mut conn) {
            Ok(Some(bobw_serve::ClientReply::Error { message })) => {
                assert!(message.contains("nesting"), "{what}: {message}")
            }
            Ok(None) | Err(_) => assert_ne!(what, "deep spec_json", "a bad spec gets an error"),
            Ok(Some(reply)) => panic!("{what}: unexpected reply {reply:?}"),
        }
        let mut client = ServeClient::connect(&endpoint, "after-garbage", None).expect("client");
        assert!(client.jobs().expect("jobs").is_empty(), "{what}");
    }

    ServeClient::connect(&endpoint, "quitter", None)
        .expect("client")
        .quit()
        .expect("quit");
    handle.join();
}
