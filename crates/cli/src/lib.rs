//! Implementation of the `bobw` command-line tool.
//!
//! The CLI wraps the library the way an operator would use it: build an
//! Internet, run a failover drill, inspect a router's view of a prefix,
//! trace a packet. See [`run`] for the subcommand set.

use std::collections::BTreeMap;

use bobw_bgp::{dump_rib, BgpTimingConfig, OriginConfig, Standalone};
use bobw_core::{
    measure_control, run_failover, ExperimentConfig, FailureMode, SessionModel, Technique, Testbed,
    TrafficConfig, TrafficSummary,
};
use bobw_dataplane::{walk_with_path, ForwardEnv};
use bobw_event::SimDuration;
use bobw_measure::{percent, Cdf};
use bobw_net::{NodeId, Prefix};
use bobw_topology::{GenConfig, SiteId};

/// Parsed `--key value` options plus positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Options {
    pub flags: BTreeMap<String, String>,
    pub positional: Vec<String>,
}

/// Flags that are presence-only switches: they never consume the next
/// argument, so `bobw topology --json` and `bobw submit SPEC --watch`
/// parse as expected.
const BOOL_FLAGS: &[&str] = &["json", "status", "watch", "matrix"];

/// Splits raw arguments into `--key value` pairs and positionals.
/// Unknown keys are kept; each consumer validates its own set.
pub fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut out = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if BOOL_FLAGS.contains(&key) {
                out.flags.insert(key.to_string(), String::new());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| format!("--{key} expects a value"))?;
            out.flags.insert(key.to_string(), value.clone());
        } else {
            out.positional.push(a.clone());
        }
    }
    Ok(out)
}

impl Options {
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    pub fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(42),
            Some(v) => v.parse().map_err(|_| format!("bad --seed {v:?}")),
        }
    }

    pub fn scale_config(&self) -> Result<ExperimentConfig, String> {
        let seed = self.seed()?;
        let mut cfg = match self.get("scale").unwrap_or("quick") {
            "quick" => ExperimentConfig::quick(seed),
            "eval" => ExperimentConfig::eval(seed),
            "large" => {
                let mut c = ExperimentConfig::eval(seed);
                c.gen = GenConfig::large();
                c
            }
            other => return Err(format!("unknown --scale {other:?} (quick|eval|large)")),
        };
        if let Some(mode) = self.get("failure") {
            cfg.failure_mode = match mode {
                "graceful" => FailureMode::GracefulWithdrawal,
                "crash" => FailureMode::SilentCrash,
                other => return Err(format!("unknown --failure {other:?} (graceful|crash)")),
            };
        }
        if let Some(h) = self.get("hold") {
            cfg.timing.hold_time_s = h.parse().map_err(|_| format!("bad --hold {h:?}"))?;
        }
        match self.get("traffic") {
            None | Some("off") => {}
            Some("on") => cfg.traffic = Some(TrafficConfig::default()),
            Some(other) => return Err(format!("unknown --traffic {other:?} (on|off)")),
        }
        match self.get("session") {
            None | Some("abstract") => {}
            Some("message-level") => cfg.session_model = SessionModel::MessageLevel,
            Some(other) => {
                return Err(format!(
                    "unknown --session {other:?} (abstract|message-level)"
                ))
            }
        }
        Ok(cfg)
    }

    pub fn technique(&self) -> Result<Technique, String> {
        parse_technique(self.get("technique").unwrap_or("reactive-anycast"))
    }

    /// Worker threads for multi-site drills; defaults to the machine's
    /// available parallelism. Results are identical for any value.
    pub fn jobs(&self) -> Result<usize, String> {
        match self.get("jobs") {
            None => Ok(bobw_bench::default_jobs()),
            Some(v) => v
                .parse()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| format!("bad --jobs {v:?} (integer >= 1)")),
        }
    }
}

/// Parses a technique name as used in the paper's tables. The logic lives
/// in [`Technique::parse`] (the wire protocol needs it without a CLI
/// dependency); this alias keeps the CLI's historical API.
pub fn parse_technique(name: &str) -> Result<Technique, String> {
    Technique::parse(name)
}

pub const USAGE: &str = "\
bobw — the Best-of-Both-Worlds CDN routing simulator

USAGE:
  bobw topology   [--scale quick|eval|large] [--seed N] [--json]
  bobw failover   [--technique T] [--site NAME|all] [--scale S] [--seed N]
                  [--failure graceful|crash] [--hold SECS] [--jobs N]
                  [--traffic on|off] [--session abstract|message-level]
                  [--dispatch local|tcp://HOST:PORT|unix://PATH]
  bobw worker     --connect tcp://HOST:PORT|unix://PATH [--threads N]
                  [--name S] [--secret-file F]
  bobw serve      [--listen URL] [--state-dir DIR] [--secret-file F]
                  [--catalog DIR]
  bobw serve      --status --connect URL [--secret-file F]
  bobw submit     SPEC.json --connect URL [--watch] [--secret-file F]
  bobw watch      JOB_ID --connect URL [--secret-file F]
  bobw jobs       --connect URL [--matrix] [--secret-file F]
  bobw catchment  [--scale S] [--seed N] [--prepend K]
  bobw inspect    --node N --prefix P [--scale S] [--seed N]
  bobw traceroute --from N --prefix P [--scale S] [--seed N]
  bobw scenario   list     [--catalog DIR]
  bobw scenario   validate [FILE ...|--catalog DIR] [--scale S] [--seed N]
  bobw scenario   run      FILE [--technique T] [--site NAME] [--scale S]
                  [--seed N] [--failure graceful|crash] [--traffic on|off]
                  [--session abstract|message-level]
  bobw help

Techniques: unicast, anycast, proactive-superprefix, reactive-anycast,
proactive-prepending-<k>[-selective], proactive-med-<m>, combined.
Sites: ams ath bos atl sea1 slc sea2 msn.

`failover --site all --dispatch tcp://…` serves the per-site cells to
remote `bobw worker` processes instead of local threads; results are
byte-identical either way (see EXPERIMENTS.md, \"Distributed runs\").
With `--dispatch daemon:tcp://…` the cells are submitted as a job to a
persistent `bobw serve` daemon instead.

`bobw serve` runs the persistent experiment service: submit jobs with
`bobw submit`, stream results with `bobw watch`, list with `bobw jobs`
(add `--matrix` for the pooled resilience matrix over completed jobs),
and query the metrics plane with `bobw serve --status --connect URL`.
Set BOBW_SECRET (or pass --secret-file) on daemon, workers, and clients
to require authenticated handshakes (see EXPERIMENTS.md, \"Service
mode\").
";

/// Runs the CLI; returns the text to print or a usage error.
pub fn run(args: &[String]) -> Result<String, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(USAGE.to_string());
    };
    let opts = parse_options(rest)?;
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        "topology" => cmd_topology(&opts),
        "failover" => cmd_failover(&opts),
        "worker" => cmd_worker(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "watch" => cmd_watch(&opts),
        "jobs" => cmd_jobs(&opts),
        "catchment" => cmd_catchment(&opts),
        "inspect" => cmd_inspect(&opts),
        "traceroute" => cmd_traceroute(&opts),
        "scenario" => cmd_scenario(&opts),
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn cmd_topology(opts: &Options) -> Result<String, String> {
    let cfg = opts.scale_config()?;
    let tb = Testbed::new(cfg);
    if opts.get("json").is_some() {
        return serde_json::to_string_pretty(&tb.topo).map_err(|e| e.to_string());
    }
    let mut kinds: BTreeMap<String, usize> = BTreeMap::new();
    for n in tb.topo.nodes() {
        *kinds.entry(format!("{:?}", n.kind)).or_default() += 1;
    }
    let mut out = format!(
        "topology: {} nodes, {} links, connected: {}\n",
        tb.topo.len(),
        tb.topo.link_count(),
        tb.topo.is_connected()
    );
    for (k, v) in kinds {
        out.push_str(&format!("  {k:<24} {v}\n"));
    }
    out.push_str("sites:\n");
    for site in tb.cdn.sites() {
        let node = tb.cdn.node(site);
        out.push_str(&format!(
            "  {:<5} {} in {} ({} neighbors)\n",
            tb.cdn.name(site),
            node,
            tb.cdn.spec(site).region,
            tb.topo.neighbors(node).len()
        ));
    }
    Ok(out)
}

/// Renders the traffic layer's observation of a run (one line), empty
/// when the experiment ran without `--traffic on`.
fn traffic_line(t: Option<&TrafficSummary>) -> String {
    match t {
        None => String::new(),
        Some(s) => {
            let scrub = if s.scrubbed > 0.0 {
                format!(", scrubbed {}", percent(s.scrubbed_fraction()))
            } else {
                String::new()
            };
            format!(
                "traffic: peak util {:.2}x -> {:.2}x, shed {}, unserved {}{scrub}, \
                 {} resteers over {} ticks\n",
                s.peak_before(),
                s.peak_after(),
                percent(s.shed_fraction()),
                percent(s.unserved_fraction()),
                s.resteers,
                s.ticks,
            )
        }
    }
}

fn cmd_failover(opts: &Options) -> Result<String, String> {
    let cfg = opts.scale_config()?;
    let tb = Testbed::new(cfg);
    let technique = opts.technique()?;
    let site_name = opts.get("site").unwrap_or("bos");
    if site_name == "all" {
        return cmd_failover_all(opts, &tb, &technique);
    }
    let site = tb
        .cdn
        .by_name(site_name)
        .ok_or_else(|| format!("unknown site {site_name:?}"))?;
    let r = run_failover(&tb, &technique, site);
    let recon = Cdf::new(r.reconnection_secs());
    let fail = Cdf::new(r.failover_secs());
    Ok(format!(
        "failover drill: technique={} site={} ({:?})\n\
         targets: {} candidates, {} selected, {} controllable ({} control)\n\
         reconnection: p50 {:.1}s  p90 {:.1}s  max {:.1}s\n\
         failover:     p50 {:.1}s  p90 {:.1}s  max {:.1}s\n\
         never reconnected: {}\n{}",
        r.technique,
        r.site_name,
        tb.cfg.failure_mode,
        r.num_candidates,
        r.num_selected,
        r.num_controllable,
        percent(r.control_fraction()),
        recon.median().unwrap_or(f64::NAN),
        recon.quantile(0.9).unwrap_or(f64::NAN),
        recon.max().unwrap_or(f64::NAN),
        fail.median().unwrap_or(f64::NAN),
        fail.quantile(0.9).unwrap_or(f64::NAN),
        fail.max().unwrap_or(f64::NAN),
        percent(r.never_reconnected_fraction()),
        traffic_line(r.traffic.as_ref()),
    ))
}

/// `failover --site all`: the drill against every site, fanned over
/// `--jobs` local threads — or, with `--dispatch tcp://…|unix://…`,
/// served to remote `bobw worker` processes — through the deterministic
/// experiment runner. The per-site rows come out in site order whatever
/// the job count or dispatch mode.
fn cmd_failover_all(opts: &Options, tb: &Testbed, technique: &Technique) -> Result<String, String> {
    let jobs = opts.jobs()?;
    let mut dispatch = match opts.get("dispatch") {
        None | Some("local") => bobw_bench::Dispatch::local(jobs),
        Some(arg) => {
            let d = bobw_bench::Dispatch::from_arg(arg, jobs)?;
            if let Some(ep) = d.endpoint() {
                eprintln!(
                    "serving cells on {ep} — attach workers with: bobw worker --connect {ep}"
                );
            }
            d
        }
    };
    let (results, _) = bobw_bench::run_technique_all_sites_dispatch(tb, technique, &mut dispatch)?;
    let label = match (dispatch.endpoint(), opts.get("dispatch")) {
        (Some(ep), _) => format!("dispatch {ep}"),
        (None, Some(arg)) if arg.starts_with("daemon:") => format!("dispatch {arg}"),
        _ => format!("{jobs} jobs"),
    };
    dispatch.finish();
    let mut out = format!(
        "failover drill: technique={} site=all ({:?}, {label})\n",
        technique.name(),
        tb.cfg.failure_mode,
    );
    let with_traffic = results.iter().any(|r| r.traffic.is_some());
    out.push_str(&format!(
        "{:<6} {:>6} {:>10} {:>10} {:>8}",
        "site", "ctrl", "recon p50", "fail p50", "never"
    ));
    if with_traffic {
        out.push_str(&format!(" {:>10} {:>6}", "peak util", "shed"));
    }
    out.push('\n');
    for r in &results {
        let recon = Cdf::new(r.reconnection_secs());
        let fail = Cdf::new(r.failover_secs());
        out.push_str(&format!(
            "{:<6} {:>6} {:>9.1}s {:>9.1}s {:>8}",
            r.site_name,
            percent(r.control_fraction()),
            recon.median().unwrap_or(f64::NAN),
            fail.median().unwrap_or(f64::NAN),
            percent(r.never_reconnected_fraction()),
        ));
        if let Some(t) = &r.traffic {
            out.push_str(&format!(
                " {:>9.2}x {:>6}",
                t.peak_after(),
                percent(t.shed_fraction())
            ));
        }
        out.push('\n');
    }
    let all_fail: Vec<f64> = results.iter().flat_map(|r| r.failover_secs()).collect();
    let fc = Cdf::new(all_fail);
    out.push_str(&format!(
        "overall failover: p50 {:.1}s  p90 {:.1}s  max {:.1}s\n",
        fc.median().unwrap_or(f64::NAN),
        fc.quantile(0.9).unwrap_or(f64::NAN),
        fc.max().unwrap_or(f64::NAN),
    ));
    Ok(out)
}

/// `bobw worker`: attach to a coordinator (`bench --dispatch URL` or
/// `bobw failover --site all --dispatch URL`) and execute cells until it
/// shuts down. Blocks for the life of the connection.
fn cmd_worker(opts: &Options) -> Result<String, String> {
    let url = opts
        .get("connect")
        .ok_or("--connect is required (tcp://HOST:PORT or unix://PATH)")?;
    let mut cfg = bobw_dist::WorkerConfig::new(bobw_dist::Endpoint::parse(url)?);
    if let Some(t) = opts.get("threads") {
        cfg.threads = t
            .parse()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("bad --threads {t:?} (integer >= 1)"))?;
    }
    if let Some(n) = opts.get("name") {
        cfg.name = n.to_string();
    }
    if let Some(secret) = client_secret(opts)? {
        cfg.secret = Some(secret);
    }
    eprintln!(
        "worker {}: connecting to {} ({} thread(s))",
        cfg.name, cfg.connect, cfg.threads
    );
    let done = bobw_dist::run_worker(&cfg)?;
    Ok(format!(
        "worker {}: coordinator closed, {done} cell(s) executed\n",
        cfg.name
    ))
}

/// Resolves the shared secret for service-mode commands: `--secret-file`
/// wins, otherwise the `BOBW_SECRET` environment variable, otherwise
/// none (open mode).
fn client_secret(opts: &Options) -> Result<Option<bobw_dist::AuthSecret>, String> {
    match opts.get("secret-file") {
        Some(path) => bobw_dist::AuthSecret::from_file(std::path::Path::new(path))
            .map(Some)
            .map_err(|e| format!("read --secret-file {path}: {e}")),
        None => Ok(bobw_dist::AuthSecret::from_env()),
    }
}

/// Connects to a daemon for the client-side service subcommands.
fn serve_client(opts: &Options, name: &str) -> Result<bobw_serve::ServeClient, String> {
    let url = opts
        .get("connect")
        .ok_or("--connect is required (tcp://HOST:PORT or unix://PATH)")?;
    let endpoint = bobw_dist::Endpoint::parse(url)?;
    let secret = client_secret(opts)?;
    bobw_serve::ServeClient::connect(&endpoint, name, secret.as_ref())
}

/// One human-readable line per streamed cell, for `submit --watch` and
/// `watch`.
fn describe_cell(index: u64, output: &bobw_dist::CellOutput) -> String {
    match output {
        bobw_dist::CellOutput::Failover(r, perf) => {
            let recon = Cdf::new(r.reconnection_secs());
            format!(
                "cell {index:>3}: {:<18} site {:<6} recon p50 {:>6.1}s  never {:>5}  ({:.2}s)",
                r.technique,
                r.site_name,
                recon.median().unwrap_or(f64::NAN),
                percent(r.never_reconnected_fraction()),
                perf.wall_micros as f64 / 1e6,
            )
        }
        bobw_dist::CellOutput::Control(c, perf) => format!(
            "cell {index:>3}: control site {:<6} near {:>4}  off-anycast {:>5}  ({:.2}s)",
            c.site_name,
            c.num_near,
            percent(c.frac_not_anycast_routed),
            perf.wall_micros as f64 / 1e6,
        ),
    }
}

/// `bobw serve`: run the persistent experiment daemon, or with
/// `--status --connect URL` query a running daemon's metrics plane.
fn cmd_serve(opts: &Options) -> Result<String, String> {
    if opts.get("status").is_some() {
        let mut client = serve_client(opts, "status")?;
        let json = client.status_json()?;
        return Ok(format!("{json}\n"));
    }
    let listen = opts.get("listen").unwrap_or("tcp://127.0.0.1:4400");
    let mut cfg = bobw_serve::ServeConfig::new(bobw_dist::Endpoint::parse(listen)?);
    if let Some(dir) = opts.get("state-dir") {
        cfg.state_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(path) = opts.get("secret-file") {
        cfg.secret = Some(
            bobw_dist::AuthSecret::from_file(std::path::Path::new(path))
                .map_err(|e| format!("read --secret-file {path}: {e}"))?,
        );
    }
    if let Some(dir) = opts.get("catalog") {
        cfg.catalog = std::path::PathBuf::from(dir);
    }
    bobw_dist::install_sigint_handler();
    let auth = if cfg.secret.is_some() {
        "authenticated"
    } else {
        "open (no BOBW_SECRET)"
    };
    let handle = bobw_serve::start(cfg).map_err(|e| format!("start daemon: {e}"))?;
    let ep = handle.endpoint().clone();
    eprintln!("bobw serve: listening on {ep} [{auth}]");
    eprintln!("  attach workers:  bobw worker --connect {ep}");
    eprintln!("  submit jobs:     bobw submit SPEC.json --connect {ep}");
    handle.join();
    Ok(format!("bobw serve: daemon on {ep} shut down\n"))
}

/// `bobw submit SPEC.json --connect URL [--watch]`: enqueue a job from a
/// declarative spec; with `--watch`, stream its cells to completion.
fn cmd_submit(opts: &Options) -> Result<String, String> {
    let Some(path) = opts.positional.first() else {
        return Err(format!("submit expects a SPEC.json path\n\n{USAGE}"));
    };
    let spec_json = std::fs::read_to_string(path).map_err(|e| format!("read spec {path}: {e}"))?;
    let mut client = serve_client(opts, "submit")?;
    let job_id = client.submit_spec(&spec_json)?;
    if opts.get("watch").is_none() {
        return Ok(format!(
            "job {job_id} queued — stream it with: bobw watch {job_id} --connect {}\n",
            opts.get("connect").unwrap_or("URL"),
        ));
    }
    eprintln!("job {job_id} queued, watching…");
    watch_to_string(&mut client, job_id)
}

/// `bobw watch JOB_ID --connect URL`: stream a job's cells (replaying
/// completed ones) until it reaches a terminal state.
fn cmd_watch(opts: &Options) -> Result<String, String> {
    let Some(raw) = opts.positional.first() else {
        return Err(format!("watch expects a JOB_ID\n\n{USAGE}"));
    };
    let job_id: u64 = raw
        .parse()
        .map_err(|_| format!("bad JOB_ID {raw:?} (integer)"))?;
    let mut client = serve_client(opts, "watch")?;
    watch_to_string(&mut client, job_id)
}

fn watch_to_string(client: &mut bobw_serve::ServeClient, job_id: u64) -> Result<String, String> {
    let mut out = String::new();
    let mut cells = 0u64;
    let (state, error) = client.watch(job_id, |index, output| {
        let line = describe_cell(index, &output);
        eprintln!("{line}");
        out.push_str(&line);
        out.push('\n');
        cells += 1;
    })?;
    out.push_str(&format!(
        "job {job_id}: {} ({cells} cell(s))\n",
        state.as_str()
    ));
    match state {
        bobw_serve::JobState::Done => Ok(out),
        _ => Err(error.unwrap_or_else(|| format!("job {job_id} ended {}", state.as_str()))),
    }
}

/// `bobw jobs --connect URL [--matrix]`: list the daemon's jobs, or with
/// `--matrix` print the resilience matrix over completed jobs.
fn cmd_jobs(opts: &Options) -> Result<String, String> {
    let mut client = serve_client(opts, "jobs")?;
    if opts.get("matrix").is_some() {
        let json = client.matrix_json()?;
        return Ok(format!("{json}\n"));
    }
    let rows = client.jobs()?;
    if rows.is_empty() {
        return Ok("no jobs\n".into());
    }
    let mut out = format!("{:<5} {:<8} {:>10}  {}\n", "id", "state", "cells", "name");
    for row in &rows {
        out.push_str(&format!(
            "{:<5} {:<8} {:>4}/{:<5}  {}{}\n",
            row.id,
            row.state,
            row.cells_done,
            row.cells_total,
            row.name,
            row.error
                .as_deref()
                .map(|e| format!("  [{e}]"))
                .unwrap_or_default(),
        ));
    }
    Ok(out)
}

/// `bobw scenario list|validate|run`: the declarative fault-scenario
/// catalog (see EXPERIMENTS.md, "Scenario catalog").
fn cmd_scenario(opts: &Options) -> Result<String, String> {
    let Some((verb, rest)) = opts.positional.split_first() else {
        return Err(format!("scenario expects list|validate|run\n\n{USAGE}"));
    };
    let catalog =
        || std::path::PathBuf::from(opts.get("catalog").unwrap_or(bobw_scenario::CATALOG_DIR));
    match verb.as_str() {
        "list" => {
            let dir = catalog();
            let mut out = format!("scenario catalog at {}:\n", dir.display());
            for path in bobw_scenario::catalog_files(&dir)? {
                let s = bobw_scenario::load_file(&path)?;
                out.push_str(&format!(
                    "  {:<22} site {:<6} {:>2} events  {}\n",
                    s.name,
                    s.site,
                    s.events.len(),
                    s.description
                ));
            }
            Ok(out)
        }
        "validate" => {
            let files: Vec<std::path::PathBuf> = if rest.is_empty() {
                bobw_scenario::catalog_files(&catalog())?
            } else {
                rest.iter().map(std::path::PathBuf::from).collect()
            };
            if files.is_empty() {
                return Err("no scenario files to validate".into());
            }
            let cfg = opts.scale_config()?;
            let graceful = matches!(cfg.failure_mode, FailureMode::GracefulWithdrawal);
            let tb = Testbed::new(cfg);
            let mut out = String::new();
            for path in &files {
                let s = bobw_scenario::load_file(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                // "$site" scenarios must compile for every grid cell, so
                // check each binding; pinned ones get their named site.
                let measured: Vec<SiteId> = if s.site == "$site" {
                    tb.cdn.sites().collect()
                } else {
                    vec![tb
                        .cdn
                        .by_name(&s.site)
                        .ok_or_else(|| format!("{}: unknown site {:?}", path.display(), s.site))?]
                };
                let mut ops = 0;
                for site in measured {
                    let compiled =
                        bobw_scenario::compile(&s, &tb.topo, &tb.cdn, &tb.rng, site, graceful)
                            .map_err(|e| {
                                format!("{}: site {}: {e}", path.display(), tb.cdn.name(site))
                            })?;
                    ops = compiled.events.len();
                }
                out.push_str(&format!(
                    "  {:<40} ok ({} events -> {} ops)\n",
                    path.display(),
                    s.events.len(),
                    ops
                ));
            }
            out.push_str(&format!("{} scenario(s) valid\n", files.len()));
            Ok(out)
        }
        "run" => {
            let [file] = rest else {
                return Err("scenario run expects exactly one FILE".into());
            };
            let scenario = bobw_scenario::load_file(&std::path::PathBuf::from(file))?;
            let mut cfg = opts.scale_config()?;
            // Catalog convention: `damping-*` scenarios study the
            // interaction with route-flap damping, so it comes on.
            if scenario.wants_damping() && cfg.timing.flap_damping.is_none() {
                cfg.timing.flap_damping = Some(bobw_bgp::DampingConfig::default());
            }
            cfg.scenario = Some(scenario.clone());
            let tb = Testbed::new(cfg);
            let technique = opts.technique()?;
            let site_name = match opts.get("site") {
                Some(n) => n.to_string(),
                None if scenario.site != "$site" => scenario.site.clone(),
                None => "bos".to_string(),
            };
            let site = tb
                .cdn
                .by_name(&site_name)
                .ok_or_else(|| format!("unknown site {site_name:?}"))?;
            let r = run_failover(&tb, &technique, site);
            let recon = Cdf::new(r.reconnection_secs());
            let fail = Cdf::new(r.failover_secs());
            Ok(format!(
                "scenario {}: {}\n\
                 technique={} site={} scale={}\n\
                 targets: {} selected, {} controllable\n\
                 reconnection: p50 {:.1}s  p90 {:.1}s  max {:.1}s\n\
                 failover:     p50 {:.1}s  p90 {:.1}s  max {:.1}s\n\
                 never reconnected: {}\n{}",
                scenario.name,
                scenario.description,
                r.technique,
                r.site_name,
                opts.get("scale").unwrap_or("quick"),
                r.num_selected,
                r.num_controllable,
                recon.median().unwrap_or(f64::NAN),
                recon.quantile(0.9).unwrap_or(f64::NAN),
                recon.max().unwrap_or(f64::NAN),
                fail.median().unwrap_or(f64::NAN),
                fail.quantile(0.9).unwrap_or(f64::NAN),
                fail.max().unwrap_or(f64::NAN),
                percent(r.never_reconnected_fraction()),
                traffic_line(r.traffic.as_ref()),
            ))
        }
        other => Err(format!(
            "unknown scenario verb {other:?} (list|validate|run)"
        )),
    }
}

fn cmd_catchment(opts: &Options) -> Result<String, String> {
    let cfg = opts.scale_config()?;
    let tb = Testbed::new(cfg);
    let mut out = String::new();
    match opts.get("prepend") {
        None => {
            // Pure anycast catchment sizes.
            out.push_str("anycast catchment (clients per site):\n");
            let r = measure_control(&tb, SiteId(0), &[]);
            let _ = r; // anycast row computed below per site
                       // One converged anycast run, counted via control measurement of
                       // each site's not-routed fraction is awkward; do it directly.
            let rng = &tb.rng;
            let mut sim = Standalone::with_queue_capacity(
                &tb.topo,
                BgpTimingConfig::instant(),
                rng,
                tb.queue_capacity_hint(),
            );
            let prefix: Prefix = tb.cfg.plan.anycast_probe;
            for &s in tb.cdn.site_nodes() {
                sim.announce(s, prefix, OriginConfig::plain());
            }
            sim.run_to_idle(tb.cfg.max_events)
                .within_budget("converge")?;
            let env = ForwardEnv {
                topo: &tb.topo,
                bgp: sim.sim(),
                down: &[],
            };
            let mut counts = vec![0usize; tb.cdn.num_sites()];
            let mut lost = 0usize;
            for c in tb.topo.client_nodes() {
                match bobw_dataplane::catchment(&env, &tb.cdn, c, prefix.addr_at(1)) {
                    Some(site) => counts[site.index()] += 1,
                    None => lost += 1,
                }
            }
            for site in tb.cdn.sites() {
                out.push_str(&format!(
                    "  {:<5} {}\n",
                    tb.cdn.name(site),
                    counts[site.index()]
                ));
            }
            out.push_str(&format!("  (unreachable: {lost})\n"));
        }
        Some(k) => {
            let k: u8 = k.parse().map_err(|_| format!("bad --prepend {k:?}"))?;
            out.push_str(&format!(
                "proactive-prepending control per site (backups prepend {k}):\n"
            ));
            for site in tb.cdn.sites() {
                let r = measure_control(&tb, site, &[k]);
                out.push_str(&format!(
                    "  {:<5} not-anycast-routed {:>4}, steered {:>4}\n",
                    r.site_name,
                    percent(r.frac_not_anycast_routed),
                    percent(r.steered[0].1),
                ));
            }
        }
    }
    Ok(out)
}

/// Builds a converged anycast world for inspect/traceroute.
fn converged_world(opts: &Options) -> Result<(Testbed, Standalone), String> {
    let cfg = opts.scale_config()?;
    let tb = Testbed::new(cfg);
    let mut sim = Standalone::with_queue_capacity(
        &tb.topo,
        tb.cfg.timing.clone(),
        &tb.rng,
        tb.queue_capacity_hint(),
    );
    let plan = tb.cfg.plan.clone();
    for &s in tb.cdn.site_nodes() {
        sim.announce(s, plan.anycast_probe, OriginConfig::plain());
    }
    sim.announce(tb.cdn.site_nodes()[0], plan.specific, OriginConfig::plain());
    for (i, site) in tb.cdn.sites().enumerate() {
        if i > 0 {
            sim.announce(tb.cdn.node(site), plan.specific, OriginConfig::prepended(3));
        }
    }
    sim.run_to_idle(tb.cfg.max_events)
        .within_budget("converge")?;
    Ok((tb, sim))
}

fn parse_node(opts: &Options, key: &str) -> Result<NodeId, String> {
    let v = opts
        .get(key)
        .ok_or_else(|| format!("--{key} is required"))?;
    let v = v.strip_prefix('n').unwrap_or(v);
    v.parse::<u32>()
        .map(NodeId)
        .map_err(|_| format!("bad --{key} {v:?} (node id like 17 or n17)"))
}

fn parse_prefix(opts: &Options) -> Result<Prefix, String> {
    opts.get("prefix")
        .ok_or_else(|| "--prefix is required".to_string())?
        .parse()
        .map_err(|e| format!("bad --prefix: {e}"))
}

fn cmd_inspect(opts: &Options) -> Result<String, String> {
    let (tb, sim) = converged_world(opts)?;
    let node = parse_node(opts, "node")?;
    if node.index() >= tb.topo.len() {
        return Err(format!("node {node} out of range (0..{})", tb.topo.len()));
    }
    let prefix = parse_prefix(opts)?;
    let mut out = String::new();
    out.push_str(&format!(
        "(world: anycast on {} from all sites; {} unicast at {} with backups prepending 3)\n",
        tb.cfg.plan.anycast_probe,
        tb.cfg.plan.specific,
        tb.cdn.name(SiteId(0)),
    ));
    out.push_str(&dump_rib(sim.sim(), node, &prefix));
    Ok(out)
}

fn cmd_traceroute(opts: &Options) -> Result<String, String> {
    let (tb, sim) = converged_world(opts)?;
    let from = parse_node(opts, "from")?;
    if from.index() >= tb.topo.len() {
        return Err(format!("node {from} out of range (0..{})", tb.topo.len()));
    }
    let prefix = parse_prefix(opts)?;
    let env = ForwardEnv {
        topo: &tb.topo,
        bgp: sim.sim(),
        down: &[],
    };
    let (delivery, path) = walk_with_path(&env, from, prefix.addr_at(1));
    let mut out = format!(
        "traceroute from {from} to {}:\n",
        bobw_net::fmt_addr(prefix.addr_at(1))
    );
    let mut cumulative = SimDuration::ZERO;
    for (hop, pair) in path.windows(2).enumerate() {
        cumulative += tb.topo.delay(pair[0], pair[1]).expect("linked");
        let n = tb.topo.node(pair[1]);
        let site = tb
            .cdn
            .site_at(pair[1])
            .map(|s| format!(" [site {}]", tb.cdn.name(s)))
            .unwrap_or_default();
        out.push_str(&format!(
            "  {:>2}. {} {} ({:?}){site}  {:.2} ms\n",
            hop + 1,
            n.id,
            n.asn,
            n.kind,
            cumulative.as_secs_f64() * 1000.0
        ));
    }
    out.push_str(&format!("outcome: {delivery:?}\n"));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn option_parsing() {
        let o = parse_options(&s(&["--scale", "quick", "pos", "--seed", "7"])).unwrap();
        assert_eq!(o.get("scale"), Some("quick"));
        assert_eq!(o.seed().unwrap(), 7);
        assert_eq!(o.positional, vec!["pos"]);
        assert!(parse_options(&s(&["--seed"])).is_err());
    }

    #[test]
    fn technique_parsing_round_trips() {
        for name in [
            "unicast",
            "anycast",
            "proactive-superprefix",
            "reactive-anycast",
            "proactive-prepending-3",
            "proactive-prepending-5-selective",
            "proactive-med-100",
            "proactive-noexport-3",
            "combined",
        ] {
            let t = parse_technique(name).unwrap();
            assert_eq!(t.name(), name, "round trip failed for {name}");
        }
        assert!(parse_technique("bogus").is_err());
        assert!(parse_technique("proactive-prepending-x").is_err());
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&s(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn topology_summary_runs() {
        let out = run(&s(&["topology", "--scale", "quick", "--seed", "3"])).unwrap();
        assert!(out.contains("topology:"));
        assert!(out.contains("sea1"));
        assert!(out.contains("connected: true"));
    }

    #[test]
    fn bad_scale_is_reported() {
        let err = run(&s(&["topology", "--scale", "galactic"])).unwrap_err();
        assert!(err.contains("galactic"));
    }

    #[test]
    fn failover_all_sites_is_jobs_independent() {
        let base = [
            "failover",
            "--site",
            "all",
            "--scale",
            "quick",
            "--seed",
            "5",
            "--technique",
            "anycast",
            "--jobs",
        ];
        let mut serial = base.to_vec();
        serial.push("1");
        let mut parallel = base.to_vec();
        parallel.push("4");
        let a = run(&s(&serial)).unwrap();
        let b = run(&s(&parallel)).unwrap();
        // Identical modulo the reported job count itself.
        assert_eq!(a.replace("1 jobs", "N jobs"), b.replace("4 jobs", "N jobs"));
        assert!(a.contains("site=all"));
        let err = run(&s(&[
            "failover", "--site", "all", "--scale", "quick", "--jobs", "0",
        ]))
        .unwrap_err();
        assert!(err.contains("--jobs"));
    }

    #[test]
    fn scenario_verbs() {
        assert!(run(&s(&["scenario"])).is_err());
        assert!(run(&s(&["scenario", "teleport"])).is_err());
        // An inline catalog exercises list + validate + run end to end.
        let dir = std::env::temp_dir().join("bobw-cli-scenario-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("crash.json");
        let scenario = bobw_scenario::Scenario::site_failure(2.0, 0);
        std::fs::write(&file, serde_json::to_string_pretty(&scenario).unwrap()).unwrap();
        let listed = run(&s(&[
            "scenario",
            "list",
            "--catalog",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(listed.contains("site-failure"), "{listed}");
        let validated = run(&s(&[
            "scenario",
            "validate",
            "--catalog",
            dir.to_str().unwrap(),
            "--scale",
            "quick",
        ]))
        .unwrap();
        assert!(validated.contains("1 scenario(s) valid"), "{validated}");
        let ran = run(&s(&[
            "scenario",
            "run",
            file.to_str().unwrap(),
            "--technique",
            "anycast",
            "--site",
            "bos",
            "--scale",
            "quick",
        ]))
        .unwrap();
        assert!(ran.contains("scenario site-failure"), "{ran}");
        assert!(ran.contains("site=bos"), "{ran}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traffic_flag_adds_load_columns() {
        let base = [
            "failover",
            "--site",
            "bos",
            "--scale",
            "quick",
            "--seed",
            "5",
            "--technique",
            "reactive-anycast",
        ];
        let plain = run(&s(&base)).unwrap();
        assert!(!plain.contains("peak util"), "{plain}");
        let mut with = base.to_vec();
        with.extend(["--traffic", "on"]);
        let loaded = run(&s(&with)).unwrap();
        assert!(loaded.contains("peak util"), "{loaded}");
        assert!(loaded.contains("resteers"), "{loaded}");
        // The probe-side report is identical either way: the traffic
        // layer is observational.
        let head = |t: &str| t.lines().take(5).collect::<Vec<_>>().join("\n");
        assert_eq!(head(&plain), head(&loaded));
        let err = run(&s(&[
            "failover",
            "--scale",
            "quick",
            "--traffic",
            "sideways",
        ]))
        .unwrap_err();
        assert!(err.contains("--traffic"), "{err}");
    }

    #[test]
    fn inspect_requires_node() {
        let err = run(&s(&["inspect", "--prefix", "184.164.244.0/24"])).unwrap_err();
        assert!(err.contains("--node is required"));
    }

    #[test]
    fn bool_flags_need_no_value() {
        let o = parse_options(&s(&["--json", "--watch", "--matrix", "--status", "pos"])).unwrap();
        for key in ["json", "watch", "matrix", "status"] {
            assert_eq!(o.get(key), Some(""), "--{key} should parse standalone");
        }
        assert_eq!(o.positional, vec!["pos"]);
    }

    /// submit/watch/jobs/serve-status against a real in-process daemon.
    /// The daemon and its worker are deliberately left running (detached):
    /// quitting raises the process-wide interrupt flag, which would poison
    /// concurrently running tests in this binary.
    #[test]
    fn service_subcommands_roundtrip() {
        let cfg =
            bobw_serve::ServeConfig::new(bobw_dist::Endpoint::parse("tcp://127.0.0.1:0").unwrap());
        let handle = bobw_serve::start(cfg).unwrap();
        let url = handle.endpoint().to_string();
        {
            let ep = handle.endpoint().clone();
            std::thread::spawn(move || {
                let _ = bobw_dist::run_worker(&bobw_dist::WorkerConfig::new(ep));
            });
        }
        let site = ExperimentConfig::quick(11).gen.sites[0].name.clone();
        let dir = std::env::temp_dir().join(format!("bobw-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            format!(r#"{{"techniques":["anycast"],"sites":["{site}"],"seed":11}}"#),
        )
        .unwrap();

        let watched = run(&s(&[
            "submit",
            spec.to_str().unwrap(),
            "--connect",
            &url,
            "--watch",
        ]))
        .unwrap();
        assert!(watched.contains("done (1 cell(s))"), "{watched}");
        assert!(watched.contains("anycast"), "{watched}");

        let listed = run(&s(&["jobs", "--connect", &url])).unwrap();
        assert!(listed.contains("done"), "{listed}");
        let id = listed
            .lines()
            .nth(1)
            .and_then(|l| l.split_whitespace().next())
            .unwrap()
            .to_string();

        // A replay watch of the finished job streams the same cell again.
        let replay = run(&s(&["watch", &id, "--connect", &url])).unwrap();
        assert!(replay.contains("done (1 cell(s))"), "{replay}");

        let matrix = run(&s(&["jobs", "--matrix", "--connect", &url])).unwrap();
        assert!(matrix.contains("anycast"), "{matrix}");
        assert!(matrix.contains(&site), "{matrix}");

        let status = run(&s(&["serve", "--status", "--connect", &url])).unwrap();
        assert!(status.contains("jobs_done"), "{status}");

        // Bad specs are rejected at the door, not at run time.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, r#"{"techniques":["warpdrive"]}"#).unwrap();
        let err = run(&s(&["submit", bad.to_str().unwrap(), "--connect", &url])).unwrap_err();
        assert!(err.contains("warpdrive"), "{err}");

        assert!(run(&s(&["watch", "oops", "--connect", &url])).is_err());
        assert!(run(&s(&["submit", "--connect", &url])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
