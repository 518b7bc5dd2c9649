//! End-to-end and per-layer benchmark of the failover simulator.
//!
//! ```text
//! perfbench --workload <paper-eval|scenario-quick|traffic-eval|dispatch-quick>
//!           [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! perfbench all [--seed N] [--seconds S]        # every workload, one process each
//! perfbench compare OLD.json NEW.json           # two --record files
//! perfbench digests --seeds 1,2,42              # prints a digests.json
//! ```
//!
//! Run from the repository root (it reads `scenarios/` and `results/`).
//! A run sets the workload up several times from the seed (the median is
//! `setup_s`), then runs whole passes over the workload's cells on one
//! compute thread for about `--seconds` of pass time. Every cell
//! is checked: against its own request, against the first pass, against
//! the digests recorded in `digests.json`, and — for `paper-eval` at seed
//! 42 — the aggregated files against the checked-in `results/*.json`.
//! The last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of a traced run. See README.md for the metrics.

mod check;
mod layers;
mod runner;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{Metric, Record, Settings};
use layers::{dist_layer, per_layer, Metrics, TracedRun};
use runner::{run_pass, verify, Pass, Summary};
use trace::Tracer;
use workload::{Plan, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 41;
/// Generated Internets per run (see `workload::topology_seeds`).
const TOPOLOGIES: usize = 3;
/// A run stops starting passes once this much time has gone, whatever
/// `--seconds` says, so it ends well inside three minutes.
const HARD_STOP: Duration = Duration::from_secs(140);
/// Directory (relative to the working directory) for the run's Unix
/// socket and the span files.
const RUN_DIR: &str = ".perfbench";

const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("cell_p50_ms", "ms"),
    ("cell_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("cell_ok_frac", "frac"),
];

const PER_LAYER: &[(&str, &str)] = &[
    ("core.testbed_new_s", "s"),
    ("core.testbeds", "count"),
    ("core.cell_self_s", "s"),
    ("core.cells", "count"),
    ("event.events", "count"),
    ("event.ns_per_event", "ns"),
    ("event.peak_queue_depth", "count"),
    ("event.queue_capacity_max", "count"),
    ("core.phase1_key_repeats", "count"),
    ("bgp.study_s", "s"),
    ("bgp.study_events", "count"),
    ("bgp.study_ns_per_event", "ns"),
    ("core.control_s", "s"),
    ("core.dns_cell_s", "s"),
    ("core.appc1_s", "s"),
    ("scenario.load_s", "s"),
    ("scenario.files", "count"),
    ("session.ml_cells", "count"),
    ("session.ml_extra_s", "s"),
    ("session.ml_extra_events", "count"),
    ("traffic.extra_s", "s"),
    ("traffic.extra_events", "count"),
    ("traffic.resteers", "count"),
    ("measure.aggregate_s", "s"),
    ("results.serialize_s", "s"),
    ("results.bytes", "bytes"),
    ("dist.batches", "count"),
    ("dist.batch_s", "s"),
    ("dist.worker_busy_s", "s"),
    ("dist.occupancy", "frac"),
    ("dist.overhead_ms_per_cell", "ms"),
    ("dist.wire_bytes", "bytes"),
    ("dist.encode_s", "s"),
    ("dist.decode_s", "s"),
    ("trace.overhead_frac", "frac"),
];

/// Per-layer counters that do not depend on the host: compared exactly.
const EXACT: &[&str] = &[
    "event.events",
    "core.phase1_key_repeats",
    "session.ml_extra_events",
    "traffic.extra_events",
    "traffic.resteers",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<PathBuf>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--record FILE]\n\
         \x20      perfbench all [--seed N] [--seconds S]\n\
         \x20      perfbench compare OLD.json NEW.json\n\
         \x20      perfbench digests --seeds N[,N...]",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperEval,
        seed: 42,
        seconds: 10,
        trace: false,
        record: None,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s >= 1)
                    .ok_or("--seconds needs an integer >= 1")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--record" => args.record = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => compare_cmd(&argv[1..]),
        Some("digests") => digests_cmd(&argv[1..]),
        Some("all") => all_cmd(&argv[1..]),
        _ => match parse_args(&argv) {
            Ok(args) => run(&args),
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn compare_cmd(argv: &[String]) -> Result<(), String> {
    let [old, new] = argv else {
        return Err("compare takes two record files".into());
    };
    let load = |p: &String| -> Result<Record, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str_typed(&text).map_err(|e| format!("{p}: {e}"))
    };
    print!("{}", check::compare(&load(old)?, &load(new)?)?);
    Ok(())
}

/// Runs every workload in its own process (peak RSS is per process) and
/// prints each one's end-to-end metrics.
fn all_cmd(argv: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for w in Workload::ALL {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name()])
            .args(argv)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.name()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        println!("== {} ==", w.name());
        print!("{stdout}");
        if !out.status.success() {
            return Err(format!("{} exited with {}", w.name(), out.status));
        }
    }
    Ok(())
}

/// Prints a `digests.json` covering the given seeds, one pass per
/// workload family and seed.
fn digests_cmd(argv: &[String]) -> Result<(), String> {
    let seeds: Vec<u64> = match argv {
        [flag, list] if flag == "--seeds" => list
            .split(',')
            .map(|s| s.parse().map_err(|_| format!("bad seed {s:?}")))
            .collect::<Result<_, _>>()?,
        _ => return Err("digests takes --seeds N[,N...]".into()),
    };
    let families = [
        Workload::PaperEval,
        Workload::ScenarioQuick,
        Workload::TrafficEval,
    ];
    let mut out = String::from("{\n");
    for (fi, w) in families.iter().enumerate() {
        out.push_str(&format!("  \"{}\": {{\n", w.name()));
        for (si, &seed) in seeds.iter().enumerate() {
            let mut tracer = Tracer::new(false);
            let mut plan = Plan::setup(
                *w,
                seed,
                TOPOLOGIES,
                Path::new(bobw_scenario::CATALOG_DIR),
                Path::new(""),
                &mut tracer,
            )?;
            let pass = run_pass(&mut plan, seed, false, &mut tracer);
            if let Some((i, e)) = pass.first_error() {
                return Err(format!("{} seed {seed} cell {i}: {e}", w.name()));
            }
            let groups: Vec<String> = pass
                .group_digests(&plan)
                .iter()
                .map(|(g, d)| format!("\"{g}\": \"{d}\""))
                .collect();
            let comma = if si + 1 < seeds.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{seed}\": {{{}}}{comma}\n",
                groups.join(", ")
            ));
            eprintln!("{} seed {seed} recorded", w.name());
        }
        let comma = if fi + 1 < families.len() { "," } else { "" };
        out.push_str(&format!("  }}{comma}\n"));
    }
    out.push_str("}\n");
    print!("{out}");
    Ok(())
}

/// The traced `scenario-quick` run's dist measurement: the first
/// topology's cells (exactly `dispatch-quick`'s first third) go once
/// through a loopback coordinator and must come back with the bytes the
/// local pass produced. Returns the `dist.*` metrics and the numbers of
/// dispatched and of failed cells.
fn dispatched_first_topology(
    plan: &Plan,
    first: &Pass,
    tracer: &mut Tracer,
    seed: u64,
    problems: &mut Vec<String>,
) -> Result<(Metrics, u64, u64), String> {
    let socket = PathBuf::from(format!("{RUN_DIR}/s{}-dist", std::process::id()));
    let catalog = Path::new(bobw_scenario::CATALOG_DIR);
    let mut dist_plan = Plan::setup(Workload::DispatchQuick, seed, 1, catalog, &socket, tracer)?;
    let pass = run_pass(&mut dist_plan, seed, false, tracer);
    if let Some(mut lb) = dist_plan.loopback.take() {
        lb.finish().map_err(|e| format!("loopback worker: {e}"))?;
    }
    let summary = Summary::of(&dist_plan, &pass, None);
    let mut failed = 0;
    for (i, why) in summary.failed.iter().enumerate() {
        let why = why.clone().or_else(|| {
            (pass.cell_json[i] != first.cell_json[i])
                .then(|| "dispatched result differs from local".to_string())
        });
        if let Some(why) = why {
            failed += 1;
            problems.push(format!("dispatched cell {i}: {why}"));
        }
    }
    let local_files = first
        .artifacts
        .iter()
        .filter(|a| plan.groups[a.0].topology == 0);
    if !pass
        .artifacts
        .iter()
        .map(|a| (&a.1, &a.2))
        .eq(local_files.map(|a| (&a.1, &a.2)))
    {
        problems.push("dispatched aggregated files differ from local".to_string());
    }
    let metrics = dist_layer(
        &dist_plan,
        &pass,
        std::slice::from_ref(&summary),
        tracer,
        problems,
    );
    Ok((metrics, dist_plan.works.len() as u64, failed))
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn run(args: &Args) -> Result<(), String> {
    let process_start = Instant::now();
    let w = args.workload;
    let settings = Settings {
        workload: w.name().to_string(),
        scale: w.scale().name().to_string(),
        seed: args.seed,
        threads: 1,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .to_string(),
        seconds: args.seconds,
        trace: args.trace,
    };
    println!("{}", settings.line());
    std::fs::create_dir_all(RUN_DIR).map_err(|e| format!("{RUN_DIR}: {e}"))?;
    let catalog = Path::new(bobw_scenario::CATALOG_DIR);

    // Set-up, several times; the last plan is the one measured.
    let mut tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut plan = None;
    for k in 0..SETUP_REPEATS {
        let socket = PathBuf::from(format!("{RUN_DIR}/s{}-{k}", std::process::id()));
        drop(plan.take());
        let t0 = Instant::now();
        let p = Plan::setup(w, args.seed, TOPOLOGIES, catalog, &socket, &mut tracer)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        plan = Some(p);
    }
    let mut plan = plan.expect("at least one set-up");
    let setup_span_count = tracer.spans().len();

    // Whole passes until the budget is spent. Checks between passes are
    // not timed; every pass but the first is reduced to its summary.
    let mut first: Option<Pass> = None;
    let mut summaries: Vec<Summary> = Vec::new();
    let mut run_passes = |tracing: bool, budget: f64, tracer: &mut Tracer| -> (f64, usize) {
        tracer.set_enabled(tracing);
        let (mut measured, mut count) = (0.0, 0);
        loop {
            let order_seed = args.seed ^ ((summaries.len() as u64) << 32);
            let pass = run_pass(&mut plan, order_seed, first.is_none(), tracer);
            measured += pass.wall_s;
            count += 1;
            let last = pass.wall_s;
            summaries.push(Summary::of(&plan, &pass, first.as_ref()));
            first.get_or_insert(pass);
            // Stop when another pass would overshoot the budget by more
            // than half a pass, so runs last about `--seconds` whatever
            // the pass length.
            let next_end = process_start.elapsed() + Duration::from_secs_f64(last);
            if measured + last / 2.0 >= budget || next_end > HARD_STOP {
                return (measured / count as f64, count);
            }
        }
    };
    let (untraced_pass_s, traced_passes) = if args.trace {
        let half = args.seconds as f64 / 2.0;
        let untraced = run_passes(false, half, &mut tracer);
        let traced = run_passes(true, half, &mut tracer);
        (untraced.0, Some(traced))
    } else {
        run_passes(false, args.seconds as f64, &mut tracer);
        (0.0, None)
    };
    if let Some(mut lb) = plan.loopback.take() {
        lb.finish().map_err(|e| format!("loopback worker: {e}"))?;
    }
    let first = first.expect("at least one pass");

    let verdict = verify(&plan, args.seed, &first, &summaries);
    let mut attempted = (summaries.len() * plan.works.len()) as u64;
    let mut failed = verdict.failed_count();
    let mut problems = verdict.problems;
    let mut exact: Vec<(&str, i64)> = summaries[0].exact.clone();
    let metrics: Vec<(&str, f64)> = if let Some((traced_pass_s, n)) = traced_passes {
        let run = TracedRun {
            setup_spans: &tracer.spans()[..setup_span_count],
            setups: SETUP_REPEATS,
            untraced_pass_s,
            traced_pass_s,
        };
        let traced = &summaries[summaries.len() - n..];
        let mut layer = per_layer(&plan, &first, traced, &tracer, &run, &mut problems);
        match w {
            Workload::DispatchQuick => {
                layer.extend(dist_layer(&plan, &first, traced, &tracer, &mut problems));
            }
            Workload::ScenarioQuick => {
                let (dist, dist_attempted, dist_failed) = dispatched_first_topology(
                    &plan,
                    &first,
                    &mut tracer,
                    args.seed,
                    &mut problems,
                )?;
                attempted += dist_attempted;
                failed += dist_failed;
                layer.extend(dist);
            }
            _ => {}
        }
        for (name, v) in &layer {
            if EXACT.contains(name) && !exact.iter().any(|(k, _)| k == name) {
                exact.push((name, *v as i64));
            }
        }
        let spans_path = format!("{RUN_DIR}/spans-{}-seed{}.jsonl", w.name(), args.seed);
        std::fs::write(&spans_path, tracer.to_jsonl()).map_err(|e| format!("{spans_path}: {e}"))?;
        eprintln!("wrote {} spans to {spans_path}", tracer.spans().len());
        layer
    } else {
        let latencies: Vec<f64> = summaries
            .iter()
            .flat_map(|s| s.latency_ms.iter().copied())
            .collect();
        let walls: Vec<f64> = summaries.iter().map(|s| s.wall_s).collect();
        println!(
            "passes={} cells={} measured_s={:.3} beyond_p90={}",
            summaries.len(),
            latencies.len(),
            walls.iter().sum::<f64>(),
            latencies.len() / 10
        );
        vec![
            ("setup_s", quantile(&setup_s, 0.5)),
            // The median pass: a pass is a fixed amount of work, and the
            // median keeps a neighbour's burst on a shared host from
            // deciding the figure.
            (
                "cells_per_s",
                plan.works.len() as f64 / quantile(&walls, 0.5),
            ),
            ("cell_p50_ms", quantile(&latencies, 0.5)),
            ("cell_p90_ms", quantile(&latencies, 0.9)),
            // Per-cell peaks of the first pass: the 90th percentile is
            // what running a cell costs in memory, set-up included, and a
            // rare heavy cell of one generated Internet does not decide it.
            ("peak_rss_mb", quantile(&first.cell_peak_rss_mb, 0.9)),
            ("cell_ok_frac", 1.0 - failed as f64 / attempted as f64),
        ]
    };
    let digest = check::workload_digest(&first.group_digests(&plan));
    println!("digest: {digest}");
    for (name, v) in &exact {
        println!("exact {name} = {v}");
    }
    for p in problems.iter().take(20) {
        println!("problem: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    let units: Vec<(&str, &str)> = if args.trace { PER_LAYER } else { END_TO_END }.to_vec();
    let mut record_metrics = std::collections::BTreeMap::new();
    let mut json_metrics = Vec::new();
    for (name, unit) in units {
        let value = metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v);
        // Adding 0.0 turns an empty sum's -0.0 into 0.0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        println!("{name:<28} {value:>16.6} {unit}");
        json_metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
        record_metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }
    if let Some(path) = &args.record {
        let record = Record {
            settings,
            correct,
            attempted,
            failed,
            digest,
            exact: exact.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            metrics: record_metrics,
        };
        let json = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json_metrics.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.5), 3.0);
        assert_eq!(quantile(&xs, 0.9), 4.6);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn args_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload traffic-eval --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::TrafficEval);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload paper-eval --trace 2")).is_err());
    }
}
