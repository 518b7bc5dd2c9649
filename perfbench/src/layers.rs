//! Per-layer metrics of the traced run, named after the crates they time.
//!
//! Every layer is measured from outside: from spans around the
//! benchmark's own calls into public functions, from the `CellPerf`
//! counters those calls return, and — where the public config switches a
//! layer on and off — from running identical cells both ways.

use std::time::Instant;

use bobw_core::{CellPerf, ExperimentConfig, Testbed};
use bobw_dist::wire::{decode_exact, encode_vec, Wire};
use bobw_dist::{execute_cell, CellOutput, CellSpec};

use crate::runner::{Pass, Summary};
use crate::trace::{Span, Tracer};
use crate::workload::{Output, Plan, Work, Workload};

/// Named metric values, in the order they are reported.
pub type Metrics = Vec<(&'static str, f64)>;

/// What the traced run measured besides the traced passes.
pub struct TracedRun<'a> {
    /// Spans recorded while setting up, and how many set-ups they cover.
    pub setup_spans: &'a [Span],
    pub setups: usize,
    /// Mean wall time of an untraced and of a traced pass.
    pub untraced_pass_s: f64,
    pub traced_pass_s: f64,
}

/// The per-layer metrics but `dist.*`: per traced pass, or per set-up for
/// set-up layers. Layers a workload does not run read 0.
pub fn per_layer(
    plan: &Plan,
    first: &Pass,
    traced: &[Summary],
    tracer: &Tracer,
    run: &TracedRun,
    problems: &mut Vec<String>,
) -> Metrics {
    let passes = traced.len() as f64;
    let setups = run.setups as f64;
    let setup_s = |name: &str| {
        run.setup_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum::<f64>()
            / setups
    };
    let setup_n =
        |name: &str| run.setup_spans.iter().filter(|s| s.name == name).count() as f64 / setups;
    let per_pass = |x: f64| x / passes;
    let perfs = || traced.iter().flat_map(|s| s.perfs.iter().flatten());
    let sum_perf = |f: fn(&CellPerf) -> u64| perfs().map(|p| f(p) as f64).sum::<f64>() / passes;
    let max_perf = |f: fn(&CellPerf) -> usize| perfs().map(f).max().unwrap_or(0) as f64;
    let ns_per = |s: f64, events: f64| if events > 0.0 { s * 1e9 / events } else { 0.0 };

    let events = sum_perf(|p| p.events_processed);
    let study_events: f64 = traced
        .iter()
        .flat_map(|s| {
            s.perfs
                .iter()
                .zip(&plan.works)
                .filter(|(_, w)| matches!(w, Work::Study { .. }))
                .flat_map(|(ps, _)| ps.iter().map(|p| p.events_processed as f64))
        })
        .sum::<f64>()
        / passes;
    let cell_self_s = per_pass(tracer.self_total_s("core.cell"));
    let study_s = per_pass(tracer.total_s("bgp.study"));
    let control_s = per_pass(tracer.total_s("core.control"));
    let mean_s = |i: usize| traced.iter().map(|s| s.latency_ms[i]).sum::<f64>() / passes / 1e3;
    let twins = plan.ml_twins();
    let ml_extra_s: f64 = twins.iter().map(|&(ml, t)| mean_s(ml) - mean_s(t)).sum();
    let exact = |name: &str| {
        traced[0]
            .exact
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |e| e.1 as f64)
    };

    // Dispatched cells run in the worker: their layer time is the
    // dispatched cell spans, not core spans.
    let cell_layer_s = if plan.workload == Workload::DispatchQuick {
        per_pass(tracer.total_s("dist.cell"))
    } else {
        cell_self_s + study_s + control_s
    };
    let (traffic_extra_s, traffic_extra_events) = traffic_off_difference(plan, first, problems);

    vec![
        ("core.testbed_new_s", setup_s("core.testbed_new")),
        ("core.testbeds", setup_n("core.testbed_new")),
        ("core.cell_self_s", cell_self_s),
        ("core.cells", per_pass(tracer.count("core.cell") as f64)),
        ("event.events", events),
        ("event.ns_per_event", ns_per(cell_layer_s, events)),
        ("event.peak_queue_depth", max_perf(|p| p.peak_queue_depth)),
        ("event.queue_capacity_max", max_perf(|p| p.queue_capacity)),
        ("core.phase1_key_repeats", exact("core.phase1_key_repeats")),
        ("bgp.study_s", study_s),
        ("bgp.study_events", study_events),
        ("bgp.study_ns_per_event", ns_per(study_s, study_events)),
        ("core.control_s", control_s),
        ("core.dns_cell_s", per_pass(tracer.total_s("core.dns_cell"))),
        ("core.appc1_s", per_pass(tracer.total_s("core.appc1"))),
        ("scenario.load_s", setup_s("scenario.load")),
        ("scenario.files", setup_n("scenario.load")),
        ("session.ml_cells", twins.len() as f64),
        ("session.ml_extra_s", ml_extra_s),
        ("session.ml_extra_events", exact("session.ml_extra_events")),
        ("traffic.extra_s", traffic_extra_s),
        ("traffic.extra_events", traffic_extra_events),
        ("traffic.resteers", exact("traffic.resteers")),
        (
            "measure.aggregate_s",
            per_pass(tracer.total_s("measure.aggregate")),
        ),
        (
            "results.serialize_s",
            per_pass(tracer.total_s("results.serialize")),
        ),
        (
            "results.bytes",
            first.artifacts.iter().map(|a| a.2.len()).sum::<usize>() as f64,
        ),
        (
            "trace.overhead_frac",
            (run.traced_pass_s - run.untraced_pass_s) / run.untraced_pass_s,
        ),
    ]
}

/// The `dist.*` metrics of dispatched passes (`dist`, traced) of `plan`,
/// whose cells `pass` holds; spans named `dist.batch` come from those
/// passes only.
pub fn dist_layer(
    plan: &Plan,
    pass: &Pass,
    dist: &[Summary],
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> Metrics {
    let passes = dist.len() as f64;
    let busy_s = dist
        .iter()
        .flat_map(|s| s.perfs.iter().flatten())
        .map(|p| p.wall_micros as f64 / 1e6)
        .sum::<f64>()
        / passes;
    let batch_s = tracer.total_s("dist.batch") / passes;
    let (wire_bytes, encode_s, decode_s) = wire_round_trip(plan, pass, problems);
    vec![
        ("dist.batches", tracer.count("dist.batch") as f64 / passes),
        ("dist.batch_s", batch_s),
        ("dist.worker_busy_s", busy_s),
        ("dist.occupancy", busy_s / batch_s),
        (
            "dist.overhead_ms_per_cell",
            (batch_s - busy_s) / plan.works.len() as f64 * 1e3,
        ),
        ("dist.wire_bytes", wire_bytes),
        ("dist.encode_s", encode_s),
        ("dist.decode_s", decode_s),
    ]
}

/// What the traffic layer costs: every traffic-enabled cell runs again
/// with traffic on and, right after it, with `traffic: None` on a testbed
/// built for that; returns (extra seconds, extra events) per pass. The
/// layer is observational, so turning it off must not change a single
/// failover outcome.
fn traffic_off_difference(plan: &Plan, first: &Pass, problems: &mut Vec<String>) -> (f64, f64) {
    let (mut extra_s, mut extra_events) = (0.0, 0.0);
    for g in &plan.groups {
        let on_tb = &plan.testbeds[g.testbed];
        if on_tb.cfg.traffic.is_none() {
            continue;
        }
        let mut cfg: ExperimentConfig = on_tb.cfg.clone();
        cfg.traffic = None;
        let off_tb = Testbed::new(cfg);
        for i in g.works.clone() {
            let Work::Cell(spec) = &plan.works[i] else {
                continue;
            };
            let timed = |tb: &Testbed| {
                let t0 = Instant::now();
                let out = execute_cell(tb, spec);
                (out, t0.elapsed().as_secs_f64())
            };
            let (on, on_s) = timed(on_tb);
            let (off, off_s) = timed(&off_tb);
            extra_s += on_s - off_s;
            match (on, off, &first.outputs[i]) {
                (
                    Ok(CellOutput::Failover(_, on_p)),
                    Ok(CellOutput::Failover(off_r, off_p)),
                    Ok(Output::Cell(CellOutput::Failover(first_r, _))),
                ) => {
                    extra_events += on_p.events_processed as f64 - off_p.events_processed as f64;
                    if off_r.outcomes != first_r.outcomes {
                        problems.push(format!("cell {i}: traffic layer changed failover outcomes"));
                    }
                }
                _ => problems.push(format!("cell {i}: traffic on/off re-run failed")),
            }
        }
    }
    (extra_s, extra_events)
}

/// Encodes a batch of wire values, returning the frames.
fn encode_all<T: Wire>(values: &[&T]) -> Vec<Vec<u8>> {
    values.iter().map(|v| encode_vec(*v)).collect()
}

fn decode_all<T: Wire>(frames: &[Vec<u8>]) -> Vec<Option<T>> {
    frames.iter().map(|b| decode_exact::<T>(b).ok()).collect()
}

/// Every frame decoded and re-encodes to the same bytes.
fn round_trips<T: Wire>(frames: &[Vec<u8>], decoded: &[Option<T>]) -> bool {
    frames
        .iter()
        .zip(decoded)
        .all(|(b, v)| v.as_ref().is_some_and(|v| encode_vec(v) == *b))
}

/// Re-encodes and decodes what one dispatched pass shipped — each batch's
/// config, every `CellSpec` and every `CellOutput` — with the dist wire
/// codec. Returns (bytes, encode seconds, decode seconds).
fn wire_round_trip(plan: &Plan, first: &Pass, problems: &mut Vec<String>) -> (f64, f64, f64) {
    let configs: Vec<&ExperimentConfig> = plan
        .groups
        .iter()
        .map(|g| &plan.testbeds[g.testbed].cfg)
        .collect();
    let specs: Vec<&CellSpec> = plan
        .works
        .iter()
        .filter_map(|w| match w {
            Work::Cell(spec) => Some(spec),
            _ => None,
        })
        .collect();
    let outputs: Vec<&CellOutput> = first
        .outputs
        .iter()
        .filter_map(|o| match o {
            Ok(Output::Cell(c)) => Some(c),
            _ => None,
        })
        .collect();
    let t0 = Instant::now();
    let frames = (
        encode_all(&configs),
        encode_all(&specs),
        encode_all(&outputs),
    );
    let encode_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let decoded = (
        decode_all::<ExperimentConfig>(&frames.0),
        decode_all::<CellSpec>(&frames.1),
        decode_all::<CellOutput>(&frames.2),
    );
    let decode_s = t1.elapsed().as_secs_f64();
    if !(round_trips(&frames.0, &decoded.0)
        && round_trips(&frames.1, &decoded.1)
        && round_trips(&frames.2, &decoded.2))
    {
        problems.push("wire codec does not round-trip what a pass shipped".to_string());
    }
    let bytes: usize = [&frames.0, &frames.1, &frames.2]
        .iter()
        .flat_map(|f| f.iter())
        .map(Vec::len)
        .sum();
    (bytes as f64, encode_s, decode_s)
}
