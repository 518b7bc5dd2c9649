//! Runs passes over a plan's cells and checks what they return.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use bobw_core::CellPerf;
use bobw_dist::CellSpec;

use crate::check;
use crate::trace::{Tracer, NO_CELL};
use crate::workload::{Output, Plan, Work, Workload};

/// `dispatch-quick` re-runs every this-many-th cell locally and compares.
const SPOT_CHECK_STRIDE: usize = 16;

/// One pass over every cell of a plan, with everything it returned.
pub struct Pass {
    /// Cells + aggregation + serialization, host seconds.
    pub wall_s: f64,
    /// Per cell (indexed like `plan.works`): latency in ms.
    pub latency_ms: Vec<f64>,
    pub outputs: Vec<Result<Output, String>>,
    /// (group, file name, JSON) of every aggregated file.
    pub artifacts: Vec<(usize, String, String)>,
    /// Result bytes of every successful cell.
    pub cell_json: Vec<Option<String>>,
    /// Per cell: the process's peak RSS while it ran, in MB (empty unless
    /// asked for).
    pub cell_peak_rss_mb: Vec<f64>,
}

impl Pass {
    pub fn first_error(&self) -> Option<(usize, &str)> {
        self.outputs
            .iter()
            .enumerate()
            .find_map(|(i, o)| o.as_ref().err().map(|e| (i, e.as_str())))
    }

    pub fn group_digests(&self, plan: &Plan) -> Vec<(String, String)> {
        plan.groups
            .iter()
            .enumerate()
            .map(|(gi, g)| {
                let cells = g
                    .works
                    .clone()
                    .map(|i| self.cell_json[i].as_deref().unwrap_or("<failed>"));
                let files = self
                    .artifacts
                    .iter()
                    .filter(|a| a.0 == gi)
                    .map(|a| (a.1.as_str(), a.2.as_str()));
                (g.label.clone(), check::group_digest(cells, files))
            })
            .collect()
    }
}

/// What a run keeps of a pass once the next one starts (the outputs of
/// every pass but the first are dropped, so peak RSS does not grow with
/// the number of passes a host manages).
pub struct Summary {
    pub wall_s: f64,
    pub latency_ms: Vec<f64>,
    /// Per cell: why it failed, if it did.
    pub failed: Vec<Option<String>>,
    /// The aggregated files equal the first pass's.
    pub files_match: bool,
    pub exact: Vec<(&'static str, i64)>,
    /// Per cell: perf counters of the simulations it ran.
    pub perfs: Vec<Vec<CellPerf>>,
}

impl Summary {
    /// Checks `pass` against its own requests and against `first` (the
    /// run's first pass; `None` when `pass` is the first).
    pub fn of(plan: &Plan, pass: &Pass, first: Option<&Pass>) -> Summary {
        let first = first.unwrap_or(pass);
        let failed = pass
            .outputs
            .iter()
            .enumerate()
            .map(|(i, out)| match out {
                Err(e) => Some(e.clone()),
                Ok(o) => plan.check_output(i, o).err().or_else(|| {
                    (pass.cell_json[i] != first.cell_json[i])
                        .then(|| "result differs from the first pass".to_string())
                }),
            })
            .collect();
        let perfs: Vec<Vec<CellPerf>> = pass
            .outputs
            .iter()
            .map(|o| o.as_ref().map(Output::perfs).unwrap_or_default())
            .collect();
        Summary {
            wall_s: pass.wall_s,
            latency_ms: pass.latency_ms.clone(),
            failed,
            files_match: pass.artifacts == first.artifacts,
            exact: exact_counters(plan, pass, &perfs),
            perfs,
        }
    }
}

/// Host-independent counters of one pass.
fn exact_counters(plan: &Plan, pass: &Pass, perfs: &[Vec<CellPerf>]) -> Vec<(&'static str, i64)> {
    let events_of = |i: usize| -> i64 { perfs[i].iter().map(|p| p.events_processed as i64).sum() };
    let events: i64 = (0..perfs.len()).map(events_of).sum();
    let ml_extra_events: i64 = plan
        .ml_twins()
        .iter()
        .map(|&(ml, twin)| events_of(ml) - events_of(twin))
        .sum();
    let resteers: u64 = pass
        .outputs
        .iter()
        .filter_map(|o| o.as_ref().ok()?.failover()?.traffic.as_ref())
        .map(|t| t.resteers)
        .sum();
    vec![
        ("event.events", events),
        ("core.phase1_key_repeats", plan.phase1_key_repeats() as i64),
        ("session.ml_extra_events", ml_extra_events),
        ("traffic.resteers", resteers as i64),
    ]
}

/// splitmix64: the pass order generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded permutation of `0..n`: each pass visits cells in its own
/// order, so no cell always runs right after the same neighbour.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak RSS (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lowers `VmHWM` to the current RSS, so the next read is the peak since
/// now. Where the kernel refuses, `VmHWM` stays the process-lifetime peak.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .map_or("panic".to_string(), |s| format!("panic: {s}"))
}

/// Runs every cell once — in this process, or through the plan's
/// coordinator one batch per group — then aggregates and serializes the
/// result files. Cells are timed from the call until the result is back;
/// a dispatched cell from the previous completion (or the batch start)
/// until its own, as the one worker runs one cell at a time. With
/// `measure_rss`, each cell's peak RSS is read too (outside its latency).
pub fn run_pass(plan: &mut Plan, order_seed: u64, measure_rss: bool, tracer: &mut Tracer) -> Pass {
    let n = plan.works.len();
    let mut latency_ms = vec![0.0; n];
    let mut cell_peak_rss_mb = if measure_rss {
        vec![0.0; n]
    } else {
        Vec::new()
    };
    let mut outputs: Vec<Result<Output, String>> = Vec::with_capacity(n);
    outputs.resize_with(n, || Err("not run".to_string()));
    tracer.begin("pass", NO_CELL);
    let started = Instant::now();
    if plan.loopback.is_none() {
        for i in shuffled(n, order_seed) {
            if measure_rss {
                reset_peak_rss();
            }
            tracer.begin(plan.works[i].span_name(), i as u32);
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| plan.execute(i)));
            latency_ms[i] = ms(t0.elapsed());
            tracer.end();
            if measure_rss {
                cell_peak_rss_mb[i] = peak_rss_mb();
            }
            outputs[i] = r.unwrap_or_else(|p| Err(panic_message(p)));
        }
    } else {
        let Plan {
            loopback,
            testbeds,
            groups,
            works,
            ..
        } = plan;
        let coordinator = loopback.as_mut().expect("dispatch plan").coordinator();
        for gi in shuffled(groups.len(), order_seed) {
            let g = &groups[gi];
            let start = g.works.start;
            let specs: Vec<CellSpec> = works[g.works.clone()]
                .iter()
                .map(|w| match w {
                    Work::Cell(spec) => spec.clone(),
                    other => panic!("only cells are dispatched, not {other:?}"),
                })
                .collect();
            tracer.begin("dist.batch", NO_CELL);
            if measure_rss {
                reset_peak_rss();
            }
            let mut last = Instant::now();
            let batch = coordinator.run_batch_with(&testbeds[g.testbed].cfg, &specs, |k, _| {
                let now = Instant::now();
                latency_ms[start + k] = ms(now - last);
                tracer.record("dist.cell", (start + k) as u32, last, now);
                if measure_rss {
                    cell_peak_rss_mb[start + k] = peak_rss_mb();
                    reset_peak_rss();
                }
                last = Instant::now();
            });
            tracer.end();
            match batch {
                Ok(outs) => {
                    for (k, o) in outs.into_iter().enumerate() {
                        outputs[start + k] = Ok(Output::Cell(o));
                    }
                }
                Err(e) => {
                    for i in g.works.clone() {
                        outputs[i] = Err(format!("batch {}: {e}", g.label));
                    }
                }
            }
        }
    }
    let mut artifacts = Vec::new();
    if outputs.iter().all(Result::is_ok) {
        let outs: Vec<Output> = outputs
            .into_iter()
            .map(|o| o.expect("checked ok"))
            .collect();
        tracer.begin("measure.aggregate", NO_CELL);
        let aggregated = plan.aggregate(&outs);
        tracer.end();
        tracer.begin("results.serialize", NO_CELL);
        match aggregated {
            Ok(files) => {
                for a in files {
                    let json = serde_json::to_string_pretty(&*a.value)
                        .expect("aggregated results serialize");
                    artifacts.push((a.group, a.name, json));
                }
            }
            Err(e) => eprintln!("aggregation failed: {e}"),
        }
        tracer.end();
        outputs = outs.into_iter().map(Ok).collect();
    }
    let wall_s = started.elapsed().as_secs_f64();
    tracer.end();
    let cell_json = outputs
        .iter()
        .map(|o| o.as_ref().ok().map(Output::result_json))
        .collect();
    Pass {
        wall_s,
        latency_ms,
        outputs,
        artifacts,
        cell_json,
        cell_peak_rss_mb,
    }
}

/// Failed cells, per pass and cell, plus run-level problems.
pub struct Verdict {
    pub failed: Vec<Vec<bool>>,
    pub problems: Vec<String>,
}

impl Verdict {
    fn fail_group(&mut self, plan: &Plan, label: &str, why: &str) {
        self.problems.push(format!("group {label}: {why}"));
        if let Some(g) = plan.groups.iter().find(|g| g.label == label) {
            for pass in &mut self.failed {
                for i in g.works.clone() {
                    pass[i] = true;
                }
            }
        }
    }

    pub fn failed_count(&self) -> u64 {
        self.failed.iter().flatten().filter(|&&f| f).count() as u64
    }
}

/// Every correctness check of a run: each pass's per-cell verdicts, the
/// first pass's group digests against the recorded ones, `paper-eval` at
/// seed 42 against the checked-in `results/*.json`, and a spot check of
/// dispatched cells against local ones.
pub fn verify(plan: &Plan, seed: u64, first: &Pass, summaries: &[Summary]) -> Verdict {
    let mut v = Verdict {
        failed: summaries
            .iter()
            .map(|s| s.failed.iter().map(Option::is_some).collect())
            .collect(),
        problems: Vec::new(),
    };
    for (p, s) in summaries.iter().enumerate() {
        for (i, why) in s.failed.iter().enumerate() {
            if let Some(why) = why {
                v.problems.push(format!("pass {p} cell {i}: {why}"));
            }
        }
        if !s.files_match {
            v.problems.push(format!(
                "pass {p}: aggregated files differ from the first pass"
            ));
        }
        if s.exact != summaries[0].exact {
            v.problems.push(format!(
                "pass {p}: exact counters differ from the first pass"
            ));
        }
    }
    if first.artifacts.is_empty() {
        v.problems.push("no aggregated files".to_string());
    }
    let digests = first.group_digests(plan);
    let family = plan.workload.digest_family().name();
    if let Some(rec) = check::recorded(check::RECORDED_DIGESTS, family, seed) {
        for label in check::mismatched_groups(&rec, &digests) {
            v.fail_group(plan, &label, "digest differs from the recorded one");
        }
    }
    if plan.workload == Workload::PaperEval && seed == 42 {
        let first_topology = first
            .artifacts
            .iter()
            .filter(|a| plan.groups[a.0].topology == 0);
        for (gi, name, json) in first_topology {
            let path = Path::new("results").join(format!("{name}.json"));
            if std::fs::read_to_string(&path).ok().as_deref() != Some(json.as_str()) {
                let label = plan.groups[*gi].label.clone();
                v.fail_group(plan, &label, &format!("differs from {}", path.display()));
            }
        }
    }
    if plan.workload == Workload::DispatchQuick {
        let start = seed as usize % SPOT_CHECK_STRIDE;
        for i in (start..plan.works.len()).step_by(SPOT_CHECK_STRIDE) {
            let local = plan.execute(i).map(|o| o.result_json());
            if local.ok() != first.cell_json[i] {
                for pass in &mut v.failed {
                    pass[i] = true;
                }
                v.problems
                    .push(format!("cell {i}: dispatched result differs from local"));
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(50, 7);
        assert_eq!(a, shuffled(50, 7));
        assert_ne!(a, shuffled(50, 8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
