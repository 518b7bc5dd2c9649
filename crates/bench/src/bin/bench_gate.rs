//! Perf regression gate: diffs a fresh `BENCH_repro_all.json` against the
//! checked-in `BENCH_baseline.json`.
//!
//! Three aggregate metrics are compared, each within a configurable
//! relative tolerance (regressions fail, improvements always pass):
//!
//! - **events/sec** — total simulator events over batch wall time; the
//!   headline throughput of the runner.
//! - **wall time** — end-to-end elapsed micros across all batches.
//! - **peak queue depth** — max event-queue high-water mark over all
//!   cells; deterministic for a fixed scale/seed, so a change means the
//!   simulation itself changed shape, not just the host.
//!
//! Wall time only compares like for like: the bench file's `jobs` and
//! `scale` must equal the baseline's, or the gate refuses to compare.
//!
//! Exit status: 0 when every aggregate metric is within tolerance, 1 on
//! regression, 2 on usage/parse errors or a `jobs`/`scale` mismatch with
//! the baseline. The per-technique drill-down is
//! informational only (small per-technique samples are noisier than any
//! tolerance worth gating on). CI's `perf-smoke` job runs this as a hard
//! gate at `--tolerance 0.10` after a `--jobs 1` reproduction, and
//! publishes the drill-down table in the job summary.
//!
//! Regenerate the baseline after an intentional perf change:
//!
//! ```text
//! cargo run --release -p bobw-bench --bin repro_all -- --scale quick --seed 42 --jobs 1
//! cargo run --release -p bobw-bench --bin bench_gate -- --write-baseline
//! ```

use std::process::exit;

use serde::Value;

struct Args {
    bench: String,
    baseline: String,
    /// Relative tolerance, e.g. 0.5 = a metric may regress by up to 50%.
    tolerance: f64,
    write_baseline: bool,
}

const USAGE: &str =
    "usage: bench_gate [--bench FILE] [--baseline FILE] [--tolerance FRAC] [--write-baseline]";

fn parse_args() -> Args {
    let mut args = Args {
        bench: "BENCH_repro_all.json".to_string(),
        baseline: "BENCH_baseline.json".to_string(),
        tolerance: 0.5,
        write_baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("error: {name} needs a value\n{USAGE}");
                exit(2);
            })
        };
        match flag.as_str() {
            "--bench" => args.bench = val("--bench"),
            "--baseline" => args.baseline = val("--baseline"),
            "--tolerance" => {
                let raw = val("--tolerance");
                args.tolerance = raw.parse().unwrap_or_else(|_| {
                    eprintln!("error: --tolerance must be a fraction, got '{raw}'");
                    exit(2);
                });
            }
            "--write-baseline" => args.write_baseline = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => {
                eprintln!("error: unknown flag '{other}'\n{USAGE}");
                exit(2);
            }
        }
    }
    args
}

/// Aggregates for one technique's cells (summed cell wall time, not batch
/// elapsed — per-technique cells interleave inside shared batches).
#[derive(Default, Clone)]
struct TechMetrics {
    cells: usize,
    events: u64,
    cell_micros: u64,
}

impl TechMetrics {
    fn events_per_sec(&self) -> f64 {
        let secs = self.cell_micros as f64 / 1e6;
        if secs > 0.0 {
            self.events as f64 / secs
        } else {
            0.0
        }
    }
}

/// The aggregate metrics of one `PerfLog` dump.
struct Metrics {
    /// Worker threads and scale the batches ran with.
    jobs: u64,
    scale: String,
    cells: usize,
    total_events: u64,
    wall_micros: u64,
    peak_queue_depth: u64,
    by_technique: std::collections::BTreeMap<String, TechMetrics>,
}

impl Metrics {
    fn events_per_sec(&self) -> f64 {
        let secs = self.wall_micros as f64 / 1e6;
        if secs > 0.0 {
            self.total_events as f64 / secs
        } else {
            0.0
        }
    }
}

fn load_metrics(path: &str) -> Result<Metrics, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    let jobs = root
        .get("jobs")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{path}: missing 'jobs'"))?;
    let scale = root
        .get("scale")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{path}: missing 'scale'"))?
        .to_string();
    let wall_micros = root
        .get("elapsed_micros")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{path}: missing 'elapsed_micros'"))?;
    let cells = root
        .get("cells")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{path}: missing 'cells' array"))?;
    let mut total_events = 0u64;
    let mut peak_queue_depth = 0u64;
    let mut by_technique: std::collections::BTreeMap<String, TechMetrics> = Default::default();
    for (i, cell) in cells.iter().enumerate() {
        let events = cell
            .get("events_processed")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}: cell {i} missing 'events_processed'"))?;
        total_events += events;
        let depth = cell
            .get("peak_queue_depth")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}: cell {i} missing 'peak_queue_depth'"))?;
        peak_queue_depth = peak_queue_depth.max(depth);
        let technique = cell
            .get("technique")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: cell {i} missing 'technique'"))?;
        let micros = cell
            .get("wall_micros")
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("{path}: cell {i} missing 'wall_micros'"))?;
        let t = by_technique.entry(technique.to_string()).or_default();
        t.cells += 1;
        t.events += events;
        t.cell_micros += micros;
    }
    Ok(Metrics {
        jobs,
        scale,
        cells: cells.len(),
        total_events,
        wall_micros,
        peak_queue_depth,
        by_technique,
    })
}

/// Wall time is only comparable between runs with the same worker count
/// and scale.
fn like_for_like(cur: &Metrics, base: &Metrics) -> Result<(), String> {
    if (cur.jobs, &cur.scale) == (base.jobs, &base.scale) {
        Ok(())
    } else {
        Err(format!(
            "ran with jobs {} at scale {}, but the baseline was recorded with jobs {} at \
             scale {}; rerun repro_all with matching --jobs/--scale",
            cur.jobs, cur.scale, base.jobs, base.scale
        ))
    }
}

/// One gate line. `higher_is_better` picks the regression direction; a
/// metric only fails when it moves the *bad* way by more than `tol`.
fn check(name: &str, base: f64, cur: f64, higher_is_better: bool, tol: f64) -> bool {
    let delta = if base != 0.0 {
        (cur - base) / base
    } else {
        0.0
    };
    let regressed = if higher_is_better {
        delta < -tol
    } else {
        delta > tol
    };
    let verdict = if regressed { "FAIL" } else { "ok" };
    println!(
        "{name:<18} baseline {base:>14.1}  current {cur:>14.1}  delta {delta:>+8.1}%  {verdict}",
        delta = delta * 100.0
    );
    !regressed
}

/// A drill-down line: same layout as [`check`] but never gates.
fn show(name: &str, base: f64, cur: f64) {
    let delta = if base != 0.0 {
        (cur - base) / base
    } else {
        0.0
    };
    println!(
        "{name:<18} baseline {base:>14.1}  current {cur:>14.1}  delta {delta:>+8.1}%",
        delta = delta * 100.0
    );
}

fn main() {
    let args = parse_args();

    if args.write_baseline {
        match std::fs::copy(&args.bench, &args.baseline) {
            Ok(_) => {
                println!("baseline updated: {} -> {}", args.bench, args.baseline);
                return;
            }
            Err(e) => {
                eprintln!("error: cannot write baseline: {e}");
                exit(2);
            }
        }
    }

    let base = load_metrics(&args.baseline).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2);
    });
    let cur = load_metrics(&args.bench).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(2);
    });

    if let Err(e) = like_for_like(&cur, &base) {
        eprintln!("error: {} vs {}: {e}", args.bench, args.baseline);
        exit(2);
    }

    println!(
        "bench gate: {} ({} cells) vs {} ({} cells), tolerance {:.0}%",
        args.bench,
        cur.cells,
        args.baseline,
        base.cells,
        args.tolerance * 100.0
    );
    if cur.cells != base.cells {
        // Different grid shapes make the wall-time comparison meaningless;
        // call that out but still print the table for the log.
        println!(
            "warning: cell count differs ({} vs {}) — was the scale changed without refreshing the baseline?",
            cur.cells, base.cells
        );
    }

    let mut ok = true;
    ok &= check(
        "events/sec",
        base.events_per_sec(),
        cur.events_per_sec(),
        true,
        args.tolerance,
    );
    ok &= check(
        "wall micros",
        base.wall_micros as f64,
        cur.wall_micros as f64,
        false,
        args.tolerance,
    );
    ok &= check(
        "peak queue depth",
        base.peak_queue_depth as f64,
        cur.peak_queue_depth as f64,
        false,
        args.tolerance,
    );

    // Per-technique drill-down: a regression above is localized here to
    // one simulator path (a technique maps onto the announcement shapes
    // and reaction machinery it exercises). Events/sec uses summed
    // per-cell wall time, since cells of different techniques interleave
    // within one batch. Informational only — a single technique's
    // cell-summed wall time is a much smaller sample than the batch
    // aggregate and swings well past any tolerance tight enough to be a
    // useful headline gate, so these lines never flip the exit status.
    println!("\nper-technique drill-down (informational):");
    for (tech, b) in &base.by_technique {
        let Some(c) = cur.by_technique.get(tech) else {
            println!(
                "{tech:<26} gone from current run ({} baseline cells)",
                b.cells
            );
            continue;
        };
        if c.cells != b.cells {
            println!(
                "{tech:<26} cell count changed ({} -> {}), skipping comparison",
                b.cells, c.cells
            );
            continue;
        }
        show(
            &format!("{tech} ev/s"),
            b.events_per_sec(),
            c.events_per_sec(),
        );
        show(
            &format!("{tech} wall us"),
            b.cell_micros as f64,
            c.cell_micros as f64,
        );
    }
    for tech in cur.by_technique.keys() {
        if !base.by_technique.contains_key(tech) {
            println!("{tech:<26} new since baseline (no comparison)");
        }
    }
    println!();

    if ok {
        println!("bench gate: PASS");
    } else {
        println!("bench gate: FAIL (regenerate the baseline with --write-baseline if intentional)");
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(jobs: u64, scale: &str) -> Metrics {
        Metrics {
            jobs,
            scale: scale.to_string(),
            cells: 0,
            total_events: 0,
            wall_micros: 0,
            peak_queue_depth: 0,
            by_technique: Default::default(),
        }
    }

    #[test]
    fn refuses_a_different_jobs_or_scale() {
        let base = metrics(1, "quick");
        assert!(like_for_like(&metrics(1, "quick"), &base).is_ok());
        assert!(like_for_like(&metrics(4, "quick"), &base).is_err());
        assert!(like_for_like(&metrics(1, "eval"), &base).is_err());
    }
}
