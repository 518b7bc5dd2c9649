//! Result digests, run settings, and the comparison of two recorded runs.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Result digests recorded per workload family, seed and group:
/// `{"<workload>": {"<seed>": {"<group>": "<hex>"}}}`.
pub const RECORDED_DIGESTS: &str = include_str!("../digests.json");

/// Digest of one group's results: every cell's result bytes in cell order,
/// then every aggregated file's name and bytes.
pub fn group_digest<'a>(
    cells: impl IntoIterator<Item = &'a str>,
    artifacts: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> String {
    let mut bytes = Vec::new();
    for c in cells {
        bytes.extend_from_slice(c.as_bytes());
        bytes.push(b'\n');
    }
    for (name, json) in artifacts {
        bytes.extend_from_slice(name.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(json.as_bytes());
        bytes.push(b'\n');
    }
    format!("{:016x}", bobw_dist::proto::fnv1a(&bytes))
}

/// Digest of a whole workload: of its group digests in group order.
pub fn workload_digest(groups: &[(String, String)]) -> String {
    let joined: Vec<&str> = groups.iter().map(|(_, d)| d.as_str()).collect();
    format!(
        "{:016x}",
        bobw_dist::proto::fnv1a(joined.join(",").as_bytes())
    )
}

/// The digests recorded for `family` at `seed`, if that seed was recorded.
pub fn recorded(digests_json: &str, family: &str, seed: u64) -> Option<BTreeMap<String, String>> {
    let root = serde_json::from_str(digests_json).ok()?;
    let entry = root.get(family)?.get(&seed.to_string())?;
    serde_json::from_value(entry).ok()
}

/// Groups whose digest differs from the recorded one (or that the record
/// lacks, or that the run lacks).
pub fn mismatched_groups(
    recorded: &BTreeMap<String, String>,
    computed: &[(String, String)],
) -> Vec<String> {
    let mut bad: Vec<String> = computed
        .iter()
        .filter(|(label, digest)| recorded.get(label) != Some(digest))
        .map(|(label, _)| label.clone())
        .collect();
    bad.extend(
        recorded
            .keys()
            .filter(|k| !computed.iter().any(|(label, _)| label == *k))
            .cloned(),
    );
    bad
}

/// What a measurement depends on besides the code: two runs are compared
/// only when every field matches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Settings {
    pub workload: String,
    pub scale: String,
    pub seed: u64,
    /// Compute threads the simulator runs on.
    pub threads: usize,
    pub nproc: usize,
    pub profile: String,
    pub seconds: u64,
    pub trace: bool,
}

impl Settings {
    pub fn line(&self) -> String {
        format!(
            "settings: workload={} scale={} seed={} threads={} nproc={} profile={} seconds={} trace={}",
            self.workload,
            self.scale,
            self.seed,
            self.threads,
            self.nproc,
            self.profile,
            self.seconds,
            self.trace as u8
        )
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Everything one run measured, as written by `--record FILE`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    pub settings: Settings,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    /// Host-independent counters of one pass: any change is a change of
    /// behaviour, never noise.
    pub exact: BTreeMap<String, i64>,
    pub metrics: BTreeMap<String, Metric>,
}

/// Compares two recorded runs: refuses unless their settings match;
/// reports every exact-counter or digest difference as a behaviour change
/// and every metric as old → new with its relative change.
pub fn compare(old: &Record, new: &Record) -> Result<String, String> {
    if old.settings != new.settings {
        return Err(format!(
            "refusing to compare runs with different settings:\n  {}\n  {}",
            old.settings.line(),
            new.settings.line()
        ));
    }
    let mut out = String::new();
    if old.digest != new.digest {
        out.push_str(&format!(
            "behaviour change: result digest {} -> {}\n",
            old.digest, new.digest
        ));
    }
    for (name, a) in &old.exact {
        match new.exact.get(name) {
            Some(b) if b == a => {}
            Some(b) => out.push_str(&format!("behaviour change: {name} {a} -> {b}\n")),
            None => out.push_str(&format!("behaviour change: {name} {a} -> missing\n")),
        }
    }
    for (name, a) in &old.metrics {
        let Some(b) = new.metrics.get(name) else {
            out.push_str(&format!("{name}: missing in the new run\n"));
            continue;
        };
        let rel = if a.value != 0.0 {
            format!("{:+.1}%", 100.0 * (b.value - a.value) / a.value.abs())
        } else {
            "n/a".to_string()
        };
        out.push_str(&format!(
            "{name}: {} -> {} {} ({rel})\n",
            a.value, b.value, a.unit
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(nproc: usize) -> Record {
        Record {
            settings: Settings {
                workload: "paper-eval".into(),
                scale: "eval".into(),
                seed: 42,
                threads: 1,
                nproc,
                profile: "release".into(),
                seconds: 10,
                trace: false,
            },
            correct: true,
            attempted: 10,
            failed: 0,
            digest: "00".into(),
            exact: [("event.events".to_string(), 100)].into_iter().collect(),
            metrics: [(
                "cells_per_s".to_string(),
                Metric {
                    value: 10.0,
                    unit: "1/s".into(),
                },
            )]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn a_perturbed_result_byte_fails_the_digest_check() {
        let cells = ["{\"a\":1}", "{\"b\":2.5}"];
        let good = group_digest(cells, [("fig2", "[1,2]")]);
        let recorded: BTreeMap<String, String> =
            [("fig2".to_string(), good.clone())].into_iter().collect();
        assert!(mismatched_groups(&recorded, &[("fig2".into(), good)]).is_empty());

        let perturbed = group_digest(["{\"a\":1}", "{\"b\":2.6}"], [("fig2", "[1,2]")]);
        assert_eq!(
            mismatched_groups(&recorded, &[("fig2".into(), perturbed)]),
            vec!["fig2".to_string()]
        );
        let perturbed_file = group_digest(cells, [("fig2", "[1,3]")]);
        assert_eq!(
            mismatched_groups(&recorded, &[("fig2".into(), perturbed_file)]),
            vec!["fig2".to_string()]
        );
        // A group the run lost is a mismatch too.
        assert_eq!(mismatched_groups(&recorded, &[]), vec!["fig2".to_string()]);
    }

    #[test]
    fn recorded_digests_parse() {
        let json = r#"{"paper-eval": {"42": {"fig2": "abc"}}}"#;
        let got = recorded(json, "paper-eval", 42).expect("recorded");
        assert_eq!(got.get("fig2").map(String::as_str), Some("abc"));
        assert!(recorded(json, "paper-eval", 7).is_none());
        assert!(recorded(RECORDED_DIGESTS, "no-such-workload", 42).is_none());
    }

    #[test]
    fn a_settings_mismatch_is_refused() {
        assert!(compare(&record(2), &record(4)).is_err());
        let mut other_seed = record(2);
        other_seed.settings.seed = 7;
        assert!(compare(&record(2), &other_seed).is_err());
        let report = compare(&record(2), &record(2)).expect("same settings compare");
        assert!(!report.contains("behaviour change"));
    }

    #[test]
    fn exact_counter_changes_are_behaviour_changes() {
        let mut new = record(2);
        new.exact.insert("event.events".into(), 99);
        new.metrics.get_mut("cells_per_s").unwrap().value = 12.0;
        let report = compare(&record(2), &new).unwrap();
        assert!(report.contains("behaviour change: event.events 100 -> 99"));
        assert!(report.contains("+20.0%"));
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = record(2);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: Record = serde_json::from_str_typed(&json).unwrap();
        assert_eq!(back.settings, r.settings);
        assert_eq!(back.exact, r.exact);
    }
}
