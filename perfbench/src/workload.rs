//! The four workloads: how each builds its inputs from the seed (set-up),
//! which cells one pass runs, how a cell is handed to its layer, and how a
//! pass's outputs are aggregated into the result files users read. Why
//! each workload exists, and which layer it exercises or bypasses, is in
//! README.md.

use std::collections::HashSet;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bobw_bench::appendix::{
    announcement_propagation_instrumented, withdrawal_convergence_instrumented, StudyOutput,
};
use bobw_bench::{compute_appc1, Scale, Table1, TechniqueSeries, WeightedTechniqueSeries};
use bobw_core::{
    derive_tradeoffs, run_unicast_dns_failover, CellPerf, DivergenceReport, DnsClientConfig,
    FailoverResult, MeasuredTechnique, SessionModel, Technique, Testbed, TrafficConfig,
};
use bobw_dist::{
    execute_cell, run_worker, CellOutput, CellSpec, Coordinator, CoordinatorConfig, Endpoint,
    WorkerConfig,
};
use bobw_topology::OriginProfile;
use serde::Serialize;

use crate::trace::{Tracer, NO_CELL};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperEval,
    ScenarioQuick,
    TrafficEval,
    DispatchQuick,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperEval,
        Workload::ScenarioQuick,
        Workload::TrafficEval,
        Workload::DispatchQuick,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper-eval",
            Workload::ScenarioQuick => "scenario-quick",
            Workload::TrafficEval => "traffic-eval",
            Workload::DispatchQuick => "dispatch-quick",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn scale(self) -> Scale {
        match self {
            Workload::PaperEval | Workload::TrafficEval => Scale::Eval,
            Workload::ScenarioQuick | Workload::DispatchQuick => Scale::Quick,
        }
    }

    /// The workload whose recorded digests this one must reproduce:
    /// dispatched cells must give exactly the local cells' bytes.
    pub fn digest_family(self) -> Workload {
        match self {
            Workload::DispatchQuick => Workload::ScenarioQuick,
            w => w,
        }
    }
}

/// The traffic bin's load-centric slice of the catalog.
const LOAD_SCENARIOS: &[&str] = &[
    "site-failure",
    "flash-crowd",
    "overload-cascade",
    "ddos-absorb-vs-shed",
];

/// Instances per appendix study at eval scale (as `repro_all`).
const STUDY_INSTANCES: usize = 16;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub enum Work {
    /// A failover or control cell, through `bobw_dist::execute_cell` (or
    /// the coordinator, for `dispatch-quick`).
    Cell(CellSpec),
    /// A Figure 3 (withdrawal) or Figure 4 (propagation) study call.
    Study {
        fig4: bool,
        profile: OriginProfile,
        origins: usize,
    },
    /// An Appendix C.1 divergence report.
    Appc1(&'static str),
    /// An in-simulation unicast DNS failover run.
    Dns(&'static str),
}

impl Work {
    /// Span name: the layer the call enters.
    pub fn span_name(&self) -> &'static str {
        match self {
            Work::Cell(CellSpec::Failover { .. }) => "core.cell",
            Work::Cell(CellSpec::Control { .. }) => "core.control",
            Work::Study { .. } => "bgp.study",
            Work::Appc1(_) => "core.appc1",
            Work::Dns(_) => "core.dns_cell",
        }
    }
}

/// A set of cells sharing one testbed, aggregated together: a `repro_all`
/// stage, or one ⟨scenario, session model⟩ row of the scenario grids.
pub struct Group {
    pub label: String,
    pub testbed: usize,
    /// Which of the run's generated Internets the group runs on.
    pub topology: usize,
    pub works: Range<usize>,
    /// Scenario name and session model, for pairing `+msg` cells with
    /// their abstract twins.
    pub scenario: Option<String>,
    pub session: SessionModel,
}

/// Everything set-up builds from the seed.
pub struct Plan {
    pub workload: Workload,
    pub testbeds: Vec<Testbed>,
    pub groups: Vec<Group>,
    pub works: Vec<Work>,
    /// Group index of every work.
    pub work_group: Vec<usize>,
    pub loopback: Option<Loopback>,
}

/// The result of one timed call.
#[derive(Debug, Clone)]
pub enum Output {
    Cell(CellOutput),
    Study(StudyOutput, Vec<CellPerf>),
    Appc1(DivergenceReport),
    Dns(FailoverResult),
}

impl Output {
    /// The simulator's result, without host-dependent perf counters: the
    /// bytes every correctness check compares.
    pub fn result_json(&self) -> String {
        let json = match self {
            Output::Cell(CellOutput::Failover(r, _)) | Output::Dns(r) => serde_json::to_string(r),
            Output::Cell(CellOutput::Control(r, _)) => serde_json::to_string(r),
            Output::Study(s, _) => serde_json::to_string(s),
            Output::Appc1(r) => serde_json::to_string(r),
        };
        json.expect("simulator results serialize")
    }

    /// Perf counters of the simulations the call ran (none for the calls
    /// that do not report them).
    pub fn perfs(&self) -> Vec<CellPerf> {
        match self {
            Output::Cell(c) => vec![c.perf()],
            Output::Study(_, ps) => ps.clone(),
            Output::Appc1(_) | Output::Dns(_) => Vec::new(),
        }
    }

    pub fn failover(&self) -> Option<&FailoverResult> {
        match self {
            Output::Cell(CellOutput::Failover(r, _)) | Output::Dns(r) => Some(r),
            _ => None,
        }
    }
}

fn new_testbed(cfg: bobw_core::ExperimentConfig, tracer: &mut Tracer) -> Testbed {
    tracer.begin("core.testbed_new", NO_CELL);
    let tb = Testbed::new(cfg);
    tracer.end();
    tb
}

fn site_names(tb: &Testbed) -> Vec<String> {
    tb.cdn.sites().map(|s| tb.cdn.name(s).to_string()).collect()
}

/// `"$site"` fans a scenario over every site, like the paper grid; a
/// concrete site name pins it.
fn scenario_sites(tb: &Testbed, scenario: &bobw_scenario::Scenario) -> Vec<String> {
    if scenario.site == "$site" {
        site_names(tb)
    } else {
        vec![scenario.site.clone()]
    }
}

/// Group labels carry the topology they belong to, except the first's.
fn topology_label(label: &str, topology: usize) -> String {
    if topology == 0 {
        label.to_string()
    } else {
        format!("{label}@t{topology}")
    }
}

fn failover_cells(techniques: &[Technique], sites: &[String]) -> Vec<Work> {
    techniques
        .iter()
        .flat_map(|t| {
            sites.iter().map(move |s| {
                Work::Cell(CellSpec::Failover {
                    technique: t.name(),
                    site: s.clone(),
                })
            })
        })
        .collect()
}

fn five_techniques() -> Vec<Technique> {
    let mut t = Technique::figure2_set();
    t.push(Technique::Combined);
    t
}

/// Topology seeds of a run: the seed itself first (so `paper-eval` at seed
/// 42 includes exactly `repro_all --seed 42`), then seeds derived from it.
/// Averaging over several generated Internets keeps one unusually cheap or
/// costly topology from deciding a run's figures.
pub fn topology_seeds(seed: u64, topologies: usize) -> Vec<u64> {
    (0..topologies as u64)
        .map(|t| seed.wrapping_add(t.wrapping_mul(0x9e37_79b9)))
        .collect()
}

impl Plan {
    fn push_group(
        &mut self,
        label: &str,
        topology: usize,
        works: Vec<Work>,
        scenario: Option<String>,
        session: SessionModel,
    ) {
        let start = self.works.len();
        self.work_group
            .extend(std::iter::repeat_n(self.groups.len(), works.len()));
        self.works.extend(works);
        self.groups.push(Group {
            label: topology_label(label, topology),
            testbed: self.testbeds.len() - 1,
            topology,
            works: start..self.works.len(),
            scenario,
            session,
        });
    }

    /// Builds the workload's inputs from `seed`: testbeds for `topologies`
    /// generated Internets, the scenario files the workload uses (loaded
    /// once from `catalog`), and for `dispatch-quick` the coordinator on
    /// `socket` with its handshaken worker.
    pub fn setup(
        workload: Workload,
        seed: u64,
        topologies: usize,
        catalog: &Path,
        socket: &Path,
        tracer: &mut Tracer,
    ) -> Result<Plan, String> {
        let mut plan = Plan {
            workload,
            testbeds: Vec::new(),
            groups: Vec::new(),
            works: Vec::new(),
            work_group: Vec::new(),
            loopback: None,
        };
        let paths = match workload {
            Workload::PaperEval => Vec::new(),
            Workload::ScenarioQuick | Workload::DispatchQuick => {
                bobw_scenario::catalog_files(catalog)?
            }
            Workload::TrafficEval => LOAD_SCENARIOS
                .iter()
                .map(|name| catalog.join(format!("{name}.json")))
                .collect(),
        };
        let mut scenarios = Vec::with_capacity(paths.len());
        for path in &paths {
            tracer.begin("scenario.load", NO_CELL);
            let loaded = bobw_scenario::load_file(path);
            tracer.end();
            scenarios.push(loaded?);
        }
        if workload != Workload::PaperEval && scenarios.is_empty() {
            return Err(format!("no scenarios in {}", catalog.display()));
        }
        for (t, sub_seed) in topology_seeds(seed, topologies).into_iter().enumerate() {
            plan.add_topology(t, sub_seed, &scenarios, tracer);
        }
        if workload == Workload::DispatchQuick {
            plan.loopback = Some(Loopback::start(socket, tracer)?);
        }
        Ok(plan)
    }

    /// Adds one generated Internet's testbeds and cells.
    fn add_topology(
        &mut self,
        t: usize,
        seed: u64,
        scenarios: &[bobw_scenario::Scenario],
        tracer: &mut Tracer,
    ) {
        let scale = self.workload.scale();
        let abstract_ = SessionModel::Abstract;
        match self.workload {
            Workload::PaperEval => {
                let tb = new_testbed(scale.config(seed), tracer);
                let sites = site_names(&tb);
                self.testbeds.push(tb);
                self.push_group(
                    "fig2",
                    t,
                    failover_cells(&five_techniques(), &sites),
                    None,
                    abstract_,
                );
                let prepending = |prepends| Technique::ProactivePrepending {
                    prepends,
                    selective: false,
                };
                self.push_group(
                    "fig5",
                    t,
                    failover_cells(&[prepending(3), prepending(5)], &sites),
                    None,
                    abstract_,
                );
                let control = sites
                    .iter()
                    .map(|s| {
                        Work::Cell(CellSpec::Control {
                            site: s.clone(),
                            prepends: vec![3, 5],
                        })
                    })
                    .collect();
                self.push_group("table1", t, control, None, abstract_);
                let study = |fig4, profile, origins| Work::Study {
                    fig4,
                    profile,
                    origins,
                };
                self.push_group(
                    "fig3",
                    t,
                    vec![
                        study(false, OriginProfile::Hypergiant, 1),
                        study(false, OriginProfile::PeeringTestbed, 1),
                    ],
                    None,
                    abstract_,
                );
                self.push_group(
                    "fig4",
                    t,
                    vec![
                        study(true, OriginProfile::Hypergiant, 3),
                        study(true, OriginProfile::PeeringTestbed, 1),
                    ],
                    None,
                    abstract_,
                );
                let appc1 = ["sea1", "sea2", "ams", "msn"].map(Work::Appc1).to_vec();
                self.push_group("appc1", t, appc1, None, abstract_);
                let dns = ["bos", "slc", "msn"].map(Work::Dns).to_vec();
                self.push_group("dns", t, dns, None, abstract_);
            }
            Workload::ScenarioQuick | Workload::DispatchQuick => {
                for scenario in scenarios {
                    let mut models = vec![abstract_];
                    if scenario.uses_session_actions() {
                        models.push(SessionModel::MessageLevel);
                    }
                    for model in models {
                        let mut cfg = scale.config(seed);
                        cfg.session_model = model;
                        if scenario.wants_damping() && cfg.timing.flap_damping.is_none() {
                            cfg.timing.flap_damping = Some(bobw_bgp::DampingConfig::default());
                        }
                        cfg.scenario = Some(scenario.clone());
                        let tb = new_testbed(cfg, tracer);
                        let sites = scenario_sites(&tb, scenario);
                        let label = match model {
                            SessionModel::Abstract => scenario.name.clone(),
                            SessionModel::MessageLevel => format!("{}+msg", scenario.name),
                        };
                        self.testbeds.push(tb);
                        self.push_group(
                            &label,
                            t,
                            failover_cells(&five_techniques(), &sites),
                            Some(scenario.name.clone()),
                            model,
                        );
                    }
                }
            }
            Workload::TrafficEval => {
                let techniques = [
                    Technique::Anycast,
                    Technique::ReactiveAnycast,
                    Technique::Combined,
                ];
                for scenario in scenarios {
                    let mut cfg = scale.config(seed);
                    cfg.scenario = Some(scenario.clone());
                    cfg.traffic = Some(TrafficConfig::default());
                    let tb = new_testbed(cfg, tracer);
                    let sites = scenario_sites(&tb, scenario);
                    self.testbeds.push(tb);
                    self.push_group(
                        &scenario.name,
                        t,
                        failover_cells(&techniques, &sites),
                        Some(scenario.name.clone()),
                        abstract_,
                    );
                }
            }
        }
    }

    pub fn testbed_of(&self, work: usize) -> &Testbed {
        &self.testbeds[self.groups[self.work_group[work]].testbed]
    }

    /// Runs one work item in this process.
    pub fn execute(&self, i: usize) -> Result<Output, String> {
        let tb = self.testbed_of(i);
        Ok(match &self.works[i] {
            Work::Cell(spec) => Output::Cell(execute_cell(tb, spec)?),
            Work::Study {
                fig4,
                profile,
                origins,
            } => {
                let (s, p) = if *fig4 {
                    announcement_propagation_instrumented(
                        &tb.cfg,
                        &tb.cfg.timing,
                        *profile,
                        *origins,
                        STUDY_INSTANCES,
                        1,
                    )
                } else {
                    withdrawal_convergence_instrumented(
                        &tb.cfg,
                        &tb.cfg.timing,
                        *profile,
                        STUDY_INSTANCES,
                        1,
                    )
                };
                Output::Study(s, p)
            }
            Work::Appc1(site) => Output::Appc1(compute_appc1(tb, site, 5)),
            Work::Dns(site) => {
                let failed = tb
                    .cdn
                    .by_name(site)
                    .ok_or_else(|| format!("unknown site {site:?}"))?;
                Output::Dns(run_unicast_dns_failover(
                    tb,
                    failed,
                    &DnsClientConfig::default(),
                ))
            }
        })
    }

    /// Cells whose phase-1 key — topology, technique, failed site, session
    /// model, damping on, drain prefixes announced — an earlier cell of the
    /// pass already had. Phase 1 is a pure function of that key, so this is
    /// the work a converge-once cache could skip.
    pub fn phase1_key_repeats(&self) -> u64 {
        let mut seen = HashSet::new();
        let mut repeats = 0;
        for (i, work) in self.works.iter().enumerate() {
            let Work::Cell(CellSpec::Failover { technique, site }) = work else {
                continue;
            };
            let cfg = &self.testbed_of(i).cfg;
            let drain = cfg.scenario.as_ref().is_some_and(|s| {
                s.events
                    .iter()
                    .any(|e| matches!(e.action, bobw_scenario::ScenarioAction::Drain { .. }))
            });
            let key = (
                self.groups[self.work_group[i]].topology,
                technique.clone(),
                site.clone(),
                cfg.session_model == SessionModel::MessageLevel,
                cfg.timing.flap_damping.is_some(),
                drain,
            );
            if !seen.insert(key) {
                repeats += 1;
            }
        }
        repeats
    }

    /// For every message-level cell, the index of the same ⟨scenario,
    /// technique, site⟩ cell under abstract sessions.
    pub fn ml_twins(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for g in &self.groups {
            if g.session != SessionModel::MessageLevel {
                continue;
            }
            let twin = self.groups.iter().find(|t| {
                t.session == SessionModel::Abstract
                    && t.scenario == g.scenario
                    && t.topology == g.topology
            });
            if let Some(t) = twin {
                pairs.extend(g.works.clone().zip(t.works.clone()));
            }
        }
        pairs
    }

    /// Checks one output against what its work asked for. Catches a cell
    /// that answered a different question or broke its own counts.
    pub fn check_output(&self, i: usize, out: &Output) -> Result<(), String> {
        let traffic_on = self.testbed_of(i).cfg.traffic.is_some();
        let check_failover = |r: &FailoverResult, technique: Option<&str>, site: &str| {
            if technique.is_some_and(|t| t != r.technique) || r.site_name != site {
                return Err(format!("result for {}@{}", r.technique, r.site_name));
            }
            if r.outcomes.len() != r.num_controllable
                || r.num_controllable > r.num_selected
                || r.num_selected > r.num_candidates
            {
                return Err("inconsistent target counts".to_string());
            }
            if r.traffic.is_some() != traffic_on {
                return Err("traffic summary present iff traffic is on".to_string());
            }
            Ok(())
        };
        match (&self.works[i], out) {
            (
                Work::Cell(CellSpec::Failover { technique, site }),
                Output::Cell(CellOutput::Failover(r, _)),
            ) => check_failover(r, Some(technique), site),
            (
                Work::Cell(CellSpec::Control { site, prepends }),
                Output::Cell(CellOutput::Control(r, _)),
            ) => {
                let fractions_ok = std::iter::once(r.frac_not_anycast_routed)
                    .chain(r.steered.iter().map(|s| s.1))
                    .all(|f| (0.0..=1.0).contains(&f));
                let prepends_ok = r.steered.iter().map(|s| s.0).eq(prepends.iter().copied());
                if &r.site_name != site || !fractions_ok || !prepends_ok {
                    return Err(format!("bad control result for {site}"));
                }
                Ok(())
            }
            (Work::Study { .. }, Output::Study(s, perfs)) => {
                if s.instances != STUDY_INSTANCES
                    || perfs.len() != STUDY_INSTANCES
                    || s.samples.iter().any(|x| !x.is_finite() || *x < 0.0)
                {
                    return Err(format!("bad study output for {}", s.population));
                }
                Ok(())
            }
            (Work::Appc1(site), Output::Appc1(r)) => {
                if r.site_name != *site || r.to_intended + r.diverged > r.measured_pairs {
                    return Err(format!("bad divergence report for {site}"));
                }
                Ok(())
            }
            (Work::Dns(site), Output::Dns(r)) => check_failover(r, None, site),
            _ => Err("output kind does not match the cell".to_string()),
        }
    }

    /// Aggregates one pass's outputs (indexed like `works`) into the
    /// result files users read, each tagged with its group. The values
    /// are serialized separately so the two steps can be timed apart.
    pub fn aggregate(&self, outputs: &[Output]) -> Result<Vec<Artifact>, String> {
        let group_outputs = |g: &Group| &outputs[g.works.clone()];
        let mut artifacts = Vec::new();
        match self.workload {
            Workload::PaperEval => {
                let topologies = self
                    .groups
                    .iter()
                    .map(|g| g.topology + 1)
                    .max()
                    .unwrap_or(0);
                for t in 0..topologies {
                    self.paper_files(t, outputs, &mut artifacts)?;
                }
            }
            Workload::ScenarioQuick | Workload::DispatchQuick => {
                for (gi, g) in self.groups.iter().enumerate() {
                    artifacts.push(Artifact {
                        group: gi,
                        name: format!("scenario_{}", g.label),
                        value: Box::new(series_by_technique(group_outputs(g))?),
                    });
                }
            }
            Workload::TrafficEval => {
                for (gi, g) in self.groups.iter().enumerate() {
                    let series: Vec<WeightedTechniqueSeries> =
                        group_by_technique(group_outputs(g))?
                            .iter()
                            .map(|(t, rs)| WeightedTechniqueSeries::from_results(t, rs))
                            .collect();
                    artifacts.push(Artifact {
                        group: gi,
                        name: format!("traffic_{}", g.label),
                        value: Box::new(series),
                    });
                }
            }
        }
        Ok(artifacts)
    }

    /// `repro_all`'s result files for topology `t`, named as `repro_all`
    /// names them (suffixed with the topology past the first).
    fn paper_files(
        &self,
        t: usize,
        outputs: &[Output],
        artifacts: &mut Vec<Artifact>,
    ) -> Result<(), String> {
        let by_label = |label: &str| {
            let label = topology_label(label, t);
            self.groups
                .iter()
                .position(|g| g.label == label)
                .expect("paper-eval groups are fixed")
        };
        let group_outputs = |label: &str| &outputs[self.groups[by_label(label)].works.clone()];
        let fig2 = series_by_technique(group_outputs("fig2"))?;
        let fig5 = series_by_technique(group_outputs("fig5"))?;
        let mut t1 = Table1 {
            site_order: site_names(&self.testbeds[self.groups[by_label("fig2")].testbed]),
            rows: Default::default(),
        };
        for out in group_outputs("table1") {
            let Output::Cell(CellOutput::Control(r, _)) = out else {
                return Err("table1 cell without a control result".to_string());
            };
            t1.rows.insert(
                r.site_name.clone(),
                (r.frac_not_anycast_routed, r.steered.clone()),
            );
        }
        let t2 = table2(&fig2, &t1);
        let studies = |label| -> Vec<StudyOutput> {
            group_outputs(label)
                .iter()
                .filter_map(|o| match o {
                    Output::Study(s, _) => Some(s.clone()),
                    _ => None,
                })
                .collect()
        };
        let appc1: Vec<DivergenceReport> = group_outputs("appc1")
            .iter()
            .filter_map(|o| match o {
                Output::Appc1(r) => Some(r.clone()),
                _ => None,
            })
            .collect();
        let mut push = |label: &str, name: &str, value: Box<dyn Serialize>| {
            artifacts.push(Artifact {
                group: by_label(label),
                name: topology_label(name, t),
                value,
            })
        };
        push("fig2", "fig2", Box::new(fig2));
        push("fig5", "fig5", Box::new(fig5));
        push("table1", "table1", Box::new(t1));
        push("table1", "table2", Box::new(t2));
        push("fig3", "fig3", Box::new(studies("fig3")));
        push("fig4", "fig4", Box::new(studies("fig4")));
        push("appc1", "appc1", Box::new(appc1));
        Ok(())
    }
}

/// One aggregated result file of a pass, before serialization.
pub struct Artifact {
    pub group: usize,
    pub name: String,
    pub value: Box<dyn Serialize>,
}

/// Failover results grouped by technique, in first-seen order (the grid
/// order is technique-major, so this is the order `repro_all` uses).
fn group_by_technique(outputs: &[Output]) -> Result<Vec<(Technique, Vec<FailoverResult>)>, String> {
    let mut groups: Vec<(Technique, Vec<FailoverResult>)> = Vec::new();
    for out in outputs {
        let r = out
            .failover()
            .ok_or("grid cell without a failover result")?;
        match groups.iter_mut().find(|(t, _)| t.name() == r.technique) {
            Some((_, rs)) => rs.push(r.clone()),
            None => groups.push((Technique::parse(&r.technique)?, vec![r.clone()])),
        }
    }
    Ok(groups)
}

fn series_by_technique(outputs: &[Output]) -> Result<Vec<TechniqueSeries>, String> {
    Ok(group_by_technique(outputs)?
        .iter()
        .map(|(t, rs)| TechniqueSeries::from_results(t, rs))
        .collect())
}

/// Table 2, derived from Figure 2's medians and Table 1 exactly as
/// `repro_all` derives it.
fn table2(fig2: &[TechniqueSeries], t1: &Table1) -> Vec<bobw_core::TechniqueTradeoff> {
    let median = |name: &str| {
        fig2.iter()
            .find(|s| s.technique == name)
            .map(|s| s.failover_cdf().median().unwrap_or(f64::NAN))
            .unwrap_or(f64::NAN)
    };
    let anycast_median = median("anycast");
    let prepending_control =
        t1.rows.values().map(|(_, s)| s[0].1).sum::<f64>() / t1.rows.len().max(1) as f64;
    let measured = vec![
        MeasuredTechnique {
            technique: Technique::ProactivePrepending {
                prepends: 3,
                selective: false,
            },
            control_fraction: prepending_control,
            failover_median_s: Some(median("proactive-prepending-3")),
        },
        MeasuredTechnique {
            technique: Technique::ReactiveAnycast,
            control_fraction: 1.0,
            failover_median_s: Some(median("reactive-anycast")),
        },
        MeasuredTechnique {
            technique: Technique::ProactiveSuperprefix,
            control_fraction: 1.0,
            failover_median_s: Some(median("proactive-superprefix")),
        },
        MeasuredTechnique {
            technique: Technique::Anycast,
            control_fraction: 0.0,
            failover_median_s: Some(anycast_median),
        },
        MeasuredTechnique {
            technique: Technique::Unicast,
            control_fraction: 1.0,
            failover_median_s: None,
        },
    ];
    derive_tradeoffs(&measured, anycast_median)
}

/// A coordinator on a Unix socket with one in-process worker thread
/// attached, in open auth mode (no secret, whatever the environment says).
pub struct Loopback {
    coordinator: Option<Coordinator>,
    worker: Option<JoinHandle<Result<u64, String>>>,
    path: PathBuf,
}

impl Loopback {
    pub fn start(path: &Path, tracer: &mut Tracer) -> Result<Loopback, String> {
        let ep = Endpoint::parse(&format!("unix://{}", path.display()))?;
        let cfg = CoordinatorConfig {
            secret: None,
            ..CoordinatorConfig::default()
        };
        tracer.begin("dist.bind", NO_CELL);
        let bound = Coordinator::bind(&ep, cfg).map_err(|e| format!("bind {ep}: {e}"));
        tracer.end();
        let mut coordinator = bound?;
        tracer.begin("dist.handshake", NO_CELL);
        let wc = WorkerConfig {
            connect: ep,
            threads: 1,
            name: "perfbench-loopback".to_string(),
            connect_timeout: Duration::from_secs(10),
            secret: None,
        };
        let worker = std::thread::spawn(move || run_worker(&wc));
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut loopback = Loopback {
            coordinator: None,
            worker: Some(worker),
            path: path.to_path_buf(),
        };
        while coordinator.num_workers() < 1 {
            if Instant::now() > deadline
                || loopback.worker.as_ref().is_some_and(|w| w.is_finished())
            {
                tracer.end();
                loopback.coordinator = Some(coordinator);
                let err = loopback.finish().err().unwrap_or_default();
                return Err(format!("loopback worker never handshook {err}"));
            }
            coordinator.pump_events(Duration::from_millis(2));
        }
        tracer.end();
        loopback.coordinator = Some(coordinator);
        Ok(loopback)
    }

    pub fn coordinator(&mut self) -> &mut Coordinator {
        self.coordinator
            .as_mut()
            .expect("coordinator lives until finish")
    }

    /// Shuts the coordinator down and waits for the worker to exit,
    /// returning the number of cells it computed.
    pub fn finish(&mut self) -> Result<u64, String> {
        if let Some(c) = self.coordinator.take() {
            c.shutdown();
        }
        let result = match self.worker.take() {
            Some(w) => w
                .join()
                .map_err(|_| "loopback worker panicked".to_string())?,
            None => Ok(0),
        };
        let _ = std::fs::remove_file(&self.path);
        result
    }
}

impl Drop for Loopback {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loopback worker exits when the run ends: `finish` joins it,
    /// it reports the cells it ran, and the socket file is gone.
    #[test]
    fn loopback_worker_shuts_down_cleanly() {
        let dir = PathBuf::from(format!(".perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("s");
        let mut tracer = Tracer::new(true);
        let mut lb = Loopback::start(&sock, &mut tracer).expect("loopback starts");
        assert_eq!(tracer.count("dist.handshake"), 1);
        let mut cfg = bobw_core::ExperimentConfig::quick(3);
        cfg.targets_per_site = 5;
        cfg.probe.duration = bobw_event::SimDuration::from_secs(30);
        let tb = Testbed::new(cfg.clone());
        let site = site_names(&tb).remove(0);
        let cells = vec![CellSpec::Failover {
            technique: "anycast".to_string(),
            site,
        }];
        let out = lb
            .coordinator()
            .run_batch(&cfg, &cells)
            .expect("batch runs");
        let local = execute_cell(&tb, &cells[0]).unwrap();
        assert_eq!(
            Output::Cell(out[0].clone()).result_json(),
            Output::Cell(local).result_json()
        );
        assert_eq!(lb.finish(), Ok(1));
        assert!(!sock.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
