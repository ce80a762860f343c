//! The four workloads: inputs made from the seed, set-up through the
//! public entry points, one timed unit, and the correctness check.
//!
//! Every workload is a batch job: one labelling campaign submitted at t=0
//! and timed until every label is back. All of them run
//! `NumericMode::Reference`, so two repetitions must agree bit for bit.

use crate::fold::{DECODE_SPAN, ENCODE_SPAN};
use crowdrl::linalg::pool as tpool;
use crowdrl::obs;
use crowdrl::prelude::*;
use crowdrl::serve::{
    AsyncRuntime, QuarantineConfig, RunCheckpoint, RunControl, RunOutcome, SupervisorConfig,
};
use crowdrl::sim::{FaultPlan, OutageWindow, QualityDrift};
use crowdrl::types::rng::{derive_seed, seeded};
use std::fmt::{Debug, Write as _};
use std::hint::black_box;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `CrowdRl::run`: the paper's synchronous select → assign → infer
    /// loop at Speech12 cardinality on one linalg thread.
    PaperBatch,
    /// `Service::run`: 64 small tenants, capacity 32 (FIFO promotion),
    /// a 40-annotator pool.
    TenantsMany,
    /// `Service::run`: 4 tenants on a 4000-annotator pool, one thread.
    PoolWide,
    /// `AsyncRuntime::run_with_checkpoints` under injected faults, killed
    /// at the middle checkpoint, decoded and resumed.
    ServeChaos,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "paper_batch" => Workload::PaperBatch,
            "tenants_many" => Workload::TenantsMany,
            "pool_wide" => Workload::PoolWide,
            "serve_chaos" => Workload::ServeChaos,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperBatch => "paper_batch",
            Workload::TenantsMany => "tenants_many",
            Workload::PoolWide => "pool_wide",
            Workload::ServeChaos => "serve_chaos",
        }
    }

    /// Independent campaigns in one run. How long one campaign takes
    /// depends on its inputs, so a run times several and reports their
    /// mean; that keeps figures from different seeds comparable.
    pub fn campaigns(self) -> usize {
        match self {
            Workload::PaperBatch => 8,
            Workload::TenantsMany => 6,
            Workload::PoolWide => 8,
            Workload::ServeChaos => 1,
        }
    }
}

pub const NUMERIC: NumericMode = NumericMode::Reference;

/// Every workload computes on one thread. On a 2-vCPU host with steal
/// time, the ten-seed spread of a two-thread `tenants_many` swung from 10 %
/// in quiet periods to 43 % in busy ones, and a single thread stayed steady.
pub const EXEC_MODE: ExecMode = ExecMode::SingleThread;

const CHAOS_OBJECTS: usize = 1000;
const CHAOS_BUDGET: f64 = 2.5 * CHAOS_OBJECTS as f64;

/// One labelling campaign: everything the program is given for one timed
/// unit, generated from the campaign's seed.
pub struct Campaign {
    pub workload: Workload,
    pub seed: u64,
    pub datasets: Vec<Dataset>,
    pub pool: AnnotatorPool,
}

/// A run's inputs: `workload.campaigns()` independent campaigns, each from
/// its own seed derived from the run's `seed`.
pub fn generate(workload: Workload, seed: u64) -> Result<Vec<Campaign>, String> {
    (0..workload.campaigns())
        .map(|k| campaign(workload, derive_seed(seed, k as u64)))
        .collect()
}

fn campaign(workload: Workload, seed: u64) -> Result<Campaign, String> {
    let mut rng = seeded(derive_seed(seed, 1));
    let gen = |spec: DatasetSpec, rng: &mut _| spec.generate(rng).map_err(|e| e.to_string());
    let gaussian =
        |name: String, n, dim, sep| DatasetSpec::gaussian(name, n, dim, 2).with_separation(sep);
    let (datasets, workers, experts) = match workload {
        Workload::PaperBatch => {
            let spec = gaussian("paper-batch".into(), 2344, 6, 2.0).with_label_noise(0.03);
            (vec![gen(spec, &mut rng)?], 3, 1)
        }
        Workload::TenantsMany => {
            let sets = (0..64)
                .map(|p| gen(gaussian(format!("tenant-{p}"), 60, 4, 3.0), &mut rng))
                .collect::<Result<_, _>>()?;
            (sets, 36, 4)
        }
        Workload::PoolWide => {
            let sets = (0..4)
                .map(|p| gen(gaussian(format!("wide-{p}"), 500, 4, 3.0), &mut rng))
                .collect::<Result<_, _>>()?;
            (sets, 3600, 400)
        }
        Workload::ServeChaos => {
            let spec = gaussian("chaos".into(), CHAOS_OBJECTS, 4, 2.5);
            (vec![gen(spec, &mut rng)?], 16, 4)
        }
    };
    let pool = PoolSpec::new(workers, experts)
        .generate(2, &mut rng)
        .map_err(|e| e.to_string())?;
    Ok(Campaign {
        workload,
        seed,
        datasets,
        pool,
    })
}

/// A configured and validated entry point, ready to run.
pub enum Runner {
    Batch(Box<CrowdRl>),
    Service {
        service: Box<Service>,
        specs: Vec<ProjectSpec>,
    },
    Chaos {
        runtime: Box<AsyncRuntime>,
        budget: f64,
        /// Checkpoint (1-based) at which the timed unit kills the run;
        /// `None` runs it uninterrupted, as the reference does.
        kill_at: Option<usize>,
    },
}

fn config(builder: crowdrl::core::CrowdRlConfigBuilder) -> Result<CrowdRlConfig, String> {
    builder.numeric(NUMERIC).build().map_err(|e| e.to_string())
}

/// Process-wide initialisation, part of the first, cold set-up only: pin
/// the linalg pool to one thread and run the program's lazy SIMD detection.
pub fn init_process() {
    tpool::set_threads(1);
    black_box(crowdrl::linalg::simd::simd_available());
}

/// Build and validate every config and construct the entry point. This is
/// what `setup_s` times; generating the inputs is not part of it.
pub fn setup(inputs: &Campaign) -> Result<Runner, String> {
    Ok(match inputs.workload {
        Workload::PaperBatch => Runner::Batch(Box::new(CrowdRl::new(config(
            CrowdRlConfig::builder().budget(3000.0),
        )?))),
        Workload::TenantsMany | Workload::PoolWide => {
            let tenants = inputs.workload == Workload::TenantsMany;
            let specs = inputs
                .datasets
                .iter()
                .enumerate()
                .map(|(p, d)| {
                    let c = config(
                        CrowdRlConfig::builder()
                            .budget(2.0 * d.len() as f64)
                            .batch_per_iter(12)
                            .candidate_cap(24),
                    )?;
                    Ok(ProjectSpec::new(d.name().to_owned(), c, d.clone())
                        .with_priority((p % 3) as u32))
                })
                .collect::<Result<Vec<_>, String>>()?;
            let mut sc = ServiceConfig::default()
                .with_capacity(if tenants { 32 } else { specs.len() })
                .with_admission(AdmissionPolicy::Queue)
                .with_shards(2)
                .with_mode(EXEC_MODE);
            sc.sampling_seed = derive_seed(inputs.seed, 2);
            let service = Box::new(Service::new(sc).map_err(|e| e.to_string())?);
            Runner::Service { service, specs }
        }
        Workload::ServeChaos => {
            let c = config(CrowdRlConfig::builder().budget(CHAOS_BUDGET))?;
            let mut serve = ServeConfig::default()
                .with_faults(FaultPlan {
                    seed: derive_seed(inputs.seed, 3),
                    no_show_rate: 0.05,
                    straggler_rate: 0.10,
                    duplicate_rate: 0.10,
                    outages: vec![OutageWindow {
                        start: 120.0,
                        end: 140.0,
                    }],
                    drifts: vec![QualityDrift {
                        annotator: AnnotatorId(0),
                        at: 0.0,
                    }],
                    ..FaultPlan::default()
                })
                .with_supervisor(SupervisorConfig {
                    backoff_base: 4.0,
                    ..SupervisorConfig::default()
                })
                .with_quarantine(QuarantineConfig {
                    enabled: true,
                    min_answers: 6,
                    ..QuarantineConfig::default()
                })
                .with_checkpoint_every(4);
            serve.sampling_seed = derive_seed(inputs.seed, 2);
            serve.validate().map_err(|e| e.to_string())?;
            Runner::Chaos {
                runtime: Box::new(AsyncRuntime::new(c, serve)),
                budget: CHAOS_BUDGET,
                kill_at: None,
            }
        }
    })
}

/// One project's result from one repetition.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectResult {
    /// The project completed (not failed, rejected or missing).
    pub completed: bool,
    pub labels: Vec<Option<ClassId>>,
    pub spent: f64,
    pub budget: f64,
}

impl ProjectResult {
    /// Completed within its budget (a NaN spend is not within it).
    fn sound(&self) -> bool {
        self.completed && self.spent <= self.budget
    }
}

/// What one repetition produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    pub projects: Vec<ProjectResult>,
    /// FNV-1a hash of the program's merged event / iteration trace.
    pub trace_hash: u64,
    /// Answers charged in the campaign.
    pub answers: u64,
    /// Checkpoints encoded within the timed unit (`serve_chaos` only).
    pub checkpoints: usize,
    pub checkpoint_bytes: u64,
}

/// Run one repetition: the timed unit and the wall time it took.
pub fn run(runner: &Runner, inputs: &Campaign) -> Result<(Output, Duration), String> {
    let mut rng = seeded(derive_seed(inputs.seed, 4));
    let err = |e: crowdrl::types::Error| e.to_string();
    match runner {
        Runner::Batch(crowdrl) => {
            let dataset = &inputs.datasets[0];
            let t0 = Instant::now();
            let outcome = crowdrl.run(dataset, &inputs.pool, &mut rng).map_err(err)?;
            let wall = t0.elapsed();
            let project = ProjectResult {
                completed: true,
                labels: outcome.labels.clone(),
                spent: outcome.budget_spent,
                budget: crowdrl.config().budget,
            };
            let out = Output {
                projects: vec![project],
                trace_hash: hash_debug(&outcome.trace),
                answers: outcome.total_answers as u64,
                checkpoints: 0,
                checkpoint_bytes: 0,
            };
            Ok((out, wall))
        }
        Runner::Service { service, specs } => {
            let t0 = Instant::now();
            let outcome = service.run(specs, &inputs.pool, &mut rng).map_err(err)?;
            let wall = t0.elapsed();
            let projects = specs
                .iter()
                .zip(&outcome.reports)
                .map(|(spec, r)| {
                    let done = r
                        .outcome
                        .as_ref()
                        .filter(|_| r.status == ProjectStatus::Completed);
                    ProjectResult {
                        completed: done.is_some(),
                        labels: done.map(|o| o.labels.clone()).unwrap_or_default(),
                        spent: done.map_or(0.0, |o| o.budget_spent),
                        budget: spec.config.budget,
                    }
                })
                .collect();
            let out = Output {
                projects,
                trace_hash: hash_debug(&outcome.trace),
                answers: outcome.aggregate.answers_delivered as u64,
                checkpoints: 0,
                checkpoint_bytes: 0,
            };
            Ok((out, wall))
        }
        Runner::Chaos {
            runtime,
            budget,
            kill_at,
        } => {
            let dataset = &inputs.datasets[0];
            let mut log = CheckpointLog {
                kill_at: *kill_at,
                ..CheckpointLog::default()
            };
            let t0 = Instant::now();
            let first = runtime
                .run_with_checkpoints(dataset, &inputs.pool, &mut rng, &mut |c| {
                    log.encode(c, true)
                })
                .map_err(err)?;
            let done = match first {
                RunOutcome::Completed(outcome) => *outcome,
                RunOutcome::Halted => {
                    let text = log.snapshot.take().ok_or("halted without a snapshot")?;
                    let ckpt = {
                        let _span = obs::span(DECODE_SPAN);
                        RunCheckpoint::decode(&text).map_err(err)?
                    };
                    let mut rng = seeded(derive_seed(inputs.seed, 4));
                    match runtime
                        .resume(dataset, &inputs.pool, &mut rng, ckpt, &mut |c| {
                            log.encode(c, false)
                        })
                        .map_err(err)?
                    {
                        RunOutcome::Completed(outcome) => *outcome,
                        RunOutcome::Halted => return Err("resumed run halted".into()),
                    }
                }
            };
            let wall = t0.elapsed();
            let project = ProjectResult {
                completed: true,
                labels: done.outcome.labels.clone(),
                spent: done.outcome.budget_spent,
                budget: *budget,
            };
            let out = Output {
                projects: vec![project],
                trace_hash: hash_debug(&done.trace),
                answers: done.outcome.total_answers as u64,
                checkpoints: log.count,
                checkpoint_bytes: log.bytes,
            };
            Ok((out, wall))
        }
    }
}

/// The benchmark's checkpoint sink: encodes every checkpoint to memory
/// and, on the first run, halts at the armed one and keeps its bytes.
#[derive(Default)]
struct CheckpointLog {
    kill_at: Option<usize>,
    count: usize,
    bytes: u64,
    snapshot: Option<String>,
}

impl CheckpointLog {
    fn encode(&mut self, ckpt: RunCheckpoint, may_halt: bool) -> RunControl {
        let text = {
            let _span = obs::span(ENCODE_SPAN);
            ckpt.encode()
        };
        self.count += 1;
        self.bytes += text.len() as u64;
        if may_halt && Some(self.count) == self.kill_at {
            self.snapshot = Some(text);
            RunControl::Halt
        } else {
            RunControl::Continue
        }
    }
}

impl Runner {
    /// After the uninterrupted reference run: kill every later run at its
    /// middle checkpoint, so each timed unit contains a decode and resume.
    /// Returns whether that changed the timed unit.
    pub fn arm_kill(&mut self, reference: &Output) -> bool {
        match self {
            Runner::Chaos { kill_at, .. } => {
                *kill_at = Some(reference.checkpoints.div_ceil(2).max(1));
                true
            }
            _ => false,
        }
    }
}

/// Projects of `out` that fail on their own: not completed, or spent more
/// than their budget.
pub fn failures_alone(out: &Output) -> usize {
    out.projects.iter().filter(|p| !p.sound()).count()
}

/// Projects of a repetition that fail against the reference (the first
/// repetition): everything `failures_alone` counts, plus labels or spend
/// that differ in any bit. A differing trace hash or answer count cannot be
/// pinned on one project, so it fails them all.
pub fn failures(reference: &Output, out: &Output) -> usize {
    if out.trace_hash != reference.trace_hash
        || out.answers != reference.answers
        || out.projects.len() != reference.projects.len()
    {
        return out.projects.len().max(1);
    }
    out.projects
        .iter()
        .zip(&reference.projects)
        .filter(|(p, r)| {
            !p.sound() || p.labels != r.labels || p.spent.to_bits() != r.spent.to_bits()
        })
        .count()
}

/// Share of all objects of completed projects whose final label is the
/// ground truth.
pub fn accuracy(out: &Output, inputs: &Campaign) -> f64 {
    let (mut right, mut total) = (0usize, 0usize);
    for (p, d) in out.projects.iter().zip(&inputs.datasets) {
        if !p.completed {
            continue;
        }
        total += d.len();
        right += p
            .labels
            .iter()
            .enumerate()
            .filter(|(i, l)| **l == Some(d.truth(*i)))
            .count();
    }
    if total == 0 {
        0.0
    } else {
        right as f64 / total as f64
    }
}

/// FNV-1a over a value's `Debug` rendering, streamed without building the
/// string. `f64` renders as its shortest round-trip form, so equal hashes
/// mean bit-equal floats.
pub fn hash_debug<T: Debug + ?Sized>(value: &T) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output(labels: Vec<Option<ClassId>>) -> Output {
        Output {
            projects: vec![
                ProjectResult {
                    completed: true,
                    labels,
                    spent: 10.0,
                    budget: 12.0,
                },
                ProjectResult {
                    completed: true,
                    labels: vec![Some(ClassId(0))],
                    spent: 3.5,
                    budget: 4.0,
                },
            ],
            trace_hash: 7,
            answers: 40,
            checkpoints: 0,
            checkpoint_bytes: 0,
        }
    }

    #[test]
    fn identical_repetition_passes() {
        let a = output(vec![Some(ClassId(1)), None, Some(ClassId(0))]);
        assert_eq!(failures_alone(&a), 0);
        assert_eq!(failures(&a, &a.clone()), 0);
    }

    #[test]
    fn altered_label_vector_trips_the_check() {
        let reference = output(vec![Some(ClassId(1)), None, Some(ClassId(0))]);
        let altered = output(vec![Some(ClassId(1)), Some(ClassId(0)), Some(ClassId(0))]);
        assert_eq!(failures_alone(&altered), 0);
        assert_eq!(failures(&reference, &altered), 1);
    }

    #[test]
    fn spend_drift_overspend_and_trace_changes_trip_the_check() {
        let reference = output(vec![Some(ClassId(1))]);

        let mut drift = reference.clone();
        drift.projects[1].spent = f64::from_bits(3.5f64.to_bits() + 1);
        assert_eq!(failures(&reference, &drift), 1);

        let mut over = reference.clone();
        over.projects[0].spent = 12.5;
        assert_eq!(failures_alone(&over), 1);

        let mut unfinished = reference.clone();
        unfinished.projects[0].completed = false;
        assert_eq!(failures_alone(&unfinished), 1);

        let mut retraced = reference.clone();
        retraced.trace_hash = 8;
        assert_eq!(failures(&reference, &retraced), 2);
    }

    #[test]
    fn debug_hash_separates_float_bits() {
        assert_eq!(hash_debug(&[1.0f64, 2.0]), hash_debug(&[1.0f64, 2.0]));
        assert_ne!(hash_debug(&0.1f64), hash_debug(&(0.1f64 + f64::EPSILON)));
    }
}
