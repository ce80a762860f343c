//! Criterion benchmarks for the multi-tenant service: full service runs
//! at increasing project counts over one shared annotator pool, in both
//! execution modes.
//!
//! Like `serve.rs` this has a hand-written `main` so it can export the
//! measurements to `BENCH_service.json` at the repository root:
//! aggregate answers/sec and the per-project fairness spread (relative
//! delivered-answer dispersion) as the tenant count grows.

use criterion::{black_box, Criterion};
use crowdrl_core::agent::SelectionAgent;
use crowdrl_core::features::StateSnapshot;
use crowdrl_core::{Ablation, CrowdRlConfig, DecideConfig, DecideMode, DecideStats, Exploration};
use crowdrl_rl::DqnConfig;
use crowdrl_serve::ExecMode;
use crowdrl_service::{ProjectSpec, Service, ServiceConfig, ServiceOutcome};
use crowdrl_sim::{AnnotatorPool, DatasetSpec, PoolSpec};
use crowdrl_types::rng::seeded;
use crowdrl_types::{
    AnnotatorId, AnnotatorKind, AnnotatorProfile, AnswerSet, LabelledSet, ObjectId,
};
use rand::Rng as _;
use std::fmt::Write as _;
use std::path::Path;

/// Tenant counts the scaling sweep measures.
const PROJECT_COUNTS: [usize; 3] = [1, 4, 8];
/// Pool sizes of the `serve.decide` microbench sweep.
const DECIDE_POOLS: [usize; 3] = [500, 2_000, 10_000];
/// Candidate objects per decide call (the serve-loop `candidate_cap`
/// regime at scale).
const DECIDE_OBJECTS: usize = 64;
/// Objects per project — small enough for a criterion sample, large
/// enough that the decision loop dominates setup.
const OBJECTS: usize = 60;
/// Shared pool size (workers + experts).
const WORKERS: usize = 36;
const EXPERTS: usize = 4;

fn fixture(projects: usize) -> (Vec<ProjectSpec>, AnnotatorPool) {
    let mut rng = seeded(21);
    let pool = PoolSpec::new(WORKERS, EXPERTS)
        .generate(2, &mut rng)
        .unwrap();
    let specs = (0..projects)
        .map(|p| {
            let dataset = DatasetSpec::gaussian(format!("bench-{p}"), OBJECTS, 4, 2)
                .with_separation(3.0)
                .generate(&mut rng)
                .unwrap();
            let config = CrowdRlConfig::builder()
                .budget(2.0 * OBJECTS as f64)
                .batch_per_iter(12)
                .candidate_cap(24)
                .build()
                .unwrap();
            ProjectSpec::new(format!("bench-{p}"), config, dataset).with_priority((p % 3) as u32)
        })
        .collect();
    (specs, pool)
}

fn run_service(specs: &[ProjectSpec], pool: &AnnotatorPool, mode: ExecMode) -> ServiceOutcome {
    let config = ServiceConfig::default()
        .with_capacity(specs.len())
        .with_shards(2)
        .with_mode(mode);
    let mut rng = seeded(22);
    Service::new(config)
        .unwrap()
        .run(specs, pool, &mut rng)
        .unwrap()
}

/// Shared inputs for one `serve.decide` microbench call: a large pool in
/// a realistic mid-run state (~10% profiled by the inference engine with
/// distinct estimated qualities and loads, the rest at the prior with
/// zero load — the regime the column-dedup pruning exploits).
struct DecideFixture {
    profiles: Vec<AnnotatorProfile>,
    snapshot: StateSnapshot,
    candidates: Vec<(ObjectId, Vec<f64>)>,
    answers: AnswerSet,
    labelled: LabelledSet,
}

fn decide_fixture(pool: usize) -> DecideFixture {
    let profiles = (0..pool)
        .map(|i| {
            let expert = i % 10 == 9;
            AnnotatorProfile::new(
                AnnotatorId(i),
                if expert {
                    AnnotatorKind::Expert
                } else {
                    AnnotatorKind::Worker
                },
                if expert {
                    8.0
                } else {
                    1.0 + (i % 7) as f64 * 0.3
                },
            )
            .unwrap()
        })
        .collect();
    let mut qrng = seeded(5);
    let profiled = pool / 10;
    let qualities = (0..pool)
        .map(|i| {
            if i < profiled {
                0.3 + 0.65 * qrng.random::<f64>()
            } else {
                0.5
            }
        })
        .collect();
    let loads = (0..pool)
        .map(|i| if i < profiled { 1 + i % 6 } else { 0 })
        .collect();
    let snapshot = StateSnapshot {
        qualities,
        annotator_load: loads,
        budget_spent_fraction: 0.3,
        labelled_fraction: 0.4,
        enriched_fraction: 0.1,
        max_cost: 8.0,
        phi_trust: 0.5,
    };
    let candidates = (0..DECIDE_OBJECTS)
        .map(|i| {
            let p = 0.3 + (i as f64 * 0.011) % 0.45;
            (ObjectId(i), vec![p, 1.0 - p])
        })
        .collect();
    DecideFixture {
        profiles,
        snapshot,
        candidates,
        answers: AnswerSet::new(DECIDE_OBJECTS),
        labelled: LabelledSet::new(DECIDE_OBJECTS),
    }
}

fn decide_agent(mode: DecideMode) -> SelectionAgent {
    let mut rng = seeded(9);
    SelectionAgent::new(
        DqnConfig::default(),
        &Exploration::Ucb { scale: 0.1 },
        DecideConfig { mode },
        None,
        &mut rng,
    )
    .unwrap()
}

/// Benchmark one `select` call per iteration at each pool size, in both
/// modes, and return the pruned twin's stat deltas over the timed
/// iterations (scored fraction and cache hit rate for the report).
fn bench_decide(c: &mut Criterion) -> Vec<(usize, DecideStats)> {
    let mut deltas = Vec::new();
    let mut group = c.benchmark_group("service");
    for &pool in &DECIDE_POOLS {
        let f = decide_fixture(pool);
        for mode in [DecideMode::Exhaustive, DecideMode::Pruned] {
            let mut agent = decide_agent(mode);
            let mut rng = seeded(9);
            // Warm: accrue UCB counts, the steady state of a serve loop
            // between parameter refreshes.
            for _ in 0..3 {
                agent.select(
                    &f.candidates,
                    &f.profiles,
                    None::<&[usize]>,
                    &f.answers,
                    &f.labelled,
                    &f.snapshot,
                    100.0,
                    3,
                    8,
                    Ablation::default(),
                    &mut rng,
                );
            }
            let before = agent.decide_stats();
            let label = match mode {
                DecideMode::Exhaustive => "decide_exhaustive",
                DecideMode::Pruned => "decide_pruned",
            };
            group.bench_function(format!("{label}/{pool}"), |b| {
                b.iter(|| {
                    black_box(agent.select(
                        &f.candidates,
                        &f.profiles,
                        None::<&[usize]>,
                        &f.answers,
                        &f.labelled,
                        &f.snapshot,
                        100.0,
                        3,
                        8,
                        Ablation::default(),
                        &mut rng,
                    ))
                })
            });
            if mode == DecideMode::Pruned {
                deltas.push((pool, agent.decide_stats().delta_since(&before)));
            }
        }
    }
    group.finish();
    deltas
}

/// One measured benchmark, reduced to what the JSON report needs.
struct Measurement {
    id: String,
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
}

fn measurements(c: &Criterion) -> Vec<Measurement> {
    c.results()
        .iter()
        .map(|s| Measurement {
            id: s.id.clone(),
            median_ns: s.median_ns(),
            mean_ns: s.mean_ns(),
            min_ns: s.min_ns(),
        })
        .collect()
}

fn bench_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");
    for &projects in &PROJECT_COUNTS {
        let (specs, pool) = fixture(projects);
        group.bench_function(format!("run_single_thread/{projects}"), |b| {
            b.iter(|| black_box(run_service(&specs, &pool, ExecMode::SingleThread)))
        });
        group.bench_function(format!("run_worker_pool_4/{projects}"), |b| {
            b.iter(|| {
                black_box(run_service(
                    &specs,
                    &pool,
                    ExecMode::WorkerPool { workers: 4 },
                ))
            })
        });
    }
    group.finish();
}

/// Render the report as JSON by hand — the workspace has no serde.
fn render_json(
    found: &[Measurement],
    references: &[(usize, ServiceOutcome)],
    decide: &[(usize, DecideStats)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"service\",\n");
    out.push_str(
        "  \"harness\": \"in-workspace criterion stand-in (wall clock, median of samples)\",\n",
    );
    out.push_str("  \"command\": \"cargo bench -p crowdrl-bench --bench service\",\n");
    let _ = writeln!(
        out,
        "  \"fixture\": {{ \"objects_per_project\": {OBJECTS}, \
         \"pool\": {{ \"workers\": {WORKERS}, \"experts\": {EXPERTS} }} }},"
    );

    out.push_str("  \"scaling\": [\n");
    for (i, &projects) in PROJECT_COUNTS.iter().enumerate() {
        let (_, reference) = references
            .iter()
            .find(|(p, _)| *p == projects)
            .expect("reference outcome");
        let agg = &reference.aggregate;
        let comma = if i + 1 < PROJECT_COUNTS.len() {
            ","
        } else {
            ""
        };
        let mut modes = String::new();
        for (j, label) in ["run_single_thread", "run_worker_pool_4"]
            .iter()
            .enumerate()
        {
            let m = found
                .iter()
                .find(|m| m.id == format!("service/{label}/{projects}"))
                .expect("service measurement");
            let secs = m.median_ns * 1e-9;
            let mode_comma = if j == 0 { "," } else { "" };
            let _ = writeln!(
                modes,
                "        {{ \"name\": \"{label}\", \"median_ms\": {:.2}, \
                 \"min_ms\": {:.2}, \"mean_ms\": {:.2}, \
                 \"answers_per_sec\": {:.0}, \"events_per_sec\": {:.0} }}{mode_comma}",
                m.median_ns * 1e-6,
                m.min_ns * 1e-6,
                m.mean_ns * 1e-6,
                agg.answers_delivered as f64 / secs,
                agg.events_processed as f64 / secs,
            );
        }
        let _ = writeln!(
            out,
            "    {{ \"projects\": {projects}, \"answers_delivered\": {}, \
             \"events_processed\": {}, \"rounds\": {}, \
             \"fairness_spread\": {:.4}, \"modes\": [\n{modes}      ] }}{comma}",
            agg.answers_delivered, agg.events_processed, agg.rounds, agg.fairness_spread,
        );
    }
    out.push_str("  ],\n");

    // The decide microbench: one `agent.select` over DECIDE_OBJECTS
    // candidates, pruned vs exhaustive, at growing pool sizes. Both
    // modes pick bit-identical panels (pinned by tests/decide_equiv.rs);
    // the series reports how much of the annotator dimension the pruned
    // path avoided scoring.
    let _ = writeln!(
        out,
        "  \"decide\": {{\n    \"candidates\": {DECIDE_OBJECTS}, \"slots\": 3, \"batch\": 8,\n    \
         \"pools\": [",
    );
    for (i, &pool) in DECIDE_POOLS.iter().enumerate() {
        let ms_of = |label: &str| {
            found
                .iter()
                .find(|m| m.id == format!("service/{label}/{pool}"))
                .expect("decide measurement")
                .median_ns
                * 1e-6
        };
        let exhaustive_ms = ms_of("decide_exhaustive");
        let pruned_ms = ms_of("decide_pruned");
        let (_, d) = decide
            .iter()
            .find(|(p, _)| *p == pool)
            .expect("decide stats");
        let comma = if i + 1 < DECIDE_POOLS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "      {{ \"pool\": {pool}, \"exhaustive_ms\": {exhaustive_ms:.3}, \
             \"pruned_ms\": {pruned_ms:.3}, \"speedup\": {:.2}, \
             \"scored_fraction\": {:.4} }}{comma}",
            exhaustive_ms / pruned_ms,
            d.scored_pairs as f64 / d.total_pairs as f64,
        );
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

fn main() {
    let mut criterion = Criterion::default().sample_size(10);
    bench_service(&mut criterion);
    let decide_stats = bench_decide(&mut criterion);
    criterion.final_summary();

    // Both execution modes produce the identical merged trace (a tested
    // invariant), so one reference run per project count supplies the
    // answer/event counts and the fairness spread for both mode rows.
    let references: Vec<(usize, ServiceOutcome)> = PROJECT_COUNTS
        .iter()
        .map(|&projects| {
            let (specs, pool) = fixture(projects);
            (projects, run_service(&specs, &pool, ExecMode::SingleThread))
        })
        .collect();

    let json = render_json(&measurements(&criterion), &references, &decide_stats);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(err) => eprintln!("\ncould not write {}: {err}", path.display()),
    }
}
