//! Multi-tenant service demo: many concurrent labelling projects over
//! one shared annotator pool, in one process.
//!
//! Defaults to 20 projects × 2 500 objects each (50 000 objects total)
//! against a shared pool of 2 000 simulated annotators. The whole
//! service runs twice — single-threaded and on the worker pool — and
//! asserts the two runs are bit-identical (same merged trace, same
//! labels, same per-project metrics).
//!
//! ```sh
//! cargo run --release --example service_demo
//! # smaller/bigger:
//! SERVICE_DEMO_PROJECTS=4 SERVICE_DEMO_OBJECTS=300 SERVICE_DEMO_ANNOTATORS=60 \
//!     cargo run --release --example service_demo
//! # force a decide-path mode (selections are bit-identical either way):
//! SERVICE_DEMO_DECIDE=exhaustive cargo run --release --example service_demo
//! ```

use crowdrl::core::{DecideConfig, DecideMode, InferenceModel};
use crowdrl::prelude::*;
use crowdrl::types::rng::seeded;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// `SERVICE_DEMO_DECIDE=pruned|exhaustive` (default: the library default,
/// pruned), set on every project's config. The ci smoke gate runs the
/// demo once per mode and diffs the output — the decide path must never
/// change a selection.
fn env_decide() -> DecideConfig {
    let mode = match std::env::var("SERVICE_DEMO_DECIDE").as_deref() {
        Ok("exhaustive") => DecideMode::Exhaustive,
        Ok("pruned") | Err(_) => DecideMode::Pruned,
        Ok(other) => panic!("SERVICE_DEMO_DECIDE must be pruned|exhaustive, got {other:?}"),
    };
    DecideConfig { mode }
}

fn accuracy(labels: &[Option<ClassId>], dataset: &Dataset) -> f64 {
    labels
        .iter()
        .enumerate()
        .filter(|(i, l)| **l == Some(dataset.truth(*i)))
        .count() as f64
        / dataset.len() as f64
}

fn build_specs(projects: usize, objects: usize) -> Vec<ProjectSpec> {
    let mut rng = seeded(0x5EED_0001);
    (0..projects)
        .map(|p| {
            let dataset = DatasetSpec::gaussian(format!("tenant-{p}"), objects, 4, 2)
                .with_separation(3.0)
                .generate(&mut rng)
                .expect("dataset");
            // Cheap per-project knobs: Dawid–Skene inference and a large
            // dispatch batch keep each refresh inexpensive at this scale.
            let config = CrowdRlConfig::builder()
                .budget(1.15 * objects as f64)
                .initial_ratio(0.02)
                .batch_per_iter((objects / 10).max(8))
                .candidate_cap(32)
                .assignment_k(1)
                .inference(InferenceModel::DawidSkene)
                .decide(env_decide())
                .build()
                .expect("config");
            ProjectSpec::new(format!("tenant-{p}"), config, dataset).with_priority((p % 3) as u32)
        })
        .collect()
}

fn run(
    specs: &[ProjectSpec],
    pool: &AnnotatorPool,
    mode: ExecMode,
    batch: usize,
) -> ServiceOutcome {
    let mut config = ServiceConfig::default()
        .with_capacity(specs.len())
        .with_shards(4)
        .with_watermarks((batch / 2).max(1), 90.0)
        .with_mode(mode);
    // Batch nearby events generously: the decision cadence is set by the
    // watermarks above, so a wide scheduling epoch just cuts round count.
    config.epoch = 10.0;
    let service = Service::new(config).expect("service config");
    let mut rng = seeded(0x5EED_0002);
    service.run(specs, pool, &mut rng).expect("service run")
}

fn main() {
    let projects = env_usize("SERVICE_DEMO_PROJECTS", 20);
    let objects = env_usize("SERVICE_DEMO_OBJECTS", 2_500);
    let annotators = env_usize("SERVICE_DEMO_ANNOTATORS", 2_000);
    let width = env_usize("SERVICE_DEMO_WIDTH", 4);
    let experts = (annotators / 10).max(1);
    let workers = annotators - experts;
    let batch = (objects / 10).max(8);

    println!(
        "service demo: {projects} projects x {objects} objects = {} objects total, \
         shared pool of {annotators} annotators ({workers} workers + {experts} experts)",
        projects * objects
    );

    let mut rng = seeded(0x5EED_0003);
    let pool = PoolSpec::new(workers, experts)
        .generate(2, &mut rng)
        .expect("pool");
    let specs = build_specs(projects, objects);

    let t0 = Instant::now();
    let single = run(&specs, &pool, ExecMode::SingleThread, batch);
    let single_wall = t0.elapsed().as_secs_f64();
    println!(
        "\nsingle-thread: {} rounds, sim time {}, wall {:.1}s",
        single.aggregate.rounds, single.aggregate.sim_duration, single_wall
    );

    let t1 = Instant::now();
    let pooled = run(
        &specs,
        &pool,
        ExecMode::WorkerPool { workers: width },
        batch,
    );
    let pooled_wall = t1.elapsed().as_secs_f64();
    println!(
        "worker-pool({width}): {} rounds, sim time {}, wall {:.1}s ({:.2}x)",
        pooled.aggregate.rounds,
        pooled.aggregate.sim_duration,
        pooled_wall,
        single_wall / pooled_wall.max(1e-9)
    );

    // Bit-identity between execution modes — not statistically close,
    // *identical*: same merged trace, same labels, same metrics.
    assert_eq!(
        single.trace, pooled.trace,
        "merged service traces diverged between exec modes"
    );
    for (p, (a, b)) in single.reports.iter().zip(&pooled.reports).enumerate() {
        assert_eq!(
            a.outcome.as_ref().map(|o| &o.labels),
            b.outcome.as_ref().map(|o| &o.labels),
            "labels diverged for project {p}"
        );
        assert_eq!(a.metrics, b.metrics, "metrics diverged for project {p}");
    }
    println!("bit-identity: single-thread == worker-pool({width}) \u{2713}");

    println!(
        "\n{:<12} {:>6} {:>9} {:>9} {:>9} {:>8}",
        "project", "prio", "accuracy", "answers", "spent", "timeouts"
    );
    for (spec, report) in specs.iter().zip(&single.reports) {
        let (acc, answers, spent, timeouts) = match (&report.outcome, &report.metrics) {
            (Some(o), Some(m)) => (
                accuracy(&o.labels, &spec.dataset),
                m.answers_delivered,
                m.budget_spent,
                m.timeouts,
            ),
            _ => (0.0, 0, 0.0, 0),
        };
        println!(
            "{:<12} {:>6} {:>9.3} {:>9} {:>9.1} {:>8}",
            report.name, spec.priority, acc, answers, spent, timeouts
        );
    }
    println!("\n{}", single.aggregate);
}
