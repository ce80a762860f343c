//! Integration tests for the multi-tenant service: pinned golden labels
//! for a 3-project shared-pool run, bit-identity between execution
//! modes at several pool widths, admission control, and per-project
//! budget isolation.
//!
//! If a PR *intentionally* changes the numerics, re-capture the golden
//! constants with `GOLDEN_CAPTURE=1 cargo test --test service -- golden`.

use crowdrl::prelude::*;
use crowdrl::types::rng::seeded;

/// Labels rendered one character per object (class digit, `.` for
/// unlabelled) — compact to pin, precise enough to catch a single flip.
fn render(labels: &[Option<ClassId>]) -> String {
    labels
        .iter()
        .map(|l| match l {
            Some(ClassId(c)) => char::from_digit(*c as u32, 10).unwrap_or('?'),
            None => '.',
        })
        .collect()
}

/// Three small projects with different sizes, budgets and priorities,
/// sharing a 12-annotator pool.
fn scenario() -> (Vec<ProjectSpec>, AnnotatorPool) {
    let mut rng = seeded(0xC0FFEE);
    let pool = PoolSpec::new(9, 3).generate(2, &mut rng).unwrap();
    let sizes = [30usize, 24, 36];
    let budgets = [90.0, 72.0, 108.0];
    let specs = (0..3)
        .map(|p| {
            let dataset = DatasetSpec::gaussian(format!("svc{p}"), sizes[p], 4, 2)
                .with_separation(2.5)
                .generate(&mut rng)
                .unwrap();
            let config = CrowdRlConfig::builder().budget(budgets[p]).build().unwrap();
            ProjectSpec::new(format!("project-{p}"), config, dataset).with_priority((3 - p) as u32)
        })
        .collect();
    (specs, pool)
}

fn run(mode: ExecMode) -> ServiceOutcome {
    let (specs, pool) = scenario();
    let config = ServiceConfig::default()
        .with_shards(3)
        .with_mode(mode)
        .with_watermarks(8, 20.0);
    let service = Service::new(config).unwrap();
    let mut rng = seeded(0xBEEF);
    service.run(&specs, &pool, &mut rng).unwrap()
}

const GOLDEN_SERVICE_LABELS: [&str; 3] = [
    "000001000000010100100101000100",
    "101100000100101100000111",
    "111011110011110100111010101001011001",
];
const GOLDEN_SERVICE_SPENT: [f64; 3] = [90.0, 72.0, 108.0];

#[test]
fn three_project_run_reproduces_the_golden_labels() {
    let outcome = run(ExecMode::SingleThread);
    assert_eq!(outcome.reports.len(), 3);
    if std::env::var("GOLDEN_CAPTURE").is_ok() {
        for (p, report) in outcome.reports.iter().enumerate() {
            let o = report.outcome.as_ref().unwrap();
            println!(
                "project {p}: labels {:?} spent {}",
                render(&o.labels),
                o.budget_spent
            );
        }
        return;
    }
    for (p, report) in outcome.reports.iter().enumerate() {
        assert_eq!(report.status, ProjectStatus::Completed, "project {p}");
        let o = report.outcome.as_ref().unwrap();
        assert_eq!(render(&o.labels), GOLDEN_SERVICE_LABELS[p], "project {p}");
        assert!(
            (o.budget_spent - GOLDEN_SERVICE_SPENT[p]).abs() < 1e-9,
            "project {p} spent {}",
            o.budget_spent
        );
    }
}

#[test]
fn worker_pool_is_bit_identical_to_single_thread_at_every_width() {
    let baseline = run(ExecMode::SingleThread);
    for workers in [1usize, 2, 4] {
        let parallel = run(ExecMode::WorkerPool { workers });
        assert_eq!(
            baseline.trace, parallel.trace,
            "trace diverged at width {workers}"
        );
        for (p, (a, b)) in baseline.reports.iter().zip(&parallel.reports).enumerate() {
            assert_eq!(
                a.outcome.as_ref().unwrap().labels,
                b.outcome.as_ref().unwrap().labels,
                "labels diverged for project {p} at width {workers}"
            );
            // Per-project wall time is pinned to zero, so the whole
            // metrics struct must match bit-for-bit.
            assert_eq!(a.metrics, b.metrics, "metrics diverged at width {workers}");
        }
        assert_eq!(
            baseline.aggregate.fairness_spread,
            parallel.aggregate.fairness_spread
        );
        assert_eq!(
            baseline.aggregate.sim_duration,
            parallel.aggregate.sim_duration
        );
    }
}

#[test]
fn admission_rejects_past_capacity_without_moving_money() {
    let (specs, pool) = scenario();
    let config = ServiceConfig::default()
        .with_capacity(2)
        .with_admission(AdmissionPolicy::Reject)
        .with_shards(2);
    let service = Service::new(config).unwrap();
    let mut rng = seeded(0xBEEF);
    let outcome = service.run(&specs, &pool, &mut rng).unwrap();
    assert_eq!(outcome.reports[0].status, ProjectStatus::Completed);
    assert_eq!(outcome.reports[1].status, ProjectStatus::Completed);
    assert_eq!(outcome.reports[2].status, ProjectStatus::Rejected);
    assert!(outcome.reports[2].outcome.is_none());
    assert!(outcome.reports[2].metrics.is_none());
    assert!(!outcome.trace.iter().any(|(p, _)| *p == 2));
    assert_eq!(outcome.aggregate.admitted, 2);
    assert_eq!(outcome.aggregate.rejected, 1);
}

#[test]
fn queued_projects_activate_when_capacity_frees_up() {
    let (specs, pool) = scenario();
    let config = ServiceConfig::default()
        .with_capacity(1)
        .with_admission(AdmissionPolicy::Queue)
        .with_shards(2);
    let service = Service::new(config).unwrap();
    let mut rng = seeded(0xBEEF);
    let outcome = service.run(&specs, &pool, &mut rng).unwrap();
    for (p, report) in outcome.reports.iter().enumerate() {
        assert_eq!(report.status, ProjectStatus::Completed, "project {p}");
        assert!(report.outcome.is_some(), "project {p}");
    }
    // With one slot, later projects start strictly after earlier ones:
    // the first trace event tagged with each project is ordered.
    let first_event = |p: usize| outcome.trace.iter().position(|(q, _)| *q == p).unwrap();
    assert!(first_event(0) < first_event(1));
    assert!(first_event(1) < first_event(2));
}

#[test]
fn budgets_are_isolated_per_project() {
    let outcome = run(ExecMode::SingleThread);
    let budgets = [90.0, 72.0, 108.0];
    let mut total = 0.0;
    for (p, report) in outcome.reports.iter().enumerate() {
        let m = report.metrics.as_ref().unwrap();
        assert!(
            m.budget_spent <= budgets[p] + 1e-9,
            "project {p} overspent: {} > {}",
            m.budget_spent,
            budgets[p]
        );
        total += m.budget_spent;
    }
    assert!((outcome.aggregate.total_spent - total).abs() < 1e-9);
}

/// With an expert-only pool the initial panels can name one (object,
/// annotator) pair twice. Each grant opens as it is granted, so the copy
/// finds the pair claimed and is skipped: the run completes, and no pair
/// is dispatched while an earlier dispatch of it is live (not expired).
#[test]
fn an_expert_only_pool_never_dispatches_a_live_pair_twice() {
    use crowdrl::serve::TraceEvent;
    use std::collections::HashMap;
    for s in 0..20u64 {
        let mut rng = seeded(s);
        let pool = PoolSpec::new(0, 3).generate(2, &mut rng).unwrap();
        let dataset = DatasetSpec::gaussian("experts", 30, 4, 2)
            .generate(&mut rng)
            .unwrap();
        let config = CrowdRlConfig::builder().budget(400.0).build().unwrap();
        let specs = [ProjectSpec::new("experts", config, dataset)];
        let outcome = Service::new(ServiceConfig::default())
            .unwrap()
            .run(&specs, &pool, &mut seeded(s + 100))
            .unwrap_or_else(|e| panic!("seed {s}: {e}"));
        assert_eq!(outcome.reports[0].status, ProjectStatus::Completed);
        let mut live = HashMap::new();
        for (_, event) in &outcome.trace {
            if let TraceEvent::Dispatched {
                id,
                object,
                annotator,
                ..
            } = *event
            {
                let pair = (object, annotator);
                assert!(
                    !live.values().any(|&p| p == pair),
                    "seed {s}: {pair:?} twice"
                );
                live.insert(id, pair);
            } else if let TraceEvent::Expired { id, .. } = *event {
                live.remove(&id);
            }
        }
    }
}
