//! Decide-equivalence battery: the pruned decide path (first-layer rows
//! per distinct annotator feature block + column deduplication + the
//! panel walk's allowance stop) must produce selections, panels, traces
//! and spend **bit-identical** to exhaustive scoring — across pool sizes,
//! execution widths, and under fault injection with quarantine shrinking
//! the live pool mid-run. Pruning is a pure
//! optimization; any divergence here is a correctness bug, never an
//! acceptable approximation.

use crowdrl::core::{DecideConfig, DecideMode};
use crowdrl::prelude::*;
use crowdrl::rl::DqnConfig;
use crowdrl::serve::{AsyncRuntime, QuarantineConfig, TraceEvent};
use crowdrl::sim::{FaultPlan, QualityDrift};
use crowdrl::types::rng::seeded;

/// A labelling problem sized to the pool: bigger pools get fewer objects
/// so the exhaustive reference stays affordable in a debug test run.
fn scenario(pool_size: usize, objects: usize) -> (Dataset, AnnotatorPool) {
    let mut rng = seeded(0xDEC1DE ^ pool_size as u64);
    let dataset = DatasetSpec::gaussian(format!("decide{pool_size}"), objects, 4, 2)
        .with_separation(2.5)
        .generate(&mut rng)
        .unwrap();
    let experts = (pool_size / 10).max(1);
    let pool = PoolSpec::new(pool_size - experts, experts)
        .generate(2, &mut rng)
        .unwrap();
    (dataset, pool)
}

fn config(mode: DecideMode, _shortlist: usize, objects: usize) -> CrowdRlConfig {
    CrowdRlConfig::builder()
        .budget(2.75 * objects as f64)
        .candidate_cap(12)
        // A narrow net keeps the exhaustive reference cheap; the decide
        // path never depends on the architecture.
        .dqn(DqnConfig {
            hidden: vec![32, 16],
            ..DqnConfig::default()
        })
        .decide(DecideConfig { mode })
        .build()
        .unwrap()
}

fn run(
    pool_size: usize,
    objects: usize,
    mode: DecideMode,
    shortlist: usize,
    serve: ServeConfig,
) -> AsyncOutcome {
    let (dataset, pool) = scenario(pool_size, objects);
    let mut rng = seeded(97);
    AsyncRuntime::new(config(mode, shortlist, objects), serve)
        .run(&dataset, &pool, &mut rng)
        .unwrap()
}

/// Everything observable must match, down to the bit: labels, per-object
/// label provenance, spend, answer counts, the per-refresh iteration
/// trace, and the full discrete event trace.
fn assert_identical(a: &AsyncOutcome, b: &AsyncOutcome, what: &str) {
    assert_eq!(a.outcome.labels, b.outcome.labels, "{what}: labels");
    assert_eq!(
        a.outcome.label_states, b.outcome.label_states,
        "{what}: label states"
    );
    assert_eq!(
        a.outcome.budget_spent.to_bits(),
        b.outcome.budget_spent.to_bits(),
        "{what}: budget spent"
    );
    assert_eq!(
        a.outcome.total_answers, b.outcome.total_answers,
        "{what}: answers"
    );
    assert_eq!(
        a.outcome.iterations, b.outcome.iterations,
        "{what}: iterations"
    );
    // IterationStats carries f64s and no PartialEq; its Debug rendering
    // is a round-trippable representation, so string equality is value
    // equality.
    assert_eq!(
        format!("{:?}", a.outcome.trace),
        format!("{:?}", b.outcome.trace),
        "{what}: iteration trace"
    );
    assert_eq!(a.trace, b.trace, "{what}: event trace");
}

#[test]
fn pruned_matches_exhaustive_across_pool_sizes() {
    // Column dedup prunes even at the 100-annotator pool; the larger
    // pools prune most of their columns. (The trailing 16 is an unused
    // leftover argument.)
    for (pool_size, objects) in [(100usize, 30usize), (500, 24), (2_000, 16)] {
        let serve = ServeConfig::default();
        let exhaustive = run(
            pool_size,
            objects,
            DecideMode::Exhaustive,
            16,
            serve.clone(),
        );
        let pruned = run(pool_size, objects, DecideMode::Pruned, 16, serve);
        assert_identical(
            &exhaustive,
            &pruned,
            &format!("pool {pool_size} x {objects} objects"),
        );
        assert!(
            exhaustive.outcome.total_answers > 0,
            "degenerate run: nothing was ever purchased at pool {pool_size}"
        );
    }
}

#[test]
fn pruned_matches_exhaustive_across_exec_widths() {
    let (pool_size, objects) = (500usize, 24usize);
    let reference = run(
        pool_size,
        objects,
        DecideMode::Exhaustive,
        16,
        ServeConfig::default(),
    );
    for width in [1usize, 2, 4] {
        let mode = if width == 1 {
            ExecMode::SingleThread
        } else {
            ExecMode::WorkerPool { workers: width }
        };
        let pruned = run(
            pool_size,
            objects,
            DecideMode::Pruned,
            16,
            ServeConfig::default().with_mode(mode),
        );
        assert_identical(&reference, &pruned, &format!("width {width}"));
    }
}

#[test]
fn pruned_matches_exhaustive_under_faults_and_quarantine() {
    // Two workers drift into spammers immediately; the breaker trips
    // mid-run, shrinking the selectable pool and moving the drifted
    // annotators' feature blocks. Stochastic faults jitter
    // the answer stream on top. The pool is small enough that the
    // drifted annotators actually accrue `min_answers` and trip.
    let faulted = || {
        ServeConfig::default()
            .with_faults(FaultPlan {
                no_show_rate: 0.05,
                straggler_rate: 0.08,
                drifts: vec![
                    QualityDrift {
                        annotator: AnnotatorId(0),
                        at: 0.0,
                    },
                    QualityDrift {
                        annotator: AnnotatorId(7),
                        at: 0.0,
                    },
                ],
                ..FaultPlan::default()
            })
            .with_quarantine(QuarantineConfig {
                enabled: true,
                min_answers: 4,
                ..QuarantineConfig::default()
            })
    };
    let (pool_size, objects) = (16usize, 40usize);
    // A 16-strong pool: pruning stays engaged even as quarantine
    // shrinks the live pool.
    let exhaustive = run(pool_size, objects, DecideMode::Exhaustive, 6, faulted());
    let pruned = run(pool_size, objects, DecideMode::Pruned, 6, faulted());
    assert_identical(&exhaustive, &pruned, "faulted + quarantined");
    // The scenario must actually exercise quarantine: at least one
    // breaker has to trip while panels are still being cut.
    assert!(
        pruned
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Quarantined { .. })),
        "no annotator was quarantined; the invalidation path went untested"
    );
}

#[test]
fn tiny_shortlist_and_tiny_pool_degrade_gracefully() {
    // A tiny 12-strong pool: the pruned path must still match.
    let serve = ServeConfig::default();
    let exhaustive = run(12, 20, DecideMode::Exhaustive, 1, serve.clone());
    let pruned = run(12, 20, DecideMode::Pruned, 1, serve);
    assert_identical(&exhaustive, &pruned, "pool 12, shortlist 1");
}
