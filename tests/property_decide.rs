//! Property-based staleness hunt for the decide-path pruning engine:
//! twin agents — one pruned (first-layer rows per distinct annotator
//! feature block + column deduplication), one exhaustive — are driven
//! through arbitrary interleavings of profile updates (quality/load
//! drift), quarantine and release, slot exhaustion, answer arrival, and
//! online training. After **every** mutation both agents select from
//! identical inputs and identically-seeded RNGs; any stale row or
//! unsound pruning shows up as a divergent panel or RNG stream.

use std::collections::HashMap;

use crowdrl::core::agent::SelectionAgent;
use crowdrl::core::features::{StateSnapshot, FEATURE_DIM};
use crowdrl::core::{Ablation, DecideConfig, DecideMode, Exploration};
use crowdrl::prelude::*;
use crowdrl::rl::DqnConfig;
use crowdrl::types::rng::seeded;
use proptest::prelude::*;

const POOL: usize = 24;
const OBJECTS: usize = 8;
const CLASSES: usize = 2;

fn dqn_config() -> DqnConfig {
    DqnConfig {
        hidden: vec![16, 8],
        // Tiny replay gate so the training op actually steps the
        // parameters between selections.
        min_replay: 4,
        batch_size: 4,
        ..DqnConfig::default()
    }
}

fn twin(seed: u64, mode: DecideMode) -> SelectionAgent {
    let mut rng = seeded(seed);
    SelectionAgent::new(
        dqn_config(),
        &Exploration::Ucb { scale: 0.1 },
        DecideConfig { mode },
        None,
        &mut rng,
    )
    .unwrap()
}

/// The mutable world both agents observe: everything a serve loop would
/// change between refreshes.
struct World {
    profiles: Vec<AnnotatorProfile>,
    quarantined: Vec<bool>,
    slots: HashMap<AnnotatorId, usize>,
    answers: AnswerSet,
    qualities: Vec<f64>,
    loads: Vec<usize>,
}

impl World {
    fn new() -> Self {
        let profiles = (0..POOL)
            .map(|i| {
                let expert = i >= POOL - 2;
                AnnotatorProfile::new(
                    AnnotatorId(i),
                    if expert {
                        AnnotatorKind::Expert
                    } else {
                        AnnotatorKind::Worker
                    },
                    if expert { 8.0 } else { 1.0 },
                )
                .unwrap()
            })
            .collect();
        Self {
            profiles,
            quarantined: vec![false; POOL],
            slots: HashMap::new(),
            answers: AnswerSet::new(OBJECTS),
            // A few quality tiers, like a pool where the inference
            // engine has profiled some annotators and left the rest at
            // the prior: enough sharing that column dedup engages (a
            // fully-distinct pool makes the grid decline to dense — also
            // correct, but then this property would be vacuous), while
            // the mutation ops diversify it over the run.
            qualities: (0..POOL).map(|i| 0.45 + 0.1 * (i % 3) as f64).collect(),
            loads: vec![0; POOL],
        }
    }

    /// The live pool a serve loop would hand to `select` (quarantined
    /// annotators filtered out, like `core_loop::decide`).
    fn live(&self) -> Vec<AnnotatorProfile> {
        self.profiles
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.quarantined[*i])
            .map(|(_, p)| p.clone())
            .collect()
    }

    fn snapshot(&self, step: usize) -> StateSnapshot {
        StateSnapshot {
            qualities: self.qualities.clone(),
            annotator_load: self.loads.clone(),
            budget_spent_fraction: (step as f64 * 0.03).min(0.9),
            labelled_fraction: (step as f64 * 0.02).min(0.8),
            enriched_fraction: 0.0,
            max_cost: 8.0,
            phi_trust: 0.0,
        }
    }
}

/// One mutation drawn from the op stream. `target`/`value` are raw
/// entropy; each op maps them into its own domain.
fn apply(world: &mut World, op: u8, target: usize, value: u16) {
    let j = target % POOL;
    match op % 6 {
        // Profile update: inferred quality drifts — j's feature block
        // changes bits and must get its own first-layer row.
        0 => world.qualities[j] = 0.05 + (value % 90) as f64 / 100.0,
        // Profile update: load changes (also part of the feature block).
        1 => world.loads[j] = (value % 8) as usize,
        // Quarantine: j leaves the live pool.
        2 => world.quarantined[j] = true,
        // Release from quarantine: j re-enters with whatever profile it
        // has now — a stale pre-quarantine row must not be used.
        3 => world.quarantined[j] = false,
        // Slot exhaustion / partial refill on the shared pool.
        4 => {
            world.slots.insert(AnnotatorId(j), (value % 3) as usize);
        }
        // Answer arrival: flips the pair mask for (object, j).
        _ => {
            let object = ObjectId(target % OBJECTS);
            if !world.answers.has_answered(object, AnnotatorId(j)) {
                world
                    .answers
                    .record(Answer {
                        object,
                        annotator: AnnotatorId(j),
                        label: ClassId((value % CLASSES as u16) as usize),
                    })
                    .unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 64,
    })]

    #[test]
    fn no_interleaving_ever_serves_a_stale_cached_activation(
        ops in proptest::collection::vec((0u8..6, 0usize..64, 0u16..1024), 4..28),
        train_every in 2usize..6,
        seed in 0u64..10_000,
    ) {
        let mut pruned = twin(seed, DecideMode::Pruned);
        let mut exhaustive = twin(seed, DecideMode::Exhaustive);
        let mut world = World::new();
        let candidates: Vec<(ObjectId, Vec<f64>)> = (0..OBJECTS)
            .map(|i| {
                let p = 0.35 + (i as f64 * 0.07) % 0.4;
                (ObjectId(i), vec![p, 1.0 - p])
            })
            .collect();
        let labelled = LabelledSet::new(OBJECTS);

        for (step, &(op, target, value)) in ops.iter().enumerate() {
            apply(&mut world, op, target, value);

            let live = world.live();
            let snapshot = world.snapshot(step);
            let mut rng_p = seeded(seed ^ (step as u64).wrapping_mul(0x9E37));
            let mut rng_e = seeded(seed ^ (step as u64).wrapping_mul(0x9E37));
            let picks_p = pruned.select(
                &candidates, &live, Some(&world.slots), &world.answers,
                &labelled, &snapshot, 20.0, 3, 3, Ablation::default(), &mut rng_p,
            );
            let picks_e = exhaustive.select(
                &candidates, &live, Some(&world.slots), &world.answers,
                &labelled, &snapshot, 20.0, 3, 3, Ablation::default(), &mut rng_e,
            );
            // Identical panels, identical embeddings (the Assignment
            // carries the full per-pick state-action vectors — a stale
            // feature block would differ even if the argmax survived),
            // identical RNG consumption.
            prop_assert_eq!(&picks_p, &picks_e, "step {}: panels diverged", step);
            prop_assert_eq!(
                rng_p.state(), rng_e.state(),
                "step {}: RNG streams diverged", step
            );

            // The pruned twin must actually be pruning somewhere in the
            // run, otherwise this property is vacuous.
            let stats = pruned.decide_stats();
            prop_assert!(stats.scored_pairs <= stats.total_pairs);

            // Periodically train both twins on the identical experience
            // so the pruned rows must follow every parameter update.
            if step % train_every == train_every - 1 && !picks_p.is_empty() {
                let rewards = vec![0.5; picks_p.len()];
                let next = vec![vec![0.1; FEATURE_DIM]];
                pruned.remember(&picks_p, &rewards, &next, false);
                exhaustive.remember(&picks_e, &rewards, &next, false);
                let mut tr_p = seeded(seed ^ 0xBEEF ^ step as u64);
                let mut tr_e = seeded(seed ^ 0xBEEF ^ step as u64);
                let loss_p = pruned.train(2, &mut tr_p);
                let loss_e = exhaustive.train(2, &mut tr_e);
                prop_assert_eq!(
                    loss_p.map(f32::to_bits), loss_e.map(f32::to_bits),
                    "step {}: training diverged", step
                );
            }
        }

        // Across the whole interleaving column dedup must have pruned
        // real work across the tiered pool, and annotators must have
        // shared feature blocks — otherwise this property tested nothing.
        let stats = pruned.decide_stats();
        prop_assert!(stats.total_pairs > 0);
        prop_assert!(
            stats.scored_pairs < stats.total_pairs,
            "pruning never engaged: scored {} of {}",
            stats.scored_pairs,
            stats.total_pairs
        );
        prop_assert!(
            stats.distinct_blocks < stats.forwarded_annotators,
            "no annotators shared a feature block: {} blocks for {} annotators",
            stats.distinct_blocks,
            stats.forwarded_annotators
        );
    }
}
