//! The Agent: unified task selection + assignment (§IV).
//!
//! Given the candidate unlabelled objects and the annotator pool, the agent
//! embeds every feasible (object, annotator) pair, scores it with the DQN,
//! applies the exploration policy, masks infeasible pairs with `-inf`
//! (already answered / unaffordable — the paper's invalid-action masking,
//! §IV-B), sums each object's top-`k` scores with the bounded min-heap, and
//! selects the `batch` objects with the largest sums together with their
//! top-`k` annotators.
//!
//! The paper's ablations degrade exactly one side: `M1` replaces the object
//! ranking with a uniform-random choice, `M2` replaces the annotator
//! ranking with uniform-random feasible annotators.

use crate::config::{Ablation, Exploration};
use crate::decide::{BlockRows, DecideConfig, DecideMode, DecideStats, DedupPairScores};
use crate::features::{
    embed_annotator_specific, embed_object_part, embed_run_part, ObjectFeatures, StateSnapshot,
    ANNOTATOR_SPECIFIC_DIM, FEATURE_DIM,
};
use crowdrl_rl::{topk, DqnAgent, DqnConfig, DqnSnapshot, EpsilonGreedy, Transition, UcbExplorer};
use crowdrl_types::rng::sample_indices;
use crowdrl_types::{
    AnnotatorId, AnnotatorProfile, AnswerSet, Error, LabelledSet, ObjectId, Result,
};
use rand::Rng;
use std::collections::HashMap;

/// One chosen assignment: an object and the annotators to ask, plus the
/// embeddings used (needed to build replay transitions afterwards).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// The selected object.
    pub object: ObjectId,
    /// The annotators to ask, best first.
    pub annotators: Vec<AnnotatorId>,
    /// State-action embedding per chosen annotator (parallel to
    /// `annotators`).
    pub embeddings: Vec<Vec<f32>>,
}

/// Free concurrency slots per annotator, as selection reads them: a dense
/// table indexed by annotator (what a shared pool's broker snapshots
/// once per round) or a sparse map in which an absent annotator is
/// unbounded.
pub trait FreeSlots {
    /// Free slots of annotator `a`; `usize::MAX` means unbounded.
    fn free(&self, a: AnnotatorId) -> usize;
}

impl FreeSlots for [usize] {
    fn free(&self, a: AnnotatorId) -> usize {
        self[a.index()]
    }
}

impl FreeSlots for HashMap<AnnotatorId, usize> {
    fn free(&self, a: AnnotatorId) -> usize {
        self.get(&a).copied().unwrap_or(usize::MAX)
    }
}

/// The RL selection agent: Q-network plus exploration state.
#[derive(Debug, Clone)]
pub struct SelectionAgent {
    dqn: DqnAgent,
    ucb: Option<UcbExplorer>,
    eps: Option<EpsilonGreedy>,
    decide: DecideConfig,
    stats: DecideStats,
}

/// Walk `ranked` best-first and greedily fill a panel of up to `k`
/// annotators under the panel constraints (at most one expert, running
/// allowance, free concurrency slots), charging each pick to `allowance`
/// and to the batch-wide `picked` counts. The walk stops once the
/// allowance is below `min_cost`, the cheapest active annotator's cost:
/// every later candidate would be rejected as unaffordable.
fn fill_panel<S: FreeSlots + ?Sized>(
    ranked: impl IntoIterator<Item = usize>,
    active: &[&AnnotatorProfile],
    slots: Option<&S>,
    picked: &mut [usize],
    allowance: &mut f64,
    min_cost: f64,
    k: usize,
) -> Vec<usize> {
    let mut picks = Vec::with_capacity(k);
    let mut has_expert = false;
    for ai in ranked {
        if picks.len() == k || *allowance < min_cost {
            break;
        }
        let profile = active[ai];
        if profile.is_expert() && has_expert {
            continue;
        }
        if profile.cost > *allowance {
            continue;
        }
        if let Some(slots) = slots {
            if picked[ai] >= slots.free(profile.id) {
                continue; // all concurrency slots spoken for
            }
        }
        *allowance -= profile.cost;
        picked[ai] += 1;
        has_expert |= profile.is_expert();
        picks.push(ai);
    }
    picks
}

/// Checkpointable state of a [`SelectionAgent`]: the Q-network (weights,
/// optimizer, replay buffer) plus whichever exploration state is active.
#[derive(Debug, Clone)]
pub struct AgentState {
    /// Q-network, optimizer and replay snapshot.
    pub dqn: DqnSnapshot,
    /// UCB per-annotator pick counts, when UCB exploration is configured.
    pub ucb_counts: Option<Vec<(u64, u64)>>,
    /// ε-greedy decay clock, when ε-greedy exploration is configured.
    pub eps_steps: Option<u64>,
}

impl SelectionAgent {
    /// Build the agent. `dqn.input_dim` is forced to [`FEATURE_DIM`].
    pub fn new<R: Rng + ?Sized>(
        mut dqn: DqnConfig,
        exploration: &Exploration,
        decide: DecideConfig,
        pretrained: Option<&[f32]>,
        rng: &mut R,
    ) -> Result<Self> {
        dqn.input_dim = FEATURE_DIM;
        let mut dqn = DqnAgent::new(dqn, rng)?;
        if let Some(params) = pretrained {
            dqn.import_params(params)?;
        }
        let (ucb, eps) = match exploration {
            Exploration::Ucb { scale } => (Some(UcbExplorer::new(*scale)), None),
            Exploration::EpsilonGreedy {
                start,
                end,
                decay_steps,
            } => (None, Some(EpsilonGreedy::new(*start, *end, *decay_steps))),
        };
        Ok(Self {
            dqn,
            ucb,
            eps,
            decide,
            stats: DecideStats::default(),
        })
    }

    /// The underlying DQN (for parameter export in cross-training).
    pub fn dqn(&self) -> &DqnAgent {
        &self.dqn
    }

    /// Cumulative decide-path counters (monotone; snapshot and
    /// [`DecideStats::delta_since`] to scope them to one call).
    pub fn decide_stats(&self) -> DecideStats {
        self.stats
    }

    /// Export the full learning state for a checkpoint.
    pub fn export_state(&self) -> AgentState {
        AgentState {
            dqn: self.dqn.snapshot(),
            ucb_counts: self.ucb.as_ref().map(UcbExplorer::export_counts),
            eps_steps: self.eps.as_ref().map(EpsilonGreedy::steps),
        }
    }

    /// Restore a state exported by [`export_state`](Self::export_state).
    /// The agent must have been built with the same configuration (same
    /// network shape and exploration kind).
    pub fn restore_state(&mut self, state: AgentState) -> Result<()> {
        if state.ucb_counts.is_some() != self.ucb.is_some()
            || state.eps_steps.is_some() != self.eps.is_some()
        {
            return Err(Error::InvalidParameter(
                "agent checkpoint uses a different exploration policy".into(),
            ));
        }
        self.dqn.restore(state.dqn)?;
        if let (Some(ucb), Some(counts)) = (&mut self.ucb, state.ucb_counts) {
            ucb.restore_counts(&counts);
        }
        if let (Some(eps), Some(steps)) = (&mut self.eps, state.eps_steps) {
            eps.set_steps(steps);
        }
        Ok(())
    }

    /// Select up to `batch` objects and `k` annotators each, spending at
    /// most `iteration_allowance` budget units.
    ///
    /// `candidates` pairs each candidate object with the classifier's
    /// current class distribution for it. Pairs where the annotator already
    /// answered the object or costs more than the remaining allowance are
    /// masked. Two allocation rules keep the spend paced (see the module
    /// docs): panels contain **at most one expert** (the paper's own worked
    /// assignment, w1/w3/w5, has exactly one), and annotators that no
    /// longer fit the running allowance are skipped in favor of cheaper
    /// ones.
    ///
    /// `slots`, when given, caps how many assignments each annotator may
    /// take across this whole batch (a shared pool's free concurrency
    /// slots). Without it the top-scored annotator would be proposed for
    /// every object, and a brokered service could grant only a slot's
    /// worth of them. `None` means unbounded, the single-run behaviour.
    #[allow(clippy::too_many_arguments)]
    pub fn select<R: Rng + ?Sized, S: FreeSlots + ?Sized>(
        &mut self,
        candidates: &[(ObjectId, Vec<f64>)],
        profiles: &[AnnotatorProfile],
        slots: Option<&S>,
        answers: &AnswerSet,
        labelled: &LabelledSet,
        snapshot: &StateSnapshot,
        iteration_allowance: f64,
        k: usize,
        batch: usize,
        ablation: Ablation,
        rng: &mut R,
    ) -> Vec<Assignment> {
        if candidates.is_empty() || profiles.is_empty() || k == 0 || batch == 0 {
            return Vec::new();
        }
        let c = candidates.len();
        self.stats.total_pairs += (c * profiles.len()) as u64;

        // Annotator-level feasibility pre-filter: annotators whose cost
        // exceeds the iteration allowance, or whose free concurrency
        // slots are exhausted, can never be picked — drop them *before*
        // any embedding or forward is built. (Slot-exhausted annotators
        // used to be scored anyway, inflating object top-k sums with
        // picks the fill loop then rejected.)
        let active: Vec<&AnnotatorProfile> = profiles
            .iter()
            .filter(|p| p.cost <= iteration_allowance && slots.is_none_or(|s| s.free(p.id) > 0))
            .collect();
        self.stats.forwarded_annotators += active.len() as u64;
        self.stats.filtered_annotators += (profiles.len() - active.len()) as u64;
        if active.is_empty() {
            return Vec::new();
        }
        let w = active.len();

        // The embedding splits into an object-dependent prefix and an
        // annotator/run-level suffix (`features::OBJECT_PART_DIM`), so the
        // Q-network's first layer is evaluated once per object part and
        // once per annotator part instead of once per pair. The suffix
        // splits again into an annotator-specific block, shared by every
        // annotator in the same state, and a run-level block shared by
        // the whole pool.
        let embed_span = crowdrl_obs::span("decide.embed");
        let num_classes = candidates[0].1.len();
        debug_assert!(candidates.iter().all(|(_, p)| p.len() == num_classes));
        let object_parts: Vec<Vec<f32>> = candidates
            .iter()
            .map(|(object, probs)| {
                let object_features = ObjectFeatures::compute(*object, probs, answers);
                embed_object_part(&object_features, *object, labelled, k)
            })
            .collect();
        let run_part = embed_run_part(snapshot);
        let specifics: Vec<[f32; ANNOTATOR_SPECIFIC_DIM]> = active
            .iter()
            .map(|profile| embed_annotator_specific(profile, snapshot, num_classes))
            .collect();

        // Pair-level mask: already-answered pairs (§IV-B). Cost and slot
        // infeasibility were already removed at the annotator level.
        let mut masked = vec![false; c * w];
        for (ci, (object, _)) in candidates.iter().enumerate() {
            for (ai, profile) in active.iter().enumerate() {
                masked[ci * w + ai] = answers.has_answered(*object, profile.id);
            }
        }

        drop(embed_span);

        // ε-greedy: one coin per iteration decides explore-vs-exploit.
        let explore_all = match &mut self.eps {
            Some(eps) => {
                if crowdrl_obs::enabled() {
                    // Sample ε *before* the coin advances the decay clock:
                    // this is the value the decision below actually uses.
                    crowdrl_obs::gauge_step(
                        "dqn.epsilon",
                        self.dqn.train_steps() as f64,
                        eps.epsilon(),
                    );
                }
                eps.should_explore(rng)
            }
            None => false,
        };
        let random_selection = ablation.random_task_selection || explore_all;
        let random_assignment = ablation.random_task_assignment || explore_all;

        // When both rankings are random (M1+M2 or an exploration step),
        // feasibility alone decides — skip the Q-network entirely. The
        // RNG draw sequence and the outputs are identical to the scored
        // paths: masked pairs are the only exclusions either way.
        let skip_scoring = random_selection && random_assignment;

        // Exhaustive mode: one factored batched forward over every
        // (candidate, active annotator) pair, UCB-adjusted, masked.
        // UCB counts are tracked per *annotator*, not per pair: a pair is
        // masked after one answer, so pair-level counts never
        // differentiate anything. What exploration must cover is the
        // annotator dimension — "have we tried routing work to w_j
        // lately?".
        let mut dense: Option<Vec<f64>> = None;
        // Pruned mode: one first-layer row per distinct annotator-specific
        // block, deduplicated into score columns and scored in one batched
        // forward (see `decide`). The grid declines a mostly distinct
        // pool, which then scores densely.
        let mut grid: Option<DedupPairScores> = None;
        if !skip_scoring && self.decide.mode == DecideMode::Pruned {
            let _grid_span = crowdrl_obs::span("decide.grid");
            let net = self.dqn.online_network();
            let blocks = BlockRows::build(net.first_layer(), &specifics, &run_part);
            self.stats.distinct_blocks += blocks.distinct() as u64;
            let keys: Vec<u64> = active.iter().map(|p| p.id.index() as u64).collect();
            grid = DedupPairScores::new(
                net,
                &object_parts,
                blocks,
                &masked,
                &keys,
                self.ucb.as_ref(),
                &mut self.stats,
            );
        }
        if !skip_scoring && grid.is_none() {
            // Exhaustive mode, or the pruned grid declined: one factored
            // batched forward over every (candidate, active annotator)
            // pair, UCB-adjusted, masked.
            let annotator_parts: Vec<Vec<f32>> = specifics
                .iter()
                .map(|s| {
                    let mut part = s.to_vec();
                    part.extend_from_slice(&run_part);
                    part
                })
                .collect();
            let q_raw = self.dqn.q_values_outer(&object_parts, &annotator_parts);
            self.stats.scored_pairs += (c * w) as u64;
            let mut scores = vec![f64::NEG_INFINITY; c * w];
            for ci in 0..c {
                for (ai, profile) in active.iter().enumerate() {
                    let idx = ci * w + ai;
                    if masked[idx] {
                        continue; // masked: Q = -inf (§IV-B)
                    }
                    let q = q_raw[idx] as f64;
                    scores[idx] = match &self.ucb {
                        Some(ucb) => ucb.score_soft(q, profile.id.index() as u64),
                        None => q,
                    };
                }
            }
            dense = Some(scores);
        }

        let _rank_span = crowdrl_obs::span("decide.rank");
        // One object's adjusted scores (masked pairs `-inf`), bit-identical
        // from either backend.
        let row_of = |ci: usize| -> Vec<f64> {
            match (&dense, &grid) {
                (Some(scores), _) => scores[ci * w..(ci + 1) * w].to_vec(),
                (None, Some(g)) => (0..w).map(|ai| g.score_at(ci, ai)).collect(),
                (None, None) => unreachable!("scored ranking requires a scoring backend"),
            }
        };
        // Rank objects by top-k score sums.
        let chosen_objects: Vec<usize> = if random_selection {
            // M1 / exploration: uniform-random among candidates with at
            // least one feasible pair.
            let feasible: Vec<usize> = (0..c)
                .filter(|&ci| (0..w).any(|ai| !masked[ci * w + ai]))
                .collect();
            sample_indices(rng, feasible.len(), batch)
                .into_iter()
                .map(|i| feasible[i])
                .collect()
        } else {
            let sums: Vec<f64> = (0..c).map(|ci| topk::top_k_sum(&row_of(ci), k)).collect();
            topk::top_k_indices(&sums, batch)
        };

        let mut out = Vec::with_capacity(chosen_objects.len());
        let mut allowance = iteration_allowance;
        // Once the allowance is below the cheapest active annotator, no
        // further pick is affordable (see `fill_panel`).
        let min_cost = active.iter().map(|p| p.cost).fold(f64::INFINITY, f64::min);
        // Batch-wide concurrency bookkeeping: how many times each active
        // annotator (by position) has been picked so far this batch.
        let mut picked = vec![0usize; w];
        for ci in chosen_objects {
            if !random_assignment && allowance < min_cost {
                // Nothing is affordable any more and the scored path draws
                // no randomness: every remaining panel would be empty.
                break;
            }
            // Greedy panel fill: best-scored first, at most one expert,
            // each pick charged against the iteration allowance and the
            // annotator's free concurrency slots.
            let mut fill = |ranked: &mut dyn Iterator<Item = usize>| {
                fill_panel(
                    ranked,
                    &active,
                    slots,
                    &mut picked,
                    &mut allowance,
                    min_cost,
                    k,
                )
            };
            let picks = if random_assignment {
                // M2 / exploration: uniform-random feasible annotators,
                // drawn even when nothing is affordable any more so the
                // RNG stream does not depend on the allowance.
                let feasible: Vec<usize> = (0..w).filter(|&ai| !masked[ci * w + ai]).collect();
                let order = sample_indices(rng, feasible.len(), feasible.len());
                fill(&mut order.into_iter().map(|i| feasible[i]))
            } else {
                fill(&mut topk::ranked(&row_of(ci)))
            };
            if picks.is_empty() {
                continue;
            }
            let annotators: Vec<AnnotatorId> = picks.iter().map(|&ai| active[ai].id).collect();
            // Reassemble the full replay embeddings for the few chosen
            // pairs only — the concatenation is exactly `embed_with`.
            let chosen_embeddings: Vec<Vec<f32>> = picks
                .iter()
                .map(|&ai| {
                    let mut e = object_parts[ci].clone();
                    e.extend_from_slice(&specifics[ai]);
                    e.extend_from_slice(&run_part);
                    debug_assert_eq!(e.len(), FEATURE_DIM);
                    e
                })
                .collect();
            if let Some(ucb) = &mut self.ucb {
                for a in &annotators {
                    ucb.record(a.index() as u64);
                }
            }
            out.push(Assignment {
                object: candidates[ci].0,
                annotators,
                embeddings: chosen_embeddings,
            });
        }
        out
    }

    /// Store transitions for the executed assignments with one reward per
    /// assignment (`rewards` parallel to `assignments`). Sharper
    /// per-object credit makes "this expert answer made this object's label
    /// confident" learnable far faster than a single batch-wide reward.
    pub fn remember(
        &mut self,
        assignments: &[Assignment],
        rewards: &[f64],
        next_candidates: &[Vec<f32>],
        terminal: bool,
    ) {
        debug_assert_eq!(assignments.len(), rewards.len());
        // One shared copy of the successor candidate set for the whole
        // batch; each transition takes a refcount, not a deep clone.
        let next_candidates: std::sync::Arc<[Vec<f32>]> = next_candidates.to_vec().into();
        for (assignment, &reward) in assignments.iter().zip(rewards) {
            for embedding in &assignment.embeddings {
                self.dqn.remember(Transition {
                    state_action: embedding.clone(),
                    reward: reward as f32,
                    next_candidates: next_candidates.clone(),
                    terminal,
                });
            }
        }
    }

    /// Run `steps` minibatch TD updates; returns the mean loss if any ran.
    pub fn train<R: Rng + ?Sized>(&mut self, steps: usize, rng: &mut R) -> Option<f32> {
        let mut total = 0.0;
        let mut ran = 0;
        for _ in 0..steps {
            if let Some(l) = self.dqn.train_step(rng) {
                total += l;
                ran += 1;
            }
        }
        (ran > 0).then(|| total / ran as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::rng::seeded;
    use crowdrl_types::{AnnotatorKind, Answer, ClassId};

    fn profiles(workers: usize, experts: usize) -> Vec<AnnotatorProfile> {
        let mut out = Vec::new();
        for i in 0..workers + experts {
            let expert = i >= workers;
            out.push(
                AnnotatorProfile::new(
                    AnnotatorId(i),
                    if expert {
                        AnnotatorKind::Expert
                    } else {
                        AnnotatorKind::Worker
                    },
                    if expert { 10.0 } else { 1.0 },
                )
                .unwrap(),
            );
        }
        out
    }

    fn snapshot(w: usize) -> StateSnapshot {
        StateSnapshot {
            qualities: vec![0.7; w],
            annotator_load: vec![0; w],
            budget_spent_fraction: 0.0,
            labelled_fraction: 0.0,
            enriched_fraction: 0.0,
            max_cost: 10.0,
            phi_trust: 0.0,
        }
    }

    fn agent(seed: u64) -> SelectionAgent {
        agent_with(seed, DecideConfig::default())
    }

    fn agent_with(seed: u64, decide: DecideConfig) -> SelectionAgent {
        let mut rng = seeded(seed);
        SelectionAgent::new(
            DqnConfig::default(),
            &Exploration::Ucb { scale: 0.1 },
            decide,
            None,
            &mut rng,
        )
        .unwrap()
    }

    fn candidates(n: usize) -> Vec<(ObjectId, Vec<f64>)> {
        (0..n).map(|i| (ObjectId(i), vec![0.6, 0.4])).collect()
    }

    #[test]
    fn selects_requested_batch_and_k() {
        let mut agent = agent(1);
        let profiles = profiles(3, 1);
        let answers = AnswerSet::new(10);
        let labelled = LabelledSet::new(10);
        let mut rng = seeded(2);
        let picks = agent.select(
            &candidates(10),
            &profiles,
            None::<&[usize]>,
            &answers,
            &labelled,
            &snapshot(4),
            1000.0,
            3,
            2,
            Ablation::default(),
            &mut rng,
        );
        assert_eq!(picks.len(), 2);
        for p in &picks {
            assert_eq!(p.annotators.len(), 3);
            assert_eq!(p.embeddings.len(), 3);
            assert_eq!(p.embeddings[0].len(), FEATURE_DIM);
            // No duplicate annotators within an assignment.
            let mut a = p.annotators.clone();
            a.sort();
            a.dedup();
            assert_eq!(a.len(), 3);
        }
        // Distinct objects.
        assert_ne!(picks[0].object, picks[1].object);
    }

    #[test]
    fn masks_already_answered_pairs() {
        let mut agent = agent(3);
        let profiles = profiles(2, 0);
        let mut answers = AnswerSet::new(2);
        // Object 0 already answered by both annotators: unselectable.
        for a in 0..2 {
            answers
                .record(Answer {
                    object: ObjectId(0),
                    annotator: AnnotatorId(a),
                    label: ClassId(0),
                })
                .unwrap();
        }
        let labelled = LabelledSet::new(2);
        let mut rng = seeded(4);
        let picks = agent.select(
            &candidates(2),
            &profiles,
            None::<&[usize]>,
            &answers,
            &labelled,
            &snapshot(2),
            1000.0,
            2,
            2,
            Ablation::default(),
            &mut rng,
        );
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].object, ObjectId(1));
    }

    #[test]
    fn masks_unaffordable_annotators() {
        let mut agent = agent(5);
        let profiles = profiles(1, 1); // worker cost 1, expert cost 10
        let answers = AnswerSet::new(3);
        let labelled = LabelledSet::new(3);
        let mut rng = seeded(6);
        let picks = agent.select(
            &candidates(3),
            &profiles,
            None::<&[usize]>,
            &answers,
            &labelled,
            &snapshot(2),
            5.0, // can't afford the expert
            2,
            1,
            Ablation::default(),
            &mut rng,
        );
        assert_eq!(picks.len(), 1);
        assert_eq!(picks[0].annotators, vec![AnnotatorId(0)]);
    }

    #[test]
    fn returns_empty_when_nothing_feasible() {
        let mut agent = agent(7);
        let profiles = profiles(2, 0);
        let answers = AnswerSet::new(1);
        let labelled = LabelledSet::new(1);
        let mut rng = seeded(8);
        let picks = agent.select(
            &candidates(1),
            &profiles,
            None::<&[usize]>,
            &answers,
            &labelled,
            &snapshot(2),
            0.5, // below every cost
            2,
            1,
            Ablation::default(),
            &mut rng,
        );
        assert!(picks.is_empty());
        assert!(agent
            .select(
                &[],
                &profiles,
                None::<&[usize]>,
                &answers,
                &labelled,
                &snapshot(2),
                10.0,
                2,
                1,
                Ablation::default(),
                &mut rng
            )
            .is_empty());
    }

    #[test]
    fn random_ablations_still_respect_masks() {
        let mut agent = agent(9);
        let profiles = profiles(1, 1);
        let answers = AnswerSet::new(4);
        let labelled = LabelledSet::new(4);
        let mut rng = seeded(10);
        let ablation = Ablation {
            random_task_selection: true,
            random_task_assignment: true,
        };
        for _ in 0..20 {
            let picks = agent.select(
                &candidates(4),
                &profiles,
                None::<&[usize]>,
                &answers,
                &labelled,
                &snapshot(2),
                5.0, // expert unaffordable
                1,
                2,
                ablation,
                &mut rng,
            );
            for p in &picks {
                assert_eq!(
                    p.annotators,
                    vec![AnnotatorId(0)],
                    "must avoid unaffordable expert"
                );
            }
        }
    }

    #[test]
    fn remember_and_train_flow() {
        let mut rng = seeded(11);
        let config = DqnConfig {
            min_replay: 4,
            batch_size: 4,
            ..Default::default()
        };
        let mut agent = SelectionAgent::new(
            config,
            &Exploration::Ucb { scale: 0.1 },
            DecideConfig::default(),
            None,
            &mut rng,
        )
        .unwrap();
        let assignment = Assignment {
            object: ObjectId(0),
            annotators: vec![AnnotatorId(0), AnnotatorId(1)],
            embeddings: vec![vec![0.1; FEATURE_DIM], vec![0.2; FEATURE_DIM]],
        };
        for _ in 0..4 {
            agent.remember(std::slice::from_ref(&assignment), &[0.5], &[], true);
        }
        assert!(agent.train(3, &mut rng).is_some());
        assert!(agent.dqn().train_steps() >= 1);
    }

    #[test]
    fn export_restore_roundtrips_learning_state() {
        let mut rng = seeded(21);
        let config = DqnConfig {
            min_replay: 4,
            batch_size: 4,
            ..Default::default()
        };
        let mut agent = SelectionAgent::new(
            config.clone(),
            &Exploration::Ucb { scale: 0.1 },
            DecideConfig::default(),
            None,
            &mut rng,
        )
        .unwrap();
        let assignment = Assignment {
            object: ObjectId(0),
            annotators: vec![AnnotatorId(0)],
            embeddings: vec![vec![0.3; FEATURE_DIM]],
        };
        for _ in 0..6 {
            agent.remember(std::slice::from_ref(&assignment), &[1.0], &[], true);
        }
        agent.train(2, &mut rng);
        let state = agent.export_state();
        let mut other = SelectionAgent::new(
            config,
            &Exploration::Ucb { scale: 0.1 },
            DecideConfig::default(),
            None,
            &mut rng,
        )
        .unwrap();
        other.restore_state(state).unwrap();
        let probe = vec![0.5; FEATURE_DIM];
        assert_eq!(agent.dqn().q_value(&probe), other.dqn().q_value(&probe));
        assert_eq!(agent.dqn().train_steps(), other.dqn().train_steps());
        // Mismatched exploration kinds are rejected.
        let mut eps_agent = SelectionAgent::new(
            DqnConfig::default(),
            &Exploration::EpsilonGreedy {
                start: 0.5,
                end: 0.1,
                decay_steps: 100,
            },
            DecideConfig::default(),
            None,
            &mut rng,
        )
        .unwrap();
        assert!(eps_agent.restore_state(agent.export_state()).is_err());
    }

    #[test]
    fn pretrained_params_load() {
        let mut rng = seeded(12);
        let donor = SelectionAgent::new(
            DqnConfig::default(),
            &Exploration::Ucb { scale: 0.0 },
            DecideConfig::default(),
            None,
            &mut rng,
        )
        .unwrap();
        let params = donor.dqn().export_params();
        let recipient = SelectionAgent::new(
            DqnConfig::default(),
            &Exploration::Ucb { scale: 0.0 },
            DecideConfig::default(),
            Some(&params),
            &mut rng,
        )
        .unwrap();
        let probe = vec![0.3; FEATURE_DIM];
        assert!((donor.dqn().q_value(&probe) - recipient.dqn().q_value(&probe)).abs() < 1e-6);
    }

    #[test]
    fn pruned_and_exhaustive_selections_are_bit_identical() {
        use crate::decide::DecideMode;
        // A tiered pool dedups into a handful of columns, so pruning
        // engages even at this pool size.
        for seed in [31u64, 32, 33] {
            let mut pruned = agent_with(
                seed,
                DecideConfig {
                    mode: DecideMode::Pruned,
                },
            );
            let mut exhaustive = agent_with(
                seed,
                DecideConfig {
                    mode: DecideMode::Exhaustive,
                },
            );
            let profiles = profiles(20, 3);
            let mut answers = AnswerSet::new(12);
            answers
                .record(Answer {
                    object: ObjectId(0),
                    annotator: AnnotatorId(2),
                    label: ClassId(0),
                })
                .unwrap();
            let labelled = LabelledSet::new(12);
            let mut slots = vec![usize::MAX; profiles.len()];
            slots[1] = 0; // exhausted: must be pre-filtered
            slots[4] = 1;
            for round in 0..4 {
                let mut rng_a = seeded(seed * 100 + round);
                let mut rng_b = seeded(seed * 100 + round);
                let a = pruned.select(
                    &candidates(12),
                    &profiles,
                    Some(&slots[..]),
                    &answers,
                    &labelled,
                    &snapshot(23),
                    60.0,
                    3,
                    4,
                    Ablation::default(),
                    &mut rng_a,
                );
                let b = exhaustive.select(
                    &candidates(12),
                    &profiles,
                    Some(&slots[..]),
                    &answers,
                    &labelled,
                    &snapshot(23),
                    60.0,
                    3,
                    4,
                    Ablation::default(),
                    &mut rng_b,
                );
                assert_eq!(a, b, "seed {seed} round {round}");
                assert_eq!(rng_a.state(), rng_b.state(), "RNG streams diverged");
            }
            let stats = pruned.decide_stats();
            assert!(
                stats.scored_pairs < stats.total_pairs,
                "pruning never engaged: {stats:?}"
            );
        }
    }

    #[test]
    fn prefiltered_annotators_are_never_forwarded() {
        // Slot-exhausted and over-allowance annotators must be dropped
        // *before* embedding/scoring, not merely skipped at panel fill.
        let mut agent = agent(41);
        let profiles = profiles(4, 1); // worker cost 1, expert cost 10
        let answers = AnswerSet::new(6);
        let labelled = LabelledSet::new(6);
        let mut slots = vec![usize::MAX; profiles.len()];
        slots[0] = 0;
        slots[1] = 2;
        let mut rng = seeded(42);
        let picks = agent.select(
            &candidates(6),
            &profiles,
            Some(&slots[..]),
            &answers,
            &labelled,
            &snapshot(5),
            5.0, // expert (cost 10) unaffordable
            2,
            3,
            Ablation::default(),
            &mut rng,
        );
        let stats = agent.decide_stats();
        // Pool of 5: annotator 0 (no slots) and the expert (unaffordable)
        // are filtered, three workers forwarded.
        assert_eq!(stats.forwarded_annotators, 3);
        assert_eq!(stats.filtered_annotators, 2);
        assert_eq!(stats.total_pairs, 6 * 5);
        for p in &picks {
            assert!(!p.annotators.contains(&AnnotatorId(0)));
            assert!(!p.annotators.contains(&AnnotatorId(4)));
        }
        // Exhausting annotator 1's two slots across the batch is still
        // enforced by the fill loop.
        let uses = picks
            .iter()
            .flat_map(|p| &p.annotators)
            .filter(|a| **a == AnnotatorId(1))
            .count();
        assert!(uses <= 2);
    }

    /// `select` without ε-greedy, the slow way: every pair scored densely,
    /// each chosen object's row ranked by a full `top_k_indices(row, w)`
    /// sort, and panels filled without the early stop. Assumes the whole
    /// pool passes the pre-filter and no slot limits.
    #[allow(clippy::too_many_arguments)]
    fn reference_select<R: Rng + ?Sized>(
        agent: &SelectionAgent,
        candidates: &[(ObjectId, Vec<f64>)],
        profiles: &[AnnotatorProfile],
        answers: &AnswerSet,
        labelled: &LabelledSet,
        snapshot: &StateSnapshot,
        mut allowance: f64,
        k: usize,
        batch: usize,
        random_assignment: bool,
        rng: &mut R,
    ) -> Vec<(ObjectId, Vec<AnnotatorId>)> {
        let (c, w) = (candidates.len(), profiles.len());
        let object_parts: Vec<Vec<f32>> = candidates
            .iter()
            .map(|(o, p)| {
                embed_object_part(&ObjectFeatures::compute(*o, p, answers), *o, labelled, k)
            })
            .collect();
        let run = embed_run_part(snapshot);
        let annotator_parts: Vec<Vec<f32>> = profiles
            .iter()
            .map(|p| {
                let mut part =
                    embed_annotator_specific(p, snapshot, candidates[0].1.len()).to_vec();
                part.extend_from_slice(&run);
                part
            })
            .collect();
        let q = agent.dqn.q_values_outer(&object_parts, &annotator_parts);
        let rows: Vec<Vec<f64>> = (0..c)
            .map(|ci| {
                (0..w)
                    .map(|ai| {
                        if answers.has_answered(candidates[ci].0, profiles[ai].id) {
                            return f64::NEG_INFINITY;
                        }
                        let qv = q[ci * w + ai] as f64;
                        match &agent.ucb {
                            Some(ucb) => ucb.score_soft(qv, profiles[ai].id.index() as u64),
                            None => qv,
                        }
                    })
                    .collect()
            })
            .collect();
        let sums: Vec<f64> = rows.iter().map(|r| topk::top_k_sum(r, k)).collect();
        let mut out = Vec::new();
        for ci in topk::top_k_indices(&sums, batch) {
            let ranked = if random_assignment {
                let feasible: Vec<usize> = (0..w)
                    .filter(|&ai| rows[ci][ai] != f64::NEG_INFINITY)
                    .collect();
                sample_indices(rng, feasible.len(), feasible.len())
                    .into_iter()
                    .map(|i| feasible[i])
                    .collect()
            } else {
                topk::top_k_indices(&rows[ci], w)
            };
            let mut panel = Vec::new();
            let mut has_expert = false;
            for ai in ranked {
                if panel.len() == k {
                    break;
                }
                let p = &profiles[ai];
                if (p.is_expert() && has_expert) || p.cost > allowance {
                    continue;
                }
                allowance -= p.cost;
                has_expert |= p.is_expert();
                panel.push(p.id);
            }
            if !panel.is_empty() {
                out.push((candidates[ci].0, panel));
            }
        }
        out
    }

    #[test]
    fn allowance_running_out_mid_batch_matches_a_full_sort_fill() {
        use crate::decide::DecideMode;
        // Workers cost 1, experts 10: an allowance of 17 over a batch of
        // six 3-panels runs dry after a few objects, leaving short and
        // empty panels behind.
        let profiles = profiles(20, 3);
        let mut answers = AnswerSet::new(10);
        for (o, a) in [(0usize, 1usize), (2, 20), (3, 0), (3, 5)] {
            answers
                .record(Answer {
                    object: ObjectId(o),
                    annotator: AnnotatorId(a),
                    label: ClassId(0),
                })
                .unwrap();
        }
        let labelled = LabelledSet::new(10);
        let snap = snapshot(23);
        let (allowance, k, batch) = (17.0, 3, 6);
        for random_assignment in [false, true] {
            let ablation = Ablation {
                random_task_selection: false,
                random_task_assignment: random_assignment,
            };
            let mut pruned = agent(61);
            let mut exhaustive = agent_with(
                61,
                DecideConfig {
                    mode: DecideMode::Exhaustive,
                },
            );
            for round in 0..3u64 {
                let want = {
                    let mut rng = seeded(700 + round);
                    let panels = reference_select(
                        &pruned,
                        &candidates(10),
                        &profiles,
                        &answers,
                        &labelled,
                        &snap,
                        allowance,
                        k,
                        batch,
                        random_assignment,
                        &mut rng,
                    );
                    (panels, rng.state())
                };
                let run = |agent: &mut SelectionAgent| {
                    let mut rng = seeded(700 + round);
                    let picks = agent.select(
                        &candidates(10),
                        &profiles,
                        None::<&[usize]>,
                        &answers,
                        &labelled,
                        &snap,
                        allowance,
                        k,
                        batch,
                        ablation,
                        &mut rng,
                    );
                    let panels: Vec<(ObjectId, Vec<AnnotatorId>)> = picks
                        .into_iter()
                        .map(|a| (a.object, a.annotators))
                        .collect();
                    (panels, rng.state())
                };
                let got_pruned = run(&mut pruned);
                let got_exhaustive = run(&mut exhaustive);
                let what = format!("random_assignment {random_assignment} round {round}");
                assert_eq!(got_pruned, want, "{what}: pruned vs reference");
                assert_eq!(got_exhaustive, want, "{what}: exhaustive vs reference");
                let (panels, _) = &want;
                assert!(
                    panels.len() < batch || panels.iter().any(|(_, p)| p.len() < k),
                    "{what}: the allowance never ran out: {panels:?}"
                );
            }
            let stats = pruned.decide_stats();
            assert!(stats.scored_pairs < stats.total_pairs, "grid never engaged");
        }
    }
}
