//! Hybrid — the strongest baseline the paper constructs (§VI-A.2):
//!
//! * **Task selection** — MinExpError-style bootstrap uncertainty
//!   (Mozafari et al. \[26\]): train a small bag of classifiers on
//!   bootstrap resamples of the labelled set; select the objects whose
//!   ensemble disagrees most (highest expected error).
//! * **Task assignment** — a DQN scores (object, annotator) pairs, as in
//!   Shan et al. \[32\]. We reuse CrowdRL's [`SelectionAgent`] restricted to
//!   the already-chosen objects, so only the *assignment* half is learned.
//! * **Truth inference** — the PM algorithm \[48\], iterating annotator
//!   weights and weighted-vote truths to convergence.
//!
//! Hybrid is strong because each component is individually good; CrowdRL's
//! edge over it isolates the value of *unifying* TS+TA and of the joint
//! inference model.

use crate::common::{
    apply_labels, initial_sample, outcome_from, BaselineParams, LabellingStrategy,
};
use crowdrl_core::agent::SelectionAgent;
use crowdrl_core::classifier_util::{retrain_on_labelled, training_data};
use crowdrl_core::config::{Ablation, Exploration};
use crowdrl_core::enrichment::{enrich, fallback_label_all};
use crowdrl_core::features::StateSnapshot;
use crowdrl_core::reward::{iteration_reward, RewardInputs};
use crowdrl_core::LabellingOutcome;
use crowdrl_inference::Pm;
use crowdrl_nn::{ClassifierConfig, SoftmaxClassifier};
use crowdrl_rl::{topk, DqnConfig};
use crowdrl_sim::{AnnotatorPool, Platform};
use crowdrl_types::rng::sample_indices;
use crowdrl_types::{Budget, Dataset, LabelledSet, ObjectId, Result};
use rand::RngCore;

/// The Hybrid baseline.
#[derive(Debug, Clone)]
pub struct Hybrid {
    /// Bootstrap ensemble size for MinExpError uncertainty.
    pub bootstrap_bags: usize,
    /// Classifier hyperparameters (per bag; kept light).
    pub classifier: ClassifierConfig,
    /// Enrichment margin for its AL loop.
    pub enrichment_margin: f64,
    /// DQN hyperparameters for the assignment agent.
    pub dqn: DqnConfig,
}

impl Default for Hybrid {
    fn default() -> Self {
        Self {
            bootstrap_bags: 4,
            classifier: ClassifierConfig {
                epochs: 8,
                ..ClassifierConfig::default()
            },
            enrichment_margin: 0.3,
            dqn: DqnConfig::default(),
        }
    }
}

impl Hybrid {
    /// MinExpError surrogate: ensemble disagreement + mean uncertainty.
    ///
    /// Each bag is trained on a bootstrap resample of the labelled data;
    /// an object's score is `1 - mean_max_prob + vote_disagreement`.
    fn bootstrap_uncertainty(
        &self,
        dataset: &Dataset,
        labelled: &LabelledSet,
        objects: &[ObjectId],
        rng: &mut dyn RngCore,
    ) -> Result<Vec<f64>> {
        let Some((x, y)) = training_data(dataset, labelled) else {
            // Nothing to train on: uniform uncertainty.
            return Ok(vec![1.0; objects.len()]);
        };
        let n = x.rows();
        let k = dataset.num_classes();
        let mut bag_preds: Vec<Vec<usize>> = Vec::with_capacity(self.bootstrap_bags);
        let mut bag_conf: Vec<Vec<f64>> = Vec::with_capacity(self.bootstrap_bags);
        for _ in 0..self.bootstrap_bags {
            // Bootstrap resample (with replacement).
            let mut bx = crowdrl_linalg::Matrix::zeros(n, x.cols());
            let mut by = Vec::with_capacity(n);
            for r in 0..n {
                let pick = (rng.next_u64() % n as u64) as usize;
                bx.row_mut(r).copy_from_slice(x.row(pick));
                by.push(y[pick]);
            }
            // Degenerate resample (single class): skip this bag.
            let first = by[0];
            if by.iter().all(|&c| c == first) {
                continue;
            }
            let mut clf = SoftmaxClassifier::new(self.classifier.clone(), dataset.dim(), k, rng)?;
            clf.fit_hard(&bx, &by, rng)?;
            let mut preds = Vec::with_capacity(objects.len());
            let mut confs = Vec::with_capacity(objects.len());
            for obj in objects {
                let p = clf.predict_proba_one(dataset.features(obj.index()));
                let best = crowdrl_types::prob::argmax(&p).unwrap_or(0);
                preds.push(best);
                confs.push(p[best]);
            }
            bag_preds.push(preds);
            bag_conf.push(confs);
        }
        if bag_preds.is_empty() {
            return Ok(vec![1.0; objects.len()]);
        }
        let bags = bag_preds.len() as f64;
        let mut scores = Vec::with_capacity(objects.len());
        for oi in 0..objects.len() {
            let mut votes = vec![0.0f64; k];
            let mut mean_conf = 0.0;
            for b in 0..bag_preds.len() {
                votes[bag_preds[b][oi]] += 1.0;
                mean_conf += bag_conf[b][oi];
            }
            mean_conf /= bags;
            let agreement = votes.iter().copied().fold(0.0f64, f64::max) / bags;
            scores.push((1.0 - mean_conf) + (1.0 - agreement));
        }
        Ok(scores)
    }
}

impl LabellingStrategy for Hybrid {
    fn name(&self) -> &'static str {
        "Hybrid"
    }

    fn run(
        &self,
        dataset: &Dataset,
        pool: &AnnotatorPool,
        params: &BaselineParams,
        rng: &mut dyn RngCore,
    ) -> Result<LabellingOutcome> {
        let n = dataset.len();
        let k_classes = dataset.num_classes();
        let mut platform = Platform::new(dataset, pool, Budget::new(params.budget)?);
        let mut labelled = LabelledSet::new(n);
        let mut classifier =
            SoftmaxClassifier::new(self.classifier.clone(), dataset.dim(), k_classes, rng)?;
        let mut agent = SelectionAgent::new(
            self.dqn.clone(),
            &Exploration::Ucb { scale: 1.0 },
            crowdrl_core::DecideConfig::default(),
            None,
            rng,
        )?;
        let pm = Pm::default();
        let max_cost = pool
            .profiles()
            .iter()
            .map(|p| p.cost)
            .fold(0.0f64, f64::max);
        let max_iter_spend = params.batch_per_iter as f64 * params.assignment_k as f64 * max_cost;

        initial_sample(
            &mut platform,
            params.initial_ratio,
            params.assignment_k,
            rng,
        );
        let mut result = pm.infer(platform.answers(), k_classes, pool.len())?;
        apply_labels(&result, &mut labelled)?;
        retrain_on_labelled(&mut classifier, dataset, &labelled, rng)?;

        let mut iterations = 0;
        for _ in 0..params.max_iters {
            if platform.exhausted() || labelled.all_labelled() {
                break;
            }
            iterations += 1;
            let unlabelled_before = labelled.unlabelled_count();
            let spent_before = platform.budget().spent();

            // TS: bootstrap uncertainty over a candidate sample.
            let unlabelled: Vec<ObjectId> = labelled.unlabelled_objects().collect();
            let cand_idx = sample_indices(rng, unlabelled.len(), 128);
            let candidates: Vec<ObjectId> = cand_idx.into_iter().map(|i| unlabelled[i]).collect();
            let scores = self.bootstrap_uncertainty(dataset, &labelled, &candidates, rng)?;
            let chosen = topk::top_k_indices(&scores, params.batch_per_iter);
            if chosen.is_empty() {
                break;
            }

            // TA: DQN over the chosen objects only.
            let qualities = result.qualities();
            let snapshot = StateSnapshot {
                qualities: if qualities.len() == pool.len() {
                    qualities
                } else {
                    vec![0.7; pool.len()]
                },
                annotator_load: platform.answers().answer_counts(pool.len()),
                budget_spent_fraction: platform.budget().fraction_spent(),
                labelled_fraction: labelled.labelled_count() as f64 / n as f64,
                enriched_fraction: labelled.enriched_count() as f64 / n as f64,
                max_cost,
                phi_trust: 0.0,
            };
            let dqn_candidates: Vec<(ObjectId, Vec<f64>)> = chosen
                .iter()
                .map(|&ci| {
                    let obj = candidates[ci];
                    let probs = if classifier.is_trained() {
                        classifier.predict_proba_one(dataset.features(obj.index()))
                    } else {
                        vec![1.0 / k_classes as f64; k_classes]
                    };
                    (obj, probs)
                })
                .collect();
            let remaining_iters = labelled.unlabelled_count().div_ceil(params.batch_per_iter);
            let allowance = (platform.budget().remaining() / remaining_iters.max(1) as f64)
                .max(pool.min_cost() * params.assignment_k as f64)
                .min(platform.budget().remaining());
            let assignments = agent.select(
                &dqn_candidates,
                pool.profiles(),
                None::<&[usize]>,
                platform.answers(),
                &labelled,
                &snapshot,
                allowance,
                params.assignment_k,
                params.batch_per_iter,
                Ablation::default(),
                rng,
            );
            if assignments.is_empty() {
                break;
            }
            for assignment in &assignments {
                platform.ask_many(assignment.object, &assignment.annotators, rng);
            }
            let spend = platform.budget().spent() - spent_before;

            // TI: PM.
            result = pm.infer(platform.answers(), k_classes, pool.len())?;
            apply_labels(&result, &mut labelled)?;
            retrain_on_labelled(&mut classifier, dataset, &labelled, rng)?;
            let enriched = enrich(
                dataset,
                &classifier,
                &mut labelled,
                self.enrichment_margin,
                Some(16),
            )?
            .len();

            // Learn assignment values (same reward shape as CrowdRL).
            let _ = (spend, max_iter_spend);
            let rewards: Vec<f64> = assignments
                .iter()
                .map(|a| {
                    let confidence = result.confidence(a.object).unwrap_or(0.0);
                    let panel_cost: f64 =
                        a.annotators.iter().map(|&id| pool.profile(id).cost).sum();
                    iteration_reward(
                        1.0,
                        1.0,
                        0.15,
                        RewardInputs {
                            enriched,
                            unlabelled_before,
                            spend: panel_cost,
                            max_iter_spend: params.assignment_k.max(1) as f64 * max_cost,
                            mean_confidence: confidence,
                        },
                    )
                })
                .collect();
            let terminal = labelled.all_labelled() || platform.exhausted();
            agent.remember(&assignments, &rewards, &[], terminal);
            agent.train(2, rng);
        }

        let fallback_count = if classifier.is_trained() {
            fallback_label_all(dataset, &classifier, &mut labelled)?
        } else {
            0
        };
        Ok(outcome_from(
            &labelled,
            &platform,
            iterations,
            fallback_count,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_sim::{DatasetSpec, PoolSpec};
    use crowdrl_types::rng::seeded;

    fn setup(n: usize, seed: u64) -> (Dataset, AnnotatorPool) {
        let mut rng = seeded(seed);
        let dataset = DatasetSpec::gaussian("t", n, 3, 2)
            .with_separation(2.5)
            .generate(&mut rng)
            .unwrap();
        let pool = PoolSpec::new(3, 1).generate(2, &mut rng).unwrap();
        (dataset, pool)
    }

    #[test]
    fn full_coverage_within_budget() {
        let (dataset, pool) = setup(50, 1);
        let mut rng = seeded(2);
        let params = BaselineParams::with_budget(250.0);
        let outcome = Hybrid::default()
            .run(&dataset, &pool, &params, &mut rng)
            .unwrap();
        assert_eq!(outcome.coverage(), 1.0);
        assert!(outcome.budget_spent <= 250.0 + 1e-9);
        let acc = outcome
            .labels
            .iter()
            .enumerate()
            .filter(|(i, l)| **l == Some(dataset.truth(*i)))
            .count() as f64
            / dataset.len() as f64;
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    fn bootstrap_uncertainty_flags_ambiguous_objects() {
        let mut rng = seeded(3);
        // Two tight clusters plus points on the midline.
        let dataset = DatasetSpec::gaussian("t", 100, 2, 2)
            .with_separation(6.0)
            .generate(&mut rng)
            .unwrap();
        let mut labelled = LabelledSet::new(100);
        for i in 0..60 {
            labelled
                .set(
                    ObjectId(i),
                    crowdrl_types::LabelState::Inferred(dataset.truth(i)),
                )
                .unwrap();
        }
        let hybrid = Hybrid::default();
        let clear: Vec<ObjectId> = (60..80).map(ObjectId).collect();
        let scores = hybrid
            .bootstrap_uncertainty(&dataset, &labelled, &clear, &mut rng)
            .unwrap();
        // Well-separated points should mostly be confidently classified.
        let mean: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        assert!(mean < 0.5, "mean uncertainty {mean}");
    }

    #[test]
    fn untrained_state_gives_uniform_uncertainty() {
        let mut rng = seeded(4);
        let dataset = DatasetSpec::gaussian("t", 10, 2, 2)
            .generate(&mut rng)
            .unwrap();
        let labelled = LabelledSet::new(10);
        let hybrid = Hybrid::default();
        let objs: Vec<ObjectId> = (0..5).map(ObjectId).collect();
        let scores = hybrid
            .bootstrap_uncertainty(&dataset, &labelled, &objs, &mut rng)
            .unwrap();
        assert_eq!(scores, vec![1.0; 5]);
    }

    #[test]
    fn respects_tight_budget() {
        let (dataset, pool) = setup(60, 5);
        let mut rng = seeded(6);
        let params = BaselineParams::with_budget(25.0);
        let outcome = Hybrid::default()
            .run(&dataset, &pool, &params, &mut rng)
            .unwrap();
        assert!(outcome.budget_spent <= 25.0 + 1e-9);
    }
}
