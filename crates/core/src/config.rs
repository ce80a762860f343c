//! Configuration for the CrowdRL workflow.

use crate::decide::DecideConfig;
use crowdrl_inference::{EngineConfig, JointConfig};
use crowdrl_nn::ClassifierConfig;
use crowdrl_rl::DqnConfig;
use crowdrl_types::{Error, Result};

/// Which truth-inference model the environment runs each iteration.
#[derive(Debug, Clone)]
pub enum InferenceModel {
    /// The paper's joint model coupling classifier and annotators (§V-A.2).
    Joint(JointConfig),
    /// PM conflict-minimisation — the paper's `M3` ablation (§VI-B.3).
    Pm,
    /// Dawid–Skene EM over annotators only.
    DawidSkene,
    /// Plain majority vote.
    MajorityVote,
}

/// Exploration policy for action selection.
#[derive(Debug, Clone)]
pub enum Exploration {
    /// The paper's UCB1-style bonus (Eq. 6) with a scale multiplier
    /// (1.0 = the paper).
    Ucb {
        /// Bonus multiplier.
        scale: f64,
    },
    /// Classical ε-greedy with linear decay, for the exploration ablation.
    EpsilonGreedy {
        /// Initial ε.
        start: f64,
        /// Final ε.
        end: f64,
        /// Iterations over which ε decays.
        decay_steps: u64,
    },
}

/// The paper's component ablations (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ablation {
    /// `M1`: replace learned task *selection* with uniform-random objects.
    pub random_task_selection: bool,
    /// `M2`: replace learned task *assignment* with uniform-random
    /// annotators.
    pub random_task_assignment: bool,
}

/// Full configuration of a CrowdRL run. Build via
/// [`CrowdRlConfig::builder`].
#[derive(Debug, Clone)]
pub struct CrowdRlConfig {
    /// Total monetary budget `B`.
    pub budget: f64,
    /// Initial sampling ratio `α ∈ (0,1)`: this fraction of objects is
    /// labelled up-front before the RL loop starts.
    pub initial_ratio: f64,
    /// Number of annotators asked per selected object (`k` in §IV-B).
    pub assignment_k: usize,
    /// Objects selected per labelling iteration.
    pub batch_per_iter: usize,
    /// Enrichment margin `ε` (Algorithm 1 line 10): auto-label only when
    /// the top-two classifier probabilities differ by more than this.
    pub enrichment_margin: f64,
    /// Enrichment warmup: the classifier may only auto-label once at least
    /// this fraction of objects carries a *human-inferred* label. Guards
    /// against an overconfident early classifier mass-labelling the dataset
    /// before annotators have corrected it.
    pub enrichment_warmup: f64,
    /// Maximum objects the classifier may auto-label per iteration
    /// (most-confident first); `None` = unlimited. Keeps early-classifier
    /// mistakes from snowballing.
    pub enrichment_cap_per_iter: Option<usize>,
    /// Posterior confidence required before truth inference marks an object
    /// labelled. Objects answered but still ambiguous stay *unlabelled* and
    /// remain selectable, so the agent can escalate them to stronger
    /// annotators — the paper masks actions on *labelled* objects (§IV-B),
    /// not on answered ones. Residual uncertain objects receive their MAP
    /// label at the end of the run.
    pub label_confidence: f64,
    /// Enrichment trust gate: the classifier may only auto-label once its
    /// running agreement with freshly human-inferred labels reaches this
    /// level. Agreement is measured *out of sample* — the classifier's
    /// prediction for each selected object is recorded before its answers
    /// are purchased, then compared with the label truth inference assigns
    /// — so an overfit classifier cannot vouch for itself.
    pub enrichment_trust: f64,
    /// Weight `λ` of the enrichment term in the reward.
    pub lambda: f64,
    /// Weight `μ` of the inferred-label-confidence term in the reward
    /// (our extension; 0 recovers the paper's exact reward — see
    /// `crowdrl_core::reward`).
    pub mu: f64,
    /// Weight `η` of the monetary-cost term in the reward.
    pub eta: f64,
    /// Cap on candidate objects scored per iteration (the full action space
    /// is `|O|·|W|`; scoring every unlabelled object every iteration is
    /// quadratic overkill, so we score a uniform sample of this size).
    pub candidate_cap: usize,
    /// DQN minibatch updates per labelling iteration.
    pub train_steps_per_iter: usize,
    /// Candidate embeddings stored per transition for TD bootstrapping.
    pub bootstrap_candidates: usize,
    /// Safety cap on labelling iterations.
    pub max_iters: usize,
    /// Label any objects still unlabelled at the end with the classifier's
    /// argmax prediction (the paper labels the full dataset).
    pub final_fallback: bool,
    /// Exploration policy.
    pub exploration: Exploration,
    /// Truth-inference model.
    pub inference: InferenceModel,
    /// Incremental inference-engine knobs: warm-started EM state carried
    /// across iterations, dirty-set E-steps, and short warm classifier
    /// retrains. `warm_start: false` restores fully cold per-iteration
    /// inference.
    pub engine: EngineConfig,
    /// Component ablations.
    pub ablation: Ablation,
    /// Classifier hyperparameters.
    pub classifier: ClassifierConfig,
    /// Q-network hyperparameters (`input_dim` is overwritten with the
    /// framework's feature width).
    pub dqn: DqnConfig,
    /// Optional pre-trained Q-network parameters (the paper's offline
    /// "cross-training": train on other datasets, deploy here, §VI-A.4).
    pub pretrained_dqn: Option<Vec<f32>>,
    /// Decide-path scoring strategy (pruned vs exhaustive). Selections
    /// are bit-identical across modes, so this knob is
    /// excluded from [`CrowdRlConfig::fingerprint`] — checkpoints taken
    /// under one mode restore under the other.
    pub decide: DecideConfig,
}

impl CrowdRlConfig {
    /// Start building a config.
    pub fn builder() -> CrowdRlConfigBuilder {
        CrowdRlConfigBuilder::default()
    }

    /// This config with a different budget — how a multi-project service
    /// derives per-tenant configs from one template without rebuilding
    /// every knob through the builder.
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = budget;
        self
    }

    /// A stable fingerprint of every knob, used to verify that a
    /// checkpoint is restored under the configuration that produced it.
    /// FNV-1a over the `Debug` rendering: the derived format covers every
    /// field (adding one changes the fingerprint automatically), and
    /// within one build it is deterministic — which is all a
    /// crash-resume check needs.
    pub fn fingerprint(&self) -> u64 {
        // Canonicalize observationally-neutral knobs first: `decide` only
        // changes how scores are computed, never what is selected, so two
        // configs differing only there must fingerprint identically (a
        // checkpoint written under pruned decide restores under
        // exhaustive and vice versa).
        let mut canonical = self.clone();
        canonical.decide = DecideConfig::default();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in format!("{canonical:?}").bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    /// Validate all parameter domains.
    pub fn validate(&self) -> Result<()> {
        if !self.budget.is_finite() || self.budget < 0.0 {
            return Err(Error::InvalidParameter(
                "budget must be finite and non-negative".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.initial_ratio) {
            return Err(Error::InvalidParameter(format!(
                "initial_ratio must be in [0,1), got {}",
                self.initial_ratio
            )));
        }
        if self.assignment_k == 0 {
            return Err(Error::InvalidParameter(
                "assignment_k must be positive".into(),
            ));
        }
        if self.batch_per_iter == 0 {
            return Err(Error::InvalidParameter(
                "batch_per_iter must be positive".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.enrichment_margin) {
            return Err(Error::InvalidParameter(
                "enrichment_margin must be in [0,1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.enrichment_warmup) {
            return Err(Error::InvalidParameter(
                "enrichment_warmup must be in [0,1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.enrichment_trust) {
            return Err(Error::InvalidParameter(
                "enrichment_trust must be in [0,1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.label_confidence) {
            return Err(Error::InvalidParameter(
                "label_confidence must be in [0,1]".into(),
            ));
        }
        if self.lambda < 0.0 || self.mu < 0.0 || self.eta < 0.0 {
            return Err(Error::InvalidParameter(
                "lambda, mu and eta must be non-negative".into(),
            ));
        }
        if self.candidate_cap == 0 {
            return Err(Error::InvalidParameter(
                "candidate_cap must be positive".into(),
            ));
        }
        if self.max_iters == 0 {
            return Err(Error::InvalidParameter("max_iters must be positive".into()));
        }
        match &self.exploration {
            Exploration::Ucb { scale } => {
                if *scale < 0.0 || !scale.is_finite() {
                    return Err(Error::InvalidParameter(
                        "ucb scale must be non-negative".into(),
                    ));
                }
            }
            Exploration::EpsilonGreedy { start, end, .. } => {
                if !(0.0..=1.0).contains(start) || !(0.0..=1.0).contains(end) {
                    return Err(Error::InvalidParameter("epsilon must be in [0,1]".into()));
                }
            }
        }
        self.classifier.validate()?;
        self.engine.validate()?;
        Ok(())
    }
}

/// Builder for [`CrowdRlConfig`]; defaults follow the paper's experimental
/// setup (α = 5%, k = 3 annotators per object).
#[derive(Debug, Clone)]
pub struct CrowdRlConfigBuilder {
    config: CrowdRlConfig,
}

impl Default for CrowdRlConfigBuilder {
    fn default() -> Self {
        Self {
            config: CrowdRlConfig {
                budget: 0.0,
                initial_ratio: 0.05,
                assignment_k: 3,
                batch_per_iter: 8,
                enrichment_margin: 0.8,
                enrichment_warmup: 0.1,
                label_confidence: 0.85,
                enrichment_cap_per_iter: Some(16),
                enrichment_trust: 0.75,
                lambda: 1.0,
                mu: 1.0,
                eta: 0.15,
                candidate_cap: 128,
                train_steps_per_iter: 8,
                bootstrap_candidates: 16,
                max_iters: 100_000,
                final_fallback: true,
                exploration: Exploration::Ucb { scale: 1.0 },
                inference: InferenceModel::Joint(JointConfig {
                    max_iters: 4,
                    ..JointConfig::default()
                }),
                engine: EngineConfig::default(),
                ablation: Ablation::default(),
                classifier: ClassifierConfig {
                    epochs: 15,
                    ..ClassifierConfig::default()
                },
                dqn: DqnConfig::default(),
                pretrained_dqn: None,
                decide: DecideConfig::default(),
            },
        }
    }
}

impl CrowdRlConfigBuilder {
    /// Set the total budget `B` (required).
    pub fn budget(mut self, budget: f64) -> Self {
        self.config.budget = budget;
        self
    }

    /// Set the initial sampling ratio `α`.
    pub fn initial_ratio(mut self, alpha: f64) -> Self {
        self.config.initial_ratio = alpha;
        self
    }

    /// Set the annotators-per-object count `k`.
    pub fn assignment_k(mut self, k: usize) -> Self {
        self.config.assignment_k = k;
        self
    }

    /// Set the objects-per-iteration batch size.
    pub fn batch_per_iter(mut self, batch: usize) -> Self {
        self.config.batch_per_iter = batch;
        self
    }

    /// Set the enrichment margin `ε`.
    pub fn enrichment_margin(mut self, eps: f64) -> Self {
        self.config.enrichment_margin = eps;
        self
    }

    /// Set the enrichment warmup (min human-labelled fraction).
    pub fn enrichment_warmup(mut self, warmup: f64) -> Self {
        self.config.enrichment_warmup = warmup;
        self
    }

    /// Set (or clear) the per-iteration enrichment cap.
    pub fn enrichment_cap_per_iter(mut self, cap: Option<usize>) -> Self {
        self.config.enrichment_cap_per_iter = cap;
        self
    }

    /// Set the enrichment trust gate (validated classifier agreement).
    pub fn enrichment_trust(mut self, trust: f64) -> Self {
        self.config.enrichment_trust = trust;
        self
    }

    /// Set the posterior confidence required to mark an object labelled.
    pub fn label_confidence(mut self, conf: f64) -> Self {
        self.config.label_confidence = conf;
        self
    }

    /// Set the reward weights `λ` (enrichment) and `η` (cost).
    pub fn reward_weights(mut self, lambda: f64, eta: f64) -> Self {
        self.config.lambda = lambda;
        self.config.eta = eta;
        self
    }

    /// Set the exploration policy.
    pub fn exploration(mut self, exploration: Exploration) -> Self {
        self.config.exploration = exploration;
        self
    }

    /// Set the truth-inference model.
    pub fn inference(mut self, inference: InferenceModel) -> Self {
        self.config.inference = inference;
        self
    }

    /// Set the incremental inference-engine knobs.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.config.engine = engine;
        self
    }

    /// Set the component ablations.
    pub fn ablation(mut self, ablation: Ablation) -> Self {
        self.config.ablation = ablation;
        self
    }

    /// Set the classifier hyperparameters.
    pub fn classifier(mut self, classifier: ClassifierConfig) -> Self {
        self.config.classifier = classifier;
        self
    }

    /// Set the Q-network hyperparameters.
    pub fn dqn(mut self, dqn: DqnConfig) -> Self {
        self.config.dqn = dqn;
        self
    }

    /// Set the numeric mode (matmul kernel selection) for *both* the
    /// Q-networks and the classifier. `Reference` (default) keeps the
    /// bit-pinned blocked kernels; `Fast` enables the SIMD kernels.
    ///
    /// The mode is part of the config fingerprint — checkpoints and traces
    /// taken in one mode are not interchangeable with the other, because
    /// the two reduction orders produce (slightly) different f32
    /// trajectories.
    pub fn numeric(mut self, mode: crowdrl_linalg::NumericMode) -> Self {
        self.config.dqn.numeric = mode;
        self.config.classifier.numeric = mode;
        self
    }

    /// Provide pre-trained Q-network parameters (cross-training).
    pub fn pretrained_dqn(mut self, params: Vec<f32>) -> Self {
        self.config.pretrained_dqn = Some(params);
        self
    }

    /// Set the decide-path configuration (scoring strategy).
    pub fn decide(mut self, decide: DecideConfig) -> Self {
        self.config.decide = decide;
        self
    }

    /// Set the candidate-object cap per iteration.
    pub fn candidate_cap(mut self, cap: usize) -> Self {
        self.config.candidate_cap = cap;
        self
    }

    /// Set the safety iteration cap.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.config.max_iters = iters;
        self
    }

    /// Disable the end-of-run classifier fallback labelling.
    pub fn no_final_fallback(mut self) -> Self {
        self.config.final_fallback = false;
        self
    }

    /// Finish, validating the configuration.
    pub fn build(self) -> Result<CrowdRlConfig> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_knob_sensitive() {
        let a = CrowdRlConfig::builder().budget(100.0).build().unwrap();
        let b = CrowdRlConfig::builder().budget(100.0).build().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = CrowdRlConfig::builder().budget(101.0).build().unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let d = CrowdRlConfig::builder()
            .budget(100.0)
            .assignment_k(4)
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_decide_mode() {
        use crate::decide::{DecideConfig, DecideMode};
        let pruned = CrowdRlConfig::builder().budget(100.0).build().unwrap();
        let exhaustive = CrowdRlConfig::builder()
            .budget(100.0)
            .decide(DecideConfig {
                mode: DecideMode::Exhaustive,
            })
            .build()
            .unwrap();
        // Decide mode never changes selections, so checkpoints must be
        // interchangeable across modes.
        assert_eq!(pruned.fingerprint(), exhaustive.fingerprint());
    }

    #[test]
    fn builder_defaults_match_paper_setup() {
        let c = CrowdRlConfig::builder().budget(100.0).build().unwrap();
        assert_eq!(c.initial_ratio, 0.05);
        assert_eq!(c.assignment_k, 3);
        assert!(matches!(c.exploration, Exploration::Ucb { scale } if scale == 1.0));
        assert!(matches!(c.inference, InferenceModel::Joint(_)));
        assert!(!c.ablation.random_task_selection);
        assert!(c.final_fallback);
    }

    #[test]
    fn validation_rejects_bad_domains() {
        let base = || CrowdRlConfig::builder().budget(100.0);
        assert!(base().budget(-1.0).build().is_err());
        assert!(base().initial_ratio(1.0).build().is_err());
        assert!(base().initial_ratio(-0.1).build().is_err());
        assert!(base().assignment_k(0).build().is_err());
        assert!(base().batch_per_iter(0).build().is_err());
        assert!(base().enrichment_margin(2.0).build().is_err());
        assert!(base().enrichment_warmup(-0.5).build().is_err());
        assert!(base().reward_weights(-1.0, 0.0).build().is_err());
        assert!(base().candidate_cap(0).build().is_err());
        assert!(base().max_iters(0).build().is_err());
        assert!(base()
            .exploration(Exploration::Ucb { scale: -1.0 })
            .build()
            .is_err());
        assert!(base()
            .exploration(Exploration::EpsilonGreedy {
                start: 2.0,
                end: 0.0,
                decay_steps: 1
            })
            .build()
            .is_err());
        assert!(base()
            .engine(EngineConfig {
                full_sweep_every: 0,
                ..EngineConfig::default()
            })
            .build()
            .is_err());
        assert!(base()
            .engine(EngineConfig {
                warm_max_iters: 0,
                ..EngineConfig::default()
            })
            .build()
            .is_err());
    }

    #[test]
    fn builder_setters_apply() {
        let c = CrowdRlConfig::builder()
            .budget(50.0)
            .initial_ratio(0.1)
            .assignment_k(5)
            .batch_per_iter(4)
            .enrichment_margin(0.5)
            .reward_weights(2.0, 0.5)
            .candidate_cap(64)
            .max_iters(10)
            .inference(InferenceModel::Pm)
            .ablation(Ablation {
                random_task_selection: true,
                random_task_assignment: false,
            })
            .no_final_fallback()
            .build()
            .unwrap();
        assert_eq!(c.budget, 50.0);
        assert_eq!(c.assignment_k, 5);
        assert_eq!(c.lambda, 2.0);
        assert!(matches!(c.inference, InferenceModel::Pm));
        assert!(c.ablation.random_task_selection);
        assert!(!c.final_fallback);
    }
}
