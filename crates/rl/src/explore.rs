//! Exploration policies for action selection.
//!
//! The paper replaces plain greedy selection with a UCB1-style bonus
//! (Eq. 6):
//!
//! ```text
//! A(t) = argmax_{A'} [ Q(S(t), A') + sqrt(2 ln n' / n) ]
//! ```
//!
//! where `n` counts how often action `A'` was chosen and `n'` counts total
//! selections — repeatedly-picked actions lose their bonus, under-explored
//! ones gain. [`EpsilonGreedy`] is provided as the classical alternative
//! for the exploration-strategy ablation bench.

use rand::Rng;
use std::collections::HashMap;

/// UCB1 exploration state: per-action pick counts plus a global counter.
///
/// Actions are identified by an opaque `u64` key (CrowdRL packs
/// object/annotator indices). Unpicked actions receive the maximal bonus so
/// every action is tried before any is repeated, as in classical UCB1.
#[derive(Debug, Clone)]
pub struct UcbExplorer {
    counts: HashMap<u64, u64>,
    total: u64,
    /// Bonus scale multiplier (1.0 = the paper's Eq. 6).
    pub scale: f64,
}

impl Default for UcbExplorer {
    fn default() -> Self {
        Self::new(1.0)
    }
}

impl UcbExplorer {
    /// Explorer with a bonus multiplier (1.0 reproduces Eq. 6).
    pub fn new(scale: f64) -> Self {
        assert!(scale >= 0.0, "scale must be non-negative");
        Self {
            counts: HashMap::new(),
            total: 0,
            scale,
        }
    }

    /// The exploration-adjusted score `Q + scale * sqrt(2 ln n' / n)`.
    ///
    /// Never-picked actions score `f64::INFINITY` (forced first trial),
    /// unless the explorer has made no selections at all yet (bonus 0).
    pub fn score(&self, q: f64, action: u64) -> f64 {
        if self.total == 0 || self.scale == 0.0 {
            return q;
        }
        match self.counts.get(&action) {
            None | Some(0) => f64::INFINITY,
            Some(&n) => q + self.scale * (2.0 * (self.total as f64).ln() / n as f64).sqrt(),
        }
    }

    /// Like [`UcbExplorer::score`], but never-picked actions are scored as
    /// if picked once (`q + scale·sqrt(2 ln n')`) instead of infinity.
    ///
    /// Classical UCB1 forces every arm to be tried before any repeats; with
    /// CrowdRL's `|O|·|W|` action space and a budget far smaller than one
    /// trial per pair, that degenerates to index-order selection. The soft
    /// bonus keeps unexplored actions attractive without drowning the
    /// Q-values.
    pub fn score_soft(&self, q: f64, action: u64) -> f64 {
        if self.total == 0 || self.scale == 0.0 {
            return q;
        }
        let n = self.counts.get(&action).copied().unwrap_or(0).max(1);
        q + self.scale * (2.0 * (self.total as f64).ln() / n as f64).sqrt()
    }

    /// The additive bonus term of [`UcbExplorer::score_soft`]:
    /// `score_soft(q, a) == q + bonus_soft(a)` for every finite `q`, with
    /// the identical floating-point expression — the decide path's column
    /// deduplication relies on this to re-apply the bonus per annotator
    /// to a Q-value shared by its whole column.
    pub fn bonus_soft(&self, action: u64) -> f64 {
        if self.total == 0 || self.scale == 0.0 {
            return 0.0;
        }
        let n = self.counts.get(&action).copied().unwrap_or(0).max(1);
        self.scale * (2.0 * (self.total as f64).ln() / n as f64).sqrt()
    }

    /// Record that `action` was selected.
    pub fn record(&mut self, action: u64) {
        *self.counts.entry(action).or_insert(0) += 1;
        self.total += 1;
    }

    /// Times `action` has been selected.
    pub fn count(&self, action: u64) -> u64 {
        self.counts.get(&action).copied().unwrap_or(0)
    }

    /// Total selections across all actions.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Forget all counts (new episode).
    pub fn reset(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// The per-action counts sorted by action key (deterministic order),
    /// for checkpointing.
    pub fn export_counts(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self.counts.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_unstable();
        out
    }

    /// Restore counts captured by [`UcbExplorer::export_counts`]. The
    /// total is re-derived as their sum.
    pub fn restore_counts(&mut self, counts: &[(u64, u64)]) {
        self.counts = counts.iter().copied().collect();
        self.total = counts.iter().map(|&(_, n)| n).sum();
    }
}

/// Classical ε-greedy with linear decay.
#[derive(Debug, Clone)]
pub struct EpsilonGreedy {
    /// Initial exploration probability.
    pub epsilon_start: f64,
    /// Final exploration probability.
    pub epsilon_end: f64,
    /// Steps over which ε decays linearly.
    pub decay_steps: u64,
    steps: u64,
}

impl EpsilonGreedy {
    /// A policy decaying from `start` to `end` over `decay_steps` calls.
    pub fn new(start: f64, end: f64, decay_steps: u64) -> Self {
        assert!((0.0..=1.0).contains(&start) && (0.0..=1.0).contains(&end));
        Self {
            epsilon_start: start,
            epsilon_end: end,
            decay_steps: decay_steps.max(1),
            steps: 0,
        }
    }

    /// Current ε.
    pub fn epsilon(&self) -> f64 {
        let frac = (self.steps as f64 / self.decay_steps as f64).min(1.0);
        self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac
    }

    /// Decide whether to explore this step (advances the decay clock).
    pub fn should_explore<R: Rng + ?Sized>(&mut self, rng: &mut R) -> bool {
        let explore = rng.random::<f64>() < self.epsilon();
        self.steps += 1;
        explore
    }

    /// Decay-clock position, for checkpointing.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Restore the decay clock captured by [`EpsilonGreedy::steps`].
    pub fn set_steps(&mut self, steps: u64) {
        self.steps = steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::rng::seeded;

    #[test]
    fn unpicked_actions_get_infinite_bonus_after_first_pick() {
        let mut ucb = UcbExplorer::default();
        assert_eq!(ucb.score(0.5, 1), 0.5); // nothing recorded yet
        ucb.record(1);
        assert_eq!(ucb.score(0.5, 2), f64::INFINITY);
        assert!(ucb.score(0.5, 1).is_finite());
    }

    #[test]
    fn bonus_decays_with_repeated_selection() {
        let mut ucb = UcbExplorer::default();
        for _ in 0..10 {
            ucb.record(1);
        }
        ucb.record(2);
        let bonus = |n: u64, total: u64| (2.0 * (total as f64).ln() / n as f64).sqrt();
        let s1 = ucb.score(0.0, 1);
        let s2 = ucb.score(0.0, 2);
        assert!(
            s2 > s1,
            "rarely-picked action must score higher: {s2} vs {s1}"
        );
        assert!((s1 - bonus(10, 11)).abs() < 1e-12);
        assert!((s2 - bonus(1, 11)).abs() < 1e-12);
    }

    #[test]
    fn higher_q_wins_at_equal_counts() {
        let mut ucb = UcbExplorer::default();
        ucb.record(1);
        ucb.record(2);
        assert!(ucb.score(1.0, 1) > ucb.score(0.0, 2));
    }

    #[test]
    fn scale_zero_is_pure_greedy() {
        let mut ucb = UcbExplorer::new(0.0);
        ucb.record(1);
        assert_eq!(ucb.score(0.7, 2), 0.7);
        assert_eq!(ucb.score(0.7, 1), 0.7);
    }

    #[test]
    fn reset_clears_counts() {
        let mut ucb = UcbExplorer::default();
        ucb.record(1);
        ucb.record(1);
        assert_eq!(ucb.count(1), 2);
        assert_eq!(ucb.total(), 2);
        ucb.reset();
        assert_eq!(ucb.count(1), 0);
        assert_eq!(ucb.total(), 0);
    }

    #[test]
    fn soft_score_is_finite_and_favors_unexplored() {
        let mut ucb = UcbExplorer::default();
        for _ in 0..8 {
            ucb.record(1);
        }
        let fresh = ucb.score_soft(0.0, 2);
        let stale = ucb.score_soft(0.0, 1);
        assert!(fresh.is_finite());
        assert!(fresh > stale);
        // Before any recording, soft score is the raw Q.
        let empty = UcbExplorer::default();
        assert_eq!(empty.score_soft(0.3, 9), 0.3);
    }

    #[test]
    fn bonus_soft_is_the_additive_term_of_score_soft() {
        let mut ucb = UcbExplorer::default();
        assert_eq!(ucb.bonus_soft(7), 0.0);
        for _ in 0..5 {
            ucb.record(1);
        }
        ucb.record(2);
        for action in [1u64, 2, 3] {
            for q in [-1.5f64, 0.0, 0.25, 3.0] {
                let direct = ucb.score_soft(q, action);
                let composed = q + ucb.bonus_soft(action);
                assert_eq!(direct.to_bits(), composed.to_bits());
            }
        }
        let off = UcbExplorer::new(0.0);
        assert_eq!(off.bonus_soft(1), 0.0);
    }

    #[test]
    fn epsilon_decays_linearly() {
        let mut eg = EpsilonGreedy::new(1.0, 0.1, 10);
        assert!((eg.epsilon() - 1.0).abs() < 1e-12);
        let mut rng = seeded(1);
        for _ in 0..5 {
            eg.should_explore(&mut rng);
        }
        assert!((eg.epsilon() - 0.55).abs() < 1e-12);
        for _ in 0..20 {
            eg.should_explore(&mut rng);
        }
        assert!((eg.epsilon() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn epsilon_one_always_explores() {
        let mut eg = EpsilonGreedy::new(1.0, 1.0, 1);
        let mut rng = seeded(2);
        assert!((0..50).all(|_| eg.should_explore(&mut rng)));
        let mut never = EpsilonGreedy::new(0.0, 0.0, 1);
        assert!((0..50).all(|_| !never.should_explore(&mut rng)));
    }
}
