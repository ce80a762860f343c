//! Decide-path pruning: cached annotator activations and column
//! deduplication for [`SelectionAgent::select`](crate::agent::SelectionAgent).
//!
//! `serve.decide` is the service hot path: every refresh scores each
//! candidate object against the whole annotator pool, so its cost is
//! O(objects × pool) Q-network forwards and dominates wall time at
//! thousands of annotators (DESIGN.md §13). Two mechanisms cut the
//! annotator dimension without changing a single selection:
//!
//! 1. **Activation cache** ([`AnnotatorCache`]): the annotator-specific
//!    block of the embedding suffix (quality/cost/kind/load — see
//!    [`ANNOTATOR_SPECIFIC_DIM`]) has its first-layer partial
//!    pre-activation computed once and reused across refreshes. Entries
//!    are keyed on the DQN's parameter generation plus the exact bit
//!    pattern of the feature block, so a gradient step, a parameter
//!    import/restore, or any profile/quality/load change forces a
//!    recompute — a stale partial can never be served. Each refresh
//!    resumes the cached partial with the run-level block and the bias,
//!    reproducing the full matmul row bit-for-bit
//!    (`Dense::accumulate_partial`).
//!
//! 2. **Column deduplication** ([`DedupPairScores`]):
//!    annotators enter the Q-network only through their first-layer
//!    suffix row, a function of the 4-float specific block. Annotators
//!    whose rows are bit-identical — in a large pool the overwhelming
//!    majority, since every annotator the inference engine has not yet
//!    profiled sits at the same prior quality, zero load, and one of a
//!    handful of cost tiers — provably produce bit-identical Q-values for
//!    every object. Each distinct column is forwarded once and shared;
//!    per-annotator identity (UCB bonus, answered-pair mask, index
//!    tie-break) is restored at expansion with the exact floating-point
//!    expression exhaustive scoring uses
//!    (`score_soft(q, a) == q + bonus_soft(a)`). This is what makes
//!    decide sublinear in the pool size in practice: tail cost scales
//!    with *distinct annotator states*, not pool size.
//!
//! Pruning is therefore a pure optimization: selections, sums and traces
//! are bit-identical to exhaustive scoring, which `tests/decide_equiv.rs`
//! pins across pool sizes and thread widths.

use crate::features::{ANNOTATOR_SPECIFIC_DIM, OBJECT_PART_DIM};
use crowdrl_linalg::Matrix;
use crowdrl_nn::Network;
use crowdrl_rl::UcbExplorer;
use std::collections::HashMap;

/// How `select` scores the (object × annotator) candidate grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecideMode {
    /// Cached annotator activations and column deduplication.
    /// Bit-identical selections to [`DecideMode::Exhaustive`], sublinear
    /// in the pool size in practice.
    Pruned,
    /// Score every pair with one factored batched forward (the reference
    /// path).
    Exhaustive,
}

/// Decide-path configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecideConfig {
    /// Scoring strategy.
    pub mode: DecideMode,
}

impl Default for DecideConfig {
    fn default() -> Self {
        Self {
            mode: DecideMode::Pruned,
        }
    }
}

/// Cumulative decide-path statistics (monotone counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecideStats {
    /// Pairs a naive exhaustive pass over the *unfiltered* pool would
    /// have scored (candidates × full pool), summed over calls.
    pub total_pairs: u64,
    /// Pairs actually forwarded through the Q-network.
    pub scored_pairs: u64,
    /// Annotator partials served from the activation cache.
    pub cache_hits: u64,
    /// Annotator partials recomputed (absent, stale generation, or
    /// changed features).
    pub cache_misses: u64,
    /// Annotators that reached embedding/scoring after the feasibility
    /// pre-filter.
    pub forwarded_annotators: u64,
    /// Annotators dropped by the pre-filter (over-allowance cost or no
    /// free concurrency slots) before any embedding was built.
    pub filtered_annotators: u64,
}

impl DecideStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn delta_since(&self, earlier: &DecideStats) -> DecideStats {
        DecideStats {
            total_pairs: self.total_pairs - earlier.total_pairs,
            scored_pairs: self.scored_pairs - earlier.scored_pairs,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            forwarded_annotators: self.forwarded_annotators - earlier.forwarded_annotators,
            filtered_annotators: self.filtered_annotators - earlier.filtered_annotators,
        }
    }
}

#[derive(Debug, Clone)]
struct CacheEntry {
    /// `DqnAgent::params_generation` the partial was computed under.
    params_generation: u64,
    /// Exact bit pattern of the annotator-specific feature block.
    key: [u32; ANNOTATOR_SPECIFIC_DIM],
    /// First-layer partial pre-activation of the block (no bias).
    partial: Vec<f32>,
}

/// Per-annotator cache of first-layer activation partials.
///
/// Keying on (parameter generation, feature bit pattern) makes staleness
/// structurally impossible: any weight update or feature change produces
/// a key mismatch and a recompute. [`invalidate`](AnnotatorCache::invalidate)
/// exists for explicit dirty-set discipline (quarantine transitions) and
/// memory hygiene; correctness never depends on it being called.
#[derive(Debug, Clone, Default)]
pub struct AnnotatorCache {
    entries: HashMap<usize, CacheEntry>,
}

impl AnnotatorCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached annotator partials.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop one annotator's entry (quarantine entry/release, profile
    /// retirement).
    pub fn invalidate(&mut self, annotator: usize) {
        self.entries.remove(&annotator);
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The first-layer partial for one annotator's specific feature
    /// block, from cache when the generation and feature bits match,
    /// recomputed (and stored) otherwise.
    pub fn partial_for(
        &mut self,
        net: &Network,
        params_generation: u64,
        annotator: usize,
        specific: &[f32; ANNOTATOR_SPECIFIC_DIM],
        stats: &mut DecideStats,
    ) -> Vec<f32> {
        let key = specific.map(f32::to_bits);
        if let Some(e) = self.entries.get(&annotator) {
            if e.params_generation == params_generation && e.key == key {
                stats.cache_hits += 1;
                return e.partial.clone();
            }
        }
        stats.cache_misses += 1;
        let first = net.first_layer();
        let mut partial = vec![0.0f32; first.output_dim()];
        first.accumulate_partial(&mut partial, specific, OBJECT_PART_DIM);
        self.entries.insert(
            annotator,
            CacheEntry {
                params_generation,
                key,
                partial: partial.clone(),
            },
        );
        partial
    }
}

/// The (object × annotator) score grid over deduplicated columns.
///
/// Every distinct column is scored against every candidate object in one
/// batched forward. Adjusted scores are `-inf` for masked
/// (already-answered) pairs and otherwise the UCB-adjusted Q-value —
/// bit-identical to what exhaustive scoring produces: every forward is
/// row-independent, the cached/resumed first-layer rows replicate the
/// kernel's exact operation sequence, annotators sharing a bit-identical
/// suffix row share one forwarded Q-column, and the UCB adjustment is
/// re-applied per annotator with the identical floating-point expression
/// (`UcbExplorer::bonus_soft`).
pub struct DedupPairScores<'m> {
    /// Annotator position → score column.
    group_of: Vec<usize>,
    /// `c × g` raw Q-values.
    q: Vec<f64>,
    /// `c × w` already-answered mask.
    masked: &'m [bool],
    /// Per-annotator additive UCB bonus (`None` when the explorer is
    /// absent or inactive and `score_soft` would return `q` unchanged).
    bonus: Option<Vec<f64>>,
    w: usize,
    g: usize,
}

impl<'m> DedupPairScores<'m> {
    /// Deduplicate the annotators' biased first-layer suffix rows by exact
    /// bit pattern (bit-identical rows produce bit-identical Q-values for
    /// every object, so they share one score column), then score every
    /// column against every candidate object in one batched forward.
    ///
    /// Declines with `None` when the pool is mostly distinct (more than
    /// `w / 2` columns, e.g. a long-profiled pool where every annotator
    /// carries its own quality estimate): the grid's per-pair overhead
    /// then outweighs its savings and the caller scores densely instead.
    /// Both backends produce bit-identical selections, so this is purely
    /// a cost choice.
    pub fn new(
        net: &Network,
        object_parts: &[Vec<f32>],
        rp_rows: Vec<Vec<f32>>,
        masked: &'m [bool],
        keys: &[u64],
        ucb: Option<&UcbExplorer>,
        stats: &mut DecideStats,
    ) -> Option<Self> {
        let c = object_parts.len();
        let w = rp_rows.len();
        debug_assert_eq!(masked.len(), c * w);
        debug_assert_eq!(keys.len(), w);
        let mut column_of: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut columns: Vec<Vec<f32>> = Vec::new();
        let mut group_of = Vec::with_capacity(w);
        for row in rp_rows {
            let bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
            let col = *column_of.entry(bits).or_insert_with(|| {
                columns.push(row);
                columns.len() - 1
            });
            group_of.push(col);
        }
        let g = columns.len();
        if 2 * g > w {
            return None;
        }

        let first = net.first_layer();
        let act = first.activation();
        let h1 = first.output_dim();
        let mut left = Matrix::zeros(c, OBJECT_PART_DIM);
        for (i, part) in object_parts.iter().enumerate() {
            left.row_mut(i).copy_from_slice(part);
        }
        let lp = first.partial_matmul(&left, 0);
        let mut m = Matrix::zeros(c * g, h1);
        for ci in 0..c {
            let lp_row = lp.row(ci);
            for (col, rp_row) in columns.iter().enumerate() {
                let dst = m.row_mut(ci * g + col);
                for h in 0..h1 {
                    dst[h] = act.apply(lp_row[h] + rp_row[h]);
                }
            }
        }
        let out = net.tail_forward_inference(&m);
        stats.scored_pairs += (c * g) as u64;
        let q = (0..c * g).map(|r| out.get(r, 0) as f64).collect();

        // The UCB adjustment is additive and per-annotator
        // (`score_soft(q, a) == q + bonus_soft(a)`, the identical f64
        // expression), except when the explorer is inactive and
        // `score_soft` returns `q` untouched — mirror that exactly.
        let bonus = match ucb {
            Some(u) if u.total() > 0 && u.scale != 0.0 => {
                Some(keys.iter().map(|&key| u.bonus_soft(key)).collect())
            }
            _ => None,
        };

        Some(Self {
            group_of,
            q,
            masked,
            bonus,
            w,
            g,
        })
    }

    /// The adjusted score of one pair: `-inf` if masked, the UCB-adjusted
    /// Q otherwise.
    pub fn score_at(&self, ci: usize, ai: usize) -> f64 {
        if self.masked[ci * self.w + ai] {
            return f64::NEG_INFINITY;
        }
        let qv = self.q[ci * self.g + self.group_of[ai]];
        match &self.bonus {
            Some(b) => qv + b[ai],
            None => qv,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_nn::Activation;
    use crowdrl_types::rng::seeded;
    use rand::Rng;

    fn fixture(seed: u64, c: usize, w: usize) -> (Network, Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut rng = seeded(seed);
        let net = Network::mlp(&[OBJECT_PART_DIM + 8, 16, 8, 1], Activation::Relu, &mut rng);
        let mut part = |n: usize, d: usize| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| (0..d).map(|_| rng.random::<f32>()).collect())
                .collect()
        };
        let objects = part(c, OBJECT_PART_DIM);
        let suffixes = part(w, 8);
        (net, objects, suffixes)
    }

    /// Biased first-layer rows for full annotator suffixes, the way the
    /// agent assembles them (cache partial + run resume + bias).
    fn rp_rows(net: &Network, suffixes: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let first = net.first_layer();
        suffixes
            .iter()
            .map(|s| {
                let mut cache = AnnotatorCache::new();
                let mut stats = DecideStats::default();
                let specific: [f32; ANNOTATOR_SPECIFIC_DIM] =
                    s[..ANNOTATOR_SPECIFIC_DIM].try_into().unwrap();
                let mut r = cache.partial_for(net, 0, 0, &specific, &mut stats);
                first.accumulate_partial(
                    &mut r,
                    &s[ANNOTATOR_SPECIFIC_DIM..],
                    OBJECT_PART_DIM + ANNOTATOR_SPECIFIC_DIM,
                );
                for (v, b) in r.iter_mut().zip(first.bias()) {
                    *v += b;
                }
                r
            })
            .collect()
    }

    fn exhaustive_reference(
        net: &Network,
        objects: &[Vec<f32>],
        suffixes: &[Vec<f32>],
    ) -> Vec<f64> {
        let mut left = Matrix::zeros(objects.len(), OBJECT_PART_DIM);
        for (i, o) in objects.iter().enumerate() {
            left.row_mut(i).copy_from_slice(o);
        }
        let mut right = Matrix::zeros(suffixes.len(), 8);
        for (i, s) in suffixes.iter().enumerate() {
            right.row_mut(i).copy_from_slice(s);
        }
        let out = net.forward_inference_outer(&left, &right);
        (0..out.rows()).map(|r| out.get(r, 0) as f64).collect()
    }

    /// `w` annotator suffixes cycling through the `base` distinct ones.
    fn cycled(base: &[Vec<f32>], w: usize) -> Vec<Vec<f32>> {
        (0..w).map(|i| base[i % base.len()].clone()).collect()
    }

    /// Score every pair of a fixture through the dedup grid (`None` when
    /// the grid declines the pool).
    fn score_grid<'m>(
        net: &Network,
        objects: &[Vec<f32>],
        suffixes: &[Vec<f32>],
        masked: &'m [bool],
        ucb: Option<&UcbExplorer>,
        stats: &mut DecideStats,
    ) -> Option<DedupPairScores<'m>> {
        let keys: Vec<u64> = (0..suffixes.len() as u64).collect();
        let rp = rp_rows(net, suffixes);
        DedupPairScores::new(net, objects, rp, masked, &keys, ucb, stats)
    }

    #[test]
    fn dedup_scores_match_exhaustive_bitwise() {
        for seed in [1u64, 2, 3] {
            let (net, objects, base) = fixture(seed, 6, 20);
            let suffixes = cycled(&base, 40);
            let (c, w) = (objects.len(), suffixes.len());
            let reference = exhaustive_reference(&net, &objects, &suffixes);
            let masked = vec![false; c * w];
            let mut stats = DecideStats::default();
            let grid = score_grid(&net, &objects, &suffixes, &masked, None, &mut stats).unwrap();
            for ci in 0..c {
                for ai in 0..w {
                    let got = grid.score_at(ci, ai);
                    let want = reference[ci * w + ai];
                    assert_eq!(got.to_bits(), want.to_bits(), "pair ({ci},{ai})");
                }
            }
        }
    }

    #[test]
    fn duplicate_suffix_rows_share_one_forwarded_column() {
        // 90 annotators but only 6 distinct suffixes: tail work must
        // scale with the distinct count while every expanded score stays
        // bit-identical to the exhaustive reference.
        let (net, objects, base) = fixture(23, 5, 6);
        let w = 90usize;
        let c = objects.len();
        let suffixes = cycled(&base, w);
        let reference = exhaustive_reference(&net, &objects, &suffixes);
        let mut ucb = UcbExplorer::new(0.5);
        for a in 0..40u64 {
            ucb.record(a % 13);
        }
        let masked = vec![false; c * w];
        let mut stats = DecideStats::default();
        let grid = score_grid(&net, &objects, &suffixes, &masked, Some(&ucb), &mut stats).unwrap();
        assert_eq!(stats.scored_pairs, (c * base.len()) as u64);
        for ci in 0..c {
            for ai in 0..w {
                let got = grid.score_at(ci, ai);
                let want = ucb.score_soft(reference[ci * w + ai], ai as u64);
                assert_eq!(got.to_bits(), want.to_bits(), "pair ({ci},{ai})");
            }
        }
    }

    #[test]
    fn cache_hits_on_same_generation_and_features_only() {
        let (net, _, suffixes) = fixture(11, 1, 1);
        let mut cache = AnnotatorCache::new();
        let mut stats = DecideStats::default();
        let specific: [f32; ANNOTATOR_SPECIFIC_DIM] =
            suffixes[0][..ANNOTATOR_SPECIFIC_DIM].try_into().unwrap();

        let a = cache.partial_for(&net, 0, 5, &specific, &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1));
        let b = cache.partial_for(&net, 0, 5, &specific, &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(a, b);

        // New parameter generation: miss.
        let _ = cache.partial_for(&net, 1, 5, &specific, &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2));

        // Changed feature bits: miss.
        let mut changed = specific;
        changed[0] += 0.25;
        let _ = cache.partial_for(&net, 1, 5, &changed, &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 3));

        // Explicit invalidation: miss even with matching key.
        cache.invalidate(5);
        let _ = cache.partial_for(&net, 1, 5, &changed, &mut stats);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 4));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn masked_pairs_score_negative_infinity() {
        let (net, objects, base) = fixture(17, 3, 12);
        let suffixes = cycled(&base, 25);
        let (c, w) = (objects.len(), suffixes.len());
        let mut masked = vec![false; c * w];
        masked[2] = true;
        masked[w + 1] = true;
        let mut stats = DecideStats::default();
        let grid = score_grid(&net, &objects, &suffixes, &masked, None, &mut stats).unwrap();
        for ci in 0..c {
            for ai in 0..w {
                let s = grid.score_at(ci, ai);
                assert_eq!(
                    s == f64::NEG_INFINITY,
                    masked[ci * w + ai],
                    "pair ({ci},{ai})"
                );
            }
        }
    }

    #[test]
    fn mostly_distinct_pool_is_declined_unscored() {
        let (net, objects, suffixes) = fixture(5, 4, 10);
        let masked = vec![false; objects.len() * suffixes.len()];
        let mut stats = DecideStats::default();
        assert!(score_grid(&net, &objects, &suffixes, &masked, None, &mut stats).is_none());
        assert_eq!(stats.scored_pairs, 0);
    }
}
