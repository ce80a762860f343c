//! Decide-path pruning: first-layer rows per distinct annotator feature
//! block, column deduplication, and the panel walk's early stop for
//! [`SelectionAgent::select`](crate::agent::SelectionAgent).
//!
//! `serve.decide` is the service hot path: every refresh scores each
//! candidate object against the whole annotator pool, so its cost is
//! O(objects × pool) Q-network forwards and dominates wall time at
//! thousands of annotators (DESIGN.md §13). Three mechanisms make the cost
//! follow *distinct annotator states* and the work a panel needs, not the
//! pool size, without changing a single selection:
//!
//! 1. **Rows per distinct feature block.** Annotators enter the Q-network
//!    only through the 4-float annotator-specific block of the embedding
//!    suffix (quality/cost/kind/load — see [`ANNOTATOR_SPECIFIC_DIM`]);
//!    the run-level rest of the suffix is shared by the whole pool. The
//!    agent groups the active annotators by the exact bit pattern of that
//!    block and builds the biased first-layer row once per group, in the
//!    matmul kernel's op order (`Dense::accumulate_partial` over the
//!    block, then the run block, then `+ bias`), so each row is
//!    bit-identical to the dense path's. In a large pool almost every
//!    annotator the inference engine has not yet profiled sits at the
//!    same prior quality, zero load and one of a handful of cost tiers,
//!    so thousands of annotators share ~100 rows.
//!
//! 2. **Column deduplication** ([`DedupPairScores`]): rows that are
//!    bit-identical produce bit-identical Q-values for every object, so
//!    each distinct row is one score column, forwarded once against every
//!    candidate object and shared. Per-annotator identity (UCB bonus,
//!    answered-pair mask, index tie-break) is restored at expansion with
//!    the exact floating-point expression exhaustive scoring uses
//!    (`score_soft(q, a) == q + bonus_soft(a)`).
//!
//! 3. **Panel walk stop and lazy ranking** (in the agent): a panel is
//!    filled from a lazily popped ranking (`topk::ranked`) instead of a
//!    full sort of the row, and the walk ends as soon as the iteration
//!    allowance is below the cheapest active annotator's cost — every
//!    later candidate would be rejected as unaffordable. Once that holds,
//!    a scored batch no longer builds rankings at all.
//!
//! Pruning is therefore a pure optimization: selections, sums, RNG draws
//! and traces are bit-identical to exhaustive scoring, which
//! `tests/decide_equiv.rs` pins across pool sizes and thread widths.

use crate::features::{ANNOTATOR_SPECIFIC_DIM, OBJECT_PART_DIM};
use crowdrl_linalg::Matrix;
use crowdrl_nn::{Dense, Network};
use crowdrl_rl::UcbExplorer;
use std::collections::HashMap;

/// How `select` scores the (object × annotator) candidate grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecideMode {
    /// Rows per distinct feature block and column deduplication.
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
    /// Distinct annotator-specific feature blocks the pruned path built
    /// first-layer rows for, summed over calls.
    pub distinct_blocks: u64,
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
            distinct_blocks: self.distinct_blocks - earlier.distinct_blocks,
            forwarded_annotators: self.forwarded_annotators - earlier.forwarded_annotators,
            filtered_annotators: self.filtered_annotators - earlier.filtered_annotators,
        }
    }
}

/// Biased first-layer suffix rows, one per distinct annotator-specific
/// feature block, and the block of every annotator.
#[derive(Debug, Clone)]
pub struct BlockRows {
    /// One biased first-layer row per distinct block, in first-seen order.
    rows: Vec<Vec<f32>>,
    /// Annotator position → index into `rows`.
    block_of: Vec<usize>,
}

impl BlockRows {
    /// Group the annotators by the exact bit pattern of their specific
    /// block and build each group's row once: zeros, then the block, then
    /// the run-level block, then the bias — the dense kernel's op order
    /// (`Dense::accumulate_partial`), so every row is bit-identical to the
    /// suffix part of the dense path's first-layer pre-activation.
    pub fn build(
        first: &Dense,
        specifics: &[[f32; ANNOTATOR_SPECIFIC_DIM]],
        run_part: &[f32],
    ) -> Self {
        let mut index: HashMap<[u32; ANNOTATOR_SPECIFIC_DIM], usize> = HashMap::new();
        let mut rows = Vec::new();
        let block_of = specifics
            .iter()
            .map(|specific| {
                *index.entry(specific.map(f32::to_bits)).or_insert_with(|| {
                    let mut row = vec![0.0f32; first.output_dim()];
                    first.accumulate_partial(&mut row, specific, OBJECT_PART_DIM);
                    first.accumulate_partial(
                        &mut row,
                        run_part,
                        OBJECT_PART_DIM + ANNOTATOR_SPECIFIC_DIM,
                    );
                    for (v, b) in row.iter_mut().zip(first.bias()) {
                        *v += b;
                    }
                    rows.push(row);
                    rows.len() - 1
                })
            })
            .collect();
        Self { rows, block_of }
    }

    /// Number of distinct blocks (rows built).
    pub fn distinct(&self) -> usize {
        self.rows.len()
    }
}

/// The (object × annotator) score grid over deduplicated columns.
///
/// Every distinct column is scored against every candidate object in one
/// batched forward. Adjusted scores are `-inf` for masked
/// (already-answered) pairs and otherwise the UCB-adjusted Q-value —
/// bit-identical to what exhaustive scoring produces: every forward is
/// row-independent, the per-block first-layer rows replicate the
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
    /// Deduplicate the blocks' biased first-layer suffix rows by exact bit
    /// pattern (bit-identical rows produce bit-identical Q-values for every
    /// object, so they share one score column), map every annotator to its
    /// block's column, then score every column against every candidate
    /// object in one batched forward.
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
        blocks: BlockRows,
        masked: &'m [bool],
        keys: &[u64],
        ucb: Option<&UcbExplorer>,
        stats: &mut DecideStats,
    ) -> Option<Self> {
        let c = object_parts.len();
        let w = blocks.block_of.len();
        debug_assert_eq!(masked.len(), c * w);
        debug_assert_eq!(keys.len(), w);
        let mut column_of: HashMap<Vec<u32>, usize> = HashMap::new();
        let mut columns: Vec<Vec<f32>> = Vec::new();
        let column_of_block: Vec<usize> = blocks
            .rows
            .into_iter()
            .map(|row| {
                let bits: Vec<u32> = row.iter().map(|v| v.to_bits()).collect();
                *column_of.entry(bits).or_insert_with(|| {
                    columns.push(row);
                    columns.len() - 1
                })
            })
            .collect();
        let group_of: Vec<usize> = blocks
            .block_of
            .iter()
            .map(|&b| column_of_block[b])
            .collect();
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

    /// Biased first-layer rows for full annotator suffixes, one block per
    /// annotator, built in the op order `BlockRows::build` uses (zeros,
    /// specific block, rest of the suffix, bias).
    fn rp_rows(net: &Network, suffixes: &[Vec<f32>]) -> BlockRows {
        let first = net.first_layer();
        let rows = suffixes
            .iter()
            .map(|s| {
                let mut r = vec![0.0f32; first.output_dim()];
                first.accumulate_partial(&mut r, &s[..ANNOTATOR_SPECIFIC_DIM], OBJECT_PART_DIM);
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
            .collect();
        BlockRows {
            rows,
            block_of: (0..suffixes.len()).collect(),
        }
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
    fn block_rows_build_one_row_per_distinct_block() {
        // 30 annotators in 5 distinct states behind one shared run block:
        // five rows are built, and every annotator's row is bit-identical
        // to the one built for it alone.
        let (net, objects, base) = fixture(29, 4, 5);
        let run = base[0][ANNOTATOR_SPECIFIC_DIM..].to_vec();
        let specifics: Vec<[f32; ANNOTATOR_SPECIFIC_DIM]> = (0..30)
            .map(|i| {
                base[i % base.len()][..ANNOTATOR_SPECIFIC_DIM]
                    .try_into()
                    .unwrap()
            })
            .collect();
        let blocks = BlockRows::build(net.first_layer(), &specifics, &run);
        assert_eq!(blocks.distinct(), base.len());
        let suffixes: Vec<Vec<f32>> = specifics
            .iter()
            .map(|s| [s.as_slice(), &run].concat())
            .collect();
        let alone = rp_rows(&net, &suffixes);
        for (ai, &b) in blocks.block_of.iter().enumerate() {
            assert_eq!(
                blocks.rows[b]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                alone.rows[ai]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "annotator {ai}"
            );
        }
        // Scored through the grid, they match the exhaustive reference.
        let (c, w) = (objects.len(), specifics.len());
        let reference = exhaustive_reference(&net, &objects, &suffixes);
        let masked = vec![false; c * w];
        let keys: Vec<u64> = (0..w as u64).collect();
        let mut stats = DecideStats::default();
        let grid =
            DedupPairScores::new(&net, &objects, blocks, &masked, &keys, None, &mut stats).unwrap();
        assert_eq!(stats.scored_pairs, (c * base.len()) as u64);
        for ci in 0..c {
            for ai in 0..w {
                let want = reference[ci * w + ai];
                assert_eq!(
                    grid.score_at(ci, ai).to_bits(),
                    want.to_bits(),
                    "pair ({ci},{ai})"
                );
            }
        }
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
