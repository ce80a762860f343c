//! Dense (fully-connected) layer with cached forward state for backprop.

use crate::activation::Activation;
use crate::init;
use crowdrl_linalg::{Matrix, NumericMode};
use rand::Rng;

/// Copy `src` into `slot`, reusing the existing allocation when shapes
/// match (steady-state training loops hit the reuse arm every step).
/// Returns the bytes reused, or 0 when a fresh allocation was needed.
fn copy_into(slot: &mut Option<Matrix>, src: &Matrix) -> usize {
    match slot {
        Some(m) if m.rows() == src.rows() && m.cols() == src.cols() => {
            m.as_mut_slice().copy_from_slice(src.as_slice());
            src.len() * std::mem::size_of::<f32>()
        }
        _ => {
            *slot = Some(src.clone());
            0
        }
    }
}

/// A dense layer: `y = act(x W + b)` with `W: [in x out]`, `b: [out]`.
///
/// The layer caches its input and pre-activation during [`Dense::forward`]
/// so [`Dense::backward`] can compute gradients; gradients accumulate into
/// `grad_w`/`grad_b` until [`Dense::zero_grad`] clears them.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    act: Activation,
    grad_w: Matrix,
    grad_b: Vec<f32>,
    /// Cached input from the last forward pass.
    input: Option<Matrix>,
    /// Cached pre-activation from the last forward pass.
    preact: Option<Matrix>,
    /// Scratch for `d_pre` in [`Dense::backward`], reused across steps.
    bwd_dpre: Option<Matrix>,
    /// Scratch-buffer reuse count (hits of the in-place `copy_into` arm).
    scratch_reuses: u64,
    /// Bytes served from reused scratch instead of fresh allocations.
    scratch_bytes: u64,
    /// Which matmul kernels [`Dense::forward`]/[`Dense::backward`]/
    /// [`Dense::forward_inference`] dispatch to. `Reference` (the default)
    /// is the bit-pinned blocked kernel; `Fast` is the SIMD kernel with a
    /// different (documented) reduction order. The decide-path entry
    /// points — [`Dense::forward_inference_outer`]'s partial matmuls,
    /// [`Dense::partial_matmul`] and [`Dense::accumulate_partial`] — stay
    /// on the exact reference op order in *both* modes, preserving the
    /// first-layer prefix-cache bit contract (see DESIGN.md §14).
    mode: NumericMode,
}

impl Dense {
    /// Create a layer with activation-appropriate initialization
    /// (He for ReLU, Xavier otherwise) and zero biases.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            input_dim > 0 && output_dim > 0,
            "layer dims must be positive"
        );
        let w = match act {
            Activation::Relu => init::he_uniform(rng, input_dim, output_dim),
            _ => init::xavier_uniform(rng, input_dim, output_dim),
        };
        Self {
            w,
            b: vec![0.0; output_dim],
            act,
            grad_w: Matrix::zeros(input_dim, output_dim),
            grad_b: vec![0.0; output_dim],
            input: None,
            preact: None,
            bwd_dpre: None,
            scratch_reuses: 0,
            scratch_bytes: 0,
            mode: NumericMode::Reference,
        }
    }

    /// Scratch-buffer accounting: `(reuses, bytes)` served from reused
    /// buffers since construction (see `serve.scratch.*` obs counters).
    #[inline]
    pub fn scratch_stats(&self) -> (u64, u64) {
        (self.scratch_reuses, self.scratch_bytes)
    }

    /// Set the numeric mode for the train/inference matmuls (see the
    /// `mode` field docs for which paths are affected).
    #[inline]
    pub fn set_numeric_mode(&mut self, mode: NumericMode) {
        self.mode = mode;
    }

    /// The layer's numeric mode.
    #[inline]
    pub fn numeric_mode(&self) -> NumericMode {
        self.mode
    }

    /// Input dimensionality.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    #[inline]
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// The layer's activation.
    #[inline]
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Forward pass over a batch (`x: [batch x in]`), caching state for
    /// backprop.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "layer input dim mismatch");
        let mut pre = x.matmul_mode(&self.w, self.mode);
        pre.add_row_broadcast(&self.b);
        // Snapshot input/pre-activation into reused scratch, then turn
        // `pre` into the activated output in place — same bits as the
        // previous clone-then-map, one fewer allocation per step.
        let reused = copy_into(&mut self.input, x) + copy_into(&mut self.preact, &pre);
        if reused > 0 {
            self.scratch_reuses += 1;
            self.scratch_bytes += reused as u64;
        }
        let act = self.act;
        pre.map_inplace(|v| act.apply(v));
        pre
    }

    /// Forward pass without caching — for inference and target networks.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.input_dim(), "layer input dim mismatch");
        let mut pre = x.matmul_mode(&self.w, self.mode);
        pre.add_row_broadcast(&self.b);
        let act = self.act;
        pre.map_inplace(|v| act.apply(v));
        pre
    }

    /// Inference forward over the cartesian product of two input blocks:
    /// the effective input of pair `(i, j)` is
    /// `concat(left.row(i), right.row(j))` and the output row for that
    /// pair is `i * right.rows() + j` (row-major, left-outer).
    ///
    /// Instead of materializing the `left.rows() * right.rows()` pair
    /// matrix, each block's partial pre-activation is computed once per
    /// *distinct* row (the bias folds into the right block) and the
    /// pair's pre-activation is their sum. Matches
    /// [`Dense::forward_inference`] on the materialized pairs up to f32
    /// rounding — the split associates the dot-product reduction
    /// differently.
    pub fn forward_inference_outer(&self, left: &Matrix, right: &Matrix) -> Matrix {
        assert_eq!(
            left.cols() + right.cols(),
            self.input_dim(),
            "layer input dim mismatch"
        );
        let h = self.output_dim();
        // Split W by input rows: the first `left.cols()` rows multiply
        // the left block, the remaining rows the right block.
        let mut w_left = Matrix::zeros(left.cols(), h);
        for r in 0..left.cols() {
            w_left.row_mut(r).copy_from_slice(self.w.row(r));
        }
        let mut w_right = Matrix::zeros(right.cols(), h);
        for r in 0..right.cols() {
            w_right
                .row_mut(r)
                .copy_from_slice(self.w.row(left.cols() + r));
        }
        let lp = left.matmul(&w_left);
        let mut rp = right.matmul(&w_right);
        rp.add_row_broadcast(&self.b);

        let act = self.act;
        let mut out = Matrix::zeros(left.rows() * right.rows(), h);
        for i in 0..left.rows() {
            let lrow = lp.row(i);
            for j in 0..right.rows() {
                let dst = out.row_mut(i * right.rows() + j);
                for ((d, &l), &r) in dst.iter_mut().zip(lrow).zip(rp.row(j)) {
                    *d = act.apply(l + r);
                }
            }
        }
        out
    }

    /// The bias vector (read-only). The factored decide path adds it to
    /// resumed partial pre-activations exactly the way
    /// [`forward_inference_outer`](Dense::forward_inference_outer) does.
    #[inline]
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// The sub-matmul of [`Dense::forward_inference_outer`] for one input
    /// block: weight rows `[col_offset, col_offset + x.cols())` are copied
    /// into a dense block and multiplied — the identical op sequence the
    /// outer forward runs for its `left`/`right` partials, so results are
    /// bit-identical to that path. No bias, no activation.
    pub fn partial_matmul(&self, x: &Matrix, col_offset: usize) -> Matrix {
        assert!(
            col_offset + x.cols() <= self.input_dim(),
            "partial block exceeds layer input"
        );
        let h = self.output_dim();
        let mut w_block = Matrix::zeros(x.cols(), h);
        for r in 0..x.cols() {
            w_block
                .row_mut(r)
                .copy_from_slice(self.w.row(col_offset + r));
        }
        x.matmul(&w_block)
    }

    /// Accumulate one input row's partial pre-activation into `acc`,
    /// where `x` occupies input columns `[col_offset, col_offset +
    /// x.len())`. Replicates the matmul kernel's per-element op sequence —
    /// terms added in ascending-`k` order, `a == 0.0` terms skipped,
    /// separate multiply then add-assign roundings — so accumulating a
    /// row in two consecutive column blocks is bit-identical to one
    /// `partial_matmul` over the concatenated row. This is what lets the
    /// decide path build the annotator-specific prefix of the first-layer
    /// partial once per distinct block and resume with the run-level
    /// suffix.
    pub fn accumulate_partial(&self, acc: &mut [f32], x: &[f32], col_offset: usize) {
        assert_eq!(acc.len(), self.output_dim(), "partial width mismatch");
        assert!(
            col_offset + x.len() <= self.input_dim(),
            "partial block exceeds layer input"
        );
        for (k, &a) in x.iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            let w_row = self.w.row(col_offset + k);
            for (o, &b) in acc.iter_mut().zip(w_row) {
                *o += a * b;
            }
        }
    }

    /// Backward pass: given `d_out = dL/dy`, accumulate `dL/dW`, `dL/db`
    /// and return `dL/dx`.
    ///
    /// Panics if called before [`Dense::forward`].
    pub fn backward(&mut self, d_out: &Matrix) -> Matrix {
        self.backward_accumulate(d_out);
        let d_pre = self.bwd_dpre.as_ref().expect("set by backward_accumulate");
        d_pre.matmul_nt_mode(&self.w, self.mode)
    }

    /// Backward pass that accumulates `dL/dW` and `dL/db` but skips the
    /// `dL/dx` product. For a network's *first* layer the input gradient
    /// has no consumer, so the skip saves one full matmul per step and is
    /// bit-invisible to every parameter and gradient.
    pub fn backward_params_only(&mut self, d_out: &Matrix) {
        self.backward_accumulate(d_out);
    }

    fn backward_accumulate(&mut self, d_out: &Matrix) {
        let input = self.input.as_ref().expect("backward before forward");
        let preact = self.preact.as_ref().expect("backward before forward");
        assert_eq!(d_out.rows(), preact.rows(), "backward batch mismatch");
        assert_eq!(d_out.cols(), self.output_dim(), "backward dim mismatch");

        // d_pre = d_out ⊙ act'(pre), built in reused scratch.
        let reused = copy_into(&mut self.bwd_dpre, d_out);
        if reused > 0 {
            self.scratch_reuses += 1;
            self.scratch_bytes += reused as u64;
        }
        let d_pre = self.bwd_dpre.as_mut().expect("scratch just filled");
        for i in 0..d_pre.rows() {
            let pre_row = preact.row(i);
            for (dp, &p) in d_pre.row_mut(i).iter_mut().zip(pre_row) {
                *dp *= self.act.derivative(p);
            }
        }

        // dW += x^T d_pre ; db += col_sums(d_pre)
        // Reference mode routes the x^T d_pre product through a temporary
        // and a single add_assign — gradient accumulation rounding is
        // pinned by the `gradients_accumulate_until_zeroed` semantics.
        // Fast mode fuses the product into `grad_w` (no temporary, no
        // second pass); its rounding is covered by the fast-mode tolerance
        // contract, not the bit pin.
        match self.mode {
            NumericMode::Reference => self.grad_w.add_assign(&input.matmul_tn(d_pre)),
            NumericMode::Fast => {
                crowdrl_linalg::simd::matmul_tn_acc_fast(input, d_pre, &mut self.grad_w)
            }
        }
        for (gb, s) in self.grad_b.iter_mut().zip(d_pre.col_sums()) {
            *gb += s;
        }
    }

    /// Clear accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w.scale(0.0);
        self.grad_b.iter_mut().for_each(|g| *g = 0.0);
    }

    /// (weights, bias) as mutable slices paired with their gradients, for
    /// the optimizer: `[(param, grad); 2]`.
    pub fn params_and_grads(&mut self) -> [(&mut [f32], &[f32]); 2] {
        // Split borrows: weights+grad_w, bias+grad_b.
        let Dense {
            w,
            b,
            grad_w,
            grad_b,
            ..
        } = self;
        [
            (w.as_mut_slice(), grad_w.as_slice()),
            (b.as_mut_slice(), grad_b.as_slice()),
        ]
    }

    /// Copy parameters from another layer of identical shape (target-network
    /// sync).
    pub fn copy_params_from(&mut self, other: &Dense) {
        assert_eq!(self.input_dim(), other.input_dim());
        assert_eq!(self.output_dim(), other.output_dim());
        self.w = other.w.clone();
        self.b = other.b.clone();
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Flatten parameters into `out` (serialization).
    pub fn write_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.w.as_slice());
        out.extend_from_slice(&self.b);
    }

    /// Read parameters back from a flat slice; returns the number consumed.
    pub fn read_params(&mut self, data: &[f32]) -> usize {
        let n = self.param_count();
        assert!(data.len() >= n, "parameter buffer too short");
        let (wpart, bpart) = data[..n].split_at(self.w.len());
        self.w.as_mut_slice().copy_from_slice(wpart);
        self.b.copy_from_slice(bpart);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdrl_types::rng::seeded;

    #[test]
    fn forward_identity_layer_is_affine() {
        let mut rng = seeded(1);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        // Overwrite with known weights.
        layer.read_params(&[1.0, 0.0, 0.0, 1.0, 0.5, -0.5]);
        let x = Matrix::from_rows(&[&[2.0, 3.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.as_slice(), &[2.5, 2.5]);
        // Inference path agrees.
        let yi = layer.forward_inference(&x);
        assert_eq!(y, yi);
    }

    #[test]
    fn relu_layer_clamps_negative_preactivations() {
        let mut rng = seeded(2);
        let mut layer = Dense::new(1, 2, Activation::Relu, &mut rng);
        layer.read_params(&[1.0, -1.0, 0.0, 0.0]);
        let y = layer.forward(&Matrix::from_rows(&[&[3.0]]));
        assert_eq!(y.as_slice(), &[3.0, 0.0]);
    }

    #[test]
    fn forward_inference_outer_matches_materialized_pairs() {
        let mut rng = seeded(10);
        let layer = Dense::new(5, 4, Activation::Relu, &mut rng);
        let left = Matrix::from_rows(&[&[0.3, -0.1, 0.7], &[1.2, 0.0, -0.4]]);
        let right = Matrix::from_rows(&[&[0.5, -0.9], &[-0.2, 0.4], &[0.0, 1.1]]);
        let out = layer.forward_inference_outer(&left, &right);
        assert_eq!(out.rows(), 6);
        assert_eq!(out.cols(), 4);
        for i in 0..left.rows() {
            for j in 0..right.rows() {
                let mut full: Vec<f32> = left.row(i).to_vec();
                full.extend_from_slice(right.row(j));
                let x = Matrix::from_vec(1, 5, full);
                let want = layer.forward_inference(&x);
                for (got, want) in out.row(i * right.rows() + j).iter().zip(want.row(0)) {
                    assert!(
                        (got - want).abs() <= 1e-6 * want.abs().max(1.0),
                        "pair ({i},{j}): {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "layer input dim mismatch")]
    fn forward_inference_outer_rejects_wrong_split() {
        let mut rng = seeded(11);
        let layer = Dense::new(4, 2, Activation::Relu, &mut rng);
        let left = Matrix::from_rows(&[&[0.1, 0.2]]);
        let right = Matrix::from_rows(&[&[0.3]]);
        let _ = layer.forward_inference_outer(&left, &right);
    }

    #[test]
    fn backward_computes_known_gradients() {
        let mut rng = seeded(3);
        let mut layer = Dense::new(2, 1, Activation::Identity, &mut rng);
        layer.read_params(&[0.5, -0.5, 0.0]);
        let x = Matrix::from_rows(&[&[1.0, 2.0]]);
        let _ = layer.forward(&x);
        let dx = layer.backward(&Matrix::from_rows(&[&[1.0]]));
        // dL/dx = d_pre * W^T = [0.5, -0.5]
        assert_eq!(dx.as_slice(), &[0.5, -0.5]);
        // dW = x^T * d_pre = [1, 2]^T
        let [(_, gw), (_, gb)] = layer.params_and_grads();
        assert_eq!(gw, &[1.0, 2.0]);
        assert_eq!(gb, &[1.0]);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = seeded(4);
        let mut layer = Dense::new(1, 1, Activation::Identity, &mut rng);
        layer.read_params(&[1.0, 0.0]);
        let x = Matrix::from_rows(&[&[2.0]]);
        for _ in 0..3 {
            let _ = layer.forward(&x);
            let _ = layer.backward(&Matrix::from_rows(&[&[1.0]]));
        }
        {
            let [(_, gw), _] = layer.params_and_grads();
            assert_eq!(gw, &[6.0]);
        }
        layer.zero_grad();
        let [(_, gw), _] = layer.params_and_grads();
        assert_eq!(gw, &[0.0]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_requires_forward() {
        let mut rng = seeded(5);
        let mut layer = Dense::new(1, 1, Activation::Identity, &mut rng);
        let _ = layer.backward(&Matrix::from_rows(&[&[1.0]]));
    }

    #[test]
    fn param_round_trip() {
        let mut rng = seeded(6);
        let src = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let mut buf = Vec::new();
        src.write_params(&mut buf);
        assert_eq!(buf.len(), src.param_count());
        let mut dst = Dense::new(3, 2, Activation::Tanh, &mut rng);
        let consumed = dst.read_params(&buf);
        assert_eq!(consumed, buf.len());
        let mut buf2 = Vec::new();
        dst.write_params(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn copy_params_from_syncs_layers() {
        let mut rng = seeded(7);
        let src = Dense::new(2, 2, Activation::Relu, &mut rng);
        let mut dst = Dense::new(2, 2, Activation::Relu, &mut rng);
        dst.copy_params_from(&src);
        let x = Matrix::from_rows(&[&[0.3, -0.7]]);
        assert_eq!(src.forward_inference(&x), dst.forward_inference(&x));
    }
}
