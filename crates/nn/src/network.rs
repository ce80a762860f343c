//! A feed-forward network: a stack of [`Dense`] layers with training
//! plumbing (forward, backward, optimizer dispatch, parameter sync).

use crate::activation::Activation;
use crate::layer::Dense;
use crate::optimizer::Optimizer;
use crowdrl_linalg::{Matrix, NumericMode};
use rand::Rng;

/// A multi-layer perceptron.
///
/// Built from a list of layer sizes and a hidden activation; the output
/// layer is always [`Activation::Identity`] so heads can apply softmax (via
/// the loss) or use raw values as Q-estimates.
#[derive(Debug, Clone)]
pub struct Network {
    layers: Vec<Dense>,
    /// Reused clip buffer for [`Network::step`] — avoids one allocation
    /// per tensor per optimizer step when gradient clipping is on.
    clip_scratch: Vec<f32>,
}

impl Network {
    /// Build an MLP with `sizes = [in, h1, ..., out]` and `hidden`
    /// activation on all non-final layers.
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn mlp<R: Rng + ?Sized>(sizes: &[usize], hidden: Activation, rng: &mut R) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let is_last = layers.len() == sizes.len() - 2;
            let act = if is_last {
                Activation::Identity
            } else {
                hidden
            };
            layers.push(Dense::new(w[0], w[1], act, rng));
        }
        Self {
            layers,
            clip_scratch: Vec::new(),
        }
    }

    /// Set the numeric mode on every layer (see [`Dense::set_numeric_mode`]
    /// for which paths dispatch on it). `Reference` (the default) keeps the
    /// bit-pinned blocked kernels; `Fast` enables the SIMD kernels for
    /// training forwards/backwards and batched inference.
    pub fn set_numeric_mode(&mut self, mode: NumericMode) {
        for layer in &mut self.layers {
            layer.set_numeric_mode(mode);
        }
    }

    /// The network's numeric mode (uniform across layers).
    pub fn numeric_mode(&self) -> NumericMode {
        self.layers
            .first()
            .map(Dense::numeric_mode)
            .unwrap_or_default()
    }

    /// Total scratch-buffer accounting across layers: `(reuses, bytes)`
    /// served from reused buffers instead of fresh allocations (see the
    /// `serve.scratch.*` obs counters).
    pub fn scratch_stats(&self) -> (u64, u64) {
        self.layers
            .iter()
            .map(Dense::scratch_stats)
            .fold((0, 0), |(reuses, bytes), (r, b)| (reuses + r, bytes + b))
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().expect("network has layers").input_dim()
    }

    /// Output dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers.last().expect("network has layers").output_dim()
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Training forward pass (caches per-layer state).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first_mut().expect("network has layers");
        let mut h = first.forward(x);
        for layer in rest {
            h = layer.forward(&h);
        }
        h
    }

    /// Inference forward pass (no caching, usable on `&self`).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("network has layers");
        let mut h = first.forward_inference(x);
        for layer in rest {
            h = layer.forward_inference(&h);
        }
        h
    }

    /// Inference forward where the input factors over the cartesian
    /// product of `left` and `right` row blocks: the full input of pair
    /// `(i, j)` is `concat(left.row(i), right.row(j))` and its output
    /// lands in row `i * right.rows() + j` (row-major, left-outer).
    ///
    /// The first layer computes each block's partial pre-activation once
    /// per *distinct* row and sums them per pair (see
    /// [`Dense::forward_inference_outer`]); the remaining layers run as
    /// one batched forward over all pairs. When many left rows pair with
    /// many right rows this removes most of the first layer's
    /// multiply-adds. Matches [`Network::forward_inference`] on the
    /// materialized pair matrix up to f32 rounding in the first layer's
    /// reduction order.
    pub fn forward_inference_outer(&self, left: &Matrix, right: &Matrix) -> Matrix {
        let mut h = self.layers[0].forward_inference_outer(left, right);
        for layer in &self.layers[1..] {
            h = layer.forward_inference(&h);
        }
        h
    }

    /// The first layer — the decide path builds per-block first-layer rows
    /// against its weights directly.
    pub fn first_layer(&self) -> &Dense {
        &self.layers[0]
    }

    /// Run layers `1..` over an already-activated first-layer output.
    /// Combined with externally assembled first-layer activations
    /// (annotator-block partials resumed with run-level features), this is
    /// bit-identical per row to [`Network::forward_inference_outer`]
    /// because every layer forward is row-independent.
    pub fn tail_forward_inference(&self, h: &Matrix) -> Matrix {
        let mut h = h.clone();
        for layer in &self.layers[1..] {
            h = layer.forward_inference(&h);
        }
        h
    }

    /// Backpropagate `d_out = dL/d(output)`, accumulating layer gradients.
    /// The first layer skips its `dL/dx` product (no caller consumes the
    /// network's input gradient); the skip is bit-invisible to every
    /// accumulated gradient.
    pub fn backward(&mut self, d_out: &Matrix) {
        let (first, rest) = self.layers.split_first_mut().expect("network has layers");
        match rest.split_last_mut() {
            None => first.backward_params_only(d_out),
            Some((last, mid)) => {
                let mut g = last.backward(d_out);
                for layer in mid.iter_mut().rev() {
                    g = layer.backward(&g);
                }
                first.backward_params_only(&g);
            }
        }
    }

    /// Clear all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Apply one optimizer step using the accumulated gradients, with
    /// optional gradient-norm clipping (`max_grad` per tensor, infinity
    /// norm).
    pub fn step(&mut self, opt: &mut dyn Optimizer, max_grad: Option<f32>) {
        let clip_scratch = &mut self.clip_scratch;
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (pi, (param, grad)) in layer.params_and_grads().into_iter().enumerate() {
                let slot = li * 2 + pi;
                if let Some(limit) = max_grad {
                    clip_scratch.clear();
                    clip_scratch.extend_from_slice(grad);
                    crowdrl_linalg::ops::clip_inplace(clip_scratch, limit);
                    opt.update(slot, param, clip_scratch);
                } else {
                    opt.update(slot, param, grad);
                }
            }
        }
    }

    /// Copy all parameters from `other` (target-network sync). Panics on
    /// architecture mismatch.
    pub fn copy_params_from(&mut self, other: &Network) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "layer count mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.copy_params_from(src);
        }
    }

    /// Soft target update: `θ_self = (1 - tau) θ_self + tau θ_other`.
    pub fn blend_params_from(&mut self, other: &Network, tau: f32) {
        assert!((0.0..=1.0).contains(&tau), "tau must be in [0,1]");
        let theirs = other.flatten_params();
        let mut ours = self.flatten_params();
        for (o, t) in ours.iter_mut().zip(&theirs) {
            *o = (1.0 - tau) * *o + tau * t;
        }
        self.load_params(&ours);
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Serialize all parameters into one flat vector.
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.write_params(&mut out);
        }
        out
    }

    /// Load parameters from a flat vector produced by
    /// [`Network::flatten_params`]. Panics on length mismatch.
    pub fn load_params(&mut self, data: &[f32]) {
        assert_eq!(
            data.len(),
            self.param_count(),
            "parameter buffer length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.read_params(&data[offset..]);
        }
    }

    /// Finite-difference gradient check: returns the maximum relative error
    /// between analytic and numeric gradients of `loss_fn` over all
    /// parameters. Test-support API; slow by design.
    pub fn gradient_check(
        &mut self,
        x: &Matrix,
        loss_fn: &dyn Fn(&Matrix) -> (f32, Matrix),
        h: f32,
    ) -> f32 {
        // Analytic gradients.
        self.zero_grad();
        let out = self.forward(x);
        let (_, d_out) = loss_fn(&out);
        self.backward(&d_out);
        let analytic: Vec<f32> = {
            let mut grads = Vec::new();
            for layer in &mut self.layers {
                for (_, grad) in layer.params_and_grads() {
                    grads.extend_from_slice(grad);
                }
            }
            grads
        };

        let mut params = self.flatten_params();
        let mut max_rel = 0.0f32;
        for i in 0..params.len() {
            let orig = params[i];
            params[i] = orig + h;
            self.load_params(&params);
            let (lp, _) = loss_fn(&self.forward_inference(x));
            params[i] = orig - h;
            self.load_params(&params);
            let (lm, _) = loss_fn(&self.forward_inference(x));
            params[i] = orig;
            let numeric = (lp - lm) / (2.0 * h);
            let denom = analytic[i].abs().max(numeric.abs()).max(1e-4);
            max_rel = max_rel.max((analytic[i] - numeric).abs() / denom);
        }
        self.load_params(&params);
        max_rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss;
    use crate::optimizer::{Adam, Sgd};
    use crowdrl_types::rng::seeded;

    #[test]
    fn mlp_shapes() {
        let mut rng = seeded(1);
        let net = Network::mlp(&[4, 8, 3], Activation::Relu, &mut rng);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.num_layers(), 2);
        assert_eq!(net.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn forward_and_inference_agree() {
        let mut rng = seeded(2);
        let mut net = Network::mlp(&[3, 5, 2], Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[&[0.1, -0.2, 0.3], &[1.0, 0.0, -1.0]]);
        let train = net.forward(&x);
        let infer = net.forward_inference(&x);
        assert_eq!(train, infer);
        assert_eq!(train.rows(), 2);
        assert_eq!(train.cols(), 2);
    }

    #[test]
    fn forward_inference_outer_matches_pair_forward() {
        let mut rng = seeded(21);
        let net = Network::mlp(&[6, 8, 4, 1], Activation::Relu, &mut rng);
        let left = Matrix::from_rows(&[&[0.2, -0.5, 0.9, 0.1], &[-1.1, 0.3, 0.0, 0.7]]);
        let right = Matrix::from_rows(&[&[0.4, -0.2], &[1.3, 0.6], &[-0.8, 0.0]]);
        let out = net.forward_inference_outer(&left, &right);
        assert_eq!(out.rows(), 6);
        assert_eq!(out.cols(), 1);
        for i in 0..left.rows() {
            for j in 0..right.rows() {
                let mut full: Vec<f32> = left.row(i).to_vec();
                full.extend_from_slice(right.row(j));
                let want = net
                    .forward_inference(&Matrix::from_vec(1, 6, full))
                    .get(0, 0);
                let got = out.get(i * right.rows() + j, 0);
                assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "pair ({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn cached_partial_resume_matches_outer_bitwise() {
        // The decide-path contract: accumulating the first layer's
        // right-block partial in two column chunks (cacheable prefix, then
        // run-level suffix), adding the bias, combining with the left
        // partial and running the tail must reproduce
        // `forward_inference_outer` bit for bit.
        let mut rng = seeded(31);
        let net = Network::mlp(&[10, 8, 4, 1], Activation::Relu, &mut rng);
        let left = Matrix::from_rows(&[&[0.2f32, -0.5, 0.9, 0.1], &[-1.1, 0.3, 0.0, 0.7]]);
        let right = Matrix::from_rows(&[
            &[0.4f32, -0.2, 0.0, 1.5, -0.3, 0.8],
            &[1.3, 0.6, -0.4, 0.0, 0.2, -1.0],
            &[-0.8, 0.0, 0.5, 0.9, -1.2, 0.1],
        ]);
        let reference = net.forward_inference_outer(&left, &right);

        let first = net.first_layer();
        let lp = first.partial_matmul(&left, 0);
        let h1 = first.output_dim();
        let mut combined = Matrix::zeros(left.rows() * right.rows(), h1);
        for j in 0..right.rows() {
            // Cacheable prefix: first 4 of the 6 right columns.
            let mut partial = vec![0.0f32; h1];
            first.accumulate_partial(&mut partial, &right.row(j)[..4], left.cols());
            // Resume with the remaining 2 columns, then bias.
            let mut rp = partial.clone();
            first.accumulate_partial(&mut rp, &right.row(j)[4..], left.cols() + 4);
            for (v, b) in rp.iter_mut().zip(first.bias()) {
                *v += b;
            }
            for i in 0..left.rows() {
                let dst = combined.row_mut(i * right.rows() + j);
                for (h, d) in dst.iter_mut().enumerate() {
                    *d = first.activation().apply(lp.get(i, h) + rp[h]);
                }
            }
        }
        let out = net.tail_forward_inference(&combined);
        assert_eq!(out.rows(), reference.rows());
        for r in 0..out.rows() {
            assert_eq!(
                out.get(r, 0).to_bits(),
                reference.get(r, 0).to_bits(),
                "row {r}"
            );
        }
    }

    #[test]
    fn fast_mode_matches_reference_within_tolerance() {
        // Full-network parity between the SIMD fast path and the reference
        // kernels: training forward, inference forward, and one optimizer
        // step. The modes differ only in reduction order, so outputs agree
        // to the documented fast-kernel tolerance (1e-4 relative — see
        // crowdrl_linalg::simd).
        let mut rng = seeded(77);
        let reference = Network::mlp(&[12, 32, 16, 4], Activation::Relu, &mut rng);
        let mut fast = reference.clone();
        fast.set_numeric_mode(NumericMode::Fast);
        assert_eq!(fast.numeric_mode(), NumericMode::Fast);
        assert_eq!(reference.numeric_mode(), NumericMode::Reference);

        let mut vals = seeded(78);
        let x = Matrix::from_vec(
            9,
            12,
            (0..108).map(|_| vals.random::<f32>() * 2.0 - 1.0).collect(),
        );
        let want = reference.forward_inference(&x);
        let got = fast.forward_inference(&x);
        for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
            assert!(
                (w - g).abs() <= 1e-4 * w.abs().max(1.0),
                "inference diverged: {w} vs {g}"
            );
        }

        // One training step in each mode stays within tolerance too.
        let mut reference = reference;
        let target = Matrix::zeros(9, 4);
        for net in [&mut reference, &mut fast] {
            net.zero_grad();
            let out = net.forward(&x);
            let (_, d) = loss::huber(&out, &target, 1.0);
            net.backward(&d);
            net.step(&mut Adam::new(1e-2), Some(1.0));
        }
        for (w, g) in reference.flatten_params().iter().zip(fast.flatten_params()) {
            assert!(
                (w - g).abs() <= 1e-4 * w.abs().max(1.0),
                "post-step params diverged: {w} vs {g}"
            );
        }
    }

    #[test]
    fn param_round_trip_preserves_outputs() {
        let mut rng = seeded(3);
        let src = Network::mlp(&[2, 4, 2], Activation::Relu, &mut rng);
        let mut dst = Network::mlp(&[2, 4, 2], Activation::Relu, &mut rng);
        dst.load_params(&src.flatten_params());
        let x = Matrix::from_rows(&[&[0.5, -0.5]]);
        assert_eq!(src.forward_inference(&x), dst.forward_inference(&x));
    }

    #[test]
    fn copy_and_blend_params() {
        let mut rng = seeded(4);
        let src = Network::mlp(&[2, 3, 1], Activation::Relu, &mut rng);
        let mut dst = Network::mlp(&[2, 3, 1], Activation::Relu, &mut rng);
        dst.copy_params_from(&src);
        assert_eq!(src.flatten_params(), dst.flatten_params());

        let mut half = Network::mlp(&[2, 3, 1], Activation::Relu, &mut rng);
        let before = half.flatten_params();
        half.blend_params_from(&src, 0.5);
        let after = half.flatten_params();
        for ((b, a), s) in before.iter().zip(&after).zip(src.flatten_params()) {
            assert!((a - 0.5 * (b + s)).abs() < 1e-6);
        }
    }

    #[test]
    fn training_reduces_cross_entropy_on_xor() {
        let mut rng = seeded(5);
        let mut net = Network::mlp(&[2, 16, 2], Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0], &[1.0, 0.0]]);
        let mut opt = Adam::new(0.05);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..400 {
            net.zero_grad();
            let out = net.forward(&x);
            let (l, d) = loss::softmax_cross_entropy(&out, &y, None);
            net.backward(&d);
            net.step(&mut opt, None);
            first.get_or_insert(l);
            last = l;
        }
        assert!(last < 0.1 * first.unwrap(), "first={:?} last={last}", first);
        // Predictions match XOR.
        let out = net.forward_inference(&x);
        for (i, want) in [0usize, 1, 1, 0].into_iter().enumerate() {
            assert_eq!(crowdrl_linalg::ops::argmax(out.row(i)), want, "row {i}");
        }
    }

    #[test]
    fn gradient_check_passes_for_ce_loss() {
        let mut rng = seeded(6);
        let mut net = Network::mlp(&[3, 4, 2], Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[&[0.2, -0.1, 0.4], &[-0.3, 0.5, 0.0]]);
        let targets = Matrix::from_rows(&[&[1.0, 0.0], &[0.3, 0.7]]);
        let loss_fn = move |out: &Matrix| loss::softmax_cross_entropy(out, &targets, None);
        let max_rel = net.gradient_check(&x, &loss_fn, 1e-2);
        assert!(max_rel < 0.05, "max relative gradient error {max_rel}");
    }

    #[test]
    fn gradient_check_passes_for_huber_loss() {
        let mut rng = seeded(7);
        let mut net = Network::mlp(&[2, 5, 1], Activation::Tanh, &mut rng);
        let x = Matrix::from_rows(&[&[0.7, -0.2]]);
        let target = Matrix::from_rows(&[&[0.3]]);
        let loss_fn = move |out: &Matrix| loss::huber(out, &target, 1.0);
        let max_rel = net.gradient_check(&x, &loss_fn, 1e-2);
        assert!(max_rel < 0.05, "max relative gradient error {max_rel}");
    }

    #[test]
    fn step_with_clipping_bounds_update() {
        let mut rng = seeded(8);
        let mut net = Network::mlp(&[1, 1], Activation::Identity, &mut rng);
        let before = net.flatten_params();
        net.zero_grad();
        let out = net.forward(&Matrix::from_rows(&[&[100.0]]));
        let (_, d) = loss::mse(&out, &Matrix::from_rows(&[&[-1000.0]]));
        net.backward(&d);
        net.step(&mut Sgd::new(1.0), Some(0.5));
        let after = net.flatten_params();
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() <= 0.5 + 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "need at least input and output sizes")]
    fn mlp_rejects_single_size() {
        let mut rng = seeded(9);
        let _ = Network::mlp(&[4], Activation::Relu, &mut rng);
    }
}
