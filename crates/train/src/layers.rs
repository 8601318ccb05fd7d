//! Trainable layers with explicit forward/backward passes.
//!
//! The centrepiece is [`ConvLayer`], which trains either as a conventional
//! convolution or as a **block convolution** ([`bconv_core`]): because
//! blocks are independent, both the forward and the backward pass are
//! block-local, which is exactly why the paper can fine-tune blocked
//! networks with unmodified hyperparameters.
//!
//! All convolutions here are stride-1 (the paper's baselines rewrite
//! strided convolutions as stride-1 + pooling, §II-F); spatial reduction is
//! done by [`MaxPoolLayer`].

use std::sync::Arc;

use bconv_core::blocking::{BlockGrid, BlockingPattern};
use bconv_core::BlockConv2d;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, he_linear};
use bconv_tensor::kernel::ConvScratch;
use bconv_tensor::linear::Linear;
use bconv_tensor::pad::{pad2d_backward, PadMode};
use bconv_tensor::pool::max_pool2d_with_argmax;
use bconv_tensor::{Tensor, TensorError};
use rand::rngs::StdRng;

use bconv_quant::fake_quant_dynamic;

/// Hyper-parameters of one optimiser update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (SGD mode only).
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Element-wise gradient clipping bound (VDSR-style training relies on
    /// clipping to tolerate high learning rates).
    pub grad_clip: f32,
    /// Use Adam instead of momentum SGD. Adam's per-parameter scaling is
    /// what lets the plain (non-residual) small networks escape the
    /// uniform-prediction plateau reliably across seeds.
    pub adam: bool,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self { lr: 0.02, momentum: 0.9, weight_decay: 1e-4, grad_clip: 1.0, adam: false }
    }
}

/// Adam moment decay rates and epsilon (the standard values).
const ADAM_BETA1: f32 = 0.9;
/// Second-moment decay.
const ADAM_BETA2: f32 = 0.999;
/// Numerical floor.
const ADAM_EPS: f32 = 1e-8;

/// Shared parameter-update kernel for both optimisers. `m` is the
/// momentum / first-moment buffer, `v2` the Adam second-moment buffer and
/// `t` the Adam step count (starting at 1).
#[allow(clippy::too_many_arguments)]
fn update_params(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v2: &mut [f32],
    t: u64,
    cfg: SgdConfig,
) {
    let clip = |g: f32| g.clamp(-cfg.grad_clip, cfg.grad_clip);
    if cfg.adam {
        let bc1 = 1.0 - ADAM_BETA1.powi(t as i32);
        let bc2 = 1.0 - ADAM_BETA2.powi(t as i32);
        for ((p, &g0), (mv, vv)) in
            params.iter_mut().zip(grads).zip(m.iter_mut().zip(v2.iter_mut()))
        {
            let g = clip(g0) + cfg.weight_decay * *p;
            *mv = ADAM_BETA1 * *mv + (1.0 - ADAM_BETA1) * g;
            *vv = ADAM_BETA2 * *vv + (1.0 - ADAM_BETA2) * g * g;
            let mhat = *mv / bc1;
            let vhat = *vv / bc2;
            *p -= cfg.lr * mhat / (vhat.sqrt() + ADAM_EPS);
        }
    } else {
        for ((p, &g0), mv) in params.iter_mut().zip(grads).zip(m.iter_mut()) {
            let g = clip(g0) + cfg.weight_decay * *p;
            *mv = cfg.momentum * *mv + g;
            *p -= cfg.lr * *mv;
        }
    }
}

/// Common interface of trainable layers.
pub trait TrainLayer {
    /// Forward pass; caches activations needed by backward when `train`.
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError>;
    /// Backward pass: consumes `d_out`, accumulates parameter gradients and
    /// returns the gradient w.r.t. the layer input.
    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError>;
    /// Applies one SGD step and clears gradients.
    fn step(&mut self, cfg: SgdConfig);
}

// ---------------------------------------------------------------------------
// Convolution (conventional or blocked)
// ---------------------------------------------------------------------------

/// How a [`ConvLayer`] handles blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocking {
    /// Conventional convolution (symmetric zero padding `p`).
    None,
    /// Block convolution under a pattern with the given block-padding mode.
    Pattern(BlockingPattern, PadMode),
}

struct ConvCache {
    /// The block convolution the forward pass ran: backward reads the
    /// grid, the pad mode and the per-block pads from it.
    plan: BlockConv2d,
    /// Per-block padded inputs, row-major over the grid.
    padded_blocks: Vec<Tensor>,
    input_dims: [usize; 4],
}

/// A trainable stride-1 convolution, optionally blocked. Forward and
/// backward both go through one planned [`BlockConv2d`] — the operator
/// the inference engine executes — so accuracy and hardware numbers are
/// measured on the same block convolution.
pub struct ConvLayer {
    conv: Arc<Conv2d>,
    blocking: Blocking,
    /// Fake-quantize weights in forward (training-aware quantization).
    pub fake_quant_bits: Option<u8>,
    d_weight: Tensor,
    d_bias: Vec<f32>,
    v_weight: Tensor,
    v_bias: Vec<f32>,
    v2_weight: Tensor,
    v2_bias: Vec<f32>,
    steps: u64,
    cache: Option<ConvCache>,
}

impl ConvLayer {
    /// He-initialised conv layer: `c_in -> c_out`, `k × k`, "same" padding.
    ///
    /// # Errors
    ///
    /// Propagates constructor errors from the tensor crate.
    pub fn new(
        c_in: usize,
        c_out: usize,
        k: usize,
        groups: usize,
        blocking: Blocking,
        rng: &mut StdRng,
    ) -> Result<Self, TensorError> {
        let conv = Arc::new(he_conv2d(c_in, c_out, ConvGeom::same(k), groups, rng)?);
        let wdims = conv.weight().shape();
        Ok(Self {
            d_weight: Tensor::zeros(wdims.dims()),
            d_bias: vec![0.0; c_out],
            v_weight: Tensor::zeros(wdims.dims()),
            v_bias: vec![0.0; c_out],
            v2_weight: Tensor::zeros(wdims.dims()),
            v2_bias: vec![0.0; c_out],
            steps: 0,
            conv,
            blocking,
            fake_quant_bits: None,
            cache: None,
        })
    }

    /// The wrapped convolution (weights/bias).
    pub fn conv(&self) -> &Conv2d {
        &self.conv
    }

    /// Mutable weight tensor (custom initialisation schemes).
    pub fn conv_weight_mut(&mut self) -> &mut Tensor {
        Arc::make_mut(&mut self.conv).weight_mut()
    }

    /// Sets the blocking mode (used when converting a pre-trained baseline
    /// to a blocked network for fine-tuning).
    pub fn set_blocking(&mut self, blocking: Blocking) {
        self.blocking = blocking;
    }

    /// The block convolution of `conv` on an `h × w` input: one
    /// zero-padded block when unblocked, the pattern's grid otherwise.
    fn plan(&self, conv: Arc<Conv2d>, h: usize, w: usize) -> Result<BlockConv2d, TensorError> {
        match self.blocking {
            Blocking::None => BlockConv2d::plan(conv, BlockGrid::single(h, w), PadMode::Zero),
            Blocking::Pattern(pattern, mode) => {
                BlockConv2d::from_pattern(conv, h, w, pattern, mode)
            }
        }
    }
}

impl TrainLayer for ConvLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let [n, _c, h, w] = x.shape().dims();
        // Training-aware quantization: fake-quantize weights (straight-
        // through estimator in backward).
        let exec_conv = match self.fake_quant_bits {
            Some(bits) => {
                let qw = fake_quant_dynamic(self.conv.weight(), bits);
                let conv = &self.conv;
                Arc::new(Conv2d::new(qw, conv.bias().to_vec(), conv.geom(), conv.groups())?)
            }
            None => Arc::clone(&self.conv),
        };
        let plan = self.plan(exec_conv, h, w)?;
        let grid = plan.grid();

        let mut out = Tensor::zeros([n, self.conv.c_out(), h, w]);
        let mut padded_blocks = Vec::with_capacity(grid.num_blocks());
        let (mut padded, mut block_out) = (Tensor::default(), Tensor::default());
        let mut scratch = ConvScratch::default();
        for row in 0..grid.num_rows() {
            for col in 0..grid.num_cols() {
                let b = grid.block(row, col);
                let cropped = x.crop(b.h0, b.w0, b.bh, b.bw)?;
                plan.pad_block_into(&cropped, row, col, &mut padded)?;
                let kernel = plan.kernel();
                plan.conv().forward_prepadded_into(
                    &padded,
                    kernel,
                    &mut block_out,
                    &mut scratch,
                )?;
                out.paste(&block_out, b.h0, b.w0)?;
                if train {
                    padded_blocks.push(std::mem::take(&mut padded));
                }
            }
        }
        if train {
            self.cache = Some(ConvCache { plan, padded_blocks, input_dims: x.shape().dims() });
        }
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let cache = self
            .cache
            .take()
            .ok_or_else(|| TensorError::invalid("ConvLayer::backward without forward"))?;
        let n = cache.input_dims[0];
        let (grid, mode) = (cache.plan.grid(), cache.plan.pad_mode());
        let k = self.conv.geom().kernel;
        let groups = self.conv.groups();
        let c_out = self.conv.c_out();
        let c_in = self.conv.c_in();
        let cin_per_group = c_in / groups;
        let cout_per_group = c_out / groups;
        let wshape = self.conv.weight().shape();
        let wdata = self.conv.weight().data();

        let mut d_input = Tensor::zeros(cache.input_dims);
        for row in 0..grid.num_rows() {
            for col in 0..grid.num_cols() {
                let b = grid.block(row, col);
                let (pt, pb, pl, pr) = cache.plan.block_padding(row, col);
                let padded = &cache.padded_blocks[row * grid.num_cols() + col];
                let d_block = d_out.crop(b.h0, b.w0, b.bh, b.bw)?;
                let [_, _, ph, pw] = padded.shape().dims();
                let mut d_padded = Tensor::zeros([n, c_in, ph, pw]);

                for ni in 0..n {
                    for g in 0..groups {
                        for mo in 0..cout_per_group {
                            let m = g * cout_per_group + mo;
                            for oh in 0..b.bh {
                                for ow in 0..b.bw {
                                    let dy = d_block.at(ni, m, oh, ow);
                                    if dy == 0.0 {
                                        continue;
                                    }
                                    self.d_bias[m] += dy;
                                    for ci in 0..cin_per_group {
                                        let c = g * cin_per_group + ci;
                                        for kh in 0..k {
                                            let w_row = wshape.index(m, ci, kh, 0);
                                            for kw in 0..k {
                                                let xv = padded.at(ni, c, oh + kh, ow + kw);
                                                // dW accumulation.
                                                let dwi = w_row + kw;
                                                self.d_weight.data_mut()[dwi] += dy * xv;
                                                // dX (padded) accumulation.
                                                *d_padded.at_mut(ni, c, oh + kh, ow + kw) +=
                                                    dy * wdata[dwi];
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                let d_cropped =
                    pad2d_backward(&d_padded, [n, c_in, b.bh, b.bw], pt, pb, pl, pr, mode)?;
                // Blocks tile the input, so each block gradient lands on
                // pixels nothing else writes.
                d_input.paste(&d_cropped, b.h0, b.w0)?;
            }
        }
        Ok(d_input)
    }

    fn step(&mut self, cfg: SgdConfig) {
        self.steps += 1;
        let conv = Arc::make_mut(&mut self.conv);
        update_params(
            conv.weight_mut().data_mut(),
            self.d_weight.data(),
            self.v_weight.data_mut(),
            self.v2_weight.data_mut(),
            self.steps,
            cfg,
        );
        // Biases skip weight decay.
        let bias_cfg = SgdConfig { weight_decay: 0.0, ..cfg };
        update_params(
            conv.bias_mut(),
            &self.d_bias,
            &mut self.v_bias,
            &mut self.v2_bias,
            self.steps,
            bias_cfg,
        );
        for d in self.d_weight.data_mut() {
            *d = 0.0;
        }
        for d in &mut self.d_bias {
            *d = 0.0;
        }
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Trainable leaky ReLU (slope [`LEAKY_SLOPE`] on the negative side).
///
/// The training framework uses a leaky rather than hard ReLU: with the
/// sparse synthetic tasks a hard ReLU frequently kills the gradient of
/// plain (non-residual) networks at initialisation.
#[derive(Default)]
pub struct ReluLayer {
    mask: Option<Vec<bool>>,
}

/// Negative-side slope of [`ReluLayer`].
pub const LEAKY_SLOPE: f32 = 0.1;

impl ReluLayer {
    /// New leaky-ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TrainLayer for ReluLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        if train {
            self.mask = Some(x.data().iter().map(|&v| v > 0.0).collect());
        }
        Ok(x.map(|v| if v > 0.0 { v } else { LEAKY_SLOPE * v }))
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let mask = self
            .mask
            .take()
            .ok_or_else(|| TensorError::invalid("ReluLayer::backward without forward"))?;
        let mut d = d_out.clone();
        for (v, m) in d.data_mut().iter_mut().zip(mask) {
            if !m {
                *v *= LEAKY_SLOPE;
            }
        }
        Ok(d)
    }

    fn step(&mut self, _cfg: SgdConfig) {}
}

// ---------------------------------------------------------------------------
// Max pooling
// ---------------------------------------------------------------------------

/// Trainable `k × k` stride-`k` max pooling.
pub struct MaxPoolLayer {
    k: usize,
    cache: Option<(Vec<usize>, [usize; 4])>,
}

impl MaxPoolLayer {
    /// New pooling layer with window and stride `k`.
    pub fn new(k: usize) -> Self {
        Self { k, cache: None }
    }
}

impl TrainLayer for MaxPoolLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let (out, argmax) = max_pool2d_with_argmax(x, self.k, self.k)?;
        if train {
            self.cache = Some((argmax, x.shape().dims()));
        }
        Ok(out)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let (argmax, dims) = self
            .cache
            .take()
            .ok_or_else(|| TensorError::invalid("MaxPoolLayer::backward without forward"))?;
        let mut d = Tensor::zeros(dims);
        for (flat, &src) in argmax.iter().enumerate() {
            d.data_mut()[src] += d_out.data()[flat];
        }
        Ok(d)
    }

    fn step(&mut self, _cfg: SgdConfig) {}
}

// ---------------------------------------------------------------------------
// Global average pooling
// ---------------------------------------------------------------------------

/// Trainable global average pooling to `1 × 1`.
#[derive(Default)]
pub struct GlobalAvgPoolLayer {
    dims: Option<[usize; 4]>,
}

impl GlobalAvgPoolLayer {
    /// New global-average-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TrainLayer for GlobalAvgPoolLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        if train {
            self.dims = Some(x.shape().dims());
        }
        Ok(bconv_tensor::pool::global_avg_pool(x))
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let dims = self
            .dims
            .take()
            .ok_or_else(|| TensorError::invalid("GlobalAvgPool::backward without forward"))?;
        let [n, c, h, w] = dims;
        let inv = 1.0 / (h * w) as f32;
        let mut d = Tensor::zeros(dims);
        for ni in 0..n {
            for ci in 0..c {
                let g = d_out.at(ni, ci, 0, 0) * inv;
                for hh in 0..h {
                    for ww in 0..w {
                        *d.at_mut(ni, ci, hh, ww) = g;
                    }
                }
            }
        }
        Ok(d)
    }

    fn step(&mut self, _cfg: SgdConfig) {}
}

// ---------------------------------------------------------------------------
// Fully connected
// ---------------------------------------------------------------------------

/// Trainable fully-connected layer (flattens its input).
pub struct LinearLayer {
    lin: Linear,
    d_weight: Vec<f32>,
    d_bias: Vec<f32>,
    v_weight: Vec<f32>,
    v_bias: Vec<f32>,
    v2_weight: Vec<f32>,
    v2_bias: Vec<f32>,
    steps: u64,
    cache: Option<(Tensor, [usize; 4])>,
}

impl LinearLayer {
    /// He-initialised linear layer.
    ///
    /// # Errors
    ///
    /// Propagates constructor errors from the tensor crate.
    pub fn new(in_f: usize, out_f: usize, rng: &mut StdRng) -> Result<Self, TensorError> {
        let lin = he_linear(in_f, out_f, rng)?;
        Ok(Self {
            d_weight: vec![0.0; in_f * out_f],
            d_bias: vec![0.0; out_f],
            v_weight: vec![0.0; in_f * out_f],
            v_bias: vec![0.0; out_f],
            v2_weight: vec![0.0; in_f * out_f],
            v2_bias: vec![0.0; out_f],
            steps: 0,
            lin,
            cache: None,
        })
    }
}

impl TrainLayer for LinearLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        if train {
            self.cache = Some((x.clone(), x.shape().dims()));
        }
        self.lin.forward(x)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let (x, dims) = self
            .cache
            .take()
            .ok_or_else(|| TensorError::invalid("LinearLayer::backward without forward"))?;
        let [n, c, h, w] = dims;
        let in_f = c * h * w;
        let out_f = self.lin.out_features();
        let mut d_input = Tensor::zeros(dims);
        for ni in 0..n {
            let xr = &x.data()[ni * in_f..(ni + 1) * in_f];
            let dr = &d_out.data()[ni * out_f..(ni + 1) * out_f];
            for (o, &dy) in dr.iter().enumerate() {
                if dy == 0.0 {
                    continue;
                }
                self.d_bias[o] += dy;
                let wrow = &self.lin.weight()[o * in_f..(o + 1) * in_f];
                let dwrow = &mut self.d_weight[o * in_f..(o + 1) * in_f];
                let dxr = &mut d_input.data_mut()[ni * in_f..(ni + 1) * in_f];
                for i in 0..in_f {
                    dwrow[i] += dy * xr[i];
                    dxr[i] += dy * wrow[i];
                }
            }
        }
        Ok(d_input)
    }

    fn step(&mut self, cfg: SgdConfig) {
        self.steps += 1;
        update_params(
            self.lin.weight_mut(),
            &self.d_weight,
            &mut self.v_weight,
            &mut self.v2_weight,
            self.steps,
            cfg,
        );
        let bias_cfg = SgdConfig { weight_decay: 0.0, ..cfg };
        update_params(
            self.lin.bias_mut(),
            &self.d_bias,
            &mut self.v_bias,
            &mut self.v2_bias,
            self.steps,
            bias_cfg,
        );
        self.d_weight.iter_mut().for_each(|d| *d = 0.0);
        self.d_bias.iter_mut().for_each(|d| *d = 0.0);
    }
}

// ---------------------------------------------------------------------------
// Sequential container
// ---------------------------------------------------------------------------

/// A sequential stack of trainable layers.
pub struct Sequential {
    layers: Vec<Box<dyn TrainLayer>>,
}

impl Sequential {
    /// New container.
    pub fn new(layers: Vec<Box<dyn TrainLayer>>) -> Self {
        Self { layers }
    }
}

impl TrainLayer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Result<Tensor, TensorError> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train)?;
        }
        Ok(cur)
    }

    fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let mut d = d_out.clone();
        for layer in self.layers.iter_mut().rev() {
            d = layer.backward(&d)?;
        }
        Ok(d)
    }

    fn step(&mut self, cfg: SgdConfig) {
        for layer in &mut self.layers {
            layer.step(cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bconv_tensor::init::{seeded_rng, uniform_tensor};

    /// Finite-difference gradient check for a scalar loss = sum(output).
    fn grad_check_conv(blocking: Blocking) {
        let mut rng = seeded_rng(11);
        let mut layer = ConvLayer::new(2, 2, 3, 1, blocking, &mut rng).unwrap();
        let x = uniform_tensor([1, 2, 8, 8], -1.0, 1.0, &mut rng);
        let out = layer.forward(&x, true).unwrap();
        let ones = Tensor::filled(out.shape(), 1.0);
        let d_input = layer.backward(&ones).unwrap();

        // Check input gradient at a few positions via finite differences.
        let eps = 1e-2;
        for &(c, h, w) in &[(0usize, 0usize, 0usize), (1, 3, 4), (0, 4, 4), (1, 7, 7)] {
            let mut xp = x.clone();
            *xp.at_mut(0, c, h, w) += eps;
            let mut xm = x.clone();
            *xm.at_mut(0, c, h, w) -= eps;
            let mut probe = ConvLayer::new(2, 2, 3, 1, blocking, &mut seeded_rng(11)).unwrap();
            let fp: f32 = probe.forward(&xp, false).unwrap().data().iter().sum();
            let fm: f32 = probe.forward(&xm, false).unwrap().data().iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = d_input.at(0, c, h, w);
            assert!(
                (numeric - analytic).abs() < 0.05 * (1.0 + numeric.abs()),
                "blocking {blocking:?} pixel ({c},{h},{w}): numeric {numeric}, analytic {analytic}"
            );
        }
    }

    #[test]
    fn conv_gradcheck_dense() {
        grad_check_conv(Blocking::None);
    }

    #[test]
    fn conv_gradcheck_blocked_zero() {
        grad_check_conv(Blocking::Pattern(BlockingPattern::hierarchical(2), PadMode::Zero));
    }

    #[test]
    fn conv_gradcheck_blocked_replicate() {
        grad_check_conv(Blocking::Pattern(BlockingPattern::hierarchical(2), PadMode::Replicate));
    }

    #[test]
    fn forward_is_the_core_block_convolution_bit_for_bit() {
        // (c_in, c_out, k, groups, size, pattern, fake-quant bits)
        let (f, h) = (BlockingPattern::fixed, BlockingPattern::hierarchical);
        let cases = [
            (2, 3, 3, 1, 8, None, None),
            (2, 3, 3, 1, 8, Some(f(5)), None),
            (2, 3, 3, 1, 8, Some(h(2)), None),
            (2, 3, 3, 1, 10, Some(h(3)), None), // uneven 4 + 3 + 3 split
            (4, 4, 3, 4, 8, Some(h(2)), None),  // depthwise
            (3, 5, 1, 1, 8, Some(f(4)), None),  // pointwise
            (2, 3, 3, 1, 8, Some(h(2)), Some(8)),
        ];
        for (i, (c_in, c_out, k, groups, size, pattern, bits)) in cases.into_iter().enumerate() {
            for mode in PadMode::ALL {
                let mut rng = seeded_rng(40 + i as u64);
                let blocking = pattern.map_or(Blocking::None, |p| Blocking::Pattern(p, mode));
                let mut layer = ConvLayer::new(c_in, c_out, k, groups, blocking, &mut rng).unwrap();
                layer.fake_quant_bits = bits;
                let x = uniform_tensor([2, c_in, size, size], -1.0, 1.0, &mut rng);
                let mut conv = layer.conv().clone();
                if let Some(bits) = bits {
                    *conv.weight_mut() = fake_quant_dynamic(conv.weight(), bits);
                }
                let core = match pattern {
                    None => BlockConv2d::plan(conv, BlockGrid::single(size, size), PadMode::Zero),
                    Some(p) => BlockConv2d::from_pattern(conv, size, size, p, mode),
                };
                let expect = core.unwrap().forward(&x).unwrap();
                let got = layer.forward(&x, true).unwrap();
                assert_eq!(got.data(), expect.data(), "case {i}, {mode:?}");
            }
        }
    }

    #[test]
    fn conv_weight_gradcheck() {
        let mut rng = seeded_rng(13);
        let mut layer = ConvLayer::new(1, 1, 3, 1, Blocking::None, &mut rng).unwrap();
        let x = uniform_tensor([1, 1, 6, 6], -1.0, 1.0, &mut rng);
        let out = layer.forward(&x, true).unwrap();
        let ones = Tensor::filled(out.shape(), 1.0);
        layer.backward(&ones).unwrap();
        let analytic = layer.d_weight.at(0, 0, 1, 1);
        // Finite difference on the same weight.
        let eps = 1e-2;
        let eval = |delta: f32| -> f32 {
            let mut probe =
                ConvLayer::new(1, 1, 3, 1, Blocking::None, &mut seeded_rng(13)).unwrap();
            *probe.conv_weight_mut().at_mut(0, 0, 1, 1) += delta;
            probe.forward(&x, false).unwrap().data().iter().sum()
        };
        let numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() < 0.05 * (1.0 + numeric.abs()),
            "numeric {numeric}, analytic {analytic}"
        );
    }

    #[test]
    fn blocked_gradients_are_block_local() {
        // With hierarchical blocking, a gradient confined to one output
        // block must produce an input gradient confined to the same block.
        let mut rng = seeded_rng(17);
        let mut layer = ConvLayer::new(
            1,
            1,
            3,
            1,
            Blocking::Pattern(BlockingPattern::hierarchical(2), PadMode::Zero),
            &mut rng,
        )
        .unwrap();
        let x = uniform_tensor([1, 1, 8, 8], -1.0, 1.0, &mut rng);
        layer.forward(&x, true).unwrap();
        let mut d_out = Tensor::zeros([1, 1, 8, 8]);
        *d_out.at_mut(0, 0, 1, 1) = 1.0; // inside block (0,0)
        let d_in = layer.backward(&d_out).unwrap();
        for h in 0..8 {
            for w in 0..8 {
                if h >= 4 || w >= 4 {
                    assert_eq!(d_in.at(0, 0, h, w), 0.0, "leak at ({h},{w})");
                }
            }
        }
    }

    #[test]
    fn relu_backward_masks() {
        let mut relu = ReluLayer::new();
        let x = Tensor::from_fn(1, 1, 2, |_, _, w| if w == 0 { -1.0 } else { 1.0 });
        let y = relu.forward(&x, true).unwrap();
        assert_eq!(y.data(), &[-LEAKY_SLOPE, 1.0]);
        let d = relu.backward(&Tensor::filled([1, 1, 1, 2], 1.0)).unwrap();
        assert_eq!(d.data(), &[LEAKY_SLOPE, 1.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut pool = MaxPoolLayer::new(2);
        let x = Tensor::from_fn(1, 2, 2, |_, h, w| (h * 2 + w) as f32);
        pool.forward(&x, true).unwrap();
        let d = pool.backward(&Tensor::filled([1, 1, 1, 1], 5.0)).unwrap();
        assert_eq!(d.data(), &[0.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn gap_backward_spreads_evenly() {
        let mut gap = GlobalAvgPoolLayer::new();
        let x = Tensor::filled([1, 1, 2, 2], 3.0);
        gap.forward(&x, true).unwrap();
        let d = gap.backward(&Tensor::filled([1, 1, 1, 1], 4.0)).unwrap();
        assert_eq!(d.data(), &[1.0; 4]);
    }

    #[test]
    fn linear_gradcheck() {
        let mut rng = seeded_rng(19);
        let mut lin = LinearLayer::new(4, 2, &mut rng).unwrap();
        let x = uniform_tensor([1, 4, 1, 1], -1.0, 1.0, &mut rng);
        lin.forward(&x, true).unwrap();
        let d = lin.backward(&Tensor::filled([1, 2, 1, 1], 1.0)).unwrap();
        // dx = W^T * 1 = column sums of W.
        for i in 0..4 {
            let expect: f32 = (0..2).map(|o| lin.lin.weight()[o * 4 + i]).sum();
            assert!((d.data()[i] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn sgd_step_reduces_simple_loss() {
        // One conv + GAP trained to emit zero: loss must decrease.
        let mut rng = seeded_rng(23);
        let mut net = Sequential::new(vec![
            Box::new(ConvLayer::new(1, 1, 3, 1, Blocking::None, &mut rng).unwrap()),
            Box::new(GlobalAvgPoolLayer::new()),
        ]);
        let x = uniform_tensor([2, 1, 6, 6], 0.0, 1.0, &mut rng);
        let cfg = SgdConfig {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            grad_clip: 10.0,
            ..SgdConfig::default()
        };
        let loss_of = |out: &Tensor| -> f32 {
            out.data().iter().map(|v| v * v).sum::<f32>() / out.data().len() as f32
        };
        let first = {
            let out = net.forward(&x, true).unwrap();
            let l = loss_of(&out);
            let d = out.map(|v| 2.0 * v / out.data().len() as f32);
            net.backward(&d).unwrap();
            net.step(cfg);
            l
        };
        let mut last = first;
        for _ in 0..20 {
            let out = net.forward(&x, true).unwrap();
            last = loss_of(&out);
            let d = out.map(|v| 2.0 * v / out.data().len() as f32);
            net.backward(&d).unwrap();
            net.step(cfg);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn adam_reduces_simple_loss() {
        let mut rng = seeded_rng(24);
        let mut net = Sequential::new(vec![
            Box::new(ConvLayer::new(1, 1, 3, 1, Blocking::None, &mut rng).unwrap()),
            Box::new(GlobalAvgPoolLayer::new()),
        ]);
        let x = uniform_tensor([2, 1, 6, 6], 0.0, 1.0, &mut rng);
        let cfg = SgdConfig { lr: 0.01, adam: true, weight_decay: 0.0, ..SgdConfig::default() };
        let loss_of = |out: &Tensor| -> f32 {
            out.data().iter().map(|v| v * v).sum::<f32>() / out.data().len() as f32
        };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..30 {
            let out = net.forward(&x, true).unwrap();
            last = loss_of(&out);
            first.get_or_insert(last);
            let d = out.map(|v| 2.0 * v / out.data().len() as f32);
            net.backward(&d).unwrap();
            net.step(cfg);
        }
        assert!(last < first.unwrap() * 0.5, "loss {first:?} -> {last}");
    }

    #[test]
    fn adam_step_is_scale_invariant_at_start() {
        // Adam's first update is ~lr * sign(gradient) regardless of
        // gradient magnitude — the property that rescues tiny-gradient
        // starts.
        let mut rng = seeded_rng(25);
        let mut layer = ConvLayer::new(1, 1, 1, 1, Blocking::None, &mut rng).unwrap();
        let w0 = layer.conv.weight().at(0, 0, 0, 0);
        layer.d_weight.data_mut()[0] = 1e-6; // minuscule gradient
        let cfg = SgdConfig { lr: 0.01, adam: true, weight_decay: 0.0, ..SgdConfig::default() };
        layer.step(cfg);
        let delta = (layer.conv.weight().at(0, 0, 0, 0) - w0).abs();
        assert!((delta - 0.01).abs() < 1e-3, "first Adam step {delta}");
    }

    #[test]
    fn backward_without_forward_is_an_error() {
        let mut rng = seeded_rng(29);
        let mut layer = ConvLayer::new(1, 1, 3, 1, Blocking::None, &mut rng).unwrap();
        assert!(layer.backward(&Tensor::zeros([1, 1, 4, 4])).is_err());
    }

    #[test]
    fn fake_quant_changes_forward_but_not_gradients_path() {
        let mut rng = seeded_rng(31);
        let mut layer = ConvLayer::new(1, 2, 3, 1, Blocking::None, &mut rng).unwrap();
        let x = uniform_tensor([1, 1, 6, 6], -1.0, 1.0, &mut rng);
        let full = layer.forward(&x, false).unwrap();
        layer.fake_quant_bits = Some(4);
        let quant = layer.forward(&x, false).unwrap();
        assert!(full.max_abs_diff(&quant).unwrap() > 0.0);
        // Backward still works (straight-through).
        layer.forward(&x, true).unwrap();
        assert!(layer.backward(&Tensor::filled([1, 2, 6, 6], 1.0)).is_ok());
    }
}
