//! The four workloads: which network, backend and plan each one compiles,
//! how its inputs follow from `--seed`, and the fixed probe that measures
//! its accuracy cost. Weights and calibration data stay at seed 2018 in
//! every run; `--seed` moves the request inputs only.

#![forbid(unsafe_code)]

use bconv_accel::platform::zc706;
use bconv_core::{BlockingPattern, NetworkPlan};
use bconv_graph::plan::PlannerOptions;
use bconv_graph::session::{PlanSpec, SessionBuilder, DEFAULT_CALIBRATION_BATCHES};
use bconv_graph::{AccelCost, Backend, Graph, LowerOptions, ServeConfig, Session};
use bconv_models::small::{vdsr_small, vgg16_small};
use bconv_models::Network;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::Tensor;

use crate::spec::{self, WorkloadSpec};

/// Seed of weights, calibration data and the accuracy probe.
pub const WEIGHT_SEED: u64 = 2018;

/// `AccelCost::with_buffers` sizing of `vgg224_f32_blocked`: small enough
/// that the planner cuts groups (at conv1-2, pool1, conv2-2), large enough
/// that it splices two of the cuts back together.
pub const VGG224_INTERMEDIATE_BITS: u64 = 200_000;
pub const VGG224_EXTRA_BITS: u64 = 8_000_000;

/// Requests per burst, burst period, and the unmeetable deadline offset
/// of `serve_burst_w8a8`.
pub const BURST_REQUESTS: usize = 32;
pub const BURST_PERIOD_MS: f64 = 32.0;
pub const SHED_DEADLINE_MS: f64 = 0.5;
/// Last-submitted priority-0 requests of a burst that carry the deadline.
pub const SHED_PER_BURST: usize = 4;
/// Largest batch the engine coalesces.
pub const MAX_BATCH: usize = 8;
/// Priority of the [`MAX_BATCH`]-image request that leads every burst:
/// above both classes of the burst, so it always dequeues first.
pub const LEAD_PRIORITY: u8 = 2;

const WEIGHT_BITS: u8 = 8;
const ACT_BITS: u8 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Vgg224,
    VdsrBlocked,
    VdsrDirect,
    ServeBurst,
}

/// One workload, resolved from its [`WorkloadSpec`].
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub spec: &'static WorkloadSpec,
    pub kind: Kind,
}

impl Workload {
    pub fn new(spec: &'static WorkloadSpec) -> Self {
        let kind = match spec.name {
            spec::VGG224 => Kind::Vgg224,
            spec::VDSR_BLOCKED => Kind::VdsrBlocked,
            spec::VDSR_DIRECT => Kind::VdsrDirect,
            _ => Kind::ServeBurst,
        };
        Self { spec, kind }
    }

    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    pub fn is_serve(&self) -> bool {
        self.kind == Kind::ServeBurst
    }

    pub fn network(&self) -> Network {
        match self.kind {
            Kind::Vgg224 => vgg16_small(224),
            Kind::VdsrBlocked | Kind::VdsrDirect => vdsr_small(96, 10, 16),
            Kind::ServeBurst => vgg16_small(32),
        }
    }

    pub fn backend(&self) -> Backend {
        match self.kind {
            Kind::Vgg224 => Backend::Blocked,
            _ => Backend::Quantized { weight_bits: WEIGHT_BITS, act_bits: ACT_BITS },
        }
    }

    /// `(weight_bits, act_bits)` of a quantized workload.
    pub fn quant_bits(&self) -> Option<(u8, u8)> {
        match self.backend() {
            Backend::Quantized { weight_bits, act_bits } => Some((weight_bits, act_bits)),
            _ => None,
        }
    }

    /// The planning configuration the workload compiles under.
    pub fn plan_spec(&self) -> PlanSpec {
        match self.kind {
            Kind::Vgg224 => PlanSpec::new().pattern(BlockingPattern::hierarchical(4)).cost_model(
                AccelCost::with_buffers(zc706(), VGG224_INTERMEDIATE_BITS, VGG224_EXTRA_BITS),
            ),
            Kind::VdsrBlocked => PlanSpec::new().pattern(BlockingPattern::fixed(8)),
            Kind::VdsrDirect => {
                PlanSpec::new().pattern(BlockingPattern::fixed(8)).network_plan(self.unblocked())
            }
            Kind::ServeBurst => PlanSpec::new(),
        }
    }

    /// The all-`Normal` network plan: every conv runs on the whole map.
    pub fn unblocked(&self) -> NetworkPlan {
        let convs = self
            .network()
            .layers
            .iter()
            .filter(|l| matches!(l.kind, bconv_models::LayerKind::Conv { .. }))
            .count();
        NetworkPlan::unblocked(convs)
    }

    /// The same planning configuration as [`plan_spec`](Self::plan_spec),
    /// in the form `Planner::new` takes — for timing the planner alone.
    pub fn planner_options(&self) -> PlannerOptions {
        let spec = self.plan_spec();
        PlannerOptions {
            pattern: spec.pattern.unwrap_or(BlockingPattern::hierarchical(2)),
            plan: spec.network_plan,
            pad_mode: spec.pad,
            budget_elems: spec.budget_elems,
            kernel: spec.kernel,
            cost_model: spec.cost_model,
        }
    }

    pub fn lower_options(&self) -> LowerOptions {
        LowerOptions { seed: WEIGHT_SEED, relu_after_conv: false }
    }

    /// Lowers the network exactly as the session build does.
    pub fn lower(&self) -> Result<Graph, String> {
        Graph::lower(&self.network(), &self.lower_options()).map_err(|e| e.to_string())
    }

    /// `[n, c, h, w]` of a request with `n` images.
    pub fn input_dims(&self, n: usize) -> [usize; 4] {
        let s = self.network().input;
        [n, s.c, s.h, s.w]
    }

    /// Calibration batches of the quantized workloads: seeded uniform
    /// images, as many as a default build synthesises. Handed to the
    /// builder explicitly so the traced replay can calibrate on the very
    /// same data.
    pub fn calibration_inputs(&self) -> Vec<Tensor> {
        (0..DEFAULT_CALIBRATION_BATCHES as u64)
            .map(|i| {
                let mut rng = seeded_rng(WEIGHT_SEED ^ 0x5143_414C ^ ((i + 1) << 32));
                uniform_tensor(self.input_dims(1), -1.0, 1.0, &mut rng)
            })
            .collect()
    }

    /// The complete builder of the workload's session (one thread).
    pub fn builder(&self) -> SessionBuilder {
        let builder = Session::builder()
            .network(self.network())
            .backend(self.backend())
            .planner(self.plan_spec())
            .seed(WEIGHT_SEED)
            .threads(1);
        match self.quant_bits() {
            Some(_) => builder.calibration(self.calibration_inputs()),
            None => builder,
        }
    }

    pub fn build(&self) -> Result<Session, String> {
        self.builder().build().map_err(|e| format!("{}: session build failed: {e}", self.name()))
    }

    /// The dense float session of the same network and weights: the
    /// accuracy reference.
    pub fn build_reference(&self) -> Result<Session, String> {
        Session::builder()
            .network(self.network())
            .backend(Backend::Reference)
            .seed(WEIGHT_SEED)
            .threads(1)
            .build()
            .map_err(|e| format!("{}: reference build failed: {e}", self.name()))
    }

    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig { workers: 1, queue_depth: 64, max_batch: MAX_BATCH, adaptive_batch: true }
    }

    /// Distinct request inputs a run cycles through.
    pub fn request_inputs(&self) -> usize {
        if self.is_serve() {
            BURST_REQUESTS
        } else {
            4
        }
    }

    /// Set-up repetitions of a full-length run.
    pub fn setup_reps(&self) -> usize {
        match self.kind {
            Kind::VdsrBlocked | Kind::VdsrDirect => 7,
            Kind::Vgg224 | Kind::ServeBurst => 31,
        }
    }

    /// The run's request inputs: `count` single-image tensors drawn from
    /// `seed`. The same seed gives the same inputs.
    pub fn inputs(&self, seed: u64, count: usize) -> Vec<Tensor> {
        (0..count as u64)
            .map(|i| self.input(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i, 1))
            .collect()
    }

    /// The full-batch request that leads every burst of `serve_burst_w8a8`.
    pub fn lead_input(&self, seed: u64) -> Tensor {
        self.input(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4C45_4144, MAX_BATCH)
    }

    /// One seeded uniform input of `n` images.
    pub fn input(&self, stream: u64, n: usize) -> Tensor {
        uniform_tensor(self.input_dims(n), -1.0, 1.0, &mut seeded_rng(stream))
    }

    /// The fixed accuracy probe: two images drawn from the weight seed, so
    /// `output_rel_err` repeats exactly whatever `--seed` is.
    pub fn probe_inputs(&self) -> Vec<Tensor> {
        (0..2u64).map(|i| self.input(WEIGHT_SEED ^ 0x5052_4F42 ^ (i << 40), 1)).collect()
    }
}

/// Bitwise tensor equality: same shape, same bit pattern in every element.
pub fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Max-abs difference between `got` and `want` over max |`want`|.
pub fn rel_err(got: &Tensor, want: &Tensor) -> Result<f64, String> {
    let diff = got.max_abs_diff(want).map_err(|e| format!("accuracy probe: {e}"))?;
    let scale = want.data().iter().map(|w| w.abs()).fold(0.0f32, f32::max);
    if scale > 0.0 && diff.is_finite() {
        Ok(f64::from(diff) / f64::from(scale))
    } else {
        Err("accuracy probe: reference output is all zero or the difference is not finite".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(name: &str) -> Workload {
        Workload::new(spec::workload(name).unwrap())
    }

    #[test]
    fn every_spec_resolves_to_its_own_kind() {
        let kinds: Vec<Kind> = spec::WORKLOADS.iter().map(|s| Workload::new(s).kind).collect();
        assert_eq!(kinds, [Kind::Vgg224, Kind::VdsrBlocked, Kind::VdsrDirect, Kind::ServeBurst]);
    }

    #[test]
    fn inputs_follow_the_seed_and_nothing_else() {
        let w = workload(spec::SERVE_BURST);
        let a = w.inputs(7, 3);
        assert!(a.iter().zip(&w.inputs(7, 3)).all(|(x, y)| bitwise_eq(x, y)));
        assert!(!bitwise_eq(&a[0], &a[1]), "inputs of one run are distinct");
        assert!(!bitwise_eq(&a[0], &w.inputs(8, 1)[0]), "another seed, another input");
        assert_eq!(a[0].shape().dims(), [1, 3, 32, 32]);
        assert!(w.probe_inputs().iter().zip(&w.probe_inputs()).all(|(x, y)| bitwise_eq(x, y)));
    }

    #[test]
    fn the_vgg224_plan_cuts_and_splices_and_the_direct_plan_has_no_groups() {
        let vgg = workload(spec::VGG224).build().unwrap();
        let report = vgg.plan().report();
        assert!(!report.cost_cuts.is_empty() && !report.splices.is_empty(), "{report:?}");
        assert_eq!(vgg.threads(), 1);
        let direct = workload(spec::VDSR_DIRECT);
        assert_eq!(direct.unblocked().len(), 10);
        let options = direct.planner_options();
        assert_eq!(options.pattern, BlockingPattern::fixed(8));
        assert!(options.plan.is_some());
    }

    #[test]
    fn rel_err_is_max_abs_over_max_reference() {
        let want = Tensor::from_vec([1, 1, 1, 4], vec![1.0, -4.0, 2.0, 0.0]).unwrap();
        let got = Tensor::from_vec([1, 1, 1, 4], vec![1.5, -4.0, 1.0, 0.0]).unwrap();
        assert_eq!(rel_err(&got, &want).unwrap(), 0.25);
        assert!(rel_err(&got, &Tensor::zeros([1, 1, 1, 4])).is_err());
        assert!(rel_err(&got, &Tensor::zeros([1, 1, 2, 2])).is_err());
        assert!(bitwise_eq(&got, &got.clone()) && !bitwise_eq(&got, &want));
        let neg_zero = Tensor::from_vec([1, 1, 1, 1], vec![-0.0]).unwrap();
        assert!(!bitwise_eq(&neg_zero, &Tensor::zeros([1, 1, 1, 1])), "-0.0 is not +0.0 bitwise");
    }
}
