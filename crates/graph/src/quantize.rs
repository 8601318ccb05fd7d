//! Post-training quantization of a compiled graph: calibration, and the
//! frozen spec the planner compiles integer execution from.
//!
//! This is the paper's deployment path (§III-C, Figure 7): the hardware
//! designs run *quantized* blocked convolutions — 16/8-bit for the VGG-16
//! accelerator, 8-bit activations × 4-bit weights for VDSR. It is the same
//! block-by-block schedule at a narrower word, so it adds one stage over
//! the float build and no executor of its own:
//!
//! 1. **Calibration** ([`GraphQuantSpec::calibrate`]) — run the graph
//!    densely (reference semantics) on a handful of calibration inputs,
//!    observing every convolution's input activations through a
//!    [`Calibrator`]; freeze per-node [`QParams`] from the EMA of
//!    per-batch maxima (the Distiller-style PTQ policy).
//! 2. **Quantized planning** ([`crate::plan::Planner::plan_quantized`]) —
//!    the same fusion-group walk as the float plan, and the one place every
//!    integer op is compiled: fused convs become integer stages with
//!    per-stage requantization ([`bconv_core::fusion::FusedChain::plan`] on
//!    its quantized path), whole-map convs become dense
//!    [`bconv_quant::qconv::QConv2d`]s (zero outer padding, matching the
//!    float reference's geometry padding), FC heads become
//!    [`bconv_quant::qlinear::QLinear`]s where weights and calibration
//!    allow. A conv without a calibrated range or with all-zero weights
//!    fails the plan; everything else (pool, add, ...) stays float.
//! 3. **Execution** ([`crate::exec::PlanExecutor`]) — the plan's segment
//!    loop, unchanged. [`bconv_core::fusion::MemStats`] reports feature-map
//!    traffic at the activation bitwidth, so `offchip_bits()` reproduces
//!    the paper's memory accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use bconv_quant::calibrate::Calibrator;
use bconv_quant::QParams;
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::{Tensor, TensorError};

use crate::exec::run_dense;
use crate::ir::{Graph, NodeId, NodeOp};

/// Process-wide count of completed calibration passes, incremented by
/// [`GraphQuantSpec::calibrate`].
static CALIBRATION_PASSES: AtomicU64 = AtomicU64::new(0);

/// Number of calibration passes this process has run. Calibration is the
/// most expensive build-time step (a dense forward pass per calibration
/// batch), so deployments that stamp out engine replicas should see this
/// counter rise **once** per model — replicas built through
/// [`Session::fork`](crate::Session::fork) or
/// [`crate::serve::router::Router`] share the calibrated spec instead of
/// re-calibrating (`tests/serve_router.rs` pins that contract).
pub fn calibration_passes() -> u64 {
    CALIBRATION_PASSES.load(Ordering::Relaxed)
}

/// Validates a bitwidth request before it reaches [`QParams`] (which
/// panics on out-of-range widths).
pub(crate) fn check_bits(what: &str, bits: u8) -> Result<(), TensorError> {
    if !(2..=16).contains(&bits) {
        return Err(TensorError::invalid(format!("{what} must be in 2..=16 bits, got {bits}")));
    }
    Ok(())
}

/// Bitwidths plus frozen per-node activation ranges: everything the
/// quantized planner needs beyond the float graph.
#[derive(Debug, Clone)]
pub struct GraphQuantSpec {
    /// Weight bitwidth for every quantized convolution.
    pub weight_bits: u8,
    /// Activation bitwidth (feature-map word width).
    pub act_bits: u8,
    /// Per-node input-activation params (`None` for nodes that are neither
    /// conv nor FC, and for nodes whose calibration observed only zeros).
    act_params: Vec<Option<QParams>>,
}

impl GraphQuantSpec {
    /// Frozen input-activation parameters of conv/FC node `id`, if any.
    pub fn act_params(&self, id: NodeId) -> Option<QParams> {
        self.act_params.get(id).copied().flatten()
    }

    /// Runs the calibration pass: evaluates the graph densely on each
    /// calibration input (exactly the reference executor's numerics),
    /// feeding every conv and FC node's input activations to a
    /// [`Calibrator`], then freezes per-node [`QParams`] at `act_bits`
    /// from the EMA of per-batch maxima (after a single batch the EMA
    /// equals the absolute maximum; a node whose inputs were all zero
    /// gets `None`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `inputs` is empty or
    /// a bitwidth is out of range, and shape errors when a calibration
    /// input does not match the graph.
    pub fn calibrate(
        graph: &Graph,
        inputs: &[Tensor],
        weight_bits: u8,
        act_bits: u8,
    ) -> Result<Self, TensorError> {
        // The faster of the two float kernels: they are bit-identical by
        // contract, so the observed ranges do not depend on the choice.
        Self::calibrate_through(graph, inputs, weight_bits, act_bits, KernelPolicy::Auto)
    }

    /// [`calibrate`](Self::calibrate) with the dense walk's float conv
    /// kernel chosen by `kernel`.
    fn calibrate_through(
        graph: &Graph,
        inputs: &[Tensor],
        weight_bits: u8,
        act_bits: u8,
        kernel: KernelPolicy,
    ) -> Result<Self, TensorError> {
        check_bits("weight_bits", weight_bits)?;
        check_bits("act_bits", act_bits)?;
        if inputs.is_empty() {
            return Err(TensorError::invalid(
                "calibration needs at least one input (got an empty batch list)",
            ));
        }
        let mut cals: Vec<Option<Calibrator>> = graph
            .nodes()
            .iter()
            .map(|n| matches!(n.op, NodeOp::Conv { .. } | NodeOp::Fc(_)).then(Calibrator::new))
            .collect();
        for input in inputs {
            // The reference backend's dense walk, observing every conv
            // node's input activations: calibration sees exactly the
            // numerics the reference executor computes.
            run_dense(graph, input, kernel, |id, _, in_t, _, _| {
                if let Some(cal) = cals[id].as_mut() {
                    cal.observe(in_t);
                }
            })?;
        }
        let act_params =
            cals.iter().map(|c| c.as_ref().and_then(|c| c.finalize_ema(act_bits))).collect();
        CALIBRATION_PASSES.fetch_add(1, Ordering::Relaxed);
        Ok(Self { weight_bits, act_bits, act_params })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::LowerOptions;
    use bconv_models::small::vgg16_small;
    use bconv_tensor::init::{seeded_rng, uniform_tensor};

    fn lowered() -> Graph {
        Graph::lower(&vgg16_small(32), &LowerOptions::default()).unwrap()
    }

    #[test]
    fn calibration_freezes_params_for_every_conv_and_fc() {
        let g = lowered();
        let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(1));
        let spec = GraphQuantSpec::calibrate(&g, &[input], 8, 8).unwrap();
        let mut fc_seen = false;
        for (id, node) in g.nodes().iter().enumerate() {
            match node.op {
                NodeOp::Conv { .. } | NodeOp::Fc(_) => {
                    fc_seen |= matches!(node.op, NodeOp::Fc(_));
                    let p = spec.act_params(id);
                    assert!(p.is_some(), "node {} has no params", node.name);
                    assert_eq!(p.unwrap().bits(), 8);
                }
                _ => assert!(spec.act_params(id).is_none()),
            }
        }
        assert!(fc_seen, "vgg16_small should end in an FC head");
    }

    #[test]
    fn calibrated_ranges_do_not_depend_on_the_float_kernel() {
        use bconv_models::small::vdsr_small;
        let mut rng = seeded_rng(11);
        for net in [vgg16_small(32), vdsr_small(24, 6, 8)] {
            let g = Graph::lower(&net, &LowerOptions::default()).unwrap();
            let s = net.input;
            let inputs: Vec<Tensor> =
                (0..3).map(|_| uniform_tensor([1, s.c, s.h, s.w], -1.0, 1.0, &mut rng)).collect();
            let [direct, gemm, auto] =
                [KernelPolicy::Direct, KernelPolicy::Im2colGemm, KernelPolicy::Auto]
                    .map(|k| GraphQuantSpec::calibrate_through(&g, &inputs, 8, 8, k).unwrap());
            for id in 0..g.nodes().len() {
                let bits = |spec: &GraphQuantSpec| {
                    spec.act_params(id).map(|p| (p.scale().to_bits(), p.bits()))
                };
                assert_eq!(bits(&direct), bits(&gemm), "{} node {id}", net.name);
                assert_eq!(bits(&direct), bits(&auto), "{} node {id}", net.name);
            }
        }
    }

    #[test]
    fn calibration_rejects_empty_batches_and_bad_bits() {
        let g = lowered();
        let input = uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut seeded_rng(2));
        assert!(GraphQuantSpec::calibrate(&g, &[], 8, 8).is_err());
        assert!(GraphQuantSpec::calibrate(&g, std::slice::from_ref(&input), 1, 8).is_err());
        assert!(GraphQuantSpec::calibrate(&g, std::slice::from_ref(&input), 8, 32).is_err());
    }

    #[test]
    fn ema_discounts_an_outlier_batch() {
        let g = lowered();
        let mut rng = seeded_rng(3);
        let mut inputs: Vec<Tensor> =
            (0..3).map(|_| uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut rng)).collect();
        inputs.push(uniform_tensor([1, 3, 32, 32], -50.0, 50.0, &mut rng)); // outlier
        inputs.push(uniform_tensor([1, 3, 32, 32], -1.0, 1.0, &mut rng));
        let spec = GraphQuantSpec::calibrate(&g, &inputs, 8, 8).unwrap();
        // Node 0 is the first conv, reading the graph input: the EMA range
        // must sit well below the outlier's absolute maximum.
        let p = spec.act_params(0).unwrap();
        assert!(p.scale() * (p.qmax() as f32) < 49.0, "EMA did not discount the outlier");
    }
}
