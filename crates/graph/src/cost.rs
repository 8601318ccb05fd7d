//! Pluggable fusion cost models: the policy that decides where the
//! planner cuts fusion groups and whether adjacent groups splice (keep
//! their boundary map on chip: one chain where the groups share a block
//! layout, a [`bconv_core::fusion::FusedPipeline`] where the joint
//! re-grids).
//!
//! Two models ship with the crate:
//!
//! * [`ElementBudget`] — the element-count heuristic: cut when a stage's
//!   ping-pong block buffers exceed a flat element budget; never splice.
//!   The default, unbounded: it fuses maximally.
//! * [`AccelCost`] — the `bconv-accel` buffer-capacity model (the
//!   §III-B3 buffer plan): a group extends while the candidate stage's
//!   ping-pong pair fits the two intermediate buffers, and compatible
//!   group boundaries splice whenever the boundary maps fit the extra
//!   buffer and the whole plan fits the platform's BRAM — the Figure 10
//!   CONV4 case.
//!
//! Cost models see fusion groups as [`StageCost`] lists — pure block
//! geometry in elements, at the plan's precision — so a model never touches
//! tensors and the planner never depends on a specific model's internals.
//!
//! A model is asked only about buffers the group does not hold yet. The
//! planner opens a group at any blocked conv, however large its ping-pong
//! pair, so that blocking never depends on the model; the device must then
//! provision that pair for the opening stage anyway. A later stage whose
//! pair fits inside the largest pair the group already holds reuses those
//! buffers and costs nothing more on chip, so it extends without a
//! question (`Planner::try_extend`). Only a stage that would grow the
//! group's buffers is the model's decision.

use bconv_accel::memory::BufferPlan;
use bconv_accel::platform::FpgaPlatform;

/// One stage of a (prospective) fusion group, in the units cost models
/// reason about. Element counts follow the [`bconv_core::fusion::MemStats`]
/// conventions: feature-map data only, per batch element, with
/// `bits_per_elem` carrying the plan's precision (32 float, the activation
/// bitwidth quantized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageCost {
    /// Elements of the largest input block (block area × input channels).
    pub in_block_elems: usize,
    /// Elements of the largest output block (block area × output channels).
    pub out_block_elems: usize,
    /// Bits per feature-map element at the plan's precision.
    pub bits_per_elem: u8,
}

impl StageCost {
    /// Elements of the stage's ping-pong pair: its input plus output block.
    pub fn pair_elems(&self) -> usize {
        self.in_block_elems + self.out_block_elems
    }

    /// Bits of the stage's ping-pong pair.
    fn pair_bits(&self) -> u64 {
        self.pair_elems() as u64 * self.bits_per_elem as u64
    }
}

/// A candidate splice between two adjacent fusion groups, as cost models
/// see it: the group-boundary feature map that would stay on chip (in the
/// extra buffer) instead of making a DRAM round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceCost {
    /// Elements of the new boundary map (c·h·w, per batch element) — the
    /// off-chip round trip this splice saves.
    pub boundary_elems: usize,
    /// Peak elements simultaneously resident in the extra buffer if the
    /// splice is taken: while a *middle* group of a 3+-group pipeline
    /// executes, both its source and destination boundary maps are alive,
    /// so this is the largest adjacent-boundary pair of the prospective
    /// pipeline (equal to `boundary_elems` for a 2-group pipeline).
    pub peak_extra_elems: usize,
    /// Bits per feature-map element at the plan's precision.
    pub bits_per_elem: u8,
}

impl SpliceCost {
    /// Peak bits resident in the extra buffer if the splice is taken.
    pub fn peak_extra_bits(&self) -> u64 {
        self.peak_extra_elems as u64 * self.bits_per_elem as u64
    }
}

/// The fusion-partitioning policy consulted by the planner's walk. The
/// model never changes *what* is computed — cuts and splices are schedule
/// decisions, and every plan over the same blocking decisions produces
/// bitwise-identical outputs — only how much off-chip traffic and on-chip
/// buffering the schedule needs.
pub trait CostModel: std::fmt::Debug + Send + Sync {
    /// Model name, echoed in [`crate::plan::PlanReport`].
    fn name(&self) -> &'static str;

    /// Deterministic identity string for [`crate::cache::PlanKey`]: the
    /// model name plus every parameter that changes its decisions, so two
    /// models that could plan differently never share a cache entry. The
    /// default is the bare name — correct only for parameter-free models;
    /// parameterised models must override.
    fn cache_param_key(&self) -> String {
        self.name().to_string()
    }

    /// Whether the open group should extend through `candidate`, or cut
    /// right before it. Consulted only for a conv or pool stage whose
    /// ping-pong pair is larger than every pair the group already holds:
    /// a stage that fits those buffers extends without asking, and ReLU is
    /// free and always fuses.
    fn allow_extend(&self, candidate: &StageCost) -> bool;

    /// Whether two adjacent fusion groups should splice into one pipeline,
    /// keeping `boundary` on chip. Default: never splice.
    fn allow_splice(
        &self,
        first: &[StageCost],
        second: &[StageCost],
        boundary: &SpliceCost,
    ) -> bool {
        let (_, _, _) = (first, second, boundary);
        false
    }
}

/// The flat element-count budget: cut when a candidate stage's ping-pong
/// block-buffer pair would exceed `budget_elems` and the group's own
/// largest pair; never splice. With no budget, fuse maximally — the
/// default model, whose plans no granted pair can change.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElementBudget {
    budget_elems: Option<usize>,
}

impl ElementBudget {
    /// Unbounded: fuse maximal chains (the planner's default).
    pub fn unbounded() -> Self {
        Self { budget_elems: None }
    }

    /// Cut when a stage's input + output block buffers exceed `elems`.
    pub fn with_budget(elems: usize) -> Self {
        Self { budget_elems: Some(elems) }
    }

    /// The historical `PlannerOptions::budget_elems` encoding.
    pub fn from_option(budget_elems: Option<usize>) -> Self {
        Self { budget_elems }
    }
}

impl CostModel for ElementBudget {
    fn name(&self) -> &'static str {
        "element-budget"
    }

    fn cache_param_key(&self) -> String {
        // `granted`: later stages reuse the group's largest pair, so plans
        // decided before that rule miss. Unbounded plans cannot differ.
        match self.budget_elems {
            None => "element-budget(unbounded)".to_string(),
            Some(b) => format!("element-budget(b{b},granted)"),
        }
    }

    fn allow_extend(&self, candidate: &StageCost) -> bool {
        self.budget_elems.is_none_or(|budget| candidate.pair_elems() <= budget)
    }
}

/// The accelerator cost model: group cuts and splices decided on
/// `bconv-accel`'s §III-B3 buffer plan instead of a flat element count.
/// Capacity is the only constraint: cutting a group adds a DRAM round trip
/// of the boundary map and saves no compute, so on any platform that
/// moves data at a finite bandwidth, fusing as deep as the buffers allow
/// is the paper's schedule.
///
/// * **Extension** — asked only for a stage whose ping-pong pair exceeds
///   every pair the group already holds (the planner extends through the
///   others: their buffers are provisioned), so the rule the planner and
///   this model apply together is: extend iff the pair fits max(the two
///   ping-pong block buffers, the group's largest pair).
/// * **Splice** — taken when the boundary maps fit the extra buffer and
///   the whole buffer plan fits the platform's BRAM
///   ([`BufferPlan::fits_bram18`]); the splice then removes the
///   boundary's off-chip round trip (Figure 10's CONV4 extra buffer).
#[derive(Debug, Clone)]
pub struct AccelCost {
    platform: FpgaPlatform,
    /// Capacity in bits of **one** intermediate (block) buffer; the
    /// ping-pong pair provides twice this.
    intermediate_buffer_bits: u64,
    /// Capacity in bits of the extra (splice) buffer.
    extra_buffer_bits: u64,
}

impl AccelCost {
    /// Buffer capacities derived from the platform's BRAM following the
    /// §III-B3 organisation: one eighth of the BRAM bits to each of the
    /// two intermediate buffers, one quarter to the extra buffer, the
    /// remaining half left for weights.
    pub fn for_platform(platform: FpgaPlatform) -> Self {
        let total = (platform.bram18_blocks * platform.bram18_bits) as u64;
        Self::with_buffers(platform, total / 8, total / 4)
    }

    /// Explicit buffer capacities (bits of one intermediate buffer, bits
    /// of the extra buffer) — how tests and benches model small on-chip
    /// memories against the toy networks.
    pub fn with_buffers(
        platform: FpgaPlatform,
        intermediate_buffer_bits: u64,
        extra_buffer_bits: u64,
    ) -> Self {
        Self { platform, intermediate_buffer_bits, extra_buffer_bits }
    }
}

impl CostModel for AccelCost {
    fn name(&self) -> &'static str {
        "accel-cost"
    }

    fn cache_param_key(&self) -> String {
        // Both buffer capacities and the platform's BRAM — everything the
        // extend and splice decisions read — plus the rest of the platform
        // descriptor, so two devices never share an entry. `{}` on f64
        // prints shortest-roundtrip digits, so equal platforms always
        // format identically. `granted` marks plans in which later stages
        // reuse the group's largest pair; plans decided before that rule
        // miss.
        format!(
            "accel-cost({},bram{}x{},f{},dram{},ib{},eb{},granted)",
            self.platform.name,
            self.platform.bram18_blocks,
            self.platform.bram18_bits,
            self.platform.freq_mhz,
            self.platform.dram_gbps,
            self.intermediate_buffer_bits,
            self.extra_buffer_bits
        )
    }

    fn allow_extend(&self, candidate: &StageCost) -> bool {
        // The two ping-pong buffers must hold the stage's input and output
        // block; the stages already in the group are sunk.
        candidate.pair_bits() <= 2 * self.intermediate_buffer_bits
    }

    fn allow_splice(
        &self,
        first: &[StageCost],
        second: &[StageCost],
        boundary: &SpliceCost,
    ) -> bool {
        // The extra buffer must hold every boundary map alive at once —
        // for a 3+-group pipeline, a middle group's source and destination
        // boundaries coexist, so the gate is the peak adjacent pair, not
        // just the new boundary.
        if boundary.peak_extra_bits() > self.extra_buffer_bits {
            return false; // the boundary maps cannot stay on chip
        }
        // The spliced pipeline's full buffer plan must still fit the
        // device: the (already-accepted) ping-pong pair at its largest
        // plus the extra buffer at its peak occupancy.
        let peak_pair_bits = first.iter().chain(second).map(StageCost::pair_bits).max();
        let plan = BufferPlan {
            intermediate_bits: peak_pair_bits.unwrap_or(0) / 2,
            extra_bits: boundary.peak_extra_bits(),
            weight_bits: 0,
            double_buffered: false,
        };
        plan.fits_bram18(self.platform.bram18_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bconv_accel::platform::zc706;

    fn stage(in_block: usize, out_block: usize) -> StageCost {
        StageCost { in_block_elems: in_block, out_block_elems: out_block, bits_per_elem: 32 }
    }

    fn splice(boundary_elems: usize, bits: u8) -> SpliceCost {
        SpliceCost { boundary_elems, peak_extra_elems: boundary_elems, bits_per_elem: bits }
    }

    #[test]
    fn element_budget_matches_the_historical_rule() {
        let cand = stage(768, 1024);
        assert!(ElementBudget::unbounded().allow_extend(&cand));
        assert!(ElementBudget::with_budget(1792).allow_extend(&cand));
        assert!(!ElementBudget::with_budget(1791).allow_extend(&cand));
        // The historical model never splices.
        assert!(!ElementBudget::unbounded().allow_splice(&[], &[], &splice(1, 32)));
    }

    #[test]
    fn accel_cost_cuts_at_intermediate_capacity() {
        // Pair capacity 2 * 1024 * 32 bits = 2048 elements.
        let model = AccelCost::with_buffers(zc706(), 1024 * 32, 1 << 20);
        assert!(model.allow_extend(&stage(1024, 1024)));
        assert!(!model.allow_extend(&stage(1024, 1025)));
    }

    #[test]
    fn accel_cost_splices_when_the_boundary_fits_the_extra_buffer() {
        let model = AccelCost::with_buffers(zc706(), 1 << 20, 4096 * 32);
        let g = [stage(256, 256)];
        assert!(model.allow_splice(&g, &g, &splice(4096, 32)));
        assert!(!model.allow_splice(&g, &g, &splice(4097, 32)));
    }

    #[test]
    fn accel_cost_gates_on_peak_boundary_pair() {
        // Extending a pipeline to 3+ groups keeps two boundary maps alive
        // while the middle group runs: a new boundary that fits alone must
        // still be refused when the adjacent pair exceeds the extra
        // buffer.
        let model = AccelCost::with_buffers(zc706(), 1 << 20, 4096 * 32);
        let g = [stage(256, 256)];
        let pair_too_big =
            SpliceCost { boundary_elems: 2100, peak_extra_elems: 2100 + 2100, bits_per_elem: 32 };
        assert!(!model.allow_splice(&g, &g, &pair_too_big));
        let pair_fits =
            SpliceCost { boundary_elems: 2000, peak_extra_elems: 2000 + 2000, bits_per_elem: 32 };
        assert!(model.allow_splice(&g, &g, &pair_fits));
    }

    #[test]
    fn accel_cost_respects_plan_precision() {
        // At 8-bit activations the same boundary needs a quarter of the
        // extra buffer: quantized plans splice deeper.
        let model = AccelCost::with_buffers(zc706(), 1 << 20, 4096 * 8);
        let g = [stage(256, 256)];
        assert!(!model.allow_splice(&g, &g, &splice(4096, 32)));
        assert!(model.allow_splice(&g, &g, &splice(4096, 8)));
    }
}
