//! The plan the integration tests run a `FusedPipeline` under. Aligned
//! splices compile to one chain, so only a splice whose joint re-grids
//! keeps a pipeline: fixed blocking with a cut right after a pool.

use bconv_accel::platform::zc706;
use bconv_core::BlockingPattern;
use bconv_graph::{AccelCost, PlanSpec};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::{ActShape, Network};

/// conv 2→`c1`, 2×2 pool, conv `c1`→32, conv 32→2 on a 2×16×16 input
/// (`c1` in 1..=4 keeps [`regrid_spec`]'s pipeline).
pub fn regrid_net(c1: usize) -> Network {
    let mut b = NetBuilder::new("regrid", ActShape { c: 2, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 2, c1));
    b.push("pool", maxpool(2, 2, 0));
    b.push("conv2", conv(3, 1, 1, c1, 32));
    b.push("conv3", conv(3, 1, 1, 32, 2));
    b.build()
}

/// F4 under an accelerator model whose block buffers hold 100 elements of
/// `bits` bits: conv1 and the pool fit them. The pool re-grids (the pooled
/// map's 2×2 blocks are not F4's 4×4 ones), so its group ends there and
/// conv2 opens the next on 4×4 blocks, its pair over capacity and granted.
/// conv3 reuses that pair when it fits (`c1` ≥ 2); otherwise it cuts and
/// the roomy extra buffer splices it back on an aligned joint. Either way
/// the first joint re-grids and the plan is one pipeline of two chains:
/// `[conv1, pool] => [conv2, conv3]`.
pub fn regrid_spec(bits: u8) -> PlanSpec {
    let model = AccelCost::with_buffers(zc706(), 100 * u64::from(bits) / 2, 1 << 24);
    PlanSpec::new().pattern(BlockingPattern::fixed(4)).cost_model(model)
}
