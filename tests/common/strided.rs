//! A small net of strided convolutions — every stride-2 geometry a
//! whole-map conv runs: a 7×7/p3 stem, a 3×3, a depthwise 3×3 and a
//! pointwise one — with a stride-1 3×3 conv behind each of the first two,
//! so an integer plan stages the strided layers' outputs for it.

use bconv_models::builder::{conv, dwconv, NetBuilder};
use bconv_models::{ActShape, Network};

/// 3×32×32 → stem 7×7/s2 → 3×3 → 3×3/s2 → 3×3 → depthwise 3×3/s2 →
/// 1×1/s2 → 8×2×2.
pub fn strided_net() -> Network {
    let mut b = NetBuilder::new("strided", ActShape { c: 3, h: 32, w: 32 });
    b.push("stem", conv(7, 2, 3, 3, 8));
    b.push("conv1", conv(3, 1, 1, 8, 16));
    b.push("down", conv(3, 2, 1, 16, 16));
    b.push("conv2", conv(3, 1, 1, 16, 16));
    b.push("dw", dwconv(3, 2, 1, 16));
    b.push("pw", conv(1, 2, 0, 16, 8));
    b.build()
}
