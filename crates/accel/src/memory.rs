//! On-chip buffer sizing and BRAM estimation (§III-B3's intermediate/extra
//! buffer organisation, and the §III-B2 memory-utilisation argument for
//! rectangular blocking).

/// Estimated BRAM18 blocks for a buffer of `bits`, assuming the standard
/// 18 kib block with a packing efficiency factor (Vivado rarely packs BRAM
/// to 100%; 0.9 matches the reports the paper's estimates are based on).
pub fn bram18_for_bits(bits: u64) -> usize {
    const BRAM18_BITS: f64 = 18.0 * 1024.0;
    const PACKING: f64 = 0.9;
    (bits as f64 / (BRAM18_BITS * PACKING)).ceil() as usize
}

/// The data-buffer plan of the block-convolution VGG accelerator
/// (§III-B3): two ping-pong *intermediate* buffers holding one block's
/// activations each, plus *extra* buffers that cache the spliced group
/// boundaries, plus a weight buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferPlan {
    /// Bits of one intermediate (block-sized) buffer.
    pub intermediate_bits: u64,
    /// Bits of the extra (group-boundary) buffer.
    pub extra_bits: u64,
    /// Bits of the on-chip weight buffer.
    pub weight_bits: u64,
    /// Whether the intermediate buffers are double-buffered (ping-pong);
    /// block convolution needs only the two alternating buffers, while the
    /// off-chip baseline needs input+output ping-pong pairs.
    pub double_buffered: bool,
}

impl BufferPlan {
    /// Estimated BRAM18 blocks.
    pub fn bram18(&self) -> usize {
        let factor = if self.double_buffered { 2 } else { 1 };
        factor * 2 * bram18_for_bits(self.intermediate_bits)
            + bram18_for_bits(self.extra_bits)
            + bram18_for_bits(self.weight_bits)
    }

    /// Whether the plan fits a device with `blocks` BRAM18 blocks — the
    /// capacity gate a cost-model-driven planner asks before fusing or
    /// splicing deeper (§III-B3's feasibility constraint).
    pub fn fits_bram18(&self, blocks: usize) -> bool {
        self.bram18() <= blocks
    }
}

/// Memory utilisation of storing the largest feasible block of an
/// `fh × fw` feature map in an `mh × mw` on-chip buffer (§III-B2):
/// with square power-of-two blocking the largest block that fits may waste
/// most of the buffer; rectangular blocking recovers it.
///
/// Returns `(block_h, block_w, utilisation)`.
pub fn square_blocking_utilisation(
    fh: usize,
    fw: usize,
    mh: usize,
    mw: usize,
) -> (usize, usize, f64) {
    // Largest power-of-two-divided square block that fits.
    let mut bh = fh;
    let mut bw = fw;
    while bh > mh || bw > mw {
        bh /= 2;
        bw /= 2;
        if bh == 0 || bw == 0 {
            return (0, 0, 0.0);
        }
    }
    (bh, bw, (bh * bw) as f64 / (mh * mw) as f64)
}

/// Rectangular variant: halve only the dimension that does not fit.
pub fn rect_blocking_utilisation(
    fh: usize,
    fw: usize,
    mh: usize,
    mw: usize,
) -> (usize, usize, f64) {
    let mut bh = fh;
    let mut bw = fw;
    loop {
        if bh == 0 || bw == 0 {
            return (0, 0, 0.0);
        }
        if bh <= mh && bw <= mw {
            return (bh, bw, (bh * bw) as f64 / (mh * mw) as f64);
        }
        // Halve the dimension with the worse overflow ratio.
        if bh as f64 / mh as f64 >= bw as f64 / mw as f64 {
            bh /= 2;
        } else {
            bw /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_square_vs_rect() {
        // §III-B2: 128x128 map, 128x100 buffer. Square blocking fits only
        // 64x64 -> 40.96% x (128*100=12800; 64*64=4096 -> 32%)...
        // The paper computes 64*64/(128*100) = 40.96%? 4096/12800 = 32%.
        // The paper's 40.96% corresponds to 64*80? We reproduce the paper's
        // *qualitative* claim: rectangular at least doubles utilisation.
        let (sh, sw, su) = square_blocking_utilisation(128, 128, 128, 100);
        assert_eq!((sh, sw), (64, 64));
        let (rh, rw, ru) = rect_blocking_utilisation(128, 128, 128, 100);
        assert_eq!((rh, rw), (128, 64));
        assert!(ru >= 2.0 * su, "rect {ru} vs square {su}");
        assert!((ru - 0.64).abs() < 0.01);
    }

    #[test]
    fn utilisation_is_one_when_map_fits() {
        let (_, _, u) = square_blocking_utilisation(64, 64, 64, 64);
        assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bram_estimation_rounds_up() {
        assert_eq!(bram18_for_bits(1), 1);
        assert_eq!(bram18_for_bits(0), 0);
        // 18 kib at 90% packing needs 2 blocks once above ~16.6 kib.
        assert_eq!(bram18_for_bits(18 * 1024), 2);
    }

    #[test]
    fn fits_bram18_is_the_capacity_gate() {
        let plan = BufferPlan {
            intermediate_bits: 100_000,
            extra_bits: 50_000,
            weight_bits: 0,
            double_buffered: false,
        };
        let need = plan.bram18();
        assert!(plan.fits_bram18(need));
        assert!(!plan.fits_bram18(need - 1));
    }

    #[test]
    fn double_buffering_doubles_intermediate_brams() {
        let single = BufferPlan {
            intermediate_bits: 100_000,
            extra_bits: 50_000,
            weight_bits: 200_000,
            double_buffered: false,
        };
        let double = BufferPlan { double_buffered: true, ..single };
        let diff = double.bram18() - single.bram18();
        assert_eq!(diff, 2 * bram18_for_bits(100_000));
    }
}
