//! Multi-layer fusion designs for the block-convolution VGG-16 accelerator
//! (§III-B2/B3): fusion groups, per-layer blocking sizes `[Tr, Tc]`, the
//! buffer plan, and the Table VI configurations A–G.
//!
//! With block convolution the accelerator schedules blocks depth-first
//! through a fusion group: a block flows conv→conv→pool entirely in two
//! ping-pong *intermediate buffers*; at a group boundary, pooled sibling
//! blocks are spliced in an *extra buffer* into the next group's larger
//! block (Figure 10). Off-chip traffic is then the input image, the final
//! activations and the filters — no intermediate feature maps.

use crate::baseline::{
    compute_cycles, num_phases, ConvShape, TileConfig, INTERRUPT_CYCLES_PER_PHASE,
};
use crate::memory::BufferPlan;
use crate::platform::FpgaPlatform;

/// A per-layer blocking assignment for a network of conv layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedDesign {
    /// Design name (Table VI's A–G, or DSE-generated).
    pub name: String,
    /// Per-layer `[Tr, Tc]` blocking sizes.
    pub tiles: Vec<(usize, usize)>,
    /// Group sizes (consecutive layers fused per group).
    pub group_sizes: Vec<usize>,
    /// Fixed-point bitwidth of activations and weights.
    pub bits: usize,
    /// PE count.
    pub npe: usize,
}

/// Architecture constants of the PE array (channel tiles of Listing 1).
pub const TM: usize = 64;
/// Input-channel tile.
pub const TN: usize = 64;

/// Evaluation result of a fused design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedEval {
    /// Theoretical compute cycles (Eq 3 summed over layers).
    pub compute_cycles: u64,
    /// DRAM cycles (weights + input + output; no intermediate features).
    pub dram_cycles: u64,
    /// CPU-interrupt cycles (filter transfers).
    pub interrupt_cycles: u64,
    /// Estimated BRAM18 blocks.
    pub bram18: usize,
    /// Off-chip feature-map traffic in bits (input + output only).
    pub feature_traffic_bits: u64,
    /// Total operations.
    pub total_ops: u64,
}

impl FusedEval {
    /// Real (interrupt-laden) total cycles.
    pub fn real_cycles(&self) -> u64 {
        self.compute_cycles.max(self.dram_cycles) + self.interrupt_cycles
    }

    /// Theoretical cycles (perfect host, overlapped transfers).
    pub fn theoretical_cycles(&self) -> u64 {
        self.compute_cycles.max(self.dram_cycles)
    }

    /// Real latency in milliseconds.
    pub fn latency_ms(&self, platform: &FpgaPlatform) -> f64 {
        self.real_cycles() as f64 * platform.clock_ns() / 1e6
    }

    /// Real GOP/s.
    pub fn gops(&self, platform: &FpgaPlatform) -> f64 {
        self.total_ops as f64 / 1e9 / (self.latency_ms(platform) / 1e3)
    }

    /// Theoretical GOP/s.
    pub fn theoretical_gops(&self, platform: &FpgaPlatform) -> f64 {
        let ms = self.theoretical_cycles() as f64 * platform.clock_ns() / 1e6;
        self.total_ops as f64 / 1e9 / (ms / 1e3)
    }
}

impl FusedDesign {
    /// Evaluates the design over the network's conv shapes.
    ///
    /// # Panics
    ///
    /// Panics if `tiles.len() != shapes.len()` or group sizes do not sum
    /// to the layer count.
    pub fn evaluate(&self, shapes: &[ConvShape], platform: &FpgaPlatform) -> FusedEval {
        assert_eq!(self.tiles.len(), shapes.len(), "tile list length");
        assert_eq!(
            self.group_sizes.iter().sum::<usize>(),
            shapes.len(),
            "group sizes must cover all layers"
        );
        let mut compute = 0u64;
        let mut weight_bits = 0u64;
        let mut interrupts = 0u64;
        let mut total_ops = 0u64;
        for (shape, &(tr, tc)) in shapes.iter().zip(&self.tiles) {
            let tile = TileConfig { tr, tc, tm: TM, tn: TN, npe: self.npe };
            compute += compute_cycles(shape, &tile);
            let phases = num_phases(shape, &tile);
            weight_bits += phases * (TM * TN * shape.k * shape.k * self.bits) as u64;
            interrupts += phases * INTERRUPT_CYCLES_PER_PHASE;
            total_ops += shape.ops();
        }
        // Feature traffic: input image + final conv output only (an empty
        // network moves nothing).
        let bits = self.bits;
        let input_bits =
            shapes.first().map_or(0, |f| (f.n * (f.r * f.s) * (f.c * f.s) * bits) as u64);
        let output_bits = shapes.last().map_or(0, |l| (l.m * l.r * l.c * bits) as u64);
        let feature_traffic = input_bits + output_bits;

        let eval_bits = weight_bits + feature_traffic;
        let dram_cycles = platform.dram_cycles(eval_bits);

        FusedEval {
            compute_cycles: compute,
            dram_cycles,
            interrupt_cycles: interrupts,
            bram18: self.bram18(shapes),
            feature_traffic_bits: feature_traffic,
            total_ops,
        }
    }

    /// BRAM estimate (the Figure 10 memory organisation): two ping-pong
    /// intermediate buffers sized to the largest in-flight block across
    /// **all** of its channels, one extra buffer holding the largest
    /// group-boundary feature map (the spliced CONV3 output of Figure 10f;
    /// the next group's pooled output overwrites it in place), and a
    /// double-buffered filter tile.
    pub fn bram18(&self, shapes: &[ConvShape]) -> usize {
        // Largest block's activations (all output channels x Tr x Tc).
        let max_block_bits = shapes
            .iter()
            .zip(&self.tiles)
            .map(|(s, &(tr, tc))| (s.m * tr * tc * self.bits) as u64)
            .max()
            .unwrap_or(0);
        // Extra buffer: the largest full feature map at a group boundary
        // (the input map of each group after the first).
        let mut extra_bits = 0u64;
        let mut idx = 0usize;
        for (gi, &gs) in self.group_sizes.iter().enumerate() {
            idx += gs;
            if gi + 1 < self.group_sizes.len() {
                let next = &shapes[idx];
                let map_bits = (next.n * next.r * next.c * self.bits) as u64;
                extra_bits = extra_bits.max(map_bits);
            }
        }
        let weight_bits = 2 * (TM * TN * 9 * self.bits) as u64; // ping-pong filter tile
        let plan = BufferPlan {
            intermediate_bits: max_block_bits,
            extra_bits,
            weight_bits,
            double_buffered: false,
        };
        plan.bram18()
    }
}

/// VGG-16 conv shapes at 224² input (13 layers), in accelerator order.
pub fn vgg16_shapes() -> Vec<ConvShape> {
    let spec: [(usize, usize, usize); 13] = [
        (3, 64, 224),
        (64, 64, 224),
        (64, 128, 112),
        (128, 128, 112),
        (128, 256, 56),
        (256, 256, 56),
        (256, 256, 56),
        (256, 512, 28),
        (512, 512, 28),
        (512, 512, 28),
        (512, 512, 14),
        (512, 512, 14),
        (512, 512, 14),
    ];
    spec.iter().map(|&(n, m, r)| ConvShape { m, n, r, c: r, k: 3, s: 1 }).collect()
}

/// The Table VI configurations. A–C are 16-bit / 2 PE; D–G are 8-bit /
/// 4 PE (Figure 12's two panels).
///
/// Note: the printed group row for G ("2, 2, 3, 5") sums to 12 of 13
/// layers; we use `[2, 2, 3, 6]`, consistent with its per-layer tile list.
pub fn table6_configs() -> Vec<FusedDesign> {
    let t14 = vec![(14, 14); 13];
    let mut b = vec![(28, 28); 4];
    b.extend(vec![(14, 14); 9]);
    let mut c = vec![(28, 28); 4];
    c.extend(vec![(28, 14); 3]);
    c.extend(vec![(14, 14); 6]);
    let mut f = vec![(28, 28); 7];
    f.extend(vec![(28, 14); 3]);
    f.extend(vec![(14, 14); 3]);
    let mut g = vec![(28, 28); 10];
    g.extend(vec![(14, 14); 3]);
    vec![
        FusedDesign {
            name: "A".into(),
            tiles: t14.clone(),
            group_sizes: vec![2, 2, 3, 3, 3],
            bits: 16,
            npe: 2,
        },
        FusedDesign { name: "B".into(), tiles: b, group_sizes: vec![2, 5, 3, 3], bits: 16, npe: 2 },
        FusedDesign {
            name: "C".into(),
            tiles: c.clone(),
            group_sizes: vec![2, 2, 3, 3, 3],
            bits: 16,
            npe: 2,
        },
        FusedDesign {
            name: "D".into(),
            tiles: t14,
            group_sizes: vec![2, 2, 3, 3, 3],
            bits: 8,
            npe: 4,
        },
        FusedDesign {
            name: "E".into(),
            tiles: c,
            group_sizes: vec![2, 2, 3, 3, 3],
            bits: 8,
            npe: 4,
        },
        FusedDesign {
            name: "F".into(),
            tiles: f,
            group_sizes: vec![2, 2, 3, 3, 3],
            bits: 8,
            npe: 4,
        },
        FusedDesign { name: "G".into(), tiles: g, group_sizes: vec![2, 2, 3, 6], bits: 8, npe: 4 },
    ]
}

/// BRAM utilisation of the published baseline implementation (Qiu et al.
/// FPGA'16 report 486 of 545 BRAM36 on the ZC706 = 972 BRAM18) — the
/// reference for the paper's "~10% BRAM increase" claim in §III-B5.
pub const QIU_PUBLISHED_BRAM18: usize = 972;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::zc706;

    #[test]
    fn table6_configs_are_well_formed() {
        let shapes = vgg16_shapes();
        for design in table6_configs() {
            assert_eq!(design.tiles.len(), 13, "{}", design.name);
            assert_eq!(design.group_sizes.iter().sum::<usize>(), 13, "{}", design.name);
            // Block sizes never exceed the layer resolution.
            for (shape, &(tr, tc)) in shapes.iter().zip(&design.tiles) {
                assert!(tr <= shape.r && tc <= shape.c, "{}", design.name);
            }
        }
    }

    #[test]
    fn all_table6_designs_fit_zc706() {
        // Figure 12: points A-G lie left of the ZC706 BRAM line.
        let shapes = vgg16_shapes();
        let p = zc706();
        for design in table6_configs() {
            let eval = design.evaluate(&shapes, &p);
            assert!(
                eval.bram18 <= p.bram18_blocks,
                "{} uses {} of {} BRAMs",
                design.name,
                eval.bram18,
                p.bram18_blocks
            );
        }
    }

    #[test]
    fn fused_feature_traffic_is_input_plus_output_only() {
        let shapes = vgg16_shapes();
        let design = &table6_configs()[0];
        let eval = design.evaluate(&shapes, &zc706());
        let expected = (3 * 224 * 224 * 16 + 512 * 14 * 14 * 16) as u64;
        assert_eq!(eval.feature_traffic_bits, expected);
    }

    #[test]
    fn eight_bit_designs_are_faster_than_16_bit() {
        // Figure 13: D-G (8-bit, 4 PE) outperform A-C (16-bit, 2 PE).
        let shapes = vgg16_shapes();
        let p = zc706();
        let configs = table6_configs();
        let a = configs[0].evaluate(&shapes, &p);
        let g = configs[6].evaluate(&shapes, &p);
        assert!(g.gops(&p) > a.gops(&p));
    }

    #[test]
    fn bigger_blocks_reduce_interrupts() {
        // Rectangular/large blocking reduces phase count and with it the
        // CPU-interrupt overhead (§III-B5 point 2).
        let shapes = vgg16_shapes();
        let p = zc706();
        let configs = table6_configs();
        let d = configs[3].evaluate(&shapes, &p); // all 14x14
        let g = configs[6].evaluate(&shapes, &p); // mostly 28x28
        assert!(g.interrupt_cycles < d.interrupt_cycles);
    }

    #[test]
    fn real_is_slower_than_theoretical() {
        let shapes = vgg16_shapes();
        let p = zc706();
        let eval = table6_configs()[6].evaluate(&shapes, &p);
        assert!(eval.gops(&p) < eval.theoretical_gops(&p));
    }

    #[test]
    fn vgg_shapes_total_30_8_gop() {
        let total: u64 = vgg16_shapes().iter().map(|s| s.ops()).sum();
        let gop = total as f64 / 1e9;
        assert!((gop - 30.7).abs() < 0.3, "got {gop}");
    }
}
