//! The loop-tiled baseline accelerator of Qiu et al. (FPGA'16), the design
//! the paper builds on (§III-B1, Listing 1) — and its cycle model,
//! Equations 3 and 4:
//!
//! ```text
//! N_phases = ceil(M/Tm) * ceil(N/Tn) * ceil(R/Tr) * ceil(C/Tc)       (Eq 4)
//! Cycles   = N_phases * (Tr + 2) * (Tc + 2) * Tm / Npe               (Eq 3)
//! ```
//!
//! plus a DRAM-traffic model (inputs with halo, weights per phase, outputs
//! with partial-sum round trips) and the CPU-interrupt overhead that the
//! paper identifies as the gap between theoretical and real performance
//! (§III-B5).

use crate::platform::FpgaPlatform;

/// Shape of one convolutional layer as the accelerator sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Output channels `M`.
    pub m: usize,
    /// Input channels `N`.
    pub n: usize,
    /// Output rows `R`.
    pub r: usize,
    /// Output columns `C`.
    pub c: usize,
    /// Kernel size `K`.
    pub k: usize,
    /// Stride `S`.
    pub s: usize,
}

impl ConvShape {
    /// Multiply–accumulate count of the layer.
    pub fn macs(&self) -> u64 {
        (self.k * self.k * self.n) as u64 * (self.r * self.c) as u64 * self.m as u64
    }

    /// Operation count (2 × MACs), the paper's GOP unit.
    pub fn ops(&self) -> u64 {
        2 * self.macs()
    }
}

/// Loop-tiling configuration of Listing 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileConfig {
    /// Output-row tile `Tr`.
    pub tr: usize,
    /// Output-column tile `Tc`.
    pub tc: usize,
    /// Output-channel tile `Tm`.
    pub tm: usize,
    /// Input-channel tile `Tn`.
    pub tn: usize,
    /// Number of parallel PEs `Npe`.
    pub npe: usize,
}

fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Equation 4: the number of computational phases of a layer.
pub fn num_phases(shape: &ConvShape, tile: &TileConfig) -> u64 {
    (ceil_div(shape.m, tile.tm)
        * ceil_div(shape.n, tile.tn)
        * ceil_div(shape.r, tile.tr)
        * ceil_div(shape.c, tile.tc)) as u64
}

/// Equation 3: computational cycles of a layer.
pub fn compute_cycles(shape: &ConvShape, tile: &TileConfig) -> u64 {
    num_phases(shape, tile) * ((tile.tr + 2) * (tile.tc + 2) * tile.tm / tile.npe) as u64
}

/// DRAM traffic of one layer in bits, at `bits`-bit activations/weights.
///
/// * inputs: every phase loads a `Tn × (S·Tr+K−S) × (S·Tc+K−S)` halo tile;
/// * weights: every phase loads `Tm × Tn × K × K` filters;
/// * outputs: written once, plus a write+read round trip for every extra
///   input-channel pass (partial sums when `Tn < N`).
pub fn dram_traffic_bits(shape: &ConvShape, tile: &TileConfig, bits: usize) -> u64 {
    let phases = num_phases(shape, tile);
    let in_tile_h = tile.tr * shape.s + shape.k - shape.s;
    let in_tile_w = tile.tc * shape.s + shape.k - shape.s;
    let input_bits = phases * (tile.tn * in_tile_h * in_tile_w * bits) as u64;
    let weight_bits = phases * (tile.tm * tile.tn * shape.k * shape.k * bits) as u64;
    let out_map = (shape.m * shape.r * shape.c * bits) as u64;
    let n_passes = ceil_div(shape.n, tile.tn) as u64;
    // One final write + (passes-1) partial-sum write+read round trips.
    let output_bits = out_map + (n_passes - 1) * 2 * out_map;
    input_bits + weight_bits + output_bits
}

/// Latency model of one layer on a platform: compute overlapped with DRAM
/// transfer (double buffering), plus a per-phase host-interrupt overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerLatency {
    /// Compute cycles (Eq 3).
    pub compute_cycles: u64,
    /// DRAM transfer cycles.
    pub dram_cycles: u64,
    /// Host CPU interrupt cycles (filter-transfer interrupts, §III-B5).
    pub interrupt_cycles: u64,
}

impl LayerLatency {
    /// Effective cycles with double buffering: compute and transfer
    /// overlap, interrupts serialise.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles.max(self.dram_cycles) + self.interrupt_cycles
    }
}

/// Per-phase CPU interrupt cost in cycles (DMA descriptor setup and
/// completion handling by the ARM host). Calibrated so the baseline's
/// real-vs-theoretical gap matches the paper's Figure 13.
pub const INTERRUPT_CYCLES_PER_PHASE: u64 = 2_000;

/// Evaluates one layer on a platform.
pub fn layer_latency(
    shape: &ConvShape,
    tile: &TileConfig,
    platform: &FpgaPlatform,
    bits: usize,
    count_interrupts: bool,
) -> LayerLatency {
    let phases = num_phases(shape, tile);
    LayerLatency {
        compute_cycles: compute_cycles(shape, tile),
        dram_cycles: platform.dram_cycles(dram_traffic_bits(shape, tile, bits)),
        interrupt_cycles: if count_interrupts { phases * INTERRUPT_CYCLES_PER_PHASE } else { 0 },
    }
}

/// Runs a whole network layer-by-layer (the baseline dataflow), returning
/// per-layer latencies and total off-chip feature-map traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Per-layer latency breakdown.
    pub layers: Vec<LayerLatency>,
    /// Total cycles.
    pub total_cycles: u64,
    /// Total feature-map DRAM traffic in bits (weights excluded).
    pub feature_traffic_bits: u64,
    /// Total operations.
    pub total_ops: u64,
}

impl BaselineReport {
    /// Total latency in milliseconds.
    pub fn latency_ms(&self, platform: &FpgaPlatform) -> f64 {
        self.total_cycles as f64 * platform.clock_ns() / 1e6
    }

    /// Achieved GOP/s.
    pub fn gops(&self, platform: &FpgaPlatform) -> f64 {
        self.total_ops as f64 / 1e9 / (self.latency_ms(platform) / 1e3)
    }
}

/// Evaluates the baseline accelerator over a conv-layer list.
pub fn run_baseline(
    shapes: &[ConvShape],
    tile: &TileConfig,
    platform: &FpgaPlatform,
    bits: usize,
) -> BaselineReport {
    let mut layers = Vec::with_capacity(shapes.len());
    let mut total_cycles = 0;
    let mut feature_traffic = 0u64;
    let mut total_ops = 0;
    for shape in shapes {
        let mut lat = layer_latency(shape, tile, platform, bits, true);
        // The baseline fields two DMA interrupts per phase (input tile in,
        // output tile out) where the fused design only transfers filters.
        lat.interrupt_cycles *= 2;
        total_cycles += lat.total_cycles();
        // Feature traffic: input read + output write round trips
        // (intermediate maps cross the boundary twice; approximate with the
        // same halo model as dram_traffic_bits minus weights).
        let phases = num_phases(shape, tile);
        let in_tile_h = tile.tr * shape.s + shape.k - shape.s;
        let in_tile_w = tile.tc * shape.s + shape.k - shape.s;
        feature_traffic += phases * (tile.tn * in_tile_h * in_tile_w * bits) as u64
            + (shape.m * shape.r * shape.c * bits) as u64;
        total_ops += shape.ops();
        layers.push(lat);
    }
    BaselineReport { layers, total_cycles, feature_traffic_bits: feature_traffic, total_ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::zc706;

    fn vgg_conv11() -> ConvShape {
        ConvShape { m: 64, n: 3, r: 224, c: 224, k: 3, s: 1 }
    }

    #[test]
    fn eq4_phase_count() {
        let tile = TileConfig { tr: 28, tc: 28, tm: 64, tn: 64, npe: 2 };
        // ceil(64/64)*ceil(3/64)*ceil(224/28)^2 = 1*1*8*8.
        assert_eq!(num_phases(&vgg_conv11(), &tile), 64);
    }

    #[test]
    fn eq3_cycle_count() {
        let tile = TileConfig { tr: 28, tc: 28, tm: 64, tn: 64, npe: 2 };
        // 64 phases * 30*30*64/2.
        assert_eq!(compute_cycles(&vgg_conv11(), &tile), 64 * 30 * 30 * 32);
    }

    #[test]
    fn more_pes_cut_cycles_proportionally() {
        let shape = vgg_conv11();
        let t2 = TileConfig { tr: 28, tc: 28, tm: 64, tn: 64, npe: 2 };
        let t4 = TileConfig { npe: 4, ..t2 };
        assert_eq!(compute_cycles(&shape, &t2), 2 * compute_cycles(&shape, &t4));
    }

    #[test]
    fn traffic_includes_halo_and_partial_sums() {
        let shape = ConvShape { m: 128, n: 128, r: 56, c: 56, k: 3, s: 1 };
        let tile = TileConfig { tr: 28, tc: 28, tm: 64, tn: 64, npe: 2 };
        let traffic = dram_traffic_bits(&shape, &tile, 16);
        // 2 output-channel passes x 2 input passes x 4 spatial = 16 phases.
        assert_eq!(num_phases(&shape, &tile), 16);
        // Partial sums force one extra write+read of the output map.
        let out_map = (128 * 56 * 56 * 16) as u64;
        assert!(traffic > 3 * out_map);
    }

    #[test]
    fn latency_overlaps_compute_and_dram() {
        let lat = LayerLatency { compute_cycles: 1000, dram_cycles: 600, interrupt_cycles: 50 };
        assert_eq!(lat.total_cycles(), 1050);
    }

    #[test]
    fn baseline_report_aggregates() {
        let shapes = [vgg_conv11(), ConvShape { m: 64, n: 64, r: 224, c: 224, k: 3, s: 1 }];
        let tile = TileConfig { tr: 28, tc: 28, tm: 64, tn: 64, npe: 2 };
        let p = zc706();
        let report = run_baseline(&shapes, &tile, &p, 16);
        assert_eq!(report.layers.len(), 2);
        assert!(report.gops(&p) > 1.0);
        assert!(report.latency_ms(&p) > 0.0);
        assert_eq!(report.total_ops, shapes.iter().map(|s| s.ops()).sum::<u64>());
    }

    #[test]
    fn interrupts_worsen_real_vs_theoretical() {
        let shape = vgg_conv11();
        let tile = TileConfig { tr: 14, tc: 14, tm: 64, tn: 64, npe: 2 };
        let p = zc706();
        let real = layer_latency(&shape, &tile, &p, 16, true);
        let theo = layer_latency(&shape, &tile, &p, 16, false);
        assert!(real.total_cycles() > theo.total_cycles());
    }
}
