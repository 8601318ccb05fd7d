//! Brute-force design-space exploration (§III-B4, Figure 12): enumerate
//! stage-aligned fusion groupings of VGG-16 and per-group blocking sizes,
//! evaluating inference latency and BRAM consumption for each point.

use crate::baseline::ConvShape;
use crate::fusion::{FusedDesign, FusedEval};
use crate::platform::FpgaPlatform;

/// One explored design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// The design.
    pub design: FusedDesign,
    /// Its evaluation.
    pub eval: FusedEval,
}

/// VGG-16's five conv stages as (start layer index, layer count,
/// resolution).
const VGG_STAGES: [(usize, usize, usize); 5] =
    [(0, 2, 224), (2, 2, 112), (4, 3, 56), (7, 3, 28), (10, 3, 14)];

/// Candidate `[Tr, Tc]` block sizes per group (square and rectangular, the
/// sizes Table VI draws from).
const BLOCK_OPTIONS: [(usize, usize); 5] = [(14, 14), (28, 14), (28, 28), (56, 28), (56, 56)];

/// Enumerates contiguous partitions of the five stages into fusion groups,
/// assigns every group each feasible block option, and evaluates all
/// resulting designs.
///
/// `bits`/`npe` select Figure 12's panel (16-bit/2 PE or 8-bit/4 PE).
pub fn explore_vgg16(
    shapes: &[ConvShape],
    platform: &FpgaPlatform,
    bits: usize,
    npe: usize,
) -> Vec<DsePoint> {
    let mut points = Vec::new();
    // 2^(5-1) contiguous partitions of the 5 stages.
    for mask in 0u32..16 {
        // A group closes after stage i when bit i is set, and after the
        // last stage.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut open = Vec::new();
        for si in 0..VGG_STAGES.len() {
            open.push(si);
            if si + 1 == VGG_STAGES.len() || mask & (1 << si) != 0 {
                groups.push(std::mem::take(&mut open));
            }
        }
        // Assign each group one of the block options (cartesian product).
        let g = groups.len();
        let combos = BLOCK_OPTIONS.len().pow(g as u32);
        'combo: for combo in 0..combos {
            let mut tiles = vec![(0usize, 0usize); 13];
            let mut group_sizes = Vec::with_capacity(g);
            let mut rem = combo;
            for stages in &groups {
                let (tr, tc) = BLOCK_OPTIONS[rem % BLOCK_OPTIONS.len()];
                rem /= BLOCK_OPTIONS.len();
                let mut layer_count = 0;
                for &si in stages {
                    let (start, count, res) = VGG_STAGES[si];
                    if tr > res || tc > res {
                        continue 'combo; // block larger than the map
                    }
                    for tile in &mut tiles[start..start + count] {
                        *tile = (tr, tc);
                    }
                    layer_count += count;
                }
                group_sizes.push(layer_count);
            }
            let design = FusedDesign {
                name: format!("dse-{mask:02}-{combo:03}"),
                tiles,
                group_sizes,
                bits,
                npe,
            };
            let eval = design.evaluate(shapes, platform);
            points.push(DsePoint { design, eval });
        }
    }
    points
}

/// Filters points that fit the platform's BRAM (left of Figure 12's dotted
/// line).
pub fn feasible<'a>(points: &'a [DsePoint], platform: &FpgaPlatform) -> Vec<&'a DsePoint> {
    points.iter().filter(|p| p.eval.bram18 <= platform.bram18_blocks).collect()
}

/// The §IV dominance rule on two minimised objectives: indices of the keys
/// no other key dominates (`q` dominates `p` when it is no worse on both
/// and better on one).
fn pareto_indices(keys: &[(u64, u64)]) -> Vec<usize> {
    let dominated =
        |p: (u64, u64)| keys.iter().any(|q| (q.0 < p.0 && q.1 <= p.1) || (q.0 <= p.0 && q.1 < p.1));
    (0..keys.len()).filter(|&i| !dominated(keys[i])).collect()
}

/// Pareto front by (BRAM, real cycles): points not dominated by any other.
pub fn pareto_front(points: &[DsePoint]) -> Vec<&DsePoint> {
    let keys: Vec<(u64, u64)> =
        points.iter().map(|p| (p.eval.bram18 as u64, p.eval.real_cycles())).collect();
    pareto_indices(&keys).into_iter().map(|i| &points[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::vgg16_shapes;
    use crate::platform::zc706;

    #[test]
    fn exploration_yields_many_points() {
        let shapes = vgg16_shapes();
        let points = explore_vgg16(&shapes, &zc706(), 16, 2);
        assert!(points.len() > 100, "only {} points", points.len());
    }

    #[test]
    fn some_points_are_feasible_on_zc706() {
        // Figure 12's message: many configurations fit on-chip.
        let shapes = vgg16_shapes();
        let p = zc706();
        for (bits, npe) in [(16, 2), (8, 4)] {
            let points = explore_vgg16(&shapes, &p, bits, npe);
            let feas = feasible(&points, &p);
            assert!(!feas.is_empty(), "{bits}-bit should have feasible points");
            assert!(feas.len() < points.len(), "some must be infeasible");
        }
    }

    #[test]
    fn eight_bit_designs_need_less_bram() {
        let shapes = vgg16_shapes();
        let p = zc706();
        let min16 =
            explore_vgg16(&shapes, &p, 16, 2).iter().map(|pt| pt.eval.bram18).min().unwrap();
        let min8 = explore_vgg16(&shapes, &p, 8, 4).iter().map(|pt| pt.eval.bram18).min().unwrap();
        assert!(min8 < min16);
    }

    #[test]
    fn pareto_front_is_nonempty_and_nondominated() {
        let shapes = vgg16_shapes();
        let p = zc706();
        let points = explore_vgg16(&shapes, &p, 8, 4);
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        for a in &front {
            for b in &points {
                let dominates =
                    b.eval.bram18 < a.eval.bram18 && b.eval.real_cycles() <= a.eval.real_cycles();
                assert!(!dominates, "front point dominated");
            }
        }
    }

    #[test]
    fn blocks_never_exceed_stage_resolution() {
        let shapes = vgg16_shapes();
        let points = explore_vgg16(&shapes, &zc706(), 8, 4);
        for pt in &points {
            for (shape, &(tr, tc)) in shapes.iter().zip(&pt.design.tiles) {
                assert!(tr <= shape.r && tc <= shape.c);
            }
        }
    }
}
