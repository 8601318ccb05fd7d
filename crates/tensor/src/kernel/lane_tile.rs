//! The **channel-lane micro-kernel**: 3×3 stride-1 convolution with the
//! vector lanes on *output channels*, for both precisions.
//!
//! A vector lane must be an output. Here the lanes are 16 (or, for a
//! group's last ≤ 8 channels, 8) consecutive output channels
//! ([`lane_tiles`]), and a register tile of 8 / 4 / 2 / 1 consecutive
//! pixels of one output row is held across **all** input channels
//! (`lane_tile`): per kernel row three weight-vector loads and `P + 2`
//! scalar broadcasts feed `3·P` vector multiply-adds. Every lane of every
//! tile is an output — no wrap columns, no rounded-up chunk, no minimum
//! plane size (a 1×1 output is one 1-pixel tile) — and the kernel reads the
//! padded activations in place and lane-major weights
//! `[group][c_out tile][c_in][tap][lanes]` ([`pack_lanes`]; the lanes a
//! ragged last tile has no channel for are zero). What it pays is a
//! transpose: a tile's lanes belong to different planes of the NCHW output,
//! so every output element costs a scalar store.
//!
//! There is **one** tile, generic over a [`Policy`] — how a lane
//! accumulates and what happens to a finished tile:
//!
//! * *ordered* (`Ordered`, the float path, `lane_conv` below): every lane
//!   starts at `bias[m]` and adds its taps as a separate multiply then add,
//!   one chain per (pixel, channel) lane in `(c_in, kh, kw)` order — the
//!   direct loop's order, so the result is bit for bit `super::direct`'s.
//!   No fused multiply-add, never a split chain; the instruction-level
//!   parallelism is the `P·L/8` independent chains of the tile.
//! * *exact* (`bconv_quant::qgemm`, the integer path): the lanes carry
//!   integers below 2²⁴, so any association — and a fused multiply-add — is
//!   exact; lanes start at zero, small tiles sum each kernel row into a set
//!   of its own, and the epilogue rescales.
//!
//! Float layers take this kernel from eight output channels per group up
//! (`takes`); thinner ones keep the spatial lanes of `super::plane`. The
//! integer path switches above eight: its 8-lane tiles measured 16–19
//! GMAC/s against the spatial lanes' 18–22 at 8→8 (its spatial-lane kernel
//! fuses, and sums three chains per lane), the float ones 26–30 against
//! 23–27.

use crate::conv::Conv2d;
use crate::Tensor;

/// Vector width the kernel is laid out for: eight f32 lanes, one 256-bit
/// register. Channel tiles are one or two vectors wide.
pub const VEC: usize = 8;

/// The channel tiles of a group of `cout_per_group` output channels, as
/// `(first channel, lanes)`: 16 lanes apiece, and 8 for a last tile of at
/// most eight channels — the weight layout ([`pack_lanes`]) and the sweeps
/// walk the same list.
pub fn lane_tiles(cout_per_group: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..cout_per_group)
        .step_by(2 * VEC)
        .map(move |mo| (mo, if cout_per_group - mo > VEC { 2 * VEC } else { VEC }))
}

/// Repacks row-major `[groups · cout_per_group][kk]` weights (`kk` = `c_in
/// / groups · 9`) lane-major into `data`: per group, per channel tile, per
/// `(c_in, tap)`, the tile's `lanes` weights side by side, zero in the
/// lanes a ragged last tile has no channel for. Allocates only to grow
/// `data`.
pub fn pack_lanes(weights: &[f32], [groups, cout_per_group, kk]: [usize; 3], data: &mut Vec<f32>) {
    let group_lanes: usize = lane_tiles(cout_per_group).map(|(_, lanes)| lanes).sum();
    data.resize(groups * group_lanes * kk, 0.0);
    let mut rest = data.as_mut_slice();
    for grp in 0..groups {
        for (mo, lanes) in lane_tiles(cout_per_group) {
            let tile;
            (tile, rest) = rest.split_at_mut(kk * lanes);
            let live = lanes.min(cout_per_group - mo);
            let rows = &weights[(grp * cout_per_group + mo) * kk..][..live * kk];
            // Contiguous writes, strided reads: 20 % cheaper than the
            // reverse, which matters to per-call packing on small planes.
            for (l, vec) in tile.chunks_exact_mut(lanes).enumerate() {
                for (dst, &w) in vec.iter_mut().zip(rows[l..].iter().step_by(kk)) {
                    *dst = w;
                }
                vec[live..].fill(0.0);
            }
        }
    }
}

/// Walks a layer's channel tiles in [`pack_lanes`] order, for every image:
/// calls `tile` with the tile's weights, its group's input planes (of
/// `acts`, `[n][c_in][plane]`), its live output channels (a ragged last
/// tile has fewer than its lanes), its lane count and those channels'
/// planes of `out` (`[n][c_out][oh · ow]`) — what [`sweep_lanes`] takes.
pub fn each_tile(
    wl: &[f32],
    acts: &[f32],
    out: &mut [f32],
    [n, groups, cin_per_group, cout_per_group]: [usize; 4],
    [oh, ow, _, plane]: [usize; 4],
    mut tile: impl FnMut(&[f32], &[f32], std::ops::Range<usize>, usize, &mut [f32]),
) {
    let (c_in, c_out, nn) = (groups * cin_per_group, groups * cout_per_group, oh * ow);
    for ni in 0..n {
        let mut wrest = wl;
        for grp in 0..groups {
            let g0 = (ni * c_in + grp * cin_per_group) * plane;
            let group = &acts[g0..g0 + cin_per_group * plane];
            for (mo, lanes) in lane_tiles(cout_per_group) {
                let wt;
                (wt, wrest) = wrest.split_at(cin_per_group * 9 * lanes);
                let m0 = grp * cout_per_group + mo;
                let live = m0..m0 + lanes.min(cout_per_group - mo);
                let dst = &mut out[(ni * c_out + m0) * nn..][..live.len() * nn];
                tile(wt, group, live, lanes, dst);
            }
        }
    }
}

/// How the `L` lanes of a channel tile accumulate and what is done to a
/// finished pixel tile before it is stored — the only things the two
/// precisions do differently.
pub trait Policy<const L: usize> {
    /// Whether the lane arithmetic is exact in *any* association. Only then
    /// may a tile of at most four vectors — bound by the latency of its
    /// accumulation chains, nine dependent operations per input channel —
    /// sum each kernel row into an accumulator set of its own (on 2×2
    /// planes that is 27 GMAC/s for 18 on the integer path). An ordered
    /// policy keeps one chain per lane.
    const EXACT: bool;

    /// What every pixel's lanes hold before the first tap.
    fn start(&self) -> [f32; L];

    /// One tap: `w · x + acc`.
    fn mac(w: f32, x: f32, acc: f32) -> f32;

    /// The epilogue, applied to a summed tile before it is transposed into
    /// the output planes.
    fn finish<const P: usize>(&self, acc: &mut [[f32; L]; P]);
}

/// Whether the widest pixel tile is 8: its 8 × 16 accumulators are sixteen
/// 256-bit registers, which leaves room for weights and broadcasts only in
/// AVX-512's file of 32 (built for a 16-register AVX2 target the same tile
/// spills some 90 vectors per input channel). Elsewhere rows are swept in
/// 4-pixel tiles. A build-time choice.
const TILE_8: bool = cfg!(target_feature = "avx512f");

/// Expands its body once per pixel of a `P`-pixel tile, with `$p` a
/// **constant** index. The lane loops of the channel-lane kernel must be
/// the only loops the vectoriser can see: with the pixels in a `for p in
/// 0..P` loop LLVM vectorises *across pixels* — gathers and scatters on a
/// stack-resident accumulator array — and the kernel runs ten times slower
/// with every test green.
#[macro_export]
#[doc(hidden)]
macro_rules! each_pixel {
    ($p:ident < $P:ident => $body:block) => {
        $crate::each_pixel!(@ $p $P $body 0 1 2 3 4 5 6 7)
    };
    (@ $p:ident $P:ident $body:block $($i:literal)*) => {$(
        if $i < $P {
            const $p: usize = $i;
            $body
        }
    )*};
}

/// One channel tile (`L` lanes, weights `wt`) over every output pixel of
/// one image's `group` planes: rows of 8-pixel tiles (4 without
/// `TILE_8`), then a 4, a 2 and a 1 for whatever width is left. `dst` is
/// the tile's live channels' planes of the output (`oh · ow` elements
/// apiece; a ragged last tile has fewer than `L`), every element of which
/// is written.
#[allow(clippy::out_of_bounds_indexing)] // `each_pixel!`'s dead `if 4 < 2 { acc[4] }` branches
pub fn sweep_lanes<const L: usize>(
    wt: &[f32],
    group: &[f32],
    [oh, ow, pw, plane]: [usize; 4],
    policy: &impl Policy<L>,
    dst: &mut [f32],
) {
    let nn = oh * ow;
    let live = dst.len() / nn;
    for ohi in 0..oh {
        let (src, to) = (ohi * pw, ohi * ow);
        let mut owi = 0;
        // Sums a `$P`-pixel tile, finishes it and transposes it into pixels
        // `to + owi..` of each live channel's plane; evaluates to `$P`.
        macro_rules! tile {
            ($P:literal) => {{
                const P: usize = $P;
                let mut acc = lane_tile::<P, L, _>(wt, group, src + owi, pw, plane, policy);
                policy.finish(&mut acc);
                for (l, start) in (to + owi..).step_by(nn).take(live).enumerate() {
                    let row = &mut dst[start..start + P];
                    each_pixel!(PX < P => {
                        row[PX] = acc[PX][l];
                    });
                }
                P
            }};
        }
        while TILE_8 && owi + 8 <= ow {
            owi += tile!(8);
        }
        while owi + 4 <= ow {
            owi += tile!(4);
        }
        if owi + 2 <= ow {
            owi += tile!(2);
        }
        if owi < ow {
            tile!(1);
        }
    }
}

/// The accumulators of `P` consecutive output pixels × `L` output
/// channels, summed over every input channel and tap in registers:
/// `acc[p][l] = start[l] + Σ_ci Σ_(r,c) wt[ci][3r + c][l] · group[ci·plane
/// + at + r·pw + p + c]`, each lane's taps taken in that `(ci, r, c)`
/// order. Per kernel row that is three `L`-lane weight loads and `P + 2`
/// scalar broadcasts for `3·P` `L`-lane multiply-adds.
///
/// Shaped for the autovectoriser, and checked against it: the lane loop is
/// innermost and the only loop over the tile (`each_pixel`), nothing inside
/// the reduction can panic (a panic edge makes LLVM keep the by-value
/// result in memory, and the stores it sinks there seed cross-pixel SLP
/// trees), the function is never inlined. After touching it, `objdump -d`
/// the `lane_tile` symbols: each must hold `9·P·L/8` multiply-adds on `ymm`
/// registers — `vfmadd231ps` for the exact policy, as many `vmulps` and
/// `vaddps` and no `vfmadd` for the ordered one; `<8, 16>`: 144, on 16
/// distinct accumulators — and no shuffle, `vgather` or `zmm` arithmetic
/// (the recipe is in `.claude/skills/verify/SKILL.md`).
#[inline(never)]
fn lane_tile<const P: usize, const L: usize, A: Policy<L>>(
    wt: &[f32],
    group: &[f32],
    at: usize,
    pw: usize,
    plane: usize,
    policy: &A,
) -> [[f32; L]; P] {
    // Tiles of at most four vectors sum in three sets under an exact policy.
    let split = A::EXACT && P * L <= 4 * VEC;
    let mut acc = [[policy.start(); P], [[0.0f32; L]; P], [[0.0f32; L]; P]];
    for (gp, wci) in group.chunks_exact(plane).zip(wt.chunks_exact(9 * L)) {
        macro_rules! kernel_row {
            ($r:literal) => {
                if let Some(row) = gp.get(at + $r * pw..).and_then(|s| s.get(..P + 2)) {
                    let wr = &wci[$r * 3 * L..][..3 * L];
                    let (w0, w1, w2) = (&wr[..L], &wr[L..2 * L], &wr[2 * L..]);
                    let set = if split { $r } else { 0 };
                    for l in 0..L {
                        each_pixel!(PX < P => {
                            let a = A::mac(w0[l], row[PX], acc[set][PX][l]);
                            let a = A::mac(w1[l], row[PX + 1], a);
                            acc[set][PX][l] = A::mac(w2[l], row[PX + 2], a);
                        });
                    }
                } else {
                    debug_assert!(false, "sweep_lanes keeps every tile inside its plane");
                }
            };
        }
        kernel_row!(0);
        kernel_row!(1);
        kernel_row!(2);
    }
    let [mut sum, s1, s2] = acc;
    if split {
        for l in 0..L {
            each_pixel!(PX < P => {
                sum[PX][l] += s1[PX][l] + s2[PX][l];
            });
        }
    }
    sum
}

/// The float policy: bias first, then multiply-then-add in tap order — the
/// direct loop's chain, so nothing about it may be reassociated or fused.
struct Ordered<const L: usize> {
    bias: [f32; L],
}

impl<const L: usize> Ordered<L> {
    /// For a tile whose live channels' biases are `bias`; the lanes past
    /// them start at zero and are never stored.
    fn new(bias: &[f32]) -> Self {
        Self { bias: std::array::from_fn(|l| bias.get(l).copied().unwrap_or(0.0)) }
    }
}

impl<const L: usize> Policy<L> for Ordered<L> {
    const EXACT: bool = false;

    #[inline(always)]
    fn start(&self) -> [f32; L] {
        self.bias
    }

    #[inline(always)]
    fn mac(w: f32, x: f32, acc: f32) -> f32 {
        acc + w * x
    }

    #[inline(always)]
    fn finish<const P: usize>(&self, _: &mut [[f32; L]; P]) {}
}

/// Whether the float channel-lane kernel takes a layer with kernel size
/// `k`, stride `s` and `cout_per_group` output channels per group: every
/// 3×3 stride-1 layer that fills an 8-lane tile, on any plane. Per call,
/// packed, it measured 1.3–2.6× the plane kernel at 16→16 (most on the
/// smallest planes) and 1.1–1.2× at 8→8 and 4→8; 4-channel layers on
/// half-empty tiles read 13 GMAC/s against 22–26, so thin layers stay where
/// they were.
pub(super) fn takes(k: usize, s: usize, cout_per_group: usize) -> bool {
    k == 3 && s == 1 && cout_per_group >= VEC
}

/// Evaluates a 3×3 stride-1 `conv` whose [`pack_lanes`] weights are `wl` on
/// `padded`, writing every element of the already shaped `out`. The caller
/// has checked [`takes`].
pub(super) fn lane_conv(conv: &Conv2d, wl: &[f32], padded: &Tensor, out: &mut Tensor) {
    let [n, c_in, ph, pw] = padded.shape().dims();
    let [_, c_out, oh, ow] = out.shape().dims();
    debug_assert_eq!((oh + 2, ow + 2), (ph, pw));
    let dims = [oh, ow, pw, ph * pw];
    let shape = [n, conv.groups(), c_in / conv.groups(), c_out / conv.groups()];
    each_tile(wl, padded.data(), out.data_mut(), shape, dims, |wt, group, live, lanes, dst| {
        let bias = &conv.bias()[live];
        if lanes == 2 * VEC {
            sweep_lanes(wt, group, dims, &Ordered::<{ 2 * VEC }>::new(bias), dst);
        } else {
            sweep_lanes(wt, group, dims, &Ordered::<VEC>::new(bias), dst);
        }
    });
}
