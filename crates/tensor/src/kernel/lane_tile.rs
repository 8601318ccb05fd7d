//! The 3×3 stride-1 kernels of both precisions: the **channel-lane
//! micro-kernel**, with the vector lanes on *output channels*, and the one
//! dispatch ([`conv3x3`]) that gives a layer's lanes to channels or, for
//! thin groups, to plane positions (`super::plane`).
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
//! so every output element costs a scalar store. That store is the
//! kernel's one output path (`sweep_lanes`) and takes an
//! [`OutGeom`]: a compact tensor, the interior of a fused
//! chain's next padded block buffer, or a block's place in a whole map are
//! the same stores at a different row and plane pitch. Under a pooling
//! [`Store`] a tile folds its pixels into their pooling windows on the
//! lanes instead and stores each window's cells (`pool_tile`).
//!
//! Both sweeps are generic over a [`Policy`] — how a lane accumulates and
//! what happens to a finished sum:
//!
//! * *ordered* (`Ordered`, the float path, `lane_conv` below): every lane
//!   starts at `bias[m]` and adds its taps as a separate multiply then add,
//!   one chain per (pixel, channel) lane in `(c_in, kh, kw)` order — the
//!   direct loop's order, so the result is bit for bit `super::direct`'s.
//!   No fused multiply-add, never a split chain; the instruction-level
//!   parallelism is the `P·L/8` independent chains of the tile. A fused
//!   stage followed by a ReLU folds it into the epilogue.
//! * *exact* (`bconv_quant::qgemm`, the integer path): the lanes carry
//!   integers below 2²⁴, so any association — and a fused multiply-add — is
//!   exact; lanes start at zero, small tiles sum each kernel row into a set
//!   of its own, and the epilogue rescales — and, in a fused chain, applies
//!   the ReLU and requantizes for the next stage.
//!
//! The epilogue lives in [`Policy::emit`], outside `lane_tile`: a policy's
//! epilogue never changes the tile's code.
//!
//! **A zero halo is free under the exact policy.** A fused block's
//! Equation 2 padding is zero and known before the block runs, so the
//! caller declares it ([`conv3x3`]' `zero`) and the tile skips every
//! tap that reads it: per output row the kernel rows that read a zero row,
//! and — at compile time, in a tile of two pixels or more that starts or
//! ends its row — the first pixel's left or the last pixel's right tap. An
//! exact zero added to an exact integer sum changes no bit; on an 8×8
//! block that is 92 of 576 taps, on vgg16_small's 2×2 ones more than half.
//! The ordered policy runs every tap: its lanes start at the bias, and a
//! `-0.0` bias plus a `+0.0` product is `+0.0`.
//!
//! **Which axis gets the lanes** is decided by [`conv3x3`] alone, for both
//! precisions: groups of eight output channels or more take channel lanes,
//! thinner ones the spatial-lane sweep, whose chunks of sixteen plane
//! positions feed up to four channels per source load — except on planes
//! whose padded-width span is narrower than one chunk (square padded 5×5
//! and below), which run the channel-lane tile on the same weights. A thin
//! group is one 8-lane tile with zero lanes past its channels, so every
//! 3×3 stride-1 layer packs the one layout, and 8→8 measured faster on
//! channel lanes at both precisions (module docs of `bconv_quant::qgemm`).

use std::ops::Range;

use super::{div_rem, plane, OutGeom, Store};
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

/// Evaluates a 3×3 stride-1 layer — `groups` groups of `cout_per_group`
/// output channels, weights `wl` packed by [`pack_lanes`] — on the padded
/// planes `acts` (`[n, c_in, ph, pw]`), storing every output at `at` in
/// `out` (whose planes run `[n][c_out]`): the one entry and the one axis
/// choice of both precisions. A 16-lane channel tile of the output channels
/// `live` runs under the policy `wide(live)`, an 8-lane one under
/// `narrow(live)`; a group of fewer than [`VEC`] channels (one 8-lane tile)
/// takes the spatial-lane sweep wherever its span fills a chunk (under a
/// pooling `store`, where its bands fit the sweep's stage too), every other
/// tile the channel-lane tile. `zero` declares the `[top, bottom, left,
/// right]` rows and columns of every plane that hold zeros (see
/// `sweep_lanes`); the spatial-lane sweep runs every tap regardless. Every
/// output goes through `store` ([`Store`]: `at` is the geometry of what it
/// stores). The caller has checked that the stored outputs fit.
pub fn conv3x3<W: Policy<{ 2 * VEC }>, N: Policy<VEC>, S: Store>(
    wl: &[f32],
    (acts, [n, c_in, ph, pw]): (&[f32], [usize; 4]),
    [groups, cout_per_group]: [usize; 2],
    zero: [usize; 4],
    (out, at): (&mut [f32], OutGeom),
    (wide, narrow): (impl Fn(Range<usize>) -> W, impl Fn(Range<usize>) -> N),
    store: S,
) {
    let (cin_per_group, c_out, plane) = (c_in / groups, groups * cout_per_group, ph * pw);
    let dims = [ph - 2, pw - 2, pw, plane];
    let spatial = cout_per_group < VEC
        && plane::fills_chunk(ph - 2, pw - 2)
        && (!S::POOLS || plane::bands_fit(ph - 2, pw - 2, cout_per_group, store.k()));
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
                let tile = (at, live.len());
                let dst = &mut out[at.offset + (ni * c_out + m0) * at.plane..];
                if lanes == 2 * VEC {
                    sweep_lanes(wt, group, dims, zero, tile, &wide(live), dst, store);
                } else if spatial && S::POOLS {
                    plane::sweep_bands(wt, group, dims, tile, &narrow(live), dst, store);
                } else if spatial {
                    plane::sweep(wt, group, dims, tile, &narrow(live), dst);
                } else {
                    sweep_lanes(wt, group, dims, zero, tile, &narrow(live), dst, store);
                }
            }
        }
    }
}

/// How the `L` lanes of a channel tile accumulate and what is done to a
/// finished sum before it is stored — the only things the two precisions
/// do differently. Both sweeps take it: the channel-lane tile, whose lanes
/// are the tile's channels, and the spatial-lane sweep, whose passes take
/// channel `l`'s start and epilogue from lane `l`.
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

    /// The epilogue of output channel `l` of the tile: the stored value of
    /// its finished sum `v`.
    fn emit(&self, l: usize, v: f32) -> f32;

    /// Whether [`emit`](Self::emit) returns every sum as it is, so that the
    /// sweeps skip their epilogue pass (a float stage without a ReLU: run,
    /// the pass of no-op selects read +5 % on `vgg224_f32_blocked`).
    fn keeps_sums(&self) -> bool;
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
macro_rules! each_pixel {
    ($p:ident < $P:ident => $body:block) => {
        each_pixel!(@ $p $P $body 0 1 2 3 4 5 6 7)
    };
    (@ $p:ident $P:ident $body:block $($i:literal)*) => {$(
        if $i < $P {
            const $p: usize = $i;
            $body
        }
    )*};
}

/// Applies `policy`'s epilogue to a summed pixel tile before it is
/// transposed into the output planes: one pass, lanes innermost.
#[inline(always)]
// The lane loop stays the one loop over the tile (see `each_pixel!`).
#[allow(clippy::needless_range_loop)]
fn finish<const P: usize, const L: usize, A: Policy<L>>(policy: &A, acc: &mut [[f32; L]; P]) {
    if policy.keeps_sums() {
        return;
    }
    for l in 0..L {
        each_pixel!(PX < P => {
            acc[PX][l] = policy.emit(l, acc[PX][l]);
        });
    }
}

/// One channel tile (`L` lanes, weights `wt`) over every output pixel of
/// one image's `group` planes: rows of 8-pixel tiles (4 without
/// `TILE_8`), then a 4, a 2 and a 1 for whatever width is left. `dst`
/// starts at the first output of the tile's first channel, and the `live`
/// channels' outputs (a ragged last tile has fewer than `L`) are stored at
/// the row and plane pitch of `at` — every one of them, and nothing else.
///
/// `zero` declares the `[top, bottom, left, right]` rows and columns of
/// every padded plane that hold zeros — a block's zero padding — and
/// `[0; 4]` declares none. Under an exact policy the taps that read them
/// are skipped: per output row the kernel rows that read a zero row
/// (`lane_tile`'s `rows` mask), and a tile of two pixels or more that
/// starts a row with a zero column on its left drops its first pixel's
/// left tap, one that ends a row with a zero column on its right its last
/// pixel's right tap (`FIRST` / `LAST`). An ordered policy runs every tap
/// (module docs).
///
/// Under a pooling `store` the tiles' outputs fold into the windows of the
/// pooled planes `at` holds (`pool_tile`): rows and tiles run in ascending
/// order, so each plane's outputs arrive in row-major order.
#[allow(clippy::out_of_bounds_indexing)] // `each_pixel!`'s dead `if 4 < 2 { acc[4] }` branches
#[allow(clippy::too_many_arguments)] // the store last, out of the plain store's way
fn sweep_lanes<const L: usize, A: Policy<L>, S: Store>(
    wt: &[f32],
    group: &[f32],
    [oh, ow, pw, plane]: [usize; 4],
    zero: [usize; 4],
    (at, live): (OutGeom, usize),
    policy: &A,
    dst: &mut [f32],
    store: S,
) {
    let pooled = [oh / store.k(), ow / store.k()];
    let [top, bottom, left, right] = if A::EXACT { zero } else { [0; 4] };
    // The padded rows that are not declared zero; kernel row `r` of output
    // row `ohi` reads padded row `ohi + r`.
    let data_rows = top..(oh + 2).saturating_sub(bottom);
    for ohi in 0..oh {
        let (src, to) = (ohi * pw, ohi * at.row);
        let rows = (0..3).filter(|r| data_rows.contains(&(ohi + r))).fold(0, |m, r| m | 1 << r);
        let mut owi = 0;
        // Sums a `$P`-pixel tile, finishes it and transposes it into pixels
        // `to + owi..` of each live channel's plane; evaluates to `$P`.
        macro_rules! tile {
            ($P:literal => $sum:expr) => {{
                const P: usize = $P;
                let mut acc = $sum;
                finish(policy, &mut acc);
                if S::POOLS {
                    pool_tile(&acc, (ohi, owi), (at, live, pooled), &store, dst);
                } else {
                    for (l, start) in (to + owi..).step_by(at.plane).take(live).enumerate() {
                        let row = &mut dst[start..start + P];
                        each_pixel!(PX < P => {
                            row[PX] = acc[PX][l];
                        });
                    }
                }
                P
            }};
            // A tile of two pixels or more, with the edge taps it may skip.
            ($P:literal) => {
                tile!($P => {
                    let at = src + owi;
                    match (left > 0 && owi == 0, right > 0 && owi + $P == ow) {
                        (false, false) => {
                            lane_tile::<$P, L, false, false, A>(wt, group, at, pw, plane, policy, rows)
                        }
                        (true, false) => {
                            lane_tile::<$P, L, true, false, A>(wt, group, at, pw, plane, policy, rows)
                        }
                        (false, true) => {
                            lane_tile::<$P, L, false, true, A>(wt, group, at, pw, plane, policy, rows)
                        }
                        (true, true) => {
                            lane_tile::<$P, L, true, true, A>(wt, group, at, pw, plane, policy, rows)
                        }
                    }
                })
            };
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
            // One pixel drops no edge tap: its edge variants compiled to
            // degenerate code.
            let at = src + owi;
            tile!(1 => lane_tile::<1, L, false, false, A>(wt, group, at, pw, plane, policy, rows));
        }
    }
}

/// Folds a finished tile — output pixels `x..x + P` of row `y` — into the
/// windows of the `sh × sw` pooled planes of the `live` channels at `at` in
/// `dst` (from the tile's first channel): per window the tile reaches, the
/// cells of every channel are folded on the lanes, pixel by pixel in
/// order, then stored; a row or column the pool drops is skipped.
#[inline(always)]
fn pool_tile<const P: usize, const L: usize, S: Store>(
    acc: &[[f32; L]; P],
    (y, x): (usize, usize),
    (at, live, [sh, sw]): (OutGeom, usize, [usize; 2]),
    store: &S,
    dst: &mut [f32],
) {
    let k = store.k();
    let ((cy, ry), (mut cx, mut rx)) = (div_rem(y, k), div_rem(x, k));
    if cy >= sh {
        return;
    }
    let mut pixels = acc.as_slice();
    while cx < sw && !pixels.is_empty() {
        let (window, rest) = pixels.split_at((k - rx).min(pixels.len()));
        let (first, last) = (ry == 0 && rx == 0, ry == k - 1 && rx + window.len() == k);
        let cell = cy * at.row + cx;
        let mut m = [f32::NEG_INFINITY; L];
        if !first {
            for (l, m) in m.iter_mut().enumerate().take(live) {
                *m = dst[l * at.plane + cell];
            }
        }
        for pixel in window {
            for (m, &v) in m.iter_mut().zip(pixel) {
                *m = m.max(v);
            }
        }
        for (l, &m) in m.iter().enumerate().take(live) {
            dst[l * at.plane + cell] = if last { store.post(m) } else { m };
        }
        (cx, rx, pixels) = (cx + 1, 0, rest);
    }
}

/// The accumulators of `P` consecutive output pixels × `L` output
/// channels, summed over every input channel and tap in registers:
/// `acc[p][l] = start[l] + Σ_ci Σ_(r,c) wt[ci][3r + c][l] · group[ci·plane
/// + at + r·pw + p + c]`, each lane's taps taken in that `(ci, r, c)`
/// order. Per kernel row that is three `L`-lane weight loads and `P + 2`
/// scalar broadcasts for `3·P` `L`-lane multiply-adds.
///
/// Under an exact policy the taps that read declared zeros are left out
/// (see [`sweep_lanes`]): kernel row `r` runs only where bit `r` of `rows`
/// is set — a test per input channel and kernel row, outside the lane
/// loop — and `FIRST` / `LAST` drop the first pixel's `c = 0` and the last
/// pixel's `c = 2` tap at compile time. An ordered policy ignores `rows`,
/// and `sweep_lanes` sets no edge flag for it.
///
/// Shaped for the autovectoriser, and checked against it: the lane loop is
/// innermost and the only loop over the tile (`each_pixel`), nothing inside
/// the reduction can panic (a panic edge makes LLVM keep the by-value
/// result in memory, and the stores it sinks there seed cross-pixel SLP
/// trees), the function is never inlined, and its parameters are separate
/// slices and scalars (packed into one tuple, they scalarised a float
/// instantiation: 408 scalar `xmm` operations for 36 `vmulps`). After
/// touching it, run `scripts/check_codegen.sh`: each `lane_tile` symbol
/// must hold `9·P·L/8` multiply-adds on `ymm` registers, less `3·L/8` per
/// dropped edge tap column — `vfmadd231ps` for the exact policy, as many
/// `vmulps` and `vaddps` and no `vfmadd` for the ordered one; `<8, 16>`:
/// 144, on 16 distinct accumulators — and no shuffle, `vgather` or `zmm`
/// arithmetic.
#[inline(never)]
fn lane_tile<const P: usize, const L: usize, const FIRST: bool, const LAST: bool, A: Policy<L>>(
    wt: &[f32],
    group: &[f32],
    at: usize,
    pw: usize,
    plane: usize,
    policy: &A,
    rows: u32,
) -> [[f32; L]; P] {
    // Tiles of at most four vectors sum in three sets under an exact policy.
    let split = A::EXACT && P * L <= 4 * VEC;
    let mut acc = [[policy.start(); P], [[0.0f32; L]; P], [[0.0f32; L]; P]];
    for (gp, wci) in group.chunks_exact(plane).zip(wt.chunks_exact(9 * L)) {
        macro_rules! kernel_row {
            ($r:literal) => {
                if !A::EXACT || rows & 1 << $r != 0 {
                    if let Some(row) = gp.get(at + $r * pw..).and_then(|s| s.get(..P + 2)) {
                        let wr = &wci[$r * 3 * L..][..3 * L];
                        let (w0, w1, w2) = (&wr[..L], &wr[L..2 * L], &wr[2 * L..]);
                        let set = if split { $r } else { 0 };
                        for l in 0..L {
                            each_pixel!(PX < P => {
                                let a = acc[set][PX][l];
                                let a = if FIRST && PX == 0 {
                                    a
                                } else {
                                    A::mac(w0[l], row[PX], a)
                                };
                                let a = A::mac(w1[l], row[PX + 1], a);
                                acc[set][PX][l] = if LAST && PX + 1 == P {
                                    a
                                } else {
                                    A::mac(w2[l], row[PX + 2], a)
                                };
                            });
                        }
                    } else {
                        debug_assert!(false, "sweep_lanes keeps every tile inside its plane");
                    }
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
/// direct loop's chain, so nothing about it may be reassociated or fused —
/// and, for a fused stage a ReLU follows, that ReLU on the finished sums.
struct Ordered<const L: usize> {
    bias: [f32; L],
    relu: bool,
}

impl<const L: usize> Ordered<L> {
    /// For a tile whose live channels' biases are `bias`; the lanes past
    /// them start at zero and are never stored.
    fn new(bias: &[f32], relu: bool) -> Self {
        Self { bias: std::array::from_fn(|l| bias.get(l).copied().unwrap_or(0.0)), relu }
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

    /// `relu_inplace`'s test, folded: a sum below zero becomes `0.0`
    /// (NaN and `-0.0` stay).
    #[inline(always)]
    fn emit(&self, _: usize, v: f32) -> f32 {
        if self.relu && v < 0.0 {
            0.0
        } else {
            v
        }
    }

    #[inline(always)]
    fn keeps_sums(&self) -> bool {
        !self.relu
    }
}

/// Whether the 3×3 stride-1 kernels take a layer with kernel size `k` and
/// stride `s` — every such layer, on any plane, at any channel count: its
/// weights are packed lane-major ([`pack_lanes`]) and [`conv3x3`] picks the
/// sweep. The integer path packs the same layers.
pub fn takes(k: usize, s: usize) -> bool {
    k == 3 && s == 1
}

/// Evaluates a 3×3 stride-1 `conv` whose [`pack_lanes`] weights are `wl` on
/// `padded`, storing every output (ReLU'd when `relu`) through `store` at
/// `at` in `out`. The caller has checked [`takes`] and that the stored
/// outputs fit.
pub(super) fn lane_conv<S: Store>(
    conv: &Conv2d,
    wl: &[f32],
    padded: &Tensor,
    out: &mut [f32],
    at: OutGeom,
    relu: bool,
    store: S,
) {
    let bias = conv.bias();
    conv3x3(
        wl,
        (padded.data(), padded.shape().dims()),
        [conv.groups(), conv.c_out() / conv.groups()],
        [0; 4],
        (out, at),
        (|live| Ordered::new(&bias[live], relu), |live| Ordered::new(&bias[live], relu)),
        store,
    );
}
