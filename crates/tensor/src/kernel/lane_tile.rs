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
//! the same stores at a different row and plane pitch.
//!
//! **A pooled store is a loop around the same sweeps.** A convolution a
//! `k × k` / stride-`k` max pooling follows ([`conv3x3`]' `pool`) stores
//! only the pooled block: per channel tile, `pool_bands` sweeps one
//! rectangle of whole pooling windows at a time — as many window rows as
//! fit the thread's stage of [`STAGE`] outputs, split by columns only
//! when one window row does not — with the sweep the plain store would run,
//! into the stage, and pools the stage into the destination with the
//! pooling's own code (`crate::pool::pool_planes`), so every bit is the
//! pooling's. Rows and columns the pooling drops are never computed. Both
//! sweeps take a rectangle of the padded plane (`Tile::sweep`); the exact
//! tile takes its zero-halo rows and edge columns from the rectangle's
//! absolute rows and columns. A plain store passes [`no_pool`], a `None`
//! whose `Some` has no values, so it is an instantiation of its own
//! without the pooled path: the plain code and stack frames are those of
//! a kernel that never pools.
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

use std::cell::RefCell;
use std::ops::Range;

use super::{plane, OutGeom};
use crate::conv::Conv2d;
use crate::pool::pool_planes;
use crate::shape::conv_out_dim;
use crate::{Tensor, TensorError};

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
/// takes the spatial-lane sweep wherever its span fills a chunk, every
/// other tile the channel-lane tile. `zero` declares the `[top, bottom,
/// left, right]` rows and columns of every plane that hold zeros (see
/// `sweep_lanes`); the spatial-lane sweep runs every tap regardless.
///
/// With a `pool` `Some((k, post))`, a `k × k` / stride-`k` max pooling
/// follows and `at` is the geometry of its outputs: each tile's outputs are
/// pooled through `post` on the way (`pool_bands`, module docs) — bit for
/// bit the compact store followed by [`crate::pool::max_pool2d_at`] through
/// `post`. A plain store passes [`no_pool`]. The caller has checked that
/// the stored outputs fit ([`stored_dims`]).
pub fn conv3x3<W: Policy<{ 2 * VEC }>, N: Policy<VEC>>(
    wl: &[f32],
    (acts, [n, c_in, ph, pw]): (&[f32], [usize; 4]),
    [groups, cout_per_group]: [usize; 2],
    zero: [usize; 4],
    (out, at): (&mut [f32], OutGeom),
    policies: (impl Fn(Range<usize>) -> W, impl Fn(Range<usize>) -> N),
    pool: Option<(impl Into<usize> + Copy, impl Fn(f32) -> f32 + Copy)>,
) {
    let (cin_per_group, c_out, plane) = (c_in / groups, groups * cout_per_group, ph * pw);
    let dims = [ph - 2, pw - 2, pw, plane];
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
                let tile = Tile { wt, group, dims, zero, live, lanes, thin: cout_per_group < VEC };
                let dst = &mut out[at.offset + (ni * c_out + m0) * at.plane..];
                match pool {
                    None => tile.sweep([0..ph - 2, 0..pw - 2], (dst, at), &policies),
                    Some((k, post)) => pool_bands(&tile, (k.into(), post), (dst, at), &policies),
                }
            }
        }
    }
}

/// The `pool` of a plain store ([`conv3x3`]): its window is a [`NoPool`],
/// a type with no values, so `Some` cannot be and takes no space, and a
/// plain store is an instantiation of its own with no pooled path — the
/// code and stack frames of a kernel that never pools.
pub fn no_pool() -> Option<(NoPool, impl Fn(f32) -> f32 + Copy)> {
    None::<NoPool>.map(|never| (never, |v| v))
}

/// The pooling window of a plain store, which has none ([`no_pool`]).
#[derive(Clone, Copy)]
pub enum NoPool {}

impl From<NoPool> for usize {
    fn from(never: NoPool) -> usize {
        match never {}
    }
}

/// Outputs a pooled store stages per rectangle of whole pooling windows
/// (`pool_bands`): a kernel line buffer, like a tile's registers.
pub const STAGE: usize = 2048;

// The stage, one per thread: a stack stage, zeroed on every call, read the
// small pooled blocks of `serve_burst_w8a8` +6.5 % quiet p50 (2-vCPU Xeon).
thread_local!(static STAGE_BUF: RefCell<[f32; STAGE]> = const { RefCell::new([0.0; STAGE]) });

/// The widest `k × k` max pooling that folds into the 3×3 sweeps' store:
/// one window of a 16-lane tile fits the [`STAGE`] (11).
pub const MAX_POOL: usize = (STAGE / (2 * VEC)).isqrt();

/// The dims stored for an `oh × ow` output with a `k × k` / stride-`k` max
/// pooling folded into the store (`None`: no pooling).
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] when the window is wider than
/// [`MAX_POOL`], zero, or larger than the output.
#[inline]
pub fn stored_dims([oh, ow]: [usize; 2], pool: Option<usize>) -> Result<[usize; 2], TensorError> {
    match pool {
        None => Ok([oh, ow]),
        Some(k) if k > MAX_POOL => Err(TensorError::invalid("pooling window too large")),
        Some(k) => Ok([conv_out_dim(oh, k, k, 0)?, conv_out_dim(ow, k, k, 0)?]),
    }
}

/// One channel tile of one image's group: weights `wt` (`lanes` wide) over
/// the padded `group` planes, for the output channels `live`; `dims` is
/// `[oh, ow, pw, plane]`, `zero` the declared zero halo, and `thin` says
/// the group has fewer than [`VEC`] channels.
struct Tile<'a> {
    wt: &'a [f32],
    group: &'a [f32],
    dims: [usize; 4],
    zero: [usize; 4],
    live: Range<usize>,
    lanes: usize,
    thin: bool,
}

impl Tile<'_> {
    /// Sweeps the outputs `[ys, xs]` (rows and columns of the output plane)
    /// of the tile's channels into `dst`, which starts at the rectangle's
    /// first output of the first channel, at the row and plane pitch of
    /// `at`: the sweep [`conv3x3`] picks for the rectangle.
    #[inline(always)]
    fn sweep<W: Policy<{ 2 * VEC }>, N: Policy<VEC>>(
        &self,
        rect: [Range<usize>; 2],
        (dst, at): (&mut [f32], OutGeom),
        (wide, narrow): &(impl Fn(Range<usize>) -> W, impl Fn(Range<usize>) -> N),
    ) {
        let Tile { wt, group, dims, zero, ref live, lanes, thin } = *self;
        let tile = (at, live.len());
        if lanes == 2 * VEC {
            sweep_lanes(wt, group, (dims, rect), zero, tile, &wide(live.clone()), dst);
        } else if thin && (rect[0].len() - 1) * dims[2] + rect[1].len() >= plane::LANES {
            plane::sweep(wt, group, [dims[2], dims[3]], rect, tile, &narrow(live.clone()), dst);
        } else {
            sweep_lanes(wt, group, (dims, rect), zero, tile, &narrow(live.clone()), dst);
        }
    }
}

/// A channel tile's pooled store: the windows of a `k × k` / stride-`k`
/// max pooling, a rectangle at a time — as many whole window rows as fit
/// the [`STAGE`], or, when one does not, as many windows of one row as fit
/// — swept into the thread's compact stage and pooled from there through
/// `post` into the pooled planes at `at` in `dst`. Out of line, and only
/// the pooled instantiation of [`conv3x3`] calls it. The caller has checked
/// [`stored_dims`].
#[inline(never)]
fn pool_bands<W: Policy<{ 2 * VEC }>, N: Policy<VEC>>(
    tile: &Tile,
    (k, post): (usize, impl Fn(f32) -> f32),
    (dst, at): (&mut [f32], OutGeom),
    policies: &(impl Fn(Range<usize>) -> W, impl Fn(Range<usize>) -> N),
) {
    let (sh, sw, cell) = (tile.dims[0] / k, tile.dims[1] / k, k * k * tile.live.len());
    // Windows per rectangle: whole window rows while they fit, else as many
    // windows of one row as fit.
    let fit = STAGE / (cell * sw);
    let (rows, cols) = if fit > 0 { (fit, sw) } else { (1, STAGE / cell) };
    STAGE_BUF.with_borrow_mut(|stage| {
        for y in (0..sh).step_by(rows) {
            let ys = y * k..(y + rows).min(sh) * k;
            for x in (0..sw).step_by(cols) {
                let xs = x * k..(x + cols).min(sw) * k;
                let planes @ [_, h, w] = [tile.live.len(), ys.len(), xs.len()];
                tile.sweep([ys.clone(), xs], (&mut *stage, OutGeom::compact(h, w)), policies);
                let to = OutGeom { offset: y * at.row + x, ..at };
                pool_planes((&*stage, planes), (k, k), (&mut *dst, to), (|v| v, &post));
            }
        }
    });
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

/// One channel tile (`L` lanes, weights `wt`) over the output rectangle
/// `[ys, xs]` of one image's `group` planes (`[oh, ow, pw, plane]`): rows of
/// 8-pixel tiles (4 without `TILE_8`), then a 4, a 2 and a 1 for whatever
/// width is left. `dst` starts at the rectangle's first output of the
/// tile's first channel, and the `live` channels' outputs (a ragged last
/// tile has fewer than `L`) are stored at the row and plane pitch of `at` —
/// every one of them, and nothing else.
///
/// `zero` declares the `[top, bottom, left, right]` rows and columns of
/// every padded plane that hold zeros — a block's zero padding — and
/// `[0; 4]` declares none. Under an exact policy the taps that read them
/// are skipped: per output row the kernel rows that read a zero row
/// (`lane_tile`'s `rows` mask), and a tile of two pixels or more that
/// starts a row with a zero column on its left drops its first pixel's
/// left tap, one that ends a row with a zero column on its right its last
/// pixel's right tap (`FIRST` / `LAST`) — rows and columns of the plane,
/// not of the rectangle. An ordered policy runs every tap (module docs).
#[allow(clippy::out_of_bounds_indexing)] // `each_pixel!`'s dead `if 4 < 2 { acc[4] }` branches
#[inline(always)]
fn sweep_lanes<const L: usize, A: Policy<L>>(
    wt: &[f32],
    group: &[f32],
    ([oh, ow, pw, plane], [ys, xs]): ([usize; 4], [Range<usize>; 2]),
    zero: [usize; 4],
    (at, live): (OutGeom, usize),
    policy: &A,
    dst: &mut [f32],
) {
    let [top, bottom, left, right] = if A::EXACT { zero } else { [0; 4] };
    // The padded rows that are not declared zero; kernel row `r` of output
    // row `ohi` reads padded row `ohi + r`.
    let data_rows = top..(oh + 2).saturating_sub(bottom);
    for ohi in ys.clone() {
        let (src, to) = (ohi * pw, (ohi - ys.start) * at.row);
        let rows = (0..3).filter(|r| data_rows.contains(&(ohi + r))).fold(0, |m, r| m | 1 << r);
        let mut owi = xs.start;
        // Sums a `$P`-pixel tile, finishes it and transposes it into the
        // rectangle's pixels `owi..` of each live channel's plane;
        // evaluates to `$P`.
        macro_rules! tile {
            ($P:literal => $sum:expr) => {{
                const P: usize = $P;
                let mut acc = $sum;
                finish(policy, &mut acc);
                for (l, start) in (to + owi - xs.start..).step_by(at.plane).take(live).enumerate() {
                    let row = &mut dst[start..start + P];
                    each_pixel!(PX < P => {
                        row[PX] = acc[PX][l];
                    });
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
        while TILE_8 && owi + 8 <= xs.end {
            owi += tile!(8);
        }
        while owi + 4 <= xs.end {
            owi += tile!(4);
        }
        if owi + 2 <= xs.end {
            owi += tile!(2);
        }
        if owi < xs.end {
            // One pixel drops no edge tap: its edge variants compiled to
            // degenerate code.
            let at = src + owi;
            tile!(1 => lane_tile::<1, L, false, false, A>(wt, group, at, pw, plane, policy, rows));
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
/// `padded`, storing every output (ReLU'd when `relu`) at `at` in `out`, or
/// pooling them through `pool` (see [`conv3x3`]). The caller has checked
/// [`takes`] and that the stored outputs fit.
pub(super) fn lane_conv(
    conv: &Conv2d,
    wl: &[f32],
    padded: &Tensor,
    out: &mut [f32],
    at: OutGeom,
    relu: bool,
    pool: Option<(impl Into<usize> + Copy, impl Fn(f32) -> f32 + Copy)>,
) {
    let (bias, groups) = (conv.bias(), conv.groups());
    let acts = (padded.data(), padded.shape().dims());
    let policies = (|live| Ordered::new(&bias[live], relu), |live| Ordered::new(&bias[live], relu));
    conv3x3(wl, acts, [groups, conv.c_out() / groups], [0; 4], (out, at), policies, pool);
}
