//! The **spatial-lane sweep**: 3×3 stride-1 convolution with the vector
//! lanes on *plane positions*, for both precisions — the sweep of **thin
//! groups** (up to seven output channels, depthwise included), which cannot
//! fill a vector with output channels. It reads the one lane-major weight
//! layout of every 3×3 stride-1 layer (a thin group is one 8-lane tile of
//! [`super::lane_tile::pack_lanes`]), and `lane_tile::conv3x3` picks it,
//! generic over the same [`Policy`] as the channel-lane tile.
//!
//! The im2col path inflates the input ninefold before a GEMM whose work
//! per patch element is only `c_out / groups`. This sweep reads the padded
//! planes in place instead: the accumulators live in the *padded-width*
//! plane layout — flat index `p = oh·pw + ow`, so tap `(kh, kw)` of every
//! output position is the same plane shifted by `kh·pw + kw` — and the flat
//! span `(oh - 1)·pw + ow` is swept in [`LANES`]-wide chunks. Each chunk's
//! accumulators stay in registers across **all** input channels, one
//! source vector load feeds up to four output channels, and the result goes
//! through the policy's epilogue ([`Policy::emit`]) straight into the
//! output rows at an [`OutGeom`] — a compact tensor, or, in a fused chain,
//! the next stage's padded buffer or the group's output map.
//!
//! A span narrower than one chunk (square padded planes of 5×5 and below,
//! short strips) has too few lanes to fill; `conv3x3` runs the
//! channel-lane tile there, on the same weights.
//!
//! The sweep covers any rectangle of the output plane: its chunks run over
//! the rectangle's span at the padded plane's row pitch, from the
//! rectangle's first output — a whole plane for a plain store, one
//! rectangle of whole pooling windows at a time for a pooled one
//! (`lane_tile`'s module docs), whose compact stage it then stores into.
//!
//! # Junk lanes
//!
//! The `pw - ow` wrap columns of every row are computed like any other
//! lane, on windows that straddle two rows. They are the only junk: the
//! last chunk is moved back to end exactly with the span (it recomputes a
//! few lanes of its predecessor, to the same bits) instead of being
//! rounded up past it, so every window lies inside its own channel plane
//! and no slack copy of the input is needed. Lanes never mix, and only
//! columns `0..ow` survive `store_chunk`, so whatever a junk lane holds —
//! NaN and infinities included — cannot reach `out`. In a row wider than
//! `ow` nothing past a row's last output is touched either: those are
//! another buffer's halo or another block's outputs.
//!
//! # Arithmetic
//!
//! Exactly the channel-lane tile's policies. Under the *ordered* (float)
//! policy every lane starts at `bias[m]` and adds its taps as a separate
//! multiply then add, one chain per lane, in `(c_in, kh, kw)` order —
//! exactly the direct loop's (`super::direct`), so the output is bit for
//! bit the direct kernel's; the instruction-level parallelism comes from
//! running up to four output channels' chains side by side, never from
//! reassociation. Under the *exact* (integer) policy lanes start at zero,
//! fuse their multiply-adds, and a one-channel pass — two vectors, bound by
//! the latency of its chains — sums each kernel row into a set of its own.
//! A declared zero halo changes nothing here: chunks span rows, so every
//! tap runs. `tests/plane_kernel_shapes.rs` of both crates sweeps every
//! small plane shape against the direct loops.

use std::ops::Range;

use super::lane_tile::{Policy, VEC};
use super::OutGeom;

/// Accumulator chunk width: two 8-lane vectors per output channel, so a
/// four-channel pass keeps eight independent chains in flight. A rectangle
/// the sweep takes fills one chunk: its span, the padded-width layout up to
/// its last output, is at least this wide (square padded planes of 5×5 and
/// below are not).
pub(super) const LANES: usize = 16;

/// Sweeps one thin channel tile (`L` lanes, [`pack_lanes`] weights `wt`,
/// `live` of them output channels) over the outputs `[ys, xs]` of one
/// image's `group` planes (padded width `pw`, `plane` elements each),
/// storing each through `policy`'s epilogue at the row and plane pitch of
/// `at` in `dst` (which starts at the rectangle's first output of the
/// tile's first channel) — every output of the rectangle, and nothing
/// else. The caller has checked that the rectangle fills a chunk
/// ([`LANES`]).
///
/// [`pack_lanes`]: super::lane_tile::pack_lanes
pub(super) fn sweep<const L: usize, A: Policy<L>>(
    wt: &[f32],
    group: &[f32],
    [pw, plane]: [usize; 2],
    [ys, xs]: [Range<usize>; 2],
    (at, live): (OutGeom, usize),
    policy: &A,
    dst: &mut [f32],
) {
    // The rectangle's span in the padded-width layout.
    let (ow, span) = (xs.len(), (ys.len() - 1) * pw + xs.len());
    debug_assert!(span >= LANES);
    let geom = PlaneGeom { pw, ow, plane, at, region: (ys.len() - 1) * at.row + ow };
    // Chunks outermost: one chunk's source windows stay in L1 while every
    // pass of output channels sweeps them.
    for first in (0..span).step_by(LANES) {
        // The last chunk ends exactly with the span.
        let first = first.min(span - LANES);
        let chunk = (ys.start * pw + xs.start + first, (first / pw, first % pw));
        let mut mo = 0;
        while mo < live {
            // Two channels left go as two single passes: the `<2>`
            // instantiation never vectorised (SLP glued its unrolled taps
            // into `xmm` shuffles; 4→2 on a 58×58 plane read 9.7 GMAC/s,
            // 18.5 this way).
            let left = live - mo;
            let m = if left == 2 { 1 } else { left.min(4) };
            match m {
                1 => pass::<1, L, A>(group, chunk, &geom, (wt, mo, policy), dst),
                3 => pass::<3, L, A>(group, chunk, &geom, (wt, mo, policy), dst),
                _ => pass::<4, L, A>(group, chunk, &geom, (wt, mo, policy), dst),
            }
            mo += m;
        }
    }
}

/// The layout one call works in.
struct PlaneGeom {
    /// Padded row width — the accumulator layout's row pitch.
    pw: usize,
    /// Outputs per row of the swept rectangle.
    ow: usize,
    /// Elements per padded input plane.
    plane: usize,
    /// Where the outputs go.
    at: OutGeom,
    /// Elements from an output plane's first output to past its last:
    /// `(oh - 1)·row + ow`.
    region: usize,
}

/// One pass over the chunk whose first lane is `first` of the plane —
/// position `(row, col)` of the rectangle's padded-width layout — for the
/// `M` output channels `mo..` of the tile whose weights are `wt`: summed,
/// passed through `policy`'s epilogue and stored into their planes of
/// `outs`.
#[inline(always)]
fn pass<const M: usize, const L: usize, A: Policy<L>>(
    group: &[f32],
    (first, pos): (usize, (usize, usize)),
    geom: &PlaneGeom,
    (wt, mo, policy): (&[f32], usize, &A),
    outs: &mut [f32],
) {
    let mut sums = sweep_chunk::<M, L, A>(group, (first, wt, mo), geom, policy);
    if !policy.keeps_sums() {
        emit_pass(&mut sums, mo, policy);
    }
    for (m, sum) in (mo..).zip(&sums) {
        store_chunk(sum, pos, geom, &mut outs[m * geom.at.plane..][..geom.region]);
    }
}

/// Lanes `first..first + LANES` of the accumulator planes of the `M`
/// output channels `mo..` of the tile whose weights are `wt`: `start[mo +
/// m] + Σ_ci Σ_(kh,kw) wt[ci][3kh + kw][mo + m] · group[ci·plane + kh·pw +
/// first + lane + kw]`, each lane's taps taken in that `(ci, kh, kw)` order
/// through `A::mac`, held in registers across the whole reduction as two
/// [`VEC`]-lane halves. Each source vector is loaded once and feeds all `M`
/// channels, whose chains interleave; under an exact policy a pass of at
/// most four vectors sums each kernel row into a set of its own.
///
/// Shaped for the autovectoriser, and checked against it, like
/// `lane_tile`: never inlined (one loop nest per `M`; the float sweep
/// measured 10 % slower inlined into its caller), the lanes held by value
/// in 8-lane halves (a 16-lane array went to `zmm` and shuffles), the row
/// sets rotated rather than indexed (an index that is not a constant puts
/// them on the stack), the epilogue kept out (`emit_pass`). After touching
/// it, run `scripts/check_codegen.sh`: per symbol `2·M` multiply-adds per
/// tap on `ymm` — `vfmadd231ps` for the exact policy, as many `vmulps` as
/// `vaddps` for the ordered one — and no shuffle, `vgather`, `zmm` or
/// scalar arithmetic.
#[inline(never)]
fn sweep_chunk<const M: usize, const L: usize, A: Policy<L>>(
    group: &[f32],
    (first, wt, mo): (usize, &[f32], usize),
    geom: &PlaneGeom,
    policy: &A,
) -> [Lanes; M] {
    let split = A::EXACT && 2 * M <= 4;
    let start = policy.start();
    let mut sets = [[[[0.0; VEC]; 2]; M]; 3];
    let Some(lanes) = start.get(mo..mo + M) else {
        debug_assert!(false, "a pass takes channels of its own tile");
        return sets[0];
    };
    for (acc, &s) in sets[0].iter_mut().zip(lanes) {
        *acc = [[s; VEC]; 2];
    }
    let [mut acc, mut acc1, mut acc2] = sets;
    let pw = geom.pw;
    let (taps, _) = wt.as_chunks::<L>();
    for (chan, wci) in group.chunks_exact(geom.plane).zip(taps.chunks_exact(9)) {
        let (Some(r0), Some(r1), Some(r2)) =
            (window(chan, first), window(chan, first + pw), window(chan, first + 2 * pw))
        else {
            debug_assert!(false, "plane::sweep keeps every chunk's windows inside their plane");
            break;
        };
        for (row, wr) in [r0, r1, r2].into_iter().zip(wci.chunks_exact(3)) {
            for (kw, wk) in wr.iter().enumerate() {
                let x = [load(&row[kw..]), load(&row[kw + VEC..])];
                for (m, acc) in acc.iter_mut().enumerate() {
                    let w = wk[mo + m];
                    *acc = [mac::<L, A>(acc[0], w, x[0]), mac::<L, A>(acc[1], w, x[1])];
                }
            }
            if split {
                // The next kernel row sums into the next set.
                (acc, acc1, acc2) = (acc1, acc2, acc);
            }
        }
    }
    if split {
        for ((acc, acc1), acc2) in acc.iter_mut().zip(&acc1).zip(&acc2) {
            for ((half, h1), h2) in acc.iter_mut().zip(acc1).zip(acc2) {
                for ((a, &b), &c) in half.iter_mut().zip(h1).zip(h2) {
                    *a += b + c;
                }
            }
        }
    }
    acc
}

/// Passes the chunks `sums` of the output channels `mo..` through
/// `policy`'s epilogue. A function of its own: inlined into the reduction,
/// the integer epilogue led SLP to scalarise the one-channel pass's row
/// sets; inlined into the store, to split each chunk into scalar, `xmm`
/// and `ymm` pieces.
#[inline(never)]
fn emit_pass<const M: usize, const L: usize, A: Policy<L>>(
    sums: &mut [Lanes; M],
    mo: usize,
    policy: &A,
) {
    for (m, acc) in (mo..).zip(sums) {
        for half in acc {
            for v in half {
                *v = policy.emit(m, *v);
            }
        }
    }
}

/// The first [`VEC`] elements of `s`, by value.
#[inline(always)]
fn load(s: &[f32]) -> [f32; VEC] {
    let mut a = [0.0; VEC];
    a.copy_from_slice(&s[..VEC]);
    a
}

/// `A::mac(w, x, acc)` on [`VEC`] lanes.
#[inline(always)]
fn mac<const L: usize, A: Policy<L>>(acc: [f32; VEC], w: f32, x: [f32; VEC]) -> [f32; VEC] {
    let mut out = acc;
    for (o, &x) in out.iter_mut().zip(&x) {
        *o = A::mac(w, x, *o);
    }
    out
}

/// One channel's accumulator chunk: [`LANES`] lanes as two [`VEC`]-lane
/// halves.
type Lanes = [[f32; VEC]; 2];

/// The `LANES + 2` source elements one accumulator chunk reads from one
/// row, starting at `at`.
#[inline]
fn window(src: &[f32], at: usize) -> Option<&[f32; LANES + 2]> {
    src.get(at..)?.first_chunk()
}

/// Writes one finished chunk's outputs into `out`
/// (one output plane's region, from its first output to past its last, at
/// the row pitch of `geom.at`). The chunk's first lane is position `(row,
/// col)` of the padded-width layout; lanes in columns `ow..pw` are junk.
///
/// In a compact plane (row pitch `ow`) each run of valid lanes is stored
/// with one fixed-size `LANES`-wide copy that starts at the run's first
/// lane and first output, so no copy has a run-time length (a `memcpy`
/// call per run cost more than the sweep of a thin chunk: 3→4 on a 58×58
/// plane ran 34 µs with it, 20 µs without). The lanes such a copy writes
/// past the end of its run land on outputs that come *later* in the plane,
/// and every one of those is written with its real value afterwards — by
/// the next run of this chunk or by a later chunk, which `sweep`
/// visits in ascending order — so nothing junk survives. A copy that would
/// cross the end of the region, into the next channel's, is cut to its run
/// instead. In a wider row (a padded buffer's interior, a block of a whole
/// map) the elements past a run belong to a halo or to a neighbouring
/// block, so every run is cut to its row there.
#[inline]
fn store_chunk(sum: &Lanes, (row, col): (usize, usize), geom: &PlaneGeom, out: &mut [f32]) {
    let mut lanes = [0.0f32; 2 * LANES];
    for (half, sum) in lanes.chunks_exact_mut(VEC).zip(sum) {
        half.copy_from_slice(sum);
    }
    let compact = geom.at.row == geom.ow;
    let (mut lane, mut row, mut col) = (0, row, col);
    while lane < LANES {
        if col < geom.ow {
            let o = row * geom.at.row + col;
            let take = (geom.ow - col).min(LANES - lane);
            match out.get_mut(o..o + LANES) {
                Some(dst) if compact => dst.copy_from_slice(&lanes[lane..lane + LANES]),
                _ => copy_run(&mut out[o..o + take], &lanes[lane..lane + take]),
            }
        }
        // On to the start of the next row.
        lane += geom.pw - col;
        row += 1;
        col = 0;
    }
}

/// `dst.copy_from_slice(src)` for a run of at most [`LANES`] elements, in
/// fixed-size pieces: no `memcpy` call per run.
#[inline]
fn copy_run(dst: &mut [f32], src: &[f32]) {
    let mut i = 0;
    macro_rules! piece {
        ($w:literal) => {
            if dst.len() - i >= $w {
                dst[i..i + $w].copy_from_slice(&src[i..i + $w]);
                i += $w;
            }
        };
    }
    piece!(8);
    piece!(8);
    piece!(4);
    piece!(2);
    if let (Some(d), Some(&s)) = (dst.get_mut(i), src.get(i)) {
        *d = s;
    }
}
