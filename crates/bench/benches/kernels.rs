//! Criterion kernel benchmarks: conventional vs block convolution (FLOP
//! parity means comparable runtime), the float fast path per call at the
//! repo benchmark's block shapes — unpacked and packed — and across
//! reduction lengths (`plane_*`),
//! the integer fast path likewise (`qplane_*`), a convolution's pooled
//! store against its plain store plus the pool pass, timed alternately
//! (`pooled_*`), padding-mode
//! overhead (paper §II-F: block padding costs are negligible), fused vs
//! layer-wise chain execution, quantized convolution, and DSE speed.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Instant;

use bconv_accel::dse::explore_vgg16;
use bconv_accel::fusion::vgg16_shapes;
use bconv_accel::platform::zc706;
use bconv_core::blocking::BlockingPattern;
use bconv_core::BlockConv2d;
use bconv_graph::exec::on_page_aligned_frame;
use bconv_graph::{Graph, LowerOptions, Planner, PlannerOptions, Segment};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::ActShape;
use bconv_quant::qconv::{QConv2d, QConvScratch, QuantChainOp};
use bconv_quant::qgemm::Epilogue;
use bconv_quant::QParams;
use bconv_tensor::conv::{Conv2d, ConvGeom};
use bconv_tensor::init::{he_conv2d, seeded_rng, uniform_tensor};
use bconv_tensor::kernel::{ConvScratch, KernelKind, OutGeom, PackedWeights};
use bconv_tensor::pad::{pad2d, PadMode};
use bconv_tensor::pool::max_pool2d_at;
use bconv_tensor::{Tensor, TensorError};

fn conv_fixture(c: usize, h: usize) -> (Conv2d, Tensor) {
    let mut rng = seeded_rng(1);
    let conv = he_conv2d(c, c, ConvGeom::same(3), 1, &mut rng).unwrap();
    let input = uniform_tensor([1, c, h, h], -1.0, 1.0, &mut rng);
    (conv, input)
}

fn bench_conv_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_kernels");
    for (ch, res) in [(16usize, 32usize), (32, 56)] {
        let (conv, input) = conv_fixture(ch, res);
        group.bench_function(format!("dense_{ch}x{res}"), |b| {
            b.iter(|| black_box(conv.forward(black_box(&input)).unwrap()))
        });
        let bconv = BlockConv2d::from_pattern(
            conv.clone(),
            res,
            res,
            BlockingPattern::hierarchical(2),
            PadMode::Zero,
        )
        .unwrap();
        group.bench_function(format!("block_h2_{ch}x{res}"), |b| {
            b.iter(|| black_box(bconv.forward(black_box(&input)).unwrap()))
        });
    }
    group.finish();
}

fn bench_kernel_impls(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_impls");
    for (ch, res) in [(16usize, 32usize), (32, 56)] {
        let (conv, input) = conv_fixture(ch, res);
        let padded = pad2d(&input, 1, 1, PadMode::Zero).unwrap();
        for kind in [KernelKind::Direct, KernelKind::Im2colGemm] {
            let mut out = Tensor::default();
            let mut scratch = ConvScratch::new();
            group.bench_function(format!("{}_{ch}x{res}", kind.name()), |b| {
                b.iter(|| {
                    conv.forward_prepadded_into(black_box(&padded), kind, &mut out, &mut scratch)
                        .unwrap();
                    black_box(out.data()[0])
                })
            });
        }
    }
    // Depthwise: the measurement behind Auto's choice of the fast path even
    // at m=1. Strided and pointwise: the sgemm, whose weight panels this
    // unpacked entry packs on every call.
    let mut rng = seeded_rng(5);
    let dw = he_conv2d(32, 32, ConvGeom::same(3), 32, &mut rng).unwrap();
    let input = uniform_tensor([1, 32, 32, 32], -1.0, 1.0, &mut rng);
    let strided = he_conv2d(32, 32, ConvGeom::new(3, 2, 1), 1, &mut rng).unwrap();
    let pointwise = he_conv2d(32, 32, ConvGeom::new(1, 1, 0), 1, &mut rng).unwrap();
    for (name, conv) in [("depthwise", &dw), ("strided", &strided), ("pointwise", &pointwise)] {
        let p = conv.geom().padding;
        let padded = pad2d(&input, p, p, PadMode::Zero).unwrap();
        for kind in [KernelKind::Direct, KernelKind::Im2colGemm] {
            let mut out = Tensor::default();
            let mut scratch = ConvScratch::new();
            group.bench_function(format!("{}_{name}_32x32", kind.name()), |b| {
                b.iter(|| {
                    conv.forward_prepadded_into(black_box(&padded), kind, &mut out, &mut scratch)
                        .unwrap();
                    black_box(out.data()[0])
                })
            });
        }
    }
    group.finish();
}

/// One warm fast-path call on a `c_in -> c_out` 3×3 layer over a
/// `side`×`side` padded plane, reported with its MAC rate: through
/// `Conv2d::forward_prepadded_into` (`KernelKind::Im2colGemm`, which
/// lane-packs the weights per call), or, `packed`,
/// through `PackedWeights::forward_prepadded_into` — the entry fused chains
/// run.
fn bench_fast_path_call(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: String,
    (c_in, c_out): (usize, usize),
    side: usize,
    packed: bool,
) {
    let mut rng = seeded_rng(9);
    let conv = he_conv2d(c_in, c_out, ConvGeom::same(3), 1, &mut rng).unwrap();
    let padded = uniform_tensor([1, c_in, side, side], -1.0, 1.0, &mut rng);
    let weights = packed.then(|| PackedWeights::pack(&conv));
    let (mut out, mut scratch) = (Tensor::default(), ConvScratch::new());
    group.throughput(Throughput::Elements(conv.macs(side - 2, side - 2).unwrap()));
    group.bench_function(name, |b| {
        b.iter(|| {
            let padded = black_box(&padded);
            match &weights {
                Some(w) => w.forward_prepadded_into(&conv, padded, &mut out, &mut scratch),
                None => conv.forward_prepadded_into(
                    padded,
                    KernelKind::Im2colGemm,
                    &mut out,
                    &mut scratch,
                ),
            }
            .unwrap();
            black_box(out.data()[0])
        })
    });
}

/// Per-call cost of the fast float path at the block shapes the repo
/// benchmark runs (`vgg224_f32_blocked`'s H4 blocks, the 98×98 calibration
/// map, and `serve_burst_w8a8`'s thin layers on its H2 blocks — 3→4 and 4→4
/// on conv1's 16×16, 4→8 and 8→8 on conv2's 8×8) and on both sides of the
/// axis choice of `lane_tile::conv3x3`: 3→4, 4→4 and the remainder passes of
/// 4→2 / 4→6 run spatial lanes; 8→8 and up give the lanes to output
/// channels on any plane, 16→17 with a ragged 8-lane tile, and so do thin
/// layers on the padded 5×5 and 3×3 planes whose span is narrower than one
/// chunk. Each row has a `packed/` twin.
fn bench_plane_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("plane_blocks");
    for packed in [false, true] {
        for (c_in, c_out, side) in [
            (3usize, 4usize, 58usize),
            (4, 4, 58),
            (4, 2, 58),
            (4, 6, 58),
            (3, 4, 18),
            (4, 4, 18),
            (4, 8, 10),
            (8, 8, 10),
            (4, 4, 5),
            (4, 4, 3),
            (8, 8, 30),
            (8, 16, 16),
            (16, 16, 16),
            (16, 16, 9),
            (16, 16, 6),
            (16, 16, 5),
            (16, 16, 3),
            (16, 17, 10),
            (24, 24, 10),
            (16, 16, 98),
        ] {
            let prefix = if packed { "packed/" } else { "" };
            let name = format!("{prefix}{c_in}to{c_out}_{side}x{side}");
            bench_fast_path_call(&mut group, name, (c_in, c_out), side, packed);
        }
    }
    group.finish();
}

/// Why the float fast path has no reduction-length cutover: `c -> c`
/// layers with `kk = 9c` from 27 to 576 on a small and a large block plane.
/// The first two rows run spatial lanes, the rest channel lanes;
/// im2col+GEMM measured 8–10 Gelem/s on the same rows (make `lane_tile::takes`
/// return `false` to reproduce), so a row that falls to that rate is a
/// dispatch regression.
fn bench_plane_kk_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("plane_kk_sweep");
    for side in [16usize, 58] {
        for ch in [3usize, 4, 8, 16, 24, 32, 40, 48, 64] {
            let name = format!("kk{}_{side}x{side}", ch * 9);
            bench_fast_path_call(&mut group, name, (ch, ch), side, false);
        }
    }
    group.finish();
}

/// One warm integer fast-path call (w8a8, `KernelKind::Im2colGemm`) on a
/// `c_in -> c_out` 3×3 layer over `n` `side`×`side` padded planes, reported
/// with its MAC rate.
fn bench_qfast_path_call(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: String,
    (c_in, c_out): (usize, usize),
    (side, n): (usize, usize),
) {
    let mut rng = seeded_rng(9);
    let conv = he_conv2d(c_in, c_out, ConvGeom::same(3), 1, &mut rng).unwrap();
    let q = QConv2d::from_conv_with_kernel(&conv, 8, KernelKind::Im2colGemm).unwrap();
    let act = QParams::from_abs_max(1.0, 8);
    let padded = uniform_tensor([n, c_in, side, side], -1.0, 1.0, &mut rng);
    let (mut out, mut scratch) = (Tensor::default(), QConvScratch::new());
    group.throughput(Throughput::Elements(n as u64 * conv.macs(side - 2, side - 2).unwrap()));
    group.bench_function(name, |b| {
        b.iter(|| {
            q.forward_prepadded_into(black_box(&padded), act, &mut out, &mut scratch).unwrap();
            black_box(out.data()[0])
        })
    });
}

/// Per-call cost of the integer fast path at block shapes: the repo
/// benchmark's 8×8 VDSR block (10×10 padded) and whole 98×98 map, the deep
/// tiny planes of `vgg16_small` as batch-8 calls, `serve_burst_w8a8`'s thin
/// layers on its H2 blocks (3→4 and 4→4 on conv1's 16×16, 4→8 and 8→8 on
/// conv2's 8×8), and layers on both sides of the axis choice of
/// `lane_tile::conv3x3` — 1→16, 8→8, 16→12 (one ragged 16-lane tile) and
/// 16→17 (a 16-lane tile and an 8-lane one with a single live channel) give
/// the lanes to output channels, as do 4→4 on the padded 5×5 and 3×3
/// planes; 3→4, 4→4, 16→1 (on the 8×8 block and on the 96×96 map, VDSR's
/// last layer) and 40→4 (`kk` 360: the i16 GEMM took it before, at 6
/// Gelem/s) run spatial lanes.
fn bench_qplane_blocks(c: &mut Criterion) {
    let mut group = c.benchmark_group("qplane_blocks");
    for (c_in, c_out, side, n) in [
        (16usize, 16usize, 10usize, 1usize),
        (16, 16, 6, 8),
        (16, 16, 4, 8),
        (16, 16, 3, 8),
        (16, 16, 98, 1),
        (3, 4, 18, 1),
        (4, 4, 18, 1),
        (4, 8, 10, 1),
        (8, 8, 10, 1),
        (4, 4, 5, 1),
        (4, 4, 3, 1),
        (1, 16, 10, 1),
        (16, 1, 10, 1),
        (16, 1, 98, 1),
        (16, 12, 10, 1),
        (16, 17, 10, 1),
        (40, 4, 10, 1),
    ] {
        bench_qfast_path_call(
            &mut group,
            format!("{c_in}to{c_out}_{side}x{side}_n{n}"),
            (c_in, c_out),
            (side, n),
        );
    }
    group.finish();
}

/// Why the integer fast path has no reduction-length cutover: `c -> c`
/// layers, `kk = 9c` from 72 to 864, on a block plane and a 32×32 map (all
/// on channel lanes). The i16 GEMM
/// that took every row above `kk` 192 before measured 12–21 Gelem/s on
/// them; a row back at that rate is a dispatch regression.
fn bench_qplane_kk_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("qplane_kk_sweep");
    for side in [10usize, 34] {
        for ch in [8usize, 16, 24, 32, 48, 64, 96] {
            bench_qfast_path_call(
                &mut group,
                format!("kk{}_{side}x{side}", ch * 9),
                (ch, ch),
                (side, 1),
            );
        }
    }
    group.finish();
}

/// Rounds of a `pooled_blocks` row.
const ROUNDS: usize = 25;

/// A convolution a 2×2 max pooling follows, per call, as fused chains run
/// it: the pooled store (`PackedWeights::forward_prepadded_at`,
/// `QuantChainOp::forward_quantized_at` given the pool) against the plain
/// store into a compact block (the same entries given none) plus
/// `max_pool2d_at`, at float and w8a8. Both store the pooled block into the
/// interior of the next stage's padded buffer, through a ReLU before the
/// pool (and, at w8a8, the next convolution's quantization after it). The
/// rows are the pooled convolutions the repo benchmark's workloads run:
/// 4→4 on 58×58 and 18×18 padded blocks, 8→8 on 30×30 and 10×10, 16→16 on
/// 16×16 and 6×6. Each row times the two sides alternately
/// ([`interleaved`]).
fn bench_pooled_blocks(_: &mut Criterion) {
    for (ch, side) in [(4usize, 58usize), (4, 18), (8, 30), (8, 10), (16, 16), (16, 6)] {
        let mut rng = seeded_rng(11);
        let conv = he_conv2d(ch, ch, ConvGeom::same(3), 1, &mut rng).unwrap();
        let (o, p) = (side - 2, (side - 2) / 2);
        // The pooled block goes into the interior of a padded buffer.
        let at = OutGeom::region(1, 1, [p + 2, p + 2]);
        let mut next = vec![0.0; ch * (p + 2) * (p + 2)];
        let mut block = Tensor::zeros([1, ch, o, o]);
        let compact = OutGeom::compact(o, o);
        let padded =
            pad2d(&uniform_tensor([1, ch, o, o], -1.0, 1.0, &mut rng), 1, 1, PadMode::Zero)
                .unwrap();
        let packed = PackedWeights::pack(&conv);
        let row = format!("{ch}to{ch}_{side}x{side}");
        // The epilogues are run-time values on both sides, as a chain's are.
        let pooled_relu = black_box(false);
        let post = |v: f32| if pooled_relu && v < 0.0 { 0.0 } else { v };
        interleaved(
            &format!("pooled_blocks/f32/{row}"),
            &mut next,
            &mut block,
            |next, _| {
                let pool = Some((2, pooled_relu));
                packed.forward_prepadded_at(&conv, black_box(&padded), next, at, true, pool)
            },
            |next, block| {
                let out = block.data_mut();
                packed.forward_prepadded_at(&conv, black_box(&padded), out, compact, true, None)?;
                max_pool2d_at(block, 2, next, at, (|v| v, post))
            },
        );
        let act = QParams::from_abs_max(1.0, 8);
        let q = QConv2d::from_conv_with_kernel(&conv, 8, KernelKind::Im2colGemm).unwrap();
        let op = QuantChainOp::new(q, act);
        let acts = padded.map(|v| act.quantize_value_f32(v));
        let epi = black_box(Epilogue { relu: true, requant: None });
        let post =
            black_box(Epilogue { relu: false, requant: Some(QParams::from_abs_max(0.8, 8)) });
        interleaved(
            &format!("pooled_blocks/w8a8/{row}"),
            &mut next,
            &mut block,
            |next, _| {
                op.forward_quantized_at(black_box(&acts), [1; 4], next, at, epi, Some((2, post)))
            },
            |next, block| {
                let out = block.data_mut();
                op.forward_quantized_at(black_box(&acts), [1; 4], out, compact, epi, None)?;
                max_pool2d_at(block, 2, next, at, (|v| v, |v| post.apply(v)))
            },
        );
    }
}

/// One side of a `pooled_blocks` row: a call that stores into the next
/// stage's buffer, at times through a compact block.
type Side<'a> = dyn FnMut(&mut [f32], &mut Tensor) -> Result<(), TensorError> + 'a;

/// Times `pooled` and `plain` (each storing into `next`, `plain` through
/// `block`) alternately — one batch of about 2 ms of calls of each per
/// round, [`ROUNDS`] rounds, each batch on a page-aligned frame
/// ([`on_page_aligned_frame`]) — and prints each side's median time per call
/// and the median of the rounds' `pooled / plain` ratios. This host's
/// speed drifts 20–30 % between runs and for seconds within one, so one
/// median per side cannot tell ±10 % apart; a ratio taken within a round
/// sees both sides at one speed.
fn interleaved(
    name: &str,
    next: &mut [f32],
    block: &mut Tensor,
    mut pooled: impl FnMut(&mut [f32], &mut Tensor) -> Result<(), TensorError>,
    mut plain: impl FnMut(&mut [f32], &mut Tensor) -> Result<(), TensorError>,
) {
    if !criterion::selected(name) {
        return;
    }
    let start = Instant::now();
    plain(next, block).unwrap();
    let calls = (2_000_000 / start.elapsed().as_nanos().max(50)).max(1) as u32;
    // Both sides run on a page-aligned frame, as the executor runs every
    // request: where a kernel's stack data sits within a page decides
    // whether its stores alias the buffers it loads next, which read one
    // side up to 39 % slower in some processes and not in others.
    let mut per_call = |f: &mut Side| {
        on_page_aligned_frame(|| {
            let t = Instant::now();
            for _ in 0..calls {
                f(black_box(&mut *next), &mut *block).unwrap();
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(calls)
        })
    };
    let rounds: Vec<[f64; 2]> =
        (0..ROUNDS).map(|_| [per_call(&mut pooled), per_call(&mut plain)]).collect();
    let median = |f: &dyn Fn(&[f64; 2]) -> f64| {
        let mut v: Vec<f64> = rounds.iter().map(f).collect();
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    println!(
        "bench {name:<40} pooled {:>9.3} µs  store+pool {:>9.3} µs  ratio {:.3}",
        median(&|r| r[0]),
        median(&|r| r[1]),
        median(&|r| r[0] / r[1])
    );
}

fn bench_padding_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("padding_modes");
    let (conv, input) = conv_fixture(16, 32);
    for mode in PadMode::ALL {
        let bconv =
            BlockConv2d::from_pattern(conv.clone(), 32, 32, BlockingPattern::hierarchical(2), mode)
                .unwrap();
        group.bench_function(mode.name(), |b| {
            b.iter(|| black_box(bconv.forward(black_box(&input)).unwrap()))
        });
    }
    group.finish();
}

fn bench_fused_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("fused_chain");
    // The chain is compiled by the Session planner from a descriptor, the
    // same path production inference takes.
    let mut b = NetBuilder::new("bench-chain", ActShape { c: 8, h: 32, w: 32 });
    b.push("conv1", conv(3, 1, 1, 8, 16));
    b.push("conv2", conv(3, 1, 1, 16, 16));
    b.push("pool", maxpool(2, 2, 0));
    b.push("conv3", conv(3, 1, 1, 16, 16));
    let graph = Graph::lower(&b.build(), &LowerOptions { seed: 2, relu_after_conv: true }).unwrap();
    let plan = Planner::new(PlannerOptions::default()).plan(&graph).unwrap();
    let Segment::Fused { chain, .. } = &plan.segments()[0] else {
        panic!("planner should fuse the whole chain");
    };
    let input = uniform_tensor([1, 8, 32, 32], -1.0, 1.0, &mut seeded_rng(2));
    group.bench_function("fused", |b| {
        b.iter(|| black_box(chain.run_fused(black_box(&input)).unwrap()))
    });
    group.bench_function("layerwise", |b| {
        b.iter(|| black_box(chain.run_layerwise(black_box(&input)).unwrap()))
    });
    group.finish();
}

fn bench_quantized_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantized_conv");
    let (conv, input) = conv_fixture(16, 32);
    let qconv = QConv2d::from_conv(&conv, 8).unwrap();
    let act = QParams::from_abs_max(1.0, 8);
    group.bench_function("float", |b| {
        b.iter(|| black_box(conv.forward(black_box(&input)).unwrap()))
    });
    group.bench_function("int8", |b| {
        b.iter(|| black_box(qconv.forward(black_box(&input), act, PadMode::Zero).unwrap()))
    });
    group.finish();
}

fn bench_dse(c: &mut Criterion) {
    let shapes = vgg16_shapes();
    let platform = zc706();
    c.bench_function("dse_explore_vgg16", |b| {
        b.iter(|| black_box(explore_vgg16(&shapes, &platform, 8, 4).len()))
    });
}

criterion_group!(
    benches,
    bench_conv_kernels,
    bench_kernel_impls,
    bench_plane_blocks,
    bench_plane_kk_sweep,
    bench_qplane_blocks,
    bench_qplane_kk_sweep,
    bench_pooled_blocks,
    bench_padding_modes,
    bench_fused_chain,
    bench_quantized_conv,
    bench_dse
);
criterion_main!(benches);
