//! Allocation gate: proves the zero-alloc hot-path claim that
//! `bconv-analyze`'s L1 lint enforces statically, by *counting real
//! allocations* with an instrumented `#[global_allocator]`.
//!
//! Two tiers of guarantee, both measured at steady state (after warm-up):
//!
//! * **Strict zero** — `Session::run_with(&input, &mut scratch)` performs
//!   *zero* heap allocations per request once the caller recycles the
//!   output tensor back into the scratch (`ExecScratch::recycle`). This
//!   holds for the Blocked and Quantized backends on a single thread, for
//!   one-image and multi-image inputs alike.
//! * **Bounded** — [`ServeEngine`] inherently allocates per request: the
//!   output tensor leaves the engine in its `RunReport`, and the ticket
//!   table / batch bookkeeping churn a few nodes (all bounded by
//!   `max_batch`, see `analyze/allowlist.txt`). The gate asserts a hard
//!   per-request ceiling on both allocation count and bytes so a
//!   regression (say, a per-request buffer clone) fails loudly.
//!
//! The strict tier counts on the measuring thread only: a single-threaded
//! `run_with` allocates nowhere else, while the test harness may spawn the
//! next test's thread (and allocate for it) at any moment. The bounded
//! tier's allocations happen on worker threads, so it counts process-wide;
//! every test therefore serializes on one mutex and takes its
//! before/after snapshots inside the lock.
//!
//! This file needs `unsafe` for the `GlobalAlloc` impl — which is exactly
//! why the workspace bans `unsafe` via per-crate `#![forbid(unsafe_code)]`
//! on library targets instead of a workspace-level lint (a `[lints]` table
//! would cover this test target too).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use bconv_core::NetworkPlan;
use bconv_graph::{Backend, ExecScratch, PlanSpec, Router, ServeConfig, Session};
use bconv_models::small::vgg16_small;
use bconv_models::Network;
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::kernel::KernelPolicy;
use bconv_tensor::Tensor;

/// Wraps the system allocator, counting allocations and bytes. `dealloc`
/// is deliberately not subtracted: the gate cares about allocation
/// *events*, and a path that allocates-then-frees per request is exactly
/// what it must catch.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's own `(allocations, bytes)`. A const-initialised
    /// `Cell` of a type without a destructor: touching it never allocates
    /// and registers no thread-exit hook, so the allocator may use it.
    static THREAD: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Records one allocation event of `bytes`, process-wide and per thread.
fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
    let _ = THREAD.try_with(|t| {
        let (allocs, total) = t.get();
        t.set((allocs + 1, total + bytes));
    });
}

// SAFETY: defers entirely to `System`; the counters are lock-free atomics
// and a destructor-free thread-local, and touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growing realloc is an allocation event for gating purposes;
        // only count the growth so byte budgets stay meaningful.
        if new_size > layout.size() {
            count(new_size - layout.size());
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Serializes tests: the process-wide counters would otherwise attribute
/// one test's allocations to another.
static GATE: Mutex<()> = Mutex::new(());

/// Process-wide `(allocations, bytes)` so far.
fn snapshot() -> (usize, usize) {
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

/// This thread's `(allocations, bytes)` so far.
fn thread_snapshot() -> (usize, usize) {
    THREAD.with(Cell::get)
}

fn delta(before: (usize, usize), now: (usize, usize)) -> (usize, usize) {
    (now.0 - before.0, now.1 - before.1)
}

fn net() -> Network {
    vgg16_small(32)
}

fn input(seed: u64, n: usize) -> Tensor {
    let s = net().input;
    uniform_tensor([n, s.c, s.h, s.w], -1.0, 1.0, &mut seeded_rng(seed))
}

fn session(backend: Backend, threads: usize) -> Session {
    Session::builder()
        .network(net())
        .backend(backend)
        .seed(2018)
        .threads(threads)
        .build()
        .expect("session builds")
}

const QUANT: Backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };

/// Strict tier: warm `run_with` + `recycle` on `n`-image inputs is
/// allocation-free on the calling thread — not "few allocations",
/// literally zero. `build` runs under the gate's lock, like everything
/// else that allocates.
fn assert_zero_steady_state(what: &str, n: usize, build: impl FnOnce() -> Session) {
    let _lock = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let session = build();
    let input = input(7, n);
    let mut scratch = ExecScratch::new();

    // Warm-up: grow every buffer to its steady-state size. The first run
    // allocates the whole value table; the second proves the pool cycles;
    // a couple more flush any lazily-grown kernel scratch.
    for _ in 0..4 {
        let report = session.run_with(&input, &mut scratch).expect("warm-up run");
        scratch.recycle(report.output);
    }

    let before = thread_snapshot();
    let mut checksum = 0.0f32;
    for _ in 0..8 {
        let report = session.run_with(&input, &mut scratch).expect("measured run");
        checksum += report.output.data()[0];
        scratch.recycle(report.output);
    }
    let (allocs, bytes) = delta(before, thread_snapshot());
    assert_eq!(
        (allocs, bytes),
        (0, 0),
        "steady-state run_with must not allocate ({what}): \
         {allocs} allocation(s), {bytes} byte(s) across 8 requests"
    );
    assert!(checksum.is_finite());
}

#[test]
fn run_with_is_allocation_free_blocked() {
    assert_zero_steady_state("blocked", 1, || session(Backend::Blocked, 1));
}

#[test]
fn run_with_is_allocation_free_quantized() {
    assert_zero_steady_state("quantized", 1, || session(QUANT, 1));
}

/// A multi-image input walks its images one at a time through an image
/// buffer the scratch keeps, recycling each image's output into the pool
/// and assembling the batch output in a pooled buffer: a warm batched
/// `run_with` allocates nothing either.
#[test]
fn batched_run_with_is_allocation_free_blocked() {
    assert_zero_steady_state("blocked, batch 8", 8, || session(Backend::Blocked, 1));
}

#[test]
fn batched_run_with_is_allocation_free_quantized() {
    assert_zero_steady_state("quantized, batch 8", 8, || session(QUANT, 1));
}

/// A float plan that fuses nothing runs every conv as a whole-map node
/// through the unpacked fast-path entry, which lane-packs the weights of
/// channel-lane layers into the kernel scratch on every call: that buffer
/// is grown once, like the patch matrix.
#[test]
fn run_with_is_allocation_free_unblocked_float() {
    assert_zero_steady_state("unblocked float", 1, || {
        let convs = session(Backend::Blocked, 1).graph().conv_count();
        let session = Session::builder()
            .network(net())
            .planner(PlanSpec::new().network_plan(NetworkPlan::unblocked(convs)))
            .seed(2018)
            .threads(1)
            .build()
            .expect("session builds");
        assert_eq!(session.plan().fusion_groups(), 0, "nothing may fuse");
        assert!(
            session.conv_kernels().iter().all(|(_, k)| *k == "im2col-gemm"),
            "every whole-map conv must take the fast path: {:?}",
            session.conv_kernels()
        );
        session
    });
}

/// The integer im2col+GEMM backend holds the strict-zero bar too: the
/// i16 patch matrix and quantized-activation buffers live in the session
/// scratch and the packed weight panels are built at compile time, so
/// forcing every quantized layer onto the GEMM kernel adds no warm-path
/// allocations.
#[test]
fn run_with_is_allocation_free_quantized_gemm_kernel() {
    assert_zero_steady_state("quantized GEMM", 1, || {
        let session = Session::builder()
            .network(net())
            .backend(QUANT)
            .planner(PlanSpec::new().kernel(KernelPolicy::Im2colGemm))
            .seed(2018)
            .threads(1)
            .build()
            .expect("session builds");
        assert!(
            session.conv_kernels().iter().all(|(_, k)| *k == "im2col-gemm"),
            "forcing the policy must route every conv through the integer GEMM: {:?}",
            session.conv_kernels()
        );
        session
    });
}

/// Bounded tier: a serve request may allocate its departing output tensor
/// plus a constant amount of ticket/batch bookkeeping — and nothing
/// proportional to the network.
fn assert_bounded_serve(backend: Backend, workers: usize) {
    let _lock = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let engine = session(backend, 1)
        .into_engine(ServeConfig {
            workers,
            queue_depth: 64,
            max_batch: 4,
            ..ServeConfig::default()
        })
        .expect("engine builds");
    // Inputs are cloned *outside* the measured window: submit() takes the
    // tensor by value, so the gate would otherwise charge the request for
    // the caller's own copy.
    let inputs: Vec<Tensor> = (0..workers * 4).map(|i| input(i as u64, 1)).collect();
    let output_bytes = {
        // Warm-up: every worker grows its scratch to steady state. Rounds
        // of exactly `workers` in-flight requests force the engine to
        // spread work across all workers (each blocks on its own ticket).
        let mut out_bytes = 0usize;
        for _ in 0..6 {
            for report in engine.run_batch(inputs.clone()).expect("warm-up batch") {
                out_bytes = size_of_val(report.output.data());
            }
        }
        out_bytes
    };

    let requests = inputs.len();
    let queue: Vec<Tensor> = inputs.to_vec();

    let before = snapshot();
    for input in queue {
        let ticket = engine.submit(input).expect("submit");
        let report = engine.wait(ticket).expect("wait");
        assert_eq!(report.output.shape().dims(), [1, 10, 1, 1]);
    }
    let (allocs, bytes) = delta(before, snapshot());
    let (per_alloc, per_bytes) = (allocs / requests, bytes / requests);

    // Ceilings, not estimates: a request funds its output tensor, its
    // boxed job + ticket-table node, and a slice of the wave's batch
    // bookkeeping. 64 allocation events / (output + 8 KiB) per request is
    // several times the observed steady state yet far below any
    // per-request buffer clone (a single feature map is megabytes).
    assert!(
        per_alloc <= 64,
        "serve {backend:?} x{workers}: {allocs} allocation(s) across {requests} requests \
         ({per_alloc}/request, ceiling 64)"
    );
    assert!(
        per_bytes <= output_bytes + 8 * 1024,
        "serve {backend:?} x{workers}: {bytes} byte(s) across {requests} requests \
         ({per_bytes}/request, ceiling {} = output + 8 KiB)",
        output_bytes + 8 * 1024
    );
}

#[test]
fn serve_is_alloc_bounded_blocked_1_worker() {
    assert_bounded_serve(Backend::Blocked, 1);
}

#[test]
fn serve_is_alloc_bounded_blocked_2_workers() {
    assert_bounded_serve(Backend::Blocked, 2);
}

#[test]
fn serve_is_alloc_bounded_blocked_4_workers() {
    assert_bounded_serve(Backend::Blocked, 4);
}

#[test]
fn serve_is_alloc_bounded_quantized_2_workers() {
    assert_bounded_serve(QUANT, 2);
}

/// A router in front of the engines holds the same bounded-tier ceiling:
/// shard picking reads one atomic gauge per replica and the returned
/// ticket is a plain (shard, ticket) pair, so fronting N replicas must
/// add no per-request allocation beyond what one engine already funds.
#[test]
fn router_fronted_serve_is_alloc_bounded() {
    let _lock = GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let router: Router = session(Backend::Blocked, 1)
        .into_router(
            2,
            ServeConfig { workers: 1, queue_depth: 64, max_batch: 4, ..ServeConfig::default() },
        )
        .expect("router builds");
    let inputs: Vec<Tensor> = (0..8).map(|i| input(i as u64, 1)).collect();
    let output_bytes = {
        let mut out_bytes = 0usize;
        for _ in 0..6 {
            for report in router.run_batch(inputs.clone()).expect("warm-up batch") {
                out_bytes = size_of_val(report.output.data());
            }
        }
        out_bytes
    };

    let requests = inputs.len();
    let queue: Vec<Tensor> = inputs.to_vec();

    let before = snapshot();
    for input in queue {
        let ticket = router.submit(input).expect("submit");
        let report = router.wait(ticket).expect("wait");
        assert_eq!(report.output.shape().dims(), [1, 10, 1, 1]);
    }
    let (allocs, bytes) = delta(before, snapshot());
    let (per_alloc, per_bytes) = (allocs / requests, bytes / requests);
    assert!(
        per_alloc <= 64,
        "routed serve: {allocs} allocation(s) across {requests} requests \
         ({per_alloc}/request, ceiling 64)"
    );
    assert!(
        per_bytes <= output_bytes + 8 * 1024,
        "routed serve: {bytes} byte(s) across {requests} requests \
         ({per_bytes}/request, ceiling {} = output + 8 KiB)",
        output_bytes + 8 * 1024
    );
}
