//! Concurrency stress for the [`ServeEngine`]: many client threads
//! hammering one shared engine through a deliberately tiny queue must
//! complete without deadlock, stay within the bounded queue memory, and
//! return every request's serial-oracle output bitwise.
//!
//! The queue depth is far below the number of outstanding requests, so
//! clients spend much of the test blocked in `submit` — the backpressure
//! path — while workers group whatever mixture of requests the timing
//! produces. Determinism must hold through all of it.

use bconv_graph::{Backend, ServeConfig, ServeEngine, Session};
use bconv_models::builder::{conv, maxpool, NetBuilder};
use bconv_models::{ActShape, Network};
use bconv_tensor::init::{seeded_rng, uniform_tensor};
use bconv_tensor::Tensor;

fn stress_net() -> Network {
    let mut b = NetBuilder::new("stress", ActShape { c: 2, h: 16, w: 16 });
    b.push("conv1", conv(3, 1, 1, 2, 4));
    b.push("conv2", conv(3, 1, 1, 4, 4));
    b.push("pool", maxpool(2, 2, 0));
    b.push("conv3", conv(3, 1, 1, 4, 2));
    b.build()
}

fn build_session(backend: Backend) -> Session {
    Session::builder()
        .network(stress_net())
        .backend(backend)
        .seed(2018)
        .threads(1)
        .relu_after_conv(true)
        .build()
        .unwrap()
}

/// The deterministic request of client `c`, iteration `i` (batch size
/// varies so dequeue groups land on uneven boundaries).
fn request(c: usize, i: usize) -> Tensor {
    let n = 1 + (c + i) % 2;
    uniform_tensor([n, 2, 16, 16], -1.0, 1.0, &mut seeded_rng((c as u64) << 32 | i as u64))
}

/// Runs `clients` threads x `per_client` interleaved requests against one
/// shared engine, checking every output bitwise against `oracle`.
fn hammer(engine: &ServeEngine, oracle: &Session, clients: usize, per_client: usize) {
    // Serial oracle outputs, precomputed so client threads only compare.
    let expected: Vec<Vec<Tensor>> = (0..clients)
        .map(|c| (0..per_client).map(|i| oracle.run(&request(c, i)).unwrap().output).collect())
        .collect();
    std::thread::scope(|scope| {
        for (c, want) in expected.iter().enumerate() {
            scope.spawn(move || {
                // Interleave: keep two tickets in flight and redeem them in
                // reverse submission order, so waits and submits overlap.
                let mut i = 0;
                while i < per_client {
                    let t0 = engine.submit(request(c, i)).unwrap();
                    let t1 =
                        (i + 1 < per_client).then(|| engine.submit(request(c, i + 1)).unwrap());
                    if let Some(t1) = t1 {
                        let out1 = engine.wait(t1).unwrap().output;
                        assert_eq!(
                            out1.data(),
                            want[i + 1].data(),
                            "client {c} request {} diverged",
                            i + 1
                        );
                    }
                    let out0 = engine.wait(t0).unwrap().output;
                    assert_eq!(out0.data(), want[i].data(), "client {c} request {i} diverged");
                    i += 2;
                }
            });
        }
    });
}

#[test]
fn blocked_engine_survives_many_clients_through_a_tiny_queue() {
    // 8 clients x up to 2 in-flight each = 16 outstanding through a
    // 2-deep queue: submissions block (backpressure) most of the time.
    let engine = build_session(Backend::Blocked)
        .into_engine(ServeConfig {
            workers: 4,
            queue_depth: 2,
            max_batch: 3,
            ..ServeConfig::default()
        })
        .unwrap();
    let oracle = build_session(Backend::Blocked);
    hammer(&engine, &oracle, 8, 16);
    engine.shutdown();
}

/// Deadlock canary: the same 8-clients-through-a-2-deep-queue stress, but
/// run on a watchdog thread with a hard timeout, so a lock-ordering
/// regression in the serve engine fails this test in about a minute
/// instead of hanging CI until the job-level timeout kills it. The static
/// L5 lock-order lint proves the code as written cannot hold a lock
/// across recv/wait; this test proves the running engine agrees.
#[test]
fn deadlock_canary_fails_fast_instead_of_hanging() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let engine = build_session(Backend::Blocked)
            .into_engine(ServeConfig {
                workers: 4,
                queue_depth: 2,
                max_batch: 3,
                ..ServeConfig::default()
            })
            .unwrap();
        let oracle = build_session(Backend::Blocked);
        hammer(&engine, &oracle, 8, 8);
        engine.shutdown();
        let _ = done_tx.send(());
    });
    // Generous bound: the stress itself finishes in single-digit seconds;
    // only a wedged engine (worker parked in recv with a lock held, lost
    // condvar wakeup, ...) can take this long.
    if done_rx.recv_timeout(std::time::Duration::from_secs(60)).is_err() {
        panic!(
            "serve engine deadlock canary tripped: 8 clients through a 2-deep queue \
             did not finish within 60s — a lock is likely held across recv/wait"
        );
    }
}

#[test]
fn quantized_engine_serves_concurrent_clients() {
    let backend = Backend::Quantized { weight_bits: 8, act_bits: 8 };
    let engine = build_session(backend)
        .into_engine(ServeConfig {
            workers: 2,
            queue_depth: 2,
            max_batch: 4,
            ..ServeConfig::default()
        })
        .unwrap();
    let oracle = build_session(backend);
    hammer(&engine, &oracle, 4, 6);
}

#[test]
fn reference_engine_serves_concurrent_clients() {
    let engine = build_session(Backend::Reference)
        .into_engine(ServeConfig {
            workers: 2,
            queue_depth: 4,
            max_batch: 2,
            ..ServeConfig::default()
        })
        .unwrap();
    let oracle = build_session(Backend::Reference);
    hammer(&engine, &oracle, 4, 6);
}

#[test]
fn mixed_entry_points_share_one_engine() {
    // Ticketed clients and a run_batch caller interleave on one engine.
    let engine = build_session(Backend::Blocked)
        .into_engine(ServeConfig {
            workers: 2,
            queue_depth: 2,
            max_batch: 3,
            ..ServeConfig::default()
        })
        .unwrap();
    let oracle = build_session(Backend::Blocked);
    let batch_inputs: Vec<Tensor> = (0..6).map(|i| request(99, i)).collect();
    let batch_want: Vec<Tensor> =
        batch_inputs.iter().map(|t| oracle.run(t).unwrap().output).collect();
    std::thread::scope(|scope| {
        let engine_ref = &engine;
        let oracle_ref = &oracle;
        scope.spawn(move || hammer(engine_ref, oracle_ref, 2, 8));
        scope.spawn(move || {
            for _ in 0..4 {
                let got = engine_ref.run_batch(batch_inputs.clone()).unwrap();
                for (g, w) in got.iter().zip(&batch_want) {
                    assert_eq!(g.output.data(), w.data(), "run_batch output diverged mid-stress");
                }
            }
        });
    });
}
