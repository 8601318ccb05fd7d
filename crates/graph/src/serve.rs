//! [`ServeEngine`]: batched, prioritised, observable serving on top of a
//! compiled [`Session`].
//!
//! A session compiles a network once and can answer `run(&input)` calls,
//! but a server needs more: many callers, bounded memory under load,
//! request batching, completion without a parked thread per request, and
//! visibility into what the queue is doing. The engine provides exactly
//! that, with std primitives only (threads + mutex/condvar — the
//! workspace has no crates.io access):
//!
//! * **Lifecycle** — [`Session::into_engine`](crate::Session::into_engine)
//!   consumes the session and spawns a fixed pool of worker threads.
//!   Every worker shares the session's immutable executor ([`Executor`]
//!   is `Send + Sync`) and owns one reusable [`ExecScratch`], so
//!   steady-state serving performs no tensor/scratch allocation beyond
//!   each request's output tensor (bookkeeping — tickets, job lists — is
//!   a few machine words per request). [`ServeEngine::shutdown`] (or
//!   drop) closes the queue, drains in-flight requests, and joins the
//!   workers. If every worker dies (executor panics), queued and blocked
//!   callers resolve to errors instead of hanging.
//! * **Completion** — [`submit`](ServeEngine::submit) enqueues a request
//!   and returns a [`TicketId`] immediately. Redeem it by **blocking**
//!   ([`wait`](ServeEngine::wait)), **polling** ([`poll`](ServeEngine::poll)
//!   returns `Ok(None)` while in flight), or **callback**
//!   ([`submit_with_waker`](ServeEngine::submit_with_waker) registers a
//!   [`Waker`] invoked exactly once when the ticket resolves, so async
//!   executors can park a task instead of a thread: the waker schedules
//!   the task, which then redeems via `poll`). Each ticket is delivered
//!   exactly once.
//! * **Priorities & deadlines** — [`submit_with`](ServeEngine::submit_with)
//!   takes [`SubmitOptions`]: higher [`priority`](SubmitOptions::priority)
//!   requests dequeue first (FIFO within a class), and a request whose
//!   [`deadline`](SubmitOptions::deadline) expires before execution is
//!   **shed**: its ticket resolves to the typed
//!   [`TensorError::DeadlineExpired`] without reaching the executor, so
//!   overload burns no compute on answers nobody is waiting for.
//! * **Backpressure** — the priority queue holds at most
//!   [`ServeConfig::queue_depth`] jobs: `submit` blocks while it is
//!   full, so queued + in-flight requests bound server memory no matter
//!   how fast clients submit; [`try_submit`](ServeEngine::try_submit)
//!   returns `None` instead of blocking. (Completed reports are retained
//!   until their ticket is redeemed or the engine shuts down — a caller
//!   that submits fire-and-forget without ever redeeming tickets is
//!   keeping its own results alive.)
//! * **Batches are dequeue groups** — a worker takes the highest-priority
//!   job and greedily dequeues more queued jobs with it, up to
//!   [`ServeConfig::max_batch`] samples: that group is one *batch* (one
//!   [`ServeMetrics::batches`] count). Its jobs then run **back to back**,
//!   each on its own input, and each publishes its ticket the moment its
//!   own run returns — no request waits for the rest of its group, and an
//!   executor failure fails only the job it hit. (A batch is not one big
//!   tensor: the executor walks a multi-image input image by image anyway,
//!   so a merged run would buy nothing but waiting.)
//!   [`run_batch`](ServeEngine::run_batch) is a convenience over the same
//!   path: each of its requests is an ordinary job, submitted and waited
//!   on like any other, so workers group them exactly as they group
//!   `submit` calls. With
//!   [`ServeConfig::adaptive_batch`] the dequeue cap tracks a queue-depth
//!   EWMA. Samples are independent under every backend (convolution,
//!   pooling, FC and requantization never mix batch elements), so
//!   grouping is **bitwise invisible**: each request's output is
//!   identical to a solo [`Session::run`](crate::Session::run), at any
//!   worker count and any grouping accident of timing.
//! * **Metrics** — every engine keeps lock-light counters (relaxed
//!   atomics, integer-only): p50/p99/max latency, queue depth, realised
//!   batch-size histogram, shed/failed counts.
//!   [`metrics`](ServeEngine::metrics) returns a [`ServeMetrics`]
//!   snapshot without blocking the serving path.
//! * **Exact per-request [`MemStats`]** — a job answers exactly one
//!   request and runs it alone, so its report — output, stats and
//!   segment count — is a solo run's, handed over as is.
//!
//! [`MemStats`]: bconv_core::fusion::MemStats
//!
//! To scale past one engine, [`Session::into_router`](crate::Session::into_router)
//! builds a [`router::Router`] that shards these APIs across N replica
//! engines sharing one compiled graph, plan, and calibration.

pub mod metrics;
pub mod router;

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use bconv_tensor::{Tensor, TensorError};

use crate::exec::{check_input, ExecScratch, Executor, RunReport};
use crate::ir::Graph;
use crate::session::{Backend, Session};

use metrics::{MetricsCore, ServeMetrics};

/// Sizing of a [`ServeEngine`]'s worker pool, queue, and batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads answering requests; `0` (the default) means
    /// **auto**: one worker per core not already claimed by the
    /// session's intra-request block threads
    /// (`available_parallelism / session.threads()`, at least 1), so the
    /// two axes compose without oversubscribing the machine. Each worker
    /// dequeues one batch (a group of jobs) at a time and runs its jobs
    /// back to back through the shared executor; a blocked/quantized
    /// session with `threads > 1` additionally fans
    /// each fused group out across that many scoped threads *inside* the
    /// worker, so serving deployments typically build the session with
    /// `.threads(1)` and scale `workers` instead (parallelism across
    /// requests beats parallelism within one once the queue is busy).
    pub workers: usize,
    /// Capacity of the bounded request queue, in jobs
    /// ([`ServeEngine::submit`] blocks while it is full). Queued plus
    /// in-flight requests are the engine's entire buffered state, so
    /// this caps server memory.
    pub queue_depth: usize,
    /// Maximum samples a worker dequeues as one batch (1 disables
    /// grouping). A batch is a dequeue group: its jobs run back to back
    /// and each publishes as soon as its own run finishes. A job is one
    /// request, whether it came from `submit` or
    /// [`ServeEngine::run_batch`], and is never split: a request larger
    /// than `max_batch` runs as a group of its own.
    pub max_batch: usize,
    /// When `true` (the default) the worker-side dequeue cap follows the
    /// observed queue-depth EWMA instead of always taking up to
    /// `max_batch`: an idle queue yields single-job batches, a backed-up
    /// queue groups toward `max_batch`. Jobs are never split, and outputs
    /// are bitwise-independent of the cap; the cap only decides how many
    /// jobs a worker takes off the queue before it next looks at
    /// priorities again.
    pub adaptive_batch: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self { workers: 0, queue_depth: 64, max_batch: 8, adaptive_batch: true }
    }
}

impl ServeConfig {
    fn validate(&self) -> Result<(), TensorError> {
        if self.queue_depth == 0 {
            return Err(TensorError::invalid("ServeConfig::queue_depth must be >= 1"));
        }
        if self.max_batch == 0 {
            return Err(TensorError::invalid("ServeConfig::max_batch must be >= 1"));
        }
        Ok(())
    }
}

/// Handle to one submitted request; redeem it with
/// [`ServeEngine::wait`] or [`ServeEngine::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TicketId(u64);

/// Per-request scheduling options for
/// [`ServeEngine::submit_with`] / [`ServeEngine::submit_with_waker`].
///
/// The default (`priority` 0, no deadline) reproduces plain
/// [`submit`](ServeEngine::submit).
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Scheduling class: **higher dequeues first**; requests within a
    /// class run FIFO. Priorities reorder *when* a request runs, never
    /// *what* it computes.
    pub priority: u8,
    /// Latest instant at which starting execution is still useful. A
    /// request found expired — at submit or at dequeue — is shed: its
    /// ticket resolves to [`TensorError::DeadlineExpired`] without
    /// touching the executor, and the shed is counted in
    /// [`ServeMetrics::shed`].
    pub deadline: Option<Instant>,
}

/// Completion callback registered at submit
/// ([`ServeEngine::submit_with_waker`]): invoked exactly once, from the
/// resolving thread, when the ticket transitions to done (success,
/// error, or shed). The waker must be cheap and must not call back into
/// the engine's blocking APIs; the intended use is waking an async task
/// or semaphore which then redeems the ticket via
/// [`poll`](ServeEngine::poll). The box is allocated by the caller, so
/// the serving hot path itself stays allocation-free. A panicking waker
/// is caught and ignored (the result is already published).
pub type Waker = Box<dyn FnOnce(TicketId) + Send + 'static>;

/// One queue entry: one request's input, the ticket it answers, and its
/// scheduling metadata.
struct Job {
    ticket: u64,
    /// The input's batch size.
    samples: usize,
    input: Tensor,
    deadline: Option<Instant>,
    submitted: Instant,
}

/// A ticket's delivery slot.
enum Slot {
    /// Submitted, not yet resolved. The waker (if any) is taken and
    /// invoked exactly once when the slot transitions to `Done`.
    Pending {
        waker: Option<Waker>,
    },
    Done(Result<RunReport, TensorError>),
}

/// Lifecycle of the shared request queue.
#[derive(Clone, Copy, PartialEq, Eq)]
enum QueuePhase {
    /// Accepting submissions.
    Open,
    /// Shutdown requested: submissions are rejected, workers drain the
    /// remaining jobs and exit.
    Closing,
    /// Every worker has exited (panic storm or completed shutdown);
    /// nothing will ever be dequeued again.
    Dead,
}

/// The priority request queue. Keyed by `(Reverse(priority), seq)` so
/// ascending BTreeMap order is "highest priority first, FIFO within a
/// class" — and iteration order is fully deterministic (lint L3 bans
/// hash maps in this module for exactly that reason).
struct QueueState {
    jobs: BTreeMap<(Reverse<u8>, u64), Job>,
    /// Monotone enqueue sequence (FIFO tie-break within a priority).
    seq: u64,
    /// Total samples across `jobs` (the metrics depth gauge).
    samples: usize,
    phase: QueuePhase,
}

/// State shared between clients and workers.
///
/// The ticket table is a `BTreeMap`, not a `HashMap`, on purpose:
/// tickets are dense sequential integers, the table is tiny (bounded by
/// the in-flight request window), and an ordered structure keeps every
/// conceivable traversal deterministic — the engine's
/// bitwise-determinism contract must not hinge on "nobody ever iterates
/// this map".
///
/// Lock order: `queue` before `results` (the worker-death path holds
/// `queue` while publishing errors); no path ever takes `queue` while
/// holding `results`.
struct Shared {
    results: Mutex<BTreeMap<u64, Slot>>,
    done: Condvar,
    queue: Mutex<QueueState>,
    /// Signalled when queue space frees up (submitters park here).
    queue_push: Condvar,
    /// Signalled when a job arrives or the phase changes (workers park
    /// here).
    queue_pop: Condvar,
    metrics: MetricsCore,
    /// Workers still running; the last one out fails all queued work.
    live_workers: AtomicUsize,
}

/// Outcome of a queue push. A refused job is dropped; the caller rolls
/// back its pending slot.
enum Pushed {
    Accepted,
    Full,
    Rejected,
}

impl Shared {
    /// Poison-tolerant lock on the ticket table. A worker unwind (the very
    /// event [`Worker`]'s drop exists for) may poison this mutex between a
    /// slot update and its notify; waiters must still be able to drain
    /// their tickets — the table itself is never left mid-update (every
    /// critical section completes its map operation before unwinding can
    /// reach it through the executor).
    fn lock_results(&self) -> MutexGuard<'_, BTreeMap<u64, Slot>> {
        self.results.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Poison-tolerant lock on the request queue (same rationale).
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Pushes a job, parking on `queue_push` while the queue is full (or
    /// returning [`Pushed::Full`] when `block` is false). Returns
    /// [`Pushed::Rejected`] once the engine stops accepting work.
    fn push_job(&self, job: Job, priority: u8, depth: usize, block: bool) -> Pushed {
        let mut q = self.lock_queue();
        while q.phase == QueuePhase::Open && q.jobs.len() >= depth {
            if !block {
                return Pushed::Full;
            }
            q = self.queue_push.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        if q.phase != QueuePhase::Open {
            return Pushed::Rejected;
        }
        let seq = q.seq;
        q.seq += 1;
        q.samples += job.samples;
        q.jobs.insert((Reverse(priority), seq), job);
        self.metrics.on_queue_depth(q.jobs.len() as u64, q.samples as u64);
        drop(q);
        self.queue_pop.notify_one();
        Pushed::Accepted
    }
}

/// The serving engine: a compiled session behind a bounded priority
/// queue and a worker pool. See the [module docs](self) for the full
/// semantics.
pub struct ServeEngine {
    graph: Arc<Graph>,
    executor: Arc<dyn Executor>,
    backend: Backend,
    config: ServeConfig,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    next_ticket: AtomicU64,
}

impl ServeEngine {
    /// Builds the engine from a compiled session (the
    /// [`Session::into_engine`] destination).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] when `config` is invalid.
    pub(crate) fn new(session: Session, config: ServeConfig) -> Result<Self, TensorError> {
        config.validate()?;
        // Resolve workers = 0 (auto) against the session's intra-request
        // thread count so the default configs compose to roughly one
        // runnable thread per core instead of workers x threads.
        let mut config = config;
        if config.workers == 0 {
            let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
            config.workers = (avail / session.threads().max(1)).max(1);
        }
        let backend = session.backend();
        let (graph, executor) = session.shared_parts();
        let shared = Arc::new(Shared {
            results: Mutex::new(BTreeMap::new()),
            done: Condvar::new(),
            queue: Mutex::new(QueueState {
                jobs: BTreeMap::new(),
                seq: 0,
                samples: 0,
                phase: QueuePhase::Open,
            }),
            queue_push: Condvar::new(),
            queue_pop: Condvar::new(),
            metrics: MetricsCore::new(),
            // Registered up front so a worker that dies before its
            // siblings even start still leaves an exact count.
            live_workers: AtomicUsize::new(config.workers),
        });
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let executor = Arc::clone(&executor);
            let shared_worker = Arc::clone(&shared);
            let spawned =
                std::thread::Builder::new().name(format!("bconv-serve-{i}")).spawn(move || {
                    // Worker-owned reusable buffers, built here (cold
                    // construction) so the serving loop itself never
                    // allocates bookkeeping.
                    let worker = Worker {
                        shared: &shared_worker,
                        scratch: ExecScratch::new(),
                        jobs: Vec::new(),
                    };
                    worker_loop(&*executor, worker, config);
                });
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Un-register the workers that will never run, close
                    // the queue so the spawned ones exit, and report the
                    // resource failure as a typed error instead of
                    // panicking mid-construction.
                    shared.live_workers.fetch_sub(config.workers - i, Ordering::AcqRel);
                    {
                        let mut q = shared.lock_queue();
                        q.phase = QueuePhase::Closing;
                    }
                    shared.queue_pop.notify_all();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(TensorError::invalid(format!(
                        "cannot spawn serve worker thread {i} of {}: {e}",
                        config.workers
                    )));
                }
            }
        }
        Ok(Self {
            graph,
            executor,
            backend,
            config,
            workers,
            shared,
            next_ticket: AtomicU64::new(1),
        })
    }

    /// The backend the engine serves.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The engine's sizing configuration, with `workers = 0` (auto)
    /// already resolved to the actual pool size.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// A point-in-time [`ServeMetrics`] snapshot. Lock-free on the
    /// serving path: counters are relaxed atomics, so the snapshot is
    /// cheap and never blocks workers or submitters.
    pub fn metrics(&self) -> ServeMetrics {
        self.shared.metrics.snapshot()
    }

    /// `true` when `other` serves the same compiled model: same graph
    /// and same executor (weights, plan, calibration) by `Arc` identity.
    /// Router replicas built by [`Session::into_router`] all share one
    /// model this way.
    pub fn shares_model_with(&self, other: &ServeEngine) -> bool {
        Arc::ptr_eq(&self.graph, &other.graph) && Arc::ptr_eq(&self.executor, &other.executor)
    }

    /// Samples currently queued (not yet dequeued by a worker) — the
    /// router's load-balancing signal.
    pub(crate) fn queued_samples(&self) -> u64 {
        self.shared.metrics.snapshot_queue_samples()
    }

    /// Validates a request input: per-sample shape must match the graph,
    /// and the batch must be non-empty (an empty batch has no ticket to
    /// answer).
    fn check_request(&self, input: &Tensor) -> Result<usize, TensorError> {
        check_input(&self.graph, input)?;
        let n = input.shape().dims()[0];
        if n == 0 {
            return Err(TensorError::invalid("cannot serve an empty (batch 0) request"));
        }
        Ok(n)
    }

    fn issue_ticket(&self) -> u64 {
        self.next_ticket.fetch_add(1, Ordering::Relaxed)
    }

    /// Registers the request's pending slot (with its waker) and pushes
    /// its job. A refused push rolls the slot back, so the ticket reads as
    /// unknown rather than hanging forever. Returns `Ok(None)` only for a
    /// non-blocking push into a full queue.
    fn submit_inner(
        &self,
        input: Tensor,
        opts: SubmitOptions,
        waker: Option<Waker>,
        block: bool,
    ) -> Result<Option<TicketId>, TensorError> {
        let samples = self.check_request(&input)?;
        let ticket = self.issue_ticket();
        self.shared.lock_results().insert(ticket, Slot::Pending { waker });
        if opts.deadline.is_some_and(|deadline| Instant::now() >= deadline) {
            // Already expired at the door: resolve the ticket to the typed
            // shed error without ever queueing it.
            self.shared.metrics.on_submit();
            shed_expired(&self.shared, ticket);
            return Ok(Some(TicketId(ticket)));
        }
        let job =
            Job { ticket, samples, input, deadline: opts.deadline, submitted: Instant::now() };
        let pushed = self.shared.push_job(job, opts.priority, self.config.queue_depth, block);
        let refused = match pushed {
            Pushed::Accepted => {
                self.shared.metrics.on_submit();
                return Ok(Some(TicketId(ticket)));
            }
            Pushed::Full => Ok(None),
            Pushed::Rejected => Err(TensorError::invalid("engine is shut down")),
        };
        self.shared.lock_results().remove(&ticket);
        refused
    }

    /// Enqueues one request (any batch size) at default priority with no
    /// deadline, **blocking while the queue is full** — the backpressure
    /// point. Returns a ticket redeemable once with [`wait`](Self::wait)
    /// or [`poll`](Self::poll).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] on per-sample shape mismatch, an empty
    /// batch, or an engine that is shutting down.
    pub fn submit(&self, input: Tensor) -> Result<TicketId, TensorError> {
        self.submit_with(input, SubmitOptions::default())
    }

    /// [`submit`](Self::submit) with explicit [`SubmitOptions`]
    /// (priority and deadline).
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit). An already-expired deadline is not
    /// an error: the returned ticket resolves to
    /// [`TensorError::DeadlineExpired`].
    pub fn submit_with(&self, input: Tensor, opts: SubmitOptions) -> Result<TicketId, TensorError> {
        match self.submit_inner(input, opts, None, true)? {
            Some(ticket) => Ok(ticket),
            // Blocking push only returns "not enqueued" on shutdown.
            None => Err(TensorError::invalid("engine is shut down")),
        }
    }

    /// [`submit_with`](Self::submit_with) plus a completion [`Waker`]:
    /// `waker` is invoked exactly once — from whichever thread resolves
    /// the ticket — when the result becomes ready (success, error, or
    /// shed). Redeem the ticket afterwards with [`poll`](Self::poll) (or
    /// [`wait`](Self::wait), which will not block by then).
    ///
    /// # Errors
    ///
    /// See [`submit_with`](Self::submit_with). If submission itself
    /// fails, the waker is dropped without being invoked.
    pub fn submit_with_waker(
        &self,
        input: Tensor,
        opts: SubmitOptions,
        waker: Waker,
    ) -> Result<TicketId, TensorError> {
        match self.submit_inner(input, opts, Some(waker), true)? {
            Some(ticket) => Ok(ticket),
            None => Err(TensorError::invalid("engine is shut down")),
        }
    }

    /// Non-blocking [`submit`](Self::submit): returns `Ok(None)` instead
    /// of blocking when the queue is full (the caller sees backpressure
    /// and can shed load).
    ///
    /// # Errors
    ///
    /// See [`submit`](Self::submit).
    pub fn try_submit(&self, input: Tensor) -> Result<Option<TicketId>, TensorError> {
        self.submit_inner(input, SubmitOptions::default(), None, false)
    }

    /// Non-blocking completion check: `Ok(Some(report))` delivers the
    /// result (exactly once — the ticket is consumed), `Ok(None)` means
    /// still in flight (the ticket stays redeemable).
    ///
    /// # Errors
    ///
    /// Returns the request's own execution error (consuming the ticket),
    /// or [`TensorError::InvalidParameter`] for an unknown or
    /// already-delivered ticket.
    pub fn poll(&self, ticket: TicketId) -> Result<Option<RunReport>, TensorError> {
        let mut results = self.shared.lock_results();
        match results.remove(&ticket.0) {
            None => Err(TensorError::invalid("ticket is unknown or was already delivered")),
            Some(Slot::Done(report)) => report.map(Some),
            Some(pending @ Slot::Pending { .. }) => {
                results.insert(ticket.0, pending);
                Ok(None)
            }
        }
    }

    /// Blocks until `ticket`'s request has executed and returns its
    /// report. Every ticket is delivered exactly once; waiting again (or
    /// on a ticket this engine never issued) is an error, not a hang.
    ///
    /// # Errors
    ///
    /// Returns the request's own execution error, or
    /// [`TensorError::InvalidParameter`] for an unknown/already-delivered
    /// ticket.
    pub fn wait(&self, ticket: TicketId) -> Result<RunReport, TensorError> {
        let mut results = self.shared.lock_results();
        loop {
            // Take the slot out: a Done slot is delivered (exactly once), a
            // Pending slot goes straight back before parking on the condvar.
            match results.remove(&ticket.0) {
                None => {
                    return Err(TensorError::invalid("ticket is unknown or was already delivered"))
                }
                Some(Slot::Done(report)) => return report,
                Some(pending @ Slot::Pending { .. }) => {
                    results.insert(ticket.0, pending);
                    results =
                        self.shared.done.wait(results).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Runs a batch of requests and returns their reports in request
    /// order. Every input is validated before anything is enqueued; each
    /// is then [`submit`](Self::submit)ted as its own job (moved, never
    /// copied) and waited on, so its report — output,
    /// [`MemStats`](bconv_core::fusion::MemStats) and segments — is
    /// bitwise a solo [`Session::run`](crate::Session::run)'s. Workers
    /// group the jobs like any others; `submit` blocks while the queue is
    /// full.
    ///
    /// # Errors
    ///
    /// Returns a validation error before anything is enqueued; otherwise
    /// the error of a refused submission (the engine stopped accepting
    /// work), or else
    /// the first failing request's, after every submitted request has
    /// resolved.
    pub fn run_batch(&self, inputs: Vec<Tensor>) -> Result<Vec<RunReport>, TensorError> {
        run_each(
            inputs,
            |input| self.check_request(input),
            |input| self.submit(input),
            |t| self.wait(t),
        )
    }

    /// Closes the queue, drains every already-submitted request, and
    /// joins the worker pool. Dropping the engine does the same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut q = self.shared.lock_queue();
            if q.phase == QueuePhase::Open {
                q.phase = QueuePhase::Closing;
            }
        }
        // Wake every parked worker (to drain and exit) and submitter (to
        // observe the rejection).
        self.shared.queue_pop.notify_all();
        self.shared.queue_push.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// Slots still resident in the ticket table (pending or undelivered).
    #[cfg(test)]
    pub(crate) fn resident_slots(&self) -> usize {
        self.shared.lock_results().len()
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field("network", &self.graph.name())
            .field("backend", &self.backend)
            .field("config", &self.config)
            .finish()
    }
}

/// The one `run_batch` body, shared by [`ServeEngine::run_batch`] and
/// [`Router::run_batch`](router::Router::run_batch): `check` every input
/// before anything is submitted, then `submit` each and `wait` on the
/// tickets in request order. A refused submission (every worker of the
/// engine has exited) stops submitting, but every ticket already issued
/// is still waited on — the last worker out fails every queued ticket, so
/// none of them hangs or lingers in a ticket table — and the refusal is
/// the error returned.
fn run_each<T>(
    inputs: Vec<Tensor>,
    check: impl Fn(&Tensor) -> Result<usize, TensorError>,
    submit: impl Fn(Tensor) -> Result<T, TensorError>,
    wait: impl Fn(T) -> Result<RunReport, TensorError>,
) -> Result<Vec<RunReport>, TensorError> {
    for input in &inputs {
        check(input)?;
    }
    let mut tickets = Vec::with_capacity(inputs.len());
    let mut first_err: Option<TensorError> = None;
    for input in inputs {
        match submit(input) {
            Ok(ticket) => tickets.push(ticket),
            Err(e) => {
                first_err = Some(e);
                break;
            }
        }
    }
    let mut reports = Vec::with_capacity(tickets.len());
    for ticket in tickets {
        match wait(ticket) {
            Ok(report) => reports.push(report),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    match first_err {
        None => Ok(reports),
        Some(e) => Err(e),
    }
}

/// Publishes one ticket's result, wakes blocking waiters, and invokes
/// the ticket's registered waker (if any) exactly once. The waker runs
/// outside the results lock; a panicking waker is contained so it can
/// never take down a worker (the result is already published).
fn fulfill(shared: &Shared, ticket: u64, report: Result<RunReport, TensorError>) {
    let waker = {
        let mut results = shared.lock_results();
        match results.insert(ticket, Slot::Done(report)) {
            Some(Slot::Pending { waker }) => waker,
            _ => None,
        }
    };
    shared.done.notify_all();
    if let Some(waker) = waker {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            waker(TicketId(ticket));
        }));
    }
}

/// Sheds an expired request — dequeued by a worker, or still at the
/// submission door: its ticket resolves to
/// [`TensorError::DeadlineExpired`] without touching the executor.
fn shed_expired(shared: &Shared, ticket: u64) {
    shared.metrics.on_shed();
    fulfill(shared, ticket, Err(TensorError::DeadlineExpired));
}

/// One worker thread: its reusable buffers, constructed once at spawn (in
/// [`ServeEngine::new`]'s thread closure) so the serving loop performs no
/// per-group bookkeeping allocation, and its exit guard.
///
/// Dropping the worker — at shutdown, or while unwinding from a panic
/// anywhere between dequeue and delivery — first fails every ticket of
/// its current group still `Pending` (delivered results are left alone;
/// outside a group `jobs` is empty), so no client hangs in `wait`. Then,
/// if it is the last worker out, it marks the queue Dead, fails every
/// still-queued ticket, and wakes all parked submitters and waiters, so a
/// fully-dead engine rejects instead of hanging. Poison-tolerant
/// throughout: the unwind it exists for may have poisoned any mutex.
struct Worker<'a> {
    shared: &'a Shared,
    scratch: ExecScratch,
    /// Jobs dequeued as the current group.
    jobs: Vec<Job>,
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        let shared = self.shared;
        let mut failed_any = false;
        {
            let mut results = shared.lock_results();
            for &Job { ticket, .. } in &self.jobs {
                if matches!(results.get(&ticket), Some(Slot::Pending { .. })) {
                    results.insert(
                        ticket,
                        Slot::Done(Err(TensorError::invalid(
                            "serving worker panicked while executing this request",
                        ))),
                    );
                    shared.metrics.on_fail();
                    failed_any = true;
                }
            }
        }
        if failed_any {
            shared.done.notify_all();
        }
        if shared.live_workers.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // Last worker out: nothing will ever be dequeued again.
        {
            let mut q = shared.lock_queue();
            q.phase = QueuePhase::Dead;
            q.samples = 0;
            shared.metrics.on_queue_depth(0, 0);
        }
        shared.queue_push.notify_all();
        shared.queue_pop.notify_all();
        // Fail the orphaned jobs one at a time, never holding the queue
        // lock while publishing results (lock-order hygiene: fulfill
        // takes the results lock and may run a waker).
        loop {
            let job = {
                let mut q = shared.lock_queue();
                match q.jobs.pop_first() {
                    Some((_, job)) => job,
                    None => break,
                }
            };
            shared.metrics.on_fail();
            fulfill(
                shared,
                job.ticket,
                Err(TensorError::invalid("all serving workers have exited")),
            );
        }
    }
}

/// A worker: pull the highest-priority job, opportunistically dequeue
/// more queued jobs up to the (possibly adaptive) sample cap as one
/// group, shed the expired ones, then run the rest one after another
/// through the shared executor with this worker's scratch, publishing
/// each job's ticket as soon as its own run returns.
fn worker_loop(executor: &dyn Executor, mut worker: Worker<'_>, config: ServeConfig) {
    let shared = worker.shared;
    loop {
        let mut q = shared.lock_queue();
        let first = loop {
            if let Some((_, job)) = q.jobs.pop_first() {
                break job;
            }
            match q.phase {
                // Parking on the condvar releases the queue lock (lint
                // L5's release-and-park exemption) — no lock is held
                // while blocked.
                QueuePhase::Open => {
                    q = shared.queue_pop.wait(q).unwrap_or_else(PoisonError::into_inner);
                }
                // Closing with an empty queue (drained) or Dead: exit.
                _ => return,
            }
        };
        // Adaptive group cap: follow the smoothed queue depth so a quiet
        // queue takes one job at a time while a deep queue takes up to
        // max_batch samples per trip to the lock. Jobs are never split,
        // so a request larger than the cap runs as a group of its own.
        let cap = if config.adaptive_batch {
            (shared.metrics.depth_ewma_samples() as usize).clamp(1, config.max_batch)
        } else {
            config.max_batch
        };
        let mut samples = first.samples;
        worker.jobs.push(first);
        while samples < cap {
            let fits = matches!(
                q.jobs.first_key_value(),
                Some((_, job)) if samples + job.samples <= cap
            );
            if !fits {
                break;
            }
            if let Some((_, job)) = q.jobs.pop_first() {
                samples += job.samples;
                worker.jobs.push(job);
            } else {
                break;
            }
        }
        q.samples = q.samples.saturating_sub(samples);
        shared.metrics.on_queue_depth(q.jobs.len() as u64, q.samples as u64);
        drop(q);
        // Space freed: wake every parked submitter that now fits.
        shared.queue_push.notify_all();

        // Shed-on-expiry: a job whose deadline passed while queued never
        // reaches the executor — its ticket resolves to the typed error.
        let now = Instant::now();
        worker.jobs.retain(|job| {
            let expired = job.deadline.is_some_and(|d| now >= d);
            if expired {
                shed_expired(shared, job.ticket);
            }
            !expired
        });
        if worker.jobs.is_empty() {
            continue;
        }

        // Counted before any result is published, so a waiter that wakes
        // on its ticket already sees its group.
        shared.metrics.on_batch(worker.jobs.iter().map(|job| job.samples).sum());

        // The group's jobs run back to back, and each publishes the moment
        // its own run returns: no request waits on the rest of its group.
        // (A panic here leaves the group in `worker.jobs` for the worker's
        // drop to fail what is still Pending.)
        for job in &worker.jobs {
            match executor.run_scratch(&job.input, &mut worker.scratch) {
                Ok(report) => {
                    // Count the completion *before* publishing: the moment
                    // the slot turns Done a waiter may wake and read the
                    // metrics, and it must see its own request counted.
                    shared.metrics.on_complete(job.submitted.elapsed().as_micros() as u64);
                    fulfill(shared, job.ticket, Ok(report));
                }
                Err(e) => {
                    shared.metrics.on_fail();
                    fulfill(shared, job.ticket, Err(e));
                }
            }
        }
        worker.jobs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionBuilder;
    use bconv_models::builder::{conv, maxpool, NetBuilder};
    use bconv_models::{ActShape, Network};
    use bconv_tensor::init::{seeded_rng, uniform_tensor};
    use std::sync::mpsc;

    /// A 3-op net small enough for tight unit-test loops.
    fn tiny_net() -> Network {
        let mut b = NetBuilder::new("tiny_serve", ActShape { c: 2, h: 16, w: 16 });
        b.push("conv1", conv(3, 1, 1, 2, 3));
        b.push("conv2", conv(3, 1, 1, 3, 2));
        b.push("pool", maxpool(2, 2, 0));
        b.build()
    }

    fn builder() -> SessionBuilder {
        Session::builder().network(tiny_net()).seed(7).threads(1).relu_after_conv(true)
    }

    fn input(seed: u64, n: usize) -> Tensor {
        uniform_tensor([n, 2, 16, 16], -1.0, 1.0, &mut seeded_rng(seed))
    }

    fn cfg(workers: usize, queue_depth: usize, max_batch: usize) -> ServeConfig {
        ServeConfig { workers, queue_depth, max_batch, adaptive_batch: true }
    }

    #[test]
    fn config_is_validated() {
        for bad in [
            ServeConfig { queue_depth: 0, ..ServeConfig::default() },
            ServeConfig { max_batch: 0, ..ServeConfig::default() },
        ] {
            assert!(builder().build().unwrap().into_engine(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn zero_workers_resolves_to_a_sane_auto_pool() {
        // workers = 0 is auto: sized against the session's intra-request
        // threads so the default combination cannot oversubscribe
        // workers x threads. A threads(2) session on any host resolves to
        // at most ceil(cores / 2) workers, and always at least one.
        let session = builder().threads(2).build().unwrap();
        let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
        let engine = session.into_engine(ServeConfig::default()).unwrap();
        let resolved = engine.config().workers;
        assert!(resolved >= 1, "auto must yield at least one worker");
        assert!(resolved <= avail.div_ceil(2), "auto must respect session threads");
        let t = engine.submit(input(5, 1)).unwrap();
        assert!(engine.wait(t).is_ok());
    }

    #[test]
    fn submit_wait_matches_session_run() {
        let oracle = builder().build().unwrap();
        let engine = builder().build().unwrap().into_engine(cfg(2, 4, 4)).unwrap();
        let inputs: Vec<Tensor> = (0..4).map(|i| input(10 + i, 1)).collect();
        let want: Vec<Tensor> = inputs.iter().map(|t| oracle.run(t).unwrap().output).collect();
        let tickets: Vec<TicketId> =
            inputs.iter().map(|t| engine.submit(t.clone()).unwrap()).collect();
        // Wait out of order: tickets resolve independently.
        for (i, &t) in tickets.iter().enumerate().rev() {
            let report = engine.wait(t).unwrap();
            assert_eq!(report.output.data(), want[i].data(), "request {i} diverged");
        }
    }

    #[test]
    fn tickets_deliver_exactly_once() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        let t = engine.submit(input(1, 1)).unwrap();
        engine.wait(t).unwrap();
        assert!(engine.wait(t).is_err(), "double wait must error, not hang");
        assert!(engine.wait(TicketId(9999)).is_err(), "unknown ticket must error");
        assert!(engine.poll(TicketId(9999)).is_err(), "unknown ticket must error on poll too");
    }

    #[test]
    fn submit_validates_shape_and_batch() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        assert!(engine.submit(Tensor::zeros([1, 2, 8, 8])).is_err(), "wrong spatial dims");
        assert!(engine.submit(Tensor::zeros([0, 2, 16, 16])).is_err(), "empty batch");
        assert!(engine.try_submit(Tensor::zeros([1, 3, 16, 16])).is_err(), "wrong channels");
    }

    #[test]
    fn run_batch_with_mixed_batch_sizes_matches_solo_runs() {
        let oracle = builder().build().unwrap();
        // A queue two jobs deep: run_batch blocks on backpressure partway
        // through its eight requests.
        let engine = builder().build().unwrap().into_engine(cfg(2, 2, 3)).unwrap();
        // Mixed sizes under max_batch = 3, one of them (5) larger than it.
        let inputs: Vec<Tensor> = [1usize, 2, 1, 3, 1, 5, 2, 1]
            .iter()
            .enumerate()
            .map(|(i, &n)| input(20 + i as u64, n))
            .collect();
        let reports = engine.run_batch(inputs.clone()).unwrap();
        assert_eq!(reports.len(), inputs.len());
        for (i, (inp, got)) in inputs.iter().zip(&reports).enumerate() {
            let want = oracle.run(inp).unwrap();
            assert_eq!(got.output.data(), want.output.data(), "request {i} output diverged");
            assert_eq!(got.stats, want.stats, "request {i} stats diverged");
            assert_eq!(got.segments, want.segments);
        }
        let m = engine.metrics();
        assert_eq!((m.submitted, m.completed), (8, 8), "one job per request");
        assert_eq!(m.batch_hist[5], 1, "the oversized request runs whole, as a group of its own");
    }

    #[test]
    fn run_batch_of_nothing_is_empty() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        assert!(engine.run_batch(Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn try_submit_succeeds_on_an_idle_engine() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        let t = engine.try_submit(input(3, 1)).unwrap().expect("idle queue accepts");
        assert!(engine.wait(t).is_ok());
    }

    #[test]
    fn shutdown_with_undelivered_results_does_not_hang() {
        let engine = builder().build().unwrap().into_engine(ServeConfig::default()).unwrap();
        for i in 0..3 {
            engine.submit(input(30 + i, 1)).unwrap();
        }
        engine.shutdown(); // tickets never waited on; must still join cleanly
    }

    #[test]
    fn engine_reports_its_configuration() {
        let conf = cfg(2, 5, 3);
        let engine = builder().build().unwrap().into_engine(conf).unwrap();
        assert_eq!(engine.config(), conf);
        assert_eq!(engine.backend(), Backend::Blocked);
        let d = format!("{engine:?}");
        assert!(d.contains("tiny_serve"), "{d}");
    }

    #[test]
    fn poll_delivers_exactly_once() {
        let oracle = builder().build().unwrap();
        let engine = builder().build().unwrap().into_engine(cfg(1, 4, 1)).unwrap();
        let inp = input(40, 1);
        let want = oracle.run(&inp).unwrap().output;
        let t = engine.submit(inp).unwrap();
        // Spin: poll returns Ok(None) while in flight, then the report.
        let report = loop {
            match engine.poll(t).unwrap() {
                Some(report) => break report,
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(report.output.data(), want.data());
        assert!(engine.poll(t).is_err(), "a delivered ticket must not poll again");
        assert!(engine.wait(t).is_err(), "nor wait again");
    }

    #[test]
    fn waker_fires_exactly_once_and_result_polls() {
        let engine = builder().build().unwrap().into_engine(cfg(1, 4, 2)).unwrap();
        let (tx, rx) = mpsc::channel::<TicketId>();
        let t = engine
            .submit_with_waker(
                input(41, 1),
                SubmitOptions::default(),
                Box::new(move |done| {
                    let _ = tx.send(done);
                }),
            )
            .unwrap();
        let woken = rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        assert_eq!(woken, t, "waker must receive its own ticket");
        // After the wake the result is ready: poll must not return None.
        let report = engine.poll(t).unwrap();
        assert!(report.is_some(), "waker fired before the result was published");
        assert!(rx.try_recv().is_err(), "waker must fire exactly once");
    }

    #[test]
    fn zero_deadline_sheds_with_typed_error() {
        let engine = builder().build().unwrap().into_engine(cfg(1, 4, 2)).unwrap();
        let opts = SubmitOptions { priority: 3, deadline: Some(Instant::now()) };
        let (tx, rx) = mpsc::channel::<TicketId>();
        let t = engine
            .submit_with_waker(
                input(42, 1),
                opts,
                Box::new(move |done| {
                    let _ = tx.send(done);
                }),
            )
            .unwrap();
        // Shed notifies the waker too (the ticket resolved).
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap(), t);
        assert!(matches!(engine.wait(t), Err(TensorError::DeadlineExpired)));
        let m = engine.metrics();
        assert_eq!(m.shed, 1, "shed must be counted");
        assert_eq!(m.completed, 0);
        // A generous deadline is not shed.
        let far = SubmitOptions {
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
            ..SubmitOptions::default()
        };
        let t2 = engine.submit_with(input(43, 1), far).unwrap();
        assert!(engine.wait(t2).is_ok(), "future deadline must execute normally");
    }

    #[test]
    fn metrics_count_requests_and_batches() {
        let oracle = builder().build().unwrap();
        let engine = builder().build().unwrap().into_engine(cfg(1, 8, 4)).unwrap();
        let inputs: Vec<Tensor> = (0..6).map(|i| input(50 + i, 1)).collect();
        let reports = engine.run_batch(inputs.clone()).unwrap();
        for (inp, got) in inputs.iter().zip(&reports) {
            assert_eq!(got.output.data(), oracle.run(inp).unwrap().output.data());
        }
        let m = engine.metrics();
        assert_eq!(m.submitted, 6);
        assert_eq!(m.completed, 6);
        assert_eq!((m.failed, m.shed), (0, 0));
        assert!(m.batches >= 2, "6 samples under max_batch 4 need >= 2 dispatches");
        assert_eq!(m.batched_samples, 6);
        assert_eq!(m.batch_hist.iter().sum::<u64>(), m.batches);
        assert!(m.p99_latency_us >= m.p50_latency_us);
        assert!(m.max_latency_us >= m.p99_latency_us);
    }

    /// Test executor: waits for a gate permit before each run and records
    /// the order in which request tags (first input element, rounded)
    /// reach the executor — the priority-ordering observer.
    struct GatedExecutor {
        inner: Arc<dyn Executor>,
        started: mpsc::Sender<()>,
        gate: Mutex<mpsc::Receiver<()>>,
        order: Mutex<Vec<i64>>,
    }

    impl Executor for GatedExecutor {
        fn run_scratch(
            &self,
            input: &Tensor,
            scratch: &mut ExecScratch,
        ) -> Result<RunReport, TensorError> {
            let _ = self.started.send(());
            let _ = self.gate.lock().unwrap().recv();
            self.order.lock().unwrap().push(input.data()[0].round() as i64);
            self.inner.run_scratch(input, scratch)
        }
    }

    /// Tags a request input: first element set to `tag` (the rest random)
    /// so the gated executor can identify it.
    fn tagged(seed: u64, tag: f32) -> Tensor {
        let mut t = input(seed, 1);
        t.data_mut()[0] = tag;
        t
    }

    /// Longest wait for an event the test has already caused.
    const PATIENCE: std::time::Duration = std::time::Duration::from_secs(10);

    /// A one-worker engine with a fixed group cap whose executor is the
    /// session's, wrapped by `wrap`, behind a [`GatedExecutor`]: `started`
    /// hears of every run that reaches the gate, `permit` lets one through.
    /// Fields drop in order: the permit sender goes first, so a failed
    /// test opens the gate instead of hanging the engine's shutdown.
    struct GatedRig {
        permit: mpsc::Sender<()>,
        started: mpsc::Receiver<()>,
        gated: Arc<GatedExecutor>,
        engine: ServeEngine,
    }

    fn gated_rig(
        max_batch: usize,
        wrap: impl FnOnce(Arc<dyn Executor>) -> Arc<dyn Executor>,
    ) -> GatedRig {
        let mut session = builder().build().unwrap();
        let (_graph, inner) = session.shared_parts();
        let (started_tx, started) = mpsc::channel();
        let (permit, permit_rx) = mpsc::channel();
        let gated = Arc::new(GatedExecutor {
            inner: wrap(inner),
            started: started_tx,
            gate: Mutex::new(permit_rx),
            order: Mutex::new(Vec::new()),
        });
        session.swap_executor(Arc::clone(&gated) as Arc<dyn Executor>);
        let engine = session
            .into_engine(ServeConfig {
                workers: 1,
                queue_depth: 16,
                max_batch,
                adaptive_batch: false,
            })
            .unwrap();
        GatedRig { permit, started, gated, engine }
    }

    #[test]
    fn higher_priority_dequeues_first() {
        // Batch-of-1, fixed cap: dequeue order is exactly queue priority
        // order.
        let rig = gated_rig(1, |inner| inner);
        let engine = &rig.engine;
        // Block the worker on a sacrificial request so the next three
        // submissions all queue up before anything else is dequeued.
        let t0 = engine.submit(tagged(60, 100.0)).unwrap();
        rig.started.recv_timeout(PATIENCE).unwrap();
        let low1 = engine
            .submit_with(tagged(61, 1.0), SubmitOptions { priority: 0, deadline: None })
            .unwrap();
        let low2 = engine
            .submit_with(tagged(62, 2.0), SubmitOptions { priority: 0, deadline: None })
            .unwrap();
        let high = engine
            .submit_with(tagged(63, 3.0), SubmitOptions { priority: 9, deadline: None })
            .unwrap();
        for _ in 0..4 {
            rig.permit.send(()).unwrap();
        }
        for t in [t0, high, low1, low2] {
            engine.wait(t).unwrap();
        }
        // The blocked request ran first (already in flight), then the
        // high-priority one jumped the two earlier low-priority ones,
        // which kept FIFO order between themselves.
        assert_eq!(*rig.gated.order.lock().unwrap(), [100, 3, 1, 2]);
    }

    #[test]
    fn a_group_publishes_each_job_as_soon_as_its_own_run_returns() {
        const K: usize = 4;
        let oracle = builder().build().unwrap();
        let rig = gated_rig(K, |inner| inner);
        let engine = &rig.engine;
        // Hold the worker on a sacrificial request so the K requests all
        // queue up and are dequeued as one group.
        let t0 = engine.submit(tagged(90, 100.0)).unwrap();
        rig.started.recv_timeout(PATIENCE).unwrap();
        let (woken_tx, woken) = mpsc::channel();
        let inputs: Vec<Tensor> = (0..K).map(|i| tagged(91 + i as u64, i as f32 + 1.0)).collect();
        let tickets: Vec<TicketId> = inputs
            .iter()
            .map(|input| {
                let tx = woken_tx.clone();
                let waker: Waker = Box::new(move |t| {
                    let _ = tx.send(t);
                });
                engine.submit_with_waker(input.clone(), SubmitOptions::default(), waker).unwrap()
            })
            .collect();
        rig.permit.send(()).unwrap();
        engine.wait(t0).unwrap();
        // Let the group's first job through; its successor reaching the
        // gate means the first run has returned.
        rig.started.recv_timeout(PATIENCE).unwrap();
        rig.permit.send(()).unwrap();
        rig.started.recv_timeout(PATIENCE).unwrap();
        let first = engine.poll(tickets[0]).unwrap().expect("ticket 1 published while k is gated");
        assert_eq!(first.output.data(), oracle.run(&inputs[0]).unwrap().output.data());
        assert_eq!(first.stats, oracle.run(&inputs[0]).unwrap().stats);
        assert!(engine.poll(tickets[K - 1]).unwrap().is_none(), "ticket k must still be gated");
        for _ in 1..K {
            rig.permit.send(()).unwrap();
        }
        for (input, &t) in inputs.iter().zip(&tickets).skip(1) {
            assert_eq!(
                engine.wait(t).unwrap().output.data(),
                oracle.run(input).unwrap().output.data()
            );
        }
        let published: Vec<TicketId> =
            (0..K).map(|_| woken.recv_timeout(PATIENCE).unwrap()).collect();
        assert_eq!(published, tickets, "tickets publish in dequeue order");
        assert_eq!(*rig.gated.order.lock().unwrap(), [100, 1, 2, 3, 4]);
        let m = engine.metrics();
        assert_eq!((m.batches, m.batch_hist[1], m.batch_hist[K]), (2, 1, 1), "one group of K");
    }

    #[test]
    fn a_panic_on_the_second_job_of_a_group_keeps_the_first_delivered() {
        let oracle = builder().build().unwrap();
        let rig = gated_rig(3, |inner| Arc::new(PanickingExecutor { inner }));
        let engine = &rig.engine;
        let t0 = engine.submit(tagged(95, 100.0)).unwrap();
        rig.started.recv_timeout(PATIENCE).unwrap();
        let first = tagged(96, 1.0);
        let t1 = engine.submit(first.clone()).unwrap();
        let t2 = engine.submit(tagged(97, POISON_TAG)).unwrap();
        let t3 = engine.submit(tagged(98, 3.0)).unwrap();
        // The sacrificial run, then the group: job 1 runs, job 2 panics
        // past the gate and takes the only worker down with job 3 queued
        // behind it in the same group.
        for _ in 0..3 {
            rig.permit.send(()).unwrap();
        }
        engine.wait(t0).unwrap();
        assert_eq!(
            engine.wait(t1).unwrap().output.data(),
            oracle.run(&first).unwrap().output.data()
        );
        for t in [t2, t3] {
            match engine.wait(t) {
                Err(TensorError::InvalidParameter { context }) => {
                    assert!(context.contains("panicked"), "{context}");
                }
                other => panic!("expected the worker-panic error, got {other:?}"),
            }
        }
        let m = engine.metrics();
        assert_eq!((m.completed, m.failed), (2, 2));
        assert_eq!(engine.resident_slots(), 0, "every ticket resolved");
    }

    /// Test executor: panics on inputs tagged with the poison value —
    /// the worker-death injector for the run_batch regression test.
    struct PanickingExecutor {
        inner: Arc<dyn Executor>,
    }

    const POISON_TAG: f32 = 12_345.0;

    impl Executor for PanickingExecutor {
        fn run_scratch(
            &self,
            input: &Tensor,
            scratch: &mut ExecScratch,
        ) -> Result<RunReport, TensorError> {
            assert!(input.data()[0] != POISON_TAG, "poisoned request reached the executor");
            self.inner.run_scratch(input, scratch)
        }
    }

    #[test]
    fn run_batch_survives_worker_death_mid_batch() {
        // Regression (ISSUE 9): when the queue dies mid-run_batch, every
        // ticket — executed, queued, or never enqueued — must resolve,
        // and no slot may linger in the results table.
        let mut session = builder().build().unwrap();
        let (_graph, inner) = session.shared_parts();
        session.swap_executor(Arc::new(PanickingExecutor { inner }));
        // One worker and a depth-1 queue: the poisoned request kills the
        // only worker while later requests are queued or blocked in submit.
        let engine = session
            .into_engine(ServeConfig {
                workers: 1,
                queue_depth: 1,
                max_batch: 1,
                adaptive_batch: false,
            })
            .unwrap();
        let inputs = vec![tagged(70, POISON_TAG), tagged(71, 1.0), tagged(72, 2.0)];
        let err = engine.run_batch(inputs).expect_err("a poisoned batch must fail");
        assert_ne!(err, TensorError::DeadlineExpired);
        assert_eq!(engine.resident_slots(), 0, "no slot may linger after the error path");
        // The engine is dead: later submissions fail fast instead of hanging.
        assert!(engine.submit(tagged(73, 3.0)).is_err());
        assert!(engine.try_submit(tagged(74, 4.0)).is_err());
        let m = engine.metrics();
        assert!(m.failed >= 1, "worker death must be visible in metrics");
    }

    #[test]
    fn adaptive_and_fixed_caps_agree_bitwise() {
        let oracle = builder().build().unwrap();
        let adaptive = builder().build().unwrap().into_engine(cfg(2, 8, 4)).unwrap();
        let fixed = builder()
            .build()
            .unwrap()
            .into_engine(ServeConfig {
                workers: 2,
                queue_depth: 8,
                max_batch: 4,
                adaptive_batch: false,
            })
            .unwrap();
        let inputs: Vec<Tensor> = (0..5).map(|i| input(80 + i, 1)).collect();
        let a = adaptive.run_batch(inputs.clone()).unwrap();
        let f = fixed.run_batch(inputs.clone()).unwrap();
        for ((inp, ra), rf) in inputs.iter().zip(&a).zip(&f) {
            let want = oracle.run(inp).unwrap().output;
            assert_eq!(ra.output.data(), want.data(), "adaptive cap changed an output");
            assert_eq!(rf.output.data(), want.data(), "fixed cap changed an output");
        }
    }
}
