//! [`Router`]: one serving front door over N [`ServeEngine`] replicas
//! that share a single compiled model.
//!
//! A single engine's throughput tops out at its worker pool; the router
//! scales past that by sharding requests across replica engines while
//! paying the model cost **once**: every replica is built from a
//! [`Session::fork`](crate::Session::fork), so all of them hold the same
//! `Arc`'d graph, fusion plan, weights, and (for the quantized backend)
//! the same calibration — N replicas, one lowering, one planning pass,
//! one calibration pass ([`crate::quantize::calibration_passes`] counts
//! them). Shard choice is least-queued-samples with a rotating
//! tie-break, which is pure load balancing: samples are independent and
//! every replica runs the identical executor, so routing — like a
//! replica's dequeue grouping — is bitwise invisible and each request's
//! output equals a solo [`Session::run`](crate::Session::run).
//!
//! The API mirrors the engine: [`submit`](Router::submit) /
//! [`submit_with`](Router::submit_with) /
//! [`submit_with_waker`](Router::submit_with_waker) return a
//! [`RouterTicket`] (shard + engine ticket), redeemed with
//! [`wait`](Router::wait) or [`poll`](Router::poll);
//! [`run_batch`](Router::run_batch) routes each request of a batch as its
//! own job, through the engine's own `run_batch` body;
//! [`metrics`](Router::metrics) folds every replica's [`ServeMetrics`]
//! into one fleet view.

use std::sync::atomic::{AtomicUsize, Ordering};

use bconv_tensor::{Tensor, TensorError};

use crate::exec::RunReport;
use crate::serve::metrics::ServeMetrics;
use crate::serve::{run_each, ServeConfig, ServeEngine, SubmitOptions, TicketId, Waker};
use crate::session::Session;

/// Handle to one routed request: remembers which replica holds the
/// underlying [`TicketId`]. Redeem with [`Router::wait`] or
/// [`Router::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RouterTicket {
    shard: usize,
    ticket: TicketId,
}

/// N replica [`ServeEngine`]s behind one submit/wait/poll surface. Built
/// by [`Session::into_router`](crate::Session::into_router); see the
/// [module docs](self).
pub struct Router {
    replicas: Vec<ServeEngine>,
    /// Rotating tie-break so equally-idle replicas share work instead of
    /// all traffic landing on shard 0.
    rr: AtomicUsize,
}

impl Router {
    /// Builds `replicas` engines, each configured with `config`, all
    /// forked from one compiled `session` (shared graph, plan, weights,
    /// calibration — nothing is re-lowered or re-calibrated per
    /// replica).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidParameter`] for `replicas == 0` or
    /// an invalid `config`.
    pub(crate) fn new(
        session: Session,
        replicas: usize,
        config: ServeConfig,
    ) -> Result<Self, TensorError> {
        if replicas == 0 {
            return Err(TensorError::invalid("Router requires at least one replica"));
        }
        let mut engines = Vec::with_capacity(replicas);
        for _ in 1..replicas {
            engines.push(session.fork().into_engine(config)?);
        }
        engines.push(session.into_engine(config)?);
        Ok(Self { replicas: engines, rr: AtomicUsize::new(0) })
    }

    /// The replica engines, for per-shard inspection (metrics, config).
    pub fn replicas(&self) -> &[ServeEngine] {
        &self.replicas
    }

    /// Least-loaded shard (queued samples), ties broken by a rotating
    /// offset. Pure heuristic: any choice yields identical outputs.
    fn pick(&self) -> usize {
        let n = self.replicas.len();
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % n;
        let mut best = start;
        let mut best_depth = self.replicas[start].queued_samples();
        let mut i = (start + 1) % n;
        while i != start {
            let depth = self.replicas[i].queued_samples();
            if depth < best_depth {
                best = i;
                best_depth = depth;
            }
            i = (i + 1) % n;
        }
        best
    }

    /// Routes one request to the least-loaded replica. See
    /// [`ServeEngine::submit`].
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit`].
    pub fn submit(&self, input: Tensor) -> Result<RouterTicket, TensorError> {
        self.submit_with(input, SubmitOptions::default())
    }

    /// [`submit`](Self::submit) with explicit priority/deadline. See
    /// [`ServeEngine::submit_with`].
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit_with`].
    pub fn submit_with(
        &self,
        input: Tensor,
        opts: SubmitOptions,
    ) -> Result<RouterTicket, TensorError> {
        let shard = self.pick();
        let ticket = self.replicas[shard].submit_with(input, opts)?;
        Ok(RouterTicket { shard, ticket })
    }

    /// [`submit_with`](Self::submit_with) plus a completion [`Waker`].
    /// See [`ServeEngine::submit_with_waker`].
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::submit_with_waker`].
    pub fn submit_with_waker(
        &self,
        input: Tensor,
        opts: SubmitOptions,
        waker: Waker,
    ) -> Result<RouterTicket, TensorError> {
        let shard = self.pick();
        let ticket = self.replicas[shard].submit_with_waker(input, opts, waker)?;
        Ok(RouterTicket { shard, ticket })
    }

    /// Blocks until the routed request resolves. See
    /// [`ServeEngine::wait`].
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::wait`].
    pub fn wait(&self, ticket: RouterTicket) -> Result<RunReport, TensorError> {
        match self.replicas.get(ticket.shard) {
            Some(engine) => engine.wait(ticket.ticket),
            None => Err(TensorError::invalid("router ticket references an unknown shard")),
        }
    }

    /// Non-blocking completion check. See [`ServeEngine::poll`].
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::poll`].
    pub fn poll(&self, ticket: RouterTicket) -> Result<Option<RunReport>, TensorError> {
        match self.replicas.get(ticket.shard) {
            Some(engine) => engine.poll(ticket.ticket),
            None => Err(TensorError::invalid("router ticket references an unknown shard")),
        }
    }

    /// Spreads a whole batch across the replica set and returns the
    /// reports in request order — bitwise identical to solo runs. The
    /// same body as [`ServeEngine::run_batch`]: every input is validated
    /// first (the replicas share one graph), so a bad input enqueues
    /// nothing; then each request is routed as its own job, exactly like
    /// [`submit`](Self::submit), and the shard's workers group it with
    /// whatever else is queued there.
    ///
    /// # Errors
    ///
    /// See [`ServeEngine::run_batch`].
    pub fn run_batch(&self, inputs: Vec<Tensor>) -> Result<Vec<RunReport>, TensorError> {
        run_each(
            inputs,
            |input| self.replicas[0].check_request(input),
            |input| self.submit(input),
            |t| self.wait(t),
        )
    }

    /// Fleet-wide [`ServeMetrics`]: counters summed, latency percentiles
    /// and depth gauges taken as the worst replica's reading.
    pub fn metrics(&self) -> ServeMetrics {
        let mut total = self.replicas[0].metrics();
        for engine in &self.replicas[1..] {
            total = total.merged(&engine.metrics());
        }
        total
    }

    /// Shuts every replica down, draining in-flight requests. Dropping
    /// the router does the same.
    pub fn shutdown(self) {
        for engine in self.replicas {
            engine.shutdown();
        }
    }
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("replicas", &self.replicas.len())
            .field("engine", &self.replicas.first())
            .finish()
    }
}
