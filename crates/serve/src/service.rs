//! The solve service: plan key (fingerprint + ordering) → cached plan →
//! (batched) solve.
//!
//! [`SolveService`] fronts the whole SPCG pipeline behind two entry
//! styles:
//!
//! * **Synchronous** — [`solve`](SolveService::solve) /
//!   [`solve_in_place`](SolveService::solve_in_place) run on the calling
//!   thread. The in-place variant is the zero-allocation hot path: once a
//!   plan is cached and the caller's workspace is warm, a request performs
//!   no heap allocation at all (fingerprint, cache hit, PCG loop included).
//! * **Queued** — build a [`SolveRequest`] and hand it to
//!   [`submit`](SolveService::submit) /
//!   [`try_submit`](SolveService::try_submit): the request goes to a
//!   `std::thread` worker pool behind a bounded queue (`try_submit` is the
//!   backpressure edge: it fails fast with [`ServeError::QueueFull`]).
//!   A request carrying a [`RequestPolicy`] passes through admission
//!   control first and may be downgraded or shed. A worker that dequeues a
//!   request waits out a small **admission window**, then drains every
//!   same-fingerprint request still queued and solves them as one batch
//!   through a single reused workspace — the cross-request analogue of
//!   [`SpcgPlan::solve_many`]. A queued request can be withdrawn with
//!   [`Ticket::cancel`] until a worker picks it up.
//! * **Sessions** — [`open_session`](SolveService::open_session) pins one
//!   evolving system (fixed sparsity structure, drifting values) to a
//!   [`Session`]: each [`step`](Session::step) reuses the cached plan when
//!   the values are unchanged, refreshes only the numeric factorization
//!   ([`SpcgPlan::refresh_values`]) when they drift, and warm-starts PCG
//!   from the previous step's solution (a [`SpcgPlan::solve_in_place`]
//!   with `SolveCtx::warm`).
//!
//! Requests fail independently: a right-hand side that breaks down falls
//! back to the resilient ladder ([`SpcgPlan::solve_resilient`]) without
//! touching its batchmates, and a poisoned request (injected fault) recovers
//! or degrades alone.
//!
//! Numerics are identical on every path: a batched, cached, multi-worker
//! solve returns bit-for-bit the vector a fresh single-threaded
//! [`SpcgPlan::solve`] would (asserted by this crate's tests).

use crate::admission::{decide, Admission, LoadSnapshot, ShedReason, TierCost, TierCosts};
use crate::breaker::{BreakerConfig, BreakerCounters, BreakerDecision, BreakerRegistry};
use crate::cache::{CacheConfig, CacheStats, PlanCache, PlanKey};
use crate::policy::{RequestPolicy, SolveTier};
use crate::queue::{BoundedQueue, PushError};
use spcg_core::{
    FaultInjection, IluFill, OrderingKind, PrecondKind, ResilienceOptions, SpcgOptions, SpcgPlan,
};
use spcg_gpusim::{
    dot_cost, elementwise_cost, estimate_from_structure, iteration_budget, plan_iteration_cost,
    spmv_cost, value_bytes_of, DeviceSpec,
};
use spcg_precond::JacobiPreconditioner;
use spcg_probe::{AdmissionEvent, AdmissionVerdict, Counter, NoProbe, Probe, Span};
use spcg_solver::{
    pcg_in_place, SolveCtx, SolveResult, SolveStats, SolveWorkspace, SolverError, StopReason,
};
use spcg_sparse::{CsrMatrix, MatrixFingerprint, Scalar, SparseError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`SolveService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads in the pool (min 1).
    pub workers: usize,
    /// Bounded queue depth; `try_submit` fails once it is full.
    pub queue_capacity: usize,
    /// How long a worker waits after dequeuing a request for
    /// same-fingerprint requests to arrive before solving. Zero disables
    /// coalescing delay (the worker still drains whatever already queued).
    pub batch_window: Duration,
    /// Maximum right-hand sides coalesced into one batch.
    pub batch_limit: usize,
    /// Plan-cache sizing.
    pub cache: CacheConfig,
    /// Pipeline options used to build every plan.
    pub options: SpcgOptions,
    /// Ladder options for breakdown fallback (`fault` is overridden
    /// per-request; see [`SolveRequest::fault`]).
    pub resilience: ResilienceOptions,
    /// Device cost model backing admission pricing (deadline feasibility,
    /// queue-wait estimation, iteration budgets).
    pub device: DeviceSpec,
    /// Circuit-breaker tuning for repeatedly failing fingerprints.
    pub breaker: BreakerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_capacity: 64,
            batch_window: Duration::from_micros(200),
            batch_limit: 32,
            cache: CacheConfig::default(),
            options: SpcgOptions::default(),
            resilience: ResilienceOptions::default(),
            device: DeviceSpec::a100(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// Why the service could not complete a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// `try_submit` bounced off a full queue — retry later (backpressure).
    QueueFull,
    /// The service is shutting down.
    Closed,
    /// Plan construction failed for the submitted matrix.
    PlanBuild(SparseError),
    /// The solve itself rejected the request (dimension mismatch, …).
    Solver(SolverError),
    /// The admission controller refused the request before any work
    /// started (policy submissions only; see [`SolveRequest::policy`]).
    Shed(ShedReason),
    /// The caller cancelled the queued request ([`Ticket::cancel`]) before
    /// a worker picked it up; no solve work was spent on it.
    Cancelled,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "queue full, request rejected (backpressure)"),
            ServeError::Closed => write!(f, "service closed"),
            ServeError::PlanBuild(e) => write!(f, "plan construction failed: {e}"),
            ServeError::Solver(e) => write!(f, "solver rejected request: {e}"),
            ServeError::Shed(reason) => write!(f, "request shed at admission: {reason}"),
            ServeError::Cancelled => write!(f, "request cancelled while queued"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SolverError> for ServeError {
    fn from(e: SolverError) -> Self {
        ServeError::Solver(e)
    }
}

/// One queued solve request: the system, the right-hand side, and the
/// optional extras that used to be separate `submit_*` entry points.
///
/// ```
/// use spcg_serve::{RequestPolicy, ServiceConfig, SolveRequest, SolveService};
/// use spcg_sparse::generators::poisson_2d;
/// use std::sync::Arc;
///
/// let service: SolveService = SolveService::new(ServiceConfig::default());
/// let a = Arc::new(poisson_2d(12, 12));
/// let b = vec![1.0f64; a.n_rows()];
/// let req = SolveRequest::new(Arc::clone(&a), b).policy(RequestPolicy::default());
/// let out = service.submit(req).unwrap().wait().unwrap();
/// assert!(out.result.converged());
/// ```
///
/// The matrix travels as an `Arc` so same-system clients share one copy
/// (and so a worker can coalesce same-fingerprint requests into a batch).
#[derive(Debug, Clone)]
pub struct SolveRequest<T: Scalar> {
    a: Arc<CsrMatrix<T>>,
    b: Vec<T>,
    policy: Option<RequestPolicy>,
    fault: Option<FaultInjection>,
}

impl<T: Scalar> SolveRequest<T> {
    /// A plain request for `A x = b`: no policy (never shed, no deadline),
    /// no injected fault.
    pub fn new(a: Arc<CsrMatrix<T>>, b: Vec<T>) -> Self {
        Self { a, b, policy: None, fault: None }
    }

    /// Routes the request through admission control under `policy`: it may
    /// be admitted (possibly downgraded to a cheaper [`SolveTier`]) with an
    /// iteration-count watchdog budget, or shed with a typed
    /// [`ServeError::Shed`] before any work starts.
    pub fn policy(mut self, policy: RequestPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Injects a deterministic fault, for resilience testing: the request
    /// is solved through the fallback ladder and recovers (or degrades)
    /// without affecting its batchmates.
    pub fn fault(mut self, fault: FaultInjection) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// A completed request: the solve result plus serving metadata.
#[derive(Debug, Clone)]
pub struct ServeOutcome<T: Scalar> {
    /// The solve result — bitwise identical to a fresh
    /// [`SpcgPlan::solve`] of the same system.
    pub result: SolveResult<T>,
    /// Present when the request went through the resilient ladder
    /// (breakdown fallback or injected fault).
    pub report: Option<spcg_core::RecoveryReport>,
    /// `true` when the plan came out of the cache.
    pub cache_hit: bool,
    /// Number of right-hand sides in the batch this request rode in
    /// (1 = solved alone).
    pub batch_size: usize,
    /// The execution rung that served this request.
    /// [`SolveTier::Full`] on every non-policy path; a policy submission
    /// reports the (possibly downgraded) tier admission selected.
    pub tier: SolveTier,
}

/// Cancellation state shared between a [`Ticket`] and its queued
/// [`Request`]. The queued-work charge lives here (not on the request) so
/// that exactly one of `Ticket::cancel` and the dequeuing worker releases
/// it: both go through [`CancelCell::take_charge`], an atomic swap to zero.
#[derive(Debug)]
struct CancelCell {
    cancelled: AtomicBool,
    charge_us: AtomicU64,
}

impl CancelCell {
    fn new(charge_us: u64) -> Self {
        Self { cancelled: AtomicBool::new(false), charge_us: AtomicU64::new(charge_us) }
    }

    /// Claims the queued-work charge, exactly once across all callers.
    fn take_charge(&self) -> u64 {
        self.charge_us.swap(0, Ordering::AcqRel)
    }
}

/// Handle to a queued request; redeem with [`Ticket::wait`] or withdraw
/// with [`Ticket::cancel`].
#[derive(Debug)]
pub struct Ticket<T: Scalar> {
    rx: mpsc::Receiver<Result<ServeOutcome<T>, ServeError>>,
    cancel: Arc<CancelCell>,
    service: Weak<Inner<T>>,
}

impl<T: Scalar> Ticket<T> {
    /// Blocks until the worker pool finishes this request.
    pub fn wait(self) -> Result<ServeOutcome<T>, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Withdraws the request if it is still queued — best effort: a request
    /// a worker already picked up runs to completion and `cancel` is a
    /// no-op. A successfully cancelled request releases its queued-work
    /// charge immediately (admission stops pricing work that will never
    /// run), is answered with [`ServeError::Cancelled`] when the worker
    /// reaches it, counts in [`ServiceStats::cancelled`], and feeds its
    /// fingerprint's circuit breaker neutrally (a cancelled probe releases
    /// the half-open slot instead of leaking it).
    pub fn cancel(&self) {
        self.cancel.cancelled.store(true, Ordering::Release);
        if let Some(inner) = self.service.upgrade() {
            let charge = self.cancel.take_charge();
            if charge > 0 {
                inner.queued_cost_us.fetch_sub(charge, Ordering::Relaxed);
            }
        }
    }
}

/// Aggregate service counters (see [`SolveService::stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Requests accepted (queued + synchronous). Excludes rejections.
    pub requests: u64,
    /// Requests fully processed (including failed solves).
    pub completed: u64,
    /// Batches executed by the worker pool.
    pub batches: u64,
    /// Right-hand sides that rode in a batch of size ≥ 2.
    pub batched_rhs: u64,
    /// Largest batch executed.
    pub max_batch: u64,
    /// `try_submit` rejections (backpressure events).
    pub rejected: u64,
    /// Policy submissions offered to the admission controller. Always
    /// equals `admitted + downgraded + shed + closed_rejected` (the
    /// reconciliation invariant).
    pub offered: u64,
    /// Policy submissions admitted at full quality.
    pub admitted: u64,
    /// Policy submissions admitted at a degraded tier.
    pub downgraded: u64,
    /// Policy submissions refused at admission (occupancy, infeasible
    /// deadline, or quarantined fingerprint). Counts exactly the
    /// requests whose caller saw [`ServeError::Shed`].
    pub shed: u64,
    /// Policy submissions that passed admission but bounced off a
    /// closing queue during shutdown; the caller saw
    /// [`ServeError::Closed`], not a shed, so they are tallied apart
    /// from `shed`. Zero outside shutdown.
    pub closed_rejected: u64,
    /// Requests whose deadline expired while queued (answered with a typed
    /// [`SolverError::DeadlineExceeded`] without consuming solve time).
    pub deadline_expired: u64,
    /// Queued requests withdrawn by [`Ticket::cancel`] before a worker
    /// picked them up (answered with [`ServeError::Cancelled`] without
    /// consuming solve time). Cancellation happens *after* admission, so
    /// these stay inside `admitted + downgraded` (or plain `requests`) and
    /// inside `completed` — the reconciliation invariant is untouched.
    pub cancelled: u64,
    /// Sequence sessions opened ([`SolveService::open_session`]).
    pub sessions_opened: u64,
    /// Steps served through open sessions ([`Session::step`]).
    pub session_steps: u64,
    /// Session steps that refreshed the plan's numeric values in place
    /// (value drift without a cached value twin), as opposed to reusing a
    /// resident plan verbatim.
    pub session_refreshes: u64,
    /// Circuit-breaker transition/rejection tallies, summed over all
    /// fingerprints.
    pub breaker: BreakerCounters,
    /// Plan-cache counters.
    pub cache: CacheStats,
}

/// How a request's outcome feeds its fingerprint's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerRole {
    /// Plain submission: the breaker never hears about it.
    Off,
    /// Policy submission through a closed breaker: the outcome is
    /// reported as a success or failure.
    Report,
    /// Policy submission holding the fingerprint's single half-open
    /// probe slot: the outcome is reported, and a *neutral* outcome (the
    /// request never ran) must release the slot via
    /// [`BreakerRegistry::abort_probe`] or the breaker sticks half-open
    /// and quarantines the fingerprint forever.
    Probe,
}

struct Request<T: Scalar> {
    key: PlanKey,
    a: Arc<CsrMatrix<T>>,
    b: Vec<T>,
    fault: Option<FaultInjection>,
    /// Absolute wall-clock deadline; a worker re-derives the iteration
    /// budget from whatever time remains at dequeue.
    deadline: Option<Instant>,
    /// Admission's per-iteration price for this request's tier, µs.
    per_iter_us: f64,
    /// Cancellation flag plus the request's outstanding queued-work charge
    /// (the amount added to the gauge at admission; whoever reaches it
    /// first — the dequeuing worker or [`Ticket::cancel`] — subtracts it
    /// back, exactly once).
    cancel: Arc<CancelCell>,
    /// How this request's outcome feeds the fingerprint's circuit
    /// breaker.
    breaker: BreakerRole,
    reply: mpsc::Sender<Result<ServeOutcome<T>, ServeError>>,
}

struct Inner<T: Scalar> {
    cfg: ServiceConfig,
    cache: PlanCache<T>,
    queue: BoundedQueue<Request<T>>,
    breakers: BreakerRegistry,
    /// Service birth; breaker timestamps are milliseconds since this.
    epoch: Instant,
    /// Estimated µs of solve work sitting in the queue (admission's
    /// queue-wait signal). Incremented on admit, decremented at dequeue.
    queued_cost_us: AtomicU64,
    requests: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    batched_rhs: AtomicU64,
    max_batch: AtomicU64,
    rejected: AtomicU64,
    offered: AtomicU64,
    admitted: AtomicU64,
    downgraded: AtomicU64,
    shed: AtomicU64,
    closed_rejected: AtomicU64,
    deadline_expired: AtomicU64,
    cancelled: AtomicU64,
    sessions_opened: AtomicU64,
    session_steps: AtomicU64,
    session_refreshes: AtomicU64,
    /// Monotonic source of [`SessionId`]s.
    next_session: AtomicU64,
}

/// Thread-safe, plan-caching, request-batching solve service. See the
/// module docs for the architecture.
pub struct SolveService<T: Scalar = f64> {
    inner: Arc<Inner<T>>,
    workers: Vec<JoinHandle<()>>,
}

impl<T: Scalar + Send + Sync + 'static> SolveService<T> {
    /// Starts the worker pool and returns the service handle. The handle
    /// is `Send + Sync`; share it across client threads directly or behind
    /// an `Arc`.
    pub fn new(cfg: ServiceConfig) -> Self {
        let workers = cfg.workers.max(1);
        let inner = Arc::new(Inner {
            cache: PlanCache::new(cfg.cache),
            queue: BoundedQueue::new(cfg.queue_capacity),
            breakers: BreakerRegistry::new(cfg.breaker),
            epoch: Instant::now(),
            queued_cost_us: AtomicU64::new(0),
            cfg,
            requests: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_rhs: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            offered: AtomicU64::new(0),
            admitted: AtomicU64::new(0),
            downgraded: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            closed_rejected: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            session_steps: AtomicU64::new(0),
            session_refreshes: AtomicU64::new(0),
            next_session: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        Self { inner, workers: handles }
    }

    /// The plan for `a`, built on this thread and cached if absent.
    /// Exactly one cache lookup is counted (a hit or a miss), so
    /// `hits + misses` always equals the number of requests.
    pub fn plan_for(&self, a: &CsrMatrix<T>) -> Result<Arc<SpcgPlan<T>>, ServeError> {
        let key = self.inner.key_for(a);
        self.inner.plan_for(key, a).map(|(plan, _)| plan)
    }

    /// Synchronous cached solve on the calling thread.
    pub fn solve(&self, a: &CsrMatrix<T>, b: &[T]) -> Result<ServeOutcome<T>, ServeError> {
        self.solve_probed(a, b, &mut spcg_probe::NoProbe)
    }

    /// [`solve`](SolveService::solve) with an observability [`Probe`]: the
    /// request is bracketed in `Span::ServeRequest` and cache traffic is
    /// reported through the `serve.cache.*` counters.
    pub fn solve_probed<P: Probe>(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        probe: &mut P,
    ) -> Result<ServeOutcome<T>, ServeError> {
        probe.span_begin(Span::ServeRequest);
        self.inner.requests.fetch_add(1, Ordering::Relaxed);
        let key = self.inner.key_for(a);
        let out = (|| {
            let (plan, cache_hit) = self.inner.plan_for(key, a)?;
            probe.counter(
                if cache_hit { Counter::ServeCacheHit } else { Counter::ServeCacheMiss },
                1,
            );
            let mut ws = plan.make_workspace();
            let stats = plan.solve_in_place(b, &mut ws, SolveCtx::probed(&mut *probe))?;
            let (result, report) = if matches!(stats.stop, StopReason::Breakdown(_)) {
                let rs =
                    plan.solve_resilient(b, &self.inner.cfg.resilience, &mut ws, &mut *probe)?;
                (rs.result, Some(rs.report))
            } else {
                (ws.to_result(stats), None)
            };
            Ok(ServeOutcome { result, report, cache_hit, batch_size: 1, tier: SolveTier::Full })
        })();
        self.inner.completed.fetch_add(1, Ordering::Relaxed);
        probe.span_end(Span::ServeRequest);
        out
    }

    /// The zero-allocation hot path: fingerprint, cache hit, and an
    /// in-place solve through the caller's workspace. Once the plan is
    /// cached and `ws` is warm, a call performs no heap allocation; the
    /// iterate is left in `ws.solution()`. A cache miss builds (and
    /// caches) the plan first — that cold path allocates, exactly once per
    /// fingerprint.
    pub fn solve_in_place(
        &self,
        a: &CsrMatrix<T>,
        b: &[T],
        ws: &mut SolveWorkspace<T>,
    ) -> Result<SolveStats, ServeError> {
        self.inner.requests.fetch_add(1, Ordering::Relaxed);
        let key = self.inner.key_for(a);
        let (plan, _) = self.inner.plan_for(key, a)?;
        let stats = plan.solve_in_place(b, ws, SolveCtx::default())?;
        self.inner.completed.fetch_add(1, Ordering::Relaxed);
        Ok(stats)
    }

    /// Queues a [`SolveRequest`] for the worker pool, blocking while the
    /// queue is full (a request carrying a [`RequestPolicy`] never blocks —
    /// admission control already sheds on occupancy).
    pub fn submit(&self, req: SolveRequest<T>) -> Result<Ticket<T>, ServeError> {
        self.submit_inner(req, false, &mut spcg_probe::NoProbe)
    }

    /// Non-blocking [`submit`](SolveService::submit): fails immediately
    /// with [`ServeError::QueueFull`] when the queue is at capacity. This
    /// is the backpressure edge — callers shed or retry.
    pub fn try_submit(&self, req: SolveRequest<T>) -> Result<Ticket<T>, ServeError> {
        self.submit_inner(req, true, &mut spcg_probe::NoProbe)
    }

    /// [`submit`](SolveService::submit) with an observability [`Probe`]:
    /// for policy-bearing requests the admission verdict is reported
    /// through [`Probe::admission`] as it is made.
    pub fn submit_probed<P: Probe>(
        &self,
        req: SolveRequest<T>,
        probe: &mut P,
    ) -> Result<Ticket<T>, ServeError> {
        self.submit_inner(req, false, probe)
    }

    fn submit_inner<P: Probe>(
        &self,
        req: SolveRequest<T>,
        bounded: bool,
        probe: &mut P,
    ) -> Result<Ticket<T>, ServeError> {
        match req.policy {
            Some(policy) => self.admit_and_enqueue(req.a, req.b, req.fault, policy, probe),
            None => self.enqueue(req.a, req.b, req.fault, bounded),
        }
    }

    /// The policy path: the admission controller prices the request
    /// against the gpusim cost model and current load, then **admits** it
    /// (possibly **downgraded** to a cheaper [`SolveTier`]) with an
    /// iteration-count watchdog budget, or **sheds** it with a typed
    /// [`ServeError::Shed`] before any work starts. Fingerprints
    /// quarantined by the circuit breaker are shed immediately.
    fn admit_and_enqueue<P: Probe>(
        &self,
        a: Arc<CsrMatrix<T>>,
        b: Vec<T>,
        fault: Option<FaultInjection>,
        policy: RequestPolicy,
        probe: &mut P,
    ) -> Result<Ticket<T>, ServeError> {
        let inner = &self.inner;
        inner.offered.fetch_add(1, Ordering::Relaxed);
        let base = inner.key_for(a.as_ref());
        let queue_depth = inner.queue.len();
        let report = |probe: &mut P, verdict: AdmissionVerdict, est_cost_us: f64| {
            probe.admission(AdmissionEvent {
                verdict,
                priority: policy.priority.tag(),
                queue_depth,
                est_cost_us,
            });
        };

        // Gate 0: the circuit breaker. An open fingerprint is refused
        // before pricing — the whole point is to stop spending on it. A
        // `Probe` decision claims the fingerprint's single half-open
        // slot, so every later bail-out on this path must release it
        // (`abort_probe`); a leaked slot would pin the breaker half-open
        // and quarantine the fingerprint permanently.
        let breaker_role = match inner.breakers.admit(&base, inner.now_ms()) {
            BreakerDecision::Quarantined { .. } => {
                inner.shed.fetch_add(1, Ordering::Relaxed);
                report(probe, AdmissionVerdict::Shed, 0.0);
                return Err(ServeError::Shed(ShedReason::Quarantined));
            }
            BreakerDecision::Probe => BreakerRole::Probe,
            BreakerDecision::Allow => BreakerRole::Report,
        };

        let costs = inner.tier_costs(&base, a.as_ref());
        let load = LoadSnapshot {
            queue_depth,
            queue_capacity: inner.cfg.queue_capacity,
            queued_cost_us: inner.queued_cost_us.load(Ordering::Relaxed) as f64,
            workers: inner.cfg.workers.max(1),
        };
        // The decision's iteration budget is advisory here: the worker
        // re-derives it from the wall clock at dequeue, so time actually
        // spent queued tightens the watchdog instead of being ignored.
        let tier = match decide(&policy, &load, &costs) {
            Admission::Shed(reason) => {
                if breaker_role == BreakerRole::Probe {
                    inner.breakers.abort_probe(&base, inner.now_ms());
                }
                inner.shed.fetch_add(1, Ordering::Relaxed);
                report(
                    probe,
                    AdmissionVerdict::Shed,
                    costs.at(SolveTier::Full).expected_total_us(),
                );
                return Err(ServeError::Shed(reason));
            }
            Admission::Admit { tier, .. } => tier,
        };

        let cost = costs.at(tier);
        let cost_us = cost.expected_total_us().max(0.0) as u64;
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(CancelCell::new(cost_us));
        let req = Request {
            key: base.with_tier(tier),
            a,
            b,
            fault,
            deadline: policy.deadline.map(|d| Instant::now() + d),
            per_iter_us: cost.per_iteration_us,
            cancel: Arc::clone(&cancel),
            breaker: breaker_role,
            reply: tx,
        };
        // Charge the queued-work gauge *before* the request becomes
        // visible: a worker that dequeues it subtracts the same amount,
        // and charging after `try_push` would let that subtract land
        // first, wrapping the unsigned gauge to ~u64::MAX and shedding
        // every deadline-bearing request as infeasible until the add
        // caught up.
        inner.queued_cost_us.fetch_add(cost_us, Ordering::Relaxed);
        match inner.queue.try_push(req) {
            Ok(()) => {
                inner.requests.fetch_add(1, Ordering::Relaxed);
                let (verdict, stat) = if tier == SolveTier::Full {
                    (AdmissionVerdict::Admitted, &inner.admitted)
                } else {
                    (AdmissionVerdict::Downgraded, &inner.downgraded)
                };
                stat.fetch_add(1, Ordering::Relaxed);
                report(probe, verdict, cost.expected_total_us());
                Ok(Ticket { rx, cancel, service: Arc::downgrade(inner) })
            }
            Err(e) => {
                inner.queued_cost_us.fetch_sub(cancel.take_charge(), Ordering::Relaxed);
                if breaker_role == BreakerRole::Probe {
                    inner.breakers.abort_probe(&base, inner.now_ms());
                }
                match e {
                    // The occupancy gate raced a filling queue: that is
                    // still an admission shed, kept inside the
                    // reconciliation invariant.
                    PushError::Full(_) => {
                        inner.shed.fetch_add(1, Ordering::Relaxed);
                        report(probe, AdmissionVerdict::Shed, cost.expected_total_us());
                        Err(ServeError::Shed(ShedReason::Occupancy))
                    }
                    // A closing queue is shutdown, not load: the caller
                    // sees `Closed`, so the request is tallied apart from
                    // `shed` (which counts only refusals the client
                    // observed as sheds) and no admission verdict is
                    // emitted — the controller said admit; the service
                    // lifecycle overrode it.
                    PushError::Closed(_) => {
                        inner.closed_rejected.fetch_add(1, Ordering::Relaxed);
                        Err(ServeError::Closed)
                    }
                }
            }
        }
    }

    fn enqueue(
        &self,
        a: Arc<CsrMatrix<T>>,
        b: Vec<T>,
        fault: Option<FaultInjection>,
        bounded: bool,
    ) -> Result<Ticket<T>, ServeError> {
        let key = self.inner.key_for(a.as_ref());
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(CancelCell::new(0));
        let req = Request {
            key,
            a,
            b,
            fault,
            deadline: None,
            per_iter_us: 0.0,
            cancel: Arc::clone(&cancel),
            breaker: BreakerRole::Off,
            reply: tx,
        };
        let pushed =
            if bounded { self.inner.queue.try_push(req) } else { self.inner.queue.push(req) };
        match pushed {
            Ok(()) => {
                self.inner.requests.fetch_add(1, Ordering::Relaxed);
                Ok(Ticket { rx, cancel, service: Arc::downgrade(&self.inner) })
            }
            Err(PushError::Full(_)) => {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::QueueFull)
            }
            Err(PushError::Closed(_)) => Err(ServeError::Closed),
        }
    }

    /// Aggregate counters. Once clients and workers are quiescent,
    /// `cache.hits + cache.misses` equals the number of accepted
    /// *plan-backed* requests — every such request performs exactly one
    /// counted cache lookup. Jacobi-tier requests never touch the plan
    /// cache, and `offered == admitted + downgraded + shed +
    /// closed_rejected` always holds for policy submissions (the
    /// reconciliation invariant; the last term is nonzero only during
    /// shutdown).
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            requests: self.inner.requests.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
            batched_rhs: self.inner.batched_rhs.load(Ordering::Relaxed),
            max_batch: self.inner.max_batch.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            offered: self.inner.offered.load(Ordering::Relaxed),
            admitted: self.inner.admitted.load(Ordering::Relaxed),
            downgraded: self.inner.downgraded.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            closed_rejected: self.inner.closed_rejected.load(Ordering::Relaxed),
            deadline_expired: self.inner.deadline_expired.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            sessions_opened: self.inner.sessions_opened.load(Ordering::Relaxed),
            session_steps: self.inner.session_steps.load(Ordering::Relaxed),
            session_refreshes: self.inner.session_refreshes.load(Ordering::Relaxed),
            breaker: self.inner.breakers.counters(),
            cache: self.inner.cache.stats(),
        }
    }

    /// Opens a sequence [`Session`] for the evolving system `a`: the plan
    /// comes from (or enters) the cache, and the session keeps a persistent
    /// workspace so later [`step`](Session::step)s warm-start from the
    /// previous solution. Counts one cache lookup like any plan-backed
    /// request.
    pub fn open_session(&self, a: &CsrMatrix<T>) -> Result<Session<T>, ServeError> {
        self.open_session_probed(a, &mut spcg_probe::NoProbe)
    }

    /// [`open_session`](SolveService::open_session) with an observability
    /// [`Probe`] (`serve.session.opened`, `serve.cache.*`).
    pub fn open_session_probed<P: Probe>(
        &self,
        a: &CsrMatrix<T>,
        probe: &mut P,
    ) -> Result<Session<T>, ServeError> {
        let key = self.inner.key_for(a);
        let (plan, cache_hit) = self.inner.plan_for(key, a)?;
        probe.counter(if cache_hit { Counter::ServeCacheHit } else { Counter::ServeCacheMiss }, 1);
        probe.counter(Counter::ServeSessionOpened, 1);
        self.inner.sessions_opened.fetch_add(1, Ordering::Relaxed);
        let ws = plan.make_workspace();
        let id = SessionId(self.inner.next_session.fetch_add(1, Ordering::Relaxed));
        Ok(Session { id, inner: Arc::clone(&self.inner), plan, ws, key })
    }

    /// Emits the service counters through the `serve.*` probe vocabulary.
    pub fn emit_counters<P: Probe>(&self, probe: &mut P) {
        let s = self.stats();
        self.inner.cache.emit_counters(probe);
        probe.counter(Counter::ServeBatches, s.batches);
        probe.counter(Counter::ServeBatchedRhs, s.batched_rhs);
        probe.counter(Counter::ServeRejected, s.rejected);
        probe.counter(Counter::ServeAdmitted, s.admitted);
        probe.counter(Counter::ServeDowngraded, s.downgraded);
        probe.counter(Counter::ServeShed, s.shed);
        probe.counter(Counter::ServeBreakerOpened, s.breaker.opened);
        probe.counter(Counter::ServeBreakerHalfOpen, s.breaker.half_opened);
        probe.counter(Counter::ServeBreakerClosed, s.breaker.closed);
        probe.counter(Counter::ServeBreakerRejected, s.breaker.rejected);
        probe.counter(Counter::ServeCancelled, s.cancelled);
        probe.counter(Counter::ServeSessionOpened, s.sessions_opened);
        probe.counter(Counter::ServeSessionStep, s.session_steps);
        probe.counter(Counter::ServeSessionRefresh, s.session_refreshes);
    }

    /// The circuit-breaker state for `a`'s fingerprint under this
    /// service's configuration (diagnostics and tests).
    pub fn breaker_state(&self, a: &CsrMatrix<T>) -> crate::breaker::BreakerState {
        self.inner.breakers.state(&self.inner.key_for(a))
    }

    /// The plan cache (diagnostics and tests).
    pub fn cache(&self) -> &PlanCache<T> {
        &self.inner.cache
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.cfg
    }
}

impl<T: Scalar> Drop for SolveService<T> {
    fn drop(&mut self) {
        self.inner.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<T: Scalar> std::fmt::Debug for SolveService<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveService")
            .field("workers", &self.workers.len())
            .field("cache", &self.inner.cache)
            .finish()
    }
}

/// Identifier of an open [`Session`], unique within its service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw numeric id.
    pub fn get(self) -> u64 {
        self.0
    }
}

/// A sequence of solves against one *evolving* system: the sparsity
/// structure is fixed at [`open_session`](SolveService::open_session) time,
/// the values may drift step to step (a time-varying PDE coefficient, a
/// Newton chain, a timestep-dependent shift).
///
/// Each [`step`](Session::step) compares the incoming matrix's
/// [`MatrixFingerprint`] against the session's current plan:
///
/// * **unchanged values** — the resident plan is reused verbatim; the step
///   is allocation-free end to end (fingerprint, warm PCG through the
///   session workspace);
/// * **drifted values** — the plan cache is consulted under the new value
///   digest (another session over the same trajectory may already have
///   paid the refresh); on a miss, [`SpcgPlan::refresh_values`] re-runs
///   *only* the numeric factorization over the cached analysis and the
///   refreshed plan is cached for value twins;
/// * **changed structure** — the step is refused; open a new session.
///
/// Every step warm-starts PCG from the previous step's solution
/// ([`SpcgPlan::solve_in_place`] with `SolveCtx::warm`), which is where
/// the iteration savings on slowly-drifting sequences come from. The
/// session is single-threaded by design (`&mut self`); concurrency comes
/// from opening one session per trajectory, with the plan cache sharing
/// refreshed plans across them.
pub struct Session<T: Scalar> {
    id: SessionId,
    inner: Arc<Inner<T>>,
    plan: Arc<SpcgPlan<T>>,
    ws: SolveWorkspace<T>,
    /// Cache key of the *current* plan; `key.fp` carries the structure
    /// digest every step must match and the value digest of the values the
    /// resident plan was factored from.
    key: PlanKey,
}

impl<T: Scalar + Send + Sync + 'static> Session<T> {
    /// This session's identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// The plan currently backing the session (diagnostics and tests).
    pub fn plan(&self) -> &Arc<SpcgPlan<T>> {
        &self.plan
    }

    /// The solution of the most recent [`step`](Session::step) — also the
    /// warm-start seed of the next one. All zeros before the first step.
    pub fn solution(&self) -> &[T] {
        self.ws.solution()
    }

    /// Solves `a x = b` for the current values `a`, reusing or refreshing
    /// the session plan as the value digest dictates and warm-starting from
    /// the previous step's solution. The iterate is left in
    /// [`solution`](Session::solution); the returned stats say how far the
    /// warm start got (`iterations == 0` means the previous solution
    /// already met the tolerance).
    pub fn step(&mut self, a: &CsrMatrix<T>, b: &[T]) -> Result<SolveStats, ServeError> {
        self.step_probed(a, b, &mut spcg_probe::NoProbe)
    }

    /// [`step`](Session::step) with an observability [`Probe`]: steps count
    /// as `serve.session.step`, value-drift refreshes as
    /// `serve.session.refresh` (plus the `plan.refresh` span emitted by
    /// [`SpcgPlan::refresh_values`] itself), and drift-path cache traffic
    /// through `serve.cache.*`.
    pub fn step_probed<P: Probe>(
        &mut self,
        a: &CsrMatrix<T>,
        b: &[T],
        probe: &mut P,
    ) -> Result<SolveStats, ServeError> {
        let fp = MatrixFingerprint::of(a);
        if !fp.same_structure(&self.key.fp) {
            return Err(ServeError::PlanBuild(SparseError::InvalidStructure(format!(
                "session {} is pinned to structure {:016x} ({} rows, {} nnz); step got \
                 {:016x} ({} rows, {} nnz) — open a new session for a new structure",
                self.id.get(),
                self.key.fp.structure,
                self.key.fp.n_rows,
                self.key.fp.nnz,
                fp.structure,
                fp.n_rows,
                fp.nnz,
            ))));
        }
        if fp != self.key.fp {
            let key = PlanKey { fp, ..self.key };
            let plan = match self.inner.cache.get(&key) {
                Some(plan) => {
                    probe.counter(Counter::ServeCacheHit, 1);
                    plan
                }
                None => {
                    probe.counter(Counter::ServeCacheMiss, 1);
                    let refreshed = Arc::new(
                        self.plan.refresh_values_probed(a, probe).map_err(ServeError::PlanBuild)?,
                    );
                    probe.counter(Counter::ServeSessionRefresh, 1);
                    self.inner.session_refreshes.fetch_add(1, Ordering::Relaxed);
                    self.inner.cache.insert(key, Arc::clone(&refreshed));
                    refreshed
                }
            };
            self.plan = plan;
            self.key = key;
        }
        probe.counter(Counter::ServeSessionStep, 1);
        self.inner.session_steps.fetch_add(1, Ordering::Relaxed);
        let ctx = SolveCtx { warm: true, ..SolveCtx::probed(probe) };
        Ok(self.plan.solve_in_place(b, &mut self.ws, ctx)?)
    }
}

impl<T: Scalar> std::fmt::Debug for Session<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("id", &self.id).field("key", &self.key).finish()
    }
}

impl<T: Scalar> Inner<T> {
    /// The cache key for `a` under this service's configured ordering and
    /// precision policy: services with different `options.ordering` or
    /// `options.precision` build different plans from the same bytes, and
    /// the key keeps those value twins apart.
    fn key_for(&self, a: &CsrMatrix<T>) -> PlanKey {
        PlanKey::of(a, self.cfg.options.ordering, self.cfg.options.precision)
            .with_exec(self.cfg.options.exec)
            .with_precond(self.cfg.options.precond)
    }

    /// Milliseconds since service start — the breaker timebase.
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Pipeline options for plans built at `tier`. `Full` is the
    /// configured pipeline; `Light` strips the expensive analysis
    /// (sparsify pass, non-natural ordering, fill levels, the `Auto`
    /// kind search with its probe solves) down to plain ILU(0). `Jacobi`
    /// builds no plan at all and never reaches here.
    fn options_for_tier(&self, tier: SolveTier) -> SpcgOptions {
        match tier {
            SolveTier::Light => self
                .cfg
                .options
                .clone()
                .with_sparsify(None)
                .with_ilu_fill(IluFill::Ilu0)
                .with_precond(PrecondKind::IluSparsified)
                .with_ordering(OrderingKind::Natural),
            _ => self.cfg.options.clone(),
        }
    }

    /// Expected PCG iteration counts per tier for an `n`-row system.
    /// √n tracks CG's √κ(A) on the 2D-grid family the service is
    /// benchmarked on; the diagonal preconditioner is weaker than ILU by
    /// roughly the paper's observed 3× on the same family.
    fn expected_iterations(n: usize) -> (usize, usize) {
        let ilu = (n as f64).sqrt().ceil().max(1.0) as usize;
        (ilu, ilu.saturating_mul(3))
    }

    /// Admission's per-tier price table for one request. A cached plan is
    /// priced exactly ([`plan_iteration_cost`]) with zero build cost; an
    /// absent plan is priced from structure alone
    /// ([`estimate_from_structure`]). Pricing uses [`PlanCache::peek`], so
    /// a request that is subsequently shed leaves no trace in the cache
    /// tallies or LRU order.
    fn tier_costs(&self, base: &PlanKey, a: &CsrMatrix<T>) -> TierCosts {
        let device = &self.cfg.device;
        let (n, nnz) = (a.n_rows(), a.nnz());
        let vb = value_bytes_of::<T>();
        let (ilu_iters, jacobi_iters) = Self::expected_iterations(n);
        let est = estimate_from_structure(device, n, nnz, vb);

        let priced = |key: &PlanKey, build_us: f64| match self.cache.peek(key) {
            Some(plan) => TierCost {
                build_us: 0.0,
                per_iteration_us: plan_iteration_cost(device, &plan).total_us(),
                expected_iterations: ilu_iters,
            },
            None => TierCost {
                build_us,
                per_iteration_us: est.per_iteration_us,
                expected_iterations: ilu_iters,
            },
        };
        let full = priced(base, est.build_us);
        // Light skips the sparsify scan; the rest of the build estimate
        // (inspector + numeric factorization) stands.
        let light = priced(
            &base.with_tier(SolveTier::Light),
            (est.build_us - spcg_gpusim::sparsify_cost_us(nnz)).max(0.0),
        );
        // Jacobi: SpMV + diagonal scale + BLAS-1 per iteration, one
        // diagonal-extraction pass to build, no trisolves anywhere.
        let spmv_us = spmv_cost(device, a).time_us;
        let diag_us = elementwise_cost::<T>(device, n, 3.0).time_us;
        let blas_us = 2.0 * dot_cost::<T>(device, n).time_us
            + 3.0 * elementwise_cost::<T>(device, n, 3.0).time_us;
        let jacobi = TierCost {
            build_us: elementwise_cost::<T>(device, n, 2.0).time_us,
            per_iteration_us: spmv_us + diag_us + blas_us,
            expected_iterations: jacobi_iters,
        };
        TierCosts { full, light, jacobi }
    }

    /// Cache lookup, building and inserting on a miss. Exactly one lookup
    /// is counted per call. Two threads racing the same cold key may both
    /// build; both results are numerically identical (the whole pipeline
    /// is deterministic), the second insert wins, and correctness is
    /// unaffected — the duplicate work is bounded by the race. The key's
    /// tier selects the build options, so a degraded key builds (and
    /// caches) the cheaper plan.
    fn plan_for(
        &self,
        key: PlanKey,
        a: &CsrMatrix<T>,
    ) -> Result<(Arc<SpcgPlan<T>>, bool), ServeError> {
        if let Some(plan) = self.cache.get(&key) {
            return Ok((plan, true));
        }
        let opts = self.options_for_tier(key.tier);
        let plan = Arc::new(SpcgPlan::build(a, &opts).map_err(ServeError::PlanBuild)?);
        self.cache.insert(key, Arc::clone(&plan));
        Ok((plan, false))
    }

    /// Solves one right-hand side: planned path first (under the
    /// iteration-count watchdog), resilient ladder on breakdown (or
    /// straight to the ladder when a fault is injected). The watchdog
    /// applies to the planned attempt; a ladder recovery runs to
    /// completion — it is already the degraded path, and killing it would
    /// waste the planned iterations it salvages.
    fn solve_one(
        &self,
        plan: &SpcgPlan<T>,
        b: &[T],
        fault: Option<FaultInjection>,
        deadline_iters: usize,
        ws: &mut SolveWorkspace<T>,
    ) -> Result<(SolveResult<T>, Option<spcg_core::RecoveryReport>), ServeError> {
        if let Some(fault) = fault {
            let ropts = ResilienceOptions { fault: Some(fault), ..self.cfg.resilience.clone() };
            let rs = plan.solve_resilient(b, &ropts, ws, NoProbe)?;
            return Ok((rs.result, Some(rs.report)));
        }
        let stats =
            plan.solve_in_place(b, ws, SolveCtx { deadline_iters, ..SolveCtx::default() })?;
        if matches!(stats.stop, StopReason::Breakdown(_)) {
            let rs = plan.solve_resilient(b, &self.cfg.resilience, ws, NoProbe)?;
            return Ok((rs.result, Some(rs.report)));
        }
        Ok((ws.to_result(stats), None))
    }

    /// Reports one policy request's outcome to its fingerprint's breaker.
    /// Success = a converged result (ladder recoveries included); failure
    /// = an unconverged final answer or a deadline blown *mid-solve*. A
    /// deadline that expired with zero iterations run — spent entirely in
    /// the queue, or admitted with a zero budget — says nothing about the
    /// matrix (it is a load problem, not a fingerprint problem), so it is
    /// **neutral**: no failure is recorded, and if this request held the
    /// half-open probe slot the slot is released instead of leaked.
    fn record_breaker_outcome(
        &self,
        req_key: &PlanKey,
        role: BreakerRole,
        outcome: &Result<ServeOutcome<T>, ServeError>,
    ) {
        if role == BreakerRole::Off {
            return;
        }
        let base = req_key.with_tier(SolveTier::Full);
        match outcome {
            Ok(out) if out.result.converged() => self.breakers.record_success(&base),
            // A cancellation, like a queue-expired deadline, says nothing
            // about the matrix: neutral, and a held probe slot is
            // released instead of leaked.
            Err(ServeError::Cancelled)
            | Err(ServeError::Solver(SolverError::DeadlineExceeded { iterations: 0, .. })) => {
                if role == BreakerRole::Probe {
                    self.breakers.abort_probe(&base, self.now_ms());
                }
            }
            _ => self.breakers.record_failure(&base, self.now_ms()),
        }
    }
}

/// One worker: pop a request, wait out the admission window, coalesce every
/// same-fingerprint request still queued, solve the batch sequentially
/// through one reused workspace, reply per request.
///
/// The batch is solved on *this* thread on purpose: pool-level parallelism
/// comes from running many workers, and keeping each batch single-threaded
/// makes worker count the only parallelism knob (no nested fan-out
/// oversubscribing the machine) while preserving bitwise-identical results.
fn worker_loop<T: Scalar + Send + Sync>(inner: &Inner<T>) {
    while let Some(first) = inner.queue.pop() {
        if inner.cfg.batch_limit > 1 && !inner.cfg.batch_window.is_zero() {
            std::thread::sleep(inner.cfg.batch_window);
        }
        let key = first.key;
        let mut batch = vec![first];
        if inner.cfg.batch_limit > 1 {
            batch.extend(
                inner.queue.drain_matching(|r| r.key == key, inner.cfg.batch_limit - batch.len()),
            );
        }
        // The queued-work gauge sheds this batch the moment it leaves the
        // queue — admission must not double-count work a worker already
        // owns. `take_charge` is exactly-once against a racing
        // `Ticket::cancel`: a cancelled request whose charge was already
        // released contributes zero here.
        let batch_cost: u64 = batch.iter().map(|r| r.cancel.take_charge()).sum();
        if batch_cost > 0 {
            inner.queued_cost_us.fetch_sub(batch_cost, Ordering::Relaxed);
        }
        let size = batch.len();
        inner.batches.fetch_add(1, Ordering::Relaxed);
        inner.max_batch.fetch_max(size as u64, Ordering::Relaxed);
        if size > 1 {
            inner.batched_rhs.fetch_add(size as u64, Ordering::Relaxed);
        }

        if key.tier == SolveTier::Jacobi {
            serve_jacobi_batch(inner, batch, size);
            continue;
        }

        // One counted cache lookup per request in the batch: the leader
        // resolves (or builds) the plan, coalesced followers re-look it up
        // — by then resident, so they tally as the cache hits they
        // logically are, and `hits + misses` keeps equaling plan-backed
        // requests.
        let leader = inner.plan_for(key, batch[0].a.as_ref());
        let (plan, leader_hit) = match leader {
            Ok(pair) => pair,
            Err(e) => {
                for req in batch {
                    inner.record_breaker_outcome(&req.key, req.breaker, &Err(e.clone()));
                    // Count before replying: a client that sees the reply
                    // must also see the request as completed in stats.
                    inner.completed.fetch_add(1, Ordering::Relaxed);
                    let _ = req.reply.send(Err(e.clone()));
                }
                continue;
            }
        };

        let mut ws = plan.make_workspace();
        for (i, req) in batch.into_iter().enumerate() {
            let cache_hit = if i == 0 { leader_hit } else { inner.cache.get(&key).is_some() };
            let reply = if cancelled(inner, &req) {
                Err(ServeError::Cancelled)
            } else {
                match deadline_budget(&req) {
                    None => Err(expired_in_queue(inner)),
                    Some(budget) => inner.solve_one(&plan, &req.b, req.fault, budget, &mut ws).map(
                        |(result, report)| ServeOutcome {
                            result,
                            report,
                            cache_hit,
                            batch_size: size,
                            tier: req.key.tier,
                        },
                    ),
                }
            };
            inner.record_breaker_outcome(&req.key, req.breaker, &reply);
            // Count before replying (see the error branch above).
            inner.completed.fetch_add(1, Ordering::Relaxed);
            let _ = req.reply.send(reply);
        }
    }
}

/// `true` when `req`'s ticket cancelled it while it sat in the queue; also
/// tallies the cancellation (the stat counts requests actually skipped, not
/// `cancel` calls that lost the race to a worker).
fn cancelled<T: Scalar>(inner: &Inner<T>, req: &Request<T>) -> bool {
    let hit = req.cancel.cancelled.load(Ordering::Acquire);
    if hit {
        inner.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// The iteration budget left for `req` at this instant, or `None` when its
/// deadline already passed in the queue — the caller answers with a typed
/// error instead of starting a doomed solve.
fn deadline_budget<T: Scalar>(req: &Request<T>) -> Option<usize> {
    match req.deadline {
        None => Some(usize::MAX),
        Some(deadline) => {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let remaining_us = deadline.duration_since(now).as_secs_f64() * 1e6;
            Some(iteration_budget(remaining_us, req.per_iter_us))
        }
    }
}

/// The typed reply for a request whose deadline expired while queued: zero
/// iterations were spent and no residual was ever computed.
fn expired_in_queue<T: Scalar>(inner: &Inner<T>) -> ServeError {
    inner.deadline_expired.fetch_add(1, Ordering::Relaxed);
    ServeError::Solver(SolverError::DeadlineExceeded {
        best_residual: f64::INFINITY,
        iterations: 0,
    })
}

/// Serves one coalesced batch at the Jacobi tier: no plan, no cache entry
/// — a diagonal preconditioner built on the spot and plain PCG per
/// right-hand side, still under the per-request watchdog.
fn serve_jacobi_batch<T: Scalar + Send + Sync>(
    inner: &Inner<T>,
    batch: Vec<Request<T>>,
    size: usize,
) {
    let a = Arc::clone(&batch[0].a);
    let precond = match JacobiPreconditioner::new(a.as_ref()) {
        Ok(p) => p,
        Err(e) => {
            for req in batch {
                let err = ServeError::PlanBuild(e.clone());
                inner.record_breaker_outcome(&req.key, req.breaker, &Err(err.clone()));
                inner.completed.fetch_add(1, Ordering::Relaxed);
                let _ = req.reply.send(Err(err));
            }
            return;
        }
    };
    let mut ws = SolveWorkspace::for_preconditioner(a.n_rows(), &precond);
    for req in batch {
        let reply = if cancelled(inner, &req) {
            Err(ServeError::Cancelled)
        } else {
            match deadline_budget(&req) {
                None => Err(expired_in_queue(inner)),
                Some(deadline_iters) => {
                    let config = &inner.cfg.options.solver;
                    let ctx = SolveCtx { deadline_iters, ..SolveCtx::default() };
                    pcg_in_place(a.as_ref(), &precond, &req.b, config, &mut ws, ctx)
                        .map(|stats| ServeOutcome {
                            result: ws.to_result(stats),
                            report: None,
                            cache_hit: false,
                            batch_size: size,
                            tier: SolveTier::Jacobi,
                        })
                        .map_err(ServeError::from)
                }
            }
        };
        inner.record_breaker_outcome(&req.key, req.breaker, &reply);
        inner.completed.fetch_add(1, Ordering::Relaxed);
        let _ = req.reply.send(reply);
    }
}

#[allow(unused)]
fn _assert_service_is_sync<T: Scalar + Send + Sync + 'static>() {
    fn assert_sync<S: Send + Sync>() {}
    assert_sync::<SolveService<T>>();
    assert_sync::<Arc<SpcgPlan<T>>>();
}
