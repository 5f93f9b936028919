//! Concurrency stress: many client threads hammer one service with
//! interleaved systems and injected faults, and every answer must be
//! **bitwise identical** to the single-threaded solve of the same request —
//! no matter which worker ran it, what batch it rode in, or what its
//! batchmates did. The run completing at all is the no-deadlock assertion
//! (belt-and-braces: the whole exchange runs under a watchdog), and the
//! cache counters must reconcile exactly afterwards.

use spcg_core::{FaultInjection, ResilienceOptions, SpcgOptions, SpcgPlan};
use spcg_probe::NoProbe;
use spcg_serve::{
    BreakerConfig, BreakerState, CacheConfig, Priority, RequestPolicy, ServeError, ServiceConfig,
    ShedReason, SolveRequest, SolveService, SolveTier,
};
use spcg_solver::{SolverConfig, SolverError};
use spcg_sparse::generators::{layered_poisson_2d, poisson_2d, with_magnitude_spread};
use spcg_sparse::{CsrMatrix, Rng};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const CLIENTS: usize = 8;
const PER_CLIENT: usize = 8;

fn matrices() -> Vec<Arc<CsrMatrix<f64>>> {
    vec![
        Arc::new(with_magnitude_spread(&poisson_2d(14, 14), 5.0, 3)),
        Arc::new(with_magnitude_spread(&layered_poisson_2d(12, 12, 4, 0.015), 1.0, 5)),
        Arc::new(with_magnitude_spread(&poisson_2d(12, 15), 4.0, 9)),
    ]
}

fn options() -> SpcgOptions {
    SpcgOptions {
        solver: SolverConfig::default().with_tol(1e-10).with_history(true),
        ..SpcgOptions::default()
    }
}

fn matrix_index(client: usize, i: usize, count: usize) -> usize {
    (client + i) % count
}

/// Every 5th request of clients 0 and 3 carries a NaN injection: its solve
/// breaks down at iteration 2 and must recover through the ladder.
fn fault_for(client: usize, i: usize) -> Option<FaultInjection> {
    ((client == 0 || client == 3) && i % 5 == 2).then(|| FaultInjection::nan_at(2))
}

fn rhs_for(n: usize, client: usize, i: usize) -> Vec<f64> {
    let mut rng = Rng::new(1000 + (client * 131 + i) as u64);
    (0..n).map(|_| rng.range(-1.0, 1.0)).collect()
}

#[test]
fn hammered_service_is_bitwise_identical_and_reconciles() {
    let mats = matrices();
    let opts = options();

    // Single-threaded golden answers, computed before the service exists.
    let plans: Vec<SpcgPlan<f64>> =
        mats.iter().map(|m| SpcgPlan::build(m, &opts).unwrap()).collect();
    let golden: Vec<Vec<Vec<f64>>> = (0..CLIENTS)
        .map(|client| {
            (0..PER_CLIENT)
                .map(|i| {
                    let m = matrix_index(client, i, mats.len());
                    let b = rhs_for(mats[m].n_rows(), client, i);
                    match fault_for(client, i) {
                        None => plans[m].solve(&b).unwrap().x,
                        Some(fault) => {
                            let ropts = ResilienceOptions {
                                fault: Some(fault),
                                ..ResilienceOptions::default()
                            };
                            let mut ws = plans[m].make_workspace();
                            let rs = plans[m].solve_resilient(&b, &ropts, &mut ws, NoProbe);
                            let rs = rs.unwrap();
                            assert!(!rs.report.clean(), "fault must force a recovery");
                            rs.result.x
                        }
                    }
                })
                .collect()
        })
        .collect();

    // Watchdog: the hammering runs on its own thread; a deadlock anywhere
    // (queue, cache shard, worker pool) trips the timeout instead of
    // hanging the suite.
    let (done_tx, done_rx) = mpsc::channel();
    let mats2 = mats.clone();
    let golden = Arc::new(golden);
    let golden2 = Arc::clone(&golden);
    let opts2 = opts.clone();
    let hammer = std::thread::spawn(move || {
        let service = SolveService::new(ServiceConfig {
            workers: 4,
            queue_capacity: 16,
            batch_window: Duration::from_micros(100),
            batch_limit: 8,
            cache: CacheConfig { shards: 2, capacity: 8, byte_budget: 64 << 20 },
            options: opts2,
            ..ServiceConfig::default()
        });
        std::thread::scope(|s| {
            for client in 0..CLIENTS {
                let service = &service;
                let mats = &mats2;
                let golden = &golden2;
                s.spawn(move || {
                    let mut tickets = Vec::new();
                    for i in 0..PER_CLIENT {
                        let m = matrix_index(client, i, mats.len());
                        let b = rhs_for(mats[m].n_rows(), client, i);
                        let req = SolveRequest::new(Arc::clone(&mats[m]), b);
                        let ticket = match fault_for(client, i) {
                            None => service.submit(req),
                            Some(f) => service.submit(req.fault(f)),
                        };
                        tickets.push((i, ticket.expect("queue accepts while service lives")));
                    }
                    for (i, ticket) in tickets {
                        let out = ticket.wait().expect("request completes");
                        assert!(out.result.converged(), "client {client} req {i} did not converge");
                        assert_eq!(
                            out.result.x, golden[client][i],
                            "client {client} req {i}: served result diverged bitwise \
                             from the single-threaded solve"
                        );
                        assert_eq!(out.report.is_some(), fault_for(client, i).is_some());
                    }
                });
            }
        });
        let stats = service.stats();
        done_tx.send(stats).unwrap();
    });

    let stats = done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("stress run deadlocked (watchdog fired)");
    hammer.join().unwrap();

    let requests = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(stats.requests, requests);
    assert_eq!(stats.completed, requests, "every accepted request must be answered");
    assert_eq!(
        stats.cache.hits + stats.cache.misses,
        requests,
        "cache counters must reconcile: hits {} + misses {} != requests {requests}",
        stats.cache.hits,
        stats.cache.misses
    );
    assert_eq!(stats.rejected, 0, "blocking submit never rejects");
    assert!(stats.cache.entries <= 8, "cache capacity respected under load");
}

#[test]
fn backpressure_rejects_then_recovers() {
    let mats = matrices();
    let opts = options();
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 1,
        // A long admission window keeps the single worker parked after its
        // first pop, so the 1-slot queue observably fills.
        batch_window: Duration::from_millis(100),
        batch_limit: 2,
        options: opts,
        ..ServiceConfig::default()
    });
    let b = rhs_for(mats[0].n_rows(), 0, 0);

    let mut tickets = Vec::new();
    let mut rejected = 0;
    // Push until the queue bounces: with the worker asleep in its window,
    // at most 1 (in flight) + 1 (queued) are accepted.
    for _ in 0..8 {
        match service.try_submit(SolveRequest::new(Arc::clone(&mats[0]), b.clone())) {
            Ok(t) => tickets.push(t),
            Err(spcg_serve::ServeError::QueueFull) => rejected += 1,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected > 0, "bounded queue must shed load under pressure");
    assert!(!tickets.is_empty());
    for t in tickets {
        assert!(t.wait().unwrap().result.converged());
    }
    let stats = service.stats();
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.cache.hits + stats.cache.misses, stats.requests);

    // Once drained, the service accepts work again.
    let t = service.try_submit(SolveRequest::new(Arc::clone(&mats[0]), b)).unwrap();
    assert!(t.wait().unwrap().result.converged());
}

#[test]
fn policy_submission_without_deadline_serves_full_tier() {
    let mats = matrices();
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        batch_window: Duration::ZERO,
        options: options(),
        ..ServiceConfig::default()
    });
    let b = rhs_for(mats[0].n_rows(), 0, 0);
    let t = service
        .submit(SolveRequest::new(Arc::clone(&mats[0]), b.clone()).policy(RequestPolicy::default()))
        .expect("idle service admits");
    let out = t.wait().unwrap();
    assert!(out.result.converged());
    assert_eq!(out.tier, SolveTier::Full, "no deadline means no degradation");
    // Same numerics as the legacy path.
    let golden = service.solve(&mats[0], &b).unwrap();
    assert_eq!(out.result.x, golden.result.x);
    let stats = service.stats();
    assert_eq!((stats.offered, stats.admitted, stats.downgraded, stats.shed), (1, 1, 0, 0));
    assert_eq!(stats.offered, stats.admitted + stats.downgraded + stats.shed);
}

#[test]
fn expired_deadline_yields_typed_error_without_solving() {
    let mats = matrices();
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        batch_window: Duration::ZERO,
        options: options(),
        ..ServiceConfig::default()
    });
    let b = rhs_for(mats[0].n_rows(), 0, 0);
    // A nanosecond deadline is infeasible at every tier; High priority is
    // still admitted at its quality floor rather than shed, and the worker
    // finds the deadline long gone by dequeue time.
    let policy = RequestPolicy::default()
        .with_priority(Priority::High)
        .with_deadline(Duration::from_nanos(1));
    let t = service
        .submit(SolveRequest::new(Arc::clone(&mats[0]), b).policy(policy))
        .expect("High is admitted");
    match t.wait() {
        Err(ServeError::Solver(SolverError::DeadlineExceeded { iterations, .. })) => {
            assert_eq!(iterations, 0, "expired in queue: no iterations were spent");
        }
        other => panic!("expected a typed DeadlineExceeded, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.offered, stats.admitted + stats.downgraded + stats.shed);
}

#[test]
fn occupancy_sheds_strictly_by_priority() {
    let mats = matrices();
    // One worker parked in a long admission window, so the queue depth we
    // create stays put while the policy submissions are judged.
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        batch_window: Duration::from_millis(500),
        batch_limit: 2,
        options: options(),
        ..ServiceConfig::default()
    });
    let b = rhs_for(mats[0].n_rows(), 0, 0);
    // Occupy the worker, then fill the queue to 50%.
    let parked = service.submit(SolveRequest::new(Arc::clone(&mats[0]), b.clone())).unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the worker pop it
    let queued: Vec<_> = (0..2)
        .map(|_| service.submit(SolveRequest::new(Arc::clone(&mats[0]), b.clone())).unwrap())
        .collect();

    let submit = |pri: Priority| {
        service.submit(
            SolveRequest::new(Arc::clone(&mats[0]), b.clone())
                .policy(RequestPolicy::default().with_priority(pri)),
        )
    };
    // At 50% occupancy Low is shed while Normal and High are admitted —
    // the nested-threshold guarantee.
    let low = submit(Priority::Low);
    assert!(
        matches!(low, Err(ServeError::Shed(ShedReason::Occupancy))),
        "Low must shed at 50% occupancy, got {low:?}"
    );
    let normal = submit(Priority::Normal).expect("Normal admitted at 50%");
    let high = submit(Priority::High).expect("High admitted at 50%");

    for t in queued.into_iter().chain([parked, normal, high]) {
        assert!(t.wait().unwrap().result.converged());
    }
    let stats = service.stats();
    assert_eq!((stats.offered, stats.shed), (3, 1));
    assert_eq!(stats.offered, stats.admitted + stats.downgraded + stats.shed);
}

#[test]
fn breaker_quarantines_a_failing_fingerprint() {
    let mats = matrices();
    // A solver that can never converge: every request fails, tripping the
    // fingerprint's breaker after two consecutive failures.
    let opts = SpcgOptions {
        solver: SolverConfig::default().with_tol(1e-300).with_max_iters(2),
        ..SpcgOptions::default()
    };
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        batch_window: Duration::ZERO,
        batch_limit: 1,
        options: opts,
        breaker: BreakerConfig {
            failure_threshold: 2,
            base_backoff_ms: 60_000,
            max_backoff_ms: 60_000,
        },
        ..ServiceConfig::default()
    });
    let b = rhs_for(mats[0].n_rows(), 0, 0);
    for i in 0..2 {
        let t = service
            .submit(
                SolveRequest::new(Arc::clone(&mats[0]), b.clone()).policy(RequestPolicy::default()),
            )
            .unwrap_or_else(|e| panic!("request {i} admitted before the trip, got {e}"));
        let out = t.wait().expect("non-convergence is a result, not an error");
        assert!(!out.result.converged());
    }
    // Third request: quarantined before any work starts.
    let refused = service.submit(
        SolveRequest::new(Arc::clone(&mats[0]), b.clone()).policy(RequestPolicy::default()),
    );
    assert!(
        matches!(refused, Err(ServeError::Shed(ShedReason::Quarantined))),
        "expected quarantine, got {refused:?}"
    );
    let before = service.stats();
    // Quarantined retries stop consuming worker time: completed stays put.
    for _ in 0..5 {
        let r = service.submit(
            SolveRequest::new(Arc::clone(&mats[0]), b.clone()).policy(RequestPolicy::default()),
        );
        assert!(matches!(r, Err(ServeError::Shed(ShedReason::Quarantined))));
    }
    let after = service.stats();
    assert_eq!(after.completed, before.completed, "quarantined requests must not reach workers");
    assert_eq!(after.breaker.opened, 1);
    assert!(after.breaker.rejected >= 6);
    assert_eq!(after.offered, after.admitted + after.downgraded + after.shed);
}

/// A probe request shed *after* the breaker granted its half-open slot
/// must hand the slot back: the admission gates run downstream of the
/// breaker gate, and a leaked slot would pin the breaker half-open —
/// every later request for the fingerprint rejected with
/// `retry_in_ms: 0`, forever.
#[test]
fn shed_probe_releases_the_half_open_slot() {
    let mats = matrices();
    // A solver that can never converge, so the breaker trips on demand.
    let opts = SpcgOptions {
        solver: SolverConfig::default().with_tol(1e-300).with_max_iters(2),
        ..SpcgOptions::default()
    };
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 4,
        batch_window: Duration::from_millis(300),
        batch_limit: 2,
        options: opts,
        breaker: BreakerConfig { failure_threshold: 1, base_backoff_ms: 50, max_backoff_ms: 50 },
        ..ServiceConfig::default()
    });
    let b = rhs_for(mats[0].n_rows(), 0, 0);

    // Trip the breaker: one failure suffices at threshold 1.
    let t = service
        .submit(SolveRequest::new(Arc::clone(&mats[0]), b.clone()).policy(RequestPolicy::default()))
        .expect("closed breaker admits");
    assert!(!t.wait().unwrap().result.converged());
    assert!(matches!(service.breaker_state(&mats[0]), BreakerState::Open { .. }));
    std::thread::sleep(Duration::from_millis(80)); // backoff expires

    // Park the worker on a different fingerprint, then hold the queue at
    // 50% occupancy — Low priority's shed ceiling.
    let parked = service
        .submit(SolveRequest::new(Arc::clone(&mats[1]), rhs_for(mats[1].n_rows(), 1, 0)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50)); // worker pops it, sleeps its window
    let fillers: Vec<_> = (0..2)
        .map(|i| {
            service
                .submit(SolveRequest::new(Arc::clone(&mats[2]), rhs_for(mats[2].n_rows(), 2, i)))
                .unwrap()
        })
        .collect();

    // The quarantined fingerprint's next request claims the probe slot at
    // the breaker gate, then the occupancy gate sheds it before it is
    // queued.
    let refused = service.submit(
        SolveRequest::new(Arc::clone(&mats[0]), b.clone())
            .policy(RequestPolicy::default().with_priority(Priority::Low)),
    );
    assert!(
        matches!(refused, Err(ServeError::Shed(ShedReason::Occupancy))),
        "Low must shed at 50% occupancy, got {refused:?}"
    );
    assert!(
        matches!(service.breaker_state(&mats[0]), BreakerState::Open { .. }),
        "shed probe left the breaker half-open: the slot leaked"
    );

    // Drain the queue and wait out the (un-doubled) backoff: the next
    // request gets the probe slot and is admitted, not quarantined.
    for t in fillers.into_iter().chain([parked]) {
        t.wait().expect("queued request resolves");
    }
    std::thread::sleep(Duration::from_millis(80));
    let probe = service
        .submit(SolveRequest::new(Arc::clone(&mats[0]), b).policy(RequestPolicy::default()))
        .expect("released probe slot re-admits after the backoff");
    assert!(!probe.wait().unwrap().result.converged());
}

/// A deadline that expires with zero iterations run is a load problem,
/// not a matrix problem: it must not count as a breaker failure (at
/// threshold 1 it would quarantine a perfectly healthy fingerprint).
#[test]
fn queue_expired_deadline_is_neutral_to_the_breaker() {
    let mats = matrices();
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        batch_window: Duration::ZERO,
        options: options(),
        breaker: BreakerConfig {
            failure_threshold: 1,
            base_backoff_ms: 60_000,
            max_backoff_ms: 60_000,
        },
        ..ServiceConfig::default()
    });
    let b = rhs_for(mats[0].n_rows(), 0, 0);
    // High priority with a nanosecond deadline is admitted at the floor
    // and expires in the queue (see expired_deadline_yields_typed_error…).
    let policy = RequestPolicy::default()
        .with_priority(Priority::High)
        .with_deadline(Duration::from_nanos(1));
    let t =
        service.submit(SolveRequest::new(Arc::clone(&mats[0]), b.clone()).policy(policy)).unwrap();
    assert!(matches!(
        t.wait(),
        Err(ServeError::Solver(SolverError::DeadlineExceeded { iterations: 0, .. }))
    ));
    assert_eq!(
        service.breaker_state(&mats[0]),
        BreakerState::Closed,
        "an expiry that never ran must not trip the breaker"
    );
    let t = service
        .submit(SolveRequest::new(Arc::clone(&mats[0]), b).policy(RequestPolicy::default()))
        .expect("healthy fingerprint still admitted");
    assert!(t.wait().unwrap().result.converged());
}

/// The neutral-outcome path must also release the probe slot: a probe
/// whose deadline evaporates in the queue told us nothing, so the
/// breaker re-opens (same backoff) instead of sticking half-open.
#[test]
fn expired_probe_releases_the_half_open_slot() {
    let mats = matrices();
    let opts = SpcgOptions {
        solver: SolverConfig::default().with_tol(1e-300).with_max_iters(2),
        ..SpcgOptions::default()
    };
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        batch_window: Duration::ZERO,
        batch_limit: 1,
        options: opts,
        breaker: BreakerConfig { failure_threshold: 1, base_backoff_ms: 50, max_backoff_ms: 50 },
        ..ServiceConfig::default()
    });
    let b = rhs_for(mats[0].n_rows(), 0, 0);
    let t = service
        .submit(SolveRequest::new(Arc::clone(&mats[0]), b.clone()).policy(RequestPolicy::default()))
        .unwrap();
    assert!(!t.wait().unwrap().result.converged());
    std::thread::sleep(Duration::from_millis(80)); // backoff expires

    // The probe is admitted (High at the floor) but its deadline is gone
    // before the worker reaches it: a neutral outcome.
    let policy = RequestPolicy::default()
        .with_priority(Priority::High)
        .with_deadline(Duration::from_nanos(1));
    let t =
        service.submit(SolveRequest::new(Arc::clone(&mats[0]), b.clone()).policy(policy)).unwrap();
    assert!(matches!(
        t.wait(),
        Err(ServeError::Solver(SolverError::DeadlineExceeded { iterations: 0, .. }))
    ));
    assert!(
        matches!(service.breaker_state(&mats[0]), BreakerState::Open { .. }),
        "expired probe left the breaker half-open: the slot leaked"
    );
    // The slot cycles: after the backoff the fingerprint is probed again.
    std::thread::sleep(Duration::from_millis(80));
    let probe = service
        .submit(SolveRequest::new(Arc::clone(&mats[0]), b).policy(RequestPolicy::default()))
        .expect("released probe slot re-admits after the backoff");
    assert!(!probe.wait().unwrap().result.converged());
}

/// Satellite: shutdown under load. Closing the service with a deep queue
/// must resolve **every** outstanding ticket with a typed outcome — the
/// queue drains through the workers on drop, nothing hangs, and no
/// responder is dropped unanswered. The whole exchange runs under a
/// watchdog so a regression fails the test instead of wedging the suite.
#[test]
fn shutdown_with_deep_queue_resolves_every_ticket() {
    let mats = matrices();
    let opts = options();
    let service = SolveService::new(ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        batch_window: Duration::from_millis(20),
        batch_limit: 4,
        options: opts,
        ..ServiceConfig::default()
    });

    // Build a deep queue across several fingerprints, with a few policy
    // submissions (deadlines included) mixed in.
    let mut tickets = Vec::new();
    for i in 0..40 {
        let m = &mats[i % mats.len()];
        let b = rhs_for(m.n_rows(), 7, i);
        let t = if i % 4 == 0 {
            service.submit(
                SolveRequest::new(Arc::clone(m), b).policy(
                    RequestPolicy::default()
                        .with_priority(Priority::High)
                        .with_deadline(Duration::from_secs(30)),
                ),
            )
        } else {
            service.submit(SolveRequest::new(Arc::clone(m), b))
        };
        if let Ok(t) = t {
            tickets.push(t);
        }
    }
    let accepted = tickets.len();
    assert!(accepted >= 30, "the deep queue should accept most submissions");

    // Redeem the tickets on a separate thread while this one drops the
    // service, so closure races active waits.
    let (done_tx, done_rx) = mpsc::channel();
    let redeemer = std::thread::spawn(move || {
        let mut outcomes = 0usize;
        for t in tickets {
            // Every wait must RETURN — Ok or typed Err — never hang.
            match t.wait() {
                Ok(out) => {
                    assert!(out.result.converged());
                    outcomes += 1;
                }
                Err(ServeError::Closed) => panic!("accepted request dropped on shutdown"),
                Err(e) => panic!("unexpected error on shutdown: {e}"),
            }
        }
        done_tx.send(outcomes).unwrap();
    });
    drop(service); // close the queue, drain, join workers
    let outcomes = done_rx
        .recv_timeout(Duration::from_secs(120))
        .expect("shutdown hung with a deep queue (watchdog fired)");
    assert_eq!(outcomes, accepted, "every accepted request must resolve");
    redeemer.join().unwrap();
}

#[test]
fn coalesced_batch_matches_individual_solves() {
    let mats = matrices();
    let opts = options();
    let plan = SpcgPlan::build(&mats[0], &opts).unwrap();
    let service = SolveService::new(ServiceConfig {
        workers: 1,
        queue_capacity: 32,
        batch_window: Duration::from_millis(50),
        batch_limit: 16,
        options: opts,
        ..ServiceConfig::default()
    });
    // Same fingerprint, distinct right-hand sides, submitted while the
    // worker waits out its window: they coalesce into one batch.
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let b = rhs_for(mats[0].n_rows(), 9, i);
            service.submit(SolveRequest::new(Arc::clone(&mats[0]), b)).unwrap()
        })
        .collect();
    let mut max_batch = 0;
    for (i, t) in tickets.into_iter().enumerate() {
        let out = t.wait().unwrap();
        let b = rhs_for(mats[0].n_rows(), 9, i);
        assert_eq!(out.result.x, plan.solve(&b).unwrap().x, "request {i} diverged in a batch");
        max_batch = max_batch.max(out.batch_size);
    }
    assert!(max_batch >= 2, "the admission window should coalesce at least one pair");
    assert!(service.stats().max_batch >= 2);
}
