//! Proof that the PCG hot path is allocation-free: a counting global
//! allocator wraps the system allocator, and after one warm-up solve every
//! further in-place solve on the same plan must perform **zero** heap
//! allocations — across the whole iteration loop, the triangular
//! preconditioner applications, and residual-history recording.
//!
//! This lives in its own integration-test binary so the `#[global_allocator]`
//! does not interfere with any other test. Allocations are counted per
//! thread: libtest runs the tests on parallel threads, and every measured
//! region runs on its test's own thread, so another test's allocations
//! never land in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spcg_core::{SpcgOptions, SpcgPlan};
use spcg_solver::{SolveCtx, SolverConfig};
use spcg_sparse::generators::{poisson_2d, with_magnitude_spread};
use spcg_sparse::Rng;

/// Counts every allocation request routed through the global allocator.
struct CountingAlloc;

thread_local! {
    // Const-initialised and free of destructors: touching it from inside
    // the allocator never allocates and never registers a TLS destructor.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` stays silent if a thread allocates during its teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to `System` unchanged and
// returns its result; counting touches only a thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocation_count() -> usize {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn warm_in_place_solves_do_not_allocate() {
    // Sparsified plan, sequential triangular solves (the level-parallel
    // path hands work to a thread pool, which is outside the allocation
    // contract), history recording ON so the push path is exercised too.
    let a = with_magnitude_spread(&poisson_2d(24, 24), 5.0, 11);
    let opts = SpcgOptions {
        solver: SolverConfig::default().with_tol(1e-10).with_history(true),
        ..Default::default()
    };
    let plan = SpcgPlan::build(&a, &opts).expect("plan builds");
    let mut ws = plan.make_workspace();

    // All right-hand sides are materialized before the measured region.
    let mut rng = Rng::new(42);
    let rhs: Vec<Vec<f64>> =
        (0..4).map(|_| (0..a.n_rows()).map(|_| rng.range(-1.0, 1.0)).collect()).collect();

    // Warm-up: sizes every buffer and reserves the history capacity.
    let warm =
        plan.solve_in_place(&rhs[0], &mut ws, SolveCtx::default()).expect("well-formed system");
    assert!(warm.converged(), "warm-up failed: {:?}", warm.stop);

    let before = allocation_count();
    for b in &rhs {
        // `SolveStats` and `SolverError` are both `Copy`: unwrapping the
        // result stays allocation-free.
        let stats =
            plan.solve_in_place(b, &mut ws, SolveCtx::default()).expect("well-formed system");
        assert!(stats.converged(), "solve failed: {:?}", stats.stop);
        assert!(stats.iterations > 0, "trivial solve would not exercise the loop");
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm PCG solves allocated {} time(s); the hot path must be allocation-free",
        after - before
    );
}

#[test]
fn warm_reordered_solves_do_not_allocate() {
    // Reordering must not cost the hot path its allocation-freedom: the
    // boundary permutation (gather b, scatter x) stages through a
    // workspace buffer that `make_workspace` pre-sizes, so a warm in-place
    // solve on a reordered plan is as allocation-free as a natural one.
    use spcg_core::OrderingKind;

    let a = with_magnitude_spread(&poisson_2d(24, 24), 5.0, 11);
    let opts = SpcgOptions {
        solver: SolverConfig::default().with_tol(1e-10).with_history(true),
        ..Default::default()
    }
    .with_ordering(OrderingKind::Coloring);
    let plan = SpcgPlan::build(&a, &opts).expect("plan builds");
    assert!(plan.is_reordered(), "coloring must actually permute");
    let mut ws = plan.make_workspace();

    let mut rng = Rng::new(23);
    let rhs: Vec<Vec<f64>> =
        (0..4).map(|_| (0..a.n_rows()).map(|_| rng.range(-1.0, 1.0)).collect()).collect();

    let warm =
        plan.solve_in_place(&rhs[0], &mut ws, SolveCtx::default()).expect("well-formed system");
    assert!(warm.converged(), "warm-up failed: {:?}", warm.stop);

    let before = allocation_count();
    for b in &rhs {
        let stats =
            plan.solve_in_place(b, &mut ws, SolveCtx::default()).expect("well-formed system");
        assert!(stats.converged(), "reordered solve failed: {:?}", stats.stop);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm reordered solves allocated {} time(s); the permuted hot path must stay \
         allocation-free",
        after - before
    );
}

#[test]
fn warm_dependency_block_solves_do_not_allocate() {
    // The dependency-block executor's warm path must match the sequential
    // contract: the block schedule (and its pooled release counters) is
    // built once at plan time, so a warm in-place solve performs zero heap
    // allocations. At this size the executor takes its inline path — the
    // threaded path hands work to spawned workers, which (like the
    // level-parallel executor) sits outside the allocation contract.
    use spcg_core::ExecutionStrategy;

    let a = with_magnitude_spread(&poisson_2d(20, 20), 5.0, 11);
    let opts = SpcgOptions {
        solver: SolverConfig::default().with_tol(1e-10).with_history(true),
        ..Default::default()
    }
    .with_exec(ExecutionStrategy::DependencyBlocks);
    let plan = SpcgPlan::build(&a, &opts).expect("plan builds");
    let mut ws = plan.make_workspace();

    let mut rng = Rng::new(37);
    let rhs: Vec<Vec<f64>> =
        (0..4).map(|_| (0..a.n_rows()).map(|_| rng.range(-1.0, 1.0)).collect()).collect();

    let warm =
        plan.solve_in_place(&rhs[0], &mut ws, SolveCtx::default()).expect("well-formed system");
    assert!(warm.converged(), "warm-up failed: {:?}", warm.stop);

    let before = allocation_count();
    for b in &rhs {
        let stats =
            plan.solve_in_place(b, &mut ws, SolveCtx::default()).expect("well-formed system");
        assert!(stats.converged(), "dependency-block solve failed: {:?}", stats.stop);
        assert!(stats.iterations > 0, "trivial solve would not exercise the loop");
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm dependency-block solves allocated {} time(s); the block schedule and its \
         counters must be resident from plan time",
        after - before
    );
}

#[test]
fn warm_mixed_precision_solves_do_not_allocate() {
    // The mixed tier adds an f32 staging buffer (down/upcast at the apply
    // boundary) and the iterative-refinement accumulators; `make_workspace`
    // pre-sizes all of them, so a warm mixed solve — demotion staging,
    // narrow triangular sweeps, refinement bookkeeping included — must be
    // exactly as allocation-free as the full-precision path.
    use spcg_core::PrecisionPolicy;

    let a = with_magnitude_spread(&poisson_2d(24, 24), 5.0, 11);
    let opts = SpcgOptions {
        solver: SolverConfig::default().with_tol(1e-8).with_history(true),
        ..Default::default()
    }
    .with_precision(PrecisionPolicy::MixedF32);
    let plan = SpcgPlan::build(&a, &opts).expect("plan builds");
    assert!(plan.is_mixed(), "MixedF32 must resolve to the mixed tier");
    let mut ws = plan.make_workspace();

    let mut rng = Rng::new(31);
    let rhs: Vec<Vec<f64>> =
        (0..4).map(|_| (0..a.n_rows()).map(|_| rng.range(-1.0, 1.0)).collect()).collect();

    let warm =
        plan.solve_in_place(&rhs[0], &mut ws, SolveCtx::default()).expect("well-formed system");
    assert!(warm.converged(), "warm-up failed: {:?}", warm.stop);

    let before = allocation_count();
    for b in &rhs {
        let stats =
            plan.solve_in_place(b, &mut ws, SolveCtx::default()).expect("well-formed system");
        assert!(stats.converged(), "mixed solve failed: {:?}", stats.stop);
        assert!(stats.iterations > 0, "trivial solve would not exercise the loop");
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm mixed-precision solves allocated {} time(s); staging and refinement buffers \
         must be pre-sized by make_workspace",
        after - before
    );
}

#[test]
fn warm_served_solves_do_not_allocate() {
    // The same contract, one layer up: a request through the solve
    // service's cached hot path — fingerprint, sharded-LRU hit (tick-stamp
    // bump, no list reshuffle), `Arc` clone, in-place PCG — must be
    // allocation-free once the plan is cached and the workspace is warm.
    use spcg_serve::{ServiceConfig, SolveService};

    let a = with_magnitude_spread(&poisson_2d(20, 20), 5.0, 13);
    let service: SolveService = SolveService::new(ServiceConfig {
        workers: 1,
        options: SpcgOptions {
            solver: SolverConfig::default().with_tol(1e-10).with_history(true),
            ..Default::default()
        },
        ..ServiceConfig::default()
    });
    let mut rng = Rng::new(17);
    let rhs: Vec<Vec<f64>> =
        (0..4).map(|_| (0..a.n_rows()).map(|_| rng.range(-1.0, 1.0)).collect()).collect();
    let mut ws = service.plan_for(&a).expect("plan builds").make_workspace();

    // Warm-up: builds and caches the plan, sizes the workspace.
    let warm = service.solve_in_place(&a, &rhs[0], &mut ws).expect("well-formed system");
    assert!(warm.converged(), "warm-up failed: {:?}", warm.stop);

    let before = allocation_count();
    for b in &rhs {
        let stats = service.solve_in_place(&a, b, &mut ws).expect("well-formed system");
        assert!(stats.converged(), "served solve failed: {:?}", stats.stop);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm served solves allocated {} time(s); the cached hot path must be allocation-free",
        after - before
    );
    let stats = service.stats();
    assert_eq!(stats.cache.hits, 5, "warm-up plus four measured solves hit the cache");
}

#[test]
fn warm_session_steps_do_not_allocate() {
    // The sequence-session contract: once a session's plan is resident and
    // its workspace warm, a step whose matrix values are *unchanged* does
    // no heap allocation — fingerprinting the matrix, recognizing the
    // value digest, and warm-starting PCG from the previous solution all
    // run in place. (A drifted step refreshes the factorization and is
    // allowed to allocate; that path is measured by the benches instead.)
    use spcg_serve::{ServiceConfig, SolveService};

    let a = with_magnitude_spread(&poisson_2d(20, 20), 5.0, 13);
    let service: SolveService = SolveService::new(ServiceConfig {
        workers: 1,
        options: SpcgOptions {
            solver: SolverConfig::default().with_tol(1e-10).with_history(true),
            ..Default::default()
        },
        ..ServiceConfig::default()
    });
    let mut rng = Rng::new(29);
    let rhs: Vec<Vec<f64>> =
        (0..4).map(|_| (0..a.n_rows()).map(|_| rng.range(-1.0, 1.0)).collect()).collect();

    let mut session = service.open_session(&a).expect("plan builds");
    // Warm-up step: sizes every buffer, leaves a resident solution.
    let warm = session.step(&a, &rhs[0]).expect("well-formed system");
    assert!(warm.converged(), "warm-up failed: {:?}", warm.stop);

    let before = allocation_count();
    for b in &rhs {
        let stats = session.step(&a, b).expect("well-formed system");
        assert!(stats.converged(), "session step failed: {:?}", stats.stop);
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "warm session steps allocated {} time(s); an unchanged-values step must be \
         allocation-free",
        after - before
    );
}

#[test]
fn workspace_growth_allocates_then_settles() {
    // Growing to a larger system allocates (by design), but once grown the
    // workspace serves both sizes allocation-free.
    let small = poisson_2d(8, 8);
    let large = poisson_2d(16, 16);
    let opts = SpcgOptions { sparsify: None, ..Default::default() };
    let plan_s = SpcgPlan::build(&small, &opts).expect("small plan");
    let plan_l = SpcgPlan::build(&large, &opts).expect("large plan");
    let b_s = vec![1.0f64; small.n_rows()];
    let b_l = vec![1.0f64; large.n_rows()];

    let mut ws = plan_s.make_workspace();
    plan_s.solve_in_place(&b_s, &mut ws, SolveCtx::default()).unwrap();

    // First visit to the larger system must grow the buffers.
    let before_growth = allocation_count();
    plan_l.solve_in_place(&b_l, &mut ws, SolveCtx::default()).unwrap();
    assert!(allocation_count() > before_growth, "growth should allocate");

    // From here on, alternating sizes stays allocation-free.
    let before = allocation_count();
    plan_s.solve_in_place(&b_s, &mut ws, SolveCtx::default()).unwrap();
    plan_l.solve_in_place(&b_l, &mut ws, SolveCtx::default()).unwrap();
    plan_s.solve_in_place(&b_s, &mut ws, SolveCtx::default()).unwrap();
    assert_eq!(allocation_count() - before, 0, "alternating warm solves allocated");
}
