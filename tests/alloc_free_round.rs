//! Pins ISSUE 5's "zero heap allocations per steady-state loopback
//! round" guarantee on the serve hot path, with a counting global
//! allocator: encode-once assignment (borrowed straight from the
//! coordinator's global), persistent per-client loopback workers
//! (network arenas + gather buffers + optimizer velocity reused),
//! streaming fixed-slot aggregation, and the global-buffer swap. Only
//! allocations made by the armed thread count, so libtest's own threads
//! cannot leak into the armed window; the rounds run on a one-thread
//! pool, so every stage runs on that thread too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use std::sync::Arc;

use goldfish::core::GoldfishUnlearning;
use goldfish::fed::pool;
use goldfish::fed::transport::round_seed;
use goldfish::serve::coordinator::{Coordinator, CoordinatorConfig};
use goldfish::serve::demo::DemoSpec;
use goldfish::serve::telemetry::ServeTelemetry;
use goldfish::serve::transport::LoopbackTransport;
use goldfish::telemetry::clock::Clock;
use goldfish::telemetry::events::Trace;

/// Counts allocations (and growth reallocations) made by an armed thread.
struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are counted, and how many it
    /// made while armed. Const-initialised with no destructor, so
    /// touching them never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_if_armed() {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// Runs `f` with the calling thread armed and returns how many
/// allocations it made.
fn allocations_in(f: impl FnOnce()) -> usize {
    ALLOCS.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_armed();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_armed();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_loopback_round_is_allocation_free() {
    // The serving hot path at single-thread pool size (the parallel
    // scope of the vendored rayon allocates its task queue; with one
    // thread every stage runs inline, same bits — thread count is pinned
    // as a non-semantic knob by the fed determinism suite).
    let spec = DemoSpec {
        clients: 4,
        samples_per_client: 60,
        test_samples: 20,
        seed: 23,
    };
    let cfg = CoordinatorConfig {
        train: spec.train_config(),
        method: GoldfishUnlearning::default(),
        unlearn_rounds: 1,
        init_seed: 1,
        threads: Some(1),
        ..CoordinatorConfig::default()
    };
    let transport = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(1));
    let mut c = Coordinator::new(spec.factory(), spec.test_set(), transport, cfg);

    // Reference: the summary-producing round on a twin coordinator, to
    // prove the hot path computes the same global.
    let transport2 = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(1));
    let mut reference = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport2,
        CoordinatorConfig {
            train: spec.train_config(),
            method: GoldfishUnlearning::default(),
            unlearn_rounds: 1,
            init_seed: 1,
            threads: Some(1),
            ..CoordinatorConfig::default()
        },
    );

    // Warm-up: size every worker arena, state buffer, accumulator lane
    // and result vector.
    for r in 0..2 {
        c.train_round_hot(r, round_seed(7, r)).unwrap();
        reference.train_round(r, round_seed(7, r)).unwrap();
        assert_eq!(
            c.global_state(),
            reference.global_state(),
            "hot path diverged from the summary path at round {r}"
        );
    }

    // Armed: whole rounds must not touch the allocator.
    let n = pool::install(Some(1), || {
        allocations_in(|| {
            for r in 2..6 {
                c.train_round_hot(r, round_seed(7, r)).unwrap();
            }
        })
    });
    assert_eq!(
        n, 0,
        "steady-state loopback rounds performed {n} allocations"
    );

    // And the armed rounds still computed the right thing.
    for r in 2..6 {
        reference.train_round(r, round_seed(7, r)).unwrap();
    }
    assert_eq!(c.global_state(), reference.global_state());
    assert_eq!(c.peak_resident_updates(), 1, "loopback feeds in id order");

    // ISSUE 9: the guarantee must survive full telemetry — registry
    // counters, span histograms, a manual clock and a bounded trace
    // ring all record on the hot path, and none of them may allocate
    // after registration (or perturb the numerics).
    let clock = Clock::manual();
    let telemetry = Arc::new(ServeTelemetry::new(
        clock.clone(),
        Trace::bounded(64, clock.clone()),
    ));
    let transport3 = LoopbackTransport::new(spec.factory(), spec.client_shards(), Some(1));
    let mut instrumented = Coordinator::new(
        spec.factory(),
        spec.test_set(),
        transport3,
        CoordinatorConfig {
            train: spec.train_config(),
            method: GoldfishUnlearning::default(),
            unlearn_rounds: 1,
            init_seed: 1,
            threads: Some(1),
            telemetry: Some(Arc::clone(&telemetry)),
            ..CoordinatorConfig::default()
        },
    );
    for r in 0..2 {
        instrumented.train_round_hot(r, round_seed(7, r)).unwrap();
    }
    let n = pool::install(Some(1), || {
        allocations_in(|| {
            for r in 2..6 {
                clock.advance(1_000_000); // 1ms per round: nonzero spans
                instrumented.train_round_hot(r, round_seed(7, r)).unwrap();
            }
        })
    });
    assert_eq!(
        n, 0,
        "telemetry-instrumented rounds performed {n} allocations"
    );

    // Telemetry on/off is bitwise invisible, and the registry agrees
    // with what actually ran.
    assert_eq!(instrumented.global_state(), c.global_state());
    assert_eq!(telemetry.round.rounds_total.get(), 6);
    assert_eq!(telemetry.round.updates_admitted_total.get(), 24);
    assert_eq!(telemetry.round.resident_peak.get(), 1);
    assert!(telemetry.round_seconds.count() >= 4);
    assert!(telemetry.trace.is_enabled());
    assert_eq!(telemetry.trace.dropped(), 0);
}
