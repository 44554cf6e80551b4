//! Pins the disabled path's zero-allocation guarantee with a counting
//! global allocator: with no sink installed, spans and their attributes
//! must not touch the heap. A separate integration-test binary so the
//! process-global allocator and sink registry are fully under this test's
//! control (the crate's unit tests install sinks).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[test]
fn disabled_spans_do_not_allocate() {
    assert!(!obs::enabled());
    let big = "x".repeat(256); // built before measuring
    let exercise = |n: u64| {
        for i in 0..n {
            let mut span = obs::span("bench.loop");
            span.attr_u64("i", i);
            span.attr_str("s", &big); // must not copy when disabled
            assert_eq!(span.id(), None);
            let _inner = obs::span("bench.inner");
        }
    };
    // Warm-up absorbs one-time lazy allocations made by the test harness
    // itself (output-capture buffers) — the counter is process-global.
    exercise(10);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    exercise(100_000);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "disabled telemetry allocated");
}
