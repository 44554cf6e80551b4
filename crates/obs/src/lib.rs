//! # `obs` — query-level telemetry for the UPEC pipeline
//!
//! Zero-dependency hierarchical spans and pluggable trace sinks. The layers
//! that do a query's work record it through this crate: `sat` (CDCL search,
//! vivification, proof logging and the CNF simplification pipeline, pass by
//! pass), `bmc` (transition compilation, with its cone-of-influence pass,
//! and trial solves), `upec` (the query root, Tseitin encoding, certificate
//! trimming and checking, miter walks) and `soc`'s fuzz miner; `rtl` and
//! `sim` record nothing. So a single UPEC query can be attributed phase by
//! phase, and its counts are span attributes.
//!
//! # Design
//!
//! * **Spans** are RAII guards ([`span`] returns a [`SpanGuard`]) timed with
//!   the monotonic clock. A thread-local stack links each span to its
//!   parent, so nesting is recorded without any caller plumbing. Guards
//!   carry integer and string attributes ([`SpanGuard::attr_u64`],
//!   [`SpanGuard::attr_str`]) — the solver records its conflict,
//!   propagation and restart deltas as attributes of its `sat.search` span.
//! * **Sinks** ([`Sink`]) receive finished spans. The crate ships a
//!   lock-protected JSONL writer ([`JsonlSink`]) and an in-memory collector
//!   for tests and aggregation ([`MemorySink`]).
//! * **The disabled path is compile-cheap.** With no sink installed,
//!   [`span`] costs one relaxed atomic load and allocates nothing — the
//!   instrumentation can stay on in production code paths.
//!   The `no_alloc` test suite pins this with a counting allocator.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! let sink = Arc::new(obs::MemorySink::new());
//! obs::install(sink.clone());
//! {
//!     let mut outer = obs::span("query");
//!     outer.attr_str("scenario", "orc");
//!     let mut inner = obs::span("solve");
//!     inner.attr_u64("conflicts", 42);
//! }
//! obs::uninstall();
//! let spans = sink.spans();
//! assert_eq!(spans.len(), 2); // inner span, outer span
//! assert_eq!(spans[0].parent, Some(spans[1].id));
//! ```

#![deny(missing_docs)]

mod sink;

pub use sink::{
    json_escape_into, span_to_jsonl, AttrValue, JsonlSink, MemorySink, Sink, SpanRecord,
};

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Fast-path gate: `true` exactly while a sink is installed. Checked with a
/// single relaxed load before anything else happens in [`span`].
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonically increasing span-id source (0 is reserved for "no span").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// The installed sink, if any.
static SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

/// The process-wide trace epoch: all span start times are nanosecond offsets
/// from this instant.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Ids of the spans currently open on this thread, innermost last.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Installs `sink` as the process-wide trace sink and enables tracing.
///
/// Replaces any previously installed sink. Spans that are already open keep
/// recording into whatever sink is installed when they *close*.
pub fn install(sink: Arc<dyn Sink>) {
    // Initialize the epoch before the first span can observe it, so start
    // offsets are relative to (roughly) the install point of the first sink.
    let _ = epoch();
    *SINK.write().expect("obs sink lock poisoned") = Some(sink);
    ENABLED.store(true, Ordering::Release);
}

/// Removes the installed sink (disabling tracing) and returns it, flushing
/// it first.
pub fn uninstall() -> Option<Arc<dyn Sink>> {
    ENABLED.store(false, Ordering::Release);
    let sink = SINK.write().expect("obs sink lock poisoned").take();
    if let Some(s) = &sink {
        s.flush();
    }
    sink
}

/// Whether a sink is currently installed.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Live state of an enabled span, owned by its [`SpanGuard`].
#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: Instant,
    start_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

/// RAII guard of one span: the span covers the guard's lifetime and is
/// recorded to the installed sink when the guard drops.
///
/// Guards must be dropped in LIFO order on each thread (the natural order of
/// nested scopes); the parent of a span is whatever span was innermost on
/// the same thread when [`span`] was called.
#[derive(Debug)]
#[must_use = "a span measures the guard's lifetime; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

/// Opens a span named `name`.
///
/// With no sink installed this is one relaxed atomic load and returns an
/// inert guard — no allocation, no thread-local access, no clock read.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied();
        stack.push(id);
        parent
    });
    let start = Instant::now();
    let start_ns = start.duration_since(epoch()).as_nanos() as u64;
    SpanGuard {
        active: Some(ActiveSpan {
            id,
            parent,
            name,
            start,
            start_ns,
            attrs: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// The span's id, if tracing was enabled when it was opened.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.id)
    }

    /// Attaches an unsigned integer attribute.
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if let Some(a) = &mut self.active {
            a.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attaches a string attribute. The string is only copied when the span
    /// is live (the disabled path allocates nothing).
    pub fn attr_str(&mut self, key: &'static str, value: &str) {
        if let Some(a) = &mut self.active {
            a.attrs.push((key, AttrValue::Str(value.to_string())));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            debug_assert_eq!(
                stack.last().copied(),
                Some(active.id),
                "span guards must drop in LIFO order"
            );
            // Be robust against a mis-nested guard in release builds: remove
            // this span wherever it sits instead of corrupting the stack.
            if stack.last() == Some(&active.id) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&id| id == active.id) {
                stack.remove(pos);
            }
        });
        let duration_ns = active.start.elapsed().as_nanos() as u64;
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            start_ns: active.start_ns,
            duration_ns,
            attrs: active.attrs,
        };
        // Spans that close while the sink is being swapped are simply
        // dropped — telemetry is best-effort.
        if let Ok(guard) = SINK.read() {
            if let Some(sink) = guard.as_ref() {
                sink.record_span(&record);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that install the process-global sink.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_span_is_inert() {
        let _guard = TEST_LOCK.lock().unwrap();
        uninstall();
        let mut s = span("never-recorded");
        assert_eq!(s.id(), None);
        s.attr_u64("k", 1);
        drop(s);
        assert!(!enabled());
    }

    #[test]
    fn spans_nest_and_close_innermost_first() {
        let _guard = TEST_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        install(sink.clone());
        let outer_id;
        {
            let outer = span("outer");
            outer_id = outer.id().unwrap();
            let mut inner = span("inner");
            inner.attr_str("phase", "x");
            inner.attr_u64("ticks", 3);
        }
        uninstall();
        let spans = sink.spans();
        // Close order: inner span, outer span.
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(outer_id));
        assert_eq!(
            spans[0].attrs,
            vec![
                ("phase", AttrValue::Str("x".to_string())),
                ("ticks", AttrValue::U64(3))
            ]
        );
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[1].id, outer_id);
    }

    #[test]
    fn uninstall_returns_the_sink_and_disables() {
        let _guard = TEST_LOCK.lock().unwrap();
        let sink = Arc::new(MemorySink::new());
        install(sink);
        assert!(enabled());
        let returned = uninstall();
        assert!(returned.is_some());
        assert!(!enabled());
        assert!(uninstall().is_none());
    }
}
