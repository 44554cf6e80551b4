//! Trace records, the [`Sink`] trait, and the two bundled sinks.
//!
//! The JSONL wire format is part of the crate's public contract (golden
//! tested): one JSON object per line, each a `"type":"span"` record.
//! [`span_to_jsonl`] is exposed so consumers can re-serialize in-memory
//! spans identically to what [`JsonlSink`] writes.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// A typed span-attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Owned string (JSON-escaped on serialization).
    Str(String),
}

/// A finished span: identity, lineage, timing and attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Unique (process-wide) span id; never 0.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name (see the span taxonomy in `docs/observability.md`).
    pub name: &'static str,
    /// Start offset in nanoseconds from the trace epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Attributes attached via `SpanGuard::attr_*`, in attachment order.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Receiver of finished telemetry records. Implementations must be
/// thread-safe: spans close on whatever thread opened them.
pub trait Sink: Send + Sync {
    /// Called once per span, at the moment the span closes.
    fn record_span(&self, span: &SpanRecord);
    /// Flushes any buffered output; called by [`crate::uninstall`].
    fn flush(&self) {}
}

/// Appends a JSON-escaped copy of `value` to `out` (no surrounding quotes).
///
/// Escapes the two mandatory characters (`"` and `\`) plus control
/// characters, matching the subset of JSON string syntax the bench bins
/// have always emitted.
pub fn json_escape_into(out: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn attr_value_into(out: &mut String, value: &AttrValue) {
    match value {
        AttrValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::Str(v) => {
            out.push('"');
            json_escape_into(out, v);
            out.push('"');
        }
    }
}

/// Serializes a span record to its single-line JSONL form (no trailing
/// newline), exactly as [`JsonlSink`] writes it.
pub fn span_to_jsonl(span: &SpanRecord) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"type\":\"span\",\"id\":");
    let _ = write!(out, "{}", span.id);
    out.push_str(",\"parent\":");
    match span.parent {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"name\":\"");
    json_escape_into(&mut out, span.name);
    let _ = write!(
        out,
        "\",\"start_ns\":{},\"dur_ns\":{},\"attrs\":{{",
        span.start_ns, span.duration_ns
    );
    for (i, (key, value)) in span.attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        json_escape_into(&mut out, key);
        out.push_str("\":");
        attr_value_into(&mut out, value);
    }
    out.push_str("}}");
    out
}

/// In-memory sink: collects every span into a vector, in close order.
/// Intended for tests and for post-run aggregation (`upecbench --trace 1`).
#[derive(Debug, Default)]
pub struct MemorySink {
    spans: Mutex<Vec<SpanRecord>>,
}

impl MemorySink {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy of the span records, in arrival (i.e. close) order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("MemorySink lock poisoned").clone()
    }
}

impl Sink for MemorySink {
    fn record_span(&self, span: &SpanRecord) {
        self.spans
            .lock()
            .expect("MemorySink lock poisoned")
            .push(span.clone());
    }
}

/// JSONL file sink: writes one JSON object per line through a buffered,
/// mutex-protected writer.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            writer: Mutex::new(BufWriter::new(file)),
        })
    }
}

impl Sink for JsonlSink {
    fn record_span(&self, span: &SpanRecord) {
        let line = span_to_jsonl(span);
        let mut writer = self.writer.lock().expect("JsonlSink lock poisoned");
        // Telemetry is best-effort: a full disk must not abort verification.
        let _ = writer.write_all(line.as_bytes());
        let _ = writer.write_all(b"\n");
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("JsonlSink lock poisoned").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_jsonl_golden() {
        let span = SpanRecord {
            id: 5,
            parent: Some(4),
            name: "sat.search",
            start_ns: 1_000,
            duration_ns: 2_500,
            attrs: vec![
                ("result", AttrValue::Str("unsat".to_string())),
                ("conflicts", AttrValue::U64(12)),
            ],
        };
        assert_eq!(
            span_to_jsonl(&span),
            "{\"type\":\"span\",\"id\":5,\"parent\":4,\"name\":\"sat.search\",\
             \"start_ns\":1000,\"dur_ns\":2500,\"attrs\":{\"result\":\"unsat\",\
             \"conflicts\":12}}"
        );
    }

    #[test]
    fn root_span_has_null_parent() {
        let span = SpanRecord {
            id: 1,
            parent: None,
            name: "upec.check_bound",
            start_ns: 0,
            duration_ns: 9,
            attrs: Vec::new(),
        };
        assert_eq!(
            span_to_jsonl(&span),
            "{\"type\":\"span\",\"id\":1,\"parent\":null,\"name\":\"upec.check_bound\",\
             \"start_ns\":0,\"dur_ns\":9,\"attrs\":{}}"
        );
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        let mut out = String::new();
        json_escape_into(&mut out, "a\"b\\c\nd\te\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}
