//! The parallel, incremental UPEC checking engine.
//!
//! The paper's methodology re-solves the UPEC interval property over and
//! over: once per window length while deepening the proof, once per
//! commitment while diagnosing P-alerts, and once per scenario in the
//! evaluation sweep. The seed implementation rebuilt the unrolled miter and
//! a fresh SAT solver for every single query; this module replaces that
//! with:
//!
//! * [`IncrementalSession`] — one persistent solver per miter. Deepening a
//!   bound only bit-blasts the new frame, learned clauses and branching
//!   heuristics survive across queries, and per-query obligations are
//!   activation-literal guarded so they can be retired without a rebuild.
//! * [`UpecEngine`] — a worker pool that scans many scenario instances
//!   concurrently, one incremental session per instance, under optional
//!   per-bound and per-scenario [`sat::Budget`]s.
//! * [`SharedClausePool`] — the cross-session learned-clause exchange of the
//!   instance sweep: sessions with the same transition fingerprint publish
//!   and import each other's transition-tainted lemmas in canonical
//!   position form.
//! * [`InstanceResult`] — aggregation of the per-bound outcomes back into
//!   the paper's vocabulary (P-alerts, L-alerts, proven windows), with
//!   per-instance expectation checking against the
//!   [scenario registry](crate::scenarios).

mod error;
mod scheduler;
mod session;
mod share;

pub use error::EngineError;
pub use scheduler::{
    BoundStatus, BoundSummary, CertifiedBound, CertifiedResult, EngineOptions, InstanceResult,
    ScanVerdict, UpecEngine,
};
pub use session::IncrementalSession;
pub use share::SharedClausePool;
