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
//! * [`UpecEngine`] — a worker pool that scans many scenario instances,
//!   one incremental session per miter: instances that share SoC config
//!   and secret placement walk their windows together on one session,
//!   each with its own commitment. The queries run unbudgeted, so every
//!   bound decides; a certified scan is the same walk on a proof-logging
//!   session. Callers that need to bound a query's work set a
//!   [`sat::Budget`] on their own [`IncrementalSession`].
//! * [`InstanceResult`] — aggregation of the per-bound outcomes back into
//!   the paper's vocabulary (P-alerts, L-alerts, proven windows), with
//!   per-instance expectation checking against the
//!   [scenario registry](crate::scenarios).

mod error;
mod scheduler;
mod session;

pub use error::EngineError;
pub use scheduler::{
    BoundStatus, BoundSummary, CertifiedBound, CertifiedResult, EngineOptions, InstanceResult,
    ScanVerdict, UpecEngine,
};
pub use session::IncrementalSession;
