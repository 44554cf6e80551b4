//! Typed errors of the engine query path.
//!
//! The session's original API treated every misuse as a panic; the `try_`
//! variants ([`IncrementalSession::try_with_options`],
//! [`IncrementalSession::try_check_bound`],
//! [`IncrementalSession::check_bound_certified`]) return these instead, so
//! embedders — the scheduler, the bench binaries, fuzz drivers — can react to
//! a malformed query without unwinding.
//!
//! [`IncrementalSession::try_with_options`]: crate::engine::IncrementalSession::try_with_options
//! [`IncrementalSession::try_check_bound`]: crate::engine::IncrementalSession::try_check_bound
//! [`IncrementalSession::check_bound_certified`]: crate::engine::IncrementalSession::check_bound_certified

use crate::UpecStats;
use std::fmt;

/// An error raised by the engine query path.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// A model constraint (or an obligation signal) could not be encoded on
    /// the unrolled miter.
    MalformedConstraint {
        /// Label of the offending constraint or signal.
        label: String,
        /// The unrolling's rejection, rendered.
        reason: String,
    },
    /// The commitment names a register pair the model does not have.
    UnknownRegister {
        /// The unmatched commitment entry.
        name: String,
    },
    /// The commitment restricts the obligation to nothing — a vacuous query
    /// that would "prove" any design secure.
    EmptyCommitment,
    /// A certified query was issued on a session opened without
    /// [`UnrollOptions::with_proof_log`](bmc::UnrollOptions::with_proof_log)
    /// (proven bounds need the proof log recording from the first clause on).
    CertificationUnavailable,
    /// The query stopped without a verdict — budget exhausted or cancelled —
    /// so there is nothing to certify. The effort spent is reported; the
    /// session stays valid and the query may be retried with a larger
    /// budget.
    UncertifiableVerdict {
        /// Window length of the undecided query.
        window: usize,
        /// Effort counters of the undecided query.
        stats: UpecStats,
        /// Why the solver stopped (see [`sat::StopCause`]).
        stop: Option<sat::StopCause>,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MalformedConstraint { label, reason } => {
                write!(f, "constraint `{label}` malformed: {reason}")
            }
            EngineError::UnknownRegister { name } => {
                write!(f, "commitment refers to unknown register `{name}`")
            }
            EngineError::EmptyCommitment => write!(f, "commitment must not be empty"),
            EngineError::CertificationUnavailable => write!(
                f,
                "certified queries need a session opened with UnrollOptions::with_proof_log()"
            ),
            EngineError::UncertifiableVerdict { window, stop, .. } => write!(
                f,
                "window {window} stopped without a verdict ({}): nothing to certify",
                match stop {
                    Some(sat::StopCause::BudgetExhausted) => "budget exhausted",
                    Some(sat::StopCause::Cancelled) => "cancelled",
                    None => "unknown cause",
                }
            ),
        }
    }
}

impl std::error::Error for EngineError {}
