//! Typed errors of the engine query path.
//!
//! A query's caller inputs are its commitment — the register pairs its
//! obligation keeps equal — and its window. A commitment can be malformed,
//! and a window can go below the deepest one the session has constrained.
//! [`IncrementalSession::try_check_bound`] rejects either with an
//! [`EngineError`] before it encodes anything, so the session stays as it
//! was; [`IncrementalSession::check_bound`] panics on it instead. A query
//! that stops without a verdict is not an error: it answers
//! [`UpecOutcome::Unknown`], with the stop cause in [`UpecStats::stop`] and
//! no certificate.
//!
//! [`IncrementalSession::try_check_bound`]: crate::engine::IncrementalSession::try_check_bound
//! [`IncrementalSession::check_bound`]: crate::engine::IncrementalSession::check_bound
//! [`UpecOutcome::Unknown`]: crate::UpecOutcome::Unknown
//! [`UpecStats::stop`]: crate::UpecStats::stop

use std::fmt;

/// A malformed commitment or an out-of-order window, rejected by the engine
/// query path.
#[derive(Debug, Clone)]
pub enum EngineError {
    /// The commitment names a register pair the model does not have.
    UnknownRegister {
        /// The unmatched commitment entry.
        name: String,
    },
    /// The commitment restricts the obligation to nothing — a vacuous query
    /// that would "prove" any design secure.
    EmptyCommitment,
    /// The window is below the deepest one the session has constrained: the
    /// deeper frames' window constraints are permanent, so the query would
    /// be posed under premises on frames it never asked for.
    WindowBelowSession {
        /// The rejected window.
        window: usize,
        /// The deepest window the session has constrained.
        deepest: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownRegister { name } => {
                write!(f, "commitment refers to unknown register `{name}`")
            }
            EngineError::EmptyCommitment => write!(f, "commitment must not be empty"),
            EngineError::WindowBelowSession { window, deepest } => write!(
                f,
                "window {window} is below window {deepest}, the deepest this session has constrained"
            ),
        }
    }
}

impl std::error::Error for EngineError {}
