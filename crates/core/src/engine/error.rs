//! Typed errors of the engine query path.
//!
//! A commitment — the register pairs a query's obligation keeps equal — is
//! the one caller input a query can get wrong.
//! [`IncrementalSession::try_check_bound`] rejects a malformed one with an
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

/// A malformed commitment, rejected by the engine query path.
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
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownRegister { name } => {
                write!(f, "commitment refers to unknown register `{name}`")
            }
            EngineError::EmptyCommitment => write!(f, "commitment must not be empty"),
        }
    }
}

impl std::error::Error for EngineError {}
