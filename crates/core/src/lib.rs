//! # `upec` — Unique Program Execution Checking
//!
//! This crate implements the contribution of the DATE 2019 paper *"Processor
//! Hardware Security Vulnerabilities and their Detection by Unique Program
//! Execution Checking"*: an exhaustive, formal method that detects **covert
//! channels** in a processor's RTL without needing to anticipate any specific
//! attack.
//!
//! The flow mirrors the paper:
//!
//! 1. [`UpecModel`] builds the two-instance *miter* of Fig. 3 — two identical
//!    SoC instances whose memories agree everywhere except at one protected
//!    (secret) location — together with the side constraints of Sec. V
//!    (no ongoing protected access, cache-protocol monitor, secure system
//!    software, equality of non-protected memory).
//! 2. [`IncrementalSession::check_bound`] checks the UPEC interval property
//!    of Fig. 4 at a window `k` under a commitment ([`full_commitment`],
//!    [`architectural_commitment`] or any register subset), on a bounded
//!    model with a *symbolic initial state* (interval property checking),
//!    classifying counterexamples into [`AlertKind::PAlert`] and
//!    [`AlertKind::LAlert`] (Defs. 6/7).
//! 3. [`run_methodology`] drives the iterative analysis of Fig. 5: P-alerting
//!    registers are removed from the proof obligation until the design is
//!    proven or an L-alert demonstrates a covert channel.
//! 4. [`prove_alert_closure`] completes the argument for secure designs with
//!    the inductive proof of Sec. VI: it grows the P-alerting registers to
//!    their inductive closure and proves that differences confined to them
//!    can never reach architectural state.
//!
//! Beyond the paper, these subsystems make the flow scale:
//!
//! * the [`engine`] module — [`IncrementalSession`] (the one way to pose a
//!   query: one persistent SAT solver per miter, reused across bound
//!   deepening and commitment shrinking, configured by
//!   [`bmc::UnrollOptions`], whose resumable [`sat::Budget`] caps a query's
//!   conflicts) and [`UpecEngine`] (a miter-parallel worker pool: one
//!   unbudgeted session per miter walks every instance of that miter, and a
//!   certified scan is the same walk with the proof log on);
//! * the [`scenarios`] module — the named registry of every attack scenario
//!   the reproduction checks, each with its [`soc::SocConfig`] (design
//!   variant and geometry), paper reference and expected verdict, shared by
//!   the engine, the bench binaries, the examples and the tests;
//! * **checkable verdicts** — every decided query on a session that logs a
//!   proof returns a [`VerdictCertificate`]
//!   ([`IncrementalSession::try_check_bound`]): proven bounds carry a
//!   trimmed DRAT refutation replayed by the independent checker in
//!   [`sat::drat`], violated bounds carry a concrete witness trace replayed
//!   on the word-level simulator, [`sim::Simulator`] (see
//!   `docs/certificates.md`). The ISA-level golden model is
//!   [`soc::GoldenModel`]; it checks the RTL by co-simulation, not
//!   certificates.
//!
//! # Example
//!
//! ```
//! use soc::{SocConfig, SocVariant};
//! use upec::{full_commitment, IncrementalSession, SecretScenario, UpecModel};
//!
//! // The reduced formal geometry keeps the proof fast for the doc test.
//! let config = SocConfig::formal(SocVariant::Secure);
//! let model = UpecModel::new(&config, SecretScenario::NotInCache);
//! let outcome = IncrementalSession::new(&model).check_bound(1, &full_commitment(&model));
//! assert!(outcome.is_proven());
//! ```

#![warn(missing_docs)]

mod certify;
mod check;
mod methodology;
mod model;

pub mod engine;
pub mod scenarios;

pub use certify::{
    CertificateCheck, CertificateError, UnsatCertificate, VerdictCertificate, WitnessCertificate,
};
pub use check::{
    architectural_commitment, full_commitment, Alert, AlertKind, UpecOutcome, UpecStats,
};
pub use engine::{
    BoundStatus, BoundSummary, CertifiedBound, CertifiedResult, EngineError, EngineOptions,
    IncrementalSession, InstanceResult, ScanVerdict, UpecEngine,
};
pub use methodology::{
    prove_alert_closure, run_methodology, ClosureOutcome, MethodologyReport, Verdict,
};
pub use model::{NamedConstraint, RegisterPair, SecretScenario, UpecModel};
pub use soc::StateClass;
