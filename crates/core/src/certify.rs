//! Checkable verdict certificates (paper-level trust story).
//!
//! A UPEC verdict is only as trustworthy as the solver stack that produced
//! it. This module packages each query's outcome as a [`VerdictCertificate`]
//! that can be re-checked *without re-solving*, by machinery independent of
//! the CDCL search, clause-database reduction and CNF simplification that
//! could silently corrupt a verdict:
//!
//! * a **proven** bound carries the trimmed DRAT refutation of the query's
//!   frame CNF, replayed by the reverse-unit-propagation checker in
//!   [`sat::drat`];
//! * a **violated** bound carries the counterexample decoded into a concrete
//!   [`sim::WitnessTrace`], replayed on the word-level simulator to confirm
//!   that the trace is a run of the constrained miter and that the
//!   committed register pairs really diverge as the alert claims.
//!
//! Certificates are produced by every decided query of a session opened
//! with a proof log
//! ([`IncrementalSession::try_check_bound`](crate::engine::IncrementalSession::try_check_bound)),
//! which is how [`UpecEngine::check_certified`](crate::UpecEngine::check_certified)
//! certifies its walk; the format and its soundness argument are documented
//! in `docs/certificates.md` at the repository root.

use crate::{StateClass, UpecModel};
use rtl::BitVec;
use sat::drat::{self, CheckError, CheckReport};
use sat::{Lit, ProofLog};
use sim::{Simulator, WitnessTrace};

/// Certificate of a *proven* bound: a trimmed DRAT refutation of the query's
/// CNF under its activation-literal assumptions.
#[derive(Debug, Clone)]
pub struct UnsatCertificate {
    /// Window length of the certified query.
    pub window: usize,
    /// The trimmed refutation log. Axioms are the clauses of the unrolled
    /// frame CNF (plus the guarded obligation clause) that the refutation
    /// actually touches — an unsatisfiable core — and lemmas are the derived
    /// clauses it depends on.
    pub proof: ProofLog,
    /// Literals the query assumed (the obligation's activation literal);
    /// the certificate claims *axioms ∧ assumptions* is unsatisfiable.
    pub assumptions: Vec<Lit>,
}

/// Certificate of a *violated* bound: a replayable counterexample stimulus
/// plus the register divergences it must reproduce.
#[derive(Debug, Clone)]
pub struct WitnessCertificate {
    /// Window length of the certified query.
    pub window: usize,
    /// The decoded per-cycle input/state stimulus.
    pub trace: WitnessTrace,
    /// Final-frame values `(pair name, instance 1, instance 2)` of every
    /// differing committed register pair, exactly as the alert reported them.
    pub expected_divergences: Vec<(String, BitVec, BitVec)>,
}

/// A checkable proof artifact for one UPEC query.
#[derive(Debug, Clone)]
pub enum VerdictCertificate {
    /// The bound was proven; the certificate is a DRAT refutation.
    Proof(UnsatCertificate),
    /// The bound was violated; the certificate is a replayable witness.
    Witness(WitnessCertificate),
}

/// Successful result of re-checking a certificate.
#[derive(Debug, Clone)]
pub enum CertificateCheck {
    /// The DRAT refutation replayed; the report carries checker effort
    /// counters (see [`sat::drat::CheckReport`]).
    Proof(CheckReport),
    /// The witness replayed and reproduced every expected divergence.
    Witness {
        /// Clock cycles simulated.
        cycles: usize,
        /// Number of register-pair divergences confirmed.
        divergences_confirmed: usize,
    },
}

/// Why a certificate failed to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// The DRAT checker rejected the refutation.
    Proof(CheckError),
    /// The witness trace failed to replay (a name did not resolve).
    Replay(sim::SimError),
    /// The witness claims a divergence on a register pair the model does not
    /// have.
    UnknownPair(String),
    /// The witness carries no divergences, so it certifies nothing.
    EmptyWitness,
    /// The witness trace is not a run of the constrained miter: it breaks
    /// an equal initial value of a non-memory register pair, an initial
    /// constraint or a window constraint.
    ConstraintViolated {
        /// Label of the broken constraint (see [`crate::NamedConstraint`]).
        label: String,
        /// Cycle at which the constraint does not hold.
        cycle: usize,
    },
    /// Replaying the witness produced different final register values than
    /// the alert recorded.
    DivergenceMismatch {
        /// Name of the mismatching register pair.
        name: String,
        /// Values the alert recorded (instance 1, instance 2).
        expected: (BitVec, BitVec),
        /// Values the replay produced (instance 1, instance 2).
        replayed: (BitVec, BitVec),
    },
}

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateError::Proof(e) => write!(f, "DRAT refutation rejected: {e}"),
            CertificateError::Replay(e) => write!(f, "witness replay failed: {e}"),
            CertificateError::UnknownPair(name) => {
                write!(f, "witness names unknown register pair `{name}`")
            }
            CertificateError::EmptyWitness => {
                write!(f, "witness certificate carries no divergences")
            }
            CertificateError::ConstraintViolated { label, cycle } => {
                write!(f, "witness breaks `{label}` at cycle {cycle}")
            }
            CertificateError::DivergenceMismatch {
                name,
                expected,
                replayed,
            } => write!(
                f,
                "register pair `{name}` diverged as {:?}/{:?} in replay, \
                 alert recorded {:?}/{:?}",
                replayed.0, replayed.1, expected.0, expected.1
            ),
        }
    }
}

impl std::error::Error for CertificateError {}

impl VerdictCertificate {
    /// Window length of the certified query.
    pub fn window(&self) -> usize {
        match self {
            VerdictCertificate::Proof(c) => c.window,
            VerdictCertificate::Witness(c) => c.window,
        }
    }

    /// Stable kind name (`"proof"` or `"witness"`), shared by telemetry and
    /// the bench binaries.
    pub fn kind_name(&self) -> &'static str {
        match self {
            VerdictCertificate::Proof(_) => "proof",
            VerdictCertificate::Witness(_) => "witness",
        }
    }

    /// Approximate in-memory size of the certificate, for reporting.
    pub fn size_bytes(&self) -> usize {
        match self {
            VerdictCertificate::Proof(c) => c.proof.size_bytes(),
            VerdictCertificate::Witness(c) => c.trace.size_bytes(),
        }
    }

    /// Re-checks the certificate against `model` without re-solving.
    ///
    /// * [`VerdictCertificate::Proof`]: replays the DRAT log through the
    ///   independent reverse-unit-propagation checker.
    /// * [`VerdictCertificate::Witness`]: replays the stimulus on a fresh
    ///   [`sim::Simulator`] for the miter netlist, confirms that it is a run
    ///   of the constrained miter — equal initial values of every non-memory
    ///   register pair and the initial constraints at cycle 0, the window
    ///   constraints at every cycle — and confirms every recorded divergence:
    ///   values of both instances at the final cycle must match the alert,
    ///   and must actually differ.
    ///
    /// The check is wrapped in a `cert.check` telemetry span carrying the
    /// certificate's kind, window and size.
    ///
    /// # Errors
    ///
    /// Returns a [`CertificateError`] describing the first discrepancy.
    pub fn check(&self, model: &UpecModel) -> Result<CertificateCheck, CertificateError> {
        let mut span = obs::span("cert.check");
        span.attr_str("kind", self.kind_name());
        span.attr_u64("window", self.window() as u64);
        span.attr_u64("size_bytes", self.size_bytes() as u64);
        let result = match self {
            VerdictCertificate::Proof(c) => {
                span.attr_u64("events", c.proof.num_events() as u64);
                drat::check(&c.proof, &c.assumptions)
                    .map(CertificateCheck::Proof)
                    .map_err(CertificateError::Proof)
            }
            VerdictCertificate::Witness(c) => check_witness(c, model),
        };
        span.attr_str("result", if result.is_ok() { "ok" } else { "rejected" });
        result
    }
}

/// Replays a witness certificate, checking it against the miter's
/// constraints frame by frame, and confirms its divergences.
fn check_witness(
    cert: &WitnessCertificate,
    model: &UpecModel,
) -> Result<CertificateCheck, CertificateError> {
    if cert.expected_divergences.is_empty() {
        return Err(CertificateError::EmptyWitness);
    }
    let mut broken = None;
    let mut sim = cert
        .trace
        .replay(model.netlist().clone(), |cycle, sim| {
            if broken.is_none() {
                broken = broken_constraint(model, cycle, sim)
                    .map(|label| CertificateError::ConstraintViolated { label, cycle });
            }
        })
        .map_err(CertificateError::Replay)?;
    if let Some(error) = broken {
        return Err(error);
    }
    for (name, value1, value2) in &cert.expected_divergences {
        let pair = model
            .pair(name)
            .ok_or_else(|| CertificateError::UnknownPair(name.clone()))?;
        let (replayed1, replayed2) = (sim.peek(pair.signal1), sim.peek(pair.signal2));
        if replayed1 != *value1 || replayed2 != *value2 || value1 == value2 {
            return Err(CertificateError::DivergenceMismatch {
                name: name.clone(),
                expected: (*value1, *value2),
                replayed: (replayed1, replayed2),
            });
        }
    }
    Ok(CertificateCheck::Witness {
        cycles: cert.trace.cycles(),
        divergences_confirmed: cert.expected_divergences.len(),
    })
}

/// The label of the first miter constraint the replay breaks at `cycle`:
/// the assumptions every UPEC query makes (paper Fig. 4). At cycle 0 those
/// are the equal initial values of the non-memory register pairs (the
/// session's frame-0 aliases) and the initial constraints; at every cycle,
/// the window constraints.
fn broken_constraint(model: &UpecModel, cycle: usize, sim: &mut Simulator) -> Option<String> {
    if cycle == 0 {
        let unequal = model
            .pairs()
            .iter()
            .filter(|p| p.class != StateClass::Memory)
            .find(|p| sim.peek(p.signal1) != sim.peek(p.signal2));
        if let Some(pair) = unequal {
            return Some(format!("equal initial value of `{}`", pair.name));
        }
    }
    let initial = if cycle == 0 {
        model.initial_constraints()
    } else {
        &[]
    };
    initial
        .iter()
        .chain(model.window_constraints())
        .find(|c| sim.peek(c.signal).is_zero())
        .map(|c| c.label.clone())
}
