//! The vocabulary of a UPEC query — commitments, alerts (paper Defs. 6 and
//! 7), outcomes and their statistics. Queries are posed through an
//! [`IncrementalSession`](crate::engine::IncrementalSession).

use crate::{StateClass, UpecModel};
use rtl::BitVec;
use std::collections::BTreeSet;
use std::time::Duration;

/// Severity of a UPEC counterexample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Secret data reached a program-invisible microarchitectural register
    /// (necessary but not sufficient for a covert channel).
    PAlert,
    /// Secret data affects an architectural register or the timing of its
    /// updates: a covert channel exists.
    LAlert,
}

/// A counterexample to the UPEC property.
#[derive(Debug, Clone)]
pub struct Alert {
    /// P-alert or L-alert.
    pub kind: AlertKind,
    /// Window length at which the alert was found.
    pub window: usize,
    /// Names of the differing architectural registers (non-empty for
    /// L-alerts).
    pub architectural_differences: Vec<String>,
    /// Names of the differing microarchitectural registers.
    pub microarchitectural_differences: Vec<String>,
    /// Final-frame values `(name, instance 1, instance 2)` of the differing
    /// registers, for diagnosis.
    pub differing_values: Vec<(String, BitVec, BitVec)>,
}

/// Statistics of one UPEC property check.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpecStats {
    /// CNF variables in the unrolled miter.
    pub variables: usize,
    /// CNF clauses in the unrolled miter.
    pub clauses: usize,
    /// SAT conflicts spent.
    pub conflicts: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Solver restarts performed.
    pub restarts: u64,
    /// Compacting clause-arena garbage collections performed.
    pub arena_collections: u64,
    /// Wall-clock runtime of the check.
    pub runtime: Duration,
    /// Window length checked.
    pub window: usize,
    /// Why the query's final solver episode stopped early: `None` for
    /// decided queries, [`sat::StopCause::BudgetExhausted`] /
    /// [`sat::StopCause::Cancelled`] behind an [`UpecOutcome::Unknown`].
    /// This is how budget exhaustion propagates honestly from the solver to
    /// the session's caller.
    pub stop: Option<sat::StopCause>,
}

/// Verdict of one UPEC property check.
#[derive(Debug, Clone)]
pub enum UpecOutcome {
    /// The property holds: no state in the commitment can differ at `t+k`.
    Proven(UpecStats),
    /// The property is violated.
    Violated(Alert, UpecStats),
    /// The solver stopped without a verdict (budget exhausted or
    /// cancelled; see [`UpecStats::stop`]).
    Unknown(UpecStats),
}

impl UpecOutcome {
    /// Whether the property was proven.
    pub fn is_proven(&self) -> bool {
        matches!(self, UpecOutcome::Proven(_))
    }

    /// The alert, if the property was violated.
    pub fn alert(&self) -> Option<&Alert> {
        match self {
            UpecOutcome::Violated(alert, _) => Some(alert),
            _ => None,
        }
    }

    /// Statistics of the check.
    pub fn stats(&self) -> UpecStats {
        match self {
            UpecOutcome::Proven(s) | UpecOutcome::Violated(_, s) | UpecOutcome::Unknown(s) => *s,
        }
    }

    /// Short stable name of the verdict (`"proven"`, `"p-alert"`,
    /// `"l-alert"` or `"unknown"`), shared by the bench binaries and the
    /// differential tests.
    pub fn verdict_name(&self) -> &'static str {
        match self {
            UpecOutcome::Proven(_) => "proven",
            UpecOutcome::Unknown(_) => "unknown",
            UpecOutcome::Violated(alert, _) => match alert.kind {
                AlertKind::PAlert => "p-alert",
                AlertKind::LAlert => "l-alert",
            },
        }
    }
}

/// The full commitment: every architectural and microarchitectural register.
pub fn full_commitment(model: &UpecModel) -> BTreeSet<String> {
    model
        .pairs()
        .iter()
        .filter(|p| p.class != StateClass::Memory)
        .map(|p| p.name.clone())
        .collect()
}

/// The architectural commitment: every architectural register, so any
/// counterexample is an L-alert.
pub fn architectural_commitment(model: &UpecModel) -> BTreeSet<String> {
    model
        .pairs_of_class(StateClass::Architectural)
        .map(|p| p.name.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IncrementalSession;
    use crate::SecretScenario;
    use soc::{SocConfig, SocVariant};

    #[test]
    fn secret_not_in_cache_produces_no_alert_at_window_one() {
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::NotInCache,
        );
        let outcome = IncrementalSession::new(&model).check_bound(1, &full_commitment(&model));
        assert!(outcome.is_proven(), "outcome: {outcome:?}");
    }

    #[test]
    fn secret_in_cache_produces_a_p_alert_on_the_secure_design() {
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        );
        let outcome = IncrementalSession::new(&model).check_bound(2, &full_commitment(&model));
        let alert = outcome.alert().expect("expected a propagation alert");
        assert_eq!(alert.kind, AlertKind::PAlert, "alert: {alert:?}");
        assert!(!alert.microarchitectural_differences.is_empty());
    }

    #[test]
    fn secure_design_has_no_l_alert_at_small_windows() {
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        );
        let commitment = architectural_commitment(&model);
        let mut session = IncrementalSession::new(&model);
        for k in 1..=2 {
            let outcome = session.check_bound(k, &commitment);
            assert!(
                outcome.is_proven(),
                "unexpected L-alert at window {k}: {:?}",
                outcome.alert()
            );
        }
    }

    #[test]
    fn orc_variant_produces_an_l_alert() {
        let model = UpecModel::new(&SocConfig::formal(SocVariant::Orc), SecretScenario::InCache);
        let commitment = architectural_commitment(&model);
        let mut session = IncrementalSession::new(&model);
        let (k, alert) = (1..=5)
            .find_map(|k| Some((k, session.check_bound(k, &commitment).alert()?.clone())))
            .expect("the Orc variant must leak within five cycles");
        assert_eq!(alert.kind, AlertKind::LAlert);
        assert!(k >= 2, "timing difference needs at least the stall cycle");
    }

    #[test]
    fn unknown_is_reported_when_the_budget_is_tiny() {
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        );
        let options = bmc::UnrollOptions::default().with_budget(sat::Budget::conflicts(1));
        let outcome = IncrementalSession::with_options(&model, options)
            .check_bound(2, &full_commitment(&model));
        assert!(
            matches!(outcome, UpecOutcome::Unknown(_)) || outcome.alert().is_some(),
            "a one-conflict budget cannot complete a proof: {outcome:?}"
        );
    }
}
