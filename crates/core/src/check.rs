//! Checking the UPEC property on a bounded model and classifying
//! counterexamples into P-alerts and L-alerts (paper Defs. 6 and 7).

use crate::{StateClass, UpecModel};
use rtl::BitVec;
use std::collections::BTreeSet;
use std::time::Duration;

/// Options for a single UPEC property check.
#[derive(Debug, Clone, Copy)]
pub struct UpecOptions {
    /// Window length `k` (number of clock cycles after the symbolic starting
    /// time point).
    pub window: usize,
    /// Deterministic per-query resource budget (conflicts / propagations /
    /// decisions; see [`sat::Budget`]). The budget covers each whole
    /// `check_bound` call; exhausted queries answer [`UpecOutcome::Unknown`]
    /// (the paper's "not feasible" windows) with the stop cause recorded in
    /// [`UpecStats::stop`], and the session stays resumable. Unlimited by
    /// default.
    pub budget: sat::Budget,
    /// Use the registers' reset values instead of a symbolic initial state
    /// (only used by the ablation study; real UPEC runs keep this `false`).
    pub from_reset_state: bool,
    /// Skip the solver's incremental-safe CNF simplification pipeline (the
    /// pre-simplifier baseline; used by differential tests). Real proofs
    /// keep this `false`.
    pub no_simplify: bool,
    /// Conflict budget of the trial solve that gates CNF simplification:
    /// only queries that exhaust this cap pay for the pipeline (see
    /// [`bmc::UnrollOptions::simplify_trial_conflicts`]).
    pub simplify_trial_conflicts: u64,
    /// Record a DRAT proof log while solving so verdicts can be packaged as
    /// independently checkable certificates
    /// ([`IncrementalSession::check_bound_certified`](crate::engine::IncrementalSession::check_bound_certified)).
    pub certify: bool,
    /// Search-loop feature configuration of the SAT solver (EMA restarts,
    /// rephasing, chronological backtracking, vivification). Defaults to
    /// all-on; [`sat::SearchConfig::baseline`] restores the plain
    /// Luby/phase-saving loop for differential testing.
    pub search: sat::SearchConfig,
}

impl UpecOptions {
    /// Creates options for a window of `k` cycles.
    pub fn window(k: usize) -> Self {
        Self {
            window: k,
            budget: sat::Budget::unlimited(),
            from_reset_state: false,
            no_simplify: false,
            simplify_trial_conflicts: bmc::UnrollOptions::default().simplify_trial_conflicts,
            certify: false,
            search: sat::SearchConfig::default(),
        }
    }

    /// Sets the deterministic per-query resource budget (see
    /// [`UpecOptions::budget`]).
    pub fn with_budget(mut self, budget: sat::Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Switches to reset-state bounded model checking (ablation only).
    pub fn from_reset(mut self) -> Self {
        self.from_reset_state = true;
        self
    }

    /// Disables CNF simplification (the pre-simplifier solving baseline).
    pub fn no_simplify(mut self) -> Self {
        self.no_simplify = true;
        self
    }

    /// Sets the conflict budget of the trial solve that gates CNF
    /// simplification (`0` simplifies before any query hitting a conflict).
    pub fn with_simplify_trial(mut self, conflicts: u64) -> Self {
        self.simplify_trial_conflicts = conflicts;
        self
    }

    /// Enables DRAT proof logging so verdicts can be certified (see
    /// [`crate::VerdictCertificate`]).
    pub fn with_certificates(mut self) -> Self {
        self.certify = true;
        self
    }

    /// Sets the solver's search-loop feature configuration (builder style).
    pub fn with_search(mut self, search: sat::SearchConfig) -> Self {
        self.search = search;
        self
    }
}

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

impl Alert {
    /// All differing register names regardless of class.
    pub fn differing_registers(&self) -> Vec<String> {
        self.architectural_differences
            .iter()
            .chain(&self.microarchitectural_differences)
            .cloned()
            .collect()
    }
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
    /// scan verdicts and reports.
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

/// Checks the UPEC interval property (paper Fig. 4) on a [`UpecModel`].
#[derive(Debug, Clone, Default)]
pub struct UpecChecker;

impl UpecChecker {
    /// Creates a checker.
    pub fn new() -> Self {
        Self
    }

    /// Checks the property with the obligation restricted to `commitment`
    /// (register-pair names). Pairs outside the commitment may freely differ
    /// at `t+k` — this is how the methodology tolerates already-diagnosed
    /// P-alerts. Memory-class pairs are never part of the obligation.
    ///
    /// This is a one-shot convenience wrapper: it opens an
    /// [`IncrementalSession`](crate::engine::IncrementalSession) for a single
    /// query. Flows that re-solve the property — deepening the bound,
    /// shrinking the commitment, or sweeping scenarios — should hold on to a
    /// session (or use the [`UpecEngine`](crate::UpecEngine)) to reuse solver
    /// state across queries.
    ///
    /// # Panics
    ///
    /// Panics if a commitment name does not exist in the model.
    pub fn check(
        &self,
        model: &UpecModel,
        options: UpecOptions,
        commitment: &BTreeSet<String>,
    ) -> UpecOutcome {
        let mut session = crate::engine::IncrementalSession::with_options(model, options);
        session.check_bound(options.window, commitment)
    }

    /// Convenience: checks with the commitment set to *all* architectural and
    /// microarchitectural registers (the first iteration of the
    /// methodology).
    pub fn check_full(&self, model: &UpecModel, options: UpecOptions) -> UpecOutcome {
        let commitment = full_commitment(model);
        self.check(model, options, &commitment)
    }

    /// Convenience: checks with the commitment restricted to architectural
    /// registers only, so any counterexample is an L-alert.
    pub fn check_architectural(&self, model: &UpecModel, options: UpecOptions) -> UpecOutcome {
        let commitment: BTreeSet<String> = model
            .pairs_of_class(StateClass::Architectural)
            .map(|p| p.name.clone())
            .collect();
        self.check(model, options, &commitment)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SecretScenario;
    use soc::{SocConfig, SocVariant};

    fn tiny(variant: SocVariant) -> SocConfig {
        SocConfig::new(variant)
            .with_registers(4)
            .with_cache_lines(2)
            .with_miss_latency(1)
            .with_store_latency(1)
    }

    #[test]
    fn secret_not_in_cache_produces_no_alert_at_window_one() {
        let model = UpecModel::new(&tiny(SocVariant::Secure), SecretScenario::NotInCache);
        let outcome = UpecChecker::new().check_full(&model, UpecOptions::window(1));
        assert!(outcome.is_proven(), "outcome: {outcome:?}");
    }

    #[test]
    fn secret_in_cache_produces_a_p_alert_on_the_secure_design() {
        let model = UpecModel::new(&tiny(SocVariant::Secure), SecretScenario::InCache);
        let outcome = UpecChecker::new().check_full(&model, UpecOptions::window(2));
        let alert = outcome.alert().expect("expected a propagation alert");
        assert_eq!(alert.kind, AlertKind::PAlert, "alert: {alert:?}");
        assert!(!alert.microarchitectural_differences.is_empty());
    }

    #[test]
    fn secure_design_has_no_l_alert_at_small_windows() {
        let model = UpecModel::new(&tiny(SocVariant::Secure), SecretScenario::InCache);
        for k in 1..=2 {
            let outcome = UpecChecker::new().check_architectural(&model, UpecOptions::window(k));
            assert!(
                outcome.is_proven(),
                "unexpected L-alert at window {k}: {:?}",
                outcome.alert()
            );
        }
    }

    #[test]
    fn orc_variant_produces_an_l_alert() {
        let model = UpecModel::new(&tiny(SocVariant::Orc), SecretScenario::InCache);
        let mut found = None;
        for k in 1..=5 {
            let outcome = UpecChecker::new().check_architectural(&model, UpecOptions::window(k));
            if let Some(alert) = outcome.alert() {
                found = Some((k, alert.clone()));
                break;
            }
        }
        let (k, alert) = found.expect("the Orc variant must leak within five cycles");
        assert_eq!(alert.kind, AlertKind::LAlert);
        assert!(k >= 2, "timing difference needs at least the stall cycle");
    }

    #[test]
    fn unknown_is_reported_when_the_budget_is_tiny() {
        let model = UpecModel::new(&tiny(SocVariant::Secure), SecretScenario::InCache);
        let options = UpecOptions::window(2).with_budget(sat::Budget::conflicts(1));
        let outcome = UpecChecker::new().check_full(&model, options);
        assert!(
            matches!(outcome, UpecOutcome::Unknown(_)) || outcome.alert().is_some(),
            "a one-conflict budget cannot complete a proof: {outcome:?}"
        );
    }
}
