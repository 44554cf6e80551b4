//! The iterative UPEC methodology (paper Fig. 5) and the inductive P-alert
//! closure proof (paper Sec. VI).

use crate::engine::IncrementalSession;
use crate::{
    full_commitment, Alert, AlertKind, SecretScenario, StateClass, UpecModel, UpecOutcome,
};
use bmc::{UnrollOptions, Unrolling};
use sat::SatResult;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Final security verdict of a methodology run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No alert can reach an architectural register within the window and the
    /// collected P-alerts were shown not to be extensible (or none occurred).
    Secure,
    /// An L-alert was found: the design has a covert channel.
    Insecure,
    /// The analysis ran out of solver budget before reaching a verdict.
    Inconclusive,
}

/// Report of one methodology run (one column of the paper's Table I, or one
/// design variant of Table II).
#[derive(Debug, Clone)]
pub struct MethodologyReport {
    /// Scenario analysed.
    pub scenario: SecretScenario,
    /// Window length used.
    pub window: usize,
    /// Verdict.
    pub verdict: Verdict,
    /// Every alert produced during the iteration, in order of discovery.
    pub alerts: Vec<Alert>,
    /// Union of all registers named by P-alerts.
    pub p_alert_registers: BTreeSet<String>,
    /// Total wall-clock time of all property checks.
    pub proof_runtime: Duration,
    /// Number of property-check iterations.
    pub iterations: usize,
}

impl MethodologyReport {
    /// Number of P-alerts found.
    pub fn p_alert_count(&self) -> usize {
        self.alerts
            .iter()
            .filter(|a| a.kind == AlertKind::PAlert)
            .count()
    }

    /// Renders a short human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{}: window {}, {:?}, {} P-alerts over {} registers, {} iterations, {:.2?}",
            self.scenario.label(),
            self.window,
            self.verdict,
            self.p_alert_count(),
            self.p_alert_registers.len(),
            self.iterations,
            self.proof_runtime,
        )
    }
}

/// Runs the iterative UPEC methodology of paper Fig. 5 at window `window`.
///
/// Starting from the full commitment (every architectural and
/// microarchitectural register), each counterexample is classified:
///
/// * **L-alert** — the design is insecure; the iteration stops.
/// * **P-alert** — the differing microarchitectural registers are recorded,
///   removed from the proof obligation, and the property is re-checked.
///
/// The process terminates because each P-alert removes at least one register
/// from the commitment.
///
/// Every iteration re-solves the property with a smaller obligation, so the
/// whole loop runs inside one [`IncrementalSession`], opened with `options`:
/// the unrolled miter and all learned solver state persist across
/// iterations instead of being rebuilt per check.
pub fn run_methodology(
    model: &UpecModel,
    window: usize,
    options: UnrollOptions,
) -> MethodologyReport {
    let mut session = IncrementalSession::with_options(model, options);
    let start = Instant::now();
    let mut commitment = full_commitment(model);
    let mut alerts = Vec::new();
    let mut p_alert_registers = BTreeSet::new();
    let mut iterations = 0;
    let verdict = loop {
        iterations += 1;
        match session.check_bound(window, &commitment) {
            UpecOutcome::Proven(_) => break Verdict::Secure,
            UpecOutcome::Unknown(_) => break Verdict::Inconclusive,
            UpecOutcome::Violated(alert, _) => {
                let is_l = alert.kind == AlertKind::LAlert;
                if is_l {
                    alerts.push(alert);
                    break Verdict::Insecure;
                }
                for reg in &alert.microarchitectural_differences {
                    p_alert_registers.insert(reg.clone());
                    commitment.remove(reg);
                }
                alerts.push(alert);
                if commitment.is_empty() {
                    break Verdict::Secure;
                }
            }
        }
    };
    MethodologyReport {
        scenario: model.scenario(),
        window,
        verdict,
        alerts,
        p_alert_registers,
        proof_runtime: start.elapsed(),
        iterations,
    }
}

/// Outcome of the inductive P-alert closure proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClosureOutcome {
    /// The P-alert set is closed: differences confined to the alerted
    /// registers (under their blocking conditions) can never propagate to an
    /// architectural register, so the design is secure beyond the bounded
    /// window.
    Closed {
        /// Wall-clock time of the proof.
        runtime: Duration,
    },
    /// The fixpoint stopped without closing: in the last induction step a
    /// difference escaped to a register that cannot join the set (an
    /// architectural one, memory, or one without a blocking condition), or
    /// every escapee already was in the set. Either a deeper analysis or a
    /// real leak.
    NotClosed {
        /// Obligations that failed in the last induction step.
        escaping_registers: Vec<String>,
        /// Wall-clock time of the proof.
        runtime: Duration,
    },
}

impl ClosureOutcome {
    /// Whether the alert set was proven closed.
    pub fn is_closed(&self) -> bool {
        matches!(self, ClosureOutcome::Closed { .. })
    }
}

/// Grows a set of P-alerting registers to its inductive closure and proves
/// it closed (paper Sec. VI).
///
/// The registers named by the bounded methodology's P-alerts are a *seed*:
/// a difference confined to them may, one cycle later, surface in a
/// neighbouring pipeline register that no bounded counterexample happened to
/// name. Each induction step reports such registers as *escaping*; as long
/// as every escapee is microarchitectural and has a blocking condition (so
/// the weaker equal-or-blocked invariant applies to it), it is sound to add
/// it to the set and retry. The set only grows and is bounded by the model's
/// register pairs, so the loop ends without a cap.
///
/// Returns the final register set together with the outcome:
/// [`ClosureOutcome::Closed`] when an induction step holds, or
/// [`ClosureOutcome::NotClosed`] with the last step's escapees when one of
/// them is architectural or unblockable (a genuine leak candidate) or the
/// set stops growing. The runtime covers every step.
pub fn prove_alert_closure(
    model: &UpecModel,
    alert_registers: &BTreeSet<String>,
) -> (BTreeSet<String>, ClosureOutcome) {
    let start = Instant::now();
    let blockable = |name: &String| {
        model.pair(name).is_some_and(|pair| {
            pair.class == StateClass::Microarchitectural && pair.equal_or_blocked != pair.equal
        })
    };
    let mut set = alert_registers.clone();
    loop {
        let Some(escaping) = closure_step(model, &set) else {
            let runtime = start.elapsed();
            return (set, ClosureOutcome::Closed { runtime });
        };
        // Decide about every escapee before growing the set, so a failure
        // returns exactly the set its step was proven against.
        if !escaping.iter().all(blockable) || escaping.iter().all(|name| set.contains(name)) {
            let outcome = ClosureOutcome::NotClosed {
                escaping_registers: escaping,
                runtime: start.elapsed(),
            };
            return (set, outcome);
        }
        set.extend(escaping);
    }
}

/// One induction step of the closure proof.
///
/// The inductive invariant is:
///
/// * every architectural register pair is equal,
/// * every microarchitectural pair outside the alert set is equal,
/// * every pair inside the alert set is either equal or its stage is blocked
///   from committing in both instances (the per-register blocking condition
///   identified during P-alert diagnosis),
/// * the cache data arrays are equal except for the secret's line.
///
/// The step assumes the invariant (and the UPEC side constraints) at an
/// arbitrary time point and checks that it still holds one clock cycle
/// later. Returns `None` when it does — no sequence of P-alerts can then
/// ever grow into an L-alert — and otherwise the names of the obligations
/// that fail one cycle later.
fn closure_step(model: &UpecModel, alert_registers: &BTreeSet<String>) -> Option<Vec<String>> {
    // Pairs outside the alert set start structurally equal; alerted pairs
    // keep independent frame-0 variables because the invariant only requires
    // them to be equal-or-blocked.
    let aliases: Vec<_> = model
        .pairs()
        .iter()
        .filter(|p| p.class != StateClass::Memory && !alert_registers.contains(&p.name))
        .map(|p| (p.signal2, p.signal1))
        .collect();
    let mut unrolling = Unrolling::with_compiled(
        std::sync::Arc::clone(model.compiled_transition()),
        UnrollOptions::default(),
        &aliases,
    );
    unrolling.extend_to(1);

    // Side constraints in both frames.
    for constraint in model.window_constraints() {
        for frame in 0..=1 {
            unrolling
                .assume_signal_true(frame, constraint.signal)
                .expect("window constraint is a single bit");
        }
    }
    for constraint in model.initial_constraints() {
        unrolling
            .assume_signal_true(0, constraint.signal)
            .expect("initial constraint is a single bit");
    }
    // Memory equivalence must also be maintained, so it is part of the
    // invariant (assumed at 0, proven at 1).
    let memory_equivalence = model.memory_equivalence();

    // Assume the invariant at frame 0.
    for pair in model.pairs() {
        if pair.class == StateClass::Memory {
            continue;
        }
        if alert_registers.contains(&pair.name) {
            unrolling
                .assume_signal_true(0, pair.equal_or_blocked)
                .expect("equal_or_blocked is a single bit");
        } else {
            unrolling
                .assume_signals_equal(0, pair.signal1, pair.signal2)
                .expect("paired registers have equal widths");
        }
    }

    // Prove the invariant at frame 1.
    let mut obligation = Vec::new();
    for pair in model.pairs() {
        if pair.class == StateClass::Memory {
            continue;
        }
        let signal = if alert_registers.contains(&pair.name) {
            pair.equal_or_blocked
        } else {
            pair.equal
        };
        let lit = unrolling.bit_lit(1, signal).expect("single bit");
        obligation.push((pair.name.clone(), lit));
    }
    let mem_lit = unrolling
        .bit_lit(1, memory_equivalence)
        .expect("single bit");
    obligation.push(("memory equivalence".to_string(), mem_lit));
    unrolling.add_clause(obligation.iter().map(|(_, l)| !*l));

    match unrolling.solve(&[]) {
        SatResult::Unsat => None,
        SatResult::Unknown => unreachable!("an unbudgeted, uncancellable solve always decides"),
        SatResult::Sat(sat_model) => Some(
            obligation
                .iter()
                .filter(|(_, l)| !sat_model.lit_is_true(*l))
                .map(|(name, _)| name.clone())
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc::{SocConfig, SocVariant};

    #[test]
    fn methodology_proves_the_uncached_case_secure_without_alerts() {
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::NotInCache,
        );
        let report = run_methodology(&model, 2, UnrollOptions::default());
        assert_eq!(report.verdict, Verdict::Secure, "{}", report.summary());
        assert_eq!(report.p_alert_count(), 0);
        assert_eq!(report.iterations, 1);
    }

    #[test]
    fn methodology_collects_p_alerts_for_the_secure_cached_case() {
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        );
        let report = run_methodology(&model, 2, UnrollOptions::default());
        assert_eq!(report.verdict, Verdict::Secure, "{}", report.summary());
        assert!(report.p_alert_count() >= 1);
        assert!(!report.p_alert_registers.is_empty());
        // The classic first P-alert: the cache's hit data captured into the
        // EX/MEM result register.
        assert!(
            report
                .p_alert_registers
                .iter()
                .any(|r| r.starts_with("ex_mem") || r.starts_with("mem_wb")),
            "registers: {:?}",
            report.p_alert_registers
        );
    }

    #[test]
    fn methodology_flags_the_orc_variant_as_insecure() {
        // The Orc L-alert is already reachable at window 2; deeper windows
        // only make the queries more expensive without changing the verdict.
        let model = UpecModel::new(&SocConfig::formal(SocVariant::Orc), SecretScenario::InCache);
        let report = run_methodology(&model, 2, UnrollOptions::default());
        assert_eq!(report.verdict, Verdict::Insecure, "{}", report.summary());
        let last = report.alerts.last().expect("an L-alert terminates the run");
        assert_eq!(last.kind, AlertKind::LAlert);
    }

    #[test]
    fn closure_proof_succeeds_for_the_secure_design() {
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        );
        let report = run_methodology(&model, 2, UnrollOptions::default());
        assert_eq!(report.verdict, Verdict::Secure);
        // The bounded P-alerts seed the set; the fixpoint iteration may pull
        // in neighbouring blockable pipeline registers before it closes.
        let (closed_set, closure) = prove_alert_closure(&model, &report.p_alert_registers);
        assert!(closure.is_closed(), "closure: {closure:?}");
        assert!(closed_set.is_superset(&report.p_alert_registers));
    }
}
