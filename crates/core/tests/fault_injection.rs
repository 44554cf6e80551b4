#![cfg(feature = "faults")]
//! Differential fault-injection suite (compiled only with `--features
//! faults`; `scripts/verify.sh` runs the fast differential, `--full` adds
//! the ignored sweep).
//!
//! A deterministic fault — a forced budget exhaustion, a spurious
//! cancellation at a restart boundary, an abort between restart
//! boundaries — is armed at a
//! SplitMix64-chosen point inside an engine query. The contract under test:
//! the faulted query either still reaches the fault-free verdict or answers
//! [`UpecOutcome::Unknown`] with an honest stop cause — never a wrong
//! verdict, never a panic — and the session *resumes*: re-checking the same
//! bound afterwards reaches exactly the fault-free verdict.

use sat::faults::FaultPlan;
use sat::StopCause;
use soc::{SocConfig, SocVariant};
use upec::{IncrementalSession, SecretScenario, UpecModel, UpecOutcome};

/// Runs the differential for one (model, bound) pair over `seeds` fault
/// plans; returns how many injected faults actually fired.
fn differential(model: &UpecModel, k: usize, seeds: std::ops::Range<u64>) -> u64 {
    let commitment = upec::full_commitment(model);
    let clean = IncrementalSession::new(model).check_bound(k, &commitment);
    let mut fired = 0u64;
    for seed in seeds {
        let plan = FaultPlan::from_seed(seed, 30);
        let mut session = IncrementalSession::new(model);
        session.inject_fault(Some(plan));
        let faulted = session.check_bound(k, &commitment);
        match &faulted {
            UpecOutcome::Unknown(stats) => {
                fired += 1;
                assert!(
                    matches!(
                        stats.stop,
                        Some(StopCause::BudgetExhausted | StopCause::Cancelled)
                    ),
                    "seed {seed}: fault stop misattributed: {:?}",
                    stats.stop
                );
            }
            decided => assert_eq!(
                decided.verdict_name(),
                clean.verdict_name(),
                "seed {seed}: fault flipped the verdict"
            ),
        }
        // The plan is one-shot; the resumed query must reach the fault-free
        // verdict on the same (possibly interrupted) session.
        let resumed = session.check_bound(k, &commitment);
        assert_eq!(
            resumed.verdict_name(),
            clean.verdict_name(),
            "seed {seed}: session poisoned — resume diverged from the clean verdict"
        );
    }
    fired
}

#[test]
fn injected_faults_never_flip_engine_verdicts() {
    // One alerting and one proven miter cover both verdict paths.
    let orc = UpecModel::new(&SocConfig::formal(SocVariant::Orc), SecretScenario::InCache);
    let secure = UpecModel::new(
        &SocConfig::formal(SocVariant::Secure),
        SecretScenario::NotInCache,
    );
    let fired = differential(&orc, 2, 0..6) + differential(&secure, 1, 6..12);
    assert!(
        fired > 0,
        "no injected fault ever fired; the differential is vacuous"
    );
}

/// Full sweep over many seeds and a P-alerting miter; multi-minute in debug
/// builds, so opt-in: `cargo test -p upec --release --features faults -- --ignored`.
#[test]
#[ignore = "wide fault-injection sweep; run via scripts/verify.sh --full"]
fn injected_fault_sweep_is_verdict_clean() {
    let models = [
        UpecModel::new(&SocConfig::formal(SocVariant::Orc), SecretScenario::InCache),
        UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        ),
        UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::NotInCache,
        ),
    ];
    let mut fired = 0;
    for (i, model) in models.iter().enumerate() {
        fired += differential(model, 2, (i as u64) * 32..(i as u64 + 1) * 32);
    }
    assert!(fired >= 8, "only {fired} faults fired across the sweep");
}
