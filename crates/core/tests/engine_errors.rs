//! Regression suite for the typed engine error path: malformed commitments
//! and out-of-order windows surface as [`EngineError`] values from
//! `try_check_bound` instead of panics, and a rejected query leaves the
//! session as it found it.

use soc::{SocConfig, SocVariant};
use upec::{EngineError, IncrementalSession, SecretScenario, UpecModel};

fn tiny_model() -> UpecModel {
    let config = SocConfig::formal(SocVariant::Secure);
    UpecModel::new(&config, SecretScenario::NotInCache)
}

#[test]
fn unknown_commitment_registers_are_a_typed_error() {
    let model = tiny_model();
    let mut session = IncrementalSession::new(&model);
    let commitment = ["no_such_register".to_string()].into_iter().collect();
    let err = session
        .try_check_bound(1, &commitment)
        .expect_err("an unknown register must be rejected");
    match err {
        EngineError::UnknownRegister { name } => assert_eq!(name, "no_such_register"),
        other => panic!("wrong error: {other}"),
    }
}

#[test]
fn empty_commitments_are_a_typed_error() {
    let model = tiny_model();
    let mut session = IncrementalSession::new(&model);
    let err = session
        .try_check_bound(1, &Default::default())
        .expect_err("a vacuous obligation must be rejected");
    assert!(matches!(err, EngineError::EmptyCommitment), "{err}");
}

/// A query rejected at k=3 encodes nothing: the next k=1 query on the same
/// session runs on exactly the CNF of a fresh session's k=1 query, with no
/// frames or window constraints it never asked for.
#[test]
fn a_rejected_query_does_not_poison_the_session() {
    let model = tiny_model();
    let commitment = upec::full_commitment(&model);
    let mut session = IncrementalSession::new(&model);
    let bogus = ["no_such_register".to_string()].into_iter().collect();
    assert!(session.try_check_bound(3, &bogus).is_err());
    let outcome = session.check_bound(1, &commitment);
    assert!(outcome.is_proven(), "outcome: {outcome:?}");
    let fresh = IncrementalSession::new(&model).check_bound(1, &commitment);
    let size = |stats: upec::UpecStats| (stats.variables, stats.clauses);
    assert_eq!(size(outcome.stats()), size(fresh.stats()));
}

/// Once a query has constrained frames `1..=2`, a k=1 query would be posed
/// under window constraints on frame 2 it never asked for: it is rejected,
/// and the session still answers k=2 exactly as a fresh session does.
#[test]
fn a_window_below_the_session_is_a_typed_error() {
    let model = tiny_model();
    let commitment = upec::full_commitment(&model);
    let mut session = IncrementalSession::new(&model);
    assert!(session.check_bound(2, &commitment).is_proven());
    let err = session
        .try_check_bound(1, &commitment)
        .expect_err("a window below the session's deepest must be rejected");
    assert!(
        matches!(
            err,
            EngineError::WindowBelowSession {
                window: 1,
                deepest: 2
            }
        ),
        "{err}"
    );
    let repeated = session.check_bound(2, &commitment);
    let fresh = IncrementalSession::new(&model).check_bound(2, &commitment);
    assert_eq!(repeated.verdict_name(), fresh.verdict_name());
    assert!(repeated.is_proven(), "outcome: {repeated:?}");
}

#[test]
fn engine_errors_render_stable_messages() {
    // The Display strings are part of the API surface (bench binaries and
    // the verify script grep them); pin the wording.
    assert_eq!(
        EngineError::EmptyCommitment.to_string(),
        "commitment must not be empty"
    );
    assert_eq!(
        EngineError::UnknownRegister {
            name: "x".to_string()
        }
        .to_string(),
        "commitment refers to unknown register `x`"
    );
    assert_eq!(
        EngineError::WindowBelowSession {
            window: 1,
            deepest: 2
        }
        .to_string(),
        "window 1 is below window 2, the deepest this session has constrained"
    );
}
