//! Regression suite for the typed engine error path: malformed commitments
//! surface as [`EngineError`] values from `try_check_bound` instead of
//! panics, and a rejected query leaves the session as it found it.

use soc::SocVariant;
use upec::scenarios::Geometry;
use upec::{EngineError, IncrementalSession, SecretScenario, UpecModel};

fn tiny_model() -> UpecModel {
    let config = Geometry::formal_default().apply(SocVariant::Secure);
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
}
