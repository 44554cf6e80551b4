//! Regression suite for the typed engine error path: malformed queries on
//! the engine query path surface as [`EngineError`] values from the `try_`
//! APIs instead of panics, and a failed query never poisons the session.

use bmc::UnrollOptions;
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

#[test]
fn a_rejected_query_does_not_poison_the_session() {
    let model = tiny_model();
    let mut session = IncrementalSession::new(&model);
    let bogus = ["no_such_register".to_string()].into_iter().collect();
    assert!(session.try_check_bound(1, &bogus).is_err());
    // The same session then answers a well-formed query normally.
    let outcome = session
        .try_check_bound(1, &upec::full_commitment(&model))
        .expect("a well-formed query succeeds after a rejected one");
    assert!(outcome.is_proven(), "outcome: {outcome:?}");
}

#[test]
fn try_with_options_accepts_every_registry_model() {
    // The non-panicking constructor is equivalent to the panicking one on
    // well-formed models (the registry has no malformed constraints).
    let model = tiny_model();
    assert!(IncrementalSession::try_with_options(&model, UnrollOptions::default()).is_ok());
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
        EngineError::CertificationUnavailable.to_string(),
        "certified queries need a session opened with UnrollOptions::with_proof_log()"
    );
}
