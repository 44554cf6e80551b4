//! Cross-layer checks of the UPEC query path — `IncrementalSession` over
//! `bmc::Unrolling` over `sat::Solver` — at k=1, cheap enough for the
//! default test run: the solve paths agree on every verdict, every verdict
//! carries a certificate that checks, and a budget-stopped or cancelled
//! query resumes to the clean verdict.

use sat::{Budget, CancelToken, SearchConfig, StopCause};
use soc::SocVariant;
use std::collections::BTreeSet;
use upec::scenarios::{self, Geometry};
use upec::{
    full_commitment, CertificateCheck, IncrementalSession, SecretScenario, UpecModel, UpecOptions,
    UpecOutcome,
};

/// One k=1 query: a miter, the state it must keep equal, and its verdict.
struct Case {
    name: &'static str,
    model: UpecModel,
    commitment: BTreeSet<String>,
    expected: &'static str,
}

fn tiny(variant: SocVariant, secret: SecretScenario, expected: &'static str) -> Case {
    let model = UpecModel::new(&Geometry::formal_default().apply(variant), secret);
    Case {
        name: variant.name(),
        commitment: full_commitment(&model),
        model,
        expected,
    }
}

/// One alerting and one proven miter cover both verdict paths.
fn tiny_cases() -> [Case; 2] {
    [
        tiny(SocVariant::Orc, SecretScenario::InCache, "p-alert"),
        tiny(SocVariant::Secure, SecretScenario::NotInCache, "proven"),
    ]
}

/// Registry scenarios with their own commitments: a P-alerting miter (the
/// SAT path, with counterexample extraction) and two proofs over different
/// commitments (the UNSAT path).
fn registry_cases() -> [Case; 3] {
    [
        ("meltdown", "p-alert"),
        ("orc", "proven"),
        ("secure-arch-only", "proven"),
    ]
    .map(|(id, expected)| {
        let spec = scenarios::by_id(id).expect("registered scenario");
        let model = spec.build_model();
        Case {
            name: spec.id,
            commitment: spec.commitment_set(&model),
            model,
            expected,
        }
    })
}

fn all_cases() -> impl Iterator<Item = Case> {
    tiny_cases().into_iter().chain(registry_cases())
}

#[test]
fn default_no_simplify_and_baseline_search_agree() {
    for case in all_cases() {
        let options = UpecOptions::window(0);
        for (path, options) in [
            ("default", options),
            ("no_simplify", options.no_simplify()),
            (
                "baseline search",
                options.with_search(SearchConfig::baseline()),
            ),
        ] {
            let verdict = IncrementalSession::with_options(&case.model, options)
                .check_bound(1, &case.commitment)
                .verdict_name();
            assert_eq!(verdict, case.expected, "{} via {path}", case.name);
        }
    }
}

#[test]
fn every_verdict_carries_a_certificate_that_checks() {
    for case in all_cases() {
        let mut session = IncrementalSession::with_options(
            &case.model,
            UpecOptions::window(0).with_certificates(),
        );
        let (outcome, certificate) = session
            .check_bound_certified(1, &case.commitment)
            .expect("a decided query is certifiable");
        assert_eq!(outcome.verdict_name(), case.expected, "{}", case.name);
        let certificate = certificate.expect("a decided query carries a certificate");
        let check = certificate
            .check(&case.model)
            .expect("the certificate checks");
        match (case.expected, check) {
            ("proven", CertificateCheck::Proof(_))
            | ("p-alert", CertificateCheck::Witness { .. }) => {}
            (_, other) => panic!("{}: wrong certificate kind: {other:?}", case.name),
        }
    }
}

/// The one way to bound work (`Budget`) and the one way to cancel it
/// (`CancelToken`) both stop a query without poisoning its session.
#[test]
fn a_stopped_query_resumes_to_the_clean_verdict() {
    for case in tiny_cases() {
        let mut session = IncrementalSession::with_options(
            &case.model,
            UpecOptions::window(0).with_budget(Budget::conflicts(1)),
        );
        let stopped = session.check_bound(1, &case.commitment);
        assert!(
            matches!(stopped, UpecOutcome::Unknown(_)),
            "{}: {stopped:?}",
            case.name
        );
        assert_eq!(stopped.stats().stop, Some(StopCause::BudgetExhausted));
        session.set_budget(Budget::unlimited());
        let token = CancelToken::new();
        session.set_cancel_token(Some(token.clone()));
        token.cancel();
        let cancelled = session.check_bound(1, &case.commitment);
        assert_eq!(cancelled.stats().stop, Some(StopCause::Cancelled));
        token.reset();
        assert_eq!(
            session.check_bound(1, &case.commitment).verdict_name(),
            case.expected
        );
    }
}
