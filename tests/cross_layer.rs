//! Cross-layer checks of the UPEC query path — `IncrementalSession` over
//! `bmc::Unrolling` over `sat::Solver` — at k=1, cheap enough for the
//! default test run: the solve paths agree on every verdict, every verdict
//! carries a certificate that checks, and a budget-stopped or cancelled
//! query resumes to the clean verdict.

use sat::{Budget, CancelToken, SearchConfig, StopCause};
use soc::{SocConfig, SocVariant};
use upec::{
    full_commitment, CertificateCheck, IncrementalSession, SecretScenario, UpecModel, UpecOptions,
    UpecOutcome,
};

fn tiny(variant: SocVariant) -> SocConfig {
    SocConfig::new(variant)
        .with_registers(4)
        .with_cache_lines(2)
        .with_miss_latency(1)
        .with_store_latency(1)
}

/// One alerting and one proven miter cover both verdict paths.
fn cases() -> [(UpecModel, &'static str); 2] {
    [
        (
            UpecModel::new(&tiny(SocVariant::Orc), SecretScenario::InCache),
            "p-alert",
        ),
        (
            UpecModel::new(&tiny(SocVariant::Secure), SecretScenario::NotInCache),
            "proven",
        ),
    ]
}

fn verdict(model: &UpecModel, options: UpecOptions) -> &'static str {
    IncrementalSession::with_options(model, options)
        .check_bound(1, &full_commitment(model))
        .verdict_name()
}

#[test]
fn default_no_simplify_and_baseline_search_agree() {
    for (model, expected) in cases() {
        let options = UpecOptions::window(0);
        assert_eq!(verdict(&model, options), expected);
        assert_eq!(verdict(&model, options.no_simplify()), expected);
        assert_eq!(
            verdict(&model, options.with_search(SearchConfig::baseline())),
            expected
        );
    }
}

#[test]
fn every_verdict_carries_a_certificate_that_checks() {
    for (model, expected) in cases() {
        let mut session =
            IncrementalSession::with_options(&model, UpecOptions::window(0).with_certificates());
        let (outcome, certificate) = session
            .check_bound_certified(1, &full_commitment(&model))
            .expect("a decided query is certifiable");
        assert_eq!(outcome.verdict_name(), expected);
        let certificate = certificate.expect("a decided query carries a certificate");
        let check = certificate.check(&model).expect("the certificate checks");
        match (expected, check) {
            ("proven", CertificateCheck::Proof(_))
            | ("p-alert", CertificateCheck::Witness { .. }) => {}
            (_, other) => panic!("{expected}: wrong certificate kind: {other:?}"),
        }
    }
}

/// The one way to bound work (`Budget`) and the one way to cancel it
/// (`CancelToken`) both stop a query without poisoning its session.
#[test]
fn a_stopped_query_resumes_to_the_clean_verdict() {
    for (model, expected) in cases() {
        let commitment = full_commitment(&model);
        let mut session = IncrementalSession::with_options(
            &model,
            UpecOptions::window(0).with_budget(Budget::conflicts(1)),
        );
        let stopped = session.check_bound(1, &commitment);
        assert!(
            matches!(stopped, UpecOutcome::Unknown(_)),
            "{expected}: {stopped:?}"
        );
        assert_eq!(stopped.stats().stop, Some(StopCause::BudgetExhausted));
        session.set_budget(Budget::unlimited());
        let token = CancelToken::new();
        session.set_cancel_token(Some(token.clone()));
        token.cancel();
        let cancelled = session.check_bound(1, &commitment);
        assert_eq!(cancelled.stats().stop, Some(StopCause::Cancelled));
        token.reset();
        assert_eq!(session.check_bound(1, &commitment).verdict_name(), expected);
    }
}
