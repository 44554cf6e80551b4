//! Differential testing of the CNF simplification pipeline at the UPEC
//! level: for registry scenarios, the default (simplifying) session must
//! reach exactly the verdict of a plain solve, whose trial cap (`u64::MAX`)
//! no query reaches, so the simplifier never runs.
//!
//! The fast subset below runs in the default suite; the full-registry sweep
//! (the PR acceptance check, several release-mode minutes) is `#[ignore]`d —
//! run it with `cargo test --release -p upec -- --ignored`.

use bmc::UnrollOptions;
use upec::engine::IncrementalSession;
use upec::scenarios::{self, ScenarioInstance};

fn check(scenario: &ScenarioInstance, k: usize, plain: bool) -> &'static str {
    let model = scenario.build_model();
    let commitment = scenario.commitment_set(&model);
    let mut options = UnrollOptions::default();
    if plain {
        options = options.with_simplify_trial(u64::MAX);
    }
    let mut session = IncrementalSession::with_options(&model, options);
    session.check_bound(k, &commitment).verdict_name()
}

fn assert_agreement(ids: &[&str], k: usize) {
    for id in ids {
        let scenario = scenarios::by_id(id).expect("registered scenario");
        let baseline = check(&scenario, k, true);
        let simplified = check(&scenario, k, false);
        assert_eq!(
            baseline, simplified,
            "{id} at k={k}: baseline verdict {baseline} but simplified {simplified}"
        );
    }
}

/// Fast subset for the default suite: one proven scenario, one L-alert and
/// the (trivially cheap) cache-state obligation.
#[test]
fn simplified_verdicts_agree_on_fast_scenarios() {
    assert_agreement(&["cache-footprint", "secure-arch-only", "orc"], 2);
}

/// The acceptance check: verdict equality for *every* registry scenario at
/// k=2, one common comparison bound. Several minutes of SAT solving in
/// release mode.
#[test]
#[ignore = "full-registry differential sweep; minutes of SAT solving — run with --ignored in release mode"]
fn simplified_verdicts_agree_on_every_registry_scenario() {
    let ids: Vec<&str> = scenarios::registry().iter().map(|s| s.name).collect();
    assert_agreement(&ids, 2);
}
