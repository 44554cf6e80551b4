//! Differential testing of the CNF simplification pipeline at the UPEC
//! level: for registry scenarios, the default (simplifying) solver
//! configuration must reach exactly the verdict of the `no_simplify`
//! baseline.
//!
//! The fast subset below runs in the default suite; the full-registry sweep
//! (the PR acceptance check, several release-mode minutes) is `#[ignore]`d —
//! run it with `cargo test --release -p upec -- --ignored`.

use upec::engine::IncrementalSession;
use upec::scenarios::{self, ScenarioSpec};
use upec::UpecOptions;

fn check(spec: &ScenarioSpec, k: usize, no_simplify: bool) -> &'static str {
    let model = spec.build_model();
    let commitment = spec.commitment_set(&model);
    let mut options = UpecOptions::window(k);
    if no_simplify {
        options = options.no_simplify();
    }
    let mut session = IncrementalSession::with_options(&model, options);
    session.check_bound(k, &commitment).verdict_name()
}

fn assert_agreement(ids: &[&str], k: usize) {
    for id in ids {
        let spec = scenarios::by_id(id).expect("registered scenario");
        let baseline = check(&spec, k, true);
        let simplified = check(&spec, k, false);
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
    let ids: Vec<&str> = scenarios::all().iter().map(|s| s.id).collect();
    assert_agreement(&ids, 2);
}
