//! Differential lockdown of cross-session learned-clause sharing: the
//! instance sweep with the [`upec::SharedClausePool`] threaded through it
//! must decide exactly what the isolated sweep decides — same aggregate
//! verdicts, same per-bound status sequences — on every instance.
//!
//! The fast test runs a capped subset whose members include
//! fingerprint-equal siblings (same SoC variant, secret scenario and
//! geometry), so clauses actually flow between sessions; the `#[ignore]`d
//! variant sweeps the full instance registry and is wired into
//! `scripts/verify.sh --full`.

use upec::scenarios::{self, ScenarioInstance};
use upec::{BoundSummary, EngineOptions, InstanceResult, UpecEngine};

/// Renders the decision-relevant content of a scan — everything except the
/// effort counters, which sharing is allowed (indeed, expected) to change.
fn decisions(result: &InstanceResult) -> String {
    let bounds: Vec<String> = result
        .bounds
        .iter()
        .map(|b: &BoundSummary| format!("k={}:{:?}", b.bound, b.status))
        .collect();
    let alert = result
        .first_alert
        .as_ref()
        .map(|a| format!("{:?}@k={}", a.kind, a.window))
        .unwrap_or_else(|| "none".to_string());
    format!(
        "{} verdict={:?} alert={} bounds=[{}]",
        result.instance.id(),
        result.verdict,
        alert,
        bounds.join(", ")
    )
}

fn sweep(instances: Vec<ScenarioInstance>, share: bool, max_window: usize) -> Vec<InstanceResult> {
    UpecEngine::new(
        EngineOptions::new()
            .with_threads(2)
            .with_max_window(max_window)
            .with_clause_sharing(share),
    )
    .run_instances(instances)
}

fn assert_sweeps_agree(shared: &[InstanceResult], isolated: &[InstanceResult]) {
    assert_eq!(shared.len(), isolated.len());
    for (s, i) in shared.iter().zip(isolated) {
        assert_eq!(
            decisions(s),
            decisions(i),
            "clause sharing changed a decision on {}",
            s.instance.id()
        );
    }
}

/// A capped subset: two fingerprint-equal siblings (`secure-cached` and
/// `secure-arch-only` differ only in commitment) plus an unrelated
/// L-alerting miter. Shared-pool and isolated sweeps must byte-match on
/// every decision.
#[test]
fn shared_sweep_matches_isolated_sweep_on_a_fast_subset() {
    let subset: Vec<ScenarioInstance> = scenarios::instances()
        .into_iter()
        .filter(|i| {
            i.geometry.is_default()
                && matches!(i.spec.id, "secure-cached" | "secure-arch-only" | "orc")
        })
        .collect();
    assert_eq!(subset.len(), 3, "expected the three capped instances");
    let shared = sweep(subset.clone(), true, 2);
    let isolated = sweep(subset, false, 2);
    assert_sweeps_agree(&shared, &isolated);
    for result in &shared {
        assert!(
            result.matches_expectation(),
            "{}: expected {:?}, got {:?}",
            result.instance.id(),
            result.instance.expected,
            result.verdict
        );
    }
}

/// Session-level plumbing: two sessions on fingerprint-equal miters (same
/// variant, secret and geometry — only the commitment differs, and the
/// commitment is not part of the CNF until a query poses it) exchange
/// clauses directly, and the importer's verdicts are unchanged.
#[test]
fn exported_session_clauses_import_into_a_fingerprint_equal_sibling() {
    let by_id = |id: &str| {
        scenarios::instances()
            .into_iter()
            .find(|i| i.geometry.is_default() && i.spec.id == id)
            .unwrap_or_else(|| panic!("instance {id} registered"))
    };
    let cached = by_id("secure-cached");
    let arch_only = by_id("secure-arch-only");
    let model_a = cached.build_model();
    let model_b = arch_only.build_model();
    let commitment_a = cached.commitment_set(&model_a);
    let commitment_b = arch_only.commitment_set(&model_b);

    let mut session_a = upec::IncrementalSession::new(&model_a);
    let mut session_b = upec::IncrementalSession::new(&model_b);
    let fp_a = session_a.share_fingerprint();
    let fp_b = session_b.share_fingerprint();
    assert_eq!(
        fp_a, fp_b,
        "same variant+secret+geometry must produce equal fingerprints"
    );

    // Baseline: what the importer decides with no foreign clauses.
    let mut isolated = upec::IncrementalSession::new(&model_b);
    let baseline: Vec<String> = (1..=2)
        .map(|k| {
            format!(
                "{:?}",
                isolated.check_bound(k, &commitment_b).verdict_name()
            )
        })
        .collect();

    // Let the exporter do real work, then drain it.
    for k in 1..=2 {
        session_a.check_bound(k, &commitment_a);
    }
    let mut exported = Vec::new();
    session_a.export_shared(&mut exported);
    assert!(
        !exported.is_empty(),
        "a two-bound scan must learn at least one purely-definitional clause"
    );

    // The importer accepts some of them (frame 1 is unencoded until the
    // first query, so ceiling-1 clauses are skipped — exactly the frame-tag
    // filter) and still decides identically.
    let imported_at_0 = session_b.import_shared(&exported);
    let mut verdicts = Vec::new();
    for k in 1..=2 {
        verdicts.push(format!(
            "{:?}",
            session_b.check_bound(k, &commitment_b).verdict_name()
        ));
        session_b.import_shared(&exported);
    }
    assert_eq!(verdicts, baseline, "imports flipped a verdict");
    let imported_after = session_b.import_shared(&exported);
    assert!(
        imported_at_0 + imported_after > 0,
        "no exported clause was ever importable; the sharing path is dead"
    );
}

/// The full-registry differential: every instance of the sweep, shared pool
/// versus isolated sessions. Multi-minute; wired into `verify.sh --full`.
#[test]
#[ignore = "full 25-instance differential sweep; run with --ignored (verify.sh --full)"]
fn shared_sweep_matches_isolated_sweep_on_the_full_registry() {
    let instances = scenarios::instances();
    let shared = sweep(instances.clone(), true, usize::MAX);
    let isolated = sweep(instances, false, usize::MAX);
    assert_sweeps_agree(&shared, &isolated);
    for result in &shared {
        assert!(
            result.matches_expectation(),
            "{}: expected {:?}, got {:?}",
            result.instance.id(),
            result.instance.expected,
            result.verdict
        );
    }
}
