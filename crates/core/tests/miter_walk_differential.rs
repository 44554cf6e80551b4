//! Differential lockdown of the per-miter walk: [`UpecEngine::run_instances`]
//! scans all instances of one miter (same SoC config and secret placement)
//! on one incremental session, and each instance must still decide exactly
//! what it decides when scanned alone — same bound list, same per-bound
//! statuses, same first alert, same verdict.
//!
//! The fast tests run a subset capped at k=2 with two multi-member miters;
//! the `#[ignore]`d variant scans the full instance registry uncapped,
//! checks every grouped verdict against its registered expectation (the
//! registry's acceptance sweep) and is wired into `scripts/verify.sh
//! --full`.

use upec::scenarios::{self, ScenarioInstance};
use upec::{EngineOptions, InstanceResult, UpecEngine};

/// The decision-relevant content of a scan: everything except the effort
/// counters, which depend on what the session learned before.
fn decisions(result: &InstanceResult) -> String {
    let bounds: Vec<String> = result
        .bounds
        .iter()
        .map(|b| format!("k={}:{:?}", b.bound, b.status))
        .collect();
    let alert = result.first_alert.as_ref().map_or("none".to_string(), |a| {
        format!("{:?}@k={}", a.kind, a.window)
    });
    format!(
        "{} verdict={:?} alert={alert} bounds=[{}]",
        result.instance.id(),
        result.verdict,
        bounds.join(", ")
    )
}

/// The decisions plus every deterministic effort counter of a scan.
fn decisions_and_effort(result: &InstanceResult) -> String {
    let bounds: Vec<String> = result
        .bounds
        .iter()
        .map(|b| {
            format!(
                "k={}:{}/{}/{}",
                b.bound, b.conflicts, b.variables, b.clauses
            )
        })
        .collect();
    format!(
        "{} conflicts={} propagations={} per-bound=[{}]",
        decisions(result),
        result.conflicts,
        result.propagations,
        bounds.join(", ")
    )
}

fn engine(threads: usize, max_window: usize) -> UpecEngine {
    UpecEngine::new(
        EngineOptions::new()
            .with_threads(threads)
            .with_max_window(max_window),
    )
}

/// Scans `instances` grouped by miter, then each instance on its own, and
/// asserts that every instance decides the same both ways. Returns the
/// grouped results.
fn assert_grouped_matches_alone(
    instances: &[ScenarioInstance],
    max_window: usize,
) -> Vec<InstanceResult> {
    let engine = engine(2, max_window);
    let grouped = engine.run_instances(instances.iter().copied());
    assert_eq!(grouped.len(), instances.len());
    for (result, &instance) in grouped.iter().zip(instances) {
        assert_eq!(result.instance, instance, "results keep submission order");
        let alone = engine.run_instances([instance]).remove(0);
        assert_eq!(
            decisions(result),
            decisions(&alone),
            "the per-miter walk changed a decision on {}",
            instance.id()
        );
    }
    grouped
}

/// Two multi-member miters at the default geometry: the secure design with
/// the secret cached, and the Orc design.
fn capped_subset() -> Vec<ScenarioInstance> {
    let ids = [
        "secure-cached",
        "orc",
        "secure-arch-only",
        "fuzz-orc-footprint",
        "fuzz-orc-timing",
    ];
    ids.iter()
        .map(|id| scenarios::instance_by_id(id).unwrap_or_else(|| panic!("{id} registered")))
        .collect()
}

#[test]
fn grouped_scan_matches_scanning_each_instance_alone() {
    assert_grouped_matches_alone(&capped_subset(), 2);
}

/// Miters are the worker pool's jobs and share nothing, so every
/// per-instance result, effort counters included, is the same at one and at
/// two workers.
#[test]
fn results_do_not_depend_on_the_worker_count() {
    let one = engine(1, 2).run_instances(capped_subset());
    let two = engine(2, 2).run_instances(capped_subset());
    let render = |results: &[InstanceResult]| -> Vec<String> {
        results.iter().map(decisions_and_effort).collect()
    };
    assert_eq!(render(&one), render(&two));
}

/// The full registry, uncapped: every pinned `(geometry, window, verdict)`
/// re-verifies, `pmp-lock` at windows 7-9 included, and each instance
/// decides alone what it decides grouped. Its Meltdown-style miter has
/// members that start at different windows: `meltdown` 1..=2,
/// `meltdown-timing` 3..=3, and `cache-footprint` and
/// `fuzz-meltdown-footprint` 1..=5.
#[test]
#[ignore = "full 25-instance differential; run with --ignored (verify.sh --full)"]
fn grouped_scan_matches_scanning_each_instance_alone_on_the_full_registry() {
    let instances = scenarios::instances();
    let grouped = assert_grouped_matches_alone(&instances, usize::MAX);
    let mismatched: Vec<String> = grouped
        .iter()
        .filter(|r| !r.matches_expectation())
        .map(InstanceResult::summary)
        .collect();
    assert!(
        mismatched.is_empty(),
        "mismatched instances:\n{}",
        mismatched.join("\n")
    );
    let windows = |id: &str| -> Vec<usize> {
        let result = grouped
            .iter()
            .find(|r| r.instance.id() == id)
            .unwrap_or_else(|| panic!("{id} scanned"));
        result.bounds.iter().map(|b| b.bound).collect()
    };
    assert_eq!(windows("meltdown"), [1, 2]);
    assert_eq!(windows("meltdown-timing"), [3]);
    assert_eq!(windows("cache-footprint"), [1, 2, 3, 4, 5]);
    assert_eq!(windows("fuzz-meltdown-footprint"), [1, 2, 3, 4, 5]);
}
