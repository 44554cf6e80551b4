//! The benchmark's own contract, checked on small inputs:
//!
//! * every metric name matches `[A-Za-z0-9_.-]+`;
//! * every metric `BENCHMARK.json` names is actually emitted, by every
//!   workload, untraced and traced;
//! * the traced phase sum of `sweep` lands within 10% of `engine.query_s`,
//!   and the deterministic counters repeat exactly from pass to pass;
//! * `wall_s` sums each unit's fastest time over the passes.
//!
//! Run with `cargo test --release` from this directory: the SAT queries
//! are 10-50× slower in a debug build.

use std::collections::BTreeSet;
use std::sync::Mutex;
use upecbench::{
    certify_input, fastest_wall, mine_input, per_layer, phase_sum_error, run, sweep_input,
    traced_pass, valid_name, Pass, Workload, END_TO_END, PER_LAYER,
};

/// The trace sink is process-global: tests that trace must not overlap.
static SINK: Mutex<()> = Mutex::new(());

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of the objects in the `section` array of
/// `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let key = format!("\"{section}\"");
    let start = BENCHMARK_JSON.find(&key).expect("section present") + key.len();
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = &rest[rest.find('"').expect("name value") + 1..];
            value[..value.find('"').expect("name ends")].to_string()
        })
        .collect()
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    bench::json::validate(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "metric name `{name}`");
        assert!(seen.insert(*name), "metric `{name}` listed twice");
        assert!(
            !unit.is_empty()
                && unit.len() <= 16
                && unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "unit `{unit}` of `{name}`"
        );
    }
    for name in names_in("end_to_end")
        .iter()
        .chain(&names_in("per_layer"))
        .chain(&names_in("workloads"))
    {
        assert!(valid_name(name), "BENCHMARK.json name `{name}`");
    }
}

#[test]
fn every_benchmark_json_name_is_emitted() {
    let _guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let workloads = names_in("workloads");
    assert_eq!(
        workloads,
        Workload::ALL.map(|w| w.name().to_string()).to_vec(),
        "BENCHMARK.json workloads"
    );
    for workload in Workload::ALL {
        let input = match workload {
            Workload::Sweep => sweep_input(&["secure-arch-only"]),
            Workload::Certify => certify_input(&["meltdown"]),
            Workload::Mine => mine_input(6),
        }
        .expect("pinned inputs resolve");
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(workload, &input, 1e-3, trace).expect("set-up");
            assert!(
                outcome.failures.is_empty(),
                "{}: {:?}",
                workload.name(),
                outcome.failures
            );
            let emitted: BTreeSet<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
            for name in names_in(section) {
                assert!(
                    emitted.contains(name.as_str()),
                    "{} does not emit `{name}` (trace {trace})",
                    workload.name()
                );
            }
        }
    }
}

#[test]
fn traced_sweep_phase_sum_matches_query_time_and_counters_repeat() {
    let _guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let input =
        sweep_input(&["secure-arch-only", "orc@r4c4m1s1", "orc"]).expect("pinned inputs resolve");
    let deterministic = ["search.conflicts", "encode.clauses_peak", "engine.queries"];
    let mut previous: Option<Vec<(&str, f64)>> = None;
    for _ in 0..2 {
        let (pass, trace) = traced_pass(&input);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        assert_eq!(phase_sum_error(&pass, &trace), None);
        let layers = per_layer(&pass, &trace, pass.wall, &pass.queries);
        let counters: Vec<(&str, f64)> = layers
            .into_iter()
            .filter(|(n, _)| deterministic.contains(n))
            .collect();
        if let Some(previous) = &previous {
            assert_eq!(previous, &counters, "counters repeat exactly");
        }
        previous = Some(counters);
    }
}

#[test]
fn wall_sums_each_units_fastest_time() {
    let pass = |units: &[f64]| Pass {
        units: units.to_vec(),
        ..Pass::default()
    };
    let passes = [pass(&[1.0, 4.0, 2.0]), pass(&[3.0, 2.0, 2.5])];
    assert_eq!(fastest_wall(&passes), 1.0 + 2.0 + 2.0);
}

#[test]
fn mine_replay_reproduces_the_miner() {
    let _guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let input = mine_input(12).expect("pinned witnesses resolve");
    let outcome = run(Workload::Mine, &input, 1e-3, true).expect("set-up");
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let programs = outcome
        .metrics
        .iter()
        .find(|(n, _)| *n == "fuzz.programs")
        .map(|(_, v)| *v);
    assert_eq!(programs, Some(12.0));
}
