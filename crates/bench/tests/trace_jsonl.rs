//! The `obs` telemetry layer on a real query: registry `meltdown` at k=1,
//! traced through the JSONL file sink and through the in-memory sink. The
//! sink is process-global, so this file holds the one test that installs
//! it.

use bench::json::validate;
use std::sync::Arc;
use upec::{scenarios, IncrementalSession, UpecOutcome};

fn query() -> UpecOutcome {
    let scenario = scenarios::by_id("meltdown").expect("registered scenario");
    let model = scenario.build_model();
    let commitment = scenario.commitment_set(&model);
    IncrementalSession::new(&model).check_bound(1, &commitment)
}

#[test]
fn a_traced_query_keeps_its_verdict_and_accounts_for_its_runtime() {
    let untraced = query().verdict_name();

    // The JSONL file sink: every line is JSON, and the query's root span
    // carries the engine's verdict.
    let path = std::env::temp_dir().join(format!("upec_trace_{}.jsonl", std::process::id()));
    obs::install(Arc::new(
        obs::JsonlSink::create(&path).expect("create the trace file"),
    ));
    let verdict = query().verdict_name();
    obs::uninstall(); // flushes
    let contents = std::fs::read_to_string(&path).expect("read the trace back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(verdict, untraced, "tracing changed the verdict");
    assert!(!contents.is_empty(), "the trace file is empty");
    for line in contents.lines() {
        validate(line).unwrap_or_else(|e| panic!("not valid JSON ({e}): {line}"));
    }
    let verdict_attr = format!("\"verdict\":\"{verdict}\"");
    let roots = contents
        .lines()
        .filter(|l| l.contains("\"name\":\"upec.check_bound\"") && l.contains(&verdict_attr))
        .count();
    assert_eq!(roots, 1, "no root span carrying `{verdict}`:\n{contents}");

    // The in-memory sink: the root span and the engine's own `runtime`
    // time the same interval through two clocks, and the named phases are
    // disjoint slices of it.
    let sink = Arc::new(obs::MemorySink::new());
    obs::install(sink.clone());
    let outcome = query();
    obs::uninstall();
    assert_eq!(
        outcome.verdict_name(),
        untraced,
        "tracing changed the verdict"
    );
    let spans = sink.spans();
    let root = spans
        .iter()
        .find(|s| s.name == "upec.check_bound" && s.parent.is_none())
        .expect("the trace holds the query's root span");
    assert!(root
        .attrs
        .contains(&("verdict", obs::AttrValue::Str(untraced.to_string()))));
    let root_s = root.duration_ns as f64 / 1e9;
    let runtime = outcome.stats().runtime.as_secs_f64();
    assert!(
        (root_s - runtime).abs() <= (runtime * 0.10).max(0.005),
        "root span {root_s:.4}s vs query runtime {runtime:.4}s"
    );
    let phases_ns: u64 = spans
        .iter()
        .filter(|s| matches!(s.name, "bmc.encode" | "sat.simplify" | "sat.search"))
        .map(|s| s.duration_ns)
        .sum();
    let phases_s = phases_ns as f64 / 1e9;
    assert!(
        phases_s <= root_s * 1.001 + 0.001,
        "encode + simplify + search {phases_s:.4}s exceed the root span {root_s:.4}s"
    );
}
