//! End-to-end telemetry of one UPEC query: the span taxonomy documented in
//! `docs/observability.md` must actually come out of `check_bound`, with
//! correct nesting, close ordering, verdict attribution and solver counts
//! on the search spans — including the certificate spans (`sat.proof_log` under the
//! solve, `cert.trim` under the query, `cert.check` for the independent
//! re-check). Collected through the in-memory sink; the JSONL wire format
//! of the same records is golden-tested in the `obs` crate itself.
//!
//! All assertions live in a single test because the sink is process-global:
//! one install, one traced query, many checks.

use std::sync::Arc;
use upec::engine::IncrementalSession;
use upec::scenarios;

fn u64_attr(span: &obs::SpanRecord, key: &str) -> Option<u64> {
    span.attrs.iter().find_map(|(k, v)| match v {
        obs::AttrValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

fn str_attr(span: &obs::SpanRecord, key: &str) -> Option<String> {
    span.attrs.iter().find_map(|(k, v)| match v {
        obs::AttrValue::Str(s) if *k == key => Some(s.clone()),
        _ => None,
    })
}

#[test]
fn traced_query_produces_the_documented_span_tree() {
    let scenario = scenarios::by_id("cache-footprint").expect("registered");

    // Install before model construction: transition compilation (and its
    // COI analysis) happens while the model is built.
    let sink = Arc::new(obs::MemorySink::new());
    obs::install(sink.clone());
    let model = scenario.build_model();
    let commitment = scenario.commitment_set(&model);
    let options = bmc::UnrollOptions::default().with_proof_log();
    let mut session = IncrementalSession::with_options(&model, options);
    let (outcome, certificate) = session
        .try_check_bound(1, &commitment)
        .expect("a well-formed query");
    let certificate = certificate.expect("a decided bound carries a certificate");
    let check = certificate.check(&model);
    obs::uninstall();
    assert!(
        check.is_ok(),
        "certificate must re-check: {:?}",
        check.err()
    );

    let spans = sink.spans();

    // Root: the query span, carrying window and verdict.
    let root = spans
        .iter()
        .find(|s| s.name == "upec.check_bound")
        .expect("query root span recorded");
    assert_eq!(root.parent, None, "check_bound is the trace root");
    assert_eq!(u64_attr(root, "window"), Some(1));
    assert_eq!(
        str_attr(root, "verdict").as_deref(),
        Some(outcome.verdict_name()),
        "root span verdict matches the engine verdict"
    );

    // Encode phase: a direct child of the root.
    let encode = spans
        .iter()
        .find(|s| s.name == "bmc.encode")
        .expect("encode span recorded");
    assert_eq!(encode.parent, Some(root.id), "encode nests under the query");

    // Search: at least one solver episode, a descendant of the root.
    let search = spans
        .iter()
        .find(|s| s.name == "sat.search")
        .expect("search span recorded");
    let mut ancestor = search.parent;
    let mut reaches_root = false;
    while let Some(id) = ancestor {
        if id == root.id {
            reaches_root = true;
            break;
        }
        ancestor = spans.iter().find(|s| s.id == id).and_then(|s| s.parent);
    }
    assert!(
        reaches_root,
        "search span is a descendant of the query root"
    );
    assert!(
        str_attr(search, "result").is_some(),
        "search span records its result"
    );

    // The compile span fired during session construction, outside the query.
    let compile = spans
        .iter()
        .find(|s| s.name == "bmc.compile")
        .expect("compile span recorded");
    assert_eq!(compile.parent, None, "compilation is not part of the query");
    assert!(u64_attr(compile, "scheduled_slots").is_some());
    assert!(u64_attr(compile, "pruned_signals").is_some());

    // Close ordering: children close before their parents, so the root is
    // recorded after encode and after the search episodes.
    let pos = |id: u64| spans.iter().position(|s| s.id == id).unwrap();
    assert!(pos(encode.id) < pos(root.id));
    assert!(pos(search.id) < pos(root.id));

    // Spans nest in time: every child lies inside its parent's interval
    // (same monotonic clock, so this is exact).
    for child in &spans {
        if let Some(parent) = child.parent.and_then(|p| spans.iter().find(|s| s.id == p)) {
            assert!(
                child.start_ns >= parent.start_ns
                    && child.start_ns + child.duration_ns <= parent.start_ns + parent.duration_ns,
                "span {} [{}..{}] escapes its parent {} [{}..{}]",
                child.name,
                child.start_ns,
                child.start_ns + child.duration_ns,
                parent.name,
                parent.start_ns,
                parent.start_ns + parent.duration_ns,
            );
        }
    }

    // Phase durations are slices of the root: named phases cannot exceed it.
    let sum = |name: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns)
            .sum()
    };
    let sliced = sum("bmc.encode") + sum("sat.simplify") + sum("sat.search");
    assert!(
        sliced <= root.duration_ns,
        "phases {sliced}ns exceed the root span {}ns",
        root.duration_ns
    );

    // The query's stats agree with the counts on its search spans.
    let stats = outcome.stats();
    let total = |key: &str| -> u64 {
        spans
            .iter()
            .filter(|s| s.name == "sat.search")
            .map(|s| u64_attr(s, key).unwrap_or_else(|| panic!("search span records `{key}`")))
            .sum()
    };
    assert_eq!(total("conflicts"), stats.conflicts);
    assert_eq!(total("restarts"), stats.restarts);
    assert_eq!(total("arena_collections"), stats.arena_collections);
    // Propagations also accrue inside the simplify pipeline (failed-literal
    // probing), outside any search span — so the search spans can only
    // account for at most the query total.
    assert!(total("propagations") <= stats.propagations);

    // Proof logging: a marker child of a search span, sized like the log.
    let proof_log = spans
        .iter()
        .find(|s| s.name == "sat.proof_log")
        .expect("proof_log span recorded for a certified query");
    let parent = proof_log
        .parent
        .and_then(|p| spans.iter().find(|s| s.id == p))
        .expect("proof_log span has a parent");
    assert_eq!(parent.name, "sat.search", "proof_log nests under its solve");
    assert!(u64_attr(proof_log, "events").is_some());
    assert!(u64_attr(proof_log, "axioms").is_some());
    assert!(u64_attr(proof_log, "size_bytes").is_some());

    // Certificate trimming: a child of the query that produced the proof,
    // keeping at most the events the log had.
    let trim = spans
        .iter()
        .find(|s| s.name == "cert.trim")
        .expect("cert.trim span recorded for a proven certified query");
    assert_eq!(trim.parent, Some(root.id), "trimming nests under the query");
    let events = u64_attr(trim, "events").expect("events attribute");
    let kept = u64_attr(trim, "kept_events").expect("kept_events attribute");
    assert!(kept <= events, "trim kept {kept} of {events} events");

    // Certificate checking: an independent root span carrying the
    // certificate's kind, window and size.
    let cert = spans
        .iter()
        .find(|s| s.name == "cert.check")
        .expect("cert.check span recorded");
    assert_eq!(cert.parent, None, "checking is independent of the query");
    assert_eq!(
        str_attr(cert, "kind").as_deref(),
        Some(certificate.kind_name())
    );
    assert_eq!(u64_attr(cert, "window"), Some(1));
    assert_eq!(
        u64_attr(cert, "size_bytes"),
        Some(certificate.size_bytes() as u64)
    );
    assert_eq!(str_attr(cert, "result").as_deref(), Some("ok"));
}
