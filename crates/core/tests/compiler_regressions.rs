//! Regression tests for the transition-relation compiler on the real UPEC
//! miter: fast schedule-shape snapshots, and a SAT regression pinning a
//! paper-level finding (seconds in release mode).

use upec::engine::IncrementalSession;
use upec::scenarios;
use upec::{AlertKind, UpecOutcome};

/// The compiled miter schedule must be strictly smaller than the raw
/// netlist: structural hashing (and, where it fires, constant folding) maps
/// several signals of the two-instance miter onto one slot.
#[test]
fn miter_schedule_is_smaller_than_the_netlist() {
    let scenario = scenarios::by_id("secure-cached").expect("registered");
    let model = scenario.build_model();
    let ct = model.compiled_transition();
    let netlist = model.netlist();
    assert!(
        ct.len() < netlist.len(),
        "schedule {} must be smaller than the netlist {}",
        ct.len(),
        netlist.len()
    );
    // Distinct slots among the scheduled signals: fewer than the scheduled
    // signals themselves, because the miter is full of shared subterms.
    let slots: Vec<u32> = netlist.signals().filter_map(|s| ct.slot_of(s)).collect();
    let distinct: std::collections::BTreeSet<u32> = slots.iter().copied().collect();
    assert!(
        distinct.len() < slots.len(),
        "miters are full of shared subterms"
    );
}

/// Every registered scenario's miter compiles, and the schedule stays
/// consistent with the netlist (spot invariants, no SAT involved).
#[test]
fn every_scenario_miter_compiles() {
    for scenario in scenarios::registry() {
        let model = scenario.build_model();
        let ct = model.compiled_transition();
        assert!(!ct.is_empty(), "{}: empty schedule", scenario.name);
        // All obligation signals must be in the schedule.
        for pair in model.pairs() {
            assert!(
                ct.slot_of(pair.equal).is_some(),
                "{}: equal signal of `{}` pruned",
                scenario.name,
                pair.name
            );
            assert!(
                ct.slot_of(pair.equal_or_blocked).is_some(),
                "{}: equal_or_blocked signal of `{}` pruned",
                scenario.name,
                pair.name
            );
        }
        for c in model
            .initial_constraints()
            .iter()
            .chain(model.window_constraints())
        {
            assert!(
                ct.slot_of(c.signal).is_some(),
                "{}: constraint `{}` pruned",
                scenario.name,
                c.label
            );
        }
    }
}

/// Pins the paper-level finding that the secret-dependent cache footprint
/// (Fig. 1 as a UPEC check) first becomes visible at window k=5 on this
/// geometry — no alert at k <= 4, a P-alert at k=5. About 5 s in release
/// mode, which is how the workspace suite runs it.
#[test]
fn cache_footprint_p_alert_first_appears_at_k5() {
    let scenario = scenarios::by_id("cache-footprint").expect("registered");
    let model = scenario.build_model();
    let commitment = scenario.commitment_set(&model);
    let mut session = IncrementalSession::new(&model);
    for k in 1..=4 {
        let outcome = session.check_bound(k, &commitment);
        assert!(
            outcome.is_proven(),
            "no cache-state difference may be visible at k={k}: {outcome:?}"
        );
    }
    let outcome = session.check_bound(5, &commitment);
    match outcome {
        UpecOutcome::Violated(ref alert, _) => {
            assert_eq!(alert.kind, AlertKind::PAlert, "alert: {alert:?}")
        }
        other => panic!("expected the k=5 P-alert, got {other:?}"),
    }
}
