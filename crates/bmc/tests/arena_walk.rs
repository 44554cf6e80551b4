//! Arena-GC invariants across an incremental bound walk.
//!
//! The acceptance property of the clause-arena garbage collector at the
//! `bmc` layer: walking a proof incrementally through bounds `k = 1..=4` —
//! the exact usage pattern of the UPEC engine — keeps the solver's
//! wasted-hole ratio below the documented 25% bound at every bound, while
//! database reductions and compacting collections fire mid-session and
//! verdicts stay correct. A deliberately tiny learnt budget makes reduction
//! constant instead of rare, so the walk exercises many collections.

use bmc::{CompiledTransition, UnrollOptions, Unrolling};
use rtl::{Netlist, SignalId};
use std::sync::Arc;

/// Two identical nonlinear mixing registers, constrained equal at frame 0
/// through *clauses* (not frame-0 aliases), so the equivalence proof at
/// every frame has to reason through the adder/xor cones instead of
/// collapsing structurally. Returns `(netlist, r1, r2, differ)`.
fn mixer_pair() -> (Netlist, SignalId, SignalId, SignalId) {
    let width = 10u32;
    let mut n = Netlist::new("mixer_pair");
    let x = n.input("x", width);
    let r1 = n.register("r1", width);
    let r2 = n.register("r2", width);
    let three = n.lit(3, width);
    let one = n.lit(1, width);
    let step = |n: &mut Netlist, r: SignalId| {
        let sum = n.add(r, x);
        let shifted = n.shl(sum, three);
        let mixed = n.xor(sum, shifted);
        n.add(mixed, one)
    };
    let n1 = step(&mut n, r1.value());
    let n2 = step(&mut n, r2.value());
    n.set_next(r1, n1);
    n.set_next(r2, n2);
    let differ = n.ne(r1.value(), r2.value());
    (n, r1.value(), r2.value(), differ)
}

#[test]
fn incremental_walk_keeps_waste_ratio_bounded() {
    let (netlist, r1, r2, differ) = mixer_pair();

    let compiled = Arc::new(CompiledTransition::compile(&netlist, &[differ]));
    let mut u = Unrolling::with_compiled(compiled, UnrollOptions::default(), &[]);
    u.set_learnt_budget(16);
    u.assume_signals_equal(0, r1, r2).expect("equal widths");

    for k in 1..=4usize {
        u.extend_to(k);
        // Obligation: the registers differ at frame k. They start equal and
        // step through identical mixing functions, so this must be UNSAT —
        // and proving it forces real conflict work through the adder and
        // shifter cones, which (under the tiny learnt budget) keeps the
        // reducer and the collector busy.
        let act = u.fresh_lit();
        let differ_lit = u.bit_lit(k, differ).expect("differ is one bit");
        u.add_clause_activated(act, [differ_lit]);
        assert!(
            u.solve(&[act]).is_unsat(),
            "identical mixers must stay equal at k={k}"
        );
        u.retire_activation(act);

        let solver = u.solver();
        assert!(
            solver.arena_wasted_ratio() < 0.25,
            "k={k}: wasted-hole ratio {} exceeds the documented bound",
            solver.arena_wasted_ratio()
        );
        solver
            .debug_validate()
            .unwrap_or_else(|e| panic!("k={k}: solver invariant violated: {e}"));
    }

    let stats = u.solver().stats();
    assert!(
        stats.deleted_clauses > 0,
        "the walk must trigger database reductions (got {} conflicts)",
        stats.conflicts
    );
    assert!(
        stats.arena_collections > 0,
        "the walk must trigger arena collections ({} clauses deleted)",
        stats.deleted_clauses
    );
}
