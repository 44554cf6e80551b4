//! Invariant tests for the clause-arena garbage collector.
//!
//! Database reduction tombstones learned clauses and leaves holes in the
//! clause arena; the compacting collector must (a) keep the wasted-literal
//! ratio below the documented 25% bound whenever the solver is quiescent,
//! (b) forward every watcher and propagation reason to the compacted clause
//! references, and (c) never perturb verdicts or models — including
//! when it fires in the middle of an incremental session with frozen
//! variables and simplifier rebuilds in between.

use rtl::SplitMix64;
use sat::{Budget, Lit, SatResult, Solver, Var};

// The pigeonhole builder indexes two parallel axes; an iterator form would
// obscure the symmetry the clauses encode.
#[allow(clippy::needless_range_loop)]
fn pigeonhole(n: usize, m: usize) -> Solver {
    let mut s = Solver::new();
    let p: Vec<Vec<Lit>> = (0..n)
        .map(|_| (0..m).map(|_| s.new_var().positive()).collect())
        .collect();
    for pigeon in &p {
        s.add_clause(pigeon.iter().copied());
    }
    for hole in 0..m {
        for a in 0..n {
            for b in (a + 1)..n {
                s.add_clause([!p[a][hole], !p[b][hole]]);
            }
        }
    }
    s
}

/// Pigeonhole CNFs are pure unit-and-binary instances, so their learned
/// clauses are the only arena tenants: a tiny learnt budget makes reduction
/// (and therefore collection) fire constantly.
#[test]
fn waste_ratio_stays_bounded_on_hard_instances() {
    let mut s = pigeonhole(7, 6);
    s.set_learnt_budget(16);
    assert!(s.solve().is_unsat());
    let stats = s.stats();
    assert!(stats.deleted_clauses > 0, "reductions must have fired");
    assert!(stats.arena_collections > 0, "collections must have fired");
    assert!(
        s.arena_wasted_ratio() < 0.25,
        "wasted ratio {} exceeds the documented bound",
        s.arena_wasted_ratio()
    );
    s.debug_validate()
        .expect("watch/reason invariants after GC");
}

/// Pausing a solve mid-search (conflict budget) leaves a collected
/// arena in a state later solves can build on: watchers and reasons stay
/// valid across the pause and the final verdict is unchanged.
#[test]
fn collection_survives_a_paused_search() {
    let mut s = pigeonhole(7, 6);
    s.set_learnt_budget(16);
    s.set_budget(Budget::conflicts(300));
    let mut paused = 0;
    loop {
        match s.solve() {
            SatResult::Unknown => {
                paused += 1;
                s.debug_validate().expect("invariants at the pause point");
                assert!(
                    s.arena_wasted_ratio() < 0.25,
                    "wasted ratio {} at pause {paused}",
                    s.arena_wasted_ratio()
                );
            }
            SatResult::Unsat => break,
            SatResult::Sat(_) => panic!("pigeonhole 7/6 is unsatisfiable"),
        }
        assert!(paused < 1000, "proof must terminate");
    }
    assert!(paused > 0, "the budget must actually pause the search");
    assert!(s.stats().arena_collections > 0);
}

/// Regression for the stale-reason caveat: searching assigns variables with
/// clause-reference reasons, and backtracking (restarts, conflict analysis,
/// final model cleanup) unassigns them again. Those references must not
/// survive unassignment — a later reduction, collection or simplifier
/// rebuild would leave them dangling. `debug_validate` now rejects any
/// clause reference as the reason of an unassigned variable, so validating
/// after search, after a rebuild, and after GC pins the scrub-on-backtrack
/// behaviour.
#[test]
fn unassigned_vars_never_carry_clause_reasons() {
    let mut s = pigeonhole(6, 5);
    s.set_learnt_budget(16);
    assert!(s.solve().is_unsat());
    // Post-search: restarts and conflict analysis unassigned plenty of
    // variables whose reasons were learned (long) clauses.
    s.debug_validate()
        .expect("no stale reasons after a conflicting search");

    // Satisfiable instance: solve (backtracks to level 0 after the model),
    // then rebuild via the simplifier, then force reductions and GC.
    let mut s = Solver::new();
    let vars: Vec<Lit> = (0..12).map(|_| s.new_var().positive()).collect();
    for w in vars.windows(3) {
        s.add_clause([w[0], w[1], w[2]]);
        s.add_clause([!w[0], !w[2], w[1]]);
    }
    assert!(s.solve().is_sat());
    s.debug_validate().expect("no stale reasons after a model");
    assert!(s.simplify(100_000), "instance stays consistent");
    s.debug_validate()
        .expect("no stale reasons after a simplifier rebuild");

    let mut s = pigeonhole(7, 6);
    s.set_learnt_budget(16);
    s.set_budget(Budget::conflicts(200));
    while s.solve() == SatResult::Unknown {
        s.debug_validate()
            .expect("no stale reasons at a paused search");
    }
    assert!(s.stats().arena_collections > 0, "GC must have fired");
    s.debug_validate().expect("no stale reasons after GC");
}

fn random_lit(rng: &mut SplitMix64, num_vars: usize) -> Lit {
    let v = rng.gen_u64_below(num_vars as u64) as usize;
    Lit::new(Var::from_index(v), rng.gen_bool())
}

/// GC firing inside an incremental session that also runs the simplifier:
/// frozen variables keep their meaning across rebuilds and collections, and
/// every model stays correct for the full (original) clause set.
#[test]
fn gc_mid_session_with_frozen_variables_keeps_models_correct() {
    let mut rng = SplitMix64::new(0xa6c);
    for case in 0..24 {
        let num_vars = 14usize;
        let mut s = Solver::new();
        s.set_learnt_budget(8);
        s.reserve_vars(num_vars);
        // Frozen interface variables: later clause batches mention them.
        let frozen: Vec<Var> = (0..6).map(Var::from_index).collect();
        for &v in &frozen {
            s.freeze_var(v);
        }
        let mut all_clauses: Vec<Vec<Lit>> = Vec::new();
        let batch = |rng: &mut SplitMix64, vars: usize, count: usize| -> Vec<Vec<Lit>> {
            (0..count)
                .map(|_| {
                    let len = rng.gen_range(2..4) as usize;
                    (0..len).map(|_| random_lit(rng, vars)).collect()
                })
                .collect()
        };
        // Batch 1 over all variables, then simplify (eliminating some
        // non-frozen ones), then batch 2 over the frozen interface only.
        let first = batch(&mut rng, num_vars, 24);
        for c in &first {
            s.add_clause(c.iter().copied());
        }
        all_clauses.extend(first);
        let consistent = s.simplify(100_000);

        let brute = |clauses: &[Vec<Lit>]| -> bool {
            'outer: for assignment in 0u32..(1 << num_vars) {
                for clause in clauses {
                    if !clause
                        .iter()
                        .any(|l| ((assignment >> l.var().index()) & 1 == 1) == l.is_positive())
                    {
                        continue 'outer;
                    }
                }
                return true;
            }
            false
        };

        if !consistent {
            assert!(
                !brute(&all_clauses),
                "case {case}: simplify flipped a verdict"
            );
            continue;
        }
        let second = batch(&mut rng, frozen.len(), 10);
        for c in &second {
            s.add_clause(c.iter().copied());
        }
        all_clauses.extend(second);

        let expected = brute(&all_clauses);
        match s.solve() {
            SatResult::Sat(model) => {
                assert!(expected, "case {case}: sat but reference unsat");
                for clause in &all_clauses {
                    assert!(
                        clause.iter().any(|&l| model.lit_is_true(l)),
                        "case {case}: model violates {clause:?} (eliminated-variable \
                         extension or GC remap must be broken)"
                    );
                }
            }
            SatResult::Unsat => assert!(!expected, "case {case}: unsat but reference sat"),
            SatResult::Unknown => panic!("no limit was set"),
        }
        assert!(
            s.arena_wasted_ratio() < 0.25,
            "case {case}: wasted ratio {}",
            s.arena_wasted_ratio()
        );
        s.debug_validate()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}
