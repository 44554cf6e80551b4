//! Fuzzed properties of the deterministic budget and cancellation layer
//! ([`sat::Budget`] / [`sat::CancelToken`]), on random CNFs generated with
//! [`rtl::SplitMix64`].
//!
//! Properties:
//! 1. resume-after-exhaustion agrees with the uninterrupted solve: driving
//!    a budgeted solver through as many tiny episodes as it takes reaches
//!    exactly the verdict a twin without a budget reaches in one call;
//! 2. identical budgets give byte-identical stats: two budgeted runs of the
//!    same formula produce equal [`sat::SolverStats`] (the whole struct,
//!    not just the verdict) and stop with the same [`sat::StopCause`];
//! 3. cancellation never corrupts a later un-budgeted solve on the same
//!    solver: after a cancelled episode (raised token, then reset) the
//!    solver still reaches the uninterrupted verdict and its internal
//!    invariants hold.

use rtl::SplitMix64;
use sat::{Budget, CancelToken, Lit, SatResult, Solver, SolverStats, StopCause, Var};

/// A random clause with 2..=3 distinct variables.
fn random_clause(rng: &mut SplitMix64, num_vars: usize) -> Vec<Lit> {
    let len = rng.gen_range(2..=3) as usize;
    let mut vars: Vec<usize> = Vec::new();
    while vars.len() < len {
        let v = rng.gen_u64_below(num_vars as u64) as usize;
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.iter()
        .map(|&v| Lit::new(Var::from_index(v), rng.gen_bool()))
        .collect()
}

/// A random formula near the phase transition, so the case mix covers both
/// verdicts and the budget checkpoints actually fire.
fn random_formula(rng: &mut SplitMix64) -> (usize, Vec<Vec<Lit>>) {
    let num_vars = rng.gen_range(8..16) as usize;
    let num_clauses = (num_vars as u64 * 5).saturating_sub(rng.gen_u64_below(num_vars as u64));
    let clauses = (0..num_clauses)
        .map(|_| random_clause(rng, num_vars))
        .collect();
    (num_vars, clauses)
}

fn fresh_solver(num_vars: usize, clauses: &[Vec<Lit>]) -> Solver {
    let mut solver = Solver::new();
    solver.reserve_vars(num_vars);
    for c in clauses {
        solver.add_clause(c.iter().copied());
    }
    solver
}

/// Drives a budgeted solver to a definitive verdict, counting the episodes
/// spent. Every `Unknown` must carry `StopCause::BudgetExhausted`. The
/// allotment stays fixed: a conflict cap fires only after the conflict's
/// clause is learned, so every episode makes progress.
fn solve_in_slices(solver: &mut Solver, budget: Budget) -> (SatResult, u64) {
    solver.set_budget(budget);
    let mut episodes = 0u64;
    loop {
        episodes += 1;
        assert!(episodes < 10_000, "budgeted solve failed to converge");
        match solver.solve() {
            SatResult::Unknown => {
                assert_eq!(solver.last_stop(), Some(StopCause::BudgetExhausted));
            }
            other => return (other, episodes),
        }
    }
}

#[test]
fn resume_after_exhaustion_agrees_with_the_uninterrupted_solve() {
    let mut rng = SplitMix64::new(0xb0d6_0001);
    let mut exhausted_cases = 0u64;
    for case in 0..60 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let uninterrupted = fresh_solver(num_vars, &clauses).solve();

        // Caps of zero to two conflicts: every episode stops at its first
        // to third conflict.
        let budget = Budget::conflicts(case % 3);
        let mut budgeted = fresh_solver(num_vars, &clauses);
        let (verdict, episodes) = solve_in_slices(&mut budgeted, budget);
        if episodes > 1 {
            exhausted_cases += 1;
        }
        assert_eq!(
            matches!(uninterrupted, SatResult::Unsat),
            matches!(verdict, SatResult::Unsat),
            "case {case}: resumed verdict diverges from the uninterrupted one"
        );
        if let SatResult::Sat(model) = &verdict {
            for (i, c) in clauses.iter().enumerate() {
                assert!(
                    c.iter().any(|&l| model.lit_is_true(l)),
                    "case {case}: clause {i} unsatisfied by the resumed model"
                );
            }
        }
        budgeted
            .debug_validate()
            .unwrap_or_else(|e| panic!("case {case}: invariants violated after resume: {e}"));
    }
    assert!(
        exhausted_cases >= 20,
        "only {exhausted_cases} cases ever exhausted a budget; the fuzz is toothless"
    );
}

#[test]
fn identical_budgets_give_byte_identical_stats() {
    let mut rng = SplitMix64::new(0xb0d6_0002);
    for case in 0..40 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let budget = Budget::conflicts(4);
        let run = || {
            let mut solver = fresh_solver(num_vars, &clauses);
            solver.set_budget(budget);
            let mut trace: Vec<(bool, Option<StopCause>, SolverStats)> = Vec::new();
            for _ in 0..5 {
                let result = solver.solve();
                trace.push((
                    matches!(result, SatResult::Unknown),
                    solver.last_stop(),
                    solver.stats(),
                ));
                if !matches!(result, SatResult::Unknown) {
                    break;
                }
            }
            trace
        };
        let first = run();
        let second = run();
        assert_eq!(
            first, second,
            "case {case}: identical budgeted runs diverged in stats or stop causes"
        );
    }
}

#[test]
fn cancellation_never_corrupts_a_later_unbudgeted_solve() {
    let mut rng = SplitMix64::new(0xb0d6_0003);
    let mut cancelled_cases = 0u64;
    for case in 0..60 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let uninterrupted = fresh_solver(num_vars, &clauses).solve();

        let mut solver = fresh_solver(num_vars, &clauses);
        let token = CancelToken::new();
        solver.set_cancel_token(Some(token.clone()));
        // Even cases cancel before the episode; odd cases leave the token
        // installed but unset, checking that an idle token never disturbs
        // the run. (The restart-boundary poll itself is exercised
        // deterministically by the solver's fault-injection unit tests —
        // `FaultKind::SpuriousCancellation` fires at exactly that point.)
        let raised = case % 2 == 0;
        if raised {
            token.cancel();
        }
        let cancelled = solver.solve();
        if raised {
            assert_eq!(cancelled, SatResult::Unknown, "case {case}");
            assert_eq!(solver.last_stop(), Some(StopCause::Cancelled));
            cancelled_cases += 1;
        }

        // Reset: the same solver must reach the uninterrupted verdict with
        // its invariants intact.
        token.reset();
        let resumed = solver.solve();
        assert_eq!(
            matches!(uninterrupted, SatResult::Unsat),
            matches!(resumed, SatResult::Unsat),
            "case {case}: verdict corrupted by a cancelled episode"
        );
        if let SatResult::Sat(model) = &resumed {
            for (i, c) in clauses.iter().enumerate() {
                assert!(
                    c.iter().any(|&l| model.lit_is_true(l)),
                    "case {case}: clause {i} unsatisfied after cancellation"
                );
            }
        }
        solver
            .debug_validate()
            .unwrap_or_else(|e| panic!("case {case}: invariants violated after cancel: {e}"));
    }
    assert_eq!(cancelled_cases, 30);
}
