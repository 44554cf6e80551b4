//! Property-style validation of the incremental-safe simplification
//! pipeline on random small CNFs, seeded with [`rtl::SplitMix64`].
//!
//! For every random formula and every random frozen subset:
//!
//! * simplification preserves satisfiability (checked against an
//!   unsimplified solver on the same clauses),
//! * models returned after simplification satisfy the *original* clause set
//!   — this exercises the model-extension stack over eliminated variables,
//! * frozen variables are never eliminated,
//! * clauses added *after* simplification (over frozen variables only, as
//!   the contract requires) still produce answers that agree with a
//!   never-simplified solver.

use rtl::SplitMix64;
use sat::{Lit, SatResult, Solver, Var};

fn random_clause(rng: &mut SplitMix64, num_vars: usize) -> Vec<Lit> {
    let len = rng.gen_range(1..=3) as usize;
    (0..len)
        .map(|_| {
            let v = rng.gen_u64_below(num_vars as u64) as usize;
            Lit::new(Var::from_index(v), rng.gen_bool())
        })
        .collect()
}

fn model_satisfies(model: &sat::Model, clauses: &[Vec<Lit>]) -> bool {
    clauses
        .iter()
        .all(|c| c.iter().any(|&l| model.lit_is_true(l)))
}

/// Simplification with a random frozen subset is equisatisfiable with the
/// original formula, and SAT models extend correctly over eliminated
/// variables.
#[test]
fn simplification_preserves_satisfiability_on_random_cnfs() {
    let mut rng = SplitMix64::new(0xC0FFEE);
    for case in 0..96 {
        let num_vars = rng.gen_range(4..14) as usize;
        let num_clauses = rng.gen_range(2..40) as usize;
        let clauses: Vec<Vec<Lit>> = (0..num_clauses)
            .map(|_| random_clause(&mut rng, num_vars))
            .collect();
        let frozen: Vec<usize> = (0..num_vars).filter(|_| rng.gen_bool()).collect();

        let mut plain = Solver::new();
        plain.reserve_vars(num_vars);
        let mut simplified = Solver::new();
        simplified.reserve_vars(num_vars);
        for clause in &clauses {
            plain.add_clause(clause.iter().copied());
            simplified.add_clause(clause.iter().copied());
        }
        for &vi in &frozen {
            simplified.freeze_var(Var::from_index(vi));
        }
        let simp_ok = simplified.simplify(100_000);

        for &vi in &frozen {
            assert!(
                !simplified.is_eliminated(Var::from_index(vi)),
                "case {case}: frozen v{vi} was eliminated"
            );
        }

        let expected = plain.solve();
        if !simp_ok {
            assert!(
                expected.is_unsat(),
                "case {case}: simplify claimed unsat on a satisfiable formula"
            );
            continue;
        }
        match (simplified.solve(), &expected) {
            (SatResult::Sat(model), SatResult::Sat(_)) => {
                assert!(
                    model_satisfies(&model, &clauses),
                    "case {case}: extended model violates an original clause"
                );
            }
            (SatResult::Unsat, SatResult::Unsat) => {}
            (got, want) => {
                panic!("case {case}: simplified={got:?} plain={want:?}")
            }
        }
    }
}

/// The pipeline stays sound when clauses keep arriving between simplify
/// calls, as in an incremental BMC session: every new clause only mentions
/// frozen variables, and verdicts must track a never-simplified twin.
#[test]
fn interleaved_simplify_and_clause_addition_agree_with_plain_solver() {
    let mut rng = SplitMix64::new(0xBEEF);
    for case in 0..32 {
        let num_vars = rng.gen_range(6..12) as usize;
        let frozen: Vec<usize> = (0..num_vars).collect(); // everything visible
        let mut plain = Solver::new();
        plain.reserve_vars(num_vars);
        let mut simplified = Solver::new();
        simplified.reserve_vars(num_vars);
        for &vi in &frozen {
            simplified.freeze_var(Var::from_index(vi));
        }

        let mut all_clauses: Vec<Vec<Lit>> = Vec::new();
        for round in 0..4 {
            let batch = rng.gen_range(1..8) as usize;
            for _ in 0..batch {
                let clause = random_clause(&mut rng, num_vars);
                plain.add_clause(clause.iter().copied());
                simplified.add_clause(clause.iter().copied());
                all_clauses.push(clause);
            }
            let simp_ok = simplified.simplify(100_000);
            let plain_result = plain.solve();
            if !simp_ok {
                assert!(
                    plain_result.is_unsat(),
                    "case {case} round {round}: premature unsat from simplify"
                );
                break;
            }
            match (simplified.solve(), plain_result) {
                (SatResult::Sat(model), SatResult::Sat(_)) => {
                    assert!(
                        model_satisfies(&model, &all_clauses),
                        "case {case} round {round}: model violates original clauses"
                    );
                }
                (SatResult::Unsat, SatResult::Unsat) => break,
                (got, want) => panic!("case {case} round {round}: {got:?} vs {want:?}"),
            }
        }
    }
}

/// Assumption solving interacts correctly with a simplified database: the
/// frozen assumption variables survive, and answers agree with a plain
/// solver under the same assumptions.
#[test]
fn assumptions_over_frozen_variables_agree_after_simplify() {
    let mut rng = SplitMix64::new(0xFEED);
    for case in 0..48 {
        let num_vars = rng.gen_range(5..12) as usize;
        let num_clauses = rng.gen_range(4..30) as usize;
        let clauses: Vec<Vec<Lit>> = (0..num_clauses)
            .map(|_| random_clause(&mut rng, num_vars))
            .collect();
        // Two assumption literals over distinct variables, always frozen.
        let a = Lit::new(Var::from_index(0), rng.gen_bool());
        let b = Lit::new(Var::from_index(1), rng.gen_bool());

        let mut plain = Solver::new();
        plain.reserve_vars(num_vars);
        let mut simplified = Solver::new();
        simplified.reserve_vars(num_vars);
        simplified.freeze(a);
        simplified.freeze(b);
        for clause in &clauses {
            plain.add_clause(clause.iter().copied());
            simplified.add_clause(clause.iter().copied());
        }
        if !simplified.simplify(100_000) {
            assert!(plain.solve().is_unsat(), "case {case}");
            continue;
        }
        let got = simplified.solve_with_assumptions(&[a, b]);
        let want = plain.solve_with_assumptions(&[a, b]);
        assert_eq!(
            got.is_sat(),
            want.is_sat(),
            "case {case}: assumption verdicts diverge"
        );
        if let SatResult::Sat(model) = got {
            assert!(model.lit_is_true(a) && model.lit_is_true(b), "case {case}");
            assert!(model_satisfies(&model, &clauses), "case {case}");
        }
    }
}
