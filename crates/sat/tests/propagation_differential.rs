//! Differential fuzzing of the overhauled propagation core.
//!
//! The PR that introduced the binary implication graph, the indexed VSIDS
//! heap and the clause-arena garbage collection replaced the solve path
//! wholesale, so these tests pin the new core against an independent
//! reference: brute-force enumeration on binary-heavy, Tseitin-style random
//! CNFs (the clause-length profile the UPEC miters produce — AND/OR gates
//! contribute two binary clauses each, XOR gates ternary ones). Every
//! configuration axis that changes the propagation path is crossed:
//! default solving, tiny learnt budgets that force database reduction and
//! arena collections mid-search, incremental clause additions, assumptions,
//! and the CNF simplification pipeline.

mod common;

use common::brute_force_sat;
use rtl::SplitMix64;
use sat::{Lit, SatResult, Solver, Var};

fn random_lit(rng: &mut SplitMix64, num_vars: usize) -> Lit {
    let v = rng.gen_u64_below(num_vars as u64) as usize;
    Lit::new(Var::from_index(v), rng.gen_bool())
}

/// A random Tseitin-style circuit: `inputs` free variables, then a layer of
/// gate variables each defined as AND/OR/XOR of two earlier literals, plus a
/// few random constraint clauses. Clause lengths are dominated by binaries,
/// exactly like the bit-blasted UPEC miters.
fn random_tseitin_cnf(rng: &mut SplitMix64) -> (usize, Vec<Vec<Lit>>) {
    let inputs = rng.gen_range(3..6) as usize;
    let gates = rng.gen_range(3..11) as usize;
    let num_vars = inputs + gates;
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for gi in 0..gates {
        let defined = inputs + gi;
        let g = Var::from_index(defined).positive();
        let a = random_lit(rng, defined);
        let b = random_lit(rng, defined);
        match rng.gen_u64_below(3) {
            0 => {
                // g <-> a AND b
                clauses.push(vec![!g, a]);
                clauses.push(vec![!g, b]);
                clauses.push(vec![g, !a, !b]);
            }
            1 => {
                // g <-> a OR b
                clauses.push(vec![g, !a]);
                clauses.push(vec![g, !b]);
                clauses.push(vec![!g, a, b]);
            }
            _ => {
                // g <-> a XOR b
                clauses.push(vec![!g, a, b]);
                clauses.push(vec![!g, !a, !b]);
                clauses.push(vec![g, !a, b]);
                clauses.push(vec![g, a, !b]);
            }
        }
    }
    // Random constraints push a fraction of the instances into UNSAT
    // territory so both verdicts are exercised.
    let constraints = rng.gen_range(1..5) as usize;
    for _ in 0..constraints {
        let len = rng.gen_range(1..3) as usize;
        let clause: Vec<Lit> = (0..len).map(|_| random_lit(rng, num_vars)).collect();
        clauses.push(clause);
    }
    (num_vars, clauses)
}

fn check_model(model: &sat::Model, clauses: &[Vec<Lit>], context: &str) {
    for clause in clauses {
        assert!(
            clause.iter().any(|&l| model.lit_is_true(l)),
            "{context}: model does not satisfy {clause:?}"
        );
    }
}

/// The new propagation core agrees with brute force on binary-heavy
/// Tseitin-style formulas, and its models satisfy every clause.
#[test]
fn tseitin_formulas_agree_with_brute_force() {
    let mut rng = SplitMix64::new(0xb1_4a17);
    let mut sat_cases = 0usize;
    let mut unsat_cases = 0usize;
    for case in 0..96 {
        let (num_vars, clauses) = random_tseitin_cnf(&mut rng);
        let mut solver = Solver::new();
        solver.reserve_vars(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        let expected = brute_force_sat(num_vars, &clauses);
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(expected, "case {case}: solver sat, brute force unsat");
                check_model(&model, &clauses, &format!("case {case}"));
                sat_cases += 1;
            }
            SatResult::Unsat => {
                assert!(!expected, "case {case}: solver unsat, brute force sat");
                unsat_cases += 1;
            }
            SatResult::Unknown => panic!("no limit was set, Unknown is impossible"),
        }
        solver.debug_validate().unwrap_or_else(|e| {
            panic!("case {case}: invariant violated after solving: {e}");
        });
    }
    assert!(
        sat_cases > 0 && unsat_cases > 0,
        "generator must cover both verdicts (sat {sat_cases}, unsat {unsat_cases})"
    );
}

/// A tiny learnt budget forces frequent database reductions (and arena
/// collections) mid-search; verdicts and models must be unaffected.
#[test]
fn forced_reductions_do_not_change_verdicts() {
    let mut rng = SplitMix64::new(0x6c_0ffe);
    for case in 0..64 {
        let (num_vars, clauses) = random_tseitin_cnf(&mut rng);
        let expected = brute_force_sat(num_vars, &clauses);
        let mut solver = Solver::new();
        solver.set_learnt_budget(8);
        solver.reserve_vars(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(
                    expected,
                    "case {case}: reduced-db solver sat, reference unsat"
                );
                check_model(&model, &clauses, &format!("case {case}"));
            }
            SatResult::Unsat => {
                assert!(
                    !expected,
                    "case {case}: reduced-db solver unsat, reference sat"
                )
            }
            SatResult::Unknown => panic!("no limit was set"),
        }
        assert!(
            solver.arena_wasted_ratio() < 0.25,
            "case {case}: wasted ratio {} exceeds the GC bound",
            solver.arena_wasted_ratio()
        );
        solver
            .debug_validate()
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
    }
}

/// Growing a formula incrementally (solve, add clauses, solve again, with
/// and without assumptions) answers exactly like a fresh solver given the
/// full clause set — the contract the `bmc` unroller builds on.
#[test]
fn incremental_sessions_match_fresh_solvers() {
    let mut rng = SplitMix64::new(0x11_c4e5);
    for case in 0..48 {
        let (num_vars, clauses) = random_tseitin_cnf(&mut rng);
        let split = clauses.len() / 2;

        let mut incremental = Solver::new();
        incremental.set_learnt_budget(8); // keep reductions + GC in the loop
        incremental.reserve_vars(num_vars);
        for clause in &clauses[..split] {
            incremental.add_clause(clause.iter().copied());
        }
        let first = incremental.solve();
        assert_eq!(
            first.is_sat(),
            brute_force_sat(num_vars, &clauses[..split]),
            "case {case}: prefix verdict"
        );

        for clause in &clauses[split..] {
            incremental.add_clause(clause.iter().copied());
        }
        let expected = brute_force_sat(num_vars, &clauses);
        assert_eq!(
            incremental.solve().is_sat(),
            expected,
            "case {case}: full verdict after incremental additions"
        );

        // Assumption-driven queries on the grown solver agree with a fresh
        // solver fed the assumption as a unit clause.
        let assumption = random_lit(&mut rng, num_vars);
        let mut with_unit = clauses.clone();
        with_unit.push(vec![assumption]);
        let expected_assumed = brute_force_sat(num_vars, &with_unit);
        assert_eq!(
            incremental.solve_with_assumptions(&[assumption]).is_sat(),
            expected_assumed,
            "case {case}: assumption query"
        );
        // The assumption must not have leaked into the formula.
        assert_eq!(
            incremental.solve().is_sat(),
            expected,
            "case {case}: verdict after retracting the assumption"
        );
    }
}

/// The CNF simplification pipeline composed with the new propagation core:
/// verdicts match brute force and models stay correct for every variable —
/// including the eliminated ones reconstructed by model extension.
#[test]
fn simplified_solving_matches_brute_force() {
    let mut rng = SplitMix64::new(0x5e_ed5);
    for case in 0..48 {
        let (num_vars, clauses) = random_tseitin_cnf(&mut rng);
        let mut solver = Solver::new();
        solver.reserve_vars(num_vars);
        for clause in &clauses {
            solver.add_clause(clause.iter().copied());
        }
        // Freeze a random subset (inputs of later constraint batches); the
        // rest is fair game for bounded variable elimination.
        for vi in 0..num_vars {
            if rng.gen_bool() {
                solver.freeze_var(Var::from_index(vi));
            }
        }
        let expected = brute_force_sat(num_vars, &clauses);
        let still_consistent = solver.simplify(100_000);
        if !still_consistent {
            assert!(
                !expected,
                "case {case}: simplify proved a sat formula unsat"
            );
            continue;
        }
        match solver.solve() {
            SatResult::Sat(model) => {
                assert!(expected, "case {case}: sat after simplify, reference unsat");
                check_model(&model, &clauses, &format!("case {case} (simplified)"));
            }
            SatResult::Unsat => assert!(!expected, "case {case}: unsat after simplify"),
            SatResult::Unknown => panic!("no limit was set"),
        }
    }
}
