//! Fuzzed validation of the search loop (EMA restarts, phase saving,
//! rephasing, chronological backtracking, vivification) on random CNFs,
//! generated deterministically with [`rtl::SplitMix64`].
//!
//! Properties:
//! 1. every verdict, with and without a vivification pass between two
//!    solves, agrees with brute-force enumeration;
//! 2. every returned model satisfies the formula;
//! 3. unsat verdicts produce DRAT logs that check and trim (vivification's
//!    lemma/delete pairs included).

mod common;

use common::brute_force_sat;
use rtl::SplitMix64;
use sat::drat::{check, trim};
use sat::{Lit, SatResult, Solver, Var};

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
/// verdicts and the solver does real search work.
fn random_formula(rng: &mut SplitMix64) -> (usize, Vec<Vec<Lit>>) {
    let num_vars = rng.gen_range(8..16) as usize;
    let num_clauses = (num_vars as u64 * 5).saturating_sub(rng.gen_u64_below(num_vars as u64));
    let clauses = (0..num_clauses)
        .map(|_| random_clause(rng, num_vars))
        .collect();
    (num_vars, clauses)
}

/// Solves `clauses`, optionally running a vivification pass after an
/// initial solve (vivification is inprocessing: it needs learned clauses to
/// strengthen, so a fresh solver would give it nothing to do).
fn solve(clauses: &[Vec<Lit>], num_vars: usize, vivify_between: bool) -> SatResult {
    let mut solver = Solver::new();
    solver.reserve_vars(num_vars);
    for c in clauses {
        solver.add_clause(c.iter().copied());
    }
    if vivify_between {
        let first = solver.solve();
        if matches!(first, SatResult::Unsat) {
            return first;
        }
        solver.vivify(50_000);
    }
    solver.solve()
}

/// Properties 1 and 2: both solve paths agree with brute force on sat/unsat,
/// and every returned model satisfies the formula.
#[test]
fn verdicts_agree_with_brute_force() {
    let mut rng = SplitMix64::new(0x5ea2_0001);
    let mut unsat_seen = 0;
    for case in 0..40 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let expected = brute_force_sat(num_vars, &clauses);
        if !expected {
            unsat_seen += 1;
        }
        for vivify_between in [false, true] {
            let context = format!("case {case}, vivify_between={vivify_between}");
            match solve(&clauses, num_vars, vivify_between) {
                SatResult::Sat(model) => {
                    assert!(expected, "{context}: solver sat, brute force unsat");
                    for (i, c) in clauses.iter().enumerate() {
                        assert!(
                            c.iter().any(|&l| model.lit_is_true(l)),
                            "{context}: clause {i} unsatisfied by the returned model"
                        );
                    }
                }
                SatResult::Unsat => assert!(!expected, "{context}: solver unsat, brute force sat"),
                SatResult::Unknown => panic!("{context}: no limit was set"),
            }
        }
    }
    assert!(unsat_seen >= 8, "generator produced too few unsat cases");
}

/// Property 3: unsat verdicts (vivification pass included) produce proof
/// logs that check, and the trimmed log re-checks. Vivification runs under
/// the log, so its strengthened clauses enter as lemma/delete pairs the
/// checker must accept.
#[test]
fn search_logs_check_and_trim() {
    let mut rng = SplitMix64::new(0x5ea2_0002);
    let mut unsat_seen = 0;
    for case in 0..40 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let mut solver = Solver::new();
        solver.reserve_vars(num_vars);
        solver.start_proof_log();
        for c in &clauses {
            solver.add_clause(c.iter().copied());
        }
        let mut result = solver.solve();
        if !matches!(result, SatResult::Unsat) {
            solver.vivify(50_000);
            result = solver.solve();
        }
        if !matches!(result, SatResult::Unsat) {
            continue;
        }
        unsat_seen += 1;
        let log = solver.take_proof_log().expect("logging was on");
        let report = check(&log, &[]).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(report.axioms, clauses.len(), "case {case}");
        let trimmed = trim(&log, &[]).unwrap_or_else(|e| panic!("case {case} trim: {e}"));
        check(&trimmed, &[]).unwrap_or_else(|e| panic!("case {case} recheck: {e}"));
    }
    assert!(unsat_seen >= 8, "generator produced too few unsat cases");
}
