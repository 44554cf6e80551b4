//! Fuzzed differential validation of the modern search loop
//! ([`sat::SearchConfig`]) on random CNFs, generated deterministically with
//! [`rtl::SplitMix64`].
//!
//! Properties:
//! 1. every feature — EMA restarts, phase saving, rephasing, chronological
//!    backtracking, vivification — individually toggled on top of the
//!    baseline agrees with the baseline on sat/unsat, and so does the all-on
//!    default against the all-off baseline;
//! 2. every model returned under any configuration satisfies the formula;
//! 3. unsat verdicts found with every feature on still produce DRAT logs
//!    that check and trim (vivification's lemma/delete pairs included).

use rtl::SplitMix64;
use sat::drat::{check, trim};
use sat::{Lit, SatResult, SearchConfig, Solver, Var};

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
/// verdicts and the solvers do real search work.
fn random_formula(rng: &mut SplitMix64) -> (usize, Vec<Vec<Lit>>) {
    let num_vars = rng.gen_range(8..16) as usize;
    let num_clauses = (num_vars as u64 * 5).saturating_sub(rng.gen_u64_below(num_vars as u64));
    let clauses = (0..num_clauses)
        .map(|_| random_clause(rng, num_vars))
        .collect();
    (num_vars, clauses)
}

/// Solves `clauses` under `config`, optionally running a vivification pass
/// after an initial solve (vivification is inprocessing: it needs learned
/// clauses to strengthen, so a fresh solver would give it nothing to do).
fn solve_with(
    clauses: &[Vec<Lit>],
    num_vars: usize,
    config: SearchConfig,
    vivify_between: bool,
) -> SatResult {
    let mut solver = Solver::new();
    solver.set_search_config(config);
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

/// Asserts that a sat model satisfies every clause of the formula.
fn assert_model_satisfies(result: &SatResult, clauses: &[Vec<Lit>], context: &str) {
    if let SatResult::Sat(model) = result {
        for (i, c) in clauses.iter().enumerate() {
            assert!(
                c.iter().any(|&l| model.lit_is_true(l)),
                "{context}: clause {i} unsatisfied by the returned model"
            );
        }
    }
}

/// Every named variant layered on the baseline, plus the all-on default.
/// `chrono-always` drops the backtrack-distance threshold to zero so the
/// chronological path fires on every eligible conflict, not only deep jumps.
fn variants() -> Vec<(&'static str, SearchConfig, bool)> {
    let base = SearchConfig::baseline();
    vec![
        (
            "ema-restarts",
            SearchConfig {
                ema_restart: true,
                ..base
            },
            false,
        ),
        (
            "phase-saving",
            SearchConfig {
                phase_saving: true,
                ..base
            },
            false,
        ),
        (
            "rephasing",
            SearchConfig {
                phase_saving: true,
                rephasing: true,
                ..base
            },
            false,
        ),
        (
            "chrono-backtracking",
            SearchConfig {
                chrono_backtrack: true,
                ..base
            },
            false,
        ),
        (
            "chrono-always",
            SearchConfig {
                chrono_backtrack: true,
                chrono_threshold: 0,
                ..base
            },
            false,
        ),
        (
            "vivification",
            SearchConfig {
                vivify: true,
                ..base
            },
            true,
        ),
        ("all-on", SearchConfig::default(), true),
    ]
}

/// Properties 1 and 2: every variant agrees with the all-off baseline on
/// sat/unsat, and every returned model satisfies the formula.
#[test]
fn every_feature_agrees_with_the_baseline() {
    let mut rng = SplitMix64::new(0x5ea2_0001);
    let variants = variants();
    let mut unsat_seen = 0;
    for case in 0..40 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let baseline = solve_with(&clauses, num_vars, SearchConfig::baseline(), false);
        assert_model_satisfies(&baseline, &clauses, "baseline");
        if matches!(baseline, SatResult::Unsat) {
            unsat_seen += 1;
        }
        for (name, config, vivify_between) in &variants {
            let result = solve_with(&clauses, num_vars, *config, *vivify_between);
            assert_eq!(
                matches!(baseline, SatResult::Unsat),
                matches!(result, SatResult::Unsat),
                "case {case}: `{name}` diverges from the baseline verdict"
            );
            assert_model_satisfies(&result, &clauses, name);
        }
    }
    assert!(unsat_seen >= 8, "generator produced too few unsat cases");
}

/// Property 3: with every feature on (vivification pass included), unsat
/// verdicts still produce proof logs that check, and the trimmed log
/// re-checks. Vivification runs under the log, so its strengthened clauses
/// enter as lemma/delete pairs the checker must accept.
#[test]
fn modern_search_logs_check_and_trim() {
    let mut rng = SplitMix64::new(0x5ea2_0002);
    let mut unsat_seen = 0;
    for case in 0..40 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let mut solver = Solver::new();
        solver.set_search_config(SearchConfig::default());
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
        let (trimmed, _) = trim(&log, &[]).unwrap_or_else(|e| panic!("case {case} trim: {e}"));
        check(&trimmed, &[]).unwrap_or_else(|e| panic!("case {case} recheck: {e}"));
    }
    assert!(unsat_seen >= 8, "generator produced too few unsat cases");
}
