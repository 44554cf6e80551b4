//! Fuzzed validation of the DRAT proof logger and the independent checker on
//! random CNFs, generated deterministically with [`rtl::SplitMix64`].
//!
//! Properties:
//! 1. every unsat verdict's proof log checks (with and without the
//!    simplification pipeline in the loop), and the trimmed log re-checks,
//! 2. corrupting the proof — dropping every lemma, or replacing a lemma with
//!    a clause that is not a consequence — makes the checker reject,
//! 3. verdicts with logging on and logging off agree,
//! 4. the checker follows deletions: on logs whose learnt budget forces
//!    `reduce_db` deletions it rejects a replaced lemma wherever a naive
//!    full-scan propagator that keeps every clause rejects it.

use rtl::SplitMix64;
use sat::drat::{check, trim, CheckError, ProofLog, ProofStep};
use sat::{Lit, SatResult, Solver, Var};

/// A random clause with 2..=3 distinct variables (no unit clauses: a
/// unit-free axiom set cannot be refuted by propagation alone, which property
/// 2's lemma-free rejection relies on).
fn random_clause(rng: &mut SplitMix64, num_vars: usize) -> Vec<Lit> {
    let len = rng.gen_range(2..=3) as usize;
    random_clause_of_len(rng, num_vars, len)
}

fn random_clause_of_len(rng: &mut SplitMix64, num_vars: usize, len: usize) -> Vec<Lit> {
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

fn random_formula(rng: &mut SplitMix64) -> (usize, Vec<Vec<Lit>>) {
    // Around the 3-SAT phase transition so a healthy share of cases is unsat.
    let num_vars = rng.gen_range(5..12) as usize;
    let num_clauses = (num_vars as u64 * 5).saturating_sub(rng.gen_u64_below(num_vars as u64));
    let clauses = (0..num_clauses)
        .map(|_| random_clause(rng, num_vars))
        .collect();
    (num_vars, clauses)
}

fn solve_logged(clauses: &[Vec<Lit>], num_vars: usize, simplify: bool) -> (SatResult, ProofLog) {
    let mut solver = Solver::new();
    solver.reserve_vars(num_vars);
    solver.start_proof_log();
    for c in clauses {
        solver.add_clause(c.iter().copied());
    }
    if simplify {
        // Frozen variables keep the clause set meaningful to outside
        // observers; here nothing needs freezing — the certificate claim is
        // about the axiom set, which is already logged.
        let _ = solver.simplify(100_000);
    }
    let result = solver.solve();
    let log = solver.take_proof_log().expect("logging was on");
    (result, log)
}

/// Property 1: every unsat log checks and its trimmed form re-checks with
/// no more lemmas than the original.
#[test]
fn unsat_logs_check_and_trim() {
    let mut rng = SplitMix64::new(0xd8a7_0001);
    let mut unsat_seen = 0;
    for case in 0..48 {
        let (num_vars, clauses) = random_formula(&mut rng);
        for simplify in [false, true] {
            let (result, log) = solve_logged(&clauses, num_vars, simplify);
            if !matches!(result, SatResult::Unsat) {
                continue;
            }
            unsat_seen += 1;
            let report =
                check(&log, &[]).unwrap_or_else(|e| panic!("case {case} simplify={simplify}: {e}"));
            assert_eq!(report.axioms, clauses.len(), "case {case}");
            let trimmed = trim(&log, &[])
                .unwrap_or_else(|e| panic!("case {case} simplify={simplify} trim: {e}"));
            let report2 = check(&trimmed, &[])
                .unwrap_or_else(|e| panic!("case {case} simplify={simplify} recheck: {e}"));
            assert!(
                report2.lemmas_checked <= report.lemmas_checked,
                "case {case}: trim must not grow the proof"
            );
        }
    }
    assert!(unsat_seen >= 8, "generator produced too few unsat cases");
}

/// Property 2: mutating the proof makes the checker reject. Two deterministic
/// corruption modes: (a) dropping every lemma leaves a unit-free axiom set
/// that propagation alone cannot refute; (b) replacing a lemma of the trimmed
/// proof with a unit over a fresh, unconstrained variable is never RUP.
#[test]
fn corrupted_logs_are_rejected() {
    let mut rng = SplitMix64::new(0xd8a7_0002);
    let mut tested = 0;
    for _case in 0..48 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let (result, log) = solve_logged(&clauses, num_vars, false);
        if !matches!(result, SatResult::Unsat) {
            continue;
        }
        tested += 1;

        // (a) Axioms alone: no refutation reachable by unit propagation.
        let mut axioms_only = ProofLog::new();
        for (step, lits) in log.events() {
            if step == ProofStep::Axiom {
                axioms_only.push(ProofStep::Axiom, lits);
            }
        }
        assert_eq!(check(&axioms_only, &[]), Err(CheckError::NoRefutation));

        // (b) Replace each lemma of the trimmed proof (bounded sample) with a
        // unit over a fresh variable; the lemma is unconstrained, so it can
        // never be a RUP consequence, and because the trimmed proof has no
        // unused lemmas the corruption cannot be skipped over.
        let trimmed = trim(&log, &[]).expect("valid log trims");
        let events: Vec<(ProofStep, Vec<Lit>)> =
            trimmed.events().map(|(s, l)| (s, l.to_vec())).collect();
        let lemma_positions: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, (s, _))| *s == ProofStep::Add)
            .map(|(i, _)| i)
            .collect();
        let fresh = Lit::new(Var::from_index(num_vars + 7), true);
        for &target in lemma_positions.iter().take(6) {
            let mut mutated = ProofLog::new();
            for (i, (step, lits)) in events.iter().enumerate() {
                if i == target {
                    mutated.push(ProofStep::Add, &[fresh]);
                } else {
                    mutated.push(*step, lits);
                }
            }
            match check(&mutated, &[]) {
                Err(_) => {}
                Ok(report) => {
                    // The corrupted lemma must at minimum have been rejected
                    // or the refutation reached without it; reaching a
                    // refutation before the mutated event is the only honest
                    // way this can still pass.
                    let refutation = report
                        .refutation_event
                        .expect("successful check has a refutation");
                    assert!(
                        refutation < target,
                        "mutated lemma at {target} must be rejected, \
                         refutation claimed at {refutation}"
                    );
                }
            }
        }
    }
    assert!(tested >= 4, "generator produced too few unsat cases");
}

/// Property 3: proof logging is observational — verdicts with logging on and
/// off agree in every configuration.
#[test]
fn logging_does_not_change_verdicts() {
    let mut rng = SplitMix64::new(0xd8a7_0003);
    for case in 0..48 {
        let (num_vars, clauses) = random_formula(&mut rng);
        for simplify in [false, true] {
            let (logged, _) = solve_logged(&clauses, num_vars, simplify);
            let mut plain = Solver::new();
            plain.reserve_vars(num_vars);
            for c in &clauses {
                plain.add_clause(c.iter().copied());
            }
            if simplify {
                let _ = plain.simplify(100_000);
            }
            let unlogged = plain.solve();
            assert_eq!(
                matches!(logged, SatResult::Unsat),
                matches!(unlogged, SatResult::Unsat),
                "case {case} simplify={simplify}: verdicts diverge"
            );
        }
    }
}

/// Vivification under the proof log: every strengthened clause must enter
/// the log as a lemma (the shortened clause, a RUP consequence) *followed*
/// by a deletion of its original, and the resulting log must check. A
/// vivified log that later refutes must also still check and trim.
#[test]
fn vivification_logs_lemma_delete_pairs() {
    let mut rng = SplitMix64::new(0xd8a7_0005);
    let mut strengthened_total = 0u64;
    for case in 0..64 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let mut solver = Solver::new();
        solver.reserve_vars(num_vars);
        solver.start_proof_log();
        for c in clauses.iter() {
            solver.add_clause(c.iter().copied());
        }
        // Give vivification material to work on: learned clauses from a
        // first solve plus the original near-phase-transition clause set.
        if matches!(solver.solve(), SatResult::Unsat) {
            continue;
        }
        let events_before = solver.proof_log().expect("logging was on").events().count();
        let strengthened = solver.vivify(50_000);
        strengthened_total += strengthened;
        let log = solver.proof_log().expect("logging was on");

        // Each strengthening appends exactly one Add (the shortened clause)
        // and one Delete (its original), in that order, so the shortened
        // clause is derivable while the original is still present.
        let new_events: Vec<(ProofStep, Vec<Lit>)> = log
            .events()
            .skip(events_before)
            .map(|(s, l)| (s, l.to_vec()))
            .collect();
        let adds = new_events
            .iter()
            .filter(|(s, _)| *s == ProofStep::Add)
            .count() as u64;
        let deletes = new_events
            .iter()
            .filter(|(s, _)| *s == ProofStep::Delete)
            .count() as u64;
        assert_eq!(
            adds, strengthened,
            "case {case}: one lemma per vivification"
        );
        assert_eq!(
            deletes, strengthened,
            "case {case}: one deletion per vivification"
        );
        for pair in new_events.chunks(2) {
            let [(first, shortened), (second, original)] = pair else {
                panic!("case {case}: vivification events must come in pairs");
            };
            assert_eq!(*first, ProofStep::Add, "case {case}");
            assert_eq!(*second, ProofStep::Delete, "case {case}");
            assert!(
                shortened.len() < original.len(),
                "case {case}: vivification must shorten the clause"
            );
        }

        // The vivified solver must still refute honestly: force
        // unsatisfiability with fresh contradictory obligations and check
        // the complete log, vivification events included.
        if strengthened > 0 {
            let x = solver.new_var().positive();
            solver.add_clause([x]);
            solver.add_clause([!x]);
            assert!(matches!(solver.solve(), SatResult::Unsat), "case {case}");
            let log = solver.take_proof_log().expect("logging was on");
            check(&log, &[]).unwrap_or_else(|e| panic!("case {case}: vivified log rejected: {e}"));
            let trimmed = trim(&log, &[]).expect("vivified log trims");
            check(&trimmed, &[]).unwrap_or_else(|e| panic!("case {case}: trimmed recheck: {e}"));
        }
    }
    assert!(
        strengthened_total > 0,
        "the generator never produced a vivifiable clause; the property is vacuous"
    );
}

/// Tampering with a vivification lemma — flipping a single literal of the
/// shortened clause — must make the checker reject (or provably not rely on
/// the mutated event).
#[test]
fn tampered_vivification_lemmas_are_rejected() {
    let mut rng = SplitMix64::new(0xd8a7_0006);
    let mut tampered = 0;
    for _case in 0..192 {
        if tampered >= 8 {
            break;
        }
        let (num_vars, clauses) = random_formula(&mut rng);
        let mut solver = Solver::new();
        solver.reserve_vars(num_vars);
        solver.start_proof_log();
        for c in clauses.iter() {
            solver.add_clause(c.iter().copied());
        }
        if matches!(solver.solve(), SatResult::Unsat) {
            continue;
        }
        let events_before = solver.proof_log().expect("logging was on").events().count();
        if solver.vivify(50_000) == 0 {
            continue;
        }
        let log = solver.take_proof_log().expect("logging was on");
        let events: Vec<(ProofStep, Vec<Lit>)> =
            log.events().map(|(s, l)| (s, l.to_vec())).collect();
        let target = events[events_before..]
            .iter()
            .position(|(s, _)| *s == ProofStep::Add)
            .map(|i| events_before + i)
            .expect("a strengthening logs a lemma");

        // Replace the vivification lemma with a unit over a fresh variable:
        // unconstrained, so never a RUP consequence.
        let fresh = Lit::new(Var::from_index(num_vars + 7), true);
        let mut mutated = ProofLog::new();
        for (i, (step, lits)) in events.iter().enumerate() {
            if i == target {
                mutated.push(ProofStep::Add, &[fresh]);
            } else {
                mutated.push(*step, lits);
            }
        }
        // The log so far has no refutation at all, so a strict checker must
        // reject — either at the bogus lemma or for the missing refutation.
        assert!(
            check(&mutated, &[]).is_err(),
            "a tampered vivification lemma in a refutation-free log must not check"
        );
        tampered += 1;
    }
    assert!(tampered >= 2, "too few vivification cases were generated");
}

/// Certificates under assumptions: an activation-literal query that comes
/// back unsat yields a log that checks with the same assumptions, exactly as
/// the BMC engine uses it.
#[test]
fn assumption_certificates_check() {
    let mut rng = SplitMix64::new(0xd8a7_0004);
    let mut tested = 0;
    for _case in 0..48 {
        let (num_vars, clauses) = random_formula(&mut rng);
        let mut solver = Solver::new();
        solver.reserve_vars(num_vars);
        solver.start_proof_log();
        for c in &clauses {
            solver.add_clause(c.iter().copied());
        }
        let act = solver.new_var().positive();
        // Guarded obligation: under `act`, the first clause must be falsified.
        let Some(first) = clauses.first() else {
            continue;
        };
        for &l in first {
            solver.add_clause([!act, !l]);
        }
        if solver.solve_with_assumptions(&[act]).is_unsat() {
            tested += 1;
            let log = solver.take_proof_log().expect("logging was on");
            check(&log, &[act]).expect("assumption certificate checks");
            let trimmed = trim(&log, &[act]).expect("trims");
            check(&trimmed, &[act]).expect("trimmed assumption certificate checks");
        }
    }
    assert!(tested >= 4, "generator produced too few unsat cases");
}

/// Naive reference for property 4: full-scan unit propagation from `units`
/// over `clauses`, to a fixpoint. Returns whether it reaches a conflict.
fn reference_conflict(clauses: &[Vec<Lit>], units: &[Lit], num_vars: usize) -> bool {
    let mut value: Vec<Option<bool>> = vec![None; num_vars];
    let truth =
        |value: &[Option<bool>], l: Lit| value[l.var().index()].map(|v| v == l.is_positive());
    for &u in units {
        match truth(&value, u) {
            Some(false) => return true,
            Some(true) => {}
            None => value[u.var().index()] = Some(u.is_positive()),
        }
    }
    loop {
        let mut changed = false;
        for c in clauses {
            let mut open = c.iter().filter(|&&l| truth(&value, l) != Some(false));
            match (open.next(), open.next()) {
                (None, _) => return true,
                (Some(&l), None) if truth(&value, l).is_none() => {
                    value[l.var().index()] = Some(l.is_positive());
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return false;
        }
    }
}

/// What the reference makes of a log. It keeps every clause the log ever
/// added and ignores deletions, so it propagates at least as much as the
/// checker at every event.
#[derive(Debug, PartialEq, Eq)]
enum Reference {
    /// The first lemma that is not RUP, before any refutation.
    NotRup(usize),
    /// The event whose clause first propagates to a root conflict.
    Refuted(usize),
    NoRefutation,
}

fn reference_verdict(log: &ProofLog, num_vars: usize) -> Reference {
    let mut clauses: Vec<Vec<Lit>> = Vec::new();
    for (i, (step, lits)) in log.events().enumerate() {
        if step == ProofStep::Delete {
            continue;
        }
        let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        if step == ProofStep::Add && !reference_conflict(&clauses, &negated, num_vars) {
            return Reference::NotRup(i);
        }
        clauses.push(lits.to_vec());
        if reference_conflict(&clauses, &[], num_vars) {
            return Reference::Refuted(i);
        }
    }
    Reference::NoRefutation
}

/// Property 4: the checker follows deletions. A learnt budget of 8 makes
/// `reduce_db` delete clauses even on these small formulas (the default
/// budget is never reached). Unmutated logs check, trim, and re-check. With
/// one lemma replaced by a random clause, `check` rejects wherever the naive
/// reference does: at the same event when the reference's first non-RUP
/// lemma is the replaced one, and never after the reference or before the
/// replacement otherwise.
#[test]
fn checker_follows_deletions_like_a_naive_reference() {
    let mut rng = SplitMix64::new(0xd8a7_0007);
    let (mut reduce_deletions, mut unsat_seen, mut mutants, mut exact) = (0, 0, 0, 0);
    for case in 0..64 {
        // Random 3-SAT at the phase transition, large enough for a few
        // hundred conflicts.
        let num_vars = rng.gen_range(24..=30) as usize;
        let clauses: Vec<Vec<Lit>> = (0..num_vars * 43 / 10)
            .map(|_| random_clause_of_len(&mut rng, num_vars, 3))
            .collect();
        for simplify in [false, true] {
            let mut solver = Solver::new();
            solver.reserve_vars(num_vars);
            solver.set_learnt_budget(8);
            solver.start_proof_log();
            for c in &clauses {
                solver.add_clause(c.iter().copied());
            }
            if simplify {
                let _ = solver.simplify(100_000);
            }
            if !solver.solve().is_unsat() {
                continue;
            }
            unsat_seen += 1;
            let log = solver.take_proof_log().expect("logging was on");
            if !simplify {
                reduce_deletions += log.num_deletions();
            }
            let ctx = format!("case {case} simplify={simplify}");
            let report = check(&log, &[]).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let trimmed = trim(&log, &[]).unwrap_or_else(|e| panic!("{ctx} trim: {e}"));
            check(&trimmed, &[]).unwrap_or_else(|e| panic!("{ctx} recheck: {e}"));
            assert!(
                matches!(reference_verdict(&log, num_vars), Reference::Refuted(r) if r <= report.refutation_event.unwrap()),
                "{ctx}: the reference refutes no later than the checker"
            );

            let events: Vec<(ProofStep, Vec<Lit>)> =
                log.events().map(|(s, l)| (s, l.to_vec())).collect();
            let lemmas: Vec<usize> = (0..events.len())
                .filter(|&i| events[i].0 == ProofStep::Add)
                .collect();
            for _ in 0..lemmas.len().min(4) {
                let target = lemmas[rng.gen_u64_below(lemmas.len() as u64) as usize];
                let mut mutated = ProofLog::new();
                for (i, (step, lits)) in events.iter().enumerate() {
                    if i == target {
                        mutated.push(ProofStep::Add, &random_clause(&mut rng, num_vars));
                    } else {
                        mutated.push(*step, lits);
                    }
                }
                mutants += 1;
                let checked = check(&mutated, &[]);
                let ctx = format!("{ctx} mutated lemma {target}: {checked:?}");
                match reference_verdict(&mutated, num_vars) {
                    Reference::NotRup(first) => {
                        let Err(CheckError::NotRup { event }) = checked else {
                            panic!("{ctx}: the reference rejects event {first}");
                        };
                        assert!((target..=first).contains(&event), "{ctx}");
                        if first == target {
                            assert_eq!(event, target, "{ctx}");
                            exact += 1;
                        }
                    }
                    Reference::Refuted(first) => match checked {
                        Ok(r) => assert!(r.refutation_event.unwrap() >= first, "{ctx}"),
                        Err(CheckError::NotRup { event }) => assert!(event >= target, "{ctx}"),
                        Err(CheckError::NoRefutation) => {}
                    },
                    Reference::NoRefutation => assert!(checked.is_err(), "{ctx}"),
                }
            }
        }
    }
    assert!(unsat_seen >= 32, "too few unsat cases: {unsat_seen}");
    assert!(reduce_deletions > 0, "reduce_db never deleted a clause");
    assert!(
        exact >= mutants / 2,
        "only {exact} of {mutants} mutants hit the exact case"
    );
}
