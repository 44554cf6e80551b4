//! Pins the search trajectory of one seeded incremental session.
//!
//! The solver is deterministic, so its counters are a fingerprint of every
//! decision, propagation order and clause-database choice it made. The
//! session below reaches every path that reorders or drops clauses:
//! learned-clause reduction and arena collection (a tiny learnt budget),
//! vivification and variable elimination (both between solves), over
//! Tseitin-style gates plus long constraint clauses. A change to clause
//! storage or value lookup that is meant to keep the search must reproduce
//! these numbers exactly; a change that moves them must re-pin them.

use rtl::SplitMix64;
use sat::{Lit, SatResult, Solver, Var};

fn random_lit(rng: &mut SplitMix64, num_vars: usize) -> Lit {
    let v = rng.gen_u64_below(num_vars as u64) as usize;
    Lit::new(Var::from_index(v), rng.gen_bool())
}

/// A clause of `len` literals over distinct variables below `num_vars`.
fn random_clause(rng: &mut SplitMix64, num_vars: usize, len: usize) -> Vec<Lit> {
    let mut clause: Vec<Lit> = Vec::with_capacity(len);
    while clause.len() < len {
        let l = random_lit(rng, num_vars);
        if clause.iter().all(|c| c.var() != l.var()) {
            clause.push(l);
        }
    }
    clause
}

#[test]
fn seeded_session_keeps_its_trajectory() {
    const INPUTS: usize = 150;
    const GATES: usize = 120;
    let mut rng = SplitMix64::new(0x7a3c_0026);
    let mut s = Solver::new();
    s.set_learnt_budget(40);
    s.reserve_vars(INPUTS + GATES);
    // The inputs take clauses and assumptions after every round; the gate
    // outputs are internal and may be eliminated.
    for v in 0..INPUTS {
        s.freeze_var(Var::from_index(v));
    }
    for gi in 0..GATES {
        let defined = INPUTS + gi;
        let g = Var::from_index(defined).positive();
        let a = random_lit(&mut rng, defined);
        let b = random_lit(&mut rng, defined);
        if a.var() == b.var() {
            continue;
        }
        if rng.gen_bool() {
            // g <-> a AND b
            s.add_clause([!g, a]);
            s.add_clause([!g, b]);
            s.add_clause([g, !a, !b]);
        } else {
            // g <-> a XOR b
            s.add_clause([!g, a, b]);
            s.add_clause([!g, !a, !b]);
            s.add_clause([g, !a, b]);
            s.add_clause([g, a, !b]);
        }
    }
    // Random 3-SAT over the inputs near the threshold, plus a few long
    // clauses through the gates.
    for _ in 0..600 {
        let c = random_clause(&mut rng, INPUTS, 3);
        s.add_clause(c);
    }
    for _ in 0..30 {
        let c = random_clause(&mut rng, INPUTS + GATES, 5);
        s.add_clause(c);
    }

    let mut verdicts = String::new();
    for _ in 0..6 {
        let assumptions: Vec<Lit> = (0..2).map(|_| random_lit(&mut rng, INPUTS)).collect();
        verdicts.push(match s.solve_with_assumptions(&assumptions) {
            SatResult::Sat(_) => 's',
            SatResult::Unsat => 'u',
            SatResult::Unknown => unreachable!("no budget is set"),
        });
        s.debug_validate().expect("invariants after a solve");
        if !s.simplify(20_000) {
            break;
        }
        s.vivify(20_000);
        s.debug_validate().expect("invariants after inprocessing");
        for _ in 0..12 {
            let c = random_clause(&mut rng, INPUTS, 3);
            s.add_clause(c);
        }
    }

    let stats = s.stats();
    let simp = s.simplify_stats();
    // Every clause-database path ran.
    assert!(stats.deleted_clauses > 0, "{stats:?}");
    assert!(stats.arena_collections > 0, "{stats:?}");
    assert!(stats.vivified_clauses > 0, "{stats:?}");
    assert!(simp.eliminated_vars > 0, "{simp:?}");
    // The trajectory itself.
    assert_eq!(verdicts, "sssssu");
    assert_eq!(
        (stats.conflicts, stats.propagations, stats.decisions),
        (3_743, 260_667, 4_977),
        "{stats:?}"
    );
}
