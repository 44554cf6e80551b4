//! Incremental-safe CNF simplification.
//!
//! This module adds a SatELite-style preprocessing pipeline to the
//! [`Solver`]: top-level clause cleanup, failed-literal probing, subsumption
//! with self-subsuming resolution, and bounded variable elimination (BVE).
//! Unlike a one-shot preprocessor it is designed to run *between* the solve
//! calls of an incremental session — the unroller in the `bmc` crate invokes
//! it after every bound extension — which imposes one extra contract:
//!
//! # The frozen-variable contract
//!
//! Variable elimination removes every clause containing an eliminated
//! variable and replaces them by their resolvents. That is only sound if the
//! variable never appears again: not in a later [`Solver::add_clause`], not
//! in the assumptions of a later [`Solver::solve_with_assumptions`], and not
//! in a model read that must reflect the variable's defining clauses.
//! Callers therefore [`Solver::freeze_var`] (or [`Solver::freeze`]) every
//! variable that can outlive the current clause set — in the UPEC unrolling
//! these are the frame-boundary slot literals, activation literals and
//! trace-extraction variables — and the simplifier refuses to eliminate
//! frozen variables. Adding a clause or assuming a literal over an
//! eliminated variable panics: it is a programming error, not a recoverable
//! condition.
//!
//! Satisfying assignments are *extended* back over eliminated variables: the
//! clauses removed by each elimination are kept on an extension stack and
//! replayed in reverse elimination order after every SAT answer, so
//! [`crate::Model`] values remain correct for every variable the caller ever
//! saw.
//!
//! # Examples
//!
//! ```
//! use sat::Solver;
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var().positive();
//! let t = solver.new_var().positive(); // Tseitin-style internal variable
//! let y = solver.new_var().positive();
//! // t <-> (x AND y), plus an obligation on t.
//! solver.add_clause([!t, x]);
//! solver.add_clause([!t, y]);
//! solver.add_clause([t, !x, !y]);
//! solver.add_clause([t]);
//! // x and y are observed later; t is internal and may be eliminated.
//! solver.freeze(x);
//! solver.freeze(y);
//! assert!(solver.simplify(100_000));
//! let model = solver.solve();
//! let m = model.model().expect("sat");
//! assert!(m.lit_is_true(x) && m.lit_is_true(y));
//! assert!(m.lit_is_true(t)); // extension reconstructs eliminated variables
//! ```

use crate::solver::Reason;
use crate::{LBool, Lit, Solver, Var};

/// Counters accumulated over every [`Solver::simplify`] call of a solver's
/// lifetime.
///
/// # Examples
///
/// ```
/// use sat::Solver;
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// solver.add_clause([a]);
/// assert!(solver.simplify(100_000));
/// assert_eq!(solver.simplify_stats().rounds, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyStats {
    /// Number of completed `simplify` calls.
    pub rounds: u64,
    /// Clauses removed because they were satisfied at the top level.
    pub removed_clauses: u64,
    /// Literals removed from clauses (top-level falsified literals plus
    /// self-subsuming resolution).
    pub strengthened_lits: u64,
    /// Clauses removed by subsumption.
    pub subsumed_clauses: u64,
    /// Variables removed by bounded variable elimination.
    pub eliminated_vars: u64,
    /// Resolvent clauses added by variable elimination.
    pub resolvent_clauses: u64,
    /// Top-level units learned by failed-literal probing.
    pub failed_literals: u64,
    /// Learned clauses dropped because they mentioned an eliminated variable.
    pub dropped_learnts: u64,
}

impl SimplifyStats {
    /// Counter difference `self - earlier`, for attributing the work of a
    /// single `simplify` call. All fields are monotonically increasing
    /// counters; subtraction saturates so a mismatched snapshot cannot
    /// underflow. Mirrors [`crate::SolverStats::delta_since`].
    pub fn delta_since(&self, earlier: &SimplifyStats) -> SimplifyStats {
        SimplifyStats {
            rounds: self.rounds.saturating_sub(earlier.rounds),
            removed_clauses: self.removed_clauses.saturating_sub(earlier.removed_clauses),
            strengthened_lits: self
                .strengthened_lits
                .saturating_sub(earlier.strengthened_lits),
            subsumed_clauses: self
                .subsumed_clauses
                .saturating_sub(earlier.subsumed_clauses),
            eliminated_vars: self.eliminated_vars.saturating_sub(earlier.eliminated_vars),
            resolvent_clauses: self
                .resolvent_clauses
                .saturating_sub(earlier.resolvent_clauses),
            failed_literals: self.failed_literals.saturating_sub(earlier.failed_literals),
            dropped_learnts: self.dropped_learnts.saturating_sub(earlier.dropped_learnts),
        }
    }
}

/// One eliminated variable together with the clauses its elimination
/// removed, kept for model extension.
#[derive(Debug, Clone)]
pub(crate) struct ExtensionEntry {
    pub(crate) var: Var,
    pub(crate) clauses: Vec<Vec<Lit>>,
}

/// A clause lifted out of the solver's arena while the pipeline transforms
/// the database.
#[derive(Debug)]
struct SimpClause {
    lits: Vec<Lit>,
    learnt: bool,
    activity: f64,
    lbd: u32,
    deleted: bool,
}

/// Outcome of a subsumption check between a potential subsumer `c` and a
/// victim `d`.
enum SubsumeResult {
    /// `c ⊆ d`: `d` is redundant.
    Subsume,
    /// `c` subsumes `d` except for one flipped literal: that literal (as it
    /// appears in `d`) can be removed from `d`.
    Strengthen(Lit),
    /// Neither.
    None,
}

impl Solver {
    /// A variable is an elimination candidate only if each polarity occurs
    /// in at most this many clauses.
    const ELIM_OCCURRENCE_LIMIT: usize = 10;

    /// Variable elimination is skipped if any resolvent would exceed this
    /// many literals.
    const RESOLVENT_SIZE_LIMIT: usize = 20;

    /// Clauses longer than this are not tried as subsumers.
    const SUBSUMPTION_SIZE_LIMIT: usize = 20;

    /// Marks a variable as *frozen*: the simplifier will never eliminate it,
    /// so it stays legal in clauses, assumptions and model reads added after
    /// a [`Solver::simplify`] call.
    ///
    /// # Panics
    ///
    /// Panics if the variable has already been eliminated — freezing must
    /// happen before the simplification that would remove the variable.
    ///
    /// # Examples
    ///
    /// ```
    /// use sat::Solver;
    ///
    /// let mut solver = Solver::new();
    /// let v = solver.new_var();
    /// solver.freeze_var(v);
    /// assert!(solver.is_frozen(v));
    /// ```
    pub fn freeze_var(&mut self, var: Var) {
        assert!(
            !self.eliminated[var.index()],
            "variable {var} is already eliminated and cannot be frozen"
        );
        self.frozen[var.index()] = true;
    }

    /// [`Solver::freeze_var`] for a literal's variable.
    ///
    /// # Examples
    ///
    /// ```
    /// use sat::Solver;
    ///
    /// let mut solver = Solver::new();
    /// let l = solver.new_var().positive();
    /// solver.freeze(l);
    /// assert!(solver.is_frozen(l.var()));
    /// ```
    pub fn freeze(&mut self, lit: Lit) {
        self.freeze_var(lit.var());
    }

    /// Whether a variable is frozen (exempt from elimination).
    pub fn is_frozen(&self, var: Var) -> bool {
        self.frozen[var.index()]
    }

    /// Whether a variable has been removed by bounded variable elimination.
    ///
    /// Eliminated variables must not appear in new clauses or assumptions;
    /// their model values are reconstructed automatically.
    pub fn is_eliminated(&self, var: Var) -> bool {
        self.eliminated[var.index()]
    }

    /// Simplification counters accumulated so far.
    pub fn simplify_stats(&self) -> SimplifyStats {
        self.simp_stats
    }

    /// Runs the simplification pipeline: failed-literal probing (stopping
    /// once it has spent `max_probe_propagations` propagations), subsumption
    /// with self-subsuming resolution, and bounded variable elimination.
    ///
    /// Returns `false` if simplification proved the formula unsatisfiable
    /// (the solver then answers [`crate::SatResult::Unsat`] forever), `true`
    /// otherwise.
    ///
    /// # Examples
    ///
    /// ```
    /// use sat::Solver;
    ///
    /// let mut solver = Solver::new();
    /// let a = solver.new_var().positive();
    /// let b = solver.new_var().positive();
    /// solver.freeze(a);
    /// solver.add_clause([a, b]);
    /// solver.add_clause([a, !b]);
    /// assert!(solver.simplify(100_000)); // still satisfiable
    /// assert!(solver.solve().is_sat());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if called while the solver is mid-search (decision level
    /// above 0); `simplify` belongs between `solve` calls.
    pub fn simplify(&mut self, max_probe_propagations: u64) -> bool {
        assert_eq!(
            self.decision_level(),
            0,
            "simplify may only run between solve calls, at decision level 0"
        );
        if !self.ok {
            return false;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        self.simp_stats.rounds += 1;
        let stats_before = self.simp_stats;
        let mut span = obs::span("sat.simplify");

        {
            let _probe = obs::span("simplify.probe");
            if !self.probe_failed_literals(max_probe_propagations) {
                self.ok = false;
                return false;
            }
        }

        let mut clauses = {
            let _extract = obs::span("simplify.extract");
            let mut clauses = self.extract_clauses();
            if !self.clean_until_fixpoint(&mut clauses) {
                self.ok = false;
                return false;
            }
            clauses
        };
        {
            let _subsume = obs::span("simplify.subsume");
            if !self.subsume_pass(&mut clauses) {
                self.ok = false;
                return false;
            }
            if !self.clean_until_fixpoint(&mut clauses) {
                self.ok = false;
                return false;
            }
        }
        {
            let _elim = obs::span("simplify.elim");
            if !self.eliminate_pass(&mut clauses) {
                self.ok = false;
                return false;
            }
            if !self.clean_until_fixpoint(&mut clauses) {
                self.ok = false;
                return false;
            }
        }
        {
            let _rebuild = obs::span("simplify.rebuild");
            self.rebuild(clauses);
        }
        if span.id().is_some() {
            let d = self.simp_stats.delta_since(&stats_before);
            span.attr_u64("removed_clauses", d.removed_clauses);
            span.attr_u64("strengthened_lits", d.strengthened_lits);
            span.attr_u64("subsumed_clauses", d.subsumed_clauses);
            span.attr_u64("eliminated_vars", d.eliminated_vars);
            span.attr_u64("failed_literals", d.failed_literals);
        }
        true
    }

    /// Probes unassigned variables: if assuming a literal leads to a
    /// conflict by propagation alone, its negation is a top-level fact.
    ///
    /// Probing assigns (and retracts) large parts of the formula, which
    /// would overwrite the saved phases that give an incremental session its
    /// warm start; the phase array is therefore restored afterwards.
    fn probe_failed_literals(&mut self, max_propagations: u64) -> bool {
        let saved_phases = self.phase.clone();
        let budget_start = self.stats.propagations;
        let mut consistent = true;
        'vars: for vi in 0..self.num_vars() {
            if self.stats.propagations.saturating_sub(budget_start) > max_propagations {
                break;
            }
            let var = Var::from_index(vi);
            if self.value_lit(var.positive()) != LBool::Undef || self.eliminated[vi] {
                continue;
            }
            for positive in [true, false] {
                if self.value_lit(var.positive()) != LBool::Undef {
                    break;
                }
                let probe = Lit::new(var, positive);
                // A literal with no watchers (long or binary) cannot
                // propagate, let alone fail.
                if self.watches[probe.code()].is_empty()
                    && self.bin_watches[probe.code()].is_empty()
                {
                    continue;
                }
                self.push_decision(probe);
                let conflict = self.propagate().is_some();
                self.backtrack_to(0);
                if conflict {
                    self.simp_stats.failed_literals += 1;
                    // Probe units are derived through a failed decision, not
                    // root propagation, so the checker needs them as lemmas.
                    self.log_lemma(&[!probe]);
                    self.enqueue(!probe, Reason::Decision);
                    if self.propagate().is_some() {
                        consistent = false;
                        break 'vars;
                    }
                }
            }
        }
        self.phase = saved_phases;
        consistent
    }

    /// Lifts every live clause out of the arena and the binary implication
    /// lists. The old database stays in place (propagation during the
    /// pipeline still uses it — every fact it derives is implied by the
    /// original formula, so this is sound) and is discarded wholesale by
    /// [`Solver::rebuild`].
    ///
    /// Each binary clause `(a ∨ b)` is stored in two implication lists (one
    /// per direction) and extracted exactly once, from the direction whose
    /// first literal has the smaller code. Learned binaries are promoted to
    /// problem clauses here — they are implied facts, retained permanently,
    /// and letting them join subsumption/elimination only strengthens both.
    fn extract_clauses(&self) -> Vec<SimpClause> {
        let mut clauses: Vec<SimpClause> = self
            .clause_refs()
            .filter(|&cref| !self.is_deleted(cref))
            .map(|cref| {
                let learnt = self.is_learnt(cref);
                SimpClause {
                    lits: self.clause_lits(cref).collect(),
                    learnt,
                    activity: if learnt {
                        self.clause_activity(cref)
                    } else {
                        0.0
                    },
                    lbd: if learnt { self.clause_lbd(cref) } else { 0 },
                    deleted: false,
                }
            })
            .collect();
        for code in 0..self.bin_watches.len() {
            // The entry `q` at code `p` encodes the clause `(!p ∨ q)`.
            let a = !Lit::from_code(code);
            for &b in &self.bin_watches[code] {
                if a.code() < b.code() {
                    clauses.push(SimpClause {
                        lits: vec![a, b],
                        learnt: false,
                        activity: 0.0,
                        lbd: 0,
                        deleted: false,
                    });
                }
            }
        }
        clauses
    }

    /// Removes satisfied clauses, strips falsified literals and propagates
    /// any units this uncovers, until nothing changes. Returns `false` on
    /// unsatisfiability.
    fn clean_until_fixpoint(&mut self, clauses: &mut [SimpClause]) -> bool {
        loop {
            if self.propagate().is_some() {
                return false;
            }
            let trail_before = self.trail.len();
            for c in clauses.iter_mut() {
                if c.deleted {
                    continue;
                }
                let mut satisfied = false;
                let mut i = 0;
                while i < c.lits.len() {
                    match self.value_lit(c.lits[i]) {
                        LBool::True => {
                            satisfied = true;
                            break;
                        }
                        LBool::False => {
                            c.lits.swap_remove(i);
                            self.simp_stats.strengthened_lits += 1;
                        }
                        LBool::Undef => i += 1,
                    }
                }
                if satisfied {
                    // Falsified-literal strips above are not logged (the
                    // stripped literals are root-false for the checker too);
                    // satisfied-clause removals are advisory deletions.
                    self.log_delete_slice(&c.lits);
                    c.deleted = true;
                    self.simp_stats.removed_clauses += 1;
                    continue;
                }
                match c.lits.len() {
                    0 => return false,
                    1 => {
                        // Learned units are implied facts too, so both kinds
                        // may be promoted to the trail.
                        if self.value_lit(c.lits[0]) == LBool::Undef {
                            self.enqueue(c.lits[0], Reason::Decision);
                        }
                        c.deleted = true;
                    }
                    _ => {}
                }
            }
            if self.trail.len() == trail_before {
                return true;
            }
        }
    }

    /// Subsumption and self-subsuming resolution over the problem clauses.
    /// Returns `false` on unsatisfiability (a clause strengthened down to a
    /// falsified unit).
    fn subsume_pass(&mut self, clauses: &mut [SimpClause]) -> bool {
        let signature = |lits: &[Lit]| -> u64 {
            lits.iter()
                .fold(0u64, |sig, l| sig | 1u64 << (l.var().index() & 63))
        };
        let mut sigs: Vec<u64> = clauses.iter().map(|c| signature(&c.lits)).collect();
        let mut occur: Vec<Vec<u32>> = vec![Vec::new(); 2 * self.num_vars()];
        for (i, c) in clauses.iter().enumerate() {
            if c.deleted || c.learnt {
                continue;
            }
            for &l in &c.lits {
                occur[l.code()].push(i as u32);
            }
        }
        let mut order: Vec<u32> = (0..clauses.len() as u32)
            .filter(|&i| {
                let c = &clauses[i as usize];
                !c.deleted && !c.learnt && c.lits.len() <= Self::SUBSUMPTION_SIZE_LIMIT
            })
            .collect();
        order.sort_by_key(|&i| clauses[i as usize].lits.len());

        for &ci in &order {
            if clauses[ci as usize].deleted {
                continue;
            }
            // Scan the occurrence lists of the rarest literal — both
            // polarities, so self-subsumption on that literal is found too.
            let Some(&best) = clauses[ci as usize]
                .lits
                .iter()
                .min_by_key(|l| occur[l.code()].len())
            else {
                continue;
            };
            for scan in [best, !best] {
                // The occurrence lists are fixed here (they only grow in
                // `eliminate_pass`); stale entries are filtered below.
                for &candidate in &occur[scan.code()] {
                    let di = candidate as usize;
                    if di == ci as usize || clauses[di].deleted {
                        continue;
                    }
                    if clauses[di].lits.len() < clauses[ci as usize].lits.len() {
                        continue;
                    }
                    // Signature prefilter: every variable of c must appear
                    // in d.
                    if sigs[ci as usize] & !sigs[di] != 0 {
                        continue;
                    }
                    // Occurrence entries go stale when a clause is
                    // strengthened; verify membership.
                    if !clauses[di].lits.contains(&scan) {
                        continue;
                    }
                    match subsume_check(&clauses[ci as usize].lits, &clauses[di].lits) {
                        SubsumeResult::Subsume => {
                            self.log_delete_slice(&clauses[di].lits);
                            clauses[di].deleted = true;
                            self.simp_stats.subsumed_clauses += 1;
                        }
                        SubsumeResult::Strengthen(flipped) => {
                            let pos = clauses[di]
                                .lits
                                .iter()
                                .position(|&l| l == flipped)
                                .expect("strengthened literal is in the victim");
                            let old_form: Vec<Lit> = if self.proof.is_some() {
                                clauses[di].lits.clone()
                            } else {
                                Vec::new()
                            };
                            clauses[di].lits.swap_remove(pos);
                            sigs[di] = signature(&clauses[di].lits);
                            if self.proof.is_some() {
                                // The strengthened clause is RUP through the
                                // subsumer and the (still live) old form; log
                                // the addition before the deletion.
                                let new_form = clauses[di].lits.clone();
                                self.log_lemma(&new_form);
                                self.log_delete_slice(&old_form);
                            }
                            self.simp_stats.strengthened_lits += 1;
                            if clauses[di].lits.len() == 1 {
                                let unit = clauses[di].lits[0];
                                clauses[di].deleted = true;
                                match self.value_lit(unit) {
                                    LBool::False => return false,
                                    LBool::Undef => {
                                        self.enqueue(unit, Reason::Decision);
                                        if self.propagate().is_some() {
                                            return false;
                                        }
                                    }
                                    LBool::True => {}
                                }
                            }
                        }
                        SubsumeResult::None => {}
                    }
                }
            }
        }
        true
    }

    /// Bounded variable elimination. Returns `false` on unsatisfiability.
    fn eliminate_pass(&mut self, clauses: &mut Vec<SimpClause>) -> bool {
        let mut occur: Vec<Vec<u32>> = vec![Vec::new(); 2 * self.num_vars()];
        for (i, c) in clauses.iter().enumerate() {
            if c.deleted || c.learnt {
                continue;
            }
            for &l in &c.lits {
                occur[l.code()].push(i as u32);
            }
        }
        // Cheapest candidates first: fewest occurrences total.
        let mut candidates: Vec<(usize, Var)> = (0..self.num_vars())
            .filter(|&vi| {
                !self.frozen[vi]
                    && !self.eliminated[vi]
                    && self.value_lit(Var::from_index(vi).positive()) == LBool::Undef
            })
            .map(|vi| {
                let v = Var::from_index(vi);
                let total = occur[v.positive().code()].len() + occur[v.negative().code()].len();
                (total, v)
            })
            .filter(|&(total, _)| total > 0)
            .collect();
        candidates.sort_unstable_by_key(|&(total, v)| (total, v));

        for (_, v) in candidates {
            if self.value_lit(v.positive()) != LBool::Undef {
                continue; // assigned meanwhile by a unit resolvent
            }
            let live = |occ: &[u32], clauses: &[SimpClause]| -> Vec<u32> {
                occ.iter()
                    .copied()
                    .filter(|&i| !clauses[i as usize].deleted)
                    .collect()
            };
            let pos = live(&occur[v.positive().code()], clauses);
            let neg = live(&occur[v.negative().code()], clauses);
            if pos.is_empty() && neg.is_empty() {
                continue;
            }
            if pos.len() > Self::ELIM_OCCURRENCE_LIMIT || neg.len() > Self::ELIM_OCCURRENCE_LIMIT {
                continue;
            }
            // Gather the non-tautological resolvents, giving up as soon as
            // the elimination would grow the clause set (the classic
            // never-grow rule).
            let budget = pos.len() + neg.len();
            let mut resolvents: Vec<Vec<Lit>> = Vec::new();
            let mut too_costly = false;
            'resolution: for &pi in &pos {
                for &ni in &neg {
                    if let Some(r) =
                        resolve(&clauses[pi as usize].lits, &clauses[ni as usize].lits, v)
                    {
                        if r.len() > Self::RESOLVENT_SIZE_LIMIT {
                            too_costly = true;
                            break 'resolution;
                        }
                        resolvents.push(r);
                        if resolvents.len() > budget {
                            too_costly = true;
                            break 'resolution;
                        }
                    }
                }
            }
            if too_costly {
                continue;
            }

            if self.proof.is_some() {
                // Every resolvent is RUP through its two (still live) parent
                // clauses, so resolvent additions must precede the parent
                // deletions in the log.
                for r in &resolvents {
                    self.log_lemma(r);
                }
                for &i in pos.iter().chain(&neg) {
                    let form: Vec<Lit> = clauses[i as usize].lits.clone();
                    self.log_delete_slice(&form);
                }
            }

            // Commit: remove the variable's clauses (keeping them for model
            // extension), add the resolvents.
            let mut removed = Vec::with_capacity(pos.len() + neg.len());
            for &i in pos.iter().chain(&neg) {
                let c = &mut clauses[i as usize];
                c.deleted = true;
                removed.push(c.lits.clone());
            }
            self.extension.push(ExtensionEntry {
                var: v,
                clauses: removed,
            });
            self.eliminated[v.index()] = true;
            self.simp_stats.eliminated_vars += 1;
            for r in resolvents {
                match r.len() {
                    0 => return false,
                    1 => match self.value_lit(r[0]) {
                        LBool::False => return false,
                        LBool::Undef => {
                            self.enqueue(r[0], Reason::Decision);
                            if self.propagate().is_some() {
                                return false;
                            }
                        }
                        LBool::True => {}
                    },
                    _ => {
                        let idx = clauses.len() as u32;
                        for &l in &r {
                            occur[l.code()].push(idx);
                        }
                        clauses.push(SimpClause {
                            lits: r,
                            learnt: false,
                            activity: 0.0,
                            lbd: 0,
                            deleted: false,
                        });
                        self.simp_stats.resolvent_clauses += 1;
                    }
                }
            }
        }
        true
    }

    /// Replaces the solver's clause database with the transformed clause
    /// set, rebuilding every watch list and binary implication list (this
    /// also compacts the arena holes left by deleted clauses).
    fn rebuild(&mut self, clauses: Vec<SimpClause>) {
        self.clear_arena();
        for w in &mut self.watches {
            w.clear();
        }
        for w in &mut self.bin_watches {
            w.clear();
        }
        self.num_bin_clauses = 0;
        // All trail entries are top-level facts now; their reasons pointed
        // into the old database. Unassigned variables already carry no
        // clause reference (`backtrack_to` scrubs on unassignment), so this
        // trail walk leaves the whole solver free of old-arena references.
        for i in 0..self.trail.len() {
            let vi = self.trail[i].var().index();
            self.var_data[vi].reason = Reason::Decision;
        }
        #[cfg(debug_assertions)]
        for (vi, d) in self.var_data.iter().enumerate() {
            if self.value_lit(Var::from_index(vi).positive()) == LBool::Undef {
                debug_assert!(
                    !matches!(d.reason, Reason::Long(_)),
                    "unassigned v{vi} carries a clause reference into rebuild"
                );
            }
        }
        for c in clauses {
            if c.deleted {
                continue;
            }
            if c.learnt && c.lits.iter().any(|l| self.eliminated[l.var().index()]) {
                self.log_delete_slice(&c.lits);
                self.simp_stats.dropped_learnts += 1;
                continue;
            }
            debug_assert!(
                c.lits.len() >= 2,
                "cleaned clauses are at least binary (units live on the trail)"
            );
            debug_assert!(
                c.learnt || c.lits.iter().all(|l| !self.eliminated[l.var().index()]),
                "problem clauses never mention eliminated variables"
            );
            if c.lits.len() == 2 {
                // Binary clauses (learned ones included) live in the
                // implication graph from here on.
                self.attach_binary(c.lits[0], c.lits[1]);
                continue;
            }
            let cref = self.attach_clause(&c.lits, c.learnt);
            if c.learnt {
                self.set_clause_activity(cref, c.activity);
                self.set_clause_lbd(cref, c.lbd);
            }
        }
        self.stats.learnt_clauses = self.num_learnts as u64;
        // Every remaining clause was cleaned against the final trail, so
        // nothing is pending propagation.
        self.qhead = self.trail.len();
        self.qhead_bin = self.trail.len();
    }

    /// Completes a model over eliminated variables by replaying the
    /// extension stack in reverse elimination order. Each stored clause not
    /// already satisfied by the other literals forces its variable; the
    /// resolvents kept in the formula guarantee no two clauses force
    /// opposite values.
    pub(crate) fn extend_model(&self, values: &mut [bool]) {
        for entry in self.extension.iter().rev() {
            for clause in &entry.clauses {
                let mut satisfied = false;
                let mut own_lit = None;
                for &l in clause {
                    if l.var() == entry.var {
                        own_lit = Some(l);
                        continue;
                    }
                    if values[l.var().index()] == l.is_positive() {
                        satisfied = true;
                        break;
                    }
                }
                if !satisfied {
                    if let Some(l) = own_lit {
                        values[entry.var.index()] = l.is_positive();
                    }
                }
            }
        }
    }
}

/// Checks whether `c` subsumes `d`, possibly up to one flipped literal
/// (self-subsuming resolution).
fn subsume_check(c: &[Lit], d: &[Lit]) -> SubsumeResult {
    let mut flipped: Option<Lit> = None;
    for &lc in c {
        if d.contains(&lc) {
            continue;
        }
        if flipped.is_none() && d.contains(&!lc) {
            flipped = Some(!lc);
            continue;
        }
        return SubsumeResult::None;
    }
    match flipped {
        None => SubsumeResult::Subsume,
        Some(l) => SubsumeResult::Strengthen(l),
    }
}

/// Resolvent of `a` and `b` on variable `v`; `None` if it is a tautology.
fn resolve(a: &[Lit], b: &[Lit], v: Var) -> Option<Vec<Lit>> {
    let mut out: Vec<Lit> = Vec::with_capacity(a.len() + b.len() - 2);
    for &l in a {
        if l.var() != v {
            out.push(l);
        }
    }
    for &l in b {
        if l.var() == v {
            continue;
        }
        if out.contains(&!l) {
            return None;
        }
        if !out.contains(&l) {
            out.push(l);
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| solver.new_var().positive()).collect()
    }

    #[test]
    fn subsume_check_matrix() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        assert!(matches!(
            subsume_check(&[v[0], v[1]], &[v[0], v[1], v[2]]),
            SubsumeResult::Subsume
        ));
        assert!(matches!(
            subsume_check(&[v[0], v[1]], &[v[0], !v[1], v[2]]),
            SubsumeResult::Strengthen(l) if l == !v[1]
        ));
        assert!(matches!(
            subsume_check(&[v[0], v[1]], &[v[0], v[2]]),
            SubsumeResult::None
        ));
        // Two flips are not self-subsumption.
        assert!(matches!(
            subsume_check(&[v[0], v[1]], &[!v[0], !v[1], v[2]]),
            SubsumeResult::None
        ));
    }

    #[test]
    fn resolve_drops_tautologies_and_duplicates() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let a = [v[0].var().positive(), v[1], v[2]];
        let b = [v[0].var().negative(), v[1], v[3]];
        let r = resolve(&a, &b, v[0].var()).expect("not a tautology");
        assert_eq!(r, vec![v[1], v[2], v[3]]);
        let b_taut = [v[0].var().negative(), !v[1]];
        assert!(resolve(&a, &b_taut, v[0].var()).is_none());
    }

    #[test]
    fn elimination_preserves_satisfiability_and_extends_models() {
        // x <-> a AND b encoded via Tseitin; x is internal and gets
        // eliminated (all its resolvents are tautologies).
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let (a, b, x) = (v[0], v[1], v[2]);
        s.freeze(a);
        s.freeze(b);
        s.add_clause([!x, a]);
        s.add_clause([!x, b]);
        s.add_clause([x, !a, !b]);
        assert!(s.simplify(100_000));
        assert!(s.is_eliminated(x.var()), "internal x must be eliminated");
        // Pin a and b after simplification; the extension must reconstruct
        // x = a AND b even though x's defining clauses are gone.
        s.add_clause([a]);
        s.add_clause([b]);
        match s.solve() {
            SatResult::Sat(m) => {
                assert!(m.lit_is_true(a));
                assert!(m.lit_is_true(b));
                assert!(m.lit_is_true(x), "extension must reconstruct x");
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn frozen_variables_are_never_eliminated() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        for &l in &v {
            s.freeze(l);
        }
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0], v[2]]);
        assert!(s.simplify(100_000));
        for &l in &v {
            assert!(!s.is_eliminated(l.var()));
        }
        // Clauses over frozen variables may still be added afterwards.
        s.add_clause([!v[1], !v[2]]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn simplify_detects_top_level_conflicts() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], !v[1]]);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[0], !v[1]]);
        // Failed-literal probing alone refutes this formula.
        assert!(!s.simplify(100_000));
        assert!(s.solve().is_unsat());
    }

    /// Asserts that probing and elimination left the formula alone, so the
    /// test's effect is subsumption's alone.
    fn assert_only_subsumption_ran(s: &Solver) {
        let stats = s.simplify_stats();
        assert_eq!(stats.failed_literals, 0, "{stats:?}");
        assert_eq!(stats.eliminated_vars, 0, "{stats:?}");
    }

    #[test]
    fn subsumption_removes_redundant_clauses() {
        // Every variable is frozen (nothing to eliminate) and no literal
        // fails (the formula is satisfiable under every single probe).
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        for &l in &v {
            s.freeze(l);
        }
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], v[1], v[2]]); // subsumed
        s.add_clause([v[1], v[2]]);
        let before = s.num_clauses();
        assert!(s.simplify(100_000));
        assert_only_subsumption_ran(&s);
        assert!(s.num_clauses() < before);
        assert_eq!(s.simplify_stats().subsumed_clauses, 1);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn self_subsumption_strengthens_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        for &l in &v {
            s.freeze(l);
        }
        // (a ∨ b) self-subsumes (a ∨ ¬b ∨ c) into (a ∨ c): resolving on b
        // yields a clause that subsumes the original.
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], !v[1], v[2]]);
        assert!(s.simplify(100_000));
        assert_only_subsumption_ran(&s);
        assert!(s.simplify_stats().strengthened_lits >= 1);
        // ¬a forces b (first clause) and then c (strengthened clause).
        let r = s.solve_with_assumptions(&[!v[0]]);
        let m = r.model().expect("sat");
        assert!(m.lit_is_true(v[1]));
        assert!(m.lit_is_true(v[2]));
    }

    #[test]
    fn eliminated_variable_in_new_clause_panics() {
        // x <-> a AND b: no literal fails and no clause subsumes another,
        // so the internal x survives until elimination removes it.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let (a, b, x) = (v[0], v[1], v[2]);
        s.freeze(a);
        s.freeze(b);
        s.add_clause([!x, a]);
        s.add_clause([!x, b]);
        s.add_clause([x, !a, !b]);
        assert!(s.simplify(100_000));
        let stats = s.simplify_stats();
        assert_eq!((stats.failed_literals, stats.subsumed_clauses), (0, 0));
        assert!(s.is_eliminated(x.var()));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut s = s.clone();
            s.add_clause([x]);
        }));
        assert!(result.is_err(), "adding over an eliminated var must panic");
    }

    #[test]
    fn incremental_solving_after_simplify_stays_sound() {
        // Build a chain, simplify, then keep adding clauses over frozen
        // variables and check answers against a never-simplified twin.
        let mut simplified = Solver::new();
        let mut reference = Solver::new();
        let vs: Vec<Lit> = lits(&mut simplified, 6);
        let vr: Vec<Lit> = lits(&mut reference, 6);
        let clauses: Vec<Vec<usize>> = vec![vec![0, 1], vec![2, 3], vec![4, 5]];
        for c in &clauses {
            simplified.add_clause(c.iter().map(|&i| vs[i]));
            reference.add_clause(c.iter().map(|&i| vr[i]));
        }
        for &l in &vs {
            simplified.freeze(l);
        }
        assert!(simplified.simplify(100_000));
        // Add implications pinning everything down.
        for i in 0..5 {
            simplified.add_clause([!vs[i], vs[i + 1]]);
            reference.add_clause([!vr[i], vr[i + 1]]);
        }
        assert_eq!(
            simplified.solve_with_assumptions(&[!vs[5]]).is_sat(),
            reference.solve_with_assumptions(&[!vr[5]]).is_sat()
        );
        assert_eq!(simplified.solve().is_sat(), reference.solve().is_sat());
    }
}
