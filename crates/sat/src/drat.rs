//! DRAT-style proof logging and an independent proof checker.
//!
//! The solver (see [`Solver::start_proof_log`](crate::Solver::start_proof_log))
//! can record every clause addition and deletion it performs — learned clauses,
//! probing units, subsumption/strengthening rewrites, variable-elimination
//! resolvents, and database reductions — into a [`ProofLog`]. The log is a
//! checkable artifact: [`check`] replays it with an independent unit-propagation
//! engine and verifies that every added lemma is a *reverse unit propagation*
//! (RUP) consequence of the clauses that precede it, and that the log ends in a
//! root-level conflict (a refutation). [`trim`] additionally tracks which
//! lemmas the refutation actually depends on and drops the rest.
//!
//! The checker shares no search code with the solver: it has its own watched
//! literal scheme, its own trail, and no heuristics, so a bug in the solver's
//! propagation, clause GC, or inprocessing cannot also hide in the checker.
//!
//! # Trust story
//!
//! An `Unsat` answer from [`Solver::solve_with_assumptions`](crate::Solver::solve_with_assumptions)
//! is certified when `check(&log, &assumptions)` succeeds: the log's axiom
//! events reproduce the clause database the query ran against, every lemma is
//! RUP with respect to the preceding events, and unit propagation from the
//! assumption literals derives a conflict. Deletion events are advisory — the
//! checker may ignore any of them without losing soundness, because keeping
//! extra implied clauses only strengthens unit propagation.
//!
//! # Examples
//!
//! ```
//! use sat::{Solver, SatResult};
//!
//! let mut solver = Solver::new();
//! let x = solver.new_var().positive();
//! let y = solver.new_var().positive();
//! solver.start_proof_log();
//! solver.add_clause([x, y]);
//! solver.add_clause([x, !y]);
//! solver.add_clause([!x, y]);
//! solver.add_clause([!x, !y]);
//! assert!(matches!(solver.solve(), SatResult::Unsat));
//! let log = solver.take_proof_log().unwrap();
//! let report = sat::drat::check(&log, &[]).unwrap();
//! assert_eq!(report.axioms, 4);
//! ```

use std::collections::HashMap;
use std::fmt;

use crate::lit::{LBool, Lit};

/// Kind of a single proof-log event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofStep {
    /// An original problem clause, part of the formula being refuted.
    Axiom,
    /// A derived lemma; must be a RUP consequence of the preceding events.
    Add,
    /// Deletion of a previously present clause (advisory; may be ignored).
    Delete,
}

/// One event header in the flat event stream.
#[derive(Debug, Clone, Copy)]
struct EventHeader {
    step: ProofStep,
    start: u32,
    len: u32,
}

/// A DRAT-style proof log: a flat sequence of clause addition/deletion events.
///
/// Axiom events reproduce the clause database at the time logging started plus
/// every clause added afterwards through [`Solver::add_clause`](crate::Solver::add_clause);
/// `Add` events record derived lemmas (learned clauses, probing units,
/// strengthenings, elimination resolvents); `Delete` events record clauses the
/// solver dropped. Storage is flat (one literal pool plus fixed-size headers)
/// so cloning and serializing certificates stays cheap.
#[derive(Debug, Clone, Default)]
pub struct ProofLog {
    lits: Vec<Lit>,
    events: Vec<EventHeader>,
    axioms: usize,
    lemmas: usize,
    deletions: usize,
}

impl ProofLog {
    /// Creates an empty proof log.
    pub fn new() -> Self {
        ProofLog::default()
    }

    /// Appends one event to the log.
    pub fn push(&mut self, step: ProofStep, lits: &[Lit]) {
        let start = u32::try_from(self.lits.len()).expect("proof log literal pool overflow");
        let len = u32::try_from(lits.len()).expect("proof log clause too long");
        self.lits.extend_from_slice(lits);
        self.events.push(EventHeader { step, start, len });
        match step {
            ProofStep::Axiom => self.axioms += 1,
            ProofStep::Add => self.lemmas += 1,
            ProofStep::Delete => self.deletions += 1,
        }
    }

    /// Total number of events in the log.
    pub fn num_events(&self) -> usize {
        self.events.len()
    }

    /// Number of axiom (original clause) events.
    pub fn num_axioms(&self) -> usize {
        self.axioms
    }

    /// Number of derived-lemma events.
    pub fn num_lemmas(&self) -> usize {
        self.lemmas
    }

    /// Number of deletion events.
    pub fn num_deletions(&self) -> usize {
        self.deletions
    }

    /// Approximate in-memory size of the log in bytes.
    pub fn size_bytes(&self) -> usize {
        self.lits.len() * std::mem::size_of::<Lit>()
            + self.events.len() * std::mem::size_of::<EventHeader>()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The literals of event `i`.
    fn event_lits(&self, i: usize) -> &[Lit] {
        let h = self.events[i];
        &self.lits[h.start as usize..(h.start + h.len) as usize]
    }

    /// Iterates over events as `(step, literals)` pairs in log order.
    pub fn events(&self) -> impl Iterator<Item = (ProofStep, &[Lit])> + '_ {
        self.events.iter().map(move |h| {
            let lits = &self.lits[h.start as usize..(h.start + h.len) as usize];
            (h.step, lits)
        })
    }

    /// Renders the axiom events as a DIMACS CNF document.
    pub fn to_dimacs(&self) -> String {
        let mut max_var = 0i64;
        for (step, lits) in self.events() {
            if step == ProofStep::Axiom {
                for l in lits {
                    max_var = max_var.max(l.to_dimacs().abs());
                }
            }
        }
        let mut out = format!("p cnf {} {}\n", max_var, self.axioms);
        for (step, lits) in self.events() {
            if step == ProofStep::Axiom {
                for l in lits {
                    out.push_str(&l.to_dimacs().to_string());
                    out.push(' ');
                }
                out.push_str("0\n");
            }
        }
        out
    }

    /// Renders the lemma and deletion events in textual DRAT format.
    pub fn to_drat(&self) -> String {
        let mut out = String::new();
        for (step, lits) in self.events() {
            match step {
                ProofStep::Axiom => continue,
                ProofStep::Add => {}
                ProofStep::Delete => out.push_str("d "),
            }
            for l in lits {
                out.push_str(&l.to_dimacs().to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }
}

/// Statistics from a successful proof check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Axiom events inserted.
    pub axioms: usize,
    /// Lemma events whose RUP check was performed.
    pub lemmas_checked: usize,
    /// Deletion events processed (matched or ignored).
    pub deletions: usize,
    /// Unit propagations performed by the checker.
    pub propagations: u64,
    /// Index of the event during which the refutation was found, or `None`
    /// when the assumption literals alone were contradictory.
    pub refutation_event: Option<usize>,
    /// Events after the refutation that were not replayed.
    pub skipped_events: usize,
}

/// Reasons a proof log can fail to check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Lemma at this event index is not a RUP consequence of the preceding
    /// events.
    NotRup {
        /// Index of the offending event in the log.
        event: usize,
    },
    /// The whole log replayed without ever reaching a root-level conflict.
    NoRefutation,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::NotRup { event } => {
                write!(f, "lemma at event {event} is not a RUP consequence")
            }
            CheckError::NoRefutation => write!(f, "proof log ends without a refutation"),
        }
    }
}

impl std::error::Error for CheckError {}

const NO_REASON: u32 = u32::MAX;
/// Clause-origin marker for assumption units (not tied to a log event).
const ASSUMPTION_EVENT: u32 = u32::MAX;

struct CClause {
    lits: Vec<Lit>,
    alive: bool,
    /// Index of the log event that introduced the clause, or
    /// [`ASSUMPTION_EVENT`] for assumption units.
    event: u32,
    used_as_reason: bool,
}

/// Outcome of inserting a clause into the checker database.
enum Insert {
    Ok,
    /// Root-level conflict: the formula so far is refuted. Carries the clause
    /// ids involved when dependency tracking is on.
    Refuted(Vec<u32>),
}

struct Checker {
    clauses: Vec<CClause>,
    watches: Vec<Vec<u32>>,
    assigns: Vec<LBool>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    qhead: usize,
    index: HashMap<u64, Vec<u32>>,
    seen: Vec<bool>,
    track_deps: bool,
    propagations: u64,
}

fn lit_value(assigns: &[LBool], l: Lit) -> LBool {
    let v = assigns[l.var().index()];
    if l.is_positive() {
        v
    } else {
        v.negate()
    }
}

fn clause_signature(sorted_codes: &[usize]) -> u64 {
    // FNV-1a over the sorted literal codes.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in sorted_codes {
        h ^= c as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn sorted_codes(lits: &[Lit]) -> Vec<usize> {
    let mut codes: Vec<usize> = lits.iter().map(|l| l.code()).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

impl Checker {
    fn new(num_vars: usize, track_deps: bool) -> Self {
        Checker {
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            assigns: vec![LBool::Undef; num_vars],
            reason: vec![NO_REASON; num_vars],
            trail: Vec::new(),
            qhead: 0,
            index: HashMap::new(),
            seen: vec![false; num_vars],
            track_deps,
            propagations: 0,
        }
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        self.assigns[l.var().index()] = LBool::from_bool(l.is_positive());
        self.reason[l.var().index()] = reason;
        self.trail.push(l);
        if reason != NO_REASON {
            self.clauses[reason as usize].used_as_reason = true;
        }
    }

    /// Propagates to fixpoint; returns the conflicting clause id if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let cid = ws[i] as usize;
                if !self.clauses[cid].alive {
                    ws.swap_remove(i);
                    continue;
                }
                if self.clauses[cid].lits[0] == false_lit {
                    self.clauses[cid].lits.swap(0, 1);
                }
                let first = self.clauses[cid].lits[0];
                if lit_value(&self.assigns, first) == LBool::True {
                    i += 1;
                    continue;
                }
                for k in 2..self.clauses[cid].lits.len() {
                    let cand = self.clauses[cid].lits[k];
                    if lit_value(&self.assigns, cand) != LBool::False {
                        self.clauses[cid].lits.swap(1, k);
                        self.watches[cand.code()].push(cid as u32);
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                if lit_value(&self.assigns, first) == LBool::False {
                    conflict = Some(cid as u32);
                    break;
                }
                self.enqueue(first, cid as u32);
                i += 1;
            }
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Collects the clause ids reachable through reason chains from `seed_vars`,
    /// starting from `seed_clause` when given. Only populated under
    /// `track_deps`.
    fn collect_deps(&mut self, seed_clause: Option<u32>, seed_vars: &[Lit]) -> Vec<u32> {
        if !self.track_deps {
            return Vec::new();
        }
        let mut deps = Vec::new();
        let mut stack: Vec<usize> = Vec::new();
        if let Some(cid) = seed_clause {
            deps.push(cid);
        }
        for l in seed_vars {
            stack.push(l.var().index());
        }
        let mut visited: Vec<usize> = Vec::new();
        while let Some(v) = stack.pop() {
            if self.seen[v] {
                continue;
            }
            self.seen[v] = true;
            visited.push(v);
            let r = self.reason[v];
            if r != NO_REASON {
                deps.push(r);
                for l in &self.clauses[r as usize].lits {
                    stack.push(l.var().index());
                }
            }
        }
        for v in visited {
            self.seen[v] = false;
        }
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Inserts a clause at root level, propagating any resulting units.
    ///
    /// `lits` must already be deduplicated and tautology-free.
    fn insert(&mut self, lits: &[Lit], event: u32) -> Insert {
        if lits
            .iter()
            .any(|&l| lit_value(&self.assigns, l) == LBool::True)
        {
            // Permanently satisfied at root; it can never propagate.
            return Insert::Ok;
        }
        let cid = u32::try_from(self.clauses.len()).expect("checker clause count overflow");
        let non_false: Vec<Lit> = lits
            .iter()
            .copied()
            .filter(|&l| lit_value(&self.assigns, l) != LBool::False)
            .collect();
        match non_false.len() {
            0 => {
                // Conflicting at root (also covers the empty clause).
                self.clauses.push(CClause {
                    lits: lits.to_vec(),
                    alive: true,
                    event,
                    used_as_reason: false,
                });
                let deps = self.collect_deps(Some(cid), lits);
                Insert::Refuted(deps)
            }
            1 => {
                let unit = non_false[0];
                self.clauses.push(CClause {
                    lits: lits.to_vec(),
                    alive: true,
                    event,
                    used_as_reason: false,
                });
                self.enqueue(unit, cid);
                match self.propagate() {
                    Some(conflict) => {
                        let seed: Vec<Lit> = self.clauses[conflict as usize].lits.clone();
                        let deps = self.collect_deps(Some(conflict), &seed);
                        Insert::Refuted(deps)
                    }
                    None => Insert::Ok,
                }
            }
            _ => {
                // Watch two non-false literals.
                let mut stored = lits.to_vec();
                let p0 = stored.iter().position(|&l| l == non_false[0]).unwrap();
                stored.swap(0, p0);
                let p1 = stored.iter().position(|&l| l == non_false[1]).unwrap();
                stored.swap(1, p1);
                let (w0, w1) = (stored[0], stored[1]);
                self.clauses.push(CClause {
                    lits: stored,
                    alive: true,
                    event,
                    used_as_reason: false,
                });
                self.watches[w0.code()].push(cid);
                self.watches[w1.code()].push(cid);
                let codes = sorted_codes(lits);
                self.index
                    .entry(clause_signature(&codes))
                    .or_default()
                    .push(cid);
                Insert::Ok
            }
        }
    }

    /// RUP check of `lits` against the current database. On success returns the
    /// clause ids used (under `track_deps`); on failure returns `None`.
    fn check_rup(&mut self, lits: &[Lit]) -> Option<Vec<u32>> {
        // A lemma with a root-satisfied literal is trivially implied.
        for &l in lits {
            if lit_value(&self.assigns, l) == LBool::True {
                let deps = self.collect_deps(None, &[l]);
                return Some(deps);
            }
        }
        let saved = self.trail.len();
        debug_assert_eq!(self.qhead, saved);
        for &l in lits {
            if lit_value(&self.assigns, l) == LBool::Undef {
                let neg = !l;
                self.assigns[neg.var().index()] = LBool::from_bool(neg.is_positive());
                self.trail.push(neg);
            }
        }
        let conflict = self.propagate();
        let result = conflict.map(|c| {
            let seed: Vec<Lit> = self.clauses[c as usize].lits.clone();
            self.collect_deps(Some(c), &seed)
        });
        // Undo all temporary assignments.
        for i in saved..self.trail.len() {
            let v = self.trail[i].var().index();
            self.assigns[v] = LBool::Undef;
            self.reason[v] = NO_REASON;
        }
        self.trail.truncate(saved);
        self.qhead = saved;
        result
    }

    /// Pops the root trail back to `len` assignments, un-assigning everything
    /// above it. Only used by the backward dependency sweep, where the trail
    /// is always fully propagated (`qhead == trail.len()`) between events.
    fn unwind_to(&mut self, len: usize) {
        while self.trail.len() > len {
            let v = self
                .trail
                .pop()
                .expect("trail above target length")
                .var()
                .index();
            self.assigns[v] = LBool::Undef;
            self.reason[v] = NO_REASON;
        }
        self.qhead = len;
    }

    /// Handles a deletion event: marks the first matching deletable clause
    /// dead. Unmatched or reason-locked deletions are ignored (sound: keeping
    /// implied clauses only strengthens propagation).
    fn delete(&mut self, lits: &[Lit]) {
        let codes = sorted_codes(lits);
        if codes.len() <= 1 {
            return;
        }
        let sig = clause_signature(&codes);
        let Some(candidates) = self.index.get_mut(&sig) else {
            return;
        };
        let mut chosen = None;
        for (pos, &cid) in candidates.iter().enumerate() {
            let c = &self.clauses[cid as usize];
            if !c.alive || c.used_as_reason {
                continue;
            }
            if sorted_codes(&c.lits) == codes {
                chosen = Some((pos, cid));
                break;
            }
        }
        if let Some((pos, cid)) = chosen {
            candidates.swap_remove(pos);
            self.clauses[cid as usize].alive = false;
        }
    }
}

/// Deduplicates literals in place (order-preserving); returns `true` when the
/// clause is a tautology (contains a literal and its negation).
fn dedup_clause(lits: &mut Vec<Lit>) -> bool {
    let mut out = 0;
    for i in 0..lits.len() {
        let l = lits[i];
        let prior = &lits[..out];
        if prior.contains(&l) {
            continue;
        }
        if prior.contains(&!l) {
            return true;
        }
        lits[out] = l;
        out += 1;
    }
    lits.truncate(out);
    false
}

fn max_var_index(log: &ProofLog, assumptions: &[Lit]) -> usize {
    let mut n = 0usize;
    for l in &log.lits {
        n = n.max(l.var().index() + 1);
    }
    for l in assumptions {
        n = n.max(l.var().index() + 1);
    }
    n
}

fn run_check(log: &ProofLog, assumptions: &[Lit]) -> Result<CheckReport, CheckError> {
    let num_vars = max_var_index(log, assumptions);
    let mut checker = Checker::new(num_vars, false);
    let mut report = CheckReport::default();
    let mut refuted: Option<Option<usize>> = None;

    // Assumption literals become unit clauses: the certificate claims
    // "axioms AND assumptions" is unsatisfiable.
    'outer: {
        let mut seen_assumptions: Vec<Lit> = Vec::new();
        for &a in assumptions {
            if seen_assumptions.contains(&a) {
                continue;
            }
            seen_assumptions.push(a);
            if let Insert::Refuted(_) = checker.insert(&[a], ASSUMPTION_EVENT) {
                refuted = Some(None);
                break 'outer;
            }
        }
        for i in 0..log.num_events() {
            let step = log.events[i].step;
            let mut lits = log.event_lits(i).to_vec();
            match step {
                ProofStep::Axiom | ProofStep::Add => {
                    if dedup_clause(&mut lits) {
                        // Tautologies are valid and inert; skip them.
                        if step == ProofStep::Axiom {
                            report.axioms += 1;
                        } else {
                            report.lemmas_checked += 1;
                        }
                        continue;
                    }
                    if step == ProofStep::Add {
                        report.lemmas_checked += 1;
                        if checker.check_rup(&lits).is_none() {
                            return Err(CheckError::NotRup { event: i });
                        }
                    } else {
                        report.axioms += 1;
                    }
                    let event = u32::try_from(i).expect("proof log event index overflow");
                    if let Insert::Refuted(_) = checker.insert(&lits, event) {
                        refuted = Some(Some(i));
                        report.skipped_events = log.num_events() - i - 1;
                        break 'outer;
                    }
                }
                ProofStep::Delete => {
                    report.deletions += 1;
                    checker.delete(&lits);
                }
            }
        }
    }

    report.propagations = checker.propagations;
    match refuted {
        Some(event) => {
            report.refutation_event = event;
            Ok(report)
        }
        None => Err(CheckError::NoRefutation),
    }
}

/// Marks the events the refutation transitively depends on (backward
/// checking): a forward pass *inserts* every clause without RUP-checking it
/// and finds the refutation, then a backward sweep unwinds the database event
/// by event and RUP-checks only the lemmas that are already marked as
/// dependencies, marking their own dependencies in turn. Lemmas and axioms
/// the refutation never touches are neither checked nor kept.
///
/// Deletion events are ignored here: keeping extra implied clauses only
/// strengthens propagation, and the trimmed output drops deletions anyway.
///
/// Returns the marked-event bitmap and the refutation event (`None` when the
/// assumptions alone were contradictory).
fn mark_dependencies(
    log: &ProofLog,
    assumptions: &[Lit],
) -> Result<(Vec<bool>, Option<usize>), CheckError> {
    let num_events = log.num_events();
    let num_vars = max_var_index(log, assumptions);
    let mut checker = Checker::new(num_vars, true);
    // Clause each event inserted (inert events insert none) and the trail
    // height before it, so the backward sweep can restore the exact database
    // and propagation state every event was inserted into.
    let mut event_clause: Vec<Option<u32>> = vec![None; num_events];
    let mut trail_before: Vec<usize> = vec![0; num_events];
    let mut refuted: Option<(Option<usize>, Vec<u32>)> = None;

    'outer: {
        let mut seen_assumptions: Vec<Lit> = Vec::new();
        for &a in assumptions {
            if seen_assumptions.contains(&a) {
                continue;
            }
            seen_assumptions.push(a);
            if let Insert::Refuted(deps) = checker.insert(&[a], ASSUMPTION_EVENT) {
                refuted = Some((None, deps));
                break 'outer;
            }
        }
        for i in 0..num_events {
            trail_before[i] = checker.trail.len();
            if log.events[i].step == ProofStep::Delete {
                continue;
            }
            let mut lits = log.event_lits(i).to_vec();
            if dedup_clause(&mut lits) {
                continue;
            }
            let clauses_before = checker.clauses.len();
            let event = u32::try_from(i).expect("proof log event index overflow");
            let inserted = checker.insert(&lits, event);
            if checker.clauses.len() > clauses_before {
                event_clause[i] = Some(clauses_before as u32);
            }
            if let Insert::Refuted(deps) = inserted {
                refuted = Some((Some(i), deps));
                break 'outer;
            }
        }
    }

    let Some((refutation_event, dep_clauses)) = refuted else {
        return Err(CheckError::NoRefutation);
    };
    let mut marked = vec![false; num_events];
    let mark_clause_events = |checker: &Checker, marked: &mut Vec<bool>, deps: &[u32]| {
        for &c in deps {
            let e = checker.clauses[c as usize].event;
            if e != ASSUMPTION_EVENT {
                marked[e as usize] = true;
            }
        }
    };
    mark_clause_events(&checker, &mut marked, &dep_clauses);
    if let Some(re) = refutation_event {
        marked[re] = true;
        // Backward sweep: restore the pre-event state, retract the event's
        // clause (a lemma must not justify itself), and RUP-check it only if
        // something later depends on it.
        for i in (0..=re).rev() {
            checker.unwind_to(trail_before[i]);
            if let Some(cid) = event_clause[i] {
                checker.clauses[cid as usize].alive = false;
            }
            if marked[i] && log.events[i].step == ProofStep::Add {
                let mut lits = log.event_lits(i).to_vec();
                if dedup_clause(&mut lits) {
                    continue;
                }
                match checker.check_rup(&lits) {
                    Some(deps) => mark_clause_events(&checker, &mut marked, &deps),
                    None => return Err(CheckError::NotRup { event: i }),
                }
            }
        }
    }
    Ok((marked, refutation_event))
}

/// Verifies a proof log: every lemma must be a RUP consequence of the events
/// preceding it, and unit propagation from the axioms plus the `assumptions`
/// (inserted as unit clauses) must derive a root-level conflict.
///
/// On success the certificate establishes that the conjunction of the axiom
/// clauses and the assumption literals is unsatisfiable.
///
/// # Examples
///
/// ```
/// use sat::drat::{ProofLog, ProofStep, check};
/// use sat::{Lit, Var};
///
/// let x = Var::from_index(0).positive();
/// let y = Var::from_index(1).positive();
/// let mut log = ProofLog::new();
/// log.push(ProofStep::Axiom, &[x, y]);
/// log.push(ProofStep::Axiom, &[x, !y]);
/// log.push(ProofStep::Axiom, &[!x, y]);
/// log.push(ProofStep::Axiom, &[!x, !y]);
/// log.push(ProofStep::Add, &[x]); // RUP: assuming !x propagates y and !y.
/// let report = check(&log, &[]).unwrap();
/// assert_eq!(report.lemmas_checked, 1);
/// ```
pub fn check(log: &ProofLog, assumptions: &[Lit]) -> Result<CheckReport, CheckError> {
    run_check(log, assumptions)
}

/// Returns a trimmed copy of the log that keeps only the events the
/// refutation transitively depends on, together with the [`CheckReport`] of
/// checking the trimmed log.
///
/// Trimming uses *backward checking*: a forward pass inserts every clause
/// without RUP-checking it and locates the refutation, then a backward sweep
/// RUP-checks exactly the lemmas in the refutation's dependency cone. Both
/// unused lemmas *and unused axioms* are dropped — the kept axioms are an
/// unsatisfiable core, and a core being unsatisfiable implies the full axiom
/// set is. This makes trimming much cheaper than [`check`] on logs where the
/// refutation touches a small fraction of the events, and it shrinks proof
/// certificates by orders of magnitude.
///
/// The trimmed log is re-verified with [`check`] under the same assumptions
/// before being returned, so a successful `trim` *is* a successful check:
/// the returned report is the trimmed log's. Note that an unused corrupt
/// lemma is dropped rather than rejected; run [`check`] on the full log when
/// the goal is to validate every event.
pub fn trim(log: &ProofLog, assumptions: &[Lit]) -> Result<(ProofLog, CheckReport), CheckError> {
    let (marked, refutation_event) = mark_dependencies(log, assumptions)?;
    let mut trimmed = ProofLog::new();
    let last = refutation_event.unwrap_or(0);
    for (i, keep) in marked.iter().enumerate() {
        if refutation_event.is_some() && i > last {
            break;
        }
        if *keep {
            match log.events[i].step {
                step @ (ProofStep::Axiom | ProofStep::Add) => {
                    trimmed.push(step, log.event_lits(i));
                }
                ProofStep::Delete => {}
            }
        }
    }
    let report = run_check(&trimmed, assumptions)?;
    Ok((trimmed, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;
    use crate::solver::Solver;
    use crate::SatResult;

    fn lit(i: usize, positive: bool) -> Lit {
        let v = Var::from_index(i);
        if positive {
            v.positive()
        } else {
            v.negative()
        }
    }

    #[test]
    fn manual_log_checks_and_trims() {
        let x = lit(0, true);
        let y = lit(1, true);
        let z = lit(2, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, !y]);
        log.push(ProofStep::Axiom, &[!x, y]);
        log.push(ProofStep::Axiom, &[!x, !y]);
        // Useless but valid lemma over a fresh variable.
        log.push(ProofStep::Add, &[x, z]);
        // Deriving x refutes together with the !x clauses.
        log.push(ProofStep::Add, &[x]);
        let report = check(&log, &[]).unwrap();
        assert_eq!(report.axioms, 4);
        assert_eq!(report.lemmas_checked, 2);
        assert_eq!(report.refutation_event, Some(5));

        let (trimmed, _) = trim(&log, &[]).unwrap();
        assert_eq!(trimmed.num_axioms(), 4);
        // The [x, z] lemma is unused and must be dropped.
        assert_eq!(trimmed.num_lemmas(), 1);
        check(&trimmed, &[]).unwrap();
    }

    #[test]
    fn non_rup_lemma_rejected() {
        let x = lit(0, true);
        let y = lit(1, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Add, &[x]);
        assert_eq!(check(&log, &[]), Err(CheckError::NotRup { event: 1 }));
    }

    #[test]
    fn satisfiable_log_has_no_refutation() {
        let x = lit(0, true);
        let y = lit(1, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        assert_eq!(check(&log, &[]), Err(CheckError::NoRefutation));
    }

    #[test]
    fn contradictory_assumptions_refute_immediately() {
        let x = lit(0, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, lit(1, true)]);
        let report = check(&log, &[x, !x]).unwrap();
        assert_eq!(report.refutation_event, None);
    }

    #[test]
    fn assumption_falsified_by_axioms() {
        let x = lit(0, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[!x]);
        let report = check(&log, &[x]).unwrap();
        assert_eq!(report.refutation_event, Some(0));
    }

    #[test]
    fn deletion_events_are_processed() {
        let x = lit(0, true);
        let y = lit(1, true);
        let mut log = ProofLog::new();
        // Two copies of [x, y]; deleting one leaves the other, so the
        // refutation still goes through.
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, !y]);
        log.push(ProofStep::Axiom, &[!x, y]);
        log.push(ProofStep::Axiom, &[!x, !y]);
        log.push(ProofStep::Delete, &[x, y]);
        log.push(ProofStep::Add, &[x]);
        let report = check(&log, &[]).unwrap();
        assert_eq!(report.deletions, 1);
        assert_eq!(report.refutation_event, Some(6));
    }

    #[test]
    fn solver_unsat_log_checks_end_to_end() {
        let mut solver = Solver::new();
        let vars: Vec<Lit> = (0..3).map(|_| solver.new_var().positive()).collect();
        solver.start_proof_log();
        // 4 pigeons, 3 holes style small instance: all sign combinations over
        // three variables, forcing UNSAT after search.
        for mask in 0..8u32 {
            let clause: Vec<Lit> = vars
                .iter()
                .enumerate()
                .map(|(i, &l)| if mask & (1 << i) != 0 { l } else { !l })
                .collect();
            solver.add_clause(clause);
        }
        assert!(matches!(solver.solve(), SatResult::Unsat));
        let log = solver.take_proof_log().unwrap();
        let report = check(&log, &[]).unwrap();
        assert_eq!(report.axioms, 8);
        let (trimmed, _) = trim(&log, &[]).unwrap();
        let report2 = check(&trimmed, &[]).unwrap();
        assert!(report2.lemmas_checked <= report.lemmas_checked);
    }

    #[test]
    fn to_dimacs_and_drat_render() {
        let x = lit(0, true);
        let y = lit(1, false);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Add, &[x]);
        log.push(ProofStep::Delete, &[x, y]);
        let dimacs = log.to_dimacs();
        assert!(dimacs.contains("p cnf 2 1"));
        assert!(dimacs.contains("1 -2 0"));
        let drat = log.to_drat();
        assert!(drat.contains("1 0"));
        assert!(drat.contains("d 1 -2 0"));
    }

    #[test]
    fn size_accounting() {
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[lit(0, true), lit(1, true)]);
        log.push(ProofStep::Add, &[lit(0, true)]);
        assert_eq!(log.num_events(), 2);
        assert!(log.size_bytes() > 0);
        assert!(!log.is_empty());
    }
}
