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
//! The checker shares no code with the solver: it has its own clause arena,
//! watched-literal scheme and trail, and no heuristics, so a bug in the
//! solver's propagation, clause GC, or inprocessing cannot also hide in the
//! checker. Its clauses live in one flat `u32` arena, each a fixed-size
//! header followed by its literals, and every watcher carries a blocker
//! literal: a watcher whose blocker is true is skipped without reading the
//! clause. Replaying an event allocates nothing once the buffers are warm.
//!
//! # Trust story
//!
//! An `Unsat` answer from [`Solver::solve_with_assumptions`](crate::Solver::solve_with_assumptions)
//! is certified when `check(&log, &assumptions)` succeeds: the log's axiom
//! events reproduce the clause database the query ran against, every lemma is
//! RUP with respect to the preceding events, and unit propagation from the
//! assumption literals derives a conflict. Deletion events are advisory — the
//! checker may ignore any of them without losing soundness, because keeping
//! extra implied clauses only strengthens unit propagation. Both [`check`]
//! and [`trim`] follow them anyway, which keeps propagation cheap on long
//! logs; they ignore only a deletion that matches no clause, names a unit, or
//! hits the reason of a root-level assignment.
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
/// End of a deletion-index bucket chain; also "no clause" for an event.
const NO_CLAUSE: u32 = u32::MAX;

// A checker clause is a fixed-size header of `u32` words followed by its
// literal codes, all in one arena vector; the clause is named by the arena
// offset of its header.
/// Header word: number of literals.
const LEN: usize = 0;
/// Header word: index of the log event that introduced the clause, or
/// [`ASSUMPTION_EVENT`] for assumption units.
const EVENT: usize = 1;
/// Header word: the [`ALIVE`], [`WATCHED_0`] and [`WATCHED_1`] bits.
const FLAGS: usize = 2;
/// Header word: the next clause of the same deletion-index bucket, or
/// [`NO_CLAUSE`].
const NEXT: usize = 3;
/// Header size in words: the literals start here.
const HEADER: usize = 4;

/// The clause takes part in propagation (neither deleted nor retracted).
const ALIVE: u32 = 1;
/// The watcher of literal 0 is in its watch list. A detached clause drops
/// its watchers lazily, so re-attaching it restores only the missing ones.
const WATCHED_0: u32 = 2;
/// The watcher of literal 1 is in its watch list (see [`WATCHED_0`]).
const WATCHED_1: u32 = 4;

/// A watch-list entry.
#[derive(Clone, Copy)]
struct Watch {
    clause: u32,
    /// Some literal of the clause. While it is true the clause is satisfied,
    /// and propagation skips the watcher without reading the arena.
    blocker: Lit,
}

/// Outcome of inserting a clause into the checker database.
#[derive(PartialEq, Eq)]
enum Insert {
    Ok,
    /// Root-level conflict: the formula so far is refuted. Under
    /// `track_deps`, [`Checker::deps`] holds the clauses involved.
    Refuted,
}

struct Checker {
    /// Clause headers and literal codes (see [`HEADER`]).
    arena: Vec<u32>,
    watches: Vec<Vec<Watch>>,
    assigns: Vec<LBool>,
    reason: Vec<u32>,
    trail: Vec<Lit>,
    qhead: usize,
    /// Deletion index: the wrapping sum of [`lit_hash`] over a watched
    /// clause's literals, an order-independent hash → the first clause of
    /// its bucket, chained through [`NEXT`].
    index: HashMap<u64, u32>,
    /// Per-literal-code marks of [`Checker::delete`], clear between calls.
    marks: Vec<bool>,
    seen: Vec<bool>,
    track_deps: bool,
    /// The clauses the last refutation or RUP check used (under
    /// `track_deps`).
    deps: Vec<u32>,
    /// Reused work lists of [`Checker::collect_deps`].
    stack: Vec<usize>,
    visited: Vec<usize>,
    propagations: u64,
}

/// One literal's share of the deletion-index hash (the SplitMix64
/// finalizer of its code).
fn lit_hash(l: Lit) -> u64 {
    let mut z = u64::from(l.0).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Checker {
    fn new(num_vars: usize, track_deps: bool) -> Self {
        Checker {
            arena: Vec::new(),
            watches: vec![Vec::new(); 2 * num_vars],
            assigns: vec![LBool::Undef; num_vars],
            reason: vec![NO_REASON; num_vars],
            trail: Vec::new(),
            qhead: 0,
            index: HashMap::new(),
            marks: vec![false; 2 * num_vars],
            seen: vec![false; num_vars],
            track_deps,
            deps: Vec::new(),
            stack: Vec::new(),
            visited: Vec::new(),
            propagations: 0,
        }
    }

    fn value(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    /// The literal stored at arena word `i`.
    fn lit(&self, i: usize) -> Lit {
        Lit(self.arena[i])
    }

    /// Arena range of clause `c`'s literals.
    fn lits_of(&self, c: u32) -> std::ops::Range<usize> {
        let start = c as usize + HEADER;
        start..start + self.arena[c as usize + LEN] as usize
    }

    fn enqueue(&mut self, l: Lit, reason: u32) {
        self.assigns[l.var().index()] = LBool::from_bool(l.is_positive());
        self.reason[l.var().index()] = reason;
        self.trail.push(l);
    }

    /// Inserts the assumption literals as unit clauses: the certificate
    /// claims "axioms AND assumptions" is unsatisfiable.
    fn assume(&mut self, assumptions: &[Lit]) -> Insert {
        for (i, &a) in assumptions.iter().enumerate() {
            if assumptions[..i].contains(&a) {
                continue;
            }
            if self.insert(&[a], ASSUMPTION_EVENT) == Insert::Refuted {
                return Insert::Refuted;
            }
        }
        Insert::Ok
    }

    /// Propagates to fixpoint; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut kept = 0;
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.value(w.blocker) == LBool::True {
                    ws[kept] = w;
                    kept += 1;
                    continue;
                }
                let c = w.clause as usize;
                let lits = c + HEADER;
                if self.arena[c + FLAGS] & ALIVE == 0 {
                    // Drop a detached clause's watcher, noting which one.
                    let bit = if self.arena[lits] == false_lit.0 {
                        WATCHED_0
                    } else {
                        WATCHED_1
                    };
                    self.arena[c + FLAGS] &= !bit;
                    continue;
                }
                if self.arena[lits] == false_lit.0 {
                    self.arena.swap(lits, lits + 1);
                }
                let first = self.lit(lits);
                let watch = Watch {
                    clause: w.clause,
                    blocker: first,
                };
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[kept] = watch;
                    kept += 1;
                    continue;
                }
                for k in lits + 2..lits + self.arena[c + LEN] as usize {
                    let cand = self.lit(k);
                    if self.value(cand) != LBool::False {
                        self.arena.swap(lits + 1, k);
                        self.watches[cand.code()].push(watch);
                        continue 'watchers;
                    }
                }
                ws[kept] = watch;
                kept += 1;
                if self.value(first) == LBool::False {
                    conflict = Some(w.clause);
                    break;
                }
                self.enqueue(first, w.clause);
            }
            // Keep the watchers a conflict left unvisited.
            let rest = ws.len() - i;
            ws.copy_within(i.., kept);
            ws.truncate(kept + rest);
            self.watches[false_lit.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Fills [`Checker::deps`] with `seed` (a conflicting clause or a root
    /// reason) and every clause reachable from its literals through reason
    /// chains. Does nothing unless `track_deps`.
    fn collect_deps(&mut self, seed: u32) {
        self.deps.clear();
        if !self.track_deps {
            return;
        }
        self.deps.push(seed);
        for k in self.lits_of(seed) {
            self.stack.push(Lit(self.arena[k]).var().index());
        }
        while let Some(v) = self.stack.pop() {
            if self.seen[v] {
                continue;
            }
            self.seen[v] = true;
            self.visited.push(v);
            let r = self.reason[v];
            if r != NO_REASON {
                self.deps.push(r);
                for k in self.lits_of(r) {
                    self.stack.push(Lit(self.arena[k]).var().index());
                }
            }
        }
        for &v in &self.visited {
            self.seen[v] = false;
        }
        self.visited.clear();
    }

    /// Marks the log events that introduced the clauses in
    /// [`Checker::deps`].
    fn mark_deps(&self, marked: &mut [bool]) {
        for &c in &self.deps {
            let e = self.arena[c as usize + EVENT];
            if e != ASSUMPTION_EVENT {
                marked[e as usize] = true;
            }
        }
    }

    /// Inserts a clause at root level, propagating any resulting units.
    ///
    /// `lits` must already be deduplicated and tautology-free. A clause with
    /// a root-true literal can never propagate and is not stored.
    fn insert(&mut self, lits: &[Lit], event: u32) -> Insert {
        if lits.iter().any(|&l| self.value(l) == LBool::True) {
            return Insert::Ok;
        }
        let c = u32::try_from(self.arena.len()).expect("checker arena overflow");
        let len = u32::try_from(lits.len()).expect("checker clause too long");
        self.arena
            .extend_from_slice(&[len, event, ALIVE, NO_CLAUSE]);
        self.arena.extend(lits.iter().map(|l| l.0));
        // Move the first two non-false literals to the front: the watches.
        let range = self.lits_of(c);
        let start = range.start;
        let mut non_false = 0;
        for k in range {
            if self.value(self.lit(k)) != LBool::False {
                self.arena.swap(start + non_false, k);
                non_false += 1;
                if non_false == 2 {
                    break;
                }
            }
        }
        match non_false {
            0 => {
                // Conflicting at root (also covers the empty clause).
                self.collect_deps(c);
                Insert::Refuted
            }
            1 => {
                self.enqueue(self.lit(start), c);
                match self.propagate() {
                    Some(conflict) => {
                        self.collect_deps(conflict);
                        Insert::Refuted
                    }
                    None => Insert::Ok,
                }
            }
            _ => {
                let (w0, w1) = (self.lit(start), self.lit(start + 1));
                self.watches[w0.code()].push(Watch {
                    clause: c,
                    blocker: w1,
                });
                self.watches[w1.code()].push(Watch {
                    clause: c,
                    blocker: w0,
                });
                self.arena[c as usize + FLAGS] |= WATCHED_0 | WATCHED_1;
                let hash = lits.iter().fold(0u64, |h, &l| h.wrapping_add(lit_hash(l)));
                if let Some(next) = self.index.insert(hash, c) {
                    self.arena[c as usize + NEXT] = next;
                }
                Insert::Ok
            }
        }
    }

    /// RUP check of `lits` against the current database. On success under
    /// `track_deps`, [`Checker::deps`] holds the clauses used.
    fn check_rup(&mut self, lits: &[Lit]) -> bool {
        // A lemma with a root-satisfied literal is trivially implied.
        if let Some(&l) = lits.iter().find(|&&l| self.value(l) == LBool::True) {
            self.collect_deps(self.reason[l.var().index()]);
            return true;
        }
        let saved = self.trail.len();
        debug_assert_eq!(self.qhead, saved);
        for &l in lits {
            if self.value(l) == LBool::Undef {
                let neg = !l;
                self.assigns[neg.var().index()] = LBool::from_bool(neg.is_positive());
                self.trail.push(neg);
            }
        }
        let conflict = self.propagate();
        if let Some(c) = conflict {
            self.collect_deps(c);
        }
        // Undo all temporary assignments.
        self.unwind_to(saved);
        conflict.is_some()
    }

    /// Pops the trail back to `len` assignments, un-assigning everything
    /// above it. `len` is always a propagation fixpoint: the root state a
    /// RUP check started from, or in the backward sweep the state before an
    /// event.
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

    /// Takes clause `c` out of propagation; its watchers go lazily.
    fn detach(&mut self, c: u32) {
        self.arena[c as usize + FLAGS] &= !ALIVE;
    }

    /// Puts a detached watched clause back, restoring the watchers it lost.
    /// Only valid in the assignment it was detached in, where its two
    /// watches were sound: the backward sweep re-attaches a deleted clause
    /// after unwinding to the trail of its deletion event.
    fn reattach(&mut self, c: u32) {
        let start = c as usize + HEADER;
        let (w0, w1) = (self.lit(start), self.lit(start + 1));
        let flags = self.arena[c as usize + FLAGS];
        if flags & WATCHED_0 == 0 {
            self.watches[w0.code()].push(Watch {
                clause: c,
                blocker: w1,
            });
        }
        if flags & WATCHED_1 == 0 {
            self.watches[w1.code()].push(Watch {
                clause: c,
                blocker: w0,
            });
        }
        self.arena[c as usize + FLAGS] = ALIVE | WATCHED_0 | WATCHED_1;
    }

    /// Handles a deletion event: detaches the first indexed clause with the
    /// same literal set and returns it. A deletion that matches nothing,
    /// names a unit, or matches only reasons of root-level assignments is
    /// ignored (sound: keeping implied clauses only strengthens
    /// propagation).
    fn delete(&mut self, lits: &[Lit]) -> Option<u32> {
        let mut len = 0;
        let mut hash = 0u64;
        for &l in lits {
            if !self.marks[l.code()] {
                self.marks[l.code()] = true;
                len += 1;
                hash = hash.wrapping_add(lit_hash(l));
            }
        }
        let found = if len > 1 {
            self.find_deletable(hash, len)
        } else {
            None
        };
        for &l in lits {
            self.marks[l.code()] = false;
        }
        let (prev, c) = found?;
        let next = self.arena[c as usize + NEXT];
        match prev {
            Some(p) => self.arena[p as usize + NEXT] = next,
            None if next == NO_CLAUSE => {
                self.index.remove(&hash);
            }
            None => {
                self.index.insert(hash, next);
            }
        }
        self.detach(c);
        Some(c)
    }

    /// The first clause of `hash`'s bucket whose `len` literals are all
    /// marked and that is not the reason of a root-level assignment,
    /// together with its predecessor in the chain.
    fn find_deletable(&self, hash: u64, len: usize) -> Option<(Option<u32>, u32)> {
        let mut prev = None;
        let mut c = *self.index.get(&hash)?;
        while c != NO_CLAUSE {
            let lits = &self.arena[self.lits_of(c)];
            if lits.len() == len
                && lits.iter().all(|&code| self.marks[code as usize])
                && lits
                    .iter()
                    .all(|&code| self.reason[Lit(code).var().index()] != c)
            {
                return Some((prev, c));
            }
            prev = Some(c);
            c = self.arena[c as usize + NEXT];
        }
        None
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

/// Copies event `i`'s literals into `buf` and deduplicates them; returns
/// `false` for a tautology, which is valid and inert.
fn load_clause(log: &ProofLog, i: usize, buf: &mut Vec<Lit>) -> bool {
    buf.clear();
    buf.extend_from_slice(log.event_lits(i));
    !dedup_clause(buf)
}

/// Marks the events the refutation transitively depends on (backward
/// checking): a forward pass *inserts* every clause without RUP-checking it,
/// applies every deletion as [`check`] does, and finds the refutation; then a
/// backward sweep unwinds the database event by event and RUP-checks only
/// the lemmas that are already marked as dependencies, marking their own
/// dependencies in turn. Lemmas and axioms the refutation never touches are
/// neither checked nor kept.
///
/// The backward sweep restores, before each event, the database that event
/// saw in the forward pass: it retracts the clause an addition inserted (a
/// lemma must not justify itself) and re-attaches the clause a deletion
/// detached. A lemma that needs a clause deleted before it is therefore
/// rejected here exactly as in [`check`], and a lemma checked after walking
/// back past a deletion may use, and so keep, the deleted clause.
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
    // The clause each event inserted, or for a deletion the clause it
    // detached ([`NO_CLAUSE`] for inert events), and the trail height before
    // it, so the backward sweep can restore the exact database and
    // propagation state every event saw.
    let mut event_clause: Vec<u32> = vec![NO_CLAUSE; num_events];
    let mut trail_before: Vec<usize> = vec![0; num_events];
    let mut refuted: Option<Option<usize>> = None;
    let mut lits = Vec::new();

    'outer: {
        if checker.assume(assumptions) == Insert::Refuted {
            refuted = Some(None);
            break 'outer;
        }
        for i in 0..num_events {
            trail_before[i] = checker.trail.len();
            if log.events[i].step == ProofStep::Delete {
                event_clause[i] = checker.delete(log.event_lits(i)).unwrap_or(NO_CLAUSE);
                continue;
            }
            if !load_clause(log, i, &mut lits) {
                continue;
            }
            let arena_before = checker.arena.len();
            let event = u32::try_from(i).expect("proof log event index overflow");
            let inserted = checker.insert(&lits, event);
            if checker.arena.len() > arena_before {
                event_clause[i] = arena_before as u32;
            }
            if inserted == Insert::Refuted {
                refuted = Some(Some(i));
                break 'outer;
            }
        }
    }

    let Some(refutation_event) = refuted else {
        return Err(CheckError::NoRefutation);
    };
    let mut marked = vec![false; num_events];
    checker.mark_deps(&mut marked);
    if let Some(re) = refutation_event {
        marked[re] = true;
        for i in (0..=re).rev() {
            checker.unwind_to(trail_before[i]);
            let step = log.events[i].step;
            match event_clause[i] {
                NO_CLAUSE => {}
                c if step == ProofStep::Delete => checker.reattach(c),
                c => checker.detach(c),
            }
            if marked[i] && step == ProofStep::Add && load_clause(log, i, &mut lits) {
                if !checker.check_rup(&lits) {
                    return Err(CheckError::NotRup { event: i });
                }
                checker.mark_deps(&mut marked);
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
    let num_vars = max_var_index(log, assumptions);
    let mut checker = Checker::new(num_vars, false);
    let mut report = CheckReport::default();
    let mut refuted: Option<Option<usize>> = None;
    let mut lits = Vec::new();

    'outer: {
        if checker.assume(assumptions) == Insert::Refuted {
            refuted = Some(None);
            break 'outer;
        }
        for i in 0..log.num_events() {
            let step = log.events[i].step;
            match step {
                ProofStep::Axiom => report.axioms += 1,
                ProofStep::Add => report.lemmas_checked += 1,
                ProofStep::Delete => {
                    report.deletions += 1;
                    checker.delete(log.event_lits(i));
                    continue;
                }
            }
            if !load_clause(log, i, &mut lits) {
                continue;
            }
            if step == ProofStep::Add && !checker.check_rup(&lits) {
                return Err(CheckError::NotRup { event: i });
            }
            let event = u32::try_from(i).expect("proof log event index overflow");
            if checker.insert(&lits, event) == Insert::Refuted {
                refuted = Some(Some(i));
                report.skipped_events = log.num_events() - i - 1;
                break 'outer;
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

/// Returns a trimmed copy of the log that keeps only the events the
/// refutation transitively depends on.
///
/// Trimming uses *backward checking*: a forward pass inserts every clause
/// without RUP-checking it, follows the deletions as [`check`] does, and
/// locates the refutation, then a backward sweep RUP-checks exactly the
/// lemmas in the refutation's dependency cone, each against the database it
/// was added to (clauses deleted after a lemma are re-attached when the sweep
/// walks back past their deletion, and kept if that lemma uses them). Both
/// unused lemmas *and unused axioms* are dropped — the kept axioms are an
/// unsatisfiable core, and a core being unsatisfiable implies the full axiom
/// set is. This makes trimming much cheaper than [`check`] on logs where the
/// refutation touches a small fraction of the events, and it shrinks proof
/// certificates by orders of magnitude.
///
/// Every kept lemma has been RUP-checked, against the database it was added
/// to, on the way; the trimmed log is not checked again here, so a consumer
/// that must trust it runs [`check`] on it (as a certificate's verifier
/// does). Note that an unused corrupt lemma is dropped rather than rejected;
/// run [`check`] on the full log when the goal is to validate every event.
pub fn trim(log: &ProofLog, assumptions: &[Lit]) -> Result<ProofLog, CheckError> {
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
    Ok(trimmed)
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

        let trimmed = trim(&log, &[]).unwrap();
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
    fn lemma_needing_an_earlier_deleted_clause_is_rejected() {
        let x = lit(0, true);
        let y = lit(1, true);
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, !y]);
        log.push(ProofStep::Axiom, &[!x, y]);
        log.push(ProofStep::Axiom, &[!x, !y]);
        // Without [x, !y], assuming !x only propagates y: [x] is not RUP.
        log.push(ProofStep::Delete, &[x, !y]);
        log.push(ProofStep::Add, &[x]);
        assert_eq!(check(&log, &[]), Err(CheckError::NotRup { event: 5 }));
        assert_eq!(
            trim(&log, &[]).map(|t| t.num_events()),
            Err(CheckError::NotRup { event: 5 })
        );
    }

    #[test]
    fn trim_reattaches_a_clause_deleted_after_the_lemma_that_used_it() {
        let [x, y, a, b] = [0, 1, 2, 3].map(|i| lit(i, true));
        let mut log = ProofLog::new();
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[x, !y]);
        log.push(ProofStep::Axiom, &[!x, a, b]);
        log.push(ProofStep::Axiom, &[!x, a, !b]);
        log.push(ProofStep::Axiom, &[!x, !a, b]);
        log.push(ProofStep::Axiom, &[!x, !a, !b]);
        // L1 = [x] is RUP through [x, !y], which is deleted right after it;
        // L2 = [a] needs x and refutes.
        log.push(ProofStep::Add, &[x]);
        log.push(ProofStep::Delete, &[x, !y]);
        log.push(ProofStep::Add, &[a]);
        assert_eq!(check(&log, &[]).unwrap().refutation_event, Some(8));

        let trimmed = trim(&log, &[]).unwrap();
        let kept: Vec<(ProofStep, Vec<Lit>)> =
            trimmed.events().map(|(s, l)| (s, l.to_vec())).collect();
        assert!(
            kept.contains(&(ProofStep::Axiom, vec![x, !y])),
            "re-checking L1 needs the deleted clause, so it is kept"
        );
        assert_eq!(trimmed.num_lemmas(), 2);
        assert_eq!(trimmed.num_deletions(), 0);
        check(&trimmed, &[]).unwrap();
    }

    #[test]
    fn deleting_the_reason_of_a_root_unit_is_ignored() {
        let [x, y, z] = [0, 1, 2].map(|i| lit(i, true));
        let mut log = ProofLog::new();
        // [!y] makes [x, y] the reason of the root unit x.
        log.push(ProofStep::Axiom, &[x, y]);
        log.push(ProofStep::Axiom, &[!y]);
        log.push(ProofStep::Delete, &[x, y]);
        log.push(ProofStep::Axiom, &[!x, z]);
        log.push(ProofStep::Axiom, &[!x, !z]);

        // Both passes share `Checker::delete`: `check` replays without
        // dependency tracking, `trim`'s forward pass with it.
        for track_deps in [false, true] {
            let mut checker = Checker::new(3, track_deps);
            assert!(checker.insert(&[x, y], 0) == Insert::Ok);
            assert!(checker.insert(&[!y], 1) == Insert::Ok);
            assert_eq!(checker.reason[x.var().index()], 0, "[x, y] implies x");
            assert_eq!(checker.delete(&[y, x]), None);
            assert_eq!(checker.arena[FLAGS] & ALIVE, ALIVE);
        }
        let report = check(&log, &[]).unwrap();
        assert_eq!((report.deletions, report.refutation_event), (1, Some(4)));
        let trimmed = trim(&log, &[]).unwrap();
        assert!(trimmed
            .events()
            .any(|(s, l)| s == ProofStep::Axiom && l == [x, y]));
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
        let trimmed = trim(&log, &[]).unwrap();
        let report2 = check(&trimmed, &[]).unwrap();
        assert!(report2.lemmas_checked <= report.lemmas_checked);
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
