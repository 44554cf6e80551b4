//! Conflict-driven clause-learning (CDCL) SAT solver.
//!
//! The solver follows the classic MiniSat architecture: two watched literals
//! per clause, first-UIP conflict analysis, VSIDS variable activities with an
//! index-tracked mutable heap, phase saving, Luby restarts and periodic
//! deletion of inactive learned clauses. Three storage choices keep the
//! propagation inner loop off cold memory:
//!
//! * **Binary implication graph.** Two-literal clauses never enter the
//!   clause arena. Each literal carries a flat list of the literals it
//!   directly implies, so propagating a binary clause reads one inline `Lit`
//!   and never touches the arena. Binary implications are propagated to
//!   fixpoint before any long clause is visited.
//! * **One clause arena.** A clause of three or more literals is a header
//!   word (length and flags) followed by its literals, and a learned clause
//!   adds its LBD and activity after them, all in one `u32` vector. A clause
//!   is named by the arena offset of its header, so a watcher visit that
//!   passes the blocker reads one cache line. Database reduction tombstones
//!   clauses in place; when the tombstoned literals reach 25% of the arena's
//!   literals a compacting collection copies the live clauses into a fresh
//!   arena and forwards every watcher and reason through the old copy.
//! * **Literal-indexed values.** The assignment is one table indexed by
//!   literal code, so looking up a literal's value is a single load.

use crate::drat::{ProofLog, ProofStep};
use crate::simplify::{ExtensionEntry, SimplifyStats};
use crate::{LBool, Lit, Model, SatResult, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Statistics collected during solving.
///
/// All fields except `learnt_clauses` are monotonically increasing counters
/// accumulated over the solver's lifetime; `learnt_clauses` is a gauge (the
/// current database size). To attribute effort to a single `solve` call in an
/// incremental session, snapshot the stats before the call and use
/// [`SolverStats::delta_since`] afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of unit propagations performed (trail literals processed).
    pub propagations: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of target-rephasing events: restarts at which the saved phase
    /// vector was reset wholesale (to the best-trail snapshot, its inverse, a
    /// constant polarity or a deterministic random vector).
    pub rephasings: u64,
    /// Number of conflicts resolved by chronological backtracking (one level)
    /// instead of a far non-chronological backjump.
    pub chrono_backtracks: u64,
    /// Number of clauses strengthened (shortened) by vivification.
    pub vivified_clauses: u64,
    /// Number of learned clauses currently in the database (long clauses
    /// only; learned binary clauses move to the implication graph and are
    /// retained permanently).
    pub learnt_clauses: u64,
    /// Number of learned clauses deleted by database reduction.
    pub deleted_clauses: u64,
    /// Number of compacting clause-arena garbage collections performed.
    pub arena_collections: u64,
}

impl SolverStats {
    /// Counter difference `self - earlier`, for measuring one solving episode
    /// of an incremental session. Counters are subtracted (saturating, so a
    /// mismatched snapshot cannot underflow); the `learnt_clauses` gauge
    /// keeps the current value.
    ///
    /// # Examples
    ///
    /// ```
    /// use sat::{Solver, SolverStats};
    ///
    /// let mut solver = Solver::new();
    /// let a = solver.new_var().positive();
    /// let b = solver.new_var().positive();
    /// solver.add_clause([a, b]);
    /// let before = solver.stats();
    /// assert!(solver.solve().is_sat());
    /// let spent = solver.stats().delta_since(&before);
    /// assert_eq!(spent.conflicts, 0); // trivially satisfiable
    /// ```
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            rephasings: self.rephasings.saturating_sub(earlier.rephasings),
            chrono_backtracks: self
                .chrono_backtracks
                .saturating_sub(earlier.chrono_backtracks),
            vivified_clauses: self
                .vivified_clauses
                .saturating_sub(earlier.vivified_clauses),
            learnt_clauses: self.learnt_clauses,
            deleted_clauses: self.deleted_clauses.saturating_sub(earlier.deleted_clauses),
            arena_collections: self
                .arena_collections
                .saturating_sub(earlier.arena_collections),
        }
    }
}

/// Deterministic resource budget for one solving episode.
///
/// A budget caps the conflicts of each episode — solver work, never
/// wall-clock time — so a budgeted run stops at exactly the same point on
/// every machine and every rerun. A cap of `None` leaves the episode
/// unlimited. Budgets are *per episode*: each [`Solver::solve`] call
/// measures its own spend from zero, so calling `solve` again after an
/// exhausted episode **resumes** the search with a fresh allotment while
/// keeping every learned clause, activity and saved phase — the resumed run
/// reaches the same verdict the uninterrupted run would have.
///
/// The cap is checked once per conflict, after the conflict's clause is
/// learned, so every exhausted episode leaves a trace and a resume loop
/// with a fixed allotment makes progress.
///
/// # Examples
///
/// ```
/// use sat::{Budget, SatResult, Solver, StopCause};
///
/// let mut solver = Solver::new();
/// let x = solver.new_var().positive();
/// let y = solver.new_var().positive();
/// for (a, b) in [(x, y), (x, !y), (!x, y), (!x, !y)] {
///     solver.add_clause([a, b]);
/// }
/// solver.set_budget(Budget::conflicts(0)); // stop at the first conflict
/// assert_eq!(solver.solve(), SatResult::Unknown);
/// assert_eq!(solver.last_stop(), Some(StopCause::BudgetExhausted));
/// solver.set_budget(Budget::unlimited());
/// assert!(solver.solve().is_unsat()); // resumed and finished
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum conflicts per episode (`None` = unlimited).
    pub conflicts: Option<u64>,
}

impl Budget {
    /// The unlimited budget (no cap; identical to `Budget::default()`).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget capping conflicts at `n` per episode.
    pub fn conflicts(n: u64) -> Self {
        Self { conflicts: Some(n) }
    }

    /// The tighter of two budgets. The `bmc` unroller caps a call's budget
    /// at its simplification trial with this.
    pub fn min(self, other: Budget) -> Budget {
        Budget {
            conflicts: match (self.conflicts, other.conflicts) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            },
        }
    }

    /// The budget left after spending `spent`, saturating at zero. Callers
    /// that split one budget across several internal solve episodes (the
    /// `bmc` unroller's trial-solve/simplify/full-solve pipeline) thread
    /// the remainder through with this.
    pub fn minus(self, spent: &SolverStats) -> Budget {
        Budget {
            conflicts: self.conflicts.map(|c| c.saturating_sub(spent.conflicts)),
        }
    }

    /// Whether the cap has zero remaining.
    pub fn is_exhausted(&self) -> bool {
        self.conflicts == Some(0)
    }
}

/// Why the most recent solving episode returned [`SatResult::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// A [`Budget`] cap ([`Solver::set_budget`]) was reached.
    BudgetExhausted,
    /// An external cancellation: a raised [`CancelToken`].
    Cancelled,
}

/// External cancellation handle shared between a requesting thread and a
/// solver.
///
/// Cloning yields another handle to the same flag. The solver polls the
/// token with one relaxed atomic load at restart boundaries (and once at
/// episode entry), so an installed-but-unset token costs a predictable
/// branch per restart and nothing per conflict; with no token installed the
/// cost is a `None` check. A cancelled episode returns
/// [`SatResult::Unknown`] with [`StopCause::Cancelled`]; solver state stays
/// valid and later episodes (after [`CancelToken::reset`]) work normally.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation (relaxed store; takes effect at the solver's
    /// next poll point).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Clears the request so the token (and its solver) can be reused.
    pub fn reset(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

// An arena clause is a header word followed by its literal codes; a learned
// clause carries `TRAILER` more words after its literals: its LBD and the
// low and high halves of its `f64` activity. A clause is named by the arena
// offset of its header word, its *clause reference*. Binary clauses never
// reach the arena: they live in the implication lists
// (`Solver::bin_watches`).
/// Header bit: a learned clause (it carries the trailer).
const LEARNT: u32 = 1;
/// Header bit: a tombstoned clause, left in place until the next collection.
const DELETED: u32 = 2;
/// The literal count sits above the flag bits of the header word.
const LEN_SHIFT: u32 = 2;
/// Words after a learned clause's literals: LBD, activity low, activity high.
const TRAILER: usize = 3;

/// The literal count in a header word.
fn header_len(header: u32) -> usize {
    (header >> LEN_SHIFT) as usize
}

/// Arena words of the clause with this header: header, literals and, for a
/// learned clause, the trailer.
fn clause_words(header: u32) -> usize {
    1 + header_len(header) + if header & LEARNT != 0 { TRAILER } else { 0 }
}

/// References of every clause in `arena`, in order, tombstones included.
fn clause_refs(arena: &[u32]) -> impl Iterator<Item = u32> + '_ {
    let mut cref = 0;
    std::iter::from_fn(move || {
        (cref < arena.len()).then(|| {
            let this = cref;
            cref += clause_words(arena[cref]);
            this as u32
        })
    })
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    /// Reference of the watched clause.
    clause: u32,
    blocker: Lit,
}

/// Why a literal is on the trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reason {
    /// A decision (or assumption, or top-level fact): no antecedent clause.
    Decision,
    /// Propagated by the arena clause with this reference; the propagated
    /// literal is the clause's first literal.
    Long(u32),
    /// Propagated by a binary clause; the payload is the *other* literal of
    /// that clause (false at propagation time).
    Binary(Lit),
}

/// A falsified clause discovered by propagation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Conflict {
    /// An arena clause, by reference.
    Long(u32),
    /// A binary clause, given by its two (falsified) literals.
    Binary(Lit, Lit),
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct VarData {
    pub(crate) reason: Reason,
    pub(crate) level: u32,
}

/// Index-tracked max-heap over variables ordered by VSIDS activity.
///
/// Unlike a lazy `BinaryHeap` of `(activity, var)` snapshots — which
/// accumulates a stale duplicate on every bump and every backtrack — this
/// heap stores each variable at most once and tracks its position, so an
/// activity bump is an in-place `decrease_key`/`increase_key` sift and
/// `pop` never has to skip stale entries. Ties break on the variable index
/// (higher first) for a deterministic decision order.
#[derive(Debug, Clone, Default)]
struct VarHeap {
    heap: Vec<Var>,
    /// `position + 1` of each variable in `heap`; 0 when absent.
    index: Vec<u32>,
}

impl VarHeap {
    /// Registers a new variable (initially absent from the heap).
    fn add_var(&mut self) {
        self.index.push(0);
    }

    fn contains(&self, v: Var) -> bool {
        self.index[v.index()] != 0
    }

    /// Heap order: higher activity first, ties broken towards the higher
    /// variable index. Activities are never NaN.
    fn better(activity: &[f64], a: Var, b: Var) -> bool {
        let (aa, ab) = (activity[a.index()], activity[b.index()]);
        aa > ab || (aa == ab && a > b)
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.index[self.heap[a].index()] = (a + 1) as u32;
        self.index[self.heap[b].index()] = (b + 1) as u32;
    }

    fn sift_up(&mut self, mut pos: usize, activity: &[f64]) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if Self::better(activity, self.heap[pos], self.heap[parent]) {
                self.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut pos: usize, activity: &[f64]) {
        loop {
            let left = 2 * pos + 1;
            let right = left + 1;
            let mut best = pos;
            if left < self.heap.len() && Self::better(activity, self.heap[left], self.heap[best]) {
                best = left;
            }
            if right < self.heap.len() && Self::better(activity, self.heap[right], self.heap[best])
            {
                best = right;
            }
            if best == pos {
                return;
            }
            self.swap(pos, best);
            pos = best;
        }
    }

    /// Inserts a variable (no-op if already present).
    fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.heap.push(v);
        self.index[v.index()] = self.heap.len() as u32;
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap property after `v`'s activity increased
    /// (no-op if `v` is not in the heap — it will be re-inserted with its
    /// bumped activity when it leaves the trail).
    fn update(&mut self, v: Var, activity: &[f64]) {
        let idx = self.index[v.index()];
        if idx != 0 {
            self.sift_up((idx - 1) as usize, activity);
        }
    }

    /// Removes and returns the most active variable.
    fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        self.index[top.index()] = 0;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last.index()] = 1;
            self.sift_down(0, activity);
        }
        Some(top)
    }
}

/// A CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use sat::{Solver, SatResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var().positive();
/// let b = solver.new_var().positive();
/// solver.add_clause([a, b]);
/// solver.add_clause([!a, b]);
/// solver.add_clause([a, !b]);
/// match solver.solve() {
///     SatResult::Sat(model) => {
///         assert!(model.lit_is_true(a));
///         assert!(model.lit_is_true(b));
///     }
///     other => panic!("expected sat, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Solver {
    /// The clause arena: every clause of three or more literals, in attach
    /// order, tombstones included (layout at `LEARNT`).
    pub(crate) arena: Vec<u32>,
    /// Literals of the arena's clauses, tombstones included: the base of the
    /// collection trigger and of [`Solver::arena_wasted_ratio`].
    arena_lits: usize,
    /// Clauses in the arena, tombstones included. The vivifier's cursor
    /// counts clauses in arena order and wraps at this count.
    arena_clauses: usize,
    /// Live problem clauses in the arena.
    num_problem_clauses: usize,
    pub(crate) watches: Vec<Vec<Watcher>>,
    /// Binary implication lists: `bin_watches[p.code()]` holds every literal
    /// `q` for which a binary clause `(!p ∨ q)` exists — i.e. the literals
    /// directly implied by `p` becoming true. Each binary clause appears in
    /// exactly two lists (once per direction).
    pub(crate) bin_watches: Vec<Vec<Lit>>,
    /// Number of binary clauses stored in the implication lists.
    pub(crate) num_bin_clauses: usize,
    /// The assignment, indexed by literal code: both literals of a variable
    /// are written on assignment and cleared on backtracking.
    values: Vec<LBool>,
    pub(crate) var_data: Vec<VarData>,
    pub(crate) trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    /// Propagation head of the binary implication queue. Runs ahead of
    /// `qhead`: every trail literal has its binary implications exhausted
    /// before any long clause is visited.
    pub(crate) qhead_bin: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    order: VarHeap,
    pub(crate) phase: Vec<bool>,
    seen: Vec<bool>,
    /// Scratch buffer for copying clause literals out of the arena (conflict
    /// analysis, logged deletions), so neither allocates per clause.
    analyze_scratch: Vec<Lit>,
    /// Reusable candidate-ranking buffer for database reduction: the LBD,
    /// activity and reference of each candidate.
    reduce_scratch: Vec<(u32, f64, u32)>,
    /// Literals of tombstoned clauses; when they reach
    /// `1/`[`Solver::GC_WASTE_DENOMINATOR`] of `arena_lits` a compacting
    /// collection runs.
    wasted_lits: usize,
    pub(crate) ok: bool,
    pub(crate) stats: SolverStats,
    /// Deterministic per-episode resource budget (see [`Solver::set_budget`]).
    budget: Budget,
    /// External cancellation token polled at restart boundaries (see
    /// [`Solver::set_cancel_token`]).
    cancel: Option<CancelToken>,
    /// Stats snapshot at the entry of the current (or most recent) episode:
    /// the baseline against which budget spend is measured.
    episode: SolverStats,
    /// Why the most recent episode stopped without an answer (see
    /// [`Solver::last_stop`]).
    last_stop: Option<StopCause>,
    /// Armed fault-injection plan (robustness testing only; absent from
    /// release builds).
    #[cfg(any(test, feature = "faults"))]
    fault: Option<crate::faults::FaultPlan>,
    pub(crate) num_learnts: usize,
    max_learnts: usize,
    /// Variables the simplifier must never eliminate (see
    /// [`Solver::freeze_var`]).
    pub(crate) frozen: Vec<bool>,
    /// Variables removed from the formula by bounded variable elimination.
    pub(crate) eliminated: Vec<bool>,
    /// Clauses removed by variable elimination, in elimination order, used to
    /// extend satisfying assignments back to eliminated variables.
    pub(crate) extension: Vec<ExtensionEntry>,
    pub(crate) simp_stats: SimplifyStats,
    /// Active proof log (see [`Solver::start_proof_log`]); `None` when proof
    /// logging is off, so every log site costs one branch on a pointer-sized
    /// field.
    pub(crate) proof: Option<Box<ProofLog>>,
    /// Short-term (1/32) exponential moving average of learned-clause LBD.
    lbd_ema_fast: f64,
    /// Long-term (1/4096) exponential moving average of learned-clause LBD.
    lbd_ema_slow: f64,
    /// Long-term exponential moving average of the trail size at conflicts,
    /// used to postpone EMA restarts while an assignment looks promising.
    trail_ema: f64,
    /// Whether the EMAs have been seeded with a first observation.
    ema_seeded: bool,
    /// Conflict count at which the next rephasing fires.
    rephase_next: u64,
    /// Current rephasing interval (grows by 50% per rephase).
    rephase_interval: u64,
    /// Which rephasing variant fires next (cycles through the kinds).
    rephase_kind: u8,
    /// Deterministic xorshift state for the random rephasing variant.
    rephase_rng: u64,
    /// Saved polarities of the deepest trail seen since the last rephase
    /// (the "target" phase vector).
    best_phase: Vec<bool>,
    /// Size of the deepest trail recorded into `best_phase`.
    best_trail: usize,
    /// Rotating scan position of the vivifier, so successive inprocessing
    /// calls spread their budget across the whole clause database.
    vivify_head: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// A compacting arena collection runs when at least `1/GC_WASTE_DENOMINATOR`
    /// of the literal arena sits in tombstoned holes. Since holes are only
    /// created by database reduction (which checks this bound immediately),
    /// the wasted-hole ratio never exceeds 25% outside of `reduce_db` itself.
    const GC_WASTE_DENOMINATOR: usize = 4;

    /// Base conflict budget of the Luby restart cadence: round `i` of an
    /// episode runs for `RESTART_BASE * luby(i)` conflicts before the
    /// search restarts.
    const RESTART_BASE: u64 = 128;

    /// Minimum backjump distance (in decision levels) before chronological
    /// backtracking replaces the far backjump with a one-level back-off.
    const CHRONO_THRESHOLD: u32 = 100;

    /// Creates an empty solver.
    pub fn new() -> Self {
        Self {
            arena: Vec::new(),
            arena_lits: 0,
            arena_clauses: 0,
            num_problem_clauses: 0,
            watches: Vec::new(),
            bin_watches: Vec::new(),
            num_bin_clauses: 0,
            values: Vec::new(),
            var_data: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            qhead_bin: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarHeap::default(),
            phase: Vec::new(),
            seen: Vec::new(),
            analyze_scratch: Vec::new(),
            reduce_scratch: Vec::new(),
            wasted_lits: 0,
            ok: true,
            stats: SolverStats::default(),
            budget: Budget::default(),
            cancel: None,
            episode: SolverStats::default(),
            last_stop: None,
            #[cfg(any(test, feature = "faults"))]
            fault: None,
            num_learnts: 0,
            max_learnts: 8192,
            frozen: Vec::new(),
            eliminated: Vec::new(),
            extension: Vec::new(),
            simp_stats: SimplifyStats::default(),
            proof: None,
            lbd_ema_fast: 0.0,
            lbd_ema_slow: 0.0,
            trail_ema: 0.0,
            ema_seeded: false,
            rephase_next: 1024,
            rephase_interval: 1024,
            rephase_kind: 0,
            rephase_rng: 0x9e37_79b9_7f4a_7c15,
            best_phase: Vec::new(),
            best_trail: 0,
            vivify_head: 0,
        }
    }

    /// Starts DRAT-style proof logging.
    ///
    /// The current clause database — level-0 facts, binary implications and
    /// arena clauses — is snapshotted as the axiom set; from here on, every
    /// clause added through [`Solver::add_clause`] is logged as a further
    /// axiom, and every derived clause (learned clauses, probing units,
    /// strengthenings, elimination resolvents) and deletion is logged as a
    /// lemma/deletion event. After an [`SatResult::Unsat`] answer the log can
    /// be verified independently with [`drat::check`](crate::drat::check).
    ///
    /// With logging off (the default) every log site is a single branch on a
    /// `None` field; the measured overhead of the disabled path is below the
    /// noise floor of a solve.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0.
    pub fn start_proof_log(&mut self) {
        assert_eq!(
            self.decision_level(),
            0,
            "proof logging must start at decision level 0"
        );
        let mut log = Box::new(ProofLog::new());
        for &l in &self.trail {
            log.push(ProofStep::Axiom, &[l]);
        }
        // Each binary clause (a ∨ b) lives in two implication lists; the
        // `a.code() < b.code()` guard emits each stored instance exactly once.
        for code in 0..self.bin_watches.len() {
            let a = !Lit::from_code(code);
            for &b in &self.bin_watches[code] {
                if a.code() < b.code() {
                    log.push(ProofStep::Axiom, &[a, b]);
                }
            }
        }
        let mut lits = Vec::new();
        for cref in self.clause_refs() {
            if !self.is_deleted(cref) {
                lits.clear();
                lits.extend(self.clause_lits(cref));
                log.push(ProofStep::Axiom, &lits);
            }
        }
        self.proof = Some(log);
    }

    /// The active proof log, if logging is on.
    pub fn proof_log(&self) -> Option<&ProofLog> {
        self.proof.as_deref()
    }

    /// Stops proof logging and returns the accumulated log.
    pub fn take_proof_log(&mut self) -> Option<ProofLog> {
        self.proof.take().map(|b| *b)
    }

    #[inline]
    pub(crate) fn log_axiom(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Axiom, lits);
        }
    }

    #[inline]
    pub(crate) fn log_lemma(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Add, lits);
        }
    }

    #[inline]
    pub(crate) fn log_delete_slice(&mut self, lits: &[Lit]) {
        if let Some(p) = &mut self.proof {
            p.push(ProofStep::Delete, lits);
        }
    }

    /// Logs the deletion of an arena clause (the literals are still in the
    /// arena when the header is tombstoned).
    #[inline]
    pub(crate) fn log_delete_clause(&mut self, cref: u32) {
        if self.proof.is_some() {
            let mut lits = std::mem::take(&mut self.analyze_scratch);
            lits.clear();
            lits.extend(self.clause_lits(cref));
            self.log_delete_slice(&lits);
            self.analyze_scratch = lits;
        }
    }

    /// Sets the deterministic per-episode resource [`Budget`]. The budget
    /// applies to every subsequent `solve` episode until replaced; an
    /// exhausted episode answers [`SatResult::Unknown`] with
    /// [`StopCause::BudgetExhausted`], preserves all solver state, and the
    /// next `solve` call resumes with a fresh allotment.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The active per-episode budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Installs (or removes, with `None`) an external [`CancelToken`].
    ///
    /// The token is polled only at restart boundaries and at episode entry,
    /// so an installed-but-unset token costs nothing per conflict.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Why the most recent `solve` episode returned
    /// [`SatResult::Unknown`], or `None` if it produced a definitive
    /// answer (or no episode ran yet). Layered callers use this to tell an
    /// exhausted budget apart from an external cancellation when deciding
    /// whether to retry, degrade or abort.
    pub fn last_stop(&self) -> Option<StopCause> {
        self.last_stop
    }

    /// Arms (or disarms, with `None`) a one-shot fault-injection plan; see
    /// [`crate::faults`]. Testing only — the hook does not exist in release
    /// builds.
    #[cfg(any(test, feature = "faults"))]
    pub fn inject_fault(&mut self, plan: Option<crate::faults::FaultPlan>) {
        self.fault = plan;
    }

    /// The armed fault-injection plan, if any (testing only).
    #[cfg(any(test, feature = "faults"))]
    pub fn injected_fault(&self) -> Option<crate::faults::FaultPlan> {
        self.fault
    }

    /// Whether an installed cancel token has been cancelled.
    fn cancel_requested(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Whether the episode spend has hit the conflict cap (evaluated once
    /// per conflict).
    fn budget_conflict_cap_hit(&self) -> bool {
        self.budget
            .conflicts
            .is_some_and(|cap| self.stats.conflicts - self.episode.conflicts >= cap)
    }

    /// Polls the armed fault plan at a conflict checkpoint; returns the
    /// emulated stop cause when the plan fires (and disarms it).
    #[cfg(any(test, feature = "faults"))]
    fn fault_at_conflict(&mut self) -> Option<StopCause> {
        use crate::faults::FaultKind;
        let plan = self.fault?;
        if self.stats.conflicts - self.episode.conflicts < plan.after_conflicts {
            return None;
        }
        match plan.kind {
            FaultKind::BudgetExhaustion => {
                self.fault = None;
                Some(StopCause::BudgetExhausted)
            }
            FaultKind::MidSliceAbort => {
                self.fault = None;
                Some(StopCause::Cancelled)
            }
            FaultKind::SpuriousCancellation => None, // fires at restart boundaries
        }
    }

    #[cfg(not(any(test, feature = "faults")))]
    #[inline(always)]
    fn fault_at_conflict(&mut self) -> Option<StopCause> {
        None
    }

    /// Polls the armed fault plan at a restart boundary (where real cancel
    /// tokens are polled); returns `true` when a spurious cancellation
    /// fires (and disarms it).
    #[cfg(any(test, feature = "faults"))]
    fn fault_at_restart(&mut self) -> bool {
        use crate::faults::FaultKind;
        match self.fault {
            Some(plan)
                if plan.kind == FaultKind::SpuriousCancellation
                    && self.stats.conflicts - self.episode.conflicts >= plan.after_conflicts =>
            {
                self.fault = None;
                true
            }
            _ => false,
        }
    }

    #[cfg(not(any(test, feature = "faults")))]
    #[inline(always)]
    fn fault_at_restart(&mut self) -> bool {
        false
    }

    /// Sets the initial learned-clause budget that triggers database
    /// reduction (default 8192). The budget still grows by 50% after every
    /// reduction. Exposed so stress tests can force frequent reductions (and
    /// thus arena collections) on small instances.
    pub fn set_learnt_budget(&mut self, budget: usize) {
        self.max_learnts = budget.max(8);
    }

    /// Fraction of the clause-literal arena occupied by tombstoned holes
    /// (0.0 right after a compaction or simplifier rebuild).
    ///
    /// The garbage collector bounds this below 0.25 at every point where the
    /// solver is quiescent (i.e. outside `reduce_db` itself); the bound is
    /// asserted by the arena-GC test suites in `sat` and `bmc`.
    pub fn arena_wasted_ratio(&self) -> f64 {
        if self.arena_lits == 0 {
            0.0
        } else {
            self.wasted_lits as f64 / self.arena_lits as f64
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.var_data.len()
    }

    /// Number of problem clauses (excluding long learned clauses; binary
    /// clauses — including learned binaries, which are retained permanently —
    /// are counted).
    pub fn num_clauses(&self) -> usize {
        self.num_problem_clauses + self.num_bin_clauses
    }

    /// References of every arena clause in attach order, tombstones
    /// included.
    pub(crate) fn clause_refs(&self) -> impl Iterator<Item = u32> + '_ {
        clause_refs(&self.arena)
    }

    /// The literals of a clause.
    pub(crate) fn clause_lits(&self, cref: u32) -> impl Iterator<Item = Lit> + '_ {
        let start = cref as usize + 1;
        let len = header_len(self.arena[cref as usize]);
        self.arena[start..start + len].iter().map(|&code| Lit(code))
    }

    pub(crate) fn is_learnt(&self, cref: u32) -> bool {
        self.arena[cref as usize] & LEARNT != 0
    }

    pub(crate) fn is_deleted(&self, cref: u32) -> bool {
        self.arena[cref as usize] & DELETED != 0
    }

    /// Arena index of a learned clause's trailer.
    fn trailer(&self, cref: u32) -> usize {
        let header = self.arena[cref as usize];
        debug_assert!(header & LEARNT != 0, "only learned clauses carry a trailer");
        cref as usize + 1 + header_len(header)
    }

    /// The LBD of a learned clause.
    pub(crate) fn clause_lbd(&self, cref: u32) -> u32 {
        self.arena[self.trailer(cref)]
    }

    pub(crate) fn set_clause_lbd(&mut self, cref: u32, lbd: u32) {
        let at = self.trailer(cref);
        self.arena[at] = lbd;
    }

    /// The activity of a learned clause.
    pub(crate) fn clause_activity(&self, cref: u32) -> f64 {
        let at = self.trailer(cref) + 1;
        f64::from_bits(u64::from(self.arena[at]) | u64::from(self.arena[at + 1]) << 32)
    }

    pub(crate) fn set_clause_activity(&mut self, cref: u32, activity: f64) {
        let at = self.trailer(cref) + 1;
        let bits = activity.to_bits();
        self.arena[at] = bits as u32;
        self.arena[at + 1] = (bits >> 32) as u32;
    }

    /// Whether the clause is the reason of an assigned literal. A reason
    /// clause keeps the literal it propagated first, so that literal is the
    /// only one to look at.
    fn locked(&self, cref: u32) -> bool {
        let first = Lit(self.arena[cref as usize + 1]);
        self.values[first.code()] == LBool::True
            && self.var_data[first.var().index()].reason == Reason::Long(cref)
    }

    /// Solving statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Allocates a fresh Boolean variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.var_data.len());
        self.values.push(LBool::Undef);
        self.values.push(LBool::Undef);
        self.var_data.push(VarData {
            reason: Reason::Decision,
            level: 0,
        });
        self.activity.push(0.0);
        self.phase.push(false);
        self.best_phase.push(false);
        self.seen.push(false);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.bin_watches.push(Vec::new());
        self.order.add_var();
        self.order.insert(v, &self.activity);
        v
    }

    /// Ensures variables `0..n` exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars() < n {
            self.new_var();
        }
    }

    #[inline]
    pub(crate) fn value_lit(&self, lit: Lit) -> LBool {
        self.values[lit.code()]
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Pushes a new decision level (used by the simplifier's failed-literal
    /// probes; the search loop inlines the same two steps).
    pub(crate) fn push_decision(&mut self, lit: Lit) {
        self.trail_lim.push(self.trail.len());
        self.enqueue(lit, Reason::Decision);
    }

    /// Adds a clause to the solver.
    ///
    /// Duplicate literals are removed and tautological clauses silently
    /// dropped. Adding the empty clause (or a clause falsified at level 0)
    /// makes the solver permanently unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that has not been allocated.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        assert_eq!(
            self.decision_level(),
            0,
            "clauses may only be added at decision level 0"
        );
        if !self.ok {
            return;
        }
        let clause: Vec<Lit> = lits.into_iter().collect();
        for l in &clause {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l} refers to an unallocated variable"
            );
            assert!(
                !self.eliminated[l.var().index()],
                "literal {l} refers to an eliminated variable; variables that \
                 may appear in clauses added after `simplify` must be frozen \
                 with `freeze_var` first"
            );
        }
        // Log the original clause as an axiom; the checker performs its own
        // dedup/tautology handling, and level-0-falsified literals are
        // root-false for the checker too.
        self.log_axiom(&clause);
        // Tautology check, then order-preserving dedup / falsified-literal
        // simplification at level 0. The original literal order is kept so
        // the watched positions stay spread across the clause set — sorting
        // by literal code would concentrate every watch on the lowest-index
        // variables and produce pathologically long watch lists.
        if clause
            .iter()
            .any(|&l| clause.iter().any(|&other| other == !l))
        {
            return; // tautology
        }
        let mut simplified: Vec<Lit> = Vec::with_capacity(clause.len());
        for &l in &clause {
            if simplified.contains(&l) {
                continue; // duplicate
            }
            match self.value_lit(l) {
                LBool::True => return, // already satisfied
                LBool::False => {}
                LBool::Undef => simplified.push(l),
            }
        }
        match simplified.len() {
            0 => {
                self.ok = false;
            }
            1 => {
                self.enqueue(simplified[0], Reason::Decision);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            2 => {
                self.attach_binary(simplified[0], simplified[1]);
            }
            _ => {
                self.attach_clause(&simplified, false);
            }
        }
    }

    /// Records a binary clause `(a ∨ b)` in the implication lists. Binary
    /// clauses never enter the arena and are never deleted.
    pub(crate) fn attach_binary(&mut self, a: Lit, b: Lit) {
        debug_assert_ne!(a.var(), b.var());
        self.bin_watches[(!a).code()].push(b);
        self.bin_watches[(!b).code()].push(a);
        self.num_bin_clauses += 1;
    }

    /// Appends a clause to the arena and watches its first two literals. A
    /// learned clause starts with LBD 0 and activity 0.
    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 3, "binary clauses use the implication lists");
        let cref = u32::try_from(self.arena.len()).expect("clause arena exceeds u32 range");
        self.watches[(!lits[0]).code()].push(Watcher {
            clause: cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).code()].push(Watcher {
            clause: cref,
            blocker: lits[0],
        });
        let len = u32::try_from(lits.len())
            .ok()
            .filter(|&n| n <= u32::MAX >> LEN_SHIFT)
            .expect("clause too long for its header word");
        self.arena
            .push(len << LEN_SHIFT | if learnt { LEARNT } else { 0 });
        self.arena.extend(lits.iter().map(|l| l.0));
        if learnt {
            self.arena.extend([0; TRAILER]);
            self.num_learnts += 1;
            self.stats.learnt_clauses = self.num_learnts as u64;
        } else {
            self.num_problem_clauses += 1;
        }
        self.arena_lits += lits.len();
        self.arena_clauses += 1;
        cref
    }

    /// Tombstones an arena clause. Its words stay in place until the next
    /// collection; its watchers are dropped lazily.
    fn delete_clause(&mut self, cref: u32) {
        let header = self.arena[cref as usize];
        debug_assert_eq!(header & DELETED, 0, "clause {cref} deleted twice");
        self.arena[cref as usize] = header | DELETED;
        self.wasted_lits += header_len(header);
        if header & LEARNT != 0 {
            self.num_learnts -= 1;
            self.stats.learnt_clauses = self.num_learnts as u64;
        } else {
            self.num_problem_clauses -= 1;
        }
    }

    pub(crate) fn enqueue(&mut self, lit: Lit, reason: Reason) {
        debug_assert_eq!(self.value_lit(lit), LBool::Undef);
        self.values[lit.code()] = LBool::True;
        self.values[(!lit).code()] = LBool::False;
        self.var_data[lit.var().index()] = VarData {
            reason,
            level: self.decision_level(),
        };
        self.trail.push(lit);
    }

    pub(crate) fn propagate(&mut self) -> Option<Conflict> {
        loop {
            // Phase 1: exhaust the binary implication graph. Each binary
            // clause costs a single inline `Lit` read here — no arena, no
            // watcher moves.
            while self.qhead_bin < self.trail.len() {
                let p = self.trail[self.qhead_bin];
                self.qhead_bin += 1;
                self.stats.propagations += 1;
                // Move the list out for the scan; `enqueue` never touches
                // the implication lists, so this is safe and avoids
                // re-borrowing per entry.
                let implications = std::mem::take(&mut self.bin_watches[p.code()]);
                let mut conflict = None;
                for &q in &implications {
                    match self.values[q.code()] {
                        LBool::True => {}
                        LBool::Undef => self.enqueue(q, Reason::Binary(!p)),
                        LBool::False => {
                            conflict = Some(Conflict::Binary(q, !p));
                            break;
                        }
                    }
                }
                self.bin_watches[p.code()] = implications;
                if let Some(conflict) = conflict {
                    self.qhead = self.trail.len();
                    self.qhead_bin = self.trail.len();
                    return Some(conflict);
                }
            }

            // Phase 2: one long-clause step, then back to the binaries.
            if self.qhead >= self.trail.len() {
                return None;
            }
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !p;

            // Move the list out for the scan; during the scan no watcher can
            // be pushed onto `p`'s own list (a new watch `!lk` equals `p`
            // only if `lk == !p`, and `!p` is false here, never a valid new
            // watch), so the compacted list is moved back in O(1) below.
            let mut conflict = None;
            let mut watchers = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            'watchers: while i < watchers.len() {
                let w = watchers[i];
                // Fast path: the blocker literal is already true.
                if self.values[w.blocker.code()] == LBool::True {
                    i += 1;
                    continue;
                }
                let cref = w.clause as usize;
                let header = self.arena[cref];
                if header & DELETED != 0 {
                    watchers.swap_remove(i);
                    continue;
                }
                let lits = &mut self.arena[cref + 1..cref + 1 + header_len(header)];
                // Make sure the false literal (!p) is at position 1.
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.0);
                let first = Lit(lits[0]);
                if first != w.blocker && self.values[first.code()] == LBool::True {
                    watchers[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..lits.len() {
                    let lk = Lit(lits[k]);
                    if self.values[lk.code()] != LBool::False {
                        lits.swap(1, k);
                        self.watches[(!lk).code()].push(Watcher {
                            clause: w.clause,
                            blocker: first,
                        });
                        watchers.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No new watch found: the clause is unit or conflicting.
                watchers[i].blocker = first;
                if self.values[first.code()] == LBool::False {
                    conflict = Some(Conflict::Long(w.clause));
                    self.qhead = self.trail.len();
                    self.qhead_bin = self.trail.len();
                    // Copy back the remaining watchers untouched.
                    break;
                } else {
                    self.enqueue(first, Reason::Long(w.clause));
                    i += 1;
                }
            }
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = watchers;
            if conflict.is_some() {
                return conflict;
            }
        }
    }

    fn bump_var(&mut self, var: Var) {
        self.activity[var.index()] += self.var_inc;
        if self.activity[var.index()] > 1e100 {
            // Rescaling divides every activity by the same factor, so the
            // heap order is unchanged.
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.update(var, &self.activity);
    }

    fn bump_clause(&mut self, cref: u32) {
        let activity = self.clause_activity(cref) + self.clause_inc;
        self.set_clause_activity(cref, activity);
        if activity > 1e20 {
            let mut c = 0;
            while c < self.arena.len() {
                let header = self.arena[c];
                if header & LEARNT != 0 {
                    let scaled = self.clause_activity(c as u32) * 1e-20;
                    self.set_clause_activity(c as u32, scaled);
                }
                c += clause_words(header);
            }
            self.clause_inc *= 1e-20;
        }
    }

    fn analyze(&mut self, confl: Conflict) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut index = self.trail.len();
        let current_level = self.decision_level();
        let mut lits = std::mem::take(&mut self.analyze_scratch);

        loop {
            lits.clear();
            match confl {
                Conflict::Long(cref) => {
                    if self.is_learnt(cref) {
                        self.bump_clause(cref);
                    }
                    lits.extend(self.clause_lits(cref));
                }
                Conflict::Binary(a, b) => {
                    lits.push(a);
                    lits.push(b);
                }
            }
            let start = usize::from(p.is_some());
            for &q in &lits[start..] {
                let v = q.var();
                if !self.seen[v.index()] && self.var_data[v.index()].level > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.var_data[v.index()].level >= current_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = match self.var_data[lit.var().index()].reason {
                Reason::Long(cref) => Conflict::Long(cref),
                // The antecedent is the binary clause (lit ∨ other); putting
                // the resolved literal first lets the `start` skip above
                // treat it exactly like a long reason clause.
                Reason::Binary(other) => Conflict::Binary(lit, other),
                Reason::Decision => unreachable!("non-decision literal must have a reason"),
            };
        }
        self.analyze_scratch = lits;
        learnt[0] = !p.expect("conflict analysis visits at least one literal");

        // Clear the `seen` markers of the literals kept in the learnt clause.
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }

        // Compute the backtrack level: the highest level among learnt[1..].
        let backtrack_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.var_data[learnt[i].var().index()].level
                    > self.var_data[learnt[max_i].var().index()].level
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.var_data[learnt[1].var().index()].level
        };
        (learnt, backtrack_level)
    }

    pub(crate) fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for i in (target..self.trail.len()).rev() {
            let lit = self.trail[i];
            let v = lit.var();
            self.values[lit.code()] = LBool::Undef;
            self.values[(!lit).code()] = LBool::Undef;
            // Scrub the reason on unassignment: a clause-reference reason on
            // an unassigned variable would dangle across database reduction,
            // arena collection and simplifier rebuilds. This store makes
            // "unassigned ⇒ no clause reference" a global invariant that
            // `debug_validate` checks unconditionally.
            self.var_data[v.index()].reason = Reason::Decision;
            self.phase[v.index()] = lit.is_positive();
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
        self.qhead_bin = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(var) = self.order.pop(&self.activity) {
            if self.value_lit(var.positive()) == LBool::Undef && !self.eliminated[var.index()] {
                return Some(var);
            }
        }
        None
    }

    /// Number of distinct decision levels among a clause's literals — the
    /// "literal block distance" quality measure of Glucose. Low-LBD clauses
    /// connect few decision levels and tend to stay useful for the rest of
    /// the search.
    fn compute_lbd(&self, lits: &[Lit]) -> u32 {
        let mut levels: Vec<u32> = lits
            .iter()
            .map(|l| self.var_data[l.var().index()].level)
            .collect();
        levels.sort_unstable();
        levels.dedup();
        levels.len() as u32
    }

    fn reduce_db(&mut self) {
        // Retention policy: glue clauses (LBD <= 2) are kept unconditionally;
        // the rest are ranked worst-first by (high LBD, low activity, arena
        // order) and the worst half deleted, skipping clauses locked as a
        // propagation reason. The ranking buffer is reused, so the whole
        // reduction allocates nothing once it is warm.
        let mut order = std::mem::take(&mut self.reduce_scratch);
        order.clear();
        for cref in self.clause_refs() {
            if self.arena[cref as usize] & (LEARNT | DELETED) == LEARNT {
                let lbd = self.clause_lbd(cref);
                if lbd > 2 {
                    order.push((lbd, self.clause_activity(cref), cref));
                }
            }
        }
        order.sort_unstable_by(|a, b| {
            b.0.cmp(&a.0)
                .then_with(|| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .then_with(|| a.2.cmp(&b.2))
        });
        let to_remove = order.len() / 2;
        let mut removed = 0;
        for &(_, _, cref) in order.iter() {
            if removed >= to_remove {
                break;
            }
            if self.locked(cref) {
                continue;
            }
            self.log_delete_clause(cref);
            // The clause is tombstoned; its words stay in the arena
            // (propagation never visits them again because the watcher
            // entries are dropped lazily) until the compacting collection
            // below reclaims them.
            self.delete_clause(cref);
            removed += 1;
            self.stats.deleted_clauses += 1;
        }
        self.reduce_scratch = order;
        self.collect_if_wasteful();
    }

    /// Runs a compacting collection once tombstoned literals make up
    /// `1/GC_WASTE_DENOMINATOR` of the arena's literals.
    fn collect_if_wasteful(&mut self) {
        if self.wasted_lits * Self::GC_WASTE_DENOMINATOR >= self.arena_lits && self.wasted_lits > 0
        {
            self.collect_arena();
        }
    }

    /// Compacting garbage collection of the clause arena: copies the live
    /// clauses, in order, into a fresh arena and forwards every watcher and
    /// reason to the new references. Each copied clause's new reference is
    /// written over the first literal of its old copy, which is then read
    /// back to forward. Dead watchers (lazily-deleted clauses) are dropped
    /// in the same sweep, keeping the order of the others.
    fn collect_arena(&mut self) {
        let mut old = std::mem::take(&mut self.arena);
        let live_words: usize = clause_refs(&old)
            .map(|c| old[c as usize])
            .filter(|&header| header & DELETED == 0)
            .map(clause_words)
            .sum();
        let mut arena: Vec<u32> = Vec::with_capacity(live_words);
        let mut live = 0;
        let mut cref = 0;
        while cref < old.len() {
            let header = old[cref];
            let words = clause_words(header);
            if header & DELETED == 0 {
                let moved = arena.len() as u32;
                arena.extend_from_slice(&old[cref..cref + words]);
                old[cref + 1] = moved;
                live += 1;
            }
            cref += words;
        }
        for list in &mut self.watches {
            list.retain_mut(|w| {
                let c = w.clause as usize;
                if old[c] & DELETED != 0 {
                    false
                } else {
                    w.clause = old[c + 1];
                    true
                }
            });
        }
        // Forward the reasons of assigned (trail) variables. Unassigned
        // variables hold no clause reference — `backtrack_to` scrubs the
        // reason on unassignment — so the trail walk covers every reference
        // into the old arena; the debug sweep below pins that invariant.
        for i in 0..self.trail.len() {
            let vi = self.trail[i].var().index();
            if let Reason::Long(c) = self.var_data[vi].reason {
                debug_assert_eq!(
                    old[c as usize] & DELETED,
                    0,
                    "reason clause must survive GC"
                );
                self.var_data[vi].reason = Reason::Long(old[c as usize + 1]);
            }
        }
        #[cfg(debug_assertions)]
        for (vi, d) in self.var_data.iter().enumerate() {
            if self.values[Var::from_index(vi).positive().code()] == LBool::Undef {
                debug_assert!(
                    !matches!(d.reason, Reason::Long(_)),
                    "unassigned v{vi} carries a clause reference into arena GC"
                );
            }
        }
        self.arena = arena;
        self.arena_lits -= self.wasted_lits;
        self.arena_clauses = live;
        self.wasted_lits = 0;
        self.stats.arena_collections += 1;
    }

    /// Empties the arena and its accounting (the simplifier's rebuild
    /// re-attaches every clause).
    pub(crate) fn clear_arena(&mut self) {
        self.arena.clear();
        self.arena_lits = 0;
        self.arena_clauses = 0;
        self.num_problem_clauses = 0;
        self.num_learnts = 0;
        self.wasted_lits = 0;
    }

    /// Exhaustive internal-invariant check used by the test suites. The
    /// arena walk must parse every header (at least three literals, each
    /// over an allocated variable, inside the arena) and end exactly at the
    /// arena's end, and its clause, literal and hole counts must match the
    /// tracked ones. Every live clause is watched on exactly its first two
    /// literals, every watcher and every propagation reason points at a
    /// clause start, a reason at a live clause whose first literal is the
    /// propagated one, and the two values of each variable agree. Dead
    /// watchers are only tolerated for tombstoned (not yet collected)
    /// clauses.
    ///
    /// Returns a description of the first violation found.
    pub fn debug_validate(&self) -> Result<(), String> {
        let mut starts: Vec<u32> = Vec::new();
        let (mut lits, mut wasted, mut problem, mut learnt) = (0, 0, 0, 0);
        let mut cref = 0;
        while cref < self.arena.len() {
            let header = self.arena[cref];
            let len = header_len(header);
            if len < 3 {
                return Err(format!(
                    "clause {cref}: header {header:#x} gives {len} literals"
                ));
            }
            let end = cref + clause_words(header);
            if end > self.arena.len() {
                return Err(format!(
                    "clause {cref}: header {header:#x} runs to word {end}, past the arena's {}",
                    self.arena.len()
                ));
            }
            if let Some(&code) = self.arena[cref + 1..cref + 1 + len]
                .iter()
                .find(|&&code| Lit(code).var().index() >= self.num_vars())
            {
                return Err(format!(
                    "clause {cref} holds literal code {code} over no variable"
                ));
            }
            starts.push(cref as u32);
            lits += len;
            if header & DELETED != 0 {
                wasted += len;
            } else if header & LEARNT != 0 {
                learnt += 1;
            } else {
                problem += 1;
            }
            cref = end;
        }
        let walked = [starts.len(), lits, wasted, problem, learnt];
        let tracked = [
            self.arena_clauses,
            self.arena_lits,
            self.wasted_lits,
            self.num_problem_clauses,
            self.num_learnts,
        ];
        if walked != tracked {
            return Err(format!(
                "arena walk counts [clauses, literals, wasted, problem, learnt] {walked:?}, \
                 tracked {tracked:?}"
            ));
        }
        let mut watch_count = vec![0usize; starts.len()];
        for (code, list) in self.watches.iter().enumerate() {
            let watched = !Lit::from_code(code);
            for w in list {
                let Ok(k) = starts.binary_search(&w.clause) else {
                    return Err(format!("watcher points at {}, no clause start", w.clause));
                };
                if self.is_deleted(w.clause) {
                    continue; // lazily-deleted watcher, dropped on next visit or GC
                }
                let at = w.clause as usize + 1;
                let first_two = [Lit(self.arena[at]), Lit(self.arena[at + 1])];
                if !first_two.contains(&watched) {
                    return Err(format!(
                        "clause {} watched through {watched} which is not in its first two \
                         literals {first_two:?}",
                        w.clause
                    ));
                }
                watch_count[k] += 1;
            }
        }
        for (k, &cref) in starts.iter().enumerate() {
            if !self.is_deleted(cref) && watch_count[k] != 2 {
                return Err(format!(
                    "clause {cref} has {} watchers, expected 2",
                    watch_count[k]
                ));
            }
        }
        for (vi, d) in self.var_data.iter().enumerate() {
            let p = Var::from_index(vi).positive();
            let value = self.values[p.code()];
            if self.values[(!p).code()] != value.negate() {
                return Err(format!("the two literals of v{vi} disagree"));
            }
            if value == LBool::Undef {
                // `backtrack_to` scrubs reasons on unassignment; a clause
                // reference surviving here would dangle across the next
                // reduction, collection or rebuild.
                if let Reason::Long(c) = d.reason {
                    return Err(format!("unassigned v{vi} carries stale clause reason {c}"));
                }
                continue;
            }
            if let Reason::Long(c) = d.reason {
                if starts.binary_search(&c).is_err() {
                    return Err(format!("reason of v{vi} points at {c}, no clause start"));
                }
                if self.is_deleted(c) {
                    return Err(format!("reason of v{vi} points at deleted clause {c}"));
                }
                if Lit(self.arena[c as usize + 1]).var().index() != vi {
                    return Err(format!(
                        "reason clause {c} of v{vi} does not start with its literal"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Target rephasing: wholesale reset of the saved phase vector. Cycles
    /// through the best-trail snapshot (the assignment that got deepest since
    /// the last rephase), the inverse of the current phases, the constant
    /// `false` polarity and a deterministic xorshift-random vector — with the
    /// best-trail target taking every other turn, as in modern CDCL solvers.
    fn rephase(&mut self) {
        self.stats.rephasings += 1;
        match self.rephase_kind {
            0 | 2 | 4 => self.phase.copy_from_slice(&self.best_phase),
            1 => {
                for p in &mut self.phase {
                    *p = !*p;
                }
            }
            3 => {
                for p in &mut self.phase {
                    *p = false;
                }
            }
            _ => {
                for i in 0..self.phase.len() {
                    self.rephase_rng ^= self.rephase_rng << 13;
                    self.rephase_rng ^= self.rephase_rng >> 7;
                    self.rephase_rng ^= self.rephase_rng << 17;
                    self.phase[i] = self.rephase_rng & 1 == 1;
                }
            }
        }
        self.rephase_kind = (self.rephase_kind + 1) % 6;
        self.best_trail = 0;
    }

    /// Clause vivification (inprocessing): for each candidate clause, assume
    /// the negation of its literals one at a time (with the clause itself
    /// detached) and propagate. A conflict, an implied literal or a falsified
    /// literal each prove a shorter clause, which replaces the original —
    /// logged as a lemma/deletion pair so proof logs stay checkable (the
    /// strengthened clause is reverse-unit-propagation derivable from the
    /// rest of the database, and from the original clause in the
    /// falsified-literal case, which is why the lemma is emitted *before* the
    /// deletion).
    ///
    /// Runs at decision level 0 between solve calls; `max_propagations`
    /// bounds the probing effort, and a rotating cursor spreads successive
    /// calls across the clause database. Returns the number of clauses
    /// strengthened.
    ///
    /// # Panics
    ///
    /// Panics if called above decision level 0.
    pub fn vivify(&mut self, max_propagations: u64) -> u64 {
        assert_eq!(self.decision_level(), 0, "vivify runs at decision level 0");
        if !self.ok {
            return 0;
        }
        let mut span = if obs::enabled() {
            Some(obs::span("sat.vivify"))
        } else {
            None
        };
        // Probing pollutes the saved phases (backtracking records the probe
        // polarity); snapshot and restore so search heuristics are unaffected.
        let saved_phase = self.phase.clone();
        let start_props = self.stats.propagations;
        // The cursor is an ordinal over the arena's clauses, tombstones
        // included; clauses this pass appends lie beyond `num` and wait for
        // the next pass.
        let num = self.arena_clauses;
        let mut next = self.vivify_head % num.max(1);
        let mut cref = self.clause_refs().nth(next).unwrap_or(0) as usize;
        let mut strengthened = 0u64;
        let mut scanned = 0usize;
        while scanned < num && self.ok {
            if self.stats.propagations - start_props >= max_propagations {
                break;
            }
            let ci = cref as u32;
            let header = self.arena[cref];
            next = (next + 1) % num;
            cref = if next == 0 {
                0
            } else {
                cref + clause_words(header)
            };
            self.vivify_head = next;
            scanned += 1;
            let len = header_len(header);
            // A clause locked as a root-level propagation reason must
            // survive.
            if header & DELETED != 0 || self.locked(ci) || !(3..=24).contains(&len) {
                continue;
            }
            let lits: Vec<Lit> = self.clause_lits(ci).collect();
            if lits.iter().any(|&l| self.value_lit(l) == LBool::True) {
                continue; // root-satisfied; the simplifier's business
            }
            // Detach so the probe cannot propagate through the clause itself.
            self.detach_watchers(ci, lits[0], lits[1]);
            let mut kept: Vec<Lit> = Vec::with_capacity(len);
            for &l in &lits {
                match self.value_lit(l) {
                    // Implied by the negations assumed so far: the clause
                    // shrinks to the assumed prefix plus this literal.
                    LBool::True => {
                        kept.push(l);
                        break;
                    }
                    // Refuted by the negations assumed so far (or at root):
                    // the literal is redundant and drops out.
                    LBool::False => {}
                    LBool::Undef => {
                        self.push_decision(!l);
                        let conflict = self.propagate().is_some();
                        kept.push(l);
                        if conflict {
                            break; // the assumed prefix is already contradictory
                        }
                    }
                }
            }
            self.backtrack_to(0);
            if kept.len() == lits.len() {
                // No strengthening: restore the original watchers.
                self.watches[(!lits[0]).code()].push(Watcher {
                    clause: ci,
                    blocker: lits[1],
                });
                self.watches[(!lits[1]).code()].push(Watcher {
                    clause: ci,
                    blocker: lits[0],
                });
                continue;
            }
            strengthened += 1;
            self.stats.vivified_clauses += 1;
            // Lemma before deletion: the checker must still hold the original
            // clause while verifying the strengthened one.
            self.log_lemma(&kept);
            self.log_delete_clause(ci);
            let learnt = header & LEARNT != 0;
            let lbd = if learnt { self.clause_lbd(ci) } else { 0 };
            self.delete_clause(ci);
            match kept.len() {
                0 => self.ok = false,
                1 => match self.value_lit(kept[0]) {
                    LBool::True => {}
                    LBool::False => self.ok = false,
                    LBool::Undef => {
                        self.enqueue(kept[0], Reason::Decision);
                        if self.propagate().is_some() {
                            self.ok = false;
                        }
                    }
                },
                2 => self.attach_binary(kept[0], kept[1]),
                _ => {
                    let shorter = self.attach_clause(&kept, learnt);
                    if learnt {
                        self.set_clause_lbd(shorter, lbd.clamp(1, kept.len() as u32));
                    }
                }
            }
        }
        self.phase = saved_phase;
        self.collect_if_wasteful();
        if let Some(span) = &mut span {
            span.attr_u64("checked", scanned as u64);
            span.attr_u64("strengthened", strengthened);
            span.attr_u64(
                "propagations",
                self.stats.propagations.saturating_sub(start_props),
            );
        }
        strengthened
    }

    /// Removes the two watcher entries of a clause (watched on `a` and `b`).
    fn detach_watchers(&mut self, cref: u32, a: Lit, b: Lit) {
        for l in [a, b] {
            let list = &mut self.watches[(!l).code()];
            if let Some(pos) = list.iter().position(|w| w.clause == cref) {
                list.swap_remove(pos);
            }
        }
    }

    /// Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...).
    fn luby(i: u64) -> u64 {
        let mut seq = 0u32;
        let mut size = 1u64;
        while size < i + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        let mut i = i;
        while size - 1 != i {
            size = (size - 1) / 2;
            seq -= 1;
            i %= size;
        }
        1u64 << seq
    }

    /// Solves the formula without assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves the formula under the given assumption literals.
    ///
    /// Assumptions are treated as decisions made before any free decision; if
    /// they are inconsistent with the formula the result is
    /// [`SatResult::Unsat`] without the assumptions becoming learned facts.
    ///
    /// # Incremental solving
    ///
    /// Successive calls form an *incremental session*: everything expensive
    /// the solver has built up — the learned-clause database, VSIDS variable
    /// activities, saved phases and the level-0 trail of implied facts — is
    /// kept between calls rather than rebuilt. Clauses (and variables) may be
    /// added between calls, which is how the `bmc` unrolling extends a proof
    /// to a deeper bound without restarting the search from nothing, and
    /// per-call obligations are expressed through *activation literals*:
    /// add `(!act ∨ c₁ ∨ …)`, solve with `act` assumed, then retire the
    /// obligation forever with the unit clause `!act`.
    ///
    /// Learned clauses stay sound across calls because assumptions are
    /// pseudo-decisions, never units: every learned clause is implied by the
    /// problem clauses alone.
    ///
    /// ```
    /// use sat::{Solver, SatResult};
    ///
    /// let mut solver = Solver::new();
    /// let x = solver.new_var().positive();
    /// let act = solver.new_var().positive();
    /// solver.add_clause([!act, x]); // obligation "x" guarded by `act`
    /// assert!(solver.solve_with_assumptions(&[act, !x]).is_unsat());
    /// solver.add_clause([!act]);    // retire the obligation ...
    /// assert!(solver.solve_with_assumptions(&[!x]).is_sat()); // ... gone
    /// ```
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        // Telemetry wrapper: with no sink installed this adds one branch and
        // falls straight through to the search; with tracing on it records a
        // `sat.search` span carrying the episode's counter deltas.
        if !obs::enabled() {
            return self.solve_assumptions_inner(assumptions);
        }
        let mut span = obs::span("sat.search");
        let before = self.stats;
        let result = self.solve_assumptions_inner(assumptions);
        let delta = self.stats.delta_since(&before);
        span.attr_str(
            "result",
            match &result {
                SatResult::Sat(_) => "sat",
                SatResult::Unsat => "unsat",
                SatResult::Unknown => "unknown",
            },
        );
        span.attr_u64("decisions", delta.decisions);
        span.attr_u64("conflicts", delta.conflicts);
        span.attr_u64("propagations", delta.propagations);
        span.attr_u64("restarts", delta.restarts);
        span.attr_u64("arena_collections", delta.arena_collections);
        span.attr_u64("rephasings", delta.rephasings);
        span.attr_u64("chrono_backtracks", delta.chrono_backtracks);
        span.attr_u64("vivified_clauses", delta.vivified_clauses);
        if let Some(p) = &self.proof {
            // Marker child span carrying the certificate-size attributes of
            // the proof log accumulated so far.
            let mut pspan = obs::span("sat.proof_log");
            pspan.attr_u64("events", p.num_events() as u64);
            pspan.attr_u64("axioms", p.num_axioms() as u64);
            pspan.attr_u64("lemmas", p.num_lemmas() as u64);
            pspan.attr_u64("deletions", p.num_deletions() as u64);
            pspan.attr_u64("size_bytes", p.size_bytes() as u64);
        }
        result
    }

    fn solve_assumptions_inner(&mut self, assumptions: &[Lit]) -> SatResult {
        for a in assumptions {
            assert!(
                !self.eliminated[a.var().index()],
                "assumption {a} refers to an eliminated variable; assumption \
                 variables must be frozen before `simplify`"
            );
        }
        self.last_stop = None;
        self.episode = self.stats;
        if !self.ok {
            return SatResult::Unsat;
        }
        if self.cancel_requested() {
            self.last_stop = Some(StopCause::Cancelled);
            return SatResult::Unknown;
        }
        self.backtrack_to(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }

        let mut restart_count = 0u64;
        loop {
            let budget = Self::RESTART_BASE * Self::luby(restart_count);
            match self.search(budget, assumptions) {
                SearchOutcome::Sat => {
                    let mut values: Vec<bool> = (0..self.num_vars())
                        .map(|i| match self.value_lit(Var::from_index(i).positive()) {
                            LBool::True => true,
                            LBool::False => false,
                            LBool::Undef => self.phase[i],
                        })
                        .collect();
                    self.extend_model(&mut values);
                    self.backtrack_to(0);
                    return SatResult::Sat(Model::new(values));
                }
                SearchOutcome::Unsat => {
                    self.backtrack_to(0);
                    return SatResult::Unsat;
                }
                SearchOutcome::Restart => {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    self.backtrack_to(0);
                    // Restart boundary: the documented poll point of the
                    // external cancellation token (one relaxed load).
                    if self.cancel_requested() || self.fault_at_restart() {
                        self.last_stop = Some(StopCause::Cancelled);
                        return SatResult::Unknown;
                    }
                    if self.stats.conflicts >= self.rephase_next {
                        self.rephase();
                        self.rephase_interval += self.rephase_interval / 2;
                        self.rephase_next = self.stats.conflicts + self.rephase_interval;
                    }
                }
                SearchOutcome::LimitReached => {
                    self.backtrack_to(0);
                    return SatResult::Unknown;
                }
            }
        }
    }

    fn search(&mut self, conflict_budget: u64, assumptions: &[Lit]) -> SearchOutcome {
        let mut conflicts_this_round = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_round += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SearchOutcome::Unsat;
                }
                // Target-phase snapshot: the deepest trail seen since the
                // last rephase is the assignment that got closest to a model.
                if self.trail.len() > self.best_trail {
                    self.best_trail = self.trail.len();
                    for i in 0..self.trail.len() {
                        let lit = self.trail[i];
                        self.best_phase[lit.var().index()] = lit.is_positive();
                    }
                }
                let trail_size = self.trail.len();
                // Conflicts below the assumption levels mean the assumptions
                // themselves are contradictory with the formula.
                let (learnt, backtrack_level) = self.analyze(confl);
                let current_level = self.decision_level();
                // Chronological backtracking: a far backjump throws away the
                // whole assignment prefix above the assertion level even when
                // the conflict is unrelated to it. For jumps longer than the
                // threshold, back off one level instead — the learnt clause
                // is still asserting there (its non-UIP literals sit at
                // levels <= backtrack_level < current_level - 1), and the
                // trail stays sorted by level because the asserting literal
                // is recorded at the new decision level.
                let target_level = if learnt.len() >= 2
                    && current_level - backtrack_level > Self::CHRONO_THRESHOLD
                {
                    self.stats.chrono_backtracks += 1;
                    current_level - 1
                } else {
                    backtrack_level
                };
                self.backtrack_to(target_level);
                self.log_lemma(&learnt);
                let lbd = match learnt.len() {
                    1 => 1,
                    2 => 2,
                    _ => self.compute_lbd(&learnt),
                };
                match learnt.len() {
                    1 => self.enqueue(learnt[0], Reason::Decision),
                    2 => {
                        self.attach_binary(learnt[0], learnt[1]);
                        self.enqueue(learnt[0], Reason::Binary(learnt[1]));
                    }
                    _ => {
                        let cref = self.attach_clause(&learnt, true);
                        self.set_clause_lbd(cref, lbd);
                        self.enqueue(learnt[0], Reason::Long(cref));
                    }
                }
                self.var_inc /= 0.95;
                self.clause_inc /= 0.999;
                // Restart-quality EMAs (glucose-style): short-term vs
                // long-term LBD average, plus a trail-size average used to
                // postpone restarts while the assignment is unusually deep.
                let l = lbd as f64;
                let t = trail_size as f64;
                if self.ema_seeded {
                    self.lbd_ema_fast += (l - self.lbd_ema_fast) / 32.0;
                    self.lbd_ema_slow += (l - self.lbd_ema_slow) / 4096.0;
                    self.trail_ema += (t - self.trail_ema) / 4096.0;
                } else {
                    self.lbd_ema_fast = l;
                    self.lbd_ema_slow = l;
                    self.trail_ema = t;
                    self.ema_seeded = true;
                }
                // Blocking: a conflict from a much-deeper-than-average trail
                // suggests the search is near a model; reset the short-term
                // average so the quality gate re-arms.
                if t > 1.4 * self.trail_ema {
                    self.lbd_ema_fast = self.lbd_ema_slow;
                }
                if self.budget_conflict_cap_hit() {
                    self.last_stop = Some(StopCause::BudgetExhausted);
                    return SearchOutcome::LimitReached;
                }
                if let Some(cause) = self.fault_at_conflict() {
                    self.last_stop = Some(cause);
                    return SearchOutcome::LimitReached;
                }
                if self.num_learnts > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts += self.max_learnts / 2;
                }
                // LBD-quality gate: recent learnt clauses are markedly worse
                // than the long-term average, so the current orientation is
                // unproductive — restart early rather than riding out the
                // whole Luby budget.
                let ema_restart =
                    conflicts_this_round >= 32 && self.lbd_ema_fast > 1.25 * self.lbd_ema_slow;
                if ema_restart || conflicts_this_round >= conflict_budget {
                    return SearchOutcome::Restart;
                }
            } else {
                // Place assumptions as pseudo-decisions first.
                let mut next_decision = None;
                for &a in assumptions {
                    match self.value_lit(a) {
                        LBool::True => continue,
                        LBool::False => return SearchOutcome::Unsat,
                        LBool::Undef => {
                            next_decision = Some(a);
                            break;
                        }
                    }
                }
                let decision = match next_decision {
                    Some(a) => Some(a),
                    None => self
                        .pick_branch_var()
                        .map(|v| Lit::new(v, self.phase[v.index()])),
                };
                match decision {
                    None => return SearchOutcome::Sat,
                    Some(lit) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(lit, Reason::Decision);
                    }
                }
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchOutcome {
    Sat,
    Unsat,
    Restart,
    LimitReached,
}

#[cfg(test)]
// The pigeonhole builders index two parallel axes; an iterator form would
// obscure the symmetry the clauses encode.
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| solver.new_var().positive()).collect()
    }

    #[test]
    fn trivially_sat_and_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([v[0]]);
        assert!(s.solve().is_sat());

        let mut s = Solver::new();
        let v = lits(&mut s, 1);
        s.add_clause([v[0]]);
        s.add_clause([!v[0]]);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = lits(&mut s, 1);
        s.add_clause(std::iter::empty());
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn model_satisfies_all_clauses() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        let clauses = vec![
            vec![v[0], v[1]],
            vec![!v[0], v[2]],
            vec![!v[1], v[3]],
            vec![!v[2], !v[3]],
            vec![v[1], v[2], v[3]],
        ];
        for c in &clauses {
            s.add_clause(c.iter().copied());
        }
        let result = s.solve();
        let model = result.model().expect("satisfiable");
        for c in &clauses {
            assert!(
                c.iter().any(|&l| model.lit_is_true(l)),
                "clause {c:?} unsatisfied"
            );
        }
    }

    #[test]
    fn binary_chain_propagates_to_fixpoint() {
        // A pure implication chain: v0 -> v1 -> ... -> v9. Asserting v0
        // must propagate the whole chain without a single decision.
        let mut s = Solver::new();
        let v = lits(&mut s, 10);
        for i in 0..9 {
            s.add_clause([!v[i], v[i + 1]]);
        }
        s.add_clause([v[0]]);
        let before = s.stats();
        let result = s.solve();
        let model = result.model().expect("sat");
        for &l in &v {
            assert!(model.lit_is_true(l));
        }
        assert_eq!(s.stats().delta_since(&before).decisions, 0);
    }

    #[test]
    fn binary_conflict_is_analyzed_correctly() {
        // v0 -> v1 and v0 -> !v1 force !v0 through a binary-clause conflict.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[0], !v[1]]);
        s.add_clause([v[0], v[2]]);
        let result = s.solve();
        let model = result.model().expect("sat");
        assert!(!model.lit_is_true(v[0]));
        assert!(model.lit_is_true(v[2]));
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: classic small UNSAT instance that requires real
        // conflict analysis.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for pigeon in &p {
            s.add_clause(pigeon.iter().copied());
        }
        for hole in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause([!p[a][hole], !p[b][hole]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn pigeonhole_5_into_4_is_unsat() {
        let n = 5;
        let m = 4;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var().positive()).collect())
            .collect();
        for pigeon in &p {
            s.add_clause(pigeon.iter().copied());
        }
        for hole in 0..m {
            for a in 0..n {
                for b in (a + 1)..n {
                    s.add_clause([!p[a][hole], !p[b][hole]]);
                }
            }
        }
        assert!(s.solve().is_unsat());
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn xor_chain_is_satisfiable_with_correct_parity() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x2 ^ x0 = 0 is consistent.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor = |s: &mut Solver, a: Lit, b: Lit, value: bool| {
            if value {
                s.add_clause([a, b]);
                s.add_clause([!a, !b]);
            } else {
                s.add_clause([!a, b]);
                s.add_clause([a, !b]);
            }
        };
        xor(&mut s, v[0], v[1], true);
        xor(&mut s, v[1], v[2], true);
        xor(&mut s, v[2], v[0], false);
        let model = s.solve();
        let m = model.model().expect("sat");
        assert_ne!(m.lit_is_true(v[0]), m.lit_is_true(v[1]));
        assert_ne!(m.lit_is_true(v[1]), m.lit_is_true(v[2]));
        assert_eq!(m.lit_is_true(v[2]), m.lit_is_true(v[0]));
    }

    #[test]
    fn xor_chain_with_odd_total_parity_is_unsat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        let xor = |s: &mut Solver, a: Lit, b: Lit, value: bool| {
            if value {
                s.add_clause([a, b]);
                s.add_clause([!a, !b]);
            } else {
                s.add_clause([!a, b]);
                s.add_clause([a, !b]);
            }
        };
        xor(&mut s, v[0], v[1], true);
        xor(&mut s, v[1], v[2], true);
        xor(&mut s, v[2], v[0], true);
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn assumptions_restrict_the_search() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        // Assuming both false contradicts the clause.
        assert!(s.solve_with_assumptions(&[!v[0], !v[1]]).is_unsat());
        // The formula itself is still satisfiable afterwards.
        assert!(s.solve().is_sat());
        // Assumption-compatible solve returns a model honoring them.
        let r = s.solve_with_assumptions(&[!v[0]]);
        let m = r.model().expect("sat");
        assert!(!m.lit_is_true(v[0]));
        assert!(m.lit_is_true(v[1]));
    }

    #[test]
    fn duplicate_and_tautological_clauses_are_tolerated() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause([v[0], v[0], v[1]]);
        s.add_clause([v[0], !v[0]]);
        assert!(s.solve().is_sat());
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(Solver::luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn stats_are_populated() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        let _ = s.solve();
        assert!(s.stats().decisions > 0 || s.stats().propagations > 0);
    }

    fn pigeonhole(n: usize, m: usize) -> Solver {
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..m).map(|_| s.new_var().positive()).collect())
            .collect();
        for pigeon in &p {
            s.add_clause(pigeon.iter().copied());
        }
        for hole in 0..m {
            for a in 0..n {
                for b in (a + 1)..n {
                    s.add_clause([!p[a][hole], !p[b][hole]]);
                }
            }
        }
        s
    }

    #[test]
    fn budget_exhaustion_yields_unknown_and_resumes_to_the_same_verdict() {
        let mut budgeted = pigeonhole(7, 6);
        budgeted.set_budget(Budget::conflicts(10));
        assert_eq!(budgeted.solve(), SatResult::Unknown);
        assert_eq!(budgeted.last_stop(), Some(StopCause::BudgetExhausted));
        // Each further episode gets a fresh allotment; the search resumes
        // on the retained state and eventually closes the proof.
        let mut episodes = 1;
        let verdict = loop {
            match budgeted.solve() {
                SatResult::Unknown => episodes += 1,
                other => break other,
            }
            assert!(episodes < 10_000, "budgeted solve failed to converge");
        };
        assert!(verdict.is_unsat());
        assert!(episodes > 1, "a 10-conflict slice cannot finish PHP(7,6)");
        assert_eq!(budgeted.last_stop(), None);
        budgeted
            .debug_validate()
            .expect("state intact after resumes");
    }

    #[test]
    fn budget_min_takes_the_tighter_cap() {
        let m = Budget::conflicts(100).min(Budget::conflicts(50));
        assert_eq!(m, Budget::conflicts(50));
        assert_eq!(
            Budget::conflicts(7).min(Budget::unlimited()),
            Budget::conflicts(7)
        );
        assert_eq!(
            Budget::unlimited().min(Budget::unlimited()),
            Budget::unlimited()
        );
        assert!(m
            .minus(&SolverStats {
                conflicts: 60,
                ..SolverStats::default()
            })
            .is_exhausted());
    }

    #[test]
    fn cancel_token_stops_the_episode_and_is_reusable() {
        let mut s = pigeonhole(7, 6);
        let token = CancelToken::new();
        s.set_cancel_token(Some(token.clone()));
        // Unset token: solving proceeds normally and answers.
        s.set_budget(Budget::conflicts(5));
        assert_eq!(s.solve(), SatResult::Unknown);
        assert_eq!(s.last_stop(), Some(StopCause::BudgetExhausted));
        // Raised token: the next episode winds down as cancelled.
        token.cancel();
        s.set_budget(Budget::unlimited());
        assert_eq!(s.solve(), SatResult::Unknown);
        assert_eq!(s.last_stop(), Some(StopCause::Cancelled));
        // Reset: the same solver finishes the proof.
        token.reset();
        assert!(s.solve().is_unsat());
        s.debug_validate().expect("state intact after cancellation");
    }

    #[test]
    fn identical_budgeted_runs_have_identical_stats() {
        let run = || {
            let mut s = pigeonhole(7, 6);
            s.set_budget(Budget::conflicts(25));
            let first = s.solve();
            let second = s.solve();
            (first, second, s.stats())
        };
        let (a1, a2, astats) = run();
        let (b1, b2, bstats) = run();
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
        assert_eq!(astats, bstats, "budgeted episodes must be deterministic");
    }

    #[test]
    fn injected_faults_never_corrupt_the_verdict() {
        use crate::faults::FaultPlan;
        for seed in 0..48u64 {
            let plan = FaultPlan::from_seed(seed, 40);
            let mut s = pigeonhole(7, 6);
            s.inject_fault(Some(plan));
            let mut outcomes = Vec::new();
            let verdict = loop {
                match s.solve() {
                    SatResult::Unknown => {
                        outcomes.push(s.last_stop().expect("unknown must carry a stop cause"));
                        assert!(
                            outcomes.len() <= 2,
                            "seed {seed}: one-shot fault stopped more than once"
                        );
                    }
                    other => break other,
                }
            };
            assert!(
                verdict.is_unsat(),
                "seed {seed}: injected fault changed the verdict"
            );
            if !outcomes.is_empty() {
                assert_eq!(s.injected_fault(), None, "fired plan must disarm");
            }
            s.debug_validate()
                .unwrap_or_else(|e| panic!("seed {seed}: poisoned state: {e}"));
        }
    }

    #[test]
    fn stats_delta_isolates_one_call() {
        let mut s = pigeonhole(5, 4);
        let before = s.stats();
        assert!(s.solve().is_unsat());
        let spent = s.stats().delta_since(&before);
        assert!(spent.conflicts > 0);
        assert_eq!(spent.conflicts, s.stats().conflicts - before.conflicts);
        // A second snapshot right away spends nothing.
        let before = s.stats();
        let spent = s.stats().delta_since(&before);
        assert_eq!(spent.conflicts, 0);
        assert_eq!(spent.decisions, 0);
    }

    #[test]
    fn activation_literals_retire_obligations() {
        let mut s = Solver::new();
        let x = lits(&mut s, 1)[0];
        let act1 = s.new_var().positive();
        let act2 = s.new_var().positive();
        s.add_clause([!act1, x]);
        s.add_clause([!act2, !x]);
        // Both obligations active at once: contradiction.
        assert!(s.solve_with_assumptions(&[act1, act2]).is_unsat());
        // Individually each is fine.
        assert!(s.solve_with_assumptions(&[act1]).is_sat());
        assert!(s.solve_with_assumptions(&[act2]).is_sat());
        // Permanently retire obligation 1; obligation 2 plus x is now the
        // only constraint set.
        s.add_clause([!act1]);
        let r = s.solve_with_assumptions(&[act2]);
        assert!(r.model().expect("sat").lit_is_true(!x));
    }

    #[test]
    fn solver_is_reusable_after_sat() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        assert!(s.solve().is_sat());
        s.add_clause([!v[0]]);
        assert!(s.solve().is_sat());
        s.add_clause([!v[1]]);
        assert!(s.solve().is_unsat());
        // Once unsat, always unsat.
        assert!(s.solve().is_unsat());
    }

    #[test]
    fn reduction_compacts_the_arena() {
        // A small learnt budget forces many database reductions on a hard
        // instance; the compacting collector must keep the wasted-hole ratio
        // below the documented bound and the watch/reason structures intact.
        let mut s = pigeonhole(7, 6);
        s.set_learnt_budget(32);
        assert!(s.solve().is_unsat());
        assert!(s.stats().deleted_clauses > 0, "reductions must have run");
        assert!(s.stats().arena_collections > 0, "collections must have run");
        assert!(
            s.arena_wasted_ratio() < 0.25,
            "wasted ratio {} out of bounds",
            s.arena_wasted_ratio()
        );
        s.debug_validate().expect("invariants hold after GC");
    }

    #[test]
    fn debug_validate_rejects_a_corrupted_header() {
        let mut s = pigeonhole(5, 4);
        s.set_learnt_budget(8);
        assert!(s.solve().is_unsat());
        s.debug_validate().expect("a solved arena validates");
        assert!(s.arena_clauses >= 2, "the pigeon clauses live in the arena");
        // Lengthen, then shorten, the first clause by one literal: either
        // way the walk leaves the clause grid.
        for delta in [1u32 << LEN_SHIFT, (1u32 << LEN_SHIFT).wrapping_neg()] {
            let mut corrupted = s.clone();
            corrupted.arena[0] = corrupted.arena[0].wrapping_add(delta);
            assert!(corrupted.debug_validate().is_err(), "delta {delta:#x}");
        }
    }

    #[test]
    fn binary_clauses_bypass_the_arena() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        assert_eq!(s.num_clauses(), 2);
        // Nothing reached the arena: both clauses are pure implications.
        assert!(s.arena.is_empty());
        assert!(s.solve().is_sat());
    }
}
