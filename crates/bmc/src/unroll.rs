//! Transition-relation unrolling with word-level bit-blasting.
//!
//! Since PR 3 the unrolling has two encoding strategies:
//!
//! * **Compiled** (the default): the netlist is first run through the
//!   [`CompiledTransition`] compiler — cone-of-influence pruning, structural
//!   hashing, constant folding — and each frame instantiates the resulting
//!   dense schedule *lazily*: a slot is only Tseitin-encoded in a frame when
//!   a constraint, obligation or extraction actually reaches it. The final
//!   frame of a bounded proof therefore never pays for next-state logic, and
//!   logic outside the property cone is never encoded at all.
//! * **Eager** ([`UnrollOptions::eager`]): the original seed behavior — every
//!   netlist signal is encoded in every frame. Kept as the reference for
//!   differential testing and the `debug_alert` frame dump.

use crate::{CompileStats, CompiledOp, CompiledTransition, GateBuilder};
use rtl::{BinaryOp, BitVec, Netlist, Node, SignalId, UnaryOp};
use sat::{Lit, Model, SatResult};
use std::collections::HashMap;
use std::sync::Arc;

/// Options controlling how a netlist is unrolled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrollOptions {
    /// When `true`, registers that declare an initial value start there in
    /// frame 0. When `false` every register starts fully *symbolic*, which is
    /// the "any-state proof" setting used by interval property checking
    /// (IPC) and by all UPEC proofs.
    pub use_initial_values: bool,
    /// Deterministic resource budget for each [`Unrolling::solve`] call
    /// (conflicts / propagations / decisions; see [`sat::Budget`]). The
    /// budget covers the whole call including the trial solve and the
    /// post-simplification full solve: the remainder is threaded through
    /// the pipeline, and an exhausted call answers
    /// [`SatResult::Unknown`] with
    /// [`sat::StopCause::BudgetExhausted`] while keeping the session
    /// resumable. Unlimited by default.
    pub budget: sat::Budget,
    /// When `true`, bypass the transition-relation compiler and encode every
    /// netlist signal in every frame (the pre-compiler baseline). Used by
    /// benchmarks and differential tests; real proofs keep this `false`.
    pub eager_encoding: bool,
    /// When `true`, skip the incremental-safe CNF simplification pipeline
    /// that otherwise runs before a solve whenever the clause database has
    /// grown substantially (e.g. after a bound extension). Kept as an escape
    /// hatch for differential testing; real proofs keep this `false`.
    pub no_simplify: bool,
    /// Conflict budget of the *trial solve* that gates the simplification
    /// pipeline: after a substantial database growth the query is first
    /// attempted under this cap, and only queries that exhaust it pay for
    /// simplification (the trial's learned clauses are kept, so its effort
    /// is never wasted). Queries that finish inside the cap — small added
    /// frames, bounds the solver cruises through — skip the pipeline
    /// entirely. Lowering the value makes simplification more eager; `0`
    /// simplifies before any query that hits a single conflict.
    pub simplify_trial_conflicts: u64,
    /// When `true`, the underlying solver records a DRAT-style proof log
    /// from the first clause on (see [`sat::Solver::start_proof_log`]), so
    /// unsat answers can be packaged as independently checkable
    /// certificates. Off by default: logging costs memory proportional to
    /// the search.
    pub proof_log: bool,
    /// Search-loop feature toggles handed to the underlying solver (EMA
    /// restarts, phase saving, rephasing, chronological backtracking), plus
    /// the `vivify` flag that gates the clause-vivification inprocessing the
    /// unrolling runs after each simplification pass. Defaults to all
    /// features on; [`sat::SearchConfig::baseline`] restores the PR 5
    /// behavior for differential testing.
    pub search: sat::SearchConfig,
}

impl Default for UnrollOptions {
    fn default() -> Self {
        Self {
            use_initial_values: false,
            budget: sat::Budget::unlimited(),
            eager_encoding: false,
            no_simplify: false,
            simplify_trial_conflicts: 4000,
            proof_log: false,
            search: sat::SearchConfig::default(),
        }
    }
}

impl UnrollOptions {
    /// Symbolic-initial-state unrolling (the IPC default).
    pub fn symbolic_initial_state() -> Self {
        Self::default()
    }

    /// Reset-state bounded model checking (used by the ablation experiments).
    pub fn from_reset_state() -> Self {
        Self {
            use_initial_values: true,
            ..Self::default()
        }
    }

    /// Sets the deterministic per-call resource budget (see
    /// [`UnrollOptions::budget`]).
    pub fn with_budget(mut self, budget: sat::Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Disables the transition-relation compiler (baseline encoding).
    pub fn eager(mut self) -> Self {
        self.eager_encoding = true;
        self
    }

    /// Disables the CNF simplification pipeline (baseline solving).
    pub fn no_simplify(mut self) -> Self {
        self.no_simplify = true;
        self
    }

    /// Sets the conflict budget of the trial solve that gates the
    /// simplification pipeline (see
    /// [`UnrollOptions::simplify_trial_conflicts`]).
    pub fn with_simplify_trial(mut self, conflicts: u64) -> Self {
        self.simplify_trial_conflicts = conflicts;
        self
    }

    /// Enables DRAT-style proof logging on the underlying solver (see
    /// [`UnrollOptions::proof_log`]).
    pub fn with_proof_log(mut self) -> Self {
        self.proof_log = true;
        self
    }

    /// Sets the search-loop feature toggles (see [`UnrollOptions::search`]).
    pub fn with_search(mut self, search: sat::SearchConfig) -> Self {
        self.search = search;
        self
    }
}

/// A learned clause exported for cross-query sharing, expressed over
/// *canonical term ids* instead of session-local CNF variables.
///
/// Each literal packs a `(frame, slot, bit)` position of the shared
/// compiled schedule (`frame << 40 | slot << 16 | bit`, shifted left once)
/// with a polarity bit relative to that position's representative literal.
/// Because two unrollings with equal [`Unrolling::share_fingerprint`]
/// encode the same term at the same position, the clause can be re-read in
/// any such session ([`Unrolling::import_shared`]). `ceiling` is the
/// highest frame the clause's derivation touched — the frame-tag filter of
/// the sharing pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedClause {
    /// Canonical literals (packed position + relative polarity).
    pub lits: Vec<u64>,
    /// Highest frame tag in the clause's derivation.
    pub ceiling: u32,
}

/// Aggregate description of what an unrolling has encoded so far.
#[derive(Debug, Clone, Copy)]
pub struct EncodeStats {
    /// `"compiled"` or `"eager"`.
    pub strategy: &'static str,
    /// Slots in the compiled schedule (netlist signals for eager mode).
    pub scheduled_slots: usize,
    /// Slot instances actually Tseitin-encoded, summed over all frames.
    pub encoded_slots: usize,
    /// CNF variables allocated.
    pub variables: usize,
    /// CNF problem clauses added.
    pub clauses: usize,
    /// Compiler counters (`None` in eager mode).
    pub compile: Option<CompileStats>,
}

/// A netlist unrolled over `k+1` time frames and bit-blasted into CNF.
///
/// Frame `t` describes the state *at* clock cycle `t`; the register values of
/// frame `t+1` are the bit-blasted next-state functions evaluated in frame
/// `t`. Primary inputs receive fresh variables in every frame, so the solver
/// searches over *all* input sequences — for the UPEC miter this is what
/// makes the program symbolic.
///
/// # Examples
///
/// ```
/// use rtl::{Netlist, BitVec};
/// use bmc::{Unrolling, UnrollOptions};
///
/// let mut n = Netlist::new("counter");
/// let c = n.register_init("c", 4, BitVec::zero(4));
/// let one = n.lit(1, 4);
/// let next = n.add(c.value(), one);
/// n.set_next(c, next);
/// n.output("c", c.value());
///
/// let mut unrolling = Unrolling::new(&n, UnrollOptions::from_reset_state());
/// unrolling.extend_to(3);
/// // After 3 cycles from reset the counter must hold 3.
/// let must_be_three = unrolling.assume_signal_equals_const(3, c.value(), 3);
/// assert!(must_be_three.is_ok());
/// assert!(unrolling.solve(&[]).is_sat());
/// ```
#[derive(Debug)]
pub struct Unrolling<'n> {
    netlist: &'n Netlist,
    gates: GateBuilder,
    options: UnrollOptions,
    backend: Backend,
    /// Registers whose frame-0 value shares the literals of another register
    /// (used by miter-style proofs to state "these start equal" structurally
    /// instead of through equality clauses). Keyed by signal index.
    frame0_aliases: HashMap<usize, SignalId>,
    /// Total slot instances encoded across all frames.
    encoded_slots: usize,
    /// Problem-clause count at the end of the last simplification run, used
    /// to decide when the database has grown enough to be worth another
    /// pass.
    clauses_at_last_simplify: usize,
}

#[derive(Debug)]
enum Backend {
    /// Every signal encoded in every frame: `frames[t][signal]` = literals.
    Eager { frames: Vec<Vec<Vec<Lit>>> },
    /// Compiled schedule, lazily instantiated: `frames[t][slot]`.
    Compiled {
        transition: Arc<CompiledTransition>,
        frames: Vec<Vec<Option<Vec<Lit>>>>,
    },
}

/// Error returned when a constraint refers to a signal of the wrong shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnrollError {
    /// A single-bit signal was required.
    NotABit {
        /// The offending signal.
        signal: SignalId,
        /// Its actual width.
        width: u32,
    },
    /// Two signals that must have equal widths do not.
    WidthMismatch {
        /// Left signal width.
        left: u32,
        /// Right signal width.
        right: u32,
    },
    /// The requested frame has not been built yet.
    FrameOutOfRange {
        /// Requested frame.
        frame: usize,
        /// Number of frames built.
        built: usize,
    },
    /// The signal was pruned from the compiled schedule (outside the cone of
    /// influence of the declared roots).
    NotInSchedule {
        /// The pruned signal.
        signal: SignalId,
    },
    /// The signal is scheduled but was never reached by any query in this
    /// frame, so it has no literals (and no value in a model).
    NotEncoded {
        /// The signal.
        signal: SignalId,
        /// The frame.
        frame: usize,
    },
}

impl std::fmt::Display for UnrollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnrollError::NotABit { signal, width } => {
                write!(
                    f,
                    "signal {signal} is {width} bits wide, expected a single bit"
                )
            }
            UnrollError::WidthMismatch { left, right } => {
                write!(
                    f,
                    "width mismatch between constrained signals: {left} vs {right}"
                )
            }
            UnrollError::FrameOutOfRange { frame, built } => {
                write!(f, "frame {frame} not built yet (only {built} frames exist)")
            }
            UnrollError::NotInSchedule { signal } => {
                write!(f, "signal {signal} was pruned from the compiled schedule")
            }
            UnrollError::NotEncoded { signal, frame } => {
                write!(f, "signal {signal} was never encoded in frame {frame}")
            }
        }
    }
}

impl std::error::Error for UnrollError {}

impl<'n> Unrolling<'n> {
    /// Creates an unrolling with frame 0 built.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::validate`].
    pub fn new(netlist: &'n Netlist, options: UnrollOptions) -> Self {
        Self::with_frame0_aliases(netlist, options, &[])
    }

    /// Creates an unrolling in which, for every `(register, source)` pair in
    /// `aliases`, the frame-0 value of `register` reuses the literals of
    /// `source` (both must be register-value signals of equal width).
    ///
    /// This expresses "these two registers start out equal" *structurally*,
    /// which — combined with the gate-level structural hashing — lets the two
    /// halves of a miter collapse onto shared variables wherever they have
    /// not yet diverged. The UPEC checks use it for the `micro_soc_state1 =
    /// micro_soc_state2` assumption of the paper's Fig. 4.
    ///
    /// In the default (compiled) mode this constructor compiles the full
    /// netlist on the spot. Flows that open many unrollings of the same
    /// design should compile once and share the schedule through
    /// [`Unrolling::with_compiled`].
    ///
    /// # Panics
    ///
    /// Panics if the netlist is invalid or an alias pair has mismatched
    /// widths or refers to non-register signals.
    pub fn with_frame0_aliases(
        netlist: &'n Netlist,
        options: UnrollOptions,
        aliases: &[(SignalId, SignalId)],
    ) -> Self {
        let transition = if options.eager_encoding {
            None
        } else {
            Some(Arc::new(CompiledTransition::compile(netlist)))
        };
        Self::build(netlist, transition, options, aliases)
    }

    /// Creates an unrolling over a pre-compiled transition relation
    /// (compile once, clone per frame — and per session).
    ///
    /// # Panics
    ///
    /// Panics if the netlist is invalid, an alias pair is malformed, or
    /// `options.eager_encoding` is set (a compiled schedule cannot drive the
    /// eager baseline).
    pub fn with_compiled(
        netlist: &'n Netlist,
        transition: Arc<CompiledTransition>,
        options: UnrollOptions,
        aliases: &[(SignalId, SignalId)],
    ) -> Self {
        assert!(
            !options.eager_encoding,
            "eager encoding ignores the compiled schedule"
        );
        Self::build(netlist, Some(transition), options, aliases)
    }

    fn build(
        netlist: &'n Netlist,
        transition: Option<Arc<CompiledTransition>>,
        options: UnrollOptions,
        aliases: &[(SignalId, SignalId)],
    ) -> Self {
        netlist
            .validate()
            .expect("netlist must be valid before unrolling");
        let mut frame0_aliases = HashMap::new();
        for &(register, source) in aliases {
            assert!(
                netlist.node(register).is_register() && netlist.node(source).is_register(),
                "frame-0 aliases must pair register signals"
            );
            assert_eq!(
                netlist.width(register),
                netlist.width(source),
                "frame-0 alias width mismatch"
            );
            assert!(
                source.index() < register.index(),
                "the alias source must be created before the aliased register"
            );
            frame0_aliases.insert(register.index(), source);
        }
        let mut gates = GateBuilder::new();
        gates.solver_mut().set_search_config(options.search);
        if options.proof_log {
            // Logging starts before any frame is encoded, so the axiom set of
            // the certificate is exactly the frame CNF (plus the builder's
            // constant-true unit).
            gates.solver_mut().start_proof_log();
        } else if transition.is_some() {
            // The builder's constant-true unit is part of every session's
            // theory, so derivations through it stay shareable. (Certified
            // sessions never share — imports are refused under proof
            // logging — so the tag is skipped there.)
            gates.solver_mut().mark_root_facts_shared(0);
        }
        let backend = match transition {
            Some(transition) => Backend::Compiled {
                transition,
                frames: Vec::new(),
            },
            None => Backend::Eager { frames: Vec::new() },
        };
        let mut unrolling = Self {
            netlist,
            gates,
            options,
            backend,
            frame0_aliases,
            encoded_slots: 0,
            clauses_at_last_simplify: 0,
        };
        unrolling.extend_to(0);
        unrolling
    }

    /// The unrolled netlist.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of frames built so far (at least 1).
    pub fn frame_count(&self) -> usize {
        match &self.backend {
            Backend::Eager { frames } => frames.len(),
            Backend::Compiled { frames, .. } => frames.len(),
        }
    }

    /// Number of CNF variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.gates.solver().num_vars()
    }

    /// Number of problem clauses generated so far.
    pub fn num_clauses(&self) -> usize {
        self.gates.solver().num_clauses()
    }

    /// What has been encoded so far, and by which strategy.
    pub fn encode_stats(&self) -> EncodeStats {
        let (strategy, scheduled_slots, compile) = match &self.backend {
            Backend::Eager { .. } => ("eager", self.netlist.len(), None),
            Backend::Compiled { transition, .. } => {
                ("compiled", transition.len(), Some(transition.stats()))
            }
        };
        EncodeStats {
            strategy,
            scheduled_slots,
            encoded_slots: self.encoded_slots,
            variables: self.num_vars(),
            clauses: self.num_clauses(),
            compile,
        }
    }

    /// The compiled transition relation driving this unrolling, if any.
    pub fn compiled(&self) -> Option<&Arc<CompiledTransition>> {
        match &self.backend {
            Backend::Compiled { transition, .. } => Some(transition),
            Backend::Eager { .. } => None,
        }
    }

    /// Ensures frames `0..=k` exist.
    ///
    /// Frames are fed into one *persistent* solver: extending an unrolling
    /// that has already been solved at a shallower bound only bit-blasts the
    /// new frames and appends their clauses — the solver keeps its
    /// learned-clause database, variable activities and saved phases from the
    /// earlier bounds, which is what makes walking a property up through
    /// bounds `1..=k` much cheaper than `k` independent solves. The
    /// incremental UPEC engine in the `upec` crate relies on exactly this
    /// contract.
    ///
    /// In compiled mode a new frame is merely *declared* here; its slots are
    /// bit-blasted on demand when queries reach them.
    ///
    /// ```
    /// use rtl::{Netlist, BitVec};
    /// use bmc::{Unrolling, UnrollOptions};
    ///
    /// let mut n = Netlist::new("counter");
    /// let c = n.register_init("c", 8, BitVec::zero(8));
    /// let one = n.lit(1, 8);
    /// let next = n.add(c.value(), one);
    /// n.set_next(c, next);
    /// n.output("c", c.value());
    ///
    /// let mut u = Unrolling::new(&n, UnrollOptions::from_reset_state());
    /// for k in 1..=4 {
    ///     u.extend_to(k); // appends only the new frame each iteration
    ///     let act = u.fresh_lit();
    ///     let wrong = u.lits(k, c.value()).unwrap()[0]; // LSB of k is k % 2
    ///     let expected_lsb = k % 2 == 1;
    ///     let obligation = if expected_lsb { !wrong } else { wrong };
    ///     u.add_clause_activated(act, [obligation]);
    ///     assert!(u.solve(&[act]).is_unsat(), "counter LSB is determined");
    ///     u.retire_activation(act);
    /// }
    /// ```
    pub fn extend_to(&mut self, k: usize) {
        match &mut self.backend {
            Backend::Eager { .. } => {
                while self.frame_count() <= k {
                    self.build_eager_frame();
                }
            }
            Backend::Compiled { transition, frames } => {
                let slots = transition.len();
                while frames.len() <= k {
                    frames.push(vec![None; slots]);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Eager encoding (the pre-compiler baseline)
    // ------------------------------------------------------------------

    fn build_eager_frame(&mut self) {
        let t = self.frame_count();
        let mut span = obs::span("bmc.encode_frame");
        span.attr_u64("frame", t as u64);
        let mut frame: Vec<Vec<Lit>> = Vec::with_capacity(self.netlist.len());
        for id in self.netlist.signals() {
            let lits = self.encode_netlist_node(t, id, &frame);
            for &l in &lits {
                self.gates.freeze(l);
            }
            frame.push(lits);
        }
        self.encoded_slots += frame.len();
        span.attr_u64("slots", frame.len() as u64);
        match &mut self.backend {
            Backend::Eager { frames } => frames.push(frame),
            Backend::Compiled { .. } => unreachable!("eager frame on compiled backend"),
        }
    }

    fn encode_netlist_node(&mut self, t: usize, id: SignalId, frame: &[Vec<Lit>]) -> Vec<Lit> {
        match self.netlist.node(id) {
            Node::Input { width, .. } => self.fresh_word(*width),
            Node::Const(v) => self.const_word(*v),
            Node::Register {
                register, width, ..
            } => {
                let info = &self.netlist.registers()[register.index()];
                if t == 0 {
                    if let Some(&source) = self.frame0_aliases.get(&id.index()) {
                        return frame[source.index()].clone();
                    }
                    match (self.options.use_initial_values, info.init) {
                        (true, Some(init)) => self.const_word(init),
                        _ => self.fresh_word(*width),
                    }
                } else {
                    // The register's value in frame t is its next-state
                    // expression evaluated in frame t-1.
                    let next = info
                        .next
                        .expect("validated netlists give every register a next-state");
                    match &self.backend {
                        Backend::Eager { frames } => frames[t - 1][next.index()].clone(),
                        Backend::Compiled { .. } => unreachable!(),
                    }
                }
            }
            Node::Unary { op, a, .. } => {
                let a = frame[a.index()].clone();
                self.encode_unary(*op, &a)
            }
            Node::Binary { op, a, b, .. } => {
                let a = frame[a.index()].clone();
                let b = frame[b.index()].clone();
                self.encode_binary(*op, &a, &b)
            }
            Node::Mux {
                cond, then_, else_, ..
            } => {
                let c = frame[cond.index()][0];
                let t_lits = frame[then_.index()].clone();
                let e_lits = frame[else_.index()].clone();
                t_lits
                    .iter()
                    .zip(&e_lits)
                    .map(|(&tl, &el)| self.gates.mux(c, tl, el))
                    .collect()
            }
            Node::Slice { a, hi, lo } => {
                let a = &frame[a.index()];
                a[*lo as usize..=*hi as usize].to_vec()
            }
            Node::Concat { hi, lo, .. } => {
                let mut lits = frame[lo.index()].clone();
                lits.extend_from_slice(&frame[hi.index()]);
                lits
            }
        }
    }

    // ------------------------------------------------------------------
    // Compiled, lazy encoding
    // ------------------------------------------------------------------

    /// Makes sure `slot` has literals in `frame`, bit-blasting it and its
    /// not-yet-encoded transitive support first (iteratively; the support
    /// spans earlier frames through register feedback).
    fn ensure_slot(&mut self, frame: usize, slot: u32) {
        let mut stack: Vec<(usize, u32)> = vec![(frame, slot)];
        while let Some(&(f, s)) = stack.last() {
            if self.slot_lits(f, s).is_some() {
                stack.pop();
                continue;
            }
            let deps = self.slot_deps(f, s);
            let mut all_ready = true;
            for &(df, ds) in &deps {
                if self.slot_lits(df, ds).is_none() {
                    all_ready = false;
                    stack.push((df, ds));
                }
            }
            if all_ready {
                // The slot's Tseitin clauses are purely definitional over
                // the shared compiled transition, so they open a shareable
                // section at this frame's ceiling. Scenario constraints and
                // obligations are added outside any section and stay
                // untagged.
                self.gates.solver_mut().set_share_ceiling(Some(f as u32));
                let lits = self.encode_slot(f, s);
                self.gates.solver_mut().set_share_ceiling(None);
                // Slot literals outlive this encoding step: deeper frames
                // read them through register feedback, later queries reach
                // them as dependencies, and model extraction reads them
                // after a solve. They must survive CNF simplification.
                for &l in &lits {
                    self.gates.freeze(l);
                }
                match &mut self.backend {
                    Backend::Compiled { frames, .. } => frames[f][s as usize] = Some(lits),
                    Backend::Eager { .. } => unreachable!(),
                }
                self.encoded_slots += 1;
                stack.pop();
            }
        }
    }

    fn slot_lits(&self, frame: usize, slot: u32) -> Option<&[Lit]> {
        match &self.backend {
            Backend::Compiled { frames, .. } => frames[frame][slot as usize].as_deref(),
            Backend::Eager { .. } => unreachable!("slot access on eager backend"),
        }
    }

    /// The `(frame, slot)` pairs that must be encoded before this one.
    fn slot_deps(&self, frame: usize, slot: u32) -> Vec<(usize, u32)> {
        let transition = match &self.backend {
            Backend::Compiled { transition, .. } => transition,
            Backend::Eager { .. } => unreachable!(),
        };
        match &transition.ops()[slot as usize] {
            CompiledOp::Input { .. } | CompiledOp::Const(_) => Vec::new(),
            CompiledOp::Register { register, .. } => {
                if frame == 0 {
                    let info = &self.netlist.registers()[register.index()];
                    match self.frame0_aliases.get(&info.signal.index()) {
                        Some(&source) => {
                            let source_slot = transition
                                .slot_of(source)
                                .expect("alias sources are register values inside the schedule");
                            vec![(0, source_slot)]
                        }
                        None => Vec::new(),
                    }
                } else {
                    let next = transition
                        .next_slot(*register)
                        .expect("in-cone registers have scheduled next-states");
                    vec![(frame - 1, next)]
                }
            }
            CompiledOp::Unary { a, .. } | CompiledOp::Slice { a, .. } => vec![(frame, *a)],
            CompiledOp::Binary { a, b, .. } => vec![(frame, *a), (frame, *b)],
            CompiledOp::Concat { hi, lo } => vec![(frame, *hi), (frame, *lo)],
            CompiledOp::Mux { cond, then_, else_ } => {
                vec![(frame, *cond), (frame, *then_), (frame, *else_)]
            }
        }
    }

    /// Bit-blasts one slot whose dependencies are already encoded.
    fn encode_slot(&mut self, frame: usize, slot: u32) -> Vec<Lit> {
        let transition = match &self.backend {
            Backend::Compiled { transition, .. } => Arc::clone(transition),
            Backend::Eager { .. } => unreachable!(),
        };
        let word = |me: &Self, f: usize, s: u32| -> Vec<Lit> {
            me.slot_lits(f, s)
                .expect("dependency encoded before use")
                .to_vec()
        };
        match &transition.ops()[slot as usize] {
            CompiledOp::Input { width } => self.fresh_word(*width),
            CompiledOp::Const(v) => self.const_word(*v),
            CompiledOp::Register { register, width } => {
                if frame == 0 {
                    let info = &self.netlist.registers()[register.index()];
                    if let Some(&source) = self.frame0_aliases.get(&info.signal.index()) {
                        let source_slot =
                            transition.slot_of(source).expect("alias source scheduled");
                        return word(self, 0, source_slot);
                    }
                    match (
                        self.options.use_initial_values,
                        transition.init_value(*register),
                    ) {
                        (true, Some(init)) => self.const_word(init),
                        _ => self.fresh_word(*width),
                    }
                } else {
                    let next = transition
                        .next_slot(*register)
                        .expect("in-cone registers have scheduled next-states");
                    word(self, frame - 1, next)
                }
            }
            CompiledOp::Unary { op, a } => {
                let a = word(self, frame, *a);
                self.encode_unary(*op, &a)
            }
            CompiledOp::Binary { op, a, b } => {
                let a_lits = word(self, frame, *a);
                let b_lits = word(self, frame, *b);
                self.encode_binary(*op, &a_lits, &b_lits)
            }
            CompiledOp::Mux { cond, then_, else_ } => {
                let c = word(self, frame, *cond)[0];
                let t_lits = word(self, frame, *then_);
                let e_lits = word(self, frame, *else_);
                t_lits
                    .iter()
                    .zip(&e_lits)
                    .map(|(&tl, &el)| self.gates.mux(c, tl, el))
                    .collect()
            }
            CompiledOp::Slice { a, hi, lo } => {
                let a = word(self, frame, *a);
                a[*lo as usize..=*hi as usize].to_vec()
            }
            CompiledOp::Concat { hi, lo } => {
                let mut lits = word(self, frame, *lo);
                lits.extend_from_slice(&word(self, frame, *hi));
                lits
            }
        }
    }

    // ------------------------------------------------------------------
    // Shared bit-level encoders
    // ------------------------------------------------------------------

    fn fresh_word(&mut self, width: u32) -> Vec<Lit> {
        (0..width).map(|_| self.gates.fresh()).collect()
    }

    fn const_word(&mut self, value: BitVec) -> Vec<Lit> {
        (0..value.width())
            .map(|i| self.gates.constant(value.get_bit(i)))
            .collect()
    }

    fn encode_unary(&mut self, op: UnaryOp, a: &[Lit]) -> Vec<Lit> {
        match op {
            UnaryOp::Not => a.iter().map(|&l| !l).collect(),
            UnaryOp::Neg => {
                // -a = ~a + 1 via a ripple-carry increment.
                let inverted: Vec<Lit> = a.iter().map(|&l| !l).collect();
                let mut carry = self.gates.true_lit();
                let mut out = Vec::with_capacity(a.len());
                for &bit in &inverted {
                    let (sum, c) = self.gates.full_adder(bit, self.gates.false_lit(), carry);
                    out.push(sum);
                    carry = c;
                }
                out
            }
            UnaryOp::ReduceOr => vec![self.gates.or_many(a)],
            UnaryOp::ReduceAnd => vec![self.gates.and_many(a)],
            UnaryOp::ReduceXor => {
                let mut acc = self.gates.false_lit();
                for &l in a {
                    acc = self.gates.xor(acc, l);
                }
                vec![acc]
            }
        }
    }

    fn ripple_add(&mut self, a: &[Lit], b: &[Lit], carry_in: Lit) -> (Vec<Lit>, Lit) {
        let mut carry = carry_in;
        let mut out = Vec::with_capacity(a.len());
        for (&ai, &bi) in a.iter().zip(b) {
            let (sum, c) = self.gates.full_adder(ai, bi, carry);
            out.push(sum);
            carry = c;
        }
        (out, carry)
    }

    fn encode_unsigned_less_than(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        // a < b  iff  the subtraction a - b = a + ~b + 1 produces no carry out.
        let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
        let (_, carry) = self.ripple_add(a, &nb, self.gates.true_lit());
        !carry
    }

    fn encode_binary(&mut self, op: BinaryOp, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        match op {
            BinaryOp::And => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.gates.and(x, y))
                .collect(),
            BinaryOp::Or => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.gates.or(x, y))
                .collect(),
            BinaryOp::Xor => a
                .iter()
                .zip(b)
                .map(|(&x, &y)| self.gates.xor(x, y))
                .collect(),
            BinaryOp::Add => {
                let (sum, _) = self.ripple_add(a, b, self.gates.false_lit());
                sum
            }
            BinaryOp::Sub => {
                let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
                let (diff, _) = self.ripple_add(a, &nb, self.gates.true_lit());
                diff
            }
            BinaryOp::Eq => {
                let bits: Vec<Lit> = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| self.gates.xnor(x, y))
                    .collect();
                vec![self.gates.and_many(&bits)]
            }
            BinaryOp::Ne => {
                let bits: Vec<Lit> = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| self.gates.xor(x, y))
                    .collect();
                vec![self.gates.or_many(&bits)]
            }
            BinaryOp::Ult => vec![self.encode_unsigned_less_than(a, b)],
            BinaryOp::Ule => {
                let gt = self.encode_unsigned_less_than(b, a);
                vec![!gt]
            }
            BinaryOp::Slt => {
                let sa = *a.last().expect("slt operand is at least one bit");
                let sb = *b.last().expect("slt operand is at least one bit");
                let ult = self.encode_unsigned_less_than(a, b);
                // If the sign bits differ, a < b iff a is negative; otherwise
                // the unsigned comparison gives the right answer.
                let signs_differ = self.gates.xor(sa, sb);
                vec![self.gates.mux(signs_differ, sa, ult)]
            }
            BinaryOp::Shl => self.encode_shift(a, b, true),
            BinaryOp::Shr => self.encode_shift(a, b, false),
        }
    }

    fn encode_shift(&mut self, a: &[Lit], amount: &[Lit], left: bool) -> Vec<Lit> {
        let width = a.len();
        let mut current = a.to_vec();
        let mut overflow = self.gates.false_lit();
        for (i, &amount_bit) in amount.iter().enumerate() {
            let shift = 1usize << i.min(63);
            if shift >= width {
                overflow = self.gates.or(overflow, amount_bit);
                continue;
            }
            let shifted: Vec<Lit> = (0..width)
                .map(|bit| {
                    let source = if left {
                        bit.checked_sub(shift)
                    } else {
                        let s = bit + shift;
                        (s < width).then_some(s)
                    };
                    match source {
                        Some(s) => current[s],
                        None => self.gates.false_lit(),
                    }
                })
                .collect();
            current = current
                .iter()
                .zip(&shifted)
                .map(|(&keep, &moved)| self.gates.mux(amount_bit, moved, keep))
                .collect();
        }
        // Shift amounts >= width produce zero.
        current
            .iter()
            .map(|&bit| self.gates.mux(overflow, self.gates.false_lit(), bit))
            .collect()
    }

    // ------------------------------------------------------------------
    // Constraints, queries and model extraction
    // ------------------------------------------------------------------

    fn check_frame(&self, frame: usize) -> Result<(), UnrollError> {
        if frame >= self.frame_count() {
            Err(UnrollError::FrameOutOfRange {
                frame,
                built: self.frame_count(),
            })
        } else {
            Ok(())
        }
    }

    /// Literals of a signal in a frame (LSB first), bit-blasting the signal's
    /// transitive support on first access in compiled mode.
    ///
    /// # Errors
    ///
    /// Returns [`UnrollError::FrameOutOfRange`] if the frame is not built, or
    /// [`UnrollError::NotInSchedule`] if the signal was pruned by a rooted
    /// compilation.
    pub fn lits(&mut self, frame: usize, signal: SignalId) -> Result<Vec<Lit>, UnrollError> {
        self.check_frame(frame)?;
        match &self.backend {
            Backend::Eager { frames } => Ok(frames[frame][signal.index()].clone()),
            Backend::Compiled { transition, .. } => {
                let slot = transition
                    .slot_of(signal)
                    .ok_or(UnrollError::NotInSchedule { signal })?;
                self.ensure_slot(frame, slot);
                Ok(self.slot_lits(frame, slot).expect("just encoded").to_vec())
            }
        }
    }

    /// Literals of a signal in a frame, **without** encoding anything:
    /// read-only companion of [`Unrolling::lits`] for use after a solve.
    fn peek_lits(&self, frame: usize, signal: SignalId) -> Result<Vec<Lit>, UnrollError> {
        self.check_frame(frame)?;
        match &self.backend {
            Backend::Eager { frames } => Ok(frames[frame][signal.index()].clone()),
            Backend::Compiled { transition, frames } => {
                let slot = transition
                    .slot_of(signal)
                    .ok_or(UnrollError::NotInSchedule { signal })?;
                frames[frame][slot as usize]
                    .clone()
                    .ok_or(UnrollError::NotEncoded { signal, frame })
            }
        }
    }

    /// Literal of a single-bit signal in a frame.
    ///
    /// # Errors
    ///
    /// Returns an error if the signal is wider than one bit or the frame is
    /// not built.
    pub fn bit_lit(&mut self, frame: usize, signal: SignalId) -> Result<Lit, UnrollError> {
        let lits = self.lits(frame, signal)?;
        if lits.len() != 1 {
            return Err(UnrollError::NotABit {
                signal,
                width: lits.len() as u32,
            });
        }
        Ok(lits[0])
    }

    /// Adds a hard constraint that a single-bit signal is true in a frame.
    ///
    /// # Errors
    ///
    /// Returns an error if the signal is not a single bit or the frame is not
    /// built.
    pub fn assume_signal_true(
        &mut self,
        frame: usize,
        signal: SignalId,
    ) -> Result<(), UnrollError> {
        let lit = self.bit_lit(frame, signal)?;
        self.gates.assert_true(lit);
        Ok(())
    }

    /// Adds a hard constraint that a single-bit signal is false in a frame.
    ///
    /// # Errors
    ///
    /// Returns an error if the signal is not a single bit or the frame is not
    /// built.
    pub fn assume_signal_false(
        &mut self,
        frame: usize,
        signal: SignalId,
    ) -> Result<(), UnrollError> {
        let lit = self.bit_lit(frame, signal)?;
        self.gates.assert_true(!lit);
        Ok(())
    }

    /// Adds a hard constraint that two equally wide signals are equal in a
    /// frame.
    ///
    /// # Errors
    ///
    /// Returns an error on width mismatch or unbuilt frame.
    pub fn assume_signals_equal(
        &mut self,
        frame: usize,
        a: SignalId,
        b: SignalId,
    ) -> Result<(), UnrollError> {
        let a_lits = self.lits(frame, a)?;
        let b_lits = self.lits(frame, b)?;
        if a_lits.len() != b_lits.len() {
            return Err(UnrollError::WidthMismatch {
                left: a_lits.len() as u32,
                right: b_lits.len() as u32,
            });
        }
        for (x, y) in a_lits.into_iter().zip(b_lits) {
            self.gates.assert_equal(x, y);
        }
        Ok(())
    }

    /// Adds a hard constraint that a signal holds a constant value in a frame.
    ///
    /// # Errors
    ///
    /// Returns an error if the frame is not built.
    pub fn assume_signal_equals_const(
        &mut self,
        frame: usize,
        signal: SignalId,
        value: u64,
    ) -> Result<(), UnrollError> {
        let lits = self.lits(frame, signal)?;
        let value = BitVec::new(value, lits.len() as u32);
        for (i, lit) in lits.into_iter().enumerate() {
            if value.get_bit(i as u32) {
                self.gates.assert_true(lit);
            } else {
                self.gates.assert_true(!lit);
            }
        }
        Ok(())
    }

    /// Builds (without asserting) a literal that is true iff two signals are
    /// equal in a frame.
    ///
    /// # Errors
    ///
    /// Returns an error on width mismatch or unbuilt frame.
    pub fn equality_lit(
        &mut self,
        frame: usize,
        a: SignalId,
        b: SignalId,
    ) -> Result<Lit, UnrollError> {
        let a_lits = self.lits(frame, a)?;
        let b_lits = self.lits(frame, b)?;
        if a_lits.len() != b_lits.len() {
            return Err(UnrollError::WidthMismatch {
                left: a_lits.len() as u32,
                right: b_lits.len() as u32,
            });
        }
        let bits: Vec<Lit> = a_lits
            .into_iter()
            .zip(b_lits)
            .map(|(x, y)| self.gates.xnor(x, y))
            .collect();
        let out = self.gates.and_many(&bits);
        // The caller holds on to this literal across solves and possibly
        // across simplification runs.
        self.gates.freeze(out);
        Ok(out)
    }

    /// Adds an arbitrary clause over previously obtained literals.
    pub fn add_clause<I>(&mut self, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        self.gates.add_clause(lits);
    }

    /// Allocates a fresh free literal (useful for selector/relaxation
    /// variables in iterative flows). The literal is frozen: it survives CNF
    /// simplification, so it can be assumed or constrained at any later
    /// point of the session.
    pub fn fresh_lit(&mut self) -> Lit {
        let l = self.gates.fresh();
        self.gates.freeze(l);
        l
    }

    /// Adds a clause guarded by an activation literal: the clause only bites
    /// while `activation` is assumed in [`Unrolling::solve`]. This is how an
    /// incremental session poses a *retractable* proof obligation — the
    /// counterpart of [`Unrolling::retire_activation`].
    pub fn add_clause_activated<I>(&mut self, activation: Lit, lits: I)
    where
        I: IntoIterator<Item = Lit>,
    {
        let clause: Vec<Lit> = std::iter::once(!activation).chain(lits).collect();
        self.gates.add_clause(clause);
    }

    /// Permanently disables every clause guarded by `activation` (adds the
    /// unit clause `!activation`). After retiring, the activation literal
    /// must not be assumed again.
    pub fn retire_activation(&mut self, activation: Lit) {
        self.gates.add_clause([!activation]);
    }

    /// Replaces the deterministic per-call resource budget (see
    /// [`UnrollOptions::budget`]); takes effect from the next
    /// [`Unrolling::solve`] call.
    pub fn set_budget(&mut self, budget: sat::Budget) {
        self.options.budget = budget;
    }

    /// The deterministic per-call resource budget currently in force.
    pub fn budget(&self) -> sat::Budget {
        self.options.budget
    }

    /// Installs (or removes) a cooperative [`sat::CancelToken`] on the
    /// underlying solver; raising it makes an in-flight
    /// [`Unrolling::solve`] return [`SatResult::Unknown`] at the next
    /// restart boundary, with [`Unrolling::last_stop`] reporting
    /// [`sat::StopCause::Cancelled`].
    pub fn set_cancel_token(&mut self, token: Option<sat::CancelToken>) {
        self.gates.solver_mut().set_cancel_token(token);
    }

    /// Why the most recent solver episode stopped early (`None` after a
    /// definitive sat/unsat answer). See [`sat::Solver::last_stop`].
    pub fn last_stop(&self) -> Option<sat::StopCause> {
        self.gates.solver().last_stop()
    }

    /// Arms a one-shot deterministic fault on the underlying solver (see
    /// [`sat::Solver::inject_fault`]). Compiled only under the `faults`
    /// feature (which forwards to `sat/faults`).
    #[cfg(feature = "faults")]
    pub fn inject_fault(&mut self, plan: Option<sat::faults::FaultPlan>) {
        self.gates.solver_mut().inject_fault(plan);
    }

    /// Runs the SAT solver under the given assumption literals.
    ///
    /// Unless [`UnrollOptions::no_simplify`] is set, the incremental-safe
    /// CNF simplification pipeline is triggered *adaptively*: after a
    /// substantial database growth (at least 512 new problem clauses and an
    /// eighth of the database — in practice, a bound extension) the query is
    /// first attempted under the call's budget capped at
    /// [`UnrollOptions::simplify_trial_conflicts`] conflicts. Queries that
    /// finish inside the cap never pay for the pipeline; queries that
    /// exhaust it are simplified (with the probing budget scaled to the
    /// growth) and then solved under what is left of the budget — keeping
    /// every clause the trial learned.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        let budget = self.options.budget;
        self.gates.solver_mut().set_budget(budget);
        if self.options.no_simplify || !self.simplification_due() {
            return self.gates.solver_mut().solve_with_assumptions(assumptions);
        }

        // Trial solve: cheap queries finish here and skip the pipeline.
        let trial = self.options.simplify_trial_conflicts;
        let solver = self.gates.solver_mut();
        let stats_before = solver.stats();
        let trial_budget = budget.min(sat::Budget::conflicts(trial));
        solver.set_budget(trial_budget);
        let result = {
            let mut span = obs::span("bmc.trial_solve");
            span.attr_u64("trial_limit", trial_budget.conflicts.unwrap_or(trial));
            solver.solve_with_assumptions(assumptions)
        };
        let spent = solver.stats().delta_since(&stats_before);
        // Only a stop at the trial cap with budget left over goes on to
        // simplify. Any other stop — the caller's budget, a cancellation,
        // an injected fault — already is the honest answer for this call:
        // the caller inspects `last_stop` and the session stays resumable.
        let trial_capped = solver.last_stop() == Some(sat::StopCause::BudgetExhausted)
            && spent.conflicts >= trial
            && !budget.minus(&spent).is_exhausted();
        if !trial_capped {
            solver.set_budget(budget);
            return result;
        }

        // The query is hard; simplification effort will pay for itself.
        self.run_simplify();
        if self.options.search.vivify {
            // Vivification as inprocessing: probe-strengthen the database
            // the pipeline just rebuilt, before committing to the full
            // solve. Strengthenings are logged as lemma/delete pairs, so a
            // proof-logging session stays certifiable.
            self.gates.solver_mut().vivify(Self::VIVIFY_PROPAGATIONS);
        }
        let solver = self.gates.solver_mut();
        // Charge the trial episode plus the simplification/vivification work
        // against the per-call budget, so the whole call — not each episode —
        // respects it. An already-exhausted remainder stops the full solve at
        // its first checkpoint with `StopCause::BudgetExhausted`.
        solver.set_budget(budget.minus(&solver.stats().delta_since(&stats_before)));
        let result = solver.solve_with_assumptions(assumptions);
        solver.set_budget(budget);
        result
    }

    /// Whether the problem-clause count has grown enough since the last
    /// simplification run to make another pass worthwhile (at least 512 new
    /// clauses and at least an eighth of the database).
    fn simplification_due(&self) -> bool {
        let clauses = self.gates.solver().num_clauses();
        let grown = clauses.saturating_sub(self.clauses_at_last_simplify);
        grown >= 512 && grown * 8 >= clauses
    }

    /// Runs the simplification pipeline, with the failed-literal probing
    /// budget capped in proportion to the database growth since the last
    /// pass (small frame extensions do not deserve a full probing sweep).
    fn run_simplify(&mut self) {
        let clauses = self.gates.solver().num_clauses();
        let grown = clauses.saturating_sub(self.clauses_at_last_simplify) as u64;
        let config = sat::SimplifyConfig {
            failed_literal_propagations: (grown * 25).clamp(20_000, 100_000),
            ..sat::SimplifyConfig::default()
        };
        self.gates.simplify(&config);
        self.clauses_at_last_simplify = self.gates.solver().num_clauses();
    }

    /// Sets the initial learned-clause budget of the underlying solver (see
    /// [`sat::Solver::set_learnt_budget`]); stress tests use a small budget
    /// to force frequent database reductions and arena collections.
    pub fn set_learnt_budget(&mut self, budget: usize) {
        self.gates.solver_mut().set_learnt_budget(budget);
    }

    /// Fraction of the solver's clause-literal arena occupied by tombstoned
    /// holes (see [`sat::Solver::arena_wasted_ratio`]).
    pub fn arena_wasted_ratio(&self) -> f64 {
        self.gates.solver().arena_wasted_ratio()
    }

    /// Exhaustive watch-list/reason invariant check of the underlying solver
    /// (see [`sat::Solver::debug_validate`]); used by the arena-GC test
    /// suites.
    pub fn debug_validate(&self) -> Result<(), String> {
        self.gates.solver().debug_validate()
    }

    /// Conflict statistics of the underlying solver.
    pub fn solver_stats(&self) -> sat::SolverStats {
        self.gates.solver().stats()
    }

    /// Counters of the CNF simplification pipeline (all zero when
    /// [`UnrollOptions::no_simplify`] disabled it).
    pub fn simplify_stats(&self) -> sat::SimplifyStats {
        self.gates.solver().simplify_stats()
    }

    /// The DRAT proof log accumulated so far, when
    /// [`UnrollOptions::proof_log`] is on. The log covers every clause of the
    /// unrolled frame CNF (as axioms) plus all derived clauses and deletions;
    /// snapshot it with `.clone()` to package an unsat certificate for a
    /// particular query.
    pub fn proof_log(&self) -> Option<&sat::ProofLog> {
        self.gates.solver().proof_log()
    }

    /// Propagation budget of the vivification pass run after each
    /// simplification (see [`UnrollOptions::search`]).
    const VIVIFY_PROPAGATIONS: u64 = 100_000;

    /// Maximum literal count of an exported learned clause.
    const SHARE_MAX_LEN: usize = 12;
    /// Maximum LBD of an exported learned clause (the quality gate).
    const SHARE_MAX_LBD: u32 = 5;

    /// Fingerprint of the *shareable theory* of this unrolling: the compiled
    /// schedule plus everything that changes what a `(frame, slot, bit)`
    /// term denotes (initial-value mode, frame-0 aliases). Two unrollings
    /// with equal fingerprints encode the same transition terms, so clauses
    /// exported by one are sound in the other. `None` in eager mode, which
    /// does not participate in sharing.
    pub fn share_fingerprint(&self) -> Option<u64> {
        let transition = match &self.backend {
            Backend::Compiled { transition, .. } => transition,
            Backend::Eager { .. } => return None,
        };
        // FNV-1a over a structural rendering of the schedule and options.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(format!("{:?}", transition.ops()).as_bytes());
        fold(&[self.options.use_initial_values as u8]);
        let mut aliases: Vec<(usize, usize)> = self
            .frame0_aliases
            .iter()
            .map(|(&register, source)| (register, source.index()))
            .collect();
        aliases.sort_unstable();
        fold(format!("{aliases:?}").as_bytes());
        Some(hash)
    }

    /// Builds the canonical-term maps of the encoded frames: variable →
    /// first `(frame, slot, bit)` position (with the representative
    /// polarity), and position → local literal. Positions pack into a `u64`
    /// as `frame << 40 | slot << 16 | bit`; iteration order is frame-major
    /// and deterministic, but the *choice* of representative never needs to
    /// match across sessions — a position always denotes the same term.
    fn canon_maps(&self) -> (HashMap<u32, (u64, bool)>, HashMap<u64, Lit>) {
        let frames = match &self.backend {
            Backend::Compiled { frames, .. } => frames,
            Backend::Eager { .. } => return (HashMap::new(), HashMap::new()),
        };
        let mut var_to_pos: HashMap<u32, (u64, bool)> = HashMap::new();
        let mut pos_to_lit: HashMap<u64, Lit> = HashMap::new();
        for (f, slots) in frames.iter().enumerate() {
            for (s, lits) in slots.iter().enumerate() {
                let Some(lits) = lits else { continue };
                for (bit, &l) in lits.iter().enumerate() {
                    let pos = (f as u64) << 40 | (s as u64) << 16 | bit as u64;
                    pos_to_lit.insert(pos, l);
                    var_to_pos
                        .entry(l.var().index() as u32)
                        .or_insert((pos, l.is_positive()));
                }
            }
        }
        (var_to_pos, pos_to_lit)
    }

    /// Drains every exportable learned clause into `sink`, rewritten over
    /// canonical term ids (see [`SharedClause`]). Clauses mentioning a
    /// variable with no canonical position — an internal Tseitin variable
    /// that survived elimination — cannot be expressed in another session
    /// and are skipped. No-op in eager mode.
    pub fn export_shared(&mut self, sink: &mut Vec<SharedClause>) {
        if matches!(self.backend, Backend::Eager { .. }) {
            return;
        }
        let (var_to_pos, _) = self.canon_maps();
        self.gates.solver_mut().drain_exportable(
            Self::SHARE_MAX_LEN,
            Self::SHARE_MAX_LBD,
            |lits, ceiling| {
                let mut canon = Vec::with_capacity(lits.len());
                for &l in lits {
                    let Some(&(pos, rep_positive)) = var_to_pos.get(&(l.var().index() as u32))
                    else {
                        return;
                    };
                    canon.push(pos << 1 | (l.is_positive() == rep_positive) as u64);
                }
                sink.push(SharedClause {
                    lits: canon,
                    ceiling,
                });
            },
        );
    }

    /// Imports clauses exported by another unrolling with the same
    /// [`Unrolling::share_fingerprint`]. A clause is attached only when
    /// every canonical position is already encoded here (the frame-tag
    /// filter falls out of this: positions of unbuilt frames are unknown)
    /// and the solver's freeze-contract check passes; everything else is
    /// skipped. Returns the number of clauses attached.
    ///
    /// # Panics
    ///
    /// Panics if called mid-search (imports happen between solves).
    pub fn import_shared(&mut self, clauses: &[SharedClause]) -> usize {
        if matches!(self.backend, Backend::Eager { .. }) {
            return 0;
        }
        let (_, pos_to_lit) = self.canon_maps();
        let mut imported = 0;
        let mut local = Vec::with_capacity(Self::SHARE_MAX_LEN);
        for clause in clauses {
            local.clear();
            let mut expressible = true;
            for &canon in &clause.lits {
                let Some(&rep) = pos_to_lit.get(&(canon >> 1)) else {
                    expressible = false;
                    break;
                };
                local.push(if canon & 1 == 1 { rep } else { !rep });
            }
            if expressible
                && self
                    .gates
                    .solver_mut()
                    .import_shared(&local, clause.ceiling)
            {
                imported += 1;
            }
        }
        imported
    }

    /// Reads the value of a signal in a frame from a model.
    ///
    /// # Errors
    ///
    /// Returns an error if the frame is not built, or — in compiled mode —
    /// [`UnrollError::NotEncoded`]/[`UnrollError::NotInSchedule`] when the
    /// signal never got literals (it was irrelevant to every query, so the
    /// model genuinely carries no value for it).
    pub fn value_in_model(
        &self,
        model: &Model,
        frame: usize,
        signal: SignalId,
    ) -> Result<BitVec, UnrollError> {
        let lits = self.peek_lits(frame, signal)?;
        let mut v = BitVec::zero(lits.len() as u32);
        for (i, &lit) in lits.iter().enumerate() {
            v = v.with_bit(i as u32, model.lit_is_true(lit));
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::SplitMix64;

    /// Builds a small combinational netlist exercising every operator, then
    /// cross-checks the bit-blasted encoding against the word-level
    /// simulator semantics for random inputs — in both encoding modes.
    #[test]
    fn bitblasting_matches_word_level_semantics() {
        let width = 6u32;
        let mut n = Netlist::new("ops");
        let a = n.input("a", width);
        let b = n.input("b", width);
        let shift_amount = n.input("sh", 3);
        let ops: Vec<(&str, SignalId)> = vec![
            ("and", n.and(a, b)),
            ("or", n.or(a, b)),
            ("xor", n.xor(a, b)),
            ("add", n.add(a, b)),
            ("sub", n.sub(a, b)),
            ("not", n.not(a)),
            ("neg", n.neg(a)),
            ("eq", n.eq(a, b)),
            ("ne", n.ne(a, b)),
            ("ult", n.ult(a, b)),
            ("ule", n.ule(a, b)),
            ("slt", n.slt(a, b)),
            ("shl", n.shl(a, shift_amount)),
            ("shr", n.shr(a, shift_amount)),
            ("redor", n.reduce_or(a)),
            ("redand", n.reduce_and(a)),
            ("redxor", n.reduce_xor(a)),
            ("slice", n.slice(a, 4, 2)),
            ("concat", n.concat(a, b)),
        ];
        let cond = n.bit(b, 0);
        let mux = n.mux(cond, a, b);
        let mut ops = ops;
        ops.push(("mux", mux));

        let mut rng = SplitMix64::new(7);
        for trial in 0..12 {
            let av = rng.gen_u64_below(1u64 << width);
            let bv = rng.gen_u64_below(1u64 << width);
            let sh = rng.gen_u64_below(8);

            // Reference: evaluate through the word-level BitVec semantics.
            let abv = BitVec::new(av, width);
            let bbv = BitVec::new(bv, width);
            let expected: Vec<(String, BitVec)> = ops
                .iter()
                .map(|(name, _)| {
                    let value = match *name {
                        "and" => abv.and(&bbv),
                        "or" => abv.or(&bbv),
                        "xor" => abv.xor(&bbv),
                        "add" => abv.add(&bbv),
                        "sub" => abv.sub(&bbv),
                        "not" => abv.not(),
                        "neg" => abv.neg(),
                        "eq" => abv.eq_bit(&bbv),
                        "ne" => abv.eq_bit(&bbv).not(),
                        "ult" => abv.ult(&bbv),
                        "ule" => abv.ule(&bbv),
                        "slt" => abv.slt(&bbv),
                        "shl" => abv.shl(sh.min(u64::from(width)) as u32),
                        "shr" => abv.shr(sh.min(u64::from(width)) as u32),
                        "redor" => abv.reduce_or(),
                        "redand" => abv.reduce_and(),
                        "redxor" => abv.reduce_xor(),
                        "slice" => abv.slice(4, 2),
                        "concat" => abv.concat(&bbv),
                        "mux" => {
                            if bbv.get_bit(0) {
                                abv
                            } else {
                                bbv
                            }
                        }
                        other => panic!("unknown op {other}"),
                    };
                    (name.to_string(), value)
                })
                .collect();

            // Alternate between the compiled and the eager strategy so both
            // encoders stay pinned to the same word-level semantics.
            let options = if trial % 2 == 0 {
                UnrollOptions::default()
            } else {
                UnrollOptions::default().eager()
            };
            let mut u = Unrolling::new(&n, options);
            u.assume_signal_equals_const(0, a, av).unwrap();
            u.assume_signal_equals_const(0, b, bv).unwrap();
            u.assume_signal_equals_const(0, shift_amount, sh).unwrap();
            // Materialize every observed operator before solving (the lazy
            // compiled mode only encodes what queries touch).
            for (_, signal) in &ops {
                u.lits(0, *signal).unwrap();
            }
            let result = u.solve(&[]);
            let model = result.model().expect("combinational cone is satisfiable");
            for ((name, signal), (ename, evalue)) in ops.iter().zip(&expected) {
                assert_eq!(name, ename);
                let got = u.value_in_model(model, 0, *signal).unwrap();
                assert_eq!(
                    got, *evalue,
                    "operator {name} disagrees for a={av:#x} b={bv:#x} sh={sh}"
                );
            }
        }
    }

    fn counter_netlist() -> (Netlist, rtl::RegisterHandle) {
        let mut n = Netlist::new("counter");
        let c = n.register_init("c", 4, BitVec::zero(4));
        let one = n.lit(1, 4);
        let next = n.add(c.value(), one);
        n.set_next(c, next);
        (n, c)
    }

    #[test]
    fn sequential_unrolling_from_reset_matches_counting() {
        let (n, c) = counter_netlist();
        let mut u = Unrolling::new(&n, UnrollOptions::from_reset_state());
        u.extend_to(5);
        assert_eq!(u.frame_count(), 6);
        // The counter value at frame 5 must be 5; asserting anything else is
        // unsatisfiable.
        u.assume_signal_equals_const(5, c.value(), 5).unwrap();
        assert!(u.solve(&[]).is_sat());
        u.assume_signal_equals_const(4, c.value(), 0).unwrap();
        assert!(u.solve(&[]).is_unsat());
    }

    #[test]
    fn symbolic_initial_state_allows_any_start() {
        let (n, c) = counter_netlist();
        let mut u = Unrolling::new(&n, UnrollOptions::symbolic_initial_state());
        u.extend_to(2);
        // From a symbolic initial state the counter can reach 9 at frame 2
        // (by starting at 7), which is impossible from reset.
        u.assume_signal_equals_const(2, c.value(), 9).unwrap();
        let result = u.solve(&[]);
        let model = result.model().expect("sat");
        let start = u.value_in_model(model, 0, c.value()).unwrap();
        assert_eq!(start.as_u64(), 7);
    }

    #[test]
    fn equality_lit_and_assumptions() {
        let mut n = Netlist::new("eq");
        let a = n.input("a", 4);
        let b = n.input("b", 4);
        n.output("a", a);
        let mut u = Unrolling::new(&n, UnrollOptions::default());
        let eq = u.equality_lit(0, a, b).unwrap();
        // Force inequality and equality through assumptions.
        assert!(u.solve(&[eq]).is_sat());
        assert!(u.solve(&[!eq]).is_sat());
        u.assume_signals_equal(0, a, b).unwrap();
        assert!(u.solve(&[!eq]).is_unsat());
    }

    #[test]
    fn errors_on_misuse() {
        let mut n = Netlist::new("err");
        let a = n.input("a", 4);
        let b = n.input("b", 2);
        n.output("a", a);
        let mut u = Unrolling::new(&n, UnrollOptions::default());
        assert!(matches!(u.bit_lit(0, a), Err(UnrollError::NotABit { .. })));
        assert!(matches!(
            u.assume_signals_equal(0, a, b),
            Err(UnrollError::WidthMismatch { .. })
        ));
        assert!(matches!(
            u.lits(3, a),
            Err(UnrollError::FrameOutOfRange { .. })
        ));
    }

    /// `p = a*b` and `q = b*a` built from shift-and-add multipliers: proving
    /// `p == q` takes real search, and the two multipliers encode to well
    /// over the 512 clauses that make a simplification pass due.
    fn multiplier_miter(width: u32) -> (Netlist, SignalId, SignalId) {
        let mut n = Netlist::new("mul_commutes");
        let a = n.input("a", width);
        let b = n.input("b", width);
        let mul = |n: &mut Netlist, x: SignalId, y: SignalId| {
            let zero = n.lit(0, width);
            let mut acc = zero;
            for i in 0..width {
                let amount = n.lit(u64::from(i), width);
                let shifted = n.shl(x, amount);
                let bit = n.bit(y, i);
                let term = n.mux(bit, shifted, zero);
                acc = n.add(acc, term);
            }
            acc
        };
        let p = mul(&mut n, a, b);
        let q = mul(&mut n, b, a);
        n.output("p", p);
        n.output("q", q);
        (n, p, q)
    }

    /// A caller budget below the trial cap stops the trial itself: the call
    /// answers `Unknown` with `BudgetExhausted`, never pays for the
    /// simplification pipeline, and the query resumes to its verdict.
    #[test]
    fn caller_budget_below_the_trial_cap_skips_simplification() {
        let (n, p, q) = multiplier_miter(6);
        let mut u = Unrolling::new(
            &n,
            UnrollOptions::default().with_budget(sat::Budget::conflicts(5)),
        );
        let equal = u.equality_lit(0, p, q).unwrap();
        assert!(
            u.simplification_due(),
            "the miter must be big enough to trigger a trial"
        );
        assert_eq!(u.solve(&[!equal]), SatResult::Unknown);
        assert_eq!(u.last_stop(), Some(sat::StopCause::BudgetExhausted));
        assert_eq!(u.simplify_stats(), sat::SimplifyStats::default());
        u.set_budget(sat::Budget::unlimited());
        assert!(u.solve(&[!equal]).is_unsat());
        assert_eq!(u.last_stop(), None);
    }

    /// A stop at the trial cap with budget left over runs the pipeline and
    /// goes on to decide the query: it is never reported as `Unknown`.
    #[test]
    fn trial_cap_stop_simplifies_and_decides() {
        let (n, p, q) = multiplier_miter(6);
        let mut u = Unrolling::new(&n, UnrollOptions::default().with_simplify_trial(0));
        let equal = u.equality_lit(0, p, q).unwrap();
        assert!(u.solve(&[!equal]).is_unsat());
        assert_eq!(u.last_stop(), None);
        assert_eq!(u.simplify_stats().rounds, 1);
        assert_eq!(u.solver_stats().budget_exhaustions, 1, "the trial-cap stop");
    }

    /// A design with provably dead logic: compiled encoding must produce a
    /// strictly smaller CNF than the eager baseline while agreeing on the
    /// verdict — the fast "CNF-size snapshot" acceptance check.
    #[test]
    fn compiled_cnf_is_a_strict_subset_of_eager() {
        let mut n = Netlist::new("partly_dead");
        let a = n.input("a", 8);
        let b = n.input("b", 8);
        let live = n.register("live", 8);
        let dead = n.register("dead", 8);
        let live_next = n.add(live.value(), a);
        let dead_next = {
            let sel = n.bit(b, 0);
            let m = n.mux(sel, dead.value(), b);
            n.sub(m, a)
        };
        n.set_next(live, live_next);
        n.set_next(dead, dead_next);
        // Duplicated subterm: encoded once by the compiler.
        let cmp1 = n.ult(live.value(), b);
        let cmp2 = n.ult(live.value(), b);
        n.output("cmp1", cmp1);
        n.output("cmp2", cmp2);

        let run = |options: UnrollOptions| -> (usize, usize, bool) {
            let mut u = Unrolling::new(&n, options);
            u.extend_to(2);
            u.assume_signal_true(2, cmp1).unwrap();
            u.assume_signal_true(2, cmp2).unwrap();
            let sat = u.solve(&[]).is_sat();
            (u.num_vars(), u.num_clauses(), sat)
        };
        let (eager_vars, eager_clauses, eager_sat) = run(UnrollOptions::default().eager());
        let (lazy_vars, lazy_clauses, lazy_sat) = run(UnrollOptions::default());
        assert_eq!(eager_sat, lazy_sat, "strategies must agree on the verdict");
        assert!(
            lazy_vars < eager_vars && lazy_clauses < eager_clauses,
            "compiled encoding must be strictly smaller: {lazy_vars}/{lazy_clauses} \
             vs eager {eager_vars}/{eager_clauses}"
        );
        // The dead register's cone is never encoded by the compiled path.
        let mut u = Unrolling::new(&n, UnrollOptions::default());
        u.extend_to(1);
        u.assume_signal_true(1, cmp1).unwrap();
        let stats = u.encode_stats();
        assert_eq!(stats.strategy, "compiled");
        assert!(stats.encoded_slots < 2 * stats.scheduled_slots);
    }

    /// The final frame of a compiled unrolling never encodes next-state
    /// logic (no deeper frame consumes it) — the "per frame" half of the
    /// cone-of-influence pruning.
    #[test]
    fn final_frame_skips_next_state_logic() {
        let (n, c) = counter_netlist();
        let mut eager = Unrolling::new(&n, UnrollOptions::default().eager());
        eager.extend_to(1);
        eager.assume_signal_equals_const(1, c.value(), 3).unwrap();
        let mut lazy = Unrolling::new(&n, UnrollOptions::default());
        lazy.extend_to(1);
        lazy.assume_signal_equals_const(1, c.value(), 3).unwrap();
        // Eager pays for the adder in both frames; lazy only in frame 0.
        assert!(lazy.num_vars() < eager.num_vars());
        assert!(lazy.encode_stats().encoded_slots < 2 * lazy.encode_stats().scheduled_slots);
    }

    /// Frame-0 register aliases work identically through the compiled path.
    #[test]
    fn compiled_frame0_aliases_share_literals() {
        let mut n = Netlist::new("aliased");
        let r1 = n.register("r1", 4);
        let r2 = n.register("r2", 4);
        let one = n.lit(1, 4);
        let n1 = n.add(r1.value(), one);
        let n2 = n.add(r2.value(), one);
        n.set_next(r1, n1);
        n.set_next(r2, n2);
        let differ = n.ne(r1.value(), r2.value());
        n.output("differ", differ);

        for options in [UnrollOptions::default(), UnrollOptions::default().eager()] {
            let mut u = Unrolling::with_frame0_aliases(&n, options, &[(r2.value(), r1.value())]);
            u.extend_to(1);
            // Registers start structurally equal and step identically, so
            // they can never differ at frame 1.
            u.assume_signal_true(1, differ).unwrap();
            assert!(u.solve(&[]).is_unsat());
        }
    }
}
