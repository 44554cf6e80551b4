//! Transition-relation unrolling with word-level bit-blasting.
//!
//! The netlist is first run through the [`CompiledTransition`] compiler —
//! cone-of-influence pruning, structural hashing, constant folding — and
//! each frame instantiates the resulting dense schedule *lazily*: a slot is
//! only Tseitin-encoded in a frame when a constraint, obligation or
//! extraction actually reaches it. The final frame of a bounded proof
//! therefore never pays for next-state logic, and logic outside the property
//! cone is never encoded at all.
//!
//! The reference for this encoding is the word-level simulator (`sim`),
//! which shares no code with the bit-blaster, the compiler or the CNF
//! simplifier: the workspace's cross-layer tests pin every distinct registry
//! miter to it, both as encoded and after simplification.

use crate::compile::{CompiledOp, CompiledTransition};
use crate::gates::GateBuilder;
use rtl::{BinaryOp, BitVec, SignalId, UnaryOp};
use sat::{Lit, Model, SatResult};
use std::collections::HashMap;
use std::sync::Arc;

/// Options controlling how an unrolling solves. Every register starts fully
/// *symbolic* in frame 0, the "any-state proof" setting of interval property
/// checking (IPC) and of every UPEC proof; there is no reset-state mode
/// (declared register initial values drive only the simulator). A caller
/// that needs a concrete start pins frame-0 registers with
/// [`Unrolling::assume_signal_equals_const`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrollOptions {
    /// Deterministic conflict budget for each [`Unrolling::solve`] call
    /// (see [`sat::Budget`]). The budget covers the whole call including the
    /// trial solve and the post-simplification full solve: the remainder is
    /// threaded through the pipeline, and an exhausted call answers
    /// [`SatResult::Unknown`] with [`sat::StopCause::BudgetExhausted`] while
    /// keeping the session resumable. Unlimited by default.
    pub budget: sat::Budget,
    /// Conflict budget of the *trial solve* that gates the CNF
    /// simplification pipeline: after a substantial database growth (e.g. a
    /// bound extension) the query is first attempted under this cap, and
    /// only queries that exhaust it pay for simplification and vivification
    /// (the trial's learned clauses are kept, so its effort is never
    /// wasted). Queries that finish inside the cap — small added frames,
    /// bounds the solver cruises through — skip the pipeline entirely.
    /// Lowering the value makes simplification more eager; `0` simplifies
    /// before any query that hits a single conflict, and `u64::MAX` is a
    /// cap no solve reaches, so the pipeline never runs.
    pub simplify_trial_conflicts: u64,
    /// When `true`, the underlying solver records a DRAT-style proof log
    /// from the first clause on (see [`sat::Solver::start_proof_log`]), so
    /// unsat answers can be packaged as independently checkable
    /// certificates. Off by default: logging costs memory proportional to
    /// the search.
    pub proof_log: bool,
}

impl Default for UnrollOptions {
    fn default() -> Self {
        Self {
            budget: sat::Budget::unlimited(),
            simplify_trial_conflicts: 4000,
            proof_log: false,
        }
    }
}

impl UnrollOptions {
    /// Sets the deterministic per-call resource budget (see
    /// [`UnrollOptions::budget`]).
    pub fn with_budget(mut self, budget: sat::Budget) -> Self {
        self.budget = budget;
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
/// use std::sync::Arc;
/// use rtl::Netlist;
/// use bmc::{CompiledTransition, UnrollOptions, Unrolling};
///
/// let mut n = Netlist::new("counter");
/// let c = n.register("c", 4);
/// let one = n.lit(1, 4);
/// let next = n.add(c.value(), one);
/// n.set_next(c, next);
///
/// let compiled = Arc::new(CompiledTransition::compile(&n, &[c.value()]));
/// let mut unrolling = Unrolling::with_compiled(compiled, UnrollOptions::default(), &[]);
/// unrolling.extend_to(3);
/// // Pin the start to 0: three cycles later the counter must hold 3.
/// unrolling.assume_signal_equals_const(0, c.value(), 0).unwrap();
/// let c3 = unrolling.lits(3, c.value()).unwrap();
/// assert!(unrolling.solve(&[c3[0], c3[1]]).is_sat());
/// assert!(unrolling.solve(&[!c3[0]]).is_unsat());
/// ```
#[derive(Debug)]
pub struct Unrolling {
    gates: GateBuilder,
    options: UnrollOptions,
    /// The compiled schedule every frame instantiates.
    transition: Arc<CompiledTransition>,
    /// Slot literals per frame, `frames[t][slot]`; `None` until a query
    /// reaches the slot in that frame.
    frames: Vec<Vec<Option<Vec<Lit>>>>,
    /// Register slots whose frame-0 value shares the literals of another
    /// register slot (used by miter-style proofs to state "these start
    /// equal" structurally instead of through equality clauses): register
    /// slot → source slot.
    frame0_aliases: HashMap<u32, u32>,
    /// Total slot instances encoded across all frames.
    encoded_slots: usize,
    /// Problem-clause count at the end of the last simplification run, used
    /// to decide when the database has grown enough to be worth another
    /// pass.
    clauses_at_last_simplify: usize,
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

impl Unrolling {
    /// Creates an unrolling with frame 0 built over a pre-compiled
    /// transition relation (compile once, clone per frame — and per
    /// session) in which, for every `(register, source)` pair in `aliases`,
    /// the frame-0 value of `register` reuses the literals of `source` (both
    /// must be register-value signals of equal width, `source` declared
    /// first). A pair whose register lies outside the compiled cone is
    /// ignored.
    ///
    /// An alias expresses "these two registers start out equal"
    /// *structurally*, which — combined with the gate-level structural
    /// hashing — lets the two halves of a miter collapse onto shared
    /// variables wherever they have not yet diverged. The UPEC checks use it
    /// for the `micro_soc_state1 = micro_soc_state2` assumption of the
    /// paper's Fig. 4.
    ///
    /// # Panics
    ///
    /// Panics if an in-cone alias pair has a source outside the cone,
    /// refers to non-register signals, has mismatched widths, or names a
    /// source declared after its register.
    pub fn with_compiled(
        transition: Arc<CompiledTransition>,
        options: UnrollOptions,
        aliases: &[(SignalId, SignalId)],
    ) -> Self {
        let register_width = |slot: u32| match transition.ops()[slot as usize] {
            CompiledOp::Register { width, .. } => width,
            _ => panic!("frame-0 aliases must pair register signals"),
        };
        let mut frame0_aliases = HashMap::new();
        for &(register, source) in aliases {
            let Some(register_slot) = transition.slot_of(register) else {
                continue;
            };
            let source_slot = transition
                .slot_of(source)
                .expect("the alias source of an in-cone register is scheduled");
            assert_eq!(
                register_width(register_slot),
                register_width(source_slot),
                "frame-0 alias width mismatch"
            );
            assert!(
                source_slot < register_slot,
                "the alias source must be created before the aliased register"
            );
            frame0_aliases.insert(register_slot, source_slot);
        }
        let mut gates = GateBuilder::new();
        if options.proof_log {
            // Logging starts before any frame is encoded, so the axiom set of
            // the certificate is exactly the frame CNF (plus the builder's
            // constant-true unit).
            gates.solver_mut().start_proof_log();
        }
        let mut unrolling = Self {
            gates,
            options,
            transition,
            frames: Vec::new(),
            frame0_aliases,
            encoded_slots: 0,
            clauses_at_last_simplify: 0,
        };
        unrolling.extend_to(0);
        unrolling
    }

    /// Slot instances Tseitin-encoded so far, summed over all frames (at
    /// most [`CompiledTransition::len`] per frame).
    pub fn encoded_slots(&self) -> usize {
        self.encoded_slots
    }

    /// The underlying solver, read-only: its size
    /// ([`sat::Solver::num_vars`], [`sat::Solver::num_clauses`]), counters
    /// ([`sat::Solver::stats`], [`sat::Solver::simplify_stats`]), last stop
    /// cause ([`sat::Solver::last_stop`]) and, with
    /// [`UnrollOptions::proof_log`], the DRAT proof log
    /// ([`sat::Solver::proof_log`]) that an unsat certificate is trimmed
    /// from. Clauses, budgets and cancellation go through the unrolling,
    /// which keeps the gate encoder's structural hash consistent with the
    /// CNF.
    pub fn solver(&self) -> &sat::Solver {
        self.gates.solver()
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
    /// A new frame is merely *declared* here; its slots are bit-blasted on
    /// demand when queries reach them.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use rtl::Netlist;
    /// use bmc::{CompiledTransition, UnrollOptions, Unrolling};
    ///
    /// let mut n = Netlist::new("counter");
    /// let c = n.register("c", 8);
    /// let one = n.lit(1, 8);
    /// let next = n.add(c.value(), one);
    /// n.set_next(c, next);
    ///
    /// let compiled = Arc::new(CompiledTransition::compile(&n, &[c.value()]));
    /// let mut u = Unrolling::with_compiled(compiled, UnrollOptions::default(), &[]);
    /// u.assume_signal_equals_const(0, c.value(), 0).unwrap();
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
        let slots = self.transition.len();
        while self.frames.len() <= k {
            self.frames.push(vec![None; slots]);
        }
    }

    // ------------------------------------------------------------------
    // Lazy slot encoding
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
                let lits = self.encode_slot(f, s);
                // Slot literals outlive this encoding step: deeper frames
                // read them through register feedback, later queries reach
                // them as dependencies, and model extraction reads them
                // after a solve. They must survive CNF simplification.
                for &l in &lits {
                    self.gates.freeze(l);
                }
                self.frames[f][s as usize] = Some(lits);
                self.encoded_slots += 1;
                stack.pop();
            }
        }
    }

    fn slot_lits(&self, frame: usize, slot: u32) -> Option<&[Lit]> {
        self.frames[frame][slot as usize].as_deref()
    }

    /// The `(frame, slot)` pairs that must be encoded before this one.
    fn slot_deps(&self, frame: usize, slot: u32) -> Vec<(usize, u32)> {
        let transition = &self.transition;
        match &transition.ops()[slot as usize] {
            CompiledOp::Input { .. } | CompiledOp::Const(_) => Vec::new(),
            CompiledOp::Register { register, .. } => {
                if frame == 0 {
                    self.frame0_aliases
                        .get(&slot)
                        .map_or_else(Vec::new, |&source| vec![(0, source)])
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
        let transition = Arc::clone(&self.transition);
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
                    match self.frame0_aliases.get(&slot) {
                        Some(&source) => word(self, 0, source),
                        None => self.fresh_word(*width),
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
        if frame >= self.frames.len() {
            Err(UnrollError::FrameOutOfRange {
                frame,
                built: self.frames.len(),
            })
        } else {
            Ok(())
        }
    }

    /// Literals of a signal in a frame (LSB first), bit-blasting the signal's
    /// transitive support on first access.
    ///
    /// # Errors
    ///
    /// Returns [`UnrollError::FrameOutOfRange`] if the frame is not built, or
    /// [`UnrollError::NotInSchedule`] if the signal was pruned by a rooted
    /// compilation.
    pub fn lits(&mut self, frame: usize, signal: SignalId) -> Result<Vec<Lit>, UnrollError> {
        self.check_frame(frame)?;
        let slot = self
            .transition
            .slot_of(signal)
            .ok_or(UnrollError::NotInSchedule { signal })?;
        self.ensure_slot(frame, slot);
        Ok(self.slot_lits(frame, slot).expect("just encoded").to_vec())
    }

    /// Literals of a signal in a frame, **without** encoding anything:
    /// read-only companion of [`Unrolling::lits`] for use after a solve.
    fn peek_lits(&self, frame: usize, signal: SignalId) -> Result<Vec<Lit>, UnrollError> {
        self.check_frame(frame)?;
        let slot = self
            .transition
            .slot_of(signal)
            .ok_or(UnrollError::NotInSchedule { signal })?;
        self.frames[frame][slot as usize]
            .clone()
            .ok_or(UnrollError::NotEncoded { signal, frame })
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

    /// Installs (or removes) a cooperative [`sat::CancelToken`] on the
    /// underlying solver; raising it makes an in-flight
    /// [`Unrolling::solve`] return [`SatResult::Unknown`] at the next
    /// restart boundary, with [`sat::Solver::last_stop`] reporting
    /// [`sat::StopCause::Cancelled`].
    pub fn set_cancel_token(&mut self, token: Option<sat::CancelToken>) {
        self.gates.solver_mut().set_cancel_token(token);
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
    /// The incremental-safe CNF simplification pipeline is triggered
    /// *adaptively*: after a substantial database growth (at least 512 new
    /// problem clauses and an eighth of the database — in practice, a bound
    /// extension) the query is first attempted under the call's budget
    /// capped at [`UnrollOptions::simplify_trial_conflicts`] conflicts.
    /// Queries that finish inside the cap never pay for the pipeline;
    /// queries that exhaust it are simplified (with the probing budget
    /// scaled to the growth), vivified and then solved under what is left of
    /// the budget — keeping every clause the trial learned.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SatResult {
        let budget = self.options.budget;
        self.gates.solver_mut().set_budget(budget);
        if !self.simplification_due() {
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
        // Vivification as inprocessing: probe-strengthen the database the
        // pipeline just rebuilt, before committing to the full solve.
        // Strengthenings are logged as lemma/delete pairs, so a
        // proof-logging session stays certifiable.
        self.gates.solver_mut().vivify(Self::VIVIFY_PROPAGATIONS);
        let solver = self.gates.solver_mut();
        // Charge the trial episode's conflicts against the per-call budget,
        // so the whole call — not each episode — respects it (simplification
        // and vivification spend no conflicts).
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
        self.gates.simplify((grown * 25).clamp(20_000, 100_000));
        self.clauses_at_last_simplify = self.gates.solver().num_clauses();
    }

    /// Sets the initial learned-clause budget of the underlying solver (see
    /// [`sat::Solver::set_learnt_budget`]); stress tests use a small budget
    /// to force frequent database reductions and arena collections.
    pub fn set_learnt_budget(&mut self, budget: usize) {
        self.gates.solver_mut().set_learnt_budget(budget);
    }

    /// Propagation budget of the vivification pass run after each
    /// simplification.
    const VIVIFY_PROPAGATIONS: u64 = 100_000;

    /// Reads the value of a signal in a frame from a model.
    ///
    /// # Errors
    ///
    /// Returns an error if the frame is not built, or
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
    use rtl::{Netlist, SplitMix64};

    /// An unrolling that schedules every signal of `n`, so what stays
    /// unencoded is left out by the lazy encoding alone.
    fn unroll(n: &Netlist, options: UnrollOptions) -> Unrolling {
        let roots: Vec<SignalId> = n.signals().collect();
        let compiled = Arc::new(CompiledTransition::compile(n, &roots));
        Unrolling::with_compiled(compiled, options, &[])
    }

    /// Builds a small combinational netlist exercising every operator, then
    /// cross-checks the bit-blasted encoding against the word-level
    /// simulator semantics for random inputs.
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
        for _ in 0..12 {
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

            let mut u = unroll(&n, UnrollOptions::default());
            u.assume_signal_equals_const(0, a, av).unwrap();
            u.assume_signal_equals_const(0, b, bv).unwrap();
            u.assume_signal_equals_const(0, shift_amount, sh).unwrap();
            // Materialize every observed operator before solving (the lazy
            // encoding only encodes what queries touch).
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
        let c = n.register("c", 4);
        let one = n.lit(1, 4);
        let next = n.add(c.value(), one);
        n.set_next(c, next);
        (n, c)
    }

    #[test]
    fn sequential_unrolling_from_reset_matches_counting() {
        let (n, c) = counter_netlist();
        let mut u = unroll(&n, UnrollOptions::default());
        u.extend_to(5);
        assert_eq!(u.frames.len(), 6);
        u.assume_signal_equals_const(0, c.value(), 0).unwrap();
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
        let mut u = unroll(&n, UnrollOptions::default());
        u.extend_to(2);
        // From a symbolic initial state the counter can reach 9 at frame 2
        // (by starting at 7), which is impossible from 0.
        u.assume_signal_equals_const(2, c.value(), 9).unwrap();
        let result = u.solve(&[]);
        let model = result.model().expect("sat");
        let start = u.value_in_model(model, 0, c.value()).unwrap();
        assert_eq!(start.as_u64(), 7);
    }

    #[test]
    fn equality_signal_and_assumptions() {
        let mut n = Netlist::new("eq");
        let a = n.input("a", 4);
        let b = n.input("b", 4);
        let equal = n.eq(a, b);
        let mut u = unroll(&n, UnrollOptions::default());
        let eq = u.bit_lit(0, equal).unwrap();
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
        let mut u = unroll(&n, UnrollOptions::default());
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

    /// `p = a*b` and `q = b*a` built from shift-and-add multipliers, and the
    /// signal `p == q`: proving it takes real search, and the two
    /// multipliers encode to well over the 512 clauses that make a
    /// simplification pass due.
    fn multiplier_miter(width: u32) -> (Netlist, SignalId) {
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
        let equal = n.eq(p, q);
        (n, equal)
    }

    /// A caller budget below the trial cap stops the trial itself: the call
    /// answers `Unknown` with `BudgetExhausted`, never pays for the
    /// simplification pipeline, and the query resumes to its verdict.
    #[test]
    fn caller_budget_below_the_trial_cap_skips_simplification() {
        let (n, equal) = multiplier_miter(6);
        let mut u = unroll(
            &n,
            UnrollOptions::default().with_budget(sat::Budget::conflicts(5)),
        );
        let equal = u.bit_lit(0, equal).unwrap();
        assert!(
            u.simplification_due(),
            "the miter must be big enough to trigger a trial"
        );
        assert_eq!(u.solve(&[!equal]), SatResult::Unknown);
        assert_eq!(
            u.solver().last_stop(),
            Some(sat::StopCause::BudgetExhausted)
        );
        assert_eq!(u.solver().simplify_stats(), sat::SimplifyStats::default());
        u.set_budget(sat::Budget::unlimited());
        assert!(u.solve(&[!equal]).is_unsat());
        assert_eq!(u.solver().last_stop(), None);
    }

    /// A stop at the trial cap with budget left over runs the pipeline and
    /// goes on to decide the query: it is never reported as `Unknown`.
    #[test]
    fn trial_cap_stop_simplifies_and_decides() {
        let (n, equal) = multiplier_miter(6);
        let mut u = unroll(&n, UnrollOptions::default().with_simplify_trial(0));
        let equal = u.bit_lit(0, equal).unwrap();
        assert!(u.solve(&[!equal]).is_unsat());
        assert_eq!(u.solver().last_stop(), None);
        assert_eq!(u.solver().simplify_stats().rounds, 1);
    }

    /// A design with provably dead logic and a duplicated subterm: the
    /// compiler encodes the duplicate once, and the lazy encoding never
    /// reaches the dead register's cone — the fast "CNF-size snapshot"
    /// acceptance check.
    #[test]
    fn dead_logic_is_never_encoded() {
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
        let cmp1 = n.ult(live.value(), b);
        let cmp2 = n.ult(live.value(), b);

        let mut u = unroll(&n, UnrollOptions::default());
        u.extend_to(2);
        u.assume_signal_true(2, cmp1).unwrap();
        u.assume_signal_true(2, cmp2).unwrap();
        assert_eq!(u.lits(2, cmp1).unwrap(), u.lits(2, cmp2).unwrap());
        let result = u.solve(&[]);
        let model = result.model().expect("live < b is reachable");
        for frame in 0..=2 {
            for signal in [dead.value(), dead_next] {
                assert_eq!(
                    u.value_in_model(model, frame, signal),
                    Err(UnrollError::NotEncoded { signal, frame })
                );
            }
        }
        // cmp, live and b in frame 2; live_next, live and a in frames 1
        // and 0 — nine of the 3 x 9 scheduled slot instances.
        assert_eq!((u.transition.len(), u.encoded_slots()), (9, 9));
    }

    /// The final frame of an unrolling never encodes next-state logic (no
    /// deeper frame consumes it) — the "per frame" half of the
    /// cone-of-influence pruning.
    #[test]
    fn final_frame_skips_next_state_logic() {
        let (n, c) = counter_netlist();
        let next = n.registers()[0].next.expect("counter has a next-state");
        let mut u = unroll(&n, UnrollOptions::default());
        u.extend_to(1);
        u.assume_signal_equals_const(1, c.value(), 3).unwrap();
        let result = u.solve(&[]);
        let model = result.model().expect("the counter reaches 3");
        assert_eq!(u.value_in_model(model, 0, next).unwrap().as_u64(), 3);
        assert_eq!(
            u.value_in_model(model, 1, next),
            Err(UnrollError::NotEncoded {
                signal: next,
                frame: 1
            })
        );
        // c in frame 1; the adder, c and the constant in frame 0.
        assert_eq!(u.encoded_slots(), 4);
    }

    /// Frame-0 register aliases make two registers start on shared literals.
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

        let mut u = Unrolling::with_compiled(
            Arc::new(CompiledTransition::compile(&n, &[differ])),
            UnrollOptions::default(),
            &[(r2.value(), r1.value())],
        );
        u.extend_to(1);
        // Registers start structurally equal and step identically, so they
        // can never differ at frame 1.
        u.assume_signal_true(1, differ).unwrap();
        assert!(u.solve(&[]).is_unsat());
    }

    /// Two registers fed by one input: only `r1` is in the cone of its root.
    fn input_fed_pair() -> (Arc<CompiledTransition>, SignalId, SignalId, SignalId) {
        let mut n = Netlist::new("aliased");
        let a = n.input("a", 4);
        let r1 = n.register("r1", 4);
        let r2 = n.register("r2", 4);
        n.set_next(r1, a);
        n.set_next(r2, a);
        let compiled = Arc::new(CompiledTransition::compile(&n, &[r1.value()]));
        (compiled, a, r1.value(), r2.value())
    }

    /// An alias whose register lies outside the cone is dropped.
    #[test]
    fn frame0_aliases_outside_the_cone_are_ignored() {
        let (compiled, _, r1, r2) = input_fed_pair();
        let u = Unrolling::with_compiled(compiled, UnrollOptions::default(), &[(r2, r1)]);
        assert!(u.frame0_aliases.is_empty());
    }

    #[test]
    #[should_panic(expected = "frame-0 aliases must pair register signals")]
    fn frame0_aliases_must_pair_registers() {
        let (compiled, a, r1, _) = input_fed_pair();
        Unrolling::with_compiled(compiled, UnrollOptions::default(), &[(r1, a)]);
    }
}
