//! The transition-relation compiler: cone-of-influence pruning, word-level
//! structural hashing and constant folding, performed **once** per netlist.
//!
//! The seed implementation re-walked the whole [`rtl::Netlist`] — string
//! names, `enum` matching and all — for every time frame of every unrolling.
//! This module separates that work into two phases:
//!
//! 1. **Compile** ([`CompiledTransition::compile`]): one pass over the
//!    netlist produces a dense, topologically ordered *schedule* of
//!    `CompiledOp`s. During the pass the compiler
//!    * drops every node outside the cone of influence of the declared roots
//!      (property signals, constraints, miter outputs): the smallest set of
//!      signals closed under operands and under every in-cone register's
//!      next-state expression, so nothing outside it can reach a root in
//!      any number of cycles,
//!    * **constant-folds** nodes whose operands are known at compile time,
//!      together with cheap word-level identities (`x ^ x = 0`,
//!      `mux(c, a, a) = a`, `eq(x, x) = 1`, …), and
//!    * **hash-conses** structurally identical nodes (same operator, same
//!      operand slots) onto one slot, so duplicated subterms — ubiquitous in
//!      a two-instance UPEC miter — are encoded once per frame.
//!
//!    Each in-cone node becomes a `CompiledOp` over its operand slots, which
//!    is also its hash key: one fold step reduces it to a constant or an
//!    existing slot, and one intern step looks up or appends what is left.
//! 2. **Clone per frame**: each time frame of an unrolling instantiates the
//!    schedule with fresh literals. The per-frame work is a tight loop over
//!    integer-indexed ops — no netlist traversal, no hashing, no strings.
//!
//! On top of the static schedule, [`crate::Unrolling`] encodes frames
//! *lazily*: a slot is only Tseitin-encoded in a frame when a query
//! (constraint, obligation, model extraction) actually reaches it, which
//! implements the "per property and per frame" part of COI pruning — the
//! final frame of a bounded proof never pays for next-state logic that no
//! deeper frame consumes.

use rtl::{BinaryOp, BitVec, Netlist, Node, RegisterId, SignalId, UnaryOp};
use std::collections::HashMap;

/// A scheduled operation. Operands are dense *slot* indices into the
/// schedule, not netlist signal ids; every operand slot precedes its user.
/// An op is also its own structural-hashing key (see `Builder::intern`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CompiledOp {
    /// Free primary input: fresh literals in every frame.
    Input {
        /// Bit width.
        width: u32,
    },
    /// Compile-time constant (folded nodes land here too).
    Const(BitVec),
    /// Current-state value of a register. Frame 0 is symbolic or aliased;
    /// frame `t+1` clones the literals of the register's next-state
    /// slot in frame `t`.
    Register {
        /// Register table index.
        register: RegisterId,
        /// Bit width.
        width: u32,
    },
    /// Unary operator over one slot.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand slot.
        a: u32,
    },
    /// Binary operator over two slots.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand slot.
        a: u32,
        /// Right operand slot.
        b: u32,
    },
    /// Two-way multiplexer.
    Mux {
        /// Single-bit select slot.
        cond: u32,
        /// Slot selected when `cond` is one.
        then_: u32,
        /// Slot selected when `cond` is zero.
        else_: u32,
    },
    /// Bit-field extraction.
    Slice {
        /// Operand slot.
        a: u32,
        /// Most-significant extracted bit.
        hi: u32,
        /// Least-significant extracted bit.
        lo: u32,
    },
    /// Concatenation (`hi` supplies the most-significant bits).
    Concat {
        /// Most-significant operand slot.
        hi: u32,
        /// Least-significant operand slot.
        lo: u32,
    },
}

/// A netlist compiled into a dense transition-relation schedule.
///
/// The compiled form is immutable and self-contained (it holds no borrow of
/// the netlist), so one compilation can be shared — via `Arc` — by every
/// unrolling and session that proves properties of the same design.
///
/// # Examples
///
/// ```
/// use rtl::Netlist;
/// use bmc::CompiledTransition;
///
/// let mut n = Netlist::new("cnt");
/// let c = n.register("c", 4);
/// let one = n.lit(1, 4);
/// let next = n.add(c.value(), one);
/// n.set_next(c, next);
/// // The same expression built twice: structural hashing folds it away.
/// let dup = n.add(c.value(), one);
///
/// let ct = CompiledTransition::compile(&n, &[c.value(), dup]);
/// assert_eq!(ct.slot_of(next), ct.slot_of(dup));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledTransition {
    ops: Vec<CompiledOp>,
    /// Signal index → slot (`None` when pruned by COI).
    slot_of: Vec<Option<u32>>,
    /// Register index → slot of its next-state expression (`None` when the
    /// register is outside the cone or has no next-state attached).
    reg_next_slot: Vec<Option<u32>>,
}

impl CompiledTransition {
    /// Compiles the cone of influence of `roots`.
    ///
    /// Queries against slots outside the cone fail with
    /// [`crate::UnrollError::NotInSchedule`]; declare every signal a proof
    /// may constrain, commit to or extract.
    ///
    /// # Panics
    ///
    /// Panics if the netlist fails [`Netlist::validate`].
    pub fn compile(netlist: &Netlist, roots: &[SignalId]) -> Self {
        let mut span = obs::span("bmc.compile");
        netlist
            .validate()
            .expect("netlist must be valid before compilation");
        let in_cone = cone_of_influence(netlist, roots);

        let mut schedule = Builder::default();
        let mut slot_of: Vec<Option<u32>> = vec![None; netlist.len()];
        let mut hashed_signals = 0usize;
        let mut folded_signals = 0usize;
        let mut pruned_signals = 0usize;
        for id in netlist.signals() {
            if !in_cone[id.index()] {
                pruned_signals += 1;
                continue;
            }
            // Operand slots exist: the cone is closed under operands and the
            // netlist is topologically ordered.
            let slot =
                |sig: SignalId| slot_of[sig.index()].expect("operand slot scheduled before use");
            let node = netlist.node(id);
            let op = match *node {
                Node::Input { width, .. } => CompiledOp::Input { width },
                Node::Const(v) => CompiledOp::Const(v),
                Node::Register {
                    register, width, ..
                } => CompiledOp::Register { register, width },
                Node::Unary { op, a, .. } => CompiledOp::Unary { op, a: slot(a) },
                Node::Binary { op, a, b, .. } => {
                    let (a, b) = (slot(a), slot(b));
                    let (a, b) = if op.is_commutative() && a > b {
                        (b, a)
                    } else {
                        (a, b)
                    };
                    CompiledOp::Binary { op, a, b }
                }
                Node::Mux {
                    cond, then_, else_, ..
                } => CompiledOp::Mux {
                    cond: slot(cond),
                    then_: slot(then_),
                    else_: slot(else_),
                },
                Node::Slice { a, hi, lo } => CompiledOp::Slice { a: slot(a), hi, lo },
                Node::Concat { hi, lo, .. } => CompiledOp::Concat {
                    hi: slot(hi),
                    lo: slot(lo),
                },
            };
            let width = node.width();
            slot_of[id.index()] = Some(match schedule.fold(op, width) {
                Some(folded) => {
                    // A folded constant that lands on an existing slot
                    // counts as folded, not hashed.
                    folded_signals += 1;
                    match folded {
                        FoldResult::Value(v) => schedule.intern(CompiledOp::Const(v), v.width()).0,
                        FoldResult::Alias(s) => s,
                    }
                }
                None => {
                    let (s, hit) = schedule.intern(op, width);
                    hashed_signals += usize::from(hit);
                    s
                }
            });
        }

        let mut reg_next_slot = vec![None; netlist.register_count()];
        for (index, info) in netlist.registers().iter().enumerate() {
            if slot_of[info.signal.index()].is_some() {
                // The cone closure pulled in the next-state expression of
                // every in-cone register, so its slot exists.
                reg_next_slot[index] = info.next.map(|n| {
                    slot_of[n.index()].expect("next-state of an in-cone register is scheduled")
                });
            }
        }

        span.attr_u64("netlist_signals", netlist.len() as u64);
        span.attr_u64("scheduled_slots", schedule.ops.len() as u64);
        span.attr_u64("pruned_signals", pruned_signals as u64);
        span.attr_u64("hashed_signals", hashed_signals as u64);
        span.attr_u64("folded_signals", folded_signals as u64);
        Self {
            ops: schedule.ops,
            slot_of,
            reg_next_slot,
        }
    }

    /// The scheduled operations, in dependency order.
    pub(crate) fn ops(&self) -> &[CompiledOp] {
        &self.ops
    }

    /// Number of slots in the schedule.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The slot a netlist signal was compiled to, or `None` when the signal
    /// lies outside the cone of influence of the compiled roots.
    pub fn slot_of(&self, signal: SignalId) -> Option<u32> {
        self.slot_of[signal.index()]
    }

    /// Slot of a register's next-state expression.
    pub(crate) fn next_slot(&self, register: RegisterId) -> Option<u32> {
        self.reg_next_slot[register.index()]
    }
}

/// The cone of influence of `roots` as a per-signal membership mask: the
/// closure under combinational operands that also follows every in-cone
/// register to its next-state expression. Signals that never reach a root,
/// including whole registers and their feedback logic, stay outside.
fn cone_of_influence(netlist: &Netlist, roots: &[SignalId]) -> Vec<bool> {
    let mut in_cone = vec![false; netlist.len()];
    let mut stack: Vec<SignalId> = Vec::new();
    let mut visit = |id: SignalId, stack: &mut Vec<SignalId>| {
        if !in_cone[id.index()] {
            in_cone[id.index()] = true;
            stack.push(id);
        }
    };
    for &root in roots {
        visit(root, &mut stack);
    }
    while let Some(id) = stack.pop() {
        let node = netlist.node(id);
        for operand in node.operands() {
            visit(operand, &mut stack);
        }
        if let Node::Register { register, .. } = node {
            if let Some(next) = netlist.registers()[register.index()].next {
                visit(next, &mut stack);
            }
        }
    }
    in_cone
}

/// The schedule under construction. Every slot enters through
/// `Builder::intern`, the one structural-hashing step.
#[derive(Default)]
struct Builder {
    ops: Vec<CompiledOp>,
    /// Bit width of each slot.
    widths: Vec<u32>,
    /// Defining op → its slot.
    structural: HashMap<CompiledOp, u32>,
}

/// What `Builder::fold` reduces an op to.
enum FoldResult {
    /// The node is a compile-time constant.
    Value(BitVec),
    /// The node is identical to an existing slot.
    Alias(u32),
}

impl Builder {
    /// The slot of `op`, `width` bits wide, and whether an equal op already
    /// had it. Inputs and registers carry state: they never merge.
    fn intern(&mut self, op: CompiledOp, width: u32) -> (u32, bool) {
        let merges = !matches!(op, CompiledOp::Input { .. } | CompiledOp::Register { .. });
        if merges {
            if let Some(&slot) = self.structural.get(&op) {
                return (slot, true);
            }
        }
        let slot = u32::try_from(self.ops.len()).expect("schedule exceeds u32 slots");
        self.ops.push(op);
        self.widths.push(width);
        if merges {
            self.structural.insert(op, slot);
        }
        (slot, false)
    }

    /// Reduces an op over scheduled slots, `width` bits wide, to a constant
    /// or an existing slot when its operands decide it at compile time:
    /// closed terms, `op(x, x)` identities, a constant mux select or equal
    /// mux arms, and the full-width slice.
    fn fold(&self, op: CompiledOp, width: u32) -> Option<FoldResult> {
        let constant = |slot: u32| match self.ops[slot as usize] {
            CompiledOp::Const(v) => Some(v),
            _ => None,
        };
        match op {
            CompiledOp::Input { .. } | CompiledOp::Const(_) | CompiledOp::Register { .. } => None,
            CompiledOp::Unary { op, a } => {
                constant(a).map(|a| FoldResult::Value(eval_unary(op, &a)))
            }
            CompiledOp::Binary { op, a, b } => match (constant(a), constant(b)) {
                (Some(av), Some(bv)) => Some(FoldResult::Value(eval_binary(op, &av, &bv))),
                _ if a == b => fold_same_operand(op, a, width),
                _ => None,
            },
            CompiledOp::Mux { cond, then_, else_ } => match constant(cond) {
                Some(c) => Some(FoldResult::Alias(if c.is_true() { then_ } else { else_ })),
                None => (then_ == else_).then_some(FoldResult::Alias(then_)),
            },
            CompiledOp::Slice { a, hi, lo } => match constant(a) {
                Some(av) => Some(FoldResult::Value(av.slice(hi, lo))),
                None => {
                    (lo == 0 && hi + 1 == self.widths[a as usize]).then_some(FoldResult::Alias(a))
                }
            },
            CompiledOp::Concat { hi, lo } => match (constant(hi), constant(lo)) {
                (Some(hv), Some(lv)) => Some(FoldResult::Value(hv.concat(&lv))),
                _ => None,
            },
        }
    }
}

/// Identities for `op(x, x)`.
fn fold_same_operand(op: BinaryOp, a: u32, width: u32) -> Option<FoldResult> {
    match op {
        BinaryOp::And | BinaryOp::Or => Some(FoldResult::Alias(a)),
        BinaryOp::Xor | BinaryOp::Sub => Some(FoldResult::Value(BitVec::zero(width))),
        BinaryOp::Eq | BinaryOp::Ule => Some(FoldResult::Value(BitVec::bit(true))),
        BinaryOp::Ne | BinaryOp::Ult | BinaryOp::Slt => Some(FoldResult::Value(BitVec::bit(false))),
        BinaryOp::Add | BinaryOp::Shl | BinaryOp::Shr => None,
    }
}

/// Word-level evaluation of a unary operator (the simulator's semantics).
fn eval_unary(op: UnaryOp, a: &BitVec) -> BitVec {
    match op {
        UnaryOp::Not => a.not(),
        UnaryOp::Neg => a.neg(),
        UnaryOp::ReduceOr => a.reduce_or(),
        UnaryOp::ReduceAnd => a.reduce_and(),
        UnaryOp::ReduceXor => a.reduce_xor(),
    }
}

/// Word-level evaluation of a binary operator (the simulator's semantics).
fn eval_binary(op: BinaryOp, a: &BitVec, b: &BitVec) -> BitVec {
    match op {
        BinaryOp::And => a.and(b),
        BinaryOp::Or => a.or(b),
        BinaryOp::Xor => a.xor(b),
        BinaryOp::Add => a.add(b),
        BinaryOp::Sub => a.sub(b),
        BinaryOp::Eq => a.eq_bit(b),
        BinaryOp::Ne => a.eq_bit(b).not(),
        BinaryOp::Ult => a.ult(b),
        BinaryOp::Ule => a.ule(b),
        BinaryOp::Slt => a.slt(b),
        BinaryOp::Shl => a.shl(b.as_u64().min(u64::from(rtl::MAX_WIDTH)) as u32),
        BinaryOp::Shr => a.shr(b.as_u64().min(u64::from(rtl::MAX_WIDTH)) as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coi_pruning_drops_dead_logic() {
        let mut n = Netlist::new("dead");
        let a = n.input("a", 8);
        let b = n.input("b", 8);
        let live = n.add(a, b);
        let dead = n.sub(a, b); // never reaches the root
        let dead2 = n.xor(dead, b);

        let full = CompiledTransition::compile(&n, &[live, dead2]);
        let pruned = CompiledTransition::compile(&n, &[live]);
        assert_eq!((full.len(), pruned.len()), (5, 3));
        assert!(pruned.slot_of(dead).is_none());
        assert!(pruned.slot_of(dead2).is_none());
        assert!(pruned.slot_of(live).is_some());
    }

    /// A live counter (the root), a dead counter, and a register that feeds
    /// the live one only through its next-state expression.
    fn layered() -> (Netlist, SignalId, SignalId, SignalId) {
        let mut n = Netlist::new("layered");
        let seed = n.register("seed", 4);
        let live = n.register("live", 4);
        let dead = n.register("dead", 4);
        let live_next = n.add(live.value(), seed.value());
        let one = n.lit(1, 4);
        let dead_next = n.add(dead.value(), one);
        let seed_next = n.xor(seed.value(), one);
        n.set_next(live, live_next);
        n.set_next(dead, dead_next);
        n.set_next(seed, seed_next);
        (n, live.value(), dead.value(), seed.value())
    }

    #[test]
    fn cone_follows_register_feedback() {
        let (n, live, dead, seed) = layered();
        let ct = CompiledTransition::compile(&n, &[live]);
        assert!(ct.slot_of(live).is_some());
        // `seed` only matters through `live`'s next-state function, which the
        // sequential closure must pull in.
        assert!(ct.slot_of(seed).is_some());
        assert!(ct.slot_of(dead).is_none());
    }

    #[test]
    fn empty_roots_empty_schedule_and_full_roots_every_signal() {
        let (n, live, dead, seed) = layered();
        assert!(CompiledTransition::compile(&n, &[]).is_empty());
        // Every signal of this design feeds one of the three registers.
        let full = CompiledTransition::compile(&n, &[live, dead, seed]);
        assert!(n.signals().all(|s| full.slot_of(s).is_some()));
    }

    #[test]
    fn structural_hashing_merges_duplicate_subterms() {
        let mut n = Netlist::new("dup");
        let a = n.input("a", 8);
        let b = n.input("b", 8);
        let x = n.add(a, b);
        let y = n.add(a, b);
        let z = n.add(b, a); // commutative: same slot as x
        let ct = CompiledTransition::compile(&n, &[x, y, z]);
        assert_eq!(ct.slot_of(x), ct.slot_of(y));
        assert_eq!(ct.slot_of(x), ct.slot_of(z));
        assert_eq!(ct.len(), 3, "a, b and one adder");
    }

    #[test]
    fn constant_folding_evaluates_closed_terms() {
        let mut n = Netlist::new("fold");
        let three = n.lit(3, 8);
        let four = n.lit(4, 8);
        let seven = n.add(three, four);
        let a = n.input("a", 8);
        let cond = n.eq(a, a); // folds to the constant 1
        let same = n.mux(cond, seven, a); // constant select folds to 7
        let ct = CompiledTransition::compile(&n, &[seven, same, cond]);
        let slot = ct.slot_of(seven).unwrap();
        assert_eq!(
            ct.ops()[slot as usize],
            CompiledOp::Const(BitVec::new(7, 8))
        );
        assert_eq!(ct.slot_of(same), ct.slot_of(seven));
        let slot = ct.slot_of(cond).unwrap();
        assert_eq!(
            ct.ops()[slot as usize],
            CompiledOp::Const(BitVec::bit(true))
        );
        assert_eq!(ct.len(), 5, "the constants 3, 4, 7 and 1, and a");
    }

    #[test]
    fn register_feedback_is_scheduled() {
        let mut n = Netlist::new("cnt");
        let c = n.register("c", 4);
        let one = n.lit(1, 4);
        let next = n.add(c.value(), one);
        n.set_next(c, next);
        let ct = CompiledTransition::compile(&n, &[c.value()]);
        let reg = match n.node(c.value()) {
            Node::Register { register, .. } => *register,
            _ => unreachable!(),
        };
        assert_eq!(ct.next_slot(reg), ct.slot_of(next));
    }

    /// Every fold rule the registry miters leave unexercised, on one
    /// netlist: closed unary, slice and concat terms, the full-width slice,
    /// `mux(c, t, t)`, each same-operand identity, and folded constants
    /// landing on the slot of an equal constant.
    #[test]
    fn every_fold_rule_applies() {
        let mut n = Netlist::new("folds");
        let a = n.input("a", 4);
        let b = n.input("b", 4);
        let ten = n.lit(10, 4);
        let five = n.lit(5, 4);
        let not_five = n.not(five); // 10: the existing constant's slot
        let mid = n.slice(five, 2, 1); // 0b10
        let joined = n.concat(five, mid); // 0b0101_10
        let whole = n.slice(a, 3, 0);
        let select = n.bit(b, 0);
        let either = n.mux(select, a, a);
        let same = [n.and(a, a), n.or(a, a)];
        let zero = [n.xor(a, a), n.sub(a, a)];
        let one = n.ule(a, a);
        let no = [n.ne(a, a), n.ult(a, a), n.slt(a, a)];
        let kept = [
            (BinaryOp::Add, n.add(a, a)),
            (BinaryOp::Shl, n.shl(a, a)),
            (BinaryOp::Shr, n.shr(a, a)),
        ];
        let roots: Vec<SignalId> = n.signals().collect();
        let ct = CompiledTransition::compile(&n, &roots);
        let op = |s: SignalId| &ct.ops()[ct.slot_of(s).unwrap() as usize];

        assert_eq!(ct.slot_of(not_five), ct.slot_of(ten));
        assert_eq!(*op(mid), CompiledOp::Const(BitVec::new(0b10, 2)));
        assert_eq!(*op(joined), CompiledOp::Const(BitVec::new(0b010110, 6)));
        for alias in [whole, either].into_iter().chain(same) {
            assert_eq!(ct.slot_of(alias), ct.slot_of(a));
        }
        for s in zero {
            assert_eq!(*op(s), CompiledOp::Const(BitVec::zero(4)));
        }
        assert_eq!(*op(one), CompiledOp::Const(BitVec::bit(true)));
        for s in no {
            assert_eq!(*op(s), CompiledOp::Const(BitVec::bit(false)));
        }
        let sa = ct.slot_of(a).unwrap();
        for (binary, s) in kept {
            let unfolded = CompiledOp::Binary {
                op: binary,
                a: sa,
                b: sa,
            };
            assert_eq!(*op(s), unfolded);
        }
        // a, b, 10, 5, 0b10, 0b0101_10, b[0], 0, 1, 0 (one bit) and the
        // three kept operators.
        assert_eq!(ct.len(), 13);
    }
}
