//! The word-level netlist: an expression DAG plus registers and primary
//! inputs.

use crate::{BinaryOp, BitVec, Node, RegisterId, RtlError, SignalId, UnaryOp};
use std::collections::BTreeSet;

/// Information kept for each declared register.
#[derive(Debug, Clone)]
pub struct RegisterInfo {
    /// Signal that reads the register's current value.
    pub signal: SignalId,
    /// Hierarchical name of the register.
    pub name: String,
    /// Bit width of the register.
    pub width: u32,
    /// Next-state expression, if one has been attached yet.
    pub next: Option<SignalId>,
    /// Reset/initial value, if the register has one. Registers without an
    /// initial value start in a *symbolic* state, which is exactly what the
    /// UPEC interval-property proofs require.
    pub init: Option<BitVec>,
}

/// A word-level synchronous netlist.
///
/// A netlist is a DAG of [`Node`]s. Expression nodes may only refer to
/// signals created earlier, so the node vector is always in topological
/// order and combinational cycles cannot be constructed. Registers break the
/// sequential cycles: their current value is a leaf of the DAG and their
/// next-state function is attached with [`Netlist::set_next`].
///
/// # Examples
///
/// Building a 4-bit counter with an enable input:
///
/// ```
/// use rtl::{Netlist, BitVec};
///
/// let mut n = Netlist::new("counter");
/// let enable = n.input("enable", 1);
/// let count = n.register_init("count", 4, BitVec::zero(4));
/// let one = n.lit(1, 4);
/// let incremented = n.add(count.value(), one);
/// let next = n.mux(enable, incremented, count.value());
/// n.set_next(count, next);
/// n.validate().expect("counter netlist is well formed");
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    registers: Vec<RegisterInfo>,
    inputs: Vec<SignalId>,
    scope: Vec<String>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            registers: Vec::new(),
            inputs: Vec::new(),
            scope: Vec::new(),
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (signals) in the netlist.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the netlist contains no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind a signal id.
    ///
    /// # Panics
    ///
    /// Panics if the signal does not belong to this netlist.
    pub fn node(&self, id: SignalId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Width in bits of a signal.
    pub fn width(&self, id: SignalId) -> u32 {
        self.node(id).width()
    }

    /// Iterates over all signals in topological (creation) order.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.nodes.len()).map(SignalId::from_index)
    }

    /// All primary inputs in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// All registers in declaration order.
    pub fn registers(&self) -> &[RegisterInfo] {
        &self.registers
    }

    /// Number of declared registers.
    pub fn register_count(&self) -> usize {
        self.registers.len()
    }

    /// Register info behind a register handle.
    pub fn register_info(&self, id: RegisterId) -> &RegisterInfo {
        &self.registers[id.index()]
    }

    /// Iterates over register handles in declaration order.
    pub fn register_ids(&self) -> impl Iterator<Item = RegisterId> + '_ {
        (0..self.registers.len()).map(RegisterId::from_index)
    }

    /// Looks up a register by its full hierarchical name.
    pub fn find_register(&self, name: &str) -> Option<RegisterId> {
        self.registers
            .iter()
            .position(|r| r.name == name)
            .map(RegisterId::from_index)
    }

    /// Looks up an input by name.
    pub fn find_input(&self, name: &str) -> Option<SignalId> {
        self.inputs.iter().copied().find(|&s| match self.node(s) {
            Node::Input { name: n, .. } => n == name,
            _ => false,
        })
    }

    // ------------------------------------------------------------------
    // Scoping and naming
    // ------------------------------------------------------------------

    /// Pushes a hierarchical scope; subsequent registers/inputs are named
    /// `scope.name`.
    pub fn push_scope(&mut self, scope: impl Into<String>) {
        self.scope.push(scope.into());
    }

    /// Pops the innermost hierarchical scope.
    pub fn pop_scope(&mut self) {
        self.scope.pop();
    }

    fn scoped(&self, name: &str) -> String {
        if self.scope.is_empty() {
            name.to_string()
        } else {
            format!("{}.{}", self.scope.join("."), name)
        }
    }

    /// Best-known name of a signal: input/register name, or a generated
    /// `s<N>` fallback.
    pub fn signal_name(&self, id: SignalId) -> String {
        match self.node(id) {
            Node::Input { name, .. } => name.clone(),
            Node::Register { name, .. } => name.clone(),
            _ => format!("{id}"),
        }
    }

    // ------------------------------------------------------------------
    // Node construction
    // ------------------------------------------------------------------

    fn push(&mut self, node: Node) -> SignalId {
        let id = SignalId::from_index(self.nodes.len());
        self.nodes.push(node);
        id
    }

    /// Declares a primary input of the given width.
    ///
    /// # Panics
    ///
    /// Panics if the width is zero or exceeds [`crate::MAX_WIDTH`].
    pub fn input(&mut self, name: impl Into<String>, width: u32) -> SignalId {
        assert!(
            (1..=crate::MAX_WIDTH).contains(&width),
            "input width {width} out of range"
        );
        let name = self.scoped(&name.into());
        let id = self.push(Node::Input { name, width });
        self.inputs.push(id);
        id
    }

    /// Creates a constant signal from a [`BitVec`].
    pub fn constant(&mut self, value: BitVec) -> SignalId {
        self.push(Node::Const(value))
    }

    /// Creates a constant signal of `width` bits holding `value`.
    pub fn lit(&mut self, value: u64, width: u32) -> SignalId {
        self.constant(BitVec::new(value, width))
    }

    /// Single-bit constant one.
    pub fn one(&mut self) -> SignalId {
        self.lit(1, 1)
    }

    /// Single-bit constant zero.
    pub fn zero(&mut self) -> SignalId {
        self.lit(0, 1)
    }

    /// Declares a register with a *symbolic* (unconstrained) initial state.
    ///
    /// The register's current value can be read through
    /// [`RegisterHandle::value`]; its next-state function must be attached
    /// with [`Netlist::set_next`] before the netlist validates.
    pub fn register(&mut self, name: impl Into<String>, width: u32) -> RegisterHandle {
        self.register_impl(name.into(), width, None)
    }

    /// Declares a register with a concrete reset value.
    pub fn register_init(
        &mut self,
        name: impl Into<String>,
        width: u32,
        init: BitVec,
    ) -> RegisterHandle {
        assert_eq!(init.width(), width, "register init width mismatch");
        self.register_impl(name.into(), width, Some(init))
    }

    fn register_impl(&mut self, name: String, width: u32, init: Option<BitVec>) -> RegisterHandle {
        assert!(
            (1..=crate::MAX_WIDTH).contains(&width),
            "register width {width} out of range"
        );
        let name = self.scoped(&name);
        let register = RegisterId::from_index(self.registers.len());
        let signal = self.push(Node::Register {
            register,
            name: name.clone(),
            width,
        });
        self.registers.push(RegisterInfo {
            signal,
            name,
            width,
            next: None,
            init,
        });
        RegisterHandle {
            id: register,
            signal,
        }
    }

    /// Attaches the next-state expression of a register.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ or if the register already has a
    /// next-state expression.
    pub fn set_next(&mut self, register: RegisterHandle, next: SignalId) {
        let width = self.width(next);
        let info = &mut self.registers[register.id.index()];
        assert_eq!(
            info.width, width,
            "next-state width mismatch for register `{}`: {} vs {}",
            info.name, info.width, width
        );
        assert!(
            info.next.is_none(),
            "register `{}` already has a next-state expression",
            info.name
        );
        info.next = Some(next);
    }

    fn unary(&mut self, op: UnaryOp, a: SignalId) -> SignalId {
        let width = op.result_width(self.width(a));
        self.push(Node::Unary { op, a, width })
    }

    fn binary(&mut self, op: BinaryOp, a: SignalId, b: SignalId) -> SignalId {
        let wa = self.width(a);
        let wb = self.width(b);
        if op.requires_equal_widths() {
            assert_eq!(
                wa,
                wb,
                "width mismatch in {op:?}: {} ({wa} bits) vs {} ({wb} bits)",
                self.signal_name(a),
                self.signal_name(b)
            );
        }
        let width = op.result_width(wa, wb);
        self.push(Node::Binary { op, a, b, width })
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: SignalId) -> SignalId {
        self.unary(UnaryOp::Not, a)
    }

    /// Two's-complement negation.
    pub fn neg(&mut self, a: SignalId) -> SignalId {
        self.unary(UnaryOp::Neg, a)
    }

    /// OR-reduction to a single bit.
    pub fn reduce_or(&mut self, a: SignalId) -> SignalId {
        self.unary(UnaryOp::ReduceOr, a)
    }

    /// AND-reduction to a single bit.
    pub fn reduce_and(&mut self, a: SignalId) -> SignalId {
        self.unary(UnaryOp::ReduceAnd, a)
    }

    /// XOR-reduction (parity) to a single bit.
    pub fn reduce_xor(&mut self, a: SignalId) -> SignalId {
        self.unary(UnaryOp::ReduceXor, a)
    }

    /// Bitwise AND. Panics on width mismatch.
    pub fn and(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::And, a, b)
    }

    /// Bitwise OR. Panics on width mismatch.
    pub fn or(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::Or, a, b)
    }

    /// Bitwise XOR. Panics on width mismatch.
    pub fn xor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::Xor, a, b)
    }

    /// Modular addition. Panics on width mismatch.
    pub fn add(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::Add, a, b)
    }

    /// Modular subtraction. Panics on width mismatch.
    pub fn sub(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::Sub, a, b)
    }

    /// Equality comparison (single-bit result). Panics on width mismatch.
    pub fn eq(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::Eq, a, b)
    }

    /// Inequality comparison (single-bit result). Panics on width mismatch.
    pub fn ne(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::Ne, a, b)
    }

    /// Unsigned less-than (single-bit result). Panics on width mismatch.
    pub fn ult(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::Ult, a, b)
    }

    /// Unsigned less-or-equal (single-bit result). Panics on width mismatch.
    pub fn ule(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::Ule, a, b)
    }

    /// Signed less-than (single-bit result). Panics on width mismatch.
    pub fn slt(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.binary(BinaryOp::Slt, a, b)
    }

    /// Logical shift left by a (possibly narrower) variable amount.
    pub fn shl(&mut self, a: SignalId, amount: SignalId) -> SignalId {
        self.binary(BinaryOp::Shl, a, amount)
    }

    /// Logical shift right by a (possibly narrower) variable amount.
    pub fn shr(&mut self, a: SignalId, amount: SignalId) -> SignalId {
        self.binary(BinaryOp::Shr, a, amount)
    }

    /// Two-way multiplexer `cond ? then_ : else_`.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not a single bit or the branches' widths differ.
    pub fn mux(&mut self, cond: SignalId, then_: SignalId, else_: SignalId) -> SignalId {
        assert_eq!(self.width(cond), 1, "mux condition must be a single bit");
        let wt = self.width(then_);
        let we = self.width(else_);
        assert_eq!(
            wt,
            we,
            "mux branch width mismatch: {} ({wt} bits) vs {} ({we} bits)",
            self.signal_name(then_),
            self.signal_name(else_)
        );
        self.push(Node::Mux {
            cond,
            then_,
            else_,
            width: wt,
        })
    }

    /// Extracts bits `hi..=lo` of a signal.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` is out of range.
    pub fn slice(&mut self, a: SignalId, hi: u32, lo: u32) -> SignalId {
        let w = self.width(a);
        assert!(hi >= lo, "slice hi {hi} < lo {lo}");
        assert!(hi < w, "slice hi {hi} out of range for width {w}");
        self.push(Node::Slice { a, hi, lo })
    }

    /// Extracts a single bit of a signal.
    pub fn bit(&mut self, a: SignalId, index: u32) -> SignalId {
        self.slice(a, index, index)
    }

    /// Concatenation; `hi` supplies the most-significant bits.
    pub fn concat(&mut self, hi: SignalId, lo: SignalId) -> SignalId {
        let width = self.width(hi) + self.width(lo);
        assert!(
            width <= crate::MAX_WIDTH,
            "concat width {width} exceeds {}",
            crate::MAX_WIDTH
        );
        self.push(Node::Concat { hi, lo, width })
    }

    /// Zero-extends a signal to `width` bits (no-op if already that width).
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the signal's width.
    pub fn zext(&mut self, a: SignalId, width: u32) -> SignalId {
        let w = self.width(a);
        assert!(width >= w, "zext to narrower width ({w} -> {width})");
        if width == w {
            return a;
        }
        let zeros = self.lit(0, width - w);
        self.concat(zeros, a)
    }

    /// Sign-extends a signal to `width` bits (no-op if already that width).
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the signal's width.
    pub fn sext(&mut self, a: SignalId, width: u32) -> SignalId {
        let w = self.width(a);
        assert!(width >= w, "sext to narrower width ({w} -> {width})");
        if width == w {
            return a;
        }
        let sign = self.bit(a, w - 1);
        let ones = self.lit(u64::MAX, width - w);
        let zeros = self.lit(0, width - w);
        let ext = self.mux(sign, ones, zeros);
        self.concat(ext, a)
    }

    /// Single-bit test for "signal equals the literal `value`".
    pub fn eq_lit(&mut self, a: SignalId, value: u64) -> SignalId {
        let w = self.width(a);
        let c = self.lit(value, w);
        self.eq(a, c)
    }

    /// Single-bit test for "signal is all zeros".
    pub fn is_zero(&mut self, a: SignalId) -> SignalId {
        let any = self.reduce_or(a);
        self.not(any)
    }

    /// Boolean implication `a -> b` for single-bit signals.
    pub fn implies(&mut self, a: SignalId, b: SignalId) -> SignalId {
        let na = self.not(a);
        self.or(na, b)
    }

    /// AND over an arbitrary, possibly empty, set of single-bit signals.
    pub fn and_all<I>(&mut self, signals: I) -> SignalId
    where
        I: IntoIterator<Item = SignalId>,
    {
        let mut acc: Option<SignalId> = None;
        for s in signals {
            acc = Some(match acc {
                None => s,
                Some(a) => self.and(a, s),
            });
        }
        acc.unwrap_or_else(|| self.one())
    }

    /// OR over an arbitrary, possibly empty, set of single-bit signals.
    pub fn or_all<I>(&mut self, signals: I) -> SignalId
    where
        I: IntoIterator<Item = SignalId>,
    {
        let mut acc: Option<SignalId> = None;
        for s in signals {
            acc = Some(match acc {
                None => s,
                Some(a) => self.or(a, s),
            });
        }
        acc.unwrap_or_else(|| self.zero())
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Checks the structural well-formedness of the netlist.
    ///
    /// # Errors
    ///
    /// Returns an error if a register lacks a next-state expression, a
    /// next-state expression has the wrong width, or input names collide.
    pub fn validate(&self) -> Result<(), RtlError> {
        for reg in &self.registers {
            match reg.next {
                None => {
                    return Err(RtlError::RegisterWithoutNext {
                        register: reg.name.clone(),
                    })
                }
                Some(next) => {
                    let next_width = self.width(next);
                    if next_width != reg.width {
                        return Err(RtlError::NextWidthMismatch {
                            register: reg.name.clone(),
                            register_width: reg.width,
                            next_width,
                        });
                    }
                }
            }
        }
        let mut seen = BTreeSet::new();
        for &input in &self.inputs {
            if let Node::Input { name, .. } = self.node(input) {
                if !seen.insert(name.clone()) {
                    return Err(RtlError::DuplicatePortName { name: name.clone() });
                }
            }
        }
        Ok(())
    }
}

/// Handle returned by register declaration; bundles the register id with the
/// signal that reads its current value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegisterHandle {
    id: RegisterId,
    signal: SignalId,
}

impl RegisterHandle {
    /// The register id (for use with [`Netlist::register_info`]).
    pub fn id(&self) -> RegisterId {
        self.id
    }

    /// The signal carrying the register's current value.
    pub fn value(&self) -> SignalId {
        self.signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> (Netlist, RegisterHandle) {
        let mut n = Netlist::new("counter");
        let enable = n.input("enable", 1);
        let count = n.register_init("count", 4, BitVec::zero(4));
        let one = n.lit(1, 4);
        let inc = n.add(count.value(), one);
        let next = n.mux(enable, inc, count.value());
        n.set_next(count, next);
        (n, count)
    }

    #[test]
    fn counter_netlist_validates() {
        let (n, _) = counter();
        n.validate().expect("valid netlist");
        assert_eq!(n.register_count(), 1);
        assert_eq!(n.inputs().len(), 1);
    }

    #[test]
    fn register_without_next_fails_validation() {
        let mut n = Netlist::new("bad");
        let _ = n.register("dangling", 8);
        let err = n.validate().unwrap_err();
        assert!(matches!(err, RtlError::RegisterWithoutNext { .. }));
    }

    #[test]
    fn duplicate_input_name_fails_validation() {
        let mut n = Netlist::new("bad");
        n.input("x", 1);
        n.input("x", 1);
        let err = n.validate().unwrap_err();
        assert!(matches!(err, RtlError::DuplicatePortName { .. }));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn add_width_mismatch_panics() {
        let mut n = Netlist::new("bad");
        let a = n.lit(0, 4);
        let b = n.lit(0, 8);
        let _ = n.add(a, b);
    }

    #[test]
    #[should_panic(expected = "already has a next-state")]
    fn double_set_next_panics() {
        let mut n = Netlist::new("bad");
        let r = n.register("r", 1);
        let v = n.lit(0, 1);
        n.set_next(r, v);
        n.set_next(r, v);
    }

    #[test]
    fn scoped_names() {
        let mut n = Netlist::new("top");
        n.push_scope("core");
        n.push_scope("fetch");
        let pc = n.register("pc", 8);
        n.pop_scope();
        let x = n.input("irq", 1);
        n.pop_scope();
        assert_eq!(n.register_info(pc.id()).name, "core.fetch.pc");
        assert_eq!(n.signal_name(x), "core.irq");
        assert!(n.find_register("core.fetch.pc").is_some());
        assert!(n.find_register("pc").is_none());
    }

    #[test]
    fn zext_sext_build_expected_widths() {
        let mut n = Netlist::new("ext");
        let a = n.input("a", 4);
        let z = n.zext(a, 8);
        let s = n.sext(a, 8);
        assert_eq!(n.width(z), 8);
        assert_eq!(n.width(s), 8);
        // zext of the same width is the identity.
        assert_eq!(n.zext(a, 4), a);
    }

    #[test]
    fn and_all_or_all_handle_empty_sets() {
        let mut n = Netlist::new("fold");
        let t = n.and_all(std::iter::empty());
        let f = n.or_all(std::iter::empty());
        assert!(matches!(n.node(t), Node::Const(c) if c.is_true()));
        assert!(matches!(n.node(f), Node::Const(c) if c.is_zero()));
    }

    #[test]
    fn lookup_by_name() {
        let (n, _) = counter();
        assert!(n.find_input("enable").is_some());
        assert!(n.find_input("nonexistent").is_none());
    }

    #[test]
    fn creation_order_is_topological() {
        let (n, _) = counter();
        for id in n.signals() {
            for op in n.node(id).operands() {
                assert!(op.index() < id.index(), "operand created after user");
            }
        }
    }
}
