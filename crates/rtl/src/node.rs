//! Signal identifiers and word-level node kinds.

use crate::BitVec;
use std::fmt;

/// Handle to a signal (node) inside a [`Netlist`](crate::Netlist).
///
/// Signal ids are only meaningful for the netlist that created them; they are
/// assigned densely in creation order, which — because an expression may only
/// refer to signals that already exist — also is a topological order of the
/// combinational logic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Index of the signal inside its netlist.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a signal id from an index.
    ///
    /// This is intended for engines (simulator, bit-blaster) that store
    /// per-signal side tables indexed by [`SignalId::index`].
    pub fn from_index(index: usize) -> Self {
        SignalId(u32::try_from(index).expect("signal index exceeds u32 range"))
    }
}

impl fmt::Debug for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl fmt::Display for SignalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Handle to a register declared in a [`Netlist`](crate::Netlist).
///
/// A register is also a signal (its current-state value); the register handle
/// additionally identifies the storage element so that a next-state
/// expression and an initial value can be attached to it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegisterId(pub(crate) u32);

impl RegisterId {
    /// Index of the register in the netlist's register table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a register id from an index.
    pub fn from_index(index: usize) -> Self {
        RegisterId(u32::try_from(index).expect("register index exceeds u32 range"))
    }
}

impl fmt::Debug for RegisterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Unary word-level operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
    /// OR-reduction to a single bit.
    ReduceOr,
    /// AND-reduction to a single bit.
    ReduceAnd,
    /// XOR-reduction (parity) to a single bit.
    ReduceXor,
}

impl UnaryOp {
    /// Result width for an operand of width `w`.
    pub fn result_width(self, w: u32) -> u32 {
        match self {
            UnaryOp::Not | UnaryOp::Neg => w,
            UnaryOp::ReduceOr | UnaryOp::ReduceAnd | UnaryOp::ReduceXor => 1,
        }
    }
}

/// Binary word-level operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Modular addition.
    Add,
    /// Modular subtraction.
    Sub,
    /// Equality, producing a single bit.
    Eq,
    /// Inequality, producing a single bit.
    Ne,
    /// Unsigned less-than, producing a single bit.
    Ult,
    /// Unsigned less-or-equal, producing a single bit.
    Ule,
    /// Signed less-than, producing a single bit.
    Slt,
    /// Logical shift left; the right operand is the shift amount.
    Shl,
    /// Logical shift right; the right operand is the shift amount.
    Shr,
}

impl BinaryOp {
    /// Result width for operands of width `wa` (left) and `wb` (right).
    pub fn result_width(self, wa: u32, _wb: u32) -> u32 {
        match self {
            BinaryOp::And
            | BinaryOp::Or
            | BinaryOp::Xor
            | BinaryOp::Add
            | BinaryOp::Sub
            | BinaryOp::Shl
            | BinaryOp::Shr => wa,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Ult | BinaryOp::Ule | BinaryOp::Slt => 1,
        }
    }

    /// Whether both operands must have identical widths.
    pub fn requires_equal_widths(self) -> bool {
        !matches!(self, BinaryOp::Shl | BinaryOp::Shr)
    }

    /// Whether the operator is commutative.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinaryOp::And
                | BinaryOp::Or
                | BinaryOp::Xor
                | BinaryOp::Add
                | BinaryOp::Eq
                | BinaryOp::Ne
        )
    }
}

/// A word-level node of the expression DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Free primary input of the netlist.
    Input {
        /// Port name.
        name: String,
        /// Bit width.
        width: u32,
    },
    /// Constant value.
    Const(BitVec),
    /// Current-state value of a register.
    Register {
        /// Register handle (index into the netlist's register table).
        register: RegisterId,
        /// Hierarchical register name.
        name: String,
        /// Bit width.
        width: u32,
    },
    /// Unary operator application.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        a: SignalId,
        /// Result width.
        width: u32,
    },
    /// Binary operator application.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        a: SignalId,
        /// Right operand.
        b: SignalId,
        /// Result width.
        width: u32,
    },
    /// Two-way multiplexer: `cond ? then_ : else_`.
    Mux {
        /// Single-bit select.
        cond: SignalId,
        /// Value when `cond` is one.
        then_: SignalId,
        /// Value when `cond` is zero.
        else_: SignalId,
        /// Result width.
        width: u32,
    },
    /// Bit-field extraction `a[hi..=lo]`.
    Slice {
        /// Operand.
        a: SignalId,
        /// Most-significant extracted bit.
        hi: u32,
        /// Least-significant extracted bit.
        lo: u32,
    },
    /// Concatenation; `hi` supplies the most-significant bits.
    Concat {
        /// Most-significant part.
        hi: SignalId,
        /// Least-significant part.
        lo: SignalId,
        /// Result width (sum of operand widths).
        width: u32,
    },
}

impl Node {
    /// Width of the value produced by the node.
    pub fn width(&self) -> u32 {
        match self {
            Node::Input { width, .. }
            | Node::Register { width, .. }
            | Node::Unary { width, .. }
            | Node::Binary { width, .. }
            | Node::Mux { width, .. }
            | Node::Concat { width, .. } => *width,
            Node::Const(v) => v.width(),
            Node::Slice { hi, lo, .. } => hi - lo + 1,
        }
    }

    /// Whether the node is a state-holding element (a register read).
    pub fn is_register(&self) -> bool {
        matches!(self, Node::Register { .. })
    }

    /// Signals this node depends on combinationally.
    pub fn operands(&self) -> Vec<SignalId> {
        match self {
            Node::Input { .. } | Node::Const(_) | Node::Register { .. } => Vec::new(),
            Node::Unary { a, .. } | Node::Slice { a, .. } => vec![*a],
            Node::Binary { a, b, .. } => vec![*a, *b],
            Node::Concat { hi, lo, .. } => vec![*hi, *lo],
            Node::Mux {
                cond, then_, else_, ..
            } => vec![*cond, *then_, *else_],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_widths() {
        assert_eq!(UnaryOp::Not.result_width(8), 8);
        assert_eq!(UnaryOp::ReduceOr.result_width(8), 1);
        assert_eq!(BinaryOp::Add.result_width(8, 8), 8);
        assert_eq!(BinaryOp::Eq.result_width(8, 8), 1);
        assert_eq!(BinaryOp::Shl.result_width(8, 3), 8);
    }

    #[test]
    fn shift_amount_width_is_free() {
        assert!(!BinaryOp::Shl.requires_equal_widths());
        assert!(BinaryOp::Add.requires_equal_widths());
    }

    #[test]
    fn node_width_and_operands() {
        let n = Node::Const(BitVec::new(3, 4));
        assert_eq!(n.width(), 4);
        assert!(n.operands().is_empty());

        let n = Node::Slice {
            a: SignalId(0),
            hi: 7,
            lo: 4,
        };
        assert_eq!(n.width(), 4);
        assert_eq!(n.operands(), vec![SignalId(0)]);

        let n = Node::Mux {
            cond: SignalId(0),
            then_: SignalId(1),
            else_: SignalId(2),
            width: 8,
        };
        assert_eq!(n.operands().len(), 3);
    }

    #[test]
    fn ids_roundtrip_through_index() {
        let s = SignalId::from_index(42);
        assert_eq!(s.index(), 42);
        assert_eq!(format!("{s:?}"), "s42");
        let r = RegisterId::from_index(7);
        assert_eq!(r.index(), 7);
        assert_eq!(format!("{r:?}"), "r7");
    }

    #[test]
    fn commutativity_classification() {
        assert!(BinaryOp::Add.is_commutative());
        assert!(BinaryOp::Xor.is_commutative());
        assert!(!BinaryOp::Sub.is_commutative());
        assert!(!BinaryOp::Ult.is_commutative());
    }
}
