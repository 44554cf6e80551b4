//! Boolean variables and literals.

use std::fmt;

/// A Boolean variable.
///
/// Variables are allocated densely by [`Solver::new_var`](crate::Solver::new_var)
/// starting at index 0.
///
/// # Examples
///
/// ```
/// use sat::Var;
///
/// let v = Var::from_index(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.positive().var(), v);
/// assert_eq!(!v.negative(), v.positive());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// Creates a variable from its dense index.
    pub fn from_index(index: usize) -> Self {
        Var(u32::try_from(index).expect("variable index exceeds u32 range"))
    }

    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Positive literal of this variable.
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// Negative literal of this variable.
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Internally encoded as `2*var + (negated as usize)`, the usual MiniSat-style
/// packing that allows literals to index watch lists directly.
///
/// # Examples
///
/// ```
/// use sat::{Lit, Var};
///
/// let l = Lit::new(Var::from_index(2), true);
/// assert!(l.is_positive());
/// assert!(!(!l).is_positive());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(pub(crate) u32);

impl Lit {
    /// Creates a literal from a variable and a polarity (`true` = positive).
    pub fn new(var: Var, positive: bool) -> Self {
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive (non-negated).
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// The literal's dense code (`2*var + negated`), usable as an array index.
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its dense code.
    pub fn from_code(code: usize) -> Self {
        Lit(u32::try_from(code).expect("literal code exceeds u32 range"))
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "!{}", self.var())
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Truth value of a variable or literal during search.
///
/// # Examples
///
/// ```
/// use sat::LBool;
///
/// assert_eq!(LBool::from_bool(true), LBool::True);
/// assert_eq!(LBool::True.negate(), LBool::False);
/// assert!(!LBool::Undef.is_assigned());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not yet assigned.
    Undef,
}

impl LBool {
    /// Converts a concrete Boolean.
    pub fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }

    /// Negates the value (leaves `Undef` unchanged).
    pub fn negate(self) -> Self {
        match self {
            LBool::True => LBool::False,
            LBool::False => LBool::True,
            LBool::Undef => LBool::Undef,
        }
    }

    /// Whether the value is assigned (not `Undef`).
    pub fn is_assigned(self) -> bool {
        !matches!(self, LBool::Undef)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_roundtrip() {
        let v = Var::from_index(5);
        let p = v.positive();
        let n = v.negative();
        assert_eq!(p.var(), v);
        assert_eq!(n.var(), v);
        assert!(p.is_positive());
        assert!(!n.is_positive());
        assert_eq!(!p, n);
        assert_eq!(!!p, p);
        assert_eq!(Lit::from_code(p.code()), p);
    }

    #[test]
    fn lbool_operations() {
        assert_eq!(LBool::from_bool(true), LBool::True);
        assert_eq!(LBool::True.negate(), LBool::False);
        assert_eq!(LBool::Undef.negate(), LBool::Undef);
        assert!(LBool::False.is_assigned());
        assert!(!LBool::Undef.is_assigned());
    }

    #[test]
    fn debug_formatting() {
        let v = Var::from_index(2);
        assert_eq!(format!("{:?}", v.positive()), "v2");
        assert_eq!(format!("{:?}", v.negative()), "!v2");
    }
}
