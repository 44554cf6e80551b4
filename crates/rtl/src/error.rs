//! Error types for netlist construction and validation.

use std::error::Error;
use std::fmt;

/// Errors reported by [`Netlist::validate`](crate::Netlist::validate) and
/// other fallible operations of the RTL representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtlError {
    /// A register was declared but never given a next-state function.
    RegisterWithoutNext {
        /// Name of the offending register.
        register: String,
    },
    /// The next-state expression of a register has a different width than the
    /// register itself.
    NextWidthMismatch {
        /// Name of the offending register.
        register: String,
        /// Width of the register.
        register_width: u32,
        /// Width of the assigned next-state expression.
        next_width: u32,
    },
    /// Two primary inputs share the same name.
    DuplicatePortName {
        /// The duplicated name.
        name: String,
    },
}

impl fmt::Display for RtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtlError::RegisterWithoutNext { register } => {
                write!(f, "register `{register}` has no next-state expression")
            }
            RtlError::NextWidthMismatch {
                register,
                register_width,
                next_width,
            } => write!(
                f,
                "register `{register}` is {register_width} bits wide but its next-state expression is {next_width} bits wide"
            ),
            RtlError::DuplicatePortName { name } => {
                write!(f, "input name `{name}` is used more than once")
            }
        }
    }
}

impl Error for RtlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = RtlError::RegisterWithoutNext {
            register: "pc".into(),
        };
        assert!(err.to_string().contains("pc"));
        let err = RtlError::NextWidthMismatch {
            register: "pc".into(),
            register_width: 32,
            next_width: 16,
        };
        assert!(err.to_string().contains("32"));
        assert!(err.to_string().contains("16"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RtlError>();
    }
}
