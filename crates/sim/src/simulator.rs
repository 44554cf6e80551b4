//! Cycle-accurate simulation of a netlist.

use rtl::{BinaryOp, BitVec, Netlist, Node, RegisterId, SignalId, UnaryOp};

/// Cycle-accurate two-value simulator for an [`rtl::Netlist`].
///
/// [`Simulator::new`] compiles the netlist once: every combinational node
/// becomes one op in a flat list over a `u64` value array with one slot per
/// signal, in creation order (which is topological). Constant slots are
/// written at build time, register slots at every clock edge,
/// [`Simulator::set_register`] and [`Simulator::reset`], and input slots by
/// [`Simulator::poke`]. Those writes only mark the combinational slots
/// stale; [`Simulator::settle`] recomputes them in one pass over the ops,
/// and only when a peek of a combinational signal or a clock edge needs
/// them. Peeking a register, input or constant reads its slot directly.
///
/// Primary inputs are *poked* before each [`Simulator::step`]; any input
/// that has not been poked holds its previous value (initially zero).
/// Registers with an initial value start there; registers declared without
/// one start at zero unless overridden with [`Simulator::set_register`].
///
/// # Examples
///
/// ```
/// use rtl::{Netlist, BitVec};
/// use sim::Simulator;
///
/// let mut n = Netlist::new("counter");
/// let enable = n.input("enable", 1);
/// let count = n.register_init("count", 8, BitVec::zero(8));
/// let one = n.lit(1, 8);
/// let inc = n.add(count.value(), one);
/// let next = n.mux(enable, inc, count.value());
/// n.set_next(count, next);
///
/// let mut sim = Simulator::new(n);
/// sim.poke_by_name("enable", 1)?;
/// sim.step();
/// sim.step();
/// assert_eq!(sim.peek(count.value()).as_u64(), 2);
/// # Ok::<(), sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    netlist: Netlist,
    /// The combinational nodes, compiled, in creation order.
    ops: Vec<Op>,
    /// `(register slot, next-state slot)` of every register, or `None` when
    /// some register has no next-state expression (only clocking needs one).
    latch: Option<Vec<(u32, u32)>>,
    /// Value of every signal, indexed by signal index and masked to its
    /// width. Constant, register and input slots are always current; the
    /// combinational slots are current unless `dirty`.
    values: Vec<u64>,
    /// The next-state values read at a clock edge before any register slot
    /// is overwritten.
    staged: Vec<u64>,
    cycle: u64,
    dirty: bool,
}

/// One compiled combinational node: `values[dst]` is `kind` applied to
/// `values[a]`, `values[b]` and `values[c]` (operands an operator does not
/// use repeat one it does).
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: Kind,
    /// The width of operand `a` for unary and binary operators, `lo` for a
    /// slice and the width of the low part for a concatenation.
    aux: u32,
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
    /// Mask of the result width.
    mask: u64,
}

/// The operator of an [`Op`]: the `rtl` operators, flattened.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Not,
    Neg,
    ReduceOr,
    ReduceAnd,
    ReduceXor,
    And,
    Or,
    Xor,
    Add,
    Sub,
    Eq,
    Ne,
    Ult,
    Ule,
    Slt,
    Shl,
    Shr,
    Mux,
    Slice,
    Concat,
}

/// The all-ones value of a width in `1..=64`.
fn width_mask(width: u32) -> u64 {
    u64::MAX >> (64 - width)
}

/// Whether a node's slot is written directly rather than computed.
fn is_leaf(node: &Node) -> bool {
    matches!(
        node,
        Node::Input { .. } | Node::Register { .. } | Node::Const(_)
    )
}

impl Op {
    /// Compiles the combinational node `id`; `None` for a leaf.
    fn compile(netlist: &Netlist, id: SignalId) -> Option<Self> {
        let node = netlist.node(id);
        let (kind, a, b, c, aux) = match *node {
            Node::Input { .. } | Node::Register { .. } | Node::Const(_) => return None,
            Node::Unary { op, a, .. } => {
                let kind = match op {
                    UnaryOp::Not => Kind::Not,
                    UnaryOp::Neg => Kind::Neg,
                    UnaryOp::ReduceOr => Kind::ReduceOr,
                    UnaryOp::ReduceAnd => Kind::ReduceAnd,
                    UnaryOp::ReduceXor => Kind::ReduceXor,
                };
                (kind, a, a, a, netlist.width(a))
            }
            Node::Binary { op, a, b, .. } => {
                let kind = match op {
                    BinaryOp::And => Kind::And,
                    BinaryOp::Or => Kind::Or,
                    BinaryOp::Xor => Kind::Xor,
                    BinaryOp::Add => Kind::Add,
                    BinaryOp::Sub => Kind::Sub,
                    BinaryOp::Eq => Kind::Eq,
                    BinaryOp::Ne => Kind::Ne,
                    BinaryOp::Ult => Kind::Ult,
                    BinaryOp::Ule => Kind::Ule,
                    BinaryOp::Slt => Kind::Slt,
                    BinaryOp::Shl => Kind::Shl,
                    BinaryOp::Shr => Kind::Shr,
                };
                (kind, a, b, b, netlist.width(a))
            }
            Node::Mux {
                cond, then_, else_, ..
            } => (Kind::Mux, cond, then_, else_, 0),
            Node::Slice { a, lo, .. } => (Kind::Slice, a, a, a, lo),
            Node::Concat { hi, lo, .. } => (Kind::Concat, hi, lo, lo, netlist.width(lo)),
        };
        let slot = |s: SignalId| s.index() as u32;
        Some(Op {
            kind,
            aux,
            dst: slot(id),
            a: slot(a),
            b: slot(b),
            c: slot(c),
            mask: width_mask(node.width()),
        })
    }
}

/// Errors reported by the simulator's name-based access methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No input port with the requested name exists.
    UnknownInput(String),
    /// No register with the requested name exists.
    UnknownRegister(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnknownInput(n) => write!(f, "unknown input port `{n}`"),
            SimError::UnknownRegister(n) => write!(f, "unknown register `{n}`"),
        }
    }
}

impl std::error::Error for SimError {}

impl Simulator {
    /// Creates a simulator for a netlist, resetting registers to their
    /// initial values (or zero when they have none).
    pub fn new(netlist: Netlist) -> Self {
        let mut ops = Vec::new();
        let mut values = vec![0; netlist.len()];
        for id in netlist.signals() {
            match netlist.node(id) {
                Node::Const(v) => values[id.index()] = v.as_u64(),
                _ => ops.extend(Op::compile(&netlist, id)),
            }
        }
        let latch = netlist
            .registers()
            .iter()
            .map(|r| Some((r.signal.index() as u32, r.next?.index() as u32)))
            .collect();
        let mut sim = Self {
            netlist,
            ops,
            latch,
            values,
            staged: Vec::new(),
            cycle: 0,
            dirty: true,
        };
        sim.reset();
        sim
    }

    /// The simulated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Number of clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Resets every register to its declared initial value (zero when none)
    /// and clears the cycle counter. Poked input values are retained.
    pub fn reset(&mut self) {
        for info in self.netlist.registers() {
            self.values[info.signal.index()] = info.init.map_or(0, |v| v.as_u64());
        }
        self.cycle = 0;
        self.dirty = true;
    }

    /// Sets a primary input by signal id, truncating the value to the port
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `input` is not a primary input: every other signal is a
    /// constant, a register (see [`Simulator::set_register`]) or computed.
    pub fn poke(&mut self, input: SignalId, value: u64) {
        let Node::Input { width, .. } = *self.netlist.node(input) else {
            panic!(
                "cannot poke `{}`: not a primary input",
                self.netlist.signal_name(input)
            );
        };
        self.values[input.index()] = value & width_mask(width);
        self.dirty = true;
    }

    /// Sets a primary input by port name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownInput`] if no input port has that name.
    pub fn poke_by_name(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        let input = self
            .netlist
            .find_input(name)
            .ok_or_else(|| SimError::UnknownInput(name.to_string()))?;
        self.poke(input, value);
        Ok(())
    }

    /// Overrides the current value of a register (e.g. to preload a memory
    /// image or to start from a specific microarchitectural state).
    pub fn set_register(&mut self, register: RegisterId, value: u64) {
        let info = self.netlist.register_info(register);
        self.values[info.signal.index()] = value & width_mask(info.width);
        self.dirty = true;
    }

    /// Overrides a register selected by its hierarchical name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRegister`] if no register has that name.
    pub fn set_register_by_name(&mut self, name: &str, value: u64) -> Result<(), SimError> {
        let reg = self
            .netlist
            .find_register(name)
            .ok_or_else(|| SimError::UnknownRegister(name.to_string()))?;
        self.set_register(reg, value);
        Ok(())
    }

    /// Current value of a register.
    pub fn register_value(&self, register: RegisterId) -> BitVec {
        let info = self.netlist.register_info(register);
        BitVec::new(self.values[info.signal.index()], info.width)
    }

    /// Current value of a register selected by name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownRegister`] if no register has that name.
    pub fn register_by_name(&self, name: &str) -> Result<BitVec, SimError> {
        let reg = self
            .netlist
            .find_register(name)
            .ok_or_else(|| SimError::UnknownRegister(name.to_string()))?;
        Ok(self.register_value(reg))
    }

    /// Re-evaluates the combinational logic for the current inputs and
    /// register state without advancing the clock: one pass over the
    /// compiled ops, skipped when nothing was written since the last one.
    pub fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        let v = &mut self.values;
        for op in &self.ops {
            let a = v[op.a as usize];
            let b = v[op.b as usize];
            v[op.dst as usize] = match op.kind {
                Kind::Not => !a & op.mask,
                Kind::Neg => a.wrapping_neg() & op.mask,
                Kind::ReduceOr => u64::from(a != 0),
                Kind::ReduceAnd => u64::from(a == width_mask(op.aux)),
                Kind::ReduceXor => u64::from(a.count_ones() % 2 == 1),
                Kind::And => a & b,
                Kind::Or => a | b,
                Kind::Xor => a ^ b,
                Kind::Add => a.wrapping_add(b) & op.mask,
                Kind::Sub => a.wrapping_sub(b) & op.mask,
                Kind::Eq => u64::from(a == b),
                Kind::Ne => u64::from(a != b),
                Kind::Ult => u64::from(a < b),
                Kind::Ule => u64::from(a <= b),
                Kind::Slt => {
                    // Move the sign bit to bit 63 and compare as signed.
                    let up = 64 - op.aux;
                    u64::from(((a << up) as i64) < ((b << up) as i64))
                }
                // A shift by the width or more clears every bit.
                Kind::Shl if b < u64::from(op.aux) => (a << b) & op.mask,
                Kind::Shr if b < u64::from(op.aux) => a >> b,
                Kind::Shl | Kind::Shr => 0,
                Kind::Mux => {
                    if a != 0 {
                        b
                    } else {
                        v[op.c as usize]
                    }
                }
                Kind::Slice => (a >> op.aux) & op.mask,
                Kind::Concat => (a << op.aux) | b,
            };
        }
        self.dirty = false;
    }

    /// Current value of an arbitrary signal. A register, input or constant
    /// is read from its slot; a combinational signal first settles the
    /// logic if a write made it stale.
    pub fn peek(&mut self, signal: SignalId) -> BitVec {
        let node = self.netlist.node(signal);
        let width = node.width();
        if !is_leaf(node) {
            self.settle();
        }
        BitVec::new(self.values[signal.index()], width)
    }

    /// Advances the simulation by one clock cycle: settles the
    /// combinational logic if it is stale and clocks every register's
    /// next-state value. The logic is left stale until something reads it.
    ///
    /// # Panics
    ///
    /// Panics if a register has no next-state expression (a netlist that
    /// does not validate).
    pub fn step(&mut self) {
        self.settle();
        let latch = self
            .latch
            .as_deref()
            .expect("validated netlists give every register a next-state");
        self.staged.clear();
        self.staged
            .extend(latch.iter().map(|&(_, next)| self.values[next as usize]));
        for (&(register, _), &value) in latch.iter().zip(&self.staged) {
            self.values[register as usize] = value;
        }
        self.cycle += 1;
        self.dirty = true;
    }

    /// Runs `cycles` clock cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Steps until `predicate` returns true or `max_cycles` elapse; returns
    /// the number of cycles stepped, or `None` if the bound was hit first.
    pub fn step_until<F>(&mut self, max_cycles: u64, mut predicate: F) -> Option<u64>
    where
        F: FnMut(&mut Simulator) -> bool,
    {
        for i in 0..max_cycles {
            if predicate(self) {
                return Some(i);
            }
            self.step();
        }
        if predicate(self) {
            return Some(max_cycles);
        }
        None
    }

    /// Snapshot of all register values, indexed like
    /// [`rtl::Netlist::registers`].
    pub fn register_snapshot(&self) -> Vec<BitVec> {
        self.netlist
            .register_ids()
            .map(|r| self.register_value(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An enabled 8-bit counter and its register's value signal.
    fn counter_netlist() -> (Netlist, SignalId) {
        let mut n = Netlist::new("counter");
        let enable = n.input("enable", 1);
        let count = n.register_init("count", 8, BitVec::zero(8));
        let one = n.lit(1, 8);
        let inc = n.add(count.value(), one);
        let next = n.mux(enable, inc, count.value());
        n.set_next(count, next);
        (n, count.value())
    }

    #[test]
    fn counter_counts_when_enabled() {
        let (netlist, count) = counter_netlist();
        let mut sim = Simulator::new(netlist);
        sim.poke_by_name("enable", 1).unwrap();
        sim.run(5);
        assert_eq!(sim.peek(count).as_u64(), 5);
        sim.poke_by_name("enable", 0).unwrap();
        sim.run(3);
        assert_eq!(sim.peek(count).as_u64(), 5);
        assert_eq!(sim.cycle(), 8);
    }

    #[test]
    fn reset_restores_initial_state() {
        let (netlist, count) = counter_netlist();
        let mut sim = Simulator::new(netlist);
        sim.poke_by_name("enable", 1).unwrap();
        sim.run(4);
        sim.reset();
        assert_eq!(sim.cycle(), 0);
        assert_eq!(sim.peek(count).as_u64(), 0);
    }

    #[test]
    fn set_register_overrides_state() {
        let (netlist, count) = counter_netlist();
        let mut sim = Simulator::new(netlist);
        sim.set_register_by_name("count", 250).unwrap();
        sim.poke_by_name("enable", 1).unwrap();
        sim.run(10);
        // 250 + 10 wraps modulo 256.
        assert_eq!(sim.peek(count).as_u64(), 4);
    }

    #[test]
    fn unknown_names_error() {
        let mut sim = Simulator::new(counter_netlist().0);
        assert!(matches!(
            sim.poke_by_name("nope", 1),
            Err(SimError::UnknownInput(_))
        ));
        assert!(matches!(
            sim.register_by_name("nope"),
            Err(SimError::UnknownRegister(_))
        ));
    }

    #[test]
    fn step_until_reports_latency() {
        let (netlist, count) = counter_netlist();
        let mut sim = Simulator::new(netlist);
        sim.poke_by_name("enable", 1).unwrap();
        let cycles = sim.step_until(100, |s| s.peek(count).as_u64() == 7);
        assert_eq!(cycles, Some(7));
        let timeout = sim.step_until(3, |s| s.peek(count).as_u64() == 200);
        assert_eq!(timeout, None);
    }

    #[test]
    fn poke_truncates_to_width() {
        let (netlist, count) = counter_netlist();
        let mut sim = Simulator::new(netlist);
        sim.poke_by_name("enable", 0xfe).unwrap(); // LSB is 0
        sim.run(2);
        assert_eq!(sim.peek(count).as_u64(), 0);
    }
}
