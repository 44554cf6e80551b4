//! Replaying counterexample witness traces.
//!
//! A bounded-model-checking counterexample is a satisfying assignment over an
//! unrolled netlist. Decoded into concrete per-cycle input values plus a
//! concrete initial register state, it becomes a [`WitnessTrace`]: a
//! self-contained, name-based stimulus that any [`Simulator`] for the same
//! netlist can replay. Replaying the trace re-derives the counterexample's
//! final state through the word-level simulation semantics — an independent
//! confirmation that the SAT-level violation is real, with no bit-blasting,
//! CNF simplification or solver in the loop.

use crate::{SimError, Simulator};
use rtl::{BitVec, Netlist};

/// A concrete, replayable counterexample stimulus.
///
/// All signals are referenced by hierarchical *name*, not by id, so a trace
/// is meaningful on its own (it can be serialized, diffed and replayed
/// against a freshly rebuilt netlist). Signals a bounded-model-checking run
/// left unconstrained are recorded as zero by the decoder; any concrete
/// choice would do, because an unconstrained signal cannot influence the
/// violated property.
///
/// # Examples
///
/// ```
/// use rtl::{BitVec, Netlist};
/// use sim::WitnessTrace;
///
/// let mut n = Netlist::new("counter");
/// let enable = n.input("enable", 1);
/// let count = n.register_init("count", 8, BitVec::zero(8));
/// let one = n.lit(1, 8);
/// let inc = n.add(count.value(), one);
/// let next = n.mux(enable, inc, count.value());
/// n.set_next(count, next);
///
/// let trace = WitnessTrace {
///     initial_registers: vec![("count".into(), BitVec::new(3, 8))],
///     inputs: vec![
///         vec![("enable".into(), BitVec::new(1, 1))], // cycle 0 -> 1
///         vec![("enable".into(), BitVec::new(1, 1))], // cycle 1 -> 2
///         vec![("enable".into(), BitVec::new(0, 1))], // final-cycle inputs
///     ],
/// };
/// let mut seen = Vec::new();
/// let mut sim = trace.replay(n, |_, sim| seen.push(sim.peek(count.value()).as_u64()))?;
/// assert_eq!(seen, [3, 4, 5]); // the count at cycles 0, 1 and 2
/// assert_eq!(sim.cycle(), 2);
/// assert_eq!(sim.peek(count.value()).as_u64(), 5);
/// # Ok::<(), sim::SimError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WitnessTrace {
    /// Register values at cycle 0, as `(hierarchical name, value)` pairs.
    /// Registers not listed keep the simulator's default (their declared
    /// initial value, or zero).
    pub initial_registers: Vec<(String, BitVec)>,
    /// Input values per cycle, one entry per unrolling frame `0..=k`. Entry
    /// `c < k` is poked before the clock edge taking cycle `c` to `c + 1`;
    /// the final entry is poked without a clock edge, so combinational
    /// signals of the last cycle settle to their counterexample values.
    pub inputs: Vec<Vec<(String, BitVec)>>,
}

impl WitnessTrace {
    /// Number of clock cycles the trace spans (frames minus one; the final
    /// frame only constrains combinational inputs).
    pub fn cycles(&self) -> usize {
        self.inputs.len().saturating_sub(1)
    }

    /// Approximate in-memory footprint of the trace, for reporting.
    pub fn size_bytes(&self) -> usize {
        let binding = |pairs: &[(String, BitVec)]| -> usize {
            pairs
                .iter()
                .map(|(name, _)| name.len() + std::mem::size_of::<BitVec>())
                .sum::<usize>()
        };
        binding(&self.initial_registers)
            + self.inputs.iter().map(|f| binding(f)).sum::<usize>()
            + std::mem::size_of::<Self>()
    }

    /// Replays the trace on a fresh simulator for `netlist`: applies the
    /// initial register state, then walks the frames — clocking into cycle
    /// `c` (for `c > 0`), poking frame `c`'s inputs and handing the
    /// simulator to `on_frame(c, &mut sim)`, which may peek any signal of
    /// cycle `c` — and finally settles the last frame without a clock edge.
    /// The returned simulator sits at cycle [`WitnessTrace::cycles`] ready
    /// for inspection with [`Simulator::register_by_name`] /
    /// [`Simulator::peek`].
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SimError`] if a name does not resolve in the
    /// netlist.
    pub fn replay(
        &self,
        netlist: Netlist,
        mut on_frame: impl FnMut(usize, &mut Simulator),
    ) -> Result<Simulator, SimError> {
        let mut sim = Simulator::new(netlist);
        for (name, value) in &self.initial_registers {
            sim.set_register_by_name(name, value.as_u64())?;
        }
        for (cycle, frame) in self.inputs.iter().enumerate() {
            if cycle > 0 {
                sim.step();
            }
            for (name, value) in frame {
                sim.poke_by_name(name, value.as_u64())?;
            }
            on_frame(cycle, &mut sim);
        }
        sim.settle();
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtl::SignalId;

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
    fn replay_applies_registers_and_per_cycle_inputs() {
        let trace = WitnessTrace {
            initial_registers: vec![("count".into(), BitVec::new(10, 8))],
            inputs: vec![
                vec![("enable".into(), BitVec::new(1, 1))],
                vec![("enable".into(), BitVec::new(0, 1))],
                vec![("enable".into(), BitVec::new(1, 1))],
                vec![],
            ],
        };
        let (netlist, count) = counter_netlist();
        let mut sim = trace.replay(netlist, |_, _| {}).unwrap();
        assert_eq!(trace.cycles(), 3);
        assert_eq!(sim.cycle(), 3);
        // 10, +1 (enabled), hold (disabled), +1 (enabled) = 12.
        assert_eq!(sim.peek(count).as_u64(), 12);
    }

    #[test]
    fn empty_trace_only_settles() {
        let trace = WitnessTrace::default();
        let mut frames = 0;
        let (netlist, count) = counter_netlist();
        let mut sim = trace.replay(netlist, |_, _| frames += 1).unwrap();
        assert_eq!(frames, 0);
        assert_eq!(sim.cycle(), 0);
        assert_eq!(sim.peek(count).as_u64(), 0);
        assert_eq!(trace.cycles(), 0);
    }

    #[test]
    fn unknown_names_surface_as_errors() {
        let trace = WitnessTrace {
            initial_registers: vec![("nope".into(), BitVec::new(1, 8))],
            inputs: Vec::new(),
        };
        assert!(matches!(
            trace.replay(counter_netlist().0, |_, _| {}),
            Err(SimError::UnknownRegister(_))
        ));
    }

    #[test]
    fn size_accounting_is_monotone() {
        let empty = WitnessTrace::default();
        let trace = WitnessTrace {
            initial_registers: vec![("count".into(), BitVec::new(10, 8))],
            inputs: vec![vec![("enable".into(), BitVec::new(1, 1))]],
        };
        assert!(trace.size_bytes() > empty.size_bytes());
    }
}
