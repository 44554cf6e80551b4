//! # `sim` — cycle-accurate simulation of `rtl` netlists
//!
//! The simulator plays three roles in the UPEC reproduction:
//!
//! 1. **Functional validation** of the MiniRV SoC designs (the stand-ins for
//!    RocketChip): the ISA-level golden model in the `soc` crate is checked
//!    against the RTL by co-simulation.
//! 2. **Attack demonstration**: the Orc attack (paper Fig. 2) and the
//!    Meltdown-style cache footprint (paper Fig. 1) are *timing* phenomena.
//!    The examples and benches run the attacker programs on the simulator
//!    and measure cycle counts, exactly as an attacker with access to a
//!    cycle counter would.
//! 3. **Verdict certification**: bounded-model-checking counterexamples are
//!    decoded into [`WitnessTrace`]s and replayed here, confirming each
//!    violation through the word-level semantics with no solver in the loop
//!    (see `docs/certificates.md` at the repository root).
//!
//! The simulator is a two-value, word-level evaluator. [`Simulator::new`]
//! compiles the netlist once into a flat list of ops over a `u64` value
//! array with one slot per signal, in the netlist's creation order (which is
//! topological). Poking an input, setting a register, resetting and
//! clocking only write leaf slots and mark the logic stale; the logic
//! settles in one pass over the ops when a combinational signal is peeked
//! or a clock edge needs the next state. A peek of a register, input or
//! constant reads its slot without settling. Driving a design the usual way
//! (poke the inputs, peek what they drive, step) therefore costs one pass
//! per cycle.
//!
//! # Example
//!
//! ```
//! use rtl::{Netlist, BitVec};
//! use sim::Simulator;
//!
//! let mut n = Netlist::new("toggler");
//! let t = n.register_init("t", 1, BitVec::zero(1));
//! let inverted = n.not(t.value());
//! n.set_next(t, inverted);
//!
//! let mut sim = Simulator::new(n);
//! sim.step();
//! assert_eq!(sim.peek(t.value()).as_u64(), 1);
//! sim.step();
//! assert_eq!(sim.peek(t.value()).as_u64(), 0);
//! ```

#![warn(missing_docs)]

mod replay;
mod simulator;

pub use replay::WitnessTrace;
pub use simulator::{SimError, Simulator};
