//! Cross-validation of the two engines that consume the RTL representation:
//! for random sequential designs and random stimuli, the bit-blasted
//! unrolling, with its frame-0 registers pinned to the simulator's reset
//! values, must agree cycle by cycle with the word-level simulator. Cases
//! come from the deterministic [`rtl::SplitMix64`].

use bmc::{CompiledTransition, UnrollOptions, Unrolling};
use rtl::{BitVec, Netlist, SignalId, SplitMix64};
use sim::Simulator;
use std::sync::Arc;

/// A small parameterized sequential design: an accumulator, a shift register
/// and a comparator, wired from two inputs. Returns the netlist, its inputs,
/// its registers and the observed signals.
fn build_design(width: u32) -> (Netlist, Vec<SignalId>, Vec<SignalId>, Vec<SignalId>) {
    let mut n = Netlist::new("random_seq");
    let a = n.input("a", width);
    let b = n.input("b", width);
    let acc = n.register_init("acc", width, BitVec::zero(width));
    let shift = n.register_init("shift", width, BitVec::zero(width));
    let sum = n.add(acc.value(), a);
    let gated = {
        let cond = n.ult(a, b);
        n.mux(cond, sum, acc.value())
    };
    n.set_next(acc, gated);
    let shifted = {
        let hi = n.slice(shift.value(), width - 2, 0);
        let lsb = n.bit(b, 0);
        n.concat(hi, lsb)
    };
    n.set_next(shift, shifted);
    let equal = n.eq(acc.value(), shift.value());
    let observed = vec![acc.value(), shift.value(), equal];
    (n, vec![a, b], vec![acc.value(), shift.value()], observed)
}

#[test]
fn unrolling_matches_simulator() {
    let mut rng = SplitMix64::new(0xb3c);
    for _ in 0..24 {
        let width = rng.gen_range(2..10) as u32;
        let len = rng.gen_range(1..6) as usize;
        let stimulus: Vec<(u64, u64)> =
            (0..len).map(|_| (rng.next_u64(), rng.next_u64())).collect();
        let (netlist, inputs, registers, observed) = build_design(width);

        // Simulator run.
        let mut simulator = Simulator::new(netlist.clone());
        let mut expected: Vec<Vec<BitVec>> = Vec::new();
        for &(a, b) in &stimulus {
            simulator.poke(inputs[0], a);
            simulator.poke(inputs[1], b);
            expected.push(observed.iter().map(|&s| simulator.peek(s)).collect());
            simulator.step();
        }

        // The unrolling starts symbolic: pin the registers to the
        // simulator's reset value (zero) at frame 0, and force the same
        // stimulus through constraints on the input words. Both inputs feed
        // the accumulator, so the observed signals' cone holds every signal
        // the test constrains.
        let compiled = Arc::new(CompiledTransition::compile(&netlist, &observed));
        let mut unrolling = Unrolling::with_compiled(compiled, UnrollOptions::default(), &[]);
        unrolling.extend_to(stimulus.len());
        for &register in &registers {
            unrolling
                .assume_signal_equals_const(0, register, 0)
                .unwrap();
        }
        // Materialize the observed signals in every frame: the lazy encoding
        // only encodes what queries reach.
        for frame in 0..=stimulus.len() {
            for &signal in &observed {
                unrolling.lits(frame, signal).unwrap();
            }
        }
        for (frame, &(a, b)) in stimulus.iter().enumerate() {
            unrolling
                .assume_signal_equals_const(frame, inputs[0], a)
                .unwrap();
            unrolling
                .assume_signal_equals_const(frame, inputs[1], b)
                .unwrap();
        }
        let result = unrolling.solve(&[]);
        let model = result.model().expect("constrained stimulus is consistent");
        for (frame, row) in expected.iter().enumerate() {
            for (&signal, value) in observed.iter().zip(row) {
                let got = unrolling.value_in_model(model, frame, signal).unwrap();
                assert_eq!(got, *value, "signal {signal:?} at frame {frame}");
            }
        }
    }
}
