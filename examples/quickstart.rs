//! Quickstart: run a program on the MiniRV SoC, then prove a UPEC property.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use soc::{Instruction, Program, SocConfig, SocSim, SocVariant};
use upec::{full_commitment, IncrementalSession, SecretScenario, UpecModel};

fn main() {
    // ------------------------------------------------------------------
    // 1. Run a tiny program on the cycle-accurate RTL simulation.
    // ------------------------------------------------------------------
    let config = SocConfig::new(SocVariant::Secure);
    let mut program = Program::new(0);
    program.push(Instruction::Addi {
        rd: 1,
        rs1: 0,
        imm: 0x40,
    });
    program.push(Instruction::Addi {
        rd: 2,
        rs1: 0,
        imm: 21,
    });
    program.push(Instruction::Add {
        rd: 2,
        rs1: 2,
        rs2: 2,
    });
    program.push(Instruction::Sw {
        rs1: 1,
        rs2: 2,
        offset: 0,
    });
    program.push(Instruction::Lw {
        rd: 3,
        rs1: 1,
        offset: 0,
    });
    program.push_nops(4);
    println!("Program:\n{}", program.listing());

    let mut sim = SocSim::new(config, program);
    sim.run(60);
    println!(
        "x2 = {}, x3 = {}, mem[0x40] = {}",
        sim.reg(2),
        sim.reg(3),
        sim.load_word(0x40)
    );
    assert_eq!(sim.reg(3), 42);

    // ------------------------------------------------------------------
    // 2. Prove unique program execution for the "secret not in cache" case
    //    on a small configuration (fast enough for a quickstart).
    // ------------------------------------------------------------------
    let small = SocConfig::formal(SocVariant::Secure);
    let model = UpecModel::new(&small, SecretScenario::NotInCache);
    let outcome = IncrementalSession::new(&model).check_bound(2, &full_commitment(&model));
    println!(
        "UPEC (secret not cached, window 2): proven = {} ({} CNF variables, {:?})",
        outcome.is_proven(),
        outcome.stats().variables,
        outcome.stats().runtime
    );
    assert!(outcome.is_proven());
    println!("No covert channel: the design executes every program uniquely.");
}
