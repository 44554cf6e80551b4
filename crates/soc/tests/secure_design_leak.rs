//! A program on which the secure design does not execute uniquely.
//!
//! The fuzz miner finds it at seed `0xdabd_4c19 + 25`, case 90, and
//! `fuzz::minimize` cuts it to the nine instructions below. Run twice with
//! the two oracle secrets, the secure design ends with the secret in `x6`
//! (0x184 versus 0x190), although both runs end in the same trap state:
//! machine mode, `mcause` 7 (store access fault), `mepc` 0xc.
//!
//! The store at 0xc faults and fetch moves to the trap vector 0x100 in
//! machine mode. Two cycles later fetch is at 0x20, the target of the `bne`
//! at 0x18. That branch is younger than the faulting store and should have
//! been flushed with it; instead the final `lw` reads the protected secret
//! with machine privilege. The Meltdown-style variant diverges on this
//! program too; the Orc variant does not.

use soc::fuzz::{self, FuzzOptions};
use soc::{Instruction, Program, SocConfig, SocVariant};

/// `addi x2,x0,80; sub x3,x7,x2; addi x2,x0,512; sw x4,8(x2); lw x5,0(x1);
/// lw x6,0(x5); bne x3,x0,+8; add x6,x0,x3; lw x6,0(x2)` at base 0.
fn leak_program() -> Program {
    let mut p = Program::new(0);
    p.push(Instruction::Addi {
        rd: 2,
        rs1: 0,
        imm: 80,
    });
    p.push(Instruction::Sub {
        rd: 3,
        rs1: 7,
        rs2: 2,
    });
    p.push(Instruction::Addi {
        rd: 2,
        rs1: 0,
        imm: 512,
    });
    p.push(Instruction::Sw {
        rs1: 2,
        rs2: 4,
        offset: 8,
    });
    p.push(Instruction::Lw {
        rd: 5,
        rs1: 1,
        offset: 0,
    });
    p.push(Instruction::Lw {
        rd: 6,
        rs1: 5,
        offset: 0,
    });
    p.push(Instruction::Bne {
        rs1: 3,
        rs2: 0,
        offset: 8,
    });
    p.push(Instruction::Add {
        rd: 6,
        rs1: 0,
        rs2: 3,
    });
    p.push(Instruction::Lw {
        rd: 6,
        rs1: 2,
        offset: 0,
    });
    p
}

#[test]
#[ignore = "known bug in the secure design: a branch younger than a faulting \
            store is not flushed, so fetch follows it after the trap and a \
            load reads the secret with machine privilege (see ROADMAP.md)"]
fn secure_design_runs_the_mined_leak_program_uniquely() {
    let config = SocConfig::new(SocVariant::Secure);
    assert_eq!(
        fuzz::divergence(&config, &leak_program(), &FuzzOptions::default()),
        None
    );
}
