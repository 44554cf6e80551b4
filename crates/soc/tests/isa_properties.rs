//! Randomized tests of the MiniRV instruction encoding and of the golden
//! model's architectural invariants, driven by [`rtl::SplitMix64`].

use rtl::SplitMix64;
use soc::isa::{csr, Instruction};
use soc::{
    GoldenModel, Program, SocConfig, SocVariant, PROTECTED_BASE, PROTECTED_TOP, SECRET_ADDR,
};

fn random_instruction(rng: &mut SplitMix64) -> Instruction {
    let rd = rng.gen_range(0..32) as u32;
    let rs1 = rng.gen_range(0..32) as u32;
    let rs2 = rng.gen_range(0..32) as u32;
    let aligned = (rng.gen_range(-512..512) as i32) & !3;
    match rng.gen_range(0..14) {
        0 => Instruction::Jal {
            rd,
            offset: aligned & !1,
        },
        1 => Instruction::Beq {
            rs1,
            rs2,
            offset: aligned & !1,
        },
        2 => Instruction::Bne {
            rs1,
            rs2,
            offset: aligned & !1,
        },
        3 => Instruction::Addi {
            rd,
            rs1,
            imm: rng.gen_range(-2048..2048) as i32,
        },
        4 => Instruction::Xori {
            rd,
            rs1,
            imm: rng.gen_range(-2048..2048) as i32,
        },
        5 => Instruction::Lw {
            rd,
            rs1,
            offset: rng.gen_range(-2048..2048) as i32,
        },
        6 => Instruction::Sw {
            rs1,
            rs2,
            offset: rng.gen_range(-2048..2048) as i32,
        },
        7 => Instruction::Add { rd, rs1, rs2 },
        8 => Instruction::Sub { rd, rs1, rs2 },
        9 => Instruction::Sltu { rd, rs1, rs2 },
        10 => Instruction::Lui {
            rd,
            imm: (rng.next_u64() as u32) & 0xffff_f000,
        },
        11 => Instruction::Csrrw {
            rd,
            csr: csr::PMPADDR0,
            rs1,
        },
        12 => Instruction::Csrrs {
            rd,
            csr: csr::CYCLE,
            rs1,
        },
        _ => Instruction::Mret,
    }
}

/// Every instruction survives an encode/decode round trip.
#[test]
fn encode_decode_roundtrip() {
    let mut rng = SplitMix64::new(0x15a);
    for _ in 0..512 {
        let ins = random_instruction(&mut rng);
        let encoded = ins.encode();
        assert_eq!(Instruction::decode(encoded), ins, "{ins:?}");
    }
}

/// Decoding never panics, whatever the word.
#[test]
fn decode_is_total() {
    let mut rng = SplitMix64::new(0xdec0de);
    for _ in 0..4096 {
        let _ = Instruction::decode(rng.next_u64() as u32);
    }
    // Also sweep some structured corner words.
    for word in [0, u32::MAX, 0x7f, 0xffff_ff7f, 0x0000_0073] {
        let _ = Instruction::decode(word);
    }
}

/// Architectural invariants of the golden model: x0 stays zero, the PC stays
/// word aligned, and a locked PMP region keeps protecting the secret no
/// matter what user-mode code runs.
#[test]
fn golden_model_invariants() {
    let mut rng = SplitMix64::new(0x601d);
    for case in 0..64 {
        let len = rng.gen_range(1..30) as usize;
        let config = SocConfig::new(SocVariant::Secure);
        let mut program = Program::new(0);
        for _ in 0..len {
            program.push(random_instruction(&mut rng));
        }
        let mut model = GoldenModel::new(&config);
        model.protect_region(PROTECTED_BASE, PROTECTED_TOP);
        model.store_word(SECRET_ADDR, 0x5ec2e7);
        for _ in 0..len * 2 {
            model.step(&program, &config);
            assert_eq!(model.regs[0], 0, "case {case}: x0 must stay zero");
            assert_eq!(model.pc % 4, 0, "case {case}: pc must stay word aligned");
            if model.mode == soc::Mode::Machine {
                // A trap was taken; from here on the random words execute as
                // "kernel" code, which is architecturally allowed to read the
                // secret, so the user-mode confidentiality check stops.
                break;
            }
            // While execution stays in user mode, no architectural register
            // may ever hold the protected secret.
            for (i, &r) in model.regs.iter().enumerate() {
                assert_ne!(r, 0x5ec2e7, "case {case}: x{i} received the secret");
            }
        }
    }
}
