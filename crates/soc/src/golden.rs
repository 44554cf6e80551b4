//! ISA-level golden model used for co-simulation against the RTL.

use crate::isa::{cause, csr, Instruction, Program};
use crate::{SocConfig, SocVariant, TRAP_VECTOR};
use std::collections::BTreeMap;

/// Privilege mode of the hart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// User mode (PMP checks apply).
    User,
    /// Machine mode (unrestricted memory access).
    Machine,
}

/// Architectural state and instruction-accurate interpreter for MiniRV.
///
/// The golden model executes programs at the ISA level — one instruction per
/// step, no pipeline, no cache — and serves as the reference against which
/// the RTL core is co-simulated. It implements the same PMP semantics as the
/// hardware (including, optionally, the TOR lock bug, so the ISA-compliance
/// violation of paper Sec. VII-C can be demonstrated as a divergence from a
/// *correct* golden model).
#[derive(Debug, Clone)]
pub struct GoldenModel {
    /// General-purpose registers.
    pub regs: [u32; 32],
    /// Program counter.
    pub pc: u32,
    /// Privilege mode.
    pub mode: Mode,
    /// Machine exception PC.
    pub mepc: u32,
    /// Machine trap cause.
    pub mcause: u32,
    /// Machine trap vector.
    pub mtvec: u32,
    /// PMP address registers (TOR tops, word addresses).
    pub pmpaddr: [u32; 2],
    /// PMP configuration byte per entry (R=bit0, W=bit1, X=bit2, A=TOR
    /// assumed, L=bit7).
    pub pmpcfg: [u32; 2],
    /// Retired-instruction counter (used as the cycle CSR value at ISA
    /// level).
    pub cycles: u64,
    /// Data memory, word addressed.
    pub memory: BTreeMap<u32, u32>,
    num_registers: u32,
}

impl GoldenModel {
    /// Creates a golden model with the register count of `config`, all state
    /// zeroed and user mode selected.
    pub fn new(config: &SocConfig) -> Self {
        Self {
            regs: [0; 32],
            pc: 0,
            mode: Mode::User,
            mepc: 0,
            mcause: 0,
            mtvec: TRAP_VECTOR,
            pmpaddr: [0; 2],
            pmpcfg: [0; 2],
            cycles: 0,
            memory: BTreeMap::new(),
            num_registers: config.num_registers,
        }
    }

    /// Writes a word into data memory.
    pub fn store_word(&mut self, addr: u32, value: u32) {
        self.memory.insert(addr & !3, value);
    }

    /// Reads a word from data memory (zero when never written).
    pub fn load_word(&self, addr: u32) -> u32 {
        self.memory.get(&(addr & !3)).copied().unwrap_or(0)
    }

    /// Configures the PMP so that `[base, top)` is inaccessible to user mode
    /// and locked, matching the `secret_data_protected` assumption of the
    /// UPEC property.
    pub fn protect_region(&mut self, base: u32, top: u32) {
        self.pmpaddr[0] = base >> 2;
        self.pmpaddr[1] = top >> 2;
        // Entry 0: region below the protected range, full user permissions.
        self.pmpcfg[0] = 0x07;
        // Entry 1: the protected range, no permissions, locked.
        self.pmpcfg[1] = 0x80;
    }

    fn read_reg(&self, r: u32) -> u32 {
        if r == 0 {
            0
        } else {
            self.regs[(r % self.num_registers) as usize]
        }
    }

    fn write_reg(&mut self, r: u32, value: u32) {
        let r = r % self.num_registers;
        if r != 0 {
            self.regs[r as usize] = value;
        }
    }

    /// PMP check: is a data access to `addr` permitted in the current mode?
    ///
    /// Machine mode is unrestricted; user mode accesses must fall in a TOR
    /// region whose configuration grants read/write permission.
    pub fn pmp_allows(&self, addr: u32) -> bool {
        if self.mode == Mode::Machine {
            return true;
        }
        let word = addr >> 2;
        let mut base = 0u32;
        for entry in 0..2 {
            let top = self.pmpaddr[entry];
            if word >= base && word < top {
                let cfg = self.pmpcfg[entry];
                return cfg & 0x3 == 0x3; // needs both R and W for simplicity
            }
            base = top;
        }
        // Outside every region: permitted (matches the RTL default).
        true
    }

    fn csr_read(&self, addr: u32) -> u32 {
        match addr {
            csr::MTVEC => self.mtvec,
            csr::MEPC => self.mepc,
            csr::MCAUSE => self.mcause,
            csr::PMPCFG0 => self.pmpcfg[0] | (self.pmpcfg[1] << 8),
            csr::PMPADDR0 => self.pmpaddr[0],
            csr::PMPADDR1 => self.pmpaddr[1],
            csr::CYCLE => self.cycles as u32,
            _ => 0,
        }
    }

    fn csr_write(&mut self, addr: u32, value: u32, config: &SocConfig) {
        if self.mode != Mode::Machine {
            return; // CSR writes are privileged; silently ignored here.
        }
        match addr {
            csr::MTVEC => self.mtvec = value,
            csr::MEPC => self.mepc = value,
            csr::MCAUSE => self.mcause = value,
            csr::PMPCFG0 => {
                if self.pmpcfg[0] & 0x80 == 0 {
                    self.pmpcfg[0] = value & 0xff;
                }
                if self.pmpcfg[1] & 0x80 == 0 {
                    self.pmpcfg[1] = (value >> 8) & 0xff;
                }
            }
            csr::PMPADDR0 => {
                // The RISC-V spec: if entry 1 is locked and in TOR mode, the
                // preceding address register (pmpaddr0) is locked too. The
                // buggy variant omits exactly this rule.
                let locked_by_self = self.pmpcfg[0] & 0x80 != 0;
                let locked_by_tor_rule =
                    config.variant() != SocVariant::PmpLockBug && (self.pmpcfg[1] & 0x80 != 0);
                if !locked_by_self && !locked_by_tor_rule {
                    self.pmpaddr[0] = value;
                }
            }
            csr::PMPADDR1 if self.pmpcfg[1] & 0x80 == 0 => {
                self.pmpaddr[1] = value;
            }
            _ => {}
        }
    }

    fn trap(&mut self, cause_code: u32, faulting_pc: u32) {
        self.mepc = faulting_pc;
        self.mcause = cause_code;
        self.mode = Mode::Machine;
        self.pc = self.mtvec;
    }

    /// Executes a single instruction fetched from `program`.
    ///
    /// Returns the executed instruction (before any trap redirection).
    pub fn step(&mut self, program: &Program, config: &SocConfig) -> Instruction {
        let instruction = program.fetch(self.pc).unwrap_or_else(Instruction::nop);
        let pc = self.pc;
        let mut next_pc = pc.wrapping_add(4);
        self.cycles += 1;
        use Instruction::*;
        match instruction {
            Lui { rd, imm } => self.write_reg(rd, imm),
            Jal { rd, offset } => {
                self.write_reg(rd, pc.wrapping_add(4));
                next_pc = pc.wrapping_add(offset as u32);
            }
            Beq { rs1, rs2, offset } => {
                if self.read_reg(rs1) == self.read_reg(rs2) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Bne { rs1, rs2, offset } => {
                if self.read_reg(rs1) != self.read_reg(rs2) {
                    next_pc = pc.wrapping_add(offset as u32);
                }
            }
            Lw { rd, rs1, offset } => {
                let addr = self.read_reg(rs1).wrapping_add(offset as u32);
                if self.pmp_allows(addr) {
                    let value = self.load_word(addr);
                    self.write_reg(rd, value);
                } else {
                    self.trap(cause::LOAD_ACCESS_FAULT, pc);
                    return instruction;
                }
            }
            Sw { rs1, rs2, offset } => {
                let addr = self.read_reg(rs1).wrapping_add(offset as u32);
                if self.pmp_allows(addr) {
                    let value = self.read_reg(rs2);
                    self.store_word(addr, value);
                } else {
                    self.trap(cause::STORE_ACCESS_FAULT, pc);
                    return instruction;
                }
            }
            Addi { rd, rs1, imm } => {
                self.write_reg(rd, self.read_reg(rs1).wrapping_add(imm as u32))
            }
            Andi { rd, rs1, imm } => self.write_reg(rd, self.read_reg(rs1) & imm as u32),
            Ori { rd, rs1, imm } => self.write_reg(rd, self.read_reg(rs1) | imm as u32),
            Xori { rd, rs1, imm } => self.write_reg(rd, self.read_reg(rs1) ^ imm as u32),
            Add { rd, rs1, rs2 } => {
                self.write_reg(rd, self.read_reg(rs1).wrapping_add(self.read_reg(rs2)))
            }
            Sub { rd, rs1, rs2 } => {
                self.write_reg(rd, self.read_reg(rs1).wrapping_sub(self.read_reg(rs2)))
            }
            And { rd, rs1, rs2 } => self.write_reg(rd, self.read_reg(rs1) & self.read_reg(rs2)),
            Or { rd, rs1, rs2 } => self.write_reg(rd, self.read_reg(rs1) | self.read_reg(rs2)),
            Xor { rd, rs1, rs2 } => self.write_reg(rd, self.read_reg(rs1) ^ self.read_reg(rs2)),
            Sltu { rd, rs1, rs2 } => {
                self.write_reg(rd, u32::from(self.read_reg(rs1) < self.read_reg(rs2)))
            }
            Csrrw { rd, csr: c, rs1 } => {
                let old = self.csr_read(c);
                let new = self.read_reg(rs1);
                self.csr_write(c, new, config);
                self.write_reg(rd, old);
            }
            Csrrs { rd, csr: c, rs1 } => {
                let old = self.csr_read(c);
                if rs1 != 0 {
                    self.csr_write(c, old | self.read_reg(rs1), config);
                }
                self.write_reg(rd, old);
            }
            Mret => {
                if self.mode == Mode::Machine {
                    self.mode = Mode::User;
                    next_pc = self.mepc;
                } else {
                    self.trap(cause::ILLEGAL_INSTRUCTION, pc);
                    return instruction;
                }
            }
            Illegal(_) => {
                self.trap(cause::ILLEGAL_INSTRUCTION, pc);
                return instruction;
            }
        }
        self.pc = next_pc;
        instruction
    }

    /// Runs until the PC leaves the program or `max_steps` instructions have
    /// executed; returns the number of executed instructions.
    pub fn run(&mut self, program: &Program, config: &SocConfig, max_steps: usize) -> usize {
        for executed in 0..max_steps {
            if program.fetch(self.pc).is_none() {
                return executed;
            }
            self.step(program, config);
        }
        max_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PROTECTED_BASE, PROTECTED_TOP, SECRET_ADDR};

    fn config() -> SocConfig {
        SocConfig::new(SocVariant::Secure)
    }

    #[test]
    fn arithmetic_and_branches() {
        let config = config();
        let mut p = Program::new(0);
        p.push(Instruction::Addi {
            rd: 1,
            rs1: 0,
            imm: 5,
        });
        p.push(Instruction::Addi {
            rd: 2,
            rs1: 0,
            imm: 7,
        });
        p.push(Instruction::Add {
            rd: 3,
            rs1: 1,
            rs2: 2,
        });
        p.push(Instruction::Beq {
            rs1: 3,
            rs2: 0,
            offset: 8,
        }); // not taken
        p.push(Instruction::Sub {
            rd: 4,
            rs1: 3,
            rs2: 1,
        });
        let mut m = GoldenModel::new(&config);
        m.run(&p, &config, 100);
        assert_eq!(m.regs[3], 12);
        assert_eq!(m.regs[4], 7);
    }

    #[test]
    fn loads_stores_and_x0() {
        let config = config();
        let mut p = Program::new(0);
        p.push(Instruction::Addi {
            rd: 1,
            rs1: 0,
            imm: 0x40,
        });
        p.push(Instruction::Addi {
            rd: 2,
            rs1: 0,
            imm: 99,
        });
        p.push(Instruction::Sw {
            rs1: 1,
            rs2: 2,
            offset: 4,
        });
        p.push(Instruction::Lw {
            rd: 3,
            rs1: 1,
            offset: 4,
        });
        p.push(Instruction::Addi {
            rd: 0,
            rs1: 3,
            imm: 1,
        }); // write to x0 ignored
        let mut m = GoldenModel::new(&config);
        m.run(&p, &config, 100);
        assert_eq!(m.load_word(0x44), 99);
        assert_eq!(m.regs[3], 99);
        assert_eq!(m.regs[0], 0);
    }

    #[test]
    fn protected_load_traps_and_mret_returns() {
        let config = config();
        let mut p = Program::new(0);
        p.push(Instruction::Addi {
            rd: 1,
            rs1: 0,
            imm: SECRET_ADDR as i32,
        });
        p.push(Instruction::Lw {
            rd: 4,
            rs1: 1,
            offset: 0,
        });
        p.push(Instruction::Addi {
            rd: 5,
            rs1: 0,
            imm: 1,
        });
        // Trap handler at the trap vector: mret back.
        let mut m = GoldenModel::new(&config);
        m.protect_region(PROTECTED_BASE, PROTECTED_TOP);
        m.store_word(SECRET_ADDR, 0xdead_beef);
        // Step 1: pointer setup; step 2: faulting load.
        m.step(&p, &config);
        m.step(&p, &config);
        assert_eq!(m.mode, Mode::Machine);
        assert_eq!(m.mcause, cause::LOAD_ACCESS_FAULT);
        assert_eq!(m.mepc, 4);
        assert_eq!(m.pc, TRAP_VECTOR);
        assert_eq!(m.regs[4], 0, "secret must not land in x4");
        // mret at the trap vector returns to user mode at mepc.
        let mut handler = Program::new(TRAP_VECTOR);
        handler.push(Instruction::Mret);
        m.step(&handler, &config);
        assert_eq!(m.mode, Mode::User);
        assert_eq!(m.pc, 4);
    }

    #[test]
    fn pmp_lock_rule_and_its_buggy_variant() {
        let correct = SocConfig::new(SocVariant::Secure);
        let buggy = SocConfig::new(SocVariant::PmpLockBug);
        for (config, expect_moved) in [(&correct, false), (&buggy, true)] {
            let mut m = GoldenModel::new(config);
            m.protect_region(PROTECTED_BASE, PROTECTED_TOP);
            m.mode = Mode::Machine;
            // Machine software tries to move the base of the locked region
            // upward so that the secret falls outside the protected range.
            let mut p = Program::new(0);
            p.push(Instruction::Addi {
                rd: 1,
                rs1: 0,
                imm: (PROTECTED_TOP >> 2) as i32,
            });
            p.push(Instruction::Csrrw {
                rd: 0,
                csr: csr::PMPADDR0,
                rs1: 1,
            });
            m.run(&p, config, 10);
            let moved = m.pmpaddr[0] == PROTECTED_TOP >> 2;
            assert_eq!(moved, expect_moved, "variant {:?}", config.variant());
            // With the bug, the "protected" secret is now user accessible.
            m.mode = Mode::User;
            assert_eq!(m.pmp_allows(SECRET_ADDR), expect_moved);
        }
    }

    #[test]
    fn csr_cycle_counts_retired_instructions() {
        let config = config();
        let mut p = Program::new(0);
        p.push_nops(3);
        p.push(Instruction::Csrrs {
            rd: 3,
            csr: csr::CYCLE,
            rs1: 0,
        });
        let mut m = GoldenModel::new(&config);
        m.run(&p, &config, 10);
        // The counter increments at the start of every step, so the read
        // observes the reading instruction itself as well.
        assert_eq!(m.regs[3], 4);
    }

    #[test]
    fn user_mode_cannot_write_pmp() {
        let config = config();
        let mut m = GoldenModel::new(&config);
        m.protect_region(PROTECTED_BASE, PROTECTED_TOP);
        let mut p = Program::new(0);
        p.push(Instruction::Addi {
            rd: 1,
            rs1: 0,
            imm: 0x7ff,
        });
        p.push(Instruction::Csrrw {
            rd: 0,
            csr: csr::PMPADDR1,
            rs1: 1,
        });
        m.run(&p, &config, 10);
        assert_eq!(m.pmpaddr[1], PROTECTED_TOP >> 2);
    }
}
