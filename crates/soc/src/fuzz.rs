//! TheHuzz-style instruction fuzzing over the SoC variants.
//!
//! This module is the front half of the repository's *fuzz → mine → minimize
//! → promote* pipeline (see `docs/scenarios.md`): a seeded, ISA-complete
//! random-program generator ([`ProgramGen`]), a two-secret execution oracle
//! that flags **unique-execution divergences** ([`divergence`]), a miner that
//! sweeps random programs across design variants ([`mine`]), and a
//! delta-debugging minimizer that shrinks each divergent program to a minimal
//! witness ([`minimize`]).
//!
//! The oracle is exactly UPEC's notion of leakage, evaluated on concrete
//! executions instead of a symbolic miter: a program executes *uniquely* iff
//! none of its observable effects (architectural registers, memory, trap and
//! completion timing, cache tag/valid footprint) depend on the value of the
//! PMP-protected secret. Running the same program twice with two different
//! secret values and diffing the observations is the simulation-level
//! counterpart of the two-instance miter the `upec` crate solves formally —
//! every divergence found here is a candidate scenario for the registry, with
//! the formal engine as the final judge.
//!
//! # Examples
//!
//! ```
//! use soc::fuzz::{FuzzOptions, ProgramGen};
//! use soc::{SocConfig, SocVariant};
//!
//! // Same seed, same program — the whole pipeline is reproducible.
//! let config = SocConfig::new(SocVariant::Secure);
//! let a = ProgramGen::new(7, &config).next_program(8);
//! let b = ProgramGen::new(7, &config).next_program(8);
//! assert_eq!(a, b);
//!
//! // The paper's transient sequence is a divergence witness on the
//! // Meltdown-style variant, and unique execution on the secure design.
//! let opts = FuzzOptions::default();
//! let program = upec_transient_demo();
//! assert!(soc::fuzz::divergence(&config, &program, &opts).is_none());
//! # use soc::{Instruction, Program};
//! # fn upec_transient_demo() -> Program {
//! #     let mut p = Program::new(0);
//! #     p.push(Instruction::Addi { rd: 1, rs1: 0, imm: soc::SECRET_ADDR as i32 });
//! #     p.push(Instruction::Lw { rd: 4, rs1: 1, offset: 0 });
//! #     p.push(Instruction::Lw { rd: 5, rs1: 4, offset: 0 });
//! #     p.push_nops(2);
//! #     p
//! # }
//! ```

use crate::{Instruction, Program, SocConfig, SocSim, SocVariant, PROTECTED_BASE, SECRET_ADDR};
use rtl::SplitMix64;

/// Word-aligned base of the scratch array every generated program may freely
/// load from and store to.
pub const SCRATCH_BASE: u32 = 0x40;

/// The oracle's first secret value. Secrets double as transiently
/// dereferenced addresses (the paper's Fig. 1 experiment), so both are
/// word-aligned and map to *different* cache lines and tags.
pub const SECRET_A: u32 = 0x184;
/// The oracle's second secret value.
pub const SECRET_B: u32 = 0x190;

/// Options of one fuzz-mining run. All fields are plain data so a run is
/// fully described by its options — equal options (and seeds) reproduce
/// byte-identical programs, divergences and witnesses.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Seed of the program generator.
    pub seed: u64,
    /// Number of programs to generate and execute.
    pub programs: usize,
    /// Minimum instruction count of a generated program body.
    pub min_len: usize,
    /// Maximum instruction count of a generated program body.
    pub max_len: usize,
    /// Design variants to sweep. The secure design is included by default as
    /// a soundness control: it must never diverge.
    pub variants: Vec<SocVariant>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        Self {
            seed: 0xdabd_4c19,
            programs: 200,
            min_len: 6,
            max_len: 16,
            variants: vec![
                SocVariant::Secure,
                SocVariant::MeltdownStyle,
                SocVariant::Orc,
            ],
        }
    }
}

impl FuzzOptions {
    /// Sets the program count (builder style).
    pub fn with_programs(mut self, programs: usize) -> Self {
        self.programs = programs;
        self
    }
}

/// Seeded random-program generator covering the full co-simulatable MiniRV
/// ISA.
///
/// The instruction mix includes every ALU operation, `lui`, forward branches
/// and `jal`, scratch-array loads/stores through two designated pointer
/// registers, pointer materialization (including a pointer at the protected
/// secret), and *dependent loads* whose base register is the destination of
/// the most recent load — the ingredient transient-execution attacks are made
/// of. CSR accesses and `mret` are deliberately excluded: the golden model's
/// cycle CSR counts retired instructions, not clock cycles, so programs
/// containing them would diverge from the RTL for benign timing reasons and
/// drown real signals.
///
/// `x1` and `x2` are pointer registers: only the pointer-materialization
/// class writes them, so loads and stores through them always target
/// well-known addresses.
#[derive(Debug, Clone)]
pub struct ProgramGen {
    rng: SplitMix64,
    num_registers: u32,
    pointer_pool: [i32; 4],
    pending: Vec<Instruction>,
}

impl ProgramGen {
    /// Creates a generator for programs runnable on `config`'s register file.
    pub fn new(seed: u64, config: &SocConfig) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            num_registers: config.num_registers,
            pointer_pool: [
                SCRATCH_BASE as i32,
                (SCRATCH_BASE + 16) as i32,
                0x80,
                SECRET_ADDR as i32,
            ],
            pending: Vec::new(),
        }
    }

    fn reg(&mut self) -> u32 {
        self.rng.gen_range(0..i64::from(self.num_registers)) as u32
    }

    /// A register that is not one of the pointer registers `x1`/`x2` (used
    /// as the destination of value-producing instructions, so pointers stay
    /// well-known addresses).
    fn data_reg(&mut self) -> u32 {
        loop {
            let r = self.reg();
            if r != 1 && r != 2 {
                return r;
            }
        }
    }

    fn pointer_reg(&mut self) -> u32 {
        if self.rng.gen_bool() {
            1
        } else {
            2
        }
    }

    /// Generates the next instruction of the stream.
    pub fn next_instruction(&mut self) -> Instruction {
        if !self.pending.is_empty() {
            return self.pending.remove(0);
        }
        let rd = self.data_reg();
        let rs1 = self.reg();
        let rs2 = self.reg();
        match self.rng.gen_range(0..20) {
            0 => Instruction::Addi {
                rd,
                rs1,
                imm: self.rng.gen_range(-512..512) as i32,
            },
            1 => Instruction::Add { rd, rs1, rs2 },
            2 => Instruction::Sub { rd, rs1, rs2 },
            3 => Instruction::Xor { rd, rs1, rs2 },
            4 => Instruction::Or { rd, rs1, rs2 },
            5 => Instruction::And { rd, rs1, rs2 },
            6 => Instruction::Sltu { rd, rs1, rs2 },
            7 => Instruction::Andi {
                rd,
                rs1,
                imm: self.rng.gen_range(0..256) as i32,
            },
            8 => Instruction::Ori {
                rd,
                rs1,
                imm: self.rng.gen_range(0..256) as i32,
            },
            9 => Instruction::Xori {
                rd,
                rs1,
                imm: self.rng.gen_range(-256..256) as i32,
            },
            10 => Instruction::Lui {
                rd,
                imm: (self.rng.gen_range(0..16) as u32) << 12,
            },
            // Forward-only control flow: generated programs always converge,
            // so a fixed cycle budget suffices for both simulators.
            11 => {
                let offset = 4 * self.rng.gen_range(1..=3) as i32;
                match self.rng.gen_range(0..3) {
                    0 => Instruction::Beq { rs1, rs2, offset },
                    1 => Instruction::Bne { rs1, rs2, offset },
                    _ => Instruction::Jal { rd, offset },
                }
            }
            // Scratch loads/stores through the pointer registers.
            12 | 13 => Instruction::Lw {
                rd,
                rs1: self.pointer_reg(),
                offset: 4 * self.rng.gen_range(0..4) as i32,
            },
            14 | 15 => Instruction::Sw {
                rs1: self.pointer_reg(),
                rs2,
                offset: 4 * self.rng.gen_range(0..4) as i32,
            },
            // Pointer materialization: retarget a pointer register at one of
            // the well-known addresses (including the protected secret).
            16 | 17 => {
                let pool = self.rng.gen_range(0..self.pointer_pool.len() as i64) as usize;
                Instruction::Addi {
                    rd: self.pointer_reg(),
                    rs1: 0,
                    imm: self.pointer_pool[pool],
                }
            }
            // Attack window: a load through a pointer register immediately
            // followed by a load that dereferences its result — the
            // back-to-back shape transient-execution attacks are made of
            // (and the shape coverage-guided fuzzers like TheHuzz converge
            // to) — optionally led by a store through a pointer register so
            // the dependent load can collide with the pending store's cache
            // line. Emitted as a unit because the dependent load only sits
            // in the transient window when it directly trails the first
            // load, and the store only creates a hazard while still pending.
            _ => {
                let dep_rd = self.data_reg();
                self.pending.push(Instruction::Lw {
                    rd: dep_rd,
                    rs1: rd,
                    offset: 0,
                });
                let first = Instruction::Lw {
                    rd,
                    rs1: self.pointer_reg(),
                    offset: 0,
                };
                if self.rng.gen_bool() {
                    self.pending.insert(0, first);
                    Instruction::Sw {
                        rs1: self.pointer_reg(),
                        rs2,
                        offset: 4 * self.rng.gen_range(0..4) as i32,
                    }
                } else {
                    first
                }
            }
        }
    }

    /// Generates a complete program: a two-instruction pointer prologue
    /// (`x1`/`x2` at the scratch array), `len` random body instructions and a
    /// four-`nop` drain pad.
    pub fn next_program(&mut self, len: usize) -> Program {
        self.pending.clear();
        let mut p = Program::new(0);
        p.push(Instruction::Addi {
            rd: 1,
            rs1: 0,
            imm: SCRATCH_BASE as i32,
        });
        p.push(Instruction::Addi {
            rd: 2,
            rs1: 0,
            imm: (SCRATCH_BASE + 16) as i32,
        });
        for _ in 0..len {
            let instr = self.next_instruction();
            p.push(instr);
        }
        p.push_nops(4);
        p
    }

    /// Generates a program with a length drawn from `min_len..=max_len`.
    pub fn next_program_in(&mut self, min_len: usize, max_len: usize) -> Program {
        let len = self.rng.gen_range(min_len as i64..=max_len as i64) as usize;
        self.next_program(len)
    }
}

/// The observable channel through which an execution pair diverged, ordered
/// by severity (an architectural divergence is a direct leak; timing and
/// cache-footprint divergences are covert channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// Architectural state (registers, memory, trap CSRs) depends on the
    /// secret.
    Architectural,
    /// Trap or completion timing depends on the secret.
    Timing,
    /// The data cache's tag/valid footprint depends on the secret.
    CacheFootprint,
}

impl Channel {
    /// Stable machine-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Channel::Architectural => "architectural",
            Channel::Timing => "timing",
            Channel::CacheFootprint => "cache-footprint",
        }
    }
}

/// Everything the oracle observes about one concrete execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Final architectural register values `x0..x{n-1}`.
    pub regs: Vec<u32>,
    /// Final `(mode, mcause, mepc)` trap state.
    pub trap_state: (u32, u32, u32),
    /// Final memory image of the low probe window (everything below the
    /// protected region), excluding the secret itself.
    pub memory: Vec<u32>,
    /// Final `(valid, tag)` per cache line. Line *data* is deliberately not
    /// observed: the secret's own cache line differs by construction.
    pub cache: Vec<(u64, u64)>,
    /// Cycle of the first trap, if one was taken.
    pub cycles_to_trap: Option<u64>,
    /// Cycle at which the PC first left the program, if it did.
    pub cycles_to_done: Option<u64>,
    /// Final program counter.
    pub pc: u32,
}

/// Runs `program` on `config` with the protected secret set to `secret`
/// (both in memory and preloaded in the cache, the paper's "D in cache"
/// starting point) and captures the full observation.
pub fn observe(config: &SocConfig, program: &Program, secret: u32) -> Observation {
    let mut sim = SocSim::new(*config, program.clone());
    sim.protect_secret_region();
    sim.preload_secret_in_cache(secret);
    let end = program.base() + 4 * program.len() as u32;
    let max_cycles = 60 + 20 * program.len() as u64;
    let mut cycles_to_trap = None;
    let mut cycles_to_done = None;
    for cycle in 0..max_cycles {
        if cycles_to_trap.is_none() && sim.mode() == 1 {
            cycles_to_trap = Some(cycle);
        }
        if cycles_to_done.is_none() && sim.pc() == end {
            cycles_to_done = Some(cycle);
        }
        sim.step();
    }
    let regs = (0..config.num_registers).map(|r| sim.reg(r)).collect();
    let memory = (0..PROTECTED_BASE / 4)
        .map(|w| sim.load_word(4 * w))
        .collect();
    let lines = sim.instance().cache_lines.clone();
    let cache = lines
        .iter()
        .map(|line| (sim.peek(line.valid.value()), sim.peek(line.tag.value())))
        .collect();
    Observation {
        regs,
        trap_state: (
            sim.mode(),
            sim.register("mcause") as u32,
            sim.register("mepc") as u32,
        ),
        memory,
        cache,
        cycles_to_trap,
        cycles_to_done,
        pc: sim.pc(),
    }
}

/// The unique-execution oracle: runs `program` under [`SECRET_A`] and
/// [`SECRET_B`] and reports the most severe channel through which the two
/// executions differ, or `None` if the program executes uniquely. No field
/// of the options changes the oracle.
pub fn divergence(config: &SocConfig, program: &Program, _opts: &FuzzOptions) -> Option<Channel> {
    let a = observe(config, program, SECRET_A);
    let b = observe(config, program, SECRET_B);
    if a.regs != b.regs || a.memory != b.memory || a.trap_state != b.trap_state {
        return Some(Channel::Architectural);
    }
    if a.cycles_to_trap != b.cycles_to_trap || a.cycles_to_done != b.cycles_to_done || a.pc != b.pc
    {
        return Some(Channel::Timing);
    }
    if a.cache != b.cache {
        return Some(Channel::CacheFootprint);
    }
    None
}

/// Co-simulates `program` on the RTL and the ISA-level golden model (without
/// PMP protection, so no instruction traps) and checks that architectural
/// registers and the memory behind every pointer-pool address agree.
///
/// This is the TheHuzz-style golden-model check the miner runs alongside the
/// two-secret oracle, and the same routine the `cosim_random` integration
/// test drives: one shared generator, one shared comparison.
pub fn cosim_check(config: &SocConfig, program: &Program) -> Result<(), String> {
    let mut sim = SocSim::new(*config, program.clone());
    // Deterministic nonzero scratch data so loads observe real values.
    for w in 0..8u32 {
        sim.store_word(SCRATCH_BASE + 4 * w, 0x1010 + w);
    }
    let mut golden = sim.golden();
    sim.run(60 + 20 * program.len() as u64);
    golden.run(program, config, 8 * program.len().max(16));
    for r in 1..config.num_registers {
        let rtl = sim.reg(r);
        let isa = golden.regs[r as usize];
        if rtl != isa {
            return Err(format!("x{r}: rtl={rtl:#x} golden={isa:#x}"));
        }
    }
    for base in [SCRATCH_BASE, SCRATCH_BASE + 16, 0x80, SECRET_ADDR] {
        for w in 0..4u32 {
            let addr = base + 4 * w;
            let rtl = sim.load_word(addr);
            let isa = golden.load_word(addr);
            if rtl != isa {
                return Err(format!("mem[{addr:#x}]: rtl={rtl:#x} golden={isa:#x}"));
            }
        }
    }
    Ok(())
}

/// One mined divergence: the program, where it was found and what it leaked
/// through.
#[derive(Debug, Clone)]
pub struct DivergenceWitness {
    /// Design variant the divergence occurred on.
    pub variant: SocVariant,
    /// Channel the secret leaked through.
    pub channel: Channel,
    /// The (unminimized) divergent program.
    pub program: Program,
    /// Index of the generated program (0-based) — together with the seed this
    /// pins the witness's provenance.
    pub case_index: usize,
}

/// Result of one mining run.
#[derive(Debug, Clone)]
pub struct MineReport {
    /// First witness per `(variant, channel)` pair, in discovery order.
    pub witnesses: Vec<DivergenceWitness>,
    /// Programs generated and executed.
    pub programs_run: usize,
    /// `(program, variant)` pairs that diverged (including duplicates of
    /// already-witnessed channels).
    pub divergent_runs: usize,
    /// Divergences observed on the secure design (each one is a soundness
    /// bug in either the SoC or the oracle; tests pin this to zero).
    pub secure_divergences: usize,
    /// RTL-vs-golden-model co-simulation mismatches across all variants
    /// (expected zero: the variants only change *micro*-architecture).
    pub cosim_mismatches: usize,
}

impl MineReport {
    /// The witness for a `(variant, channel)` pair, if one was mined.
    pub fn witness(&self, variant: SocVariant, channel: Channel) -> Option<&DivergenceWitness> {
        self.witnesses
            .iter()
            .find(|w| w.variant == variant && w.channel == channel)
    }
}

/// Mines divergence witnesses: generates `opts.programs` random programs and
/// executes each on every variant under both secrets, recording the first
/// witness per `(variant, channel)` pair.
pub fn mine(opts: &FuzzOptions) -> MineReport {
    let mut span = obs::span("fuzz.mine");
    span.attr_u64("seed", opts.seed);
    span.attr_u64("programs", opts.programs as u64);
    let mut gen = ProgramGen::new(opts.seed, &SocConfig::new(SocVariant::Secure));
    let mut report = MineReport {
        witnesses: Vec::new(),
        programs_run: 0,
        divergent_runs: 0,
        secure_divergences: 0,
        cosim_mismatches: 0,
    };
    for case_index in 0..opts.programs {
        let program = gen.next_program_in(opts.min_len, opts.max_len);
        report.programs_run += 1;
        for &variant in &opts.variants {
            let config = SocConfig::new(variant);
            if cosim_check(&config, &program).is_err() {
                report.cosim_mismatches += 1;
            }
            if let Some(channel) = divergence(&config, &program, opts) {
                report.divergent_runs += 1;
                if variant.is_secure() {
                    report.secure_divergences += 1;
                } else if report.witness(variant, channel).is_none() {
                    report.witnesses.push(DivergenceWitness {
                        variant,
                        channel,
                        program: program.clone(),
                        case_index,
                    });
                }
            }
        }
    }
    span.attr_u64("programs_run", report.programs_run as u64);
    span.attr_u64("divergent_runs", report.divergent_runs as u64);
    span.attr_u64("cosim_mismatches", report.cosim_mismatches as u64);
    span.attr_u64("witnesses", report.witnesses.len() as u64);
    report
}

/// Result of one delta-debugging minimization.
#[derive(Debug, Clone)]
pub struct MinimizeReport {
    /// The minimized witness (still divergent through the same channel).
    pub program: Program,
    /// Instruction count before minimization.
    pub original_len: usize,
    /// Instruction count after minimization.
    pub minimized_len: usize,
    /// Oracle executions spent.
    pub oracle_runs: usize,
}

/// Shrinks a divergent program to a 1-minimal witness with the classic
/// `ddmin` algorithm: repeatedly remove instruction chunks (halving
/// granularity down to single instructions) as long as the program still
/// diverges through exactly `channel` on `config`.
///
/// # Panics
///
/// Panics if `program` does not diverge through `channel` in the first place.
pub fn minimize(
    config: &SocConfig,
    program: &Program,
    channel: Channel,
    opts: &FuzzOptions,
) -> MinimizeReport {
    let mut span = obs::span("fuzz.minimize");
    span.attr_str("variant", config.variant().name());
    span.attr_str("channel", channel.name());
    let original: Vec<Instruction> = program.iter().map(|(_, i)| i).collect();
    let mut oracle_runs = 0usize;
    let base = program.base();
    let mut check = |instrs: &[Instruction]| -> bool {
        oracle_runs += 1;
        let mut p = Program::new(base);
        for &i in instrs {
            p.push(i);
        }
        divergence(config, &p, opts) == Some(channel)
    };
    assert!(
        check(&original),
        "minimize: the input program does not diverge through {channel:?}"
    );
    let mut current = original.clone();
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = None;
        for i in 0..granularity {
            let lo = i * chunk;
            if lo >= current.len() {
                break;
            }
            let hi = ((i + 1) * chunk).min(current.len());
            let candidate: Vec<Instruction> = current[..lo]
                .iter()
                .chain(&current[hi..])
                .copied()
                .collect();
            if candidate.len() < current.len() && check(&candidate) {
                reduced = Some(candidate);
                break;
            }
        }
        match reduced {
            Some(c) => {
                current = c;
                granularity = granularity.saturating_sub(1).max(2);
            }
            None if granularity >= current.len() => break,
            None => granularity = (granularity * 2).min(current.len()),
        }
    }
    let mut minimized = Program::new(base);
    for &i in &current {
        minimized.push(i);
    }
    span.attr_u64("original_len", original.len() as u64);
    span.attr_u64("minimized_len", current.len() as u64);
    span.attr_u64("oracle_runs", oracle_runs as u64);
    MinimizeReport {
        program: minimized,
        original_len: original.len(),
        minimized_len: current.len(),
        oracle_runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let config = SocConfig::new(SocVariant::Secure);
        let mut a = ProgramGen::new(11, &config);
        let mut b = ProgramGen::new(11, &config);
        for _ in 0..8 {
            assert_eq!(a.next_program(12), b.next_program(12));
        }
        let mut c = ProgramGen::new(12, &config);
        assert_ne!(a.next_program(12), c.next_program(12));
    }

    #[test]
    fn generator_never_writes_pointer_registers_outside_the_pool() {
        let config = SocConfig::new(SocVariant::Secure);
        let mut gen = ProgramGen::new(3, &config);
        let pool: Vec<i32> = gen.pointer_pool.to_vec();
        for _ in 0..400 {
            let instr = gen.next_instruction();
            if let Some(rd) = instr.rd() {
                if rd == 1 || rd == 2 {
                    match instr {
                        Instruction::Addi { rs1: 0, imm, .. } => {
                            assert!(pool.contains(&imm), "unexpected pointer imm {imm:#x}")
                        }
                        other => panic!("pointer register written by {other}"),
                    }
                }
            }
        }
    }
}
