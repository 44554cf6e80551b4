//! RTL builder for the MiniRV in-order 5-stage core and its SoC wrapper.
//!
//! The pipeline is IF → ID → EX → MEM → WB with full forwarding, a
//! write-allocate data cache attached to the EX stage (requests issue in EX,
//! so a dependent instruction can consume freshly returned load data through
//! the MEM-stage forwarding path — the "cache forwards secret data" situation
//! of paper Fig. 1), physical memory protection checked in EX, and precise
//! exceptions taken when the faulting instruction reaches WB.

use crate::cache::{build_cache, CacheRequest};
use crate::{isa::csr, SocConfig, SocVariant, PROTECTED_BASE, PROTECTED_TOP, TRAP_VECTOR};
use rtl::{BitVec, Netlist, RegisterId, SignalId};

/// Signal handles and register classification for one SoC instance.
///
/// Everything the simulator harness, the examples and the UPEC miter need to
/// observe or constrain is exposed here by name; the underlying netlist keeps
/// the full hierarchy under the instance prefix.
#[derive(Debug, Clone)]
pub struct SocInstance {
    /// Instance prefix used for all hierarchical names.
    pub prefix: String,
    /// Generator configuration the instance was built from.
    pub config: SocConfig,

    // ----- ports -----
    /// Instruction fetched this cycle (primary input).
    pub imem_instr: SignalId,
    /// Memory read data for cache refills (primary input).
    pub mem_rdata: SignalId,
    /// Fetch address (= PC).
    pub imem_addr: SignalId,
    /// Memory-side request valid.
    pub mem_req_valid: SignalId,
    /// Memory-side request is a write.
    pub mem_req_write: SignalId,
    /// Memory-side request address.
    pub mem_req_addr: SignalId,
    /// Memory-side write data.
    pub mem_req_wdata: SignalId,
    /// A refill read is in flight.
    pub mem_read_pending: SignalId,
    /// The refill consumes `mem_rdata` this cycle.
    pub mem_read_resp_now: SignalId,
    /// Address of the in-flight refill read.
    pub mem_read_addr: SignalId,

    // ----- UPEC constraint signals -----
    /// Constraint 1: no buffer holding an ongoing transaction points into the
    /// protected region.
    pub no_ongoing_protected_access: SignalId,
    /// Constraint 2: the cache state is protocol consistent.
    pub cache_monitor_valid: SignalId,
    /// Constraint 2 (core side): the pipeline control state is consistent
    /// (a replayed memory operation always sits behind an EX/MEM bubble).
    /// Used, like the cache monitor, to exclude unreachable symbolic initial
    /// states that would produce spurious counterexamples.
    pub pipeline_monitor_valid: SignalId,
    /// Constraint 3: machine-mode software never loads the secret.
    pub secure_sysw_ok: SignalId,
    /// The PMP configuration protects the secret region (assumed at `t`).
    pub secret_protected: SignalId,
    /// The cache line the secret maps to holds a valid copy of the secret.
    pub secret_line_present: SignalId,

    // ----- diagnostics / blocking conditions -----
    /// A trap (or mret) flushes the pipeline this cycle.
    pub flush: SignalId,
    /// The whole pipeline is frozen by the cache this cycle.
    pub global_stall: SignalId,
    /// The EX/MEM stage cannot architecturally commit (invalid, faulting, or
    /// behind a faulting instruction) — blocking condition for P-alerts in
    /// EX/MEM registers.
    pub ex_mem_blocked: SignalId,
    /// The MEM/WB stage cannot architecturally commit — blocking condition
    /// for P-alerts in MEM/WB registers.
    pub mem_wb_blocked: SignalId,
    /// Stricter blocking condition for the EX/MEM *fault flag*: the stage is
    /// invalid or an older instruction's WB exception is flushing. Unlike
    /// [`SocInstance::ex_mem_blocked`], the stage's own fault does not count
    /// (the fault bit itself is the tolerated difference).
    pub ex_mem_fault_blocked: SignalId,
    /// Stricter blocking condition for the MEM/WB *fault flag*: the stage is
    /// invalid. A valid stage's fault bit decides which trap is taken and
    /// must never differ.
    pub mem_wb_fault_blocked: SignalId,
    /// A trap is architecturally taken this cycle (not stalled).
    pub trap_taken: SignalId,

    // ----- architectural observation points -----
    /// Program counter.
    pub pc: SignalId,
    /// Privilege mode (0 = user, 1 = machine).
    pub mode: SignalId,
    /// Free-running cycle counter (the attacker's stopwatch).
    pub cycle: SignalId,
    /// Values of `x1..x{n-1}`.
    pub regfile: Vec<SignalId>,

    // ----- state classification (Defs. 1 and 2 of the paper) -----
    /// Architectural registers (ISA-visible state).
    pub arch_registers: Vec<RegisterId>,
    /// Microarchitectural (program-invisible logic) registers.
    pub micro_registers: Vec<RegisterId>,
    /// Cache-line data registers (treated as memory, not logic).
    pub memory_registers: Vec<RegisterId>,
    /// The cache data register that may legitimately hold the secret.
    pub secret_line_data_register: RegisterId,
}

/// Builds one SoC instance inside `netlist` under the hierarchical `prefix`.
///
/// # Panics
///
/// Panics if the resulting netlist fragment is malformed (which would be a
/// bug in the generator, not a user error).
pub fn build_soc(n: &mut Netlist, config: &SocConfig, prefix: &str) -> SocInstance {
    n.push_scope(prefix);
    let reg_bits = config.reg_bits();
    let num_regs = config.num_registers;

    // Handy constants.
    let zero1 = n.zero();
    let one1 = n.one();
    let zero32 = n.lit(0, 32);

    // ------------------------------------------------------------------
    // Primary inputs
    // ------------------------------------------------------------------
    let imem_instr = n.input("imem_instr", 32);
    let mem_rdata = n.input("mem_rdata", 32);

    // ------------------------------------------------------------------
    // Architectural state
    // ------------------------------------------------------------------
    let pc = n.register_init("pc", 32, BitVec::zero(32));
    let mut xregs = Vec::new();
    for i in 1..num_regs {
        xregs.push(n.register_init(format!("x{i}"), 32, BitVec::zero(32)));
    }
    let mode = n.register_init("mode", 1, BitVec::zero(1));
    let mepc = n.register_init("mepc", 32, BitVec::zero(32));
    let mcause = n.register_init("mcause", 32, BitVec::zero(32));
    let mtvec = n.register_init("mtvec", 32, BitVec::new(u64::from(TRAP_VECTOR), 32));
    let pmpaddr0 = n.register_init("pmpaddr0", 32, BitVec::zero(32));
    let pmpaddr1 = n.register_init("pmpaddr1", 32, BitVec::zero(32));
    let pmpcfg0 = n.register_init("pmpcfg0", 8, BitVec::zero(8));
    let pmpcfg1 = n.register_init("pmpcfg1", 8, BitVec::zero(8));
    let cycle = n.register_init("cycle", 32, BitVec::zero(32));

    // ------------------------------------------------------------------
    // Microarchitectural state: pipeline registers
    // ------------------------------------------------------------------
    let if_id_valid = n.register_init("if_id_valid", 1, BitVec::zero(1));
    let if_id_pc = n.register_init("if_id_pc", 32, BitVec::zero(32));
    let if_id_instr = n.register_init("if_id_instr", 32, BitVec::zero(32));

    let id_ex_valid = n.register_init("id_ex_valid", 1, BitVec::zero(1));
    let id_ex_pc = n.register_init("id_ex_pc", 32, BitVec::zero(32));
    let id_ex_rd = n.register_init("id_ex_rd", 5, BitVec::zero(5));
    let id_ex_rs1 = n.register_init("id_ex_rs1", 5, BitVec::zero(5));
    let id_ex_rs1_data = n.register_init("id_ex_rs1_data", 32, BitVec::zero(32));
    let id_ex_rs2_data = n.register_init("id_ex_rs2_data", 32, BitVec::zero(32));
    let id_ex_imm = n.register_init("id_ex_imm", 32, BitVec::zero(32));
    let id_ex_alu_op = n.register_init("id_ex_alu_op", 3, BitVec::zero(3));
    let id_ex_is_load = n.register_init("id_ex_is_load", 1, BitVec::zero(1));
    let id_ex_is_store = n.register_init("id_ex_is_store", 1, BitVec::zero(1));
    let id_ex_is_branch = n.register_init("id_ex_is_branch", 1, BitVec::zero(1));
    let id_ex_branch_is_bne = n.register_init("id_ex_branch_is_bne", 1, BitVec::zero(1));
    let id_ex_is_jal = n.register_init("id_ex_is_jal", 1, BitVec::zero(1));
    let id_ex_is_lui = n.register_init("id_ex_is_lui", 1, BitVec::zero(1));
    let id_ex_uses_imm = n.register_init("id_ex_uses_imm", 1, BitVec::zero(1));
    let id_ex_writes_rd = n.register_init("id_ex_writes_rd", 1, BitVec::zero(1));
    let id_ex_is_csr = n.register_init("id_ex_is_csr", 1, BitVec::zero(1));
    let id_ex_csr_write = n.register_init("id_ex_csr_write", 1, BitVec::zero(1));
    let id_ex_csr_set = n.register_init("id_ex_csr_set", 1, BitVec::zero(1));
    let id_ex_csr_addr = n.register_init("id_ex_csr_addr", 12, BitVec::zero(12));
    let id_ex_is_mret = n.register_init("id_ex_is_mret", 1, BitVec::zero(1));
    let id_ex_is_illegal = n.register_init("id_ex_is_illegal", 1, BitVec::zero(1));

    let ex_mem_valid = n.register_init("ex_mem_valid", 1, BitVec::zero(1));
    let ex_mem_pc = n.register_init("ex_mem_pc", 32, BitVec::zero(32));
    let ex_mem_rd = n.register_init("ex_mem_rd", 5, BitVec::zero(5));
    let ex_mem_writes_rd = n.register_init("ex_mem_writes_rd", 1, BitVec::zero(1));
    let ex_mem_result = n.register_init("ex_mem_result", 32, BitVec::zero(32));
    let ex_mem_is_load = n.register_init("ex_mem_is_load", 1, BitVec::zero(1));
    let ex_mem_fault = n.register_init("ex_mem_fault", 1, BitVec::zero(1));
    let ex_mem_cause = n.register_init("ex_mem_cause", 32, BitVec::zero(32));
    let ex_mem_is_mret = n.register_init("ex_mem_is_mret", 1, BitVec::zero(1));
    let ex_mem_csr_write = n.register_init("ex_mem_csr_write", 1, BitVec::zero(1));
    let ex_mem_csr_addr = n.register_init("ex_mem_csr_addr", 12, BitVec::zero(12));
    let ex_mem_csr_wdata = n.register_init("ex_mem_csr_wdata", 32, BitVec::zero(32));

    let mem_wb_valid = n.register_init("mem_wb_valid", 1, BitVec::zero(1));
    let mem_wb_pc = n.register_init("mem_wb_pc", 32, BitVec::zero(32));
    let mem_wb_rd = n.register_init("mem_wb_rd", 5, BitVec::zero(5));
    let mem_wb_writes_rd = n.register_init("mem_wb_writes_rd", 1, BitVec::zero(1));
    let mem_wb_result = n.register_init("mem_wb_result", 32, BitVec::zero(32));
    let mem_wb_fault = n.register_init("mem_wb_fault", 1, BitVec::zero(1));
    let mem_wb_cause = n.register_init("mem_wb_cause", 32, BitVec::zero(32));
    let mem_wb_is_mret = n.register_init("mem_wb_is_mret", 1, BitVec::zero(1));
    let mem_wb_csr_write = n.register_init("mem_wb_csr_write", 1, BitVec::zero(1));
    let mem_wb_csr_addr = n.register_init("mem_wb_csr_addr", 12, BitVec::zero(12));
    let mem_wb_csr_wdata = n.register_init("mem_wb_csr_wdata", 32, BitVec::zero(32));

    let replay_done = n.register_init("replay_done", 1, BitVec::zero(1));

    // ------------------------------------------------------------------
    // WB-stage commit/flush flags (needed by earlier stages)
    // ------------------------------------------------------------------
    let mode_is_machine = mode.value();
    let mode_is_user = n.not(mode_is_machine);
    let mret_in_user = n.and_all([mem_wb_valid.value(), mem_wb_is_mret.value(), mode_is_user]);
    let wb_exception = {
        let own_fault = n.and(mem_wb_valid.value(), mem_wb_fault.value());
        n.or(own_fault, mret_in_user)
    };
    let mret_commit = {
        let no_fault = n.not(mem_wb_fault.value());
        n.and_all([
            mem_wb_valid.value(),
            mem_wb_is_mret.value(),
            mode_is_machine,
            no_fault,
        ])
    };
    let wb_flush = n.or(wb_exception, mret_commit);

    // ------------------------------------------------------------------
    // ID stage: decode + register read
    // ------------------------------------------------------------------
    let instr = if_id_instr.value();
    let opcode = n.slice(instr, 6, 0);
    let rd_field = n.slice(instr, 11, 7);
    let funct3 = n.slice(instr, 14, 12);
    let rs1_field = n.slice(instr, 19, 15);
    let rs2_field = n.slice(instr, 24, 20);
    let _funct7 = n.slice(instr, 31, 25);

    let is_lui = n.eq_lit(opcode, 0b0110111);
    let is_jal = n.eq_lit(opcode, 0b1101111);
    let op_branch = n.eq_lit(opcode, 0b1100011);
    let f3_is_0 = n.eq_lit(funct3, 0);
    let f3_is_1 = n.eq_lit(funct3, 1);
    let f3_is_2 = n.eq_lit(funct3, 2);
    let f3_is_3 = n.eq_lit(funct3, 3);
    let f3_is_4 = n.eq_lit(funct3, 4);
    let f3_is_6 = n.eq_lit(funct3, 6);
    let f3_is_7 = n.eq_lit(funct3, 7);
    let branch_f3_ok = n.or(f3_is_0, f3_is_1);
    let is_branch = n.and(op_branch, branch_f3_ok);
    let branch_is_bne = f3_is_1;
    let op_load = n.eq_lit(opcode, 0b0000011);
    let is_load = n.and(op_load, f3_is_2);
    let op_store = n.eq_lit(opcode, 0b0100011);
    let is_store = n.and(op_store, f3_is_2);
    let op_alu_imm = n.eq_lit(opcode, 0b0010011);
    let alu_imm_f3_ok = n.or_all([f3_is_0, f3_is_7, f3_is_6, f3_is_4]);
    let is_alu_imm = n.and(op_alu_imm, alu_imm_f3_ok);
    let op_alu_reg = n.eq_lit(opcode, 0b0110011);
    let alu_reg_f3_ok = n.or_all([f3_is_0, f3_is_7, f3_is_6, f3_is_4, f3_is_3]);
    let is_alu_reg = n.and(op_alu_reg, alu_reg_f3_ok);
    let op_system = n.eq_lit(opcode, 0b1110011);
    let is_mret = n.eq_lit(instr, 0x3020_0073);
    let is_csrrw = n.and(op_system, f3_is_1);
    let is_csrrs = n.and(op_system, f3_is_2);
    let is_csr = n.or(is_csrrw, is_csrrs);
    let any_known = n.or_all([
        is_lui, is_jal, is_branch, is_load, is_store, is_alu_imm, is_alu_reg, is_mret, is_csr,
    ]);
    let is_illegal = n.not(any_known);

    // ALU operation: 0 add, 1 sub, 2 and, 3 or, 4 xor, 5 sltu.
    let is_sub = {
        let bit30 = n.bit(instr, 30);
        n.and_all([op_alu_reg, f3_is_0, bit30])
    };
    let alu_op = {
        let op_add = n.lit(0, 3);
        let op_sub = n.lit(1, 3);
        let op_and = n.lit(2, 3);
        let op_or = n.lit(3, 3);
        let op_xor = n.lit(4, 3);
        let op_sltu = n.lit(5, 3);
        let mut op = op_add;
        op = n.mux(is_sub, op_sub, op);
        op = n.mux(f3_is_7, op_and, op);
        op = n.mux(f3_is_6, op_or, op);
        op = n.mux(f3_is_4, op_xor, op);
        let sltu_sel = n.and(op_alu_reg, f3_is_3);
        op = n.mux(sltu_sel, op_sltu, op);
        op
    };

    // Immediates.
    let imm_i = {
        let raw = n.slice(instr, 31, 20);
        n.sext(raw, 32)
    };
    let imm_s = {
        let hi = n.slice(instr, 31, 25);
        let lo = n.slice(instr, 11, 7);
        let raw = n.concat(hi, lo);
        n.sext(raw, 32)
    };
    let imm_b = {
        let b12 = n.bit(instr, 31);
        let b11 = n.bit(instr, 7);
        let b10_5 = n.slice(instr, 30, 25);
        let b4_1 = n.slice(instr, 11, 8);
        let zero_bit = n.lit(0, 1);
        let hi = n.concat(b12, b11);
        let mid = n.concat(hi, b10_5);
        let low = n.concat(b4_1, zero_bit);
        let raw = n.concat(mid, low);
        n.sext(raw, 32)
    };
    let imm_j = {
        let b20 = n.bit(instr, 31);
        let b19_12 = n.slice(instr, 19, 12);
        let b11 = n.bit(instr, 20);
        let b10_1 = n.slice(instr, 30, 21);
        let zero_bit = n.lit(0, 1);
        let a = n.concat(b20, b19_12);
        let b = n.concat(a, b11);
        let c = n.concat(b, b10_1);
        let raw = n.concat(c, zero_bit);
        n.sext(raw, 32)
    };
    let imm_u = {
        let hi = n.slice(instr, 31, 12);
        let lo = n.lit(0, 12);
        n.concat(hi, lo)
    };
    let imm = {
        let mut v = imm_i;
        v = n.mux(is_store, imm_s, v);
        v = n.mux(is_branch, imm_b, v);
        v = n.mux(is_jal, imm_j, v);
        v = n.mux(is_lui, imm_u, v);
        v
    };
    let uses_imm = n.or_all([is_load, is_store, is_alu_imm, is_lui]);
    let rd_nonzero = {
        let z = n.eq_lit(rd_field, 0);
        n.not(z)
    };
    let writes_rd_class = n.or_all([is_lui, is_jal, is_load, is_alu_imm, is_alu_reg, is_csr]);
    let writes_rd = n.and(writes_rd_class, rd_nonzero);
    let rs1_nonzero = {
        let z = n.eq_lit(rs1_field, 0);
        n.not(z)
    };
    let csr_set_writes = n.and(is_csrrs, rs1_nonzero);
    let csr_write_any = n.or(is_csrrw, csr_set_writes);

    // Register file read with a WB→ID bypass so values written this cycle are
    // visible to the instruction being decoded.
    let wb_reg_write = {
        // An instruction that raises any exception in WB — its own fault or
        // an mret attempted from user mode — must not commit its destination
        // register. Gating on `wb_exception` (which subsumes the own-fault
        // case for valid instructions) closes a hole where a trapping
        // user-mode mret with a (symbolically possible) rd-write still
        // updated the register file.
        let no_exception = n.not(wb_exception);
        n.and_all([mem_wb_valid.value(), mem_wb_writes_rd.value(), no_exception])
    };
    let read_reg = |n: &mut Netlist, field: SignalId| -> SignalId {
        let sel = n.slice(field, reg_bits - 1, 0);
        let mut value = zero32;
        for (i, reg) in xregs.iter().enumerate() {
            let idx = (i + 1) as u64;
            let is_i = n.eq_lit(sel, idx);
            value = n.mux(is_i, reg.value(), value);
        }
        // WB bypass. The x0-exclusion must use the same truncated index as
        // the comparison: with fewer than 32 registers, a high rs field
        // aliases onto a low register (x16 ≡ x0 for a 4-register file), and
        // checking the full 5-bit field here would bypass a value into the
        // hardwired-zero register.
        let wb_sel = n.slice(mem_wb_rd.value(), reg_bits - 1, 0);
        let same = n.eq(wb_sel, sel);
        let field_nonzero = {
            let z = n.eq_lit(sel, 0);
            n.not(z)
        };
        let bypass = n.and_all([wb_reg_write, same, field_nonzero]);
        n.mux(bypass, mem_wb_result.value(), value)
    };
    let rs1_data = read_reg(n, rs1_field);
    let rs2_data = read_reg(n, rs2_field);

    // ------------------------------------------------------------------
    // EX stage
    // ------------------------------------------------------------------
    let ex_valid = id_ex_valid.value();

    // Forwarding from EX/MEM and MEM/WB.
    let forward = |n: &mut Netlist, rs: SignalId, id_value: SignalId| -> (SignalId, SignalId) {
        let rs_low = n.slice(rs, reg_bits - 1, 0);
        // The x0-exclusion uses the truncated index, consistent with the
        // `rs_low`/`rd_low` match and the register file's own selection: a
        // high rs field aliases onto a low register when the file has fewer
        // than 32 entries, and x0 must never be forwarded — the closure
        // proofs rely on "rd = x0" implying no forwarding path.
        let rs_nonzero = {
            let z = n.eq_lit(rs_low, 0);
            n.not(z)
        };
        let mem_rd_low = n.slice(ex_mem_rd.value(), reg_bits - 1, 0);
        let mem_match = n.eq(mem_rd_low, rs_low);
        let from_mem = n.and_all([
            ex_mem_valid.value(),
            ex_mem_writes_rd.value(),
            mem_match,
            rs_nonzero,
        ]);
        let wb_rd_low = n.slice(mem_wb_rd.value(), reg_bits - 1, 0);
        let wb_match = n.eq(wb_rd_low, rs_low);
        let from_wb = n.and_all([
            mem_wb_valid.value(),
            mem_wb_writes_rd.value(),
            wb_match,
            rs_nonzero,
        ]);
        let after_wb = n.mux(from_wb, mem_wb_result.value(), id_value);
        let value = n.mux(from_mem, ex_mem_result.value(), after_wb);
        (value, from_mem)
    };
    // The ID/EX stage stores rs2 in the low bits of id_ex_rd? No: rs2 index is
    // needed for store-data forwarding; reuse the rs1 register for rs1 and
    // decode rs2 forwarding against the store-data value captured in ID.
    let id_ex_rs2 = n.register_init("id_ex_rs2", 5, BitVec::zero(5));
    let (rs1_val, rs1_from_mem) = forward(n, id_ex_rs1.value(), id_ex_rs1_data.value());
    let (rs2_val, _) = forward(n, id_ex_rs2.value(), id_ex_rs2_data.value());

    let op2 = n.mux(id_ex_uses_imm.value(), id_ex_imm.value(), rs2_val);
    let alu_add = n.add(rs1_val, op2);
    let alu_sub = n.sub(rs1_val, op2);
    let alu_and = n.and(rs1_val, op2);
    let alu_or = n.or(rs1_val, op2);
    let alu_xor = n.xor(rs1_val, op2);
    let alu_sltu = {
        let lt = n.ult(rs1_val, op2);
        n.zext(lt, 32)
    };
    let alu_result = {
        let mut v = alu_add;
        let sel1 = n.eq_lit(id_ex_alu_op.value(), 1);
        v = n.mux(sel1, alu_sub, v);
        let sel2 = n.eq_lit(id_ex_alu_op.value(), 2);
        v = n.mux(sel2, alu_and, v);
        let sel3 = n.eq_lit(id_ex_alu_op.value(), 3);
        v = n.mux(sel3, alu_or, v);
        let sel4 = n.eq_lit(id_ex_alu_op.value(), 4);
        v = n.mux(sel4, alu_xor, v);
        let sel5 = n.eq_lit(id_ex_alu_op.value(), 5);
        v = n.mux(sel5, alu_sltu, v);
        v
    };
    let mem_addr = alu_add;

    // PMP check (TOR regions, user mode only).
    let protected_access = |n: &mut Netlist, addr: SignalId| -> SignalId {
        let word = n.slice(addr, 31, 2);
        let word32 = n.zext(word, 32);
        let in0 = n.ult(word32, pmpaddr0.value());
        let below1 = n.ult(word32, pmpaddr1.value());
        let not_in0 = n.not(in0);
        let in1 = n.and(not_in0, below1);
        let cfg0_rw = n.slice(pmpcfg0.value(), 1, 0);
        let cfg1_rw = n.slice(pmpcfg1.value(), 1, 0);
        let r0_allows = n.eq_lit(cfg0_rw, 3);
        let r1_allows = n.eq_lit(cfg1_rw, 3);
        let r0_denies = n.not(r0_allows);
        let r1_denies = n.not(r1_allows);
        let deny0 = n.and(in0, r0_denies);
        let deny1 = n.and(in1, r1_denies);
        n.or(deny0, deny1)
    };
    let pmp_deny = protected_access(n, mem_addr);
    let is_mem_op_bit = n.or(id_ex_is_load.value(), id_ex_is_store.value());
    let pmp_fault = n.and_all([ex_valid, is_mem_op_bit, mode_is_user, pmp_deny]);
    let illegal_fault = n.and(ex_valid, id_ex_is_illegal.value());
    let ex_fault = n.or(pmp_fault, illegal_fault);
    let ex_cause = {
        let load_fault = n.lit(u64::from(crate::isa::cause::LOAD_ACCESS_FAULT), 32);
        let store_fault = n.lit(u64::from(crate::isa::cause::STORE_ACCESS_FAULT), 32);
        let illegal = n.lit(u64::from(crate::isa::cause::ILLEGAL_INSTRUCTION), 32);
        let mem_cause = n.mux(id_ex_is_store.value(), store_fault, load_fault);
        n.mux(illegal_fault, illegal, mem_cause)
    };

    let older_fault_in_mem = n.and(ex_mem_valid.value(), ex_mem_fault.value());
    let older_exception_pending = n.or(older_fault_in_mem, wb_exception);

    // Branch / jump resolution (suppressed when an older instruction is about
    // to trap, so transient secret-dependent redirects cannot occur).
    let rs_equal = n.eq(rs1_val, rs2_val);
    let rs_not_equal = n.not(rs_equal);
    let branch_cond = n.mux(id_ex_branch_is_bne.value(), rs_not_equal, rs_equal);
    let no_older_exception = n.not(older_exception_pending);
    let no_wb_flush = n.not(wb_flush);
    let branch_taken = n.and_all([
        ex_valid,
        id_ex_is_branch.value(),
        branch_cond,
        no_older_exception,
        no_wb_flush,
    ]);
    let jal_taken = n.and_all([
        ex_valid,
        id_ex_is_jal.value(),
        no_older_exception,
        no_wb_flush,
    ]);
    let redirect = n.or(branch_taken, jal_taken);
    let redirect_pc = n.add(id_ex_pc.value(), id_ex_imm.value());

    // CSR read (in EX) and write-data computation.
    let csr_read_value = {
        let addr = id_ex_csr_addr.value();
        let cfg_combined = {
            let hi = n.lit(0, 16);
            let c1 = n.concat(pmpcfg1.value(), pmpcfg0.value());
            n.concat(hi, c1)
        };
        let mut v = zero32;
        let sel_mtvec = n.eq_lit(addr, u64::from(csr::MTVEC));
        v = n.mux(sel_mtvec, mtvec.value(), v);
        let sel_mepc = n.eq_lit(addr, u64::from(csr::MEPC));
        v = n.mux(sel_mepc, mepc.value(), v);
        let sel_mcause = n.eq_lit(addr, u64::from(csr::MCAUSE));
        v = n.mux(sel_mcause, mcause.value(), v);
        let sel_cfg = n.eq_lit(addr, u64::from(csr::PMPCFG0));
        v = n.mux(sel_cfg, cfg_combined, v);
        let sel_a0 = n.eq_lit(addr, u64::from(csr::PMPADDR0));
        v = n.mux(sel_a0, pmpaddr0.value(), v);
        let sel_a1 = n.eq_lit(addr, u64::from(csr::PMPADDR1));
        v = n.mux(sel_a1, pmpaddr1.value(), v);
        let sel_cycle = n.eq_lit(addr, u64::from(csr::CYCLE));
        v = n.mux(sel_cycle, cycle.value(), v);
        v
    };
    let csr_wdata = {
        let set_value = n.or(csr_read_value, rs1_val);
        n.mux(id_ex_csr_set.value(), set_value, rs1_val)
    };

    // Replay buffer: a memory operation whose address operand is forwarded
    // straight from the MEM-stage load response waits one cycle (the buffer
    // the Orc variant bypasses).
    let is_mem_op = n.and(ex_valid, is_mem_op_bit);
    let not_replayed_yet = n.not(replay_done.value());
    let replay_stall = if config.variant() == SocVariant::Orc {
        zero1
    } else {
        let fwd_load = n.and(rs1_from_mem, ex_mem_is_load.value());
        n.and_all([is_mem_op, fwd_load, not_replayed_yet])
    };
    let no_replay_stall = n.not(replay_stall);

    // Cache request issue. The Meltdown-style variant also issues the
    // requests of instructions a trap flush kills this cycle.
    let issue_kill = if config.variant() == SocVariant::MeltdownStyle {
        zero1
    } else {
        wb_flush
    };
    let no_issue_kill = n.not(issue_kill);
    let load_issue = n.and_all([
        ex_valid,
        id_ex_is_load.value(),
        no_replay_stall,
        no_issue_kill,
    ]);
    let no_pmp_fault = n.not(pmp_fault);
    let store_issue = n.and_all([
        ex_valid,
        id_ex_is_store.value(),
        no_pmp_fault,
        no_older_exception,
        no_wb_flush,
        no_replay_stall,
    ]);
    let req_valid = n.or(load_issue, store_issue);
    let allow_refill = no_pmp_fault;

    // ------------------------------------------------------------------
    // Data cache
    // ------------------------------------------------------------------
    let cache = build_cache(
        n,
        config,
        CacheRequest {
            valid: req_valid,
            write: store_issue,
            addr: mem_addr,
            wdata: rs2_val,
            allow_refill,
            flush: wb_flush,
        },
        mem_rdata,
    );
    let global_stall = cache.busy;
    let not_stalled = n.not(global_stall);

    // EX result (needs the cache hit data for loads).
    let ex_result = {
        let mut v = alu_result;
        v = n.mux(id_ex_is_lui.value(), id_ex_imm.value(), v);
        let four = n.lit(4, 32);
        let link = n.add(id_ex_pc.value(), four);
        v = n.mux(id_ex_is_jal.value(), link, v);
        v = n.mux(id_ex_is_csr.value(), csr_read_value, v);
        v = n.mux(id_ex_is_load.value(), cache.resp_data, v);
        v
    };

    // ------------------------------------------------------------------
    // WB stage: architectural commit
    // ------------------------------------------------------------------
    let trap_taken = n.and(wb_exception, not_stalled);

    // Register file write.
    for (i, reg) in xregs.iter().enumerate() {
        let idx = (i + 1) as u64;
        let rd_low = n.slice(mem_wb_rd.value(), reg_bits - 1, 0);
        let is_i = n.eq_lit(rd_low, idx);
        let write_this = n.and(wb_reg_write, is_i);
        let next = n.mux(write_this, mem_wb_result.value(), reg.value());
        let held = n.mux(global_stall, reg.value(), next);
        n.set_next(*reg, held);
    }

    // CSR commit.
    let csr_commit = {
        let no_fault = n.not(mem_wb_fault.value());
        n.and_all([
            mem_wb_valid.value(),
            mem_wb_csr_write.value(),
            no_fault,
            mode_is_machine,
        ])
    };
    let csr_addr_wb = mem_wb_csr_addr.value();
    let csr_wdata_wb = mem_wb_csr_wdata.value();
    let cfg0_locked = n.bit(pmpcfg0.value(), 7);
    let cfg1_locked = n.bit(pmpcfg1.value(), 7);
    let cfg0_unlocked = n.not(cfg0_locked);
    let cfg1_unlocked = n.not(cfg1_locked);

    let commit_csr = |n: &mut Netlist, addr: u32, extra_ok: SignalId| -> SignalId {
        let sel = n.eq_lit(csr_addr_wb, u64::from(addr));
        n.and_all([csr_commit, sel, extra_ok])
    };
    let true_bit = one1;
    let write_mtvec = commit_csr(n, csr::MTVEC, true_bit);
    let write_mepc = commit_csr(n, csr::MEPC, true_bit);
    let write_mcause = commit_csr(n, csr::MCAUSE, true_bit);
    let write_cfg = commit_csr(n, csr::PMPCFG0, true_bit);
    // pmpaddr0: per the privileged spec a locked TOR entry 1 also locks
    // pmpaddr0; the buggy variant omits that term.
    let addr0_lock_ok = if config.variant() == SocVariant::PmpLockBug {
        cfg0_unlocked
    } else {
        n.and(cfg0_unlocked, cfg1_unlocked)
    };
    let write_addr0 = commit_csr(n, csr::PMPADDR0, addr0_lock_ok);
    let write_addr1 = commit_csr(n, csr::PMPADDR1, cfg1_unlocked);

    // mepc / mcause also written by a trap.
    let mepc_next = {
        let after_csr = n.mux(write_mepc, csr_wdata_wb, mepc.value());
        n.mux(wb_exception, mem_wb_pc.value(), after_csr)
    };
    let mcause_next = {
        let cause_now = {
            let illegal = n.lit(u64::from(crate::isa::cause::ILLEGAL_INSTRUCTION), 32);
            n.mux(mret_in_user, illegal, mem_wb_cause.value())
        };
        let after_csr = n.mux(write_mcause, csr_wdata_wb, mcause.value());
        n.mux(wb_exception, cause_now, after_csr)
    };
    let mtvec_next = n.mux(write_mtvec, csr_wdata_wb, mtvec.value());
    let pmpaddr0_next = n.mux(write_addr0, csr_wdata_wb, pmpaddr0.value());
    let pmpaddr1_next = n.mux(write_addr1, csr_wdata_wb, pmpaddr1.value());
    let pmpcfg0_next = {
        let low = n.slice(csr_wdata_wb, 7, 0);
        let write_this = n.and(write_cfg, cfg0_unlocked);
        n.mux(write_this, low, pmpcfg0.value())
    };
    let pmpcfg1_next = {
        let hi = n.slice(csr_wdata_wb, 15, 8);
        let write_this = n.and(write_cfg, cfg1_unlocked);
        n.mux(write_this, hi, pmpcfg1.value())
    };
    let mode_next = {
        let after_mret = n.mux(mret_commit, zero1, mode.value());
        n.mux(wb_exception, one1, after_mret)
    };

    // PC update.
    let pc_plus4 = {
        let four = n.lit(4, 32);
        n.add(pc.value(), four)
    };
    let pc_next = {
        let mut next = pc_plus4;
        next = n.mux(replay_stall, pc.value(), next);
        next = n.mux(redirect, redirect_pc, next);
        next = n.mux(mret_commit, mepc.value(), next);
        next = n.mux(wb_exception, mtvec.value(), next);
        next
    };

    // ------------------------------------------------------------------
    // Pipeline register next-state values
    // ------------------------------------------------------------------
    let kill_young = n.or(wb_flush, redirect);
    let no_kill_young = n.not(kill_young);

    let if_id_valid_next = {
        let normal = no_kill_young;
        n.mux(replay_stall, if_id_valid.value(), normal)
    };
    let if_id_pc_next = n.mux(replay_stall, if_id_pc.value(), pc.value());
    let if_id_instr_next = n.mux(replay_stall, if_id_instr.value(), imem_instr);

    let id_ex_valid_next = {
        let enter = n.and(if_id_valid.value(), no_kill_young);
        n.mux(replay_stall, id_ex_valid.value(), enter)
    };
    let hold_or = |n: &mut Netlist, reg: rtl::RegisterHandle, value: SignalId| -> SignalId {
        n.mux(replay_stall, reg.value(), value)
    };
    let id_ex_pc_next = hold_or(n, id_ex_pc, if_id_pc.value());
    let id_ex_rd_next = hold_or(n, id_ex_rd, rd_field);
    let id_ex_rs1_next = hold_or(n, id_ex_rs1, rs1_field);
    let id_ex_rs2_next = hold_or(n, id_ex_rs2, rs2_field);
    let id_ex_rs1_data_next = hold_or(n, id_ex_rs1_data, rs1_data);
    let id_ex_rs2_data_next = hold_or(n, id_ex_rs2_data, rs2_data);
    let id_ex_imm_next = hold_or(n, id_ex_imm, imm);
    let id_ex_alu_op_next = hold_or(n, id_ex_alu_op, alu_op);
    let id_ex_is_load_next = hold_or(n, id_ex_is_load, is_load);
    let id_ex_is_store_next = hold_or(n, id_ex_is_store, is_store);
    let id_ex_is_branch_next = hold_or(n, id_ex_is_branch, is_branch);
    let id_ex_branch_is_bne_next = hold_or(n, id_ex_branch_is_bne, branch_is_bne);
    let id_ex_is_jal_next = hold_or(n, id_ex_is_jal, is_jal);
    let id_ex_is_lui_next = hold_or(n, id_ex_is_lui, is_lui);
    let id_ex_uses_imm_next = hold_or(n, id_ex_uses_imm, uses_imm);
    let id_ex_writes_rd_next = hold_or(n, id_ex_writes_rd, writes_rd);
    let id_ex_is_csr_next = hold_or(n, id_ex_is_csr, is_csr);
    let id_ex_csr_write_next = hold_or(n, id_ex_csr_write, csr_write_any);
    let id_ex_csr_set_next = hold_or(n, id_ex_csr_set, is_csrrs);
    let csr_addr_id = n.slice(instr, 31, 20);
    let id_ex_csr_addr_next = hold_or(n, id_ex_csr_addr, csr_addr_id);
    let id_ex_is_mret_next = hold_or(n, id_ex_is_mret, is_mret);
    let id_ex_is_illegal_next = hold_or(n, id_ex_is_illegal, is_illegal);

    let ex_mem_valid_next = {
        let advancing = n.mux(replay_stall, zero1, ex_valid);
        n.and(advancing, no_wb_flush)
    };
    let mem_wb_valid_next = n.and(ex_mem_valid.value(), no_wb_flush);

    let replay_done_next = replay_stall;

    // Collect all held (stall-gated) register updates.
    let updates: Vec<(rtl::RegisterHandle, SignalId)> = vec![
        (pc, pc_next),
        (mode, mode_next),
        (mepc, mepc_next),
        (mcause, mcause_next),
        (mtvec, mtvec_next),
        (pmpaddr0, pmpaddr0_next),
        (pmpaddr1, pmpaddr1_next),
        (pmpcfg0, pmpcfg0_next),
        (pmpcfg1, pmpcfg1_next),
        (if_id_valid, if_id_valid_next),
        (if_id_pc, if_id_pc_next),
        (if_id_instr, if_id_instr_next),
        (id_ex_valid, id_ex_valid_next),
        (id_ex_pc, id_ex_pc_next),
        (id_ex_rd, id_ex_rd_next),
        (id_ex_rs1, id_ex_rs1_next),
        (id_ex_rs2, id_ex_rs2_next),
        (id_ex_rs1_data, id_ex_rs1_data_next),
        (id_ex_rs2_data, id_ex_rs2_data_next),
        (id_ex_imm, id_ex_imm_next),
        (id_ex_alu_op, id_ex_alu_op_next),
        (id_ex_is_load, id_ex_is_load_next),
        (id_ex_is_store, id_ex_is_store_next),
        (id_ex_is_branch, id_ex_is_branch_next),
        (id_ex_branch_is_bne, id_ex_branch_is_bne_next),
        (id_ex_is_jal, id_ex_is_jal_next),
        (id_ex_is_lui, id_ex_is_lui_next),
        (id_ex_uses_imm, id_ex_uses_imm_next),
        (id_ex_writes_rd, id_ex_writes_rd_next),
        (id_ex_is_csr, id_ex_is_csr_next),
        (id_ex_csr_write, id_ex_csr_write_next),
        (id_ex_csr_set, id_ex_csr_set_next),
        (id_ex_csr_addr, id_ex_csr_addr_next),
        (id_ex_is_mret, id_ex_is_mret_next),
        (id_ex_is_illegal, id_ex_is_illegal_next),
        (ex_mem_valid, ex_mem_valid_next),
        (ex_mem_pc, id_ex_pc.value()),
        (ex_mem_rd, id_ex_rd.value()),
        (ex_mem_writes_rd, id_ex_writes_rd.value()),
        (ex_mem_result, ex_result),
        (ex_mem_is_load, id_ex_is_load.value()),
        (ex_mem_fault, ex_fault),
        (ex_mem_cause, ex_cause),
        (ex_mem_is_mret, id_ex_is_mret.value()),
        (ex_mem_csr_write, id_ex_csr_write.value()),
        (ex_mem_csr_addr, id_ex_csr_addr.value()),
        (ex_mem_csr_wdata, csr_wdata),
        (mem_wb_valid, mem_wb_valid_next),
        (mem_wb_pc, ex_mem_pc.value()),
        (mem_wb_rd, ex_mem_rd.value()),
        (mem_wb_writes_rd, ex_mem_writes_rd.value()),
        (mem_wb_result, ex_mem_result.value()),
        (mem_wb_fault, ex_mem_fault.value()),
        (mem_wb_cause, ex_mem_cause.value()),
        (mem_wb_is_mret, ex_mem_is_mret.value()),
        (mem_wb_csr_write, ex_mem_csr_write.value()),
        (mem_wb_csr_addr, ex_mem_csr_addr.value()),
        (mem_wb_csr_wdata, ex_mem_csr_wdata.value()),
        (replay_done, replay_done_next),
    ];
    for (reg, next) in updates {
        let held = n.mux(global_stall, reg.value(), next);
        n.set_next(reg, held);
    }
    // The cycle counter keeps counting through stalls: it is the wall clock
    // the attacker reads.
    let cycle_next = {
        let one = n.lit(1, 32);
        n.add(cycle.value(), one)
    };
    n.set_next(cycle, cycle_next);

    // ------------------------------------------------------------------
    // UPEC constraint signals
    // ------------------------------------------------------------------
    let pw_protected = protected_access(n, cache.pending_write_addr);
    let refill_protected = protected_access(n, cache.refill_addr);
    let no_ongoing_protected_access = {
        let pw_bad = n.and(cache.pending_write_valid, pw_protected);
        let refill_bad = n.and(cache.refill_active, refill_protected);
        let any_bad = n.or(pw_bad, refill_bad);
        n.not(any_bad)
    };
    let secure_sysw_ok = {
        let machine_load = n.and_all([mode_is_machine, ex_valid, id_ex_is_load.value()]);
        let touches_secret = {
            let word = n.slice(mem_addr, 31, 2);
            let word32 = n.zext(word, 32);
            let base = n.lit(u64::from(PROTECTED_BASE >> 2), 32);
            let top = n.lit(u64::from(PROTECTED_TOP >> 2), 32);
            let ge_base = n.ule(base, word32);
            let lt_top = n.ult(word32, top);
            n.and(ge_base, lt_top)
        };
        let bad = n.and(machine_load, touches_secret);
        n.not(bad)
    };
    let secret_protected = {
        let a0_ok = n.eq_lit(pmpaddr0.value(), u64::from(PROTECTED_BASE >> 2));
        let a1_ok = n.eq_lit(pmpaddr1.value(), u64::from(PROTECTED_TOP >> 2));
        let cfg0_ok = n.eq_lit(pmpcfg0.value(), 0x07);
        let cfg1_ok = n.eq_lit(pmpcfg1.value(), 0x80);
        n.and_all([a0_ok, a1_ok, cfg0_ok, cfg1_ok])
    };

    // Pipeline monitor — inductive invariants of the design; assuming them
    // excludes unreachable symbolic initial states (paper Sec. V-A):
    //
    // 1. `replay_done` is only ever set in the cycle right after a replay
    //    stall, during which the EX/MEM stage received a bubble.
    // 2. The decoder always sets `uses_imm` for memory operations (their
    //    addresses are `rs1 + imm`), so a valid EX-stage memory op never
    //    computes its address from rs2. Without this, a symbolic "load
    //    addressed by rs2" would sidestep the replay buffer (which guards
    //    rs1 forwarding only) and break the P-alert closure proofs.
    let pipeline_monitor_valid = {
        let bad_replay = n.and(replay_done.value(), ex_mem_valid.value());
        let bad_mem_addressing = {
            let mem_op = n.or(id_ex_is_load.value(), id_ex_is_store.value());
            let no_imm = n.not(id_ex_uses_imm.value());
            n.and_all([id_ex_valid.value(), mem_op, no_imm])
        };
        let bad = n.or(bad_replay, bad_mem_addressing);
        n.not(bad)
    };

    // Blocking conditions for the inductive P-alert closure proofs.
    let ex_mem_blocked = {
        let invalid = n.not(ex_mem_valid.value());
        // Only a *load* can capture secret-dependent data while faulting
        // (the cache-hit capture of paper Table I's first P-alert); any
        // other instruction with a differing result is either invalid or
        // shadowed by an older instruction's WB exception one stage ahead.
        // Keeping the own-fault excuse this narrow is what lets the
        // inductive closure proof rule out unreachable "faulting ALU op
        // with secret-dependent result" states.
        let faulted_load = n.and(ex_mem_fault.value(), ex_mem_is_load.value());
        n.or_all([invalid, faulted_load, wb_exception])
    };
    let mem_wb_blocked = {
        let invalid = n.not(mem_wb_valid.value());
        n.or(invalid, wb_exception)
    };
    // Fault flags need stricter blocking than data fields: a differing fault
    // bit selects *which* trap is taken (it feeds `mcause`/`wb_exception`),
    // so it is only harmless while the stage cannot raise an exception at
    // all — when the stage is invalid, or (for EX/MEM) when an older
    // instruction's WB exception is already flushing the pipeline. The
    // stage's own `faulted` term must NOT count: that is exactly the
    // difference being tolerated.
    let ex_mem_fault_blocked = {
        let invalid = n.not(ex_mem_valid.value());
        n.or(invalid, wb_exception)
    };
    let mem_wb_fault_blocked = n.not(mem_wb_valid.value());

    // ------------------------------------------------------------------
    // State classification
    // ------------------------------------------------------------------
    let mut arch_registers: Vec<RegisterId> = vec![
        pc.id(),
        mode.id(),
        mepc.id(),
        mcause.id(),
        mtvec.id(),
        pmpaddr0.id(),
        pmpaddr1.id(),
        pmpcfg0.id(),
        pmpcfg1.id(),
        cycle.id(),
    ];
    arch_registers.extend(xregs.iter().map(|r| r.id()));
    let mut micro_registers: Vec<RegisterId> = vec![
        if_id_valid.id(),
        if_id_pc.id(),
        if_id_instr.id(),
        id_ex_valid.id(),
        id_ex_pc.id(),
        id_ex_rd.id(),
        id_ex_rs1.id(),
        id_ex_rs2.id(),
        id_ex_rs1_data.id(),
        id_ex_rs2_data.id(),
        id_ex_imm.id(),
        id_ex_alu_op.id(),
        id_ex_is_load.id(),
        id_ex_is_store.id(),
        id_ex_is_branch.id(),
        id_ex_branch_is_bne.id(),
        id_ex_is_jal.id(),
        id_ex_is_lui.id(),
        id_ex_uses_imm.id(),
        id_ex_writes_rd.id(),
        id_ex_is_csr.id(),
        id_ex_csr_write.id(),
        id_ex_csr_set.id(),
        id_ex_csr_addr.id(),
        id_ex_is_mret.id(),
        id_ex_is_illegal.id(),
        ex_mem_valid.id(),
        ex_mem_pc.id(),
        ex_mem_rd.id(),
        ex_mem_writes_rd.id(),
        ex_mem_result.id(),
        ex_mem_is_load.id(),
        ex_mem_fault.id(),
        ex_mem_cause.id(),
        ex_mem_is_mret.id(),
        ex_mem_csr_write.id(),
        ex_mem_csr_addr.id(),
        ex_mem_csr_wdata.id(),
        mem_wb_valid.id(),
        mem_wb_pc.id(),
        mem_wb_rd.id(),
        mem_wb_writes_rd.id(),
        mem_wb_result.id(),
        mem_wb_fault.id(),
        mem_wb_cause.id(),
        mem_wb_is_mret.id(),
        mem_wb_csr_write.id(),
        mem_wb_csr_addr.id(),
        mem_wb_csr_wdata.id(),
        replay_done.id(),
    ];
    micro_registers.extend(cache.logic_registers.iter().copied());

    let instance = SocInstance {
        prefix: prefix.to_string(),
        config: *config,
        imem_instr,
        mem_rdata,
        imem_addr: pc.value(),
        mem_req_valid: cache.mem_req_valid,
        mem_req_write: cache.mem_req_write,
        mem_req_addr: cache.mem_req_addr,
        mem_req_wdata: cache.mem_req_wdata,
        mem_read_pending: cache.refill_active,
        mem_read_resp_now: cache.refill_done,
        mem_read_addr: cache.refill_addr,
        no_ongoing_protected_access,
        cache_monitor_valid: cache.monitor_valid,
        pipeline_monitor_valid,
        secure_sysw_ok,
        secret_protected,
        secret_line_present: cache.secret_line_present,
        flush: wb_flush,
        global_stall,
        ex_mem_blocked,
        mem_wb_blocked,
        ex_mem_fault_blocked,
        mem_wb_fault_blocked,
        trap_taken,
        pc: pc.value(),
        mode: mode.value(),
        cycle: cycle.value(),
        regfile: xregs.iter().map(|r| r.value()).collect(),
        arch_registers,
        micro_registers,
        memory_registers: cache.data_registers.clone(),
        secret_line_data_register: cache.secret_line_data_register,
    };
    n.pop_scope();
    instance
}
