//! RTL builder for the pipelined, direct-mapped, write-allocate data cache.
//!
//! The cache is the microarchitectural centrepiece of both attacks studied in
//! the paper:
//!
//! * it accepts a store into a **pending-write buffer** and signals completion
//!   to the core immediately, creating the read-after-write (RAW) hazard
//!   window exploited by the Orc attack;
//! * on a load miss it runs a **refill** state machine against main memory;
//!   whether an in-flight refill is cancelled when the pipeline is flushed is
//!   the Meltdown-style design decision of paper Fig. 1.

use crate::{SocConfig, SocVariant};
use rtl::{BitVec, Netlist, RegisterId, SignalId};

/// Request-side signals the core presents to the cache (all computed in the
/// core's EX stage).
#[derive(Debug, Clone, Copy)]
pub struct CacheRequest {
    /// A load or store request is present this cycle.
    pub valid: SignalId,
    /// The request is a store.
    pub write: SignalId,
    /// Byte address of the access.
    pub addr: SignalId,
    /// Store data.
    pub wdata: SignalId,
    /// Whether a miss may start a refill (cleared for PMP-faulting probes).
    pub allow_refill: SignalId,
    /// The pipeline is being flushed by a trap this cycle.
    pub flush: SignalId,
}

/// Signals produced by the cache.
#[derive(Debug, Clone)]
pub struct CacheSignals {
    /// The request hits a valid line.
    pub hit: SignalId,
    /// Read data for the selected line (meaningful on a hit).
    pub resp_data: SignalId,
    /// The request cannot complete this cycle; the core must stall.
    pub busy: SignalId,
    /// The request collides with the pending write (RAW hazard).
    pub raw_hazard: SignalId,
    /// Memory-side read/write request valid.
    pub mem_req_valid: SignalId,
    /// Memory-side request is a write.
    pub mem_req_write: SignalId,
    /// Memory-side request address.
    pub mem_req_addr: SignalId,
    /// Memory-side write data.
    pub mem_req_wdata: SignalId,
    /// A refill is in flight.
    pub refill_active: SignalId,
    /// The refill response is consumed this cycle (the cycle the line is
    /// written); Constraint 4 couples the memory read data of the two miter
    /// instances at this point.
    pub refill_done: SignalId,
    /// Address of the in-flight refill.
    pub refill_addr: SignalId,
    /// Pending-write buffer occupied.
    pub pending_write_valid: SignalId,
    /// Pending-write buffer address.
    pub pending_write_addr: SignalId,
    /// Constraint-2 monitor: the cache's internal state is protocol
    /// consistent (counters in range).
    pub monitor_valid: SignalId,
    /// The line the secret address maps to currently holds a valid copy of
    /// the secret (tag match).
    pub secret_line_present: SignalId,
    /// Registers holding cache line data (the "memory" part of the cache
    /// which the UPEC model excludes from the logic state).
    pub data_registers: Vec<RegisterId>,
    /// Register holding the data of the line the secret maps to.
    pub secret_line_data_register: RegisterId,
    /// All other (logic) registers of the cache: valid bits, tags, pending
    /// write buffer, refill state.
    pub logic_registers: Vec<RegisterId>,
}

fn counter_width(max: u32) -> u32 {
    32 - max.max(1).leading_zeros()
}

/// Builds the data cache inside `n` and returns its signals.
///
/// `mem_rdata` is the memory-side read-data input (owned by the caller so the
/// UPEC miter can couple it between instances).
pub fn build_cache(
    n: &mut Netlist,
    config: &SocConfig,
    req: CacheRequest,
    mem_rdata: SignalId,
) -> CacheSignals {
    n.push_scope("dcache");
    let lines = config.cache_lines;
    let idx_bits = config.index_bits();
    let tag_bits = 30 - idx_bits;
    let cnt_bits = counter_width(config.miss_latency.max(config.store_latency));

    // ------------------------------------------------------------------
    // State
    // ------------------------------------------------------------------
    let mut valid_regs = Vec::new();
    let mut tag_regs = Vec::new();
    let mut data_regs = Vec::new();
    for i in 0..lines {
        valid_regs.push(n.register_init(format!("valid{i}"), 1, BitVec::zero(1)));
        tag_regs.push(n.register_init(format!("tag{i}"), tag_bits, BitVec::zero(tag_bits)));
        data_regs.push(n.register_init(format!("data{i}"), 32, BitVec::zero(32)));
    }
    let pw_valid = n.register_init("pw_valid", 1, BitVec::zero(1));
    let pw_addr = n.register_init("pw_addr", 32, BitVec::zero(32));
    let pw_data = n.register_init("pw_data", 32, BitVec::zero(32));
    let pw_counter = n.register_init("pw_counter", cnt_bits, BitVec::zero(cnt_bits));
    let refill_valid = n.register_init("refill_valid", 1, BitVec::zero(1));
    let refill_addr = n.register_init("refill_addr", 32, BitVec::zero(32));
    let refill_counter = n.register_init("refill_counter", cnt_bits, BitVec::zero(cnt_bits));

    // ------------------------------------------------------------------
    // Address decomposition helpers
    // ------------------------------------------------------------------
    let index_of =
        |n: &mut Netlist, addr: SignalId| -> SignalId { n.slice(addr, 2 + idx_bits - 1, 2) };
    let tag_of = |n: &mut Netlist, addr: SignalId| -> SignalId { n.slice(addr, 31, 2 + idx_bits) };

    let zero_bit = n.zero();
    let one_bit = n.one();

    let req_index = index_of(n, req.addr);
    let req_tag = tag_of(n, req.addr);
    let pw_index = index_of(n, pw_addr.value());
    let pw_tag = tag_of(n, pw_addr.value());
    let refill_index = index_of(n, refill_addr.value());
    let refill_tag = tag_of(n, refill_addr.value());

    // Line selection by request index (read muxes over the arrays).
    let mut sel_valid = n.zero();
    let mut sel_tag = n.lit(0, tag_bits);
    let mut sel_data = n.lit(0, 32);
    let mut pw_line_valid = n.zero();
    let mut pw_line_tag = n.lit(0, tag_bits);
    for i in 0..lines {
        let is_i = n.eq_lit(req_index, u64::from(i));
        sel_valid = n.mux(is_i, valid_regs[i as usize].value(), sel_valid);
        sel_tag = n.mux(is_i, tag_regs[i as usize].value(), sel_tag);
        sel_data = n.mux(is_i, data_regs[i as usize].value(), sel_data);
        let pw_is_i = n.eq_lit(pw_index, u64::from(i));
        pw_line_valid = n.mux(pw_is_i, valid_regs[i as usize].value(), pw_line_valid);
        pw_line_tag = n.mux(pw_is_i, tag_regs[i as usize].value(), pw_line_tag);
    }

    let tags_match = n.eq(sel_tag, req_tag);
    let hit = n.and(sel_valid, tags_match);
    // Read data is only returned on a hit; a miss never exposes the stale
    // content of the indexed line to the core (the refill supplies the data
    // once it completes and the access is retried as a hit).
    let zero_word = n.lit(0, 32);
    let resp_data = n.mux(hit, sel_data, zero_word);

    let is_load = {
        let not_write = n.not(req.write);
        n.and(req.valid, not_write)
    };
    let is_store = n.and(req.valid, req.write);

    // ------------------------------------------------------------------
    // RAW hazard: a load to the index of the pending write must wait.
    // ------------------------------------------------------------------
    let indexes_collide = n.eq(pw_index, req_index);
    let raw_hazard = {
        let a = n.and(is_load, pw_valid.value());
        n.and(a, indexes_collide)
    };

    // ------------------------------------------------------------------
    // Refill state machine
    // ------------------------------------------------------------------
    let counter_zero = n.eq_lit(refill_counter.value(), 0);
    let refill_done = n.and(refill_valid.value(), counter_zero);
    let miss = n.not(hit);
    let no_refill_yet = n.not(refill_valid.value());
    let not_raw = n.not(raw_hazard);
    let start_refill = n.and_all([is_load, miss, not_raw, req.allow_refill, no_refill_yet]);

    // A flush cancels the refill in flight, except on the Meltdown-style
    // variant (paper Fig. 1).
    let cancel_refill = if config.variant() == SocVariant::MeltdownStyle {
        zero_bit
    } else {
        req.flush
    };

    // refill_valid' = start ? 1 : (done || cancel) ? 0 : hold
    let refill_valid_next = {
        let done_or_cancel = n.or(refill_done, cancel_refill);
        let cleared = n.mux(done_or_cancel, zero_bit, refill_valid.value());
        n.mux(start_refill, one_bit, cleared)
    };
    n.set_next(refill_valid, refill_valid_next);

    let refill_addr_next = n.mux(start_refill, req.addr, refill_addr.value());
    n.set_next(refill_addr, refill_addr_next);

    let counter_nonzero = n.not(counter_zero);
    let one_cnt = n.lit(1, cnt_bits);
    let decremented = n.sub(refill_counter.value(), one_cnt);
    let ticking = n.and(refill_valid.value(), counter_nonzero);
    let held_or_ticked = n.mux(ticking, decremented, refill_counter.value());
    let miss_latency_lit = n.lit(u64::from(config.miss_latency), cnt_bits);
    let refill_counter_next = n.mux(start_refill, miss_latency_lit, held_or_ticked);
    n.set_next(refill_counter, refill_counter_next);

    // ------------------------------------------------------------------
    // Pending write buffer
    // ------------------------------------------------------------------
    let pw_counter_zero = n.eq_lit(pw_counter.value(), 0);
    let pw_commit = n.and(pw_valid.value(), pw_counter_zero);
    let buffer_free = n.not(pw_valid.value());
    let accept_store = n.and_all([is_store, buffer_free, no_refill_yet]);

    let pw_valid_next = {
        let after_commit = n.mux(pw_commit, zero_bit, pw_valid.value());
        n.mux(accept_store, one_bit, after_commit)
    };
    n.set_next(pw_valid, pw_valid_next);
    let pw_addr_next = n.mux(accept_store, req.addr, pw_addr.value());
    n.set_next(pw_addr, pw_addr_next);
    let pw_data_next = n.mux(accept_store, req.wdata, pw_data.value());
    n.set_next(pw_data, pw_data_next);

    let pw_counter_nonzero = n.not(pw_counter_zero);
    let pw_dec = n.sub(pw_counter.value(), one_cnt);
    let pw_ticking = n.and(pw_valid.value(), pw_counter_nonzero);
    let pw_held = n.mux(pw_ticking, pw_dec, pw_counter.value());
    let store_latency_lit = n.lit(u64::from(config.store_latency), cnt_bits);
    let pw_counter_next = n.mux(accept_store, store_latency_lit, pw_held);
    n.set_next(pw_counter, pw_counter_next);

    let pw_tags_match = n.eq(pw_line_tag, pw_tag);
    let pw_line_hit = n.and(pw_line_valid, pw_tags_match);
    let pw_writes_line = n.and(pw_commit, pw_line_hit);

    // ------------------------------------------------------------------
    // Line array updates
    // ------------------------------------------------------------------
    for i in 0..lines {
        let iu = u64::from(i);
        let refill_this = {
            let idx_match = n.eq_lit(refill_index, iu);
            n.and(refill_done, idx_match)
        };
        let pw_this = {
            let idx_match = n.eq_lit(pw_index, iu);
            n.and(pw_writes_line, idx_match)
        };
        let valid_next = n.mux(refill_this, one_bit, valid_regs[i as usize].value());
        n.set_next(valid_regs[i as usize], valid_next);
        let tag_next = n.mux(refill_this, refill_tag, tag_regs[i as usize].value());
        n.set_next(tag_regs[i as usize], tag_next);
        let after_pw = n.mux(pw_this, pw_data.value(), data_regs[i as usize].value());
        let data_next = n.mux(refill_this, mem_rdata, after_pw);
        n.set_next(data_regs[i as usize], data_next);
    }

    // ------------------------------------------------------------------
    // Busy / response
    // ------------------------------------------------------------------
    let refill_needed = n.and_all([is_load, miss, req.allow_refill]);
    let busy_load = n.or(raw_hazard, refill_needed);
    let load_busy = n.and(is_load, busy_load);
    let store_full = n.and(is_store, pw_valid.value());
    let any_req_during_refill = n.and(req.valid, refill_valid.value());
    let busy = n.or_all([load_busy, store_full, any_req_during_refill]);

    // Memory-side request: refill read when starting, write when the pending
    // write drains (writes win the address mux; they never coincide with a
    // refill start because `accept_store` requires the buffer to be free and
    // `start_refill` requires no RAW hazard).
    let mem_req_valid = n.or(start_refill, pw_commit);
    let mem_req_addr = n.mux(pw_commit, pw_addr.value(), req.addr);

    // Constraint-2 monitor: counters never exceed their programmed latencies.
    let refill_cnt_ok = {
        let limit = n.lit(u64::from(config.miss_latency), cnt_bits);
        n.ule(refill_counter.value(), limit)
    };
    let pw_cnt_ok = {
        let limit = n.lit(u64::from(config.store_latency), cnt_bits);
        n.ule(pw_counter.value(), limit)
    };
    let monitor_valid = n.and(refill_cnt_ok, pw_cnt_ok);

    // Secret-line presence: the (fixed) line the secret maps to is valid and
    // tagged with the secret's tag.
    let sidx = config.secret_index() as usize;
    let secret_tag_lit = n.lit(u64::from(config.secret_tag()), tag_bits);
    let secret_tag_match = n.eq(tag_regs[sidx].value(), secret_tag_lit);
    let secret_line_present = n.and(valid_regs[sidx].value(), secret_tag_match);

    let signals = CacheSignals {
        hit,
        resp_data,
        busy,
        raw_hazard,
        mem_req_valid,
        mem_req_write: pw_commit,
        mem_req_addr,
        mem_req_wdata: pw_data.value(),
        refill_active: refill_valid.value(),
        refill_done,
        refill_addr: refill_addr.value(),
        pending_write_valid: pw_valid.value(),
        pending_write_addr: pw_addr.value(),
        monitor_valid,
        secret_line_present,
        data_registers: data_regs.iter().map(|r| r.id()).collect(),
        secret_line_data_register: data_regs[sidx].id(),
        logic_registers: valid_regs
            .iter()
            .chain(tag_regs.iter())
            .map(|r| r.id())
            .chain(
                [
                    &pw_valid,
                    &pw_addr,
                    &pw_data,
                    &pw_counter,
                    &refill_valid,
                    &refill_addr,
                    &refill_counter,
                ]
                .into_iter()
                .map(|r| r.id()),
            )
            .collect(),
    };
    n.pop_scope();
    signals
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Simulator;

    struct CacheHarness {
        sim: Simulator,
        req_valid: SignalId,
        req_write: SignalId,
        req_addr: SignalId,
        req_wdata: SignalId,
        allow_refill: SignalId,
        flush: SignalId,
        mem_rdata: SignalId,
        out: CacheSignals,
    }

    fn harness(variant: SocVariant) -> CacheHarness {
        let config = SocConfig::new(variant);
        let mut n = Netlist::new("cache_tb");
        let req_valid = n.input("req_valid", 1);
        let req_write = n.input("req_write", 1);
        let req_addr = n.input("req_addr", 32);
        let req_wdata = n.input("req_wdata", 32);
        let allow_refill = n.input("allow_refill", 1);
        let flush = n.input("flush", 1);
        let mem_rdata = n.input("mem_rdata", 32);
        let req = CacheRequest {
            valid: req_valid,
            write: req_write,
            addr: req_addr,
            wdata: req_wdata,
            allow_refill,
            flush,
        };
        let out = build_cache(&mut n, &config, req, mem_rdata);
        n.validate().expect("cache netlist is well formed");
        CacheHarness {
            sim: Simulator::new(n),
            req_valid,
            req_write,
            req_addr,
            req_wdata,
            allow_refill,
            flush,
            mem_rdata,
            out,
        }
    }

    impl CacheHarness {
        fn drive(&mut self, valid: u64, write: u64, addr: u64, wdata: u64, allow_refill: u64) {
            self.sim.poke(self.req_valid, valid);
            self.sim.poke(self.req_write, write);
            self.sim.poke(self.req_addr, addr);
            self.sim.poke(self.req_wdata, wdata);
            self.sim.poke(self.allow_refill, allow_refill);
        }
    }

    #[test]
    fn miss_refills_and_then_hits() {
        let mut h = harness(SocVariant::Secure);
        h.sim.poke(h.mem_rdata, 0xcafe_babe);
        h.drive(1, 0, 0x40, 0, 1);
        // Miss: busy until the refill completes.
        assert_eq!(h.sim.peek(h.out.hit).as_u64(), 0);
        assert_eq!(h.sim.peek(h.out.busy).as_u64(), 1);
        let waited = h.sim.step_until(20, |s| s.peek(h.out.busy).is_zero());
        assert!(waited.is_some(), "refill must finish");
        assert_eq!(h.sim.peek(h.out.hit).as_u64(), 1);
        assert_eq!(h.sim.peek(h.out.resp_data).as_u64(), 0xcafe_babe);
        // A second access to the same line hits immediately.
        h.drive(1, 0, 0x40, 0, 1);
        assert_eq!(h.sim.peek(h.out.busy).as_u64(), 0);
    }

    #[test]
    fn store_is_accepted_and_creates_raw_hazard() {
        let mut h = harness(SocVariant::Secure);
        // Store to address 0x10 (index 0 with 4 lines of one word).
        h.drive(1, 1, 0x10, 77, 1);
        assert_eq!(
            h.sim.peek(h.out.busy).as_u64(),
            0,
            "store accepted immediately"
        );
        h.sim.step();
        // While the write is pending, a load to the same index stalls.
        h.drive(1, 0, 0x10, 0, 1);
        assert_eq!(h.sim.peek(h.out.raw_hazard).as_u64(), 1);
        assert_eq!(h.sim.peek(h.out.busy).as_u64(), 1);
        // A load to a different index does not see the RAW hazard.
        h.drive(1, 0, 0x14, 0, 1);
        assert_eq!(h.sim.peek(h.out.raw_hazard).as_u64(), 0);
        // After the pending write drains, the same-index load proceeds.
        h.drive(1, 0, 0x10, 0, 1);
        let waited = h.sim.step_until(20, |s| s.peek(h.out.raw_hazard).is_zero());
        assert!(waited.is_some());
    }

    #[test]
    fn flush_cancels_refill_in_secure_design_but_not_in_meltdown_variant() {
        for (variant, expect_filled) in [
            (SocVariant::Secure, false),
            (SocVariant::MeltdownStyle, true),
        ] {
            let mut h = harness(variant);
            h.sim.poke(h.mem_rdata, 0x1234_5678);
            // Start a refill of address 0x40.
            h.drive(1, 0, 0x40, 0, 1);
            assert_eq!(h.sim.peek(h.out.refill_active).as_u64(), 0);
            h.sim.step();
            assert_eq!(h.sim.peek(h.out.refill_active).as_u64(), 1);
            // Flush while the refill is in flight; drop the request (the
            // requesting instruction was killed).
            h.drive(0, 0, 0, 0, 0);
            h.sim.poke(h.flush, 1);
            h.sim.step();
            h.sim.poke(h.flush, 0);
            h.sim.run(10);
            // Probe whether the line got filled.
            h.drive(1, 0, 0x40, 0, 0);
            let filled = h.sim.peek(h.out.hit).as_u64() == 1;
            assert_eq!(filled, expect_filled, "variant {variant:?}");
        }
    }

    #[test]
    fn no_refill_when_not_allowed() {
        let mut h = harness(SocVariant::Secure);
        h.drive(1, 0, 0x80, 0, 0);
        assert_eq!(
            h.sim.peek(h.out.busy).as_u64(),
            0,
            "probe without refill never stalls"
        );
        h.sim.run(5);
        assert_eq!(h.sim.peek(h.out.refill_active).as_u64(), 0);
    }

    #[test]
    fn secret_line_presence_tracks_tag_and_valid() {
        let mut h = harness(SocVariant::Secure);
        assert_eq!(h.sim.peek(h.out.secret_line_present).as_u64(), 0);
        // Refill the secret's own address; afterwards the line holds it.
        h.sim.poke(h.mem_rdata, 0xdead_beef);
        h.drive(1, 0, u64::from(crate::SECRET_ADDR), 0, 1);
        let waited = h.sim.step_until(20, |s| s.peek(h.out.busy).is_zero());
        assert!(waited.is_some());
        assert_eq!(h.sim.peek(h.out.secret_line_present).as_u64(), 1);
    }

    #[test]
    fn monitor_is_valid_in_reachable_states() {
        let mut h = harness(SocVariant::Secure);
        h.drive(1, 0, 0x40, 0, 1);
        for _ in 0..10 {
            assert_eq!(h.sim.peek(h.out.monitor_valid).as_u64(), 1);
            h.sim.step();
        }
    }
}
