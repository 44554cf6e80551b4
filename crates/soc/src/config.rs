//! SoC generator configuration: design variants, geometry knobs and the
//! fixed memory map.

/// The design variants evaluated in the UPEC paper (Sec. VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SocVariant {
    /// The original, secure design: killed or faulting memory transactions
    /// never reach the cache interface, cache-line refills are cancelled on a
    /// pipeline flush, and the dependent-load replay buffer is in place.
    Secure,
    /// The Meltdown-style variant: a cache-line refill triggered by a killed
    /// (transient) load is *not* cancelled when the exception flushes the
    /// pipeline, so the cache footprint depends on the secret.
    MeltdownStyle,
    /// The Orc variant: the one-cycle replay buffer between dependent loads
    /// is bypassed, so a transient load whose address is forwarded from the
    /// secret reaches the cache interface before the exception and can
    /// create a secret-dependent read-after-write hazard stall.
    Orc,
    /// The PMP lock-bug variant (paper Sec. VII-C): the ISA rule that locking
    /// a TOR region also locks the region's start-address register is not
    /// implemented, so privileged software can silently move the base of a
    /// locked protected region.
    PmpLockBug,
}

impl SocVariant {
    /// Whether this is the unmodified, secure design.
    pub fn is_secure(&self) -> bool {
        matches!(self, SocVariant::Secure)
    }

    /// Human-readable name used in reports and benches.
    pub fn name(&self) -> &'static str {
        match self {
            SocVariant::Secure => "secure",
            SocVariant::MeltdownStyle => "meltdown-style",
            SocVariant::Orc => "orc",
            SocVariant::PmpLockBug => "pmp-lock-bug",
        }
    }
}

/// Word-aligned byte address of the secret datum.
pub const SECRET_ADDR: u32 = 0x200;
/// Inclusive base of the PMP-protected region (word aligned).
pub const PROTECTED_BASE: u32 = 0x200;
/// Exclusive top of the PMP-protected region (word aligned).
pub const PROTECTED_TOP: u32 = 0x240;
/// Machine-mode trap vector address.
pub const TRAP_VECTOR: u32 = 0x100;

/// Configuration of the MiniRV SoC generator: the design variant and the
/// four geometry knobs. Everything else is fixed: the generator reads the
/// variant's weakened mechanism straight from [`SocConfig::variant`], and
/// the memory map is [`SECRET_ADDR`], [`PROTECTED_BASE`], [`PROTECTED_TOP`]
/// and [`TRAP_VECTOR`].
///
/// [`SocConfig::new`] describes a small but complete system: an in-order
/// 5-stage RV32-subset core with eight architectural registers, a
/// direct-mapped write-allocate data cache with a pending-write buffer,
/// physical memory protection (PMP) with two TOR entries, and a
/// fixed-latency memory. The formal proofs run the reduced
/// [`SocConfig::formal`] geometry.
///
/// # Examples
///
/// ```
/// use soc::{SocConfig, SocVariant};
///
/// let config = SocConfig::new(SocVariant::Orc).with_cache_lines(8);
/// assert_eq!(config.cache_lines, 8);
/// assert!(!config.variant().is_secure());
/// assert_eq!(SocConfig::formal(SocVariant::Orc).cache_lines, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocConfig {
    variant: SocVariant,
    /// Number of architectural registers implemented (2..=32). Programs must
    /// only use `x0..x{n-1}`.
    pub num_registers: u32,
    /// Number of direct-mapped cache lines (power of two, one 32-bit word per
    /// line).
    pub cache_lines: u32,
    /// Cycles a cache-line refill takes after the miss is detected.
    pub miss_latency: u32,
    /// Cycles a pending (accepted) store needs before it drains.
    pub store_latency: u32,
}

impl SocConfig {
    /// Creates the configuration for a design variant at the full-size
    /// geometry of the simulation experiments (`r8c4m3s2`: eight registers,
    /// four cache lines, miss latency 3, store latency 2).
    pub const fn new(variant: SocVariant) -> Self {
        Self {
            variant,
            num_registers: 8,
            cache_lines: 4,
            miss_latency: 3,
            store_latency: 2,
        }
    }

    /// The reduced geometry every formal proof runs at (`r4c2m1s1`): four
    /// registers, two cache lines, single-cycle refills and store drains.
    pub const fn formal(variant: SocVariant) -> Self {
        Self {
            variant,
            num_registers: 4,
            cache_lines: 2,
            miss_latency: 1,
            store_latency: 1,
        }
    }

    /// The design variant this configuration was derived from.
    pub fn variant(&self) -> SocVariant {
        self.variant
    }

    /// Sets the number of cache lines (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `lines` is not a power of two or is smaller than 2.
    pub fn with_cache_lines(mut self, lines: u32) -> Self {
        assert!(
            lines.is_power_of_two() && lines >= 2,
            "cache lines must be a power of two >= 2"
        );
        self.cache_lines = lines;
        self
    }

    /// Sets the number of architectural registers (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two in `2..=32`.
    pub fn with_registers(mut self, n: u32) -> Self {
        assert!(
            n.is_power_of_two() && (2..=32).contains(&n),
            "register count must be a power of two in 2..=32"
        );
        self.num_registers = n;
        self
    }

    /// Sets the refill miss latency (builder style).
    pub fn with_miss_latency(mut self, cycles: u32) -> Self {
        assert!(cycles >= 1, "miss latency must be at least one cycle");
        self.miss_latency = cycles;
        self
    }

    /// Sets the pending-store drain latency (builder style).
    pub fn with_store_latency(mut self, cycles: u32) -> Self {
        assert!(cycles >= 1, "store latency must be at least one cycle");
        self.store_latency = cycles;
        self
    }

    /// Number of index bits used by the direct-mapped cache.
    pub fn index_bits(&self) -> u32 {
        self.cache_lines.trailing_zeros()
    }

    /// Number of bits used to select an architectural register.
    pub fn reg_bits(&self) -> u32 {
        self.num_registers.trailing_zeros().max(1)
    }

    /// The cache line index the secret address maps to.
    pub fn secret_index(&self) -> u32 {
        (SECRET_ADDR >> 2) & (self.cache_lines - 1)
    }

    /// The tag of the secret address.
    pub fn secret_tag(&self) -> u32 {
        (SECRET_ADDR >> 2) >> self.index_bits()
    }

    /// Memory-transaction depth `d_MEM` of the paper (Sec. V): the number of
    /// clock cycles of the longest memory transaction, used as the default
    /// UPEC window length. When the secret can be in the cache this is the
    /// hit/stall path; when it is not cached it includes a full refill.
    pub fn d_mem(&self, secret_in_cache: bool) -> usize {
        let pipeline_depth = 5;
        if secret_in_cache {
            pipeline_depth + self.store_latency as usize
        } else {
            pipeline_depth + (self.miss_latency as usize) + self.store_latency as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_helpers() {
        let c = SocConfig::new(SocVariant::Secure)
            .with_cache_lines(8)
            .with_registers(16);
        assert_eq!(c.index_bits(), 3);
        assert_eq!(c.reg_bits(), 4);
        // SECRET_ADDR 0x200 => word 0x80 => index 0 for 8 lines, tag 0x10.
        assert_eq!(c.secret_index(), 0);
        assert_eq!(c.secret_tag(), 0x10);
    }

    #[test]
    fn d_mem_is_longer_when_secret_is_not_cached() {
        let c = SocConfig::new(SocVariant::Secure);
        assert!(c.d_mem(false) > c.d_mem(true));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_cache_lines_rejected() {
        let _ = SocConfig::new(SocVariant::Secure).with_cache_lines(3);
    }

    #[test]
    fn variant_names() {
        assert_eq!(SocVariant::Secure.name(), "secure");
        assert_eq!(SocVariant::Orc.name(), "orc");
        assert!(SocVariant::Secure.is_secure());
        assert!(!SocVariant::MeltdownStyle.is_secure());
    }
}
