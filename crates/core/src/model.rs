//! The UPEC computational model: two SoC instances with coupled memories
//! (paper Fig. 3).

use bmc::CompiledTransition;
use rtl::{Netlist, SignalId};
use soc::{build_soc, SocConfig, SocInstance, StateClass};
use std::sync::Arc;

/// Whether the secret initially resides in the data cache (the two columns of
/// the paper's Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecretScenario {
    /// A valid copy of the secret is in the cache at the starting time point.
    InCache,
    /// The secret only resides in main memory.
    NotInCache,
}

impl SecretScenario {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SecretScenario::InCache => "D in cache",
            SecretScenario::NotInCache => "D not in cache",
        }
    }
}

/// A register present in both SoC instances of the miter.
#[derive(Debug, Clone)]
pub struct RegisterPair {
    /// Register name relative to the instance prefix (e.g. `"pc"`,
    /// `"dcache.valid0"`).
    pub name: String,
    /// State classification.
    pub class: StateClass,
    /// Current-value signal in instance 1.
    pub signal1: SignalId,
    /// Current-value signal in instance 2.
    pub signal2: SignalId,
    /// Single-bit miter signal: the pair holds equal values.
    pub equal: SignalId,
    /// Single-bit miter signal: the pair holds equal values *or* both
    /// instances agree that the holding stage cannot architecturally commit
    /// (the blocking condition used by the inductive closure proofs).
    pub equal_or_blocked: SignalId,
}

/// A labelled single-bit constraint signal of the miter.
#[derive(Debug, Clone)]
pub struct NamedConstraint {
    /// Human-readable description.
    pub label: String,
    /// The single-bit signal that must hold.
    pub signal: SignalId,
}

/// The two-instance UPEC computational model.
///
/// Both SoC instances are elaborated into one netlist. The model also builds
/// the miter-level constraint signals required by the UPEC interval property
/// (paper Fig. 4):
///
/// * instruction-memory coupling (same fetch address ⇒ same instruction),
/// * Constraint 4 — equality of non-protected memory read data,
/// * Constraint 1 — no ongoing protected accesses,
/// * Constraint 2 — cache protocol monitor,
/// * Constraint 3 — secure system software,
/// * the `secret_data_protected` premise, and
/// * conditional equality of the cache data arrays (equal except for a line
///   that legitimately holds the secret).
#[derive(Debug)]
pub struct UpecModel {
    netlist: Netlist,
    config: SocConfig,
    scenario: SecretScenario,
    soc1: SocInstance,
    soc2: SocInstance,
    pairs: Vec<RegisterPair>,
    initial_constraints: Vec<NamedConstraint>,
    window_constraints: Vec<NamedConstraint>,
    memory_equivalence: SignalId,
    compiled: Arc<CompiledTransition>,
}

impl UpecModel {
    /// Builds the miter for a SoC configuration and secret scenario.
    pub fn new(config: &SocConfig, scenario: SecretScenario) -> Self {
        let mut n = Netlist::new(format!("upec_miter_{}", config.variant().name()));
        let soc1 = build_soc(&mut n, config, "soc1");
        let soc2 = build_soc(&mut n, config, "soc2");

        // ------------------------------------------------------------------
        // Register pairing and per-pair miter signals
        // ------------------------------------------------------------------
        // Both instances declare the same registers in the same order, so the
        // i-th register of one pairs with the i-th of the other. The miter
        // signals are created in that order, which fixes the miter's CNF
        // variable numbering.
        let label = |full: &str, prefix: &str| -> String {
            full.strip_prefix(&format!("{prefix}."))
                .unwrap_or(full)
                .to_string()
        };
        let mut pairs = Vec::with_capacity(soc1.registers.len());
        assert_eq!(soc1.registers.len(), soc2.registers.len());
        for (reg1, reg2) in soc1.registers.iter().zip(&soc2.registers) {
            let name = label(&n.register_info(reg1.handle.id()).name, &soc1.prefix);
            let name2 = label(&n.register_info(reg2.handle.id()).name, &soc2.prefix);
            assert_eq!(name, name2, "the instances declare the same registers");
            let (signal1, signal2) = (reg1.handle.value(), reg2.handle.value());
            let equal = n.eq(signal1, signal2);
            let equal_or_blocked = match reg1.blocking {
                Some(blocking) => {
                    let both = n.and(
                        soc1.blocking_signal(blocking),
                        soc2.blocking_signal(blocking),
                    );
                    n.or(equal, both)
                }
                None => equal,
            };
            pairs.push(RegisterPair {
                name,
                class: reg1.class,
                signal1,
                signal2,
                equal,
                equal_or_blocked,
            });
        }
        pairs.sort_by(|a, b| a.name.cmp(&b.name));

        // ------------------------------------------------------------------
        // Memory equivalence: cache data arrays equal except for a line that
        // legitimately holds the secret (paper Sec. V-B, Constraint 4's
        // cache-side counterpart).
        // ------------------------------------------------------------------
        let memory_equivalence = {
            let secret_line = soc1.cache_lines[config.secret_index() as usize]
                .data
                .value();
            let mut terms = Vec::new();
            for pair in pairs.iter().filter(|p| p.class == StateClass::Memory) {
                if pair.signal1 == secret_line {
                    // May differ only when the line actually holds the secret.
                    let not_present = n.not(soc1.secret_line_present);
                    let ok = n.implies(not_present, pair.equal);
                    terms.push(ok);
                } else {
                    terms.push(pair.equal);
                }
            }
            n.and_all(terms)
        };

        // ------------------------------------------------------------------
        // Cross-instance input coupling
        // ------------------------------------------------------------------
        // Same fetch address -> same instruction word (the program is the
        // same, attacker-chosen, in both instances).
        let instr_coupling = {
            let same_pc = n.eq(soc1.imem_addr, soc2.imem_addr);
            let same_instr = n.eq(soc1.imem_instr, soc2.imem_instr);
            n.implies(same_pc, same_instr)
        };
        // Constraint 4: same (non-secret) refill address -> same read data.
        let memory_coupling = {
            let both_resp = n.and(soc1.mem_read_resp_now, soc2.mem_read_resp_now);
            let same_addr = n.eq(soc1.mem_read_addr, soc2.mem_read_addr);
            let secret = n.lit(u64::from(soc::SECRET_ADDR & !3), 32);
            let addr_word = {
                let hi = n.slice(soc1.mem_read_addr, 31, 2);
                let lo = n.lit(0, 2);
                n.concat(hi, lo)
            };
            let is_secret = n.eq(addr_word, secret);
            let not_secret = n.not(is_secret);
            let premise = n.and_all([both_resp, same_addr, not_secret]);
            let same_data = n.eq(soc1.mem_rdata, soc2.mem_rdata);
            n.implies(premise, same_data)
        };

        // ------------------------------------------------------------------
        // Constraint signals
        // ------------------------------------------------------------------
        let mut initial_constraints = vec![
            NamedConstraint {
                label: "secret_data_protected".into(),
                signal: soc1.secret_protected,
            },
            NamedConstraint {
                label: "no_ongoing_protected_access (instance 1)".into(),
                signal: soc1.no_ongoing_protected_access,
            },
            NamedConstraint {
                label: "no_ongoing_protected_access (instance 2)".into(),
                signal: soc2.no_ongoing_protected_access,
            },
            NamedConstraint {
                label: "memory equal except secret".into(),
                signal: memory_equivalence,
            },
        ];
        match scenario {
            SecretScenario::InCache => {
                initial_constraints.push(NamedConstraint {
                    label: "secret line present in the cache".into(),
                    signal: soc1.secret_line_present,
                });
            }
            SecretScenario::NotInCache => {
                let absent = n.not(soc1.secret_line_present);
                initial_constraints.push(NamedConstraint {
                    label: "secret line absent from the cache".into(),
                    signal: absent,
                });
            }
        }
        let window_constraints = vec![
            NamedConstraint {
                label: "instruction memory coupling".into(),
                signal: instr_coupling,
            },
            NamedConstraint {
                label: "equality of non-protected memory (Constraint 4)".into(),
                signal: memory_coupling,
            },
            NamedConstraint {
                label: "cache monitor valid (instance 1)".into(),
                signal: soc1.cache_monitor_valid,
            },
            NamedConstraint {
                label: "cache monitor valid (instance 2)".into(),
                signal: soc2.cache_monitor_valid,
            },
            NamedConstraint {
                label: "pipeline monitor valid (instance 1)".into(),
                signal: soc1.pipeline_monitor_valid,
            },
            NamedConstraint {
                label: "pipeline monitor valid (instance 2)".into(),
                signal: soc2.pipeline_monitor_valid,
            },
            NamedConstraint {
                label: "secure system software (instance 1)".into(),
                signal: soc1.secure_sysw_ok,
            },
            NamedConstraint {
                label: "secure system software (instance 2)".into(),
                signal: soc2.secure_sysw_ok,
            },
        ];

        // Compile the transition relation once per miter (which also
        // validates the miter netlist): cone-of-influence roots are every
        // signal a UPEC query can constrain, commit to or extract. All
        // sessions and checkers share this schedule through the `Arc`.
        let mut roots: Vec<SignalId> = Vec::new();
        roots.extend(initial_constraints.iter().map(|c| c.signal));
        roots.extend(window_constraints.iter().map(|c| c.signal));
        roots.push(memory_equivalence);
        for pair in &pairs {
            roots.extend([
                pair.signal1,
                pair.signal2,
                pair.equal,
                pair.equal_or_blocked,
            ]);
        }
        let compiled = Arc::new(CompiledTransition::compile(&n, &roots));

        Self {
            netlist: n,
            config: *config,
            scenario,
            soc1,
            soc2,
            pairs,
            initial_constraints,
            window_constraints,
            memory_equivalence,
            compiled,
        }
    }

    /// The transition relation compiled for this miter (cone-of-influence
    /// pruned, structurally hashed, constant folded). Shared by every
    /// session opened on this model.
    pub fn compiled_transition(&self) -> &Arc<CompiledTransition> {
        &self.compiled
    }

    /// The miter netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The SoC configuration being verified.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The secret scenario the model was built for.
    pub fn scenario(&self) -> SecretScenario {
        self.scenario
    }

    /// Instance 1 of the SoC.
    pub fn soc1(&self) -> &SocInstance {
        &self.soc1
    }

    /// Instance 2 of the SoC.
    pub fn soc2(&self) -> &SocInstance {
        &self.soc2
    }

    /// All register pairs of the miter.
    pub fn pairs(&self) -> &[RegisterPair] {
        &self.pairs
    }

    /// Register pairs of a given state class.
    pub fn pairs_of_class(&self, class: StateClass) -> impl Iterator<Item = &RegisterPair> {
        self.pairs.iter().filter(move |p| p.class == class)
    }

    /// Looks up a pair by its (prefix-relative) name.
    pub fn pair(&self, name: &str) -> Option<&RegisterPair> {
        self.pairs.iter().find(|p| p.name == name)
    }

    /// Frame-0 alias pairs `(instance-2 register, instance-1 register)` for
    /// every non-memory pair: the `micro_soc_state1 = micro_soc_state2`
    /// assumption of the paper's Fig. 4, stated structurally (see
    /// [`bmc::Unrolling::with_compiled`]).
    pub fn frame0_aliases(&self) -> Vec<(SignalId, SignalId)> {
        self.pairs
            .iter()
            .filter(|p| p.class != StateClass::Memory)
            .map(|p| (p.signal2, p.signal1))
            .collect()
    }

    /// Constraints assumed at the starting time point `t`.
    pub fn initial_constraints(&self) -> &[NamedConstraint] {
        &self.initial_constraints
    }

    /// Constraints assumed during the whole proof window.
    pub fn window_constraints(&self) -> &[NamedConstraint] {
        &self.window_constraints
    }

    /// The conditional cache-data equivalence signal ("memories equal except
    /// for the secret").
    pub fn memory_equivalence(&self) -> SignalId {
        self.memory_equivalence
    }

    /// Default UPEC window length `d_MEM` for this model.
    pub fn d_mem(&self) -> usize {
        self.config
            .d_mem(matches!(self.scenario, SecretScenario::InCache))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soc::SocVariant;

    /// Every geometry the registry and the simulator use, for each design
    /// variant, with its miter's pair count and its architectural,
    /// microarchitectural and memory pair counts.
    fn geometries() -> Vec<(SocConfig, [usize; 4])> {
        let r4c2 = [76, 13, 61, 2];
        [
            SocVariant::Secure,
            SocVariant::MeltdownStyle,
            SocVariant::Orc,
            SocVariant::PmpLockBug,
        ]
        .into_iter()
        .flat_map(|variant| {
            let formal = SocConfig::formal(variant);
            [
                (formal, r4c2),
                (formal.with_miss_latency(2), r4c2),
                (formal.with_store_latency(2), r4c2),
                (formal.with_cache_lines(4), [82, 13, 65, 4]),
                (SocConfig::new(variant), [86, 17, 65, 4]),
            ]
        })
        .collect()
    }

    #[test]
    fn miter_pairs_every_register_once() {
        for (config, [pairs, ..]) in geometries() {
            let model = UpecModel::new(&config, SecretScenario::InCache);
            let netlist = model.netlist();
            assert_eq!(model.pairs().len(), pairs, "{config:?}");
            // Labels are unique (the pairs are sorted by label), so
            // `UpecModel::pair` and the name-set commitments are unambiguous.
            assert!(
                model.pairs().windows(2).all(|w| w[0].name != w[1].name),
                "{config:?}"
            );
            // Every register of instance 1 is paired exactly once, with the
            // register of the same name in instance 2.
            let mut paired: Vec<SignalId> = model.pairs().iter().map(|p| p.signal1).collect();
            paired.sort_unstable();
            let soc1: Vec<SignalId> = netlist
                .registers()
                .iter()
                .filter(|r| r.name.starts_with("soc1."))
                .map(|r| r.signal)
                .collect();
            assert_eq!(paired, soc1, "{config:?}");
            for pair in model.pairs() {
                assert_eq!(
                    netlist.signal_name(pair.signal1),
                    format!("soc1.{}", pair.name)
                );
                assert_eq!(
                    netlist.signal_name(pair.signal2),
                    format!("soc2.{}", pair.name)
                );
            }
        }
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        );
        assert!(model.pair("pc").is_some());
        assert!(model.pair("dcache.pw_valid").is_some());
        assert!(model.pair("nonexistent").is_none());
    }

    #[test]
    fn classification_covers_arch_micro_and_memory() {
        for (config, [_, arch, micro, memory]) in geometries() {
            let model = UpecModel::new(&config, SecretScenario::InCache);
            let count = |class| model.pairs_of_class(class).count();
            assert_eq!(
                [
                    count(StateClass::Architectural),
                    count(StateClass::Microarchitectural),
                    count(StateClass::Memory),
                ],
                [arch, micro, memory],
                "{config:?}"
            );
            assert_eq!(memory, config.cache_lines as usize);
            assert_eq!(model.pair("pc").unwrap().class, StateClass::Architectural);
            assert_eq!(
                model.pair("ex_mem_result").unwrap().class,
                StateClass::Microarchitectural
            );
        }
    }

    /// Exactly the 12 EX/MEM and the 11 MEM/WB pipeline registers carry a
    /// blocking condition, on every registry miter.
    #[test]
    fn exactly_the_ex_mem_and_mem_wb_pairs_are_blockable() {
        for instance in crate::scenarios::instances() {
            let model = instance.build_model();
            let blockable: Vec<&str> = model
                .pairs()
                .iter()
                .filter(|p| p.equal_or_blocked != p.equal)
                .map(|p| p.name.as_str())
                .collect();
            let stage = |prefix: &str| blockable.iter().filter(|n| n.starts_with(prefix)).count();
            assert_eq!(
                [blockable.len(), stage("ex_mem_"), stage("mem_wb_")],
                [23, 12, 11],
                "{}",
                instance.id()
            );
        }
    }

    #[test]
    fn scenarios_add_the_right_initial_constraint() {
        let cached = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        );
        assert!(cached
            .initial_constraints()
            .iter()
            .any(|c| c.label.contains("present")));
        let uncached = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::NotInCache,
        );
        assert!(uncached
            .initial_constraints()
            .iter()
            .any(|c| c.label.contains("absent")));
        assert!(cached.d_mem() < uncached.d_mem());
        assert_eq!(cached.scenario().label(), "D in cache");
    }
}
