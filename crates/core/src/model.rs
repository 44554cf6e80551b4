//! The UPEC computational model: two SoC instances with coupled memories
//! (paper Fig. 3).

use bmc::CompiledTransition;
use rtl::{Netlist, SignalId};
use soc::{build_soc, SocConfig, SocInstance};
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

/// Classification of a state-holding element (paper Defs. 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StateClass {
    /// ISA-visible architectural state.
    Architectural,
    /// Program-invisible logic state.
    Microarchitectural,
    /// Cache-line data, treated as part of the memory (excluded from the
    /// logic state like the black-boxed data arrays in the paper).
    Memory,
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
        let strip = |full: &str, prefix: &str| -> String {
            full.strip_prefix(&format!("{prefix}."))
                .unwrap_or(full)
                .to_string()
        };
        let mut pairs = Vec::new();
        let classified = |inst: &SocInstance| {
            let mut map = std::collections::HashMap::new();
            for &r in &inst.arch_registers {
                map.insert(r, StateClass::Architectural);
            }
            for &r in &inst.micro_registers {
                map.insert(r, StateClass::Microarchitectural);
            }
            for &r in &inst.memory_registers {
                map.insert(r, StateClass::Memory);
            }
            map
        };
        let class1 = classified(&soc1);
        // Registers were created in the same order for both instances, so the
        // i-th register of instance 1 corresponds to the i-th of instance 2
        // within each instance's own register range. Match by stripped name
        // to stay robust.
        // Iterate in register-creation order (not HashMap order) so the
        // miter's CNF variable numbering — and with it solver behavior and
        // statistics — is identical on every run.
        let mut regs1: Vec<_> = class1.keys().copied().collect();
        regs1.sort_by_key(|r| r.index());
        for reg1 in regs1 {
            let info1 = n.register_info(reg1).clone();
            let name = strip(&info1.name, &soc1.prefix);
            let full2 = format!("{}.{name}", soc2.prefix);
            let reg2 = n
                .find_register(&full2)
                .unwrap_or_else(|| panic!("instance 2 misses register {full2}"));
            let info2 = n.register_info(reg2).clone();
            let class = class1[&reg1];
            let equal = n.eq(info1.signal, info2.signal);
            let blocking = |inst: &SocInstance, name: &str| -> Option<SignalId> {
                // Fault flags get their stricter blocking conditions: a
                // differing fault bit selects which trap is taken (it feeds
                // `mcause` and the flush logic), so the stage's own fault
                // must not excuse it — see the `SocInstance` field docs.
                if name == "ex_mem_fault" {
                    Some(inst.ex_mem_fault_blocked)
                } else if name == "mem_wb_fault" {
                    Some(inst.mem_wb_fault_blocked)
                } else if name.starts_with("ex_mem_") {
                    Some(inst.ex_mem_blocked)
                } else if name.starts_with("mem_wb_") {
                    Some(inst.mem_wb_blocked)
                } else {
                    None
                }
            };
            let equal_or_blocked = match (blocking(&soc1, &name), blocking(&soc2, &name)) {
                (Some(b1), Some(b2)) => {
                    let both = n.and(b1, b2);
                    n.or(equal, both)
                }
                _ => equal,
            };
            pairs.push(RegisterPair {
                name,
                class,
                signal1: info1.signal,
                signal2: info2.signal,
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
            let mut terms = Vec::new();
            for pair in pairs.iter().filter(|p| p.class == StateClass::Memory) {
                let secret_line = format!("dcache.data{}", config.secret_index());
                if pair.name == secret_line {
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

    #[test]
    fn miter_pairs_every_register_once() {
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        );
        let total_regs_one_instance = model.soc1().arch_registers.len()
            + model.soc1().micro_registers.len()
            + model.soc1().memory_registers.len();
        assert_eq!(model.pairs().len(), total_regs_one_instance);
        // Names are unique.
        let mut names: Vec<_> = model.pairs().iter().map(|p| p.name.clone()).collect();
        names.dedup();
        assert_eq!(names.len(), model.pairs().len());
        assert!(model.pair("pc").is_some());
        assert!(model.pair("dcache.pw_valid").is_some());
        assert!(model.pair("nonexistent").is_none());
    }

    #[test]
    fn classification_covers_arch_micro_and_memory() {
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::Secure),
            SecretScenario::InCache,
        );
        assert!(model.pairs_of_class(StateClass::Architectural).count() >= 10);
        assert!(model.pairs_of_class(StateClass::Microarchitectural).count() >= 40);
        assert_eq!(
            model.pairs_of_class(StateClass::Memory).count(),
            model.config().cache_lines as usize
        );
        assert_eq!(model.pair("pc").unwrap().class, StateClass::Architectural);
        assert_eq!(
            model.pair("ex_mem_result").unwrap().class,
            StateClass::Microarchitectural
        );
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
