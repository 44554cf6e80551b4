//! The attack-scenario registry: one named table of every workload the
//! reproduction can check, shared by the engine, the bench binaries, the
//! examples and the tests.
//!
//! Each [`ScenarioInstance`] bundles a SoC configuration (the design variant
//! and its geometry), a secret placement, a proof-obligation shape and the
//! window range to scan, together with the paper figure/table it reproduces
//! and the expected verdict. [`registry`] holds the base scenarios at the
//! formal geometry, [`SocConfig::formal`]; [`instances`] adds their geometry
//! families. Everything that checks or demonstrates a scenario drives off
//! these tables (or [`by_id`] and [`instance_by_id`]) instead of repeating
//! its setup.
//!
//! # Examples
//!
//! ```
//! use upec::scenarios;
//!
//! let orc = scenarios::by_id("orc").expect("registered");
//! assert_eq!(orc.config.variant().name(), "orc");
//! let model = orc.build_model();
//! assert!(model.pairs().len() > 10);
//! ```

use crate::{SecretScenario, UpecModel};
use soc::{Instruction, Program, SocConfig, SocVariant, SECRET_ADDR};
use std::collections::BTreeSet;

/// Shape of the proof obligation (which register pairs must stay equal at
/// `t+k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitmentKind {
    /// Every architectural and microarchitectural register pair (the
    /// methodology's first iteration; violations start as P-alerts).
    Full,
    /// Architectural registers only: any violation is an L-alert, i.e. a
    /// proven covert channel.
    Architectural,
    /// The data cache's tag/valid state only: detects secret-dependent cache
    /// footprints (the paper's "well-known starting point for side channel
    /// attacks").
    CacheState,
}

/// The verdict a scenario is expected to produce (used by tests and the CI
/// regression gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The property is proven at every window in the scan range.
    Proven,
    /// P-alerts occur but no L-alert: secret data propagates into
    /// program-invisible state only.
    PAlertsOnly,
    /// An L-alert occurs within the scan range: the design has a covert
    /// channel (or a direct leak).
    LAlert,
}

/// A named, self-contained attack scenario pinned to one SoC configuration,
/// with the window range and expected verdict *for that geometry* (resizing
/// the cache or stretching a latency moves the window at which an alert
/// first appears).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioInstance {
    /// Stable base identifier, shared by every geometry of the scenario
    /// (used by [`by_id`], bench CLIs, CI).
    pub name: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Paper figure/table/section this scenario reproduces.
    pub paper_ref: &'static str,
    /// The design under verification: its variant and geometry.
    pub config: SocConfig,
    /// Secret placement at the symbolic starting time point.
    pub secret: SecretScenario,
    /// Proof-obligation shape.
    pub commitment: CommitmentKind,
    /// First window length worth checking (skipping windows that are too
    /// short for the attack to complete keeps scans cheap; cf. the PMP
    /// scenario, whose shortest leak needs seven cycles).
    pub start_window: usize,
    /// Last window length of the scan range.
    pub max_window: usize,
    /// Expected verdict over the scan range.
    pub expected: Expectation,
    /// One-line description for reports and the README table.
    pub description: &'static str,
}

impl ScenarioInstance {
    /// Stable identifier: the base name, suffixed with the geometry label for
    /// geometries other than [`SocConfig::formal`] (`cache-footprint@r4c4m1s1`).
    pub fn id(&self) -> String {
        if self.at_formal_geometry() {
            self.name.to_string()
        } else {
            format!("{}@{}", self.name, self.geometry_label())
        }
    }

    fn at_formal_geometry(&self) -> bool {
        self.config == SocConfig::formal(self.config.variant())
    }

    /// Compact geometry label (`r4c2m1s1` style) used in instance ids.
    fn geometry_label(&self) -> String {
        let c = &self.config;
        format!(
            "r{}c{}m{}s{}",
            c.num_registers, c.cache_lines, c.miss_latency, c.store_latency
        )
    }

    /// The full-size geometry used for the simulation-based figures.
    pub fn sim_config(&self) -> SocConfig {
        SocConfig::new(self.config.variant())
    }

    /// Builds the two-instance UPEC miter for this instance's geometry.
    pub fn build_model(&self) -> UpecModel {
        UpecModel::new(&self.config, self.secret)
    }

    /// The commitment set for this instance's obligation shape.
    pub fn commitment_set(&self, model: &UpecModel) -> BTreeSet<String> {
        match self.commitment {
            CommitmentKind::Full => crate::full_commitment(model),
            CommitmentKind::Architectural => crate::architectural_commitment(model),
            CommitmentKind::CacheState => model
                .pairs()
                .iter()
                .map(|p| p.name.clone())
                .filter(|n| n.starts_with("dcache.tag") || n.starts_with("dcache.valid"))
                .collect(),
        }
    }

    /// The attacker program demonstrating this scenario on the simulator
    /// (`None` for purely formal scenarios). The programs address only the
    /// fixed memory map, so no SoC configuration changes them.
    pub fn demo_program(&self, _config: &SocConfig) -> Option<Program> {
        match self.name {
            "orc" => Some(orc_attack_program(3)),
            "meltdown" | "meltdown-timing" | "cache-footprint" => Some(transient_program()),
            "fuzz-meltdown-footprint" | "fuzz-orc-footprint" => Some(fuzz_footprint_witness()),
            "fuzz-orc-timing" => Some(fuzz_timing_witness()),
            _ => None,
        }
    }
}

/// One iteration of the Orc attack (paper Fig. 2) for a given guess of the
/// secret's cache index.
pub fn orc_attack_program(guess: u32) -> Program {
    let accessible = 0x40u32;
    let mut p = Program::new(0);
    p.push(Instruction::Addi {
        rd: 1,
        rs1: 0,
        imm: SECRET_ADDR as i32,
    });
    p.push(Instruction::Addi {
        rd: 2,
        rs1: 0,
        imm: accessible as i32,
    });
    p.push(Instruction::Addi {
        rd: 2,
        rs1: 2,
        imm: (guess * 4) as i32,
    });
    p.push(Instruction::Sw {
        rs1: 2,
        rs2: 3,
        offset: 0,
    });
    p.push(Instruction::Lw {
        rd: 4,
        rs1: 1,
        offset: 0,
    });
    p.push(Instruction::Lw {
        rd: 5,
        rs1: 4,
        offset: 0,
    });
    p.push_nops(2);
    p
}

/// The fuzz-mined, delta-debugging-minimized cache-footprint witness
/// (`soc::fuzz` pipeline, seed `0xdabd_4c19`, case 36): a transient
/// dependent load whose refill marks a secret-indexed cache line. The exact
/// instruction bytes are pinned — a test re-mines and re-minimizes them from
/// the seed.
pub fn fuzz_footprint_witness() -> Program {
    let mut p = Program::new(0);
    p.push(Instruction::Addi {
        rd: 2,
        rs1: 0,
        imm: 0x200,
    });
    p.push(Instruction::Lw {
        rd: 5,
        rs1: 2,
        offset: 0,
    });
    p.push(Instruction::Lw {
        rd: 7,
        rs1: 5,
        offset: 0,
    });
    p
}

/// The fuzz-mined, delta-debugging-minimized timing witness (`soc::fuzz`
/// pipeline, seed `0xdabd_4c19`, case 137): a still-pending store whose cache
/// line collides with the transient dependent load's line for exactly one
/// secret value, skewing trap timing. The minimizer even dropped the pointer
/// prologue — `x1` is zero, so the store lands at address `4`, which maps to
/// the same line as one of the two oracle secrets.
pub fn fuzz_timing_witness() -> Program {
    let mut p = Program::new(0);
    p.push(Instruction::Addi {
        rd: 2,
        rs1: 0,
        imm: 0x200,
    });
    p.push(Instruction::Sw {
        rs1: 1,
        rs2: 2,
        offset: 4,
    });
    p.push(Instruction::Lw {
        rd: 7,
        rs1: 2,
        offset: 0,
    });
    p.push(Instruction::Lw {
        rd: 0,
        rs1: 7,
        offset: 0,
    });
    p
}

/// The Meltdown-style transient sequence used for the Fig. 1 footprint
/// experiment.
pub fn transient_program() -> Program {
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
    p.push(Instruction::Lw {
        rd: 5,
        rs1: 4,
        offset: 0,
    });
    p.push_nops(2);
    p
}

/// The table behind [`registry`]; a static, so that [`by_id`] looks a
/// scenario up without building the list.
static REGISTRY: [ScenarioInstance; 11] = [
    ScenarioInstance {
        name: "secure-uncached",
        title: "Secure design, secret only in main memory",
        paper_ref: "Table I, column 'D not in cache'",
        config: SocConfig::formal(SocVariant::Secure),
        secret: SecretScenario::NotInCache,
        commitment: CommitmentKind::Full,
        start_window: 1,
        max_window: 2,
        expected: Expectation::Proven,
        description: "Baseline proof: no state deviation of any kind on the original design",
    },
    ScenarioInstance {
        name: "secure-cached",
        title: "Secure design, secret cached",
        paper_ref: "Table I, column 'D in cache'",
        config: SocConfig::formal(SocVariant::Secure),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::Full,
        start_window: 1,
        max_window: 2,
        expected: Expectation::PAlertsOnly,
        description: "P-alerts appear (cache hit data enters the pipeline) but close inductively",
    },
    ScenarioInstance {
        name: "secure-arch-only",
        title: "Secure design, architectural obligation only",
        paper_ref: "Sec. V control experiment",
        config: SocConfig::formal(SocVariant::Secure),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::Architectural,
        start_window: 1,
        max_window: 2,
        expected: Expectation::Proven,
        description: "Control: the original design shows no L-alert at small windows",
    },
    ScenarioInstance {
        name: "meltdown",
        title: "Meltdown-style uncancelled refill",
        paper_ref: "Sec. VII-B, Table II row 2",
        config: SocConfig::formal(SocVariant::MeltdownStyle),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::Full,
        start_window: 1,
        max_window: 2,
        expected: Expectation::PAlertsOnly,
        description: "Transient refill survives the flush; secret marks microarchitectural state",
    },
    ScenarioInstance {
        name: "meltdown-timing",
        title: "Meltdown-style refill as a timing channel",
        paper_ref: "new variant (beyond the paper's Table II)",
        config: SocConfig::formal(SocVariant::MeltdownStyle),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::Architectural,
        start_window: 3,
        max_window: 3,
        expected: Expectation::LAlert,
        description: "The uncancelled refill also skews architectural timing: an L-alert at k=3",
    },
    ScenarioInstance {
        name: "cache-footprint",
        title: "Secret-dependent cache footprint",
        paper_ref: "Fig. 1",
        config: SocConfig::formal(SocVariant::MeltdownStyle),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::CacheState,
        start_window: 1,
        max_window: 5,
        expected: Expectation::PAlertsOnly,
        description: "The dcache tag/valid state depends on the secret after a transient access (first visible at k=5)",
    },
    ScenarioInstance {
        name: "orc",
        title: "Orc replay-buffer bypass",
        paper_ref: "Fig. 2, Table II row 1",
        config: SocConfig::formal(SocVariant::Orc),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::Architectural,
        start_window: 1,
        max_window: 5,
        expected: Expectation::LAlert,
        description: "RAW-hazard stall timing leaks the secret's cache index: a true covert channel",
    },
    ScenarioInstance {
        name: "pmp-lock",
        title: "PMP TOR-lock ISA violation",
        paper_ref: "Sec. VII-C",
        config: SocConfig::formal(SocVariant::PmpLockBug),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::Architectural,
        start_window: 7,
        max_window: 9,
        expected: Expectation::LAlert,
        description: "Privileged code can move a locked region's base: the secret leaks directly",
    },
    ScenarioInstance {
        name: "fuzz-meltdown-footprint",
        title: "Fuzz-mined transient refill footprint",
        paper_ref: "fuzz-mined witness (cf. Fig. 1)",
        config: SocConfig::formal(SocVariant::MeltdownStyle),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::CacheState,
        start_window: 1,
        max_window: 5,
        expected: Expectation::PAlertsOnly,
        description: "Minimized 3-instruction witness from the fuzz miner: a dependent load's refill marks the cache",
    },
    ScenarioInstance {
        name: "fuzz-orc-footprint",
        title: "Fuzz-mined Orc cache footprint",
        paper_ref: "fuzz-mined witness (beyond Table II)",
        config: SocConfig::formal(SocVariant::Orc),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::CacheState,
        start_window: 1,
        max_window: 5,
        expected: Expectation::PAlertsOnly,
        description: "The replay-buffer bypass also lets the transient load mark the cache, not just stall",
    },
    ScenarioInstance {
        name: "fuzz-orc-timing",
        title: "Fuzz-mined Orc stall-timing witness",
        paper_ref: "fuzz-mined witness (cf. Fig. 2)",
        config: SocConfig::formal(SocVariant::Orc),
        secret: SecretScenario::InCache,
        commitment: CommitmentKind::Architectural,
        start_window: 1,
        max_window: 5,
        expected: Expectation::LAlert,
        description: "Minimized 4-instruction witness: a pending store collides with the transient load's line",
    },
];

/// The base scenarios at [`SocConfig::formal`], in presentation order.
pub fn registry() -> Vec<ScenarioInstance> {
    REGISTRY.to_vec()
}

/// Looks up a base scenario by its stable name.
pub fn by_id(id: &str) -> Option<ScenarioInstance> {
    REGISTRY.iter().find(|s| s.name == id).copied()
}

/// The full instance registry: every scenario at [`SocConfig::formal`] plus
/// the geometry families of the cheap-to-check scenarios, each member its
/// base scenario with one knob resized: the paper's central claim — UPEC
/// needs no prior knowledge of the attack — should survive a resized
/// microarchitecture.
///
/// Windows and expectations of the resized instances are pinned from
/// measurement (the `--ignored` full-registry walk differential re-verifies
/// all of them): growing the cache or stretching a latency shifts the
/// window at which an alert first appears, so each instance carries its own
/// range.
pub fn instances() -> Vec<ScenarioInstance> {
    use Expectation::{LAlert, PAlertsOnly, Proven};
    type Resize = fn(SocConfig) -> SocConfig;
    let cache4: Resize = |c| c.with_cache_lines(4);
    let miss2: Resize = |c| c.with_miss_latency(2);
    let store2: Resize = |c| c.with_store_latency(2);
    let families = [
        // Cache-footprint family (Meltdown-style refill marking the cache).
        ("cache-footprint", cache4, 1, 5, PAlertsOnly),
        ("cache-footprint", miss2, 1, 6, PAlertsOnly),
        ("cache-footprint", store2, 1, 5, PAlertsOnly),
        // The fuzz-mined footprint witness across the same sweep.
        ("fuzz-meltdown-footprint", cache4, 1, 5, PAlertsOnly),
        ("fuzz-meltdown-footprint", miss2, 1, 6, PAlertsOnly),
        ("fuzz-meltdown-footprint", store2, 1, 5, PAlertsOnly),
        // Orc stall-timing family.
        ("orc", cache4, 1, 5, LAlert),
        ("orc", miss2, 1, 5, LAlert),
        ("orc", store2, 1, 5, LAlert),
        // The fuzz-mined timing witness across the same sweep.
        ("fuzz-orc-timing", cache4, 1, 5, LAlert),
        ("fuzz-orc-timing", miss2, 1, 5, LAlert),
        ("fuzz-orc-timing", store2, 1, 5, LAlert),
        // Secure-control family: the proof must keep closing when the
        // microarchitecture grows.
        ("secure-arch-only", cache4, 1, 2, Proven),
        ("secure-arch-only", miss2, 1, 2, Proven),
    ];
    let mut out = registry();
    for (name, resize, start_window, max_window, expected) in families {
        let base = *out
            .iter()
            .find(|s| s.name == name)
            .expect("family of a registered scenario");
        out.push(ScenarioInstance {
            config: resize(base.config),
            start_window,
            max_window,
            expected,
            ..base
        });
    }
    out
}

/// Looks up an instance by its stable identifier (base name, or
/// `name@geometry` for family members).
pub fn instance_by_id(id: &str) -> Option<ScenarioInstance> {
    instances().into_iter().find(|i| i.id() == id)
}

/// Renders the instance registry as the markdown table embedded in the
/// repository README. A test asserts the README contains this exact
/// rendering, so the documentation cannot drift from the registry.
pub fn readme_table() -> String {
    let expected = |e: Expectation| match e {
        Expectation::Proven => "proven",
        Expectation::PAlertsOnly => "P-alerts only",
        Expectation::LAlert => "L-alert",
    };
    let mut out = String::from(
        "| id | paper reference | geometry | windows | expected verdict | description |\n\
         |---|---|---|---|---|---|\n",
    );
    for i in instances() {
        let description = if i.at_formal_geometry() {
            i.description.to_string()
        } else {
            format!("`{}` at the {} geometry", i.name, i.geometry_label())
        };
        out.push_str(&format!(
            "| `{}` | {} | `{}` | {}–{} | {} | {} |\n",
            i.id(),
            if i.at_formal_geometry() {
                i.paper_ref
            } else {
                "family sweep"
            },
            i.geometry_label(),
            i.start_window,
            i.max_window,
            expected(i.expected),
            description,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The README's scenario table is generated from the registry; if this
    /// fails, re-run `scenarios::readme_table()` and paste the output into
    /// the README's "Scenario registry" section.
    #[test]
    fn readme_scenario_table_matches_registry() {
        let readme = include_str!("../../../README.md");
        let table = readme_table();
        assert!(
            readme.contains(&table),
            "README scenario table is out of date; regenerate it with \
             upec::scenarios::readme_table():\n{table}"
        );
    }

    #[test]
    fn ids_are_unique_and_lookup_works() {
        let scenarios = registry();
        let mut ids: Vec<_> = scenarios.iter().map(|s| s.name).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), scenarios.len(), "duplicate scenario ids");
        for scenario in &scenarios {
            assert_eq!(by_id(scenario.name), Some(*scenario));
        }
        assert!(by_id("nonexistent").is_none());
    }

    #[test]
    fn every_scenario_builds_a_model_with_a_nonempty_commitment() {
        for scenario in registry() {
            let model = scenario.build_model();
            let commitment = scenario.commitment_set(&model);
            assert!(
                !commitment.is_empty(),
                "{}: empty commitment",
                scenario.name
            );
            assert!(
                scenario.start_window >= 1 && scenario.start_window <= scenario.max_window,
                "{}",
                scenario.name
            );
        }
    }

    #[test]
    fn demo_programs_have_the_papers_shape() {
        let orc = by_id("orc").unwrap();
        let config = orc.sim_config();
        let p = orc.demo_program(&config).expect("orc ships a demo");
        assert_eq!(p.len(), 8);
        assert!(p.listing().contains("lw x5, 0(x4)"));
        let meltdown = by_id("meltdown").unwrap();
        let t = meltdown.demo_program(&meltdown.sim_config()).expect("demo");
        assert!(t.listing().contains("lw x4, 0(x1)"));
        assert!(by_id("secure-uncached")
            .unwrap()
            .demo_program(&config)
            .is_none());
    }

    #[test]
    fn attack_programs_have_the_papers_shape() {
        let p = orc_attack_program(3);
        assert_eq!(p.len(), 8);
        assert!(p.listing().contains("lw x5, 0(x4)"));
        let t = transient_program();
        assert!(t.listing().contains("lw x4, 0(x1)"));
    }
}
