//! The attack-scenario registry: one named table of every workload the
//! reproduction can check, shared by the engine, the bench binaries and the
//! examples.
//!
//! Each [`ScenarioSpec`] bundles a design variant, a secret placement, a
//! proof-obligation shape and the window range to scan, together with the
//! paper figure/table it reproduces and the expected verdict. Everything
//! that used to duplicate this setup — bench binaries, examples, tests —
//! drives off [`registry`] (or [`by_id`]) instead.
//!
//! # Examples
//!
//! ```
//! use upec::scenarios;
//!
//! let orc = scenarios::by_id("orc").expect("registered");
//! assert_eq!(orc.variant.name(), "orc");
//! let model = orc.build_model();
//! assert!(model.pairs().len() > 10);
//! ```

use crate::{SecretScenario, StateClass, UpecModel};
use soc::{Instruction, Program, SocConfig, SocVariant};
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

/// The microarchitectural geometry of one scenario instance: the `SocConfig`
/// knobs that parameterize a scenario into a *family*.
///
/// Every [`ScenarioSpec`] is checked at [`Geometry::formal_default`]; the
/// instance registry ([`instances`]) additionally sweeps selected scenarios
/// across larger caches and longer memory latencies, because the paper's
/// central claim — UPEC needs no prior knowledge of the attack — should
/// survive a resized microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Number of architectural registers (power of two in `2..=32`).
    pub registers: u32,
    /// Number of direct-mapped cache lines (power of two, `>= 2`).
    pub cache_lines: u32,
    /// Cache-miss refill latency in cycles.
    pub miss_latency: u32,
    /// Pending-store drain latency in cycles.
    pub store_latency: u32,
}

impl Geometry {
    /// The reduced default geometry every formal proof runs at.
    pub fn formal_default() -> Self {
        Self {
            registers: 4,
            cache_lines: 2,
            miss_latency: 1,
            store_latency: 1,
        }
    }

    /// Applies the geometry to a design variant.
    pub fn apply(&self, variant: SocVariant) -> SocConfig {
        SocConfig::new(variant)
            .with_registers(self.registers)
            .with_cache_lines(self.cache_lines)
            .with_miss_latency(self.miss_latency)
            .with_store_latency(self.store_latency)
    }

    /// Compact label (`r4c2m1s1` style) used in instance identifiers.
    pub fn label(&self) -> String {
        format!(
            "r{}c{}m{}s{}",
            self.registers, self.cache_lines, self.miss_latency, self.store_latency
        )
    }

    /// Whether this is the default formal geometry.
    pub fn is_default(&self) -> bool {
        *self == Self::formal_default()
    }

    /// The default geometry with a resized cache (builder style).
    pub fn with_cache_lines(mut self, lines: u32) -> Self {
        self.cache_lines = lines;
        self
    }

    /// The geometry with a different miss latency (builder style).
    pub fn with_miss_latency(mut self, cycles: u32) -> Self {
        self.miss_latency = cycles;
        self
    }

    /// The geometry with a different store latency (builder style).
    pub fn with_store_latency(mut self, cycles: u32) -> Self {
        self.store_latency = cycles;
        self
    }
}

/// A named, self-contained attack scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Stable machine-readable identifier (used by `by_id`, bench CLIs, CI).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Paper figure/table/section this scenario reproduces.
    pub paper_ref: &'static str,
    /// Design variant under verification.
    pub variant: SocVariant,
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

impl ScenarioSpec {
    /// The reduced SoC geometry used for the formal proofs (small enough for
    /// the from-scratch SAT solver while preserving every microarchitectural
    /// mechanism the paper's evaluation depends on).
    pub fn formal_config(&self) -> SocConfig {
        Geometry::formal_default().apply(self.variant)
    }

    /// The full-size geometry used for the simulation-based figures.
    pub fn sim_config(&self) -> SocConfig {
        SocConfig::new(self.variant)
    }

    /// Builds the two-instance UPEC miter for this scenario (formal
    /// geometry).
    pub fn build_model(&self) -> UpecModel {
        UpecModel::new(&self.formal_config(), self.secret)
    }

    /// The commitment set for this scenario's obligation shape.
    pub fn commitment_set(&self, model: &UpecModel) -> BTreeSet<String> {
        match self.commitment {
            CommitmentKind::Full => crate::full_commitment(model),
            CommitmentKind::Architectural => model
                .pairs_of_class(StateClass::Architectural)
                .map(|p| p.name.clone())
                .collect(),
            CommitmentKind::CacheState => model
                .pairs()
                .iter()
                .map(|p| p.name.clone())
                .filter(|n| n.starts_with("dcache.tag") || n.starts_with("dcache.valid"))
                .collect(),
        }
    }

    /// The attacker program demonstrating this scenario on the simulator
    /// (`None` for purely formal scenarios).
    pub fn demo_program(&self, config: &SocConfig) -> Option<Program> {
        match self.id {
            "orc" => Some(orc_attack_program(config, 3)),
            "meltdown" | "meltdown-timing" | "cache-footprint" => Some(transient_program(config)),
            "fuzz-meltdown-footprint" | "fuzz-orc-footprint" => Some(fuzz_footprint_witness()),
            "fuzz-orc-timing" => Some(fuzz_timing_witness()),
            _ => None,
        }
    }
}

/// One iteration of the Orc attack (paper Fig. 2) for a given guess of the
/// secret's cache index.
pub fn orc_attack_program(config: &SocConfig, guess: u32) -> Program {
    let accessible = 0x40u32;
    let mut p = Program::new(0);
    p.push(Instruction::Addi {
        rd: 1,
        rs1: 0,
        imm: config.secret_addr as i32,
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
pub fn transient_program(config: &SocConfig) -> Program {
    let mut p = Program::new(0);
    p.push(Instruction::Addi {
        rd: 1,
        rs1: 0,
        imm: config.secret_addr as i32,
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

/// The full scenario registry, in presentation order.
pub fn registry() -> Vec<ScenarioSpec> {
    vec![
        ScenarioSpec {
            id: "secure-uncached",
            title: "Secure design, secret only in main memory",
            paper_ref: "Table I, column 'D not in cache'",
            variant: SocVariant::Secure,
            secret: SecretScenario::NotInCache,
            commitment: CommitmentKind::Full,
            start_window: 1,
            max_window: 2,
            expected: Expectation::Proven,
            description: "Baseline proof: no state deviation of any kind on the original design",
        },
        ScenarioSpec {
            id: "secure-cached",
            title: "Secure design, secret cached",
            paper_ref: "Table I, column 'D in cache'",
            variant: SocVariant::Secure,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::Full,
            start_window: 1,
            max_window: 2,
            expected: Expectation::PAlertsOnly,
            description: "P-alerts appear (cache hit data enters the pipeline) but close inductively",
        },
        ScenarioSpec {
            id: "secure-arch-only",
            title: "Secure design, architectural obligation only",
            paper_ref: "Sec. V control experiment",
            variant: SocVariant::Secure,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::Architectural,
            start_window: 1,
            max_window: 2,
            expected: Expectation::Proven,
            description: "Control: the original design shows no L-alert at small windows",
        },
        ScenarioSpec {
            id: "meltdown",
            title: "Meltdown-style uncancelled refill",
            paper_ref: "Sec. VII-B, Table II row 2",
            variant: SocVariant::MeltdownStyle,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::Full,
            start_window: 1,
            max_window: 2,
            expected: Expectation::PAlertsOnly,
            description: "Transient refill survives the flush; secret marks microarchitectural state",
        },
        ScenarioSpec {
            id: "meltdown-timing",
            title: "Meltdown-style refill as a timing channel",
            paper_ref: "new variant (beyond the paper's Table II)",
            variant: SocVariant::MeltdownStyle,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::Architectural,
            start_window: 3,
            max_window: 3,
            expected: Expectation::LAlert,
            description: "The uncancelled refill also skews architectural timing: an L-alert at k=3",
        },
        ScenarioSpec {
            id: "cache-footprint",
            title: "Secret-dependent cache footprint",
            paper_ref: "Fig. 1",
            variant: SocVariant::MeltdownStyle,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::CacheState,
            start_window: 1,
            max_window: 5,
            expected: Expectation::PAlertsOnly,
            description: "The dcache tag/valid state depends on the secret after a transient access (first visible at k=5)",
        },
        ScenarioSpec {
            id: "orc",
            title: "Orc replay-buffer bypass",
            paper_ref: "Fig. 2, Table II row 1",
            variant: SocVariant::Orc,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::Architectural,
            start_window: 1,
            max_window: 5,
            expected: Expectation::LAlert,
            description: "RAW-hazard stall timing leaks the secret's cache index: a true covert channel",
        },
        ScenarioSpec {
            id: "pmp-lock",
            title: "PMP TOR-lock ISA violation",
            paper_ref: "Sec. VII-C",
            variant: SocVariant::PmpLockBug,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::Architectural,
            start_window: 7,
            max_window: 9,
            expected: Expectation::LAlert,
            description: "Privileged code can move a locked region's base: the secret leaks directly",
        },
        ScenarioSpec {
            id: "fuzz-meltdown-footprint",
            title: "Fuzz-mined transient refill footprint",
            paper_ref: "fuzz-mined witness (cf. Fig. 1)",
            variant: SocVariant::MeltdownStyle,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::CacheState,
            start_window: 1,
            max_window: 5,
            expected: Expectation::PAlertsOnly,
            description: "Minimized 3-instruction witness from the fuzz miner: a dependent load's refill marks the cache",
        },
        ScenarioSpec {
            id: "fuzz-orc-footprint",
            title: "Fuzz-mined Orc cache footprint",
            paper_ref: "fuzz-mined witness (beyond Table II)",
            variant: SocVariant::Orc,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::CacheState,
            start_window: 1,
            max_window: 5,
            expected: Expectation::PAlertsOnly,
            description: "The replay-buffer bypass also lets the transient load mark the cache, not just stall",
        },
        ScenarioSpec {
            id: "fuzz-orc-timing",
            title: "Fuzz-mined Orc stall-timing witness",
            paper_ref: "fuzz-mined witness (cf. Fig. 2)",
            variant: SocVariant::Orc,
            secret: SecretScenario::InCache,
            commitment: CommitmentKind::Architectural,
            start_window: 1,
            max_window: 5,
            expected: Expectation::LAlert,
            description: "Minimized 4-instruction witness: a pending store collides with the transient load's line",
        },
    ]
}

/// The full scenario registry, in presentation order — an alias of
/// [`registry`] whose name matches the docs-generation convention
/// (`scenarios::all()`).
pub fn all() -> Vec<ScenarioSpec> {
    registry()
}

/// Looks up a scenario by its stable identifier.
pub fn by_id(id: &str) -> Option<ScenarioSpec> {
    registry().into_iter().find(|s| s.id == id)
}

/// One concrete member of a scenario family: a [`ScenarioSpec`] pinned to a
/// [`Geometry`], with the window range and expected verdict *for that
/// geometry* (resizing the cache or stretching a latency moves the window at
/// which an alert first appears).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioInstance {
    /// The scenario being instantiated.
    pub spec: ScenarioSpec,
    /// The SoC geometry of this instance.
    pub geometry: Geometry,
    /// First window length of this instance's scan range.
    pub start_window: usize,
    /// Last window length of this instance's scan range.
    pub max_window: usize,
    /// Expected verdict over this instance's scan range.
    pub expected: Expectation,
}

impl ScenarioInstance {
    /// The spec at its default formal geometry, windows and expectation.
    pub fn base(spec: ScenarioSpec) -> Self {
        Self {
            spec,
            geometry: Geometry::formal_default(),
            start_window: spec.start_window,
            max_window: spec.max_window,
            expected: spec.expected,
        }
    }

    /// Stable identifier: the spec id, suffixed with the geometry label for
    /// non-default geometries (`cache-footprint@r4c4m1s1`).
    pub fn id(&self) -> String {
        if self.geometry.is_default() {
            self.spec.id.to_string()
        } else {
            format!("{}@{}", self.spec.id, self.geometry.label())
        }
    }

    /// The SoC configuration of this instance.
    pub fn config(&self) -> SocConfig {
        self.geometry.apply(self.spec.variant)
    }

    /// Builds the two-instance UPEC miter for this instance's geometry.
    pub fn build_model(&self) -> UpecModel {
        UpecModel::new(&self.config(), self.spec.secret)
    }

    /// The commitment set for this instance's obligation shape.
    pub fn commitment_set(&self, model: &UpecModel) -> BTreeSet<String> {
        self.spec.commitment_set(model)
    }
}

/// The full instance registry: every scenario at the default formal geometry
/// plus the geometry families of the cheap-to-check scenarios.
///
/// Windows and expectations of the non-default instances are pinned from
/// measurement (the `--ignored` instance sweep re-verifies all of them):
/// growing the cache or stretching a latency shifts the window at which an
/// alert first appears, so each instance carries its own range.
pub fn instances() -> Vec<ScenarioInstance> {
    let mut out: Vec<ScenarioInstance> =
        registry().into_iter().map(ScenarioInstance::base).collect();
    let d = Geometry::formal_default();
    let mut family =
        |id: &str, geometry: Geometry, start: usize, max: usize, expected: Expectation| {
            let spec = by_id(id).expect("family of a registered scenario");
            out.push(ScenarioInstance {
                spec,
                geometry,
                start_window: start,
                max_window: max,
                expected,
            });
        };
    use Expectation::{LAlert, PAlertsOnly, Proven};
    // Cache-footprint family (Meltdown-style refill marking the cache).
    family("cache-footprint", d.with_cache_lines(4), 1, 5, PAlertsOnly);
    family("cache-footprint", d.with_miss_latency(2), 1, 6, PAlertsOnly);
    family(
        "cache-footprint",
        d.with_store_latency(2),
        1,
        5,
        PAlertsOnly,
    );
    // The fuzz-mined footprint witness across the same sweep.
    family(
        "fuzz-meltdown-footprint",
        d.with_cache_lines(4),
        1,
        5,
        PAlertsOnly,
    );
    family(
        "fuzz-meltdown-footprint",
        d.with_miss_latency(2),
        1,
        6,
        PAlertsOnly,
    );
    family(
        "fuzz-meltdown-footprint",
        d.with_store_latency(2),
        1,
        5,
        PAlertsOnly,
    );
    // Orc stall-timing family.
    family("orc", d.with_cache_lines(4), 1, 5, LAlert);
    family("orc", d.with_miss_latency(2), 1, 5, LAlert);
    family("orc", d.with_store_latency(2), 1, 5, LAlert);
    // The fuzz-mined timing witness across the same sweep.
    family("fuzz-orc-timing", d.with_cache_lines(4), 1, 5, LAlert);
    family("fuzz-orc-timing", d.with_miss_latency(2), 1, 5, LAlert);
    family("fuzz-orc-timing", d.with_store_latency(2), 1, 5, LAlert);
    // Secure-control family: the proof must keep closing when the
    // microarchitecture grows.
    family("secure-arch-only", d.with_cache_lines(4), 1, 2, Proven);
    family("secure-arch-only", d.with_miss_latency(2), 1, 2, Proven);
    out
}

/// Looks up an instance by its stable identifier (spec id, or
/// `spec-id@geometry` for family members).
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
        let description = if i.geometry.is_default() {
            i.spec.description.to_string()
        } else {
            format!("`{}` at the {} geometry", i.spec.id, i.geometry.label())
        };
        out.push_str(&format!(
            "| `{}` | {} | `{}` | {}–{} | {} | {} |\n",
            i.id(),
            if i.geometry.is_default() {
                i.spec.paper_ref
            } else {
                "family sweep"
            },
            i.geometry.label(),
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
    fn all_is_an_alias_of_registry() {
        assert_eq!(all(), registry());
    }

    #[test]
    fn ids_are_unique_and_lookup_works() {
        let specs = registry();
        let mut ids: Vec<_> = specs.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), specs.len(), "duplicate scenario ids");
        for spec in &specs {
            assert_eq!(by_id(spec.id).as_ref().map(|s| s.id), Some(spec.id));
        }
        assert!(by_id("nonexistent").is_none());
    }

    #[test]
    fn every_scenario_builds_a_model_with_a_nonempty_commitment() {
        for spec in registry() {
            let model = spec.build_model();
            let commitment = spec.commitment_set(&model);
            assert!(!commitment.is_empty(), "{}: empty commitment", spec.id);
            assert!(
                spec.start_window >= 1 && spec.start_window <= spec.max_window,
                "{}",
                spec.id
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
        let config = SocConfig::new(SocVariant::Orc);
        let p = orc_attack_program(&config, 3);
        assert_eq!(p.len(), 8);
        assert!(p.listing().contains("lw x5, 0(x4)"));
        let t = transient_program(&config);
        assert!(t.listing().contains("lw x4, 0(x1)"));
    }
}
