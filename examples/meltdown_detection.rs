//! Fig. 1 of the paper, end to end: a Meltdown-style cache footprint in an
//! in-order pipeline, demonstrated by simulation and detected formally by
//! UPEC.
//!
//! The Meltdown-style design variant does not cancel a cache-line refill that
//! was initiated by a transient (killed) load. After the trap, the cache's
//! tag/valid state depends on the secret — a covert channel an attacker can
//! read out with a timed probe, even though no architectural register ever
//! holds the secret.
//!
//! ```text
//! cargo run --release --example meltdown_detection
//! ```

use bmc::UnrollOptions;
use soc::{Instruction, Program, SocConfig, SocSim, SocVariant};
use upec::{run_methodology, IncrementalSession, SecretScenario, UpecModel, Verdict};

/// The transient-access sequence: an illegal load of the secret followed by a
/// dependent load whose address is the secret itself.
fn transient_program(config: &SocConfig) -> Program {
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
    }); // traps
    p.push(Instruction::Lw {
        rd: 5,
        rs1: 4,
        offset: 0,
    }); // transient, address = secret
    p.push_nops(2);
    p
}

/// Runs the sequence and reports which cache line indices are valid
/// afterwards (the attacker's "probe" view).
fn cache_footprint(variant: SocVariant, secret: u32) -> Vec<u64> {
    let config = SocConfig::new(variant);
    let mut sim = SocSim::new(config.clone(), transient_program(&config));
    sim.protect_secret_region();
    sim.preload_secret_in_cache(secret);
    // Make the secret-derived address a miss so a refill is required.
    sim.store_word(secret, 0x1111_2222);
    sim.run(60);
    assert_eq!(sim.reg(4), 0, "the secret never reaches x4");
    assert_eq!(sim.reg(5), 0, "the transient load result is squashed");
    (0..config.cache_lines)
        .map(|i| sim.register(&format!("dcache.valid{i}")))
        .collect()
}

fn main() {
    // Two different secrets map to different cache indices.
    let secret_a = 0x184; // index 1
    let secret_b = 0x188; // index 2

    println!("=== Simulation: cache footprint after the transient sequence ===");
    for variant in [SocVariant::MeltdownStyle, SocVariant::Secure] {
        let fp_a = cache_footprint(variant, secret_a);
        let fp_b = cache_footprint(variant, secret_b);
        println!(
            "{:>15}: secret {secret_a:#x} -> valid bits {fp_a:?}",
            variant.name()
        );
        println!(
            "{:>15}: secret {secret_b:#x} -> valid bits {fp_b:?}",
            variant.name()
        );
        if fp_a != fp_b {
            println!("                -> footprint depends on the secret: covert channel!");
            assert_eq!(variant, SocVariant::MeltdownStyle);
        } else {
            println!("                -> footprint independent of the secret.");
            assert_eq!(variant, SocVariant::Secure);
        }
    }

    println!("\n=== UPEC: formal detection without knowing the attack ===");
    let small = |v: SocVariant| {
        SocConfig::new(v)
            .with_registers(4)
            .with_cache_lines(2)
            .with_miss_latency(1)
            .with_store_latency(1)
    };
    // The paper reports that for the Meltdown-style design the first P-alert
    // already shows the secret reaching the cache's valid bits and tags — "a
    // well-known starting point for side channel attacks" — so the check
    // below asks exactly that question: can the cache's tag/valid state
    // depend on the secret?
    for variant in [SocVariant::MeltdownStyle, SocVariant::Secure] {
        let config = small(variant);
        let model = UpecModel::new(&config, SecretScenario::InCache);
        let cache_state: std::collections::BTreeSet<String> = model
            .pairs()
            .iter()
            .map(|p| p.name.clone())
            .filter(|n| n.starts_with("dcache.tag") || n.starts_with("dcache.valid"))
            .collect();
        let outcome = IncrementalSession::new(&model).check_bound(4, &cache_state);
        match variant {
            SocVariant::MeltdownStyle => {
                let alert = outcome.alert().expect("the transient refill must show up");
                println!(
                    "{:>15}: cache footprint P-alert at window 4 — differing registers {:?}",
                    variant.name(),
                    alert.differing_registers()
                );
            }
            _ => {
                assert!(
                    outcome.is_proven(),
                    "secure design must keep the cache state unique"
                );
                println!(
                    "{:>15}: cache tag/valid state proven independent of the secret ({:?})",
                    variant.name(),
                    outcome.stats().runtime
                );
            }
        }
    }
    // The full methodology additionally proves the secure design free of any
    // covert channel at this window.
    let model = UpecModel::new(&small(SocVariant::Secure), SecretScenario::InCache);
    let report = run_methodology(&model, 3, UnrollOptions::default());
    println!("{:>15}: {}", "secure", report.summary());
    assert_eq!(report.verdict, Verdict::Secure);
    println!("\nUPEC flags the Meltdown-style variant from the RTL alone, while the");
    println!("original design is proven free of covert channels at this window.");
}
