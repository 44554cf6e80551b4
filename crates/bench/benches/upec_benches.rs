//! Wall-clock benchmarks: one group per table/figure of the paper's
//! evaluation, plus the ablations.
//!
//! The workspace builds without external dependencies, so this is a plain
//! `harness = false` binary rather than a criterion bench: each workload runs
//! a fixed, small number of iterations and reports min/mean wall time. The
//! numbers track relative cost; they are not statistically tight.
//!
//! Run with `cargo bench -p bench` (all groups) or
//! `cargo bench -p bench -- table1 fig2` (substring filter).

use bench::{formal_config, orc_attack_program, secs, sim_config, transient_program};
use soc::{SocSim, SocVariant};
use std::time::{Duration, Instant};
use upec::{
    prove_alert_closure, run_methodology, SecretScenario, UpecChecker, UpecModel, UpecOptions,
};

/// Times `iterations` runs of `f` and prints one report line.
fn bench(filters: &[String], group: &str, name: &str, iterations: u32, mut f: impl FnMut()) {
    let full = format!("{group}/{name}");
    if !filters.is_empty() && !filters.iter().any(|pat| full.contains(pat.as_str())) {
        return;
    }
    let mut times: Vec<Duration> = Vec::with_capacity(iterations as usize);
    for _ in 0..iterations {
        let start = Instant::now();
        f();
        times.push(start.elapsed());
    }
    let min = times.iter().min().copied().unwrap_or_default();
    let mean = times.iter().sum::<Duration>() / iterations.max(1);
    println!("{full:<44} min {:>8}  mean {:>8}", secs(min), secs(mean));
}

fn main() {
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();

    // Table I: the methodology run on the secure design, both scenarios.
    for (label, scenario) in [
        ("d_cached", SecretScenario::InCache),
        ("d_not_cached", SecretScenario::NotInCache),
    ] {
        let model = UpecModel::new(&formal_config(SocVariant::Secure), scenario);
        let window = model.d_mem().min(2);
        bench(&filters, "table1_methodology", label, 2, || {
            run_methodology(&model, UpecOptions::window(window));
        });
    }

    // Table I (second half): the inductive closure proof.
    {
        let model = UpecModel::new(&formal_config(SocVariant::Secure), SecretScenario::InCache);
        let report = run_methodology(&model, UpecOptions::window(2));
        bench(&filters, "table1_inductive_proof", "closure", 2, || {
            prove_alert_closure(&model, &report.p_alert_registers);
        });
    }

    // Table II: first P-alert and first L-alert for each vulnerable variant.
    for variant in [SocVariant::Orc, SocVariant::MeltdownStyle] {
        let model = UpecModel::new(&formal_config(variant), SecretScenario::InCache);
        let checker = UpecChecker::new();
        bench(
            &filters,
            "table2_vulnerable_variants",
            &format!("{}_p_alert", variant.name()),
            2,
            || {
                checker.check_full(&model, UpecOptions::window(2));
            },
        );
        bench(
            &filters,
            "table2_vulnerable_variants",
            &format!("{}_l_alert", variant.name()),
            1,
            || {
                checker.check_architectural(&model, UpecOptions::window(3));
            },
        );
    }

    // Fig. 1: the transient-sequence cache-footprint simulation.
    for variant in [SocVariant::MeltdownStyle, SocVariant::Secure] {
        let config = sim_config(variant);
        bench(&filters, "fig1_cache_footprint", variant.name(), 10, || {
            let mut sim = SocSim::new(config.clone(), transient_program(&config));
            sim.protect_secret_region();
            sim.preload_secret_in_cache(0x184);
            sim.store_word(0x184, 0x1234_5678);
            sim.run(60);
            sim.register("dcache.valid1");
        });
    }

    // Fig. 2: one full Orc attack sweep over all cache-index guesses.
    for variant in [SocVariant::Orc, SocVariant::Secure] {
        let config = sim_config(variant);
        bench(&filters, "fig2_orc_attack_sweep", variant.name(), 5, || {
            for guess in 0..config.cache_lines {
                let mut sim = SocSim::new(config.clone(), orc_attack_program(&config, guess));
                sim.protect_secret_region();
                sim.preload_secret_in_cache(0x184);
                sim.run_until_trap(300).expect("traps");
            }
        });
    }

    // Ablation: symbolic initial state vs reset-state BMC.
    {
        let model = UpecModel::new(&formal_config(SocVariant::Orc), SecretScenario::InCache);
        let checker = UpecChecker::new();
        bench(
            &filters,
            "ablation_symbolic_init",
            "ipc_symbolic",
            1,
            || {
                checker.check_architectural(&model, UpecOptions::window(3));
            },
        );
        bench(
            &filters,
            "ablation_symbolic_init",
            "bmc_from_reset",
            1,
            || {
                checker.check_architectural(&model, UpecOptions::window(3).from_reset());
            },
        );
    }
}
