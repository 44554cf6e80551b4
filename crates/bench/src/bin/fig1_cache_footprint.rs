//! Regenerates **Fig. 1** of the paper as a measurement: after an aborted
//! illegal load, does the cache state depend on the secret? Compares the
//! vulnerable (Meltdown-style) design against the secure design.
//!
//! ```text
//! cargo run --release -p bench --bin fig1_cache_footprint
//! ```

use soc::{SocConfig, SocSim, SocVariant};
use upec::scenarios;

fn footprint(variant: SocVariant, secret: u32) -> Vec<u64> {
    let scenario = scenarios::by_id("cache-footprint").expect("registered scenario");
    let config = SocConfig::new(variant);
    let program = scenario
        .demo_program(&config)
        .expect("the footprint scenario ships a demo program");
    let mut sim = SocSim::new(config, program);
    sim.protect_secret_region();
    sim.preload_secret_in_cache(secret);
    sim.store_word(secret, 0x1234_5678);
    sim.run(80);
    let lines = sim.instance().cache_lines.clone();
    lines
        .iter()
        .map(|line| sim.peek(line.valid.value()))
        .collect()
}

fn main() {
    println!("Fig. 1 — cache footprint after an aborted illegal access\n");
    let secrets = [0x184u32, 0x188, 0x18c, 0x190];
    for variant in [SocVariant::MeltdownStyle, SocVariant::Secure] {
        println!("{} design:", variant.name());
        println!("{:>12} {:>24}", "secret", "valid bits per line");
        let mut distinct = std::collections::BTreeSet::new();
        for &secret in &secrets {
            let fp = footprint(variant, secret);
            distinct.insert(fp.clone());
            println!("{secret:>#12x} {:>24}", format!("{fp:?}"));
        }
        if distinct.len() > 1 {
            println!("  -> the cache footprint depends on the secret: covert channel (vulnerable design)\n");
        } else {
            println!("  -> identical footprint for every secret: no observable side effect (secure design)\n");
        }
    }
    println!("Shape check vs the paper: only the design that does not cancel the transient");
    println!("refill lets the secret modulate the cache state.");
}
