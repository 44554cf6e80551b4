//! Regenerates **Fig. 2** of the paper as a measurement: the Orc attack's
//! timing signal on the vulnerable design vs. the original design, swept over
//! every cache-index guess.
//!
//! ```text
//! cargo run --release -p bench --bin fig2_orc_attack
//! ```

use soc::{SocConfig, SocSim, SocVariant};
use upec::scenarios;

fn measure(variant: SocVariant, secret: u32, guess: u32) -> u64 {
    let program = scenarios::orc_attack_program(guess);
    let mut sim = SocSim::new(SocConfig::new(variant), program);
    sim.protect_secret_region();
    sim.preload_secret_in_cache(secret);
    sim.run_until_trap(500)
        .expect("the illegal access must trap")
}

fn main() {
    let config = scenarios::by_id("orc")
        .expect("registered scenario")
        .sim_config();
    let lines = config.cache_lines;
    // The guess equal to the protected address's own cache index always
    // stalls (the attacker's probe load conflicts with its own store); a real
    // attacker calibrates this known effect away.
    let known_conflict = (soc::SECRET_ADDR >> 2) % lines;
    println!("Fig. 2 — Orc attack timing sweep ({lines} cache-index guesses)");
    println!("series: cycles from attack start until the exception is taken");
    println!(
        "(guess {known_conflict} collides with the protected address itself and is ignored)\n"
    );
    for secret in [0x184u32, 0x188, 0x18c] {
        let secret_index = (secret >> 2) % lines;
        println!("secret value {secret:#x} (cache index {secret_index}):");
        println!(
            "{:>8} {:>14} {:>14}",
            "guess", "orc design", "secure design"
        );
        let mut orc_timings = Vec::new();
        for guess in 0..lines {
            let orc = measure(SocVariant::Orc, secret, guess);
            let secure = measure(SocVariant::Secure, secret, guess);
            println!("{guess:>8} {orc:>14} {secure:>14}");
            if guess != known_conflict {
                orc_timings.push((guess, orc));
            }
        }
        let max = orc_timings.iter().map(|&(_, c)| c).max().unwrap();
        let min = orc_timings.iter().map(|&(_, c)| c).min().unwrap();
        if max != min {
            let leak = orc_timings.iter().find(|&&(_, c)| c == max).unwrap().0;
            println!(
                "  -> timing outlier at guess {leak}: the attacker learns the secret's index\n"
            );
        } else {
            println!("  -> no timing variation observed\n");
        }
    }
    println!("Shape check vs the paper: the vulnerable design shows a unique slow guess per");
    println!(
        "secret (the RAW-hazard stall); the original design is constant-time for every guess."
    );
}
