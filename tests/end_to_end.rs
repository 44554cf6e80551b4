//! Cross-crate integration tests: the full stack from RTL generation through
//! simulation and formal UPEC analysis.

use bmc::UnrollOptions;
use soc::fuzz::{cosim_check, FuzzOptions, ProgramGen};
use soc::{SocConfig, SocSim, SocVariant};
use upec::scenarios;
use upec::{
    prove_alert_closure, run_methodology, AlertKind, IncrementalSession, SecretScenario, UpecModel,
    Verdict,
};

/// The Orc attack measured on the simulator: the vulnerable design shows a
/// secret-dependent timing difference, the secure design does not, and in
/// neither design does the secret reach an architectural register.
#[test]
fn orc_attack_timing_channel_exists_only_in_the_vulnerable_design() {
    let secret = 0x184u32; // maps to cache index 1 (4 lines, word lines)
    let measure = |variant: SocVariant, guess: u32| -> u64 {
        let program = scenarios::orc_attack_program(guess);
        let mut sim = SocSim::new(SocConfig::new(variant), program);
        sim.protect_secret_region();
        sim.preload_secret_in_cache(secret);
        let cycles = sim.run_until_trap(300).expect("illegal access must trap");
        assert_eq!(sim.reg(4), 0, "secret must never reach x4");
        cycles
    };

    let config = SocConfig::new(SocVariant::Orc);
    let lines = config.cache_lines;
    // The guess that collides with the protected address itself always
    // stalls (the attacker's own probe); a real attacker calibrates it away,
    // so it is excluded from the comparison.
    let known_conflict = (soc::SECRET_ADDR >> 2) % lines;
    let usable: Vec<u32> = (0..lines).filter(|&g| g != known_conflict).collect();
    let orc: Vec<(u32, u64)> = usable
        .iter()
        .map(|&g| (g, measure(SocVariant::Orc, g)))
        .collect();
    let secure: Vec<(u32, u64)> = usable
        .iter()
        .map(|&g| (g, measure(SocVariant::Secure, g)))
        .collect();

    let orc_min = orc.iter().map(|&(_, c)| c).min().unwrap();
    let orc_max = orc.iter().map(|&(_, c)| c).max().unwrap();
    assert!(
        orc_max > orc_min,
        "Orc design must show a timing difference: {orc:?}"
    );
    let slow_guess = orc.iter().find(|&&(_, c)| c == orc_max).unwrap().0;
    assert_eq!(
        slow_guess,
        (secret >> 2) % lines,
        "the slow guess reveals the secret's index"
    );

    let secure_min = secure.iter().map(|&(_, c)| c).min().unwrap();
    let secure_max = secure.iter().map(|&(_, c)| c).max().unwrap();
    assert_eq!(
        secure_min, secure_max,
        "secure design must be constant time: {secure:?}"
    );
}

/// The Meltdown-style variant leaves a secret-dependent cache footprint; the
/// secure design does not.
#[test]
fn meltdown_style_cache_footprint_depends_on_the_secret() {
    let footprint = |variant: SocVariant, secret: u32| -> Vec<u64> {
        let config = SocConfig::new(variant);
        let program = scenarios::transient_program();
        let mut sim = SocSim::new(config, program);
        sim.protect_secret_region();
        sim.preload_secret_in_cache(secret);
        sim.store_word(secret, 0xaaaa_bbbb);
        sim.run(60);
        (0..config.cache_lines)
            .map(|i| sim.register(&format!("dcache.valid{i}")))
            .collect()
    };
    let a = footprint(SocVariant::MeltdownStyle, 0x184);
    let b = footprint(SocVariant::MeltdownStyle, 0x188);
    assert_ne!(
        a, b,
        "vulnerable design: footprint must depend on the secret"
    );
    let a = footprint(SocVariant::Secure, 0x184);
    let b = footprint(SocVariant::Secure, 0x188);
    assert_eq!(
        a, b,
        "secure design: footprint must not depend on the secret"
    );
}

/// UPEC separates the secure design from all three vulnerable variants.
#[test]
#[ignore = "SAT proofs up to window 5 on three variants (about 30 s in release); run with --ignored"]
fn upec_methodology_classifies_all_design_variants() {
    // Secure design, secret not cached: proven with no alerts.
    let model = UpecModel::new(
        &SocConfig::formal(SocVariant::Secure),
        SecretScenario::NotInCache,
    );
    let report = run_methodology(&model, 2, UnrollOptions::default());
    assert_eq!(report.verdict, Verdict::Secure);
    assert_eq!(report.p_alert_count(), 0);

    // Secure design, secret cached: P-alerts only, closed by induction. The
    // P-alert registers only seed the closure; the fixpoint may pull in
    // neighbouring blockable pipeline registers before it closes.
    let model = UpecModel::new(
        &SocConfig::formal(SocVariant::Secure),
        SecretScenario::InCache,
    );
    let report = run_methodology(&model, 2, UnrollOptions::default());
    assert_eq!(report.verdict, Verdict::Secure, "{}", report.summary());
    assert!(report.p_alert_count() >= 1);
    let (_, closure) = prove_alert_closure(&model, &report.p_alert_registers);
    assert!(closure.is_closed(), "closure: {closure:?}");

    // Orc variant: insecure.
    let model = UpecModel::new(&SocConfig::formal(SocVariant::Orc), SecretScenario::InCache);
    let report = run_methodology(&model, 4, UnrollOptions::default());
    assert_eq!(report.verdict, Verdict::Insecure);
    assert_eq!(report.alerts.last().unwrap().kind, AlertKind::LAlert);

    // Meltdown-style variant: the transient refill makes the cache tag/valid
    // state depend on the secret (the paper's "well-known starting point for
    // side channel attacks"), first visible at window 5 as the registry's
    // `cache-footprint` pins; the same check stays proven on the secure
    // design (at window 4: its k=5 proof alone takes a minute in release).
    let footprint = scenarios::by_id("cache-footprint").expect("registered scenario");
    let model = footprint.build_model();
    let outcome = IncrementalSession::new(&model).check_bound(5, &footprint.commitment_set(&model));
    assert!(
        outcome.alert().is_some(),
        "meltdown-style refill must mark the cache"
    );
    let model = UpecModel::new(
        &SocConfig::formal(SocVariant::Secure),
        SecretScenario::InCache,
    );
    let outcome = IncrementalSession::new(&model).check_bound(4, &footprint.commitment_set(&model));
    assert!(
        outcome.is_proven(),
        "secure design keeps the cache state unique"
    );
}

/// The PMP TOR-lock bug (paper Sec. VII-C) is detected as a direct
/// architectural leak.
#[test]
fn pmp_lock_bug_is_detected_as_an_l_alert() {
    let pmp = scenarios::by_id("pmp-lock").expect("registered scenario");
    let buggy = pmp.build_model();
    let commitment = pmp.commitment_set(&buggy);
    let mut session = IncrementalSession::new(&buggy);
    // The shortest leaking scenario needs the locked base address to be moved
    // (CSR write retiring), an `mret` into user mode and the now-permitted
    // load to flow down the pipeline — roughly seven cycles — so the
    // registry's scan starts there instead of paying for the short,
    // alert-free windows.
    let mut found_l_alert = false;
    for k in pmp.start_window..=pmp.max_window {
        if let Some(alert) = session.check_bound(k, &commitment).alert() {
            assert_eq!(alert.kind, AlertKind::LAlert);
            found_l_alert = true;
            break;
        }
    }
    assert!(found_l_alert, "the lock bug must produce an L-alert");
}

/// Random fault-free programs executed on the RTL and on the ISA-level golden
/// model reach the same architectural state. The programs are the fuzz
/// miner's first ones at its default seed, which the mining tests pin to
/// co-simulate.
#[test]
fn random_programs_cosimulate_against_the_golden_model() {
    let opts = FuzzOptions::default();
    let config = SocConfig::new(SocVariant::Secure);
    let mut gen = ProgramGen::new(opts.seed, &config);
    for trial in 0..8 {
        let program = gen.next_program_in(opts.min_len, opts.max_len);
        if let Err(mismatch) = cosim_check(&config, &program) {
            panic!("trial {trial}: {mismatch}\n{}", program.listing());
        }
    }
}
