//! The parameterized scenario-instance registry and the fuzz-mined
//! witnesses behind its `fuzz-*` entries.
//!
//! Fast checks (structure, lookup, one bounded re-mine, the full
//! default-seed re-mine and one capped formal scan). The default-seed
//! re-mine simulates 1,800 SoC runs (200 programs, three variants, two
//! secrets, co-simulation and oracle) and pins the whole report, so it also
//! checks that the simulator stays observationally equivalent across
//! rewrites. Every pinned verdict of the full registry is checked by the
//! `--ignored` full-registry walk differential in
//! `miter_walk_differential.rs`.

use soc::fuzz::{self, Channel, FuzzOptions};
use soc::{SocConfig, SocVariant};
use upec::scenarios::{self, fuzz_footprint_witness, fuzz_timing_witness, ScenarioInstance};
use upec::{AlertKind, EngineOptions, ScanVerdict, UpecEngine};

#[test]
fn instance_registry_grows_past_24_with_unique_ids() {
    let instances = scenarios::instances();
    assert!(
        instances.len() >= 24,
        "expected at least 24 pinned instances, found {}",
        instances.len()
    );
    let mut ids: Vec<String> = instances.iter().map(|i| i.id()).collect();
    ids.sort();
    let before = ids.len();
    ids.dedup();
    assert_eq!(before, ids.len(), "duplicate instance ids");
}

#[test]
fn every_base_spec_appears_as_a_default_geometry_instance() {
    let defaults: Vec<ScenarioInstance> = scenarios::instances()
        .into_iter()
        .filter(|i| i.config == SocConfig::formal(i.config.variant()))
        .collect();
    assert_eq!(scenarios::registry(), defaults);
}

#[test]
fn instance_lookup_round_trips() {
    for instance in scenarios::instances() {
        let found = scenarios::instance_by_id(&instance.id())
            .unwrap_or_else(|| panic!("instance_by_id missed {}", instance.id()));
        assert_eq!(found, instance);
    }
    assert!(scenarios::instance_by_id("no-such-instance").is_none());
    assert!(scenarios::instance_by_id("orc@r9c9m9s9").is_none());
}

/// The simulation oracle on the registry's Fig. 1 program: it executes
/// uniquely on the secure design and leaks through the cache footprint when
/// the transient refill is not cancelled.
#[test]
fn secure_design_executes_the_transient_demo_uniquely() {
    let opts = FuzzOptions::default();
    let config = SocConfig::new(SocVariant::Secure);
    let program = scenarios::transient_program();
    assert_eq!(fuzz::divergence(&config, &program, &opts), None);
    let meltdown = SocConfig::new(SocVariant::MeltdownStyle);
    assert_eq!(
        fuzz::divergence(&meltdown, &program, &opts),
        Some(Channel::CacheFootprint)
    );
}

/// A bounded re-mine that still reaches the registry's footprint witnesses
/// (`case_index` 36 of the default seed on both vulnerable variants) but
/// stays fast enough for the default debug suite: 40 programs over the
/// default variants, the secure design among them as the soundness control.
#[test]
fn mined_footprint_witness_reproduces_from_the_pinned_seed() {
    let opts = FuzzOptions::default().with_programs(40);
    assert!(opts.variants.contains(&SocVariant::Secure));
    let report = fuzz::mine(&opts);
    assert_eq!(report.secure_divergences, 0);
    assert_eq!(report.cosim_mismatches, 0);
    for variant in [SocVariant::MeltdownStyle, SocVariant::Orc] {
        let witness = report
            .witness(variant, Channel::CacheFootprint)
            .expect("the default seed yields a footprint witness within 40 programs");
        assert_eq!(
            witness.case_index, 36,
            "{variant:?}: witness provenance moved"
        );
        let config = SocConfig::new(variant);
        let minimized = fuzz::minimize(&config, &witness.program, witness.channel, &opts);
        assert_eq!(
            minimized.program,
            fuzz_footprint_witness(),
            "{variant:?}: re-mined witness no longer matches the registry's pinned program:\n{}",
            minimized.program.listing()
        );
    }
}

#[test]
fn fuzz_timing_instance_l_alerts_at_a_capped_window() {
    // The cheapest formal check of a fuzz-mined scenario: `fuzz-orc-timing`
    // L-alerts at k=2, so capping the scan there keeps this debug-safe.
    let mut instance = scenarios::instance_by_id("fuzz-orc-timing").unwrap();
    instance.max_window = 2;
    let engine = UpecEngine::new(EngineOptions::new().with_threads(1));
    let results = engine.run_instances([instance]);
    assert_eq!(results.len(), 1);
    let result = &results[0];
    assert_eq!(result.verdict, ScanVerdict::Insecure);
    let alert = result.first_alert.as_ref().expect("an L-alert");
    assert_eq!(alert.kind, AlertKind::LAlert);
    assert_eq!(alert.window, 2);
    assert!(result.matches_expectation(), "{}", result.summary());
}

/// The full pipeline claim behind the registry's `fuzz-*` rows: re-mining
/// with the default options finds the same report and witnesses, and
/// re-minimizing reproduces the pinned witness programs byte-for-byte.
#[test]
fn registry_fuzz_witnesses_reproduce_from_the_default_seed() {
    let opts = FuzzOptions::default();
    let report = fuzz::mine(&opts);
    assert_eq!(report.programs_run, 200);
    assert_eq!(report.divergent_runs, 8);
    assert_eq!(report.secure_divergences, 0);
    assert_eq!(report.cosim_mismatches, 0);
    let found: Vec<(SocVariant, Channel, usize)> = report
        .witnesses
        .iter()
        .map(|w| (w.variant, w.channel, w.case_index))
        .collect();
    assert_eq!(
        found,
        [
            (SocVariant::MeltdownStyle, Channel::CacheFootprint, 36),
            (SocVariant::Orc, Channel::CacheFootprint, 36),
            (SocVariant::MeltdownStyle, Channel::Timing, 137),
            (SocVariant::Orc, Channel::Timing, 137),
        ],
        "witnesses in discovery order"
    );
    let cases = [
        (
            SocVariant::MeltdownStyle,
            Channel::CacheFootprint,
            fuzz_footprint_witness(),
        ),
        (
            SocVariant::Orc,
            Channel::CacheFootprint,
            fuzz_footprint_witness(),
        ),
        (SocVariant::Orc, Channel::Timing, fuzz_timing_witness()),
    ];
    for (variant, channel, pinned) in cases {
        let witness = report
            .witness(variant, channel)
            .unwrap_or_else(|| panic!("no witness mined for {variant:?}/{channel:?}"));
        let config = SocConfig::new(variant);
        let minimized = fuzz::minimize(&config, &witness.program, channel, &opts);
        assert_eq!(
            minimized.program,
            pinned,
            "{variant:?}/{channel:?} witness drifted from its pin:\n{}",
            minimized.program.listing()
        );
    }
}
