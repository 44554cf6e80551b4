//! Seed determinism of the fuzz pipeline: equal seeds must reproduce
//! byte-identical programs, identical mining reports and identical minimized
//! witnesses. The registry pins mined witnesses by `(seed, case_index)`, so
//! any nondeterminism here would silently unpin them.

use soc::fuzz::{mine, minimize, FuzzOptions, MineReport, ProgramGen};
use soc::{SocConfig, SocVariant};
use std::sync::OnceLock;

/// A bounded option set that still reaches the first mined witnesses (both
/// at `case_index` 36 of the default seed). It sweeps the default variants,
/// so the secure design runs as the soundness control.
fn bounded_options() -> FuzzOptions {
    FuzzOptions::default().with_programs(40)
}

/// The bounded mine, run once and shared by the tests that only read it.
fn bounded_report() -> &'static MineReport {
    static REPORT: OnceLock<MineReport> = OnceLock::new();
    REPORT.get_or_init(|| mine(&bounded_options()))
}

#[test]
fn same_seed_reproduces_byte_identical_programs() {
    let config = SocConfig::new(SocVariant::Secure);
    let mut a = ProgramGen::new(0xdabd_4c19, &config);
    let mut b = ProgramGen::new(0xdabd_4c19, &config);
    for _ in 0..16 {
        let pa = a.next_program_in(6, 16);
        let pb = b.next_program_in(6, 16);
        // Compare down to the instruction encodings, not just the decoded
        // enum values: the pinned witnesses are byte pins.
        let bytes_a: Vec<u32> = pa.iter().map(|(_, i)| i.encode()).collect();
        let bytes_b: Vec<u32> = pb.iter().map(|(_, i)| i.encode()).collect();
        assert_eq!(bytes_a, bytes_b);
        assert_eq!(pa.base(), pb.base());
    }
}

#[test]
fn mining_is_deterministic() {
    let opts = bounded_options();
    // The secure-divergence count below checks something only if the secure
    // design is among the mined variants.
    assert!(opts.variants.contains(&SocVariant::Secure));
    let a = bounded_report();
    let b = mine(&opts);
    assert_eq!(a.programs_run, b.programs_run);
    assert_eq!(a.divergent_runs, b.divergent_runs);
    assert_eq!(a.secure_divergences, 0);
    assert_eq!(a.cosim_mismatches, 0);
    assert_eq!(a.witnesses.len(), b.witnesses.len());
    assert!(
        !a.witnesses.is_empty(),
        "the bounded run must reach the first witness"
    );
    for (wa, wb) in a.witnesses.iter().zip(&b.witnesses) {
        assert_eq!(wa.variant, wb.variant);
        assert_eq!(wa.channel, wb.channel);
        assert_eq!(wa.case_index, wb.case_index);
        assert_eq!(wa.program, wb.program);
    }
}

#[test]
fn minimization_is_deterministic_and_sound() {
    let opts = bounded_options();
    let report = bounded_report();
    assert!(!report.witnesses.is_empty());
    for witness in &report.witnesses {
        let config = SocConfig::new(witness.variant);
        let a = minimize(&config, &witness.program, witness.channel, &opts);
        let b = minimize(&config, &witness.program, witness.channel, &opts);
        let what = format!("{:?}/{:?}", witness.variant, witness.channel);
        assert_eq!(a.program, b.program, "{what}");
        assert_eq!(a.oracle_runs, b.oracle_runs, "{what}");
        assert!(a.minimized_len <= a.original_len, "{what}");
        // The minimized program still diverges through the same channel: the
        // round trip `minimize` promises.
        assert_eq!(
            soc::fuzz::divergence(&config, &a.program, &opts),
            Some(witness.channel),
            "{what}"
        );
    }
}
