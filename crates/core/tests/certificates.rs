//! Differential certificate suite: every scenario verdict must come with an
//! independently checkable certificate.
//!
//! Proven bounds are certified by a trimmed DRAT refutation replayed through
//! the reverse-unit-propagation checker in `sat::drat`; violated bounds are
//! certified by a concrete witness trace replayed on the `sim` golden model.
//! The fast subset below runs in the default test pass; the full 25-instance
//! registry sweep is behind `--ignored` (run by `scripts/verify.sh --full`).

use std::collections::BTreeSet;

use bmc::UnrollOptions;
use rtl::BitVec;
use sim::WitnessTrace;
use soc::{SocConfig, SocVariant};
use upec::scenarios::{self, Expectation};
use upec::{
    BoundStatus, CertificateCheck, CertificateError, CertifiedResult, EngineOptions,
    IncrementalSession, SecretScenario, StateClass, UpecEngine, UpecModel, UpecOutcome,
    VerdictCertificate, WitnessCertificate,
};

/// Certifies one instance end to end and checks every certificate against a
/// freshly built model. `max_window` caps the scan (`None` runs the pinned
/// range) — the fast subset caps windows because debug-mode SAT solving and
/// proof checking of the deepest bounds would dominate the default suite.
///
/// The plain scan of the same instance and cap must agree bound for bound:
/// same status, conflicts and CNF size. Proof logging never perturbs the
/// search, and the certified scan is the plain scan's walk.
fn certify_and_check(
    instance: &scenarios::ScenarioInstance,
    max_window: Option<usize>,
) -> CertifiedResult {
    let mut options = EngineOptions::new().with_threads(1);
    if let Some(cap) = max_window {
        options = options.with_max_window(cap);
    }
    let engine = UpecEngine::new(options);
    let result = engine.check_certified(instance);
    assert!(
        result.matches_expectation(),
        "{}: verdict {:?} does not match expectation {:?}",
        instance.id(),
        result.verdict,
        instance.expected
    );
    let plain = engine.run_instances([*instance]).remove(0);
    let work = |b: &upec::BoundSummary| (b.bound, b.status, b.conflicts, b.variables, b.clauses);
    assert_eq!(
        result
            .bounds
            .iter()
            .map(|b| work(&b.summary))
            .collect::<Vec<_>>(),
        plain.bounds.iter().map(work).collect::<Vec<_>>(),
        "{}: certified and plain scans disagree",
        instance.id()
    );

    // Every bound carries a certificate of the right kind.
    for bound in &result.bounds {
        match (bound.summary.status, &bound.certificate) {
            (BoundStatus::Proven, Some(VerdictCertificate::Proof(cert))) => {
                assert_eq!(cert.window, bound.summary.bound, "{}", instance.id());
                assert!(
                    cert.proof.num_axioms() > 0,
                    "{}: a refutation needs axioms",
                    instance.id()
                );
            }
            (
                BoundStatus::PAlert | BoundStatus::LAlert,
                Some(VerdictCertificate::Witness(cert)),
            ) => {
                assert_eq!(cert.window, bound.summary.bound, "{}", instance.id());
                assert!(
                    !cert.expected_divergences.is_empty(),
                    "{}: an alert certificate must record divergences",
                    instance.id()
                );
            }
            (status, cert) => panic!(
                "{}: bound {} has status {status:?} but certificate {:?}",
                instance.id(),
                bound.summary.bound,
                cert.as_ref().map(|c| c.kind_name())
            ),
        }
    }

    // The independent checkers accept every certificate.
    let model = instance.build_model();
    let checks = result
        .check_all(&model)
        .unwrap_or_else(|e| panic!("{}: certificate rejected: {e}", instance.id()));
    assert_eq!(checks.len(), result.bounds.len(), "{}", instance.id());
    result
}

/// The non-memory register pairs whose two instances differ once `trace`
/// has replayed, as a witness certificate records them.
fn replayed_divergences(model: &UpecModel, trace: &WitnessTrace) -> Vec<(String, BitVec, BitVec)> {
    let mut sim = trace
        .replay(model.netlist().clone(), |_, _| {})
        .expect("the trace's names resolve");
    model
        .pairs()
        .iter()
        .filter(|p| p.class != StateClass::Memory)
        .filter_map(|p| {
            let (v1, v2) = (sim.peek(p.signal1), sim.peek(p.signal2));
            (v1 != v2).then(|| (p.name.clone(), v1, v2))
        })
        .collect()
}

#[test]
fn fast_subset_verdicts_are_certified() {
    // One proven scenario, one P-alert scan and one L-alert scan cover all
    // three certificate shapes (a refutation, a witness, and a scan with a
    // proven bound cut short by an L-alert).
    for (id, cap) in [("secure-uncached", 1), ("meltdown", 1), ("orc", 2)] {
        let instance = scenarios::instance_by_id(id).expect("registry id");
        let result = certify_and_check(&instance, Some(cap));
        assert!(
            !result.bounds.is_empty(),
            "{id}: expected at least one certified bound"
        );
    }
}

#[test]
fn tampered_witness_certificates_are_rejected() {
    let instance = scenarios::instance_by_id("meltdown").expect("registry id");
    let engine = UpecEngine::new(EngineOptions::new().with_threads(1).with_max_window(1));
    let result = engine.check_certified(&instance);
    let model = instance.build_model();
    let witness = result
        .bounds
        .iter()
        .filter_map(|b| b.certificate.as_ref())
        .find_map(|c| match c {
            VerdictCertificate::Witness(w) => Some(w.clone()),
            VerdictCertificate::Proof(_) => None,
        })
        .expect("the meltdown scan must produce a witness certificate");

    // Untampered, the witness replays.
    let ok = VerdictCertificate::Witness(witness.clone()).check(&model);
    assert!(ok.is_ok(), "pristine witness rejected: {:?}", ok.err());

    // Claiming a different divergence value must be caught by the replay.
    let mut forged = witness.clone();
    let (name, v1, _) = forged.expected_divergences[0].clone();
    forged.expected_divergences[0].2 = v1; // claim "equal values diverge"
    let err = VerdictCertificate::Witness(forged)
        .check(&model)
        .expect_err("a forged divergence must be rejected");
    match err {
        CertificateError::DivergenceMismatch { name: n, .. } => assert_eq!(n, name),
        other => panic!("unexpected rejection: {other}"),
    }

    // Naming a register pair the model does not have is caught before replay
    // values are even compared.
    let mut forged = witness.clone();
    forged.expected_divergences[0].0 = "no-such-pair".to_string();
    let err = VerdictCertificate::Witness(forged)
        .check(&model)
        .expect_err("an unknown pair must be rejected");
    assert!(matches!(err, CertificateError::UnknownPair(_)), "{err}");

    // A different instruction fetched by instance 2 alone, from the same
    // fetch address, is no run of the miter, even with divergences the
    // replay reproduces.
    let mut forged = witness;
    let instr = forged.trace.inputs[0]
        .iter_mut()
        .find(|(name, _)| name == "soc2.imem_instr")
        .expect("the trace drives the instruction input");
    instr.1 = BitVec::new(instr.1.as_u64() ^ 0x0010_0093, 32);
    forged.expected_divergences = replayed_divergences(&model, &forged.trace);
    assert!(!forged.expected_divergences.is_empty());
    let err = VerdictCertificate::Witness(forged)
        .check(&model)
        .expect_err("a decoupled instruction fetch must be rejected");
    assert_eq!(
        err,
        CertificateError::ConstraintViolated {
            label: "instruction memory coupling".to_string(),
            cycle: 0,
        }
    );

    // A forged P-alert on a design proven secure at this window: every
    // register and input zero, except the instruction instance 2 fetches at
    // cycle 0, which reaches `if_id_instr` one cycle later.
    let secure = scenarios::instance_by_id("secure-uncached").expect("registry id");
    let model = secure.build_model();
    let netlist = model.netlist();
    let zero_inputs: Vec<(String, BitVec)> = netlist
        .inputs()
        .iter()
        .map(|&signal| match netlist.node(signal) {
            rtl::Node::Input { name, width } => (name.clone(), BitVec::zero(*width)),
            _ => unreachable!("the input list holds input nodes"),
        })
        .collect();
    let mut trace = WitnessTrace {
        initial_registers: netlist
            .registers()
            .iter()
            .map(|info| (info.name.clone(), BitVec::zero(info.width)))
            .collect(),
        inputs: vec![zero_inputs.clone(), zero_inputs],
    };
    trace.inputs[0]
        .iter_mut()
        .find(|(name, _)| name == "soc2.imem_instr")
        .expect("the miter has an instruction input")
        .1 = BitVec::new(0x0010_0093, 32);
    let forged = WitnessCertificate {
        window: 1,
        trace,
        expected_divergences: vec![(
            "if_id_instr".to_string(),
            BitVec::zero(32),
            BitVec::new(0x0010_0093, 32),
        )],
    };
    assert_eq!(
        replayed_divergences(&model, &forged.trace),
        forged.expected_divergences,
        "the forged divergence replays"
    );
    let err = VerdictCertificate::Witness(forged)
        .check(&model)
        .expect_err("a forged P-alert must be rejected");
    assert!(
        matches!(err, CertificateError::ConstraintViolated { cycle: 0, .. }),
        "{err}"
    );
}

#[test]
fn bve_eliminated_variables_decode_into_replayable_witnesses() {
    // Regression test for witness decoding after CNF simplification: with the
    // simplify trial budget at zero the simplifier (including bounded
    // variable elimination) runs before the violated query, so the SAT model
    // is only complete through the eliminated-variable extension. The decoded
    // trace must still replay with the recorded divergences.
    let config = SocConfig::formal(SocVariant::Orc);
    let model = UpecModel::new(&config, SecretScenario::InCache);
    let commitment: BTreeSet<String> = upec::full_commitment(&model);
    let options = UnrollOptions::default()
        .with_simplify_trial(0)
        .with_proof_log();
    let mut session = IncrementalSession::with_options(&model, options);

    let mut witnessed = 0;
    for k in 1..=3 {
        let (outcome, certificate) = session
            .try_check_bound(k, &commitment)
            .expect("a well-formed query");
        if outcome.alert().is_none() {
            continue;
        }
        let certificate = certificate.expect("violated bounds carry a certificate");
        assert_eq!(certificate.kind_name(), "witness");
        match certificate.check(&model) {
            Ok(CertificateCheck::Witness {
                cycles,
                divergences_confirmed,
            }) => {
                assert_eq!(cycles, k);
                assert!(divergences_confirmed > 0);
            }
            other => panic!("witness at k={k} did not replay: {other:?}"),
        }
        witnessed += 1;
    }
    assert!(
        witnessed > 0,
        "the Orc miter must alert within three cycles"
    );
    assert!(
        session.simplify_stats().eliminated_vars > 0,
        "the scenario no longer exercises variable elimination; \
         stats: {:?}",
        session.simplify_stats()
    );
}

/// An undecided query must never emit a certificate: a budget-stopped query
/// on a proof-logging session answers `Unknown` with its stop cause and no
/// certificate, and the session stays valid, so re-checking the same bound
/// under an unlimited budget decides and certifies normally.
#[test]
fn budget_exhausted_queries_are_rejected_for_certification() {
    let config = SocConfig::formal(SocVariant::Secure);
    let model = UpecModel::new(&config, SecretScenario::InCache);
    let commitment = upec::full_commitment(&model);
    // A zero-conflict budget stops the query at its first conflict, and
    // this proof needs real search, so the query must stop as Unknown.
    let options = UnrollOptions::default()
        .with_proof_log()
        .with_budget(sat::Budget::conflicts(0));
    let mut session = IncrementalSession::with_options(&model, options);
    let (outcome, certificate) = session
        .try_check_bound(2, &commitment)
        .expect("a well-formed query");
    assert!(matches!(outcome, UpecOutcome::Unknown(_)), "{outcome:?}");
    assert_eq!(outcome.stats().stop, Some(sat::StopCause::BudgetExhausted));
    assert!(certificate.is_none(), "an exhausted query must not certify");
    // The session resumes: the same bound decides and certifies under an
    // unlimited budget.
    session.set_budget(sat::Budget::unlimited());
    let (outcome, certificate) = session
        .try_check_bound(2, &commitment)
        .expect("a well-formed query");
    assert!(
        !matches!(outcome, UpecOutcome::Unknown(_)),
        "unlimited budget must decide: {outcome:?}"
    );
    let certificate = certificate.expect("decided verdicts carry a certificate");
    certificate
        .check(&model)
        .expect("the resumed verdict's certificate must re-check");
}

/// Full differential sweep: every instance in the registry, at its pinned
/// window range, must produce the expected verdict *and* have every decided
/// bound's certificate accepted by the independent checkers.
#[test]
#[ignore = "full 25-instance certified sweep; run via scripts/verify.sh --full"]
fn full_registry_sweep_is_certified() {
    let mut certified = 0usize;
    for instance in scenarios::instances() {
        let result = certify_and_check(&instance, None);
        certified += result.bounds.len();
        // Expectation-specific shape of the certified scan.
        match instance.expected {
            Expectation::Proven => assert!(
                result
                    .bounds
                    .iter()
                    .all(|b| b.summary.status == BoundStatus::Proven),
                "{}: proven instances certify every bound as a refutation",
                instance.id()
            ),
            Expectation::PAlertsOnly | Expectation::LAlert => assert!(
                result
                    .bounds
                    .iter()
                    .any(|b| matches!(b.summary.status, BoundStatus::PAlert | BoundStatus::LAlert)),
                "{}: alerting instances must certify at least one witness",
                instance.id()
            ),
        }
    }
    assert!(certified >= 25, "sweep certified only {certified} bounds");
}
