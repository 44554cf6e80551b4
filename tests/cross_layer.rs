//! Cross-layer checks of the UPEC query path — `IncrementalSession` over
//! `bmc::Unrolling` over `sat::Solver` — cheap enough for the default test
//! run: every distinct registry miter's netlist, cone and compiled schedule
//! keep their pinned sizes, the compiled encoding of every one agrees with
//! the word-level simulator (at k=1 in debug builds, k=3 in release), every
//! distinct registry miter's premises are satisfiable (at k=1 in debug
//! builds, its deepest registered window in release), and at k=1 the solve
//! paths agree on every verdict, every verdict carries a certificate that
//! checks, and a budget-stopped or cancelled query resumes to the clean
//! verdict.

use bmc::{UnrollOptions, Unrolling};
use rtl::{BitVec, SignalId, SplitMix64};
use sat::{Budget, CancelToken, Lit, StopCause};
use sim::Simulator;
use soc::{SocConfig, SocVariant};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use upec::scenarios;
use upec::{
    full_commitment, CertificateCheck, IncrementalSession, SecretScenario, UpecModel, UpecOutcome,
};

/// `(conflicts, propagations, restarts)` of one solve.
type Search = (u64, u64, u64);

/// One k=1 query: a miter, the state it must keep equal, its verdict, and
/// the search its solve takes.
struct Case {
    name: &'static str,
    model: UpecModel,
    commitment: BTreeSet<String>,
    expected: &'static str,
    search: Search,
}

fn tiny(
    variant: SocVariant,
    secret: SecretScenario,
    expected: &'static str,
    search: Search,
) -> Case {
    let model = UpecModel::new(&SocConfig::formal(variant), secret);
    Case {
        name: variant.name(),
        commitment: full_commitment(&model),
        model,
        expected,
        search,
    }
}

/// One alerting and one proven miter cover both verdict paths.
fn tiny_cases() -> [Case; 2] {
    [
        tiny(
            SocVariant::Orc,
            SecretScenario::InCache,
            "p-alert",
            (654, 32_098, 4),
        ),
        tiny(
            SocVariant::Secure,
            SecretScenario::NotInCache,
            "proven",
            (1_829, 158_935, 18),
        ),
    ]
}

/// Registry scenarios with their own commitments: a P-alerting miter (the
/// SAT path, with counterexample extraction) and two proofs over different
/// commitments (the UNSAT path).
fn registry_cases() -> [Case; 3] {
    [
        ("meltdown", "p-alert", (631, 34_788, 3)),
        ("orc", "proven", (0, 150, 0)),
        ("secure-arch-only", "proven", (0, 150, 0)),
    ]
    .map(|(id, expected, search)| {
        let scenario = scenarios::by_id(id).expect("registered scenario");
        let model = scenario.build_model();
        Case {
            name: scenario.name,
            commitment: scenario.commitment_set(&model),
            model,
            expected,
            search,
        }
    })
}

fn all_cases() -> impl Iterator<Item = Case> {
    tiny_cases().into_iter().chain(registry_cases())
}

/// The default session and a plain solve — a trial cap (`u64::MAX`) no
/// query reaches, so the CNF simplifier never runs — both reach the pinned
/// verdict through the pinned search: the solver is deterministic, so a
/// kernel change that moves a single decision shows here. Neither session
/// logs a proof, so neither returns a certificate.
#[test]
fn default_and_plain_solves_agree() {
    for case in all_cases() {
        for (path, options) in [
            ("default", UnrollOptions::default()),
            (
                "plain solve",
                UnrollOptions::default().with_simplify_trial(u64::MAX),
            ),
        ] {
            let (outcome, certificate) = IncrementalSession::with_options(&case.model, options)
                .try_check_bound(1, &case.commitment)
                .expect("a well-formed query");
            let query = format!("{} via {path}", case.name);
            assert_eq!(outcome.verdict_name(), case.expected, "{query}");
            let stats = outcome.stats();
            assert_eq!(
                (stats.conflicts, stats.propagations, stats.restarts),
                case.search,
                "{query}"
            );
            assert!(certificate.is_none(), "{query}");
        }
    }
}

#[test]
fn every_verdict_carries_a_certificate_that_checks() {
    for case in all_cases() {
        let mut session = IncrementalSession::with_options(
            &case.model,
            UnrollOptions::default().with_proof_log(),
        );
        let (outcome, certificate) = session
            .try_check_bound(1, &case.commitment)
            .expect("a well-formed query");
        assert_eq!(outcome.verdict_name(), case.expected, "{}", case.name);
        let certificate = certificate.expect("a decided query carries a certificate");
        let check = certificate
            .check(&case.model)
            .expect("the certificate checks");
        match (case.expected, check) {
            ("proven", CertificateCheck::Proof(_))
            | ("p-alert", CertificateCheck::Witness { .. }) => {}
            (_, other) => panic!("{}: wrong certificate kind: {other:?}", case.name),
        }
    }
}

/// The one way to bound work (`Budget`) and the one way to cancel it
/// (`CancelToken`) both stop a query without poisoning its session.
#[test]
fn a_stopped_query_resumes_to_the_clean_verdict() {
    for case in tiny_cases() {
        let mut session = IncrementalSession::with_options(
            &case.model,
            UnrollOptions::default().with_budget(Budget::conflicts(1)),
        );
        let stopped = session.check_bound(1, &case.commitment);
        assert!(
            matches!(stopped, UpecOutcome::Unknown(_)),
            "{}: {stopped:?}",
            case.name
        );
        assert_eq!(stopped.stats().stop, Some(StopCause::BudgetExhausted));
        session.set_budget(Budget::unlimited());
        let token = CancelToken::new();
        session.set_cancel_token(Some(token.clone()));
        token.cancel();
        let cancelled = session.check_bound(1, &case.commitment);
        assert_eq!(cancelled.stats().stop, Some(StopCause::Cancelled));
        token.reset();
        assert_eq!(
            session.check_bound(1, &case.commitment).verdict_name(),
            case.expected
        );
    }
}

/// Pins a random run of `model` over frames `0..=k` as assumptions — a
/// start state with aliased register pairs equal, and the inputs of every
/// frame — solves, and compares every scheduled signal in every frame with
/// the simulator.
fn check_random_run(
    name: &str,
    model: &UpecModel,
    unrolling: &mut Unrolling,
    k: usize,
    scheduled: &[SignalId],
    rng: &mut SplitMix64,
) {
    let netlist = model.netlist();
    let sources: HashMap<SignalId, SignalId> = model.frame0_aliases().into_iter().collect();
    let mut pins: Vec<Lit> = Vec::new();
    let mut pin = |frame: usize, signal: SignalId, value: BitVec| {
        // Signals outside the compiled cone have no literals to pin.
        if let Ok(lits) = unrolling.lits(frame, signal) {
            let bits = lits.iter().enumerate();
            pins.extend(bits.map(|(i, &l)| if value.get_bit(i as u32) { l } else { !l }));
        }
    };
    let mut sim = Simulator::new(netlist.clone());
    let mut start: HashMap<SignalId, BitVec> = HashMap::new();
    for (id, info) in netlist.register_ids().zip(netlist.registers()) {
        // Alias sources precede their registers, so theirs is drawn first.
        let value = match sources.get(&info.signal) {
            Some(source) => start[source],
            None => BitVec::new(rng.next_u64(), info.width),
        };
        start.insert(info.signal, value);
        sim.set_register(id, value.as_u64());
        pin(0, info.signal, value);
    }
    let expected: Vec<Vec<BitVec>> = (0..=k)
        .map(|frame| {
            if frame > 0 {
                sim.step();
            }
            for &input in netlist.inputs() {
                let value = BitVec::new(rng.next_u64(), netlist.width(input));
                sim.poke(input, value.as_u64());
                pin(frame, input, value);
            }
            scheduled.iter().map(|&s| sim.peek(s)).collect()
        })
        .collect();

    let result = unrolling.solve(&pins);
    let solution = result
        .model()
        .unwrap_or_else(|| panic!("{name}: a pinned run is consistent"));
    for (frame, expected) in expected.iter().enumerate() {
        for (&signal, value) in scheduled.iter().zip(expected) {
            assert_eq!(
                unrolling.value_in_model(solution, frame, signal).unwrap(),
                *value,
                "{name}: `{}` in frame {frame}",
                netlist.signal_name(signal)
            );
        }
    }
}

/// The distinct registry miters (SoC configuration plus secret: the
/// instances collapse to 13), each with its first instance's id and the
/// deepest `max_window` among its instances.
fn distinct_miters() -> Vec<(String, SocConfig, SecretScenario, usize)> {
    let mut miters: Vec<(String, SocConfig, SecretScenario, usize)> = Vec::new();
    for instance in scenarios::instances() {
        let (config, secret) = (instance.config, instance.secret);
        match miters
            .iter_mut()
            .find(|(_, c, s, _)| *c == config && *s == secret)
        {
            Some(miter) => miter.3 = miter.3.max(instance.max_window),
            None => miters.push((instance.id(), config, secret, instance.max_window)),
        }
    }
    assert_eq!(miters.len(), 13, "distinct registry miters");
    miters
}

/// FNV-1a over a miter's structure: every netlist node, every register
/// (name, width, initial value, next-state signal), the primary inputs, every
/// register pair (label, class, both instances' signals and both miter
/// signals) and every constraint and the memory-equivalence signal. Two
/// miters with the same fingerprint build the same CNF.
fn miter_fingerprint(model: &UpecModel) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |text: String| {
        for byte in text.bytes().chain([b'\n']) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let netlist = model.netlist();
    for signal in netlist.signals() {
        feed(format!("{:?}", netlist.node(signal)));
    }
    for r in netlist.registers() {
        feed(format!(
            "{} {} {:?} {:?} {:?}",
            r.name, r.width, r.init, r.next, r.signal
        ));
    }
    feed(format!("{:?}", netlist.inputs()));
    for p in model.pairs() {
        feed(format!(
            "{} {:?} {:?} {:?} {:?} {:?}",
            p.name, p.class, p.signal1, p.signal2, p.equal, p.equal_or_blocked
        ));
    }
    for c in model
        .initial_constraints()
        .iter()
        .chain(model.window_constraints())
    {
        feed(format!("{} {:?}", c.label, c.signal));
    }
    feed(format!("{:?}", model.memory_equivalence()));
    hash
}

/// The schedule pin: for every distinct registry miter, the netlist's
/// signal count, how many of those signals the compiled cone schedules,
/// and the schedule's slot count, plus the miter's structural fingerprint
/// ([`miter_fingerprint`]). A change to the SoC generator, the miter, the
/// cone or the compiler's hashing and folding moves one of these numbers,
/// and with it every CNF the miter's queries solve.
#[test]
fn registry_schedules_keep_their_sizes() {
    let pins = [
        ("secure-uncached", [1728, 1704, 1417], 0x5aa6_e40a_bd81_5263),
        ("secure-cached", [1727, 1703, 1417], 0xa714_4aac_b25b_8b17),
        ("meltdown", [1727, 1703, 1417], 0xec37_cd90_10b4_7c74),
        ("orc", [1721, 1693, 1351], 0x696d_5426_daac_e98e),
        ("pmp-lock", [1725, 1701, 1415], 0x8710_b849_30a2_ff7a),
        (
            "cache-footprint@r4c4m1s1",
            [1823, 1799, 1493],
            0xa803_173d_adf3_cf04,
        ),
        (
            "cache-footprint@r4c2m2s1",
            [1727, 1703, 1417],
            0x4087_bc64_7b2a_5526,
        ),
        (
            "cache-footprint@r4c2m1s2",
            [1727, 1703, 1417],
            0x76f1_3d58_2b0a_3b6a,
        ),
        ("orc@r4c4m1s1", [1817, 1789, 1427], 0x4599_4ac5_2920_a890),
        ("orc@r4c2m2s1", [1721, 1693, 1351], 0x72b6_bf33_c4b7_23b2),
        ("orc@r4c2m1s2", [1721, 1693, 1351], 0x44f8_a17d_ec5f_6aee),
        (
            "secure-arch-only@r4c4m1s1",
            [1823, 1799, 1493],
            0x9c00_d7d5_b2e6_5088,
        ),
        (
            "secure-arch-only@r4c2m2s1",
            [1727, 1703, 1417],
            0x08ac_4bc4_2e53_e177,
        ),
    ];
    let sizes: Vec<(String, [usize; 3], u64)> = distinct_miters()
        .into_iter()
        .map(|(name, config, secret, _)| {
            let model = UpecModel::new(&config, secret);
            let (netlist, transition) = (model.netlist(), model.compiled_transition());
            let scheduled = netlist
                .signals()
                .filter(|&s| transition.slot_of(s).is_some())
                .count();
            let fingerprint = miter_fingerprint(&model);
            (
                name,
                [netlist.len(), scheduled, transition.len()],
                fingerprint,
            )
        })
        .collect();
    let pinned: Vec<(String, [usize; 3], u64)> = pins
        .iter()
        .map(|&(name, sizes, fingerprint)| (name.to_string(), sizes, fingerprint))
        .collect();
    assert_eq!(sizes, pinned);
}

/// The non-vacuity gate. A refutation of a query whose premises are already
/// unsatisfiable checks like any other, so no certificate can see vacuity.
/// For every distinct registry miter, the premises each of its queries is
/// posed under — the two instances' shared frame-0 state, the initial
/// constraints at frame 0 and the window constraints at frames `0..=k` —
/// must hold together. Debug builds (the tier-1 run) check k=1; release
/// builds check the miter's deepest registered window.
#[test]
fn registry_premises_are_satisfiable() {
    for (name, config, secret, max_window) in distinct_miters() {
        let k = if cfg!(debug_assertions) {
            1
        } else {
            max_window
        };
        let model = UpecModel::new(&config, secret);
        let mut unrolling = Unrolling::with_compiled(
            Arc::clone(model.compiled_transition()),
            UnrollOptions::default(),
            &model.frame0_aliases(),
        );
        unrolling.extend_to(k);
        for constraint in model.initial_constraints() {
            unrolling.assume_signal_true(0, constraint.signal).unwrap();
        }
        for frame in 0..=k {
            for constraint in model.window_constraints() {
                unrolling
                    .assume_signal_true(frame, constraint.signal)
                    .unwrap();
            }
        }
        assert!(
            unrolling.solve(&[]).is_sat(),
            "{name}: premises unsatisfiable at k={k}"
        );
    }
}

/// The encoding oracle. A certificate shows that a CNF is unsat or that a
/// witness replays; only an independent reference shows that the CNF is the
/// miter. For every distinct registry miter, the compiled, frame-0-aliased unrolling a
/// session solves must agree with the word-level simulator — which shares
/// no code with the bit-blaster, the compiler or the simplifier — on every
/// scheduled signal of every frame of a random run at window `k`: first as
/// encoded, then after a trial-0 solve has run the CNF simplifier over it.
/// Debug builds (the tier-1 run) check k=1; release builds check k=3. The
/// scenario constraints stay out: a random start state need not satisfy
/// them.
#[test]
fn compiled_unrolling_matches_the_simulator_on_every_registry_miter() {
    let k = if cfg!(debug_assertions) { 1 } else { 3 };
    let mut rng = SplitMix64::new(0x0e4c);
    for (name, config, secret, _) in &distinct_miters() {
        let model = UpecModel::new(config, *secret);
        let transition = model.compiled_transition();
        let scheduled: Vec<SignalId> = model
            .netlist()
            .signals()
            .filter(|&s| transition.slot_of(s).is_some())
            .collect();
        let mut unrolling = Unrolling::with_compiled(
            Arc::clone(transition),
            UnrollOptions::default().with_simplify_trial(0),
            &model.frame0_aliases(),
        );
        unrolling.extend_to(k);
        for frame in 0..=k {
            for &signal in &scheduled {
                unrolling.lits(frame, signal).unwrap();
            }
        }

        check_random_run(name, &model, &mut unrolling, k, &scheduled, &mut rng);
        let fresh = unrolling.solver().simplify_stats();
        assert_eq!(fresh.rounds, 0, "{name}: fresh CNF");

        // A query guarding `x` and `!x` conflicts at once, so the trial-0
        // cap hands it to the simplifier, which rewrites the whole miter CNF.
        let contradiction = unrolling.fresh_lit();
        let x = unrolling.fresh_lit();
        unrolling.add_clause_activated(contradiction, [x]);
        unrolling.add_clause_activated(contradiction, [!x]);
        assert!(unrolling.solve(&[contradiction]).is_unsat(), "{name}");
        unrolling.retire_activation(contradiction);
        let simplified = unrolling.solver().simplify_stats();
        assert!(simplified.eliminated_vars > 0, "{name}: {simplified:?}");

        check_random_run(name, &model, &mut unrolling, k, &scheduled, &mut rng);
    }
}
