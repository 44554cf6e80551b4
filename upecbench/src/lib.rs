//! # `upecbench` — one benchmark for the whole UPEC pipeline
//!
//! Three closed-loop workloads (one caller; one worker thread, two for the
//! timed passes of `mine`, see [`workers`]), each driven only through the
//! repository's public functions:
//!
//! * **`sweep`** — the 25-instance registry at each instance's own windows
//!   through [`UpecEngine::run_instances`] with one worker and clause sharing
//!   on. 8 of the 25 repeat another instance's formal query
//!   (`fuzz-meltdown-footprint*` ≡ `cache-footprint*`, `fuzz-orc-timing*` ≡
//!   `orc*`), which is what the shared clause pool feeds on.
//! * **`certify`** — the 9 base instances that start at window ≤ 2, capped
//!   at window 2, through [`UpecEngine::check_certified`] (DRAT logging on);
//!   every certificate is re-checked against a freshly built model.
//! * **`mine`** — [`soc::fuzz::mine`] with default options (the registry's
//!   mining seed), once per run as the reference every gate checks; then
//!   its first [`MINE_TIMED_PROGRAMS`] programs replayed call by call, pass
//!   after pass, and timed: RTL simulation, golden-model co-simulation and
//!   the two-secret oracle, with no SAT work at all.
//!
//! `wall_s` is the sum, over the units of a pass (the whole registry call
//! for `sweep`, one instance for `certify`, one program on every variant
//! for `mine`), of each unit's fastest time among the run's passes. The
//! host's speed for the simulator drifts by up to 60% over seconds to
//! minutes, on each CPU on its own, but a 40-second window on two CPUs
//! holds fast moments; the fastest time of a unit that repeats every few
//! seconds finds them, where the median of a few long passes does not.
//!
//! No workload depends on the benchmark's seed. A seeded sweep order
//! changes the work (with one worker the order decides what sharing reuses:
//! up to 7% of the conflicts) and the peak memory (up to 15%); seeded
//! mining changes the cost by up to 20%, and at the mining seed plus 25 the
//! secure design diverges architecturally (program 90), which is a failure.
//!
//! An untraced run measures the end-to-end metrics ([`END_TO_END`]); a
//! traced run repeats the workload under an [`obs::MemorySink`] and folds
//! the span tree into the per-layer metrics ([`PER_LAYER`]). Correctness
//! gates count every failed operation; see [`run`].

pub mod trace;

use soc::fuzz::{self, Channel, FuzzOptions, ProgramGen};
use soc::{Program, SocConfig, SocVariant};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{attr_str, Trace};
use upec::scenarios::{self, Expectation, ScenarioInstance};
use upec::{EngineOptions, ScanVerdict, UpecEngine, UpecModel, VerdictCertificate};

use Expectation::{LAlert, PAlertsOnly, Proven};

/// The end-to-end metrics `(name, unit)`, reported by an untraced run.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics `(name, unit)`, reported by a traced run. Names
/// are prefixed by the layer they measure.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("engine.queries", "count"),
    ("engine.query_s", "s"),
    ("engine.query_p50_s", "s"),
    ("engine.query_tail_s", "s"),
    ("engine.overhead_s", "s"),
    ("encode.self_s", "s"),
    ("encode.vars_peak", "count"),
    ("encode.clauses_peak", "count"),
    ("encode.clauses_total", "count"),
    ("trial.self_s", "s"),
    ("trial.pass_ratio", "ratio"),
    ("simplify.self_s", "s"),
    ("simplify.probe_s", "s"),
    ("simplify.extract_s", "s"),
    ("simplify.subsume_s", "s"),
    ("simplify.elim_s", "s"),
    ("simplify.rebuild_s", "s"),
    ("simplify.eliminated_vars", "count"),
    ("simplify.subsumed_clauses", "count"),
    ("simplify.failed_literals", "count"),
    ("search.self_s", "s"),
    ("search.vivify_s", "s"),
    ("search.conflicts", "count"),
    ("search.propagations", "count"),
    ("search.decisions", "count"),
    ("search.restarts", "count"),
    ("search.vivified_clauses", "count"),
    ("search.props_per_s", "1/s"),
    ("cert.produce_s", "s"),
    ("cert.check_proof_s", "s"),
    ("cert.check_witness_s", "s"),
    ("cert.proofs", "count"),
    ("cert.witnesses", "count"),
    ("cert.bytes", "B"),
    ("proof.log_bytes", "B"),
    ("cert.trim_ratio", "ratio"),
    ("fuzz.gen_s", "s"),
    ("fuzz.cosim_s", "s"),
    ("fuzz.oracle_s", "s"),
    ("fuzz.programs", "count"),
    ("fuzz.divergent_runs", "count"),
    ("fuzz.witnesses", "count"),
    ("trace.overhead_pct", "%"),
];

/// The `sweep` instances with their pinned windows and expected verdicts.
/// Listed explicitly, so that an edit of the registry fails the benchmark's
/// set-up instead of silently changing the workload.
pub const SWEEP: [(&str, usize, usize, Expectation); 25] = [
    ("secure-uncached", 1, 2, Proven),
    ("secure-cached", 1, 2, PAlertsOnly),
    ("secure-arch-only", 1, 2, Proven),
    ("meltdown", 1, 2, PAlertsOnly),
    ("meltdown-timing", 3, 3, LAlert),
    ("cache-footprint", 1, 5, PAlertsOnly),
    ("orc", 1, 5, LAlert),
    ("pmp-lock", 7, 9, LAlert),
    ("fuzz-meltdown-footprint", 1, 5, PAlertsOnly),
    ("fuzz-orc-footprint", 1, 5, PAlertsOnly),
    ("fuzz-orc-timing", 1, 5, LAlert),
    ("cache-footprint@r4c4m1s1", 1, 5, PAlertsOnly),
    ("cache-footprint@r4c2m2s1", 1, 6, PAlertsOnly),
    ("cache-footprint@r4c2m1s2", 1, 5, PAlertsOnly),
    ("fuzz-meltdown-footprint@r4c4m1s1", 1, 5, PAlertsOnly),
    ("fuzz-meltdown-footprint@r4c2m2s1", 1, 6, PAlertsOnly),
    ("fuzz-meltdown-footprint@r4c2m1s2", 1, 5, PAlertsOnly),
    ("orc@r4c4m1s1", 1, 5, LAlert),
    ("orc@r4c2m2s1", 1, 5, LAlert),
    ("orc@r4c2m1s2", 1, 5, LAlert),
    ("fuzz-orc-timing@r4c4m1s1", 1, 5, LAlert),
    ("fuzz-orc-timing@r4c2m2s1", 1, 5, LAlert),
    ("fuzz-orc-timing@r4c2m1s2", 1, 5, LAlert),
    ("secure-arch-only@r4c4m1s1", 1, 2, Proven),
    ("secure-arch-only@r4c2m2s1", 1, 2, Proven),
];

/// The window cap of the `certify` slice.
pub const CERTIFY_MAX_WINDOW: usize = 2;

/// The `certify` instances with their expected verdicts over windows
/// `1..=CERTIFY_MAX_WINDOW` (footprints that first show at window 5 are
/// still proven there).
pub const CERTIFY: [(&str, ScanVerdict); 9] = [
    ("secure-uncached", ScanVerdict::Secure),
    ("secure-cached", ScanVerdict::PAlertsOnly),
    ("secure-arch-only", ScanVerdict::Secure),
    ("meltdown", ScanVerdict::PAlertsOnly),
    ("cache-footprint", ScanVerdict::Secure),
    ("orc", ScanVerdict::Insecure),
    ("fuzz-meltdown-footprint", ScanVerdict::Secure),
    ("fuzz-orc-footprint", ScanVerdict::Secure),
    ("fuzz-orc-timing", ScanVerdict::Insecure),
];

/// How many of the default mining run's programs `mine` times per pass.
/// A pass takes about 3 s, so a 40-second run sees each program about ten
/// times. The run's first divergences (the cache-footprint ones of case
/// 36) are among them.
pub const MINE_TIMED_PROGRAMS: usize = 50;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full-registry sweep.
    Sweep,
    /// The certified k ≤ 2 slice.
    Certify,
    /// Fuzz mining.
    Mine,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Certify, Workload::Mine];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Certify => "certify",
            Workload::Mine => "mine",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The prepared inputs of one workload.
pub enum Input {
    /// Instances in submission order and the engine.
    Sweep {
        /// The instances, in submission order.
        instances: Vec<ScenarioInstance>,
        /// One worker, clause sharing on.
        engine: UpecEngine,
    },
    /// Instances, the models their certificates are checked against, and
    /// the engine.
    Certify {
        /// The instances with their expected capped verdicts.
        instances: Vec<(ScenarioInstance, ScanVerdict)>,
        /// One freshly built model per instance.
        models: Vec<UpecModel>,
        /// Window cap 2.
        engine: UpecEngine,
    },
    /// The mining options and the pinned witness programs.
    Mine {
        /// Default options: the registry's mining seed.
        opts: FuzzOptions,
        /// How many of `opts`' programs a timed pass replays.
        timed_programs: usize,
        /// `(variant, channel, minimized program)` the mined witnesses must
        /// reduce to (none for a shortened run).
        pins: Vec<(SocVariant, Channel, Program)>,
    },
}

fn resolve(id: &str) -> Result<ScenarioInstance, String> {
    scenarios::instance_by_id(id).ok_or_else(|| format!("pinned instance `{id}` is not registered"))
}

/// Prepares the `sweep` input over the pinned instances named `ids`, in
/// that order, checking each against its pin.
pub fn sweep_input(ids: &[&str]) -> Result<Input, String> {
    let mut instances = Vec::with_capacity(ids.len());
    for id in ids {
        let &(_, start, max, expected) = SWEEP
            .iter()
            .find(|pin| pin.0 == *id)
            .ok_or_else(|| format!("`{id}` is not a sweep instance"))?;
        let instance = resolve(id)?;
        if (
            instance.start_window,
            instance.max_window,
            instance.expected,
        ) != (start, max, expected)
        {
            return Err(format!(
                "registry changed `{id}`: windows {}..={} expecting {:?}, pinned {start}..={max} \
                 expecting {expected:?}",
                instance.start_window, instance.max_window, instance.expected
            ));
        }
        instances.push(instance);
    }
    Ok(Input::Sweep {
        instances,
        engine: UpecEngine::new(EngineOptions::new().with_threads(1)),
    })
}

/// Prepares the `certify` input over the pinned instances named `ids`.
pub fn certify_input(ids: &[&str]) -> Result<Input, String> {
    let mut instances = Vec::with_capacity(ids.len());
    let mut models = Vec::with_capacity(ids.len());
    for id in ids {
        let &(_, expected) = CERTIFY
            .iter()
            .find(|pin| pin.0 == *id)
            .ok_or_else(|| format!("`{id}` is not a certify instance"))?;
        let instance = resolve(id)?;
        if instance.start_window > CERTIFY_MAX_WINDOW {
            return Err(format!(
                "registry moved `{id}` past window {CERTIFY_MAX_WINDOW}"
            ));
        }
        models.push(instance.build_model());
        instances.push((instance, expected));
    }
    Ok(Input::Certify {
        instances,
        models,
        engine: UpecEngine::new(
            EngineOptions::new()
                .with_threads(1)
                .with_max_window(CERTIFY_MAX_WINDOW),
        ),
    })
}

/// Prepares the `mine` input: the first `programs` programs of the
/// registry's mining seed and, for the full default run that mined them,
/// the witness programs the registry pins.
pub fn mine_input(programs: usize) -> Result<Input, String> {
    let witness = |id: &str| -> Result<Program, String> {
        let spec = scenarios::by_id(id).ok_or_else(|| format!("`{id}` is not registered"))?;
        spec.demo_program(&spec.sim_config())
            .ok_or_else(|| format!("`{id}` has no witness program"))
    };
    let opts = FuzzOptions::default().with_programs(programs);
    let pins = if programs == FuzzOptions::default().programs {
        vec![
            (
                SocVariant::MeltdownStyle,
                Channel::CacheFootprint,
                witness("fuzz-meltdown-footprint")?,
            ),
            (
                SocVariant::Orc,
                Channel::CacheFootprint,
                witness("fuzz-orc-footprint")?,
            ),
            (
                SocVariant::Orc,
                Channel::Timing,
                witness("fuzz-orc-timing")?,
            ),
        ]
    } else {
        Vec::new()
    };
    Ok(Input::Mine {
        opts,
        timed_programs: programs.min(MINE_TIMED_PROGRAMS),
        pins,
    })
}

/// Prepares the full input of `workload`. No workload depends on the
/// benchmark's seed; see the crate documentation for why.
pub fn setup(workload: Workload) -> Result<Input, String> {
    match workload {
        Workload::Sweep => sweep_input(&SWEEP.map(|pin| pin.0)),
        Workload::Certify => certify_input(&CERTIFY.map(|pin| pin.0)),
        Workload::Mine => mine_input(FuzzOptions::default().programs),
    }
}

/// How many set-ups one burst of [`time_setup`] times.
pub const SETUP_REPS: usize = 7;

/// How far apart [`measure`] times its bursts of set-ups after the last
/// pass.
pub const SETUP_EVERY: Duration = Duration::from_millis(250);

/// Sets `workload` up [`SETUP_REPS`] times and returns each set-up time in
/// seconds.
pub fn time_setup(workload: Workload) -> Result<Vec<f64>, String> {
    (0..SETUP_REPS)
        .map(|_| {
            let start = Instant::now();
            let input = setup(workload)?;
            let seconds = seconds_since(start);
            // Dropped outside the timed region.
            drop(input);
            Ok(seconds)
        })
        .collect()
}

/// Deterministic work counters of one pass; equal inputs must reproduce
/// them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// SAT conflicts, as the engine reports them.
    pub conflicts: u64,
    /// Largest encoded CNF (problem clauses) of any bound.
    pub clauses_peak: usize,
    /// Divergent program×variant runs of the miner.
    pub divergent_runs: usize,
}

/// A mined witness: variant, channel, case index and program.
pub type Witness = (SocVariant, Channel, usize, Program);

/// What one pass over a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the pass, in seconds.
    pub wall: f64,
    /// Wall time of each unit of the pass, in seconds: the whole pass for
    /// `sweep`, one instance for `certify`, one program on every variant
    /// for `mine`.
    pub units: Vec<f64>,
    /// One verdict per decided operation; a traced pass must agree with
    /// the untraced ones.
    pub verdicts: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Time-to-verdict of every bound query, in seconds.
    pub queries: Vec<f64>,
    /// Deterministic counters.
    pub counters: Counters,
    /// Peak `(variables, clauses)` of every scanned instance.
    pub cnf: Vec<(usize, usize)>,
    /// `(kind, size in bytes, check seconds)` of every certificate.
    pub certs: Vec<(&'static str, usize, f64)>,
    /// The mined witnesses, in discovery order.
    pub witnesses: Vec<Witness>,
    /// Programs generated.
    pub programs: usize,
}

impl Pass {
    fn fail(&mut self, failure: String) {
        self.failures.push(failure);
    }
}

fn seconds_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs one pass over `input`. Calls into the program are wrapped in
/// `bench.*` spans, which cost one atomic load when no sink is installed.
/// Only `mine` runs differently when `traced`: it replays all of the
/// miner's programs rather than the timed ones, so that the traced pass
/// can be checked against the miner's own report.
pub fn run_pass(input: &Input, traced: bool) -> Pass {
    match input {
        Input::Sweep { instances, engine } => sweep_pass(instances, engine),
        Input::Certify {
            instances,
            models,
            engine,
        } => certify_pass(instances, models, engine),
        Input::Mine { opts, .. } if traced => mine_replay(opts, opts.programs),
        Input::Mine {
            opts,
            timed_programs,
            ..
        } => mine_replay(opts, *timed_programs),
    }
}

fn sweep_pass(instances: &[ScenarioInstance], engine: &UpecEngine) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let results = {
        let _span = obs::span("bench.sweep");
        engine.run_instances(instances.iter().copied())
    };
    pass.wall = seconds_since(start);
    pass.units = vec![pass.wall];
    for result in &results {
        let id = result.instance.id();
        pass.attempted += 1;
        pass.verdicts.push(format!("{id}: {:?}", result.verdict));
        if !result.matches_expectation() {
            pass.fail(format!(
                "{id}: expected {:?}, got {:?}",
                result.instance.expected, result.verdict
            ));
        }
        pass.queries
            .extend(result.bounds.iter().map(|b| b.runtime.as_secs_f64()));
        pass.counters.conflicts += result.conflicts;
        let peak = result
            .bounds
            .iter()
            .map(|b| (b.variables, b.clauses))
            .max()
            .unwrap_or_default();
        pass.cnf.push(peak);
    }
    pass.counters.clauses_peak = pass.cnf.iter().map(|c| c.1).max().unwrap_or(0);
    pass
}

fn certify_pass(
    instances: &[(ScenarioInstance, ScanVerdict)],
    models: &[UpecModel],
    engine: &UpecEngine,
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    for ((instance, expected), model) in instances.iter().zip(models) {
        let unit_start = Instant::now();
        let id = instance.id();
        let result = {
            let _span = obs::span("bench.certify");
            engine.check_certified(instance)
        };
        pass.attempted += 1;
        pass.verdicts.push(format!("{id}: {:?}", result.verdict));
        if result.verdict != *expected {
            pass.fail(format!(
                "{id}: expected {expected:?}, got {:?}",
                result.verdict
            ));
        }
        for bound in &result.bounds {
            pass.queries.push(bound.summary.runtime.as_secs_f64());
            pass.counters.conflicts += bound.summary.conflicts;
            if bound.certificate.is_none() {
                pass.attempted += 1;
                pass.fail(format!(
                    "{id}: window {} has no certificate",
                    bound.summary.bound
                ));
            }
        }
        let peak = result
            .bounds
            .iter()
            .map(|b| (b.summary.variables, b.summary.clauses))
            .max()
            .unwrap_or_default();
        pass.cnf.push(peak);
        let certificates: Vec<&VerdictCertificate> = result
            .bounds
            .iter()
            .filter_map(|b| b.certificate.as_ref())
            .collect();
        pass.attempted += certificates.len() as u64;
        // Timed one by one from outside, split by kind.
        for certificate in certificates {
            let check_start = Instant::now();
            let checked = {
                let _span = obs::span(match certificate {
                    VerdictCertificate::Proof(_) => "bench.check_proof",
                    VerdictCertificate::Witness(_) => "bench.check_witness",
                });
                certificate.check(model)
            };
            pass.certs.push((
                certificate.kind_name(),
                certificate.size_bytes(),
                seconds_since(check_start),
            ));
            if let Err(e) = checked {
                pass.fail(format!(
                    "{id}: {} certificate of window {} rejected: {e}",
                    certificate.kind_name(),
                    certificate.window()
                ));
            }
        }
        pass.units.push(seconds_since(unit_start));
    }
    pass.wall = seconds_since(start);
    pass.counters.clauses_peak = pass.cnf.iter().map(|c| c.1).max().unwrap_or(0);
    pass
}

/// Counts one program×variant outcome the way [`fuzz::mine`] does.
fn record_mined(
    pass: &mut Pass,
    variant: SocVariant,
    case: usize,
    program: &Program,
    cosim_ok: bool,
    channel: Option<Channel>,
) {
    pass.attempted += 1;
    if !cosim_ok {
        pass.fail(format!(
            "case {case} on {}: co-simulation mismatch",
            variant.name()
        ));
    }
    let Some(channel) = channel else { return };
    pass.counters.divergent_runs += 1;
    if variant.is_secure() {
        pass.fail(format!(
            "case {case}: the secure design diverged through {}",
            channel.name()
        ));
    } else if !pass
        .witnesses
        .iter()
        .any(|w| w.0 == variant && w.1 == channel)
    {
        pass.witnesses
            .push((variant, channel, case, program.clone()));
    }
}

fn finish_mine(pass: &mut Pass) {
    pass.verdicts = pass
        .witnesses
        .iter()
        .map(|(variant, channel, case, _)| {
            format!("{} {} at case {case}", variant.name(), channel.name())
        })
        .collect();
}

/// The miner itself, run once per `mine` run: the reference the pins and
/// every replay are checked against.
pub fn mine_pass(opts: &FuzzOptions) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let report = {
        let _span = obs::span("bench.mine");
        fuzz::mine(opts)
    };
    pass.wall = seconds_since(start);
    pass.programs = report.programs_run;
    let runs = report.programs_run * opts.variants.len();
    pass.attempted = runs as u64;
    pass.counters.divergent_runs = report.divergent_runs;
    for _ in 0..report.secure_divergences {
        pass.fail("the secure design diverged".to_string());
    }
    for _ in 0..report.cosim_mismatches {
        pass.fail("co-simulation mismatch".to_string());
    }
    pass.witnesses = report
        .witnesses
        .into_iter()
        .map(|w| (w.variant, w.channel, w.case_index, w.program))
        .collect();
    finish_mine(&mut pass);
    pass
}

/// Replays the first `programs` of [`mine_pass`]'s seeded programs through
/// the public generator, co-simulation check and oracle, with a span
/// around each call, and times each program.
fn mine_replay(opts: &FuzzOptions, programs: usize) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut gen = ProgramGen::new(opts.seed, &SocConfig::new(SocVariant::Secure));
    for case in 0..programs {
        let unit_start = Instant::now();
        let program = {
            let _span = obs::span("bench.fuzz.gen");
            gen.next_program_in(opts.min_len, opts.max_len)
        };
        pass.programs += 1;
        for &variant in &opts.variants {
            let config = SocConfig::new(variant);
            let cosim_ok = {
                let _span = obs::span("bench.fuzz.cosim");
                fuzz::cosim_check(&config, &program).is_ok()
            };
            let channel = {
                let _span = obs::span("bench.fuzz.oracle");
                fuzz::divergence(&config, &program, opts)
            };
            record_mined(&mut pass, variant, case, &program, cosim_ok, channel);
        }
        pass.units.push(seconds_since(unit_start));
    }
    pass.wall = seconds_since(start);
    finish_mine(&mut pass);
    pass
}

/// What [`measure`] took.
#[derive(Debug, Default)]
pub struct Measured {
    /// The untraced passes.
    pub passes: Vec<Pass>,
    /// Peak resident memory up to the end of the first pass, in MiB: later
    /// passes add heap fragmentation that differs from process to process.
    pub peak_rss_mb: f64,
    /// Every timed set-up of `workload`, in seconds.
    pub setup_times: Vec<f64>,
}

/// How many workers [`measure`] runs side by side after the first pass.
/// The simulator's speed drifts on each of the host's CPUs on its own, so
/// `mine` samples its programs on two of them at once. The SAT workloads
/// keep one worker: two `certify` passes side by side slowed each other by
/// about 10% and left the spread as it was, and a `sweep` pass takes most
/// of a run.
pub fn workers(workload: Workload) -> usize {
    match workload {
        Workload::Mine => 2,
        Workload::Sweep | Workload::Certify => 1,
    }
}

/// Runs untraced passes over `input`, the prepared input of `workload`:
/// one, then on each of [`workers`] more until `seconds` would be exceeded
/// by one more pass of the last pass's length. The set-up is timed in a
/// burst before the first pass and after each one, and in more bursts,
/// [`SETUP_EVERY`] apart, in the run's time left after the last pass. A
/// burst never runs beside a SAT pass: a `certify` set-up builds models,
/// and timed beside a pass it read 3 or 7 ms by chance and slowed the
/// pass. The host's speed for the set-up drifts by up to 1.8× over tens of
/// seconds, so `sweep`, one pass a run, would otherwise time it at two
/// moments only.
pub fn measure(workload: Workload, input: &Input, seconds: f64) -> Result<Measured, String> {
    let start = Instant::now();
    let mut setup_times = time_setup(workload)?;
    let first = run_pass(input, false);
    let peak_rss_mb = peak_rss_mb();
    setup_times.extend(time_setup(workload)?);
    let repeat = || -> Result<(Vec<Pass>, Vec<f64>), String> {
        let (mut passes, mut setup_times) = (Vec::new(), Vec::new());
        let mut last = first.wall;
        while seconds_since(start) + last <= seconds {
            let pass = run_pass(input, false);
            setup_times.extend(time_setup(workload)?);
            last = pass.wall;
            passes.push(pass);
        }
        Ok((passes, setup_times))
    };
    let repeated: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers(workload))
            .map(|_| scope.spawn(repeat))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a measuring worker panicked"))
            .collect()
    });
    let mut measured = Measured {
        passes: vec![first],
        peak_rss_mb,
        setup_times,
    };
    for result in repeated {
        let (passes, setup_times) = result?;
        measured.passes.extend(passes);
        measured.setup_times.extend(setup_times);
    }
    while seconds_since(start) + SETUP_EVERY.as_secs_f64() <= seconds {
        std::thread::sleep(SETUP_EVERY);
        measured.setup_times.extend(time_setup(workload)?);
    }
    Ok(measured)
}

/// Runs one pass under an in-memory trace sink and returns it with its
/// spans.
pub fn traced_pass(input: &Input) -> (Pass, Trace) {
    let sink = Arc::new(obs::MemorySink::new());
    obs::install(sink.clone());
    let pass = run_pass(input, true);
    obs::uninstall();
    (pass, Trace::new(sink.spans()))
}

/// The workload's wall time over `passes` of it: the sum, over the units
/// of a pass, of each unit's fastest time among the passes.
pub fn fastest_wall(passes: &[Pass]) -> f64 {
    let units = passes.iter().map(|p| p.units.len()).min().unwrap_or(0);
    (0..units)
        .map(|u| {
            passes
                .iter()
                .map(|p| p.units[u])
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` with at least ten samples above it:
/// `(value, percentile)`. With ten samples or fewer it is the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => (0.0, 0.0),
        n if n <= 10 => (sorted[n - 1], 100.0),
        n => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// The result of a whole run: gate outcome, metrics and details.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, gates included.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// `(name, value)` of every reported metric, in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Wall time of every untraced pass, in seconds.
    pub pass_walls: Vec<f64>,
    /// The first pass's deterministic counters.
    pub counters: Counters,
    /// Time-to-verdict of every bound query of the untraced passes.
    pub queries: Vec<f64>,
}

impl Outcome {
    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Records one gate: an operation that fails with `failure`, if any.
    pub fn gate(&mut self, failure: Option<String>) {
        self.attempted += 1;
        self.failures.extend(failure);
    }

    fn absorb(&mut self, pass: &Pass) {
        self.attempted += pass.attempted;
        self.failures.extend(pass.failures.iter().cloned());
    }
}

/// Peak resident memory of this process image, in MiB: `VmHWM` of
/// `/proc/self/status` (0 where that is unavailable). Unlike `getrusage`,
/// it does not include the peak of the process that launched this one.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Runs `workload` on `input`, its prepared input, and evaluates every
/// gate. `mine` first runs the miner itself once, the reference for its
/// gates. Untraced (`trace == false`) it measures until `seconds` have
/// passed and the metrics are [`END_TO_END`]: `wall_s` is
/// [`fastest_wall`] of the passes, `setup_s` the median of the set-up
/// times [`measure`] took. Traced, one untraced pass is followed by one
/// pass under a trace sink, and the metrics are [`PER_LAYER`];
/// `trace.overhead_pct` compares the traced pass with the untraced pass
/// or, for `mine`, with the miner's own run. Fails only when the set-up
/// fails.
pub fn run(
    workload: Workload,
    input: &Input,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut outcome = Outcome::default();
    let reference = match input {
        Input::Mine { opts, .. } => Some(mine_pass(opts)),
        _ => None,
    };
    let Measured {
        passes,
        peak_rss_mb,
        setup_times,
    } = measure(
        workload,
        input,
        if trace {
            0.0
        } else {
            seconds - seconds_since(start)
        },
    )?;
    for pass in reference.iter().chain(&passes) {
        outcome.absorb(pass);
    }
    outcome.pass_walls = passes.iter().map(|p| p.wall).collect();
    let wall = fastest_wall(&passes);
    let traced = trace.then(|| traced_pass(input));

    // Determinism: every untraced pass repeats the first one's counters
    // and verdicts, and the traced pass repeats those of the pass with the
    // same work (the miner's own run, for `mine`).
    let first = &passes[0];
    let like = reference.as_ref().unwrap_or(first);
    let mut pairs: Vec<(&Pass, &Pass)> = passes.iter().map(|p| (first, p)).collect();
    if let Some((pass, _)) = &traced {
        outcome.absorb(pass);
        pairs.push((like, pass));
    }
    outcome.counters = like.counters;
    outcome.gate(
        pairs
            .iter()
            .find(|(a, b)| a.counters != b.counters)
            .map(|(a, b)| {
                format!(
                    "work counters differ between passes: {:?} vs {:?}",
                    a.counters, b.counters
                )
            }),
    );
    outcome.gate(
        pairs
            .iter()
            .find(|(a, b)| a.verdicts != b.verdicts)
            .map(|(a, b)| {
                format!(
                    "verdicts differ between passes: {:?} vs {:?}",
                    a.verdicts, b.verdicts
                )
            }),
    );
    if let (
        Some(reference),
        Input::Mine {
            opts,
            timed_programs,
            pins,
        },
    ) = (&reference, input)
    {
        check_pins(&mut outcome, reference, opts, pins);
        // The timed passes find the miner's witnesses among their programs.
        let expected: Vec<&Witness> = reference
            .witnesses
            .iter()
            .filter(|w| w.2 < *timed_programs)
            .collect();
        let found: Vec<&Witness> = first.witnesses.iter().collect();
        outcome.gate((found != expected).then(|| {
            format!(
                "the timed programs mined {:?}, the miner {:?}",
                first.verdicts, reference.verdicts
            )
        }));
    }
    outcome.queries = passes
        .iter()
        .flat_map(|p| p.queries.iter().copied())
        .collect();

    outcome.metrics = match &traced {
        None => vec![
            ("wall_s", wall),
            ("setup_s", median(&setup_times)),
            ("peak_rss_mb", peak_rss_mb),
        ],
        Some((pass, spans)) => {
            // The sweep's span tree must account for the engine's query
            // time within 10%.
            if workload == Workload::Sweep {
                outcome.gate(phase_sum_error(pass, spans));
            }
            let untraced_wall = reference.as_ref().map_or(wall, |r| r.wall);
            per_layer(pass, spans, untraced_wall, &outcome.queries)
        }
    };
    Ok(outcome)
}

/// Every pinned `(variant, channel)` must be mined and minimize to the
/// pinned program.
fn check_pins(
    outcome: &mut Outcome,
    pass: &Pass,
    opts: &FuzzOptions,
    pins: &[(SocVariant, Channel, Program)],
) {
    for (variant, channel, pinned) in pins {
        let mined = pass
            .witnesses
            .iter()
            .find(|w| w.0 == *variant && w.1 == *channel);
        outcome.gate(match mined {
            None => Some(format!(
                "no {} witness on {} in the default mining run",
                channel.name(),
                variant.name()
            )),
            Some((_, _, case, program)) => {
                let config = SocConfig::new(*variant);
                let minimized = fuzz::minimize(&config, program, *channel, opts).program;
                (minimized != *pinned).then(|| {
                    format!(
                        "{} {} witness of case {case} minimizes to\n{}\nnot the pinned\n{}",
                        variant.name(),
                        channel.name(),
                        minimized.listing(),
                        pinned.listing()
                    )
                })
            }
        });
    }
}

/// The traced phase sum (every span's self time inside `upec.check_bound`)
/// must land within 10% of `engine.query_s`, the engine's own per-query
/// clock (with a 5 ms floor for tiny sweeps).
pub fn phase_sum_error(pass: &Pass, trace: &Trace) -> Option<String> {
    let query_s: f64 = pass.queries.iter().sum();
    let phase_sum = trace.tree_self_s("upec.check_bound");
    let tolerance = (query_s * 0.10).max(0.005);
    ((phase_sum - query_s).abs() > tolerance).then(|| {
        format!(
            "traced phase sum {phase_sum:.4}s is not within 10% of engine.query_s {query_s:.4}s"
        )
    })
}

/// Folds a traced pass into the [`PER_LAYER`] metrics, in catalog order.
/// `untraced_wall` and `queries` (time-to-verdict samples) come from the
/// untraced passes of the same run.
pub fn per_layer(
    pass: &Pass,
    trace: &Trace,
    untraced_wall: f64,
    queries: &[f64],
) -> Vec<(&'static str, f64)> {
    let query_s: f64 = pass.queries.iter().sum();
    let query_count = trace.count("upec.check_bound");
    let trials: Vec<_> = trace.named("bmc.trial_solve").collect();
    let trials_passed = trace
        .named("sat.search")
        .filter(|s| {
            attr_str(s, "result") != Some("unknown")
                && trace.parent(s).is_some_and(|p| p.name == "bmc.trial_solve")
        })
        .count();
    let search_s = trace.total_s("sat.search");
    let propagations = trace.attr_sum("sat.search", "propagations");
    let cert_sum = |kind: &str, f: fn(&(&'static str, usize, f64)) -> f64| -> f64 {
        pass.certs.iter().filter(|c| c.0 == kind).map(f).sum()
    };
    let count = |_: &(&'static str, usize, f64)| 1.0;
    let bytes = |c: &(&'static str, usize, f64)| c.1 as f64;
    let log_bytes: u64 = trace
        .last_attr_per("bench.certify", "sat.proof_log", "size_bytes")
        .map(|(_, v)| v)
        .sum();
    let log_at_proofs: u64 = trace
        .last_attr_per("upec.check_bound", "sat.proof_log", "size_bytes")
        .filter(|(query, _)| attr_str(query, "verdict") == Some("proven"))
        .map(|(_, v)| v)
        .sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("engine.queries", query_count as f64),
        ("engine.query_s", query_s),
        ("engine.query_p50_s", median(queries)),
        ("engine.query_tail_s", tail(queries).0),
        (
            "engine.overhead_s",
            if query_count > 0 {
                pass.wall - query_s
            } else {
                0.0
            },
        ),
        ("encode.self_s", trace.self_s("bmc.encode")),
        (
            "encode.vars_peak",
            pass.cnf.iter().map(|c| c.0).max().unwrap_or(0) as f64,
        ),
        ("encode.clauses_peak", pass.counters.clauses_peak as f64),
        (
            "encode.clauses_total",
            pass.cnf.iter().map(|c| c.1).sum::<usize>() as f64,
        ),
        ("trial.self_s", trace.self_s("bmc.trial_solve")),
        (
            "trial.pass_ratio",
            ratio(trials_passed as f64, trials.len() as f64),
        ),
        ("simplify.self_s", trace.self_s("sat.simplify")),
        ("simplify.probe_s", trace.total_s("simplify.probe")),
        ("simplify.extract_s", trace.total_s("simplify.extract")),
        ("simplify.subsume_s", trace.total_s("simplify.subsume")),
        ("simplify.elim_s", trace.total_s("simplify.elim")),
        ("simplify.rebuild_s", trace.total_s("simplify.rebuild")),
        (
            "simplify.eliminated_vars",
            trace.attr_sum("sat.simplify", "eliminated_vars") as f64,
        ),
        (
            "simplify.subsumed_clauses",
            trace.attr_sum("sat.simplify", "subsumed_clauses") as f64,
        ),
        (
            "simplify.failed_literals",
            trace.attr_sum("sat.simplify", "failed_literals") as f64,
        ),
        ("search.self_s", trace.self_s("sat.search")),
        ("search.vivify_s", trace.total_s("sat.vivify")),
        (
            "search.conflicts",
            trace.attr_sum("sat.search", "conflicts") as f64,
        ),
        ("search.propagations", propagations as f64),
        (
            "search.decisions",
            trace.attr_sum("sat.search", "decisions") as f64,
        ),
        (
            "search.restarts",
            trace.attr_sum("sat.search", "restarts") as f64,
        ),
        (
            "search.vivified_clauses",
            trace.attr_sum("sat.vivify", "strengthened") as f64,
        ),
        ("search.props_per_s", ratio(propagations as f64, search_s)),
        ("cert.produce_s", trace.total_s("bench.certify")),
        ("cert.check_proof_s", cert_sum("proof", |c| c.2)),
        ("cert.check_witness_s", cert_sum("witness", |c| c.2)),
        ("cert.proofs", cert_sum("proof", count)),
        ("cert.witnesses", cert_sum("witness", count)),
        (
            "cert.bytes",
            cert_sum("proof", bytes) + cert_sum("witness", bytes),
        ),
        ("proof.log_bytes", log_bytes as f64),
        (
            "cert.trim_ratio",
            ratio(cert_sum("proof", bytes), log_at_proofs as f64),
        ),
        ("fuzz.gen_s", trace.total_s("bench.fuzz.gen")),
        ("fuzz.cosim_s", trace.total_s("bench.fuzz.cosim")),
        ("fuzz.oracle_s", trace.total_s("bench.fuzz.oracle")),
        ("fuzz.programs", pass.programs as f64),
        ("fuzz.divergent_runs", pass.counters.divergent_runs as f64),
        ("fuzz.witnesses", pass.witnesses.len() as f64),
        (
            "trace.overhead_pct",
            ratio(100.0 * (pass.wall - untraced_wall), untraced_wall),
        ),
    ]
}

/// The stamp every result carries.
pub fn stamp(seed: u64) -> Vec<(&'static str, String)> {
    let commit = if std::path::Path::new(".git").exists() {
        std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    } else {
        None
    };
    vec![
        ("commit", commit.unwrap_or_else(|| "unknown".to_string())),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("rustc", env!("UPECBENCH_RUSTC").to_string()),
        ("profile", env!("UPECBENCH_PROFILE").to_string()),
        ("seed", seed.to_string()),
    ]
}

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}
