//! The parallel scenario/bound scheduler built on incremental sessions.

use crate::certify::{CertificateCheck, CertificateError, VerdictCertificate};
use crate::engine::{EngineError, IncrementalSession};
use crate::scenarios::{Expectation, ScenarioInstance};
use crate::{Alert, AlertKind, SecretScenario, UpecModel, UpecOutcome, UpecStats};
use soc::SocConfig;
use std::collections::{BTreeSet, VecDeque};
use std::sync::Mutex;
use std::time::Duration;

/// Configuration of a [`UpecEngine`] run.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Number of worker threads (default: available parallelism, capped
    /// at 8).
    pub threads: usize,
    /// Optional cap on every scenario's scan range (`None`: each scenario's
    /// own `max_window`).
    pub max_window: Option<usize>,
    /// Deterministic resource budget of each bound's query (see
    /// [`sat::Budget`]); an exhausted bound is recorded as
    /// [`BoundStatus::Unknown`] and never invents a verdict. Unlimited by
    /// default.
    pub bound_budget: sat::Budget,
    /// Deterministic resource budget of one whole scenario scan: the spend
    /// of every bound accumulates against it, each bound runs under the
    /// remainder (intersected with `bound_budget`), and bounds reached after
    /// exhaustion are recorded as [`BoundStatus::Unknown`] without solving.
    /// Unlimited by default.
    pub scenario_budget: sat::Budget,
}

impl EngineOptions {
    /// Defaults: all available cores (max 8), no limits.
    pub fn new() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            max_window: None,
            bound_budget: sat::Budget::unlimited(),
            scenario_budget: sat::Budget::unlimited(),
        }
    }

    /// Sets the per-bound resource budget (builder style).
    pub fn with_bound_budget(mut self, budget: sat::Budget) -> Self {
        self.bound_budget = budget;
        self
    }

    /// Sets the per-scenario resource budget (builder style).
    pub fn with_scenario_budget(mut self, budget: sat::Budget) -> Self {
        self.scenario_budget = budget;
        self
    }

    /// Sets the worker-thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Caps every scenario's scan range (builder style).
    pub fn with_max_window(mut self, max_window: usize) -> Self {
        self.max_window = Some(max_window);
        self
    }
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// Status of one checked window length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundStatus {
    /// The property holds at this bound.
    Proven,
    /// A P-alert: secret reached program-invisible state only.
    PAlert,
    /// An L-alert: a covert channel is proven at this bound.
    LAlert,
    /// The query stopped on an exhausted [`sat::Budget`], or was skipped
    /// because the scenario budget ran out first.
    Unknown,
    /// The query stopped on a cancellation ([`sat::StopCause::Cancelled`]).
    Cancelled,
}

/// Per-bound record of a scenario scan.
#[derive(Debug, Clone, Copy)]
pub struct BoundSummary {
    /// Window length.
    pub bound: usize,
    /// What the check concluded.
    pub status: BoundStatus,
    /// SAT conflicts attributed to this bound.
    pub conflicts: u64,
    /// Wall-clock time of this bound's query.
    pub runtime: Duration,
    /// Encoded CNF variables in the session when this bound finished.
    pub variables: usize,
    /// Encoded CNF problem clauses in the session when this bound finished.
    pub clauses: usize,
}

impl BoundSummary {
    fn new(bound: usize, status: BoundStatus, stats: &UpecStats) -> Self {
        Self {
            bound,
            status,
            conflicts: stats.conflicts,
            runtime: stats.runtime,
            variables: stats.variables,
            clauses: stats.clauses,
        }
    }
}

/// Aggregate verdict of one scenario scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanVerdict {
    /// Proven at every window in the range.
    Secure,
    /// P-alerts only; no covert channel demonstrated.
    PAlertsOnly,
    /// At least one L-alert: the design leaks.
    Insecure,
    /// Budget exhausted before a verdict.
    Inconclusive,
}

/// The parallel, incremental UPEC checking engine.
///
/// The engine takes a batch of [`ScenarioInstance`]s (usually straight from
/// [`crate::scenarios::registry`] or [`crate::scenarios::instances`]) and
/// scans each instance's window range on a pool of worker threads, one
/// miter per worker at a time. A miter is the two-SoC model fixed by SoC
/// config and secret placement; instances of the same miter differ only by
/// commitment and windows, so they are scanned on one
/// [`IncrementalSession`]: one persistent SAT solver that walks the bounds,
/// reusing learned clauses and activities between bounds and between
/// instances instead of re-solving from scratch.
///
/// # Examples
///
/// The quick proof below runs in a couple of seconds; sweeping the full
/// registry is the `cargo run -p bench --bin engine` entry point.
///
/// ```
/// use upec::scenarios;
/// use upec::{EngineOptions, ScanVerdict, UpecEngine};
///
/// let engine = UpecEngine::new(EngineOptions::new().with_threads(2).with_max_window(1));
/// let scenario = scenarios::by_id("secure-uncached").unwrap();
/// let results = engine.run_instances([scenario]);
/// assert_eq!(results.len(), 1);
/// assert_eq!(results[0].verdict, ScanVerdict::Secure);
/// assert!(results[0].matches_expectation());
/// ```
#[derive(Debug, Clone, Default)]
pub struct UpecEngine {
    options: EngineOptions,
}

impl UpecEngine {
    /// Creates an engine with the given options.
    pub fn new(options: EngineOptions) -> Self {
        Self { options }
    }

    /// The last window of `instance`'s scan under the engine's cap. The cap
    /// is honored strictly: a cap below the instance's start window yields
    /// an empty scan (reported as Inconclusive) rather than silently running
    /// the instance's cheapest — possibly still multi-minute — bound.
    fn last_window(&self, instance: &ScenarioInstance) -> usize {
        self.options
            .max_window
            .map_or(instance.max_window, |m| m.min(instance.max_window))
    }

    /// Walks the instances of one miter on a single incremental session.
    ///
    /// `members` share SoC config and secret placement and differ only by
    /// commitment and window range. The walk raises `k` from the lowest
    /// start window to the highest last window, and at each `k` checks, in
    /// submission order, every member whose range contains `k` and that has
    /// no L-alert yet. `k` never decreases, as
    /// [`IncrementalSession::check_bound`] requires. Each member's counters
    /// and scenario budget are charged with its own queries' solver deltas.
    fn scan_miter(&self, members: &[ScenarioInstance]) -> Vec<InstanceResult> {
        let mut miter_span = obs::span("upec.miter");
        let ids: Vec<String> = members.iter().map(ScenarioInstance::id).collect();
        miter_span.attr_str("members", &ids.join(","));
        let model = members[0].build_model();
        let mut session = IncrementalSession::new(&model);
        let mut scans: Vec<MemberScan> = members
            .iter()
            .map(|&instance| MemberScan {
                commitment: instance.commitment_set(&model),
                last_window: self.last_window(&instance),
                budget_left: self.options.scenario_budget,
                result: InstanceResult {
                    instance,
                    verdict: ScanVerdict::Inconclusive,
                    first_alert: None,
                    bounds: Vec::new(),
                    conflicts: 0,
                    propagations: 0,
                    budget_exhaustions: 0,
                    cancellations: 0,
                },
            })
            .collect();
        let first = members.iter().map(|i| i.start_window).min().unwrap_or(1);
        let last = scans.iter().map(|scan| scan.last_window).max().unwrap_or(0);
        for k in first..=last {
            for scan in &mut scans {
                let result = &mut scan.result;
                let alerted = result
                    .bounds
                    .last()
                    .is_some_and(|b| b.status == BoundStatus::LAlert);
                if alerted || !(result.instance.start_window..=scan.last_window).contains(&k) {
                    continue;
                }
                // Budget policy: each bound runs under its own budget
                // intersected with whatever the scenario budget has left;
                // once the scan's allotment is spent, remaining bounds are
                // recorded as Unknown without solving. The scan never
                // invents a verdict.
                if scan.budget_left.is_exhausted() {
                    obs::counter("upec.scan.budget_skipped_bounds", 1);
                    result.bounds.push(BoundSummary::new(
                        k,
                        BoundStatus::Unknown,
                        &UpecStats::default(),
                    ));
                    continue;
                }
                session.set_budget(self.options.bound_budget.min(scan.budget_left));
                let before = session.solver_stats();
                let outcome = session.check_bound(k, &scan.commitment);
                let spent = session.solver_stats().delta_since(&before);
                scan.budget_left = scan.budget_left.minus(&spent);
                result.conflicts += spent.conflicts;
                result.propagations += spent.propagations;
                result.budget_exhaustions += spent.budget_exhaustions;
                result.cancellations += spent.cancellations;
                result.bounds.push(BoundSummary::new(
                    k,
                    bound_status(&outcome),
                    &outcome.stats(),
                ));
                if let UpecOutcome::Violated(alert, _) = outcome {
                    result.first_alert.get_or_insert(alert);
                }
            }
        }
        scans
            .into_iter()
            .map(|scan| InstanceResult {
                verdict: verdict_from_bounds(&scan.result.bounds),
                ..scan.result
            })
            .collect()
    }
}

/// Why the worker pool's locks cannot be poisoned: no code panics while
/// holding one.
const UNPOISONED: &str = "the engine holds its locks only to move jobs and results";

/// One instance's scan inside a miter walk.
struct MemberScan {
    /// The result so far; its verdict is set when the walk ends.
    result: InstanceResult,
    commitment: BTreeSet<String>,
    /// The instance's last window under the engine's cap.
    last_window: usize,
    /// What is left of the instance's scenario budget.
    budget_left: sat::Budget,
}

/// The status a bound's outcome records.
fn bound_status(outcome: &UpecOutcome) -> BoundStatus {
    match outcome {
        UpecOutcome::Proven(_) => BoundStatus::Proven,
        UpecOutcome::Violated(alert, _) => match alert.kind {
            AlertKind::PAlert => BoundStatus::PAlert,
            AlertKind::LAlert => BoundStatus::LAlert,
        },
        UpecOutcome::Unknown(stats) => unknown_status(stats.stop),
    }
}

/// The status of a bound whose query stopped without a verdict: only a
/// genuine cancellation counts as Cancelled — exhausted budgets stay
/// Unknown.
fn unknown_status(stop: Option<sat::StopCause>) -> BoundStatus {
    if stop == Some(sat::StopCause::Cancelled) {
        BoundStatus::Cancelled
    } else {
        BoundStatus::Unknown
    }
}

/// The aggregate verdict implied by a set of per-bound outcomes.
fn verdict_from_bounds(bounds: &[BoundSummary]) -> ScanVerdict {
    let has = |status: BoundStatus| bounds.iter().any(|b| b.status == status);
    if bounds.is_empty() {
        // Nothing was checked (e.g. the engine's window cap lies below the
        // scenario's start window) — never report an unchecked design secure.
        ScanVerdict::Inconclusive
    } else if has(BoundStatus::LAlert) {
        ScanVerdict::Insecure
    } else if has(BoundStatus::Unknown) || has(BoundStatus::Cancelled) {
        ScanVerdict::Inconclusive
    } else if has(BoundStatus::PAlert) {
        ScanVerdict::PAlertsOnly
    } else {
        ScanVerdict::Secure
    }
}

/// Whether a scan verdict matches a pinned expectation.
fn verdict_matches(expected: Expectation, verdict: ScanVerdict) -> bool {
    matches!(
        (expected, verdict),
        (Expectation::Proven, ScanVerdict::Secure)
            | (Expectation::PAlertsOnly, ScanVerdict::PAlertsOnly)
            | (Expectation::LAlert, ScanVerdict::Insecure)
    )
}

/// Result of scanning one [`ScenarioInstance`].
#[derive(Debug, Clone)]
pub struct InstanceResult {
    /// The instance that was scanned.
    pub instance: ScenarioInstance,
    /// Aggregate verdict over the instance's window range.
    pub verdict: ScanVerdict,
    /// The alert with the smallest window, if any was found.
    pub first_alert: Option<Alert>,
    /// Per-bound outcomes, sorted by window length.
    pub bounds: Vec<BoundSummary>,
    /// Total SAT conflicts of the scan.
    pub conflicts: u64,
    /// Total unit propagations of the scan.
    pub propagations: u64,
    /// Solver episodes stopped by an exhausted [`sat::Budget`] during the
    /// scan, including the conflict-capped trial solves that decide whether
    /// a query is worth simplifying (see [`bmc::Unrolling::solve`]).
    pub budget_exhaustions: u64,
    /// Solver episodes stopped by cancellation during the scan.
    pub cancellations: u64,
}

impl InstanceResult {
    /// Whether the verdict matches the instance's pinned expectation.
    pub fn matches_expectation(&self) -> bool {
        verdict_matches(self.instance.expected, self.verdict)
    }

    /// Total query wall time across all completed bounds.
    pub fn query_time(&self) -> Duration {
        self.bounds.iter().map(|b| b.runtime).sum()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let alert = match &self.first_alert {
            Some(a) => format!(", first alert ({:?}) at k={}", a.kind, a.window),
            None => String::new(),
        };
        format!(
            "{:<34} {:?}{alert} [{} bounds, {} conflicts, {:.2?} solve]",
            self.instance.id(),
            self.verdict,
            self.bounds.len(),
            self.conflicts,
            self.query_time()
        )
    }
}

/// Per-bound record of a certified scan: the usual bound summary plus the
/// verdict's proof artifact (absent only for [`BoundStatus::Unknown`]
/// bounds, which carry no verdict to certify).
#[derive(Debug, Clone)]
pub struct CertifiedBound {
    /// The bound's outcome and effort counters.
    pub summary: BoundSummary,
    /// The bound's checkable certificate.
    pub certificate: Option<VerdictCertificate>,
}

/// Result of a certified scan of one [`ScenarioInstance`]: the aggregate
/// verdict plus one [`VerdictCertificate`] per decided bound.
#[derive(Debug, Clone)]
pub struct CertifiedResult {
    /// The instance that was scanned.
    pub instance: ScenarioInstance,
    /// Aggregate verdict over the scanned range.
    pub verdict: ScanVerdict,
    /// Per-bound outcomes with their certificates, sorted by window length.
    pub bounds: Vec<CertifiedBound>,
}

impl CertifiedResult {
    /// Whether the verdict matches the instance's pinned expectation.
    pub fn matches_expectation(&self) -> bool {
        verdict_matches(self.instance.expected, self.verdict)
    }

    /// Number of bounds that carry a certificate.
    pub fn certified_bounds(&self) -> usize {
        self.bounds
            .iter()
            .filter(|b| b.certificate.is_some())
            .count()
    }

    /// Re-checks every certificate against `model` (which must be built from
    /// the same instance) and returns the per-bound check reports in scan
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the first [`CertificateError`] encountered.
    pub fn check_all(&self, model: &UpecModel) -> Result<Vec<CertificateCheck>, CertificateError> {
        self.bounds
            .iter()
            .filter_map(|b| b.certificate.as_ref())
            .map(|c| c.check(model))
            .collect()
    }
}

impl UpecEngine {
    /// Scans every [`ScenarioInstance`] on the worker pool and returns the
    /// results in submission order.
    ///
    /// This is the engine's one scan entry point: instances carry their own
    /// geometry, window range and expectation.
    ///
    /// Instances are grouped by miter, the two inputs of [`UpecModel::new`]:
    /// SoC config and secret placement. Each group builds one model and one
    /// [`IncrementalSession`] and walks its members' windows together, so a
    /// query reuses what earlier queries of the same miter learned, whatever
    /// instance posed them. Groups are the worker pool's jobs; they share
    /// nothing, so the results do not depend on the number of workers.
    pub fn run_instances<I>(&self, instances: I) -> Vec<InstanceResult>
    where
        I: IntoIterator<Item = ScenarioInstance>,
    {
        let instances: Vec<ScenarioInstance> = instances.into_iter().collect();
        // One job per miter: its instances' submission indices, in order.
        let mut miters: Vec<(SocConfig, SecretScenario, Vec<usize>)> = Vec::new();
        for (index, instance) in instances.iter().enumerate() {
            let (config, secret) = (instance.config(), instance.secret);
            match miters.iter_mut().find(|m| m.0 == config && m.1 == secret) {
                Some(miter) => miter.2.push(index),
                None => miters.push((config, secret, vec![index])),
            }
        }
        let workers = self.options.threads.min(miters.len()).max(1);
        let jobs: Mutex<VecDeque<Vec<usize>>> =
            Mutex::new(miters.into_iter().map(|m| m.2).collect());
        let results: Mutex<Vec<Option<InstanceResult>>> = Mutex::new(vec![None; instances.len()]);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = jobs.lock().expect(UNPOISONED).pop_front();
                    let Some(indices) = job else { break };
                    let members: Vec<ScenarioInstance> =
                        indices.iter().map(|&i| instances[i]).collect();
                    let scanned = self.scan_miter(&members);
                    let mut results = results.lock().expect(UNPOISONED);
                    for (index, result) in indices.into_iter().zip(scanned) {
                        results[index] = Some(result);
                    }
                });
            }
        });
        results
            .into_inner()
            .expect(UNPOISONED)
            .into_iter()
            .map(|r| r.expect("every miter job completes"))
            .collect()
    }

    /// Scans one instance with certificate production on: every decided
    /// bound's verdict is packaged as a [`VerdictCertificate`] (DRAT
    /// refutation for proven bounds, replayable witness for violated ones).
    ///
    /// Certificates are *produced*, not yet checked — call
    /// [`CertifiedResult::check_all`] (or each certificate's
    /// [`VerdictCertificate::check`]) to re-validate the verdicts
    /// independently of the solver. The scan is serial: certification is a
    /// per-verdict audit trail, not a throughput path, and a single
    /// incremental session keeps the proof log contiguous.
    ///
    /// The engine's window cap and bound budget are honored exactly like
    /// [`UpecEngine::run_instances`].
    pub fn check_certified(&self, instance: &ScenarioInstance) -> CertifiedResult {
        let model = instance.build_model();
        let commitment = instance.commitment_set(&model);
        let options = bmc::UnrollOptions::default()
            .with_budget(self.options.bound_budget)
            .with_proof_log();
        let mut session = IncrementalSession::with_options(&model, options);
        let mut bounds = Vec::new();
        for k in instance.start_window..=self.last_window(instance) {
            let (summary, certificate) = match session.check_bound_certified(k, &commitment) {
                Ok((outcome, certificate)) => (
                    BoundSummary::new(k, bound_status(&outcome), &outcome.stats()),
                    certificate,
                ),
                // An undecided bound has no verdict and therefore no
                // certificate; record it honestly and keep scanning — the
                // session stays valid.
                Err(EngineError::UncertifiableVerdict { stats, stop, .. }) => {
                    (BoundSummary::new(k, unknown_status(stop), &stats), None)
                }
                Err(e) => panic!("certified scan of {}: {e}", instance.id()),
            };
            bounds.push(CertifiedBound {
                summary,
                certificate,
            });
            if summary.status == BoundStatus::LAlert {
                break;
            }
        }
        let summaries: Vec<BoundSummary> = bounds.iter().map(|b| b.summary).collect();
        CertifiedResult {
            instance: *instance,
            verdict: verdict_from_bounds(&summaries),
            bounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn engine_matches_expectations_on_a_fast_subset() {
        // A cheap subset keeps the default suite fast on small machines; the
        // `#[ignore]`d instance sweep in `tests/scenario_instances.rs` covers
        // the whole registry.
        let instances = ["secure-uncached", "orc"].map(|id| scenarios::by_id(id).unwrap());
        let engine = UpecEngine::new(EngineOptions::new().with_threads(2).with_max_window(2));
        for result in engine.run_instances(instances) {
            assert!(
                result.matches_expectation(),
                "{}: expected {:?}, got {:?}\n{}",
                result.instance.id(),
                result.instance.expected,
                result.verdict,
                result.summary()
            );
        }
    }

    #[test]
    fn max_window_caps_the_scan() {
        let results = UpecEngine::new(EngineOptions::new().with_threads(1).with_max_window(1))
            .run_instances([scenarios::by_id("secure-uncached").unwrap()]);
        assert_eq!(results[0].bounds.len(), 1);
        assert_eq!(results[0].verdict, ScanVerdict::Secure);
    }

    /// A bound budget too small for any query leaves its bounds Unknown and
    /// the scan Inconclusive; a bound that does finish agrees with the
    /// unbudgeted scan.
    #[test]
    fn tiny_bound_budget_yields_unknown_bounds_not_wrong_verdicts() {
        // Capped at k=2: proven at k=1, L-alert at k=2.
        let mut instance = scenarios::instance_by_id("fuzz-orc-timing").unwrap();
        instance.max_window = 2;
        let clean = UpecEngine::new(EngineOptions::new().with_threads(1))
            .run_instances([instance])
            .remove(0);
        assert_eq!(clean.verdict, ScanVerdict::Insecure);
        let budgeted = UpecEngine::new(
            EngineOptions::new()
                .with_threads(1)
                .with_bound_budget(sat::Budget::conflicts(1)),
        )
        .run_instances([instance])
        .remove(0);
        assert_eq!(budgeted.verdict, ScanVerdict::Inconclusive);
        assert!(budgeted.first_alert.is_none(), "{}", budgeted.summary());
        assert!(budgeted.budget_exhaustions > 0);
        for (b, c) in budgeted.bounds.iter().zip(&clean.bounds) {
            assert_eq!(b.bound, c.bound);
            assert!(
                b.status == BoundStatus::Unknown || b.status == c.status,
                "k={}: budgeted {:?} vs clean {:?}",
                b.bound,
                b.status,
                c.status
            );
        }
    }

    /// Once the scenario budget is spent, the remaining bounds are recorded
    /// as Unknown without being encoded or solved.
    #[test]
    fn exhausted_scenario_budget_skips_the_remaining_bounds() {
        let instance = scenarios::instance_by_id("fuzz-orc-timing").unwrap();
        let result = UpecEngine::new(
            EngineOptions::new()
                .with_threads(1)
                .with_scenario_budget(sat::Budget::conflicts(1)),
        )
        .run_instances([instance])
        .remove(0);
        assert_eq!(result.verdict, ScanVerdict::Inconclusive);
        // The first bound that hits a conflict spends the whole budget.
        let spender = result
            .bounds
            .iter()
            .position(|b| b.conflicts > 0)
            .expect("a bound spends the budget");
        assert_eq!(result.bounds[spender].status, BoundStatus::Unknown);
        let skipped = &result.bounds[spender + 1..];
        assert!(!skipped.is_empty(), "{}", result.summary());
        for b in skipped {
            assert_eq!(b.status, BoundStatus::Unknown);
            assert_eq!((b.conflicts, b.variables, b.clauses), (0, 0, 0));
            assert_eq!(b.runtime, Duration::ZERO);
        }
    }
}
