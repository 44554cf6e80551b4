//! The parallel scenario/bound scheduler built on incremental sessions.

use crate::certify::{CertificateCheck, CertificateError, VerdictCertificate};
use crate::engine::{EngineError, IncrementalSession, SharedClausePool};
use crate::scenarios::{Expectation, ScenarioInstance};
use crate::{Alert, AlertKind, UpecModel, UpecOptions, UpecOutcome, UpecStats};
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
    /// Exchange transition-tainted learned clauses between the sweep's
    /// sessions through a [`SharedClausePool`] (only
    /// [`UpecEngine::run_instances`] shares; certified scans never do).
    /// Defaults to on; the differential tests pin that disabling it does not
    /// change any verdict.
    pub share_clauses: bool,
}

impl EngineOptions {
    /// Defaults: all available cores (max 8), no limits, clause sharing on.
    pub fn new() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            max_window: None,
            bound_budget: sat::Budget::unlimited(),
            scenario_budget: sat::Budget::unlimited(),
            share_clauses: true,
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

    /// Enables or disables cross-session learned-clause sharing in
    /// [`UpecEngine::run_instances`] (builder style).
    pub fn with_clause_sharing(mut self, share: bool) -> Self {
        self.share_clauses = share;
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
/// [`crate::scenarios::instances`], or a registry spec wrapped with
/// [`ScenarioInstance::base`]) and scans each instance's window range on a
/// pool of worker threads, one instance per worker at a time. Every scan is
/// an [`IncrementalSession`]: one persistent SAT solver that walks the
/// bounds, reusing learned clauses and activities between bounds instead of
/// re-solving from scratch.
///
/// # Examples
///
/// The quick proof below runs in a couple of seconds; sweeping the full
/// registry is the `cargo run -p bench --bin engine` entry point.
///
/// ```
/// use upec::scenarios::{self, ScenarioInstance};
/// use upec::{EngineOptions, ScanVerdict, UpecEngine};
///
/// let engine = UpecEngine::new(EngineOptions::new().with_threads(2).with_max_window(1));
/// let spec = scenarios::by_id("secure-uncached").unwrap();
/// let results = engine.run_instances([ScenarioInstance::base(spec)]);
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

    /// The per-bound scan loop: walks one instance's window range on a fresh
    /// incremental session.
    ///
    /// With a `pool`, the loop exchanges transition-tainted learned clauses
    /// with sibling sessions of the same fingerprint: before each bound it
    /// imports pool clauses whose frame ceiling the session has already
    /// encoded, after each bound it publishes its own fresh exportables.
    fn scan_bounds(
        &self,
        instance: ScenarioInstance,
        model: &UpecModel,
        commitment: &BTreeSet<String>,
        pool: Option<&SharedClausePool>,
    ) -> InstanceResult {
        let mut scenario_span = obs::span("upec.scenario");
        scenario_span.attr_str("id", &instance.id());
        let mut session = IncrementalSession::new(model);
        let fingerprint = session.share_fingerprint();
        let mut share_cursor = 0usize;
        // Fetched clauses over frames deeper than the session's current
        // bound wait here; the importer itself skips anything the session
        // still cannot express (frame-tag filtering, see
        // [`IncrementalSession::import_shared`]).
        let mut share_pending: Vec<bmc::SharedClause> = Vec::new();
        let mut export_buf: Vec<bmc::SharedClause> = Vec::new();
        let scan_start = session.solver_stats();
        let mut bounds = Vec::new();
        let mut first_alert: Option<Alert> = None;
        for k in instance.start_window..=self.last_window(&instance) {
            // Budget policy: each bound runs under its own budget intersected
            // with whatever the scenario budget has left; once the scan's
            // allotment is spent, remaining bounds are recorded as Unknown
            // without even encoding them. The scan never invents a verdict.
            let scenario_left = self
                .options
                .scenario_budget
                .minus(&session.solver_stats().delta_since(&scan_start));
            if scenario_left.is_exhausted() {
                obs::counter("upec.scan.budget_skipped_bounds", 1);
                bounds.push(BoundSummary::new(
                    k,
                    BoundStatus::Unknown,
                    &UpecStats::default(),
                ));
                continue;
            }
            session.set_budget(self.options.bound_budget.min(scenario_left));
            if let Some(pool) = pool {
                let (batch, next) = pool.fetch(fingerprint, share_cursor);
                share_cursor = next;
                share_pending.extend(batch);
                // Only clauses whose deepest frame the session has encoded
                // (bounds up to k-1 so far) can be expressed right now.
                let (eligible, rest): (Vec<_>, Vec<_>) = share_pending
                    .drain(..)
                    .partition(|c| (c.ceiling as usize) < k);
                share_pending = rest;
                if !eligible.is_empty() {
                    session.import_shared(&eligible);
                }
            }
            let outcome = session.check_bound(k, commitment);
            let summary = BoundSummary::new(k, bound_status(&outcome), &outcome.stats());
            if let UpecOutcome::Violated(alert, _) = outcome {
                first_alert.get_or_insert(alert);
            }
            if let Some(pool) = pool {
                session.export_shared(&mut export_buf);
                if !export_buf.is_empty() {
                    pool.publish(fingerprint, std::mem::take(&mut export_buf));
                }
            }
            bounds.push(summary);
            if summary.status == BoundStatus::LAlert {
                break;
            }
        }
        let stats = session.solver_stats();
        InstanceResult {
            instance,
            verdict: verdict_from_bounds(&bounds),
            first_alert,
            bounds,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            budget_exhaustions: stats.budget_exhaustions,
            cancellations: stats.cancellations,
        }
    }
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
    /// Scans every [`ScenarioInstance`] on the worker pool (one incremental
    /// session per instance) and returns the results in submission order.
    ///
    /// This is the engine's one scan entry point: instances carry their own
    /// geometry, window range and expectation, and a registry spec scans at
    /// the default formal geometry as [`ScenarioInstance::base`].
    ///
    /// Unless [`EngineOptions::with_clause_sharing`] disabled it, the
    /// sweep's sessions exchange transition-tainted learned clauses through
    /// a [`SharedClausePool`]: instances whose miters share a transition
    /// fingerprint (same geometry and frame-0 aliasing) reuse each other's
    /// purely-definitional lemmas instead of re-deriving them. Sharing is
    /// verdict-neutral by construction — the differential tests pin it.
    pub fn run_instances<I>(&self, instances: I) -> Vec<InstanceResult>
    where
        I: IntoIterator<Item = ScenarioInstance>,
    {
        let instances: Vec<ScenarioInstance> = instances.into_iter().collect();
        let jobs: Mutex<VecDeque<usize>> = Mutex::new((0..instances.len()).collect());
        let results: Mutex<Vec<Option<InstanceResult>>> =
            Mutex::new(instances.iter().map(|_| None).collect());
        let pool = self.options.share_clauses.then(SharedClausePool::new);
        let workers = self.options.threads.min(instances.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = jobs.lock().unwrap().pop_front();
                    let Some(index) = index else { break };
                    let instance = instances[index];
                    let model = instance.build_model();
                    let commitment = instance.commitment_set(&model);
                    let result = self.scan_bounds(instance, &model, &commitment, pool.as_ref());
                    results.lock().unwrap()[index] = Some(result);
                });
            }
        });
        results
            .into_inner()
            .unwrap()
            .into_iter()
            .map(|r| r.expect("every instance job completes"))
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
        let options = UpecOptions::window(0)
            .with_budget(self.options.bound_budget)
            .with_certificates();
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

    fn base(id: &str) -> ScenarioInstance {
        ScenarioInstance::base(scenarios::by_id(id).unwrap())
    }

    #[test]
    fn engine_matches_expectations_on_a_fast_subset() {
        // A cheap subset keeps the default suite fast on small machines; the
        // `#[ignore]`d instance sweep in `tests/scenario_instances.rs` covers
        // the whole registry.
        let instances = [base("secure-uncached"), base("orc")];
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
            .run_instances([base("secure-uncached")]);
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
