//! The parallel scenario/bound scheduler built on incremental sessions.

use crate::certify::{CertificateCheck, CertificateError, VerdictCertificate};
use crate::engine::IncrementalSession;
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
}

impl EngineOptions {
    /// Defaults: all available cores (max 8), each scenario's own windows.
    pub fn new() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
            max_window: None,
        }
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
    /// No verdict: no bound was checked (the engine's window cap lies
    /// below the scenario's start window).
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

    /// Walks the instances of one miter on a single incremental session,
    /// opened with `options`.
    ///
    /// `members` share SoC config and secret placement and differ only by
    /// commitment and window range. The walk raises `k` from the lowest
    /// start window to the highest last window, and at each `k` checks, in
    /// submission order, every member whose range contains `k` and that has
    /// no L-alert yet. `k` never decreases, as
    /// [`IncrementalSession::check_bound`] requires. Each member's counters
    /// sum its own queries' [`crate::UpecStats`]. When `options` turn
    /// the proof log on, every bound also carries its certificate.
    fn scan_miter(
        &self,
        members: &[ScenarioInstance],
        options: bmc::UnrollOptions,
    ) -> Vec<MemberScan> {
        let mut miter_span = obs::span("upec.miter");
        let ids: Vec<String> = members.iter().map(ScenarioInstance::id).collect();
        miter_span.attr_str("members", &ids.join(","));
        let model = members[0].build_model();
        let mut session = IncrementalSession::with_options(&model, options);
        let mut scans: Vec<MemberScan> = members
            .iter()
            .map(|&instance| MemberScan {
                commitment: instance.commitment_set(&model),
                last_window: self.last_window(&instance),
                certificates: Vec::new(),
                result: InstanceResult {
                    instance,
                    verdict: ScanVerdict::Inconclusive,
                    first_alert: None,
                    bounds: Vec::new(),
                    conflicts: 0,
                    propagations: 0,
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
                let (outcome, certificate) = session
                    .try_check_bound(k, &scan.commitment)
                    .unwrap_or_else(|e| panic!("{}: {e}", result.instance.id()));
                let stats = outcome.stats();
                result.conflicts += stats.conflicts;
                result.propagations += stats.propagations;
                result
                    .bounds
                    .push(BoundSummary::new(k, bound_status(&outcome), &stats));
                scan.certificates.push(certificate);
                if let UpecOutcome::Violated(alert, _) = outcome {
                    result.first_alert.get_or_insert(alert);
                }
            }
        }
        for scan in &mut scans {
            scan.result.verdict = verdict_from_bounds(&scan.result.bounds);
        }
        scans
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
    /// Each bound's certificate, in `result.bounds` order (all `None` on a
    /// session without a proof log).
    certificates: Vec<Option<VerdictCertificate>>,
}

/// The status a bound's outcome records.
fn bound_status(outcome: &UpecOutcome) -> BoundStatus {
    match outcome {
        UpecOutcome::Proven(_) => BoundStatus::Proven,
        UpecOutcome::Violated(alert, _) => match alert.kind {
            AlertKind::PAlert => BoundStatus::PAlert,
            AlertKind::LAlert => BoundStatus::LAlert,
        },
        UpecOutcome::Unknown(_) => {
            unreachable!("an unbudgeted, uncancellable query always decides")
        }
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
    /// Total unit propagations of the scan's queries.
    pub propagations: u64,
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
/// verdict's proof artifact.
#[derive(Debug, Clone)]
pub struct CertifiedBound {
    /// The bound's outcome and effort counters.
    pub summary: BoundSummary,
    /// The bound's checkable certificate (present on every bound of a
    /// [`UpecEngine::check_certified`] scan).
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
            let (config, secret) = (instance.config, instance.secret);
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
                    let scanned = self.scan_miter(&members, bmc::UnrollOptions::default());
                    let mut results = results.lock().expect(UNPOISONED);
                    for (index, scan) in indices.into_iter().zip(scanned) {
                        results[index] = Some(scan.result);
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

    /// Scans one instance with certificate production on: every bound's
    /// verdict is packaged as a [`VerdictCertificate`] (DRAT refutation for
    /// proven bounds, replayable witness for violated ones).
    ///
    /// Certificates are *produced*, not yet checked — call
    /// [`CertifiedResult::check_all`] (or each certificate's
    /// [`VerdictCertificate::check`]) to re-validate the verdicts
    /// independently of the solver. The scan is the walk of
    /// [`UpecEngine::run_instances`] over this one instance, on a session
    /// opened with [`bmc::UnrollOptions::with_proof_log`]: the same queries,
    /// the same solver work, and the engine's window cap.
    pub fn check_certified(&self, instance: &ScenarioInstance) -> CertifiedResult {
        let options = bmc::UnrollOptions::default().with_proof_log();
        let scan = self
            .scan_miter(std::slice::from_ref(instance), options)
            .remove(0);
        CertifiedResult {
            instance: *instance,
            verdict: scan.result.verdict,
            bounds: scan
                .result
                .bounds
                .into_iter()
                .zip(scan.certificates)
                .map(|(summary, certificate)| CertifiedBound {
                    summary,
                    certificate,
                })
                .collect(),
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
        // `#[ignore]`d full-registry walk differential in
        // `tests/miter_walk_differential.rs` covers the whole registry.
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
}
