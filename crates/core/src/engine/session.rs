//! A persistent, incremental UPEC solving session: the one way to pose a
//! query. [`IncrementalSession::try_check_bound`] is the query core, and it
//! certifies every decided query exactly when the session was opened with a
//! proof log; [`IncrementalSession::check_bound`] is its panicking form.

use crate::certify::{UnsatCertificate, VerdictCertificate, WitnessCertificate};
use crate::engine::EngineError;
use crate::{Alert, AlertKind, RegisterPair, StateClass, UpecModel, UpecOutcome, UpecStats};
use bmc::{UnrollError, UnrollOptions, Unrolling};
use rtl::BitVec;
use sat::SatResult;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Why encoding a model's constraint or obligation signal cannot fail: a
/// [`UpecModel`] only comes from [`UpecModel::new`], which makes every such
/// signal a single-bit root of the model's compiled cone.
const SINGLE_BIT_ROOT: &str =
    "every constraint and obligation signal of a UpecModel is a single-bit root of its compiled cone";

/// An incremental UPEC checking session: one persistent solver shared by
/// every bound and commitment queried against the same miter.
///
/// The paper's methodology re-solves the UPEC property many times — at every
/// window length while deepening, and at every commitment while diagnosing
/// P-alerts. A session keeps the unrolled miter and the SAT solver alive
/// across all of those queries:
///
/// * deepening from bound `k` to `k+1` only bit-blasts the new frame
///   ([`bmc::Unrolling::extend_to`]), so the solver keeps its learned
///   clauses, variable activities and saved phases;
/// * each proof obligation ("some committed register pair differs at `t+k`")
///   is guarded by a fresh activation literal and retired after the query,
///   so obligations never pollute later queries.
///
/// The net effect — asserted by this module's tests — is that checking
/// bounds `1..=k` through one session costs measurably fewer conflicts and
/// propagations than `k` independent solve-from-scratch checks.
///
/// # Examples
///
/// ```
/// use soc::{SocConfig, SocVariant};
/// use upec::engine::IncrementalSession;
/// use upec::{full_commitment, SecretScenario, UpecModel};
///
/// let config = SocConfig::formal(SocVariant::Secure);
/// let model = UpecModel::new(&config, SecretScenario::NotInCache);
/// let mut session = IncrementalSession::new(&model);
/// let commitment = full_commitment(&model);
/// // Walk the bound upwards; the solver persists across iterations.
/// for k in 1..=2 {
///     assert!(session.check_bound(k, &commitment).is_proven());
/// }
/// ```
pub struct IncrementalSession<'m> {
    model: &'m UpecModel,
    unrolling: Unrolling,
    /// Highest frame whose window constraints have been asserted.
    constrained_through: usize,
}

impl<'m> IncrementalSession<'m> {
    /// Opens a session on a miter with the default [`UnrollOptions`].
    pub fn new(model: &'m UpecModel) -> Self {
        Self::with_options(model, UnrollOptions::default())
    }

    /// Opens a session with explicit [`UnrollOptions`]: a per-query
    /// [`sat::Budget`], the simplification trial cap, or DRAT proof logging
    /// (with which every decided query also returns its certificate; see
    /// [`IncrementalSession::try_check_bound`]). Every session starts from
    /// the symbolic state of paper Fig. 4: the two instances' non-memory
    /// registers share their frame-0 literals
    /// ([`UpecModel::frame0_aliases`]), and the model's initial and window
    /// constraints hold at frame 0.
    pub fn with_options(model: &'m UpecModel, options: UnrollOptions) -> Self {
        // Compile once per miter, clone per frame: every session shares the
        // model's pruned-and-hashed schedule.
        let mut unrolling = Unrolling::with_compiled(
            Arc::clone(model.compiled_transition()),
            options,
            &model.frame0_aliases(),
        );
        for constraint in model
            .initial_constraints()
            .iter()
            .chain(model.window_constraints())
        {
            unrolling
                .assume_signal_true(0, constraint.signal)
                .expect(SINGLE_BIT_ROOT);
        }
        Self {
            model,
            unrolling,
            constrained_through: 0,
        }
    }

    /// Replaces the deterministic per-query conflict budget (see
    /// [`sat::Budget`]). The budget covers each subsequent query as a whole;
    /// an exhausted query answers [`UpecOutcome::Unknown`] with
    /// [`UpecStats::stop`] reporting [`sat::StopCause::BudgetExhausted`],
    /// and the session stays resumable — re-checking the same bound under a
    /// larger budget continues from the accumulated solver state.
    pub fn set_budget(&mut self, budget: sat::Budget) {
        self.unrolling.set_budget(budget);
    }

    /// Installs (or removes) a cooperative [`sat::CancelToken`]: raising it
    /// from another thread aborts the in-flight query with
    /// [`UpecOutcome::Unknown`] at the next solver restart boundary, without
    /// poisoning the session.
    pub fn set_cancel_token(&mut self, token: Option<sat::CancelToken>) {
        self.unrolling.set_cancel_token(token);
    }

    /// Arms a one-shot deterministic fault on the session's solver (see
    /// [`sat::Solver::inject_fault`]). Compiled only under the `faults`
    /// feature.
    #[cfg(feature = "faults")]
    pub fn inject_fault(&mut self, plan: Option<sat::faults::FaultPlan>) {
        self.unrolling.inject_fault(plan);
    }

    /// Counters of the CNF simplification pipeline (variables eliminated,
    /// clauses subsumed, …; all zero until a query exhausted its
    /// [`UnrollOptions::simplify_trial_conflicts`] trial). See
    /// [`sat::SimplifyStats`].
    pub fn simplify_stats(&self) -> sat::SimplifyStats {
        self.unrolling.solver().simplify_stats()
    }

    /// The panicking form of [`IncrementalSession::try_check_bound`]: the
    /// same query, returning only its outcome.
    ///
    /// # Panics
    ///
    /// Panics where [`IncrementalSession::try_check_bound`] returns an
    /// error: a malformed commitment, or a window below the session's
    /// deepest.
    pub fn check_bound(&mut self, k: usize, commitment: &BTreeSet<String>) -> UpecOutcome {
        match self.try_check_bound(k, commitment) {
            Ok((outcome, _)) => outcome,
            Err(e) => panic!("{e}"),
        }
    }

    /// Checks the UPEC interval property (paper Fig. 4) at bound `k` with
    /// the obligation restricted to `commitment`, reusing all solver state
    /// from earlier queries. Pairs outside the commitment may freely differ
    /// at `t+k` — this is how the methodology tolerates already-diagnosed
    /// P-alerts. Memory-class pairs are never part of the obligation. A
    /// counterexample is an L-alert when an architectural register differs,
    /// a P-alert otherwise.
    ///
    /// On a session opened with [`UnrollOptions::with_proof_log`], a decided
    /// query also returns its independently checkable
    /// [`VerdictCertificate`]:
    ///
    /// * [`UpecOutcome::Proven`] ⇒ the session's DRAT proof log, trimmed to
    ///   the lemmas this query's refutation actually uses, keyed by the
    ///   query's activation-literal assumption;
    /// * [`UpecOutcome::Violated`] ⇒ the SAT witness decoded into a concrete
    ///   per-cycle [`sim::WitnessTrace`] plus the divergences it must
    ///   reproduce.
    ///
    /// An undecided query — budget exhausted or cancelled — answers
    /// [`UpecOutcome::Unknown`] with its stop cause in [`UpecStats::stop`]
    /// and never carries a certificate; the session stays valid and the
    /// bound may be re-checked under a larger budget. Without a proof log,
    /// no query carries a certificate.
    ///
    /// `k` must not decrease over a session's queries. The model's window
    /// constraints are asserted as permanent units on frames `1..=k` the
    /// first time a query reaches `k`, so they are exactly the constraints a
    /// query at the session's deepest bound needs; a later query at a
    /// smaller bound would be posed under constraints on frames it never
    /// asked for, which can only hide counterexamples. Repeating a bound
    /// (another commitment, a larger budget) is fine, and
    /// [`crate::UpecEngine::run_instances`] walks each miter's instances
    /// with `k` non-decreasing.
    ///
    /// # Errors
    ///
    /// [`EngineError::UnknownRegister`] / [`EngineError::EmptyCommitment`]
    /// for a malformed commitment, and [`EngineError::WindowBelowSession`]
    /// for a `k` below the deepest window the session has constrained. Both
    /// are rejected before anything is encoded, so the session stays as it
    /// was.
    pub fn try_check_bound(
        &mut self,
        k: usize,
        commitment: &BTreeSet<String>,
    ) -> Result<(UpecOutcome, Option<VerdictCertificate>), EngineError> {
        if k < self.constrained_through {
            return Err(EngineError::WindowBelowSession {
                window: k,
                deepest: self.constrained_through,
            });
        }
        if let Some(name) = commitment.iter().find(|n| self.model.pair(n).is_none()) {
            return Err(EngineError::UnknownRegister { name: name.clone() });
        }
        let committed: Vec<&RegisterPair> = self
            .model
            .pairs()
            .iter()
            .filter(|p| p.class != StateClass::Memory && commitment.contains(&p.name))
            .collect();
        if committed.is_empty() {
            return Err(EngineError::EmptyCommitment);
        }

        let start = Instant::now();
        let mut query_span = obs::span("upec.check_bound");
        query_span.attr_u64("window", k as u64);
        let stats_before = self.unrolling.solver().stats();
        let mut encode_span = obs::span("bmc.encode");
        let slots_before = self.unrolling.encoded_slots();
        self.unrolling.extend_to(k);
        while self.constrained_through < k {
            self.constrained_through += 1;
            let frame = self.constrained_through;
            for constraint in self.model.window_constraints() {
                self.unrolling
                    .assume_signal_true(frame, constraint.signal)
                    .expect(SINGLE_BIT_ROOT);
            }
        }
        let obligation: Vec<sat::Lit> = committed
            .iter()
            .map(|p| self.unrolling.bit_lit(k, p.equal).expect(SINGLE_BIT_ROOT))
            .collect();
        let activation = self.unrolling.fresh_lit();
        self.unrolling
            .add_clause_activated(activation, obligation.iter().map(|&l| !l));
        let encoded_slots = self.unrolling.encoded_slots() - slots_before;
        encode_span.attr_u64("encoded_slots", encoded_slots as u64);
        drop(encode_span);

        let result = self.unrolling.solve(&[activation]);
        let solver = self.unrolling.solver();
        let delta = solver.stats().delta_since(&stats_before);
        let stats = UpecStats {
            variables: solver.num_vars(),
            clauses: solver.num_clauses(),
            conflicts: delta.conflicts,
            propagations: delta.propagations,
            restarts: delta.restarts,
            arena_collections: delta.arena_collections,
            runtime: start.elapsed(),
            window: k,
            stop: solver.last_stop(),
        };

        let (outcome, certificate) = match result {
            SatResult::Unsat => {
                // Snapshot and trim *before* the activation literal is
                // retired: the retirement unit `!activation` would join the
                // axiom set and trivialize the refutation of a query that
                // assumes `activation`. Trimming runs after `stats.runtime`
                // was taken: its time is inside this query's span but
                // outside `UpecStats`.
                let certificate = self.unrolling.solver().proof_log().map(|log| {
                    let mut trim_span = obs::span("cert.trim");
                    trim_span.attr_u64("events", log.num_events() as u64);
                    let proof = sat::drat::trim(log, &[activation])
                        .expect("an unsat verdict must replay through the DRAT checker");
                    trim_span.attr_u64("kept_events", proof.num_events() as u64);
                    VerdictCertificate::Proof(UnsatCertificate {
                        window: k,
                        proof,
                        assumptions: vec![activation],
                    })
                });
                (UpecOutcome::Proven(stats), certificate)
            }
            SatResult::Unknown => (UpecOutcome::Unknown(stats), None),
            SatResult::Sat(sat_model) => {
                let mut arch = Vec::new();
                let mut micro = Vec::new();
                let mut values = Vec::new();
                for pair in &committed {
                    let v1 = self
                        .unrolling
                        .value_in_model(&sat_model, k, pair.signal1)
                        .expect("frame exists");
                    let v2 = self
                        .unrolling
                        .value_in_model(&sat_model, k, pair.signal2)
                        .expect("frame exists");
                    if v1 != v2 {
                        match pair.class {
                            StateClass::Architectural => arch.push(pair.name.clone()),
                            StateClass::Microarchitectural => micro.push(pair.name.clone()),
                            StateClass::Memory => {}
                        }
                        values.push((pair.name.clone(), v1, v2));
                    }
                }
                let kind = if arch.is_empty() {
                    AlertKind::PAlert
                } else {
                    AlertKind::LAlert
                };
                let certificate = self.unrolling.solver().proof_log().is_some().then(|| {
                    VerdictCertificate::Witness(WitnessCertificate {
                        window: k,
                        trace: self.decode_witness(&sat_model, k),
                        expected_divergences: values.clone(),
                    })
                });
                let alert = Alert {
                    kind,
                    window: k,
                    architectural_differences: arch,
                    microarchitectural_differences: micro,
                    differing_values: values,
                };
                (UpecOutcome::Violated(alert, stats), certificate)
            }
        };
        self.unrolling.retire_activation(activation);
        query_span.attr_str("verdict", outcome.verdict_name());
        query_span.attr_u64("conflicts", delta.conflicts);
        query_span.attr_u64("propagations", delta.propagations);
        query_span.attr_u64("restarts", delta.restarts);
        query_span.attr_u64("arena_collections", delta.arena_collections);
        Ok((outcome, certificate))
    }

    /// Decodes a SAT witness into a self-contained, name-based stimulus: the
    /// frame-0 value of every register plus every primary input's value in
    /// frames `0..=k`.
    ///
    /// Decoding goes through [`sat::Model`], which the solver has already
    /// extended over variables the CNF simplifier eliminated — the
    /// frozen-variable contract guarantees the unrolling's own literals are
    /// never eliminated, and eliminated auxiliary variables get consistent
    /// extension values. Signals the query never encoded (outside the cone
    /// of every constraint and obligation) are unconstrained; they default
    /// to zero, which cannot affect the violated property.
    fn decode_witness(&self, model: &sat::Model, k: usize) -> sim::WitnessTrace {
        let netlist = self.model.netlist();
        let unconstrained = |e: &UnrollError| {
            matches!(
                e,
                UnrollError::NotInSchedule { .. } | UnrollError::NotEncoded { .. }
            )
        };
        let mut initial_registers = Vec::with_capacity(netlist.register_count());
        for info in netlist.registers() {
            let value = match self.unrolling.value_in_model(model, 0, info.signal) {
                Ok(v) => v,
                Err(ref e) if unconstrained(e) => BitVec::zero(info.width),
                Err(e) => panic!("register `{}` undecodable at frame 0: {e}", info.name),
            };
            initial_registers.push((info.name.clone(), value));
        }
        let mut inputs = Vec::with_capacity(k + 1);
        for frame in 0..=k {
            let mut bindings = Vec::new();
            for &signal in netlist.inputs() {
                let rtl::Node::Input { name, width } = netlist.node(signal) else {
                    unreachable!("the input list holds input nodes");
                };
                let value = match self.unrolling.value_in_model(model, frame, signal) {
                    Ok(v) => v,
                    Err(ref e) if unconstrained(e) => BitVec::zero(*width),
                    Err(e) => panic!("input `{name}` undecodable at frame {frame}: {e}"),
                };
                bindings.push((name.clone(), value));
            }
            inputs.push(bindings);
        }
        sim::WitnessTrace {
            initial_registers,
            inputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{architectural_commitment, full_commitment, SecretScenario};
    use soc::{SocConfig, SocVariant};

    /// The acceptance check of the incremental engine: walking bounds `1..=k`
    /// through one session must spend measurably fewer conflicts and
    /// propagations than `k` independent solve-from-scratch checks of the
    /// same bounds.
    ///
    /// Both sides solve plainly (a trial cap no query reaches, so the CNF
    /// simplifier never runs), so the comparison isolates the
    /// incremental-reuse property this test pins: the CNF simplifier
    /// perturbs conflict counts in both directions (probing propagations,
    /// resolvent clauses), which would turn the comparison into a test of
    /// the simplifier's mood rather than of state reuse. The simplified
    /// path's own regression is `simplified_walk_matches_fresh_solves`.
    #[test]
    fn incremental_walk_beats_independent_solves() {
        // The Meltdown-style miter produces a P-alert at every bound, so each
        // bound's query does real search work whose learned clauses the next
        // bound can reuse. (A walk whose early bounds close by propagation
        // alone would teach the solver nothing and the comparison would tie.)
        let model = UpecModel::new(
            &SocConfig::formal(SocVariant::MeltdownStyle),
            SecretScenario::InCache,
        );
        let commitment = full_commitment(&model);
        let options = UnrollOptions::default().with_simplify_trial(u64::MAX);
        let max_k = 3;

        // k independent from-scratch solves.
        let mut scratch_conflicts = 0u64;
        let mut scratch_propagations = 0u64;
        for k in 1..=max_k {
            let mut session = IncrementalSession::with_options(&model, options);
            let outcome = session.check_bound(k, &commitment);
            assert!(outcome.alert().is_some(), "k={k}: {outcome:?}");
            scratch_conflicts += outcome.stats().conflicts;
            scratch_propagations += outcome.stats().propagations;
        }

        // One incremental session over the same bounds.
        let mut session = IncrementalSession::with_options(&model, options);
        let (mut conflicts, mut propagations) = (0u64, 0u64);
        for k in 1..=max_k {
            let outcome = session.check_bound(k, &commitment);
            assert!(outcome.alert().is_some(), "k={k}: {outcome:?}");
            conflicts += outcome.stats().conflicts;
            propagations += outcome.stats().propagations;
        }

        assert!(
            conflicts < scratch_conflicts && propagations < scratch_propagations,
            "incremental session must be cheaper: {conflicts} vs {scratch_conflicts} conflicts, \
             {propagations} vs {scratch_propagations} propagations",
        );
    }

    /// Regression for the simplifier's frozen-variable contract: with CNF
    /// simplification on (the default), a session extended bound-by-bound
    /// must answer exactly like fresh per-bound sessions that solve plainly
    /// (a trial cap no query reaches). A frame-boundary or trace-extraction
    /// variable wrongly eliminated between bounds would panic or flip a
    /// verdict here.
    #[test]
    fn simplified_walk_matches_fresh_solves() {
        let model = UpecModel::new(&SocConfig::formal(SocVariant::Orc), SecretScenario::InCache);
        let commitment = architectural_commitment(&model);
        // Orc with the architectural obligation is proven at k=1 and
        // L-alerts at k=2, covering both outcome paths. A zero trial budget
        // makes the adaptive trigger run the pipeline before any query that
        // hits a conflict, so this test always exercises the simplifier.
        let mut walked = IncrementalSession::with_options(
            &model,
            UnrollOptions::default().with_simplify_trial(0),
        );
        for k in 1..=2 {
            let walked_outcome = walked.check_bound(k, &commitment);
            let plain = UnrollOptions::default().with_simplify_trial(u64::MAX);
            let mut fresh = IncrementalSession::with_options(&model, plain);
            let fresh_outcome = fresh.check_bound(k, &commitment);
            assert_eq!(
                walked_outcome.is_proven(),
                fresh_outcome.is_proven(),
                "verdict mismatch at k={k}: walked={walked_outcome:?} fresh={fresh_outcome:?}"
            );
            match (walked_outcome.alert(), fresh_outcome.alert()) {
                (Some(a), Some(b)) => assert_eq!(a.kind, b.kind, "alert kind at k={k}"),
                (None, None) => {}
                (a, b) => panic!("k={k}: alert presence mismatch: {a:?} vs {b:?}"),
            }
        }
        assert!(
            walked.simplify_stats().eliminated_vars > 0,
            "the simplifier must actually have run in the walked session"
        );
    }

    // Commitment shrinking mid-session (the methodology's P-alert diagnosis
    // loop) is exercised end to end by the `methodology` module's tests:
    // `run_methodology` drives its whole iteration through one session.
}
