//! Deterministic fault injection for robustness testing.
//!
//! This module is compiled only for `sat`'s own unit tests and under the
//! opt-in `faults` cargo feature — it is never part of a release build. A
//! [`FaultPlan`] armed with [`Solver::inject_fault`](crate::Solver) makes
//! the solver stop one episode exactly as if a real resource-exhaustion or
//! cancellation condition had occurred at a SplitMix64-chosen point, and
//! then disarms itself. The differential suites use this to prove the
//! robustness contract: an injected run either resumes to the exact
//! uninterrupted verdict or honestly reports
//! [`SatResult::Unknown`](crate::SatResult) — never a wrong verdict, a
//! panic or a poisoned session. Usage is documented in
//! `docs/robustness.md`.

/// Which stop condition an injected fault emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An exhausted [`Budget`](crate::Budget): fires at a conflict
    /// checkpoint and stops with
    /// [`StopCause::BudgetExhausted`](crate::StopCause).
    BudgetExhaustion,
    /// An external cancellation observed at a restart boundary — the poll
    /// point of a real [`CancelToken`](crate::CancelToken). Stops with
    /// [`StopCause::Cancelled`](crate::StopCause).
    SpuriousCancellation,
    /// A cancellation landing in the middle of a search episode: fires at
    /// a conflict checkpoint *between* restart boundaries, exercising the
    /// stop path at its least convenient moment. Stops with
    /// [`StopCause::Cancelled`](crate::StopCause).
    MidSliceAbort,
}

/// A one-shot injected fault.
///
/// At the first checkpoint of the matching kind once the episode has spent
/// at least [`FaultPlan::after_conflicts`] conflicts, the solver stops
/// exactly as if the emulated condition were real — same counters, same
/// [`StopCause`](crate::StopCause), same `Unknown` answer — and the plan
/// disarms itself, so the next episode resumes unperturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Which stop condition to emulate.
    pub kind: FaultKind,
    /// Episode conflict count at which the fault arms.
    pub after_conflicts: u64,
}

impl FaultPlan {
    /// Derives a plan deterministically from a seed: SplitMix64 picks both
    /// the fault kind and an injection point in `0..horizon` conflicts
    /// (point 0 when `horizon` is 0). Fuzzing seeds therefore enumerate
    /// reproducible fault schedules.
    pub fn from_seed(seed: u64, horizon: u64) -> Self {
        let mut state = seed;
        let kind = match splitmix64(&mut state) % 3 {
            0 => FaultKind::BudgetExhaustion,
            1 => FaultKind::SpuriousCancellation,
            _ => FaultKind::MidSliceAbort,
        };
        let after_conflicts = if horizon == 0 {
            0
        } else {
            splitmix64(&mut state) % horizon
        };
        Self {
            kind,
            after_conflicts,
        }
    }
}

/// One SplitMix64 step (the same generator as `rtl::SplitMix64`,
/// re-implemented here because `sat` depends on no other workspace crate).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed, 100);
            let b = FaultPlan::from_seed(seed, 100);
            assert_eq!(a, b);
            assert!(a.after_conflicts < 100);
        }
    }

    #[test]
    fn seeds_cover_every_fault_kind() {
        let kinds: std::collections::BTreeSet<u8> = (0..32u64)
            .map(|s| FaultPlan::from_seed(s, 10).kind as u8)
            .collect();
        assert_eq!(kinds.len(), 3, "32 seeds must hit all three kinds");
    }

    #[test]
    fn zero_horizon_pins_the_injection_point_to_zero() {
        assert_eq!(FaultPlan::from_seed(7, 0).after_conflicts, 0);
    }
}
