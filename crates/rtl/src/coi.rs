//! Cone-of-influence analysis over a [`Netlist`].
//!
//! The cone of influence (COI) of a set of *root* signals is the smallest set
//! of signals that can affect any root in any number of clock cycles: it is
//! closed under combinational operands and, for every register whose value is
//! in the cone, additionally contains the register's next-state expression
//! (the sequential feedback). Everything outside the cone is provably
//! irrelevant to any property phrased over the roots, so a bit-blaster can
//! drop it from every time frame without changing satisfiability.
//!
//! The `bmc` crate's transition-relation compiler uses this analysis to prune
//! the unrolled UPEC miter before Tseitin encoding; the [`CoiStats`] it
//! reports are attributes of the `rtl.coi` telemetry span.

use crate::{Netlist, Node, SignalId};

/// Result of a cone-of-influence computation: a per-signal membership mask
/// plus summary counts.
///
/// # Examples
///
/// ```
/// use rtl::{Coi, Netlist};
///
/// let mut n = Netlist::new("two_counters");
/// let live = n.register("live", 4);
/// let dead = n.register("dead", 4);
/// let one = n.lit(1, 4);
/// let live_next = n.add(live.value(), one);
/// let dead_next = n.add(dead.value(), one);
/// n.set_next(live, live_next);
/// n.set_next(dead, dead_next);
/// n.output("live", live.value());
///
/// // Only `live` and its increment logic can influence the output root.
/// let coi = Coi::of(&n, [live.value()]);
/// assert!(coi.contains(live.value()));
/// assert!(!coi.contains(dead.value()));
/// assert_eq!(coi.stats().cone_registers, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Coi {
    in_cone: Vec<bool>,
    stats: CoiStats,
}

/// Summary counts of a cone-of-influence computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoiStats {
    /// Signals in the netlist.
    pub total_signals: usize,
    /// Signals inside the cone.
    pub cone_signals: usize,
    /// Registers in the netlist.
    pub total_registers: usize,
    /// Registers whose value is inside the cone.
    pub cone_registers: usize,
}

impl CoiStats {
    /// Fraction of signals *removed* by the pruning, in percent.
    pub fn signal_reduction_percent(&self) -> f64 {
        if self.total_signals == 0 {
            return 0.0;
        }
        100.0 * (self.total_signals - self.cone_signals) as f64 / self.total_signals as f64
    }
}

impl Coi {
    /// Computes the cone of influence of `roots`.
    ///
    /// The closure walks combinational operands and follows every in-cone
    /// register to its next-state expression until a fixpoint is reached.
    /// Signals never reaching a root — including whole registers and their
    /// feedback logic — stay outside.
    pub fn of<I>(netlist: &Netlist, roots: I) -> Self
    where
        I: IntoIterator<Item = SignalId>,
    {
        let mut span = obs::span("rtl.coi");
        let mut in_cone = vec![false; netlist.len()];
        let mut stack: Vec<SignalId> = Vec::new();
        for root in roots {
            if !in_cone[root.index()] {
                in_cone[root.index()] = true;
                stack.push(root);
            }
        }
        while let Some(id) = stack.pop() {
            let node = netlist.node(id);
            for operand in node.operands() {
                if !in_cone[operand.index()] {
                    in_cone[operand.index()] = true;
                    stack.push(operand);
                }
            }
            if let Node::Register { register, .. } = node {
                let info = &netlist.registers()[register.index()];
                if let Some(next) = info.next {
                    if !in_cone[next.index()] {
                        in_cone[next.index()] = true;
                        stack.push(next);
                    }
                }
            }
        }

        let cone_signals = in_cone.iter().filter(|&&b| b).count();
        let cone_registers = netlist
            .registers()
            .iter()
            .filter(|info| in_cone[info.signal.index()])
            .count();
        let stats = CoiStats {
            total_signals: netlist.len(),
            cone_signals,
            total_registers: netlist.register_count(),
            cone_registers,
        };
        span.attr_u64("total_signals", stats.total_signals as u64);
        span.attr_u64("cone_signals", stats.cone_signals as u64);
        span.attr_u64("total_registers", stats.total_registers as u64);
        span.attr_u64("cone_registers", stats.cone_registers as u64);
        Self { in_cone, stats }
    }

    /// Whether a signal belongs to the cone.
    pub fn contains(&self, id: SignalId) -> bool {
        self.in_cone[id.index()]
    }

    /// Summary counts.
    pub fn stats(&self) -> CoiStats {
        self.stats
    }

    /// Iterates over the in-cone signals in creation (= topological) order.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        self.in_cone
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| SignalId::from_index(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitVec;

    /// A design with a live counter (feeding the root), a dead counter and a
    /// register that feeds the live one only through its next-state.
    fn layered() -> (Netlist, SignalId, SignalId, SignalId) {
        let mut n = Netlist::new("layered");
        let seed = n.register_init("seed", 4, BitVec::zero(4));
        let live = n.register("live", 4);
        let dead = n.register("dead", 4);
        let live_next = n.add(live.value(), seed.value());
        let one = n.lit(1, 4);
        let dead_next = n.add(dead.value(), one);
        let seed_next = n.xor(seed.value(), one);
        n.set_next(live, live_next);
        n.set_next(dead, dead_next);
        n.set_next(seed, seed_next);
        n.output("live", live.value());
        (n, live.value(), dead.value(), seed.value())
    }

    #[test]
    fn cone_follows_register_feedback() {
        let (n, live, dead, seed) = layered();
        let coi = Coi::of(&n, [live]);
        assert!(coi.contains(live));
        // `seed` only matters through `live`'s next-state function, which the
        // sequential closure must pull in.
        assert!(coi.contains(seed));
        assert!(!coi.contains(dead));
        let stats = coi.stats();
        assert_eq!(stats.total_registers, 3);
        assert_eq!(stats.cone_registers, 2);
        assert!(stats.cone_signals < stats.total_signals);
        assert!(stats.signal_reduction_percent() > 0.0);
    }

    #[test]
    fn empty_roots_empty_cone_and_full_roots_full_cone() {
        let (n, live, dead, seed) = layered();
        let empty = Coi::of(&n, []);
        assert_eq!(empty.stats().cone_signals, 0);
        assert_eq!(empty.signals().count(), 0);
        let full = Coi::of(&n, [live, dead, seed]);
        // Everything feeds one of the three registers here except nothing:
        // the cone closure reaches every signal of this particular design.
        assert_eq!(full.stats().cone_signals, n.len());
    }

    #[test]
    fn signals_iterate_in_topological_order() {
        let (n, live, _, _) = layered();
        let coi = Coi::of(&n, [live]);
        let ids: Vec<usize> = coi.signals().map(|s| s.index()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }
}
