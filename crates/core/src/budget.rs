//! Search budgets: wall-clock deadlines and work caps with labeled
//! partial results.
//!
//! A [`SearchBudget`] bounds one `SearchEngine::search` call two ways:
//!
//! * **`deadline`** — a wall-clock allowance measured from the moment
//!   the search starts executing;
//! * **`max_expansions`** — a cap on the algorithm's own work counter:
//!   DFS descents for every two-keyword answer (Paths, and DISCOVER with
//!   at most two keywords) and candidate network materializations for
//!   DISCOVER with three or more (the same figure
//!   `SearchStats::expansions` reports), raw per-set frontier settles
//!   for BANKS (the `BanksWork::expansions` figure — finer-grained than
//!   the candidate count `SearchStats::expansions` reports there).
//!
//! Both are cooperative: the pipelines probe the budget at their
//! existing expansion-counting sites, so exhaustion stops enumeration
//! at the next probe, ranks what was found, and labels the output via
//! [`SearchStats::completeness`](crate::SearchStats#structfield.completeness)
//! — it never aborts, never panics, never poisons the engine.
//!
//! Every search owns one [`Budget`] and probes it at each expansion it
//! counts, across all of its levels, so a cap `c` is exact: the search
//! stops at the expansion that reaches `c`, and reports at most `c`.
//! Between wall-clock polls and short of the cap a probe is one integer
//! comparison, which is all the unlimited budget (the default) ever
//! costs. Each probe follows the expansion it counts, and one more
//! precedes the first, so a budget spent before any (a cap of 0, an
//! expired deadline) runs none: the answer is the tuples that match
//! every keyword, cut to the certified prefix. Deadlines poll
//! `Instant::now()` at most once per [`TIME_STRIDE`] expansions.

use crate::stats::TruncationReason;
use std::time::{Duration, Instant};

/// How many expansions a search may run between wall-clock polls when a
/// deadline is set. Each poll is one `Instant::now()`; the stride keeps
/// its amortized cost invisible next to the per-expansion graph work.
const TIME_STRIDE: u64 = 512;

/// A cooperative bound on one search call. The default is unlimited.
/// Exhaustion stops the search at its next probe, ranks what was found
/// and labels the output through
/// [`SearchStats::completeness`](crate::SearchStats#structfield.completeness);
/// see [`SearchOptions::budget`](crate::SearchOptions::budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchBudget {
    /// Wall-clock allowance, measured from the start of the search.
    /// `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Cap on the search's expansion counter. `None` = no cap.
    pub max_expansions: Option<u64>,
}

impl SearchBudget {
    /// The unlimited budget (identical to `Default`).
    pub const UNLIMITED: SearchBudget = SearchBudget { deadline: None, max_expansions: None };

    /// Budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        SearchBudget { deadline: Some(deadline), max_expansions: None }
    }

    /// Budget with only a work cap.
    pub fn with_max_expansions(cap: u64) -> Self {
        SearchBudget { deadline: None, max_expansions: Some(cap) }
    }
}

/// The budget of one search call: the resolved deadline and cap, the
/// trip reason, and the next count at which a probe compares the count
/// with the cap and polls the clock. The search owns it and calls
/// [`Budget::check`] with its monotone expansion count; the strides
/// between probes never step past what the cap has left, so the cap is
/// exact.
#[derive(Debug)]
pub(crate) struct Budget {
    deadline: Option<Instant>,
    cap: u64,
    tripped: Option<TruncationReason>,
    /// Next count at which the slow path runs. Starts at 0 so the very
    /// first check takes it: a pre-expired deadline trips at once, not
    /// after a stride; a trip resets it, so every later check sees it.
    next_probe: u64,
}

impl Budget {
    /// Resolve a budget against the current instant. Call once at the
    /// start of the search so the deadline measures search time, not
    /// setup time of the caller.
    pub(crate) fn new(budget: &SearchBudget) -> Self {
        Budget {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            cap: budget.max_expansions.unwrap_or(u64::MAX),
            tripped: None,
            next_probe: 0,
        }
    }

    /// Trip the budget. First reason wins: once tripped, the reason is
    /// stable even if the other bound would also fire later.
    pub(crate) fn trip(&mut self, reason: TruncationReason) {
        self.tripped.get_or_insert(reason);
        self.next_probe = 0;
    }

    /// The reason the budget tripped, if it did.
    pub(crate) fn reason(&self) -> Option<TruncationReason> {
        self.tripped
    }

    /// `true` iff the budget is exhausted and the caller must stop.
    /// `n` is the search's monotone expansion count.
    #[inline]
    pub(crate) fn check(&mut self, n: u64) -> bool {
        n >= self.next_probe && self.probe_slow(n)
    }

    #[cold]
    fn probe_slow(&mut self, n: u64) -> bool {
        if self.tripped.is_some() {
            return true;
        }
        if n >= self.cap {
            self.trip(TruncationReason::ExpansionCap);
            return true;
        }
        let mut stride = self.cap - n;
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(TruncationReason::Deadline);
                return true;
            }
            stride = stride.min(TIME_STRIDE);
        }
        self.next_probe = n + stride;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let mut budget = Budget::new(&SearchBudget::UNLIMITED);
        for n in 0..10_000u64 {
            assert!(!budget.check(n));
        }
        assert_eq!(budget.reason(), None);
        assert_eq!(SearchBudget::default(), SearchBudget::UNLIMITED);
    }

    #[test]
    fn expansion_cap_is_exact_sequentially() {
        let mut budget = Budget::new(&SearchBudget::with_max_expansions(100));
        let mut n = 0u64;
        let tripped_at = loop {
            n += 1;
            if budget.check(n) {
                break n;
            }
            assert!(n < 10_000, "cap never tripped");
        };
        assert_eq!(tripped_at, 100);
        assert_eq!(budget.reason(), Some(TruncationReason::ExpansionCap));
    }

    #[test]
    fn expired_deadline_trips_on_first_probe() {
        let mut budget = Budget::new(&SearchBudget::with_deadline(Duration::ZERO));
        assert!(budget.check(1));
        assert_eq!(budget.reason(), Some(TruncationReason::Deadline));
    }

    #[test]
    fn trip_is_sticky_and_first_reason_wins() {
        let mut budget =
            Budget::new(&SearchBudget { deadline: None, max_expansions: Some(1_000) });
        // A probe past its first stride, then a trip from outside the
        // probe (the engine-forced trip of the `banks.settle` point):
        // the next check sees it, before its own stride elapses.
        assert!(!budget.check(0));
        budget.trip(TruncationReason::Deadline);
        budget.trip(TruncationReason::ExpansionCap);
        assert_eq!(budget.reason(), Some(TruncationReason::Deadline));
        assert!(budget.check(1));
        assert!(budget.check(2));
    }

    #[test]
    fn distant_deadline_does_not_trip() {
        let mut budget = Budget::new(&SearchBudget::with_deadline(Duration::from_secs(3600)));
        for n in 1..5_000u64 {
            assert!(!budget.check(n));
        }
        assert_eq!(budget.reason(), None);
    }
}
