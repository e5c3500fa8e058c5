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
//! The unlimited budget (the default) costs one `Option` branch per
//! probe. Every search enumerates on its calling thread and counts
//! through one probe, across all of its levels, so a cap `c` is exact:
//! the search stops at the expansion that reaches `c`, and reports at
//! most `c`. Each probe follows the expansion it counts, and one more
//! precedes the first, so a budget spent before any (a cap of 0, an
//! expired deadline) runs none: the answer is the tuples that match
//! every keyword, cut to the certified prefix. Deadlines poll
//! `Instant::now()` at most once per [`TIME_STRIDE`] expansions.

use crate::stats::TruncationReason;
use std::sync::atomic::{AtomicU8, Ordering};
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

    /// `true` iff either bound is set — an unlimited budget skips all
    /// shared state and every probe is a single `None` branch.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.max_expansions.is_some()
    }
}

/// Trip-state encoding for [`BudgetShared::tripped`].
const TRIP_NONE: u8 = 0;
const TRIP_DEADLINE: u8 = 1;
const TRIP_CAP: u8 = 2;

/// Budget state for one search call: the resolved deadline, the cap and
/// the sticky trip flag. Lives on the search stack.
#[derive(Debug)]
pub(crate) struct BudgetShared {
    deadline: Option<Instant>,
    cap: u64,
    tripped: AtomicU8,
}

impl BudgetShared {
    /// Resolve a budget against the current instant. Call once at the
    /// start of the search so the deadline measures search time, not
    /// setup time of the caller.
    pub(crate) fn new(budget: &SearchBudget) -> Self {
        BudgetShared {
            deadline: budget.deadline.map(|d| Instant::now() + d),
            cap: budget.max_expansions.unwrap_or(u64::MAX),
            tripped: AtomicU8::new(TRIP_NONE),
        }
    }

    /// Latch the trip flag. First reason wins: once tripped, the reason
    /// is stable even if the other bound would also fire later.
    pub(crate) fn trip(&self, reason: TruncationReason) {
        let code = match reason {
            TruncationReason::Deadline => TRIP_DEADLINE,
            TruncationReason::ExpansionCap => TRIP_CAP,
        };
        // `tripped` is a standalone monotone flag (NONE -> code, first
        // writer wins); no other memory is published through it, the
        // probe only uses it to stop early.
        let _ = self.tripped.compare_exchange(
            TRIP_NONE,
            code,
            // ordering: Relaxed — see the flag note above.
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// The reason the budget tripped, if it did.
    pub(crate) fn reason(&self) -> Option<TruncationReason> {
        // ordering: Relaxed — read on the thread that probes, after the
        // enumeration; no other memory is published through the flag.
        match self.tripped.load(Ordering::Relaxed) {
            TRIP_DEADLINE => Some(TruncationReason::Deadline),
            TRIP_CAP => Some(TruncationReason::ExpansionCap),
            _ => None,
        }
    }

    fn tripped_fast(&self) -> bool {
        // ordering: Relaxed — advisory early-exit hint (an engine-forced
        // trip latches it between probes); no other memory is published
        // through the flag.
        self.tripped.load(Ordering::Relaxed) != TRIP_NONE
    }
}

/// A search's budget probe. The search owns one and calls
/// [`BudgetProbe::check`] with its monotone expansion count; the probe
/// compares it with the cap in adaptive strides that never step past
/// what the cap has left, so the cap is exact.
#[derive(Debug)]
pub(crate) struct BudgetProbe<'a> {
    shared: Option<&'a BudgetShared>,
    /// Next count at which the slow path runs. Starts at 0 so the very
    /// first check takes it: a pre-expired deadline trips at once, not
    /// after a stride.
    next_probe: u64,
}

impl<'a> BudgetProbe<'a> {
    /// The probe of one search. `new(None)` probes an unlimited budget:
    /// every check is one branch.
    pub(crate) fn new(shared: Option<&'a BudgetShared>) -> Self {
        BudgetProbe { shared, next_probe: 0 }
    }

    /// `true` iff the budget is exhausted and the caller must stop.
    /// `local` is the search's monotone expansion count.
    #[inline]
    pub(crate) fn check(&mut self, local: u64) -> bool {
        let Some(shared) = self.shared else { return false };
        if local < self.next_probe {
            // Fast path between strides: one relaxed u8 load, so an
            // engine-forced trip still stops the search promptly.
            return shared.tripped_fast();
        }
        self.probe_slow(shared, local)
    }

    #[cold]
    fn probe_slow(&mut self, shared: &BudgetShared, local: u64) -> bool {
        if local >= shared.cap {
            shared.trip(TruncationReason::ExpansionCap);
            return true;
        }
        let mut stride = shared.cap - local;
        if let Some(deadline) = shared.deadline {
            if Instant::now() >= deadline {
                shared.trip(TruncationReason::Deadline);
                return true;
            }
            stride = stride.min(TIME_STRIDE);
        }
        self.next_probe = local + stride.max(1);
        shared.tripped_fast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let mut probe = BudgetProbe::new(None);
        for n in 0..10_000u64 {
            assert!(!probe.check(n));
        }
        assert!(!SearchBudget::default().is_limited());
        assert_eq!(SearchBudget::default(), SearchBudget::UNLIMITED);
    }

    #[test]
    fn expansion_cap_is_exact_sequentially() {
        let budget = SearchBudget::with_max_expansions(100);
        assert!(budget.is_limited());
        let shared = BudgetShared::new(&budget);
        let mut probe = BudgetProbe::new(Some(&shared));
        let mut n = 0u64;
        let tripped_at = loop {
            n += 1;
            if probe.check(n) {
                break n;
            }
            assert!(n < 10_000, "cap never tripped");
        };
        assert_eq!(tripped_at, 100);
        assert_eq!(shared.reason(), Some(TruncationReason::ExpansionCap));
    }

    #[test]
    fn expired_deadline_trips_on_first_probe() {
        let budget = SearchBudget::with_deadline(Duration::ZERO);
        let shared = BudgetShared::new(&budget);
        let mut probe = BudgetProbe::new(Some(&shared));
        assert!(probe.check(1));
        assert_eq!(shared.reason(), Some(TruncationReason::Deadline));
    }

    #[test]
    fn trip_is_sticky_and_first_reason_wins() {
        let budget = SearchBudget { deadline: None, max_expansions: Some(1) };
        let shared = BudgetShared::new(&budget);
        shared.trip(TruncationReason::Deadline);
        shared.trip(TruncationReason::ExpansionCap);
        assert_eq!(shared.reason(), Some(TruncationReason::Deadline));
        // A probe sees a trip latched from outside it (an engine-forced
        // trip) on its fast path, before its own stride elapses.
        let mut probe = BudgetProbe::new(Some(&shared));
        assert!(probe.check(1));
    }

    #[test]
    fn distant_deadline_does_not_trip() {
        let budget = SearchBudget::with_deadline(Duration::from_secs(3600));
        let shared = BudgetShared::new(&budget);
        let mut probe = BudgetProbe::new(Some(&shared));
        for n in 1..5_000u64 {
            assert!(!probe.check(n));
        }
        assert_eq!(shared.reason(), None);
    }
}
