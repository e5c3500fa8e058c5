//! Search budgets: wall-clock deadlines and work caps with labeled
//! partial results.
//!
//! A [`SearchBudget`] bounds one `SearchEngine::search` call two ways:
//!
//! * **`deadline`** — a wall-clock allowance measured from the moment
//!   the search starts executing;
//! * **`max_expansions`** — a cap on the algorithm's own work counter:
//!   DFS descents for Paths and candidate network materializations for
//!   DISCOVER (the same figure `SearchStats::expansions` reports), raw
//!   per-set frontier settles for BANKS (the `BanksWork::expansions`
//!   figure — finer-grained than the candidate count
//!   `SearchStats::expansions` reports there).
//!
//! Both are cooperative: the pipelines probe the budget at their
//! existing expansion-counting sites, so exhaustion stops enumeration
//! at the next probe, ranks what was found, and labels the output via
//! [`SearchStats::completeness`](crate::SearchStats#structfield.completeness)
//! — it never aborts, never panics, never poisons the engine.
//!
//! The unlimited budget (the default) costs one `Option` branch per
//! probe. Every search that runs on one thread — BANKS, DISCOVER,
//! streamed top-k Paths across all its levels, and a whole Paths answer
//! at `threads: 1` — counts through one probe, so a cap `c` is exact:
//! the search stops at the expansion that reaches `c`, and reports at
//! most `c`. The one parallel counter is the per-source fan-out of a
//! whole Paths answer, where `t` worker threads share the budget: each
//! worker probes again after at most its share, `1/t` of what the cap
//! had left at its last probe, and a worker that stops flushes what it
//! has not yet reported. The count passes the cap only by what the other
//! workers ran since their last probe, so a search with cap `c ≥ 1` ends
//! within `c + (t − 1)·⌈c / t⌉` expansions, below `2c`. Deadlines poll
//! `Instant::now()` at most once per [`TIME_STRIDE`] expansions per
//! worker.

use crate::stats::TruncationReason;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// How many expansions a worker may run between wall-clock polls when a
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

/// Shared budget state for one search call: the resolved deadline, the
/// cap, the global spent counter workers flush into, and the sticky
/// trip flag. Lives on the search stack; workers borrow it.
#[derive(Debug)]
pub(crate) struct BudgetShared {
    deadline: Option<Instant>,
    cap: u64,
    spent: AtomicU64,
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
            spent: AtomicU64::new(0),
            tripped: AtomicU8::new(TRIP_NONE),
        }
    }

    /// Latch the trip flag. First reason wins: once tripped, the reason
    /// is stable even if the other bound would also fire later.
    pub(crate) fn trip(&self, reason: TruncationReason) {
        let code = match reason {
            TruncationReason::Deadline => TRIP_DEADLINE,
            TruncationReason::ExpansionCap => TRIP_CAP,
            // Worker faults are recorded by the executor, not the
            // budget; tripping the budget just stops the other workers.
            TruncationReason::WorkerFault => TRIP_CAP,
        };
        // `tripped` is a standalone monotone flag (NONE -> code, first
        // writer wins); no other memory is published through it,
        // workers only use it to stop early.
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
        // ordering: Relaxed — read after the parallel phase joins (or
        // sequentially); the join itself is the synchronization edge.
        match self.tripped.load(Ordering::Relaxed) {
            TRIP_DEADLINE => Some(TruncationReason::Deadline),
            TRIP_CAP => Some(TruncationReason::ExpansionCap),
            _ => None,
        }
    }

    fn tripped_fast(&self) -> bool {
        // ordering: Relaxed — advisory early-exit hint; a stale `false`
        // only delays the stop by one probe stride.
        self.tripped.load(Ordering::Relaxed) != TRIP_NONE
    }
}

/// Per-worker budget probe. Each worker (or the sequential pipeline)
/// owns one and calls [`BudgetProbe::check`] with its monotone local
/// expansion count; the probe flushes deltas into the shared counter in
/// adaptive strides, at most its share of what the cap has left, so the
/// cap stays exact sequentially and within the module's bound in
/// parallel. Dropping the probe flushes the rest of its count.
#[derive(Debug)]
pub(crate) struct BudgetProbe<'a> {
    shared: Option<&'a BudgetShared>,
    /// How many workers share the budget; a stride is at most this
    /// share of what the cap has left.
    workers: u64,
    /// Local count already flushed into `shared.spent`.
    flushed: u64,
    /// The last local count [`BudgetProbe::check`] saw.
    seen: u64,
    /// Next local count at which the slow path runs. Starts at 0 so
    /// the very first probe flushes — a pre-expired deadline trips on
    /// the first expansion, not after a stride.
    next_probe: u64,
}

impl<'a> BudgetProbe<'a> {
    /// The probe of a search that runs on one thread. `new(None)`
    /// probes an unlimited budget: every check is one branch.
    pub(crate) fn new(shared: Option<&'a BudgetShared>) -> Self {
        Self::shared_by(shared, 1)
    }

    /// The probe of one of `workers` threads that share the budget.
    pub(crate) fn shared_by(shared: Option<&'a BudgetShared>, workers: usize) -> Self {
        let workers = u64::try_from(workers.max(1)).unwrap_or(u64::MAX);
        BudgetProbe { shared, workers, flushed: 0, seen: 0, next_probe: 0 }
    }

    /// `true` iff the budget is exhausted and the caller must stop.
    /// `local` is the worker's monotone expansion count.
    #[inline]
    pub(crate) fn check(&mut self, local: u64) -> bool {
        let Some(shared) = self.shared else { return false };
        self.seen = local;
        if local < self.next_probe {
            // Fast path between strides: one relaxed u8 load, so a trip
            // by another worker (or an engine-forced trip) still stops
            // this one promptly.
            return shared.tripped_fast();
        }
        self.probe_slow(shared, local)
    }

    #[cold]
    fn probe_slow(&mut self, shared: &BudgetShared, local: u64) -> bool {
        let delta = local - self.flushed;
        self.flushed = local;
        // ordering: Relaxed — `spent` is a pure counter; the RMW is
        // atomic regardless of ordering and nothing is published
        // through it.
        let spent = shared.spent.fetch_add(delta, Ordering::Relaxed) + delta;
        if spent >= shared.cap {
            shared.trip(TruncationReason::ExpansionCap);
            return true;
        }
        let mut stride = (shared.cap - spent) / self.workers;
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

impl Drop for BudgetProbe<'_> {
    /// A worker that stops — done, interrupted or unwinding — flushes
    /// what it has not yet reported, so the workers still running see
    /// the whole spend.
    fn drop(&mut self) {
        if let Some(shared) = self.shared {
            // ordering: Relaxed — a pure counter, as in `probe_slow`.
            shared.spent.fetch_add(self.seen.saturating_sub(self.flushed), Ordering::Relaxed);
        }
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
    fn a_dropped_probe_flushes_its_tail() {
        let shared = BudgetShared::new(&SearchBudget::with_max_expansions(20));
        let mut first = BudgetProbe::new(Some(&shared));
        for n in 1..=10u64 {
            assert!(!first.check(n));
        }
        drop(first);
        let mut second = BudgetProbe::new(Some(&shared));
        let tripped_at = (1..=20u64).find(|&n| second.check(n));
        assert_eq!(tripped_at, Some(10), "the first probe's 10 expansions count");
    }

    #[test]
    fn worker_shares_bound_the_overshoot() {
        // The worst interleaving for two workers: one takes its share
        // and runs it unreported while the other spends the rest of the
        // cap alone, then the first probes again.
        let (cap, workers) = (100u64, 2u64);
        let shared = BudgetShared::new(&SearchBudget::with_max_expansions(cap));
        let mut slow = BudgetProbe::shared_by(Some(&shared), 2);
        let mut fast = BudgetProbe::shared_by(Some(&shared), 2);
        assert!(!slow.check(1));
        let mut slow_done = 1u64;
        while slow_done < cap && !shared.tripped_fast() && slow.next_probe > slow_done + 1 {
            slow_done += 1;
            assert!(!slow.check(slow_done));
        }
        let fast_done = (1..).find(|&n| fast.check(n)).unwrap_or(0);
        let slow_done = (slow_done + 1..).find(|&n| slow.check(n)).unwrap_or(0);
        let total = slow_done + fast_done;
        assert!(total > cap, "the interleaving must overshoot to test the bound");
        assert!(
            total <= cap + (workers - 1) * cap.div_ceil(workers),
            "{total} expansions under a cap of {cap} shared by {workers} workers"
        );
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
        // A second probe on another worker sees the trip on its fast
        // path even before its own stride elapses.
        let mut other = BudgetProbe::new(Some(&shared));
        assert!(other.check(1));
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
