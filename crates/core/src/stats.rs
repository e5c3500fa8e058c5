//! Search statistics: the unified traversal-work accounting every
//! algorithm reports through ([`SearchStats`]), plus
//! ranking-comparison statistics — quantify how much two strategies
//! disagree, and how a result list distributes over closeness classes.
//!
//! Used by the experiment harness to report, e.g., that close-first and
//! RDB-length orders have low rank correlation on the paper's example —
//! the measurable form of the paper's argument that "the shortest
//! connection is not always the best".

use crate::ranking::ConnectionInfo;
use cla_er::Closeness;
use std::collections::HashMap;
use std::hash::Hash;

/// Traversal-work accounting for one search — the **unified** counter
/// through which all three algorithms prove their early termination.
///
/// [`SearchStats::expansions`] counts each algorithm's unit of
/// enumeration work:
///
/// * `Paths`, and `Discover` with at most two keywords — DFS descents
///   (nodes pushed onto a path under exploration), summed across
///   sources and, at k, across the length levels (each level re-runs
///   the DFS to its own depth);
/// * `Banks` — candidate roots completed by the backward expansion
///   (each materializes one entry on the candidate priority queue).
///   The classic formulation materializes *every* root reached by all
///   keyword sets; the priority-queue cutoff strictly fewer whenever
///   it fires. (`cla_core::BanksWork` additionally reports the raw
///   per-set Dijkstra settles.)
/// * `Discover` with three or more keywords — joining networks
///   materialized by the level-wise growth, counting only networks
///   that can still become an MTJNT
///   within the size bound (total ones are reported and never grown,
///   and ones too far from a keyword set they miss are never built), so
///   an expansion cap reaches further than it would over every
///   connected network.
///
/// With `k` set and a length-monotone ranker, a run that stops early
/// must report strictly fewer expansions than the full run while
/// returning the identical ranked prefix — the property suite pins both
/// halves for Paths and BANKS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Units of enumeration work performed (see the type docs for the
    /// per-algorithm meaning).
    pub expansions: u64,
    /// The highest length budget (in FK edges) the enumeration ran
    /// with: the full `max_rdb_length` for whole answers, the last
    /// completed level for a levelled top-k (pruning may keep the
    /// traversal from ever reaching this depth; `expansions` counts the
    /// actual work). For `Discover` this is the network size bound minus one
    /// (tuple count and edge count differ by one on path shapes).
    pub max_length_enumerated: usize,
    /// `true` when a streaming cutoff stopped enumeration before its
    /// full budget because the held top `k` dominated every unexplored
    /// candidate (length level, frontier entry or network size).
    pub early_terminated: bool,
    /// Whether this answer is the full answer or a labeled partial one
    /// (budget exhausted). A streaming top-k
    /// cutoff (`early_terminated`) is still [`Completeness::Complete`]:
    /// the cutoff proves the held prefix equals the full run's.
    pub completeness: Completeness,
}

/// Whether a search answered in full or degraded to a labeled partial
/// answer — callers can never mistake one for the other.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Completeness {
    /// Every connection the options ask for is present (streaming
    /// cutoffs included: they return the provably identical prefix).
    #[default]
    Complete,
    /// Enumeration was cut before completion; the results are a ranked
    /// prefix of what the unbudgeted run would return (for
    /// prefix-certifiable rankers — see the engine's robustness docs).
    Truncated {
        /// What cut the search short.
        reason: TruncationReason,
    },
}

impl Completeness {
    /// `true` iff nothing was cut.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completeness::Complete)
    }
}

/// Why a search returned a partial answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// The wall-clock [`deadline`](crate::SearchBudget::deadline)
    /// expired.
    Deadline,
    /// The [`max_expansions`](crate::SearchBudget::max_expansions) work
    /// cap was reached.
    ExpansionCap,
}

/// Kendall rank-correlation coefficient τ between two orderings of the
/// same item set, in `[-1, 1]` (1 = identical order, -1 = reversed).
///
/// Items present in only one list are ignored. Returns `None` when
/// fewer than two common items exist.
pub fn kendall_tau<T: Eq + Hash>(a: &[T], b: &[T]) -> Option<f64> {
    let pos_b: HashMap<&T, usize> = b.iter().enumerate().map(|(i, x)| (x, i)).collect();
    let ranks: Vec<usize> = a.iter().filter_map(|x| pos_b.get(x).copied()).collect();
    let n = ranks.len();
    if n < 2 {
        return None;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in i + 1..n {
            if ranks[i] < ranks[j] {
                concordant += 1;
            } else {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    Some((concordant - discordant) as f64 / pairs)
}

/// Distribution of a result list over closeness classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClosenessProfile {
    /// Schema-close connections.
    pub close: usize,
    /// Loose connections without transitive-N:M segments.
    pub loose_factual: usize,
    /// Loose connections with ≥ 1 transitive-N:M segment.
    pub loose_nm: usize,
}

impl ClosenessProfile {
    /// Profile a slice of connection metrics.
    pub fn of(infos: &[&ConnectionInfo]) -> Self {
        let mut p = ClosenessProfile::default();
        for i in infos {
            match (i.closeness, i.nm_count) {
                (Closeness::Close, _) => p.close += 1,
                (Closeness::Loose, 0) => p.loose_factual += 1,
                (Closeness::Loose, _) => p.loose_nm += 1,
            }
        }
        p
    }

    /// Total counted connections.
    pub fn total(&self) -> usize {
        self.close + self.loose_factual + self.loose_nm
    }

    /// Fraction of close connections (0 when empty).
    pub fn close_ratio(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.close as f64 / self.total() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_er::{Cardinality, CardinalityChain};

    fn info(chain: &[Cardinality]) -> ConnectionInfo {
        let er_chain = CardinalityChain::new(chain.to_vec());
        ConnectionInfo {
            rdb_length: chain.len(),
            er_length: chain.len(),
            class: er_chain.classify(),
            closeness: er_chain.closeness(),
            nm_count: er_chain.transitive_nm_count(),
            er_chain,
            text_score: 0.0,
            instance_close: None,
        }
    }

    #[test]
    fn kendall_tau_extremes() {
        let a = [1, 2, 3, 4];
        assert_eq!(kendall_tau(&a, &a), Some(1.0));
        let rev = [4, 3, 2, 1];
        assert_eq!(kendall_tau(&a, &rev), Some(-1.0));
        assert_eq!(kendall_tau::<i32>(&[], &[]), None);
        assert_eq!(kendall_tau(&[1], &[1]), None);
    }

    #[test]
    fn kendall_tau_partial_agreement() {
        let a = [1, 2, 3, 4];
        let b = [2, 1, 3, 4];
        let tau = kendall_tau(&a, &b).unwrap();
        assert!(tau > 0.0 && tau < 1.0);
        // One swapped pair among six: τ = (5 - 1) / 6.
        assert!((tau - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn kendall_tau_ignores_non_common_items() {
        let a = [1, 2, 9];
        let b = [2, 1, 7];
        let tau = kendall_tau(&a, &b).unwrap();
        assert_eq!(tau, -1.0); // only {1,2} common, and they swap
    }

    #[test]
    fn closeness_profile_partitions() {
        use Cardinality as C;
        let close = info(&[C::ONE_TO_MANY]);
        let factual = info(&[C::ONE_TO_MANY, C::MANY_TO_MANY]);
        let nm = info(&[C::MANY_TO_ONE, C::ONE_TO_MANY]);
        let p = ClosenessProfile::of(&[&close, &factual, &nm, &nm]);
        assert_eq!(p.close, 1);
        assert_eq!(p.loose_factual, 1);
        assert_eq!(p.loose_nm, 2);
        assert_eq!(p.total(), 4);
        assert!((p.close_ratio() - 0.25).abs() < 1e-9);
    }
}
