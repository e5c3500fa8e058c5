//! The unpruned DISCOVER growth: every connected network of tuples up to
//! a size bound around the members of the smallest keyword set, total
//! or not, with no stop at total networks and no distance pruning. The
//! engine's `JoiningNetworkLevels` must report exactly the MTJNTs among
//! these networks, level by level and in the same order.

use cla_core::DataGraph;
use cla_graph::NodeId;
use std::collections::{BTreeSet, HashSet};

/// One size level of the unpruned growth.
pub struct ReferenceLevel {
    /// The total networks of this size, in growth order.
    pub totals: Vec<BTreeSet<NodeId>>,
    /// The connected networks of this size materialized, total or not.
    pub materialized: u64,
}

/// The levels of the unpruned growth, smallest first, for networks of
/// at most `max_tuples` tuples. Growth is breadth-first from the
/// members of the smallest keyword set in node order; each network is
/// extended by every neighbour of its members in node order, and each
/// network is materialized once. The levels stop early when a level is
/// empty.
pub fn joining_network_levels(
    dg: &DataGraph,
    keyword_sets: &[HashSet<NodeId>],
    max_tuples: usize,
) -> Vec<ReferenceLevel> {
    let mut levels = Vec::new();
    if keyword_sets.iter().any(HashSet::is_empty) {
        return levels;
    }
    let Some(seed_set) = keyword_sets.iter().min_by_key(|s| s.len()) else {
        return levels;
    };
    let is_total = |nodes: &[NodeId]| {
        keyword_sets.iter().all(|set| nodes.iter().any(|n| set.contains(n)))
    };
    let mut seeds: Vec<NodeId> = seed_set.iter().copied().collect();
    seeds.sort_unstable();
    let mut frontier: Vec<Vec<NodeId>> = seeds.into_iter().map(|s| vec![s]).collect();
    let mut visited: HashSet<Vec<NodeId>> = frontier.iter().cloned().collect();
    for size in 1..=max_tuples {
        if size > 1 {
            let mut next_frontier = Vec::new();
            for current in &frontier {
                let neighbors: BTreeSet<NodeId> = current
                    .iter()
                    .flat_map(|&n| dg.csr().neighbors(n).iter().map(|&(m, _)| m))
                    .filter(|m| current.binary_search(m).is_err())
                    .collect();
                for m in neighbors {
                    let mut next = current.clone();
                    let at = next.binary_search(&m).unwrap_err();
                    next.insert(at, m);
                    if visited.insert(next.clone()) {
                        next_frontier.push(next);
                    }
                }
            }
            frontier = next_frontier;
        }
        if frontier.is_empty() {
            break;
        }
        levels.push(ReferenceLevel {
            totals: frontier
                .iter()
                .filter(|n| is_total(n))
                .map(|n| n.iter().copied().collect())
                .collect(),
            materialized: frontier.len() as u64,
        });
    }
    levels
}

/// Every connected, total joining network of at most `max_tuples`
/// tuples, deduplicated, in ascending size order and growth order
/// within a size.
pub fn enumerate_joining_networks(
    dg: &DataGraph,
    keyword_sets: &[HashSet<NodeId>],
    max_tuples: usize,
) -> Vec<BTreeSet<NodeId>> {
    joining_network_levels(dg, keyword_sets, max_tuples)
        .into_iter()
        .flat_map(|level| level.totals)
        .collect()
}
