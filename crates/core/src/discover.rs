//! DISCOVER-style joining networks and the MTJNT semantics (Hristidis &
//! Papakonstantinou, VLDB 2002 — the paper's reference [4]).
//!
//! A *joining network of tuples* is a set of tuples whose induced
//! foreign-key subgraph is connected. For a keyword query it is
//!
//! * **total** iff every keyword is contained in at least one tuple of
//!   the network, and
//! * **minimal** iff no tuple can be removed such that the remaining
//!   induced network is still connected and total.
//!
//! A **MTJNT** is a minimal total joining network of tuples. §3 of the
//! paper shows this semantics *loses* informative connections: for
//! "Smith XML" on the Figure 2 instance, connections 3, 4, 6 and 7 are
//! all non-minimal (each contains the two-tuple network {department,
//! employee} or a shorter project-based network as a sub-network) and
//! are therefore never returned. [`is_mtjnt`] + [`mtjnt_filter`]
//! reproduce that claim exactly; [`enumerate_joining_networks`] grows
//! all connected total networks up to a size bound (the DISCOVER
//! candidate-network parameter `T`).

use crate::datagraph::DataGraph;
use cla_graph::{is_connected_subset_sorted, NodeId};
use std::collections::{BTreeSet, HashSet};

/// `true` iff `nodes` covers every keyword set (each set contributes at
/// least one member).
pub fn is_total(nodes: &BTreeSet<NodeId>, keyword_sets: &[HashSet<NodeId>]) -> bool {
    keyword_sets.iter().all(|set| nodes.iter().any(|n| set.contains(n)))
}

/// `true` iff the induced subgraph on `nodes` is connected (the network
/// is *joining*).
pub fn is_joining(dg: &DataGraph, nodes: &BTreeSet<NodeId>) -> bool {
    // A BTreeSet iterates in ascending order — exactly the sorted slice
    // the CSR connectivity check wants, no hashing required.
    let sorted: Vec<NodeId> = nodes.iter().copied().collect();
    is_connected_subset_sorted(dg.csr(), &sorted)
}

/// The MTJNT test: total, joining, and minimal (no single tuple
/// removable while staying total and joining — DISCOVER's definition).
pub fn is_mtjnt(
    dg: &DataGraph,
    nodes: &BTreeSet<NodeId>,
    keyword_sets: &[HashSet<NodeId>],
) -> bool {
    if nodes.is_empty() || !is_total(nodes, keyword_sets) || !is_joining(dg, nodes) {
        return false;
    }
    // One sorted scratch vector; each removal check drops one element
    // in place instead of cloning a `BTreeSet` per candidate.
    let sorted: Vec<NodeId> = nodes.iter().copied().collect();
    let mut reduced: Vec<NodeId> = Vec::with_capacity(sorted.len() - 1);
    for skip in 0..sorted.len() {
        if sorted.len() == 1 {
            break; // the empty reduction is never admissible
        }
        reduced.clear();
        reduced
            .extend(sorted.iter().enumerate().filter(|&(i, _)| i != skip).map(|(_, &n)| n));
        let total = keyword_sets.iter().all(|set| reduced.iter().any(|n| set.contains(n)));
        if total && is_connected_subset_sorted(dg.csr(), &reduced) {
            return false; // the skipped tuple is removable → not minimal
        }
    }
    true
}

/// Filter `networks`, keeping only MTJNTs.
pub fn mtjnt_filter(
    dg: &DataGraph,
    networks: Vec<BTreeSet<NodeId>>,
    keyword_sets: &[HashSet<NodeId>],
) -> Vec<BTreeSet<NodeId>> {
    networks.into_iter().filter(|n| is_mtjnt(dg, n, keyword_sets)).collect()
}

/// Size-level generator of connected, total joining networks — the
/// enumeration kernel behind [`enumerate_joining_networks`], exposed so
/// the engine's streaming top-k mode can consume candidate networks
/// **one tuple-count level at a time** and cut enumeration as soon as
/// the held top k dominates every larger network under a
/// length-monotone ranker (a network of `s` tuples yields a connection
/// of `s - 1` foreign-key edges, so size is a rank lower bound).
///
/// Growth is breadth-first from the members of the smallest keyword
/// set, taken in node order, so every run reports the networks of a
/// level in the same order; candidate networks are keyed by their
/// canonical signature (the sorted node vector), each materialized
/// exactly once and counted into [`JoiningNetworkLevels::expansions`]
/// — the "network materializations" figure `SearchStats` reports for
/// DISCOVER.
#[derive(Debug)]
pub struct JoiningNetworkLevels<'a> {
    dg: &'a DataGraph,
    keyword_sets: &'a [HashSet<NodeId>],
    /// Candidate networks of the size [`Self::next_level`] will report
    /// next (sorted-vector signatures).
    frontier: Vec<Vec<NodeId>>,
    visited: HashSet<Box<[NodeId]>>,
    /// Tuple count of the networks currently in `frontier`.
    size: usize,
    /// Growth happens lazily at the *start* of the next call, so a
    /// caller that cuts enumeration never pays for a level it skips.
    primed: bool,
    expansions: u64,
    /// Set when a budget interrupt fired mid-growth: the level being
    /// built was dropped (it was incomplete) and the frontier cleared,
    /// so enumeration ends. Every level already *reported* was
    /// complete.
    truncated: bool,
}

impl<'a> JoiningNetworkLevels<'a> {
    /// Seed the enumeration. With an empty keyword set (conjunctive
    /// semantics) the enumerator yields nothing.
    pub fn new(dg: &'a DataGraph, keyword_sets: &'a [HashSet<NodeId>]) -> Self {
        let mut levels = JoiningNetworkLevels {
            dg,
            keyword_sets,
            frontier: Vec::new(),
            visited: HashSet::new(),
            size: 1,
            primed: false,
            expansions: 0,
            truncated: false,
        };
        if keyword_sets.is_empty() || keyword_sets.iter().any(HashSet::is_empty) {
            return levels;
        }
        let Some(seed_set) = keyword_sets.iter().min_by_key(|s| s.len()) else {
            return levels;
        };
        // Seed in node order, not hash-set order: the frontier order is
        // the order every later level, and so the reported networks,
        // come out in.
        let mut seeds: Vec<NodeId> = seed_set.iter().copied().collect();
        seeds.sort_unstable();
        for seed in seeds {
            let s = vec![seed];
            if levels.visited.insert(s.clone().into_boxed_slice()) {
                levels.expansions += 1;
                levels.frontier.push(s);
            }
        }
        levels
    }

    /// Candidate networks materialized so far (each distinct connected
    /// node set built and enqueued once, total or not).
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// The tuple count the next [`Self::next_level`] call will report.
    pub fn next_size(&self) -> usize {
        if self.primed {
            self.size + 1
        } else {
            self.size
        }
    }

    /// `true` iff a budget interrupt cut growth short: the level under
    /// construction was dropped and enumeration ended early. Levels
    /// already reported were complete.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Report every *total* network of the next size level. Returns
    /// `None` once the frontier is exhausted (no connected candidate of
    /// that size exists).
    pub fn next_level(&mut self) -> Option<Vec<BTreeSet<NodeId>>> {
        self.next_level_budgeted(&mut |_| false)
    }

    /// [`Self::next_level`] with a cooperative budget probe, called
    /// with the materialization count after each new candidate. When
    /// the probe returns `true` the partially built level is dropped
    /// (reporting it would break the complete-per-level invariant the
    /// ranked-prefix guarantee rests on), [`Self::truncated`] latches,
    /// and this and every later call return `None`.
    pub fn next_level_budgeted(
        &mut self,
        interrupt: &mut dyn FnMut(u64) -> bool,
    ) -> Option<Vec<BTreeSet<NodeId>>> {
        if self.primed {
            self.grow(interrupt);
        }
        self.primed = true;
        if self.frontier.is_empty() {
            return None;
        }
        let is_total_sorted = |nodes: &[NodeId]| {
            self.keyword_sets.iter().all(|set| nodes.iter().any(|n| set.contains(n)))
        };
        Some(
            self.frontier
                .iter()
                .filter(|nodes| is_total_sorted(nodes))
                .map(|nodes| nodes.iter().copied().collect())
                .collect(),
        )
    }

    /// Extend every frontier network by every neighbor of any of its
    /// members, deduplicated by signature. Growth keeps the sorted
    /// order by inserting each new node in place.
    fn grow(&mut self, interrupt: &mut dyn FnMut(u64) -> bool) {
        let csr = self.dg.csr();
        let mut next_frontier: Vec<Vec<NodeId>> = Vec::new();
        for current in &self.frontier {
            let mut neighbors: BTreeSet<NodeId> = BTreeSet::new();
            for &n in current {
                for &(m, _) in csr.neighbors(n) {
                    if current.binary_search(&m).is_err() {
                        neighbors.insert(m);
                    }
                }
            }
            for m in neighbors {
                let mut next = current.clone();
                let at = next.binary_search(&m).unwrap_err();
                next.insert(at, m);
                if self.visited.insert(next.clone().into_boxed_slice()) {
                    self.expansions += 1;
                    if interrupt(self.expansions) {
                        // Budget exhausted mid-level: drop the partial
                        // level and end enumeration. Callers see every
                        // prior (complete) level only.
                        self.frontier = Vec::new();
                        self.size += 1;
                        self.truncated = true;
                        return;
                    }
                    next_frontier.push(next);
                }
            }
        }
        self.frontier = next_frontier;
        self.size += 1;
    }
}

/// Enumerate every *connected, total* joining network with at most
/// `max_tuples` tuples (DISCOVER's size bound `T`), by breadth-first
/// growth from the members of the smallest keyword set.
///
/// Networks are returned deduplicated, in ascending size order (within
/// a size, in growth order, which depends only on the graph). The
/// search space is exponential in `max_tuples`; intended for the small
/// bounds DISCOVER uses in practice (T ≤ 5–7).
pub fn enumerate_joining_networks(
    dg: &DataGraph,
    keyword_sets: &[HashSet<NodeId>],
    max_tuples: usize,
) -> Vec<BTreeSet<NodeId>> {
    let mut levels = JoiningNetworkLevels::new(dg, keyword_sets);
    let mut results = Vec::new();
    while levels.next_size() <= max_tuples {
        match levels.next_level() {
            Some(totals) => results.extend(totals),
            None => break,
        }
    }
    results
}

/// Convenience: enumerate all MTJNTs up to `max_tuples`.
pub fn enumerate_mtjnts(
    dg: &DataGraph,
    keyword_sets: &[HashSet<NodeId>],
    max_tuples: usize,
) -> Vec<BTreeSet<NodeId>> {
    enumerate_mtjnts_budgeted(dg, keyword_sets, max_tuples, &mut 0, &mut |_| false).0
}

/// [`enumerate_mtjnts`] with work accounting and a cooperative budget
/// probe. `*expansions` grows by the number of candidate networks
/// materialized, the counter the engine surfaces through `SearchStats` for
/// the DISCOVER algorithm; `interrupt` is probed with that running count
/// (`&mut |_| false` never fires). When the probe fires, the level being
/// built is dropped and enumeration stops; the second return value is
/// `Some(s)` where `s` is the size of the last *complete* level enumerated
/// — every MTJNT of at most `s` tuples is in the output, and every missing
/// network has at least `s + 1` tuples (hence at least `s` foreign-key
/// edges), the rank floor the engine's certified-prefix trim uses. `None`
/// means the enumeration ran to the size bound untruncated.
pub fn enumerate_mtjnts_budgeted(
    dg: &DataGraph,
    keyword_sets: &[HashSet<NodeId>],
    max_tuples: usize,
    expansions: &mut u64,
    interrupt: &mut dyn FnMut(u64) -> bool,
) -> (Vec<BTreeSet<NodeId>>, Option<usize>) {
    let mut levels = JoiningNetworkLevels::new(dg, keyword_sets);
    let mut results = Vec::new();
    let mut completed = 0usize;
    while levels.next_size() <= max_tuples {
        let size = levels.next_size();
        match levels.next_level_budgeted(interrupt) {
            Some(totals) => {
                completed = size;
                results.extend(totals.into_iter().filter(|n| is_mtjnt(dg, n, keyword_sets)))
            }
            None => break,
        }
    }
    *expansions += levels.expansions();
    let floor = levels.truncated().then_some(completed);
    (results, floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_datagen::{company, CompanyDb};

    fn setup() -> (CompanyDb, DataGraph) {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        (c, dg)
    }

    fn node(c: &CompanyDb, dg: &DataGraph, alias: &str) -> NodeId {
        dg.node_of(c.tuple(alias).unwrap()).unwrap()
    }

    fn network(c: &CompanyDb, dg: &DataGraph, aliases: &[&str]) -> BTreeSet<NodeId> {
        aliases.iter().map(|a| node(c, dg, a)).collect()
    }

    /// Keyword sets for "Smith XML" on the company instance.
    fn smith_xml(c: &CompanyDb, dg: &DataGraph) -> Vec<HashSet<NodeId>> {
        let smith: HashSet<NodeId> = ["e1", "e2"].iter().map(|a| node(c, dg, a)).collect();
        let xml: HashSet<NodeId> =
            ["d1", "d2", "p1", "p2"].iter().map(|a| node(c, dg, a)).collect();
        vec![smith, xml]
    }

    /// §3: "In the previous example connections 3, 4, 6 and 7 are lost,
    /// if the MTJNT approach were followed."
    #[test]
    fn mtjnt_loses_connections_3_4_6_7() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        let lost: &[&[&str]] = &[
            &["p1", "d1", "e1"],         // connection 3
            &["d1", "p1", "w_f1", "e1"], // connection 4
            &["p2", "d2", "e2"],         // connection 6
            &["d2", "p3", "w_f2", "e2"], // connection 7
        ];
        for aliases in lost {
            let n = network(&c, &dg, aliases);
            assert!(is_total(&n, &kw), "{aliases:?} is total");
            assert!(is_joining(&dg, &n), "{aliases:?} is joining");
            assert!(!is_mtjnt(&dg, &n, &kw), "{aliases:?} must be lost by MTJNT");
        }
    }

    /// Connections 1, 2 and 5 survive the MTJNT filter.
    #[test]
    fn mtjnt_keeps_connections_1_2_5() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        let kept: &[&[&str]] = &[
            &["d1", "e1"],         // connection 1
            &["p1", "w_f1", "e1"], // connection 2
            &["d2", "e2"],         // connection 5
        ];
        for aliases in kept {
            let n = network(&c, &dg, aliases);
            assert!(is_mtjnt(&dg, &n, &kw), "{aliases:?} must be a MTJNT");
        }
    }

    #[test]
    fn enumeration_finds_exactly_the_mtjnts() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        let mtjnts = enumerate_mtjnts(&dg, &kw, 4);
        let mut rendered: Vec<Vec<String>> = mtjnts
            .iter()
            .map(|n| {
                let mut v: Vec<String> = n.iter().map(|&x| c.alias(dg.tuple_of(x))).collect();
                v.sort();
                v
            })
            .collect();
        rendered.sort();
        let mut expect = vec![
            vec!["d1".to_owned(), "e1".to_owned()],
            vec!["e1".to_owned(), "p1".to_owned(), "w_f1".to_owned()],
            vec!["d2".to_owned(), "e2".to_owned()],
        ];
        expect.iter_mut().for_each(|v| v.sort());
        expect.sort();
        assert_eq!(rendered, expect);
    }

    #[test]
    fn non_joining_network_rejected() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        // d1 and e2 are not adjacent (e2 works for d2).
        let n = network(&c, &dg, &["d1", "e2"]);
        assert!(is_total(&n, &kw));
        assert!(!is_joining(&dg, &n));
        assert!(!is_mtjnt(&dg, &n, &kw));
    }

    #[test]
    fn non_total_network_rejected() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        let n = network(&c, &dg, &["d3", "e3"]); // no Smith, no XML
        assert!(!is_total(&n, &kw));
        assert!(!is_mtjnt(&dg, &n, &kw));
    }

    #[test]
    fn single_tuple_covering_all_keywords_is_minimal() {
        let (c, dg) = setup();
        // Query "teaching xml": d1 alone covers both.
        let teaching: HashSet<NodeId> =
            ["d1", "d2", "d3"].iter().map(|a| node(&c, &dg, a)).collect();
        let xml: HashSet<NodeId> =
            ["d1", "d2", "p1", "p2"].iter().map(|a| node(&c, &dg, a)).collect();
        let kw = vec![teaching, xml];
        let n = network(&c, &dg, &["d1"]);
        assert!(is_mtjnt(&dg, &n, &kw));
    }

    #[test]
    fn enumeration_respects_size_bound() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        for bound in 1..=5 {
            for n in enumerate_joining_networks(&dg, &kw, bound) {
                assert!(n.len() <= bound);
                assert!(is_total(&n, &kw));
                assert!(is_joining(&dg, &n));
            }
        }
    }

    /// The level generator reports networks strictly by size, its
    /// levels concatenate to the batch enumeration, and cutting it
    /// early materializes strictly fewer candidates.
    #[test]
    fn level_generator_matches_batch_and_counts_materializations() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        let mut levels = JoiningNetworkLevels::new(&dg, &kw);
        let mut collected: Vec<BTreeSet<NodeId>> = Vec::new();
        for expect_size in 1..=4usize {
            assert_eq!(levels.next_size(), expect_size);
            let totals = levels.next_level().expect("company graph has ≥4-node networks");
            assert!(totals.iter().all(|n| n.len() == expect_size), "size {expect_size}");
            collected.extend(totals);
        }
        let cut_cost = levels.expansions();
        let mut batch = enumerate_joining_networks(&dg, &kw, 4);
        batch.sort();
        collected.sort();
        assert_eq!(collected, batch);

        // Running two levels deeper keeps materializing new candidates:
        // the early cut really skipped that work.
        levels.next_level();
        assert!(levels.expansions() > cut_cost);
        let mut one_level = JoiningNetworkLevels::new(&dg, &kw);
        one_level.next_level();
        assert!(one_level.expansions() < cut_cost);
    }

    #[test]
    fn enumeration_with_empty_keyword_set_is_empty() {
        let (c, dg) = setup();
        let smith: HashSet<NodeId> = [node(&c, &dg, "e1")].into();
        assert!(enumerate_joining_networks(&dg, &[smith, HashSet::new()], 4).is_empty());
        assert!(enumerate_joining_networks(&dg, &[], 4).is_empty());
    }

    #[test]
    fn larger_bound_finds_superset_of_totals() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        let small = enumerate_joining_networks(&dg, &kw, 3);
        let large = enumerate_joining_networks(&dg, &kw, 4);
        let small_set: HashSet<_> = small.into_iter().collect();
        let large_set: HashSet<_> = large.into_iter().collect();
        assert!(small_set.is_subset(&large_set));
        assert!(large_set.len() > small_set.len());
    }
}
