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
//! reproduce that claim exactly; [`JoiningNetworkLevels`] and
//! [`enumerate_mtjnts`] grow the MTJNTs up to a size bound (the
//! DISCOVER candidate-network parameter `T`), growing only networks
//! that can still become one.

use crate::datagraph::DataGraph;
use cla_graph::{bounded_bfs_distances_into, is_connected_subset_sorted, NodeId};
use std::collections::{BTreeSet, HashSet, VecDeque};

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

/// Size-level generator of the MTJNTs of at most `max_tuples` tuples
/// (DISCOVER's size bound `T`), exposed so the engine's streaming top-k
/// mode can consume them **one tuple-count level at a time** and cut
/// enumeration as soon as the held top k dominates every larger network
/// under a length-monotone ranker (a network of `s` tuples yields a
/// connection of `s - 1` foreign-key edges, so size is a rank lower
/// bound).
///
/// Growth is breadth-first from the members of the smallest keyword
/// set, taken in node order, and grows only networks that can still
/// become an MTJNT within the bound:
///
/// * a **total** network is reported (when minimal) but never grown: a
///   connected proper superset of a connected total network always has
///   a removable spanning-tree leaf, so it is never minimal;
/// * a non-total network of `s` tuples is **dropped** when some keyword
///   set it misses lies more than `max_tuples - s` hops from all of its
///   members (one bounded BFS per keyword set, capped at
///   `max_tuples - 1` hops, gives the distances).
///
/// Every connected proper subset of an MTJNT is non-total and within
/// reach of each keyword set it misses, so every growth path to an
/// MTJNT survives, and each level reports exactly the MTJNTs of its
/// size, in the order the unpruned growth finds them. Each network of a
/// level is stored once, flat, with a keyword-coverage bitmask, and is
/// counted into [`JoiningNetworkLevels::expansions`], the "network
/// materializations" figure `SearchStats` reports for DISCOVER: only
/// networks that can still become MTJNTs are counted, so an expansion
/// cap reaches further than it would over every connected network.
#[derive(Debug)]
pub struct JoiningNetworkLevels<'a> {
    dg: &'a DataGraph,
    keyword_sets: &'a [HashSet<NodeId>],
    max_tuples: usize,
    /// `hops[i][n]`: hop distance from node `n` to the nearest member of
    /// keyword set `i`, `u32::MAX` beyond `max_tuples - 1` hops. A zero
    /// marks a member.
    hops: Vec<Vec<u32>>,
    /// The networks of the current level, `size` sorted nodes each.
    nodes: Vec<NodeId>,
    /// Keyword coverage per network of the level, `full.len()` words
    /// each: bit `i` is set iff a member lies in keyword set `i`.
    cover: Vec<u64>,
    /// The coverage of a total network.
    full: Vec<u64>,
    /// Tuple count of the networks currently in `nodes`.
    size: usize,
    /// Growth happens lazily at the *start* of the next call, so a
    /// caller that cuts enumeration never pays for a level it skips.
    primed: bool,
    expansions: u64,
    /// Set when a budget interrupt fired while a level was built (seeded
    /// or grown): that level was dropped (it was incomplete) and the
    /// level cleared, so enumeration ends. Every level already
    /// *reported* was complete.
    truncated: bool,
}

impl<'a> JoiningNetworkLevels<'a> {
    /// Prepare the enumeration of MTJNTs of at most `max_tuples` tuples
    /// (the first [`Self::next_level`] call builds the seed level).
    /// With an empty keyword set (conjunctive semantics) the enumerator
    /// yields nothing.
    pub fn new(
        dg: &'a DataGraph,
        keyword_sets: &'a [HashSet<NodeId>],
        max_tuples: usize,
    ) -> Self {
        let mut levels = JoiningNetworkLevels {
            dg,
            keyword_sets,
            max_tuples,
            hops: Vec::new(),
            nodes: Vec::new(),
            cover: Vec::new(),
            full: Vec::new(),
            size: 1,
            primed: false,
            expansions: 0,
            truncated: false,
        };
        if max_tuples == 0 || keyword_sets.iter().any(HashSet::is_empty) {
            return levels;
        }
        let cap = u32::try_from(max_tuples - 1).unwrap_or(u32::MAX);
        let mut queue = VecDeque::new();
        let mut sources: Vec<NodeId> = Vec::new();
        for set in keyword_sets {
            sources.clear();
            sources.extend(set.iter().copied());
            let mut hops = Vec::new();
            bounded_bfs_distances_into(dg.csr(), &sources, cap, &mut hops, &mut queue);
            levels.hops.push(hops);
        }
        levels.full = vec![0; keyword_sets.len().div_ceil(64)];
        for i in 0..keyword_sets.len() {
            levels.full[i / 64] |= 1 << (i % 64);
        }
        levels
    }

    /// Build the one-tuple level from the seeds (the smallest keyword
    /// set): each seed that can still become an MTJNT is a network,
    /// counted and probed like a grown one, so a cap below the seed
    /// count binds too.
    fn seed(&mut self, interrupt: &mut dyn FnMut(u64) -> bool) {
        // Seed in node order, not hash-set order: the level order is the
        // order every later level, and so the reported networks, come
        // out in.
        let Some(seed_set) = self.keyword_sets.iter().min_by_key(|s| s.len()) else {
            return;
        };
        let mut seeds: Vec<NodeId> = seed_set.iter().copied().collect();
        seeds.sort_unstable();
        let mut cover = vec![0; self.full.len()];
        for seed in seeds {
            cover.fill(0);
            self.cover_node(&mut cover, seed);
            if self.can_become_mtjnt(&cover, 1, |i| self.hops[i][seed.index()]) {
                self.nodes.push(seed);
                self.cover.extend_from_slice(&cover);
                self.expansions += 1;
                if interrupt(self.expansions) {
                    self.truncated = true;
                    self.nodes.clear();
                    self.cover.clear();
                    return;
                }
            }
        }
    }

    /// Networks materialized so far: each distinct network that can
    /// still become an MTJNT, total or not, built once.
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

    /// Report every MTJNT of the next size level, in growth order.
    /// Returns `None` past the size bound, or once no network that
    /// could still become an MTJNT is left to grow.
    pub fn next_level(&mut self) -> Option<Vec<BTreeSet<NodeId>>> {
        self.next_level_budgeted(&mut |_| false)
    }

    /// [`Self::next_level`] with a cooperative budget probe, called
    /// with the materialization count after each new network. When the
    /// probe returns `true` the partially built level is dropped
    /// (reporting it would break the complete-per-level invariant the
    /// ranked-prefix guarantee rests on), [`Self::truncated`] latches,
    /// and this and every later call return `None`.
    pub fn next_level_budgeted(
        &mut self,
        interrupt: &mut dyn FnMut(u64) -> bool,
    ) -> Option<Vec<BTreeSet<NodeId>>> {
        if self.next_size() > self.max_tuples || (self.primed && self.nodes.is_empty()) {
            return None;
        }
        if self.primed {
            self.grow(interrupt);
        } else {
            self.seed(interrupt);
        }
        self.primed = true;
        if self.nodes.is_empty() {
            return None;
        }
        let words = self.full.len();
        Some(
            self.nodes
                .chunks_exact(self.size)
                .zip(self.cover.chunks_exact(words))
                .filter(|&(_, cover)| cover == self.full)
                .map(|(network, _)| network.iter().copied().collect())
                .filter(|network| is_mtjnt(self.dg, network, self.keyword_sets))
                .collect(),
        )
    }

    /// Set the coverage bit of every keyword set `n` belongs to.
    fn cover_node(&self, cover: &mut [u64], n: NodeId) {
        for (i, hops) in self.hops.iter().enumerate() {
            if hops[n.index()] == 0 {
                cover[i / 64] |= 1 << (i % 64);
            }
        }
    }

    /// Whether a network of `size` tuples with coverage `cover` can
    /// still become an MTJNT of at most `max_tuples` tuples: it is
    /// total, or every keyword set `i` it misses lies within the
    /// `max_tuples - size` hops it may still grow (`hops(i)` is the
    /// network's distance to set `i`).
    fn can_become_mtjnt(
        &self,
        cover: &[u64],
        size: usize,
        hops: impl Fn(usize) -> u32,
    ) -> bool {
        if cover == self.full {
            return true;
        }
        let slack = u32::try_from(self.max_tuples - size).unwrap_or(u32::MAX);
        (0..self.hops.len()).all(|i| cover[i / 64] & (1 << (i % 64)) != 0 || hops(i) <= slack)
    }

    /// Extend every non-total network of the level by every neighbor of
    /// any of its members, keeping the extensions that can still become
    /// MTJNTs, each once. Growth keeps the sorted order by inserting
    /// each new node in place.
    fn grow(&mut self, interrupt: &mut dyn FnMut(u64) -> bool) {
        let (size, words) = (self.size, self.full.len());
        let nodes = std::mem::take(&mut self.nodes);
        let covers = std::mem::take(&mut self.cover);
        self.size += 1;
        let csr = self.dg.csr();
        let mut next = LevelBuilder::new(size + 1);
        let mut neighbors: Vec<NodeId> = Vec::new();
        let mut network_hops = vec![0u32; self.hops.len()];
        let mut candidate: Vec<NodeId> = Vec::with_capacity(size + 1);
        let mut cover = vec![0u64; words];
        for (network, network_cover) in
            nodes.chunks_exact(size).zip(covers.chunks_exact(words))
        {
            if network_cover == self.full {
                continue; // reported; every superset is non-minimal
            }
            neighbors.clear();
            for &n in network {
                neighbors.extend(
                    csr.neighbors(n)
                        .iter()
                        .map(|&(m, _)| m)
                        .filter(|m| network.binary_search(m).is_err()),
                );
            }
            neighbors.sort_unstable();
            neighbors.dedup();
            for (h, hops) in network_hops.iter_mut().zip(&self.hops) {
                *h = network.iter().map(|n| hops[n.index()]).min().unwrap_or(u32::MAX);
            }
            for &m in &neighbors {
                cover.copy_from_slice(network_cover);
                self.cover_node(&mut cover, m);
                let reach = |i: usize| network_hops[i].min(self.hops[i][m.index()]);
                if !self.can_become_mtjnt(&cover, size + 1, reach) {
                    continue;
                }
                candidate.clear();
                candidate.extend_from_slice(network);
                let at = candidate.partition_point(|&x| x < m);
                candidate.insert(at, m);
                if next.insert(&candidate, &cover) {
                    self.expansions += 1;
                    if interrupt(self.expansions) {
                        // Budget exhausted mid-level: drop the partial
                        // level and end enumeration. Callers see every
                        // prior (complete) level only.
                        self.truncated = true;
                        return;
                    }
                }
            }
        }
        self.nodes = next.nodes;
        self.cover = next.cover;
    }
}

/// The level under construction: its networks flat, `stride` sorted
/// nodes each, with their coverage, and an open-addressing table over
/// them for dedup. A network of `s + 1` tuples can only be generated
/// while its level is built, so dedup needs nothing older.
struct LevelBuilder {
    stride: usize,
    nodes: Vec<NodeId>,
    cover: Vec<u64>,
    /// Network index + 1 per slot, 0 when empty. The length is a power
    /// of two, and at most half the slots are taken.
    slots: Vec<usize>,
}

impl LevelBuilder {
    fn new(stride: usize) -> Self {
        LevelBuilder { stride, nodes: Vec::new(), cover: Vec::new(), slots: vec![0; 64] }
    }

    /// Append `network` with its coverage unless the level already
    /// holds it; `true` iff it was new.
    fn insert(&mut self, network: &[NodeId], cover: &[u64]) -> bool {
        let len = self.nodes.len() / self.stride;
        if 2 * (len + 1) > self.slots.len() {
            self.slots = vec![0; 2 * self.slots.len()];
            for j in 0..len {
                let slot =
                    self.vacant_slot(&self.nodes[j * self.stride..(j + 1) * self.stride]);
                if let Some(slot) = slot {
                    self.slots[slot] = j + 1;
                }
            }
        }
        let Some(slot) = self.vacant_slot(network) else {
            return false;
        };
        self.slots[slot] = len + 1;
        self.nodes.extend_from_slice(network);
        self.cover.extend_from_slice(cover);
        true
    }

    /// The slot `network` would take, or `None` if the level holds it.
    fn vacant_slot(&self, network: &[NodeId]) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let hash = network.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, n| {
            (h ^ u64::from(n.0)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                0 => return Some(slot),
                j if self.nodes[(j - 1) * self.stride..j * self.stride] == *network => {
                    return None
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
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
/// probe. `*expansions` grows by the number of networks materialized
/// (only those that can still become MTJNTs, see
/// [`JoiningNetworkLevels`]), the counter the engine surfaces through
/// `SearchStats` for the DISCOVER algorithm; `interrupt` is probed with
/// that running count (`&mut |_| false` never fires). When the probe
/// fires, the level being built is dropped and enumeration stops; the
/// second return value is `Some(s)` where `s` is the size of the last
/// *complete* level enumerated — every MTJNT of at most `s` tuples is in
/// the output, and every missing network has at least `s + 1` tuples
/// (hence at least `s` foreign-key edges), the rank floor the engine's
/// certified-prefix trim uses. `None` means the enumeration ran to the
/// size bound untruncated.
pub fn enumerate_mtjnts_budgeted(
    dg: &DataGraph,
    keyword_sets: &[HashSet<NodeId>],
    max_tuples: usize,
    expansions: &mut u64,
    interrupt: &mut dyn FnMut(u64) -> bool,
) -> (Vec<BTreeSet<NodeId>>, Option<usize>) {
    let mut levels = JoiningNetworkLevels::new(dg, keyword_sets, max_tuples);
    let mut results = Vec::new();
    let mut completed = 0usize;
    loop {
        let size = levels.next_size();
        let Some(mtjnts) = levels.next_level_budgeted(interrupt) else {
            break;
        };
        completed = size;
        results.extend(mtjnts);
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
        let mut counts = Vec::new();
        for bound in 1..=5 {
            let mtjnts = enumerate_mtjnts(&dg, &kw, bound);
            for n in &mtjnts {
                assert!(n.len() <= bound);
                assert!(is_mtjnt(&dg, n, &kw));
            }
            counts.push(mtjnts.len());
            let mut levels = JoiningNetworkLevels::new(&dg, &kw, bound);
            while levels.next_level().is_some() {}
            assert!(levels.next_size() <= bound + 1, "bound {bound}");
        }
        assert_eq!(counts, [0, 2, 3, 3, 3]);
    }

    /// The level generator reports MTJNTs strictly by size, its levels
    /// concatenate to the batch enumeration whatever the bound beyond
    /// them, and cutting it early materializes strictly fewer networks.
    #[test]
    fn level_generator_matches_batch_and_counts_materializations() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        let mut levels = JoiningNetworkLevels::new(&dg, &kw, 6);
        let mut collected: Vec<BTreeSet<NodeId>> = Vec::new();
        for expect_size in 1..=3usize {
            assert_eq!(levels.next_size(), expect_size);
            let mtjnts = levels.next_level().expect("company graph has ≥3-node networks");
            assert!(mtjnts.iter().all(|n| n.len() == expect_size), "size {expect_size}");
            collected.extend(mtjnts);
        }
        let cut_cost = levels.expansions();
        assert_eq!(collected, enumerate_mtjnts(&dg, &kw, 3));

        // Running a level deeper keeps materializing new networks: the
        // early cut really skipped that work.
        levels.next_level();
        assert!(levels.expansions() > cut_cost);
        let mut one_level = JoiningNetworkLevels::new(&dg, &kw, 6);
        one_level.next_level();
        assert!(one_level.expansions() < cut_cost);
        // A tighter bound prunes harder: networks that could only become
        // MTJNTs above it are never built.
        let mut tight = JoiningNetworkLevels::new(&dg, &kw, 3);
        while tight.next_level().is_some() {}
        assert!(tight.expansions() < cut_cost);
    }

    #[test]
    fn enumeration_with_empty_keyword_set_is_empty() {
        let (c, dg) = setup();
        let smith: HashSet<NodeId> = [node(&c, &dg, "e1")].into();
        let with_empty = [smith, HashSet::new()];
        assert!(enumerate_mtjnts(&dg, &with_empty, 4).is_empty());
        assert!(enumerate_mtjnts(&dg, &[], 4).is_empty());
        let mut levels = JoiningNetworkLevels::new(&dg, &with_empty, 4);
        assert!(levels.next_level().is_none());
        assert_eq!(levels.expansions(), 0);
    }

    #[test]
    fn larger_bound_finds_superset_of_totals() {
        let (c, dg) = setup();
        let kw = smith_xml(&c, &dg);
        let small = enumerate_mtjnts(&dg, &kw, 2);
        let large = enumerate_mtjnts(&dg, &kw, 3);
        let small_set: HashSet<_> = small.into_iter().collect();
        let large_set: HashSet<_> = large.into_iter().collect();
        assert!(small_set.is_subset(&large_set));
        assert!(large_set.len() > small_set.len());
    }

    /// A total network is reported and never grown, and a network too
    /// far from a keyword set it misses is never built.
    #[test]
    fn totals_stop_and_far_networks_are_pruned() {
        let (c, dg) = setup();
        // One keyword: every seed is total, so nothing grows.
        let xml: HashSet<NodeId> =
            ["d1", "d2", "p1", "p2"].iter().map(|a| node(&c, &dg, a)).collect();
        let kw = [xml];
        let mut levels = JoiningNetworkLevels::new(&dg, &kw, 5);
        assert_eq!(levels.next_level().map(|l| l.len()), Some(4));
        assert!(levels.next_level().is_none(), "a total seed must not grow");
        assert_eq!(levels.expansions(), 4);
        // At one tuple no Smith tuple is an XML tuple: no seed can become
        // an MTJNT, so none is built.
        let kw = smith_xml(&c, &dg);
        let mut levels = JoiningNetworkLevels::new(&dg, &kw, 1);
        assert!(levels.next_level().is_none());
        assert_eq!(levels.expansions(), 0);
    }
}
