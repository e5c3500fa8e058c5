//! Dijkstra shortest paths: an eager binary-heap run with pluggable
//! non-negative edge weights, and a lazy bucket-queue run over weights
//! of one or two half units, keyed by a dense node rank, that settles
//! the same forest in the same order.

use crate::csr::CsrAdjacency;
use crate::graph::{EdgeId, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of a multi-source Dijkstra run: one shortest-path **forest**
/// rooted at the sources.
///
/// Unlike taking the per-node minimum over independent single-source
/// runs, the forest is internally consistent: following `parent` from
/// any reachable node walks a real shortest path whose edge weights
/// telescope to exactly `dist`, ending at `origin[n]` — never a chain
/// spliced from two different sources' trees.
#[derive(Debug, Clone)]
pub struct MultiSourceDijkstra {
    /// `dist[n]` is the weighted distance to the nearest source
    /// (`f64::INFINITY` when unreachable).
    pub dist: Vec<f64>,
    /// `parent[n]` is the `(predecessor, edge)` on the shortest path
    /// back toward `origin[n]` (`None` at sources and unreachable nodes).
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
    /// `origin[n]` is the source whose tree contains `n` (`None` when
    /// unreachable).
    pub origin: Vec<Option<NodeId>>,
}

impl MultiSourceDijkstra {
    /// Reconstruct the path from `origin[target]` to `target`, if
    /// reachable.
    pub fn path_to(&self, target: NodeId) -> Option<(Vec<NodeId>, Vec<EdgeId>)> {
        if self.dist[target.index()].is_infinite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut current = target;
        while let Some((prev, edge)) = self.parent[current.index()] {
            nodes.push(prev);
            edges.push(edge);
            current = prev;
        }
        nodes.reverse();
        edges.reverse();
        Some((nodes, edges))
    }
}

/// Multi-source Dijkstra over a CSR adjacency: shortest distance from
/// every node to its nearest source, as one consistent forest (the
/// "virtual source" formulation — all sources start on the heap at
/// distance 0). Duplicate source entries are ignored. This is the eager
/// expansion the lazy one ([`LazyDijkstra`]) must reproduce, and the
/// reference side of the BANKS oracle.
///
/// Taking the per-node **minimum** over single-source runs instead
/// produces parent pointers from *different* sources' trees, so a
/// walked parent chain can splice two trees together and its edge
/// weights no longer sum to `dist` (and the chain may end at a
/// different source than the claimed nearest one).
///
/// Deterministic: equal-distance heap ties break by `key(node)`, then
/// by node id, and relaxations keep the first-found parent among equal
/// distances. Distances are tie-independent; **parent chains are
/// not** — the first-processed node at a given distance claims
/// parenthood of its unreached neighbors. On a graph that was patched
/// incrementally, node ids reflect insertion history, so id-based ties
/// would pick different (equally short) chains than on a freshly
/// rebuilt graph. Keying the ties by a stable external identity (the
/// data graph passes the node's `TupleId`) makes the forest — and
/// everything assembled from it — depend only on graph *content*, which
/// is what the patched ≡ rebuilt equivalence property needs.
pub fn multi_source_dijkstra_csr_by_key<W, K, F>(
    csr: &CsrAdjacency,
    sources: &[NodeId],
    weight: W,
    key: F,
) -> MultiSourceDijkstra
where
    W: Fn(EdgeId) -> f64,
    K: Ord + Copy,
    F: Fn(NodeId) -> K,
{
    let mut dist = vec![f64::INFINITY; csr.node_count()];
    let mut parent = vec![None; csr.node_count()];
    let mut origin: Vec<Option<NodeId>> = vec![None; csr.node_count()];
    let mut heap: BinaryHeap<KeyedEntry<K>> = BinaryHeap::new();
    for &s in sources {
        if origin[s.index()].is_none() {
            dist[s.index()] = 0.0;
            origin[s.index()] = Some(s);
            heap.push(KeyedEntry { dist: 0.0, key: key(s), node: s });
        }
    }
    while let Some(KeyedEntry { dist: d, node: n, .. }) = heap.pop() {
        if d > dist[n.index()] {
            continue; // stale entry
        }
        for &(m, e) in csr.neighbors(n) {
            let w = weight(e);
            debug_assert!(w >= 0.0, "negative edge weight {w} on edge {e}");
            let nd = d + w;
            if nd < dist[m.index()] {
                dist[m.index()] = nd;
                parent[m.index()] = Some((n, e));
                origin[m.index()] = origin[n.index()];
                heap.push(KeyedEntry { dist: nd, key: key(m), node: m });
            }
        }
    }
    MultiSourceDijkstra { dist, parent, origin }
}

/// An **incremental** multi-source Dijkstra over edge weights of one
/// or two *half units*: the same shortest-path forest as
/// [`multi_source_dijkstra_csr_by_key`] run with the same weights and a
/// key that ranks every node uniquely, settled one node at a time on
/// demand instead of eagerly to exhaustion.
///
/// This is the substrate of BANKS-style expansion with a top-k cutoff:
/// each keyword set owns one `LazyDijkstra`, the search settles the
/// keyword sets' frontiers one distance level at a time, and expansion
/// stops as soon as the frontier distances prove that no future
/// candidate root can enter the top k.
///
/// Ties at equal distance break by a dense `u32` **rank**, unique per
/// node, that the caller supplies in both directions (`rank(node)` and
/// `node_at(rank)`); `cla-core` ranks a node by its tuple's position in
/// tuple order, so the forest depends on graph content, not on node
/// ids.
///
/// The frontier is a bucket queue (Dial's algorithm). Distances are
/// whole half units, and a ring of three buckets holds the frontier at
/// the current distance `d`, at `d + 1` and at `d + 2`; each bucket is
/// a bitset over ranks. Settling a node at `d` relaxes its edges to
/// `d + 1` or `d + 2`, never to `d`, because every weight is at least
/// one half unit, so no relaxation reaches the bucket being drained,
/// and draining it in ascending bit order takes its nodes in rank order
/// without sorting anything. A relaxation that improves a frontier
/// node moves its bit from the old bucket to the new one, so a bucket
/// never holds a stale entry. Settles therefore follow the eager run's
/// heap order `(dist, rank)` exactly, each performs the same
/// relaxations (a neighbour's parent is the first settled node that
/// reaches it at its final distance), and the distances and parents of
/// a lazy run driven to exhaustion are **identical** to the eager
/// forest's; any prefix of settles is a prefix of that forest. There is
/// no `origin` array: a parent chain ends at its origin, the first node
/// without a parent.
///
/// Buffers are reusable: [`LazyDijkstra::reset`] re-arms the state for
/// a new source set without re-allocating, so a warm search epoch runs
/// the whole expansion allocation-free.
#[derive(Debug, Clone, Default)]
pub struct LazyDijkstra {
    /// `dist[n]` in half units: final once `n` is settled, the best
    /// distance found so far before that, `u32::MAX` while unreached.
    pub dist: Vec<u32>,
    /// `parent_node[n]` is the predecessor of `n` on its shortest path
    /// toward its origin, `NO_PARENT` at sources and unreached nodes;
    /// final once `n` is settled.
    parent_node: Vec<u32>,
    /// `parent_edge[n]` is the edge from `parent_node[n]` to `n`, read
    /// only where `parent_node[n]` is set.
    parent_edge: Vec<u32>,
    /// `buckets[d % 3]` holds the ranks of the unsettled nodes at
    /// distance `d`, for `d` in `current..=current + 2`.
    buckets: [RankSet; 3],
    /// The distance of the bucket being drained.
    current: u32,
}

/// The `parent_node` entry of a node without a parent.
const NO_PARENT: u32 = u32::MAX;

impl LazyDijkstra {
    /// A lazy run over `node_count` node slots and `rank_count` ranks
    /// from `sources` (duplicates ignored), distance ties broken by
    /// `rank`, which must map every node the run can reach to a distinct
    /// rank below `rank_count`.
    pub fn new<R: Fn(NodeId) -> u32>(
        node_count: usize,
        rank_count: usize,
        sources: &[NodeId],
        rank: R,
    ) -> Self {
        let mut lazy = LazyDijkstra::default();
        lazy.reset(node_count, rank_count, sources, rank);
        lazy
    }

    /// Re-arm for a fresh run, reusing every buffer.
    pub fn reset<R: Fn(NodeId) -> u32>(
        &mut self,
        node_count: usize,
        rank_count: usize,
        sources: &[NodeId],
        rank: R,
    ) {
        self.dist.clear();
        self.dist.resize(node_count, u32::MAX);
        self.parent_node.clear();
        self.parent_node.resize(node_count, NO_PARENT);
        self.parent_edge.resize(node_count, 0);
        for bucket in &mut self.buckets {
            bucket.reset(rank_count);
        }
        self.current = 0;
        for &s in sources {
            if self.dist[s.index()] == u32::MAX {
                self.dist[s.index()] = 0;
                self.buckets[0].insert(rank(s));
            }
        }
    }

    /// The `(predecessor, edge)` on `n`'s shortest path back toward its
    /// origin: `None` at a source or an unreached node. Final once `n`
    /// is settled.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<(NodeId, EdgeId)> {
        let p = self.parent_node[n.index()];
        (p != NO_PARENT).then(|| (NodeId(p), EdgeId(self.parent_edge[n.index()])))
    }

    /// The distance in half units the next [`LazyDijkstra::settle_next`]
    /// will settle at, or `None` when the frontier is exhausted. Moves
    /// on to the next bucket as a side effect; never settles.
    pub fn frontier_dist(&mut self) -> Option<u32> {
        loop {
            let current = self.current as usize;
            if self.buckets[current % 3].first().is_some() {
                return Some(self.current);
            }
            if self.buckets[(current + 1) % 3].first().is_none()
                && self.buckets[(current + 2) % 3].first().is_none()
            {
                return None;
            }
            // The drained bucket is empty, so it can serve as the bucket
            // of distance `current + 3`.
            self.current += 1;
        }
    }

    /// Settle the frontier node of least `(dist, rank)` and relax its
    /// neighbors, returning `(node, dist)` with `dist` in half units —
    /// or `None` when exhausted. `weight` gives each edge's weight in
    /// half units and must return 1 or 2 (the ring holds three
    /// distances); `rank` and `node_at` are the two directions of the
    /// node ranking. All three must be the same functions on every call
    /// and agree with the `rank` of [`LazyDijkstra::reset`] (the forest
    /// is built across calls).
    ///
    /// # Panics
    ///
    /// If `weight` returns anything other than 1 or 2.
    pub fn settle_next<W, R, N>(
        &mut self,
        csr: &CsrAdjacency,
        weight: W,
        rank: R,
        node_at: N,
    ) -> Option<(NodeId, u32)>
    where
        W: Fn(EdgeId) -> u32,
        R: Fn(NodeId) -> u32,
        N: Fn(u32) -> NodeId,
    {
        let d = self.frontier_dist()?;
        // lint: allow(unwrap, frontier_dist found the current bucket non-empty)
        let n = node_at(self.buckets[d as usize % 3].pop_first().expect("a frontier node"));
        for &(m, e) in csr.neighbors(n) {
            let w = weight(e);
            assert!(w == 1 || w == 2, "edge {e} weighs {w} half units, not 1 or 2");
            let nd = d + w;
            let old = self.dist[m.index()];
            if nd < old {
                let r = rank(m);
                if old != u32::MAX {
                    // Only `d + 2` can improve (to `d + 1`): every other
                    // finite distance is settled or at `d`.
                    self.buckets[old as usize % 3].remove(r);
                }
                self.dist[m.index()] = nd;
                self.parent_node[m.index()] = n.0;
                self.parent_edge[m.index()] = e.0;
                self.buckets[nd as usize % 3].insert(r);
            }
        }
        Some((n, d))
    }
}

/// A set of ranks as a bitset, whose set bits all lie in the words
/// `lo..hi`: taking the least rank scans forward from `lo`, and a reset
/// clears only that span.
#[derive(Debug, Clone, Default)]
struct RankSet {
    words: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl RankSet {
    /// Empty the set and size it for `rank_count` ranks.
    fn reset(&mut self, rank_count: usize) {
        if self.lo < self.hi {
            self.words[self.lo..self.hi].fill(0);
        }
        self.words.resize(rank_count.div_ceil(64), 0);
        self.lo = 0;
        self.hi = 0;
    }

    #[inline]
    fn insert(&mut self, rank: u32) {
        let word = rank as usize / 64;
        self.words[word] |= 1 << (rank % 64);
        if self.lo >= self.hi {
            self.lo = word;
            self.hi = word + 1;
        } else {
            self.lo = self.lo.min(word);
            self.hi = self.hi.max(word + 1);
        }
    }

    #[inline]
    fn remove(&mut self, rank: u32) {
        self.words[rank as usize / 64] &= !(1 << (rank % 64));
    }

    /// The least rank in the set. Skips the empty words below it, so
    /// later calls start there.
    #[inline]
    fn first(&mut self) -> Option<u32> {
        while self.lo < self.hi {
            let word = self.words[self.lo];
            if word != 0 {
                return Some((self.lo * 64) as u32 + word.trailing_zeros());
            }
            self.lo += 1;
        }
        None
    }

    /// Remove and return the least rank in the set.
    #[inline]
    fn pop_first(&mut self) -> Option<u32> {
        let rank = self.first()?;
        let word = &mut self.words[self.lo];
        *word &= *word - 1;
        Some(rank)
    }
}

/// Max-heap entry ordered by reversed `(dist, key, node)` (so the heap
/// pops the minimum, ties broken by the external key first).
#[derive(Debug, Clone)]
struct KeyedEntry<K> {
    dist: f64,
    key: K,
    node: NodeId,
}

impl<K: Ord> PartialEq for KeyedEntry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K: Ord> Eq for KeyedEntry<K> {}
impl<K: Ord> PartialOrd for KeyedEntry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord> Ord for KeyedEntry<K> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::traversal::bounded_bfs_distances_into;
    use std::collections::VecDeque;

    /// Weighted diamond: a→b (1), b→d (1), a→c (5), c→d (1), a→d (10).
    fn graph() -> (Graph<(), f64>, Vec<NodeId>) {
        let mut g = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(a, b, 1.0);
        g.add_edge(b, d, 1.0);
        g.add_edge(a, c, 5.0);
        g.add_edge(c, d, 1.0);
        g.add_edge(a, d, 10.0);
        (g, vec![a, b, c, d])
    }

    /// The forest from `sources`, ties broken by node id.
    fn forest<W: Fn(EdgeId) -> f64>(
        csr: &CsrAdjacency,
        sources: &[NodeId],
        weight: W,
    ) -> MultiSourceDijkstra {
        multi_source_dijkstra_csr_by_key(csr, sources, weight, |n| n)
    }

    #[test]
    fn picks_cheapest_route() {
        let (g, ns) = graph();
        let csr = CsrAdjacency::build(&g);
        let r = forest(&csr, &[ns[0]], |e| *g.edge(e).payload);
        assert_eq!(r.dist[ns[3].index()], 2.0);
        let (nodes, edges) = r.path_to(ns[3]).unwrap();
        assert_eq!(nodes, vec![ns[0], ns[1], ns[3]]);
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn unit_weights_match_bfs() {
        let (g, ns) = graph();
        let csr = CsrAdjacency::build(&g);
        let r = forest(&csr, &[ns[0]], |_| 1.0);
        let mut bfs = Vec::new();
        bounded_bfs_distances_into(&csr, &[ns[0]], u32::MAX, &mut bfs, &mut VecDeque::new());
        for n in g.nodes() {
            assert_eq!(r.dist[n.index()], f64::from(bfs[n.index()]));
        }
    }

    #[test]
    fn start_has_zero_distance_and_no_parent() {
        let (g, ns) = graph();
        let r = forest(&CsrAdjacency::build(&g), &[ns[0]], |_| 1.0);
        assert_eq!(r.dist[ns[0].index()], 0.0);
        assert!(r.parent[ns[0].index()].is_none());
        let (nodes, edges) = r.path_to(ns[0]).unwrap();
        assert_eq!(nodes, vec![ns[0]]);
        assert!(edges.is_empty());
    }

    #[test]
    fn multi_source_matches_min_over_single_sources() {
        let (g, ns) = graph();
        let csr = CsrAdjacency::build(&g);
        let weight = |e: EdgeId| *g.edge(e).payload;
        let sources = [ns[1], ns[2]];
        let ms = forest(&csr, &sources, weight);
        for n in g.nodes() {
            let best = sources
                .iter()
                .map(|&s| forest(&csr, &[s], weight).dist[n.index()])
                .fold(f64::INFINITY, f64::min);
            assert_eq!(ms.dist[n.index()], best, "node {n}");
        }
    }

    #[test]
    fn multi_source_chains_are_consistent() {
        let (g, ns) = graph();
        let csr = CsrAdjacency::build(&g);
        let weight = |e: EdgeId| *g.edge(e).payload;
        let ms = forest(&csr, &[ns[1], ns[2]], weight);
        for n in g.nodes() {
            let Some((nodes, edges)) = ms.path_to(n) else { continue };
            // The walked chain starts at the recorded origin and its edge
            // weights telescope to exactly the reported distance.
            assert_eq!(Some(nodes[0]), ms.origin[n.index()]);
            assert_eq!(*nodes.last().unwrap(), n);
            let sum: f64 = edges.iter().map(|&e| weight(e)).sum();
            assert_eq!(sum, ms.dist[n.index()], "node {n}");
        }
    }

    #[test]
    fn multi_source_sources_have_zero_distance_and_self_origin() {
        let (g, ns) = graph();
        let csr = CsrAdjacency::build(&g);
        // Duplicate source entries are ignored.
        let ms = forest(&csr, &[ns[0], ns[0]], |_| 1.0);
        assert_eq!(ms.dist[ns[0].index()], 0.0);
        assert_eq!(ms.origin[ns[0].index()], Some(ns[0]));
        assert!(ms.parent[ns[0].index()].is_none());
    }

    #[test]
    fn multi_source_unreachable_nodes_have_no_origin() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let csr = CsrAdjacency::build(&g);
        let ms = forest(&csr, &[a], |_| 1.0);
        assert!(ms.dist[b.index()].is_infinite());
        assert_eq!(ms.origin[b.index()], None);
        assert!(ms.path_to(b).is_none());
    }

    /// The root of `n`'s parent chain in a lazy run.
    fn chain_end(lazy: &LazyDijkstra, mut n: NodeId) -> NodeId {
        while let Some((prev, _)) = lazy.parent(n) {
            n = prev;
        }
        n
    }

    /// A lazy run driven to exhaustion produces exactly the eager
    /// forest, and any settle prefix agrees with it on settled nodes,
    /// with ties broken by a rank that reverses node order.
    #[test]
    fn lazy_dijkstra_matches_eager_forest() {
        let (g, ns) = graph();
        let csr = CsrAdjacency::build(&g);
        // The diamond's weights clamped to one or two half units.
        let half = |e: EdgeId| if *g.edge(e).payload == 1.0 { 1 } else { 2 };
        let weight = |e: EdgeId| f64::from(half(e));
        let count = csr.node_count() as u32;
        let rank = |n: NodeId| count - 1 - n.0;
        let node_at = |r: u32| NodeId(count - 1 - r);
        let sources = [ns[1], ns[2]];
        let eager = multi_source_dijkstra_csr_by_key(&csr, &sources, weight, rank);
        let mut lazy = LazyDijkstra::new(csr.node_count(), csr.node_count(), &sources, rank);
        let mut settles = 0;
        while let Some(front) = lazy.frontier_dist() {
            let (n, d) = lazy.settle_next(&csr, half, rank, node_at).unwrap();
            assert_eq!(d, front, "frontier peek must predict the settle");
            assert_eq!(f64::from(lazy.dist[n.index()]), eager.dist[n.index()], "node {n}");
            assert_eq!(lazy.parent(n), eager.parent[n.index()], "node {n}");
            assert_eq!(Some(chain_end(&lazy, n)), eager.origin[n.index()], "node {n}");
            settles += 1;
        }
        assert_eq!(settles, g.node_count(), "connected graph settles every node");
        assert!(lazy.settle_next(&csr, half, rank, node_at).is_none());
        // Reset reuses the buffers for a fresh run.
        lazy.reset(csr.node_count(), csr.node_count(), &[ns[0]], rank);
        let eager0 = multi_source_dijkstra_csr_by_key(&csr, &[ns[0]], weight, rank);
        while lazy.settle_next(&csr, half, rank, node_at).is_some() {}
        let dist: Vec<f64> = lazy.dist.iter().map(|&d| f64::from(d)).collect();
        assert_eq!(dist, eager0.dist);
        for n in g.nodes() {
            assert_eq!(lazy.parent(n), eager0.parent[n.index()], "node {n}");
        }
    }

    /// A weight outside one or two half units would land in the ring's
    /// current bucket; it is refused.
    #[test]
    #[should_panic(expected = "half units, not 1 or 2")]
    fn lazy_dijkstra_refuses_weights_past_two_half_units() {
        let (g, ns) = graph();
        let csr = CsrAdjacency::build(&g);
        let rank = |n: NodeId| n.0;
        let mut lazy = LazyDijkstra::new(csr.node_count(), csr.node_count(), &[ns[0]], rank);
        lazy.settle_next(&csr, |_| 3, rank, NodeId);
    }

    #[test]
    fn zero_weight_edges_are_fine() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, ());
        let r = forest(&CsrAdjacency::build(&g), &[a], |_| 0.0);
        assert_eq!(r.dist[b.index()], 0.0);
    }
}
