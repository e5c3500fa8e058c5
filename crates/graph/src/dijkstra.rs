//! Dijkstra shortest paths: an eager binary-heap run with pluggable
//! non-negative edge weights, and a lazy bucket-queue run over weights
//! of one or two half units that settles the same forest in the same
//! order.

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
/// [`multi_source_dijkstra_csr_by_key`] run with the same weights,
/// settled one node at a time on demand instead of eagerly to
/// exhaustion.
///
/// This is the substrate of BANKS-style expansion with a top-k cutoff:
/// each keyword set owns one `LazyDijkstra`, the search settles
/// whichever set's frontier is globally cheapest, and expansion stops
/// as soon as the frontier distances prove that no future candidate
/// root can enter the top k.
///
/// The frontier is a bucket queue (Dial's algorithm). Distances are
/// whole half units, and a ring of three buckets holds the entries
/// pushed at the current distance `d`, at `d + 1` and at `d + 2`.
/// Settling a node at `d` relaxes its edges to `d + 1` or `d + 2`,
/// never to `d`, because every weight is at least one half unit. So
/// no push reaches the bucket being drained, and that bucket is sorted
/// by `(key, node)` once, when it becomes current. Settles therefore
/// follow the eager run's heap order `(dist, key, node)` exactly, each
/// performs the same relaxations (a neighbour's parent is the first
/// settled node that reaches it at its final distance), and the
/// `dist`/`parent`/`origin` arrays of a lazy run driven to exhaustion
/// are **identical** to the eager forest; any prefix of settles is a
/// prefix of that forest.
///
/// Buffers are reusable: [`LazyDijkstra::reset`] re-arms the state for
/// a new source set without re-allocating, so a warm search epoch runs
/// the whole expansion allocation-free (up to bucket growth beyond the
/// high-water mark).
#[derive(Debug, Clone)]
pub struct LazyDijkstra<K> {
    /// `dist[n]` in half units: final once `n` is settled, the best
    /// distance found so far before that, `u32::MAX` while unreached
    /// (read [`LazyDijkstra::settled`] to distinguish).
    pub dist: Vec<u32>,
    /// `parent[n]` on the shortest path toward `origin[n]` — final once
    /// `n` is settled.
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
    /// The source whose tree contains `n` (`None` while unreached).
    pub origin: Vec<Option<NodeId>>,
    settled: Vec<bool>,
    /// `buckets[d % 3]` holds the `(key, node)` entries pushed at
    /// distance `d`, for `d` in `current..=current + 2`; the current
    /// bucket is sorted. An entry is stale once its node settled at a
    /// smaller distance.
    buckets: [Vec<(K, NodeId)>; 3],
    /// The distance of the bucket being drained.
    current: u32,
    /// Entries of the current bucket already taken.
    taken: usize,
}

impl<K: Ord + Copy> LazyDijkstra<K> {
    /// A lazy run over `node_count` slots from `sources` (duplicates
    /// ignored), distance ties broken by `key` like
    /// [`multi_source_dijkstra_csr_by_key`].
    pub fn new<F: Fn(NodeId) -> K>(node_count: usize, sources: &[NodeId], key: F) -> Self {
        let mut lazy = LazyDijkstra {
            dist: Vec::new(),
            parent: Vec::new(),
            origin: Vec::new(),
            settled: Vec::new(),
            buckets: [Vec::new(), Vec::new(), Vec::new()],
            current: 0,
            taken: 0,
        };
        lazy.reset(node_count, sources, key);
        lazy
    }

    /// Re-arm for a fresh run, reusing every buffer.
    pub fn reset<F: Fn(NodeId) -> K>(
        &mut self,
        node_count: usize,
        sources: &[NodeId],
        key: F,
    ) {
        self.dist.clear();
        self.dist.resize(node_count, u32::MAX);
        self.parent.clear();
        self.parent.resize(node_count, None);
        self.origin.clear();
        self.origin.resize(node_count, None);
        self.settled.clear();
        self.settled.resize(node_count, false);
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.current = 0;
        self.taken = 0;
        for &s in sources {
            if self.origin[s.index()].is_none() {
                self.dist[s.index()] = 0;
                self.origin[s.index()] = Some(s);
                self.buckets[0].push((key(s), s));
            }
        }
        self.buckets[0].sort_unstable();
    }

    /// `true` once `n` was settled (its `dist`/`parent`/`origin` final).
    pub fn settled(&self, n: NodeId) -> bool {
        self.settled[n.index()]
    }

    /// The distance in half units the next [`LazyDijkstra::settle_next`]
    /// will settle at, or `None` when the frontier is exhausted. Skips
    /// stale entries and moves on to the next bucket as a side effect;
    /// never settles.
    pub fn frontier_dist(&mut self) -> Option<u32> {
        loop {
            let bucket = &self.buckets[self.current as usize % 3];
            while let Some(&(_, n)) = bucket.get(self.taken) {
                if !self.settled[n.index()] {
                    return Some(self.current);
                }
                self.taken += 1;
            }
            let next = self.current as usize + 1;
            if self.buckets[next % 3].is_empty() && self.buckets[(next + 1) % 3].is_empty() {
                return None;
            }
            self.buckets[self.current as usize % 3].clear();
            self.current += 1;
            self.taken = 0;
            // Becoming current: every push from here on lands one or two
            // half units further, so this order is final.
            self.buckets[next % 3].sort_unstable();
        }
    }

    /// Settle the cheapest frontier node and relax its neighbors,
    /// returning `(node, dist)` with `dist` in half units — or `None`
    /// when exhausted. `weight` gives each edge's weight in half units
    /// and must return 1 or 2 (the ring holds three distances); it and
    /// `key` must be the same functions on every call (the forest is
    /// built across calls).
    ///
    /// # Panics
    ///
    /// If `weight` returns anything other than 1 or 2.
    pub fn settle_next<W, F>(
        &mut self,
        csr: &CsrAdjacency,
        weight: W,
        key: F,
    ) -> Option<(NodeId, u32)>
    where
        W: Fn(EdgeId) -> u32,
        F: Fn(NodeId) -> K,
    {
        let d = self.frontier_dist()?;
        let (_, n) = self.buckets[d as usize % 3][self.taken];
        self.taken += 1;
        self.settled[n.index()] = true;
        for &(m, e) in csr.neighbors(n) {
            let w = weight(e);
            assert!(w == 1 || w == 2, "edge {e} weighs {w} half units, not 1 or 2");
            let nd = d + w;
            if nd < self.dist[m.index()] {
                self.dist[m.index()] = nd;
                self.parent[m.index()] = Some((n, e));
                self.origin[m.index()] = self.origin[n.index()];
                self.buckets[nd as usize % 3].push((key(m), m));
            }
        }
        Some((n, d))
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

    /// A lazy run driven to exhaustion produces exactly the eager
    /// forest, and any settle prefix agrees with it on settled nodes.
    #[test]
    fn lazy_dijkstra_matches_eager_forest() {
        let (g, ns) = graph();
        let csr = CsrAdjacency::build(&g);
        // The diamond's weights clamped to one or two half units.
        let half = |e: EdgeId| if *g.edge(e).payload == 1.0 { 1 } else { 2 };
        let weight = |e: EdgeId| f64::from(half(e));
        let key = |n: NodeId| n;
        let eager = multi_source_dijkstra_csr_by_key(&csr, &[ns[1], ns[2]], weight, key);
        let mut lazy = LazyDijkstra::new(csr.node_count(), &[ns[1], ns[2]], key);
        let mut settles = 0;
        while let Some(front) = lazy.frontier_dist() {
            let (n, d) = lazy.settle_next(&csr, half, key).unwrap();
            assert_eq!(d, front, "frontier peek must predict the settle");
            assert!(lazy.settled(n));
            assert_eq!(f64::from(lazy.dist[n.index()]), eager.dist[n.index()], "node {n}");
            assert_eq!(lazy.parent[n.index()], eager.parent[n.index()], "node {n}");
            assert_eq!(lazy.origin[n.index()], eager.origin[n.index()], "node {n}");
            settles += 1;
        }
        assert_eq!(settles, g.node_count(), "connected graph settles every node");
        assert!(lazy.settle_next(&csr, half, key).is_none());
        // Reset reuses the buffers for a fresh run.
        lazy.reset(csr.node_count(), &[ns[0]], key);
        let eager0 = multi_source_dijkstra_csr_by_key(&csr, &[ns[0]], weight, key);
        while lazy.settle_next(&csr, half, key).is_some() {}
        let dist: Vec<f64> = lazy.dist.iter().map(|&d| f64::from(d)).collect();
        assert_eq!(dist, eager0.dist);
        assert_eq!(lazy.parent, eager0.parent);
    }

    /// A weight outside one or two half units would land in the ring's
    /// current bucket; it is refused.
    #[test]
    #[should_panic(expected = "half units, not 1 or 2")]
    fn lazy_dijkstra_refuses_weights_past_two_half_units() {
        let (g, ns) = graph();
        let csr = CsrAdjacency::build(&g);
        let mut lazy = LazyDijkstra::new(csr.node_count(), &[ns[0]], |n| n);
        lazy.settle_next(&csr, |_| 3, |n| n);
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
