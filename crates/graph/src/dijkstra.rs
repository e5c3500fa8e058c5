//! Dijkstra shortest paths with pluggable non-negative edge weights.

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

/// An **incremental** multi-source Dijkstra: the same shortest-path
/// forest as [`multi_source_dijkstra_csr_by_key`], settled one node at a
/// time on demand instead of eagerly to exhaustion.
///
/// This is the substrate of heap-driven BANKS-style expansion with a
/// top-k cutoff: each keyword set owns one `LazyDijkstra`, a driver
/// settles whichever set's frontier is globally cheapest, and expansion
/// stops as soon as the frontier distances prove that no future
/// candidate root can enter the top k. Because each settle performs
/// exactly the relaxations the eager run would (same `(dist, key,
/// node)` heap order), the `dist`/`parent`/`origin` arrays of a lazy
/// run driven to exhaustion are **identical** to the eager forest —
/// and any prefix of settles is a prefix of that forest.
///
/// Buffers are reusable: [`LazyDijkstra::reset`] re-arms the state for
/// a new source set without re-allocating, so a warm search epoch runs
/// the whole expansion allocation-free (up to heap growth beyond the
/// high-water mark).
#[derive(Debug, Clone)]
pub struct LazyDijkstra<K> {
    /// `dist[n]`: settled shortest distance, `f64::INFINITY` while
    /// unsettled (tentative distances live on the heap only; read
    /// [`LazyDijkstra::settled`] to distinguish).
    pub dist: Vec<f64>,
    /// `parent[n]` on the shortest path toward `origin[n]` — final once
    /// `n` is settled.
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
    /// The source whose tree contains `n` (`None` while unreached).
    pub origin: Vec<Option<NodeId>>,
    settled: Vec<bool>,
    tentative: Vec<f64>,
    heap: BinaryHeap<KeyedEntry<K>>,
}

impl<K: Ord + Copy> LazyDijkstra<K> {
    /// A lazy run over `node_count` slots from `sources` (duplicates
    /// ignored), heap ties broken by `key` like
    /// [`multi_source_dijkstra_csr_by_key`].
    pub fn new<F: Fn(NodeId) -> K>(node_count: usize, sources: &[NodeId], key: F) -> Self {
        let mut lazy = LazyDijkstra {
            dist: Vec::new(),
            parent: Vec::new(),
            origin: Vec::new(),
            settled: Vec::new(),
            tentative: Vec::new(),
            heap: BinaryHeap::new(),
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
        self.dist.resize(node_count, f64::INFINITY);
        self.parent.clear();
        self.parent.resize(node_count, None);
        self.origin.clear();
        self.origin.resize(node_count, None);
        self.settled.clear();
        self.settled.resize(node_count, false);
        self.tentative.clear();
        self.tentative.resize(node_count, f64::INFINITY);
        self.heap.clear();
        for &s in sources {
            if self.origin[s.index()].is_none() {
                self.tentative[s.index()] = 0.0;
                self.origin[s.index()] = Some(s);
                self.heap.push(KeyedEntry { dist: 0.0, key: key(s), node: s });
            }
        }
    }

    /// `true` once `n` was settled (its `dist`/`parent`/`origin` final).
    pub fn settled(&self, n: NodeId) -> bool {
        self.settled[n.index()]
    }

    /// The distance the next [`LazyDijkstra::settle_next`] will settle
    /// at, or `None` when the frontier is exhausted. Pops stale heap
    /// entries as a side effect; never settles.
    pub fn frontier_dist(&mut self) -> Option<f64> {
        while let Some(top) = self.heap.peek() {
            if self.settled[top.node.index()] || top.dist > self.tentative[top.node.index()] {
                self.heap.pop();
                continue;
            }
            return Some(top.dist);
        }
        None
    }

    /// Settle the cheapest frontier node and relax its neighbors,
    /// returning `(node, dist)` — or `None` when exhausted. `weight` and
    /// `key` must be the same functions on every call (the forest is
    /// built across calls).
    pub fn settle_next<W, F>(
        &mut self,
        csr: &CsrAdjacency,
        weight: W,
        key: F,
    ) -> Option<(NodeId, f64)>
    where
        W: Fn(EdgeId) -> f64,
        F: Fn(NodeId) -> K,
    {
        let n = loop {
            let top = self.heap.pop()?;
            if self.settled[top.node.index()] || top.dist > self.tentative[top.node.index()] {
                continue; // stale entry
            }
            break top.node;
        };
        let d = self.tentative[n.index()];
        self.settled[n.index()] = true;
        self.dist[n.index()] = d;
        for &(m, e) in csr.neighbors(n) {
            let w = weight(e);
            debug_assert!(w >= 0.0, "negative edge weight {w} on edge {e}");
            let nd = d + w;
            if nd < self.tentative[m.index()] {
                self.tentative[m.index()] = nd;
                self.parent[m.index()] = Some((n, e));
                self.origin[m.index()] = self.origin[n.index()];
                self.heap.push(KeyedEntry { dist: nd, key: key(m), node: m });
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
        let weight = |e: EdgeId| *g.edge(e).payload;
        let key = |n: NodeId| n;
        let eager = multi_source_dijkstra_csr_by_key(&csr, &[ns[1], ns[2]], weight, key);
        let mut lazy = LazyDijkstra::new(csr.node_count(), &[ns[1], ns[2]], key);
        let mut settles = 0;
        while let Some(front) = lazy.frontier_dist() {
            let (n, d) = lazy.settle_next(&csr, weight, key).unwrap();
            assert_eq!(d, front, "frontier peek must predict the settle");
            assert!(lazy.settled(n));
            assert_eq!(lazy.dist[n.index()], eager.dist[n.index()], "node {n}");
            assert_eq!(lazy.parent[n.index()], eager.parent[n.index()], "node {n}");
            assert_eq!(lazy.origin[n.index()], eager.origin[n.index()], "node {n}");
            settles += 1;
        }
        assert_eq!(settles, g.node_count(), "connected graph settles every node");
        assert!(lazy.settle_next(&csr, weight, key).is_none());
        // Reset reuses the buffers for a fresh run.
        lazy.reset(csr.node_count(), &[ns[0]], key);
        let eager0 = multi_source_dijkstra_csr_by_key(&csr, &[ns[0]], weight, key);
        while lazy.settle_next(&csr, weight, key).is_some() {}
        assert_eq!(lazy.dist, eager0.dist);
        assert_eq!(lazy.parent, eager0.parent);
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
