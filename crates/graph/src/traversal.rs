//! Breadth-first traversal, components, and subset connectivity.

use crate::csr::CsrAdjacency;
use crate::graph::{EdgeId, Graph, NodeId};
use std::collections::{HashSet, VecDeque};

/// Result of a BFS from a start node in the undirected view.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// `dist[n]` is the hop distance from the start, or `None` if
    /// unreachable.
    pub dist: Vec<Option<u32>>,
    /// `parent[n]` is the `(predecessor, edge)` used to first reach `n`.
    pub parent: Vec<Option<(NodeId, EdgeId)>>,
}

impl BfsTree {
    /// Reconstruct the node path from the BFS start to `target`, if
    /// reachable (inclusive of both endpoints).
    pub fn path_to(&self, target: NodeId) -> Option<(Vec<NodeId>, Vec<EdgeId>)> {
        self.dist[target.index()]?;
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

/// BFS hop distances from `start`, ignoring edge direction.
pub fn bfs_distances_undirected<N, E>(g: &Graph<N, E>, start: NodeId) -> Vec<Option<u32>> {
    bfs_tree_undirected(g, start).dist
}

/// Full BFS tree (distances + parents) from `start` in the undirected
/// view.
pub fn bfs_tree_undirected<N, E>(g: &Graph<N, E>, start: NodeId) -> BfsTree {
    let mut dist = vec![None; g.node_count()];
    let mut parent = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        // lint: allow(unwrap, a node is queued only after its distance is set)
        let d = dist[n.index()].expect("queued nodes have distances");
        for e in g.incident_edges(n) {
            let m = e.other(n);
            if dist[m.index()].is_none() {
                dist[m.index()] = Some(d + 1);
                parent[m.index()] = Some((n, e.id));
                queue.push_back(m);
            }
        }
    }
    BfsTree { dist, parent }
}

/// Multi-source BFS over a CSR adjacency: `dist[n]` is the hop distance
/// from `n` to the **nearest** source (`u32::MAX` when unreachable).
///
/// This is the frontier map behind distance-pruned path enumeration
/// ([`crate::for_each_path_to_targets`]): run it once from the target
/// set, then share the map across every enumeration source.
pub fn multi_source_bfs_distances(csr: &CsrAdjacency, sources: &[NodeId]) -> Vec<u32> {
    bounded_bfs_distances(csr, sources, u32::MAX)
}

/// [`multi_source_bfs_distances`] bounded to `max_hops`: the BFS stops
/// expanding at depth `max_hops`, so nodes farther than that from every
/// source keep `u32::MAX` — exactly as if they were unreachable.
///
/// A pruned traversal with a hop budget of `max_hops` cannot use any
/// distance larger than its budget, so the bounded map prunes it
/// identically to the full map while the BFS itself only ever touches
/// the `max_hops`-neighborhood of the sources — the difference between
/// `O(V + E)` and output-sensitive work on large graphs.
pub fn bounded_bfs_distances(
    csr: &CsrAdjacency,
    sources: &[NodeId],
    max_hops: u32,
) -> Vec<u32> {
    let mut dist = Vec::new();
    let mut queue = VecDeque::new();
    bounded_bfs_distances_into(csr, sources, max_hops, &mut dist, &mut queue);
    dist
}

/// [`bounded_bfs_distances`] writing into caller-owned buffers, so a
/// warm search epoch reuses one distance vector and one queue across
/// every query instead of re-allocating per search. `dist` is resized
/// to the node count and reset to `u32::MAX`; `queue` is drained.
pub fn bounded_bfs_distances_into(
    csr: &CsrAdjacency,
    sources: &[NodeId],
    max_hops: u32,
    dist: &mut Vec<u32>,
    queue: &mut VecDeque<NodeId>,
) {
    dist.clear();
    dist.resize(csr.node_count(), u32::MAX);
    queue.clear();
    for &s in sources {
        if dist[s.index()] == u32::MAX {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(n) = queue.pop_front() {
        let d = dist[n.index()];
        if d >= max_hops {
            continue; // deeper levels are outside the budget
        }
        for &(m, _) in csr.neighbors(n) {
            if dist[m.index()] == u32::MAX {
                dist[m.index()] = d + 1;
                queue.push_back(m);
            }
        }
    }
}

/// Single-source BFS hop distances over a CSR adjacency
/// (`u32::MAX` when unreachable). CSR port of
/// [`bfs_distances_undirected`].
pub fn bfs_distances_csr(csr: &CsrAdjacency, start: NodeId) -> Vec<u32> {
    multi_source_bfs_distances(csr, &[start])
}

/// Whether the subgraph induced by the **sorted, deduplicated** node
/// slice is connected in the undirected view. CSR port of
/// [`is_connected_subset`], keyed by binary search instead of hashing —
/// the MTJNT minimality check calls this once per removable tuple, so
/// the tiny sorted slices beat `HashSet` construction.
pub fn is_connected_subset_sorted(csr: &CsrAdjacency, nodes: &[NodeId]) -> bool {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "slice must be sorted + dedup'd");
    let Some(&start) = nodes.first() else {
        return true;
    };
    let mut seen = vec![false; nodes.len()];
    seen[0] = true;
    let mut reached = 1;
    let mut queue = VecDeque::with_capacity(nodes.len());
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        for &(m, _) in csr.neighbors(n) {
            if let Ok(i) = nodes.binary_search(&m) {
                if !seen[i] {
                    seen[i] = true;
                    reached += 1;
                    if reached == nodes.len() {
                        return true;
                    }
                    queue.push_back(m);
                }
            }
        }
    }
    reached == nodes.len()
}

/// Connected components of the undirected view: returns
/// `(component id per node, number of components)`.
pub fn connected_components_undirected<N, E>(g: &Graph<N, E>) -> (Vec<u32>, usize) {
    let mut comp = vec![u32::MAX; g.node_count()];
    let mut next = 0u32;
    for start in g.nodes() {
        if comp[start.index()] != u32::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[start.index()] = next;
        queue.push_back(start);
        while let Some(n) = queue.pop_front() {
            for e in g.incident_edges(n) {
                let m = e.other(n);
                if comp[m.index()] == u32::MAX {
                    comp[m.index()] = next;
                    queue.push_back(m);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Whether the subgraph *induced* by `nodes` is connected in the
/// undirected view (edges with both endpoints in `nodes`).
///
/// The empty set is considered connected; singletons always are. This is
/// the connectivity test behind the MTJNT minimality check: removing a
/// tuple from a joining network must leave the *induced* network
/// connected for the removal to be admissible.
pub fn is_connected_subset<N, E>(g: &Graph<N, E>, nodes: &HashSet<NodeId>) -> bool {
    let Some(&start) = nodes.iter().next() else {
        return true;
    };
    let mut seen: HashSet<NodeId> = HashSet::with_capacity(nodes.len());
    let mut queue = VecDeque::new();
    seen.insert(start);
    queue.push_back(start);
    while let Some(n) = queue.pop_front() {
        for e in g.incident_edges(n) {
            let m = e.other(n);
            if nodes.contains(&m) && seen.insert(m) {
                queue.push_back(m);
            }
        }
    }
    seen.len() == nodes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two components: a path a–b–c (directed arbitrarily) and isolated d.
    fn two_components() -> (Graph<(), ()>, Vec<NodeId>) {
        let mut g = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(b, a, ()); // direction must not matter
        g.add_edge(b, c, ());
        (g, vec![a, b, c, d])
    }

    #[test]
    fn bfs_ignores_direction() {
        let (g, ns) = two_components();
        let dist = bfs_distances_undirected(&g, ns[0]);
        assert_eq!(dist[ns[0].index()], Some(0));
        assert_eq!(dist[ns[1].index()], Some(1));
        assert_eq!(dist[ns[2].index()], Some(2));
        assert_eq!(dist[ns[3].index()], None);
    }

    #[test]
    fn bfs_path_reconstruction() {
        let (g, ns) = two_components();
        let tree = bfs_tree_undirected(&g, ns[0]);
        let (nodes, edges) = tree.path_to(ns[2]).unwrap();
        assert_eq!(nodes, vec![ns[0], ns[1], ns[2]]);
        assert_eq!(edges.len(), 2);
        assert!(tree.path_to(ns[3]).is_none());
        let (nodes, edges) = tree.path_to(ns[0]).unwrap();
        assert_eq!(nodes, vec![ns[0]]);
        assert!(edges.is_empty());
    }

    #[test]
    fn components_counted() {
        let (g, ns) = two_components();
        let (comp, count) = connected_components_undirected(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[ns[0].index()], comp[ns[1].index()]);
        assert_eq!(comp[ns[1].index()], comp[ns[2].index()]);
        assert_ne!(comp[ns[0].index()], comp[ns[3].index()]);
    }

    #[test]
    fn subset_connectivity_uses_induced_edges() {
        let (g, ns) = two_components();
        let set: HashSet<NodeId> = [ns[0], ns[1], ns[2]].into_iter().collect();
        assert!(is_connected_subset(&g, &set));
        // a and c are connected only THROUGH b; without b the induced
        // subgraph is disconnected.
        let set: HashSet<NodeId> = [ns[0], ns[2]].into_iter().collect();
        assert!(!is_connected_subset(&g, &set));
        let set: HashSet<NodeId> = [ns[3]].into_iter().collect();
        assert!(is_connected_subset(&g, &set));
        assert!(is_connected_subset(&g, &HashSet::new()));
    }

    #[test]
    fn multi_source_bfs_takes_nearest_source() {
        let (g, ns) = two_components();
        let csr = CsrAdjacency::build(&g);
        let dist = multi_source_bfs_distances(&csr, &[ns[0], ns[2]]);
        assert_eq!(dist[ns[0].index()], 0);
        assert_eq!(dist[ns[1].index()], 1); // adjacent to both sources
        assert_eq!(dist[ns[2].index()], 0);
        assert_eq!(dist[ns[3].index()], u32::MAX);
        // Single source matches the Graph-based BFS.
        let csr_dist = bfs_distances_csr(&csr, ns[0]);
        let g_dist = bfs_distances_undirected(&g, ns[0]);
        for n in g.nodes() {
            match g_dist[n.index()] {
                Some(d) => assert_eq!(csr_dist[n.index()], d),
                None => assert_eq!(csr_dist[n.index()], u32::MAX),
            }
        }
    }

    #[test]
    fn bounded_bfs_caps_depth_and_matches_full_map_within_bound() {
        let (g, ns) = two_components();
        let csr = CsrAdjacency::build(&g);
        let full = multi_source_bfs_distances(&csr, &[ns[0]]);
        for cap in 0..4u32 {
            let bounded = bounded_bfs_distances(&csr, &[ns[0]], cap);
            for n in g.nodes() {
                if full[n.index()] <= cap {
                    assert_eq!(bounded[n.index()], full[n.index()], "cap={cap} node {n}");
                } else {
                    assert_eq!(bounded[n.index()], u32::MAX, "cap={cap} node {n}");
                }
            }
        }
        // Buffer reuse leaves no stale state behind.
        let mut dist = vec![7u32; 1];
        let mut queue = VecDeque::from([ns[3]]);
        bounded_bfs_distances_into(&csr, &[ns[0]], 1, &mut dist, &mut queue);
        assert_eq!(dist.len(), csr.node_count());
        assert_eq!(dist[ns[1].index()], 1);
        assert_eq!(dist[ns[2].index()], u32::MAX);
    }

    #[test]
    fn multi_source_bfs_handles_duplicate_and_empty_sources() {
        let (g, ns) = two_components();
        let csr = CsrAdjacency::build(&g);
        let dist = multi_source_bfs_distances(&csr, &[ns[0], ns[0]]);
        assert_eq!(dist[ns[0].index()], 0);
        let dist = multi_source_bfs_distances(&csr, &[]);
        assert!(dist.iter().all(|&d| d == u32::MAX));
    }

    #[test]
    fn sorted_subset_connectivity_matches_hashset_version() {
        let (g, ns) = two_components();
        let csr = CsrAdjacency::build(&g);
        let cases: &[&[usize]] = &[&[0, 1, 2], &[0, 2], &[3], &[], &[0, 1], &[1, 2, 3]];
        for idxs in cases {
            let mut sorted: Vec<NodeId> = idxs.iter().map(|&i| ns[i]).collect();
            sorted.sort();
            let set: HashSet<NodeId> = sorted.iter().copied().collect();
            assert_eq!(
                is_connected_subset_sorted(&csr, &sorted),
                is_connected_subset(&g, &set),
                "{idxs:?}"
            );
        }
    }

    #[test]
    fn empty_graph_has_no_components() {
        let g: Graph<(), ()> = Graph::new();
        let (comp, count) = connected_components_undirected(&g);
        assert!(comp.is_empty());
        assert_eq!(count, 0);
    }
}
