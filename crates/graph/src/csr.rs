//! Flat CSR (compressed sparse row) adjacency for the undirected view.
//!
//! [`Graph`] stores per-node edge lists as `Vec<Vec<EdgeId>>` and its
//! undirected [`Graph::incident_edges`] chains two of them through a
//! filter — fine for construction, but every traversal step pays two
//! pointer chases plus iterator plumbing. The search hot path (bounded
//! path enumeration, BFS distance maps, Dijkstra expansions) instead
//! walks a [`CsrAdjacency`]: one contiguous `(neighbor, edge)` array
//! with per-node offset slices, built once per graph.
//!
//! Neighbor order matches [`Graph::incident_edges`] exactly (out-edges
//! in insertion order, then in-edges excluding self-loops), so CSR-based
//! traversals visit edges in the same order as the adjacency-list based
//! ones and produce identical results.
//!
//! The arrays are never edited in place: a mutated graph gets a new
//! CSR from [`CsrAdjacency::build`].

use crate::graph::{EdgeId, Graph, NodeId};

/// Flat adjacency of the undirected view of a [`Graph`].
#[derive(Debug, Clone)]
pub struct CsrAdjacency {
    /// `offsets[n]..offsets[n + 1]` indexes `neighbors` for node `n`.
    offsets: Vec<u32>,
    /// `(other endpoint, edge)` pairs, grouped by node.
    neighbors: Vec<(NodeId, EdgeId)>,
}

impl CsrAdjacency {
    /// Build from a graph's undirected view. `O(V + E)`.
    pub fn build<N, E>(g: &Graph<N, E>) -> Self {
        let mut offsets = Vec::with_capacity(g.node_count() + 1);
        // Each non-loop edge appears twice (once per endpoint), each
        // self-loop once — same as `incident_edges`.
        let mut neighbors = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for n in g.nodes() {
            for e in g.incident_edges(n) {
                neighbors.push((e.other(n), e.id));
            }
            offsets.push(neighbors.len() as u32);
        }
        CsrAdjacency { offsets, neighbors }
    }

    /// Number of node slots.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(neighbor, edge)` pairs incident to `n`, in
    /// [`Graph::incident_edges`] order.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        let lo = self.offsets[n.index()] as usize;
        let hi = self.offsets[n.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Undirected degree of `n` (self-loops count once).
    pub fn degree(&self, n: NodeId) -> usize {
        self.neighbors(n).len()
    }

    /// The flat offset array (`node_count() + 1` entries): node `n`'s
    /// group is `neighbors_flat()[offsets()[n]..offsets()[n + 1]]`.
    /// This is the serializable half of the CSR.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The flat `(neighbor, edge)` array the offsets index.
    pub fn neighbors_flat(&self) -> &[(NodeId, EdgeId)] {
        &self.neighbors
    }

    /// Reassemble a CSR from serialized flat arrays. Validates the
    /// offset invariants — first entry 0, monotone non-decreasing, last
    /// entry equal to `neighbors.len()` — and returns `None` on any
    /// violation, so corrupt input cannot construct an adjacency whose
    /// reads would index out of bounds.
    pub fn from_parts(offsets: Vec<u32>, neighbors: Vec<(NodeId, EdgeId)>) -> Option<Self> {
        if offsets.first() != Some(&0) {
            return None;
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if *offsets.last()? as usize != neighbors.len() {
            return None;
        }
        Some(CsrAdjacency { offsets, neighbors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph<&'static str, u32>, Vec<NodeId>) {
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, vec![a, b, c, d])
    }

    #[test]
    fn mirrors_incident_edges_exactly() {
        let (g, _) = diamond();
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.node_count(), g.node_count());
        for n in g.nodes() {
            let expect: Vec<(NodeId, EdgeId)> =
                g.incident_edges(n).map(|e| (e.other(n), e.id)).collect();
            assert_eq!(csr.neighbors(n), expect.as_slice(), "node {n}");
            assert_eq!(csr.degree(n), g.degree(n));
        }
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        let mut g: Graph<(), u8> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        g.add_edge(b, a, 3);
        g.add_edge(a, a, 4);
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.degree(a), 4); // two out, one in, one loop
        assert_eq!(csr.degree(b), 3);
        let expect: Vec<(NodeId, EdgeId)> =
            g.incident_edges(a).map(|e| (e.other(a), e.id)).collect();
        assert_eq!(csr.neighbors(a), expect.as_slice());
    }

    #[test]
    fn empty_and_isolated_nodes() {
        let g: Graph<(), ()> = Graph::new();
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.node_count(), 0);

        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.node_count(), 1);
        assert!(csr.neighbors(a).is_empty());
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let (g, _) = diamond();
        let csr = CsrAdjacency::build(&g);
        let back =
            CsrAdjacency::from_parts(csr.offsets().to_vec(), csr.neighbors_flat().to_vec())
                .unwrap();
        for n in g.nodes() {
            assert_eq!(back.neighbors(n), csr.neighbors(n));
        }
        // Invalid offset shapes are rejected, not trusted.
        assert!(CsrAdjacency::from_parts(vec![], vec![]).is_none());
        assert!(CsrAdjacency::from_parts(vec![1, 2], vec![(NodeId(0), EdgeId(0))]).is_none());
        assert!(
            CsrAdjacency::from_parts(vec![0, 2, 1], vec![(NodeId(0), EdgeId(0))]).is_none()
        );
        assert!(CsrAdjacency::from_parts(vec![0, 5], vec![(NodeId(0), EdgeId(0))]).is_none());
    }
}
