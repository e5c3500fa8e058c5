//! Flat CSR (compressed sparse row) adjacency for the undirected view:
//! the graph's only adjacency.
//!
//! [`Graph`] stores node and edge slots and nothing else. Every
//! traversal (bounded path enumeration, BFS distance maps, Dijkstra
//! expansions, minimality checks) and every mid-batch edit that needs a
//! node's edges walks a [`CsrAdjacency`]: one contiguous
//! `(neighbor, edge)` array with per-node offset slices, built from the
//! live edge slots.
//!
//! Per node the neighbors are its out-edges in id order, then its
//! in-edges other than self-loops in id order. That order depends only
//! on the live slots, so a graph reassembled from saved slots gets the
//! same arrays as the graph that saved them.
//!
//! The arrays are never edited in place, and never stored: a mutated
//! graph, like a graph decoded from a saved image, gets a new CSR from
//! [`CsrAdjacency::build`].

use crate::graph::{EdgeId, Graph, NodeId};

/// Flat adjacency of the undirected view of a [`Graph`]. The only way
/// to make one is [`CsrAdjacency::build`].
#[derive(Debug, Clone)]
pub struct CsrAdjacency {
    /// `offsets[n]..offsets[n + 1]` indexes `neighbors` for node `n`.
    offsets: Vec<u32>,
    /// `(other endpoint, edge)` pairs, grouped by node.
    neighbors: Vec<(NodeId, EdgeId)>,
}

impl CsrAdjacency {
    /// Build from a graph's live edge slots: count each node's
    /// neighbors, prefix-sum the counts into offsets, then place every
    /// out-edge and after them every in-edge other than a self-loop,
    /// both in id order. `O(V + E)` over the slots, in three
    /// allocations whatever the size.
    pub fn build<N, E>(g: &Graph<N, E>) -> Self {
        let n = g.node_count();
        // Each non-loop edge appears twice (once per endpoint), each
        // self-loop once.
        let mut offsets = vec![0u32; n + 1];
        for e in g.edges() {
            offsets[e.from.index() + 1] += 1;
            if e.to != e.from {
                offsets[e.to.index() + 1] += 1;
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..n].to_vec();
        let mut neighbors = vec![(NodeId(0), EdgeId(0)); offsets[n] as usize];
        for e in g.edges() {
            let at = &mut next[e.from.index()];
            neighbors[*at as usize] = (e.to, e.id);
            *at += 1;
        }
        for e in g.edges().filter(|e| e.to != e.from) {
            let at = &mut next[e.to.index()];
            neighbors[*at as usize] = (e.from, e.id);
            *at += 1;
        }
        CsrAdjacency { offsets, neighbors }
    }

    /// Number of node slots.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(neighbor, edge)` pairs incident to `n`: its out-edges in id
    /// order, then its in-edges other than self-loops in id order.
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
        let (g, ns) = diamond();
        let (a, b, c, d) = (ns[0], ns[1], ns[2], ns[3]);
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.node_count(), g.node_count());
        let e = |i: u32| EdgeId(i);
        assert_eq!(csr.neighbors(a), &[(b, e(0)), (c, e(1))]);
        assert_eq!(csr.neighbors(b), &[(d, e(2)), (a, e(0))]);
        assert_eq!(csr.neighbors(c), &[(d, e(3)), (a, e(1))]);
        assert_eq!(csr.neighbors(d), &[(b, e(2)), (c, e(3))]);
        assert_eq!(csr.degree(b), 2);
    }

    #[test]
    fn self_loops_and_parallel_edges() {
        let mut g: Graph<(), u8> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let ab1 = g.add_edge(a, b, 1);
        let ab2 = g.add_edge(a, b, 2);
        let ba = g.add_edge(b, a, 3);
        let aa = g.add_edge(a, a, 4);
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.degree(a), 4); // two out, one in, one loop
        assert_eq!(csr.degree(b), 3);
        assert_eq!(csr.neighbors(a), &[(b, ab1), (b, ab2), (a, aa), (b, ba)]);
        // Tombstoned edges drop out of the next build.
        g.remove_edge(ab2);
        g.remove_edge(aa);
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.neighbors(a), &[(b, ab1), (b, ba)]);
        assert_eq!(csr.neighbors(b), &[(a, ba), (a, ab1)]);
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
}
