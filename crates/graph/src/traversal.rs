//! Breadth-first distance maps and induced-subset connectivity over a
//! [`CsrAdjacency`].

use crate::csr::CsrAdjacency;
use crate::graph::NodeId;
use std::collections::VecDeque;

/// Multi-source BFS hop distances over a CSR adjacency, bounded to
/// `max_hops`, written into caller-owned buffers: `dist[n]` becomes the
/// hop distance from `n` to the **nearest** source, or `u32::MAX` when
/// no source is within `max_hops` (`u32::MAX` bounds nothing). `dist`
/// is resized to the node count and reset; `queue` is cleared and left
/// holding the labelled nodes in BFS order. Edge direction is ignored,
/// and duplicate sources are harmless.
///
/// This is the frontier map behind distance-pruned path enumeration
/// ([`crate::for_each_path_to_targets_budgeted`]): run it once from the
/// target set, then share the map across every enumeration source. A
/// pruned traversal with a hop budget of `max_hops` cannot use any
/// distance larger than its budget, so the bounded map prunes it
/// identically to the full map while the BFS itself only ever touches
/// the `max_hops`-neighborhood of the sources — the difference between
/// `O(V + E)` and output-sensitive work on large graphs. Reusing the
/// buffers keeps a warm search epoch from re-allocating per search.
/// It runs the ring code of [`RingBfs`], which also resets its map in
/// proportion to what the last run labelled.
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
    seed(sources, dist, queue);
    let (mut ring, mut depth) = (0, 0);
    grow_rings(csr, dist, queue, &mut ring, &mut depth, max_hops);
}

/// Label each distinct source 0 and append it to `visited`.
fn seed(sources: &[NodeId], dist: &mut [u32], visited: &mut VecDeque<NodeId>) {
    for &s in sources {
        if dist[s.index()] == u32::MAX {
            dist[s.index()] = 0;
            visited.push_back(s);
        }
    }
}

/// Grow a BFS ring by ring until its outermost ring lies `max_hops` from
/// the sources or no node is left to label. `visited[*ring..]` is the
/// outermost ring, every node of it at hop distance `*depth`; each grown
/// ring labels the unlabelled neighbours of the one before and appends
/// them to `visited`.
fn grow_rings(
    csr: &CsrAdjacency,
    dist: &mut [u32],
    visited: &mut VecDeque<NodeId>,
    ring: &mut usize,
    depth: &mut u32,
    max_hops: u32,
) {
    while *depth < max_hops && *ring < visited.len() {
        let end = visited.len();
        for i in *ring..end {
            let n = visited[i];
            for &(m, _) in csr.neighbors(n) {
                if dist[m.index()] == u32::MAX {
                    dist[m.index()] = *depth + 1;
                    visited.push_back(m);
                }
            }
        }
        *ring = end;
        *depth += 1;
    }
}

/// A multi-source BFS distance map grown one hop ring at a time, for a
/// caller that learns how far it needs the map only as it goes: the
/// streamed path enumeration grows it to `L` hops just before it
/// enumerates the paths of `L` edges. Restarting clears only the slots
/// the last run labelled (through its visited list), so a run costs
/// what it touches, not the node count, once the map is sized.
#[derive(Debug, Clone, Default)]
pub struct RingBfs {
    dist: Vec<u32>,
    /// Every labelled node, in BFS order.
    visited: VecDeque<NodeId>,
    /// Start of the outermost ring in `visited`.
    ring: usize,
    /// Hop distance of the outermost ring.
    depth: u32,
}

impl RingBfs {
    /// An empty map; the first [`RingBfs::restart`] sizes it.
    pub fn new() -> Self {
        RingBfs::default()
    }

    /// Start a run from `sources` over a graph of `node_count` nodes:
    /// the last run's labels are cleared through its visited list (the
    /// whole map is rebuilt only when the node count changed), then each
    /// distinct source is labelled 0. Until [`RingBfs::grow_to`] runs,
    /// every other node reads `u32::MAX`.
    pub fn restart(&mut self, node_count: usize, sources: &[NodeId]) {
        if self.dist.len() == node_count {
            for &n in &self.visited {
                self.dist[n.index()] = u32::MAX;
            }
        } else {
            self.dist.clear();
            self.dist.resize(node_count, u32::MAX);
        }
        self.visited.clear();
        self.ring = 0;
        self.depth = 0;
        seed(sources, &mut self.dist, &mut self.visited);
    }

    /// Grow the map until every node within `max_hops` of a source
    /// carries its exact hop distance; farther nodes keep reading
    /// `u32::MAX` (or a distance above `max_hops`, when an earlier call
    /// grew further). `csr` must be the graph the run restarted on.
    pub fn grow_to(&mut self, csr: &CsrAdjacency, max_hops: u32) {
        grow_rings(
            csr,
            &mut self.dist,
            &mut self.visited,
            &mut self.ring,
            &mut self.depth,
            max_hops,
        );
    }

    /// The distance map: one slot per node.
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    /// The nodes labelled so far, in BFS order (sources first).
    pub fn visited(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.visited.iter().copied()
    }
}

/// Whether the subgraph *induced* by the **sorted, deduplicated** node
/// slice (edges with both endpoints in it) is connected in the
/// undirected view. The empty set is considered connected; singletons
/// always are.
///
/// This is the connectivity test behind the MTJNT minimality check:
/// removing a tuple from a joining network must leave the induced
/// network connected for the removal to be admissible. The check runs
/// once per removable tuple, so membership is a binary search over the
/// tiny sorted slice instead of a hash set.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Two components: a path a–b–c (directed arbitrarily) and isolated d.
    fn two_components() -> (CsrAdjacency, Vec<NodeId>) {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        g.add_edge(b, a, ()); // direction must not matter
        g.add_edge(b, c, ());
        (CsrAdjacency::build(&g), vec![a, b, c, d])
    }

    /// Unbounded BFS distances from `sources`.
    fn distances(csr: &CsrAdjacency, sources: &[NodeId]) -> Vec<u32> {
        let mut dist = Vec::new();
        bounded_bfs_distances_into(csr, sources, u32::MAX, &mut dist, &mut VecDeque::new());
        dist
    }

    #[test]
    fn bfs_ignores_direction() {
        let (csr, ns) = two_components();
        let dist = distances(&csr, &[ns[0]]);
        assert_eq!(dist, vec![0, 1, 2, u32::MAX]);
    }

    #[test]
    fn multi_source_bfs_takes_nearest_source() {
        let (csr, ns) = two_components();
        let dist = distances(&csr, &[ns[0], ns[2]]);
        assert_eq!(dist[ns[0].index()], 0);
        assert_eq!(dist[ns[1].index()], 1); // adjacent to both sources
        assert_eq!(dist[ns[2].index()], 0);
        assert_eq!(dist[ns[3].index()], u32::MAX);
    }

    #[test]
    fn bounded_bfs_caps_depth_and_matches_full_map_within_bound() {
        let (csr, ns) = two_components();
        let full = distances(&csr, &[ns[0]]);
        let mut dist = Vec::new();
        let mut queue = VecDeque::new();
        for cap in 0..4u32 {
            bounded_bfs_distances_into(&csr, &[ns[0]], cap, &mut dist, &mut queue);
            for n in &ns {
                let want = if full[n.index()] <= cap { full[n.index()] } else { u32::MAX };
                assert_eq!(dist[n.index()], want, "cap={cap} node {n}");
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
    fn ring_bfs_grown_per_hop_matches_the_bounded_map() {
        let (csr, ns) = two_components();
        let mut rings = RingBfs::new();
        let mut dist = Vec::new();
        let mut queue = VecDeque::new();
        for sources in [vec![ns[0]], vec![ns[2], ns[0], ns[2]], vec![ns[3]], vec![]] {
            rings.restart(csr.node_count(), &sources);
            for cap in 0..4u32 {
                rings.grow_to(&csr, cap);
                bounded_bfs_distances_into(&csr, &sources, cap, &mut dist, &mut queue);
                assert_eq!(rings.distances(), dist.as_slice(), "{sources:?} cap={cap}");
                let visited: Vec<NodeId> = rings.visited().collect();
                assert_eq!(visited, Vec::from(queue.clone()), "{sources:?} cap={cap}");
            }
        }
        // A restart on another node count rebuilds the map.
        rings.restart(2, &[ns[1]]);
        assert_eq!(rings.distances(), &[u32::MAX, 0]);
    }

    #[test]
    fn multi_source_bfs_handles_duplicate_and_empty_sources() {
        let (csr, ns) = two_components();
        let dist = distances(&csr, &[ns[0], ns[0]]);
        assert_eq!(dist[ns[0].index()], 0);
        let dist = distances(&csr, &[]);
        assert!(dist.iter().all(|&d| d == u32::MAX));
    }

    #[test]
    fn subset_connectivity_uses_induced_edges() {
        let (csr, ns) = two_components();
        let connected = |idxs: &[usize]| {
            let sorted: Vec<NodeId> = idxs.iter().map(|&i| ns[i]).collect();
            is_connected_subset_sorted(&csr, &sorted)
        };
        assert!(connected(&[0, 1, 2]));
        // a and c are connected only THROUGH b; without b the induced
        // subgraph is disconnected.
        assert!(!connected(&[0, 2]));
        assert!(connected(&[3]));
        assert!(connected(&[]));
        assert!(connected(&[0, 1]));
        assert!(!connected(&[1, 2, 3]));
    }
}
