//! Property-based tests for the graph substrate.

use cla_graph::{
    bfs_distances_csr, bfs_distances_undirected, dijkstra, dijkstra_csr,
    enumerate_paths_to_targets, enumerate_simple_paths_undirected, is_connected_subset,
    is_connected_subset_sorted, multi_source_bfs_distances, multi_source_dijkstra_csr,
    shortest_path_undirected, CsrAdjacency, EdgeId, Graph, NodeId, Path,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Build a graph from a node count and an edge list (indices mod n).
fn build(n: usize, edges: &[(usize, usize)]) -> Graph<(), ()> {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    for &(a, b) in edges {
        g.add_edge(ids[a % n], ids[b % n], ());
    }
    g
}

proptest! {
    /// BFS distance equals the length of the shortest enumerated simple
    /// path, whenever one exists.
    #[test]
    fn bfs_matches_shortest_enumerated_path(
        n in 2usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8), 1..16)
    ) {
        let g = build(n, &edges);
        let from = NodeId(0);
        let to = NodeId(n as u32 - 1);
        let dist = bfs_distances_undirected(&g, from);
        let paths = enumerate_simple_paths_undirected(&g, from, to, n, None);
        match dist[to.index()] {
            None => prop_assert!(paths.is_empty()),
            Some(d) => {
                prop_assert!(!paths.is_empty());
                prop_assert_eq!(paths[0].len() as u32, d);
                let sp = shortest_path_undirected(&g, from, to).unwrap();
                prop_assert_eq!(sp.len() as u32, d);
            }
        }
    }

    /// Every enumerated path is simple, within bounds, uses existing
    /// consecutive edges, and paths are pairwise distinct.
    #[test]
    fn enumerated_paths_are_wellformed(
        n in 2usize..7,
        edges in proptest::collection::vec((0usize..7, 0usize..7), 1..14),
        max in 1usize..5
    ) {
        let g = build(n, &edges);
        let from = NodeId(0);
        let to = NodeId(n as u32 - 1);
        let paths = enumerate_simple_paths_undirected(&g, from, to, max, None);
        let mut seen = HashSet::new();
        for p in &paths {
            prop_assert!(p.len() <= max);
            prop_assert_eq!(p.nodes.len(), p.edges.len() + 1);
            prop_assert_eq!(p.start(), from);
            prop_assert_eq!(p.end(), to);
            let mut uniq = p.nodes.clone();
            uniq.sort();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), p.nodes.len(), "path revisits a node");
            for (i, &e) in p.edges.iter().enumerate() {
                let (a, b) = g.endpoints(e);
                let (x, y) = (p.nodes[i], p.nodes[i + 1]);
                prop_assert!((a == x && b == y) || (a == y && b == x));
            }
            prop_assert!(seen.insert(p.edges.clone()), "duplicate path");
        }
    }

    /// Dijkstra with unit weights equals BFS hop distance.
    #[test]
    fn dijkstra_unit_weights_match_bfs(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..24)
    ) {
        let g = build(n, &edges);
        let start = NodeId(0);
        let bfs = bfs_distances_undirected(&g, start);
        let dj = dijkstra(&g, start, true, |_| 1.0);
        for v in g.nodes() {
            match bfs[v.index()] {
                None => prop_assert!(dj.dist[v.index()].is_infinite()),
                Some(d) => prop_assert_eq!(dj.dist[v.index()], f64::from(d)),
            }
        }
    }

    /// The distance-pruned multi-target enumeration returns exactly the
    /// same path set as the union of per-pair enumerations over every
    /// target — the equivalence behind replacing the engine's
    /// |A|·|B| pair loop with one pruned DFS per source.
    #[test]
    fn multi_target_equals_per_pair_union(
        n in 2usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8), 1..20),
        targets in proptest::collection::vec(0usize..8, 1..5),
        max in 1usize..5
    ) {
        let g = build(n, &edges);
        let csr = CsrAdjacency::build(&g);
        let from = NodeId(0);
        let targets: Vec<NodeId> = {
            let mut t: Vec<NodeId> = targets.iter().map(|&i| NodeId((i % n) as u32)).collect();
            t.sort();
            t.dedup();
            t
        };
        let pruned = enumerate_paths_to_targets(&csr, from, &targets, max);
        let mut union: Vec<Path> = targets
            .iter()
            .filter(|&&t| t != from)
            .flat_map(|&t| enumerate_simple_paths_undirected(&g, from, t, max, None))
            .collect();
        union.sort_by(|a, b| {
            a.canonical_cmp(b)
        });
        prop_assert_eq!(pruned, union);
    }

    /// CSR traversals agree with their adjacency-list counterparts:
    /// BFS distances (single- and multi-source) and Dijkstra.
    #[test]
    fn csr_traversals_match_graph_traversals(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..24),
        sources in proptest::collection::vec(0usize..12, 1..4)
    ) {
        let g = build(n, &edges);
        let csr = CsrAdjacency::build(&g);
        let start = NodeId(0);
        let bfs = bfs_distances_undirected(&g, start);
        let bfs_csr = bfs_distances_csr(&csr, start);
        for v in g.nodes() {
            match bfs[v.index()] {
                Some(d) => prop_assert_eq!(bfs_csr[v.index()], d),
                None => prop_assert_eq!(bfs_csr[v.index()], u32::MAX),
            }
        }
        // Multi-source distance = min over single-source distances.
        let sources: Vec<NodeId> =
            sources.iter().map(|&i| NodeId((i % n) as u32)).collect();
        let multi = multi_source_bfs_distances(&csr, &sources);
        for v in g.nodes() {
            let best = sources
                .iter()
                .filter_map(|&s| bfs_distances_undirected(&g, s)[v.index()])
                .min();
            prop_assert_eq!(multi[v.index()], best.unwrap_or(u32::MAX));
        }
        let dj = dijkstra(&g, start, true, |_| 1.0);
        let djc = dijkstra_csr(&csr, start, |_| 1.0);
        prop_assert_eq!(dj.dist, djc.dist);
    }

    /// The multi-source Dijkstra forest reports the same distances as
    /// the minimum over single-source runs, and its parent chains are
    /// internally consistent: each chain's edge weights telescope to the
    /// reported distance and end at the recorded origin. (The per-node
    /// minimum over independent runs satisfies the first property but
    /// not the second — chains can splice two sources' trees together.)
    #[test]
    fn multi_source_dijkstra_is_a_consistent_forest(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
        sources in proptest::collection::vec(0usize..12, 1..5)
    ) {
        let g = build(n, &edges);
        let csr = CsrAdjacency::build(&g);
        // Deterministic pseudo-random positive weights, with plenty of
        // ties to stress the splice-prone case.
        let weight = |e: EdgeId| f64::from(e.0 % 3) * 0.5 + 0.5;
        let sources: Vec<NodeId> =
            sources.iter().map(|&i| NodeId((i % n) as u32)).collect();
        let ms = multi_source_dijkstra_csr(&csr, &sources, weight);
        for v in g.nodes() {
            let best = sources
                .iter()
                .map(|&s| dijkstra_csr(&csr, s, weight).dist[v.index()])
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(ms.dist[v.index()], best);
            match ms.path_to(v) {
                None => prop_assert!(ms.dist[v.index()].is_infinite()),
                Some((nodes, chain_edges)) => {
                    prop_assert_eq!(Some(nodes[0]), ms.origin[v.index()]);
                    prop_assert!(sources.contains(&nodes[0]));
                    prop_assert_eq!(*nodes.last().unwrap(), v);
                    let sum: f64 = chain_edges.iter().map(|&e| weight(e)).sum();
                    prop_assert_eq!(sum, ms.dist[v.index()]);
                    // Consecutive chain entries are joined by the edge.
                    for (i, &e) in chain_edges.iter().enumerate() {
                        let (a, b) = g.endpoints(e);
                        let (x, y) = (nodes[i], nodes[i + 1]);
                        prop_assert!((a == x && b == y) || (a == y && b == x));
                    }
                }
            }
        }
    }

    /// Sorted-slice subset connectivity agrees with the hash-set
    /// implementation on arbitrary subsets.
    #[test]
    fn sorted_subset_connectivity_matches(
        n in 1usize..10,
        edges in proptest::collection::vec((0usize..10, 0usize..10), 0..20),
        members in proptest::collection::vec(any::<bool>(), 10)
    ) {
        let g = build(n, &edges);
        let csr = CsrAdjacency::build(&g);
        let sorted: Vec<NodeId> = (0..n)
            .filter(|&i| members[i])
            .map(|i| NodeId(i as u32))
            .collect();
        let set: HashSet<NodeId> = sorted.iter().copied().collect();
        prop_assert_eq!(
            is_connected_subset_sorted(&csr, &sorted),
            is_connected_subset(&g, &set)
        );
    }

    /// A full component is a connected subset; removing a cut vertex from
    /// a path graph disconnects it.
    #[test]
    fn connected_subset_sanity(n in 3usize..12) {
        // Path graph 0–1–…–(n-1).
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = build(n, &edges);
        let all: HashSet<NodeId> = g.nodes().collect();
        prop_assert!(is_connected_subset(&g, &all));
        // Remove the middle node.
        let mid = NodeId((n / 2) as u32);
        let mut set = all.clone();
        set.remove(&mid);
        prop_assert!(!is_connected_subset(&g, &set));
    }
}
