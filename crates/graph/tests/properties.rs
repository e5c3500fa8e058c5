//! Property-based tests for the graph substrate.
//!
//! The references here read the edge list (or the live edge slots)
//! directly and share no code with the traversals: Floyd–Warshall hop
//! and weighted distances, induced-subset connectivity by repeated
//! relaxation, and a per-node scan of the live slots for the CSR itself.
//! The lazy bucket-queue Dijkstra is checked against the eager
//! binary-heap forest, which is itself checked against Floyd–Warshall
//! and shares no queue code with it.

use cla_graph::{
    bounded_bfs_distances_into, enumerate_simple_paths_undirected,
    for_each_path_to_targets_budgeted, is_connected_subset_sorted,
    multi_source_dijkstra_csr_by_key, CsrAdjacency, EdgeId, Graph, LazyDijkstra, NodeId,
    Path, TraversalScratch,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::{HashSet, VecDeque};
use std::ops::ControlFlow;

/// Build a graph from a node count and an edge list (indices mod n).
fn build(n: usize, edges: &[(usize, usize)]) -> Graph<(), ()> {
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..n).map(|_| g.add_node(())).collect();
    for &(a, b) in edges {
        g.add_edge(ids[a % n], ids[b % n], ());
    }
    g
}

/// All-pairs shortest distances over the live edges of `g`, ignoring
/// direction (Floyd–Warshall): `d[a][b]` is `f64::INFINITY` when `b` is
/// unreachable from `a`.
fn floyd_warshall<N, E>(g: &Graph<N, E>, weight: impl Fn(EdgeId) -> f64) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0.0;
    }
    for e in g.edges() {
        let (a, b) = (e.from.index(), e.to.index());
        let w = weight(e.id).min(d[a][b]);
        d[a][b] = w;
        d[b][a] = w;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k] + d[k][j];
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

/// The hop distance `floyd_warshall` reports, in the BFS encoding
/// (`u32::MAX` when unreachable).
fn hops(d: f64) -> u32 {
    if d.is_infinite() {
        u32::MAX
    } else {
        d as u32
    }
}

/// Unbounded BFS distances from `sources` over the CSR.
fn bfs(csr: &CsrAdjacency, sources: &[NodeId]) -> Vec<u32> {
    let mut dist = Vec::new();
    bounded_bfs_distances_into(csr, sources, u32::MAX, &mut dist, &mut VecDeque::new());
    dist
}

/// Whether the subgraph induced by `members` is connected, by growing
/// the set reached from its first member until no live edge of `g`
/// with both endpoints in `members` adds a node.
fn induced_connected<N, E>(g: &Graph<N, E>, members: &HashSet<NodeId>) -> bool {
    let Some(&start) = members.iter().min() else {
        return true;
    };
    let mut reached: HashSet<NodeId> = [start].into();
    loop {
        let before = reached.len();
        for e in g.edges() {
            if members.contains(&e.from) && members.contains(&e.to) {
                if reached.contains(&e.from) {
                    reached.insert(e.to);
                }
                if reached.contains(&e.to) {
                    reached.insert(e.from);
                }
            }
        }
        if reached.len() == before {
            return reached.len() == members.len();
        }
    }
}

/// Per node slot, the `(neighbor, edge)` pairs of the live edge slots:
/// its out-edges by id, then its in-edges other than self-loops by id.
fn scan_live_slots<N, E>(g: &Graph<N, E>) -> Vec<Vec<(NodeId, EdgeId)>> {
    let mut adj = vec![Vec::new(); g.node_count()];
    for e in g.edges() {
        adj[e.from.index()].push((e.to, e.id));
    }
    for e in g.edges() {
        if e.from != e.to {
            adj[e.to.index()].push((e.from, e.id));
        }
    }
    adj
}

/// Settle `lazy` (armed with `sources`) step by step and check it
/// against the eager heap forest over the same weights, with ties
/// broken by the permutation `ranks` (`ranks[n]` is node `n`'s rank).
/// With weights of at least one half unit, every entry at distance `d`
/// is on the eager heap before the first of them pops, so the eager
/// settle order is the reachable nodes sorted by `(dist, rank)`: the
/// lazy run must settle exactly that sequence, and after every settle
/// each settled node's dist and parent must equal the eager forest's,
/// and its parent chain must end at the eager forest's origin.
fn check_lazy_against_eager(
    lazy: &mut LazyDijkstra,
    csr: &CsrAdjacency,
    sources: &[NodeId],
    half: &dyn Fn(EdgeId) -> u32,
    ranks: &[u32],
) -> Result<(), TestCaseError> {
    let rank = |n: NodeId| ranks[n.index()];
    let node_at =
        |r: u32| NodeId(ranks.iter().position(|&x| x == r).expect("a ranked node") as u32);
    let eager = multi_source_dijkstra_csr_by_key(csr, sources, |e| f64::from(half(e)), rank);
    let mut order: Vec<NodeId> = (0..csr.node_count() as u32)
        .map(NodeId)
        .filter(|n| eager.origin[n.index()].is_some())
        .collect();
    order.sort_by(|a, b| {
        eager.dist[a.index()].total_cmp(&eager.dist[b.index()]).then(rank(*a).cmp(&rank(*b)))
    });
    let mut settled = Vec::new();
    for &want in &order {
        let front = lazy.frontier_dist();
        let (n, d) = lazy
            .settle_next(csr, half, rank, node_at)
            .expect("the eager forest reaches more");
        prop_assert_eq!(Some(d), front, "frontier peek must predict the settle");
        prop_assert_eq!((n, f64::from(d)), (want, eager.dist[want.index()]));
        settled.push(n);
        for &s in &settled {
            prop_assert_eq!(
                f64::from(lazy.dist[s.index()]),
                eager.dist[s.index()],
                "node {}",
                s
            );
            prop_assert_eq!(lazy.parent(s), eager.parent[s.index()], "node {}", s);
            let mut end = s;
            while let Some((prev, _)) = lazy.parent(end) {
                end = prev;
            }
            prop_assert_eq!(Some(end), eager.origin[s.index()], "node {}", s);
        }
    }
    prop_assert_eq!(lazy.frontier_dist(), None);
    prop_assert!(lazy.settle_next(csr, half, rank, node_at).is_none());
    Ok(())
}

proptest! {
    /// BFS distance equals the Floyd–Warshall hop distance and the
    /// length of the shortest enumerated simple path, whenever one
    /// exists.
    #[test]
    fn bfs_matches_shortest_enumerated_path(
        n in 2usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8), 1..16)
    ) {
        let g = build(n, &edges);
        let csr = CsrAdjacency::build(&g);
        let from = NodeId(0);
        let to = NodeId(n as u32 - 1);
        let dist = bfs(&csr, &[from]);
        let fw = floyd_warshall(&g, |_| 1.0);
        prop_assert_eq!(dist[to.index()], hops(fw[from.index()][to.index()]));
        let paths = enumerate_simple_paths_undirected(&csr, from, to, n, None);
        if dist[to.index()] == u32::MAX {
            prop_assert!(paths.is_empty());
        } else {
            prop_assert!(!paths.is_empty());
            prop_assert_eq!(paths[0].len() as u32, dist[to.index()]);
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
        let paths = enumerate_simple_paths_undirected(&CsrAdjacency::build(&g), from, to, max, None);
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

    /// The Dijkstra forest with unit weights equals the BFS hop
    /// distance and the Floyd–Warshall one.
    #[test]
    fn dijkstra_unit_weights_match_bfs(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..24)
    ) {
        let g = build(n, &edges);
        let csr = CsrAdjacency::build(&g);
        let start = NodeId(0);
        let dist = bfs(&csr, &[start]);
        let dj = multi_source_dijkstra_csr_by_key(&csr, &[start], |_| 1.0, |v| v);
        let fw = floyd_warshall(&g, |_| 1.0);
        for v in g.nodes() {
            prop_assert_eq!(dj.dist[v.index()], fw[start.index()][v.index()]);
            prop_assert_eq!(hops(dj.dist[v.index()]), dist[v.index()]);
        }
    }

    /// The distance-pruned multi-target enumeration, in the budgeted
    /// form the engine runs, visits exactly the same path set as the
    /// union of per-pair enumerations over every target — the
    /// equivalence behind replacing the engine's |A|·|B| pair loop with
    /// one pruned DFS per source.
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
        let mut is_target = vec![false; n];
        for &t in &targets {
            is_target[t.index()] = true;
        }
        let dist = bfs(&csr, &targets);
        let mut pruned = Vec::new();
        let _ = for_each_path_to_targets_budgeted(
            &csr,
            from,
            &is_target,
            &dist,
            max,
            &mut 0,
            &mut TraversalScratch::new(),
            &mut |_| false,
            |nodes, edges| {
                pruned.push(Path { nodes: nodes.to_vec(), edges: edges.to_vec() });
                ControlFlow::Continue(())
            },
        );
        pruned.sort_by(Path::canonical_cmp);
        let mut union: Vec<Path> = targets
            .iter()
            .filter(|&&t| t != from)
            .flat_map(|&t| enumerate_simple_paths_undirected(&csr, from, t, max, None))
            .collect();
        union.sort_by(Path::canonical_cmp);
        prop_assert_eq!(pruned, union);
    }

    /// CSR traversals agree with the Floyd–Warshall reference: BFS
    /// distances (single- and multi-source, the latter the minimum over
    /// the sources) and unit-weight Dijkstra.
    #[test]
    fn csr_traversals_match_graph_traversals(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..24),
        sources in proptest::collection::vec(0usize..12, 1..4)
    ) {
        let g = build(n, &edges);
        let csr = CsrAdjacency::build(&g);
        let fw = floyd_warshall(&g, |_| 1.0);
        let start = NodeId(0);
        let single = bfs(&csr, &[start]);
        for v in g.nodes() {
            prop_assert_eq!(single[v.index()], hops(fw[start.index()][v.index()]));
        }
        let sources: Vec<NodeId> =
            sources.iter().map(|&i| NodeId((i % n) as u32)).collect();
        let multi = bfs(&csr, &sources);
        let dj = multi_source_dijkstra_csr_by_key(&csr, &sources, |_| 1.0, |v| v);
        for v in g.nodes() {
            let best = sources
                .iter()
                .map(|&s| fw[s.index()][v.index()])
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(multi[v.index()], hops(best));
            prop_assert_eq!(dj.dist[v.index()], best);
        }
    }

    /// The multi-source Dijkstra forest reports the Floyd–Warshall
    /// distance to the nearest source, and its parent chains are
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
        let fw = floyd_warshall(&g, weight);
        let sources: Vec<NodeId> =
            sources.iter().map(|&i| NodeId((i % n) as u32)).collect();
        let ms = multi_source_dijkstra_csr_by_key(&csr, &sources, weight, |v| v);
        for v in g.nodes() {
            let best = sources
                .iter()
                .map(|&s| fw[s.index()][v.index()])
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

    /// The lazy bucket-queue Dijkstra settles the eager heap forest's
    /// nodes in its order, prefix by prefix, and again after `reset` —
    /// on random graphs with parallel edges and self-loops, weights of
    /// one or two half units and random multi-source sets, so that
    /// distance ties are common, with ties broken by a random
    /// permutation of the nodes, so that rank order is not node order.
    #[test]
    fn lazy_dijkstra_settles_the_eager_forest_in_order(
        n in 1usize..14,
        edges in proptest::collection::vec((0usize..14, 0usize..14, 1u32..3), 0..36),
        shuffle in proptest::collection::vec(any::<u32>(), 14),
        sources in proptest::collection::vec(0usize..14, 1..5),
        again in proptest::collection::vec(0usize..14, 1..5)
    ) {
        let pairs: Vec<(usize, usize)> = edges.iter().map(|&(a, b, _)| (a, b)).collect();
        let g = build(n, &pairs);
        let csr = CsrAdjacency::build(&g);
        let half = |e: EdgeId| edges[e.index()].2;
        // Node `order[i]` gets rank `i`: a random permutation.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| (shuffle[v], v));
        let mut ranks = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            ranks[v] = r as u32;
        }
        let rank = |v: NodeId| ranks[v.index()];
        let pick = |raw: &[usize]| -> Vec<NodeId> {
            raw.iter().map(|&i| NodeId((i % n) as u32)).collect()
        };
        let sources = pick(&sources);
        let mut lazy = LazyDijkstra::new(csr.node_count(), n, &sources, rank);
        check_lazy_against_eager(&mut lazy, &csr, &sources, &half, &ranks)?;
        let again = pick(&again);
        lazy.reset(csr.node_count(), n, &again, rank);
        check_lazy_against_eager(&mut lazy, &csr, &again, &half, &ranks)?;
    }

    /// Sorted-slice subset connectivity agrees with induced-subset
    /// connectivity computed from the edge list on arbitrary subsets.
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
        prop_assert_eq!(is_connected_subset_sorted(&csr, &sorted), induced_connected(&g, &set));
    }

    /// A full component is a connected subset; removing a cut vertex from
    /// a path graph disconnects it.
    #[test]
    fn connected_subset_sanity(n in 3usize..12) {
        // Path graph 0–1–…–(n-1).
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        let g = build(n, &edges);
        let csr = CsrAdjacency::build(&g);
        let all: Vec<NodeId> = g.nodes().collect();
        prop_assert!(is_connected_subset_sorted(&csr, &all));
        // Remove the middle node.
        let mid = NodeId((n / 2) as u32);
        let without: Vec<NodeId> = all.into_iter().filter(|&v| v != mid).collect();
        prop_assert!(!is_connected_subset_sorted(&csr, &without));
    }

    /// `CsrAdjacency::build` lists, per node, exactly what a scan of the
    /// live edge slots finds (out-edges by id, then in-edges other than
    /// self-loops by id) — on random graphs with parallel edges and
    /// self-loops, after each round of random edge and node tombstones
    /// and after a compaction. Node removals read the CSR built at the
    /// start of their round, as a mutation batch does, so an edge an
    /// earlier removal of the round tombstoned is skipped.
    #[test]
    fn csr_matches_a_scan_of_live_edge_slots(
        n in 1usize..12,
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..40),
        rounds in proptest::collection::vec(
            (proptest::collection::vec(0usize..40, 0..6), proptest::collection::vec(0usize..12, 0..3)),
            1..4
        )
    ) {
        let mut g = build(n, &edges);
        let check = |g: &Graph<(), ()>| -> Result<(), TestCaseError> {
            let csr = CsrAdjacency::build(g);
            prop_assert_eq!(csr.node_count(), g.node_count());
            for (v, want) in scan_live_slots(g).iter().enumerate() {
                prop_assert_eq!(csr.neighbors(NodeId(v as u32)), want.as_slice(), "node {}", v);
            }
            prop_assert!(g.edges().all(|e| g.is_node_alive(e.from) && g.is_node_alive(e.to)));
            Ok(())
        };
        check(&g)?;
        for (dead_edges, dead_nodes) in &rounds {
            let csr = CsrAdjacency::build(&g);
            for &i in dead_edges {
                let e = EdgeId((i % g.edge_slots().max(1)) as u32);
                if g.is_edge_alive(e) {
                    g.remove_edge(e);
                }
            }
            for &i in dead_nodes {
                let v = NodeId((i % g.node_count()) as u32);
                if g.is_node_alive(v) {
                    g.remove_node(v, &csr);
                }
            }
            check(&g)?;
        }
        let live_edges = g.edge_count();
        g.compact();
        prop_assert_eq!(g.edge_slots(), live_edges);
        check(&g)?;
    }
}
