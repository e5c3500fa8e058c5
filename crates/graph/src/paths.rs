//! Bounded simple-path enumeration in the undirected view.

use crate::csr::CsrAdjacency;
use crate::graph::{EdgeId, NodeId};
use std::ops::ControlFlow;

/// A path through the graph: `nodes.len() == edges.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Visited nodes in order.
    pub nodes: Vec<NodeId>,
    /// Traversed edges in order (directionless: each edge may have been
    /// crossed against its stored direction).
    pub edges: Vec<EdgeId>,
}

impl Path {
    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// `true` for a single-node path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// First node.
    pub fn start(&self) -> NodeId {
        // lint: allow(unwrap, Path is non-empty by construction)
        *self.nodes.first().expect("paths are non-empty")
    }

    /// Last node.
    pub fn end(&self) -> NodeId {
        // lint: allow(unwrap, Path is non-empty by construction)
        *self.nodes.last().expect("paths are non-empty")
    }

    /// The canonical enumeration order: by edge count, then
    /// lexicographically by edge ids. Every sorted path listing in the
    /// workspace uses this one comparator — downstream dedup picks
    /// representatives among parallel-edge variants by it, so all
    /// enumeration sites must agree.
    pub fn canonical_cmp(&self, other: &Path) -> std::cmp::Ordering {
        self.edges.len().cmp(&other.edges.len()).then_with(|| self.edges.cmp(&other.edges))
    }
}

/// Enumerate all *simple* paths (no repeated node) between `from` and
/// `to` in the undirected view, with at most `max_edges` edges.
///
/// Parallel edges yield distinct paths (they represent different join
/// conditions in the keyword-search data graph). Results are sorted by
/// length, then lexicographically by edge ids, so output order is
/// deterministic. `limit` caps the number of returned paths (`None` for
/// unlimited); enumeration stops early once reached, exploring
/// shortest-first is *not* guaranteed under a limit.
///
/// This is the per-pair oracle the distance-pruned
/// [`for_each_path_to_targets_budgeted`] is checked against, and the
/// lookup behind addressing a connection by its tuple sequence.
pub fn enumerate_simple_paths_undirected(
    csr: &CsrAdjacency,
    from: NodeId,
    to: NodeId,
    max_edges: usize,
    limit: Option<usize>,
) -> Vec<Path> {
    let mut out = Vec::new();
    if from == to {
        out.push(Path { nodes: vec![from], edges: Vec::new() });
        return out;
    }
    let cap = limit.unwrap_or(usize::MAX);
    if cap == 0 || max_edges == 0 {
        return out;
    }
    let mut nodes = vec![from];
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut on_path = vec![false; csr.node_count()];
    on_path[from.index()] = true;
    dfs(csr, from, to, max_edges, cap, &mut nodes, &mut edges, &mut on_path, &mut out);
    out.sort_by(Path::canonical_cmp);
    out
}

#[allow(clippy::too_many_arguments)]
fn dfs(
    csr: &CsrAdjacency,
    current: NodeId,
    to: NodeId,
    budget: usize,
    cap: usize,
    nodes: &mut Vec<NodeId>,
    edges: &mut Vec<EdgeId>,
    on_path: &mut [bool],
    out: &mut Vec<Path>,
) {
    for &(next, e) in csr.neighbors(current) {
        if out.len() >= cap {
            return;
        }
        if next == to {
            edges.push(e);
            nodes.push(next);
            out.push(Path { nodes: nodes.clone(), edges: edges.clone() });
            nodes.pop();
            edges.pop();
            if out.len() >= cap {
                return;
            }
            continue;
        }
        if budget > 1 && !on_path[next.index()] {
            on_path[next.index()] = true;
            nodes.push(next);
            edges.push(e);
            dfs(csr, next, to, budget - 1, cap, nodes, edges, on_path, out);
            edges.pop();
            nodes.pop();
            on_path[next.index()] = false;
        }
    }
}

/// Reusable buffers of the pruned path DFS: the path stacks and the
/// on-path bitset. One scratch serves any number of
/// [`for_each_path_to_targets_budgeted`] calls (the DFS restores the
/// bitset on unwind, break included), so a warm search epoch performs
/// zero allocations in the enumeration kernel.
#[derive(Debug, Default, Clone)]
pub struct TraversalScratch {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    on_path: Vec<bool>,
}

impl TraversalScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Restore the clean-scratch invariant (empty stacks, all-false
    /// bitset) without dropping capacity. The DFS maintains it on every
    /// normal exit and on visitor breaks — but a **panic** unwinding
    /// through the traversal (an injected worker fault, say) skips the
    /// restore pops, so a caller that catches the unwind must reset the
    /// scratch before reusing it.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.edges.clear();
        self.on_path.iter_mut().for_each(|b| *b = false);
    }
}

/// Distance-pruned multi-target path enumeration: visit every simple
/// path of `1..=max_edges` edges that starts at `source` and ends at a
/// node with `is_target[end]`, in DFS discovery order — the form the
/// engine's search pipeline runs on.
///
/// This replaces the quadratic per-(source, target) loop of repeated
/// [`enumerate_simple_paths_undirected`] calls with **one** DFS per
/// source against the whole target set. `dist_to_target[n]` must be the
/// unweighted distance from `n` to the *nearest* target (from
/// [`crate::bounded_bfs_distances_into`] over the targets, computed once
/// and shared across sources); any branch with
/// `depth + 1 + dist_to_target[next] > max_edges` is cut — it cannot
/// complete within budget even in the unconstrained graph, so pruning
/// never loses a path. Exploration cost drops from `O(b^max_edges)`
/// dead-end wandering to near-output-sensitive work.
///
/// Paths passing *through* one target on the way to another are
/// visited once per target endpoint, exactly like the per-pair union.
/// The visitor receives each path's nodes and edges (borrowed scratch
/// buffers; copy to keep) and can stop the whole search by returning
/// [`ControlFlow::Break`]. Returns whether the search was broken.
///
/// Every DFS descent (a node pushed onto the path under exploration)
/// increments `*expansions`. The counter is how the engine's streaming
/// top-k mode *proves* its early termination does less traversal work
/// than full enumeration — see `SearchStats` in `cla-core`.
///
/// `scratch` holds the DFS buffers; results are identical for any
/// (reused or fresh) scratch, and a reused one keeps a warm search
/// epoch allocation-free.
///
/// `interrupt` is called with the running `*expansions` total after
/// every counted descent; returning `true` aborts the whole traversal
/// with [`ControlFlow::Break`], scratch invariants intact (the bitset
/// is restored on the way out, exactly like a visitor break). The
/// caller distinguishes a budget abort from a visitor break through its
/// own interrupt state — the traversal itself treats them identically.
/// `&mut |_| false` never interrupts.
#[allow(clippy::too_many_arguments)]
pub fn for_each_path_to_targets_budgeted<F, I>(
    csr: &CsrAdjacency,
    source: NodeId,
    is_target: &[bool],
    dist_to_target: &[u32],
    max_edges: usize,
    expansions: &mut u64,
    scratch: &mut TraversalScratch,
    interrupt: &mut I,
    mut visit: F,
) -> ControlFlow<()>
where
    F: FnMut(&[NodeId], &[EdgeId]) -> ControlFlow<()>,
    I: FnMut(u64) -> bool,
{
    assert_eq!(is_target.len(), csr.node_count(), "target mask size mismatch");
    assert_eq!(dist_to_target.len(), csr.node_count(), "distance map size mismatch");
    if max_edges == 0 || dist_to_target[source.index()] as usize > max_edges {
        return ControlFlow::Continue(());
    }
    scratch.nodes.clear();
    scratch.nodes.push(source);
    scratch.edges.clear();
    // The DFS resets every on-path bit it sets (break included: bits are
    // cleared before `?` propagates), so between calls the bitset is
    // all-false and only needs resizing for graph growth.
    if scratch.on_path.len() < csr.node_count() {
        scratch.on_path.resize(csr.node_count(), false);
    }
    debug_assert!(scratch.on_path.iter().all(|&b| !b), "scratch bitset must be clean");
    scratch.on_path[source.index()] = true;
    *expansions += 1; // the source itself
    let flow = if interrupt(*expansions) {
        ControlFlow::Break(())
    } else {
        dfs_to_targets(
            csr,
            source,
            is_target,
            dist_to_target,
            max_edges,
            &mut scratch.nodes,
            &mut scratch.edges,
            &mut scratch.on_path,
            expansions,
            interrupt,
            &mut visit,
        )
    };
    scratch.on_path[source.index()] = false;
    flow
}

#[allow(clippy::too_many_arguments)]
fn dfs_to_targets<F, I>(
    csr: &CsrAdjacency,
    current: NodeId,
    is_target: &[bool],
    dist_to_target: &[u32],
    budget: usize,
    nodes: &mut Vec<NodeId>,
    edges: &mut Vec<EdgeId>,
    on_path: &mut [bool],
    expansions: &mut u64,
    interrupt: &mut I,
    visit: &mut F,
) -> ControlFlow<()>
where
    F: FnMut(&[NodeId], &[EdgeId]) -> ControlFlow<()>,
    I: FnMut(u64) -> bool,
{
    for &(next, e) in csr.neighbors(current) {
        if on_path[next.index()] {
            continue;
        }
        if is_target[next.index()] {
            edges.push(e);
            nodes.push(next);
            let flow = visit(nodes, edges);
            nodes.pop();
            edges.pop();
            flow?;
        }
        // Descend only if some target is still reachable within the
        // remaining budget (admissible lower bound ⇒ lossless cut).
        if budget > 1 && (dist_to_target[next.index()] as usize) < budget {
            on_path[next.index()] = true;
            nodes.push(next);
            edges.push(e);
            *expansions += 1;
            let flow = if interrupt(*expansions) {
                ControlFlow::Break(())
            } else {
                dfs_to_targets(
                    csr,
                    next,
                    is_target,
                    dist_to_target,
                    budget - 1,
                    nodes,
                    edges,
                    on_path,
                    expansions,
                    interrupt,
                    visit,
                )
            };
            edges.pop();
            nodes.pop();
            on_path[next.index()] = false;
            flow?;
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::traversal::bounded_bfs_distances_into;
    use std::collections::VecDeque;

    /// Diamond with an extra long way round:
    /// a–b–d, a–c–d, a–d (direct), plus tail d–e.
    fn graph() -> (CsrAdjacency, Vec<NodeId>) {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        let d = g.add_node(());
        let e = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, d, ());
        g.add_edge(a, c, ());
        g.add_edge(c, d, ());
        g.add_edge(a, d, ());
        g.add_edge(d, e, ());
        (CsrAdjacency::build(&g), vec![a, b, c, d, e])
    }

    /// The target mask and nearest-target distance map of `targets`.
    fn target_maps(csr: &CsrAdjacency, targets: &[NodeId]) -> (Vec<bool>, Vec<u32>) {
        let mut is_target = vec![false; csr.node_count()];
        for &t in targets {
            is_target[t.index()] = true;
        }
        let mut dist = Vec::new();
        bounded_bfs_distances_into(csr, targets, u32::MAX, &mut dist, &mut VecDeque::new());
        (is_target, dist)
    }

    /// Every path the pruned enumeration visits from `source`, sorted
    /// canonically.
    fn paths_to_targets(
        csr: &CsrAdjacency,
        source: NodeId,
        targets: &[NodeId],
        max_edges: usize,
    ) -> Vec<Path> {
        let (is_target, dist) = target_maps(csr, targets);
        let mut out = Vec::new();
        let _ = for_each_path_to_targets_budgeted(
            csr,
            source,
            &is_target,
            &dist,
            max_edges,
            &mut 0,
            &mut TraversalScratch::new(),
            &mut |_| false,
            |nodes, edges| {
                out.push(Path { nodes: nodes.to_vec(), edges: edges.to_vec() });
                ControlFlow::Continue(())
            },
        );
        out.sort_by(Path::canonical_cmp);
        out
    }

    #[test]
    fn enumerates_all_simple_paths() {
        let (csr, ns) = graph();
        let paths = enumerate_simple_paths_undirected(&csr, ns[0], ns[3], 4, None);
        // a–d, a–b–d, a–c–d.
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0].len(), 1);
        assert_eq!(paths[1].len(), 2);
        assert_eq!(paths[2].len(), 2);
        for p in &paths {
            assert_eq!(p.start(), ns[0]);
            assert_eq!(p.end(), ns[3]);
            assert_eq!(p.nodes.len(), p.edges.len() + 1);
        }
    }

    #[test]
    fn max_edges_bounds_results() {
        let (csr, ns) = graph();
        let paths = enumerate_simple_paths_undirected(&csr, ns[0], ns[3], 1, None);
        assert_eq!(paths.len(), 1);
        let paths = enumerate_simple_paths_undirected(&csr, ns[0], ns[3], 0, None);
        assert!(paths.is_empty());
    }

    #[test]
    fn limit_caps_results() {
        let (csr, ns) = graph();
        let paths = enumerate_simple_paths_undirected(&csr, ns[0], ns[3], 4, Some(2));
        assert_eq!(paths.len(), 2);
        let paths = enumerate_simple_paths_undirected(&csr, ns[0], ns[3], 4, Some(0));
        assert!(paths.is_empty());
    }

    #[test]
    fn same_node_yields_trivial_path() {
        let (csr, ns) = graph();
        let paths = enumerate_simple_paths_undirected(&csr, ns[0], ns[0], 3, None);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].is_empty());
    }

    #[test]
    fn parallel_edges_give_distinct_paths() {
        let mut g: Graph<(), u8> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(b, a, 2);
        let paths =
            enumerate_simple_paths_undirected(&CsrAdjacency::build(&g), a, b, 1, None);
        assert_eq!(paths.len(), 2);
        assert_ne!(paths[0].edges, paths[1].edges);
    }

    #[test]
    fn unreachable_yields_no_paths() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let csr = CsrAdjacency::build(&g);
        assert!(enumerate_simple_paths_undirected(&csr, a, b, 5, None).is_empty());
        assert!(paths_to_targets(&csr, a, &[b], 5).is_empty());
    }

    /// Multi-target enumeration equals the union of per-pair runs.
    fn per_pair_union(
        csr: &CsrAdjacency,
        from: NodeId,
        targets: &[NodeId],
        max: usize,
    ) -> Vec<Path> {
        let mut out: Vec<Path> = targets
            .iter()
            .filter(|&&t| t != from)
            .flat_map(|&t| enumerate_simple_paths_undirected(csr, from, t, max, None))
            .collect();
        out.sort_by(|a, b| a.canonical_cmp(b));
        out
    }

    #[test]
    fn multi_target_matches_per_pair_union() {
        let (csr, ns) = graph();
        for max in 0..=5 {
            let targets = [ns[3], ns[4]];
            let pruned = paths_to_targets(&csr, ns[0], &targets, max);
            assert_eq!(pruned, per_pair_union(&csr, ns[0], &targets, max), "max={max}");
        }
    }

    #[test]
    fn multi_target_with_source_in_targets_skips_trivial_path() {
        let (csr, ns) = graph();
        // Source a is itself a target: only paths to OTHER targets count;
        // no zero-length path is reported.
        let targets = [ns[0], ns[3]];
        let paths = paths_to_targets(&csr, ns[0], &targets, 4);
        assert!(paths.iter().all(|p| !p.is_empty()));
        assert_eq!(paths, per_pair_union(&csr, ns[0], &targets, 4));
    }

    #[test]
    fn multi_target_visits_paths_through_targets() {
        // Chain a–b–c with both b and c targets: a–b and a–b–c must both
        // be found even though a–b–c passes through target b.
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let c = g.add_node(());
        g.add_edge(a, b, ());
        g.add_edge(b, c, ());
        let paths = paths_to_targets(&CsrAdjacency::build(&g), a, &[b, c], 4);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].end(), b);
        assert_eq!(paths[1].end(), c);
    }

    #[test]
    fn pruning_cuts_unreachable_branches_without_losing_paths() {
        // A long dead-end tail that cannot reach the target within the
        // budget must not change results.
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let t = g.add_node(());
        g.add_edge(a, t, ());
        let mut prev = a;
        for _ in 0..6 {
            let n = g.add_node(());
            g.add_edge(prev, n, ());
            prev = n;
        }
        let csr = CsrAdjacency::build(&g);
        let paths = paths_to_targets(&csr, a, &[t], 3);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths, per_pair_union(&csr, a, &[t], 3));
    }

    #[test]
    fn visitor_break_stops_enumeration() {
        let (csr, ns) = graph();
        let (is_target, dist) = target_maps(&csr, &[ns[3]]);
        let mut count = 0;
        let mut scratch = TraversalScratch::new();
        let flow = for_each_path_to_targets_budgeted(
            &csr,
            ns[0],
            &is_target,
            &dist,
            4,
            &mut 0,
            &mut scratch,
            &mut |_| false,
            |_, _| {
                count += 1;
                ControlFlow::Break(())
            },
        );
        assert_eq!(count, 1);
        assert!(flow.is_break());
        // The break restored the scratch: a reuse sees every path.
        let mut all = 0;
        let _ = for_each_path_to_targets_budgeted(
            &csr,
            ns[0],
            &is_target,
            &dist,
            4,
            &mut 0,
            &mut scratch,
            &mut |_| false,
            |_, _| {
                all += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(all, paths_to_targets(&csr, ns[0], &[ns[3]], 4).len());
    }

    #[test]
    fn expansion_counter_tracks_descents_and_shrinks_with_budget() {
        let (csr, ns) = graph();
        let (is_target, dist) = target_maps(&csr, &[ns[4]]);
        let count = |max: usize| {
            let mut expansions = 0;
            let _ = for_each_path_to_targets_budgeted(
                &csr,
                ns[0],
                &is_target,
                &dist,
                max,
                &mut expansions,
                &mut TraversalScratch::new(),
                &mut |_| false,
                |_, _| ControlFlow::Continue(()),
            );
            expansions
        };
        let deep = count(5);
        let shallow = count(2);
        assert!(
            deep > shallow,
            "tighter budgets must expand fewer nodes ({deep} vs {shallow})"
        );
        assert!(shallow >= 1, "the source itself counts as an expansion");
        // A source that cannot reach any target within budget expands
        // nothing at all.
        assert_eq!(count(1), 0);
    }

    #[test]
    fn paths_never_repeat_nodes() {
        let (csr, ns) = graph();
        for p in enumerate_simple_paths_undirected(&csr, ns[0], ns[4], 5, None) {
            let mut sorted = p.nodes.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), p.nodes.len());
        }
    }
}
