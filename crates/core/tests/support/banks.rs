//! BANKS by eager expansion: a reference for
//! `cla_core::banks_search_budgeted` that shares none of its expansion
//! loop.

use cla_core::{BanksOptions, DataGraph, SteinerTree};
use cla_graph::{multi_source_dijkstra_csr_by_key, MultiSourceDijkstra, NodeId};
use std::collections::{BTreeSet, HashSet};

/// Every BANKS answer tree, computed eagerly: one multi-source Dijkstra
/// per keyword set run to exhaustion; every node that all sets reach is
/// a root, taken in `(summed distance, root tuple)` order; each root's
/// tree is the union of its parent chains (root first, then discovery
/// order; weight summed over distinct edges); the first tree of each
/// node set is kept; the trees are sorted by `(weight, root tuple)`.
///
/// Returns the trees (cut to `opts.k`) and how many trees the node-set
/// dedup dropped.
pub fn banks_naive(
    dg: &DataGraph,
    keyword_sets: &[Vec<NodeId>],
    opts: &BanksOptions,
) -> (Vec<SteinerTree>, usize) {
    if keyword_sets.is_empty() || keyword_sets.iter().any(Vec::is_empty) {
        return (Vec::new(), 0);
    }
    let g = dg.graph();
    let weight_of = |e| opts.weighting.weight(g.edge(e).payload);
    let forests: Vec<MultiSourceDijkstra> = keyword_sets
        .iter()
        .map(|set| {
            multi_source_dijkstra_csr_by_key(dg.csr(), set, weight_of, |v| dg.tuple_of(v))
        })
        .collect();
    let mut roots: Vec<(f64, NodeId)> = g
        .nodes()
        .filter(|n| forests.iter().all(|f| f.origin[n.index()].is_some()))
        .map(|n| (forests.iter().map(|f| f.dist[n.index()]).sum(), n))
        .collect();
    roots.sort_by(|a, b| {
        a.0.total_cmp(&b.0).then_with(|| dg.tuple_of(a.1).cmp(&dg.tuple_of(b.1)))
    });

    let mut seen: HashSet<BTreeSet<NodeId>> = HashSet::new();
    let mut trees = Vec::new();
    let mut dropped = 0;
    for (_, root) in roots {
        let mut nodes = vec![root];
        let mut edges = Vec::new();
        let mut keyword_nodes = Vec::new();
        for forest in &forests {
            let mut current = root;
            while let Some((prev, e)) = forest.parent[current.index()] {
                if !edges.iter().any(|&(seen_e, _, _)| seen_e == e) {
                    edges.push((e, current, prev));
                }
                if !nodes.contains(&prev) {
                    nodes.push(prev);
                }
                current = prev;
            }
            keyword_nodes.push(current);
        }
        if !seen.insert(nodes.iter().copied().collect()) {
            dropped += 1;
            continue;
        }
        let weight = edges.iter().fold(0.0, |w, &(e, _, _)| w + weight_of(e));
        trees.push(SteinerTree { root, nodes, edges, keyword_nodes, weight });
    }
    trees.sort_by(|a, b| {
        a.weight
            .total_cmp(&b.weight)
            .then_with(|| dg.tuple_of(a.root).cmp(&dg.tuple_of(b.root)))
    });
    if let Some(k) = opts.k {
        trees.truncate(k);
    }
    (trees, dropped)
}
