//! The per-pair reference of the Paths enumeration: one unpruned DFS
//! per (source, target) pair, and the whole answer's connections it
//! predicts.

use cla_core::{Connection, DataGraph, SearchEngine};
use cla_er::ErSchema;
use cla_graph::{enumerate_simple_paths_undirected, NodeId};
use std::collections::HashSet;

/// Every simple-path connection between two keyword match sets, by one
/// unpruned DFS per (source, target) pair, in source, target, then
/// canonical path order.
pub fn pair_connections_naive(
    dg: &DataGraph,
    schema: &ErSchema,
    set_a: &[NodeId],
    set_b: &[NodeId],
    max_rdb: usize,
) -> Vec<Connection> {
    let mut out = Vec::new();
    for &a in set_a {
        for &b in set_b {
            if a == b {
                continue;
            }
            for p in enumerate_simple_paths_undirected(dg.csr(), a, b, max_rdb, None) {
                out.push(Connection::from_path(&p, dg, schema));
            }
        }
    }
    out
}

/// The data-graph nodes matching each keyword of `keywords`.
pub fn keyword_nodes(engine: &SearchEngine, keywords: &[&str]) -> Vec<Vec<NodeId>> {
    let dg = engine.data_graph();
    keywords
        .iter()
        .map(|kw| {
            engine
                .index()
                .matching_tuples(kw)
                .into_iter()
                .filter_map(|t| dg.node_of(t))
                .collect()
        })
        .collect()
}

/// The connections a whole two-keyword Paths answer holds, by the
/// per-pair reference: the tuples matching both keywords, then every
/// path of [`pair_connections_naive`], each oriented from its smaller
/// endpoint tuple, keeping the first connection per node sequence.
pub fn pair_oracle(
    engine: &SearchEngine,
    keywords: [&str; 2],
    max_rdb: usize,
) -> Vec<Connection> {
    let dg = engine.data_graph();
    let sets = keyword_nodes(engine, &keywords);
    let mut singles: Vec<NodeId> =
        sets[0].iter().copied().filter(|n| sets[1].contains(n)).collect();
    singles.sort();
    singles.dedup();
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    singles
        .into_iter()
        .map(Connection::single)
        .chain(pair_connections_naive(dg, engine.er_schema(), &sets[0], &sets[1], max_rdb))
        .map(|c| if dg.tuple_of(c.end()) < dg.tuple_of(c.start()) { c.reversed() } else { c })
        .filter(|c| seen.insert(c.nodes().to_vec()))
        .collect()
}
