//! # cla-graph — generic graph substrate
//!
//! A small, dependency-free directed multigraph with typed node and edge
//! payloads, plus the traversal toolkit the keyword-search layer needs:
//!
//! * [`Graph`] — adjacency-list multigraph with dense `u32` ids;
//! * [`CsrAdjacency`] — a flat, build-once CSR view of the undirected
//!   incidence, the substrate of every search hot path;
//! * BFS distances/parents and induced-subset connectivity
//!   ([`bfs_distances_undirected`], [`multi_source_bfs_distances`],
//!   [`is_connected_subset`], [`is_connected_subset_sorted`]);
//! * bounded **simple-path enumeration** in the undirected view
//!   ([`enumerate_simple_paths_undirected`]) — the workhorse behind the
//!   paper's connection enumeration (§3) — and its distance-pruned
//!   multi-target form ([`for_each_path_to_targets`],
//!   [`enumerate_paths_to_targets`]), which runs one frontier-aware DFS
//!   per source instead of one unpruned DFS per (source, target) pair;
//! * Dijkstra shortest paths with pluggable edge weights ([`dijkstra`],
//!   [`dijkstra_csr`]), and the multi-source **forest** variant
//!   ([`multi_source_dijkstra_csr`]) whose parent chains are guaranteed
//!   consistent — the substrate of the BANKS-style backward expansion.
//!
//! The crate is deliberately generic: `cla-core` instantiates it with
//! tuple payloads and foreign-key edge annotations, the benches with
//! synthetic payloads.
//!
//! ## Why not `petgraph`?
//!
//! The sanctioned dependency set for this reproduction excludes graph
//! crates; the algorithms needed are small and benefit from
//! domain-specific shapes (undirected views over directed FK edges,
//! multi-edges with annotations), so the substrate is implemented here
//! from scratch.

#![forbid(unsafe_code)]

mod csr;
mod dijkstra;
mod graph;
mod paths;
mod traversal;

pub use csr::CsrAdjacency;
pub use dijkstra::{
    dijkstra, dijkstra_csr, multi_source_dijkstra_csr, multi_source_dijkstra_csr_by_key,
    DijkstraResult, LazyDijkstra, MultiSourceDijkstra,
};
pub use graph::{EdgeId, EdgeRef, Graph, NodeId};
pub use paths::{
    enumerate_paths_to_targets, enumerate_simple_paths_undirected, for_each_path_to_targets,
    for_each_path_to_targets_budgeted, shortest_path_undirected, Path, TraversalScratch,
};
pub use traversal::{
    bfs_distances_csr, bfs_distances_undirected, bfs_tree_undirected, bounded_bfs_distances,
    bounded_bfs_distances_into, is_connected_subset, is_connected_subset_sorted,
    multi_source_bfs_distances, BfsTree,
};
