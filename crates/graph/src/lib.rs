//! # cla-graph — generic graph substrate
//!
//! A small, dependency-free directed multigraph with typed node and edge
//! payloads, plus the traversals the keyword-search layer needs:
//!
//! * [`Graph`] — node and edge slots with dense `u32` ids and tombstone
//!   removal; it stores no adjacency;
//! * [`CsrAdjacency`] — the one adjacency: a flat CSR of the undirected
//!   incidence, built from the live edge slots and read by every
//!   traversal and by mid-batch edits alike;
//! * multi-source bounded BFS distances, at once or grown one hop ring
//!   at a time, and induced-subset connectivity
//!   ([`bounded_bfs_distances_into`], [`RingBfs`],
//!   [`is_connected_subset_sorted`]);
//! * bounded **simple-path enumeration** in the undirected view: the
//!   distance-pruned multi-target form the paper's connection
//!   enumeration (§3) runs on ([`for_each_path_to_targets_budgeted`]),
//!   one frontier-aware DFS per source instead of one unpruned DFS per
//!   (source, target) pair, and the per-pair form it is checked against
//!   ([`enumerate_simple_paths_undirected`]);
//! * the multi-source Dijkstra **forest** whose parent chains are
//!   guaranteed consistent — the substrate of the BANKS-style backward
//!   expansion — settled lazily ([`LazyDijkstra`]) or eagerly
//!   ([`multi_source_dijkstra_csr_by_key`]). The eager run pops a
//!   binary heap in `(dist, key, node)` order. The lazy run takes edge
//!   weights of one or two half units and breaks ties by a dense `u32`
//!   rank per node that the caller supplies; its frontier is a ring of
//!   three distance buckets (Dial's algorithm), each a bitset over
//!   ranks. A settle at distance `d` pushes only to `d + 1` or `d + 2`,
//!   never into the bucket being drained, so draining a bucket in
//!   ascending bit order takes its nodes in rank order without a sort,
//!   and the lazy run settles the eager run's forest (keyed by the same
//!   rank) in the eager run's order.
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
pub use dijkstra::{multi_source_dijkstra_csr_by_key, LazyDijkstra, MultiSourceDijkstra};
pub use graph::{EdgeId, EdgeRef, Graph, NodeId};
pub use paths::{
    enumerate_simple_paths_undirected, for_each_path_to_targets_budgeted, Path,
    TraversalScratch,
};
pub use traversal::{bounded_bfs_distances_into, is_connected_subset_sorted, RingBfs};
