//! BANKS-style Steiner-tree search (Aditya et al., VLDB 2002 — the
//! paper's reference [1]).
//!
//! The classic backward-expansion idea: run a (multi-source) shortest-
//! path expansion from every keyword's match set; any node reaching all
//! sets is a candidate *root*, and the union of its shortest paths to
//! one nearest match per set forms an answer tree whose weight is the
//! sum of the path weights. We expand in the undirected view of the FK
//! graph and expose pluggable edge weights:
//!
//! * [`EdgeWeighting::Uniform`] — every FK edge costs 1 (RDB length);
//! * [`EdgeWeighting::ErAware`] — middle-relation edges cost 0.5, so a
//!   collapsed N:M hop costs 1 in total: BANKS weights aligned with the
//!   paper's *conceptual length* (an ablation in the benches).
//!
//! Both weightings use weights of one or two half units, so the
//! expansion counts distances in whole half units. Each keyword set's
//! frontier is a ring of three distance buckets, each a bitset over
//! node ranks (tuple order, [`LazyDijkstra`]), and the expansion drains
//! one distance level at a time: the global frontier, the completed
//! candidates below it and the top-k cutoff are settled once per level,
//! then each set's bucket at that level in set order. Completed
//! candidates wait in a bucket queue by total. Once k trees are held, a
//! completed root that one keyword set reaches only beyond the held
//! k-th weight is skipped without assembling its tree
//! ([`banks_search_budgeted`]).

use crate::datagraph::{DataGraph, EdgeAnnotation};
use crate::ranking::f64_sort_bits_asc;
use cla_er::FkRole;
use cla_graph::{EdgeId, LazyDijkstra, NodeId};
use cla_relational::TupleId;
use std::collections::{BTreeSet, BinaryHeap};

/// Edge-weight schemes for the expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EdgeWeighting {
    /// Every foreign-key edge costs 1 (2 half units).
    #[default]
    Uniform,
    /// Middle-relation edges cost ½ (1 half unit) so an N:M hop totals
    /// 1 (conceptual length); every other edge costs 1.
    ErAware,
}

impl EdgeWeighting {
    /// The weight of one edge.
    pub fn weight(self, annotation: &EdgeAnnotation) -> f64 {
        half(self.half_units(annotation))
    }

    /// The weight of one edge in half units, 1 or 2: what the
    /// expansion's frontiers ([`LazyDijkstra`]) relax with.
    pub(crate) fn half_units(self, annotation: &EdgeAnnotation) -> u32 {
        match self {
            EdgeWeighting::Uniform => 2,
            EdgeWeighting::ErAware => match annotation.role {
                FkRole::Middle { .. } => 1,
                FkRole::Direct { .. } => 2,
            },
        }
    }
}

/// A count of half units as a weight.
fn half(units: u32) -> f64 {
    f64::from(units) * 0.5
}

/// Options for [`banks_search`].
#[derive(Debug, Clone, Copy)]
pub struct BanksOptions {
    /// Maximum number of answer trees to return (`None` = every
    /// candidate root's tree).
    pub k: Option<usize>,
    /// Edge weighting scheme.
    pub weighting: EdgeWeighting,
}

impl Default for BanksOptions {
    fn default() -> Self {
        BanksOptions { k: Some(10), weighting: EdgeWeighting::Uniform }
    }
}

/// An answer tree: a connected set of tuples covering all keyword sets.
#[derive(Debug, Clone, PartialEq)]
pub struct SteinerTree {
    /// The root (the connecting node where backward paths meet).
    pub root: NodeId,
    /// All tree nodes (root first, then discovery order, deduplicated).
    pub nodes: Vec<NodeId>,
    /// Tree edges as `(edge, parent-side node, child-side node)` triples,
    /// oriented away from the root.
    pub edges: Vec<(EdgeId, NodeId, NodeId)>,
    /// One matched node per keyword set, in keyword order.
    pub keyword_nodes: Vec<NodeId>,
    /// Total weight under the chosen [`EdgeWeighting`].
    pub weight: f64,
}

impl SteinerTree {
    /// The distinct tuples of the tree.
    pub fn tuple_set(&self, dg: &DataGraph) -> BTreeSet<TupleId> {
        self.nodes.iter().map(|&n| dg.tuple_of(n)).collect()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The number of tree edges at `n`. A tree has a handful of edges,
    /// so a scan beats building a degree map.
    pub(crate) fn degree(&self, n: NodeId) -> usize {
        self.edges.iter().map(|&(_, a, b)| usize::from(a == n) + usize::from(b == n)).sum()
    }

    /// `true` when the tree is a simple path (no edge endpoint of degree
    /// above 2), which is always the case for two keyword sets. Degrees
    /// are counted by scanning the edges.
    pub fn is_path(&self) -> bool {
        self.edges.iter().all(|&(_, a, b)| self.degree(a) <= 2 && self.degree(b) <= 2)
    }

    /// Linearize a path-shaped tree into an ordered node/edge sequence
    /// starting at `start` (must be an endpoint). Returns `None` if the
    /// tree branches. Each step takes the first edge, in tree order, at
    /// the current node whose other end is not the previous node.
    pub fn linearize(&self, start: NodeId) -> Option<(Vec<NodeId>, Vec<EdgeId>)> {
        if !self.is_path() {
            return None;
        }
        if self.edges.is_empty() {
            return Some((vec![self.root], Vec::new()));
        }
        if self.degree(start) != 1 {
            return None;
        }
        let mut nodes = vec![start];
        let mut edges = Vec::new();
        let mut prev: Option<NodeId> = None;
        let mut current = start;
        let step = |current: NodeId, prev: Option<NodeId>| {
            self.edges.iter().find_map(|&(e, a, b)| {
                let other = if a == current {
                    b
                } else if b == current {
                    a
                } else {
                    return None;
                };
                (Some(other) != prev).then_some((e, other))
            })
        };
        while let Some((e, m)) = step(current, prev) {
            edges.push(e);
            nodes.push(m);
            prev = Some(current);
            current = m;
        }
        Some((nodes, edges))
    }
}

/// Traversal-work accounting of one [`banks_search_budgeted`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BanksWork {
    /// Frontier settles across all per-set expansions — one per node
    /// taken from a keyword set's bucket queue. The full (`k: None`)
    /// search settles every reachable node once per set; the top-k
    /// cutoff stops as soon as no unfinished frontier entry can matter.
    pub expansions: u64,
    /// Candidate roots completed (reached by every keyword set). A full
    /// run counts exactly the classic BANKS candidate-root set; a cut
    /// run strictly fewer whenever the cutoff fires.
    pub candidates: u64,
    /// `true` when the cutoff stopped expansion before the frontiers
    /// were exhausted.
    pub early_terminated: bool,
}

/// Reusable state of the BANKS expansion — per-set lazy Dijkstra
/// forests, per-node completion accounting, the candidate queue, the
/// held top k and the tree-assembly buffers — so repeated searches on a
/// live engine re-allocate none of it. Each forest keeps 12 bytes per
/// node (distance and packed parent) and three bits per rank.
///
/// Node-set dedup needs no set of seen trees. Every assembled root is
/// *registered* with its tree's node count instead, and a tree is a
/// duplicate exactly when some registered root on its node set has the
/// same node count and parent chains that stay inside that set. An
/// earlier tree with the same node set contains its own root, and a
/// completed root's parent chains are final (every chain node was
/// settled before the root), so re-walking them later gives the same
/// nodes; conversely, a subset of the same size is the same set. No
/// set is hashed or stored per tree. A root skipped without assembly
/// (see [`banks_search_budgeted`]) is not registered; no tree that
/// could enter the top k has its node set.
#[derive(Debug, Clone, Default)]
pub struct BanksScratch {
    forests: Vec<LazyDijkstra>,
    /// Per node: the keyword sets that settled it so far.
    reached: Vec<Reach>,
    /// Completed candidate roots in the classic BANKS priority.
    candidates: CandidateQueue,
    /// The held top k as a max-heap of `(weight bits, root rank, index
    /// into the output)`, weights as order-preserving `f64` bit images:
    /// its top is the k-th best tree in the final order.
    held: BinaryHeap<(u64, u32, usize)>,
    assembly: TreeAssembly,
}

/// How many keyword sets settled a node, and the sum of their
/// distances in half units.
#[derive(Debug, Clone, Copy, Default)]
struct Reach {
    sets: u32,
    total: u32,
}

impl BanksScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, dg: &DataGraph, keyword_sets: &[Vec<NodeId>]) {
        let n = dg.csr().node_count();
        self.forests.resize_with(keyword_sets.len(), LazyDijkstra::default);
        for (forest, set) in self.forests.iter_mut().zip(keyword_sets) {
            forest.reset(n, dg.rank_count(), set, |v| dg.rank_of(v));
        }
        self.reached.clear();
        self.reached.resize(n, Reach::default());
        self.candidates.clear();
        self.held.clear();
        self.assembly.reset(n, dg.graph().edge_slots());
    }
}

/// Completed candidate roots in ascending `(total, root rank)` order,
/// as a bucket queue over totals in half units.
///
/// A root completes when its last keyword set settles it at the global
/// frontier minimum `L`, so its total (the sum of its per-set
/// distances) is at least `L`, and `L` never falls. Roots are taken
/// only below the current frontier, so no root ever lands in a bucket
/// already taken from: each bucket is sorted once, when its first root
/// is taken.
#[derive(Debug, Clone, Default)]
struct CandidateQueue {
    /// `buckets[t]`: the ranks of the roots completed at total `t`.
    buckets: Vec<Vec<u32>>,
    /// Every bucket below `low` is empty.
    low: usize,
    /// Roots of `buckets[low]` already taken.
    taken: usize,
}

impl CandidateQueue {
    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.low = 0;
        self.taken = 0;
    }

    fn push(&mut self, total: u32, rank: u32) {
        let t = total as usize;
        if t >= self.buckets.len() {
            self.buckets.resize_with(t + 1, Vec::new);
        }
        debug_assert!(t > self.low || self.taken == 0, "bucket {t} was already taken from");
        self.buckets[t].push(rank);
        // Taking skips empty buckets and may stop past the frontier, so
        // a root completed since then can land below `low`.
        self.low = self.low.min(t);
    }

    /// Take the next root's rank in order if its total is below `limit`.
    fn pop_below(&mut self, limit: u32) -> Option<u32> {
        loop {
            let bucket = self.buckets.get_mut(self.low)?;
            if self.taken < bucket.len() {
                break;
            }
            bucket.clear();
            self.low += 1;
            self.taken = 0;
        }
        if self.low >= limit as usize {
            return None;
        }
        let bucket = &mut self.buckets[self.low];
        if self.taken == 0 {
            bucket.sort_unstable();
        }
        let rank = bucket[self.taken];
        self.taken += 1;
        Some(rank)
    }
}

/// The buffers one completed root's tree is assembled into, with
/// stamp-based node and edge dedup: assembly is linear in the chain
/// lengths and allocates nothing once the buffers are warm.
#[derive(Debug, Clone, Default)]
struct TreeAssembly {
    /// The assembled tree: root first, then discovery order.
    nodes: Vec<NodeId>,
    edges: Vec<(EdgeId, NodeId, NodeId)>,
    keyword_nodes: Vec<NodeId>,
    /// `node_stamp[n] == stamp`: `n` is on the tree last assembled.
    node_stamp: Vec<u32>,
    /// `edge_stamp[e] == stamp`: `e` is on the tree last assembled.
    edge_stamp: Vec<u32>,
    stamp: u32,
    /// The node count of each registered root's tree, 0 for a root not
    /// registered (see [`BanksScratch`]).
    registered: Vec<u32>,
}

impl TreeAssembly {
    fn reset(&mut self, node_count: usize, edge_slots: usize) {
        self.node_stamp.clear();
        self.node_stamp.resize(node_count, 0);
        self.edge_stamp.clear();
        self.edge_stamp.resize(edge_slots, 0);
        self.stamp = 0;
        self.registered.clear();
        self.registered.resize(node_count, 0);
    }

    /// Assemble `root`'s tree: walk each keyword set's parent chain
    /// from the root back to its origin in that set, keeping the first
    /// occurrence of every node and edge. Returns the tree's weight,
    /// summed over the distinct edges in discovery order.
    fn assemble(
        &mut self,
        root: NodeId,
        forests: &[LazyDijkstra],
        weight_of: impl Fn(EdgeId) -> f64,
    ) -> f64 {
        if self.stamp == u32::MAX {
            self.node_stamp.fill(0);
            self.edge_stamp.fill(0);
            self.stamp = 0;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.nodes.clear();
        self.edges.clear();
        self.keyword_nodes.clear();
        self.nodes.push(root);
        self.node_stamp[root.index()] = stamp;
        for forest in forests {
            let mut current = root;
            // Parent chains point from the origin outward; walk from the
            // root back toward the origin, the first node without one.
            while let Some((prev, e)) = forest.parent(current) {
                if self.edge_stamp[e.index()] != stamp {
                    self.edge_stamp[e.index()] = stamp;
                    self.edges.push((e, current, prev));
                }
                if self.node_stamp[prev.index()] != stamp {
                    self.node_stamp[prev.index()] = stamp;
                    self.nodes.push(prev);
                }
                current = prev;
            }
            debug_assert_eq!(forest.dist[current.index()], 0, "every chain ends at a source");
            self.keyword_nodes.push(current);
        }
        // Distinct-edge weight: shared chain segments are counted once,
        // so the weight always equals the assembled tree's edge sum.
        // Summed from +0.0 (`Iterator::sum` starts at -0.0), so a
        // single-node tree weighs +0.0 and prints as `0`.
        self.edges.iter().fold(0.0, |w, &(e, _, _)| w + weight_of(e))
    }

    /// Whether an earlier tree had the assembled tree's node set: some
    /// registered root on it has a tree of the same size whose chains
    /// stay on the assembled tree.
    fn duplicates_registered(&self, forests: &[LazyDijkstra]) -> bool {
        self.nodes.iter().any(|&r| {
            self.registered[r.index()] as usize == self.nodes.len()
                && forests.iter().all(|forest| {
                    let mut current = Some(r);
                    while let Some(n) = current {
                        if self.node_stamp[n.index()] != self.stamp {
                            return false;
                        }
                        current = forest.parent(n).map(|(prev, _)| prev);
                    }
                    true
                })
        })
    }

    /// Register the root of the tree last assembled.
    fn register(&mut self, root: NodeId) {
        self.registered[root.index()] = self.nodes.len() as u32;
    }

    /// The assembled tree as an owned answer.
    fn materialize(&self, root: NodeId, weight: f64) -> SteinerTree {
        SteinerTree {
            root,
            nodes: self.nodes.clone(),
            edges: self.edges.clone(),
            keyword_nodes: self.keyword_nodes.clone(),
            weight,
        }
    }
}

/// Run the backward-expansion search.
///
/// `keyword_sets` holds, per keyword, the nodes whose tuples match it.
/// Returns up to `opts.k` trees (all of them for `k: None`) ordered by
/// ascending weight (ties broken by the root's tuple id), deduplicated
/// by node set. Empty if any keyword set is empty (conjunctive
/// semantics). All tie-breaking — the Dijkstra forests', the candidate
/// visit order's and the final sort's — keys on node ranks, which
/// follow tuple order rather than node ids, so the returned trees
/// depend only on graph *content*: an incrementally patched
/// [`DataGraph`] (different node numbering, same tuples and edges)
/// yields exactly the trees a freshly built one does.
pub fn banks_search(
    dg: &DataGraph,
    keyword_sets: &[Vec<NodeId>],
    opts: &BanksOptions,
) -> Vec<SteinerTree> {
    banks_search_budgeted(dg, keyword_sets, opts, &mut BanksScratch::new(), &mut |_| false).0
}

/// [`banks_search`] as one **frontier-driven expansion with a top-k
/// cutoff**, with work accounting, reusable scratch and a cooperative
/// work budget.
///
/// Each keyword set's expansion is a multi-source Dijkstra **forest**
/// ([`LazyDijkstra`]): walking the parent chain from a root stays
/// inside a single source's shortest-path tree, so the assembled edges
/// really form the claimed paths; a tree's `weight` is the sum over its
/// *distinct* edges — chains sharing a segment pay for it once. Instead
/// of running every forest to exhaustion and materializing every
/// candidate root up front, the driver settles the frontiers in
/// ascending distance, completes a candidate when its last set settles
/// it, and emits candidates in ascending `(summed distance, root
/// tuple)` order — exactly the order the exhaustive enumeration sorts
/// them into, because a candidate is emitted only once every per-set
/// frontier strictly exceeds its total (no cheaper completion can still
/// appear).
///
/// Distances count half units: every edge weighs one or two of them
/// under both [`EdgeWeighting`]s. Each set's frontier is a ring of
/// three bitsets over node ranks, and a node's rank follows its tuple's
/// order ([`DataGraph`]'s tuple→node index), so a bucket drained in
/// ascending bit order gives the settles a binary heap keyed by
/// `(distance, tuple)` would give, with no sort. The completed
/// candidates are a bucket queue by total, each bucket sorted once by
/// rank.
///
/// The level drain: the expansion works one distance level `L` (the
/// global frontier minimum) at a time. Once per level it emits the
/// completed candidates with a total below `L` and checks the cutoff
/// below; then each set, in set order, settles its whole bucket at `L`.
/// This is the order in which settling the globally cheapest frontier
/// entry, lowest set first, one node at a time, would settle: a settle
/// at `L` only pushes to `L + 1` or `L + 2` of its own set, a root it
/// completes totals at least `L`, and the held top k changes only when
/// a candidate is emitted, so neither the emitted candidates nor the
/// cutoff could change within the level.
///
/// The cutoff: any root not yet **completed** is missing at least one
/// set, whose chain alone is a subset of its tree's distinct edges —
/// so its tree weight is at least the global frontier minimum `L`.
/// Once `L` strictly exceeds the k-th best held weight, the pending
/// completed candidates are drained through
/// normal processing and expansion stops, with the result provably
/// equal to the full enumeration truncated at `k` (property-tested;
/// the dedup-safety argument lives on the cutoff branch below).
///
/// Per-candidate work: a completed root's tree is assembled from its
/// parent chains into buffers kept in the scratch, and it is
/// materialized only if it enters the held top k, which holds the k
/// best trees so far by the final order `(weight, root tuple)`: a tree
/// that ties the held k-th weight enters only when its root tuple sorts
/// first, and the tree it displaces is dropped. Every assembled root is
/// registered, whether or not its tree entered, so node-set dedup
/// re-walks the registered roots on a tree that would enter (see
/// [`BanksScratch`]) and a tree kept out still blocks a later tree with
/// its node set, as a stored one would. The output is the same as
/// materializing every tree and cutting the sorted list at `k`
/// (property-tested against an eager reference).
///
/// The skip rule: once k trees are held, a completed root whose
/// farthest keyword set lies further than the held k-th weight
/// (`max_j d_j(root) > kth`) is neither assembled nor registered. Each
/// chain is a subset of the tree's distinct edges, so its tree weighs
/// at least `max_j d_j(root)` and cannot enter. Dedup stays safe by
/// the cutoff's own argument: a later tree C with the skipped root's
/// node set contains that root, so the root reaches every set within
/// C's tree and every `d_j(root) ≤ weight(C)`; if C could enter, then
/// `weight(C) ≤ kth`, against the skip condition (the held k-th weight
/// only falls). A skipped root still counts as a completed candidate.
///
/// The work budget: `interrupt` is probed with the running settle count
/// after every frontier settle (the expansion-counting site); returning
/// `true` stops the expansion (`&mut |_| false` never does). The pending
/// completed candidates are drained through normal processing, and the
/// third return value carries the frontier floor `L` at the stop — every
/// root *not* completed by then has tree weight ≥ `L` (each per-set chain
/// is a subset of its tree's distinct edges, and every unsettled frontier
/// entry costs ≥ `L`), and every tree of weight < `L` **was** completed
/// (all its per-set distances are < `L`, hence already settled). The
/// returned trees are therefore trimmed to weight strictly < `L` (strict:
/// an undiscovered root could tie at `L` and win the tuple-id tie-break),
/// making them exactly the full enumeration's prefix below `L`, in final
/// order; the held top k is a prefix of that same order, so the trim
/// keeps a prefix of it. `None` floor means the interrupt never fired.
pub fn banks_search_budgeted(
    dg: &DataGraph,
    keyword_sets: &[Vec<NodeId>],
    opts: &BanksOptions,
    scratch: &mut BanksScratch,
    interrupt: &mut dyn FnMut(u64) -> bool,
) -> (Vec<SteinerTree>, BanksWork, Option<f64>) {
    let mut work = BanksWork::default();
    let mut budget_floor: Option<f64> = None;
    if keyword_sets.is_empty() || keyword_sets.iter().any(Vec::is_empty) || opts.k == Some(0)
    {
        return (Vec::new(), work, None);
    }
    let g = dg.graph();
    let csr = dg.csr();
    // Uniform weighs every edge the same, so only ErAware reads the
    // edge's annotation.
    let half_units = |e: EdgeId| match opts.weighting {
        EdgeWeighting::Uniform => 2,
        weighting => weighting.half_units(g.edge(e).payload),
    };
    let weight_of = |e: EdgeId| opts.weighting.weight(g.edge(e).payload);
    let rank = |v: NodeId| dg.rank_of(v);
    let node_at = |r: u32| dg.node_at_rank(r);
    let num_sets = keyword_sets.len() as u32;
    scratch.reset(dg, keyword_sets);

    let mut out: Vec<SteinerTree> = Vec::new();

    // Emit the completed candidates with a total below `limit`, in
    // order, exactly like the exhaustive loop: break check, skip rule,
    // tree assembly, node-set dedup. Returns `false` to stop the whole
    // search (the break condition holds for every later candidate too:
    // totals ascend, the held k-th best only improves).
    let mut emit_below = |scratch: &mut BanksScratch, limit: u32| -> bool {
        while let Some(root_rank) = scratch.candidates.pop_below(limit) {
            let root = node_at(root_rank);
            // The held k-th best `(weight bits, root rank)`, once k
            // trees are held.
            let kth = opts
                .k
                .filter(|&k| scratch.held.len() >= k)
                .and_then(|_| scratch.held.peek().map(|&(weight, rank, _)| (weight, rank)));
            if let Some((kth_weight, _)) = kth {
                // Each per-set chain is a subset of the tree's distinct
                // edges, so `weight >= total / num_sets`, and candidates
                // arrive in ascending `total` order. Once that lower
                // bound strictly exceeds the k-th best weight held, no
                // remaining candidate can enter the top k — not even on
                // a tie, hence the strict comparison.
                let total = scratch.reached[root.index()].total;
                if f64_sort_bits_asc(half(total) / f64::from(num_sets)) > kth_weight {
                    return false;
                }
                // The skip rule: the farthest set's chain alone
                // outweighs the held k-th (see `banks_search_budgeted`).
                let farthest = scratch.forests.iter().map(|f| f.dist[root.index()]).max();
                if farthest.is_some_and(|d| f64_sort_bits_asc(half(d)) > kth_weight) {
                    continue;
                }
            }
            let weight = scratch.assembly.assemble(root, &scratch.forests, weight_of);
            // A tree behind the held k-th in the final order has k trees
            // ahead of it for good, so it is never returned and is not
            // materialized. Registering its root keeps the dedup of
            // later trees exactly as if it had been stored.
            let entry = (f64_sort_bits_asc(weight), root_rank);
            if kth.is_none_or(|kth| entry < kth)
                && !scratch.assembly.duplicates_registered(&scratch.forests)
            {
                let tree = scratch.assembly.materialize(root, weight);
                match opts.k {
                    Some(k) if scratch.held.len() >= k => {
                        // lint: allow(unwrap, the held top k is full and k >= 1)
                        let mut top = scratch.held.peek_mut().expect("k >= 1 trees held");
                        out[top.2] = tree;
                        *top = (entry.0, entry.1, top.2);
                    }
                    Some(_) => {
                        scratch.held.push((entry.0, entry.1, out.len()));
                        out.push(tree);
                    }
                    None => out.push(tree),
                }
            }
            scratch.assembly.register(root);
        }
        true
    };

    'drive: loop {
        // The global frontier minimum L across sets (`u32::MAX` once
        // every set is exhausted). Every not-yet-completed root is
        // missing at least one set whose settle distance will be >= L,
        // so its total is >= L — which makes every candidate with
        // total < L safe to emit in final order.
        let frontier = scratch
            .forests
            .iter_mut()
            .filter_map(LazyDijkstra::frontier_dist)
            .min()
            .unwrap_or(u32::MAX);
        if !emit_below(scratch, frontier) {
            work.early_terminated = frontier != u32::MAX;
            break;
        }
        // Frontiers exhausted: every candidate was emitted above
        // (every total sorts below `u32::MAX`).
        if frontier == u32::MAX {
            break;
        }
        // Expansion cutoff. Any root not yet completed is missing at
        // least one set, and that set's chain alone is a subset of its
        // tree's distinct edges — so its tree weight is at least L
        // itself (much tighter than the emitted-candidate floor). Once
        // L strictly exceeds the k-th best held weight, no incomplete
        // root can enter the top k; completed roots still
        // pending in the queue are drained through the normal
        // processing, and expansion stops.
        //
        // Dedup safety (why skipping incomplete roots cannot change the
        // truncated output): a skipped root A could only matter by
        // *blocking* (via node-set dedup) a pending tree C that belongs
        // in the top k, i.e. with weight(C) <= kth < L. But then A lies
        // on C's tree, and C's tree contains a path from A to a member
        // of every keyword set of weight <= weight(C) < L — so A's
        // distance to every set is below every frontier, meaning A was
        // already settled everywhere and is complete, a contradiction.
        // The same argument (via total(A) <= num_sets · weight(C))
        // covers candidates skipped by the per-candidate floor break.
        let frontier_bits = f64_sort_bits_asc(half(frontier));
        let dominated = opts.k.is_some_and(|k| {
            scratch.held.len() >= k
                && scratch.held.peek().is_some_and(|&(kth, _, _)| frontier_bits > kth)
        });
        if dominated {
            emit_below(scratch, u32::MAX);
            work.early_terminated = true;
            break;
        }
        // The level: each set's bucket at L, in set order.
        for set in 0..scratch.forests.len() {
            while scratch.forests[set].frontier_dist() == Some(frontier) {
                let (node, d) = scratch.forests[set]
                    .settle_next(csr, half_units, rank, node_at)
                    // lint: allow(unwrap, frontier_dist returned Some for this set just above)
                    .expect("frontier_dist promised an entry");
                work.expansions += 1;
                let reach = &mut scratch.reached[node.index()];
                reach.total += d;
                reach.sets += 1;
                if reach.sets == num_sets {
                    work.candidates += 1;
                    scratch.candidates.push(reach.total, rank(node));
                }
                // Cooperative budget probe, after the settle's
                // accounting (so a completion this settle produced is
                // already queued). On a stop, drain every *completed*
                // candidate through normal processing — cheap, no
                // further settles — then record the frontier floor for
                // the caller's prefix trim (see `banks_search_budgeted`).
                if interrupt(work.expansions) {
                    emit_below(scratch, u32::MAX);
                    let floor =
                        scratch.forests.iter_mut().filter_map(|f| f.frontier_dist()).min();
                    budget_floor = Some(floor.map_or(f64::INFINITY, half));
                    break 'drive;
                }
            }
        }
    }
    out.sort_by(|a, b| {
        a.weight.total_cmp(&b.weight).then_with(|| rank(a.root).cmp(&rank(b.root)))
    });
    if let Some(floor) = budget_floor {
        // Everything at or above the floor could still be displaced (or
        // tied past) by an undiscovered root; below it the list is the
        // full enumeration's, in full order.
        out.retain(|t| t.weight < floor);
    }
    (out, work, budget_floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_datagen::{company, CompanyDb};

    fn setup() -> (CompanyDb, DataGraph) {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        (c, dg)
    }

    fn nodes_of(c: &CompanyDb, dg: &DataGraph, aliases: &[&str]) -> Vec<NodeId> {
        aliases.iter().map(|a| dg.node_of(c.tuple(a).unwrap()).unwrap()).collect()
    }

    #[test]
    fn two_keyword_trees_are_paths_between_matches() {
        let (c, dg) = setup();
        // "Smith": e1, e2; "XML": d1, d2, p1, p2.
        let smith = nodes_of(&c, &dg, &["e1", "e2"]);
        let xml = nodes_of(&c, &dg, &["d1", "d2", "p1", "p2"]);
        let trees = banks_search(&dg, &[smith, xml], &BanksOptions::default());
        assert!(!trees.is_empty());
        for t in &trees {
            assert!(t.is_path(), "two-keyword trees are paths");
            assert_eq!(t.keyword_nodes.len(), 2);
        }
        // The cheapest trees have weight 1 (d1–e1 and d2–e2).
        assert_eq!(trees[0].weight, 1.0);
        assert_eq!(trees[0].edge_count(), 1);
    }

    #[test]
    fn weights_are_nondecreasing_and_sets_unique() {
        let (c, dg) = setup();
        let smith = nodes_of(&c, &dg, &["e1", "e2"]);
        let xml = nodes_of(&c, &dg, &["d1", "d2", "p1", "p2"]);
        let trees = banks_search(
            &dg,
            &[smith, xml],
            &BanksOptions { k: Some(50), ..Default::default() },
        );
        for w in trees.windows(2) {
            assert!(w[0].weight <= w[1].weight);
        }
        let mut sets: Vec<_> = trees.iter().map(|t| t.tuple_set(&dg)).collect();
        let before = sets.len();
        sets.dedup();
        assert_eq!(sets.len(), before);
    }

    #[test]
    fn er_aware_weighting_halves_middle_hops() {
        let (c, dg) = setup();
        // p1 to e1 via w_f1: uniform weight 2, ER-aware weight 1.
        let p1 = nodes_of(&c, &dg, &["p1"]);
        let e1 = nodes_of(&c, &dg, &["e1"]);
        let uniform = banks_search(
            &dg,
            &[p1.clone(), e1.clone()],
            &BanksOptions { k: Some(5), ..Default::default() },
        );
        // Two routes tie at uniform weight 2: via w_f1 and via d1.
        assert_eq!(uniform[0].weight, 2.0);
        let er = banks_search(
            &dg,
            &[p1, e1],
            &BanksOptions { k: Some(1), weighting: EdgeWeighting::ErAware },
        );
        // ER-aware weighting makes the w_f1 bridge strictly cheaper…
        assert_eq!(er[0].weight, 1.0);
        let er_aliases: BTreeSet<String> =
            er[0].tuple_set(&dg).iter().map(|&t| c.alias(t)).collect();
        let expect: BTreeSet<String> =
            ["e1", "p1", "w_f1"].iter().map(|s| (*s).to_string()).collect();
        assert_eq!(er_aliases, expect);
        // …while uniform weighting also finds that route among the ties.
        assert!(uniform.iter().any(|t| t.tuple_set(&dg) == er[0].tuple_set(&dg)));
    }

    #[test]
    fn three_keywords_produce_branching_tree() {
        let (c, dg) = setup();
        // Alice (t1), Miller (e3), Cs (d1): the tree d1–e3–t1 covers all.
        let alice = nodes_of(&c, &dg, &["t1"]);
        let miller = nodes_of(&c, &dg, &["e3"]);
        let cs = nodes_of(&c, &dg, &["d1"]);
        let trees = banks_search(&dg, &[alice, miller, cs], &BanksOptions::default());
        assert!(!trees.is_empty());
        let best = &trees[0];
        assert_eq!(best.weight, 2.0);
        let set = best.tuple_set(&dg);
        let aliases: BTreeSet<String> = set.iter().map(|&t| c.alias(t)).collect();
        let expect: BTreeSet<String> =
            ["d1", "e3", "t1"].iter().map(|s| (*s).to_string()).collect();
        assert_eq!(aliases, expect);
    }

    #[test]
    fn empty_keyword_set_returns_nothing() {
        let (c, dg) = setup();
        let smith = nodes_of(&c, &dg, &["e1"]);
        assert!(banks_search(&dg, &[smith, vec![]], &BanksOptions::default()).is_empty());
        assert!(banks_search(&dg, &[], &BanksOptions::default()).is_empty());
    }

    #[test]
    fn linearize_path_tree() {
        let (c, dg) = setup();
        let p1 = nodes_of(&c, &dg, &["p1"]);
        let e1 = nodes_of(&c, &dg, &["e1"]);
        let trees = banks_search(&dg, &[p1.clone(), e1.clone()], &BanksOptions::default());
        let t = &trees[0];
        let (nodes, edges) = t.linearize(p1[0]).unwrap();
        assert_eq!(nodes.first(), Some(&p1[0]));
        assert_eq!(nodes.last(), Some(&e1[0]));
        assert_eq!(edges.len(), nodes.len() - 1);
    }

    #[test]
    fn keyword_in_same_tuple_gives_single_node_tree() {
        let (c, dg) = setup();
        // d1 matches both "teaching" and "xml" — the root is d1 itself.
        let set = nodes_of(&c, &dg, &["d1"]);
        let trees = banks_search(&dg, &[set.clone(), set], &BanksOptions::default());
        assert_eq!(trees[0].weight, 0.0);
        assert_eq!(trees[0].edge_count(), 0);
        assert!(trees[0].is_path());
    }

    #[test]
    fn single_node_tree_weighs_positive_zero() {
        let (c, dg) = setup();
        let set = nodes_of(&c, &dg, &["d1"]);
        for k in [None, Some(1)] {
            let trees = banks_search(
                &dg,
                &[set.clone(), set.clone()],
                &BanksOptions { k, ..Default::default() },
            );
            assert!(trees[0].weight.is_sign_positive(), "k={k:?}: {:?}", trees[0].weight);
            assert_eq!(trees[0].weight.to_string(), "0");
        }
    }

    #[test]
    fn k_none_returns_every_candidate_tree() {
        let (c, dg) = setup();
        let smith = nodes_of(&c, &dg, &["e1", "e2"]);
        let xml = nodes_of(&c, &dg, &["d1", "d2", "p1", "p2"]);
        let all = banks_search(
            &dg,
            &[smith.clone(), xml.clone()],
            &BanksOptions { k: None, ..Default::default() },
        );
        let capped = banks_search(
            &dg,
            &[smith, xml],
            &BanksOptions { k: Some(3), ..Default::default() },
        );
        assert!(all.len() > capped.len(), "{} vs {}", all.len(), capped.len());
        assert_eq!(capped.len(), 3);
        // The capped run is exactly the prefix of the unbounded one.
        for (a, b) in capped.iter().zip(&all) {
            assert_eq!(a.root, b.root);
            assert_eq!(a.weight, b.weight);
        }
    }

    /// The invariants the spliced min-merge used to violate: weights
    /// recompute from the assembled edges, and every keyword node lies
    /// on the walked tree.
    #[test]
    fn tree_weight_equals_assembled_edge_sum() {
        let (c, dg) = setup();
        let smith = nodes_of(&c, &dg, &["e1", "e2"]);
        let xml = nodes_of(&c, &dg, &["d1", "d2", "p1", "p2"]);
        let alice = nodes_of(&c, &dg, &["t1", "t2"]);
        let opts = BanksOptions { k: None, ..Default::default() };
        let g = dg.graph();
        for sets in [vec![smith.clone(), xml.clone()], vec![smith, xml, alice]] {
            for t in banks_search(&dg, &sets, &opts) {
                let sum: f64 = t
                    .edges
                    .iter()
                    .map(|&(e, _, _)| opts.weighting.weight(g.edge(e).payload))
                    .sum();
                assert_eq!(t.weight, sum, "root {}", t.root);
                for (ki, kn) in t.keyword_nodes.iter().enumerate() {
                    assert!(t.nodes.contains(kn), "keyword {ki} off-tree");
                    assert!(sets[ki].contains(kn), "keyword {ki} not a match");
                }
            }
        }
    }

    /// Overlapping keyword sets share whole chains; the shared edges are
    /// paid for once, so the weight stays the assembled edge sum.
    #[test]
    fn overlapping_sets_count_shared_edges_once() {
        let (c, dg) = setup();
        // Both sets contain e1; set 2 additionally reaches from d1.
        let set1 = nodes_of(&c, &dg, &["e1"]);
        let set2 = nodes_of(&c, &dg, &["e1", "d1"]);
        let trees =
            banks_search(&dg, &[set1, set2], &BanksOptions { k: None, ..Default::default() });
        // Best tree: e1 alone covers both sets at weight 0.
        assert_eq!(trees[0].weight, 0.0);
        assert_eq!(trees[0].edge_count(), 0);
        let g = dg.graph();
        for t in &trees {
            let sum: f64 = t
                .edges
                .iter()
                .map(|&(e, _, _)| EdgeWeighting::Uniform.weight(g.edge(e).payload))
                .sum();
            assert_eq!(t.weight, sum);
        }
    }
}
