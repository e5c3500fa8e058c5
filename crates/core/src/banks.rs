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
//! expansion counts distances in whole half units and keeps its
//! frontiers and its completed candidates in bucket queues rather than
//! binary heaps.

use crate::datagraph::{DataGraph, EdgeAnnotation};
use crate::ranking::f64_sort_bits_asc;
use cla_er::FkRole;
use cla_graph::{EdgeId, LazyDijkstra, NodeId};
use cla_relational::TupleId;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

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

    /// `true` when the tree is a simple path (≤ 2 nodes of degree 1 and
    /// no branching), which is always the case for two keyword sets.
    pub fn is_path(&self) -> bool {
        let mut degree: HashMap<NodeId, usize> = HashMap::new();
        for &(_, a, b) in &self.edges {
            *degree.entry(a).or_insert(0) += 1;
            *degree.entry(b).or_insert(0) += 1;
        }
        degree.values().all(|&d| d <= 2)
    }

    /// Linearize a path-shaped tree into an ordered node/edge sequence
    /// starting at `start` (must be an endpoint). Returns `None` if the
    /// tree branches.
    pub fn linearize(&self, start: NodeId) -> Option<(Vec<NodeId>, Vec<EdgeId>)> {
        if !self.is_path() {
            return None;
        }
        if self.edges.is_empty() {
            return Some((vec![self.root], Vec::new()));
        }
        let mut adj: HashMap<NodeId, Vec<(EdgeId, NodeId)>> = HashMap::new();
        for &(e, a, b) in &self.edges {
            adj.entry(a).or_default().push((e, b));
            adj.entry(b).or_default().push((e, a));
        }
        if adj.get(&start).map_or(0, Vec::len) != 1 {
            return None;
        }
        let mut nodes = vec![start];
        let mut edges = Vec::new();
        let mut prev: Option<NodeId> = None;
        let mut current = start;
        loop {
            let next = adj[&current].iter().find(|(_, m)| Some(*m) != prev).copied();
            match next {
                Some((e, m)) => {
                    edges.push(e);
                    nodes.push(m);
                    prev = Some(current);
                    current = m;
                }
                None => break,
            }
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
/// live engine re-allocate none of it.
///
/// Node-set dedup needs no set of seen trees. Every processed root is
/// *registered* with its tree's node count instead, and a tree is a
/// duplicate exactly when some registered root on its node set has the
/// same node count and parent chains that stay inside that set. An
/// earlier tree with the same node set contains its own root, and a
/// completed root's parent chains are final (every chain node was
/// settled before the root), so re-walking them later gives the same
/// nodes; conversely, a subset of the same size is the same set. No
/// set is hashed or stored per tree.
#[derive(Debug, Clone, Default)]
pub struct BanksScratch {
    forests: Vec<LazyDijkstra<TupleId>>,
    /// Number of keyword sets that settled each node.
    settled_sets: Vec<u32>,
    /// Running sum of settled per-set distances per node, in half units.
    total: Vec<u32>,
    /// Completed candidate roots in the classic BANKS priority.
    candidates: CandidateQueue,
    /// The held top k as a max-heap of `(weight bits, root tuple, index
    /// into the output)`, weights as order-preserving `f64` bit images:
    /// its top is the k-th best tree in the final order.
    held: BinaryHeap<(u64, TupleId, usize)>,
    assembly: TreeAssembly,
}

impl BanksScratch {
    /// A fresh scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, dg: &DataGraph, keyword_sets: &[Vec<NodeId>]) {
        let n = dg.csr().node_count();
        self.forests.truncate(keyword_sets.len());
        for (i, set) in keyword_sets.iter().enumerate() {
            match self.forests.get_mut(i) {
                Some(f) => f.reset(n, set, |v| dg.tuple_of(v)),
                None => self.forests.push(LazyDijkstra::new(n, set, |v| dg.tuple_of(v))),
            }
        }
        self.settled_sets.clear();
        self.settled_sets.resize(n, 0);
        self.total.clear();
        self.total.resize(n, 0);
        self.candidates.clear();
        self.held.clear();
        self.assembly.reset(n, dg.graph().edge_slots());
    }
}

/// Completed candidate roots in ascending `(total, root tuple, root)`
/// order, as a bucket queue over totals in half units.
///
/// A root completes when its last keyword set settles it at the global
/// frontier minimum `L`, so its total (the sum of its per-set
/// distances) is at least `L`, and `L` never falls. Roots are taken
/// only below the current frontier, so no root ever lands in a bucket
/// already taken from: each bucket is sorted once, when its first root
/// is taken.
#[derive(Debug, Clone, Default)]
struct CandidateQueue {
    /// `buckets[t]`: `(root tuple, root)` of the roots completed at
    /// total `t`.
    buckets: Vec<Vec<(TupleId, NodeId)>>,
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

    fn push(&mut self, total: u32, tuple: TupleId, root: NodeId) {
        let t = total as usize;
        if t >= self.buckets.len() {
            self.buckets.resize_with(t + 1, Vec::new);
        }
        debug_assert!(t > self.low || self.taken == 0, "bucket {t} was already taken from");
        self.buckets[t].push((tuple, root));
        // Taking skips empty buckets and may stop past the frontier, so
        // a root completed since then can land below `low`.
        self.low = self.low.min(t);
    }

    /// Take the next root in order if its total is below `limit`.
    fn pop_below(&mut self, limit: u32) -> Option<NodeId> {
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
        let (_, root) = bucket[self.taken];
        self.taken += 1;
        Some(root)
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
    /// The node count of each processed root's tree, 0 for a root not
    /// processed yet (see [`BanksScratch`]).
    registered: Vec<usize>,
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
        forests: &[LazyDijkstra<TupleId>],
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
            // root back toward the origin.
            while let Some((prev, e)) = forest.parent[current.index()] {
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
            debug_assert_eq!(
                forest.origin[root.index()],
                Some(current),
                "consistent forests end every chain at the recorded origin"
            );
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
    fn duplicates_registered(&self, forests: &[LazyDijkstra<TupleId>]) -> bool {
        self.nodes.iter().any(|&r| {
            self.registered[r.index()] == self.nodes.len()
                && forests.iter().all(|forest| {
                    let mut current = Some(r);
                    while let Some(n) = current {
                        if self.node_stamp[n.index()] != self.stamp {
                            return false;
                        }
                        current = forest.parent[n.index()].map(|(prev, _)| prev);
                    }
                    true
                })
        })
    }

    /// Register the root of the tree last assembled.
    fn register(&mut self, root: NodeId) {
        self.registered[root.index()] = self.nodes.len();
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
/// visit order's and the final sort's — keys on tuple ids rather than
/// node ids, so the returned trees depend only on graph *content*: an
/// incrementally patched [`DataGraph`] (different node numbering, same
/// tuples and edges) yields exactly the trees a freshly built one does.
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
/// candidate root up front, the driver always settles the **globally
/// cheapest frontier entry** across the sets, completes a candidate
/// when its last set settles it, and emits candidates in ascending
/// `(summed distance, root tuple)` order — exactly the order the
/// exhaustive enumeration sorts them into, because a candidate is
/// emitted only once every per-set frontier strictly exceeds its total
/// (no cheaper completion can still appear).
///
/// Distances count half units: every edge weighs one or two of them
/// under both [`EdgeWeighting`]s. Each set's frontier and the completed
/// candidates are bucket queues keyed by distance and by total, each
/// bucket sorted once by tuple then node, so settles and candidates
/// come out in the order a binary heap keyed by `(distance, tuple,
/// node)` would give.
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
/// first, and the tree it displaces is dropped. Every processed root is
/// registered, whether or not its tree entered, so node-set dedup
/// re-walks the registered roots on a tree that would enter (see
/// [`BanksScratch`]) and a skipped tree still blocks a later tree with
/// its node set, as a stored one would. The output is the same as
/// materializing every tree and cutting the sorted list at `k`
/// (property-tested against an eager reference).
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
    let key = |v: NodeId| dg.tuple_of(v);
    let num_sets = keyword_sets.len() as f64;
    scratch.reset(dg, keyword_sets);

    let mut out: Vec<SteinerTree> = Vec::new();

    // Process one emitted candidate exactly like the exhaustive loop:
    // break check, tree assembly, node-set dedup.
    // Returns `false` to stop the whole search (the break condition
    // holds for every later candidate too: totals ascend, the held k-th
    // best only improves).
    let mut process = |root: NodeId,
                       total: u32,
                       held: &mut BinaryHeap<(u64, TupleId, usize)>,
                       forests: &[LazyDijkstra<TupleId>],
                       assembly: &mut TreeAssembly|
     -> bool {
        // Each per-set chain is a subset of the tree's distinct edges,
        // so `weight >= total / num_sets`, and candidates arrive in
        // ascending `total` order. Once that lower bound strictly
        // exceeds the k-th best weight held, no remaining candidate can
        // enter the top k — not even on a tie, hence the strict
        // comparison.
        let weight_floor = f64_sort_bits_asc(half(total) / num_sets);
        // The held k-th best `(weight bits, root tuple)`, once k trees
        // are held.
        let kth = opts
            .k
            .filter(|&k| held.len() >= k)
            .and_then(|_| held.peek().map(|&(weight, tuple, _)| (weight, tuple)));
        if kth.is_some_and(|(weight, _)| weight_floor > weight) {
            return false;
        }
        let weight = assembly.assemble(root, forests, weight_of);
        // A tree behind the held k-th in the final order has k trees
        // ahead of it for good, so it is never returned and is not
        // materialized. Registering its root keeps the dedup of later
        // trees exactly as if it had been stored.
        let entry = (f64_sort_bits_asc(weight), dg.tuple_of(root));
        if kth.is_none_or(|kth| entry < kth) && !assembly.duplicates_registered(forests) {
            let tree = assembly.materialize(root, weight);
            match opts.k {
                Some(k) if held.len() >= k => {
                    // lint: allow(unwrap, the held top k is full and k >= 1)
                    let mut top = held.peek_mut().expect("k >= 1 trees held");
                    out[top.2] = tree;
                    *top = (entry.0, entry.1, top.2);
                }
                Some(_) => {
                    held.push((entry.0, entry.1, out.len()));
                    out.push(tree);
                }
                None => out.push(tree),
            }
        }
        assembly.register(root);
        true
    };

    'drive: loop {
        // The global frontier minimum L across sets (`u32::MAX` once
        // every set is exhausted). Every not-yet-completed root is
        // missing at least one set whose settle distance will be >= L,
        // so its total is >= L — which makes every candidate with
        // total < L safe to emit in final order.
        let mut frontier = u32::MAX;
        let mut cheapest_set = None;
        for (i, forest) in scratch.forests.iter_mut().enumerate() {
            if let Some(d) = forest.frontier_dist() {
                if d < frontier {
                    frontier = d;
                    cheapest_set = Some(i);
                }
            }
        }
        while let Some(root) = scratch.candidates.pop_below(frontier) {
            if !process(
                root,
                scratch.total[root.index()],
                &mut scratch.held,
                &scratch.forests,
                &mut scratch.assembly,
            ) {
                work.early_terminated = cheapest_set.is_some();
                break 'drive;
            }
        }
        // Frontiers exhausted: every candidate was emitted above
        // (every total sorts below `u32::MAX`).
        let Some(set) = cheapest_set else { break };
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
            while let Some(root) = scratch.candidates.pop_below(u32::MAX) {
                if !process(
                    root,
                    scratch.total[root.index()],
                    &mut scratch.held,
                    &scratch.forests,
                    &mut scratch.assembly,
                ) {
                    break;
                }
            }
            work.early_terminated = true;
            break;
        }
        let (node, d) = scratch.forests[set]
            .settle_next(csr, half_units, key)
            // lint: allow(unwrap, frontier_dist returned Some for this set just above)
            .expect("frontier_dist promised an entry");
        work.expansions += 1;
        scratch.total[node.index()] += d;
        scratch.settled_sets[node.index()] += 1;
        if scratch.settled_sets[node.index()] as usize == keyword_sets.len() {
            work.candidates += 1;
            scratch.candidates.push(scratch.total[node.index()], dg.tuple_of(node), node);
        }
        // Cooperative budget probe, after the settle's accounting (so a
        // completion this settle produced is already queued). On a
        // stop, drain every *completed* candidate through normal
        // processing — cheap, no further settles — then record the
        // frontier floor for the caller's prefix trim (see
        // `banks_search_budgeted`).
        if interrupt(work.expansions) {
            while let Some(root) = scratch.candidates.pop_below(u32::MAX) {
                if !process(
                    root,
                    scratch.total[root.index()],
                    &mut scratch.held,
                    &scratch.forests,
                    &mut scratch.assembly,
                ) {
                    break;
                }
            }
            let floor = scratch.forests.iter_mut().filter_map(|f| f.frontier_dist()).min();
            budget_floor = Some(floor.map_or(f64::INFINITY, half));
            break;
        }
    }
    out.sort_by(|a, b| {
        a.weight
            .total_cmp(&b.weight)
            .then_with(|| dg.tuple_of(a.root).cmp(&dg.tuple_of(b.root)))
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
