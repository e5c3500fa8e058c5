//! The immutable, shareable half of the engine: one published
//! generation of every structure `search()` reads.
//!
//! An [`EngineSnapshot`] owns the inverted index, the data graph with
//! its CSR, display aliases and the pooled per-search scratch state —
//! everything the whole search pipeline (keyword match → connection
//! generation → metrics → ranking) touches. It is **never mutated after publication**: the
//! [`SearchEngine`](crate::SearchEngine) builds the next generation in a
//! private buffer and publishes it by swapping an `Arc` under a write
//! lock, so any number of reader threads can search a pinned snapshot
//! while the engine applies; a pin holds the read lock only for one
//! `Arc` clone, and no search runs under it. Within one
//! snapshot every answer is internally consistent; a reader holding an
//! `Arc<EngineSnapshot>` keeps exactly its generation's answers alive
//! no matter how far the engine advances.

use crate::aliases::Aliases;
use crate::banks::{
    banks_search_budgeted, BanksOptions, BanksScratch, EdgeWeighting, SteinerTree,
};
use crate::budget::{Budget, SearchBudget};
use crate::connection::{ConceptualStep, Connection, MarkerLookup, NodeLabels};
use crate::datagraph::DataGraph;
use crate::discover::{enumerate_mtjnts_budgeted, is_mtjnt};
use crate::error::{CoreError, KeywordDiagnostic};
use crate::failpoints;
use crate::instance::{instance_closeness_with_cache, WitnessCache};
use crate::ranking::{ConnectionInfo, RankStrategy};
use crate::stats::{Completeness, SearchStats, TruncationReason};
use cla_er::{CardinalityChain, Closeness, ErSchema, SchemaMapping};
use cla_graph::{
    enumerate_simple_paths_undirected, for_each_path_to_targets_budgeted, EdgeId, NodeId,
    Path, RingBfs, TraversalScratch,
};
use cla_index::{tuple_score, InvertedIndex, KeywordQuery};
use cla_relational::TupleId;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Which connection-generation algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Algorithm {
    /// Bounded simple-path enumeration between keyword-tuple pairs (the
    /// paper's §3 result model; two-keyword queries).
    #[default]
    Paths,
    /// BANKS backward expansion (any number of keywords).
    Banks,
    /// DISCOVER-style MTJNT enumeration (the semantics the paper
    /// criticizes). With at most two keywords every MTJNT is a path
    /// (each leaf of a minimal network carries a keyword), so such a
    /// search runs the `Paths` enumeration with
    /// [`SearchOptions::mtjnt_only`] forced on; three or more keywords
    /// grow joining networks ([`crate::JoiningNetworkLevels`]).
    Discover,
}

/// Options controlling [`EngineSnapshot::search`] (and
/// [`SearchEngine::search`](crate::SearchEngine::search), which first
/// refuses a stale engine).
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Connection-generation algorithm.
    pub algorithm: Algorithm,
    /// Maximum connection length in foreign-key edges (for Discover:
    /// maximum network size is `max_rdb_length + 1` tuples). A bound
    /// past the longest simple path the graph holds (its live nodes
    /// less one) finds nothing more, so the search clamps it to that;
    /// the stats report the clamped bound.
    pub max_rdb_length: usize,
    /// Ranking strategy.
    pub ranker: RankStrategy,
    /// Result budget: `None` returns everything, `Some(k)` at most `k`
    /// results **in total** — ranked connections first, any remaining
    /// budget going to branching answer trees. Every algorithm's
    /// connections go through one key-first merge, which orders them by
    /// the ranker's sort key ([`RankStrategy::sort_key`]) and breaks key
    /// ties by rendering: each connection first gets only its cheap
    /// ranking info (text score, conceptual steps, ER chain) and key,
    /// and is dropped at once when `k` connections already beat it. A
    /// two-keyword answer (`Paths`, and `Discover` with at most two
    /// keywords) offers each connection as the DFS emits it; `Banks`
    /// and `Discover` with three or more keywords offer theirs once
    /// enumeration ends. The witness search then runs
    /// only for connections that can still enter the top `k` and,
    /// except under [`RankStrategy::InstanceCloseFirst`], only for those
    /// that do.
    /// Rendering runs only for connections that tie with or beat the
    /// k-th key, and the explanation only for those that enter. With a
    /// length-monotone ranker a set `k` also enumerates two-keyword
    /// answers length level by length level and stops as soon as the
    /// held top `k` provably dominates every unexplored level (see
    /// [`RankStrategy::dominates_all_longer`]), skipping the deeper
    /// enumeration. On `Banks`, a set `k` cuts the expansion off once
    /// no incomplete root can enter, and a completed root's answer tree
    /// is materialized only if it can. The returned prefix is identical
    /// to running the full enumeration and truncating.
    pub k: Option<usize>,
    /// Post-filter connections to MTJNTs only (demonstrates the paper's
    /// §3 loss claim when combined with `Paths`).
    pub mtjnt_only: bool,
    /// Compute instance-level closeness for every result.
    pub compute_instance: bool,
    /// Witness-path length bound for instance closeness.
    pub max_witness_length: usize,
    /// Edge weighting for the BANKS expansion.
    pub weighting: EdgeWeighting,
    /// Has no effect: every search runs on its calling thread, whatever
    /// this says. The field remains only because the benchmark package
    /// (`perfbench/src/fixture.rs` and `perfbench/src/layers.rs`) sets
    /// it, and that package changes only together with the benchmark
    /// definition; it goes with the next benchmark change.
    pub threads: usize,
    /// Wall-clock and work bounds for this search (default: unlimited).
    /// An exhausted budget stops enumeration cooperatively and returns
    /// the ranked results found so far, labeled through
    /// [`SearchStats::completeness`]. For every ranker with
    /// [`RankStrategy::supports_streaming_topk`] the truncated output
    /// is additionally a **certified ranked prefix** of the unbudgeted
    /// run (items are kept only while they provably dominate every
    /// connection the cut could have missed); under
    /// [`RankStrategy::Combined`] the output is best-effort
    /// found-so-far. The budget is probed at each pipeline's
    /// expansion-counting sites: DFS descents for every two-keyword
    /// answer, frontier settles for `Banks`, and for `Discover` with
    /// three or more keywords only the networks that can still become
    /// MTJNTs (see [`SearchStats::expansions`]), and once before the
    /// first, so a budget spent already runs no expansion. Each search
    /// counts every expansion against one budget, so a cap is exact;
    /// between clock polls a probe is one integer comparison, which is
    /// all the unlimited budget costs.
    pub budget: SearchBudget,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            algorithm: Algorithm::Paths,
            max_rdb_length: 4,
            ranker: RankStrategy::CloseFirst,
            k: None,
            mtjnt_only: false,
            compute_instance: true,
            max_witness_length: 4,
            weighting: EdgeWeighting::Uniform,
            threads: 0,
            budget: SearchBudget::UNLIMITED,
        }
    }
}
/// Process-wide failpoint opt-in: engines built while `CLA_FAILPOINTS`
/// is set probe the registry (the variable's points are armed once, on
/// first use — the CI fault-injection leg's entry point). Resolved once
/// per process: reading the environment on every search would cost
/// more than the search's own setup.
pub(crate) fn failpoints_enabled_from_env() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var_os("CLA_FAILPOINTS").is_some() {
            failpoints::arm_from_env();
            true
        } else {
            false
        }
    })
}
/// The read-only inputs of a search's per-connection ranking work.
struct RankContext<'a> {
    /// Per-node tf·idf scores for the query.
    text_scores: &'a [f64],
    /// Keyword markers for rendering.
    markers: QueryMarkers<'a>,
    /// Whether to run the instance-closeness witness search.
    compute_instance: bool,
    /// Witness-path length bound.
    max_witness_length: usize,
}

impl RankContext<'_> {
    /// The summed tf·idf score of a connection's tuples.
    fn text_score(&self, connection: &Connection) -> f64 {
        connection.nodes().iter().map(|&n| self.text_scores[n.index()]).sum()
    }
}

/// A search's keyword markers, read on demand from its per-keyword
/// match lists: a node carries keyword `i`'s display form when its tuple
/// is in keyword `i`'s list. The lists are sorted by tuple, so a lookup
/// is one binary search per keyword, and only the nodes the search
/// renders are ever looked up — nothing is built per matched tuple.
#[derive(Clone, Copy)]
struct QueryMarkers<'a> {
    dg: &'a DataGraph,
    keywords: &'a [String],
    display_keywords: &'a [String],
    keyword_tuples: &'a [Vec<TupleId>],
}

impl MarkerLookup for QueryMarkers<'_> {
    fn for_each_marker(&self, n: NodeId, mut f: impl FnMut(&str)) {
        let t = self.dg.tuple_of(n);
        for (i, tuples) in self.keyword_tuples.iter().enumerate() {
            if tuples.binary_search(&t).is_ok() {
                f(self.display_keywords.get(i).unwrap_or(&self.keywords[i]));
            }
        }
    }
}

/// A fresh candidate of a key-first level merge ([`LevelMerge`]): the
/// connection with its cheap ranking info and that info's sort key
/// ([`RankStrategy::sort_key`]). `instance_close` is exact once
/// `witnessed` is set; until then it is the pessimistic `Some(false)`.
struct Keyed {
    key: (u128, u64),
    connection: Connection,
    info: ConnectionInfo,
    witnessed: bool,
}

/// One level of a key-first merge into the held top k (a sorted vector,
/// since k is small; `k = None` holds everything): a running k-th of
/// the held results and of the candidates kept so far (none without a
/// k), and those candidates. The order is the ranker's sort key
/// ([`RankStrategy::sort_key`]), then the rendering tie-break
/// ([`final_tiebreak`]); nothing else is compared. Each connection is
/// offered to step 1 below as it comes ([`EngineSnapshot::offer`]),
/// and steps 2–5 run on the candidates it kept
/// ([`EngineSnapshot::finish_level`]).
/// Items that fall off the held top k can never re-enter it (later
/// levels only add candidates, never improve dropped ones), so a
/// levelled merge equals the whole answer's ranked prefix. A level
/// offers each connection once: the singles are distinct, the Paths
/// enumeration offers only the path that stands for its connection
/// ([`EngineSnapshot::represents_its_connection`]), and BANKS (one tree
/// per node set) and DISCOVER (distinct networks) offer theirs in one
/// level after enumeration.
///
/// The merge is **key first**, and does the expensive per-connection
/// work only for connections that can still enter the top k. It is
/// sequential: it witnesses, renders and explains few connections, and
/// renders read the per-node label cache.
///
/// 1. Each offered connection is oriented, passed through the optional
///    MTJNT filter and given its cheap info (text score, conceptual
///    steps, ER chain) and no witness search. Its `instance_close` is
///    exact for a schema-close connection and pessimistic
///    (`Some(false)`) for a loose one. The connection is dropped at once
///    when, even with `instance_close` set optimistically
///    (`Some(true)`), it is strictly worse than a running k-th best
///    ([`RunningKth`]) of the held results and the candidates kept so
///    far. That running k-th is never better than `T` below, so step 2
///    would drop the connection too; and k kept candidates or held
///    results beat it, so dropping it leaves `T` unchanged. Only the
///    kept candidates are held. The drop needs a total order only, not
///    a length bound, so it runs under every ranker.
/// 2. `T` is the k-th best key of the held results and the kept
///    connections. A kept connection strictly worse than `T` even with
///    `instance_close` set optimistically is dropped. This is exact: a
///    connection's exact position lies between its optimistic and
///    pessimistic ones, so at least k connections strictly beat a
///    dropped one, whatever their witnesses say. (When the held results and the level number at
///    most k together, steps 1, 2 and 4 drop nothing by key.)
/// 3. Under [`RankStrategy::InstanceCloseFirst`], whose order reads
///    `instance_close`, the loose connections left get their witness.
///    No other ranker reads it.
/// 4. With every order now exact, the connections strictly worse than
///    the exact k-th are dropped. The rest tie with or beat it, and are
///    rendered: the rendering is the final tie-break, and a tie group
///    at the k-th can be large.
/// 5. The rendered connections merge with the held results by key, then
///    rendering, the top k is kept, and only its new entrants get their
///    witness (when not yet done) and explanation.
///
/// The held results end exactly as if every fresh connection had been
/// ranked in full, merged and cut to k.
struct LevelMerge {
    running: Option<RunningKth>,
    kept: Vec<Keyed>,
}

impl LevelMerge {
    /// A level's merge into the held results `held`.
    fn new(held: &[RankedConnection], k: Option<usize>, strategy: RankStrategy) -> Self {
        let running = k.map(|k| {
            let mut running = RunningKth { k, pool: Vec::new(), kth: None };
            for r in held {
                running.offer(strategy.sort_key(&r.info));
            }
            running
        });
        LevelMerge { running, kept: Vec::new() }
    }
}

/// Mutable state of the merge's per-connection work: reusable buffers
/// and memoization caches. Caches only affect cost, never results. The
/// node-indexed caches follow the search epoch's reset rule (see
/// [`SearchScratch`]): a reset clears the slots the last search filled,
/// never all `node_count` of them.
#[derive(Debug, Default)]
struct RankScratch {
    witness: WitnessCache,
    /// Node-indexed rendering labels.
    labels: NodeLabels,
    /// Node-indexed explanation descriptions.
    descs: NodeLabels,
    /// Conceptual-steps buffer, reused across connections.
    csteps: Vec<ConceptualStep>,
}

impl RankScratch {
    /// Re-arm for a new search: caches dropped (graph content and query
    /// may have changed), capacity kept.
    fn reset(&mut self, node_count: usize) {
        self.witness.clear();
        self.labels.reset(node_count);
        self.descs.reset(node_count);
        self.csteps.clear();
    }
}

/// The reusable per-search state of one engine — the **allocation-free
/// search epoch**. Every buffer the enumeration hot path touches
/// (target mask, bounded BFS distance map and queue, DFS path stacks,
/// per-node text scores, BANKS forests and queues, the merge's caches)
/// lives here; [`EngineSnapshot::search`] checks one scratch out of the
/// snapshot's pool and returns it afterwards, so repeated searches on a
/// warm engine reuse the high-water-mark buffers instead of
/// re-allocating per query (pinned by the counting-allocator test
/// `crates/core/tests/alloc.rs`). A search that panics never returns
/// its scratch: the unwind drops it.
///
/// **Reset rule:** every per-search buffer is cleared through the
/// entries the last search wrote — the touched label slots, the scored
/// nodes, the BFS's visited list — and never in `O(graph)`. A
/// node-indexed buffer is sized (in `O(graph)`) only on its first use
/// or when the node count changes, so a warm search costs what it
/// touches.
#[derive(Debug, Default)]
pub(crate) struct SearchScratch {
    rank: RankScratch,
    /// Buffers of the distance-pruned pair enumeration.
    enumerate: EnumScratch,
    /// Per-node tf·idf scores of the query.
    text_scores: Vec<f64>,
    /// The nodes whose `text_scores` slot the last search wrote.
    scored: Vec<NodeId>,
    /// BANKS lazy forests, completion table, candidate queue and held
    /// top k.
    banks: BanksScratch,
}

/// The buffers of one distance-pruned enumeration: target mask, the
/// BFS distance map from the targets (grown a hop ring at a time), and
/// the DFS path stacks. Grouped so the borrow of the read-only mask/map
/// and the mutable borrow of the DFS stacks stay visibly disjoint.
#[derive(Debug, Default)]
struct EnumScratch {
    is_target: Vec<bool>,
    bfs: RingBfs,
    traversal: TraversalScratch,
}

impl EnumScratch {
    /// Start a target set: the last set's mask bits and distances are
    /// cleared through the BFS's visited list (every target is a BFS
    /// source, so it is on that list), then `targets` are marked and
    /// seeded at distance 0. The map is grown with
    /// [`RingBfs::grow_to`] as far as the enumeration needs it.
    fn seed_targets(&mut self, node_count: usize, targets: &[NodeId]) {
        if self.is_target.len() == node_count {
            for n in self.bfs.visited() {
                self.is_target[n.index()] = false;
            }
        } else {
            self.is_target.clear();
            self.is_target.resize(node_count, false);
        }
        self.bfs.restart(node_count, targets);
        for &b in targets {
            self.is_target[b.index()] = true;
        }
    }
}

/// The deterministic final tie-break under any ranking strategy: the
/// rendering string, then the **tuple** sequence (unique, since each
/// connection is offered once, making the full comparator a total order
/// — a requirement for a levelled top-k merge to return exactly the
/// whole answer's prefix).
/// Tuples, not node ids: node numbering reflects insertion history on an
/// incrementally patched graph, while tuple ids are stable — so a
/// patched engine and a freshly rebuilt one order ties identically.
fn final_tiebreak(a: &RankedConnection, b: &RankedConnection, dg: &DataGraph) -> Ordering {
    a.rendering.cmp(&b.rendering).then_with(|| {
        a.connection
            .nodes()
            .iter()
            .map(|&n| dg.tuple_of(n))
            .cmp(b.connection.nodes().iter().map(|&n| dg.tuple_of(n)))
    })
}

/// The one canonical orientation rule: a connection runs from its
/// smaller endpoint **tuple** to its larger (tuple ids, not node ids, so
/// orientation survives node renumbering between a patched and a
/// rebuilt graph). Every connection is oriented before it is merged.
fn canonical_orient(c: &mut Connection, dg: &DataGraph) {
    if dg.tuple_of(c.end()) < dg.tuple_of(c.start()) {
        *c = c.reversed();
    }
}

/// The nodes matching each keyword, as hash sets (the MTJNT test's
/// input).
fn keyword_hash_sets(match_sets: &[Vec<NodeId>]) -> Vec<HashSet<NodeId>> {
    match_sets.iter().map(|s| s.iter().copied().collect()).collect()
}

/// Cut a budget-truncated answer to its certified prefix: the head run
/// of results that provably outrank every connection of `floor` or
/// more edges, the shortest the cut could have missed. Dominating
/// results always form a prefix of the ranked list. `Combined` has no
/// finite length bound (its text component is unbounded), so it keeps
/// the best found so far.
fn certified_prefix(ranked: &mut Vec<RankedConnection>, ranker: RankStrategy, floor: usize) {
    if ranker.supports_streaming_topk() {
        let keep =
            ranked.iter().take_while(|r| ranker.dominates_all_longer(&r.info, floor)).count();
        ranked.truncate(keep);
    }
}

/// The ranking order over results paired with their sort keys and a
/// payload the sort carries along: sort key
/// ([`RankStrategy::sort_key`]), then [`final_tiebreak`].
fn sort_keyed<T>(keyed: &mut [((u128, u64), RankedConnection, T)], dg: &DataGraph) {
    keyed.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| final_tiebreak(&a.1, &b.1, dg)));
}

/// The k-th best sort key of the held results and the fresh candidates
/// together; `None` when there is no k or they number at most k, so
/// that every one of them enters.
fn kth_best(
    held: &[RankedConnection],
    fresh: &[Keyed],
    k: Option<usize>,
    strategy: RankStrategy,
) -> Option<(u128, u64)> {
    let k = k?;
    if held.len() + fresh.len() <= k {
        return None;
    }
    let mut keys: Vec<(u128, u64)> = held
        .iter()
        .map(|r| strategy.sort_key(&r.info))
        .chain(fresh.iter().map(|c| c.key))
        .collect();
    Some(*keys.select_nth_unstable(k - 1).1)
}

/// The sort key `info` would have with its witness found: with
/// `instance_close` set optimistically (`Some(true)`) unless the
/// connection is already `witnessed`.
fn optimistic_key(
    strategy: RankStrategy,
    info: &mut ConnectionInfo,
    witnessed: bool,
) -> (u128, u64) {
    if witnessed {
        return strategy.sort_key(info);
    }
    let pessimistic = info.instance_close.replace(true);
    let key = strategy.sort_key(info);
    info.instance_close = pessimistic;
    key
}

/// A running k-th best sort key of the held results and of a level's
/// candidates as they are kept. Keys collect in a pool; once it holds k
/// (the first time) or 2k keys, a selection keeps the k best and the
/// worst of them becomes the k-th — amortized O(1) per offer, whatever
/// k is. It is the k-th of a subset of the offers, so it only improves
/// as offers come in and is never better than the exact k-th of them
/// all: whatever is strictly worse than it, at least k offers beat.
struct RunningKth {
    k: usize,
    pool: Vec<(u128, u64)>,
    kth: Option<(u128, u64)>,
}

impl RunningKth {
    /// Offer one key.
    fn offer(&mut self, key: (u128, u64)) {
        self.pool.push(key);
        let limit = if self.kth.is_some() { self.k.saturating_mul(2) } else { self.k };
        if self.pool.len() >= limit {
            let k = self.k;
            self.kth = Some(*self.pool.select_nth_unstable(k - 1).1);
            self.pool.truncate(k);
        }
    }

    /// Whether the running k-th is strictly better than `key`.
    fn beats(&self, key: (u128, u64)) -> bool {
        self.kth.is_some_and(|kth| kth < key)
    }
}

/// One ranked search result.
#[derive(Debug, Clone)]
pub struct RankedConnection {
    /// The connection itself.
    pub connection: Connection,
    /// Precomputed metrics used by the ranking.
    pub info: ConnectionInfo,
    /// Paper-notation rendering, e.g. `d1(XML) – e1(Smith)`.
    pub rendering: String,
    /// Natural-language reading (§3), e.g. `employee e1(Smith) works for
    /// department d1(XML)`.
    pub explanation: String,
}

/// The outcome of a search.
#[derive(Debug, Clone)]
pub struct SearchResults {
    /// The normalized query.
    pub query: KeywordQuery,
    /// Display forms of the keywords (original casing).
    pub display_keywords: Vec<String>,
    /// Ranked connections (paths; the common case).
    pub connections: Vec<RankedConnection>,
    /// Branching answer trees, populated for ≥ 3-keyword BANKS searches.
    pub trees: Vec<SteinerTree>,
    /// Traversal-work accounting for this search.
    pub stats: SearchStats,
}

impl SearchResults {
    /// The empty result set of a query (no connections, no trees, zero
    /// traversal stats) — the `k = 0` and unmatched-keyword shapes.
    fn empty(query: KeywordQuery, display_keywords: Vec<String>) -> Self {
        SearchResults {
            query,
            display_keywords,
            connections: Vec::new(),
            trees: Vec::new(),
            stats: SearchStats::default(),
        }
    }

    /// Number of path-shaped results.
    pub fn len(&self) -> usize {
        self.connections.len()
    }

    /// `true` when the search produced nothing at all.
    pub fn is_empty(&self) -> bool {
        self.connections.is_empty() && self.trees.is_empty()
    }
}
/// One published, immutable generation of the engine's read state.
///
/// Everything [`EngineSnapshot::search`] reads lives here; nothing here
/// changes after the snapshot is published (the scratch pool and the
/// failpoint opt-in flag carry no semantic state). Obtain the current
/// snapshot from a [`SnapshotHandle`](crate::SnapshotHandle) or
/// [`SearchEngine::snapshot`](crate::SearchEngine::snapshot), and
/// hold the `Arc` for as long as a consistent view is needed — the
/// engine publishing newer generations never invalidates it.
#[derive(Debug)]
pub struct EngineSnapshot {
    /// The ER schema and the mapping, shared by every generation of a
    /// lineage (no batch edits them).
    pub(crate) er_schema: Arc<ErSchema>,
    pub(crate) mapping: Arc<SchemaMapping>,
    pub(crate) index: InvertedIndex,
    pub(crate) dg: DataGraph,
    /// Display aliases — image-backed views after a zero-copy open,
    /// an owned map otherwise (see [`crate::Aliases`]). No mutation
    /// batch edits them, so generations share one table until
    /// `with_aliases` or a compaction replaces it.
    pub(crate) aliases: Arc<Aliases>,
    /// Publication ordinal of this snapshot: 0 for the freshly built
    /// engine, +1 per publish: every apply and compaction, and an alias
    /// edit made after a snapshot or handle escaped. Distinct from the
    /// database version (which also counts rolled-back batches).
    pub(crate) generation: u64,
    /// Whether searches on this snapshot probe the process-global
    /// [`failpoints`](crate::failpoints) registry. Atomic so
    /// [`SearchEngine::enable_failpoints`](crate::SearchEngine::enable_failpoints)
    /// reaches the already-published snapshot; fault-injection
    /// instrumentation only, never semantic state.
    pub(crate) failpoints: AtomicBool,
    /// Pool of reusable per-search scratch states (see
    /// [`SearchScratch`]). Each search pops one and pushes it back, so a
    /// warm snapshot re-allocates nothing on the enumeration hot path,
    /// and concurrent readers each hold their own; the pool is bounded
    /// to keep rarely-used concurrency from pinning memory.
    /// This mutex guards pooled buffers, not snapshot state: it is held
    /// for a pop/push only, never across any search work, and an empty
    /// pool just means a fresh buffer — readers can never block on an
    /// apply through it.
    #[allow(clippy::vec_box)]
    // moving boxes keeps checkout O(1), not a memcpy of the struct
    pub(crate) scratch_pool: Mutex<Vec<Box<SearchScratch>>>,
}

impl EngineSnapshot {
    /// This snapshot's publication ordinal: 0 for a freshly built
    /// engine, +1 per publish: every apply and compaction, and an alias
    /// edit made after a snapshot or handle escaped.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether searches on this snapshot probe the failpoint registry.
    pub(crate) fn failpoints(&self) -> bool {
        // ordering: Relaxed — instrumentation opt-in flag, set before
        // the snapshot is shared (or under the engine's &mut); searches
        // only use it to decide whether to probe the registry.
        self.failpoints.load(AtomicOrdering::Relaxed)
    }

    /// The engine's next build buffer: `index` and `dg` as given, the
    /// schema, mapping and alias tables shared, and a fresh scratch pool
    /// (per-search buffers carry no semantic state).
    pub(crate) fn successor(&self, index: InvertedIndex, dg: DataGraph) -> EngineSnapshot {
        EngineSnapshot {
            er_schema: Arc::clone(&self.er_schema),
            mapping: Arc::clone(&self.mapping),
            index,
            dg,
            aliases: Arc::clone(&self.aliases),
            generation: self.generation,
            failpoints: AtomicBool::new(self.failpoints()),
            scratch_pool: Mutex::new(Vec::new()),
        }
    }

    /// Lock the scratch pool, *recovering* from poison: a panic while
    /// the lock was held (only possible via the `pool.return` failpoint
    /// or a bug inside `Vec::push` itself) leaves entries of unknown
    /// consistency, so they are dropped, the poison flag cleared, and
    /// the pool serves fresh scratches from then on. Pooled buffers
    /// carry no semantic state — recovery can never change results.
    #[allow(clippy::vec_box)] // matches the pool field: boxes move O(1)
    fn lock_scratch_pool(&self) -> MutexGuard<'_, Vec<Box<SearchScratch>>> {
        self.scratch_pool.lock().unwrap_or_else(|poisoned| {
            self.scratch_pool.clear_poison();
            let mut pool = poisoned.into_inner();
            pool.clear();
            pool
        })
    }

    /// Pop a pooled scratch (or create the first ones on a cold
    /// engine).
    fn checkout_scratch(&self) -> Box<SearchScratch> {
        self.lock_scratch_pool().pop().unwrap_or_default()
    }

    /// Return a scratch to the pool for the next search. Bounded so a
    /// one-off burst of concurrent searches cannot pin its high-water
    /// buffer count forever.
    fn return_scratch(&self, scratch: Box<SearchScratch>) {
        const MAX_POOLED: usize = 8;
        let mut pool = self.lock_scratch_pool();
        if pool.len() < MAX_POOLED {
            if self.failpoints() && failpoints::triggered("pool.return") {
                panic!(
                    "pool.return failpoint: panicking while holding the scratch-pool lock"
                );
            }
            pool.push(scratch);
        }
    }

    /// The ER schema.
    pub fn er_schema(&self) -> &ErSchema {
        &self.er_schema
    }

    /// The mapping provenance.
    pub fn mapping(&self) -> &SchemaMapping {
        &self.mapping
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// The data graph.
    pub fn data_graph(&self) -> &DataGraph {
        &self.dg
    }

    /// Display aliases as a map (materialized and cached on first call
    /// when this snapshot is image-backed; rendering itself reads the
    /// backing directly and never pays for this).
    pub fn aliases(&self) -> &HashMap<TupleId, String> {
        self.aliases.as_map()
    }

    /// `true` while the alias table still serves from borrowed image
    /// views (zero-copy open introspection).
    pub fn aliases_image_backed(&self) -> bool {
        self.aliases.is_image_backed()
    }

    /// Tuples matching each keyword of `query`, in keyword order.
    pub fn keyword_matches(&self, query: &KeywordQuery) -> Vec<(String, Vec<TupleId>)> {
        query
            .keywords()
            .iter()
            .map(|kw| (kw.clone(), self.index.matching_tuples(kw)))
            .collect()
    }

    /// Keyword markers per node for rendering: which display keywords
    /// each matched tuple carries. A search itself builds no such map:
    /// it reads a node's markers from its match lists when it first
    /// renders the node.
    pub fn markers(
        &self,
        query: &KeywordQuery,
        display_keywords: &[String],
    ) -> HashMap<NodeId, Vec<String>> {
        let mut markers: HashMap<NodeId, Vec<String>> = HashMap::new();
        for (i, kw) in query.keywords().iter().enumerate() {
            let display = display_keywords.get(i).unwrap_or(kw);
            for t in self.index.matching_tuples(kw) {
                if let Some(n) = self.dg.node_of(t) {
                    markers.entry(n).or_default().push(display.clone());
                }
            }
        }
        markers
    }

    /// The connection following exactly the given tuple sequence, if the
    /// corresponding foreign-key path exists. Used by the experiment
    /// harness to address the paper's connections 1–9 by name.
    pub fn connection_following(&self, tuples: &[TupleId]) -> Option<Connection> {
        let want: Option<Vec<NodeId>> = tuples.iter().map(|&t| self.dg.node_of(t)).collect();
        let want = want?;
        if want.is_empty() {
            return None;
        }
        if want.len() == 1 {
            return Some(Connection::single(want[0]));
        }
        let paths = enumerate_simple_paths_undirected(
            self.dg.csr(),
            want[0],
            want[want.len() - 1],
            want.len() - 1,
            None,
        );
        paths
            .iter()
            .map(|p| Connection::from_path(p, &self.dg, &self.er_schema))
            .find(|c| c.nodes() == want.as_slice())
    }

    /// Compute the ranking metrics of a connection for a query.
    pub fn connection_info(
        &self,
        conn: &Connection,
        query: &KeywordQuery,
        compute_instance: bool,
        max_witness_length: usize,
    ) -> ConnectionInfo {
        let text_score = conn
            .nodes()
            .iter()
            .map(|&n| tuple_score(&self.index, self.dg.tuple_of(n), query))
            .sum();
        let mut csteps = Vec::new();
        self.info_with(
            conn,
            &mut csteps,
            text_score,
            compute_instance,
            max_witness_length,
            &mut WitnessCache::new(),
        )
    }

    /// Per-node tf·idf contributions of `query`, computed once per
    /// search (into the pooled scratch's buffers) so scoring a
    /// connection is one slot read per node instead of re-hashing
    /// keyword strings for every (node, keyword) pair. The dense array
    /// is zeroed through `scored`, the nodes the last search scored, and
    /// each keyword's postings (sorted by tuple) are summed run by run.
    /// `keyword_tuples[i]` must be the match list of keyword `i`.
    fn text_scores_by_node_into(
        &self,
        query: &KeywordQuery,
        keyword_tuples: &[Vec<TupleId>],
        scores: &mut Vec<f64>,
        scored: &mut Vec<NodeId>,
    ) {
        let node_count = self.dg.node_count();
        if scores.len() == node_count {
            for n in scored.drain(..) {
                scores[n.index()] = 0.0;
            }
        } else {
            scores.clear();
            scores.resize(node_count, 0.0);
            scored.clear();
        }
        let total = self.index.indexed_tuples();
        for (kw, tuples) in query.keywords().iter().zip(keyword_tuples) {
            let idf_kw = cla_index::idf(tuples.len(), total);
            // `frequency_in` semantics: occurrences summed across the
            // tuple's attributes, tf applied to the sum.
            for run in self.index.lookup(kw).chunk_by(|a, b| a.tuple == b.tuple) {
                let Some(n) = self.dg.node_of(run[0].tuple) else { continue };
                let frequency = run.iter().map(|p| p.frequency).sum();
                if scores[n.index()] == 0.0 {
                    scored.push(n);
                }
                scores[n.index()] += cla_index::tf(frequency) * idf_kw;
            }
        }
    }

    /// Assemble a [`ConnectionInfo`]: one conceptual pass (left in
    /// `csteps` for reuse by the explanation stage), the ER chain
    /// derived from it, and the optional witness search batched through
    /// `witness` (connections sharing an endpoint pair in one result set
    /// share one search).
    fn info_with(
        &self,
        conn: &Connection,
        csteps: &mut Vec<ConceptualStep>,
        text_score: f64,
        compute_instance: bool,
        max_witness_length: usize,
        witness: &mut WitnessCache,
    ) -> ConnectionInfo {
        conn.conceptual_steps_into(csteps, &self.dg, &self.er_schema, &self.mapping);
        let er_chain: CardinalityChain = csteps.iter().map(|s| s.cardinality).collect();
        let instance_close = compute_instance.then(|| {
            instance_closeness_with_cache(
                conn,
                &self.dg,
                &self.er_schema,
                &self.mapping,
                max_witness_length,
                witness,
            )
            .is_close()
        });
        let class = er_chain.classify();
        ConnectionInfo {
            rdb_length: conn.rdb_length(),
            er_length: er_chain.len(),
            class,
            closeness: class.closeness(),
            nm_count: er_chain.transitive_nm_count(),
            er_chain,
            text_score,
            instance_close,
        }
    }

    /// The explanation of a connection whose conceptual steps
    /// `scratch.csteps` holds.
    fn explain_from_steps(
        &self,
        connection: &Connection,
        ctx: &RankContext<'_>,
        scratch: &mut RankScratch,
    ) -> String {
        crate::explain::explain_connection_from_steps(
            connection,
            &mut scratch.csteps,
            &self.dg,
            &self.er_schema,
            &self.mapping,
            &*self.aliases,
            &ctx.markers,
            &mut scratch.descs,
        )
    }

    /// The instance-closeness verdict of a connection (the witness
    /// search, shared through the scratch's cache).
    fn witness_close(
        &self,
        connection: &Connection,
        ctx: &RankContext<'_>,
        scratch: &mut RankScratch,
    ) -> bool {
        instance_closeness_with_cache(
            connection,
            &self.dg,
            &self.er_schema,
            &self.mapping,
            ctx.max_witness_length,
            &mut scratch.witness,
        )
        .is_close()
    }

    /// Run a keyword search against this pinned generation.
    ///
    /// A snapshot is immutable and internally consistent, so there is
    /// no stale-engine state to refuse: concurrent writer publishes
    /// never affect a search in flight here, and the answers are
    /// byte-identical to a freshly built engine over this generation's
    /// database (the rebuild-equivalence property, fuzz-tested with
    /// concurrent readers in `crates/core/tests/concurrent.rs`).
    ///
    /// Fails with [`CoreError::EmptyQuery`] — consistently for every
    /// algorithm — when the query has no keywords at all, or when any
    /// keyword is **vacuous**: zero word tokens under the index's own
    /// tokenizer (punctuation-only like `"!!!"`, stopwords-only, below
    /// its `min_len`) *and* nothing found by the documented whole-value
    /// fallback of [`InvertedIndex::lookup`]. Such a keyword cannot
    /// match anything in this index, so under conjunctive semantics the
    /// result is empty for a degenerate reason — a silent `Ok` would be
    /// indistinguishable from "searched and found nothing". A
    /// token-free keyword that *does* match whole attribute values
    /// (e.g. a stored value `"!!!"`, or a stopword indexed as a whole
    /// value) keeps answering through the fallback.
    ///
    /// `SearchOptions { k: Some(0), .. }` returns empty results
    /// immediately (no enumeration) for every algorithm; `k:
    /// Some(usize::MAX)` behaves like an unbounded search.
    pub fn search(
        &self,
        raw_query: &str,
        options: &SearchOptions,
    ) -> Result<SearchResults, CoreError> {
        let query = KeywordQuery::parse(raw_query);
        let tokenizer = self.index.tokenizer();
        // A keyword is vacuous when it neither tokenizes to any word
        // nor (via lookup's whole-value fallback) matches anything —
        // tokenizable keywords without matches are the ordinary
        // empty-result path, not an error.
        let vacuous = |kw: &String| {
            tokenizer.tokenize(kw).is_empty() && self.index.lookup(kw).is_empty()
        };
        if query.is_empty() || query.keywords().iter().any(vacuous) {
            // Per-keyword diagnostics: which keyword produced zero
            // tokens, and the nearest indexed term by edit distance —
            // the raw material for relaxing the query instead of
            // failing hard.
            let diagnostics = query
                .keywords()
                .iter()
                .filter(|kw| vacuous(kw))
                .map(|kw| KeywordDiagnostic {
                    keyword: kw.clone(),
                    tokens: tokenizer.tokenize(kw).len(),
                    nearest_term: self.index.nearest_term(kw),
                })
                .collect();
            return Err(CoreError::EmptyQuery {
                query: raw_query.trim().to_owned(),
                diagnostics,
            });
        }
        let display_keywords = display_forms(raw_query, &query);

        // `k = 0` asks for nothing: every algorithm returns empty
        // results without enumerating (pinned by the shared edge-case
        // test alongside `k = usize::MAX`).
        if options.k == Some(0) {
            return Ok(SearchResults::empty(query, display_keywords));
        }

        // One index probe per keyword; the tuple lists feed both the
        // match sets and the rendering markers below.
        let keyword_tuples: Vec<Vec<TupleId>> =
            query.keywords().iter().map(|kw| self.index.matching_tuples(kw)).collect();

        // Per-keyword node sets (conjunctive semantics: all must match).
        let match_sets: Vec<Vec<NodeId>> = keyword_tuples
            .iter()
            .map(|tuples| tuples.iter().filter_map(|&t| self.dg.node_of(t)).collect())
            .collect();
        if match_sets.iter().any(Vec::is_empty) {
            return Ok(SearchResults::empty(query, display_keywords));
        }

        // Everything below runs on one pooled scratch: a warm engine
        // re-allocates none of its enumeration buffers per search.
        let mut scratch = self.checkout_scratch();
        let result = self.search_core(
            query,
            display_keywords,
            &keyword_tuples,
            &match_sets,
            options,
            &mut scratch,
        );
        self.return_scratch(scratch);
        result
    }

    /// The search pipeline proper, over a checked-out scratch.
    fn search_core(
        &self,
        query: KeywordQuery,
        display_keywords: Vec<String>,
        keyword_tuples: &[Vec<TupleId>],
        match_sets: &[Vec<NodeId>],
        options: &SearchOptions,
        scratch: &mut SearchScratch,
    ) -> Result<SearchResults, CoreError> {
        let scratch = &mut *scratch;
        // No simple path is longer than the live nodes less one, so a
        // larger bound enumerates nothing more; clamped, it keeps
        // DISCOVER's `max_rdb_length + 1` and the Paths levels finite.
        let options = &SearchOptions {
            max_rdb_length: options
                .max_rdb_length
                .min(self.dg.alive_node_count().saturating_sub(1)),
            ..*options
        };
        let mut budget = Budget::new(&options.budget);
        scratch.rank.reset(self.dg.node_count());
        self.text_scores_by_node_into(
            &query,
            keyword_tuples,
            &mut scratch.text_scores,
            &mut scratch.scored,
        );
        let ctx = RankContext {
            text_scores: &scratch.text_scores,
            markers: QueryMarkers {
                dg: &self.dg,
                keywords: query.keywords(),
                display_keywords: &display_keywords,
                keyword_tuples,
            },
            compute_instance: options.compute_instance,
            max_witness_length: options.max_witness_length,
        };

        // Tuples matching every keyword stand alone as zero-length
        // connections: the intersection of the sorted match lists, each
        // tuple of the shortest binary-searched in the others.
        let shortest =
            keyword_tuples.iter().min_by_key(|l| l.len()).map_or(&[][..], Vec::as_slice);
        let mut singles: Vec<NodeId> = shortest
            .iter()
            .filter(|t| keyword_tuples.iter().all(|l| l.binary_search(t).is_ok()))
            .filter_map(|&t| self.dg.node_of(t))
            .collect();
        singles.sort_unstable();
        let mut connections: Vec<Connection> =
            singles.into_iter().map(Connection::single).collect();

        let mut stats = SearchStats::default();
        let mut trees: Vec<SteinerTree> = Vec::new();
        // Minimum RDB length any connection missing after a budget cut
        // can have — the certified-prefix trim floor, sharpened per
        // algorithm below. Singles are collected from the match-set
        // intersection before any enumeration, so 1 is always sound.
        let mut trim_floor: usize = 1;
        match options.algorithm {
            Algorithm::Paths | Algorithm::Discover if query.len() <= 2 => {
                // Every two-keyword MTJNT is a path, so DISCOVER's
                // answer is the Paths answer under the MTJNT filter.
                let mtjnt_only =
                    options.mtjnt_only || options.algorithm == Algorithm::Discover;
                let (ranked, stats) = self.search_paths(
                    match_sets,
                    options,
                    mtjnt_only,
                    &ctx,
                    connections,
                    &mut scratch.enumerate,
                    &mut scratch.rank,
                    &mut budget,
                );
                return Ok(SearchResults {
                    query,
                    display_keywords,
                    connections: ranked,
                    trees,
                    stats,
                });
            }
            Algorithm::Paths => {
                return Err(CoreError::InvalidQuery(format!(
                    "the Paths algorithm handles at most 2 keywords, got {} — use Banks or Discover",
                    query.len()
                )));
            }
            // BANKS and DISCOVER probe after each expansion they count;
            // this probe precedes the first, so a budget spent already (a
            // cap of 0, an expired deadline) runs none. The singles are
            // merged and trimmed below.
            Algorithm::Banks | Algorithm::Discover if budget.check(0) => {}
            Algorithm::Banks => {
                let banks_opts = BanksOptions { k: options.k, weighting: options.weighting };
                let fp = self.failpoints();
                let mut interrupt = |n: u64| {
                    if fp && failpoints::triggered("banks.settle") {
                        // Deterministic truncation for the fault suite:
                        // force a budget trip at a settle site.
                        budget.trip(TruncationReason::ExpansionCap);
                        return true;
                    }
                    budget.check(n)
                };
                let (found, work, weight_floor) = banks_search_budgeted(
                    &self.dg,
                    match_sets,
                    &banks_opts,
                    &mut scratch.banks,
                    &mut interrupt,
                );
                stats.expansions = work.candidates;
                stats.early_terminated = work.early_terminated;
                if let Some(floor) = weight_floor {
                    // Every undiscovered tree weighs >= floor; per-edge
                    // weights never exceed 1.0 under either weighting,
                    // so its RDB length is >= ceil(floor).
                    trim_floor = (floor.ceil().max(1.0) as usize).max(1);
                }
                for tree in found {
                    match self.tree_to_connection(&tree) {
                        Some(conn) if conn.rdb_length() > 0 => connections.push(conn),
                        Some(_) => {} // single nodes already collected
                        None => trees.push(tree),
                    }
                }
            }
            Algorithm::Discover => {
                let kw_sets = keyword_hash_sets(match_sets);
                let (networks, completed_size) = enumerate_mtjnts_budgeted(
                    &self.dg,
                    &kw_sets,
                    options.max_rdb_length + 1,
                    &mut stats.expansions,
                    &mut |n| budget.check(n),
                );
                if let Some(completed) = completed_size {
                    // Every level up to `completed` tuples was fully
                    // enumerated; anything missing has >= completed + 1
                    // tuples, hence >= completed FK edges.
                    trim_floor = completed.max(1);
                }
                stats.max_length_enumerated = options.max_rdb_length;
                for network in networks {
                    if network.len() == 1 {
                        continue; // singles already collected
                    }
                    match self.network_to_connection(&network) {
                        Some(conn) => connections.push(conn),
                        None => {
                            // Branching MTJNT (≥ 3 keywords): report as a
                            // tree with pseudo-weight = edge count.
                            if let Some(tree) = self.network_to_tree(&network, &kw_sets) {
                                trees.push(tree);
                            }
                        }
                    }
                }
            }
        }

        // Each connection is offered once, as enumerated: BANKS returns
        // one tree per node set and DISCOVER distinct networks.
        let kw_sets = options.mtjnt_only.then(|| keyword_hash_sets(match_sets));
        let (k, ranker) = (options.k, options.ranker);
        let mut merge = LevelMerge::new(&[], k, ranker);
        for connection in connections {
            self.offer(
                &mut merge,
                connection,
                kw_sets.as_deref(),
                &ctx,
                ranker,
                &mut scratch.rank,
            );
        }
        let mut ranked = Vec::new();
        self.finish_level(&mut ranked, merge.kept, &ctx, ranker, k, &mut scratch.rank);
        if let Some(reason) = budget.reason() {
            certified_prefix(&mut ranked, ranker, trim_floor);
            stats.completeness = Completeness::Truncated { reason };
        }
        // One k-budget shared across connections and trees: ranked
        // connections first, the remainder to branching answer trees.
        if let Some(k) = k {
            trees.truncate(k.saturating_sub(ranked.len()));
        }

        Ok(SearchResults { query, display_keywords, connections: ranked, trees, stats })
    }

    /// Step 1 of a [`LevelMerge`] for one connection: kept in `merge`
    /// only while it can still enter the top k.
    fn offer(
        &self,
        merge: &mut LevelMerge,
        mut connection: Connection,
        mtjnt_sets: Option<&[HashSet<NodeId>]>,
        ctx: &RankContext<'_>,
        ranker: RankStrategy,
        scratch: &mut RankScratch,
    ) {
        canonical_orient(&mut connection, &self.dg);
        if let Some(kw) = mtjnt_sets {
            let set: BTreeSet<NodeId> = connection.nodes().iter().copied().collect();
            if !is_mtjnt(&self.dg, &set, kw) {
                return;
            }
        }
        let mut info = self.info_with(
            &connection,
            &mut scratch.csteps,
            ctx.text_score(&connection),
            false,
            ctx.max_witness_length,
            &mut scratch.witness,
        );
        let close = info.closeness == Closeness::Close;
        info.instance_close = ctx.compute_instance.then_some(close);
        let witnessed = close || !ctx.compute_instance;
        if let Some(running) = &merge.running {
            if running.beats(optimistic_key(ranker, &mut info, witnessed)) {
                return;
            }
        }
        let key = ranker.sort_key(&info);
        if let Some(running) = &mut merge.running {
            running.offer(key);
        }
        merge.kept.push(Keyed { key, connection, info, witnessed });
    }

    /// Steps 2–5 of a [`LevelMerge`]: merge the candidates step 1 kept
    /// into the held results `acc`.
    fn finish_level(
        &self,
        acc: &mut Vec<RankedConnection>,
        mut cands: Vec<Keyed>,
        ctx: &RankContext<'_>,
        ranker: RankStrategy,
        k: Option<usize>,
        scratch: &mut RankScratch,
    ) {
        // Step 2.
        if let Some(t) = kth_best(acc, &cands, k, ranker) {
            cands.retain_mut(|c| optimistic_key(ranker, &mut c.info, c.witnessed) <= t);
        }
        if ranker == RankStrategy::InstanceCloseFirst {
            for c in cands.iter_mut().filter(|c| !c.witnessed) {
                c.info.instance_close = Some(self.witness_close(&c.connection, ctx, scratch));
                c.key = ranker.sort_key(&c.info);
                c.witnessed = true;
            }
        }
        if let Some(kth) = kth_best(acc, &cands, k, ranker) {
            cands.retain(|c| c.key <= kth);
        }

        let mut merged: Vec<((u128, u64), RankedConnection, Option<bool>)> =
            acc.drain(..).map(|r| (ranker.sort_key(&r.info), r, None)).collect();
        for c in cands {
            let rendering = c.connection.render_cached(
                &self.dg,
                &*self.aliases,
                &ctx.markers,
                &mut scratch.labels,
            );
            let ranked = RankedConnection {
                connection: c.connection,
                info: c.info,
                rendering,
                explanation: String::new(),
            };
            merged.push((c.key, ranked, Some(c.witnessed)));
        }
        sort_keyed(&mut merged, &self.dg);
        if let Some(k) = k {
            merged.truncate(k);
        }
        for (_, mut r, entrant) in merged {
            if let Some(witnessed) = entrant {
                if !witnessed {
                    r.info.instance_close =
                        Some(self.witness_close(&r.connection, ctx, scratch));
                }
                r.connection.conceptual_steps_into(
                    &mut scratch.csteps,
                    &self.dg,
                    &self.er_schema,
                    &self.mapping,
                );
                r.explanation = self.explain_from_steps(&r.connection, ctx, scratch);
            }
            acc.push(r);
        }
    }

    /// Every two-keyword answer: each `Paths` search, and each
    /// `Discover` search of at most two keywords (with `mtjnt_only`),
    /// on the calling thread. The singles are merged
    /// first ([`LevelMerge`]); then one pruned DFS per source emits the
    /// paths, and each path that stands for its connection
    /// ([`EngineSnapshot::represents_its_connection`]) is offered the
    /// moment it is emitted, so no path set is ever collected.
    ///
    /// * With `k` set under a ranker that supports streaming
    ///   ([`RankStrategy::supports_streaming_topk`]), the DFS runs one
    ///   length level at a time and the search stops as soon as the
    ///   k-th best connection dominates every unexplored level.
    /// * Otherwise one DFS runs to `max_rdb_length` and one merge takes
    ///   every length: it drops nothing with `k = None`, and against
    ///   the running k-th under `Combined` at k.
    ///
    /// One budget probe counts every expansion, so an expansion cap is
    /// exact. A cut finishes the merge of what was offered; under a
    /// streaming ranker only the held prefix that dominates every
    /// connection the cut could have missed is kept, and under
    /// `Combined` the best found so far.
    #[allow(clippy::too_many_arguments)]
    fn search_paths(
        &self,
        match_sets: &[Vec<NodeId>],
        options: &SearchOptions,
        mtjnt_only: bool,
        ctx: &RankContext<'_>,
        singles: Vec<Connection>,
        enumerate: &mut EnumScratch,
        rank_scratch: &mut RankScratch,
        budget: &mut Budget,
    ) -> (Vec<RankedConnection>, SearchStats) {
        let (k, ranker) = (options.k, options.ranker);
        let kw_sets = mtjnt_only.then(|| keyword_hash_sets(match_sets));
        let mtjnt_sets = kw_sets.as_deref();
        let mut stats = SearchStats::default();
        let mut acc: Vec<RankedConnection> = Vec::new();

        // Level 0: the singles.
        let mut merge = LevelMerge::new(&acc, k, ranker);
        for connection in singles {
            self.offer(&mut merge, connection, mtjnt_sets, ctx, ranker, rank_scratch);
        }
        self.finish_level(&mut acc, merge.kept, ctx, ranker, k, rank_scratch);
        let [set_a, set_b] = match_sets else {
            return (acc, stats); // one keyword: the singles are the answer
        };
        let max = options.max_rdb_length;
        // The k a levelled search stops early at, if it may.
        let stop_k = k.filter(|_| ranker.supports_streaming_topk());
        let first = if stop_k.is_some() { 1 } else { max.max(1) };
        if stop_k.is_none() {
            // A whole answer reports its length budget, cut or not.
            stats.max_length_enumerated = max;
        }
        for level in first..=max {
            // Any connection still to come has RDB length >= level; if
            // the k-th best already beats the best conceivable such
            // connection, deeper enumeration cannot change the top k.
            if stop_k.is_some_and(|k| {
                acc.len() == k && ranker.dominates_all_longer(&acc[k - 1].info, level)
            }) {
                stats.early_terminated = true;
                break;
            }
            // The target mask and distance map are seeded only once a
            // level is enumerated, and grown one hop per level: paths of
            // `level` edges read exact distances up to `level` only (the
            // DFS descends while `dist < remaining` and skips a source
            // with `dist > level`), and a farther node reads `u32::MAX`.
            if level == first {
                enumerate.seed_targets(self.dg.node_count(), set_b);
            }
            enumerate.bfs.grow_to(self.dg.csr(), u32::try_from(level).unwrap_or(u32::MAX));
            // The DFS to `level` edges emits every shorter path too; a
            // levelled search takes the paths of exactly `level` edges.
            let shortest = if stop_k.is_some() { level } else { 1 };
            let EnumScratch { is_target, bfs, traversal } = &mut *enumerate;
            let is_target: &[bool] = is_target;
            let mut merge = LevelMerge::new(&acc, k, ranker);
            // The DFS probes after each descent it counts; this probe
            // precedes the level's first, so a budget spent before any
            // (a cap of 0, an expired deadline) runs none.
            if !budget.check(stats.expansions) {
                for &a in set_a {
                    let flow = for_each_path_to_targets_budgeted(
                        self.dg.csr(),
                        a,
                        is_target,
                        bfs.distances(),
                        level,
                        &mut stats.expansions,
                        traversal,
                        &mut |n| budget.check(n),
                        |nodes, edges| {
                            if edges.len() >= shortest
                                && self
                                    .represents_its_connection(nodes, edges, is_target, set_a)
                            {
                                let connection = Connection::from_slices(
                                    nodes,
                                    edges,
                                    &self.dg,
                                    &self.er_schema,
                                );
                                self.offer(
                                    &mut merge,
                                    connection,
                                    mtjnt_sets,
                                    ctx,
                                    ranker,
                                    rank_scratch,
                                );
                            }
                            ControlFlow::Continue(())
                        },
                    );
                    if flow.is_break() {
                        break; // the budget ran out
                    }
                }
            }
            self.finish_level(&mut acc, merge.kept, ctx, ranker, k, rank_scratch);
            if let Some(reason) = budget.reason() {
                // Every connection the cut could have missed has at
                // least `shortest` edges (the shorter ones were merged
                // in full), so the held prefix that dominates that
                // length is certified. No connection of `shortest` or
                // more edges dominates it, and each sorts after the
                // held results that do, so what the cut level merged
                // changes nothing the trim keeps.
                certified_prefix(&mut acc, ranker, shortest);
                stats.completeness = Completeness::Truncated { reason };
                break;
            }
            stats.max_length_enumerated = level;
        }
        (acc, stats)
    }

    /// Whether an emitted path is the one that stands for its
    /// connection, so that each connection is offered once. The paths
    /// that orient to one connection are the parallel-edge variants of
    /// one node sequence and, when both endpoints match both keywords,
    /// their reverses. Two stateless rules pick one of them:
    ///
    /// * every hop uses the lowest-id edge joining its two nodes,
    ///   checked by scanning the shorter of the two nodes' neighbor
    ///   lists;
    /// * a path from `a` to `b` is skipped when `a` is also a target and
    ///   `b` a source ordered before `a`: source `b` emits the reverse
    ///   path, and it orients to the same connection.
    ///
    /// That is the connection the per-pair reference keeps (the first
    /// of each node sequence, sources in match-list order and each
    /// pair's paths in edge-id order); the property suite pins it
    /// (`pruned_search_equals_naive_search`,
    /// `pruned_search_keeps_the_oracles_parallel_edge_representative`,
    /// `streamed_paths_keep_the_batch_representatives`). `sources` is
    /// sorted by tuple, as every match list is.
    fn represents_its_connection(
        &self,
        nodes: &[NodeId],
        edges: &[EdgeId],
        is_target: &[bool],
        sources: &[NodeId],
    ) -> bool {
        let (a, b) = (nodes[0], nodes[nodes.len() - 1]);
        if is_target[a.index()] {
            let tb = self.dg.tuple_of(b);
            if tb < self.dg.tuple_of(a)
                && sources.binary_search_by_key(&tb, |&n| self.dg.tuple_of(n)).is_ok()
            {
                return false;
            }
        }
        let csr = self.dg.csr();
        edges.iter().zip(nodes.windows(2)).all(|(&e, hop)| {
            let (u, v) = (hop[0], hop[1]);
            let (scan, other) = if csr.degree(u) <= csr.degree(v) { (u, v) } else { (v, u) };
            csr.neighbors(scan).iter().all(|&(m, f)| m != other || f >= e)
        })
    }

    /// Convert a path-shaped Steiner tree into a connection; `None` if
    /// it branches.
    fn tree_to_connection(&self, tree: &SteinerTree) -> Option<Connection> {
        if tree.edges.is_empty() {
            return Some(Connection::single(tree.root));
        }
        // Walk from the endpoint (degree-1 node) with the smaller tuple
        // id, the canonical start ([`canonical_orient`]): tuple ids, not
        // node ids, which vary across patched and rebuilt engines. A
        // tree has a handful of edges, so degrees come from scanning
        // them.
        let start = tree
            .edges
            .iter()
            .flat_map(|&(_, a, b)| [a, b])
            .filter(|&n| tree.degree(n) == 1)
            .min_by_key(|&n| self.dg.tuple_of(n))?;
        let (nodes, edges) = tree.linearize(start)?;
        let path = Path { nodes, edges };
        Some(Connection::from_path(&path, &self.dg, &self.er_schema))
    }

    /// Convert a path-shaped joining network (node set) into a
    /// connection; `None` if the induced network branches.
    fn network_to_connection(&self, network: &BTreeSet<NodeId>) -> Option<Connection> {
        // Collect induced adjacency (lowest edge id per node pair).
        let csr = self.dg.csr();
        let mut adj: HashMap<NodeId, Vec<(NodeId, cla_graph::EdgeId)>> = HashMap::new();
        for &n in network {
            for &(m, e) in csr.neighbors(n) {
                if network.contains(&m) && m != n {
                    adj.entry(n).or_default().push((m, e));
                }
            }
        }
        for list in adj.values_mut() {
            list.sort();
            list.dedup_by_key(|(m, _)| *m); // keep lowest edge per neighbor
        }
        let endpoints: Vec<NodeId> =
            network.iter().copied().filter(|n| adj.get(n).map_or(0, Vec::len) == 1).collect();
        if network.len() == 1 {
            return Some(Connection::single(*network.iter().next()?));
        }
        if endpoints.len() != 2 {
            return None;
        }
        if network.iter().any(|n| adj.get(n).map_or(0, Vec::len) > 2) {
            return None;
        }
        // Orient from the endpoint with the smaller tuple id (stable
        // across node renumbering).
        let start = if self.dg.tuple_of(endpoints[0]) <= self.dg.tuple_of(endpoints[1]) {
            endpoints[0]
        } else {
            endpoints[1]
        };
        let mut nodes = vec![start];
        let mut edges = Vec::new();
        let mut prev: Option<NodeId> = None;
        let mut current = start;
        while nodes.len() < network.len() {
            let (next, e) = *adj[&current].iter().find(|(m, _)| Some(*m) != prev)?;
            edges.push(e);
            nodes.push(next);
            prev = Some(current);
            current = next;
        }
        let path = Path { nodes, edges };
        Some(Connection::from_path(&path, &self.dg, &self.er_schema))
    }

    /// Wrap a branching joining network as a pseudo Steiner tree (for
    /// uniform reporting of ≥ 3-keyword DISCOVER results).
    fn network_to_tree(
        &self,
        network: &BTreeSet<NodeId>,
        kw_sets: &[HashSet<NodeId>],
    ) -> Option<SteinerTree> {
        let csr = self.dg.csr();
        let root = network.iter().copied().min_by_key(|&n| self.dg.tuple_of(n))?;
        // Spanning tree of the induced subgraph via BFS. Neighbors are
        // visited in tuple order, not CSR position: CSR position follows
        // edge ids, which differ between a patched and a rebuilt graph,
        // and which cycle edge the spanning tree drops must not.
        let mut edges = Vec::new();
        let mut seen: HashSet<NodeId> = [root].into();
        let mut queue = std::collections::VecDeque::from([root]);
        let mut nodes = vec![root];
        while let Some(n) = queue.pop_front() {
            let mut adjacent: Vec<(NodeId, cla_graph::EdgeId)> = csr
                .neighbors(n)
                .iter()
                .copied()
                .filter(|&(m, _)| m != n && network.contains(&m))
                .collect();
            adjacent
                .sort_by_key(|&(m, e)| (self.dg.tuple_of(m), self.dg.annotation(e).fk_index));
            for (m, e) in adjacent {
                if seen.insert(m) {
                    edges.push((e, n, m));
                    nodes.push(m);
                    queue.push_back(m);
                }
            }
        }
        let keyword_nodes = kw_sets
            .iter()
            .map(|set| nodes.iter().copied().find(|n| set.contains(n)).unwrap_or(root))
            .collect();
        let weight = edges.len() as f64;
        Some(SteinerTree { root, nodes, edges, keyword_nodes, weight })
    }
}

/// Pair each normalized keyword with its first original-case occurrence
/// in the raw query (`"Smith XML"` → `["Smith", "XML"]`).
fn display_forms(raw: &str, query: &KeywordQuery) -> Vec<String> {
    let originals: Vec<&str> = raw.split_whitespace().collect();
    query
        .keywords()
        .iter()
        .map(|kw| {
            originals
                .iter()
                .find(|o| o.to_lowercase() == *kw)
                .map(|o| (*o).to_owned())
                .unwrap_or_else(|| kw.clone())
        })
        .collect()
}
