//! The immutable, shareable half of the engine: one published
//! generation of every structure `search()` reads.
//!
//! An [`EngineSnapshot`] owns the inverted index, the data graph with
//! its CSR, display aliases and the pooled per-search scratch state —
//! everything the whole search pipeline (keyword match → connection
//! generation → metrics → ranking) touches. It is **never mutated after publication**: the
//! [`EngineWriter`](crate::EngineWriter) builds the next generation in a
//! private buffer and publishes it by swapping an `Arc` under a write
//! lock, so any number of reader threads can search a pinned snapshot
//! while the writer works; a pin holds the read lock only for one
//! `Arc` clone, and no search runs under it. Within one
//! snapshot every answer is internally consistent; a reader holding an
//! `Arc<EngineSnapshot>` keeps exactly its generation's answers alive
//! no matter how far the writer advances.

use crate::aliases::Aliases;
use crate::banks::{
    banks_search_budgeted, BanksOptions, BanksScratch, EdgeWeighting, SteinerTree,
};
use crate::budget::{BudgetProbe, BudgetShared, SearchBudget};
use crate::connection::{ConceptualStep, Connection, MarkerLookup, NodeLabels};
use crate::datagraph::DataGraph;
use crate::discover::{enumerate_mtjnts_budgeted, is_mtjnt, JoiningNetworkLevels};
use crate::error::{CoreError, KeywordDiagnostic};
use crate::failpoints;
use crate::instance::{instance_closeness_with_cache, WitnessCache, WitnessStrategy};
use crate::ranking::{ConnectionInfo, RankStrategy};
use crate::stats::{Completeness, SearchStats, TruncationReason};
use cla_er::{CardinalityChain, Closeness, ErSchema, SchemaMapping};
use cla_graph::{
    enumerate_simple_paths_undirected, for_each_path_to_targets_budgeted, NodeId, Path,
    RingBfs, TraversalScratch,
};
use cla_index::{tuple_score, InvertedIndex, KeywordQuery};
use cla_relational::TupleId;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

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
    /// criticizes).
    Discover,
}

/// Options controlling [`EngineSnapshot::search`] (and the
/// [`SearchEngine`](crate::SearchEngine) façade's `search`).
#[derive(Debug, Clone, Copy)]
pub struct SearchOptions {
    /// Connection-generation algorithm.
    pub algorithm: Algorithm,
    /// Maximum connection length in foreign-key edges (for Discover:
    /// maximum network size is `max_rdb_length + 1` tuples).
    pub max_rdb_length: usize,
    /// Ranking strategy.
    pub ranker: RankStrategy,
    /// Result budget: `None` returns everything, `Some(k)` at most `k`
    /// results **in total** — ranked connections first, any remaining
    /// budget going to branching answer trees. With a length-monotone
    /// ranker on the two-keyword `Paths` and `Discover` algorithms, a
    /// set `k` also switches the engine into streaming top-k mode:
    /// connections are enumerated length (or network-size) level by
    /// level and the search stops as soon as the held top `k` provably
    /// dominates every unexplored level (see
    /// [`RankStrategy::dominates_all_longer`]), skipping the deeper
    /// enumeration. Within a level that does not fit in the buffer, each
    /// connection first gets only its cheap ranking key (text score,
    /// conceptual steps, ER chain). The witness search then runs only
    /// for connections that can still enter the top `k` and, except
    /// under [`RankStrategy::InstanceCloseFirst`], only for those that
    /// do. Rendering runs only for connections that tie with or beat the
    /// k-th key, and the explanation only for those that enter. On
    /// `Banks`, a set `k` cuts the expansion off once no incomplete root
    /// can enter, and a completed root's answer tree is materialized
    /// only if it can. The returned prefix is identical to running the
    /// full enumeration and truncating.
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
    /// Worker threads for the parallelizable pipeline stages (the
    /// per-source enumeration fan-out and the per-connection
    /// metric/rendering stage). `1` runs fully sequential; `0` (the
    /// default) resolves to the `CLA_SEARCH_THREADS` environment
    /// variable if set (the CI determinism knob), else the machine's
    /// available parallelism. Ranked output is byte-identical across
    /// thread counts: work is split into contiguous chunks and merged
    /// back in order.
    pub threads: usize,
    /// How the instance-closeness witness search prunes: iterative
    /// deepening, bounded-BFS distance maps, or (the default) an
    /// automatic pick by graph size. Verdicts — and therefore ranked
    /// output — are identical under every strategy; this is a pure
    /// cost knob (and the property-test/bench A/B switch).
    pub witness_strategy: WitnessStrategy,
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
    /// expansion-counting sites; DISCOVER counts only the networks that
    /// can still become MTJNTs (see [`SearchStats::expansions`]), so
    /// the same cap reaches further there than a count of every
    /// connected network would.
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
            witness_strategy: WitnessStrategy::Auto,
            budget: SearchBudget::UNLIMITED,
        }
    }
}
/// Resolve a [`SearchOptions::threads`] request to a concrete count.
fn resolved_threads(requested: usize) -> usize {
    if requested != 0 {
        return requested;
    }
    // Resolved once per process: `available_parallelism` inspects
    // cgroup quotas on Linux (file reads, ~10 µs) — far too slow to
    // re-run on every search.
    static AUTO: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *AUTO.get_or_init(|| {
        if let Some(n) =
            std::env::var("CLA_SEARCH_THREADS").ok().and_then(|v| v.parse::<usize>().ok())
        {
            if n >= 1 {
                return n;
            }
        }
        thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    })
}

/// Process-wide failpoint opt-in: engines built while `CLA_FAILPOINTS`
/// is set probe the registry (the variable's points are armed once, on
/// first use — the CI fault-injection leg's entry point). Resolved once
/// per process like [`resolved_threads`].
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
/// Shared read-only inputs of the per-connection metric stage.
struct RankContext<'a> {
    /// Per-node tf·idf scores for the query.
    text_scores: &'a [f64],
    /// Keyword markers for rendering.
    markers: QueryMarkers<'a>,
    /// Whether to run the instance-closeness witness search.
    compute_instance: bool,
    /// Witness-path length bound.
    max_witness_length: usize,
    /// Witness pruning strategy (worker threads build their own caches
    /// with it).
    witness_strategy: WitnessStrategy,
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

/// A fresh candidate of a key-first level merge
/// ([`EngineSnapshot::absorb_level`]): the connection with its cheap
/// ranking info and that info's packed sort key. `instance_close` is
/// exact once `witnessed` is set; until then it is the pessimistic
/// `Some(false)`. While the merge's first pass still borrows the
/// level's node sequences, `connection` is the connection's position
/// in the level instead.
struct Keyed<C = Connection> {
    key: (u128, u64),
    connection: C,
    info: ConnectionInfo,
    witnessed: bool,
}

/// Per-worker mutable state of the metric stage: reusable buffers and
/// memoization caches. Caches only affect cost, never results, so each
/// worker thread owning its own scratch keeps parallel output identical
/// to sequential. The node-indexed caches follow the search epoch's
/// reset rule (see [`SearchScratch`]): a reset clears the slots the
/// last search filled, never all `node_count` of them.
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
    fn reset(&mut self, node_count: usize, witness_strategy: WitnessStrategy) {
        self.witness.clear();
        self.witness.set_strategy(witness_strategy);
        self.labels.reset(node_count);
        self.descs.reset(node_count);
        self.csteps.clear();
    }
}

/// The reusable per-search state of one engine — the **allocation-free
/// search epoch**. Every buffer the enumeration hot path touches
/// (target mask, bounded BFS distance map and queue, DFS path stacks,
/// per-node text scores, BANKS forests and queues, metric-stage caches)
/// lives here; [`EngineSnapshot::search`] checks one scratch out of the
/// snapshot's pool and returns it afterwards, so repeated searches on a
/// warm engine reuse the high-water-mark buffers instead of
/// re-allocating per query (pinned by the counting-allocator test
/// `crates/core/tests/alloc.rs`). Worker threads beyond the first
/// check out (or create) their own scratch, keeping parallel output
/// byte-identical.
///
/// **Reset rule:** every per-search buffer is cleared through the
/// entries the last search wrote — the touched label slots, the scored
/// nodes, the BFS's visited list — and never in `O(graph)`. A
/// node-indexed buffer is sized (in `O(graph)`) only on its first use
/// or when the node count changes, so a warm search costs what it
/// touches. Each entry is recorded as it is written, so a search that
/// panicked part way leaves nothing behind that the next reset misses.
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
/// rendering string, then the **tuple** sequence (unique after dedup,
/// making the full comparator a total order — a requirement for the
/// streaming top-k mode to return exactly the batch pipeline's prefix).
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

/// FNV-1a, the dedup seen-set's hasher: the keys are short `NodeId`
/// slices, where FNV beats SipHash's per-call setup without inviting the
/// HashDoS concerns of user-controlled strings.
#[derive(Default)]
struct Fnv1a(u64);

impl std::hash::Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// The one canonical orientation rule: a connection runs from its
/// smaller endpoint **tuple** to its larger (tuple ids, not node ids, so
/// orientation survives node renumbering between a patched and a
/// rebuilt graph). Shared by the batch dedup and the streaming top-k
/// accumulator — both must pick identical representatives for the
/// streamed prefix to equal the batch pipeline's.
fn canonical_orient(c: &mut Connection, dg: &DataGraph) {
    if dg.tuple_of(c.end()) < dg.tuple_of(c.start()) {
        *c = c.reversed();
    }
}

/// Orient every connection canonically ([`canonical_orient`]) and keep
/// the first occurrence of each node sequence, preserving order. The
/// seen-set borrows the node slices instead of allocating a key per
/// connection, and the compaction is in place.
fn dedup_canonical(mut connections: Vec<Connection>, dg: &DataGraph) -> Vec<Connection> {
    for c in &mut connections {
        canonical_orient(c, dg);
    }
    let mut keep = vec![false; connections.len()];
    {
        let mut seen: HashSet<&[NodeId], std::hash::BuildHasherDefault<Fnv1a>> =
            HashSet::with_capacity_and_hasher(connections.len() * 2, Default::default());
        for (i, c) in connections.iter().enumerate() {
            keep[i] = seen.insert(c.nodes());
        }
    }
    let mut i = 0;
    connections.retain(|_| {
        i += 1;
        keep[i - 1]
    });
    connections
}

/// Sort a ranked result set by `strategy` using precomputed packed sort
/// keys ([`RankStrategy::sort_key`]), falling back to the full
/// comparison plus [`final_tiebreak`] on key ties. Ordering is identical
/// to `sort_by_strategy(.., final_tiebreak)`, just cheaper per
/// comparison.
fn sort_ranked(ranked: &mut Vec<RankedConnection>, strategy: RankStrategy, dg: &DataGraph) {
    let mut keyed: Vec<_> =
        ranked.drain(..).map(|r| (strategy.sort_key(&r.info), r, ())).collect();
    sort_keyed(&mut keyed, strategy, dg);
    ranked.extend(keyed.into_iter().map(|(_, r, ())| r));
}

/// [`sort_ranked`]'s order over results paired with their sort keys and
/// a payload the sort carries along.
fn sort_keyed<T>(
    keyed: &mut [((u128, u64), RankedConnection, T)],
    strategy: RankStrategy,
    dg: &DataGraph,
) {
    keyed.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| strategy.compare(&a.1.info, &b.1.info))
            .then_with(|| final_tiebreak(&a.1, &b.1, dg))
    });
}

/// The ranking order without the rendering tie-break: packed key first,
/// the full comparison on key ties.
fn key_order(
    strategy: RankStrategy,
    a: ((u128, u64), &ConnectionInfo),
    b: ((u128, u64), &ConnectionInfo),
) -> Ordering {
    a.0.cmp(&b.0).then_with(|| strategy.compare(a.1, b.1))
}

/// The k-th best (key, info) of the held results and the fresh
/// candidates together, in [`key_order`]; `None` when they number at
/// most k, so that every one of them enters.
fn kth_best(
    held: &[RankedConnection],
    fresh: &[Keyed],
    k: usize,
    strategy: RankStrategy,
) -> Option<((u128, u64), ConnectionInfo)> {
    if held.len() + fresh.len() <= k {
        return None;
    }
    let mut all: Vec<((u128, u64), &ConnectionInfo)> = held
        .iter()
        .map(|r| (strategy.sort_key(&r.info), &r.info))
        .chain(fresh.iter().map(|c| (c.key, &c.info)))
        .collect();
    let (_, &mut (key, info), _) =
        all.select_nth_unstable_by(k - 1, |a, b| key_order(strategy, *a, *b));
    Some((key, info.clone()))
}

/// A running k-th best, in [`key_order`], of the held results and of
/// a level's candidates as they are kept. Offers collect in a pool;
/// once it holds k (the first time) or 2k entries, a selection keeps
/// the k best and the worst of them becomes the k-th — amortized O(1)
/// per offer, whatever k is. It is the k-th of a subset of the offers,
/// so it only improves as offers come in and is never better than the
/// exact k-th of them all: whatever is strictly worse than it, at least
/// k offers beat. Entries name their info by position: `i` below
/// `held.len()` is `held[i]`, the rest index the kept candidates.
struct RunningKth {
    k: usize,
    pool: Vec<((u128, u64), usize)>,
    kth: Option<((u128, u64), usize)>,
}

impl RunningKth {
    /// A running k-th seeded with the held results.
    fn new(held: &[RankedConnection], k: usize, strategy: RankStrategy) -> Self {
        let mut running = RunningKth { k, pool: Vec::new(), kth: None };
        for (i, r) in held.iter().enumerate() {
            running.offer(strategy.sort_key(&r.info), i, strategy, held, &[]);
        }
        running
    }

    /// Offer entry `i` with packed key `key`.
    fn offer(
        &mut self,
        key: (u128, u64),
        i: usize,
        strategy: RankStrategy,
        held: &[RankedConnection],
        kept: &[Keyed<usize>],
    ) {
        self.pool.push((key, i));
        let limit = if self.kth.is_some() { self.k.saturating_mul(2) } else { self.k };
        if self.pool.len() >= limit {
            let k = self.k;
            let info = |i: usize| info_at(held, kept, i);
            self.pool.select_nth_unstable_by(k - 1, |a, b| {
                key_order(strategy, (a.0, info(a.1)), (b.0, info(b.1)))
            });
            self.pool.truncate(k);
            self.kth = Some(self.pool[k - 1]);
        }
    }

    /// Whether the running k-th is strictly better than `(key, info)`.
    fn beats(
        &self,
        key: (u128, u64),
        info: &ConnectionInfo,
        strategy: RankStrategy,
        held: &[RankedConnection],
        kept: &[Keyed<usize>],
    ) -> bool {
        self.kth.is_some_and(|(kth, i)| {
            key_order(strategy, (key, info), (kth, info_at(held, kept, i)))
                == Ordering::Greater
        })
    }
}

/// The info of [`RunningKth`] entry `i`.
fn info_at<'a>(
    held: &'a [RankedConnection],
    kept: &'a [Keyed<usize>],
    i: usize,
) -> &'a ConnectionInfo {
    match i.checked_sub(held.len()) {
        None => &held[i].info,
        Some(j) => &kept[j].info,
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
/// [`EngineWriter::snapshot`](crate::EngineWriter::snapshot), and
/// hold the `Arc` for as long as a consistent view is needed — the
/// writer publishing newer generations never invalidates it.
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
    /// engine, +1 per published apply/compact. Distinct from the
    /// database version (which also counts rolled-back batches).
    pub(crate) generation: u64,
    /// Whether searches on this snapshot probe the process-global
    /// [`failpoints`](crate::failpoints) registry. Atomic so
    /// `enable_failpoints` on the façade reaches the already-published
    /// snapshot; fault-injection instrumentation only, never semantic
    /// state.
    pub(crate) failpoints: AtomicBool,
    /// Pool of reusable per-search scratch states (see
    /// [`SearchScratch`]). Searches — and their parallel worker chunks —
    /// pop one and push it back, so a warm snapshot re-allocates nothing
    /// on the enumeration hot path at any thread count; the pool is
    /// bounded to keep rarely-used concurrency from pinning memory.
    /// This mutex guards pooled buffers, not snapshot state: it is held
    /// for a pop/push only, never across any search work, and an empty
    /// pool just means a fresh buffer — readers can never block on the
    /// writer through it.
    #[allow(clippy::vec_box)]
    // moving boxes keeps checkout O(1), not a memcpy of the struct
    pub(crate) scratch_pool: Mutex<Vec<Box<SearchScratch>>>,
}

impl EngineSnapshot {
    /// This snapshot's publication ordinal (0 for a freshly built
    /// engine, +1 per published apply/compact).
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

    /// The writer's next build buffer: `index` and `dg` as given, the
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

    /// Compute metrics, rendering and explanation for one connection,
    /// reusing the per-worker scratch buffers and caches.
    fn rank_one(
        &self,
        connection: Connection,
        ctx: &RankContext<'_>,
        scratch: &mut RankScratch,
    ) -> RankedConnection {
        let info = self.info_with(
            &connection,
            &mut scratch.csteps,
            ctx.text_score(&connection),
            ctx.compute_instance,
            ctx.max_witness_length,
            &mut scratch.witness,
        );
        let rendering = connection.render_cached(
            &self.dg,
            &*self.aliases,
            &ctx.markers,
            &mut scratch.labels,
        );
        let explanation = self.explain_from_steps(&connection, ctx, scratch);
        RankedConnection { connection, info, rendering, explanation }
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

    /// The per-connection metric/rendering stage over a batch of
    /// connections, fanned out over `threads` scoped worker threads in
    /// contiguous chunks and merged back in order — each connection's
    /// result is independent of the others (caches only affect cost), so
    /// the output is identical to the sequential pass. The sequential
    /// path (and the head chunk) reuse the pooled `scratch`; extra
    /// workers build their own.
    ///
    /// Parallel chunks are **fault-isolated**: a panicking chunk
    /// (including the `worker.panic` failpoint) drops only its own
    /// contribution, sets `faulted`, and leaves every other chunk's
    /// results — and the engine — intact. The sequential path has
    /// nothing to isolate; its panics propagate.
    fn rank_stage(
        &self,
        conns: Vec<Connection>,
        ctx: &RankContext<'_>,
        threads: usize,
        scratch: &mut RankScratch,
        faulted: &mut bool,
    ) -> Vec<RankedConnection> {
        let threads = threads.clamp(1, conns.len().max(1));
        // Spawning threads costs more than ranking a handful of
        // connections; small batches stay sequential (the result is the
        // same either way).
        if threads == 1 || conns.len() < 4 * threads {
            return conns.into_iter().map(|c| self.rank_one(c, ctx, scratch)).collect();
        }
        let chunk = conns.len().div_ceil(threads);
        let mut parts: Vec<Vec<Connection>> = Vec::with_capacity(threads);
        let mut rest = conns;
        while rest.len() > chunk {
            let tail = rest.split_off(chunk);
            parts.push(rest);
            rest = tail;
        }
        parts.push(rest);
        let mut parts = parts.into_iter();
        // lint: allow(unwrap, the loop above always pushes at least one chunk)
        let head_part = parts.next().expect("at least one chunk");
        let mut out = Vec::new();
        thread::scope(|s| {
            let handles: Vec<_> = parts
                .map(|part| {
                    s.spawn(move || {
                        panic::catch_unwind(AssertUnwindSafe(|| {
                            if self.failpoints() && failpoints::triggered("worker.panic") {
                                panic!("worker.panic failpoint: metric worker chunk");
                            }
                            // Workers check their scratch out of the
                            // snapshot pool too, so warm parallel
                            // searches reuse the head search's
                            // high-water buffers instead of allocating
                            // per chunk. A panicking worker's scratch
                            // is dropped, never re-pooled.
                            let mut worker = self.checkout_scratch();
                            worker.rank.reset(self.dg.node_count(), ctx.witness_strategy);
                            let ranked = part
                                .into_iter()
                                .map(|c| self.rank_one(c, ctx, &mut worker.rank))
                                .collect::<Vec<_>>();
                            self.return_scratch(worker);
                            ranked
                        }))
                    })
                })
                .collect();
            let head = panic::catch_unwind(AssertUnwindSafe(|| {
                head_part
                    .into_iter()
                    .map(|c| self.rank_one(c, ctx, scratch))
                    .collect::<Vec<_>>()
            }));
            match head {
                Ok(ranked) => out.extend(ranked),
                Err(_) => {
                    // The pooled scratch was abandoned mid-connection;
                    // rebuild it before it returns to the pool.
                    scratch.reset(self.dg.node_count(), ctx.witness_strategy);
                    *faulted = true;
                }
            }
            for h in handles {
                match h.join() {
                    Ok(Ok(ranked)) => out.extend(ranked),
                    _ => *faulted = true,
                }
            }
        });
        out
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
        let threads = resolved_threads(options.threads);
        // One budget state per search, shared by every worker probe.
        // Also materialized when failpoints are on, so an engine-forced
        // trip (the `banks.settle` point) has somewhere to latch; the
        // unlimited-and-unarmed case keeps probes at one branch each.
        let budget_shared = (options.budget.is_limited() || self.failpoints())
            .then(|| BudgetShared::new(&options.budget));
        let budget = budget_shared.as_ref();
        // Set when a parallel worker chunk panicked: its contribution
        // is dropped and the answer degrades to a labeled partial one.
        let mut faulted = false;
        // Minimum RDB length any connection missing after a budget cut
        // can have — the certified-prefix trim floor, sharpened per
        // algorithm below. Singles are collected from the match-set
        // intersection before any enumeration, so 1 is always sound.
        let mut trim_floor: usize = 1;
        scratch.rank.reset(self.dg.node_count(), options.witness_strategy);
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
            witness_strategy: options.witness_strategy,
        };

        let mut stats = SearchStats::default();
        let mut connections: Vec<Connection> = Vec::new();
        let mut trees: Vec<SteinerTree> = Vec::new();

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
        connections.extend(singles.into_iter().map(Connection::single));

        match options.algorithm {
            Algorithm::Paths => {
                if query.len() > 2 {
                    return Err(CoreError::InvalidQuery(format!(
                        "the Paths algorithm handles at most 2 keywords, got {} — use Banks or Discover",
                        query.len()
                    )));
                }
                // Streaming top-k: enumerate length level by length
                // level and stop once the held top k dominates every
                // unexplored level. Only sound for rankers with a
                // length-monotone bound; the returned prefix is exactly
                // the full pipeline's.
                if let Some(k) = options.k {
                    if query.len() == 2 && options.ranker.supports_streaming_topk() {
                        let (ranked, stats) = self.stream_topk_paths(
                            k,
                            match_sets,
                            options,
                            &ctx,
                            threads,
                            connections,
                            &mut scratch.enumerate,
                            &mut scratch.rank,
                            budget,
                        );
                        return Ok(SearchResults {
                            query,
                            display_keywords,
                            connections: ranked,
                            trees,
                            stats,
                        });
                    }
                }
                if query.len() == 2 {
                    let (pairs, expansions) = self.pair_enumeration(
                        &match_sets[0],
                        &match_sets[1],
                        options.max_rdb_length,
                        None,
                        threads,
                        &mut scratch.enumerate,
                        budget,
                        &mut faulted,
                    );
                    stats.expansions = expansions;
                    stats.max_length_enumerated = options.max_rdb_length;
                    connections.extend(pairs);
                }
            }
            Algorithm::Banks => {
                let banks_opts = BanksOptions {
                    k: options.k,
                    weighting: options.weighting,
                    max_weight: f64::INFINITY,
                };
                let fp = self.failpoints();
                let mut probe = BudgetProbe::new(budget);
                let mut interrupt = |n: u64| {
                    if fp && failpoints::triggered("banks.settle") {
                        // Deterministic truncation for the fault suite:
                        // force a budget trip at a settle site.
                        if let Some(b) = budget {
                            b.trip(TruncationReason::ExpansionCap);
                        }
                        return true;
                    }
                    probe.check(n)
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
                    match self.tree_to_connection(&tree, match_sets) {
                        Some(conn) if conn.rdb_length() > 0 => connections.push(conn),
                        Some(_) => {} // single nodes already collected
                        None => trees.push(tree),
                    }
                }
            }
            Algorithm::Discover => {
                let kw_sets: Vec<HashSet<NodeId>> =
                    match_sets.iter().map(|s| s.iter().copied().collect()).collect();
                // Streaming top-k: consume candidate networks one size
                // level at a time and stop once the held top k
                // dominates every larger network (2-keyword MTJNTs are
                // always path-shaped, so no tree budget interferes).
                if let Some(k) = options.k {
                    if query.len() == 2 && options.ranker.supports_streaming_topk() {
                        let (ranked, stats) = self.stream_topk_discover(
                            k,
                            &kw_sets,
                            options,
                            &ctx,
                            connections,
                            &mut scratch.rank,
                            budget,
                        );
                        return Ok(SearchResults {
                            query,
                            display_keywords,
                            connections: ranked,
                            trees,
                            stats,
                        });
                    }
                }
                let mut probe = BudgetProbe::new(budget);
                let (networks, completed_size) = enumerate_mtjnts_budgeted(
                    &self.dg,
                    &kw_sets,
                    options.max_rdb_length + 1,
                    &mut stats.expansions,
                    &mut |n| probe.check(n),
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

        // Canonical orientation + dedup.
        let mut unique = dedup_canonical(connections, &self.dg);

        // Optional MTJNT post-filter.
        if options.mtjnt_only {
            let kw_sets: Vec<HashSet<NodeId>> =
                match_sets.iter().map(|s| s.iter().copied().collect()).collect();
            unique.retain(|conn| {
                let set: BTreeSet<NodeId> = conn.nodes().iter().copied().collect();
                is_mtjnt(&self.dg, &set, &kw_sets)
            });
        }

        // Metrics, rendering, ranking — fanned out across worker threads
        // for large result sets. Witness searches for instance closeness
        // are shared across connections with equal endpoints (per
        // worker).
        let mut ranked =
            self.rank_stage(unique, &ctx, threads, &mut scratch.rank, &mut faulted);
        sort_ranked(&mut ranked, options.ranker, &self.dg);
        stats.completeness = if faulted {
            // A panicked chunk may have dropped connections of any rank
            // (including singles, in the metric stage), so no prefix
            // can be certified — the answer is best-effort, labeled.
            Completeness::Truncated { reason: TruncationReason::WorkerFault }
        } else if let Some(reason) = budget.and_then(|b| b.reason()) {
            // Certified-prefix trim: keep the head run whose items
            // provably outrank every connection the cut could have
            // missed (anything with >= trim_floor edges). Dominating
            // items always form a prefix of the sorted list. `Combined`
            // has no finite length bound (its text component is
            // unbounded), so it keeps the best-effort found-so-far set.
            if options.ranker.supports_streaming_topk() {
                let keep = ranked
                    .iter()
                    .take_while(|r| options.ranker.dominates_all_longer(&r.info, trim_floor))
                    .count();
                ranked.truncate(keep);
            }
            Completeness::Truncated { reason }
        } else {
            Completeness::Complete
        };
        // One k-budget shared across connections and trees: ranked
        // connections first, the remainder to branching answer trees.
        if let Some(k) = options.k {
            ranked.truncate(k);
            trees.truncate(k.saturating_sub(ranked.len()));
        }

        Ok(SearchResults { query, display_keywords, connections: ranked, trees, stats })
    }

    /// One streamed level of a top-k accumulator: canonical orientation
    /// with node-sequence dedup, the optional MTJNT filter, and the merge
    /// into the bounded best-k buffer (a sorted vector, since k is
    /// small). Items that fall off the buffer can never re-enter the top
    /// k (later levels only add candidates, never improve dropped ones),
    /// so streamed accumulation equals the full enumeration's ranked
    /// prefix — the equivalence the property tests pin down for both the
    /// `Paths` and `Discover` modes. The dedup set lives for one level:
    /// the connections of different levels have different node counts,
    /// so their node sequences never collide.
    ///
    /// The merge is **key first**, and does the expensive per-connection
    /// work only for connections that can still enter the top k. It is
    /// sequential: it witnesses, renders and explains few connections,
    /// and renders read the per-node label cache.
    ///
    /// 1. One pass over the level orients each connection, drops a
    ///    repeated node sequence, applies the MTJNT filter and gives the
    ///    connection its cheap info (text score, conceptual steps, ER
    ///    chain) and no witness search. Its `instance_close` is exact for
    ///    a schema-close connection and pessimistic (`Some(false)`) for a
    ///    loose one. The pass drops a connection at once when, even with
    ///    `instance_close` set optimistically (`Some(true)`), it is
    ///    strictly worse than a running k-th best ([`RunningKth`]) of the
    ///    buffer and the level so far. That running k-th is never better
    ///    than `T` below, so step 2 would drop the connection too; and k
    ///    kept candidates or held results beat it, so dropping it leaves
    ///    `T` unchanged. A level of a million paths therefore keeps only
    ///    its few contenders.
    /// 2. `T` is the k-th best of the buffer and the kept connections by
    ///    packed key, then the full comparison. A kept connection
    ///    strictly worse than `T` even with `instance_close` set
    ///    optimistically is dropped. This is exact: a connection's exact
    ///    position lies between its optimistic and pessimistic ones, so
    ///    at least k connections strictly beat a dropped one, whatever
    ///    their witnesses say. (When the buffer and the level hold at
    ///    most k connections together, steps 1, 2 and 4 drop nothing by
    ///    key.)
    /// 3. Under [`RankStrategy::InstanceCloseFirst`], whose order reads
    ///    `instance_close`, the loose connections left get their
    ///    witness. No other ranker reads it.
    /// 4. With every order now exact, the connections strictly worse
    ///    than the exact k-th are dropped. The rest tie with or beat it,
    ///    and are rendered: the rendering is the final tie-break, and a
    ///    tie group at the k-th can be large.
    /// 5. The rendered connections merge with the buffer in the full
    ///    order, the buffer keeps k, and only its new entrants get their
    ///    witness (when not yet done) and explanation.
    ///
    /// The buffer ends exactly as if every fresh connection had been
    /// ranked in full, merged and cut to k.
    #[allow(clippy::too_many_arguments)]
    fn absorb_level(
        &self,
        acc: &mut Vec<RankedConnection>,
        mut conns: Vec<Connection>,
        mtjnt_sets: Option<&[HashSet<NodeId>]>,
        ctx: &RankContext<'_>,
        ranker: RankStrategy,
        k: usize,
        scratch: &mut RankScratch,
    ) {
        // Step 1. The connections stay in place while the dedup set
        // borrows their node sequences; `kept` names each survivor by its
        // position in the level.
        let mut kept: Vec<Keyed<usize>> = Vec::new();
        {
            let held: &[RankedConnection] = acc;
            let mut seen: HashSet<&[NodeId], std::hash::BuildHasherDefault<Fnv1a>> =
                HashSet::with_capacity_and_hasher(conns.len(), Default::default());
            // Nothing can fall out while the buffer and the level fit in
            // k together.
            let mut running =
                (held.len() + conns.len() > k).then(|| RunningKth::new(held, k, ranker));
            for (at, slot) in conns.iter_mut().enumerate() {
                canonical_orient(slot, &self.dg);
                let connection: &Connection = slot;
                if !seen.insert(connection.nodes()) {
                    continue;
                }
                if let Some(kw) = mtjnt_sets {
                    let set: BTreeSet<NodeId> = connection.nodes().iter().copied().collect();
                    if !is_mtjnt(&self.dg, &set, kw) {
                        continue;
                    }
                }
                let mut info = self.info_with(
                    connection,
                    &mut scratch.csteps,
                    ctx.text_score(connection),
                    false,
                    ctx.max_witness_length,
                    &mut scratch.witness,
                );
                let close = info.closeness == Closeness::Close;
                info.instance_close = ctx.compute_instance.then_some(close);
                let witnessed = close || !ctx.compute_instance;
                let key = ranker.sort_key(&info);
                if let Some(running) = &running {
                    let pessimistic = info.instance_close;
                    if !witnessed {
                        info.instance_close = Some(true);
                    }
                    let optimistic = ranker.sort_key(&info);
                    let dropped = running.beats(optimistic, &info, ranker, held, &kept);
                    info.instance_close = pessimistic;
                    if dropped {
                        continue;
                    }
                }
                kept.push(Keyed { key, connection: at, info, witnessed });
                if let Some(running) = &mut running {
                    running.offer(key, held.len() + kept.len() - 1, ranker, held, &kept);
                }
            }
        }
        let mut level = conns.into_iter().enumerate();
        let mut cands: Vec<Keyed> = kept
            .into_iter()
            .filter_map(|c| {
                let (_, connection) = level.find(|&(i, _)| i == c.connection)?;
                Some(Keyed { key: c.key, connection, info: c.info, witnessed: c.witnessed })
            })
            .collect();

        // Step 2.
        if let Some((t_key, t_info)) = kth_best(acc, &cands, k, ranker) {
            cands.retain_mut(|c| {
                let pessimistic = c.info.instance_close;
                if !c.witnessed {
                    c.info.instance_close = Some(true);
                }
                let optimistic = (ranker.sort_key(&c.info), &c.info);
                let keep =
                    key_order(ranker, optimistic, (t_key, &t_info)) != Ordering::Greater;
                c.info.instance_close = pessimistic;
                keep
            });
        }
        if ranker == RankStrategy::InstanceCloseFirst {
            for c in cands.iter_mut().filter(|c| !c.witnessed) {
                c.info.instance_close = Some(self.witness_close(&c.connection, ctx, scratch));
                c.key = ranker.sort_key(&c.info);
                c.witnessed = true;
            }
        }
        if let Some((kth_key, kth_info)) = kth_best(acc, &cands, k, ranker) {
            cands.retain(|c| {
                key_order(ranker, (c.key, &c.info), (kth_key, &kth_info)) != Ordering::Greater
            });
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
        sort_keyed(&mut merged, ranker, &self.dg);
        merged.truncate(k);
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

    /// Streaming top-k for the two-keyword `Paths` pipeline: per length
    /// level, fan the per-source exact-length enumeration out over the
    /// worker threads, absorb the level into the bounded best-k buffer
    /// ([`EngineSnapshot::absorb_level`]), and stop as soon as the k-th
    /// best connection dominates every unexplored level.
    #[allow(clippy::too_many_arguments)]
    fn stream_topk_paths(
        &self,
        k: usize,
        match_sets: &[Vec<NodeId>],
        options: &SearchOptions,
        ctx: &RankContext<'_>,
        threads: usize,
        singles: Vec<Connection>,
        enumerate: &mut EnumScratch,
        rank_scratch: &mut RankScratch,
        budget: Option<&BudgetShared>,
    ) -> (Vec<RankedConnection>, SearchStats) {
        if k == 0 {
            return (Vec::new(), SearchStats::default());
        }
        let (set_a, set_b) = (&match_sets[0], &match_sets[1]);
        let kw_sets: Option<Vec<HashSet<NodeId>>> = options
            .mtjnt_only
            .then(|| match_sets.iter().map(|s| s.iter().copied().collect()).collect());

        let mut stats = SearchStats::default();
        let mut acc: Vec<RankedConnection> = Vec::new();
        let mut faulted = false;

        // Level 0: the singles.
        self.absorb_level(
            &mut acc,
            singles,
            kw_sets.as_deref(),
            ctx,
            options.ranker,
            k,
            rank_scratch,
        );
        for level in 1..=options.max_rdb_length {
            // Any connection still to come has RDB length >= level; if
            // the k-th best already beats the best conceivable such
            // connection, deeper enumeration cannot change the top k.
            if acc.len() == k && options.ranker.dominates_all_longer(&acc[k - 1].info, level)
            {
                stats.early_terminated = true;
                break;
            }
            // The target mask and distance map are seeded only once a
            // level is enumerated, and grown one hop per level: paths of
            // `level` edges read exact distances up to `level` only (the
            // DFS descends while `dist < remaining` and skips a source
            // with `dist > level`), and a farther node reads `u32::MAX`.
            if level == 1 {
                enumerate.seed_targets(self.dg.node_count(), set_b);
            }
            enumerate.bfs.grow_to(self.dg.csr(), u32::try_from(level).unwrap_or(u32::MAX));
            let (conns, expansions) = self.fan_out_connections(
                set_a,
                &enumerate.is_target,
                enumerate.bfs.distances(),
                level,
                Some(level),
                threads,
                &mut enumerate.traversal,
                budget,
                &mut faulted,
            );
            stats.expansions += expansions;
            if !faulted {
                if let Some(reason) = budget.and_then(|b| b.reason()) {
                    // The budget cut this level mid-enumeration:
                    // discard the partial level and certify the held
                    // prefix against it — every connection the cut
                    // could have missed has >= `level` edges (all
                    // shallower levels were absorbed in full).
                    let keep = acc
                        .iter()
                        .take_while(|r| options.ranker.dominates_all_longer(&r.info, level))
                        .count();
                    acc.truncate(keep);
                    stats.completeness = Completeness::Truncated { reason };
                    return (acc, stats);
                }
            }
            stats.max_length_enumerated = level;
            self.absorb_level(
                &mut acc,
                conns,
                kw_sets.as_deref(),
                ctx,
                options.ranker,
                k,
                rank_scratch,
            );
            if faulted {
                // A worker chunk panicked somewhere in this level's
                // enumeration; its contribution is gone, so no prefix
                // can be certified.
                stats.completeness =
                    Completeness::Truncated { reason: TruncationReason::WorkerFault };
                return (acc, stats);
            }
        }
        (acc, stats)
    }

    /// Streaming top-k for the two-keyword `Discover` pipeline: MTJNTs
    /// are consumed one **size level** at a time from
    /// [`JoiningNetworkLevels`], converted to
    /// connections (two-keyword MTJNTs are always path-shaped: every
    /// leaf of a minimal network must carry a keyword) and absorbed
    /// into the bounded best-k buffer; enumeration cuts as soon as the
    /// held k-th best dominates every larger network — a network of
    /// `s` tuples yields a connection of `s - 1` edges, so size is a
    /// rank lower bound under any length-monotone strategy. The prefix
    /// equals the batch pipeline's (property-tested), at strictly
    /// fewer network materializations whenever the cut fires.
    #[allow(clippy::too_many_arguments)]
    fn stream_topk_discover(
        &self,
        k: usize,
        kw_sets: &[HashSet<NodeId>],
        options: &SearchOptions,
        ctx: &RankContext<'_>,
        singles: Vec<Connection>,
        rank_scratch: &mut RankScratch,
        budget: Option<&BudgetShared>,
    ) -> (Vec<RankedConnection>, SearchStats) {
        if k == 0 {
            return (Vec::new(), SearchStats::default());
        }
        let max_tuples = options.max_rdb_length + 1;
        let mut levels = JoiningNetworkLevels::new(&self.dg, kw_sets, max_tuples);
        let mut stats = SearchStats::default();
        let mut acc: Vec<RankedConnection> = Vec::new();
        let mut probe = BudgetProbe::new(budget);
        // Edge count of the last fully absorbed size level — the
        // certified floor if the budget cuts growth short.
        let mut completed_edges = 0usize;

        // Size level 1 *is* the singles set (tuples matching every
        // keyword), already collected by the caller; consume and drop
        // the duplicate level.
        self.absorb_level(&mut acc, singles, None, ctx, options.ranker, k, rank_scratch);
        let _ = levels.next_level_budgeted(&mut |n| probe.check(n));
        while levels.next_size() <= max_tuples {
            let level_edges = levels.next_size() - 1;
            // Every network still to come has >= level_edges edges; once
            // the held k-th best dominates that whole tail, deeper
            // growth cannot change the top k.
            if acc.len() == k
                && options.ranker.dominates_all_longer(&acc[k - 1].info, level_edges)
            {
                stats.early_terminated = true;
                break;
            }
            let Some(mtjnts) = levels.next_level_budgeted(&mut |n| probe.check(n)) else {
                break;
            };
            stats.max_length_enumerated = level_edges;
            let conns: Vec<Connection> =
                mtjnts.iter().filter_map(|n| self.network_to_connection(n)).collect();
            self.absorb_level(&mut acc, conns, None, ctx, options.ranker, k, rank_scratch);
            completed_edges = level_edges;
        }
        stats.expansions = levels.expansions();
        if levels.truncated() {
            // The generator dropped a partial level: everything missing
            // has more than `completed_edges` edges, so the held prefix
            // is certified against `completed_edges + 1`.
            let reason =
                budget.and_then(|b| b.reason()).unwrap_or(TruncationReason::ExpansionCap);
            let floor = completed_edges + 1;
            let keep = acc
                .iter()
                .take_while(|r| options.ranker.dominates_all_longer(&r.info, floor))
                .count();
            acc.truncate(keep);
            stats.completeness = Completeness::Truncated { reason };
        }
        (acc, stats)
    }

    /// All simple-path connections between two keyword match sets, by
    /// distance-pruned multi-target enumeration: one **bounded** BFS
    /// distance map from the target set (capped at the length budget —
    /// anything farther can never complete a path), then one pruned DFS
    /// per **source** (instead of one unpruned DFS per (source, target)
    /// pair; the property suite checks the two agree). Runs on a pooled
    /// scratch: warm calls perform no allocations in the enumeration
    /// kernel beyond the returned connections themselves.
    pub fn pair_connections(
        &self,
        set_a: &[NodeId],
        set_b: &[NodeId],
        max_rdb: usize,
    ) -> Vec<Connection> {
        self.pair_connections_threaded(set_a, set_b, max_rdb, 1)
    }

    /// [`EngineSnapshot::pair_connections`] with the independent
    /// per-source DFS runs fanned out over `threads` scoped worker
    /// threads (contiguous source chunks, merged back in source order).
    /// Output is byte-identical to the sequential call for every thread
    /// count.
    pub fn pair_connections_threaded(
        &self,
        set_a: &[NodeId],
        set_b: &[NodeId],
        max_rdb: usize,
        threads: usize,
    ) -> Vec<Connection> {
        let mut scratch = self.checkout_scratch();
        let mut faulted = false;
        let out = self
            .pair_enumeration(
                set_a,
                set_b,
                max_rdb,
                None,
                threads,
                &mut scratch.enumerate,
                None,
                &mut faulted,
            )
            .0;
        self.return_scratch(scratch);
        out
    }

    /// Build the target mask and the shared BFS distance map for `set_b`
    /// and run the (optionally exact-length) fan-out from `set_a`. The
    /// map is grown to `max_rdb` hops at once: the pruned DFS can never
    /// use a larger distance, so farther nodes read as unreachable and
    /// the traversal result is identical to the full map's while the
    /// BFS only touches the budget neighborhood.
    #[allow(clippy::too_many_arguments)]
    fn pair_enumeration(
        &self,
        set_a: &[NodeId],
        set_b: &[NodeId],
        max_rdb: usize,
        exact: Option<usize>,
        threads: usize,
        enumerate: &mut EnumScratch,
        budget: Option<&BudgetShared>,
        faulted: &mut bool,
    ) -> (Vec<Connection>, u64) {
        enumerate.seed_targets(self.dg.node_count(), set_b);
        // Saturate rather than truncate: a pathological `usize` budget
        // must mean "unbounded", not "mod 2^32".
        enumerate.bfs.grow_to(self.dg.csr(), u32::try_from(max_rdb).unwrap_or(u32::MAX));
        self.fan_out_connections(
            set_a,
            &enumerate.is_target,
            enumerate.bfs.distances(),
            max_rdb,
            exact,
            threads,
            &mut enumerate.traversal,
            budget,
            faulted,
        )
    }

    /// One distance-pruned DFS per source over an immutable CSR + shared
    /// distance map — embarrassingly parallel, so sources are split into
    /// contiguous chunks across `threads` scoped worker threads and the
    /// per-chunk results concatenated back in source order. The merge is
    /// deterministic: each source's paths are canonically sorted inside
    /// its chunk, so the output is byte-identical to the sequential
    /// loop's. The sequential path reuses the pooled DFS stacks; worker
    /// threads own fresh ones (scratch only affects cost, not output).
    /// Parallel chunks are fault-isolated ([`EngineSnapshot::rank_stage`]
    /// documents the policy): a panicking chunk drops its own sources'
    /// paths, sets `faulted`, and leaves the rest intact. The
    /// sequential path propagates panics (nothing to isolate; the
    /// checked-out scratch is simply dropped, never re-pooled).
    #[allow(clippy::too_many_arguments)]
    fn fan_out_connections(
        &self,
        sources: &[NodeId],
        is_target: &[bool],
        dist: &[u32],
        max_edges: usize,
        exact: Option<usize>,
        threads: usize,
        traversal: &mut TraversalScratch,
        budget: Option<&BudgetShared>,
        faulted: &mut bool,
    ) -> (Vec<Connection>, u64) {
        let threads = threads.clamp(1, sources.len().max(1));
        if threads == 1 {
            return self.enumerate_chunk(
                sources, is_target, dist, max_edges, exact, traversal, budget,
            );
        }
        let chunk = sources.len().div_ceil(threads);
        let mut chunks = sources.chunks(chunk);
        let head = chunks.next().unwrap_or(&[]);
        let mut out = Vec::new();
        let mut expansions = 0u64;
        thread::scope(|s| {
            let handles: Vec<_> = chunks
                .map(|c| {
                    s.spawn(move || {
                        panic::catch_unwind(AssertUnwindSafe(|| {
                            if self.failpoints() && failpoints::triggered("worker.panic") {
                                panic!("worker.panic failpoint: enumeration worker chunk");
                            }
                            // Pooled like the head's scratch (see
                            // `rank_stage`): pooled DFS stacks keep
                            // their cleared-bitset invariant on normal
                            // return; a panicking worker's scratch is
                            // dropped, never re-pooled.
                            let mut worker = self.checkout_scratch();
                            let result = self.enumerate_chunk(
                                c,
                                is_target,
                                dist,
                                max_edges,
                                exact,
                                &mut worker.enumerate.traversal,
                                budget,
                            );
                            self.return_scratch(worker);
                            result
                        }))
                    })
                })
                .collect();
            let head_result = panic::catch_unwind(AssertUnwindSafe(|| {
                self.enumerate_chunk(
                    head, is_target, dist, max_edges, exact, traversal, budget,
                )
            }));
            match head_result {
                Ok((conns, exp)) => {
                    out.extend(conns);
                    expansions += exp;
                }
                Err(_) => {
                    // The pooled DFS scratch was abandoned mid-descent;
                    // restore its cleared-bitset invariant before it
                    // returns to the pool.
                    traversal.reset();
                    *faulted = true;
                }
            }
            for h in handles {
                match h.join() {
                    Ok(Ok((conns, exp))) => {
                        out.extend(conns);
                        expansions += exp;
                    }
                    _ => *faulted = true,
                }
            }
        });
        (out, expansions)
    }

    /// The sequential enumeration kernel: one pruned DFS per source in
    /// `sources`, collecting every target-ending path (or, with
    /// `exact = Some(l)`, only paths of exactly `l` edges — the
    /// streaming top-k level shape), canonically sorted per source and
    /// converted to connections against the precomputed edge-cardinality
    /// table. Returns the connections and the DFS expansion count.
    #[allow(clippy::too_many_arguments)]
    fn enumerate_chunk(
        &self,
        sources: &[NodeId],
        is_target: &[bool],
        dist: &[u32],
        max_edges: usize,
        exact: Option<usize>,
        traversal: &mut TraversalScratch,
        budget: Option<&BudgetShared>,
    ) -> (Vec<Connection>, u64) {
        let csr = self.dg.csr();
        let mut out: Vec<Connection> = Vec::new();
        let mut expansions = 0u64;
        let mut probe = BudgetProbe::new(budget);
        for &a in sources {
            let start = out.len();
            let _ = for_each_path_to_targets_budgeted(
                csr,
                a,
                is_target,
                dist,
                max_edges,
                &mut expansions,
                traversal,
                &mut |n| probe.check(n),
                |nodes, edges| {
                    if exact.is_none_or(|l| edges.len() == l) {
                        out.push(Connection::from_slices(
                            nodes,
                            edges,
                            &self.dg,
                            &self.er_schema,
                        ));
                    }
                    ControlFlow::Continue(())
                },
            );
            // Canonical order per source, so downstream node-sequence
            // dedup picks the same representative among parallel-edge
            // variants as the per-pair enumeration.
            out[start..].sort_by(Connection::canonical_cmp);
        }
        (out, expansions)
    }

    /// Convert a path-shaped Steiner tree into a connection; `None` if
    /// it branches.
    fn tree_to_connection(
        &self,
        tree: &SteinerTree,
        match_sets: &[Vec<NodeId>],
    ) -> Option<Connection> {
        if tree.edges.is_empty() {
            return Some(Connection::single(tree.root));
        }
        // Endpoints: degree-1 nodes. Prefer starting from a node in the
        // first keyword set for stable orientation.
        let mut degree: HashMap<NodeId, usize> = HashMap::new();
        for &(_, a, b) in &tree.edges {
            *degree.entry(a).or_insert(0) += 1;
            *degree.entry(b).or_insert(0) += 1;
        }
        // Endpoint choice is deterministic in graph *content*: sort by
        // tuple id (HashMap iteration order and node numbering both vary
        // across patched vs rebuilt engines).
        let mut endpoints: Vec<NodeId> =
            degree.iter().filter(|(_, &d)| d == 1).map(|(&n, _)| n).collect();
        endpoints.sort_by_key(|&n| self.dg.tuple_of(n));
        let first_set: HashSet<NodeId> =
            match_sets.first().map(|s| s.iter().copied().collect()).unwrap_or_default();
        let start = endpoints
            .iter()
            .copied()
            .find(|n| first_set.contains(n))
            .or_else(|| endpoints.first().copied())?;
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
