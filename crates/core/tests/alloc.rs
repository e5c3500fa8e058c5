//! The allocation-free search epoch, pinned with a counting global
//! allocator: repeated identical searches on a **warm** engine perform
//! zero allocations in the enumeration hot path and leave zero net
//! heap growth behind.
//!
//! Kept as a single `#[test]` so no sibling test thread pollutes the
//! global counters while a measurement window is open. The harness's
//! own thread is not counted either (see [`counted`]).

use cla_core::{
    banks_search_budgeted, BanksOptions, BanksScratch, SearchEngine, SearchOptions,
    WitnessStrategy,
};
use cla_datagen::{generate_synthetic, SyntheticConfig};
use cla_graph::NodeId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// System allocator wrapped with allocation / net-byte counters.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static NET_BYTES: AtomicI64 = AtomicI64::new(0);
/// The most `NET_BYTES` has read since [`reset_peak`].
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Set by the first thread that allocates: the test harness's main
/// thread, which runs before it spawns the thread the test runs on.
static HARNESS_CLAIMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread is the harness thread, decided at its first
    /// allocation. `const`-initialized and drop-free, so reading it
    /// inside the allocator never allocates.
    static IS_HARNESS: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether the calling thread's allocator calls are counted: every
/// thread's but the harness's. While it waits for the test, the
/// harness thread allocates now and then, a few hundred bytes inside a
/// measurement window when the machine is busy, which is not the
/// engine's doing. The test thread and the engine's search workers
/// stay counted.
fn counted() -> bool {
    IS_HARNESS
        .try_with(|role| {
            let harness = role.get().unwrap_or_else(|| {
                let first = !HARNESS_CLAIMED.swap(true, Ordering::Relaxed);
                role.set(Some(first));
                first
            });
            !harness
        })
        .unwrap_or(true)
}

// SAFETY: defers to the system allocator; the counters are side-effect
// bookkeeping only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            grow_net(layout.size() as i64);
        }
        // SAFETY: caller upholds GlobalAlloc's contract; pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            NET_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: caller upholds GlobalAlloc's contract; pass through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            grow_net(new_size as i64 - layout.size() as i64);
        }
        // SAFETY: caller upholds GlobalAlloc's contract; pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Add `delta` to the live bytes and raise the peak to them.
fn grow_net(delta: i64) {
    let live = NET_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

/// Start a peak window at the bytes live now.
fn reset_peak() {
    PEAK_BYTES.store(net_bytes(), Ordering::Relaxed);
}

fn peak_bytes() -> i64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn net_bytes() -> i64 {
    NET_BYTES.load(Ordering::Relaxed)
}

fn bench_shape() -> SyntheticConfig {
    SyntheticConfig {
        departments: 8,
        employees_per_department: 8,
        projects_per_department: 3,
        works_on_per_employee: 2,
        dependent_probability: 0.3,
        xml_selectivity: 0.15,
        smith_selectivity: 0.1,
        alice_selectivity: 0.25,
        project_skew: 1.0,
        seed: 7,
    }
}

#[test]
fn warm_engine_reuses_buffers_instead_of_allocating() {
    // The measuring thread itself must be counted, or every window
    // below would trivially read zero.
    let before = allocations();
    drop(std::hint::black_box(Box::new(0u64)));
    assert_eq!(allocations() - before, 1, "the test thread's allocations are counted");

    let s = generate_synthetic(&bench_shape());
    let mut engine =
        SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases);
    let dg = engine.data_graph();
    let sets: Vec<Vec<NodeId>> = ["xml", "smith"]
        .iter()
        .map(|kw| {
            engine
                .index()
                .matching_tuples(kw)
                .into_iter()
                .filter_map(|t| dg.node_of(t))
                .collect()
        })
        .collect();
    assert!(sets.iter().all(|s: &Vec<NodeId>| !s.is_empty()));

    // ── Part 1: the enumeration kernel itself is allocation-free on a
    // warm engine. With a zero-edge budget no connection can
    // materialize, so the only allocations a cold call performs are the
    // scratch buffers — and a warm call must perform none at all: the
    // target mask, the bounded BFS map + queue, and the DFS stacks all
    // come from the pooled scratch.
    let _ = engine.pair_connections(&sets[0], &sets[1], 0);
    let _ = engine.pair_connections(&sets[0], &sets[1], 0);
    let before = allocations();
    for _ in 0..32 {
        let out = engine.pair_connections(&sets[0], &sets[1], 0);
        assert!(out.is_empty());
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm zero-result enumeration must not allocate at all"
    );

    // With a real budget the only allocations are the returned
    // connections themselves (plus the vector collecting them): the
    // kernel's traversal state is still pooled. Pin that the warm
    // per-call allocation count is stable — growth would mean scratch
    // buffers are being re-created per call.
    let _ = engine.pair_connections(&sets[0], &sets[1], 3);
    let _ = engine.pair_connections(&sets[0], &sets[1], 3);
    let mut counts = Vec::new();
    for _ in 0..8 {
        let before = allocations();
        let out = engine.pair_connections(&sets[0], &sets[1], 3);
        assert!(!out.is_empty());
        drop(out);
        counts.push(allocations() - before);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "warm enumeration must allocate a constant amount (results only): {counts:?}"
    );

    // ── Part 2: zero steady-state heap growth across repeated
    // identical full searches — nothing inside the engine (scratch
    // pool, caches, memoization) may keep growing query over query.
    // Covers all three algorithms, streaming and batch.
    use cla_core::Algorithm;
    for (algorithm, k) in [
        (Algorithm::Paths, Some(5)),
        (Algorithm::Paths, None),
        (Algorithm::Banks, Some(5)),
        (Algorithm::Discover, Some(5)),
    ] {
        let opts = SearchOptions {
            algorithm,
            k,
            max_rdb_length: 3,
            threads: 1,
            witness_strategy: WitnessStrategy::BoundedBfs,
            ..Default::default()
        };
        // Warm every lazily grown buffer (scratch pool, hash-map
        // capacities, heap high-water marks).
        for _ in 0..4 {
            let _ = engine.search("xml smith", &opts).unwrap();
        }
        let baseline = net_bytes();
        for _ in 0..64 {
            let results = engine.search("xml smith", &opts).unwrap();
            assert!(!results.is_empty());
        }
        let growth = net_bytes() - baseline;
        assert_eq!(
            growth, 0,
            "{algorithm:?} k={k:?}: steady-state searches must not grow the heap"
        );
    }

    // ── Part 3: the same steady state holds under concurrency — with
    // `threads > 1` (worker scratches checked out of the snapshot's
    // pool, not re-created per call) and with **two live generations**
    // (a reader pinned to generation 0 while the writer published
    // generation 1). Thread spawning itself allocates, so the pins are
    // zero *net* heap growth plus a constant warm per-call allocation
    // count — growth in either would mean per-call buffer re-creation
    // or a generation leaking memory query over query.
    let pinned = engine.snapshots().latest();
    assert_eq!(pinned.generation(), 0);
    let emp = engine.db().catalog().relation_id("EMPLOYEE").unwrap();
    engine
        .writer_mut()
        .insert(emp, vec!["ez1".into(), "Smith".into(), "Ada".into(), "d1".into()])
        .unwrap();
    let _ = engine.apply().unwrap();
    let latest = engine.snapshots().latest();
    assert_eq!(latest.generation(), 1);

    let opts = SearchOptions {
        k: Some(5),
        max_rdb_length: 3,
        threads: 2,
        witness_strategy: WitnessStrategy::BoundedBfs,
        ..Default::default()
    };
    // Warm both generations' pools and high-water marks.
    for _ in 0..4 {
        let _ = pinned.search("xml smith", &opts).unwrap();
        let _ = latest.search("xml smith", &opts).unwrap();
    }
    // Preallocated so the bookkeeping itself stays out of the
    // measurement window.
    let mut counts: Vec<u64> = Vec::with_capacity(64);
    let baseline = net_bytes();
    for _ in 0..64 {
        let before = allocations();
        let a = pinned.search("xml smith", &opts).unwrap();
        let b = latest.search("xml smith", &opts).unwrap();
        assert!(!a.is_empty() && !b.is_empty());
        drop((a, b));
        counts.push(allocations() - before);
    }
    assert_eq!(
        net_bytes() - baseline,
        0,
        "two live generations searched with threads=2 must not grow the heap"
    );
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "warm threaded searches must allocate a constant amount per call: {counts:?}"
    );

    // ── Part 4: top-k BANKS allocates per answer, not per candidate
    // root. A completed root's tree is assembled in scratch buffers, and
    // only a tree that can still enter the top k is materialized, so a
    // warm call makes fewer allocations than it completes roots.
    let dg = engine.data_graph();
    let sets: Vec<Vec<NodeId>> = ["xml", "smith", "alice"]
        .iter()
        .map(|kw| {
            engine
                .index()
                .matching_tuples(kw)
                .into_iter()
                .filter_map(|t| dg.node_of(t))
                .collect()
        })
        .collect();
    let opts = BanksOptions { k: Some(5), ..Default::default() };
    let mut scratch = BanksScratch::new();
    let _ = banks_search_budgeted(dg, &sets, &opts, &mut scratch, &mut |_| false);
    let before = allocations();
    let (trees, work, _) =
        banks_search_budgeted(dg, &sets, &opts, &mut scratch, &mut |_| false);
    let made = allocations() - before;
    assert_eq!(trees.len(), 5);
    assert!(
        made < work.candidates,
        "warm top-5 BANKS made {made} allocations for {} completed roots",
        work.candidates
    );

    // ── Part 5: ties past the k-th weight are not materialized. Every
    // employee joins its department at weight 1, so dozens of trees tie
    // the k-th weight; the held top k keeps the k best by the final
    // order `(weight, root tuple)`, and a tie enters only when its root
    // tuple sorts first. A warm call then allocates the k trees (three
    // vectors each) and the returned vector, a bound in k alone.
    let nodes_of = |relation: &str| -> Vec<NodeId> {
        let rel = engine.db().catalog().relation_id(relation).unwrap();
        dg.graph().nodes().filter(|&n| dg.tuple_of(n).relation == rel).collect()
    };
    let sets = vec![nodes_of("DEPARTMENT"), nodes_of("EMPLOYEE")];
    let k = 3;
    let all = banks_search_budgeted(
        dg,
        &sets,
        &BanksOptions { k: None, ..Default::default() },
        &mut BanksScratch::new(),
        &mut |_| false,
    )
    .0;
    let kth = all[k - 1].weight;
    let ties = all.iter().filter(|t| t.weight == kth).count();
    assert!(ties > 4 * k, "{ties} trees tie the k-th weight {kth}");
    let opts = BanksOptions { k: Some(k), ..Default::default() };
    let _ = banks_search_budgeted(dg, &sets, &opts, &mut scratch, &mut |_| false);
    let before = allocations();
    let (trees, _, _) = banks_search_budgeted(dg, &sets, &opts, &mut scratch, &mut |_| false);
    let made = allocations() - before;
    assert_eq!(trees, all[..k]);
    assert!(
        made <= 4 * k as u64,
        "warm top-{k} BANKS with {ties} ties at the k-th weight made {made} allocations"
    );

    // ── Part 6: search setup allocates nothing per matched tuple. A warm
    // top-10 BANKS search through `EngineSnapshot::search` matches about
    // eight times as many tuples at dept64 as at dept8, yet may make only
    // a few more allocations (match lists growing by doubling): markers
    // are read on demand, text scores sit in a dense pooled array, and
    // the singles come from the sorted match lists.
    let warm_search_allocations = |departments: usize| {
        let s = generate_synthetic(&SyntheticConfig { departments, ..bench_shape() });
        let engine =
            SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases);
        let snapshot = engine.snapshots().latest();
        let opts = SearchOptions {
            algorithm: Algorithm::Banks,
            k: Some(10),
            threads: 1,
            ..Default::default()
        };
        for _ in 0..3 {
            let _ = snapshot.search("xml smith alice", &opts).unwrap();
        }
        let before = allocations();
        let results = snapshot.search("xml smith alice", &opts).unwrap();
        let made = allocations() - before;
        assert!(!results.is_empty());
        made
    };
    let (dept8, dept64) = (warm_search_allocations(8), warm_search_allocations(64));
    assert!(
        dept64 <= dept8 + 32,
        "a warm top-10 BANKS search made {dept8} allocations at dept8 and {dept64} at dept64"
    );

    // ── Part 7: a streamed top-10 Paths search holds no level. Each
    // path is keyed as the DFS emits it and dropped unless it can still
    // enter the top 10, so the search's heap peak is set by its
    // contenders, not by how many paths its deepest level emits. The
    // head project pair "p3 p1" runs through level 4 at both scales,
    // and at dept64 that level emits many times dept8's paths; the two
    // peaks may differ by at most `PEAK_SLACK`.
    const PEAK_SLACK: i64 = 64 * 1024;
    let warm_search_peak = |departments: usize| {
        let s = generate_synthetic(&SyntheticConfig { departments, ..bench_shape() });
        let engine =
            SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases);
        let snapshot = engine.snapshots().latest();
        let opts = SearchOptions { k: Some(10), threads: 1, ..Default::default() };
        for _ in 0..3 {
            let _ = snapshot.search("p3 p1", &opts).unwrap();
        }
        reset_peak();
        let before = net_bytes();
        let results = snapshot.search("p3 p1", &opts).unwrap();
        let peak = peak_bytes() - before;
        assert_eq!(results.len(), 10);
        let depth = results.stats.max_length_enumerated;
        assert_eq!(
            depth, opts.max_rdb_length,
            "dept{departments}: the search must reach level 4"
        );
        drop(results);
        // How many paths the deepest level emits: the whole enumeration
        // to that depth, outside the measured window.
        let dg = engine.data_graph();
        let sets: Vec<Vec<NodeId>> = ["p3", "p1"]
            .iter()
            .map(|kw| {
                engine
                    .index()
                    .matching_tuples(kw)
                    .into_iter()
                    .filter_map(|t| dg.node_of(t))
                    .collect()
            })
            .collect();
        let paths = engine.pair_connections(&sets[0], &sets[1], depth);
        let emitted = paths.iter().filter(|c| c.rdb_length() == depth).count();
        (peak, emitted)
    };
    let ((peak8, emitted8), (peak64, emitted64)) =
        (warm_search_peak(8), warm_search_peak(64));
    assert!(
        emitted64 >= 10 * emitted8,
        "level 4 must emit many more paths at dept64 ({emitted64}) than at dept8 ({emitted8})"
    );
    assert!(
        (peak64 - peak8).abs() <= PEAK_SLACK,
        "a warm top-10 Paths search peaked at {peak8} B at dept8 ({emitted8} level-4 paths) \
         and {peak64} B at dept64 ({emitted64})"
    );
}
