//! The zero-copy cold-start allocation pin: `SearchEngine::open` plus
//! the first warm search allocate **O(1) in database size**. Sections
//! serve as borrowed views (term/alias arenas, relational rows), the
//! POD arrays decode into capacity-reserved buffers, and the tuple→node
//! index takes one array per relation, so the allocation *count* — not
//! the byte volume — must not grow with the dataset.
//!
//! Kept as a single `#[test]` in its own binary so this file's global
//! counting allocator sees no sibling-test noise while a measurement
//! window is open, and the harness's own thread is not counted (same
//! discipline as `tests/alloc.rs`).

use cla_core::{SearchEngine, SearchOptions};
use cla_datagen::{generate_synthetic, SyntheticConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Set by the first thread that allocates: the test harness's main
/// thread, which runs before it spawns the thread the test runs on.
static HARNESS_CLAIMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread is the harness thread, decided at its first
    /// allocation. `const`-initialized and drop-free, so reading it
    /// inside the allocator never allocates.
    static IS_HARNESS: Cell<Option<bool>> = const { Cell::new(None) };
}

/// Whether the calling thread's allocations are counted: every
/// thread's but the harness's, which allocates now and then while it
/// waits for the test.
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

// SAFETY: defers to the system allocator; the counter is side-effect
// bookkeeping only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: caller upholds GlobalAlloc's contract; pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: caller upholds GlobalAlloc's contract; pass through.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: caller upholds GlobalAlloc's contract; pass through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn shape(departments: usize) -> SyntheticConfig {
    SyntheticConfig {
        departments,
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
fn open_and_first_search_allocate_constant_count_in_db_size() {
    // The measuring thread itself must be counted, or the windows below
    // would trivially read zero.
    let before = allocations();
    drop(std::hint::black_box(Box::new(0u64)));
    assert_eq!(allocations() - before, 1, "the test thread's allocations are counted");

    // 8× apart in size: an O(rows) or O(terms) allocation loop anywhere
    // on the open path would separate the two counts by thousands.
    let sizes = [8usize, 64];
    let dir = std::env::temp_dir().join("cla_alloc_open_test");
    std::fs::create_dir_all(&dir).unwrap();

    let mut counts = Vec::new();
    for departments in sizes {
        let s = generate_synthetic(&shape(departments));
        let engine =
            SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases);
        let path = dir.join(format!("dept{departments}_{}.snap", std::process::id()));
        engine.save(&path).unwrap();
        drop(engine);

        // The absent-but-tokenizable keyword takes the ordinary search
        // path (tokenize → dictionary probe → empty result) without a
        // result-set allocation tail, so the measurement is the open
        // machinery itself plus the constant per-search scratch.
        let opts = SearchOptions { k: Some(10), ..Default::default() };
        let before = allocations();
        let opened = SearchEngine::open(&path).unwrap();
        let r = opened.search("zzzunmatchedterm", &opts).unwrap();
        let count = allocations() - before;
        assert!(r.is_empty());
        counts.push(count);

        // The measured window must not have cheated its way past the
        // zero-copy regime: still no owned database, still borrowed
        // views — and the engine still answers a real query.
        assert!(!opened.db_materialized(), "open + search must not materialize the db");
        assert!(opened.index().base_is_image_backed());
        assert!(!opened.search("xml smith", &opts).unwrap().is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    // Exact equality is too brittle (Vec growth probes inside
    // `fs::read` and the validation scratch differ by a few calls), but
    // O(1) vs O(n) is thousands of allocations apart at 8× the rows.
    let spread = counts[0].abs_diff(counts[1]);
    assert!(
        spread <= 16,
        "open + first search allocation count must be flat in db size: \
         dept{} → {}, dept{} → {} (spread {spread})",
        sizes[0],
        counts[0],
        sizes[1],
        counts[1]
    );
}
