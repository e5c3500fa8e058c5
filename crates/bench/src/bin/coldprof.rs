//! Profiling splits for the cold-open path — quicker iteration than the
//! criterion bench when hunting constant factors in `SearchEngine::open`.
//!
//! * `coldprof <departments>` — min-of-30 open / first-search /
//!   warm-search timings (the B13 trio without criterion overhead).
//! * `coldprof <departments> stages` — times each public decode stage
//!   (file read, image parse, index decode, database validate, full
//!   open) so a regression names its layer.
//! * `coldprof <departments> loop` — spins opens for 10 s, for
//!   attaching an external profiler.
//!
//! Run: `cargo run --release -p cla-bench --bin coldprof -- 64 stages`
//
// lint: allow-file(unwrap, dev-only profiling harness on freshly written
// snapshots; a failure here should abort loudly, not be handled)

use cla_bench::scale::synthetic_engine;
use cla_core::{SearchEngine, SearchOptions};
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let departments: usize =
        std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let engine = synthetic_engine(departments, 7);
    let path = std::env::temp_dir().join(format!("coldprof_{departments}.snap"));
    engine.save(&path).unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len();
    let opts = SearchOptions {
        max_rdb_length: 3,
        compute_instance: false,
        k: Some(10),
        ..Default::default()
    };

    // `coldprof <departments> stages` times the public decode stages.
    if std::env::args().nth(2).as_deref() == Some("stages") {
        let catalog = engine.db().catalog().clone();
        let mut best = [f64::MAX; 5];
        for _ in 0..50 {
            let t = Instant::now();
            let bytes = std::fs::read(&path).unwrap();
            best[0] = best[0].min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let img = cla_storage::SnapshotImage::parse(bytes).unwrap();
            best[1] = best[1].min(t.elapsed().as_secs_f64());
            let shared = img.into_shared();
            let t = Instant::now();
            let idx = cla_index::InvertedIndex::decode(shared.section(4).unwrap()).unwrap();
            best[2] = best[2].min(t.elapsed().as_secs_f64());
            black_box(idx);
            let t = Instant::now();
            let db_sec = shared.section(3).unwrap();
            let s = cla_relational::Database::validate_flat(
                &catalog,
                db_sec.as_slice(),
                |_, _| Ok(()),
            )
            .unwrap();
            best[3] = best[3].min(t.elapsed().as_secs_f64());
            black_box(s);
            let t = Instant::now();
            black_box(SearchEngine::open(&path).unwrap());
            best[4] = best[4].min(t.elapsed().as_secs_f64());
        }
        println!(
            "dept{departments}: read={:.3}ms parse={:.3}ms index={:.3}ms validate={:.3}ms full_open={:.3}ms",
            best[0] * 1e3,
            best[1] * 1e3,
            best[2] * 1e3,
            best[3] * 1e3,
            best[4] * 1e3
        );
        std::fs::remove_file(&path).unwrap();
        return;
    }

    // `coldprof <departments> loop` spins opens only, for profilers.
    if std::env::args().nth(2).as_deref() == Some("loop") {
        let t = Instant::now();
        let mut i = 0u64;
        while t.elapsed().as_secs_f64() < 10.0 {
            black_box(SearchEngine::open(&path).unwrap());
            i += 1;
        }
        println!("dept{departments}: {i} opens in 10s");
        std::fs::remove_file(&path).unwrap();
        return;
    }

    let n = 30usize;
    let mut open_best = f64::MAX;
    let mut search_best = f64::MAX;
    let mut warm_best = f64::MAX;
    for _ in 0..n {
        let t0 = Instant::now();
        let e = SearchEngine::open(&path).unwrap();
        let open = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        black_box(e.search("xml smith", &opts).unwrap().len());
        let first = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        black_box(e.search("xml smith", &opts).unwrap().len());
        let warm = t2.elapsed().as_secs_f64();
        open_best = open_best.min(open);
        search_best = search_best.min(first);
        warm_best = warm_best.min(warm);
    }
    println!(
        "dept{departments}: image={bytes}B open={:.3}ms first_search={:.3}ms warm_search={:.3}ms",
        open_best * 1e3,
        search_best * 1e3,
        warm_best * 1e3
    );
    std::fs::remove_file(&path).unwrap();
}
