//! Concurrent serving over snapshot generations: one writer thread
//! streams inserts/deletes and publishes a generation per batch, while
//! four reader threads issue Zipf-skewed keyword queries — the
//! read-heavy, repetition-skewed shape of real keyword traffic — each
//! against whatever generation it pins at that moment.
//!
//! No search ever waits on the writer: a
//! [`SnapshotHandle`](close_loose_ks::core::SnapshotHandle) pin takes a
//! read lock for one `Arc` clone of the latest published
//! [`EngineSnapshot`](close_loose_ks::core::EngineSnapshot), a publish
//! holds the write lock only to swap that `Arc`, and a pinned
//! generation stays byte-stable no matter what the writer does next.
//! The final table shows how many searches landed on each generation
//! and what they answered.
//!
//! ```text
//! cargo run --example concurrent_serving
//! ```

use close_loose_ks::core::{SearchEngine, SearchOptions};
use close_loose_ks::datagen::{
    generate_synthetic, generate_workload, SyntheticConfig, WorkloadConfig, Zipf,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

const READERS: usize = 4;
const WRITER_ROUNDS: usize = 12;

fn main() {
    let s = generate_synthetic(&SyntheticConfig {
        departments: 12,
        employees_per_department: 8,
        projects_per_department: 3,
        works_on_per_employee: 2,
        seed: 21,
        ..Default::default()
    });
    let mut engine = SearchEngine::new(s.db, s.er_schema, s.mapping)
        .expect("synthetic database is valid")
        .with_aliases(s.aliases);
    let emp = engine.db().catalog().relation_id("EMPLOYEE").unwrap();
    let dept_keys: Vec<String> = engine
        .db()
        .tuples(engine.db().catalog().relation_id("DEPARTMENT").unwrap())
        .filter_map(|(_, t)| t.get(0).and_then(|v| v.as_text().map(str::to_owned)))
        .collect();

    // A fixed query workload; readers pick from it Zipf-skewed, so a
    // few head queries dominate — the repetition profile query-log
    // studies report for keyword search.
    let workload = generate_workload(
        &WorkloadConfig { num_queries: 12, keywords_per_query: 2, seed: 5 },
        &[],
    );
    let zipf = Zipf::new(workload.len(), 1.1);

    let handle = engine.snapshots();
    let done = AtomicBool::new(false);
    // generation → (searches served, connections answered), merged
    // across readers at the end.
    let served: Mutex<BTreeMap<u64, (u64, u64)>> = Mutex::new(BTreeMap::new());

    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let handle = handle.clone();
            let workload = &workload;
            let zipf = &zipf;
            let served = &served;
            let done = &done;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + reader as u64);
                let opts = SearchOptions { k: Some(10), ..Default::default() };
                let mut local: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
                while !done.load(Ordering::SeqCst) {
                    // Pin whatever is latest *now*; the search runs
                    // entirely on that generation even if the writer
                    // publishes ten more meanwhile.
                    let snap = handle.latest();
                    let query = &workload[zipf.sample(&mut rng) - 1];
                    let results =
                        snap.search(query, &opts).expect("workload queries are well-formed");
                    let entry = local.entry(snap.generation()).or_default();
                    entry.0 += 1;
                    entry.1 += results.len() as u64;
                }
                let mut merged = served.lock().unwrap();
                for (generation, (searches, answers)) in local {
                    let entry = merged.entry(generation).or_default();
                    entry.0 += searches;
                    entry.1 += answers;
                }
            });
        }

        // The writer: stream churn batches, publishing one generation
        // each, with a compaction to reclaim tombstones mid-stream.
        let mut rng = StdRng::seed_from_u64(42);
        let mut fresh = 0usize;
        let mut hired = Vec::new();
        for round in 0..WRITER_ROUNDS {
            let batch = rng.random_range(1..4usize);
            for _ in 0..batch {
                if !hired.is_empty() && rng.random::<f64>() < 0.4 {
                    let id = hired.swap_remove(rng.random_range(0..hired.len()));
                    engine.delete(id).unwrap();
                } else {
                    fresh += 1;
                    let dept = &dept_keys[rng.random_range(0..dept_keys.len())];
                    let surname =
                        if rng.random::<f64>() < 0.5 { "Smith" } else { "Lovelace" };
                    let id = engine
                        .insert(
                            emp,
                            vec![
                                format!("live{fresh}").into(),
                                surname.into(),
                                "Ada".into(),
                                dept.as_str().into(),
                            ],
                        )
                        .unwrap();
                    hired.push(id);
                }
            }
            let _ = engine.apply().expect("batches are well-formed");
            if round == WRITER_ROUNDS / 2 {
                let remap = engine.compact().expect("engine is fresh right after apply");
                // Compaction renumbers every TupleId; remap held ids.
                hired = hired.iter().filter_map(|&t| remap.map(t)).collect();
                println!(
                    "writer: compacted at generation {} (reclaimed {} slots)",
                    engine.generation(),
                    remap.reclaimed()
                );
            }
            println!(
                "writer: published generation {:>2} ({} tuples live)",
                engine.generation(),
                engine.db().total_tuples()
            );
        }
        done.store(true, Ordering::SeqCst);
    });

    println!("\n{:>10}  {:>9}  {:>9}", "generation", "searches", "answers");
    let served = served.into_inner().unwrap();
    let (mut total, mut answered) = (0u64, 0u64);
    for (generation, (searches, answers)) in &served {
        println!("{generation:>10}  {searches:>9}  {answers:>9}");
        total += searches;
        answered += answers;
    }
    println!(
        "\n{READERS} readers served {total} searches ({answered} connections) across {} \
         generations while the writer published {} times — no search ran under a lock.",
        served.len(),
        engine.generation(),
    );
    // One publish per apply, plus one for the mid-stream compaction.
    assert_eq!(engine.generation(), WRITER_ROUNDS as u64 + 1);
    assert_eq!(
        handle.latest().generation(),
        engine.generation(),
        "the handle sees the last publish"
    );
}
