//! Concurrent-reader rebuild equivalence: N reader threads search
//! pinned snapshots while the engine (the single writer) applies
//! mutation batches and compacts, and **every observation a reader
//! makes is byte-identical to a from-scratch engine built at that
//! generation**.
//!
//! The properties pinned here, on top of `tests/mutation.rs`'s
//! single-threaded rebuild equivalence:
//!
//! * Readers never observe `StaleEngine` or a half-applied batch — a
//!   pinned [`EngineSnapshot`](cla_core::EngineSnapshot) is always a
//!   complete published generation.
//! * The engine derives every generation from the current one and
//!   never mutates a generation a reader still pins: a snapshot pinned
//!   early stays byte-stable across every later publish and
//!   compaction.
//! * Each new generation shares the current one's aliases, so an alias
//!   edit published after a handle escaped survives later applies.
//! * All of it holds across `compact()`, which renumbers ids — readers
//!   pinned to pre-compaction generations keep answering in the old id
//!   space, consistently.
//! * Once its readers let go, a generation is freed: neither the
//!   engine nor the handle's publication cell keeps it alive.

use cla_core::failpoints;
use cla_core::{Algorithm, Completeness, SearchEngine, SearchOptions, TruncationReason};
use cla_datagen::{generate_synthetic, SyntheticConfig};
use cla_relational::{Database, RelationId, TupleId, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const READERS: usize = 4;
const QUERIES: &[&str] = &["xml smith", "smith alice"];

fn small_config(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        departments: 3,
        employees_per_department: 3,
        projects_per_department: 2,
        works_on_per_employee: 2,
        dependent_probability: 0.4,
        xml_selectivity: 0.4,
        smith_selectivity: 0.3,
        alice_selectivity: 0.5,
        seed,
        ..Default::default()
    }
}

/// One search's observable output: (rendering, explanation, info) per
/// connection, rendered to comparable strings.
type Observation = Vec<(String, String, String)>;

/// A full multi-query view of one pinned snapshot (every query ×
/// algorithm).
type SnapshotView = Vec<Observation>;

/// Everything a search returns that a reader can observe, rendered to
/// comparable strings.
fn observe(results: &cla_core::SearchResults) -> Observation {
    results
        .connections
        .iter()
        .map(|c| (c.rendering.clone(), c.explanation.clone(), format!("{:?}", c.info)))
        .collect()
}

/// One pinned-snapshot observation round: every query, two algorithms,
/// on the **same** pinned generation (a stable multi-query view).
fn observe_snapshot(snap: &cla_core::EngineSnapshot) -> SnapshotView {
    let mut out = Vec::new();
    for query in QUERIES {
        for algorithm in [Algorithm::Paths, Algorithm::Banks] {
            let opts = SearchOptions { algorithm, max_rdb_length: 3, ..Default::default() };
            let results = snap
                .search(query, &opts)
                .expect("a pinned snapshot search can never be stale or poisoned");
            out.push(observe(&results));
        }
    }
    out
}

/// A from-scratch engine over the database exactly as it was at one
/// published generation — the oracle a concurrent reader's observation
/// must match byte for byte.
fn oracle(
    db: &Database,
    schema: &cla_datagen::SyntheticDb,
    aliases: &HashMap<TupleId, String>,
) -> SearchEngine {
    SearchEngine::new(db.clone(), schema.er_schema.clone(), schema.mapping.clone())
        .unwrap()
        .with_aliases(aliases.clone())
}

/// Typed-path mutation driver: inserts employees/dependents and
/// deletes dependents through [`cla_core::SearchEngine`]'s typed ops —
/// the only mutation path that can never drain the change log.
struct Mutator {
    emp: RelationId,
    dep: RelationId,
    dept: RelationId,
    fresh: usize,
}

impl Mutator {
    fn new(db: &Database) -> Self {
        let rel = |n: &str| db.catalog().relation_id(n).expect("company relation");
        Mutator {
            emp: rel("EMPLOYEE"),
            dep: rel("DEPENDENT"),
            dept: rel("DEPARTMENT"),
            fresh: 0,
        }
    }

    fn pick(db: &Database, rel: RelationId, rng: &mut StdRng) -> Option<(TupleId, String)> {
        let rows: Vec<(TupleId, String)> = db
            .tuples(rel)
            .map(|(id, t)| (id, t.get(0).and_then(Value::as_text).unwrap_or("").to_owned()))
            .collect();
        if rows.is_empty() {
            return None;
        }
        Some(rows[rng.random_range(0..rows.len())].clone())
    }

    fn random_op(&mut self, engine: &mut SearchEngine, rng: &mut StdRng) {
        self.fresh += 1;
        let fresh = self.fresh;
        match rng.random_range(0..4usize) {
            0 => {
                let Some((_, d)) = Self::pick(engine.db(), self.dept, rng) else { return };
                let surname = if rng.random::<f64>() < 0.5 { "Smith" } else { "Turing" };
                engine
                    .insert(
                        self.emp,
                        vec![
                            format!("ez{fresh}").into(),
                            surname.into(),
                            "Alan".into(),
                            d.into(),
                        ],
                    )
                    .unwrap();
            }
            1 => {
                let Some((_, essn)) = Self::pick(engine.db(), self.emp, rng) else { return };
                let name = if rng.random::<f64>() < 0.5 { "Alice" } else { "Casey" };
                engine
                    .insert(
                        self.dep,
                        vec![format!("tz{fresh}").into(), essn.into(), name.into()],
                    )
                    .unwrap();
            }
            2 => {
                let Some((id, _)) = Self::pick(engine.db(), self.dep, rng) else { return };
                engine.delete(id).unwrap();
            }
            _ => {
                // Employee deletes may be restrict-blocked by dependents
                // or memberships — an inapplicable dice roll, not a bug.
                let Some((id, _)) = Self::pick(engine.db(), self.emp, rng) else { return };
                let _ = engine.delete(id);
            }
        }
    }
}

/// CI concurrency stress leg: a readers × writer loop whose readers
/// alternate Paths and whole BANKS answers on pinned snapshots, with
/// one fault fired **inside a snapshot read on a reader thread**: the
/// engine opts into failpoints, and `banks.settle` is armed once after
/// the early pin's observation (armed through the environment instead,
/// that observation's own BANKS search would consume it). The reader
/// whose BANKS search reaches it gets a `Truncated { ExpansionCap }`
/// answer, and nothing unwinds. The invariants: the engine keeps
/// serving throughout, an early pin stays byte-stable, and once the
/// registry drains the latest generation answers byte-identically to
/// a from-scratch rebuild. Run explicitly by
/// `.github/workflows/ci.yml`'s concurrency-stress leg:
/// `cargo test -p cla-core --test concurrent -- --ignored`.
#[test]
#[ignore = "stress leg; run by the CI concurrency job"]
fn stress_readers_and_writer_under_faults() {
    let _x = failpoints::exclusive();
    failpoints::disarm_all();
    // The faults suite's fixture shape: a whole BANKS answer to
    // "smith xml" has many connections.
    let schema = generate_synthetic(&SyntheticConfig {
        departments: 4,
        employees_per_department: 8,
        projects_per_department: 3,
        works_on_per_employee: 2,
        dependent_probability: 0.4,
        xml_selectivity: 0.5,
        smith_selectivity: 0.5,
        alice_selectivity: 0.5,
        seed: 7,
        ..Default::default()
    });
    // Snapshots inherit the failpoint opt-in, so the armed point fires
    // inside pinned snapshot reads.
    let mut engine = SearchEngine::new(
        schema.db.clone(),
        schema.er_schema.clone(),
        schema.mapping.clone(),
    )
    .unwrap()
    .with_aliases(schema.aliases.clone());
    engine.enable_failpoints();

    let handle = engine.snapshots();
    let pinned = handle.latest();
    let before = observe_snapshot(&pinned);
    failpoints::arm("banks.settle", failpoints::FailpointMode::Once);
    let done = AtomicBool::new(false);
    let complete = AtomicU64::new(0);
    let truncated = AtomicU64::new(0);
    let unwound = AtomicU64::new(0);

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let handle = handle.clone();
            let (done, complete, truncated, unwound) =
                (&done, &complete, &truncated, &unwound);
            s.spawn(move || {
                let opts = SearchOptions {
                    max_rdb_length: 3,
                    compute_instance: false,
                    ..Default::default()
                };
                // Every reader runs at least one Paths and one BANKS
                // search, so the armed point is reached however fast
                // the writer finishes.
                let algorithms = [Algorithm::Paths, Algorithm::Banks];
                for (i, &algorithm) in algorithms.iter().cycle().enumerate() {
                    if i >= algorithms.len() && done.load(Ordering::SeqCst) {
                        break;
                    }
                    let opts = SearchOptions { algorithm, ..opts };
                    let snap = handle.latest();
                    match catch_unwind(AssertUnwindSafe(|| snap.search("smith xml", &opts))) {
                        Ok(Ok(r)) if r.stats.completeness.is_complete() => {
                            complete.fetch_add(1, Ordering::Relaxed)
                        }
                        Ok(Ok(r)) => {
                            assert_eq!(
                                r.stats.completeness,
                                Completeness::Truncated {
                                    reason: TruncationReason::ExpansionCap
                                },
                                "only the armed settle point truncates"
                            );
                            truncated.fetch_add(1, Ordering::Relaxed)
                        }
                        Ok(Err(e)) => panic!("a pinned snapshot read can never fail: {e}"),
                        Err(_) => unwound.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }

        let mut rng = StdRng::seed_from_u64(0x57e55);
        let mut mutator = Mutator::new(engine.db());
        for round in 0..24usize {
            for _ in 0..rng.random_range(1..4usize) {
                mutator.random_op(&mut engine, &mut rng);
            }
            let _ = engine.apply().unwrap();
            if round % 8 == 7 {
                engine.compact().unwrap();
            }
        }
        done.store(true, Ordering::SeqCst);
    });

    // Capture the hit count first (disarming resets it), then prove
    // the engine still serves full, correct answers at both ends of
    // the run.
    let settle_hits = failpoints::hits("banks.settle");
    failpoints::disarm_all();
    assert_eq!(settle_hits, 1, "the armed banks.settle must fire inside a snapshot read");
    assert_eq!(truncated.load(Ordering::Relaxed), 1, "the faulted read must be truncated");
    assert_eq!(unwound.load(Ordering::Relaxed), 0, "no read unwinds");
    assert_eq!(pinned.generation(), 0);
    assert_eq!(
        observe_snapshot(&pinned),
        before,
        "the early pin must stay byte-stable through faults, publishes and compactions"
    );
    let rebuilt = oracle(engine.db(), &schema, engine.aliases());
    assert_eq!(
        observe_snapshot(&engine.snapshot()),
        observe_snapshot(&rebuilt.snapshot()),
        "after the registry drains, the latest generation must equal a rebuild"
    );
    assert!(
        complete.load(Ordering::Relaxed) > 0,
        "readers must have observed complete answers"
    );
}

/// A reader pin held across many publishes must stay byte-stable: the
/// engine derives every generation from the latest one and keeps no
/// state for a parked reader. The latest generation must also keep
/// answering exactly like a from-scratch rebuild. Finally, once the
/// readers let go, neither the engine nor the handle's cell may keep
/// an unpinned generation alive.
#[test]
fn long_pinned_reader_outlives_the_recycling_window() {
    let schema = generate_synthetic(&small_config(9));
    let mut engine = SearchEngine::new(
        schema.db.clone(),
        schema.er_schema.clone(),
        schema.mapping.clone(),
    )
    .unwrap()
    .with_aliases(schema.aliases.clone());
    let dep = engine.db().catalog().relation_id("DEPENDENT").unwrap();
    let emp = engine.db().catalog().relation_id("EMPLOYEE").unwrap();
    let essn: String = engine
        .db()
        .tuples(emp)
        .next()
        .and_then(|(_, t)| t.get(0).and_then(Value::as_text).map(str::to_owned))
        .unwrap();

    // One insert + apply and one delete + apply per round: two
    // single-tuple publishes.
    let churn = |engine: &mut SearchEngine, rounds: std::ops::Range<u64>| {
        for i in rounds {
            let id = engine
                .insert(
                    dep,
                    vec![format!("lp{i}").into(), essn.as_str().into(), "Alice".into()],
                )
                .unwrap();
            let _ = engine.apply().unwrap();
            engine.delete(id).unwrap();
            let _ = engine.apply().unwrap();
        }
    };

    let pinned = engine.snapshots().latest();
    let before = observe_snapshot(&pinned);
    // 192 single-tuple publishes, all while the gen-0 pin is held.
    churn(&mut engine, 0..96);
    assert_eq!(engine.generation(), 192);
    assert_eq!(pinned.generation(), 0);
    assert_eq!(
        observe_snapshot(&pinned),
        before,
        "a pin parked far behind the latest generation must stay byte-stable"
    );
    let rebuilt = oracle(engine.db(), &schema, engine.aliases());
    assert_eq!(
        observe_snapshot(&engine.snapshot()),
        observe_snapshot(&rebuilt.snapshot()),
        "generations published past a parked pin must still equal a rebuild"
    );

    // Drop the gen-0 pin and a fresh pin of the latest generation, then
    // publish a few more batches: both generations must be freed.
    let latest = engine.snapshots().latest();
    let unpinned = [Arc::downgrade(&pinned), Arc::downgrade(&latest)];
    drop((pinned, latest));
    churn(&mut engine, 96..100);
    assert!(
        unpinned.iter().all(|w| w.upgrade().is_none()),
        "an unpinned generation outlived its readers"
    );
}

/// `with_aliases` after a handle escaped publishes a generation whose
/// only change is the alias table. No mutation batch carries aliases,
/// so every later apply must keep that table — for the engine's own
/// searches and for readers.
#[test]
fn aliases_set_after_a_handle_escaped_survive_later_applies() {
    let schema = generate_synthetic(&small_config(5));
    let engine = SearchEngine::new(
        schema.db.clone(),
        schema.er_schema.clone(),
        schema.mapping.clone(),
    )
    .unwrap()
    .with_aliases(schema.aliases.clone());
    let handle = engine.snapshots();
    let renamed: HashMap<TupleId, String> =
        schema.aliases.iter().map(|(t, alias)| (*t, format!("{alias}_renamed"))).collect();
    assert!(!renamed.is_empty());
    let mut engine = engine.with_aliases(renamed.clone());

    let emp = engine.db().catalog().relation_id("EMPLOYEE").unwrap();
    let dept = engine.db().catalog().relation_id("DEPARTMENT").unwrap();
    let d: String = engine
        .db()
        .tuples(dept)
        .next()
        .and_then(|(_, t)| t.get(0).and_then(Value::as_text).map(str::to_owned))
        .unwrap();
    for round in 0..4 {
        engine
            .insert(
                emp,
                vec![
                    format!("ar{round}").into(),
                    "Smith".into(),
                    "Alan".into(),
                    d.as_str().into(),
                ],
            )
            .unwrap();
        let _ = engine.apply().unwrap();
        assert_eq!(
            engine.aliases(),
            &renamed,
            "round {round}: the engine's aliases reverted"
        );
        assert_eq!(
            handle.latest().aliases(),
            &renamed,
            "round {round}: the published aliases reverted"
        );
    }
}

#[test]
fn concurrent_readers_see_their_pinned_generation_exactly() {
    for seed in [11u64, 23, 47] {
        let schema = generate_synthetic(&small_config(seed));
        let mut engine = SearchEngine::new(
            schema.db.clone(),
            schema.er_schema.clone(),
            schema.mapping.clone(),
        )
        .unwrap()
        .with_aliases(schema.aliases.clone());

        // Per-generation ground truth the writer records at each
        // publish: (generation, database clone, aliases clone).
        type Truth = (u64, Database, HashMap<TupleId, String>);
        let truth: Mutex<Vec<Truth>> = Mutex::new(vec![(
            engine.generation(),
            engine.db().clone(),
            engine.aliases().clone(),
        )]);
        // (generation, observation) pairs the readers collect.
        let seen: Mutex<Vec<(u64, SnapshotView)>> = Mutex::new(Vec::new());
        let done = AtomicBool::new(false);

        let handle = engine.snapshots();
        // Pin one snapshot *before* any mutation: it must stay
        // byte-stable across every publish and compaction below.
        let pinned_gen0 = handle.latest();
        let gen0_observation = observe_snapshot(&pinned_gen0);

        std::thread::scope(|s| {
            for r in 0..READERS {
                let handle = handle.clone();
                let seen = &seen;
                let done = &done;
                s.spawn(move || {
                    let mut rounds = 0usize;
                    let mut last_gen = 0u64;
                    // Keep reading until the writer finished, then once
                    // more so every reader also observes the final
                    // generation at least once.
                    while !done.load(Ordering::SeqCst) || rounds < r + 2 {
                        let snap = handle.latest();
                        assert!(
                            snap.generation() >= last_gen,
                            "publishes are monotone per reader"
                        );
                        last_gen = snap.generation();
                        let obs = observe_snapshot(&snap);
                        seen.lock().unwrap().push((snap.generation(), obs));
                        rounds += 1;
                    }
                });
            }

            // The writer: typed mutations, applies, and a mid-run
            // compaction, publishing a generation per batch.
            // Round 4 publishes twice (apply, then compact); a reader
            // may pin either generation, so both are recorded.
            let record = |engine: &SearchEngine| {
                truth.lock().unwrap().push((
                    engine.generation(),
                    engine.db().clone(),
                    engine.aliases().clone(),
                ));
            };
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ffee);
            let mut mutator = Mutator::new(engine.db());
            for round in 0..8usize {
                for _ in 0..rng.random_range(1..4usize) {
                    mutator.random_op(&mut engine, &mut rng);
                }
                let _ = engine.apply().unwrap();
                record(&engine);
                if round == 4 {
                    engine.compact().unwrap();
                    record(&engine);
                }
            }
            done.store(true, Ordering::SeqCst);
        });

        // The early-pinned generation survived untouched.
        assert_eq!(pinned_gen0.generation(), 0);
        assert_eq!(
            observe_snapshot(&pinned_gen0),
            gen0_observation,
            "a pinned snapshot must stay byte-stable across later publishes"
        );

        // Every reader observation matches a from-scratch engine at its
        // generation, byte for byte.
        let truth = truth.into_inner().unwrap();
        let by_gen: HashMap<u64, (&Database, &HashMap<TupleId, String>)> =
            truth.iter().map(|(g, db, al)| (*g, (db, al))).collect();
        let mut oracles: HashMap<u64, SnapshotView> = HashMap::new();
        let seen = seen.into_inner().unwrap();
        assert!(seen.len() >= READERS, "each reader observed at least once");
        for (generation, observation) in seen {
            let (db, aliases) = by_gen
                .get(&generation)
                .expect("readers only ever see generations the writer published");
            let expected = oracles.entry(generation).or_insert_with(|| {
                let rebuilt = oracle(db, &schema, aliases);
                let snap = rebuilt.snapshot();
                observe_snapshot(&snap)
            });
            assert_eq!(
                &observation, expected,
                "seed {seed} generation {generation}: concurrent read diverged from rebuild"
            );
        }
    }
}
