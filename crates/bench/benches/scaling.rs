//! Scaling benchmarks B1–B8 (extensions; the paper itself reports no
//! performance numbers — see EXPERIMENTS.md for the measured shapes).

use cla_bench::scale::{coverage, synthetic_engine};
use cla_core::{
    Algorithm, DataGraph, EdgeWeighting, RankStrategy, SearchBudget, SearchEngine,
    SearchOptions,
};
use cla_relational::Value;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const QUERY: &str = "xml smith";
/// A three-keyword query, for DISCOVER's own network growth.
const QUERY3: &str = "xml smith alice";
const SEED: u64 = 7;

/// B1: distance-pruned multi-target connection enumeration vs database
/// size and length bound. (The before/after pair against the seed's
/// per-(source, target)-pair enumeration is recorded in EXPERIMENTS.md
/// B1 and B5.)
fn enumerate_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/enumerate");
    for departments in [4usize, 8, 16] {
        let engine = synthetic_engine(departments, SEED);
        for max_len in [3usize, 4] {
            let id = format!("dept{departments}_len{max_len}");
            group.bench_with_input(
                BenchmarkId::from_parameter(&id),
                &max_len,
                |b, &max_len| {
                    let opts = SearchOptions {
                        max_rdb_length: max_len,
                        compute_instance: false,
                        ..Default::default()
                    };
                    b.iter(|| black_box(engine.search(QUERY, &opts).unwrap().len()))
                },
            );
        }
    }
    group.finish();
}

/// B2: streaming top-k early termination at the B1 acceptance shape
/// (dept16/len4). `topk/` compares the `k: None` whole answer against
/// the streaming `k` modes (identical ranked prefixes, verified by the
/// property suite). DFS node-expansion counts are printed alongside so
/// the early-termination claim stays visible in bench logs.
/// `topk/k10_dept1024` runs the `k10` search on a 64× larger graph and
/// logs its expansions next to dept16's: when its time grows far more
/// than its expansions do, some per-search step costs what the graph
/// does rather than what the search touches. `topk/k10_head_pair_dept256`
/// runs a top-10 search for the head project pair "p3 p1": nothing
/// shorter dominates, so it enumerates through level 4, whose DFS emits
/// 104,624 paths (at seed 7). Each path is keyed as it is emitted, and
/// the arm's time is that per-path work.
fn topk(c: &mut Criterion) {
    let engine = synthetic_engine(16, SEED);
    let base =
        SearchOptions { max_rdb_length: 4, compute_instance: false, ..Default::default() };
    let full = engine.search(QUERY, &base).unwrap();
    let mut k10_expansions = 0;
    for k in [3usize, 10] {
        let stream = engine.search(QUERY, &SearchOptions { k: Some(k), ..base }).unwrap();
        eprintln!(
            "topk dept16_len4 k={k}: expansions {} vs full {} (early_terminated={})",
            stream.stats.expansions, full.stats.expansions, stream.stats.early_terminated
        );
        if k == 10 {
            k10_expansions = stream.stats.expansions;
        }
    }

    let mut group = c.benchmark_group("scaling/topk");
    for (name, k) in [("full", None), ("k10", Some(10)), ("k3", Some(3))] {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let opts = SearchOptions { k, ..base };
            b.iter(|| black_box(engine.search(QUERY, &opts).unwrap().len()))
        });
    }
    group.bench_function(BenchmarkId::from_parameter("k10_dept1024"), |b| {
        // Built only when the filter selects the arm.
        let large = synthetic_engine(1024, SEED);
        let opts = SearchOptions { k: Some(10), ..base };
        let stream = large.search(QUERY, &opts).unwrap();
        eprintln!(
            "topk dept1024_len4 k=10: expansions {} vs dept16 {} (early_terminated={}, nodes {} vs {})",
            stream.stats.expansions,
            k10_expansions,
            stream.stats.early_terminated,
            large.data_graph().node_count(),
            engine.data_graph().node_count()
        );
        b.iter(|| black_box(large.search(QUERY, &opts).unwrap().len()))
    });
    group.bench_function(BenchmarkId::from_parameter("k10_head_pair_dept256"), |b| {
        // Built only when the filter selects the arm.
        let engine = synthetic_engine(256, SEED);
        let opts = SearchOptions { k: Some(10), ..base };
        let stream = engine.search(HEAD_PAIR, &opts).unwrap();
        eprintln!(
            "topk dept256_len4 {HEAD_PAIR:?} k=10: expansions {} (levels {}, early_terminated={})",
            stream.stats.expansions,
            stream.stats.max_length_enumerated,
            stream.stats.early_terminated
        );
        b.iter(|| black_box(engine.search(HEAD_PAIR, &opts).unwrap().len()))
    });
    group.finish();
}

/// Two head project terms of the synthetic mix.
const HEAD_PAIR: &str = "p3 p1";

/// B8 (recorded as the PR 3 "B3" and PR 4 "B4" experiments in
/// EXPERIMENTS.md): incremental maintenance — the update-workload
/// scenario class.
///
/// `apply_single_tuple/` measures one complete churn round trip through
/// the mutation subsystem: insert a dependent + `SearchEngine::apply`,
/// then delete it + `apply` again — i.e. **two** single-tuple applies
/// per iteration, each copying the current generation, merging the
/// batch's postings into new index arrays, editing the graph and
/// rebuilding its CSR. The baseline for the same round trip is
/// rebuilding the derived structures from the database:
/// `rebuild_index_graph/` times one index + data-graph construction
/// (the two structures `apply` derives) and `rebuild_engine/` the full
/// `SearchEngine::new` including referential validation. The
/// acceptance claim is `apply_single_tuple ≤ rebuild_index_graph / 10`
/// at dept16 and dept32. Both sides grow with the database: an apply
/// copies flat arrays (tombstoned slots included), a rebuild re-reads
/// and re-tokenizes every tuple.
///
/// `apply_employee_restrict/` deletes from an FK-*targeted* relation,
/// paying the restrict check. Since PR 4 that check is one probe of the
/// database's persistent reverse-FK index (O(incoming references)); the
/// BENCH_B3 run of the same arm — 13.3 µs at dept16 / 19.5 µs at
/// dept32, growing with database size because it scanned every
/// referencing relation's live rows — is the baseline it must beat.
///
/// `update_in_place/` and `update_repoint/` measure the typed in-place
/// `update` + apply round trip: a text-only value change
/// (postings diffed, zero edge churn, zero tombstones — no periodic
/// rebuild needed) and an FK re-point (one edge removed + one added
/// per iteration).
///
/// Slots are tombstoned by insert/delete churn, so those arms rebuild
/// their engine every 4096 iterations, bounding churn bloat at ~4k
/// tombstone slots (amortized rebuild cost ≪ 1 µs per iteration) and
/// keeping the measurement stationary across sample counts.
/// (`SearchEngine::compact` now reclaims slots in production; the
/// bench keeps the rebuild so B4 numbers stay comparable to B3's.)
fn update_maintenance(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/update");
    for departments in [16usize, 32] {
        let mut engine = synthetic_engine(departments, SEED);
        let dep = engine.db().catalog().relation_id("DEPENDENT").unwrap();
        let emp = engine.db().catalog().relation_id("EMPLOYEE").unwrap();
        let essn: String = engine
            .db()
            .tuples(emp)
            .next()
            .and_then(|(_, t)| t.get(0).and_then(Value::as_text).map(str::to_owned))
            .expect("employees exist");
        let mut i = 0u64;
        group.bench_function(BenchmarkId::new("apply_single_tuple", departments), |b| {
            b.iter(|| {
                i += 1;
                if i.is_multiple_of(4096) {
                    engine = synthetic_engine(departments, SEED);
                }
                let pk = format!("bz{i}");
                let id = engine
                    .insert(
                        dep,
                        vec![pk.as_str().into(), essn.as_str().into(), "Temp".into()],
                    )
                    .unwrap();
                let _ = engine.apply().unwrap();
                engine.delete(id).unwrap();
                let _ = engine.apply().unwrap();
                black_box(engine.is_fresh())
            })
        });

        // Same round trip on an FK-*targeted* relation: deleting an
        // EMPLOYEE pays the restrict check — one reverse-FK index probe
        // of the victim's incoming entries, the part of delete the
        // leaf-relation arm above never exercises (and the arm that
        // previously scanned every referencing relation's live rows;
        // BENCH_B3 is that baseline).
        let mut engine2 = synthetic_engine(departments, SEED);
        let dept_id: String = {
            let dept = engine2.db().catalog().relation_id("DEPARTMENT").unwrap();
            engine2
                .db()
                .tuples(dept)
                .next()
                .and_then(|(_, t)| t.get(0).and_then(Value::as_text).map(str::to_owned))
                .expect("departments exist")
        };
        let mut j = 0u64;
        group.bench_function(BenchmarkId::new("apply_employee_restrict", departments), |b| {
            b.iter(|| {
                j += 1;
                if j.is_multiple_of(4096) {
                    engine2 = synthetic_engine(departments, SEED);
                }
                let pk = format!("mz{j}");
                let id = engine2
                    .insert(
                        emp,
                        vec![
                            pk.as_str().into(),
                            "Temp".into(),
                            "Worker".into(),
                            dept_id.as_str().into(),
                        ],
                    )
                    .unwrap();
                let _ = engine2.apply().unwrap();
                engine2.delete(id).unwrap();
                let _ = engine2.apply().unwrap();
                black_box(engine2.is_fresh())
            })
        });

        // In-place update, text-only: one typed `update` of a
        // dependent's name + one apply per iteration. No tombstones, no
        // edge churn — the engine never needs the periodic rebuild.
        let mut engine3 = synthetic_engine(departments, SEED);
        let dep_id = engine3.db().tuples(dep).next().map(|(id, _)| id).expect("dependents");
        let mut k = 0u64;
        group.bench_function(BenchmarkId::new("update_in_place", departments), |b| {
            b.iter(|| {
                k += 1;
                let mut values = engine3.db().tuple(dep_id).unwrap().values().to_vec();
                values[2] = if k.is_multiple_of(2) { "Temp" } else { "Casey" }.into();
                engine3.update(dep_id, values).unwrap();
                let _ = engine3.apply().unwrap();
                black_box(engine3.is_fresh())
            })
        });

        // In-place update, FK re-point: alternate a dependent between
        // two employees — one edge removed + one added per apply.
        let mut engine4 = synthetic_engine(departments, SEED);
        let dep_id4 = engine4.db().tuples(dep).next().map(|(id, _)| id).expect("dependents");
        let essns: Vec<String> = engine4
            .db()
            .tuples(emp)
            .take(2)
            .map(|(_, t)| t.get(0).and_then(Value::as_text).unwrap().to_owned())
            .collect();
        let mut k = 0u64;
        group.bench_function(BenchmarkId::new("update_repoint", departments), |b| {
            b.iter(|| {
                k += 1;
                let mut values = engine4.db().tuple(dep_id4).unwrap().values().to_vec();
                values[1] = essns[(k % 2) as usize].as_str().into();
                engine4.update(dep_id4, values).unwrap();
                let _ = engine4.apply().unwrap();
                black_box(engine4.is_fresh())
            })
        });

        let base = synthetic_engine(departments, SEED);
        group.bench_function(BenchmarkId::new("rebuild_index_graph", departments), |b| {
            b.iter(|| {
                let idx = cla_index::InvertedIndex::build(base.db());
                let dg = DataGraph::build(base.db(), base.mapping()).unwrap();
                black_box((idx.term_count(), dg.node_count()))
            })
        });
        group.bench_function(BenchmarkId::new("rebuild_engine", departments), |b| {
            b.iter(|| {
                let e = SearchEngine::new(
                    base.db().clone(),
                    base.er_schema().clone(),
                    base.mapping().clone(),
                )
                .unwrap();
                black_box(e.index().term_count())
            })
        });
    }
    group.finish();
}

/// B7/B9: BANKS backward expansion vs DISCOVER MTJNT enumeration, and
/// the streaming-cutoff before/after pairs recorded in EXPERIMENTS.md
/// B9: each BANKS `_k20` arm runs the priority-queue cutoff, each
/// `_full` arm the unbounded enumeration (the cost the pre-cutoff
/// k = 20 search paid, since it materialized everything before
/// truncating). Expansion counts print alongside so the
/// strictly-fewer-work claims stay visible in bench logs; the larger
/// dept64/dept128 shapes are where the cutoffs bite hardest.
fn banks_vs_discover(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/banks_vs_discover");
    for departments in [4usize, 8, 16, 64, 128] {
        let engine = synthetic_engine(departments, SEED);
        let base = SearchOptions {
            algorithm: Algorithm::Banks,
            max_rdb_length: 3,
            compute_instance: false,
            ..Default::default()
        };
        let full = engine.search(QUERY, &base).unwrap();
        let k20 = engine.search(QUERY, &SearchOptions { k: Some(20), ..base }).unwrap();
        eprintln!(
            "banks dept{departments} k=20: {} candidate completions vs {} at full \
             enumeration (early_terminated={})",
            k20.stats.expansions, full.stats.expansions, k20.stats.early_terminated
        );
        for (suffix, k) in [("k20", Some(20)), ("full", None)] {
            let id = format!("banks_dept{departments}_{suffix}");
            group.bench_function(BenchmarkId::from_parameter(&id), |b| {
                let opts = SearchOptions { k, ..base };
                b.iter(|| black_box(engine.search(QUERY, &opts).unwrap().len()))
            });
        }
    }
    // Three far-apart department keywords: the cutoff fires only after
    // almost every root has completed, so the arm times the per-root
    // tree work of a top-k BANKS search.
    let engine = synthetic_engine(256, SEED);
    let far = "d3 d131 d250";
    let opts = SearchOptions {
        algorithm: Algorithm::Banks,
        k: Some(10),
        compute_instance: false,
        ..Default::default()
    };
    let k10 = engine.search(far, &opts).unwrap();
    eprintln!(
        "banks dept256 far k=10: {} candidate completions (early_terminated={})",
        k10.stats.expansions, k10.stats.early_terminated
    );
    group.bench_function(BenchmarkId::from_parameter("banks_far_dept256_k10"), |b| {
        b.iter(|| black_box(engine.search(far, &opts).unwrap().len()))
    });
    // DISCOVER's own network growth, which serves three or more
    // keywords (a two-keyword DISCOVER answer runs the Paths
    // enumeration). It grows every level to the size bound whatever k
    // is, so the `_k20` arm adds only the truncation to the `_full`
    // one; the expansion counts print alongside.
    for departments in [8usize, 16] {
        let engine = synthetic_engine(departments, SEED);
        let base = SearchOptions {
            algorithm: Algorithm::Discover,
            max_rdb_length: 3,
            ranker: RankStrategy::RdbLength,
            compute_instance: false,
            ..Default::default()
        };
        let full = engine.search(QUERY3, &base).unwrap();
        let k20 = engine.search(QUERY3, &SearchOptions { k: Some(20), ..base }).unwrap();
        eprintln!(
            "discover dept{departments} {QUERY3:?} k=20: {} network materializations vs {} \
             at full enumeration (early_terminated={})",
            k20.stats.expansions, full.stats.expansions, k20.stats.early_terminated
        );
        for (suffix, k) in [("k20", Some(20)), ("full", None)] {
            let id = format!("discover_dept{departments}_{suffix}");
            group.bench_function(BenchmarkId::from_parameter(&id), |b| {
                let opts = SearchOptions { k, ..base };
                b.iter(|| black_box(engine.search(QUERY3, &opts).unwrap().len()))
            });
        }
    }
    // A whole DISCOVER answer whose seeds each match every keyword: on
    // dept16 "the main are" matches every department and project
    // description. The options are those of the `perfbench` `full_small`
    // DISCOVER queries, expansion cap included; growth that does not stop
    // at total networks runs into that cap here.
    let engine = synthetic_engine(16, SEED);
    let total_seed = "the main are";
    let opts = SearchOptions {
        algorithm: Algorithm::Discover,
        k: None,
        compute_instance: true,
        max_rdb_length: 4,
        budget: SearchBudget::with_max_expansions(200_000),
        ..Default::default()
    };
    let r = engine.search(total_seed, &opts).unwrap();
    eprintln!(
        "discover dept16 total seed: {} network materializations, {} connections ({:?})",
        r.stats.expansions,
        r.connections.len(),
        r.stats.completeness
    );
    group.bench_function(
        BenchmarkId::from_parameter("discover_dept16_total_seed_full"),
        |b| b.iter(|| black_box(engine.search(total_seed, &opts).unwrap().len())),
    );
    group.finish();
}

/// B3: ranking-strategy overhead on a fixed result set.
fn ranking_overhead(c: &mut Criterion) {
    let engine = synthetic_engine(8, SEED);
    let mut group = c.benchmark_group("scaling/ranking_overhead");
    for strategy in [
        RankStrategy::RdbLength,
        RankStrategy::ErLength,
        RankStrategy::CloseFirst,
        RankStrategy::Combined { structure_weight: 1.0 },
    ] {
        group.bench_function(strategy.name(), |b| {
            let opts = SearchOptions {
                max_rdb_length: 4,
                ranker: strategy,
                compute_instance: false,
                ..Default::default()
            };
            b.iter(|| black_box(engine.search(QUERY, &opts).unwrap().len()))
        });
    }
    group.finish();
}

/// B4: MTJNT coverage loss (also measures the filter's cost).
fn mtjnt_coverage(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/mtjnt_coverage");
    for departments in [4usize, 8] {
        let engine = synthetic_engine(departments, SEED);
        let stats = coverage(&engine, QUERY, 4);
        // Shape reported alongside the timing: MTJNT keeps a strict
        // subset of the connections.
        eprintln!(
            "mtjnt_coverage dept{departments}: total={} mtjnt={} loss={:.2}",
            stats.total,
            stats.mtjnt,
            stats.loss_ratio()
        );
        group.bench_function(BenchmarkId::from_parameter(departments), |b| {
            b.iter(|| black_box(coverage(&engine, QUERY, 4)))
        });
    }
    group.finish();
}

/// B5/B9: instance-closeness witness-search cost, off and on. `on`
/// runs the witness search, pruned by a bounded-BFS distance map toward
/// each end node (EXPERIMENTS.md B9 and B26; B5 records the seed's
/// materialize-all witness scan).
fn witness_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/witness_cost");
    for departments in [8usize, 64] {
        let engine = synthetic_engine(departments, SEED);
        for (name, compute) in [("off", false), ("on", true)] {
            let id = format!("{name}_dept{departments}");
            group.bench_function(BenchmarkId::from_parameter(&id), |b| {
                let opts = SearchOptions {
                    max_rdb_length: 3,
                    compute_instance: compute,
                    ..Default::default()
                };
                b.iter(|| black_box(engine.search(QUERY, &opts).unwrap().len()))
            });
        }
    }
    group.finish();
}

/// B6: index build and keyword lookup cost; also the ER-aware BANKS
/// weighting ablation.
fn index_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/index");
    for departments in [4usize, 16] {
        let engine = synthetic_engine(departments, SEED);
        group.bench_function(BenchmarkId::new("build", departments), |b| {
            b.iter(|| black_box(cla_index::InvertedIndex::build(engine.db())))
        });
        group.bench_function(BenchmarkId::new("lookup", departments), |b| {
            b.iter(|| black_box(engine.index().matching_tuples("xml").len()))
        });
        // The flat dictionary's bucketed binary-search probe against a
        // same-run `HashMap` holding identical contents — the parity
        // pair the PR 9 flat rewrite is held to (B12 in EXPERIMENTS.md).
        // Both arms run the full `lookup()` work for a raw keyword:
        // tokenizer normalization, then the dictionary probe to the
        // term's posting slice (no dedup/allocation on top). A pre-PR 9
        // HashMap engine normalized queries exactly the same way, so
        // the baseline arm must too.
        group.bench_function(BenchmarkId::new("lookup_flat_dict", departments), |b| {
            b.iter(|| black_box(engine.index().lookup("xml").len()))
        });
        let map: std::collections::HashMap<String, Vec<cla_index::Posting>> =
            engine.index().terms().map(|(t, p)| (t.to_owned(), p.to_vec())).collect();
        let tokenizer = engine.index().tokenizer();
        group.bench_function(BenchmarkId::new("lookup_hashmap_baseline", departments), |b| {
            b.iter(|| {
                let tokens = tokenizer.tokenize("xml");
                let normalized = match <[String; 1]>::try_from(tokens) {
                    Ok([single]) => single,
                    Err(_) => tokenizer.normalize_value("xml"),
                };
                black_box(map.get(&normalized).map_or(0, Vec::len))
            })
        });
    }
    group.finish();

    let engine = synthetic_engine(8, SEED);
    let mut group = c.benchmark_group("scaling/banks_weighting");
    for (name, weighting) in
        [("uniform", EdgeWeighting::Uniform), ("er_aware", EdgeWeighting::ErAware)]
    {
        group.bench_function(name, |b| {
            let opts = SearchOptions {
                algorithm: Algorithm::Banks,
                weighting,
                k: Some(20),
                compute_instance: false,
                ..Default::default()
            };
            b.iter(|| black_box(engine.search(QUERY, &opts).unwrap().len()))
        });
    }
    group.finish();
}

/// B10: budget probe overhead at the B1 acceptance shape (dept16/len4).
/// `off/` runs with the default unlimited budget — every probe is a
/// single `None` branch, no shared state is even allocated. `armed/`
/// sets both bounds so high they never fire — the worst case that still
/// returns complete results: shared state allocated, every probe
/// charged through the stride logic, `Instant::now()` polled once per
/// time stride. The acceptance claim is `armed ≤ off · 1.02` per
/// algorithm.
fn budget_overhead(c: &mut Criterion) {
    let engine = synthetic_engine(16, SEED);
    let mut group = c.benchmark_group("scaling/budget_overhead");
    for (alg_name, algorithm) in [
        ("paths", Algorithm::Paths),
        ("banks", Algorithm::Banks),
        ("discover", Algorithm::Discover),
    ] {
        let base = SearchOptions {
            algorithm,
            max_rdb_length: 4,
            compute_instance: false,
            ..Default::default()
        };
        let armed = SearchOptions {
            budget: SearchBudget {
                deadline: Some(std::time::Duration::from_secs(3600)),
                max_expansions: Some(u64::MAX / 2),
            },
            ..base
        };
        let complete = engine.search(QUERY, &armed).unwrap();
        assert!(
            complete.stats.completeness.is_complete(),
            "armed-but-unhit budget must not truncate the bench shape"
        );
        for (mode, opts) in [("off", base), ("armed", armed)] {
            group.bench_function(BenchmarkId::new(alg_name, mode), |b| {
                b.iter(|| black_box(engine.search(QUERY, &opts).unwrap().len()))
            });
        }
    }
    group.finish();
}

/// B11: snapshot publish and concurrent-serving costs (the engine
/// publishes immutable `EngineSnapshot` generations).
///
/// `publish_single_tuple/` is the same churn round trip as
/// `scaling/update apply_single_tuple` — insert + apply, delete +
/// apply, i.e. two publishes per iteration — but in the worst serving
/// posture: a live [`SnapshotHandle`](cla_core::SnapshotHandle) makes
/// every publish go through the shared publication cell, and one
/// reader keeps a generation pinned the whole time, which the writer
/// must leave untouched while it copies the latest generation for
/// every build. The acceptance claim is `publish_single_tuple ≤
/// apply_single_tuple · 2` at dept16 (i.e. snapshot publication costs
/// at most one extra apply's worth over `apply_single_tuple`, which
/// takes no handle), with `full_rebuild/` — the `SearchEngine::new` a
/// per-mutation rebuild would pay — as the contrast arm.
///
/// `read_throughput_0w/` vs `read_throughput_1w/` measures one reader's
/// pin-and-search latency with zero and one concurrent writer looping
/// single-tuple publishes as fast as it can: what a saturating writer
/// costs a reader, stated as a before/after pair. The writer compacts
/// every 4096 rounds to keep tombstone churn bounded (same
/// stationarity device as the update group).
fn snapshot_publish(c: &mut Criterion) {
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut group = c.benchmark_group("scaling/snapshot_publish");
    let departments = 16usize;

    let mut engine = synthetic_engine(departments, SEED);
    let dep = engine.db().catalog().relation_id("DEPENDENT").unwrap();
    let emp = engine.db().catalog().relation_id("EMPLOYEE").unwrap();
    let essn: String = engine
        .db()
        .tuples(emp)
        .next()
        .and_then(|(_, t)| t.get(0).and_then(Value::as_text).map(str::to_owned))
        .expect("employees exist");
    let mut handle = engine.snapshots();
    let mut pinned = handle.latest();
    let mut i = 0u64;
    group.bench_function(BenchmarkId::new("publish_single_tuple", departments), |b| {
        b.iter(|| {
            i += 1;
            if i.is_multiple_of(4096) {
                engine = synthetic_engine(departments, SEED);
                handle = engine.snapshots();
                pinned = handle.latest();
            }
            let pk = format!("pz{i}");
            let id = engine
                .insert(dep, vec![pk.as_str().into(), essn.as_str().into(), "Temp".into()])
                .unwrap();
            let _ = engine.apply().unwrap();
            engine.delete(id).unwrap();
            let _ = engine.apply().unwrap();
            black_box(handle.latest().generation())
        })
    });
    // The reader really was pinned behind the writer the whole time:
    // its generation is strictly older than the last published one
    // (each iteration publishes twice past it). `i == 0` means a CLI
    // filter skipped the publish arm entirely — nothing to assert then.
    assert!(
        i == 0 || pinned.generation() < handle.latest().generation(),
        "the pinned reader must hold an older generation than the writer published"
    );
    drop(pinned);

    let base = synthetic_engine(departments, SEED);
    group.bench_function(BenchmarkId::new("full_rebuild", departments), |b| {
        b.iter(|| {
            let e = SearchEngine::new(
                base.db().clone(),
                base.er_schema().clone(),
                base.mapping().clone(),
            )
            .unwrap();
            black_box(e.generation())
        })
    });

    let opts = SearchOptions {
        max_rdb_length: 3,
        compute_instance: false,
        k: Some(10),
        ..Default::default()
    };
    let mut engine = synthetic_engine(departments, SEED);
    let handle = engine.snapshots();
    group.bench_function("read_throughput_0w", |b| {
        b.iter(|| black_box(handle.latest().search(QUERY, &opts).unwrap().len()))
    });

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer_handle = &mut engine;
        let stop_ref = &stop;
        let essn = essn.clone();
        s.spawn(move || {
            let mut j = 0u64;
            while !stop_ref.load(Ordering::Relaxed) {
                j += 1;
                let pk = format!("wz{j}");
                let id = writer_handle
                    .insert(
                        dep,
                        vec![pk.as_str().into(), essn.as_str().into(), "Temp".into()],
                    )
                    .unwrap();
                let _ = writer_handle.apply().unwrap();
                writer_handle.delete(id).unwrap();
                let _ = writer_handle.apply().unwrap();
                if j.is_multiple_of(4096) {
                    let _ = writer_handle.compact().unwrap();
                }
            }
        });
        group.bench_function("read_throughput_1w", |b| {
            b.iter(|| black_box(handle.latest().search(QUERY, &opts).unwrap().len()))
        });
        stop.store(true, Ordering::Relaxed);
    });
    group.finish();
}

/// B12/B13: cold start from a snapshot image vs rebuilding from source.
///
/// Every arm ends at the same place — a ranked answer for `QUERY` — but
/// starts differently. `open_first_answer/` reads the saved image back
/// with [`SearchEngine::open`]: one file read, checksum, and the
/// zero-copy section parse — POD arrays (postings, graph slots) decode
/// once and the CSR and the tuple→node index are built from the graph
/// slots, while the term/alias arenas and the relational rows stay as
/// borrowed views over the image buffer, with the owned database and
/// its hash indexes deferred to the first mutation.
/// `regen_first_answer/` is the true cold-process alternative: nothing
/// exists but the data source, so it regenerates
/// the database *and* runs the tokenize → index → graph → CSR build
/// pipeline. `rebuild_first_answer/` is the generous lower bound for
/// the rebuild side — the database is already in memory and only the
/// engine build runs. The open-vs-regen gap is the B13 claim in
/// EXPERIMENTS.md (the dept1024 arm pins that open stays flat while
/// regen keeps growing); the `scaling/index` lookup bench above keeps
/// the flat dictionary's warm-read parity on record separately.
fn cold_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/cold_open");
    let opts = SearchOptions {
        max_rdb_length: 3,
        compute_instance: false,
        k: Some(10),
        ..Default::default()
    };
    for departments in [16usize, 64, 128, 1024] {
        let engine = synthetic_engine(departments, SEED);
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("cold_open_{departments}_{}.snap", std::process::id()));
        engine.save(&path).unwrap();
        group.bench_function(BenchmarkId::new("open_first_answer", departments), |b| {
            b.iter(|| {
                let e = SearchEngine::open(&path).unwrap();
                black_box(e.search(QUERY, &opts).unwrap().len())
            })
        });
        group.bench_function(BenchmarkId::new("regen_first_answer", departments), |b| {
            b.iter(|| {
                let e = synthetic_engine(departments, SEED);
                black_box(e.search(QUERY, &opts).unwrap().len())
            })
        });
        group.bench_function(BenchmarkId::new("rebuild_first_answer", departments), |b| {
            b.iter(|| {
                let e = SearchEngine::new(
                    engine.db().clone(),
                    engine.er_schema().clone(),
                    engine.mapping().clone(),
                )
                .unwrap();
                black_box(e.search(QUERY, &opts).unwrap().len())
            })
        });
        let _ = std::fs::remove_file(&path);
    }
    group.finish();
}

criterion_group!(
    benches,
    enumerate_scaling,
    topk,
    update_maintenance,
    banks_vs_discover,
    ranking_overhead,
    mtjnt_coverage,
    witness_cost,
    index_scaling,
    budget_overhead,
    snapshot_publish,
    cold_open
);
criterion_main!(benches);
