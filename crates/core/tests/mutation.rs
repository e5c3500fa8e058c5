//! Rebuild-equivalence property tests for the mutation subsystem.
//!
//! The contract under test: after **any** interleaving of tuple
//! inserts, in-place updates, deletes and slot compactions,
//! `SearchEngine::apply`-patched state is indistinguishable from
//! building everything from scratch over the mutated database —
//!
//! * inverted-index postings (term set, posting lists, order invariant,
//!   `indexed_tuples` and therefore every df/idf statistic),
//! * data-graph adjacency as traversals see it (through the CSR),
//! * full ranked `search()` output, for all three algorithms —
//!
//! plus the **atomicity property**: a failed apply (forced mid-apply
//! failpoint or a genuinely dangling reference) leaves `search()`
//! answering identically to pre-mutation, with the engine fresh.
//!
//! Mutations are driven by a seeded generator over the synthetic
//! company-shaped databases, planting, rewriting and removing the bench
//! keywords (`xml`, `smith`, `alice`) so the match sets themselves
//! churn. Every mutation goes through the engine's typed ops.
//!
//! An applied graph numbers an inserted tuple's node after every node
//! before it, whatever its relation, so its node ids no longer follow
//! tuple order; BANKS on such a graph is checked against the eager
//! reference, which breaks ties by tuple.

#[path = "support/banks.rs"]
mod banks_reference;

use banks_reference::banks_naive;
use cla_core::{
    banks_search_budgeted, Algorithm, BanksOptions, BanksScratch, CoreError, DataGraph,
    EdgeWeighting, SearchEngine, SearchOptions,
};
use cla_datagen::{generate_synthetic, SyntheticConfig};
use cla_graph::{EdgeId, NodeId};
use cla_index::InvertedIndex;
use cla_relational::RelationalError::{DeleteRestricted, UpdateRestricted};
use cla_relational::{Database, RelationId, TupleId, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

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

/// Relation handles plus a counter for fresh primary keys (the `z`
/// infix keeps them disjoint from everything the generator produced).
struct Mutator {
    dept: RelationId,
    proj: RelationId,
    wf: RelationId,
    emp: RelationId,
    dep: RelationId,
    fresh: usize,
}

impl Mutator {
    fn new(db: &Database) -> Self {
        let rel = |n: &str| db.catalog().relation_id(n).expect("company relation");
        Mutator {
            dept: rel("DEPARTMENT"),
            proj: rel("PROJECT"),
            wf: rel("WORKS_FOR"),
            emp: rel("EMPLOYEE"),
            dep: rel("DEPENDENT"),
            fresh: 0,
        }
    }

    fn fresh_pk(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}z{}", self.fresh)
    }

    /// A random live tuple of `rel`, with its column-0 value (the key
    /// used by referencing relations).
    fn pick(db: &Database, rel: RelationId, rng: &mut StdRng) -> Option<(TupleId, String)> {
        let rows: Vec<(TupleId, String)> = db
            .tuples(rel)
            .map(|(id, t)| (id, t.get(0).and_then(Value::as_text).unwrap_or("").to_owned()))
            .collect();
        if rows.is_empty() {
            return None;
        }
        let i = rng.random_range(0..rows.len());
        Some(rows[i].clone())
    }

    /// Stage one random mutation through the engine; returns `true` if
    /// the database changed. Restricted deletes/re-keys and duplicate
    /// memberships count as no-ops (the dice simply rolled an
    /// inapplicable op).
    fn random_op(&mut self, w: &mut SearchEngine, rng: &mut StdRng) -> bool {
        let op = rng.random_range(0..12usize);
        self.op(w, rng, op)
    }

    /// Stage mutation `op` of [`Mutator::random_op`]'s twelve, with
    /// random operands.
    fn op(&mut self, w: &mut SearchEngine, rng: &mut StdRng, op: usize) -> bool {
        match op {
            // Insert a dependent of a random employee.
            0 => {
                let Some((_, essn)) = Self::pick(w.db(), self.emp, rng) else { return false };
                let name = if rng.random::<f64>() < 0.5 { "Alice" } else { "Casey" };
                let id = self.fresh_pk("t");
                w.insert(self.dep, vec![id.into(), essn.into(), name.into()]).unwrap();
                true
            }
            // Insert an employee into a random department.
            1 => {
                let Some((_, d)) = Self::pick(w.db(), self.dept, rng) else { return false };
                let surname = if rng.random::<f64>() < 0.5 { "Smith" } else { "Turing" };
                let id = self.fresh_pk("e");
                w.insert(self.emp, vec![id.into(), surname.into(), "Alan".into(), d.into()])
                    .unwrap();
                true
            }
            // Insert a project into a random department.
            2 => {
                let Some((_, d)) = Self::pick(w.db(), self.dept, rng) else { return false };
                let desc = if rng.random::<f64>() < 0.5 {
                    "storage engines and xml pipelines"
                } else {
                    "storage engines and parser pipelines"
                };
                let id = self.fresh_pk("p");
                w.insert(
                    self.proj,
                    vec![id.into(), d.into(), "side project".into(), desc.into()],
                )
                .unwrap();
                true
            }
            // Insert a WORKS_FOR membership (skipped when taken).
            3 => {
                let Some((_, essn)) = Self::pick(w.db(), self.emp, rng) else { return false };
                let Some((_, pid)) = Self::pick(w.db(), self.proj, rng) else { return false };
                let key = [Value::from(essn.as_str()), Value::from(pid.as_str())];
                if w.db().lookup_pk(self.wf, &key).is_some() {
                    return false;
                }
                let hours = rng.random_range(5..80i64);
                w.insert(self.wf, vec![essn.into(), pid.into(), hours.into()]).unwrap();
                true
            }
            // Deletes: leaves always work; employees/projects only once
            // nothing references them (restrict is part of the contract).
            n @ 4..=7 => {
                let rel = [self.dep, self.wf, self.emp, self.proj][n - 4];
                let Some((id, _)) = Self::pick(w.db(), rel, rng) else { return false };
                match w.delete(id) {
                    Ok(()) => true,
                    Err(CoreError::Relational(DeleteRestricted { .. })) => false,
                    Err(e) => panic!("unexpected delete failure: {e}"),
                }
            }
            // In-place update of a dependent's name (text-only diff:
            // flips the `alice` match set under an unchanged TupleId).
            8 => {
                let Some((id, _)) = Self::pick(w.db(), self.dep, rng) else { return false };
                let mut values = w.db().tuple(id).unwrap().values().to_vec();
                let name = if rng.random::<f64>() < 0.5 { "Alice" } else { "Casey" };
                values[2] = name.into();
                w.update(id, values).unwrap();
                true
            }
            // Re-point a dependent to another employee (graph-only
            // rewiring: one edge removed, one added, same node).
            9 => {
                let Some((id, _)) = Self::pick(w.db(), self.dep, rng) else { return false };
                let Some((_, essn)) = Self::pick(w.db(), self.emp, rng) else { return false };
                let mut values = w.db().tuple(id).unwrap().values().to_vec();
                values[1] = essn.into();
                w.update(id, values).unwrap();
                true
            }
            // Update an employee's surname *and* department in one op
            // (index diff and edge rewiring together).
            10 => {
                let Some((id, _)) = Self::pick(w.db(), self.emp, rng) else { return false };
                let Some((_, d)) = Self::pick(w.db(), self.dept, rng) else { return false };
                let mut values = w.db().tuple(id).unwrap().values().to_vec();
                let surname = if rng.random::<f64>() < 0.5 { "Smith" } else { "Turing" };
                values[1] = surname.into();
                values[3] = d.into();
                w.update(id, values).unwrap();
                true
            }
            // Primary-key change (re-key a project): restricted while a
            // WORKS_FOR row references it — restrict is part of the
            // contract, so a blocked re-key is a rolled no-op.
            11 => {
                let Some((id, _)) = Self::pick(w.db(), self.proj, rng) else { return false };
                let mut values = w.db().tuple(id).unwrap().values().to_vec();
                values[0] = self.fresh_pk("p").into();
                match w.update(id, values) {
                    Ok(()) => true,
                    Err(CoreError::Relational(UpdateRestricted { .. })) => false,
                    Err(e) => panic!("unexpected update failure: {e}"),
                }
            }
            _ => unreachable!(),
        }
    }
}

const QUERIES: &[&str] = &["xml smith", "xml alice", "smith alice"];

/// Compare every observable of the patched engine against an engine
/// rebuilt from scratch over the same (mutated) database. Aliases come
/// from the engine itself: after a `compact` they are the remapped
/// ones, which a rebuild over the compacted database must share.
fn assert_matches_rebuild(engine: &SearchEngine, context: &str) -> Result<(), TestCaseError> {
    // 1. Inverted index: postings and statistics.
    let fresh_index = InvertedIndex::build(engine.db());
    prop_assert!(engine.index().posting_order_ok(), "{context}: posting order violated");
    prop_assert_eq!(
        engine.index().indexed_tuples(),
        fresh_index.indexed_tuples(),
        "{}: indexed_tuples diverged",
        context
    );
    let sorted = |idx: &InvertedIndex| {
        let mut v: Vec<(String, Vec<cla_index::Posting>)> =
            idx.terms().map(|(t, l)| (t.to_owned(), l.to_vec())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    };
    prop_assert_eq!(
        sorted(engine.index()),
        sorted(&fresh_index),
        "{}: postings diverged",
        context
    );

    // 2. Data-graph adjacency as traversals see it (tuple-level view —
    // node numbering legitimately differs between patched and rebuilt).
    let fresh_dg = DataGraph::build(engine.db(), engine.mapping()).unwrap();
    let adjacency = |dg: &DataGraph, db: &Database| {
        let mut out: Vec<(TupleId, Vec<(TupleId, usize)>)> = db
            .all_tuple_ids()
            .map(|t| {
                let n = dg.node_of(t).expect("live tuple has a node");
                let mut adj: Vec<(TupleId, usize)> = dg
                    .csr()
                    .neighbors(n)
                    .iter()
                    .map(|&(m, e)| (dg.tuple_of(m), dg.annotation(e).fk_index))
                    .collect();
                adj.sort();
                (t, adj)
            })
            .collect();
        out.sort();
        out
    };
    prop_assert_eq!(
        adjacency(engine.data_graph(), engine.db()),
        adjacency(&fresh_dg, engine.db()),
        "{}: adjacency diverged",
        context
    );
    prop_assert_eq!(engine.data_graph().alive_node_count(), fresh_dg.alive_node_count());
    prop_assert_eq!(engine.data_graph().edge_count(), fresh_dg.edge_count());
    // The published CSR lists, per node, what a scan of its graph's live
    // edge slots finds: out-edges by id, then in-edges other than
    // self-loops by id.
    let csr = engine.data_graph().csr();
    let graph = engine.data_graph().graph();
    let mut scan: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); graph.node_count()];
    for e in graph.edges() {
        scan[e.from.index()].push((e.to, e.id));
    }
    for e in graph.edges().filter(|e| e.from != e.to) {
        scan[e.to.index()].push((e.from, e.id));
    }
    prop_assert_eq!(csr.node_count(), scan.len(), "{}: CSR node slots", context);
    for (n, want) in scan.iter().enumerate() {
        prop_assert_eq!(
            csr.neighbors(NodeId(n as u32)),
            want.as_slice(),
            "{}: CSR at n{}",
            context,
            n
        );
    }

    // 3. Ranked search output, all three algorithms, plus streaming
    // top-k on the Paths pipeline.
    let rebuilt = SearchEngine::new(
        engine.db().clone(),
        engine.er_schema().clone(),
        engine.mapping().clone(),
    )
    .unwrap()
    .with_aliases(engine.aliases().clone());
    let render = |r: &cla_core::SearchResults| {
        r.connections
            .iter()
            .map(|c| (c.rendering.clone(), c.explanation.clone(), c.info.clone()))
            .collect::<Vec<_>>()
    };
    for query in QUERIES {
        for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
            let opts = SearchOptions { algorithm, max_rdb_length: 3, ..Default::default() };
            let a = engine.search(query, &opts).unwrap();
            let b = rebuilt.search(query, &opts).unwrap();
            prop_assert_eq!(
                render(&a),
                render(&b),
                "{}: `{}` via {:?} diverged",
                context,
                query,
                algorithm
            );
            // Trees (≥ 3-keyword shapes don't arise for these 2-keyword
            // queries, but the count must still agree).
            prop_assert_eq!(a.trees.len(), b.trees.len());
        }
        let topk = SearchOptions { k: Some(3), ..Default::default() };
        let a = engine.search(query, &topk).unwrap();
        let b = rebuilt.search(query, &topk).unwrap();
        prop_assert_eq!(render(&a), render(&b), "{}: `{}` top-3 diverged", context, query);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: randomized insert/update/delete
    /// interleavings, applied batch by batch and interleaved with full
    /// slot compactions, keep the patched engine byte-identical to a
    /// from-scratch rebuild — postings, adjacency and ranked results.
    #[test]
    fn incremental_apply_equals_rebuild(seed in 0u64..500) {
        let s = generate_synthetic(&small_config(seed));
        let mut engine = SearchEngine::new(
            s.db.clone(),
            s.er_schema.clone(),
            s.mapping.clone(),
        )
        .unwrap()
        .with_aliases(s.aliases.clone());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f00d);
        let mut mutator = Mutator::new(engine.db());

        for round in 0..3usize {
            let ops = rng.random_range(1..6usize);
            let mut mutated = false;
            for _ in 0..ops {
                mutated |= mutator.random_op(&mut engine, &mut rng);
            }
            // Stale-engine guard: any mutation makes search refuse until
            // the engine is patched.
            if mutated {
                prop_assert!(!engine.is_fresh());
                let err = engine.search("xml smith", &SearchOptions::default());
                prop_assert!(
                    matches!(err, Err(CoreError::StaleEngine { .. })),
                    "round {}: expected StaleEngine, got {:?}",
                    round,
                    err.map(|r| r.len())
                );
            }
            let _ = engine.apply().unwrap();
            prop_assert!(engine.is_fresh());
            assert_matches_rebuild(&engine, &format!("seed {seed} round {round}"))?;

            // Interleaved slot reclamation: renumber ids end to end and
            // re-verify rebuild equivalence over the compacted state.
            if rng.random::<f64>() < 0.4 {
                engine.compact().unwrap();
                prop_assert_eq!(engine.db().total_row_slots(), engine.db().total_tuples());
                prop_assert_eq!(
                    engine.data_graph().node_count(),
                    engine.data_graph().alive_node_count()
                );
                prop_assert_eq!(
                    engine.data_graph().graph().edge_slots(),
                    engine.data_graph().edge_count()
                );
                assert_matches_rebuild(&engine, &format!("seed {seed} round {round} compacted"))?;
            }
        }
    }

    /// Atomicity: a failed apply — whether the `apply.mid` failpoint
    /// (fires after the index patch) or a genuinely dangling
    /// reference in the batch — leaves `search()` answering identically
    /// to pre-mutation for every query and algorithm, with the engine
    /// fresh and immediately usable for a corrected batch. The failure
    /// follows 1–3 successful applies, so it drops a copy of an applied
    /// generation, not of the built one.
    #[test]
    fn failed_apply_serves_pre_mutation_answers(seed in 0u64..500) {
        // The failpoint registry is process-global; the exclusive guard
        // keeps concurrently running fault tests from consuming each
        // other's armed points.
        let _fp = cla_core::failpoints::exclusive();
        cla_core::failpoints::disarm_all();
        let s = generate_synthetic(&small_config(seed));
        let mut engine = SearchEngine::new(
            s.db.clone(),
            s.er_schema.clone(),
            s.mapping.clone(),
        )
        .unwrap()
        .with_aliases(s.aliases.clone());
        engine.enable_failpoints();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97) ^ 0xa70);
        let mut mutator = Mutator::new(engine.db());

        let render = |r: &cla_core::SearchResults| {
            r.connections
                .iter()
                .map(|c| (c.rendering.clone(), c.explanation.clone(), c.info.clone()))
                .collect::<Vec<_>>()
        };
        let snapshot = |engine: &SearchEngine| {
            let mut out = Vec::new();
            for query in QUERIES {
                for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
                    let opts = SearchOptions {
                        algorithm,
                        max_rdb_length: 3,
                        ..Default::default()
                    };
                    out.push(render(&engine.search(query, &opts).unwrap()));
                }
            }
            out
        };
        // 1–3 successful batches first, so the failing apply below
        // builds on an applied generation.
        for _ in 0..rng.random_range(1..4usize) {
            for _ in 0..rng.random_range(1..4usize) {
                mutator.random_op(&mut engine, &mut rng);
            }
            let _ = engine.apply().unwrap();
        }
        let before = snapshot(&engine);

        // A batch of otherwise-good mutations…
        for _ in 0..rng.random_range(1..6usize) {
            mutator.random_op(&mut engine, &mut rng);
        }
        // …failed either by injection (after the index patched) or by a
        // genuinely dangling reference the graph plan rejects.
        if rng.random::<f64>() < 0.5 {
            cla_core::failpoints::arm("apply.mid", cla_core::failpoints::FailpointMode::Once);
        } else {
            engine
                .insert(
                    mutator.dep,
                    vec![
                        mutator.fresh_pk("t").as_str().into(),
                        "no-such-employee".into(),
                        "Ghost".into(),
                    ],
                )
                .unwrap();
        }
        prop_assert!(engine.apply().is_err());
        prop_assert!(engine.is_fresh(), "rollback must leave the engine fresh");
        prop_assert_eq!(
            snapshot(&engine),
            before,
            "seed {}: post-failure answers must equal pre-mutation",
            seed
        );

        // The engine is immediately usable: a corrected batch applies
        // and still matches a from-scratch rebuild.
        let mut mutated = false;
        for _ in 0..3 {
            mutated |= mutator.random_op(&mut engine, &mut rng);
        }
        let _ = engine.apply().unwrap();
        if mutated {
            assert_matches_rebuild(&engine, &format!("seed {seed} post-recovery"))?;
        }
    }

    /// Delete-heavy runs: strip dependents and memberships down to (and
    /// sometimes past) empty match sets, then re-insert. Exercises term
    /// draining, empty keyword sets and node tombstone slots.
    #[test]
    fn deletion_waves_stay_equivalent(seed in 0u64..500) {
        let s = generate_synthetic(&small_config(seed));
        let mut engine = SearchEngine::new(
            s.db.clone(),
            s.er_schema.clone(),
            s.mapping.clone(),
        )
        .unwrap()
        .with_aliases(s.aliases.clone());
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31) ^ 0xdead);
        let mutator = Mutator::new(engine.db());

        // Wave 1: delete every dependent and most memberships.
        let deps: Vec<TupleId> =
            engine.db().tuples(mutator.dep).map(|(id, _)| id).collect();
        for id in deps {
            engine.delete(id).unwrap();
        }
        let wfs: Vec<TupleId> = engine.db().tuples(mutator.wf).map(|(id, _)| id).collect();
        for id in wfs {
            if rng.random::<f64>() < 0.8 {
                engine.delete(id).unwrap();
            }
        }
        let _ = engine.apply().unwrap();
        assert_matches_rebuild(&engine, &format!("seed {seed} wave1"))?;

        // Wave 2: now employees are mostly unreferenced — delete a few,
        // then repopulate dependents (fresh Alices revive that match set).
        let mut mutator = mutator;
        let emps: Vec<TupleId> = engine.db().tuples(mutator.emp).map(|(id, _)| id).collect();
        for id in emps.into_iter().take(4) {
            match engine.delete(id) {
                Ok(()) | Err(CoreError::Relational(DeleteRestricted { .. })) => {}
                Err(e) => panic!("unexpected delete failure: {e}"),
            }
        }
        for _ in 0..5 {
            mutator.random_op(&mut engine, &mut rng);
        }
        let _ = engine.apply().unwrap();
        assert_matches_rebuild(&engine, &format!("seed {seed} wave2"))?;
    }
}

/// The tuples matching each keyword, as nodes of `dg`.
fn keyword_node_sets(
    index: &InvertedIndex,
    dg: &DataGraph,
    keywords: &[&str],
) -> Vec<Vec<NodeId>> {
    keywords
        .iter()
        .map(|kw| {
            index.matching_tuples(kw).into_iter().filter_map(|t| dg.node_of(t)).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// BANKS on an applied graph equals the eager reference: one random
    /// batch inserts into relations that are not the last one (so an
    /// inserted tuple's node id sorts after tuples that follow it) and
    /// memberships, deletes, and re-points foreign keys; then `banks_search_budgeted`
    /// on the published graph returns the reference's trees, in full at
    /// `k: None` and as a prefix at `k`, for the three keyword pairs and
    /// the triple under both weightings. Under two expansion caps it returns the
    /// uncapped answer's certified prefix: the trees below the floor it
    /// reports, cut at `k`. A forest keyed by node id instead of tuple
    /// order breaks ties differently here, while every built or opened
    /// graph numbers its nodes in tuple order.
    #[test]
    fn banks_on_applied_graphs_matches_eager_reference(seed in 0u64..500, k in 1usize..12) {
        let s = generate_synthetic(&small_config(seed));
        let mut engine = SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xba9c5);
        let mut mutator = Mutator::new(engine.db());
        // Inserts of a dependent, an employee and a project (none of them
        // the last relation) and of memberships, deletes, and
        // re-pointing updates.
        const REORDERING_OPS: [usize; 11] = [0, 1, 2, 3, 3, 4, 5, 6, 7, 9, 10];
        mutator.op(&mut engine, &mut rng, 1);
        for _ in 0..rng.random_range(8..20usize) {
            let op = REORDERING_OPS[rng.random_range(0..REORDERING_OPS.len())];
            mutator.op(&mut engine, &mut rng, op);
        }
        let _ = engine.apply().unwrap();
        let dg = engine.data_graph();
        let mut scratch = BanksScratch::new();
        for query in QUERIES.iter().chain(&["xml smith alice"]) {
            let kws: Vec<&str> = query.split(' ').collect();
            let sets = keyword_node_sets(engine.index(), dg, &kws);
            for weighting in [EdgeWeighting::Uniform, EdgeWeighting::ErAware] {
                let all = BanksOptions { k: None, weighting };
                let (want, _) = banks_naive(dg, &sets, &all);
                for opts in [all, BanksOptions { k: Some(k), ..all }] {
                    let (got, work, floor) =
                        banks_search_budgeted(dg, &sets, &opts, &mut scratch, &mut |_| false);
                    let n = opts.k.map_or(want.len(), |k| k.min(want.len()));
                    prop_assert!(floor.is_none());
                    prop_assert_eq!(&got[..], &want[..n], "{:?} {:?} k {:?}", kws, weighting, opts.k);
                    for cap in [work.expansions / 3, work.expansions * 2 / 3] {
                        let (capped, _, floor) = banks_search_budgeted(
                            dg,
                            &sets,
                            &opts,
                            &mut scratch,
                            &mut |spent| spent >= cap,
                        );
                        let certified: Vec<_> = want
                            .iter()
                            .filter(|t| floor.is_none_or(|floor| t.weight < floor))
                            .take(opts.k.unwrap_or(usize::MAX))
                            .cloned()
                            .collect();
                        prop_assert_eq!(
                            capped,
                            certified,
                            "{:?} {:?} k {:?} cap {} floor {:?}",
                            kws,
                            weighting,
                            opts.k,
                            cap,
                            floor
                        );
                    }
                }
            }
        }
    }
}

/// A burst of single-op batches: each dependent insert and each delete
/// is applied as its own batch, so every apply edits the index and the
/// graph and publishes a rebuilt CSR. The inserted dependents are all
/// named Alice, so the `alice` match set churns; every third one stays.
/// Afterwards postings, adjacency and every rendering, explanation and
/// info of all three algorithms match a rebuild built `with_aliases`.
#[test]
fn single_op_burst_equals_rebuild() {
    let s = generate_synthetic(&small_config(7));
    let mut engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
        .unwrap()
        .with_aliases(s.aliases.clone());
    let mutator = Mutator::new(engine.db());
    let essn: String = engine
        .db()
        .tuples(mutator.emp)
        .next()
        .and_then(|(_, t)| t.get(0).and_then(Value::as_text).map(str::to_owned))
        .unwrap();
    let slots = engine.data_graph().node_count();
    let mut kept = 0;
    for i in 0..40 {
        let id = engine
            .insert(
                mutator.dep,
                vec![
                    format!("burst{i}").as_str().into(),
                    essn.as_str().into(),
                    "Alice".into(),
                ],
            )
            .unwrap();
        let _ = engine.apply().unwrap();
        if i % 3 == 0 {
            kept += 1;
        } else {
            engine.delete(id).unwrap();
            let _ = engine.apply().unwrap();
        }
    }
    assert_eq!(engine.generation(), 40 + 40 - kept);
    assert_eq!(engine.data_graph().node_count(), slots + 40, "each insert took a slot");
    assert_eq!(engine.data_graph().alive_node_count(), slots + kept as usize);
    assert_matches_rebuild(&engine, "single-op burst").unwrap();
}
