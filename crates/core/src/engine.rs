//! The classic single-owner engine façade over the snapshot/writer
//! split.
//!
//! [`SearchEngine`] is the single-owner entry point: it owns one
//! [`EngineWriter`] and delegates every read to the latest
//! published [`EngineSnapshot`] generation, every mutation to the
//! writer. New code that wants concurrent readers should take a
//! [`SearchEngine::snapshots`] handle (or use [`EngineWriter`]
//! directly) — each reader thread pins a generation with one read-locked
//! `Arc` clone while this façade keeps mutating.

use crate::connection::Connection;
use crate::datagraph::DataGraph;
use crate::error::CoreError;
use crate::ranking::ConnectionInfo;
use crate::snapshot::{EngineSnapshot, SearchOptions, SearchResults};
use crate::writer::{ApplyOutcome, CompactionPolicy, EngineWriter, SnapshotHandle};
use cla_er::{ErSchema, SchemaMapping};
use cla_graph::NodeId;
use cla_index::{InvertedIndex, KeywordQuery};
use cla_relational::{Database, TupleId, TupleRemap};
use std::collections::HashMap;
use std::sync::Arc;

/// The keyword-search engine over one database.
///
/// The engine owns its database (through an [`EngineWriter`]); stage
/// mutations through the writer's typed ops ([`SearchEngine::writer_mut`])
/// and then call [`SearchEngine::apply`] to publish the next snapshot
/// generation — no rebuild. Until `apply` runs, [`SearchEngine::search`]
/// refuses with [`CoreError::StaleEngine`] instead of silently answering
/// from stale structures (dangling nodes, missing postings, wrong df
/// counts).
///
/// Reads answer from the latest **published** [`EngineSnapshot`]: an
/// immutable, generation-stamped view of everything `search()` needs.
/// [`SearchEngine::snapshots`] hands out a cloneable
/// [`SnapshotHandle`] for reader threads; publishes are atomic `Arc`
/// swaps, so concurrent readers never take a lock and never observe a
/// half-applied mutation batch.
#[derive(Debug)]
pub struct SearchEngine {
    writer: EngineWriter,
}

impl Clone for SearchEngine {
    /// Clones the database and the published content; the clone is an
    /// independent engine with its own publication state (fresh
    /// snapshot handle lineage, empty scratch pool).
    fn clone(&self) -> Self {
        SearchEngine { writer: self.writer.clone_writer() }
    }
}

impl SearchEngine {
    /// Build the engine: validates referential integrity, constructs the
    /// inverted index and the data graph.
    pub fn new(
        db: Database,
        er_schema: ErSchema,
        mapping: SchemaMapping,
    ) -> Result<Self, CoreError> {
        Ok(SearchEngine { writer: EngineWriter::new(db, er_schema, mapping)? })
    }

    /// Attach display aliases (`d1`, `e1`, …) for rendering.
    pub fn with_aliases(mut self, aliases: HashMap<TupleId, String>) -> Self {
        self.writer = self.writer.with_aliases(aliases);
        self
    }

    /// Opt into automatic slot reclamation — see [`CompactionPolicy`].
    pub fn with_compaction_policy(mut self, policy: CompactionPolicy) -> Self {
        self.writer = self.writer.with_compaction_policy(policy);
        self
    }

    /// Save the engine's published state as one offset-addressable,
    /// checksummed snapshot image at `path` (atomic rename; staged
    /// mutations must be applied first — see [`EngineWriter::save`]).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CoreError> {
        self.writer.save(path)
    }

    /// Cold-start an engine from a snapshot image written by
    /// [`SearchEngine::save`]: section reads plus validation instead of
    /// the whole build pipeline, answering byte-identically to a
    /// rebuilt engine and staying fully mutable ([`SearchEngine::apply`]
    /// and [`SearchEngine::compact`] work on the opened engine).
    /// Corrupt or version-incompatible files are rejected with
    /// [`CoreError::Snapshot`] — never a panic.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, CoreError> {
        Ok(SearchEngine { writer: EngineWriter::open(path)? })
    }

    /// The engine's auto-compaction policy.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.writer.compaction_policy()
    }

    /// The single writer behind this façade, for callers stepping up to
    /// the explicit snapshot API.
    pub fn writer(&self) -> &EngineWriter {
        &self.writer
    }

    /// Mutable access to the writer (typed mutations:
    /// [`EngineWriter::insert`] / [`EngineWriter::update`] /
    /// [`EngineWriter::delete`], then [`SearchEngine::apply`]).
    pub fn writer_mut(&mut self) -> &mut EngineWriter {
        &mut self.writer
    }

    /// A cloneable entry point for reader threads: each
    /// [`SnapshotHandle::latest`] call takes a read lock for one `Arc`
    /// clone to pin the most recently published generation, which stays
    /// alive and byte-stable while this engine keeps applying and
    /// compacting. See [`EngineSnapshot`] for the consistency model.
    pub fn snapshots(&self) -> SnapshotHandle {
        self.writer.handle()
    }

    /// Pin the latest published snapshot directly.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.writer.snapshot()
    }

    /// The latest published snapshot, by reference.
    fn current(&self) -> &EngineSnapshot {
        self.writer.current_ref()
    }

    /// Publication ordinal of the latest snapshot (0 for a freshly
    /// built engine, +1 per published apply/compact).
    pub fn generation(&self) -> u64 {
        self.writer.generation()
    }

    /// `true` when the published structures reflect the database's
    /// current version.
    pub fn is_fresh(&self) -> bool {
        self.writer.is_fresh()
    }

    /// Opt this engine into the process-global
    /// [`failpoints`](crate::failpoints) registry: armed points fire
    /// inside this engine's pipelines (`apply.mid` forces the apply
    /// rollback path, `pool.return` panics while holding the
    /// scratch-pool lock, `banks.settle` forces a budget trip in the
    /// BANKS expansion).
    /// Fault-injection instrumentation — not part of the search
    /// contract. Engines built while `CLA_FAILPOINTS` is set are
    /// enabled automatically.
    pub fn enable_failpoints(&mut self) {
        self.writer.enable_failpoints()
    }

    /// Drain the database's pending mutations and publish the next
    /// snapshot generation — see [`EngineWriter::apply`] for the full
    /// contract (atomicity, rollback, auto-compaction). Each apply costs
    /// `O(slots)`, tombstoned ones included, so a writer with steady
    /// churn should call [`SearchEngine::compact`] on a schedule.
    /// After a successful apply the engine answers exactly like a
    /// freshly built [`SearchEngine::new`] over the mutated database —
    /// the rebuild-equivalence property the mutation test suite pins
    /// down.
    pub fn apply(&mut self) -> Result<ApplyOutcome, CoreError> {
        self.writer.apply()
    }

    /// Reclaim every tombstoned slot end to end and publish the
    /// compacted state — see [`EngineWriter::compact`]. **Every
    /// outstanding [`TupleId`] is invalidated**; remap id-keyed caller
    /// state through the returned table.
    pub fn compact(&mut self) -> Result<TupleRemap, CoreError> {
        self.writer.compact()
    }

    /// The underlying database (materializes a zero-copy-opened
    /// engine's lazy store on first call).
    pub fn db(&self) -> &Database {
        self.writer.db()
    }

    /// `true` once the owned database (with its PK/reverse-FK hash
    /// indexes) exists — immediately for a built engine, only after the
    /// first mutation or `db()` borrow for a zero-copy-opened one.
    pub fn db_materialized(&self) -> bool {
        self.writer.db_materialized()
    }

    /// The ER schema.
    pub fn er_schema(&self) -> &ErSchema {
        self.current().er_schema()
    }

    /// The mapping provenance.
    pub fn mapping(&self) -> &SchemaMapping {
        self.current().mapping()
    }

    /// The inverted index (of the latest published generation).
    pub fn index(&self) -> &InvertedIndex {
        self.current().index()
    }

    /// The data graph (of the latest published generation).
    pub fn data_graph(&self) -> &DataGraph {
        self.current().data_graph()
    }

    /// Display aliases.
    pub fn aliases(&self) -> &HashMap<TupleId, String> {
        self.current().aliases()
    }

    /// Tuples matching each keyword of `query`, in keyword order.
    ///
    /// Like every read path, answers from the published snapshot: after
    /// a staged mutation the result reflects the pre-mutation state
    /// until [`SearchEngine::apply`] runs (debug-asserted;
    /// [`SearchEngine::search`] is the checked entry point and refuses
    /// with [`CoreError::StaleEngine`]).
    pub fn keyword_matches(&self, query: &KeywordQuery) -> Vec<(String, Vec<TupleId>)> {
        debug_assert!(self.is_fresh(), "keyword_matches on a stale engine — apply() first");
        self.current().keyword_matches(query)
    }

    /// Keyword markers per node for rendering: which display keywords
    /// each matched tuple carries.
    pub fn markers(
        &self,
        query: &KeywordQuery,
        display_keywords: &[String],
    ) -> HashMap<NodeId, Vec<String>> {
        debug_assert!(self.is_fresh(), "markers on a stale engine — apply() first");
        self.current().markers(query, display_keywords)
    }

    /// The connection following exactly the given tuple sequence, if the
    /// corresponding foreign-key path exists. Used by the experiment
    /// harness to address the paper's connections 1–9 by name. Answers
    /// from the published snapshot — stale after an un-applied mutation
    /// (debug-asserted; see [`SearchEngine::apply`]).
    pub fn connection_following(&self, tuples: &[TupleId]) -> Option<Connection> {
        debug_assert!(
            self.is_fresh(),
            "connection_following on a stale engine — apply() first"
        );
        self.current().connection_following(tuples)
    }

    /// Compute the ranking metrics of a connection for a query.
    ///
    /// Reads postings/df and graph annotations from the published
    /// snapshot — stale after an un-applied mutation (debug-asserted;
    /// [`SearchEngine::search`] is the checked entry point).
    pub fn connection_info(
        &self,
        conn: &Connection,
        query: &KeywordQuery,
        compute_instance: bool,
        max_witness_length: usize,
    ) -> ConnectionInfo {
        debug_assert!(self.is_fresh(), "connection_info on a stale engine — apply() first");
        self.current().connection_info(conn, query, compute_instance, max_witness_length)
    }

    /// Run a keyword search on the latest published generation.
    ///
    /// Fails with [`CoreError::StaleEngine`] when mutations were staged
    /// through the writer without a subsequent [`SearchEngine::apply`] —
    /// searching stale structures would return silently wrong results,
    /// so the engine refuses instead. Reader threads that pinned a
    /// snapshot are exempt: a pinned generation is always internally
    /// consistent, by construction (see [`EngineSnapshot::search`] for
    /// the query contract — `EmptyQuery` semantics, `k` edge cases).
    pub fn search(
        &self,
        raw_query: &str,
        options: &SearchOptions,
    ) -> Result<SearchResults, CoreError> {
        if !self.is_fresh() {
            return Err(self.writer.stale_error());
        }
        self.current().search(raw_query, options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoints;
    use crate::ranking::RankStrategy;
    use crate::snapshot::{Algorithm, RankedConnection};
    use cla_datagen::company;
    use cla_er::Closeness;

    fn engine() -> SearchEngine {
        let c = company();
        SearchEngine::new(c.db, c.er_schema, c.mapping).unwrap().with_aliases(c.aliases)
    }

    #[test]
    fn smith_xml_finds_the_papers_connections() {
        let e = engine();
        let results = e.search("Smith XML", &SearchOptions::default()).unwrap();
        let renderings: Vec<&str> =
            results.connections.iter().map(|r| r.rendering.as_str()).collect();
        // All seven Table 2 connections for this query must be present.
        // The engine canonicalizes orientation by ascending node id
        // (departments < employees < projects in insertion order), so
        // some connections read right-to-left relative to the paper.
        for expect in [
            "d1(XML) – e1(Smith)",
            "e1(Smith) – w_f1 – p1(XML)",
            "e1(Smith) – d1(XML) – p1(XML)",
            "d1(XML) – p1(XML) – w_f1 – e1(Smith)",
            "d2(XML) – e2(Smith)",
            "e2(Smith) – d2(XML) – p2(XML)",
            "d2(XML) – p3 – w_f2 – e2(Smith)",
        ] {
            assert!(renderings.contains(&expect), "missing {expect}; got {renderings:#?}");
        }
    }

    #[test]
    fn close_first_ranking_order_matches_paper() {
        let e = engine();
        let results = e.search("Smith XML", &SearchOptions::default()).unwrap();
        let close_count = results
            .connections
            .iter()
            .take_while(|r| r.info.closeness == Closeness::Close)
            .count();
        // The three close connections (1, 2, 5) come first…
        assert_eq!(close_count, 3);
        // …and the transitive-N:M connections (3, 6) come last.
        let last_two: Vec<usize> =
            results.connections.iter().rev().take(2).map(|r| r.info.nm_count).collect();
        assert_eq!(last_two, vec![1, 1]);
    }

    #[test]
    fn mtjnt_only_loses_3_4_6_7() {
        let e = engine();
        let opts = SearchOptions { mtjnt_only: true, ..Default::default() };
        let results = e.search("Smith XML", &opts).unwrap();
        let renderings: Vec<&str> =
            results.connections.iter().map(|r| r.rendering.as_str()).collect();
        assert_eq!(
            renderings,
            vec!["d1(XML) – e1(Smith)", "d2(XML) – e2(Smith)", "e1(Smith) – w_f1 – p1(XML)",]
        );
    }

    #[test]
    fn discover_equals_paths_plus_mtjnt_filter() {
        let e = engine();
        let a = e
            .search("Smith XML", &SearchOptions { mtjnt_only: true, ..Default::default() })
            .unwrap();
        let b = e
            .search(
                "Smith XML",
                &SearchOptions { algorithm: Algorithm::Discover, ..Default::default() },
            )
            .unwrap();
        let ra: Vec<&str> = a.connections.iter().map(|r| r.rendering.as_str()).collect();
        let rb: Vec<&str> = b.connections.iter().map(|r| r.rendering.as_str()).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn banks_finds_short_connections_first() {
        let e = engine();
        let opts = SearchOptions { algorithm: Algorithm::Banks, ..Default::default() };
        let results = e.search("Smith XML", &opts).unwrap();
        assert!(!results.connections.is_empty());
        // BANKS returns shortest-weight trees; the immediate connections
        // must be among them.
        let renderings: Vec<&str> =
            results.connections.iter().map(|r| r.rendering.as_str()).collect();
        assert!(renderings.contains(&"d1(XML) – e1(Smith)"));
        assert!(renderings.contains(&"d2(XML) – e2(Smith)"));
        assert!(results.trees.is_empty(), "two-keyword trees are paths");
    }

    #[test]
    fn three_keyword_banks_query_produces_results() {
        let e = engine();
        let opts = SearchOptions { algorithm: Algorithm::Banks, ..Default::default() };
        let results = e.search("Alice Miller teaching", &opts).unwrap();
        assert!(!results.is_empty());
    }

    #[test]
    fn single_keyword_returns_matching_tuples() {
        let e = engine();
        let results = e.search("XML", &SearchOptions::default()).unwrap();
        let renderings: Vec<&str> =
            results.connections.iter().map(|r| r.rendering.as_str()).collect();
        // p2 mentions XML twice (name and description) and therefore
        // wins the text-score tie-break; the rest tie and sort by
        // rendering.
        assert_eq!(renderings, vec!["p2(XML)", "d1(XML)", "d2(XML)", "p1(XML)"]);
    }

    #[test]
    fn unmatched_keyword_gives_empty_results() {
        let e = engine();
        let results = e.search("Smith quantum", &SearchOptions::default()).unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn empty_query_is_an_error() {
        let e = engine();
        assert!(matches!(
            e.search("   ", &SearchOptions::default()),
            Err(CoreError::EmptyQuery { .. })
        ));
    }

    /// Queries normalizing to zero tokens under the index tokenizer
    /// (punctuation-only, stopwords-only, below `min_len`) raise
    /// `EmptyQuery` consistently across all three algorithms instead of
    /// silently returning nothing — *unless* the keyword's whole-value
    /// fallback ([`InvertedIndex::lookup`]'s documented semantics)
    /// still finds postings, in which case the query is answerable and
    /// must answer.
    #[test]
    fn token_free_query_is_empty_query_for_every_algorithm() {
        let e = engine();
        for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
            let opts = SearchOptions { algorithm, ..Default::default() };
            // Vacuous whether alone or alongside an answerable keyword:
            // conjunctive semantics make the whole query unanswerable.
            for q in ["!!!", "... ---", "?!", "Smith !!!"] {
                let err = e.search(q, &opts);
                assert!(
                    matches!(err, Err(CoreError::EmptyQuery { .. })),
                    "{algorithm:?} `{q}`: got {err:?}"
                );
            }
        }

        // A token-free keyword that matches a *whole attribute value*
        // is answerable through lookup's fallback, not an error.
        use cla_er::{map_to_relational, ErSchemaBuilder};
        use cla_relational::{DataType, Database};
        let er = ErSchemaBuilder::new()
            .entity("NOTE", |e| e.key("ID", DataType::Text).attr("BODY", DataType::Text))
            .build()
            .unwrap();
        let mapping = map_to_relational(&er).unwrap();
        let mut db = Database::new(mapping.catalog().clone()).unwrap();
        let note = db.catalog().relation_id("NOTE").unwrap();
        db.insert(note, vec!["n1".into(), "!!!".into()]).unwrap();
        let symbol_engine = SearchEngine::new(db, er, mapping).unwrap();
        let hits = symbol_engine.search("!!!", &SearchOptions::default()).unwrap();
        assert_eq!(hits.len(), 1, "whole-value fallback must keep answering");
    }

    /// The `k` edge cases, pinned for all three algorithms: `Some(0)`
    /// returns empty results without enumerating (and without
    /// panicking); `Some(usize::MAX)` behaves like an unbounded search.
    #[test]
    fn k_zero_and_k_max_edge_cases_shared_across_algorithms() {
        let e = engine();
        for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
            let base = SearchOptions { algorithm, ..Default::default() };
            let zero = e.search("Smith XML", &SearchOptions { k: Some(0), ..base }).unwrap();
            assert!(zero.connections.is_empty(), "{algorithm:?}");
            assert!(zero.trees.is_empty(), "{algorithm:?}");
            assert_eq!(zero.stats.expansions, 0, "{algorithm:?}: k=0 must not search");

            let unbounded = e.search("Smith XML", &base).unwrap();
            let maxed = e
                .search("Smith XML", &SearchOptions { k: Some(usize::MAX), ..base })
                .unwrap();
            assert_eq!(
                unbounded.connections.iter().map(|c| &c.rendering).collect::<Vec<_>>(),
                maxed.connections.iter().map(|c| &c.rendering).collect::<Vec<_>>(),
                "{algorithm:?}: k=MAX must equal the unbounded search"
            );
            assert_eq!(unbounded.trees.len(), maxed.trees.len(), "{algorithm:?}");
        }
    }

    /// A length bound past the longest simple path the graph holds (its
    /// live nodes less one) finds nothing more: `usize::MAX` answers
    /// like that bound for every algorithm, with and without k, rather
    /// than overflowing DISCOVER's network size or running the Paths
    /// levels up to it.
    #[test]
    fn length_bound_past_the_graph_answers_like_the_longest_path() {
        let e = engine();
        let longest = e.data_graph().alive_node_count() - 1;
        let cases = [
            (Algorithm::Discover, "xml smith alice"),
            (Algorithm::Discover, "alice teaching"),
            (Algorithm::Banks, "xml smith alice"),
            (Algorithm::Paths, "alice teaching"),
        ];
        for (algorithm, query) in cases {
            for k in [None, Some(3), Some(50)] {
                let base = SearchOptions { algorithm, k, ..Default::default() };
                let run = |max_rdb_length| {
                    e.search(query, &SearchOptions { max_rdb_length, ..base }).unwrap()
                };
                let (unbounded, clamped) = (run(usize::MAX), run(longest));
                let view = |r: &SearchResults| {
                    let connections: Vec<_> = r
                        .connections
                        .iter()
                        .map(|c| (c.connection.clone(), c.info.clone(), c.rendering.clone()))
                        .collect();
                    (connections, r.trees.clone())
                };
                assert_eq!(
                    view(&unbounded),
                    view(&clamped),
                    "{algorithm:?} {query:?} k={k:?}"
                );
                assert!(!unbounded.is_empty(), "{algorithm:?} {query:?} k={k:?}");
            }
        }
    }

    #[test]
    fn paths_with_three_keywords_is_an_error() {
        let e = engine();
        // All three keywords match tuples, so the request reaches the
        // algorithm check and is rejected for Paths.
        let err = e.search("Smith XML Alice", &SearchOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn k_truncates_results() {
        let e = engine();
        let opts = SearchOptions { k: Some(2), ..Default::default() };
        let results = e.search("Smith XML", &opts).unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn k_zero_returns_nothing() {
        let e = engine();
        for ranker in
            [RankStrategy::CloseFirst, RankStrategy::Combined { structure_weight: 1.0 }]
        {
            let opts = SearchOptions { k: Some(0), ranker, ..Default::default() };
            let results = e.search("Smith XML", &opts).unwrap();
            assert!(results.connections.is_empty());
            assert!(results.trees.is_empty());
        }
    }

    #[test]
    fn streaming_topk_terminates_early_and_matches_prefix() {
        let e = engine();
        let base = SearchOptions::default();
        let full = e.search("Smith XML", &base).unwrap();
        let stream = e.search("Smith XML", &SearchOptions { k: Some(1), ..base }).unwrap();
        assert!(stream.stats.early_terminated);
        assert!(stream.stats.expansions < full.stats.expansions);
        assert_eq!(stream.connections[0].rendering, full.connections[0].rendering);
        // `Combined` has no length bound, so it runs one DFS to the
        // length budget into one merge, and still returns the same best
        // result.
        let combined = RankStrategy::Combined { structure_weight: 1.0 };
        let batch = e
            .search("Smith XML", &SearchOptions { k: Some(1), ranker: combined, ..base })
            .unwrap();
        assert_eq!(batch.connections.len(), 1);
        assert!(!batch.stats.early_terminated);
    }

    #[test]
    fn k_budget_is_shared_between_connections_and_trees() {
        let e = engine();
        for k in [1usize, 2, 4] {
            let opts = SearchOptions {
                algorithm: Algorithm::Banks,
                k: Some(k),
                ..Default::default()
            };
            let results = e.search("Alice Miller teaching", &opts).unwrap();
            assert!(
                results.connections.len() + results.trees.len() <= k,
                "k={k}: {} connections + {} trees",
                results.connections.len(),
                results.trees.len()
            );
        }
    }

    #[test]
    fn tuple_matching_both_keywords_stands_alone() {
        let e = engine();
        // d1's description contains both "teaching" and "xml".
        let results = e.search("teaching XML", &SearchOptions::default()).unwrap();
        let singles: Vec<&RankedConnection> =
            results.connections.iter().filter(|r| r.connection.rdb_length() == 0).collect();
        assert!(!singles.is_empty());
        assert!(singles.iter().any(|r| r.rendering.starts_with("d1(")));
    }

    #[test]
    fn instance_closeness_annotated() {
        let e = engine();
        let results = e.search("Smith XML", &SearchOptions::default()).unwrap();
        for r in &results.connections {
            assert!(r.info.instance_close.is_some());
        }
        // Connection 6 (p2–d2–e2, canonically e2-first) is loose at the
        // instance level: Barbara does not work on p2.
        let loose: Vec<&str> = results
            .connections
            .iter()
            .filter(|r| r.info.instance_close == Some(false))
            .map(|r| r.rendering.as_str())
            .collect();
        assert!(
            loose.contains(&"e2(Smith) – d2(XML) – p2(XML)"),
            "connection 6 must be instance-loose; loose set: {loose:#?}"
        );
    }

    #[test]
    fn display_keywords_keep_original_case() {
        let e = engine();
        let results = e.search("Smith XML", &SearchOptions::default()).unwrap();
        assert_eq!(results.display_keywords, vec!["Smith", "XML"]);
    }

    #[test]
    fn stale_engine_refuses_to_search_until_applied() {
        let mut e = engine();
        assert!(e.is_fresh());
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        e.writer_mut()
            .insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()])
            .unwrap();
        assert!(!e.is_fresh());
        let err = e.search("Smith XML", &SearchOptions::default()).unwrap_err();
        assert!(matches!(err, CoreError::StaleEngine { .. }), "got {err:?}");
        let _ = e.apply().unwrap();
        assert!(e.is_fresh());
        let results = e.search("Smith XML", &SearchOptions::default()).unwrap();
        // The new Smith in d1 contributes (at least) the immediate
        // d1(XML) – e9 connection.
        assert!(
            results.connections.iter().any(|r| r.rendering == "d1(XML) – R1#4(Smith)"),
            "freshly inserted tuple must be searchable: {:#?}",
            results.connections.iter().map(|r| &r.rendering).collect::<Vec<_>>()
        );
    }

    /// After a batch of inserts and deletes, the patched engine must
    /// answer exactly like an engine rebuilt from scratch — for every
    /// algorithm.
    #[test]
    fn apply_matches_rebuild_end_to_end() {
        let c = company();
        let mut e = SearchEngine::new(c.db.clone(), c.er_schema.clone(), c.mapping.clone())
            .unwrap()
            .with_aliases(c.aliases.clone());
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        let wf = e.db().catalog().relation_id("WORKS_FOR").unwrap();
        // New Smith employee in d2, working on p1; remove w_f2 (e2–p3).
        e.writer_mut()
            .insert(emp, vec!["e9".into(), "Smith".into(), "Ada".into(), "d2".into()])
            .unwrap();
        e.writer_mut().insert(wf, vec!["e9".into(), "p1".into(), 12i64.into()]).unwrap();
        e.writer_mut().delete(c.tuple("w_f2").unwrap()).unwrap();
        let _ = e.apply().unwrap();

        let rebuilt =
            SearchEngine::new(e.db().clone(), c.er_schema.clone(), c.mapping.clone())
                .unwrap()
                .with_aliases(c.aliases.clone());
        for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
            let opts = SearchOptions { algorithm, ..Default::default() };
            let a = e.search("Smith XML", &opts).unwrap();
            let b = rebuilt.search("Smith XML", &opts).unwrap();
            let ra: Vec<(&str, &str)> = a
                .connections
                .iter()
                .map(|r| (r.rendering.as_str(), r.explanation.as_str()))
                .collect();
            let rb: Vec<(&str, &str)> = b
                .connections
                .iter()
                .map(|r| (r.rendering.as_str(), r.explanation.as_str()))
                .collect();
            assert_eq!(ra, rb, "{algorithm:?}");
            for (x, y) in a.connections.iter().zip(&b.connections) {
                assert_eq!(x.info, y.info, "{algorithm:?}");
            }
        }
    }

    /// In-place updates flow through apply like any other mutation and
    /// keep the patched engine rebuild-equivalent.
    #[test]
    fn update_applies_and_matches_rebuild() {
        let c = company();
        let mut e = SearchEngine::new(c.db.clone(), c.er_schema.clone(), c.mapping.clone())
            .unwrap()
            .with_aliases(c.aliases.clone());
        let e2 = c.tuple("e2").unwrap();
        // Move e2 (a Smith) from d2 to d1 and rename — same TupleId.
        e.writer_mut()
            .update(e2, vec!["e2".into(), "Smith".into(), "Barb".into(), "d1".into()])
            .unwrap();
        let _ = e.apply().unwrap();
        assert!(e.is_fresh());

        let rebuilt =
            SearchEngine::new(e.db().clone(), c.er_schema.clone(), c.mapping.clone())
                .unwrap()
                .with_aliases(c.aliases.clone());
        for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
            let opts = SearchOptions { algorithm, ..Default::default() };
            let a = e.search("Smith XML", &opts).unwrap();
            let b = rebuilt.search("Smith XML", &opts).unwrap();
            assert_eq!(
                a.connections.iter().map(|r| &r.rendering).collect::<Vec<_>>(),
                b.connections.iter().map(|r| &r.rendering).collect::<Vec<_>>(),
                "{algorithm:?}"
            );
        }
        // The alias (keyed by the preserved id) still renders e2.
        assert!(e
            .search("Smith XML", &SearchOptions::default())
            .unwrap()
            .connections
            .iter()
            .any(|r| r.rendering.contains("e2(Smith)")));
    }

    /// `compact` reclaims every tombstoned slot end to end and leaves
    /// the engine rebuild-equivalent over the renumbered database.
    #[test]
    fn compact_reclaims_slots_and_stays_rebuild_equivalent() {
        let c = company();
        let mut e = SearchEngine::new(c.db.clone(), c.er_schema.clone(), c.mapping.clone())
            .unwrap()
            .with_aliases(c.aliases.clone());
        // Churn: delete a dependent and a membership, add an employee.
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        e.writer_mut().delete(c.tuple("t1").unwrap()).unwrap();
        e.writer_mut().delete(c.tuple("w_f2").unwrap()).unwrap();
        e.writer_mut()
            .insert(emp, vec!["e9".into(), "Smith".into(), "Ada".into(), "d2".into()])
            .unwrap();
        let _ = e.apply().unwrap();
        assert!(e.db().total_row_slots() > e.db().total_tuples(), "churn left tombstones");

        // Compacting a stale engine is refused.
        let mut stale =
            SearchEngine::new(c.db.clone(), c.er_schema.clone(), c.mapping.clone()).unwrap();
        stale
            .writer_mut()
            .insert(emp, vec!["zz".into(), "S".into(), "T".into(), "d1".into()])
            .unwrap();
        assert!(matches!(stale.compact(), Err(CoreError::StaleEngine { .. })));

        let before = e.search("Smith XML", &SearchOptions::default()).unwrap();
        let remap = e.compact().unwrap();
        assert!(remap.reclaimed() > 0);
        // Zero tombstoned slots anywhere.
        assert_eq!(e.db().total_row_slots(), e.db().total_tuples());
        assert_eq!(e.data_graph().node_count(), e.data_graph().alive_node_count());
        assert_eq!(e.data_graph().graph().edge_slots(), e.data_graph().edge_count());

        // Rebuild equivalence over the compacted database, all three
        // algorithms — and the pre-compaction ranked output is unchanged
        // (renderings key on aliases/labels, not raw ids).
        let rebuilt =
            SearchEngine::new(e.db().clone(), c.er_schema.clone(), c.mapping.clone())
                .unwrap()
                .with_aliases(e.aliases().clone());
        for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
            let opts = SearchOptions { algorithm, ..Default::default() };
            let a = e.search("Smith XML", &opts).unwrap();
            let b = rebuilt.search("Smith XML", &opts).unwrap();
            assert_eq!(
                a.connections
                    .iter()
                    .map(|r| (r.rendering.as_str(), r.explanation.as_str()))
                    .collect::<Vec<_>>(),
                b.connections
                    .iter()
                    .map(|r| (r.rendering.as_str(), r.explanation.as_str()))
                    .collect::<Vec<_>>(),
                "{algorithm:?}"
            );
        }
        let after = e.search("Smith XML", &SearchOptions::default()).unwrap();
        assert_eq!(
            before.connections.iter().map(|r| &r.rendering).collect::<Vec<_>>(),
            after.connections.iter().map(|r| &r.rendering).collect::<Vec<_>>()
        );
        // Post-compaction mutations keep working against the new ids.
        let e9 = e.db().lookup_pk(emp, &["e9".into()]).unwrap();
        e.writer_mut().delete(e9).unwrap();
        let _ = e.apply().unwrap();
        e.search("Smith XML", &SearchOptions::default()).unwrap();
    }

    /// The opt-in tombstone-ratio policy compacts through `apply` and
    /// surfaces the remap; the default `Manual` policy never does.
    #[test]
    fn auto_compaction_triggers_at_tombstone_ratio_and_surfaces_remap() {
        let c = company();
        let mut e = SearchEngine::new(c.db.clone(), c.er_schema.clone(), c.mapping.clone())
            .unwrap()
            .with_aliases(c.aliases.clone())
            .with_compaction_policy(CompactionPolicy::TombstoneRatio(0.05));
        assert_eq!(
            e.compaction_policy(),
            CompactionPolicy::TombstoneRatio(0.05),
            "policy is recorded"
        );
        let e1 = c.tuple("e1").unwrap();
        e.writer_mut().delete(c.tuple("t1").unwrap()).unwrap();
        let outcome = e.apply().unwrap();
        let remap = outcome.compaction.expect("one dead slot among ~17 crosses 5%");
        assert!(remap.reclaimed() > 0);
        assert_eq!(e.db().total_row_slots(), e.db().total_tuples(), "zero tombstones left");
        // Caller-held ids route through the surfaced remap.
        let new_e1 = remap.map(e1).expect("live tuples survive compaction");
        assert!(e.db().tuple(new_e1).is_some());
        // The engine keeps answering normally on the renumbered ids.
        assert!(!e.search("Smith XML", &SearchOptions::default()).unwrap().is_empty());

        // Default policy: same churn, no compaction, tombstone remains.
        let mut manual =
            SearchEngine::new(c.db.clone(), c.er_schema.clone(), c.mapping.clone()).unwrap();
        manual.writer_mut().delete(c.tuple("t1").unwrap()).unwrap();
        let outcome = manual.apply().unwrap();
        assert!(outcome.compaction.is_none());
        assert!(manual.db().total_row_slots() > manual.db().total_tuples());
    }

    /// Re-pointing updates tombstone edge slots without freeing a row,
    /// and the tombstone-ratio policy counts those too: repeated
    /// re-points of one employee compact once the dead edge slots reach
    /// the fraction, and leave no dead edge slot behind.
    #[test]
    fn auto_compaction_counts_edge_slots_tombstoned_by_repoints() {
        let c = company();
        let mut e = SearchEngine::new(c.db.clone(), c.er_schema.clone(), c.mapping.clone())
            .unwrap()
            .with_compaction_policy(CompactionPolicy::TombstoneRatio(0.25));
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        let mut compactions = 0;
        for round in 0..40 {
            let e1 = e.db().lookup_pk(emp, &["e1".into()]).unwrap();
            let mut values = e.db().tuple(e1).unwrap().values().to_vec();
            values[3] = if round % 2 == 0 { "d2" } else { "d1" }.into();
            e.writer_mut().update(e1, values).unwrap();
            let outcome = e.apply().unwrap();
            let graph = e.snapshot().data_graph().graph().clone();
            if outcome.compaction.is_some() {
                compactions += 1;
                assert_eq!(graph.edge_slots(), graph.edge_count(), "round {round}");
            } else {
                let dead = graph.edge_slots() - graph.edge_count();
                assert!((dead as f64) < 0.25 * graph.edge_slots() as f64, "round {round}");
            }
        }
        assert!(compactions > 0, "re-points must trigger the policy");
        assert_eq!(e.db().total_row_slots(), e.db().total_tuples(), "no row ever died");
    }

    /// The typed writer mutation path stages, applies and publishes,
    /// and each publish bumps the snapshot generation without
    /// disturbing previously pinned generations.
    #[test]
    fn typed_writer_path_mutates_and_publishes_generations() {
        let mut e = engine();
        assert_eq!(e.generation(), 0);
        let before = e.snapshot();
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        let id = e
            .writer_mut()
            .insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()])
            .unwrap();
        // Staged but unpublished: the façade refuses, the pinned
        // snapshot still answers.
        assert!(matches!(
            e.search("Zoe", &SearchOptions::default()),
            Err(CoreError::StaleEngine { .. })
        ));
        assert!(before.search("Smith XML", &SearchOptions::default()).is_ok());
        let outcome = e.apply().unwrap();
        assert!(outcome.compaction.is_none());
        assert_eq!(e.generation(), 1);
        assert!(!e.search("Zoe", &SearchOptions::default()).unwrap().is_empty());
        // In-place update and delete through the same path.
        e.writer_mut()
            .update(id, vec!["e9".into(), "Smith".into(), "Zia".into(), "d1".into()])
            .unwrap();
        let _ = e.apply().unwrap();
        assert!(!e.search("Zia", &SearchOptions::default()).unwrap().is_empty());
        e.writer_mut().delete(id).unwrap();
        let _ = e.apply().unwrap();
        assert_eq!(e.generation(), 3);
        assert!(e.search("Zia", &SearchOptions::default()).unwrap().is_empty());
        // The generation-0 pin never moved.
        assert_eq!(before.generation(), 0);
        assert!(before.search("Zia", &SearchOptions::default()).unwrap().is_empty());
    }

    /// A failed apply is a rejected transaction: every patched
    /// structure *and* the database batch roll back, and the engine
    /// keeps serving the pre-mutation answers.
    #[test]
    fn failed_apply_rolls_back_and_keeps_serving() {
        let mut e = engine();
        let before = e.search("Smith XML", &SearchOptions::default()).unwrap();
        let dep = e.db().catalog().relation_id("DEPENDENT").unwrap();
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        // A good insert and a dangling one in the same batch: the batch
        // fails wholesale, like a rebuild's validation would.
        e.writer_mut()
            .insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()])
            .unwrap();
        e.writer_mut()
            .insert(dep, vec!["t9".into(), "e-missing".into(), "X".into()])
            .unwrap();
        let err = e.apply().unwrap_err();
        assert!(matches!(err, CoreError::Relational(_)), "got {err:?}");
        // Engine fresh, serving identical answers.
        assert!(e.is_fresh());
        let after = e.search("Smith XML", &SearchOptions::default()).unwrap();
        let render = |r: &SearchResults| {
            r.connections.iter().map(|c| c.rendering.clone()).collect::<Vec<_>>()
        };
        assert_eq!(render(&before), render(&after));
        // The rejected batch is gone from the database too.
        assert!(e.db().lookup_pk(emp, &["e9".into()]).is_none());
        assert!(e.db().lookup_pk(dep, &["t9".into()]).is_none());
        // A corrected batch then applies cleanly.
        e.writer_mut()
            .insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()])
            .unwrap();
        let _ = e.apply().unwrap();
        let fixed = e.search("Smith XML", &SearchOptions::default()).unwrap();
        assert!(fixed.connections.len() > before.connections.len());
    }

    /// A typed op the database refuses stages nothing: the error keeps
    /// its typed relational reason, and the engine stays fresh and
    /// answers as before.
    #[test]
    fn refused_typed_ops_stage_nothing() {
        use cla_relational::RelationalError;
        let mut e = engine();
        let render = |e: &SearchEngine| {
            let r = e.search("Smith XML", &SearchOptions::default()).unwrap();
            r.connections.into_iter().map(|c| c.rendering).collect::<Vec<_>>()
        };
        let before = render(&e);
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        let e1 = e.db().lookup_pk(emp, &["e1".into()]).unwrap();

        let err = e
            .writer_mut()
            .insert(emp, vec!["e1".into(), "Smith".into(), "Zoe".into(), "d1".into()])
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Relational(RelationalError::DuplicateKey { .. })),
            "got {err:?}"
        );
        assert!(e.is_fresh());
        assert_eq!(render(&e), before);

        let err = e.writer_mut().update(e1, vec!["e1".into(), "Smith".into()]).unwrap_err();
        assert!(
            matches!(err, CoreError::Relational(RelationalError::ArityMismatch { .. })),
            "got {err:?}"
        );
        assert!(e.is_fresh());
        assert_eq!(render(&e), before);

        // w_f1 and t1 still reference e1.
        let err = e.writer_mut().delete(e1).unwrap_err();
        assert!(
            matches!(err, CoreError::Relational(RelationalError::DeleteRestricted { .. })),
            "got {err:?}"
        );
        assert!(e.is_fresh());
        assert_eq!(render(&e), before);
    }

    /// The `apply.mid` failpoint fires after the index patch, proving
    /// that dropping the half-patched build buffer (not just the
    /// graph's pre-validation) keeps the pre-apply state.
    #[test]
    fn forced_mid_apply_failure_is_atomic() {
        let _guard = failpoints::exclusive();
        failpoints::disarm_all();
        let mut e = engine();
        e.enable_failpoints();
        let before = e.search("Smith XML", &SearchOptions::default()).unwrap();
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        e.writer_mut()
            .insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()])
            .unwrap();
        failpoints::arm("apply.mid", failpoints::FailpointMode::Once);
        assert!(e.apply().is_err());
        assert_eq!(failpoints::hits("apply.mid"), 1);
        assert!(e.is_fresh());
        let after = e.search("Smith XML", &SearchOptions::default()).unwrap();
        assert_eq!(
            before.connections.iter().map(|c| &c.rendering).collect::<Vec<_>>(),
            after.connections.iter().map(|c| &c.rendering).collect::<Vec<_>>()
        );
        // The failpoint is one-shot: the same mutation now goes through.
        e.writer_mut()
            .insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()])
            .unwrap();
        let _ = e.apply().unwrap();
        assert!(
            e.search("Smith XML", &SearchOptions::default()).unwrap().len() > before.len()
        );
    }

    #[test]
    fn connection_following_resolves_alias_paths() {
        let c = company();
        let tuples: Vec<TupleId> =
            ["d1", "p1", "w_f1", "e1"].iter().map(|a| c.tuple(a).unwrap()).collect();
        let e = SearchEngine::new(c.db, c.er_schema, c.mapping).unwrap();
        let conn = e.connection_following(&tuples).unwrap();
        assert_eq!(conn.rdb_length(), 3);
        assert!(e.connection_following(&[]).is_none());
    }
}
