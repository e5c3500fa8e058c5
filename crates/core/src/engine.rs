//! The keyword-search engine: one owner of the database that builds and
//! publishes immutable snapshot generations.
//!
//! [`SearchEngine`] owns the [`Database`] and its ChangeSet log, and its
//! typed ops are the **only mutation path**. `apply`/`compact` build the
//! next [`EngineSnapshot`] generation in a private buffer
//! (mutation-free graph planning, [`Database::rollback`] and
//! [`TupleRemap`] at the commit point) and publish it by swapping the
//! new `Arc` into a shared `RwLock<Arc<EngineSnapshot>>`. Readers
//! holding a [`SnapshotHandle`] pin a generation by taking the read
//! lock for one `Arc` clone, and a publish holds the write lock only for
//! the pointer swap, so neither side ever waits on a search — and a
//! publish never invalidates a pinned generation.
//!
//! ## Publish by copy
//!
//! Every build derives the next generation from the current one: the
//! inverted index merges the batch's posting edits with the current
//! arrays into new ones, and a copy of the data graph's slots is edited
//! and a CSR built from it (the current CSR supplies the adjacency the
//! edits need; it is read, not copied). The schema, the mapping and the
//! alias table are shared behind their `Arc`s (no batch edits them). A
//! published snapshot therefore holds only flat arrays, and a publish
//! costs `O(database)` whatever the batch size. The engine keeps no
//! earlier generation: a snapshot is freed when its last reader drops
//! it.
//!
//! A failed apply drops its private buffer, and rejects the database
//! batch through [`Database::rollback`]; the published generation was
//! never touched.

use crate::aliases::Aliases;
use crate::connection::Connection;
use crate::datagraph::DataGraph;
use crate::error::CoreError;
use crate::failpoints;
use crate::ranking::ConnectionInfo;
use crate::snapshot::{
    failpoints_enabled_from_env, EngineSnapshot, SearchOptions, SearchResults,
};
use cla_er::{ErSchema, SchemaMapping};
use cla_graph::NodeId;
use cla_index::{InvertedIndex, KeywordQuery};
use cla_relational::{Catalog, Database, RelationId, TupleId, TupleRemap, Value};
use cla_storage::SharedBytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// When [`SearchEngine::apply`] reclaims tombstoned slots on its own.
///
/// Compaction renumbers **every** outstanding [`TupleId`], so it is
/// opt-in: the default never compacts behind the caller's back. With
/// [`CompactionPolicy::TombstoneRatio`], `apply` triggers a full
/// [`SearchEngine::compact`] whenever the dead-slot fraction reaches
/// the threshold, surfacing the resulting [`TupleRemap`] through
/// [`ApplyOutcome::compaction`] so id-keyed caller state can be
/// remapped instead of silently invalidated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum CompactionPolicy {
    /// Never compact automatically; [`SearchEngine::compact`] is the
    /// caller's explicit, scheduled operation. Every apply copies all
    /// node, edge and cardinality slots, tombstoned ones included, so
    /// under this policy the applies of a long-running engine that
    /// deletes or re-points get slower as tombstones pile up until it
    /// calls `compact`.
    #[default]
    Manual,
    /// Compact when `tombstoned row slots / total row slots` or
    /// `tombstoned edge slots / total edge slots` reaches this fraction
    /// (e.g. `0.25` for the ROADMAP's ≥ 25% trigger). Edge slots count
    /// because re-pointing updates tombstone edges without freeing a
    /// row. Values are clamped to `(0, 1]`; a non-positive threshold
    /// would compact on every apply.
    TombstoneRatio(f64),
}

/// What one successful [`SearchEngine::apply`] did.
#[must_use = "an auto-compaction may have renumbered every TupleId — check `.compaction` for the remap"]
#[derive(Debug, Clone, Default)]
pub struct ApplyOutcome {
    /// The slot remap of an auto-compaction, when the engine's
    /// [`CompactionPolicy`] triggered one — **every previously held
    /// [`TupleId`] must be remapped through it**. `None` when the apply
    /// did not compact.
    pub compaction: Option<TupleRemap>,
}

/// A cloneable, `Send + Sync` entry point for reader threads: pins the
/// latest published [`EngineSnapshot`] generation.
///
/// Obtain one from [`SearchEngine::snapshots`], clone it into as many
/// reader threads as needed, and call [`SnapshotHandle::latest`] per
/// request — or hold a pinned `Arc<EngineSnapshot>` across several
/// searches for a stable multi-query view. The handle stays valid after
/// the engine advances (readers just keep seeing the generations they
/// pinned) and even after the engine is dropped (the cell keeps the
/// last published generation alive).
#[derive(Clone, Debug)]
pub struct SnapshotHandle {
    cell: Arc<RwLock<Arc<EngineSnapshot>>>,
}

impl SnapshotHandle {
    /// Pin the latest published generation: takes the read lock for one
    /// `Arc` clone. Readers share the lock; a publish holds it
    /// exclusively only for a pointer swap, never across a search.
    pub fn latest(&self) -> Arc<EngineSnapshot> {
        // Nothing panics under either guard, and the only write is a
        // whole-`Arc` swap, so even a poisoned slot is valid: recover it.
        Arc::clone(&self.cell.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// The engine's database slot: either an already-owned [`Database`] or
/// a validated raw DATABASE image section awaiting first use.
///
/// The zero-copy open path defers materialization — `decode_flat`, with
/// its value copies and PK/reverse-FK hash index builds, is the single
/// most expensive part of a cold start — until a mutation (or a
/// caller's `db()` borrow) actually needs the owned store. Searches
/// never do: they run entirely off the published snapshot, so an
/// opened, read-only engine never pays for the database at all.
///
/// Invariant: `image` is `Some` whenever the cell is empty, and
/// [`Database::validate_flat`] ran check-for-check over the image bytes
/// at open, so the deferred [`Database::decode_flat`] cannot fail.
#[derive(Debug)]
pub(crate) struct LazyDb {
    cell: OnceLock<Database>,
    image: Option<DbImage>,
}

/// The raw, already-validated DATABASE section plus what a deferred
/// decode needs: the recomputed catalog and the stored version counter
/// (answerable without materializing — freshness checks rely on it).
#[derive(Debug)]
struct DbImage {
    catalog: Catalog,
    bytes: SharedBytes,
    version: u64,
}

impl LazyDb {
    /// Wrap an already-built database (the fresh-build path).
    pub(crate) fn ready(db: Database) -> Self {
        let cell = OnceLock::new();
        let _ = cell.set(db);
        LazyDb { cell, image: None }
    }

    /// Defer materialization of a validated image section (the
    /// zero-copy open path).
    pub(crate) fn from_image(catalog: Catalog, bytes: SharedBytes, version: u64) -> Self {
        LazyDb { cell: OnceLock::new(), image: Some(DbImage { catalog, bytes, version }) }
    }

    /// The owned database, materialized from the image section on first
    /// use.
    pub(crate) fn get(&self) -> &Database {
        self.cell.get_or_init(|| {
            // lint: allow(unwrap, `image` is Some whenever the cell is empty)
            let img = self.image.as_ref().expect("lazy database has an image");
            let db = Database::decode_flat(img.catalog.clone(), img.bytes.as_slice());
            // lint: allow(unwrap, validate_flat mirrored every decode_flat check at open)
            db.expect("image bytes were validated check-for-check at open")
        })
    }

    /// Mutable access; materializes first like [`LazyDb::get`].
    pub(crate) fn get_mut(&mut self) -> &mut Database {
        self.get();
        // lint: allow(unwrap, the get() above initialized the cell)
        self.cell.get_mut().expect("cell initialized above")
    }

    /// The database's mutation counter, without materializing.
    pub(crate) fn version(&self) -> u64 {
        match self.cell.get() {
            Some(db) => db.version(),
            // lint: allow(unwrap, `image` is Some whenever the cell is empty)
            None => self.image.as_ref().expect("lazy database has an image").version,
        }
    }

    /// `true` once the owned store (with its PK/reverse-FK hash
    /// indexes) has been built.
    pub(crate) fn is_materialized(&self) -> bool {
        self.cell.get().is_some()
    }
}

/// The keyword-search engine over one database.
///
/// The engine owns its database and its change log: stage mutations
/// through the typed ops ([`SearchEngine::insert`],
/// [`SearchEngine::update`], [`SearchEngine::delete`]) and then call
/// [`SearchEngine::apply`] to publish the next snapshot generation — no
/// rebuild. Until `apply` runs, [`SearchEngine::search`] refuses with
/// [`CoreError::StaleEngine`] instead of silently answering from stale
/// structures (dangling nodes, missing postings, wrong df counts).
///
/// Reads answer from the latest **published** [`EngineSnapshot`]: an
/// immutable, generation-stamped view of everything `search()` needs.
/// [`SearchEngine::snapshots`] hands out a cloneable
/// [`SnapshotHandle`] for reader threads; publishes are atomic `Arc`
/// swaps, so concurrent readers never wait on a search and never
/// observe a half-applied mutation batch — see the module docs.
#[derive(Debug)]
pub struct SearchEngine {
    db: LazyDb,
    /// The engine's own pin of the latest published snapshot.
    current: Arc<EngineSnapshot>,
    /// The publication cell readers pin from; created lazily on the
    /// first [`SearchEngine::snapshots`] so purely single-threaded use
    /// (and the construction-time builders) never pays for sharing.
    cell: OnceLock<Arc<RwLock<Arc<EngineSnapshot>>>>,
    /// Publication ordinal of `current`.
    generation: u64,
    /// The database version the published structures reflect.
    published_version: u64,
    /// Whether this engine probes the process-global
    /// [`failpoints`](crate::failpoints) registry; propagated into
    /// every published snapshot.
    failpoints: bool,
    /// Auto-compaction policy consulted by [`SearchEngine::apply`].
    compaction_policy: CompactionPolicy,
}

impl SearchEngine {
    /// Build the engine and its generation-0 snapshot: validates
    /// referential integrity, constructs the inverted index and the
    /// data graph.
    pub fn new(
        mut db: Database,
        er_schema: ErSchema,
        mapping: SchemaMapping,
    ) -> Result<Self, CoreError> {
        db.validate_references()?;
        // The load-time change log is subsumed by the fresh build.
        db.take_changes();
        let published_version = db.version();
        let index = InvertedIndex::build(&db);
        let dg = DataGraph::build(&db, &mapping)?;
        let failpoints = failpoints_enabled_from_env();
        let snapshot = EngineSnapshot {
            er_schema: Arc::new(er_schema),
            mapping: Arc::new(mapping),
            index,
            dg,
            aliases: Arc::new(Aliases::default()),
            generation: 0,
            failpoints: AtomicBool::new(failpoints),
            scratch_pool: Mutex::new(Vec::new()),
        };
        Ok(SearchEngine {
            db: LazyDb::ready(db),
            current: Arc::new(snapshot),
            cell: OnceLock::new(),
            generation: 0,
            published_version,
            failpoints,
            compaction_policy: CompactionPolicy::default(),
        })
    }

    /// Attach display aliases (`d1`, `e1`, …) for rendering.
    pub fn with_aliases(mut self, aliases: HashMap<TupleId, String>) -> Self {
        self.edit_snapshot(|snap| snap.aliases = Arc::new(aliases.into()));
        self
    }

    /// Opt into automatic slot reclamation — see [`CompactionPolicy`].
    pub fn with_compaction_policy(mut self, policy: CompactionPolicy) -> Self {
        self.compaction_policy = policy;
        self
    }

    /// The engine's auto-compaction policy.
    pub fn compaction_policy(&self) -> CompactionPolicy {
        self.compaction_policy
    }

    /// Apply a construction-time edit to the snapshot. In-place while
    /// the snapshot is still unshared (the builder pattern's normal
    /// shape); republishes a copy if a handle or snapshot pin already
    /// escaped.
    fn edit_snapshot(&mut self, f: impl FnOnce(&mut EngineSnapshot)) {
        if self.cell.get().is_none() {
            if let Some(snap) = Arc::get_mut(&mut self.current) {
                f(snap);
                return;
            }
        }
        let mut copy =
            self.current.successor(self.current.index.clone(), self.current.dg.clone());
        f(&mut copy);
        // Published under the same data generation: the contents edit
        // (aliases) is presentation state, not a mutation batch — but
        // it must go through the cell so pinned readers keep their
        // pre-edit view and new loads see the edit.
        self.publish(copy);
    }

    /// The shared publication cell, created on first use.
    fn cell(&self) -> &Arc<RwLock<Arc<EngineSnapshot>>> {
        self.cell.get_or_init(|| Arc::new(RwLock::new(Arc::clone(&self.current))))
    }

    /// A cloneable entry point for reader threads: each
    /// [`SnapshotHandle::latest`] call takes the cell's read lock for
    /// one `Arc` clone to pin the most recently published generation,
    /// which stays alive and byte-stable while this engine keeps
    /// applying and compacting. See [`EngineSnapshot`] for the
    /// consistency model.
    pub fn snapshots(&self) -> SnapshotHandle {
        SnapshotHandle { cell: Arc::clone(self.cell()) }
    }

    /// Pin the latest published snapshot directly (the engine's own
    /// reference — no cell involved).
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.current)
    }

    /// Publication ordinal of the latest snapshot: 0 for a freshly
    /// built engine, +1 per publish: every apply and compaction, and an
    /// alias edit made after a snapshot or handle escaped. An opened
    /// engine continues from the saved ordinal.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The underlying database (materializes a zero-copy-opened
    /// engine's lazy store on first call — see
    /// [`SearchEngine::db_materialized`]).
    pub fn db(&self) -> &Database {
        self.db.get()
    }

    /// `true` once the owned database (with its PK/reverse-FK hash
    /// indexes) exists — immediately for a built engine, only after the
    /// first mutation (or `db()` borrow) for a zero-copy-opened one.
    pub fn db_materialized(&self) -> bool {
        self.db.is_materialized()
    }

    /// The engine itself, for callers written against the former writer
    /// accessor: the typed ops are defined on the engine.
    #[deprecated(note = "call `insert`, `update` and `delete` on the engine directly")]
    pub fn writer_mut(&mut self) -> &mut Self {
        self
    }

    /// Stage an insert in the owned database (logged in the change
    /// set; call [`SearchEngine::apply`] to publish). Like every typed
    /// op, one the database refuses (a duplicate key, an arity or type
    /// mismatch, a restrict) returns [`CoreError::Relational`] with the
    /// typed reason and stages nothing.
    pub fn insert(
        &mut self,
        relation: RelationId,
        values: Vec<Value>,
    ) -> Result<TupleId, CoreError> {
        Ok(self.db.get_mut().insert(relation, values)?)
    }

    /// Stage an in-place update (same [`TupleId`]; FK edges re-resolved
    /// at apply time).
    pub fn update(&mut self, id: TupleId, values: Vec<Value>) -> Result<(), CoreError> {
        Ok(self.db.get_mut().update(id, values)?)
    }

    /// Stage a restrict-checked delete.
    pub fn delete(&mut self, id: TupleId) -> Result<(), CoreError> {
        Ok(self.db.get_mut().delete(id)?)
    }

    /// `true` when the published structures reflect the database's
    /// current version (no staged-but-unapplied mutations).
    pub fn is_fresh(&self) -> bool {
        // `LazyDb::version` answers from the image header when the
        // store is unmaterialized — freshness never forces a decode.
        self.published_version == self.db.version()
    }

    /// The [`CoreError::StaleEngine`] for the current version gap.
    fn stale_error(&self) -> CoreError {
        CoreError::StaleEngine {
            engine_version: self.published_version,
            db_version: self.db.version(),
        }
    }

    /// Save the published generation and its database as one
    /// offset-addressable, checksummed snapshot image at `path`
    /// (written to a temporary sibling and atomically renamed into
    /// place) — the cold-start counterpart of [`SearchEngine::open`].
    /// Saving never mutates the snapshot, so concurrent readers of this
    /// generation are unaffected.
    ///
    /// Refuses a stale engine ([`CoreError::StaleEngine`]): staged
    /// mutations are in the database but not in the published
    /// structures, so the image would hold rows its index and graph do
    /// not. Call [`SearchEngine::apply`] first.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CoreError> {
        if !self.is_fresh() {
            return Err(self.stale_error());
        }
        crate::persist::write_image(&self.current, self.db.get(), path.as_ref())
    }

    /// Cold-start an engine from a snapshot image written by
    /// [`SearchEngine::save`]: section reads plus validation instead of
    /// the tokenize → index → graph → CSR build pipeline.
    ///
    /// The opened engine is fully operational — `apply`, `compact`,
    /// `snapshots`, and another `save` all work — and its published
    /// snapshot answers **byte-identically** to one rebuilt from the
    /// same database (the round-trip property test suite pins this
    /// down). The saved publication ordinal is restored so generation
    /// counts keep ascending across the save/open boundary. A file that
    /// is truncated, checksum-corrupt, from an unsupported format
    /// version, or internally inconsistent is rejected with
    /// [`CoreError::Snapshot`] — never a panic.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Self, CoreError> {
        // Checksum deferred: `decode_image` overlaps the whole-body hash
        // with the section decodes and checks its verdict first, so the
        // observable errors match an eager parse.
        let bytes = std::fs::read(path.as_ref()).map_err(cla_storage::StorageError::from)?;
        let image = cla_storage::SnapshotImage::parse_deferred(bytes)?.into_shared();
        let (snapshot, db, generation) = crate::persist::decode_image(&image)?;
        let published_version = db.version();
        Ok(SearchEngine {
            db,
            current: Arc::new(snapshot),
            cell: OnceLock::new(),
            generation,
            published_version,
            failpoints: failpoints_enabled_from_env(),
            compaction_policy: CompactionPolicy::default(),
        })
    }

    /// Opt this engine into the process-global
    /// [`failpoints`](crate::failpoints) registry, including the
    /// already-published snapshot: armed points fire inside this
    /// engine's pipelines (`apply.mid` forces the apply rollback path,
    /// `pool.return` panics while holding the scratch-pool lock,
    /// `banks.settle` forces a budget trip in the BANKS expansion).
    /// Fault-injection instrumentation — not part of the search
    /// contract. Engines built while `CLA_FAILPOINTS` is set are
    /// enabled automatically.
    pub fn enable_failpoints(&mut self) {
        self.failpoints = true;
        // ordering: Relaxed — instrumentation flag behind `&mut self`;
        // readers treat a stale value as "probe later", nothing is
        // published through it.
        self.current.failpoints.store(true, AtomicOrdering::Relaxed);
    }

    /// Drain the database's pending mutations, derive every structure
    /// of the **next snapshot generation** from the current one and
    /// publish it atomically: inverted-index postings (updates merged
    /// as term diffs), and data-graph nodes and edges (updates rewiring
    /// only their changed edges, found through the current CSR) with a
    /// CSR built from them. After a successful apply the published
    /// snapshot answers exactly like a freshly built
    /// [`SearchEngine::new`] over the mutated database — the
    /// rebuild-equivalence property the mutation test suite pins down —
    /// without re-reading the database, and **readers pinned to older
    /// generations are untouched** (their snapshots stay alive and
    /// byte-stable until they drop them).
    ///
    /// Each apply costs `O(slots)`, whatever the batch size: the
    /// derivation copies every node and edge slot, tombstoned ones
    /// included. An engine with steady churn should therefore call
    /// [`SearchEngine::compact`] on a schedule, or opt into
    /// [`CompactionPolicy::TombstoneRatio`], which counts both dead
    /// row slots and dead edge slots, so re-points, which tombstone
    /// edge slots only, trigger it too.
    ///
    /// The apply is **atomic**. On error (e.g. a dangling reference
    /// that a full rebuild's validation would also reject) nothing is
    /// published: the half-built index is dropped, the *database
    /// batch itself* is rolled back through [`Database::rollback`] (the
    /// batch is a failed transaction; its mutations are rejected
    /// wholesale), and the error is returned with the engine fresh and
    /// **still serving the pre-mutation answers**.
    ///
    /// With a [`CompactionPolicy::TombstoneRatio`] policy, a successful
    /// apply that leaves the dead row-slot or edge-slot fraction at or
    /// above the threshold triggers a full [`SearchEngine::compact`];
    /// the remap is surfaced through [`ApplyOutcome::compaction`].
    pub fn apply(&mut self) -> Result<ApplyOutcome, CoreError> {
        let changes = self.db.get_mut().take_changes();
        // Every mutation logs exactly one op, and only this method drains
        // the log (the database is never handed out mutably), so the log
        // accounts for the whole version delta.
        debug_assert_eq!(
            changes.len() as u64,
            self.db.version() - self.published_version,
            "the change log holds every op since the last publish"
        );
        let current = &self.current;
        let index = current.index.apply(self.db.get(), &changes);
        let result = if self.failpoints && failpoints::triggered("apply.mid") {
            // Fails the way the graph plan does; the id names the failpoint.
            Err(CoreError::UnknownTuple("<forced by the apply.mid failpoint>".into()))
        } else {
            current.dg.apply(self.db.get(), &current.mapping, &changes)
        };
        match result {
            Ok(dg) => {
                let buf = current.successor(index, dg);
                self.published_version = self.db.version();
                self.publish(buf);
                let mut outcome = ApplyOutcome::default();
                if let CompactionPolicy::TombstoneRatio(threshold) = self.compaction_policy {
                    let threshold = threshold.clamp(f64::MIN_POSITIVE, 1.0);
                    let reached = |dead: usize, total: usize| {
                        dead > 0 && dead as f64 >= threshold * total as f64
                    };
                    let rows = self.db.get().total_row_slots();
                    let graph = self.current.dg.graph();
                    if reached(rows - self.db.get().total_tuples(), rows)
                        || reached(
                            graph.edge_slots() - graph.edge_count(),
                            graph.edge_slots(),
                        )
                    {
                        // The engine is fresh right here (just
                        // published), so compaction cannot be refused.
                        outcome.compaction = Some(self.compact()?);
                    }
                }
                Ok(outcome)
            }
            Err(e) => {
                // The half-built index was never published: drop it,
                // and reject the database batch via inverse ops so that
                // engine and database agree on the pre-mutation state.
                drop(index);
                self.db.get_mut().rollback(&changes);
                self.published_version = self.db.version();
                debug_assert!(self.is_fresh());
                Err(e)
            }
        }
    }

    /// Publish `buf` as the next generation: bump the ordinal and swap
    /// it into the cell under the write lock.
    fn publish(&mut self, mut buf: EngineSnapshot) {
        self.generation += 1;
        buf.generation = self.generation;
        *buf.failpoints.get_mut() = self.failpoints;
        let new_arc = Arc::new(buf);
        self.current = Arc::clone(&new_arc);
        if let Some(cell) = self.cell.get() {
            // Drop the cell's pin of the previous generation after the
            // guard is released, so a last-reference drop never runs
            // under the lock.
            let mut slot = cell.write().unwrap_or_else(PoisonError::into_inner);
            let previous = std::mem::replace(&mut *slot, new_arc);
            drop(slot);
            drop(previous);
        }
    }

    /// Reclaim every tombstoned slot churn left behind, end to end:
    /// database row slots (via [`Database::compact`]), graph node and
    /// edge slots and the CSR's flat arrays — with ids renumbered
    /// densely behind the returned [`TupleRemap`] — and publish the
    /// compacted state as the next snapshot generation.
    /// Postings are rebuilt from the live set (they must speak the new
    /// tuple ids); display aliases are remapped in place.
    ///
    /// **Every outstanding [`TupleId`] is invalidated** — callers
    /// holding id-keyed state must remap it through the returned table.
    /// Readers pinned to pre-compaction snapshots are unaffected: their
    /// generations still speak the old ids consistently. The engine
    /// must be fresh (apply pending mutations first; a stale engine
    /// returns [`CoreError::StaleEngine`]).
    pub fn compact(&mut self) -> Result<TupleRemap, CoreError> {
        if !self.is_fresh() {
            return Err(self.stale_error());
        }
        let remap = self.db.get_mut().compact()?;
        let current = &self.current;
        // Postings speak tuple ids: rebuild them from the live set under
        // the same tokenizer (renumbering every posting in place would
        // also break the sorted-by-tuple invariant, since row order is
        // preserved but *relative* ids shift across relations).
        let index =
            InvertedIndex::build_with(self.db.get(), current.index.tokenizer().clone());
        let mut buf = current.successor(index, current.dg.compact(&remap));
        buf.aliases = Arc::new(
            Arc::unwrap_or_clone(std::mem::take(&mut buf.aliases))
                .into_owned()
                .into_iter()
                .filter_map(|(t, alias)| remap.map(t).map(|nt| (nt, alias)))
                .collect::<HashMap<_, _>>()
                .into(),
        );
        self.published_version = self.db.version();
        self.publish(buf);
        Ok(remap)
    }

    /// The ER schema.
    pub fn er_schema(&self) -> &ErSchema {
        self.current.er_schema()
    }

    /// The mapping provenance.
    pub fn mapping(&self) -> &SchemaMapping {
        self.current.mapping()
    }

    /// The inverted index (of the latest published generation).
    pub fn index(&self) -> &InvertedIndex {
        self.current.index()
    }

    /// The data graph (of the latest published generation).
    pub fn data_graph(&self) -> &DataGraph {
        self.current.data_graph()
    }

    /// Display aliases.
    pub fn aliases(&self) -> &HashMap<TupleId, String> {
        self.current.aliases()
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
        self.current.keyword_matches(query)
    }

    /// Keyword markers per node for rendering: which display keywords
    /// each matched tuple carries.
    pub fn markers(
        &self,
        query: &KeywordQuery,
        display_keywords: &[String],
    ) -> HashMap<NodeId, Vec<String>> {
        debug_assert!(self.is_fresh(), "markers on a stale engine — apply() first");
        self.current.markers(query, display_keywords)
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
        self.current.connection_following(tuples)
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
        self.current.connection_info(conn, query, compute_instance, max_witness_length)
    }

    /// Run a keyword search on the latest published generation.
    ///
    /// Fails with [`CoreError::StaleEngine`] when mutations were staged
    /// without a subsequent [`SearchEngine::apply`] — searching stale
    /// structures would return silently wrong results, so the engine
    /// refuses instead. Reader threads that pinned a snapshot are
    /// exempt: a pinned generation is always internally consistent, by
    /// construction (see [`EngineSnapshot::search`] for the query
    /// contract — `EmptyQuery` semantics, `k` edge cases).
    pub fn search(
        &self,
        raw_query: &str,
        options: &SearchOptions,
    ) -> Result<SearchResults, CoreError> {
        if !self.is_fresh() {
            return Err(self.stale_error());
        }
        self.current.search(raw_query, options)
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
        e.insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()]).unwrap();
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
        e.insert(emp, vec!["e9".into(), "Smith".into(), "Ada".into(), "d2".into()]).unwrap();
        e.insert(wf, vec!["e9".into(), "p1".into(), 12i64.into()]).unwrap();
        e.delete(c.tuple("w_f2").unwrap()).unwrap();
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
        e.update(e2, vec!["e2".into(), "Smith".into(), "Barb".into(), "d1".into()]).unwrap();
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
        e.delete(c.tuple("t1").unwrap()).unwrap();
        e.delete(c.tuple("w_f2").unwrap()).unwrap();
        e.insert(emp, vec!["e9".into(), "Smith".into(), "Ada".into(), "d2".into()]).unwrap();
        let _ = e.apply().unwrap();
        assert!(e.db().total_row_slots() > e.db().total_tuples(), "churn left tombstones");

        // Compacting a stale engine is refused.
        let mut stale =
            SearchEngine::new(c.db.clone(), c.er_schema.clone(), c.mapping.clone()).unwrap();
        stale.insert(emp, vec!["zz".into(), "S".into(), "T".into(), "d1".into()]).unwrap();
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
        e.delete(e9).unwrap();
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
        e.delete(c.tuple("t1").unwrap()).unwrap();
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
        manual.delete(c.tuple("t1").unwrap()).unwrap();
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
            e.update(e1, values).unwrap();
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

    /// The typed mutation path stages, applies and publishes, and each
    /// publish bumps the snapshot generation without disturbing
    /// previously pinned generations.
    #[test]
    fn typed_writer_path_mutates_and_publishes_generations() {
        let mut e = engine();
        assert_eq!(e.generation(), 0);
        let before = e.snapshot();
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        let id = e
            .insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()])
            .unwrap();
        // Staged but unpublished: the engine refuses, the pinned
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
        e.update(id, vec!["e9".into(), "Smith".into(), "Zia".into(), "d1".into()]).unwrap();
        let _ = e.apply().unwrap();
        assert!(!e.search("Zia", &SearchOptions::default()).unwrap().is_empty());
        e.delete(id).unwrap();
        let _ = e.apply().unwrap();
        assert_eq!(e.generation(), 3);
        assert!(e.search("Zia", &SearchOptions::default()).unwrap().is_empty());
        // The generation-0 pin never moved.
        assert_eq!(before.generation(), 0);
        assert!(before.search("Zia", &SearchOptions::default()).unwrap().is_empty());
    }

    /// An alias edit publishes only once a handle or a snapshot pin has
    /// escaped: before that it edits generation 0 in place. A handle
    /// sees the published edit; a pin keeps its own generation.
    #[test]
    fn alias_edits_publish_once_a_pin_escaped() {
        let c = company();
        let build = || {
            SearchEngine::new(c.db.clone(), c.er_schema.clone(), c.mapping.clone()).unwrap()
        };

        let unshared = build().with_aliases(c.aliases.clone());
        assert_eq!(unshared.generation(), 0);
        assert_eq!(unshared.aliases().len(), c.aliases.len());

        let shared = build();
        let handle = shared.snapshots();
        let shared = shared.with_aliases(c.aliases.clone());
        assert_eq!(shared.generation(), 1);
        assert_eq!(handle.latest().generation(), 1);
        assert_eq!(handle.latest().aliases().len(), c.aliases.len());

        let pinned = build();
        let pin = pinned.snapshot();
        let pinned = pinned.with_aliases(c.aliases.clone());
        assert_eq!(pinned.generation(), 1);
        assert_eq!(pin.generation(), 0);
        assert!(pin.aliases().is_empty());
    }

    /// A handle stays valid after its engine is dropped: it keeps the
    /// last published generation, which answers as the engine did.
    #[test]
    fn snapshot_handle_outlives_its_engine() {
        let mut e = engine();
        let handle = e.snapshots();
        let emp = e.db().catalog().relation_id("EMPLOYEE").unwrap();
        e.insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()]).unwrap();
        let _ = e.apply().unwrap();
        let generation = e.generation();
        assert_eq!(generation, 1);
        let answer = format!("{:?}", e.search("Smith XML", &SearchOptions::default()));
        drop(e);
        let last = handle.latest();
        assert_eq!(last.generation(), generation);
        assert_eq!(
            format!("{:?}", last.search("Smith XML", &SearchOptions::default())),
            answer
        );
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
        e.insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()]).unwrap();
        e.insert(dep, vec!["t9".into(), "e-missing".into(), "X".into()]).unwrap();
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
        e.insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()]).unwrap();
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
            .insert(emp, vec!["e1".into(), "Smith".into(), "Zoe".into(), "d1".into()])
            .unwrap_err();
        assert!(
            matches!(err, CoreError::Relational(RelationalError::DuplicateKey { .. })),
            "got {err:?}"
        );
        assert!(e.is_fresh());
        assert_eq!(render(&e), before);

        let err = e.update(e1, vec!["e1".into(), "Smith".into()]).unwrap_err();
        assert!(
            matches!(err, CoreError::Relational(RelationalError::ArityMismatch { .. })),
            "got {err:?}"
        );
        assert!(e.is_fresh());
        assert_eq!(render(&e), before);

        // w_f1 and t1 still reference e1.
        let err = e.delete(e1).unwrap_err();
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
        e.insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()]).unwrap();
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
        e.insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()]).unwrap();
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
