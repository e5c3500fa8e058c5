//! The mutating half of the engine: one writer building and publishing
//! immutable snapshot generations.
//!
//! [`EngineWriter`] owns the [`Database`] and its ChangeSet log — it is
//! the **only mutation path**. `apply`/`compact` build the next
//! [`EngineSnapshot`] generation in a private buffer (mutation-free
//! graph planning, [`Database::rollback`] and [`TupleRemap`] at the
//! commit point) and publish it by swapping the new `Arc` into a shared
//! `RwLock<Arc<EngineSnapshot>>`. Readers holding a [`SnapshotHandle`]
//! pin a generation by taking the read lock for one `Arc` clone, and a
//! publish holds the write lock only for the pointer swap, so neither
//! side ever waits on a search — and a publish never invalidates a
//! pinned generation.
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
//! costs `O(database)` whatever the batch size. The writer keeps no
//! earlier generation: a snapshot is freed when its last reader drops
//! it.
//!
//! A failed apply drops its private buffer, and rejects the database
//! batch through [`Database::rollback`]; the published generation was
//! never touched.

use crate::aliases::Aliases;
use crate::datagraph::DataGraph;
use crate::error::CoreError;
use crate::failpoints;
use crate::snapshot::{failpoints_enabled_from_env, EngineSnapshot};
use cla_er::{ErSchema, SchemaMapping};
use cla_index::InvertedIndex;
use cla_relational::{Catalog, Database, RelationId, TupleId, TupleRemap, Value};
use cla_storage::SharedBytes;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};

/// When [`EngineWriter::apply`] (and the [`SearchEngine`] façade's
/// `apply`) reclaims tombstoned slots on its own.
///
/// Compaction renumbers **every** outstanding [`TupleId`], so it is
/// opt-in: the default never compacts behind the caller's back. With
/// [`CompactionPolicy::TombstoneRatio`], `apply` triggers a full
/// [`EngineWriter::compact`] whenever the dead-slot fraction reaches
/// the threshold, surfacing the resulting [`TupleRemap`] through
/// [`ApplyOutcome::compaction`] so id-keyed caller state can be
/// remapped instead of silently invalidated.
///
/// [`SearchEngine`]: crate::SearchEngine
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum CompactionPolicy {
    /// Never compact automatically; [`EngineWriter::compact`] is the
    /// caller's explicit, scheduled operation. Every apply copies all
    /// node, edge and cardinality slots, tombstoned ones included, so
    /// under this policy the applies of a long-running writer that
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

/// What one successful [`EngineWriter::apply`] did.
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
/// Obtain one from [`EngineWriter::handle`] (or the façade's
/// `SearchEngine::snapshots`), clone it into as many reader threads as
/// needed, and call [`SnapshotHandle::latest`] per request — or hold a
/// pinned `Arc<EngineSnapshot>` across several searches for a stable
/// multi-query view. The handle stays valid after the writer advances
/// (readers just keep seeing the generations they pinned) and even
/// after the writer is dropped (the cell keeps the last published
/// generation alive).
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

/// The writer's database slot: either an already-owned [`Database`] or
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
#[derive(Debug, Clone)]
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

impl Clone for LazyDb {
    fn clone(&self) -> Self {
        match self.cell.get() {
            Some(db) => LazyDb::ready(db.clone()),
            None => LazyDb { cell: OnceLock::new(), image: self.image.clone() },
        }
    }
}

/// The single writer over one database: owns the change log, builds
/// the next snapshot generation per `apply`/`compact`, and publishes it
/// atomically — see the module docs.
#[derive(Debug)]
pub struct EngineWriter {
    db: LazyDb,
    /// The writer's own pin of the latest published snapshot.
    current: Arc<EngineSnapshot>,
    /// The publication cell readers pin from; created lazily on the
    /// first [`EngineWriter::handle`] so purely single-threaded use
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
    /// Auto-compaction policy consulted by [`EngineWriter::apply`].
    compaction_policy: CompactionPolicy,
}

impl EngineWriter {
    /// Build the writer and its generation-0 snapshot: validates
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
        Ok(EngineWriter {
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

    /// The writer's auto-compaction policy.
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

    /// A cloneable entry point for reader threads; each pin takes the
    /// cell's read lock for one `Arc` clone — see [`SnapshotHandle`].
    pub fn handle(&self) -> SnapshotHandle {
        SnapshotHandle { cell: Arc::clone(self.cell()) }
    }

    /// Pin the latest published snapshot directly (the writer's own
    /// reference — no cell involved).
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.current)
    }

    /// The latest published snapshot, by reference (for the façade's
    /// borrowing accessors).
    pub(crate) fn current_ref(&self) -> &EngineSnapshot {
        &self.current
    }

    /// Publication ordinal of the latest snapshot (0 for a freshly
    /// built engine, +1 per published apply/compact).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The underlying database (materializes a zero-copy-opened
    /// engine's lazy store on first call — see
    /// [`EngineWriter::db_materialized`]).
    pub fn db(&self) -> &Database {
        self.db.get()
    }

    /// `true` once the owned database (with its PK/reverse-FK hash
    /// indexes) exists — immediately for a built engine, only after the
    /// first mutation (or `db()` borrow) for a zero-copy-opened one.
    pub fn db_materialized(&self) -> bool {
        self.db.is_materialized()
    }

    /// Stage an insert in the owned database (logged in the change
    /// set; call [`EngineWriter::apply`] to publish). Like every typed
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

    /// The [`CoreError::StaleEngine`] for the current version gap (the
    /// façade's checked `search` entry point reports it).
    pub(crate) fn stale_error(&self) -> CoreError {
        CoreError::StaleEngine {
            engine_version: self.published_version,
            db_version: self.db.version(),
        }
    }

    /// Save the published generation and its database as one
    /// offset-addressable snapshot image at `path` — the cold-start
    /// counterpart of [`EngineWriter::open`].
    ///
    /// Refuses a stale writer ([`CoreError::StaleEngine`]): staged
    /// mutations are in the database but not in the published
    /// structures, so the image would hold rows its index and graph do
    /// not. Call [`EngineWriter::apply`] first.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CoreError> {
        if !self.is_fresh() {
            return Err(self.stale_error());
        }
        self.current.save(self.db.get(), path)
    }

    /// Cold-start a writer from a snapshot image written by
    /// [`EngineWriter::save`]: section reads plus validation instead of
    /// the tokenize → index → graph → CSR build pipeline.
    ///
    /// The opened writer is fully operational — `apply`, `compact`,
    /// `handle`, and another `save` all work — and its published
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
        Ok(EngineWriter {
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
    /// already-published snapshot. Fault-injection instrumentation —
    /// not part of the search contract.
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
    /// snapshot answers exactly like a freshly built engine over the
    /// mutated database — the rebuild-equivalence property the mutation
    /// test suite pins down — without re-reading the database, and
    /// **readers pinned to older generations are untouched** (their
    /// snapshots stay alive and byte-stable until they drop them).
    ///
    /// Each apply costs `O(slots)`, whatever the batch size: the
    /// derivation copies every node and edge slot, tombstoned ones
    /// included. A
    /// writer with steady churn should therefore call
    /// [`EngineWriter::compact`] on a schedule, or opt into
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
    /// above the threshold triggers a full [`EngineWriter::compact`];
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
            return Err(CoreError::StaleEngine {
                engine_version: self.published_version,
                db_version: self.db.version(),
            });
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

    /// Clone for the façade's `Clone`: same database and published
    /// content, fresh publication state (own cell).
    pub(crate) fn clone_writer(&self) -> Self {
        EngineWriter {
            db: self.db.clone(),
            current: Arc::new(
                self.current.successor(self.current.index.clone(), self.current.dg.clone()),
            ),
            cell: OnceLock::new(),
            generation: self.generation,
            published_version: self.published_version,
            failpoints: self.failpoints,
            compaction_policy: self.compaction_policy,
        }
    }
}
