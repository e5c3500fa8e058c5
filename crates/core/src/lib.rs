//! # cla-core — close and loose associations in keyword search
//!
//! The primary contribution of the reproduced paper (Vainio, Junkkari,
//! Kekäläinen: *Close and Loose Associations in Keyword Search from
//! Structural Data*, EDBT 2017 workshops), as a library:
//!
//! * [`DataGraph`] — the tuple-level foreign-key graph with conceptual
//!   edge roles;
//! * [`Connection`] — joining paths of tuples with **RDB length**,
//!   **conceptual (ER) length** (middle relations collapse, §3), RDB and
//!   ER **cardinality chains**, and the §2 **close/loose**
//!   classification;
//! * [`instance_closeness`] — the §3–4 instance-level corroboration of
//!   schema-loose connections via close witness paths;
//! * [`RankStrategy`] — ranking strategies: conventional RDB length, ER
//!   length, the paper's close-first order, instance-aware, and combined
//!   structure+text;
//! * [`banks_search`] — BANKS backward expansion (the paper's reference
//!   `[1]`);
//! * [`is_mtjnt`]/[`enumerate_mtjnts`] — DISCOVER's MTJNT semantics
//!   (the paper's reference `[4]`) used to demonstrate the §3 loss
//!   claim; [`JoiningNetworkLevels`] grows, level by level, only the
//!   networks that can still become MTJNTs (the unpruned enumeration of
//!   every total network is a test reference, not library API);
//! * [`explain_connection`] — natural-language readings (§3);
//! * [`SearchEngine`] — the façade: index → match → connect → rank.
//!
//! ## Mutation subsystem
//!
//! The engine owns its database and stays **live** under churn. The
//! writer's typed ops are the only mutation path, reached through
//! [`SearchEngine::writer_mut`]: [`EngineWriter::insert`], in-place
//! [`EngineWriter::update`] (same `TupleId`; FK edges re-resolved,
//! changed primary keys re-validated and restrict-checked against the
//! persistent reverse-FK index) and restrict-checked
//! [`EngineWriter::delete`]. An op the database refuses returns its
//! typed reason ([`CoreError::Relational`]) and stages nothing. Staged
//! ops wait for [`SearchEngine::apply`], which builds the **next
//! published snapshot generation** from a copy of the current one: the
//! batch's postings merged into new index arrays, and the data graph
//! edited (updates rewire only their changed edges) with its CSR
//! rebuilt. Three guarantees, all property-tested in
//! `crates/core/tests/mutation.rs`:
//!
//! * **Rebuild equivalence** — a patched engine answers byte-identically
//!   to a fresh [`SearchEngine::new`] over the mutated database.
//! * **Atomic apply** — a failed `apply` (dangling reference, missing
//!   mapping role) drops the private buffer it was patching, never
//!   published, *and* rejects the database batch via
//!   `Database::rollback`; the error returns with the engine fresh and
//!   serving the pre-mutation answers.
//! * **Slot reclamation** — [`SearchEngine::compact`] reclaims every
//!   tombstoned row/node/edge slot end to end, renumbering ids behind
//!   the returned `TupleRemap`, with rebuild equivalence and zero
//!   remaining tombstones guaranteed afterwards.
//!
//! ## Concurrent snapshot serving
//!
//! Everything `search()` reads lives in an immutable, Arc-shared
//! [`EngineSnapshot`]; [`SearchEngine`] is a thin façade over one
//! [`EngineWriter`] that builds and atomically publishes the next
//! generation per `apply`/`compact` (a pointer swap under a write lock;
//! the build copies the current generation's flat arrays, so a publish
//! costs `O(database)` whatever the batch size). Reader threads pin
//! generations through a cloneable [`SnapshotHandle`] — a pin takes a
//! read lock for one `Arc` clone, and no search runs under the lock —
//! and keep answering from their pinned generation, byte-identically
//! to a from-scratch engine at that generation, while the writer keeps
//! publishing (`crates/core/tests/concurrent.rs`;
//! `examples/concurrent_serving.rs`).
//!
//! ## Cold start from disk
//!
//! [`SearchEngine::save`] serializes the published snapshot plus its
//! database into one offset-addressable, checksummed image (see
//! `cla-storage` and `ANALYSIS.md` for the file format);
//! [`SearchEngine::open`] cold-starts from that file **zero-copy**:
//! every section is bounds-validated once, then generation 0 serves
//! searches straight out of the shared image buffer — term and alias
//! arenas, the tuple→node map, and the relational rows stay borrowed,
//! and the handful of alignment-sensitive POD arrays (postings, CSR,
//! graph slots) decode with a constant number of allocations. Derived
//! owned structures are **lazy**: the relational store with its PK and
//! reverse-FK hash indexes, the tuple→node hash map, and the owned
//! term dictionary are materialized only when a mutation first needs
//! them. Guarantees, property-tested in `crates/core/tests/roundtrip.rs`
//! and `crates/core/tests/zero_copy.rs`:
//!
//! * **Round-trip equivalence** — an opened engine answers
//!   byte-identically (rankings, explanations, stats) to one rebuilt
//!   from the same database, for all three algorithms — both before and
//!   after the first mutation promotes the lazy structures to owned.
//! * **Typed rejection** — truncated, checksum-corrupt,
//!   version-incompatible, or internally inconsistent files fail with
//!   [`CoreError::Snapshot`] (wrapping a [`StorageError`] reason);
//!   hostile bytes never panic and are never trusted unchecked (the
//!   whole stack is `forbid(unsafe_code)`-clean, all reads
//!   bounds-checked).
//! * **Still live** — the opened engine keeps mutating: `apply`,
//!   `compact`, alias edits, and a further `save` all work, with the
//!   generation ordinal continuing across the save/open boundary; the
//!   first write pays the deferred materialization, searches never
//!   notice the backing switch.
//!
//! ## Quickstart
//!
//! ```
//! use cla_core::{SearchEngine, SearchOptions};
//! use cla_datagen::company;
//!
//! let c = company(); // the paper's Figure 1 + Figure 2 database
//! let engine = SearchEngine::new(c.db, c.er_schema, c.mapping)
//!     .unwrap()
//!     .with_aliases(c.aliases);
//! let results = engine.search("Smith XML", &SearchOptions::default()).unwrap();
//! assert_eq!(results.connections[0].rendering, "d1(XML) – e1(Smith)");
//! ```

#![forbid(unsafe_code)]

mod aliases;
mod banks;
mod budget;
mod connection;
mod datagraph;
mod discover;
mod engine;
mod error;
mod explain;
mod instance;
mod participation;
mod persist;
mod ranking;
mod snapshot;
mod stats;
mod writer;

pub mod failpoints;

pub use aliases::{AliasLookup, Aliases};
pub use banks::{
    banks_search, banks_search_budgeted, BanksOptions, BanksScratch, BanksWork,
    EdgeWeighting, SteinerTree,
};
pub use budget::SearchBudget;
pub use connection::{ConceptualStep, Connection, ConnectionStep};
pub use datagraph::{DataGraph, EdgeAnnotation};
pub use discover::{
    enumerate_mtjnts, enumerate_mtjnts_budgeted, is_joining, is_mtjnt, is_total,
    mtjnt_filter, JoiningNetworkLevels,
};
pub use engine::SearchEngine;
pub use error::{CoreError, KeywordDiagnostic};
// The typed corruption reasons behind [`CoreError::Snapshot`], for
// callers matching on *why* an image was rejected.
pub use cla_storage::StorageError;
pub use explain::explain_connection;
pub use instance::{
    instance_closeness, instance_closeness_with_cache, InstanceCloseness, WitnessCache,
    WitnessStrategy,
};
pub use participation::{
    move_sequence, participation_degree, participation_fanout, reachable_set,
    RelationshipMove,
};
pub use ranking::{sort_by_strategy, ConnectionInfo, RankStrategy};
pub use snapshot::{
    Algorithm, EngineSnapshot, RankedConnection, SearchOptions, SearchResults,
};
pub use stats::{
    close_precision_at_k, kendall_tau, overlap_at_k, ClosenessProfile, Completeness,
    SearchStats, TruncationReason,
};
pub use writer::{ApplyOutcome, CompactionPolicy, EngineWriter, SnapshotHandle};
