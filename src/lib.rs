//! # close-loose-ks — workspace façade
//!
//! A production-quality Rust reproduction of *Close and Loose
//! Associations in Keyword Search from Structural Data* (Vainio,
//! Junkkari, Kekäläinen; EDBT/ICDT 2017 workshops).
//!
//! This crate re-exports the whole workspace under stable module names;
//! see the individual crates for details:
//!
//! * [`relational`] — in-memory relational engine (schemas, PK/FK,
//!   joins);
//! * [`er`] — ER model, cardinality chains, close/loose classification,
//!   ER→relational mapping;
//! * [`graph`] — graph substrate (traversal, path enumeration,
//!   Dijkstra);
//! * [`index`] — tokenizer, inverted index, keyword queries, tf·idf;
//! * [`core`] — the paper's contribution: connections, conceptual
//!   length, closeness ranking, BANKS and DISCOVER/MTJNT search;
//! * [`datagen`] — the paper's Figure 1/2 fixture and synthetic
//!   generators.
//!
//! ## Robustness guarantees
//!
//! A search call is **bounded, fault-isolated, and honest about partial
//! results** (property-tested in `crates/core/tests/{budget,faults}.rs`):
//!
//! * **Bounded** — [`core::SearchOptions`] carries a
//!   [`core::SearchBudget`]: a wall-clock `deadline` and/or a
//!   `max_expansions` work cap, probed cooperatively at each
//!   algorithm's expansion-counting sites (DFS descents for Paths and
//!   for two-keyword DISCOVER, BANKS frontier settles, network
//!   materializations for DISCOVER with three or more keywords), one
//!   budget per search, so the cap is exact. An exhausted
//!   budget never errors: enumeration stops at the next probe and the
//!   results found so far come back ranked, labeled through
//!   [`core::SearchStats`]'s `completeness` field
//!   ([`core::Completeness::Truncated`] with the tripping
//!   [`core::TruncationReason`]). For every length-monotone ranker the
//!   truncated output is a **certified ranked prefix** of the
//!   unbudgeted run; under `RankStrategy::Combined` it is best-effort
//!   found-so-far. The default budget is unlimited and costs one
//!   integer comparison per probe (≤ 2 % armed-but-unhit,
//!   EXPERIMENTS.md B10). The length bound `max_rdb_length` is clamped
//!   to the longest simple path the graph holds (its live nodes less
//!   one), so no bound, `usize::MAX` included, overflows DISCOVER's
//!   network size or runs Paths levels that can hold no path.
//! * **Fault-isolated** — every search runs on its calling thread, and
//!   a panic inside a search propagates to the caller: nothing is
//!   swallowed. The engine survives it. The search's scratch is dropped
//!   rather than returned to the pool, and even a panic while holding
//!   the scratch-pool mutex only poisons that mutex, which the next
//!   search clears and rebuilds. The next search answers
//!   byte-identically to an unfaulted engine.
//! * **Diagnosable** — a query with no usable keyword fails with
//!   per-keyword diagnostics ([`core::KeywordDiagnostic`]: tokenization
//!   result plus the nearest indexed term by edit distance), and the
//!   fault paths above are drivable from tests or triage sessions via
//!   the [`core::failpoints`] registry (`CLA_FAILPOINTS=name=once,...`:
//!   `apply.mid`, `pool.return`, `banks.settle`).
//! * **Snapshot-consistent under concurrency** — everything `search()`
//!   reads lives in an immutable, generation-stamped
//!   [`core::EngineSnapshot`], and the [`core::SearchEngine`] that owns
//!   the database builds and publishes the next generation per
//!   `apply`/`compact`. The consistency model: a reader pins the
//!   latest generation through a cloneable [`core::SnapshotHandle`]
//!   (`engine.snapshots().latest()`) — a pin takes a read lock for one
//!   `Arc` clone and publication swaps the `Arc` under the write lock,
//!   so no search ever runs under either — and a pinned generation
//!   is (1) always a complete published batch, never a half-applied
//!   one, (2) byte-identical to a from-scratch engine over the
//!   database at that generation, and (3) immutable for as long as the
//!   reader holds it, across any number of later publishes and even
//!   `compact()`'s id renumbering. Readers holding a pin therefore
//!   never see `StaleEngine`; staleness is a property of the engine's
//!   own current generation only. Writes remain single-writer: the
//!   engine's typed `insert`/`update`/`delete` ops are the only
//!   mutation path (a refused op stages nothing), and a publish
//!   builds the next generation from a copy of the current one's flat
//!   arrays, never touching a generation a reader pins (pinned in
//!   `crates/core/tests/{concurrent,alloc}.rs`; demonstrated in
//!   `examples/concurrent_serving.rs`).
//! * **Cold-startable from disk, zero-copy** — `core::SearchEngine::save`
//!   writes the published generation plus its database as one
//!   offset-addressable, checksummed snapshot image (format in
//!   `ANALYSIS.md`), and `core::SearchEngine::open` cold-starts from
//!   that file without re-running the tokenize → index → graph → CSR
//!   build pipeline — and without copying what it can serve in place:
//!   generation 0 borrows the term/alias string arenas and the
//!   relational rows straight from the image buffer, the POD arrays
//!   (postings, graph slots) decode in one bulk pass each, the CSR and
//!   the tuple→node index are built from the graph slots, and the
//!   database's PK/FK hash indexes are derived lazily on first
//!   mutation, which promotes the borrowed views to owned without
//!   readers noticing (open-to-first-answer runs ~12× faster than
//!   regenerating from source at the dept64 scale — B13 in
//!   `EXPERIMENTS.md`). The opened engine answers byte-identically to
//!   one rebuilt from the same database, stays fully mutable with its
//!   generation ordinal continuing across the boundary, and rejects
//!   truncated, corrupted, version-incompatible, or internally
//!   inconsistent images with typed `core::CoreError::Snapshot` errors
//!   — never a panic, never unchecked trust in hostile bytes (the
//!   library crates are `forbid(unsafe_code)`; property-tested in
//!   `crates/core/tests/{roundtrip,zero_copy}.rs`, cross-process in
//!   `tests/cold_start.rs`).
//!
//! ## Quickstart
//!
//! ```
//! use close_loose_ks::core::{SearchEngine, SearchOptions};
//! use close_loose_ks::datagen::company;
//!
//! let c = company();
//! let engine = SearchEngine::new(c.db, c.er_schema, c.mapping)
//!     .unwrap()
//!     .with_aliases(c.aliases);
//! let results = engine.search("Smith XML", &SearchOptions::default()).unwrap();
//! for r in &results.connections {
//!     println!("{:<40} rdb={} er={} {}", r.rendering,
//!              r.info.rdb_length, r.info.er_length, r.info.closeness);
//! }
//! ```

#![forbid(unsafe_code)]

pub use cla_core as core;
pub use cla_datagen as datagen;
pub use cla_er as er;
pub use cla_graph as graph;
pub use cla_index as index;
pub use cla_relational as relational;
