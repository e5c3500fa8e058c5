//! Offset-addressable snapshot persistence: one flat-buffer image per
//! published engine generation, for cold starts that skip the whole
//! build pipeline (tokenize → index → graph).
//!
//! The image is a [`cla_storage::SnapshotImage`]: a checksummed,
//! versioned container of independently addressable sections. It stores
//! only what opening cannot derive: the ER schema, the database's row
//! slots, the inverted index in the flat form it serves searches from
//! (sorted term dictionary, contiguous posting arrays), the data graph's
//! tombstone-preserving node and edge slots with each edge's foreign-key
//! index, and the display aliases. Everything else is recomputed on open
//! by the code a fresh build runs: the relational catalog and the
//! [`SchemaMapping`](cla_er::SchemaMapping) from the schema
//! ([`cla_er::map_to_relational`]), each node's middle flag and each
//! edge's [`FkRole`](cla_er::FkRole) from the mapping, the CSR from the
//! graph slots ([`cla_graph::CsrAdjacency::build`]), and the tuple→node
//! index from the graph's node slots; searches derive an edge's RDB
//! cardinality from its role and the schema. So an image cannot
//! contradict its own schema, and an opened engine answers
//! byte-identically to a rebuilt one.
//!
//! Every structure a snapshot reads is held as flat arrays, and the
//! encoders write those arrays as they are: an applied snapshot and a
//! rebuild over the same database hold the same index arrays, so their
//! index sections match byte for byte.
//!
//! Instrumentation state is recomputed, not persisted: the failpoint
//! opt-in is re-read from `CLA_FAILPOINTS` on open, and the scratch
//! pool starts empty (it refills on first search).

use crate::datagraph::{DataGraph, TupleNodes};
use crate::engine::LazyDb;
use crate::error::CoreError;
use crate::snapshot::{failpoints_enabled_from_env, EngineSnapshot};
use cla_er::{map_to_relational, ErSchema, SchemaMapping};
use cla_index::InvertedIndex;
use cla_relational::Database;
use cla_storage::{ByteReader, ByteWriter, ImageBuilder, SharedImage, StorageError};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};

/// Engine-level metadata: the snapshot's publication ordinal.
const SECTION_META: u32 = 1;
/// The [`cla_er::ErSchema`] declaration (catalog and mapping are
/// recomputed from it on open).
const SECTION_ER_SCHEMA: u32 = 2;
/// The database's row slots (tombstones included) and version counter.
const SECTION_DATABASE: u32 = 3;
/// The inverted index: tokenizer config, term dictionary, postings.
const SECTION_INDEX: u32 = 4;
/// The data graph's node and edge slots: tuples, live flags, and each
/// edge's foreign-key index.
const SECTION_GRAPH: u32 = 5;
/// Display aliases: sorted keys, arena bounds, string arena.
const SECTION_ALIASES: u32 = 7;
// Ids 6, 8 and 9 are retired (format version 2 stored the CSR and the
// per-edge cardinalities there, version 3 the tuple→node map); do not
// reuse them.

fn build_image(snapshot: &EngineSnapshot, db: &Database) -> ImageBuilder {
    let mut meta = ByteWriter::new();
    meta.u64(snapshot.generation);
    let mut builder = ImageBuilder::new();
    builder
        .section(SECTION_META, meta.into_vec())
        .section(SECTION_ER_SCHEMA, snapshot.er_schema.encode())
        .section(SECTION_DATABASE, db.encode_flat())
        .section(SECTION_INDEX, snapshot.index.encode())
        .section(SECTION_GRAPH, snapshot.dg.encode_graph())
        .section(SECTION_ALIASES, snapshot.aliases.encode());
    builder
}

/// Serialize one published generation plus the database it reflects
/// into an in-memory snapshot image (the byte content of
/// [`SearchEngine::save`](crate::SearchEngine::save)'s file).
/// Production code always goes through [`write_image`]; the in-memory
/// twin exists for the byte-identity assertions in the unit tests
/// below.
#[cfg(test)]
pub(crate) fn encode_image(snapshot: &EngineSnapshot, db: &Database) -> Vec<u8> {
    build_image(snapshot, db).finish()
}

/// Write the image of one published generation to `path` (via a
/// temporary sibling file and an atomic rename). `db` must be the
/// database the snapshot reflects, with no staged mutations;
/// [`SearchEngine::save`](crate::SearchEngine::save), the only caller,
/// checks that.
pub(crate) fn write_image(
    snapshot: &EngineSnapshot,
    db: &Database,
    path: &Path,
) -> Result<(), CoreError> {
    build_image(snapshot, db).write_to(path)?;
    Ok(())
}

/// The ER schema section and the mapping it produces.
fn decode_schema(image: &SharedImage) -> Result<(ErSchema, SchemaMapping), CoreError> {
    let er_schema = ErSchema::decode(image.section(SECTION_ER_SCHEMA)?.as_slice())?;
    let mapping = map_to_relational(&er_schema)
        .map_err(|e| StorageError::Malformed(format!("schema does not map: {e}")))?;
    Ok((er_schema, mapping))
}

/// Decode a shared image into `(snapshot, lazy database, generation)`
/// **zero-copy**: sections are bounds-validated once, then generation 0
/// serves straight out of the shared buffer. The term and alias arenas
/// and the relational rows stay borrowed views; the alignment-sensitive
/// POD arrays (postings, graph slots) decode with a constant number of
/// allocations; the CSR and the tuple→node index are built from the
/// graph slots; and the owned [`Database`] with its PK/reverse-FK hash
/// indexes is **not built here at all** — the returned [`LazyDb`]
/// materializes it on first mutation.
///
/// The image is authenticated by its checksum, but a *well-formed* image
/// could still be internally inconsistent — every such inconsistency is
/// a typed error, never a panic or UB. The DATABASE payload is
/// validated check-for-check with [`Database::decode_flat`] via
/// [`Database::validate_flat`], so the deferred materialization is
/// guaranteed to succeed; the same pass marks each live row in one
/// array of row slots in tuple order, sized from the validated slot
/// counts, and [`DataGraph::index_rows`] then fills it from the graph's
/// live nodes, proving that live nodes and live tuples correspond one
/// to one. The graph's live edges must number the rows' non-NULL
/// references.
pub(crate) fn decode_image(
    image: &SharedImage,
) -> Result<(EngineSnapshot, LazyDb, u64), CoreError> {
    // The graph decode reads middle flags and edge roles from the
    // mapping, so the schema comes first. A schema that fails to decode
    // may sit in a corrupt image: the checksum verdict is then reported
    // first, as an eager-checksum parse would.
    let schema = decode_schema(image);
    if schema.is_err() {
        image.verify_checksum()?;
    }
    let (er_schema, mapping) = schema?;
    // Four independent lanes: the whole-body checksum (deferred by
    // `SearchEngine::open`'s `parse_deferred`), the index decode (plus
    // the small alias section), the graph decode (which builds the
    // CSR), and the database validation walk. On a multi-core host the
    // first three run on scoped threads while the main lane runs here;
    // on a single core the spawns would only add overhead (tens of
    // microseconds against a sub-millisecond open), so the lanes run
    // inline instead. Every decoder already treats its bytes as hostile
    // (typed errors, never a panic — the property suite pins this), so
    // decoding before the checksum verdict lands is safe; the verdict
    // is checked *first* below, which keeps the observable error of a
    // corrupt image identical to an eager-checksum parse. Lane results
    // are consumed in a fixed order, so error precedence is
    // deterministic regardless of thread timing.
    let checksum_lane = || image.verify_checksum();
    let index_lane = || -> Result<_, CoreError> {
        let index = InvertedIndex::decode(image.section(SECTION_INDEX)?)?;
        let aliases = crate::aliases::Aliases::decode(image.section(SECTION_ALIASES)?)?;
        Ok((index, aliases))
    };
    let graph_lane = || -> Result<_, CoreError> {
        Ok(DataGraph::decode(image.section(SECTION_GRAPH)?.as_slice(), &mapping)?)
    };
    let main_lane = || -> Result<_, CoreError> {
        let meta_section = image.section(SECTION_META)?;
        let mut meta = ByteReader::new(meta_section.as_slice());
        let generation = meta.u64()?;
        meta.finish()?;

        // The validation walk also marks each live row in one array of
        // row slots in tuple order, each relation's range sized from its
        // validated slot count; the graph's node index is filled into it
        // once the lanes join.
        let catalog = mapping.catalog().clone();
        let db_bytes = image.section(SECTION_DATABASE)?;
        let mut rows = TupleNodes::default();
        let summary = Database::validate_flat(&catalog, db_bytes.as_slice(), |t, slots| {
            rows.mark_live_row(t, slots)
        })?;
        Ok((generation, catalog, db_bytes, summary, rows))
    };
    // A decoder panic would be a bug, not a data condition; surface
    // it unchanged instead of swallowing it.
    fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> T {
        match h.join() {
            Ok(r) => r,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    let multicore = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
    let (checksum, index_res, graph_res, main_res) = if multicore {
        std::thread::scope(|s| {
            let crc = s.spawn(checksum_lane);
            let index = s.spawn(index_lane);
            let graph = s.spawn(graph_lane);
            let main = main_lane();
            (join(crc), join(index), join(graph), main)
        })
    } else {
        (checksum_lane(), index_lane(), graph_lane(), main_lane())
    };
    checksum.map_err(CoreError::Snapshot)?;
    let (generation, catalog, db_bytes, summary, rows) = main_res?;
    let (index, aliases) = index_res?;
    let mut dg = graph_res?;
    dg.index_rows(rows, catalog.len(), summary.live_rows)?;
    // Every non-NULL reference of a saved database resolves (engines
    // validate references before they publish), and each is one live
    // edge.
    if dg.edge_count() != summary.references {
        return Err(CoreError::Snapshot(StorageError::Malformed(format!(
            "graph has {} live edges for {} references",
            dg.edge_count(),
            summary.references
        ))));
    }

    let db = LazyDb::from_image(catalog, db_bytes, summary.version);
    let snapshot = EngineSnapshot {
        er_schema: Arc::new(er_schema),
        mapping: Arc::new(mapping),
        index,
        dg,
        aliases: Arc::new(aliases),
        generation,
        failpoints: AtomicBool::new(failpoints_enabled_from_env()),
        scratch_pool: Mutex::new(Vec::new()),
    };
    Ok((snapshot, db, generation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SearchEngine;
    use crate::snapshot::SearchOptions;
    use cla_datagen::company;
    use cla_relational::Value;
    use cla_storage::SnapshotImage;

    fn company_engine() -> SearchEngine {
        let c = company();
        SearchEngine::new(c.db, c.er_schema, c.mapping).unwrap().with_aliases(c.aliases)
    }

    fn render(r: &crate::snapshot::SearchResults) -> Vec<(String, String)> {
        r.connections.iter().map(|c| (c.rendering.clone(), c.explanation.clone())).collect()
    }

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cla_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}.snap", std::process::id()))
    }

    /// Stage one employee insert (under a fresh primary key), so the
    /// applied snapshot's index and graph differ from the built ones.
    fn stage_insert(engine: &mut SearchEngine, pk: &str) {
        let db = engine.db();
        let emp = db.catalog().relation_id("EMPLOYEE").unwrap();
        let dept = db.catalog().relation_id("DEPARTMENT").unwrap();
        let d = db.all_tuple_ids().find(|t| t.relation == dept).unwrap();
        let d_pk = db.tuple(d).unwrap().values()[0].clone();
        let values: Vec<Value> = vec![pk.into(), "Smith".into(), "Zara".into(), d_pk];
        engine.insert(emp, values).unwrap();
    }

    #[test]
    fn image_round_trips_byte_identically() {
        let engine = company_engine();
        let bytes = encode_image(&engine.snapshot(), engine.db());
        let image = SnapshotImage::parse(bytes.clone()).unwrap().into_shared();
        let (snap, db, generation) = decode_image(&image).unwrap();
        assert_eq!(generation, 0);
        assert!(!db.is_materialized(), "decode must not build the database eagerly");
        assert_eq!(
            encode_image(&snap, db.get()),
            bytes,
            "decode re-encodes byte-identically"
        );
    }

    /// An applied generation's image reopens at its ordinal and
    /// re-encodes byte-identically, and its index section equals a
    /// fresh build's over the mutated database.
    #[test]
    fn applied_image_round_trips_byte_identically() {
        let mut engine = company_engine();
        stage_insert(&mut engine, "e_z1");
        let _ = engine.apply().unwrap();
        let bytes = encode_image(&engine.snapshot(), engine.db());
        let image = SnapshotImage::parse(bytes.clone()).unwrap().into_shared();
        let (opened, db, generation) = decode_image(&image).unwrap();
        assert_eq!(generation, 1);
        assert_eq!(encode_image(&opened, db.get()), bytes, "decode re-encodes identically");
        assert_eq!(opened.index.encode(), InvertedIndex::build(db.get()).encode());
    }

    #[test]
    fn save_open_preserves_answers_and_stays_mutable() {
        let mut engine = company_engine();
        stage_insert(&mut engine, "e_z1");
        let _ = engine.apply().unwrap();
        let path = temp_file("save_open");
        engine.save(&path).unwrap();
        let mut opened = SearchEngine::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        assert_eq!(opened.generation(), engine.generation());
        assert_eq!(opened.db().version(), engine.db().version());
        let opts = SearchOptions::default();
        for query in ["Smith XML", "Zara research"] {
            let a = engine.search(query, &opts).unwrap();
            let b = opened.search(query, &opts).unwrap();
            assert_eq!(render(&a), render(&b), "query `{query}` diverged after reopen");
        }

        // The opened engine keeps mutating: a further apply publishes
        // the next generation on top of the restored ordinal.
        stage_insert(&mut opened, "e_z2");
        let err = opened.save(&path).unwrap_err();
        assert!(matches!(err, CoreError::StaleEngine { .. }), "staged mutations refuse save");
        let _ = opened.apply().unwrap();
        assert_eq!(opened.generation(), engine.generation() + 1);
        opened.save(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_corrupt_files_with_typed_errors() {
        let engine = company_engine();
        let path = temp_file("corrupt");
        engine.save(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncation, anywhere.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(SearchEngine::open(&path), Err(CoreError::Snapshot(_))));

        // A flipped payload bit fails the checksum.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            SearchEngine::open(&path),
            Err(CoreError::Snapshot(StorageError::ChecksumMismatch { .. }))
        ));

        // A future format version is refused outright.
        let mut versioned = good.clone();
        versioned[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&path, &versioned).unwrap();
        assert!(matches!(
            SearchEngine::open(&path),
            Err(CoreError::Snapshot(StorageError::UnsupportedVersion { .. }))
        ));

        std::fs::remove_file(&path).unwrap();
    }

    /// Rebuild `image` with section `target`'s payload rewritten by `f`
    /// (the builder re-stamps the checksum, so the result is a structurally
    /// authentic image carrying hostile section bytes).
    fn rewrite_section(
        image: &SnapshotImage,
        target: u32,
        f: impl Fn(Vec<u8>) -> Vec<u8>,
    ) -> SharedImage {
        let mut builder = ImageBuilder::new();
        for id in image.section_ids() {
            let payload = image.section(id).unwrap().to_vec();
            builder.section(id, if id == target { f(payload) } else { payload });
        }
        SnapshotImage::parse(builder.finish()).unwrap().into_shared()
    }

    /// One seeded byte flip inside one section of the company image,
    /// checksum re-stamped, either fails the open with a typed snapshot
    /// error or opens an engine that answers every algorithm without
    /// panicking.
    #[test]
    fn section_byte_flips_fail_typed_or_answer() {
        use crate::snapshot::Algorithm;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let engine = company_engine();
        let image =
            SnapshotImage::parse(encode_image(&engine.snapshot(), engine.db())).unwrap();
        let ids: Vec<u32> = image.section_ids().collect();
        let mut rng = StdRng::seed_from_u64(0x5ec7_10f1);
        for case in 0..2_000 {
            let id = ids[rng.random_range(0..ids.len())];
            let len = image.section(id).unwrap().len();
            let at = rng.random_range(0..len);
            let mask = rng.random_range(0..u8::MAX) + 1;
            let flipped = rewrite_section(&image, id, |mut p| {
                p[at] ^= mask;
                p
            });
            let what = format!("case {case}: section {id}, byte {at} ^ {mask:#04x}");
            let opened = catch_unwind(AssertUnwindSafe(|| decode_image(&flipped)))
                .unwrap_or_else(|_| panic!("{what}: decode panicked"));
            let snapshot = match opened {
                Ok((snapshot, _, _)) => snapshot,
                Err(CoreError::Snapshot(_)) => continue,
                Err(e) => panic!("{what}: untyped open error {e:?}"),
            };
            for query in ["Smith XML", "xml smith alice"] {
                for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
                    for k in [None, Some(3)] {
                        let opts = SearchOptions { algorithm, k, ..Default::default() };
                        let _ =
                            catch_unwind(AssertUnwindSafe(|| snapshot.search(query, &opts)))
                                .unwrap_or_else(|_| {
                                    panic!("{what}: {algorithm:?} k={k:?} `{query}` panicked")
                                });
                    }
                }
            }
        }
    }

    /// Byte offset of node record `i` in a GRAPH payload.
    fn node_record(i: usize) -> usize {
        4 + 9 * i
    }

    /// Byte offset of edge record `j` in a GRAPH payload.
    fn edge_record(graph: &[u8], j: usize) -> usize {
        let n_nodes = u32::from_le_bytes(graph[..4].try_into().unwrap()) as usize;
        4 + 9 * n_nodes + 4 + 13 * j
    }

    fn put_u32(p: &mut [u8], at: usize, v: u32) {
        p[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    fn assert_malformed(image: &SharedImage, what: &str) {
        assert!(
            matches!(
                decode_image(image),
                Err(CoreError::Snapshot(StorageError::Malformed(_)))
            ),
            "{what}"
        );
    }

    /// A live edge marked dead (checksum re-stamped): every GRAPH record
    /// is well-formed on its own, but the graph then holds fewer live
    /// edges than the rows hold non-NULL references.
    #[test]
    fn decode_rejects_cross_section_inconsistency() {
        let engine = company_engine();
        let image =
            SnapshotImage::parse(encode_image(&engine.snapshot(), engine.db())).unwrap();
        let dead_edge = rewrite_section(&image, SECTION_GRAPH, |mut p| {
            let alive = edge_record(&p, 0) + 8;
            assert_eq!(p[alive], 1, "the first edge is live");
            p[alive] = 0;
            p
        });
        assert_malformed(&dead_edge, "live edge marked dead");
    }

    /// Sections rewritten with hostile bytes (checksum re-stamped), in
    /// the image of an engine with a tombstoned dependent. The GRAPH node
    /// records break the one-to-one match of live nodes and live rows;
    /// none may size an allocation by its bad row (a row of `u32::MAX`
    /// would ask for gigabytes).
    #[test]
    fn decode_rejects_hostile_rewritten_sections() {
        let mut engine = company_engine();
        let catalog = engine.db().catalog();
        let (dep, emp) = (
            catalog.relation_id("DEPENDENT").unwrap(),
            catalog.relation_id("EMPLOYEE").unwrap(),
        );
        let of = |rel| engine.db().all_tuple_ids().filter(move |t| t.relation == rel);
        let (gone, kept) = (of(dep).next().unwrap(), of(dep).nth(1).unwrap());
        let (emp_a, emp_b) = (of(emp).next().unwrap(), of(emp).nth(1).unwrap());
        engine.delete(gone).unwrap();
        let _ = engine.apply().unwrap();
        let snapshot = engine.snapshot();
        let dg = snapshot.data_graph();
        let image = SnapshotImage::parse(encode_image(&snapshot, engine.db())).unwrap();
        let graph = |f: &dyn Fn(&mut Vec<u8>)| {
            rewrite_section(&image, SECTION_GRAPH, |mut p| {
                f(&mut p);
                p
            })
        };
        decode_image(&graph(&|_| {})).unwrap();
        let kept_row = node_record(dg.node_of(kept).unwrap().index()) + 4;

        let row_past_end = graph(&|p| put_u32(p, kept_row, u32::MAX));
        assert_malformed(&row_past_end, "live node whose row is u32::MAX");
        let twice = graph(&|p| {
            put_u32(p, node_record(dg.node_of(emp_b).unwrap().index()) + 4, emp_a.row)
        });
        assert_malformed(&twice, "two live nodes naming one tuple");
        let on_tombstone = graph(&|p| put_u32(p, kept_row, gone.row));
        assert_malformed(&on_tombstone, "live node naming a tombstoned row");
        // The kept dependent's node dies with its edges, so the slot
        // arrays stay consistent and only its live row is left over.
        let no_node = graph(&|p| {
            let n = dg.node_of(kept).unwrap();
            p[node_record(n.index()) + 8] = 0;
            for &(_, e) in dg.csr().neighbors(n) {
                let alive = edge_record(p, e.index()) + 8;
                p[alive] = 0;
            }
        });
        assert_malformed(&no_node, "live row with no node");
        // A GRAPH edge whose foreign-key index names no foreign key of
        // its source relation: there is no role for it to carry.
        let unkeyed = graph(&|p| {
            let first_fk_index = edge_record(p, 0) + 9;
            put_u32(p, first_fk_index, 99);
        });
        assert_malformed(&unkeyed, "edge with an unknown foreign key");
        // Truncated ALIASES and INDEX payloads are caught by their
        // section decoders, a truncated DATABASE payload by the
        // materialization-free validation pass.
        for id in [SECTION_ALIASES, SECTION_INDEX, SECTION_DATABASE] {
            let clipped = rewrite_section(&image, id, |mut p| {
                p.truncate(p.len() - 1);
                p
            });
            assert!(matches!(decode_image(&clipped), Err(CoreError::Snapshot(_))));
        }
    }
}
