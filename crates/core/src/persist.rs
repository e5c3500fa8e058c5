//! Offset-addressable snapshot persistence: one flat-buffer image per
//! published engine generation, for cold starts that skip the whole
//! build pipeline (tokenize → index → graph → CSR).
//!
//! The image is a [`cla_storage::SnapshotImage`]: a checksummed,
//! versioned container of independently addressable sections. Every
//! derived structure is stored in (or reconstructed from) the flat form
//! it already serves searches from — the sorted term dictionary and
//! contiguous posting arrays of the inverted index, the CSR offset and
//! neighbor arrays, the tombstone-preserving row/node/edge slot arrays
//! — so opening is section reads plus validation, not a rebuild. Two
//! structures are deliberately *not* stored: the relational catalog and
//! the [`SchemaMapping`](cla_er::SchemaMapping) are recomputed from the
//! decoded ER schema by the same pure [`cla_er::map_to_relational`]
//! call a fresh build runs, which is what keeps an opened engine
//! answering byte-identically to a rebuilt one.
//!
//! Every structure a snapshot reads is held as flat arrays, and the
//! encoders write those arrays as they are: an applied snapshot and a
//! rebuild over the same database hold the same index arrays, so their
//! index sections match byte for byte.
//!
//! Instrumentation state is recomputed, not persisted: the failpoint
//! opt-in is re-read from `CLA_FAILPOINTS` on open, and the scratch
//! pool starts empty (it refills on first search).

use crate::datagraph::DataGraph;
use crate::error::CoreError;
use crate::snapshot::{failpoints_enabled_from_env, EngineSnapshot};
use crate::writer::LazyDb;
use cla_er::{map_to_relational, Cardinality, Side};
use cla_index::InvertedIndex;
use cla_relational::{Database, TupleId};
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
/// The data graph's node and edge slot arrays with annotations.
const SECTION_GRAPH: u32 = 5;
/// The CSR adjacency: offsets and flat neighbor array.
const SECTION_CSR: u32 = 6;
/// Display aliases: sorted keys, arena bounds, string arena.
const SECTION_ALIASES: u32 = 7;
/// The per-edge-slot RDB cardinality table.
const SECTION_EDGE_CARDS: u32 = 8;
/// The tuple→node map: strictly-sorted `(rel, row, node)` records, one
/// per live graph node, binary-searched in place after open.
const SECTION_NODE_MAP: u32 = 9;

fn encode_side(w: &mut ByteWriter, side: Side) {
    w.u8(match side {
        Side::One => 0,
        Side::Many => 1,
    });
}

fn decode_side(r: &mut ByteReader<'_>) -> Result<Side, StorageError> {
    match r.u8()? {
        0 => Ok(Side::One),
        1 => Ok(Side::Many),
        tag => Err(StorageError::Malformed(format!("unknown side tag {tag}"))),
    }
}

fn encode_edge_cards(cards: &[Cardinality]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.len(cards.len());
    for c in cards {
        encode_side(&mut w, c.left);
        encode_side(&mut w, c.right);
    }
    w.into_vec()
}

fn decode_edge_cards(bytes: &[u8]) -> Result<Vec<Cardinality>, StorageError> {
    let mut r = ByteReader::new(bytes);
    let n = r.len_of(2)?;
    let mut cards = Vec::with_capacity(n);
    for _ in 0..n {
        cards.push(Cardinality::new(decode_side(&mut r)?, decode_side(&mut r)?));
    }
    r.finish()?;
    Ok(cards)
}

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
        .section(SECTION_CSR, snapshot.dg.encode_csr())
        .section(SECTION_ALIASES, snapshot.aliases.encode())
        .section(SECTION_EDGE_CARDS, encode_edge_cards(&snapshot.edge_cards))
        .section(SECTION_NODE_MAP, snapshot.dg.encode_node_map());
    builder
}

/// Serialize one published generation plus the database it reflects
/// into an in-memory snapshot image (the byte content of
/// [`EngineSnapshot::save`]'s file). Production code always goes
/// through [`write_image`]; the in-memory twin exists for the
/// byte-identity assertions in the unit tests below.
#[cfg(test)]
pub(crate) fn encode_image(snapshot: &EngineSnapshot, db: &Database) -> Vec<u8> {
    build_image(snapshot, db).finish()
}

/// Write the image of one published generation to `path` (via a
/// temporary sibling file and an atomic rename).
pub(crate) fn write_image(
    snapshot: &EngineSnapshot,
    db: &Database,
    path: &Path,
) -> Result<(), CoreError> {
    build_image(snapshot, db).write_to(path)?;
    Ok(())
}

/// Decode a shared image into `(snapshot, lazy database, generation)`
/// **zero-copy**: sections are bounds-validated once, then generation 0
/// serves straight out of the shared buffer. The term and alias arenas,
/// the tuple→node map, and the relational rows stay borrowed views; the
/// alignment-sensitive POD arrays (postings, CSR, graph slots) decode
/// with a constant number of allocations; and the owned [`Database`]
/// with its PK/reverse-FK hash indexes is **not built here at all** —
/// the returned [`LazyDb`] materializes it on first mutation.
///
/// The image is authenticated by its checksum, but a *well-formed* image
/// could still be internally inconsistent — every such inconsistency is
/// a typed error, never a panic or UB. The DATABASE payload is
/// validated check-for-check with [`Database::decode_flat`] via
/// [`Database::validate_flat`], so the deferred materialization is
/// guaranteed to succeed; the same pass merge-walks the strictly-sorted
/// NODE_MAP records against the live rows (both enumerate live tuples
/// in ascending `(relation, row)` order), proving record-by-record that
/// the graph covers exactly the database's live tuples.
pub(crate) fn decode_image(
    image: &SharedImage,
) -> Result<(EngineSnapshot, LazyDb, u64), CoreError> {
    // Four independent lanes: the whole-body checksum (deferred by
    // `EngineWriter::open`'s `parse_deferred`), the index decode (plus
    // the small alias and cardinality sections), the graph decode, and
    // the schema decode followed by the database validation walk. On a
    // multi-core host the first three run on scoped threads while the
    // main lane runs here; on a single core the spawns would only add
    // overhead (tens of microseconds against a sub-millisecond open),
    // so the lanes run inline instead. Every decoder already treats
    // its bytes as hostile (typed errors, never a panic — the property
    // suite pins this), so decoding before the checksum verdict lands
    // is safe; the verdict is checked *first* below, which keeps the
    // observable error of a corrupt image identical to an
    // eager-checksum parse. Lane results are consumed in a fixed
    // order, so error precedence is deterministic regardless of
    // thread timing.
    let checksum_lane = || image.verify_checksum();
    let index_lane = || -> Result<_, CoreError> {
        let index = InvertedIndex::decode(image.section(SECTION_INDEX)?)?;
        let aliases = crate::aliases::Aliases::decode(image.section(SECTION_ALIASES)?)?;
        let edge_cards = decode_edge_cards(image.section(SECTION_EDGE_CARDS)?.as_slice())?;
        Ok((index, aliases, edge_cards))
    };
    let graph_lane = || -> Result<_, CoreError> {
        Ok(DataGraph::decode(
            image.section(SECTION_GRAPH)?.as_slice(),
            image.section(SECTION_CSR)?.as_slice(),
            image.section(SECTION_NODE_MAP)?,
        )?)
    };
    let main_lane = || -> Result<_, CoreError> {
        let meta_section = image.section(SECTION_META)?;
        let mut meta = ByteReader::new(meta_section.as_slice());
        let generation = meta.u64()?;
        meta.finish()?;
        let er_schema =
            cla_er::ErSchema::decode(image.section(SECTION_ER_SCHEMA)?.as_slice())?;
        let mapping = map_to_relational(&er_schema)
            .map_err(|e| StorageError::Malformed(format!("schema does not map: {e}")))?;

        // Re-slice the node-map records region for the merge walk
        // below (the graph lane validates the same section
        // structurally, in parallel).
        let node_map = image.section(SECTION_NODE_MAP)?;
        let mut nm_reader = ByteReader::new(node_map.as_slice());
        let n_map = nm_reader.len_of(12)?;
        let records_start = nm_reader.position();
        let records = node_map.slice(records_start..records_start + n_map * 12)?;

        let catalog = mapping.catalog().clone();
        let db_bytes = image.section(SECTION_DATABASE)?;
        let mut cursor = 0usize;
        let summary = Database::validate_flat(&catalog, db_bytes.as_slice(), |rel, row| {
            let expected = records.record(cursor, 12).map(|rec| {
                (
                    u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]),
                    u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]),
                )
            });
            if expected == Some((rel.0, row)) {
                cursor += 1;
                Ok(())
            } else {
                Err(format!("live tuple {} has no graph node", TupleId::new(rel, row)))
            }
        })?;
        debug_assert_eq!(summary.live_rows, cursor);
        if cursor != n_map {
            return Err(CoreError::Snapshot(StorageError::Malformed(format!(
                "graph has {n_map} live nodes for {cursor} live tuples"
            ))));
        }
        Ok((generation, er_schema, mapping, catalog, db_bytes, summary))
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
    let (generation, er_schema, mapping, catalog, db_bytes, summary) = main_res?;
    let (index, aliases, edge_cards) = index_res?;
    let dg = graph_res?;
    if edge_cards.len() != dg.graph().edge_slots() {
        return Err(CoreError::Snapshot(StorageError::Malformed(format!(
            "cardinality table has {} entries for {} edge slots",
            edge_cards.len(),
            dg.graph().edge_slots()
        ))));
    }

    let db = LazyDb::from_image(catalog, db_bytes, summary.version);
    let snapshot = EngineSnapshot {
        er_schema: Arc::new(er_schema),
        mapping: Arc::new(mapping),
        index,
        dg,
        aliases: Arc::new(aliases),
        edge_cards,
        generation,
        failpoints: AtomicBool::new(failpoints_enabled_from_env()),
        scratch_pool: Mutex::new(Vec::new()),
    };
    Ok((snapshot, db, generation))
}

impl EngineSnapshot {
    /// Save this published generation — together with `db`, the
    /// database instance it reflects — as one offset-addressable,
    /// checksummed snapshot image at `path` (written to a temporary
    /// sibling and atomically renamed into place).
    ///
    /// `db` must be the instance this snapshot was built or patched
    /// from, with no staged-but-unapplied mutations; the
    /// [`EngineWriter::save`](crate::EngineWriter::save) and
    /// `SearchEngine::save` entry points enforce that freshness and
    /// should be preferred. Saving never mutates the snapshot, so
    /// concurrent readers of this generation are unaffected.
    pub fn save(&self, db: &Database, path: impl AsRef<Path>) -> Result<(), CoreError> {
        write_image(self, db, path.as_ref())
    }
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
        engine.writer_mut().insert(emp, values).unwrap();
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

        assert_eq!(opened.writer().generation(), engine.writer().generation());
        assert_eq!(opened.db().version(), engine.db().version());
        let opts = SearchOptions { threads: 1, ..Default::default() };
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
        assert_eq!(opened.writer().generation(), engine.writer().generation() + 1);
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

    #[test]
    fn decode_rejects_cross_section_inconsistency() {
        let engine = company_engine();
        let bytes = encode_image(&engine.snapshot(), engine.db());
        let image = SnapshotImage::parse(bytes).unwrap();
        // An empty cardinality table: every section is individually
        // well-formed, but the table no longer covers the graph's edge
        // slots.
        let inconsistent =
            rewrite_section(&image, SECTION_EDGE_CARDS, |_| encode_edge_cards(&[]));
        assert!(matches!(
            decode_image(&inconsistent),
            Err(CoreError::Snapshot(StorageError::Malformed(_)))
        ));
        // An empty node map: the graph decodes, but the merge walk
        // against the database's live rows fails on the first tuple.
        let mut w = ByteWriter::new();
        w.len(0);
        let empty_map = w.into_vec();
        let unmapped = rewrite_section(&image, SECTION_NODE_MAP, move |_| empty_map.clone());
        assert!(matches!(
            decode_image(&unmapped),
            Err(CoreError::Snapshot(StorageError::Malformed(_)))
        ));
    }

    #[test]
    fn decode_rejects_hostile_rewritten_sections() {
        let engine = company_engine();
        let bytes = encode_image(&engine.snapshot(), engine.db());
        let image = SnapshotImage::parse(bytes).unwrap();
        // NODE_MAP with its first two records swapped breaks the strict
        // key ordering the binary-search accessor relies on.
        let swapped = rewrite_section(&image, SECTION_NODE_MAP, |mut p| {
            for i in 0..12 {
                p.swap(4 + i, 16 + i);
            }
            p
        });
        assert!(matches!(
            decode_image(&swapped),
            Err(CoreError::Snapshot(StorageError::Malformed(_)))
        ));
        // A CSR entry whose neighbour no longer matches its edge: every id
        // is in range and every edge alive, but a search would step along
        // that edge to the wrong tuple.
        let rewired = rewrite_section(&image, SECTION_CSR, |mut p| {
            let n_offsets = u32::from_le_bytes([p[0], p[1], p[2], p[3]]) as usize;
            let first = 4 + 4 * n_offsets + 4;
            let m = u32::from_le_bytes([p[first], p[first + 1], p[first + 2], p[first + 3]]);
            let other = if m == 0 { 1 } else { m - 1 };
            p[first..first + 4].copy_from_slice(&other.to_le_bytes());
            p
        });
        assert!(matches!(
            decode_image(&rewired),
            Err(CoreError::Snapshot(StorageError::Malformed(_)))
        ));
        // A truncated ALIASES payload is caught by the section decoder.
        let clipped = rewrite_section(&image, SECTION_ALIASES, |mut p| {
            p.truncate(p.len() - 1);
            p
        });
        assert!(matches!(decode_image(&clipped), Err(CoreError::Snapshot(_))));
        // A truncated INDEX payload likewise.
        let clipped = rewrite_section(&image, SECTION_INDEX, |mut p| {
            p.truncate(p.len() - 1);
            p
        });
        assert!(matches!(decode_image(&clipped), Err(CoreError::Snapshot(_))));
        // A truncated DATABASE payload is caught by the materialization-
        // free validation pass.
        let clipped = rewrite_section(&image, SECTION_DATABASE, |mut p| {
            p.truncate(p.len() - 1);
            p
        });
        assert!(matches!(decode_image(&clipped), Err(CoreError::Snapshot(_))));
    }
}
