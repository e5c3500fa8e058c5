//! Snapshot save/open round-trip properties.
//!
//! The contract under test, over seeded synthetic databases:
//!
//! * **Round-trip equivalence** — `SearchEngine::open` over a file
//!   written by `SearchEngine::save` answers **identically** to the
//!   in-memory engine it came from: ranked output, explanations,
//!   structural info and the full `SearchStats`, for all three
//!   algorithms, in sequential and multi-threaded search legs.
//! * **Byte-stable images** — re-saving an opened engine reproduces the
//!   image byte for byte (the on-disk form is canonical: every
//!   section writes flat arrays as they are, deterministically).
//! * **Mutation after open** — an opened engine is a *live* engine:
//!   fuzzed insert/update/delete batches applied post-open keep it
//!   byte-identical to a from-scratch rebuild over the mutated
//!   database (the same oracle the mutation suite pins on a never-saved
//!   engine), including across a full slot compaction.
//! * **Hostile files** — any truncation and any single corrupted byte
//!   of a valid image make `open` return `CoreError::Snapshot` (typed,
//!   matchable reasons) and **never panic**.

use cla_core::{Algorithm, CoreError, SearchEngine, SearchOptions, StorageError};
use cla_datagen::{generate_synthetic, SyntheticConfig};
use cla_relational::RelationalError::DeleteRestricted;
use cla_relational::{Database, RelationId, TupleId, Value};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;

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

const QUERIES: &[&str] = &["xml smith", "xml alice", "smith alice"];

/// A per-test snapshot file under the cargo tmp dir (unique per seed so
/// proptest's cases never collide; removed by the caller).
fn snap_path(tag: &str, seed: u64) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    dir.join(format!("roundtrip-{tag}-{}-{seed}.snap", std::process::id()))
}

type Rendered = Vec<(String, String, cla_core::ConnectionInfo)>;

fn render(r: &cla_core::SearchResults) -> Rendered {
    r.connections
        .iter()
        .map(|c| (c.rendering.clone(), c.explanation.clone(), c.info.clone()))
        .collect()
}

/// Every observable of one search, for the two engines to agree on.
fn observe(
    engine: &SearchEngine,
    query: &str,
    opts: &SearchOptions,
) -> (Rendered, usize, cla_core::SearchStats) {
    let r = engine.search(query, opts).expect("search succeeds");
    (render(&r), r.trees.len(), r.stats)
}

/// Assert `opened` and `reference` answer identically: all queries, all
/// three algorithms, plus streaming top-k.
fn assert_same_answers(
    opened: &SearchEngine,
    reference: &SearchEngine,
    context: &str,
) -> Result<(), TestCaseError> {
    for query in QUERIES {
        for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
            let opts = SearchOptions { algorithm, max_rdb_length: 3, ..Default::default() };
            prop_assert_eq!(
                observe(opened, query, &opts),
                observe(reference, query, &opts),
                "{}: `{}` via {:?} diverged",
                context,
                query,
                algorithm
            );
        }
        let topk = SearchOptions { k: Some(3), ..Default::default() };
        prop_assert_eq!(
            observe(opened, query, &topk),
            observe(reference, query, &topk),
            "{}: `{}` top-3 diverged",
            context,
            query
        );
    }
    Ok(())
}

/// Minimal fuzz mutator over the synthetic company schema (the full
/// interleaving torture lives in `tests/mutation.rs`; here the point is
/// that an *opened* engine accepts and correctly applies the same ops).
struct Mutator {
    dept: RelationId,
    emp: RelationId,
    dep: RelationId,
    fresh: usize,
}

impl Mutator {
    fn new(db: &Database) -> Self {
        let rel = |n: &str| db.catalog().relation_id(n).expect("company relation");
        Mutator {
            dept: rel("DEPARTMENT"),
            emp: rel("EMPLOYEE"),
            dep: rel("DEPENDENT"),
            fresh: 0,
        }
    }

    fn fresh_pk(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}r{}", self.fresh)
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

    fn random_op(&mut self, w: &mut SearchEngine, rng: &mut StdRng) -> bool {
        match rng.random_range(0..4usize) {
            // Insert a dependent of a random employee (index + edge).
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
            // Flip a dependent's name in place (text diff, same id).
            2 => {
                let Some((id, _)) = Self::pick(w.db(), self.dep, rng) else { return false };
                let mut values = w.db().tuple(id).unwrap().values().to_vec();
                let name = if rng.random::<f64>() < 0.5 { "Alice" } else { "Casey" };
                values[2] = name.into();
                w.update(id, values).unwrap();
                true
            }
            // Delete a random tuple; restricted deletes are no-ops.
            3 => {
                let rel = [self.dep, self.emp][rng.random_range(0..2usize)];
                let Some((id, _)) = Self::pick(w.db(), rel, rng) else { return false };
                match w.delete(id) {
                    Ok(()) => true,
                    Err(CoreError::Relational(DeleteRestricted { .. })) => false,
                    Err(e) => panic!("unexpected delete failure: {e}"),
                }
            }
            _ => unreachable!(),
        }
    }
}

/// A rebuilt twin of `engine` over its current database.
fn rebuild(engine: &SearchEngine) -> SearchEngine {
    SearchEngine::new(
        engine.db().clone(),
        engine.er_schema().clone(),
        engine.mapping().clone(),
    )
    .expect("rebuild succeeds")
    .with_aliases(engine.aliases().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round-trip equivalence: an engine reopened from its saved image
    /// answers identically to the in-memory original, and re-saving it
    /// reproduces the image byte for byte.
    #[test]
    fn save_open_answers_identically(seed in 0u64..500) {
        let s = generate_synthetic(&small_config(seed));
        let engine = SearchEngine::new(s.db, s.er_schema, s.mapping)
            .unwrap()
            .with_aliases(s.aliases);
        let path = snap_path("fresh", seed);
        engine.save(&path).unwrap();
        let opened = SearchEngine::open(&path).unwrap();

        prop_assert_eq!(opened.generation(), engine.generation());
        assert_same_answers(&opened, &engine, "fresh save/open")?;

        // The on-disk form is canonical: saving the opened engine
        // writes the same bytes.
        let first = std::fs::read(&path).unwrap();
        opened.save(&path).unwrap();
        let second = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(first, second, "re-saved image diverged");
    }

    /// Save/open in the middle of a mutation history: the opened engine
    /// still answers like the original.
    #[test]
    fn save_open_after_mutations_answers_identically(seed in 0u64..500) {
        let s = generate_synthetic(&small_config(seed));
        let mut engine = SearchEngine::new(s.db, s.er_schema, s.mapping)
            .unwrap()
            .with_aliases(s.aliases);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed_beef);
        let mut mutator = Mutator::new(engine.db());
        for _ in 0..3 {
            for _ in 0..4 {
                mutator.random_op(&mut engine, &mut rng);
            }
            let _ = engine.apply().unwrap();
        }
        let path = snap_path("mutated", seed);
        engine.save(&path).unwrap();
        let opened = SearchEngine::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(opened.generation(), engine.generation());
        assert_same_answers(&opened, &engine, "post-mutation save/open")?;
    }

    /// Mutation after open: fuzzed batches applied to a reopened engine
    /// keep it equivalent to a from-scratch rebuild over the mutated
    /// database — including across a full compaction.
    #[test]
    fn mutation_after_open_equals_rebuild(seed in 0u64..500) {
        let s = generate_synthetic(&small_config(seed));
        let engine = SearchEngine::new(s.db, s.er_schema, s.mapping)
            .unwrap()
            .with_aliases(s.aliases);
        let path = snap_path("mutafter", seed);
        engine.save(&path).unwrap();
        let mut opened = SearchEngine::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let mut rng = StdRng::seed_from_u64(seed ^ 0x0be4_ed00);
        let mut mutator = Mutator::new(opened.db());
        for batch in 0..3 {
            let mut changed = false;
            for _ in 0..4 {
                changed |= mutator.random_op(&mut opened, &mut rng);
            }
            if changed {
                let _ = opened.apply().unwrap();
            }
            assert_same_answers(&opened, &rebuild(&opened), &format!("post-open batch {batch}"))?;
        }
        // A full slot compaction on the opened engine (renumbers every
        // id) must preserve rebuild equivalence too.
        let _ = opened.compact().unwrap();
        assert_same_answers(&opened, &rebuild(&opened), "post-open compact")?;
        // And the compacted, reopened engine still saves and reopens.
        let path = snap_path("mutafter2", seed);
        opened.save(&path).unwrap();
        let again = SearchEngine::open(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_same_answers(&again, &opened, "second save/open")?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any truncation of a valid image is rejected with a typed error —
    /// no panic, no partial engine.
    #[test]
    fn truncated_images_are_rejected(cut in 0usize..10_000) {
        let bytes = company_image();
        let cut = cut % bytes.len();
        let path = snap_path("trunc", cut as u64);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let result = SearchEngine::open(&path);
        std::fs::remove_file(&path).unwrap();
        prop_assert!(
            matches!(result, Err(CoreError::Snapshot(_))),
            "truncation at {} was not rejected with CoreError::Snapshot",
            cut
        );
    }

    /// Any single corrupted byte is rejected with a typed error (the
    /// checksum authenticates everything after the magic/version prefix;
    /// magic and version corruption have their own variants).
    #[test]
    fn corrupted_images_are_rejected(pos in 0usize..10_000, flip in 1u8..=255) {
        let mut bytes = company_image();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let path = snap_path("flip", (pos as u64) << 8 | flip as u64);
        std::fs::write(&path, &bytes).unwrap();
        let result = SearchEngine::open(&path);
        std::fs::remove_file(&path).unwrap();
        prop_assert!(
            matches!(result, Err(CoreError::Snapshot(_))),
            "corrupting byte {} was not rejected with CoreError::Snapshot",
            pos
        );
    }
}

/// One canonical image of the paper's company database, built once.
fn company_image() -> Vec<u8> {
    use std::sync::OnceLock;
    static IMAGE: OnceLock<Vec<u8>> = OnceLock::new();
    IMAGE
        .get_or_init(|| {
            let c = cla_datagen::company();
            let engine = SearchEngine::new(c.db, c.er_schema, c.mapping)
                .unwrap()
                .with_aliases(c.aliases);
            let path = snap_path("canonical", 0);
            engine.save(&path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            bytes
        })
        .clone()
}

/// An unsupported future format version is refused with the dedicated
/// variant (the versioning-policy contract: readers never guess).
#[test]
fn future_format_version_is_refused() {
    let future = cla_storage::FORMAT_VERSION + 1;
    let mut bytes = company_image();
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    let path = snap_path("version", 0);
    std::fs::write(&path, &bytes).unwrap();
    let result = SearchEngine::open(&path);
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        result,
        Err(CoreError::Snapshot(StorageError::UnsupportedVersion { found, .. })) if found == future
    ));
}
