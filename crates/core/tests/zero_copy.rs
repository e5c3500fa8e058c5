//! Property suite for the zero-copy open path: an engine opened from a
//! snapshot image answers **byte-identically** to the engine that saved
//! it — before the first mutation (while the term and alias arenas and
//! the relational rows still serve from borrowed image views, and the
//! tuple→node index built at open serves lookups) and after it (once
//! the first write promotes the lazy structures to owned) — across all
//! three algorithms and several datasets. The suite also pins the
//! promotion points themselves via the introspection accessors, and
//! that arbitrary truncation of an image is rejected with a typed
//! error, never a panic.

use cla_core::{Algorithm, CoreError, SearchEngine, SearchOptions};
use cla_datagen::{company, generate_synthetic, SyntheticConfig};
use cla_relational::Value;
use std::path::PathBuf;

fn temp_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("cla_zero_copy_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}_{}.snap", std::process::id()))
}

fn synthetic_shape(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        departments: 6,
        employees_per_department: 5,
        projects_per_department: 3,
        works_on_per_employee: 2,
        dependent_probability: 0.3,
        xml_selectivity: 0.2,
        smith_selectivity: 0.15,
        alice_selectivity: 0.25,
        project_skew: 1.0,
        seed,
    }
}

/// Every answer-visible byte of a search, for every algorithm: the
/// paper-notation renderings, the natural-language explanations, and
/// the tree count (populated by ≥ 3-keyword BANKS searches).
fn fingerprint(engine: &SearchEngine, queries: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
        for query in queries {
            let opts = SearchOptions {
                algorithm,
                k: Some(10),
                max_rdb_length: 3,
                ..Default::default()
            };
            let r = engine.search(query, &opts).unwrap();
            out.push(format!(
                "{algorithm:?}/{query}: trees={} {:?}",
                r.trees.len(),
                r.connections
                    .iter()
                    .map(|c| (c.rendering.as_str(), c.explanation.as_str()))
                    .collect::<Vec<_>>()
            ));
        }
    }
    out
}

/// Stage one employee insert under a fresh primary key (both the
/// company and synthetic schemas share the 4-attribute EMPLOYEE shape).
fn stage_insert(engine: &mut SearchEngine, pk: &str) {
    let db = engine.db();
    let emp = db.catalog().relation_id("EMPLOYEE").unwrap();
    let dept = db.catalog().relation_id("DEPARTMENT").unwrap();
    let d = db.all_tuple_ids().find(|t| t.relation == dept).unwrap();
    let d_pk = db.tuple(d).unwrap().values()[0].clone();
    let values: Vec<Value> = vec![pk.into(), "Smith".into(), "Zara".into(), d_pk];
    engine.insert(emp, values).unwrap();
}

/// The core property, per dataset: save → open serves image-backed,
/// answers identically; the first mutation promotes every lazy
/// structure; answers still identical afterwards.
fn check_roundtrip(name: &str, mut oracle: SearchEngine, queries: &[&str]) {
    let path = temp_file(name);
    oracle.save(&path).unwrap();
    let mut opened = SearchEngine::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // Generation 0 serves straight out of the image buffer: no owned
    // database, borrowed term/alias arenas.
    assert!(!opened.db_materialized(), "open must not materialize the database");
    assert!(opened.index().base_is_image_backed(), "term arena must stay borrowed");
    assert!(opened.snapshot().aliases_image_backed(), "alias table must stay borrowed");

    assert_eq!(
        fingerprint(&oracle, queries),
        fingerprint(&opened, queries),
        "{name}: opened engine diverged from the engine that saved it"
    );
    // Searching is a pure read: the lazy structures must survive it.
    assert!(!opened.db_materialized(), "searches must not materialize the database");
    assert!(opened.index().base_is_image_backed(), "searches must not promote");

    // The first mutation promotes: the database (with its PK and
    // reverse-FK hash indexes) materializes from the validated bytes.
    stage_insert(&mut oracle, "e_zz1");
    stage_insert(&mut opened, "e_zz1");
    let _ = oracle.apply().unwrap();
    let _ = opened.apply().unwrap();
    assert!(opened.db_materialized(), "a staged insert materializes the database");

    assert_eq!(
        fingerprint(&oracle, queries),
        fingerprint(&opened, queries),
        "{name}: post-promotion answers diverged"
    );
}

#[test]
fn opened_engine_answers_identically_before_and_after_promotion() {
    let c = company();
    let oracle =
        SearchEngine::new(c.db, c.er_schema, c.mapping).unwrap().with_aliases(c.aliases);
    check_roundtrip("company", oracle, &["Smith XML", "Zara research", "teaching"]);

    for seed in [7, 11] {
        let s = generate_synthetic(&synthetic_shape(seed));
        let oracle =
            SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases);
        check_roundtrip(&format!("synthetic_{seed}"), oracle, &["xml smith", "alice"]);
    }
}

/// A compaction on an opened engine exercises the remaining promotion
/// path (the alias remap goes through `Aliases::into_owned`) and must
/// preserve answers against the compacted oracle.
#[test]
fn opened_engine_compacts_identically() {
    let c = company();
    let mut oracle =
        SearchEngine::new(c.db, c.er_schema, c.mapping).unwrap().with_aliases(c.aliases);
    let path = temp_file("compact");
    oracle.save(&path).unwrap();
    let mut opened = SearchEngine::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    // Delete a leaf tuple on both, then reclaim the slots.
    for engine in [&mut oracle, &mut opened] {
        let db = engine.db();
        let dep = db.catalog().relation_id("DEPENDENT").unwrap();
        let t = db.all_tuple_ids().find(|t| t.relation == dep).unwrap();
        engine.delete(t).unwrap();
        let _ = engine.apply().unwrap();
        let remap = engine.compact().unwrap();
        assert_eq!(remap.reclaimed(), 1);
    }
    assert!(!opened.snapshot().aliases_image_backed(), "compaction promotes aliases");
    let queries = ["Smith XML", "Zara research"];
    assert_eq!(
        fingerprint(&oracle, &queries),
        fingerprint(&opened, &queries),
        "compacted opened engine diverged"
    );
}

/// Arbitrary truncation of a saved image must yield a typed error —
/// never a panic, never an engine trusting partial bytes.
#[test]
fn truncated_images_are_rejected_with_typed_errors() {
    let c = company();
    let oracle =
        SearchEngine::new(c.db, c.er_schema, c.mapping).unwrap().with_aliases(c.aliases);
    let path = temp_file("truncate");
    oracle.save(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    for cut in (0..good.len()).step_by(41) {
        std::fs::write(&path, &good[..cut]).unwrap();
        match SearchEngine::open(&path) {
            Err(CoreError::Snapshot(_)) => {}
            other => panic!("truncation at {cut} must be a typed error, got {other:?}"),
        }
    }
    std::fs::remove_file(&path).unwrap();
}
