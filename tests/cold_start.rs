//! Cold-start acceptance: open a snapshot image written by *another
//! process* and replay the paper-reproduction suite over the opened
//! engine — every figure/table/§3 check, the verbatim Table 2 and
//! Table 3 rows, and a continued mutation after open.
//!
//! Ignored by default because it needs a snapshot file on disk; the CI
//! cold-start leg produces one first and points `CLA_SNAPSHOT` at it:
//!
//! ```text
//! cargo run -p cla-bench --bin snapshot -- /tmp/company.snap
//! CLA_SNAPSHOT=/tmp/company.snap cargo test --test cold_start -- --ignored
//! ```
//!
//! The in-process save → open round trip (same address space) is
//! property-tested in `crates/core/tests/roundtrip.rs`; this test is
//! the cross-process leg, where nothing survives but the bytes.

use cla_bench::paper;
use cla_core::SearchEngine;

fn opened_harness() -> paper::Harness {
    let path = std::env::var("CLA_SNAPSHOT")
        .expect("CLA_SNAPSHOT must point at a snapshot image (see module docs)");
    let engine = SearchEngine::open(&path)
        .unwrap_or_else(|e| panic!("snapshot image {path} failed to open: {e}"));
    paper::harness_from(engine)
}

#[test]
#[ignore = "needs CLA_SNAPSHOT pointing at an image written by the snapshot bin"]
fn opened_snapshot_passes_every_paper_check() {
    let h = opened_harness();
    let checks = paper::all_checks(&h);
    assert!(checks.len() >= 70, "expected a comprehensive check set, got {}", checks.len());
    for check in checks {
        assert!(
            check.passed(),
            "{}: paper says `{}` but cold-started engine measured `{}`",
            check.name,
            check.expected,
            check.actual
        );
    }
}

#[test]
#[ignore = "needs CLA_SNAPSHOT pointing at an image written by the snapshot bin"]
fn opened_snapshot_table_rows_are_verbatim() {
    let h = opened_harness();
    let table2 = [
        (1, "d1(XML) – e1(Smith)"),
        (2, "p1(XML) – w_f1 – e1(Smith)"),
        (3, "p1(XML) – d1(XML) – e1(Smith)"),
        (4, "d1(XML) – p1(XML) – w_f1 – e1(Smith)"),
        (5, "d2(XML) – e2(Smith)"),
        (6, "p2(XML) – d2(XML) – e2(Smith)"),
        (7, "d2(XML) – p3 – w_f2 – e2(Smith)"),
        (8, "d1 – e3 – t1(Alice)"),
        (9, "d2 – p2 – w_f3 – e3 – t1(Alice)"),
    ];
    let rows = paper::table2(&h);
    assert_eq!(rows.len(), table2.len());
    for (row, (id, rendering)) in rows.iter().zip(table2) {
        assert_eq!(row.id, id);
        assert_eq!(row.rendering, rendering, "connection {id}");
    }
    let table3 = [
        "d1(XML) 1:N e1(Smith)",
        "p1(XML) 1:N w_f1 N:1 e1(Smith)",
        "p1(XML) N:1 d1(XML) 1:N e1(Smith)",
        "d1(XML) 1:N p1(XML) 1:N w_f1 N:1 e1(Smith)",
        "d2(XML) 1:N e2(Smith)",
        "p2(XML) N:1 d2(XML) 1:N e2(Smith)",
        "d2(XML) 1:N p3 1:N w_f2 N:1 e2(Smith)",
        "d1 1:N e3 1:N t1(Alice)",
        "d2 1:N p2 1:N w_f3 N:1 e3 1:N t1(Alice)",
    ];
    for ((id, s), exp) in paper::table3(&h).iter().zip(table3) {
        assert_eq!(s, exp, "connection {id}");
    }
}

#[test]
#[ignore = "needs CLA_SNAPSHOT pointing at an image written by the snapshot bin"]
fn opened_snapshot_stays_mutable() {
    // The opened engine is a full writer, not a read-only view: insert a
    // dependent, apply, and the new tuple is immediately searchable.
    let h = opened_harness();
    let mut engine = h.engine;
    let before = engine.generation();
    let dep = engine.db().catalog().relation_id("DEPENDENT").unwrap();
    let essn = {
        let emp = engine.db().catalog().relation_id("EMPLOYEE").unwrap();
        engine
            .db()
            .tuples(emp)
            .next()
            .and_then(|(_, t)| {
                t.get(0).and_then(cla_relational::Value::as_text).map(str::to_owned)
            })
            .expect("employees exist")
    };
    engine
        .insert(dep, vec!["cold1".into(), essn.as_str().into(), "Quartzine".into()])
        .unwrap();
    let _ = engine.apply().unwrap();
    assert_eq!(engine.generation(), before + 1, "generation continues across open");
    let results = engine.search("Quartzine", &cla_core::SearchOptions::default()).unwrap();
    assert!(!results.connections.is_empty(), "inserted tuple must be searchable");
}
