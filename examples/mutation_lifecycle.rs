//! The live-engine mutation lifecycle on the paper's Figure 2 database:
//! in-place update, atomic apply (a failed batch rolls back and the
//! engine keeps serving), and end-to-end slot compaction.
//!
//! ```text
//! cargo run --example mutation_lifecycle
//! ```

use close_loose_ks::core::{SearchEngine, SearchOptions};
use close_loose_ks::datagen::company;

fn renderings(engine: &SearchEngine) -> Vec<String> {
    engine
        .search("Smith XML", &SearchOptions::default())
        .expect("query is well-formed")
        .connections
        .into_iter()
        .map(|r| r.rendering)
        .collect()
}

fn main() {
    let c = company();
    let mut engine = SearchEngine::new(c.db, c.er_schema, c.mapping)
        .expect("the company database is valid")
        .with_aliases(c.aliases);
    let emp = engine.db().catalog().relation_id("EMPLOYEE").unwrap();

    println!("initial: {} connections for `Smith XML`", renderings(&engine).len());

    // --- In-place update: move e2 (a Smith) from d2 to d1, same id. ---
    let e2 = engine.db().lookup_pk(emp, &["e2".into()]).unwrap();
    engine
        .update(e2, vec!["e2".into(), "Smith".into(), "Barbara".into(), "d1".into()])
        .unwrap();
    let _ = engine.apply().unwrap();
    assert_eq!(engine.db().lookup_pk(emp, &["e2".into()]), Some(e2), "TupleId preserved");
    println!("after update (e2 → d1): {} connections", renderings(&engine).len());

    // --- Atomic apply: a batch with a dangling reference is rejected
    // wholesale; the engine stays fresh and serves unchanged answers. ---
    let before = renderings(&engine);
    let dep = engine.db().catalog().relation_id("DEPENDENT").unwrap();
    engine.insert(emp, vec!["e9".into(), "Smith".into(), "Zoe".into(), "d1".into()]).unwrap();
    engine.insert(dep, vec!["t9".into(), "e-missing".into(), "X".into()]).unwrap();
    let err = engine.apply().unwrap_err();
    assert!(engine.is_fresh());
    assert_eq!(renderings(&engine), before, "post-failure answers ≡ pre-mutation");
    println!("failed apply rolled back ({err}); engine still serving");

    // --- Churn, then compact: delete + re-insert leaves tombstoned
    // slots; compact reclaims them all behind a remap table. ---
    let e1 = engine.db().lookup_pk(emp, &["e1".into()]).unwrap();
    for d in engine.db().references_to(e1) {
        engine.delete(d.0).unwrap(); // w_f1, t1 reference e1
    }
    engine.delete(e1).unwrap();
    let _ = engine.apply().unwrap();
    let slots_before = engine.db().total_row_slots();
    let remap = engine.compact().unwrap();
    assert_eq!(engine.db().total_row_slots(), engine.db().total_tuples());
    println!(
        "compact reclaimed {} of {} row slots; e2 renumbered to {:?}",
        remap.reclaimed(),
        slots_before,
        remap.map(e2).unwrap()
    );
    println!("after delete wave + compact: {} connections", renderings(&engine).len());
}
