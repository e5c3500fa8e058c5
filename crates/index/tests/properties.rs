//! Property-based tests for the text substrate.

use cla_index::{idf, tf, InvertedIndex, KeywordQuery, Tokenizer};
use cla_relational::{DataType, Database, SchemaBuilder, TupleId, Value};
use proptest::prelude::*;

fn text_db(rows: &[String]) -> Database {
    let catalog = SchemaBuilder::new()
        .relation("R", |r| {
            r.attr("ID", DataType::Int).attr("T", DataType::Text).primary_key(&["ID"])
        })
        .build()
        .unwrap();
    let mut db = Database::new(catalog).unwrap();
    let r = db.catalog().relation_id("R").unwrap();
    for (i, t) in rows.iter().enumerate() {
        db.insert(r, vec![(i as i64).into(), t.as_str().into()]).unwrap();
    }
    db
}

/// A relation with two text attributes, so one tuple can hold a term
/// in several postings.
fn two_text_db(rows: &[(String, String)]) -> Database {
    let catalog = SchemaBuilder::new()
        .relation("R", |r| {
            r.attr("ID", DataType::Int)
                .attr("T", DataType::Text)
                .attr("U", DataType::Text)
                .primary_key(&["ID"])
        })
        .build()
        .unwrap();
    let mut db = Database::new(catalog).unwrap();
    let r = db.catalog().relation_id("R").unwrap();
    for (i, (t, u)) in rows.iter().enumerate() {
        db.insert(r, vec![(i as i64).into(), t.as_str().into(), u.as_str().into()]).unwrap();
    }
    db
}

/// Values of up to eight words from a four-word vocabulary.
fn words() -> impl Strategy<Value = String> {
    const VOCABULARY: [&str; 4] = ["xml", "data", "smith", "alice"];
    proptest::collection::vec(0usize..4, 0..8)
        .prop_map(|ws| ws.iter().map(|&w| VOCABULARY[w]).collect::<Vec<_>>().join(" "))
}

proptest! {
    /// `frequency_in` (a binary search for the tuple's run) and
    /// `document_frequency` (a count of runs) equal a scan of the whole
    /// posting list, for every indexed term against every tuple, matched
    /// or not. Two text attributes over a four-word vocabulary give
    /// posting lists with several postings per tuple.
    #[test]
    fn frequency_and_df_equal_a_posting_scan(
        rows in proptest::collection::vec((words(), words()), 1..12)
    ) {
        let db = two_text_db(&rows);
        let index = InvertedIndex::build(&db);
        let r = db.catalog().relation_id("R").unwrap();
        let tuples: Vec<TupleId> = db.tuples(r).map(|(id, _)| id).collect();
        let terms: Vec<String> = index.terms().map(|(t, _)| t.to_owned()).collect();
        for term in terms.iter().map(String::as_str).chain(["zz"]) {
            let postings = index.lookup(term);
            let distinct: std::collections::HashSet<TupleId> =
                postings.iter().map(|p| p.tuple).collect();
            prop_assert_eq!(index.document_frequency(term), distinct.len(), "term {}", term);
            for &t in &tuples {
                let scan: u32 =
                    postings.iter().filter(|p| p.tuple == t).map(|p| p.frequency).sum();
                prop_assert_eq!(index.frequency_in(term, t), scan, "term {} tuple {}", term, t);
            }
        }
    }

    /// Every token produced by the tokenizer is findable through the
    /// index, and lookups are case-insensitive.
    #[test]
    fn all_tokens_are_indexed(rows in proptest::collection::vec("[a-zA-Z ]{0,30}", 1..10)) {
        let db = text_db(&rows);
        let index = InvertedIndex::build(&db);
        let tok = Tokenizer::new();
        for (i, row) in rows.iter().enumerate() {
            for t in tok.tokenize(row) {
                let hits = index.matching_tuples(&t);
                prop_assert!(!hits.is_empty(), "token {t} of row {i} not indexed");
                let upper = t.to_uppercase();
                prop_assert_eq!(index.matching_tuples(&upper), hits);
            }
        }
    }

    /// Document frequency never exceeds the number of tuples, and
    /// frequency_in sums are consistent with posting frequencies.
    #[test]
    fn df_and_frequencies_are_bounded(rows in proptest::collection::vec("[a-z ]{0,20}", 1..8)) {
        let db = text_db(&rows);
        let index = InvertedIndex::build(&db);
        let tok = Tokenizer::new();
        for row in &rows {
            for t in tok.tokenize(row) {
                prop_assert!(index.document_frequency(&t) <= rows.len());
                let total: u32 = index.lookup(&t).iter().map(|p| p.frequency).sum();
                prop_assert!(total >= 1);
            }
        }
    }

    /// Queries normalize idempotently and deduplicate.
    #[test]
    fn query_parse_is_idempotent(raw in "[a-zA-Z ]{0,40}") {
        let q1 = KeywordQuery::parse(&raw);
        let q2 = KeywordQuery::parse(&q1.to_string());
        prop_assert_eq!(q1.keywords(), q2.keywords());
        let mut sorted = q1.keywords().to_vec();
        sorted.sort();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), q1.len());
    }

    /// tf and idf are monotone in the expected directions.
    #[test]
    fn tf_idf_monotonicity(f in 1u32..1000, df in 1usize..100, n in 100usize..1000) {
        prop_assert!(tf(f + 1) > tf(f));
        if df < n {
            prop_assert!(idf(df, n) > idf(df + 1, n));
        }
        prop_assert!(idf(df, n) > 0.0);
        prop_assert!(tf(f) >= 1.0);
    }

    /// Applying random batches of inserts, text updates and deletes
    /// leaves the index byte-identical to a fresh build over the same
    /// database, batch after batch. Two text attributes over a
    /// four-letter alphabet make terms collide, drain and reappear, and
    /// a batch may update or delete a tuple it inserted itself.
    #[test]
    fn apply_encodes_like_a_fresh_build(
        rows in proptest::collection::vec(("[a-d ]{0,12}", "[a-d ]{0,6}"), 0..6),
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..3, any::<u16>(), "[a-d ]{0,12}", "[a-d ]{0,6}"), 1..6),
            1..6,
        ),
        min_len in 1usize..3,
    ) {
        let catalog = SchemaBuilder::new()
            .relation("R", |r| {
                r.attr("ID", DataType::Int)
                    .attr("A", DataType::Text)
                    .attr("B", DataType::Text)
                    .primary_key(&["ID"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let r = db.catalog().relation_id("R").unwrap();
        let mut next_key = 0i64;
        let row = |key: &mut i64, a: &str, b: &str| -> Vec<Value> {
            *key += 1;
            vec![Value::from(*key), a.into(), b.into()]
        };
        for (a, b) in &rows {
            db.insert(r, row(&mut next_key, a, b)).unwrap();
        }
        let tokenizer = Tokenizer::new().with_min_len(min_len).with_stopwords(["ab"]);
        let mut index = InvertedIndex::build_with(&db, tokenizer.clone());
        db.take_changes();
        for (round, batch) in batches.iter().enumerate() {
            for (kind, pick, a, b) in batch {
                let live: Vec<TupleId> = db.tuples(r).map(|(id, _)| id).collect();
                let target = (!live.is_empty()).then(|| live[*pick as usize % live.len()]);
                match (kind, target) {
                    (1, Some(id)) => {
                        let key = db.tuple(id).unwrap().values()[0].clone();
                        db.update(id, vec![key, a.as_str().into(), b.as_str().into()]).unwrap();
                    }
                    (2, Some(id)) => db.delete(id).unwrap(),
                    _ => {
                        db.insert(r, row(&mut next_key, a, b)).unwrap();
                    }
                }
            }
            let changes = db.take_changes();
            index = index.apply(&db, &changes);
            let fresh = InvertedIndex::build_with(&db, tokenizer.clone());
            prop_assert!(index.posting_order_ok(), "round {}: posting order", round);
            prop_assert_eq!(index.encode(), fresh.encode(), "round {}: encodings differ", round);
        }
    }
}
