//! Answer digests: one line per search of a seeded query mix, so that a
//! `diff` of two commits' outputs names the first search whose answer
//! changed.
//!
//! ```text
//! cargo run --release --example answer_digest > digests.txt
//! ```
//!
//! Two seeded synthetic databases (16 departments at seed 7, 64 at seed
//! 11) are each built into an engine, saved to an image in the system's
//! temporary directory, and reopened from it. A second engine over the
//! same database applies a fixed, seeded stream of write batches into
//! EMPLOYEE (inserts, deletes, and updates that re-point an employee's
//! department), so that its node ids no longer follow tuple order, and
//! is saved and reopened too. The same query mix then runs on the
//! built, opened, applied and reopened engines; an opened engine must
//! answer as the built one does, and a reopened one as the applied one
//! does. The mix is drawn, with a
//! fixed seed, from each database's single-token index terms ranked by
//! document frequency: pairs of head terms, pairs of mid-frequency
//! terms, and three-keyword queries. Each query runs under every
//! algorithm that takes it, all five rankers, k ∈ {None, 1, 10}, and
//! with and without a 2,000-expansion cap.
//!
//! Each line holds the search's parameters, the number of connections
//! and trees, and a 64-bit FNV-1a digest of the whole answer's `Debug`
//! form: every connection with its info, rendering, explanation and
//! nodes, every tree, and the search stats (an error is digested the
//! same way). The last line digests every line before it. Whole dumps
//! of such a mix run to gigabytes, which is why only digests are
//! printed.

use close_loose_ks::core::{
    Algorithm, RankStrategy, SearchBudget, SearchEngine, SearchOptions,
};
use close_loose_ks::datagen::{generate_synthetic, SyntheticConfig};
use close_loose_ks::index::InvertedIndex;
use close_loose_ks::relational::{RelationId, TupleId, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write as _;

/// The databases: departments and data seed.
const DATABASES: [(usize, u64); 2] = [(16, 7), (64, 11)];

/// Seed of the query mix.
const MIX_SEED: u64 = 29;

/// Head terms: the most frequent single-token terms.
const HEAD_TERMS: usize = 8;

/// Queries per class: head pairs, mid-frequency pairs, three keywords.
const HEAD_PAIRS: usize = 12;
const MID_PAIRS: usize = 24;
const TRIPLES: usize = 12;

/// The expansion cap of the capped runs.
const CAP: u64 = 2_000;

/// Write batches applied to the second engine, and the seed of their
/// stream.
const WRITE_BATCHES: usize = 60;
const WRITE_SEED: u64 = 31;

const RANKERS: [RankStrategy; 5] = [
    RankStrategy::RdbLength,
    RankStrategy::ErLength,
    RankStrategy::CloseFirst,
    RankStrategy::InstanceCloseFirst,
    RankStrategy::Combined { structure_weight: 1.0 },
];

/// A 64-bit FNV-1a hash fed through `fmt::Write`, so that a `Debug`
/// form is digested without being built as a string.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

fn build_engine(departments: usize, seed: u64) -> SearchEngine {
    let config = SyntheticConfig {
        departments,
        employees_per_department: 8,
        projects_per_department: 3,
        works_on_per_employee: 2,
        dependent_probability: 0.3,
        xml_selectivity: 0.15,
        smith_selectivity: 0.1,
        alice_selectivity: 0.25,
        project_skew: 1.0,
        seed,
    };
    let data = generate_synthetic(&config);
    SearchEngine::new(data.db, data.er_schema, data.mapping)
        .expect("synthetic databases are valid")
        .with_aliases(data.aliases)
}

/// A random live tuple of `relation` with its key (column 0).
fn pick(engine: &SearchEngine, relation: RelationId, rng: &mut StdRng) -> (TupleId, String) {
    let rows: Vec<_> = engine.db().tuples(relation).collect();
    let (id, tuple) = rows[rng.random_range(0..rows.len())];
    let key = tuple.get(0).and_then(Value::as_text).expect("text keys").to_owned();
    (id, key)
}

/// Apply `WRITE_BATCHES` seeded batches of one to four EMPLOYEE writes:
/// inserts (a random employee's names, a random department), deletes
/// (skipped while the employee is referenced) and updates that
/// re-point an employee to a random department. EMPLOYEE is not the
/// last relation, so each inserted employee's node id sorts after
/// tuples that follow it in tuple order.
fn apply_writes(engine: &mut SearchEngine, seed: u64) {
    let mut rng = StdRng::seed_from_u64(WRITE_SEED ^ seed);
    let relation = |name: &str| engine.db().catalog().relation_id(name).expect("company");
    let (employee, department) = (relation("EMPLOYEE"), relation("DEPARTMENT"));
    let mut fresh = 0;
    for _ in 0..WRITE_BATCHES {
        for _ in 0..rng.random_range(1..5usize) {
            let (id, _) = pick(engine, employee, &mut rng);
            let (_, dept) = pick(engine, department, &mut rng);
            let mut values = engine.db().tuple(id).expect("live").values().to_vec();
            values[3] = dept.into();
            match rng.random_range(0..3usize) {
                0 => {
                    fresh += 1;
                    values[0] = format!("ew{fresh}").into();
                    engine.insert(employee, values).expect("a new employee");
                }
                1 => {
                    // A restricted delete stages nothing.
                    let _ = engine.delete(id);
                }
                _ => engine.update(id, values).expect("a re-pointed employee"),
            }
        }
        let _ = engine.apply().expect("the batch applies");
    }
}

/// The index's single-token terms, most frequent first (ties by term).
fn ranked_terms(index: &InvertedIndex) -> Vec<String> {
    let tokenizer = index.tokenizer();
    let mut ranked: Vec<(usize, &str)> = index
        .terms()
        .filter(|(term, _)| tokenizer.tokenize(term) == [*term])
        .map(|(term, _)| (index.document_frequency(term), term))
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(b.1)));
    ranked.into_iter().map(|(_, term)| term.to_owned()).collect()
}

/// The query mix over `terms`: distinct head pairs, mid-frequency pairs
/// and three-keyword queries, each of distinct terms. Mid-frequency
/// terms are those ranked below the head, down to the middle rank.
fn query_mix(terms: &[String], rng: &mut StdRng) -> Vec<String> {
    let head = 0..HEAD_TERMS;
    let mid = HEAD_TERMS..terms.len() / 2;
    assert!(mid.len() > HEAD_TERMS, "{} terms are too few for the mix", terms.len());
    let classes =
        [(head, 2, HEAD_PAIRS), (mid.clone(), 2, MID_PAIRS), (0..mid.end, 3, TRIPLES)];
    let mut mix: Vec<String> = Vec::new();
    for (ranks, keywords, count) in classes {
        let first = mix.len();
        while mix.len() < first + count {
            let mut picked: Vec<usize> = Vec::with_capacity(keywords);
            while picked.len() < keywords {
                let rank = rng.random_range(ranks.clone());
                if !picked.contains(&rank) {
                    picked.push(rank);
                }
            }
            let query =
                picked.iter().map(|&r| terms[r].as_str()).collect::<Vec<_>>().join(" ");
            if !mix.contains(&query) {
                mix.push(query);
            }
        }
    }
    mix
}

/// Every option set a query of `keywords` keywords runs under.
fn option_sets(keywords: usize) -> Vec<SearchOptions> {
    let mut sets = Vec::new();
    for algorithm in [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover] {
        if algorithm == Algorithm::Paths && keywords > 2 {
            continue; // Paths takes at most two keywords
        }
        for ranker in RANKERS {
            for k in [None, Some(1), Some(10)] {
                for max_expansions in [None, Some(CAP)] {
                    sets.push(SearchOptions {
                        algorithm,
                        ranker,
                        k,
                        budget: SearchBudget { deadline: None, max_expansions },
                        ..SearchOptions::default()
                    });
                }
            }
        }
    }
    sets
}

fn main() {
    let mut rng = StdRng::seed_from_u64(MIX_SEED);
    let mut all = Fnv1a::new();
    let mut searches = 0usize;
    for (departments, seed) in DATABASES {
        let reopen = |engine: &SearchEngine| {
            let image = std::env::temp_dir()
                .join(format!("answer_digest_{}_{departments}.snap", std::process::id()));
            engine.save(&image).expect("save the image");
            let opened = SearchEngine::open(&image).expect("open the image");
            std::fs::remove_file(&image).expect("remove the image");
            opened
        };
        let built = build_engine(departments, seed);
        let opened = reopen(&built);
        let mut applied = build_engine(departments, seed);
        apply_writes(&mut applied, seed);
        let reopened = reopen(&applied);
        let mix = query_mix(&ranked_terms(built.index()), &mut rng);
        let engines = [
            ("built", &built),
            ("opened", &opened),
            ("applied", &applied),
            ("reopened", &reopened),
        ];
        for (engine_name, engine) in engines {
            for query in &mix {
                for options in option_sets(query.split_whitespace().count()) {
                    let answer = engine.search(query, &options);
                    let mut digest = Fnv1a::new();
                    write!(digest, "{answer:?}").expect("hashing cannot fail");
                    let (connections, trees) = answer
                        .as_ref()
                        .map_or((0, 0), |r| (r.connections.len(), r.trees.len()));
                    let line = format!(
                        "dept{departments}/seed{seed} {engine_name} {:?} {} k={:?} cap={:?} \
                         {query:?} connections={connections} trees={trees} {:016x}",
                        options.algorithm,
                        options.ranker.name(),
                        options.k,
                        options.budget.max_expansions,
                        digest.0
                    );
                    writeln!(all, "{line}").expect("hashing cannot fail");
                    println!("{line}");
                    searches += 1;
                }
            }
        }
    }
    println!("{searches} searches, all lines {:016x}", all.0);
}
