//! Budget property tests: a truncated search is a certified ranked
//! prefix of the unbudgeted run.
//!
//! The contract under test, for all three algorithms:
//!
//! * a search under any `max_expansions` cap returns `Ok`, and its
//!   ranked connections are a **prefix** of the unbudgeted run's (every
//!   length-monotone ranker — the certified-prefix guarantee);
//! * `Completeness::Complete` is reported iff nothing was cut: a
//!   `Complete` label always comes with output identical to the
//!   unbudgeted run, and a cap above the search's real expansion count
//!   never truncates;
//! * the cap binds: below the full run's expansions a search is
//!   `Truncated` within the cap, whole answers and top-k alike (every
//!   search enumerates on its calling thread through one probe);
//! * an already-expired deadline still returns `Ok`, labeled
//!   `Truncated { Deadline }`, with the same prefix guarantee;
//! * a budget composes with top-k: the truncated top-k output is a
//!   prefix of the unbudgeted top-k output;
//! * under `RankStrategy::Combined` (no monotone bound, so no certified
//!   prefix) the truncated output is still a labeled *subset* of the
//!   full run.

use cla_core::{
    Algorithm, RankStrategy, SearchBudget, SearchEngine, SearchOptions, SearchResults,
    TruncationReason,
};
use cla_datagen::{generate_synthetic, SyntheticConfig};
use proptest::prelude::*;
use std::time::Duration;

fn engine(seed: u64) -> SearchEngine {
    let s = generate_synthetic(&SyntheticConfig {
        departments: 3,
        employees_per_department: 4,
        projects_per_department: 2,
        works_on_per_employee: 2,
        dependent_probability: 0.4,
        xml_selectivity: 0.5,
        smith_selectivity: 0.4,
        alice_selectivity: 0.5,
        seed,
        ..Default::default()
    });
    SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases)
}

fn renderings(r: &SearchResults) -> Vec<String> {
    r.connections.iter().map(|c| c.rendering.clone()).collect()
}

fn opts(algorithm: Algorithm, budget: SearchBudget) -> SearchOptions {
    SearchOptions { algorithm, max_rdb_length: 3, budget, ..Default::default() }
}

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover];

/// The budget property's searches: every algorithm on a two-keyword
/// query, and BANKS and DISCOVER on a three-keyword one, whose cut
/// connections are trimmed to the floor their own enumeration reports.
const CASES: [(Algorithm, &str); 5] = [
    (Algorithm::Paths, "smith xml"),
    (Algorithm::Banks, "smith xml"),
    (Algorithm::Discover, "smith xml"),
    (Algorithm::Banks, "smith xml alice"),
    (Algorithm::Discover, "smith xml alice"),
];

#[track_caller]
fn assert_ranked_prefix(cut: &SearchResults, full: &[String], ctx: &str) {
    let got = renderings(cut);
    assert!(
        got.len() <= full.len(),
        "{ctx}: budgeted run returned more than the unbudgeted run"
    );
    assert_eq!(got.as_slice(), &full[..got.len()], "{ctx}: not a ranked prefix");
    if cut.stats.completeness.is_complete() {
        assert_eq!(got.len(), full.len(), "{ctx}: labeled Complete but output was cut");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The core property, over random databases: for every algorithm
    /// on two keywords, BANKS and DISCOVER on three, and both a whole
    /// and a top-k answer, every expansion cap yields a ranked prefix,
    /// and `Complete` is reported iff nothing was cut. The cap itself
    /// holds: under a cap below the full run's expansions a search
    /// stops `Truncated` having reported at most the cap.
    #[test]
    fn truncated_output_is_a_ranked_prefix_of_the_full_run(seed in 0u64..1_000) {
        let e = engine(seed);
        for (algorithm, query) in CASES {
            for k in [None, Some(1), Some(3)] {
                let ctx = format!("{algorithm:?}/{query:?}/k={k:?}/seed={seed}");
                let run = |budget| {
                    let o = SearchOptions { k, ..opts(algorithm, budget) };
                    e.search(query, &o).unwrap()
                };
                let full = run(SearchBudget::UNLIMITED);
                prop_assert!(
                    full.stats.completeness.is_complete(),
                    "{ctx}: unbudgeted run must be Complete"
                );
                let full_r = renderings(&full);
                let spent = full.stats.expansions;

                // A cap the search cannot reach never truncates — and
                // the output is bit-identical, budget probes and all.
                // (The cap counts raw settles for Banks, a coarser
                // figure than `stats.expansions`, so "unreachable"
                // means a huge constant rather than `spent + slack`.)
                let roomy = run(SearchBudget::with_max_expansions(u64::MAX / 2));
                prop_assert!(
                    roomy.stats.completeness.is_complete(),
                    "{ctx}: roomy cap truncated"
                );
                prop_assert_eq!(&renderings(&roomy), &full_r, "{}: roomy cap changed output", ctx);

                if spent == 0 {
                    continue; // nothing to cut on this fixture
                }
                for cap in [1, spent / 2, spent.saturating_sub(1).max(1)] {
                    let cut = run(SearchBudget::with_max_expansions(cap));
                    let ctx = format!("{ctx}/cap={cap}");
                    assert_ranked_prefix(&cut, &full_r, &ctx);
                    if !cut.stats.completeness.is_complete() {
                        prop_assert_eq!(
                            cut.stats.completeness,
                            cla_core::Completeness::Truncated {
                                reason: TruncationReason::ExpansionCap
                            },
                            "{}: wrong truncation reason", ctx
                        );
                    }
                    if cap >= spent {
                        continue;
                    }
                    // Banks's cap counts settles, at least one per
                    // candidate it reports, so a cap below the
                    // reported count binds there too.
                    prop_assert!(
                        !cut.stats.completeness.is_complete(),
                        "{}: a cap below the full run's {} expansions must truncate",
                        ctx,
                        spent
                    );
                    prop_assert!(
                        cut.stats.expansions <= cap,
                        "{}: the search ran {} expansions",
                        ctx,
                        cut.stats.expansions
                    );
                }
            }
        }
    }
}

/// An already-expired deadline must not error, hang, or return garbage:
/// it returns promptly with `Truncated { Deadline }` and a certified
/// prefix of the full run.
#[test]
fn expired_deadline_returns_a_labeled_prefix() {
    let e = engine(11);
    for algorithm in ALGORITHMS {
        let ctx = format!("{algorithm:?}");
        let full = e.search("smith xml", &opts(algorithm, SearchBudget::UNLIMITED)).unwrap();
        if full.stats.expansions == 0 {
            continue;
        }
        let cut = e
            .search(
                "smith xml",
                &opts(algorithm, SearchBudget::with_deadline(Duration::ZERO)),
            )
            .unwrap();
        assert_eq!(
            cut.stats.completeness,
            cla_core::Completeness::Truncated { reason: TruncationReason::Deadline },
            "{ctx}: expired deadline must label Deadline"
        );
        assert_ranked_prefix(&cut, &renderings(&full), &ctx);
    }
}

/// A budget spent before the first expansion — a cap of 0, an expired
/// deadline — runs none: every search reports 0 expansions, labeled
/// with the budget's reason, and still returns a ranked prefix.
#[test]
fn spent_budget_runs_no_expansion() {
    let e = engine(499);
    let spent = [
        (SearchBudget::with_max_expansions(0), TruncationReason::ExpansionCap),
        (SearchBudget::with_deadline(Duration::ZERO), TruncationReason::Deadline),
    ];
    for (algorithm, query) in CASES {
        for k in [None, Some(1), Some(3)] {
            let o = |budget| SearchOptions { k, ..opts(algorithm, budget) };
            let full = e.search(query, &o(SearchBudget::UNLIMITED)).unwrap();
            assert!(full.stats.expansions > 0, "{algorithm:?}/{query:?}: nothing to cut");
            for (budget, reason) in spent {
                let ctx = format!("{algorithm:?}/{query:?}/k={k:?}/{reason:?}");
                let cut = e.search(query, &o(budget)).unwrap();
                assert_eq!(cut.stats.expansions, 0, "{ctx}: ran an expansion");
                assert_eq!(
                    cut.stats.completeness,
                    cla_core::Completeness::Truncated { reason },
                    "{ctx}: wrong label"
                );
                assert_ranked_prefix(&cut, &renderings(&full), &ctx);
            }
        }
    }
}

/// Budgets compose with top-k: the budgeted top-k output is a prefix of
/// the unbudgeted top-k output (which is itself the head of the full
/// ranking), in both batch and streaming top-k modes.
#[test]
fn budget_composes_with_topk() {
    let e = engine(23);
    for algorithm in ALGORITHMS {
        let ctx = format!("{algorithm:?}/k=3");
        let mut o = opts(algorithm, SearchBudget::UNLIMITED);
        o.k = Some(3);
        let full = e.search("smith xml", &o).unwrap();
        if full.stats.expansions == 0 {
            continue;
        }
        let mut capped = o;
        capped.budget = SearchBudget::with_max_expansions(full.stats.expansions / 2);
        let cut = e.search("smith xml", &capped).unwrap();
        assert_ranked_prefix(&cut, &renderings(&full), &ctx);
    }
}

/// `RankStrategy::Combined` has no monotone length bound, so no prefix
/// can be certified — the engine returns best-effort found-so-far. The
/// output must still be labeled `Truncated` and be a subset of the
/// unbudgeted run's connections.
#[test]
fn combined_ranker_truncates_to_a_labeled_subset() {
    let e = engine(37);
    let mut o = opts(Algorithm::Paths, SearchBudget::UNLIMITED);
    o.ranker = RankStrategy::Combined { structure_weight: 1.0 };
    let full = e.search("smith xml", &o).unwrap();
    if full.stats.expansions == 0 {
        return;
    }
    let mut capped = o;
    capped.budget = SearchBudget::with_max_expansions(1);
    let cut = e.search("smith xml", &capped).unwrap();
    assert!(
        !cut.stats.completeness.is_complete(),
        "Combined: cap=1 must truncate this fixture"
    );
    let full_r = renderings(&full);
    for r in renderings(&cut) {
        assert!(full_r.contains(&r), "Combined: budgeted run invented a connection: {r}");
    }
}
