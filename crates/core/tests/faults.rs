//! Fault-injection suite over the `cla_core::failpoints` registry.
//!
//! The contract under test: **the engine always stays serving and
//! pre-fault-consistent.** A panic while holding the scratch-pool lock
//! reaches the caller and poisons only the pool mutex, which the next
//! search recovers by rebuilding the pool, so it answers
//! byte-identically to an unfaulted engine; a forced mid-apply failure
//! rolls back atomically (the mutation suite covers that half); a
//! forced BANKS budget trip truncates to a certified ranked prefix.
//!
//! Every test holds [`failpoints::exclusive`] — the registry is
//! process-global and `cargo test` runs tests on parallel threads.

use cla_core::failpoints::{self, FailpointMode};
use cla_core::{
    Algorithm, Completeness, SearchEngine, SearchOptions, SearchResults, TruncationReason,
};
use cla_datagen::{generate_synthetic, SyntheticConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A database big enough that a whole BANKS answer has many connections
/// and every algorithm finds a non-trivial result set.
fn engine() -> SearchEngine {
    let s = generate_synthetic(&SyntheticConfig {
        departments: 4,
        employees_per_department: 8,
        projects_per_department: 3,
        works_on_per_employee: 2,
        dependent_probability: 0.4,
        xml_selectivity: 0.5,
        smith_selectivity: 0.5,
        alice_selectivity: 0.5,
        seed: 7,
        ..Default::default()
    });
    SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases)
}

fn renderings(r: &SearchResults) -> Vec<String> {
    r.connections.iter().map(|c| c.rendering.clone()).collect()
}

fn opts(algorithm: Algorithm) -> SearchOptions {
    SearchOptions { algorithm, max_rdb_length: 3, ..Default::default() }
}

/// `pool.return` panics *while holding the scratch-pool mutex* — the
/// worst place to die. The search call unwinds (callers see the panic),
/// the pool mutex is poisoned, and the next search must recover it:
/// clear the poison, drop the suspect pooled buffers, and answer
/// byte-identically to an unfaulted engine.
#[test]
fn poisoned_scratch_pool_is_rebuilt_on_the_next_search() {
    let _x = failpoints::exclusive();
    failpoints::disarm_all();
    let mut e = engine();
    e.enable_failpoints();
    let o = opts(Algorithm::Paths);

    let baseline = e.search("smith xml", &o).unwrap();

    failpoints::arm("pool.return", FailpointMode::Once);
    let unwound = catch_unwind(AssertUnwindSafe(|| e.search("smith xml", &o)));
    assert!(unwound.is_err(), "the failpoint must panic through search()");
    assert_eq!(failpoints::hits("pool.return"), 1);

    // Next search: poison recovery, then identical answers.
    let after = e.search("smith xml", &o).unwrap();
    assert_eq!(renderings(&after), renderings(&baseline));
    assert_eq!(after.stats, baseline.stats);
    // And the pool is healthy again — a further search still works.
    let again = e.search("alice xml", &o).unwrap();
    assert!(again.stats.completeness.is_complete());
    failpoints::disarm_all();
}

/// `banks.settle` forces a budget trip at a BANKS settle site: the
/// search truncates deterministically, labeled `ExpansionCap`, and the
/// returned connections are a ranked prefix of the unfaulted run's.
#[test]
fn banks_settle_failpoint_truncates_to_a_ranked_prefix() {
    let _x = failpoints::exclusive();
    failpoints::disarm_all();
    let mut e = engine();
    e.enable_failpoints();
    let o = opts(Algorithm::Banks);

    let baseline = e.search("smith xml", &o).unwrap();
    assert!(baseline.stats.completeness.is_complete());

    failpoints::arm("banks.settle", FailpointMode::Always);
    let cut = e.search("smith xml", &o).unwrap();
    assert!(failpoints::hits("banks.settle") >= 1);
    assert_eq!(
        cut.stats.completeness,
        Completeness::Truncated { reason: TruncationReason::ExpansionCap }
    );
    let base = renderings(&baseline);
    let got = renderings(&cut);
    assert!(got.len() <= base.len());
    assert_eq!(got.as_slice(), &base[..got.len()], "truncation must be a ranked prefix");
    failpoints::disarm("banks.settle");

    let after = e.search("smith xml", &o).unwrap();
    assert_eq!(renderings(&after), base);
    failpoints::disarm_all();
}

/// Engines that never opted in are immune: armed points must not fire
/// in an engine without `enable_failpoints()` (that isolation is what
/// keeps the rest of the test suite deterministic while a fault test
/// holds the registry).
#[test]
fn unenabled_engines_never_consume_armed_points() {
    let _x = failpoints::exclusive();
    failpoints::disarm_all();
    let e = engine(); // no enable_failpoints()
                      // A BANKS search settles nodes, so an enabled engine would reach
                      // the point here.
    let o = opts(Algorithm::Banks);
    failpoints::arm("banks.settle", FailpointMode::Once);
    let r = e.search("smith xml", &o).unwrap();
    assert!(r.stats.completeness.is_complete());
    assert_eq!(failpoints::hits("banks.settle"), 0, "the point must still be armed");
    failpoints::disarm_all();
}

/// CI smoke for the env-armed path (`CLA_FAILPOINTS=...`): whatever the
/// environment armed, the engine must stay serving — searches may
/// unwind or degrade while points fire, but once the registry drains
/// (or is disarmed) answers are byte-identical to an unfaulted engine.
/// Run explicitly by the fault-injection CI leg:
/// `CLA_FAILPOINTS=banks.settle=once cargo test --test faults -- --ignored`.
#[test]
#[ignore = "needs CLA_FAILPOINTS set; run by the CI fault-injection leg"]
fn env_armed_failpoints_never_wedge_the_engine() {
    let _x = failpoints::exclusive();
    assert!(
        std::env::var_os("CLA_FAILPOINTS").is_some(),
        "this smoke only makes sense with CLA_FAILPOINTS set"
    );
    // `SearchEngine::new` auto-enables failpoints (and arms the env
    // spec) when the variable is present. A whole BANKS answer reaches
    // `banks.settle`, and every search `pool.return`.
    let e = engine();
    let o = opts(Algorithm::Banks);
    // Let whatever is armed fire; panics are the contract for some
    // points, so absorb them.
    for _ in 0..4 {
        let _ = catch_unwind(AssertUnwindSafe(|| e.search("smith xml", &o)));
        let _ = catch_unwind(AssertUnwindSafe(|| e.search("alice xml", &o)));
    }
    // Quiesce and prove the engine still serves full, correct answers.
    failpoints::disarm_all();
    let after = e.search("smith xml", &o).unwrap();
    assert!(after.stats.completeness.is_complete());
    let pristine = engine().search("smith xml", &o).unwrap();
    assert_eq!(renderings(&after), renderings(&pristine));
}
