//! Property-based tests for the keyword-search core, driven by random
//! synthetic databases. The reference implementations the engine is
//! compared against live in `support/`.

mod support;

use cla_core::{
    banks_search, banks_search_budgeted, enumerate_mtjnts_budgeted, instance_closeness,
    instance_closeness_with_cache, is_joining, is_mtjnt, is_total, Algorithm, BanksOptions,
    BanksScratch, Completeness, Connection, ConnectionInfo, DataGraph, EdgeWeighting,
    InstanceCloseness, JoiningNetworkLevels, RankStrategy, RankedConnection, SearchBudget,
    SearchEngine, SearchOptions, SearchResults, SearchStats, SteinerTree, WitnessCache,
    WitnessStrategy,
};
use cla_datagen::{company, generate_synthetic, SyntheticConfig};
use cla_er::{map_to_relational, Cardinality, Closeness, ErSchemaBuilder};
use cla_graph::{enumerate_simple_paths_undirected, EdgeId, NodeId};
use cla_relational::{DataType, Database};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use support::banks::banks_naive;
use support::discover::{enumerate_joining_networks, joining_network_levels, ReferenceLevel};
use support::{instance_closeness_naive, pair_connections_naive};

/// Every ranker with a length bound, i.e. every ranker the streaming
/// top-k modes run under.
const STREAMING_RANKERS: [RankStrategy; 4] = [
    RankStrategy::RdbLength,
    RankStrategy::ErLength,
    RankStrategy::CloseFirst,
    RankStrategy::InstanceCloseFirst,
];

/// What a ranked answer shows for each connection: rendering,
/// explanation and ranking info, in order.
fn ranked_view(ranked: &[RankedConnection]) -> Vec<(&str, &str, &ConnectionInfo)> {
    ranked.iter().map(|r| (r.rendering.as_str(), r.explanation.as_str(), &r.info)).collect()
}

/// What an answer shows: each connection with its rendering,
/// explanation and info, then the trees and the stats.
#[allow(clippy::type_complexity)]
fn answer_view(
    r: &SearchResults,
) -> (Vec<(&Connection, &str, &str, &ConnectionInfo)>, &[SteinerTree], SearchStats) {
    let connections = r
        .connections
        .iter()
        .map(|c| (&c.connection, c.rendering.as_str(), c.explanation.as_str(), &c.info))
        .collect();
    (connections, &r.trees, r.stats)
}

/// Queries of the search-history property: one to three keywords of
/// the synthetic vocabulary, some differing only in display case.
const HISTORY_QUERIES: [&str; 9] = [
    "xml smith",
    "XML Smith",
    "smith alice",
    "Alice xml",
    "xml smith alice",
    "databases xml",
    "SMITH",
    "xml",
    "alice databases smith",
];

/// The data-graph nodes matching each keyword.
fn keyword_node_sets(
    index: &cla_index::InvertedIndex,
    dg: &DataGraph,
    keywords: &[&str],
) -> Vec<Vec<NodeId>> {
    keywords
        .iter()
        .map(|kw| {
            index.matching_tuples(kw).into_iter().filter_map(|t| dg.node_of(t)).collect()
        })
        .collect()
}

/// DISCOVER queries of 2 to 4 keywords. In the third, every department
/// and project description matches "main", so a description that holds
/// both "xml" and "databases" matches every keyword.
const DISCOVER_QUERIES: [&[&str]; 4] = [
    &["xml", "smith"],
    &["xml", "smith", "alice"],
    &["main", "xml", "databases"],
    &["xml", "smith", "alice", "databases"],
];

/// The data-graph nodes matching each keyword, as hash sets.
fn keyword_hash_sets(
    index: &cla_index::InvertedIndex,
    dg: &DataGraph,
    keywords: &[&str],
) -> Vec<HashSet<NodeId>> {
    keyword_node_sets(index, dg, keywords)
        .into_iter()
        .map(|set| set.into_iter().collect())
        .collect()
}

/// The MTJNTs among a reference level's total networks, in order.
fn reference_mtjnts(
    level: Option<&ReferenceLevel>,
    dg: &DataGraph,
    sets: &[HashSet<NodeId>],
) -> Vec<BTreeSet<NodeId>> {
    level.map_or_else(Vec::new, |level| {
        level.totals.iter().filter(|n| is_mtjnt(dg, n, sets)).cloned().collect()
    })
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ER length never exceeds RDB length, and both are consistent with
    /// the chain lengths; closeness matches the class partition.
    #[test]
    fn er_length_bounded_by_rdb_length(seed in 0u64..500) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let nodes: Vec<NodeId> = dg.graph().nodes().collect();
        prop_assume!(nodes.len() >= 2);
        // Sample a handful of node pairs deterministically.
        for (i, &a) in nodes.iter().enumerate().step_by(7) {
            let b = nodes[(i * 13 + 5) % nodes.len()];
            if a == b {
                continue;
            }
            for p in enumerate_simple_paths_undirected(dg.csr(), a, b, 4, Some(20)) {
                let conn = Connection::from_path(&p, &dg, &s.er_schema);
                let er = conn.er_length(&dg, &s.er_schema, &s.mapping);
                prop_assert!(er <= conn.rdb_length());
                prop_assert!(er >= conn.rdb_length().div_ceil(2));
                let chain = conn.er_chain(&dg, &s.er_schema, &s.mapping);
                prop_assert_eq!(chain.len(), er);
                prop_assert_eq!(chain.closeness(), conn.closeness(&dg, &s.er_schema, &s.mapping));
                // Reversal invariance.
                let rev = conn.reversed();
                prop_assert_eq!(rev.er_length(&dg, &s.er_schema, &s.mapping), er);
                prop_assert_eq!(
                    rev.closeness(&dg, &s.er_schema, &s.mapping),
                    conn.closeness(&dg, &s.er_schema, &s.mapping)
                );
            }
        }
    }

    /// Functional ER chains are close; chains with N:M segments loose.
    #[test]
    fn closeness_definition_holds_on_instances(seed in 0u64..500) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let nodes: Vec<NodeId> = dg.graph().nodes().collect();
        prop_assume!(nodes.len() >= 2);
        let a = nodes[0];
        let b = nodes[nodes.len() - 1];
        for p in enumerate_simple_paths_undirected(dg.csr(), a, b, 5, Some(30)) {
            let conn = Connection::from_path(&p, &dg, &s.er_schema);
            let chain = conn.er_chain(&dg, &s.er_schema, &s.mapping);
            if chain.is_functional() || chain.len() <= 1 {
                prop_assert_eq!(chain.closeness(), Closeness::Close);
            }
            if chain.transitive_nm_count() > 0 {
                prop_assert_eq!(chain.closeness(), Closeness::Loose);
            }
        }
    }

    /// DISCOVER's single-removal minimality equals brute-force
    /// subset-minimality (DESIGN.md §6 ablation: the two definitions
    /// coincide because a connected superset of a connected total core
    /// always has a removable spanning-tree leaf).
    #[test]
    fn mtjnt_minimality_equals_bruteforce(seed in 0u64..300) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
            .unwrap();
        let q = cla_index::KeywordQuery::parse("xml smith");
        let sets: Vec<HashSet<NodeId>> = q
            .keywords()
            .iter()
            .map(|kw| {
                engine
                    .index()
                    .matching_tuples(kw)
                    .into_iter()
                    .filter_map(|t| dg.node_of(t))
                    .collect()
            })
            .collect();
        prop_assume!(sets.iter().all(|s| !s.is_empty()));
        let networks = enumerate_joining_networks(&dg, &sets, 4);
        for n in networks.iter().take(60) {
            let fast = is_mtjnt(&dg, n, &sets);
            let brute = bruteforce_minimal(&dg, n, &sets);
            prop_assert_eq!(fast, brute, "network {:?}", n);
        }
    }

    /// The pruned level generator reports, level by level and in order,
    /// exactly the MTJNTs among the unpruned growth's total networks,
    /// for every size bound from 1 to 6, and never materializes more
    /// networks than the unpruned growth does up to the same bound.
    #[test]
    fn pruned_levels_equal_reference(seed in 0u64..300) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let index = cla_index::InvertedIndex::build(&s.db);
        for kws in DISCOVER_QUERIES {
            let sets = keyword_hash_sets(&index, &dg, kws);
            let reference = joining_network_levels(&dg, &sets, 6);
            for max_tuples in 1..=6 {
                let mut levels = JoiningNetworkLevels::new(&dg, &sets, max_tuples);
                let mut materialized = 0;
                for size in 1..=max_tuples {
                    let want = reference_mtjnts(reference.get(size - 1), &dg, &sets);
                    let got = levels.next_level().unwrap_or_default();
                    prop_assert_eq!(got, want, "{:?} bound {} size {}", kws, max_tuples, size);
                    materialized += reference.get(size - 1).map_or(0, |l| l.materialized);
                }
                prop_assert!(levels.next_level().is_none(), "{:?} bound {}", kws, max_tuples);
                prop_assert!(
                    levels.expansions() <= materialized,
                    "{:?} bound {}: {} vs {}",
                    kws,
                    max_tuples,
                    levels.expansions(),
                    materialized
                );
            }
        }
    }

    /// Under an expansion cap the pruned enumeration returns exactly the
    /// reference's MTJNTs of the completed levels, and reports the last
    /// completed level as its floor.
    #[test]
    fn pruned_enumeration_under_a_cap_equals_reference_to_the_floor(
        seed in 0u64..300,
        cap in 1u64..60,
    ) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let index = cla_index::InvertedIndex::build(&s.db);
        for kws in DISCOVER_QUERIES {
            let sets = keyword_hash_sets(&index, &dg, kws);
            let reference = joining_network_levels(&dg, &sets, 5);
            let mut expansions = 0;
            let (got, floor) =
                enumerate_mtjnts_budgeted(&dg, &sets, 5, &mut expansions, &mut |n| n >= cap);
            let complete = floor.unwrap_or(5);
            let want: Vec<BTreeSet<NodeId>> = (0..complete)
                .flat_map(|i| reference_mtjnts(reference.get(i), &dg, &sets))
                .collect();
            prop_assert_eq!(got, want, "{:?} cap {} floor {:?}", kws, cap, floor);
            if floor.is_some() {
                prop_assert!(expansions >= cap);
            }
            let materialized: u64 = reference.iter().map(|l| l.materialized).sum();
            prop_assert!(expansions <= materialized);
        }
    }

    /// BANKS answer trees are connected, cover every keyword set, and
    /// come out in non-decreasing weight order.
    #[test]
    fn banks_trees_are_wellformed(seed in 0u64..500) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
            .unwrap();
        let kws = ["xml", "smith", "alice"];
        let sets: Vec<Vec<NodeId>> = kws
            .iter()
            .map(|kw| {
                engine
                    .index()
                    .matching_tuples(kw)
                    .into_iter()
                    .filter_map(|t| dg.node_of(t))
                    .collect()
            })
            .collect();
        prop_assume!(sets.iter().all(|s: &Vec<NodeId>| !s.is_empty()));
        let trees = banks_search(&dg, &sets, &BanksOptions { k: Some(10), ..Default::default() });
        let mut last = 0.0f64;
        for t in &trees {
            prop_assert!(t.weight >= last);
            last = t.weight;
            // Covers every set.
            for (ki, set) in sets.iter().enumerate() {
                let covered = set.contains(&t.keyword_nodes[ki])
                    && t.nodes.contains(&t.keyword_nodes[ki]);
                prop_assert!(covered, "keyword {ki} uncovered");
            }
            // Tree shape: |edges| = |nodes| - 1 and connected.
            prop_assert_eq!(t.edges.len(), t.nodes.len() - 1);
            let set: BTreeSet<NodeId> = t.nodes.iter().copied().collect();
            prop_assert!(is_joining(&dg, &set));
        }
    }

    /// Answers do not depend on search history: a sequence of random
    /// queries on one snapshot, whose pooled scratch carries the last
    /// search's buffers (label caches, text scores, BFS map, BANKS
    /// forests) into the next, answers each query exactly as a freshly
    /// made engine does — connections with their rendering, explanation
    /// and info, trees and stats. Covers every algorithm and ranker,
    /// k ∈ {None, 1, 3, 10}, threads 1 and 2, and engines after an
    /// apply. Queries differ in display case as well as keywords, so a
    /// stale label slot shows in a rendering.
    #[test]
    fn answers_do_not_depend_on_search_history(
        seed in 0u64..200,
        applied in any::<bool>(),
        picks in proptest::collection::vec(
            ((0usize..HISTORY_QUERIES.len(), 0usize..3), (0usize..4, 0usize..5, 1usize..3)),
            2..9,
        )
    ) {
        let s = generate_synthetic(&small_config(seed));
        let make = || {
            let mut engine =
                SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
                    .unwrap()
                    .with_aliases(s.aliases.clone());
            if applied {
                let emp = engine.db().catalog().relation_id("EMPLOYEE").unwrap();
                engine
                    .writer_mut()
                    .insert(emp, vec!["ez1".into(), "Smith".into(), "Alice".into(), "d1".into()])
                    .unwrap();
                let _ = engine.apply().unwrap();
            }
            engine
        };
        let history = make().snapshots().latest();
        for ((q, algorithm), (k, ranker, threads)) in picks {
            let options = SearchOptions {
                algorithm: [Algorithm::Paths, Algorithm::Banks, Algorithm::Discover][algorithm],
                k: [None, Some(1), Some(3), Some(10)][k],
                ranker: [
                    RankStrategy::RdbLength,
                    RankStrategy::ErLength,
                    RankStrategy::CloseFirst,
                    RankStrategy::InstanceCloseFirst,
                    RankStrategy::Combined { structure_weight: 1.0 },
                ][ranker],
                max_rdb_length: 3,
                threads,
                ..Default::default()
            };
            let query = HISTORY_QUERIES[q];
            let warm = history.search(query, &options);
            let fresh = make().search(query, &options);
            match (warm, fresh) {
                (Ok(warm), Ok(fresh)) => {
                    prop_assert_eq!(
                        answer_view(&warm),
                        answer_view(&fresh),
                        "{:?} {:?}",
                        query,
                        options
                    );
                }
                (warm, fresh) => prop_assert_eq!(
                    warm.map(|_| ()).map_err(|e| e.to_string()),
                    fresh.map(|_| ()).map_err(|e| e.to_string())
                ),
            }
        }
    }

    /// The engine is deterministic: same database, same query, same
    /// options → identical result renderings.
    #[test]
    fn search_is_deterministic(seed in 0u64..200) {
        let s = generate_synthetic(&small_config(seed));
        let mk = || {
            SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
                .unwrap()
                .with_aliases(s.aliases.clone())
        };
        let opts = SearchOptions { max_rdb_length: 3, ..Default::default() };
        let a = mk().search("xml smith", &opts).unwrap();
        let b = mk().search("xml smith", &opts).unwrap();
        let ra: Vec<String> = a.connections.iter().map(|r| r.rendering.clone()).collect();
        let rb: Vec<String> = b.connections.iter().map(|r| r.rendering.clone()).collect();
        prop_assert_eq!(ra, rb);
    }

    /// The schema-level candidate-network pipeline and the
    /// instance-level growth enumeration agree on the MTJNT set for
    /// random synthetic instances — two independent implementations of
    /// DISCOVER's semantics — with 2 and 3 keywords and networks of up
    /// to 5 tuples, where branching networks and free inner
    /// occurrences appear.
    #[test]
    fn candidate_networks_agree_with_growth(seed in 0u64..120) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let index = cla_index::InvertedIndex::build(&s.db);
        for kws in [&["xml", "smith"][..], &["xml", "smith", "alice"][..]] {
            let matches: Vec<_> = kws.iter().map(|kw| index.matching_tuples(kw)).collect();
            if matches.iter().any(|m| m.is_empty()) {
                continue;
            }
            let via_cn =
                support::candidates::mtjnts_via_candidate_networks(&s.db, &dg, &matches, 5);
            let sets: Vec<HashSet<NodeId>> = matches
                .iter()
                .map(|v| v.iter().filter_map(|&t| dg.node_of(t)).collect())
                .collect();
            let mut via_growth = cla_core::enumerate_mtjnts(&dg, &sets, 5);
            via_growth.sort();
            prop_assert_eq!(via_cn, via_growth, "{:?}", kws);
        }
    }

    /// The distance-pruned multi-target pair enumeration produces
    /// exactly the connections of the per-(source, target)-pair loop on
    /// random synthetic databases, across every length bound.
    #[test]
    fn pruned_pair_connections_match_naive(seed in 0u64..150) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
            .unwrap();
        let sets: Vec<Vec<NodeId>> = ["xml", "smith"]
            .iter()
            .map(|kw| {
                engine
                    .index()
                    .matching_tuples(kw)
                    .into_iter()
                    .filter_map(|t| dg.node_of(t))
                    .collect()
            })
            .collect();
        prop_assume!(sets.iter().all(|s: &Vec<NodeId>| !s.is_empty()));
        for max_rdb in 0..=4usize {
            let key = |c: &Connection| -> (Vec<NodeId>, Vec<EdgeId>) {
                (
                    c.nodes().to_vec(),
                    c.steps().iter().map(|s| s.edge).collect(),
                )
            };
            let mut pruned: Vec<_> = engine
                .pair_connections(&sets[0], &sets[1], max_rdb)
                .iter()
                .map(key)
                .collect();
            let mut naive: Vec<_> = pair_connections_naive(
                engine.data_graph(),
                engine.er_schema(),
                &sets[0],
                &sets[1],
                max_rdb,
            )
            .iter()
            .map(key)
            .collect();
            pruned.sort();
            naive.sort();
            prop_assert_eq!(pruned, naive, "max_rdb {}", max_rdb);
        }
    }

    /// End-to-end: a `k: None` search returns exactly what the per-pair
    /// oracle predicts (see [`search_and_pair_oracle`]). The synthetic
    /// schema has no parallel edges; the parallel-edge representative
    /// is checked by `pruned_search_keeps_the_oracles_parallel_edge_representative`.
    #[test]
    fn pruned_search_equals_naive_search(seed in 0u64..100) {
        let s = generate_synthetic(&small_config(seed));
        let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
            .unwrap()
            .with_aliases(s.aliases.clone());
        let (got, want, _) = search_and_pair_oracle(&engine, 4);
        prop_assert_eq!(got, want);
    }

    /// The short-circuiting witness search agrees with the exhaustive
    /// seed implementation of instance closeness on sampled connections
    /// of random synthetic databases.
    #[test]
    fn pruned_instance_closeness_matches_naive(seed in 0u64..100) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let nodes: Vec<NodeId> = dg.graph().nodes().collect();
        prop_assume!(nodes.len() >= 2);
        let mut checked = 0;
        for (i, &a) in nodes.iter().enumerate().step_by(5) {
            let b = nodes[(i * 11 + 3) % nodes.len()];
            if a == b {
                continue;
            }
            for p in enumerate_simple_paths_undirected(dg.csr(), a, b, 4, Some(8)) {
                let conn = Connection::from_path(&p, &dg, &s.er_schema);
                for budget in [0usize, 2, 4] {
                    let fast =
                        instance_closeness(&conn, &dg, &s.er_schema, &s.mapping, budget);
                    let slow = instance_closeness_naive(
                        &conn, &dg, &s.er_schema, &s.mapping, budget,
                    );
                    prop_assert_eq!(
                        std::mem::discriminant(&fast),
                        std::mem::discriminant(&slow),
                        "budget {}: {:?} vs {:?}",
                        budget,
                        fast,
                        slow
                    );
                    prop_assert_eq!(fast.is_close(), slow.is_close());
                }
                checked += 1;
            }
        }
        prop_assume!(checked > 0);
    }

    /// BANKS invariants on random synthetic databases, including
    /// overlapping keyword sets (the configuration under which the old
    /// per-source min-merge spliced parent chains): every returned
    /// tree's recomputed edge-weight sum equals `weight`, and every
    /// `keyword_nodes[ki]` lies on the tree and matches keyword `ki`.
    #[test]
    fn banks_weight_and_keyword_invariants(seed in 0u64..300) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let index = cla_index::InvertedIndex::build(&s.db);
        // "alice" overlaps heavily with "xml"/"smith" at these
        // selectivities, so chains frequently share segments and ties
        // abound (uniform weights).
        for kws in [&["xml", "smith"][..], &["xml", "smith", "alice"][..]] {
            let sets: Vec<Vec<NodeId>> = kws
                .iter()
                .map(|kw| {
                    index
                        .matching_tuples(kw)
                        .into_iter()
                        .filter_map(|t| dg.node_of(t))
                        .collect()
                })
                .collect();
            if sets.iter().any(|s: &Vec<NodeId>| s.is_empty()) {
                continue;
            }
            let opts = BanksOptions { k: None, ..Default::default() };
            let g = dg.graph();
            for t in banks_search(&dg, &sets, &opts) {
                let sum: f64 = t
                    .edges
                    .iter()
                    .map(|&(e, _, _)| opts.weighting.weight(g.edge(e).payload))
                    .sum();
                prop_assert_eq!(t.weight, sum, "root {} of {:?}", t.root, kws);
                prop_assert_eq!(t.keyword_nodes.len(), sets.len());
                for (ki, kn) in t.keyword_nodes.iter().enumerate() {
                    prop_assert!(t.nodes.contains(kn), "keyword {} off-tree", ki);
                    prop_assert!(sets[ki].contains(kn), "keyword {} not a match", ki);
                }
                // Edge triples are oriented away from the root and form
                // a connected tree.
                prop_assert_eq!(t.edges.len(), t.nodes.len() - 1);
                let set: BTreeSet<NodeId> = t.nodes.iter().copied().collect();
                prop_assert!(is_joining(&dg, &set));
            }
        }
    }

    /// Multi-threaded search returns byte-identical results to the
    /// sequential path, for both the raw enumeration and the full ranked
    /// pipeline.
    #[test]
    fn parallel_search_matches_sequential(seed in 0u64..120) {
        let s = generate_synthetic(&small_config(seed));
        let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
            .unwrap()
            .with_aliases(s.aliases.clone());
        let sets: Vec<Vec<NodeId>> = ["xml", "smith"]
            .iter()
            .map(|kw| {
                engine
                    .index()
                    .matching_tuples(kw)
                    .into_iter()
                    .filter_map(|t| engine.data_graph().node_of(t))
                    .collect()
            })
            .collect();
        prop_assume!(sets.iter().all(|s: &Vec<NodeId>| !s.is_empty()));
        let sequential = engine.pair_connections(&sets[0], &sets[1], 4);
        for threads in [2usize, 4] {
            let parallel = engine.pair_connections_threaded(&sets[0], &sets[1], 4, threads);
            prop_assert_eq!(&parallel, &sequential, "threads {}", threads);
        }
        let base = SearchOptions { max_rdb_length: 4, threads: 1, ..Default::default() };
        let seq = engine.search("xml smith", &base).unwrap();
        let par = engine
            .search("xml smith", &SearchOptions { threads: 4, ..base })
            .unwrap();
        prop_assert_eq!(seq.connections.len(), par.connections.len());
        for (a, b) in seq.connections.iter().zip(&par.connections) {
            prop_assert_eq!(&a.rendering, &b.rendering);
            prop_assert_eq!(&a.explanation, &b.explanation);
            prop_assert_eq!(a.connection.nodes(), b.connection.nodes());
        }
        prop_assert_eq!(seq.stats, par.stats);
    }

    /// Streaming top-k returns exactly the full enumeration's ranked
    /// prefix — rendering, explanation and info, item by item — never
    /// expands more DFS nodes, and its work accounting is consistent,
    /// under every streaming ranker with instance closeness on and off.
    #[test]
    fn streaming_topk_matches_full_enumeration(seed in 0u64..100, k in 1usize..12) {
        let s = generate_synthetic(&small_config(seed));
        let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
            .unwrap()
            .with_aliases(s.aliases.clone());
        for ranker in STREAMING_RANKERS {
            for compute_instance in [true, false] {
                let base = SearchOptions {
                    max_rdb_length: 4,
                    ranker,
                    compute_instance,
                    threads: 1,
                    ..Default::default()
                };
                let full = engine.search("xml smith", &base).unwrap();
                let stream = engine
                    .search("xml smith", &SearchOptions { k: Some(k), ..base })
                    .unwrap();
                let prefix = &full.connections[..k.min(full.connections.len())];
                prop_assert_eq!(
                    ranked_view(&stream.connections),
                    ranked_view(prefix),
                    "ranker {} instance {} k {}",
                    ranker.name(),
                    compute_instance,
                    k
                );
                prop_assert!(
                    stream.stats.max_length_enumerated <= full.stats.max_length_enumerated
                );
                // Early termination must stop before the budget; iterative
                // deepening that runs to the *full* budget may legitimately
                // re-expand shallow prefixes (the classic IDDFS trade), so
                // the strictly-fewer-expansions claim applies exactly when
                // the search stopped early.
                if stream.stats.early_terminated {
                    prop_assert!(stream.stats.max_length_enumerated < base.max_rdb_length);
                    prop_assert!(
                        stream.stats.expansions < full.stats.expansions,
                        "early-terminated streaming must expand fewer nodes: {} vs {}",
                        stream.stats.expansions,
                        full.stats.expansions
                    );
                }
            }
        }
    }

    /// The BANKS priority-queue cutoff returns exactly the full
    /// enumeration's prefix — roots, weights and node sets — while
    /// never completing more candidate roots, across 2- and 3-keyword
    /// queries on random graphs.
    #[test]
    fn banks_cutoff_prefix_equals_full_enumeration(seed in 0u64..120, k in 1usize..25) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let index = cla_index::InvertedIndex::build(&s.db);
        for kws in [&["xml", "smith"][..], &["xml", "smith", "alice"][..]] {
            let sets: Vec<Vec<NodeId>> = kws
                .iter()
                .map(|kw| {
                    index
                        .matching_tuples(kw)
                        .into_iter()
                        .filter_map(|t| dg.node_of(t))
                        .collect()
                })
                .collect();
            if sets.iter().any(|s: &Vec<NodeId>| s.is_empty()) {
                continue;
            }
            let mut scratch = BanksScratch::new();
            let (full, full_work, _) = banks_search_budgeted(
                &dg,
                &sets,
                &BanksOptions { k: None, ..Default::default() },
                &mut scratch,
                &mut |_| false,
            );
            let (cut, cut_work, _) = banks_search_budgeted(
                &dg,
                &sets,
                &BanksOptions { k: Some(k), ..Default::default() },
                &mut scratch,
                &mut |_| false,
            );
            prop_assert_eq!(cut.len(), full.len().min(k), "{:?} k {}", kws, k);
            for (a, b) in cut.iter().zip(&full) {
                prop_assert_eq!(a.root, b.root, "{:?} k {}", kws, k);
                prop_assert_eq!(a.weight, b.weight);
                prop_assert_eq!(&a.nodes, &b.nodes);
                prop_assert_eq!(&a.edges, &b.edges);
                prop_assert_eq!(&a.keyword_nodes, &b.keyword_nodes);
            }
            prop_assert!(cut_work.candidates <= full_work.candidates);
            prop_assert!(cut_work.expansions <= full_work.expansions);
            if cut_work.early_terminated {
                prop_assert!(
                    cut_work.expansions < full_work.expansions,
                    "cutoff must save settles when it fires: {} vs {}",
                    cut_work.expansions,
                    full_work.expansions
                );
            }
        }
    }

    /// BANKS equals the eager reference `banks_naive`, which shares
    /// none of the engine's expansion loop: the same trees (root,
    /// nodes, edges, keyword nodes and weight) in the same order, in
    /// full at `k: None` and as a prefix at `k`, for 2 and 3 keywords
    /// under both edge weightings.
    #[test]
    fn banks_matches_eager_reference(seed in 0u64..120, k in 1usize..25) {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let index = cla_index::InvertedIndex::build(&s.db);
        let mut scratch = BanksScratch::new();
        for kws in [&["xml", "smith"][..], &["xml", "smith", "alice"][..]] {
            let sets = keyword_node_sets(&index, &dg, kws);
            for weighting in [EdgeWeighting::Uniform, EdgeWeighting::ErAware] {
                let all = BanksOptions { k: None, weighting, ..Default::default() };
                let (want, _) = banks_naive(&dg, &sets, &all);
                for opts in [all, BanksOptions { k: Some(k), ..all }] {
                    let (got, _, _) =
                        banks_search_budgeted(&dg, &sets, &opts, &mut scratch, &mut |_| false);
                    let n = opts.k.map_or(want.len(), |k| k.min(want.len()));
                    prop_assert_eq!(
                        &got[..],
                        &want[..n],
                        "{:?} {:?} k {:?}",
                        kws,
                        weighting,
                        opts.k
                    );
                }
            }
        }
    }

    /// DISCOVER's streamed top-k equals the batch pipeline truncated —
    /// rendering, explanation and info, item by item — and never
    /// materializes more candidate networks, under every streaming
    /// ranker with instance closeness on and off.
    #[test]
    fn discover_streaming_matches_batch(seed in 0u64..80, k in 1usize..10) {
        let s = generate_synthetic(&small_config(seed));
        let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
            .unwrap()
            .with_aliases(s.aliases.clone());
        for ranker in STREAMING_RANKERS {
            for compute_instance in [true, false] {
                let base = SearchOptions {
                    algorithm: Algorithm::Discover,
                    max_rdb_length: 3,
                    ranker,
                    compute_instance,
                    threads: 1,
                    ..Default::default()
                };
                let full = engine.search("xml smith", &base).unwrap();
                let stream = engine
                    .search("xml smith", &SearchOptions { k: Some(k), ..base })
                    .unwrap();
                let prefix = &full.connections[..k.min(full.connections.len())];
                prop_assert_eq!(
                    ranked_view(&stream.connections),
                    ranked_view(prefix),
                    "ranker {} instance {} k {}",
                    ranker.name(),
                    compute_instance,
                    k
                );
                // The cut can fire on an already-exhausted frontier (a tiny
                // keyword component has nothing left to grow), in which
                // case it legitimately saves nothing — so the random-graph
                // invariant is monotonicity; the strictly-fewer claim is
                // pinned at the deterministic B7/B1 shapes where the cut
                // provably skips whole levels.
                prop_assert!(stream.stats.expansions <= full.stats.expansions);
            }
        }
        // The non-monotone ranker takes the batch path and agrees on its
        // own truncation.
        let combined = SearchOptions {
            algorithm: Algorithm::Discover,
            max_rdb_length: 3,
            ranker: RankStrategy::Combined { structure_weight: 1.0 },
            k: Some(k),
            threads: 1,
            ..Default::default()
        };
        let batch = engine.search("xml smith", &combined).unwrap();
        prop_assert!(!batch.stats.early_terminated);
    }

    /// Witness strategies are a pure cost knob: iterative deepening,
    /// bounded-BFS and the auto pick produce identical verdicts on
    /// random connections (oracle included) and identical ranked output
    /// under the instance-aware ranker.
    #[test]
    fn witness_strategies_agree(seed in 0u64..80) {
        let s = generate_synthetic(&small_config(seed));
        let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
            .unwrap()
            .with_aliases(s.aliases.clone());
        let dg = engine.data_graph();
        // Direct witness-search agreement on sampled connections.
        let nodes: Vec<NodeId> = dg.graph().nodes().collect();
        prop_assume!(nodes.len() >= 2);
        for (i, &a) in nodes.iter().enumerate().step_by(9) {
            let b = nodes[(i * 17 + 3) % nodes.len()];
            if a == b {
                continue;
            }
            for p in enumerate_simple_paths_undirected(dg.csr(), a, b, 4, Some(6)) {
                let cn = Connection::from_path(&p, dg, &s.er_schema);
                let naive = instance_closeness_naive(&cn, dg, &s.er_schema, &s.mapping, 4);
                for strategy in [
                    WitnessStrategy::IterativeDeepening,
                    WitnessStrategy::BoundedBfs,
                    WitnessStrategy::Auto,
                ] {
                    let got = instance_closeness_with_cache(
                        &cn,
                        dg,
                        &s.er_schema,
                        &s.mapping,
                        4,
                        &mut WitnessCache::with_strategy(strategy),
                    );
                    prop_assert_eq!(
                        got.is_close(),
                        naive.is_close(),
                        "{:?} on {:?}",
                        strategy,
                        cn.nodes()
                    );
                }
            }
        }
        // End to end: ranked output independent of the strategy.
        let base = SearchOptions {
            ranker: RankStrategy::InstanceCloseFirst,
            max_rdb_length: 3,
            threads: 1,
            ..Default::default()
        };
        let deepening = engine
            .search(
                "xml smith",
                &SearchOptions {
                    witness_strategy: WitnessStrategy::IterativeDeepening,
                    ..base
                },
            )
            .unwrap();
        let bounded = engine
            .search(
                "xml smith",
                &SearchOptions { witness_strategy: WitnessStrategy::BoundedBfs, ..base },
            )
            .unwrap();
        prop_assert_eq!(deepening.connections.len(), bounded.connections.len());
        for (a, b) in deepening.connections.iter().zip(&bounded.connections) {
            prop_assert_eq!(&a.rendering, &b.rendering);
            prop_assert_eq!(&a.info, &b.info);
        }
    }

    /// MTJNT filtering never *adds* results and every kept network is
    /// total and joining.
    #[test]
    fn mtjnt_results_subset_of_all(seed in 0u64..200) {
        let s = generate_synthetic(&small_config(seed));
        let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
            .unwrap()
            .with_aliases(s.aliases.clone());
        let opts = SearchOptions { max_rdb_length: 3, ..Default::default() };
        let all = engine.search("xml smith", &opts).unwrap();
        let filtered = engine
            .search(
                "xml smith",
                &SearchOptions { mtjnt_only: true, max_rdb_length: 3, ..Default::default() },
            )
            .unwrap();
        prop_assert!(filtered.len() <= all.len());
        let all_renderings: HashSet<String> =
            all.connections.iter().map(|r| r.rendering.clone()).collect();
        for r in &filtered.connections {
            prop_assert!(all_renderings.contains(&r.rendering));
        }
    }
}

/// The B1 acceptance shape (dept16, seed 7 — the EXPERIMENTS.md bench
/// database).
fn b1_config() -> SyntheticConfig {
    SyntheticConfig {
        departments: 16,
        employees_per_department: 8,
        projects_per_department: 3,
        works_on_per_employee: 2,
        dependent_probability: 0.3,
        xml_selectivity: 0.15,
        smith_selectivity: 0.1,
        alice_selectivity: 0.25,
        project_skew: 1.0,
        seed: 7,
    }
}

/// At the B1 bench shape, streaming top-k must terminate early and
/// expand strictly fewer DFS nodes than the full enumeration, while
/// returning the identical top-k — the PR's acceptance criterion, pinned
/// as a test.
#[test]
fn streaming_topk_expands_strictly_less_at_b1_shape() {
    let s = generate_synthetic(&b1_config());
    let engine =
        SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases);
    let base = SearchOptions {
        max_rdb_length: 4,
        compute_instance: false,
        threads: 1,
        ..Default::default()
    };
    let full = engine.search("xml smith", &base).unwrap();
    assert!(full.stats.expansions > 0);
    assert_eq!(full.stats.max_length_enumerated, 4);
    for k in [3usize, 10] {
        let stream =
            engine.search("xml smith", &SearchOptions { k: Some(k), ..base }).unwrap();
        assert!(
            stream.stats.expansions < full.stats.expansions,
            "k={k}: streaming expanded {} nodes, full enumeration {}",
            stream.stats.expansions,
            full.stats.expansions
        );
        assert!(stream.stats.early_terminated, "k={k} must stop before the length budget");
        let want: Vec<&str> =
            full.connections.iter().take(k).map(|r| r.rendering.as_str()).collect();
        let got: Vec<&str> =
            stream.connections.iter().map(|r| r.rendering.as_str()).collect();
        assert_eq!(got, want, "k={k}");
    }
}

/// The candidate-network oracle at the B1 shape, on the query whose
/// networks of 5 tuples exposed its old dedup key: two non-isomorphic
/// networks with equal node and edge multisets (one of them with a free
/// leaf) took one key, and the admissible one was lost.
#[test]
fn candidate_networks_agree_with_growth_at_b1_shape() {
    let s = generate_synthetic(&b1_config());
    let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
    let index = cla_index::InvertedIndex::build(&s.db);
    let matches: Vec<_> =
        ["xml", "smith", "alice"].iter().map(|kw| index.matching_tuples(kw)).collect();
    let via_cn = support::candidates::mtjnts_via_candidate_networks(&s.db, &dg, &matches, 5);
    let sets: Vec<HashSet<NodeId>> =
        matches.iter().map(|v| v.iter().filter_map(|&t| dg.node_of(t)).collect()).collect();
    let mut via_growth = cla_core::enumerate_mtjnts(&dg, &sets, 5);
    via_growth.sort();
    assert_eq!(via_cn, via_growth);
}

/// The B7 bench shape (dept8, seed 7 — `scaling/banks_vs_discover`).
fn b7_config() -> SyntheticConfig {
    SyntheticConfig { departments: 8, ..b1_config() }
}

/// The PR's acceptance criteria at the B7 dept8 shape, pinned as a
/// test: BANKS at k = 20 completes strictly fewer candidate roots than
/// the full enumeration materializes (reported through the unified
/// `SearchStats::expansions`) while returning byte-identical trees to
/// the unbounded run's prefix; DISCOVER at k = 20 materializes strictly
/// fewer candidate networks and returns exactly the batch pipeline's
/// ranked prefix.
#[test]
fn cutoffs_beat_full_enumeration_at_b7_shape() {
    let s = generate_synthetic(&b7_config());
    let engine = SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
        .unwrap()
        .with_aliases(s.aliases.clone());
    let base = SearchOptions {
        algorithm: Algorithm::Banks,
        max_rdb_length: 3,
        compute_instance: false,
        threads: 1,
        ..Default::default()
    };
    let full = engine.search("xml smith", &base).unwrap();
    assert!(full.stats.expansions > 0);
    let stream = engine.search("xml smith", &SearchOptions { k: Some(20), ..base }).unwrap();
    assert!(
        stream.stats.expansions < full.stats.expansions,
        "Banks k=20: {} candidate completions vs {} at full enumeration",
        stream.stats.expansions,
        full.stats.expansions
    );
    assert!(stream.stats.early_terminated, "Banks must cut early");

    // DISCOVER at dept16 (the B1 shape): the size-level cut needs the
    // top k to saturate before the last level, which `RdbLength`'s
    // pure length domination gives at k = 20 from this scale up
    // (CloseFirst's bound additionally needs low-ER results on top —
    // it fires at smaller k, covered by the property above).
    let s16 = generate_synthetic(&b1_config());
    let engine16 = SearchEngine::new(s16.db, s16.er_schema, s16.mapping)
        .unwrap()
        .with_aliases(s16.aliases);
    let base = SearchOptions {
        algorithm: Algorithm::Discover,
        max_rdb_length: 4,
        ranker: RankStrategy::RdbLength,
        compute_instance: false,
        threads: 1,
        ..Default::default()
    };
    let full = engine16.search("xml smith", &base).unwrap();
    let stream =
        engine16.search("xml smith", &SearchOptions { k: Some(20), ..base }).unwrap();
    assert!(
        stream.stats.expansions < full.stats.expansions,
        "Discover k=20: {} network materializations vs {}",
        stream.stats.expansions,
        full.stats.expansions
    );
    assert!(stream.stats.early_terminated, "Discover must cut early");
    // DISCOVER's k is a plain result budget, so the streamed output is
    // the batch ranking truncated.
    let want: Vec<&str> =
        full.connections.iter().take(20).map(|r| r.rendering.as_str()).collect();
    let got: Vec<&str> = stream.connections.iter().map(|r| r.rendering.as_str()).collect();
    assert_eq!(got, want);
    // BANKS's k caps the *answer trees by weight* before ranking (the
    // engine semantics since PR 2), so its byte-identity claim lives at
    // the enumeration level: the cut run returns exactly the unbounded
    // run's tree prefix.
    let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
    let index = cla_index::InvertedIndex::build(&s.db);
    let sets: Vec<Vec<NodeId>> = ["xml", "smith"]
        .iter()
        .map(|kw| {
            index.matching_tuples(kw).into_iter().filter_map(|t| dg.node_of(t)).collect()
        })
        .collect();
    let mut scratch = BanksScratch::new();
    let (full_trees, full_work, _) = banks_search_budgeted(
        &dg,
        &sets,
        &BanksOptions { k: None, ..Default::default() },
        &mut scratch,
        &mut |_| false,
    );
    let (cut_trees, cut_work, _) = banks_search_budgeted(
        &dg,
        &sets,
        &BanksOptions { k: Some(20), ..Default::default() },
        &mut scratch,
        &mut |_| false,
    );
    assert_eq!(cut_trees.len(), 20);
    for (a, b) in cut_trees.iter().zip(&full_trees) {
        assert_eq!((a.root, a.weight), (b.root, b.weight));
        assert_eq!(a.nodes, b.nodes);
    }
    assert!(
        cut_work.candidates < full_work.candidates,
        "k=20 must complete fewer candidate roots: {} vs {}",
        cut_work.candidates,
        full_work.candidates
    );
    assert!(cut_work.expansions < full_work.expansions, "and settle fewer frontier nodes");
}

/// The eager reference's node-set dedup really drops trees on the
/// property fixture, so `banks_matches_eager_reference` exercises the
/// engine's registered-root dedup and not only its tree assembly.
#[test]
fn banks_reference_dedup_fires_on_small_config() {
    let mut dropped = 0;
    for seed in 0..24 {
        let s = generate_synthetic(&small_config(seed));
        let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
        let index = cla_index::InvertedIndex::build(&s.db);
        let sets = keyword_node_sets(&index, &dg, &["xml", "smith", "alice"]);
        let opts = BanksOptions { k: None, ..Default::default() };
        let (want, d) = banks_naive(&dg, &sets, &opts);
        assert_eq!(banks_search(&dg, &sets, &opts), want, "seed {seed}");
        dropped += d;
    }
    assert!(dropped > 0, "the reference must drop duplicate node sets on this fixture");
}

/// A DISCOVER search whose seeds match every keyword completes under
/// the benchmark's expansion cap: on the dept16 fixture "the main are"
/// matches every department and project description, and those tuples
/// are each an MTJNT alone, so nothing grows from them.
#[test]
fn discover_with_total_seeds_completes_under_the_cap() {
    let s = generate_synthetic(&b1_config());
    let engine =
        SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases);
    let opts = SearchOptions {
        algorithm: Algorithm::Discover,
        k: None,
        threads: 1,
        compute_instance: true,
        max_rdb_length: 4,
        budget: SearchBudget::with_max_expansions(200_000),
        ..Default::default()
    };
    let r = engine.search("the main are", &opts).unwrap();
    assert_eq!(r.stats.completeness, Completeness::Complete);
    assert_eq!(r.connections.len(), 64, "16 departments and 48 projects");
    assert!(r.stats.expansions <= 1_000, "{} materializations", r.stats.expansions);
}

/// DISCOVER's branching answer trees come out in one order: two engines
/// over the same database return the same trees (nodes, edges, weight)
/// in the same sequence, whatever order their keyword hash sets iterate
/// in.
#[test]
fn discover_trees_come_out_in_one_order() {
    let opts = SearchOptions {
        algorithm: Algorithm::Discover,
        max_rdb_length: 4,
        threads: 1,
        k: None,
        ..Default::default()
    };
    let mut multi_tree_seeds = 0;
    for seed in 0..200 {
        let s = generate_synthetic(&small_config(seed));
        let trees = || {
            let engine =
                SearchEngine::new(s.db.clone(), s.er_schema.clone(), s.mapping.clone())
                    .unwrap();
            let results = engine.search("xml smith alice", &opts).unwrap();
            results
                .trees
                .iter()
                .map(|t| (t.nodes.clone(), t.edges.clone(), t.weight))
                .collect::<Vec<_>>()
        };
        let first = trees();
        if first.len() >= 2 {
            multi_tree_seeds += 1;
        }
        assert_eq!(first, trees(), "seed {seed}: tree order differs between engines");
    }
    assert!(multi_tree_seeds > 0, "the fixture must produce several trees for some seed");
}

/// `k: None` means *unbounded*: on a graph with more than 100 candidate
/// answer trees BANKS returns them all — the seed's silent
/// `unwrap_or(100)` cap is gone.
#[test]
fn banks_k_none_returns_more_than_100_trees() {
    let s = generate_synthetic(&b1_config());
    let dg = DataGraph::build(&s.db, &s.mapping).unwrap();
    let index = cla_index::InvertedIndex::build(&s.db);
    let sets: Vec<Vec<NodeId>> = ["xml", "smith"]
        .iter()
        .map(|kw| {
            index.matching_tuples(kw).into_iter().filter_map(|t| dg.node_of(t)).collect()
        })
        .collect();
    assert!(sets.iter().all(|s| !s.is_empty()));
    let trees = banks_search(&dg, &sets, &BanksOptions { k: None, ..Default::default() });
    assert!(trees.len() > 100, "expected > 100 trees, got {}", trees.len());
    // The old default-capped behavior is still reachable explicitly.
    let capped =
        banks_search(&dg, &sets, &BanksOptions { k: Some(100), ..Default::default() });
    assert_eq!(capped.len(), 100);
}

/// A connection as the oracle comparisons see it: nodes and edges.
type ConnKey = (Vec<NodeId>, Vec<EdgeId>);

/// The `(nodes, edges)` of every connection a `k: None` "xml smith"
/// search ranks, and what the per-pair oracle predicts: its paths plus
/// the single-tuple matches, oriented canonically (smaller endpoint
/// tuple first), keeping the first connection per node sequence. Both
/// lists come sorted. Comparing edges as well as nodes checks that the
/// pipeline keeps the same representative among parallel-edge
/// variants; the third value counts the oracle connections the dedup
/// dropped.
fn search_and_pair_oracle(
    engine: &SearchEngine,
    max_rdb: usize,
) -> (Vec<ConnKey>, Vec<ConnKey>, usize) {
    let dg = engine.data_graph();
    let sets: Vec<Vec<NodeId>> = ["xml", "smith"]
        .iter()
        .map(|kw| {
            engine
                .index()
                .matching_tuples(kw)
                .into_iter()
                .filter_map(|t| dg.node_of(t))
                .collect()
        })
        .collect();
    let key = |c: &Connection| -> ConnKey {
        (c.nodes().to_vec(), c.steps().iter().map(|s| s.edge).collect())
    };
    let mut singles: Vec<NodeId> =
        sets[0].iter().copied().filter(|n| sets[1].contains(n)).collect();
    singles.sort();
    singles.dedup();
    let oracle: Vec<Connection> = singles
        .into_iter()
        .map(Connection::single)
        .chain(pair_connections_naive(dg, engine.er_schema(), &sets[0], &sets[1], max_rdb))
        .map(|c| if dg.tuple_of(c.end()) < dg.tuple_of(c.start()) { c.reversed() } else { c })
        .collect();
    let mut seen: HashSet<Vec<NodeId>> = HashSet::new();
    let mut want: Vec<ConnKey> =
        oracle.iter().filter(|c| seen.insert(c.nodes().to_vec())).map(key).collect();
    let dropped = oracle.len() - want.len();
    let opts = SearchOptions { max_rdb_length: max_rdb, ..Default::default() };
    let mut got: Vec<ConnKey> = engine
        .search("xml smith", &opts)
        .unwrap()
        .connections
        .iter()
        .map(|r| key(&r.connection))
        .collect();
    want.sort();
    got.sort();
    (got, want, dropped)
}

/// Departments `(ID, D_DESCRIPTION)` and employees `(SSN, L_NAME,
/// works for, advises)` of the two-FK fixture below.
type TwoFkRows<'a> = (&'a [(&'a str, &'a str)], &'a [(&'a str, &'a str, &'a str, &'a str)]);

/// Two foreign keys from EMPLOYEE to DEPARTMENT: an employee who works
/// for and advises the same department is linked to it by two parallel
/// edges, so several connections share one node sequence. The first
/// rows are the base fixture; `extra` rows follow them.
fn two_fk_engine(extra: TwoFkRows<'_>) -> SearchEngine {
    let er = ErSchemaBuilder::new()
        .entity("DEPARTMENT", |e| {
            e.key("ID", DataType::Text).attr("D_DESCRIPTION", DataType::Text)
        })
        .entity("EMPLOYEE", |e| e.key("SSN", DataType::Text).attr("L_NAME", DataType::Text))
        .relationship("WORKS_FOR", "EMPLOYEE", "DEPARTMENT", Cardinality::MANY_TO_ONE, |r| {
            r.verb("works for").fk_columns(&["D_ID"])
        })
        .relationship("ADVISES", "EMPLOYEE", "DEPARTMENT", Cardinality::MANY_TO_ONE, |r| {
            r.verb("advises").fk_columns(&["A_ID"])
        })
        .build()
        .unwrap();
    let mapping = map_to_relational(&er).unwrap();
    let mut db = Database::new(mapping.catalog().clone()).unwrap();
    let dept = db.catalog().relation_id("DEPARTMENT").unwrap();
    let emp = db.catalog().relation_id("EMPLOYEE").unwrap();
    let departments = [("d1", "xml tools"), ("d2", "xml storage"), ("d3", "parsers")];
    for &(id, desc) in departments.iter().chain(extra.0) {
        db.insert(dept, vec![id.into(), desc.into()]).unwrap();
    }
    let employees = [
        ("e1", "Smith", "d1", "d1"),
        ("e2", "Smith", "d1", "d2"),
        ("e3", "Jones", "d2", "d2"),
        ("e4", "Smith", "d3", "d3"),
        ("e5", "Jones", "d3", "d1"),
    ];
    for &(ssn, name, works, advises) in employees.iter().chain(extra.1) {
        db.insert(emp, vec![ssn.into(), name.into(), works.into(), advises.into()]).unwrap();
    }
    SearchEngine::new(db, er, mapping).unwrap()
}

/// The pruned search keeps the per-pair oracle's representative among
/// parallel-edge variants.
#[test]
fn pruned_search_keeps_the_oracles_parallel_edge_representative() {
    let engine = two_fk_engine((&[], &[]));
    let (got, want, dropped) = search_and_pair_oracle(&engine, 4);
    assert!(dropped > 0, "the fixture must yield parallel-edge variants");
    assert_eq!(got, want);
}

/// Streamed top-k Paths offers each connection once, as the DFS emits
/// it, picking the path the batch pipeline's dedup keeps by two rules:
/// every hop on its lowest-id edge, and a path between two tuples that
/// both match both keywords taken from the source ordered first. On
/// the two-FK fixture with two such departments, joined through
/// employees on both foreign keys, the streamed answer at every k is
/// the whole answer's prefix: the same connections (node and edge ids),
/// renderings, explanations and infos, under every streaming ranker
/// with instance closeness on and off.
#[test]
fn streamed_paths_keep_the_batch_representatives() {
    let engine = two_fk_engine((
        &[("d4", "xml smith archive"), ("d5", "smith xml lab")],
        &[
            ("e6", "Smith", "d4", "d5"),
            ("e7", "Jones", "d5", "d4"),
            ("e8", "Smith", "d4", "d4"),
            ("e9", "Jones", "d5", "d5"),
            ("e10", "Smith", "d1", "d4"),
        ],
    ));
    let view = |r: &SearchResults| -> Vec<(ConnKey, String, String, ConnectionInfo)> {
        r.connections
            .iter()
            .map(|c| {
                let edges = c.connection.steps().iter().map(|s| s.edge).collect();
                let key = (c.connection.nodes().to_vec(), edges);
                (key, c.rendering.clone(), c.explanation.clone(), c.info.clone())
            })
            .collect()
    };
    for ranker in STREAMING_RANKERS {
        for compute_instance in [true, false] {
            let base = SearchOptions {
                max_rdb_length: 4,
                ranker,
                compute_instance,
                threads: 1,
                ..Default::default()
            };
            let full = view(&engine.search("xml smith", &base).unwrap());
            let nodes: HashSet<&[NodeId]> = full.iter().map(|c| c.0 .0.as_slice()).collect();
            assert_eq!(nodes.len(), full.len(), "the whole answer repeats a connection");
            for k in 1..=full.len() + 1 {
                let stream = view(
                    &engine
                        .search("xml smith", &SearchOptions { k: Some(k), ..base })
                        .unwrap(),
                );
                assert_eq!(
                    stream,
                    full[..k.min(full.len())],
                    "ranker {} instance {compute_instance} k {k}",
                    ranker.name()
                );
            }
        }
    }
}

/// The short-circuit witness search agrees with the exhaustive scan on
/// every paper connection and budget — under every witness strategy,
/// and the bounded-BFS witness is *identical* to the iterative-deepening
/// one.
#[test]
fn pruned_verdicts_match_naive() {
    let c = company();
    let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
    let conn = |aliases: &[&str]| -> Connection {
        let want: Vec<NodeId> =
            aliases.iter().map(|a| dg.node_of(c.tuple(a).unwrap()).unwrap()).collect();
        enumerate_simple_paths_undirected(dg.csr(), want[0], *want.last().unwrap(), 6, None)
            .iter()
            .map(|p| Connection::from_path(p, &dg, &c.er_schema))
            .find(|cn| cn.nodes() == want.as_slice())
            .expect("path exists")
    };
    let all: &[&[&str]] = &[
        &["d1", "e1"],
        &["p1", "w_f1", "e1"],
        &["p1", "d1", "e1"],
        &["d1", "p1", "w_f1", "e1"],
        &["d2", "e2"],
        &["p2", "d2", "e2"],
        &["d2", "p3", "w_f2", "e2"],
        &["d1", "e3", "t1"],
        &["d2", "p2", "w_f3", "e3", "t1"],
    ];
    for aliases in all {
        let cn = conn(aliases);
        for budget in 0..=5 {
            let fast = instance_closeness(&cn, &dg, &c.er_schema, &c.mapping, budget);
            let slow = instance_closeness_naive(&cn, &dg, &c.er_schema, &c.mapping, budget);
            assert_eq!(
                std::mem::discriminant(&fast),
                std::mem::discriminant(&slow),
                "{aliases:?} at budget {budget}: {fast:?} vs {slow:?}"
            );
            assert_eq!(fast.is_close(), slow.is_close());
            // Both witnesses (when present) are minimal-length close
            // connections between the same endpoints.
            if let (InstanceCloseness::WitnessClose(a), InstanceCloseness::WitnessClose(b)) =
                (&fast, &slow)
            {
                assert_eq!(a.rdb_length(), b.rdb_length(), "{aliases:?}");
                assert_eq!((a.start(), a.end()), (b.start(), b.end()));
            }
            // The bounded-BFS leg returns the *identical* verdict,
            // witness connection included.
            let bounded = instance_closeness_with_cache(
                &cn,
                &dg,
                &c.er_schema,
                &c.mapping,
                budget,
                &mut WitnessCache::with_strategy(WitnessStrategy::BoundedBfs),
            );
            let deepening = instance_closeness_with_cache(
                &cn,
                &dg,
                &c.er_schema,
                &c.mapping,
                budget,
                &mut WitnessCache::with_strategy(WitnessStrategy::IterativeDeepening),
            );
            assert_eq!(bounded, deepening, "{aliases:?} at budget {budget}");
        }
    }
}

/// Brute force: minimal iff no proper non-empty subset is total+joining.
fn bruteforce_minimal(
    dg: &DataGraph,
    nodes: &BTreeSet<NodeId>,
    keyword_sets: &[HashSet<NodeId>],
) -> bool {
    if !is_total(nodes, keyword_sets) || !is_joining(dg, nodes) {
        return false;
    }
    let v: Vec<NodeId> = nodes.iter().copied().collect();
    let n = v.len();
    if n > 12 {
        panic!("brute force only for small networks");
    }
    for mask in 1..(1u32 << n) - 1 {
        let subset: BTreeSet<NodeId> =
            (0..n).filter(|i| mask & (1 << i) != 0).map(|i| v[i]).collect();
        if is_total(&subset, keyword_sets) && is_joining(dg, &subset) {
            return false;
        }
    }
    true
}
