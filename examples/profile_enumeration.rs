//! Quick profiling probe for the search hot path at the B1 dept16/len4
//! shape: times the distance-pruned DFS alone (bounded BFS map and one
//! DFS per source, paths only counted), the full search pipeline, the
//! instance-closeness witness search and the per-connection metric,
//! rendering and explanation stages. Used to sanity-check
//! EXPERIMENTS.md numbers outside the bench harness.

use close_loose_ks::core::{SearchEngine, SearchOptions};
use close_loose_ks::datagen::{generate_synthetic, SyntheticConfig};
use close_loose_ks::graph::{
    bounded_bfs_distances_into, for_each_path_to_targets_budgeted, NodeId, TraversalScratch,
};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::time::Instant;

fn engine(departments: usize) -> SearchEngine {
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
        seed: 7,
    };
    let s = generate_synthetic(&config);
    SearchEngine::new(s.db, s.er_schema, s.mapping).unwrap().with_aliases(s.aliases)
}

fn time<T>(label: &str, reps: u32, mut f: impl FnMut() -> T) {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    println!(
        "{label:<28} {:>10.1} µs/rep",
        start.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
    );
}

fn main() {
    let engine = engine(16);
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
    println!(
        "dept16: |xml|={} |smith|={} nodes={} edges={}",
        sets[0].len(),
        sets[1].len(),
        engine.data_graph().node_count(),
        engine.data_graph().edge_count()
    );
    let max = 4;
    let csr = engine.data_graph().csr();
    let (mut dist, mut queue) = (Vec::new(), VecDeque::new());
    let mut traversal = TraversalScratch::new();
    let mut enumerate = || {
        let mut is_target = vec![false; csr.node_count()];
        for &b in &sets[1] {
            is_target[b.index()] = true;
        }
        bounded_bfs_distances_into(csr, &sets[1], max as u32, &mut dist, &mut queue);
        let (mut expansions, mut paths) = (0u64, 0usize);
        for &a in &sets[0] {
            let _ = for_each_path_to_targets_budgeted(
                csr,
                a,
                &is_target,
                &dist,
                max,
                &mut expansions,
                &mut traversal,
                &mut |_| false,
                |_, _| {
                    paths += 1;
                    ControlFlow::Continue(())
                },
            );
        }
        paths
    };
    println!("paths: {}", enumerate());
    let reps = 50;
    time("enumeration (pruned DFS)", reps, &mut enumerate);
    let pruned_opts =
        SearchOptions { max_rdb_length: max, compute_instance: false, ..Default::default() };
    time("search (pruned)", reps, || engine.search("xml smith", &pruned_opts).unwrap().len());
    let witness_opts = SearchOptions { compute_instance: true, ..pruned_opts };
    time("search+witness (pruned)", reps, || {
        engine.search("xml smith", &witness_opts).unwrap().len()
    });
    let results = engine.search("xml smith", &pruned_opts).unwrap();
    time("witness pruned (results)", reps, || {
        let mut cache = close_loose_ks::core::WitnessCache::new();
        results
            .connections
            .iter()
            .filter(|r| {
                close_loose_ks::core::instance_closeness_with_cache(
                    &r.connection,
                    engine.data_graph(),
                    engine.er_schema(),
                    engine.mapping(),
                    4,
                    &mut cache,
                )
                .is_close()
            })
            .count()
    });

    // Post-enumeration stage breakdown, over the whole answer's
    // connections.
    let conns: Vec<_> = results.connections.iter().map(|r| r.connection.clone()).collect();
    let query = close_loose_ks::index::KeywordQuery::parse("xml smith");
    println!("connections: {}", conns.len());
    time("stage: connection_info", reps, || {
        conns
            .iter()
            .map(|c| engine.connection_info(c, &query, false, 4).er_length)
            .sum::<usize>()
    });
    let markers = engine.markers(&query, &["xml".into(), "smith".into()]);
    time("stage: render", reps, || {
        conns
            .iter()
            .map(|c| c.render(engine.data_graph(), engine.aliases(), &markers).len())
            .sum::<usize>()
    });
    time("stage: explain", reps, || {
        conns
            .iter()
            .map(|c| {
                close_loose_ks::core::explain_connection(
                    c,
                    engine.data_graph(),
                    engine.er_schema(),
                    engine.mapping(),
                    engine.aliases(),
                    &markers,
                )
                .len()
            })
            .sum::<usize>()
    });
}
