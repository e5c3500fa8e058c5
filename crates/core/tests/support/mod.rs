//! Reference implementations the property suite checks the engine
//! against. Each is the straightforward, unpruned version of a search
//! stage, built only on `cla_core`'s public API.

pub mod banks;
pub mod candidates;
pub mod discover;
pub mod pairs;

pub use pairs::{keyword_nodes, pair_connections_naive, pair_oracle};

use cla_core::{
    explain_connection, Connection, ConnectionInfo, DataGraph, InstanceCloseness,
    RankStrategy, SearchEngine,
};
use cla_er::{Closeness, ErSchema, SchemaMapping};
use cla_graph::enumerate_simple_paths_undirected;
use cla_index::KeywordQuery;

/// Instance closeness by exhaustive scan: enumerate **all** bounded
/// paths between the endpoints, sorted by `(length, edge ids)`, and
/// return the first close one.
pub fn instance_closeness_naive(
    conn: &Connection,
    dg: &DataGraph,
    schema: &ErSchema,
    mapping: &SchemaMapping,
    max_witness_rdb: usize,
) -> InstanceCloseness {
    if conn.closeness(dg, schema, mapping) == Closeness::Close {
        return InstanceCloseness::SchemaClose;
    }
    let paths = enumerate_simple_paths_undirected(
        dg.csr(),
        conn.start(),
        conn.end(),
        max_witness_rdb,
        None,
    );
    for p in &paths {
        let candidate = Connection::from_path(p, dg, schema);
        if candidate.closeness(dg, schema, mapping) == Closeness::Close {
            return InstanceCloseness::WitnessClose(candidate);
        }
    }
    InstanceCloseness::Loose
}

/// One connection of a ranked answer: the connection, its ranking info,
/// rendering and explanation.
pub type RankedView = (Connection, ConnectionInfo, String, String);

/// A whole answer ranked one connection at a time through the public
/// per-connection API: each connection's `connection_info`, its
/// rendering and explanation with the query's keyword markers, in
/// `ranker`'s order with ties broken by rendering, then by tuple
/// sequence. `display_keywords` are the query's keywords as the search
/// displays them.
pub fn rank_reference(
    engine: &SearchEngine,
    query: &KeywordQuery,
    display_keywords: &[String],
    connections: Vec<Connection>,
    ranker: RankStrategy,
    compute_instance: bool,
    max_witness_length: usize,
) -> Vec<RankedView> {
    let dg = engine.data_graph();
    let markers = engine.markers(query, display_keywords);
    let mut ranked: Vec<RankedView> = connections
        .into_iter()
        .map(|c| {
            let info =
                engine.connection_info(&c, query, compute_instance, max_witness_length);
            let rendering = c.render(dg, engine.aliases(), &markers);
            let explanation = explain_connection(
                &c,
                dg,
                engine.er_schema(),
                engine.mapping(),
                engine.aliases(),
                &markers,
            );
            (c, info, rendering, explanation)
        })
        .collect();
    ranked.sort_by(|a, b| {
        ranker.compare(&a.1, &b.1).then_with(|| a.2.cmp(&b.2)).then_with(|| {
            a.0.nodes()
                .iter()
                .map(|&n| dg.tuple_of(n))
                .cmp(b.0.nodes().iter().map(|&n| dg.tuple_of(n)))
        })
    });
    ranked
}
