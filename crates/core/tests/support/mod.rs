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
use std::cmp::Ordering;

/// The paper's ranking orders (§3–4), field by field; `Less` means `a`
/// ranks better. Every length-bounded ranker is lexicographic over its
/// criteria and breaks ties toward the higher text score; close-first
/// reads closeness, then the transitive-N:M count, ER length and RDB
/// length, and instance-close-first lets instance corroboration lift a
/// schema-loose connection between the close and the loose ones.
/// `Combined` ranks by `structure_weight · penalty − text_score`, where
/// `penalty = er_length + 2·nm_count + 1.5·[loose]`. Floats compare by
/// `f64::total_cmp`. The engine's one definition is
/// `RankStrategy::sort_key`, which this shares no code with.
pub fn paper_order(ranker: RankStrategy, a: &ConnectionInfo, b: &ConnectionInfo) -> Ordering {
    let text = || b.text_score.total_cmp(&a.text_score);
    match ranker {
        RankStrategy::RdbLength => a.rdb_length.cmp(&b.rdb_length).then_with(text),
        RankStrategy::ErLength => a
            .er_length
            .cmp(&b.er_length)
            .then_with(|| a.rdb_length.cmp(&b.rdb_length))
            .then_with(text),
        RankStrategy::CloseFirst => a
            .closeness
            .cmp(&b.closeness)
            .then_with(|| a.nm_count.cmp(&b.nm_count))
            .then_with(|| a.er_length.cmp(&b.er_length))
            .then_with(|| a.rdb_length.cmp(&b.rdb_length))
            .then_with(text),
        RankStrategy::InstanceCloseFirst => {
            let eff = |i: &ConnectionInfo| match (i.closeness, i.instance_close) {
                (Closeness::Close, _) => 0u8,
                (Closeness::Loose, Some(true)) => 1,
                (Closeness::Loose, _) => 2,
            };
            eff(a)
                .cmp(&eff(b))
                .then_with(|| a.nm_count.cmp(&b.nm_count))
                .then_with(|| a.er_length.cmp(&b.er_length))
                .then_with(|| a.rdb_length.cmp(&b.rdb_length))
                .then_with(text)
        }
        RankStrategy::Combined { structure_weight } => {
            let score = |i: &ConnectionInfo| {
                let loose = if i.closeness == Closeness::Loose { 1.5 } else { 0.0 };
                let penalty = i.er_length as f64 + 2.0 * i.nm_count as f64 + loose;
                structure_weight * penalty - i.text_score
            };
            score(a).total_cmp(&score(b))
        }
    }
}

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
/// `ranker`'s order ([`paper_order`]) with ties broken by rendering,
/// then by tuple sequence. `display_keywords` are the query's keywords as the search
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
        paper_order(ranker, &a.1, &b.1).then_with(|| a.2.cmp(&b.2)).then_with(|| {
            a.0.nodes()
                .iter()
                .map(|&n| dg.tuple_of(n))
                .cmp(b.0.nodes().iter().map(|&n| dg.tuple_of(n)))
        })
    });
    ranked
}
