//! Reference implementations the property suite checks the engine
//! against. Each is the straightforward, unpruned version of a search
//! stage, built only on `cla_core`'s public API.

pub mod banks;
pub mod candidates;
pub mod discover;

use cla_core::{Connection, DataGraph, InstanceCloseness};
use cla_er::{Closeness, ErSchema, SchemaMapping};
use cla_graph::{enumerate_simple_paths_undirected, NodeId};

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

/// Every simple-path connection between two keyword match sets, by one
/// unpruned DFS per (source, target) pair, in source, target, then
/// canonical path order.
pub fn pair_connections_naive(
    dg: &DataGraph,
    schema: &ErSchema,
    set_a: &[NodeId],
    set_b: &[NodeId],
    max_rdb: usize,
) -> Vec<Connection> {
    let mut out = Vec::new();
    for &a in set_a {
        for &b in set_b {
            if a == b {
                continue;
            }
            for p in enumerate_simple_paths_undirected(dg.csr(), a, b, max_rdb, None) {
                out.push(Connection::from_path(&p, dg, schema));
            }
        }
    }
    out
}
