//! Instance-level looseness *degree* (§4 of the paper).
//!
//! The paper's closing proposal: "A more precise approach could be
//! achieved by analyzing the actual number of participating entities
//! (tuples) in a database instance." This module implements that
//! analysis. For a connection with conceptual steps `s1 … sn`, the
//! **participation fan-out** is the number of distinct end tuples
//! reachable from the start tuple by following the same conceptual
//! relationship sequence (same relationships, same directions) across
//! the instance. A fan-out of 1 means the association is functional *on
//! this instance* even if the schema allows more; large fan-outs
//! quantify how diluted the association is.
//!
//! Example (Figure 2): connection 6, `p2 – d2 – e2`, follows
//! `CONTROLS⁻¹ · WORKS_FOR⁻¹`. From p2 the department d2 fans out to
//! employees {e2, e4}, so the fan-out is 2 — Barbara is one of several
//! employees merely co-located with p2, which is why the paper calls
//! the association loose. Connection 1 (`d1 – e1`) fans out to d1's two
//! employees as well, but its chain is immediate, so schema closeness
//! already applies; the degree is most useful for comparing *loose*
//! connections with equal N:M counts.

use crate::connection::Connection;
use crate::datagraph::DataGraph;
use cla_er::{ErSchema, FkRole, RelationshipId, SchemaMapping};
use cla_graph::NodeId;
use std::collections::HashSet;

/// One conceptual move: a relationship crossed in a fixed direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RelationshipMove {
    /// The relationship crossed.
    relationship: RelationshipId,
    /// `true` when crossed left→right.
    forward: bool,
}

/// The conceptual move sequence of a connection (middle hops collapse
/// into one N:M move, mirroring [`Connection::conceptual_steps`]).
fn move_sequence(
    conn: &Connection,
    dg: &DataGraph,
    schema: &ErSchema,
    mapping: &SchemaMapping,
) -> Vec<RelationshipMove> {
    conn.conceptual_steps(dg, schema, mapping)
        .iter()
        .map(|s| RelationshipMove { relationship: s.relationship, forward: s.forward })
        .collect()
}

/// All tuples reachable from `start` by one conceptual move.
fn step_targets(dg: &DataGraph, from: NodeId, mv: RelationshipMove) -> Vec<NodeId> {
    let csr = dg.csr();
    let mut out = Vec::new();
    for &(other, e) in csr.neighbors(from) {
        match dg.annotation(e).role {
            FkRole::Direct { relationship, owner_is_left } => {
                if relationship != mv.relationship {
                    continue;
                }
                // Crossing from `from` to `other`: along the FK when
                // `from` is the edge source.
                let along_fk = dg.graph().endpoints(e).0 == from;
                let forward = if along_fk { owner_is_left } else { !owner_is_left };
                if forward == mv.forward {
                    out.push(other);
                }
            }
            FkRole::Middle { relationship, to_left } => {
                if relationship != mv.relationship {
                    continue;
                }
                // `other` must be the middle tuple; continue through its
                // second foreign key to the far endpoint.
                if !dg.is_middle(other) {
                    continue;
                }
                // Which endpoint are we at? The edge points middle →
                // endpoint; `to_left` tells which side `from` is.
                let from_is_left = to_left;
                let forward = from_is_left; // left → right is forward
                if forward != mv.forward {
                    continue;
                }
                for &(far, e2) in csr.neighbors(other) {
                    if far == from {
                        continue;
                    }
                    if let FkRole::Middle { relationship: r2, to_left: far_left } =
                        dg.annotation(e2).role
                    {
                        if r2 == mv.relationship && far_left != from_is_left {
                            out.push(far);
                        }
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The set of tuples reachable from `start` by following `moves` in
/// order across the instance.
fn reachable_set(
    dg: &DataGraph,
    start: NodeId,
    moves: &[RelationshipMove],
) -> HashSet<NodeId> {
    let mut frontier: HashSet<NodeId> = [start].into();
    for &mv in moves {
        let mut next = HashSet::new();
        for &n in &frontier {
            next.extend(step_targets(dg, n, mv));
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

/// The participation fan-out of a connection: how many distinct end
/// tuples its start tuple reaches through the same conceptual moves.
/// Always ≥ 1 for a valid connection (the connection's own end is
/// reachable).
pub fn participation_fanout(
    conn: &Connection,
    dg: &DataGraph,
    schema: &ErSchema,
    mapping: &SchemaMapping,
) -> usize {
    let moves = move_sequence(conn, dg, schema, mapping);
    reachable_set(dg, conn.start(), &moves).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_datagen::{company, CompanyDb};
    use cla_graph::enumerate_simple_paths_undirected;

    fn setup() -> (CompanyDb, DataGraph) {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        (c, dg)
    }

    fn conn(c: &CompanyDb, dg: &DataGraph, aliases: &[&str]) -> Connection {
        let want: Vec<NodeId> =
            aliases.iter().map(|a| dg.node_of(c.tuple(a).unwrap()).unwrap()).collect();
        enumerate_simple_paths_undirected(dg.csr(), want[0], *want.last().unwrap(), 6, None)
            .iter()
            .map(|p| Connection::from_path(p, dg, &c.er_schema))
            .find(|cn| cn.nodes() == want.as_slice())
            .expect("path exists")
    }

    #[test]
    fn immediate_connection_fans_out_to_department_employees() {
        let (c, dg) = setup();
        // d1 – e1 follows WORKS_FOR⁻¹; d1 employs e1 and e3.
        let cn = conn(&c, &dg, &["d1", "e1"]);
        assert_eq!(participation_fanout(&cn, &dg, &c.er_schema, &c.mapping), 2);
        // In the reverse direction employee→department it is functional.
        assert_eq!(participation_fanout(&cn.reversed(), &dg, &c.er_schema, &c.mapping), 1);
    }

    #[test]
    fn nm_connection_follows_works_on_memberships() {
        let (c, dg) = setup();
        // p1 –(works_on⁻¹)– e1: only e1 works on p1.
        let cn = conn(&c, &dg, &["p1", "w_f1", "e1"]);
        assert_eq!(participation_fanout(&cn, &dg, &c.er_schema, &c.mapping), 1);
        // p3 has two workers (e2, e4).
        let cn = conn(&c, &dg, &["p3", "w_f2", "e2"]);
        assert_eq!(participation_fanout(&cn, &dg, &c.er_schema, &c.mapping), 2);
    }

    #[test]
    fn loose_sibling_connection_has_larger_fanout() {
        let (c, dg) = setup();
        // Connection 6: p2 – d2 – e2 reaches all employees of d2.
        let c6 = conn(&c, &dg, &["p2", "d2", "e2"]);
        let fan6 = participation_fanout(&c6, &dg, &c.er_schema, &c.mapping);
        assert_eq!(fan6, 2); // e2 and e4
                             // Connection 2 (the factual membership) reaches only e1.
        let c2 = conn(&c, &dg, &["p1", "w_f1", "e1"]);
        let fan2 = participation_fanout(&c2, &dg, &c.er_schema, &c.mapping);
        assert_eq!(fan2, 1);
        assert!(fan6 > fan2, "the loose association dilutes further");
    }

    #[test]
    fn connection_9_dilutes_across_the_chain() {
        let (c, dg) = setup();
        // d2 – p2 – w_f3 – e3 – t1: d2 controls {p2, p3}; their workers
        // are {e3} ∪ {e2, e4}; dependents of those: e3 → {t1, t2}.
        let c9 = conn(&c, &dg, &["d2", "p2", "w_f3", "e3", "t1"]);
        assert_eq!(participation_fanout(&c9, &dg, &c.er_schema, &c.mapping), 2);
    }

    #[test]
    fn end_tuple_is_always_reachable() {
        let (c, dg) = setup();
        for aliases in [
            &["d1", "e1"][..],
            &["p1", "w_f1", "e1"][..],
            &["p1", "d1", "e1"][..],
            &["d1", "p1", "w_f1", "e1"][..],
            &["d2", "p2", "w_f3", "e3", "t1"][..],
        ] {
            let cn = conn(&c, &dg, aliases);
            let moves = move_sequence(&cn, &dg, &c.er_schema, &c.mapping);
            let reach = reachable_set(&dg, cn.start(), &moves);
            assert!(
                reach.contains(&cn.end()),
                "{aliases:?}: end not reachable via its own move sequence"
            );
            assert!(participation_fanout(&cn, &dg, &c.er_schema, &c.mapping) >= 1);
        }
    }

    #[test]
    fn move_sequence_collapses_middles() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["d1", "p1", "w_f1", "e1"]);
        let moves = move_sequence(&cn, &dg, &c.er_schema, &c.mapping);
        assert_eq!(moves.len(), 2);
        let names: Vec<&str> = moves
            .iter()
            .map(|m| c.er_schema.relationship(m.relationship).unwrap().name.as_str())
            .collect();
        assert_eq!(names, vec!["CONTROLS", "WORKS_ON"]);
    }

    #[test]
    fn single_connection_has_fanout_one() {
        let (c, dg) = setup();
        let n = dg.node_of(c.tuple("d1").unwrap()).unwrap();
        let cn = Connection::single(n);
        assert_eq!(participation_fanout(&cn, &dg, &c.er_schema, &c.mapping), 1);
    }
}
