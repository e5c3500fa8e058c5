//! Natural-language readings of connections (§3 of the paper).
//!
//! The paper reads its example connections as sentences:
//!
//! 1. "employee e1(Smith) works for department d1(XML)"
//! 2. "employee e1(Smith) works on a project p1(XML)"
//! 3. "employee e1(Smith) works for department d1(XML), that controls
//!    project p1(XML)"
//! 4. "employee e1(Smith) works on project p1(XML), that is controlled
//!    by department d1(XML)"
//!
//! [`explain_connection`] reproduces this style: the connection is
//! oriented so that as many conceptual steps as possible read in their
//! relationship's left→right (active-verb) direction, then rendered as a
//! main clause followed by ", that …" continuations. Forward steps use
//! the relationship's `verb`, backward steps its `reverse_verb`.

use crate::aliases::AliasLookup;
use crate::connection::{write_label, ConceptualStep, Connection, MarkerLookup, NodeLabels};
use crate::datagraph::DataGraph;
use cla_er::{ErSchema, SchemaMapping};
use cla_graph::NodeId;
use std::collections::HashMap;

/// Append node `n` as `entity-type alias(markers)`, e.g.
/// `department d1(XML)`.
fn write_description(
    out: &mut String,
    n: NodeId,
    dg: &DataGraph,
    mapping: &SchemaMapping,
    schema: &ErSchema,
    aliases: &impl AliasLookup,
    markers: &impl MarkerLookup,
) {
    match mapping.relation_entity(dg.tuple_of(n).relation).and_then(|e| schema.entity(e)) {
        Some(entity) => out.push_str(&entity.name.to_lowercase()),
        None => out.push_str("record"),
    }
    out.push(' ');
    write_label(out, n, dg, aliases, markers);
}

/// Produce the paper-style sentence for a connection.
///
/// Single-tuple connections read as `department d1(XML)`. Middle tuples
/// are invisible (collapsed into their N:M step); terminal middle tuples
/// are described as `record <id>`. Costs what the connection's length
/// does: each node is described once, with no graph-sized cache.
pub fn explain_connection(
    conn: &Connection,
    dg: &DataGraph,
    schema: &ErSchema,
    mapping: &SchemaMapping,
    aliases: &impl AliasLookup,
    markers: &HashMap<NodeId, Vec<String>>,
) -> String {
    let mut steps = conn.conceptual_steps(dg, schema, mapping);
    explain_steps(conn, &mut steps, dg, schema, mapping, |out, n| {
        write_description(out, n, dg, mapping, schema, aliases, markers);
    })
}

/// [`explain_connection`] over an already-computed conceptual-steps
/// buffer (which it may reverse in place) with node descriptions
/// memoized in a per-search cache; the engine computes one conceptual
/// pass per connection that feeds both the ER chain and this, and shares
/// one description cache per search since every connection of a result
/// set describes nodes against the same markers.
#[allow(clippy::too_many_arguments)]
pub(crate) fn explain_connection_from_steps(
    conn: &Connection,
    steps: &mut [ConceptualStep],
    dg: &DataGraph,
    schema: &ErSchema,
    mapping: &SchemaMapping,
    aliases: &impl AliasLookup,
    markers: &impl MarkerLookup,
    cache: &mut NodeLabels,
) -> String {
    explain_steps(conn, steps, dg, schema, mapping, |out, n| {
        out.push_str(cache.get_or_insert_with(n, |desc| {
            write_description(desc, n, dg, mapping, schema, aliases, markers);
        }));
    })
}

/// The sentence over `conn`'s conceptual steps, each node's description
/// written by `describe`.
fn explain_steps(
    conn: &Connection,
    steps: &mut [ConceptualStep],
    dg: &DataGraph,
    schema: &ErSchema,
    mapping: &SchemaMapping,
    mut describe: impl FnMut(&mut String, NodeId),
) -> String {
    if conn.rdb_length() == 0 {
        let mut out = String::new();
        describe(&mut out, conn.start());
        return out;
    }
    // Orient for the most active-verb readings; ties go to the
    // orientation that reads "specific → general" (first step not a
    // 1:N fan-out), which reproduces the paper's employee-first style.
    // Both orientations' votes derive from ONE conceptual-steps pass:
    // reversing a connection flips each step's direction and walks them
    // back to front.
    let votes = |steps: &[ConceptualStep], reversed: bool| {
        let forward = steps.iter().filter(|s| s.forward != reversed).count();
        let boundary = if reversed { steps.last() } else { steps.first() };
        let narrative_start = boundary.is_some_and(|s| {
            let card = if reversed { s.cardinality.reversed() } else { s.cardinality };
            card != cla_er::Cardinality::ONE_TO_MANY
        });
        (forward, usize::from(narrative_start))
    };
    if votes(steps, true) > votes(steps, false) {
        steps.reverse();
        for s in steps.iter_mut() {
            // Collapsed N:M steps orient by which endpoint is the
            // relationship's left entity — recompute rather than negate,
            // so self-referential relationships (left == right) keep
            // reading forward in both directions, exactly like
            // `Connection::reversed().conceptual_steps(..)`.
            let forward = if s.via.is_some() {
                // lint: allow(unwrap, steps only reference relationship ids from the mapping)
                let rel = schema.relationship(s.relationship).expect("mapped relationship");
                mapping.relation_entity(dg.tuple_of(s.to).relation) == Some(rel.left)
            } else {
                !s.forward
            };
            *s = ConceptualStep {
                from: s.to,
                to: s.from,
                via: s.via,
                relationship: s.relationship,
                forward,
                cardinality: s.cardinality.reversed(),
            };
        }
    }
    let mut out = String::with_capacity(32 * (steps.len() + 1));
    for (i, step) in steps.iter().enumerate() {
        // lint: allow(unwrap, steps only reference relationship ids from the mapping)
        let rel = schema.relationship(step.relationship).expect("mapped relationship");
        let verb = if step.forward { &rel.verb } else { &rel.reverse_verb };
        if i == 0 {
            describe(&mut out, step.from);
            out.push(' ');
            out.push_str(verb);
            out.push(' ');
        } else {
            out.push_str(", that ");
            out.push_str(verb);
            out.push(' ');
        }
        describe(&mut out, step.to);
    }
    out
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

    fn markers(
        c: &CompanyDb,
        dg: &DataGraph,
        pairs: &[(&str, &str)],
    ) -> HashMap<NodeId, Vec<String>> {
        pairs
            .iter()
            .map(|(alias, kw)| {
                (dg.node_of(c.tuple(alias).unwrap()).unwrap(), vec![(*kw).to_owned()])
            })
            .collect()
    }

    /// The paper's reading 1.
    #[test]
    fn reading_1() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["d1", "e1"]);
        let m = markers(&c, &dg, &[("d1", "XML"), ("e1", "Smith")]);
        assert_eq!(
            explain_connection(&cn, &dg, &c.er_schema, &c.mapping, &c.aliases, &m),
            "employee e1(Smith) works for department d1(XML)"
        );
    }

    /// The paper's reading 2 (without the article).
    #[test]
    fn reading_2() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["p1", "w_f1", "e1"]);
        let m = markers(&c, &dg, &[("p1", "XML"), ("e1", "Smith")]);
        assert_eq!(
            explain_connection(&cn, &dg, &c.er_schema, &c.mapping, &c.aliases, &m),
            "employee e1(Smith) works on project p1(XML)"
        );
    }

    /// The paper's reading 3.
    #[test]
    fn reading_3() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["p1", "d1", "e1"]);
        let m = markers(&c, &dg, &[("p1", "XML"), ("d1", "XML"), ("e1", "Smith")]);
        assert_eq!(
            explain_connection(&cn, &dg, &c.er_schema, &c.mapping, &c.aliases, &m),
            "employee e1(Smith) works for department d1(XML), that controls project p1(XML)"
        );
    }

    /// The paper's reading 4.
    #[test]
    fn reading_4() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["d1", "p1", "w_f1", "e1"]);
        let m = markers(&c, &dg, &[("p1", "XML"), ("d1", "XML"), ("e1", "Smith")]);
        assert_eq!(
            explain_connection(&cn, &dg, &c.er_schema, &c.mapping, &c.aliases, &m),
            "employee e1(Smith) works on project p1(XML), that is controlled by department d1(XML)"
        );
    }

    #[test]
    fn dependent_connection_reads_naturally() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["d1", "e3", "t1"]);
        let m = markers(&c, &dg, &[("t1", "Alice")]);
        let s = explain_connection(&cn, &dg, &c.er_schema, &c.mapping, &c.aliases, &m);
        // Both orientations have one forward step; the tie goes to the
        // dependent-first reading (its first step is not a 1:N fan-out).
        assert_eq!(
            s,
            "dependent t1(Alice) is dependent of employee e3, that works for department d1"
        );
    }

    #[test]
    fn single_tuple_reads_as_description() {
        let (c, dg) = setup();
        let n = dg.node_of(c.tuple("d1").unwrap()).unwrap();
        let cn = Connection::single(n);
        let mut m = HashMap::new();
        m.insert(n, vec!["XML".to_owned(), "teaching".to_owned()]);
        assert_eq!(
            explain_connection(&cn, &dg, &c.er_schema, &c.mapping, &c.aliases, &m),
            "department d1(XML, teaching)"
        );
    }
}
