//! Connections: joining paths of tuples, their RDB and conceptual (ER)
//! lengths, cardinality chains and the close/loose classification.
//!
//! This is the heart of the reproduction. Given a path in the
//! [`DataGraph`](crate::DataGraph), a [`Connection`] knows:
//!
//! * its **RDB length** — the number of foreign-key edges (Table 2's
//!   "length in RDB" column);
//! * its **conceptual steps** — middle-relation hops collapse into a
//!   single N:M step ("in conceptual approach middle relations should not
//!   be taken into account when calculating the length of a connection",
//!   §3), giving the **ER length** (Table 2's "length in ER");
//! * its **RDB cardinality chain** (Table 3's annotations, e.g.
//!   `p1(XML) 1:N w_f1 N:1 e1(Smith)`) and **ER cardinality chain**, from
//!   which the paper's close/loose classification follows (§2).
//!
//! A keyword match *inside* a middle tuple keeps that hop un-collapsed
//! (the middle tuple is then an endpoint carrying information of its
//! own); only interior middle tuples entered and left through their two
//! foreign keys collapse.

use crate::aliases::AliasLookup;
use crate::datagraph::DataGraph;
use cla_er::{
    rdb_edge_cardinality, Cardinality, CardinalityChain, ChainClass, Closeness, ErSchema,
    FkRole, RelationshipId, SchemaMapping,
};
use cla_graph::{EdgeId, NodeId, Path};
use cla_relational::TupleId;
use std::collections::HashMap;

/// One traversed foreign-key edge of a connection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnectionStep {
    /// The traversed edge.
    pub edge: EdgeId,
    /// Node the step leaves.
    pub from: NodeId,
    /// Node the step enters.
    pub to: NodeId,
    /// Conceptual role of the underlying foreign key.
    pub role: FkRole,
    /// `true` when traversed referencing→referenced (along the FK arrow).
    pub along_fk: bool,
    /// RDB-level cardinality oriented `from → to`.
    pub cardinality: Cardinality,
}

/// One conceptual (ER-level) step: either a direct relationship hop or a
/// collapsed middle-relation hop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConceptualStep {
    /// Entity-tuple node the step leaves.
    pub from: NodeId,
    /// Entity-tuple node the step enters.
    pub to: NodeId,
    /// The middle tuple collapsed inside this step, if any.
    pub via: Option<NodeId>,
    /// The conceptual relationship crossed.
    pub relationship: RelationshipId,
    /// `true` when crossed left→right in ER terms.
    pub forward: bool,
    /// ER-level cardinality oriented `from → to`.
    pub cardinality: Cardinality,
}

/// A connection: a simple path of tuples joined by foreign keys.
///
/// Each step's RDB cardinality is derived when the connection is built,
/// from the edge's [`FkRole`] and the ER schema
/// ([`rdb_edge_cardinality`]); no per-edge copy of it is kept anywhere.
#[derive(Debug, Clone, PartialEq)]
pub struct Connection {
    nodes: Vec<NodeId>,
    steps: Vec<ConnectionStep>,
}

impl Connection {
    /// Wrap a graph [`Path`] into a connection, computing per-step
    /// annotations.
    pub fn from_path(path: &Path, dg: &DataGraph, schema: &ErSchema) -> Self {
        Self::from_slices(&path.nodes, &path.edges, dg, schema)
    }

    /// [`Connection::from_path`] over borrowed node/edge slices — the
    /// search pipeline's enumeration visitor hands its scratch buffers
    /// straight in, skipping the intermediate [`Path`] allocation.
    pub(crate) fn from_slices(
        nodes: &[NodeId],
        edges: &[EdgeId],
        dg: &DataGraph,
        schema: &ErSchema,
    ) -> Self {
        debug_assert_eq!(nodes.len(), edges.len() + 1);
        let mut steps = Vec::with_capacity(edges.len());
        for (i, &edge) in edges.iter().enumerate() {
            let (from, to) = (nodes[i], nodes[i + 1]);
            let er = dg.graph().edge(edge);
            let along_fk = er.from == from;
            let role = er.payload.role;
            let owner_to_target = rdb_edge_cardinality(schema, role);
            let cardinality =
                if along_fk { owner_to_target } else { owner_to_target.reversed() };
            steps.push(ConnectionStep { edge, from, to, role, along_fk, cardinality });
        }
        Connection { nodes: nodes.to_vec(), steps }
    }

    /// The canonical enumeration order on connections — the same
    /// comparator as [`Path::canonical_cmp`] (edge count, then
    /// lexicographically by traversed edge ids), so connection-level
    /// sorting picks the same parallel-edge representatives as
    /// path-level sorting.
    pub fn canonical_cmp(&self, other: &Connection) -> std::cmp::Ordering {
        self.steps.len().cmp(&other.steps.len()).then_with(|| {
            self.steps.iter().map(|s| s.edge).cmp(other.steps.iter().map(|s| s.edge))
        })
    }

    /// A single-tuple connection (a tuple covering every keyword alone).
    pub fn single(node: NodeId) -> Self {
        Connection { nodes: vec![node], steps: Vec::new() }
    }

    /// Number of foreign-key edges: the paper's "length in RDB".
    pub fn rdb_length(&self) -> usize {
        self.steps.len()
    }

    /// Visited nodes in order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Traversed steps in order.
    pub fn steps(&self) -> &[ConnectionStep] {
        &self.steps
    }

    /// First node.
    pub fn start(&self) -> NodeId {
        self.nodes[0]
    }

    /// Last node.
    pub fn end(&self) -> NodeId {
        // lint: allow(unwrap, Connection is non-empty by construction)
        *self.nodes.last().expect("connections are non-empty")
    }

    /// The same connection traversed in the opposite direction.
    pub fn reversed(&self) -> Self {
        let nodes: Vec<NodeId> = self.nodes.iter().rev().copied().collect();
        let steps: Vec<ConnectionStep> = self
            .steps
            .iter()
            .rev()
            .map(|s| ConnectionStep {
                edge: s.edge,
                from: s.to,
                to: s.from,
                role: s.role,
                along_fk: !s.along_fk,
                cardinality: s.cardinality.reversed(),
            })
            .collect();
        Connection { nodes, steps }
    }

    /// The tuples of the connection, in path order.
    pub fn tuples(&self, dg: &DataGraph) -> Vec<TupleId> {
        self.nodes.iter().map(|&n| dg.tuple_of(n)).collect()
    }

    /// The RDB-level cardinality chain (Table 3's annotations).
    pub fn rdb_chain(&self) -> CardinalityChain {
        self.steps.iter().map(|s| s.cardinality).collect()
    }

    /// Collapse interior middle tuples into conceptual steps.
    pub fn conceptual_steps(
        &self,
        dg: &DataGraph,
        schema: &ErSchema,
        mapping: &SchemaMapping,
    ) -> Vec<ConceptualStep> {
        let mut out = Vec::with_capacity(self.steps.len());
        self.conceptual_steps_into(&mut out, dg, schema, mapping);
        out
    }

    /// [`Connection::conceptual_steps`] into a caller-owned buffer
    /// (cleared first), so the per-connection metric stage of a search
    /// reuses one allocation across the whole result set — and one
    /// conceptual pass feeds both the ER chain and the explanation.
    pub fn conceptual_steps_into(
        &self,
        out: &mut Vec<ConceptualStep>,
        dg: &DataGraph,
        schema: &ErSchema,
        mapping: &SchemaMapping,
    ) {
        out.clear();
        out.reserve(self.steps.len());
        let mut i = 0;
        while i < self.steps.len() {
            let s = &self.steps[i];
            // Candidate collapse: s enters an interior middle tuple that
            // the next step leaves, both implementing the same N:M
            // relationship.
            if i + 1 < self.steps.len() && dg.is_middle(s.to) {
                let t = &self.steps[i + 1];
                if let (
                    FkRole::Middle { relationship: ra, .. },
                    FkRole::Middle { relationship: rb, .. },
                ) = (s.role, t.role)
                {
                    if ra == rb && t.from == s.to {
                        // lint: allow(unwrap, FkRole::Middle only stores mapped relationship ids)
                        let rel = schema.relationship(ra).expect("mapped relationship");
                        let from_entity =
                            mapping.relation_entity(dg.tuple_of(s.from).relation);
                        let forward = from_entity == Some(rel.left);
                        let cardinality = if forward {
                            rel.cardinality
                        } else {
                            rel.cardinality.reversed()
                        };
                        out.push(ConceptualStep {
                            from: s.from,
                            to: t.to,
                            via: Some(s.to),
                            relationship: ra,
                            forward,
                            cardinality,
                        });
                        i += 2;
                        continue;
                    }
                }
            }
            // Raw step: a direct relationship hop, or a terminal middle
            // hop that must stay visible.
            let relationship = s.role.relationship();
            let forward = match s.role {
                FkRole::Direct { owner_is_left, .. } => {
                    if s.along_fk {
                        owner_is_left
                    } else {
                        !owner_is_left
                    }
                }
                // Half of an N:M relationship: orient by which endpoint
                // the entity side is. Leaving the left entity (or
                // arriving at the right one) counts as forward.
                FkRole::Middle { to_left, .. } => {
                    if s.along_fk {
                        !to_left
                    } else {
                        to_left
                    }
                }
            };
            out.push(ConceptualStep {
                from: s.from,
                to: s.to,
                via: None,
                relationship,
                forward,
                cardinality: s.cardinality,
            });
            i += 1;
        }
    }

    /// The paper's "length in ER": number of conceptual steps.
    pub fn er_length(
        &self,
        dg: &DataGraph,
        schema: &ErSchema,
        mapping: &SchemaMapping,
    ) -> usize {
        self.conceptual_steps(dg, schema, mapping).len()
    }

    /// The ER-level cardinality chain, oriented along the traversal.
    pub fn er_chain(
        &self,
        dg: &DataGraph,
        schema: &ErSchema,
        mapping: &SchemaMapping,
    ) -> CardinalityChain {
        self.conceptual_steps(dg, schema, mapping).iter().map(|s| s.cardinality).collect()
    }

    /// The paper's §2 classification of the ER chain.
    pub fn classify(
        &self,
        dg: &DataGraph,
        schema: &ErSchema,
        mapping: &SchemaMapping,
    ) -> ChainClass {
        self.er_chain(dg, schema, mapping).classify()
    }

    /// The close/loose verdict at the schema level.
    pub fn closeness(
        &self,
        dg: &DataGraph,
        schema: &ErSchema,
        mapping: &SchemaMapping,
    ) -> Closeness {
        self.er_chain(dg, schema, mapping).closeness()
    }

    /// Render in the paper's Table 2 notation:
    /// `d1(XML) – e1(Smith)`. `aliases` maps tuples to display names,
    /// `markers` maps nodes to the keyword annotations shown in
    /// parentheses.
    pub fn render(
        &self,
        dg: &DataGraph,
        aliases: &impl AliasLookup,
        markers: &HashMap<NodeId, Vec<String>>,
    ) -> String {
        self.render_cached(dg, aliases, markers, &mut vec![None; dg.node_count()])
    }

    /// [`Connection::render`] with node labels memoized across calls in
    /// a node-indexed cache (`cache.len() == dg.node_count()`) — result
    /// sets label the same matched tuples in many connections, so the
    /// engine shares one cache per search and every repeat label is a
    /// direct slot read.
    pub fn render_cached(
        &self,
        dg: &DataGraph,
        aliases: &impl AliasLookup,
        markers: &HashMap<NodeId, Vec<String>>,
        cache: &mut [Option<String>],
    ) -> String {
        let mut out = String::with_capacity(self.nodes.len() * 16 + 16);
        for (i, &n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push_str(" – ");
            }
            let label =
                cache[n.index()].get_or_insert_with(|| render_node(n, dg, aliases, markers));
            out.push_str(label);
        }
        out
    }

    /// Render with RDB-level cardinalities interleaved, the paper's
    /// Table 3 notation: `p1(XML) 1:N w_f1 N:1 e1(Smith)`.
    pub fn render_with_cardinalities(
        &self,
        dg: &DataGraph,
        aliases: &impl AliasLookup,
        markers: &HashMap<NodeId, Vec<String>>,
    ) -> String {
        let mut out = render_node(self.nodes[0], dg, aliases, markers);
        for s in &self.steps {
            out.push_str(&format!(" {} ", s.cardinality));
            out.push_str(&render_node(s.to, dg, aliases, markers));
        }
        out
    }
}

fn render_node(
    n: NodeId,
    dg: &DataGraph,
    aliases: &impl AliasLookup,
    markers: &HashMap<NodeId, Vec<String>>,
) -> String {
    let t = dg.tuple_of(n);
    let alias = aliases.alias_of(t).map(str::to_owned).unwrap_or_else(|| t.to_string());
    match markers.get(&n) {
        Some(kws) if !kws.is_empty() => format!("{alias}({})", kws.join(", ")),
        _ => alias,
    }
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

    /// Build the connection following the given aliases in order.
    fn conn(c: &CompanyDb, dg: &DataGraph, aliases: &[&str]) -> Connection {
        let want: Vec<NodeId> =
            aliases.iter().map(|a| dg.node_of(c.tuple(a).unwrap()).unwrap()).collect();
        let from = want[0];
        let to = *want.last().unwrap();
        let paths = enumerate_simple_paths_undirected(dg.graph(), from, to, 6, None);
        paths
            .iter()
            .map(|p| Connection::from_path(p, dg, &c.er_schema))
            .find(|cn| cn.nodes() == want.as_slice())
            .unwrap_or_else(|| panic!("no path visiting exactly {aliases:?}"))
    }

    /// Table 2: RDB and ER lengths of connections 1–9.
    #[test]
    fn table2_lengths() {
        let (c, dg) = setup();
        let cases: &[(&[&str], usize, usize)] = &[
            (&["d1", "e1"], 1, 1),
            (&["p1", "w_f1", "e1"], 2, 1),
            (&["p1", "d1", "e1"], 2, 2),
            (&["d1", "p1", "w_f1", "e1"], 3, 2),
            (&["d2", "e2"], 1, 1),
            (&["p2", "d2", "e2"], 2, 2),
            (&["d2", "p3", "w_f2", "e2"], 3, 2),
            (&["d1", "e3", "t1"], 2, 2),
            (&["d2", "p2", "w_f3", "e3", "t1"], 4, 3),
        ];
        for (aliases, rdb, er) in cases {
            let cn = conn(&c, &dg, aliases);
            assert_eq!(cn.rdb_length(), *rdb, "RDB length of {aliases:?}");
            assert_eq!(
                cn.er_length(&dg, &c.er_schema, &c.mapping),
                *er,
                "ER length of {aliases:?}"
            );
        }
    }

    /// Table 3: RDB-level cardinality chains of connections 1–9.
    #[test]
    fn table3_rdb_chains() {
        let (c, dg) = setup();
        let cases: &[(&[&str], &str)] = &[
            (&["d1", "e1"], "1:N"),
            (&["p1", "w_f1", "e1"], "1:N N:1"),
            (&["p1", "d1", "e1"], "N:1 1:N"),
            (&["d1", "p1", "w_f1", "e1"], "1:N 1:N N:1"),
            (&["d2", "e2"], "1:N"),
            (&["p2", "d2", "e2"], "N:1 1:N"),
            (&["d2", "p3", "w_f2", "e2"], "1:N 1:N N:1"),
            (&["d1", "e3", "t1"], "1:N 1:N"),
            (&["d2", "p2", "w_f3", "e3", "t1"], "1:N 1:N N:1 1:N"),
        ];
        for (aliases, chain) in cases {
            let cn = conn(&c, &dg, aliases);
            assert_eq!(cn.rdb_chain().to_string(), *chain, "chain of {aliases:?}");
        }
    }

    /// Close/loose classification of the connections (§2–3).
    #[test]
    fn closeness_classification() {
        let (c, dg) = setup();
        let close: &[&[&str]] =
            &[&["d1", "e1"], &["p1", "w_f1", "e1"], &["d2", "e2"], &["d1", "e3", "t1"]];
        let loose: &[&[&str]] = &[
            &["p1", "d1", "e1"],
            &["d1", "p1", "w_f1", "e1"],
            &["p2", "d2", "e2"],
            &["d2", "p3", "w_f2", "e2"],
            &["d2", "p2", "w_f3", "e3", "t1"],
        ];
        for aliases in close {
            let cn = conn(&c, &dg, aliases);
            assert_eq!(
                cn.closeness(&dg, &c.er_schema, &c.mapping),
                Closeness::Close,
                "{aliases:?}"
            );
        }
        for aliases in loose {
            let cn = conn(&c, &dg, aliases);
            assert_eq!(
                cn.closeness(&dg, &c.er_schema, &c.mapping),
                Closeness::Loose,
                "{aliases:?}"
            );
        }
    }

    /// Connections 3 and 6 are transitive N:M (one N:M segment);
    /// connections 4 and 7 are loose without any segment.
    #[test]
    fn nm_segment_counts_drive_ranking() {
        let (c, dg) = setup();
        let seg1: &[&[&str]] = &[&["p1", "d1", "e1"], &["p2", "d2", "e2"]];
        let seg0: &[&[&str]] = &[&["d1", "p1", "w_f1", "e1"], &["d2", "p3", "w_f2", "e2"]];
        for aliases in seg1 {
            let cn = conn(&c, &dg, aliases);
            let chain = cn.er_chain(&dg, &c.er_schema, &c.mapping);
            assert_eq!(chain.transitive_nm_count(), 1, "{aliases:?}");
            assert_eq!(chain.classify(), ChainClass::TransitiveNM);
        }
        for aliases in seg0 {
            let cn = conn(&c, &dg, aliases);
            let chain = cn.er_chain(&dg, &c.er_schema, &c.mapping);
            assert_eq!(chain.transitive_nm_count(), 0, "{aliases:?}");
            assert_eq!(chain.classify(), ChainClass::TransitiveMixed);
        }
    }

    #[test]
    fn collapsed_step_records_via_and_relationship() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["p1", "w_f1", "e1"]);
        let steps = cn.conceptual_steps(&dg, &c.er_schema, &c.mapping);
        assert_eq!(steps.len(), 1);
        let s = steps[0];
        assert_eq!(s.via, Some(dg.node_of(c.tuple("w_f1").unwrap()).unwrap()));
        let rel = c.er_schema.relationship(s.relationship).unwrap();
        assert_eq!(rel.name, "WORKS_ON");
        assert_eq!(s.cardinality, Cardinality::MANY_TO_MANY);
        // Traversed project→employee: WORKS_ON is EMPLOYEE (left) to
        // PROJECT (right), so this traversal is backward.
        assert!(!s.forward);
    }

    #[test]
    fn terminal_middle_tuple_stays_visible() {
        let (c, dg) = setup();
        // Path ending AT the middle tuple w_f1.
        let cn = conn(&c, &dg, &["p1", "w_f1"]);
        let steps = cn.conceptual_steps(&dg, &c.er_schema, &c.mapping);
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].via, None);
        assert_eq!(cn.er_length(&dg, &c.er_schema, &c.mapping), 1);
        assert_eq!(cn.rdb_chain().to_string(), "1:N");
    }

    #[test]
    fn reversal_flips_chains_consistently() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["d2", "p3", "w_f2", "e2"]);
        let rev = cn.reversed();
        assert_eq!(rev.start(), cn.end());
        assert_eq!(rev.end(), cn.start());
        assert_eq!(rev.rdb_chain(), cn.rdb_chain().reversed());
        assert_eq!(
            rev.er_chain(&dg, &c.er_schema, &c.mapping),
            cn.er_chain(&dg, &c.er_schema, &c.mapping).reversed()
        );
        assert_eq!(
            rev.closeness(&dg, &c.er_schema, &c.mapping),
            cn.closeness(&dg, &c.er_schema, &c.mapping)
        );
    }

    #[test]
    fn render_matches_paper_notation() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["p1", "w_f1", "e1"]);
        let mut markers = HashMap::new();
        markers.insert(cn.start(), vec!["XML".to_owned()]);
        markers.insert(cn.end(), vec!["Smith".to_owned()]);
        assert_eq!(cn.render(&dg, &c.aliases, &markers), "p1(XML) – w_f1 – e1(Smith)");
        assert_eq!(
            cn.render_with_cardinalities(&dg, &c.aliases, &markers),
            "p1(XML) 1:N w_f1 N:1 e1(Smith)"
        );
    }

    #[test]
    fn single_connection_is_trivially_close() {
        let (c, dg) = setup();
        let n = dg.node_of(c.tuple("d1").unwrap()).unwrap();
        let cn = Connection::single(n);
        assert_eq!(cn.rdb_length(), 0);
        assert_eq!(cn.er_length(&dg, &c.er_schema, &c.mapping), 0);
        assert_eq!(cn.closeness(&dg, &c.er_schema, &c.mapping), Closeness::Close);
        assert_eq!(cn.start(), cn.end());
    }
}
