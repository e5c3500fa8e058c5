//! The tuple-level data graph.
//!
//! Nodes are tuples, edges are resolved foreign-key references (directed
//! from the *referencing* tuple to the *referenced* tuple), each carrying
//! its conceptual [`FkRole`] from the [`SchemaMapping`]. Middle-relation
//! tuples are flagged so connections can collapse them when computing
//! conceptual lengths (§3 of the paper). A tuple finds its node through
//! one array of row slots in tuple order, and a node its neighbors
//! through one CSR built from the live edge slots, in every state of
//! the graph: built, applied, compacted or opened. A node's position in
//! that array is its *rank*: ranks follow tuple order, whatever the node
//! ids are, and key the BANKS expansion's ties.

use crate::error::CoreError;
use cla_er::{FkRole, SchemaMapping};
use cla_graph::{CsrAdjacency, EdgeId, Graph, NodeId};
use cla_relational::{ChangeSet, Database, RelationId, TupleId, TupleRemap};
use cla_storage::{ByteReader, ByteWriter, StorageError};
use std::collections::HashSet;

/// Edge payload: which foreign key produced the edge, and its conceptual
/// role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeAnnotation {
    /// Index of the foreign key within the referencing relation.
    pub fk_index: usize,
    /// The conceptual role recorded by the ER→relational mapping.
    pub role: FkRole,
}

/// What the mapping says about one relation: whether it is a middle
/// relation, and per foreign key (by index) its role and the relation
/// it references. [`DataGraph::decode`] reads middle flags and edge
/// roles from these instead of from the image.
struct RelationRoles {
    middle: bool,
    fks: Vec<Option<(FkRole, RelationId)>>,
}

/// The data graph over a database instance.
///
/// Edge roles, middle flags, the CSR and the tuple→node index are
/// functions of the database and the [`SchemaMapping`]: a snapshot
/// image stores only the node and edge slots (each edge with its
/// foreign-key index), and opening the image derives the rest exactly
/// as [`DataGraph::build`] does.
///
/// The tuple→node index is one array of row slots in tuple order (each
/// relation's slots at an offset of its own), so a live node's *rank*,
/// its row slot's position there, follows tuple order on every graph,
/// though node ids follow insertion order once an apply inserted a
/// tuple into any relation but the last. BANKS breaks distance ties by
/// rank, and the array maps a rank back to its node.
#[derive(Debug, Clone)]
pub struct DataGraph {
    /// Node and edge slots; no adjacency.
    graph: Graph<TupleId, EdgeAnnotation>,
    /// The one adjacency: the arrays [`CsrAdjacency::build`] writes
    /// over `graph`'s live edge slots, after a build, an apply, a
    /// compaction or an open alike. Every traversal (path enumeration,
    /// BFS frontiers, BANKS expansion, MTJNT growth) walks it, and the
    /// next generation's apply reads it for a deleted node's edges and
    /// an updated tuple's old out-edges.
    csr: CsrAdjacency,
    /// Tuple → node lookup and node ranks. Filled by a build, an apply
    /// (laid out anew with the batch's inserted row slots), a compaction
    /// or an open alike.
    tuples: TupleNodes,
    middle: Vec<bool>,
}

/// The tuple→node entry of a row slot without a node.
const NO_NODE: u32 = u32::MAX;
/// While an open fills the tuple→node index: the entry of a live row
/// no node has claimed yet.
const UNCLAIMED: u32 = u32::MAX - 1;

/// The tuple→node index: one array of row slots in tuple order, each
/// holding its row's node id or [`NO_NODE`] (a tombstone, a row slot
/// past the last live row an open saw, or every row of a relation
/// without live rows there). Relation `r`'s row slots are
/// `nodes[offsets[r]..offsets[r + 1]]`, so row slot `t` sits at
/// `offsets[t.relation] + t.row`, its *rank*. Ranks ascend in tuple
/// order, and the array maps a rank back to its node.
#[derive(Debug, Clone, Default)]
pub(crate) struct TupleNodes {
    nodes: Vec<u32>,
    /// One entry per relation, then one past the end (while an open
    /// fills the index: one per relation begun so far).
    offsets: Vec<u32>,
}

impl TupleNodes {
    /// The position of row slot `t` in `nodes`, if the index has it.
    fn slot(&self, t: TupleId) -> Option<usize> {
        let rel = t.relation.index();
        let (&lo, &hi) = (self.offsets.get(rel)?, self.offsets.get(rel + 1)?);
        let at = lo as usize + t.row as usize;
        (at < hi as usize).then_some(at)
    }

    /// The node of row slot `t`, if it has one.
    fn node(&self, t: TupleId) -> Option<NodeId> {
        let n = self.nodes[self.slot(t)?];
        (n != NO_NODE).then_some(NodeId(n))
    }

    /// The node of a tuple a patch references (the plan stage validated
    /// its presence).
    fn existing(&self, t: TupleId) -> NodeId {
        // lint: allow(unwrap, plan pre-validated every tuple the patch references)
        self.node(t).expect("patch references only planned tuples")
    }

    /// Point row slot `t`, which the index has, at `node` ([`NO_NODE`]
    /// clears it).
    fn set(&mut self, t: TupleId, node: u32) {
        // lint: allow(unwrap, every caller laid out the slot first)
        let at = self.slot(t).expect("a laid-out row slot");
        self.nodes[at] = node;
    }

    /// Start a range at the array's end for every relation up to `rel`
    /// that has none, so `offsets[rel]` is the end; with `rel` the
    /// relation count, that closes the last range.
    fn offsets_to(&mut self, rel: usize) {
        while self.offsets.len() <= rel {
            self.offsets.push(self.nodes.len() as u32);
        }
    }

    /// Record live row `t`, of a relation with `slots` row slots, while
    /// an open walks the DATABASE section in tuple order: the
    /// relation's range is laid out at its first live row, sized from
    /// the validated slot count, after empty ranges for the relations
    /// without live rows before it, and the row is marked unclaimed for
    /// [`DataGraph::index_rows`]. A row out of tuple order is refused.
    pub(crate) fn mark_live_row(&mut self, t: TupleId, slots: usize) -> Result<(), String> {
        let rel = t.relation.index();
        if self.offsets.len() <= rel {
            self.offsets_to(rel);
            self.nodes.resize(self.nodes.len() + slots, NO_NODE);
        }
        if self.offsets.len() != rel + 1 || t.row as usize >= slots {
            return Err(format!("live row {t} is out of tuple order"));
        }
        self.nodes[self.offsets[rel] as usize + t.row as usize] = UNCLAIMED;
        Ok(())
    }

    /// An index of row slots without nodes, relation `r`'s range
    /// `rows[r]` slots long.
    fn with_rows(rows: &[usize]) -> TupleNodes {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut end = 0;
        for &len in rows {
            offsets.push(end as u32);
            end += len;
        }
        offsets.push(end as u32);
        TupleNodes { nodes: vec![NO_NODE; end], offsets }
    }

    /// This index with every relation's range at least `rows[r]` row
    /// slots long, ranges laid out anew in relation order.
    fn relaid(&self, rows: &[usize]) -> TupleNodes {
        let mut next = TupleNodes {
            nodes: Vec::with_capacity(self.nodes.len() + rows.len()),
            offsets: Vec::with_capacity(self.offsets.len()),
        };
        for (rel, window) in self.offsets.windows(2).enumerate() {
            let start = next.nodes.len();
            next.offsets.push(start as u32);
            next.nodes.extend_from_slice(&self.nodes[window[0] as usize..window[1] as usize]);
            let len = next.nodes.len().max(start + rows[rel]);
            next.nodes.resize(len, NO_NODE);
        }
        next.offsets.push(next.nodes.len() as u32);
        next
    }
}

/// One resolved, pre-validated graph mutation — the output of
/// [`DataGraph::plan`]. Everything fallible (FK target resolution,
/// mapping roles, tuple existence) happened at plan time, so executing
/// it cannot fail.
#[derive(Debug)]
enum PlanOp {
    Insert {
        id: TupleId,
        /// Captured at plan time so execution needs no mapping.
        middle: bool,
        edges: Vec<(usize, TupleId, FkRole)>,
    },
    Delete {
        id: TupleId,
    },
    Update {
        id: TupleId,
        edges: Vec<(usize, TupleId, FkRole)>,
    },
}

/// The resolved execution plan of one mutation batch against one graph
/// state: every lookup pre-validated, every edge target addressed by
/// [`TupleId`]. Produced by [`DataGraph::plan`] and consumed by
/// [`DataGraph::execute`].
#[derive(Debug)]
struct GraphPatch {
    ops: Vec<PlanOp>,
}

impl DataGraph {
    /// Build the graph from a database and its mapping provenance.
    ///
    /// Fails with [`CoreError::MissingFkRole`] if the catalog contains a
    /// foreign key the mapping does not know about (the engine requires
    /// catalogs produced by [`cla_er::map_to_relational`]).
    pub fn build(db: &Database, mapping: &SchemaMapping) -> Result<Self, CoreError> {
        let mut graph = Graph::with_capacity(db.total_tuples(), db.total_tuples());
        let rows: Vec<usize> = db
            .catalog()
            .iter()
            .map(|(rel, _)| db.tuples(rel).last().map_or(0, |(id, _)| id.row as usize + 1))
            .collect();
        let mut tuples = TupleNodes::with_rows(&rows);
        let mut middle = Vec::with_capacity(db.total_tuples());

        for (rel, _) in db.catalog().iter() {
            let is_middle = mapping.is_middle(rel);
            for (id, _) in db.tuples(rel) {
                let n = graph.add_node(id);
                tuples.set(id, n.0);
                middle.push(is_middle);
            }
        }
        for (rel, schema) in db.catalog().iter() {
            for (id, _) in db.tuples(rel) {
                for (fk_index, target) in db.references_from(id) {
                    let role = mapping.fk_role(rel, fk_index).ok_or_else(|| {
                        CoreError::MissingFkRole { relation: schema.name.clone(), fk_index }
                    })?;
                    let (Some(from), Some(to)) = (tuples.node(id), tuples.node(target))
                    else {
                        return Err(CoreError::UnknownTuple(target.to_string()));
                    };
                    graph.add_edge(from, to, EdgeAnnotation { fk_index, role });
                }
            }
        }
        let csr = CsrAdjacency::build(&graph);
        Ok(DataGraph { graph, csr, tuples, middle })
    }

    /// Resolve the out-edges tuple `id` must carry, reading `db`'s
    /// *final* batch state (plan stage — fallible, mutation-free). A
    /// target is acceptable when it already has a node or is inserted
    /// within the batch; a dangling reference is reported as the same
    /// [`cla_relational::RelationalError::ForeignKeyViolation`] a full
    /// rebuild's validation would raise.
    fn resolve_edges(
        &self,
        db: &Database,
        mapping: &SchemaMapping,
        id: TupleId,
        batch_inserted: &HashSet<TupleId>,
    ) -> Result<Vec<(usize, TupleId, FkRole)>, CoreError> {
        let rel = id.relation;
        let n_fks = db.catalog().relation(rel).map_or(0, |schema| schema.foreign_keys.len());
        let mut out = Vec::with_capacity(n_fks);
        for fk_index in 0..n_fks {
            let Some(target) = db.fk_target(id, fk_index)? else {
                continue; // NULL reference
            };
            let role =
                mapping.fk_role(rel, fk_index).ok_or_else(|| CoreError::MissingFkRole {
                    relation: db
                        .catalog()
                        .relation(rel)
                        .map(|s| s.name.clone())
                        .unwrap_or_else(|| rel.to_string()),
                    fk_index,
                })?;
            if self.node_of(target).is_none() && !batch_inserted.contains(&target) {
                return Err(CoreError::UnknownTuple(target.to_string()));
            }
            out.push((fk_index, target, role));
        }
        Ok(out)
    }

    /// The next generation: this graph with a batch of database
    /// mutations applied, derived from the current slots instead of
    /// rebuilding the tuple→node index and adjacency from scratch. The
    /// current CSR is read for the adjacency the batch needs and is
    /// never copied; the new one is built from the new slots.
    ///
    /// * **Deletes** detach the tuple's node: every live incident edge
    ///   is removed, and the node is tombstoned. Incoming references
    ///   cannot exist at delete time — the database enforces restrict
    ///   semantics — so a deleted node's incident edges are exactly its
    ///   own resolved references plus references from tuples deleted or
    ///   re-pointed in the same batch.
    /// * **Inserts** append a node slot and resolve the tuple's
    ///   references against `db` *at apply time* (the whole batch is
    ///   present by then, so references to tuples inserted later in the
    ///   batch resolve — the change-time snapshot in the log may lag).
    /// * **Updates** keep the tuple's node and **rewire only the
    ///   changed edges**: per foreign key, an edge whose target is
    ///   unchanged keeps its [`EdgeId`] (and its slot in edge-indexed
    ///   side tables) untouched; re-pointed, dropped and newly resolved
    ///   references remove/add exactly those edges.
    /// * Insert-then-delete spans within the batch cancel.
    ///
    /// Every op's edges are resolved against the batch's final
    /// database, so one update per tuple reaches its final wiring:
    /// repeated updates of a tuple collapse into the first, and updates
    /// of a tuple the batch inserts or deletes are subsumed by that
    /// insert or delete.
    ///
    /// The apply is **atomic**: every fallible lookup (dangling
    /// references, missing mapping roles, unknown tuples) happens in a
    /// mutation-free plan stage, so an error leaves nothing behind and
    /// `self` is never edited.
    pub fn apply(
        &self,
        db: &Database,
        mapping: &SchemaMapping,
        changes: &ChangeSet,
    ) -> Result<DataGraph, CoreError> {
        let patch = self.plan(db, mapping, changes)?;
        Ok(self.execute(&patch))
    }

    /// The fallible, mutation-free half of [`DataGraph::apply`]: net the
    /// batch, validate every lookup, and resolve each op's edges into a
    /// [`GraphPatch`] of tuple ids, at most one update per tuple.
    fn plan(
        &self,
        db: &Database,
        mapping: &SchemaMapping,
        changes: &ChangeSet,
    ) -> Result<GraphPatch, CoreError> {
        let net_ops = changes.net_ops();
        let mut batch_inserted: HashSet<TupleId> = HashSet::new();
        let mut batch_deleted: HashSet<TupleId> = HashSet::new();
        for op in &net_ops {
            if op.is_insert() {
                batch_inserted.insert(op.change().id);
            } else if !op.is_update() {
                batch_deleted.insert(op.change().id);
            }
        }
        let mut updated: HashSet<TupleId> = HashSet::new();
        let mut ops: Vec<PlanOp> = Vec::with_capacity(net_ops.len());
        for op in &net_ops {
            let id = op.change().id;
            if op.is_update() {
                if batch_deleted.contains(&id)
                    || batch_inserted.contains(&id)
                    || !updated.insert(id)
                {
                    continue; // wired by the delete, the insert or the first update
                }
                if self.node_of(id).is_none() {
                    return Err(CoreError::UnknownTuple(id.to_string()));
                }
                let edges = self.resolve_edges(db, mapping, id, &batch_inserted)?;
                ops.push(PlanOp::Update { id, edges });
            } else if op.is_insert() {
                let edges = self.resolve_edges(db, mapping, id, &batch_inserted)?;
                ops.push(PlanOp::Insert {
                    id,
                    middle: mapping.is_middle(id.relation),
                    edges,
                });
            } else {
                if self.node_of(id).is_none() {
                    return Err(CoreError::UnknownTuple(id.to_string()));
                }
                ops.push(PlanOp::Delete { id });
            }
        }
        Ok(GraphPatch { ops })
    }

    /// The infallible execution half of [`DataGraph::apply`] — every
    /// lookup was pre-validated by [`DataGraph::plan`]. Copies the slots,
    /// lays the tuple→node index out anew with the inserted rows' slots,
    /// edits the copies, and builds the CSR of the result.
    fn execute(&self, patch: &GraphPatch) -> DataGraph {
        let plan = &patch.ops;
        if plan.is_empty() {
            return self.clone();
        }
        let mut graph = self.graph.clone();
        let mut rows = vec![0; self.tuples.offsets.len().saturating_sub(1)];
        for op in plan {
            if let PlanOp::Insert { id, .. } = op {
                let rel = &mut rows[id.relation.index()];
                *rel = (*rel).max(id.row as usize + 1);
            }
        }
        let mut tuples = self.tuples.relaid(&rows);
        let mut middle = self.middle.clone();
        // Phase 1: create every inserted tuple's node before wiring any
        // edges, so an insert may reference a tuple inserted *later* in
        // the same batch (references are validated lazily — batches can
        // arrive in any relation order, like initial loads). Edge
        // wiring below then always finds its target node: an edge can
        // never point at a tuple deleted in the same batch (the delete
        // would have been restricted by the live referencer).
        for op in plan {
            if let PlanOp::Insert { id, middle: is_middle, .. } = op {
                let n = graph.add_node(*id);
                tuples.set(*id, n.0);
                middle.push(*is_middle);
            }
        }
        // Phase 2: detach deletes. Only nodes that existed before the
        // batch are deleted (inserted ones were net-cancelled), and no
        // edge added by this batch touches them, so the current CSR
        // lists every edge to detach; one a delete earlier in this
        // phase already tombstoned (two adjacent tuples deleted) is
        // skipped. Deletes commute with the wiring phases below: they
        // can detach an updated tuple's old edge, which phase 4 then no
        // longer finds.
        for op in plan {
            if let PlanOp::Delete { id } = op {
                graph.remove_node(tuples.existing(*id), &self.csr);
                tuples.set(*id, NO_NODE);
            }
        }
        // Phase 3: wire insert edges, in batch op order.
        for op in plan {
            let PlanOp::Insert { id, edges, .. } = op else {
                continue;
            };
            let n = tuples.existing(*id);
            for &(fk_index, target, role) in edges {
                let to = tuples.existing(target);
                graph.add_edge(n, to, EdgeAnnotation { fk_index, role });
            }
        }
        // Phase 4: rewire updates as per-fk diffs. An updated tuple
        // existed before the batch, has one update op, and no other op
        // adds its out-edges, so its old out-edges are the current
        // CSR's, less those phase 2 detached; the new side was resolved
        // against the final database, so an edge the diff keeps is
        // genuinely unchanged.
        for op in plan {
            let PlanOp::Update { id, edges } = op else {
                continue;
            };
            let n = tuples.existing(*id);
            let old: Vec<(usize, EdgeId, NodeId)> = self
                .csr
                .neighbors(n)
                .iter()
                .filter(|&&(_, e)| graph.is_edge_alive(e) && graph.endpoints(e).0 == n)
                .map(|&(to, e)| (graph.edge(e).payload.fk_index, e, to))
                .collect();
            for &(fk_index, e, to) in &old {
                let kept = edges
                    .iter()
                    .any(|&(fk, target, _)| fk == fk_index && tuples.existing(target) == to);
                if !kept {
                    graph.remove_edge(e);
                }
            }
            for &(fk_index, target, role) in edges {
                let to = tuples.existing(target);
                if old.iter().any(|&(fk, _, old_to)| fk == fk_index && old_to == to) {
                    continue; // unchanged edge keeps its id and slot
                }
                graph.add_edge(n, to, EdgeAnnotation { fk_index, role });
            }
        }
        let csr = CsrAdjacency::build(&graph);
        DataGraph { graph, csr, tuples, middle }
    }

    /// The compacted generation: every tombstoned node and edge slot
    /// left behind by deletes and update rewirings reclaimed, ids
    /// renumbered densely. The copied slots are compacted by
    /// [`Graph::compact`], which hands back the node remap table; node
    /// payloads are rewritten to the database's post-compaction
    /// [`TupleId`]s (via `remap`, from
    /// [`cla_relational::Database::compact`]), the tuple→node index and
    /// middle flags are rebuilt, and the CSR is built from the live set.
    ///
    /// Afterwards [`DataGraph::node_count`] equals
    /// [`DataGraph::alive_node_count`] and the graph is structurally
    /// equivalent to a fresh [`DataGraph::build`] over the compacted
    /// database.
    pub fn compact(&self, remap: &TupleRemap) -> DataGraph {
        let mut graph = self.graph.clone();
        let node_remap = graph.compact();
        let mut rows = vec![0; self.tuples.offsets.len().saturating_sub(1)];
        for i in 0..graph.node_count() {
            let n = NodeId(i as u32);
            let new_tuple = remap
                .map(*graph.node(n))
                // lint: allow(unwrap, compaction remaps every live tuple and graph nodes are live)
                .expect("a live node's tuple survives database compaction");
            *graph.node_mut(n) = new_tuple;
            let rel = &mut rows[new_tuple.relation.index()];
            *rel = (*rel).max(new_tuple.row as usize + 1);
        }
        let mut tuples = TupleNodes::with_rows(&rows);
        for n in graph.nodes() {
            tuples.set(*graph.node(n), n.0);
        }
        let mut middle = vec![false; graph.node_count()];
        for (old, new) in node_remap.iter().enumerate() {
            if let Some(new) = new {
                middle[new.index()] = self.middle[old];
            }
        }
        let csr = CsrAdjacency::build(&graph);
        DataGraph { graph, csr, tuples, middle }
    }

    /// Serialize the graph half of this data graph into one flat
    /// snapshot section: every node and edge **slot** (tombstones
    /// included, so [`TupleId`]-keyed state and [`EdgeId`]s survive a
    /// save/open round trip). A node record is its tuple and live flag
    /// (9 bytes); an edge record is its endpoints, live flag and
    /// foreign-key index (13 bytes). What the mapping decides (middle
    /// flags, edge roles), the CSR and the tuple→node index are not
    /// stored: an open derives them as [`DataGraph::build`] does.
    pub(crate) fn encode_graph(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.len(self.graph.node_count());
        for n in self.graph.nodes() {
            let t = self.graph.node(n);
            w.u32(t.relation.0);
            w.u32(t.row);
            w.bool(self.graph.is_node_alive(n));
        }
        w.len(self.graph.edge_slots());
        for i in 0..self.graph.edge_slots() {
            let e = EdgeId(i as u32);
            let (from, to) = self.graph.endpoints(e);
            w.u32(from.0);
            w.u32(to.0);
            w.bool(self.graph.is_edge_alive(e));
            w.len(self.graph.edge(e).payload.fk_index);
        }
        w.into_vec()
    }

    /// Rebuild a data graph from its [`DataGraph::encode_graph`]
    /// section, against the `mapping` of the image's own schema. Every
    /// payload is validated, never trusted: each node must name a
    /// relation of the mapping's catalog, each edge a foreign key of its
    /// source node's relation that references its target node's
    /// relation, and the slot arrays must be mutually consistent
    /// ([`Graph::from_slots`]). Middle flags and edge roles are read
    /// from the mapping and the CSR is built by [`CsrAdjacency::build`],
    /// as in [`DataGraph::build`]. The tuple→node index stays empty
    /// until [`DataGraph::index_rows`] fills it from the database's live
    /// rows. Corrupt input is a typed error, never a panic.
    pub(crate) fn decode(
        graph_bytes: &[u8],
        mapping: &SchemaMapping,
    ) -> Result<Self, StorageError> {
        // What the mapping says about each relation, indexed by relation
        // id and built once, so a slot resolves by indexing instead of a
        // hash lookup.
        let relations: Vec<RelationRoles> = mapping
            .catalog()
            .iter()
            .map(|(rel, schema)| RelationRoles {
                middle: mapping.is_middle(rel),
                fks: schema
                    .foreign_keys
                    .iter()
                    .enumerate()
                    .map(|(i, fk)| mapping.fk_role(rel, i).map(|role| (role, fk.target)))
                    .collect(),
            })
            .collect();
        // Both slot arrays are fixed-stride records (nodes 9 bytes,
        // edges 13), so each is grabbed as one raw region and decoded
        // with `chunks_exact` instead of per-field cursor reads.
        let flag = |b: u8| match b {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StorageError::Malformed(format!("bool byte {other}"))),
        };
        let mut r = ByteReader::new(graph_bytes);
        let n_nodes = r.len_of(9)?;
        let node_bytes = r.raw(n_nodes * 9)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut node_alive = Vec::with_capacity(n_nodes);
        let mut middle = Vec::with_capacity(n_nodes);
        for c in node_bytes.chunks_exact(9) {
            let relation = RelationId(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
            let row = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            let Some(roles) = relations.get(relation.index()) else {
                return Err(StorageError::Malformed(format!(
                    "node slot names unknown relation {relation}"
                )));
            };
            nodes.push(TupleId::new(relation, row));
            node_alive.push(flag(c[8])?);
            middle.push(roles.middle);
        }
        let n_edges = r.len_of(13)?;
        let edge_bytes = r.raw(n_edges * 13)?;
        let mut edges = Vec::with_capacity(n_edges);
        let mut edge_alive = Vec::with_capacity(n_edges);
        for c in edge_bytes.chunks_exact(13) {
            let from = NodeId(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
            let to = NodeId(u32::from_le_bytes([c[4], c[5], c[6], c[7]]));
            edge_alive.push(flag(c[8])?);
            let fk_index = u32::from_le_bytes([c[9], c[10], c[11], c[12]]) as usize;
            let (Some(source), Some(target)) =
                (nodes.get(from.index()), nodes.get(to.index()))
            else {
                return Err(StorageError::Malformed(format!(
                    "edge {from}→{to} has an endpoint out of range"
                )));
            };
            let fk = relations.get(source.relation.index()).and_then(|r| r.fks.get(fk_index));
            let role = match fk {
                Some(&Some((role, referenced))) if referenced == target.relation => role,
                _ => {
                    return Err(StorageError::Malformed(format!(
                        "edge {from}→{to}: relation {} has no foreign key {fk_index} to {}",
                        source.relation, target.relation
                    )))
                }
            };
            edges.push((from, to, EdgeAnnotation { fk_index, role }));
        }
        r.finish()?;

        let graph =
            Graph::from_slots(nodes, node_alive, edges, edge_alive).ok_or_else(|| {
                StorageError::Malformed("inconsistent graph slot arrays".into())
            })?;

        let csr = CsrAdjacency::build(&graph);
        Ok(DataGraph { graph, csr, tuples: TupleNodes::default(), middle })
    }

    /// Fill the tuple→node index of a graph [`DataGraph::decode`] built,
    /// from `rows`: the row slots of the image's DATABASE section, each
    /// live row marked by [`TupleNodes::mark_live_row`], over the
    /// catalog's `relations`. Every live node must claim a distinct live
    /// row, and there must be `live_rows` live nodes, so live nodes and
    /// live rows correspond one to one. The array was sized from the
    /// validated DATABASE section, so a hostile row id costs a failed
    /// lookup, never an allocation.
    pub(crate) fn index_rows(
        &mut self,
        mut rows: TupleNodes,
        relations: usize,
        live_rows: usize,
    ) -> Result<(), StorageError> {
        rows.offsets_to(relations);
        let live_nodes = self.graph.alive_node_count();
        if live_nodes != live_rows {
            return Err(StorageError::Malformed(format!(
                "graph has {live_nodes} live nodes for {live_rows} live tuples"
            )));
        }
        for n in self.graph.nodes().filter(|&n| self.graph.is_node_alive(n)) {
            let t = *self.graph.node(n);
            match rows.slot(t).map(|at| &mut rows.nodes[at]) {
                Some(slot) if *slot == UNCLAIMED => *slot = n.0,
                _ => {
                    return Err(StorageError::Malformed(format!(
                        "live node {n} names {t}, which is not an unclaimed live tuple"
                    )))
                }
            }
        }
        self.tuples = rows;
        Ok(())
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph<TupleId, EdgeAnnotation> {
        &self.graph
    }

    /// The flat undirected adjacency.
    pub fn csr(&self) -> &CsrAdjacency {
        &self.csr
    }

    /// Node for tuple `t`, if present.
    pub fn node_of(&self, t: TupleId) -> Option<NodeId> {
        self.tuples.node(t)
    }

    /// The rank of live node `n`: its tuple's position in the tuple→node
    /// index, which ascends in tuple order whatever the node ids are.
    #[inline]
    pub(crate) fn rank_of(&self, n: NodeId) -> u32 {
        let t = self.graph.node(n);
        self.tuples.offsets[t.relation.index()] + t.row
    }

    /// The node of rank `rank` (a rank [`DataGraph::rank_of`] gave).
    #[inline]
    pub(crate) fn node_at_rank(&self, rank: u32) -> NodeId {
        NodeId(self.tuples.nodes[rank as usize])
    }

    /// One past the largest rank.
    pub(crate) fn rank_count(&self) -> usize {
        self.tuples.nodes.len()
    }

    /// Tuple stored at node `n`.
    pub fn tuple_of(&self, n: NodeId) -> TupleId {
        *self.graph.node(n)
    }

    /// Whether node `n` is a middle-relation tuple.
    pub fn is_middle(&self, n: NodeId) -> bool {
        self.middle[n.index()]
    }

    /// The annotation of edge `e`.
    pub fn annotation(&self, e: EdgeId) -> EdgeAnnotation {
        *self.graph.edge(e).payload
    }

    /// Number of tuple-node **slots** (live nodes plus tombstones left by
    /// deletes) — the bound for node-indexed buffers. Equals the live
    /// count on a graph that was never patched;
    /// [`DataGraph::alive_node_count`] always counts live nodes.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of live tuple nodes.
    pub fn alive_node_count(&self) -> usize {
        self.graph.alive_node_count()
    }

    /// Number of live reference edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_datagen::company;

    #[test]
    fn company_graph_has_all_tuples_and_references() {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        assert_eq!(dg.node_count(), 16);
        // Edges: employees 4 (D_ID) + projects 3 (D_ID) + dependents 2
        // (ESSN) + works_for 4×2 = 17.
        assert_eq!(dg.edge_count(), 17);
    }

    #[test]
    fn middle_flags_only_works_for() {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        for n in dg.graph().nodes() {
            let t = dg.tuple_of(n);
            let rel_name = &c.db.catalog().relation(t.relation).unwrap().name;
            assert_eq!(dg.is_middle(n), rel_name == "WORKS_FOR", "{rel_name}");
        }
    }

    #[test]
    fn node_lookup_round_trips() {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        for t in c.db.all_tuple_ids() {
            let n = dg.node_of(t).unwrap();
            assert_eq!(dg.tuple_of(n), t);
        }
    }

    #[test]
    fn e1_connects_to_d1_w_f1() {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        let e1 = dg.node_of(c.tuple("e1").unwrap()).unwrap();
        let neighbors: Vec<String> =
            dg.csr().neighbors(e1).iter().map(|&(m, _)| c.alias(dg.tuple_of(m))).collect();
        assert!(neighbors.contains(&"d1".to_owned()));
        assert!(neighbors.contains(&"w_f1".to_owned()));
        assert_eq!(neighbors.len(), 2);
    }

    #[test]
    fn csr_mirrors_graph_adjacency() {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        assert_eq!(dg.csr().node_count(), dg.node_count());
        let g = dg.graph();
        for n in g.nodes() {
            // Out-edges by id, then in-edges other than self-loops by id.
            let out = g.edges().filter(|e| e.from == n).map(|e| (e.to, e.id));
            let into = g.edges().filter(|e| e.to == n && e.from != n).map(|e| (e.from, e.id));
            let expect: Vec<_> = out.chain(into).collect();
            assert_eq!(dg.csr().neighbors(n), expect.as_slice());
        }
    }

    #[test]
    fn encode_decode_round_trips_with_tombstones() {
        let c = company();
        let mut db = c.db.clone();
        let dg = DataGraph::build(&db, &c.mapping).unwrap();
        db.take_changes();
        // Leave tombstones behind.
        let dep = db.catalog().relation_id("DEPENDENT").unwrap();
        db.insert(dep, vec!["t9".into(), "e1".into(), "Zoe".into()]).unwrap();
        db.delete(c.tuple("t1").unwrap()).unwrap();
        let changes = db.take_changes();
        let dg = dg.apply(&db, &c.mapping, &changes).unwrap();
        assert!(dg.alive_node_count() < dg.node_count(), "test wants a tombstone");

        // Open's recipe: the node index comes from the database's live
        // rows, the rest from the graph section.
        let graph_bytes = dg.encode_graph();
        let db_bytes = db.encode_flat();
        let decode = |g: &[u8]| -> Result<DataGraph, StorageError> {
            let mut rows = TupleNodes::default();
            let summary = Database::validate_flat(db.catalog(), &db_bytes, |t, slots| {
                rows.mark_live_row(t, slots)
            })?;
            let mut back = DataGraph::decode(g, &c.mapping)?;
            back.index_rows(rows, db.catalog().len(), summary.live_rows)?;
            Ok(back)
        };
        let back = decode(&graph_bytes).unwrap();

        assert_eq!(back.node_count(), dg.node_count());
        assert_eq!(back.alive_node_count(), dg.alive_node_count());
        assert_eq!(back.edge_count(), dg.edge_count());
        for n in dg.graph().nodes() {
            assert_eq!(back.graph().is_node_alive(n), dg.graph().is_node_alive(n));
            if dg.graph().is_node_alive(n) {
                assert_eq!(back.tuple_of(n), dg.tuple_of(n));
                assert_eq!(back.is_middle(n), dg.is_middle(n));
                assert_eq!(back.csr().neighbors(n), dg.csr().neighbors(n));
            }
        }
        for e in dg.graph().edges() {
            assert_eq!(back.annotation(e.id), dg.annotation(e.id));
        }
        for t in db.all_tuple_ids() {
            assert!(back.node_of(t).is_some());
            assert_eq!(back.node_of(t), dg.node_of(t));
        }
        // Tombstoned, out-of-range rows and relations have no node.
        let t1 = c.tuple("t1").unwrap();
        let past_end = TupleId::new(dep, u32::MAX);
        let no_relation = TupleId::new(RelationId(99), 0);
        for t in [t1, past_end, no_relation] {
            assert_eq!(back.node_of(t), None, "{t}");
            assert_eq!(dg.node_of(t), None, "{t}");
        }
        // Corrupt payloads are typed errors, never panics.
        for cut in 0..graph_bytes.len() {
            assert!(decode(&graph_bytes[..cut]).is_err());
        }
        // The decoded graph re-encodes byte-identically, and patches
        // like a built one.
        assert_eq!(back.encode_graph(), graph_bytes);
        db.insert(dep, vec!["t12".into(), "e2".into(), "Ira".into()]).unwrap();
        let changes = db.take_changes();
        let patched = back.apply(&db, &c.mapping, &changes).unwrap();
        let fresh = DataGraph::build(&db, &c.mapping).unwrap();
        assert_eq!(tuple_adjacency(&db, &patched), tuple_adjacency(&db, &fresh));
    }

    /// Tuple-level adjacency view for rebuild-equivalence comparisons
    /// (node numbering differs between a patched and a rebuilt graph, so
    /// equivalence is stated on tuple ids and edge annotations).
    fn tuple_adjacency(
        db: &cla_relational::Database,
        dg: &DataGraph,
    ) -> Vec<(cla_relational::TupleId, Vec<(cla_relational::TupleId, usize)>)> {
        let mut out: Vec<_> = db
            .all_tuple_ids()
            .map(|t| {
                let n = dg.node_of(t).expect("live tuple has a node");
                let mut adj: Vec<_> = dg
                    .csr()
                    .neighbors(n)
                    .iter()
                    .map(|&(m, e)| (dg.tuple_of(m), dg.annotation(e).fk_index))
                    .collect();
                adj.sort();
                (t, adj)
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn apply_matches_rebuild_on_insert_and_delete() {
        let c = company();
        let mut db = c.db.clone();
        let parent = DataGraph::build(&db, &c.mapping).unwrap();
        db.take_changes();

        let dep = db.catalog().relation_id("DEPENDENT").unwrap();
        let emp = db.catalog().relation_id("EMPLOYEE").unwrap();
        let essn = |db: &Database, t: TupleId, essn: &str| {
            let mut values = db.tuple(t).unwrap().values().to_vec();
            values[1] = essn.into();
            values
        };
        // New dependent referencing e1; delete the existing dependent t1.
        let t9 = db.insert(dep, vec!["t9".into(), "e1".into(), "Zoe".into()]).unwrap();
        let t1 = c.tuple("t1").unwrap();
        db.delete(t1).unwrap();
        // Same-batch references in both orders: a dependent of an
        // employee inserted earlier in the batch…
        db.insert(emp, vec!["e9".into(), "New".into(), "Kid".into(), "d1".into()]).unwrap();
        db.insert(dep, vec!["t10".into(), "e9".into(), "Ada".into()]).unwrap();
        // …and a *forward* reference: a dependent inserted before the
        // employee it references (legal — references validate lazily, so
        // batches can arrive in any relation order like initial loads).
        db.insert(dep, vec!["t11".into(), "e10".into(), "Bo".into()]).unwrap();
        db.insert(emp, vec!["e10".into(), "Late".into(), "Arr".into(), "d1".into()]).unwrap();
        // The same-batch traps. An update of a dependent the batch
        // inserted: its insert already wires the final edge.
        db.update(t9, essn(&db, t9, "e2")).unwrap();
        // Two re-pointing updates of one dependent, away from an
        // employee the batch then deletes…
        let t2 = c.tuple("t2").unwrap();
        db.update(t2, essn(&db, t2, "e4")).unwrap();
        db.update(t2, essn(&db, t2, "e1")).unwrap();
        // …together with its last referencer, which shares an edge with
        // it and goes first (the shared edge is tombstoned once). t1 and
        // e3 are such a pair too.
        db.delete(c.tuple("w_f3").unwrap()).unwrap();
        db.delete(c.tuple("e3").unwrap()).unwrap();

        let changes = db.take_changes();
        let dg = parent.apply(&db, &c.mapping, &changes).unwrap();

        let fresh = DataGraph::build(&db, &c.mapping).unwrap();
        assert_eq!(tuple_adjacency(&db, &dg), tuple_adjacency(&db, &fresh));
        assert_eq!(dg.alive_node_count(), fresh.alive_node_count());
        assert_eq!(dg.edge_count(), fresh.edge_count());
        assert!(dg.node_of(t1).is_none());
        // One slot per inserted edge (five inserts) and one for t2's
        // re-point; updates that change nothing take none.
        assert_eq!(dg.graph().edge_slots(), parent.graph().edge_slots() + 6);

        // Order-sensitive check the sorted comparison above would mask:
        // e10 was *referenced* (by t11) before it was inserted, yet its
        // patched adjacency must still list its own out-edge (→ d1)
        // before the in-edge (← t11) — the rebuilt CSR's out-before-in
        // per-node layout.
        let e10 =
            db.lookup_pk(emp, &[cla_relational::Value::from("e10")]).expect("e10 inserted");
        let n_e10 = dg.node_of(e10).unwrap();
        let neighbor_tuples: Vec<String> = dg
            .csr()
            .neighbors(n_e10)
            .iter()
            .map(|&(m, _)| {
                let t = dg.tuple_of(m);
                db.catalog().relation(t.relation).unwrap().name.clone()
            })
            .collect();
        assert_eq!(
            neighbor_tuples,
            vec!["DEPARTMENT".to_owned(), "DEPENDENT".to_owned()],
            "out-edge (department) must precede the forward in-edge (dependent)"
        );
    }

    #[test]
    fn apply_cancels_insert_then_delete() {
        let c = company();
        let mut db = c.db.clone();
        let dg = DataGraph::build(&db, &c.mapping).unwrap();
        db.take_changes();
        let nodes_before = dg.node_count();
        let edge_slots_before = dg.graph().edge_slots();

        let dep = db.catalog().relation_id("DEPENDENT").unwrap();
        let t = db.insert(dep, vec!["tz".into(), "e1".into(), "Ghost".into()]).unwrap();
        db.delete(t).unwrap();
        let changes = db.take_changes();
        let dg = dg.apply(&db, &c.mapping, &changes).unwrap();
        assert_eq!(dg.node_count(), nodes_before, "cancelled pair adds no slots");
        assert_eq!(dg.graph().edge_slots(), edge_slots_before, "nor edge slots");
        let fresh = DataGraph::build(&db, &c.mapping).unwrap();
        assert_eq!(tuple_adjacency(&db, &dg), tuple_adjacency(&db, &fresh));
    }

    #[test]
    fn apply_reports_dangling_insert() {
        let c = company();
        let mut db = c.db.clone();
        let dg = DataGraph::build(&db, &c.mapping).unwrap();
        db.take_changes();
        let dep = db.catalog().relation_id("DEPENDENT").unwrap();
        db.insert(dep, vec!["tz".into(), "e-nonexistent".into(), "Ghost".into()]).unwrap();
        let changes = db.take_changes();
        let err = dg.apply(&db, &c.mapping, &changes).unwrap_err();
        assert!(matches!(err, CoreError::Relational(_)), "got {err:?}");
    }

    #[test]
    fn edge_annotations_carry_roles() {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        let mut direct = 0;
        let mut middle = 0;
        for e in dg.graph().edges() {
            match e.payload.role {
                FkRole::Direct { .. } => direct += 1,
                FkRole::Middle { .. } => middle += 1,
            }
        }
        assert_eq!(direct, 9); // 4 employees + 3 projects + 2 dependents
        assert_eq!(middle, 8); // 4 works_for rows × 2
    }
}
