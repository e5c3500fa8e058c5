//! The tuple-level data graph.
//!
//! Nodes are tuples, edges are resolved foreign-key references (directed
//! from the *referencing* tuple to the *referenced* tuple), each carrying
//! its conceptual [`FkRole`] from the [`SchemaMapping`]. Middle-relation
//! tuples are flagged so connections can collapse them when computing
//! conceptual lengths (§3 of the paper).

use crate::error::CoreError;
use cla_er::{FkRole, RelationshipId, SchemaMapping};
use cla_graph::{CsrAdjacency, EdgeId, Graph, NodeId};
use cla_relational::{ChangeSet, Database, RelationId, TupleId, TupleRemap};
use cla_storage::{ByteReader, ByteWriter, SharedBytes, StorageError};
use std::collections::{HashMap, HashSet};

/// Edge payload: which foreign key produced the edge, and its conceptual
/// role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeAnnotation {
    /// Index of the foreign key within the referencing relation.
    pub fk_index: usize,
    /// The conceptual role recorded by the ER→relational mapping.
    pub role: FkRole,
}

/// The data graph over a database instance.
#[derive(Debug, Clone)]
pub struct DataGraph {
    graph: Graph<TupleId, EdgeAnnotation>,
    /// Flat undirected adjacency: the arrays [`CsrAdjacency::build`]
    /// writes over `graph` (after an open, the arrays the image stored)
    /// — every traversal-heavy algorithm (path enumeration, BFS
    /// frontiers, BANKS expansion, MTJNT growth) walks this instead of
    /// the nested edge lists.
    csr: CsrAdjacency,
    /// Tuple → node lookup: owned hash map on built graphs, a borrowed
    /// image view straight after decode (promoted by the first patch).
    node_of: NodeIndex,
    middle: Vec<bool>,
}

/// The tuple→node lookup behind [`DataGraph::node_of`].
///
/// A freshly opened snapshot serves lookups by binary search over the
/// image's `NODE_MAP` section — 12-byte `(rel, row, node)` records
/// strictly sorted by `(rel, row)`, validated once at decode — and only
/// the first structural mutation pays for the owned hash map.
#[derive(Debug, Clone)]
enum NodeIndex {
    /// Owned map (post-build, post-promotion, post-compaction).
    Map(HashMap<TupleId, NodeId>),
    /// Borrowed view of the validated `NODE_MAP` records.
    Image(SharedBytes),
}

/// The `(rel, row)` key of image record `i`.
fn node_map_key(recs: &SharedBytes, i: usize) -> (u32, u32) {
    // lint: allow(unwrap, decode sized the record view to exactly n records)
    let rec = recs.record(i, 12).expect("node map index is in bounds");
    let rel = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
    let row = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
    (rel, row)
}

/// The node id of image record `i`.
fn node_map_node(recs: &SharedBytes, i: usize) -> NodeId {
    // lint: allow(unwrap, decode sized the record view to exactly n records)
    let rec = recs.record(i, 12).expect("node map index is in bounds");
    NodeId(u32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]))
}

impl NodeIndex {
    fn get(&self, t: TupleId) -> Option<NodeId> {
        match self {
            NodeIndex::Map(m) => m.get(&t).copied(),
            NodeIndex::Image(recs) => {
                let n = recs.len() / 12;
                let target = (t.relation.0, t.row);
                let (mut lo, mut hi) = (0usize, n);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if node_map_key(recs, mid) < target {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                (lo < n && node_map_key(recs, lo) == target).then(|| node_map_node(recs, lo))
            }
        }
    }

    fn contains(&self, t: TupleId) -> bool {
        self.get(t).is_some()
    }

    /// Materialize the owned map (no-op when already owned) — the
    /// promotion point for the first structural mutation.
    fn promote(&mut self) {
        if let NodeIndex::Image(recs) = self {
            let n = recs.len() / 12;
            let mut m = HashMap::with_capacity(n);
            for i in 0..n {
                let (rel, row) = node_map_key(recs, i);
                m.insert(TupleId::new(RelationId(rel), row), node_map_node(recs, i));
            }
            *self = NodeIndex::Map(m);
        }
    }

    fn insert(&mut self, t: TupleId, n: NodeId) {
        self.promote();
        if let NodeIndex::Map(m) = self {
            m.insert(t, n);
        }
    }

    fn remove(&mut self, t: &TupleId) {
        self.promote();
        if let NodeIndex::Map(m) = self {
            m.remove(t);
        }
    }

    fn is_image_backed(&self) -> bool {
        matches!(self, NodeIndex::Image(_))
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
        let mut node_of = HashMap::with_capacity(db.total_tuples());
        let mut middle = Vec::with_capacity(db.total_tuples());

        for (rel, _) in db.catalog().iter() {
            let is_middle = mapping.is_middle(rel);
            for (id, _) in db.tuples(rel) {
                let n = graph.add_node(id);
                node_of.insert(id, n);
                middle.push(is_middle);
            }
        }
        for (rel, schema) in db.catalog().iter() {
            for (id, _) in db.tuples(rel) {
                for (fk_index, target) in db.references_from(id) {
                    let role = mapping.fk_role(rel, fk_index).ok_or_else(|| {
                        CoreError::MissingFkRole { relation: schema.name.clone(), fk_index }
                    })?;
                    let from = node_of[&id];
                    let to = node_of[&target];
                    graph.add_edge(from, to, EdgeAnnotation { fk_index, role });
                }
            }
        }
        let csr = CsrAdjacency::build(&graph);
        Ok(DataGraph { graph, csr, node_of: NodeIndex::Map(node_of), middle })
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
            if !self.node_of.contains(target) && !batch_inserted.contains(&target) {
                return Err(CoreError::UnknownTuple(target.to_string()));
            }
            out.push((fk_index, target, role));
        }
        Ok(out)
    }

    /// Patch the graph in place with a batch of database mutations,
    /// instead of rebuilding node maps and adjacency from scratch.
    ///
    /// * **Deletes** detach the tuple's node: every incident edge is
    ///   removed, and the node is tombstoned. Incoming references
    ///   cannot exist at delete time — the database enforces restrict
    ///   semantics — so a deleted node's incident edges are exactly its
    ///   own resolved references plus references from tuples deleted or
    ///   re-pointed earlier in the same batch (already detached).
    /// * **Inserts** append a node slot and resolve the tuple's
    ///   references against `db` *at apply time* (the whole batch is
    ///   present by then, so references to tuples inserted later in the
    ///   batch resolve — the change-time snapshot in the log may lag).
    /// * **Updates** keep the tuple's node and **rewire only the
    ///   changed edges**: per foreign key, an edge whose target is
    ///   unchanged keeps its [`EdgeId`] (and its slot in edge-indexed
    ///   side tables) untouched; re-pointed, dropped and newly resolved
    ///   references remove/add exactly those edges. Updates of a tuple
    ///   the batch later deletes are subsumed by the delete.
    /// * Insert-then-delete spans within the batch cancel.
    ///
    /// The apply is **atomic**: every fallible lookup (dangling
    /// references, missing mapping roles, unknown tuples) happens in a
    /// mutation-free plan stage, so an error leaves the graph exactly as
    /// it was.
    ///
    /// A batch that changes anything ends with a fresh
    /// [`CsrAdjacency::build`] over the edited graph (`O(V + E)`), so
    /// the CSR is always the flat form of the graph.
    ///
    /// Returns the ids of the edges added, so callers maintaining
    /// edge-indexed side tables (the engine's cardinality table) can
    /// extend them.
    pub fn apply(
        &mut self,
        db: &Database,
        mapping: &SchemaMapping,
        changes: &ChangeSet,
    ) -> Result<Vec<EdgeId>, CoreError> {
        let patch = self.plan(db, mapping, changes)?;
        Ok(self.execute(&patch))
    }

    /// The fallible, mutation-free half of [`DataGraph::apply`]: net the
    /// batch, validate every lookup, and resolve each op's edges into a
    /// [`GraphPatch`] of tuple ids. An error leaves the graph exactly as
    /// it was (nothing was mutated).
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
        let mut ops: Vec<PlanOp> = Vec::with_capacity(net_ops.len());
        for op in &net_ops {
            let id = op.change().id;
            if op.is_update() {
                if batch_deleted.contains(&id) {
                    continue; // the later delete subsumes the rewiring
                }
                if !self.node_of.contains(id) && !batch_inserted.contains(&id) {
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
                if !self.node_of.contains(id) {
                    return Err(CoreError::UnknownTuple(id.to_string()));
                }
                ops.push(PlanOp::Delete { id });
            }
        }
        Ok(GraphPatch { ops })
    }

    /// The infallible execution half of [`DataGraph::apply`] — every
    /// lookup was pre-validated by [`DataGraph::plan`]. Returns the added
    /// edge ids for edge-indexed side tables.
    fn execute(&mut self, patch: &GraphPatch) -> Vec<EdgeId> {
        let plan = &patch.ops;
        if plan.is_empty() {
            return Vec::new();
        }
        // First mutation after a zero-copy open: promote the image-backed
        // tuple→node view to an owned map before any structural edit.
        self.node_of.promote();
        // Phase 1: create every inserted tuple's node before wiring any
        // edges, so an insert may reference a tuple inserted *later* in
        // the same batch (references are validated lazily — batches can
        // arrive in any relation order, like initial loads). Edge
        // wiring below then always finds its target node: an edge can
        // never point at a tuple deleted in the same batch (the delete
        // would have been restricted by the live referencer).
        for op in plan {
            if let PlanOp::Insert { id, middle, .. } = op {
                let n = self.graph.add_node(*id);
                self.node_of.insert(*id, n);
                self.middle.push(*middle);
            }
        }
        // Phase 2: detach deletes. Deletes commute with the wiring
        // phases below — a delete's incident edges are all pre-existing
        // (an insert- or update-added edge pointing at it would have
        // restricted the delete, and inserted nodes were net-cancelled),
        // so detaching first cannot drop an edge phase 3 or 4 is about
        // to add; it *does* detach old edges that phase 4 updates would
        // otherwise remove, which the per-fk diff there tolerates.
        for op in plan {
            if let PlanOp::Delete { id } = op {
                self.graph.remove_node(self.node_of_existing(*id));
                self.node_of.remove(id);
            }
        }
        // Phase 3: wire insert edges, in batch op order.
        let mut added_edges = Vec::new();
        for op in plan {
            let PlanOp::Insert { id, edges, .. } = op else {
                continue;
            };
            let n = self.node_of_existing(*id);
            for &(fk_index, target, role) in edges {
                let to = self.node_of_existing(target);
                let e = self.graph.add_edge(n, to, EdgeAnnotation { fk_index, role });
                added_edges.push(e);
            }
        }
        // Phase 4: rewire updates as per-fk diffs against the live
        // graph. The graph is final-state for everything but the
        // updates themselves by now, and an update's new side was
        // resolved against the final database — so an edge the diff
        // keeps is genuinely unchanged, and repeated updates of one
        // tuple converge (the first diff reaches the final wiring, the
        // rest are no-ops).
        for op in plan {
            let PlanOp::Update { id, edges } = op else {
                continue;
            };
            let n = self.node_of_existing(*id);
            let old: HashMap<usize, (EdgeId, NodeId)> =
                self.graph.out_edges(n).map(|e| (e.payload.fk_index, (e.id, e.to))).collect();
            for (&fk_index, &(e, to)) in &old {
                let kept = edges.iter().any(|&(fk, target, _)| {
                    fk == fk_index && self.node_of_existing(target) == to
                });
                if !kept {
                    self.graph.remove_edge(e);
                }
            }
            for &(fk_index, target, role) in edges {
                let to = self.node_of_existing(target);
                if old.get(&fk_index).is_some_and(|&(_, old_to)| old_to == to) {
                    continue; // unchanged edge keeps its id and slot
                }
                let e = self.graph.add_edge(n, to, EdgeAnnotation { fk_index, role });
                added_edges.push(e);
            }
        }
        self.csr = CsrAdjacency::build(&self.graph);
        added_edges
    }

    /// Reclaim every tombstoned node and edge slot left behind by
    /// deletes and update rewirings, renumbering ids densely: the
    /// underlying [`Graph::compact`] hands back the node/edge remap
    /// tables, node payloads are rewritten to the database's
    /// post-compaction [`TupleId`]s (via `remap`, from
    /// [`cla_relational::Database::compact`]), the tuple→node map and
    /// middle flags are rebuilt, and the CSR is rebuilt from the live
    /// set.
    ///
    /// Returns the edge remap so callers can renumber edge-indexed side
    /// tables (the engine's cardinality table). Afterwards
    /// [`DataGraph::node_count`] equals [`DataGraph::alive_node_count`]
    /// and the graph is structurally equivalent to a fresh
    /// [`DataGraph::build`] over the compacted database.
    pub fn compact(&mut self, remap: &TupleRemap) -> Vec<Option<EdgeId>> {
        let (node_remap, edge_remap) = self.graph.compact();
        let mut node_of = HashMap::with_capacity(self.graph.node_count());
        for i in 0..self.graph.node_count() {
            let n = NodeId(i as u32);
            let new_tuple = remap
                .map(*self.graph.node(n))
                // lint: allow(unwrap, compaction remaps every live tuple and graph nodes are live)
                .expect("a live node's tuple survives database compaction");
            *self.graph.node_mut(n) = new_tuple;
            node_of.insert(new_tuple, n);
        }
        self.node_of = NodeIndex::Map(node_of);
        let mut middle = vec![false; self.graph.node_count()];
        for (old, new) in node_remap.iter().enumerate() {
            if let Some(new) = new {
                middle[new.index()] = self.middle[old];
            }
        }
        self.middle = middle;
        self.csr = CsrAdjacency::build(&self.graph);
        edge_remap
    }

    /// Serialize the tuple→node map as the `NODE_MAP` snapshot section:
    /// record count, then 12-byte `(rel, row, node)` records strictly
    /// sorted by tuple id — one per **live** node. Decode validates the
    /// section against the graph and then binary-searches it in place
    /// instead of rebuilding a hash map.
    pub(crate) fn encode_node_map(&self) -> Vec<u8> {
        let mut recs: Vec<(TupleId, NodeId)> = self
            .graph
            .nodes()
            .filter(|&n| self.graph.is_node_alive(n))
            .map(|n| (*self.graph.node(n), n))
            .collect();
        recs.sort_by_key(|&(t, _)| t);
        let mut w = ByteWriter::new();
        w.len(recs.len());
        for (t, n) in recs {
            w.u32(t.relation.0);
            w.u32(t.row);
            w.u32(n.0);
        }
        w.into_vec()
    }

    /// Serialize the graph half of this data graph into one flat
    /// snapshot section: every node and edge **slot** (tombstones
    /// included, so [`TupleId`]-keyed state and [`EdgeId`]-indexed side
    /// tables survive a save/open round trip) plus the per-slot middle
    /// flags. The tuple→node map rides in its own
    /// [`DataGraph::encode_node_map`] section.
    pub(crate) fn encode_graph(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.len(self.graph.node_count());
        for n in self.graph.nodes() {
            let t = self.graph.node(n);
            w.u32(t.relation.0);
            w.u32(t.row);
            w.bool(self.graph.is_node_alive(n));
            w.bool(self.middle[n.index()]);
        }
        w.len(self.graph.edge_slots());
        for i in 0..self.graph.edge_slots() {
            let e = EdgeId(i as u32);
            let (from, to) = self.graph.endpoints(e);
            let ann = self.graph.edge(e).payload;
            w.u32(from.0);
            w.u32(to.0);
            w.bool(self.graph.is_edge_alive(e));
            w.len(ann.fk_index);
            match ann.role {
                FkRole::Direct { relationship, owner_is_left } => {
                    w.u8(0);
                    w.u32(relationship.0);
                    w.bool(owner_is_left);
                }
                FkRole::Middle { relationship, to_left } => {
                    w.u8(1);
                    w.u32(relationship.0);
                    w.bool(to_left);
                }
            }
        }
        w.into_vec()
    }

    /// Serialize the CSR into one flat snapshot section: the offset
    /// array and the flat neighbor array, as they are.
    pub(crate) fn encode_csr(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.len(self.csr.offsets().len());
        for &o in self.csr.offsets() {
            w.u32(o);
        }
        w.len(self.csr.neighbors_flat().len());
        for &(m, e) in self.csr.neighbors_flat() {
            w.u32(m.0);
            w.u32(e.0);
        }
        w.into_vec()
    }

    /// Rebuild a data graph from its [`DataGraph::encode_graph`],
    /// [`DataGraph::encode_csr`] and [`DataGraph::encode_node_map`]
    /// sections. Every payload is validated, never trusted: slot arrays
    /// must be mutually consistent ([`Graph::from_slots`]), the CSR must
    /// be a well-formed offset array over in-bounds **live** edges that
    /// agrees with the graph's slot counts, and the node map must be a
    /// strictly-sorted bijection onto the live nodes (see below). The
    /// accepted node-map records are then kept as a borrowed view and
    /// binary-searched per lookup — no hash map is built until the first
    /// mutation. Corrupt input is a typed error, never a panic.
    pub(crate) fn decode(
        graph_bytes: &[u8],
        csr_bytes: &[u8],
        node_map: SharedBytes,
    ) -> Result<Self, StorageError> {
        // Both slot arrays are fixed-stride records (nodes 10 bytes,
        // edges 19 — the two fk-role variants serialize identically
        // sized), so each is grabbed as one raw region and decoded with
        // `chunks_exact` instead of per-field cursor reads.
        let flag = |b: u8| match b {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(StorageError::Malformed(format!("bool byte {other}"))),
        };
        let mut r = ByteReader::new(graph_bytes);
        let n_nodes = r.len_of(10)?;
        let node_bytes = r.raw(n_nodes * 10)?;
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut node_alive = Vec::with_capacity(n_nodes);
        let mut middle = Vec::with_capacity(n_nodes);
        for c in node_bytes.chunks_exact(10) {
            let relation = RelationId(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
            let row = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            nodes.push(TupleId::new(relation, row));
            node_alive.push(flag(c[8])?);
            middle.push(flag(c[9])?);
        }
        let n_edges = r.len_of(16)?;
        let edge_bytes = r.raw(n_edges * 19)?;
        let mut edges = Vec::with_capacity(n_edges);
        let mut edge_alive = Vec::with_capacity(n_edges);
        for c in edge_bytes.chunks_exact(19) {
            let from = NodeId(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
            let to = NodeId(u32::from_le_bytes([c[4], c[5], c[6], c[7]]));
            edge_alive.push(flag(c[8])?);
            let fk_index = u32::from_le_bytes([c[9], c[10], c[11], c[12]]) as usize;
            let relationship =
                RelationshipId(u32::from_le_bytes([c[14], c[15], c[16], c[17]]));
            let role = match c[13] {
                0 => FkRole::Direct { relationship, owner_is_left: flag(c[18])? },
                1 => FkRole::Middle { relationship, to_left: flag(c[18])? },
                tag => {
                    return Err(StorageError::Malformed(format!("unknown fk role tag {tag}")))
                }
            };
            edges.push((from, to, EdgeAnnotation { fk_index, role }));
        }
        r.finish()?;

        let graph = Graph::from_slots(nodes, node_alive, edges, edge_alive.clone())
            .ok_or_else(|| {
                StorageError::Malformed("inconsistent graph slot arrays".into())
            })?;

        // NODE_MAP: strictly-sorted `(tuple → node)` records, one per
        // live node. Validation proves a bijection without building a
        // hash map: keys strictly ascend (hence are distinct), every
        // record's node is a live slot whose stored tuple equals the key
        // (so two records can never share a node), and the record count
        // equals the live-node count — together, every live node appears
        // exactly once and no tuple labels two live nodes.
        let mut r = ByteReader::new(node_map.as_slice());
        let n_map = r.len_of(12)?;
        if n_map != graph.alive_node_count() {
            return Err(StorageError::Malformed(format!(
                "node map has {n_map} records for {} live nodes",
                graph.alive_node_count()
            )));
        }
        let records_start = r.position();
        let map_bytes = r.raw(n_map * 12)?;
        let mut prev: Option<(u32, u32)> = None;
        for c in map_bytes.chunks_exact(12) {
            let key = (
                u32::from_le_bytes([c[0], c[1], c[2], c[3]]),
                u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            );
            if prev.is_some_and(|p| p >= key) {
                return Err(StorageError::Malformed(
                    "node map keys must be strictly sorted".into(),
                ));
            }
            prev = Some(key);
            let node = NodeId(u32::from_le_bytes([c[8], c[9], c[10], c[11]]));
            if node.index() >= n_nodes || !graph.is_node_alive(node) {
                return Err(StorageError::Malformed(format!(
                    "node map references dead or out-of-range node {node}"
                )));
            }
            if *graph.node(node) != TupleId::new(RelationId(key.0), key.1) {
                return Err(StorageError::Malformed(format!(
                    "node map key does not match node {node}'s tuple"
                )));
            }
        }
        let records_end = r.position();
        r.finish()?;
        let node_of = NodeIndex::Image(node_map.slice(records_start..records_end)?);

        let mut r = ByteReader::new(csr_bytes);
        let n_offsets = r.len_of(4)?;
        if n_offsets != n_nodes + 1 {
            return Err(StorageError::Malformed(format!(
                "CSR has {n_offsets} offsets for {n_nodes} node slots"
            )));
        }
        let off_bytes = r.raw(n_offsets * 4)?;
        let mut offsets = Vec::with_capacity(n_offsets);
        offsets.extend(
            off_bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        let n_flat = r.len_of(8)?;
        let flat_bytes = r.raw(n_flat * 8)?;
        let mut flat = Vec::with_capacity(n_flat);
        for c in flat_bytes.chunks_exact(8) {
            let m = NodeId(u32::from_le_bytes([c[0], c[1], c[2], c[3]]));
            let e = EdgeId(u32::from_le_bytes([c[4], c[5], c[6], c[7]]));
            if m.index() >= n_nodes {
                return Err(StorageError::Malformed(format!(
                    "CSR neighbor node {m:?} out of range"
                )));
            }
            if !edge_alive.get(e.index()).copied().unwrap_or(false) {
                return Err(StorageError::Malformed(format!(
                    "CSR references dead or out-of-range edge {e:?}"
                )));
            }
            flat.push((m, e));
        }
        r.finish()?;
        let csr = CsrAdjacency::from_parts(offsets, flat).ok_or_else(|| {
            StorageError::Malformed("CSR offset array is not monotone from zero".into())
        })?;
        check_csr_matches_graph(&csr, &graph)?;

        Ok(DataGraph { graph, csr, node_of, middle })
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
        self.node_of.get(t)
    }

    /// Node of a tuple the patch pre-validated (plan stage guarantees
    /// presence).
    fn node_of_existing(&self, t: TupleId) -> NodeId {
        // lint: allow(unwrap, plan pre-validated every tuple the patch references)
        self.node_of.get(t).expect("patch references only planned tuples")
    }

    /// `true` while the tuple→node lookup still serves from the
    /// snapshot image (no patch has promoted it to an owned map).
    pub fn node_map_is_image_backed(&self) -> bool {
        self.node_of.is_image_backed()
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

/// Check that a decoded CSR is the graph's adjacency: every entry's
/// edge joins its node and its neighbour, and every live edge appears
/// exactly once at each endpoint (a self-loop once). Searches read only
/// the CSR, so an entry that disagrees with the graph would silently
/// change answers.
fn check_csr_matches_graph(
    csr: &CsrAdjacency,
    graph: &Graph<TupleId, EdgeAnnotation>,
) -> Result<(), StorageError> {
    // Per edge slot: bit 0 once seen at its `from` node, bit 1 once seen
    // at its `to` node.
    let mut seen = vec![0u8; graph.edge_slots()];
    for n in graph.nodes() {
        for &(m, e) in csr.neighbors(n) {
            let (from, to) = graph.endpoints(e);
            let side = if (from, to) == (n, m) {
                1
            } else if (from, to) == (m, n) {
                2
            } else {
                return Err(StorageError::Malformed(format!(
                    "CSR entry ({m:?}, {e:?}) of node {n:?} does not match its edge"
                )));
            };
            if seen[e.index()] & side != 0 {
                return Err(StorageError::Malformed(format!(
                    "CSR lists edge {e:?} twice at node {n:?}"
                )));
            }
            seen[e.index()] |= side;
        }
    }
    for e in graph.edges() {
        let want = if e.from == e.to { 1 } else { 3 };
        if seen[e.id.index()] != want {
            return Err(StorageError::Malformed(format!(
                "CSR misses edge {:?} at an endpoint",
                e.id
            )));
        }
    }
    Ok(())
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
        let neighbors: Vec<String> = dg
            .graph()
            .incident_edges(e1)
            .map(|e| c.alias(dg.tuple_of(e.other(e1))))
            .collect();
        assert!(neighbors.contains(&"d1".to_owned()));
        assert!(neighbors.contains(&"w_f1".to_owned()));
        assert_eq!(neighbors.len(), 2);
    }

    #[test]
    fn csr_mirrors_graph_adjacency() {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        assert_eq!(dg.csr().node_count(), dg.node_count());
        for n in dg.graph().nodes() {
            let expect: Vec<_> =
                dg.graph().incident_edges(n).map(|e| (e.other(n), e.id)).collect();
            assert_eq!(dg.csr().neighbors(n), expect.as_slice());
        }
    }

    #[test]
    fn encode_decode_round_trips_with_tombstones() {
        let c = company();
        let mut db = c.db.clone();
        let mut dg = DataGraph::build(&db, &c.mapping).unwrap();
        db.take_changes();
        // Leave tombstones behind.
        let dep = db.catalog().relation_id("DEPENDENT").unwrap();
        db.insert(dep, vec!["t9".into(), "e1".into(), "Zoe".into()]).unwrap();
        db.delete(c.tuple("t1").unwrap()).unwrap();
        let changes = db.take_changes();
        dg.apply(&db, &c.mapping, &changes).unwrap();
        assert!(dg.alive_node_count() < dg.node_count(), "test wants a tombstone");

        let graph_bytes = dg.encode_graph();
        let csr_bytes = dg.encode_csr();
        let nm_bytes = dg.encode_node_map();
        let decode = |g: &[u8], c: &[u8], m: &[u8]| {
            DataGraph::decode(g, c, SharedBytes::from_vec(m.to_vec()))
        };
        let back = decode(&graph_bytes, &csr_bytes, &nm_bytes).unwrap();
        assert!(back.node_map_is_image_backed(), "decode must not build the hash map");
        assert!(!dg.node_map_is_image_backed(), "built graphs own their map");

        assert_eq!(back.node_count(), dg.node_count());
        assert_eq!(back.alive_node_count(), dg.alive_node_count());
        assert_eq!(back.edge_count(), dg.edge_count());
        for n in dg.graph().nodes() {
            assert_eq!(back.graph().is_node_alive(n), dg.graph().is_node_alive(n));
            if dg.graph().is_node_alive(n) {
                assert_eq!(back.tuple_of(n), dg.tuple_of(n));
                assert_eq!(back.is_middle(n), dg.is_middle(n));
                assert_eq!(back.node_of(dg.tuple_of(n)), Some(n));
                assert_eq!(back.csr().neighbors(n), dg.csr().neighbors(n));
            }
        }
        for e in dg.graph().edges() {
            assert_eq!(back.annotation(e.id), dg.annotation(e.id));
        }
        // The decoded graph re-encodes byte-identically.
        assert_eq!(back.encode_csr(), csr_bytes);
        assert_eq!(back.encode_graph(), graph_bytes);
        // A decoded (image-backed) graph re-encodes its node map
        // byte-identically and promotes on its first patch.
        assert_eq!(back.encode_node_map(), nm_bytes);
        let mut promoted = back.clone();
        db.insert(dep, vec!["t12".into(), "e2".into(), "Ira".into()]).unwrap();
        let changes = db.take_changes();
        promoted.apply(&db, &c.mapping, &changes).unwrap();
        assert!(!promoted.node_map_is_image_backed(), "first patch promotes");
        let fresh = DataGraph::build(&db, &c.mapping).unwrap();
        assert_eq!(tuple_adjacency(&db, &promoted), tuple_adjacency(&db, &fresh));

        // Corrupt payloads are typed errors, never panics.
        for cut in 0..graph_bytes.len() {
            assert!(decode(&graph_bytes[..cut], &csr_bytes, &nm_bytes).is_err());
        }
        for cut in 0..csr_bytes.len() {
            assert!(decode(&graph_bytes, &csr_bytes[..cut], &nm_bytes).is_err());
        }
        for cut in 0..nm_bytes.len() {
            assert!(decode(&graph_bytes, &csr_bytes, &nm_bytes[..cut]).is_err());
        }
        // Node-map faults the truncation sweep cannot reach: swapped
        // (unsorted) records, a record pointing at the wrong node, and
        // a key that matches no live tuple.
        let mut swapped = nm_bytes.clone();
        for i in 0..12 {
            swapped.swap(4 + i, 16 + i);
        }
        assert!(decode(&graph_bytes, &csr_bytes, &swapped).is_err());
        let mut wrong_node = nm_bytes.clone();
        let node_off = 4 + 8; // first record's node field
        let old = u32::from_le_bytes(wrong_node[node_off..node_off + 4].try_into().unwrap());
        wrong_node[node_off..node_off + 4].copy_from_slice(&(old + 1).to_le_bytes());
        assert!(decode(&graph_bytes, &csr_bytes, &wrong_node).is_err());
        let mut wrong_key = nm_bytes.clone();
        wrong_key[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&graph_bytes, &csr_bytes, &wrong_key).is_err());
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
        let mut dg = DataGraph::build(&db, &c.mapping).unwrap();
        db.take_changes();

        let dep = db.catalog().relation_id("DEPENDENT").unwrap();
        let emp = db.catalog().relation_id("EMPLOYEE").unwrap();
        // New dependent referencing e1; delete the existing dependent t1.
        db.insert(dep, vec!["t9".into(), "e1".into(), "Zoe".into()]).unwrap();
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

        let changes = db.take_changes();
        dg.apply(&db, &c.mapping, &changes).unwrap();

        let fresh = DataGraph::build(&db, &c.mapping).unwrap();
        assert_eq!(tuple_adjacency(&db, &dg), tuple_adjacency(&db, &fresh));
        assert_eq!(dg.alive_node_count(), fresh.alive_node_count());
        assert_eq!(dg.edge_count(), fresh.edge_count());
        assert!(dg.node_of(t1).is_none());

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
        let mut dg = DataGraph::build(&db, &c.mapping).unwrap();
        db.take_changes();
        let nodes_before = dg.node_count();

        let dep = db.catalog().relation_id("DEPENDENT").unwrap();
        let t = db.insert(dep, vec!["tz".into(), "e1".into(), "Ghost".into()]).unwrap();
        db.delete(t).unwrap();
        let changes = db.take_changes();
        let added = dg.apply(&db, &c.mapping, &changes).unwrap();
        assert!(added.is_empty());
        assert_eq!(dg.node_count(), nodes_before, "cancelled pair adds no slots");
        let fresh = DataGraph::build(&db, &c.mapping).unwrap();
        assert_eq!(tuple_adjacency(&db, &dg), tuple_adjacency(&db, &fresh));
    }

    #[test]
    fn apply_reports_dangling_insert() {
        let c = company();
        let mut db = c.db.clone();
        let mut dg = DataGraph::build(&db, &c.mapping).unwrap();
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
