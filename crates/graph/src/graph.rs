//! The directed multigraph container: node and edge slots with live
//! flags. Adjacency lives in [`CsrAdjacency`], built from the slots.

// lint: allow-file(unwrap, compaction remaps are total over live nodes/edges; the expects document those invariants)
use crate::csr::CsrAdjacency;
use std::fmt;

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Dense edge identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct EdgeRecord<E> {
    from: NodeId,
    to: NodeId,
    payload: E,
}

/// A borrowed view of one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef<'g, E> {
    /// The edge id.
    pub id: EdgeId,
    /// Source node (the *referencing* side for FK edges).
    pub from: NodeId,
    /// Target node (the *referenced* side for FK edges).
    pub to: NodeId,
    /// The edge payload.
    pub payload: &'g E,
}

/// A directed multigraph with typed payloads and stable dense ids:
/// pure slot storage, with no adjacency of its own.
///
/// Parallel edges and self-loops are permitted; the keyword-search data
/// graph uses parallel edges when two different foreign keys connect the
/// same pair of tuples.
///
/// Removal is by tombstone: [`Graph::remove_edge`] and
/// [`Graph::remove_node`] clear the element's live flag but keep its
/// slot (payload included), so ids stay stable and dense arrays indexed
/// by `id.index()` keep working. [`Graph::node_count`] and
/// [`Graph::edge_slots`] count **slots** (for buffer sizing);
/// [`Graph::edge_count`] and [`Graph::alive_node_count`] count live
/// elements. Slots are never reused: a new edge takes the largest id.
///
/// Traversals read a [`CsrAdjacency`] built from the live edge slots;
/// the whole structure is four flat `Vec`s and two counters, so
/// reassembling a graph from serialized slots costs a constant number
/// of allocations regardless of size.
#[derive(Debug, Clone)]
pub struct Graph<N, E> {
    nodes: Vec<N>,
    node_alive: Vec<bool>,
    edges: Vec<EdgeRecord<E>>,
    edge_alive: Vec<bool>,
    live_nodes: usize,
    live_edges: usize,
}

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Graph::with_capacity(0, 0)
    }
}

impl<N, E> Graph<N, E> {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// An empty graph with node capacity reserved.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            nodes: Vec::with_capacity(nodes),
            node_alive: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            edge_alive: Vec::with_capacity(edges),
            live_nodes: 0,
            live_edges: 0,
        }
    }

    /// Reassemble a graph from serialized slot arrays: every node and
    /// edge slot, tombstones included, so ids keep their lineage-stable
    /// numbering.
    ///
    /// Returns `None` if the arrays are inconsistent (length mismatch,
    /// an endpoint out of bounds, or a live edge touching a dead node)
    /// — serialized input is validated, never trusted.
    pub fn from_slots(
        nodes: Vec<N>,
        node_alive: Vec<bool>,
        edges: Vec<(NodeId, NodeId, E)>,
        edge_alive: Vec<bool>,
    ) -> Option<Self> {
        if node_alive.len() != nodes.len() || edge_alive.len() != edges.len() {
            return None;
        }
        let mut live_edges = 0;
        let mut records = Vec::with_capacity(edges.len());
        for (i, (from, to, payload)) in edges.into_iter().enumerate() {
            if from.index() >= nodes.len() || to.index() >= nodes.len() {
                return None;
            }
            if edge_alive[i] {
                if !node_alive[from.index()] || !node_alive[to.index()] {
                    return None;
                }
                live_edges += 1;
            }
            records.push(EdgeRecord { from, to, payload });
        }
        let live_nodes = node_alive.iter().filter(|&&a| a).count();
        Some(Graph { nodes, node_alive, edges: records, edge_alive, live_nodes, live_edges })
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(payload);
        self.node_alive.push(true);
        self.live_nodes += 1;
        id
    }

    /// Add a directed edge `from → to`, returning its id.
    ///
    /// Panics if either endpoint does not exist or was removed (a logic
    /// error: ids come from [`Graph::add_node`] of the same graph).
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, payload: E) -> EdgeId {
        assert!(from.index() < self.nodes.len(), "edge source {from} out of bounds");
        assert!(to.index() < self.nodes.len(), "edge target {to} out of bounds");
        assert!(self.node_alive[from.index()], "edge source {from} was removed");
        assert!(self.node_alive[to.index()], "edge target {to} was removed");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRecord { from, to, payload });
        self.edge_alive.push(true);
        self.live_edges += 1;
        id
    }

    /// Tombstone edge `e`. The record slot (endpoints and payload) stays
    /// readable through [`Graph::edge`]; the id is never reused.
    ///
    /// Panics if `e` is out of bounds or already removed.
    pub fn remove_edge(&mut self, e: EdgeId) {
        assert!(self.is_edge_alive(e), "edge {e} does not exist or was already removed");
        self.edge_alive[e.index()] = false;
        self.live_edges -= 1;
    }

    /// Remove node `n`: every live edge `adjacency` lists at `n` is
    /// removed first, then the node is tombstoned. The payload slot
    /// stays readable through [`Graph::node`]; the id is never reused
    /// and [`Graph::nodes`] keeps yielding it.
    ///
    /// `adjacency` may predate edits to this graph, so one CSR serves a
    /// whole batch of removals: it must list every live edge incident to
    /// `n`, which holds for a [`CsrAdjacency::build`] of this graph
    /// taken after `n` and every edge touching it were added. Edges
    /// removed since (by a neighbor's removal earlier in the batch, say)
    /// are skipped.
    ///
    /// Panics if `n` is out of bounds or already removed.
    pub fn remove_node(&mut self, n: NodeId, adjacency: &CsrAdjacency) {
        assert!(self.is_node_alive(n), "node {n} does not exist or was already removed");
        for &(_, e) in adjacency.neighbors(n) {
            if self.is_edge_alive(e) {
                self.remove_edge(e);
            }
        }
        self.node_alive[n.index()] = false;
        self.live_nodes -= 1;
    }

    /// `true` while node `n` exists and has not been removed.
    pub fn is_node_alive(&self, n: NodeId) -> bool {
        self.node_alive.get(n.index()).copied().unwrap_or(false)
    }

    /// `true` while edge `e` exists and has not been removed.
    pub fn is_edge_alive(&self, e: EdgeId) -> bool {
        self.edge_alive.get(e.index()).copied().unwrap_or(false)
    }

    /// Number of node **slots** (live and tombstoned) — the right bound
    /// for `Vec`s indexed by `NodeId::index()`. Equals the live count on
    /// a graph that never saw a removal.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes.
    pub fn alive_node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Number of edge **slots** (live and tombstoned) — the right bound
    /// for `Vec`s indexed by `EdgeId::index()`.
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// The payload of node `n`.
    pub fn node(&self, n: NodeId) -> &N {
        &self.nodes[n.index()]
    }

    /// Mutable payload of node `n`.
    pub fn node_mut(&mut self, n: NodeId) -> &mut N {
        &mut self.nodes[n.index()]
    }

    /// A borrowed view of edge `e`.
    pub fn edge(&self, e: EdgeId) -> EdgeRef<'_, E> {
        let rec = &self.edges[e.index()];
        EdgeRef { id: e, from: rec.from, to: rec.to, payload: &rec.payload }
    }

    /// `(from, to)` endpoints of edge `e`.
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let rec = &self.edges[e.index()];
        (rec.from, rec.to)
    }

    /// Iterate over all node id **slots**, tombstoned ones included
    /// (no live edge touches them, so traversals never reach them; use
    /// [`Graph::is_node_alive`] to filter when enumerating directly).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over all **live** edges as [`EdgeRef`]s, in id order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.edges.iter().zip(&self.edge_alive).enumerate().filter(|(_, (_, a))| **a).map(
            |(i, (rec, _))| EdgeRef {
                id: EdgeId(i as u32),
                from: rec.from,
                to: rec.to,
                payload: &rec.payload,
            },
        )
    }

    /// Reclaim every tombstoned node and edge slot, renumbering the
    /// survivors densely in slot order. Returns the node remap table
    /// (`remap[old.index()] = Some(new)` for survivors, `None` for
    /// reclaimed slots); surviving edges keep their relative order.
    ///
    /// This is the one operation that moves ids: all outstanding
    /// [`NodeId`]s/[`EdgeId`]s and any dense side arrays indexed by them
    /// (a [`CsrAdjacency`] included) must be remapped or rebuilt by the
    /// caller. Relative order is kept, so a CSR built afterwards lists
    /// each node's neighbors in the pre-compaction order, modulo
    /// renumbering. Afterwards [`Graph::node_count`] equals
    /// [`Graph::alive_node_count`] and [`Graph::edge_slots`] equals
    /// [`Graph::edge_count`]: zero tombstoned slots.
    pub fn compact(&mut self) -> Vec<Option<NodeId>> {
        let mut node_remap: Vec<Option<NodeId>> = Vec::with_capacity(self.nodes.len());
        let mut next = 0u32;
        for &alive in &self.node_alive {
            node_remap.push(alive.then(|| {
                next += 1;
                NodeId(next - 1)
            }));
        }

        let node_alive = std::mem::take(&mut self.node_alive);
        let mut i = 0usize;
        self.nodes.retain(|_| {
            i += 1;
            node_alive[i - 1]
        });
        let edge_alive = std::mem::take(&mut self.edge_alive);
        let mut i = 0usize;
        self.edges.retain(|_| {
            i += 1;
            edge_alive[i - 1]
        });
        for rec in &mut self.edges {
            rec.from = node_remap[rec.from.index()].expect("live edge endpoints are live");
            rec.to = node_remap[rec.to.index()].expect("live edge endpoints are live");
        }
        self.node_alive = vec![true; self.nodes.len()];
        self.edge_alive = vec![true; self.edges.len()];
        debug_assert_eq!(self.live_nodes, self.nodes.len());
        debug_assert_eq!(self.live_edges, self.edges.len());
        node_remap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (Graph<&'static str, u32>, Vec<NodeId>) {
        // a → b, a → c, b → d, c → d
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        (g, vec![a, b, c, d])
    }

    /// The live edge `from → to`.
    fn edge_between<N, E>(g: &Graph<N, E>, from: NodeId, to: NodeId) -> EdgeId {
        g.edges().find(|e| e.from == from && e.to == to).expect("edge exists").id
    }

    #[test]
    fn from_slots_round_trips_with_tombstones() {
        let (mut g, ns) = diamond();
        // Tombstone one edge and one node (with its other edge) so the
        // slot arrays are sparse.
        let csr = CsrAdjacency::build(&g);
        g.remove_edge(edge_between(&g, ns[0], ns[1]));
        g.remove_node(ns[1], &csr);

        let nodes: Vec<&'static str> =
            (0..g.node_count()).map(|i| *g.node(NodeId(i as u32))).collect();
        let node_alive: Vec<bool> = g.nodes().map(|n| g.is_node_alive(n)).collect();
        let edges: Vec<(NodeId, NodeId, u32)> = (0..g.edge_slots())
            .map(|i| {
                let e = g.edge(EdgeId(i as u32));
                (e.from, e.to, *e.payload)
            })
            .collect();
        let edge_alive: Vec<bool> =
            (0..g.edge_slots()).map(|i| g.is_edge_alive(EdgeId(i as u32))).collect();

        let back = Graph::from_slots(
            nodes.clone(),
            node_alive.clone(),
            edges.clone(),
            edge_alive.clone(),
        )
        .unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.alive_node_count(), g.alive_node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.edge_slots(), g.edge_slots());
        let live = |g: &Graph<&str, u32>| -> Vec<(EdgeId, NodeId, NodeId, u32)> {
            g.edges().map(|e| (e.id, e.from, e.to, *e.payload)).collect()
        };
        assert_eq!(live(&back), live(&g));
        let (csr, back_csr) = (CsrAdjacency::build(&g), CsrAdjacency::build(&back));
        for n in g.nodes() {
            assert_eq!(back.is_node_alive(n), g.is_node_alive(n));
            assert_eq!(back_csr.neighbors(n), csr.neighbors(n));
        }

        // Inconsistent inputs are rejected, not trusted.
        assert!(Graph::from_slots(
            nodes.clone(),
            vec![true],
            edges.clone(),
            edge_alive.clone()
        )
        .is_none());
        let mut oob = edges.clone();
        oob[0].0 = NodeId(99);
        assert!(Graph::from_slots(
            nodes.clone(),
            node_alive.clone(),
            oob,
            edge_alive.clone()
        )
        .is_none());
        // A live edge pointing at the tombstoned node is corrupt.
        let mut revived = edge_alive.clone();
        revived[0] = true; // edge 0 was a→b and b is dead
        assert!(Graph::from_slots(nodes, node_alive, edges, revived).is_none());
    }

    #[test]
    fn counts_and_payloads() {
        let (g, ns) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(*g.node(ns[0]), "a");
        assert_eq!(g.edges().map(|e| *e.payload).sum::<u32>(), 10);
    }

    #[test]
    fn adjacency_is_consistent() {
        let (g, ns) = diamond();
        let csr = CsrAdjacency::build(&g);
        let (a, b, _c, d) = (ns[0], ns[1], ns[2], ns[3]);
        // a only sends, d only receives, b does one of each.
        assert_eq!(csr.degree(a), 2);
        assert!(csr.neighbors(a).iter().all(|&(_, e)| g.endpoints(e).0 == a));
        assert_eq!(csr.degree(d), 2);
        assert!(csr.neighbors(d).iter().all(|&(_, e)| g.endpoints(e).1 == d));
        assert_eq!(csr.degree(b), 2);
        assert!(csr.neighbors(a).iter().any(|&(m, _)| m == b));
    }

    #[test]
    fn incident_edges_cover_both_directions() {
        let (g, ns) = diamond();
        let csr = CsrAdjacency::build(&g);
        let b = ns[1];
        let others: Vec<NodeId> = csr.neighbors(b).iter().map(|&(m, _)| m).collect();
        assert_eq!(others, vec![ns[3], ns[0]], "out-edge b→d, then in-edge a→b");
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g: Graph<(), u8> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, b, 1);
        g.add_edge(a, b, 2);
        g.add_edge(b, a, 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(CsrAdjacency::build(&g).degree(a), 3);
    }

    #[test]
    fn self_loop_counted_once_in_incident() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let e = g.add_edge(a, a, ());
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.neighbors(a), &[(a, e)]);
    }

    #[test]
    fn node_mut_updates_payload() {
        let mut g: Graph<u32, ()> = Graph::new();
        let a = g.add_node(1);
        *g.node_mut(a) += 10;
        assert_eq!(*g.node(a), 11);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edge_to_missing_node_panics() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(9), ());
    }

    #[test]
    fn with_capacity_starts_empty() {
        let g: Graph<(), ()> = Graph::with_capacity(16, 32);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn remove_edge_detaches_but_keeps_slot() {
        let (mut g, ns) = diamond();
        let (a, b) = (ns[0], ns[1]);
        let ab = edge_between(&g, a, b);
        g.remove_edge(ab);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_slots(), 4);
        assert!(!g.is_edge_alive(ab));
        let csr = CsrAdjacency::build(&g);
        assert!(csr.neighbors(a).iter().all(|&(_, e)| e != ab));
        assert!(csr.neighbors(b).iter().all(|&(_, e)| e != ab));
        assert!(g.edges().all(|e| e.id != ab));
        // The record slot stays readable (payload preserved).
        assert_eq!(*g.edge(ab).payload, 1);
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, ns) = diamond();
        let csr = CsrAdjacency::build(&g);
        let b = ns[1];
        g.remove_node(b, &csr);
        assert!(!g.is_node_alive(b));
        assert_eq!(g.alive_node_count(), 3);
        assert_eq!(g.node_count(), 4, "slots are kept");
        assert_eq!(g.edge_count(), 2, "a–b and b–d are gone");
        let after = CsrAdjacency::build(&g);
        assert_eq!(after.degree(b), 0);
        assert!(after.neighbors(ns[0]).iter().all(|&(m, _)| m != b));
        // The same, older CSR serves a neighbor's removal: b–d is
        // already gone and is skipped, c–d goes.
        g.remove_node(ns[3], &csr);
        assert_eq!(g.edges().map(|e| *e.payload).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn remove_node_with_self_loop() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, a, ());
        g.add_edge(a, b, ());
        g.remove_node(a, &CsrAdjacency::build(&g));
        assert_eq!(g.edge_count(), 0);
        assert_eq!(CsrAdjacency::build(&g).degree(b), 0);
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_edge_removal_panics() {
        let (mut g, _) = diamond();
        g.remove_edge(EdgeId(0));
        g.remove_edge(EdgeId(0));
    }

    #[test]
    #[should_panic(expected = "was removed")]
    fn edge_to_removed_node_panics() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.remove_node(b, &CsrAdjacency::build(&g));
        g.add_edge(a, b, ());
    }

    /// Each live node's payload and its neighbors' payloads, in CSR order.
    fn adjacency_by_payload(
        g: &Graph<&'static str, u32>,
    ) -> Vec<(&'static str, Vec<&'static str>)> {
        let csr = CsrAdjacency::build(g);
        g.nodes()
            .filter(|&n| g.is_node_alive(n))
            .map(|n| {
                (*g.node(n), csr.neighbors(n).iter().map(|&(m, _)| *g.node(m)).collect())
            })
            .collect()
    }

    #[test]
    fn compact_reclaims_slots_and_preserves_adjacency() {
        let (mut g, ns) = diamond();
        // Remove node c (and with it a–c, c–d), plus edge b–d directly.
        let csr = CsrAdjacency::build(&g);
        g.remove_edge(edge_between(&g, ns[1], ns[3]));
        g.remove_node(ns[2], &csr);
        let expected = adjacency_by_payload(&g);

        let node_remap = g.compact();
        assert_eq!(g.node_count(), g.alive_node_count());
        assert_eq!(g.edge_slots(), g.edge_count());
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 1);
        // Remap tables: dead slots map to None, survivors renumber
        // densely in slot order.
        assert_eq!(node_remap[ns[2].index()], None);
        assert_eq!(node_remap[ns[3].index()], Some(NodeId(2)));
        // Adjacency by payload is unchanged.
        assert_eq!(adjacency_by_payload(&g), expected);
        // Compacting a clean graph is the identity.
        let edges_before: Vec<_> = g.edges().map(|e| (e.id, e.from, e.to)).collect();
        let nr = g.compact();
        assert!(nr.iter().enumerate().all(|(i, r)| *r == Some(NodeId(i as u32))));
        assert_eq!(g.edges().map(|e| (e.id, e.from, e.to)).collect::<Vec<_>>(), edges_before);
        // New elements extend the compacted numbering densely.
        let x = g.add_node("x");
        assert_eq!(x.index(), 3);
    }

    #[test]
    fn compact_preserves_parallel_edges_and_self_loops() {
        let mut g: Graph<(), u8> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let dead = g.add_node(());
        g.add_edge(a, b, 1);
        let e2 = g.add_edge(a, b, 2);
        g.add_edge(b, a, 3);
        g.add_edge(a, a, 4);
        g.remove_edge(e2);
        g.remove_node(dead, &CsrAdjacency::build(&g));
        g.compact();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 3);
        let csr = CsrAdjacency::build(&g);
        let payloads: Vec<u8> =
            csr.neighbors(NodeId(0)).iter().map(|&(_, e)| *g.edge(e).payload).collect();
        assert_eq!(payloads, vec![1, 4, 3], "out (id order), loop, then in");
    }

    #[test]
    fn ids_stay_stable_across_removals() {
        let (mut g, ns) = diamond();
        g.remove_node(ns[2], &CsrAdjacency::build(&g));
        let e = g.add_node("e");
        assert_eq!(e.index(), 4, "slots are never reused");
        let new_edge = g.add_edge(ns[0], e, 9);
        assert_eq!(new_edge.index(), 4);
        assert!(CsrAdjacency::build(&g).neighbors(ns[0]).iter().any(|&(m, _)| m == e));
    }
}
