//! The directed multigraph container.

// lint: allow-file(unwrap, compaction remaps are total over live nodes/edges; the expects document those invariants)
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

impl<'g, E> EdgeRef<'g, E> {
    /// The endpoint different from `n` (either endpoint of a self-loop).
    pub fn other(&self, n: NodeId) -> NodeId {
        if self.from == n {
            self.to
        } else {
            self.from
        }
    }
}

/// A directed multigraph with typed payloads and stable dense ids.
///
/// Parallel edges and self-loops are permitted; the keyword-search data
/// graph uses parallel edges when two different foreign keys connect the
/// same pair of tuples.
///
/// Removal is by tombstone: [`Graph::remove_edge`] and
/// [`Graph::remove_node`] detach the element from every adjacency list
/// but keep its slot (payload included), so ids stay stable and dense
/// arrays indexed by `id.index()` keep working. [`Graph::node_count`] and
/// [`Graph::edge_slots`] count **slots** (for buffer sizing);
/// [`Graph::edge_count`] and [`Graph::alive_node_count`] count live
/// elements. Slots are never reused.
///
/// Adjacency is stored intrusively: per-node head/tail cursors plus a
/// per-edge `next` pointer for each direction. Appending keeps lists in
/// edge-insertion order (which is also id order — fresh ids are always
/// the largest), and the whole structure is six flat `Vec`s, so
/// reassembling a graph from serialized slots costs a constant number
/// of allocations regardless of size.
#[derive(Debug, Clone)]
pub struct Graph<N, E> {
    nodes: Vec<N>,
    node_alive: Vec<bool>,
    edges: Vec<EdgeRecord<E>>,
    edge_alive: Vec<bool>,
    first_out: Vec<Option<EdgeId>>,
    last_out: Vec<Option<EdgeId>>,
    first_in: Vec<Option<EdgeId>>,
    last_in: Vec<Option<EdgeId>>,
    next_out: Vec<Option<EdgeId>>,
    next_in: Vec<Option<EdgeId>>,
    live_nodes: usize,
    live_edges: usize,
}

/// Append edge `e` to a node's intrusive adjacency list, keeping
/// insertion order.
fn list_append(
    first: &mut [Option<EdgeId>],
    last: &mut [Option<EdgeId>],
    next: &mut [Option<EdgeId>],
    node: usize,
    e: EdgeId,
) {
    match last[node] {
        Some(tail) => next[tail.index()] = Some(e),
        None => first[node] = Some(e),
    }
    last[node] = Some(e);
}

/// Unlink edge `e` from a node's intrusive adjacency list (no-op if the
/// edge is not on the list).
fn list_unlink(
    first: &mut [Option<EdgeId>],
    last: &mut [Option<EdgeId>],
    next: &mut [Option<EdgeId>],
    node: usize,
    e: EdgeId,
) {
    let mut prev: Option<EdgeId> = None;
    let mut cur = first[node];
    while let Some(c) = cur {
        if c == e {
            let after = next[c.index()];
            match prev {
                Some(p) => next[p.index()] = after,
                None => first[node] = after,
            }
            if last[node] == Some(e) {
                last[node] = prev;
            }
            next[c.index()] = None;
            return;
        }
        prev = cur;
        cur = next[c.index()];
    }
}

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Graph {
            nodes: Vec::new(),
            node_alive: Vec::new(),
            edges: Vec::new(),
            edge_alive: Vec::new(),
            first_out: Vec::new(),
            last_out: Vec::new(),
            first_in: Vec::new(),
            last_in: Vec::new(),
            next_out: Vec::new(),
            next_in: Vec::new(),
            live_nodes: 0,
            live_edges: 0,
        }
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
            first_out: Vec::with_capacity(nodes),
            last_out: Vec::with_capacity(nodes),
            first_in: Vec::with_capacity(nodes),
            last_in: Vec::with_capacity(nodes),
            next_out: Vec::with_capacity(edges),
            next_in: Vec::with_capacity(edges),
            live_nodes: 0,
            live_edges: 0,
        }
    }

    /// Reassemble a graph from serialized slot arrays: every node and
    /// edge slot (tombstones included, so ids keep their lineage-stable
    /// numbering), with adjacency lists rebuilt from the live edges in
    /// id order.
    ///
    /// That rebuild is exact, not approximate: adjacency lists only
    /// ever grow in edge-id order ([`Graph::add_edge`] appends the
    /// freshly allocated — hence largest — id) and shrink through the
    /// order-preserving `retain` in [`Graph::remove_edge`], so a live
    /// graph's adjacency is always the id-sorted list of its live
    /// incident edges.
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
        let mut first_out: Vec<Option<EdgeId>> = vec![None; nodes.len()];
        let mut last_out: Vec<Option<EdgeId>> = vec![None; nodes.len()];
        let mut first_in: Vec<Option<EdgeId>> = vec![None; nodes.len()];
        let mut last_in: Vec<Option<EdgeId>> = vec![None; nodes.len()];
        let mut next_out: Vec<Option<EdgeId>> = vec![None; edges.len()];
        let mut next_in: Vec<Option<EdgeId>> = vec![None; edges.len()];
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
                let id = EdgeId(i as u32);
                list_append(&mut first_out, &mut last_out, &mut next_out, from.index(), id);
                list_append(&mut first_in, &mut last_in, &mut next_in, to.index(), id);
                live_edges += 1;
            }
            records.push(EdgeRecord { from, to, payload });
        }
        let live_nodes = node_alive.iter().filter(|&&a| a).count();
        Some(Graph {
            nodes,
            node_alive,
            edges: records,
            edge_alive,
            first_out,
            last_out,
            first_in,
            last_in,
            next_out,
            next_in,
            live_nodes,
            live_edges,
        })
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(payload);
        self.node_alive.push(true);
        self.live_nodes += 1;
        self.first_out.push(None);
        self.last_out.push(None);
        self.first_in.push(None);
        self.last_in.push(None);
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
        self.next_out.push(None);
        self.next_in.push(None);
        list_append(
            &mut self.first_out,
            &mut self.last_out,
            &mut self.next_out,
            from.index(),
            id,
        );
        list_append(&mut self.first_in, &mut self.last_in, &mut self.next_in, to.index(), id);
        id
    }

    /// Detach edge `e` from both endpoints' adjacency lists and
    /// tombstone it. The record slot (endpoints and payload) stays
    /// readable through [`Graph::edge`]; the id is never reused.
    ///
    /// Panics if `e` is out of bounds or already removed.
    pub fn remove_edge(&mut self, e: EdgeId) {
        assert!(self.is_edge_alive(e), "edge {e} does not exist or was already removed");
        let (from, to) = self.endpoints(e);
        list_unlink(
            &mut self.first_out,
            &mut self.last_out,
            &mut self.next_out,
            from.index(),
            e,
        );
        list_unlink(&mut self.first_in, &mut self.last_in, &mut self.next_in, to.index(), e);
        self.edge_alive[e.index()] = false;
        self.live_edges -= 1;
    }

    /// Remove node `n`: every incident edge is removed first, then the
    /// node is tombstoned. The payload slot stays readable through
    /// [`Graph::node`]; the id is never reused and [`Graph::nodes`] keeps
    /// yielding it (callers reaching nodes through adjacency never see
    /// it — its adjacency is empty).
    ///
    /// Panics if `n` is out of bounds or already removed.
    pub fn remove_node(&mut self, n: NodeId) {
        assert!(self.is_node_alive(n), "node {n} does not exist or was already removed");
        let incident: Vec<EdgeId> =
            self.out_edges(n).map(|e| e.id).chain(self.in_edges(n).map(|e| e.id)).collect();
        for e in incident {
            // A self-loop appears in both lists; remove once.
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
    /// (their adjacency is empty, so traversals never reach them; use
    /// [`Graph::is_node_alive`] to filter when enumerating directly).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over all **live** edges as [`EdgeRef`]s.
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

    /// Outgoing edges of `n`, in insertion (id) order.
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        std::iter::successors(self.first_out[n.index()], |e| self.next_out[e.index()])
            .map(move |e| self.edge(e))
    }

    /// Incoming edges of `n`, in insertion (id) order.
    pub fn in_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        std::iter::successors(self.first_in[n.index()], |e| self.next_in[e.index()])
            .map(move |e| self.edge(e))
    }

    /// All edges incident to `n` in the undirected view (self-loops are
    /// reported once per direction they were stored in).
    pub fn incident_edges(&self, n: NodeId) -> impl Iterator<Item = EdgeRef<'_, E>> {
        self.out_edges(n).chain(
            self.in_edges(n).filter(move |er| er.from != n), // avoid double-reporting loops
        )
    }

    /// Undirected degree of `n` (self-loops count once).
    pub fn degree(&self, n: NodeId) -> usize {
        self.incident_edges(n).count()
    }

    /// Reclaim every tombstoned node and edge slot, renumbering the
    /// survivors densely in slot order. Returns the node remap table
    /// (`remap[old.index()] = Some(new)` for survivors, `None` for
    /// reclaimed slots); surviving edges keep their relative order.
    ///
    /// This is the one operation that moves ids: all outstanding
    /// [`NodeId`]s/[`EdgeId`]s and any dense side arrays indexed by them
    /// must be remapped by the caller. Adjacency is preserved exactly —
    /// per-node edge lists keep their relative order (edge insertion
    /// order), so traversal results over the compacted graph equal the
    /// pre-compaction ones modulo renumbering. Afterwards
    /// [`Graph::node_count`] equals [`Graph::alive_node_count`] and
    /// [`Graph::edge_slots`] equals [`Graph::edge_count`]: zero
    /// tombstoned slots.
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
        // Rebuild the intrusive adjacency from scratch in new-id order.
        // New ids preserve relative order and a live graph's per-node
        // list is always id-sorted (appends take the largest id, unlinks
        // preserve order), so this reproduces adjacency exactly.
        let n = self.nodes.len();
        self.first_out = vec![None; n];
        self.last_out = vec![None; n];
        self.first_in = vec![None; n];
        self.last_in = vec![None; n];
        self.next_out = vec![None; self.edges.len()];
        self.next_in = vec![None; self.edges.len()];
        for i in 0..self.edges.len() {
            let (from, to) = (self.edges[i].from, self.edges[i].to);
            let id = EdgeId(i as u32);
            list_append(
                &mut self.first_out,
                &mut self.last_out,
                &mut self.next_out,
                from.index(),
                id,
            );
            list_append(
                &mut self.first_in,
                &mut self.last_in,
                &mut self.next_in,
                to.index(),
                id,
            );
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

    #[test]
    fn from_slots_round_trips_with_tombstones() {
        let (mut g, ns) = diamond();
        // Tombstone one edge and one node so the slot arrays are sparse.
        let ab = g.out_edges(ns[0]).find(|e| e.to == ns[1]).unwrap().id;
        g.remove_edge(ab);
        g.remove_node(ns[1]);

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
        for n in g.nodes() {
            assert_eq!(back.is_node_alive(n), g.is_node_alive(n));
            let orig_out: Vec<(EdgeId, NodeId)> =
                g.out_edges(n).map(|e| (e.id, e.to)).collect();
            let back_out: Vec<(EdgeId, NodeId)> =
                back.out_edges(n).map(|e| (e.id, e.to)).collect();
            assert_eq!(back_out, orig_out);
            let orig_in: Vec<EdgeId> = g.in_edges(n).map(|e| e.id).collect();
            let back_in: Vec<EdgeId> = back.in_edges(n).map(|e| e.id).collect();
            assert_eq!(back_in, orig_in);
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
        let (a, b, _c, d) = (ns[0], ns[1], ns[2], ns[3]);
        assert_eq!(g.out_edges(a).count(), 2);
        assert_eq!(g.in_edges(a).count(), 0);
        assert_eq!(g.in_edges(d).count(), 2);
        assert_eq!(g.out_edges(d).count(), 0);
        assert_eq!(g.degree(b), 2);
        let out_of_a: Vec<NodeId> = g.out_edges(a).map(|e| e.to).collect();
        assert!(out_of_a.contains(&b));
    }

    #[test]
    fn incident_edges_cover_both_directions() {
        let (g, ns) = diamond();
        let b = ns[1];
        let incident: Vec<EdgeId> = g.incident_edges(b).map(|e| e.id).collect();
        assert_eq!(incident.len(), 2);
        let others: Vec<NodeId> = g.incident_edges(b).map(|e| e.other(b)).collect();
        assert!(others.contains(&ns[0]) && others.contains(&ns[3]));
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
        assert_eq!(g.incident_edges(a).count(), 3);
    }

    #[test]
    fn self_loop_counted_once_in_incident() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, a, ());
        assert_eq!(g.incident_edges(a).count(), 1);
        assert_eq!(g.degree(a), 1);
        let e = g.incident_edges(a).next().unwrap();
        assert_eq!(e.other(a), a);
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
        let ab = g.incident_edges(a).find(|e| e.other(a) == b).unwrap().id;
        g.remove_edge(ab);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_slots(), 4);
        assert!(!g.is_edge_alive(ab));
        assert!(g.incident_edges(a).all(|e| e.id != ab));
        assert!(g.incident_edges(b).all(|e| e.id != ab));
        assert!(g.edges().all(|e| e.id != ab));
        // The record slot stays readable (payload preserved).
        assert_eq!(*g.edge(ab).payload, 1);
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, ns) = diamond();
        let b = ns[1];
        g.remove_node(b);
        assert!(!g.is_node_alive(b));
        assert_eq!(g.alive_node_count(), 3);
        assert_eq!(g.node_count(), 4, "slots are kept");
        assert_eq!(g.edge_count(), 2, "a–b and b–d are gone");
        assert_eq!(g.degree(b), 0);
        assert!(g.incident_edges(ns[0]).all(|e| e.other(ns[0]) != b));
    }

    #[test]
    fn remove_node_with_self_loop() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        g.add_edge(a, a, ());
        g.add_edge(a, b, ());
        g.remove_node(a);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(b), 0);
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
        g.remove_node(b);
        g.add_edge(a, b, ());
    }

    #[test]
    fn compact_reclaims_slots_and_preserves_adjacency() {
        let (mut g, ns) = diamond();
        // Remove node c (and with it a–c, c–d), plus edge b–d directly.
        let bd = g.incident_edges(ns[1]).find(|e| e.other(ns[1]) == ns[3]).unwrap().id;
        g.remove_edge(bd);
        g.remove_node(ns[2]);
        let expected: Vec<(&str, Vec<&str>)> = g
            .nodes()
            .filter(|&n| g.is_node_alive(n))
            .map(|n| (*g.node(n), g.incident_edges(n).map(|e| *g.node(e.other(n))).collect()))
            .collect();

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
        let after: Vec<(&str, Vec<&str>)> = g
            .nodes()
            .map(|n| (*g.node(n), g.incident_edges(n).map(|e| *g.node(e.other(n))).collect()))
            .collect();
        assert_eq!(expected, after);
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
        g.remove_node(dead);
        g.compact();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 3);
        let payloads: Vec<u8> = g.incident_edges(NodeId(0)).map(|e| *e.payload).collect();
        assert_eq!(payloads, vec![1, 4, 3], "out (insertion order), loop, then in");
        assert_eq!(g.degree(NodeId(0)), 3);
    }

    #[test]
    fn ids_stay_stable_across_removals() {
        let (mut g, ns) = diamond();
        g.remove_node(ns[2]);
        let e = g.add_node("e");
        assert_eq!(e.index(), 4, "slots are never reused");
        let new_edge = g.add_edge(ns[0], e, 9);
        assert_eq!(new_edge.index(), 4);
        assert!(g.incident_edges(ns[0]).any(|er| er.other(ns[0]) == e));
    }
}
