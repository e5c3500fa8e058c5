//! Instance-level closeness (§3–4 of the paper).
//!
//! A connection that is *loose at the schema level* may still associate
//! its endpoint entities closely *on a given database instance*: the
//! paper observes that connections 3 and 4 ("John Smith – XML") are close
//! at the instance level because employee e1 really does work on project
//! p1 and for department d1, whereas connection 6 stays loose — Barbara
//! Smith does not work on project p2.
//!
//! We operationalize this as a *witness search*: a loose connection is
//! corroborated close iff some schema-**close** connection (immediate or
//! transitive functional at the ER level) links the same two endpoint
//! tuples within a bounded length. The paper's §4 "more precise approach
//! … analyzing the actual number of participating entities (tuples)"
//! motivates exactly this instance-level check.

use crate::connection::Connection;
use crate::datagraph::DataGraph;
use cla_er::{Closeness, ErSchema, SchemaMapping};
use cla_graph::{bounded_bfs_distances_into, NodeId, Path};
use std::collections::{HashMap, VecDeque};

/// The instance-level verdict for a connection.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceCloseness {
    /// Already close at the schema level — no witness needed.
    SchemaClose,
    /// Loose at the schema level, but a close witness connection links
    /// the same endpoints on this instance.
    WitnessClose(Connection),
    /// Loose at both levels.
    Loose,
}

impl InstanceCloseness {
    /// `true` unless the connection is loose at both levels.
    pub fn is_close(&self) -> bool {
        !matches!(self, InstanceCloseness::Loose)
    }
}

/// Cache of witness-search outcomes per `(start, end)` endpoint pair,
/// plus the distance maps and buffers of the pruned search.
///
/// The witness search depends only on the connection's endpoints and the
/// length bound, so duplicate endpoint pairs in one result set (common:
/// many connections link the same two matched tuples) share one search —
/// and pairs sharing the *end* node share one bounded distance map. One
/// cache must only ever see a single `(data graph, length bound)`
/// combination; the engine keeps one per search (pooled and
/// [`WitnessCache::clear`]ed between searches).
#[derive(Debug, Clone, Default)]
pub struct WitnessCache {
    verdicts: HashMap<(NodeId, NodeId), Option<Connection>>,
    /// One bounded distance map per distinct end node (result sets
    /// routinely interleave end nodes, so a single most-recent map
    /// would thrash). All maps share one budget.
    maps: HashMap<NodeId, Vec<u32>>,
    /// The hop budget every cached map was computed with.
    budget: Option<usize>,
    queue: VecDeque<NodeId>,
}

impl WitnessCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached endpoint-pair verdicts.
    pub fn len(&self) -> usize {
        self.verdicts.len()
    }

    /// `true` when no verdict is cached.
    pub fn is_empty(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// Drop every verdict and distance map, keeping the allocated
    /// container capacity — the reset a pooled scratch performs between
    /// searches (graph content may have changed in between).
    pub fn clear(&mut self) {
        self.verdicts.clear();
        self.maps.clear();
        self.budget = None;
    }

    /// Build the bounded hop-distance map toward `end` unless one is
    /// already cached for it; a budget change (one cache only ever
    /// sees a single bound in practice) invalidates all maps.
    fn ensure_dist_map(&mut self, dg: &DataGraph, end: NodeId, max_rdb: usize) {
        if self.budget != Some(max_rdb) {
            self.maps.clear();
            self.budget = Some(max_rdb);
        }
        if !self.maps.contains_key(&end) {
            let mut dist = Vec::new();
            // Saturating cast: an oversized budget means unbounded.
            bounded_bfs_distances_into(
                dg.csr(),
                &[end],
                u32::try_from(max_rdb).unwrap_or(u32::MAX),
                &mut dist,
                &mut self.queue,
            );
            self.maps.insert(end, dist);
        }
    }
}

/// Compute the instance-level closeness of `conn`, searching for witness
/// paths of at most `max_witness_rdb` foreign-key edges.
///
/// The witness search is a short-circuiting, distance-pruned DFS: it
/// tests closeness per candidate path and stops at the **first** close
/// witness (searching shorter paths first), instead of materializing
/// every bounded path between the endpoints and converting each to a
/// [`Connection`] (the property suite checks its verdicts against that
/// exhaustive scan); any returned witness has minimal RDB length among
/// close witnesses.
pub fn instance_closeness(
    conn: &Connection,
    dg: &DataGraph,
    schema: &ErSchema,
    mapping: &SchemaMapping,
    max_witness_rdb: usize,
) -> InstanceCloseness {
    instance_closeness_with_cache(
        conn,
        dg,
        schema,
        mapping,
        max_witness_rdb,
        &mut WitnessCache::new(),
    )
}

/// [`instance_closeness`] with witness results shared through `cache`.
/// One cache must only ever see a single `(dg, max_witness_rdb)`
/// combination — the engine keeps one per search.
pub fn instance_closeness_with_cache(
    conn: &Connection,
    dg: &DataGraph,
    schema: &ErSchema,
    mapping: &SchemaMapping,
    max_witness_rdb: usize,
    cache: &mut WitnessCache,
) -> InstanceCloseness {
    if conn.closeness(dg, schema, mapping) == Closeness::Close {
        return InstanceCloseness::SchemaClose;
    }
    let key = (conn.start(), conn.end());
    if !cache.verdicts.contains_key(&key) {
        cache.ensure_dist_map(dg, conn.end(), max_witness_rdb);
        let witness = find_close_witness(
            dg,
            schema,
            mapping,
            conn.start(),
            conn.end(),
            max_witness_rdb,
            &cache.maps[&conn.end()],
        );
        cache.verdicts.insert(key, witness);
    }
    match cache.verdicts[&key].clone() {
        Some(w) => InstanceCloseness::WitnessClose(w),
        None => InstanceCloseness::Loose,
    }
}

/// Find one schema-close connection linking `start` and `end` within
/// `max_rdb` foreign-key edges, or `None`.
///
/// Iterative-deepening DFS over the CSR adjacency: depth level `d`
/// judges only complete `start → end` paths of exactly `d` edges and
/// stops at the first close one, so the returned witness always has
/// minimal RDB length and — in the common case of an immediate close
/// link — the search touches a handful of nodes instead of
/// materializing the whole bounded path set. Deepening ends as soon as
/// a level runs to completion without being cut by its budget (no
/// longer simple path can exist).
///
/// `dist`, the bounded hop-distance map toward `end` (capped at
/// `max_rdb`), cuts every branch that cannot reach `end` within the
/// level's remaining budget. Pruning removes only branches that
/// complete no path at the current level, so each level visits its
/// completions in the unpruned order, and the verdict is the
/// exhaustive scan's (property-tested).
fn find_close_witness(
    dg: &DataGraph,
    schema: &ErSchema,
    mapping: &SchemaMapping,
    start: NodeId,
    end: NodeId,
    max_rdb: usize,
    dist: &[u32],
) -> Option<Connection> {
    // Endpoint pairs of real connections are distinct (a zero-length
    // connection is schema-close and never reaches the search), and an
    // `end` farther than `max_rdb` hops is out of reach.
    if start == end || max_rdb == 0 || dist[start.index()] as usize > max_rdb {
        return None;
    }
    let csr = dg.csr();
    let mut search = WitnessDfs {
        dg,
        schema,
        mapping,
        end,
        dist,
        max_rdb,
        nodes: vec![start],
        edges: Vec::new(),
        on_path: vec![false; csr.node_count()],
        truncated: false,
        witness: None,
    };
    search.on_path[start.index()] = true;
    for depth in 1..=max_rdb {
        search.truncated = false;
        search.dfs(csr, start, depth);
        if search.witness.is_some() {
            return search.witness;
        }
        if !search.truncated {
            return None; // the level was exhaustive; deeper finds nothing
        }
    }
    None
}

/// State of one iterative-deepening witness search.
struct WitnessDfs<'a> {
    dg: &'a DataGraph,
    schema: &'a ErSchema,
    mapping: &'a SchemaMapping,
    end: NodeId,
    /// Bounded hop distances toward `end` (capped at `max_rdb`).
    dist: &'a [u32],
    max_rdb: usize,
    nodes: Vec<NodeId>,
    edges: Vec<cla_graph::EdgeId>,
    on_path: Vec<bool>,
    /// Whether this level declined to descend somewhere due to budget —
    /// if not, deeper levels cannot find new paths.
    truncated: bool,
    witness: Option<Connection>,
}

impl WitnessDfs<'_> {
    /// `true` when a (possibly deeper) level could still complete a
    /// path through `next`: when `end` lies within the overall
    /// `max_rdb` budget from there. Over-approximating costs one extra
    /// deepening level at worst; under-approximating would wrongly end
    /// the search, so unreachable means *beyond the cap*, never
    /// "unknown".
    fn may_continue_deeper(&self, next: NodeId) -> bool {
        (self.dist[next.index()] as usize) <= self.max_rdb
    }

    /// Explore paths with exactly `budget` more edges; record the first
    /// close `…end` completion into `self.witness` and unwind.
    fn dfs(&mut self, csr: &cla_graph::CsrAdjacency, current: NodeId, budget: usize) {
        for &(next, e) in csr.neighbors(current) {
            if self.on_path[next.index()] {
                continue;
            }
            if budget == 1 {
                if next == self.end {
                    self.edges.push(e);
                    self.nodes.push(next);
                    let path = Path { nodes: self.nodes.clone(), edges: self.edges.clone() };
                    let candidate = Connection::from_path(&path, self.dg, self.schema);
                    self.nodes.pop();
                    self.edges.pop();
                    if candidate.closeness(self.dg, self.schema, self.mapping)
                        == Closeness::Close
                    {
                        self.witness = Some(candidate);
                        return;
                    }
                } else if self.may_continue_deeper(next) {
                    // A longer simple path may continue through here.
                    self.truncated = true;
                }
                continue;
            }
            if next == self.end {
                continue; // exact-depth levels only; shorter paths were judged
            }
            // Distance pruning: with `budget - 1` edges left after the
            // descent, `end` must lie within that range of `next`. The
            // cut branch completes nothing at this level, but deeper
            // levels may still route through it within the overall
            // budget — flag them.
            if (self.dist[next.index()] as usize) > budget - 1 {
                if self.may_continue_deeper(next) {
                    self.truncated = true;
                }
                continue;
            }
            self.on_path[next.index()] = true;
            self.nodes.push(next);
            self.edges.push(e);
            self.dfs(csr, next, budget - 1);
            self.edges.pop();
            self.nodes.pop();
            self.on_path[next.index()] = false;
            if self.witness.is_some() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_datagen::{company, CompanyDb};
    use cla_graph::{enumerate_simple_paths_undirected, NodeId};

    fn setup() -> (CompanyDb, DataGraph) {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        (c, dg)
    }

    fn conn(c: &CompanyDb, dg: &DataGraph, aliases: &[&str]) -> Connection {
        let want: Vec<NodeId> =
            aliases.iter().map(|a| dg.node_of(c.tuple(a).unwrap()).unwrap()).collect();
        let paths = enumerate_simple_paths_undirected(
            dg.csr(),
            want[0],
            *want.last().unwrap(),
            6,
            None,
        );
        paths
            .iter()
            .map(|p| Connection::from_path(p, dg, &c.er_schema))
            .find(|cn| cn.nodes() == want.as_slice())
            .expect("path exists")
    }

    /// §3: "in an instance level, also connections 3 and 4 have a close
    /// association between the entities."
    #[test]
    fn connections_3_and_4_are_instance_close() {
        let (c, dg) = setup();
        for aliases in [&["p1", "d1", "e1"][..], &["d1", "p1", "w_f1", "e1"][..]] {
            let cn = conn(&c, &dg, aliases);
            let verdict = instance_closeness(&cn, &dg, &c.er_schema, &c.mapping, 4);
            assert!(
                matches!(verdict, InstanceCloseness::WitnessClose(_)),
                "{aliases:?} should be witness-close, got {verdict:?}"
            );
        }
    }

    /// §3: Barbara "is associated with project p2 in connection 6
    /// although she does not work in it" — loose at the instance level.
    #[test]
    fn connection_6_stays_loose() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["p2", "d2", "e2"]);
        assert_eq!(
            instance_closeness(&cn, &dg, &c.er_schema, &c.mapping, 4),
            InstanceCloseness::Loose
        );
    }

    /// Connection 7 keeps the close association (e2 really works on p3,
    /// and d2 really controls p3; the endpoints d2–e2 are immediately
    /// linked).
    #[test]
    fn connection_7_is_witness_close() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["d2", "p3", "w_f2", "e2"]);
        let verdict = instance_closeness(&cn, &dg, &c.er_schema, &c.mapping, 4);
        match verdict {
            InstanceCloseness::WitnessClose(w) => {
                // The witness is the immediate d2–e2 connection.
                assert_eq!(w.rdb_length(), 1);
                assert_eq!(w.start(), cn.start());
                assert_eq!(w.end(), cn.end());
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }

    /// §3: "Connection 8 has a close association and connection 9 has a
    /// loose association between entities in both the schema and
    /// instance levels."
    #[test]
    fn connections_8_and_9_match_paper() {
        let (c, dg) = setup();
        let c8 = conn(&c, &dg, &["d1", "e3", "t1"]);
        assert_eq!(
            instance_closeness(&c8, &dg, &c.er_schema, &c.mapping, 4),
            InstanceCloseness::SchemaClose
        );
        let c9 = conn(&c, &dg, &["d2", "p2", "w_f3", "e3", "t1"]);
        assert_eq!(
            instance_closeness(&c9, &dg, &c.er_schema, &c.mapping, 4),
            InstanceCloseness::Loose
        );
    }

    #[test]
    fn is_close_predicate() {
        let (c, dg) = setup();
        let c8 = conn(&c, &dg, &["d1", "e3", "t1"]);
        assert!(instance_closeness(&c8, &dg, &c.er_schema, &c.mapping, 4).is_close());
        let c6 = conn(&c, &dg, &["p2", "d2", "e2"]);
        assert!(!instance_closeness(&c6, &dg, &c.er_schema, &c.mapping, 4).is_close());
    }

    #[test]
    fn witness_budget_zero_finds_nothing() {
        let (c, dg) = setup();
        let c3 = conn(&c, &dg, &["p1", "d1", "e1"]);
        assert_eq!(
            instance_closeness(&c3, &dg, &c.er_schema, &c.mapping, 0),
            InstanceCloseness::Loose
        );
    }

    /// Clearing a cache keeps it usable and forgets stale verdicts and
    /// distance maps (the pooled-scratch reset between searches).
    #[test]
    fn cleared_cache_recomputes_fresh_verdicts() {
        let (c, dg) = setup();
        let cn = conn(&c, &dg, &["p2", "d2", "e2"]);
        let mut cache = WitnessCache::new();
        let first =
            instance_closeness_with_cache(&cn, &dg, &c.er_schema, &c.mapping, 4, &mut cache);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        let again =
            instance_closeness_with_cache(&cn, &dg, &c.er_schema, &c.mapping, 4, &mut cache);
        assert_eq!(first, again);
    }

    /// A shared cache returns the same verdicts as fresh searches.
    #[test]
    fn cached_verdicts_match_uncached() {
        let (c, dg) = setup();
        let mut cache = WitnessCache::new();
        let conns: &[&[&str]] =
            &[&["p1", "d1", "e1"], &["p2", "d2", "e2"], &["p1", "d1", "e1"]];
        for aliases in conns {
            let cn = conn(&c, &dg, aliases);
            let cached = instance_closeness_with_cache(
                &cn,
                &dg,
                &c.er_schema,
                &c.mapping,
                4,
                &mut cache,
            );
            let fresh = instance_closeness(&cn, &dg, &c.er_schema, &c.mapping, 4);
            assert_eq!(cached, fresh, "{aliases:?}");
        }
        assert_eq!(cache.len(), 2, "duplicate endpoint pair shares one entry");
    }
}
