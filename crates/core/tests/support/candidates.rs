//! DISCOVER-style schema-level candidate networks (reference [4]): a
//! second, schema-level implementation of DISCOVER's semantics, kept as
//! a test oracle.
//!
//! DISCOVER plans keyword queries at the *schema* level: a **candidate
//! network** (CN) is a tree of relation occurrences — each annotated
//! with the keyword subset its tuples must match, possibly *free*
//! (matching none) — whose adjacent occurrences are connected by a
//! foreign key. A CN is admissible when it covers every keyword, no
//! leaf is free, and no occurrence joins two others through one foreign
//! key of its own. Evaluating a CN joins the corresponding tuple sets,
//! producing joining networks of tuples; filtering those through
//! `cla_core::is_mtjnt` yields exactly DISCOVER's answers.
//!
//! [`mtjnts_via_candidate_networks`] is cross-validated against the
//! engine's instance-level growth enumeration (`cla_core::enumerate_mtjnts`)
//! by the tests — two independent routes to the same MTJNT semantics.

use cla_core::{is_mtjnt, DataGraph};
use cla_graph::NodeId;
use cla_relational::{Database, RelationId, TupleId};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// One relation occurrence in a candidate network.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CnNode {
    /// The relation this occurrence ranges over.
    pub relation: RelationId,
    /// Indices (into the query's keyword list) this occurrence must
    /// match; empty = a free tuple set.
    pub keywords: BTreeSet<usize>,
}

/// A join edge between two occurrences: `from` owns foreign key
/// `fk_index` referencing `to`'s relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CnEdge {
    /// Occurrence index owning the foreign key.
    pub from: usize,
    /// Occurrence index being referenced.
    pub to: usize,
    /// The foreign-key index within `from`'s relation.
    pub fk_index: usize,
}

/// A candidate network: a tree of relation occurrences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateNetwork {
    /// Occurrences; index 0 is the generation root.
    pub nodes: Vec<CnNode>,
    /// `nodes.len() - 1` join edges forming a tree.
    pub edges: Vec<CnEdge>,
}

impl CandidateNetwork {
    /// Number of relation occurrences.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when every keyword index in `0..total` is covered.
    pub fn is_total(&self, total: usize) -> bool {
        let mut covered: HashSet<usize> = HashSet::new();
        for n in &self.nodes {
            covered.extend(n.keywords.iter().copied());
        }
        (0..total).all(|k| covered.contains(&k))
    }

    /// `true` when no leaf occurrence is free (DISCOVER's pruning rule).
    pub fn leaves_are_bound(&self) -> bool {
        let mut degree = vec![0usize; self.nodes.len()];
        for e in &self.edges {
            degree[e.from] += 1;
            degree[e.to] += 1;
        }
        self.nodes.iter().zip(&degree).all(|(n, &d)| d != 1 || !n.keywords.is_empty())
            && (self.nodes.len() > 1 || !self.nodes[0].keywords.is_empty())
    }

    /// Canonical key for deduplication: the smallest rooted canonical
    /// encoding (AHU) over every choice of root, so two networks share a
    /// key exactly when they are isomorphic as labeled trees. (A sorted
    /// node multiset plus a sorted edge multiset is not enough: two
    /// different trees can share both.)
    fn canonical_key(&self) -> String {
        (0..self.nodes.len()).map(|root| self.encode(root, None)).min().unwrap_or_default()
    }

    /// The rooted encoding of the subtree at occurrence `v`, entered
    /// from `parent`: its label, then its children's encodings in sorted
    /// order, each tagged with the join it hangs by (which side owns the
    /// foreign key, and which key).
    fn encode(&self, v: usize, parent: Option<usize>) -> String {
        let mut children: Vec<String> = self
            .edges
            .iter()
            .filter_map(|e| {
                let (child, tag) = match (e.from == v, e.to == v) {
                    (true, _) => (e.to, '>'),
                    (_, true) => (e.from, '<'),
                    _ => return None,
                };
                (Some(child) != parent)
                    .then(|| format!("{tag}{}{}", e.fk_index, self.encode(child, Some(v))))
            })
            .collect();
        children.sort();
        let node = &self.nodes[v];
        format!("({}:{:?}{})", node.relation.0, node.keywords, children.concat())
    }

    /// Whether occurrence `occ` already joins another occurrence through
    /// its own foreign key `fk_index`.
    fn owns_join(&self, occ: usize, fk_index: usize) -> bool {
        self.edges.iter().any(|e| e.from == occ && e.fk_index == fk_index)
    }
}

/// Which keywords each relation *can* match (has at least one matching
/// tuple for), plus the matching tuples per (relation, keyword).
#[derive(Debug, Clone, Default)]
pub struct KeywordRelationMap {
    matches: HashMap<(RelationId, usize), Vec<TupleId>>,
}

impl KeywordRelationMap {
    /// Build from per-keyword matched tuples.
    pub fn new(keyword_matches: &[Vec<TupleId>]) -> Self {
        let mut matches: HashMap<(RelationId, usize), Vec<TupleId>> = HashMap::new();
        for (k, tuples) in keyword_matches.iter().enumerate() {
            for &t in tuples {
                matches.entry((t.relation, k)).or_default().push(t);
            }
        }
        KeywordRelationMap { matches }
    }

    /// Keyword indices relation `r` can match.
    pub fn keywords_of(&self, r: RelationId, total: usize) -> Vec<usize> {
        (0..total).filter(|&k| self.matches.contains_key(&(r, k))).collect()
    }

    /// Tuples of `r` matching ALL keyword indices in `kws` (free → all
    /// tuples, resolved by the caller).
    pub fn tuples_matching(
        &self,
        r: RelationId,
        kws: &BTreeSet<usize>,
    ) -> Option<Vec<TupleId>> {
        let mut iter = kws.iter();
        let first = iter.next()?;
        let mut out: Vec<TupleId> =
            self.matches.get(&(r, *first)).cloned().unwrap_or_default();
        for k in iter {
            let set: HashSet<TupleId> = self
                .matches
                .get(&(r, *k))
                .map(|v| v.iter().copied().collect())
                .unwrap_or_default();
            out.retain(|t| set.contains(t));
        }
        Some(out)
    }
}

/// Enumerate all admissible candidate networks with at most `max_size`
/// occurrences, given per-keyword match sets.
///
/// CNs come out in **non-decreasing size order** (the generation is a
/// breadth-first growth over occurrence counts).
pub fn generate_candidate_networks(
    db: &Database,
    keyword_matches: &[Vec<TupleId>],
    max_size: usize,
) -> Vec<CandidateNetwork> {
    let total = keyword_matches.len();
    let map = KeywordRelationMap::new(keyword_matches);

    // Schema adjacency: (owner relation, fk index, target relation).
    let mut fk_edges: Vec<(RelationId, usize, RelationId)> = Vec::new();
    for (rel, schema) in db.catalog().iter() {
        for (fk_idx, fk) in schema.foreign_keys.iter().enumerate() {
            fk_edges.push((rel, fk_idx, fk.target));
        }
    }

    // Non-empty keyword subsets a relation may be annotated with.
    let annotations = |r: RelationId| -> Vec<BTreeSet<usize>> {
        let kws = map.keywords_of(r, total);
        let mut out = Vec::new();
        for mask in 1..(1u32 << kws.len()) {
            let set: BTreeSet<usize> = kws
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &k)| k)
                .collect();
            if map.tuples_matching(r, &set).is_some_and(|v| !v.is_empty()) {
                out.push(set);
            }
        }
        out
    };

    let mut results = Vec::new();
    let mut seen = HashSet::new();
    let mut queue: VecDeque<CandidateNetwork> = VecDeque::new();

    // Seeds: single annotated occurrences.
    for (rel, _) in db.catalog().iter() {
        for kws in annotations(rel) {
            let cn = CandidateNetwork {
                nodes: vec![CnNode { relation: rel, keywords: kws }],
                edges: Vec::new(),
            };
            if seen.insert(cn.canonical_key()) {
                queue.push_back(cn);
            }
        }
    }

    while let Some(cn) = queue.pop_front() {
        debug_assert!(
            results.last().is_none_or(|prev: &CandidateNetwork| prev.size() <= cn.size()),
            "BFS growth must emit candidate networks in non-decreasing size order"
        );
        if cn.is_total(total) && cn.leaves_are_bound() {
            results.push(cn.clone());
        }
        if cn.size() >= max_size {
            continue;
        }
        // Expand: attach a new occurrence to any existing one via any
        // schema foreign key, annotated freely or with keywords.
        for (occ, node) in cn.nodes.iter().enumerate() {
            for &(owner, fk_idx, target) in &fk_edges {
                // New node as FK owner referencing `node`…
                if target == node.relation {
                    for kws in std::iter::once(BTreeSet::new()).chain(annotations(owner)) {
                        let mut next = cn.clone();
                        next.nodes.push(CnNode { relation: owner, keywords: kws });
                        next.edges.push(CnEdge {
                            from: next.nodes.len() - 1,
                            to: occ,
                            fk_index: fk_idx,
                        });
                        if seen.insert(next.canonical_key()) {
                            queue.push_back(next);
                        }
                    }
                }
                // …or as FK target referenced by `node`. DISCOVER's
                // rule: no `R ← S → R` through one foreign key, since
                // one tuple of S references one tuple of R through it.
                if owner == node.relation && !cn.owns_join(occ, fk_idx) {
                    for kws in std::iter::once(BTreeSet::new()).chain(annotations(target)) {
                        let mut next = cn.clone();
                        next.nodes.push(CnNode { relation: target, keywords: kws });
                        next.edges.push(CnEdge {
                            from: occ,
                            to: next.nodes.len() - 1,
                            fk_index: fk_idx,
                        });
                        if seen.insert(next.canonical_key()) {
                            queue.push_back(next);
                        }
                    }
                }
            }
        }
    }
    results
}

/// Evaluate a candidate network on the instance: every assignment of
/// tuples to occurrences such that annotated occurrences match their
/// keywords and adjacent occurrences join along the stated foreign key.
/// Returns the distinct tuple sets.
pub fn evaluate_candidate_network(
    db: &Database,
    cn: &CandidateNetwork,
    keyword_matches: &[Vec<TupleId>],
) -> Vec<BTreeSet<TupleId>> {
    let map = KeywordRelationMap::new(keyword_matches);
    let candidates_for = |node: &CnNode| -> Vec<TupleId> {
        if node.keywords.is_empty() {
            db.tuples(node.relation).map(|(id, _)| id).collect()
        } else {
            map.tuples_matching(node.relation, &node.keywords).unwrap_or_default()
        }
    };

    // Assign occurrences in index order (parents of edge i appear
    // before expansion order guarantees a connected prefix).
    let mut assignments: Vec<Vec<TupleId>> = vec![Vec::new()];
    let mut out: HashSet<BTreeSet<TupleId>> = HashSet::new();
    for (idx, node) in cn.nodes.iter().enumerate() {
        let mut next: Vec<Vec<TupleId>> = Vec::new();
        let options = candidates_for(node);
        for partial in &assignments {
            for &t in &options {
                // Distinct-tuple networks only.
                if partial.contains(&t) {
                    continue;
                }
                // Check every edge touching `idx` whose other side is
                // already assigned.
                let ok = cn.edges.iter().all(|e| {
                    let (a, b) = (e.from, e.to);
                    if a != idx && b != idx {
                        return true;
                    }
                    let other = if a == idx { b } else { a };
                    if other >= partial.len() && other != idx {
                        return true; // other side not yet assigned
                    }
                    let (owner_t, target_t) =
                        if a == idx { (t, partial[b]) } else { (partial[a], t) };
                    matches!(db.fk_target(owner_t, e.fk_index), Ok(Some(x)) if x == target_t)
                });
                if ok {
                    let mut row = partial.clone();
                    row.push(t);
                    next.push(row);
                }
            }
        }
        assignments = next;
        if assignments.is_empty() {
            break;
        }
    }
    for row in assignments {
        out.insert(row.into_iter().collect());
    }
    let mut v: Vec<BTreeSet<TupleId>> = out.into_iter().collect();
    v.sort();
    v
}

/// The full DISCOVER pipeline: generate CNs, evaluate them, filter the
/// resulting joining networks down to MTJNTs. Returns node sets in the
/// data graph.
pub fn mtjnts_via_candidate_networks(
    db: &Database,
    dg: &DataGraph,
    keyword_matches: &[Vec<TupleId>],
    max_size: usize,
) -> Vec<BTreeSet<NodeId>> {
    let keyword_sets: Vec<HashSet<NodeId>> = keyword_matches
        .iter()
        .map(|v| v.iter().filter_map(|&t| dg.node_of(t)).collect())
        .collect();
    let mut out: HashSet<BTreeSet<NodeId>> = HashSet::new();
    for cn in generate_candidate_networks(db, keyword_matches, max_size) {
        for tuple_set in evaluate_candidate_network(db, &cn, keyword_matches) {
            let nodes: Option<BTreeSet<NodeId>> =
                tuple_set.iter().map(|&t| dg.node_of(t)).collect();
            let Some(nodes) = nodes else { continue };
            if is_mtjnt(dg, &nodes, &keyword_sets) {
                out.insert(nodes);
            }
        }
    }
    let mut v: Vec<BTreeSet<NodeId>> = out.into_iter().collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_core::enumerate_mtjnts;
    use cla_datagen::company;
    use cla_index::InvertedIndex;

    fn setup() -> (cla_datagen::CompanyDb, DataGraph, Vec<Vec<TupleId>>) {
        let c = company();
        let dg = DataGraph::build(&c.db, &c.mapping).unwrap();
        let index = InvertedIndex::build(&c.db);
        let matches = vec![index.matching_tuples("smith"), index.matching_tuples("xml")];
        (c, dg, matches)
    }

    #[test]
    fn generates_the_employee_department_cn() {
        let (c, _, matches) = setup();
        let cns = generate_candidate_networks(&c.db, &matches, 2);
        let emp = c.db.catalog().relation_id("EMPLOYEE").unwrap();
        let dept = c.db.catalog().relation_id("DEPARTMENT").unwrap();
        let found = cns.iter().any(|cn| {
            cn.size() == 2
                && cn.nodes.iter().any(|n| n.relation == emp && n.keywords.contains(&0))
                && cn.nodes.iter().any(|n| n.relation == dept && n.keywords.contains(&1))
        });
        assert!(found, "EMPLOYEE{{smith}} ⋈ DEPARTMENT{{xml}} must be generated");
    }

    #[test]
    fn free_leaves_are_pruned() {
        let (c, _, matches) = setup();
        for cn in generate_candidate_networks(&c.db, &matches, 4) {
            assert!(cn.leaves_are_bound(), "{cn:?}");
            assert!(cn.is_total(2));
            assert!(cn.size() <= 4);
        }
    }

    #[test]
    fn evaluation_joins_along_the_fk() {
        let (c, _, matches) = setup();
        let emp = c.db.catalog().relation_id("EMPLOYEE").unwrap();
        let dept = c.db.catalog().relation_id("DEPARTMENT").unwrap();
        let cn = CandidateNetwork {
            nodes: vec![
                CnNode { relation: emp, keywords: [0usize].into() },
                CnNode { relation: dept, keywords: [1usize].into() },
            ],
            edges: vec![CnEdge { from: 0, to: 1, fk_index: 0 }],
        };
        let rows = evaluate_candidate_network(&c.db, &cn, &matches);
        // e1⋈d1 and e2⋈d2 (both Smiths work for XML departments).
        assert_eq!(rows.len(), 2);
        for set in &rows {
            assert_eq!(set.len(), 2);
        }
    }

    #[test]
    fn cn_pipeline_agrees_with_growth_enumeration() {
        let (c, dg, matches) = setup();
        let via_cn = mtjnts_via_candidate_networks(&c.db, &dg, &matches, 4);
        let keyword_sets: Vec<HashSet<NodeId>> = matches
            .iter()
            .map(|v| v.iter().filter_map(|&t| dg.node_of(t)).collect())
            .collect();
        let mut via_growth = enumerate_mtjnts(&dg, &keyword_sets, 4);
        via_growth.sort();
        assert_eq!(via_cn, via_growth, "two routes to the same MTJNT semantics");
        assert_eq!(via_cn.len(), 3, "connections 1, 2, 5");
    }

    #[test]
    fn single_relation_cn_covers_multi_keyword_tuples() {
        let c = company();
        let index = InvertedIndex::build(&c.db);
        // d1 matches both "teaching" and "xml".
        let matches = vec![index.matching_tuples("teaching"), index.matching_tuples("xml")];
        let cns = generate_candidate_networks(&c.db, &matches, 1);
        assert!(!cns.is_empty());
        let dept = c.db.catalog().relation_id("DEPARTMENT").unwrap();
        assert!(cns.iter().any(|cn| {
            cn.size() == 1 && cn.nodes[0].relation == dept && cn.nodes[0].keywords.len() == 2
        }));
    }

    #[test]
    fn empty_matches_generate_nothing_total() {
        let c = company();
        let matches = vec![vec![], vec![]];
        let cns = generate_candidate_networks(&c.db, &matches, 3);
        assert!(cns.is_empty());
    }
}
