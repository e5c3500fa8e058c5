//! The inverted index over tuple text attributes.
//!
//! The base representation is **flat**: one sorted term dictionary (a
//! string arena plus offset bounds) and one contiguous posting array
//! grouped by term — the offset-addressable layout the snapshot file
//! serializes directly. Mutations never edit the flat arrays
//! structurally; they go through a small patch `overlay` (term →
//! effective posting list, empty list = term deleted from the base)
//! that the engine folds back into the arrays once enough edits
//! accumulate ([`InvertedIndex::maybe_compact`] at publish time),
//! mirroring the CSR adjacency's deferred-compaction design.

use crate::tokenize::Tokenizer;
use cla_relational::{ChangeSet, Database, RelationId, TupleId, Value};
use cla_storage::{ByteReader, ByteWriter, SharedBytes, StorageError, StrArena};
use std::collections::HashMap;

/// One posting: a keyword occurrence inside a tuple attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The tuple containing the keyword.
    pub tuple: TupleId,
    /// The attribute position within the tuple.
    pub attribute: usize,
    /// Number of occurrences of the term in that attribute value.
    pub frequency: u32,
}

/// Term → postings index over every text attribute of a database.
///
/// Two kinds of terms are indexed per attribute value:
///
/// * every word token (via [`Tokenizer::tokenize`]);
/// * the normalized *whole value* (via [`Tokenizer::normalize_value`]),
///   when it differs from the single token it would otherwise produce —
///   this implements the paper's "a keyword may match the whole attribute
///   value".
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// Concatenated sorted terms (the dictionary's string arena).
    /// Either owned (built or promoted) or a shared view over the
    /// snapshot image (zero-copy open); [`InvertedIndex::install_base`]
    /// always installs an owned arena, so the first compaction after a
    /// mutated open promotes the dictionary off the image.
    term_arena: StrArena,
    /// `base_len() + 1` byte offsets into `term_arena`.
    term_bounds: Vec<u32>,
    /// `base_len() + 1` offsets into `postings`: term `i`'s group.
    posting_bounds: Vec<u32>,
    /// Contiguous postings grouped by term, each group strictly sorted
    /// by `(tuple, attribute)`.
    postings: Vec<Posting>,
    /// 257-entry first-byte accelerator: `first_byte[b]` is the index
    /// of the first term whose leading byte is ≥ `b`, so a dictionary
    /// probe binary-searches only its own first-byte bucket.
    first_byte: Vec<u32>,
    /// Patch overlay: terms whose effective posting list diverged from
    /// the flat base (an empty list tombstones a base term).
    overlay: HashMap<String, Vec<Posting>>,
    /// Structural posting edits recorded in the overlay since the last
    /// compaction (drives [`InvertedIndex::maybe_compact`]).
    pending_edits: usize,
    tokenizer: Tokenizer,
    indexed_tuples: usize,
    /// Distinct live terms, maintained across overlay transitions so
    /// [`InvertedIndex::term_count`] stays O(1).
    live_terms: usize,
}

/// Overlay edits that trigger a deferred fold-back into the flat
/// arrays, mirroring the CSR adjacency's compaction threshold.
const COMPACT_THRESHOLD: usize = 128;

impl InvertedIndex {
    /// Build the index over all text attributes of `db` with the default
    /// tokenizer.
    pub fn build(db: &Database) -> Self {
        Self::build_with(db, Tokenizer::new())
    }

    /// Build with a custom tokenizer.
    pub fn build_with(db: &Database, tokenizer: Tokenizer) -> Self {
        let mut index = InvertedIndex::empty(tokenizer);
        for (rel, schema) in db.catalog().iter() {
            let text_attrs = schema.text_attributes();
            if text_attrs.is_empty() {
                continue;
            }
            for (id, tuple) in db.tuples(rel) {
                index.index_tuple(id, tuple.values(), &text_attrs);
            }
        }
        index.compact();
        debug_assert!(index.posting_order_ok());
        index
    }

    /// An index over nothing: empty flat base, empty overlay.
    fn empty(tokenizer: Tokenizer) -> Self {
        InvertedIndex {
            term_arena: StrArena::empty(),
            term_bounds: vec![0],
            posting_bounds: vec![0],
            postings: Vec::new(),
            first_byte: vec![0; 257],
            overlay: HashMap::new(),
            pending_edits: 0,
            tokenizer,
            indexed_tuples: 0,
            live_terms: 0,
        }
    }

    /// Number of terms in the flat base (live or tombstoned).
    fn base_len(&self) -> usize {
        self.term_bounds.len() - 1
    }

    /// Base term `i`'s text.
    fn base_term(&self, i: usize) -> &str {
        self.term_arena
            .get(self.term_bounds[i], self.term_bounds[i + 1])
            // lint: allow(unwrap, every term slice was bounds- and UTF-8-validated at decode; owned arenas are built from strs)
            .expect("term bounds validated at decode")
    }

    /// Whether the flat base still reads out of the snapshot image
    /// (true only for an opened, not-yet-compacted dictionary).
    pub fn base_is_image_backed(&self) -> bool {
        matches!(self.term_arena, StrArena::Shared(_))
    }

    /// Base term `i`'s posting group.
    fn base_postings(&self, i: usize) -> &[Posting] {
        &self.postings[self.posting_bounds[i] as usize..self.posting_bounds[i + 1] as usize]
    }

    /// Dictionary probe: binary search within the term's first-byte
    /// bucket of the sorted flat dictionary.
    fn base_find(&self, term: &str) -> Option<usize> {
        let &first = term.as_bytes().first()?;
        let mut lo = self.first_byte[first as usize] as usize;
        let mut hi = self.first_byte[first as usize + 1] as usize;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.base_term(mid).cmp(term) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// The effective posting list of `term`: the overlay entry when the
    /// term diverged, the flat base group otherwise. `None` when the
    /// term holds no postings (absent or tombstoned).
    fn effective(&self, term: &str) -> Option<&[Posting]> {
        if let Some(list) = self.overlay.get(term) {
            return if list.is_empty() { None } else { Some(list) };
        }
        self.base_find(term).map(|i| self.base_postings(i))
    }

    /// Whether either representation has ever heard of `term` (used by
    /// the debug asserts guarding impossible unindex paths).
    fn knows_term(&self, term: &str) -> bool {
        self.overlay.contains_key(term) || self.base_find(term).is_some()
    }

    /// Materialize `term`'s effective list into the overlay and return
    /// it mutably — structural edits never touch the flat base in
    /// place.
    fn overlay_entry(&mut self, term: &str) -> &mut Vec<Posting> {
        if !self.overlay.contains_key(term) {
            let base = self
                .base_find(term)
                .map(|i| self.base_postings(i).to_vec())
                .unwrap_or_default();
            self.overlay.insert(term.to_owned(), base);
        }
        // lint: allow(unwrap, the entry was inserted just above)
        self.overlay.get_mut(term).expect("overlay entry materialized above")
    }

    /// Insert `posting` at its sorted slot in `term`'s list. Panics if
    /// the `(tuple, attribute)` pair is already present — a pair is
    /// indexed exactly once.
    fn insert_posting(&mut self, term: &str, posting: Posting) {
        self.pending_edits += 1;
        let list = self.overlay_entry(term);
        let was_empty = list.is_empty();
        match list.binary_search_by_key(&(posting.tuple, posting.attribute), |p| {
            (p.tuple, p.attribute)
        }) {
            Ok(_) => unreachable!("a (tuple, attribute) pair is indexed once"),
            Err(pos) => list.insert(pos, posting),
        }
        if was_empty {
            self.live_terms += 1;
        }
    }

    /// Remove the `(tuple, attribute)` posting of `term`, returning it
    /// (`None` when no such posting exists). A drained term stays in
    /// the overlay as an empty tombstone when the base knows it, and is
    /// dropped entirely otherwise.
    fn remove_posting(
        &mut self,
        term: &str,
        tuple: TupleId,
        attribute: usize,
    ) -> Option<Posting> {
        if !self.knows_term(term) {
            return None;
        }
        self.pending_edits += 1;
        let (removed, now_empty) = {
            let list = self.overlay_entry(term);
            let removed = match list
                .binary_search_by_key(&(tuple, attribute), |p| (p.tuple, p.attribute))
            {
                Ok(pos) => Some(list.remove(pos)),
                Err(_) => None,
            };
            (removed, list.is_empty())
        };
        if removed.is_some() && now_empty {
            self.live_terms -= 1;
        }
        if now_empty && self.base_find(term).is_none() {
            self.overlay.remove(term);
        }
        removed
    }

    /// Point a posting's frequency at a new value, in whichever
    /// representation currently holds it. Frequency edits preserve sort
    /// order, so the flat base is patched in place — no overlay
    /// materialization, no pending-edit charge. Returns the prior
    /// value.
    fn set_frequency(
        &mut self,
        term: &str,
        tuple: TupleId,
        attribute: usize,
        frequency: u32,
    ) -> Option<u32> {
        let key = (tuple, attribute);
        if let Some(list) = self.overlay.get_mut(term) {
            let pos = list.binary_search_by_key(&key, |p| (p.tuple, p.attribute)).ok()?;
            let old = list[pos].frequency;
            list[pos].frequency = frequency;
            return Some(old);
        }
        let i = self.base_find(term)?;
        let (lo, hi) = (self.posting_bounds[i] as usize, self.posting_bounds[i + 1] as usize);
        let group = &mut self.postings[lo..hi];
        let pos = group.binary_search_by_key(&key, |p| (p.tuple, p.attribute)).ok()?;
        let old = group[pos].frequency;
        group[pos].frequency = frequency;
        Some(old)
    }

    /// The term → frequency map of one attribute value: every word token
    /// (via [`Tokenizer::tokenize`]) plus the normalized whole value —
    /// the single source of truth shared by [`InvertedIndex::build_with`]
    /// and [`InvertedIndex::apply`], so incremental unindexing always
    /// regenerates exactly the terms indexing produced.
    fn terms_of(&self, value: &str) -> HashMap<String, u32> {
        let mut counts: HashMap<String, u32> = HashMap::new();
        for tok in self.tokenizer.tokenize(value) {
            *counts.entry(tok).or_insert(0) += 1;
        }
        let whole = self.tokenizer.normalize_value(value);
        if !whole.is_empty() && !counts.contains_key(&whole) {
            counts.insert(whole, 1);
        }
        counts
    }

    /// Add one tuple's postings, keeping every touched list sorted by
    /// `(tuple, attribute)` (insert position found by binary search).
    fn index_tuple(&mut self, id: TupleId, values: &[Value], text_attrs: &[usize]) {
        self.indexed_tuples += 1;
        for &attr in text_attrs {
            let Some(value) = values.get(attr).and_then(Value::as_text) else {
                continue;
            };
            for (term, frequency) in self.terms_of(value) {
                self.insert_posting(&term, Posting { tuple: id, attribute: attr, frequency });
            }
        }
    }

    /// Patch one tuple's postings for an in-place update, as a **diff**
    /// between its old and new value snapshots: per changed attribute,
    /// terms only in the old value lose their posting, terms only in the
    /// new value gain one, terms in both adjust their stored frequency
    /// in place — unchanged attributes (and unchanged terms) are never
    /// touched, unlike a blind delete + re-insert. `indexed_tuples` is
    /// unchanged (same tuple, same id).
    fn update_tuple(
        &mut self,
        id: TupleId,
        old_values: &[Value],
        new_values: &[Value],
        text_attrs: &[usize],
    ) {
        for &attr in text_attrs {
            let old_text = old_values.get(attr).and_then(Value::as_text);
            let new_text = new_values.get(attr).and_then(Value::as_text);
            if old_text == new_text {
                continue;
            }
            let old_terms = old_text.map(|v| self.terms_of(v)).unwrap_or_default();
            let new_terms = new_text.map(|v| self.terms_of(v)).unwrap_or_default();
            for term in old_terms.keys() {
                if new_terms.contains_key(term) {
                    continue; // survives; frequency handled below
                }
                if !self.knows_term(term) {
                    debug_assert!(false, "updating a term that was never indexed");
                    continue;
                }
                self.remove_posting(term, id, attr);
            }
            for (term, &frequency) in &new_terms {
                match old_terms.get(term) {
                    None => {
                        self.insert_posting(
                            term,
                            Posting { tuple: id, attribute: attr, frequency },
                        );
                    }
                    Some(&old_frequency) if old_frequency != frequency => {
                        self.set_frequency(term, id, attr, frequency)
                            // lint: allow(unwrap, the tuple was indexed under this term)
                            .expect("surviving term has this tuple's posting");
                    }
                    Some(_) => {} // same term, same frequency: untouched
                }
            }
        }
    }

    /// Remove one tuple's postings, regenerating its terms from the
    /// snapshot `values` (the tuple itself may already be gone from the
    /// database). Terms whose lists drain are dropped entirely so the
    /// patched index is structurally identical to a fresh build.
    fn unindex_tuple(&mut self, id: TupleId, values: &[Value], text_attrs: &[usize]) {
        self.indexed_tuples -= 1;
        for &attr in text_attrs {
            let Some(value) = values.get(attr).and_then(Value::as_text) else {
                continue;
            };
            for term in self.terms_of(value).into_keys() {
                if !self.knows_term(&term) {
                    debug_assert!(false, "unindexing a term that was never indexed");
                    continue;
                }
                self.remove_posting(&term, id, attr);
            }
        }
    }

    /// Patch the index in place with a batch of database mutations.
    ///
    /// `db` must be the database the changes were drained from (its
    /// catalog drives which attributes are text); postings of deleted
    /// tuples are regenerated from the change-time value snapshots, so
    /// the tuples being tombstoned already is fine. Updates are applied
    /// as a **diff** of the old and new snapshots (unchanged attributes
    /// and terms untouched, frequencies adjusted in place — see
    /// `update_tuple`). Insert-then-delete spans within the batch cancel
    /// out, intermediate updates included. After the patch the index is
    /// **equivalent to a fresh [`InvertedIndex::build_with`]** over the
    /// mutated database with the same tokenizer: identical term set,
    /// identical posting lists (still sorted by `(tuple, attribute)` —
    /// the invariant [`InvertedIndex::matching_tuples`]' dedup and all
    /// df/idf statistics rest on), identical
    /// [`InvertedIndex::indexed_tuples`].
    pub fn apply(&mut self, db: &Database, changes: &ChangeSet) {
        for op in changes.net_ops() {
            let change = op.change();
            let Some(schema) = db.catalog().relation(change.id.relation) else {
                debug_assert!(false, "change for unknown relation {}", change.id.relation);
                continue;
            };
            let text_attrs = schema.text_attributes();
            if text_attrs.is_empty() {
                continue; // relation contributes nothing to the index
            }
            if let Some((old, new)) = op.update_sides() {
                self.update_tuple(change.id, &old.values, &new.values, &text_attrs);
            } else if op.is_insert() {
                self.index_tuple(change.id, &change.values, &text_attrs);
            } else {
                self.unindex_tuple(change.id, &change.values, &text_attrs);
            }
        }
        debug_assert!(self.posting_order_ok(), "apply must preserve posting order");
    }

    /// The posting-order invariant, stated explicitly: every posting list
    /// is strictly sorted by `(tuple, attribute)`. `matching_tuples`
    /// dedups adjacent tuples and the df/idf statistics count distinct
    /// tuples under that assumption; incremental patching asserts it in
    /// debug builds after every [`InvertedIndex::apply`], and tests call
    /// it directly.
    pub fn posting_order_ok(&self) -> bool {
        fn strictly_sorted(list: &[Posting]) -> bool {
            list.windows(2)
                .all(|w| (w[0].tuple, w[0].attribute) < (w[1].tuple, w[1].attribute))
        }
        let base_ok = (0..self.base_len()).all(|i| {
            let list = self.base_postings(i);
            !list.is_empty() && strictly_sorted(list)
        });
        let dictionary_ok =
            (1..self.base_len()).all(|i| self.base_term(i - 1) < self.base_term(i));
        // Overlay lists stay sorted too; an empty one is only legal as a
        // tombstone of a term the base holds.
        let overlay_ok = self.overlay.iter().all(|(term, list)| {
            strictly_sorted(list) && (!list.is_empty() || self.base_find(term).is_some())
        });
        base_ok && dictionary_ok && overlay_ok
    }

    /// Iterate over `(term, postings)` pairs in unspecified order (used
    /// by equivalence tests comparing a patched index against a fresh
    /// build). Overlay entries shadow their base groups; tombstoned
    /// terms are skipped — callers always see the *effective* index.
    pub fn terms(&self) -> impl Iterator<Item = (&str, &[Posting])> {
        let base = (0..self.base_len()).filter_map(move |i| {
            let term = self.base_term(i);
            (!self.overlay.contains_key(term)).then(|| (term, self.base_postings(i)))
        });
        let patched = self
            .overlay
            .iter()
            .filter(|(_, list)| !list.is_empty())
            .map(|(term, list)| (term.as_str(), list.as_slice()));
        base.chain(patched)
    }

    /// The indexed term nearest to `keyword` by Levenshtein edit
    /// distance over the keyword's normalized form, with the distance.
    /// Ties break to the lexicographically smaller term so diagnostics
    /// are deterministic. `None` on an empty index.
    ///
    /// This is the "did you mean" half of a relaxation ladder: when a
    /// keyword matches nothing, the caller can surface (or silently
    /// retry with) the closest term the index actually holds.
    pub fn nearest_term(&self, keyword: &str) -> Option<(String, usize)> {
        let needle = self.tokenizer.normalize_value(keyword);
        let mut best: Option<(&str, usize)> = None;
        for (term, _) in self.terms() {
            // Length difference lower-bounds the edit distance; skip
            // terms that cannot beat the best found so far.
            let bound = term.chars().count().abs_diff(needle.chars().count());
            if let Some((best_term, best_d)) = best {
                if bound > best_d || (bound == best_d && term >= best_term) {
                    continue;
                }
            }
            let d = levenshtein(&needle, term);
            match best {
                Some((t, bd)) if (d, term) < (bd, t) => best = Some((term, d)),
                None => best = Some((term, d)),
                _ => {}
            }
        }
        best.map(|(t, d)| (t.to_owned(), d))
    }

    /// The tokenizer used at build time (queries must normalize the same
    /// way).
    pub fn tokenizer(&self) -> &Tokenizer {
        &self.tokenizer
    }

    /// Postings for `keyword`. Empty slice if the keyword does not occur.
    ///
    /// The keyword is normalized **through the index's own tokenizer**,
    /// mirroring what indexing did to the data (a hardcoded
    /// `trim().to_lowercase()` here would diverge from indexes built
    /// `with_stopwords`/`with_min_len` or from punctuated keywords):
    ///
    /// * if the keyword tokenizes to exactly **one token**, that token is
    ///   looked up — so `"XML!"` finds the word postings of `xml`;
    /// * a **multi-token** keyword (e.g. `DB-project`) can only have been
    ///   indexed as a whole attribute value, so its
    ///   [`Tokenizer::normalize_value`] form is looked up (per-token
    ///   conjunction would need positional data the index does not
    ///   keep — callers wanting AND-of-words semantics pass the words as
    ///   separate keywords);
    /// * a keyword whose tokens are all filtered away (stopword or
    ///   below `min_len`) falls back to the whole-value form as well,
    ///   since whole-value terms bypass the token filters at build time.
    pub fn lookup(&self, keyword: &str) -> &[Posting] {
        let tokens = self.tokenizer.tokenize(keyword);
        let normalized = match <[String; 1]>::try_from(tokens) {
            Ok([single]) => single,
            Err(_) => self.tokenizer.normalize_value(keyword),
        };
        self.effective(&normalized).unwrap_or(&[])
    }

    /// Distinct tuples containing `keyword`, sorted.
    pub fn matching_tuples(&self, keyword: &str) -> Vec<TupleId> {
        let postings = self.lookup(keyword);
        debug_assert!(
            postings.windows(2).all(|w| w[0].tuple <= w[1].tuple),
            "posting lists must stay sorted by tuple for dedup to count distinct tuples"
        );
        let mut out: Vec<TupleId> = postings.iter().map(|p| p.tuple).collect();
        out.dedup(); // postings are sorted by tuple
        out
    }

    /// Number of distinct tuples containing `keyword` (document
    /// frequency).
    pub fn document_frequency(&self, keyword: &str) -> usize {
        self.matching_tuples(keyword).len()
    }

    /// Number of distinct indexed terms.
    pub fn term_count(&self) -> usize {
        self.live_terms
    }

    /// Number of tuples that were scanned for indexing (tuples of
    /// relations with at least one text attribute).
    pub fn indexed_tuples(&self) -> usize {
        self.indexed_tuples
    }

    /// Total frequency of `keyword` inside tuple `t` across attributes
    /// (0 when absent).
    pub fn frequency_in(&self, keyword: &str, t: TupleId) -> u32 {
        self.lookup(keyword).iter().filter(|p| p.tuple == t).map(|p| p.frequency).sum()
    }

    /// Structural posting edits accumulated in the overlay since the
    /// last compaction.
    pub fn pending_edits(&self) -> usize {
        self.pending_edits
    }

    /// Fold the patch overlay back into the flat arrays: tombstoned
    /// terms vanish, diverged lists replace their base groups, new
    /// terms merge into the sorted dictionary. Afterwards the overlay
    /// is empty and the index is byte-for-byte what a fresh
    /// [`InvertedIndex::build_with`] over the same content produces.
    pub fn compact(&mut self) {
        if self.overlay.is_empty() {
            self.pending_edits = 0;
            return;
        }
        let mut overlay = std::mem::take(&mut self.overlay);
        let mut entries: Vec<(String, Vec<Posting>)> =
            Vec::with_capacity(self.base_len() + overlay.len());
        for i in 0..self.base_len() {
            let term = self.base_term(i);
            match overlay.remove(term) {
                Some(list) if list.is_empty() => {} // tombstoned
                Some(list) => entries.push((term.to_owned(), list)),
                None => entries.push((term.to_owned(), self.base_postings(i).to_vec())),
            }
        }
        for (term, list) in overlay {
            if !list.is_empty() {
                entries.push((term, list));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        self.install_base(entries);
    }

    /// Deferred compaction: fold the overlay once enough structural
    /// edits accumulated, mirroring the CSR adjacency's threshold.
    /// Called by the engine at publish time; returns whether a fold
    /// ran.
    pub fn maybe_compact(&mut self) -> bool {
        if self.pending_edits >= COMPACT_THRESHOLD {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Install `entries` (strictly sorted by term, lists non-empty and
    /// sorted) as the new flat base, clearing the overlay.
    fn install_base(&mut self, entries: Vec<(String, Vec<Posting>)>) {
        let mut arena = String::new();
        let mut term_bounds = Vec::with_capacity(entries.len() + 1);
        let mut posting_bounds = Vec::with_capacity(entries.len() + 1);
        let mut postings =
            Vec::with_capacity(entries.iter().map(|(_, l)| l.len()).sum::<usize>());
        term_bounds.push(0);
        posting_bounds.push(0);
        for (term, list) in &entries {
            arena.push_str(term);
            term_bounds.push(arena.len() as u32);
            postings.extend_from_slice(list);
            posting_bounds.push(postings.len() as u32);
        }
        self.live_terms = entries.len();
        self.term_arena = StrArena::Owned(arena);
        self.term_bounds = term_bounds;
        self.posting_bounds = posting_bounds;
        self.postings = postings;
        self.overlay.clear();
        self.pending_edits = 0;
        self.rebuild_first_byte();
    }

    /// Recompute the 257-entry first-byte bucket index over the sorted
    /// dictionary (a counting pass + prefix sum). Reads leading bytes
    /// straight off the arena — no per-term `str` materialization, so
    /// the zero-copy open pays no UTF-8 re-validation here.
    fn rebuild_first_byte(&mut self) {
        let arena = self.term_arena.as_bytes();
        let mut counts = [0u32; 256];
        for i in 0..self.base_len() {
            counts[arena[self.term_bounds[i] as usize] as usize] += 1;
        }
        let mut fb = vec![0u32; 257];
        for b in 0..256 {
            fb[b + 1] = fb[b] + counts[b];
        }
        self.first_byte = fb;
    }

    /// Serialize into a snapshot-section payload (format v2): tokenizer
    /// config and tuple counter, then the flat dictionary **in its
    /// in-memory shape** — one string arena, `n+1` term bounds, `n+1`
    /// posting bounds, one contiguous posting array — so a decoder can
    /// keep the arena as a view over the image instead of re-building
    /// owned strings. The overlay is folded *logically* during the walk
    /// — encoding never mutates `self` — so an uncompacted index and
    /// its compacted twin encode byte-identically.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.len(self.tokenizer.min_len());
        let stopwords = self.tokenizer.stopwords_sorted();
        w.len(stopwords.len());
        for word in stopwords {
            w.str(word);
        }
        w.len(self.indexed_tuples);
        let mut entries: Vec<(&str, &[Posting])> = self.terms().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        w.len(entries.len());
        let arena_len: usize = entries.iter().map(|(t, _)| t.len()).sum();
        let mut arena = String::with_capacity(arena_len);
        for (term, _) in &entries {
            arena.push_str(term);
        }
        w.bytes(arena.as_bytes());
        let mut bound = 0u32;
        w.u32(bound);
        for (term, _) in &entries {
            bound += term.len() as u32;
            w.u32(bound);
        }
        let mut bound = 0u32;
        w.u32(bound);
        for (_, list) in &entries {
            bound += list.len() as u32;
            w.u32(bound);
        }
        w.len(entries.iter().map(|(_, l)| l.len()).sum::<usize>());
        for (_, list) in &entries {
            for p in *list {
                w.u32(p.tuple.relation.0);
                w.u32(p.tuple.row);
                w.len(p.attribute);
                w.u32(p.frequency);
            }
        }
        w.into_vec()
    }

    /// Decode a payload written by [`InvertedIndex::encode`], keeping
    /// the term arena as a **shared view over the section bytes** — no
    /// per-term `String`. Every count, ordering, UTF-8, and
    /// non-emptiness invariant is validated here, once, so corrupt
    /// input yields a typed error — never a panic, never a structurally
    /// broken index — and post-validation accessors can trust the
    /// bounds. Postings and bounds are decoded into owned `Vec`s (a
    /// handful of capacity-reserved allocations, independent of
    /// database size) because safe Rust cannot reinterpret raw bytes as
    /// typed arrays.
    pub fn decode(section: SharedBytes) -> Result<Self, StorageError> {
        let mut r = ByteReader::new(section.as_slice());
        let min_len = r.u32()? as usize;
        let n_stop = r.len_of(4)?;
        let mut words = Vec::with_capacity(n_stop);
        for _ in 0..n_stop {
            words.push(r.str()?);
        }
        let tokenizer = Tokenizer::new().with_min_len(min_len).with_stopwords(words);
        let indexed_tuples = r.u32()? as usize;
        // Each term costs ≥ 9 bytes (one arena byte + two u32 bounds).
        let n_terms = r.len_of(9)?;
        let arena = r.bytes()?;
        let arena_start = r.position() - arena.len();
        // One UTF-8 validation over the whole arena; the per-term checks
        // below then reduce to char-boundary probes plus adjacent
        // byte-slice comparisons (UTF-8 byte order equals `str`
        // lexicographic order, which is the order probe lookups rely
        // on).
        let arena_str = std::str::from_utf8(arena)
            .map_err(|_| StorageError::Malformed("invalid UTF-8 in term arena".into()))?;
        let tb_bytes = r.raw((n_terms + 1) * 4)?;
        let mut term_bounds = Vec::with_capacity(n_terms + 1);
        term_bounds.extend(
            tb_bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        if term_bounds[0] != 0 || term_bounds[n_terms] as usize != arena.len() {
            return Err(StorageError::Malformed(format!(
                "term bounds must span 0..{} exactly",
                arena.len()
            )));
        }
        let mut prev_term: &[u8] = &[];
        for win in term_bounds.windows(2) {
            let (lo, hi) = (win[0] as usize, win[1] as usize);
            // `lo < hi` for every window makes the bounds strictly
            // monotone, so with the 0 / arena-len endpoints above every
            // bound is in range; a wild `hi` fails the boundary probe.
            if lo >= hi || !arena_str.is_char_boundary(hi) {
                return Err(StorageError::Malformed(
                    "empty or unordered term in dictionary".into(),
                ));
            }
            let term = &arena[lo..hi];
            if prev_term >= term {
                return Err(StorageError::Malformed(format!(
                    "term dictionary not sorted at {:?}",
                    &arena_str[lo..hi]
                )));
            }
            prev_term = term;
        }
        let pb_bytes = r.raw((n_terms + 1) * 4)?;
        let mut posting_bounds = Vec::with_capacity(n_terms + 1);
        posting_bounds.extend(
            pb_bytes.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
        );
        let n_post = r.len_of(16)?;
        if posting_bounds[0] != 0 || posting_bounds[n_terms] as usize != n_post {
            return Err(StorageError::Malformed(format!(
                "posting bounds must span 0..{n_post} exactly"
            )));
        }
        if posting_bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(StorageError::Malformed(
                "a term has an empty or unordered posting group".into(),
            ));
        }
        let post_bytes = r.raw(n_post * 16)?;
        let mut postings = Vec::with_capacity(n_post);
        postings.extend(post_bytes.chunks_exact(16).map(|c| Posting {
            tuple: TupleId::new(
                RelationId(u32::from_le_bytes([c[0], c[1], c[2], c[3]])),
                u32::from_le_bytes([c[4], c[5], c[6], c[7]]),
            ),
            attribute: u32::from_le_bytes([c[8], c[9], c[10], c[11]]) as usize,
            frequency: u32::from_le_bytes([c[12], c[13], c[14], c[15]]),
        }));
        for win in posting_bounds.windows(2) {
            let group = &postings[win[0] as usize..win[1] as usize];
            let sorted = group
                .windows(2)
                .all(|w| (w[0].tuple, w[0].attribute) < (w[1].tuple, w[1].attribute));
            if !sorted {
                return Err(StorageError::Malformed(
                    "a posting group is not sorted by (tuple, attribute)".into(),
                ));
            }
        }
        r.finish()?;
        let arena_view = section.slice(arena_start..arena_start + arena.len())?;
        let mut index = InvertedIndex::empty(tokenizer);
        index.term_arena = StrArena::Shared(arena_view);
        index.term_bounds = term_bounds;
        index.posting_bounds = posting_bounds;
        index.postings = postings;
        index.live_terms = n_terms;
        index.indexed_tuples = indexed_tuples;
        index.rebuild_first_byte();
        debug_assert!(index.posting_order_ok());
        Ok(index)
    }
}

/// Levenshtein edit distance over Unicode scalar values (two-row DP).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_relational::{DataType, SchemaBuilder, Value};

    /// A fragment of the paper's Figure 2 database.
    fn db() -> Database {
        let catalog = SchemaBuilder::new()
            .relation("DEPARTMENT", |r| {
                r.attr("ID", DataType::Text)
                    .attr("D_NAME", DataType::Text)
                    .attr("D_DESCRIPTION", DataType::Text)
                    .primary_key(&["ID"])
            })
            .relation("EMPLOYEE", |r| {
                r.attr("SSN", DataType::Text)
                    .attr("L_NAME", DataType::Text)
                    .attr("S_NAME", DataType::Text)
                    .primary_key(&["SSN"])
            })
            .relation("HOURS_ONLY", |r| {
                r.attr("ID", DataType::Int).attr("H", DataType::Int).primary_key(&["ID"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let dept = db.catalog().relation_id("DEPARTMENT").unwrap();
        let emp = db.catalog().relation_id("EMPLOYEE").unwrap();
        let h = db.catalog().relation_id("HOURS_ONLY").unwrap();
        db.insert(
            dept,
            vec![
                "d1".into(),
                "Cs".into(),
                "The main topics of teaching are programming, databases and XML.".into(),
            ],
        )
        .unwrap();
        db.insert(
            dept,
            vec![
                "d2".into(),
                "inf".into(),
                "The main topics of teaching are information retrieval and XML.".into(),
            ],
        )
        .unwrap();
        db.insert(emp, vec!["e1".into(), "Smith".into(), "John".into()]).unwrap();
        db.insert(emp, vec!["e2".into(), "Smith".into(), "Barbara".into()]).unwrap();
        db.insert(h, vec![Value::from(1i64), Value::from(40i64)]).unwrap();
        db
    }

    #[test]
    fn keyword_matches_word_in_text_attribute() {
        let idx = InvertedIndex::build(&db());
        assert_eq!(idx.matching_tuples("XML").len(), 2);
        assert_eq!(idx.matching_tuples("xml").len(), 2);
        assert_eq!(idx.document_frequency("databases"), 1);
    }

    #[test]
    fn keyword_matches_whole_attribute_value() {
        let idx = InvertedIndex::build(&db());
        assert_eq!(idx.matching_tuples("Smith").len(), 2);
        assert_eq!(idx.matching_tuples("Cs").len(), 1);
    }

    #[test]
    fn missing_keyword_yields_nothing() {
        let idx = InvertedIndex::build(&db());
        assert!(idx.lookup("quantum").is_empty());
        assert!(idx.matching_tuples("quantum").is_empty());
        assert_eq!(idx.document_frequency("quantum"), 0);
    }

    #[test]
    fn postings_carry_attribute_and_frequency() {
        let idx = InvertedIndex::build(&db());
        let posts = idx.lookup("teaching");
        assert_eq!(posts.len(), 2);
        for p in posts {
            assert_eq!(p.attribute, 2); // D_DESCRIPTION
            assert_eq!(p.frequency, 1);
        }
    }

    #[test]
    fn frequency_counts_repeats() {
        let catalog = SchemaBuilder::new()
            .relation("R", |r| {
                r.attr("ID", DataType::Int).attr("T", DataType::Text).primary_key(&["ID"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let r = db.catalog().relation_id("R").unwrap();
        let t = db.insert(r, vec![1i64.into(), "xml loves xml and XML".into()]).unwrap();
        let idx = InvertedIndex::build(&db);
        assert_eq!(idx.frequency_in("xml", t), 3);
        assert_eq!(idx.frequency_in("loves", t), 1);
        assert_eq!(idx.frequency_in("nothing", t), 0);
    }

    #[test]
    fn non_text_relations_do_not_contribute() {
        let idx = InvertedIndex::build(&db());
        assert!(idx.matching_tuples("40").is_empty());
        // 2 departments + 2 employees indexed; HOURS_ONLY skipped.
        assert_eq!(idx.indexed_tuples(), 4);
    }

    #[test]
    fn whole_value_term_includes_punctuated_values() {
        let catalog = SchemaBuilder::new()
            .relation("P", |r| {
                r.attr("ID", DataType::Text)
                    .attr("P_NAME", DataType::Text)
                    .primary_key(&["ID"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let p = db.catalog().relation_id("P").unwrap();
        db.insert(p, vec!["p1".into(), "DB-project".into()]).unwrap();
        let idx = InvertedIndex::build(&db);
        assert_eq!(idx.matching_tuples("db-project").len(), 1);
        assert_eq!(idx.matching_tuples("db").len(), 1);
        assert_eq!(idx.matching_tuples("project").len(), 1);
    }

    #[test]
    fn term_count_is_positive_and_stable() {
        let idx = InvertedIndex::build(&db());
        let n = idx.term_count();
        assert!(n > 10);
        let idx2 = InvertedIndex::build(&db());
        assert_eq!(idx2.term_count(), n);
    }

    /// Regression (lookup/build normalization mismatch): a punctuated
    /// keyword must normalize through the tokenizer, not a bare
    /// `trim().to_lowercase()` — `"XML!"` tokenizes to `xml` and must
    /// find the word postings.
    #[test]
    fn punctuated_keyword_normalizes_like_indexing() {
        let idx = InvertedIndex::build(&db());
        assert_eq!(idx.matching_tuples("XML!").len(), 2);
        assert_eq!(idx.matching_tuples("  xml, ").len(), 2);
        assert_eq!(idx.matching_tuples("teaching..."), idx.matching_tuples("teaching"));
    }

    /// Regression: an index built `with_min_len` must apply the same
    /// filter at query time — and keywords filtered to nothing fall back
    /// to whole-value semantics, which bypass token filters at build.
    #[test]
    fn min_len_index_is_queryable_consistently() {
        let catalog = SchemaBuilder::new()
            .relation("R", |r| {
                r.attr("ID", DataType::Int).attr("T", DataType::Text).primary_key(&["ID"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let r = db.catalog().relation_id("R").unwrap();
        db.insert(r, vec![1i64.into(), "an IR task".into()]).unwrap();
        db.insert(r, vec![2i64.into(), "IR".into()]).unwrap();
        let idx = InvertedIndex::build_with(&db, Tokenizer::new().with_min_len(3));
        // "task" survives the filter and is indexed as a word.
        assert_eq!(idx.matching_tuples("task").len(), 1);
        assert_eq!(idx.matching_tuples("task!").len(), 1);
        // "IR" is filtered as a word token; only the whole value "ir" of
        // tuple 2 matches — exactly what indexing produced.
        assert_eq!(idx.matching_tuples("IR").len(), 1);
        assert_eq!(idx.matching_tuples(" ir ").len(), 1);
    }

    /// Regression: stopword indexes drop the word at build time, so a
    /// stopword keyword only matches whole attribute values.
    #[test]
    fn stopword_index_is_queryable_consistently() {
        let catalog = SchemaBuilder::new()
            .relation("R", |r| {
                r.attr("ID", DataType::Int).attr("T", DataType::Text).primary_key(&["ID"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let r = db.catalog().relation_id("R").unwrap();
        db.insert(r, vec![1i64.into(), "the big answer".into()]).unwrap();
        db.insert(r, vec![2i64.into(), "The".into()]).unwrap();
        let idx = InvertedIndex::build_with(&db, Tokenizer::new().with_stopwords(["the"]));
        assert_eq!(idx.matching_tuples("answer").len(), 1);
        // Word occurrences of "the" were never indexed; the whole-value
        // tuple 2 still matches.
        assert_eq!(idx.matching_tuples("The").len(), 1);
    }

    /// Multi-token keywords use whole-value semantics (documented on
    /// `lookup`): `DB-project` matches the whole attribute value, not an
    /// AND over its word tokens.
    #[test]
    fn multi_token_keyword_matches_whole_value_only() {
        let catalog = SchemaBuilder::new()
            .relation("P", |r| {
                r.attr("ID", DataType::Text)
                    .attr("P_NAME", DataType::Text)
                    .primary_key(&["ID"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let p = db.catalog().relation_id("P").unwrap();
        db.insert(p, vec!["p1".into(), "DB-project".into()]).unwrap();
        db.insert(p, vec!["p2".into(), "the DB-project rocks".into()]).unwrap();
        let idx = InvertedIndex::build(&db);
        // Whole-value match on p1 only; p2's value tokenizes around the
        // hyphen so the exact phrase is not reconstructible.
        assert_eq!(idx.matching_tuples("DB-project").len(), 1);
        // The individual words match both.
        assert_eq!(idx.matching_tuples("db").len(), 2);
        assert_eq!(idx.matching_tuples("project").len(), 2);
    }

    #[test]
    fn apply_patches_inserts_and_deletes_to_rebuild_equivalence() {
        let mut database = db();
        let idx0 = InvertedIndex::build(&database);
        database.take_changes(); // discard the load-time log
        let mut idx = idx0.clone();

        let emp = database.catalog().relation_id("EMPLOYEE").unwrap();
        let dept = database.catalog().relation_id("DEPARTMENT").unwrap();
        let e3 =
            database.insert(emp, vec!["e3".into(), "Smith".into(), "Xml".into()]).unwrap();
        let e1 = database.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        database.delete(e1).unwrap();
        let d3 = database
            .insert(dept, vec!["d3".into(), "bio".into(), "genomes and XML".into()])
            .unwrap();
        database.delete(d3).unwrap(); // insert-then-delete cancels

        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert!(idx.posting_order_ok());

        let fresh = InvertedIndex::build(&database);
        assert_eq!(idx.indexed_tuples(), fresh.indexed_tuples());
        assert_eq!(idx.term_count(), fresh.term_count());
        let mut a: Vec<(&str, &[Posting])> = idx.terms().collect();
        let mut b: Vec<(&str, &[Posting])> = fresh.terms().collect();
        a.sort_by_key(|(t, _)| *t);
        b.sort_by_key(|(t, _)| *t);
        assert_eq!(a, b, "patched index must equal a fresh build");

        // Sanity on semantics: e3 now matches, e1 no longer does.
        assert!(idx.matching_tuples("smith").contains(&e3));
        assert!(!idx.matching_tuples("smith").contains(&e1));
        assert_eq!(idx.frequency_in("xml", e3), 1);
    }

    #[test]
    fn apply_preserves_posting_order_with_out_of_order_rows() {
        // Insert tuples whose ids sort *before* existing postings, so the
        // sorted-insert path is exercised away from the append fast path.
        let catalog = SchemaBuilder::new()
            .relation("A", |r| {
                r.attr("ID", DataType::Text).attr("T", DataType::Text).primary_key(&["ID"])
            })
            .relation("B", |r| {
                r.attr("ID", DataType::Text).attr("T", DataType::Text).primary_key(&["ID"])
            })
            .build()
            .unwrap();
        let mut database = Database::new(catalog).unwrap();
        let a = database.catalog().relation_id("A").unwrap();
        let b = database.catalog().relation_id("B").unwrap();
        database.insert(b, vec!["b1".into(), "shared term".into()]).unwrap();
        let mut idx = InvertedIndex::build(&database);
        database.take_changes();
        // New tuple in relation A: its TupleId precedes every B tuple.
        database.insert(a, vec!["a1".into(), "shared term".into()]).unwrap();
        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert!(idx.posting_order_ok());
        let fresh = InvertedIndex::build(&database);
        assert_eq!(idx.matching_tuples("shared"), fresh.matching_tuples("shared"));
        assert_eq!(idx.document_frequency("term"), 2);
    }

    #[test]
    fn apply_patches_updates_as_diffs_to_rebuild_equivalence() {
        let mut database = db();
        database.take_changes();
        let mut idx = InvertedIndex::build(&database);

        let emp = database.catalog().relation_id("EMPLOYEE").unwrap();
        let dept = database.catalog().relation_id("DEPARTMENT").unwrap();
        let e1 = database.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        let d1 = database.lookup_pk(dept, &[Value::from("d1")]).unwrap();
        // Rename e1 (term smith → miller under the same id) and rewrite
        // d1's description (drops `databases`, changes `xml` frequency).
        database.update(e1, vec!["e1".into(), "Miller".into(), "John".into()]).unwrap();
        database
            .update(
                d1,
                vec!["d1".into(), "Cs".into(), "XML teaching, more XML and xml".into()],
            )
            .unwrap();
        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert!(idx.posting_order_ok());

        let fresh = InvertedIndex::build(&database);
        let mut a: Vec<(&str, &[Posting])> = idx.terms().collect();
        let mut b: Vec<(&str, &[Posting])> = fresh.terms().collect();
        a.sort_by_key(|(t, _)| *t);
        b.sort_by_key(|(t, _)| *t);
        assert_eq!(a, b, "diff-patched index must equal a fresh build");
        assert_eq!(idx.indexed_tuples(), fresh.indexed_tuples());
        // Semantics: e1 moved match sets under the same TupleId, the
        // in-place frequency adjustment took.
        assert!(idx.matching_tuples("miller").contains(&e1));
        assert!(!idx.matching_tuples("smith").contains(&e1));
        assert_eq!(idx.frequency_in("xml", d1), 3);
        assert!(idx.matching_tuples("databases").is_empty());
    }

    #[test]
    fn apply_drops_drained_terms_entirely() {
        let catalog = SchemaBuilder::new()
            .relation("R", |r| {
                r.attr("ID", DataType::Text).attr("T", DataType::Text).primary_key(&["ID"])
            })
            .build()
            .unwrap();
        let mut database = Database::new(catalog).unwrap();
        let r = database.catalog().relation_id("R").unwrap();
        let t1 = database.insert(r, vec!["r1".into(), "unique-word".into()]).unwrap();
        let mut idx = InvertedIndex::build(&database);
        database.take_changes();
        let terms_before = idx.term_count();
        database.delete(t1).unwrap();
        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert!(idx.lookup("unique-word").is_empty());
        assert!(idx.term_count() < terms_before);
        assert_eq!(idx.indexed_tuples(), 0);
        assert_eq!(idx.term_count(), InvertedIndex::build(&database).term_count());
    }

    /// Canonical sorted view of an index's effective content.
    fn contents(idx: &InvertedIndex) -> Vec<(String, Vec<Posting>)> {
        let mut v: Vec<_> = idx.terms().map(|(t, l)| (t.to_owned(), l.to_vec())).collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    #[test]
    fn compact_folds_overlay_without_changing_content() {
        let mut database = db();
        database.take_changes();
        let mut idx = InvertedIndex::build(&database);
        assert_eq!(idx.pending_edits(), 0, "a fresh build is compacted");

        let emp = database.catalog().relation_id("EMPLOYEE").unwrap();
        let e1 = database.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        database.insert(emp, vec!["e3".into(), "Turing".into(), "Alan".into()]).unwrap();
        database.update(e1, vec!["e1".into(), "Miller".into(), "John".into()]).unwrap();
        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert!(idx.pending_edits() > 0, "patches land in the overlay");

        let before = contents(&idx);
        let term_count = idx.term_count();
        idx.compact();
        assert_eq!(idx.pending_edits(), 0);
        assert!(idx.posting_order_ok());
        assert_eq!(contents(&idx), before, "compaction must not change content");
        assert_eq!(idx.term_count(), term_count);
        // And the compacted index equals a fresh flat build exactly.
        assert_eq!(contents(&idx), contents(&InvertedIndex::build(&database)));
    }

    #[test]
    fn maybe_compact_fires_at_the_threshold_only() {
        let mut database = db();
        database.take_changes();
        let mut idx = InvertedIndex::build(&database);
        let emp = database.catalog().relation_id("EMPLOYEE").unwrap();
        // One small batch stays under the threshold.
        database.insert(emp, vec!["e9".into(), "Lovelace".into(), "Ada".into()]).unwrap();
        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert!(!idx.maybe_compact(), "a small overlay is kept");
        assert!(idx.pending_edits() > 0);
        // Enough churn trips the deferred fold.
        for i in 0..64 {
            database
                .insert(
                    emp,
                    vec![
                        format!("x{i}").into(),
                        format!("last{i}").into(),
                        format!("first{i}").into(),
                    ],
                )
                .unwrap();
        }
        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert!(idx.maybe_compact(), "a large overlay is folded");
        assert_eq!(idx.pending_edits(), 0);
        assert_eq!(contents(&idx), contents(&InvertedIndex::build(&database)));
    }

    /// Decode from an owned buffer (tests exercise the same shared-view
    /// path the open pipeline uses).
    fn decode(bytes: &[u8]) -> Result<InvertedIndex, StorageError> {
        InvertedIndex::decode(SharedBytes::from_vec(bytes.to_vec()))
    }

    #[test]
    fn encode_decode_round_trips_exactly() {
        let database = db();
        let idx = InvertedIndex::build_with(
            &database,
            Tokenizer::new().with_min_len(2).with_stopwords(["the", "of"]),
        );
        let bytes = idx.encode();
        let back = decode(&bytes).unwrap();
        assert_eq!(contents(&back), contents(&idx));
        assert_eq!(back.indexed_tuples(), idx.indexed_tuples());
        assert_eq!(back.term_count(), idx.term_count());
        assert_eq!(back.tokenizer().min_len(), 2);
        assert_eq!(back.tokenizer().stopwords_sorted(), vec!["of", "the"]);
        // Same queries, same answers, and re-encoding is byte-stable.
        assert_eq!(back.matching_tuples("teaching"), idx.matching_tuples("teaching"));
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn encode_folds_overlay_logically() {
        let mut database = db();
        database.take_changes();
        let mut idx = InvertedIndex::build(&database);
        let emp = database.catalog().relation_id("EMPLOYEE").unwrap();
        database.insert(emp, vec!["e3".into(), "Hopper".into(), "Grace".into()]).unwrap();
        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert!(idx.pending_edits() > 0);
        let encoded_dirty = idx.encode();
        let mut compacted = idx.clone();
        compacted.compact();
        assert_eq!(
            encoded_dirty,
            compacted.encode(),
            "overlay and compacted twins must encode identically"
        );
        let back = decode(&encoded_dirty).unwrap();
        assert_eq!(contents(&back), contents(&idx));
    }

    /// A decoded dictionary reads straight out of the section view; its
    /// first compaction installs an owned arena without changing
    /// content — the promotion contract of the zero-copy open path.
    #[test]
    fn decoded_arena_is_image_backed_until_compaction() {
        let idx = InvertedIndex::build(&db());
        assert!(!idx.base_is_image_backed(), "a built index owns its arena");
        let mut back = decode(&idx.encode()).unwrap();
        assert!(back.base_is_image_backed(), "a decoded index borrows the section");
        assert_eq!(contents(&back), contents(&idx));
        assert_eq!(back.matching_tuples("xml"), idx.matching_tuples("xml"));
        // compact() on an overlay-free index is a no-op (stays shared);
        // force a fold through install_base via a real edit cycle.
        back.compact();
        assert!(back.base_is_image_backed(), "no-op compaction keeps the view");
        let entries: Vec<(String, Vec<Posting>)> = contents(&back);
        back.install_base(entries);
        assert!(!back.base_is_image_backed(), "a fold promotes to an owned arena");
        assert_eq!(contents(&back), contents(&idx));
    }

    /// Assemble a v2 section payload from raw parts, so corruption
    /// tests can violate any single invariant in isolation.
    fn v2_payload(
        arena: &[u8],
        term_bounds: &[u32],
        posting_bounds: &[u32],
        postings: &[(u32, u32, u32, u32)],
    ) -> Vec<u8> {
        let mut w = cla_storage::ByteWriter::new();
        w.u32(0); // min_len
        w.u32(0); // stopwords
        w.u32(1); // indexed_tuples
        w.u32((term_bounds.len() - 1) as u32);
        w.bytes(arena);
        for &b in term_bounds {
            w.u32(b);
        }
        for &b in posting_bounds {
            w.u32(b);
        }
        w.u32(postings.len() as u32);
        for &(rel, row, attr, freq) in postings {
            w.u32(rel);
            w.u32(row);
            w.u32(attr);
            w.u32(freq);
        }
        w.into_vec()
    }

    #[test]
    fn decode_rejects_corrupt_payloads() {
        let idx = InvertedIndex::build(&db());
        let bytes = idx.encode();
        // Truncations anywhere must fail typed, never panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut} must be rejected");
        }
        // Trailing garbage is corruption too.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode(&padded).is_err());
        // Sanity: a minimal well-formed hand-built payload decodes.
        let postings = [(0, 0, 0, 1), (0, 1, 0, 1)];
        let ok = v2_payload(b"applezebra", &[0, 5, 10], &[0, 1, 2], &postings);
        assert!(decode(&ok).is_ok());
        // Every single-invariant violation must yield a typed error.
        let corrupt: Vec<(&str, Vec<u8>)> = vec![
            (
                "unsorted dictionary",
                v2_payload(b"zebraapple", &[0, 5, 10], &[0, 1, 2], &postings),
            ),
            ("duplicate term", v2_payload(b"appleapple", &[0, 5, 10], &[0, 1, 2], &postings)),
            ("empty term", v2_payload(b"apple", &[0, 5, 5], &[0, 1, 2], &postings)),
            (
                "term bound past arena end",
                v2_payload(b"applezebra", &[0, 5, 11], &[0, 1, 2], &postings),
            ),
            (
                "term bound not starting at zero",
                v2_payload(b"applezebra", &[1, 5, 10], &[0, 1, 2], &postings),
            ),
            ("non-UTF-8 arena", v2_payload(&[0xff, 0xfe], &[0, 1, 2], &[0, 1, 2], &postings)),
            (
                "split UTF-8 boundary",
                // "é" is two bytes; a bound through the middle is invalid.
                v2_payload("aé".as_bytes(), &[0, 2, 3], &[0, 1, 2], &postings),
            ),
            (
                "empty posting group",
                v2_payload(b"applezebra", &[0, 5, 10], &[0, 0, 2], &postings),
            ),
            (
                "posting bounds not spanning the array",
                v2_payload(b"applezebra", &[0, 5, 10], &[0, 1, 3], &postings),
            ),
            (
                "unsorted posting group",
                v2_payload(b"apple", &[0, 5], &[0, 2], &[(0, 1, 0, 1), (0, 0, 0, 1)]),
            ),
            (
                "duplicate (tuple, attribute) in group",
                v2_payload(b"apple", &[0, 5], &[0, 2], &[(0, 0, 0, 1), (0, 0, 0, 2)]),
            ),
        ];
        for (what, payload) in corrupt {
            assert!(
                matches!(decode(&payload), Err(StorageError::Malformed(_))),
                "{what} must be rejected with a typed error"
            );
        }
    }

    #[test]
    fn lookup_hits_flat_base_and_overlay_consistently() {
        let mut database = db();
        database.take_changes();
        let mut idx = InvertedIndex::build(&database);
        // Flat-base hit.
        assert_eq!(idx.matching_tuples("xml").len(), 2);
        // Overlay shadow: delete a tuple, the base keeps stale postings
        // but the overlay tombstones/filters them.
        let emp = database.catalog().relation_id("EMPLOYEE").unwrap();
        let e1 = database.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        database.delete(e1).unwrap();
        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert!(!idx.matching_tuples("smith").contains(&e1));
        assert!(!idx.matching_tuples("john").contains(&e1));
        // A term added only via the overlay resolves before compaction.
        database.insert(emp, vec!["e4".into(), "Dijkstra".into(), "Edsger".into()]).unwrap();
        let changes = database.take_changes();
        idx.apply(&database, &changes);
        assert_eq!(idx.matching_tuples("dijkstra").len(), 1);
        idx.compact();
        assert_eq!(idx.matching_tuples("dijkstra").len(), 1);
        assert!(!idx.matching_tuples("smith").contains(&e1));
    }

    #[test]
    fn levenshtein_distance_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("xml", "xml"), 0);
        assert_eq!(levenshtein("xlm", "xml"), 2); // adjacent transposition = 2 edits
    }

    #[test]
    fn nearest_term_suggests_the_closest_indexed_word() {
        let idx = InvertedIndex::build(&db());
        // "xlm" is a typo of the indexed term "xml".
        let (term, d) = idx.nearest_term("xlm").unwrap();
        assert_eq!(term, "xml");
        assert!(d <= 2, "distance {d} should be small for a transposition");
        // Exact hits come back at distance 0.
        assert_eq!(idx.nearest_term("XML"), Some(("xml".into(), 0)));
        // Empty index has nothing to suggest.
        let empty = InvertedIndex::build(
            &Database::new(SchemaBuilder::new().build().unwrap()).unwrap(),
        );
        assert_eq!(empty.nearest_term("xml"), None);
    }
}
