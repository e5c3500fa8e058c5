//! The inverted index over tuple text attributes.
//!
//! The representation is **flat**: one sorted term dictionary (a
//! string arena plus offset bounds) and one contiguous posting array
//! grouped by term — the offset-addressable layout the snapshot file
//! serializes directly. A mutation batch never edits these arrays in
//! place: [`InvertedIndex::apply`] turns the batch into sorted posting
//! edits and merges them with the current arrays into new ones in one
//! pass, and a fresh build is the same merge into an empty index.

use crate::tokenize::Tokenizer;
use cla_relational::{ChangeOp, ChangeSet, Database, RelationId, TupleId, Value};
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
    /// Either owned (built or merged) or a shared view over the
    /// snapshot image (zero-copy open); the first apply that edits an
    /// opened index writes an owned arena.
    term_arena: StrArena,
    /// `term_count() + 1` byte offsets into `term_arena`.
    term_bounds: Vec<u32>,
    /// `term_count() + 1` offsets into `postings`: term `i`'s group.
    posting_bounds: Vec<u32>,
    /// Contiguous postings grouped by term, each group non-empty and
    /// strictly sorted by `(tuple, attribute)`.
    postings: Vec<Posting>,
    /// 257-entry first-byte accelerator: `first_byte[b]` is the index
    /// of the first term whose leading byte is ≥ `b`, so a dictionary
    /// probe binary-searches only its own first-byte bucket.
    first_byte: Vec<u32>,
    tokenizer: Tokenizer,
    indexed_tuples: usize,
}

/// One posting edit of a batch, filed under its term: after the merge
/// the term holds the `(tuple, attribute)` posting with `frequency`, or
/// none when it is `None`.
struct PostingEdit {
    tuple: TupleId,
    attribute: usize,
    frequency: Option<u32>,
}

/// A batch's posting edits, grouped by term.
type Edits = HashMap<String, Vec<PostingEdit>>;

impl InvertedIndex {
    /// Build the index over all text attributes of `db` with the default
    /// tokenizer.
    pub fn build(db: &Database) -> Self {
        Self::build_with(db, Tokenizer::new())
    }

    /// Build with a custom tokenizer: every tuple's postings, merged
    /// into an empty index.
    pub fn build_with(db: &Database, tokenizer: Tokenizer) -> Self {
        let empty = InvertedIndex::empty(tokenizer);
        let mut edits = Edits::new();
        let mut indexed_tuples = 0;
        for (rel, schema) in db.catalog().iter() {
            let text_attrs = schema.text_attributes();
            if text_attrs.is_empty() {
                continue;
            }
            for (id, tuple) in db.tuples(rel) {
                empty.diff_tuple(id, None, Some(tuple.values()), &text_attrs, &mut edits);
                indexed_tuples += 1;
            }
        }
        empty.merged(edits, indexed_tuples)
    }

    /// An index over nothing.
    fn empty(tokenizer: Tokenizer) -> Self {
        InvertedIndex {
            term_arena: StrArena::empty(),
            term_bounds: vec![0],
            posting_bounds: vec![0],
            postings: Vec::new(),
            first_byte: vec![0; 257],
            tokenizer,
            indexed_tuples: 0,
        }
    }

    /// Term `i`'s text.
    fn term(&self, i: usize) -> &str {
        self.term_arena
            .get(self.term_bounds[i], self.term_bounds[i + 1])
            // lint: allow(unwrap, every term slice was bounds- and UTF-8-validated at decode; owned arenas are built from strs)
            .expect("term bounds validated at decode")
    }

    /// Whether the dictionary still reads out of the snapshot image
    /// (true only for an opened index no apply has edited yet).
    pub fn base_is_image_backed(&self) -> bool {
        matches!(self.term_arena, StrArena::Shared(_))
    }

    /// Term `i`'s posting group.
    fn term_postings(&self, i: usize) -> &[Posting] {
        &self.postings[self.posting_bounds[i] as usize..self.posting_bounds[i + 1] as usize]
    }

    /// Index of the first term not less than `term`: a binary search
    /// within the term's first-byte bucket of the sorted dictionary.
    fn lower_bound(&self, term: &str) -> usize {
        let first = term.as_bytes().first().map_or(0, |&b| b as usize);
        let mut lo = self.first_byte[first] as usize;
        let mut hi = self.first_byte[first + 1] as usize;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.term(mid) < term {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// `term`'s posting list, `None` when the index does not hold it.
    fn find(&self, term: &str) -> Option<&[Posting]> {
        let i = self.lower_bound(term);
        (i < self.term_count() && self.term(i) == term).then(|| self.term_postings(i))
    }

    /// The term → frequency map of one attribute value: every word token
    /// (via [`Tokenizer::tokenize`]) plus the normalized whole value —
    /// the single source of truth for building and applying, so a
    /// removal always regenerates exactly the terms indexing produced.
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

    /// File the posting edits that take tuple `id` from its `before`
    /// values to its `after` values (`None`: the tuple does not exist on
    /// that side), as a **diff** per text attribute: terms only before
    /// lose their posting, terms only after gain one, terms on both
    /// sides change only when their frequency does. Unchanged attributes
    /// and terms produce no edit.
    fn diff_tuple(
        &self,
        tuple: TupleId,
        before: Option<&[Value]>,
        after: Option<&[Value]>,
        text_attrs: &[usize],
        edits: &mut Edits,
    ) {
        for &attribute in text_attrs {
            let old = before.and_then(|v| v.get(attribute)).and_then(Value::as_text);
            let new = after.and_then(|v| v.get(attribute)).and_then(Value::as_text);
            if old == new {
                continue;
            }
            let mut old_terms = old.map(|v| self.terms_of(v)).unwrap_or_default();
            for (term, frequency) in new.map(|v| self.terms_of(v)).unwrap_or_default() {
                if old_terms.remove(&term) != Some(frequency) {
                    let edit = PostingEdit { tuple, attribute, frequency: Some(frequency) };
                    edits.entry(term).or_default().push(edit);
                }
            }
            for term in old_terms.into_keys() {
                let edit = PostingEdit { tuple, attribute, frequency: None };
                edits.entry(term).or_default().push(edit);
            }
        }
    }

    /// This index with `edits` (at most one per `(term, tuple,
    /// attribute)`) merged in, as new flat arrays written in one pass
    /// over the current ones: runs of terms no edit touches are copied
    /// in bulk, each edited term's group is merged with its edits, and a
    /// term whose group drains is dropped. No per-term allocation; the
    /// first-byte accelerator is recomputed.
    fn merged(&self, edits: Edits, indexed_tuples: usize) -> InvertedIndex {
        if edits.is_empty() {
            return InvertedIndex { indexed_tuples, ..self.clone() };
        }
        let mut edits: Vec<(String, Vec<PostingEdit>)> = edits.into_iter().collect();
        edits.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let n = self.term_count();
        let mut arena = String::with_capacity(self.term_arena.len());
        let mut term_bounds = Vec::with_capacity(n + edits.len() + 1);
        let mut posting_bounds = Vec::with_capacity(n + edits.len() + 1);
        let mut postings = Vec::with_capacity(self.postings.len() + edits.len());
        term_bounds.push(0);
        posting_bounds.push(0);
        let mut next = 0; // first current term not yet carried over
        for k in 0..=edits.len() {
            // Carry over the terms before the next edited one (all the
            // rest after the last) unchanged.
            let stop = edits.get(k).map_or(n, |(term, _)| self.lower_bound(term));
            let (t0, t1) = (self.term_bounds[next], self.term_bounds[stop]);
            let (p0, p1) = (self.posting_bounds[next], self.posting_bounds[stop]);
            let (arena_at, postings_at) = (arena.len() as u32, postings.len() as u32);
            // lint: allow(unwrap, a run of whole terms starts and ends on term bounds)
            let run = self.term_arena.get(t0, t1).expect("term bounds validated at decode");
            arena.push_str(run);
            postings.extend_from_slice(&self.postings[p0 as usize..p1 as usize]);
            term_bounds
                .extend(self.term_bounds[next + 1..=stop].iter().map(|b| b - t0 + arena_at));
            posting_bounds.extend(
                self.posting_bounds[next + 1..=stop].iter().map(|b| b - p0 + postings_at),
            );
            next = stop;
            let Some((term, term_edits)) = edits.get_mut(k) else {
                break;
            };
            let group = if next < n && self.term(next) == term.as_str() {
                next += 1;
                self.term_postings(next - 1)
            } else {
                &[]
            };
            term_edits.sort_unstable_by_key(|e| (e.tuple, e.attribute));
            let start = postings.len();
            let mut current = group.iter().copied().peekable();
            for e in term_edits.iter() {
                let key = (e.tuple, e.attribute);
                while let Some(p) = current.next_if(|p| (p.tuple, p.attribute) < key) {
                    postings.push(p);
                }
                let replaced = current.next_if(|p| (p.tuple, p.attribute) == key);
                debug_assert!(
                    replaced.is_some() || e.frequency.is_some(),
                    "removing a posting that was never indexed"
                );
                if let Some(frequency) = e.frequency {
                    postings.push(Posting {
                        tuple: e.tuple,
                        attribute: e.attribute,
                        frequency,
                    });
                }
            }
            postings.extend(current);
            if postings.len() > start {
                arena.push_str(term);
                term_bounds.push(arena.len() as u32);
                posting_bounds.push(postings.len() as u32);
            }
        }
        let mut index = InvertedIndex {
            term_arena: StrArena::Owned(arena),
            term_bounds,
            posting_bounds,
            postings,
            first_byte: Vec::new(),
            tokenizer: self.tokenizer.clone(),
            indexed_tuples,
        };
        index.rebuild_first_byte();
        debug_assert!(index.posting_order_ok(), "a merge must preserve posting order");
        index
    }

    /// This index after a batch of database mutations, written as new
    /// flat arrays (`self` is untouched).
    ///
    /// `db` must be the database the changes were drained from (its
    /// catalog drives which attributes are text). Each changed tuple is
    /// diffed once, from its state before the batch (the first op's old
    /// snapshot) to its state after it (the last op's new snapshot), so
    /// postings of deleted tuples come from their change-time values,
    /// an update touches only the terms and frequencies it changed, and
    /// an insert-then-delete span within the batch cancels out. The
    /// result is **identical to a fresh [`InvertedIndex::build_with`]**
    /// over the mutated database with the same tokenizer: same arrays,
    /// so the same [`InvertedIndex::encode`] bytes, and the same
    /// [`InvertedIndex::indexed_tuples`].
    #[must_use = "apply returns the next index; self is unchanged"]
    pub fn apply(&self, db: &Database, changes: &ChangeSet) -> InvertedIndex {
        // A stable sort keeps each tuple's ops in log order.
        let mut ops: Vec<&ChangeOp> = changes.ops().iter().collect();
        ops.sort_by_key(|op| op.change().id);
        let mut edits = Edits::new();
        let mut indexed_tuples = self.indexed_tuples;
        for run in ops.chunk_by(|a, b| a.change().id == b.change().id) {
            let id = run[0].change().id;
            let Some(schema) = db.catalog().relation(id.relation) else {
                debug_assert!(false, "change for unknown relation {}", id.relation);
                continue;
            };
            let text_attrs = schema.text_attributes();
            if text_attrs.is_empty() {
                continue; // relation contributes nothing to the index
            }
            let before = match run[0] {
                ChangeOp::Insert(_) => None,
                ChangeOp::Update { old, .. } => Some(old.values.as_slice()),
                ChangeOp::Delete(gone) => Some(gone.values.as_slice()),
            };
            let after = match run[run.len() - 1] {
                ChangeOp::Delete(_) => None,
                op => Some(op.change().values.as_slice()),
            };
            match (before, after) {
                (None, Some(_)) => indexed_tuples += 1,
                (Some(_), None) => indexed_tuples -= 1,
                _ => {}
            }
            self.diff_tuple(id, before, after, &text_attrs, &mut edits);
        }
        self.merged(edits, indexed_tuples)
    }

    /// The posting-order invariant, stated explicitly: the dictionary is
    /// strictly sorted and every posting list is non-empty and strictly
    /// sorted by `(tuple, attribute)`. `matching_tuples` dedups adjacent
    /// tuples and the df/idf statistics count distinct tuples under that
    /// assumption; every merge asserts it in debug builds, and tests
    /// call it directly.
    pub fn posting_order_ok(&self) -> bool {
        let lists_ok = (0..self.term_count()).all(|i| {
            let list = self.term_postings(i);
            !list.is_empty()
                && list
                    .windows(2)
                    .all(|w| (w[0].tuple, w[0].attribute) < (w[1].tuple, w[1].attribute))
        });
        lists_ok && (1..self.term_count()).all(|i| self.term(i - 1) < self.term(i))
    }

    /// Iterate over `(term, postings)` pairs in term order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, &[Posting])> {
        (0..self.term_count()).map(move |i| (self.term(i), self.term_postings(i)))
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
        self.find(&normalized).unwrap_or(&[])
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
    /// frequency), counted over the tuple-sorted postings without
    /// allocating.
    pub fn document_frequency(&self, keyword: &str) -> usize {
        self.lookup(keyword).chunk_by(|a, b| a.tuple == b.tuple).count()
    }

    /// Number of distinct indexed terms.
    pub fn term_count(&self) -> usize {
        self.term_bounds.len() - 1
    }

    /// Number of tuples that were scanned for indexing (tuples of
    /// relations with at least one text attribute).
    pub fn indexed_tuples(&self) -> usize {
        self.indexed_tuples
    }

    /// Total frequency of `keyword` inside tuple `t` across attributes
    /// (0 when absent). The postings are sorted by tuple, so `t`'s run
    /// is found by binary search.
    pub fn frequency_in(&self, keyword: &str, t: TupleId) -> u32 {
        let postings = self.lookup(keyword);
        let start = postings.partition_point(|p| p.tuple < t);
        postings[start..].iter().take_while(|p| p.tuple == t).map(|p| p.frequency).sum()
    }

    /// Recompute the 257-entry first-byte bucket index over the sorted
    /// dictionary (a counting pass + prefix sum). Reads leading bytes
    /// straight off the arena — no per-term `str` materialization, so
    /// the zero-copy open pays no UTF-8 re-validation here.
    fn rebuild_first_byte(&mut self) {
        let arena = self.term_arena.as_bytes();
        let mut counts = [0u32; 256];
        for &bound in &self.term_bounds[..self.term_count()] {
            counts[arena[bound as usize] as usize] += 1;
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
    /// owned strings.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.len(self.tokenizer.min_len());
        let stopwords = self.tokenizer.stopwords_sorted();
        w.len(stopwords.len());
        for word in stopwords {
            w.str(word);
        }
        w.len(self.indexed_tuples);
        w.len(self.term_count());
        w.bytes(self.term_arena.as_bytes());
        for &bound in self.term_bounds.iter().chain(&self.posting_bounds) {
            w.u32(bound);
        }
        w.len(self.postings.len());
        for p in &self.postings {
            w.u32(p.tuple.relation.0);
            w.u32(p.tuple.row);
            w.len(p.attribute);
            w.u32(p.frequency);
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
        idx = idx.apply(&database, &changes);
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
        idx = idx.apply(&database, &changes);
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
        idx = idx.apply(&database, &changes);
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
        idx = idx.apply(&database, &changes);
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

    /// A decoded dictionary reads straight out of the section view; an
    /// empty batch keeps it there, and the first batch that edits the
    /// index writes an owned arena without changing content — the
    /// promotion contract of the zero-copy open path.
    #[test]
    fn decoded_arena_is_image_backed_until_an_edit() {
        let mut database = db();
        database.take_changes();
        let idx = InvertedIndex::build(&database);
        assert!(!idx.base_is_image_backed(), "a built index owns its arena");
        let mut back = decode(&idx.encode()).unwrap();
        assert!(back.base_is_image_backed(), "a decoded index borrows the section");
        assert_eq!(contents(&back), contents(&idx));
        assert_eq!(back.matching_tuples("xml"), idx.matching_tuples("xml"));
        let changes = database.take_changes();
        back = back.apply(&database, &changes);
        assert!(back.base_is_image_backed(), "an empty batch keeps the view");
        let emp = database.catalog().relation_id("EMPLOYEE").unwrap();
        database.insert(emp, vec!["e3".into(), "Hopper".into(), "Grace".into()]).unwrap();
        let changes = database.take_changes();
        back = back.apply(&database, &changes);
        assert!(!back.base_is_image_backed(), "an edit writes an owned arena");
        assert_eq!(back.encode(), InvertedIndex::build(&database).encode());
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
    fn lookup_reflects_each_applied_batch() {
        let mut database = db();
        database.take_changes();
        let mut idx = InvertedIndex::build(&database);
        assert_eq!(idx.matching_tuples("xml").len(), 2);
        // A deleted tuple's postings are gone from every term it held.
        let emp = database.catalog().relation_id("EMPLOYEE").unwrap();
        let e1 = database.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        database.delete(e1).unwrap();
        let changes = database.take_changes();
        idx = idx.apply(&database, &changes);
        assert!(!idx.matching_tuples("smith").contains(&e1));
        assert!(!idx.matching_tuples("john").contains(&e1));
        // A term only an inserted tuple holds resolves at once.
        database.insert(emp, vec!["e4".into(), "Dijkstra".into(), "Edsger".into()]).unwrap();
        let changes = database.take_changes();
        idx = idx.apply(&database, &changes);
        assert_eq!(idx.matching_tuples("dijkstra").len(), 1);
        assert_eq!(idx.matching_tuples("xml").len(), 2);
        assert_eq!(idx.encode(), InvertedIndex::build(&database).encode());
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
