//! The seeded query mix: Zipf(α = 1) keywords over the engine's own
//! single-token vocabulary, ranked by document frequency.
//!
//! The mix keeps the shape of a web query log: a heavy head, a long
//! tail, and head queries that come back again and again. Expensive
//! pairs of head terms stay in: filtering them out would hide the
//! streaming top-k cutoff that never fires on them.
//!
//! Runs are compared across seeds, so the draws are stratified. Each
//! class (Paths, BANKS, DISCOVER) takes its keywords from its own
//! shifted Halton sequence, whose every prefix holds the head terms and
//! head pairs at their expected counts, and the classes come in rounds
//! of [`ROUND`] queries that hold each class at its exact share. The
//! keyword sequences are shared by all seeds (common random numbers);
//! the seed orders each round and places and picks the dead keywords.
//! Seed-specific keyword draws were measured first: the few heavy BANKS
//! and DISCOVER queries a 20-second run holds then differ from seed to
//! seed, and that alone spread throughput by 7–9 % and the tail by
//! 10–25 % (interquartile range over median, 8–10 seeds).

use cla_index::InvertedIndex;

/// Queries per stratified round.
pub const ROUND: usize = 20;

/// Share of queries with one keyword that matches nothing.
const DEAD_SHARE: f64 = 0.05;

/// SplitMix64: small, seedable, and stable across toolchains, so a seed
/// names the same mix forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// The algorithm a query is sent to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Two keywords, bounded path enumeration.
    Paths,
    /// Three keywords, BANKS backward expansion.
    Banks,
    /// Three keywords, DISCOVER MTJNT enumeration.
    Discover,
}

impl Class {
    pub fn keywords(self) -> usize {
        match self {
            Class::Paths => 2,
            Class::Banks | Class::Discover => 3,
        }
    }
}

/// Class shares of one workload's mix, in `[Paths, Banks, Discover]`
/// order; they sum to 1.
#[derive(Debug, Clone, Copy)]
pub struct Shares(pub [f64; 3]);

const CLASSES: [Class; 3] = [Class::Paths, Class::Banks, Class::Discover];

/// One query of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Position in the mix: the span and check identifier.
    pub id: usize,
    pub class: Class,
    pub text: String,
    /// One keyword matches nothing in the index.
    pub dead: bool,
}

/// Single-token index terms ranked by document frequency (ties by
/// term), with the Zipf(α = 1) cumulative weights of their ranks.
#[derive(Debug, Clone)]
struct Vocabulary {
    terms: Vec<String>,
    cumulative: Vec<f64>,
}

impl Vocabulary {
    fn from_index(index: &InvertedIndex) -> Self {
        let tokenizer = index.tokenizer();
        let mut ranked: Vec<(usize, String)> = index
            .terms()
            .filter(|(term, _)| tokenizer.tokenize(term) == [*term])
            .map(|(term, _)| (index.document_frequency(term), term.to_owned()))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        let mut total = 0.0;
        let cumulative = (1..=ranked.len())
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect::<Vec<_>>();
        let cumulative = cumulative.iter().map(|c| c / total).collect();
        Vocabulary { terms: ranked.into_iter().map(|(_, t)| t).collect(), cumulative }
    }

    fn len(&self) -> usize {
        self.terms.len()
    }

    /// The term at Zipf rank `rank` (0 = most frequent).
    fn term(&self, rank: usize) -> &str {
        &self.terms[rank]
    }

    /// The rank whose cumulative weight interval holds `u ∈ [0, 1)`.
    fn rank_at(&self, u: f64) -> usize {
        self.cumulative.partition_point(|&c| c <= u).min(self.terms.len() - 1)
    }
}

/// The `i`-th radical inverse in `base` (the Halton coordinate).
fn radical_inverse(mut i: usize, base: usize) -> f64 {
    let inv = 1.0 / base as f64;
    let mut scale = inv;
    let mut out = 0.0;
    while i > 0 {
        out += (i % base) as f64 * scale;
        i /= base;
        scale *= inv;
    }
    out
}

/// Halton bases of the stratified dimensions of one class: the three
/// keyword slots and the dead-keyword choice.
const BASES: [usize; 4] = [2, 3, 5, 7];

/// One class's stream of stratified points: a Halton sequence under a
/// fixed random shift (Cranley–Patterson rotation). Every prefix of it
/// is evenly spread, so a run cut at any length holds the head terms
/// and head pairs of that class at their expected counts.
#[derive(Debug, Clone)]
struct Stream {
    next: usize,
    shift: [f64; 4],
}

impl Stream {
    fn new(rng: &mut Rng) -> Self {
        Stream { next: 1, shift: [rng.unit(), rng.unit(), rng.unit(), rng.unit()] }
    }

    fn point(&mut self) -> [f64; 4] {
        let i = self.next;
        self.next += 1;
        let mut u = [0.0; 4];
        for (d, u) in u.iter_mut().enumerate() {
            *u = (radical_inverse(i, BASES[d]) + self.shift[d]).fract();
        }
        u
    }
}

/// Seed of the keyword streams, shared by every run seed.
const STREAM_SEED: u64 = 0x2017_0326;

/// Dead keywords the seed picks from.
const DEAD_WORDS: usize = 64;

/// The endless query mix of one workload and seed.
#[derive(Debug, Clone)]
pub struct Mix {
    vocab: Vocabulary,
    streams: Vec<Stream>,
    round: Vec<Class>,
    pending: Vec<Class>,
    dead_words: Vec<String>,
    rng: Rng,
    issued: usize,
}

impl Mix {
    pub fn new(index: &InvertedIndex, shares: Shares, seed: u64) -> Self {
        let mut streams_rng = Rng::new(STREAM_SEED);
        let streams = CLASSES.iter().map(|_| Stream::new(&mut streams_rng)).collect();
        Mix {
            vocab: Vocabulary::from_index(index),
            streams,
            round: round_classes(shares),
            pending: Vec::new(),
            dead_words: dead_keywords(index, DEAD_WORDS),
            rng: Rng::new(seed),
            issued: 0,
        }
    }
}

impl Iterator for Mix {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        if self.pending.is_empty() {
            // Each round holds every class at its share, in a seeded
            // order.
            self.pending = self.round.clone();
            for i in (1..self.pending.len()).rev() {
                self.pending.swap(i, self.rng.below(i + 1));
            }
        }
        let class = self.pending.pop()?;
        let u = self.streams[class as usize].point();
        let vocab = &self.vocab;
        let mut ranks: Vec<usize> = Vec::with_capacity(3);
        for &slot in &u[..class.keywords()] {
            let mut rank = vocab.rank_at(slot);
            // Distinct keywords: a repeated draw moves to the next rank
            // down, which keeps the choice deterministic.
            while ranks.contains(&rank) {
                rank = (rank + 1) % vocab.len();
            }
            ranks.push(rank);
        }
        let mut keywords: Vec<&str> = ranks.iter().map(|&r| vocab.term(r)).collect();
        let dead = u[3] < DEAD_SHARE;
        if dead {
            let slot = self.rng.below(keywords.len());
            keywords[slot] = &self.dead_words[self.rng.below(self.dead_words.len())];
        }
        let query = Query { id: self.issued, class, text: keywords.join(" "), dead };
        self.issued += 1;
        Some(query)
    }
}

/// The classes of one round, each at its share of [`ROUND`]. Shares
/// are whole multiples of `1 / ROUND`.
fn round_classes(shares: Shares) -> Vec<Class> {
    CLASSES
        .iter()
        .zip(shares.0)
        .flat_map(|(&c, share)| {
            std::iter::repeat_n(c, (share * ROUND as f64).round() as usize)
        })
        .collect()
}

/// `count` lowercase words the tokenizer keeps and the index does not
/// hold, not even as a whole attribute value.
fn dead_keywords(index: &InvertedIndex, count: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(count);
    let mut serial = 0usize;
    while out.len() < count {
        let mut n = serial;
        serial += 1;
        let mut word = String::from("qz");
        for _ in 0..3 {
            word.push(char::from(b'a' + (n % 26) as u8));
            n /= 26;
        }
        if index.lookup(&word).is_empty()
            && index.tokenizer().tokenize(&word) == [word.as_str()]
        {
            out.push(word);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::{build_engine, Workload};

    fn index() -> InvertedIndex {
        build_engine(16).expect("dept16 builds").index().clone()
    }

    #[test]
    fn one_seed_gives_one_mix() {
        let index = index();
        for w in [Workload::TopkLarge, Workload::FullSmall, Workload::Churn] {
            let a: Vec<Query> = Mix::new(&index, w.shares(), 11).take(500).collect();
            let b: Vec<Query> = Mix::new(&index, w.shares(), 11).take(500).collect();
            assert_eq!(a, b);
            let c: Vec<Query> = Mix::new(&index, w.shares(), 12).take(500).collect();
            assert_ne!(a, c, "another seed orders the mix differently");
        }
    }

    #[test]
    fn every_round_holds_the_class_shares() {
        let index = index();
        for w in [Workload::TopkLarge, Workload::FullSmall, Workload::Churn] {
            let queries: Vec<Query> =
                Mix::new(&index, w.shares(), 3).take(10 * ROUND).collect();
            for round in queries.chunks(ROUND) {
                for (class, share) in CLASSES.iter().zip(w.shares().0) {
                    let n = round.iter().filter(|q| q.class == *class).count();
                    assert_eq!(n as f64, share * ROUND as f64, "{w:?} {class:?}");
                }
            }
        }
    }

    #[test]
    fn keywords_match_their_class_and_dead_ones_match_nothing() {
        let index = index();
        let queries: Vec<Query> =
            Mix::new(&index, Workload::FullSmall.shares(), 5).take(2000).collect();
        let dead = queries.iter().filter(|q| q.dead).count() as f64 / queries.len() as f64;
        assert!((dead - DEAD_SHARE).abs() < 0.01, "dead share {dead}");
        for q in &queries {
            let words: Vec<&str> = q.text.split(' ').collect();
            assert_eq!(words.len(), q.class.keywords(), "{q:?}");
            let unmatched = words.iter().filter(|w| index.lookup(w).is_empty()).count();
            assert_eq!(unmatched, usize::from(q.dead), "{q:?}");
        }
    }

    #[test]
    fn vocabulary_is_single_tokens_ranked_by_document_frequency() {
        let index = index();
        let vocab = Vocabulary::from_index(&index);
        assert!(vocab.len() > 100);
        for rank in 1..vocab.len() {
            let (a, b) = (vocab.term(rank - 1), vocab.term(rank));
            assert_eq!(index.tokenizer().tokenize(b), [b]);
            let (da, db) = (index.document_frequency(a), index.document_frequency(b));
            assert!(da > db || (da == db && a < b), "{a} ({da}) before {b} ({db})");
        }
    }

    #[test]
    fn head_terms_come_at_their_zipf_share() {
        let index = index();
        let queries: Vec<Query> =
            Mix::new(&index, Workload::TopkLarge.shares(), 9).take(4000).collect();
        let vocab = Vocabulary::from_index(&index);
        let harmonic: f64 = (1..=vocab.len()).map(|r| 1.0 / r as f64).sum();
        let slots: usize = queries.iter().map(|q| q.class.keywords()).sum();
        for rank in 0..3 {
            let term = vocab.term(rank);
            let seen =
                queries.iter().flat_map(|q| q.text.split(' ')).filter(|w| *w == term).count()
                    as f64;
            let expected = slots as f64 / (harmonic * (rank + 1) as f64);
            assert!(
                (seen - expected).abs() < 0.15 * expected,
                "{term}: {seen} vs {expected}"
            );
        }
    }
}
