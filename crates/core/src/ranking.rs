//! Ranking strategies for connections (§3–4 of the paper).
//!
//! The paper contrasts three rankings on the "Smith XML" example:
//!
//! * **RDB length** — the conventional shortest-connection-first order:
//!   best {1, 5}, worst {4, 7};
//! * **ER length** — conceptual length with middle relations collapsed;
//! * **Close-first** — "if the length of the ER-model were followed and
//!   the close associations were emphasized, the best connections are 1,
//!   2 and 5 and the worst connections are 3 and 6", with 4 and 7 ranked
//!   above 3 and 6 because their every hop is factual. We realize this as
//!   the lexicographic key *(closeness, transitive-N:M count, ER length,
//!   RDB length)*, the N:M count being the paper's §4 criterion.
//!
//! [`RankStrategy::Combined`] additionally mixes in tf·idf text scores
//! (§1 cites attribute/tuple-level scoring work).

use cla_er::{CardinalityChain, ChainClass, Closeness};
use std::cmp::Ordering;

/// Metrics of one connection, precomputed by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionInfo {
    /// Foreign-key edge count (Table 2 "length in RDB").
    pub rdb_length: usize,
    /// Conceptual step count (Table 2 "length in ER").
    pub er_length: usize,
    /// The ER-level cardinality chain.
    pub er_chain: CardinalityChain,
    /// The paper's chain classification.
    pub class: ChainClass,
    /// Schema-level closeness.
    pub closeness: Closeness,
    /// Number of transitive N:M segments (the §4 ranking criterion).
    pub nm_count: usize,
    /// Summed tf·idf score of the connection's tuples for the query.
    pub text_score: f64,
    /// Instance-level closeness, when computed (`None` when disabled).
    pub instance_close: Option<bool>,
}

/// A ranking strategy: a total preorder over [`ConnectionInfo`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankStrategy {
    /// Shortest RDB length first (the conventional baseline).
    RdbLength,
    /// Shortest conceptual length first, RDB length as tie-break.
    ErLength,
    /// The paper's proposal: close associations first, then fewer
    /// transitive N:M segments, then ER length, then RDB length.
    CloseFirst,
    /// CloseFirst, but connections corroborated close at the *instance*
    /// level outrank schema-loose ones (§4's "more precise approach").
    InstanceCloseFirst,
    /// Weighted combination of structure and text relevance: ranks by
    /// `structure_weight · penalty − text_score` ascending, where
    /// `penalty = er_length + 2·nm_count + 1.5·[loose]`.
    Combined {
        /// Weight of the structural penalty relative to text score.
        structure_weight: f64,
    },
}

impl RankStrategy {
    /// Compare two connections; `Ordering::Less` means `a` ranks better.
    pub fn compare(&self, a: &ConnectionInfo, b: &ConnectionInfo) -> Ordering {
        match self {
            RankStrategy::RdbLength => a
                .rdb_length
                .cmp(&b.rdb_length)
                .then_with(|| b.text_score.total_cmp(&a.text_score)),
            RankStrategy::ErLength => a
                .er_length
                .cmp(&b.er_length)
                .then_with(|| a.rdb_length.cmp(&b.rdb_length))
                .then_with(|| b.text_score.total_cmp(&a.text_score)),
            RankStrategy::CloseFirst => a
                .closeness
                .cmp(&b.closeness)
                .then_with(|| a.nm_count.cmp(&b.nm_count))
                .then_with(|| a.er_length.cmp(&b.er_length))
                .then_with(|| a.rdb_length.cmp(&b.rdb_length))
                .then_with(|| b.text_score.total_cmp(&a.text_score)),
            RankStrategy::InstanceCloseFirst => {
                // Effective closeness: instance corroboration upgrades.
                let eff = |i: &ConnectionInfo| match (i.closeness, i.instance_close) {
                    (Closeness::Close, _) => 0u8,
                    (Closeness::Loose, Some(true)) => 1,
                    (Closeness::Loose, _) => 2,
                };
                eff(a)
                    .cmp(&eff(b))
                    .then_with(|| a.nm_count.cmp(&b.nm_count))
                    .then_with(|| a.er_length.cmp(&b.er_length))
                    .then_with(|| a.rdb_length.cmp(&b.rdb_length))
                    .then_with(|| b.text_score.total_cmp(&a.text_score))
            }
            RankStrategy::Combined { structure_weight } => {
                let score = |i: &ConnectionInfo| {
                    let loose = if i.closeness == Closeness::Loose { 1.5 } else { 0.0 };
                    let penalty = i.er_length as f64 + 2.0 * i.nm_count as f64 + loose;
                    structure_weight * penalty - i.text_score
                };
                score(a).total_cmp(&score(b))
            }
        }
    }

    /// The most favorable [`ConnectionInfo`] that *any* connection with
    /// `rdb_length >= min_rdb` could present: schema-close, zero
    /// transitive-N:M segments, the minimum ER length a path of that RDB
    /// length can have (`ceil(min_rdb / 2)` — at best two RDB hops
    /// collapse into one conceptual step), instance-corroborated, and an
    /// unbounded text score. Every ranking criterion is monotone
    /// (non-improving) in RDB length against this bound.
    pub fn best_possible_info(min_rdb: usize) -> ConnectionInfo {
        let er_chain = CardinalityChain::empty();
        ConnectionInfo {
            rdb_length: min_rdb,
            er_length: min_rdb.div_ceil(2),
            class: er_chain.classify(),
            closeness: Closeness::Close,
            nm_count: 0,
            er_chain,
            text_score: f64::INFINITY,
            instance_close: Some(true),
        }
    }

    /// `true` when a connection ranking at `held` strictly outranks
    /// every connection of RDB length `>= min_rdb` that enumeration
    /// could still produce under this strategy — the early-termination
    /// test of the engine's streaming top-k mode: once the k-th best
    /// held result dominates all unexplored length levels, deeper
    /// enumeration cannot change the top k.
    ///
    /// Conservative by construction: the comparison runs against
    /// [`RankStrategy::best_possible_info`], whose unbounded text score
    /// makes this always `false` for strategies without a length-monotone
    /// primary criterion (e.g. [`RankStrategy::Combined`]) — those
    /// strategies simply never stop early.
    pub fn dominates_all_longer(&self, held: &ConnectionInfo, min_rdb: usize) -> bool {
        self.compare(held, &Self::best_possible_info(min_rdb)) == Ordering::Less
    }

    /// Whether the strategy can ever terminate a streaming top-k search
    /// early, i.e. whether [`RankStrategy::dominates_all_longer`] can
    /// return `true` for some held connection. `Combined` mixes an
    /// unbounded text score into a single scalar, so no held result ever
    /// dominates an unexplored level and level-by-level streaming would
    /// only add overhead.
    pub fn supports_streaming_topk(&self) -> bool {
        !matches!(self, RankStrategy::Combined { .. })
    }

    /// Pack the strategy's comparison criteria into a pair of integers
    /// whose ascending order agrees with [`RankStrategy::compare`]
    /// wherever the keys differ — the engine sorts result sets by these
    /// precomputed keys instead of re-reading five fields per
    /// comparison, falling back to `compare` on key ties. Count-like
    /// fields get 32 bits each in the `u128`: a connection is a simple
    /// path over `u32` node ids, so its RDB length (and a fortiori ER
    /// length and N:M count) is always below `u32::MAX` and the packing
    /// is exact for every representable connection.
    ///
    /// Hand-built infos beyond that bound degrade *gracefully* rather
    /// than panicking or mis-sorting: fields saturate **stickily** at
    /// `u32::MAX` — once one field clamps, every lower-priority field
    /// and the text component collapse to constants. Two keys that
    /// differ then always order exactly like `compare` (the clamped
    /// field itself still resolves consistently against any exact
    /// value), and keys that collide fall back to the full comparator
    /// (every key consumer chains `.then_with(compare)`), which reads
    /// the unclamped fields and keeps the total order correct at and
    /// beyond the boundary — property-tested in
    /// `saturated_sort_keys_stay_consistent`. Without the stickiness a
    /// plain per-field clamp would let the packed *text* bits decide
    /// between two connections whose distinct lengths clamped equal —
    /// contradicting the comparator.
    pub fn sort_key(&self, info: &ConnectionInfo) -> (u128, u64) {
        const CAP: usize = u32::MAX as usize;
        /// Pack `fields` (priority order, 32 bits each) with sticky
        /// saturation; returns the packed word and whether anything
        /// clamped.
        fn pack(fields: &[usize]) -> (u128, bool) {
            let mut acc = 0u128;
            let mut saturated = false;
            for &f in fields {
                saturated |= f >= CAP;
                acc = acc << 32 | if saturated { CAP as u128 } else { f as u128 };
            }
            (acc, saturated)
        }
        // Ties on every strategy break toward *higher* text scores.
        let keyed = |(packed, saturated): (u128, bool)| {
            (packed, if saturated { 0 } else { !f64_sort_bits_asc(info.text_score) })
        };
        match self {
            RankStrategy::RdbLength => keyed(pack(&[info.rdb_length])),
            RankStrategy::ErLength => keyed(pack(&[info.er_length, info.rdb_length])),
            RankStrategy::CloseFirst => {
                let close = match info.closeness {
                    Closeness::Close => 0usize,
                    Closeness::Loose => 1,
                };
                keyed(pack(&[close, info.nm_count, info.er_length, info.rdb_length]))
            }
            RankStrategy::InstanceCloseFirst => {
                let eff = match (info.closeness, info.instance_close) {
                    (Closeness::Close, _) => 0usize,
                    (Closeness::Loose, Some(true)) => 1,
                    (Closeness::Loose, _) => 2,
                };
                keyed(pack(&[eff, info.nm_count, info.er_length, info.rdb_length]))
            }
            RankStrategy::Combined { structure_weight } => {
                let loose = if info.closeness == Closeness::Loose { 1.5 } else { 0.0 };
                let penalty = info.er_length as f64 + 2.0 * info.nm_count as f64 + loose;
                (
                    u128::from(f64_sort_bits_asc(
                        structure_weight * penalty - info.text_score,
                    )),
                    0,
                )
            }
        }
    }

    /// A short human-readable name (used in experiment output).
    pub fn name(&self) -> &'static str {
        match self {
            RankStrategy::RdbLength => "rdb-length",
            RankStrategy::ErLength => "er-length",
            RankStrategy::CloseFirst => "close-first",
            RankStrategy::InstanceCloseFirst => "instance-close-first",
            RankStrategy::Combined { .. } => "combined",
        }
    }
}

/// Ascending-order-preserving bit image of an `f64`: comparing the
/// returned integers equals `f64::total_cmp` on the inputs (sign bit
/// flipped for non-negatives, all bits flipped for negatives). Shared
/// by the packed ranking sort keys and the BANKS top-k weight heap.
pub(crate) fn f64_sort_bits_asc(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Sort `items` by `strategy` over the info selected by `info_of`,
/// breaking remaining ties with the `tiebreak` comparator for full
/// determinism. `tiebreak` compares borrowed items directly, so key
/// material (e.g. rendering strings) is never cloned per comparison.
pub fn sort_by_strategy<T, F, G>(
    items: &mut [T],
    strategy: RankStrategy,
    info_of: F,
    tiebreak: G,
) where
    F: Fn(&T) -> &ConnectionInfo,
    G: Fn(&T, &T) -> Ordering,
{
    items.sort_by(|x, y| {
        strategy.compare(info_of(x), info_of(y)).then_with(|| tiebreak(x, y))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use cla_er::Cardinality;

    fn info(
        rdb: usize,
        er: usize,
        chain: &[Cardinality],
        text: f64,
        instance_close: Option<bool>,
    ) -> ConnectionInfo {
        let er_chain = CardinalityChain::new(chain.to_vec());
        ConnectionInfo {
            rdb_length: rdb,
            er_length: er,
            class: er_chain.classify(),
            closeness: er_chain.closeness(),
            nm_count: er_chain.transitive_nm_count(),
            er_chain,
            text_score: text,
            instance_close,
        }
    }

    /// The nine Table 2 connections as ConnectionInfos (query "Smith
    /// XML" rows 1–7; rows 8–9 belong to the Alice query).
    fn paper_connections() -> Vec<(usize, ConnectionInfo)> {
        use Cardinality as C;
        vec![
            (1, info(1, 1, &[C::ONE_TO_MANY], 0.0, Some(true))),
            (2, info(2, 1, &[C::MANY_TO_MANY], 0.0, Some(true))),
            (3, info(2, 2, &[C::MANY_TO_ONE, C::ONE_TO_MANY], 0.0, Some(true))),
            (4, info(3, 2, &[C::ONE_TO_MANY, C::MANY_TO_MANY], 0.0, Some(true))),
            (5, info(1, 1, &[C::ONE_TO_MANY], 0.0, Some(true))),
            (6, info(2, 2, &[C::MANY_TO_ONE, C::ONE_TO_MANY], 0.0, Some(false))),
            (7, info(3, 2, &[C::ONE_TO_MANY, C::MANY_TO_MANY], 0.0, Some(true))),
        ]
    }

    #[test]
    fn rdb_length_ranks_1_and_5_best_4_and_7_worst() {
        let mut items = paper_connections();
        sort_by_strategy(&mut items, RankStrategy::RdbLength, |x| &x.1, |a, b| a.0.cmp(&b.0));
        let order: Vec<usize> = items.iter().map(|x| x.0).collect();
        assert_eq!(&order[..2], &[1, 5], "best are 1 and 5");
        assert_eq!(&order[5..], &[4, 7], "worst are 4 and 7");
    }

    #[test]
    fn close_first_matches_paper_order() {
        let mut items = paper_connections();
        sort_by_strategy(
            &mut items,
            RankStrategy::CloseFirst,
            |x| &x.1,
            |a, b| a.0.cmp(&b.0),
        );
        let order: Vec<usize> = items.iter().map(|x| x.0).collect();
        // Best: the close connections {1, 2, 5} (ER length 1).
        let mut top: Vec<usize> = order[..3].to_vec();
        top.sort_unstable();
        assert_eq!(top, vec![1, 2, 5]);
        // Then the loose-but-factual 4 and 7, then the transitive N:M
        // 3 and 6 — "the worst connections are 3 and 6".
        assert_eq!(&order[3..5], &[4, 7]);
        assert_eq!(&order[5..], &[3, 6]);
    }

    #[test]
    fn instance_close_first_promotes_corroborated() {
        let mut items = paper_connections();
        sort_by_strategy(
            &mut items,
            RankStrategy::InstanceCloseFirst,
            |x| &x.1,
            |a, b| a.0.cmp(&b.0),
        );
        let order: Vec<usize> = items.iter().map(|x| x.0).collect();
        // Connection 6 (Barbara doesn't work on p2) drops below 3
        // (which is corroborated by w_f1).
        assert_eq!(*order.last().unwrap(), 6);
        let pos3 = order.iter().position(|&x| x == 3).unwrap();
        let pos6 = order.iter().position(|&x| x == 6).unwrap();
        assert!(pos3 < pos6);
    }

    #[test]
    fn sort_keys_agree_with_compare() {
        use Cardinality as C;
        // A varied pool: the paper's connections plus text-score and
        // instance-closeness variants.
        let mut pool: Vec<ConnectionInfo> =
            paper_connections().into_iter().map(|(_, i)| i).collect();
        pool.push(info(1, 1, &[C::ONE_TO_MANY], 3.5, Some(false)));
        pool.push(info(1, 1, &[C::ONE_TO_MANY], -1.0, None));
        pool.push(info(4, 2, &[C::MANY_TO_MANY, C::MANY_TO_MANY], 0.25, Some(true)));
        for strat in [
            RankStrategy::RdbLength,
            RankStrategy::ErLength,
            RankStrategy::CloseFirst,
            RankStrategy::InstanceCloseFirst,
            RankStrategy::Combined { structure_weight: 1.0 },
        ] {
            for a in &pool {
                for b in &pool {
                    let (ka, kb) = (strat.sort_key(a), strat.sort_key(b));
                    // Wherever the packed keys differ they must order
                    // exactly like the comparator; key ties defer to it.
                    if ka != kb {
                        assert_eq!(
                            ka.cmp(&kb),
                            strat.compare(a, b),
                            "{} on {a:?} vs {b:?}",
                            strat.name()
                        );
                    }
                }
            }
        }
    }

    /// Saturation boundary (fields at, around and far beyond
    /// `u32::MAX`): packed keys must never *contradict* the comparator,
    /// and the engine's actual sort chain — key, then comparator — must
    /// produce exactly the comparator's total order.
    #[test]
    fn saturated_sort_keys_stay_consistent() {
        use Cardinality as C;
        let max = u32::MAX as usize;
        let mut pool: Vec<ConnectionInfo> = Vec::new();
        for &len in &[0usize, 1, max - 1, max, max + 1, max * 2 + 7, usize::MAX / 2] {
            pool.push(info(len, len.div_ceil(2).max(1), &[C::ONE_TO_MANY], 0.0, Some(true)));
            pool.push(info(len, len.max(1), &[C::MANY_TO_MANY], 1.5, Some(false)));
        }
        // N:M count at the boundary too.
        let mut nm_heavy = info(max + 3, max + 3, &[C::MANY_TO_MANY], 0.0, None);
        nm_heavy.nm_count = max + 2;
        pool.push(nm_heavy);
        for strat in [
            RankStrategy::RdbLength,
            RankStrategy::ErLength,
            RankStrategy::CloseFirst,
            RankStrategy::InstanceCloseFirst,
            RankStrategy::Combined { structure_weight: 1.0 },
        ] {
            // Pairwise: keys either agree with compare or tie (and a tie
            // defers to compare in every consumer).
            for a in &pool {
                for b in &pool {
                    let (ka, kb) = (strat.sort_key(a), strat.sort_key(b));
                    if ka != kb {
                        assert_eq!(
                            ka.cmp(&kb),
                            strat.compare(a, b),
                            "{} keys contradict compare on {a:?} vs {b:?}",
                            strat.name()
                        );
                    }
                }
            }
            // End to end: the key-then-comparator chain (the engine's
            // `sort_keyed` shape) equals the comparator-only sort.
            let tiebreak =
                |x: &ConnectionInfo, y: &ConnectionInfo| x.rdb_length.cmp(&y.rdb_length);
            let mut by_chain = pool.clone();
            by_chain.sort_by(|a, b| {
                strat
                    .sort_key(a)
                    .cmp(&strat.sort_key(b))
                    .then_with(|| strat.compare(a, b))
                    .then_with(|| tiebreak(a, b))
            });
            let mut by_compare = pool.clone();
            by_compare.sort_by(|a, b| strat.compare(a, b).then_with(|| tiebreak(a, b)));
            let lens =
                |v: &[ConnectionInfo]| v.iter().map(|i| i.rdb_length).collect::<Vec<_>>();
            assert_eq!(lens(&by_chain), lens(&by_compare), "{}", strat.name());
        }
    }

    #[test]
    fn domination_bound_is_sound_and_triggers() {
        use Cardinality as C;
        // A direct close connection dominates everything of length >= 2
        // under every length-bounded strategy…
        let direct = info(1, 1, &[C::ONE_TO_MANY], 0.0, Some(true));
        for strat in [
            RankStrategy::RdbLength,
            RankStrategy::ErLength,
            RankStrategy::CloseFirst,
            RankStrategy::InstanceCloseFirst,
        ] {
            assert!(strat.supports_streaming_topk());
            assert!(strat.dominates_all_longer(&direct, 2), "{}", strat.name());
            // …and the bound is sound: any realizable info of RDB length
            // >= 2 really ranks worse.
            let best_len2 = info(2, 1, &[C::MANY_TO_MANY], 1e6, Some(true));
            assert_eq!(strat.compare(&direct, &best_len2), Ordering::Less);
            // Never dominate the level the connection itself sits on:
            // a same-length rival could still win the text tie-break.
            assert!(!strat.dominates_all_longer(&direct, 1), "{}", strat.name());
        }
        // A loose connection never lets CloseFirst stop (a longer close
        // connection could outrank it).
        let loose = info(2, 2, &[C::MANY_TO_ONE, C::ONE_TO_MANY], 0.0, Some(true));
        assert!(!RankStrategy::CloseFirst.dominates_all_longer(&loose, 3));
        // Combined has no length bound at all.
        let combined = RankStrategy::Combined { structure_weight: 1.0 };
        assert!(!combined.supports_streaming_topk());
        assert!(!combined.dominates_all_longer(&direct, 4));
    }

    #[test]
    fn er_length_prefers_collapsed_connections() {
        use Cardinality as C;
        // Connection 2 (RDB 2, ER 1) must beat connection 3 (RDB 2, ER 2)
        // and tie-break against 1 by RDB length.
        let a = info(2, 1, &[C::MANY_TO_MANY], 0.0, None);
        let b = info(2, 2, &[C::MANY_TO_ONE, C::ONE_TO_MANY], 0.0, None);
        assert_eq!(RankStrategy::ErLength.compare(&a, &b), Ordering::Less);
        let c = info(1, 1, &[C::ONE_TO_MANY], 0.0, None);
        assert_eq!(RankStrategy::ErLength.compare(&c, &a), Ordering::Less);
    }

    #[test]
    fn text_score_breaks_ties() {
        use Cardinality as C;
        let hi = info(1, 1, &[C::ONE_TO_MANY], 5.0, None);
        let lo = info(1, 1, &[C::ONE_TO_MANY], 1.0, None);
        for strat in
            [RankStrategy::RdbLength, RankStrategy::ErLength, RankStrategy::CloseFirst]
        {
            assert_eq!(strat.compare(&hi, &lo), Ordering::Less, "{}", strat.name());
        }
    }

    #[test]
    fn combined_trades_structure_for_text() {
        use Cardinality as C;
        let short_dull = info(1, 1, &[C::ONE_TO_MANY], 0.0, None);
        let long_rich = info(3, 2, &[C::ONE_TO_MANY, C::MANY_TO_MANY], 10.0, None);
        // With a small structure weight, text wins.
        let strat = RankStrategy::Combined { structure_weight: 1.0 };
        assert_eq!(strat.compare(&long_rich, &short_dull), Ordering::Less);
        // With a huge structure weight, structure wins.
        let strat = RankStrategy::Combined { structure_weight: 100.0 };
        assert_eq!(strat.compare(&short_dull, &long_rich), Ordering::Less);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            RankStrategy::RdbLength.name(),
            RankStrategy::ErLength.name(),
            RankStrategy::CloseFirst.name(),
            RankStrategy::InstanceCloseFirst.name(),
            RankStrategy::Combined { structure_weight: 1.0 }.name(),
        ];
        let mut dedup = names.to_vec();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
