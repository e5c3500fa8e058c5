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
    /// The order is that of the two [`RankStrategy::sort_key`]s.
    pub fn compare(&self, a: &ConnectionInfo, b: &ConnectionInfo) -> Ordering {
        self.sort_key(a).cmp(&self.sort_key(b))
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

    /// The strategy's order as a pair of integers: ascending keys rank
    /// better, and this is the one definition of each order (the
    /// engine sorts and selects by these keys, and
    /// [`RankStrategy::compare`] compares them). The `u128` packs the
    /// criteria in priority order, 32 bits each; the `u64` breaks ties
    /// toward *higher* text scores, as the inverted bit image of
    /// `f64::total_cmp`. `Combined` packs its one score the same way.
    ///
    /// Each count is clamped to `u32::MAX`. A connection is a simple
    /// path over `u32` node ids, so its RDB length, and with it its ER
    /// length and N:M count, never reaches that; hand-built infos with
    /// larger counts tie on the clamped field.
    pub fn sort_key(&self, info: &ConnectionInfo) -> (u128, u64) {
        let pack = |fields: &[usize]| {
            fields.iter().fold(0u128, |acc, &f| acc << 32 | f.min(u32::MAX as usize) as u128)
        };
        let text = !f64_sort_bits_asc(info.text_score);
        let loose = usize::from(info.closeness == Closeness::Loose);
        match self {
            RankStrategy::RdbLength => (pack(&[info.rdb_length]), text),
            RankStrategy::ErLength => (pack(&[info.er_length, info.rdb_length]), text),
            RankStrategy::CloseFirst => {
                (pack(&[loose, info.nm_count, info.er_length, info.rdb_length]), text)
            }
            RankStrategy::InstanceCloseFirst => {
                // Effective closeness: instance corroboration upgrades.
                let eff = match (info.closeness, info.instance_close) {
                    (Closeness::Close, _) => 0,
                    (Closeness::Loose, Some(true)) => 1,
                    (Closeness::Loose, _) => 2,
                };
                (pack(&[eff, info.nm_count, info.er_length, info.rdb_length]), text)
            }
            RankStrategy::Combined { structure_weight } => {
                let penalty =
                    info.er_length as f64 + 2.0 * info.nm_count as f64 + 1.5 * loose as f64;
                let score = structure_weight * penalty - info.text_score;
                (u128::from(f64_sort_bits_asc(score)), 0)
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
/// by the ranking sort keys and the BANKS top-k weight heap.
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

    /// `compare` is the order of the sort keys on every pair, ties
    /// included, and the keys' text component ranks the higher score
    /// first by `f64::total_cmp`: signed zeros, infinities and NaN too.
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
                    assert_eq!(
                        strat.sort_key(a).cmp(&strat.sort_key(b)),
                        strat.compare(a, b),
                        "{} on {a:?} vs {b:?}",
                        strat.name()
                    );
                }
            }
        }
        let texts = [f64::NEG_INFINITY, -1.0, -0.0, 0.0, 0.25, 3.5, f64::INFINITY, f64::NAN];
        for strat in [
            RankStrategy::RdbLength,
            RankStrategy::ErLength,
            RankStrategy::CloseFirst,
            RankStrategy::InstanceCloseFirst,
        ] {
            for &x in &texts {
                for &y in &texts {
                    let a = info(1, 1, &[C::ONE_TO_MANY], x, None);
                    let b = info(1, 1, &[C::ONE_TO_MANY], y, None);
                    assert_eq!(
                        strat.compare(&a, &b),
                        y.total_cmp(&x),
                        "{} {x} vs {y}",
                        strat.name()
                    );
                }
            }
        }
    }

    /// Counts at and beyond `u32::MAX` clamp to it: below the clamp
    /// each count orders exactly, at and above it the field ties and
    /// the next criterion decides, and no count spills into a
    /// higher-priority field. `Combined` scores counts as floats.
    #[test]
    fn saturated_sort_keys_stay_consistent() {
        use Cardinality as C;
        let max = u32::MAX as usize;
        let counts = [0, 1, max - 1, max, max + 1, max * 2 + 7, usize::MAX / 2];
        let with = |rdb: usize, er: usize, nm: usize, text: f64| ConnectionInfo {
            rdb_length: rdb,
            er_length: er,
            nm_count: nm,
            ..info(1, 1, &[C::ONE_TO_MANY], text, None)
        };
        let lexicographic = [
            RankStrategy::RdbLength,
            RankStrategy::ErLength,
            RankStrategy::CloseFirst,
            RankStrategy::InstanceCloseFirst,
        ];
        let combined = RankStrategy::Combined { structure_weight: 1.0 };
        for &x in &counts {
            for &y in &counts {
                let clamped = x.min(max).cmp(&y.min(max));
                for strat in lexicographic {
                    let name = strat.name();
                    let rdb = strat.compare(&with(x, 0, 0, 0.0), &with(y, 0, 0, 0.0));
                    assert_eq!(rdb, clamped, "{name} rdb {x} vs {y}");
                    if x >= max && y >= max {
                        // Every count ties clamped, so the text decides.
                        let text = strat.compare(&with(x, x, x, 5.0), &with(y, y, y, 1.0));
                        assert_eq!(text, Ordering::Less, "{name} text at {x} vs {y}");
                    }
                }
                for strat in &lexicographic[1..] {
                    let name = strat.name();
                    let er = strat.compare(&with(0, x, 0, 0.0), &with(0, y, 0, 0.0));
                    assert_eq!(er, clamped, "{name} er {x} vs {y}");
                    let spill = strat.compare(&with(x, 1, 0, 0.0), &with(y, 2, 0, 0.0));
                    assert_eq!(spill, Ordering::Less, "{name} rdb {x} vs {y} under er");
                    if x >= max && y >= max {
                        // The ER lengths tie clamped, so the RDB length decides.
                        let rdb = strat.compare(&with(1, x, 0, 0.0), &with(0, y, 0, 0.0));
                        assert_eq!(rdb, Ordering::Greater, "{name} rdb under er {x} vs {y}");
                    }
                }
                for strat in &lexicographic[2..] {
                    let name = strat.name();
                    let nm = strat.compare(&with(0, 0, x, 0.0), &with(0, 0, y, 0.0));
                    assert_eq!(nm, clamped, "{name} nm {x} vs {y}");
                    let spill = strat.compare(&with(x, x, 1, 0.0), &with(y, y, 2, 0.0));
                    assert_eq!(spill, Ordering::Less, "{name} lengths {x} vs {y} under nm");
                }
                assert_eq!(
                    combined.compare(&with(0, x, 0, 0.0), &with(0, y, 0, 0.0)),
                    (x as f64).total_cmp(&(y as f64)),
                    "combined er {x} vs {y}"
                );
            }
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
