//! Tuple alias table with an image-backed zero-copy representation.
//!
//! Aliases (human-readable labels for tuples, used when rendering and
//! explaining connections) are a read-mostly side table: searches only
//! ever look them up, and mutations replace the whole table through
//! [`crate::SearchEngine::with_aliases`]. That makes them a
//! natural candidate for serving straight out of the snapshot image on
//! open: the v2 `ALIASES` section stores strictly-sorted `(relation,
//! row)` keys, an offset-bounds array and a UTF-8 string arena, and
//! [`Aliases::get`] binary-searches the borrowed key records without
//! materializing a `HashMap` or copying a single label.
//!
//! The section is validated once at decode — key sort order, bounds
//! monotonicity, arena coverage and per-slice UTF-8 — and trusted
//! afterwards; every later access is a checked slice into the shared
//! image buffer. The first structural edit (`with_aliases`, compaction
//! remap) goes through [`Aliases::into_owned`] and promotes the table
//! to an ordinary owned map.

use std::collections::HashMap;
use std::sync::OnceLock;

use cla_relational::{RelationId, TupleId};
use cla_storage::{ByteReader, ByteWriter, SharedBytes, StorageError};

/// Read-only alias lookup, implemented both by the plain
/// `HashMap<TupleId, String>` used throughout tests and builders and by
/// the engine's (possibly image-backed) [`Aliases`] table.
pub trait AliasLookup {
    /// The alias registered for tuple `t`, if any.
    fn alias_of(&self, t: TupleId) -> Option<&str>;
}

impl AliasLookup for HashMap<TupleId, String> {
    fn alias_of(&self, t: TupleId) -> Option<&str> {
        self.get(&t).map(String::as_str)
    }
}

impl AliasLookup for Aliases {
    fn alias_of(&self, t: TupleId) -> Option<&str> {
        self.get(t)
    }
}

/// The alias table: owned after any edit, image-backed straight after
/// a snapshot open decodes it.
#[derive(Debug)]
pub struct Aliases {
    backing: Backing,
}

#[derive(Debug)]
enum Backing {
    /// Ordinary owned map (post-edit, or built in memory).
    Owned(HashMap<TupleId, String>),
    /// Borrowed views over the snapshot image: `keys` holds 8-byte
    /// `(rel: u32, row: u32)` records strictly sorted by `(rel, row)`,
    /// `bounds[i]..bounds[i + 1]` delimits alias `i` in `arena`.
    Image {
        keys: SharedBytes,
        bounds: Vec<u32>,
        arena: SharedBytes,
        /// Materialized lazily only for the public map accessor.
        cache: OnceLock<HashMap<TupleId, String>>,
    },
}

impl Default for Aliases {
    fn default() -> Self {
        Aliases { backing: Backing::Owned(HashMap::new()) }
    }
}

impl From<HashMap<TupleId, String>> for Aliases {
    fn from(map: HashMap<TupleId, String>) -> Self {
        Aliases { backing: Backing::Owned(map) }
    }
}

impl Clone for Aliases {
    fn clone(&self) -> Self {
        let backing = match &self.backing {
            Backing::Owned(m) => Backing::Owned(m.clone()),
            Backing::Image { keys, bounds, arena, .. } => Backing::Image {
                keys: keys.clone(),
                bounds: bounds.clone(),
                arena: arena.clone(),
                cache: OnceLock::new(),
            },
        };
        Aliases { backing }
    }
}

impl Aliases {
    /// Number of aliased tuples.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Owned(m) => m.len(),
            Backing::Image { bounds, .. } => bounds.len() - 1,
        }
    }

    /// `true` when no tuple carries an alias.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` while the table still serves lookups from the snapshot
    /// image (no edit has promoted it to an owned map).
    pub fn is_image_backed(&self) -> bool {
        matches!(self.backing, Backing::Image { .. })
    }

    /// The alias for tuple `t`, if registered. Image-backed tables
    /// binary-search the borrowed key records; no allocation either way.
    pub fn get(&self, t: TupleId) -> Option<&str> {
        match &self.backing {
            Backing::Owned(m) => m.get(&t).map(String::as_str),
            Backing::Image { keys, bounds, arena, .. } => {
                let n = bounds.len() - 1;
                let target = (t.relation.0, t.row);
                let (mut lo, mut hi) = (0usize, n);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if image_key(keys, mid) < target {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                if lo < n && image_key(keys, lo) == target {
                    let (a, b) = (bounds[lo] as usize, bounds[lo + 1] as usize);
                    // Both checked at decode: bounds are in-arena and
                    // every slice is UTF-8.
                    std::str::from_utf8(&arena.as_slice()[a..b]).ok()
                } else {
                    None
                }
            }
        }
    }

    /// Every `(tuple, alias)` pair in ascending `TupleId` order.
    pub fn sorted_pairs(&self) -> Vec<(TupleId, &str)> {
        match &self.backing {
            Backing::Owned(m) => {
                let mut pairs: Vec<(TupleId, &str)> =
                    m.iter().map(|(t, a)| (*t, a.as_str())).collect();
                pairs.sort_by_key(|(t, _)| *t);
                pairs
            }
            Backing::Image { keys, bounds, arena, .. } => (0..bounds.len() - 1)
                .map(|i| {
                    let (rel, row) = image_key(keys, i);
                    let t = TupleId { relation: RelationId(rel), row };
                    let (a, b) = (bounds[i] as usize, bounds[i + 1] as usize);
                    let alias = std::str::from_utf8(&arena.as_slice()[a..b])
                        // lint: allow(unwrap, every arena slice was UTF-8-validated at decode)
                        .expect("alias arena slices are validated UTF-8 at decode");
                    (t, alias)
                })
                .collect(),
        }
    }

    /// The table as a plain map, materializing (and caching) it on
    /// first use when image-backed. Backs the public `aliases()`
    /// accessors; the search path never calls this.
    pub fn as_map(&self) -> &HashMap<TupleId, String> {
        match &self.backing {
            Backing::Owned(m) => m,
            Backing::Image { cache, .. } => cache.get_or_init(|| {
                self.sorted_pairs().into_iter().map(|(t, a)| (t, a.to_owned())).collect()
            }),
        }
    }

    /// Consume the table into an owned map — the promotion point for
    /// every structural edit (alias replacement, compaction remap).
    pub fn into_owned(self) -> HashMap<TupleId, String> {
        match self.backing {
            Backing::Owned(m) => m,
            Backing::Image { .. } => {
                self.sorted_pairs().into_iter().map(|(t, a)| (t, a.to_owned())).collect()
            }
        }
    }

    /// Encode as the v2 `ALIASES` section: count, sorted 8-byte keys,
    /// `n + 1` arena bounds, then the length-prefixed arena itself.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let pairs = self.sorted_pairs();
        let mut w = ByteWriter::new();
        w.len(pairs.len());
        for (t, _) in &pairs {
            w.u32(t.relation.0);
            w.u32(t.row);
        }
        let mut off = 0u32;
        w.u32(0);
        let mut arena = Vec::new();
        for (_, alias) in &pairs {
            off += alias.len() as u32;
            w.u32(off);
            arena.extend_from_slice(alias.as_bytes());
        }
        w.bytes(&arena);
        w.into_vec()
    }

    /// Decode (and fully validate) a v2 `ALIASES` section into an
    /// image-backed table. Hostile bytes yield a typed error, never a
    /// panic; after acceptance every invariant [`Aliases::get`] relies
    /// on holds.
    pub(crate) fn decode(section: SharedBytes) -> Result<Aliases, StorageError> {
        let malformed = |m: &str| StorageError::Malformed(m.to_string());
        let mut r = ByteReader::new(section.as_slice());
        let n = r.len_of(8)?;
        let keys_start = r.position();
        let mut prev: Option<(u32, u32)> = None;
        for _ in 0..n {
            let key = (r.u32()?, r.u32()?);
            if prev.is_some_and(|p| p >= key) {
                return Err(malformed("alias keys must be strictly sorted"));
            }
            prev = Some(key);
        }
        let keys_end = r.position();
        let mut bounds = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            bounds.push(r.u32()?);
        }
        if bounds[0] != 0 {
            return Err(malformed("alias bounds must start at zero"));
        }
        if bounds.windows(2).any(|w| w[1] < w[0]) {
            return Err(malformed("alias bounds must be nondecreasing"));
        }
        let arena_bytes = r.bytes()?;
        if bounds[n] as usize != arena_bytes.len() {
            return Err(malformed("alias bounds must cover the arena exactly"));
        }
        for w in bounds.windows(2) {
            if std::str::from_utf8(&arena_bytes[w[0] as usize..w[1] as usize]).is_err() {
                return Err(malformed("alias arena slice is not UTF-8"));
            }
        }
        let arena_end = r.position();
        r.finish()?;
        let keys = section.slice(keys_start..keys_end)?;
        let arena = section.slice(arena_end - arena_bytes.len()..arena_end)?;
        Ok(Aliases {
            backing: Backing::Image { keys, bounds, arena, cache: OnceLock::new() },
        })
    }
}

/// The `(rel, row)` key of image record `i`.
///
/// Decode checked that the key view holds exactly `n` 8-byte records,
/// so in-bounds indices always resolve.
fn image_key(keys: &SharedBytes, i: usize) -> (u32, u32) {
    // lint: allow(unwrap, decode sized the key view to exactly n records)
    let rec = keys.record(i, 8).expect("alias key index is in bounds");
    let rel = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
    let row = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
    (rel, row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(rel: u32, row: u32) -> TupleId {
        TupleId { relation: RelationId(rel), row }
    }

    fn sample() -> HashMap<TupleId, String> {
        let mut m = HashMap::new();
        m.insert(t(1, 4), "Smith".to_string());
        m.insert(t(0, 2), "Research".to_string());
        m.insert(t(1, 0), "Alice".to_string());
        m.insert(t(3, 7), "ProductX".to_string());
        m
    }

    fn decode(bytes: Vec<u8>) -> Result<Aliases, StorageError> {
        Aliases::decode(SharedBytes::from_vec(bytes))
    }

    #[test]
    fn round_trips_through_image_backing_byte_identically() {
        let owned: Aliases = sample().into();
        assert!(!owned.is_image_backed());
        let encoded = owned.encode();
        let image = decode(encoded.clone()).unwrap();
        assert!(image.is_image_backed());
        assert_eq!(image.len(), owned.len());
        // Lookups agree on hits, misses, and map materialization.
        for (tid, alias) in sample() {
            assert_eq!(image.get(tid), Some(alias.as_str()));
            assert_eq!(image.alias_of(tid), Some(alias.as_str()));
        }
        assert_eq!(image.get(t(0, 0)), None);
        assert_eq!(image.get(t(9, 9)), None);
        assert_eq!(*image.as_map(), sample());
        assert_eq!(image.clone().into_owned(), sample());
        // Re-encoding the decoded table reproduces the bytes exactly.
        assert_eq!(image.encode(), encoded);
    }

    #[test]
    fn empty_table_round_trips() {
        let empty = Aliases::default();
        let image = decode(empty.encode()).unwrap();
        assert!(image.is_empty());
        assert_eq!(image.get(t(0, 0)), None);
    }

    #[test]
    fn hostile_sections_are_rejected_with_typed_errors() {
        // A valid baseline first, so each case below isolates one fault.
        let good = Aliases::from(sample()).encode();
        assert!(decode(good.clone()).is_ok());

        // Truncation anywhere must fail cleanly (`Truncated` while the
        // fixed-layout prefix is cut short, `Malformed` once only the
        // arena is clipped).
        for cut in 0..good.len() {
            assert!(
                matches!(
                    decode(good[..cut].to_vec()),
                    Err(StorageError::Truncated { .. } | StorageError::Malformed(_))
                ),
                "truncation at {cut} must be rejected"
            );
        }

        // Unsorted (swapped) keys.
        let mut swapped = good.clone();
        let (a, b) = (4, 12); // first two 8-byte key records
        for i in 0..8 {
            swapped.swap(a + i, b + i);
        }
        assert!(decode(swapped).is_err(), "unsorted keys must be rejected");

        // Duplicate keys (copy record 0 over record 1).
        let mut dup = good.clone();
        for i in 0..8 {
            dup[12 + i] = dup[4 + i];
        }
        assert!(decode(dup).is_err(), "duplicate keys must be rejected");

        // Bounds that do not cover the arena.
        let n = 4;
        let bounds_at = |i: usize| 4 + n * 8 + i * 4;
        let mut short = good.clone();
        let last = bounds_at(n);
        short[last..last + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode(short).is_err(), "short final bound must be rejected");

        // Decreasing bounds.
        let mut dec = good.clone();
        let second = bounds_at(1);
        dec[second..second + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(dec).is_err(), "decreasing bounds must be rejected");

        // Non-UTF-8 arena content.
        let mut bad_utf8 = good.clone();
        let arena_start = bounds_at(n + 1) + 4;
        bad_utf8[arena_start] = 0xFF;
        assert!(decode(bad_utf8).is_err(), "non-UTF-8 arena must be rejected");

        // Trailing garbage.
        let mut long = good;
        long.push(0);
        assert!(decode(long).is_err(), "trailing bytes must be rejected");
    }
}
