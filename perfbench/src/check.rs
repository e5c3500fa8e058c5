//! Answer fingerprints for the byte-identity checks. They run outside
//! the timed regions and count into the run's failed operations.

use cla_core::{Completeness, SearchResults};
use std::fmt::Write as _;

/// Everything a user sees of one answer: each ranked connection's
/// rendering, explanation and ranking metrics, the number of answer
/// trees, and whether the answer is complete. Node numbering is left
/// out, since a patched and a rebuilt engine legitimately number nodes
/// differently.
pub fn answer(r: &SearchResults) -> String {
    answer_prefix(r, usize::MAX)
}

/// [`answer`] of the first `n` connections only.
pub fn answer_prefix(r: &SearchResults, n: usize) -> String {
    let mut out = format!("trees={} {:?}\n", r.trees.len(), r.stats.completeness);
    for c in r.connections.iter().take(n) {
        let _ = writeln!(out, "{} | {} | {:?}", c.rendering, c.explanation, c.info);
    }
    out
}

/// [`answer`] plus the work counters, for two engines that share their
/// node numbering (an opened image and the engine that saved it, or a
/// pinned generation before and after the run).
pub fn answer_and_work(r: &SearchResults) -> String {
    format!("{}{:?}", answer(r), r.stats)
}

pub fn complete(r: &SearchResults) -> bool {
    r.stats.completeness == Completeness::Complete
}
