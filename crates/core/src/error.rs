//! Error type for the keyword-search core.

use std::fmt;

/// Why one keyword of an [`CoreError::EmptyQuery`] matched nothing,
/// with enough context to relax the query instead of failing hard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeywordDiagnostic {
    /// The offending keyword as written in the query.
    pub keyword: String,
    /// How many word tokens the index's own tokenizer produced for it
    /// (0 = punctuation-only, stopwords-only, or below `min_len`).
    pub tokens: usize,
    /// The nearest indexed term by Levenshtein edit distance over the
    /// keyword's normalized form, with the distance — a "did you mean"
    /// candidate. `None` when the index holds no terms at all.
    pub nearest_term: Option<(String, usize)>,
}

/// Errors raised by data-graph construction and search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A foreign key in the catalog has no conceptual role in the
    /// [`cla_er::SchemaMapping`]; the data graph needs full provenance.
    MissingFkRole {
        /// The relation owning the foreign key.
        relation: String,
        /// The foreign-key index within that relation.
        fk_index: usize,
    },
    /// A tuple id was not found in the data graph.
    UnknownTuple(String),
    /// The query cannot be executed as requested.
    InvalidQuery(String),
    /// The query normalizes to nothing this index can answer from: it
    /// has no keywords at all, or some keyword produces zero word
    /// tokens under the index's own tokenizer (punctuation-only like
    /// `"!!!"`, stopwords-only, or below the tokenizer's `min_len`)
    /// *and* its whole-value fallback form matches nothing either.
    /// Raised consistently by every algorithm (Paths/BANKS/DISCOVER)
    /// instead of silently returning empty results.
    EmptyQuery {
        /// The offending raw query, trimmed.
        query: String,
        /// One entry per keyword that matched nothing, in query order —
        /// the raw material for a relaxation ladder (drop the keyword,
        /// or retry with the suggested nearest indexed term).
        diagnostics: Vec<KeywordDiagnostic>,
    },
    /// The database refused a mutation or failed validation (a
    /// duplicate key, an arity or type mismatch, a restricted delete or
    /// key change, a dangling reference); the typed reason is kept so
    /// callers can match on it.
    Relational(cla_relational::RelationalError),
    /// Saving or opening a snapshot image failed: an I/O error, or a
    /// file that is truncated, checksum-corrupt, from an unsupported
    /// format version, or internally inconsistent. Corruption is always
    /// reported through this variant — never a panic.
    Snapshot(cla_storage::StorageError),
    /// Mutations were staged through the engine's typed ops after the
    /// engine's index and data graph were built (or last patched);
    /// searching or saving would silently drop them. Call
    /// `SearchEngine::apply` to patch the engine up to the database's
    /// current version.
    StaleEngine {
        /// The database version the engine structures reflect.
        engine_version: u64,
        /// The database's current version.
        db_version: u64,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::MissingFkRole { relation, fk_index } => write!(
                f,
                "foreign key #{fk_index} of relation `{relation}` has no conceptual role in the schema mapping"
            ),
            CoreError::UnknownTuple(t) => write!(f, "tuple {t} is not in the data graph"),
            CoreError::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            CoreError::EmptyQuery { query, diagnostics } => {
                write!(
                    f,
                    "empty query `{query}`: a keyword neither tokenizes to any word under the \
                     index tokenizer nor matches any whole attribute value"
                )?;
                for d in diagnostics {
                    write!(f, "; keyword `{}` produced {} token(s)", d.keyword, d.tokens)?;
                    if let Some((term, dist)) = &d.nearest_term {
                        write!(f, ", nearest indexed term `{term}` (edit distance {dist})")?;
                    }
                }
                Ok(())
            }
            CoreError::Relational(e) => write!(f, "relational error: {e}"),
            CoreError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            CoreError::StaleEngine { engine_version, db_version } => write!(
                f,
                "stale engine: database is at version {db_version} but the engine reflects \
                 version {engine_version} — call SearchEngine::apply before searching"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<cla_relational::RelationalError> for CoreError {
    fn from(e: cla_relational::RelationalError) -> Self {
        CoreError::Relational(e)
    }
}

impl From<cla_storage::StorageError> for CoreError {
    fn from(e: cla_storage::StorageError) -> Self {
        CoreError::Snapshot(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = CoreError::MissingFkRole { relation: "R".into(), fk_index: 1 };
        assert!(e.to_string().contains("R"));
        assert!(e.to_string().contains("#1"));
        assert!(CoreError::InvalidQuery("no keywords".into())
            .to_string()
            .contains("no keywords"));
    }
}
