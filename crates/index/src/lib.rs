//! # cla-index — text substrate for keyword search over tuples
//!
//! The paper (§3): "A keyword search typically focuses on attribute
//! values. A keyword may match the whole attribute value or a word in a
//! text attribute." This crate implements that matching model:
//!
//! * [`Tokenizer`] — lowercasing alphanumeric tokenizer with optional
//!   stopwords;
//! * [`InvertedIndex`] — term → postings over all text attributes of a
//!   [`cla_relational::Database`]; whole attribute values are indexed as
//!   additional terms so `db-project` matches the full `P_NAME` value as
//!   well as its word tokens;
//! * [`KeywordQuery`] — parsed keyword queries such as `Smith XML`;
//! * tf·idf scoring helpers ([`tf`], [`idf`], [`tuple_score`]) used by
//!   the combined ranking strategy in `cla-core`.
//!
//! ## Example
//!
//! ```
//! use cla_relational::{SchemaBuilder, DataType, Database};
//! use cla_index::{InvertedIndex, KeywordQuery};
//!
//! let catalog = SchemaBuilder::new()
//!     .relation("DEPARTMENT", |r| {
//!         r.attr("ID", DataType::Text)
//!             .attr("D_DESCRIPTION", DataType::Text)
//!             .primary_key(&["ID"])
//!     })
//!     .build()
//!     .unwrap();
//! let mut db = Database::new(catalog).unwrap();
//! let dept = db.catalog().relation_id("DEPARTMENT").unwrap();
//! db.insert(dept, vec!["d1".into(), "databases and XML".into()]).unwrap();
//!
//! let index = InvertedIndex::build(&db);
//! let query = KeywordQuery::parse("xml");
//! let hits = index.matching_tuples(&query.keywords()[0]);
//! assert_eq!(hits.len(), 1);
//! ```

#![forbid(unsafe_code)]

mod inverted;
mod query;
mod score;
mod tokenize;

pub use inverted::{InvertedIndex, Posting};
pub use query::{KeywordQuery, MatchSemantics};
pub use score::{idf, tf, tuple_score};
pub use tokenize::Tokenizer;
