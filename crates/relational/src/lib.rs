//! # cla-relational — in-memory relational database substrate
//!
//! This crate implements the relational layer that the paper *Close and
//! Loose Associations in Keyword Search from Structural Data* (EDBT 2017
//! workshops) assumes: relations with typed attributes, primary keys and
//! foreign-key references, an instance store of tuples, and just enough
//! query machinery (selection, projection, equi-joins, joins along foreign
//! keys) to evaluate joining networks of tuples.
//!
//! It deliberately stays small and dependency-free: the keyword-search
//! layer (`cla-core`) only relies on
//!
//! * a [`Catalog`] describing relation schemas and their foreign keys,
//! * a [`Database`] instance with constraint-checked inserts, in-place
//!   [`Database::update`]s (same [`TupleId`], restrict-checked key
//!   changes) and restrict-checked tombstone deletes,
//! * navigation along foreign keys in both directions:
//!   [`Database::references_from`] forward, and — backed by a
//!   persistent reverse-FK index maintained by every mutation —
//!   [`Database::references_to`] in O(incoming references), with
//!   [`ReferenceIndex`] as a version-stamped snapshot that fails fast
//!   once stale,
//! * change tracking for incremental maintenance: every mutation bumps
//!   [`Database::version`] and logs a [`ChangeOp`] that downstream
//!   index/graph structures drain via [`Database::take_changes`];
//!   [`Database::rollback`] undoes a drained batch (the rollback half
//!   of an atomic apply) and [`Database::compact`] reclaims tombstoned
//!   row slots behind a [`TupleRemap`].
//!
//! ## Example
//!
//! ```
//! use cla_relational::{SchemaBuilder, DataType, Database, Value};
//!
//! let catalog = SchemaBuilder::new()
//!     .relation("DEPARTMENT", |r| {
//!         r.attr("ID", DataType::Text)
//!             .attr("D_NAME", DataType::Text)
//!             .primary_key(&["ID"])
//!     })
//!     .relation("EMPLOYEE", |r| {
//!         r.attr("SSN", DataType::Text)
//!             .attr("L_NAME", DataType::Text)
//!             .attr("D_ID", DataType::Text)
//!             .primary_key(&["SSN"])
//!             .foreign_key("works_for", &["D_ID"], "DEPARTMENT", &["ID"])
//!     })
//!     .build()
//!     .unwrap();
//!
//! let mut db = Database::new(catalog).unwrap();
//! let dept = db.catalog().relation_id("DEPARTMENT").unwrap();
//! let emp = db.catalog().relation_id("EMPLOYEE").unwrap();
//! db.insert(dept, vec!["d1".into(), "Cs".into()]).unwrap();
//! db.insert(emp, vec!["e1".into(), "Smith".into(), "d1".into()]).unwrap();
//! db.validate_references().unwrap();
//!
//! let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
//! let (_fk, target) = db.references_from(e1)[0];
//! assert_eq!(db.tuple(target).unwrap().get(1), Some(&Value::from("Cs")));
//! ```

#![forbid(unsafe_code)]

mod builder;
mod change;
mod csv;
mod database;
mod display;
mod error;
mod query;
mod schema;
mod storage;
mod tuple;
mod value;

pub use builder::{RelationBuilder, SchemaBuilder};
pub use change::{ChangeOp, ChangeSet, TupleChange};
pub use csv::{from_csv, to_csv};
pub use database::{Database, FlatSummary, ReferenceIndex, TupleRemap};
pub use display::{render_database, render_relation};
pub use error::RelationalError;
pub use query::{hash_join, join_along_fk, project, select, select_all, RowSet};
pub use schema::{AttributeDef, Catalog, ForeignKeyDef, RelationSchema};
pub use tuple::{RelationId, Tuple, TupleId};
pub use value::{DataType, Value, ValueView};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, RelationalError>;
