//! # cla-er — Entity-Relationship model substrate
//!
//! Implements the conceptual layer of the paper *Close and Loose
//! Associations in Keyword Search from Structural Data* (EDBT 2017
//! workshops, §2–3):
//!
//! * binary ER schemas with **cardinality constraints** (1:1, 1:N, N:1,
//!   N:M) — [`Cardinality`], [`ErSchema`];
//! * **cardinality chains** of transitive relationships and the paper's
//!   classification into *immediate*, *transitive functional*,
//!   *transitive N:M*, … with the derived **close/loose** verdict —
//!   [`CardinalityChain`], [`ChainClass`], [`Closeness`];
//! * **schema-level path enumeration** between entity types (the rows of
//!   the paper's Table 1) — [`enumerate_schema_paths`];
//! * the standard **ER→relational mapping** (§3 ¶1: one relation per
//!   entity type, a foreign key on the N-side for 1:N, a middle relation
//!   for N:M) together with a [`SchemaMapping`] that records *which*
//!   relational artifact implements *which* conceptual relationship. The
//!   keyword-search layer uses this provenance to collapse middle
//!   relations when computing conceptual connection lengths;
//! * Graphviz-DOT and ASCII rendering of ER schemas (the paper's
//!   Figure 1) — [`render_dot`], [`render_ascii`].
//!
//! ## Example: classifying the paper's Table 1 rows
//!
//! ```
//! use cla_er::{Cardinality, CardinalityChain, ChainClass, Closeness};
//!
//! // Relationship 3: department 1:N employee 1:N dependent
//! let chain = CardinalityChain::new(vec![
//!     Cardinality::ONE_TO_MANY,
//!     Cardinality::ONE_TO_MANY,
//! ]);
//! assert_eq!(chain.classify(), ChainClass::TransitiveFunctional);
//! assert_eq!(chain.closeness(), Closeness::Close);
//!
//! // Relationship 5: project N:1 department 1:N employee
//! let chain = CardinalityChain::new(vec![
//!     Cardinality::MANY_TO_ONE,
//!     Cardinality::ONE_TO_MANY,
//! ]);
//! assert_eq!(chain.classify(), ChainClass::TransitiveNM);
//! assert_eq!(chain.closeness(), Closeness::Loose);
//! ```

#![forbid(unsafe_code)]

mod cardinality;
mod chain;
mod error;
mod mapping;
mod matrix;
mod model;
mod path;
mod render;

pub use cardinality::{Cardinality, Side};
pub use chain::{CardinalityChain, ChainClass, Closeness};
pub use error::ErError;
pub use mapping::{
    map_to_relational, rdb_edge_cardinality, FkRole, MappingHints, SchemaMapping,
};
pub use matrix::{ClosenessMatrix, PairSummary};
pub use model::{
    EntityBuilder, EntityType, EntityTypeId, ErAttribute, ErSchema, ErSchemaBuilder,
    RelationshipBuilder, RelationshipId, RelationshipType,
};
pub use path::{enumerate_all_schema_paths, enumerate_schema_paths, SchemaPath, SchemaStep};
pub use render::{render_ascii, render_dot};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ErError>;
