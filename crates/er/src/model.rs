//! ER schema model: entity types and binary relationship types.

use crate::cardinality::{Cardinality, Side};
use crate::error::ErError;
use crate::Result;
use cla_relational::DataType;
use cla_storage::{ByteReader, ByteWriter, StorageError};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an entity type within an [`ErSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityTypeId(pub u32);

impl EntityTypeId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EntityTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "E{}", self.0)
    }
}

/// Identifier of a relationship type within an [`ErSchema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RelationshipId(pub u32);

impl RelationshipId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RelationshipId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// An attribute of an entity type or relationship type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErAttribute {
    /// Attribute name.
    pub name: String,
    /// Data type (shared with the relational layer).
    pub data_type: DataType,
    /// Whether this attribute is part of the entity key.
    pub key: bool,
    /// Whether NULL is allowed in the relational mapping.
    pub nullable: bool,
}

impl ErAttribute {
    /// A key attribute (non-nullable by construction).
    pub fn key(name: impl Into<String>, data_type: DataType) -> Self {
        ErAttribute { name: name.into(), data_type, key: true, nullable: false }
    }

    /// A plain non-key attribute.
    pub fn plain(name: impl Into<String>, data_type: DataType) -> Self {
        ErAttribute { name: name.into(), data_type, key: false, nullable: false }
    }

    /// A nullable non-key attribute.
    pub fn nullable(name: impl Into<String>, data_type: DataType) -> Self {
        ErAttribute { name: name.into(), data_type, key: false, nullable: true }
    }
}

/// An entity type with attributes (at least one key attribute is required
/// for the relational mapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityType {
    /// Entity type name, unique in the schema.
    pub name: String,
    /// Attributes in declaration order.
    pub attributes: Vec<ErAttribute>,
}

impl EntityType {
    /// Positions of the key attributes.
    pub fn key_positions(&self) -> Vec<usize> {
        self.attributes.iter().enumerate().filter(|(_, a)| a.key).map(|(i, _)| i).collect()
    }
}

/// Hints controlling how a relationship maps to the relational schema.
///
/// All fields are optional; defaults derive names from the entity types.
/// See [`crate::map_to_relational`] for the mapping rules.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MappingHintsDecl {
    /// Column name(s) for a direct foreign key (1:1, 1:N, N:1). One name
    /// per key attribute of the referenced entity.
    pub fk_column_names: Option<Vec<String>>,
    /// Insertion position of the direct FK columns in the owning relation
    /// (purely cosmetic; the paper's Figure 2 puts `D_ID` second in
    /// `PROJECT`). `None` appends.
    pub fk_position: Option<usize>,
    /// Whether the direct FK columns are nullable (partial participation).
    pub nullable_fk: bool,
    /// Name of the middle relation implementing an N:M relationship.
    pub middle_relation_name: Option<String>,
    /// Column name(s) of the middle-relation FK to the *left* entity.
    pub middle_left_columns: Option<Vec<String>>,
    /// Column name(s) of the middle-relation FK to the *right* entity.
    pub middle_right_columns: Option<Vec<String>>,
}

/// A binary relationship type with a cardinality constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationshipType {
    /// Relationship name, unique in the schema (e.g. `WORKS_ON`).
    pub name: String,
    /// Verb phrase used when explaining connections (e.g. `works on`).
    /// Read left→right: `left verb right`.
    pub verb: String,
    /// Verb phrase for the right→left reading (e.g. `is controlled by`).
    pub reverse_verb: String,
    /// Left entity type.
    pub left: EntityTypeId,
    /// Right entity type.
    pub right: EntityTypeId,
    /// Cardinality constraint, `left:right` (e.g. DEPARTMENT 1:N EMPLOYEE
    /// has `left = DEPARTMENT`, `cardinality = 1:N`).
    pub cardinality: Cardinality,
    /// Relationship attributes (e.g. `HOURS` on WORKS_ON); only N:M
    /// relationships can carry attributes in this model.
    pub attributes: Vec<ErAttribute>,
    /// Mapping hints.
    pub hints: MappingHintsDecl,
}

impl RelationshipType {
    /// The entity on the other side of the relationship, given one side.
    /// Returns `None` if `side` does not participate. For reflexive
    /// relationships (`left == right`) returns that same entity.
    pub fn other(&self, side: EntityTypeId) -> Option<EntityTypeId> {
        if side == self.left {
            Some(self.right)
        } else if side == self.right {
            Some(self.left)
        } else {
            None
        }
    }

    /// The cardinality oriented for a traversal starting at `from`:
    /// left→right yields the declared constraint, right→left the
    /// reversed one.
    pub fn oriented_cardinality(&self, from: EntityTypeId) -> Option<Cardinality> {
        if from == self.left {
            Some(self.cardinality)
        } else if from == self.right {
            Some(self.cardinality.reversed())
        } else {
            None
        }
    }
}

/// A complete ER schema.
#[derive(Debug, Clone, Default)]
pub struct ErSchema {
    entities: Vec<EntityType>,
    relationships: Vec<RelationshipType>,
    entity_by_name: HashMap<String, EntityTypeId>,
    relationship_by_name: HashMap<String, RelationshipId>,
}

impl ErSchema {
    /// An empty schema.
    pub fn new() -> Self {
        ErSchema::default()
    }

    /// Add an entity type. Requires a unique name and ≥ 1 key attribute.
    pub fn add_entity(&mut self, entity: EntityType) -> Result<EntityTypeId> {
        if self.entity_by_name.contains_key(&entity.name) {
            return Err(ErError::DuplicateEntity(entity.name.clone()));
        }
        if entity.key_positions().is_empty() {
            return Err(ErError::InvalidSchema(format!(
                "entity type `{}` has no key attribute",
                entity.name
            )));
        }
        let mut seen = std::collections::HashSet::new();
        for a in &entity.attributes {
            if !seen.insert(&a.name) {
                return Err(ErError::InvalidSchema(format!(
                    "entity type `{}` declares attribute `{}` twice",
                    entity.name, a.name
                )));
            }
        }
        let id = EntityTypeId(self.entities.len() as u32);
        self.entity_by_name.insert(entity.name.clone(), id);
        self.entities.push(entity);
        Ok(id)
    }

    /// Add a relationship type between existing entity types.
    pub fn add_relationship(&mut self, rel: RelationshipType) -> Result<RelationshipId> {
        if self.relationship_by_name.contains_key(&rel.name) {
            return Err(ErError::DuplicateRelationship(rel.name.clone()));
        }
        for side in [rel.left, rel.right] {
            if side.index() >= self.entities.len() {
                return Err(ErError::InvalidSchema(format!(
                    "relationship `{}` references unknown entity {side}",
                    rel.name
                )));
            }
        }
        if !rel.attributes.is_empty() && !rel.cardinality.is_many_to_many() {
            return Err(ErError::InvalidSchema(format!(
                "relationship `{}` carries attributes but is not N:M; attach them to the N-side entity instead",
                rel.name
            )));
        }
        let id = RelationshipId(self.relationships.len() as u32);
        self.relationship_by_name.insert(rel.name.clone(), id);
        self.relationships.push(rel);
        Ok(id)
    }

    /// The entity type with id `id`.
    pub fn entity(&self, id: EntityTypeId) -> Option<&EntityType> {
        self.entities.get(id.index())
    }

    /// The relationship type with id `id`.
    pub fn relationship(&self, id: RelationshipId) -> Option<&RelationshipType> {
        self.relationships.get(id.index())
    }

    /// Entity type id by name.
    pub fn entity_id(&self, name: &str) -> Option<EntityTypeId> {
        self.entity_by_name.get(name).copied()
    }

    /// Relationship id by name.
    pub fn relationship_id(&self, name: &str) -> Option<RelationshipId> {
        self.relationship_by_name.get(name).copied()
    }

    /// Number of entity types.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// Number of relationship types.
    pub fn relationship_count(&self) -> usize {
        self.relationships.len()
    }

    /// Iterate `(id, entity)` pairs in id order.
    pub fn entities(&self) -> impl Iterator<Item = (EntityTypeId, &EntityType)> {
        self.entities.iter().enumerate().map(|(i, e)| (EntityTypeId(i as u32), e))
    }

    /// Iterate `(id, relationship)` pairs in id order.
    pub fn relationships(&self) -> impl Iterator<Item = (RelationshipId, &RelationshipType)> {
        self.relationships.iter().enumerate().map(|(i, r)| (RelationshipId(i as u32), r))
    }

    /// Relationships in which entity `e` participates, with ids.
    pub fn relationships_of(
        &self,
        e: EntityTypeId,
    ) -> impl Iterator<Item = (RelationshipId, &RelationshipType)> {
        self.relationships().filter(move |(_, r)| r.left == e || r.right == e)
    }

    /// Serialize the schema declaration into one flat snapshot section.
    ///
    /// Only the declaration is stored — the relational [`cla_relational::Catalog`]
    /// and [`crate::SchemaMapping`] derived from it are recomputed by
    /// [`crate::map_to_relational`] after [`ErSchema::decode`], which is
    /// what keeps a reopened engine byte-compatible with a rebuilt one:
    /// both run the identical (pure) mapping.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.len(self.entities.len());
        for entity in &self.entities {
            w.str(&entity.name);
            encode_attributes(&mut w, &entity.attributes);
        }
        w.len(self.relationships.len());
        for rel in &self.relationships {
            w.str(&rel.name);
            w.str(&rel.verb);
            w.str(&rel.reverse_verb);
            w.u32(rel.left.0);
            w.u32(rel.right.0);
            encode_side(&mut w, rel.cardinality.left);
            encode_side(&mut w, rel.cardinality.right);
            encode_attributes(&mut w, &rel.attributes);
            let h = &rel.hints;
            encode_opt_strs(&mut w, h.fk_column_names.as_deref());
            match h.fk_position {
                None => w.bool(false),
                Some(pos) => {
                    w.bool(true);
                    w.len(pos);
                }
            }
            w.bool(h.nullable_fk);
            match &h.middle_relation_name {
                None => w.bool(false),
                Some(name) => {
                    w.bool(true);
                    w.str(name);
                }
            }
            encode_opt_strs(&mut w, h.middle_left_columns.as_deref());
            encode_opt_strs(&mut w, h.middle_right_columns.as_deref());
        }
        w.into_vec()
    }

    /// Rebuild a schema from an [`ErSchema::encode`]d payload by
    /// replaying the declarations through [`ErSchema::add_entity`] and
    /// [`ErSchema::add_relationship`] in id order — the decoded schema
    /// passes exactly the validation a hand-built one does, and ids come
    /// out identical. Corrupt payloads are a typed error, never a panic.
    pub fn decode(bytes: &[u8]) -> std::result::Result<Self, StorageError> {
        let invalid = |e: ErError| StorageError::Malformed(e.to_string());
        let mut r = ByteReader::new(bytes);
        let mut schema = ErSchema::new();
        let n_entities = r.len_of(2)?;
        for _ in 0..n_entities {
            let name = r.str()?;
            let attributes = decode_attributes(&mut r)?;
            schema.add_entity(EntityType { name, attributes }).map_err(invalid)?;
        }
        let n_relationships = r.len_of(2)?;
        for _ in 0..n_relationships {
            let name = r.str()?;
            let verb = r.str()?;
            let reverse_verb = r.str()?;
            let left = EntityTypeId(r.u32()?);
            let right = EntityTypeId(r.u32()?);
            let cardinality = Cardinality::new(decode_side(&mut r)?, decode_side(&mut r)?);
            let attributes = decode_attributes(&mut r)?;
            let fk_column_names = decode_opt_strs(&mut r)?;
            let fk_position = if r.bool()? { Some(r.len()?) } else { None };
            let nullable_fk = r.bool()?;
            let middle_relation_name = if r.bool()? { Some(r.str()?) } else { None };
            let middle_left_columns = decode_opt_strs(&mut r)?;
            let middle_right_columns = decode_opt_strs(&mut r)?;
            schema
                .add_relationship(RelationshipType {
                    name,
                    verb,
                    reverse_verb,
                    left,
                    right,
                    cardinality,
                    attributes,
                    hints: MappingHintsDecl {
                        fk_column_names,
                        fk_position,
                        nullable_fk,
                        middle_relation_name,
                        middle_left_columns,
                        middle_right_columns,
                    },
                })
                .map_err(invalid)?;
        }
        r.finish()?;
        Ok(schema)
    }
}

fn encode_side(w: &mut ByteWriter, side: Side) {
    w.u8(match side {
        Side::One => 0,
        Side::Many => 1,
    });
}

fn decode_side(r: &mut ByteReader<'_>) -> std::result::Result<Side, StorageError> {
    match r.u8()? {
        0 => Ok(Side::One),
        1 => Ok(Side::Many),
        tag => Err(StorageError::Malformed(format!("unknown cardinality side tag {tag}"))),
    }
}

fn encode_attributes(w: &mut ByteWriter, attrs: &[ErAttribute]) {
    w.len(attrs.len());
    for a in attrs {
        w.str(&a.name);
        w.u8(match a.data_type {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Text => 3,
        });
        w.bool(a.key);
        w.bool(a.nullable);
    }
}

fn decode_attributes(
    r: &mut ByteReader<'_>,
) -> std::result::Result<Vec<ErAttribute>, StorageError> {
    let n = r.len_of(4)?;
    let mut attrs = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        let data_type = match r.u8()? {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Text,
            tag => {
                return Err(StorageError::Malformed(format!("unknown data type tag {tag}")))
            }
        };
        let key = r.bool()?;
        let nullable = r.bool()?;
        attrs.push(ErAttribute { name, data_type, key, nullable });
    }
    Ok(attrs)
}

fn encode_opt_strs(w: &mut ByteWriter, strs: Option<&[String]>) {
    match strs {
        None => w.bool(false),
        Some(list) => {
            w.bool(true);
            w.len(list.len());
            for s in list {
                w.str(s);
            }
        }
    }
}

fn decode_opt_strs(
    r: &mut ByteReader<'_>,
) -> std::result::Result<Option<Vec<String>>, StorageError> {
    if !r.bool()? {
        return Ok(None);
    }
    let n = r.len_of(4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.str()?);
    }
    Ok(Some(out))
}

/// Builder for one entity type, used inside [`ErSchemaBuilder::entity`].
#[derive(Debug, Clone, Default)]
pub struct EntityBuilder {
    attributes: Vec<ErAttribute>,
}

impl EntityBuilder {
    /// Add a key attribute.
    pub fn key(mut self, name: &str, data_type: DataType) -> Self {
        self.attributes.push(ErAttribute::key(name, data_type));
        self
    }

    /// Add a plain attribute.
    pub fn attr(mut self, name: &str, data_type: DataType) -> Self {
        self.attributes.push(ErAttribute::plain(name, data_type));
        self
    }

    /// Add a nullable attribute.
    pub fn attr_nullable(mut self, name: &str, data_type: DataType) -> Self {
        self.attributes.push(ErAttribute::nullable(name, data_type));
        self
    }
}

/// Builder for one relationship, used inside [`ErSchemaBuilder::relationship`].
#[derive(Debug, Clone, Default)]
pub struct RelationshipBuilder {
    verb: Option<String>,
    reverse_verb: Option<String>,
    attributes: Vec<ErAttribute>,
    hints: MappingHintsDecl,
}

impl RelationshipBuilder {
    /// Verb phrase for explanations (defaults to the lowercased name).
    pub fn verb(mut self, verb: &str) -> Self {
        self.verb = Some(verb.to_owned());
        self
    }

    /// Verb phrase for the right→left reading (defaults to
    /// `is associated (<verb>) with`).
    pub fn reverse_verb(mut self, verb: &str) -> Self {
        self.reverse_verb = Some(verb.to_owned());
        self
    }

    /// Add a relationship attribute (N:M relationships only).
    pub fn attr(mut self, name: &str, data_type: DataType) -> Self {
        self.attributes.push(ErAttribute::plain(name, data_type));
        self
    }

    /// Set direct-FK column names (1:1 / 1:N / N:1 relationships).
    pub fn fk_columns(mut self, names: &[&str]) -> Self {
        self.hints.fk_column_names = Some(names.iter().map(|s| (*s).to_owned()).collect());
        self
    }

    /// Set the cosmetic insertion position of direct-FK columns.
    pub fn fk_position(mut self, pos: usize) -> Self {
        self.hints.fk_position = Some(pos);
        self
    }

    /// Make the direct FK nullable (partial participation).
    pub fn nullable_fk(mut self) -> Self {
        self.hints.nullable_fk = true;
        self
    }

    /// Set the middle-relation name (N:M relationships).
    pub fn middle_name(mut self, name: &str) -> Self {
        self.hints.middle_relation_name = Some(name.to_owned());
        self
    }

    /// Set the middle-relation column names referencing the left entity.
    pub fn middle_left_columns(mut self, names: &[&str]) -> Self {
        self.hints.middle_left_columns =
            Some(names.iter().map(|s| (*s).to_owned()).collect());
        self
    }

    /// Set the middle-relation column names referencing the right entity.
    pub fn middle_right_columns(mut self, names: &[&str]) -> Self {
        self.hints.middle_right_columns =
            Some(names.iter().map(|s| (*s).to_owned()).collect());
        self
    }
}

/// Fluent builder for a whole [`ErSchema`].
///
/// ```
/// use cla_er::{Cardinality, ErSchemaBuilder};
/// use cla_relational::DataType;
///
/// let schema = ErSchemaBuilder::new()
///     .entity("DEPARTMENT", |e| e.key("ID", DataType::Text))
///     .entity("EMPLOYEE", |e| e.key("SSN", DataType::Text))
///     .relationship(
///         "WORKS_FOR", "DEPARTMENT", "EMPLOYEE", Cardinality::ONE_TO_MANY,
///         |r| r.verb("works for").fk_columns(&["D_ID"]),
///     )
///     .build()
///     .unwrap();
/// assert_eq!(schema.entity_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ErSchemaBuilder {
    entities: Vec<(String, EntityBuilder)>,
    relationships: Vec<(String, String, String, Cardinality, RelationshipBuilder)>,
}

impl ErSchemaBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        ErSchemaBuilder::default()
    }

    /// Add an entity type configured by `f`.
    pub fn entity<F>(mut self, name: &str, f: F) -> Self
    where
        F: FnOnce(EntityBuilder) -> EntityBuilder,
    {
        self.entities.push((name.to_owned(), f(EntityBuilder::default())));
        self
    }

    /// Add a relationship `left —cardinality— right` configured by `f`.
    pub fn relationship<F>(
        mut self,
        name: &str,
        left: &str,
        right: &str,
        cardinality: Cardinality,
        f: F,
    ) -> Self
    where
        F: FnOnce(RelationshipBuilder) -> RelationshipBuilder,
    {
        self.relationships.push((
            name.to_owned(),
            left.to_owned(),
            right.to_owned(),
            cardinality,
            f(RelationshipBuilder::default()),
        ));
        self
    }

    /// Produce the validated [`ErSchema`].
    pub fn build(self) -> Result<ErSchema> {
        let mut schema = ErSchema::new();
        for (name, eb) in self.entities {
            schema.add_entity(EntityType { name, attributes: eb.attributes })?;
        }
        for (name, left, right, cardinality, rb) in self.relationships {
            let left_id = schema
                .entity_id(&left)
                .ok_or_else(|| ErError::UnknownEntity(left.clone()))?;
            let right_id = schema
                .entity_id(&right)
                .ok_or_else(|| ErError::UnknownEntity(right.clone()))?;
            let verb = rb.verb.unwrap_or_else(|| name.to_lowercase().replace('_', " "));
            let reverse_verb =
                rb.reverse_verb.unwrap_or_else(|| format!("is associated ({verb}) with"));
            schema.add_relationship(RelationshipType {
                name,
                verb,
                reverse_verb,
                left: left_id,
                right: right_id,
                cardinality,
                attributes: rb.attributes,
                hints: rb.hints,
            })?;
        }
        Ok(schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_entity_schema() -> ErSchema {
        ErSchemaBuilder::new()
            .entity("DEPARTMENT", |e| {
                e.key("ID", DataType::Text).attr("NAME", DataType::Text)
            })
            .entity("EMPLOYEE", |e| e.key("SSN", DataType::Text))
            .relationship(
                "WORKS_FOR",
                "DEPARTMENT",
                "EMPLOYEE",
                Cardinality::ONE_TO_MANY,
                |r| r.verb("works for"),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let s = two_entity_schema();
        assert_eq!(s.entity_count(), 2);
        assert_eq!(s.relationship_count(), 1);
        let d = s.entity_id("DEPARTMENT").unwrap();
        let e = s.entity_id("EMPLOYEE").unwrap();
        let wf = s.relationship_id("WORKS_FOR").unwrap();
        let rel = s.relationship(wf).unwrap();
        assert_eq!(rel.left, d);
        assert_eq!(rel.right, e);
        assert_eq!(rel.verb, "works for");
        assert_eq!(s.entity(d).unwrap().key_positions(), vec![0]);
    }

    #[test]
    fn oriented_cardinality_follows_traversal() {
        let s = two_entity_schema();
        let d = s.entity_id("DEPARTMENT").unwrap();
        let e = s.entity_id("EMPLOYEE").unwrap();
        let rel = s.relationship(s.relationship_id("WORKS_FOR").unwrap()).unwrap();
        assert_eq!(rel.oriented_cardinality(d), Some(Cardinality::ONE_TO_MANY));
        assert_eq!(rel.oriented_cardinality(e), Some(Cardinality::MANY_TO_ONE));
        assert_eq!(rel.oriented_cardinality(EntityTypeId(99)), None);
        assert_eq!(rel.other(d), Some(e));
        assert_eq!(rel.other(e), Some(d));
        assert_eq!(rel.other(EntityTypeId(99)), None);
    }

    #[test]
    fn duplicate_entity_rejected() {
        let err = ErSchemaBuilder::new()
            .entity("A", |e| e.key("ID", DataType::Int))
            .entity("A", |e| e.key("ID", DataType::Int))
            .build()
            .unwrap_err();
        assert!(matches!(err, ErError::DuplicateEntity(_)));
    }

    #[test]
    fn entity_requires_key() {
        let err = ErSchemaBuilder::new()
            .entity("A", |e| e.attr("X", DataType::Int))
            .build()
            .unwrap_err();
        assert!(matches!(err, ErError::InvalidSchema(_)));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = ErSchemaBuilder::new()
            .entity("A", |e| e.key("ID", DataType::Int).attr("ID", DataType::Text))
            .build()
            .unwrap_err();
        assert!(matches!(err, ErError::InvalidSchema(_)));
    }

    #[test]
    fn relationship_to_unknown_entity_rejected() {
        let err = ErSchemaBuilder::new()
            .entity("A", |e| e.key("ID", DataType::Int))
            .relationship("R", "A", "MISSING", Cardinality::ONE_TO_MANY, |r| r)
            .build()
            .unwrap_err();
        assert!(matches!(err, ErError::UnknownEntity(_)));
    }

    #[test]
    fn attributes_only_on_nm_relationships() {
        let err = ErSchemaBuilder::new()
            .entity("A", |e| e.key("ID", DataType::Int))
            .entity("B", |e| e.key("ID", DataType::Int))
            .relationship("R", "A", "B", Cardinality::ONE_TO_MANY, |r| {
                r.attr("X", DataType::Int)
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, ErError::InvalidSchema(_)));

        ErSchemaBuilder::new()
            .entity("A", |e| e.key("ID", DataType::Int))
            .entity("B", |e| e.key("ID", DataType::Int))
            .relationship("R", "A", "B", Cardinality::MANY_TO_MANY, |r| {
                r.attr("X", DataType::Int)
            })
            .build()
            .unwrap();
    }

    #[test]
    fn default_verb_derived_from_name() {
        let s = ErSchemaBuilder::new()
            .entity("A", |e| e.key("ID", DataType::Int))
            .entity("B", |e| e.key("ID", DataType::Int))
            .relationship("WORKS_ON", "A", "B", Cardinality::MANY_TO_MANY, |r| r)
            .build()
            .unwrap();
        let r = s.relationship(s.relationship_id("WORKS_ON").unwrap()).unwrap();
        assert_eq!(r.verb, "works on");
    }

    #[test]
    fn encode_decode_round_trips_declarations() {
        let s = ErSchemaBuilder::new()
            .entity("DEPARTMENT", |e| {
                e.key("ID", DataType::Text)
                    .attr("NAME", DataType::Text)
                    .attr_nullable("BUDGET", DataType::Float)
            })
            .entity("EMPLOYEE", |e| e.key("SSN", DataType::Text))
            .entity("PROJECT", |e| e.key("P_ID", DataType::Int))
            .relationship(
                "WORKS_FOR",
                "DEPARTMENT",
                "EMPLOYEE",
                Cardinality::ONE_TO_MANY,
                |r| {
                    r.verb("employs")
                        .reverse_verb("works for")
                        .fk_columns(&["D_ID"])
                        .fk_position(1)
                        .nullable_fk()
                },
            )
            .relationship("WORKS_ON", "EMPLOYEE", "PROJECT", Cardinality::MANY_TO_MANY, |r| {
                r.attr("HOURS", DataType::Int)
                    .middle_name("ASSIGNMENT")
                    .middle_left_columns(&["E_SSN"])
                    .middle_right_columns(&["P_ID"])
            })
            .build()
            .unwrap();

        let bytes = s.encode();
        let back = ErSchema::decode(&bytes).unwrap();

        assert_eq!(back.entity_count(), s.entity_count());
        assert_eq!(back.relationship_count(), s.relationship_count());
        for (id, entity) in s.entities() {
            assert_eq!(back.entity(id).unwrap(), entity);
            assert_eq!(back.entity_id(&entity.name), Some(id));
        }
        for (id, rel) in s.relationships() {
            assert_eq!(back.relationship(id).unwrap(), rel);
            assert_eq!(back.relationship_id(&rel.name), Some(id));
        }
        // Deterministic: re-encoding the decoded schema is byte-identical.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn decode_rejects_corrupt_payloads() {
        let s = two_entity_schema();
        let bytes = s.encode();
        for cut in 0..bytes.len() {
            assert!(ErSchema::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes.clone();
        long.push(7);
        assert!(ErSchema::decode(&long).is_err());
        // Replayed declarations are validated like hand-built ones: a
        // payload declaring the same entity twice is malformed.
        let mut w = ByteWriter::new();
        w.len(2);
        for _ in 0..2 {
            w.str("A");
            w.len(1);
            w.str("ID");
            w.u8(1);
            w.bool(true);
            w.bool(false);
        }
        w.len(0);
        assert!(matches!(
            ErSchema::decode(&w.into_vec()).unwrap_err(),
            StorageError::Malformed(_)
        ));
    }

    #[test]
    fn reflexive_relationship_supported() {
        let s = ErSchemaBuilder::new()
            .entity("EMPLOYEE", |e| e.key("SSN", DataType::Text))
            .relationship(
                "SUPERVISES",
                "EMPLOYEE",
                "EMPLOYEE",
                Cardinality::ONE_TO_MANY,
                |r| r.nullable_fk(),
            )
            .build()
            .unwrap();
        let e = s.entity_id("EMPLOYEE").unwrap();
        let r = s.relationship(s.relationship_id("SUPERVISES").unwrap()).unwrap();
        assert_eq!(r.other(e), Some(e));
        assert_eq!(s.relationships_of(e).count(), 1);
    }
}
