//! The database instance: catalog + stored relations + reference navigation.

use crate::change::{ChangeOp, ChangeSet, TupleChange};
use crate::error::RelationalError;
use crate::schema::{Catalog, RelationSchema};
use crate::storage::RelationData;
use crate::tuple::{RelationId, Tuple, TupleId};
use crate::value::{Value, ValueView};
use crate::Result;
use cla_storage::{ByteReader, ByteWriter, StorageError};
use std::collections::HashMap;

/// Key of the persistent reverse-FK index: the *referenced* relation
/// plus the referenced key values, exactly as stored in the referencing
/// tuple's FK attributes. Keying by value rather than by resolved
/// [`TupleId`] keeps the index exact under lazy reference validation —
/// a forward (or temporarily dangling) reference is recorded the moment
/// the referencing tuple is inserted, whether or not its target exists
/// yet.
type RefKey = (RelationId, Vec<Value>);

/// An in-memory relational database instance.
///
/// Inserts are checked for arity, attribute types, NULL constraints and
/// primary-key uniqueness. Foreign-key references are validated lazily via
/// [`Database::validate_references`] so that data can be loaded in any
/// relation order (the paper's Figure 2 lists `PROJECT` before
/// `EMPLOYEE`, for example, even though `WORKS_FOR` references both).
///
/// The instance is mutable: [`Database::insert`] appends,
/// [`Database::update`] overwrites a live row in place (same
/// [`TupleId`]) and [`Database::delete`] tombstones (row indices are
/// stable and never reused, so [`TupleId`]s stay valid identifiers
/// across mutations; [`Database::compact`] is the one explicit exception
/// and hands back a remap table). Every mutation bumps
/// [`Database::version`] and appends to an internal [`ChangeSet`] that
/// incremental consumers drain with [`Database::take_changes`].
///
/// A persistent reverse foreign-key index is maintained by every
/// mutation, making [`Database::references_to`] and `delete`'s restrict
/// check O(incoming references) instead of a scan over every
/// referencing relation.
#[derive(Debug, Clone)]
pub struct Database {
    catalog: Catalog,
    data: Vec<RelationData>,
    version: u64,
    changes: ChangeSet,
    /// Persistent reverse-FK index: for each referenced key, the
    /// `(referencing tuple, fk index)` entries of every **live** tuple
    /// whose FK attributes hold that key. Maintained incrementally by
    /// insert/update/delete (and remapped by compact); entries are
    /// therefore always live, but a key may have no live target (a
    /// dangling reference awaiting lazy validation).
    incoming: HashMap<RefKey, Vec<(TupleId, usize)>>,
}

impl Database {
    /// Create an empty database over `catalog`.
    ///
    /// Fails if the catalog does not pass [`Catalog::validate`].
    pub fn new(catalog: Catalog) -> Result<Self> {
        catalog.validate()?;
        let data = (0..catalog.len()).map(|_| RelationData::new()).collect();
        Ok(Database {
            catalog,
            data,
            version: 0,
            changes: ChangeSet::new(),
            incoming: HashMap::new(),
        })
    }

    /// Monotone mutation counter: bumped by every successful insert,
    /// update or delete (and by [`Database::rollback`] and
    /// [`Database::compact`], which change physical state). Structures
    /// built from a snapshot record the version they saw and compare
    /// against it to detect staleness.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Drain and return the mutations logged since the last drain (or
    /// construction), leaving the log empty. The returned batch feeds
    /// the incremental `apply` paths of the index, data graph and search
    /// engine.
    ///
    /// The log holds a value snapshot per mutation (deletes genuinely
    /// need one — the tuple is gone afterwards), so it grows with every
    /// insert and delete until drained. Consumers that maintain derived
    /// structures drain it naturally (`SearchEngine::new`/`apply` do);
    /// standalone bulk loaders that never will should call this
    /// periodically and drop the result.
    pub fn take_changes(&mut self) -> ChangeSet {
        std::mem::take(&mut self.changes)
    }

    /// The mutations logged since the last [`Database::take_changes`],
    /// without draining.
    pub fn pending_changes(&self) -> &ChangeSet {
        &self.changes
    }

    /// The catalog describing this database.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Arity, type and NULL checks shared by insert and update.
    fn validate_row(schema: &RelationSchema, values: &[Value]) -> Result<()> {
        if values.len() != schema.arity() {
            return Err(RelationalError::ArityMismatch {
                relation: schema.name.clone(),
                expected: schema.arity(),
                got: values.len(),
            });
        }
        for (attr, value) in schema.attributes.iter().zip(values) {
            if value.is_null() {
                if !attr.nullable {
                    return Err(RelationalError::NullViolation {
                        relation: schema.name.clone(),
                        attribute: attr.name.clone(),
                    });
                }
            } else if !value.matches_type(attr.data_type) {
                return Err(RelationalError::TypeMismatch {
                    relation: schema.name.clone(),
                    attribute: attr.name.clone(),
                    expected: attr.data_type.to_string(),
                    got: format!("{value:?}"),
                });
            }
        }
        Ok(())
    }

    /// The reverse-index keys a row of `rel` with `values` contributes:
    /// one `(fk index, (target relation, key values))` per foreign key
    /// whose attributes are all non-NULL.
    fn fk_keys_of(schema: &RelationSchema, values: &[Value]) -> Vec<(usize, RefKey)> {
        schema
            .foreign_keys
            .iter()
            .enumerate()
            .filter_map(|(fk_idx, fk)| {
                let key: Vec<Value> =
                    fk.attributes.iter().map(|&i| values[i].clone()).collect();
                if key.iter().any(Value::is_null) {
                    None
                } else {
                    Some((fk_idx, (fk.target, key)))
                }
            })
            .collect()
    }

    /// Record a row's outgoing references (precomputed by
    /// [`Database::fk_keys_of`]) in the reverse index.
    fn index_reference_keys(&mut self, id: TupleId, fk_keys: Vec<(usize, RefKey)>) {
        for (fk_idx, key) in fk_keys {
            self.incoming.entry(key).or_default().push((id, fk_idx));
        }
    }

    /// Remove a row's outgoing references (precomputed by
    /// [`Database::fk_keys_of`]) from the reverse index.
    fn unindex_reference_keys(&mut self, id: TupleId, fk_keys: Vec<(usize, RefKey)>) {
        for (fk_idx, key) in fk_keys {
            let Some(entries) = self.incoming.get_mut(&key) else {
                debug_assert!(false, "unindexing a reference that was never indexed");
                continue;
            };
            entries.retain(|&(src, fk)| (src, fk) != (id, fk_idx));
            if entries.is_empty() {
                self.incoming.remove(&key);
            }
        }
    }

    /// Insert a row into relation `rel`.
    ///
    /// Checks arity, types, NULL constraints and PK uniqueness; foreign
    /// keys are *not* checked here (see [`Database::validate_references`]).
    pub fn insert(&mut self, rel: RelationId, values: Vec<Value>) -> Result<TupleId> {
        let schema = self
            .catalog
            .relation(rel)
            .ok_or_else(|| RelationalError::UnknownRelation(rel.to_string()))?;
        Self::validate_row(schema, &values)?;
        let key: Vec<Value> = schema.primary_key.iter().map(|&i| values[i].clone()).collect();
        let relation_name = schema.name.clone();
        let fk_keys = Self::fk_keys_of(schema, &values);
        let store = &mut self.data[rel.index()];
        if store.pk_index.contains_key(&key) {
            return Err(RelationalError::DuplicateKey {
                relation: relation_name,
                key: format!("{key:?}"),
            });
        }
        let row = store.push(Tuple::new(values.clone()));
        store.pk_index.insert(key, row);
        let id = TupleId::new(rel, row);
        self.index_reference_keys(id, fk_keys);
        let edges = self.references_from(id);
        self.version += 1;
        self.changes.push(ChangeOp::Insert(TupleChange { id, values, edges }));
        Ok(id)
    }

    /// Overwrite tuple `id`'s values in place, **preserving its
    /// [`TupleId`]** — the in-place update that a delete + re-insert
    /// (which churns the id and breaks every id-keyed consumer) cannot
    /// provide.
    ///
    /// Checks arity, types and NULL constraints like an insert. A
    /// changed primary key is re-validated against the PK index
    /// (duplicate keys are rejected) and is subject to **restrict**
    /// semantics like a delete: while any *other* live tuple references
    /// the old key, the change fails with
    /// [`RelationalError::UpdateRestricted`] (a tuple's own
    /// self-reference does not block, mirroring `delete`). Foreign-key
    /// references of the new values are recorded (and validated lazily,
    /// like inserts), and the reverse-FK index is re-pointed to match.
    ///
    /// Logs a [`ChangeOp::Update`] carrying both the old and the new
    /// snapshot, so incremental consumers can patch by diff instead of
    /// delete + re-insert.
    pub fn update(&mut self, id: TupleId, values: Vec<Value>) -> Result<()> {
        let schema = self
            .catalog
            .relation(id.relation)
            .ok_or_else(|| RelationalError::UnknownRelation(id.relation.to_string()))?;
        Self::validate_row(schema, &values)?;
        let Some(tuple) = self.data[id.relation.index()].get(id.row) else {
            return Err(RelationalError::TupleNotFound(id.to_string()));
        };
        let old_values = tuple.values().to_vec();
        let old_key: Vec<Value> = tuple.project(&schema.primary_key);
        let new_key: Vec<Value> =
            schema.primary_key.iter().map(|&i| values[i].clone()).collect();
        let relation_name = schema.name.clone();
        let old_fk_keys = Self::fk_keys_of(schema, &old_values);
        let new_fk_keys = Self::fk_keys_of(schema, &values);
        if new_key != old_key {
            if self.data[id.relation.index()].pk_index.contains_key(&new_key) {
                return Err(RelationalError::DuplicateKey {
                    relation: relation_name,
                    key: format!("{new_key:?}"),
                });
            }
            // Restrict: re-keying the tuple would silently dangle every
            // live reference to the old key. The tuple's own
            // self-reference does not block (it dangles only if the
            // caller chose not to re-point it in the same update, which
            // lazy validation reports like any other dangling FK).
            if let Some(blocker) = self
                .incoming
                .get(&(id.relation, old_key.clone()))
                .into_iter()
                .flatten()
                .find(|&&(src, _)| src != id)
            {
                return Err(RelationalError::UpdateRestricted {
                    relation: relation_name,
                    referenced_by: blocker.0.to_string(),
                });
            }
        }
        let old_edges = self.references_from(id);
        self.unindex_reference_keys(id, old_fk_keys);
        let store = &mut self.data[id.relation.index()];
        store.replace(id.row, Tuple::new(values.clone()));
        if new_key != old_key {
            store.pk_index.remove(&old_key);
            store.pk_index.insert(new_key, id.row);
        }
        self.index_reference_keys(id, new_fk_keys);
        let new_edges = self.references_from(id);
        self.version += 1;
        self.changes.push(ChangeOp::Update {
            old: TupleChange { id, values: old_values, edges: old_edges },
            new: TupleChange { id, values, edges: new_edges },
        });
        Ok(())
    }

    /// Delete tuple `id` (tombstoning its row; the row index is never
    /// reused). **Restrict** semantics: the delete fails with
    /// [`RelationalError::DeleteRestricted`] while any other live tuple
    /// still references `id` — delete the referencing tuples first. A
    /// tuple whose own foreign key targets itself (a self-loop row) does
    /// not block its own deletion.
    ///
    /// The restrict check is one probe of the persistent reverse-FK
    /// index — O(incoming references), not a scan over every relation
    /// with a foreign key targeting `id`'s relation. The logged
    /// [`TupleChange`] snapshots the tuple's values and resolved edges so
    /// incremental consumers can unindex it after the fact.
    pub fn delete(&mut self, id: TupleId) -> Result<()> {
        let schema = self
            .catalog
            .relation(id.relation)
            .ok_or_else(|| RelationalError::UnknownRelation(id.relation.to_string()))?;
        let Some(tuple) = self.data[id.relation.index()].get(id.row) else {
            return Err(RelationalError::TupleNotFound(id.to_string()));
        };
        let key: Vec<Value> = tuple.project(&schema.primary_key);
        let values = tuple.values().to_vec();
        let relation_name = schema.name.clone();
        let fk_keys = Self::fk_keys_of(schema, &values);
        // Restrict: no live tuple may still reference the victim. The
        // reverse index holds exactly the live tuples whose FK values
        // equal the victim's primary key; the victim's own
        // self-reference does not block.
        if let Some(blocker) = self
            .incoming
            .get(&(id.relation, key.clone()))
            .into_iter()
            .flatten()
            .find(|&&(src, _)| src != id)
        {
            return Err(RelationalError::DeleteRestricted {
                relation: relation_name,
                referenced_by: blocker.0.to_string(),
            });
        }
        let edges = self.references_from(id);
        self.unindex_reference_keys(id, fk_keys);
        let store = &mut self.data[id.relation.index()];
        store.pk_index.remove(&key);
        store.tombstone(id.row);
        self.version += 1;
        self.changes.push(ChangeOp::Delete(TupleChange { id, values, edges }));
        Ok(())
    }

    /// Undo a drained batch of mutations, restoring the database's
    /// **content** to its pre-batch state (inverse operations applied in
    /// reverse order: inserts are un-inserted, deletes resurrected under
    /// their original [`TupleId`], updates written back). This is the
    /// rollback half of an atomic apply: a consumer that drained the
    /// batch with [`Database::take_changes`] and failed to patch its
    /// derived structures calls this to put the database back in the
    /// state those structures reflect.
    ///
    /// `changes` must be exactly the ops drained since the caller's last
    /// sync, unmodified and not yet rolled back — inverse ops assume the
    /// current physical state is the batch's outcome. The rollback
    /// itself logs nothing (there is nothing left to apply) but bumps
    /// [`Database::version`] once, so any other snapshot of the
    /// intermediate state fails fast; callers re-sync to the new
    /// version. Un-inserted rows leave a tombstoned slot behind (slots
    /// are never reused), which [`Database::compact`] reclaims like any
    /// other.
    pub fn rollback(&mut self, changes: &ChangeSet) {
        let pk_of = |schema: &RelationSchema, values: &[Value]| -> Vec<Value> {
            schema.primary_key.iter().map(|&i| values[i].clone()).collect()
        };
        for op in changes.ops().iter().rev() {
            let schema = self
                .catalog
                .relation(op.change().id.relation)
                // lint: allow(unwrap, the op was validated against the catalog when applied)
                .expect("rolled-back op references a cataloged relation");
            match op {
                ChangeOp::Insert(c) => {
                    let key = pk_of(schema, &c.values);
                    let fk_keys = Self::fk_keys_of(schema, &c.values);
                    self.unindex_reference_keys(c.id, fk_keys);
                    let store = &mut self.data[c.id.relation.index()];
                    store.pk_index.remove(&key);
                    store.tombstone(c.id.row);
                }
                ChangeOp::Delete(c) => {
                    let key = pk_of(schema, &c.values);
                    let fk_keys = Self::fk_keys_of(schema, &c.values);
                    let store = &mut self.data[c.id.relation.index()];
                    store.resurrect(c.id.row);
                    store.pk_index.insert(key, c.id.row);
                    self.index_reference_keys(c.id, fk_keys);
                }
                ChangeOp::Update { old, new } => {
                    let old_key = pk_of(schema, &old.values);
                    let new_key = pk_of(schema, &new.values);
                    let old_fk_keys = Self::fk_keys_of(schema, &old.values);
                    let new_fk_keys = Self::fk_keys_of(schema, &new.values);
                    self.unindex_reference_keys(new.id, new_fk_keys);
                    let store = &mut self.data[old.id.relation.index()];
                    store.replace(old.id.row, Tuple::new(old.values.clone()));
                    if new_key != old_key {
                        store.pk_index.remove(&new_key);
                        store.pk_index.insert(old_key, old.id.row);
                    }
                    self.index_reference_keys(old.id, old_fk_keys);
                }
            }
        }
        if !changes.is_empty() {
            self.version += 1;
        }
    }

    /// Reclaim every tombstoned row slot, renumbering the surviving rows
    /// of each relation densely (in slot order) behind the returned
    /// [`TupleRemap`]. Content is unchanged — only ids move — but every
    /// outstanding [`TupleId`] is invalidated: consumers holding
    /// id-keyed state must remap it (or rebuild). The change log must be
    /// empty (drain — and apply — first), since logged ops refer to the
    /// old numbering; the version is bumped so stale snapshots fail
    /// fast.
    pub fn compact(&mut self) -> Result<TupleRemap> {
        if !self.changes.is_empty() {
            return Err(RelationalError::CompactionWithPendingChanges {
                pending_ops: self.changes.len(),
            });
        }
        let per_rel: Vec<Vec<Option<u32>>> =
            self.data.iter_mut().map(RelationData::compact).collect();
        let remap = TupleRemap { per_rel };
        for entries in self.incoming.values_mut() {
            for (src, _) in entries.iter_mut() {
                // lint: allow(unwrap, unindex removes reverse entries before tuples die)
                *src = remap.map(*src).expect("reverse-index entries are live");
            }
        }
        self.version += 1;
        Ok(remap)
    }

    /// The tuple with id `id`, if it exists and is live.
    pub fn tuple(&self, id: TupleId) -> Option<&Tuple> {
        self.data.get(id.relation.index()).and_then(|d| d.get(id.row))
    }

    /// Number of tuples in relation `rel` (0 for unknown relations).
    pub fn tuple_count(&self, rel: RelationId) -> usize {
        self.data.get(rel.index()).map_or(0, RelationData::len)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.data.iter().map(RelationData::len).sum()
    }

    /// Total number of row **slots** across all relations (live rows
    /// plus tombstones; equals [`Database::total_tuples`] right after
    /// [`Database::compact`]).
    pub fn total_row_slots(&self) -> usize {
        self.data.iter().map(RelationData::slot_count).sum()
    }

    /// Iterate over `(id, tuple)` for every live tuple of relation `rel`,
    /// in row order (tombstoned rows are skipped).
    pub fn tuples(&self, rel: RelationId) -> impl Iterator<Item = (TupleId, &Tuple)> {
        self.data.get(rel.index()).into_iter().flat_map(move |d| {
            d.tuples
                .iter()
                .zip(&d.alive)
                .enumerate()
                .filter(|(_, (_, alive))| **alive)
                .map(move |(row, (t, _))| (TupleId::new(rel, row as u32), t))
        })
    }

    /// Iterate over every tuple id in the database, relation by relation.
    pub fn all_tuple_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.catalog.iter().flat_map(move |(rel, _)| self.tuples(rel).map(|(id, _)| id))
    }

    /// Look up a tuple by its primary-key values.
    pub fn lookup_pk(&self, rel: RelationId, key: &[Value]) -> Option<TupleId> {
        self.data.get(rel.index())?.pk_index.get(key).map(|&row| TupleId::new(rel, row))
    }

    /// Resolve foreign key number `fk_idx` of tuple `id`.
    ///
    /// Returns `Ok(None)` when any referencing attribute is NULL (a
    /// dangling optional reference), `Ok(Some(target))` when the reference
    /// resolves, and an error when it dangles on non-NULL values.
    pub fn fk_target(&self, id: TupleId, fk_idx: usize) -> Result<Option<TupleId>> {
        let schema = self
            .catalog
            .relation(id.relation)
            .ok_or_else(|| RelationalError::UnknownRelation(id.relation.to_string()))?;
        let fk = schema.foreign_keys.get(fk_idx).ok_or_else(|| {
            RelationalError::InvalidSchema(format!(
                "relation `{}` has no foreign key #{fk_idx}",
                schema.name
            ))
        })?;
        let tuple = self.tuple(id).ok_or_else(|| {
            RelationalError::InvalidSchema(format!("tuple {id} does not exist"))
        })?;
        let key: Vec<Value> =
            fk.attributes.iter().map(|&i| tuple.values()[i].clone()).collect();
        if key.iter().any(Value::is_null) {
            return Ok(None);
        }
        match self.lookup_pk(fk.target, &key) {
            Some(t) => Ok(Some(t)),
            None => Err(RelationalError::ForeignKeyViolation {
                relation: schema.name.clone(),
                foreign_key: fk.name.clone(),
                detail: format!("no tuple with key {key:?} in target relation"),
            }),
        }
    }

    /// All outgoing resolved references of tuple `id` as
    /// `(fk index, target tuple)` pairs. Dangling or NULL references are
    /// skipped (use [`Database::validate_references`] to detect dangling
    /// ones).
    pub fn references_from(&self, id: TupleId) -> Vec<(usize, TupleId)> {
        let Some(schema) = self.catalog.relation(id.relation) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(schema.foreign_keys.len());
        for fk_idx in 0..schema.foreign_keys.len() {
            if let Ok(Some(target)) = self.fk_target(id, fk_idx) {
                out.push((fk_idx, target));
            }
        }
        out
    }

    /// The live tuples referencing `id`, as sorted
    /// `(source tuple, fk index in source)` pairs — one probe of the
    /// persistent reverse-FK index, O(incoming references). Always
    /// current (unlike a [`ReferenceIndex`] snapshot). Empty for dead or
    /// unknown tuples.
    pub fn references_to(&self, id: TupleId) -> Vec<(TupleId, usize)> {
        let Some(schema) = self.catalog.relation(id.relation) else {
            return Vec::new();
        };
        let Some(tuple) = self.tuple(id) else {
            return Vec::new();
        };
        let key = tuple.project(&schema.primary_key);
        let mut entries = self.incoming.get(&(id.relation, key)).cloned().unwrap_or_default();
        entries.sort_unstable();
        entries
    }

    /// Check referential integrity of the whole instance.
    pub fn validate_references(&self) -> Result<()> {
        for (rel, schema) in self.catalog.iter() {
            for fk_idx in 0..schema.foreign_keys.len() {
                for (id, _) in self.tuples(rel) {
                    self.fk_target(id, fk_idx)?;
                }
            }
        }
        Ok(())
    }

    /// Serialize the instance's row storage into one flat snapshot
    /// section: the version counter, then every relation's row **slots**
    /// in catalog order — tombstones included, so [`TupleId`]s survive a
    /// save/open round trip and mutations keep working on the reopened
    /// instance.
    ///
    /// The catalog itself is *not* part of the payload (the caller
    /// serializes the ER schema it was derived from and recomputes it);
    /// neither are the PK index, the reverse-FK index, or the change
    /// log: the first two are derived and rebuilt by
    /// [`Database::decode_flat`], and a snapshot is only taken when the
    /// log is drained.
    pub fn encode_flat(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.version);
        w.len(self.data.len());
        for store in &self.data {
            w.len(store.tuples.len());
            for (tuple, &alive) in store.tuples.iter().zip(&store.alive) {
                w.bool(alive);
                w.len(tuple.values().len());
                for value in tuple.values() {
                    value.encode(&mut w);
                }
            }
        }
        w.into_vec()
    }

    /// Rebuild an instance from an [`Database::encode_flat`] payload and
    /// the (recomputed) catalog it was saved under.
    ///
    /// The payload is validated, never trusted: the relation count must
    /// match the catalog, every live row must pass the same arity, type,
    /// NULL and PK-uniqueness checks an insert would, and the payload
    /// must be consumed exactly. The PK and reverse-FK indexes are
    /// rebuilt from the live rows; the change log starts empty.
    pub fn decode_flat(
        catalog: Catalog,
        bytes: &[u8],
    ) -> std::result::Result<Self, StorageError> {
        let malformed = |e: &dyn std::fmt::Display| StorageError::Malformed(e.to_string());
        catalog.validate().map_err(|e| malformed(&e))?;
        let mut r = ByteReader::new(bytes);
        let version = r.u64()?;
        let n_rel = r.len_of(1)?;
        if n_rel != catalog.len() {
            return Err(StorageError::Malformed(format!(
                "snapshot has {n_rel} relations, catalog has {}",
                catalog.len()
            )));
        }
        let mut db = Database::new(catalog).map_err(|e| malformed(&e))?;
        db.version = version;
        for rel_idx in 0..n_rel {
            let rel = RelationId(rel_idx as u32);
            let n_slots = r.len_of(2)?;
            // Cold-start sizing: one PK entry per live slot and roughly
            // one reverse-FK key per row; reserving up front keeps the
            // rebuild loop out of incremental rehashing.
            db.data[rel_idx].pk_index.reserve(n_slots);
            db.data[rel_idx].tuples.reserve(n_slots);
            db.data[rel_idx].alive.reserve(n_slots);
            db.incoming.reserve(n_slots);
            for row in 0..n_slots {
                let alive = r.bool()?;
                let n_values = r.len_of(1)?;
                let mut values = Vec::with_capacity(n_values);
                for _ in 0..n_values {
                    values.push(Value::decode(&mut r)?);
                }
                if alive {
                    // lint: allow(unwrap, relation ids 0..catalog.len() are always cataloged)
                    let schema = db.catalog.relation(rel).expect("relation id in range");
                    Self::validate_row(schema, &values).map_err(|e| malformed(&e))?;
                    let key: Vec<Value> =
                        schema.primary_key.iter().map(|&i| values[i].clone()).collect();
                    let fk_keys = Self::fk_keys_of(schema, &values);
                    let store = &mut db.data[rel_idx];
                    if store.pk_index.insert(key, row as u32).is_some() {
                        return Err(StorageError::Malformed(format!(
                            "duplicate primary key in relation {rel_idx} row {row}"
                        )));
                    }
                    store.push(Tuple::new(values));
                    db.index_reference_keys(TupleId::new(rel, row as u32), fk_keys);
                } else {
                    let store = &mut db.data[rel_idx];
                    store.push(Tuple::new(values));
                    store.tombstone(row as u32);
                }
            }
        }
        r.finish()?;
        db.changes = ChangeSet::new();
        Ok(db)
    }

    /// Validate an [`Database::encode_flat`] payload **without
    /// materializing it**: every check [`Database::decode_flat`] would
    /// perform runs here — relation count against the catalog, slot
    /// structure, per-value decode, arity/type/NULL constraints and
    /// primary-key uniqueness of live rows, exact payload consumption —
    /// but no `Database` is built, no value is copied, and the
    /// allocation count is O(1) in database size (a few reused scratch
    /// buffers). The zero-copy open path runs this at open so a later
    /// lazy [`Database::decode_flat`] of the same bytes is
    /// **guaranteed to succeed**; the two functions must stay in
    /// lockstep check-for-check.
    ///
    /// `on_live_row` is invoked once per live row in storage order
    /// (catalog relation order, ascending row) with the row's id and its
    /// relation's slot count; returning an error message surfaces as
    /// [`StorageError::Malformed`] — callers use it to cross-check the
    /// payload against sibling sections, or to size per-relation arrays
    /// from validated counts.
    ///
    /// Primary-key uniqueness is checked without building an index:
    /// live rows are hashed over their PK attributes' encoded bytes
    /// (an FNV-style mix folding eight bytes per step — collisions
    /// only cost a re-check, so speed beats distribution here),
    /// sorted, and equal-hash neighbors re-parsed and compared
    /// byte-exactly ([`Value::encode`] is injective up to value
    /// equality — floats are stored and compared by bit pattern — so
    /// byte equality of the encoded key *is* key equality).
    pub fn validate_flat(
        catalog: &Catalog,
        bytes: &[u8],
        mut on_live_row: impl FnMut(TupleId, usize) -> std::result::Result<(), String>,
    ) -> std::result::Result<FlatSummary, StorageError> {
        let malformed = |e: &dyn std::fmt::Display| StorageError::Malformed(e.to_string());
        catalog.validate().map_err(|e| malformed(&e))?;
        let mut r = ByteReader::new(bytes);
        let version = r.u64()?;
        let n_rel = r.len_of(1)?;
        if n_rel != catalog.len() {
            return Err(StorageError::Malformed(format!(
                "snapshot has {n_rel} relations, catalog has {}",
                catalog.len()
            )));
        }
        let mut live_rows = 0usize;
        let mut references = 0usize;
        // Scratch buffers reused across every relation and row: the
        // whole pass allocates a constant number of times regardless of
        // how many rows the payload holds.
        let mut pk_rows: Vec<(u64, u32, u32)> = Vec::new();
        let mut null_attrs: Vec<usize> = Vec::new();
        let mut spans_a: Vec<(usize, usize)> = Vec::new();
        let mut spans_b: Vec<(usize, usize)> = Vec::new();
        for rel_idx in 0..n_rel {
            let rel = RelationId(rel_idx as u32);
            // lint: allow(unwrap, relation ids 0..catalog.len() are always cataloged)
            let schema = catalog.relation(rel).expect("relation id in range");
            let n_slots = r.len_of(2)?;
            pk_rows.clear();
            pk_rows.reserve(n_slots);
            for row in 0..n_slots {
                let alive = r.bool()?;
                let values_start = r.position();
                let n_values = r.len_of(1)?;
                if alive && n_values != schema.arity() {
                    return Err(StorageError::Malformed(format!(
                        "relation {rel_idx} row {row} has {n_values} values, arity {}",
                        schema.arity()
                    )));
                }
                // FNV-style mix over the PK attributes' encoded bytes,
                // folded eight bytes per step (encoded values are
                // length-prefixed, hence self-delimiting, so chunked
                // folding stays injective enough — any collision is
                // resolved byte-exactly below).
                let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
                null_attrs.clear();
                for attr_idx in 0..n_values {
                    let before = r.position();
                    let view = ValueView::decode(&mut r)?;
                    if !alive {
                        continue;
                    }
                    let attr = &schema.attributes[attr_idx];
                    if view.is_null() {
                        if !attr.nullable {
                            return Err(StorageError::Malformed(format!(
                                "NULL in non-nullable {}.{}",
                                schema.name, attr.name
                            )));
                        }
                        null_attrs.push(attr_idx);
                    } else if !view.matches_type(attr.data_type) {
                        return Err(StorageError::Malformed(format!(
                            "type mismatch in {}.{}",
                            schema.name, attr.name
                        )));
                    }
                    if schema.primary_key.contains(&attr_idx) {
                        let span = &bytes[before..r.position()];
                        let mut chunks = span.chunks_exact(8);
                        for c in &mut chunks {
                            let w = u64::from_le_bytes([
                                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                            ]);
                            hash = (hash ^ w).wrapping_mul(0x100_0000_01b3);
                        }
                        let mut tail = span.len() as u64;
                        for &b in chunks.remainder() {
                            tail = (tail << 8) | u64::from(b);
                        }
                        hash = (hash ^ tail).wrapping_mul(0x100_0000_01b3);
                    }
                }
                if alive {
                    live_rows += 1;
                    // A foreign key with a NULL attribute references
                    // nothing; most rows hold no NULL at all.
                    references += if null_attrs.is_empty() {
                        schema.foreign_keys.len()
                    } else {
                        schema
                            .foreign_keys
                            .iter()
                            .filter(|fk| {
                                !fk.attributes.iter().any(|a| null_attrs.contains(a))
                            })
                            .count()
                    };
                    pk_rows.push((hash, row as u32, values_start as u32));
                    on_live_row(TupleId::new(rel, row as u32), n_slots)
                        .map_err(StorageError::Malformed)?;
                }
            }
            // Equal hashes are only a candidate set; the verdict is an
            // exact byte comparison of the re-parsed key spans, so an
            // adversarial hash collision cannot smuggle a duplicate in.
            pk_rows.sort_unstable();
            for i in 1..pk_rows.len() {
                for j in (0..i).rev() {
                    if pk_rows[j].0 != pk_rows[i].0 {
                        break;
                    }
                    Self::flat_pk_spans(schema, bytes, pk_rows[i].2 as usize, &mut spans_a)?;
                    Self::flat_pk_spans(schema, bytes, pk_rows[j].2 as usize, &mut spans_b)?;
                    let equal = spans_a.len() == spans_b.len()
                        && spans_a
                            .iter()
                            .zip(&spans_b)
                            .all(|(&(a0, a1), &(b0, b1))| bytes[a0..a1] == bytes[b0..b1]);
                    if equal {
                        return Err(StorageError::Malformed(format!(
                            "duplicate primary key in relation {rel_idx} row {}",
                            pk_rows[i].1.max(pk_rows[j].1)
                        )));
                    }
                }
            }
        }
        r.finish()?;
        Ok(FlatSummary { version, live_rows, references })
    }

    /// Re-parse one live row's primary-key attribute byte spans into
    /// `spans` (only reached when two rows' key hashes collide).
    fn flat_pk_spans(
        schema: &RelationSchema,
        bytes: &[u8],
        values_start: usize,
        spans: &mut Vec<(usize, usize)>,
    ) -> std::result::Result<(), StorageError> {
        spans.clear();
        let mut r = ByteReader::new(&bytes[values_start..]);
        let n_values = r.len_of(1)?;
        for attr_idx in 0..n_values {
            let before = values_start + r.position();
            ValueView::decode(&mut r)?;
            if schema.primary_key.contains(&attr_idx) {
                spans.push((before, values_start + r.position()));
            }
        }
        Ok(())
    }

    /// Snapshot the reverse reference index (referenced → referencing)
    /// at the current version.
    ///
    /// Derived from the persistent reverse-FK index in O(reference
    /// edges) — no relation scan. The snapshot is version-stamped:
    /// [`ReferenceIndex::references_to_checked`] fails fast once the
    /// database moves on. Callers that just want the current incoming
    /// references of one tuple should use [`Database::references_to`]
    /// instead.
    pub fn build_reference_index(&self) -> ReferenceIndex {
        let mut incoming: HashMap<TupleId, Vec<(TupleId, usize)>> = HashMap::new();
        for ((rel, key), entries) in &self.incoming {
            // Keys without a live target are dangling references waiting
            // on lazy validation; they reverse to no live tuple.
            if let Some(target) = self.lookup_pk(*rel, key) {
                let list = incoming.entry(target).or_default();
                list.extend(entries.iter().copied());
                list.sort_unstable();
            }
        }
        ReferenceIndex { incoming, version: self.version }
    }
}

/// What [`Database::validate_flat`] learned about a payload without
/// materializing it.
#[derive(Debug, Clone, Copy)]
pub struct FlatSummary {
    /// The stored mutation counter ([`Database::version`] at save time).
    pub version: u64,
    /// Live (non-tombstoned) rows across all relations.
    pub live_rows: usize,
    /// Foreign keys of live rows whose attributes are all non-NULL: the
    /// references a fully resolved instance turns into graph edges.
    pub references: usize,
}

/// Remap table returned by [`Database::compact`]: for every pre-compact
/// [`TupleId`], the id the same tuple carries afterwards (`None` if the
/// slot was tombstoned and reclaimed).
#[derive(Debug, Clone)]
pub struct TupleRemap {
    /// `per_rel[rel][old row] = Some(new row)` for survivors.
    per_rel: Vec<Vec<Option<u32>>>,
}

impl TupleRemap {
    /// The post-compaction id of pre-compaction tuple `id`, if the
    /// tuple survived (dead and out-of-range ids map to `None`).
    pub fn map(&self, id: TupleId) -> Option<TupleId> {
        let row = *self.per_rel.get(id.relation.index())?.get(id.row as usize)?;
        row.map(|r| TupleId::new(id.relation, r))
    }

    /// Number of tombstoned slots the compaction reclaimed.
    pub fn reclaimed(&self) -> usize {
        self.per_rel.iter().flatten().filter(|r| r.is_none()).count()
    }

    /// `true` when no row moved (the database had no tombstones).
    pub fn is_identity(&self) -> bool {
        self.reclaimed() == 0
    }
}

/// Reverse foreign-key index snapshot: for each tuple, the tuples
/// referencing it, frozen at one database version.
///
/// Built with [`Database::build_reference_index`] from the database's
/// persistent reverse-FK index (no scan). The snapshot does not follow
/// later mutations; it records the version it saw, and the checked
/// accessor fails fast instead of answering from stale state. For
/// always-current lookups use [`Database::references_to`].
#[derive(Debug, Clone, Default)]
pub struct ReferenceIndex {
    incoming: HashMap<TupleId, Vec<(TupleId, usize)>>,
    version: u64,
}

impl ReferenceIndex {
    /// Tuples referencing `id`, as sorted
    /// `(source tuple, fk index in source)` pairs — **as of the
    /// snapshot's version** (see [`ReferenceIndex::references_to_checked`]
    /// for the fail-fast accessor).
    pub fn references_to(&self, id: TupleId) -> &[(TupleId, usize)] {
        self.incoming.get(&id).map_or(&[], Vec::as_slice)
    }

    /// [`ReferenceIndex::references_to`] with a staleness check: fails
    /// with [`RelationalError::StaleReferenceIndex`] when `db` has moved
    /// past the version this snapshot was built at.
    pub fn references_to_checked(
        &self,
        db: &Database,
        id: TupleId,
    ) -> Result<&[(TupleId, usize)]> {
        if db.version() != self.version {
            return Err(RelationalError::StaleReferenceIndex {
                index_version: self.version,
                db_version: db.version(),
            });
        }
        Ok(self.references_to(id))
    }

    /// The database version this snapshot was built at.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total number of stored reference edges.
    pub fn edge_count(&self) -> usize {
        self.incoming.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SchemaBuilder;
    use crate::value::DataType;

    fn two_relation_db() -> (Database, RelationId, RelationId) {
        let catalog = SchemaBuilder::new()
            .relation("DEPARTMENT", |r| {
                r.attr("ID", DataType::Text)
                    .attr("D_NAME", DataType::Text)
                    .primary_key(&["ID"])
            })
            .relation("EMPLOYEE", |r| {
                r.attr("SSN", DataType::Text)
                    .attr("L_NAME", DataType::Text)
                    .attr_nullable("D_ID", DataType::Text)
                    .primary_key(&["SSN"])
                    .foreign_key("works_for", &["D_ID"], "DEPARTMENT", &["ID"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let dept = db.catalog().relation_id("DEPARTMENT").unwrap();
        let emp = db.catalog().relation_id("EMPLOYEE").unwrap();
        db.insert(dept, vec!["d1".into(), "Cs".into()]).unwrap();
        db.insert(dept, vec!["d2".into(), "inf".into()]).unwrap();
        db.insert(emp, vec!["e1".into(), "Smith".into(), "d1".into()]).unwrap();
        db.insert(emp, vec!["e2".into(), "Smith".into(), "d2".into()]).unwrap();
        (db, dept, emp)
    }

    #[test]
    fn insert_and_lookup() {
        let (db, dept, emp) = two_relation_db();
        assert_eq!(db.tuple_count(dept), 2);
        assert_eq!(db.tuple_count(emp), 2);
        assert_eq!(db.total_tuples(), 4);
        let d1 = db.lookup_pk(dept, &[Value::from("d1")]).unwrap();
        assert_eq!(db.tuple(d1).unwrap().get(1), Some(&Value::from("Cs")));
        assert!(db.lookup_pk(dept, &[Value::from("zz")]).is_none());
    }

    #[test]
    fn arity_checked() {
        let (mut db, dept, _) = two_relation_db();
        let err = db.insert(dept, vec!["d9".into()]).unwrap_err();
        assert!(matches!(err, RelationalError::ArityMismatch { expected: 2, got: 1, .. }));
    }

    #[test]
    fn types_checked() {
        let (mut db, dept, _) = two_relation_db();
        let err = db.insert(dept, vec!["d9".into(), Value::from(42i64)]).unwrap_err();
        assert!(matches!(err, RelationalError::TypeMismatch { .. }));
    }

    #[test]
    fn null_constraint_checked() {
        let (mut db, dept, emp) = two_relation_db();
        let err = db.insert(dept, vec![Value::Null, "x".into()]).unwrap_err();
        assert!(matches!(err, RelationalError::NullViolation { .. }));
        // Nullable FK attribute accepts NULL.
        db.insert(emp, vec!["e9".into(), "Miller".into(), Value::Null]).unwrap();
    }

    #[test]
    fn duplicate_pk_rejected_and_store_unchanged() {
        let (mut db, dept, _) = two_relation_db();
        let before = db.tuple_count(dept);
        let err = db.insert(dept, vec!["d1".into(), "again".into()]).unwrap_err();
        assert!(matches!(err, RelationalError::DuplicateKey { .. }));
        assert_eq!(db.tuple_count(dept), before);
        // The original tuple is still reachable through the PK index.
        let d1 = db.lookup_pk(dept, &[Value::from("d1")]).unwrap();
        assert_eq!(db.tuple(d1).unwrap().get(1), Some(&Value::from("Cs")));
    }

    #[test]
    fn fk_navigation_forward() {
        let (db, dept, emp) = two_relation_db();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        let d1 = db.lookup_pk(dept, &[Value::from("d1")]).unwrap();
        assert_eq!(db.fk_target(e1, 0).unwrap(), Some(d1));
        assert_eq!(db.references_from(e1), vec![(0, d1)]);
    }

    #[test]
    fn null_fk_resolves_to_none() {
        let (mut db, _, emp) = two_relation_db();
        let e9 = db.insert(emp, vec!["e9".into(), "Ng".into(), Value::Null]).unwrap();
        assert_eq!(db.fk_target(e9, 0).unwrap(), None);
        assert!(db.references_from(e9).is_empty());
        db.validate_references().unwrap();
    }

    #[test]
    fn dangling_fk_detected() {
        let (mut db, _, emp) = two_relation_db();
        db.insert(emp, vec!["e9".into(), "Ng".into(), "d99".into()]).unwrap();
        let err = db.validate_references().unwrap_err();
        assert!(matches!(err, RelationalError::ForeignKeyViolation { .. }));
    }

    #[test]
    fn reference_index_reverses_edges() {
        let (db, dept, emp) = two_relation_db();
        let idx = db.build_reference_index();
        let d1 = db.lookup_pk(dept, &[Value::from("d1")]).unwrap();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        assert_eq!(idx.references_to(d1), &[(e1, 0)]);
        assert_eq!(idx.edge_count(), 2);
        assert!(idx.references_to(e1).is_empty());
        // The live accessor agrees.
        assert_eq!(db.references_to(d1), vec![(e1, 0)]);
        assert!(db.references_to(e1).is_empty());
    }

    #[test]
    fn stale_reference_index_snapshot_fails_fast() {
        let (mut db, dept, emp) = two_relation_db();
        let d1 = db.lookup_pk(dept, &[Value::from("d1")]).unwrap();
        let idx = db.build_reference_index();
        assert_eq!(idx.version(), db.version());
        idx.references_to_checked(&db, d1).unwrap();
        db.insert(emp, vec!["e9".into(), "Ng".into(), "d1".into()]).unwrap();
        let err = idx.references_to_checked(&db, d1).unwrap_err();
        assert!(matches!(err, RelationalError::StaleReferenceIndex { .. }));
        // The live accessor follows the mutation.
        assert_eq!(db.references_to(d1).len(), 2);
    }

    /// The reverse index must stay exact under lazy validation: a
    /// reference recorded while dangling blocks the target's delete
    /// once the target arrives.
    #[test]
    fn forward_reference_blocks_delete_of_late_target() {
        let (mut db, dept, emp) = two_relation_db();
        db.insert(emp, vec!["e9".into(), "Ng".into(), "d9".into()]).unwrap();
        // d9 does not exist yet — the reference dangles (lazily).
        let d9 = db.insert(dept, vec!["d9".into(), "Late".into()]).unwrap();
        db.validate_references().unwrap();
        let err = db.delete(d9).unwrap_err();
        assert!(matches!(err, RelationalError::DeleteRestricted { .. }));
        let e9 = db.lookup_pk(emp, &[Value::from("e9")]).unwrap();
        assert_eq!(db.references_to(d9), vec![(e9, 0)]);
    }

    #[test]
    fn all_tuple_ids_covers_every_relation() {
        let (db, _, _) = two_relation_db();
        assert_eq!(db.all_tuple_ids().count(), db.total_tuples());
    }

    #[test]
    fn delete_tombstones_and_skips_iteration() {
        let (mut db, _, emp) = two_relation_db();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        db.delete(e1).unwrap();
        assert_eq!(db.tuple_count(emp), 1);
        assert!(db.tuple(e1).is_none());
        assert!(db.lookup_pk(emp, &[Value::from("e1")]).is_none());
        assert!(db.tuples(emp).all(|(id, _)| id != e1));
        // Double delete is an error.
        assert!(matches!(db.delete(e1), Err(RelationalError::TupleNotFound(_))));
        // Referential integrity still holds (no one referenced e1).
        db.validate_references().unwrap();
    }

    #[test]
    fn delete_restricted_while_referenced() {
        let (mut db, dept, emp) = two_relation_db();
        let d1 = db.lookup_pk(dept, &[Value::from("d1")]).unwrap();
        let err = db.delete(d1).unwrap_err();
        assert!(matches!(err, RelationalError::DeleteRestricted { .. }));
        assert!(db.tuple(d1).is_some(), "restricted delete must not tombstone");
        // After removing the referencing employee the delete goes through.
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        db.delete(e1).unwrap();
        db.delete(d1).unwrap();
        assert_eq!(db.tuple_count(dept), 1);
    }

    #[test]
    fn delete_frees_pk_for_reinsertion_under_fresh_row() {
        let (mut db, _, emp) = two_relation_db();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        db.delete(e1).unwrap();
        let e1b = db.insert(emp, vec!["e1".into(), "Smith".into(), "d1".into()]).unwrap();
        assert_ne!(e1, e1b, "row indices are never reused");
        assert_eq!(db.lookup_pk(emp, &[Value::from("e1")]), Some(e1b));
    }

    #[test]
    fn version_and_change_log_track_mutations() {
        let (mut db, _, emp) = two_relation_db();
        let v0 = db.version();
        let base = db.take_changes();
        assert_eq!(base.len(), 4, "initial load logged four inserts");
        assert!(db.pending_changes().is_empty());

        let e9 = db.insert(emp, vec!["e9".into(), "Ng".into(), "d2".into()]).unwrap();
        db.delete(e9).unwrap();
        assert_eq!(db.version(), v0 + 2);
        let cs = db.take_changes();
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.inserted().count(), 1);
        assert_eq!(cs.deleted().count(), 1);
        // The delete snapshot carries the values and the resolved edge.
        let del = cs.deleted().next().unwrap();
        assert_eq!(del.id, e9);
        assert_eq!(del.values[1], Value::from("Ng"));
        assert_eq!(del.edges.len(), 1);
        // Insert-then-delete of the same tuple cancels out.
        assert!(cs.net_ops().is_empty());
    }

    #[test]
    fn update_preserves_tuple_id_and_logs_both_sides() {
        let (mut db, dept, emp) = two_relation_db();
        db.take_changes();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        let d2 = db.lookup_pk(dept, &[Value::from("d2")]).unwrap();
        let v0 = db.version();
        // Rename and move e1 from d1 to d2 — id unchanged.
        db.update(e1, vec!["e1".into(), "Smythe".into(), "d2".into()]).unwrap();
        assert_eq!(db.version(), v0 + 1);
        assert_eq!(db.lookup_pk(emp, &[Value::from("e1")]), Some(e1));
        assert_eq!(db.tuple(e1).unwrap().get(1), Some(&Value::from("Smythe")));
        assert_eq!(db.references_from(e1), vec![(0, d2)]);
        // Reverse index re-pointed.
        assert!(db
            .references_to(db.lookup_pk(dept, &[Value::from("d1")]).unwrap())
            .is_empty());
        assert_eq!(db.references_to(d2).len(), 2);
        // The log carries old and new snapshots under the same id.
        let cs = db.take_changes();
        assert_eq!(cs.len(), 1);
        let (old, new) = cs.updated().next().unwrap();
        assert_eq!((old.id, new.id), (e1, e1));
        assert_eq!(old.values[1], Value::from("Smith"));
        assert_eq!(new.values[1], Value::from("Smythe"));
        assert_eq!(old.edges.len(), 1);
        assert_eq!(new.edges, vec![(0, d2)]);
    }

    #[test]
    fn update_validates_like_insert() {
        let (mut db, dept, emp) = two_relation_db();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        let d1 = db.lookup_pk(dept, &[Value::from("d1")]).unwrap();
        assert!(matches!(
            db.update(e1, vec!["e1".into()]).unwrap_err(),
            RelationalError::ArityMismatch { .. }
        ));
        assert!(matches!(
            db.update(e1, vec!["e1".into(), 42i64.into(), "d1".into()]).unwrap_err(),
            RelationalError::TypeMismatch { .. }
        ));
        assert!(matches!(
            db.update(e1, vec![Value::Null, "Smith".into(), "d1".into()]).unwrap_err(),
            RelationalError::NullViolation { .. }
        ));
        // Re-keying onto an existing PK is a duplicate.
        assert!(matches!(
            db.update(e1, vec!["e2".into(), "Smith".into(), "d1".into()]).unwrap_err(),
            RelationalError::DuplicateKey { .. }
        ));
        // A referenced tuple's PK change is restricted (e1 → d1)…
        assert!(matches!(
            db.update(d1, vec!["d9".into(), "Cs".into()]).unwrap_err(),
            RelationalError::UpdateRestricted { .. }
        ));
        // …but a same-key update of it is fine.
        db.update(d1, vec!["d1".into(), "CompSci".into()]).unwrap();
        assert_eq!(db.tuple(d1).unwrap().get(1), Some(&Value::from("CompSci")));
        // Dead tuples cannot be updated.
        db.delete(e1).unwrap();
        assert!(matches!(
            db.update(e1, vec!["e1".into(), "S".into(), "d1".into()]).unwrap_err(),
            RelationalError::TupleNotFound(_)
        ));
    }

    #[test]
    fn update_rekey_allowed_when_unreferenced() {
        let (mut db, dept, emp) = two_relation_db();
        let d1 = db.lookup_pk(dept, &[Value::from("d1")]).unwrap();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        // Point e1 elsewhere, then re-key d1 — no live reference blocks.
        db.update(e1, vec!["e1".into(), "Smith".into(), "d2".into()]).unwrap();
        db.update(d1, vec!["d9".into(), "Cs".into()]).unwrap();
        assert_eq!(db.lookup_pk(dept, &[Value::from("d9")]), Some(d1));
        assert!(db.lookup_pk(dept, &[Value::from("d1")]).is_none());
        db.validate_references().unwrap();
    }

    #[test]
    fn rollback_restores_content_and_reverse_index() {
        let (mut db, dept, emp) = two_relation_db();
        db.take_changes();
        let snapshot = db.clone();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        let e2 = db.lookup_pk(emp, &[Value::from("e2")]).unwrap();

        db.insert(emp, vec!["e9".into(), "Ng".into(), "d1".into()]).unwrap();
        db.update(e2, vec!["e2".into(), "Moved".into(), "d1".into()]).unwrap();
        db.delete(e1).unwrap();
        let d3 = db.insert(dept, vec!["d3".into(), "new".into()]).unwrap();
        db.update(d3, vec!["d4".into(), "renamed".into()]).unwrap();

        let changes = db.take_changes();
        db.rollback(&changes);

        // Content identical to the snapshot (slot counts may differ —
        // un-inserted rows leave tombstones behind).
        assert_eq!(db.total_tuples(), snapshot.total_tuples());
        for rel in [dept, emp] {
            let a: Vec<_> = db.tuples(rel).collect();
            let b: Vec<_> = snapshot.tuples(rel).collect();
            assert_eq!(a, b);
        }
        assert_eq!(db.tuple(e1).unwrap().get(1), Some(&Value::from("Smith")));
        assert!(db.lookup_pk(dept, &[Value::from("d3")]).is_none());
        assert!(db.lookup_pk(dept, &[Value::from("d4")]).is_none());
        // Reverse index restored exactly.
        for id in snapshot.all_tuple_ids() {
            assert_eq!(db.references_to(id), snapshot.references_to(id), "{id}");
        }
        // The rollback itself moved the version and logged nothing.
        assert!(db.version() > snapshot.version());
        assert!(db.pending_changes().is_empty());
    }

    #[test]
    fn compact_renumbers_behind_remap() {
        let (mut db, dept, emp) = two_relation_db();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        let e2 = db.lookup_pk(emp, &[Value::from("e2")]).unwrap();
        db.delete(e1).unwrap();

        // Pending changes block compaction.
        let err = db.compact().unwrap_err();
        assert!(matches!(err, RelationalError::CompactionWithPendingChanges { .. }));

        db.take_changes();
        let remap = db.compact().unwrap();
        assert_eq!(remap.reclaimed(), 1);
        assert!(!remap.is_identity());
        assert_eq!(remap.map(e1), None, "deleted tuples do not survive");
        let e2_new = remap.map(e2).unwrap();
        assert_eq!(e2_new.row, 0, "surviving rows are renumbered densely");
        assert_eq!(db.tuple(e2_new).unwrap().get(0), Some(&Value::from("e2")));
        assert_eq!(db.lookup_pk(emp, &[Value::from("e2")]), Some(e2_new));
        assert_eq!(db.total_row_slots(), db.total_tuples(), "zero tombstoned slots");
        // Reverse index remapped: d2 is referenced by the renumbered e2.
        let d2 = db.lookup_pk(dept, &[Value::from("d2")]).unwrap();
        assert_eq!(db.references_to(d2), vec![(e2_new, 0)]);
        db.validate_references().unwrap();

        // A tombstone-free compaction is the identity.
        db.take_changes();
        let remap2 = db.compact().unwrap();
        assert!(remap2.is_identity());
        assert_eq!(remap2.map(e2_new), Some(e2_new));
    }

    #[test]
    fn encode_flat_round_trips_with_tombstones() {
        let (mut db, dept, emp) = two_relation_db();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        db.delete(e1).unwrap();
        db.insert(emp, vec!["e3".into(), "Ng".into(), Value::Null]).unwrap();
        db.take_changes();

        let bytes = db.encode_flat();
        let back = Database::decode_flat(db.catalog().clone(), &bytes).unwrap();

        assert_eq!(back.version(), db.version());
        assert_eq!(back.total_tuples(), db.total_tuples());
        assert_eq!(back.total_row_slots(), db.total_row_slots(), "tombstones survive");
        for rel in [dept, emp] {
            let a: Vec<_> = db.tuples(rel).collect();
            let b: Vec<_> = back.tuples(rel).collect();
            assert_eq!(a, b);
        }
        // Derived structures are rebuilt, not stored.
        for id in db.all_tuple_ids() {
            assert_eq!(back.references_to(id), db.references_to(id), "{id}");
        }
        assert!(back.pending_changes().is_empty());
        // The reopened instance stays mutable: the tombstoned slot is
        // still dead, ids line up, inserts land on fresh rows.
        let mut back = back;
        assert!(back.tuple(e1).is_none());
        let e4 = back.insert(emp, vec!["e4".into(), "Ito".into(), "d1".into()]).unwrap();
        assert_eq!(db.tuple_count(emp) + 1, back.tuple_count(emp));
        assert!(back.tuple(e4).is_some());

        // Deterministic: same content, same bytes.
        assert_eq!(db.encode_flat(), bytes);
    }

    #[test]
    fn decode_flat_rejects_corrupt_payloads() {
        let (mut db, _, _) = two_relation_db();
        db.take_changes();
        let bytes = db.encode_flat();

        // Any truncation is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(Database::decode_flat(db.catalog().clone(), &bytes[..cut]).is_err());
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(Database::decode_flat(db.catalog().clone(), &long).is_err());
        // A duplicated live row means a duplicate primary key.
        let mut w = ByteWriter::new();
        w.u64(db.version());
        w.len(db.catalog().len());
        w.len(2);
        for _ in 0..2 {
            w.bool(true);
            w.len(2);
            Value::from("d1").encode(&mut w);
            Value::from("Cs").encode(&mut w);
        }
        w.len(0);
        let err = Database::decode_flat(db.catalog().clone(), &w.into_vec()).unwrap_err();
        assert!(matches!(err, StorageError::Malformed(_)));
    }

    /// `validate_flat` must agree with `decode_flat` verdict-for-verdict
    /// (accept ⇒ decode succeeds is what the lazy-open `expect` rests
    /// on), report the right summary, and visit live rows in storage
    /// order.
    #[test]
    fn validate_flat_is_in_lockstep_with_decode_flat() {
        let (mut db, _, emp) = two_relation_db();
        let e1 = db.lookup_pk(emp, &[Value::from("e1")]).unwrap();
        db.delete(e1).unwrap();
        db.insert(emp, vec!["e3".into(), "Ng".into(), Value::Null]).unwrap();
        db.take_changes();
        let bytes = db.encode_flat();

        let mut visited = Vec::new();
        let summary = Database::validate_flat(db.catalog(), &bytes, |t, slots| {
            assert_eq!(slots, db.data[t.relation.index()].slot_count());
            visited.push(t);
            Ok(())
        })
        .unwrap();
        assert_eq!(summary.version, db.version());
        assert_eq!(summary.live_rows, db.total_tuples());
        // e2's D_ID is a reference; e3's NULL D_ID is none.
        assert_eq!(summary.references, 1);
        let expected: Vec<_> = db.all_tuple_ids().collect();
        assert_eq!(visited, expected, "live rows visited in storage order");
        // The visitor's error becomes a typed Malformed.
        let err = Database::validate_flat(db.catalog(), &bytes, |_, _| Err("nope".into()))
            .unwrap_err();
        assert!(matches!(err, StorageError::Malformed(m) if m == "nope"));

        // Verdict lockstep over every truncation and over trailing
        // garbage: wherever decode rejects, validate rejects.
        let accept = |b: &[u8]| {
            let v = Database::validate_flat(db.catalog(), b, |_, _| Ok(())).is_ok();
            let d = Database::decode_flat(db.catalog().clone(), b).is_ok();
            assert_eq!(v, d, "validate/decode verdicts diverged on {} bytes", b.len());
            v
        };
        assert!(accept(&bytes));
        for cut in 0..bytes.len() {
            assert!(!accept(&bytes[..cut]), "truncation at {cut}");
        }
        let mut long = bytes.clone();
        long.push(0);
        assert!(!accept(&long));

        // Duplicate primary keys are caught by the hash + exact-compare
        // path without building an index.
        let mut w = ByteWriter::new();
        w.u64(db.version());
        w.len(db.catalog().len());
        w.len(2);
        for _ in 0..2 {
            w.bool(true);
            w.len(2);
            Value::from("d1").encode(&mut w);
            Value::from("Cs").encode(&mut w);
        }
        w.len(0);
        assert!(!accept(&w.into_vec()));

        // Tombstoned duplicates are legal (dead rows carry no PK).
        let mut w = ByteWriter::new();
        w.u64(1);
        w.len(db.catalog().len());
        w.len(2);
        for alive in [false, true] {
            w.bool(alive);
            w.len(2);
            Value::from("d1").encode(&mut w);
            Value::from("Cs").encode(&mut w);
        }
        w.len(0);
        assert!(accept(&w.into_vec()));
    }

    #[test]
    fn self_reference_does_not_block_delete() {
        let catalog = SchemaBuilder::new()
            .relation("NODE", |r| {
                r.attr("ID", DataType::Text)
                    .attr_nullable("PARENT", DataType::Text)
                    .primary_key(&["ID"])
                    .foreign_key("parent", &["PARENT"], "NODE", &["ID"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let node = db.catalog().relation_id("NODE").unwrap();
        let root = db.insert(node, vec!["r".into(), "r".into()]).unwrap();
        // `root` references itself; nothing else references it.
        db.delete(root).unwrap();
        assert_eq!(db.tuple_count(node), 0);

        // But a reference from any *other* tuple still blocks.
        let root2 = db.insert(node, vec!["r2".into(), "r2".into()]).unwrap();
        db.insert(node, vec!["c".into(), "r2".into()]).unwrap();
        assert!(matches!(db.delete(root2), Err(RelationalError::DeleteRestricted { .. })));
    }

    /// A self-loop row (employee.manager → self) must not block its own
    /// PK-changing update either — the restrict check skips the victim
    /// itself in both delete and update.
    #[test]
    fn self_reference_does_not_block_update() {
        let catalog = SchemaBuilder::new()
            .relation("EMPLOYEE", |r| {
                r.attr("SSN", DataType::Text)
                    .attr_nullable("MANAGER", DataType::Text)
                    .primary_key(&["SSN"])
                    .foreign_key("manager", &["MANAGER"], "EMPLOYEE", &["SSN"])
            })
            .build()
            .unwrap();
        let mut db = Database::new(catalog).unwrap();
        let emp = db.catalog().relation_id("EMPLOYEE").unwrap();
        let boss = db.insert(emp, vec!["b1".into(), "b1".into()]).unwrap();
        // Re-key the self-managing boss, re-pointing the loop in the
        // same update: nothing else references b1, so nothing blocks.
        db.update(boss, vec!["b2".into(), "b2".into()]).unwrap();
        assert_eq!(db.lookup_pk(emp, &[Value::from("b2")]), Some(boss));
        assert_eq!(db.references_to(boss), vec![(boss, 0)]);
        db.validate_references().unwrap();
    }
}
