//! Schemas, instances, and database instances.
//!
//! A database schema is a sequence `⟨P1:T1, …, Pn:Tn⟩` of distinct predicate
//! names with rtypes; an instance assigns each `Pi` a finite set of objects
//! of `dom(Ti)`. Query languages in this workspace consume and produce
//! [`Instance`]s, with whole databases as named collections.

use crate::atom::Atom;
use crate::error::{ObjectError, Result};
use crate::intern::{FxBuildHasher, ObjRef, Pool};
use crate::rtype::{RType, Type};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Process-global source of instance mutation stamps. Every constructed
/// or mutated [`Instance`] takes a fresh stamp, so two instances (or two
/// successive states of one instance) never share a version unless one is
/// an unmutated clone of the other — which is exactly the case where
/// serving a cached index built against the older one is still correct.
static INSTANCE_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_version() -> u64 {
    INSTANCE_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// An instance of a type: a finite set of objects.
///
/// Besides its members, an instance carries a *mutation version*
/// ([`Instance::version`]): an opaque stamp renewed (from a process-global
/// counter) by every mutating operation. Its id sidecar remembers the
/// stamp it was built against and is dropped on any mismatch; the version
/// cannot collide across a `remove` + `insert` pair that leaves the
/// cardinality unchanged. The version is identity metadata, not content:
/// equality, ordering, and hashing ignore it.
// The derived `Default` gives pristine empty instances the shared
// version 0, which is sound because version 0 is *only* reachable empty:
// every constructor with contents and every successful mutation takes a
// fresh nonzero stamp.
#[derive(Default)]
pub struct Instance {
    values: BTreeSet<Value>,
    version: u64,
    /// Interned-id sidecar: the pool ids of exactly the members, valid
    /// iff `refs.stamp == version` (mutations that cannot maintain it
    /// drop it instead). Strictly demand-driven: built the first time
    /// usage proves it pays — a membership probe against a large
    /// instance, or a run of rejected duplicate inserts (fixpoint
    /// extents) — and never eagerly on construction, so distinct-heavy
    /// enumeration results (powersets, `cons_T`) pay nothing for it.
    /// Representation metadata, never content — equality, ordering,
    /// hashing and `Debug` ignore it.
    refs: OnceLock<Box<RefSet>>,
    /// Duplicate inserts rejected while no sidecar existed — the
    /// adaptive trigger for building one (see [`DUP_SIDECAR_AFTER`]).
    dup_rejects: u32,
}

impl Clone for Instance {
    fn clone(&self) -> Instance {
        let refs = OnceLock::new();
        // carry a current sidecar over (the engines clone extents every
        // round and immediately keep mutating them); a stale one is not
        // worth hauling along
        if let Some(rs) = self.refs.get() {
            if rs.stamp == self.version {
                let _ = refs.set(rs.clone());
            }
        }
        Instance {
            values: self.values.clone(),
            version: self.version,
            refs,
            dup_rejects: self.dup_rejects,
        }
    }
}

/// The id sidecar of an [`Instance`]: one interned [`ObjRef`] per member.
#[derive(Clone, Default)]
struct RefSet {
    /// The [`Instance::version`] this sidecar reflects.
    stamp: u64,
    ids: HashSet<ObjRef, FxBuildHasher>,
}

/// Probes against instances smaller than this never build a sidecar:
/// the plain B-tree lookup is already cheap there, and interning the
/// probe value would cost more than it saves.
const SIDECAR_PROBE_MIN: usize = 16;

/// Rejected duplicate inserts observed without a sidecar before one is
/// built. Fixpoint extents cross this within a round or two;
/// distinct-heavy enumeration results never do.
const DUP_SIDECAR_AFTER: u32 = 16;

/// Build a fresh sidecar for `values`, interning every member.
fn build_refs(values: &BTreeSet<Value>, stamp: u64) -> RefSet {
    let pool = Pool::global();
    RefSet {
        stamp,
        ids: values.iter().map(|v| pool.intern(v)).collect(),
    }
}

/// `Debug` matches the pre-sidecar derived output (values + version):
/// the sidecar is representation, not content.
impl fmt::Debug for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Instance")
            .field("values", &self.values)
            .field("version", &self.version)
            .finish()
    }
}

impl PartialEq for Instance {
    fn eq(&self, other: &Instance) -> bool {
        self.values == other.values
    }
}

impl Eq for Instance {}

impl PartialOrd for Instance {
    fn partial_cmp(&self, other: &Instance) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Instance {
    fn cmp(&self, other: &Instance) -> std::cmp::Ordering {
        self.values.cmp(&other.values)
    }
}

impl std::hash::Hash for Instance {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.values.hash(state);
    }
}

/// A row handed to [`Instance::insert_ref`], [`Instance::remove`],
/// [`Database::insert_row`] or [`Database::remove_row`]: the value, and
/// its canonical pool id when the caller already built it
/// (it must be `Pool::global().intern(value)`).
#[derive(Clone, Copy, Debug)]
pub struct RowRef<'r> {
    /// The row.
    pub value: &'r Value,
    /// The row's pool id, if the caller holds it.
    pub id: Option<ObjRef>,
}

impl<'r> From<&'r Value> for RowRef<'r> {
    fn from(value: &'r Value) -> RowRef<'r> {
        RowRef { value, id: None }
    }
}

impl<'r> From<(&'r Value, Option<ObjRef>)> for RowRef<'r> {
    fn from((value, id): (&'r Value, Option<ObjRef>)) -> RowRef<'r> {
        RowRef { value, id }
    }
}

impl Instance {
    /// The empty instance.
    pub fn empty() -> Self {
        Instance::default()
    }

    /// Build from an iterator of objects (duplicates collapse).
    pub fn from_values<I: IntoIterator<Item = Value>>(items: I) -> Self {
        Instance {
            values: items.into_iter().collect(),
            version: next_version(),
            refs: OnceLock::new(),
            dup_rejects: 0,
        }
    }

    /// Build a flat relation instance from rows of atoms.
    pub fn from_rows<R, I>(rows: I) -> Self
    where
        R: IntoIterator<Item = Value>,
        I: IntoIterator<Item = R>,
    {
        Instance::from_values(
            rows.into_iter()
                .map(|r| Value::Tuple(r.into_iter().collect())),
        )
    }

    /// The sidecar, iff it is live (its stamp is current).
    fn valid_refs(&self) -> Option<&RefSet> {
        self.refs
            .get()
            .map(|b| &**b)
            .filter(|rs| rs.stamp == self.version)
    }

    /// True iff a mutation can maintain the sidecar in place. A sidecar
    /// that can no longer follow (stale stamp) is discarded here rather
    /// than ever serving wrong ids, which also lets a later probe rebuild
    /// it against fresh contents.
    fn live_sidecar(&mut self) -> bool {
        match self.refs.get() {
            Some(rs) if rs.stamp == self.version => true,
            Some(_) => {
                self.refs = OnceLock::new();
                false
            }
            None => false,
        }
    }

    /// Adaptive sidecar trigger: count duplicate inserts rejected the
    /// slow way, and build the sidecar once they prove this instance is
    /// a dedup-heavy accumulator (a fixpoint extent) rather than a
    /// distinct-heavy enumeration result.
    fn note_duplicate(&mut self) {
        self.dup_rejects = self.dup_rejects.saturating_add(1);
        if self.dup_rejects >= DUP_SIDECAR_AFTER {
            self.dup_rejects = 0;
            self.refs = OnceLock::new();
            let _ = self
                .refs
                .set(Box::new(build_refs(&self.values, self.version)));
        }
    }

    /// The instance's current mutation version: an opaque stamp that
    /// changes on every mutation and never repeats across distinct
    /// logical states in one process. Two reads returning the same stamp
    /// guarantee the contents did not change in between; a cache holding
    /// data derived from this instance is stale iff the stamp moved.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The member objects, in canonical order.
    pub fn values(&self) -> &BTreeSet<Value> {
        &self.values
    }

    /// Number of member objects.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the instance has no members.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Insert an object; returns true if newly added.
    pub fn insert(&mut self, v: Value) -> bool {
        self.insert_owned(v, None)
    }

    /// Insert an owned object. A caller that already holds its pool id
    /// passes it along (it must be `Pool::global().intern(&v)`), so the
    /// id sidecar need not intern the object again.
    pub fn insert_owned(&mut self, v: Value, id: Option<ObjRef>) -> bool {
        if self.live_sidecar() {
            let id = id.unwrap_or_else(|| Pool::global().intern(&v));
            let rs = self.refs.get_mut().expect("live sidecar");
            if rs.ids.contains(&id) {
                debug_assert!(self.values.contains(&v));
                return false;
            }
            self.values.insert(v);
            self.version = next_version();
            let rs = self.refs.get_mut().expect("live sidecar");
            rs.ids.insert(id);
            rs.stamp = self.version;
            return true;
        }
        let added = self.values.insert(v);
        if added {
            self.version = next_version();
        } else {
            self.note_duplicate();
        }
        added
    }

    /// Insert by reference, cloning the value only if it is actually
    /// new — the fixpoint engines' hot path, where the overwhelmingly
    /// common case is a duplicate candidate that should cost one lookup
    /// and no allocation. A caller that already holds the row's pool id
    /// passes it along ([`RowRef`]), so the id sidecar need not intern
    /// the row again.
    pub fn insert_ref<'r>(&mut self, row: impl Into<RowRef<'r>>) -> bool {
        let RowRef { value: v, id } = row.into();
        if self.live_sidecar() {
            let id = id.unwrap_or_else(|| Pool::global().intern(v));
            let rs = self.refs.get_mut().expect("live sidecar");
            if rs.ids.contains(&id) {
                debug_assert!(self.values.contains(v));
                return false;
            }
            self.values.insert(v.clone());
            self.version = next_version();
            let rs = self.refs.get_mut().expect("live sidecar");
            rs.ids.insert(id);
            rs.stamp = self.version;
            return true;
        }
        if self.values.contains(v) {
            self.note_duplicate();
            return false;
        }
        self.values.insert(v.clone());
        self.version = next_version();
        true
    }

    /// Remove an object; returns true if it was present. A caller that
    /// already holds the row's pool id passes it along ([`RowRef`]), so
    /// the id sidecar need not intern the row again.
    pub fn remove<'r>(&mut self, row: impl Into<RowRef<'r>>) -> bool {
        let RowRef { value: v, id } = row.into();
        if self.live_sidecar() {
            let id = id.unwrap_or_else(|| Pool::global().intern(v));
            let rs = self.refs.get_mut().expect("live sidecar");
            if !rs.ids.contains(&id) {
                debug_assert!(!self.values.contains(v));
                return false;
            }
            self.values.remove(v);
            self.version = next_version();
            let rs = self.refs.get_mut().expect("live sidecar");
            rs.ids.remove(&id);
            rs.stamp = self.version;
            return true;
        }
        let removed = self.values.remove(v);
        if removed {
            self.version = next_version();
        }
        removed
    }

    /// Membership test. Against a large instance this is one intern of
    /// `v` plus an O(1) id lookup instead of O(log n) deep comparisons
    /// down the tree; the first such probe builds the sidecar. Small
    /// instances answer from the B-tree directly — interning the probe
    /// would cost more than the lookup it replaces.
    pub fn contains(&self, v: &Value) -> bool {
        if self.values.len() >= SIDECAR_PROBE_MIN {
            let rs = self
                .refs
                .get_or_init(|| Box::new(build_refs(&self.values, self.version)));
            if rs.stamp == self.version {
                return rs.ids.contains(&Pool::global().intern(v));
            }
            // stale sidecar: the next mutation discards it; answer plainly
        }
        self.values.contains(v)
    }

    /// Membership by pool id, when a sidecar can answer it — `None`
    /// means the caller must fall back to [`Instance::contains`]. This
    /// is the probe path that lets a negative literal test a bound row
    /// without materializing the row as a fresh `Value::Tuple`; like
    /// [`Instance::contains`], the first probe against a large instance
    /// builds the sidecar.
    pub fn contains_ref(&self, id: ObjRef) -> Option<bool> {
        if self.values.len() >= SIDECAR_PROBE_MIN {
            let rs = self
                .refs
                .get_or_init(|| Box::new(build_refs(&self.values, self.version)));
            if rs.stamp == self.version {
                return Some(rs.ids.contains(&id));
            }
            return None;
        }
        self.valid_refs().map(|rs| rs.ids.contains(&id))
    }

    /// Membership by pool id, always answered: [`Instance::contains_ref`]
    /// when a sidecar can answer, otherwise the row is rebuilt from the
    /// pool and looked up in the tree.
    pub fn contains_id(&self, id: ObjRef) -> bool {
        self.contains_ref(id)
            .unwrap_or_else(|| self.values.contains(&Pool::global().resolve(id)))
    }

    /// Iterate members in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }

    /// Combine the sidecars of a binary set operation: when both sides
    /// are live the result's ids come from the same O(1) id-set
    /// operation (no re-interning). Otherwise the result starts without
    /// a sidecar — demand on the result decides whether it ever grows
    /// one, the same as any freshly built instance.
    fn combined_refs(
        &self,
        other: &Instance,
        stamp: u64,
        op: impl Fn(
            &HashSet<ObjRef, FxBuildHasher>,
            &HashSet<ObjRef, FxBuildHasher>,
        ) -> HashSet<ObjRef, FxBuildHasher>,
    ) -> OnceLock<Box<RefSet>> {
        let out = OnceLock::new();
        if let (Some(a), Some(b)) = (self.valid_refs(), other.valid_refs()) {
            let _ = out.set(Box::new(RefSet {
                stamp,
                ids: op(&a.ids, &b.ids),
            }));
        }
        out
    }

    /// Union with another instance.
    pub fn union(&self, other: &Instance) -> Instance {
        // must stay: the result instance owns its members (use `absorb`
        // for the in-place accumulating shape)
        let values: BTreeSet<Value> = self.values.union(&other.values).cloned().collect();
        let version = next_version();
        let refs = self.combined_refs(other, version, |a, b| a.union(b).copied().collect());
        Instance {
            values,
            version,
            refs,
            dup_rejects: 0,
        }
    }

    /// Union `other` into `self` in place, reusing the larger side's
    /// allocation (sides are swapped wholesale when `other` is bigger,
    /// so the work is proportional to the *smaller* side — the shape
    /// the invention semantics' per-level accumulation needs, where one
    /// side keeps growing and the other is a small increment).
    pub fn absorb(&mut self, mut other: Instance) {
        if other.values.len() > self.values.len() {
            std::mem::swap(self, &mut other);
        }
        for v in other.values {
            self.insert(v);
        }
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &Instance) -> Instance {
        // must stay: the result instance owns its members
        let values: BTreeSet<Value> = self.values.difference(&other.values).cloned().collect();
        let version = next_version();
        let refs = self.combined_refs(other, version, |a, b| a.difference(b).copied().collect());
        Instance {
            values,
            version,
            refs,
            dup_rejects: 0,
        }
    }

    /// Intersection with another instance.
    pub fn intersection(&self, other: &Instance) -> Instance {
        // must stay: the result instance owns its members
        let values: BTreeSet<Value> = self.values.intersection(&other.values).cloned().collect();
        let version = next_version();
        let refs = self.combined_refs(other, version, |a, b| a.intersection(b).copied().collect());
        Instance {
            values,
            version,
            refs,
            dup_rejects: 0,
        }
    }

    /// True iff every member is a subset of `other`.
    pub fn is_subset(&self, other: &Instance) -> bool {
        self.values.is_subset(&other.values)
    }

    /// The active domain: all atoms used in any member object.
    pub fn adom(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        for v in &self.values {
            v.collect_adom(&mut out);
        }
        out
    }

    /// Check that every member conforms to `ty`.
    pub fn check_rtype(&self, ty: &RType) -> Result<()> {
        for v in &self.values {
            if !ty.contains(v) {
                return Err(ObjectError::TypeMismatch {
                    expected: ty.to_string(),
                    value: v.to_string(),
                });
            }
        }
        Ok(())
    }

    /// Apply an atom renaming to every member.
    pub fn map_atoms(&self, f: &mut impl FnMut(Atom) -> Atom) -> Instance {
        Instance::from_values(self.values.iter().map(|v| v.map_atoms(f)))
    }

    /// View this instance as a single set object `{v1, …, vn}`.
    pub fn to_set_value(&self) -> Value {
        // must stay: the set object owns its members
        Value::Set(self.values.clone())
    }

    /// Build an instance from a set object's members.
    pub fn from_set_value(v: &Value) -> Option<Instance> {
        v.as_set().map(|s| {
            Instance {
                // must stay: the instance owns its members
                values: s.clone(),
                version: next_version(),
                refs: OnceLock::new(),
                dup_rejects: 0,
            }
        })
    }

    /// Total structural size of all members.
    pub fn total_size(&self) -> usize {
        self.values.iter().map(Value::size).sum()
    }
}

impl FromIterator<Value> for Instance {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Instance::from_values(iter)
    }
}

impl IntoIterator for Instance {
    type Item = Value;
    type IntoIter = std::collections::btree_set::IntoIter<Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.into_iter()
    }
}

impl<'a> IntoIterator for &'a Instance {
    type Item = &'a Value;
    type IntoIter = std::collections::btree_set::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

impl fmt::Display for Instance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

/// A database schema: an ordered list of distinct relation names with rtypes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schema {
    entries: Vec<(String, RType)>,
}

impl Schema {
    /// Build a schema, rejecting duplicate names.
    pub fn new<I>(entries: I) -> Result<Schema>
    where
        I: IntoIterator<Item = (String, RType)>,
    {
        let entries: Vec<_> = entries.into_iter().collect();
        let mut seen = BTreeSet::new();
        for (name, _) in &entries {
            if !seen.insert(name.clone()) {
                return Err(ObjectError::DuplicateRelation(name.clone()));
            }
        }
        Ok(Schema { entries })
    }

    /// A schema of flat relations given as `(name, arity)` pairs.
    ///
    /// Following the paper, a schema entry `P : T` gives the type of the
    /// relation's *elements*; the relation itself is a finite subset of
    /// `dom(T)`. A flat relation of arity `k` therefore has entry type
    /// `[U, …, U]` (k components).
    pub fn flat<I>(relations: I) -> Schema
    where
        I: IntoIterator<Item = (&'static str, usize)>,
    {
        Schema {
            entries: relations
                .into_iter()
                .map(|(n, a)| (n.to_owned(), Type::atomic_tuple(a).to_rtype()))
                .collect(),
        }
    }

    /// The (name, rtype) entries in order.
    pub fn entries(&self) -> &[(String, RType)] {
        &self.entries
    }

    /// Look up the rtype of a relation.
    pub fn rtype_of(&self, name: &str) -> Option<&RType> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// True iff every relation element type is flat (no set construct) —
    /// the input/output discipline the paper imposes on the classes C and E.
    pub fn is_flat(&self) -> bool {
        fn flat(t: &RType) -> bool {
            match t {
                RType::Atomic => true,
                RType::Obj | RType::Set(_) => false,
                RType::Tuple(items) => items.iter().all(flat),
            }
        }
        self.entries.iter().all(|(_, t)| flat(t))
    }

    /// Names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }
}

/// A database instance: a mapping from relation names to instances.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Database {
    relations: BTreeMap<String, Instance>,
}

impl Database {
    /// The empty database.
    pub fn empty() -> Self {
        Database::default()
    }

    /// Build from (name, instance) pairs; later entries overwrite earlier.
    pub fn from_relations<I>(relations: I) -> Self
    where
        I: IntoIterator<Item = (String, Instance)>,
    {
        Database {
            relations: relations.into_iter().collect(),
        }
    }

    /// Insert or replace a relation.
    pub fn set(&mut self, name: impl Into<String>, inst: Instance) {
        self.relations.insert(name.into(), inst);
    }

    /// Fetch a relation; absent relations read as empty (the convention used
    /// by the fixpoint languages). This deep-clones the whole relation —
    /// hot paths should borrow via [`Database::get_ref`] instead.
    pub fn get(&self, name: &str) -> Instance {
        self.relations.get(name).cloned().unwrap_or_default()
    }

    /// Borrow a relation without cloning; `None` if absent.
    pub fn get_ref(&self, name: &str) -> Option<&Instance> {
        self.relations.get(name)
    }

    /// Insert a single row into a relation (creating the relation if
    /// absent); returns true if the row is new. This is the hot-path
    /// insertion the fixpoint engines use — unlike `get`/`set` it never
    /// clones the instance, and duplicate rows (the common case inside a
    /// fixpoint) cost one lookup and no allocation.
    pub fn insert_row<'r>(&mut self, name: &str, row: impl Into<RowRef<'r>>) -> bool {
        let row = row.into();
        if let Some(rel) = self.relations.get_mut(name) {
            return rel.insert_ref(row);
        }
        self.relations
            // must stay: only the first row of a brand-new relation clones
            .insert(name.to_owned(), Instance::from_values([row.value.clone()]));
        true
    }

    /// Insert an owned row (creating the relation if absent), with its
    /// pool id when the caller holds it; returns true if the row is new.
    /// The row is moved in, never cloned.
    pub fn insert_owned(&mut self, name: &str, row: Value, id: Option<ObjRef>) -> bool {
        if let Some(rel) = self.relations.get_mut(name) {
            return rel.insert_owned(row, id);
        }
        self.relations
            .insert(name.to_owned(), Instance::from_values([row]));
        true
    }

    /// Count one duplicate of a row of relation `name` that a caller
    /// turned away instead of inserting, exactly as a rejected insert
    /// counts toward building the relation's id sidecar.
    pub fn note_duplicate(&mut self, name: &str) {
        if let Some(rel) = self.relations.get_mut(name) {
            if !rel.live_sidecar() {
                rel.note_duplicate();
            }
        }
    }

    /// Remove a single row from a relation; returns true if it was
    /// present. The inverse of [`Database::insert_row`]: the maintenance
    /// engine uses it to retract facts. A relation whose last
    /// row is removed is dropped entirely, so a database that gains and
    /// then loses rows compares equal to one that never saw them
    /// (`Database::PartialEq` distinguishes present-but-empty from
    /// absent).
    pub fn remove_row<'r>(&mut self, name: &str, row: impl Into<RowRef<'r>>) -> bool {
        let Some(rel) = self.relations.get_mut(name) else {
            return false;
        };
        let removed = rel.remove(row);
        if removed && rel.is_empty() {
            self.relations.remove(name);
        }
        removed
    }

    /// Fetch a relation, erroring if absent.
    pub fn get_required(&self, name: &str) -> Result<&Instance> {
        self.relations
            .get(name)
            .ok_or_else(|| ObjectError::MissingRelation(name.to_owned()))
    }

    /// True if the relation is explicitly present.
    pub fn contains_relation(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Iterate (name, instance) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Instance)> {
        self.relations.iter().map(|(n, i)| (n.as_str(), i))
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True if no relations are present.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// The active domain of the whole database.
    pub fn adom(&self) -> BTreeSet<Atom> {
        let mut out = BTreeSet::new();
        for inst in self.relations.values() {
            for v in inst.iter() {
                v.collect_adom(&mut out);
            }
        }
        out
    }

    /// Validate this database against a schema (relations present and
    /// rtype-conformant; extra relations are rejected).
    pub fn check_schema(&self, schema: &Schema) -> Result<()> {
        for (name, ty) in schema.entries() {
            let inst = self.get_required(name)?;
            inst.check_rtype(ty)?;
        }
        for name in self.relations.keys() {
            if schema.rtype_of(name).is_none() {
                return Err(ObjectError::MissingRelation(format!(
                    "{name} (present in database but absent from schema)"
                )));
            }
        }
        Ok(())
    }

    /// Apply an atom renaming to every relation.
    pub fn map_atoms(&self, f: &mut impl FnMut(Atom) -> Atom) -> Database {
        Database {
            relations: self
                .relations
                .iter()
                .map(|(n, i)| (n.clone(), i.map_atoms(f)))
                .collect(),
        }
    }

    /// Total structural size across relations (the `‖d‖` of the paper's
    /// complexity definitions, up to a constant factor).
    pub fn total_size(&self) -> usize {
        self.relations.values().map(Instance::total_size).sum()
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, inst) in &self.relations {
            writeln!(f, "{name} = {inst}")?;
        }
        Ok(())
    }
}

/// A query function signature: flat schema in, flat type out (the discipline
/// the paper imposes on all languages studied).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySignature {
    /// Input schema (must be flat for the paper's classes C and E).
    pub input: Schema,
    /// Output type.
    pub output: Type,
}

impl QuerySignature {
    /// A signature with flat input relations and flat relational output of
    /// the given arity (output element type `[U, …, U]`).
    pub fn flat<I>(inputs: I, output_arity: usize) -> QuerySignature
    where
        I: IntoIterator<Item = (&'static str, usize)>,
    {
        QuerySignature {
            input: Schema::flat(inputs),
            output: Type::atomic_tuple(output_arity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, set, tuple};

    fn sample_db() -> Database {
        let mut db = Database::empty();
        db.set(
            "R",
            Instance::from_rows([[atom(1), atom(2)], [atom(2), atom(3)]]),
        );
        db.set("S", Instance::from_values([atom(4)]));
        db
    }

    #[test]
    fn instance_set_operations() {
        let a = Instance::from_values([atom(1), atom(2)]);
        let b = Instance::from_values([atom(2), atom(3)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.difference(&b), Instance::from_values([atom(1)]));
        assert_eq!(a.intersection(&b), Instance::from_values([atom(2)]));
        assert!(Instance::empty().is_subset(&a));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn adom_spans_relations() {
        let db = sample_db();
        let adom = db.adom();
        assert_eq!(adom.len(), 4);
        assert!(adom.contains(&Atom::new(4)));
    }

    #[test]
    fn schema_rejects_duplicates() {
        let err = Schema::new([
            ("R".to_owned(), RType::flat_relation(2)),
            ("R".to_owned(), RType::flat_relation(1)),
        ])
        .unwrap_err();
        assert!(matches!(err, ObjectError::DuplicateRelation(_)));
    }

    #[test]
    fn schema_check_catches_type_errors() {
        let schema = Schema::flat([("R", 2), ("S", 1)]);
        assert!(schema.is_flat());
        let mut db = sample_db();
        // S holds bare atoms, not 1-tuples: flat {[U]} should reject it
        assert!(db.check_schema(&schema).is_err());
        db.set("S", Instance::from_rows([[atom(4)]]));
        db.check_schema(&schema).unwrap();
        // extra relation rejected
        db.set("T", Instance::empty());
        assert!(db.check_schema(&schema).is_err());
    }

    #[test]
    fn missing_relation_reads_empty_but_required_errors() {
        let db = sample_db();
        assert!(db.get("missing").is_empty());
        assert!(db.get_required("missing").is_err());
    }

    #[test]
    fn instance_rtype_check() {
        let het = Instance::from_values([atom(1), set([atom(2)]), tuple([atom(3), atom(4)])]);
        het.check_rtype(&RType::Obj).unwrap();
        assert!(het.check_rtype(&RType::Atomic).is_err());
    }

    #[test]
    fn set_value_roundtrip() {
        let inst = Instance::from_values([atom(1), set([atom(2)])]);
        let v = inst.to_set_value();
        assert_eq!(Instance::from_set_value(&v), Some(inst));
        assert_eq!(Instance::from_set_value(&atom(1)), None);
    }

    #[test]
    fn version_moves_on_every_mutation_even_at_equal_len() {
        let mut inst = Instance::from_values([atom(1), atom(2)]);
        let v0 = inst.version();
        // A remove + insert that restores the cardinality must still be
        // observable through the stamp — this is the collision the old
        // length-based staleness check could not see.
        assert!(inst.remove(&atom(2)));
        let v1 = inst.version();
        assert_ne!(v0, v1);
        assert!(inst.insert(atom(3)));
        let v2 = inst.version();
        assert_ne!(v1, v2);
        assert_eq!(inst.len(), 2);
        // No-op mutations leave the stamp alone.
        assert!(!inst.insert(atom(3)));
        assert!(!inst.remove(&atom(99)));
        assert_eq!(inst.version(), v2);
    }

    #[test]
    fn version_is_identity_not_content() {
        let a = Instance::from_values([atom(1)]);
        let b = Instance::from_values([atom(1)]);
        assert_ne!(a.version(), b.version());
        assert_eq!(a, b); // equality ignores the stamp
        let c = a.clone();
        assert_eq!(a.version(), c.version()); // unmutated clone shares it
    }

    #[test]
    fn remove_row_prunes_empty_relation() {
        let mut db = Database::empty();
        db.insert_row("R", &tuple([atom(1), atom(2)]));
        assert!(db.contains_relation("R"));
        assert!(db.remove_row("R", &tuple([atom(1), atom(2)])));
        // The emptied relation disappears, so this database compares
        // equal to one that never held the row.
        assert!(!db.contains_relation("R"));
        assert_eq!(db, Database::empty());
        // Removing from an absent relation is a clean no-op.
        assert!(!db.remove_row("R", &tuple([atom(1), atom(2)])));
    }

    /// The id sidecar must answer membership exactly as the tree does,
    /// across every mutation path.
    #[test]
    fn sidecar_membership_agrees_with_tree() {
        let mut inst = Instance::from_values([atom(1), set([atom(2)])]);
        assert!(inst.contains(&atom(1)));
        assert!(!inst.contains(&atom(9)));
        assert!(inst.insert(tuple([atom(3), atom(4)])));
        assert!(!inst.insert(tuple([atom(3), atom(4)])));
        assert!(inst.contains(&tuple([atom(3), atom(4)])));
        assert!(inst.remove(&atom(1)));
        assert!(!inst.remove(&atom(1)));
        assert!(!inst.contains(&atom(1)));
        assert!(inst.insert_ref(&set([atom(2), atom(5)])));
        assert!(!inst.insert_ref(&set([atom(2), atom(5)])));
        assert_eq!(inst.len(), 3);
        // A pristine default grows into sidecar maintenance too.
        let mut fresh = Instance::empty();
        assert!(fresh.insert(atom(42)));
        assert!(fresh.contains(&atom(42)));
    }

    /// Set operations keep the sidecar consistent whether derived from
    /// both sides' ids or rebuilt.
    #[test]
    fn sidecar_survives_set_operations() {
        let a = Instance::from_values([atom(1), atom(2), set([atom(7)])]);
        let b = Instance::from_values([atom(2), atom(3)]);
        let u = a.union(&b);
        assert!(u.contains(&atom(1)) && u.contains(&atom(3)) && u.contains(&set([atom(7)])));
        assert!(!u.contains(&atom(4)));
        let d = a.difference(&b);
        assert!(d.contains(&atom(1)) && !d.contains(&atom(2)));
        let i = a.intersection(&b);
        assert!(i.contains(&atom(2)) && !i.contains(&atom(1)));
    }

    #[test]
    fn absorb_is_union_into_reusing_larger_side() {
        let mut big = Instance::from_values([atom(1), atom(2), atom(3)]);
        let small = Instance::from_values([atom(3), atom(4)]);
        big.absorb(small);
        assert_eq!(
            big,
            Instance::from_values([atom(1), atom(2), atom(3), atom(4)])
        );
        // The swap direction: absorbing a larger instance into a
        // smaller one must end with the same union.
        let mut tiny = Instance::from_values([atom(9)]);
        let large = Instance::from_values([atom(1), atom(2), atom(3)]);
        tiny.absorb(large);
        assert_eq!(
            tiny,
            Instance::from_values([atom(1), atom(2), atom(3), atom(9)])
        );
        assert!(tiny.contains(&atom(9)), "sidecar follows the swap");
        // Absorbing emptiness in either direction is the identity.
        let mut e = Instance::empty();
        e.absorb(Instance::from_values([atom(5)]));
        assert_eq!(e, Instance::from_values([atom(5)]));
        e.absorb(Instance::empty());
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn database_map_atoms_is_per_relation() {
        let db = sample_db();
        let shifted = db.map_atoms(&mut |a| Atom::new(a.id() + 100));
        assert!(shifted.get("R").contains(&tuple([atom(101), atom(102)])));
        assert!(shifted.get("S").contains(&atom(104)));
    }
}
