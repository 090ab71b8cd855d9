//! Compiled rule plans: slot frames and the delta hash join.
//!
//! A rule is compiled once per evaluation run. Each variable becomes a
//! slot number, and a body's bindings are [`Frame`]s: one optional
//! `Rc`-shared [`Bound`] value per slot. Extending a frame through a
//! literal copies slot pointers, never names or object trees, and a bound
//! value borrows the row element it came from for as long as the firing
//! reads the settled state and the delta.
//!
//! Each compiled literal carries its settled-state probe column and, in a
//! semi-naive firing, its delta role: the delta literal joins through a
//! [`DeltaJoin`], a hash of the unit's delta rows on the column that
//! earlier literals bind. DATALOG¬ ([`DlPlan`], here), COL (`col::eval`)
//! and the maintenance engine (`uset-ivm`) all run these plans. DATALOG¬
//! reads its delta as pool ids and probes the settled state through
//! [`IdIndex`]es; the maintenance engine reads relations through an
//! [`Overlay`], which can present a relation as it was before a batch
//! without copying it, and probes the [`IdIndex`] it keeps over its
//! state. Rows matched by id bind slots by pool id.

use crate::datalog::{render_fact, DlAtom, DlError, DlRule, DlTerm};
use std::borrow::Borrow;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::hash::Hash;
use std::rc::Rc;
use std::sync::OnceLock;
use uset_object::index::nth_column;
use uset_object::intern::FxBuildHasher;
use uset_object::{EvalStats, Instance, ObjRef, Pool, Value};

/// A bound value: borrowed from the row it matched (or owned, when a
/// literal computed it), plus its pool id, interned on first use and
/// shared by every frame holding this `Rc`. A slot bound from an indexed
/// row holds only the id; its value is built from the pool on first use.
#[derive(Debug)]
pub struct Bound<'a> {
    v: OnceCell<Cow<'a, Value>>,
    id: OnceCell<ObjRef>,
}

impl<'a> Bound<'a> {
    /// A value borrowed from a relation row.
    pub fn borrowed(v: &'a Value) -> Rc<Bound<'a>> {
        Rc::new(Bound {
            v: OnceCell::from(Cow::Borrowed(v)),
            id: OnceCell::new(),
        })
    }

    /// A value the firing computed.
    pub fn owned(v: Value) -> Rc<Bound<'a>> {
        Rc::new(Bound {
            v: OnceCell::from(Cow::Owned(v)),
            id: OnceCell::new(),
        })
    }

    /// The object a pool id names, by id alone.
    pub fn by_id(id: ObjRef) -> Rc<Bound<'a>> {
        Rc::new(Bound {
            v: OnceCell::new(),
            id: OnceCell::from(id),
        })
    }

    /// The value.
    pub fn value(&self) -> &Value {
        self.v.get_or_init(|| {
            let id = *self.id.get().expect("a bound slot has a value or an id");
            Cow::Owned(Pool::global().resolve(id))
        })
    }

    /// The value, when it is borrowed for the whole firing rather than
    /// owned by this `Bound`.
    pub fn kept(&self) -> Option<&'a Value> {
        match self.v.get() {
            Some(Cow::Borrowed(v)) => Some(v),
            _ => None,
        }
    }

    /// The value's canonical pool id.
    pub fn obj_ref(&self) -> ObjRef {
        *self.id.get_or_init(|| Pool::global().intern(self.value()))
    }
}

/// One binding of a rule body: slot → bound value (`None` while unbound).
pub type Frame<'a> = Vec<Option<Rc<Bound<'a>>>>;

/// The slot of variable `v`, numbering it next if `names` lacks it.
pub(crate) fn slot_of(names: &mut Vec<String>, v: &str) -> usize {
    names.iter().position(|n| n == v).unwrap_or_else(|| {
        names.push(v.to_owned());
        names.len() - 1
    })
}

/// A delta row a [`DeltaJoin`] can hash on one of its columns: a value
/// borrowed from a relation, or a pool id.
pub trait DeltaRow: Copy + Eq + Hash {
    /// Column `col`, when the row is a tuple of arity > `col`.
    fn column(self, col: usize) -> Option<Self>;
}

impl<'a> DeltaRow for &'a Value {
    fn column(self, col: usize) -> Option<&'a Value> {
        nth_column(self, col)
    }
}

impl DeltaRow for ObjRef {
    fn column(self, col: usize) -> Option<ObjRef> {
        Pool::global().tuple_items(self)?.get(col).copied()
    }
}

/// The delta rows one firing unit reads at its delta literal: borrowed
/// values (COL, the maintenance engine) or pool ids (DATALOG¬). With a
/// key column the rows are hashed on it — id rows by the item's id —
/// once per unit; each bucket keeps delta order, so a join derives in
/// the same sequence as a scan of the delta would.
pub struct DeltaJoin<R> {
    all: Vec<R>,
    buckets: Option<HashMap<R, Vec<R>, FxBuildHasher>>,
}

impl<R: DeltaRow> DeltaJoin<R> {
    /// Take `rows`, hashed on column `key` when there is one. Rows
    /// without that column can match no literal probing it.
    pub fn new(rows: impl IntoIterator<Item = R>, key: Option<usize>) -> DeltaJoin<R> {
        let all: Vec<R> = rows.into_iter().collect();
        let buckets = key.map(|col| {
            let mut map: HashMap<R, Vec<R>, FxBuildHasher> = HashMap::default();
            for &row in &all {
                if let Some(k) = row.column(col) {
                    map.entry(k).or_default().push(row);
                }
            }
            map
        });
        DeltaJoin { all, buckets }
    }

    /// The rows whose key column equals `key`; every row when the join
    /// has no key column or the caller has no key.
    pub fn candidates<Q>(&self, key: Option<&Q>) -> &[R]
    where
        R: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        match (&self.buckets, key) {
            (Some(map), Some(k)) => map.get(k).map_or(&[], Vec::as_slice),
            _ => &self.all,
        }
    }
}

/// Id buckets over one relation: for each indexed column, item id → the
/// ids of the rows holding that item there, in the order the rows were
/// added (a build adds them in canonical order). Buckets hold row ids,
/// never rows; a probe reads each row's items from the pool. Rows that
/// are not tuples are left out, since no literal matches them. The
/// maintenance engine keeps one over every column of each relation it
/// reads across a session's mutations; the DATALOG¬ engine keeps one per
/// column a coming round probes, updated by each round's commit.
#[derive(Debug, Default)]
pub struct IdIndex {
    cols: Vec<HashMap<ObjRef, Vec<ObjRef>, FxBuildHasher>>,
    /// The one column indexed, when not every column is.
    only: Option<usize>,
}

impl IdIndex {
    /// Index every column of every row of `rel`, interning each row once.
    pub fn build(rel: &Instance) -> IdIndex {
        IdIndex::default().filled(rel)
    }

    /// Index column `col` of every row of `rel`.
    pub fn build_on(rel: &Instance, col: usize) -> IdIndex {
        let idx = IdIndex {
            cols: Vec::new(),
            only: Some(col),
        };
        idx.filled(rel)
    }

    fn filled(mut self, rel: &Instance) -> IdIndex {
        for row in rel.iter() {
            self.insert(Pool::global().intern_once(row));
        }
        self
    }

    /// Add the row with pool id `row`; the caller adds each row once.
    pub fn insert(&mut self, row: ObjRef) {
        let Some(items) = Pool::global().tuple_items(row) else {
            return;
        };
        if self.cols.len() < items.len() {
            self.cols.resize_with(items.len(), HashMap::default);
        }
        let only = self.only;
        for (col, (bucket, &item)) in self.cols.iter_mut().zip(items.iter()).enumerate() {
            if only.is_none_or(|c| c == col) {
                bucket.entry(item).or_default().push(row);
            }
        }
    }

    /// Drop the row with pool id `row`.
    pub fn remove(&mut self, row: ObjRef) {
        let Some(items) = Pool::global().tuple_items(row) else {
            return;
        };
        for (col, &item) in self.cols.iter_mut().zip(items.iter()) {
            let Some(bucket) = col.get_mut(&item) else {
                continue;
            };
            if let Some(at) = bucket.iter().position(|&r| r == row) {
                bucket.swap_remove(at);
            }
            if bucket.is_empty() {
                col.remove(&item);
            }
        }
    }

    /// The rows holding `item` in column `col`.
    pub fn probe(&self, col: usize, item: ObjRef) -> &[ObjRef] {
        self.cols
            .get(col)
            .and_then(|c| c.get(&item))
            .map_or(&[], Vec::as_slice)
    }
}

/// A relation as a plain scan reads it: `base` itself, or `base` with a
/// batch's `added` rows hidden and its `removed` rows shown again — the
/// pre-batch value `base − added + removed`, read without materializing
/// it. Scans keep canonical order, exactly as the materialized instance
/// would iterate. A plain overlay may carry an [`IdIndex`] of `base`,
/// which a join probes when one of the literal's columns is bound.
#[derive(Clone, Copy)]
pub struct Overlay<'a> {
    base: &'a Instance,
    undo: Option<(&'a BTreeSet<Value>, &'a BTreeSet<Value>)>,
    index: Option<&'a IdIndex>,
}

impl<'a> Overlay<'a> {
    /// `base` as it is.
    pub fn plain(base: &'a Instance) -> Overlay<'a> {
        Overlay::indexed(base, None)
    }

    /// `base` as it is, with `index` describing exactly its rows.
    pub fn indexed(base: &'a Instance, index: Option<&'a IdIndex>) -> Overlay<'a> {
        Overlay {
            base,
            undo: None,
            index,
        }
    }

    /// `base` with the rows in `added` hidden and those in `removed`
    /// shown.
    pub fn undoing(
        base: &'a Instance,
        added: &'a BTreeSet<Value>,
        removed: &'a BTreeSet<Value>,
    ) -> Overlay<'a> {
        Overlay {
            base,
            undo: Some((added, removed)),
            index: None,
        }
    }

    /// The rows, in canonical order: `base` minus `added`, merged with
    /// `removed`.
    pub fn iter(self) -> impl Iterator<Item = &'a Value> {
        let plain = self.undo.is_none().then(|| self.base.iter());
        let undone = self
            .undo
            .map(|(added, removed)| undo_rows(self.base, added, removed));
        plain
            .into_iter()
            .flatten()
            .chain(undone.into_iter().flatten())
    }

    /// Whether `row` is a member, given whether `base` holds it.
    fn shows(&self, row: &Value, in_base: bool) -> bool {
        match self.undo {
            None => in_base,
            Some((added, _)) if in_base => !added.contains(row),
            Some((_, removed)) => removed.contains(row),
        }
    }

    /// Membership: `(base ∋ row ∧ row ∉ added) ∨ row ∈ removed`.
    pub fn contains(&self, row: &Value) -> bool {
        self.shows(row, self.base.contains(row))
    }
}

/// `base − added + removed` in canonical order, from three sorted
/// sequences: hiding walks `added` alongside `base`, and the kept rows
/// merge with `removed`.
fn undo_rows<'a>(
    base: &'a Instance,
    added: &'a BTreeSet<Value>,
    removed: &'a BTreeSet<Value>,
) -> impl Iterator<Item = &'a Value> {
    let mut hide = added.iter().peekable();
    let mut kept = base
        .iter()
        .filter(move |r| loop {
            match hide.peek().map(|h| h.cmp(r)) {
                Some(Ordering::Less) => {
                    hide.next();
                }
                Some(Ordering::Equal) => return false,
                _ => return true,
            }
        })
        .peekable();
    let mut shown = removed.iter().peekable();
    std::iter::from_fn(move || match (kept.peek(), shown.peek()) {
        (Some(k), Some(s)) => match k.cmp(s) {
            Ordering::Less => kept.next(),
            Ordering::Greater => shown.next(),
            Ordering::Equal => {
                shown.next();
                kept.next()
            }
        },
        (Some(_), None) => kept.next(),
        (None, _) => shown.next(),
    })
}

/// A compiled DATALOG¬ argument. A constant carries its pool id,
/// interned on first use.
#[derive(Clone, Debug)]
enum Arg {
    Slot(usize),
    Const(Value, OnceLock<ObjRef>),
}

/// The pool id of constant `c`, cached in `id`.
fn const_id(c: &Value, id: &OnceLock<ObjRef>) -> ObjRef {
    *id.get_or_init(|| Pool::global().intern(c))
}

/// A compiled DATALOG¬ body literal.
#[derive(Clone, Debug)]
pub struct DlStep {
    /// Polarity: false = negated.
    pub positive: bool,
    /// Predicate name.
    pub pred: String,
    args: Vec<Arg>,
    /// For each argument, the earlier position of the same variable in
    /// this literal (a repeat must match that row element).
    repeat: Vec<Option<usize>>,
    /// The first column that is ground when the literal is reached: a
    /// constant, or a variable an earlier positive literal binds. The
    /// settled state is probed through its index on this column, and a
    /// delta literal joins its delta hashed on it.
    pub probe: Option<usize>,
}

/// How one step reads its relation.
#[derive(Clone, Copy)]
pub enum Read<'x, 'a> {
    /// The settled state: a positive step with a probe column looks the
    /// column's bound item's pool id up in `index` (one `index_probes`
    /// each), or scans and counts a `scan_fallbacks` when no index is at
    /// hand.
    Settled(&'a Instance, Option<&'a IdIndex>),
    /// A plain scan that counts nothing. A positive step whose arguments
    /// are all ground becomes one membership test instead, and one with a
    /// column bound under the frame probes the overlay's [`IdIndex`] on
    /// it, when the overlay has one (neither counts anything).
    Scan(Overlay<'a>),
    /// The unit's delta rows, through their hash (counts nothing).
    Delta(&'x DeltaJoin<&'a Value>),
    /// The unit's delta row ids, through their hash (counts nothing);
    /// matched rows bind slots by id.
    DeltaIds(&'x DeltaJoin<ObjRef>),
}

/// A DATALOG¬ rule compiled to slots.
#[derive(Clone, Debug)]
pub struct DlPlan {
    head: DlStep,
    /// Body literals, in rule order.
    pub body: Vec<DlStep>,
    /// Slot → variable name, for errors.
    names: Vec<String>,
}

impl DlStep {
    /// Compile one atom, numbering new variables in `names`; `bound`
    /// marks the slots earlier positive literals bind.
    fn compile(positive: bool, atom: &DlAtom, names: &mut Vec<String>, bound: &[bool]) -> DlStep {
        let args: Vec<Arg> = atom
            .args
            .iter()
            .map(|t| match t {
                DlTerm::Const(c) => Arg::Const(c.clone(), OnceLock::new()),
                DlTerm::Var(v) => Arg::Slot(slot_of(names, v)),
            })
            .collect();
        let probe = args.iter().position(|a| match a {
            Arg::Const(..) => true,
            Arg::Slot(s) => bound.get(*s).copied().unwrap_or(false),
        });
        let repeat = (0..args.len())
            .map(|k| match &args[k] {
                Arg::Slot(s) => args[..k]
                    .iter()
                    .position(|a| matches!(a, Arg::Slot(t) if t == s)),
                Arg::Const(..) => None,
            })
            .collect();
        DlStep {
            positive,
            pred: atom.pred.clone(),
            args,
            repeat,
            probe,
        }
    }
}

impl DlPlan {
    /// Compile `rule`: number its variables in order of first occurrence
    /// and fix each literal's probe column.
    pub fn compile(rule: &DlRule) -> DlPlan {
        let mut names: Vec<String> = Vec::new();
        let mut bound: Vec<bool> = Vec::new();
        let mut body = Vec::with_capacity(rule.body.len());
        for lit in &rule.body {
            let step = DlStep::compile(lit.positive, &lit.atom, &mut names, &bound);
            bound.resize(names.len(), false);
            if lit.positive {
                for a in &step.args {
                    if let Arg::Slot(s) = a {
                        bound[*s] = true;
                    }
                }
            }
            body.push(step);
        }
        let head = DlStep::compile(true, &rule.head, &mut names, &[]);
        DlPlan { head, body, names }
    }

    /// Head predicate.
    pub fn head_pred(&self) -> &str {
        &self.head.pred
    }

    /// The empty binding.
    pub fn frame<'a>(&self) -> Frame<'a> {
        vec![None; self.names.len()]
    }

    /// Unify the head with a stored fact, given by its pool id: the
    /// binding of the head's variables, by id, when they match. The
    /// maintenance engine seeds a body evaluation with it to ask whether
    /// a deleted fact is still derived.
    pub fn seed<'a>(&self, row: ObjRef) -> Option<Frame<'a>> {
        let mut out = Vec::new();
        extend_id(&self.head, &self.frame(), row, &mut out);
        out.pop()
    }

    /// Extend every frame through body literal `i`.
    pub fn join<'a>(
        &self,
        i: usize,
        frames: &[Frame<'a>],
        read: Read<'_, 'a>,
        stats: &mut EvalStats,
    ) -> Result<Vec<Frame<'a>>, DlError> {
        let step = &self.body[i];
        let mut out = Vec::new();
        if !step.positive {
            let rel = match read {
                Read::Settled(rel, _) => Overlay::plain(rel),
                Read::Scan(rel) => rel,
                Read::Delta(_) | Read::DeltaIds(_) => {
                    unreachable!("a negated literal never reads a delta join")
                }
            };
            for f in frames {
                if !self.holds(step, f, rel)? {
                    out.push(f.clone());
                }
            }
            return Ok(out);
        }
        for f in frames {
            let key = step.probe.map(|c| &step.args[c]);
            match read {
                Read::Delta(join) => {
                    let key = key.and_then(|a| self.ground_ref(a, f));
                    for &row in join.candidates(key) {
                        extend_row(step, f, row, &mut out);
                    }
                }
                Read::DeltaIds(join) => {
                    let key = key.and_then(|a| self.ground_id(a, f));
                    for &row in join.candidates(key.as_ref()) {
                        extend_id(step, f, row, &mut out);
                    }
                }
                Read::Settled(rel, index) => match (key.filter(|a| self.is_bound(a, f)), index) {
                    (Some(a), Some(idx)) => {
                        stats.index_probes += 1;
                        let col = step.probe.expect("a key has a column");
                        let item = self.ground_id(a, f).expect("a bound key has an id");
                        for &row in idx.probe(col, item) {
                            extend_id(step, f, row, &mut out);
                        }
                    }
                    (key, _) => {
                        if key.is_some() {
                            stats.scan_fallbacks += 1;
                        }
                        for row in rel.iter() {
                            extend_row(step, f, row, &mut out);
                        }
                    }
                },
                Read::Scan(rel) if self.is_ground(step, f) => {
                    if self.holds(step, f, rel)? {
                        out.push(f.clone());
                    }
                }
                Read::Scan(rel) => match rel.index.zip(self.bound_column(step, f)) {
                    Some((idx, (col, item))) => {
                        for &row in idx.probe(col, item) {
                            extend_id(step, f, row, &mut out);
                        }
                    }
                    None => {
                        for row in rel.iter() {
                            extend_row(step, f, row, &mut out);
                        }
                    }
                },
            }
        }
        Ok(out)
    }

    /// The first column of `step` that is bound under `f`, with the pool
    /// id it is bound to.
    fn bound_column(&self, step: &DlStep, f: &Frame<'_>) -> Option<(usize, ObjRef)> {
        let ids = step.args.iter().map(|a| self.ground_id(a, f));
        ids.enumerate().find_map(|(col, id)| Some((col, id?)))
    }

    /// Whether every argument of `step` is ground under `f`.
    fn is_ground(&self, step: &DlStep, f: &Frame<'_>) -> bool {
        step.args.iter().all(|a| self.is_bound(a, f))
    }

    /// Whether an argument is ground under `f`.
    fn is_bound(&self, a: &Arg, f: &Frame<'_>) -> bool {
        match a {
            Arg::Const(..) => true,
            Arg::Slot(s) => f[*s].is_some(),
        }
    }

    /// The pool id an argument is bound to, if any: a slot's cached id.
    fn ground_id(&self, a: &Arg, f: &Frame<'_>) -> Option<ObjRef> {
        match a {
            Arg::Const(c, id) => Some(const_id(c, id)),
            Arg::Slot(s) => f[*s].as_ref().map(|b| b.obj_ref()),
        }
    }

    /// Whether the ground atom of literal `step` under `f` is in `rel`.
    /// The base relation is probed by pool id when its id sidecar can
    /// answer; the row is materialized when that cannot, or when an
    /// overlay must look it up among the batch's rows.
    fn holds(&self, step: &DlStep, f: &Frame<'_>, rel: Overlay<'_>) -> Result<bool, DlError> {
        let ids = self.ids(&step.args, f, &step.pred)?;
        let in_base = rel.base.contains_ref(Pool::global().tuple_of(&ids));
        if let (Some(hit), None) = (in_base, rel.undo) {
            return Ok(hit);
        }
        let row = self.ground(&step.args, f, &step.pred)?;
        let in_base = in_base.unwrap_or_else(|| rel.base.contains(&row));
        Ok(rel.shows(&row, in_base))
    }

    /// The value an argument is bound to, if any.
    fn ground_ref<'f>(&'f self, a: &'f Arg, f: &'f Frame<'_>) -> Option<&'f Value> {
        match a {
            Arg::Const(c, _) => Some(c),
            Arg::Slot(s) => f[*s].as_ref().map(|b| b.value()),
        }
    }

    fn unbound(&self, s: usize, pred: &str) -> DlError {
        DlError::UnboundAtFiring {
            var: self.names[s].clone(),
            pred: pred.to_owned(),
        }
    }

    /// The pool ids of ground arguments.
    fn ids(&self, args: &[Arg], f: &Frame<'_>, pred: &str) -> Result<Vec<ObjRef>, DlError> {
        args.iter()
            .map(|a| match a {
                Arg::Const(c, id) => Ok(const_id(c, id)),
                Arg::Slot(s) => f[*s]
                    .as_ref()
                    .map(|b| b.obj_ref())
                    .ok_or_else(|| self.unbound(*s, pred)),
            })
            .collect()
    }

    /// The ground tuple of `args` under `f`.
    fn ground(&self, args: &[Arg], f: &Frame<'_>, pred: &str) -> Result<Value, DlError> {
        let row = args
            .iter()
            .map(|a| match a {
                Arg::Const(c, _) => Ok(c.clone()),
                Arg::Slot(s) => f[*s]
                    .as_ref()
                    .map(|b| b.value().clone())
                    .ok_or_else(|| self.unbound(*s, pred)),
            })
            .collect::<Result<_, _>>()?;
        Ok(Value::Tuple(row))
    }

    /// The ground row of body literal `i` under `f`.
    pub fn body_row(&self, i: usize, f: &Frame<'_>) -> Result<Value, DlError> {
        let step = &self.body[i];
        self.ground(&step.args, f, &step.pred)
    }

    /// The head row's pool id, built from the slots' cached ids without
    /// materializing the row.
    pub fn head_id(&self, f: &Frame<'_>) -> Result<ObjRef, DlError> {
        let ids = self.ids(&self.head.args, f, &self.head.pred)?;
        Ok(Pool::global().tuple_of(&ids))
    }

    /// The instantiated positive body facts of one firing — the parents
    /// of the head fact it derives.
    pub fn parents(&self, f: &Frame<'_>) -> Result<Vec<String>, DlError> {
        let positive = self.body.iter().filter(|s| s.positive);
        positive
            .map(|s| Ok(render_fact(&s.pred, &self.ground(&s.args, f, &s.pred)?)))
            .collect()
    }
}

/// Match one row against a positive literal, pushing the extended frame
/// on success. Constants, bound slots and repeats are checked before the
/// frame is copied: in a selective join most candidates fail here.
fn extend_row<'a>(step: &DlStep, f: &Frame<'a>, row: &'a Value, out: &mut Vec<Frame<'a>>) {
    let Some(items) = row.as_tuple() else { return };
    if items.len() != step.args.len() {
        return;
    }
    for (k, (a, v)) in step.args.iter().zip(items).enumerate() {
        let ok = match a {
            Arg::Const(c, _) => c == v,
            Arg::Slot(s) => match (&f[*s], step.repeat[k]) {
                (Some(b), _) => b.value() == v,
                (None, Some(j)) => &items[j] == v,
                (None, None) => true,
            },
        };
        if !ok {
            return;
        }
    }
    let mut next = f.clone();
    for (a, v) in step.args.iter().zip(items) {
        if let Arg::Slot(s) = a {
            if next[*s].is_none() {
                next[*s] = Some(Bound::borrowed(v));
            }
        }
    }
    out.push(next);
}

/// [`extend_row`] for the row a pool id names, matched by id: constants
/// and bound slots compare ids, and new bindings hold ids only.
fn extend_id<'a>(step: &DlStep, f: &Frame<'a>, row: ObjRef, out: &mut Vec<Frame<'a>>) {
    let Some(items) = Pool::global().tuple_items(row) else {
        return;
    };
    if items.len() != step.args.len() {
        return;
    }
    for (k, (a, &item)) in step.args.iter().zip(items.iter()).enumerate() {
        let ok = match a {
            Arg::Const(c, id) => const_id(c, id) == item,
            Arg::Slot(s) => match (&f[*s], step.repeat[k]) {
                (Some(b), _) => b.obj_ref() == item,
                (None, Some(j)) => items[j] == item,
                (None, None) => true,
            },
        };
        if !ok {
            return;
        }
    }
    let mut next = f.clone();
    for (a, &item) in step.args.iter().zip(items.iter()) {
        if let Arg::Slot(s) = a {
            if next[*s].is_none() {
                next[*s] = Some(Bound::by_id(item));
            }
        }
    }
    out.push(next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::{atom, tuple};

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    /// Each frame's slots as values, in frame order.
    fn slots(frames: &[Frame<'_>]) -> Vec<Vec<Option<Value>>> {
        let slot = |b: &Option<Rc<Bound<'_>>>| b.as_ref().map(|b| b.value().clone());
        frames
            .iter()
            .map(|f| f.iter().map(slot).collect())
            .collect()
    }

    /// Join `frames` through body literal `pos` of `rule`, reading `rows`
    /// once as values and once as pool ids: the two must give the same
    /// frames in the same order.
    fn same_join<'a>(rule: &DlRule, pos: usize, frames: &[Frame<'a>], rows: &'a Instance) -> usize {
        let plan = DlPlan::compile(rule);
        let key = plan.body[pos].probe;
        let ids: Vec<ObjRef> = rows.iter().map(|r| Pool::global().intern(r)).collect();
        let by_value = DeltaJoin::new(rows.iter(), key);
        let by_id = DeltaJoin::new(ids.iter().copied(), key);
        let mut stats = EvalStats::default();
        let values = plan.join(pos, frames, Read::Delta(&by_value), &mut stats);
        let ids = plan.join(pos, frames, Read::DeltaIds(&by_id), &mut stats);
        let (values, ids) = (values.unwrap(), ids.unwrap());
        assert_eq!(slots(&values), slots(&ids), "{rule:?} at {pos}");
        assert_eq!(stats, EvalStats::default(), "delta joins count nothing");
        values.len()
    }

    #[test]
    fn id_delta_join_matches_the_value_join() {
        // pairs, a short and a long tuple, and rows that are not tuples
        let mut rows = Instance::from_rows([
            [atom(1), atom(2)],
            [atom(1), atom(3)],
            [atom(2), atom(2)],
            [atom(3), atom(3)],
            [atom(3), atom(1)],
        ]);
        for row in [
            tuple([atom(1)]),
            tuple([atom(1), atom(1), atom(1)]),
            atom(1),
            Value::set_of([atom(1), atom(2)]),
        ] {
            rows.insert(row);
        }
        let q = |args: Vec<DlTerm>, body: Vec<(bool, DlAtom)>| {
            DlRule::new(DlAtom::new("Q", args), body)
        };
        // a constant key: D(1, y)
        let constant = q(
            vec![v("y")],
            vec![(true, DlAtom::new("D", vec![DlTerm::Const(atom(1)), v("y")]))],
        );
        let plan = DlPlan::compile(&constant);
        assert_eq!(same_join(&constant, 0, &[plan.frame()], &rows), 2);
        // a repeated variable and no key: D(x, x)
        let repeated = q(
            vec![v("x")],
            vec![(true, DlAtom::new("D", vec![v("x"), v("x")]))],
        );
        let plan = DlPlan::compile(&repeated);
        assert_eq!(same_join(&repeated, 0, &[plan.frame()], &rows), 2);
        // a key bound by an earlier literal, frames in scan order: S(x), D(x, y)
        let bound = q(
            vec![v("x"), v("y")],
            vec![
                (true, DlAtom::new("S", vec![v("x")])),
                (true, DlAtom::new("D", vec![v("x"), v("y")])),
            ],
        );
        let plan = DlPlan::compile(&bound);
        let s = Instance::from_rows([[atom(3)], [atom(1)], [atom(4)]]);
        let mut stats = EvalStats::default();
        let read = Read::Scan(Overlay::plain(&s));
        let frames = plan.join(0, &[plan.frame()], read, &mut stats).unwrap();
        assert_eq!(same_join(&bound, 1, &frames, &rows), 4);
        // a key bound by id only, as a seed or an indexed row binds it
        let seeded = q(
            vec![v("x")],
            vec![(true, DlAtom::new("D", vec![v("x"), v("y")]))],
        );
        let plan = DlPlan::compile(&seeded);
        let seed = |i: u64| plan.seed(Pool::global().intern(&tuple([atom(i)])));
        let frames: Vec<Frame<'_>> = [1, 3, 4].into_iter().filter_map(seed).collect();
        assert_eq!(same_join(&seeded, 0, &frames, &rows), 4);
    }
}
