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
//! and the maintenance engine (`uset-ivm`) all run these plans. The
//! maintenance engine reads relations through an [`Overlay`], which can
//! present a relation as it was before a batch without copying it, and
//! probes the [`IdIndex`] it keeps over its state: rows matched there
//! bind slots by pool id.

use crate::datalog::{render_fact, DlAtom, DlError, DlRule, DlTerm};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::OnceLock;
use uset_object::index::nth_column;
use uset_object::intern::FxBuildHasher;
use uset_object::{intern, ColumnIndex, EvalStats, Instance, ObjRef, Pool, Value};

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

/// The delta rows one firing unit reads at its delta literal. With a key
/// column the rows are hashed on it, once per unit; each bucket keeps
/// delta order, so a join derives in the same sequence as a scan of the
/// delta would.
pub struct DeltaJoin<'a> {
    all: Vec<&'a Value>,
    buckets: Option<HashMap<&'a Value, Vec<&'a Value>, FxBuildHasher>>,
}

impl<'a> DeltaJoin<'a> {
    /// Borrow `rows`, hashed on column `key` when there is one. Rows
    /// without that column can match no literal probing it.
    pub fn new(rows: impl IntoIterator<Item = &'a Value>, key: Option<usize>) -> DeltaJoin<'a> {
        let all: Vec<&'a Value> = rows.into_iter().collect();
        let buckets = key.map(|col| {
            let mut map: HashMap<&'a Value, Vec<&'a Value>, FxBuildHasher> = HashMap::default();
            for &row in &all {
                if let Some(k) = nth_column(row, col) {
                    map.entry(k).or_default().push(row);
                }
            }
            map
        });
        DeltaJoin { all, buckets }
    }

    /// The rows whose key column equals `key`; every row when the join
    /// has no key column or the caller has no key.
    pub fn candidates(&self, key: Option<&Value>) -> &[&'a Value] {
        match (&self.buckets, key) {
            (Some(map), Some(k)) => map.get(k).map_or(&[], Vec::as_slice),
            _ => &self.all,
        }
    }
}

/// Id buckets over one relation, kept current by a reader that owns the
/// relation across mutations (the maintenance engine's session index):
/// for each column, item id → the ids of the rows holding that item
/// there. Buckets hold row ids, never rows; a probe reads each row's
/// items from the pool. Rows that are not tuples are left out, since no
/// literal matches them.
#[derive(Debug, Default)]
pub struct IdIndex {
    cols: Vec<HashMap<ObjRef, Vec<ObjRef>, FxBuildHasher>>,
}

impl IdIndex {
    /// Index every row of `rel`, interning each once.
    pub fn build(rel: &Instance) -> IdIndex {
        let mut idx = IdIndex::default();
        for row in rel.iter() {
            idx.insert(Pool::global().intern_once(row));
        }
        idx
    }

    /// Add the row with pool id `row`; the caller adds each row once.
    pub fn insert(&mut self, row: ObjRef) {
        let Some(items) = Pool::global().tuple_items(row) else {
            return;
        };
        if self.cols.len() < items.len() {
            self.cols.resize_with(items.len(), HashMap::default);
        }
        for (col, &item) in self.cols.iter_mut().zip(items.iter()) {
            col.entry(item).or_default().push(row);
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
    /// The settled state: a positive step with a probe column looks up
    /// `index` (one `index_probes` each), or scans and counts a
    /// `scan_fallbacks` when no index is at hand.
    Settled(&'a Instance, Option<&'a ColumnIndex>),
    /// A plain scan that counts nothing. A positive step whose arguments
    /// are all ground becomes one membership test instead, and one with a
    /// column bound under the frame probes the overlay's [`IdIndex`] on
    /// it, when the overlay has one (neither counts anything).
    Scan(Overlay<'a>),
    /// The unit's delta, through its hash (counts nothing).
    Delta(&'x DeltaJoin<'a>),
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
                Read::Delta(_) => unreachable!("a negated literal never reads a delta join"),
            };
            for f in frames {
                if !self.holds(step, f, rel)? {
                    out.push(f.clone());
                }
            }
            return Ok(out);
        }
        for f in frames {
            let key = step.probe.and_then(|c| self.ground_ref(&step.args[c], f));
            match (read, key) {
                (Read::Delta(join), key) => {
                    for &row in join.candidates(key) {
                        extend_row(step, f, row, &mut out);
                    }
                }
                (Read::Settled(_, Some(idx)), Some(k)) => {
                    stats.index_probes += 1;
                    for row in idx.probe(k) {
                        extend_row(step, f, row, &mut out);
                    }
                }
                (Read::Settled(rel, None), Some(_)) => {
                    stats.scan_fallbacks += 1;
                    for row in rel.iter() {
                        extend_row(step, f, row, &mut out);
                    }
                }
                (Read::Scan(rel), _) if self.is_ground(step, f) => {
                    if self.holds(step, f, rel)? {
                        out.push(f.clone());
                    }
                }
                (Read::Scan(rel), _) => match rel.index.zip(self.bound_column(step, f)) {
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
                (Read::Settled(rel, _), _) => {
                    for row in rel.iter() {
                        extend_row(step, f, row, &mut out);
                    }
                }
            }
        }
        Ok(out)
    }

    /// The first column of `step` that is bound under `f`, with the pool
    /// id it is bound to.
    fn bound_column(&self, step: &DlStep, f: &Frame<'_>) -> Option<(usize, ObjRef)> {
        step.args.iter().enumerate().find_map(|(col, a)| match a {
            Arg::Const(c, id) => Some((col, const_id(c, id))),
            Arg::Slot(s) => f[*s].as_ref().map(|b| (col, b.obj_ref())),
        })
    }

    /// Whether every argument of `step` is ground under `f`.
    fn is_ground(&self, step: &DlStep, f: &Frame<'_>) -> bool {
        step.args.iter().all(|a| match a {
            Arg::Const(..) => true,
            Arg::Slot(s) => f[*s].is_some(),
        })
    }

    /// Whether the ground atom of literal `step` under `f` is in `rel`.
    /// The base relation is probed by pool id when its id sidecar can
    /// answer; the row is materialized when that cannot, or when an
    /// overlay must look it up among the batch's rows.
    fn holds(&self, step: &DlStep, f: &Frame<'_>, rel: Overlay<'_>) -> Result<bool, DlError> {
        let mut in_base = None;
        if intern::enabled() {
            let ids = self.ids(&step.args, f, &step.pred)?;
            in_base = rel.base.contains_ref(Pool::global().tuple_of(&ids));
            if let (Some(hit), None) = (in_base, rel.undo) {
                return Ok(hit);
            }
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

    /// The head fact's row under a final binding.
    pub fn head_row(&self, f: &Frame<'_>) -> Result<Value, DlError> {
        self.ground(&self.head.args, f, &self.head.pred)
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
