//! Compiled rule plans: the one rule compiler and join executor of the
//! deductive engines.
//!
//! DATALOG¬ is COL without data functions (DESIGN §1), so both languages
//! compile into one [`Plan`]: [`Plan::compile`] takes a COL rule, and
//! [`Plan::datalog`] lowers a DATALOG¬ rule into COL's syntax first. Each
//! variable becomes a slot, and a body's bindings are [`Frame`]s: one
//! optional `Rc`-shared [`Bound`] value per slot. Extending a frame through
//! a literal copies slot pointers, never names or object trees, and a
//! bound value borrows the row element it came from for as long as the
//! firing reads the settled state and the delta.
//!
//! A [`Dialect`] fixes at compile time how a language stores and probes
//! rows, and each compiled literal carries the outcome as data: whether
//! its rows are bare objects (COL's unary predicates), the column its
//! delta is hashed on, and how it probes the settled state. The executor
//! — [`Plan::join`] for one literal, `Plan::fire` for a firing unit's
//! whole body — reads only that data and never asks which language it
//! serves. DATALOG¬ (`datalog`), COL (`col::eval`) and the maintenance
//! engine (`uset-ivm`) all run these plans. The two round engines read
//! the settled state through the [`IdIndex`]es they keep per probed
//! column, updated by each round's commit; DATALOG¬ reads its delta as
//! pool ids and COL as borrowed rows, each hashed in a [`DeltaJoin`]. The
//! maintenance engine reads relations through an [`Overlay`], which can
//! present a relation as it was before a batch without copying it, and
//! probes the [`IdIndex`] it keeps over its state. Rows matched by id
//! bind slots by pool id.

use crate::col::ast::{ColHead, ColLiteral, ColRule, ColTerm};
use crate::datalog::{DlAtom, DlRule, DlTerm};
use std::borrow::Borrow;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;
use std::rc::Rc;
use std::sync::OnceLock;
use uset_guard::rounds::{Probes, RuleClass};
use uset_guard::ParBrake;
use uset_object::index::nth_column;
use uset_object::intern::{FxBuildHasher, TupleItems};
use uset_object::{Database, EvalStats, IdIndex, Instance, ObjRef, Pool, RType, Value};

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
/// values (COL, the maintenance engine) or pool ids (DATALOG¬). When the
/// literal has a delta key column the rows are hashed on it — id rows by
/// the item's id, a bare row whole — once per unit; each bucket keeps
/// delta order, so a join derives in the same sequence as a scan of the
/// delta would.
pub struct DeltaJoin<R> {
    all: Vec<R>,
    buckets: Option<HashMap<R, Vec<R>, FxBuildHasher>>,
}

impl<R: DeltaRow> DeltaJoin<R> {
    /// Take `rows` for literal `step`, hashed on its delta key column when
    /// it has one. Rows without that column can match no literal probing
    /// it.
    pub fn new(rows: impl IntoIterator<Item = R>, step: &Step) -> DeltaJoin<R> {
        let all: Vec<R> = rows.into_iter().collect();
        let key = match step.lit {
            Lit::Pred { key, bare, .. } => key.map(|k| (k, bare)),
            _ => None,
        };
        let buckets = key.map(|(col, bare)| {
            let mut map: HashMap<R, Vec<R>, FxBuildHasher> = HashMap::default();
            for &row in &all {
                if let Some(k) = if bare { Some(row) } else { row.column(col) } {
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

/// A data function's graph: argument tuple → set value.
pub type FuncGraph = BTreeMap<Vec<Value>, BTreeSet<Value>>;

/// Every data function's graph, by name.
pub type FuncGraphs = BTreeMap<String, FuncGraph>;

/// The graphs of a language without data functions.
pub static NO_FUNCS: FuncGraphs = BTreeMap::new();

/// The relation an absent one reads as.
pub fn empty() -> &'static Instance {
    static EMPTY: OnceLock<Instance> = OnceLock::new();
    EMPTY.get_or_init(Instance::empty)
}

/// Canonical rendering of a predicate fact for provenance events and the
/// `why(fact)` API: `name` followed by the stored tuple, or `name(row)`
/// for a bare object (a COL unary predicate's row).
pub fn render_pred_fact(name: &str, row: &Value) -> String {
    match row {
        Value::Tuple(_) => format!("{name}{row}"),
        _ => format!("{name}({row})"),
    }
}

/// Canonical rendering of a data-function membership fact
/// (`elem ∈ func(args…)`).
pub fn render_func_fact(func: &str, args: &[Value], elem: &Value) -> String {
    let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    format!("{elem} ∈ {func}({})", args.join(", "))
}

/// How a language stores and probes its rows. Only the compiler reads
/// it: each step carries the choices as data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dialect {
    /// DATALOG¬: every row is a tuple, a unary one too, and a step probes
    /// the settled state on its first ground column.
    Datalog,
    /// COL: a unary predicate holds bare objects, and a ground one is a
    /// membership test; an n-ary step probes the settled state only on
    /// column 0 (its delta is still hashed on its first ground column).
    Col,
}

/// How a positive predicate step narrows a read of the settled state
/// once its ground part is bound; each narrowed read counts one
/// `index_probes`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Probe {
    /// Scan the relation.
    Scan,
    /// Look the column's item up in the relation's [`IdIndex`] on it (a
    /// scan counting one `scan_fallbacks` when no index is at hand).
    Column(usize),
    /// The row is ground: one membership test.
    Member,
}

/// A variable still unbound where a ground term was needed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unbound {
    /// The variable.
    pub var: String,
    /// The symbol of the literal or head that needed it (empty for an
    /// (in)equality or a membership in a value).
    pub at: String,
}

/// An evaluation that fails on the slot it found unbound.
type Eval<T> = Result<T, usize>;

/// A compiled term. A constant carries its pool id, interned on first
/// use.
#[derive(Clone, Debug)]
enum Term {
    Slot(usize),
    Const(Value, OnceLock<ObjRef>),
    Tuple(Vec<Term>),
    SetLit(Vec<Term>),
    Apply(String, Vec<Term>),
}

/// The pool id of constant `c`, cached in `id`.
fn const_id(c: &Value, id: &OnceLock<ObjRef>) -> ObjRef {
    *id.get_or_init(|| Pool::global().intern(c))
}

impl Term {
    /// Whether every slot in the term satisfies `bound`.
    fn ground(&self, bound: &dyn Fn(usize) -> bool) -> bool {
        match self {
            Term::Slot(s) => bound(*s),
            Term::Const(..) => true,
            Term::Tuple(ts) | Term::SetLit(ts) | Term::Apply(_, ts) => {
                ts.iter().all(|t| t.ground(bound))
            }
        }
    }

    /// Call `each` on every slot in the term.
    fn slots(&self, each: &mut impl FnMut(usize)) {
        match self {
            Term::Slot(s) => each(*s),
            Term::Const(..) => {}
            Term::Tuple(ts) | Term::SetLit(ts) | Term::Apply(_, ts) => {
                ts.iter().for_each(|t| t.slots(each))
            }
        }
    }

    /// The value the term denotes under `f`; an application reads its
    /// function's graph in `funcs`.
    fn eval<'f>(&'f self, f: &'f Frame<'_>, funcs: &FuncGraphs) -> Eval<Cow<'f, Value>> {
        Ok(match self {
            Term::Slot(s) => Cow::Borrowed(f[*s].as_ref().ok_or(*s)?.value()),
            Term::Const(c, _) => Cow::Borrowed(c),
            Term::Tuple(ts) => Cow::Owned(Value::Tuple(eval_all(ts, f, funcs)?)),
            Term::SetLit(ts) => {
                Cow::Owned(Value::Set(eval_all(ts, f, funcs)?.into_iter().collect()))
            }
            Term::Apply(func, ts) => {
                let args = eval_all(ts, f, funcs)?;
                let set = funcs.get(func).and_then(|g| g.get(&args)).cloned();
                Cow::Owned(Value::Set(set.unwrap_or_default()))
            }
        })
    }

    /// The pool id of the term's value under `f`, from the slots' cached
    /// ids where the term is built of slots, constants and tuples.
    fn id(&self, f: &Frame<'_>, funcs: &FuncGraphs) -> Eval<ObjRef> {
        match self {
            Term::Slot(s) => Ok(f[*s].as_ref().ok_or(*s)?.obj_ref()),
            Term::Const(c, id) => Ok(const_id(c, id)),
            Term::Tuple(ts) => {
                let ids = ts
                    .iter()
                    .map(|t| t.id(f, funcs))
                    .collect::<Eval<Vec<_>>>()?;
                Ok(Pool::global().tuple_of(&ids))
            }
            _ => Ok(Pool::global().intern(&*self.eval(f, funcs)?)),
        }
    }

    /// The data functions the term evaluates as values.
    fn applies<'t>(&'t self, out: &mut Vec<&'t str>) {
        match self {
            Term::Slot(_) | Term::Const(..) => {}
            Term::Tuple(ts) | Term::SetLit(ts) => ts.iter().for_each(|t| t.applies(out)),
            Term::Apply(f, ts) => {
                out.push(f);
                ts.iter().for_each(|t| t.applies(out));
            }
        }
    }
}

/// Ground a list of terms.
fn eval_all(ts: &[Term], f: &Frame<'_>, funcs: &FuncGraphs) -> Eval<Vec<Value>> {
    ts.iter()
        .map(|t| t.eval(f, funcs).map(Cow::into_owned))
        .collect()
}

/// A compiled body literal.
#[derive(Clone, Debug)]
pub struct Step {
    /// Polarity: false = negated.
    pub positive: bool,
    /// How a positive predicate literal narrows a read of the settled
    /// state ([`Probe::Scan`] for any other literal).
    pub(crate) probe: Probe,
    lit: Lit,
}

#[derive(Clone, Debug)]
enum Lit {
    /// `pred(args)`, matched against rows as the pattern `row`: the bare
    /// argument when `bare` (a COL unary predicate), else the tuple of
    /// the arguments.
    Pred {
        pred: String,
        row: Term,
        bare: bool,
        /// The first column ground when the literal is reached (a bare
        /// row is its own column 0): the column a delta read is hashed
        /// on.
        key: Option<usize>,
    },
    /// `elem ∈ set`.
    Member { elem: Term, set: Term },
    /// `left = right`.
    Eq { left: Term, right: Term },
}

impl Step {
    /// The relation a predicate step reads.
    pub fn pred(&self) -> Option<&str> {
        match &self.lit {
            Lit::Pred { pred, .. } => Some(pred),
            _ => None,
        }
    }

    /// The symbol whose delta the step can read: its relation, or the data
    /// function a membership ranges over (`x ∈ F(…)`).
    pub fn symbol(&self) -> Option<&str> {
        match &self.lit {
            Lit::Pred { pred, .. } => Some(pred),
            Lit::Member {
                set: Term::Apply(f, _),
                ..
            } => Some(f),
            _ => None,
        }
    }

    /// The data functions the step's terms evaluate as values; a
    /// membership's own function is read by the step, not evaluated.
    fn applies<'t>(&'t self, out: &mut Vec<&'t str>) {
        match &self.lit {
            Lit::Pred { row, .. } => row.applies(out),
            Lit::Member { elem, set } => {
                elem.applies(out);
                match set {
                    Term::Apply(_, args) => args.iter().for_each(|t| t.applies(out)),
                    _ => set.applies(out),
                }
            }
            Lit::Eq { left, right } => {
                left.applies(out);
                right.applies(out);
            }
        }
    }
}

/// Term `k` of a predicate's row pattern: item `k` of a tuple row; a bare
/// row is its own column 0.
fn column(row: &Term, bare: bool, k: usize) -> &Term {
    match row {
        Term::Tuple(ts) if !bare => &ts[k],
        _ => row,
    }
}

/// A compiled rule head.
#[derive(Clone, Debug)]
enum Head {
    /// A row of the head predicate.
    Row(Term),
    /// A member `elem ∈ F(args)` of the head's data function.
    Member { args: Vec<Term>, elem: Term },
}

/// A derived head fact.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum HeadFact {
    /// A row of the head predicate.
    Row(Value),
    /// A member of the head's data function: its arguments, the element.
    Member(Vec<Value>, Value),
}

/// How one step reads its relation.
#[derive(Clone, Copy)]
pub enum Read<'x, 'a> {
    /// The settled state: a positive step narrows the read as compiled —
    /// through the relation's [`IdIndex`] on its probe column (one
    /// `index_probes`; a `scan_fallbacks` scan with no index at hand), or
    /// by one membership test of a ground bare row (one `index_probes`).
    Settled(&'a Instance, Option<&'a IdIndex>),
    /// A plain scan that counts nothing. A positive step whose row is
    /// ground becomes one membership test instead, and one with a column
    /// bound under the frame probes the overlay's [`IdIndex`] on it, when
    /// the overlay has one (neither counts anything).
    Scan(Overlay<'a>),
    /// The unit's delta rows, through their hash (counts nothing).
    Delta(&'x DeltaJoin<&'a Value>),
    /// The unit's delta row ids, through their hash (counts nothing);
    /// matched rows bind slots by id.
    DeltaIds(&'x DeltaJoin<ObjRef>),
    /// The unit's delta of the data functions, which a membership step
    /// ranges over (counts nothing).
    DeltaFuncs(&'a FuncGraphs),
}

/// The delta a unit reads at its delta position.
#[derive(Clone, Copy)]
pub(crate) enum DeltaIn<'a> {
    /// Relation rows.
    Rows(&'a Instance),
    /// Relation rows, by pool id.
    Ids(&'a [ObjRef]),
    /// Data-function graphs.
    Funcs(&'a FuncGraphs),
}

/// The settled state a firing reads: relations by name and the data
/// functions' graphs.
pub(crate) trait State: Sync {
    /// The relation `pred`, if present.
    fn rel(&self, pred: &str) -> Option<&Instance>;

    /// The data functions' graphs.
    fn funcs(&self) -> &FuncGraphs {
        &NO_FUNCS
    }
}

impl State for Database {
    fn rel(&self, pred: &str) -> Option<&Instance> {
        self.get_ref(pred)
    }
}

/// The settled state's indexes, per relation and column.
pub(crate) type Indexes = BTreeMap<String, BTreeMap<usize, IdIndex>>;

/// Keep exactly the indexes `keep` names: drop the others, and build each
/// missing one from `state`. An absent relation gets an (empty) index
/// too: a probe against an empty relation still counts as a probe.
pub(crate) fn index(state: &impl State, keep: &Probes, indexes: &mut Indexes) {
    let kept = |pred: &str, col: usize| keep.get(pred).is_some_and(|k| k.contains(&col));
    indexes.retain(|pred, cols| {
        cols.retain(|&col, _| kept(pred, col));
        !cols.is_empty()
    });
    for (pred, cols) in keep {
        let rel = state.rel(pred).unwrap_or(empty());
        let built = indexes.entry(pred.clone()).or_default();
        for &col in cols {
            built
                .entry(col)
                .or_insert_with(|| IdIndex::build_on(rel, col));
        }
    }
}

/// Note a row newly committed to relation `pred` in its kept indexes.
pub(crate) fn note_insert(indexes: &mut Indexes, pred: &str, row: ObjRef) {
    if let Some(cols) = indexes.get_mut(pred) {
        cols.values_mut().for_each(|idx| idx.insert(row));
    }
}

/// Classify one stratum's rules: every rule is a snapshot under the
/// naive strategy; otherwise see [`Plan::class`].
pub(crate) fn classify(rules: &[(usize, &Plan)], naive: bool) -> Vec<RuleClass> {
    if naive {
        return vec![RuleClass::Snapshot; rules.len()];
    }
    let run: BTreeSet<&str> = rules.iter().map(|(_, p)| p.defines()).collect();
    rules.iter().map(|(_, p)| p.class(&run)).collect()
}

/// A rule compiled to slots.
#[derive(Clone, Debug)]
pub struct Plan {
    defines: String,
    head: Head,
    /// Body literals, in rule order.
    pub body: Vec<Step>,
    /// Slot → variable name, for errors.
    names: Vec<String>,
    /// Slot → rtype annotation.
    types: Vec<Option<RType>>,
}

/// Compiles terms, numbering variables in order of first occurrence.
struct Slots(Vec<String>);

impl Slots {
    fn term(&mut self, t: &ColTerm) -> Term {
        match t {
            ColTerm::Var(v) => Term::Slot(slot_of(&mut self.0, v)),
            ColTerm::Const(c) => Term::Const(c.clone(), OnceLock::new()),
            ColTerm::Tuple(ts) => Term::Tuple(self.terms(ts)),
            ColTerm::SetLit(ts) => Term::SetLit(self.terms(ts)),
            ColTerm::Apply(f, ts) => Term::Apply(f.clone(), self.terms(ts)),
        }
    }

    fn terms(&mut self, ts: &[ColTerm]) -> Vec<Term> {
        ts.iter().map(|t| self.term(t)).collect()
    }

    /// A predicate's row pattern, and whether its rows are bare.
    fn row(&mut self, args: &[ColTerm], dialect: Dialect) -> (Term, bool) {
        let mut args = self.terms(args);
        if dialect == Dialect::Col && args.len() == 1 {
            (args.remove(0), true)
        } else {
            (Term::Tuple(args), false)
        }
    }
}

impl Plan {
    /// Compile `rule`: number its variables in order of first occurrence
    /// and fix each predicate literal's delta key and settled probe as
    /// `dialect` stores and probes rows.
    pub fn compile(rule: &ColRule, dialect: Dialect) -> Plan {
        let mut slots = Slots(Vec::new());
        // slot → bound by an earlier positive literal
        let mut bound: Vec<bool> = Vec::new();
        let mut body = Vec::with_capacity(rule.body.len());
        for lit in &rule.body {
            let (positive, mut probe) = (lit.positive(), Probe::Scan);
            let lit = match lit {
                ColLiteral::Pred { name, args, .. } => {
                    let (row, bare) = slots.row(args, dialect);
                    bound.resize(slots.0.len(), false);
                    let width = if bare { 1 } else { args.len() };
                    let ground = |k| column(&row, bare, k).ground(&|s| bound[s]);
                    let key = (0..width).position(ground);
                    probe = match (dialect, key) {
                        (_, None) => Probe::Scan,
                        _ if bare => Probe::Member,
                        (Dialect::Datalog, Some(k)) | (Dialect::Col, Some(k @ 0)) => {
                            Probe::Column(k)
                        }
                        (Dialect::Col, Some(_)) => Probe::Scan,
                    };
                    Lit::Pred {
                        pred: name.clone(),
                        row,
                        bare,
                        key,
                    }
                }
                ColLiteral::Member { elem, set, .. } => Lit::Member {
                    elem: slots.term(elem),
                    set: slots.term(set),
                },
                ColLiteral::Eq { left, right, .. } => Lit::Eq {
                    left: slots.term(left),
                    right: slots.term(right),
                },
            };
            bound.resize(slots.0.len(), false);
            let mut mark = |t: &Term| t.slots(&mut |s| bound[s] = true);
            match (&lit, positive) {
                (Lit::Pred { row, .. }, true) => mark(row),
                (Lit::Member { elem, .. }, true) => mark(elem),
                (Lit::Eq { left, right }, true) => {
                    mark(left);
                    mark(right);
                }
                _ => {}
            }
            body.push(Step {
                positive,
                probe,
                lit,
            });
        }
        let head = match &rule.head {
            ColHead::Pred { args, .. } => Head::Row(slots.row(args, dialect).0),
            ColHead::FuncMember { args, elem, .. } => Head::Member {
                args: slots.terms(args),
                elem: slots.term(elem),
            },
        };
        let names = slots.0;
        let types = names.iter().map(|n| rule.types.get(n).cloned()).collect();
        Plan {
            defines: rule.head_symbol().to_owned(),
            head,
            body,
            names,
            types,
        }
    }

    /// Compile a DATALOG¬ rule: lowered into COL's syntax, with rows
    /// stored and probed as DATALOG¬ does.
    pub fn datalog(rule: &DlRule) -> Plan {
        let term = |t: &DlTerm| match t {
            DlTerm::Var(v) => ColTerm::Var(v.clone()),
            DlTerm::Const(c) => ColTerm::Const(c.clone()),
        };
        let args = |a: &DlAtom| a.args.iter().map(term).collect();
        let body = rule.body.iter().map(|l| ColLiteral::Pred {
            name: l.atom.pred.clone(),
            args: args(&l.atom),
            positive: l.positive,
        });
        let col = ColRule {
            head: ColHead::Pred {
                name: rule.head.pred.clone(),
                args: args(&rule.head),
            },
            body: body.collect(),
            types: Default::default(),
        };
        Plan::compile(&col, Dialect::Datalog)
    }

    /// The symbol the rule defines: its head predicate or data function.
    pub fn defines(&self) -> &str {
        &self.defines
    }

    /// The empty binding.
    pub fn frame<'a>(&self) -> Frame<'a> {
        vec![None; self.names.len()]
    }

    /// The rule's class within a fixpoint whose rules define the symbols
    /// `run`, by the dependency discipline of [`crate::col::stratify`]:
    /// delta-able reads are exactly the positive dependencies (a positive
    /// literal over a run symbol), non-monotone reads exactly the strong
    /// ones (a negated literal over a run symbol, or a run function
    /// evaluated as a value anywhere in the rule).
    pub(crate) fn class(&self, run: &BTreeSet<&str>) -> RuleClass {
        let mut values = Vec::new();
        match &self.head {
            Head::Row(row) => row.applies(&mut values),
            Head::Member { args, elem } => {
                args.iter().for_each(|t| t.applies(&mut values));
                elem.applies(&mut values);
            }
        }
        let mut strong = false;
        let mut positions = Vec::new();
        for (i, step) in self.body.iter().enumerate() {
            step.applies(&mut values);
            if step.symbol().is_some_and(|s| run.contains(s)) {
                match step.positive {
                    true => positions.push(i),
                    false => strong = true,
                }
            }
        }
        if strong || values.iter().any(|f| run.contains(f)) {
            RuleClass::Snapshot
        } else if positions.is_empty() {
            RuleClass::Constant
        } else {
            RuleClass::Seminaive(positions)
        }
    }

    /// Add to `out` every (relation, column) index a firing probes in the
    /// settled state: each positive step's probe column, except at the
    /// delta position `delta`.
    pub(crate) fn probes(&self, delta: Option<usize>, out: &mut Probes) {
        for (i, step) in self.body.iter().enumerate() {
            if let (true, Probe::Column(col), Some(pred)) =
                (step.positive && delta != Some(i), step.probe, step.pred())
            {
                out.entry(pred.to_owned()).or_default().insert(col);
            }
        }
    }

    /// Fire the body of one unit against the settled `state`: each step
    /// in turn, the step at the delta position (if any) reading `delta`
    /// and every other one its settled relation, through the kept
    /// `indexes`. Work before the delta position is counted into
    /// `stats` only when `count_prefix` is set (one shard of a sharded
    /// delta counts it). Returns the body's bindings, charged to `brake`
    /// — or `None` once the brake stops the round.
    pub(crate) fn fire<'a>(
        &self,
        state: &'a impl State,
        indexes: &'a Indexes,
        delta: Option<(usize, DeltaIn<'a>)>,
        count_prefix: bool,
        brake: &ParBrake,
        stats: &mut EvalStats,
    ) -> Result<Option<Vec<Frame<'a>>>, Unbound> {
        let mut scratch = EvalStats::default();
        let mut frames = vec![self.frame()];
        for (i, step) in self.body.iter().enumerate() {
            if brake.should_stop() {
                return Ok(None);
            }
            let counted = count_prefix || delta.is_none_or(|(pos, _)| i >= pos);
            let st = if counted { &mut *stats } else { &mut scratch };
            let (rows, ids);
            let read = match delta.filter(|(pos, _)| *pos == i) {
                Some((_, DeltaIn::Rows(rel))) => {
                    rows = DeltaJoin::new(rel.iter(), step);
                    Read::Delta(&rows)
                }
                Some((_, DeltaIn::Ids(rel))) => {
                    ids = DeltaJoin::new(rel.iter().copied(), step);
                    Read::DeltaIds(&ids)
                }
                Some((_, DeltaIn::Funcs(graphs))) => Read::DeltaFuncs(graphs),
                None => {
                    let pred = step.pred();
                    let rel = pred.and_then(|p| state.rel(p)).unwrap_or(empty());
                    let index = match (step.probe, pred) {
                        (Probe::Column(col), Some(p)) => indexes.get(p).and_then(|c| c.get(&col)),
                        _ => None,
                    };
                    Read::Settled(rel, index)
                }
            };
            frames = self.join(i, frames, read, state.funcs(), st)?;
            if frames.is_empty() {
                break;
            }
        }
        let produced = frames.len() as u64;
        stats.tuples_derived += produced;
        Ok(brake.charge(produced).then_some(frames))
    }

    /// Extend every frame through body literal `i`; data functions read
    /// their settled graphs in `funcs`.
    pub fn join<'a>(
        &self,
        i: usize,
        frames: Vec<Frame<'a>>,
        read: Read<'_, 'a>,
        funcs: &'a FuncGraphs,
        stats: &mut EvalStats,
    ) -> Result<Vec<Frame<'a>>, Unbound> {
        let step = &self.body[i];
        let mut out = Vec::new();
        let joined = match &step.lit {
            Lit::Pred { row, bare, key, .. } => {
                let cols = (row, *bare, *key);
                frames
                    .into_iter()
                    .try_for_each(|f| self.join_pred(step, cols, f, read, funcs, stats, &mut out))
            }
            Lit::Member { elem, set } => {
                let graphs = match read {
                    Read::DeltaFuncs(graphs) => graphs,
                    _ => funcs,
                };
                let each =
                    |f| self.join_member(step.positive, elem, set, f, graphs, funcs, &mut out);
                frames.into_iter().try_for_each(each)
            }
            Lit::Eq { left, right } => frames
                .into_iter()
                .try_for_each(|f| self.join_eq(step.positive, left, right, f, funcs, &mut out)),
        };
        joined.map_err(|s| self.unbound(s, step.symbol().unwrap_or_default()))?;
        Ok(out)
    }

    /// Extend `f` through the predicate literal `step`, whose row pattern,
    /// bareness and delta key column are `cols`. A negated literal is a
    /// membership test in the settled state or an overlay.
    #[allow(clippy::too_many_arguments)]
    fn join_pred<'a>(
        &self,
        step: &Step,
        (row, bare, key): (&Term, bool, Option<usize>),
        f: Frame<'a>,
        read: Read<'_, 'a>,
        funcs: &'a FuncGraphs,
        stats: &mut EvalStats,
        out: &mut Vec<Frame<'a>>,
    ) -> Eval<()> {
        let col = |k: usize| column(row, bare, k);
        let bound = |s: usize| f[s].is_some();
        fn ids<'a, 't>(rows: &[ObjRef]) -> impl Iterator<Item = Src<'a, 't>> + '_ {
            rows.iter().map(|&r| Src::Id(r))
        }
        match read {
            _ if !step.positive => {
                let rel = match read {
                    Read::Settled(rel, _) => Overlay::plain(rel),
                    Read::Scan(rel) => rel,
                    _ => unreachable!("a negated literal never reads a delta"),
                };
                if !holds(row, &f, rel, funcs)? {
                    out.push(f);
                }
            }
            Read::Delta(join) => {
                let k = key.and_then(|k| col(k).eval(&f, funcs).ok());
                let rows = join.candidates(k.as_deref()).iter();
                self.extend_all(row, rows.map(|&r| Src::Kept(r)), &f, funcs, out)?;
            }
            Read::DeltaIds(join) => {
                let k = key.and_then(|k| col(k).id(&f, funcs).ok());
                self.extend_all(row, ids(join.candidates(k.as_ref())), &f, funcs, out)?;
            }
            Read::Settled(rel, index) => match (step.probe, index) {
                (Probe::Member, _) if row.ground(&bound) => {
                    stats.index_probes += 1;
                    if holds(row, &f, Overlay::plain(rel), funcs)? {
                        out.push(f);
                    }
                }
                (Probe::Column(c), Some(idx)) if col(c).ground(&bound) => {
                    stats.index_probes += 1;
                    let rows = idx.probe(c, col(c).id(&f, funcs)?);
                    self.extend_all(row, ids(rows), &f, funcs, out)?;
                }
                (probe, _) => {
                    if matches!(probe, Probe::Column(c) if col(c).ground(&bound)) {
                        stats.scan_fallbacks += 1;
                    }
                    self.extend_all(row, rel.iter().map(Src::Kept), &f, funcs, out)?;
                }
            },
            Read::Scan(rel) if row.ground(&bound) => {
                if holds(row, &f, rel, funcs)? {
                    out.push(f);
                }
            }
            Read::Scan(rel) => {
                // the first column bound under the frame, when the
                // overlay has an index to probe it in
                let items = match row {
                    Term::Tuple(ts) if !bare => ts.as_slice(),
                    _ => &[],
                };
                let c = items.iter().position(|t| t.ground(&bound));
                match rel.index.zip(c) {
                    Some((idx, c)) => {
                        let rows = idx.probe(c, items[c].id(&f, funcs)?);
                        self.extend_all(row, ids(rows), &f, funcs, out)?;
                    }
                    None => self.extend_all(row, rel.iter().map(Src::Kept), &f, funcs, out)?,
                }
            }
            Read::DeltaFuncs(_) => unreachable!("a predicate never reads function graphs"),
        }
        Ok(())
    }

    /// Extend `f` through a membership literal `elem ∈ set`; a function
    /// application `set` looks its value up in `graphs`, and a set that
    /// is not a set value satisfies neither polarity.
    #[allow(clippy::too_many_arguments)]
    fn join_member<'a>(
        &self,
        positive: bool,
        elem: &Term,
        set: &Term,
        f: Frame<'a>,
        graphs: &'a FuncGraphs,
        funcs: &'a FuncGraphs,
        out: &mut Vec<Frame<'a>>,
    ) -> Eval<()> {
        static NO_MEMBERS: BTreeSet<Value> = BTreeSet::new();
        let kept = match set {
            Term::Slot(s) => f[*s].as_ref().and_then(|b| b.kept()),
            _ => None,
        };
        let members: Cow<'a, BTreeSet<Value>> = match (set, kept) {
            (Term::Apply(func, args), _) => {
                let args = eval_all(args, &f, funcs)?;
                let set = graphs.get(func).and_then(|g| g.get(&args));
                Cow::Borrowed(set.unwrap_or(&NO_MEMBERS))
            }
            (_, Some(v)) => match v.as_set() {
                Some(s) => Cow::Borrowed(s),
                None => return Ok(()),
            },
            _ => match set.eval(&f, funcs)?.into_owned() {
                Value::Set(s) => Cow::Owned(s),
                _ => return Ok(()),
            },
        };
        match members {
            _ if !positive => {
                if !members.contains(&*elem.eval(&f, funcs)?) {
                    out.push(f);
                }
                Ok(())
            }
            Cow::Borrowed(set) => self.extend_all(elem, set.iter().map(Src::Kept), &f, funcs, out),
            Cow::Owned(set) => self.extend_all(elem, set.iter().map(Src::Temp), &f, funcs, out),
        }
    }

    /// Extend `f` through an (in)equality; a positive one with an unbound
    /// variable on one side assigns it the other side's value.
    fn join_eq<'a>(
        &self,
        positive: bool,
        left: &Term,
        right: &Term,
        mut f: Frame<'a>,
        funcs: &FuncGraphs,
        out: &mut Vec<Frame<'a>>,
    ) -> Eval<()> {
        let assign = match (left.eval(&f, funcs), right.eval(&f, funcs)) {
            (Ok(l), Ok(r)) if (l == r) != positive => return Ok(()),
            (Ok(_), Ok(_)) => None,
            (Err(s), Ok(v)) if positive => Some((left, s, v.into_owned())),
            (Ok(v), Err(s)) if positive => Some((right, s, v.into_owned())),
            (Err(s), _) | (_, Err(s)) => return Err(s),
        };
        if let Some((side, unbound, v)) = assign {
            let Term::Slot(s) = side else {
                return Err(unbound);
            };
            if self.types[*s].as_ref().is_some_and(|ty| !ty.contains(&v)) {
                return Ok(());
            }
            f[*s] = Some(Bound::owned(v));
        }
        out.push(f);
        Ok(())
    }

    /// Match each of `vs` against pattern `pat`, pushing `f` extended by
    /// each match.
    fn extend_all<'a, 't>(
        &self,
        pat: &Term,
        vs: impl Iterator<Item = Src<'a, 't>>,
        f: &Frame<'a>,
        funcs: &FuncGraphs,
        out: &mut Vec<Frame<'a>>,
    ) -> Eval<()> {
        for v in vs {
            // reads see `f` until the first new binding copies it
            let mut next = Cow::Borrowed(f);
            if self.bind(pat, v, f, &mut next, funcs)? {
                out.push(next.into_owned());
            }
        }
        Ok(())
    }

    /// One-way matching of a pattern against a value, extending `next`,
    /// the frame `base` the match started from; fresh variables respect
    /// their rtype annotations. Set literals and function applications are
    /// compared, not destructured: they must be ground.
    fn bind<'a>(
        &self,
        pat: &Term,
        v: Src<'a, '_>,
        base: &Frame<'a>,
        next: &mut Cow<'_, Frame<'a>>,
        funcs: &FuncGraphs,
    ) -> Eval<bool> {
        Ok(match pat {
            Term::Slot(s) => match &next[*s] {
                Some(b) => v.same(b),
                None if self.types[*s].as_ref().is_some_and(|ty| !v.fits(ty)) => false,
                None => {
                    next.to_mut()[*s] = Some(v.bound());
                    true
                }
            },
            Term::Const(c, id) => v.equals(c, || const_id(c, id)),
            Term::Tuple(ts) => {
                let Some(items) = v.items().filter(|items| items.len() == ts.len()) else {
                    return Ok(false);
                };
                // slots `base` leaves unbound go last: a candidate most
                // often fails at an item that binds nothing, before the
                // frame is copied
                for fresh in [false, true] {
                    for (k, t) in ts.iter().enumerate() {
                        let slot = matches!(t, Term::Slot(s) if base[*s].is_none());
                        if slot == fresh && !self.bind(t, items.get(k), base, next, funcs)? {
                            return Ok(false);
                        }
                    }
                }
                true
            }
            _ => {
                let w = pat.eval(next, funcs)?;
                v.equals(&w, || Pool::global().intern(&w))
            }
        })
    }

    fn unbound(&self, s: usize, at: &str) -> Unbound {
        Unbound {
            var: self.names[s].clone(),
            at: at.to_owned(),
        }
    }

    /// Unify the head with a stored row, given by its pool id: the
    /// binding of the head's variables, by id, when they match. The
    /// maintenance engine seeds a body evaluation with it to ask whether
    /// a deleted fact is still derived.
    pub fn seed<'a>(&self, row: ObjRef) -> Option<Frame<'a>> {
        let Head::Row(pat) = &self.head else {
            return None;
        };
        let mut out = Vec::new();
        let id = std::iter::once(Src::Id(row));
        self.extend_all(pat, id, &self.frame(), &NO_FUNCS, &mut out)
            .ok()?;
        out.pop()
    }

    /// The ground row of body literal `i` under `f`.
    pub fn body_row(&self, i: usize, f: &Frame<'_>) -> Result<Value, Unbound> {
        let step = &self.body[i];
        let Lit::Pred { row, .. } = &step.lit else {
            unreachable!("body_row is asked of predicate literals");
        };
        let at = step.symbol().unwrap_or_default();
        let v = row.eval(f, &NO_FUNCS).map_err(|s| self.unbound(s, at))?;
        Ok(v.into_owned())
    }

    /// The head row's pool id, built from the slots' cached ids without
    /// materializing the row.
    pub fn head_id(&self, f: &Frame<'_>) -> Result<ObjRef, Unbound> {
        let Head::Row(row) = &self.head else {
            unreachable!("head_id is asked of predicate heads");
        };
        row.id(f, &NO_FUNCS)
            .map_err(|s| self.unbound(s, &self.defines))
    }

    /// The head fact a body binding derives.
    pub(crate) fn head(&self, f: &Frame<'_>, funcs: &FuncGraphs) -> Result<HeadFact, Unbound> {
        let fact = match &self.head {
            Head::Row(row) => row.eval(f, funcs).map(|r| HeadFact::Row(r.into_owned())),
            Head::Member { args, elem } => eval_all(args, f, funcs)
                .and_then(|a| Ok(HeadFact::Member(a, elem.eval(f, funcs)?.into_owned()))),
        };
        fact.map_err(|s| self.unbound(s, &self.defines))
    }

    /// The instantiated supporting body facts of one firing — the parents
    /// of the head fact it derives. Predicate reads and data-function
    /// memberships are stored facts and appear here; plain memberships in
    /// a bound set value and (in)equalities are constraints on
    /// already-listed facts, so they do not.
    pub(crate) fn parents(
        &self,
        f: &Frame<'_>,
        funcs: &FuncGraphs,
    ) -> Result<Vec<String>, Unbound> {
        let mut out = Vec::new();
        for step in self.body.iter().filter(|s| s.positive) {
            let fact = match &step.lit {
                Lit::Pred { pred, row, .. } => {
                    row.eval(f, funcs).map(|row| render_pred_fact(pred, &row))
                }
                Lit::Member {
                    elem,
                    set: Term::Apply(func, args),
                } => eval_all(args, f, funcs)
                    .and_then(|args| Ok(render_func_fact(func, &args, &*elem.eval(f, funcs)?))),
                _ => continue,
            };
            out.push(fact.map_err(|s| self.unbound(s, step.symbol().unwrap_or_default()))?);
        }
        Ok(out)
    }
}

/// Whether the ground row `row` is in `rel`. The base relation is probed
/// by pool id when its id sidecar can answer; the row is materialized
/// when that cannot, or when an overlay must look it up among the
/// batch's rows.
fn holds(row: &Term, f: &Frame<'_>, rel: Overlay<'_>, funcs: &FuncGraphs) -> Eval<bool> {
    let in_base = rel.base.contains_ref(row.id(f, funcs)?);
    if let (Some(hit), None) = (in_base, rel.undo) {
        return Ok(hit);
    }
    let row = row.eval(f, funcs)?;
    let in_base = in_base.unwrap_or_else(|| rel.base.contains(&row));
    Ok(rel.shows(&row, in_base))
}

/// A value a pattern is matched against: borrowed for the whole firing
/// (a row, or a member of a kept set), a temporary the firing computed
/// (bound by copy), or a pool id (bound by id).
#[derive(Clone, Copy)]
enum Src<'a, 't> {
    Kept(&'a Value),
    Temp(&'t Value),
    Id(ObjRef),
}

/// The items of a tuple [`Src`].
enum Items<'a, 't> {
    Kept(&'a [Value]),
    Temp(&'t [Value]),
    Id(TupleItems),
}

impl<'a, 't> Items<'a, 't> {
    fn len(&self) -> usize {
        match self {
            Items::Kept(v) => v.len(),
            Items::Temp(v) => v.len(),
            Items::Id(v) => v.len(),
        }
    }

    fn get(&self, k: usize) -> Src<'a, 't> {
        match self {
            Items::Kept(v) => Src::Kept(&v[k]),
            Items::Temp(v) => Src::Temp(&v[k]),
            Items::Id(v) => Src::Id(v[k]),
        }
    }
}

impl<'a: 't, 't> Src<'a, 't> {
    /// The value, or the pool id that names it.
    fn get(self) -> Result<&'t Value, ObjRef> {
        match self {
            Src::Kept(v) => Ok(v),
            Src::Temp(v) => Ok(v),
            Src::Id(id) => Err(id),
        }
    }

    fn bound(self) -> Rc<Bound<'a>> {
        match self {
            Src::Kept(v) => Bound::borrowed(v),
            Src::Temp(v) => Bound::owned(v.clone()),
            Src::Id(id) => Bound::by_id(id),
        }
    }

    fn same(self, b: &Bound<'_>) -> bool {
        match self.get() {
            Ok(v) => b.value() == v,
            Err(id) => b.obj_ref() == id,
        }
    }

    /// Whether the source is `w`, whose pool id `id` gives.
    fn equals(self, w: &Value, id: impl FnOnce() -> ObjRef) -> bool {
        match self.get() {
            Ok(v) => v == w,
            Err(i) => id() == i,
        }
    }

    fn fits(self, ty: &RType) -> bool {
        match self.get() {
            Ok(v) => ty.contains(v),
            Err(id) => ty.contains(&Pool::global().resolve(id)),
        }
    }

    fn items(self) -> Option<Items<'a, 't>> {
        match self {
            Src::Kept(v) => v.as_tuple().map(Items::Kept),
            Src::Temp(v) => v.as_tuple().map(Items::Temp),
            Src::Id(id) => Pool::global().tuple_items(id).map(Items::Id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::col::eval::ColState;
    use uset_guard::{EngineId, Guard};
    use uset_object::{atom, set, tuple};

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
        let plan = Plan::datalog(rule);
        let step = &plan.body[pos];
        let ids: Vec<ObjRef> = rows.iter().map(|r| Pool::global().intern(r)).collect();
        let by_value = DeltaJoin::new(rows.iter(), step);
        let by_id = DeltaJoin::new(ids.iter().copied(), step);
        let mut stats = EvalStats::default();
        let mut join = |read| plan.join(pos, frames.to_vec(), read, &NO_FUNCS, &mut stats);
        let values = join(Read::Delta(&by_value)).unwrap();
        let ids = join(Read::DeltaIds(&by_id)).unwrap();
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
        let plan = Plan::datalog(&constant);
        assert_eq!(same_join(&constant, 0, &[plan.frame()], &rows), 2);
        // a repeated variable and no key: D(x, x)
        let repeated = q(
            vec![v("x")],
            vec![(true, DlAtom::new("D", vec![v("x"), v("x")]))],
        );
        let plan = Plan::datalog(&repeated);
        assert_eq!(same_join(&repeated, 0, &[plan.frame()], &rows), 2);
        // a key bound by an earlier literal, frames in scan order: S(x), D(x, y)
        let bound = q(
            vec![v("x"), v("y")],
            vec![
                (true, DlAtom::new("S", vec![v("x")])),
                (true, DlAtom::new("D", vec![v("x"), v("y")])),
            ],
        );
        let plan = Plan::datalog(&bound);
        let s = Instance::from_rows([[atom(3)], [atom(1)], [atom(4)]]);
        let mut stats = EvalStats::default();
        let read = Read::Scan(Overlay::plain(&s));
        let frames = plan
            .join(0, vec![plan.frame()], read, &NO_FUNCS, &mut stats)
            .unwrap();
        assert_eq!(same_join(&bound, 1, &frames, &rows), 4);
        // a key bound by id only, as a seed or an indexed row binds it
        let seeded = q(
            vec![v("x")],
            vec![(true, DlAtom::new("D", vec![v("x"), v("y")]))],
        );
        let plan = Plan::datalog(&seeded);
        let seed = |i: u64| plan.seed(Pool::global().intern(&tuple([atom(i)])));
        let frames: Vec<Frame<'_>> = [1, 3, 4].into_iter().filter_map(seed).collect();
        assert_eq!(same_join(&seeded, 0, &frames, &rows), 4);
    }

    /// Fire `plan`'s body against `state` three ways: through the settled
    /// indexes its probes name, with no index at hand (every probe column
    /// scans), and with each positive predicate literal in turn reading
    /// its whole relation as a hashed delta. All must bind the same frames
    /// in the same order, and every probe of the indexed firing must be a
    /// probe or a scan fallback of the unindexed one. Returns the frames.
    fn probes_match_scans(plan: &Plan, state: &ColState) -> Vec<Vec<Option<Value>>> {
        let brake = Guard::unlimited(EngineId::Col).cancel_brake();
        let mut keep = Probes::new();
        plan.probes(None, &mut keep);
        let mut indexes = Indexes::new();
        index(state, &keep, &mut indexes);
        let fire = |indexes: &Indexes, delta: Option<(usize, DeltaIn<'_>)>| {
            let mut stats = EvalStats::default();
            let frames = plan.fire(state, indexes, delta, true, &brake, &mut stats);
            (slots(&frames.unwrap().unwrap()), stats)
        };
        let (probed, by_index) = fire(&indexes, None);
        let (scanned, by_scan) = fire(&Indexes::new(), None);
        assert_eq!(probed, scanned, "{plan:?}");
        assert_eq!(by_index.scan_fallbacks, 0);
        let narrowed = by_scan.index_probes + by_scan.scan_fallbacks;
        assert_eq!(by_index.index_probes, narrowed, "{plan:?}");
        for (i, step) in plan.body.iter().enumerate() {
            if let (true, Some(rel)) = (step.positive, step.pred().and_then(|p| state.rel(p))) {
                let (hashed, _) = fire(&indexes, Some((i, DeltaIn::Rows(rel))));
                assert_eq!(hashed, probed, "{plan:?}: literal {i} read as a delta");
            }
        }
        probed
    }

    #[test]
    fn index_probes_match_scans() {
        // DATALOG¬ through the maintenance engine's reads: an overlay with
        // an index over every column against a plain scan. Binary and
        // ternary rows side by side, plus a unary row and a non-tuple
        // member: every probe meets rows of the wrong arity, the
        // non-tuple row is in no bucket, and the unary row is skipped by
        // the column-1 buckets
        let t = |args: Vec<DlTerm>| DlAtom::new("T", args);
        let row = |items: &[u64]| Value::Tuple(items.iter().map(|&a| atom(a)).collect());
        let rel = Instance::from_values([
            row(&[0, 1]),
            row(&[0, 2]),
            row(&[1, 1]),
            row(&[1, 3]),
            row(&[2, 2]),
            row(&[3, 2]),
            row(&[1, 4, 4]),
            row(&[1, 4, 5]),
            row(&[2, 5, 5]),
            row(&[1]),
            atom(1),
        ]);
        let idx = IdIndex::build(&rel);
        let rules = [
            // a constant: T(1, z)
            DlRule::new(
                DlAtom::new("P", vec![v("z")]),
                vec![(true, t(vec![DlTerm::Const(atom(1)), v("z")]))],
            ),
            // a repeated variable behind a bound column: T(y, z, z)
            DlRule::new(
                DlAtom::new("P", vec![v("x"), v("z")]),
                vec![
                    (true, t(vec![v("x"), v("y")])),
                    (true, t(vec![v("y"), v("z"), v("z")])),
                ],
            ),
            // column 1 bound only by the seed
            DlRule::new(
                DlAtom::new("P", vec![v("x")]),
                vec![(true, t(vec![v("y"), v("x")]))],
            ),
        ];
        let plans: Vec<Plan> = rules.iter().map(Plan::datalog).collect();
        let seeds = [None, None, Some(row(&[2]))];
        for (plan, seed) in plans.iter().zip(&seeds) {
            let start = match seed {
                Some(head) => plan.seed(Pool::global().intern(head)).unwrap(),
                None => plan.frame(),
            };
            let (mut probed, mut scanned) = (vec![start.clone()], vec![start]);
            for i in 0..plan.body.len() {
                let mut stats = EvalStats::default();
                let indexed = Read::Scan(Overlay::indexed(&rel, Some(&idx)));
                let plain = Read::Scan(Overlay::plain(&rel));
                probed = plan
                    .join(i, probed, indexed, &NO_FUNCS, &mut stats)
                    .unwrap();
                scanned = plan.join(i, scanned, plain, &NO_FUNCS, &mut stats).unwrap();
                assert_eq!(stats, EvalStats::default(), "overlay reads count nothing");
                assert_eq!(slots(&probed), slots(&scanned), "literal {i}");
            }
            assert!(!probed.is_empty());
            // the last literal had a bound column: its new slots hold ids
            let by_id = probed[0].iter().flatten().any(|b| b.kept().is_none());
            assert!(by_id, "the join probed the index");
        }

        // an old view with undo rows scans the pre-batch relation
        let added = BTreeSet::from([row(&[1, 3])]);
        let removed = BTreeSet::from([row(&[1, 6])]);
        let mut old = rel.clone();
        old.remove(&row(&[1, 3]));
        old.insert(row(&[1, 6]));
        let plan = &plans[0];
        let join = |read| {
            let frames = plan.join(
                0,
                vec![plan.frame()],
                read,
                &NO_FUNCS,
                &mut EvalStats::default(),
            );
            slots(&frames.unwrap())
        };
        let over = join(Read::Scan(Overlay::undoing(&rel, &added, &removed)));
        assert_eq!(over, join(Read::Scan(Overlay::plain(&old))));
        assert_eq!(over.len(), 2, "z ∈ {{1, 6}}: (1,3) hidden, (1,6) shown");

        // COL-shaped rules through the round engines' firing: the settled
        // state's column-0 index against scans and hashed deltas
        let c = |n: &str| ColTerm::var(n);
        let pair = |a: u64, b: u64| tuple([atom(a), atom(b)]);
        let mut state = ColState::default();
        let mut put = |name: &str, rows: Vec<Value>| {
            state.preds.insert(name.into(), Instance::from_values(rows));
        };
        put("S", vec![pair(1, 2), pair(2, 1), pair(1, 1)]);
        put(
            "R",
            vec![
                tuple([pair(1, 2), atom(3)]),
                tuple([pair(1, 2), atom(4)]),
                tuple([pair(2, 1), atom(3)]),
                tuple([set([atom(1)]), atom(5)]),
                tuple([set([atom(1), atom(2)]), atom(6)]),
                tuple([set([atom(1), atom(2)]), atom(7)]),
                tuple([atom(1), set([atom(9)])]),
                tuple([atom(1), atom(9)]),
                tuple([atom(2), atom(1)]),
                tuple([atom(1), atom(3), atom(3)]),
                tuple([atom(1), atom(4), atom(5)]),
                tuple([atom(2), atom(4), atom(4)]),
                tuple([pair(1, 2)]),
                atom(1),
            ],
        );
        put("U", vec![atom(1), atom(3), pair(1, 2), set([atom(1)])]);
        let f = BTreeMap::from([
            (vec![atom(1)], BTreeSet::from([atom(1)])),
            (vec![atom(2)], BTreeSet::from([atom(1), atom(2)])),
        ]);
        state.funcs.insert("F".into(), f);
        let s_xy = || ColLiteral::pred("S", vec![c("x"), c("y")]);
        let r = |args: Vec<ColTerm>| ColLiteral::pred("R", args);
        let rule = |body: Vec<ColLiteral>| ColRule::pred("P", vec![c("x")], body);
        let cases = [
            // a nested-tuple first argument
            (
                rule(vec![
                    s_xy(),
                    r(vec![ColTerm::Tuple(vec![c("x"), c("y")]), c("z")]),
                ]),
                3,
            ),
            // a set-literal key
            (
                rule(vec![
                    s_xy(),
                    r(vec![ColTerm::SetLit(vec![c("x"), c("y")]), c("z")]),
                ]),
                5,
            ),
            // a function-application key
            (
                rule(vec![
                    s_xy(),
                    r(vec![ColTerm::Apply("F".into(), vec![c("x")]), c("z")]),
                ]),
                4,
            ),
            // an rtype-annotated fresh slot: z : U skips the set
            (
                rule(vec![s_xy(), r(vec![c("x"), c("z")])]).with_type("z", RType::Atomic),
                3,
            ),
            // a repeated variable
            (rule(vec![s_xy(), r(vec![c("x"), c("z"), c("z")])]), 3),
            // a key on column 1 only: probed nowhere, hashed as a delta
            (rule(vec![s_xy(), r(vec![c("z"), c("y")])]), 2),
            // a unary bare-object relation, ground: one membership test
            (rule(vec![s_xy(), ColLiteral::pred("U", vec![c("x")])]), 2),
            // and fresh: a scan binding bare objects, then destructuring one
            (rule(vec![ColLiteral::pred("U", vec![c("x")])]), 4),
            (
                rule(vec![ColLiteral::pred(
                    "U",
                    vec![ColTerm::Tuple(vec![c("x"), c("y")])],
                )]),
                1,
            ),
        ];
        for (rule, n) in cases {
            let plan = Plan::compile(&rule, Dialect::Col);
            assert_eq!(probes_match_scans(&plan, &state).len(), n, "{rule:?}");
        }
    }
}
