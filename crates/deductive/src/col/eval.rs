//! Evaluation of COL programs: stratified and inflationary semantics.
//!
//! Both semantics share a round-based engine with two interchangeable
//! strategies ([`ColStrategy`]):
//!
//! * **naive** — every rule fires against the pre-round state each round;
//!   the reference implementation.
//! * **semi-naive** (the default) — each rule is classified once per
//!   engine run: rules reading no symbol defined in the run fire only in
//!   the first round; rules whose only same-run reads are monotone
//!   (positive predicate literals and positive memberships in a data
//!   function being built) fire once per such position with that literal
//!   restricted to the previous round's delta; rules with a non-monotone
//!   same-run read (negation, or a function value evaluated as a term)
//!   fall back to full re-evaluation. Under stratified semantics that
//!   last class never arises — stratification lifts strong dependencies
//!   to higher strata — so it only appears under inflationary semantics,
//!   where full re-evaluation against the pre-round state is exactly the
//!   naive semantics of those rules.
//!
//! Rounds are two-phase — derive everything from the settled pre-round
//! state, then insert — so neither strategy ever clones the state. The
//! round itself is the driver shared with DATALOG¬ (`crate::fixpoint`);
//! this module supplies COL's rule classification, firing, delta
//! sharding, fact insertion, and checkpoint codec.
//! Positive predicate joins with a ground first argument probe a shared
//! first-column hash index ([`uset_object::IndexSet`]) instead of
//! scanning, and every engine threads an [`EvalStats`] of work counters.
//!
//! Untyped COL programs can diverge — e.g. the chain rules of Theorem 5.1
//! without a guard — so the engine runs under the shared [`uset_guard`]
//! layer: a round budget and a total-fact budget, the latter charged at
//! every admitted fact (a single round can derive quadratically many
//! facts, so checking between rounds would let the state overshoot
//! arbitrarily), plus cooperative cancellation and wall-clock deadlines.
//! Exceeding any budget reports [`ColEvalError::Exhausted`] — the
//! observable stand-in for the paper's undefined output `?` — carrying the
//! state at the last completed round (a round's facts reach the state only
//! when it commits, so the snapshot is always a state both strategies
//! agree on).

use crate::col::ast::{ColHead, ColLiteral, ColProgram, ColRule, ColTerm};
use crate::col::stratify::stratify;
use crate::plan::{slot_of, Bound, DeltaJoin, Frame};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use uset_guard::ckpt;
use uset_guard::rounds::{
    self, Derived, Engine, Mark, OutOfRounds, Probes, Resume, RuleClass, Unit,
};
use uset_guard::{Budget, EngineId, Exhausted, Governor, ParBrake};
use uset_object::{Database, EvalStats, IndexSet, Instance, Pool, RType, Value};
use uset_par::shard_of;

/// Evaluation state: predicate extents and data-function graphs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColState {
    /// Predicate name → extent. Unary predicates hold bare objects; n-ary
    /// predicates (n ≥ 2) hold n-tuples.
    pub preds: BTreeMap<String, Instance>,
    /// Function symbol → argument tuple → set value.
    pub funcs: BTreeMap<String, BTreeMap<Vec<Value>, BTreeSet<Value>>>,
}

impl ColState {
    /// Initialize from a database (all relations become predicates).
    pub fn from_database(db: &Database) -> ColState {
        ColState {
            preds: db.iter().map(|(n, i)| (n.to_owned(), i.clone())).collect(),
            funcs: BTreeMap::new(),
        }
    }

    /// A predicate's extent (empty if absent).
    pub fn pred(&self, name: &str) -> Instance {
        self.preds.get(name).cloned().unwrap_or_default()
    }

    /// A function's value at given arguments (empty set if absent).
    pub fn func(&self, name: &str, args: &[Value]) -> BTreeSet<Value> {
        self.funcs
            .get(name)
            .and_then(|g| g.get(args))
            .cloned()
            .unwrap_or_default()
    }

    /// Total number of stored facts (for the size budget).
    pub fn total_facts(&self) -> usize {
        let p: usize = self.preds.values().map(Instance::len).sum();
        let f: usize = self
            .funcs
            .values()
            .flat_map(|g| g.values())
            .map(BTreeSet::len)
            .sum();
        p + f
    }

    /// Insert one row into a predicate extent; true if newly added.
    /// Duplicates (the common case inside a fixpoint) cost one lookup and
    /// no allocation.
    pub fn insert_pred_row(&mut self, name: &str, row: &Value) -> bool {
        if let Some(rel) = self.preds.get_mut(name) {
            return rel.insert_ref(row);
        }
        self.preds
            .insert(name.to_owned(), Instance::from_values([row.clone()]));
        true
    }

    /// Insert one element into a data-function value; true if newly added.
    pub fn insert_func_member(&mut self, func: &str, args: &[Value], elem: &Value) -> bool {
        let graph = self.funcs.entry(func.to_owned()).or_default();
        if let Some(slot) = graph.get_mut(args) {
            if slot.contains(elem) {
                return false;
            }
            return slot.insert(elem.clone());
        }
        graph.insert(args.to_vec(), BTreeSet::from([elem.clone()]));
        true
    }
}

/// The COL engine's exhaustion report: the snapshot is the full
/// [`ColState`] at the last completed round.
pub type ColExhausted = Exhausted<ColState>;

/// Evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColEvalError {
    /// A resource budget was exhausted or the run was cancelled (possible
    /// divergence — the paper's `?`); carries the last consistent state.
    Exhausted(Box<ColExhausted>),
    /// A term that had to be ground still contained unbound variables.
    NonGround(String),
    /// The program is not stratifiable (stratified semantics only).
    NotStratifiable(String),
}

impl ColEvalError {
    /// The exhaustion report, if this is a budget/cancellation error.
    pub fn exhausted(&self) -> Option<&ColExhausted> {
        match self {
            ColEvalError::Exhausted(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for ColEvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColEvalError::Exhausted(e) => write!(f, "COL evaluation exhausted: {e}"),
            ColEvalError::NonGround(v) => {
                write!(f, "variable {v} unbound where a ground term was required")
            }
            ColEvalError::NotStratifiable(s) => {
                write!(f, "program not stratifiable (at {s})")
            }
        }
    }
}

impl std::error::Error for ColEvalError {}

/// Budgets for COL evaluation — a thin shim over the shared
/// [`uset_guard`] layer; new code should pass a [`Governor`] to the
/// `_governed` entry points.
#[derive(Clone, Copy, Debug)]
pub struct ColConfig {
    /// Maximum fixpoint rounds per engine run (per stratum under
    /// stratified semantics, matching the historical behaviour; a
    /// [`Budget::max_steps`] limit instead bounds rounds across strata).
    pub max_rounds: u64,
    /// Maximum total facts across the state, enforced at every insertion.
    pub max_facts: usize,
}

impl Default for ColConfig {
    fn default() -> Self {
        ColConfig {
            max_rounds: 100_000,
            max_facts: 1_000_000,
        }
    }
}

impl ColConfig {
    /// The equivalent shared-layer budget (`max_facts` → facts;
    /// `max_rounds` stays a per-run convergence bound in the config).
    pub fn budget(&self) -> Budget {
        Budget::unlimited().with_facts(self.max_facts)
    }
}

/// Which fixpoint strategy the engine runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColStrategy {
    /// Fire every rule fully every round (reference implementation).
    Naive,
    /// Classify rules and restrict monotone recursive reads to the
    /// previous round's delta.
    Seminaive,
}

/// A COL term compiled to slots.
#[derive(Clone, Debug)]
enum Term {
    Slot(usize),
    Const(Value),
    Tuple(Vec<Term>),
    SetLit(Vec<Term>),
    Apply(String, Vec<Term>),
}

impl Term {
    /// The slots occurring in the term.
    fn slots(&self) -> Vec<usize> {
        match self {
            Term::Slot(s) => vec![*s],
            Term::Const(_) => Vec::new(),
            Term::Tuple(ts) | Term::SetLit(ts) | Term::Apply(_, ts) => {
                ts.iter().flat_map(Term::slots).collect()
            }
        }
    }
}

/// A compiled COL body literal.
#[derive(Clone, Debug)]
enum Step {
    /// `key` is the first column ground when the literal is reached — the
    /// column a delta read is hashed on.
    Pred {
        name: String,
        args: Vec<Term>,
        positive: bool,
        key: Option<usize>,
    },
    Member {
        elem: Term,
        set: Term,
        positive: bool,
    },
    Eq {
        left: Term,
        right: Term,
        positive: bool,
    },
}

/// A compiled COL rule head.
#[derive(Clone, Debug)]
enum HeadPlan {
    Pred {
        name: String,
        args: Vec<Term>,
    },
    Func {
        func: String,
        args: Vec<Term>,
        elem: Term,
    },
}

/// A value a pattern is matched against: borrowed from the settled state
/// or the delta for the whole firing, or a temporary the firing computed
/// (bound by copy).
#[derive(Clone, Copy)]
enum Src<'a, 't> {
    Kept(&'a Value),
    Temp(&'t Value),
}

impl<'a, 't> Src<'a, 't> {
    fn value(&self) -> &Value {
        match *self {
            Src::Kept(v) => v,
            Src::Temp(v) => v,
        }
    }

    /// Element `k` of a tuple value (the caller checked the arity).
    fn item(self, k: usize) -> Src<'a, 't> {
        match self {
            Src::Kept(v) => Src::Kept(&v.as_tuple().expect("tuple")[k]),
            Src::Temp(v) => Src::Temp(&v.as_tuple().expect("tuple")[k]),
        }
    }

    fn bound(self) -> Rc<Bound<'a>> {
        match self {
            Src::Kept(v) => Bound::borrowed(v),
            Src::Temp(v) => Bound::owned(v.clone()),
        }
    }
}

/// The members a membership literal ranges over.
enum Members<'a> {
    Kept(&'a BTreeSet<Value>),
    Temp(BTreeSet<Value>),
}

/// A COL rule compiled to slots: its literals over slot-numbered terms,
/// each variable's rtype annotation by slot, and the first-column
/// indexes its firings can probe.
struct ColPlan {
    /// The source rule: classification, delta sharding and error text.
    rule: ColRule,
    body: Vec<Step>,
    head: HeadPlan,
    /// Slot → variable name, for errors.
    names: Vec<String>,
    /// Slot → rtype annotation.
    types: Vec<Option<RType>>,
    /// Body positions, with their predicates, whose first-column index a
    /// firing can probe: an n-ary positive literal whose first argument
    /// uses only variables some earlier positive literal binds.
    indexed: Vec<(usize, String)>,
}

impl ColPlan {
    fn compile(rule: &ColRule) -> ColPlan {
        let mut names: Vec<String> = Vec::new();
        fn term(t: &ColTerm, names: &mut Vec<String>) -> Term {
            let terms = |ts: &[ColTerm], names: &mut Vec<String>| -> Vec<Term> {
                ts.iter().map(|t| term(t, names)).collect()
            };
            match t {
                ColTerm::Var(v) => Term::Slot(slot_of(names, v)),
                ColTerm::Const(c) => Term::Const(c.clone()),
                ColTerm::Tuple(ts) => Term::Tuple(terms(ts, names)),
                ColTerm::SetLit(ts) => Term::SetLit(terms(ts, names)),
                ColTerm::Apply(f, ts) => Term::Apply(f.clone(), terms(ts, names)),
            }
        }
        let mut bound: Vec<bool> = Vec::new();
        let mut indexed = Vec::new();
        let mut body = Vec::with_capacity(rule.body.len());
        for lit in &rule.body {
            let step = match lit {
                ColLiteral::Pred {
                    name,
                    args,
                    positive,
                } => {
                    let args: Vec<Term> = args.iter().map(|t| term(t, &mut names)).collect();
                    bound.resize(names.len(), false);
                    let key = args
                        .iter()
                        .position(|t| t.slots().iter().all(|&s| bound[s]));
                    if *positive && args.len() > 1 && key == Some(0) {
                        indexed.push((body.len(), name.clone()));
                    }
                    Step::Pred {
                        name: name.clone(),
                        args,
                        positive: *positive,
                        key,
                    }
                }
                ColLiteral::Member {
                    elem,
                    set,
                    positive,
                } => Step::Member {
                    elem: term(elem, &mut names),
                    set: term(set, &mut names),
                    positive: *positive,
                },
                ColLiteral::Eq {
                    left,
                    right,
                    positive,
                } => Step::Eq {
                    left: term(left, &mut names),
                    right: term(right, &mut names),
                    positive: *positive,
                },
            };
            bound.resize(names.len(), false);
            let binds: Vec<&Term> = match &step {
                Step::Pred {
                    args,
                    positive: true,
                    ..
                } => args.iter().collect(),
                Step::Member {
                    elem,
                    positive: true,
                    ..
                } => vec![elem],
                Step::Eq {
                    left,
                    right,
                    positive: true,
                } => vec![left, right],
                _ => Vec::new(),
            };
            binds
                .iter()
                .flat_map(|t| t.slots())
                .for_each(|s| bound[s] = true);
            body.push(step);
        }
        let head = match &rule.head {
            ColHead::Pred { name, args } => HeadPlan::Pred {
                name: name.clone(),
                args: args.iter().map(|t| term(t, &mut names)).collect(),
            },
            ColHead::FuncMember { func, args, elem } => HeadPlan::Func {
                func: func.clone(),
                args: args.iter().map(|t| term(t, &mut names)).collect(),
                elem: term(elem, &mut names),
            },
        };
        let types = names.iter().map(|n| rule.types.get(n).cloned()).collect();
        ColPlan {
            rule: rule.clone(),
            body,
            head,
            names,
            types,
            indexed,
        }
    }

    /// The empty binding.
    fn frame<'a>(&self) -> Frame<'a> {
        vec![None; self.names.len()]
    }

    /// Evaluate a term that must be ground under `f`.
    fn eval<'f>(
        &'f self,
        t: &'f Term,
        f: &'f Frame<'_>,
        state: &ColState,
    ) -> Result<Cow<'f, Value>, ColEvalError> {
        let all = |ts| self.eval_all(ts, f, state);
        Ok(match t {
            Term::Slot(s) => Cow::Borrowed(
                f[*s]
                    .as_ref()
                    .ok_or_else(|| ColEvalError::NonGround(self.names[*s].clone()))?
                    .value(),
            ),
            Term::Const(c) => Cow::Borrowed(c),
            Term::Tuple(ts) => Cow::Owned(Value::Tuple(all(ts)?)),
            Term::SetLit(ts) => Cow::Owned(Value::Set(all(ts)?.into_iter().collect())),
            Term::Apply(func, ts) => Cow::Owned(Value::Set(state.func(func, &all(ts)?))),
        })
    }

    /// Ground a list of terms.
    fn eval_all(
        &self,
        ts: &[Term],
        f: &Frame<'_>,
        state: &ColState,
    ) -> Result<Vec<Value>, ColEvalError> {
        ts.iter()
            .map(|t| self.eval(t, f, state).map(Cow::into_owned))
            .collect()
    }

    /// One-way matching of a pattern against a value, extending `f`;
    /// fresh variables respect their rtype annotations. `SetLit`/`Apply`
    /// sub-patterns must be ground.
    fn bind<'a>(
        &self,
        pat: &Term,
        v: Src<'a, '_>,
        f: &mut Frame<'a>,
        state: &ColState,
    ) -> Result<bool, ColEvalError> {
        match pat {
            Term::Slot(s) => match &f[*s] {
                Some(b) => Ok(b.value() == v.value()),
                None => {
                    if let Some(ty) = &self.types[*s] {
                        if !ty.contains(v.value()) {
                            return Ok(false);
                        }
                    }
                    f[*s] = Some(v.bound());
                    Ok(true)
                }
            },
            Term::Const(c) => Ok(c == v.value()),
            Term::Tuple(ts) => self.bind_items(ts, v, f, state),
            // set literals and function applications are compared, not
            // destructured: they must be ground at this point
            Term::SetLit(_) | Term::Apply(..) => Ok(*self.eval(pat, f, state)? == *v.value()),
        }
    }

    /// Match a tuple value item by item against `ts`.
    fn bind_items<'a>(
        &self,
        ts: &[Term],
        v: Src<'a, '_>,
        f: &mut Frame<'a>,
        state: &ColState,
    ) -> Result<bool, ColEvalError> {
        match v.value().as_tuple() {
            Some(items) if items.len() == ts.len() => {
                for (k, t) in ts.iter().enumerate() {
                    if !self.bind(t, v.item(k), f, state)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Match one predicate row against the literal's arguments, pushing
    /// the extended frame on success. Unary predicates hold bare objects,
    /// n-ary predicates hold n-tuples.
    fn extend_row<'a>(
        &self,
        args: &[Term],
        row: &'a Value,
        f: &Frame<'a>,
        state: &ColState,
        out: &mut Vec<Frame<'a>>,
    ) -> Result<(), ColEvalError> {
        let mut next = f.clone();
        let matched = match args {
            [arg] => self.bind(arg, Src::Kept(row), &mut next, state)?,
            _ => self.bind_items(args, Src::Kept(row), &mut next, state)?,
        };
        if matched {
            out.push(next);
        }
        Ok(())
    }

    /// The members of a membership literal's set under `f`: a delta read
    /// of a function application looks the set up in the delta; a
    /// non-set value yields `None` (the literal is simply unsatisfied).
    fn members<'a>(
        &self,
        set: &Term,
        f: &Frame<'a>,
        state: &'a ColState,
        delta: Option<&'a ColDelta>,
    ) -> Result<Option<Members<'a>>, ColEvalError> {
        if let Term::Apply(func, args) = set {
            let args = self.eval_all(args, f, state)?;
            let graphs = delta.map_or(&state.funcs, |d| &d.funcs);
            return Ok(Some(match graphs.get(func).and_then(|g| g.get(&args)) {
                Some(s) => Members::Kept(s),
                None => Members::Temp(BTreeSet::new()),
            }));
        }
        if let Term::Slot(s) = set {
            if let Some(v) = f[*s].as_ref().and_then(|b| b.kept()) {
                return Ok(v.as_set().map(Members::Kept));
            }
        }
        Ok(match self.eval(set, f, state)?.into_owned() {
            Value::Set(s) => Some(Members::Temp(s)),
            _ => None,
        })
    }

    /// Extend every frame through body literal `i`. With `delta` set,
    /// this literal's top-level symbol (a positive predicate, or a
    /// positive membership in a function application) reads the previous
    /// round's delta instead of the settled state — the semi-naive
    /// rewriting — and an n-ary predicate joins the delta through a hash
    /// on its key column. Everything else in the literal still reads the
    /// state.
    #[allow(clippy::too_many_arguments)]
    fn join<'a>(
        &self,
        i: usize,
        frames: Vec<Frame<'a>>,
        state: &'a ColState,
        delta: Option<&'a ColDelta>,
        indexes: &'a IndexSet,
        empty: &'a Instance,
        stats: &mut EvalStats,
    ) -> Result<Vec<Frame<'a>>, ColEvalError> {
        let mut out = Vec::new();
        match &self.body[i] {
            Step::Pred {
                name,
                args,
                positive,
                key,
            } => {
                let rel: &'a Instance = match delta {
                    Some(d) => d.preds.get(name).unwrap_or(empty),
                    None => state.preds.get(name).unwrap_or(empty),
                };
                if !*positive {
                    for f in frames {
                        let ground = self.eval_all(args, &f, state)?;
                        let present = if ground.len() == 1 {
                            rel.contains(&ground[0])
                        } else {
                            // with the relation's id sidecar current,
                            // probe by ObjRef instead of building the
                            // tuple just to hash it
                            match negated_tuple_probe(rel, &ground) {
                                Some(hit) => hit,
                                None => rel.contains(&Value::Tuple(ground)),
                            }
                        };
                        if !present {
                            out.push(f);
                        }
                    }
                    return Ok(out);
                }
                if args.len() == 1 {
                    for f in frames {
                        // a fully ground unary pattern is a membership
                        // test, not a scan (sound because rtype checks
                        // only guard fresh variable bindings); only reads
                        // of the settled state count as probes — a delta
                        // lookup is by-design cheap, not a replaced scan
                        match self.eval(&args[0], &f, state).map(|v| rel.contains(&v)) {
                            Ok(hit) => {
                                if delta.is_none() {
                                    stats.index_probes += 1;
                                }
                                if hit {
                                    out.push(f);
                                }
                            }
                            Err(_) => {
                                for row in rel.iter() {
                                    self.extend_row(args, row, &f, state, &mut out)?;
                                }
                            }
                        }
                    }
                    return Ok(out);
                }
                if delta.is_some() {
                    let join = DeltaJoin::new(rel.iter(), *key);
                    for f in frames {
                        let k = match key {
                            Some(k) => self.eval(&args[*k], &f, state).ok(),
                            None => None,
                        };
                        for &row in join.candidates(k.as_deref()) {
                            self.extend_row(args, row, &f, state, &mut out)?;
                        }
                    }
                    return Ok(out);
                }
                // n-ary with ground first argument: probe the first-column
                // index over the settled state
                for f in frames {
                    let key = self.eval(&args[0], &f, state).ok();
                    let index = key.as_ref().and(indexes.get(name, 0, rel.version()));
                    if let (Some(k), Some(idx)) = (&key, index) {
                        stats.index_probes += 1;
                        for row in idx.probe(k) {
                            self.extend_row(args, row, &f, state, &mut out)?;
                        }
                        continue;
                    }
                    // a ground key without a usable index (a cache without
                    // this relation) is a real missed-index scan
                    if key.is_some() {
                        stats.scan_fallbacks += 1;
                    }
                    for row in rel.iter() {
                        self.extend_row(args, row, &f, state, &mut out)?;
                    }
                }
            }
            Step::Member {
                elem,
                set,
                positive,
            } => {
                for f in frames {
                    let Some(members) = self.members(set, &f, state, delta)? else {
                        continue;
                    };
                    if *positive {
                        let mut each = |m: Src<'a, '_>| -> Result<(), ColEvalError> {
                            let mut next = f.clone();
                            if self.bind(elem, m, &mut next, state)? {
                                out.push(next);
                            }
                            Ok(())
                        };
                        match &members {
                            Members::Kept(s) => s.iter().try_for_each(|m| each(Src::Kept(m)))?,
                            Members::Temp(s) => s.iter().try_for_each(|m| each(Src::Temp(m)))?,
                        }
                    } else {
                        let set = match &members {
                            Members::Kept(s) => *s,
                            Members::Temp(s) => s,
                        };
                        if !set.contains(&*self.eval(elem, &f, state)?) {
                            out.push(f);
                        }
                    }
                }
            }
            Step::Eq {
                left,
                right,
                positive,
            } => {
                let ColLiteral::Eq {
                    left: left_src,
                    right: right_src,
                    ..
                } = &self.rule.body[i]
                else {
                    unreachable!("an Eq step compiles an Eq literal");
                };
                for f in frames {
                    // allow an unbound variable on one side to be assigned
                    let assign = match (self.eval(left, &f, state), self.eval(right, &f, state)) {
                        (Ok(l), Ok(r)) => {
                            if (l == r) != *positive {
                                continue;
                            }
                            None
                        }
                        (Err(_), Ok(r)) if *positive => Some((left, left_src, r.into_owned())),
                        (Ok(l), Err(_)) if *positive => Some((right, right_src, l.into_owned())),
                        (Err(e), _) | (_, Err(e)) => return Err(e),
                    };
                    let Some((side, src, v)) = assign else {
                        out.push(f);
                        continue;
                    };
                    let Term::Slot(s) = side else {
                        return Err(ColEvalError::NonGround(format!("{src:?}")));
                    };
                    if self.types[*s].as_ref().is_some_and(|ty| !ty.contains(&v)) {
                        continue;
                    }
                    let mut next = f.clone();
                    next[*s] = Some(Bound::owned(v));
                    out.push(next);
                }
            }
        }
        Ok(out)
    }

    /// The stored row of a predicate atom: a bare object when unary, a
    /// tuple otherwise.
    fn pred_row(
        &self,
        args: &[Term],
        f: &Frame<'_>,
        state: &ColState,
    ) -> Result<Value, ColEvalError> {
        let mut ground = self.eval_all(args, f, state)?;
        Ok(if ground.len() == 1 {
            ground.remove(0)
        } else {
            Value::Tuple(ground)
        })
    }

    /// The head fact under a final binding.
    fn head_fact(&self, f: &Frame<'_>, state: &ColState) -> Result<ColFact, ColEvalError> {
        Ok(match &self.head {
            HeadPlan::Pred { name, args } => ColFact::Pred {
                name: name.clone(),
                row: self.pred_row(args, f, state)?,
            },
            HeadPlan::Func { func, args, elem } => ColFact::Func {
                func: func.clone(),
                args: self.eval_all(args, f, state)?,
                elem: self.eval(elem, f, state)?.into_owned(),
            },
        })
    }

    /// The instantiated supporting body facts of one firing — the parents
    /// of the head fact it derives. Predicate reads and data-function
    /// memberships are stored facts and appear here; plain memberships in
    /// a bound set value and (in)equalities are constraints on
    /// already-listed facts, so they do not.
    fn parents(&self, f: &Frame<'_>, state: &ColState) -> Result<Vec<String>, ColEvalError> {
        let mut out = Vec::new();
        for step in &self.body {
            match step {
                Step::Pred {
                    name,
                    args,
                    positive: true,
                    ..
                } => out.push(render_pred_fact(name, &self.pred_row(args, f, state)?)),
                Step::Member {
                    elem,
                    set: Term::Apply(func, args),
                    positive: true,
                } => {
                    let e = self.eval(elem, f, state)?;
                    let fa = self.eval_all(args, f, state)?;
                    out.push(render_func_fact(func, &fa, &e));
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

/// Probe `[ground…] ∈ rel` for a negated n-ary literal without
/// materializing the probe tuple: with the relation's id sidecar current,
/// the ground argument values intern to an [`ObjRef`] and membership is a
/// hash-set lookup. `None` means the sidecar cannot answer and the caller
/// must build the tuple.
///
/// [`ObjRef`]: uset_object::ObjRef
fn negated_tuple_probe(rel: &Instance, ground: &[Value]) -> Option<bool> {
    rel.contains_ref(Pool::global().intern_tuple_slice(ground))
}

/// Per-round delta: facts newly inserted in the previous round.
#[derive(Clone, Debug, Default)]
struct ColDelta {
    preds: BTreeMap<String, Instance>,
    funcs: BTreeMap<String, BTreeMap<Vec<Value>, BTreeSet<Value>>>,
}

/// Engine label carried by every COL trace event.
const ENGINE: &str = "col";

/// Canonical rendering of a predicate fact for provenance events and the
/// `why(fact)` API: `name(row)` for unary predicates (which store bare
/// objects), `name` followed by the stored tuple otherwise.
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

/// One derived fact: a predicate row or a data-function membership.
#[derive(Clone, PartialEq, Eq, Hash)]
enum ColFact {
    Pred {
        name: String,
        row: Value,
    },
    Func {
        func: String,
        args: Vec<Value>,
        elem: Value,
    },
}

/// COL under the shared round driver: rules fire against the settled
/// [`ColState`], and a rule's delta position reads the previous round's
/// newly inserted predicate rows or data-function members.
struct Col {
    strategy: ColStrategy,
    max_rounds: u64,
}

impl Col {
    fn new(config: &ColConfig, strategy: ColStrategy) -> Col {
        Col {
            strategy,
            max_rounds: config.max_rounds,
        }
    }
}

impl Engine for Col {
    type Rule = ColPlan;
    type State = ColState;
    type Delta = ColDelta;
    type Indexes = IndexSet;
    type Fact = ColFact;
    type Error = ColEvalError;

    const ID: EngineId = EngineId::Col;
    const TICK_PER_RULE: bool = true;

    fn max_rounds(&self) -> u64 {
        self.max_rounds
    }

    fn exhausted(ex: ColExhausted) -> ColEvalError {
        ColEvalError::Exhausted(Box::new(ex))
    }

    fn facts(state: &ColState) -> usize {
        state.total_facts()
    }

    fn classify(&self, rules: &[(usize, &ColPlan)]) -> Vec<RuleClass> {
        match self.strategy {
            ColStrategy::Naive => vec![RuleClass::Snapshot; rules.len()],
            ColStrategy::Seminaive => {
                let run_symbols: BTreeSet<&str> =
                    rules.iter().map(|(_, p)| p.rule.head_symbol()).collect();
                rules
                    .iter()
                    .map(|(_, p)| classify(&p.rule, &run_symbols))
                    .collect()
            }
        }
    }

    fn probes(&self, plan: &ColPlan, delta: Option<usize>, out: &mut Probes) {
        for (i, name) in &plan.indexed {
            if delta != Some(*i) {
                out.entry(name.clone()).or_default().insert(0);
            }
        }
    }

    /// Missing relations get an (empty) index too: a probe against an
    /// empty relation still counts as a probe.
    fn index(&self, state: &ColState, keep: &Probes, indexes: &mut IndexSet) {
        indexes.retain(|name, col| keep.get(name).is_some_and(|k| k.contains(&col)));
        let empty = Instance::empty();
        for (name, cols) in keep {
            for &col in cols {
                indexes.of_col(name, col, state.preds.get(name).unwrap_or(&empty));
            }
        }
    }

    fn fire(
        &self,
        unit: &Unit<'_, Self>,
        state: &ColState,
        indexes: &IndexSet,
        want_prov: bool,
        out: &mut Vec<Derived<ColFact>>,
        stats: &mut EvalStats,
        brake: &ParBrake,
    ) -> Result<(), ColEvalError> {
        let plan = unit.rule;
        let delta = unit.delta();
        let empty = Instance::empty();
        let mut scratch = EvalStats::default();
        let mut frames = vec![plan.frame()];
        for i in 0..plan.body.len() {
            if brake.should_stop() {
                return Ok(());
            }
            let delta_read = match delta {
                Some((d, pos)) if pos == i => Some(d),
                _ => None,
            };
            let st: &mut EvalStats = if unit.count_prefix || delta.is_none_or(|(_, pos)| i >= pos) {
                stats
            } else {
                &mut scratch
            };
            frames = plan.join(i, frames, state, delta_read, indexes, &empty, st)?;
            if frames.is_empty() {
                break;
            }
        }
        let produced = frames.len() as u64;
        stats.tuples_derived += produced;
        if !brake.charge(produced) {
            return Ok(());
        }
        for f in &frames {
            let parents = if want_prov {
                Some(plan.parents(f, state)?)
            } else {
                None
            };
            out.push(Derived {
                fact: plan.head_fact(f, state)?,
                rule: unit.idx,
                parents,
            });
        }
        Ok(())
    }

    /// Shards hold just the symbol read at `pos`, partitioned by stable
    /// fact hash.
    fn shard(&self, plan: &ColPlan, pos: usize, delta: &ColDelta, workers: usize) -> Vec<ColDelta> {
        match &plan.rule.body[pos] {
            ColLiteral::Pred { name, .. } => {
                let Some(rows) = delta.preds.get(name) else {
                    return Vec::new();
                };
                let mut shards: Vec<Instance> = (0..workers).map(|_| Instance::empty()).collect();
                for row in rows.iter() {
                    shards[shard_of(row, workers)].insert(row.clone());
                }
                shards
                    .into_iter()
                    .filter(|s| !s.is_empty())
                    .map(|s| ColDelta {
                        preds: BTreeMap::from([(name.clone(), s)]),
                        funcs: BTreeMap::new(),
                    })
                    .collect()
            }
            ColLiteral::Member {
                set: ColTerm::Apply(f, _),
                ..
            } => {
                let Some(graph) = delta.funcs.get(f) else {
                    return Vec::new();
                };
                let mut shards: Vec<FuncGraph> = (0..workers).map(|_| BTreeMap::new()).collect();
                for (args, elems) in graph {
                    for e in elems {
                        shards[shard_of(&(args, e), workers)]
                            .entry(args.clone())
                            .or_default()
                            .insert(e.clone());
                    }
                }
                shards
                    .into_iter()
                    .filter(|g| !g.is_empty())
                    .map(|g| ColDelta {
                        preds: BTreeMap::new(),
                        funcs: BTreeMap::from([(f.clone(), g)]),
                    })
                    .collect()
            }
            _ => Vec::new(),
        }
    }

    fn delta_len(&self, d: &ColDelta) -> u64 {
        let p: u64 = d.preds.values().map(|i| i.len() as u64).sum();
        let f: u64 = d
            .funcs
            .values()
            .flat_map(|g| g.values())
            .map(|s| s.len() as u64)
            .sum();
        p + f
    }

    fn settled(&self, state: &ColState, fact: &ColFact) -> bool {
        match fact {
            ColFact::Pred { name, row } => state.preds.get(name).is_some_and(|r| r.contains(row)),
            ColFact::Func { func, args, elem } => state
                .funcs
                .get(func)
                .and_then(|graph| graph.get(args))
                .is_some_and(|slot| slot.contains(elem)),
        }
    }

    /// Each admitted fact is inserted in admission order, noted in the
    /// kept index of its relation, and moved into the delta.
    fn commit(
        &self,
        state: &mut ColState,
        indexes: &mut IndexSet,
        facts: Vec<ColFact>,
        _: Vec<ColFact>,
    ) -> ColDelta {
        let mut delta = ColDelta::default();
        for fact in facts {
            match fact {
                ColFact::Pred { name, row } => {
                    state.insert_pred_row(&name, &row);
                    if let Some(inst) = state.preds.get(&name) {
                        indexes.note_insert(&name, &row, inst);
                    }
                    delta.preds.entry(name).or_default().insert(row);
                }
                ColFact::Func { func, args, elem } => {
                    state.insert_func_member(&func, &args, &elem);
                    let graph = delta.funcs.entry(func).or_default();
                    graph.entry(args).or_default().insert(elem);
                }
            }
        }
        delta
    }

    fn render(&self, fact: &ColFact) -> String {
        match fact {
            ColFact::Pred { name, row } => render_pred_fact(name, row),
            ColFact::Func { func, args, elem } => render_func_fact(func, args, elem),
        }
    }

    /// Every round commits the full loop state; the session stores it as
    /// a byte delta against the previous round's payload.
    fn checkpoint(
        &self,
        sess: &mut ckpt::Session,
        header: &dyn Fn(Vec<u8>) -> ckpt::RoundCkpt,
        at: &Mark,
        delta: &ColDelta,
        state: &ColState,
    ) {
        sess.commit(&header(col_encode(at, delta, state)));
    }

    fn resume(&self, rec: &ckpt::Recovered) -> Option<Resume<ColState, ColDelta>> {
        col_decode(&rec.payload)
    }
}

/// True if the term evaluates the set value of a function defined in this
/// run (an Apply used as a term — a non-monotone read).
fn reads_run_apply(t: &ColTerm, run: &BTreeSet<&str>) -> bool {
    let mut fs = Vec::new();
    t.collect_applies(&mut fs);
    fs.iter().any(|f| run.contains(f.as_str()))
}

/// Classify one rule against the set of symbols defined in this engine
/// run. Mirrors the dependency discipline of [`crate::col::stratify`]:
/// delta-able reads are exactly the *positive* dependencies, non-monotone
/// reads are exactly the *strong* ones.
fn classify(rule: &ColRule, run_symbols: &BTreeSet<&str>) -> RuleClass {
    let mut strong = false;
    let mut positions: Vec<usize> = Vec::new();
    for (i, lit) in rule.body.iter().enumerate() {
        match lit {
            ColLiteral::Pred {
                name,
                args,
                positive,
            } => {
                if args.iter().any(|a| reads_run_apply(a, run_symbols)) {
                    strong = true;
                }
                if run_symbols.contains(name.as_str()) {
                    if *positive {
                        positions.push(i);
                    } else {
                        strong = true;
                    }
                }
            }
            ColLiteral::Member {
                elem,
                set,
                positive,
            } => {
                if reads_run_apply(elem, run_symbols) {
                    strong = true;
                }
                if let ColTerm::Apply(f, fargs) = set {
                    if fargs.iter().any(|a| reads_run_apply(a, run_symbols)) {
                        strong = true;
                    }
                    if run_symbols.contains(f.as_str()) {
                        if *positive {
                            positions.push(i);
                        } else {
                            strong = true;
                        }
                    }
                } else if reads_run_apply(set, run_symbols) {
                    strong = true;
                }
            }
            ColLiteral::Eq { left, right, .. } => {
                if reads_run_apply(left, run_symbols) || reads_run_apply(right, run_symbols) {
                    strong = true;
                }
            }
        }
    }
    match &rule.head {
        ColHead::Pred { args, .. } => {
            if args.iter().any(|a| reads_run_apply(a, run_symbols)) {
                strong = true;
            }
        }
        ColHead::FuncMember { args, elem, .. } => {
            if args.iter().any(|a| reads_run_apply(a, run_symbols))
                || reads_run_apply(elem, run_symbols)
            {
                strong = true;
            }
        }
    }
    if strong {
        RuleClass::Snapshot
    } else if positions.is_empty() {
        RuleClass::Constant
    } else {
        RuleClass::Seminaive(positions)
    }
}

type FuncGraph = BTreeMap<Vec<Value>, BTreeSet<Value>>;
type FuncGraphs = BTreeMap<String, FuncGraph>;

fn put_funcs(e: &mut ckpt::Enc, funcs: &FuncGraphs) {
    e.put_usize(funcs.len());
    for (name, graph) in funcs {
        e.put_str(name);
        e.put_usize(graph.len());
        for (args, elems) in graph {
            e.put_usize(args.len());
            for a in args {
                e.put_value(a);
            }
            e.put_usize(elems.len());
            for el in elems {
                e.put_value(el);
            }
        }
    }
}

fn take_funcs(d: &mut ckpt::Dec<'_>) -> Result<FuncGraphs, ckpt::CodecError> {
    let mut funcs = FuncGraphs::new();
    for _ in 0..d.len_prefix()? {
        let name = d.str()?;
        let mut graph = BTreeMap::new();
        for _ in 0..d.len_prefix()? {
            let mut args = Vec::new();
            for _ in 0..d.len_prefix()? {
                args.push(d.value()?);
            }
            let mut elems = BTreeSet::new();
            for _ in 0..d.len_prefix()? {
                elems.insert(d.value()?);
            }
            graph.insert(args, elems);
        }
        funcs.insert(name, graph);
    }
    Ok(funcs)
}

/// A COL checkpoint payload: the stratum, how many rounds of the
/// stratum's `max_rounds` allowance are spent, the semi-naive flags, and
/// the full state at the end of the round.
fn col_encode(at: &Mark, delta: &ColDelta, state: &ColState) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(at.stratum as u64);
    e.put_u64(at.rounds_in_run);
    e.put_u8(at.first as u8);
    e.put_instance_map(&delta.preds);
    put_funcs(&mut e, &delta.funcs);
    e.put_instance_map(&state.preds);
    put_funcs(&mut e, &state.funcs);
    e.finish()
}

fn col_decode(payload: &[u8]) -> Option<Resume<ColState, ColDelta>> {
    let mut d = ckpt::Dec::new(payload);
    let at = Mark {
        stratum: d.u64().ok()? as usize,
        rounds_in_run: d.u64().ok()?,
        first: d.u8().ok()? != 0,
    };
    let delta = ColDelta {
        preds: d.instance_map().ok()?,
        funcs: take_funcs(&mut d).ok()?,
    };
    let state = ColState {
        preds: d.instance_map().ok()?,
        funcs: take_funcs(&mut d).ok()?,
    };
    d.done().then_some(Resume { at, delta, state })
}

/// Fingerprint of one governed COL computation: semantics kind,
/// strategy (naive and semi-naive rounds are not interchangeable),
/// program, and input database.
fn col_fingerprint(kind: &str, strategy: ColStrategy, prog: &ColProgram, db: &Database) -> u64 {
    let mut e = ckpt::Enc::new();
    e.put_str(ENGINE);
    e.put_str(kind);
    e.put_str(&format!("{strategy:?}"));
    e.put_str(&format!("{:?}", prog.rules));
    e.put_database(db);
    ckpt::fnv64(&e.finish())
}

/// One governed run of `strata` (rule indices) through the shared round
/// driver, with every rule compiled once.
fn governed(
    kind: &str,
    prog: &ColProgram,
    strata: &[Vec<usize>],
    db: &Database,
    engine: Col,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<ColState, ColEvalError> {
    let fingerprint = || col_fingerprint(kind, engine.strategy, prog, db);
    let plans: Vec<ColPlan> = prog.rules.iter().map(ColPlan::compile).collect();
    let strata: Vec<Vec<(usize, &ColPlan)>> = strata
        .iter()
        .map(|rules| rules.iter().map(|&i| (i, &plans[i])).collect())
        .collect();
    let trip = OutOfRounds::Trip;
    let run = rounds::run(&engine, governor, stats, fingerprint, &strata, trip, || {
        ColState::from_database(db)
    });
    run.map(|(state, _converged)| state)
}

/// Stratified semantics: strata evaluated bottom-up, each to its least
/// fixpoint, with the default (semi-naive) strategy.
pub fn stratified(
    prog: &ColProgram,
    db: &Database,
    config: &ColConfig,
) -> Result<ColState, ColEvalError> {
    stratified_with(
        prog,
        db,
        config,
        ColStrategy::Seminaive,
        &mut EvalStats::default(),
    )
}

/// Stratified semantics with an explicit strategy and work counters
/// accumulated into `stats`. The naive strategy is the reference the
/// differential tests and the `ablation/col_naive_vs_seminaive` bench
/// compare against.
pub fn stratified_with(
    prog: &ColProgram,
    db: &Database,
    config: &ColConfig,
    strategy: ColStrategy,
    stats: &mut EvalStats,
) -> Result<ColState, ColEvalError> {
    stratified_governed(
        prog,
        db,
        config,
        strategy,
        &Governor::new(config.budget()),
        stats,
    )
}

/// Stratified semantics under a shared-layer [`Governor`] (one guard for
/// the whole run: the step budget bounds rounds summed across strata).
/// On exhaustion the error carries the state at the last completed round,
/// including every fully evaluated lower stratum.
pub fn stratified_governed(
    prog: &ColProgram,
    db: &Database,
    config: &ColConfig,
    strategy: ColStrategy,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<ColState, ColEvalError> {
    let strata = stratify(prog).map_err(|e| ColEvalError::NotStratifiable(e.cycle_path()))?;
    let max = strata.values().copied().max().unwrap_or(0);
    let by_stratum: Vec<Vec<usize>> = (0..=max)
        .map(|s| {
            let rules = prog.rules.iter().enumerate();
            rules
                .filter(|(_, r)| strata[r.head_symbol()] == s)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let engine = Col::new(config, strategy);
    governed("stratified", prog, &by_stratum, db, engine, governor, stats)
}

/// Inflationary semantics: one cumulative fixpoint over all rules, with
/// negation read against the pre-round state, using the default
/// (semi-naive) strategy.
pub fn inflationary(
    prog: &ColProgram,
    db: &Database,
    config: &ColConfig,
) -> Result<ColState, ColEvalError> {
    inflationary_with(
        prog,
        db,
        config,
        ColStrategy::Seminaive,
        &mut EvalStats::default(),
    )
}

/// Inflationary semantics with an explicit strategy and work counters
/// accumulated into `stats`.
pub fn inflationary_with(
    prog: &ColProgram,
    db: &Database,
    config: &ColConfig,
    strategy: ColStrategy,
    stats: &mut EvalStats,
) -> Result<ColState, ColEvalError> {
    inflationary_governed(
        prog,
        db,
        config,
        strategy,
        &Governor::new(config.budget()),
        stats,
    )
}

/// Inflationary semantics under a shared-layer [`Governor`].
pub fn inflationary_governed(
    prog: &ColProgram,
    db: &Database,
    config: &ColConfig,
    strategy: ColStrategy,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<ColState, ColEvalError> {
    let all = vec![(0..prog.rules.len()).collect()];
    let engine = Col::new(config, strategy);
    governed("inflationary", prog, &all, db, engine, governor, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::col::ast::{ColLiteral, ColRule, ColTerm};
    use uset_guard::Resource;
    use uset_object::{atom, set, tuple, RType};

    fn v(n: &str) -> ColTerm {
        ColTerm::var(n)
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    fn tc_prog() -> ColProgram {
        ColProgram::new(vec![
            ColRule::pred(
                "T",
                vec![v("x"), v("y")],
                vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
            ),
            ColRule::pred(
                "T",
                vec![v("x"), v("z")],
                vec![
                    ColLiteral::pred("E", vec![v("x"), v("y")]),
                    ColLiteral::pred("T", vec![v("y"), v("z")]),
                ],
            ),
        ])
    }

    #[test]
    fn tc_stratified_and_inflationary_agree() {
        let db = path_db(5);
        let cfg = ColConfig::default();
        let s = stratified(&tc_prog(), &db, &cfg).unwrap();
        let i = inflationary(&tc_prog(), &db, &cfg).unwrap();
        assert_eq!(s.pred("T"), i.pred("T"));
        assert_eq!(s.pred("T").len(), 10);
    }

    #[test]
    fn grouping_via_data_function() {
        // F(x) ∋ y ← E(x,y);  G([x, F(x)]) ← E(x, y)
        // (the COL idiom for nest)
        let prog = ColProgram::new(vec![
            ColRule::func_member(
                "F",
                vec![v("x")],
                v("y"),
                vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
            ),
            ColRule::pred(
                "G",
                vec![ColTerm::Tuple(vec![
                    v("x"),
                    ColTerm::Apply("F".into(), vec![v("x")]),
                ])],
                vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
            ),
        ]);
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows([
                [atom(1), atom(10)],
                [atom(1), atom(11)],
                [atom(2), atom(20)],
            ]),
        );
        let out = stratified(&prog, &db, &ColConfig::default()).unwrap();
        assert!(out
            .pred("G")
            .contains(&tuple([atom(1), set([atom(10), atom(11)])])));
        assert!(out.pred("G").contains(&tuple([atom(2), set([atom(20)])])));
        assert_eq!(out.pred("G").len(), 2);
    }

    #[test]
    fn unguarded_chain_diverges() {
        // a ∈ F(a) ←;   {u} ∈ F(a) ← u ∈ F(a)
        let a = ColTerm::cst(atom(0));
        let prog = ColProgram::new(vec![
            ColRule::func_member("F", vec![a.clone()], a.clone(), vec![]),
            ColRule::func_member(
                "F",
                vec![a.clone()],
                ColTerm::SetLit(vec![v("u")]),
                vec![ColLiteral::member(
                    v("u"),
                    ColTerm::Apply("F".into(), vec![a.clone()]),
                )],
            ),
        ]);
        let cfg = ColConfig {
            max_rounds: 50,
            max_facts: 10_000,
        };
        let err = stratified(&prog, &Database::empty(), &cfg).unwrap_err();
        let e = err.exhausted().expect("budget exhaustion");
        assert_eq!(e.engine(), EngineId::Col);
        assert_eq!(e.resource(), Resource::Steps);
        // the partial state retains the chain built so far
        assert!(!e.partial.func("F", &[atom(0)]).is_empty());
    }

    #[test]
    fn guarded_chain_terminates_with_correct_shape() {
        // chain growth guarded by a predicate: {u} ∈ F(a) ← u ∈ F(a), Go(u)
        // where Go holds only elements of bounded depth is not directly
        // expressible; instead guard by membership in a finite set — here
        // we guard on u ∈ Seed so exactly one extension happens.
        let a = ColTerm::cst(atom(0));
        let prog = ColProgram::new(vec![
            ColRule::func_member("F", vec![a.clone()], a.clone(), vec![]),
            ColRule::func_member(
                "F",
                vec![a.clone()],
                ColTerm::SetLit(vec![v("u")]),
                vec![
                    ColLiteral::member(v("u"), ColTerm::Apply("F".into(), vec![a.clone()])),
                    ColLiteral::pred("Seed", vec![v("u")]),
                ],
            ),
        ]);
        let mut db = Database::empty();
        db.set("Seed", Instance::from_values([atom(0)]));
        let out = stratified(&prog, &db, &ColConfig::default()).unwrap();
        let f = out.func("F", &[atom(0)]);
        assert_eq!(f.len(), 2);
        assert!(f.contains(&atom(0)));
        assert!(f.contains(&set([atom(0)])));
    }

    #[test]
    fn rtype_annotations_filter_bindings() {
        // P(x) ← R(x) with x : U keeps only atoms from a heterogeneous R
        let prog = ColProgram::new(vec![ColRule::pred(
            "P",
            vec![v("x")],
            vec![ColLiteral::pred("R", vec![v("x")])],
        )
        .with_type("x", RType::Atomic)]);
        let mut db = Database::empty();
        db.set(
            "R",
            Instance::from_values([atom(1), set([atom(2)]), tuple([atom(3), atom(4)])]),
        );
        let out = stratified(&prog, &db, &ColConfig::default()).unwrap();
        assert_eq!(out.pred("P"), Instance::from_values([atom(1)]));
    }

    #[test]
    fn negation_under_stratified_semantics() {
        // NotE(x,y) ← N(x), N(y), ¬E(x,y)
        let prog = ColProgram::new(vec![
            ColRule::pred(
                "N",
                vec![v("x")],
                vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
            ),
            ColRule::pred(
                "N",
                vec![v("y")],
                vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
            ),
            ColRule::pred(
                "NotE",
                vec![v("x"), v("y")],
                vec![
                    ColLiteral::pred("N", vec![v("x")]),
                    ColLiteral::pred("N", vec![v("y")]),
                    ColLiteral::not_pred("E", vec![v("x"), v("y")]),
                ],
            ),
        ]);
        let out = stratified(&prog, &path_db(3), &ColConfig::default()).unwrap();
        assert_eq!(out.pred("NotE").len(), 9 - 2);
    }

    #[test]
    fn membership_and_equality_literals() {
        // Pairs(x, y) ← R(s), x ∈ s, y ∈ s, x ≉ y
        let prog = ColProgram::new(vec![ColRule::pred(
            "Pairs",
            vec![v("x"), v("y")],
            vec![
                ColLiteral::pred("R", vec![v("s")]),
                ColLiteral::member(v("x"), v("s")),
                ColLiteral::member(v("y"), v("s")),
                ColLiteral::neq(v("x"), v("y")),
            ],
        )]);
        let mut db = Database::empty();
        db.set("R", Instance::from_values([set([atom(1), atom(2)])]));
        let out = stratified(&prog, &db, &ColConfig::default()).unwrap();
        assert_eq!(out.pred("Pairs").len(), 2);
    }

    #[test]
    fn set_literal_head_builds_sets() {
        // Wrapped({x}) ← R(x)
        let prog = ColProgram::new(vec![ColRule::pred(
            "Wrapped",
            vec![ColTerm::SetLit(vec![v("x")])],
            vec![ColLiteral::pred("R", vec![v("x")])],
        )]);
        let mut db = Database::empty();
        db.set("R", Instance::from_values([atom(1), atom(2)]));
        let out = inflationary(&prog, &db, &ColConfig::default()).unwrap();
        assert_eq!(
            out.pred("Wrapped"),
            Instance::from_values([set([atom(1)]), set([atom(2)])])
        );
    }

    #[test]
    fn classification_follows_dependency_discipline() {
        let prog = tc_prog();
        let run: BTreeSet<&str> = ["T"].into_iter().collect();
        // T(x,y) ← E(x,y): reads only EDB
        assert_eq!(classify(&prog.rules[0], &run), RuleClass::Constant);
        // T(x,z) ← E(x,y), T(y,z): delta-able at body position 1
        assert_eq!(
            classify(&prog.rules[1], &run),
            RuleClass::Seminaive(vec![1])
        );
        // W(x) ← E(x,y), ¬W(y): negation on a run symbol
        let win = ColRule::pred(
            "W",
            vec![v("x")],
            vec![
                ColLiteral::pred("E", vec![v("x"), v("y")]),
                ColLiteral::not_pred("W", vec![v("y")]),
            ],
        );
        let run_w: BTreeSet<&str> = ["W"].into_iter().collect();
        assert_eq!(classify(&win, &run_w), RuleClass::Snapshot);
        // G([x, F(x)]) ← E(x,y): Apply of a run function in the head
        let group = ColRule::pred(
            "G",
            vec![ColTerm::Tuple(vec![
                v("x"),
                ColTerm::Apply("F".into(), vec![v("x")]),
            ])],
            vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
        );
        let run_fg: BTreeSet<&str> = ["F", "G"].into_iter().collect();
        assert_eq!(classify(&group, &run_fg), RuleClass::Snapshot);
        // but with F settled in a lower stratum the same rule is constant
        let run_g: BTreeSet<&str> = ["G"].into_iter().collect();
        assert_eq!(classify(&group, &run_g), RuleClass::Constant);
        // {u} ∈ F(a) ← u ∈ F(a): monotone membership recursion
        let a = ColTerm::cst(atom(0));
        let chain = ColRule::func_member(
            "F",
            vec![a.clone()],
            ColTerm::SetLit(vec![v("u")]),
            vec![ColLiteral::member(
                v("u"),
                ColTerm::Apply("F".into(), vec![a.clone()]),
            )],
        );
        let run_f: BTreeSet<&str> = ["F"].into_iter().collect();
        assert_eq!(classify(&chain, &run_f), RuleClass::Seminaive(vec![0]));
    }

    #[test]
    fn fact_budget_enforced_mid_round() {
        // P(x,y) ← R(x), R(y) derives |R|² facts in a single round; the
        // budget must trip during the round, not after it
        let prog = ColProgram::new(vec![ColRule::pred(
            "P",
            vec![v("x"), v("y")],
            vec![
                ColLiteral::pred("R", vec![v("x")]),
                ColLiteral::pred("R", vec![v("y")]),
            ],
        )]);
        let mut db = Database::empty();
        db.set("R", Instance::from_values((0..40).map(atom)));
        let cfg = ColConfig {
            max_rounds: 10,
            max_facts: 100,
        };
        for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
            let mut stats = EvalStats::default();
            let err = inflationary_with(&prog, &db, &cfg, strategy, &mut stats).unwrap_err();
            let e = err.exhausted().unwrap_or_else(|| panic!("{strategy:?}"));
            assert_eq!(e.resource(), Resource::Facts, "{strategy:?}");
            assert!(
                stats.peak_facts <= cfg.max_facts + 1,
                "{strategy:?}: budget must bound mid-round growth, saw peak_facts={}",
                stats.peak_facts
            );
            // the incomplete round never committed, so the snapshot
            // respects the budget and matches a round boundary
            assert!(e.partial.total_facts() <= cfg.max_facts, "{strategy:?}");
        }
    }

    #[test]
    fn seminaive_state_identical_to_naive_and_does_less_work() {
        let db = path_db(16);
        let cfg = ColConfig::default();
        let mut naive = EvalStats::default();
        let mut semi = EvalStats::default();
        let sn = stratified_with(&tc_prog(), &db, &cfg, ColStrategy::Naive, &mut naive).unwrap();
        let ss = stratified_with(&tc_prog(), &db, &cfg, ColStrategy::Seminaive, &mut semi).unwrap();
        assert_eq!(sn, ss);
        assert!(
            semi.tuples_derived < naive.tuples_derived,
            "semi-naive {semi} vs naive {naive}"
        );
        assert!(semi.index_probes > 0);
        assert_eq!(semi.peak_facts, naive.peak_facts);
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use crate::col::ast::{ColLiteral, ColRule, ColTerm};
    use uset_guard::ParConfig;
    use uset_object::atom;

    fn v(n: &str) -> ColTerm {
        ColTerm::var(n)
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    fn tc_prog() -> ColProgram {
        ColProgram::new(vec![
            ColRule::pred(
                "T",
                vec![v("x"), v("y")],
                vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
            ),
            ColRule::pred(
                "T",
                vec![v("x"), v("z")],
                vec![
                    ColLiteral::pred("E", vec![v("x"), v("y")]),
                    ColLiteral::pred("T", vec![v("y"), v("z")]),
                ],
            ),
        ])
    }

    fn nest_prog() -> ColProgram {
        // F(x) ∋ z ← E(x,y), T(y,z) — exercises function deltas too
        let mut rules = tc_prog().rules;
        rules.push(ColRule::func_member(
            "F",
            vec![v("x")],
            v("z"),
            vec![
                ColLiteral::pred("E", vec![v("x"), v("y")]),
                ColLiteral::pred("T", vec![v("y"), v("z")]),
            ],
        ));
        rules.push(ColRule::func_member(
            "G",
            vec![v("x")],
            v("z"),
            vec![
                ColLiteral::pred("E", vec![v("x"), v("y")]),
                ColLiteral::member(v("z"), ColTerm::Apply("F".into(), vec![v("y")])),
            ],
        ));
        ColProgram::new(rules)
    }

    fn governor(workers: usize) -> Governor {
        Governor::unlimited().with_par(ParConfig::workers(workers))
    }

    #[test]
    fn parallel_matches_sequential_both_strategies_and_semantics() {
        let db = path_db(16);
        let cfg = ColConfig::default();
        for prog in [tc_prog(), nest_prog()] {
            for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
                let mut seq_stats = EvalStats::default();
                let seq =
                    stratified_governed(&prog, &db, &cfg, strategy, &governor(1), &mut seq_stats)
                        .unwrap();
                for workers in [2usize, 4] {
                    let mut par_stats = EvalStats::default();
                    let par = stratified_governed(
                        &prog,
                        &db,
                        &cfg,
                        strategy,
                        &governor(workers),
                        &mut par_stats,
                    )
                    .unwrap();
                    assert_eq!(seq, par, "{strategy:?} state at {workers} workers");
                    assert_eq!(
                        seq_stats, par_stats,
                        "{strategy:?} stats at {workers} workers"
                    );
                }
                let mut seq_stats_i = EvalStats::default();
                let seq_i = inflationary_governed(
                    &prog,
                    &db,
                    &cfg,
                    strategy,
                    &governor(1),
                    &mut seq_stats_i,
                )
                .unwrap();
                let mut par_stats_i = EvalStats::default();
                let par_i = inflationary_governed(
                    &prog,
                    &db,
                    &cfg,
                    strategy,
                    &governor(4),
                    &mut par_stats_i,
                )
                .unwrap();
                assert_eq!(seq_i, par_i, "{strategy:?} inflationary state");
                assert_eq!(seq_stats_i, par_stats_i, "{strategy:?} inflationary stats");
            }
        }
    }

    #[test]
    fn parallel_facts_budget_yields_round_consistent_partial() {
        let db = path_db(16);
        let cfg = ColConfig::default();
        let governor =
            Governor::new(Budget::unlimited().with_facts(30)).with_par(ParConfig::workers(4));
        let mut stats = EvalStats::default();
        let err = stratified_governed(
            &tc_prog(),
            &db,
            &cfg,
            ColStrategy::Seminaive,
            &governor,
            &mut stats,
        )
        .unwrap_err();
        let e = err.exhausted().expect("budget exhaustion");
        // the partial snapshot sits at a round boundary: a prefix of the
        // true fixpoint, never exceeding the budget by a full round
        let full = stratified(&tc_prog(), &db, &cfg).unwrap();
        assert!(e.partial.total_facts() <= 30 + 1);
        for row in e.partial.pred("T").iter() {
            assert!(full.pred("T").contains(row));
        }
        assert_eq!(e.partial.pred("E"), full.pred("E"));
    }
}
