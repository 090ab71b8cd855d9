//! Limited-interpretation evaluation of calculus queries.
//!
//! Quantifiers range over the constructive domain of their annotation
//! relative to the *extended active domain* `adom(d, Q)` (input atoms plus
//! the query's constants — plus any invented atoms supplied by the
//! invention semantics of [`crate::invention`]). For strict types the
//! constructive domain is finite but hyper-exponential in the set-nesting
//! depth; for rtypes mentioning `Obj` it is infinite and we enumerate it
//! bounded by construction size ([`CalcConfig::obj_size_bound`]) — the
//! documented substitution for the provably non-computable full semantics.

use crate::ast::{CalcQuery, CalcTerm, Formula};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use uset_object::cons::{cons_obj_bounded, cons_type_par};
use uset_object::{Atom, Database, Instance, ObjectError, RType, Value};

/// Evaluation bounds.
#[derive(Clone, Copy, Debug)]
pub struct CalcConfig {
    /// Cap on any single constructive-domain enumeration.
    pub cons_limit: usize,
    /// Size bound for enumerating `cons_Obj` (rtypes mentioning `Obj`).
    pub obj_size_bound: usize,
    /// Worker threads for splitting `cons_T(X)` candidate spaces
    /// (`1` = sequential; the enumeration order is identical at every
    /// width). The governed invention loops set this from their
    /// [`uset_guard::Governor`]'s parallelism policy; direct callers can
    /// pin it explicitly.
    pub workers: usize,
}

impl Default for CalcConfig {
    fn default() -> Self {
        CalcConfig {
            cons_limit: 1 << 20,
            obj_size_bound: 4,
            workers: 1,
        }
    }
}

impl CalcConfig {
    /// The [`uset_guard::Budget`] equivalent of this config's knobs:
    /// `cons_limit` caps the size of any single enumerated domain or
    /// per-level answer, so it maps to `max_value_size`. `obj_size_bound`
    /// is a structural bound on object construction, not a resource limit,
    /// and stays out of the budget.
    pub fn budget(&self) -> uset_guard::Budget {
        uset_guard::Budget::unlimited().with_value_size(self.cons_limit)
    }
}

/// The calculus engine's exhaustion report (see
/// [`crate::invention::InventionPartial`] for the snapshot the invention
/// loops surrender).
pub type CalcExhausted = uset_guard::Exhausted<crate::invention::InventionPartial>;

/// Evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CalcError {
    /// A constructive domain exceeded [`CalcConfig::cons_limit`].
    DomainTooLarge(String),
    /// A free variable was not the query variable.
    UnboundVariable(String),
    /// A resource budget was exhausted or the run was cancelled during an
    /// invention enumeration; carries the union accumulated over the
    /// completed invention levels.
    Exhausted(Box<CalcExhausted>),
}

impl CalcError {
    /// The exhaustion report, if this is a budget/cancellation error.
    pub fn exhausted(&self) -> Option<&CalcExhausted> {
        match self {
            CalcError::Exhausted(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for CalcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalcError::DomainTooLarge(what) => {
                write!(f, "constructive domain too large: {what}")
            }
            CalcError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            CalcError::Exhausted(e) => write!(f, "calculus evaluation exhausted: {e}"),
        }
    }
}

impl std::error::Error for CalcError {}

/// Enumerate `cons_T(atoms)` for an rtype under the config bounds.
pub fn enumerate_rtype(
    ty: &RType,
    atoms: &BTreeSet<Atom>,
    config: &CalcConfig,
) -> Result<Vec<Value>, CalcError> {
    if let Some(strict) = ty.to_type() {
        cons_type_par(&strict, atoms, config.cons_limit, config.workers).map_err(describe)
    } else {
        // rtype mentions Obj: enumerate all bounded objects, filter to the
        // rtype (bounded stand-in for the infinite domain)
        let all =
            cons_obj_bounded(atoms, config.obj_size_bound, config.cons_limit).map_err(describe)?;
        Ok(all.into_iter().filter(|v| ty.contains(v)).collect())
    }
}

fn describe(e: ObjectError) -> CalcError {
    CalcError::DomainTooLarge(e.to_string())
}

/// The variables in scope, innermost last. A quantifier pushes its
/// binding and pops it after the body, so a rebind is a push of a
/// borrowed name and an `Rc` bump (no key allocation, no hashing), and a
/// lookup from the top sees the innermost binding of a shadowed name.
type Scope<'q> = Vec<(&'q str, Rc<Value>)>;

fn lookup<'s>(b: &'s Scope<'_>, v: &str) -> Result<&'s Value, CalcError> {
    b.iter()
        .rev()
        .find(|(name, _)| *name == v)
        .map(|(_, rc)| rc.as_ref())
        .ok_or_else(|| CalcError::UnboundVariable(v.to_owned()))
}

/// Per-evaluation memo of quantifier domains, keyed by annotation rtype.
/// Within one [`eval_query_over`] the atom universe is fixed, so a
/// quantifier nested under `k` enclosing binding loops re-enumerates the
/// *identical* (often exponential) constructive domain once per
/// enclosing combination — the memo collapses that to once per rtype.
#[derive(Default)]
struct DomainCache {
    domains: HashMap<RType, Rc<Vec<Rc<Value>>>>,
}

impl DomainCache {
    /// The quantifier domain for `ty`, memoized.
    fn domain(
        &mut self,
        ty: &RType,
        atoms: &BTreeSet<Atom>,
        config: &CalcConfig,
    ) -> Result<Rc<Vec<Rc<Value>>>, CalcError> {
        if let Some(d) = self.domains.get(ty) {
            return Ok(Rc::clone(d));
        }
        let vs = enumerate_rtype(ty, atoms, config)?;
        let d: Rc<Vec<_>> = Rc::new(vs.into_iter().map(Rc::new).collect());
        self.domains.insert(ty.clone(), Rc::clone(&d));
        Ok(d)
    }
}

/// Evaluate a term to a value, borrowing when the term is a variable or
/// constant — the atomic formulas only need `&Value` to compare or
/// probe, so a `Var` probe must not re-materialize the (possibly huge)
/// bound object. Only constructed terms allocate.
fn eval_term<'a>(t: &'a CalcTerm, b: &'a Scope<'_>) -> Result<Cow<'a, Value>, CalcError> {
    match t {
        CalcTerm::Var(v) => lookup(b, v).map(Cow::Borrowed),
        CalcTerm::Const(c) => Ok(Cow::Borrowed(c)),
        CalcTerm::Tuple(ts) => Ok(Cow::Owned(Value::Tuple(
            ts.iter()
                .map(|t| eval_term(t, b).map(Cow::into_owned))
                .collect::<Result<_, _>>()?,
        ))),
        CalcTerm::SetEnum(ts) => Ok(Cow::Owned(Value::Set(
            ts.iter()
                .map(|t| eval_term(t, b).map(Cow::into_owned))
                .collect::<Result<_, _>>()?,
        ))),
    }
}

/// Fail with [`CalcError::UnboundVariable`] for the first (leftmost)
/// unbound variable of `t`, exactly as [`eval_term`] would.
fn check_bound(t: &CalcTerm, b: &Scope<'_>) -> Result<(), CalcError> {
    match t {
        CalcTerm::Var(v) => lookup(b, v).map(drop),
        CalcTerm::Const(_) => Ok(()),
        CalcTerm::Tuple(ts) | CalcTerm::SetEnum(ts) => {
            ts.iter().try_for_each(|t| check_bound(t, b))
        }
    }
}

/// `t ≈ v` without building `t`: a tuple term is compared item by item
/// against the value's items. Errors match `eval_term(t)? == v` — once an
/// item mismatches, the rest of the term is still checked for unbound
/// variables.
fn term_equals(t: &CalcTerm, v: &Value, b: &Scope<'_>) -> Result<bool, CalcError> {
    match (t, v) {
        (CalcTerm::Tuple(ts), Value::Tuple(items)) if ts.len() == items.len() => {
            let mut equal = true;
            for (t, v) in ts.iter().zip(items) {
                if equal {
                    equal = term_equals(t, v, b)?;
                } else {
                    check_bound(t, b)?;
                }
            }
            Ok(equal)
        }
        (CalcTerm::Tuple(_), _) => check_bound(t, b).map(|()| false),
        _ => Ok(*eval_term(t, b)? == *v),
    }
}

/// `x ≈ y`, comparing a constructed tuple term in place. The other side
/// is evaluated first only when it is not itself a tuple term; its
/// unbound-variable error is then deferred behind the tuple term's, so
/// errors are reported in the left-to-right order of `eval_term`.
fn terms_equal(x: &CalcTerm, y: &CalcTerm, b: &Scope<'_>) -> Result<bool, CalcError> {
    match (x, y) {
        (_, CalcTerm::Tuple(_)) => term_equals(y, eval_term(x, b)?.as_ref(), b),
        (CalcTerm::Tuple(_), _) => match eval_term(y, b) {
            Ok(yv) => term_equals(x, yv.as_ref(), b),
            Err(e) => {
                check_bound(x, b)?;
                Err(e)
            }
        },
        _ => Ok(eval_term(x, b)? == eval_term(y, b)?),
    }
}

fn eval_formula<'q>(
    f: &'q Formula,
    db: &Database,
    atoms: &BTreeSet<Atom>,
    b: &mut Scope<'q>,
    config: &CalcConfig,
    cache: &mut DomainCache,
) -> Result<bool, CalcError> {
    match f {
        Formula::Eq(x, y) => terms_equal(x, y, b),
        Formula::Member(x, y) => {
            let xv = eval_term(x, b)?;
            let yv = eval_term(y, b)?;
            Ok(yv.as_set().is_some_and(|s| s.contains(xv.as_ref())))
        }
        Formula::Pred(p, t) => {
            let v = eval_term(t, b)?;
            // borrow the relation — an absent one reads empty, exactly
            // like the owning `get`, without cloning the instance per test
            Ok(db.get_ref(p).is_some_and(|rel| rel.contains(v.as_ref())))
        }
        Formula::And(x, y) => Ok(eval_formula(x, db, atoms, b, config, cache)?
            && eval_formula(y, db, atoms, b, config, cache)?),
        Formula::Or(x, y) => Ok(eval_formula(x, db, atoms, b, config, cache)?
            || eval_formula(y, db, atoms, b, config, cache)?),
        Formula::Not(g) => Ok(!eval_formula(g, db, atoms, b, config, cache)?),
        Formula::Exists(x, ty, g) => {
            let domain = cache.domain(ty, atoms, config)?;
            some_binding(x, &domain, true, g, db, atoms, b, config, cache)
        }
        Formula::Forall(x, ty, g) => {
            let domain = cache.domain(ty, atoms, config)?;
            Ok(!some_binding(
                x, &domain, false, g, db, atoms, b, config, cache,
            )?)
        }
    }
}

/// Whether some `v` in `domain` makes `g` evaluate to `want` with `x`
/// bound to `v` (`∃` asks for true, `∀` for a false counterexample). The
/// binding is pushed for each candidate and popped after the body, on
/// the error path too, so `b` leaves exactly as it came.
#[allow(clippy::too_many_arguments)]
fn some_binding<'q>(
    x: &'q str,
    domain: &[Rc<Value>],
    want: bool,
    g: &'q Formula,
    db: &Database,
    atoms: &BTreeSet<Atom>,
    b: &mut Scope<'q>,
    config: &CalcConfig,
    cache: &mut DomainCache,
) -> Result<bool, CalcError> {
    for v in domain {
        b.push((x, Rc::clone(v)));
        let r = eval_formula(g, db, atoms, b, config, cache);
        b.pop();
        if r? == want {
            return Ok(true);
        }
    }
    Ok(false)
}

/// The extended active domain `adom(d, Q)`: input atoms plus the query's
/// constants.
pub fn extended_adom(q: &CalcQuery, db: &Database) -> BTreeSet<Atom> {
    let mut atoms = db.adom();
    atoms.extend(q.formula.const_atoms());
    atoms
}

/// Evaluate `{x/T | φ}` under the limited interpretation with the given
/// atom universe (normally [`extended_adom`]; the invention semantics pass
/// an enlarged universe).
pub fn eval_query_over(
    q: &CalcQuery,
    db: &Database,
    atoms: &BTreeSet<Atom>,
    config: &CalcConfig,
) -> Result<Instance, CalcError> {
    let candidates = enumerate_rtype(&q.ty, atoms, config)?;
    let mut out = Instance::empty();
    let mut b = Scope::new();
    let mut cache = DomainCache::default();
    for v in candidates {
        b.push((&q.var, Rc::new(v)));
        let pass = eval_formula(&q.formula, db, atoms, &mut b, config, &mut cache)?;
        // quantifiers pop what they push, so the candidate is on top and
        // its `Rc` is the sole owner again
        let (_, rc) = b.pop().expect("candidate binding on top");
        if pass {
            out.insert(Rc::try_unwrap(rc).expect("candidate binding released"));
        }
    }
    Ok(out)
}

/// Evaluate under the limited interpretation (`Q|₀[d]` in the §6
/// notation).
pub fn eval_query(
    q: &CalcQuery,
    db: &Database,
    config: &CalcConfig,
) -> Result<Instance, CalcError> {
    let atoms = extended_adom(q, db);
    eval_query_over(q, db, &atoms, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::{atom, set, tuple, Type};

    fn pair_db(rows: &[(u64, u64)]) -> Database {
        let mut db = Database::empty();
        db.set(
            "R",
            Instance::from_rows(rows.iter().map(|&(a, b)| [atom(a), atom(b)])),
        );
        db
    }

    fn t_u() -> RType {
        RType::Atomic
    }

    fn t_uu() -> RType {
        Type::atomic_tuple(2).to_rtype()
    }

    #[test]
    fn identity_query() {
        let db = pair_db(&[(1, 2), (3, 4)]);
        let q = CalcQuery::new("t", t_uu(), Formula::Pred("R".into(), CalcTerm::var("t")));
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, db.get("R"));
    }

    #[test]
    fn projection_via_tuple_terms() {
        // { x/U | ∃y/U R([x,y]) }
        let db = pair_db(&[(1, 2), (3, 4)]);
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u()),
        );
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([atom(1), atom(3)]));
    }

    #[test]
    fn join_via_shared_variable() {
        // { t/[U,U] | ∃x y z: t ≈ [x,z] ∧ R([x,y]) ∧ R([y,z]) }
        let db = pair_db(&[(1, 2), (2, 3)]);
        let body = Formula::Eq(
            CalcTerm::var("t"),
            CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("z")]),
        )
        .and(Formula::Pred(
            "R".into(),
            CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
        ))
        .and(Formula::Pred(
            "R".into(),
            CalcTerm::Tuple(vec![CalcTerm::var("y"), CalcTerm::var("z")]),
        ))
        .exists("z", t_u())
        .exists("y", t_u())
        .exists("x", t_u());
        let q = CalcQuery::new("t", t_uu(), body);
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([tuple([atom(1), atom(3)])]));
    }

    #[test]
    fn negation_is_active_domain_complement() {
        // { x/U | ¬∃y/U R([x,y]) } — atoms with no outgoing edge
        let db = pair_db(&[(1, 2)]);
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u())
            .not(),
        );
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([atom(2)]));
    }

    #[test]
    fn set_typed_quantifier_ranges_over_powerset() {
        // { s/{U} | ∀x/U (x ∈ s → ∃y/U R([x,y])) } — all subsets of the
        // "sources" set; over adom {1,2} with R={(1,2)} the sources are {1},
        // so the answer is {{}, {1}}
        let db = pair_db(&[(1, 2)]);
        let member_implies = Formula::Member(CalcTerm::var("x"), CalcTerm::var("s"))
            .not()
            .or(Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u()));
        let q = CalcQuery::new(
            "s",
            RType::Set(Box::new(RType::Atomic)),
            member_implies.forall("x", t_u()),
        );
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(
            out,
            Instance::from_values([Value::empty_set(), set([atom(1)])])
        );
    }

    #[test]
    fn cons_splitting_workers_do_not_change_answers() {
        // same query as `set_typed_quantifier_ranges_over_powerset`, with
        // the powerset enumeration split across workers: the answer (and
        // its canonical order) must be identical at every width
        let db = pair_db(&[(1, 2)]);
        let member_implies = Formula::Member(CalcTerm::var("x"), CalcTerm::var("s"))
            .not()
            .or(Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u()));
        let q = CalcQuery::new(
            "s",
            RType::Set(Box::new(RType::Atomic)),
            member_implies.forall("x", t_u()),
        );
        let seq = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        for workers in [2, 4, 7] {
            let cfg = CalcConfig {
                workers,
                ..CalcConfig::default()
            };
            assert_eq!(eval_query(&q, &db, &cfg).unwrap(), seq, "workers {workers}");
        }
    }

    #[test]
    fn constants_extend_the_domain() {
        // { x/U | x ≈ c } over an empty database still finds c
        let c = Atom::named("calc-c");
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Eq(CalcTerm::var("x"), CalcTerm::cst(Value::Atom(c))),
        );
        let out = eval_query(&q, &Database::empty(), &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([Value::Atom(c)]));
    }

    #[test]
    fn untyped_quantifier_is_bounded() {
        // { x/U | ∃s/{Obj} (x ∈ s) } — with any non-empty bounded cons_Obj
        // every atom is in some set, so this is the active domain
        let db = pair_db(&[(1, 2)]);
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Member(CalcTerm::var("x"), CalcTerm::var("s"))
                .exists("s", RType::untyped_set()),
        );
        let cfg = CalcConfig {
            obj_size_bound: 3,
            ..CalcConfig::default()
        };
        let out = eval_query(&q, &db, &cfg).unwrap();
        assert_eq!(out, Instance::from_values([atom(1), atom(2)]));
        assert!(!q.is_typed());
    }

    #[test]
    fn domain_blowup_is_reported() {
        // {{{U}}} over 5 atoms overflows the default cons limit
        let db = pair_db(&[(1, 2), (3, 4), (5, 5)]);
        let q = CalcQuery::new(
            "s",
            Type::nested_set(3).to_rtype(),
            Formula::Eq(CalcTerm::var("s"), CalcTerm::var("s")),
        );
        assert!(matches!(
            eval_query(&q, &db, &CalcConfig::default()),
            Err(CalcError::DomainTooLarge(_))
        ));
    }

    #[test]
    fn inner_quantifier_shadows_and_outer_binding_returns() {
        // { x/U | (∃x/U x ≈ 2) ∧ x ≈ 1 } over atoms {1, 2}: the inner x
        // must shadow the candidate (else x ≈ 2 never holds), and the
        // candidate must be visible again after it (else x ≈ 1 sees 2)
        let db = pair_db(&[(1, 2)]);
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Eq(CalcTerm::var("x"), CalcTerm::cst(atom(2)))
                .exists("x", t_u())
                .and(Formula::Eq(CalcTerm::var("x"), CalcTerm::cst(atom(1)))),
        );
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([atom(1)]));
        // same through a ∀ whose body fails early: the pop still happens
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Eq(CalcTerm::var("x"), CalcTerm::cst(atom(2)))
                .forall("x", t_u())
                .not()
                .and(Formula::Eq(CalcTerm::var("x"), CalcTerm::cst(atom(1)))),
        );
        let out = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        assert_eq!(out, Instance::from_values([atom(1)]));
    }

    #[test]
    fn eq_against_tuple_terms_compares_items_in_place() {
        let db = pair_db(&[(1, 2)]);
        let v = CalcTerm::var;
        let pair =
            |f: Formula| CalcQuery::new("p", t_uu(), f.exists("x", t_u()).exists("y", t_u()));
        // right arity, either side: every pair is some [x, y]
        for f in [
            Formula::Eq(v("p"), CalcTerm::Tuple(vec![v("x"), v("y")])),
            Formula::Eq(CalcTerm::Tuple(vec![v("x"), v("y")]), v("p")),
        ] {
            assert_eq!(
                eval_query(&pair(f), &db, &CalcConfig::default())
                    .unwrap()
                    .len(),
                4
            );
        }
        // wrong arity, or a bare value against a tuple term: false
        for f in [
            Formula::Eq(v("p"), CalcTerm::Tuple(vec![v("x")])),
            Formula::Eq(CalcTerm::Tuple(vec![v("x"), v("y"), v("x")]), v("p")),
            Formula::Eq(v("x"), CalcTerm::Tuple(vec![v("x")])),
        ] {
            assert_eq!(
                eval_query(&pair(f), &db, &CalcConfig::default()).unwrap(),
                Instance::empty()
            );
        }
        // nested tuple terms on both sides
        let nested = Formula::Eq(
            CalcTerm::Tuple(vec![v("p"), v("x")]),
            CalcTerm::Tuple(vec![CalcTerm::Tuple(vec![v("x"), v("y")]), v("x")]),
        );
        assert_eq!(
            eval_query(&pair(nested), &db, &CalcConfig::default())
                .unwrap()
                .len(),
            4
        );
    }

    #[test]
    fn unbound_variable_in_a_tuple_term_is_reported_after_a_mismatch() {
        // the candidate p is a pair of atoms, never [{}, _]: the first
        // item mismatches for every candidate and w is still reported
        // unbound
        let db = pair_db(&[(1, 2)]);
        let v = CalcTerm::var;
        let never = || CalcTerm::cst(Value::empty_set());
        let tup = |items: Vec<CalcTerm>| CalcTerm::Tuple(items);
        let unbound = |name: &str| Err(CalcError::UnboundVariable(name.to_owned()));
        let cases = [
            Formula::Eq(v("p"), tup(vec![never(), v("w")])),
            Formula::Eq(tup(vec![never(), v("w")]), v("p")),
            Formula::Eq(v("p"), tup(vec![never(), tup(vec![v("w")])])),
            Formula::Eq(tup(vec![never()]), tup(vec![v("p"), v("w")])),
            // arity mismatch before any item is compared
            Formula::Eq(v("p"), tup(vec![never(), never(), v("w")])),
            Formula::Member(tup(vec![never(), v("w")]), v("p")),
            Formula::Member(v("p"), tup(vec![never(), v("w")])),
        ];
        for f in cases {
            let q = CalcQuery::new("p", t_uu(), f.clone());
            assert_eq!(
                eval_query(&q, &db, &CalcConfig::default()),
                unbound("w"),
                "{f}"
            );
        }
        // with unbound variables on both sides the leftmost is reported
        for f in [
            Formula::Eq(tup(vec![v("u")]), v("w")),
            Formula::Eq(v("u"), tup(vec![v("w")])),
            Formula::Member(tup(vec![v("u")]), tup(vec![v("w")])),
        ] {
            let q = CalcQuery::new("p", t_uu(), f.clone());
            assert_eq!(
                eval_query(&q, &db, &CalcConfig::default()),
                unbound("u"),
                "{f}"
            );
        }
    }

    #[test]
    fn genericity_of_evaluation() {
        use uset_object::perm::Permutation;
        let db = pair_db(&[(1, 2), (2, 3)]);
        let q = CalcQuery::new(
            "x",
            t_u(),
            Formula::Pred(
                "R".into(),
                CalcTerm::Tuple(vec![CalcTerm::var("x"), CalcTerm::var("y")]),
            )
            .exists("y", t_u()),
        );
        let sigma = Permutation::from_pairs([
            (Atom::new(1), Atom::new(2)),
            (Atom::new(2), Atom::new(3)),
            (Atom::new(3), Atom::new(1)),
        ]);
        let direct = eval_query(&q, &db, &CalcConfig::default()).unwrap();
        let renamed = eval_query(&q, &sigma.apply_database(&db), &CalcConfig::default()).unwrap();
        assert_eq!(renamed, sigma.apply_instance(&direct));
    }
}
