//! Budget-governed evaluation of algebra programs.
//!
//! Evaluation follows §2/§4 of the paper: statements execute in order over
//! an environment of instance-valued variables initialized from the input
//! database; `while ⟨x;y⟩` loops run while `y` is non-empty; the program's
//! answer is the final value of `ANS`. If `undefine` fires on an empty
//! instance the whole query is `?` ([`EvalError::Undefined`]); resource
//! overruns — the step budget (the finite stand-in for the paper's
//! non-termination-is-`?` convention, see DESIGN.md §5), the instance-size
//! cap that converts powerset/product explosions into clean errors, a
//! wall-clock deadline, or cooperative cancellation — all report
//! [`EvalError::Exhausted`] through the shared [`uset_guard`] taxonomy,
//! carrying the environment at the last completed statement boundary as a
//! partial-result snapshot.

use crate::expr::{Expr, Operand, Pred};
use crate::program::{Program, Stmt, ANS};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;
use uset_guard::trace::TraceEvent;
use uset_guard::{ckpt, Budget, EngineId, Exhausted, Governed, Governor, Guard, Trip};
use uset_object::{Database, EvalStats, Instance, Value};

/// Engine label carried by every algebra trace event.
const ENGINE: EngineId = EngineId::Algebra;

/// Evaluation limits — a thin shim kept for source compatibility; new
/// code should pass a [`uset_guard::Governor`] to
/// [`eval_program_governed`] instead. Converted via [`EvalConfig::budget`].
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Maximum number of statements executed (loop iterations multiply).
    pub fuel: u64,
    /// Maximum number of members in any intermediate instance (powerset and
    /// product can explode; this converts explosions into clean errors).
    pub max_instance_len: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            fuel: 1_000_000,
            max_instance_len: 1_000_000,
        }
    }
}

impl EvalConfig {
    /// The equivalent shared-layer budget: `fuel` → steps,
    /// `max_instance_len` → value size.
    pub fn budget(&self) -> Budget {
        Budget::unlimited()
            .with_steps(self.fuel)
            .with_value_size(self.max_instance_len)
    }
}

/// The environment at the last completed statement boundary — the partial
/// result an exhausted run surrenders instead of discarding its work.
/// Statements mutate the environment atomically, so this snapshot is
/// always a state some prefix of the execution legitimately reached.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialEnv {
    /// Variable → instance bindings (inputs plus everything assigned so
    /// far, including loop-carried intermediates).
    pub env: BTreeMap<String, Instance>,
}

impl PartialEnv {
    /// The partial answer, if the program assigned `ANS` before running
    /// out of budget.
    pub fn ans(&self) -> Option<&Instance> {
        self.env.get(ANS)
    }
}

/// The algebra engine's exhaustion report.
pub type AlgExhausted = Exhausted<PartialEnv>;

/// Evaluation failure modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The paper's `?`: `undefine` fired on an empty instance.
    Undefined,
    /// A resource budget was exhausted or the run was cancelled; carries
    /// provenance, the environment snapshot, and work counters.
    Exhausted(Box<AlgExhausted>),
    /// A variable was read before being assigned.
    Unbound(String),
    /// The program never assigned `ANS`.
    NoAnswer,
}

impl EvalError {
    /// True for any budget/cancellation exhaustion (the old
    /// `FuelExhausted` and `InstanceTooLarge` conditions both map here).
    pub fn is_exhausted(&self) -> bool {
        matches!(self, EvalError::Exhausted(_))
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Undefined => write!(f, "query evaluated to the undefined value '?'"),
            EvalError::Exhausted(e) => write!(f, "{e}"),
            EvalError::Unbound(v) => write!(f, "variable {v} read before assignment"),
            EvalError::NoAnswer => write!(f, "program did not assign ANS"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Result alias for evaluation.
pub type EvalResult<T> = Result<T, EvalError>;

/// Internal error split: guard trips become [`EvalError::Exhausted`] only
/// at the top level, where the environment snapshot is available.
enum RunErr {
    Trip(Trip),
    Fail(EvalError),
}

impl From<Trip> for RunErr {
    fn from(t: Trip) -> RunErr {
        RunErr::Trip(t)
    }
}

impl From<EvalError> for RunErr {
    fn from(e: EvalError) -> RunErr {
        RunErr::Fail(e)
    }
}

type RunResult<T> = Result<T, RunErr>;

fn alg_fingerprint(prog: &Program, db: &Database) -> u64 {
    let mut e = ckpt::Enc::new();
    e.put_str(ENGINE.as_str());
    e.put_str(&format!("{prog:?}"));
    e.put_database(db);
    ckpt::fnv64(&e.finish())
}

fn alg_encode(pc: usize, in_while: bool, env: &BTreeMap<String, Instance>) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(pc as u64);
    e.put_u8(in_while as u8);
    e.put_instance_map(env);
    e.finish()
}

/// The loop state an algebra checkpoint restores: the index of the next
/// top-level statement, whether execution stopped *inside* that
/// statement's `while` loop (the loop is condition-driven, so the
/// restored environment alone determines the remaining iterations), the
/// environment itself, and the commit count. Commits happen at top-level
/// statement and top-level while-iteration boundaries; statements nested
/// in a loop body execute atomically between commits.
fn alg_decode(rec: &ckpt::Recovered) -> Option<(usize, bool, Env, u64)> {
    let mut d = ckpt::Dec::new(&rec.payload);
    let pc = d.u64().ok()? as usize;
    let in_while = d.u8().ok()? != 0;
    let env = d.instance_map().ok()?.into_iter().collect();
    d.done().then_some((pc, in_while, env, rec.round))
}

/// Variable → instance bindings during a run.
type Env = HashMap<String, Instance>;

struct Evaluator<'r> {
    env: Env,
    run: &'r mut Governed,
    /// Commit sequence number, the durable round id: a statement boundary
    /// and the last iteration of its `while` can share a step count, so
    /// the strictly-monotone round id is a plain counter.
    commits: u64,
}

impl Evaluator<'_> {
    /// Work counters, synthesized from the meters: the steps charged and
    /// the largest instance bound.
    fn stats(&self) -> EvalStats {
        EvalStats {
            rounds: self.run.guard.steps(),
            peak_facts: self.env.values().map(Instance::len).max().unwrap_or(0),
            ..EvalStats::default()
        }
    }

    /// Commit the environment at a top-level boundary. `pc` is the next
    /// top-level statement to run; `in_while` resumes inside `pc`'s loop
    /// instead of at its entry (skipping the statement-entry step charge
    /// that was already paid before the first committed iteration).
    fn commit_top(&mut self, pc: usize, in_while: bool) {
        self.commits += 1;
        let stats = self.stats();
        let env = &self.env;
        self.run.commit(self.commits, &stats, || {
            let env: BTreeMap<String, Instance> =
                env.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            alg_encode(pc, in_while, &env)
        });
    }

    /// Top-level statement driver: [`Evaluator::run_stmts`] plus a resume
    /// point and a durable commit after every statement and every
    /// top-level `while` iteration. Loop bodies still run through
    /// [`Evaluator::run_stmts`] and commit nothing mid-flight.
    fn run_top(&mut self, stmts: &[Stmt], start: usize, mut mid_while: bool) -> RunResult<()> {
        for (pc, s) in stmts.iter().enumerate().skip(start) {
            let resumed_mid = std::mem::take(&mut mid_while);
            if !resumed_mid {
                self.run.guard.step()?;
            }
            self.run_stmt(s, Some(pc))?;
            self.commit_top(pc + 1, false);
        }
        Ok(())
    }

    fn run_stmts(&mut self, stmts: &[Stmt]) -> RunResult<()> {
        for s in stmts {
            self.run.guard.step()?;
            self.run_stmt(s, None)?;
        }
        Ok(())
    }

    /// Execute one statement whose entry step is already charged.
    /// `top_pc` is the statement's index when it is a top-level one:
    /// each of its `while` iterations then ends with a commit that
    /// resumes inside the loop.
    fn run_stmt(&mut self, s: &Stmt, top_pc: Option<usize>) -> RunResult<()> {
        match s {
            Stmt::Assign(var, expr) => {
                let v = eval_expr(&self.env, &mut self.run.guard, expr)?.into_owned();
                self.env.insert(var.clone(), v);
            }
            Stmt::While {
                out,
                result,
                cond,
                body,
            } => {
                // each iteration is one "round" in the trace: the
                // condition's size plays the role of the delta
                loop {
                    let c = lookup(&self.env, cond)?;
                    if c.is_empty() {
                        break;
                    }
                    let delta = c.len() as u64;
                    self.run.guard.step()?;
                    let round = self.run.guard.steps();
                    let round_t0 = self.run.guard.trace().enabled().then(Instant::now);
                    self.run.guard.trace().emit(|| TraceEvent::RoundStart {
                        engine: ENGINE.as_str().into(),
                        round,
                        delta,
                    });
                    self.run_stmts(body)?;
                    let env = &self.env;
                    let value_hwm = self.run.guard.value_hwm() as u64;
                    self.run.guard.trace().emit(|| TraceEvent::RoundEnd {
                        engine: ENGINE.as_str().into(),
                        round,
                        delta,
                        facts: env.values().map(Instance::len).sum::<usize>() as u64,
                        value_hwm,
                        wall_micros: round_t0.map_or(0, |t| t.elapsed().as_micros() as u64),
                    });
                    if let Some(pc) = top_pc {
                        self.commit_top(pc, true);
                    }
                }
                let r = lookup(&self.env, result)?.clone();
                self.env.insert(out.clone(), r);
            }
        }
        Ok(())
    }
}

fn lookup<'e>(env: &'e Env, var: &str) -> EvalResult<&'e Instance> {
    env.get(var)
        .ok_or_else(|| EvalError::Unbound(var.to_owned()))
}

/// Evaluate an expression. Expressions read the environment but never
/// write it, so variables and constants are borrowed, not cloned; every
/// result is charged to the guard's value-size cap by its length.
fn eval_expr<'e>(env: &'e Env, guard: &mut Guard, expr: &'e Expr) -> RunResult<Cow<'e, Instance>> {
    let mut eval = |e: &'e Expr| -> RunResult<Cow<'e, Instance>> { eval_expr(env, guard, e) };
    let out = match expr {
        Expr::Var(v) => Cow::Borrowed(lookup(env, v)?),
        Expr::Const(i) => Cow::Borrowed(i),
        Expr::Union(a, b) => {
            let x = eval(a)?;
            Cow::Owned(x.union(&*eval(b)?))
        }
        Expr::Diff(a, b) => {
            let x = eval(a)?;
            Cow::Owned(x.difference(&*eval(b)?))
        }
        Expr::Intersect(a, b) => {
            let x = eval(a)?;
            Cow::Owned(x.intersection(&*eval(b)?))
        }
        Expr::Product(a, b) => {
            let x = eval(a)?;
            Cow::Owned(product(&x, &*eval(b)?))
        }
        Expr::Select(e, p) => match &**e {
            Expr::Product(a, b) => {
                let x = eval(a)?;
                let y = eval(b)?;
                Cow::Owned(select_product(guard, &x, &y, p)?)
            }
            _ => Cow::Owned(select(&*eval(e)?, p)),
        },
        Expr::Project(e, cols) => Cow::Owned(project(&*eval(e)?, cols)),
        Expr::Nest(e, cols) => Cow::Owned(nest(&*eval(e)?, cols)),
        Expr::Unnest(e, col) => Cow::Owned(unnest(&*eval(e)?, *col)),
        Expr::Powerset(e) => {
            let inst = eval(e)?;
            // charge 2^n against the cap before materializing; n at or
            // past the word width saturates instead of shifting out of
            // range (a 63-member instance already predicts 2^63)
            let predicted = match inst.len() {
                n if n >= usize::BITS as usize => usize::MAX,
                n => 1usize << n,
            };
            guard.check_value(predicted, None)?;
            Cow::Owned(powerset(&inst))
        }
        Expr::SetCollapse(e) => Cow::Owned(set_collapse(&*eval(e)?)),
        Expr::Singleton(e) => Cow::Owned(Instance::from_values([eval(e)?.to_set_value()])),
        Expr::Wrap(e) => Cow::Owned(wrap(&*eval(e)?)),
        Expr::Unwrap(e) => Cow::Owned(unwrap_tuples(&*eval(e)?)),
        Expr::Undefine(e) => {
            let inst = eval(e)?;
            if inst.is_empty() {
                return Err(EvalError::Undefined.into());
            }
            inst
        }
    };
    guard.check_value(out.len(), None)?;
    Ok(out)
}

/// `σ_p(x × y)`. The product is charged to the guard at its exact size
/// before anything is built, as if it had been materialized; when
/// [`EquiJoin::plan`] applies only the rows that pass `p` are then
/// built, otherwise the product is materialized and filtered.
fn select_product(
    guard: &mut Guard,
    x: &Instance,
    y: &Instance,
    p: &Pred,
) -> Result<Instance, Trip> {
    match EquiJoin::plan(x, p) {
        Some(join) => {
            guard.check_value(join.product_len(x, y), None)?;
            Ok(join.run(x, y))
        }
        None => {
            let prod = product(x, y);
            guard.check_value(prod.len(), None)?;
            Ok(select(&prod, p))
        }
    }
}

/// The tuple components of a product operand's member (a non-tuple acts
/// as a 1-tuple).
fn components(v: &Value) -> &[Value] {
    match v {
        Value::Tuple(items) => items,
        other => std::slice::from_ref(other),
    }
}

/// `σ_p(x × y)` as a hash join, for `p` with a conjunct `Col i = Col j`
/// and a left operand whose members all have one shape — all tuples of
/// one arity, or all non-tuples. Every product row then splits at the
/// same column `width`, so each of `i`, `j` reads a fixed side and the
/// product's size is exact without building it.
struct EquiJoin<'p> {
    /// Row width contributed by each member of the left operand.
    width: usize,
    /// The equated columns.
    cols: (usize, usize),
    /// The other conjuncts of `p`, checked on each joined row.
    rest: Vec<&'p Pred>,
}

impl<'p> EquiJoin<'p> {
    fn plan(x: &Instance, p: &'p Pred) -> Option<EquiJoin<'p>> {
        fn conjuncts<'p>(p: &'p Pred, out: &mut Vec<&'p Pred>) {
            match p {
                Pred::And(a, b) => {
                    conjuncts(a, out);
                    conjuncts(b, out);
                }
                other => out.push(other),
            }
        }
        let mut rest = Vec::new();
        conjuncts(p, &mut rest);
        let k = rest
            .iter()
            .position(|c| matches!(c, Pred::Eq(Operand::Col(_), Operand::Col(_))))?;
        let Pred::Eq(Operand::Col(i), Operand::Col(j)) = rest.remove(k) else {
            unreachable!("position matched an equality of columns")
        };
        // `None` for a non-tuple member, else the tuple's arity
        let shape = |v: &Value| v.as_tuple().map(<[Value]>::len);
        let mut members = x.iter();
        let width = match members.next() {
            None => 0,
            Some(first) => {
                let s = shape(first);
                if !members.all(|m| shape(m) == s) {
                    return None;
                }
                s.unwrap_or(1)
            }
        };
        Some(EquiJoin {
            width,
            cols: (*i, *j),
            rest,
        })
    }

    /// `|x × y|`: the left components determine the left member, so two
    /// rows coincide only when `y` holds both a non-tuple `v` and `[v]`.
    fn product_len(&self, x: &Instance, y: &Instance) -> usize {
        if x.is_empty() {
            return 0;
        }
        let aliased = y
            .iter()
            .filter(|v| {
                v.as_tuple().is_none() && y.values().contains(&Value::Tuple(vec![(*v).clone()]))
            })
            .count();
        x.len() * (y.len() - aliased)
    }

    fn run(&self, x: &Instance, y: &Instance) -> Instance {
        let mut out = Instance::empty();
        let mut emit = |l: &[Value], r: &[Value]| {
            let mut row = Vec::with_capacity(l.len() + r.len());
            row.extend_from_slice(l);
            row.extend_from_slice(r);
            let row = Value::Tuple(row);
            if self.rest.iter().all(|c| c.eval(&row) == Some(true)) {
                out.insert(row);
            }
        };
        let w = self.width;
        let (i, j) = self.cols;
        match (i.checked_sub(w), j.checked_sub(w)) {
            // both columns on the left: filter x, pair with all of y
            (None, None) => {
                for l in x.iter().map(components).filter(|l| l[i] == l[j]) {
                    for r in y.iter().map(components) {
                        emit(l, r);
                    }
                }
            }
            // both on the right: filter y, pair with all of x
            (Some(i), Some(j)) => {
                let ys: Vec<&[Value]> = y
                    .iter()
                    .map(components)
                    .filter(|r| matches!((r.get(i), r.get(j)), (Some(a), Some(b)) if a == b))
                    .collect();
                for l in x.iter().map(components) {
                    for &r in &ys {
                        emit(l, r);
                    }
                }
            }
            // one on each side: index y by its column, probe with x's
            (None, Some(rc)) | (Some(rc), None) => {
                let lc = if i < w { i } else { j };
                let mut index: HashMap<&Value, Vec<&[Value]>> = HashMap::new();
                for r in y.iter().map(components) {
                    if let Some(key) = r.get(rc) {
                        index.entry(key).or_default().push(r);
                    }
                }
                for l in x.iter().map(components) {
                    for &r in index.get(&l[lc]).into_iter().flatten() {
                        emit(l, r);
                    }
                }
            }
        }
        out
    }
}

/// Cartesian product with tuple concatenation.
pub fn product(a: &Instance, b: &Instance) -> Instance {
    let mut out = Instance::empty();
    for xs in a.iter().map(components) {
        for ys in b.iter().map(components) {
            let mut row = Vec::with_capacity(xs.len() + ys.len());
            row.extend_from_slice(xs);
            row.extend_from_slice(ys);
            out.insert(Value::Tuple(row));
        }
    }
    out
}

/// Selection; members where the predicate is inapplicable are dropped.
pub fn select(inst: &Instance, pred: &Pred) -> Instance {
    inst.iter()
        .filter(|m| pred.eval(m) == Some(true))
        .cloned()
        .collect()
}

/// Projection; wrong-shape members are dropped. One column yields bare
/// values; several yield tuples.
pub fn project(inst: &Instance, cols: &[usize]) -> Instance {
    let mut out = Instance::empty();
    'member: for m in inst.iter() {
        let mut picked = Vec::with_capacity(cols.len());
        for &c in cols {
            match m.project(c) {
                Some(v) => picked.push(v.clone()),
                None => continue 'member,
            }
        }
        let v = match <[Value; 1]>::try_from(picked) {
            Ok([single]) => single,
            Err(picked) => Value::Tuple(picked),
        };
        out.insert(v);
    }
    out
}

/// Nest ν: group by the complement of `cols`; the grouped columns become a
/// set appended after the grouping columns. Wrong-shape members dropped.
pub fn nest(inst: &Instance, cols: &[usize]) -> Instance {
    use std::collections::BTreeMap;
    let nested: BTreeSet<usize> = cols.iter().copied().collect();
    let mut groups: BTreeMap<Vec<Value>, BTreeSet<Value>> = BTreeMap::new();
    for m in inst.iter() {
        let Some(items) = m.as_tuple() else { continue };
        if cols.iter().any(|&c| c >= items.len()) {
            continue;
        }
        let key: Vec<Value> = items
            .iter()
            .enumerate()
            .filter(|(i, _)| !nested.contains(i))
            .map(|(_, v)| v.clone())
            .collect();
        let sub: Vec<Value> = cols.iter().map(|&c| items[c].clone()).collect();
        let sub_val = match <[Value; 1]>::try_from(sub) {
            Ok([single]) => single,
            Err(sub) => Value::Tuple(sub),
        };
        groups.entry(key).or_default().insert(sub_val);
    }
    let mut out = Instance::empty();
    for (key, members) in groups {
        let mut row = key;
        row.push(Value::Set(members));
        out.insert(Value::Tuple(row));
    }
    out
}

/// Unnest μ on column `col`: splice each set member (coerced to tuple) in
/// place of the set. Members whose `col` is not a set are dropped.
pub fn unnest(inst: &Instance, col: usize) -> Instance {
    let mut out = Instance::empty();
    for m in inst.iter() {
        let Some(items) = m.as_tuple() else { continue };
        let Some(set) = items.get(col).and_then(Value::as_set) else {
            continue;
        };
        for member in set {
            let mut row: Vec<Value> = Vec::with_capacity(items.len() + 1);
            row.extend(items[..col].iter().cloned());
            row.extend_from_slice(components(member));
            row.extend(items[col + 1..].iter().cloned());
            out.insert(Value::Tuple(row));
        }
    }
    out
}

/// Powerset of the instance, as set objects.
pub fn powerset(inst: &Instance) -> Instance {
    let members: Vec<Value> = inst.iter().cloned().collect();
    uset_object::cons::powerset(&members).into_iter().collect()
}

/// Remove one set level: union of all set-shaped members.
pub fn set_collapse(inst: &Instance) -> Instance {
    let mut out = Instance::empty();
    for m in inst.iter() {
        if let Some(s) = m.as_set() {
            for v in s {
                out.insert(v.clone());
            }
        }
    }
    out
}

/// Wrap each member as a 1-tuple.
pub fn wrap(inst: &Instance) -> Instance {
    inst.iter().map(|v| Value::Tuple(vec![v.clone()])).collect()
}

/// Unwrap 1-tuples; other members dropped.
pub fn unwrap_tuples(inst: &Instance) -> Instance {
    inst.iter()
        .filter_map(|v| match v {
            Value::Tuple(items) if items.len() == 1 => Some(items[0].clone()),
            _ => None,
        })
        .collect()
}

/// Evaluate a program on a database. Input relations enter the environment
/// under their database names; the answer is the final value of `ANS`.
pub fn eval_program(prog: &Program, db: &Database, config: &EvalConfig) -> EvalResult<Instance> {
    eval_program_governed(prog, db, &Governor::new(config.budget()))
}

/// Evaluate a program under a shared-layer [`Governor`] (budget +
/// cancellation + optional failpoint). On exhaustion the error carries the
/// environment at the last completed statement boundary and work counters.
pub fn eval_program_governed(
    prog: &Program,
    db: &Database,
    governor: &Governor,
) -> EvalResult<Instance> {
    // algebra synthesizes its stats from the guard meters, so recovery
    // only needs the meters restored
    let stats = &mut EvalStats::default();
    let fingerprint = || alg_fingerprint(prog, db);
    let mut env = governor.run(ENGINE, stats, fingerprint, alg_decode, |run, _, resume| {
        let inputs = || db.iter().map(|(n, i)| (n.to_owned(), i.clone())).collect();
        let (pc, in_while, env, commits) = resume.unwrap_or_else(|| (0, false, inputs(), 0));
        let mut ev = Evaluator { env, run, commits };
        match ev.run_top(&prog.stmts, pc, in_while) {
            Ok(()) => Ok(ev.env),
            Err(RunErr::Fail(e)) => Err(e),
            Err(RunErr::Trip(trip)) => {
                let stats = ev.stats();
                let partial = PartialEnv {
                    env: ev.env.into_iter().collect(),
                };
                Err(EvalError::Exhausted(Box::new(Exhausted::new(
                    trip, partial, stats,
                ))))
            }
        }
    })?;
    env.remove(ANS).ok_or(EvalError::NoAnswer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::{atom, set, tuple};

    fn db_r(rows: Vec<Vec<Value>>) -> Database {
        let mut db = Database::empty();
        db.set("R", Instance::from_rows(rows));
        db
    }

    fn run(prog: Program, db: &Database) -> EvalResult<Instance> {
        eval_program(&prog, db, &EvalConfig::default())
    }

    #[test]
    fn identity_query() {
        let db = db_r(vec![vec![atom(1), atom(2)]]);
        let prog = Program::new(vec![Stmt::assign(ANS, Expr::var("R"))]);
        assert_eq!(run(prog, &db).unwrap(), db.get("R"));
    }

    #[test]
    fn product_concatenates_tuples() {
        let a = Instance::from_rows([[atom(1), atom(2)]]);
        let b = Instance::from_rows([[atom(3)]]);
        let p = product(&a, &b);
        assert_eq!(
            p,
            Instance::from_values([tuple([atom(1), atom(2), atom(3)])])
        );
        // bare values act as 1-tuples
        let bare = Instance::from_values([atom(9)]);
        let p2 = product(&bare, &bare);
        assert_eq!(p2, Instance::from_values([tuple([atom(9), atom(9)])]));
    }

    #[test]
    fn select_skips_wrong_shapes() {
        let het = Instance::from_values([
            tuple([atom(1), atom(1)]),
            tuple([atom(1), atom(2)]),
            atom(7), // not a tuple: skipped, not an error
        ]);
        let sel = select(&het, &Pred::eq_cols(0, 1));
        assert_eq!(sel, Instance::from_values([tuple([atom(1), atom(1)])]));
    }

    #[test]
    fn project_single_column_is_bare() {
        let inst = Instance::from_rows([[atom(1), atom(2)], [atom(3), atom(4)]]);
        assert_eq!(
            project(&inst, &[0]),
            Instance::from_values([atom(1), atom(3)])
        );
        assert_eq!(
            project(&inst, &[1, 0]),
            Instance::from_values([tuple([atom(2), atom(1)]), tuple([atom(4), atom(3)])])
        );
    }

    #[test]
    fn nest_unnest_roundtrip_modulo_column_order() {
        let inst = Instance::from_rows([
            [atom(1), atom(10)],
            [atom(1), atom(11)],
            [atom(2), atom(20)],
        ]);
        let nested = nest(&inst, &[1]);
        assert_eq!(
            nested,
            Instance::from_values([
                tuple([atom(1), set([atom(10), atom(11)])]),
                tuple([atom(2), set([atom(20)])]),
            ])
        );
        let flat = unnest(&nested, 1);
        assert_eq!(flat, inst);
    }

    #[test]
    fn nest_multiple_columns_makes_tuples() {
        let inst = Instance::from_rows([[atom(1), atom(2), atom(3)]]);
        let nested = nest(&inst, &[1, 2]);
        assert_eq!(
            nested,
            Instance::from_values([tuple([atom(1), set([tuple([atom(2), atom(3)])])])])
        );
    }

    #[test]
    fn powerset_and_collapse() {
        let inst = Instance::from_values([atom(1), atom(2)]);
        let pow = powerset(&inst);
        assert_eq!(pow.len(), 4);
        assert!(pow.contains(&Value::empty_set()));
        assert!(pow.contains(&set([atom(1), atom(2)])));
        // collapse of the powerset recovers the original members
        assert_eq!(set_collapse(&pow), inst);
    }

    #[test]
    fn wrap_unwrap_inverse() {
        let inst = Instance::from_values([atom(1), set([atom(2)])]);
        assert_eq!(unwrap_tuples(&wrap(&inst)), inst);
        // unwrap drops non-1-tuples
        let mixed = Instance::from_values([tuple([atom(1)]), tuple([atom(1), atom(2)]), atom(3)]);
        assert_eq!(unwrap_tuples(&mixed), Instance::from_values([atom(1)]));
    }

    #[test]
    fn undefine_produces_undefined() {
        let db = db_r(vec![]);
        let prog = Program::new(vec![Stmt::assign(ANS, Expr::var("R").undefine())]);
        assert_eq!(run(prog, &db), Err(EvalError::Undefined));

        let db2 = db_r(vec![vec![atom(1), atom(2)]]);
        let prog2 = Program::new(vec![Stmt::assign(ANS, Expr::var("R").undefine())]);
        assert!(run(prog2, &db2).is_ok());
    }

    #[test]
    fn while_loop_drains_condition() {
        // drain R one "round" by emptying y immediately; z gets x
        let db = db_r(vec![vec![atom(1), atom(2)]]);
        let prog = Program::new(vec![
            Stmt::assign("x", Expr::var("R")),
            Stmt::assign("y", Expr::var("R")),
            Stmt::while_loop(
                "z",
                "x",
                "y",
                vec![
                    Stmt::assign("x", Expr::var("x").union(Expr::var("x"))),
                    Stmt::assign("y", Expr::var("y").diff(Expr::var("y"))),
                ],
            ),
            Stmt::assign(ANS, Expr::var("z")),
        ]);
        assert_eq!(run(prog, &db).unwrap(), db.get("R"));
    }

    #[test]
    fn while_zero_iterations() {
        let db = db_r(vec![vec![atom(1), atom(2)]]);
        let prog = Program::new(vec![
            Stmt::assign("x", Expr::var("R")),
            Stmt::assign("empty", Expr::var("R").diff(Expr::var("R"))),
            Stmt::while_loop(
                "z",
                "x",
                "empty",
                vec![Stmt::assign("x", Expr::var("empty"))],
            ),
            Stmt::assign(ANS, Expr::var("z")),
        ]);
        // body never runs, so z = x = R
        assert_eq!(run(prog, &db).unwrap(), db.get("R"));
    }

    #[test]
    fn divergent_while_hits_fuel() {
        let db = db_r(vec![vec![atom(1), atom(2)]]);
        let prog = Program::new(vec![
            Stmt::assign("x", Expr::var("R")),
            Stmt::while_loop(
                "z",
                "x",
                "x",
                vec![Stmt::assign("x", Expr::var("x"))], // never empties
            ),
            Stmt::assign(ANS, Expr::var("z")),
        ]);
        let cfg = EvalConfig {
            fuel: 1000,
            ..EvalConfig::default()
        };
        match eval_program(&prog, &db, &cfg) {
            Err(EvalError::Exhausted(e)) => {
                assert_eq!(e.trip.resource, uset_guard::Resource::Steps);
                assert_eq!(e.trip.engine, EngineId::Algebra);
                // the partial snapshot retains the loop-carried state
                assert!(!e.partial.env.is_empty());
                assert_eq!(e.partial.env["x"], db.get("R"));
                assert!(e.stats.rounds > 0);
            }
            other => panic!("expected Exhausted(Steps), got {other:?}"),
        }
    }

    #[test]
    fn unbound_variable_detected() {
        let db = db_r(vec![]);
        let prog = Program::new(vec![Stmt::assign(ANS, Expr::var("nope"))]);
        assert_eq!(run(prog, &db), Err(EvalError::Unbound("nope".to_owned())));
    }

    #[test]
    fn missing_ans_detected() {
        let db = db_r(vec![]);
        let prog = Program::new(vec![Stmt::assign("x", Expr::var("R"))]);
        assert_eq!(run(prog, &db), Err(EvalError::NoAnswer));
    }

    #[test]
    fn powerset_size_guard() {
        let big: Vec<Vec<Value>> = (0..40).map(|i| vec![atom(i), atom(i)]).collect();
        let db = db_r(big);
        let prog = Program::new(vec![Stmt::assign(ANS, Expr::var("R").powerset())]);
        let cfg = EvalConfig {
            max_instance_len: 1 << 16,
            ..EvalConfig::default()
        };
        match eval_program(&prog, &db, &cfg) {
            Err(EvalError::Exhausted(e)) => {
                assert_eq!(e.trip.resource, uset_guard::Resource::ValueSize);
                // inputs survive in the snapshot even though ANS never landed
                assert!(e.partial.env.contains_key("R"));
            }
            other => panic!("expected Exhausted(ValueSize), got {other:?}"),
        }
    }

    #[test]
    fn failpoint_cancels_mid_program() {
        use uset_guard::{FailPoint, Resource};
        let db = db_r(vec![vec![atom(1), atom(2)]]);
        let prog = Program::new(vec![
            Stmt::assign("x", Expr::var("R")),
            Stmt::assign("y", Expr::var("x")),
            Stmt::assign(ANS, Expr::var("y")),
        ]);
        let gov = Governor::unlimited().with_failpoint(FailPoint::cancel_at(2));
        match eval_program_governed(&prog, &db, &gov) {
            Err(EvalError::Exhausted(e)) => {
                assert_eq!(e.trip.resource, Resource::Cancelled);
                // statement 1 completed before the injected cancellation
                assert_eq!(e.partial.env["x"], db.get("R"));
            }
            other => panic!("expected Exhausted(Cancelled), got {other:?}"),
        }
    }

    #[test]
    fn nest_skips_out_of_range_columns_and_non_tuples() {
        let het = Instance::from_values([
            tuple([atom(1), atom(2)]),
            tuple([atom(9)]), // too short for col 1
            atom(7),          // not a tuple
        ]);
        let out = nest(&het, &[1]);
        assert_eq!(
            out,
            Instance::from_values([tuple([atom(1), set([atom(2)])])])
        );
    }

    #[test]
    fn unnest_skips_non_set_columns() {
        let inst = Instance::from_values([
            tuple([atom(1), set([atom(2)])]),
            tuple([atom(3), atom(4)]), // col 1 not a set
            atom(5),
        ]);
        assert_eq!(
            unnest(&inst, 1),
            Instance::from_values([tuple([atom(1), atom(2)])])
        );
        // unnesting an empty set drops the member entirely
        let empty_set_member = Instance::from_values([tuple([atom(1), Value::empty_set()])]);
        assert_eq!(unnest(&empty_set_member, 1), Instance::empty());
    }

    #[test]
    fn singleton_of_empty_is_the_empty_set_object() {
        let db = db_r(vec![]);
        let prog = Program::new(vec![Stmt::assign(ANS, Expr::var("R").singleton())]);
        assert_eq!(
            run(prog, &db).unwrap(),
            Instance::from_values([Value::empty_set()])
        );
    }

    #[test]
    fn product_with_empty_is_empty() {
        let a = Instance::from_rows([[atom(1)]]);
        assert_eq!(product(&a, &Instance::empty()), Instance::empty());
        assert_eq!(product(&Instance::empty(), &a), Instance::empty());
    }

    #[test]
    fn set_collapse_ignores_non_sets() {
        let mixed = Instance::from_values([
            set([atom(1), atom(2)]),
            atom(3),
            tuple([atom(4)]),
            set([tuple([atom(5), atom(6)])]),
        ]);
        assert_eq!(
            set_collapse(&mixed),
            Instance::from_values([atom(1), atom(2), tuple([atom(5), atom(6)])])
        );
    }

    #[test]
    fn project_repeated_columns_duplicates() {
        let inst = Instance::from_rows([[atom(1), atom(2)]]);
        assert_eq!(
            project(&inst, &[0, 0, 1]),
            Instance::from_values([tuple([atom(1), atom(1), atom(2)])])
        );
    }

    #[test]
    fn while_out_variable_assigned_even_after_zero_runs() {
        // z is the *only* handle on x per the paper's syntax
        let db = db_r(vec![vec![atom(1), atom(2)]]);
        let prog = Program::new(vec![
            Stmt::assign("x", Expr::var("R")),
            Stmt::assign("none", Expr::var("R").diff(Expr::var("R"))),
            Stmt::while_loop("z", "x", "none", vec![Stmt::assign("x", Expr::var("none"))]),
            Stmt::assign(ANS, Expr::var("z").union(Expr::var("z"))),
        ]);
        assert_eq!(run(prog, &db).unwrap(), db.get("R"));
    }

    #[test]
    fn joined_select_trips_like_the_materialized_product() {
        use uset_guard::Resource;
        // a uniform left operand (joined by hash) against a right one that
        // holds a bare value next to its own 1-tuple: the two build the
        // same product rows, so |A × B| = 3 × 3, not 3 × 4
        let a = Instance::from_rows([[atom(1), atom(2)], [atom(2), atom(3)], [atom(3), atom(4)]]);
        let b = Instance::from_values([
            atom(2),
            tuple([atom(2)]),
            tuple([atom(3), atom(5)]),
            tuple([atom(4), atom(6), atom(7)]),
        ]);
        let full = product(&a, &b).len();
        assert_eq!(full, 9);
        let mut db = Database::empty();
        db.set("A", a);
        db.set("B", b);
        let prog = |p: Pred| {
            Program::new(vec![
                Stmt::assign("x", Expr::var("A")),
                Stmt::assign(ANS, Expr::var("x").product(Expr::var("B")).select(p)),
            ])
        };
        let joined = prog(Pred::eq_cols(1, 2));
        // a disjunction is not joined: this one materializes the product
        let materialized = prog(Pred::eq_cols(1, 2).or(Pred::eq_cols(1, 2)));
        let run = |prog: &Program, cap: usize| {
            let gov = Governor::new(Budget::unlimited().with_value_size(cap));
            eval_program_governed(prog, &db, &gov)
        };
        let tripped = run(&joined, full - 1);
        match &tripped {
            Err(EvalError::Exhausted(e)) => {
                assert_eq!(e.trip.resource, Resource::ValueSize);
                assert_eq!(e.trip.consumed, full as u64);
                assert_eq!(e.partial.env["x"], db.get("A"));
            }
            other => panic!("expected Exhausted(ValueSize), got {other:?}"),
        }
        assert_eq!(tripped, run(&materialized, full - 1));
        // at exactly the product's size both complete, with one answer
        let answer = run(&joined, full).unwrap();
        assert_eq!(
            answer,
            Instance::from_values([
                tuple([atom(1), atom(2), atom(2)]),
                tuple([atom(2), atom(3), atom(3), atom(5)]),
                tuple([atom(3), atom(4), atom(4), atom(6), atom(7)]),
            ])
        );
        assert_eq!(answer, run(&materialized, full).unwrap());
    }

    #[test]
    fn membership_select_on_nested_data() {
        // pairs [v, S] where v ∈ S
        let inst = Instance::from_values([
            tuple([atom(1), set([atom(1), atom(2)])]),
            tuple([atom(3), set([atom(1), atom(2)])]),
        ]);
        let mut db = Database::empty();
        db.set("R", inst);
        let prog = Program::new(vec![Stmt::assign(
            ANS,
            Expr::var("R").select(Pred::Member(Operand::Col(0), Operand::Col(1))),
        )]);
        let out = run(prog, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple([atom(1), set([atom(1), atom(2)])])));
    }
}
