//! Evaluation of COL programs: stratified and inflationary semantics.
//!
//! Rules compile into the plans DATALOG¬ runs too ([`Plan::compile`] with
//! [`Dialect::Col`]) and fire on the round driver the rule engines share
//! ([`uset_guard::rounds`]): each round derives everything from the
//! settled pre-round state, then inserts, so the state is never cloned.
//! Two strategies are interchangeable ([`ColStrategy`]):
//!
//! * **naive** — every rule fires against the pre-round state each round;
//!   the reference implementation.
//! * **semi-naive** (the default) — each rule is classified once per
//!   engine run: a rule reading no symbol defined in the run fires only
//!   in the first round; one whose same-run reads are all monotone fires
//!   once per such literal, restricted to the previous round's delta; one
//!   with a non-monotone same-run read re-fires in full.
//!
//! This module supplies COL's state, delta sharding, fact insertion and
//! checkpoint codec. Settled probes go through the
//! [`IdIndex`](uset_object::IdIndex)es the engine keeps per probed column,
//! and every engine threads an [`EvalStats`] of work counters.
//!
//! Untyped COL programs can diverge — e.g. the chain rules of Theorem 5.1
//! without a guard — so the engine runs under the shared [`uset_guard`]
//! layer: a round budget and a total-fact budget, the latter charged at
//! every admitted fact (a single round can derive quadratically many
//! facts), plus cooperative cancellation and wall-clock deadlines.
//! Exceeding any budget reports [`ColEvalError::Exhausted`] — the
//! observable stand-in for the paper's undefined output `?` — carrying the
//! state at the last completed round, which both strategies agree on.

use crate::col::ast::ColProgram;
use crate::col::stratify::stratify;
use crate::plan::{
    self, render_func_fact, render_pred_fact, DeltaIn, Dialect, FuncGraph, FuncGraphs, HeadFact,
    Indexes, Plan, State, Step, Unbound,
};
use std::collections::{BTreeMap, BTreeSet};
use uset_guard::ckpt;
use uset_guard::rounds::{
    self, Derived, Engine, Mark, OutOfRounds, Probes, Resume, RuleClass, Unit,
};
use uset_guard::{Budget, EngineId, Exhausted, Governor, ParBrake};
use uset_object::{Database, EvalStats, Instance, Pool, Value};
use uset_par::shard_of;

/// Evaluation state: predicate extents and data-function graphs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColState {
    /// Predicate name → extent. Unary predicates hold bare objects; n-ary
    /// predicates (n ≥ 2) hold n-tuples.
    pub preds: BTreeMap<String, Instance>,
    /// Function symbol → argument tuple → set value.
    pub funcs: FuncGraphs,
}

impl State for ColState {
    fn rel(&self, pred: &str) -> Option<&Instance> {
        self.preds.get(pred)
    }

    fn funcs(&self) -> &FuncGraphs {
        &self.funcs
    }
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

impl From<Unbound> for ColEvalError {
    fn from(u: Unbound) -> ColEvalError {
        ColEvalError::NonGround(u.var)
    }
}

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

/// Per-round delta: facts newly inserted in the previous round.
#[derive(Clone, Debug, Default)]
struct ColDelta {
    preds: BTreeMap<String, Instance>,
    funcs: FuncGraphs,
}

impl ColDelta {
    /// What body literal `step` reads of the delta: its predicate's new
    /// rows, or the data functions' new members.
    fn at(&self, step: &Step) -> DeltaIn<'_> {
        match step.pred() {
            Some(p) => DeltaIn::Rows(self.preds.get(p).unwrap_or(plan::empty())),
            None => DeltaIn::Funcs(&self.funcs),
        }
    }
}

/// Engine label carried by every COL trace event.
const ENGINE: &str = "col";

/// One derived fact: the head symbol and the row or member derived.
type ColFact = (String, HeadFact);

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
    type Rule = Plan;
    type State = ColState;
    type Delta = ColDelta;
    type Indexes = Indexes;
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

    /// Under stratified semantics the snapshot class never arises —
    /// stratification lifts strong dependencies to higher strata — so it
    /// only appears under inflationary semantics, where full
    /// re-evaluation against the pre-round state is exactly the naive
    /// semantics of those rules.
    fn classify(&self, rules: &[(usize, &Plan)]) -> Vec<RuleClass> {
        plan::classify(rules, self.strategy == ColStrategy::Naive)
    }

    fn probes(&self, plan: &Plan, delta: Option<usize>, out: &mut Probes) {
        plan.probes(delta, out);
    }

    fn index(&self, state: &ColState, keep: &Probes, indexes: &mut Indexes) {
        plan::index(state, keep, indexes);
    }

    fn fire(
        &self,
        unit: &Unit<'_, Self>,
        state: &ColState,
        indexes: &Indexes,
        want_prov: bool,
        out: &mut Vec<Derived<ColFact>>,
        stats: &mut EvalStats,
        brake: &ParBrake,
    ) -> Result<(), ColEvalError> {
        let plan = unit.rule;
        let delta = unit.delta().map(|(d, pos)| (pos, d.at(&plan.body[pos])));
        let count_prefix = unit.count_prefix;
        let Some(frames) = plan.fire(state, indexes, delta, count_prefix, brake, stats)? else {
            return Ok(());
        };
        for f in &frames {
            let parents = if want_prov {
                Some(plan.parents(f, &state.funcs)?)
            } else {
                None
            };
            out.push(Derived {
                fact: (plan.defines().to_owned(), plan.head(f, &state.funcs)?),
                rule: unit.idx,
                parents,
            });
        }
        Ok(())
    }

    /// Shards hold just the symbol read at `pos`, partitioned by stable
    /// fact hash.
    fn shard(&self, plan: &Plan, pos: usize, delta: &ColDelta, workers: usize) -> Vec<ColDelta> {
        let step = &plan.body[pos];
        if let Some((name, rows)) = step.pred().and_then(|p| delta.preds.get_key_value(p)) {
            let mut shards: Vec<Instance> = (0..workers).map(|_| Instance::empty()).collect();
            for row in rows.iter() {
                shards[shard_of(row, workers)].insert(row.clone());
            }
            return shards
                .into_iter()
                .filter(|s| !s.is_empty())
                .map(|s| ColDelta {
                    preds: BTreeMap::from([(name.clone(), s)]),
                    funcs: BTreeMap::new(),
                })
                .collect();
        }
        let Some((f, graph)) = step.symbol().and_then(|f| delta.funcs.get_key_value(f)) else {
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

    fn settled(&self, state: &ColState, (symbol, fact): &ColFact) -> bool {
        match fact {
            HeadFact::Row(row) => state.preds.get(symbol).is_some_and(|r| r.contains(row)),
            HeadFact::Member(args, elem) => state
                .funcs
                .get(symbol)
                .and_then(|graph| graph.get(args))
                .is_some_and(|slot| slot.contains(elem)),
        }
    }

    /// Each admitted fact is inserted in admission order, noted in the
    /// kept indexes of its relation, and moved into the delta.
    fn commit(
        &self,
        state: &mut ColState,
        indexes: &mut Indexes,
        facts: Vec<ColFact>,
        _: Vec<ColFact>,
    ) -> ColDelta {
        let mut delta = ColDelta::default();
        for (symbol, fact) in facts {
            match fact {
                HeadFact::Row(row) => {
                    state.insert_pred_row(&symbol, &row);
                    if indexes.contains_key(&symbol) {
                        plan::note_insert(indexes, &symbol, Pool::global().intern(&row));
                    }
                    delta.preds.entry(symbol).or_default().insert(row);
                }
                HeadFact::Member(args, elem) => {
                    state.insert_func_member(&symbol, &args, &elem);
                    let graph = delta.funcs.entry(symbol).or_default();
                    graph.entry(args).or_default().insert(elem);
                }
            }
        }
        delta
    }

    fn render(&self, (symbol, fact): &ColFact) -> String {
        match fact {
            HeadFact::Row(row) => render_pred_fact(symbol, row),
            HeadFact::Member(args, elem) => render_func_fact(symbol, args, elem),
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
    let plans: Vec<Plan> = prog
        .rules
        .iter()
        .map(|r| Plan::compile(r, Dialect::Col))
        .collect();
    let strata: Vec<Vec<(usize, &Plan)>> = strata
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
        let classify = |rule: &ColRule, run| Plan::compile(rule, Dialect::Col).class(run);
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
