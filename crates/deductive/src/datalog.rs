//! Flat DATALOG with negation — the baseline deductive language.
//!
//! Two semantics are implemented:
//!
//! * **stratified**: the program is split into strata so that negation
//!   never occurs inside a recursion; each stratum is evaluated to its
//!   least fixpoint over the previous strata.
//! * **inflationary** (Kolaitis–Papadimitriou): all rules fire
//!   simultaneously against the *current* state, derived facts accumulate,
//!   and iteration stops at the (always-reached) fixpoint.
//!
//! On flat relations stratified DATALOG¬ is strictly weaker than
//! inflationary DATALOG¬ — the asymmetry that Theorem 5.1 shows disappears
//! for COL with untyped sets.

use crate::plan::{self, render_pred_fact, slot_of, DeltaIn, Indexes, Plan, Unbound};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use uset_guard::ckpt;
use uset_guard::rounds::{
    self, Derived, Engine, Mark, OutOfRounds, Probes, Resume, RuleClass, Unit,
};
use uset_guard::{Budget, EngineId, Exhausted, Governor, ParBrake};
use uset_object::intern::FxBuildHasher;
use uset_object::{Database, EvalStats, Instance, ObjRef, Pool, Value};
use uset_par::shard_of;

/// A term: a variable or a constant atom value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DlTerm {
    /// Variable.
    Var(String),
    /// Constant.
    Const(Value),
}

impl DlTerm {
    /// Shorthand variable.
    pub fn var(name: &str) -> DlTerm {
        DlTerm::Var(name.to_owned())
    }
}

/// A predicate atom `P(t1, …, tn)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlAtom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<DlTerm>,
}

impl DlAtom {
    /// Build an atom.
    pub fn new(pred: &str, args: Vec<DlTerm>) -> DlAtom {
        DlAtom {
            pred: pred.to_owned(),
            args,
        }
    }
}

/// A possibly negated body literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlLiteral {
    /// Polarity: false = negated.
    pub positive: bool,
    /// The atom.
    pub atom: DlAtom,
}

/// A rule `head ← body`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DlRule {
    /// Head atom.
    pub head: DlAtom,
    /// Body literals (evaluated left to right for binding).
    pub body: Vec<DlLiteral>,
}

impl DlRule {
    /// Build a rule from a head and `(positive, atom)` body entries.
    pub fn new(head: DlAtom, body: Vec<(bool, DlAtom)>) -> DlRule {
        DlRule {
            head,
            body: body
                .into_iter()
                .map(|(positive, atom)| DlLiteral { positive, atom })
                .collect(),
        }
    }
}

/// A DATALOG¬ program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DatalogProgram {
    /// The rules.
    pub rules: Vec<DlRule>,
}

/// The DATALOG¬ engine's exhaustion report: the snapshot is the database
/// (EDB + IDB derived so far) at the last completed round.
pub type DlExhausted = Exhausted<Database>;

/// Errors from DATALOG evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DlError {
    /// A head or negated variable does not occur in a positive body
    /// literal.
    Unsafe(String),
    /// A head or negated-literal variable was still unbound when a rule
    /// fired — only reachable if evaluation is driven without
    /// [`DatalogProgram::check_safety`].
    UnboundAtFiring {
        /// The unbound variable.
        var: String,
        /// The predicate being instantiated (head or negated literal).
        pred: String,
    },
    /// The program has negation inside recursion (stratified mode only).
    NotStratifiable(String),
    /// A resource budget was exhausted or the run was cancelled; carries
    /// the database at the last completed round.
    Exhausted(Box<DlExhausted>),
}

impl DlError {
    /// The exhaustion report, if this is a budget/cancellation error.
    pub fn exhausted(&self) -> Option<&DlExhausted> {
        match self {
            DlError::Exhausted(e) => Some(e),
            _ => None,
        }
    }
}

impl fmt::Display for DlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlError::Unsafe(v) => write!(f, "unsafe variable {v}"),
            DlError::UnboundAtFiring { var, pred } => write!(
                f,
                "variable {var} of {pred} unbound at rule firing (rule is unsafe)"
            ),
            DlError::NotStratifiable(p) => {
                write!(f, "negation through recursion at predicate {p}")
            }
            DlError::Exhausted(e) => write!(f, "datalog evaluation exhausted: {e}"),
        }
    }
}

impl std::error::Error for DlError {}

impl From<Unbound> for DlError {
    fn from(u: Unbound) -> DlError {
        DlError::UnboundAtFiring {
            var: u.var,
            pred: u.at,
        }
    }
}

/// Engine label carried by every DATALOG¬ trace event.
const ENGINE: &str = "datalog";

impl DatalogProgram {
    /// Build from rules.
    pub fn new(rules: Vec<DlRule>) -> DatalogProgram {
        DatalogProgram { rules }
    }

    /// Safety check: every head variable and every variable in a negated
    /// literal must occur in some positive body literal.
    pub fn check_safety(&self) -> Result<(), DlError> {
        for rule in &self.rules {
            let mut positive_vars: BTreeSet<&str> = BTreeSet::new();
            for lit in &rule.body {
                if lit.positive {
                    for t in &lit.atom.args {
                        if let DlTerm::Var(v) = t {
                            positive_vars.insert(v);
                        }
                    }
                }
            }
            let check = |args: &[DlTerm]| -> Result<(), DlError> {
                for t in args {
                    if let DlTerm::Var(v) = t {
                        if !positive_vars.contains(v.as_str()) {
                            return Err(DlError::Unsafe(v.clone()));
                        }
                    }
                }
                Ok(())
            };
            check(&rule.head.args)?;
            for lit in &rule.body {
                if !lit.positive {
                    check(&lit.atom.args)?;
                }
            }
        }
        Ok(())
    }

    /// Intensional (head) predicates.
    pub fn idb_predicates(&self) -> BTreeSet<String> {
        self.rules.iter().map(|r| r.head.pred.clone()).collect()
    }

    /// Compute the stratification: predicate → stratum index. Errors if
    /// negation occurs through recursion.
    pub fn stratify(&self) -> Result<BTreeMap<String, usize>, DlError> {
        // iterate stratum assignment to fixpoint (standard algorithm)
        let idb = self.idb_predicates();
        let mut stratum: BTreeMap<String, usize> = idb.iter().map(|p| (p.clone(), 0)).collect();
        let bound = idb.len() + 1;
        loop {
            let mut changed = false;
            for rule in &self.rules {
                let h = stratum[&rule.head.pred];
                for lit in &rule.body {
                    let Some(&b) = stratum.get(&lit.atom.pred) else {
                        continue; // EDB predicate: stratum 0 implicitly
                    };
                    let required = if lit.positive { b } else { b + 1 };
                    if required > h {
                        stratum.insert(rule.head.pred.clone(), required);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
            if stratum.values().any(|&s| s > bound) {
                // a stratum exceeding the predicate count means a negative
                // cycle
                let culprit = stratum
                    .iter()
                    .max_by_key(|(_, s)| **s)
                    .map(|(p, _)| p.clone())
                    .unwrap_or_default();
                return Err(DlError::NotStratifiable(culprit));
            }
        }
        Ok(stratum)
    }

    /// Stratified evaluation: returns the database extended with all IDB
    /// relations.
    pub fn eval_stratified(&self, db: &Database, fuel: u64) -> Result<Database, DlError> {
        self.eval_stratified_governed(db, &fuel_governor(fuel), &mut EvalStats::default())
    }

    /// Stratified evaluation under a shared-layer [`Governor`] (one guard
    /// for the whole run: the step budget bounds rounds summed across
    /// strata). On exhaustion the error carries the database at the last
    /// completed round.
    pub fn eval_stratified_governed(
        &self,
        db: &Database,
        governor: &Governor,
        stats: &mut EvalStats,
    ) -> Result<Database, DlError> {
        self.check_safety()?;
        let strata = self.strata()?;
        self.governed("stratified", true, &strata, db, governor, stats)
    }

    /// Inflationary evaluation: all rules fire cumulatively until fixpoint.
    pub fn eval_inflationary(&self, db: &Database, fuel: u64) -> Result<Database, DlError> {
        self.eval_inflationary_governed(db, &fuel_governor(fuel), &mut EvalStats::default())
    }

    /// Inflationary evaluation under a shared-layer [`Governor`].
    pub fn eval_inflationary_governed(
        &self,
        db: &Database,
        governor: &Governor,
        stats: &mut EvalStats,
    ) -> Result<Database, DlError> {
        self.check_safety()?;
        let all = vec![(0..self.rules.len()).collect()];
        self.governed("inflationary", true, &all, db, governor, stats)
    }

    /// Stratified evaluation with **semi-naive** per-stratum fixpoints:
    /// each round, every recursive rule is evaluated once per positive
    /// recursive body literal with that literal restricted to the previous
    /// round's delta. Produces exactly the same result as
    /// [`Self::eval_stratified`]; the ablation bench
    /// `ablation/naive_vs_seminaive` measures the speed difference.
    pub fn eval_stratified_seminaive(&self, db: &Database, fuel: u64) -> Result<Database, DlError> {
        self.eval_stratified_seminaive_governed(db, &fuel_governor(fuel), &mut EvalStats::default())
    }

    /// Semi-naive stratified evaluation under a shared-layer [`Governor`].
    pub fn eval_stratified_seminaive_governed(
        &self,
        db: &Database,
        governor: &Governor,
        stats: &mut EvalStats,
    ) -> Result<Database, DlError> {
        self.check_safety()?;
        let strata = self.strata()?;
        self.governed("seminaive", false, &strata, db, governor, stats)
    }

    /// The rule indices of each stratum, lowest first (a stratum number
    /// no predicate landed in still runs, as an empty round).
    fn strata(&self) -> Result<Vec<Vec<usize>>, DlError> {
        let strata = self.stratify()?;
        let max = strata.values().copied().max().unwrap_or(0);
        Ok((0..=max)
            .map(|s| {
                let in_s = self.rules.iter().enumerate();
                in_s.filter(|(_, r)| strata[&r.head.pred] == s)
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect())
    }

    /// One governed run of `strata` (rule indices) through the shared
    /// round driver, with every rule compiled once; `kind` names the
    /// semantics in the checkpoint fingerprint.
    fn governed(
        &self,
        kind: &str,
        naive: bool,
        strata: &[Vec<usize>],
        db: &Database,
        governor: &Governor,
        stats: &mut EvalStats,
    ) -> Result<Database, DlError> {
        let fingerprint = || dl_fingerprint(kind, &self.rules, db);
        let engine = Dl::new(naive, &self.rules);
        let plans: Vec<Plan> = self.rules.iter().map(Plan::datalog).collect();
        let strata: Vec<Vec<(usize, &Plan)>> = strata
            .iter()
            .map(|rules| rules.iter().map(|&i| (i, &plans[i])).collect())
            .collect();
        let trip = OutOfRounds::Trip;
        let run = rounds::run(&engine, governor, stats, fingerprint, &strata, trip, || {
            db.clone()
        });
        run.map(|(db, _converged)| db)
    }
}

/// The governor equivalent of the historical `fuel` knob (rounds only).
fn fuel_governor(fuel: u64) -> Governor {
    Governor::new(Budget::unlimited().with_steps(fuel))
}

/// Fingerprint of one governed computation — semantics kind, program,
/// and input database — so a shared checkpoint directory never resumes
/// a *different* computation's state.
fn dl_fingerprint(kind: &str, rules: &[DlRule], db: &Database) -> u64 {
    let mut e = ckpt::Enc::new();
    e.put_str(ENGINE);
    e.put_str(kind);
    e.put_str(&format!("{rules:?}"));
    e.put_database(db);
    ckpt::fnv64(&e.finish())
}

/// A full snapshot payload: the loop flags, the semi-naive delta, and the
/// whole database at the end of the round.
fn dl_encode(at: &Mark, delta: &BTreeMap<String, Instance>, state: &Database) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(at.stratum as u64);
    e.put_u8(at.first as u8);
    e.put_instance_map(delta);
    e.put_database(state);
    e.finish()
}

fn dl_decode(payload: &[u8]) -> Option<Resume<Database, BTreeMap<String, Instance>>> {
    let mut d = ckpt::Dec::new(payload);
    let stratum = d.u64().ok()? as usize;
    let first = d.u8().ok()? != 0;
    let delta = d.instance_map().ok()?;
    let state = d.database().ok()?;
    d.done().then_some(Resume {
        at: Mark {
            stratum,
            rounds_in_run: 0,
            first,
        },
        delta,
        state,
    })
}

/// WAL-record payload for one round: the loop flags, the semi-naive
/// delta, and — when it differs from the delta — the set of facts the
/// round inserted into the state. Committing only the round's change
/// keeps a cheap round's checkpoint cost O(delta) instead of O(state)
/// (the `ablation/ckpt_overhead` bench holds this under 10%).
fn dl_encode_delta(
    at: &Mark,
    delta: &BTreeMap<String, Instance>,
    added: Option<&BTreeMap<String, Instance>>,
) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(at.stratum as u64);
    e.put_u8(at.first as u8);
    match added {
        // the delta doubles as the round's insertions (semi-naive)
        None => {
            e.put_u8(1);
            e.put_instance_map(delta);
        }
        // naive rounds keep an empty delta but still insert facts
        Some(a) => {
            e.put_u8(0);
            e.put_instance_map(delta);
            e.put_instance_map(a);
        }
    }
    e.finish()
}

/// Rebuild the last durable loop state from a recovered snapshot plus
/// the engine-delta records committed after it: each record's inserted
/// facts fold into the database (exactly the rows the commit added
/// in that round, so the fold reproduces the uninterrupted state bit for
/// bit) and its flags replace the loop flags.
fn dl_fold(rec: &ckpt::Recovered) -> Option<Resume<Database, BTreeMap<String, Instance>>> {
    let mut r = dl_decode(&rec.payload)?;
    for dp in &rec.deltas {
        let mut d = ckpt::Dec::new(dp);
        let stratum = d.u64().ok()? as usize;
        let first = d.u8().ok()? != 0;
        let same = match d.u8().ok()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let delta = d.instance_map().ok()?;
        let added = if same {
            None
        } else {
            Some(d.instance_map().ok()?)
        };
        d.done().then_some(())?;
        for (pred, rows) in added.as_ref().unwrap_or(&delta) {
            for row in rows.iter() {
                r.state.insert_row(pred, row);
            }
        }
        r.at.stratum = stratum;
        r.at.first = first;
        r.delta = delta;
    }
    Some(r)
}

/// DATALOG¬ under the shared round driver, by pool id: a firing derives
/// its head's id from its slots' ids, a round's delta is its new row ids
/// in canonical order, settled probes look ids up in `IdIndex`es, and
/// a row's tree is built once, when the commit adds it to its relation.
/// The naive strategy (the stratified and inflationary reference
/// semantics) fires every rule from the full state every round; its
/// rounds report and checkpoint an empty delta, with each round's
/// insertions riding in the checkpoint record separately.
struct Dl {
    naive: bool,
    /// Head predicates, numbered.
    preds: Vec<String>,
    /// Program rule index → its head predicate's number.
    heads: Vec<usize>,
}

impl Dl {
    fn new(naive: bool, rules: &[DlRule]) -> Dl {
        let mut preds = Vec::new();
        let heads = rules
            .iter()
            .map(|r| slot_of(&mut preds, &r.head.pred))
            .collect();
        Dl {
            naive,
            preds,
            heads,
        }
    }
}

/// A derived DATALOG¬ fact: its head predicate's number and its row id.
type DlFact = (usize, ObjRef);

/// A round's delta: predicate → its new row ids, in canonical order.
type DlDelta = BTreeMap<String, Vec<ObjRef>>;

/// A delta's rows as values, the shape checkpoints encode.
fn delta_rows(delta: &DlDelta) -> BTreeMap<String, Instance> {
    let pool = Pool::global();
    let rows = |rows: &[ObjRef]| Instance::from_values(rows.iter().map(|&id| pool.resolve(id)));
    delta.iter().map(|(p, r)| (p.clone(), rows(r))).collect()
}

impl Engine for Dl {
    type Rule = Plan;
    type State = Database;
    type Delta = DlDelta;
    type Indexes = Indexes;
    type Fact = DlFact;
    type Error = DlError;

    const ID: EngineId = EngineId::Datalog;
    const TICK_PER_RULE: bool = false;

    fn exhausted(ex: DlExhausted) -> DlError {
        DlError::Exhausted(Box::new(ex))
    }

    fn facts(state: &Database) -> usize {
        state.iter().map(|(_, inst)| inst.len()).sum()
    }

    /// A rule that reads one of the stratum's own predicates through
    /// **negation** (only reachable when an unstratified program runs as
    /// one stratum) is a snapshot: its support is not monotone in the
    /// delta, so it re-fires from the full state every round.
    fn classify(&self, rules: &[(usize, &Plan)]) -> Vec<RuleClass> {
        plan::classify(rules, self.naive)
    }

    fn probes(&self, plan: &Plan, delta: Option<usize>, out: &mut Probes) {
        plan.probes(delta, out);
    }

    fn index(&self, state: &Database, keep: &Probes, indexes: &mut Indexes) {
        plan::index(state, keep, indexes);
    }

    /// A semi-naive unit joins its delta literal through a hash of the
    /// unit's delta ids; every other positive literal probes the settled
    /// state's id index on its probe column. A head is its pool id, built
    /// from the slots' cached ids; one the head relation's id sidecar
    /// already answers for is dropped here, since admission would skip it
    /// without a trace (in a saturating fixpoint most firings re-derive
    /// settled facts). Only the sidecar is asked, as the per-rule
    /// `deduped` trace counts have always reflected: a head it cannot
    /// answer for is left to admission.
    fn fire(
        &self,
        unit: &Unit<'_, Self>,
        state: &Database,
        indexes: &Indexes,
        want_prov: bool,
        out: &mut Vec<Derived<Self::Fact>>,
        stats: &mut EvalStats,
        brake: &ParBrake,
    ) -> Result<(), DlError> {
        let plan = unit.rule;
        // test-only panic injection: a rule whose head uses this reserved
        // name simulates a buggy rule implementation blowing up on a
        // worker, so the structured-error path is testable end to end
        #[cfg(test)]
        if plan.defines() == "panic-inject!" {
            panic!("injected rule panic");
        }
        let delta = unit.delta().map(|(d, pos)| {
            let rows = plan.body[pos].pred().and_then(|p| d.get(p));
            (pos, DeltaIn::Ids(rows.map_or(&[], Vec::as_slice)))
        });
        let count_prefix = unit.count_prefix;
        let Some(frames) = plan.fire(state, indexes, delta, count_prefix, brake, stats)? else {
            return Ok(());
        };
        let pred = self.heads[unit.idx];
        let head_rel = state.get_ref(plan.defines());
        for f in &frames {
            let id = plan.head_id(f)?;
            if head_rel.and_then(|rel| rel.contains_ref(id)) == Some(true) {
                continue;
            }
            let parents = if want_prov {
                Some(plan.parents(f, &plan::NO_FUNCS)?)
            } else {
                None
            };
            out.push(Derived {
                fact: (pred, id),
                rule: unit.idx,
                parents,
            });
        }
        Ok(())
    }

    /// Rows shard by the stable hash of their value, so each shard is
    /// the one a value delta would give, in canonical order.
    fn shard(&self, plan: &Plan, pos: usize, delta: &DlDelta, workers: usize) -> Vec<DlDelta> {
        let Some((pred, rows)) = plan.body[pos].pred().and_then(|p| delta.get_key_value(p)) else {
            return Vec::new();
        };
        let pool = Pool::global();
        let mut shards: Vec<Vec<ObjRef>> = vec![Vec::new(); workers.max(1)];
        for &row in rows {
            shards[shard_of(&pool.resolve(row), workers)].push(row);
        }
        shards
            .into_iter()
            .filter(|rows| !rows.is_empty())
            .map(|rows| BTreeMap::from([(pred.clone(), rows)]))
            .collect()
    }

    fn delta_len(&self, delta: &DlDelta) -> u64 {
        if self.naive {
            return 0;
        }
        delta.values().map(|d| d.len() as u64).sum()
    }

    fn settled(&self, state: &Database, (pred, row): &DlFact) -> bool {
        let rel = state.get_ref(&self.preds[*pred]);
        rel.is_some_and(|rel| rel.contains_id(*row))
    }

    /// Each admitted row's tree is built once, from the pool, and its id
    /// goes into the kept indexes in admission order. Each relation's new
    /// rows are then sorted once and moved in. Turned-away duplicates
    /// count toward their relation's id sidecar as rejected inserts do.
    fn commit(
        &self,
        state: &mut Database,
        indexes: &mut Indexes,
        facts: Vec<DlFact>,
        turned_away: Vec<DlFact>,
    ) -> DlDelta {
        let pool = Pool::global();
        // rows share most of their items: each item's tree is built from
        // the pool once per commit and cloned into every row holding it
        let mut items: HashMap<ObjRef, Value, FxBuildHasher> = HashMap::default();
        let mut tree = |id: ObjRef| match pool.tuple_items(id) {
            Some(ch) => {
                let item = |&c: &ObjRef| items.entry(c).or_insert_with(|| pool.resolve(c)).clone();
                Value::Tuple(ch.iter().map(item).collect())
            }
            None => pool.resolve(id),
        };
        let mut rows: BTreeMap<usize, Vec<(Value, ObjRef)>> = BTreeMap::new();
        for (pred, id) in facts {
            plan::note_insert(indexes, &self.preds[pred], id);
            rows.entry(pred).or_default().push((tree(id), id));
        }
        let mut delta = DlDelta::new();
        for (pred, mut new) in rows {
            new.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let name = &self.preds[pred];
            delta.insert(name.clone(), new.iter().map(|&(_, id)| id).collect());
            for (v, id) in new {
                state.insert_owned(name, v, Some(id));
            }
        }
        for (pred, _) in turned_away {
            state.note_duplicate(&self.preds[pred]);
        }
        delta
    }

    fn render(&self, (pred, row): &DlFact) -> String {
        render_pred_fact(&self.preds[*pred], &Pool::global().resolve(*row))
    }

    /// Each round appends an engine-level delta record; the full state is
    /// only serialized on the session's snapshot rounds. A naive round's
    /// insertions ride beside its (empty) delta; a quiescent round has
    /// inserted nothing and commits the same record under both
    /// strategies.
    fn checkpoint(
        &self,
        sess: &mut ckpt::Session,
        header: &dyn Fn(Vec<u8>) -> ckpt::RoundCkpt,
        at: &Mark,
        delta: &DlDelta,
        state: &Database,
    ) {
        let rows = delta_rows(delta);
        let empty = BTreeMap::new();
        let (carried, added) = if self.naive && !rows.is_empty() {
            (&empty, Some(&rows))
        } else {
            (&rows, None)
        };
        let wal = dl_encode_delta(at, carried, added);
        sess.commit_delta(&header(wal), || dl_encode(at, carried, state));
    }

    fn resume(&self, rec: &ckpt::Recovered) -> Option<Resume<Database, DlDelta>> {
        let r = dl_fold(rec)?;
        let rows = |inst: Instance| inst.iter().map(|v| Pool::global().intern(v)).collect();
        Some(Resume {
            at: r.at,
            delta: r.delta.into_iter().map(|(p, i)| (p, rows(i))).collect(),
            state: r.state,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DeltaJoin, Frame, Overlay, Probe, Read, NO_FUNCS};
    use uset_object::IdIndex;
    use uset_object::{atom, tuple};

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn tc_program() -> DatalogProgram {
        DatalogProgram::new(vec![
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("y")]),
                vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
            ),
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("z")]),
                vec![
                    (true, DlAtom::new("E", vec![v("x"), v("y")])),
                    (true, DlAtom::new("T", vec![v("y"), v("z")])),
                ],
            ),
        ])
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    #[test]
    fn join_counter_contract() {
        // `scan_fallbacks` fires only when a probe column is ground but no
        // index is usable (a prebuilt-cache miss); the governed engines
        // prebuild every probe column, so end-to-end runs
        // keep it at 0. Pin the counting contract at the source instead:
        // one index hit counts one probe, a ground column without an index
        // counts one fallback, plain scans, delta joins and negated
        // membership probes count nothing. A positive literal that is
        // ground when a plain scan reaches it becomes a membership test:
        // the same frames as the scan, and again no counts.
        let rel = Instance::from_rows((0..8u64).map(|i| [atom(i), atom(i + 1)]));
        // large enough for the pool-id probe to answer
        let big = Instance::from_rows((0..32u64).map(|i| [atom(i), atom(i + 1)]));
        // P(y) ← E(3, y), ¬E(3, 4)
        let rule = DlRule::new(
            DlAtom::new("P", vec![v("y")]),
            vec![
                (true, DlAtom::new("E", vec![DlTerm::Const(atom(3)), v("y")])),
                (
                    false,
                    DlAtom::new("E", vec![DlTerm::Const(atom(3)), DlTerm::Const(atom(4))]),
                ),
            ],
        );
        let plan = Plan::datalog(&rule);
        let frames = vec![plan.frame()];
        // Q(y, z) ← E(y, z), E(z, 9), E(y, y)
        let bound = Plan::datalog(&DlRule::new(
            DlAtom::new("Q", vec![v("y"), v("z")]),
            vec![
                (true, DlAtom::new("E", vec![v("y"), v("z")])),
                (true, DlAtom::new("E", vec![v("z"), DlTerm::Const(atom(9))])),
                (true, DlAtom::new("E", vec![v("y"), v("y")])),
            ],
        ));
        // E(z, 9) is ground when reached: its probe column is bound
        assert_eq!(bound.body[1].probe, Probe::Column(0));
        let all = bound
            .join(
                0,
                vec![bound.frame()],
                Read::Scan(Overlay::plain(&big)),
                &NO_FUNCS,
                &mut EvalStats::default(),
            )
            .unwrap();
        let slots = |fs: &[Frame<'_>]| -> Vec<Vec<Option<Value>>> {
            fs.iter()
                .map(|f| {
                    f.iter()
                        .map(|b| b.as_ref().map(|b| b.value().clone()))
                        .collect()
                })
                .collect()
        };
        let idx = IdIndex::build_on(&rel, 0);
        let delta = DeltaJoin::new(rel.iter(), &plan.body[0]);
        let heads = |fs: Vec<Frame<'_>>| -> Vec<Value> {
            let head = |f| Pool::global().resolve(plan.head_id(f).unwrap());
            fs.iter().map(head).collect()
        };

        let mut stats = EvalStats::default();
        let mut join = |read| {
            plan.join(0, frames.clone(), read, &NO_FUNCS, &mut stats)
                .unwrap()
        };
        let hit = heads(join(Read::Settled(&rel, Some(&idx))));
        let scan = heads(join(Read::Settled(&rel, None)));
        let plain = heads(join(Read::Scan(Overlay::plain(&rel))));
        let hashed = heads(join(Read::Delta(&delta)));
        let negated = plan
            .join(
                1,
                frames,
                Read::Scan(Overlay::plain(&rel)),
                &NO_FUNCS,
                &mut stats,
            )
            .unwrap();
        for base in [&rel, &big] {
            let mut probed = EvalStats::default();
            let read = Read::Scan(Overlay::plain(base));
            let member = bound
                .join(1, all.clone(), read, &NO_FUNCS, &mut probed)
                .unwrap();
            let scanned = bound
                .join(
                    1,
                    all.clone(),
                    Read::Settled(base, None),
                    &NO_FUNCS,
                    &mut EvalStats::default(),
                )
                .unwrap();
            assert_eq!(slots(&member), slots(&scanned), "membership ≡ scan");
            let none = bound.join(2, member, read, &NO_FUNCS, &mut probed).unwrap();
            assert!(none.is_empty(), "no E(y, y) row");
            assert_eq!(probed, EvalStats::default(), "membership counts nothing");
        }
        assert_eq!(stats.index_probes, 1, "one bucket probe");
        assert_eq!(stats.scan_fallbacks, 1, "one scan fallback");
        assert_eq!(hit, vec![tuple([atom(4)])]);
        assert_eq!(hit, scan, "probe and fallback agree on bindings");
        assert_eq!(scan, plain);
        assert_eq!(plain, hashed, "the delta hash join agrees with a scan");
        assert!(negated.is_empty(), "E(3,4) holds, so ¬E(3,4) filters");
    }

    #[test]
    fn seminaive_tc_probes_no_settled_index_after_its_first_round() {
        let prog = tc_program();
        let engine = Dl::new(false, &prog.rules);
        let plan = Plan::datalog(&prog.rules[1]);
        let mut first = Probes::new();
        engine.probes(&plan, None, &mut first);
        assert_eq!(first, Probes::from([("T".into(), [0].into())]));
        // E(x, y) is scanned and T(y, z) reads the delta
        let mut later = Probes::new();
        engine.probes(&plan, Some(1), &mut later);
        assert!(later.is_empty());
    }

    #[test]
    fn tc_via_stratified_and_inflationary_agree() {
        let prog = tc_program();
        let db = path_db(5);
        let s = prog.eval_stratified(&db, 10_000).unwrap();
        let i = prog.eval_inflationary(&db, 10_000).unwrap();
        assert_eq!(s.get("T"), i.get("T"));
        assert_eq!(s.get("T").len(), 4 + 3 + 2 + 1);
    }

    #[test]
    fn negation_complement_pairs() {
        // NT(x,y) ← N(x), N(y), ¬T(x,y): pairs not connected
        let mut rules = tc_program().rules;
        rules.push(DlRule::new(
            DlAtom::new("N", vec![v("x")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("N", vec![v("y")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("NT", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("N", vec![v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let strata = prog.stratify().unwrap();
        assert!(strata["NT"] > strata["T"]);
        let out = prog.eval_stratified(&path_db(4), 10_000).unwrap();
        // 16 pairs total, T holds 6, so NT holds 10
        assert_eq!(out.get("NT").len(), 10);
    }

    #[test]
    fn unstratifiable_program_rejected() {
        // P(x) ← E(x,y), ¬P(x) — negation through recursion
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("P", vec![v("x")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (false, DlAtom::new("P", vec![v("x")])),
            ],
        )]);
        assert!(matches!(prog.stratify(), Err(DlError::NotStratifiable(_))));
        // but inflationary semantics handles it fine
        let out = prog.eval_inflationary(&path_db(3), 10_000).unwrap();
        // round 1: ¬P holds for everything, so P gets {0, 1}
        assert_eq!(out.get("P").len(), 2);
    }

    #[test]
    fn inflationary_differs_from_stratified_on_win_move() {
        // the "win" query: W(x) ← E(x,y), ¬W(y). Unstratifiable; under
        // inflationary semantics it computes an approximation, not the
        // game-theoretic answer — we only check it terminates and derives
        // something sensible.
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("W", vec![v("x")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (false, DlAtom::new("W", vec![v("y")])),
            ],
        )]);
        let db = path_db(4); // 0→1→2→3
        let out = prog.eval_inflationary(&db, 10_000).unwrap();
        // first round: every node with an outgoing edge wins (W unpopulated)
        assert!(out.get("W").contains(&uset_object::tuple([atom(0)])));
    }

    #[test]
    fn safety_violations_rejected() {
        let bad_head = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("P", vec![v("z")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        )]);
        assert_eq!(
            bad_head.eval_stratified(&path_db(2), 100),
            Err(DlError::Unsafe("z".to_owned()))
        );
        let bad_neg = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("P", vec![v("x")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (false, DlAtom::new("Q", vec![v("w")])),
            ],
        )]);
        assert_eq!(
            bad_neg.eval_inflationary(&path_db(2), 100),
            Err(DlError::Unsafe("w".to_owned()))
        );
    }

    #[test]
    fn constants_in_rules() {
        // P(x) ← E(a0, x): successors of node 0
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("P", vec![v("x")]),
            vec![(true, DlAtom::new("E", vec![DlTerm::Const(atom(0)), v("x")]))],
        )]);
        let out = prog.eval_stratified(&path_db(3), 100).unwrap();
        assert_eq!(out.get("P"), Instance::from_rows([[atom(1)]]));
    }
}

#[cfg(test)]
mod seminaive_tests {
    use super::*;
    use uset_object::atom;

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn tc_program() -> DatalogProgram {
        DatalogProgram::new(vec![
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("y")]),
                vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
            ),
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("z")]),
                vec![
                    (true, DlAtom::new("E", vec![v("x"), v("y")])),
                    (true, DlAtom::new("T", vec![v("y"), v("z")])),
                ],
            ),
        ])
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    #[test]
    fn seminaive_matches_naive_on_tc() {
        let prog = tc_program();
        for n in [2u64, 5, 10] {
            let db = path_db(n);
            let naive = prog.eval_stratified(&db, 100_000).unwrap();
            let semi = prog.eval_stratified_seminaive(&db, 100_000).unwrap();
            assert_eq!(naive.get("T"), semi.get("T"), "n = {n}");
        }
    }

    #[test]
    fn seminaive_matches_naive_with_negation_strata() {
        let mut rules = tc_program().rules;
        rules.push(DlRule::new(
            DlAtom::new("N", vec![v("x")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("NT", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("N", vec![v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let db = path_db(5);
        let naive = prog.eval_stratified(&db, 100_000).unwrap();
        let semi = prog.eval_stratified_seminaive(&db, 100_000).unwrap();
        assert_eq!(naive.get("NT"), semi.get("NT"));
        assert_eq!(naive.get("T"), semi.get("T"));
    }

    #[test]
    fn seminaive_on_cyclic_graph() {
        let prog = tc_program();
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows([[atom(0), atom(1)], [atom(1), atom(2)], [atom(2), atom(0)]]),
        );
        let naive = prog.eval_stratified(&db, 100_000).unwrap();
        let semi = prog.eval_stratified_seminaive(&db, 100_000).unwrap();
        assert_eq!(naive.get("T"), semi.get("T"));
        assert_eq!(semi.get("T").len(), 9);
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use uset_guard::ParConfig;
    use uset_object::atom;

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn tc_program() -> DatalogProgram {
        DatalogProgram::new(vec![
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("y")]),
                vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
            ),
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("z")]),
                vec![
                    (true, DlAtom::new("E", vec![v("x"), v("y")])),
                    (true, DlAtom::new("T", vec![v("y"), v("z")])),
                ],
            ),
        ])
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    fn governor(workers: usize) -> Governor {
        Governor::unlimited().with_par(ParConfig::workers(workers))
    }

    #[test]
    fn parallel_seminaive_matches_sequential_exactly() {
        let prog = tc_program();
        let db = path_db(24);
        let mut seq_stats = EvalStats::default();
        let seq = prog
            .eval_stratified_seminaive_governed(&db, &governor(1), &mut seq_stats)
            .unwrap();
        for workers in [2usize, 4, 7] {
            let mut par_stats = EvalStats::default();
            let par = prog
                .eval_stratified_seminaive_governed(&db, &governor(workers), &mut par_stats)
                .unwrap();
            assert_eq!(seq, par, "state diverged at {workers} workers");
            assert_eq!(seq_stats, par_stats, "stats diverged at {workers} workers");
        }
    }

    #[test]
    fn parallel_naive_matches_sequential_exactly() {
        let prog = tc_program();
        let db = path_db(12);
        let mut seq_stats = EvalStats::default();
        let seq = prog
            .eval_stratified_governed(&db, &governor(1), &mut seq_stats)
            .unwrap();
        let mut par_stats = EvalStats::default();
        let par = prog
            .eval_stratified_governed(&db, &governor(4), &mut par_stats)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn parallel_inflationary_matches_sequential_exactly() {
        let mut rules = tc_program().rules;
        rules.push(DlRule::new(
            DlAtom::new("S", vec![v("x")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let db = path_db(9);
        let mut seq_stats = EvalStats::default();
        let seq = prog
            .eval_inflationary_governed(&db, &governor(1), &mut seq_stats)
            .unwrap();
        let mut par_stats = EvalStats::default();
        let par = prog
            .eval_inflationary_governed(&db, &governor(4), &mut par_stats)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn parallel_negation_strata_match_sequential() {
        let mut rules = tc_program().rules;
        rules.push(DlRule::new(
            DlAtom::new("N", vec![v("x")]),
            vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("NT", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("N", vec![v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let db = path_db(7);
        let mut seq_stats = EvalStats::default();
        let seq = prog
            .eval_stratified_seminaive_governed(&db, &governor(1), &mut seq_stats)
            .unwrap();
        let mut par_stats = EvalStats::default();
        let par = prog
            .eval_stratified_seminaive_governed(&db, &governor(4), &mut par_stats)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_stats, par_stats);
    }

    #[test]
    fn parallel_panicking_rule_is_structured_error() {
        // a rule that panics on a worker must come back as a structured
        // Exhausted(Panicked) error, not unwind through the pool or hang
        let prog = DatalogProgram {
            rules: vec![
                DlRule::new(
                    DlAtom::new("T", vec![v("x"), v("y")]),
                    vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
                ),
                DlRule::new(
                    DlAtom::new("panic-inject!", vec![v("x")]),
                    vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
                ),
            ],
        };
        let db = path_db(8);
        let mut stats = EvalStats::default();
        let err = prog
            .eval_stratified_seminaive_governed(&db, &governor(4), &mut stats)
            .unwrap_err();
        let DlError::Exhausted(ex) = err else {
            panic!("expected structured exhaustion, got {err:?}");
        };
        assert_eq!(ex.trip.resource, uset_guard::Resource::Panicked);
        assert_eq!(ex.trip.engine, EngineId::Datalog);
        // nothing from the panicking round was merged: the snapshot is
        // the round-start state, which still holds the EDB intact
        assert_eq!(ex.partial.get("E"), db.get("E"));
    }

    #[test]
    fn parallel_facts_budget_yields_round_consistent_partial() {
        let prog = tc_program();
        let db = path_db(24);
        let governor =
            Governor::new(Budget::unlimited().with_facts(40)).with_par(ParConfig::workers(4));
        let mut stats = EvalStats::default();
        let err = prog
            .eval_stratified_seminaive_governed(&db, &governor, &mut stats)
            .unwrap_err();
        let DlError::Exhausted(ex) = err else {
            panic!("expected exhaustion, got {err:?}");
        };
        // the partial snapshot is a prefix of the true fixpoint and is
        // round-consistent: every E edge survives, T is closed under the
        // rounds that completed
        let full = prog.eval_stratified_seminaive(&db, 100_000).unwrap();
        let partial = ex.partial;
        assert_eq!(partial.get("E"), db.get("E"));
        for (_, row) in partial.get("T").iter().map(|r| ("T", r)) {
            assert!(full.get_ref("T").unwrap().contains(row));
        }
    }
}
