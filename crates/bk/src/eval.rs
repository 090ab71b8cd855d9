//! Fixpoint evaluation of BK programs with derivation recording.
//!
//! A rule fires for every valuation ν such that each instantiated body
//! pattern is a **sub-object** of some object in the corresponding
//! predicate's extent. Variable instantiation therefore ranges over
//! sub-objects of the matched components; the evaluator offers two
//! candidate policies:
//!
//! * [`BindMode::Principal`] — a variable matched against component `o`
//!   binds to `o` itself or to ⊥. This is the finite core that already
//!   produces every phenomenon the paper exhibits (the ⊥-instantiated
//!   cross-product of Example 5.2, the divergence of Example 5.4), because
//!   instantiation is monotone: any lower binding derives a head ⊑ the
//!   principal one.
//! * [`BindMode::Exhaustive`] — all sub-objects of `o` (exponential;
//!   small inputs only), for completeness experiments.
//!
//! BK is monotone and negation-free, so the fixpoint exists; it may be
//! infinite (Example 5.4), which the shared resource budgets convert into
//! [`BkError::Exhausted`] — the observable form of "the execution of
//! this program will not terminate, and so its output is undefined" —
//! carrying the last consistent round's state as a partial result.
//!
//! The rounds run on the round driver DATALOG¬ and COL share
//! ([`uset_guard::rounds`]): BK is its naive case, one stratum of
//! snapshot rules whose firing is the binding search below.

use crate::object::BkObject;
use crate::order::{subobject, subobjects};
use crate::rules::{BkProgram, BkRule, BkTerm};
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use uset_guard::ckpt;
use uset_guard::rounds::{
    self, Derived, Engine, Mark, OutOfRounds, Probes, Resume, RuleClass, Unit,
};
use uset_guard::{Budget, EngineId, Exhausted, Governor, ParBrake};
use uset_object::EvalStats;

/// Engine label carried by every BK trace event.
const ENGINE: &str = "bk";

/// Canonical rendering of a BK fact for provenance events and the
/// `why(fact)` API: `pred(object)`.
pub fn render_bk_fact(pred: &str, obj: &BkObject) -> String {
    format!("{pred}({obj})")
}

/// Candidate policy for variable instantiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindMode {
    /// Bind to the matched component or ⊥.
    Principal,
    /// Bind to every sub-object of the matched component.
    Exhaustive,
}

/// Evaluation budgets and policy — a thin shim over the shared
/// [`uset_guard`] layer; new code should pass a [`Governor`] to the
/// `_governed` entry points. Converted via [`BkConfig::budget`].
#[derive(Clone, Copy, Debug)]
pub struct BkConfig {
    /// Maximum fixpoint rounds.
    pub max_rounds: u64,
    /// Maximum total facts.
    pub max_facts: usize,
    /// Maximum candidates one exhaustive sub-object enumeration may
    /// produce (a structural cap — a looser budget does not raise it).
    pub max_subobjects: usize,
    /// Instantiation policy.
    pub bind_mode: BindMode,
}

impl Default for BkConfig {
    fn default() -> Self {
        BkConfig {
            max_rounds: 1000,
            max_facts: 100_000,
            max_subobjects: 1 << 12,
            bind_mode: BindMode::Principal,
        }
    }
}

impl BkConfig {
    /// The equivalent shared-layer budget (`max_facts` → facts;
    /// `max_rounds` stays a convergence bound, not a budget, so
    /// [`eval_rounds`] can report non-convergence without erroring).
    pub fn budget(&self) -> Budget {
        Budget::unlimited().with_facts(self.max_facts)
    }
}

/// The last consistent round's state, surrendered on exhaustion: the
/// round that trips commits nothing, so every fact here was derived by a
/// fully completed round (or was part of the input).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BkPartial {
    /// Predicate extents at the last completed round.
    pub state: BkState,
    /// Derivations recorded up to that round.
    pub derivations: Vec<Derivation>,
}

/// The BK engine's exhaustion report.
pub type BkExhausted = Exhausted<BkPartial>;

/// Evaluation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BkError {
    /// A resource budget was exhausted (rounds, facts, sub-object
    /// enumeration size, deadline) or the run was cancelled — the paper's
    /// undefined output, with the work done so far retained.
    Exhausted(Box<BkExhausted>),
}

impl BkError {
    /// The exhaustion report (every `BkError` carries one).
    pub fn exhausted(&self) -> &BkExhausted {
        match self {
            BkError::Exhausted(e) => e,
        }
    }
}

impl std::fmt::Display for BkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BkError::Exhausted(e) => write!(f, "BK fixpoint did not converge: {e}"),
        }
    }
}

impl std::error::Error for BkError {}

/// Predicate extents.
pub type BkState = BTreeMap<String, BTreeSet<BkObject>>;

/// A recorded derivation: rule index, bindings, derived fact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Derivation {
    /// Index of the fired rule in the program.
    pub rule: usize,
    /// The valuation used.
    pub bindings: BTreeMap<String, BkObject>,
    /// Head predicate.
    pub pred: String,
    /// The derived object.
    pub fact: BkObject,
}

type Bindings = BTreeMap<String, BkObject>;

/// Why a binding search stopped early: the round's brake fired, or an
/// exhaustive enumeration overflowed the structural cap.
struct Stopped;

/// One rule firing's binding search. It runs on a worker (or inline at
/// width 1) and cannot touch the guard: it polls the round's brake for
/// cancellation and enforces only the structural enumeration cap, while
/// the largest enumeration it checked goes back to the round driver,
/// which replays it against the guard in rule order.
struct Search<'a> {
    config: &'a BkConfig,
    brake: &'a ParBrake,
    value_hwm: usize,
}

/// ⊤: each part of a pattern matched against ⊤ is matched against ⊤.
static TOP: BkObject = BkObject::Top;

/// All extensions of `b` making `pat` instantiate to a sub-object of
/// `target`.
fn match_pattern(
    pat: &BkTerm,
    target: &BkObject,
    b: &Bindings,
    search: &mut Search<'_>,
) -> Result<Vec<Bindings>, Stopped> {
    match pat {
        BkTerm::Var(v) => match b.get(v) {
            Some(bound) if subobject(bound, target) => Ok(vec![b.clone()]),
            Some(_) => Ok(Vec::new()),
            None => {
                let candidates: Vec<BkObject> = match search.config.bind_mode {
                    BindMode::Principal if *target == BkObject::Bottom => vec![BkObject::Bottom],
                    BindMode::Principal => vec![target.clone(), BkObject::Bottom],
                    BindMode::Exhaustive => {
                        // past the structural cap the enumeration is
                        // abandoned, and the search with it
                        let cap = search.config.max_subobjects;
                        let found = subobjects(target, cap);
                        let size = found.as_ref().map_or(cap.saturating_add(1), Vec::len);
                        search.value_hwm = search.value_hwm.max(size);
                        found.ok_or(Stopped)?
                    }
                };
                Ok(candidates
                    .into_iter()
                    .map(|c| {
                        let mut nb = b.clone();
                        nb.insert(v.clone(), c);
                        nb
                    })
                    .collect())
            }
        },
        BkTerm::Const(c) if subobject(c, target) => Ok(vec![b.clone()]),
        BkTerm::Const(_) => Ok(Vec::new()),
        // the instantiated tuple has exactly attrs(m); it is ⊑ target iff
        // target is ⊤ or a tuple providing each attribute above
        BkTerm::Tuple(m) => {
            if !matches!(target, BkObject::Top | BkObject::Tuple(_)) {
                return Ok(Vec::new());
            }
            let mut acc = vec![b.clone()];
            for (k, t) in m {
                let tv = match target {
                    BkObject::Tuple(tm) => match tm.get(k) {
                        Some(tv) => tv,
                        None => return Ok(Vec::new()),
                    },
                    _ => &TOP,
                };
                acc = extend(&acc, t, [tv].into_iter(), search)?;
                if acc.is_empty() {
                    break;
                }
            }
            Ok(acc)
        }
        // each item pattern must be ⊑ some member (every item is ⊑ ⊤)
        BkTerm::Set(items) => {
            let members: Vec<&BkObject> = match target {
                BkObject::Set(ts) => ts.iter().collect(),
                BkObject::Top => vec![&TOP],
                _ => return Ok(Vec::new()),
            };
            let mut acc = vec![b.clone()];
            for item in items {
                acc = extend(&acc, item, members.iter().copied(), search)?;
                if acc.is_empty() {
                    break;
                }
            }
            Ok(acc)
        }
    }
}

/// Every extension of a binding in `acc` that matches `pat` against one
/// of `targets`, in (binding, target) order.
fn extend<'t>(
    acc: &[Bindings],
    pat: &BkTerm,
    targets: impl Iterator<Item = &'t BkObject> + Clone,
    search: &mut Search<'_>,
) -> Result<Vec<Bindings>, Stopped> {
    let mut next = Vec::new();
    for b in acc {
        for target in targets.clone() {
            next.extend(match_pattern(pat, target, b, search)?);
        }
    }
    Ok(next)
}

/// All valuations satisfying a rule body against the state.
fn rule_bindings(
    rule: &BkRule,
    state: &BkState,
    search: &mut Search<'_>,
) -> Result<Vec<Bindings>, Stopped> {
    let mut acc: Vec<Bindings> = vec![Bindings::new()];
    for lit in &rule.body {
        if search.brake.should_stop() {
            return Err(Stopped);
        }
        let extent = state.get(&lit.pred).into_iter().flatten();
        acc = extend(&acc, &lit.pattern, extent, search)?;
        // dedup to keep the frontier small; each binding's key is built
        // once, and the stable sort keeps ties in derivation order
        acc.sort_by_cached_key(|b| format!("{b:?}"));
        acc.dedup();
        if acc.is_empty() {
            break;
        }
    }
    Ok(acc)
}

/// A derived fact `pred(obj)`, carrying the rule and valuation that
/// derived it to the log. Equality and hashing see only `pred(obj)`, so
/// admission keeps the first derivation of each fact.
#[derive(Clone, Debug)]
struct BkFact {
    pred: String,
    obj: BkObject,
    rule: usize,
    bindings: Bindings,
}

impl PartialEq for BkFact {
    fn eq(&self, other: &BkFact) -> bool {
        self.pred == other.pred && self.obj == other.obj
    }
}

impl Eq for BkFact {}

impl Hash for BkFact {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.pred.hash(h);
        self.obj.hash(h);
    }
}

/// BK on the shared round driver: one stratum of snapshot rules (BK is
/// naive), so there is no delta and no index; a round that runs out of
/// `max_rounds` completes the run unconverged.
struct Bk<'a> {
    config: &'a BkConfig,
}

impl Engine for Bk<'_> {
    type Rule = BkRule;
    type State = BkPartial;
    type Delta = ();
    type Indexes = ();
    type Fact = BkFact;
    type Error = BkError;

    const ID: EngineId = EngineId::Bk;
    const TICK_PER_RULE: bool = true;

    fn max_rounds(&self) -> u64 {
        self.config.max_rounds
    }

    fn value_floor(&self) -> Option<usize> {
        Some(self.config.max_subobjects)
    }

    fn exhausted(ex: BkExhausted) -> BkError {
        BkError::Exhausted(Box::new(ex))
    }

    fn facts(state: &BkPartial) -> usize {
        state.state.values().map(BTreeSet::len).sum()
    }

    fn classify(&self, rules: &[(usize, &BkRule)]) -> Vec<RuleClass> {
        vec![RuleClass::Snapshot; rules.len()]
    }

    fn probes(&self, _rule: &BkRule, _delta: Option<usize>, _out: &mut Probes) {}

    fn index(&self, _state: &BkPartial, _keep: &Probes, _indexes: &mut ()) {}

    fn fire(
        &self,
        unit: &Unit<'_, Self>,
        state: &BkPartial,
        _indexes: &(),
        want_prov: bool,
        out: &mut Vec<Derived<BkFact>>,
        stats: &mut EvalStats,
        brake: &ParBrake,
    ) -> Result<(), BkError> {
        let rule = unit.rule;
        let mut search = Search {
            config: self.config,
            brake,
            value_hwm: 0,
        };
        let found = rule_bindings(rule, &state.state, &mut search);
        unit.report_value_size(search.value_hwm);
        // a stopped search derives nothing: the driver reports the
        // cancellation, or replays the oversized enumeration into a trip
        let Ok(bindings) = found else {
            return Ok(());
        };
        brake.charge(bindings.len() as u64);
        stats.tuples_derived += bindings.len() as u64;
        for b in bindings {
            let parents = want_prov.then(|| {
                let body = rule.body.iter();
                body.map(|lit| render_bk_fact(&lit.pred, &lit.pattern.instantiate(&b)))
                    .collect()
            });
            let fact = BkFact {
                pred: rule.head_pred.clone(),
                obj: rule.head.instantiate(&b),
                rule: unit.idx,
                bindings: b,
            };
            out.push(Derived {
                fact,
                rule: unit.idx,
                parents,
            });
        }
        Ok(())
    }

    fn shard(&self, _rule: &BkRule, _pos: usize, _delta: &(), _workers: usize) -> Vec<()> {
        unreachable!("BK rules read no delta")
    }

    fn delta_len(&self, _delta: &()) -> u64 {
        0
    }

    fn settled(&self, state: &BkPartial, fact: &BkFact) -> bool {
        let extent = state.state.get(&fact.pred);
        extent.is_some_and(|extent| extent.contains(&fact.obj))
    }

    fn commit(&self, state: &mut BkPartial, _indexes: &mut (), facts: Vec<BkFact>, _: Vec<BkFact>) {
        for f in facts {
            let extent = state.state.entry(f.pred.clone()).or_default();
            extent.insert(f.obj.clone());
            state.derivations.push(Derivation {
                rule: f.rule,
                bindings: f.bindings,
                pred: f.pred,
                fact: f.obj,
            });
        }
    }

    fn render(&self, fact: &BkFact) -> String {
        render_bk_fact(&fact.pred, &fact.obj)
    }

    fn checkpoint(
        &self,
        sess: &mut ckpt::Session,
        header: &dyn Fn(Vec<u8>) -> ckpt::RoundCkpt,
        at: &Mark,
        _delta: &(),
        state: &BkPartial,
    ) {
        // the quiescent round (the one that moves on to the next, empty,
        // stratum) is never committed: a resume replays it from the
        // previous commit and recharges identically
        if at.stratum > 0 {
            return;
        }
        let payload = bk_encode(at.rounds_in_run, &state.state, &state.derivations);
        sess.commit(&header(payload));
    }

    fn resume(&self, rec: &ckpt::Recovered) -> Option<Resume<BkPartial, ()>> {
        bk_decode(&rec.payload)
    }
}

fn put_bk_object(e: &mut ckpt::Enc, o: &BkObject) {
    match o {
        BkObject::Bottom => e.put_u8(0),
        BkObject::Top => e.put_u8(1),
        BkObject::Atom(a) => {
            e.put_u8(2);
            e.put_atom(*a);
        }
        BkObject::Tuple(m) => {
            e.put_u8(3);
            e.put_usize(m.len());
            for (k, v) in m {
                e.put_str(k);
                put_bk_object(e, v);
            }
        }
        BkObject::Set(s) => {
            e.put_u8(4);
            e.put_usize(s.len());
            for v in s {
                put_bk_object(e, v);
            }
        }
    }
}

fn take_bk_object(d: &mut ckpt::Dec<'_>) -> Result<BkObject, ckpt::CodecError> {
    match d.u8()? {
        0 => Ok(BkObject::Bottom),
        1 => Ok(BkObject::Top),
        2 => Ok(BkObject::Atom(d.atom()?)),
        3 => {
            let mut m = BTreeMap::new();
            for _ in 0..d.len_prefix()? {
                let k = d.str()?;
                m.insert(k, take_bk_object(d)?);
            }
            Ok(BkObject::Tuple(m))
        }
        4 => {
            let mut s = BTreeSet::new();
            for _ in 0..d.len_prefix()? {
                s.insert(take_bk_object(d)?);
            }
            Ok(BkObject::Set(s))
        }
        _ => Err(ckpt::CodecError {
            at: 0,
            expected: "bk object tag",
        }),
    }
}

fn put_bk_state(e: &mut ckpt::Enc, state: &BkState) {
    e.put_usize(state.len());
    for (pred, extent) in state {
        e.put_str(pred);
        e.put_usize(extent.len());
        for o in extent {
            put_bk_object(e, o);
        }
    }
}

/// One round's checkpoint payload: rounds of the `max_rounds` allowance
/// spent, the predicate extents, and the derivation log.
fn bk_encode(rounds_in_run: u64, state: &BkState, derivations: &[Derivation]) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(rounds_in_run);
    put_bk_state(&mut e, state);
    e.put_usize(derivations.len());
    for d in derivations {
        e.put_u64(d.rule as u64);
        e.put_usize(d.bindings.len());
        for (var, obj) in &d.bindings {
            e.put_str(var);
            put_bk_object(&mut e, obj);
        }
        e.put_str(&d.pred);
        put_bk_object(&mut e, &d.fact);
    }
    e.finish()
}

fn bk_decode(payload: &[u8]) -> Option<Resume<BkPartial, ()>> {
    let mut d = ckpt::Dec::new(payload);
    let rounds_in_run = d.u64().ok()?;
    let mut state = BkState::new();
    for _ in 0..d.len_prefix().ok()? {
        let pred = d.str().ok()?;
        let mut extent = BTreeSet::new();
        for _ in 0..d.len_prefix().ok()? {
            extent.insert(take_bk_object(&mut d).ok()?);
        }
        state.insert(pred, extent);
    }
    let mut derivations = Vec::new();
    for _ in 0..d.len_prefix().ok()? {
        let rule = d.u64().ok()? as usize;
        let mut bindings = Bindings::new();
        for _ in 0..d.len_prefix().ok()? {
            let var = d.str().ok()?;
            bindings.insert(var, take_bk_object(&mut d).ok()?);
        }
        let pred = d.str().ok()?;
        let fact = take_bk_object(&mut d).ok()?;
        derivations.push(Derivation {
            rule,
            bindings,
            pred,
            fact,
        });
    }
    d.done().then_some(Resume {
        at: Mark {
            stratum: 0,
            rounds_in_run,
            first: false,
        },
        delta: (),
        state: BkPartial { state, derivations },
    })
}

/// Fingerprint of one governed BK computation: program, input state,
/// and the config knobs that shape its result (bind mode and the
/// enumeration cap both change what a round derives; the round cap is
/// where `eval_rounds` stops, and a run that spends it leaves its
/// checkpoint when it trips, so a run under another cap must not resume
/// it).
fn bk_fingerprint(prog: &BkProgram, input: &BkState, config: &BkConfig) -> u64 {
    let mut e = ckpt::Enc::new();
    e.put_str(ENGINE);
    e.put_str(&format!("{:?}", prog.rules));
    e.put_str(&format!("{:?}", config.bind_mode));
    e.put_u64(config.max_subobjects as u64);
    e.put_u64(config.max_rounds);
    put_bk_state(&mut e, input);
    ckpt::fnv64(&e.finish())
}

/// Run at most `config.max_rounds` rounds of the monotone operator.
/// Returns the reached state, the recorded derivations, and whether the
/// fixpoint converged within the round bound. `Err` on budget exhaustion
/// or cancellation; the error's partial snapshot is the state at the last
/// completed round (the round that trips commits nothing).
pub fn eval_rounds(
    prog: &BkProgram,
    input: &BkState,
    config: &BkConfig,
) -> Result<(BkState, Vec<Derivation>, bool), BkError> {
    eval_rounds_governed(prog, input, config, &Governor::new(config.budget()))
}

/// [`eval_rounds`] under a shared-layer [`Governor`] (budget +
/// cancellation + optional failpoint); `config` keeps the round bound and
/// the instantiation policy.
pub fn eval_rounds_governed(
    prog: &BkProgram,
    input: &BkState,
    config: &BkConfig,
    governor: &Governor,
) -> Result<(BkState, Vec<Derivation>, bool), BkError> {
    let mut stats = EvalStats::default();
    eval_rounds_with(prog, input, config, governor, &mut stats)
}

/// [`eval_rounds_governed`] accumulating work counters into `stats`
/// (counters are also embedded in the error on exhaustion).
pub fn eval_rounds_with(
    prog: &BkProgram,
    input: &BkState,
    config: &BkConfig,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<(BkState, Vec<Derivation>, bool), BkError> {
    run_bk(prog, input, config, governor, stats, OutOfRounds::Complete)
}

/// BK's one run on the round driver; `out_of_rounds` says whether
/// spending `config.max_rounds` completes the run unconverged or trips
/// it.
fn run_bk(
    prog: &BkProgram,
    input: &BkState,
    config: &BkConfig,
    governor: &Governor,
    stats: &mut EvalStats,
    out_of_rounds: OutOfRounds,
) -> Result<(BkState, Vec<Derivation>, bool), BkError> {
    let rules: Vec<(usize, &BkRule)> = prog.rules.iter().enumerate().collect();
    let fingerprint = || bk_fingerprint(prog, input, config);
    let init = || BkPartial {
        state: input.clone(),
        derivations: Vec::new(),
    };
    let (out, converged) = rounds::run(
        &Bk { config },
        governor,
        stats,
        fingerprint,
        &[rules],
        out_of_rounds,
        init,
    )?;
    Ok((out.state, out.derivations, converged))
}

/// Run the monotone fixpoint to convergence. Returns the final state and
/// the full list of recorded derivations; non-convergence within the
/// budget is the paper's undefined output, reported as
/// [`BkError::Exhausted`] with the reached state as the partial result.
pub fn eval_fixpoint(
    prog: &BkProgram,
    input: &BkState,
    config: &BkConfig,
) -> Result<(BkState, Vec<Derivation>), BkError> {
    eval_fixpoint_governed(prog, input, config, &Governor::new(config.budget()))
}

/// [`eval_fixpoint`] under a shared-layer [`Governor`]. Running out of
/// `config.max_rounds` trips the run through the guard — a `Steps` trip
/// with consumed = limit = `max_rounds`, so a traced run ends with
/// `guard_trip` — and, like every trip, leaves the last round's
/// checkpoint for a resume.
pub fn eval_fixpoint_governed(
    prog: &BkProgram,
    input: &BkState,
    config: &BkConfig,
    governor: &Governor,
) -> Result<(BkState, Vec<Derivation>), BkError> {
    let mut stats = EvalStats::default();
    let trip = OutOfRounds::Trip;
    let (state, derivations, _) = run_bk(prog, input, config, governor, &mut stats, trip)?;
    Ok((state, derivations))
}

/// Build a state from `(pred, objects)` pairs.
pub fn state_from<I, J>(relations: I) -> BkState
where
    I: IntoIterator<Item = (&'static str, J)>,
    J: IntoIterator<Item = BkObject>,
{
    relations
        .into_iter()
        .map(|(p, objs)| (p.to_owned(), objs.into_iter().collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::BkObject as O;

    fn pair(a: &'static str, x: O, b: &'static str, y: O) -> O {
        O::tuple([(a, x), (b, y)])
    }

    /// The Example 5.2 setup: R1 = {[A:1,B:2]}, R2 = {[B:2,C:3],[B:4,C:5]}.
    fn example_52_state() -> BkState {
        state_from([
            ("R1", vec![pair("A", O::atom(1), "B", O::atom(2))]),
            (
                "R2",
                vec![
                    pair("B", O::atom(2), "C", O::atom(3)),
                    pair("B", O::atom(4), "C", O::atom(5)),
                ],
            ),
        ])
    }

    #[test]
    fn example_52_join_rule_overshoots_to_cross_product() {
        let prog = BkProgram::join_rule();
        let (state, _) = eval_fixpoint(&prog, &example_52_state(), &BkConfig::default()).unwrap();
        let r = &state["R"];
        // the true join tuple is derived …
        assert!(r.contains(&pair("A", O::atom(1), "C", O::atom(3))));
        // … but so is the spurious tuple via y ↦ ⊥ — the paper's point:
        // the rule computes π₁R₁ × π₂R₂, not the join
        assert!(r.contains(&pair("A", O::atom(1), "C", O::atom(5))));
        // and ⊥-polluted variants of both columns appear as well
        assert!(r.contains(&pair("A", O::atom(1), "C", O::Bottom)));
    }

    #[test]
    fn example_52_all_cross_product_tuples_appear() {
        // enlarge R1 to two tuples: every (x, z) combination must show up
        let mut st = example_52_state();
        st.get_mut("R1")
            .unwrap()
            .insert(pair("A", O::atom(7), "B", O::atom(8)));
        let (state, _) = eval_fixpoint(&BkProgram::join_rule(), &st, &BkConfig::default()).unwrap();
        let r = &state["R"];
        for x in [1u64, 7] {
            for z in [3u64, 5] {
                assert!(
                    r.contains(&pair("A", O::atom(x), "C", O::atom(z))),
                    "missing [A:{x}, C:{z}]"
                );
            }
        }
    }

    #[test]
    fn example_54_chain_to_list_diverges() {
        let dollar = O::Atom(uset_object::Atom::named("$"));
        let prog = BkProgram::chain_to_list(dollar.clone());
        let st = state_from([("S", vec![pair("A", dollar.clone(), "B", O::atom(1))])]);
        let cfg = BkConfig {
            max_rounds: 100,
            max_facts: 5000,
            ..BkConfig::default()
        };
        let err = eval_fixpoint(&prog, &st, &cfg).unwrap_err();
        let e = err.exhausted();
        assert_eq!(e.engine(), uset_guard::EngineId::Bk);
        // the partial snapshot retains the ⊥-lists derived before the trip
        assert!(!e.partial.state["LIST"].is_empty());
        assert!(e.stats.rounds > 0);
    }

    #[test]
    fn example_54_derives_growing_bottom_lists() {
        // run a few rounds and inspect the intermediate facts: the
        // ⊥-headed lists of increasing depth predicted by the paper —
        // [H:⊥,T:$], [H:⊥,T:[H:⊥,T:$]], … — must be among them
        let dollar = O::Atom(uset_object::Atom::named("$"));
        let prog = BkProgram::chain_to_list(dollar.clone());
        let st = state_from([("S", vec![pair("A", dollar.clone(), "B", O::atom(1))])]);
        let cfg = BkConfig {
            max_rounds: 4,
            max_facts: 100_000,
            ..BkConfig::default()
        };
        let (state, _, converged) = eval_rounds(&prog, &st, &cfg).unwrap();
        assert!(!converged, "Example 5.4 must not converge");
        let list = &state["LIST"];
        let depth1 = pair("H", O::Bottom, "T", dollar.clone());
        let depth2 = pair("H", O::Bottom, "T", depth1.clone());
        let depth3 = pair("H", O::Bottom, "T", depth2.clone());
        assert!(list.contains(&depth1));
        assert!(list.contains(&depth2));
        assert!(list.contains(&depth3));
    }

    #[test]
    fn monotone_growth_under_larger_input() {
        // adding input facts only adds output facts (BK is monotone)
        let prog = BkProgram::join_rule();
        let small = example_52_state();
        let mut big = small.clone();
        big.get_mut("R1")
            .unwrap()
            .insert(pair("A", O::atom(10), "B", O::atom(11)));
        let (out_small, _) = eval_fixpoint(&prog, &small, &BkConfig::default()).unwrap();
        let (out_big, _) = eval_fixpoint(&prog, &big, &BkConfig::default()).unwrap();
        assert!(out_small["R"].is_subset(&out_big["R"]));
    }

    #[test]
    fn exhaustive_mode_extends_principal_mode() {
        let prog = BkProgram::join_rule();
        let st = example_52_state();
        let (p, _) = eval_fixpoint(&prog, &st, &BkConfig::default()).unwrap();
        let (e, _) = eval_fixpoint(
            &prog,
            &st,
            &BkConfig {
                bind_mode: BindMode::Exhaustive,
                ..BkConfig::default()
            },
        )
        .unwrap();
        assert!(p["R"].is_subset(&e["R"]));
    }

    #[test]
    fn derivations_record_bindings() {
        let prog = BkProgram::join_rule();
        let (_, ds) = eval_fixpoint(&prog, &example_52_state(), &BkConfig::default()).unwrap();
        // find the derivation of the true join tuple and check its binding
        let join_fact = pair("A", O::atom(1), "C", O::atom(3));
        let d = ds
            .iter()
            .find(|d| d.fact == join_fact)
            .expect("join tuple derived");
        assert_eq!(d.bindings["y"], O::atom(2));
        assert_eq!(d.rule, 0);
    }

    #[test]
    fn constants_in_patterns_match_by_subobject() {
        // body pattern [A:1] (constant) matches [A:1, B:2] because the
        // pattern instantiates to a sub-object
        let prog = BkProgram::new(vec![crate::rules::BkRule::new(
            "Out",
            BkTerm::var("w"),
            vec![("R1", BkTerm::tuple([("A", BkTerm::cst(O::atom(1)))]))],
        )]);
        let (state, _) = eval_fixpoint(&prog, &example_52_state(), &BkConfig::default()).unwrap();
        // w is unbound in the body → instantiates to ⊥
        assert_eq!(state["Out"], [O::Bottom].into_iter().collect());
    }
}

#[cfg(test)]
mod par_tests {
    use super::*;
    use crate::object::BkObject as O;
    use uset_guard::ParConfig;

    fn pair(a: &'static str, x: O, b: &'static str, y: O) -> O {
        O::tuple([(a, x), (b, y)])
    }

    fn example_state() -> BkState {
        state_from([
            (
                "R1",
                vec![
                    pair("A", O::atom(1), "B", O::atom(2)),
                    pair("A", O::atom(7), "B", O::atom(8)),
                ],
            ),
            (
                "R2",
                vec![
                    pair("B", O::atom(2), "C", O::atom(3)),
                    pair("B", O::atom(4), "C", O::atom(5)),
                ],
            ),
        ])
    }

    fn governor(workers: usize) -> Governor {
        Governor::unlimited().with_par(ParConfig::workers(workers))
    }

    #[test]
    fn parallel_matches_sequential_in_both_bind_modes() {
        for mode in [BindMode::Principal, BindMode::Exhaustive] {
            let cfg = BkConfig {
                bind_mode: mode,
                ..BkConfig::default()
            };
            let prog = BkProgram::join_rule();
            let st = example_state();
            let mut seq_stats = EvalStats::default();
            let seq = eval_rounds_with(&prog, &st, &cfg, &governor(1), &mut seq_stats).unwrap();
            for workers in [2usize, 4] {
                let mut par_stats = EvalStats::default();
                let par =
                    eval_rounds_with(&prog, &st, &cfg, &governor(workers), &mut par_stats).unwrap();
                // states, convergence, the full derivation log, and every
                // work counter are bit-identical
                assert_eq!(seq, par, "{mode:?} at {workers} workers");
                assert_eq!(seq_stats, par_stats, "{mode:?} stats at {workers} workers");
            }
        }
    }

    #[test]
    fn parallel_divergent_program_trips_at_round_boundary() {
        let dollar = O::Atom(uset_object::Atom::named("$"));
        let prog = BkProgram::chain_to_list(dollar.clone());
        let st = state_from([("S", vec![pair("A", dollar.clone(), "B", O::atom(1))])]);
        let cfg = BkConfig {
            max_rounds: 100,
            max_facts: 40,
            ..BkConfig::default()
        };
        let governor =
            Governor::new(Budget::unlimited().with_facts(40)).with_par(ParConfig::workers(4));
        let err = eval_rounds_governed(&prog, &st, &cfg, &governor).unwrap_err();
        let e = err.exhausted();
        assert_eq!(e.engine(), EngineId::Bk);
        // every retained fact was derived by a completed round (or was
        // input) and the derivation log matches the retained state
        assert!(!e.partial.state["LIST"].is_empty());
        for d in &e.partial.derivations {
            assert!(
                e.partial.state[&d.pred].contains(&d.fact),
                "derivation log lists a fact missing from the snapshot"
            );
        }
    }
}
