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

use crate::object::BkObject;
use crate::order::{subobject, subobjects};
use crate::rules::{BkProgram, BkRule, BkTerm};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use uset_guard::ckpt;
use uset_guard::trace::span::{engine_end, engine_start, RuleFirings};
use uset_guard::trace::TraceEvent;
use uset_guard::{Budget, EngineId, Exhausted, Governor, Guard, ParBrake, Resource, Trip};
use uset_object::EvalStats;
use uset_par::try_par_map;

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

/// The last consistent round's state, surrendered on exhaustion: mid-round
/// insertions are rolled back so every fact here was derived by a fully
/// completed round (or was part of the input).
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

/// The budget checks a binding search performs — the real [`Guard`] on
/// the sequential path, a worker-local relay in parallel rounds (workers
/// cannot touch the single-threaded guard; the main thread replays their
/// observations against it in rule order, so trips and the value
/// high-water mark stay authoritative and deterministic).
trait BkCheck {
    /// Cooperative cancellation point.
    fn check_point(&mut self) -> Result<(), Trip>;
    /// Report one enumeration's size against the structural cap.
    fn check_value(&mut self, size: usize, floor: Option<usize>) -> Result<(), Trip>;
}

impl BkCheck for Guard {
    fn check_point(&mut self) -> Result<(), Trip> {
        Guard::check_point(self)
    }

    fn check_value(&mut self, size: usize, floor: Option<usize>) -> Result<(), Trip> {
        Guard::check_value(self, size, floor)
    }
}

/// Worker-local checker: polls the shared [`ParBrake`] for cancellation
/// and enforces only the *structural* floor locally (the floor is a hard
/// cap independent of budgets, so tripping it early on the worker is
/// sound). Everything observed is replayed against the real guard at
/// merge time; a worker-built [`Trip`] is never surfaced to the caller.
struct WorkerCheck<'a> {
    brake: &'a ParBrake,
    value_hwm: usize,
    checked: bool,
}

impl BkCheck for WorkerCheck<'_> {
    fn check_point(&mut self) -> Result<(), Trip> {
        if self.brake.should_stop() {
            Err(Trip {
                engine: EngineId::Bk,
                resource: Resource::Cancelled,
                consumed: 0,
                limit: 0,
            })
        } else {
            Ok(())
        }
    }

    fn check_value(&mut self, size: usize, floor: Option<usize>) -> Result<(), Trip> {
        self.checked = true;
        self.value_hwm = self.value_hwm.max(size);
        if let Some(f) = floor {
            if size > f {
                return Err(Trip {
                    engine: EngineId::Bk,
                    resource: Resource::ValueSize,
                    consumed: size as u64,
                    limit: f as u64,
                });
            }
        }
        Ok(())
    }
}

/// All extensions of `b` making `pat` instantiate to a sub-object of
/// `target`.
fn match_pattern<C: BkCheck>(
    pat: &BkTerm,
    target: &BkObject,
    b: &Bindings,
    config: &BkConfig,
    guard: &mut C,
) -> Result<Vec<Bindings>, Trip> {
    let mode = config.bind_mode;
    match pat {
        BkTerm::Var(v) => match b.get(v) {
            Some(bound) => {
                if subobject(bound, target) {
                    Ok(vec![b.clone()])
                } else {
                    Ok(Vec::new())
                }
            }
            None => {
                let candidates: Vec<BkObject> = match mode {
                    BindMode::Principal => {
                        if *target == BkObject::Bottom {
                            vec![BkObject::Bottom]
                        } else {
                            vec![target.clone(), BkObject::Bottom]
                        }
                    }
                    BindMode::Exhaustive => {
                        let cap = config.max_subobjects;
                        match subobjects(target, cap) {
                            Some(cs) => {
                                guard.check_value(cs.len(), Some(cap))?;
                                cs
                            }
                            None => {
                                // enumeration overflowed the structural cap
                                guard.check_value(cap.saturating_add(1), Some(cap))?;
                                unreachable!("check_value must trip past its floor")
                            }
                        }
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
        BkTerm::Const(c) => {
            if subobject(c, target) {
                Ok(vec![b.clone()])
            } else {
                Ok(Vec::new())
            }
        }
        BkTerm::Tuple(m) => {
            // the instantiated tuple has exactly attrs(m); it is ⊑ target
            // iff target is a tuple (or ⊤) providing each attribute above
            let out_for_top = |b: &Bindings, guard: &mut C| -> Result<Vec<Bindings>, Trip> {
                // everything is ⊑ ⊤: match sub-patterns against ⊤
                let mut acc = vec![b.clone()];
                for t in m.values() {
                    let mut next = Vec::new();
                    for bb in &acc {
                        next.extend(match_pattern(t, &BkObject::Top, bb, config, guard)?);
                    }
                    acc = next;
                }
                Ok(acc)
            };
            match target {
                BkObject::Top => out_for_top(b, guard),
                BkObject::Tuple(tm) => {
                    let mut acc = vec![b.clone()];
                    for (k, t) in m {
                        let Some(tv) = tm.get(k) else {
                            return Ok(Vec::new());
                        };
                        let mut next = Vec::new();
                        for bb in &acc {
                            next.extend(match_pattern(t, tv, bb, config, guard)?);
                        }
                        acc = next;
                        if acc.is_empty() {
                            break;
                        }
                    }
                    Ok(acc)
                }
                _ => Ok(Vec::new()),
            }
        }
        BkTerm::Set(items) => match target {
            BkObject::Set(ts) => {
                // each item pattern must be ⊑ some member
                let mut acc = vec![b.clone()];
                for item in items {
                    let mut next = Vec::new();
                    for bb in &acc {
                        for member in ts {
                            next.extend(match_pattern(item, member, bb, config, guard)?);
                        }
                    }
                    acc = next;
                    if acc.is_empty() {
                        break;
                    }
                }
                Ok(acc)
            }
            BkObject::Top => {
                let mut acc = vec![b.clone()];
                for item in items {
                    let mut next = Vec::new();
                    for bb in &acc {
                        next.extend(match_pattern(item, &BkObject::Top, bb, config, guard)?);
                    }
                    acc = next;
                }
                Ok(acc)
            }
            _ => Ok(Vec::new()),
        },
    }
}

/// All valuations satisfying a rule body against the state.
fn rule_bindings<C: BkCheck>(
    rule: &BkRule,
    state: &BkState,
    config: &BkConfig,
    guard: &mut C,
) -> Result<Vec<Bindings>, Trip> {
    let mut acc: Vec<Bindings> = vec![Bindings::new()];
    for lit in &rule.body {
        guard.check_point()?;
        let extent = state.get(&lit.pred).cloned().unwrap_or_default();
        let mut next = Vec::new();
        for b in &acc {
            for target in &extent {
                next.extend(match_pattern(&lit.pattern, target, b, config, guard)?);
            }
        }
        // dedup to keep the frontier small
        next.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        next.dedup();
        acc = next;
        if acc.is_empty() {
            break;
        }
    }
    Ok(acc)
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

/// The loop state a BK checkpoint restores: rounds of the `max_rounds`
/// allowance spent, the predicate extents, and the derivation log.
struct BkResume {
    rounds_in_run: u64,
    state: BkState,
    derivations: Vec<Derivation>,
}

fn bk_encode(rounds_in_run: u64, state: &BkState, derivations: &[Derivation]) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(rounds_in_run);
    e.put_usize(state.len());
    for (pred, extent) in state {
        e.put_str(pred);
        e.put_usize(extent.len());
        for o in extent {
            put_bk_object(&mut e, o);
        }
    }
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

fn bk_decode(payload: &[u8]) -> Option<BkResume> {
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
    d.done().then_some(BkResume {
        rounds_in_run,
        state,
        derivations,
    })
}

/// Fingerprint of one governed BK computation: program, input state,
/// and the config knobs that shape rounds (bind mode and the
/// enumeration cap both change what a round derives).
fn bk_fingerprint(prog: &BkProgram, input: &BkState, config: &BkConfig) -> u64 {
    let mut e = ckpt::Enc::new();
    e.put_str(ENGINE);
    e.put_str(&format!("{:?}", prog.rules));
    e.put_str(&format!("{:?}", config.bind_mode));
    e.put_u64(config.max_subobjects as u64);
    e.put_usize(input.len());
    for (pred, extent) in input {
        e.put_str(pred);
        e.put_usize(extent.len());
        for o in extent {
            put_bk_object(&mut e, o);
        }
    }
    ckpt::fnv64(&e.finish())
}

fn exhaust(trip: Trip, state: BkState, derivations: Vec<Derivation>, stats: EvalStats) -> BkError {
    BkError::Exhausted(Box::new(Exhausted::new(
        trip,
        BkPartial { state, derivations },
        stats,
    )))
}

/// Run at most `config.max_rounds` rounds of the monotone operator.
/// Returns the reached state, the recorded derivations, and whether the
/// fixpoint converged within the round bound. `Err` on budget exhaustion
/// or cancellation; the error's partial snapshot is the state at the last
/// completed round (a trip mid-round rolls that round's insertions back).
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
    let mut guard = governor.guard(EngineId::Bk);
    let trace = governor.trace.clone();
    let mut ctx = RuleFirings::new(ENGINE, &trace);
    let run_start = engine_start(ENGINE, &trace);
    let mut state = input.clone();
    let mut derivations: Vec<Derivation> = Vec::new();
    // recover the last durable round of a matching interrupted run, if
    // the governor configured a checkpoint directory
    let mut session = guard.ckpt_session(|| bk_fingerprint(prog, input, config));
    let mut start_round = 0;
    if let Some(sess) = session.as_mut() {
        if let Some(rec) = sess.recover() {
            if let Some(r) = bk_decode(&rec.payload) {
                guard.adopt_recovery(&rec, stats);
                start_round = r.rounds_in_run;
                state = r.state;
                derivations = r.derivations;
            }
        }
    }
    let base: usize = state.values().map(BTreeSet::len).sum();
    stats.observe_facts(base);
    if let Err(trip) = guard.set_fact_base(base) {
        return Err(exhaust(trip, state, derivations, *stats));
    }
    for done_rounds in start_round..config.max_rounds {
        if let Err(trip) = guard.step() {
            return Err(exhaust(trip, state, derivations, *stats));
        }
        stats.rounds += 1;
        let round_no = guard.steps();
        let round_t0 = trace.enabled().then(Instant::now);
        trace.emit(|| TraceEvent::RoundStart {
            engine: ENGINE.into(),
            round: round_no,
            delta: 0,
        });
        ctx.clear();
        let mut changed = false;
        let mut new_per_rule: BTreeMap<usize, u64> = BTreeMap::new();
        let snapshot = state.clone();
        let round_start = derivations.len();
        let workers = guard.workers();
        let parallel = if workers > 1 {
            // phase 1, parallel: every rule's binding search runs against
            // the shared pre-round snapshot on the worker pool; budget
            // observations are replayed against the real guard in rule
            // order below, so trips and traces stay deterministic
            let brake = guard.par_brake();
            let rule_list: Vec<(usize, &BkRule)> = prog.rules.iter().enumerate().collect();
            let timed = ctx.enabled();
            let fired = try_par_map(workers, &rule_list, |_, &(_, rule)| {
                let t0 = timed.then(Instant::now);
                let mut check = WorkerCheck {
                    brake: &brake,
                    value_hwm: 0,
                    checked: false,
                };
                let res = rule_bindings(rule, &snapshot, config, &mut check);
                if let Ok(bs) = &res {
                    brake.charge(bs.len() as u64);
                }
                let wall = t0.map_or(0, |t| t.elapsed().as_micros() as u64);
                (res, check.value_hwm, check.checked, wall)
            });
            let outputs = match fired {
                Ok(o) => o,
                Err(_panic) => {
                    // a rule's binding search panicked on a worker: the
                    // pool drained cleanly and nothing was inserted, so
                    // the state is still the last completed round's —
                    // surface a structured trip instead of unwinding
                    let trip = guard.panic_trip();
                    return Err(exhaust(trip, state, derivations, *stats));
                }
            };
            // a worker overran the derivation allowance, which counts raw
            // bindings, duplicates included: nothing was inserted yet, so
            // the sequential round below derives it again one fact at a
            // time, tripping only if its new facts overrun the budget
            (!brake.engaged()).then_some((rule_list, outputs))
        } else {
            None
        };
        if let Some((rule_list, outputs)) = parallel {
            // phase 2: replay each worker's budget observations against
            // the real guard and insert, in rule order
            let merge = |state: &mut BkState,
                         derivations: &mut Vec<Derivation>,
                         stats: &mut EvalStats,
                         guard: &mut Guard,
                         changed: &mut bool,
                         ctx: &mut RuleFirings,
                         new_per_rule: &mut BTreeMap<usize, u64>|
             -> Result<(), Trip> {
                for (&(idx, rule), (res, hwm, checked, wall)) in rule_list.iter().zip(outputs) {
                    guard.check_point()?;
                    if checked {
                        guard.check_value(hwm, Some(config.max_subobjects))?;
                    }
                    stats.rules_fired += 1;
                    let bindings = res.unwrap_or_default();
                    let produced = bindings.len() as u64;
                    for b in bindings {
                        let fact = rule.head.instantiate(&b);
                        stats.tuples_derived += 1;
                        let extent = state.entry(rule.head_pred.clone()).or_default();
                        // probe before cloning: re-derivations (the common
                        // case once the fixpoint nears) pay one lookup and
                        // no deep copy of the fact
                        if !extent.contains(&fact) {
                            extent.insert(fact.clone());
                            guard.add_fact()?;
                            *changed = true;
                            if ctx.enabled() {
                                *new_per_rule.entry(idx).or_default() += 1;
                            }
                            if ctx.want_provenance() {
                                let rendered = render_bk_fact(&rule.head_pred, &fact);
                                let parents: Vec<String> = rule
                                    .body
                                    .iter()
                                    .map(|lit| {
                                        render_bk_fact(&lit.pred, &lit.pattern.instantiate(&b))
                                    })
                                    .collect();
                                trace.emit(move || TraceEvent::Derivation {
                                    engine: ENGINE.into(),
                                    round: round_no,
                                    rule: idx,
                                    fact: rendered,
                                    parents,
                                });
                            }
                            derivations.push(Derivation {
                                rule: idx,
                                bindings: b,
                                pred: rule.head_pred.clone(),
                                fact,
                            });
                        }
                    }
                    if ctx.enabled() {
                        ctx.record(idx, produced, wall);
                    }
                }
                Ok(())
            };
            if let Err(trip) = merge(
                &mut state,
                &mut derivations,
                stats,
                &mut guard,
                &mut changed,
                &mut ctx,
                &mut new_per_rule,
            ) {
                // roll the incomplete round back to the last consistent
                // state
                for d in derivations.drain(round_start..) {
                    if let Some(extent) = state.get_mut(&d.pred) {
                        extent.remove(&d.fact);
                    }
                }
                return Err(exhaust(trip, state, derivations, *stats));
            }
            let facts: usize = state.values().map(BTreeSet::len).sum();
            stats.observe_facts(facts);
            ctx.emit_round(
                &trace,
                round_no,
                &new_per_rule,
                facts as u64,
                guard.value_hwm() as u64,
                round_t0,
            );
            if !changed {
                engine_end(ENGINE, &trace, guard.steps(), run_start);
                if let Some(sess) = session.as_mut() {
                    sess.finish();
                }
                return Ok((state, derivations, true));
            }
            // the quiescent round is never committed: a resume replays
            // it from the previous commit and recharges identically
            if let Some(sess) = session.as_mut() {
                let payload = bk_encode(done_rounds + 1, &state, &derivations);
                sess.commit(&guard.round_ckpt(round_no, stats, payload));
            }
            continue;
        }
        let round = |state: &mut BkState,
                     derivations: &mut Vec<Derivation>,
                     stats: &mut EvalStats,
                     guard: &mut Guard,
                     changed: &mut bool,
                     ctx: &mut RuleFirings,
                     new_per_rule: &mut BTreeMap<usize, u64>|
         -> Result<(), Trip> {
            for (idx, rule) in prog.rules.iter().enumerate() {
                let fire_t0 = ctx.enabled().then(Instant::now);
                let bindings = rule_bindings(rule, &snapshot, config, guard)?;
                stats.rules_fired += 1;
                let produced = bindings.len() as u64;
                for b in bindings {
                    let fact = rule.head.instantiate(&b);
                    stats.tuples_derived += 1;
                    let extent = state.entry(rule.head_pred.clone()).or_default();
                    // probe before cloning, as in the parallel merge above
                    if !extent.contains(&fact) {
                        extent.insert(fact.clone());
                        guard.add_fact()?;
                        *changed = true;
                        if ctx.enabled() {
                            *new_per_rule.entry(idx).or_default() += 1;
                        }
                        if ctx.want_provenance() {
                            let rendered = render_bk_fact(&rule.head_pred, &fact);
                            let parents: Vec<String> = rule
                                .body
                                .iter()
                                .map(|lit| render_bk_fact(&lit.pred, &lit.pattern.instantiate(&b)))
                                .collect();
                            trace.emit(move || TraceEvent::Derivation {
                                engine: ENGINE.into(),
                                round: round_no,
                                rule: idx,
                                fact: rendered,
                                parents,
                            });
                        }
                        derivations.push(Derivation {
                            rule: idx,
                            bindings: b,
                            pred: rule.head_pred.clone(),
                            fact,
                        });
                    }
                }
                if let Some(t0) = fire_t0 {
                    ctx.record(idx, produced, t0.elapsed().as_micros() as u64);
                }
            }
            Ok(())
        };
        if let Err(trip) = round(
            &mut state,
            &mut derivations,
            stats,
            &mut guard,
            &mut changed,
            &mut ctx,
            &mut new_per_rule,
        ) {
            // roll the incomplete round back to the last consistent state
            for d in derivations.drain(round_start..) {
                if let Some(extent) = state.get_mut(&d.pred) {
                    extent.remove(&d.fact);
                }
            }
            return Err(exhaust(trip, state, derivations, *stats));
        }
        let facts: usize = state.values().map(BTreeSet::len).sum();
        stats.observe_facts(facts);
        ctx.emit_round(
            &trace,
            round_no,
            &new_per_rule,
            facts as u64,
            guard.value_hwm() as u64,
            round_t0,
        );
        if !changed {
            engine_end(ENGINE, &trace, guard.steps(), run_start);
            if let Some(sess) = session.as_mut() {
                sess.finish();
            }
            return Ok((state, derivations, true));
        }
        if let Some(sess) = session.as_mut() {
            let payload = bk_encode(done_rounds + 1, &state, &derivations);
            sess.commit(&guard.round_ckpt(round_no, stats, payload));
        }
    }
    engine_end(ENGINE, &trace, guard.steps(), run_start);
    if let Some(sess) = session.as_mut() {
        sess.finish();
    }
    Ok((state, derivations, false))
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

/// [`eval_fixpoint`] under a shared-layer [`Governor`].
pub fn eval_fixpoint_governed(
    prog: &BkProgram,
    input: &BkState,
    config: &BkConfig,
    governor: &Governor,
) -> Result<(BkState, Vec<Derivation>), BkError> {
    let mut stats = EvalStats::default();
    match eval_rounds_with(prog, input, config, governor, &mut stats)? {
        (state, derivations, true) => Ok((state, derivations)),
        (state, derivations, false) => Err(exhaust(
            Trip {
                engine: EngineId::Bk,
                resource: Resource::Steps,
                consumed: config.max_rounds,
                limit: config.max_rounds,
            },
            state,
            derivations,
            stats,
        )),
    }
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
