//! The invention semantics of Section 6.
//!
//! For a query `Q` and database `d`:
//!
//! * `Q|ⁱ[d]` — evaluate under the limited interpretation with the active
//!   domain extended by `i` *invented* atoms ([`eval_with_invention`]);
//! * `Q|_i[d]` — `Q|ⁱ[d]` with objects containing invented values deleted
//!   ([`strip_invented`] composed with the above);
//! * finite invention `Q^fi[d] = ⋃_{0≤i<ω} Q|_i[d]` — r.e. but not
//!   computable in general; [`eval_fi`] computes the union up to a budget
//!   (exactly the approximation Example 6.2 exploits);
//! * countable invention `Q^ci[d] = Q|_ω[d]` — not even r.e.; only its
//!   finite-budget approximations are computable (Theorem 6.1), see
//!   DESIGN.md §5;
//! * **terminal invention** `Q^ti[d]` — `Q|_n[d]` for the least `n` such
//!   that `Q|ⁿ[d]` contains an invented value, `?` if there is no such `n`
//!   ([`eval_terminal`]). The paper's Theorem 6.4 shows this semantics is
//!   exactly C-equivalent; unlike fi/ci it needs no budget beyond the
//!   search cap for the (decidable-per-n) witness test.

use crate::ast::CalcQuery;
use crate::eval::{eval_query_over, extended_adom, CalcConfig, CalcError};
use std::collections::BTreeSet;
use std::time::Instant;
use uset_guard::trace::TraceEvent;
use uset_guard::{ckpt, EngineId, Governor, Trip};
use uset_object::flatten::Inventor;
use uset_object::{intern, Atom, Database, EvalStats, Instance};
use uset_par::try_par_map;

/// Engine label carried by every invention trace event. Rounds are
/// invention levels: `RoundStart::delta` is the level index `i`, and
/// `RoundEnd::delta` is what level `i` added to the accumulated answer.
const ENGINE: EngineId = EngineId::Calculus;

/// What an interrupted invention enumeration surrenders: the union of the
/// stripped per-level answers over the invention levels that ran to
/// completion. Each `Q|_i[d]` is computed atomically, so the snapshot is
/// always a finite under-approximation of `Q^fi[d]` (for [`eval_fi`]) or
/// of the levels searched so far (for [`eval_terminal`], where no witness
/// had been found yet).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InventionPartial {
    /// Union of `Q|_i[d]` over completed levels `i < levels_done`.
    pub union: Instance,
    /// Number of invention levels that completed before the trip.
    pub levels_done: usize,
}

fn exhaust(trip: Trip, union: Instance, levels_done: usize, stats: EvalStats) -> CalcError {
    CalcError::Exhausted(Box::new(uset_guard::Exhausted::new(
        trip,
        InventionPartial { union, levels_done },
        stats,
    )))
}

fn calc_fingerprint(kind: &str, q: &CalcQuery, cap: usize, db: &Database) -> u64 {
    let mut e = ckpt::Enc::new();
    e.put_str(ENGINE.as_str());
    e.put_str(kind);
    e.put_str(&format!("{q:?}"));
    e.put_u64(cap as u64);
    e.put_database(db);
    ckpt::fnv64(&e.finish())
}

fn calc_encode(next: usize, union: &Instance) -> Vec<u8> {
    let mut e = ckpt::Enc::new();
    e.put_u64(next as u64);
    e.put_instance(union);
    e.finish()
}

/// The loop state a calculus checkpoint restores: the next invention
/// level, and for [`eval_fi`] the union over completed levels (terminal
/// invention accumulates nothing before its witness, so its union stays
/// empty). A next level past the cap marks "search complete, crash landed
/// before cleanup".
fn calc_decode(rec: &ckpt::Recovered) -> Option<(usize, Instance)> {
    let mut d = ckpt::Dec::new(&rec.payload);
    let next = d.u64().ok()? as usize;
    let union = d.instance().ok()?;
    d.done().then_some((next, union))
}

/// Deterministically produce `i` invented atoms (disjoint from workload
/// atoms and named constants; recognized by [`Inventor::is_invented`]).
pub fn invented_atoms(i: usize) -> Vec<Atom> {
    let mut inv = Inventor::new();
    (0..i).map(|_| inv.fresh()).collect()
}

/// `Q|ⁱ[d]`: evaluate with the active domain extended by `i` invented
/// atoms. The result may mention invented atoms.
pub fn eval_with_invention(
    q: &CalcQuery,
    db: &Database,
    i: usize,
    config: &CalcConfig,
) -> Result<Instance, CalcError> {
    let mut atoms: BTreeSet<Atom> = extended_adom(q, db);
    atoms.extend(invented_atoms(i));
    eval_query_over(q, db, &atoms, config)
}

/// Delete objects containing invented values (the `Q|_i` step). With the
/// pool enabled the per-object test reads the cached `invented` bit off
/// the interned node instead of materializing `adom()`.
pub fn strip_invented(inst: &Instance) -> Instance {
    inst.iter()
        .filter(|v| !intern::fast_has_invented(v))
        .cloned()
        .collect()
}

/// `⋃_{0 ≤ i ≤ budget} Q|_i[d]` — the finite-invention semantics,
/// truncated at `budget`. The true `Q^fi` is the limit as the budget grows
/// (r.e., not computable); callers observe convergence by increasing the
/// budget.
pub fn eval_fi(
    q: &CalcQuery,
    db: &Database,
    budget: usize,
    config: &CalcConfig,
) -> Result<Instance, CalcError> {
    eval_fi_governed(q, db, budget, config, &Governor::new(config.budget()))
}

/// [`eval_fi`] under a [`Governor`]: each invention level is one step, and
/// a trip mid-enumeration surrenders the union over the completed levels
/// (an under-approximation of `Q^fi[d]`) instead of discarding it. The
/// union is checked against the value-size cap after every level.
pub fn eval_fi_governed(
    q: &CalcQuery,
    db: &Database,
    budget: usize,
    config: &CalcConfig,
    governor: &Governor,
) -> Result<Instance, CalcError> {
    let (union, _) = search(Stop::Union, q, db, budget, config, governor)?;
    Ok(union)
}

/// When the level loop stops: finite invention runs every level up to
/// the cap, accumulating the stripped union; terminal invention stops at
/// the first level whose raw answer holds an invented value.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stop {
    Union,
    Witness,
}

/// The level loop behind both semantics: `Q|ⁱ[d]` for `i = 0, 1, …, cap`,
/// one guard step per level. Returns the stripped union with no witness
/// ([`Stop::Union`]), or the witness level and its stripped answer
/// ([`Stop::Witness`]; an empty union and no witness when every level up
/// to the cap is ruled out).
///
/// Levels evaluate speculatively in chunks ([`level_chunk`]), but the
/// guard is consulted in the exact sequential order, so a trip lands on
/// the same level at every width, and evaluations past a trip or a
/// witness are dropped exactly as the sequential loop never runs them.
/// Every completed level commits its checkpoint, except a witness level,
/// which a resume searches again and recharges identically.
fn search(
    stop: Stop,
    q: &CalcQuery,
    db: &Database,
    cap: usize,
    config: &CalcConfig,
    governor: &Governor,
) -> Result<(Instance, Option<usize>), CalcError> {
    let kind = match stop {
        Stop::Union => "fi",
        Stop::Witness => "terminal",
    };
    let fingerprint = || calc_fingerprint(kind, q, cap, db);
    let stats = &mut EvalStats::default();
    governor.run(ENGINE, stats, fingerprint, calc_decode, |run, stats, at| {
        let (mut level, mut union) = at.unwrap_or((0, Instance::empty()));
        let workers = run.guard.workers();
        let trace = &governor.trace;
        while level <= cap {
            let (levels, level_cfg) = level_chunk(level, cap, workers, config);
            let evaluated = try_par_map(workers, &levels, |_, &i| {
                eval_with_invention(q, db, i, &level_cfg)
            });
            let Ok(raws) = evaluated else {
                // a speculative level panicked on a worker: the pool
                // drained cleanly, and the levels before the chunk are
                // still a sound prefix, so surrender their union
                return Err(exhaust(run.guard.panic_trip(), union, level, *stats));
            };
            for (i, raw) in levels.iter().copied().zip(raws) {
                stats.observe_facts(union.len());
                if let Err(trip) = run.guard.step() {
                    return Err(exhaust(trip, union, i, *stats));
                }
                let round = run.guard.steps();
                let round_t0 = trace.enabled().then(Instant::now);
                trace.emit(|| TraceEvent::RoundStart {
                    engine: ENGINE.as_str().into(),
                    round,
                    delta: i as u64,
                });
                let raw = raw?;
                stats.rounds += 1;
                stats.tuples_derived += raw.len() as u64;
                let (added, facts) = match stop {
                    Stop::Union => {
                        let before = union.len();
                        union.absorb(strip_invented(&raw));
                        stats.observe_facts(union.len());
                        if let Err(trip) = run.guard.check_value(union.len(), None) {
                            // the union itself blew the size cap: level i
                            // completed, and the (oversized) union is
                            // still a sound under-approximation
                            return Err(exhaust(trip, union, i + 1, *stats));
                        }
                        (union.len() - before, union.len())
                    }
                    Stop::Witness => {
                        stats.observe_facts(raw.len());
                        (0, raw.len())
                    }
                };
                let value_hwm = run.guard.value_hwm() as u64;
                trace.emit(|| TraceEvent::RoundEnd {
                    engine: ENGINE.as_str().into(),
                    round,
                    delta: added as u64,
                    facts: facts as u64,
                    value_hwm,
                    wall_micros: round_t0.map_or(0, |t| t.elapsed().as_micros() as u64),
                });
                if stop == Stop::Witness && raw.iter().any(intern::fast_has_invented) {
                    return Ok((strip_invented(&raw), Some(i)));
                }
                run.commit(round, stats, || calc_encode(i + 1, &union));
            }
            level += levels.len();
        }
        Ok((union, None))
    })
}

/// The next chunk of invention levels to evaluate speculatively, from
/// `start` up to `cap`, plus the per-level config. With several levels
/// left, the levels themselves are the candidate space: up to `workers`
/// of them evaluate concurrently (each level sequential inside — the
/// level fan-out already fills the pool). With a single level left or a
/// sequential policy, the level runs alone and its `cons_T(X)`
/// enumerations are split instead. Either way each `Q|ⁱ[d]` is a pure
/// function of `i`, so results are independent of the split.
fn level_chunk(
    start: usize,
    cap: usize,
    workers: usize,
    config: &CalcConfig,
) -> (Vec<usize>, CalcConfig) {
    let levels: Vec<usize> = (start..=cap).take(workers).collect();
    let alone = levels.len() == 1;
    let workers = if alone {
        workers.max(config.workers)
    } else {
        1
    };
    (levels, CalcConfig { workers, ..*config })
}

/// Outcome of terminal-invention evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InventionOutcome {
    /// `Q|_n[d]` for the least `n` whose raw output contains an invented
    /// value.
    Defined {
        /// The terminal `n`.
        n: usize,
        /// The answer.
        answer: Instance,
    },
    /// No `n ≤ cap` produced an invented value: the paper's `?` (up to the
    /// search cap, which makes the r.e. search finite).
    Undefined,
}

/// `Q^ti[d]` — terminal invention, searching `n = 0, 1, …, cap`.
pub fn eval_terminal(
    q: &CalcQuery,
    db: &Database,
    cap: usize,
    config: &CalcConfig,
) -> Result<InventionOutcome, CalcError> {
    eval_terminal_governed(q, db, cap, config, &Governor::new(config.budget()))
}

/// [`eval_terminal`] under a [`Governor`]: each candidate `n` is one step.
/// A trip mid-search reports how many levels were ruled out (the partial
/// union is empty — terminal invention accumulates nothing until its
/// witness level).
pub fn eval_terminal_governed(
    q: &CalcQuery,
    db: &Database,
    cap: usize,
    config: &CalcConfig,
    governor: &Governor,
) -> Result<InventionOutcome, CalcError> {
    Ok(match search(Stop::Witness, q, db, cap, config, governor)? {
        (answer, Some(n)) => InventionOutcome::Defined { n, answer },
        (_, None) => InventionOutcome::Undefined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CalcTerm, Formula};
    use uset_object::{atom, Instance, RType, Value};

    fn unary_db(atoms: &[u64]) -> Database {
        let mut db = Database::empty();
        db.set("R", Instance::from_values(atoms.iter().map(|&a| atom(a))));
        db
    }

    /// `{ x/U | x ≈ x }` — the all-atoms query; under invention it sees the
    /// invented atoms too.
    fn all_atoms_query() -> CalcQuery {
        CalcQuery::new(
            "x",
            RType::Atomic,
            Formula::Eq(CalcTerm::var("x"), CalcTerm::var("x")),
        )
    }

    #[test]
    fn invention_extends_the_domain() {
        let db = unary_db(&[1, 2]);
        let q = all_atoms_query();
        let cfg = CalcConfig::default();
        let q0 = eval_with_invention(&q, &db, 0, &cfg).unwrap();
        assert_eq!(q0.len(), 2);
        let q3 = eval_with_invention(&q, &db, 3, &cfg).unwrap();
        assert_eq!(q3.len(), 5);
        // stripping recovers the base output
        assert_eq!(strip_invented(&q3), q0);
    }

    #[test]
    fn fi_union_is_monotone_in_budget() {
        let db = unary_db(&[1]);
        let q = all_atoms_query();
        let cfg = CalcConfig::default();
        let f0 = eval_fi(&q, &db, 0, &cfg).unwrap();
        let f2 = eval_fi(&q, &db, 2, &cfg).unwrap();
        assert!(f0.is_subset(&f2));
        // for this query the stripped output never grows with i
        assert_eq!(f0, f2);
    }

    #[test]
    fn terminal_invention_defined_at_one() {
        // the all-atoms query mentions an invented atom as soon as i = 1,
        // so Q^ti = Q|_1 = adom
        let db = unary_db(&[1, 2]);
        let q = all_atoms_query();
        match eval_terminal(&q, &db, 5, &CalcConfig::default()).unwrap() {
            InventionOutcome::Defined { n, answer } => {
                assert_eq!(n, 1);
                assert_eq!(answer, Instance::from_values([atom(1), atom(2)]));
            }
            InventionOutcome::Undefined => panic!("expected defined"),
        }
    }

    #[test]
    fn terminal_invention_undefined_for_domain_bound_query() {
        // { x/U | R(x) } never outputs an invented value — Q^ti = ?
        let db = unary_db(&[1]);
        let q = CalcQuery::new(
            "x",
            RType::Atomic,
            Formula::Pred("R".into(), CalcTerm::var("x")),
        );
        assert_eq!(
            eval_terminal(&q, &db, 5, &CalcConfig::default()).unwrap(),
            InventionOutcome::Undefined
        );
    }

    #[test]
    fn terminal_invention_with_conditional_witness() {
        // { x/U | R(x) ∨ ¬∃y/U R(y) } — outputs invented atoms exactly
        // when R is empty: Q^ti is defined (empty answer) on empty R and
        // undefined otherwise. This shows ti queries can *selectively*
        // diverge, the mechanism behind Theorem 6.4's C-completeness.
        let q = CalcQuery::new(
            "x",
            RType::Atomic,
            Formula::Pred("R".into(), CalcTerm::var("x")).or(Formula::Pred(
                "R".into(),
                CalcTerm::var("y"),
            )
            .exists("y", RType::Atomic)
            .not()),
        );
        let cfg = CalcConfig::default();
        let empty = unary_db(&[]);
        match eval_terminal(&q, &empty, 5, &cfg).unwrap() {
            InventionOutcome::Defined { n, answer } => {
                assert_eq!(n, 1);
                assert!(answer.is_empty());
            }
            InventionOutcome::Undefined => panic!("expected defined on empty R"),
        }
        let nonempty = unary_db(&[1]);
        assert_eq!(
            eval_terminal(&q, &nonempty, 5, &cfg).unwrap(),
            InventionOutcome::Undefined
        );
    }

    #[test]
    fn fi_budget_trips_with_partial_union() {
        let db = unary_db(&[1, 2]);
        let q = all_atoms_query();
        let cfg = CalcConfig::default();
        let gov = Governor::new(uset_guard::Budget::unlimited().with_steps(2));
        let err = eval_fi_governed(&q, &db, 10, &cfg, &gov).unwrap_err();
        let e = err.exhausted().expect("budget trip");
        assert_eq!(e.engine(), EngineId::Calculus);
        assert_eq!(e.resource(), uset_guard::Resource::Steps);
        // levels 0 and 1 completed; their stripped union is the base answer
        assert_eq!(e.partial.levels_done, 2);
        assert_eq!(
            e.partial.union,
            eval_fi(&q, &db, 1, &cfg).expect("unbudgeted prefix")
        );
        assert_eq!(e.stats.rounds, 2);
    }

    #[test]
    fn terminal_search_cancelled_by_failpoint() {
        // a query that never invents, so the search would run to the cap
        let db = unary_db(&[1]);
        let q = CalcQuery::new(
            "x",
            RType::Atomic,
            Formula::Pred("R".into(), CalcTerm::var("x")),
        );
        let cfg = CalcConfig::default();
        let gov = Governor::new(cfg.budget()).with_failpoint(uset_guard::FailPoint::cancel_at(2));
        let err = eval_terminal_governed(&q, &db, 5, &cfg, &gov).unwrap_err();
        let e = err.exhausted().expect("cancellation trip");
        assert_eq!(e.resource(), uset_guard::Resource::Cancelled);
        // exactly one level was ruled out before the cancel landed
        assert_eq!(e.partial.levels_done, 1);
        assert!(e.partial.union.is_empty());
    }

    #[test]
    fn parallel_fi_matches_sequential_exactly() {
        let db = unary_db(&[1, 2, 3]);
        let q = all_atoms_query();
        let cfg = CalcConfig::default();
        let seq = eval_fi(&q, &db, 6, &cfg).unwrap();
        for workers in [2, 4, 7] {
            let gov = Governor::new(cfg.budget()).with_par(uset_par::ParConfig::workers(workers));
            let par = eval_fi_governed(&q, &db, 6, &cfg, &gov).unwrap();
            assert_eq!(par, seq, "workers {workers}");
        }
    }

    #[test]
    fn parallel_fi_trips_on_the_same_level_with_identical_partial() {
        let db = unary_db(&[1, 2]);
        let q = all_atoms_query();
        let cfg = CalcConfig::default();
        let budget = || uset_guard::Budget::unlimited().with_steps(2);
        let seq_err = eval_fi_governed(&q, &db, 10, &cfg, &Governor::new(budget())).unwrap_err();
        let seq = seq_err.exhausted().expect("sequential trip");
        for workers in [2, 4] {
            let gov = Governor::new(budget()).with_par(uset_par::ParConfig::workers(workers));
            let err = eval_fi_governed(&q, &db, 10, &cfg, &gov).unwrap_err();
            let e = err.exhausted().expect("parallel trip");
            // the guard is stepped in sequential order inside the chunk
            // fold, so the trip level, partial union, and stats are
            // bit-identical to the sequential run
            assert_eq!(e.resource(), uset_guard::Resource::Steps);
            assert_eq!(e.partial, seq.partial, "workers {workers}");
            assert_eq!(e.stats, seq.stats, "workers {workers}");
        }
    }

    #[test]
    fn parallel_terminal_matches_sequential_in_both_outcomes() {
        let cfg = CalcConfig::default();
        // defined at n = 1: a witness mid-chunk discards the speculative tail
        let db = unary_db(&[1, 2]);
        let q = all_atoms_query();
        let seq = eval_terminal(&q, &db, 5, &cfg).unwrap();
        assert!(matches!(seq, InventionOutcome::Defined { n: 1, .. }));
        // undefined: the whole search space is chunked through
        let bound_q = CalcQuery::new(
            "x",
            RType::Atomic,
            Formula::Pred("R".into(), CalcTerm::var("x")),
        );
        let seq_undef = eval_terminal(&bound_q, &db, 5, &cfg).unwrap();
        assert_eq!(seq_undef, InventionOutcome::Undefined);
        for workers in [2, 4] {
            let gov =
                || Governor::new(cfg.budget()).with_par(uset_par::ParConfig::workers(workers));
            assert_eq!(
                eval_terminal_governed(&q, &db, 5, &cfg, &gov()).unwrap(),
                seq,
                "workers {workers}"
            );
            assert_eq!(
                eval_terminal_governed(&bound_q, &db, 5, &cfg, &gov()).unwrap(),
                seq_undef,
                "workers {workers}"
            );
        }
    }

    #[test]
    fn parallel_terminal_failpoint_cancels_on_the_same_level() {
        // `terminal_search_cancelled_by_failpoint` at width 4: guard.step()
        // is called once per level in level order regardless of width, so
        // the cancel lands on the same level as the sequential run
        let db = unary_db(&[1]);
        let q = CalcQuery::new(
            "x",
            RType::Atomic,
            Formula::Pred("R".into(), CalcTerm::var("x")),
        );
        let cfg = CalcConfig::default();
        let gov = Governor::new(cfg.budget())
            .with_failpoint(uset_guard::FailPoint::cancel_at(2))
            .with_par(uset_par::ParConfig::workers(4));
        let err = eval_terminal_governed(&q, &db, 5, &cfg, &gov).unwrap_err();
        let e = err.exhausted().expect("cancellation trip");
        assert_eq!(e.resource(), uset_guard::Resource::Cancelled);
        assert_eq!(e.partial.levels_done, 1);
        assert!(e.partial.union.is_empty());
    }

    #[test]
    fn invented_atoms_are_disjoint_and_recognized() {
        let inv = invented_atoms(4);
        let distinct: std::collections::BTreeSet<_> = inv.iter().collect();
        assert_eq!(distinct.len(), 4);
        for a in &inv {
            assert!(uset_object::flatten::Inventor::is_invented(*a));
        }
        // deterministic across calls (the semantics is a function of i)
        assert_eq!(invented_atoms(4), inv);
    }

    #[test]
    fn strip_removes_nested_invented_values() {
        let inv = invented_atoms(1)[0];
        let inst = Instance::from_values([
            atom(1),
            Value::Set([Value::Atom(inv)].into_iter().collect()),
            uset_object::tuple([atom(2), Value::Atom(inv)]),
        ]);
        assert_eq!(strip_invented(&inst), Instance::from_values([atom(1)]));
    }
}
