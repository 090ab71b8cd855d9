//! Magic-set demand restriction for single-goal DATALOG¬ queries.
//!
//! [`query_datalog`] answers a [`Goal`] — a predicate with some argument
//! positions bound to constants — without materializing the whole
//! fixpoint. The classic transformation (Bancilhon–Maier–Sagiv–Ullman)
//! is applied when it is safe here:
//!
//! * the goal-reachable fragment uses negation only on EDB relations
//!   (magic predicates are defined purely positively, so the transformed
//!   program stays stratifiable), and
//! * the goal binds at least one argument after adornment propagation.
//!
//! Otherwise the query falls back to evaluating the goal-reachable
//! fragment (still pruned and optimized via
//! [`optimize_datalog`]) and filtering.
//!
//! Each predicate gets **one** adornment: the intersection of the bound
//! position sets over all its call sites under a left-to-right sideways
//! information passing strategy. The intersection is a subset of every
//! site's bound positions, so projecting a site's arguments onto it is
//! always defined, and it only shrinks during propagation, so the
//! analysis terminates. Negated literals are omitted from magic-rule
//! bodies — that over-approximates demand (more magic facts), which is
//! sound: guarded rules still derive every goal-relevant fact, and the
//! final answer is filtered against the goal's constants either way.

use std::collections::{BTreeMap, BTreeSet};

use uset_deductive::{DatalogProgram, DlAtom, DlError, DlRule, DlTerm};
use uset_guard::Governor;
use uset_object::{Database, EvalStats, Instance, Value};

use crate::datalog::optimize_datalog;

/// A single-predicate query: `pred` with each argument position either
/// bound to a constant (`Some`) or free (`None`). `bound.len()` must
/// match the predicate's arity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Goal {
    /// The queried predicate.
    pub pred: String,
    /// Per-position binding: `Some(v)` restricts that argument to `v`.
    pub bound: Vec<Option<Value>>,
}

impl Goal {
    /// Build a goal.
    pub fn new(pred: &str, bound: Vec<Option<Value>>) -> Goal {
        Goal {
            pred: pred.to_owned(),
            bound,
        }
    }
}

/// Rows of `inst` matching the goal's bound constants. DATALOG¬
/// relations store every row as a tuple, unary ones included.
fn filter_goal(inst: &Instance, bound: &[Option<Value>]) -> Instance {
    if bound.iter().all(Option::is_none) {
        return inst.clone();
    }
    Instance::from_values(
        inst.iter()
            .filter(|row| {
                row.as_tuple().is_some_and(|items| {
                    items.len() == bound.len()
                        && bound
                            .iter()
                            .zip(items)
                            .all(|(b, v)| b.as_ref().is_none_or(|b| b == v))
                })
            })
            .cloned(),
    )
}

/// Variables of an atom.
fn atom_vars(atom: &DlAtom) -> impl Iterator<Item = &str> {
    atom.args.iter().filter_map(|t| match t {
        DlTerm::Var(v) => Some(v.as_str()),
        DlTerm::Const(_) => None,
    })
}

/// Argument positions that are constants or already-bound variables.
fn bound_positions(atom: &DlAtom, bound: &BTreeSet<String>) -> BTreeSet<usize> {
    atom.args
        .iter()
        .enumerate()
        .filter(|(_, t)| match t {
            DlTerm::Const(_) => true,
            DlTerm::Var(v) => bound.contains(v.as_str()),
        })
        .map(|(i, _)| i)
        .collect()
}

/// One adornment per predicate: the intersection of bound-position sets
/// over every positive call site, propagated to fixpoint from the goal.
fn adornments(
    fragment: &[DlRule],
    idb: &BTreeSet<String>,
    goal: &Goal,
) -> BTreeMap<String, BTreeSet<usize>> {
    let goal_positions: BTreeSet<usize> = goal
        .bound
        .iter()
        .enumerate()
        .filter_map(|(i, b)| b.as_ref().map(|_| i))
        .collect();
    let mut adorn: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    adorn.insert(goal.pred.clone(), goal_positions);
    let mut worklist = vec![goal.pred.clone()];
    while let Some(p) = worklist.pop() {
        let a_p = adorn.get(&p).cloned().unwrap_or_default();
        for rule in fragment.iter().filter(|r| r.head.pred == p) {
            let mut env: BTreeSet<String> = rule
                .head
                .args
                .iter()
                .enumerate()
                .filter(|(i, _)| a_p.contains(i))
                .filter_map(|(_, t)| match t {
                    DlTerm::Var(v) => Some(v.clone()),
                    DlTerm::Const(_) => None,
                })
                .collect();
            for lit in &rule.body {
                if !lit.positive {
                    continue; // negations neither bind nor receive demand
                }
                if idb.contains(&lit.atom.pred) {
                    let site = bound_positions(&lit.atom, &env);
                    let changed = match adorn.get_mut(&lit.atom.pred) {
                        Some(existing) => {
                            let narrowed: BTreeSet<usize> =
                                existing.intersection(&site).copied().collect();
                            let changed = narrowed != *existing;
                            *existing = narrowed;
                            changed
                        }
                        None => {
                            adorn.insert(lit.atom.pred.clone(), site);
                            true
                        }
                    };
                    if changed {
                        worklist.push(lit.atom.pred.clone());
                    }
                }
                env.extend(atom_vars(&lit.atom).map(str::to_owned));
            }
        }
    }
    adorn
}

/// A collision-free magic-predicate name for each adorned predicate.
fn magic_names(
    adorn: &BTreeMap<String, BTreeSet<usize>>,
    prog: &DatalogProgram,
    db: &Database,
) -> BTreeMap<String, String> {
    let mut taken: BTreeSet<String> = db.iter().map(|(n, _)| n.to_owned()).collect();
    for rule in &prog.rules {
        taken.insert(rule.head.pred.clone());
        for lit in &rule.body {
            taken.insert(lit.atom.pred.clone());
        }
    }
    let mut names = BTreeMap::new();
    for (pred, positions) in adorn {
        if positions.is_empty() {
            continue; // free adornment: no magic predicate
        }
        let mut name = format!("{pred}__m");
        while taken.contains(&name) {
            name.push('_');
        }
        taken.insert(name.clone());
        names.insert(pred.clone(), name);
    }
    names
}

/// Project an atom's arguments onto an adornment's positions.
fn project(atom: &DlAtom, positions: &BTreeSet<usize>) -> Vec<DlTerm> {
    positions.iter().map(|&i| atom.args[i].clone()).collect()
}

/// The magic-transformed program: guarded originals plus demand rules.
fn magic_program(
    fragment: &[DlRule],
    idb: &BTreeSet<String>,
    adorn: &BTreeMap<String, BTreeSet<usize>>,
    names: &BTreeMap<String, String>,
) -> DatalogProgram {
    let mut rules = Vec::new();
    for rule in fragment {
        let p = &rule.head.pred;
        let guard: Option<(bool, DlAtom)> = names.get(p).map(|m| {
            let positions = &adorn[p];
            (
                true,
                DlAtom {
                    pred: m.clone(),
                    args: project(&rule.head, positions),
                },
            )
        });
        // demand rules: one per positive adorned IDB body literal, with
        // the guard plus the *positive* body prefix as context
        let mut prefix: Vec<(bool, DlAtom)> = guard.iter().cloned().collect();
        for lit in &rule.body {
            if !lit.positive {
                continue;
            }
            if idb.contains(&lit.atom.pred) {
                if let Some(m) = names.get(&lit.atom.pred) {
                    rules.push(DlRule::new(
                        DlAtom {
                            pred: m.clone(),
                            args: project(&lit.atom, &adorn[&lit.atom.pred]),
                        },
                        prefix.clone(),
                    ));
                }
            }
            prefix.push((true, lit.atom.clone()));
        }
        // guarded original rule
        let mut body: Vec<(bool, DlAtom)> = guard.into_iter().collect();
        body.extend(rule.body.iter().map(|l| (l.positive, l.atom.clone())));
        rules.push(DlRule::new(rule.head.clone(), body));
    }
    DatalogProgram::new(rules)
}

/// Evaluate the pruned, optimized fragment fully and filter — the path
/// taken when the magic transformation is not applicable.
fn fallback(
    fragment: Vec<DlRule>,
    db: &Database,
    goal: &Goal,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<Instance, DlError> {
    let pruned = optimize_datalog(&DatalogProgram::new(fragment), Some(db));
    let result = pruned.eval_stratified_seminaive_governed(db, governor, stats)?;
    Ok(filter_goal(&result.get(&goal.pred), &goal.bound))
}

/// Answer a single-goal query over `prog` and `db`, deriving only facts
/// the goal demands where possible. The result equals the goal relation
/// of the full stratified fixpoint filtered by the goal's constants.
pub fn query_datalog(
    prog: &DatalogProgram,
    db: &Database,
    goal: &Goal,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<Instance, DlError> {
    let idb = prog.idb_predicates();
    if !idb.contains(&goal.pred) {
        return Ok(filter_goal(&db.get(&goal.pred), &goal.bound));
    }
    prog.check_safety()?;

    // goal-reachable fragment: rules (transitively) usable to derive it
    let mut reach: BTreeSet<String> = BTreeSet::from([goal.pred.clone()]);
    let mut stack = vec![goal.pred.clone()];
    while let Some(p) = stack.pop() {
        for rule in prog.rules.iter().filter(|r| r.head.pred == p) {
            for lit in &rule.body {
                if reach.insert(lit.atom.pred.clone()) {
                    stack.push(lit.atom.pred.clone());
                }
            }
        }
    }
    let fragment: Vec<DlRule> = prog
        .rules
        .iter()
        .filter(|r| reach.contains(&r.head.pred))
        .cloned()
        .collect();

    let negates_idb = fragment
        .iter()
        .flat_map(|r| &r.body)
        .any(|l| !l.positive && idb.contains(&l.atom.pred));
    if negates_idb {
        return fallback(fragment, db, goal, governor, stats);
    }

    let adorn = adornments(&fragment, &idb, goal);
    let goal_adorn = adorn.get(&goal.pred).cloned().unwrap_or_default();
    if goal_adorn.is_empty() {
        // every binding was lost to a free call site: nothing to restrict
        return fallback(fragment, db, goal, governor, stats);
    }

    let names = magic_names(&adorn, prog, db);
    let transformed = magic_program(&fragment, &idb, &adorn, &names);

    // seed the demand with the goal's constants
    let seed_values: Vec<Value> = goal_adorn
        .iter()
        .filter_map(|&i| goal.bound.get(i).cloned().flatten())
        .collect();
    debug_assert_eq!(seed_values.len(), goal_adorn.len());
    // the engine's row representation is a tuple at every arity
    let seed = Value::Tuple(seed_values);
    let mut db2 = db.clone();
    let mut magic_goal = db2.get(&names[&goal.pred]);
    magic_goal.insert(seed);
    db2.set(names[&goal.pred].clone(), magic_goal);

    let result = transformed.eval_stratified_seminaive_governed(&db2, governor, stats)?;
    Ok(filter_goal(&result.get(&goal.pred), &goal.bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::atom;

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn tc_prog() -> DatalogProgram {
        DatalogProgram::new(vec![
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("y")]),
                vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
            ),
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("z")]),
                vec![
                    (true, DlAtom::new("R", vec![v("x"), v("y")])),
                    (true, DlAtom::new("T", vec![v("y"), v("z")])),
                ],
            ),
        ])
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "R",
            Instance::from_rows((0..n).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    fn full_filtered(prog: &DatalogProgram, db: &Database, goal: &Goal) -> (Instance, EvalStats) {
        let mut stats = EvalStats::default();
        let full = prog
            .eval_stratified_seminaive_governed(db, &Governor::unlimited(), &mut stats)
            .unwrap();
        (filter_goal(&full.get(&goal.pred), &goal.bound), stats)
    }

    #[test]
    fn magic_query_equals_filtered_full_eval_and_derives_less() {
        let prog = tc_prog();
        let db = path_db(32);
        // bind the *second* argument: who reaches node 32?
        let goal = Goal::new("T", vec![None, Some(atom(32u64))]);
        let (expected, full_stats) = full_filtered(&prog, &db, &goal);
        let mut stats = EvalStats::default();
        let got = query_datalog(&prog, &db, &goal, &Governor::unlimited(), &mut stats).unwrap();
        assert_eq!(got, expected);
        assert_eq!(got.len(), 32);
        assert!(
            stats.tuples_derived * 2 <= full_stats.tuples_derived,
            "magic should derive at most half the tuples: {} vs {}",
            stats.tuples_derived,
            full_stats.tuples_derived
        );
    }

    #[test]
    fn fully_bound_goal_answers_membership() {
        let prog = tc_prog();
        let db = path_db(8);
        let hit = Goal::new("T", vec![Some(atom(2u64)), Some(atom(7u64))]);
        let miss = Goal::new("T", vec![Some(atom(7u64)), Some(atom(2u64))]);
        let gov = Governor::unlimited();
        let got = query_datalog(&prog, &db, &hit, &gov, &mut EvalStats::default()).unwrap();
        assert_eq!(got.len(), 1);
        let got = query_datalog(&prog, &db, &miss, &gov, &mut EvalStats::default()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn edb_goal_filters_without_evaluating() {
        let db = path_db(4);
        let goal = Goal::new("R", vec![Some(atom(1u64)), None]);
        let mut stats = EvalStats::default();
        let got = query_datalog(
            &DatalogProgram::new(vec![]),
            &db,
            &goal,
            &Governor::unlimited(),
            &mut stats,
        )
        .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn negated_idb_fragment_falls_back_but_stays_correct() {
        let mut rules = tc_prog().rules;
        // NT(x,y) ← node pairs not connected: negation over IDB T
        rules.push(DlRule::new(
            DlAtom::new("N", vec![v("x")]),
            vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
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
        let db = path_db(6);
        let goal = Goal::new("NT", vec![Some(atom(3u64)), None]);
        let (expected, _) = full_filtered(&prog, &db, &goal);
        let got = query_datalog(
            &prog,
            &db,
            &goal,
            &Governor::unlimited(),
            &mut EvalStats::default(),
        )
        .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn magic_name_collisions_are_avoided() {
        let mut rules = tc_prog().rules;
        // occupy the natural magic name for T
        rules.push(DlRule::new(
            DlAtom::new("T__m", vec![v("x")]),
            vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
        ));
        let prog = DatalogProgram::new(rules);
        let db = path_db(8);
        let goal = Goal::new("T", vec![None, Some(atom(8u64))]);
        let (expected, _) = full_filtered(&prog, &db, &goal);
        let got = query_datalog(
            &prog,
            &db,
            &goal,
            &Governor::unlimited(),
            &mut EvalStats::default(),
        )
        .unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn unary_goal_seeds_single_column_tuple_rows() {
        // Reach(y) ← Start(x), T(x,y): unary IDB goal with a unary magic
        // seed exercises the tuple-at-every-arity row convention.
        let mut rules = tc_prog().rules;
        rules.push(DlRule::new(
            DlAtom::new("Reach", vec![v("y")]),
            vec![
                (true, DlAtom::new("Start", vec![v("x")])),
                (true, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let mut db = path_db(6);
        db.set("Start", Instance::from_rows([[atom(4u64)]]));
        let goal = Goal::new("Reach", vec![Some(atom(6u64))]);
        let (expected, _) = full_filtered(&prog, &db, &goal);
        let got = query_datalog(
            &prog,
            &db,
            &goal,
            &Governor::unlimited(),
            &mut EvalStats::default(),
        )
        .unwrap();
        assert_eq!(got, expected);
        assert_eq!(got.len(), 1);
    }
}
