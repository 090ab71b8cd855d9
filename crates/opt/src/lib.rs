//! # uset-opt — analysis-driven program optimization for the deductive engines
//!
//! An opt-in pre-pass that rewrites DATALOG¬ and COL programs using the
//! proofs landed by `uset-analysis`'s abstract-interpretation engine
//! ([`uset_analysis::absint`]), plus a magic-set-style demand restriction
//! for single-goal queries. Three kinds of entry point:
//!
//! * [`optimize_datalog`] / [`optimize_col`] — **state-preserving**
//!   rewrites: dead-rule elimination (a rule whose body provably admits
//!   zero bindings), removal of always-true negated literals (negation on
//!   a provably empty relation), α-equivalent duplicate-rule removal, and
//!   selectivity-guided body reordering. Evaluating the optimized program
//!   produces a final state **bit-identical** to the original's and never
//!   derives more tuples (`EvalStats::tuples_derived` is ≤; see
//!   `tests/opt_diff.rs` and DESIGN.md §12 for the safety argument).
//! * [`query_datalog`] — a goal-directed query path: for a single
//!   [`Goal`], applies the magic-set transformation (left-to-right
//!   sideways information passing, one adornment per predicate) when the
//!   goal-reachable fragment uses negation only on EDB relations, and
//!   falls back to reachability pruning otherwise. Only the **goal
//!   relation** is preserved, restricted to the goal's bound constants.
//! * engine wrappers ([`eval_stratified`], [`eval_stratified_seminaive`],
//!   [`eval_inflationary`], [`col_stratified`], [`col_inflationary`]) —
//!   drop-in front doors that consult [`uset_guard::OptConfig`] on the
//!   governor (`USET_OPT=on|off`, default off) and run the
//!   state-preserving optimizer before delegating to the engines. The
//!   engines themselves stay optimizer-agnostic.
//!
//! The optimizer assumes programs that pass the engines' own well-
//! formedness checks; the DATALOG¬ wrappers re-run [`check_safety`]
//! first so an unsafe program is rejected identically with the knob on
//! or off.
//!
//! [`check_safety`]: uset_deductive::DatalogProgram::check_safety

pub mod col;
pub mod datalog;
pub mod magic;
pub mod plan;

pub use col::optimize_col;
pub use datalog::optimize_datalog;
pub use magic::{query_datalog, Goal};
pub use plan::{maintenance_plan, MaintPlan, MaintStratum, StratumPlan};

use std::collections::HashSet;
use uset_deductive::col::eval as col_eval;
use uset_deductive::{
    ColConfig, ColEvalError, ColProgram, ColState, ColStrategy, DatalogProgram, DlError,
};
use uset_guard::Governor;
use uset_object::index::nth_column;
use uset_object::intern::FxBuildHasher;
use uset_object::{Database, EvalStats, Instance, Value};

/// Rows of relation `rel` in `db`; 0 when it is absent.
pub(crate) fn rel_len(db: &Database, rel: &str) -> u64 {
    db.get_ref(rel).map_or(0, Instance::len) as u64
}

/// The rows a ground probe on column `col` of relation `rel` is
/// expected to return: the rows that have the column over its distinct
/// values, rounded up, or 0 when no row has it. The relation is read in
/// place; nothing is copied.
pub(crate) fn probe_depth(db: &Database, rel: &str, col: usize) -> u64 {
    let Some(inst) = db.get_ref(rel) else {
        return 0;
    };
    let mut keys: HashSet<&Value, FxBuildHasher> = HashSet::default();
    let mut rows = 0usize;
    for key in inst.iter().filter_map(|row| nth_column(row, col)) {
        rows += 1;
        keys.insert(key);
    }
    if keys.is_empty() {
        0
    } else {
        rows.div_ceil(keys.len()) as u64
    }
}

/// Stratified DATALOG¬ evaluation; optimizes first when the governor's
/// [`uset_guard::OptConfig`] resolves to on.
pub fn eval_stratified(
    prog: &DatalogProgram,
    db: &Database,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<Database, DlError> {
    if governor.opt.resolve() {
        prog.check_safety()?;
        optimize_datalog(prog, Some(db)).eval_stratified_governed(db, governor, stats)
    } else {
        prog.eval_stratified_governed(db, governor, stats)
    }
}

/// Semi-naive stratified DATALOG¬ evaluation behind the opt knob.
pub fn eval_stratified_seminaive(
    prog: &DatalogProgram,
    db: &Database,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<Database, DlError> {
    if governor.opt.resolve() {
        prog.check_safety()?;
        optimize_datalog(prog, Some(db)).eval_stratified_seminaive_governed(db, governor, stats)
    } else {
        prog.eval_stratified_seminaive_governed(db, governor, stats)
    }
}

/// Inflationary DATALOG¬ evaluation behind the opt knob.
pub fn eval_inflationary(
    prog: &DatalogProgram,
    db: &Database,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<Database, DlError> {
    if governor.opt.resolve() {
        prog.check_safety()?;
        optimize_datalog(prog, Some(db)).eval_inflationary_governed(db, governor, stats)
    } else {
        prog.eval_inflationary_governed(db, governor, stats)
    }
}

/// Stratified COL evaluation behind the opt knob.
pub fn col_stratified(
    prog: &ColProgram,
    db: &Database,
    config: &ColConfig,
    strategy: ColStrategy,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<ColState, ColEvalError> {
    if governor.opt.resolve() {
        let optimized = optimize_col(prog, Some(db));
        col_eval::stratified_governed(&optimized, db, config, strategy, governor, stats)
    } else {
        col_eval::stratified_governed(prog, db, config, strategy, governor, stats)
    }
}

/// Inflationary COL evaluation behind the opt knob.
pub fn col_inflationary(
    prog: &ColProgram,
    db: &Database,
    config: &ColConfig,
    strategy: ColStrategy,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<ColState, ColEvalError> {
    if governor.opt.resolve() {
        let optimized = optimize_col(prog, Some(db));
        col_eval::inflationary_governed(&optimized, db, config, strategy, governor, stats)
    } else {
        col_eval::inflationary_governed(prog, db, config, strategy, governor, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_deductive::{DlAtom, DlRule, DlTerm};
    use uset_guard::OptConfig;
    use uset_object::{atom, Instance};

    fn tc() -> DatalogProgram {
        let v = DlTerm::var;
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

    #[test]
    fn knob_off_and_on_agree_on_final_state() {
        let mut db = Database::empty();
        db.set(
            "R",
            Instance::from_rows((0u64..5).map(|i| [atom(i), atom(i + 1)])),
        );
        let prog = tc();
        let off = Governor::unlimited().with_opt(OptConfig::Off);
        let on = Governor::unlimited().with_opt(OptConfig::On);
        let mut s_off = EvalStats::default();
        let mut s_on = EvalStats::default();
        let r_off = eval_stratified_seminaive(&prog, &db, &off, &mut s_off).unwrap();
        let r_on = eval_stratified_seminaive(&prog, &db, &on, &mut s_on).unwrap();
        assert_eq!(r_off, r_on);
        assert!(s_on.tuples_derived <= s_off.tuples_derived);
    }

    /// The estimate is `ceil(rows with the column / distinct values in
    /// it)`: short tuples count only for the columns they have, and rows
    /// that are not tuples never count.
    #[test]
    fn probe_depth_is_rows_over_distinct_keys() {
        use uset_object::tuple;
        let mut db = Database::empty();
        let mut rel = Instance::from_rows([
            [atom(1), atom(10)],
            [atom(1), atom(11)],
            [atom(1), atom(12)],
            [atom(2), atom(10)],
        ]);
        rel.insert(tuple([atom(9)]));
        rel.insert(atom(5));
        db.set("R", rel);
        // column 0: 5 rows have it, keys {1, 2, 9}
        assert_eq!(probe_depth(&db, "R", 0), 2);
        // column 1: 4 rows have it, keys {10, 11, 12}
        assert_eq!(probe_depth(&db, "R", 1), 2);
        // no row has column 2, and an absent relation has no rows
        assert_eq!(probe_depth(&db, "R", 2), 0);
        assert_eq!(probe_depth(&db, "S", 0), 0);
        assert_eq!(rel_len(&db, "R"), 6);
        assert_eq!(rel_len(&db, "S"), 0);
    }

    #[test]
    fn unsafe_program_rejected_identically_under_both_knobs() {
        let v = DlTerm::var;
        let prog = DatalogProgram::new(vec![DlRule::new(DlAtom::new("A", vec![v("x")]), vec![])]);
        let db = Database::empty();
        for cfg in [OptConfig::Off, OptConfig::On] {
            let gov = Governor::unlimited().with_opt(cfg);
            let err = eval_stratified(&prog, &db, &gov, &mut EvalStats::default()).unwrap_err();
            assert!(matches!(err, DlError::Unsafe(_)), "{cfg:?}: {err}");
        }
    }
}
