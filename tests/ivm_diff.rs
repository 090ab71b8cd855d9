//! Differential suite for incremental view maintenance (`uset-ivm`): on
//! random databases and random delta-batch sequences, a maintained
//! session must hold a state **bit-identical** to re-evaluating the
//! program from scratch on the updated EDB — after every batch, under
//! every semantics, at every worker width. The fallback paths
//! (inflationary, `USET_IVM=recompute`, all of COL) must additionally
//! report the *exact* work counters of the from-scratch engine, and a
//! budget trip mid-batch must leave the session on the pre-batch
//! snapshot (apply is atomic).
//!
//! Knob settings are pinned via [`IvmMode`]/[`OptConfig`] constructors
//! rather than `USET_IVM`/`USET_OPT` because the process environment is
//! global and racy under a parallel test harness.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use untyped_sets::ckpt::Spec;
use untyped_sets::deductive::col::ast::{ColLiteral, ColProgram, ColRule, ColTerm};
use untyped_sets::deductive::col::eval::{ColConfig, ColStrategy};
use untyped_sets::deductive::{DatalogProgram, DlAtom, DlRule, DlTerm};
use untyped_sets::guard::{Budget, Governor, OptConfig};
use untyped_sets::ivm::{
    ColSemantics, ColSession, DatalogSession, DeltaBatch, IvmError, IvmMode, MaterializedSession,
    Semantics,
};
use untyped_sets::object::{Atom, Database, EvalStats, Instance, Value};
use untyped_sets::opt::{
    col_stratified, eval_inflationary, eval_stratified, eval_stratified_seminaive,
};
use untyped_sets::par::ParConfig;

fn a(id: u64) -> Value {
    Value::Atom(Atom::new(id))
}

fn edge(x: u64, y: u64) -> Value {
    Value::Tuple(vec![a(x), a(y)])
}

fn unary(x: u64) -> Value {
    Value::Tuple(vec![a(x)])
}

fn governor() -> Governor {
    Governor::unlimited().with_opt(OptConfig::Off)
}

/// TC (a recursive DRed stratum) + `N` with two derivations per fact (a
/// counting stratum where multiplicities matter) + negation over the
/// recursive stratum (`NT`) + negation over a delta-bearing EDB relation
/// (`Good`).
fn ivm_prog() -> DatalogProgram {
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
        DlRule::new(
            DlAtom::new("N", vec![v("x")]),
            vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
        ),
        DlRule::new(
            DlAtom::new("N", vec![v("y")]),
            vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
        ),
        DlRule::new(
            DlAtom::new("NT", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("N", vec![v("y")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ),
        DlRule::new(
            DlAtom::new("Good", vec![v("x")]),
            vec![
                (true, DlAtom::new("N", vec![v("x")])),
                (false, DlAtom::new("Block", vec![v("x")])),
            ],
        ),
    ])
}

fn arb_db() -> impl Strategy<Value = Database> {
    (
        prop::collection::vec((0u64..6, 0u64..6), 0..12),
        prop::collection::vec(0u64..6, 0..4),
    )
        .prop_map(|(edges, blocks)| {
            let mut db = Database::empty();
            db.set(
                "R",
                Instance::from_rows(edges.into_iter().map(|(x, y)| [a(x), a(y)])),
            );
            if !blocks.is_empty() {
                db.set(
                    "Block",
                    Instance::from_values(blocks.into_iter().map(unary)),
                );
            }
            db
        })
}

/// One delta operation: (insert flag — 1 inserts, 0 retracts; relation
/// selector — 0 targets the binary `R`, 1 the unary `Block` via `x`; x; y).
type Op = (u8, u8, u64, u64);

fn arb_batches() -> impl Strategy<Value = Vec<Vec<Op>>> {
    let op =
        ((0u8..2, 0u8..2), (0u64..6, 0u64..6)).prop_map(|((ins, rel), (x, y))| (ins, rel, x, y));
    prop::collection::vec(prop::collection::vec(op, 1..6), 1..4)
}

fn op_row(op: Op) -> (&'static str, Value) {
    let (_, rel, x, y) = op;
    if rel == 0 {
        ("R", edge(x, y))
    } else {
        ("Block", unary(x))
    }
}

fn to_batch(ops: &[Op]) -> DeltaBatch {
    let mut b = DeltaBatch::new();
    for &op in ops {
        let (name, row) = op_row(op);
        b = if op.0 == 1 {
            b.insert(name, row)
        } else {
            b.retract(name, row)
        };
    }
    b
}

/// Mirror the batch semantics independently: `new = (old − retracts) ∪
/// inserts`, inserts winning on conflict.
fn apply_expected(edb: &mut Database, ops: &[Op]) {
    let mut inserts = Vec::new();
    let mut retracts = Vec::new();
    for &op in ops {
        let entry = op_row(op);
        if op.0 == 1 {
            inserts.push(entry);
        } else {
            retracts.push(entry);
        }
    }
    for (name, row) in &retracts {
        if !inserts.contains(&(name, row.clone())) {
            edb.remove_row(name, row);
        }
    }
    for (name, row) in &inserts {
        edb.insert_row(name, row);
    }
}

fn fresh_eval(
    semantics: Semantics,
    db: &Database,
    gov: &Governor,
    stats: &mut EvalStats,
) -> Database {
    let prog = ivm_prog();
    match semantics {
        Semantics::Stratified => eval_stratified(&prog, db, gov, stats).unwrap(),
        Semantics::StratifiedSeminaive => eval_stratified_seminaive(&prog, db, gov, stats).unwrap(),
        Semantics::Inflationary => eval_inflationary(&prog, db, gov, stats).unwrap(),
    }
}

/// Drive one session through the batches, checking after every apply
/// that the EDB matches the independent mirror and the state matches a
/// from-scratch evaluation of it. On fallback paths the work counters
/// must be exactly the from-scratch engine's.
fn run_differential(
    db: &Database,
    batches: &[Vec<Op>],
    semantics: Semantics,
    mode: IvmMode,
) -> Result<(), TestCaseError> {
    let gov = governor();
    let mut sess = DatalogSession::with_mode(ivm_prog(), db, semantics, &gov, mode).unwrap();
    let mut expected_edb = db.clone();
    for ops in batches {
        let rep = sess.apply(&to_batch(ops)).unwrap();
        apply_expected(&mut expected_edb, ops);
        prop_assert_eq!(sess.edb(), &expected_edb);
        let mut stats = EvalStats::default();
        let fresh = fresh_eval(semantics, &expected_edb, &gov, &mut stats);
        prop_assert_eq!(sess.state(), &fresh);
        if matches!(semantics, Semantics::Inflationary) || matches!(mode, IvmMode::Recompute) {
            prop_assert!(rep.fallback, "expected the recompute fallback");
            prop_assert_eq!(&rep.stats, &stats);
        } else {
            prop_assert!(
                !rep.fallback,
                "stratified sessions must maintain incrementally"
            );
        }
    }
    sess.finish();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Counting + DRed maintenance under both stratified semantics:
    /// incremental ≡ from-scratch, bit-identically, after every batch.
    #[test]
    fn incremental_matches_recompute(db in arb_db(), batches in arb_batches()) {
        run_differential(&db, &batches, Semantics::Stratified, IvmMode::Auto)?;
        run_differential(&db, &batches, Semantics::StratifiedSeminaive, IvmMode::Auto)?;
    }

    /// Inflationary fixpoints are not change-monotone; sessions must
    /// serve every batch by recomputation with the engine's own stats.
    #[test]
    fn inflationary_sessions_recompute(db in arb_db(), batches in arb_batches()) {
        run_differential(&db, &batches, Semantics::Inflationary, IvmMode::Auto)?;
    }

    /// The `USET_IVM=recompute` hatch agrees with the incremental path.
    #[test]
    fn forced_recompute_agrees(db in arb_db(), batches in arb_batches()) {
        run_differential(&db, &batches, Semantics::Stratified, IvmMode::Recompute)?;
    }
}

// ----------------------------------------------------------------- par

fn run_at_width(
    width: usize,
    db: &Database,
    batches: &[Vec<Op>],
) -> Vec<(Database, untyped_sets::ivm::ApplyReport)> {
    let gov = governor().with_par(ParConfig::workers(width));
    let mut sess =
        DatalogSession::with_mode(ivm_prog(), db, Semantics::Stratified, &gov, IvmMode::Auto)
            .unwrap();
    let reports = batches
        .iter()
        .map(|ops| {
            let rep = sess.apply(&to_batch(ops)).unwrap();
            (sess.state().clone(), rep)
        })
        .collect();
    // a session left open keeps its journal, which the next session over
    // the same program and input would resume
    sess.finish();
    reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded rederivation is width-invariant: states *and* full apply
    /// reports (including work counters) match between 1 and 4 workers.
    #[test]
    fn maintenance_is_width_invariant(db in arb_db(), batches in arb_batches()) {
        prop_assert_eq!(run_at_width(1, &db, &batches), run_at_width(4, &db, &batches));
    }
}

// ----------------------------------------------------------------- col

/// TC plus a data function collecting each node's reachability set —
/// the set-valued shape that justifies the COL recompute fallback.
fn col_ivm_prog() -> ColProgram {
    let v = ColTerm::var;
    ColProgram::new(vec![
        ColRule::pred(
            "T",
            vec![v("x"), v("y")],
            vec![ColLiteral::pred("R", vec![v("x"), v("y")])],
        ),
        ColRule::pred(
            "T",
            vec![v("x"), v("z")],
            vec![
                ColLiteral::pred("R", vec![v("x"), v("y")]),
                ColLiteral::pred("T", vec![v("y"), v("z")]),
            ],
        ),
        ColRule::func_member(
            "F",
            vec![v("x")],
            v("y"),
            vec![ColLiteral::pred("T", vec![v("x"), v("y")])],
        ),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// COL sessions under both strategies: every batch recomputes, the
    /// state is bit-identical to a fresh evaluation of the updated EDB,
    /// and the reported stats are exactly the engine's.
    #[test]
    fn col_sessions_match_recompute(db in arb_db(), batches in arb_batches()) {
        let gov = governor();
        let cfg = ColConfig::default();
        for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
            let mut sess = ColSession::new(
                col_ivm_prog(),
                &db,
                cfg,
                strategy,
                ColSemantics::Stratified,
                &gov,
            )
            .unwrap();
            let mut expected_edb = db.clone();
            for ops in &batches {
                let rep = sess.apply(&to_batch(ops)).unwrap();
                apply_expected(&mut expected_edb, ops);
                prop_assert_eq!(sess.edb(), &expected_edb);
                let mut stats = EvalStats::default();
                let fresh = col_stratified(
                    &col_ivm_prog(),
                    &expected_edb,
                    &cfg,
                    strategy,
                    &gov,
                    &mut stats,
                )
                .unwrap();
                prop_assert!(rep.fallback);
                prop_assert_eq!(sess.state(), &fresh);
                prop_assert_eq!(&rep.stats, &stats);
            }
            sess.finish();
        }
    }
}

// ----------------------------------------------------------- governance

fn total_facts(db: &Database) -> usize {
    db.iter().map(|(_, inst)| inst.len()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Apply is atomic under budget trips. The facts budget is set at
    /// (or just above) the built state's size, so an insert-heavy batch
    /// sometimes trips mid-maintenance — after partial state mutation —
    /// and the session must roll back to the pre-batch snapshot and stay
    /// usable.
    #[test]
    fn budget_trip_restores_the_pre_batch_snapshot(
        db in arb_db(),
        inserts in prop::collection::vec((0u64..6, 0u64..6), 1..5),
        slack in 0usize..3,
    ) {
        let baseline = fresh_eval(Semantics::Stratified, &db, &governor(), &mut EvalStats::default());
        let limit = total_facts(&baseline) + slack;
        let gov = Governor::new(Budget::unlimited().with_facts(limit)).with_opt(OptConfig::Off);
        let mut sess =
            DatalogSession::with_mode(ivm_prog(), &db, Semantics::Stratified, &gov, IvmMode::Auto)
                .unwrap();
        let mut batch = DeltaBatch::new();
        for &(x, y) in &inserts {
            batch = batch.insert("R", edge(x, y));
        }
        let before_edb = sess.edb().clone();
        let before_state = sess.state().clone();
        match sess.apply(&batch) {
            Ok(_) => {
                let mut expected = before_edb.clone();
                for &(x, y) in &inserts {
                    expected.insert_row("R", &edge(x, y));
                }
                let mut stats = EvalStats::default();
                let fresh = fresh_eval(Semantics::Stratified, &expected, &governor(), &mut stats);
                prop_assert_eq!(sess.edb(), &expected);
                prop_assert_eq!(sess.state(), &fresh);
            }
            Err(IvmError::Exhausted { .. }) => {
                prop_assert_eq!(sess.edb(), &before_edb);
                prop_assert_eq!(sess.state(), &before_state);
                // round-consistent: the session still serves batches
                let rep = sess.apply(&DeltaBatch::new()).unwrap();
                prop_assert_eq!(rep.inserted + rep.retracted, 0);
                prop_assert_eq!(sess.state(), &before_state);
                // and maintains a non-empty batch from the restored state
                // exactly as a session that never saw the tripped batch
                // does: every old edge retracted and the tripped inserts
                // made again, so joins revisit every row the trip touched
                let mut twin = DatalogSession::with_mode(
                    ivm_prog(),
                    &db,
                    Semantics::Stratified,
                    &gov,
                    IvmMode::Auto,
                )
                .unwrap();
                twin.apply(&DeltaBatch::new()).unwrap();
                let mut next = batch.clone();
                let mut expected = before_edb.clone();
                for old in before_edb.get("R").iter() {
                    next = next.retract("R", old.clone());
                    expected.remove_row("R", old);
                }
                for &(x, y) in &inserts {
                    expected.insert_row("R", &edge(x, y));
                }
                match (sess.apply(&next), twin.apply(&next)) {
                    (Ok(rep), Ok(want)) => {
                        let mut stats = EvalStats::default();
                        let fresh =
                            fresh_eval(Semantics::Stratified, &expected, &governor(), &mut stats);
                        prop_assert_eq!(sess.edb(), &expected);
                        prop_assert_eq!(sess.state(), &fresh);
                        prop_assert_eq!(rep, want);
                    }
                    (Err(IvmError::Exhausted { .. }), Err(IvmError::Exhausted { .. })) => {
                        prop_assert_eq!(sess.edb(), &before_edb);
                        prop_assert_eq!(sess.state(), &before_state);
                    }
                    (got, want) => {
                        return Err(TestCaseError::fail(format!("{got:?} vs {want:?}")))
                    }
                }
            }
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error: {other}"))),
        }
        sess.finish();
    }
}

// ----------------------------------------------------------- journaling

/// A session dropped without `finish()` (a crash) must recover from its
/// logical-delta journal: the reopened session folds the journaled
/// batches into the EDB and rebuilds the exact maintained state.
#[test]
fn crashed_session_recovers_from_the_delta_journal() {
    let dir = std::env::temp_dir().join(format!("uset-ivm-it-journal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gov = governor().with_ckpt(Spec::new(&dir).with_every(1));
    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows((0u64..4).map(|i| [a(i), a(i + 1)])),
    );
    {
        let mut sess = DatalogSession::with_mode(
            ivm_prog(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        sess.apply(
            &DeltaBatch::new()
                .insert("R", edge(4, 5))
                .retract("R", edge(0, 1)),
        )
        .unwrap();
        // dropped without finish(): the journal survives, as after a crash
    }
    let sess = DatalogSession::with_mode(
        ivm_prog(),
        &db,
        Semantics::StratifiedSeminaive,
        &gov,
        IvmMode::Auto,
    )
    .unwrap();
    assert_eq!(sess.batches(), 1, "the journaled batch is recovered");
    let mut expected = db.clone();
    expected.remove_row("R", &edge(0, 1));
    expected.insert_row("R", &edge(4, 5));
    assert_eq!(sess.edb(), &expected);
    let mut stats = EvalStats::default();
    let fresh = eval_stratified_seminaive(&ivm_prog(), &expected, &governor(), &mut stats).unwrap();
    assert_eq!(sess.state(), &fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine-agnostic facade: open, apply, inspect, finish.
#[test]
fn materialized_session_facade_round_trip() {
    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows((0u64..3).map(|i| [a(i), a(i + 1)])),
    );
    let mut sess =
        MaterializedSession::datalog(ivm_prog(), &db, Semantics::Stratified, &governor()).unwrap();
    let rep = sess
        .apply(&DeltaBatch::new().retract("R", edge(2, 3)))
        .unwrap();
    assert_eq!(rep.retracted, 1);
    assert_eq!(sess.batches(), 1);
    let dl = sess.as_datalog().unwrap();
    assert!(!dl.state().get("T").contains(&edge(0, 3)));
    assert!(dl.state().get("T").contains(&edge(0, 2)));
    sess.finish();
}
