//! The counted-work claim of incremental maintenance (DESIGN §14): on a
//! 128-vertex path, retracting the last edge re-derives 127 tuples under
//! DRed, where a from-scratch evaluation of the shortened path derives
//! 8 001. The counts are deterministic, so they are pinned exactly; the
//! at-least-5× bound is the claim the ablation bench has always made.

use untyped_sets::deductive::{DatalogProgram, DlAtom, DlRule, DlTerm};
use untyped_sets::guard::Governor;
use untyped_sets::ivm::{DatalogSession, DeltaBatch, IvmMode, Semantics};
use untyped_sets::object::{atom, Database, EvalStats, Instance, Value};
use untyped_sets::opt::eval_stratified_seminaive;

/// `T(x,y) ← E(x,y)`; `T(x,z) ← E(x,y), T(y,z)`.
fn tc() -> DatalogProgram {
    let v = DlTerm::var;
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

#[test]
fn one_edge_retraction_on_path_128_derives_127_tuples_not_8001() {
    let n = 128u64;
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
    );
    let gov = Governor::unlimited();
    let mut sess = DatalogSession::with_mode(
        tc(),
        &db,
        Semantics::StratifiedSeminaive,
        &gov,
        IvmMode::Auto,
    )
    .unwrap();
    let tail = Value::Tuple(vec![atom(n - 2), atom(n - 1)]);
    let maintain = sess.apply(&DeltaBatch::new().retract("E", tail)).unwrap();
    assert!(!maintain.fallback, "path TC must maintain incrementally");

    let mut recompute = EvalStats::default();
    let fresh = eval_stratified_seminaive(&tc(), sess.edb(), &gov, &mut recompute).unwrap();
    assert_eq!(sess.state(), &fresh, "maintained ≡ recomputed");
    assert_eq!(maintain.stats.tuples_derived, 127);
    assert_eq!(recompute.tuples_derived, 8_001);
    assert!(
        maintain.stats.tuples_derived * 5 <= recompute.tuples_derived,
        "maintenance must derive at least 5x fewer tuples: {} vs {}",
        maintain.stats.tuples_derived,
        recompute.tuples_derived
    );
}
