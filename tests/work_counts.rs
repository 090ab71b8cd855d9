//! The headline counted-work claims, pinned exactly. The counts are
//! deterministic, so a change that moves any of them is a change in what
//! the engines do, not in how fast the machine is:
//!
//! - COL semi-naive evaluation of path-64 transitive closure derives
//!   2 016 tuples where the naive strategy derives 87 360, and probes its
//!   index 63 times where the naive strategy probes it 4 032 times;
//! - the magic-set query "who reaches the last node" on a path derives
//!   one tuple per answer-side fact (256 on path-128, 128 on path-64)
//!   where full evaluation derives the whole closure (8 256 and 2 080),
//!   and keeps the "at least halves" bound the claim has always made;
//! - the optimizer strips the chaff from path-64 transitive closure
//!   carrying an α-duplicate recursive rule and a dead rule, and derives
//!   2 080 tuples where the unoptimized run derives 4 096, with the same
//!   final state;
//! - `swap_pairs_gtm` run as a query swaps n pairs in 12n + 1 machine
//!   steps (18 001 on the benchmark's 1 500 pairs).

use untyped_sets::deductive::col::ast::{ColLiteral, ColProgram, ColRule, ColTerm};
use untyped_sets::deductive::col::eval::{stratified_with, ColConfig, ColStrategy};
use untyped_sets::deductive::{DatalogProgram, DlAtom, DlRule, DlTerm};
use untyped_sets::gtm::machines::swap_pairs_gtm;
use untyped_sets::gtm::query::run_gtm_query_governed;
use untyped_sets::gtm::GtmQueryError;
use untyped_sets::guard::{Budget, Governor, OptConfig};
use untyped_sets::object::{atom, Atom, Database, EvalStats, Instance, Schema, Type, Value};
use untyped_sets::opt::{eval_stratified_seminaive, query_datalog, Goal};

/// `T(x,y) ← E(x,y)`; `T(x,z) ← E(x,y), T(y,z)` in COL.
fn tc_col() -> ColProgram {
    let v = ColTerm::var;
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

/// The same program in DATALOG¬.
fn tc_datalog() -> DatalogProgram {
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

/// A path with `edges` edges `i → i+1` starting at node 0.
fn path(edges: u64) -> Database {
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows((0..edges).map(|i| [atom(i), atom(i + 1)])),
    );
    db
}

#[test]
fn col_path_64_seminaive_derives_2016_tuples_not_87360() {
    let db = path(63);
    let cfg = ColConfig::default();
    let mut naive = EvalStats::default();
    let mut semi = EvalStats::default();
    let n = stratified_with(&tc_col(), &db, &cfg, ColStrategy::Naive, &mut naive).unwrap();
    let s = stratified_with(&tc_col(), &db, &cfg, ColStrategy::Seminaive, &mut semi).unwrap();
    assert_eq!(n, s, "naive ≡ semi-naive");
    assert_eq!(s.pred("T").len(), 2_016);
    assert_eq!(naive.tuples_derived, 87_360);
    assert_eq!(semi.tuples_derived, 2_016);
    assert_eq!(naive.index_probes, 4_032);
    assert_eq!(semi.index_probes, 63);
}

/// Full evaluation and the magic-set query for `T(_, last)` on a path
/// with `edges` edges: (full tuples, magic tuples, answer rows).
fn goal_counts(edges: u64) -> (u64, u64, usize) {
    let db = path(edges);
    let prog = tc_datalog();
    let gov = Governor::unlimited();
    let goal = Goal::new("T", vec![None, Some(Value::Atom(Atom::new(edges)))]);
    let mut full = EvalStats::default();
    let all = prog
        .eval_stratified_seminaive_governed(&db, &gov, &mut full)
        .unwrap();
    let mut magic = EvalStats::default();
    let answer = query_datalog(&prog, &db, &goal, &gov, &mut magic).unwrap();
    let last = Value::Atom(Atom::new(edges));
    let expect = all
        .get("T")
        .iter()
        .filter(|row| row.as_tuple().is_some_and(|r| r[1] == last))
        .count();
    assert_eq!(
        answer.len(),
        expect,
        "magic answer ≡ filtered full evaluation"
    );
    assert!(
        magic.tuples_derived * 2 <= full.tuples_derived,
        "magic must at least halve derived tuples: {} vs {}",
        magic.tuples_derived,
        full.tuples_derived
    );
    (full.tuples_derived, magic.tuples_derived, answer.len())
}

#[test]
fn magic_goal_on_path_128_derives_256_tuples_not_8256() {
    assert_eq!(goal_counts(128), (8_256, 256, 128));
}

#[test]
fn magic_goal_on_path_64_derives_128_tuples_not_2080() {
    assert_eq!(goal_counts(64), (2_080, 128, 64));
}

/// Path-64 transitive closure with the chaff `ablation/opt_speedup`
/// measures: an α-duplicate of the recursive rule and a rule over the
/// empty relation `Never`.
#[test]
fn opt_strips_chaff_on_path_64() {
    let v = DlTerm::var;
    let mut rules = tc_datalog().rules;
    rules.push(DlRule::new(
        DlAtom::new("T", vec![v("p"), v("q")]),
        vec![
            (true, DlAtom::new("E", vec![v("p"), v("r")])),
            (true, DlAtom::new("T", vec![v("r"), v("q")])),
        ],
    ));
    rules.push(DlRule::new(
        DlAtom::new("Dead", vec![v("x")]),
        vec![
            (true, DlAtom::new("T", vec![v("x"), v("y")])),
            (true, DlAtom::new("Never", vec![v("y")])),
        ],
    ));
    let chaff = DatalogProgram::new(rules);
    let db = path(64);
    let run = |opt| {
        let gov = Governor::unlimited().with_opt(opt);
        let mut stats = EvalStats::default();
        let out = eval_stratified_seminaive(&chaff, &db, &gov, &mut stats).unwrap();
        (out, stats)
    };
    let (off, s_off) = run(OptConfig::Off);
    let (on, s_on) = run(OptConfig::On);
    assert_eq!(off, on, "the optimizer must not change the final state");
    assert_eq!(on.get("T").len(), 2_080);
    assert!(s_on.tuples_derived <= s_off.tuples_derived);
    assert_eq!((s_off.tuples_derived, s_on.tuples_derived), (4_096, 2_080));
}

/// `swap_pairs_gtm` over `n` pairs through the query path: the run ends
/// under a steps budget of `rounds` with the swapped relation, and one
/// step short of it trips with `EvalStats::rounds` = `rounds` − 1.
fn assert_swap_rounds(n: u64, rounds: u64) {
    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows((0..n).map(|i| [atom(i), atom(10_000 + i)])),
    );
    let schema = Schema::flat([("R", 2)]);
    let target = Type::atomic_tuple(2);
    let run = |steps| {
        let gov = Governor::new(Budget::unlimited().with_steps(steps));
        run_gtm_query_governed(&swap_pairs_gtm(), &db, &schema, &target, &gov)
    };
    let swapped = Instance::from_rows((0..n).map(|i| [atom(10_000 + i), atom(i)]));
    assert_eq!(run(rounds), Ok(Some(swapped)), "n = {n}");
    match run(rounds - 1) {
        Err(GtmQueryError::Exhausted(ex)) => assert_eq!(ex.stats.rounds, rounds - 1, "n = {n}"),
        other => panic!("n = {n}: expected a steps trip, got {other:?}"),
    }
}

#[test]
fn gtm_swap_pairs_takes_12n_plus_1_steps() {
    assert_swap_rounds(1, 13);
    assert_swap_rounds(10, 121);
    assert_swap_rounds(1_500, 18_001);
}
