//! Integration tests for the unified resource-governance layer: the
//! acceptance scenarios from the paper (Example 5.4 divergence lives in
//! `bk_section5.rs`; powerset-under-while here), deterministic mid-round
//! cancellation via failpoints for each engine, and a property test that a
//! budget-exhausted COL run's partial snapshot is consistent with (a
//! subset of) the unbudgeted fixpoint under both evaluation strategies.

use proptest::prelude::*;
use untyped_sets::algebra::{eval_program, eval_program_governed, EvalConfig, EvalError};
use untyped_sets::bk::eval::state_from;
use untyped_sets::bk::{eval_rounds_governed, BkConfig, BkError, BkObject, BkProgram, BkState};
use untyped_sets::core::powerset_via_while_program;
use untyped_sets::deductive::{
    stratified, stratified_governed, ColConfig, ColEvalError, ColLiteral, ColProgram, ColRule,
    ColState, ColStrategy, ColTerm, DatalogProgram, DlAtom, DlRule, DlTerm,
};
use untyped_sets::guard::{Budget, CancelToken, EngineId, FailPoint, Governor, Resource};
use untyped_sets::object::{atom, Atom, Database, EvalStats, Instance};

fn dv(name: &str) -> DlTerm {
    DlTerm::var(name)
}

fn cv(name: &str) -> ColTerm {
    ColTerm::var(name)
}

fn path_db(n: u64) -> Database {
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows((0..n.saturating_sub(1)).map(|i| [atom(i), atom(i + 1)])),
    );
    db
}

fn col_tc() -> ColProgram {
    ColProgram::new(vec![
        ColRule::pred(
            "T",
            vec![cv("x"), cv("y")],
            vec![ColLiteral::pred("E", vec![cv("x"), cv("y")])],
        ),
        ColRule::pred(
            "T",
            vec![cv("x"), cv("z")],
            vec![
                ColLiteral::pred("E", vec![cv("x"), cv("y")]),
                ColLiteral::pred("T", vec![cv("y"), cv("z")]),
            ],
        ),
    ])
}

fn dl_tc() -> DatalogProgram {
    DatalogProgram::new(vec![
        DlRule::new(
            DlAtom::new("T", vec![dv("x"), dv("y")]),
            vec![(true, DlAtom::new("E", vec![dv("x"), dv("y")]))],
        ),
        DlRule::new(
            DlAtom::new("T", vec![dv("x"), dv("z")]),
            vec![
                (true, DlAtom::new("E", vec![dv("x"), dv("y")])),
                (true, DlAtom::new("T", vec![dv("y"), dv("z")])),
            ],
        ),
    ])
}

/// Acceptance: powerset-under-while against a budget terminates with a
/// structured exhaustion report carrying a non-empty partial environment
/// and stats — never a panic or OOM.
#[test]
fn powerset_under_while_exhausts_cleanly() {
    let mut db = Database::empty();
    db.set("R", Instance::from_values((0..20).map(atom)));
    // 2^20 subsets cannot fit under a 5000-member instance cap: the
    // accumulator blows the value-size budget mid-saturation
    let cfg = EvalConfig {
        fuel: 10_000,
        max_instance_len: 5_000,
    };
    let err = eval_program(&powerset_via_while_program("R"), &db, &cfg).unwrap_err();
    let EvalError::Exhausted(report) = &err else {
        panic!("expected Exhausted, got {err:?}");
    };
    assert_eq!(report.engine(), EngineId::Algebra);
    assert_eq!(report.resource(), Resource::ValueSize);
    assert!(
        !report.partial.env.is_empty(),
        "partial snapshot must carry the environment built so far"
    );
    // the accumulator so far is a genuine partial result: a non-trivial
    // family of subsets of R
    let acc = report
        .partial
        .env
        .get("ps_acc")
        .expect("accumulator present in snapshot");
    assert!(acc.len() > 1);
    assert!(report.stats.rounds > 0);
}

/// The same program under an explicit governor with a wall-clock budget of
/// zero trips on the deadline instead of a size cap.
#[test]
fn powerset_under_while_respects_deadline() {
    let mut db = Database::empty();
    db.set("R", Instance::from_values((0..20).map(atom)));
    let governor = Governor::new(Budget::unlimited().with_wall(std::time::Duration::ZERO));
    let err = eval_program_governed(&powerset_via_while_program("R"), &db, &governor).unwrap_err();
    let EvalError::Exhausted(report) = &err else {
        panic!("expected Exhausted, got {err:?}");
    };
    assert_eq!(report.resource(), Resource::Deadline);
}

/// BK: a failpoint-injected cancellation mid-run surrenders a snapshot at
/// the last consistent round boundary (input facts always present).
#[test]
fn bk_failpoint_cancels_mid_round() {
    let dollar = BkObject::Atom(Atom::named("gov-$"));
    let prog = BkProgram::chain_to_list(dollar.clone());
    let st = state_from([(
        "S",
        vec![BkObject::tuple([
            ("A", dollar.clone()),
            ("B", BkObject::atom(1)),
        ])],
    )]);
    let governor = Governor::unlimited().with_failpoint(FailPoint::cancel_at(3));
    let err = eval_rounds_governed(&prog, &st, &BkConfig::default(), &governor).unwrap_err();
    let BkError::Exhausted(report) = &err;
    assert_eq!(report.engine(), EngineId::Bk);
    assert_eq!(report.resource(), Resource::Cancelled);
    // rollback keeps the snapshot at a round boundary: the input relation
    // is intact and anything derived is from fully completed rounds only
    assert!(!report.partial.state["S"].is_empty());
}

/// COL: failpoint cancellation mid-round rolls back to a round boundary,
/// so the snapshot is a subset of the unbudgeted fixpoint.
#[test]
fn col_failpoint_cancels_mid_round() {
    let db = path_db(8);
    let cfg = ColConfig {
        max_rounds: 100,
        max_facts: 100_000,
    };
    let full = stratified(&col_tc(), &db, &cfg).expect("unbudgeted fixpoint");
    for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
        let governor = Governor::unlimited().with_failpoint(FailPoint::cancel_at(9));
        let mut stats = EvalStats::default();
        let err =
            stratified_governed(&col_tc(), &db, &cfg, strategy, &governor, &mut stats).unwrap_err();
        let report = err.exhausted().expect("cancellation report");
        assert_eq!(report.engine(), EngineId::Col);
        assert_eq!(report.resource(), Resource::Cancelled);
        assert!(report.partial.pred("T").is_subset(&full.pred("T")));
        assert!(db.get("E").is_subset(&report.partial.pred("E")));
    }
}

/// DATALOG¬: failpoint cancellation surrenders the database at the last
/// completed round, a subset of the full fixpoint.
#[test]
fn datalog_failpoint_cancels_mid_round() {
    let db = path_db(8);
    let prog = dl_tc();
    let full = prog.eval_stratified(&db, 10_000).expect("full fixpoint");
    let governor = Governor::unlimited().with_failpoint(FailPoint::cancel_at(6));
    let mut stats = EvalStats::default();
    let err = prog
        .eval_stratified_governed(&db, &governor, &mut stats)
        .unwrap_err();
    let report = err.exhausted().expect("cancellation report");
    assert_eq!(report.engine(), EngineId::Datalog);
    assert_eq!(report.resource(), Resource::Cancelled);
    assert!(report.partial.get("T").is_subset(&full.get("T")));
    assert!(db.get("E").is_subset(&report.partial.get("E")));
}

/// A pre-cancelled [`CancelToken`] stops any engine on its first
/// checkpoint; the same token can govern several engines.
#[test]
fn shared_cancel_token_stops_engines_immediately() {
    let token = CancelToken::new();
    token.cancel();
    let db = path_db(5);
    let mut stats = EvalStats::default();
    let governor = Governor::unlimited().with_cancel(token.clone());
    let dl_err = dl_tc()
        .eval_stratified_governed(&db, &governor, &mut stats)
        .unwrap_err();
    assert_eq!(
        dl_err.exhausted().expect("cancelled").resource(),
        Resource::Cancelled
    );
    let cfg = ColConfig {
        max_rounds: 100,
        max_facts: 100_000,
    };
    let col_err = stratified_governed(
        &col_tc(),
        &db,
        &cfg,
        ColStrategy::Seminaive,
        &governor,
        &mut stats,
    )
    .unwrap_err();
    assert_eq!(
        col_err.exhausted().expect("cancelled").resource(),
        Resource::Cancelled
    );
}

fn col_state_is_subset(partial: &ColState, full: &ColState) -> bool {
    partial
        .preds
        .iter()
        .all(|(name, inst)| inst.is_subset(&full.pred(name)))
        && partial.funcs.iter().all(|(name, by_args)| {
            by_args
                .iter()
                .all(|(args, set)| set.is_subset(&full.func(name, args)))
        })
}

fn edges_db(pairs: &[(u64, u64)]) -> Database {
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows(pairs.iter().map(|&(a, b)| [atom(a), atom(b)])),
    );
    db
}

proptest! {
    /// A budget-exhausted COL run's partial snapshot is consistent with
    /// the unbudgeted fixpoint — for the step budget, under both the naive
    /// and the semi-naive strategy. If the budget suffices, the governed
    /// result must equal the unbudgeted one exactly.
    #[test]
    fn col_partial_snapshot_subset_of_fixpoint_steps(
        pairs in prop::collection::vec((0u64..6, 0u64..6), 0..10),
        max_steps in 1u64..6,
    ) {
        let db = edges_db(&pairs);
        let cfg = ColConfig { max_rounds: 100, max_facts: 100_000 };
        let full = stratified(&col_tc(), &db, &cfg).expect("unbudgeted fixpoint");
        for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
            let governor = Governor::new(Budget::unlimited().with_steps(max_steps));
            let mut stats = EvalStats::default();
            match stratified_governed(&col_tc(), &db, &cfg, strategy, &governor, &mut stats) {
                Ok(state) => prop_assert_eq!(&state, &full),
                Err(ColEvalError::Exhausted(report)) => {
                    prop_assert_eq!(report.resource(), Resource::Steps);
                    prop_assert!(col_state_is_subset(&report.partial, &full));
                    // base facts survive in every snapshot
                    prop_assert!(db.get("E").is_subset(&report.partial.pred("E")));
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    /// Same consistency property for the fact budget, which can trip in
    /// the middle of a round: rollback must restore the last round
    /// boundary, so the snapshot both respects the budget and stays a
    /// subset of the fixpoint.
    #[test]
    fn col_partial_snapshot_subset_of_fixpoint_facts(
        pairs in prop::collection::vec((0u64..6, 0u64..6), 1..10),
        budget_slack in 0usize..12,
    ) {
        let db = edges_db(&pairs);
        let base = db.get("E").len();
        let cfg = ColConfig { max_rounds: 100, max_facts: 100_000 };
        let full = stratified(&col_tc(), &db, &cfg).expect("unbudgeted fixpoint");
        for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
            let governor = Governor::new(Budget::unlimited().with_facts(base + budget_slack));
            let mut stats = EvalStats::default();
            match stratified_governed(&col_tc(), &db, &cfg, strategy, &governor, &mut stats) {
                Ok(state) => prop_assert_eq!(&state, &full),
                Err(ColEvalError::Exhausted(report)) => {
                    prop_assert_eq!(report.resource(), Resource::Facts);
                    prop_assert!(col_state_is_subset(&report.partial, &full));
                    prop_assert!(report.partial.total_facts() <= base + budget_slack);
                }
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    /// Genericity of governance: for any algebra expression program built
    /// from union/product over a random relation, a tripped run never
    /// panics and always reports provenance naming the algebra engine.
    #[test]
    fn algebra_trips_carry_provenance(
        rows in prop::collection::vec((0u64..5, 0u64..5), 1..8),
        fuel in 1u64..4,
    ) {
        let mut db = Database::empty();
        db.set("R", Instance::from_rows(rows.iter().map(|&(a, b)| [atom(a), atom(b)])));
        let governor = Governor::new(Budget::unlimited().with_steps(fuel));
        match eval_program_governed(&powerset_via_while_program("R"), &db, &governor) {
            Ok(ans) => prop_assert!(!ans.is_empty()),
            Err(EvalError::Exhausted(report)) => {
                prop_assert_eq!(report.engine(), EngineId::Algebra);
                prop_assert_eq!(report.resource(), Resource::Steps);
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
        }
    }
}

/// Governance × parallelism: the failpoint cancellations again, with a
/// four-worker policy — the pinned equivalent of `USET_THREADS=4` (tests
/// pin an explicit [`untyped_sets::par::ParConfig`] because the process
/// environment is global and racy under a parallel test harness). A trip
/// while a round's phase 1 is fanned out across threads must still leave
/// the documented round-consistent partial snapshot: input facts intact,
/// derived facts a subset of the unbudgeted fixpoint, never a torn round.
/// DATALOG¬, COL and BK share one round driver that ticks the guard on
/// the main thread only, so their trips are also width-invariant tick for
/// tick (`deductive_trips_are_width_invariant`,
/// `bk_trips_are_width_invariant`).
mod parallel_governance {
    use super::*;
    use untyped_sets::calculus::invention::eval_fi_governed;
    use untyped_sets::calculus::{eval_fi, CalcConfig, CalcQuery, CalcTerm, Formula};
    use untyped_sets::deductive::col::eval::inflationary_governed as col_inflationary;
    use untyped_sets::deductive::DlError;
    use untyped_sets::object::RType;
    use untyped_sets::par::ParConfig;

    fn par4() -> ParConfig {
        ParConfig::workers(4)
    }

    type ColRun =
        fn(&ColProgram, &Database, &ColConfig, &Governor) -> Result<ColState, ColEvalError>;
    type DlRun = fn(&DatalogProgram, &Database, &Governor) -> Result<Database, DlError>;

    /// A facts budget (at 100 facts the phase-1 brake engages and the
    /// exact re-derivation trips; at 500 an insertion trips) and a
    /// failpoint cancel at every tick land on the same trip with the same
    /// surrendered state at widths 1 and 4: the brake applies at every
    /// width, and ticks are charged on the main thread only.
    #[test]
    fn deductive_trips_are_width_invariant() {
        // P(x,y) ← R(x), R(y): 1 600 raw derivations in one round
        let cross = ColProgram::new(vec![ColRule::pred(
            "P",
            vec![cv("x"), cv("y")],
            vec![
                ColLiteral::pred("R", vec![cv("x")]),
                ColLiteral::pred("R", vec![cv("y")]),
            ],
        )]);
        let mut r = Database::empty();
        r.set("R", Instance::from_values((0..40).map(atom)));
        let cfg = ColConfig::default();
        for (limit, resource) in [(100, Resource::Facts), (500, Resource::Facts)] {
            for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
                let trip_at = |w: usize| {
                    let gov = Governor::new(Budget::unlimited().with_facts(limit))
                        .with_par(ParConfig::workers(w));
                    let err = stratified_governed(
                        &cross,
                        &r,
                        &cfg,
                        strategy,
                        &gov,
                        &mut EvalStats::default(),
                    )
                    .unwrap_err();
                    let ex = err.exhausted().expect("a facts trip").clone();
                    (ex.trip, ex.partial)
                };
                let (trip, partial) = trip_at(1);
                assert_eq!(trip.resource, resource);
                assert_eq!((trip, partial), trip_at(4), "limit {limit}, {strategy:?}");
            }
        }
        let db = path_db(12);
        for tick in 1..40 {
            let gov = |w: usize| {
                Governor::unlimited()
                    .with_failpoint(FailPoint::cancel_at(tick))
                    .with_par(ParConfig::workers(w))
            };
            let dl = |w: usize| {
                dl_tc().eval_stratified_seminaive_governed(&db, &gov(w), &mut EvalStats::default())
            };
            assert_eq!(dl(1), dl(4), "datalog, cancel at tick {tick}");
            let col = |w: usize| {
                let strategy = ColStrategy::Seminaive;
                stratified_governed(
                    &col_tc(),
                    &db,
                    &cfg,
                    strategy,
                    &gov(w),
                    &mut EvalStats::default(),
                )
                .map_err(|e| e.exhausted().map(|ex| (ex.trip, ex.partial.clone())))
            };
            assert_eq!(col(1), col(4), "col, cancel at tick {tick}");
        }
    }

    /// `P(x) ← R(x), R(y)` over 100 `R` facts derives 10 000 raw
    /// bindings in its first round, far past the phase-1 brake's allowance
    /// (4 × 100 headroom + 1 024), yet only 100 distinct `P` facts: the
    /// fixpoint fits a 200-fact budget exactly. Every engine and strategy
    /// completes it at widths 1 and 4 with the unbudgeted state, and one
    /// fact less trips on the fact that overruns, surrendering the same
    /// state at both widths.
    #[test]
    fn brake_never_trips_a_fitting_fixpoint() {
        let n = 100;
        let mut r = Database::empty();
        r.set("R", Instance::from_values((0..n).map(atom)));
        let cross = ColProgram::new(vec![ColRule::pred(
            "P",
            vec![cv("x")],
            vec![
                ColLiteral::pred("R", vec![cv("x")]),
                ColLiteral::pred("R", vec![cv("y")]),
            ],
        )]);
        let cfg = ColConfig::default();
        let gov = |w: usize, facts: usize| {
            Governor::new(Budget::unlimited().with_facts(facts)).with_par(ParConfig::workers(w))
        };
        let fits = 2 * n as usize;
        let col_runs: [(&str, ColRun); 4] = [
            ("stratified naive", |p, db, c, g| {
                stratified_governed(p, db, c, ColStrategy::Naive, g, &mut EvalStats::default())
            }),
            ("stratified seminaive", |p, db, c, g| {
                stratified_governed(
                    p,
                    db,
                    c,
                    ColStrategy::Seminaive,
                    g,
                    &mut EvalStats::default(),
                )
            }),
            ("inflationary naive", |p, db, c, g| {
                col_inflationary(p, db, c, ColStrategy::Naive, g, &mut EvalStats::default())
            }),
            ("inflationary seminaive", |p, db, c, g| {
                col_inflationary(
                    p,
                    db,
                    c,
                    ColStrategy::Seminaive,
                    g,
                    &mut EvalStats::default(),
                )
            }),
        ];
        for (name, run) in col_runs {
            let full = run(&cross, &r, &cfg, &Governor::unlimited()).expect("unbudgeted");
            assert_eq!(full.preds["P"].len(), n as usize, "col {name}");
            for w in [1, 4] {
                let got = run(&cross, &r, &cfg, &gov(w, fits));
                assert_eq!(got.ok().as_ref(), Some(&full), "col {name}, width {w}");
            }
            let trip_at = |w: usize| {
                let err = run(&cross, &r, &cfg, &gov(w, fits - 1)).unwrap_err();
                let ex = err.exhausted().expect("a facts trip").clone();
                (ex.trip, ex.partial)
            };
            let (trip, partial) = trip_at(1);
            assert_eq!(
                (trip.resource, trip.consumed, trip.limit),
                (Resource::Facts, fits as u64, fits as u64 - 1),
                "col {name}"
            );
            assert_eq!((trip, partial), trip_at(4), "col {name}");
        }
        let dl = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("P", vec![dv("x")]),
            vec![
                (true, DlAtom::new("R", vec![dv("x")])),
                (true, DlAtom::new("R", vec![dv("y")])),
            ],
        )]);
        let dl_runs: [(&str, DlRun); 3] = [
            ("stratified", |p, db, g| {
                p.eval_stratified_governed(db, g, &mut EvalStats::default())
            }),
            ("seminaive", |p, db, g| {
                p.eval_stratified_seminaive_governed(db, g, &mut EvalStats::default())
            }),
            ("inflationary", |p, db, g| {
                p.eval_inflationary_governed(db, g, &mut EvalStats::default())
            }),
        ];
        // DATALOG¬ rows are tuples
        let mut r = Database::empty();
        r.set("R", Instance::from_rows((0..n).map(|i| [atom(i)])));
        for (name, run) in dl_runs {
            let full = run(&dl, &r, &Governor::unlimited()).expect("unbudgeted");
            assert_eq!(
                full.get_ref("P").map(Instance::len),
                Some(n as usize),
                "datalog {name}"
            );
            for w in [1, 4] {
                let got = run(&dl, &r, &gov(w, fits));
                assert_eq!(got.ok().as_ref(), Some(&full), "datalog {name}, width {w}");
            }
            let (seq, par) = (
                run(&dl, &r, &gov(1, fits - 1)),
                run(&dl, &r, &gov(4, fits - 1)),
            );
            let trip = &seq
                .as_ref()
                .unwrap_err()
                .exhausted()
                .expect("a facts trip")
                .trip;
            assert_eq!(
                (trip.resource, trip.consumed, trip.limit),
                (Resource::Facts, fits as u64, fits as u64 - 1),
                "datalog {name}"
            );
            assert_eq!(seq, par, "datalog {name}");
        }
    }

    /// BK's parallel phase charges the same brake with raw bindings:
    /// `P{[A:x]} ← R{[A:x]}, R{[A:y]}` over 100 `R` facts binds 10 000
    /// times, past the allowance (4 × 100 headroom + 1 024), for 101
    /// distinct facts (`A:⊥` included). The braked round is derived again
    /// sequentially, so a budget the fixpoint fits exactly completes at
    /// widths 1 and 4 with the unbudgeted state.
    #[test]
    fn bk_brake_never_trips_a_fitting_fixpoint() {
        use untyped_sets::bk::{BkRule, BkTerm};
        let n = 100;
        let attr = |v: &str| BkTerm::tuple([("A", BkTerm::var(v))]);
        let prog = BkProgram::new(vec![BkRule::new(
            "P",
            attr("x"),
            vec![("R", attr("x")), ("R", attr("y"))],
        )]);
        let st = state_from([(
            "R",
            (0..n)
                .map(|i| BkObject::tuple([("A", BkObject::atom(i))]))
                .collect::<Vec<_>>(),
        )]);
        let cfg = BkConfig::default();
        let run = |gov: &Governor| eval_rounds_governed(&prog, &st, &cfg, gov).map(|r| (r.0, r.2));
        let full = run(&Governor::unlimited()).expect("unbudgeted");
        assert_eq!(full.0["P"].len(), n as usize + 1);
        let fits: usize = full.0.values().map(|facts| facts.len()).sum();
        for w in [1, 4] {
            let gov =
                Governor::new(Budget::unlimited().with_facts(fits)).with_par(ParConfig::workers(w));
            let got = run(&gov);
            assert_eq!(got.as_ref().ok(), Some(&full), "width {w}");
        }
    }

    #[test]
    fn datalog_failpoint_cancels_mid_round_at_width_4() {
        let db = path_db(16);
        let prog = dl_tc();
        let full = prog.eval_stratified(&db, 10_000).expect("full fixpoint");
        let governor = Governor::unlimited()
            .with_failpoint(FailPoint::cancel_at(6))
            .with_par(par4());
        let mut stats = EvalStats::default();
        let err = prog
            .eval_stratified_governed(&db, &governor, &mut stats)
            .unwrap_err();
        let report = err.exhausted().expect("cancellation report");
        assert_eq!(report.engine(), EngineId::Datalog);
        assert_eq!(report.resource(), Resource::Cancelled);
        assert!(report.partial.get("T").is_subset(&full.get("T")));
        assert!(db.get("E").is_subset(&report.partial.get("E")));
    }

    #[test]
    fn col_failpoint_cancels_mid_round_at_width_4() {
        let db = path_db(16);
        let cfg = ColConfig {
            max_rounds: 100,
            max_facts: 100_000,
        };
        let full = stratified(&col_tc(), &db, &cfg).expect("unbudgeted fixpoint");
        for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
            let governor = Governor::unlimited()
                .with_failpoint(FailPoint::cancel_at(9))
                .with_par(par4());
            let mut stats = EvalStats::default();
            let err = stratified_governed(&col_tc(), &db, &cfg, strategy, &governor, &mut stats)
                .unwrap_err();
            let report = err.exhausted().expect("cancellation report");
            assert_eq!(report.engine(), EngineId::Col);
            assert_eq!(report.resource(), Resource::Cancelled);
            assert!(report.partial.pred("T").is_subset(&full.pred("T")));
            assert!(db.get("E").is_subset(&report.partial.pred("E")));
        }
    }

    #[test]
    fn bk_failpoint_cancels_mid_round_at_width_4() {
        let dollar = BkObject::Atom(Atom::named("gov-par-$"));
        let prog = BkProgram::chain_to_list(dollar.clone());
        let st = state_from([(
            "S",
            vec![BkObject::tuple([
                ("A", dollar.clone()),
                ("B", BkObject::atom(1)),
            ])],
        )]);
        let governor = Governor::unlimited()
            .with_failpoint(FailPoint::cancel_at(3))
            .with_par(par4());
        let err = eval_rounds_governed(&prog, &st, &BkConfig::default(), &governor).unwrap_err();
        let BkError::Exhausted(report) = &err;
        assert_eq!(report.engine(), EngineId::Bk);
        assert_eq!(report.resource(), Resource::Cancelled);
        assert!(!report.partial.state["S"].is_empty());
    }

    /// BK's trips give the same `Result` — trip, surrendered state and
    /// log, and counters — at widths 1 and 4: a facts trip on Example
    /// 5.4, an exhaustive enumeration past the value-size budget, and a
    /// failpoint cancel at every tick of Example 5.4 capped at five
    /// rounds. The round driver ticks the guard once per rule on the main
    /// thread and replays each rule's largest enumeration in rule order,
    /// whatever the width.
    #[test]
    fn bk_trips_are_width_invariant() {
        use untyped_sets::bk::eval::{eval_rounds_with, BindMode};
        use untyped_sets::bk::{BkRule, BkTerm};
        let run = |prog: &BkProgram, st: &BkState, cfg: &BkConfig, gov: Governor| {
            eval_rounds_with(prog, st, cfg, &gov, &mut EvalStats::default())
        };
        let pair = |a, x, b, y| BkObject::tuple([(a, x), (b, y)]);
        let dollar = BkObject::Atom(Atom::named("gov-width-$"));
        let list = BkProgram::chain_to_list(dollar.clone());
        let chain = state_from([(
            "S",
            vec![
                pair("A", dollar, "B", BkObject::atom(1)),
                pair("A", BkObject::atom(1), "B", BkObject::atom(2)),
            ],
        )]);

        let cfg = BkConfig {
            max_facts: 12,
            ..BkConfig::default()
        };
        let facts = |w: usize| {
            let gov = Governor::new(cfg.budget()).with_par(ParConfig::workers(w));
            run(&list, &chain, &cfg, gov)
        };
        let BkError::Exhausted(report) = facts(1).unwrap_err();
        assert_eq!(report.resource(), Resource::Facts);
        assert_eq!(facts(1), facts(4), "facts trip");

        // `P{x} ← R{x}` enumerates 2, 4 and 10 sub-objects for the three
        // `R` objects; a budget of 3 trips on the rule's largest
        let copy = BkProgram::new(vec![BkRule::new(
            "P",
            BkTerm::var("x"),
            vec![("R", BkTerm::var("x"))],
        )]);
        let objects = state_from([(
            "R",
            vec![
                BkObject::atom(1),
                BkObject::tuple([("A", BkObject::atom(1))]),
                pair("A", BkObject::atom(1), "B", BkObject::atom(2)),
            ],
        )]);
        let cfg = BkConfig {
            bind_mode: BindMode::Exhaustive,
            ..BkConfig::default()
        };
        let sized = |w: usize| {
            let budget = Budget::unlimited().with_value_size(3);
            let gov = Governor::new(budget).with_par(ParConfig::workers(w));
            run(&copy, &objects, &cfg, gov)
        };
        let BkError::Exhausted(report) = sized(1).unwrap_err();
        assert_eq!(report.resource(), Resource::ValueSize);
        assert_eq!(sized(1), sized(4), "value-size trip");

        let cfg = BkConfig {
            max_rounds: 5,
            ..BkConfig::default()
        };
        let mut completed = false;
        for tick in 1..10_000 {
            let cancel = |w: usize| {
                let gov = Governor::unlimited()
                    .with_failpoint(FailPoint::cancel_at(tick))
                    .with_par(ParConfig::workers(w));
                run(&list, &chain, &cfg, gov)
            };
            let at_1 = cancel(1);
            assert_eq!(at_1, cancel(4), "cancel at tick {tick}");
            if at_1.is_ok() {
                completed = true;
                break;
            }
        }
        assert!(completed, "the cancel sweep passed the end of the run");
    }

    /// Finite and terminal invention (one query it defines, one it
    /// leaves `?`) give the same `Result` — answer, or trip with its
    /// partial union, levels done and stats — at widths 1 and 4 under a
    /// one-step budget that trips mid-chunk and a failpoint cancel at every
    /// tick up to completion; so does a value-size budget the `fi` union
    /// outgrows. Levels evaluate speculatively in chunks of up to four,
    /// but the guard is charged in level order.
    #[test]
    fn invention_trips_are_width_invariant() {
        use untyped_sets::calculus::invention::eval_terminal_governed;
        use untyped_sets::calculus::{CalcError, InventionOutcome};
        use untyped_sets::guard::CkptConfig;
        type Answer = Result<(Option<usize>, Instance), CalcError>;
        type Search<'a> = &'a dyn Fn(&CalcQuery, &Governor) -> Answer;

        let mut db = Database::empty();
        db.set("R", Instance::from_values([atom(1), atom(2)]));
        let all_atoms = CalcQuery::new(
            "x",
            RType::Atomic,
            Formula::Eq(CalcTerm::var("x"), CalcTerm::var("x")),
        );
        let bound = CalcQuery::new(
            "x",
            RType::Atomic,
            Formula::Pred("R".into(), CalcTerm::var("x")),
        );
        let cfg = CalcConfig::default();
        let fi = |q: &CalcQuery, gov: &Governor| -> Answer {
            eval_fi_governed(q, &db, 6, &cfg, gov).map(|union| (None, union))
        };
        let ti = |q: &CalcQuery, gov: &Governor| -> Answer {
            eval_terminal_governed(q, &db, 6, &cfg, gov).map(|o| match o {
                InventionOutcome::Defined { n, answer } => (Some(n), answer),
                InventionOutcome::Undefined => (None, Instance::empty()),
            })
        };
        let at = |w: usize, gov: Governor| {
            gov.with_par(ParConfig::workers(w))
                .with_ckpt_config(CkptConfig::Off)
        };
        let resource = |answer: Answer| answer.unwrap_err().exhausted().map(|e| e.resource());

        let cases: [(&str, Search, &CalcQuery); 3] = [
            ("fi", &fi, &all_atoms),
            ("ti-defined", &ti, &all_atoms),
            ("ti-undefined", &ti, &bound),
        ];
        for (name, search, q) in cases {
            let steps = |w| search(q, &at(w, Governor::new(Budget::unlimited().with_steps(1))));
            assert_eq!(resource(steps(1)), Some(Resource::Steps), "{name}");
            assert_eq!(steps(1), steps(4), "{name}: steps trip");

            let mut completed = false;
            for tick in 1..1_000 {
                let cancel = |w| {
                    let gov = Governor::unlimited().with_failpoint(FailPoint::cancel_at(tick));
                    search(q, &at(w, gov))
                };
                let at_1 = cancel(1);
                assert_eq!(at_1, cancel(4), "{name}: cancel at tick {tick}");
                if at_1.is_ok() {
                    completed = true;
                    break;
                }
            }
            assert!(
                completed,
                "{name}: the cancel sweep passed the end of the run"
            );
        }

        let sized = |w| {
            let budget = Budget::unlimited().with_value_size(1);
            fi(&all_atoms, &at(w, Governor::new(budget)))
        };
        assert_eq!(resource(sized(1)), Some(Resource::ValueSize));
        assert_eq!(sized(1), sized(4), "value-size trip on the fi union");
    }

    #[test]
    fn calculus_failpoint_cancels_between_levels_at_width_4() {
        // the all-atoms query; each invention level is one guard step, and
        // steps are charged in level order even when levels evaluate
        // speculatively in parallel — so the cancel lands between the same
        // levels as a sequential run and the union is an exact level prefix
        let mut db = Database::empty();
        db.set("R", Instance::from_values([atom(1), atom(2)]));
        let q = CalcQuery::new(
            "x",
            RType::Atomic,
            Formula::Eq(CalcTerm::var("x"), CalcTerm::var("x")),
        );
        let cfg = CalcConfig::default();
        let governor = Governor::new(cfg.budget())
            .with_failpoint(FailPoint::cancel_at(2))
            .with_par(par4());
        let err = eval_fi_governed(&q, &db, 10, &cfg, &governor).unwrap_err();
        let report = err.exhausted().expect("cancellation report");
        assert_eq!(report.engine(), EngineId::Calculus);
        assert_eq!(report.resource(), Resource::Cancelled);
        assert_eq!(report.partial.levels_done, 1);
        assert_eq!(
            report.partial.union,
            eval_fi(&q, &db, 0, &cfg).expect("level-0 prefix")
        );
    }
}

/// Governance × tracing: a budget trip mid-run must leave a well-formed
/// JSONL trace — every line individually valid JSON, flushed through the
/// final `guard_trip` event — so a post-mortem can always be read off the
/// file even though the run died. (The `JsonlTracer` flushes per event
/// precisely for this.) A run that spends its round allowance without
/// converging trips the same way: COL under `max_rounds`, and BK's
/// `eval_fixpoint` on Example 5.4.
#[test]
fn budget_trip_mid_round_flushes_well_formed_trace() {
    use untyped_sets::bk::eval::eval_fixpoint_governed;
    use untyped_sets::trace::{is_valid_json, JsonlTracer, TraceHandle};

    type Run = Box<dyn Fn(&Governor) -> bool>;
    let col = |budget: Budget, cfg: ColConfig, n: u64| -> (Budget, Run) {
        let run = move |gov: &Governor| {
            let mut stats = EvalStats::default();
            let res = stratified_governed(
                &col_tc(),
                &path_db(n),
                &cfg,
                ColStrategy::Seminaive,
                gov,
                &mut stats,
            );
            matches!(res, Err(ColEvalError::Exhausted(_)))
        };
        (budget, Box::new(run))
    };
    let pair = |a, x, b, y| BkObject::tuple([(a, x), (b, y)]);
    let dollar = BkObject::Atom(Atom::named("gov-trace-$"));
    let chain = state_from([(
        "S",
        vec![
            pair("A", dollar.clone(), "B", BkObject::atom(1)),
            pair("A", BkObject::atom(1), "B", BkObject::atom(2)),
        ],
    )]);
    let list = BkProgram::chain_to_list(dollar);
    let bk_cfg = BkConfig {
        max_rounds: 5,
        ..BkConfig::default()
    };
    let bk: Run = Box::new(move |gov: &Governor| {
        eval_fixpoint_governed(&list, &chain, &bk_cfg, gov).is_err()
    });
    let capped = ColConfig {
        max_rounds: 3,
        ..ColConfig::default()
    };
    let runs: Vec<(&str, (Budget, Run))> = vec![
        (
            "col-steps",
            col(Budget::unlimited().with_steps(3), ColConfig::default(), 64),
        ),
        ("col-max-rounds", col(Budget::unlimited(), capped, 21)),
        ("bk-max-rounds", (Budget::unlimited(), bk)),
    ];
    for (name, (budget, run)) in runs {
        let path = std::env::temp_dir().join(format!(
            "uset-trip-trace-{name}-{}.jsonl",
            std::process::id()
        ));
        {
            let sink = JsonlTracer::create(&path).expect("create trace file");
            let governor =
                Governor::new(budget).with_trace(TraceHandle::new(std::sync::Arc::new(sink)));
            assert!(run(&governor), "{name}: the run must exhaust");
        }
        let text = std::fs::read_to_string(&path).expect("read trace file");
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            !lines.is_empty(),
            "{name}: trip must not leave an empty trace"
        );
        for (i, line) in lines.iter().enumerate() {
            assert!(
                is_valid_json(line),
                "{name}: line {i} is not valid JSON: {line}"
            );
        }
        // the run started, did some rounds, and ended with the trip —
        // never an engine_end (that marks success)
        assert!(lines[0].contains("\"ev\":\"engine_start\""));
        assert!(lines.iter().any(|l| l.contains("\"ev\":\"round_end\"")));
        let last = lines.last().unwrap();
        assert!(
            last.contains("\"ev\":\"guard_trip\"") && last.contains("\"resource\":\"steps\""),
            "{name}: final event must be the trip: {last}"
        );
        assert!(
            !text.contains("\"ev\":\"engine_end\""),
            "{name}: an exhausted run must not claim an orderly engine end"
        );
    }
}
