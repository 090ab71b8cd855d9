//! A fact budget that trips mid-round surrenders exactly the state the
//! round started from: no relation, function graph or function slot the
//! round would have created appears in the surrendered state, not even
//! empty. Checked for COL (a predicate head, and a data-function head
//! fired first) and for DATALOG¬, at one worker and at four.

use untyped_sets::deductive::col::ast::{ColLiteral, ColProgram, ColRule, ColTerm};
use untyped_sets::deductive::col::eval::{stratified_governed, ColConfig, ColState, ColStrategy};
use untyped_sets::deductive::{DatalogProgram, DlAtom, DlRule, DlTerm};
use untyped_sets::guard::{Budget, Governor, Resource};
use untyped_sets::object::{atom, Database, EvalStats, Instance};
use untyped_sets::par::ParConfig;

/// 40 facts in `R`, 1 600 pairs to derive, 100 facts allowed.
const ATOMS: u64 = 40;
const BUDGET: usize = 100;

fn governor(workers: usize) -> Governor {
    Governor::new(Budget::unlimited().with_facts(BUDGET)).with_par(ParConfig::workers(workers))
}

/// `P(x,y) ← R(x), R(y)`.
fn pairs_rule() -> ColRule {
    let v = ColTerm::var;
    ColRule::pred(
        "P",
        vec![v("x"), v("y")],
        vec![
            ColLiteral::pred("R", vec![v("x")]),
            ColLiteral::pred("R", vec![v("y")]),
        ],
    )
}

/// `y ∈ F(x) ← R(x), R(y)`.
fn graph_rule() -> ColRule {
    let v = ColTerm::var;
    ColRule::func_member(
        "F",
        vec![v("x")],
        v("y"),
        vec![
            ColLiteral::pred("R", vec![v("x")]),
            ColLiteral::pred("R", vec![v("y")]),
        ],
    )
}

fn col_trips_back_to(prog: &ColProgram) {
    let mut db = Database::empty();
    db.set("R", Instance::from_values((0..ATOMS).map(atom)));
    let before = ColState::from_database(&db);
    for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
        for workers in [1, 4] {
            let err = stratified_governed(
                prog,
                &db,
                &ColConfig::default(),
                strategy,
                &governor(workers),
                &mut EvalStats::default(),
            )
            .unwrap_err();
            let ex = err.exhausted().expect("the fact budget trips");
            assert_eq!(ex.trip.resource, Resource::Facts);
            assert_eq!(
                ex.partial, before,
                "{strategy:?} at {workers} workers surrenders the pre-round state"
            );
        }
    }
}

#[test]
fn col_facts_trip_leaves_no_empty_relation() {
    col_trips_back_to(&ColProgram::new(vec![pairs_rule()]));
}

#[test]
fn col_facts_trip_leaves_no_empty_function_graph_or_slot() {
    col_trips_back_to(&ColProgram::new(vec![graph_rule(), pairs_rule()]));
}

#[test]
fn datalog_facts_trip_surrenders_the_pre_round_database() {
    let v = DlTerm::var;
    let prog = DatalogProgram::new(vec![DlRule::new(
        DlAtom::new("P", vec![v("x"), v("y")]),
        vec![
            (true, DlAtom::new("R", vec![v("x")])),
            (true, DlAtom::new("R", vec![v("y")])),
        ],
    )]);
    let mut db = Database::empty();
    db.set("R", Instance::from_rows((0..ATOMS).map(|i| [atom(i)])));
    // a relation the input holds empty stays present and empty
    db.set("P", Instance::empty());
    for workers in [1, 4] {
        for naive in [true, false] {
            let gov = governor(workers);
            let mut stats = EvalStats::default();
            let err = if naive {
                prog.eval_stratified_governed(&db, &gov, &mut stats)
            } else {
                prog.eval_stratified_seminaive_governed(&db, &gov, &mut stats)
            }
            .unwrap_err();
            let ex = err.exhausted().expect("the fact budget trips");
            assert_eq!(ex.trip.resource, Resource::Facts);
            assert_eq!(
                ex.partial, db,
                "naive={naive} at {workers} workers surrenders the input"
            );
            assert_eq!(stats.peak_facts, BUDGET + 1, "the tripping fact is counted");
        }
    }
}
