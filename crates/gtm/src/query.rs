//! Running a GTM as a database query, per the Section 3 conventions.
//!
//! "An input instance I is enumerated in some order e and placed
//! left-justified on the first of the two tapes of M. M computes until it
//! reaches the halting state. If the contents of the first tape hold an
//! ordered listing of an instance of T, that instance is the output …
//! otherwise M produces the undefined output. M is *input-order
//! independent* if for each instance, the output is the same regardless of
//! the input order."

use crate::encode::{all_orders, decode_cells, encode_cells};
use crate::gtm::{Cell, Gtm, GtmExhausted};
use uset_guard::{Budget, Governor};
use uset_object::{Database, Instance, Schema, Type, Value};

/// Failure modes of a GTM query run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GtmQueryError {
    /// The input database was not a flat instance of the schema.
    BadInput,
    /// The step bound was exhausted before halting.
    FuelExhausted,
    /// A resource budget was exhausted or the run was cancelled; carries
    /// the machine configuration at the trip point.
    Exhausted(Box<GtmExhausted>),
}

impl GtmQueryError {
    /// The exhaustion report, if this is a budget/cancellation error.
    pub fn exhausted(&self) -> Option<&GtmExhausted> {
        match self {
            GtmQueryError::Exhausted(e) => Some(e),
            _ => None,
        }
    }
}

impl std::fmt::Display for GtmQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GtmQueryError::BadInput => write!(f, "input is not a flat instance of the schema"),
            GtmQueryError::FuelExhausted => write!(f, "GTM fuel exhausted"),
            GtmQueryError::Exhausted(e) => write!(f, "GTM query exhausted: {e}"),
        }
    }
}

impl std::error::Error for GtmQueryError {}

/// Run the GTM on a database under a specific per-relation enumeration
/// order. `Ok(None)` is the paper's undefined output (machine stuck, or
/// halting tape unparsable / not an instance of the target type).
///
/// Thin shim over [`run_gtm_query_ordered_governed`] with a steps-only
/// budget; a trip maps back to [`GtmQueryError::FuelExhausted`].
pub fn run_gtm_query_ordered(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    orders: &[Vec<Value>],
    target: &Type,
    fuel: u64,
) -> Result<Option<Instance>, GtmQueryError> {
    let governor = Governor::new(Budget::unlimited().with_steps(fuel));
    run_gtm_query_ordered_governed(m, db, schema, orders, target, &governor).map_err(out_of_fuel)
}

/// [`run_gtm_query_ordered`] under a [`Governor`]: the machine run charges
/// one step per transition and checks tape growth against the value-size
/// cap; a trip surrenders the machine [`crate::gtm::Config`] at the trip
/// point inside [`GtmQueryError::Exhausted`].
pub fn run_gtm_query_ordered_governed(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    orders: &[Vec<Value>],
    target: &Type,
    governor: &Governor,
) -> Result<Option<Instance>, GtmQueryError> {
    let tape = encode_cells(db, schema, Some(orders)).map_err(|_| GtmQueryError::BadInput)?;
    run_query(m, tape, target, governor)
}

/// Run the GTM on a database under the canonical enumeration order.
pub fn run_gtm_query(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    target: &Type,
    fuel: u64,
) -> Result<Option<Instance>, GtmQueryError> {
    let governor = Governor::new(Budget::unlimited().with_steps(fuel));
    run_gtm_query_governed(m, db, schema, target, &governor).map_err(out_of_fuel)
}

/// [`run_gtm_query`] under a [`Governor`].
pub fn run_gtm_query_governed(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    target: &Type,
    governor: &Governor,
) -> Result<Option<Instance>, GtmQueryError> {
    let tape = encode_cells(db, schema, None).map_err(|_| GtmQueryError::BadInput)?;
    run_query(m, tape, target, governor)
}

/// Run the machine on an encoded input tape and decode its halted tape
/// 1 against `target`.
fn run_query(
    m: &Gtm,
    tape: Vec<Cell>,
    target: &Type,
    governor: &Governor,
) -> Result<Option<Instance>, GtmQueryError> {
    let out = m
        .run_relational(tape, governor)
        .map_err(GtmQueryError::Exhausted)?;
    Ok(out
        .and_then(|out| decode_cells(&out))
        .filter(|inst| inst.check_rtype(&target.to_rtype()).is_ok()))
}

/// The fuel shims report a budget trip as [`GtmQueryError::FuelExhausted`].
fn out_of_fuel(e: GtmQueryError) -> GtmQueryError {
    match e {
        GtmQueryError::Exhausted(_) => GtmQueryError::FuelExhausted,
        other => other,
    }
}

/// Exhaustively check input-order independence of `m` on `db`: run under
/// every combination of per-relation enumeration orders and compare.
/// Factorial cost — small inputs only. Returns the common output if
/// independent, or `Err` with two differing outputs.
#[allow(clippy::type_complexity, clippy::result_large_err)]
pub fn check_order_independence(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    target: &Type,
    fuel: u64,
) -> Result<Option<Instance>, (Option<Instance>, Option<Instance>)> {
    let per_relation: Vec<Vec<Vec<Value>>> = schema
        .entries()
        .iter()
        .map(|(name, _)| all_orders(&db.get(name)))
        .collect();
    let mut combos: Vec<Vec<Vec<Value>>> = vec![Vec::new()];
    for rel_orders in &per_relation {
        let mut next = Vec::new();
        for prefix in &combos {
            for o in rel_orders {
                let mut row = prefix.clone();
                row.push(o.clone());
                next.push(row);
            }
        }
        combos = next;
    }
    let mut first: Option<Option<Instance>> = None;
    for orders in combos {
        let out = run_gtm_query_ordered(m, db, schema, &orders, target, fuel).unwrap_or(None);
        match &first {
            None => first = Some(out),
            Some(f) if *f != out => return Err((f.clone(), out)),
            _ => {}
        }
    }
    Ok(first.unwrap_or(None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{identity_gtm, nonempty_flag_gtm, parity_gtm, swap_pairs_gtm};
    use uset_object::{atom, Atom, Instance};

    fn db1(rows: Vec<Vec<Value>>, arity: usize) -> (Database, Schema, Type) {
        let mut db = Database::empty();
        db.set("R", Instance::from_rows(rows));
        (db, Schema::flat([("R", arity)]), Type::atomic_tuple(arity))
    }

    #[test]
    fn identity_as_query() {
        let (db, schema, t) = db1(vec![vec![atom(1), atom(2)]], 2);
        let out = run_gtm_query(&identity_gtm(), &db, &schema, &t, 1000).unwrap();
        assert_eq!(out, Some(db.get("R")));
    }

    #[test]
    fn swap_is_order_independent() {
        let (db, schema, t) = db1(
            vec![
                vec![atom(1), atom(2)],
                vec![atom(3), atom(4)],
                vec![atom(5), atom(5)],
            ],
            2,
        );
        let out = check_order_independence(&swap_pairs_gtm(), &db, &schema, &t, 100_000)
            .expect("swap must be order independent");
        assert_eq!(
            out,
            Some(Instance::from_rows([
                [atom(2), atom(1)],
                [atom(4), atom(3)],
                [atom(5), atom(5)],
            ]))
        );
    }

    #[test]
    fn parity_is_order_independent() {
        let c = Atom::named("q-parity-c");
        let (db, schema, t) = db1(vec![vec![atom(1)], vec![atom(2)], vec![atom(3)]], 1);
        let out = check_order_independence(&parity_gtm(c), &db, &schema, &t, 100_000)
            .expect("parity must be order independent");
        assert_eq!(out, Some(Instance::empty())); // 3 is odd
    }

    #[test]
    fn wrong_arity_output_is_undefined() {
        // nonempty_flag outputs arity 1; ask for arity 2 and the decoded
        // output fails the target type check → undefined
        let c = Atom::named("q-flag-c");
        let (db, schema, _) = db1(vec![vec![atom(1), atom(2)]], 2);
        let out = run_gtm_query(
            &nonempty_flag_gtm(c),
            &db,
            &schema,
            &Type::atomic_tuple(2),
            100_000,
        )
        .unwrap();
        assert_eq!(out, None);
        // with the right target it is defined
        let ok = run_gtm_query(
            &nonempty_flag_gtm(c),
            &db,
            &schema,
            &Type::atomic_tuple(1),
            100_000,
        )
        .unwrap();
        assert!(ok.is_some());
    }

    #[test]
    fn stuck_machine_yields_undefined() {
        // swap on a unary relation: the machine expects pairs and gets
        // stuck at the missing ',' — undefined, not a crash
        let (db, schema, t) = db1(vec![vec![atom(1)]], 1);
        let out = run_gtm_query(&swap_pairs_gtm(), &db, &schema, &t, 1000).unwrap();
        assert_eq!(out, None);
    }
}
