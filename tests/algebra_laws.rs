//! Property-based algebraic laws of the operator semantics, over random
//! flat and heterogeneous instances: the equational theory a user of the
//! algebra is entitled to rely on, and the optimizer's contract on a
//! gallery of programs × random databases.

use proptest::prelude::*;
use untyped_sets::algebra::eval::{
    nest, powerset, product, project, select, set_collapse, unnest, wrap,
};
use untyped_sets::algebra::opt::optimize;
use untyped_sets::algebra::{eval_program, EvalConfig, EvalError, Expr, Pred, Program, Stmt};
use untyped_sets::object::{Atom, Database, Instance, Value};

fn arb_flat_relation(arity: usize) -> impl Strategy<Value = Instance> {
    prop::collection::vec(prop::collection::vec(0u64..5, arity..=arity), 0..7).prop_map(|rows| {
        Instance::from_rows(rows.into_iter().map(|r| {
            r.into_iter()
                .map(|i| Value::Atom(Atom::new(i)))
                .collect::<Vec<_>>()
        }))
    })
}

fn arb_atom() -> impl Strategy<Value = Value> {
    (0u64..3).prop_map(|i| Value::Atom(Atom::new(i)))
}

/// Relations of mixed arity: bare atoms and 1-, 2- and 3-tuples over few
/// atoms, so bare values often sit next to their own 1-tuples.
fn arb_mixed_relation() -> impl Strategy<Value = Instance> {
    let member = prop_oneof![
        arb_atom(),
        arb_atom().prop_map(|x| Value::Tuple(vec![x])),
        (arb_atom(), arb_atom()).prop_map(|(x, y)| Value::Tuple(vec![x, y])),
        (arb_atom(), arb_atom(), arb_atom()).prop_map(|(x, y, z)| Value::Tuple(vec![x, y, z])),
    ];
    prop::collection::vec(member, 0..7).prop_map(Instance::from_values)
}

/// The left operand of a join: one arity (the shape the evaluator joins
/// by hash) or mixed (the shape it materializes).
fn arb_join_operand() -> impl Strategy<Value = Instance> {
    prop_oneof![
        prop::collection::vec(arb_atom(), 0..5).prop_map(Instance::from_values),
        arb_flat_relation(1),
        arb_flat_relation(2),
        arb_mixed_relation(),
    ]
}

proptest! {
    /// ∪ is associative, commutative, idempotent; − and ∩ interact as in
    /// any boolean algebra of sets.
    #[test]
    fn boolean_laws(a in arb_flat_relation(2), b in arb_flat_relation(2), c in arb_flat_relation(2)) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&a), a.clone());
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        // a − b = a − (a ∩ b)
        prop_assert_eq!(a.difference(&b), a.difference(&a.intersection(&b)));
        // (a − b) ∪ (a ∩ b) = a
        prop_assert_eq!(a.difference(&b).union(&a.intersection(&b)), a.clone());
    }

    /// σ distributes over ∪ and commutes with itself.
    #[test]
    fn selection_laws(a in arb_flat_relation(2), b in arb_flat_relation(2)) {
        let p = Pred::eq_cols(0, 1);
        let q = Pred::eq_const(0, Value::Atom(Atom::new(1)));
        prop_assert_eq!(
            select(&a.union(&b), &p),
            select(&a, &p).union(&select(&b, &p))
        );
        prop_assert_eq!(
            select(&select(&a, &p), &q),
            select(&select(&a, &q), &p)
        );
        // σ_p∧q = σ_p ∘ σ_q
        prop_assert_eq!(
            select(&a, &p.clone().and(q.clone())),
            select(&select(&a, &q), &p)
        );
    }

    /// × distributes over ∪ on both sides.
    #[test]
    fn product_distributes(a in arb_flat_relation(1), b in arb_flat_relation(1), c in arb_flat_relation(2)) {
        prop_assert_eq!(
            product(&a.union(&b), &c),
            product(&a, &c).union(&product(&b, &c))
        );
        prop_assert_eq!(
            product(&c, &a.union(&b)),
            product(&c, &a).union(&product(&c, &b))
        );
    }

    /// π over ∪; π composes with itself by index composition.
    #[test]
    fn projection_laws(a in arb_flat_relation(3), b in arb_flat_relation(3)) {
        prop_assert_eq!(
            project(&a.union(&b), &[2, 0]),
            project(&a, &[2, 0]).union(&project(&b, &[2, 0]))
        );
        // π[0](π[2,0](x)) = π[2](x)
        prop_assert_eq!(
            project(&project(&a, &[2, 0]), &[0]),
            project(&a, &[2])
        );
    }

    /// μ ∘ ν = id on flat binary relations (nest then unnest restores).
    #[test]
    fn nest_unnest_inverse(a in arb_flat_relation(2)) {
        prop_assert_eq!(unnest(&nest(&a, &[1]), 1), a);
    }

    /// powerset cardinality is 2^|x| and collapse recovers the members.
    #[test]
    fn powerset_laws(a in arb_flat_relation(1)) {
        prop_assume!(a.len() <= 8);
        let p = powerset(&a);
        prop_assert_eq!(p.len(), 1usize << a.len());
        prop_assert_eq!(set_collapse(&p), a);
    }

    /// wrap is injective: distinct instances stay distinct, and wrapping
    /// commutes with union.
    #[test]
    fn wrap_laws(a in arb_flat_relation(2), b in arb_flat_relation(2)) {
        prop_assert_eq!(wrap(&a.union(&b)), wrap(&a).union(&wrap(&b)));
        prop_assert_eq!(wrap(&a) == wrap(&b), a == b);
    }

    /// The optimizer preserves semantics on a gallery of programs over
    /// random databases.
    #[test]
    fn optimizer_contract(r in arb_flat_relation(2)) {
        let mut db = Database::empty();
        db.set("R", r);
        let gallery: Vec<Program> = vec![
            untyped_sets::algebra::derived::tc_while_program("R"),
            untyped_sets::core::powerset_via_while_program("R"),
            Program::new(vec![
                Stmt::assign("dead", Expr::var("R").powerset()),
                Stmt::assign("x", Expr::var("R").union(Expr::var("R"))),
                Stmt::assign("ANS", Expr::var("x").select(Pred::True)),
            ]),
        ];
        let cfg = EvalConfig {
            fuel: 1_000_000,
            max_instance_len: 1 << 20,
        };
        for prog in &gallery {
            let o = optimize(prog);
            prop_assert_eq!(
                eval_program(prog, &db, &cfg),
                eval_program(&o, &db, &cfg)
            );
        }
    }

    /// Flattening a program to a single while preserves semantics on
    /// random inputs (the Theorem 4.1(b)(iii) contract, property-tested).
    #[test]
    fn while_flattening_contract(r in arb_flat_relation(2)) {
        let mut db = Database::empty();
        db.set("R", r);
        let prog = untyped_sets::algebra::derived::tc_while_program("R");
        let flat = untyped_sets::algebra::flatten_while::flatten_to_single_while(&prog).unwrap();
        let cfg = EvalConfig {
            fuel: 10_000_000,
            max_instance_len: 1 << 20,
        };
        prop_assert_eq!(
            eval_program(&prog, &db, &cfg).unwrap(),
            eval_program(&flat, &db, &cfg).unwrap()
        );
    }

    /// σ over × agrees with the materialized product, for equalities of
    /// columns on one side or across the two, alone or with other
    /// conjuncts; and the governed run trips one below the product's size
    /// with exactly that size consumed.
    #[test]
    fn select_over_product_is_a_join(
        a in arb_join_operand(),
        b in arb_mixed_relation(),
        cols in (0usize..5, 0usize..5, 0usize..5),
    ) {
        let (i, j, k) = cols;
        let one = || Value::Atom(Atom::new(1));
        let preds = [
            Pred::eq_cols(i, j),
            Pred::eq_cols(i, j).and(Pred::eq_const(k, one())),
            Pred::eq_const(k, one()).not().and(Pred::eq_cols(i, j)),
            Pred::eq_cols(i, j).and(Pred::eq_cols(j, k)),
        ];
        let mut db = Database::empty();
        db.set("A", a.clone());
        db.set("B", b.clone());
        let full = product(&a, &b);
        for p in preds {
            let prog = Program::new(vec![Stmt::assign(
                "ANS",
                Expr::var("A").product(Expr::var("B")).select(p.clone()),
            )]);
            prop_assert_eq!(
                eval_program(&prog, &db, &EvalConfig::default()).unwrap(),
                select(&full, &p)
            );
            if full.len() > a.len().max(b.len()) {
                let cap = EvalConfig { max_instance_len: full.len() - 1, ..EvalConfig::default() };
                match eval_program(&prog, &db, &cap) {
                    Err(EvalError::Exhausted(e)) => {
                        prop_assert_eq!(e.trip.consumed, full.len() as u64)
                    }
                    other => prop_assert!(false, "expected a value-size trip, got {:?}", other),
                }
            }
        }
    }
}
