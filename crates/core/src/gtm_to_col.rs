//! Theorem 5.1: compile a generic Turing machine into stratified COL.
//!
//! Where the algebra simulation (Theorem 4.1b) keeps only the *current*
//! configuration and overwrites it, a stratified program cannot overwrite
//! — so, exactly as the paper prescribes, the compiled COL program records
//! the **entire history** of the computation: every relation carries a
//! time column, and time indices are the singleton-nesting chain
//! `t₀; {t₀}; {{t₀}}; …` grown by guarded chain rules (the Theorem 5.1
//! `F(a)` device, here inlined as `Time`/`MaxIdx` predicates). Because
//! facts are only ever added, the program is negation-free on IDB
//! predicates (the only negative literals test the *EDB* constant table
//! `Exact`), hence trivially stratified — this is precisely why history
//! keeping makes the stratified and inflationary semantics coincide on the
//! construction.
//!
//! Each transition template of the GTM is specialized into a bundle of
//! rules sharing one body (the configuration match at time `t`) and
//! deriving the time-`{t}` facts: next state, written cells, copied
//! cells, and moved heads. Generic (`α`/`β`) template positions become
//! variables constrained by `¬Exact(·)` and disequality literals.

use crate::gtm_to_alg::idx_seed;
use uset_deductive::col::ast::{ColLiteral, ColProgram, ColRule, ColTerm};
use uset_deductive::col::eval::{stratified, ColConfig, ColEvalError, ColState};
use uset_gtm::encode::{encode_database, encode_database_ordered};
use uset_gtm::gtm::{Gtm, Move, SymOut, SymPat, TapeSym};
use uset_object::{Atom, Database, Instance, Schema, Type, Value};

fn work_atom(w: &str) -> Atom {
    Atom::named(&format!("gtm:w:{w}"))
}

fn state_atom(q: &str) -> Atom {
    Atom::named(&format!("gtm:q:{q}"))
}

fn time_seed() -> Atom {
    Atom::named("col:t0")
}

fn v(name: &str) -> ColTerm {
    ColTerm::var(name)
}

fn cst(a: Atom) -> ColTerm {
    ColTerm::Const(Value::Atom(a))
}

fn succ(t: &str) -> ColTerm {
    ColTerm::SetLit(vec![v(t)])
}

/// Read-pattern → (term, extra constraining literals). `a`/`b` are the
/// α/β variables of the bundle.
fn read_term(p: &SymPat, tape1_alpha: bool) -> (ColTerm, Vec<ColLiteral>) {
    match p {
        SymPat::Work(w) => (cst(work_atom(w)), vec![]),
        SymPat::Const(c) => (cst(*c), vec![]),
        SymPat::Alpha if tape1_alpha => {
            // tape-2 α: the same element as tape-1's α — just reuse the var
            (v("a"), vec![])
        }
        SymPat::Alpha => (v("a"), vec![ColLiteral::not_pred("Exact", vec![v("a")])]),
        SymPat::Beta => (
            v("b"),
            vec![
                ColLiteral::not_pred("Exact", vec![v("b")]),
                ColLiteral::neq(v("b"), v("a")),
            ],
        ),
    }
}

fn write_term(o: &SymOut) -> ColTerm {
    match o {
        SymOut::Work(w) => cst(work_atom(w)),
        SymOut::Const(c) => cst(*c),
        SymOut::Alpha => v("a"),
        SymOut::Beta => v("b"),
    }
}

/// The shared body of a template bundle: the configuration match at time
/// `t` (binds `t`, `i1`, `i2`, and `a`/`b` when generic).
fn template_body(from: &str, r1: &SymPat, r2: &SymPat) -> Vec<ColLiteral> {
    let mut body = vec![
        ColLiteral::pred("S", vec![v("t"), cst(state_atom(from))]),
        ColLiteral::pred("H1", vec![v("t"), v("i1")]),
    ];
    let (t1, extra1) = read_term(r1, false);
    body.push(ColLiteral::pred("T1", vec![v("t"), v("i1"), t1]));
    body.extend(extra1);
    body.push(ColLiteral::pred("H2", vec![v("t"), v("i2")]));
    let (t2, extra2) = read_term(r2, *r1 == SymPat::Alpha);
    body.push(ColLiteral::pred("T2", vec![v("t"), v("i2"), t2]));
    body.extend(extra2);
    body
}

/// Compile `m` into a COL program (rules only — the EDB facts come from
/// [`prepare_col_input`]).
pub fn compile_gtm_to_col(m: &Gtm) -> ColProgram {
    let mut rules = Vec::new();

    // shared chain-growth rules, guarded on a non-halted state at time t
    let guard = |extra: Vec<ColLiteral>| -> Vec<ColLiteral> {
        let mut b = vec![
            ColLiteral::pred("S", vec![v("t"), v("q")]),
            ColLiteral::pred("NonHalt", vec![v("q")]),
        ];
        b.extend(extra);
        b
    };
    rules.push(ColRule::pred("Time", vec![succ("t")], guard(vec![])));
    let maxidx = ColLiteral::pred("MaxIdx", vec![v("i"), v("t")]);
    rules.push(ColRule::pred(
        "Idx",
        vec![ColTerm::SetLit(vec![v("i")])],
        guard(vec![maxidx.clone()]),
    ));
    rules.push(ColRule::pred(
        "INext",
        vec![v("i"), ColTerm::SetLit(vec![v("i")])],
        guard(vec![maxidx.clone()]),
    ));
    rules.push(ColRule::pred(
        "MaxIdx",
        vec![ColTerm::SetLit(vec![v("i")]), succ("t")],
        guard(vec![maxidx.clone()]),
    ));
    for tape in ["T1", "T2"] {
        rules.push(ColRule::pred(
            tape,
            vec![
                succ("t"),
                ColTerm::SetLit(vec![v("i")]),
                cst(work_atom("_")),
            ],
            guard(vec![maxidx.clone()]),
        ));
    }

    // one bundle per transition template
    for ((from, r1, r2), act) in m.transitions() {
        let body = template_body(from, r1, r2);

        // next state
        rules.push(ColRule::pred(
            "S",
            vec![succ("t"), cst(state_atom(&act.to))],
            body.clone(),
        ));
        // written cells
        rules.push(ColRule::pred(
            "T1",
            vec![succ("t"), v("i1"), write_term(&act.write1)],
            body.clone(),
        ));
        rules.push(ColRule::pred(
            "T2",
            vec![succ("t"), v("i2"), write_term(&act.write2)],
            body.clone(),
        ));
        // copied cells (everything away from the head)
        for (tape, head) in [("T1", "i1"), ("T2", "i2")] {
            let mut copy = body.clone();
            copy.push(ColLiteral::pred(tape, vec![v("t"), v("j"), v("s")]));
            copy.push(ColLiteral::neq(v("j"), v(head)));
            rules.push(ColRule::pred(tape, vec![succ("t"), v("j"), v("s")], copy));
        }
        // moved heads
        for (pred, head, mv) in [("H1", "i1", act.move1), ("H2", "i2", act.move2)] {
            match mv {
                Move::S => {
                    rules.push(ColRule::pred(pred, vec![succ("t"), v(head)], body.clone()));
                }
                Move::R => {
                    let mut b = body.clone();
                    b.push(ColLiteral::pred("INext", vec![v(head), v("inext")]));
                    rules.push(ColRule::pred(pred, vec![succ("t"), v("inext")], b));
                }
                Move::L => {
                    let mut b = body.clone();
                    b.push(ColLiteral::pred("INext", vec![v("iprev"), v(head)]));
                    rules.push(ColRule::pred(pred, vec![succ("t"), v("iprev")], b));
                    // pinned at square zero: stay
                    let mut b0 = body.clone();
                    b0.push(ColLiteral::pred("IsZero", vec![v(head)]));
                    rules.push(ColRule::pred(pred, vec![succ("t"), v(head)], b0));
                }
            }
        }
    }
    ColProgram::new(rules)
}

fn tape_sym_atom(s: &TapeSym) -> Atom {
    match s {
        TapeSym::Work(w) => work_atom(w),
        TapeSym::Dom(a) => *a,
    }
}

/// EDB facts for the compiled program: the encoded input on tape 1 at time
/// `t₀`, blank tape 2, initial heads/state, the initial index chain, the
/// `Exact` symbol table, and the non-halting state list. Each relation is
/// listed in `orders` when given (checked against `db`), canonically
/// otherwise.
pub fn prepare_col_input(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    orders: Option<&[Vec<Value>]>,
) -> Option<Database> {
    let tape = match orders {
        Some(orders) => encode_database_ordered(db, schema, orders),
        None => encode_database(db, schema),
    };
    let tape = tape.ok()?;
    let len = tape.len().max(1);
    let chain = uset_object::cons::singleton_chain(idx_seed(), len);
    let t0 = Value::Atom(time_seed());
    let mut out = Database::empty();

    let mut t1 = Instance::empty();
    let mut t2 = Instance::empty();
    for (i, idx) in chain.iter().enumerate() {
        let sym = tape
            .get(i)
            .map(tape_sym_atom)
            .unwrap_or_else(|| work_atom("_"));
        t1.insert(Value::Tuple(vec![
            t0.clone(),
            idx.clone(),
            Value::Atom(sym),
        ]));
        t2.insert(Value::Tuple(vec![
            t0.clone(),
            idx.clone(),
            Value::Atom(work_atom("_")),
        ]));
    }
    out.set("T1", t1);
    out.set("T2", t2);
    out.set(
        "H1",
        Instance::from_values([Value::Tuple(vec![t0.clone(), chain[0].clone()])]),
    );
    out.set(
        "H2",
        Instance::from_values([Value::Tuple(vec![t0.clone(), chain[0].clone()])]),
    );
    out.set(
        "S",
        Instance::from_values([Value::Tuple(vec![
            t0.clone(),
            Value::Atom(state_atom(m.start_state())),
        ])]),
    );
    out.set("Time", Instance::from_values([t0.clone()]));
    out.set("Idx", chain.iter().cloned().collect::<Instance>());
    out.set(
        "INext",
        chain
            .windows(2)
            .map(|w| Value::Tuple(vec![w[0].clone(), w[1].clone()]))
            .collect::<Instance>(),
    );
    out.set(
        "MaxIdx",
        Instance::from_values([Value::Tuple(vec![chain[len - 1].clone(), t0.clone()])]),
    );
    out.set("IsZero", Instance::from_values([chain[0].clone()]));
    let mut exact = Instance::empty();
    for w in m.work_symbols() {
        exact.insert(Value::Atom(work_atom(w)));
    }
    for c in m.constants() {
        exact.insert(Value::Atom(*c));
    }
    out.set("Exact", exact);
    out.set(
        "NonHalt",
        m.states()
            .iter()
            .filter(|q| q.as_str() != m.halt_state())
            .map(|q| Value::Atom(state_atom(q)))
            .collect::<Instance>(),
    );
    Some(out)
}

/// Extract the final tape-1 contents from the fixpoint: find the (unique)
/// time at which the halt state holds, order that time's cells by index
/// size, and decode. `None` = the machine got stuck (paper's `?`).
pub fn extract_output(m: &Gtm, state: &ColState, target: &Type) -> Option<Instance> {
    let halt = Value::Atom(state_atom(m.halt_state()));
    let halt_time = state.pred("S").iter().find_map(|row| {
        let items = row.as_tuple()?;
        (items.len() == 2 && items[1] == halt).then(|| items[0].clone())
    })?;
    let mut cells: Vec<(Value, Atom)> = Vec::new();
    for row in state.pred("T1").iter() {
        let items = row.as_tuple()?;
        if items.len() == 3 && items[0] == halt_time {
            cells.push((items[1].clone(), items[2].as_atom()?));
        }
    }
    cells.sort_by_key(|(idx, _)| idx.size());
    let mut tape: Vec<TapeSym> = cells
        .into_iter()
        .map(|(_, sym)| match sym.name() {
            Some(name) if name.starts_with("gtm:w:") => TapeSym::work(&name["gtm:w:".len()..]),
            _ => TapeSym::Dom(sym),
        })
        .collect();
    while tape.last() == Some(&TapeSym::blank()) {
        tape.pop();
    }
    uset_gtm::encode::decode_instance(&tape)
        .filter(|inst| inst.check_rtype(&target.to_rtype()).is_ok())
}

/// Compile, prepare, run under the **stratified** semantics, and decode.
/// `Ok(None)` is the undefined output (stuck machine or unparsable tape).
pub fn run_col_compiled(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    target: &Type,
    config: &ColConfig,
) -> Result<Option<Instance>, ColEvalError> {
    let prog = compile_gtm_to_col(m);
    let Some(edb) = prepare_col_input(m, db, schema, None) else {
        return Ok(None);
    };
    let state = stratified(&prog, &edb, config)?;
    Ok(extract_output(m, &state, target))
}

/// Same, under the **inflationary** semantics — Theorem 5.1 makes both
/// C-equivalent, and on this construction they agree literally (the
/// program is negation-free on IDB).
pub fn run_col_compiled_inflationary(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    target: &Type,
    config: &ColConfig,
) -> Result<Option<Instance>, ColEvalError> {
    let prog = compile_gtm_to_col(m);
    let Some(edb) = prepare_col_input(m, db, schema, None) else {
        return Ok(None);
    };
    let state = uset_deductive::col::eval::inflationary(&prog, &edb, config)?;
    Ok(extract_output(m, &state, target))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_deductive::col::stratify::stratify;
    use uset_gtm::machines::{identity_gtm, swap_pairs_gtm};
    use uset_gtm::query::run_gtm_query;
    use uset_object::atom;

    fn cfg() -> ColConfig {
        ColConfig {
            max_rounds: 10_000,
            max_facts: 1_000_000,
        }
    }

    fn db1(rows: Vec<Vec<Value>>, arity: usize) -> (Database, Schema, Type) {
        let mut db = Database::empty();
        db.set("R", Instance::from_rows(rows));
        (db, Schema::flat([("R", arity)]), Type::atomic_tuple(arity))
    }

    #[test]
    fn compiled_program_is_stratifiable() {
        let prog = compile_gtm_to_col(&swap_pairs_gtm());
        let strata = stratify(&prog).expect("negation only against EDB");
        // everything lives in stratum 0: no IDB negation
        assert!(strata.values().all(|&s| s == 0));
    }

    #[test]
    fn col_identity_matches_direct_run() {
        let m = identity_gtm();
        let (db, schema, t) = db1(vec![vec![atom(1), atom(2)]], 2);
        let direct = run_gtm_query(&m, &db, &schema, &t, 100_000).unwrap();
        let col = run_col_compiled(&m, &db, &schema, &t, &cfg()).unwrap();
        assert_eq!(direct, col);
    }

    #[test]
    fn col_swap_matches_direct_run() {
        let m = swap_pairs_gtm();
        let (db, schema, t) = db1(vec![vec![atom(1), atom(2)]], 2);
        let direct = run_gtm_query(&m, &db, &schema, &t, 100_000).unwrap();
        let col = run_col_compiled(&m, &db, &schema, &t, &cfg()).unwrap();
        assert_eq!(direct, col);
        assert_eq!(col, Some(Instance::from_rows([[atom(2), atom(1)]])));
    }

    #[test]
    fn stratified_and_inflationary_agree_on_the_construction() {
        let m = swap_pairs_gtm();
        let (db, schema, t) = db1(vec![vec![atom(3), atom(4)]], 2);
        let s = run_col_compiled(&m, &db, &schema, &t, &cfg()).unwrap();
        let i = run_col_compiled_inflationary(&m, &db, &schema, &t, &cfg()).unwrap();
        assert_eq!(s, i);
        assert!(s.is_some());
    }

    #[test]
    fn stuck_machine_yields_undefined() {
        let m = swap_pairs_gtm();
        let (db, schema, t) = db1(vec![vec![atom(1)]], 1);
        let col = run_col_compiled(&m, &db, &schema, &t, &cfg()).unwrap();
        assert_eq!(col, None);
    }
}
