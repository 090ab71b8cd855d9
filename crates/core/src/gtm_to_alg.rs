//! Theorem 4.1(b): compile a generic Turing machine into `ALG+while`.
//!
//! The compiled program is **powerset-free** and contains a **single,
//! unnested** `while` loop — witnessing both the `−powerset` and the
//! `unnested-while` clauses of the theorem. The three ingredients of the
//! paper's proof appear as follows:
//!
//! * **(b) unbounded indices** — tape squares are addressed by the
//!   singleton-nesting chain `a; {a}; {{a}}; …` where `a` is the constant
//!   `gtm:idx0`; the loop body extends the chain by one element per
//!   simulated step via `singleton(LAST)`, so the tape can grow without
//!   inventing atoms. (The paper's part (b) uses the von Neumann chain
//!   `a; {a}; {a,{a}}; …`, whose elements double in size per step; since
//!   the successor relation `SUCC` is materialized anyway, any strictly
//!   ordered family of distinct constructible objects serves, and the
//!   linear-size chain — the one the paper itself uses in Theorem 5.1 —
//!   keeps the simulation polynomial.)
//! * **(c) step simulation** — the transition templates become a constant
//!   8-column relation `DELTA`; one loop iteration joins `DELTA` against
//!   the current state and the two scanned squares, with the
//!   generic-template matching (`α`/`β`) expressed as selection predicates
//!   over membership in the constant set `W ∪ C`.
//! * **(a) input listing** — the enumeration of the input instance onto
//!   the tape is produced by [`prepare_gtm_input`] (the paper builds it in
//!   tsALG; the construction is routine and elided here — DESIGN.md §5),
//!   and order-independence is checked by running the compiled program
//!   under every enumeration order ([`run_compiled_all_orders`]), the
//!   harness-level equivalent of the paper's `PERMS` tagging column.

use uset_algebra::{eval_program, EvalConfig, EvalError, Expr, Operand, Pred, Program, Stmt};
use uset_gtm::encode::{all_orders, encode_database, encode_database_ordered};
use uset_gtm::gtm::{Gtm, SymOut, SymPat, TapeSym};
use uset_object::cons::singleton_chain;
use uset_object::{Atom, Database, Instance, Schema, Type, Value};

/// The constant seed of the tape-index chain.
pub fn idx_seed() -> Atom {
    Atom::named("gtm:idx0")
}

fn work_atom(w: &str) -> Atom {
    Atom::named(&format!("gtm:w:{w}"))
}

fn state_atom(q: &str) -> Atom {
    Atom::named(&format!("gtm:q:{q}"))
}

fn alpha_marker() -> Atom {
    Atom::named("gtm:alpha")
}

fn beta_marker() -> Atom {
    Atom::named("gtm:beta")
}

fn move_atom(m: uset_gtm::gtm::Move) -> Atom {
    use uset_gtm::gtm::Move;
    Atom::named(match m {
        Move::L => "gtm:m:L",
        Move::R => "gtm:m:R",
        Move::S => "gtm:m:S",
    })
}

fn pat_atom(p: &SymPat) -> Atom {
    match p {
        SymPat::Work(w) => work_atom(w),
        SymPat::Const(c) => *c,
        SymPat::Alpha => alpha_marker(),
        SymPat::Beta => beta_marker(),
    }
}

fn out_atom(o: &SymOut) -> Atom {
    match o {
        SymOut::Work(w) => work_atom(w),
        SymOut::Const(c) => *c,
        SymOut::Alpha => alpha_marker(),
        SymOut::Beta => beta_marker(),
    }
}

fn tape_sym_atom(s: &TapeSym) -> Atom {
    match s {
        TapeSym::Work(w) => work_atom(w),
        TapeSym::Dom(a) => *a,
    }
}

/// The transition table of `m` as a constant 8-column relation
/// `[q, r1, r2, q', w1, w2, m1, m2]`.
fn delta_relation(m: &Gtm) -> Instance {
    let mut rows = Vec::new();
    for ((from, r1, r2), action) in m.transitions() {
        rows.push(vec![
            Value::Atom(state_atom(from)),
            Value::Atom(pat_atom(r1)),
            Value::Atom(pat_atom(r2)),
            Value::Atom(state_atom(&action.to)),
            Value::Atom(out_atom(&action.write1)),
            Value::Atom(out_atom(&action.write2)),
            Value::Atom(move_atom(action.move1)),
            Value::Atom(move_atom(action.move2)),
        ]);
    }
    Instance::from_rows(rows)
}

/// The exact-match symbol set `W ∪ C` as a set object (symbols matching
/// only themselves; everything else is generic).
fn exact_set(m: &Gtm) -> Value {
    let mut s: std::collections::BTreeSet<Value> = m
        .work_symbols()
        .iter()
        .map(|w| Value::Atom(work_atom(w)))
        .collect();
    s.extend(m.constants().iter().map(|c| Value::Atom(*c)));
    Value::Set(s)
}

fn single(a: Atom) -> Expr {
    Expr::const_value(Value::Atom(a))
}

/// Head-update statements for one tape. Appends statements computing
/// `h_out` from head variable `h`, SUCC, and the match row `M` using the
/// move column `move_col`.
fn head_update(stmts: &mut Vec<Stmt>, tape: &str, h: &str, move_col: usize) {
    let right = Expr::var("SUCC")
        .product(Expr::var(h))
        .select(Pred::eq_cols(0, 2))
        .project([1]);
    let left = Expr::var("SUCC")
        .product(Expr::var(h))
        .select(Pred::eq_cols(1, 2))
        .project([0]);
    let left_var = format!("left{tape}");
    let keep_var = format!("keep{tape}");
    stmts.push(Stmt::assign(&left_var, left));
    // keep = h if there is no predecessor (head pinned at square 0)
    stmts.push(Stmt::assign(
        &keep_var,
        Expr::var(h).diff(Expr::var(h).product(Expr::var(&left_var)).project([0])),
    ));
    let flag = |mv: &str| {
        Expr::var("M")
            .select(Pred::eq_const(move_col, Value::Atom(Atom::named(mv))))
            .project([move_col])
    };
    stmts.push(Stmt::assign(format!("flagL{tape}"), flag("gtm:m:L")));
    stmts.push(Stmt::assign(format!("flagR{tape}"), flag("gtm:m:R")));
    stmts.push(Stmt::assign(format!("flagS{tape}"), flag("gtm:m:S")));
    let gated = |value: Expr, flag_var: String| value.product(Expr::var(flag_var)).project([0]);
    let h_l = gated(
        Expr::var(&left_var).union(Expr::var(&keep_var)),
        format!("flagL{tape}"),
    );
    let h_r = gated(right, format!("flagR{tape}"));
    let h_s = gated(Expr::var(h), format!("flagS{tape}"));
    stmts.push(Stmt::assign(h, h_l.union(h_r).union(h_s)));
}

/// Tape-update statements: remove the scanned cell, insert the written one.
fn tape_update(stmts: &mut Vec<Stmt>, tape: &str, head_col: usize, scan_col: usize) {
    // written symbol: α ⇒ s1, β ⇒ s2, otherwise the literal output symbol
    let w_col = if tape == "1" { 4 } else { 5 };
    let from_alpha = Expr::var("M")
        .select(Pred::eq_const(w_col, Value::Atom(alpha_marker())))
        .project([head_col, 10]);
    let from_beta = Expr::var("M")
        .select(Pred::eq_const(w_col, Value::Atom(beta_marker())))
        .project([head_col, 12]);
    let literal = Expr::var("M")
        .select(
            Pred::eq_const(w_col, Value::Atom(alpha_marker()))
                .not()
                .and(Pred::eq_const(w_col, Value::Atom(beta_marker())).not()),
        )
        .project([head_col, w_col]);
    stmts.push(Stmt::assign(
        format!("NEW{tape}"),
        from_alpha.union(from_beta).union(literal),
    ));
    let _ = scan_col;
    stmts.push(Stmt::assign(
        format!("T{tape}"),
        Expr::var(format!("T{tape}"))
            .diff(Expr::var(format!("CUR{tape}")))
            .union(Expr::var(format!("NEW{tape}"))),
    ));
}

/// Compile `m` into an `ALG+while` program.
///
/// The program reads the prepared input relations `T1_init`, `CHAIN_init`,
/// `SUCC_init`, `LAST_init` (see [`prepare_gtm_input`]) and leaves in `ANS`
/// the final tape-1 relation `[index, symbol]`, which
/// [`decode_tape_relation`] turns back into an instance. It evaluates to
/// the undefined value `?` when the machine gets stuck.
pub fn compile_gtm(m: &Gtm) -> Program {
    let blank = work_atom("_");
    let halt = state_atom(m.halt_state());
    let exact = exact_set(m);

    let mut stmts = vec![
        Stmt::assign("T1", Expr::var("T1_init")),
        Stmt::assign("CHAIN", Expr::var("CHAIN_init")),
        Stmt::assign("SUCC", Expr::var("SUCC_init")),
        Stmt::assign("LAST", Expr::var("LAST_init")),
        Stmt::assign("T2", Expr::var("CHAIN").product(single(blank))),
        Stmt::assign("H1", single(idx_seed())),
        Stmt::assign("H2", single(idx_seed())),
        Stmt::assign("ST", single(state_atom(m.start_state()))),
        Stmt::assign("DELTA", Expr::constant(delta_relation(m))),
        Stmt::assign("COND", Expr::var("ST").diff(single(halt))),
    ];

    // (b) extend the index chain by one element: singleton(LAST) = {last}
    // is the next singleton-nesting element — untyped sets at work. (The
    // paper's a;{a};{a,{a}} von Neumann chain works identically but its
    // elements double in size per step; with SUCC materialized, the
    // linear-size singleton chain is the right representative.)
    let mut body = vec![
        Stmt::assign("NEWIDX", Expr::var("LAST").singleton()),
        Stmt::assign(
            "SUCC",
            Expr::var("SUCC").union(Expr::var("LAST").product(Expr::var("NEWIDX"))),
        ),
        Stmt::assign("CHAIN", Expr::var("CHAIN").union(Expr::var("NEWIDX"))),
        Stmt::assign("LAST", Expr::var("NEWIDX")),
    ];
    for t in ["T1", "T2"] {
        body.push(Stmt::assign(
            t,
            Expr::var(t).union(Expr::var("NEWIDX").product(single(blank))),
        ));
    }
    // (c) scan the two squares under the heads: CURt = [h, s]
    for (t, h) in [("1", "H1"), ("2", "H2")] {
        body.push(Stmt::assign(
            format!("CUR{t}"),
            Expr::var(format!("T{t}"))
                .product(Expr::var(h))
                .select(Pred::eq_cols(0, 2))
                .project([0, 1]),
        ));
    }
    // match the transition table:
    //   cols 0..=7 DELTA, 8 state, 9 h1, 10 s1, 11 h2, 12 s2
    let exact_lit = Operand::Lit(exact);
    let m1 = Pred::eq_cols(1, 10).or(Pred::eq_const(1, Value::Atom(alpha_marker()))
        .and(Pred::Member(Operand::Col(10), exact_lit.clone()).not()));
    let m2 = Pred::eq_cols(2, 12)
        .or(Pred::eq_const(2, Value::Atom(alpha_marker()))
            .and(Pred::eq_cols(12, 10))
            .and(Pred::Member(Operand::Col(12), exact_lit.clone()).not()))
        .or(Pred::eq_const(2, Value::Atom(beta_marker()))
            .and(Pred::Member(Operand::Col(12), exact_lit).not())
            .and(Pred::eq_cols(12, 10).not()));
    body.push(Stmt::assign(
        "M",
        Expr::var("DELTA")
            .product(Expr::var("ST"))
            .product(Expr::var("CUR1"))
            .product(Expr::var("CUR2"))
            .select(Pred::eq_cols(0, 8).and(m1).and(m2)),
    ));
    // write both tapes, then move both heads, then switch state
    tape_update(&mut body, "1", 9, 10);
    tape_update(&mut body, "2", 11, 12);
    head_update(&mut body, "1", "H1", 6);
    head_update(&mut body, "2", "H2", 7);
    body.push(Stmt::assign("ST", Expr::var("M").project([3])));
    body.push(Stmt::assign(
        "COND",
        Expr::var("ST").diff(single(state_atom(m.halt_state()))),
    ));

    stmts.push(Stmt::while_loop("TFINAL", "T1", "COND", body));
    // halting guard: `?` unless the machine really reached the halt state
    stmts.push(Stmt::assign(
        "GUARD",
        Expr::var("ST")
            .intersect(single(state_atom(m.halt_state())))
            .undefine(),
    ));
    stmts.push(Stmt::assign(
        uset_algebra::program::ANS,
        Expr::var("TFINAL")
            .product(Expr::var("GUARD"))
            .project([0, 1]),
    ));
    Program::new(stmts)
}

/// Build the prepared input database for the compiled program: the input
/// listing as a `[chain-index, symbol-atom]` relation plus the initial
/// chain, successor relation and last element. Each relation is listed in
/// `orders` when given (checked against `db`), canonically otherwise.
pub fn prepare_gtm_input(
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
    let chain = singleton_chain(idx_seed(), len + 1);
    let mut t1 = Instance::empty();
    for (i, sym) in tape.iter().enumerate() {
        t1.insert(Value::Tuple(vec![
            chain[i].clone(),
            Value::Atom(tape_sym_atom(sym)),
        ]));
    }
    // blank-fill unused initial squares (the empty-input corner case)
    for idx in chain.iter().take(len).skip(tape.len()) {
        t1.insert(Value::Tuple(vec![idx.clone(), Value::Atom(work_atom("_"))]));
    }
    let mut succ = Instance::empty();
    for w in chain.windows(2) {
        succ.insert(Value::Tuple(vec![w[0].clone(), w[1].clone()]));
    }
    let mut out = Database::empty();
    out.set("T1_init", t1);
    out.set(
        "CHAIN_init",
        chain.iter().take(len).cloned().collect::<Instance>(),
    );
    out.set("SUCC_init", succ);
    out.set("LAST_init", Instance::from_values([chain[len - 1].clone()]));
    Some(out)
}

/// Decode a final `[index, symbol]` relation back into an instance:
/// indices sort by structural size (strictly increasing along the chain),
/// work atoms map back to punctuation, and the resulting listing is parsed.
pub fn decode_tape_relation(inst: &Instance) -> Option<Instance> {
    let mut cells: Vec<(&Value, Atom)> = Vec::new();
    for row in inst.iter() {
        let items = row.as_tuple()?;
        if items.len() != 2 {
            return None;
        }
        cells.push((&items[0], items[1].as_atom()?));
    }
    cells.sort_by_key(|(idx, _)| idx.size());
    let mut tape: Vec<TapeSym> = Vec::with_capacity(cells.len());
    for (_, sym) in cells {
        match sym.name() {
            Some(name) if name.starts_with("gtm:w:") => {
                tape.push(TapeSym::work(&name["gtm:w:".len()..]));
            }
            _ => tape.push(TapeSym::Dom(sym)),
        }
    }
    while tape.last() == Some(&TapeSym::blank()) {
        tape.pop();
    }
    uset_gtm::encode::decode_instance(&tape)
}

/// Convenience: compile, prepare (canonical order), run, decode.
/// `Ok(None)` is the undefined output.
pub fn run_compiled(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    target: &Type,
    config: &EvalConfig,
) -> Result<Option<Instance>, EvalError> {
    run_prepared(m, prepare_gtm_input(db, schema, None), target, config)
}

/// Run the compiled program under a specific enumeration order.
pub fn run_compiled_ordered(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    orders: &[Vec<Value>],
    target: &Type,
    config: &EvalConfig,
) -> Result<Option<Instance>, EvalError> {
    let input = prepare_gtm_input(db, schema, Some(orders));
    run_prepared(m, input, target, config)
}

/// Run the compiled program on a prepared input (`None`: an input that
/// could not be encoded, the undefined output) and decode.
fn run_prepared(
    m: &Gtm,
    input: Option<Database>,
    target: &Type,
    config: &EvalConfig,
) -> Result<Option<Instance>, EvalError> {
    let prog = compile_gtm(m);
    let Some(input) = input else {
        return Ok(None);
    };
    match eval_program(&prog, &input, config) {
        Ok(t1) => {
            Ok(decode_tape_relation(&t1)
                .filter(|inst| inst.check_rtype(&target.to_rtype()).is_ok()))
        }
        Err(EvalError::Undefined) => Ok(None),
        Err(e) => Err(e),
    }
}

/// The harness-level `PERMS` construction: run the compiled program under
/// *every* enumeration order and require agreement. Factorial cost — small
/// inputs only.
#[allow(clippy::type_complexity, clippy::result_large_err)]
pub fn run_compiled_all_orders(
    m: &Gtm,
    db: &Database,
    schema: &Schema,
    target: &Type,
    config: &EvalConfig,
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
        let out = run_compiled_ordered(m, db, schema, &orders, target, config).unwrap_or(None);
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
    use uset_gtm::machines::{identity_gtm, nonempty_flag_gtm, parity_gtm, swap_pairs_gtm};
    use uset_gtm::query::run_gtm_query;
    use uset_object::atom;

    fn cfg() -> EvalConfig {
        EvalConfig {
            fuel: 10_000_000,
            max_instance_len: 1_000_000,
        }
    }

    fn db1(rows: Vec<Vec<Value>>, arity: usize) -> (Database, Schema, Type) {
        let mut db = Database::empty();
        db.set("R", Instance::from_rows(rows));
        (db, Schema::flat([("R", arity)]), Type::atomic_tuple(arity))
    }

    #[test]
    fn compiled_program_is_in_the_right_fragment() {
        let prog = compile_gtm(&identity_gtm());
        assert!(
            prog.is_powerset_free(),
            "Theorem 4.1(b): no powerset needed"
        );
        assert!(prog.is_unnested_while(), "single unnested while");
        assert!(prog.assigns_ans());
        prog.check_def_before_use(&["T1_init", "CHAIN_init", "SUCC_init", "LAST_init"])
            .unwrap();
    }

    #[test]
    fn compiled_identity_matches_direct_run() {
        let m = identity_gtm();
        let (db, schema, t) = db1(vec![vec![atom(1), atom(2)]], 2);
        let direct = run_gtm_query(&m, &db, &schema, &t, 100_000).unwrap();
        let compiled = run_compiled(&m, &db, &schema, &t, &cfg()).unwrap();
        assert_eq!(direct, compiled);
        assert_eq!(compiled, Some(db.get("R")));
    }

    #[test]
    fn compiled_swap_matches_direct_run() {
        let m = swap_pairs_gtm();
        let (db, schema, t) = db1(vec![vec![atom(1), atom(2)], vec![atom(3), atom(3)]], 2);
        let direct = run_gtm_query(&m, &db, &schema, &t, 100_000).unwrap();
        let compiled = run_compiled(&m, &db, &schema, &t, &cfg()).unwrap();
        assert_eq!(direct, compiled);
        assert_eq!(
            compiled,
            Some(Instance::from_rows([
                [atom(2), atom(1)],
                [atom(3), atom(3)]
            ]))
        );
    }

    #[test]
    fn compiled_parity_matches_direct_run_across_sizes() {
        let c = Atom::named("alg-parity-c");
        let m = parity_gtm(c);
        for n in 0..4u64 {
            let rows: Vec<Vec<Value>> = (0..n).map(|i| vec![atom(i)]).collect();
            let (db, schema, t) = db1(rows, 1);
            let direct = run_gtm_query(&m, &db, &schema, &t, 1_000_000).unwrap();
            let compiled = run_compiled(&m, &db, &schema, &t, &cfg()).unwrap();
            assert_eq!(direct, compiled, "n = {n}");
        }
    }

    #[test]
    fn compiled_stuck_machine_is_undefined() {
        // swap on unary input sticks; the compiled program must yield `?`
        let m = swap_pairs_gtm();
        let (db, schema, t) = db1(vec![vec![atom(1)]], 1);
        let compiled = run_compiled(&m, &db, &schema, &t, &cfg()).unwrap();
        assert_eq!(compiled, None);
    }

    #[test]
    fn compiled_runs_are_order_independent() {
        let c = Atom::named("alg-flag-c");
        let m = nonempty_flag_gtm(c);
        let (db, schema, _) = db1(vec![vec![atom(1), atom(2)], vec![atom(3), atom(4)]], 2);
        let out = run_compiled_all_orders(&m, &db, &schema, &Type::atomic_tuple(1), &cfg())
            .expect("order independence");
        assert_eq!(out, Some(Instance::from_rows([[Value::Atom(c)]])));
    }

    #[test]
    fn empty_input_handled() {
        let m = identity_gtm();
        let (db, schema, t) = db1(vec![], 2);
        let compiled = run_compiled(&m, &db, &schema, &t, &cfg()).unwrap();
        assert_eq!(compiled, Some(Instance::empty()));
    }
}
