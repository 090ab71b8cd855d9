//! The full Section 3 → Section 4/5 pipeline: define a generic Turing
//! machine, run it directly as a query, then compile it to an ALG+while
//! program (Theorem 4.1b) and to a stratified COL program (Theorem 5.1)
//! and watch all three agree.
//!
//! ```sh
//! cargo run --example gtm_pipeline
//! ```

use untyped_sets::algebra::EvalConfig;
use untyped_sets::core::gtm_to_alg::{compile_gtm, run_compiled, run_compiled_all_orders};
use untyped_sets::core::gtm_to_col::run_col_compiled;
use untyped_sets::deductive::col::eval::ColConfig;
use untyped_sets::gtm::machines::swap_pairs_gtm;
use untyped_sets::gtm::query::{run_gtm_query_governed, GtmQueryError};
use untyped_sets::guard::{Budget, Governor};
use untyped_sets::object::{atom, Database, Instance, Schema, Type};
use untyped_sets::trace::TraceHandle;

/// Exit cleanly with the structured exhaustion report when an env budget
/// (`USET_MAX_*`) trips — the CI tiny-budget smoke job asserts this path.
fn governed_exit(report: impl std::fmt::Display) -> ! {
    println!("resource-governed exit: {report}");
    std::process::exit(0)
}

fn main() {
    // The pair-swap machine: {[a,b]} ↦ {[b,a]}, a real user of the
    // GTM's α/β cross-tape transitions.
    let m = swap_pairs_gtm();
    println!(
        "GTM: {} states, {} transition templates",
        m.states().len(),
        m.template_count()
    );

    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows([[atom(1), atom(2)], [atom(7), atom(7)]]),
    );
    let schema = Schema::flat([("R", 2)]);
    let target = Type::atomic_tuple(2);
    println!("input R = {}", db.get("R"));

    // 1. direct GTM execution over the encoded listing, traced by
    //    USET_TRACE=off|mem|json:<path>
    let budget = Budget::from_env().min(Budget::unlimited().with_steps(100_000));
    let governor = Governor::new(budget).with_trace(TraceHandle::from_env());
    let direct = match run_gtm_query_governed(&m, &db, &schema, &target, &governor) {
        Ok(out) => out.expect("swap halts"),
        Err(GtmQueryError::Exhausted(report)) => governed_exit(report),
        Err(e) => panic!("{e}"),
    };
    println!("direct GTM run:        {direct}");

    // 2. Theorem 4.1(b): the machine compiled into ALG+while
    let prog = compile_gtm(&m);
    println!(
        "compiled algebra program: {} top-level statements, powerset-free: {}, unnested while: {}",
        prog.stmts.len(),
        prog.is_powerset_free(),
        prog.is_unnested_while()
    );
    let cfg = EvalConfig {
        fuel: 10_000_000,
        max_instance_len: 1_000_000,
    };
    let via_algebra = run_compiled(&m, &db, &schema, &target, &cfg)
        .unwrap()
        .expect("compiled program halts");
    println!("via ALG+while:         {via_algebra}");

    // 3. Theorem 5.1: the machine compiled into stratified COL, keeping
    //    the whole computation history
    let via_col = run_col_compiled(
        &m,
        &db,
        &schema,
        &target,
        &ColConfig {
            max_rounds: 10_000,
            max_facts: 1_000_000,
        },
    )
    .unwrap()
    .expect("COL fixpoint reaches the halting configuration");
    println!("via stratified COL:    {via_col}");

    assert_eq!(direct, via_algebra);
    assert_eq!(direct, via_col);

    // 4. input-order independence, checked exhaustively (the harness-level
    //    PERMS of the Theorem 4.1(b) proof)
    let common = run_compiled_all_orders(&m, &db, &schema, &target, &cfg)
        .expect("all enumeration orders agree");
    assert_eq!(common, Some(direct));
    println!("order-independence verified over all enumeration orders ✓");
}
