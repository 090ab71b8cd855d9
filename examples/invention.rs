//! Section 6: untyped sets = invention. Runs the invention semantics on
//! real queries, Example 6.2's halting query against real Turing
//! machines, and the Theorem 6.4 terminal-invention search.
//!
//! ```sh
//! cargo run --example invention
//! ```

use untyped_sets::calculus::{
    eval_fi_governed, eval_terminal_governed, eval_with_invention, strip_invented, CalcConfig,
    CalcError, CalcQuery, CalcTerm, Formula, InventionOutcome,
};
use untyped_sets::core::halting::{f_halt_fi, f_halt_terminal, TerminalHalting};
use untyped_sets::gtm::tm::{always_halt_machine, halt_iff_even_machine, never_halt_machine};
use untyped_sets::guard::{Budget, Governor};
use untyped_sets::object::{atom, Atom, Database, Instance, RType};
use untyped_sets::trace::TraceHandle;

/// Exit cleanly with the structured exhaustion report when an env budget
/// (`USET_MAX_*`) trips — the CI tiny-budget smoke job asserts this path.
fn governed_exit(report: impl std::fmt::Display) -> ! {
    println!("resource-governed exit: {report}");
    std::process::exit(0)
}

fn db_of_size(n: u64) -> Database {
    let mut db = Database::empty();
    db.set("R", Instance::from_rows((0..n).map(|i| [atom(i)])));
    db
}

fn main() {
    let cfg = CalcConfig::default();

    // --- invention on a real calculus query --------------------------------
    // Q = { x/U | x ≈ x }: under Q|ⁱ the i invented atoms join the answer
    let q = CalcQuery::new(
        "x",
        RType::Atomic,
        Formula::Eq(CalcTerm::var("x"), CalcTerm::var("x")),
    );
    let db = db_of_size(2);
    for i in [0usize, 1, 3] {
        let raw = eval_with_invention(&q, &db, i, &cfg).unwrap();
        println!(
            "Q|^{i}[d]: {} objects ({} after stripping invented values)",
            raw.len(),
            strip_invented(&raw).len()
        );
    }
    // USET_TRACE=off|mem|json:<path> traces the two governed searches
    let trace = TraceHandle::from_env();
    let governor = Governor::new(Budget::from_env().min(cfg.budget())).with_trace(trace);
    let fi = match eval_fi_governed(&q, &db, 3, &cfg, &governor) {
        Ok(fi) => fi,
        Err(CalcError::Exhausted(report)) => governed_exit(report),
        Err(e) => panic!("{e}"),
    };
    println!("Q^fi (budget 3) = {fi}");
    match eval_terminal_governed(&q, &db, 5, &cfg, &governor) {
        Err(CalcError::Exhausted(report)) => governed_exit(report),
        Err(e) => panic!("{e}"),
        Ok(outcome) => match outcome {
            InventionOutcome::Defined { n, answer } => {
                println!("Q^ti defined at n = {n}, answer {answer}\n")
            }
            InventionOutcome::Undefined => println!("Q^ti undefined\n"),
        },
    }

    // --- Example 6.2: f_halt under finite invention -------------------------
    let c = Atom::named("example-c");
    println!("Example 6.2 — f_halt(d) = {{[c]}} iff M halts on a^|d|:");
    for (name, m) in [
        ("always-halt", always_halt_machine()),
        ("never-halt", never_halt_machine()),
        ("halt-iff-even", halt_iff_even_machine()),
    ] {
        print!("  M = {name:14}");
        for n in 0..4u64 {
            let out = f_halt_fi(&m, &db_of_size(n), c, 50);
            print!(" |d|={n}:{}", if out.is_empty() { "∅   " } else { "{[c]}" });
        }
        println!();
    }
    println!("  finite invention approximates f_halt from below (r.e.); the complement");
    println!("  f_h̄alt needs countable invention and never shows a finite witness.\n");

    // --- Theorem 6.4: terminal invention ------------------------------------
    println!("Theorem 6.4 — the same query under *terminal* invention:");
    let m = halt_iff_even_machine();
    for n in 0..5u64 {
        match f_halt_terminal(&m, &db_of_size(n), c, 200) {
            TerminalHalting::Defined { n: budget, answer } => {
                println!("  |d|={n}: defined at invention budget {budget}, answer {answer}")
            }
            TerminalHalting::Undefined => {
                println!("  |d|={n}: undefined (the machine never halts — a genuine `?`)")
            }
        }
    }
    println!("  terminal invention is exactly C-equivalent: defined precisely on halting runs.");
}
