//! Section 5's Bancilhon–Khoshafian counterexamples, run live:
//! Example 5.2 (the "join" rule computes a cross product), the
//! Proposition 5.3 derivation transformation, and Example 5.4 (the
//! chain-to-list program diverges through ever-deeper ⊥-lists).
//!
//! ```sh
//! cargo run --example bk_limitations
//! USET_TRACE=json:/tmp/bk.jsonl cargo run --example bk_limitations
//! ```

use std::collections::BTreeMap;
use untyped_sets::bk::eval::{
    eval_fixpoint_governed, eval_rounds_governed, state_from, BkConfig, BkError,
};
use untyped_sets::bk::limits::{natural_join, search_join_programs, transform_derivation};
use untyped_sets::bk::{BkObject, BkProgram};
use untyped_sets::guard::{Budget, Governor};
use untyped_sets::trace::TraceHandle;

fn pair(a: &'static str, x: BkObject, b: &'static str, y: BkObject) -> BkObject {
    BkObject::tuple([(a, x), (b, y)])
}

/// Exit cleanly with the structured exhaustion report when an env budget
/// (`USET_MAX_*`) trips — the CI tiny-budget smoke job asserts this path.
fn governed_exit(report: impl std::fmt::Display) -> ! {
    println!("resource-governed exit: {report}");
    std::process::exit(0)
}

fn main() {
    // one shared sink for both runs: USET_TRACE=off|mem|json:<path>
    let trace = TraceHandle::from_env();

    // ---- Example 5.2 -----------------------------------------------------
    let state = state_from([
        (
            "R1",
            vec![pair("A", BkObject::atom(1), "B", BkObject::atom(2))],
        ),
        (
            "R2",
            vec![
                pair("B", BkObject::atom(2), "C", BkObject::atom(3)),
                pair("B", BkObject::atom(4), "C", BkObject::atom(5)),
            ],
        ),
    ]);
    let prog = BkProgram::join_rule();
    let cfg = BkConfig::default();
    let governor = Governor::new(Budget::from_env().min(cfg.budget())).with_trace(trace.clone());
    let (out, derivations) = match eval_fixpoint_governed(&prog, &state, &cfg, &governor) {
        Ok(r) => r,
        Err(BkError::Exhausted(report)) => governed_exit(report),
    };
    println!("Example 5.2 — R{{[A:x,C:z]}} ← R1{{[A:x,B:y]}}, R2{{[B:y,C:z]}}");
    println!("  derived R:");
    for o in &out["R"] {
        println!("    {o}");
    }
    let spurious = pair("A", BkObject::atom(1), "C", BkObject::atom(5));
    assert!(out["R"].contains(&spurious));
    println!("  → [A:1, C:5] appears (via y ↦ ⊥): the rule computes π₁R₁ × π₂R₂, not the join\n");

    // ---- Proposition 5.3: the derivation transformation ------------------
    let join_fact = pair("A", BkObject::atom(1), "C", BkObject::atom(3));
    let d = derivations
        .iter()
        .find(|d| d.fact == join_fact)
        .expect("the join tuple has a derivation");
    let mut replace = BTreeMap::new();
    replace.insert(BkObject::atom(2), BkObject::Bottom); // 2 ↦ ⊥
    replace.insert(BkObject::atom(3), BkObject::atom(5)); // 3 ↦ 5
    let transformed = transform_derivation(&prog, &state, d, &replace)
        .expect("the transformed derivation is still valid");
    println!("Proposition 5.3 — transform the derivation of {join_fact}:");
    println!("  bindings 2↦⊥, 3↦5 re-derive {transformed}");
    let r1: Vec<BkObject> = state["R1"].iter().cloned().collect();
    let r2: Vec<BkObject> = state["R2"].iter().cloned().collect();
    assert!(!natural_join(&r1, &r2).contains(&transformed));
    println!("  which is NOT in R1 ⋈ R2 — no BK query computes the join");
    let examined = search_join_programs().unwrap();
    println!("  (exhaustive check: none of {examined} candidate single-rule programs does)\n");

    // ---- Example 5.4 ------------------------------------------------------
    let dollar = BkObject::Atom(untyped_sets::object::Atom::named("$"));
    let chain_prog = BkProgram::chain_to_list(dollar.clone());
    let chain_state = state_from([(
        "S",
        vec![
            pair("A", dollar.clone(), "B", BkObject::atom(1)),
            pair("B", BkObject::atom(2), "A", BkObject::atom(1)), // chain 1→2 stored as [A:1,B:2]
        ],
    )]);
    println!("Example 5.4 — the chain→list program:");
    let cfg = BkConfig {
        max_rounds: 5,
        max_facts: 100_000,
        ..BkConfig::default()
    };
    let governor = Governor::new(Budget::from_env().min(cfg.budget())).with_trace(trace.clone());
    let (st, _, converged) = match eval_rounds_governed(&chain_prog, &chain_state, &cfg, &governor)
    {
        Ok(r) => r,
        Err(BkError::Exhausted(report)) => governed_exit(report),
    };
    assert!(!converged);
    let mut sample: Vec<&BkObject> = st["LIST"].iter().collect();
    sample.sort_by_key(|o| o.size());
    println!(
        "  after 5 rounds LIST holds {} facts; deepest:",
        sample.len()
    );
    for o in sample.iter().rev().take(3) {
        println!("    {o}");
    }
    println!("  the ⊥-lists keep growing — the fixpoint is infinite, the output is `?`");
}
