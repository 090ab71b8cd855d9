//! # uset-deductive — DATALOG¬ and COL with untyped sets
//!
//! Section 5 of Hull & Su 1989 studies deductive languages over untyped
//! sets. This crate provides:
//!
//! * [`datalog`] — flat DATALOG with negation under **stratified** and
//!   **inflationary** semantics. In the flat world these differ in power
//!   (Kolaitis; Kolaitis–Papadimitriou) — the contrast the paper draws
//!   against Theorem 5.1, where the untyped-set versions coincide.
//! * [`col`] — COL (Abiteboul–Grumbach) generalized to rtypes: rules over
//!   complex-object terms with set-valued *data functions* `F(t̄)`,
//!   membership literals, negation, tuple and set patterns. Two semantics
//!   are provided, [`col::eval::stratified`] and
//!   [`col::eval::inflationary`]; both are fuel-bounded because untyped
//!   COL programs can legitimately diverge (the paper maps that to the
//!   undefined output `?`).
//! * [`chain`] — the Theorem 5.1 device: COL rules that manufacture an
//!   unbounded ordered chain of distinct objects `a; {a}; {{a}}; …` inside
//!   a data function `F(a)` without inventing atoms.

pub mod chain;
pub mod col;
pub mod datalog;
pub mod plan;

pub use col::ast::{ColHead, ColLiteral, ColProgram, ColRule, ColTerm};
pub use col::eval::{
    inflationary, inflationary_governed, inflationary_with, stratified, stratified_governed,
    stratified_with, ColConfig, ColEvalError, ColExhausted, ColState, ColStrategy,
};
pub use datalog::{DatalogProgram, DlAtom, DlError, DlExhausted, DlLiteral, DlRule, DlTerm};
pub use uset_object::EvalStats;
