//! # uset-calculus — the complex-object calculus and invention semantics
//!
//! The calculus of Hull & Su 1989 §2/§6: formulas built from `u ≈ v`,
//! `u ∈ v`, and `P(u)` with the sentential connectives and *typed*
//! quantifiers `∃x/T φ`, `∀x/T φ`; a query is `{x/T | φ}`.
//!
//! * Quantifiers annotated with strict [`Type`](uset_object::Type)s give **tsCALC**; under the
//!   *limited interpretation* (quantifiers range over the constructive
//!   domain `cons_T(adom(d, Q))`) it is E-equivalent (Theorem 2.2).
//! * Allowing rtypes — in particular `Obj` — gives **CALC**, whose
//!   constructive domains are infinite; our evaluator bounds them by
//!   construction size (see DESIGN.md §5: the unbounded language is
//!   provably non-computable, Theorems 6.1/6.3).
//! * [`invention`] implements the §6 semantics: `Q|ⁱ[d]` (evaluation with
//!   `i` invented values added to the active domain), `Q|_i[d]` (invented
//!   values stripped from the output), finite invention `Q^fi` (union over
//!   all `i` — r.e., approximated by a budget), and **terminal invention**
//!   `Q^ti`, the paper's new, exactly-C-equivalent semantics (Theorem 6.4),
//!   which is implemented exactly as defined.

pub mod ast;
pub mod eval;
pub mod invention;
pub mod safe;

pub use ast::{CalcQuery, CalcTerm, Formula};
pub use eval::{eval_query, CalcConfig, CalcError, CalcExhausted};
pub use invention::{
    eval_fi, eval_fi_governed, eval_terminal, eval_terminal_governed, eval_with_invention,
    strip_invented, InventionOutcome, InventionPartial,
};
