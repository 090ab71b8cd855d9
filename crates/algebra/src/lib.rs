//! # uset-algebra — the complex-object algebra with `while`
//!
//! The algebra of Hull & Su 1989 §2/§4, in the assignment-sequence style of
//! Kuper & Vardi: a query is a sequence of assignments `x := op(…)` ending
//! with an assignment to the distinguished variable `ANS`. The `while`
//! construct follows the paper exactly:
//!
//! ```text
//! z := while ⟨x; y⟩ do  assignments  end
//! ```
//!
//! — while the value of `y` is non-empty, execute the assignments; `z`
//! finally gets the value of `x`.
//!
//! Three language levels are distinguished (checked, not just documented):
//!
//! * **tsALG** — every intermediate has a strict type (no `Obj`); this is
//!   the typed complex-object algebra, E-equivalent (Theorem 2.2).
//! * **ALG** — intermediates may be heterogeneous (instances of rtypes);
//!   still E-equivalent without `while` (Theorem 4.1a).
//! * **ALG+while** — C-equivalent, with or without `powerset`, nested or
//!   unnested `while` (Theorem 4.1b).
//!
//! Per §4 of the paper, "horizontal" operators applied to heterogeneous
//! instances *ignore* members that do not have the right shape — e.g.
//! projecting column 3 of an instance containing a bare atom simply drops
//! the atom. Evaluation is fuel-bounded: a `while` loop that exceeds its
//! fuel reports [`EvalError::Exhausted`], the finite observation of the
//! paper's non-terminating-loop-maps-to-`?` convention.

pub mod derived;
pub mod eval;
pub mod expr;
pub mod flatten_while;
pub mod opt;
pub mod program;
pub mod typecheck;

pub use eval::{
    eval_program, eval_program_governed, AlgExhausted, EvalConfig, EvalError, EvalResult,
    PartialEnv,
};
pub use expr::{Expr, Operand, Pred};
pub use program::{Program, Stmt};
pub use typecheck::{infer_types, Level, TypeError};
