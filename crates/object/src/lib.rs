//! # uset-object — the complex-object data model
//!
//! This crate is the substrate shared by every query language in the
//! reproduction of Hull & Su, *Untyped Sets, Invention, and Computable
//! Queries* (PODS 1989). It provides:
//!
//! * a countably infinite universal domain **U** of [`Atom`]s (Section 2 of
//!   the paper), with optional human-readable names for constants;
//! * [`Value`]s — the objects built from atoms with the tuple and set
//!   constructors, with a canonical total order so that set equality is
//!   structural and deterministic;
//! * [`Type`]s (the paper's *types*: `U`, `{T}`, `[T1..Tn]`) and [`RType`]s
//!   (the paper's *relaxed types* of Section 4, which add the universal
//!   rtype `Obj`);
//! * [`Schema`]s, [`Instance`]s and [`Database`] instances, with active
//!   domains (`adom`);
//! * permutations of **U** and the machinery for checking *C-genericity*
//!   of query functions ([`perm`]);
//! * enumeration of constructive domains `cons_T(X)` ([`cons`]), which is
//!   finite for types and depth-bounded for rtypes mentioning `Obj`;
//! * LDM-style flattening of arbitrary complex objects into flat
//!   `{[U,U,U,U]}` relations with invented surrogate identifiers
//!   ([`flatten`]) — the representation used in the proof of Theorem 6.3;
//! * the evaluation substrate shared by the deductive engines:
//!   column indexes over instances by pool id ([`index`]) and work
//!   counters ([`stats`]).
//!
//! The crate is deliberately free of interior mutability and global state
//! except for the process-wide atom name interner (which only affects
//! `Display` output, never semantics) and the hash-consing object pool
//! ([`intern`]), which is advisory: it changes how objects are stored
//! and compared, never what any evaluation computes.

pub mod atom;
pub mod cons;
pub mod database;
pub mod error;
pub mod flatten;
pub mod index;
pub mod intern;
pub mod lists;
pub mod perm;
pub mod rtype;
pub mod stats;
pub mod value;

pub use atom::Atom;
pub use database::{Database, Instance, RowRef, Schema};
pub use error::{ObjectError, Result};
pub use index::IdIndex;
pub use intern::{InternStats, ObjRef, Pool};
pub use rtype::{RType, Type};
pub use stats::EvalStats;
pub use value::Value;

/// Convenience constructor: an atomic value.
pub fn atom(id: u64) -> Value {
    Value::Atom(Atom::new(id))
}

/// Convenience constructor: a named atomic value (interned).
pub fn named(name: &str) -> Value {
    Value::Atom(Atom::named(name))
}

/// Convenience constructor: a tuple value.
pub fn tuple<I: IntoIterator<Item = Value>>(items: I) -> Value {
    Value::Tuple(items.into_iter().collect())
}

/// Convenience constructor: a set value (duplicates collapse).
pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
    Value::set_of(items)
}
