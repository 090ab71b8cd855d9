//! Constructive domains: `cons_T(X)`.
//!
//! For a type `T` and finite atom set `X`, the constructive domain
//! `cons_T(X) = { o | o has type T and adom(o) ⊆ X }` (footnote 4 of the
//! paper). For strict types this is finite but grows hyper-exponentially in
//! the set-nesting depth — exactly the growth that powers Theorem 2.2's
//! simulation of hyper-exponential Turing machines.
//!
//! For rtypes mentioning `Obj` the constructive domain is countably
//! *infinite* (this is the "magic power of untyped sets"); we expose a
//! bounded enumeration [`cons_obj_bounded`] by construction size, which is
//! what a fuel-bounded evaluator for the untyped calculus uses. The
//! unbounded language is not computable — that is Theorem 6.3/6.1, and
//! DESIGN.md §5 records this substitution.

use crate::atom::Atom;
use crate::error::{ObjectError, Result};
use crate::rtype::Type;
use crate::value::Value;
use std::collections::BTreeSet;
use uset_par::{par_map, split_range};

/// Enumerate `cons_T(X)` for a strict type, failing if the result would
/// exceed `limit` elements (the sizes involved are hyper-exponential).
pub fn cons_type(ty: &Type, atoms: &BTreeSet<Atom>, limit: usize) -> Result<Vec<Value>> {
    let out = cons_type_inner(ty, atoms, limit)?;
    Ok(out)
}

/// [`cons_type`] with the outermost constructor's candidate space split
/// across `workers` threads.
///
/// The outermost set or tuple constructor dominates the enumeration (each
/// nesting level squares-or-worse the count), so only it is parallelized:
/// its index space — subset masks for a set, mixed-radix row indexes for a
/// tuple — is split into contiguous ranges via [`split_range`] and each
/// worker materializes its range in order. Concatenating the ranges
/// reproduces the sequential enumeration order exactly, so the result is
/// identical to [`cons_type`] at every width (including the error cases:
/// all size prediction happens before any fan-out). `workers <= 1` *is*
/// the sequential path.
pub fn cons_type_par(
    ty: &Type,
    atoms: &BTreeSet<Atom>,
    limit: usize,
    workers: usize,
) -> Result<Vec<Value>> {
    if workers <= 1 {
        return cons_type(ty, atoms, limit);
    }
    match ty {
        Type::Atomic => cons_type(ty, atoms, limit),
        Type::Set(inner) => {
            let members = cons_type_inner(inner, atoms, limit)?;
            let predicted = 1u128.checked_shl(members.len() as u32);
            if predicted.is_none_or(|p| p > limit as u128) {
                return Err(ObjectError::BoundExceeded {
                    what: "cons_T powerset",
                    bound: limit,
                });
            }
            Ok(powerset_par(&members, workers))
        }
        Type::Tuple(items) => {
            let columns: Vec<Vec<Value>> = items
                .iter()
                .map(|t| cons_type_inner(t, atoms, limit))
                .collect::<Result<_>>()?;
            let mut total: usize = 1;
            for c in &columns {
                total = total
                    .checked_mul(c.len().max(1))
                    .ok_or(ObjectError::BoundExceeded {
                        what: "cons_T product",
                        bound: limit,
                    })?;
            }
            if total > limit {
                return Err(ObjectError::BoundExceeded {
                    what: "cons_T product",
                    bound: limit,
                });
            }
            Ok(cartesian_par(&columns, workers))
        }
    }
}

fn cons_type_inner(ty: &Type, atoms: &BTreeSet<Atom>, limit: usize) -> Result<Vec<Value>> {
    match ty {
        Type::Atomic => Ok(atoms.iter().map(|a| Value::Atom(*a)).collect()),
        Type::Set(inner) => {
            let members = cons_type_inner(inner, atoms, limit)?;
            // predict 2^n in u128 so the check itself cannot overflow; a
            // member count ≥ 128 (unshiftable even in u128) is certainly
            // over any materializable limit
            let predicted = 1u128.checked_shl(members.len() as u32);
            if predicted.is_none_or(|p| p > limit as u128) {
                return Err(ObjectError::BoundExceeded {
                    what: "cons_T powerset",
                    bound: limit,
                });
            }
            Ok(powerset(&members))
        }
        Type::Tuple(items) => {
            let columns: Vec<Vec<Value>> = items
                .iter()
                .map(|t| cons_type_inner(t, atoms, limit))
                .collect::<Result<_>>()?;
            let mut total: usize = 1;
            for c in &columns {
                total = total
                    .checked_mul(c.len().max(1))
                    .ok_or(ObjectError::BoundExceeded {
                        what: "cons_T product",
                        bound: limit,
                    })?;
            }
            if total > limit {
                return Err(ObjectError::BoundExceeded {
                    what: "cons_T product",
                    bound: limit,
                });
            }
            Ok(cartesian(&columns))
        }
    }
}

/// All subsets of `members`, as canonical set values.
///
/// # Panics
///
/// Panics if `members.len() ≥ usize::BITS`: the 2^n subsets could not be
/// indexed by a machine-word mask, let alone materialized. Callers that
/// take untrusted sizes should pre-check with [`cons_type_size`] (or go
/// through [`cons_type`], which bounds the prediction in `u128`).
pub fn powerset(members: &[Value]) -> Vec<Value> {
    let n = members.len();
    assert!(
        n < usize::BITS as usize,
        "powerset of {n} members cannot be enumerated with a word-sized mask"
    );
    let mut out = Vec::with_capacity(1usize << n);
    for mask in 0..(1usize << n) {
        let mut s = BTreeSet::new();
        for (i, m) in members.iter().enumerate() {
            if mask & (1 << i) != 0 {
                // must stay: each subset owns its members
                s.insert(m.clone());
            }
        }
        out.push(Value::Set(s));
    }
    out
}

/// [`powerset`] with the `2^n` subset masks split into contiguous ranges
/// across `workers` threads. Each worker enumerates its mask range in
/// ascending order, so concatenating the per-range outputs yields exactly
/// the sequential enumeration. Same panic condition as [`powerset`].
pub fn powerset_par(members: &[Value], workers: usize) -> Vec<Value> {
    let n = members.len();
    assert!(
        n < usize::BITS as usize,
        "powerset of {n} members cannot be enumerated with a word-sized mask"
    );
    if workers <= 1 {
        return powerset(members);
    }
    let total = 1usize << n;
    let ranges = split_range(total, workers);
    let chunks = par_map(workers, &ranges, |_, range| {
        let mut out = Vec::with_capacity(range.len());
        for mask in range.clone() {
            let mut s = BTreeSet::new();
            for (i, m) in members.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    // must stay: each subset owns its members
                    s.insert(m.clone());
                }
            }
            out.push(Value::Set(s));
        }
        out
    });
    chunks.into_iter().flatten().collect()
}

/// Cartesian product of value columns, as tuples (row-major: the last
/// column varies fastest). Rows are built by mixed-radix decomposition of
/// the row index, so each cell is cloned exactly once — no intermediate
/// prefix vectors are re-cloned per extension.
pub fn cartesian(columns: &[Vec<Value>]) -> Vec<Value> {
    let total: usize = columns.iter().map(Vec::len).product();
    if total == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(total);
    for idx in 0..total {
        let mut row = vec![Value::empty_set(); columns.len()];
        let mut rem = idx;
        for (j, col) in columns.iter().enumerate().rev() {
            row[j] = col[rem % col.len()].clone();
            rem /= col.len();
        }
        out.push(Value::Tuple(row));
    }
    out
}

/// [`cartesian`] with the row-index space split into contiguous ranges
/// across `workers` threads.
///
/// The sequential product is row-major (the last column varies fastest),
/// so row `i` is recovered independently by mixed-radix decomposition of
/// `i` over the column lengths; each worker materializes a contiguous
/// index range and concatenation reproduces the sequential order exactly.
/// Callers must have pre-checked that the product size fits in `usize`
/// (as [`cons_type_par`] does).
pub fn cartesian_par(columns: &[Vec<Value>], workers: usize) -> Vec<Value> {
    if workers <= 1 {
        return cartesian(columns);
    }
    let total: usize = columns.iter().map(Vec::len).product();
    if total == 0 {
        return Vec::new();
    }
    let ranges = split_range(total, workers);
    let chunks = par_map(workers, &ranges, |_, range| {
        let mut out = Vec::with_capacity(range.len());
        for idx in range.clone() {
            let mut row = vec![Value::empty_set(); columns.len()];
            let mut rem = idx;
            for (j, col) in columns.iter().enumerate().rev() {
                row[j] = col[rem % col.len()].clone();
                rem /= col.len();
            }
            out.push(Value::Tuple(row));
        }
        out
    });
    chunks.into_iter().flatten().collect()
}

/// The size of `cons_T(X)` without materializing it, or `None` on overflow.
pub fn cons_type_size(ty: &Type, atom_count: u64) -> Option<u64> {
    match ty {
        Type::Atomic => Some(atom_count),
        Type::Set(inner) => {
            let n = cons_type_size(inner, atom_count)?;
            // 2^n fits in u64 exactly when n ≤ 63; the old `n >= 63` cutoff
            // wrongly reported the representable 2^63 as an overflow
            let shift = u32::try_from(n).ok()?;
            1u64.checked_shl(shift)
        }
        Type::Tuple(items) => {
            let mut total: u64 = 1;
            for t in items {
                total = total.checked_mul(cons_type_size(t, atom_count)?)?;
            }
            Some(total)
        }
    }
}

/// Enumerate all objects of `cons_Obj(X)` of structural size ≤ `max_size`,
/// capped at `limit` objects.
///
/// This is the bounded stand-in for the infinite `cons_Obj(X)` that makes
/// the untyped calculus non-computable (Theorems 6.1/6.3); the ordering of
/// the enumeration is by size then canonical value order, so it is
/// deterministic and generic-safe (it treats atoms symmetrically).
pub fn cons_obj_bounded(
    atoms: &BTreeSet<Atom>,
    max_size: usize,
    limit: usize,
) -> Result<Vec<Value>> {
    // layered enumeration: objects of size exactly k, for k = 1..=max_size
    let mut by_size: Vec<Vec<Value>> = vec![Vec::new(); max_size + 1];
    let mut total = 0usize;
    if max_size >= 1 {
        for a in atoms {
            by_size[1].push(Value::Atom(*a));
            total += 1;
        }
        // the empty set has size 1
        by_size[1].push(Value::empty_set());
        total += 1;
    }
    for k in 2..=max_size {
        let mut layer: BTreeSet<Value> = BTreeSet::new();
        // tuples of total component size k-1 (tuple node costs 1)
        for parts in compositions(k - 1) {
            for combo in pick_values(&by_size, &parts, 0)? {
                layer.insert(Value::Tuple(combo));
            }
        }
        // sets of distinct members with total size k-1
        for subset in pick_set_members(&by_size, k - 1) {
            layer.insert(Value::Set(subset.into_iter().collect()));
        }
        total += layer.len();
        if total > limit {
            return Err(ObjectError::BoundExceeded {
                what: "cons_Obj bounded enumeration",
                bound: limit,
            });
        }
        by_size[k] = layer.into_iter().collect();
    }
    Ok(by_size.into_iter().flatten().collect())
}

/// All ordered compositions of `n` into positive parts (n ≤ ~12 in use).
fn compositions(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![];
    }
    let mut out = Vec::new();
    let mut cur = Vec::new();
    fn rec(rem: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rem == 0 {
            if !cur.is_empty() {
                // must stay: backtracking snapshot of a Vec<usize>, cheap
                out.push(cur.clone());
            }
            return;
        }
        for first in 1..=rem {
            cur.push(first);
            rec(rem - first, cur, out);
            cur.pop();
        }
    }
    rec(n, &mut cur, &mut out);
    out
}

fn pick_values(by_size: &[Vec<Value>], parts: &[usize], idx: usize) -> Result<Vec<Vec<Value>>> {
    if idx == parts.len() {
        return Ok(vec![Vec::new()]);
    }
    let rest = pick_values(by_size, parts, idx + 1)?;
    let mut out = Vec::new();
    for v in &by_size[parts[idx]] {
        for suffix in &rest {
            let mut row = Vec::with_capacity(parts.len());
            // must stay: every product row owns its cells
            row.push(v.clone());
            row.extend(suffix.iter().cloned());
            out.push(row);
        }
    }
    Ok(out)
}

/// All sets of *distinct* previously enumerated values with total size
/// budget exactly `budget`.
fn pick_set_members(by_size: &[Vec<Value>], budget: usize) -> Vec<Vec<Value>> {
    // collect candidate pool with sizes (values of size ≤ budget)
    let pool: Vec<(usize, &Value)> = by_size
        .iter()
        .enumerate()
        .take(budget + 1)
        .flat_map(|(sz, vals)| vals.iter().map(move |v| (sz, v)))
        .collect();
    let mut out = Vec::new();
    let mut cur: Vec<Value> = Vec::new();
    fn rec(
        pool: &[(usize, &Value)],
        start: usize,
        rem: usize,
        cur: &mut Vec<Value>,
        out: &mut Vec<Vec<Value>>,
    ) {
        if rem == 0 {
            if !cur.is_empty() {
                // must stay: backtracking snapshot of the chosen members
                out.push(cur.clone());
            }
            return;
        }
        for i in start..pool.len() {
            let (sz, v) = pool[i];
            if sz == 0 || sz > rem {
                continue;
            }
            // must stay: the working set owns its candidate members
            cur.push((*v).clone());
            rec(pool, i + 1, rem - sz, cur, out);
            cur.pop();
        }
    }
    rec(&pool, 0, budget, &mut cur, &mut out);
    out
}

/// The paper's ordinal-style chain: `a; {a}; {a,{a}}; {a,{a},{a,{a}}}; …`
///
/// Element `k+1` is the set of all previous elements — a von-Neumann-style
/// encoding of the ordinal `k` built from a seed atom. This is the paper's
/// central device (proofs of Theorems 4.1(b) and 5.1) for manufacturing an
/// arbitrarily long strictly ordered sequence of *distinct* objects without
/// inventing new atoms.
pub fn ordinal_chain(seed: Atom, len: usize) -> Vec<Value> {
    let mut chain: Vec<Value> = Vec::with_capacity(len);
    if len == 0 {
        return chain;
    }
    chain.push(Value::Atom(seed));
    while chain.len() < len {
        // must stay in tree form: element k+1 contains copies of all
        // previous elements (the pool shares them)
        let next = Value::Set(chain.iter().cloned().collect());
        chain.push(next);
    }
    chain
}

/// The singleton-nesting chain: `a; {a}; {{a}}; …`
///
/// The variant of the ordinal chain used in the paper's Theorem 5.1 rules
/// (`{u} ∈ F(a) ← u ∈ F(a)`). Unlike [`ordinal_chain`], whose elements
/// double in structural size, these grow by one node per step — the
/// practical choice when a *successor relation is materialized separately*
/// (as in the Theorem 4.1(b) simulation), since only distinctness and an
/// order are needed.
pub fn singleton_chain(seed: Atom, len: usize) -> Vec<Value> {
    let mut out = Vec::with_capacity(len);
    let mut cur = Value::Atom(seed);
    for _ in 0..len {
        // must stay: `cur` is both emitted and wrapped by the next step
        out.push(cur.clone());
        cur = Value::Set([cur].into_iter().collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{atom, set, tuple};

    fn atoms(n: u64) -> BTreeSet<Atom> {
        (0..n).map(Atom::new).collect()
    }

    #[test]
    fn cons_atomic() {
        let vals = cons_type(&Type::Atomic, &atoms(3), 100).unwrap();
        assert_eq!(vals.len(), 3);
    }

    #[test]
    fn cons_set_is_powerset() {
        let vals = cons_type(&Type::Set(Box::new(Type::Atomic)), &atoms(3), 100).unwrap();
        assert_eq!(vals.len(), 8); // 2^3
        assert!(vals.contains(&Value::empty_set()));
        assert!(vals.contains(&set([atom(0), atom(2)])));
    }

    #[test]
    fn cons_growth_matches_predictor() {
        for depth in 0..3 {
            for n in 1..4u64 {
                let ty = Type::nested_set(depth);
                let predicted = cons_type_size(&ty, n).unwrap();
                let actual = cons_type(&ty, &atoms(n), 1 << 20).unwrap();
                assert_eq!(actual.len() as u64, predicted, "depth {depth} n {n}");
            }
        }
    }

    #[test]
    fn cons_hyperexponential_blowup_is_caught() {
        // {{U}} over 4 atoms has 2^(2^4) = 65536 elements; {{{U}}} is 2^65536
        assert_eq!(cons_type_size(&Type::nested_set(2), 4), Some(1 << 16));
        assert_eq!(cons_type_size(&Type::nested_set(3), 4), None);
        let err = cons_type(&Type::nested_set(3), &atoms(5), 1 << 20).unwrap_err();
        assert!(matches!(err, ObjectError::BoundExceeded { .. }));
    }

    #[test]
    fn cons_size_word_width_boundary() {
        let ty = Type::Set(Box::new(Type::Atomic));
        // 2^63 is representable in u64 — the predictor must not reject it
        assert_eq!(cons_type_size(&ty, 63), Some(1u64 << 63));
        // 2^64 is not
        assert_eq!(cons_type_size(&ty, 64), None);
        assert_eq!(cons_type_size(&ty, u64::MAX), None);
    }

    #[test]
    fn cons_powerset_guard_rejects_word_width_without_overflow() {
        // with 63 or 64 inner members the 1<<n prediction used to overflow
        // the word-sized shift; it must now fail cleanly even at the
        // largest possible limit
        let ty = Type::Set(Box::new(Type::Atomic));
        // n = 63: 2^63 is a valid word-sized prediction, just over any
        // sane limit
        let err = cons_type(&ty, &atoms(63), 1 << 30).unwrap_err();
        assert!(matches!(err, ObjectError::BoundExceeded { .. }));
        // n = 64, 65: the word-sized shift itself used to be the hazard;
        // even limit = usize::MAX must reject (2^64 > usize::MAX)
        for n in [64, 65] {
            let err = cons_type(&ty, &atoms(n), usize::MAX).unwrap_err();
            assert!(matches!(err, ObjectError::BoundExceeded { .. }), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "word-sized mask")]
    fn powerset_panics_at_word_width() {
        let members: Vec<Value> = (0..64).map(atom).collect();
        let _ = powerset(&members);
    }

    #[test]
    fn cons_tuple_product() {
        let ty = Type::Tuple(vec![Type::Atomic, Type::Set(Box::new(Type::Atomic))]);
        let vals = cons_type(&ty, &atoms(2), 100).unwrap();
        assert_eq!(vals.len(), 2 * 4);
        assert!(vals.contains(&tuple([atom(0), set([atom(1)])])));
    }

    #[test]
    fn cons_obj_bounded_small() {
        let vals = cons_obj_bounded(&atoms(1), 3, 1000).unwrap();
        // size 1: a0, {}
        assert!(vals.contains(&atom(0)));
        assert!(vals.contains(&Value::empty_set()));
        // size 2: [a0], [{}], {a0}, {{}}
        assert!(vals.contains(&tuple([atom(0)])));
        assert!(vals.contains(&set([atom(0)])));
        assert!(vals.contains(&set([Value::empty_set()])));
        // size 3 includes {a0,{}} and [a0,a0] and {{a0}} and [[a0]] …
        assert!(vals.contains(&set([atom(0), Value::empty_set()])));
        assert!(vals.contains(&tuple([atom(0), atom(0)])));
        assert!(vals.contains(&set([set([atom(0)])])));
        // all distinct
        let distinct: BTreeSet<_> = vals.iter().cloned().collect();
        assert_eq!(distinct.len(), vals.len());
        // all within size bound
        assert!(vals.iter().all(|v| v.size() <= 3));
    }

    #[test]
    fn cons_obj_bounded_is_monotone_in_size() {
        let small = cons_obj_bounded(&atoms(2), 2, 100_000).unwrap();
        let large = cons_obj_bounded(&atoms(2), 4, 100_000).unwrap();
        let large_set: BTreeSet<_> = large.iter().cloned().collect();
        assert!(small.iter().all(|v| large_set.contains(v)));
        assert!(large.len() > small.len());
    }

    #[test]
    fn cons_obj_limit_enforced() {
        let err = cons_obj_bounded(&atoms(3), 8, 50).unwrap_err();
        assert!(matches!(err, ObjectError::BoundExceeded { .. }));
    }

    #[test]
    fn ordinal_chain_shape() {
        let a = Atom::new(7);
        let chain = ordinal_chain(a, 4);
        assert_eq!(chain[0], Value::Atom(a));
        assert_eq!(chain[1], set([Value::Atom(a)]));
        assert_eq!(chain[2], set([Value::Atom(a), chain[1].clone()]));
        assert_eq!(
            chain[3],
            set([Value::Atom(a), chain[1].clone(), chain[2].clone()])
        );
        // strictly increasing structural size, all distinct
        let distinct: BTreeSet<_> = chain.iter().cloned().collect();
        assert_eq!(distinct.len(), 4);
        for w in chain.windows(2) {
            assert!(w[0].size() < w[1].size());
        }
        // adom stays {a}: no invention
        for v in &chain {
            assert_eq!(v.adom().len(), 1);
        }
        assert!(ordinal_chain(a, 0).is_empty());
    }

    #[test]
    fn singleton_chain_grows_linearly() {
        let c = singleton_chain(Atom::new(5), 6);
        assert_eq!(c[0], atom(5));
        assert_eq!(c[1], set([atom(5)]));
        assert_eq!(c[2], set([set([atom(5)])]));
        let distinct: BTreeSet<_> = c.iter().cloned().collect();
        assert_eq!(distinct.len(), 6);
        for (k, v) in c.iter().enumerate() {
            assert_eq!(v.size(), k + 1, "linear growth");
            assert_eq!(v.adom().len(), 1, "no invention");
        }
    }

    #[test]
    fn powerset_par_matches_sequential_at_every_width() {
        for n in 0..9usize {
            let members: Vec<Value> = (0..n as u64).map(atom).collect();
            let expect = powerset(&members);
            for workers in [1, 2, 3, 4, 7] {
                assert_eq!(powerset_par(&members, workers), expect, "n={n} w={workers}");
            }
        }
    }

    #[test]
    fn cartesian_par_matches_sequential_at_every_width() {
        let cases: Vec<Vec<Vec<Value>>> = vec![
            vec![],
            vec![vec![atom(0), atom(1)]],
            vec![vec![atom(0), atom(1)], vec![]],
            vec![
                (0..5u64).map(atom).collect(),
                (0..3u64).map(atom).collect(),
                vec![atom(9), set([atom(1)])],
            ],
        ];
        for cols in &cases {
            let expect = cartesian(cols);
            for workers in [1, 2, 3, 4, 7] {
                assert_eq!(cartesian_par(cols, workers), expect, "w={workers}");
            }
        }
    }

    #[test]
    fn cons_type_par_matches_sequential_including_errors() {
        let types = [
            Type::Atomic,
            Type::Set(Box::new(Type::Atomic)),
            Type::nested_set(2),
            Type::Tuple(vec![Type::Atomic, Type::Set(Box::new(Type::Atomic))]),
        ];
        for ty in &types {
            let expect = cons_type(ty, &atoms(3), 1 << 20);
            for workers in [1, 2, 4] {
                let got = cons_type_par(ty, &atoms(3), 1 << 20, workers);
                match (&expect, &got) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{ty:?} w={workers}"),
                    (Err(_), Err(_)) => {}
                    _ => panic!("{ty:?} w={workers}: par/seq disagree on success"),
                }
            }
        }
        // oversized enumerations fail identically before any fan-out
        let err = cons_type_par(&Type::nested_set(3), &atoms(5), 1 << 20, 4).unwrap_err();
        assert!(matches!(err, ObjectError::BoundExceeded { .. }));
    }

    #[test]
    fn compositions_of_three() {
        let mut c = compositions(3);
        c.sort();
        assert_eq!(c, vec![vec![1, 1, 1], vec![1, 2], vec![2, 1], vec![3]]);
    }
}
