//! The cardinality domain: interval estimates `[lo, hi]` per symbol.
//!
//! `lo` is the database seeding (facts that are present before any rule
//! fires and are never retracted); `hi` is an upper bound on the fixpoint
//! size, `None` meaning ∞. A rule body admits at most the *product* of
//! its positive literals' cardinalities many bindings (literals that
//! introduce no new variables filter, contributing a factor of 1), so
//! `hi(P) = seed(P) + Σ_rules Π_literals` iterated to fixpoint per
//! component with widening to ∞ after `WIDEN_AFTER` rounds.
//!
//! The payoff is the zero: a factor of 0 — an empty source — proves a
//! rule can never fire, and a defined symbol whose every rule is dead
//! (and that the database does not seed) is *guaranteed empty* (lint
//! U006, dead-rule elimination in `uset-opt`).

use super::{Ctx, SymbolKind, WIDEN_AFTER};
use crate::passes::col::binding_vars;
use std::collections::{BTreeMap, BTreeSet};
use uset_deductive::{ColLiteral, ColRule, ColTerm};

/// Cardinality interval; `hi = None` means unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Card {
    /// Guaranteed facts (database seeding).
    pub lo: u64,
    /// Upper bound on the fixpoint size (`None` = ∞).
    pub hi: Option<u64>,
}

impl Card {
    /// The provably empty interval.
    pub const EMPTY: Card = Card { lo: 0, hi: Some(0) };

    /// The unknown interval `[0, ∞]`.
    pub const UNKNOWN: Card = Card { lo: 0, hi: None };

    /// An exactly-`n` interval.
    pub fn exact(n: u64) -> Card {
        Card { lo: n, hi: Some(n) }
    }
}

/// ∞-saturating product step: `acc × f`, where a zero factor dominates ∞
/// (an empty source yields no bindings no matter what it is joined with).
fn mul(acc: Option<u64>, f: Option<u64>) -> Option<u64> {
    match (acc, f) {
        (Some(0), _) | (_, Some(0)) => Some(0),
        (Some(a), Some(b)) => a.checked_mul(b),
        _ => None,
    }
}

/// ∞-saturating sum.
fn add(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => a.checked_add(b),
        _ => None,
    }
}

/// Infer cardinalities per symbol plus the per-rule binding upper bound
/// (`Some(0)` proves the rule dead).
pub(crate) fn infer(ctx: &Ctx<'_>) -> (BTreeMap<String, Card>, Vec<Option<u64>>) {
    let mut cards: BTreeMap<String, Card> = BTreeMap::new();
    for (sym, kind) in ctx.kinds {
        let init = match kind {
            // database relations seed predicates — defined or not
            SymbolKind::Pred => match ctx.db {
                Some(db) => Card::exact(db.get_ref(sym).map_or(0, |inst| inst.len() as u64)),
                // a defined predicate starts from its rules alone;
                // without the database an EDB relation is unknown
                None if ctx.defined.contains(sym) => Card::exact(0),
                None => Card::UNKNOWN,
            },
            // functions are never database-seeded: undefined ⇒ empty
            SymbolKind::Func => Card::exact(0),
        };
        cards.insert(sym.clone(), init);
    }
    let seeds: BTreeMap<String, u64> = cards.iter().map(|(s, c)| (s.clone(), c.lo)).collect();
    for scc in ctx.sccs {
        let rules: Vec<(usize, &ColRule)> = scc
            .iter()
            .flat_map(|s| ctx.rules_of.get(s).into_iter().flatten())
            .map(|&i| (i, &ctx.prog.rules[i]))
            .collect();
        if rules.is_empty() {
            continue;
        }
        let recompute = |cards: &BTreeMap<String, Card>| -> BTreeMap<String, Option<u64>> {
            let mut next: BTreeMap<String, Option<u64>> =
                scc.iter().map(|s| (s.clone(), Some(seeds[s]))).collect();
            for (_, rule) in &rules {
                let contribution = rule_hi(rule, cards);
                let e = next
                    .get_mut(rule.head_symbol())
                    .expect("head symbol in its own component");
                *e = add(*e, contribution);
            }
            next
        };
        let mut stable = false;
        for _ in 0..WIDEN_AFTER {
            let next = recompute(&cards);
            let mut changed = false;
            for (sym, hi) in next {
                let e = cards.get_mut(&sym).expect("symbol initialized");
                if e.hi != hi {
                    e.hi = hi;
                    changed = true;
                }
            }
            if !changed {
                stable = true;
                break;
            }
        }
        if !stable {
            // widen: any symbol whose bound is still moving goes to ∞
            // and stays there; repeat until the rest settle. Each round
            // either pins a new symbol or terminates, so the loop runs
            // at most |component| + 1 times.
            let mut pinned: BTreeSet<String> = BTreeSet::new();
            loop {
                let next = recompute(&cards);
                let mut changed = false;
                for (sym, hi) in next {
                    if pinned.contains(&sym) {
                        continue;
                    }
                    let e = cards.get_mut(&sym).expect("symbol initialized");
                    if e.hi != hi {
                        e.hi = None;
                        pinned.insert(sym);
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
    }
    let rule_his: Vec<Option<u64>> = ctx.prog.rules.iter().map(|r| rule_hi(r, &cards)).collect();
    (cards, rule_his)
}

/// Upper bound on the bindings one rule's body admits: the product over
/// positive literals of their source cardinality, with literals that
/// bind no new variables counting as filters (factor 1).
fn rule_hi(rule: &ColRule, cards: &BTreeMap<String, Card>) -> Option<u64> {
    let hi = |sym: &str| cards.get(sym).and_then(|c| c.hi);
    let mut bound: BTreeSet<String> = BTreeSet::new();
    let mut acc = Some(1u64);
    for lit in &rule.body {
        let factor = match lit {
            ColLiteral::Pred {
                name,
                args,
                positive: true,
            } => {
                let mut vars = BTreeSet::new();
                for t in args {
                    binding_vars(t, &mut vars);
                }
                let fresh = vars.difference(&bound).next().is_some();
                bound.extend(vars);
                match hi(name) {
                    Some(0) => Some(0),
                    _ if !fresh => Some(1),
                    h => h,
                }
            }
            ColLiteral::Member {
                elem,
                set,
                positive: true,
            } => {
                let contents = match set {
                    ColTerm::Apply(f, _) => hi(f),
                    ColTerm::SetLit(ts) => Some(ts.len() as u64),
                    _ => None,
                };
                let mut vars = BTreeSet::new();
                binding_vars(elem, &mut vars);
                let fresh = vars.difference(&bound).next().is_some();
                bound.extend(vars);
                match contents {
                    Some(0) => Some(0),
                    _ if !fresh => Some(1),
                    h => h,
                }
            }
            // negations and equalities only filter
            _ => Some(1),
        };
        acc = mul(acc, factor);
        if acc == Some(0) {
            return Some(0);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_arithmetic_saturates() {
        assert_eq!(mul(Some(3), Some(4)), Some(12));
        assert_eq!(mul(Some(0), None), Some(0), "zero dominates infinity");
        assert_eq!(mul(None, Some(7)), None);
        assert_eq!(mul(Some(u64::MAX), Some(2)), None, "overflow widens to ∞");
        assert_eq!(add(Some(1), Some(2)), Some(3));
        assert_eq!(add(None, Some(2)), None);
        assert_eq!(Card::exact(5), Card { lo: 5, hi: Some(5) });
        assert_eq!(Card::EMPTY.hi, Some(0));
        assert_eq!(Card::UNKNOWN.hi, None);
    }
}
