//! State-preserving COL optimization.
//!
//! [`optimize_col`] mirrors the DATALOG¬ pipeline (dead rules,
//! always-true negations, α-duplicate removal, boundness-then-selectivity
//! reordering) for the richer COL body forms. Because COL literals can
//! fail at firing time in more ways than DATALOG¬ (`NonGround` on set
//! literals, function applications, negations, and equalities), every
//! rewrite is gated on a *moding model* that tracks exactly what the
//! engine's `extend` step can evaluate:
//!
//! * positive `P(t̄)` — generator; ready when every variable under a
//!   `SetLit`/`Apply` sub-term is bound (those sub-patterns are compared,
//!   not destructured); binds the remaining variables.
//! * positive `e ∈ s` — generator; ready when `s` is ground and `e`'s
//!   compared sub-terms are ground; binds `e`'s pattern variables.
//! * positive `l ≈ r` with one side a bare unbound variable — generator
//!   (assignment); ready when the other side is ground.
//! * everything else (negations, ground equalities) — filter; ready when
//!   fully ground.
//!
//! A rule whose original body ever reaches a not-ready literal is left
//! byte-for-byte intact: it may raise `NonGround` mid-evaluation and the
//! optimized program must fail identically. For well-moded rules the
//! final binding set is order-independent, so the fixpoint state and the
//! per-rule `tuples_derived` are preserved exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::{probe_depth, rel_len};
use uset_analysis::absint::{analyze_col, Analysis};
use uset_deductive::{ColHead, ColLiteral, ColProgram, ColRule, ColTerm};
use uset_object::Database;

/// Variables a positive match of `pat` *binds* (everything except the
/// compared `SetLit`/`Apply` sub-terms, which must already be ground).
fn binding_vars(pat: &ColTerm, out: &mut BTreeSet<String>) {
    match pat {
        ColTerm::Var(v) => {
            out.insert(v.clone());
        }
        ColTerm::Const(_) => {}
        ColTerm::Tuple(ts) => ts.iter().for_each(|t| binding_vars(t, out)),
        ColTerm::SetLit(_) | ColTerm::Apply(..) => {}
    }
}

/// Variables a positive match of `pat` *reads*: those under `SetLit` or
/// `Apply` nodes, which the engine evaluates rather than destructures.
fn read_vars(pat: &ColTerm, out: &mut BTreeSet<String>) {
    match pat {
        ColTerm::Var(_) | ColTerm::Const(_) => {}
        ColTerm::Tuple(ts) => ts.iter().for_each(|t| read_vars(t, out)),
        ColTerm::SetLit(ts) | ColTerm::Apply(_, ts) => {
            for t in ts {
                let mut vs = Vec::new();
                t.collect_vars(&mut vs);
                out.extend(vs);
            }
        }
    }
}

/// All variables of a term.
fn all_vars(t: &ColTerm, out: &mut BTreeSet<String>) {
    let mut vs = Vec::new();
    t.collect_vars(&mut vs);
    out.extend(vs);
}

/// What a literal needs bound before the engine can evaluate it without
/// `NonGround`, and what it binds on success.
fn moding(lit: &ColLiteral, bound: &BTreeSet<String>) -> Option<BTreeSet<String>> {
    let mut needs = BTreeSet::new();
    let mut binds = BTreeSet::new();
    match lit {
        ColLiteral::Pred { args, positive, .. } => {
            if *positive {
                for a in args {
                    read_vars(a, &mut needs);
                    binding_vars(a, &mut binds);
                }
            } else {
                for a in args {
                    all_vars(a, &mut needs);
                }
            }
        }
        ColLiteral::Member {
            elem,
            set,
            positive,
        } => {
            all_vars(set, &mut needs);
            if *positive {
                read_vars(elem, &mut needs);
                binding_vars(elem, &mut binds);
            } else {
                all_vars(elem, &mut needs);
            }
        }
        ColLiteral::Eq {
            left,
            right,
            positive,
        } => {
            let mut lv = BTreeSet::new();
            let mut rv = BTreeSet::new();
            all_vars(left, &mut lv);
            all_vars(right, &mut rv);
            let l_ground = lv.iter().all(|v| bound.contains(v));
            let r_ground = rv.iter().all(|v| bound.contains(v));
            if l_ground && r_ground {
                // pure test
            } else if *positive && r_ground && matches!(left, ColTerm::Var(_)) {
                binds.extend(lv);
            } else if *positive && l_ground && matches!(right, ColTerm::Var(_)) {
                binds.extend(rv);
            } else {
                return None;
            }
        }
    }
    if needs.iter().all(|v| bound.contains(v)) {
        binds.retain(|v| !bound.contains(v));
        Some(binds)
    } else {
        None
    }
}

/// True if the engine evaluates this body left-to-right without ever
/// hitting a `NonGround` error.
fn well_moded(body: &[ColLiteral]) -> bool {
    let mut bound = BTreeSet::new();
    for lit in body {
        match moding(lit, &bound) {
            Some(binds) => bound.extend(binds),
            None => return false,
        }
    }
    true
}

/// Cardinality estimate for a ready generator.
fn generator_cost(
    lit: &ColLiteral,
    bound: &BTreeSet<String>,
    analysis: &Analysis,
    db: Option<&Database>,
    defined: &BTreeSet<String>,
    depth_cache: &mut BTreeMap<(String, usize), u64>,
) -> (u8, u64) {
    match lit {
        ColLiteral::Pred { name, args, .. } => {
            let probe = args.first().is_some_and(|a| {
                let mut needs = BTreeSet::new();
                all_vars(a, &mut needs);
                needs.iter().all(|v| bound.contains(v))
            });
            let card = if let Some(db) = db {
                if !defined.contains(name) {
                    if probe && args.len() > 1 {
                        *depth_cache
                            .entry((name.clone(), 0))
                            .or_insert_with(|| probe_depth(db, name, 0))
                    } else {
                        rel_len(db, name)
                    }
                } else {
                    analysis
                        .info(name)
                        .and_then(|i| i.card.hi)
                        .unwrap_or(u64::MAX)
                }
            } else {
                analysis
                    .info(name)
                    .and_then(|i| i.card.hi)
                    .unwrap_or(u64::MAX)
            };
            (u8::from(!probe), card)
        }
        ColLiteral::Member { set, .. } => {
            let card = match set {
                ColTerm::SetLit(ts) => ts.len() as u64,
                ColTerm::Apply(f, _) => {
                    analysis.info(f).and_then(|i| i.card.hi).unwrap_or(u64::MAX)
                }
                _ => u64::MAX,
            };
            (0, card)
        }
        // an equality assignment yields at most one extension per binding
        ColLiteral::Eq { .. } => (0, 1),
    }
}

/// Greedy reorder of a well-moded body: ready filters first (original
/// order), then the cheapest ready generator, until done. Falls back to
/// the original order if it ever stalls.
fn reorder(
    body: Vec<ColLiteral>,
    analysis: &Analysis,
    db: Option<&Database>,
    defined: &BTreeSet<String>,
    depth_cache: &mut BTreeMap<(String, usize), u64>,
) -> Vec<ColLiteral> {
    let mut bound: BTreeSet<String> = BTreeSet::new();
    let mut remaining: Vec<Option<ColLiteral>> = body.iter().cloned().map(Some).collect();
    let mut out: Vec<ColLiteral> = Vec::with_capacity(body.len());
    loop {
        let mut placed = false;
        // ready filters (bind nothing) run first, in original order
        for slot in remaining.iter_mut() {
            if let Some(lit) = slot {
                if moding(lit, &bound).is_some_and(|binds| binds.is_empty()) {
                    out.push(slot.take().unwrap_or_else(|| unreachable!()));
                    placed = true;
                }
            }
        }
        // cheapest ready generator
        let mut best: Option<(u8, u64, usize)> = None;
        for (j, slot) in remaining.iter().enumerate() {
            if let Some(lit) = slot {
                if moding(lit, &bound).is_some_and(|binds| !binds.is_empty()) {
                    let (scan, card) =
                        generator_cost(lit, &bound, analysis, db, defined, depth_cache);
                    let key = (scan, card, j);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
        }
        if let Some((_, _, j)) = best {
            if let Some(lit) = remaining[j].take() {
                if let Some(binds) = moding(&lit, &bound) {
                    bound.extend(binds);
                }
                out.push(lit);
                placed = true;
            }
        }
        if !placed {
            break;
        }
    }
    if remaining.iter().any(Option::is_some) {
        return body;
    }
    out
}

/// Canonical α-renamed rendering of a rule (head, body, and sorted type
/// annotations), used to drop duplicate rules.
fn canonical(rule: &ColRule) -> String {
    fn term(t: &ColTerm, s: &mut String, map: &mut BTreeMap<String, usize>) {
        match t {
            ColTerm::Var(v) => {
                let next = map.len();
                let id = *map.entry(v.clone()).or_insert(next);
                let _ = write!(s, "v{id}");
            }
            ColTerm::Const(c) => {
                let _ = write!(s, "{c:?}");
            }
            ColTerm::Tuple(ts) => {
                s.push('[');
                for t in ts {
                    term(t, s, map);
                    s.push(',');
                }
                s.push(']');
            }
            ColTerm::SetLit(ts) => {
                s.push('{');
                for t in ts {
                    term(t, s, map);
                    s.push(',');
                }
                s.push('}');
            }
            ColTerm::Apply(f, ts) => {
                s.push_str(f);
                s.push('(');
                for t in ts {
                    term(t, s, map);
                    s.push(',');
                }
                s.push(')');
            }
        }
    }
    fn lit(l: &ColLiteral, s: &mut String, map: &mut BTreeMap<String, usize>) {
        match l {
            ColLiteral::Pred {
                name,
                args,
                positive,
            } => {
                if !positive {
                    s.push('!');
                }
                s.push_str(name);
                s.push('(');
                for a in args {
                    term(a, s, map);
                    s.push(',');
                }
                s.push(')');
            }
            ColLiteral::Member {
                elem,
                set,
                positive,
            } => {
                term(elem, s, map);
                s.push_str(if *positive { "@in@" } else { "@notin@" });
                term(set, s, map);
            }
            ColLiteral::Eq {
                left,
                right,
                positive,
            } => {
                term(left, s, map);
                s.push_str(if *positive { "@eq@" } else { "@neq@" });
                term(right, s, map);
            }
        }
    }
    let mut s = String::new();
    let mut map = BTreeMap::new();
    match &rule.head {
        ColHead::Pred { name, args } => {
            s.push_str(name);
            s.push('(');
            for a in args {
                term(a, &mut s, &mut map);
                s.push(',');
            }
            s.push(')');
        }
        ColHead::FuncMember { func, args, elem } => {
            term(elem, &mut s, &mut map);
            s.push_str("@in@");
            s.push_str(func);
            s.push('(');
            for a in args {
                term(a, &mut s, &mut map);
                s.push(',');
            }
            s.push(')');
        }
    }
    s.push_str(":-");
    for l in &rule.body {
        lit(l, &mut s, &mut map);
        s.push(';');
    }
    // type annotations participate in matching, so they are part of the
    // rule's identity (sorted: HashMap order is not canonical)
    let types: BTreeMap<&String, String> = rule
        .types
        .iter()
        .map(|(v, ty)| (v, format!("{ty:?}")))
        .collect();
    for (v, ty) in types {
        let next = map.len();
        let id = *map.entry(v.clone()).or_insert(next);
        let _ = write!(s, "|v{id}:{ty}");
    }
    s
}

/// Optimize a COL program; see the module docs for the rewrite list and
/// the preservation argument. Pass the EDB when available.
pub fn optimize_col(prog: &ColProgram, db: Option<&Database>) -> ColProgram {
    let analysis = analyze_col(prog, db);
    let defined = analysis.defined.clone();
    let mut depth_cache = BTreeMap::new();
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut rules: Vec<ColRule> = Vec::new();
    for (i, rule) in prog.rules.iter().enumerate() {
        let moded = well_moded(&rule.body);
        if moded && analysis.rule_hi.get(i).copied().flatten() == Some(0) {
            continue;
        }
        let mut rule = rule.clone();
        if moded {
            rule.body.retain(|lit| match lit {
                ColLiteral::Pred {
                    name,
                    positive: false,
                    ..
                } => analysis.info(name).and_then(|s| s.card.hi) != Some(0),
                _ => true,
            });
            rule.body = reorder(rule.body, &analysis, db, &defined, &mut depth_cache);
        }
        if seen.insert(canonical(&rule)) {
            rules.push(rule);
        }
    }
    ColProgram { rules }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::{atom, Instance};

    fn v(name: &str) -> ColTerm {
        ColTerm::var(name)
    }

    #[test]
    fn dead_rule_and_duplicate_are_removed() {
        let tc = |a: &str, b: &str, c: &str| {
            ColRule::pred(
                "T",
                vec![v(a), v(c)],
                vec![
                    ColLiteral::pred("R", vec![v(a), v(b)]),
                    ColLiteral::pred("T", vec![v(b), v(c)]),
                ],
            )
        };
        let base = ColRule::pred(
            "T",
            vec![v("x"), v("y")],
            vec![ColLiteral::pred("R", vec![v("x"), v("y")])],
        );
        let dead = ColRule::pred(
            "D",
            vec![v("x")],
            vec![ColLiteral::pred("Missing", vec![v("x")])],
        );
        let prog = ColProgram {
            rules: vec![base, tc("x", "y", "z"), dead, tc("a", "b", "c")],
        };
        let mut db = Database::empty();
        db.set(
            "R",
            Instance::from_rows((0u64..4).map(|i| [atom(i), atom(i + 1)])),
        );
        let opt = optimize_col(&prog, Some(&db));
        assert_eq!(opt.rules.len(), 2);
    }

    #[test]
    fn member_on_unbound_set_var_stays_after_its_binder() {
        // S(s), x ∈ s — the membership needs s; any reorder must keep
        // the generator of s first.
        let rule = ColRule::pred(
            "E",
            vec![v("x")],
            vec![
                ColLiteral::pred("S", vec![v("s")]),
                ColLiteral::member(v("x"), v("s")),
            ],
        );
        let prog = ColProgram { rules: vec![rule] };
        let opt = optimize_col(&prog, None);
        assert!(matches!(&opt.rules[0].body[0], ColLiteral::Pred { .. }));
        assert!(matches!(&opt.rules[0].body[1], ColLiteral::Member { .. }));
    }

    #[test]
    fn ill_moded_body_is_left_untouched() {
        // x ∈ s with s never bound: the engine raises NonGround, so the
        // rule must survive byte-for-byte even though Missing is empty.
        let rule = ColRule::pred(
            "E",
            vec![v("x")],
            vec![
                ColLiteral::member(v("x"), v("s")),
                ColLiteral::pred("Missing", vec![v("x"), v("s")]),
            ],
        );
        let prog = ColProgram {
            rules: vec![rule.clone()],
        };
        let opt = optimize_col(&prog, Some(&Database::empty()));
        assert_eq!(opt.rules, vec![rule]);
    }

    #[test]
    fn equality_assignment_counts_as_generator() {
        // y ≈ x placed only after x is bound; filters and assignments
        // must not precede their inputs.
        let rule = ColRule::pred(
            "A",
            vec![v("y")],
            vec![
                ColLiteral::eq(v("y"), v("x")),
                ColLiteral::pred("R", vec![v("x")]),
            ],
        );
        // Original order errors (y ≈ x with both unbound): ill-moded, so
        // the body must stay as written.
        let prog = ColProgram {
            rules: vec![rule.clone()],
        };
        let opt = optimize_col(&prog, None);
        assert_eq!(opt.rules, vec![rule]);
    }

    #[test]
    fn ground_negation_on_empty_pred_is_dropped() {
        let rule = ColRule::pred(
            "A",
            vec![v("x")],
            vec![
                ColLiteral::pred("R", vec![v("x")]),
                ColLiteral::not_pred("Missing", vec![v("x")]),
            ],
        );
        let prog = ColProgram { rules: vec![rule] };
        let mut db = Database::empty();
        db.set("R", Instance::from_values([atom(1u64)]));
        let opt = optimize_col(&prog, Some(&db));
        assert_eq!(opt.rules[0].body.len(), 1);
    }
}
