//! State-preserving DATALOG¬ optimization.
//!
//! [`optimize_datalog`] applies four rewrites, each justified by a fact
//! the abstract interpreter ([`uset_analysis::absint`]) proved:
//!
//! 1. **Dead-rule elimination** — a rule whose body cardinality product
//!    is provably 0 ([`Analysis::rule_hi`]) admits no bindings at any
//!    round, so it never fires and never derives a tuple. Removing it
//!    leaves the final state bit-identical (engines start from a clone
//!    of the EDB and only ever *add* derived facts).
//! 2. **Always-true negation removal** — a negated literal over a
//!    relation with cardinality upper bound 0 filters nothing.
//! 3. **Duplicate-rule removal** — α-equivalent rules rederive the same
//!    bindings every round; keeping one copy strictly reduces
//!    `tuples_derived` without changing the fixpoint.
//! 4. **Body reordering** — greedy boundness-then-selectivity ordering:
//!    ready filters (negated literals with all variables bound) run as
//!    early as possible, and among generators the one with an available
//!    index probe and the smallest cardinality estimate goes first. The
//!    final binding set of a body is order-independent, so the state and
//!    per-rule `tuples_derived` are unchanged; only probe/scan counters
//!    may shift.
//!
//! Rewrites 1–2 and 4 are gated on the rule being *well-moded* in its
//! original order (every negated literal's variables bound by earlier
//! positive literals). An ill-moded rule raises `UnboundAtFiring` when
//! reached; we leave such rules byte-for-byte intact so the optimized
//! program fails in exactly the same way.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::{probe_depth, rel_len};
use uset_analysis::absint::{analyze_datalog, Analysis};
use uset_deductive::{DatalogProgram, DlAtom, DlLiteral, DlRule, DlTerm};
use uset_object::Database;

/// Variables of an atom, in argument order (duplicates kept).
fn atom_vars(atom: &DlAtom) -> impl Iterator<Item = &str> {
    atom.args.iter().filter_map(|t| match t {
        DlTerm::Var(v) => Some(v.as_str()),
        DlTerm::Const(_) => None,
    })
}

/// True if every negated literal's variables are bound by positive
/// literals to its left — the condition under which the engine never
/// raises `UnboundAtFiring` for this body.
fn well_moded(body: &[DlLiteral]) -> bool {
    let mut bound: BTreeSet<&str> = BTreeSet::new();
    for lit in body {
        if lit.positive {
            bound.extend(atom_vars(&lit.atom));
        } else if !atom_vars(&lit.atom).all(|v| bound.contains(v)) {
            return false;
        }
    }
    true
}

/// Cardinality oracle shared across rules: EDB relations are measured
/// directly (per-probe-column bucket depths are cached), IDB relations
/// fall back to the abstract interpreter's interval upper bound.
struct Estimator<'a> {
    db: Option<&'a Database>,
    analysis: &'a Analysis,
    idb: BTreeSet<String>,
    depth_cache: BTreeMap<(String, usize), u64>,
}

impl Estimator<'_> {
    /// First argument position that is a constant or an already-bound
    /// variable — the column the engine would probe.
    fn probe_col(atom: &DlAtom, bound: &BTreeSet<String>) -> Option<usize> {
        atom.args.iter().position(|t| match t {
            DlTerm::Const(_) => true,
            DlTerm::Var(v) => bound.contains(v),
        })
    }

    /// Estimated bindings produced by scanning/probing this atom.
    fn cardinality(&mut self, atom: &DlAtom, bound: &BTreeSet<String>) -> u64 {
        if let Some(db) = self.db {
            if !self.idb.contains(&atom.pred) {
                return match Self::probe_col(atom, bound) {
                    Some(col) => *self
                        .depth_cache
                        .entry((atom.pred.clone(), col))
                        .or_insert_with(|| probe_depth(db, &atom.pred, col)),
                    None => rel_len(db, &atom.pred),
                };
            }
        }
        self.analysis
            .info(&atom.pred)
            .and_then(|i| i.card.hi)
            .unwrap_or(u64::MAX)
    }
}

/// Greedy boundness-then-selectivity reorder. Assumes `body` is
/// well-moded; returns the original order untouched if the greedy pass
/// ever stalls (cannot happen for well-moded bodies, kept as a
/// belt-and-braces fallback).
fn reorder(body: Vec<DlLiteral>, est: &mut Estimator<'_>) -> Vec<DlLiteral> {
    let mut bound: BTreeSet<String> = BTreeSet::new();
    let mut remaining: Vec<Option<DlLiteral>> = body.iter().cloned().map(Some).collect();
    let mut out: Vec<DlLiteral> = Vec::with_capacity(body.len());
    loop {
        let mut placed = false;
        // All ready filters first, in original order: they shrink the
        // binding set for free before any generator multiplies it.
        for slot in remaining.iter_mut() {
            if let Some(lit) = slot {
                if !lit.positive && atom_vars(&lit.atom).all(|v| bound.contains(v)) {
                    out.push(slot.take().unwrap_or_else(|| unreachable!()));
                    placed = true;
                }
            }
        }
        // Cheapest ready generator next: probe-able beats scan, then
        // smaller estimated cardinality, then original position.
        let mut best: Option<(u8, u64, usize)> = None;
        for (j, slot) in remaining.iter().enumerate() {
            if let Some(lit) = slot {
                if lit.positive {
                    let scan = u8::from(Estimator::probe_col(&lit.atom, &bound).is_none());
                    let card = est.cardinality(&lit.atom, &bound);
                    let key = (scan, card, j);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
            }
        }
        if let Some((_, _, j)) = best {
            if let Some(lit) = remaining[j].take() {
                bound.extend(atom_vars(&lit.atom).map(str::to_owned));
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

/// Canonical α-renamed rendering of a rule: variables become `v0, v1, …`
/// in first-occurrence order (head first, then body left to right), so
/// two rules get the same key iff they are identical up to variable
/// names.
fn canonical(rule: &DlRule) -> String {
    fn atom(a: &DlAtom, s: &mut String, map: &mut BTreeMap<String, usize>) {
        s.push_str(&a.pred);
        s.push('(');
        for t in &a.args {
            match t {
                DlTerm::Var(v) => {
                    let next = map.len();
                    let id = *map.entry(v.clone()).or_insert(next);
                    let _ = write!(s, "v{id},");
                }
                DlTerm::Const(c) => {
                    let _ = write!(s, "{c:?},");
                }
            }
        }
        s.push(')');
    }
    let mut s = String::new();
    let mut map = BTreeMap::new();
    atom(&rule.head, &mut s, &mut map);
    s.push_str(":-");
    for lit in &rule.body {
        if !lit.positive {
            s.push('!');
        }
        atom(&lit.atom, &mut s, &mut map);
        s.push(',');
    }
    s
}

/// Optimize a DATALOG¬ program. Pass the EDB when available — it seeds
/// the cardinality analysis (empty/absent relations become proofs) and
/// the selectivity estimates. Evaluating the result produces the same
/// final database as the input and derives no more tuples; see the
/// module docs for the argument.
pub fn optimize_datalog(prog: &DatalogProgram, db: Option<&Database>) -> DatalogProgram {
    let analysis = analyze_datalog(prog, db);
    let mut est = Estimator {
        db,
        analysis: &analysis,
        idb: prog.idb_predicates(),
        depth_cache: BTreeMap::new(),
    };
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut rules: Vec<DlRule> = Vec::new();
    for (i, rule) in prog.rules.iter().enumerate() {
        let moded = well_moded(&rule.body);
        if moded && analysis.rule_hi.get(i).copied().flatten() == Some(0) {
            continue; // provably zero bindings: the rule never fires
        }
        let mut rule = rule.clone();
        if moded {
            rule.body.retain(|lit| {
                lit.positive || analysis.info(&lit.atom.pred).and_then(|s| s.card.hi) != Some(0)
            });
            rule.body = reorder(rule.body, &mut est);
        }
        if seen.insert(canonical(&rule)) {
            rules.push(rule);
        }
    }
    DatalogProgram::new(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::{atom, Instance};

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn db_with(rels: &[(&str, usize)]) -> Database {
        let mut db = Database::empty();
        for (name, n) in rels {
            db.set(
                *name,
                Instance::from_rows((0..*n as u64).map(|i| [atom(i), atom(i + 1)])),
            );
        }
        db
    }

    #[test]
    fn dead_rule_over_empty_relation_is_removed() {
        let prog = DatalogProgram::new(vec![
            DlRule::new(
                DlAtom::new("A", vec![v("x")]),
                vec![(true, DlAtom::new("Missing", vec![v("x")]))],
            ),
            DlRule::new(
                DlAtom::new("B", vec![v("x"), v("y")]),
                vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
            ),
        ]);
        let db = db_with(&[("R", 3)]);
        let opt = optimize_datalog(&prog, Some(&db));
        assert_eq!(opt.rules.len(), 1);
        assert_eq!(opt.rules[0].head.pred, "B");
    }

    #[test]
    fn always_true_negation_is_dropped() {
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("A", vec![v("x")]),
            vec![
                (true, DlAtom::new("R", vec![v("x"), v("y")])),
                (false, DlAtom::new("Missing", vec![v("x")])),
            ],
        )]);
        let db = db_with(&[("R", 3)]);
        let opt = optimize_datalog(&prog, Some(&db));
        assert_eq!(opt.rules.len(), 1);
        assert_eq!(opt.rules[0].body.len(), 1);
        assert!(opt.rules[0].body[0].positive);
    }

    #[test]
    fn ill_moded_rule_is_left_byte_for_byte_intact() {
        // The negated literal precedes its binder: the engine errors at
        // firing time, so no rewrite (not even the dead-rule removal its
        // empty body product would license) may touch this rule.
        let rule = DlRule::new(
            DlAtom::new("A", vec![v("x")]),
            vec![
                (false, DlAtom::new("N", vec![v("x")])),
                (true, DlAtom::new("Missing", vec![v("x")])),
            ],
        );
        let prog = DatalogProgram::new(vec![rule.clone()]);
        let db = db_with(&[("N", 2)]);
        let opt = optimize_datalog(&prog, Some(&db));
        assert_eq!(opt.rules, vec![rule]);
    }

    #[test]
    fn duplicate_rules_dedup_up_to_variable_renaming() {
        let mk = |a: &str, b: &str, c: &str| {
            DlRule::new(
                DlAtom::new("T", vec![v(a), v(c)]),
                vec![
                    (true, DlAtom::new("R", vec![v(a), v(b)])),
                    (true, DlAtom::new("T", vec![v(b), v(c)])),
                ],
            )
        };
        let base = DlRule::new(
            DlAtom::new("T", vec![v("x"), v("y")]),
            vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
        );
        let prog = DatalogProgram::new(vec![base, mk("x", "y", "z"), mk("u", "w", "q")]);
        let db = db_with(&[("R", 3)]);
        let opt = optimize_datalog(&prog, Some(&db));
        assert_eq!(opt.rules.len(), 2);
    }

    #[test]
    fn body_reorders_small_relation_first_then_probes() {
        let mut db = Database::empty();
        db.set(
            "Big",
            Instance::from_rows((0u64..100).map(|i| [atom(i), atom(i + 1)])),
        );
        db.set("Small", Instance::from_rows([[atom(0u64), atom(1u64)]]));
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("A", vec![v("x"), v("z")]),
            vec![
                (true, DlAtom::new("Big", vec![v("x"), v("y")])),
                (true, DlAtom::new("Small", vec![v("y"), v("z")])),
            ],
        )]);
        let opt = optimize_datalog(&prog, Some(&db));
        let order: Vec<&str> = opt.rules[0]
            .body
            .iter()
            .map(|l| l.atom.pred.as_str())
            .collect();
        assert_eq!(order, ["Small", "Big"]);
    }

    #[test]
    fn ready_filter_moves_before_later_generators() {
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("A", vec![v("x"), v("z")]),
            vec![
                (true, DlAtom::new("R", vec![v("x"), v("y")])),
                (true, DlAtom::new("R", vec![v("y"), v("z")])),
                (false, DlAtom::new("Bad", vec![v("x")])),
            ],
        )]);
        let db = db_with(&[("R", 5), ("Bad", 5)]);
        let opt = optimize_datalog(&prog, Some(&db));
        let body = &opt.rules[0].body;
        // The negation only needs x, so it must run right after the
        // first R literal, ahead of the second generator.
        assert_eq!(body.len(), 3);
        assert!(body[0].positive);
        assert!(!body[1].positive, "filter should precede second join");
        assert_eq!(body[1].atom.pred, "Bad");
    }

    #[test]
    fn constant_argument_counts_as_a_probe_column() {
        let mut db = Database::empty();
        db.set(
            "R",
            Instance::from_rows((0u64..10).map(|i| [atom(i % 2), atom(i)])),
        );
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("A", vec![v("y")]),
            vec![(
                true,
                DlAtom::new("R", vec![DlTerm::Const(atom(0u64)), v("y")]),
            )],
        )]);
        // Smoke: estimator path with a Const probe must not panic and the
        // rule must survive untouched (single literal, nothing to move).
        let opt = optimize_datalog(&prog, Some(&db));
        assert_eq!(opt.rules.len(), 1);
        assert_eq!(opt.rules[0].body.len(), 1);
    }

    #[test]
    fn without_database_edb_relations_are_not_assumed_empty() {
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("A", vec![v("x")]),
            vec![(true, DlAtom::new("R", vec![v("x"), v("y")]))],
        )]);
        let opt = optimize_datalog(&prog, None);
        assert_eq!(opt.rules.len(), 1);
    }

    #[test]
    fn value_debug_keys_distinguish_constants() {
        let r1 = DlRule::new(
            DlAtom::new("A", vec![DlTerm::Const(atom(1u64))]),
            vec![(true, DlAtom::new("R", vec![DlTerm::Const(atom(1u64))]))],
        );
        let r2 = DlRule::new(
            DlAtom::new("A", vec![DlTerm::Const(atom(2u64))]),
            vec![(true, DlAtom::new("R", vec![DlTerm::Const(atom(2u64))]))],
        );
        assert_ne!(canonical(&r1), canonical(&r2));
    }
}
