//! Delta-rule firing: the join loop shared by counting and DRed.
//!
//! Incremental maintenance never re-fires a rule over whole relations.
//! It fires *delta rules*: one body position is restricted to the rows
//! that changed, positions to its left read the **new** value of their
//! relation and positions to its right read the **old** value. Summing
//! over every changed position telescopes exactly to the difference
//! between the rule's new and old output — the classical identity
//!
//! ```text
//! Δ(R₁ ⋈ … ⋈ Rₙ) = Σᵢ  New(R₁..Rᵢ₋₁) ⋈ ΔRᵢ ⋈ Old(Rᵢ₊₁..Rₙ)
//! ```
//!
//! which holds with *signed* deltas (insertions count +1, deletions −1)
//! and therefore with multiplicities, the property counting maintenance
//! depends on. DRed reuses the same loop with both sides pinned to a
//! single view (all-old for over-deletion, all-new for re-insertion).
//!
//! Old values are never stored: a relation's old instance is
//! reconstructed on demand as `new − added + removed` from the batch's
//! [`DeltaLog`] and memoized in a per-phase cache. The literal order of
//! the source rule is preserved, so a program that fires without
//! unbound-variable errors from scratch fires identically here.

use std::collections::{BTreeMap, BTreeSet};
use uset_deductive::datalog::{
    extend_bindings, instantiate, match_row_cached, DlBindings, RowCache,
};
use uset_deductive::{DlError, DlRule};
use uset_object::{Database, EvalStats, Instance, Value};

use crate::delta::DeltaLog;

/// Which value of a relation a body position reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum View {
    /// The current (post-change) state.
    New,
    /// The pre-batch state, reconstructed from the delta log.
    Old,
}

/// Resolve a relation under a view. `None` means "no such relation",
/// which joins as the empty relation.
fn view_instance<'a>(
    pred: &str,
    view: View,
    state: &'a Database,
    log: &DeltaLog,
    cache: &'a mut BTreeMap<String, Instance>,
) -> Option<&'a Instance> {
    match view {
        View::New => state.get_ref(pred),
        View::Old => {
            if !cache.contains_key(pred) {
                let mut inst = state.get(pred);
                if let Some(d) = log.rels.get(pred) {
                    for row in &d.added {
                        inst.remove(row);
                    }
                    for row in &d.removed {
                        inst.insert(row.clone());
                    }
                }
                cache.insert(pred.to_owned(), inst);
            }
            cache.get(pred)
        }
    }
}

/// Fire one rule from a `seed` binding. With `delta = Some((pos, rows))`
/// body position `pos` is restricted to `rows`, positions before it read
/// the `left` view and positions after it the `right` view; without a
/// delta every position reads `left`. For a *negated* literal at `pos`
/// the caller passes the rows whose membership flip makes the literal's
/// truth flip (the complement's delta); the join keeps a binding when its
/// instantiated atom is one of them. Every other literal joins through
/// the from-scratch engine's own binding step, as a plain scan.
/// Rederivation asks "does any derivation survive?" by seeding with the
/// head binding of a deleted fact and checking non-emptiness.
#[allow(clippy::too_many_arguments)]
pub(crate) fn delta_bindings(
    rule: &DlRule,
    seed: &DlBindings,
    delta: Option<(usize, &BTreeSet<Value>)>,
    left: View,
    right: View,
    state: &Database,
    log: &DeltaLog,
    cache: &mut BTreeMap<String, Instance>,
    stats: &mut EvalStats,
) -> Result<Vec<DlBindings>, DlError> {
    let empty = Instance::empty();
    let mut bindings: Vec<DlBindings> = vec![seed.clone()];
    for (i, lit) in rule.body.iter().enumerate() {
        if bindings.is_empty() {
            break;
        }
        bindings = match delta {
            Some((pos, rows)) if pos == i => {
                let mut out = Vec::new();
                if lit.positive {
                    let mut rc_cache = RowCache::new();
                    for b in &bindings {
                        for row in rows {
                            match_row_cached(&lit.atom.args, row, b, &mut out, &mut rc_cache);
                        }
                    }
                } else {
                    for b in &bindings {
                        let vals: Vec<Value> = lit
                            .atom
                            .args
                            .iter()
                            .map(|t| instantiate(t, b, &lit.atom.pred))
                            .collect::<Result<_, _>>()?;
                        if rows.contains(&Value::Tuple(vals)) {
                            out.push(b.clone());
                        }
                    }
                }
                out
            }
            _ => {
                let view = match delta {
                    Some((pos, _)) if i > pos => right,
                    _ => left,
                };
                let rel = view_instance(&lit.atom.pred, view, state, log, cache).unwrap_or(&empty);
                extend_bindings(lit, None, &bindings, rel, None, stats)?
            }
        };
    }
    stats.rules_fired += 1;
    stats.tuples_derived += bindings.len() as u64;
    Ok(bindings)
}

/// Ground a rule's head under a final binding.
pub(crate) fn head_row(rule: &DlRule, b: &DlBindings) -> Result<Value, DlError> {
    let vals: Vec<Value> = rule
        .head
        .args
        .iter()
        .map(|t| instantiate(t, b, &rule.head.pred))
        .collect::<Result<_, _>>()?;
    Ok(Value::Tuple(vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_deductive::{DlAtom, DlTerm};
    use uset_object::atom;

    fn edge(a: u64, b: u64) -> Value {
        Value::Tuple(vec![atom(a), atom(b)])
    }

    // T(x,z) ← E(x,y), T(y,z)
    fn tc_rec_rule() -> DlRule {
        let v = DlTerm::var;
        DlRule::new(
            DlAtom::new("T", vec![v("x"), v("z")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("y")])),
                (true, DlAtom::new("T", vec![v("y"), v("z")])),
            ],
        )
    }

    #[test]
    fn old_view_reconstructs_the_pre_batch_relation() {
        let mut state = Database::empty();
        state.set("E", Instance::from_rows([[atom(0u64), atom(1u64)]]));
        let mut log = DeltaLog::default();
        // the batch added (0,1) and removed (5,6)
        log.note_add("E", edge(0, 1));
        log.note_remove("E", edge(5, 6));
        let mut cache = BTreeMap::new();
        let old = view_instance("E", View::Old, &state, &log, &mut cache).unwrap();
        assert!(!old.contains(&edge(0, 1)), "added row absent from old");
        assert!(old.contains(&edge(5, 6)), "removed row present in old");
    }

    #[test]
    fn delta_firing_joins_only_through_the_changed_rows() {
        // E = {(0,1),(1,2)}, T = {(0,1),(1,2),(0,2)}; delta: E gained (2,3).
        let mut state = Database::empty();
        state.set(
            "E",
            Instance::from_rows([[atom(0u64), atom(1u64)], [atom(1u64), atom(2u64)]]),
        );
        state.set(
            "T",
            Instance::from_rows([
                [atom(0u64), atom(1u64)],
                [atom(1u64), atom(2u64)],
                [atom(0u64), atom(2u64)],
            ]),
        );
        let log = DeltaLog::default();
        let mut cache = BTreeMap::new();
        let mut stats = EvalStats::default();
        let delta: BTreeSet<Value> = [edge(1, 2)].into();
        // restrict position 1 (the T literal) to the single delta row
        let bs = delta_bindings(
            &tc_rec_rule(),
            &DlBindings::new(),
            Some((1, &delta)),
            View::New,
            View::Old,
            &state,
            &log,
            &mut cache,
            &mut stats,
        )
        .unwrap();
        // E(x,1) has the single row (0,1) → one binding {x:0, y:1, z:2}
        assert_eq!(bs.len(), 1);
        assert_eq!(head_row(&tc_rec_rule(), &bs[0]).unwrap(), edge(0, 2));
        assert_eq!(stats.tuples_derived, 1);
    }
}
