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
//! unbound-variable errors from scratch fires identically here. Rules
//! run as the from-scratch engine's compiled plans ([`DlPlan`]), compiled
//! once per session.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use uset_deductive::plan::{DeltaJoin, DlPlan, Frame, Read};
use uset_deductive::DlError;
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

/// Fire one rule from a `seed` binding, returning the head row of every
/// binding it derives. With `delta = Some((pos, rows))`
/// body position `pos` is restricted to `rows`, positions before it read
/// the `left` view and positions after it the `right` view; without a
/// delta every position reads `left`. For a *negated* literal at `pos`
/// the caller passes the rows whose membership flip makes the literal's
/// truth flip (the complement's delta); the join keeps a binding when its
/// instantiated atom is one of them. A positive delta literal joins
/// `rows` through a hash on its probe column; every other literal is a
/// plain scan of its view. Rederivation asks "does any derivation
/// survive?" by seeding with the head binding of a deleted fact and
/// checking non-emptiness.
#[allow(clippy::too_many_arguments)]
pub(crate) fn delta_heads<'a>(
    plan: &DlPlan,
    seed: Frame<'a>,
    delta: Option<(usize, &'a BTreeSet<Value>)>,
    left: View,
    right: View,
    state: &'a Database,
    log: &DeltaLog,
    cache: &'a mut BTreeMap<String, Instance>,
    stats: &mut EvalStats,
) -> Result<Vec<Value>, DlError> {
    let view = |i: usize| match delta {
        Some((pos, _)) if i > pos => right,
        _ => left,
    };
    // reconstruct every old view first, so the join can borrow them all
    for (i, step) in plan.body.iter().enumerate() {
        if view(i) == View::Old && delta.is_none_or(|(pos, _)| pos != i) {
            view_instance(&step.pred, View::Old, state, log, cache);
        }
    }
    let cache: &'a BTreeMap<String, Instance> = cache;
    static EMPTY: OnceLock<Instance> = OnceLock::new();
    let empty = EMPTY.get_or_init(Instance::empty);
    let mut frames = vec![seed];
    for (i, step) in plan.body.iter().enumerate() {
        if frames.is_empty() {
            break;
        }
        frames = match delta {
            Some((pos, rows)) if pos == i => {
                if step.positive {
                    let join = DeltaJoin::new(rows, step.probe);
                    plan.join(i, &frames, Read::Delta(&join), stats)?
                } else {
                    let mut kept = Vec::new();
                    for f in frames {
                        if rows.contains(&plan.body_row(i, &f)?) {
                            kept.push(f);
                        }
                    }
                    kept
                }
            }
            _ => {
                let rel = match view(i) {
                    View::New => state.get_ref(&step.pred),
                    View::Old => cache.get(&step.pred),
                };
                plan.join(i, &frames, Read::Scan(rel.unwrap_or(empty)), stats)?
            }
        };
    }
    stats.rules_fired += 1;
    stats.tuples_derived += frames.len() as u64;
    frames.iter().map(|f| plan.head_row(f)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_deductive::{DlAtom, DlRule, DlTerm};
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
        let plan = DlPlan::compile(&tc_rec_rule());
        let heads = delta_heads(
            &plan,
            plan.frame(),
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
        assert_eq!(heads, vec![edge(0, 2)]);
        assert_eq!(stats.tuples_derived, 1);
    }
}
