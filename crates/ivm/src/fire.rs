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
//! Old values are never stored or copied: a relation's old value is read
//! through an [`Overlay`] of the current state that hides the rows the
//! batch's [`DeltaLog`] added and shows the rows it removed, and a
//! relation the batch left unchanged reads the state itself. A positive
//! literal whose arguments are all ground when the join reaches it is one
//! membership test, not a scan. The literal order of the source rule is
//! preserved, so a program that fires without unbound-variable errors
//! from scratch fires identically here. Rules run as the from-scratch
//! engine's compiled plans ([`DlPlan`]), compiled once per session.

use std::collections::BTreeSet;
use std::sync::OnceLock;
use uset_deductive::plan::{DeltaJoin, DlPlan, Frame, Overlay, Read};
use uset_deductive::DlError;
use uset_object::{Database, EvalStats, Instance, Value};

use crate::delta::DeltaLog;

/// Which value of a relation a body position reads.
#[derive(Clone, Copy)]
pub(crate) enum View<'a> {
    /// The current (post-change) state.
    New,
    /// The pre-batch state: the current one with the net change the
    /// batch's ledger records undone.
    Old(&'a DeltaLog),
}

/// Relation `pred` under `view`. An absent relation reads as empty.
fn read<'a>(pred: &str, view: View<'a>, state: &'a Database) -> Overlay<'a> {
    static EMPTY: OnceLock<Instance> = OnceLock::new();
    let base = state
        .get_ref(pred)
        .unwrap_or_else(|| EMPTY.get_or_init(Instance::empty));
    match view {
        View::Old(log) => match log.delta(pred) {
            Some(d) => Overlay::undoing(base, &d.added, &d.removed),
            None => Overlay::plain(base),
        },
        View::New => Overlay::plain(base),
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
/// `rows` through a hash on its probe column; every other literal scans
/// its view, or tests membership when it is ground. Rederivation asks
/// "does any derivation survive?" by seeding with the head binding of a
/// deleted fact and checking non-emptiness.
pub(crate) fn delta_heads<'a>(
    plan: &DlPlan,
    seed: Frame<'a>,
    delta: Option<(usize, &'a BTreeSet<Value>)>,
    left: View<'a>,
    right: View<'a>,
    state: &'a Database,
    stats: &mut EvalStats,
) -> Result<Vec<Value>, DlError> {
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
                let view = match delta {
                    Some((pos, _)) if i > pos => right,
                    _ => left,
                };
                let rel = read(&step.pred, view, state);
                plan.join(i, &frames, Read::Scan(rel), stats)?
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

    /// The pre-batch value of `pred` as a materialized copy: the state,
    /// minus the batch's added rows, plus its removed rows.
    fn materialized_old(state: &Database, log: &DeltaLog, pred: &str) -> Instance {
        let mut inst = state.get(pred);
        if let Some(d) = log.rels.get(pred) {
            for row in &d.added {
                inst.remove(row);
            }
            for row in &d.removed {
                inst.insert(row.clone());
            }
        }
        inst
    }

    #[test]
    fn old_view_reconstructs_the_pre_batch_relation() {
        let mut state = Database::empty();
        // the state after the batch: rows on both sides of every change
        state.set(
            "E",
            Instance::from_values([0, 2, 3, 5, 8, 9].map(|a| edge(a, a + 1))),
        );
        let mut log = DeltaLog::default();
        log.note_add("E", edge(0, 1)); // first row hidden
        log.note_add("E", edge(5, 6)); // a middle row hidden
        log.note_add("E", edge(9, 10)); // last row hidden
        log.note_remove("E", edge(1, 2)); // shown between kept rows
        log.note_remove("E", edge(12, 13)); // shown after every kept row

        // cancelling pairs leave no trace in the view
        log.note_add("E", edge(4, 5));
        log.note_remove("E", edge(4, 5));
        log.note_remove("E", edge(7, 8));
        log.note_add("E", edge(7, 8));
        let want = materialized_old(&state, &log, "E");
        let old = read("E", View::Old(&log), &state);
        let scanned: Vec<&Value> = old.iter().collect();
        assert_eq!(
            scanned,
            want.iter().collect::<Vec<_>>(),
            "same rows, same order"
        );
        for a in 0..14 {
            let row = edge(a, a + 1);
            assert_eq!(
                old.contains(&row),
                want.contains(&row),
                "membership of {row}"
            );
        }
        // a relation the batch did not change reads as the state itself
        state.set("F", Instance::from_values([edge(1, 1)]));
        let plain: Vec<&Value> = read("F", View::Old(&log), &state).iter().collect();
        assert_eq!(
            plain,
            state.get_ref("F").unwrap().iter().collect::<Vec<_>>()
        );
        // a relation absent now reads as exactly its removed rows
        log.note_remove("G", edge(3, 3));
        let gone: Vec<&Value> = read("G", View::Old(&log), &state).iter().collect();
        assert_eq!(gone, vec![&edge(3, 3)]);
        // and the new view ignores the ledger
        assert!(read("E", View::New, &state).contains(&edge(0, 1)));
    }

    #[test]
    fn ground_literals_read_old_views_by_membership() {
        // T(x,z) ← E(x,y), T(y,z) seeded with the head T(0,2): T(1,2) is
        // ground when reached, so the old T answers by membership
        let mut state = Database::empty();
        state.set("E", Instance::from_values([edge(0, 1)]));
        state.set("T", Instance::from_values([edge(0, 1), edge(0, 2)]));
        let mut log = DeltaLog::default();
        let plan = DlPlan::compile(&tc_rec_rule());
        let head = edge(0, 2);
        let fire = |view: View<'_>| {
            let mut stats = EvalStats::default();
            let seed = plan.seed(&head).unwrap();
            let heads = delta_heads(&plan, seed, None, view, view, &state, &mut stats).unwrap();
            assert_eq!((stats.index_probes, stats.scan_fallbacks), (0, 0));
            heads
        };
        assert!(fire(View::New).is_empty(), "T(1,2) is absent now");
        log.note_remove("T", edge(1, 2));
        assert_eq!(
            fire(View::Old(&log)),
            vec![head.clone()],
            "T(1,2) was present"
        );
        log.note_add("T", edge(1, 2));
        assert!(fire(View::Old(&log)).is_empty(), "the notes cancel");
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
        let mut stats = EvalStats::default();
        let delta: BTreeSet<Value> = [edge(1, 2)].into();
        // restrict position 1 (the T literal) to the single delta row
        let plan = DlPlan::compile(&tc_rec_rule());
        let heads = delta_heads(
            &plan,
            plan.frame(),
            Some((1, &delta)),
            View::New,
            View::Old(&log),
            &state,
            &mut stats,
        )
        .unwrap();
        // E(x,1) has the single row (0,1) → one binding {x:0, y:1, z:2}
        assert_eq!(heads, vec![edge(0, 2)]);
        assert_eq!(stats.tuples_derived, 1);
    }
}
