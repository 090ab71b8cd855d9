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
//! membership test, not a scan; one with a bound column probes the
//! session's id index ([`Store`]) when it reads the state itself. The
//! literal order of the source rule is preserved, so a program that fires
//! without unbound-variable errors from scratch fires identically here.
//! Rules run as the from-scratch engine's compiled plans ([`Plan`]),
//! compiled once per session, and derive heads as pool ids.

use std::collections::{BTreeMap, BTreeSet};
use uset_deductive::plan::{self, DeltaJoin, Frame, Overlay, Plan, Read, Step, NO_FUNCS};
use uset_deductive::DlError;
use uset_object::{Database, EvalStats, IdIndex, Instance, ObjRef, Value};

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

/// The materialized state and the session's id index over it: one
/// [`IdIndex`] per relation some rule reads positively. Every state
/// mutation goes through [`Store::insert`] and [`Store::remove`], so the
/// index always holds exactly the state's rows.
pub(crate) struct Store {
    db: Database,
    index: BTreeMap<String, IdIndex>,
}

impl Store {
    /// Index `db` for `plans`; with no plans nothing is indexed.
    pub fn new(db: Database, plans: &[Plan]) -> Store {
        let mut index = BTreeMap::new();
        for step in plans.iter().flat_map(|p| &p.body).filter(|s| s.positive) {
            index.entry(pred(step).to_owned()).or_default();
        }
        let mut store = Store {
            db: Database::empty(),
            index,
        };
        store.replace(db);
        store
    }

    /// The state.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Replace the whole state (a recompute) and rebuild the index.
    pub fn replace(&mut self, db: Database) {
        self.db = db;
        for (pred, idx) in &mut self.index {
            *idx = self
                .db
                .get_ref(pred)
                .map(IdIndex::build)
                .unwrap_or_default();
        }
    }

    /// Insert `row`, whose pool id is `id`.
    pub fn insert(&mut self, pred: &str, row: &Value, id: ObjRef) {
        let new = self.db.insert_row(pred, (row, Some(id)));
        if let (true, Some(idx)) = (new, self.index.get_mut(pred)) {
            idx.insert(id);
        }
    }

    /// Remove `row`, whose pool id is `id`.
    pub fn remove(&mut self, pred: &str, row: &Value, id: ObjRef) {
        let gone = self.db.remove_row(pred, (row, Some(id)));
        if let (true, Some(idx)) = (gone, self.index.get_mut(pred)) {
            idx.remove(id);
        }
    }

    /// Keep an emptied relation present (a rollback restores relations
    /// that existed, empty, before the batch).
    pub fn keep_relation(&mut self, pred: String) {
        if !self.db.contains_relation(&pred) {
            self.db.set(pred, Instance::default());
        }
    }

    /// Whether `pred` holds the row with pool id `id`.
    pub fn contains(&self, pred: &str, id: ObjRef) -> bool {
        self.db.get_ref(pred).is_some_and(|r| r.contains_id(id))
    }
}

/// The predicate a DATALOG¬ literal reads.
pub(crate) fn pred(step: &Step) -> &str {
    step.pred().expect("a DATALOG¬ literal reads a predicate")
}

/// Relation `pred` under `view`. An absent relation reads as empty.
fn read<'a>(pred: &str, view: View<'a>, state: &'a Store) -> Overlay<'a> {
    let base = state.db.get_ref(pred).unwrap_or(plan::empty());
    if let View::Old(log) = view {
        if let Some(d) = log.delta(pred) {
            return Overlay::undoing(base, &d.added, &d.removed);
        }
    }
    Overlay::indexed(base, state.index.get(pred))
}

/// The rows a delta literal is restricted to: a relation's net change in
/// the batch ledger, or a DRed round's newly deleted or inserted facts.
#[derive(Clone, Copy)]
pub(crate) enum Delta<'a> {
    Set(&'a BTreeSet<Value>),
    Rows(&'a [Value]),
}

impl<'a> Delta<'a> {
    fn join(self, step: &Step) -> DeltaJoin<&'a Value> {
        match self {
            Delta::Set(rows) => DeltaJoin::new(rows, step),
            Delta::Rows(rows) => DeltaJoin::new(rows, step),
        }
    }

    fn contains(self, row: &Value) -> bool {
        match self {
            Delta::Set(rows) => rows.contains(row),
            Delta::Rows(rows) => rows.contains(row),
        }
    }
}

/// Fire one rule from a `seed` binding, returning the head row's pool id
/// for every binding it derives. With `delta = Some((pos, rows))`
/// body position `pos` is restricted to `rows`, positions before it read
/// the `left` view and positions after it the `right` view; without a
/// delta every position reads `left`. For a *negated* literal at `pos`
/// the caller passes the rows whose membership flip makes the literal's
/// truth flip (the complement's delta); the join keeps a binding when its
/// instantiated atom is one of them. A positive delta literal joins
/// `rows` through a hash on its probe column; every other literal tests
/// membership when it is ground, probes the id index on a bound column,
/// or scans its view. Rederivation asks "does any derivation survive?"
/// by seeding with the head binding of a deleted fact and checking
/// non-emptiness.
pub(crate) fn delta_heads<'a>(
    plan: &Plan,
    seed: Frame<'a>,
    delta: Option<(usize, Delta<'a>)>,
    left: View<'a>,
    right: View<'a>,
    state: &'a Store,
    stats: &mut EvalStats,
) -> Result<Vec<ObjRef>, DlError> {
    let mut frames = vec![seed];
    for (i, step) in plan.body.iter().enumerate() {
        if frames.is_empty() {
            break;
        }
        frames = match delta {
            Some((pos, rows)) if pos == i => {
                if step.positive {
                    let join = rows.join(step);
                    plan.join(i, frames, Read::Delta(&join), &NO_FUNCS, stats)?
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
                let rel = read(pred(step), view, state);
                plan.join(i, frames, Read::Scan(rel), &NO_FUNCS, stats)?
            }
        };
    }
    stats.rules_fired += 1;
    stats.tuples_derived += frames.len() as u64;
    frames.iter().map(|f| Ok(plan.head_id(f)?)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_deductive::{DlAtom, DlRule, DlTerm};
    use uset_object::{atom, Pool};

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
        let store = Store::new(state.clone(), &[]);
        let old = read("E", View::Old(&log), &store);
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
        let store = Store::new(state.clone(), &[]);
        let plain: Vec<&Value> = read("F", View::Old(&log), &store).iter().collect();
        assert_eq!(
            plain,
            state.get_ref("F").unwrap().iter().collect::<Vec<_>>()
        );
        // a relation absent now reads as exactly its removed rows
        log.note_remove("G", edge(3, 3));
        let gone: Vec<&Value> = read("G", View::Old(&log), &store).iter().collect();
        assert_eq!(gone, vec![&edge(3, 3)]);
        // and the new view ignores the ledger
        assert!(read("E", View::New, &store).contains(&edge(0, 1)));
    }

    #[test]
    fn ground_literals_read_old_views_by_membership() {
        // T(x,z) ← E(x,y), T(y,z) seeded with the head T(0,2): T(1,2) is
        // ground when reached, so the old T answers by membership
        let mut state = Database::empty();
        state.set("E", Instance::from_values([edge(0, 1)]));
        state.set("T", Instance::from_values([edge(0, 1), edge(0, 2)]));
        let mut log = DeltaLog::default();
        let plan = Plan::datalog(&tc_rec_rule());
        let state = Store::new(state, std::slice::from_ref(&plan));
        let head = edge(0, 2);
        let fire = |view: View<'_>| {
            let mut stats = EvalStats::default();
            let seed = plan.seed(Pool::global().intern(&head)).unwrap();
            let heads = delta_heads(&plan, seed, None, view, view, &state, &mut stats).unwrap();
            assert_eq!((stats.index_probes, stats.scan_fallbacks), (0, 0));
            heads
        };
        assert!(fire(View::New).is_empty(), "T(1,2) is absent now");
        log.note_remove("T", edge(1, 2));
        assert_eq!(
            fire(View::Old(&log)),
            vec![Pool::global().intern(&head)],
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
        let plan = Plan::datalog(&tc_rec_rule());
        let state = Store::new(state, std::slice::from_ref(&plan));
        let heads = delta_heads(
            &plan,
            plan.frame(),
            Some((1, Delta::Set(&delta))),
            View::New,
            View::Old(&log),
            &state,
            &mut stats,
        )
        .unwrap();
        // E(x,1) has the single row (0,1) → one binding {x:0, y:1, z:2}
        assert_eq!(heads, vec![Pool::global().intern(&edge(0, 2))]);
        assert_eq!(stats.tuples_derived, 1);
    }
}
