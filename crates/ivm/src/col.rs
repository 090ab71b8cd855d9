//! COL maintenance sessions: recompute-on-apply, same surface.
//!
//! COL data functions accumulate **set values**: a function's graph at
//! the fixpoint folds together contributions from many derivations, and
//! a set, once unioned, does not remember which member came from where.
//! Retraction therefore has no compositional delta story — removing one
//! EDB row can shrink a set value that other rows also justify, and
//! deciding the survivor set is exactly a re-evaluation. Sessions over
//! COL keep the batch bookkeeping (normalization, atomic apply,
//! journaling, the `delta_applied` trace event with `fallback: true`)
//! and serve every batch by governed recomputation through the
//! `uset-opt` front doors.

use std::collections::BTreeSet;

use uset_deductive::col::eval::{ColConfig, ColState, ColStrategy};
use uset_deductive::{ColEvalError, ColProgram};
use uset_guard::ckpt::codec::{Dec, Enc};
use uset_guard::trace::TraceEvent;
use uset_guard::{ckpt, EngineId, Governor};
use uset_object::{Database, EvalStats, Value};

use crate::delta::{DeltaBatch, NormalBatch};
use crate::{ApplyReport, IvmError};

/// Which COL semantics the session materializes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColSemantics {
    /// Stratified (per-SCC fixpoints).
    Stratified,
    /// Inflationary single fixpoint.
    Inflationary,
}

/// Why every COL batch recomputes.
pub const COL_FALLBACK_REASON: &str =
    "COL data functions accumulate set values that do not decompose under retraction";

/// A materialized COL fixpoint that absorbs EDB delta batches by
/// governed recomputation.
pub struct ColSession {
    prog: ColProgram,
    config: ColConfig,
    strategy: ColStrategy,
    semantics: ColSemantics,
    governor: Governor,
    idb: BTreeSet<String>,
    edb: Database,
    state: ColState,
    build_stats: EvalStats,
    maint_stats: EvalStats,
    batches: u64,
    journal: Option<ckpt::Session>,
}

fn eval(
    prog: &ColProgram,
    db: &Database,
    config: &ColConfig,
    strategy: ColStrategy,
    semantics: ColSemantics,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<ColState, ColEvalError> {
    match semantics {
        ColSemantics::Stratified => {
            uset_opt::col_stratified(prog, db, config, strategy, governor, stats)
        }
        ColSemantics::Inflationary => {
            uset_opt::col_inflationary(prog, db, config, strategy, governor, stats)
        }
    }
}

fn fingerprint(
    prog: &ColProgram,
    config: &ColConfig,
    strategy: ColStrategy,
    semantics: ColSemantics,
    db: &Database,
) -> u64 {
    let mut e = Enc::new();
    e.put_str(&format!("{prog:?}/{config:?}/{strategy:?}"));
    e.put_u8(match semantics {
        ColSemantics::Stratified => 0,
        ColSemantics::Inflationary => 1,
    });
    e.put_database(db);
    ckpt::codec::fnv64(&e.finish())
}

fn decode_recovery(rec: &ckpt::Recovered) -> Option<(Database, EvalStats, u64)> {
    let mut d = Dec::new(&rec.payload);
    let mut edb = d.database().ok()?;
    for delta in &rec.deltas {
        NormalBatch::decode(delta)?.apply_to(&mut edb);
    }
    Some((edb, rec.stats, rec.round))
}

/// Count facts (predicate rows plus function memberships) present in
/// `new` but not `old`, and vice versa.
fn col_diff(old: &ColState, new: &ColState) -> (u64, u64) {
    fn one_way(a: &ColState, b: &ColState) -> u64 {
        let mut n = 0u64;
        for (name, inst) in &a.preds {
            match b.preds.get(name) {
                Some(other) => n += inst.iter().filter(|r| !other.contains(r)).count() as u64,
                None => n += inst.len() as u64,
            }
        }
        for (func, graph) in &a.funcs {
            let other = b.funcs.get(func);
            for (args, members) in graph {
                let oset: Option<&BTreeSet<Value>> = other.and_then(|g| g.get(args));
                n += members
                    .iter()
                    .filter(|m| !oset.is_some_and(|s| s.contains(*m)))
                    .count() as u64;
            }
        }
        n
    }
    (one_way(new, old), one_way(old, new))
}

impl ColSession {
    /// Build the session: materialize the fixpoint and open the journal.
    pub fn new(
        prog: ColProgram,
        db: &Database,
        config: ColConfig,
        strategy: ColStrategy,
        semantics: ColSemantics,
        governor: &Governor,
    ) -> Result<ColSession, IvmError> {
        let governor = governor.clone();
        let idb: BTreeSet<String> = prog
            .rules
            .iter()
            .map(|r| r.head_symbol().to_owned())
            .collect();
        let guard = governor.guard(EngineId::Ivm);
        let mut journal =
            guard.ckpt_session(|| fingerprint(&prog, &config, strategy, semantics, db));
        let mut edb = db.clone();
        let mut maint_stats = EvalStats::default();
        let mut batches = 0u64;
        if let Some(rec) = journal.as_mut().and_then(|j| j.recover()) {
            if let Some((redb, rstats, rround)) = decode_recovery(&rec) {
                edb = redb;
                maint_stats = rstats;
                batches = rround;
            }
        }
        let mut build_stats = EvalStats::default();
        let state = eval(
            &prog,
            &edb,
            &config,
            strategy,
            semantics,
            &governor,
            &mut build_stats,
        )
        .map_err(IvmError::Col)?;
        Ok(ColSession {
            prog,
            config,
            strategy,
            semantics,
            governor,
            idb,
            edb,
            state,
            build_stats,
            maint_stats,
            batches,
            journal,
        })
    }

    /// The materialized state, bit-identical to evaluating the program
    /// on [`Self::edb`] from scratch.
    pub fn state(&self) -> &ColState {
        &self.state
    }

    /// The extensional database as of the last applied batch.
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// Counters of the last recomputation.
    pub fn build_stats(&self) -> &EvalStats {
        &self.build_stats
    }

    /// Cumulative work across applied batches.
    pub fn maint_stats(&self) -> &EvalStats {
        &self.maint_stats
    }

    /// Whether applied batches are journaled for crash recovery. False
    /// when the governor asked for no checkpoints, and when another live
    /// session in this process owns the journal directory: every
    /// maintenance session under one spec journals to `<dir>/ivm/`, and
    /// only the first to open it does so until it finishes or drops.
    pub fn journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// Batches applied so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Why the session recomputes every batch.
    pub fn fallback_reason(&self) -> &'static str {
        COL_FALLBACK_REASON
    }

    /// Apply one batch atomically by recomputation. On `Err` the session
    /// still holds the pre-batch state.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, IvmError> {
        for rel in batch.relations() {
            if self.idb.contains(rel) {
                return Err(IvmError::NotEdb {
                    pred: rel.to_owned(),
                });
            }
        }
        let norm = batch.normalize(&self.edb);
        let inserted = norm.inserted();
        let retracted = norm.retracted();
        let before = self.edb.clone();
        norm.apply_to(&mut self.edb);
        let mut fresh = EvalStats::default();
        let new_state = match eval(
            &self.prog,
            &self.edb,
            &self.config,
            self.strategy,
            self.semantics,
            &self.governor,
            &mut fresh,
        ) {
            Ok(s) => s,
            Err(e) => {
                self.edb = before;
                return Err(match e {
                    ColEvalError::Exhausted(ex) => {
                        let ex = *ex;
                        IvmError::Exhausted {
                            trip: ex.trip,
                            stats: ex.stats,
                        }
                    }
                    other => IvmError::Col(other),
                });
            }
        };
        let (added, removed) = col_diff(&self.state, &new_state);
        let idb_added = added.saturating_sub(inserted);
        let idb_removed = removed.saturating_sub(retracted);
        self.state = new_state;
        self.build_stats = fresh;
        self.maint_stats.absorb(&fresh);
        self.batches += 1;
        let batch_no = self.batches;
        self.governor.trace.emit(|| TraceEvent::DeltaApplied {
            engine: "ivm".to_owned(),
            batch: batch_no,
            inserted,
            retracted,
            idb_added,
            idb_removed,
            fallback: true,
        });
        if let Some(journal) = self.journal.as_mut() {
            let guard = self.governor.guard(EngineId::Ivm);
            let rc = guard.round_ckpt(self.batches, &self.maint_stats, norm.encode());
            let edb = &self.edb;
            journal.commit_delta(&rc, || {
                let mut e = Enc::new();
                e.put_database(edb);
                e.finish()
            });
        }
        Ok(ApplyReport {
            batch: self.batches,
            inserted,
            retracted,
            idb_added,
            idb_removed,
            fallback: true,
            stats: fresh,
        })
    }

    /// Close the checkpoint journal cleanly, if one is open.
    pub fn finish(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_deductive::col::ast::{ColLiteral, ColRule, ColTerm};
    use uset_object::{atom, Instance};

    fn v(name: &str) -> ColTerm {
        ColTerm::var(name)
    }

    // P(x,y) ← E(x,y)  (predicate projection, enough to exercise apply)
    fn prog() -> ColProgram {
        ColProgram {
            rules: vec![ColRule::pred(
                "P",
                vec![v("x"), v("y")],
                vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
            )],
        }
    }

    fn edge(a: u64, b: u64) -> Value {
        Value::Tuple(vec![atom(a), atom(b)])
    }

    #[test]
    fn col_apply_recomputes_and_reports_fallback() {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows([[atom(0u64), atom(1u64)], [atom(1u64), atom(2u64)]]),
        );
        let gov = Governor::unlimited();
        let mut s = ColSession::new(
            prog(),
            &db,
            ColConfig::default(),
            ColStrategy::Seminaive,
            ColSemantics::Stratified,
            &gov,
        )
        .unwrap();
        let rep = s
            .apply(&DeltaBatch::new().retract("E", edge(0, 1)))
            .unwrap();
        assert!(rep.fallback);
        assert_eq!(rep.retracted, 1);
        assert!(!s.state().preds["P"].contains(&edge(0, 1)));
        // bit-identical to from-scratch on the updated EDB
        let mut stats = EvalStats::default();
        let fresh = eval(
            &prog(),
            s.edb(),
            &ColConfig::default(),
            ColStrategy::Seminaive,
            ColSemantics::Stratified,
            &gov,
            &mut stats,
        )
        .unwrap();
        assert_eq!(s.state(), &fresh);
        assert_eq!(s.build_stats(), &stats);
    }

    #[test]
    fn col_rejects_idb_batches() {
        let mut db = Database::empty();
        db.set("E", Instance::from_rows([[atom(0u64), atom(1u64)]]));
        let mut s = ColSession::new(
            prog(),
            &db,
            ColConfig::default(),
            ColStrategy::Naive,
            ColSemantics::Stratified,
            &Governor::unlimited(),
        )
        .unwrap();
        let err = s
            .apply(&DeltaBatch::new().insert("P", edge(7, 8)))
            .unwrap_err();
        assert!(matches!(err, IvmError::NotEdb { pred } if pred == "P"));
    }
}
