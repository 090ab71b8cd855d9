//! The DATALOG¬ maintenance session: counting + DRed, stratum at a time.
//!
//! A [`DatalogSession`] materializes a program's fixpoint once (through
//! the `uset-opt` front doors, so the `USET_OPT` knob applies) and then
//! keeps it synchronized with EDB delta batches. Strata are maintained
//! in dependency order — the order [`uset_opt::maintenance_plan`] emits
//! them in — so by the time a stratum runs, every relation below it
//! already has its post-batch value in the state and its net change in
//! the batch's delta log. That is what makes negation safe: a negated
//! literal always refers to a *settled* lower stratum, and its delta is
//! the complement's delta with the signs flipped.
//!
//! Apply is atomic. Every mutation (state row, EDB row, support count)
//! is journaled in an undo log; a budget trip or evaluation error
//! replays the log backwards and returns [`IvmError::Exhausted`] with
//! the session still holding the pre-batch state.
//!
//! Facts move through maintenance as pool ids: firings derive head ids,
//! the DRed sets and membership tests are keyed by id, and a row's tree
//! is built once, when it enters or leaves the state. State mutations,
//! rollback included, keep the session's id index current (`fire::Store`).

use std::collections::{BTreeMap, BTreeSet, HashMap};

use uset_deductive::plan::{Plan, Step};
use uset_deductive::{DatalogProgram, DlError};
use uset_guard::ckpt::codec::{Dec, Enc};
use uset_guard::trace::TraceEvent;
use uset_guard::{ckpt, EngineId, Governor, Guard, TraceHandle, Trip};
use uset_object::intern::FxBuildHasher;
use uset_object::{Database, EvalStats, Instance, ObjRef, Pool, Value};
use uset_opt::{maintenance_plan, MaintPlan, MaintStratum, StratumPlan};
use uset_par::par_map;

use crate::delta::{DeltaBatch, DeltaLog, NormalBatch};
use crate::fire::{delta_heads, pred, Delta, Store, View};
use crate::{ApplyReport, IvmError, IvmMode, Semantics};

/// A long-lived materialized DATALOG¬ fixpoint that absorbs EDB delta
/// batches. See the crate docs for the algorithm split.
pub struct DatalogSession {
    prog: DatalogProgram,
    /// Each rule compiled once, for every delta-rule firing.
    plans: Vec<Plan>,
    semantics: Semantics,
    plan: MaintPlan,
    governor: Governor,
    /// The extensional database as of the last applied batch.
    edb: Database,
    /// The materialized state (EDB relations + derived IDB relations),
    /// with its id index.
    state: Store,
    /// Per-fact derivation counts for counting strata. Counts exclude
    /// EDB-seeded occurrences: a seeded fact is an axiom and survives a
    /// count of zero.
    counts: BTreeMap<String, BTreeMap<Value, i64>>,
    /// Counters of the initial build (or the last fallback recompute).
    build_stats: EvalStats,
    /// Cumulative maintenance work across all applied batches.
    maint_stats: EvalStats,
    batches: u64,
    journal: Option<ckpt::Session>,
}

/// Internal maintenance failure, before rollback decides the public face.
enum MaintErr {
    Trip(Trip),
    Dl(DlError),
}

impl From<Trip> for MaintErr {
    fn from(t: Trip) -> MaintErr {
        MaintErr::Trip(t)
    }
}

impl From<DlError> for MaintErr {
    fn from(e: DlError) -> MaintErr {
        MaintErr::Dl(e)
    }
}

/// One reversible mutation, replayed backwards on rollback. Row ops
/// carry the row's pool id. Insert ops carry whether the relation
/// already existed (possibly empty) before the insert: `remove_row`
/// prunes a relation whose last row goes, and a rollback must restore
/// *explicitly-present-but-empty* relations — `Database::PartialEq`
/// distinguishes them from absent ones.
enum UndoOp {
    /// A row was inserted into the state.
    StateAdd(String, Value, ObjRef, bool),
    /// A row was removed from the state.
    StateDel(String, Value, ObjRef),
    /// A row was inserted into the EDB.
    EdbAdd(String, Value, ObjRef, bool),
    /// A row was removed from the EDB.
    EdbDel(String, Value, ObjRef),
    /// A support count changed; the payload is the *old* count (0 means
    /// the entry was absent).
    Count(String, Value, i64),
}

fn rollback(
    undo: Vec<UndoOp>,
    edb: &mut Database,
    state: &mut Store,
    counts: &mut BTreeMap<String, BTreeMap<Value, i64>>,
) {
    for op in undo.into_iter().rev() {
        match op {
            UndoOp::StateAdd(p, r, id, had_rel) => {
                state.remove(&p, &r, id);
                if had_rel {
                    state.keep_relation(p);
                }
            }
            UndoOp::StateDel(p, r, id) => {
                state.insert(&p, &r, id);
            }
            UndoOp::EdbAdd(p, r, id, had_rel) => {
                edb.remove_row(&p, (&r, Some(id)));
                if had_rel && !edb.contains_relation(&p) {
                    edb.set(p, Instance::default());
                }
            }
            UndoOp::EdbDel(p, r, id) => {
                edb.insert_row(&p, (&r, Some(id)));
            }
            UndoOp::Count(p, r, old) => {
                let pc = counts.entry(p.clone()).or_default();
                if old == 0 {
                    pc.remove(&r);
                } else {
                    pc.insert(r, old);
                }
                if pc.is_empty() {
                    counts.remove(&p);
                }
            }
        }
    }
}

fn total_facts(db: &Database) -> usize {
    db.iter().map(|(_, inst)| inst.len()).sum()
}

fn eval(
    prog: &DatalogProgram,
    semantics: Semantics,
    db: &Database,
    governor: &Governor,
    stats: &mut EvalStats,
) -> Result<Database, DlError> {
    match semantics {
        Semantics::Stratified => uset_opt::eval_stratified(prog, db, governor, stats),
        Semantics::StratifiedSeminaive => {
            uset_opt::eval_stratified_seminaive(prog, db, governor, stats)
        }
        Semantics::Inflationary => uset_opt::eval_inflationary(prog, db, governor, stats),
    }
}

fn fingerprint(prog: &DatalogProgram, semantics: Semantics, db: &Database) -> u64 {
    let mut e = Enc::new();
    e.put_str(&format!("{prog:?}"));
    e.put_u8(match semantics {
        Semantics::Stratified => 0,
        Semantics::StratifiedSeminaive => 1,
        Semantics::Inflationary => 2,
    });
    e.put_database(db);
    ckpt::codec::fnv64(&e.finish())
}

/// Fold a recovered journal back into the EDB it describes.
fn decode_recovery(rec: &ckpt::Recovered) -> Option<(Database, EvalStats, u64)> {
    let mut d = Dec::new(&rec.payload);
    let mut edb = d.database().ok()?;
    for delta in &rec.deltas {
        NormalBatch::decode(delta)?.apply_to(&mut edb);
    }
    Some((edb, rec.stats, rec.round))
}

impl DatalogSession {
    /// Build the session: materialize the fixpoint, plan maintenance,
    /// and seed support counts for the counting strata. The mode comes
    /// from `USET_IVM`.
    pub fn new(
        prog: DatalogProgram,
        db: &Database,
        semantics: Semantics,
        governor: &Governor,
    ) -> Result<DatalogSession, IvmError> {
        DatalogSession::with_mode(prog, db, semantics, governor, IvmMode::from_env())
    }

    /// [`DatalogSession::new`] with an explicit mode (tests and callers
    /// that must not consult the environment).
    pub fn with_mode(
        prog: DatalogProgram,
        db: &Database,
        semantics: Semantics,
        governor: &Governor,
        mode: IvmMode,
    ) -> Result<DatalogSession, IvmError> {
        prog.check_safety().map_err(IvmError::Datalog)?;
        let governor = governor.clone();
        let mut guard = governor.guard(EngineId::Ivm);
        let mut journal = guard.ckpt_session(|| fingerprint(&prog, semantics, db));
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
        let state =
            eval(&prog, semantics, &edb, &governor, &mut build_stats).map_err(IvmError::Datalog)?;
        let plan = match (semantics, mode) {
            (Semantics::Inflationary, _) => MaintPlan::Recompute(
                "inflationary fixpoints are not change-monotone; retraction invalidates \
                 the firing history"
                    .to_owned(),
            ),
            (_, IvmMode::Recompute) => {
                MaintPlan::Recompute("forced by USET_IVM=recompute".to_owned())
            }
            (_, IvmMode::Auto) => maintenance_plan(&prog),
        };
        let plans: Vec<Plan> = prog.rules.iter().map(Plan::datalog).collect();
        // only incremental maintenance reads the index
        let indexed: &[Plan] = match &plan {
            MaintPlan::Incremental(_) => &plans,
            MaintPlan::Recompute(_) => &[],
        };
        let state = Store::new(state, indexed);
        let mut counts = BTreeMap::new();
        if let MaintPlan::Incremental(strata) = &plan {
            init_counts(
                &plans,
                strata,
                &state,
                &mut counts,
                &mut guard,
                &mut maint_stats,
            )
            .map_err(|e| match e {
                MaintErr::Trip(trip) => IvmError::Exhausted {
                    trip,
                    stats: maint_stats,
                },
                MaintErr::Dl(d) => IvmError::Datalog(d),
            })?;
        }
        Ok(DatalogSession {
            prog,
            plans,
            semantics,
            plan,
            governor,
            edb,
            state,
            counts,
            build_stats,
            maint_stats,
            batches,
            journal,
        })
    }

    /// The materialized state (EDB relations plus derived relations),
    /// bit-identical to evaluating the program on [`Self::edb`] from
    /// scratch.
    pub fn state(&self) -> &Database {
        self.state.db()
    }

    /// The extensional database as of the last applied batch.
    pub fn edb(&self) -> &Database {
        &self.edb
    }

    /// The static maintenance plan.
    pub fn plan(&self) -> &MaintPlan {
        &self.plan
    }

    /// The session's semantics.
    pub fn semantics(&self) -> Semantics {
        self.semantics
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

    /// Counters of the initial build (or last fallback recompute).
    pub fn build_stats(&self) -> &EvalStats {
        &self.build_stats
    }

    /// Cumulative maintenance work across applied batches.
    pub fn maint_stats(&self) -> &EvalStats {
        &self.maint_stats
    }

    /// Apply one batch atomically: on `Ok` the state equals a
    /// from-scratch evaluation of the updated EDB; on `Err` nothing
    /// changed.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, IvmError> {
        let idb = self.prog.idb_predicates();
        for rel in batch.relations() {
            if idb.contains(rel) {
                return Err(IvmError::NotEdb {
                    pred: rel.to_owned(),
                });
            }
        }
        let norm = batch.normalize(&self.edb);
        let inserted = norm.inserted();
        let retracted = norm.retracted();
        let mut stats = EvalStats::default();
        let mut guard = self.governor.guard(EngineId::Ivm);
        let mut fallback = false;
        let (idb_added, idb_removed) = match self.plan.clone() {
            MaintPlan::Incremental(strata) => {
                self.apply_incremental(&strata, &norm, &mut guard, &mut stats)?
            }
            MaintPlan::Recompute(_) => {
                fallback = true;
                self.apply_recompute(&norm, &mut stats)?
            }
        };
        self.batches += 1;
        self.maint_stats.absorb(&stats);
        let batch_no = self.batches;
        self.governor.trace.emit(|| TraceEvent::DeltaApplied {
            engine: "ivm".to_owned(),
            batch: batch_no,
            inserted,
            retracted,
            idb_added,
            idb_removed,
            fallback,
        });
        if let Some(journal) = self.journal.as_mut() {
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
            fallback,
            stats,
        })
    }

    /// Close the checkpoint journal cleanly, if one is open.
    pub fn finish(&mut self) {
        if let Some(j) = self.journal.as_mut() {
            j.finish();
        }
    }

    fn apply_incremental(
        &mut self,
        strata: &[MaintStratum],
        norm: &NormalBatch,
        guard: &mut Guard,
        stats: &mut EvalStats,
    ) -> Result<(u64, u64), IvmError> {
        let mut undo: Vec<UndoOp> = Vec::new();
        let res = run_incremental(
            &self.plans,
            strata,
            norm,
            &mut self.edb,
            &mut self.state,
            &mut self.counts,
            guard,
            stats,
            &mut undo,
            &self.governor.trace,
        );
        match res {
            Ok(pair) => Ok(pair),
            Err(e) => {
                rollback(undo, &mut self.edb, &mut self.state, &mut self.counts);
                Err(match e {
                    MaintErr::Trip(trip) => IvmError::Exhausted {
                        trip,
                        stats: *stats,
                    },
                    MaintErr::Dl(d) => IvmError::Datalog(d),
                })
            }
        }
    }

    fn apply_recompute(
        &mut self,
        norm: &NormalBatch,
        stats: &mut EvalStats,
    ) -> Result<(u64, u64), IvmError> {
        let mut undo: Vec<UndoOp> = Vec::new();
        let pool = Pool::global();
        for (rel, rows) in &norm.removed {
            for row in rows.iter() {
                let id = pool.intern(row);
                self.edb.remove_row(rel, (row, Some(id)));
                undo.push(UndoOp::EdbDel(rel.clone(), row.clone(), id));
            }
        }
        for (rel, rows) in &norm.added {
            for row in rows.iter() {
                let id = pool.intern(row);
                let had_rel = self.edb.contains_relation(rel);
                self.edb.insert_row(rel, (row, Some(id)));
                undo.push(UndoOp::EdbAdd(rel.clone(), row.clone(), id, had_rel));
            }
        }
        let mut fresh = EvalStats::default();
        match eval(
            &self.prog,
            self.semantics,
            &self.edb,
            &self.governor,
            &mut fresh,
        ) {
            Ok(new_state) => {
                let (added, removed) = db_diff(self.state.db(), &new_state);
                self.state.replace(new_state);
                self.build_stats = fresh;
                stats.absorb(&fresh);
                Ok((
                    added.saturating_sub(norm.inserted()),
                    removed.saturating_sub(norm.retracted()),
                ))
            }
            Err(e) => {
                rollback(undo, &mut self.edb, &mut self.state, &mut self.counts);
                Err(match e {
                    DlError::Exhausted(ex) => {
                        let ex = *ex;
                        IvmError::Exhausted {
                            trip: ex.trip,
                            stats: ex.stats,
                        }
                    }
                    other => IvmError::Datalog(other),
                })
            }
        }
    }
}

/// Count rows present in `new` but not `old`, and vice versa.
fn db_diff(old: &Database, new: &Database) -> (u64, u64) {
    let mut added = 0u64;
    let mut removed = 0u64;
    for (name, inst) in new.iter() {
        match old.get_ref(name) {
            Some(o) => added += inst.iter().filter(|r| !o.contains(r)).count() as u64,
            None => added += inst.len() as u64,
        }
    }
    for (name, inst) in old.iter() {
        match new.get_ref(name) {
            Some(n) => removed += inst.iter().filter(|r| !n.contains(r)).count() as u64,
            None => removed += inst.len() as u64,
        }
    }
    (added, removed)
}

/// Seed the support counts of every counting stratum by evaluating each
/// defining rule's body once against the freshly built state: the count
/// of a fact is exactly its number of (rule, binding) derivations.
fn init_counts(
    plans: &[Plan],
    strata: &[MaintStratum],
    state: &Store,
    counts: &mut BTreeMap<String, BTreeMap<Value, i64>>,
    guard: &mut Guard,
    stats: &mut EvalStats,
) -> Result<(), MaintErr> {
    for stratum in strata {
        if stratum.plan != StratumPlan::Counting {
            continue;
        }
        for &ri in &stratum.rules {
            guard.step()?;
            let plan = &plans[ri];
            let heads = delta_heads(plan, plan.frame(), None, View::New, View::New, state, stats)?;
            let pc = counts.entry(plan.defines().to_owned()).or_default();
            for id in heads {
                *pc.entry(Pool::global().resolve(id)).or_insert(0) += 1;
            }
        }
    }
    Ok(())
}

/// Does any rule of this stratum consume a relation the batch changed?
fn stratum_touched(plans: &[Plan], stratum: &MaintStratum, log: &DeltaLog) -> bool {
    stratum.rules.iter().any(|&ri| {
        plans[ri]
            .body
            .iter()
            .any(|step| log.delta(pred(step)).is_some())
    })
}

#[allow(clippy::too_many_arguments)]
fn run_incremental(
    plans: &[Plan],
    strata: &[MaintStratum],
    norm: &NormalBatch,
    edb: &mut Database,
    state: &mut Store,
    counts: &mut BTreeMap<String, BTreeMap<Value, i64>>,
    guard: &mut Guard,
    stats: &mut EvalStats,
    undo: &mut Vec<UndoOp>,
    trace: &TraceHandle,
) -> Result<(u64, u64), MaintErr> {
    guard.set_fact_base(total_facts(state.db()))?;
    let mut log = DeltaLog::default();
    let pool = Pool::global();
    // 1. the EDB delta itself (state carries EDB relations too); each
    // row is interned once
    for (rel, rows) in &norm.removed {
        for row in rows.iter() {
            let id = pool.intern(row);
            state.remove(rel, row, id);
            undo.push(UndoOp::StateDel(rel.clone(), row.clone(), id));
            edb.remove_row(rel, (row, Some(id)));
            undo.push(UndoOp::EdbDel(rel.clone(), row.clone(), id));
            guard.remove_fact()?;
            log.note_remove(rel, row.clone());
        }
    }
    for (rel, rows) in &norm.added {
        for row in rows.iter() {
            let id = pool.intern(row);
            let had_state_rel = state.db().contains_relation(rel);
            state.insert(rel, row, id);
            undo.push(UndoOp::StateAdd(
                rel.clone(),
                row.clone(),
                id,
                had_state_rel,
            ));
            let had_edb_rel = edb.contains_relation(rel);
            edb.insert_row(rel, (row, Some(id)));
            undo.push(UndoOp::EdbAdd(rel.clone(), row.clone(), id, had_edb_rel));
            guard.add_fact()?;
            log.note_add(rel, row.clone());
        }
    }
    // 2. strata in dependency order
    let mut idb_added = 0u64;
    let mut idb_removed = 0u64;
    for (si, stratum) in strata.iter().enumerate() {
        match stratum.plan {
            StratumPlan::Counting => {
                let (a, r) = maintain_counting(
                    plans, stratum, edb, state, counts, &mut log, guard, stats, undo,
                )?;
                idb_added += a;
                idb_removed += r;
            }
            StratumPlan::DRed => {
                let out = maintain_dred(plans, stratum, edb, state, &mut log, guard, stats, undo)?;
                idb_added += out.added;
                idb_removed += out.removed;
                if out.overdeleted > 0 || out.reinserted > 0 {
                    let (od, rd, ri) = (out.overdeleted, out.rederived, out.reinserted);
                    trace.emit(|| TraceEvent::Rederived {
                        engine: "ivm".to_owned(),
                        stratum: si,
                        overdeleted: od,
                        rederived: rd,
                        reinserted: ri,
                    });
                }
            }
        }
    }
    stats.observe_facts(total_facts(state.db()));
    Ok((idb_added, idb_removed))
}

/// Counting maintenance for one non-recursive stratum: accumulate signed
/// derivation-count deltas through the telescoped delta rules, then
/// apply them. A fact is present iff it is EDB-seeded or its count is
/// positive.
#[allow(clippy::too_many_arguments)]
fn maintain_counting(
    plans: &[Plan],
    stratum: &MaintStratum,
    edb: &Database,
    state: &mut Store,
    counts: &mut BTreeMap<String, BTreeMap<Value, i64>>,
    log: &mut DeltaLog,
    guard: &mut Guard,
    stats: &mut EvalStats,
    undo: &mut Vec<UndoOp>,
) -> Result<(u64, u64), MaintErr> {
    if !stratum_touched(plans, stratum, log) {
        return Ok((0, 0));
    }
    let mut signed: BTreeMap<&str, HashMap<ObjRef, i64, FxBuildHasher>> = BTreeMap::new();
    for &ri in &stratum.rules {
        let plan = &plans[ri];
        for (i, lit) in plan.body.iter().enumerate() {
            let Some(d) = log.delta(pred(lit)) else {
                continue;
            };
            // a negated literal is its relation's complement: rows
            // leaving the relation are gains, rows entering are losses
            let passes: [(&BTreeSet<Value>, i64); 2] = if lit.positive {
                [(&d.added, 1), (&d.removed, -1)]
            } else {
                [(&d.removed, 1), (&d.added, -1)]
            };
            for (rows, sign) in passes {
                if rows.is_empty() {
                    continue;
                }
                guard.step()?;
                let heads = delta_heads(
                    plan,
                    plan.frame(),
                    Some((i, Delta::Set(rows))),
                    View::New,
                    View::Old(log),
                    state,
                    stats,
                )?;
                let by_id = signed.entry(plan.defines()).or_default();
                for id in heads {
                    *by_id.entry(id).or_insert(0) += sign;
                }
            }
        }
    }
    stats.rounds += 1;
    let mut added = 0u64;
    let mut removed = 0u64;
    for (pred, by_id) in signed {
        // the count changes apply in canonical (relation, row) order
        let mut net: Vec<(Value, ObjRef, i64)> = by_id
            .into_iter()
            .filter(|&(_, d)| d != 0)
            .map(|(id, d)| (Pool::global().resolve(id), id, d))
            .collect();
        net.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let seeded_rel = edb.get_ref(pred);
        for (row, id, delta) in net {
            let pc = counts.entry(pred.to_owned()).or_default();
            let old = pc.get(&row).copied().unwrap_or(0);
            let new = old + delta;
            debug_assert!(new >= 0, "support count of {pred} went negative");
            undo.push(UndoOp::Count(pred.to_owned(), row.clone(), old));
            if new == 0 {
                pc.remove(&row);
            } else {
                pc.insert(row.clone(), new);
            }
            let seeded = seeded_rel.is_some_and(|r| r.contains_id(id));
            let was = old > 0 || seeded;
            let now = new > 0 || seeded;
            if was && !now {
                state.remove(pred, &row, id);
                undo.push(UndoOp::StateDel(pred.to_owned(), row.clone(), id));
                guard.remove_fact()?;
                log.note_remove(pred, row);
                removed += 1;
            } else if !was && now {
                let had_rel = state.db().contains_relation(pred);
                state.insert(pred, &row, id);
                undo.push(UndoOp::StateAdd(pred.to_owned(), row.clone(), id, had_rel));
                guard.add_fact()?;
                log.note_add(pred, row);
                added += 1;
            }
        }
    }
    stats.observe_facts(total_facts(state.db()));
    Ok((added, removed))
}

#[derive(Default)]
struct DredOut {
    added: u64,
    removed: u64,
    overdeleted: u64,
    rederived: u64,
    reinserted: u64,
}

/// A stratum's facts keyed by pool id, each with its row: the DRed
/// over-deletion set.
type ById = BTreeMap<String, HashMap<ObjRef, Value, FxBuildHasher>>;

/// Facts derived in one DRed round, fed to the next as its delta.
type Pending = BTreeMap<String, Vec<Value>>;

fn consider_delete(
    pred: &str,
    id: ObjRef,
    state: &Store,
    edb: &Database,
    deleted: &mut ById,
    pending: &mut Pending,
) {
    if !state.contains(pred, id) {
        return;
    }
    // an EDB-seeded fact is an axiom, never a deletion candidate
    if edb.get_ref(pred).is_some_and(|r| r.contains_id(id)) {
        return;
    }
    if deleted.get(pred).is_some_and(|d| d.contains_key(&id)) {
        return;
    }
    let row = Pool::global().resolve(id);
    pending
        .entry(pred.to_owned())
        .or_default()
        .push(row.clone());
    deleted.entry(pred.to_owned()).or_default().insert(id, row);
}

/// Can the deleted fact with pool id `row` still be derived from the
/// current state?
fn rederivable(
    plans: &[Plan],
    stratum: &MaintStratum,
    pred: &str,
    row: ObjRef,
    state: &Store,
    stats: &mut EvalStats,
) -> Result<bool, DlError> {
    for &ri in &stratum.rules {
        let plan = &plans[ri];
        if plan.defines() != pred {
            continue;
        }
        let Some(seed) = plan.seed(row) else {
            continue;
        };
        let heads = delta_heads(plan, seed, None, View::New, View::New, state, stats)?;
        if !heads.is_empty() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Delete-and-rederive for one recursive stratum.
///
/// Phase 1 computes the over-deletion set against the **old** views
/// (state is untouched until the set converges, so same-stratum
/// relations read correctly), excluding EDB-seeded axioms. Phase 2
/// repeatedly re-checks the deleted facts against the current state —
/// each pass is embarrassingly parallel over candidates and is sharded
/// across the guard's workers, with per-candidate counters absorbed in
/// canonical order so the result and stats are identical at any width.
/// Phase 3 seeds insertions from the lower relations' gains and
/// propagates them semi-naively within the stratum.
#[allow(clippy::too_many_arguments)]
fn maintain_dred(
    plans: &[Plan],
    stratum: &MaintStratum,
    edb: &Database,
    state: &mut Store,
    log: &mut DeltaLog,
    guard: &mut Guard,
    stats: &mut EvalStats,
    undo: &mut Vec<UndoOp>,
) -> Result<DredOut, MaintErr> {
    let mut out = DredOut::default();
    if !stratum_touched(plans, stratum, log) {
        return Ok(out);
    }

    // ---- phase 1: over-delete at old views -------------------------
    let mut deleted = ById::new();
    let over_delete = |pred: &str, id, state: &mut Store, _: &mut Guard, next: &mut Pending| {
        consider_delete(pred, id, state, edb, &mut deleted, next);
        Ok(())
    };
    propagate(plans, stratum, log, false, state, guard, stats, over_delete)?;
    // every later state mutation runs in canonical (relation, row) order
    let gone: Vec<(&str, &Value, ObjRef)> = deleted
        .iter()
        .flat_map(|(pred, rows)| {
            let mut rows: Vec<_> = rows
                .iter()
                .map(|(&id, row)| (pred.as_str(), row, id))
                .collect();
            rows.sort_unstable_by(|a, b| a.1.cmp(b.1));
            rows
        })
        .collect();
    for &(pred, row, id) in &gone {
        state.remove(pred, row, id);
        undo.push(UndoOp::StateDel(pred.to_owned(), row.clone(), id));
        guard.remove_fact()?;
        out.overdeleted += 1;
    }

    // ---- phase 2: rederive what still has an independent proof -----
    let mut remaining = gone.clone();
    let workers = guard.workers();
    while !remaining.is_empty() {
        stats.rounds += 1;
        let frozen: &Store = state;
        let check = |&(pred, _, id): &(&str, &Value, ObjRef)| {
            let mut s = EvalStats::default();
            let ok = rederivable(plans, stratum, pred, id, frozen, &mut s);
            (ok, s)
        };
        let results: Vec<(Result<bool, DlError>, EvalStats)> = if workers > 1 && remaining.len() > 1
        {
            par_map(workers, &remaining, |_, fact| check(fact))
        } else {
            remaining.iter().map(check).collect()
        };
        let mut alive = Vec::new();
        let mut progressed = false;
        for ((pred, row, id), (ok, s)) in remaining.into_iter().zip(results) {
            stats.absorb(&s);
            guard.step()?;
            match ok {
                Err(e) => return Err(MaintErr::Dl(e)),
                Ok(true) => {
                    let had_rel = state.db().contains_relation(pred);
                    state.insert(pred, row, id);
                    undo.push(UndoOp::StateAdd(pred.to_owned(), row.clone(), id, had_rel));
                    guard.add_fact()?;
                    out.rederived += 1;
                    out.reinserted += 1;
                    progressed = true;
                }
                Ok(false) => alive.push((pred, row, id)),
            }
        }
        remaining = alive;
        if !progressed {
            break;
        }
    }

    // ---- phase 3: insertions, semi-naive within the stratum --------
    let mut inserted: Vec<(String, Value, ObjRef)> = Vec::new();
    let insert = |pred: &str, id, state: &mut Store, guard: &mut Guard, next: &mut Pending| {
        insert_new(pred, id, state, undo, guard, next, &mut inserted)
    };
    propagate(plans, stratum, log, true, state, guard, stats, insert)?;

    // ---- net bookkeeping for downstream strata ---------------------
    for &(pred, row, id) in &gone {
        if !state.contains(pred, id) {
            log.note_remove(pred, row.clone());
            out.removed += 1;
        }
    }
    for (pred, row, id) in inserted {
        if deleted.get(&pred).is_some_and(|d| d.contains_key(&id)) {
            out.reinserted += 1; // a phase-3 restoration of an over-deleted fact
        } else {
            log.note_add(&pred, row);
            out.added += 1;
        }
    }
    stats.observe_facts(total_facts(state.db()));
    Ok(out)
}

/// Push one side of a batch through a recursive stratum semi-naively:
/// first each rule once per literal over a lower relation the batch
/// changed on that side (its gains when `gains`, else its losses; a
/// negated literal's side is its relation's other set), then, round by
/// round, once per positive literal over the facts of the stratum's own
/// relations `sink` queued in the round before. Every head derived goes
/// to `sink`. Losses are read at the pre-batch views, gains at the
/// current ones.
#[allow(clippy::too_many_arguments)]
fn propagate(
    plans: &[Plan],
    stratum: &MaintStratum,
    log: &DeltaLog,
    gains: bool,
    state: &mut Store,
    guard: &mut Guard,
    stats: &mut EvalStats,
    mut sink: impl FnMut(&str, ObjRef, &mut Store, &mut Guard, &mut Pending) -> Result<(), MaintErr>,
) -> Result<(), MaintErr> {
    let own = |lit: &Step| stratum.preds.contains(pred(lit));
    let view = if gains { View::New } else { View::Old(log) };
    let mut cur: Option<Pending> = None;
    loop {
        let mut next = Pending::new();
        for &ri in &stratum.rules {
            let plan = &plans[ri];
            for (i, lit) in plan.body.iter().enumerate() {
                let rows = match &cur {
                    None if own(lit) => continue,
                    None => {
                        let Some(d) = log.delta(pred(lit)) else {
                            continue;
                        };
                        let rows = if lit.positive == gains {
                            &d.added
                        } else {
                            &d.removed
                        };
                        if rows.is_empty() {
                            continue;
                        }
                        Delta::Set(rows)
                    }
                    Some(cur) => match cur.get(pred(lit)) {
                        Some(rows) if lit.positive && own(lit) => Delta::Rows(rows),
                        _ => continue,
                    },
                };
                guard.step()?;
                let delta = Some((i, rows));
                let heads = delta_heads(plan, plan.frame(), delta, view, view, state, stats)?;
                for id in heads {
                    sink(plan.defines(), id, state, guard, &mut next)?;
                }
            }
        }
        if next.is_empty() {
            return Ok(());
        }
        stats.rounds += 1;
        cur = Some(next);
    }
}

fn insert_new(
    pred: &str,
    id: ObjRef,
    state: &mut Store,
    undo: &mut Vec<UndoOp>,
    guard: &mut Guard,
    pending: &mut Pending,
    inserted: &mut Vec<(String, Value, ObjRef)>,
) -> Result<(), MaintErr> {
    if state.contains(pred, id) {
        return Ok(());
    }
    let row = Pool::global().resolve(id);
    let had_rel = state.db().contains_relation(pred);
    state.insert(pred, &row, id);
    undo.push(UndoOp::StateAdd(pred.to_owned(), row.clone(), id, had_rel));
    guard.add_fact()?;
    pending
        .entry(pred.to_owned())
        .or_default()
        .push(row.clone());
    inserted.push((pred.to_owned(), row, id));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_deductive::{DlAtom, DlRule, DlTerm};
    use uset_guard::Budget;
    use uset_object::atom;

    fn v(name: &str) -> DlTerm {
        DlTerm::var(name)
    }

    fn edge(a: u64, b: u64) -> Value {
        Value::Tuple(vec![atom(a), atom(b)])
    }

    fn tc() -> DatalogProgram {
        DatalogProgram::new(vec![
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("y")]),
                vec![(true, DlAtom::new("E", vec![v("x"), v("y")]))],
            ),
            DlRule::new(
                DlAtom::new("T", vec![v("x"), v("z")]),
                vec![
                    (true, DlAtom::new("E", vec![v("x"), v("y")])),
                    (true, DlAtom::new("T", vec![v("y"), v("z")])),
                ],
            ),
        ])
    }

    fn path_db(n: u64) -> Database {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        db
    }

    fn recompute(prog: &DatalogProgram, db: &Database, semantics: Semantics) -> Database {
        eval(
            prog,
            semantics,
            db,
            &Governor::unlimited(),
            &mut EvalStats::default(),
        )
        .unwrap()
    }

    #[test]
    fn counting_join_tracks_inserts_and_retracts() {
        // J(x,z) ← A(x,y), B(y,z): one counting stratum
        let prog = DatalogProgram::new(vec![DlRule::new(
            DlAtom::new("J", vec![v("x"), v("z")]),
            vec![
                (true, DlAtom::new("A", vec![v("x"), v("y")])),
                (true, DlAtom::new("B", vec![v("y"), v("z")])),
            ],
        )]);
        let mut db = Database::empty();
        db.set(
            "A",
            Instance::from_rows([[atom(0u64), atom(1u64)], [atom(5u64), atom(1u64)]]),
        );
        db.set("B", Instance::from_rows([[atom(1u64), atom(2u64)]]));
        let gov = Governor::unlimited();
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        assert!(matches!(s.plan(), MaintPlan::Incremental(_)));
        // retract A(0,1): J(0,2) loses its only support; J(5,2) survives
        let rep = s
            .apply(
                &DeltaBatch::new()
                    .retract("A", edge(0, 1))
                    .insert("B", edge(1, 7)),
            )
            .unwrap();
        assert!(!rep.fallback);
        assert_eq!(
            s.state(),
            &recompute(&prog, s.edb(), Semantics::StratifiedSeminaive)
        );
        assert!(s.state().get("J").contains(&edge(5, 2)));
        assert!(!s.state().get("J").contains(&edge(0, 2)));
        assert!(s.state().get("J").contains(&edge(5, 7)));
    }

    #[test]
    fn dred_retraction_matches_recompute_and_does_less_work() {
        let prog = tc();
        let db = path_db(32);
        let gov = Governor::unlimited();
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        let rep = s
            .apply(&DeltaBatch::new().retract("E", edge(30, 31)))
            .unwrap();
        assert!(!rep.fallback);
        let fresh = recompute(&prog, s.edb(), Semantics::StratifiedSeminaive);
        assert_eq!(s.state(), &fresh);
        // the single-edge retraction must touch far fewer tuples than a rebuild
        let mut full = EvalStats::default();
        eval(
            &prog,
            Semantics::StratifiedSeminaive,
            s.edb(),
            &gov,
            &mut full,
        )
        .unwrap();
        assert!(
            rep.stats.tuples_derived * 2 < full.tuples_derived,
            "maintain {} vs recompute {}",
            rep.stats.tuples_derived,
            full.tuples_derived
        );
    }

    #[test]
    fn insertion_then_retraction_roundtrips_through_negation() {
        // Bad(x) ← Block(x); Top(x) ← T(x,y), ¬Bad(x)
        let mut rules = tc().rules.clone();
        rules.push(DlRule::new(
            DlAtom::new("Bad", vec![v("x")]),
            vec![(true, DlAtom::new("Block", vec![v("x")]))],
        ));
        rules.push(DlRule::new(
            DlAtom::new("Top", vec![v("x")]),
            vec![
                (true, DlAtom::new("T", vec![v("x"), v("y")])),
                (false, DlAtom::new("Bad", vec![v("x")])),
            ],
        ));
        let prog = DatalogProgram::new(rules);
        let mut db = path_db(6);
        db.set("Block", Instance::from_rows([[atom(0u64)]]));
        let gov = Governor::unlimited();
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::Stratified,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        // unblocking 0 must bring Top(0) back through the negated literal
        let rep = s
            .apply(&DeltaBatch::new().retract("Block", Value::Tuple(vec![atom(0u64)])))
            .unwrap();
        assert!(!rep.fallback);
        assert_eq!(s.state(), &recompute(&prog, s.edb(), Semantics::Stratified));
        // and blocking 3 plus cutting an edge must remove Top(3)
        s.apply(
            &DeltaBatch::new()
                .insert("Block", Value::Tuple(vec![atom(3u64)]))
                .retract("E", edge(1, 2)),
        )
        .unwrap();
        assert_eq!(s.state(), &recompute(&prog, s.edb(), Semantics::Stratified));
    }

    #[test]
    fn budget_trip_rolls_the_batch_back() {
        let prog = tc();
        let db = path_db(16);
        let gov = Governor::unlimited();
        let s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .unwrap();
        let before_state = s.state().clone();
        let before_edb = s.edb().clone();
        // a governor whose step budget cannot cover the maintenance pass
        let tight = Governor::new(Budget::unlimited().with_steps(3));
        let mut tight_session = DatalogSession {
            governor: tight,
            ..// move the rest of the fields over
            match DatalogSession::with_mode(
                prog,
                &db,
                Semantics::StratifiedSeminaive,
                &gov,
                IvmMode::Auto,
            ) {
                Ok(sess) => sess,
                Err(e) => panic!("{e}"),
            }
        };
        let err = tight_session
            .apply(
                &DeltaBatch::new()
                    .retract("E", edge(0, 1))
                    .insert("E", edge(20, 21)),
            )
            .unwrap_err();
        assert!(matches!(err, IvmError::Exhausted { .. }), "{err}");
        assert_eq!(tight_session.state(), &before_state, "state rolled back");
        assert_eq!(tight_session.edb(), &before_edb, "edb rolled back");
        drop(s);
    }

    #[test]
    fn idb_deltas_are_rejected() {
        let prog = tc();
        let db = path_db(4);
        let mut s = DatalogSession::with_mode(
            prog,
            &db,
            Semantics::StratifiedSeminaive,
            &Governor::unlimited(),
            IvmMode::Auto,
        )
        .unwrap();
        let err = s
            .apply(&DeltaBatch::new().insert("T", edge(0, 3)))
            .unwrap_err();
        assert!(matches!(err, IvmError::NotEdb { pred } if pred == "T"));
    }

    #[test]
    fn inflationary_sessions_fall_back_to_recompute() {
        let prog = tc();
        let db = path_db(5);
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::Inflationary,
            &Governor::unlimited(),
            IvmMode::Auto,
        )
        .unwrap();
        assert!(matches!(s.plan(), MaintPlan::Recompute(_)));
        let rep = s
            .apply(&DeltaBatch::new().retract("E", edge(2, 3)))
            .unwrap();
        assert!(rep.fallback);
        assert_eq!(
            s.state(),
            &recompute(&prog, s.edb(), Semantics::Inflationary)
        );
    }

    #[test]
    fn forced_recompute_mode_still_agrees() {
        let prog = tc();
        let db = path_db(8);
        let mut s = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &Governor::unlimited(),
            IvmMode::Recompute,
        )
        .unwrap();
        let rep = s
            .apply(&DeltaBatch::new().retract("E", edge(3, 4)))
            .unwrap();
        assert!(rep.fallback);
        assert_eq!(
            s.state(),
            &recompute(&prog, s.edb(), Semantics::StratifiedSeminaive)
        );
    }
}
