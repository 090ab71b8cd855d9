//! The round driver shared by the rule engines: DATALOG¬, COL and BK.
//!
//! Every rule engine evaluates a stratum (under inflationary semantics
//! and in BK: the single run over every rule) the same way: each round
//! derives everything from the settled pre-round state, admits what is
//! new, then commits it. This module owns that round from start to
//! finish — the guard step and fact base, the `round_start`/`round_end`
//! trace events, the round's firing units (one per rule firing from the
//! full state, or one per delta shard of a semi-naive firing), firing
//! them through [`try_par_map`] at every width (at width 1 that is its
//! inline loop), the brake and panic exits (an engaged brake re-derives
//! the round under exact fact accounting), admission, the commit, and
//! the per-round checkpoint — plus the strata of one run ([`run`]), inside
//! the [`Governor::run`] shell every engine shares.
//!
//! A round has three phases. Phase 1 fires the units against the settled
//! state. Phase 2 admits their derivations in order: it drops facts the
//! state or the round already holds, charges the fact budget, counts new
//! facts per rule and emits provenance events, without touching the
//! state. Phase 3 commits the admitted facts in one call. A trip in
//! phase 1 or 2 therefore surrenders the pre-round state exactly as it
//! was: nothing is ever rolled back, and the state is never cloned.
//!
//! Indexes follow the units. Before a round the driver keeps exactly the
//! (relation, column) indexes the round's units probe in the settled
//! state, building any it lacks; before the commit it drops those the
//! coming rounds will not probe, so the commit maintains only indexes
//! something reads. Later rounds probe a subset of what the first round
//! probes, so an index is never dropped and rebuilt within a stratum,
//! and its buckets keep their order: canonical at the build, then
//! admission order.
//!
//! A unit that enumerates values against a size cap (BK's exhaustive
//! sub-object search) reports the largest enumeration it checked
//! ([`Unit::report_value_size`]); the driver replays the reports in unit
//! order against [`Guard::check_value`] before admission, so value-size
//! trips and the `round_end` high-water mark do not depend on the width.
//!
//! An engine supplies only what differs between the languages, through
//! [`Engine`]: how a rule is classified, which indexes a firing probes,
//! how one unit fires, how a delta is sharded, whether the state holds a
//! fact, how a round's facts are committed, and how its checkpoint
//! payload is encoded and decoded. The caller of [`run`] decides whether
//! running out of rounds trips the run or completes it unconverged
//! ([`OutOfRounds`]). The naive strategy is not a separate
//! loop: it classifies every rule as [`RuleClass::Snapshot`], so every
//! rule fires against the full state every round.

use crate::ckpt;
use crate::trace::span::RuleFirings;
use crate::trace::TraceEvent;
use crate::{EngineId, Exhausted, Governor, Guard, ParBrake, TraceHandle, Trip};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use uset_object::intern::FxBuildHasher;
use uset_object::{EvalStats, Pool};
use uset_par::try_par_map;

/// The indexes a round's firings probe in the settled state: relation →
/// probed columns.
pub type Probes = BTreeMap<String, BTreeSet<usize>>;

/// How one rule takes part in a stratum's rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuleClass {
    /// Reads no symbol the stratum derives: fires in the first round only.
    Constant,
    /// Every read of a stratum symbol is monotone: fires from the full
    /// state in the first round, then once per listed body position with
    /// that literal restricted to the previous round's delta.
    Seminaive(Vec<usize>),
    /// Fires from the full pre-round state every round — a non-monotone
    /// read of a stratum symbol, or the naive strategy.
    Snapshot,
}

/// A fact derived in phase 1, waiting for admission. `rule` is the
/// program index of the firing rule; `parents` carries the instantiated
/// supporting body facts when the tracer wants provenance.
pub struct Derived<F> {
    /// The derived fact.
    pub fact: F,
    /// Program index of the rule that derived it.
    pub rule: usize,
    /// The instantiated body facts, when provenance is traced.
    pub parents: Option<Vec<String>>,
}

/// Phase 1's output: one buffer per unit, in canonical (group, shard)
/// order.
type Buffers<F> = Vec<Vec<Derived<F>>>;

/// Phase 2's output: the admitted facts in admission order, the
/// derivations turned away, and the per-rule counts of new facts.
type Admitted<F> = (Vec<F>, Vec<F>, BTreeMap<usize, u64>);

/// One fired unit: its buffer, its work counters, its wall time and the
/// largest value size it reported, or the error that stopped it.
type Fired<E> =
    Result<(Vec<Derived<<E as Engine>::Fact>>, EvalStats, u64, usize), <E as Engine>::Error>;

/// One phase-1 work unit: rule `idx` fired from the full state, or with
/// one body position restricted to the round's delta — the whole delta,
/// borrowed, for a single worker; one hash shard of it otherwise. Units
/// sharing a `group` are one rule firing: the merge counts the group once
/// and concatenates its buffers in shard order.
pub struct Unit<'a, E: Engine + ?Sized> {
    group: usize,
    /// Program index of the firing rule.
    pub idx: usize,
    /// The firing rule.
    pub rule: &'a E::Rule,
    delta: Option<(Cow<'a, E::Delta>, usize)>,
    /// False on every shard but a group's first: literals before the
    /// delta position evaluate identically in each shard, so exactly one
    /// shard counts their work and the merged counters equal an
    /// unsharded firing's.
    pub count_prefix: bool,
    /// The largest value size this firing reported; taken (reset to 0)
    /// as soon as the firing returns, on the thread that ran it, so the
    /// counter publishes nothing and `Relaxed` suffices.
    value_size: AtomicUsize,
}

impl<E: Engine + ?Sized> Unit<'_, E> {
    /// The delta this unit reads at its restricted body position.
    pub fn delta(&self) -> Option<(&E::Delta, usize)> {
        self.delta.as_ref().map(|(d, pos)| (d.as_ref(), *pos))
    }

    /// Report one enumeration of `size` values this firing checked. The
    /// driver replays the largest against [`Guard::check_value`] (with
    /// [`Engine::value_floor`]) before the round admits anything; the
    /// firing itself enforces only the floor, by stopping early.
    pub fn report_value_size(&self, size: usize) {
        self.value_size.fetch_max(size, Ordering::Relaxed);
    }
}

/// Where a committed round leaves the run: the stratum to continue in,
/// how much of that stratum's round allowance is spent, and whether the
/// next round is the stratum's first. A quiescent round commits the next
/// stratum's entry mark, so a resume never replays the no-op round.
pub struct Mark {
    /// The stratum to continue in.
    pub stratum: usize,
    /// Rounds of that stratum's allowance already spent.
    pub rounds_in_run: u64,
    /// Whether the next round is the stratum's first.
    pub first: bool,
}

/// The loop state a checkpoint restores.
pub struct Resume<S, D> {
    /// Where the run continues.
    pub at: Mark,
    /// The delta the next round reads.
    pub delta: D,
    /// The committed state.
    pub state: S,
}

/// What one rule language supplies to the round driver.
pub trait Engine: Sync {
    /// One compiled rule.
    type Rule: Sync;
    /// The fact base, surrendered as is on a trip.
    type State: Default + Sync;
    /// The facts one round committed: the next round's semi-naive delta.
    type Delta: Clone + Default + Sync;
    /// The indexes units probe the settled state through.
    type Indexes: Default + Sync;
    /// One derived fact; admission deduplicates by its equality.
    type Fact: Clone + Eq + Hash + Send;
    /// The run's error, carrying an [`Exhausted`] report.
    type Error: Send;

    /// Guard, checkpoint and trace identity.
    const ID: EngineId;
    /// Whether every rule charges one cooperative guard tick per round
    /// (before its units are built, fired this round or not), so a
    /// cancellation lands between rules.
    const TICK_PER_RULE: bool;

    /// Rounds one stratum may run before it stops as diverging.
    fn max_rounds(&self) -> u64 {
        u64::MAX
    }

    /// The structural cap a reported value size is checked against, on
    /// top of the budget's (see [`Unit::report_value_size`]).
    fn value_floor(&self) -> Option<usize> {
        None
    }

    /// Package a trip with the surrendered state and counters.
    fn exhausted(ex: Exhausted<Self::State>) -> Self::Error;

    /// Facts stored in the state (the fact budget's base).
    fn facts(state: &Self::State) -> usize;

    /// Classify one stratum's rules, once per stratum.
    fn classify(&self, rules: &[(usize, &Self::Rule)]) -> Vec<RuleClass>;

    /// Add to `out` every (relation, column) index a firing of `rule`
    /// probes in the settled state; with `delta = Some(pos)`, body
    /// position `pos` reads the delta instead.
    fn probes(&self, rule: &Self::Rule, delta: Option<usize>, out: &mut Probes);

    /// Keep exactly the indexes `keep` names: drop the others, and build
    /// each missing one from `state`.
    fn index(&self, state: &Self::State, keep: &Probes, indexes: &mut Self::Indexes);

    /// Fire one unit against the settled state, pushing derived facts to
    /// `out` and counting work into `stats`. The unit charges `brake`
    /// with its derivation volume and returns early (with a truncated
    /// buffer) once the brake stops the round.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &self,
        unit: &Unit<'_, Self>,
        state: &Self::State,
        indexes: &Self::Indexes,
        want_prov: bool,
        out: &mut Vec<Derived<Self::Fact>>,
        stats: &mut EvalStats,
        brake: &ParBrake,
    ) -> Result<(), Self::Error>;

    /// Split the delta symbol read at body position `pos` of `rule` into
    /// at most `workers` non-empty shards by stable fact hash.
    fn shard(
        &self,
        rule: &Self::Rule,
        pos: usize,
        delta: &Self::Delta,
        workers: usize,
    ) -> Vec<Self::Delta>;

    /// The delta size a `round_start` event reports.
    fn delta_len(&self, delta: &Self::Delta) -> u64;

    /// Whether the state already holds `fact`.
    fn settled(&self, state: &Self::State, fact: &Self::Fact) -> bool;

    /// Add a round's admitted facts — new, distinct, in admission order —
    /// to the state, noting each in the kept `indexes`; returns the
    /// round's delta. `turned_away` holds the derivations admission
    /// dropped as already held.
    fn commit(
        &self,
        state: &mut Self::State,
        indexes: &mut Self::Indexes,
        facts: Vec<Self::Fact>,
        turned_away: Vec<Self::Fact>,
    ) -> Self::Delta;

    /// The fact as a provenance event names it.
    fn render(&self, fact: &Self::Fact) -> String;

    /// Checkpoint one completed round; `header` wraps a payload in the
    /// guard's round header.
    fn checkpoint(
        &self,
        sess: &mut ckpt::Session,
        header: &dyn Fn(Vec<u8>) -> ckpt::RoundCkpt,
        at: &Mark,
        delta: &Self::Delta,
        state: &Self::State,
    );

    /// Decode a recovered checkpoint; `None` starts fresh.
    fn resume(&self, rec: &ckpt::Recovered) -> Option<Resume<Self::State, Self::Delta>>;
}

/// What a stratum that spends [`Engine::max_rounds`] without converging
/// does to the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutOfRounds {
    /// The run completes unconverged: `engine_end`, the checkpoint
    /// cleared, and `converged = false`.
    Complete,
    /// The run trips as diverging with the guard's
    /// [`rounds trip`](Guard::rounds_trip), which leaves the checkpoint.
    Trip,
}

/// Run `strata` in order as one [`Governor::run`]: resume from the
/// checkpoint's last durable round (the entry state is built by `init`
/// only when nothing is recovered), and fold the intern pool's counters
/// into `stats` once the strata complete. Returns the final state and
/// whether every stratum converged (always, unless `out_of_rounds` is
/// [`OutOfRounds::Complete`]). A run recovered past its last stratum —
/// the crash landed between the final commit and cleanup — only closes.
pub fn run<E: Engine>(
    engine: &E,
    governor: &Governor,
    stats: &mut EvalStats,
    fingerprint: impl FnOnce() -> u64,
    strata: &[Vec<(usize, &E::Rule)>],
    out_of_rounds: OutOfRounds,
    init: impl FnOnce() -> E::State,
) -> Result<(E::State, bool), E::Error> {
    let pool_t0 = Pool::global().stats();
    let decode = |rec: &ckpt::Recovered| engine.resume(rec);
    governor.run(E::ID, stats, fingerprint, decode, |run, stats, resume| {
        let (mut state, start, mut mid) = match resume {
            Some(r) => (r.state, r.at.stratum, Some((r.at, r.delta))),
            None => (init(), 0, None),
        };
        let mut converged = true;
        for (stratum, rules) in strata.iter().enumerate().skip(start) {
            let mut pass = Stratum {
                engine,
                rules,
                stratum,
                out_of_rounds,
                guard: &mut run.guard,
                session: &mut run.session,
                stats: &mut *stats,
            };
            converged &= pass.fixpoint(&mut state, mid.take())?;
        }
        stats.note_intern(&Pool::global().stats().delta_since(&pool_t0));
        Ok((state, converged))
    })
}

/// One stratum's fixpoint under the run's guard and checkpoint session.
struct Stratum<'r, E: Engine> {
    engine: &'r E,
    rules: &'r [(usize, &'r E::Rule)],
    stratum: usize,
    out_of_rounds: OutOfRounds,
    guard: &'r mut Guard,
    session: &'r mut Option<ckpt::Session>,
    stats: &'r mut EvalStats,
}

impl<'r, E: Engine> Stratum<'r, E> {
    /// End the run: surrender the state and the counters with the trip.
    fn exhaust(&self, trip: Trip, state: &mut E::State) -> E::Error {
        E::exhausted(Exhausted::new(trip, std::mem::take(state), *self.stats))
    }

    /// Fire the stratum's rules simultaneously until a round commits
    /// nothing; returns whether it did so within the round allowance.
    /// `mid` re-enters a recovered stratum with its checkpointed round
    /// flags, including how much of the round allowance the interrupted
    /// run had spent. The fact budget is charged at every admission, so
    /// the facts admitted never exceed it by more than the one that
    /// trips, and that round is never committed.
    fn fixpoint(
        &mut self,
        state: &mut E::State,
        mid: Option<(Mark, E::Delta)>,
    ) -> Result<bool, E::Error> {
        let engine = self.engine;
        let classes = engine.classify(self.rules);
        let (first_probes, later_probes) = self.probes(&classes);
        let trace = self.guard.trace().clone();
        let mut ctx = RuleFirings::new(E::ID.as_str(), &trace);
        let mut indexes = E::Indexes::default();
        let mut facts = E::facts(state);
        self.stats.observe_facts(facts);
        if let Err(trip) = self.guard.set_fact_base(facts) {
            return Err(self.exhaust(trip, state));
        }
        let (start, mut first, mut delta) = match mid {
            Some((at, d)) => (at.rounds_in_run, at.first, d),
            None => (0, true, E::Delta::default()),
        };
        for done_rounds in start..engine.max_rounds() {
            if let Err(trip) = self.guard.step() {
                return Err(self.exhaust(trip, state));
            }
            self.stats.rounds += 1;
            let round = self.guard.steps();
            let round_start = trace.enabled().then(Instant::now);
            trace.emit(|| TraceEvent::RoundStart {
                engine: E::ID.as_str().into(),
                round,
                delta: engine.delta_len(&delta),
            });
            ctx.clear();
            // phase 1: derive from the settled pre-round state
            let probes = if first { &first_probes } else { &later_probes };
            engine.index(state, probes, &mut indexes);
            let units = self.units(&classes, first, &delta, state)?;
            let buffers = self.fire_units_parallel(&units, state, &indexes, &mut ctx)?;
            // phase 2: admit, charging the fact budget; the state is
            // untouched until the commit
            let (admitted, turned_away, new_per_rule) =
                self.admit(buffers, state, &mut facts, round, &trace, &ctx)?;
            // phase 3: commit, maintaining only what later rounds probe
            let changed = !admitted.is_empty();
            engine.index(state, &later_probes, &mut indexes);
            delta = engine.commit(state, &mut indexes, admitted, turned_away);
            self.stats.observe_facts(facts);
            ctx.emit_round(
                &trace,
                round,
                &new_per_rule,
                facts as u64,
                self.guard.value_hwm() as u64,
                round_start,
            );
            first = false;
            let at = if changed {
                Mark {
                    stratum: self.stratum,
                    rounds_in_run: done_rounds + 1,
                    first: false,
                }
            } else {
                Mark {
                    stratum: self.stratum + 1,
                    rounds_in_run: 0,
                    first: true,
                }
            };
            if let Some(sess) = self.session.as_mut() {
                let (guard, stats) = (&*self.guard, &*self.stats);
                let header = |payload| guard.round_ckpt(round, stats, payload);
                engine.checkpoint(sess, &header, &at, &delta, state);
            }
            if !changed {
                return Ok(true);
            }
        }
        match self.out_of_rounds {
            OutOfRounds::Complete => Ok(false),
            OutOfRounds::Trip => {
                let trip = self.guard.rounds_trip(engine.max_rounds());
                Err(self.exhaust(trip, state))
            }
        }
    }

    /// The indexes the stratum's first round probes, and those every
    /// later round probes (a subset: a later round fires the same rules,
    /// or fewer, with one position each reading the delta).
    fn probes(&self, classes: &[RuleClass]) -> (Probes, Probes) {
        let engine = self.engine;
        let (mut first, mut later) = (Probes::new(), Probes::new());
        for (&(_, rule), class) in self.rules.iter().zip(classes) {
            engine.probes(rule, None, &mut first);
            match class {
                RuleClass::Constant => {}
                RuleClass::Seminaive(positions) => {
                    for &pos in positions {
                        engine.probes(rule, Some(pos), &mut later);
                    }
                }
                RuleClass::Snapshot => engine.probes(rule, None, &mut later),
            }
        }
        (first, later)
    }

    /// Phase 2: walk the round's derivations in canonical order and admit
    /// each fact neither the settled state nor an earlier admission
    /// holds, charging the fact budget, counting it for its rule and
    /// emitting its provenance event. A trip ends the run with the state
    /// as the round found it.
    fn admit(
        &mut self,
        buffers: Buffers<E::Fact>,
        state: &mut E::State,
        facts: &mut usize,
        round: u64,
        trace: &TraceHandle,
        ctx: &RuleFirings,
    ) -> Result<Admitted<E::Fact>, E::Error> {
        let engine = self.engine;
        let mut new_per_rule: BTreeMap<usize, u64> = BTreeMap::new();
        let mut seen: HashSet<&E::Fact, FxBuildHasher> = HashSet::default();
        let mut admitted = Vec::new();
        for d in buffers.iter().flatten() {
            let new = !engine.settled(state, &d.fact) && seen.insert(&d.fact);
            admitted.push(new);
            if !new {
                continue;
            }
            *facts += 1;
            let charged = self.guard.add_fact();
            if ctx.enabled() {
                *new_per_rule.entry(d.rule).or_default() += 1;
            }
            if ctx.want_provenance() {
                let (rule, fact) = (d.rule, engine.render(&d.fact));
                let parents = d.parents.clone().unwrap_or_default();
                trace.emit(move || TraceEvent::Derivation {
                    engine: E::ID.as_str().into(),
                    round,
                    rule,
                    fact,
                    parents,
                });
            }
            if let Err(trip) = charged {
                self.stats.observe_facts(*facts);
                return Err(self.exhaust(trip, state));
            }
        }
        drop(seen);
        let (mut new, mut turned_away) = (Vec::new(), Vec::new());
        for (d, admit) in buffers.into_iter().flatten().zip(admitted) {
            if admit { &mut new } else { &mut turned_away }.push(d.fact);
        }
        Ok((new, turned_away, new_per_rule))
    }

    /// The round's firing units, in rule order: one per rule firing from
    /// the full state, one per delta shard of a restricted firing.
    fn units<'d>(
        &mut self,
        classes: &[RuleClass],
        first: bool,
        delta: &'d E::Delta,
        state: &mut E::State,
    ) -> Result<Vec<Unit<'d, E>>, E::Error>
    where
        'r: 'd,
    {
        let engine = self.engine;
        let workers = self.guard.workers();
        let mut units: Vec<Unit<'_, E>> = Vec::new();
        let mut group = 0usize;
        for (&(idx, rule), class) in self.rules.iter().zip(classes) {
            if E::TICK_PER_RULE {
                if let Err(trip) = self.guard.check_point() {
                    return Err(self.exhaust(trip, state));
                }
            }
            match class {
                RuleClass::Constant if !first => continue,
                RuleClass::Seminaive(positions) if !first => {
                    for &pos in positions {
                        // one worker reads the delta in place: copying it
                        // into a single shard would cost a pass over the
                        // delta per round
                        let mut shards: Vec<Cow<'_, E::Delta>> = if workers == 1 {
                            vec![Cow::Borrowed(delta)]
                        } else {
                            let shards = engine.shard(rule, pos, delta, workers);
                            shards.into_iter().map(Cow::Owned).collect()
                        };
                        // an empty delta still fires once, so the firing
                        // and its prefix work are counted at every width
                        if shards.is_empty() {
                            shards.push(Cow::Owned(E::Delta::default()));
                        }
                        for (k, shard) in shards.into_iter().enumerate() {
                            units.push(Unit {
                                group,
                                idx,
                                rule,
                                delta: Some((shard, pos)),
                                count_prefix: k == 0,
                                value_size: AtomicUsize::new(0),
                            });
                        }
                        group += 1;
                    }
                }
                _ => {
                    units.push(Unit {
                        group,
                        idx,
                        rule,
                        delta: None,
                        count_prefix: true,
                        value_size: AtomicUsize::new(0),
                    });
                    group += 1;
                }
            }
        }
        Ok(units)
    }

    /// Fire the units across the guard's worker pool (inline at width 1)
    /// and merge their buffers in canonical (group, shard) order; firing
    /// counts and timings land once per group. A trip here — a
    /// cooperative checkpoint, a cancel, a worker panic — ends the run
    /// before anything is admitted, so the surrendered state is the last
    /// completed round's. The brake only bounds buffering: it counts raw
    /// derivations, duplicates included, so a round that overdraws it
    /// may still fit the fact budget and is derived again exactly
    /// ([`Self::fire_units_exact`]).
    fn fire_units_parallel(
        &mut self,
        units: &[Unit<'_, E>],
        state: &mut E::State,
        indexes: &E::Indexes,
        ctx: &mut RuleFirings,
    ) -> Result<Buffers<E::Fact>, E::Error> {
        let brake = self.guard.par_brake();
        let workers = self.guard.workers();
        let outputs = self.fire_batch(workers, units, state, indexes, ctx, &brake)?;
        if brake.engaged() {
            return self.fire_units_exact(units, state, indexes, ctx);
        }
        let mut buffers = Vec::with_capacity(units.len());
        let mut sizes = Vec::with_capacity(units.len());
        let mut open = None;
        for (unit, res) in units.iter().zip(outputs) {
            let (buf, local, wall, size) = res?;
            self.tally(&mut open, unit, buf.len() as u64, wall, &local, ctx);
            buffers.push(buf);
            sizes.push(size);
        }
        self.close(open, ctx);
        self.cancelled(&brake, state)?;
        self.replay_value_sizes(&sizes, state)?;
        Ok(buffers)
    }

    /// Phase 1 again, one unit at a time, once the brake engaged: each
    /// buffer keeps only the first derivation of each fact the settled
    /// state lacks (admission skips the rest without a trace), and firing
    /// stops once those outnumber the fact budget's headroom. Phase 2 then
    /// trips on the same fact an unbraked round would, or completes the
    /// round when the budget holds it; buffering stays bounded by the
    /// budget either way.
    fn fire_units_exact(
        &mut self,
        units: &[Unit<'_, E>],
        state: &mut E::State,
        indexes: &E::Indexes,
        ctx: &mut RuleFirings,
    ) -> Result<Buffers<E::Fact>, E::Error> {
        let engine = self.engine;
        let headroom = self.guard.fact_headroom().unwrap_or(usize::MAX);
        let relay = self.guard.cancel_brake();
        let mut seen = HashSet::new();
        let mut buffers = Vec::with_capacity(units.len());
        let mut sizes = Vec::with_capacity(units.len());
        let mut open = None;
        for unit in units {
            let one = std::slice::from_ref(unit);
            let fired = self.fire_batch(1, one, state, indexes, ctx, &relay)?;
            let (mut buf, local, wall, size) = fired.into_iter().next().expect("one unit")?;
            self.tally(&mut open, unit, buf.len() as u64, wall, &local, ctx);
            buf.retain(|d| !engine.settled(state, &d.fact) && seen.insert(d.fact.clone()));
            buffers.push(buf);
            sizes.push(size);
            if seen.len() > headroom {
                break;
            }
        }
        self.close(open, ctx);
        self.cancelled(&relay, state)?;
        self.replay_value_sizes(&sizes, state)?;
        Ok(buffers)
    }

    /// Fire `units` on `workers` threads under `brake`, each into its own
    /// buffer and counters. A panicking unit ends the run: the pool
    /// drained cleanly and nothing was merged, so it reports a structured
    /// trip instead of unwinding.
    fn fire_batch(
        &mut self,
        workers: usize,
        units: &[Unit<'_, E>],
        state: &mut E::State,
        indexes: &E::Indexes,
        ctx: &RuleFirings,
        brake: &ParBrake,
    ) -> Result<Vec<Fired<E>>, E::Error> {
        let engine = self.engine;
        let want_prov = ctx.want_provenance();
        let timed = ctx.enabled();
        let settled: &E::State = state;
        let fired = try_par_map(workers, units, |_, unit| {
            let t0 = timed.then(Instant::now);
            let mut out = Vec::new();
            let mut local = EvalStats::default();
            let res = engine.fire(
                unit, settled, indexes, want_prov, &mut out, &mut local, brake,
            );
            let wall = t0.map_or(0, |t0| t0.elapsed().as_micros() as u64);
            let size = unit.value_size.swap(0, Ordering::Relaxed);
            res.map(|()| (out, local, wall, size))
        });
        fired.map_err(|_| {
            let trip = self.guard.panic_trip();
            self.exhaust(trip, state)
        })
    }

    /// Fold one fired unit into the round's counters. `open` is the group
    /// being merged — (group, rule index, facts buffered, wall time); a
    /// group counts as one firing however many shards it has.
    fn tally(
        &mut self,
        open: &mut Option<(usize, usize, u64, u64)>,
        unit: &Unit<'_, E>,
        produced: u64,
        wall: u64,
        local: &EvalStats,
        ctx: &mut RuleFirings,
    ) {
        match open {
            Some((group, _, sum, acc)) if *group == unit.group => {
                *sum += produced;
                *acc += wall;
            }
            _ => {
                self.close(open.take(), ctx);
                self.stats.rules_fired += 1;
                *open = Some((unit.group, unit.idx, produced, wall));
            }
        }
        self.stats.absorb(local);
    }

    /// Record a merged group's firing.
    fn close(&self, open: Option<(usize, usize, u64, u64)>, ctx: &mut RuleFirings) {
        if let Some((_, idx, produced, wall)) = open {
            ctx.record(idx, produced, wall);
        }
    }

    /// Replay the fired units' value-size reports against the guard, in
    /// unit order; a trip ends the run before anything is admitted.
    fn replay_value_sizes(
        &mut self,
        sizes: &[usize],
        state: &mut E::State,
    ) -> Result<(), E::Error> {
        let floor = self.engine.value_floor();
        for &size in sizes.iter().filter(|&&size| size > 0) {
            if let Err(trip) = self.guard.check_value(size, floor) {
                return Err(self.exhaust(trip, state));
            }
        }
        Ok(())
    }

    /// End the run if a cancel stopped the units; the guard's own tick
    /// reports it with better provenance than the brake.
    fn cancelled(&mut self, brake: &ParBrake, state: &mut E::State) -> Result<(), E::Error> {
        if !brake.should_stop() {
            return Ok(());
        }
        let trip = match self.guard.check_point() {
            Err(trip) => trip,
            Ok(()) => self.guard.brake_trip(),
        };
        Err(self.exhaust(trip, state))
    }
}
