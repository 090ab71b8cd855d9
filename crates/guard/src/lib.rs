//! Unified resource governance for every untyped-sets engine.
//!
//! The paper's languages are C-complete (Theorems 4.1b and 5.1), so
//! legitimate programs diverge: Example 5.4's chain-to-list BK program
//! grows ⊥-lists forever, powerset under `while` is hyper-exponential,
//! and tsCALC enumeration is elementary-complete (Theorem 2.2). The
//! runtime therefore treats exhaustion as a *structured outcome*, not a
//! panic: every engine runs under one shared [`Budget`] and cooperative
//! [`CancelToken`], and reports overruns through one [`Exhausted`]
//! taxonomy carrying provenance (which engine, which resource, how much
//! was consumed) plus a **partial-result snapshot** — the last consistent
//! round's state and its [`EvalStats`] — so exhausted fixpoints degrade
//! gracefully instead of discarding work.
//!
//! The pieces:
//!
//! * [`Budget`] — declarative limits: steps/rounds, derived facts, value
//!   size, wall-clock. `None` means unlimited. [`Budget::from_env`] reads
//!   the `USET_MAX_*` variables so binaries and CI can impose budgets
//!   without code changes.
//! * [`CancelToken`] — cooperative cancellation, safe to clone across
//!   threads; engines poll it at every progress tick.
//! * [`Governor`] — one shareable bundle of budget + token + failpoint
//!   that callers thread through an evaluation; each engine derives its
//!   own [`Guard`] meter from it.
//! * [`Guard`] — the per-run meter the engine hot loops charge
//!   ([`Guard::step`], [`Guard::add_fact`], [`Guard::check_point`]);
//!   returns a [`Trip`] the moment any limit is crossed.
//! * [`Exhausted`] — `Trip` + partial snapshot + stats; each engine wraps
//!   it in its error enum with its own snapshot type.
//! * [`FailPoint`] — deterministic fault injection: trip an arbitrary
//!   resource (or cancellation) at the N-th progress tick, so tests can
//!   exercise mid-round exhaustion and recovery without racing timers.
//! * [`Governor::run`] — the shell of one governed run, shared by every
//!   engine: the guard, the `engine_start`/`engine_end` trace span, the
//!   checkpoint session and resume, and the early exit on a trip.
//! * [`rounds`] — the round driver the rule engines (DATALOG¬, COL, BK)
//!   share: it composes the guard, the trace spans, the checkpoint
//!   session and the worker pool into one round loop.
//!
//! The governor also carries the observability layer: a
//! [`TraceHandle`] (from `uset-trace`, re-exported here as [`trace`])
//! rides inside every [`Guard`], which is how all five engines receive a
//! tracer without any entry-point signature changes. The guard itself
//! emits the final [`trace::TraceEvent::GuardTrip`] event the moment a
//! budget trips, and tracks the value-size high-water mark engines report
//! through [`Guard::check_value`].

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
pub use uset_ckpt as ckpt;
use uset_object::EvalStats;
pub use uset_par::ParConfig;
pub use uset_trace as trace;
use uset_trace::span::{engine_end, engine_start};
use uset_trace::TraceEvent;
pub use uset_trace::TraceHandle;

pub mod rounds;

/// Which engine tripped the budget (error provenance).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngineId {
    /// The ALG/tsALG evaluator (`uset-algebra`).
    Algebra,
    /// Flat DATALOG¬ (`uset-deductive::datalog`).
    Datalog,
    /// The COL engine (`uset-deductive::col`).
    Col,
    /// The Bancilhon–Khoshafian engine (`uset-bk`).
    Bk,
    /// Calculus / invention enumeration (`uset-calculus`).
    Calculus,
    /// The generic Turing machine simulator (`uset-gtm`).
    Gtm,
    /// Incremental view maintenance sessions (`uset-ivm`).
    Ivm,
}

impl EngineId {
    /// Lowercase label, also used as the `engine` field of trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineId::Algebra => "algebra",
            EngineId::Datalog => "datalog",
            EngineId::Col => "col",
            EngineId::Bk => "bk",
            EngineId::Calculus => "calculus",
            EngineId::Gtm => "gtm",
            EngineId::Ivm => "ivm",
        }
    }
}

impl std::fmt::Display for EngineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Which resource ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// Steps / rounds / fuel.
    Steps,
    /// Total stored or derived facts.
    Facts,
    /// A single value / instance / enumeration grew past its cap.
    ValueSize,
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was triggered.
    Cancelled,
    /// A crash-style failpoint ([`FailPoint::die_at`]) fired: the run is
    /// treated as a process death for chaos-testing checkpoint recovery.
    Died,
    /// A parallel worker unit panicked; the pool was drained cleanly and
    /// the panic surfaced as a structured trip instead of unwinding.
    Panicked,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Resource::Steps => "steps",
            Resource::Facts => "facts",
            Resource::ValueSize => "value-size",
            Resource::Deadline => "deadline",
            Resource::Cancelled => "cancelled",
            Resource::Died => "died",
            Resource::Panicked => "panicked",
        };
        write!(f, "{s}")
    }
}

/// Declarative resource limits; `None` means unlimited.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budget {
    /// Maximum engine steps (fixpoint rounds, statements, machine steps,
    /// invention levels — each engine documents its unit).
    pub max_steps: Option<u64>,
    /// Maximum total facts (tuples, set members, derived objects).
    pub max_facts: Option<usize>,
    /// Maximum size of any single value / intermediate instance /
    /// enumeration the engine checks against [`Guard::check_value`].
    pub max_value_size: Option<usize>,
    /// Wall-clock limit, measured from [`Guard`] creation.
    pub max_wall: Option<Duration>,
}

impl Budget {
    /// No limits at all (every check passes).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Set the step limit.
    pub fn with_steps(mut self, n: u64) -> Budget {
        self.max_steps = Some(n);
        self
    }

    /// Set the fact limit.
    pub fn with_facts(mut self, n: usize) -> Budget {
        self.max_facts = Some(n);
        self
    }

    /// Set the single-value size limit.
    pub fn with_value_size(mut self, n: usize) -> Budget {
        self.max_value_size = Some(n);
        self
    }

    /// Set the wall-clock limit.
    pub fn with_wall(mut self, d: Duration) -> Budget {
        self.max_wall = Some(d);
        self
    }

    /// Read limits from the environment: `USET_MAX_STEPS`,
    /// `USET_MAX_FACTS`, `USET_MAX_VALUE_SIZE`, `USET_MAX_WALL_MS`.
    /// Unset or unparsable variables leave that resource unlimited. This
    /// is how the CI tiny-budget smoke job imposes budgets on the example
    /// binaries without code changes.
    pub fn from_env() -> Budget {
        fn get<T: std::str::FromStr>(name: &str) -> Option<T> {
            std::env::var(name).ok().and_then(|v| v.parse().ok())
        }
        Budget {
            max_steps: get("USET_MAX_STEPS"),
            max_facts: get("USET_MAX_FACTS"),
            max_value_size: get("USET_MAX_VALUE_SIZE"),
            max_wall: get::<u64>("USET_MAX_WALL_MS").map(Duration::from_millis),
        }
    }

    /// True if no limit is set (a guard over this budget still honours
    /// cancellation and failpoints).
    pub fn is_unlimited(&self) -> bool {
        *self == Budget::default()
    }

    /// Keep the tighter limit of each resource (missing = unlimited).
    pub fn min(self, other: Budget) -> Budget {
        fn tighter<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        Budget {
            max_steps: tighter(self.max_steps, other.max_steps),
            max_facts: tighter(self.max_facts, other.max_facts),
            max_value_size: tighter(self.max_value_size, other.max_value_size),
            max_wall: tighter(self.max_wall, other.max_wall),
        }
    }
}

/// Cooperative cancellation flag, cheap to clone and poll.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation; every guard polling this token trips at its
    /// next progress tick.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// What a failpoint injects when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Behave as if the [`CancelToken`] fired.
    Cancel,
    /// Behave as if the given resource ran out.
    Exhaust(Resource),
    /// Simulate a process crash: the run aborts with [`Resource::Died`]
    /// and nothing after the last completed round is durable — the
    /// deterministic stand-in for `kill -9` that the checkpoint recovery
    /// tests are built on.
    Die,
}

/// Deterministic fault injection: fire `action` at the `at_tick`-th
/// progress tick of the guard (ticks count every [`Guard::step`],
/// [`Guard::add_fact`] and [`Guard::check_point`] call, in engine order,
/// so a given program + failpoint always fails at the same place).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FailPoint {
    /// The 1-based tick at which to fire.
    pub at_tick: u64,
    /// What to inject.
    pub action: FailAction,
}

impl FailPoint {
    /// Inject a cancellation at tick `n`.
    pub fn cancel_at(n: u64) -> FailPoint {
        FailPoint {
            at_tick: n,
            action: FailAction::Cancel,
        }
    }

    /// Inject exhaustion of `r` at tick `n`.
    pub fn exhaust_at(n: u64, r: Resource) -> FailPoint {
        FailPoint {
            at_tick: n,
            action: FailAction::Exhaust(r),
        }
    }

    /// Simulate a process death at tick `n` (see [`FailAction::Die`]).
    pub fn die_at(n: u64) -> FailPoint {
        FailPoint {
            at_tick: n,
            action: FailAction::Die,
        }
    }
}

/// Whether the analysis-driven optimizer pre-pass (`uset-opt`) runs
/// before evaluation. Mirrors [`ParConfig`]: the default defers to the
/// environment (`USET_OPT=off|on`, off when unset), while tests pin
/// [`OptConfig::On`]/[`OptConfig::Off`] explicitly — env vars are global
/// and racy under a parallel test harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OptConfig {
    /// Defer to `USET_OPT` at resolution time (off when unset).
    #[default]
    Env,
    /// Never optimize.
    Off,
    /// Always optimize.
    On,
}

impl OptConfig {
    /// Resolve to a concrete decision. `USET_OPT=on|1|true` enables the
    /// pre-pass; anything else (including unset) leaves it off.
    pub fn resolve(self) -> bool {
        match self {
            OptConfig::Off => false,
            OptConfig::On => true,
            OptConfig::Env => matches!(
                std::env::var("USET_OPT").ok().as_deref(),
                Some("on") | Some("1") | Some("true")
            ),
        }
    }
}

/// Whether (and where) engines persist durable checkpoints (`uset-ckpt`).
/// Mirrors [`OptConfig`]: the default defers to the environment
/// (`USET_CKPT=dir:<path>[,every=N]`, off when unset), while tests pin
/// [`CkptConfig::Off`]/[`CkptConfig::Spec`] explicitly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum CkptConfig {
    /// Defer to `USET_CKPT` at resolution time (off when unset).
    #[default]
    Env,
    /// Never checkpoint.
    Off,
    /// Checkpoint under this spec.
    Spec(ckpt::Spec),
}

impl CkptConfig {
    /// Resolve to a concrete spec (or `None` = no checkpointing).
    pub fn resolve(&self) -> Option<ckpt::Spec> {
        match self {
            CkptConfig::Off => None,
            CkptConfig::Spec(spec) => Some(spec.clone()),
            CkptConfig::Env => ckpt::Spec::from_env(),
        }
    }
}

/// The shareable governance bundle callers thread through evaluations:
/// a budget, a cancellation token, and an optional failpoint. Engines
/// derive a per-run [`Guard`] from it via [`Governor::guard`].
#[derive(Clone, Debug, Default)]
pub struct Governor {
    /// Resource limits.
    pub budget: Budget,
    /// Cooperative cancellation.
    pub cancel: CancelToken,
    /// Optional deterministic fault injection.
    pub failpoint: Option<FailPoint>,
    /// Observability sink; the default is disabled (zero-cost).
    pub trace: TraceHandle,
    /// Worker-pool width for the engines' parallel phases. The default
    /// defers to `USET_THREADS` (itself defaulting to sequential); tests
    /// should pin [`ParConfig::off`]/[`ParConfig::workers`] explicitly.
    pub par: ParConfig,
    /// Whether the `uset-opt` pre-pass rewrites programs before they are
    /// evaluated. The default defers to `USET_OPT` (itself defaulting to
    /// off); tests should pin [`OptConfig::On`]/[`OptConfig::Off`].
    pub opt: OptConfig,
    /// Whether engines persist durable checkpoints and resume from them
    /// (`uset-ckpt`). The default defers to `USET_CKPT` (itself
    /// defaulting to off); tests should pin
    /// [`CkptConfig::Spec`]/[`CkptConfig::Off`].
    pub ckpt: CkptConfig,
}

impl Governor {
    /// Governor with no limits (still cancellable).
    pub fn unlimited() -> Governor {
        Governor::default()
    }

    /// Governor over the given budget with a fresh token.
    pub fn new(budget: Budget) -> Governor {
        Governor {
            budget,
            ..Governor::default()
        }
    }

    /// Attach a cancellation token (shared with the caller).
    pub fn with_cancel(mut self, token: CancelToken) -> Governor {
        self.cancel = token;
        self
    }

    /// Attach a failpoint.
    pub fn with_failpoint(mut self, fp: FailPoint) -> Governor {
        self.failpoint = Some(fp);
        self
    }

    /// Attach a trace handle (e.g. [`TraceHandle::from_env`]); every
    /// engine run governed by this governor reports to it.
    pub fn with_trace(mut self, trace: TraceHandle) -> Governor {
        self.trace = trace;
        self
    }

    /// Pin the worker-pool width for parallel phases (overriding the
    /// `USET_THREADS` environment default).
    pub fn with_par(mut self, par: ParConfig) -> Governor {
        self.par = par;
        self
    }

    /// Enable or disable the `uset-opt` pre-pass (overriding the
    /// `USET_OPT` environment default). The governor only carries the
    /// knob; the `uset-opt` crate's wrapper entry points consult it —
    /// the engines themselves stay optimizer-agnostic.
    pub fn with_opt(mut self, opt: OptConfig) -> Governor {
        self.opt = opt;
        self
    }

    /// Persist durable checkpoints under `spec` (overriding the
    /// `USET_CKPT` environment default). Every round-structured engine
    /// governed by this governor writes round-consistent checkpoints
    /// and, on its next run over the same program and input, resumes
    /// from the last durable round. Each engine journals under
    /// `<dir>/<engine>/`, and one live session in a process owns that
    /// directory until it finishes or drops: a run that starts while
    /// another run of the same engine over the same spec is live gets no
    /// checkpoint session ([`Guard::ckpt_session`] returns `None`, with a
    /// note on stderr) and runs without crash recovery. Long-lived
    /// maintenance sessions report this through their `journaled()`.
    pub fn with_ckpt(mut self, spec: ckpt::Spec) -> Governor {
        self.ckpt = CkptConfig::Spec(spec);
        self
    }

    /// Pin the checkpoint knob explicitly (e.g. [`CkptConfig::Off`] in
    /// tests that must not consult the environment).
    pub fn with_ckpt_config(mut self, ckpt: CkptConfig) -> Governor {
        self.ckpt = ckpt;
        self
    }

    /// Derive the per-run meter an engine charges against. The parallel
    /// width is resolved here — once per run — so a mid-run change of
    /// `USET_THREADS` cannot skew a fixpoint.
    pub fn guard(&self, engine: EngineId) -> Guard {
        Guard {
            engine,
            budget: self.budget,
            cancel: self.cancel.clone(),
            failpoint: self.failpoint,
            trace: self.trace.clone(),
            workers: self.par.resolve(),
            ckpt_spec: self.ckpt.resolve(),
            steps: 0,
            facts: 0,
            ticks: 0,
            value_hwm: 0,
            started: Instant::now(),
            elapsed_base: Duration::ZERO,
        }
    }

    /// Run `body` as one governed run of `engine`: the shell every
    /// engine shares. It derives the run's [`Guard`], emits
    /// `engine_start`, opens the checkpoint session (`fingerprint` runs
    /// only if one opens) and recovers its last durable round: when
    /// `decode` accepts the recovered payload, the guard and `stats`
    /// adopt the interrupted run's counters and the body receives the
    /// decoded loop state; otherwise it starts fresh. On `Ok` the shell
    /// emits `engine_end` and clears the checkpoint. On `Err` — a trip,
    /// whose `guard_trip` event ends the trace, or an engine error — it
    /// returns at once and leaves the checkpoint for the next run.
    pub fn run<R, T, E>(
        &self,
        engine: EngineId,
        stats: &mut EvalStats,
        fingerprint: impl FnOnce() -> u64,
        decode: impl FnOnce(&ckpt::Recovered) -> Option<R>,
        body: impl FnOnce(&mut Governed, &mut EvalStats, Option<R>) -> Result<T, E>,
    ) -> Result<T, E> {
        let name = engine.as_str();
        let mut guard = self.guard(engine);
        let run_start = engine_start(name, &self.trace);
        let mut session = guard.ckpt_session(fingerprint);
        let recovered = session.as_mut().and_then(ckpt::Session::recover);
        let resume = recovered.and_then(|rec| {
            let r = decode(&rec)?;
            guard.adopt_recovery(&rec, stats);
            Some(r)
        });
        let mut run = Governed { guard, session };
        let out = body(&mut run, stats, resume)?;
        engine_end(name, &self.trace, run.guard.steps(), run_start);
        if let Some(sess) = run.session.as_mut() {
            sess.finish();
        }
        Ok(out)
    }
}

impl From<Budget> for Governor {
    fn from(budget: Budget) -> Governor {
        Governor::new(budget)
    }
}

/// The moment a limit was crossed: which engine, which resource, how much
/// was consumed against which limit. [`Exhausted`] pairs this with the
/// partial state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trip {
    /// The engine that tripped.
    pub engine: EngineId,
    /// The resource that ran out.
    pub resource: Resource,
    /// Amount consumed when the trip fired (ticks for
    /// cancellation/deadline, units of the resource otherwise).
    pub consumed: u64,
    /// The configured limit (0 when the resource has no numeric limit,
    /// e.g. cancellation).
    pub limit: u64,
}

impl std::fmt::Display for Trip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.resource {
            Resource::Cancelled => {
                write!(
                    f,
                    "{} engine cancelled after {} ticks",
                    self.engine, self.consumed
                )
            }
            Resource::Deadline => {
                write!(
                    f,
                    "{} engine passed its deadline after {} ticks",
                    self.engine, self.consumed
                )
            }
            Resource::Died => {
                write!(
                    f,
                    "{} engine died (injected crash) after {} ticks",
                    self.engine, self.consumed
                )
            }
            Resource::Panicked => {
                write!(
                    f,
                    "{} engine worker panicked after {} ticks",
                    self.engine, self.consumed
                )
            }
            _ => write!(
                f,
                "{} engine exhausted its {} budget ({} consumed, limit {})",
                self.engine, self.resource, self.consumed, self.limit
            ),
        }
    }
}

impl std::error::Error for Trip {}

/// Structured exhaustion: the trip, the last consistent partial state the
/// engine reached, and its work counters. Engines wrap this (boxed) in
/// their error enums with their own snapshot type `S`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Exhausted<S> {
    /// What tripped, where.
    pub trip: Trip,
    /// The last consistent state (engine-specific snapshot); exhausted
    /// fixpoints surrender their work here instead of discarding it.
    pub partial: S,
    /// Work counters at the moment of the trip.
    pub stats: EvalStats,
}

impl<S> Exhausted<S> {
    /// Build from a trip.
    pub fn new(trip: Trip, partial: S, stats: EvalStats) -> Exhausted<S> {
        Exhausted {
            trip,
            partial,
            stats,
        }
    }

    /// The resource that ran out.
    pub fn resource(&self) -> Resource {
        self.trip.resource
    }

    /// The engine that reported.
    pub fn engine(&self) -> EngineId {
        self.trip.engine
    }

    /// Re-wrap the snapshot (e.g. project a full state down to one
    /// relation) while keeping provenance and stats.
    pub fn map_partial<T>(self, f: impl FnOnce(S) -> T) -> Exhausted<T> {
        Exhausted {
            trip: self.trip,
            partial: f(self.partial),
            stats: self.stats,
        }
    }
}

impl<S> std::fmt::Display for Exhausted<S> {
    // no bound on S: the snapshot is summarized by the stats, not printed
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [partial state retained; {}]", self.trip, self.stats)
    }
}

impl<S: std::fmt::Debug> std::error::Error for Exhausted<S> {}

/// How many ticks pass between wall-clock checks once a run is warm (an
/// `Instant::now()` call is far cheaper than a fixpoint round, but the
/// GTM charges per machine step, so the steady-state deadline poll is
/// strided). The first `DEADLINE_STRIDE` ticks are always checked:
/// engines that tick once per *round* can do exponential work between
/// ticks (powerset-under-while doubles its state each round), and a
/// purely strided poll would let them blow memory long before tick 64.
const DEADLINE_STRIDE: u64 = 64;

/// The per-run meter. Engine hot loops charge it; the first crossed
/// limit returns a [`Trip`] and the engine converts that into its
/// [`Exhausted`] error with a snapshot.
#[derive(Clone, Debug)]
pub struct Guard {
    engine: EngineId,
    budget: Budget,
    cancel: CancelToken,
    failpoint: Option<FailPoint>,
    trace: TraceHandle,
    workers: usize,
    ckpt_spec: Option<ckpt::Spec>,
    steps: u64,
    facts: usize,
    ticks: u64,
    value_hwm: usize,
    started: Instant,
    /// Wall-clock consumed before this process's run began — restored
    /// from a checkpoint so a resumed run debits the *remaining* wall
    /// budget instead of restarting the clock.
    elapsed_base: Duration,
}

impl Guard {
    /// A guard with no governor (unlimited; useful for shims and tests).
    pub fn unlimited(engine: EngineId) -> Guard {
        Governor::unlimited().guard(engine)
    }

    /// Steps charged so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Facts currently accounted.
    pub fn facts(&self) -> usize {
        self.facts
    }

    /// The engine this guard meters.
    pub fn engine(&self) -> EngineId {
        self.engine
    }

    /// The trace handle riding with this guard; engines clone it once per
    /// run and emit their span events through it.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The largest value size reported through [`Guard::check_value`] so
    /// far (0 if none was reported) — the per-run high-water mark trace
    /// events carry.
    pub fn value_hwm(&self) -> usize {
        self.value_hwm
    }

    /// Progress ticks charged so far (the failpoint clock).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Wall-clock consumed by this computation, *including* time spent
    /// by an interrupted run this one resumed from (see
    /// [`Guard::adopt_recovery`]).
    pub fn elapsed(&self) -> Duration {
        self.elapsed_base + self.started.elapsed()
    }

    /// Open this run's durable checkpoint session, if the governor asked
    /// for one. `fingerprint` identifies the computation (hash program +
    /// input with [`ckpt::fnv64`]) so a shared directory never resumes a
    /// *different* computation's state; it runs only when a session
    /// opens, so an unjournaled run never serializes its input. Engines
    /// call [`ckpt::Session::recover`] next, then
    /// [`Guard::adopt_recovery`] once the recovered payload decodes.
    /// `None` when no checkpoints were asked for, or when the directory
    /// cannot be created or is owned by another live session (see
    /// [`Governor::with_ckpt`]).
    pub fn ckpt_session(&self, fingerprint: impl FnOnce() -> u64) -> Option<ckpt::Session> {
        let spec = self.ckpt_spec.as_ref()?;
        ckpt::Session::open(spec, self.engine.as_str(), fingerprint())
    }

    /// Adopt a recovered checkpoint: restore the meter counters and work
    /// stats to what the interrupted run had consumed — so budgets
    /// (steps, facts, ticks, and the wall clock) debit the *remainder*,
    /// not a fresh allowance — and emit the `resume` trace event that
    /// makes post-crash traces self-describing.
    pub fn adopt_recovery(&mut self, rec: &ckpt::Recovered, stats: &mut EvalStats) {
        *stats = rec.stats;
        self.steps = rec.steps;
        self.facts = rec.facts as usize;
        self.ticks = rec.ticks;
        self.value_hwm = rec.value_hwm as usize;
        self.elapsed_base = Duration::from_micros(rec.elapsed_micros);
        self.started = Instant::now();
        self.trace.emit(|| TraceEvent::Resume {
            engine: self.engine.as_str().to_owned(),
            round: rec.round,
        });
    }

    /// Package one completed round for [`ckpt::Session::commit`]: the
    /// engine supplies its round id and serialized loop state, the guard
    /// supplies the meter counters that make the round resumable.
    pub fn round_ckpt(&self, round: u64, stats: &EvalStats, payload: Vec<u8>) -> ckpt::RoundCkpt {
        ckpt::RoundCkpt {
            round,
            stats: *stats,
            steps: self.steps,
            facts: self.facts as u64,
            ticks: self.ticks,
            value_hwm: self.value_hwm as u64,
            elapsed_micros: self.elapsed().as_micros() as u64,
            payload,
        }
    }

    fn trip(&self, resource: Resource, consumed: u64, limit: u64) -> Trip {
        // the trip is the last thing a governed run observes, so it is
        // also the final event of a traced run that exhausts
        self.trace.emit(|| TraceEvent::GuardTrip {
            engine: self.engine.as_str().to_owned(),
            resource: resource.to_string(),
            consumed,
            limit,
        });
        Trip {
            engine: self.engine,
            resource,
            consumed,
            limit,
        }
    }

    /// Build the [`Resource::Steps`] trip of a fixpoint that spent its
    /// whole round allowance without converging (consumed = limit =
    /// `max_rounds`), emitting the usual `GuardTrip` event so the run's
    /// trace ends with the trip.
    pub fn rounds_trip(&self, max_rounds: u64) -> Trip {
        self.trip(Resource::Steps, max_rounds, max_rounds)
    }

    /// Build a [`Resource::Panicked`] trip for a parallel worker panic
    /// caught by the engine (via `uset_par::try_par_map`). Emits the
    /// usual `GuardTrip` trace event so a panicking run still closes its
    /// trace stream with a structured final event.
    pub fn panic_trip(&self) -> Trip {
        self.trip(Resource::Panicked, self.ticks, 0)
    }

    /// One progress tick: failpoint, cancellation, and (strided)
    /// deadline checks. Called by every charging method.
    fn tick(&mut self) -> Result<(), Trip> {
        self.ticks += 1;
        if let Some(fp) = self.failpoint {
            if self.ticks == fp.at_tick {
                return Err(match fp.action {
                    FailAction::Cancel => self.trip(Resource::Cancelled, self.ticks, 0),
                    FailAction::Die => self.trip(Resource::Died, self.ticks, 0),
                    FailAction::Exhaust(r) => {
                        let (consumed, limit) = match r {
                            Resource::Steps => {
                                (self.steps, self.budget.max_steps.unwrap_or(self.steps))
                            }
                            Resource::Facts => (
                                self.facts as u64,
                                self.budget.max_facts.unwrap_or(self.facts) as u64,
                            ),
                            _ => (self.ticks, 0),
                        };
                        self.trip(r, consumed, limit)
                    }
                });
            }
        }
        if self.cancel.is_cancelled() {
            return Err(self.trip(Resource::Cancelled, self.ticks, 0));
        }
        if let Some(max) = self.budget.max_wall {
            let poll = self.ticks <= DEADLINE_STRIDE || self.ticks.is_multiple_of(DEADLINE_STRIDE);
            if poll && self.elapsed() > max {
                return Err(self.trip(Resource::Deadline, self.ticks, max.as_millis() as u64));
            }
        }
        Ok(())
    }

    /// Charge one step (round, statement, machine step, level).
    pub fn step(&mut self) -> Result<(), Trip> {
        self.steps += 1;
        if let Some(max) = self.budget.max_steps {
            if self.steps > max {
                return Err(self.trip(Resource::Steps, self.steps, max));
            }
        }
        self.tick()
    }

    /// Charge one newly stored fact.
    pub fn add_fact(&mut self) -> Result<(), Trip> {
        self.facts += 1;
        if let Some(max) = self.budget.max_facts {
            if self.facts > max {
                return Err(self.trip(Resource::Facts, self.facts as u64, max as u64));
            }
        }
        self.tick()
    }

    /// Credit one retracted fact back to the meter. The counterpart of
    /// [`Guard::add_fact`] for long-lived computations that shrink as
    /// well as grow (the maintenance engine retracting facts): without
    /// it the facts meter ratchets upward and a session that repeatedly
    /// inserts and retracts would trip a budget its live state never
    /// approaches. Still charges one progress tick — removal is work —
    /// so deterministic failpoints and cancellation observe retraction
    /// passes too. Saturates at zero rather than underflowing if a
    /// caller retracts facts it never charged.
    pub fn remove_fact(&mut self) -> Result<(), Trip> {
        self.facts = self.facts.saturating_sub(1);
        self.tick()
    }

    /// Seed the fact counter with pre-existing facts (input state) so the
    /// budget covers totals, not just newly derived facts. Trips
    /// immediately if the base already exceeds the limit.
    pub fn set_fact_base(&mut self, n: usize) -> Result<(), Trip> {
        self.facts = n;
        if let Some(max) = self.budget.max_facts {
            if n > max {
                return Err(self.trip(Resource::Facts, n as u64, max as u64));
            }
        }
        Ok(())
    }

    /// Check one value/instance/enumeration size against the cap.
    /// `floor` lets engines keep a structural minimum cap (e.g. the BK
    /// sub-object enumeration cap) that a looser budget does not raise.
    pub fn check_value(&mut self, size: usize, floor: Option<usize>) -> Result<(), Trip> {
        self.value_hwm = self.value_hwm.max(size);
        let cap = match (self.budget.max_value_size, floor) {
            (Some(b), Some(f)) => Some(b.min(f)),
            (Some(b), None) => Some(b),
            (None, f) => f,
        };
        if let Some(max) = cap {
            if size > max {
                return Err(self.trip(Resource::ValueSize, size as u64, max as u64));
            }
        }
        Ok(())
    }

    /// A pure cooperative checkpoint (cancellation / deadline /
    /// failpoint) for loops that have no natural step or fact to charge.
    pub fn check_point(&mut self) -> Result<(), Trip> {
        self.tick()
    }

    /// The worker-pool width this run resolved at guard creation
    /// (1 = sequential). Engines consult this before fanning a phase out.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A shared brake for one parallel derivation phase.
    ///
    /// Workers cannot charge the real (single-threaded, deterministic)
    /// budget, but an unbraked phase 1 could materialize unbounded
    /// candidate buffers a finite fact budget was supposed to prevent.
    /// The brake gives workers an atomically debited allowance derived
    /// from the facts *remaining* in this guard's budget, with slack for
    /// deduplication (most raw derivations are duplicates of existing
    /// facts): 4× the remaining headroom plus 1024. Under an unlimited
    /// fact budget the allowance is unlimited and the brake only relays
    /// cancellation. A truncated candidate buffer is not a fixpoint, so
    /// when the brake trips the engine must not continue from it: it
    /// reports [`Guard::brake_trip`] or re-derives the round exactly.
    pub fn par_brake(&self) -> ParBrake {
        let allowance = self
            .budget
            .max_facts
            .map(|max| (max.saturating_sub(self.facts) as u64).saturating_mul(4) + 1024);
        ParBrake {
            consumed: AtomicU64::new(0),
            allowance,
            tripped: AtomicBool::new(false),
            cancel: self.cancel.clone(),
        }
    }

    /// A brake with no allowance: it only relays cancellation, for a
    /// phase that bounds its own buffering (see [`Guard::fact_headroom`]).
    pub fn cancel_brake(&self) -> ParBrake {
        ParBrake {
            consumed: AtomicU64::new(0),
            allowance: None,
            tripped: AtomicBool::new(false),
            cancel: self.cancel.clone(),
        }
    }

    /// Facts the budget still admits before [`Guard::add_fact`] trips
    /// (`None` under an unlimited fact budget).
    pub fn fact_headroom(&self) -> Option<usize> {
        self.budget
            .max_facts
            .map(|max| max.saturating_sub(self.facts))
    }

    /// Convert an engaged [`ParBrake`] into a facts trip (emitting the
    /// usual `GuardTrip` event) reporting the facts stored so far. The
    /// brake counts raw derivations, duplicates included, so an engaged
    /// brake does not prove the round overruns the budget: a caller that
    /// must trip exactly where one-by-one charging would re-derives the
    /// round under [`Guard::cancel_brake`] instead.
    pub fn brake_trip(&mut self) -> Trip {
        let limit = self.budget.max_facts.unwrap_or(self.facts) as u64;
        self.trip(Resource::Facts, self.facts as u64, limit)
    }
}

/// What the body of a [`Governor::run`] works with: the run's meter and,
/// when the governor asked for checkpoints, its session.
#[derive(Debug)]
pub struct Governed {
    /// The run's meter.
    pub guard: Guard,
    /// The run's checkpoint session, if one opened.
    pub session: Option<ckpt::Session>,
}

impl Governed {
    /// Commit one completed round, if a session is open: the guard's
    /// counters, `stats` and the loop state `payload` builds (called
    /// only when there is a session to write to).
    pub fn commit(&mut self, round: u64, stats: &EvalStats, payload: impl FnOnce() -> Vec<u8>) {
        if let Some(sess) = self.session.as_mut() {
            sess.commit(&self.guard.round_ckpt(round, stats, payload()));
        }
    }
}

/// Shared work allowance for one parallel phase: a lock-free counter the
/// workers debit, plus the run's [`CancelToken`]. See
/// [`Guard::par_brake`]. Workers poll [`ParBrake::should_stop`] between
/// units and abandon their buffers when it fires; determinism is
/// unaffected because an engaged brake never feeds a truncated buffer
/// onward: the engine ends the run (via [`Guard::brake_trip`]) or
/// re-derives the phase.
#[derive(Debug)]
pub struct ParBrake {
    consumed: AtomicU64,
    allowance: Option<u64>,
    tripped: AtomicBool,
    cancel: CancelToken,
}

impl ParBrake {
    /// Debit `n` derived candidates. Returns `false` once the allowance
    /// is overdrawn — the worker should stop deriving.
    pub fn charge(&self, n: u64) -> bool {
        if let Some(allowance) = self.allowance {
            let before = self.consumed.fetch_add(n, Ordering::Relaxed);
            if before.saturating_add(n) > allowance {
                self.tripped.store(true, Ordering::Relaxed);
                return false;
            }
        }
        true
    }

    /// True once the allowance is overdrawn or the run is cancelled —
    /// workers poll this between work units.
    pub fn should_stop(&self) -> bool {
        self.tripped.load(Ordering::Relaxed) || self.cancel.is_cancelled()
    }

    /// True if the allowance was overdrawn (as opposed to cancellation,
    /// which the guard's own next tick reports with better provenance).
    pub fn engaged(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// Total candidates debited so far.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_runs_only_when_a_session_opens() {
        let off = Governor::unlimited().with_ckpt_config(CkptConfig::Off);
        let guard = off.guard(EngineId::Datalog);
        assert!(guard
            .ckpt_session(|| unreachable!("no checkpoint directory, no fingerprint"))
            .is_none());
    }

    #[test]
    fn unlimited_guard_never_trips_on_work() {
        let mut g = Guard::unlimited(EngineId::Col);
        for _ in 0..10_000 {
            g.step().unwrap();
            g.add_fact().unwrap();
        }
        assert_eq!(g.steps(), 10_000);
        assert_eq!(g.facts(), 10_000);
    }

    #[test]
    fn step_budget_trips_with_provenance() {
        let gov = Governor::new(Budget::unlimited().with_steps(3));
        let mut g = gov.guard(EngineId::Bk);
        g.step().unwrap();
        g.step().unwrap();
        g.step().unwrap();
        let trip = g.step().unwrap_err();
        assert_eq!(trip.engine, EngineId::Bk);
        assert_eq!(trip.resource, Resource::Steps);
        assert_eq!(trip.consumed, 4);
        assert_eq!(trip.limit, 3);
    }

    #[test]
    fn fact_budget_counts_base_facts() {
        let gov = Governor::new(Budget::unlimited().with_facts(5));
        let mut g = gov.guard(EngineId::Datalog);
        g.set_fact_base(4).unwrap();
        g.add_fact().unwrap();
        let trip = g.add_fact().unwrap_err();
        assert_eq!(trip.resource, Resource::Facts);
        assert_eq!(trip.consumed, 6);
        // a base already over the limit trips immediately
        let mut g2 = gov.guard(EngineId::Datalog);
        assert!(g2.set_fact_base(9).is_err());
    }

    #[test]
    fn value_size_uses_tighter_of_budget_and_floor() {
        let gov = Governor::new(Budget::unlimited().with_value_size(100));
        let mut g = gov.guard(EngineId::Algebra);
        g.check_value(99, None).unwrap();
        assert!(g.check_value(101, None).is_err());
        // the structural floor wins when tighter
        assert!(g.check_value(51, Some(50)).is_err());
        // no budget, floor only
        let mut g2 = Guard::unlimited(EngineId::Bk);
        g2.check_value(10_000, None).unwrap();
        assert!(g2.check_value(51, Some(50)).is_err());
    }

    #[test]
    fn remove_fact_credits_the_meter() {
        let gov = Governor::new(Budget::unlimited().with_facts(2));
        let mut g = gov.guard(EngineId::Ivm);
        g.add_fact().unwrap();
        g.add_fact().unwrap();
        // churn at the limit: retract + insert must not ratchet upward
        for _ in 0..5 {
            g.remove_fact().unwrap();
            g.add_fact().unwrap();
        }
        assert_eq!(g.facts(), 2);
        let trip = g.add_fact().unwrap_err();
        assert_eq!(trip.resource, Resource::Facts);
        // saturates at zero instead of underflowing
        let gov = Governor::unlimited();
        let mut g = gov.guard(EngineId::Ivm);
        g.remove_fact().unwrap();
        assert_eq!(g.facts(), 0);
    }

    #[test]
    fn cancellation_observed_at_next_tick() {
        let token = CancelToken::new();
        let gov = Governor::unlimited().with_cancel(token.clone());
        let mut g = gov.guard(EngineId::Gtm);
        g.step().unwrap();
        token.cancel();
        let trip = g.step().unwrap_err();
        assert_eq!(trip.resource, Resource::Cancelled);
        assert_eq!(trip.engine, EngineId::Gtm);
    }

    #[test]
    fn deadline_trips_on_strided_check() {
        let gov = Governor::new(Budget::unlimited().with_wall(Duration::from_millis(0)));
        let mut g = gov.guard(EngineId::Calculus);
        std::thread::sleep(Duration::from_millis(2));
        let mut tripped = None;
        for _ in 0..(DEADLINE_STRIDE + 1) {
            if let Err(t) = g.step() {
                tripped = Some(t);
                break;
            }
        }
        let trip = tripped.expect("deadline must trip within one stride");
        assert_eq!(trip.resource, Resource::Deadline);
    }

    #[test]
    fn deadline_polled_on_every_early_tick() {
        // a round-granular engine can do exponential work per tick, so
        // the very first tick past the deadline must trip — no stride
        let gov = Governor::new(Budget::unlimited().with_wall(Duration::ZERO));
        let mut g = gov.guard(EngineId::Algebra);
        std::thread::sleep(Duration::from_millis(1));
        let trip = g.step().unwrap_err();
        assert_eq!(trip.resource, Resource::Deadline);
        assert_eq!(g.steps(), 1);
    }

    #[test]
    fn failpoint_fires_deterministically() {
        let gov = Governor::unlimited().with_failpoint(FailPoint::cancel_at(5));
        for _ in 0..3 {
            let mut g = gov.guard(EngineId::Col);
            let mut survived = 0;
            let trip = loop {
                match g.step() {
                    Ok(()) => survived += 1,
                    Err(t) => break t,
                }
            };
            assert_eq!(survived, 4);
            assert_eq!(trip.resource, Resource::Cancelled);
        }
        // exhaust-flavoured injection reports the requested resource
        let gov = Governor::unlimited().with_failpoint(FailPoint::exhaust_at(2, Resource::Facts));
        let mut g = gov.guard(EngineId::Col);
        g.add_fact().unwrap();
        assert_eq!(g.add_fact().unwrap_err().resource, Resource::Facts);
    }

    #[test]
    fn panic_trip_reports_panicked_resource() {
        let gov = Governor::unlimited();
        let mut g = gov.guard(EngineId::Datalog);
        g.step().unwrap();
        g.step().unwrap();
        let trip = g.panic_trip();
        assert_eq!(trip.resource, Resource::Panicked);
        assert_eq!(trip.engine, EngineId::Datalog);
        assert_eq!(trip.consumed, 2);
        assert!(trip.to_string().contains("worker panicked"));
        assert_eq!(Resource::Panicked.to_string(), "panicked");
    }

    #[test]
    fn budget_min_keeps_tighter_limits() {
        let a = Budget::unlimited().with_steps(10).with_facts(100);
        let b = Budget::unlimited().with_steps(50).with_value_size(7);
        let m = a.min(b);
        assert_eq!(m.max_steps, Some(10));
        assert_eq!(m.max_facts, Some(100));
        assert_eq!(m.max_value_size, Some(7));
        assert_eq!(m.max_wall, None);
    }

    #[test]
    fn guard_emits_guard_trip_event_on_any_trip() {
        let (handle, mem) = TraceHandle::mem();
        let gov = Governor::new(Budget::unlimited().with_steps(2)).with_trace(handle);
        let mut g = gov.guard(EngineId::Col);
        g.step().unwrap();
        g.step().unwrap();
        let trip = g.step().unwrap_err();
        assert_eq!(trip.resource, Resource::Steps);
        let events = mem.events();
        assert_eq!(events.len(), 1);
        match &events[0] {
            TraceEvent::GuardTrip {
                engine,
                resource,
                consumed,
                limit,
            } => {
                assert_eq!(engine, "col");
                assert_eq!(resource, "steps");
                assert_eq!(*consumed, 3);
                assert_eq!(*limit, 2);
            }
            other => panic!("expected GuardTrip, got {other:?}"),
        }
    }

    #[test]
    fn guard_tracks_value_high_water_mark() {
        let mut g = Guard::unlimited(EngineId::Algebra);
        assert_eq!(g.value_hwm(), 0);
        g.check_value(10, None).unwrap();
        g.check_value(3, None).unwrap();
        assert_eq!(g.value_hwm(), 10);
        // the mark records even a tripping check
        let gov = Governor::new(Budget::unlimited().with_value_size(5));
        let mut g2 = gov.guard(EngineId::Algebra);
        assert!(g2.check_value(7, None).is_err());
        assert_eq!(g2.value_hwm(), 7);
    }

    #[test]
    fn ungoverned_guard_trace_is_disabled() {
        let g = Guard::unlimited(EngineId::Bk);
        assert!(!g.trace().enabled());
        assert!(!g.trace().provenance());
    }

    #[test]
    fn guard_resolves_workers_once_per_run() {
        let gov = Governor::unlimited().with_par(ParConfig::workers(4));
        assert_eq!(gov.guard(EngineId::Datalog).workers(), 4);
        let off = Governor::unlimited().with_par(ParConfig::off());
        assert_eq!(off.guard(EngineId::Datalog).workers(), 1);
    }

    #[test]
    fn opt_config_pins_override_env() {
        // Off/On never consult the environment, so they are test-safe
        assert!(!OptConfig::Off.resolve());
        assert!(OptConfig::On.resolve());
        assert_eq!(Governor::unlimited().opt, OptConfig::Env);
        assert_eq!(
            Governor::unlimited().with_opt(OptConfig::On).opt,
            OptConfig::On
        );
    }

    #[test]
    fn par_brake_unlimited_budget_never_engages() {
        let g = Guard::unlimited(EngineId::Col);
        let brake = g.par_brake();
        assert!(brake.charge(u64::MAX / 2));
        assert!(brake.charge(u64::MAX / 2));
        assert!(!brake.should_stop());
        assert!(!brake.engaged());
    }

    #[test]
    fn par_brake_engages_past_allowance_and_relays_cancel() {
        let gov = Governor::new(Budget::unlimited().with_facts(10));
        let g = gov.guard(EngineId::Datalog);
        let brake = g.par_brake();
        // allowance = 10 * 4 + 1024 = 1064
        assert!(brake.charge(1064));
        assert!(!brake.should_stop());
        assert!(!brake.charge(1));
        assert!(brake.should_stop());
        assert!(brake.engaged());
        assert_eq!(brake.consumed(), 1065);
        // cancellation stops workers without marking the brake engaged
        let token = CancelToken::new();
        let gov2 = Governor::unlimited().with_cancel(token.clone());
        let brake2 = gov2.guard(EngineId::Col).par_brake();
        assert!(!brake2.should_stop());
        token.cancel();
        assert!(brake2.should_stop());
        assert!(!brake2.engaged());
    }

    #[test]
    fn brake_trip_reports_facts_with_trace() {
        let (handle, mem) = TraceHandle::mem();
        let gov = Governor::new(Budget::unlimited().with_facts(10)).with_trace(handle);
        let mut g = gov.guard(EngineId::Datalog);
        g.set_fact_base(7).unwrap();
        let trip = g.brake_trip();
        assert_eq!(trip.resource, Resource::Facts);
        assert_eq!(trip.consumed, 7);
        assert_eq!(trip.limit, 10);
        assert!(matches!(
            mem.events().as_slice(),
            [TraceEvent::GuardTrip { .. }]
        ));
    }

    #[test]
    fn exhausted_display_carries_provenance_and_stats() {
        let trip = Trip {
            engine: EngineId::Bk,
            resource: Resource::Facts,
            consumed: 5001,
            limit: 5000,
        };
        let e = Exhausted::new(trip, "snapshot", EvalStats::default());
        let msg = e.to_string();
        assert!(msg.contains("bk"), "{msg}");
        assert!(msg.contains("facts"), "{msg}");
        assert!(msg.contains("5001"), "{msg}");
        assert!(msg.contains("partial state retained"), "{msg}");
        let mapped = e.map_partial(|s| s.len());
        assert_eq!(mapped.partial, 8);
        assert_eq!(mapped.resource(), Resource::Facts);
        assert_eq!(mapped.engine(), EngineId::Bk);
    }
}
