//! # uset-ivm — incremental maintenance of materialized fixpoints
//!
//! The paper's query languages are *computable queries*: a DATALOG¬ or
//! COL program denotes a function from database to database, and every
//! engine in this workspace computes it from scratch. This crate adds
//! the missing lifecycle: a [`MaterializedSession`] holds a program's
//! materialized fixpoint and absorbs batches of EDB **insertions and
//! retractions** ([`DeltaBatch`]), bringing the state to exactly what a
//! from-scratch re-evaluation of the updated EDB would produce — without
//! paying for one.
//!
//! Two classical algorithms split the work along the program's
//! dependency structure (the split is planned statically by
//! [`uset_opt::maintenance_plan`]):
//!
//! * **Counting** for non-recursive strata: each derived fact carries
//!   its exact number of derivations; delta rules (see `fire` in the
//!   crate source) adjust the counts with signed multiplicities and a
//!   fact dies when its count reaches zero.
//! * **Delete-and-rederive (DRed)** for recursive strata: over-delete
//!   everything a retraction could have supported, rederive what still
//!   has an independent proof (shardable across [`uset_par`] workers),
//!   then propagate insertions semi-naively.
//!
//! Shapes with no sound incremental story are detected up front and
//! served by transparent recomputation: **inflationary** fixpoints are
//! not change-monotone (a retraction can invalidate the entire firing
//! history), and **COL** data functions accumulate set values that do
//! not decompose under retraction. `USET_IVM=recompute` forces the same
//! fallback everywhere ([`IvmMode`]).
//!
//! Sessions are governed ([`uset_guard`]): every delta firing, fact
//! insertion, and fact retraction charges the engine's guard, and a
//! budget trip **rolls the batch back** — apply is atomic; on error the
//! session still holds the pre-batch state. When the governor carries a
//! checkpoint spec, applied batches are journaled as logical deltas
//! ([`uset_guard::ckpt`]), so a crashed session recovers by folding the
//! journal into the EDB and rebuilding.

pub mod col;
pub mod datalog;
mod delta;
mod fire;

pub use col::{ColSemantics, ColSession};
pub use datalog::DatalogSession;
pub use delta::{DeltaBatch, NormalBatch};

use uset_deductive::{ColEvalError, DlError};
use uset_guard::Trip;
use uset_object::EvalStats;

/// Which DATALOG¬ semantics the session materializes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semantics {
    /// Stratified, naive per-stratum fixpoints.
    Stratified,
    /// Stratified with semi-naive delta rounds.
    StratifiedSeminaive,
    /// Inflationary (fires all rules on the growing state). Not
    /// change-monotone: sessions fall back to recomputation.
    Inflationary,
}

/// The maintenance mode knob (`USET_IVM`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IvmMode {
    /// Incremental where the plan allows, recompute otherwise.
    #[default]
    Auto,
    /// Always recompute from scratch (the safety hatch).
    Recompute,
}

impl IvmMode {
    /// Read `USET_IVM`: `recompute`, `off`, or `0` force recomputation;
    /// anything else (including unset) is [`IvmMode::Auto`].
    pub fn from_env() -> IvmMode {
        match std::env::var("USET_IVM").ok().as_deref() {
            Some("recompute") | Some("off") | Some("0") => IvmMode::Recompute,
            _ => IvmMode::Auto,
        }
    }
}

/// What one [`DeltaBatch`] application did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ApplyReport {
    /// 1-based batch number within the session.
    pub batch: u64,
    /// Effective EDB insertions (after normalization).
    pub inserted: u64,
    /// Effective EDB retractions (after normalization).
    pub retracted: u64,
    /// Derived (IDB) facts added to the materialized state.
    pub idb_added: u64,
    /// Derived (IDB) facts removed from the materialized state.
    pub idb_removed: u64,
    /// True when the batch was served by full recomputation.
    pub fallback: bool,
    /// Work this apply performed. On the fallback path these are exactly
    /// the from-scratch engine's counters; on the incremental path they
    /// count delta firings and are (by design) much smaller.
    pub stats: EvalStats,
}

/// Maintenance failure. Apply is atomic: on any error the session still
/// holds the pre-batch state.
#[derive(Clone, Debug)]
pub enum IvmError {
    /// The batch touches a derived (IDB) predicate; sessions accept EDB
    /// deltas only.
    NotEdb {
        /// The offending predicate.
        pred: String,
    },
    /// A resource budget tripped mid-batch; the batch was rolled back.
    Exhausted {
        /// What tripped.
        trip: Trip,
        /// Work counters at the moment of the trip.
        stats: EvalStats,
    },
    /// The DATALOG¬ engine rejected the program or its evaluation.
    Datalog(DlError),
    /// The COL engine rejected the program or its evaluation.
    Col(ColEvalError),
}

impl std::fmt::Display for IvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IvmError::NotEdb { pred } => write!(
                f,
                "delta batch touches {pred}, which is derived (IDB); sessions accept EDB deltas only"
            ),
            IvmError::Exhausted { trip, stats } => {
                write!(f, "maintenance exhausted: {trip} [batch rolled back; {stats}]")
            }
            IvmError::Datalog(e) => write!(f, "datalog: {e}"),
            IvmError::Col(e) => write!(f, "col: {e}"),
        }
    }
}

impl std::error::Error for IvmError {}

/// A maintained fixpoint over either engine family, behind one `apply`
/// surface.
pub enum MaterializedSession {
    /// A DATALOG¬ session (incremental where the plan allows).
    Datalog(DatalogSession),
    /// A COL session (always recompute-on-apply).
    Col(ColSession),
}

impl MaterializedSession {
    /// Open a DATALOG¬ session (mode from `USET_IVM`).
    pub fn datalog(
        prog: uset_deductive::DatalogProgram,
        db: &uset_object::Database,
        semantics: Semantics,
        governor: &uset_guard::Governor,
    ) -> Result<MaterializedSession, IvmError> {
        DatalogSession::new(prog, db, semantics, governor).map(MaterializedSession::Datalog)
    }

    /// Open a COL session.
    pub fn col(
        prog: uset_deductive::ColProgram,
        db: &uset_object::Database,
        config: uset_deductive::ColConfig,
        strategy: uset_deductive::ColStrategy,
        semantics: ColSemantics,
        governor: &uset_guard::Governor,
    ) -> Result<MaterializedSession, IvmError> {
        ColSession::new(prog, db, config, strategy, semantics, governor)
            .map(MaterializedSession::Col)
    }

    /// Apply one delta batch.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<ApplyReport, IvmError> {
        match self {
            MaterializedSession::Datalog(s) => s.apply(batch),
            MaterializedSession::Col(s) => s.apply(batch),
        }
    }

    /// Batches applied so far.
    pub fn batches(&self) -> u64 {
        match self {
            MaterializedSession::Datalog(s) => s.batches(),
            MaterializedSession::Col(s) => s.batches(),
        }
    }

    /// Whether applied batches are journaled for crash recovery (see
    /// [`DatalogSession::journaled`]).
    pub fn journaled(&self) -> bool {
        match self {
            MaterializedSession::Datalog(s) => s.journaled(),
            MaterializedSession::Col(s) => s.journaled(),
        }
    }

    /// Close the checkpoint journal cleanly, if one is open.
    pub fn finish(&mut self) {
        match self {
            MaterializedSession::Datalog(s) => s.finish(),
            MaterializedSession::Col(s) => s.finish(),
        }
    }

    /// The DATALOG¬ session, when that is what this is.
    pub fn as_datalog(&self) -> Option<&DatalogSession> {
        match self {
            MaterializedSession::Datalog(s) => Some(s),
            MaterializedSession::Col(_) => None,
        }
    }

    /// The COL session, when that is what this is.
    pub fn as_col(&self) -> Option<&ColSession> {
        match self {
            MaterializedSession::Col(s) => Some(s),
            MaterializedSession::Datalog(_) => None,
        }
    }
}
