//! Durable checkpoints, write-ahead round logs, and crash recovery for
//! the untyped-sets engines.
//!
//! The paper's languages are C-complete, so legitimate evaluations run
//! for hours (powerset under `while`, Theorem 4.1b; deep terminal
//! invention, Theorem 6.4). `uset-guard` already makes such runs
//! *interruptible* — this crate makes them *resumable*: every
//! round-structured engine can persist its round-consistent loop state
//! through a [`Session`] and, after a crash, recover the last durable
//! round and continue **bit-identically** to an uninterrupted run —
//! final states, `EvalStats`, budget accounting, and the post-resume
//! trace tail all match.
//!
//! ## On-disk format (DESIGN.md §13)
//!
//! A session owns one directory (`<dir>/<engine>/`) for as long as it is
//! live: an in-process registry refuses a second concurrent opener (which
//! then runs without checkpoints) until the owner finishes or is dropped,
//! so two runs never read or write each other's files. The directory
//! contains at most one *snapshot* + *write-ahead log* pair at a time:
//!
//! * `snap-<round>.ckpt` — a full serialized round: magic + format
//!   version, engine label, run fingerprint, round header (round number,
//!   [`EvalStats`], guard counters, elapsed wall-clock), the engine's
//!   payload bytes, and a trailing CRC-32 over everything before it.
//!   Snapshots are committed atomically: written to a tmp file, synced,
//!   then renamed into place.
//! * `wal-<round>.log` — one appended record per committed round since
//!   the snapshot. Each record is `[len][body][crc32(body)]`, where the
//!   body carries a kind tag and the same round header, then either a
//!   *byte delta* against the previous round's payload (common prefix /
//!   common suffix / middle — [`Session::commit`]) or an opaque
//!   *engine-level delta* that the engine folds back into the snapshot
//!   on recovery ([`Session::commit_delta`]), so cheap rounds append
//!   cheap records. Records are appended with a single `write_all`.
//!
//! Every `every`-th commit rolls the pair: a fresh snapshot is committed
//! and a fresh (empty) WAL replaces the old one; the previous pair is
//! deleted only after the new snapshot has been renamed into place.
//!
//! Commits are buffered by default ([`SyncMode::Normal`]): completed
//! writes survive *process death* (the tested chaos model) in the page
//! cache without paying an fsync per round; a power loss may roll back
//! to an older durable prefix, never to a corrupt state. `sync=full`
//! fsyncs every commit for power-loss durability.
//!
//! ## Recovery
//!
//! [`Session::recover`] scans the directory, takes the newest snapshot
//! whose CRC (and engine label and fingerprint) verify — falling back to
//! older ones if the newest is damaged — then replays its WAL prefix:
//! records are applied in order while lengths, CRCs, and round
//! monotonicity hold; the first torn or corrupt record ends replay and
//! the invalid tail is truncated away so the next append starts from the
//! last durable round. A checkpoint that fails *any* validation is never
//! loaded.
//!
//! ## Never fail the run
//!
//! Durability must not turn a working evaluation into a failing one: all
//! I/O errors during commit poison the session (with a note on stderr)
//! and the run simply continues unprotected, exactly like `uset-trace`'s
//! degraded mode.
//!
//! The crate is dependency-free (only `uset-object`, for the state
//! types) and knows nothing about the engines; `uset-guard` re-exports
//! it and carries the knob ([`Spec`], `USET_CKPT=dir:<path>[,every=N]`)
//! on the `Governor`.

pub mod codec;

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use uset_object::EvalStats;

pub use codec::{crc32, fnv64, CodecError, Dec, Enc};

/// Magic prefix of a snapshot file: identifies the format and its
/// version in one token. Bump the trailing digit on any layout change —
/// recovery treats an unknown magic as an invalid snapshot.
pub const SNAP_MAGIC: &[u8; 8] = b"USETCKP2";

/// Default snapshot cadence: a full snapshot every this many commits,
/// WAL deltas in between.
pub const DEFAULT_EVERY: u64 = 16;

/// How hard a commit pushes bytes toward the platter.
///
/// The chaos model this crate is tested against is *process death*: the
/// evaluation is killed (or dies) between or inside commits. For that
/// model [`SyncMode::Normal`] is already durable — completed `write`s
/// and `rename`s survive the process in the page cache — and it keeps
/// the per-round commit cost down where the `ablation/ckpt_overhead`
/// bench demands (< 10% on a semi-naive transitive closure).
///
/// Power loss is a strictly harsher model: under `Normal` the kernel may
/// reorder or drop recent writes, so a machine-level crash can lose
/// recent rounds — recovery then falls back to the last prefix that
/// validates (or starts fresh), never to a corrupt state, because every
/// snapshot and record is CRC-framed. [`SyncMode::Full`] closes that gap
/// by fsyncing every commit, like SQLite's `synchronous=FULL` versus
/// `NORMAL`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SyncMode {
    /// Buffered writes, no per-commit fsync (the default): durable
    /// against process death, prefix-durable against power loss.
    #[default]
    Normal,
    /// fsync data and directory on every commit: durable against power
    /// loss at a heavy per-round cost.
    Full,
}

/// Checkpoint configuration: where to persist, how often to roll the
/// snapshot, and how hard to sync. Parsed from
/// `USET_CKPT=dir:<path>[,every=N][,sync=full|normal]` (or `off`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Spec {
    /// Root directory; each engine gets a subdirectory under it.
    pub dir: PathBuf,
    /// Full-snapshot cadence in commits (≥ 1); WAL records in between.
    pub every: u64,
    /// Commit durability level (see [`SyncMode`]).
    pub sync: SyncMode,
}

impl Spec {
    /// A spec writing under `dir` with the default cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Spec {
        Spec {
            dir: dir.into(),
            every: DEFAULT_EVERY,
            sync: SyncMode::default(),
        }
    }

    /// Override the snapshot cadence (clamped to ≥ 1).
    pub fn with_every(mut self, every: u64) -> Spec {
        self.every = every.max(1);
        self
    }

    /// Override the commit durability level.
    pub fn with_sync(mut self, sync: SyncMode) -> Spec {
        self.sync = sync;
        self
    }

    /// Read `USET_CKPT` from the environment. Unset, empty, `off`, or an
    /// unusable spec (with a note on stderr) disable checkpointing.
    pub fn from_env() -> Option<Spec> {
        match std::env::var("USET_CKPT") {
            Ok(raw) => match Spec::parse(&raw) {
                Ok(spec) => spec,
                Err(err) => {
                    eprintln!("uset-ckpt: ignoring USET_CKPT={raw:?}: {err}");
                    None
                }
            },
            Err(_) => None,
        }
    }

    /// Parse a `USET_CKPT`-style spec: `off` (or empty) → `None`,
    /// `dir:<path>[,every=N][,sync=full|normal]` → a spec. Options are
    /// peeled off the right so the path itself may contain commas.
    pub fn parse(spec: &str) -> Result<Option<Spec>, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "off" || spec == "0" {
            return Ok(None);
        }
        let mut path = spec.strip_prefix("dir:").ok_or_else(|| {
            format!("unknown ckpt spec {spec:?} (expected off | dir:<path>[,every=N][,sync=full])")
        })?;
        let mut every = DEFAULT_EVERY;
        let mut sync = SyncMode::default();
        while let Some((head, opt)) = path.rsplit_once(',') {
            if let Some(n) = opt.strip_prefix("every=") {
                every = n
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad every={n:?} (expected a positive integer)"))?;
                if every == 0 {
                    return Err("every=0 is not a cadence; use off to disable".into());
                }
            } else if let Some(m) = opt.strip_prefix("sync=") {
                sync = match m.trim() {
                    "full" => SyncMode::Full,
                    "normal" => SyncMode::Normal,
                    _ => return Err(format!("bad sync={m:?} (expected full or normal)")),
                };
            } else {
                break; // not an option — the comma belongs to the path
            }
            path = head;
        }
        if path.is_empty() {
            return Err("dir: needs a path (USET_CKPT=dir:/tmp/ckpt)".into());
        }
        Ok(Some(Spec::new(path).with_every(every).with_sync(sync)))
    }
}

/// Deterministic fault injection inside the checkpoint writer itself,
/// for chaos tests: damage the `record`-th WAL append (1-based) and then
/// poison the session, simulating a process that died mid-write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Chaos {
    /// Write only the first `keep_bytes` bytes of the record (a torn
    /// write), then die.
    TornWrite {
        /// 1-based WAL append to damage.
        record: u64,
        /// How many bytes of the framed record reach the disk.
        keep_bytes: usize,
    },
    /// Flip one bit of the byte at `offset` within the framed record (a
    /// silent media error), then die.
    FlipByte {
        /// 1-based WAL append to damage.
        record: u64,
        /// Byte offset within the framed record to corrupt.
        offset: usize,
    },
}

/// One committed round: the engine's loop-state payload plus the header
/// every record carries — round number, work counters, and the guard
/// meters that make budgets compose across a resume.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundCkpt {
    /// Monotone round id (engine rounds, invention levels, GTM stride
    /// boundaries — each engine documents its unit).
    pub round: u64,
    /// Work counters at the end of the round.
    pub stats: EvalStats,
    /// Guard steps charged so far.
    pub steps: u64,
    /// Guard facts accounted so far.
    pub facts: u64,
    /// Guard progress ticks so far.
    pub ticks: u64,
    /// Guard value-size high-water mark so far.
    pub value_hwm: u64,
    /// Wall-clock consumed so far, in microseconds — a resumed run
    /// debits the *remaining* wall budget, not a fresh clock.
    pub elapsed_micros: u64,
    /// The engine's serialized loop state (see [`codec`]).
    pub payload: Vec<u8>,
}

/// What [`Session::recover`] found: the last durable round, ready for
/// the engine to decode and resume from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovered {
    /// Round id of the recovered state.
    pub round: u64,
    /// Work counters as of that round.
    pub stats: EvalStats,
    /// Guard counters as of that round.
    pub steps: u64,
    /// Guard facts as of that round.
    pub facts: u64,
    /// Guard ticks as of that round.
    pub ticks: u64,
    /// Guard value-size high-water mark as of that round.
    pub value_hwm: u64,
    /// Wall-clock the interrupted run had consumed, in microseconds.
    pub elapsed_micros: u64,
    /// The serialized loop state to decode. For a session committed
    /// through [`Session::commit`] this is the *complete* state of
    /// `round`; for one committed through [`Session::commit_delta`] it
    /// is the last snapshot's complete state, with `deltas` still to
    /// fold in.
    pub payload: Vec<u8>,
    /// Engine-level delta payloads appended after the snapshot (in
    /// commit order), for the engine to fold into `payload`. Empty
    /// unless the run committed through [`Session::commit_delta`].
    pub deltas: Vec<Vec<u8>>,
}

// the 7 fixed header fields shared by snapshot bodies and WAL records
fn put_header(e: &mut Enc, rc: &RoundCkpt) {
    e.put_u64(rc.round);
    e.put_stats(&rc.stats);
    e.put_u64(rc.steps);
    e.put_u64(rc.facts);
    e.put_u64(rc.ticks);
    e.put_u64(rc.value_hwm);
    e.put_u64(rc.elapsed_micros);
}

fn take_header(d: &mut Dec<'_>) -> Result<Recovered, CodecError> {
    Ok(Recovered {
        round: d.u64()?,
        stats: d.stats()?,
        steps: d.u64()?,
        facts: d.u64()?,
        ticks: d.u64()?,
        value_hwm: d.u64()?,
        elapsed_micros: d.u64()?,
        payload: Vec::new(),
        deltas: Vec::new(),
    })
}

/// WAL record kind: the body carries a byte delta (common prefix /
/// suffix / middle) against the previous round's complete payload.
const REC_BYTE_DELTA: u8 = 0;
/// WAL record kind: the body carries an opaque engine-level delta that
/// only the engine knows how to fold into the snapshot state.
const REC_ENGINE_DELTA: u8 = 1;

/// Compute the (prefix, suffix, middle) byte delta from `old` to `new`:
/// `new = old[..prefix] ++ mid ++ old[old.len()-suffix..]`.
fn byte_delta<'a>(old: &[u8], new: &'a [u8]) -> (usize, usize, &'a [u8]) {
    let prefix = old
        .iter()
        .zip(new.iter())
        .take_while(|(a, b)| a == b)
        .count();
    let max_suffix = old.len().min(new.len()) - prefix;
    let suffix = old[prefix..]
        .iter()
        .rev()
        .zip(new[prefix..].iter().rev())
        .take(max_suffix)
        .take_while(|(a, b)| a == b)
        .count();
    (prefix, suffix, &new[prefix..new.len() - suffix])
}

fn apply_delta(old: &[u8], prefix: usize, suffix: usize, mid: &[u8]) -> Option<Vec<u8>> {
    if prefix.checked_add(suffix)? > old.len() {
        return None;
    }
    let mut out = Vec::with_capacity(prefix + mid.len() + suffix);
    out.extend_from_slice(&old[..prefix]);
    out.extend_from_slice(mid);
    out.extend_from_slice(&old[old.len() - suffix..]);
    Some(out)
}

fn snap_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("snap-{round:020}.ckpt"))
}

fn wal_path(dir: &Path, round: u64) -> PathBuf {
    dir.join(format!("wal-{round:020}.log"))
}

/// Parse `snap-<round>.ckpt` / `wal-<round>.log` names back to rounds.
fn parse_round(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

// best-effort directory fsync so a rename is durable before we delete
// the files it replaces; not all platforms support it, so errors are
// ignored (the commit protocol is still crash-safe, just not
// power-loss-safe on those platforms)
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Directories owned by a live [`Session`] in this process, keyed by
/// canonical path.
static LIVE: Mutex<Vec<PathBuf>> = Mutex::new(Vec::new());

fn live() -> std::sync::MutexGuard<'static, Vec<PathBuf>> {
    // the list stays consistent even if a holder panicked
    LIVE.lock().unwrap_or_else(|e| e.into_inner())
}

/// One engine run's checkpoint writer/recoverer over a directory.
///
/// Lifecycle: [`Session::open`] → [`Session::recover`] (optional) → one
/// [`Session::commit`] per completed round → [`Session::finish`] on
/// successful completion (which clears the directory so a later fresh
/// run does not resume a finished computation). The session owns its
/// directory from `open` until `finish` or drop — a crashed run (an
/// error return, a panic) frees it too.
#[derive(Debug)]
pub struct Session {
    dir: PathBuf,
    /// The registry entry this session holds (`None` once released).
    owned: Option<PathBuf>,
    engine: String,
    fingerprint: u64,
    every: u64,
    sync: SyncMode,
    /// Open WAL appender (None until the first snapshot commits).
    wal: Option<File>,
    /// WAL appends since the last snapshot.
    since_snap: u64,
    /// Round of the current snapshot/WAL pair.
    snap_round: u64,
    /// Last committed round id (monotonicity check).
    last_round: Option<u64>,
    /// Payload bytes of the last committed round (delta base).
    prev_payload: Vec<u8>,
    /// WAL appends so far (drives [`Chaos`] triggering).
    appends: u64,
    chaos: Option<Chaos>,
    poisoned: bool,
}

impl Session {
    /// Open (creating the directory) a session for `engine` under
    /// `spec.dir`. The `fingerprint` identifies the computation — hash
    /// of the program and input — so recovery never resumes a checkpoint
    /// belonging to a *different* computation that happened to share the
    /// directory. Returns `None` (with a note on stderr) if the
    /// directory cannot be created, or if another live session in this
    /// process owns it — the caller then runs without checkpoints rather
    /// than share (and clobber) the owner's journal.
    pub fn open(spec: &Spec, engine: &str, fingerprint: u64) -> Option<Session> {
        let mut session = Session::open_unowned(spec, engine, fingerprint)?;
        let key = fs::canonicalize(&session.dir).unwrap_or_else(|_| session.dir.clone());
        let mut live = live();
        if live.contains(&key) {
            eprintln!(
                "uset-ckpt: {} is owned by another live session; checkpointing disabled for this run",
                session.dir.display()
            );
            return None;
        }
        live.push(key.clone());
        session.owned = Some(key);
        Some(session)
    }

    /// [`Session::open`] without claiming the directory in the registry.
    fn open_unowned(spec: &Spec, engine: &str, fingerprint: u64) -> Option<Session> {
        let dir = spec.dir.join(engine);
        if let Err(err) = fs::create_dir_all(&dir) {
            eprintln!("uset-ckpt: cannot create {}: {err}", dir.display());
            return None;
        }
        Some(Session {
            dir,
            owned: None,
            engine: engine.to_owned(),
            fingerprint,
            every: spec.every.max(1),
            sync: spec.sync,
            wal: None,
            since_snap: 0,
            snap_round: 0,
            last_round: None,
            prev_payload: Vec::new(),
            appends: 0,
            chaos: None,
            poisoned: false,
        })
    }

    /// Arm deterministic writer-side fault injection (chaos tests only).
    pub fn with_chaos(mut self, chaos: Chaos) -> Session {
        self.chaos = Some(chaos);
        self
    }

    /// True once an I/O error (or injected crash) stopped this session
    /// from persisting; the run continues, unprotected.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// The directory this session persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn poison(&mut self, what: &str, err: &dyn std::fmt::Display) {
        if !self.poisoned {
            eprintln!(
                "uset-ckpt: {what} failed in {}: {err}; checkpointing disabled for this run",
                self.dir.display()
            );
        }
        self.poisoned = true;
        self.wal = None;
    }

    /// Scan the directory for the newest valid snapshot of *this*
    /// computation, replay its WAL's valid prefix, truncate any torn or
    /// corrupt tail, and return the last durable round. `None` means no
    /// usable checkpoint — start fresh. Also positions the session so
    /// subsequent [`Session::commit`] calls append after the recovered
    /// round.
    pub fn recover(&mut self) -> Option<Recovered> {
        if self.poisoned {
            return None;
        }
        // stale tmp files are uncommitted by construction
        let mut snaps: Vec<u64> = Vec::new();
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(_) => return None,
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("tmp-") {
                let _ = fs::remove_file(entry.path());
            } else if let Some(r) = parse_round(&name, "snap-", ".ckpt") {
                snaps.push(r);
            }
        }
        snaps.sort_unstable_by(|a, b| b.cmp(a));
        for round in snaps {
            if let Some(rec) = self.try_recover_from(round) {
                return Some(rec);
            }
        }
        None
    }

    fn try_recover_from(&mut self, round: u64) -> Option<Recovered> {
        let bytes = fs::read(snap_path(&self.dir, round)).ok()?;
        let rec = self.validate_snapshot(&bytes)?;
        if rec.round != round {
            return None;
        }
        // replay the WAL's valid prefix
        let wal = wal_path(&self.dir, round);
        let (rec, valid_len) = match fs::read(&wal) {
            Ok(log) => self.replay_wal(rec, &log),
            // a missing WAL means the snapshot committed but the fresh
            // WAL create did not survive; the snapshot alone is durable
            Err(_) => {
                let _ = File::create(&wal);
                self.since_snap = 0;
                (rec, 0)
            }
        };
        // truncate the torn/corrupt tail so appends resume after the
        // last durable record
        let appender = OpenOptions::new().append(true).open(&wal).ok()?;
        if let Ok(meta) = appender.metadata() {
            if meta.len() > valid_len {
                let _ = appender.set_len(valid_len);
            }
        }
        self.wal = Some(appender);
        self.snap_round = round;
        self.prev_payload = rec.payload.clone();
        self.last_round = Some(rec.round);
        Some(rec)
    }

    /// Validate one snapshot file: magic, engine, fingerprint, CRC.
    fn validate_snapshot(&self, bytes: &[u8]) -> Option<Recovered> {
        if bytes.len() < SNAP_MAGIC.len() + 4 || &bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return None;
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().ok()?);
        if crc32(body) != stored {
            return None;
        }
        let mut d = Dec::new(&body[SNAP_MAGIC.len()..]);
        let engine = d.str().ok()?;
        let fingerprint = d.u64().ok()?;
        if engine != self.engine || fingerprint != self.fingerprint {
            return None;
        }
        let mut rec = take_header(&mut d).ok()?;
        rec.payload = d.bytes().ok()?.to_vec();
        d.done().then_some(rec)
    }

    /// Replay the valid prefix of a WAL against `base`; returns the
    /// resulting state and the byte length of the valid prefix.
    fn replay_wal(&mut self, mut base: Recovered, log: &[u8]) -> (Recovered, u64) {
        let mut offset = 0usize;
        let mut replayed = 0u64;
        loop {
            let rest = &log[offset..];
            if rest.len() < 4 {
                break;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
            if rest.len() < 4 + len + 4 {
                break; // torn tail
            }
            let body = &rest[4..4 + len];
            let stored = u32::from_le_bytes(rest[4 + len..4 + len + 4].try_into().expect("4"));
            if crc32(body) != stored {
                break; // corrupt record
            }
            let mut d = Dec::new(body);
            let Ok(kind) = d.u8() else { break };
            let Ok(mut rec) = take_header(&mut d) else {
                break;
            };
            if rec.round <= base.round {
                break; // non-monotone: not a continuation of this state
            }
            match kind {
                REC_BYTE_DELTA => {
                    // one engine drives one WAL with one commit kind; a
                    // byte delta after engine deltas would apply against
                    // a stale base, so treat the mix as a corrupt tail
                    if !base.deltas.is_empty() {
                        break;
                    }
                    let (Ok(prefix), Ok(suffix)) = (d.u64(), d.u64()) else {
                        break;
                    };
                    let Ok(mid) = d.bytes() else { break };
                    if !d.done() {
                        break;
                    }
                    let Some(payload) =
                        apply_delta(&base.payload, prefix as usize, suffix as usize, mid)
                    else {
                        break;
                    };
                    rec.payload = payload;
                }
                REC_ENGINE_DELTA => {
                    let Ok(dp) = d.bytes() else { break };
                    if !d.done() {
                        break;
                    }
                    // the snapshot payload rides along unchanged; the
                    // engine folds the accumulated deltas itself
                    rec.payload = std::mem::take(&mut base.payload);
                    rec.deltas = std::mem::take(&mut base.deltas);
                    rec.deltas.push(dp.to_vec());
                }
                _ => break, // unknown kind: corrupt tail
            }
            base = rec;
            offset += 4 + len + 4;
            replayed += 1;
        }
        self.since_snap = replayed;
        (base, offset as u64)
    }

    /// True when the monotonicity invariant admits committing `round`.
    fn precheck(&mut self, round: u64) -> bool {
        if self.poisoned {
            return false;
        }
        if let Some(last) = self.last_round {
            if round <= last {
                self.poison(
                    "commit",
                    &format!("non-monotone round {round} after {last}"),
                );
                return false;
            }
        }
        true
    }

    /// True when the next commit must roll a fresh snapshot/WAL pair.
    fn snapshot_due(&self) -> bool {
        self.wal.is_none() || self.since_snap + 1 >= self.every
    }

    /// Persist one completed round whose `payload` is the **complete**
    /// serialized state. Every `every`-th commit (and the first) writes
    /// a full snapshot atomically and starts a fresh WAL; the rest
    /// append a byte-delta record against the previous payload. Never
    /// fails the run: errors poison the session and evaluation continues
    /// unprotected.
    pub fn commit(&mut self, rc: &RoundCkpt) {
        if !self.precheck(rc.round) {
            return;
        }
        if self.snapshot_due() {
            self.commit_snapshot(rc);
        } else {
            self.append_wal(rc);
        }
        if !self.poisoned {
            self.prev_payload = rc.payload.clone();
            self.last_round = Some(rc.round);
        }
    }

    /// Persist one completed round whose `payload` is an **engine-level
    /// delta** — just what changed this round, in a format only the
    /// engine understands. On snapshot rounds the session calls `full`
    /// for the complete state instead; in between it appends the small
    /// delta as-is, so a cheap round costs O(delta), not O(state).
    /// Recovery hands the deltas back on [`Recovered::deltas`] for the
    /// engine to fold. A session must stick to one commit kind for its
    /// whole run.
    pub fn commit_delta(&mut self, rc: &RoundCkpt, full: impl FnOnce() -> Vec<u8>) {
        if !self.precheck(rc.round) {
            return;
        }
        if self.snapshot_due() {
            self.commit_snapshot_with(rc, &full());
        } else {
            self.append_wal_engine_delta(rc);
        }
        if !self.poisoned {
            self.last_round = Some(rc.round);
        }
    }

    fn commit_snapshot(&mut self, rc: &RoundCkpt) {
        self.commit_snapshot_with(rc, &rc.payload);
    }

    /// Write the snapshot for `rc`'s round with an explicit `payload`
    /// (the complete state — for [`Session::commit_delta`] sessions the
    /// round's `rc.payload` only holds the delta).
    fn commit_snapshot_with(&mut self, rc: &RoundCkpt, payload: &[u8]) {
        let mut e = Enc::new();
        e.put_str(&self.engine);
        e.put_u64(self.fingerprint);
        put_header(&mut e, rc);
        e.put_bytes(payload);
        let body = e.finish();
        let mut framed = Vec::with_capacity(SNAP_MAGIC.len() + body.len() + 4);
        framed.extend_from_slice(SNAP_MAGIC);
        framed.extend_from_slice(&body);
        let crc = crc32(&framed);
        framed.extend_from_slice(&crc.to_le_bytes());

        let tmp = self.dir.join(format!("tmp-snap-{:020}", rc.round));
        let sync = self.sync == SyncMode::Full;
        let write = (|| -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&framed)?;
            if sync {
                f.sync_all()?;
            }
            fs::rename(&tmp, snap_path(&self.dir, rc.round))?;
            if sync {
                sync_dir(&self.dir);
            }
            let wal = File::create(wal_path(&self.dir, rc.round))?;
            if sync {
                wal.sync_all()?;
            }
            self.wal = Some(
                OpenOptions::new()
                    .append(true)
                    .open(wal_path(&self.dir, rc.round))?,
            );
            Ok(())
        })();
        if let Err(err) = write {
            let _ = fs::remove_file(&tmp);
            self.poison("snapshot", &err);
            return;
        }
        // the new pair is durable; older pairs are now garbage
        let old_snap = self.snap_round;
        if old_snap != rc.round {
            let _ = fs::remove_file(snap_path(&self.dir, old_snap));
            let _ = fs::remove_file(wal_path(&self.dir, old_snap));
        }
        self.snap_round = rc.round;
        self.since_snap = 0;
    }

    fn append_wal(&mut self, rc: &RoundCkpt) {
        let (prefix, suffix, mid) = byte_delta(&self.prev_payload, &rc.payload);
        let mut e = Enc::new();
        e.put_u8(REC_BYTE_DELTA);
        put_header(&mut e, rc);
        e.put_u64(prefix as u64);
        e.put_u64(suffix as u64);
        e.put_bytes(mid);
        self.append_record(e.finish());
    }

    fn append_wal_engine_delta(&mut self, rc: &RoundCkpt) {
        let mut e = Enc::new();
        e.put_u8(REC_ENGINE_DELTA);
        put_header(&mut e, rc);
        e.put_bytes(&rc.payload);
        self.append_record(e.finish());
    }

    /// Frame (`[len][body][crc32(body)]`), chaos-damage if armed, and
    /// append one WAL record.
    fn append_record(&mut self, body: Vec<u8>) {
        let mut framed = Vec::with_capacity(body.len() + 8);
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        let crc = crc32(&body);
        framed.extend_from_slice(&body);
        framed.extend_from_slice(&crc.to_le_bytes());

        self.appends += 1;
        let mut die_after_write = false;
        match self.chaos {
            Some(Chaos::TornWrite { record, keep_bytes }) if record == self.appends => {
                framed.truncate(keep_bytes.min(framed.len()));
                die_after_write = true;
            }
            Some(Chaos::FlipByte { record, offset }) if record == self.appends => {
                let at = offset.min(framed.len().saturating_sub(1));
                if let Some(b) = framed.get_mut(at) {
                    *b ^= 0x40;
                }
                die_after_write = true;
            }
            _ => {}
        }

        let Some(wal) = self.wal.as_mut() else {
            self.poison("wal append", &"no open WAL");
            return;
        };
        let mut write = wal.write_all(&framed);
        if write.is_ok() && self.sync == SyncMode::Full {
            write = wal.sync_data();
        }
        if let Err(err) = write {
            self.poison("wal append", &err);
            return;
        }
        if die_after_write {
            // simulate the process dying mid-write: nothing after this
            // record ever reaches the disk
            self.poison("chaos injection", &"simulated crash");
            return;
        }
        self.since_snap += 1;
    }

    /// The run completed: clear the directory so a later fresh run of
    /// the same computation starts from scratch instead of "resuming" a
    /// finished one.
    pub fn finish(&mut self) {
        if !self.poisoned {
            self.wal = None;
            let _ = fs::remove_dir_all(&self.dir);
        }
        self.release();
    }

    /// Give the directory back to the registry.
    fn release(&mut self) {
        if let Some(key) = self.owned.take() {
            live().retain(|k| *k != key);
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests of the on-disk format open sessions with `open_unowned`: a
    // reader opened while the writer is still alive stands for another
    // process (a restarted run), which the in-process registry does not
    // govern.
    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("uset-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn rc(round: u64, payload: &[u8]) -> RoundCkpt {
        RoundCkpt {
            round,
            stats: EvalStats {
                rounds: round,
                rules_fired: round * 2,
                tuples_derived: round * 3,
                index_probes: 0,
                scan_fallbacks: 0,
                peak_facts: payload.len(),
                ..EvalStats::default()
            },
            steps: round,
            facts: round * 10,
            ticks: round * 11,
            value_hwm: 7,
            elapsed_micros: round * 1000,
            payload: payload.to_vec(),
        }
    }

    fn payload_for(round: u64) -> Vec<u8> {
        // shared prefix/suffix with per-round middle, exercising deltas
        let mut p = vec![0xAA; 32];
        p.extend_from_slice(&round.to_le_bytes());
        p.extend_from_slice(&[0xBB; 32]);
        p
    }

    #[test]
    fn a_live_session_owns_its_directory() {
        let dir = tmpdir("owned");
        let spec = Spec::new(&dir).with_every(1);
        let mut first = Session::open(&spec, "datalog", 11).unwrap();
        first.commit(&rc(1, &payload_for(1)));
        // the same computation opened concurrently gets no session, so it
        // can neither resume nor overwrite the owner's journal
        assert!(Session::open(&spec, "datalog", 11).is_none());
        assert!(Session::open(&spec, "datalog", 12).is_none());
        // another engine's subdirectory is a different owner
        assert!(Session::open(&spec, "col", 11).is_some());
        first.commit(&rc(2, &payload_for(2)));
        drop(first);
        // dropping (as a crashed run does) frees the directory, and the
        // journal is exactly what the owner wrote
        let mut second = Session::open(&spec, "datalog", 11).unwrap();
        assert_eq!(second.recover().unwrap().round, 2);
        second.finish();
        // finishing frees it too, even while the value is still alive
        let mut third = Session::open(&spec, "datalog", 11).unwrap();
        assert!(third.recover().is_none());
        drop(second);
        drop(third);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn spec_parsing() {
        assert_eq!(Spec::parse("").unwrap(), None);
        assert_eq!(Spec::parse("off").unwrap(), None);
        let s = Spec::parse("dir:/tmp/x").unwrap().unwrap();
        assert_eq!(s.dir, PathBuf::from("/tmp/x"));
        assert_eq!(s.every, DEFAULT_EVERY);
        let s = Spec::parse("dir:/tmp/x,every=4").unwrap().unwrap();
        assert_eq!(s.every, 4);
        assert_eq!(s.sync, SyncMode::Normal);
        let s = Spec::parse("dir:/tmp/x,every=4,sync=full")
            .unwrap()
            .unwrap();
        assert_eq!(s.every, 4);
        assert_eq!(s.sync, SyncMode::Full);
        let s = Spec::parse("dir:/tmp/x,sync=full").unwrap().unwrap();
        assert_eq!(s.dir, PathBuf::from("/tmp/x"));
        assert_eq!(s.sync, SyncMode::Full);
        let s = Spec::parse("dir:/tmp/x,sync=normal").unwrap().unwrap();
        assert_eq!(s.sync, SyncMode::Normal);
        // a comma that is not an option stays part of the path
        let s = Spec::parse("dir:/tmp/a,b,every=2").unwrap().unwrap();
        assert_eq!(s.dir, PathBuf::from("/tmp/a,b"));
        assert_eq!(s.every, 2);
        assert!(Spec::parse("dir:").is_err());
        assert!(Spec::parse("dir:/x,every=0").is_err());
        assert!(Spec::parse("dir:/x,sync=paranoid").is_err());
        assert!(Spec::parse("nonsense").is_err());
    }

    #[test]
    fn byte_delta_roundtrips() {
        let cases: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (vec![], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![1, 2, 3], vec![]),
            (vec![1, 2, 3, 4], vec![1, 2, 9, 4]),
            (vec![1, 2, 3], vec![1, 2, 3]),
            (vec![5, 5, 5, 5], vec![5, 5]),
            (vec![5, 5], vec![5, 5, 5, 5]),
        ];
        for (old, new) in cases {
            let (p, s, mid) = byte_delta(&old, &new);
            let back = apply_delta(&old, p, s, mid).unwrap();
            assert_eq!(back, new, "old={old:?} new={new:?}");
        }
    }

    #[test]
    fn commit_recover_roundtrip_across_snapshots_and_wal() {
        let dir = tmpdir("roundtrip");
        let spec = Spec::new(&dir).with_every(4);
        let mut s = Session::open_unowned(&spec, "datalog", 42).unwrap();
        assert!(s.recover().is_none(), "fresh dir has nothing to recover");
        for round in 1..=10 {
            s.commit(&rc(round, &payload_for(round)));
            assert!(!s.is_poisoned());
            // a brand-new session (fresh process) must recover exactly
            // this round
            let mut r = Session::open_unowned(&spec, "datalog", 42).unwrap();
            let got = r.recover().expect("recoverable");
            assert_eq!(got.round, round);
            assert_eq!(got.payload, payload_for(round));
            assert_eq!(got.stats.rules_fired, round * 2);
            assert_eq!(got.facts, round * 10);
            assert_eq!(got.elapsed_micros, round * 1000);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_session_continues_committing() {
        let dir = tmpdir("continue");
        let spec = Spec::new(&dir).with_every(3);
        let mut s = Session::open_unowned(&spec, "col", 7).unwrap();
        for round in 1..=5 {
            s.commit(&rc(round, &payload_for(round)));
        }
        drop(s);
        let mut s2 = Session::open_unowned(&spec, "col", 7).unwrap();
        assert_eq!(s2.recover().unwrap().round, 5);
        for round in 6..=9 {
            s2.commit(&rc(round, &payload_for(round)));
        }
        let mut s3 = Session::open_unowned(&spec, "col", 7).unwrap();
        assert_eq!(s3.recover().unwrap().round, 9);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_and_engine_mismatches_never_resume() {
        let dir = tmpdir("fingerprint");
        let spec = Spec::new(&dir);
        let mut s = Session::open_unowned(&spec, "datalog", 1).unwrap();
        s.commit(&rc(1, b"state"));
        // different computation, same engine: no resume
        let mut other = Session::open_unowned(&spec, "datalog", 2).unwrap();
        assert!(other.recover().is_none());
        // same fingerprint, different engine: separate subdir, no resume
        let mut eng = Session::open_unowned(&spec, "col", 1).unwrap();
        assert!(eng.recover().is_none());
        // the original still recovers
        let mut same = Session::open_unowned(&spec, "datalog", 1).unwrap();
        assert_eq!(same.recover().unwrap().round, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_of_the_last_wal_record_rolls_back() {
        let dir = tmpdir("torn");
        let spec = Spec::new(&dir).with_every(100);
        let mut s = Session::open_unowned(&spec, "bk", 9).unwrap();
        for round in 1..=3 {
            s.commit(&rc(round, &payload_for(round)));
        }
        let wal = wal_path(&s.dir, 1);
        let full = fs::read(&wal).unwrap();
        // round 1 is the snapshot; the WAL holds rounds 2 and 3, so the
        // last record starts where record 1 (round 2) ends
        let rec1_len = u32::from_le_bytes(full[..4].try_into().unwrap()) as usize + 8;
        let last_start = rec1_len;
        assert!(last_start < full.len());
        for cut in last_start..full.len() {
            fs::write(&wal, &full[..cut]).unwrap();
            let mut r = Session::open_unowned(&spec, "bk", 9).unwrap();
            let got = r.recover().expect("snapshot+valid prefix still recover");
            assert_eq!(got.round, 2, "cut at {cut} must roll back to round 2");
            assert_eq!(got.payload, payload_for(2));
        }
        // untruncated recovers the full round 3
        fs::write(&wal, &full).unwrap();
        let mut r = Session::open_unowned(&spec, "bk", 9).unwrap();
        assert_eq!(r.recover().unwrap().round, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_bit_flips_in_any_record_are_detected() {
        let dir = tmpdir("flip");
        let spec = Spec::new(&dir).with_every(100);
        let mut s = Session::open_unowned(&spec, "gtm", 3).unwrap();
        for round in 1..=3 {
            s.commit(&rc(round, &payload_for(round)));
        }
        let wal = wal_path(&s.dir, 1);
        let full = fs::read(&wal).unwrap();
        // flip one byte in each framed record; recovery must never
        // surface a state that embeds the corruption
        let rec1_len = u32::from_le_bytes(full[..4].try_into().unwrap()) as usize + 8;
        for &offset in &[5usize, rec1_len / 2, rec1_len + 5, full.len() - 1] {
            let mut bad = full.clone();
            bad[offset] ^= 0x01;
            fs::write(&wal, &bad).unwrap();
            let mut r = Session::open_unowned(&spec, "gtm", 3).unwrap();
            if let Some(got) = r.recover() {
                // recovery may legitimately return an *earlier* valid
                // round, but never a corrupted payload
                assert!(got.round < 3 || got.payload == payload_for(got.round));
                assert!((1..=3).contains(&got.round));
                assert_eq!(got.payload, payload_for(got.round));
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_falls_back_or_starts_fresh() {
        let dir = tmpdir("snapcorrupt");
        let spec = Spec::new(&dir).with_every(2);
        let mut s = Session::open_unowned(&spec, "algebra", 5).unwrap();
        for round in 1..=4 {
            // every=2 → snapshots at rounds 1 and 3 (commits 1 and 3)
            s.commit(&rc(round, &payload_for(round)));
        }
        // corrupt the live snapshot; only one pair is retained, so
        // recovery must refuse it and start fresh — never load it
        let snap = snap_path(&s.dir, 3);
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&snap, &bytes).unwrap();
        let mut r = Session::open_unowned(&spec, "algebra", 5).unwrap();
        assert!(r.recover().is_none(), "corrupt snapshot must not load");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_torn_write_dies_and_recovers_to_previous_round() {
        let dir = tmpdir("chaos-torn");
        let spec = Spec::new(&dir).with_every(100);
        let mut s = Session::open_unowned(&spec, "calculus", 1)
            .unwrap()
            .with_chaos(Chaos::TornWrite {
                record: 2,
                keep_bytes: 7,
            });
        s.commit(&rc(1, &payload_for(1))); // snapshot
        s.commit(&rc(2, &payload_for(2))); // wal record 1, intact
        s.commit(&rc(3, &payload_for(3))); // wal record 2, torn + death
        assert!(s.is_poisoned());
        s.commit(&rc(4, &payload_for(4))); // ignored: the process is "dead"
        let mut r = Session::open_unowned(&spec, "calculus", 1).unwrap();
        let got = r.recover().unwrap();
        assert_eq!(got.round, 2);
        assert_eq!(got.payload, payload_for(2));
        // and the truncated tail was discarded: committing after
        // recovery yields a clean round 3
        r.commit(&rc(3, &payload_for(3)));
        let mut r2 = Session::open_unowned(&spec, "calculus", 1).unwrap();
        assert_eq!(r2.recover().unwrap().round, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_flip_byte_dies_and_recovery_rejects_the_record() {
        let dir = tmpdir("chaos-flip");
        let spec = Spec::new(&dir).with_every(100);
        let mut s = Session::open_unowned(&spec, "datalog", 1)
            .unwrap()
            .with_chaos(Chaos::FlipByte {
                record: 1,
                offset: 10,
            });
        s.commit(&rc(1, &payload_for(1))); // snapshot
        s.commit(&rc(2, &payload_for(2))); // wal record 1, corrupted + death
        assert!(s.is_poisoned());
        let mut r = Session::open_unowned(&spec, "datalog", 1).unwrap();
        let got = r.recover().unwrap();
        assert_eq!(got.round, 1, "corrupt record must be rejected");
        assert_eq!(got.payload, payload_for(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn finish_clears_the_directory() {
        let dir = tmpdir("finish");
        let spec = Spec::new(&dir);
        let mut s = Session::open_unowned(&spec, "datalog", 1).unwrap();
        s.commit(&rc(1, b"x"));
        s.finish();
        let mut r = Session::open_unowned(&spec, "datalog", 1).unwrap();
        assert!(r.recover().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_delta_recovers_snapshot_plus_delta_suffix() {
        let dir = tmpdir("engine-delta");
        let spec = Spec::new(&dir).with_every(4);
        let mut s = Session::open_unowned(&spec, "datalog", 9).unwrap();
        // the "full" payload is the concatenation of all deltas so far,
        // which lets the test check the fold inputs exactly
        let mut full: Vec<u8> = Vec::new();
        let mut snapshots = 0;
        for round in 1..=10u64 {
            let delta = vec![round as u8; 3];
            full.extend_from_slice(&delta);
            let snap = full.clone();
            let mut called = false;
            s.commit_delta(&rc(round, &delta), || {
                called = true;
                snap
            });
            if called {
                snapshots += 1;
            }
            assert!(!s.is_poisoned());

            let mut rec_s = Session::open_unowned(&spec, "datalog", 9).unwrap();
            let got = rec_s.recover().expect("recoverable");
            assert_eq!(got.round, round);
            assert_eq!(got.stats.rules_fired, round * 2);
            // snapshot payload ++ recovered deltas == the full state
            let mut folded = got.payload.clone();
            for d in &got.deltas {
                folded.extend_from_slice(d);
            }
            assert_eq!(folded, full, "round {round}");
        }
        // every=4 over 10 commits: snapshots at rounds 1, 5, 9
        assert_eq!(snapshots, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_delta_session_continues_after_recovery() {
        let dir = tmpdir("engine-delta-continue");
        let spec = Spec::new(&dir).with_every(3);
        let mut s = Session::open_unowned(&spec, "datalog", 4).unwrap();
        for round in 1..=4u64 {
            s.commit_delta(&rc(round, &[round as u8]), || vec![0xF0, round as u8]);
        }
        drop(s);
        let mut s2 = Session::open_unowned(&spec, "datalog", 4).unwrap();
        let got = s2.recover().unwrap();
        assert_eq!(got.round, 4);
        assert_eq!(got.payload, vec![0xF0, 4u8], "round 4 rolled a snapshot");
        assert!(got.deltas.is_empty());
        for round in 5..=6u64 {
            s2.commit_delta(&rc(round, &[round as u8]), || vec![0xF0, round as u8]);
        }
        let mut s3 = Session::open_unowned(&spec, "datalog", 4).unwrap();
        let got = s3.recover().unwrap();
        assert_eq!(got.round, 6);
        assert_eq!(got.payload, vec![0xF0, 4u8]);
        assert_eq!(got.deltas, vec![vec![5u8], vec![6u8]]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_engine_delta_record_rolls_back_to_previous_round() {
        let dir = tmpdir("engine-delta-torn");
        let spec = Spec::new(&dir).with_every(100);
        let mut s = Session::open_unowned(&spec, "datalog", 2)
            .unwrap()
            .with_chaos(Chaos::TornWrite {
                record: 2,
                keep_bytes: 9,
            });
        s.commit_delta(&rc(1, &[1]), || vec![0xAA]); // snapshot
        s.commit_delta(&rc(2, &[2]), || unreachable!()); // intact record
        s.commit_delta(&rc(3, &[3]), || unreachable!()); // torn + death
        assert!(s.is_poisoned());
        let mut r = Session::open_unowned(&spec, "datalog", 2).unwrap();
        let got = r.recover().unwrap();
        assert_eq!(got.round, 2);
        assert_eq!(got.payload, vec![0xAA]);
        assert_eq!(got.deltas, vec![vec![2u8]]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sync_full_mode_commits_and_recovers_identically() {
        let dir = tmpdir("sync-full");
        let spec = Spec::new(&dir).with_every(2).with_sync(SyncMode::Full);
        let mut s = Session::open_unowned(&spec, "datalog", 8).unwrap();
        for round in 1..=5 {
            s.commit(&rc(round, &payload_for(round)));
            assert!(!s.is_poisoned());
        }
        let mut r = Session::open_unowned(&spec, "datalog", 8).unwrap();
        let got = r.recover().unwrap();
        assert_eq!(got.round, 5);
        assert_eq!(got.payload, payload_for(5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_monotone_commit_poisons_instead_of_corrupting() {
        let dir = tmpdir("monotone");
        let spec = Spec::new(&dir);
        let mut s = Session::open_unowned(&spec, "datalog", 1).unwrap();
        s.commit(&rc(5, b"five"));
        s.commit(&rc(5, b"again"));
        assert!(s.is_poisoned());
        let mut r = Session::open_unowned(&spec, "datalog", 1).unwrap();
        assert_eq!(r.recover().unwrap().round, 5);
        let _ = fs::remove_dir_all(&dir);
    }
}
