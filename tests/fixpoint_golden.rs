//! Golden digests of the deductive engines' observable bytes.
//!
//! Every DATALOG¬ and COL configuration below runs at widths 1 and 4 and
//! is reduced to one FNV-64 digest per observable: the final state, the
//! `EvalStats` counters, the JSONL trace stream with its wall-clock
//! fields zeroed, the checkpoint recovered after a `FailPoint::die_at`
//! crash mid-run (header counters, payload and WAL deltas, at
//! `every=1` and `every=3`), the tick at which a die-at sweep first runs
//! to completion, and — for COL — the partial result of a `max_rounds`
//! trip. The digests are fixed constants: any change to round
//! structure, tick placement, commit format, fingerprints, or trace
//! shape shows up here as a changed number, so an internal refactor of
//! the round loop can prove it moved none of them.
//!
//! Every knob is pinned (width, checkpoint config, and the interning
//! pool, which DATALOG¬'s per-rule `deduped` trace counts depend on), so
//! the digests hold under any `USET_*` environment.

use std::path::PathBuf;

use untyped_sets::ckpt::{fnv64, Enc, Session, Spec};
use untyped_sets::deductive::{
    inflationary_governed, stratified_governed, ColConfig, ColEvalError, ColLiteral, ColProgram,
    ColRule, ColState, ColStrategy, ColTerm, DatalogProgram, DlAtom, DlError, DlRule, DlTerm,
};
use untyped_sets::guard::{CkptConfig, FailPoint, Governor};
use untyped_sets::object::cons::singleton_chain;
use untyped_sets::object::{atom, intern, Atom, Database, EvalStats, Instance, Value};
use untyped_sets::par::ParConfig;
use untyped_sets::trace::TraceHandle;

const WIDTHS: [usize; 2] = [1, 4];
const EVERY: [u64; 2] = [1, 3];

fn hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// A 6-vertex graph: a path 0→…→5 closing a cycle 5→3, so TC has both a
/// long chain and a strongly connected tail.
fn graph() -> Database {
    graph_over(atom)
}

/// The same graph over vertex `i` as `vertex(i)`.
fn graph_over(vertex: impl Fn(u64) -> Value) -> Database {
    let mut db = Database::empty();
    let mut edges: Vec<[_; 2]> = (0..5u64).map(|i| [vertex(i), vertex(i + 1)]).collect();
    edges.push([vertex(5), vertex(3)]);
    db.set("E", Instance::from_rows(edges));
    db
}

/// Vertex `i` as a singleton chain `{…{a_i}…}` of mixed depth (1 to 4),
/// the vertex shape the `fixpoint` benchmark uses.
fn chain_vertex(i: u64) -> Value {
    let depth = [1, 3, 2, 4, 1, 2][i as usize];
    singleton_chain(Atom::new(i), depth + 1)
        .pop()
        .expect("chain of length ≥ 1")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("uset-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Zero every wall-clock field of a JSONL line: timing is the only part
/// of a trace allowed to vary between runs.
fn scrub_wall(line: &str) -> String {
    let mut s = line.to_owned();
    for key in ["\"wall_us\":", "\"wall_micros\":"] {
        let mut from = 0;
        while let Some(rel) = s[from..].find(key) {
            let start = from + rel + key.len();
            let end = s[start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(s.len(), |e| start + e);
            s.replace_range(start..end, "0");
            from = start + 1;
        }
    }
    s
}

/// Canonical rendering of a relation map: names and rows in order.
/// (`Instance`'s `Debug` also prints its mutation stamp, which is a
/// process-global counter, not content.)
fn render_rels<'a>(rels: impl Iterator<Item = (&'a str, &'a Instance)>) -> String {
    let mut s = String::new();
    for (name, inst) in rels {
        s.push_str(name);
        for row in inst.iter() {
            s.push_str(&format!(" {row}"));
        }
        s.push('\n');
    }
    s
}

fn render_db(db: &Database) -> String {
    render_rels(db.iter())
}

fn render_col(state: &ColState) -> String {
    let mut s = render_rels(state.preds.iter().map(|(n, i)| (n.as_str(), i)));
    for (func, graph) in &state.funcs {
        for (args, elems) in graph {
            s.push_str(&format!("{func}{args:?} = {elems:?}\n"));
        }
    }
    s
}

fn base_governor(workers: usize) -> Governor {
    // both tests in this binary pin the process-global pool knob the same
    // way, so setting it here cannot race
    intern::set_enabled(true);
    Governor::unlimited()
        .with_par(ParConfig::workers(workers))
        .with_ckpt_config(CkptConfig::Off)
}

/// One engine configuration under test, erased to what the digests need.
trait Config {
    /// Checkpoint engine label (`<dir>/<engine>/`).
    fn engine(&self) -> &'static str;
    /// The run fingerprint the engine keys its checkpoints with.
    fn fingerprint(&self) -> u64;
    /// Run to completion or error; `Ok` carries the rendered state, `Err`
    /// the rendered error (with its partial state and stats).
    fn run(&self, gov: &Governor, stats: &mut EvalStats) -> Result<String, String>;
}

/// Digest every observable of one configuration at one width.
fn digests(cfg: &dyn Config, workers: usize, tag: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    // final state and stats
    let mut stats = EvalStats::default();
    let state = cfg
        .run(&base_governor(workers), &mut stats)
        .expect("reference run completes");
    out.push(("state".into(), hex(state.as_bytes())));
    out.push(("stats".into(), stats.to_string()));

    // the JSONL trace, wall-clock scrubbed
    let (handle, mem) = TraceHandle::mem();
    let gov = base_governor(workers).with_trace(handle);
    cfg.run(&gov, &mut EvalStats::default())
        .expect("traced run completes");
    assert_eq!(mem.dropped(), 0, "trace ring overflowed");
    let trace: String = mem
        .events()
        .iter()
        .map(|e| scrub_wall(&e.to_json()) + "\n")
        .collect();
    out.push(("trace".into(), hex(trace.as_bytes())));

    // the die-at sweep: the first tick at which the run completes
    let mut done_at = 0;
    for tick in 1..100_000 {
        let gov = base_governor(workers).with_failpoint(FailPoint::die_at(tick));
        if cfg.run(&gov, &mut EvalStats::default()).is_ok() {
            done_at = tick;
            break;
        }
    }
    assert!(done_at > 1, "sweep never completed");
    out.push(("sweep_done_at".into(), done_at.to_string()));

    // a crash mid-run leaves a checkpoint: recover it and pin its header
    // counters, payload, and engine-level WAL deltas
    for every in EVERY {
        let dir = tmpdir(&format!("{tag}-w{workers}-e{every}"));
        let spec = Spec::new(&dir).with_every(every);
        let gov = base_governor(workers)
            .with_ckpt(spec.clone())
            .with_failpoint(FailPoint::die_at(done_at * 3 / 4));
        let err = cfg
            .run(&gov, &mut EvalStats::default())
            .expect_err("the failpoint fires mid-run");
        assert!(err.contains("Died"), "expected a die-at crash: {err}");
        let mut sess =
            Session::open(&spec, cfg.engine(), cfg.fingerprint()).expect("session reopens");
        let rec = sess.recover().expect("the crash left a durable round");
        let mut bytes = format!(
            "round={} stats={} steps={} facts={} ticks={} value_hwm={}\n",
            rec.round, rec.stats, rec.steps, rec.facts, rec.ticks, rec.value_hwm
        )
        .into_bytes();
        bytes.extend_from_slice(&rec.payload);
        for d in &rec.deltas {
            bytes.extend_from_slice(b"\n--delta--\n");
            bytes.extend_from_slice(d);
        }
        out.push((
            format!("recovered_every{every}"),
            format!(
                "round={} ticks={} deltas={} {}",
                rec.round,
                rec.ticks,
                rec.deltas.len(),
                hex(&bytes)
            ),
        ));
        drop(sess);
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

/// Render a digest table as the Rust source of its expected constant, so
/// a deliberate change can be pasted back in.
fn render(rows: &[(String, Vec<(String, String)>)]) -> String {
    let mut s = String::new();
    for (name, ds) in rows {
        for (k, v) in ds {
            s.push_str(&format!("    (\"{name}\", \"{k}\", \"{v}\"),\n"));
        }
    }
    s
}

fn check(rows: Vec<(String, Vec<(String, String)>)>, expected: &[(&str, &str, &str)]) {
    let got: Vec<(String, String, String)> = rows
        .iter()
        .flat_map(|(name, ds)| {
            ds.iter()
                .map(move |(k, v)| (name.clone(), k.clone(), v.clone()))
        })
        .collect();
    let want: Vec<(String, String, String)> = expected
        .iter()
        .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
        .collect();
    assert!(
        got == want,
        "golden digests changed; actual table:\n{}",
        render(&rows)
    );
}

// ---------------------------------------------------------------- datalog

#[derive(Clone, Copy)]
enum DlSem {
    Stratified,
    Seminaive,
    Inflationary,
}

impl DlSem {
    fn kind(self) -> &'static str {
        match self {
            DlSem::Stratified => "stratified",
            DlSem::Seminaive => "seminaive",
            DlSem::Inflationary => "inflationary",
        }
    }
}

struct DlConfig {
    sem: DlSem,
    prog: DatalogProgram,
    db: Database,
}

/// TC, a constant-support rule, and a second stratum negating TC.
fn dl_prog() -> DatalogProgram {
    dl_prog_from(atom(0))
}

/// [`dl_prog`] with `zero` as the constant-support rule's start vertex.
fn dl_prog_from(zero: Value) -> DatalogProgram {
    let v = DlTerm::var;
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
        DlRule::new(
            DlAtom::new("S", vec![v("x")]),
            vec![(true, DlAtom::new("E", vec![DlTerm::Const(zero), v("x")]))],
        ),
        DlRule::new(
            DlAtom::new("NR", vec![v("x"), v("y")]),
            vec![
                (true, DlAtom::new("E", vec![v("x"), v("_w")])),
                (true, DlAtom::new("E", vec![v("y"), v("_v")])),
                (false, DlAtom::new("T", vec![v("x"), v("y")])),
            ],
        ),
    ])
}

fn dl_err(e: DlError) -> String {
    match e {
        DlError::Exhausted(ex) => format!(
            "{:?} stats={}\n{}",
            ex.trip,
            ex.stats,
            render_db(&ex.partial)
        ),
        other => format!("{other:?}"),
    }
}

impl Config for DlConfig {
    fn engine(&self) -> &'static str {
        "datalog"
    }

    fn fingerprint(&self) -> u64 {
        let mut e = Enc::new();
        e.put_str("datalog");
        e.put_str(self.sem.kind());
        e.put_str(&format!("{:?}", self.prog.rules));
        e.put_database(&self.db);
        fnv64(&e.finish())
    }

    fn run(&self, gov: &Governor, stats: &mut EvalStats) -> Result<String, String> {
        let r = match self.sem {
            DlSem::Stratified => self.prog.eval_stratified_governed(&self.db, gov, stats),
            DlSem::Seminaive => self
                .prog
                .eval_stratified_seminaive_governed(&self.db, gov, stats),
            DlSem::Inflationary => self.prog.eval_inflationary_governed(&self.db, gov, stats),
        };
        r.map(|db| render_db(&db)).map_err(dl_err)
    }
}

const DATALOG_GOLDEN: &[(&str, &str, &str)] = &[
    ("dl-stratified-w1", "state", "e5bb182475110ba4"),
    (
        "dl-stratified-w1",
        "stats",
        "rounds=8 rules_fired=20 tuples_derived=146 index_probes=42 scan_fallbacks=0 peak_facts=43",
    ),
    ("dl-stratified-w1", "trace", "407883c5b0cf63f3"),
    ("dl-stratified-w1", "sweep_done_at", "46"),
    (
        "dl-stratified-w1",
        "recovered_every1",
        "round=6 ticks=28 deltas=0 ec25ac7bd2c8d9cb",
    ),
    (
        "dl-stratified-w1",
        "recovered_every3",
        "round=6 ticks=28 deltas=2 4411ec8648ff180e",
    ),
    ("dl-stratified-w4", "state", "e5bb182475110ba4"),
    (
        "dl-stratified-w4",
        "stats",
        "rounds=8 rules_fired=20 tuples_derived=146 index_probes=42 scan_fallbacks=0 peak_facts=43",
    ),
    ("dl-stratified-w4", "trace", "407883c5b0cf63f3"),
    ("dl-stratified-w4", "sweep_done_at", "46"),
    (
        "dl-stratified-w4",
        "recovered_every1",
        "round=6 ticks=28 deltas=0 ec25ac7bd2c8d9cb",
    ),
    (
        "dl-stratified-w4",
        "recovered_every3",
        "round=6 ticks=28 deltas=2 4411ec8648ff180e",
    ),
    ("dl-seminaive-w1", "state", "e5bb182475110ba4"),
    (
        "dl-seminaive-w1",
        "stats",
        "rounds=8 rules_fired=9 tuples_derived=41 index_probes=7 scan_fallbacks=0 peak_facts=43",
    ),
    ("dl-seminaive-w1", "trace", "a3f767f434d22884"),
    ("dl-seminaive-w1", "sweep_done_at", "46"),
    (
        "dl-seminaive-w1",
        "recovered_every1",
        "round=6 ticks=28 deltas=0 27defe421f1d401f",
    ),
    (
        "dl-seminaive-w1",
        "recovered_every3",
        "round=6 ticks=28 deltas=2 c698774ab0a1aced",
    ),
    ("dl-seminaive-w4", "state", "e5bb182475110ba4"),
    (
        "dl-seminaive-w4",
        "stats",
        "rounds=8 rules_fired=9 tuples_derived=41 index_probes=7 scan_fallbacks=0 peak_facts=43",
    ),
    ("dl-seminaive-w4", "trace", "4b37155212e44e0c"),
    ("dl-seminaive-w4", "sweep_done_at", "46"),
    (
        "dl-seminaive-w4",
        "recovered_every1",
        "round=6 ticks=28 deltas=0 27defe421f1d401f",
    ),
    (
        "dl-seminaive-w4",
        "recovered_every3",
        "round=6 ticks=28 deltas=2 c698774ab0a1aced",
    ),
    ("dl-inflationary-w1", "state", "81b2e4db4dce3f71"),
    (
        "dl-inflationary-w1",
        "stats",
        "rounds=6 rules_fired=24 tuples_derived=255 index_probes=42 scan_fallbacks=0 peak_facts=64",
    ),
    ("dl-inflationary-w1", "trace", "334afed85282f582"),
    ("dl-inflationary-w1", "sweep_done_at", "65"),
    (
        "dl-inflationary-w1",
        "recovered_every1",
        "round=1 ticks=44 deltas=0 249c167fe4d4b6f8",
    ),
    (
        "dl-inflationary-w1",
        "recovered_every3",
        "round=1 ticks=44 deltas=0 249c167fe4d4b6f8",
    ),
    ("dl-inflationary-w4", "state", "81b2e4db4dce3f71"),
    (
        "dl-inflationary-w4",
        "stats",
        "rounds=6 rules_fired=24 tuples_derived=255 index_probes=42 scan_fallbacks=0 peak_facts=64",
    ),
    ("dl-inflationary-w4", "trace", "334afed85282f582"),
    ("dl-inflationary-w4", "sweep_done_at", "65"),
    (
        "dl-inflationary-w4",
        "recovered_every1",
        "round=1 ticks=44 deltas=0 249c167fe4d4b6f8",
    ),
    (
        "dl-inflationary-w4",
        "recovered_every3",
        "round=1 ticks=44 deltas=0 249c167fe4d4b6f8",
    ),
];

#[test]
fn datalog_observables_are_pinned() {
    let mut rows = Vec::new();
    for sem in [DlSem::Stratified, DlSem::Seminaive, DlSem::Inflationary] {
        let cfg = DlConfig {
            sem,
            prog: dl_prog(),
            db: graph(),
        };
        for w in WIDTHS {
            let name = format!("dl-{}-w{w}", sem.kind());
            rows.push((name.clone(), digests(&cfg, w, &name)));
        }
    }
    check(rows, DATALOG_GOLDEN);
}

// -------------------------------------------------------------------- col

struct ColRun {
    stratified: bool,
    strategy: ColStrategy,
    prog: ColProgram,
    db: Database,
    config: ColConfig,
}

impl ColRun {
    fn kind(&self) -> &'static str {
        if self.stratified {
            "stratified"
        } else {
            "inflationary"
        }
    }
}

/// TC, a data function built by a membership head and read back through
/// membership, and a negation stratum reading TC.
fn col_prog() -> ColProgram {
    let v = ColTerm::var;
    ColProgram::new(vec![
        ColRule::pred(
            "T",
            vec![v("x"), v("y")],
            vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
        ),
        ColRule::pred(
            "T",
            vec![v("x"), v("z")],
            vec![
                ColLiteral::pred("E", vec![v("x"), v("y")]),
                ColLiteral::pred("T", vec![v("y"), v("z")]),
            ],
        ),
        ColRule::func_member(
            "F",
            vec![v("x")],
            v("y"),
            vec![ColLiteral::pred("T", vec![v("x"), v("y")])],
        ),
        ColRule::pred(
            "G",
            vec![v("x"), v("y")],
            vec![
                ColLiteral::pred("E", vec![v("x"), v("_u")]),
                ColLiteral::member(v("y"), ColTerm::Apply("F".into(), vec![v("x")])),
            ],
        ),
        ColRule::pred(
            "N",
            vec![v("x"), v("y")],
            vec![
                ColLiteral::pred("E", vec![v("x"), v("_u")]),
                ColLiteral::pred("E", vec![v("y"), v("_w")]),
                ColLiteral::not_pred("T", vec![v("x"), v("y")]),
            ],
        ),
    ])
}

/// [`col_prog`] plus the unstratifiable win rule `W(x) ← E(x,y), ¬W(y)`,
/// whose negative same-run read puts it in the snapshot class.
fn col_infl_prog() -> ColProgram {
    let v = ColTerm::var;
    let mut rules = col_prog().rules;
    rules.push(ColRule::pred(
        "W",
        vec![v("x")],
        vec![
            ColLiteral::pred("E", vec![v("x"), v("y")]),
            ColLiteral::not_pred("W", vec![v("y")]),
        ],
    ));
    ColProgram::new(rules)
}

fn col_err(e: ColEvalError) -> String {
    match e {
        ColEvalError::Exhausted(ex) => format!(
            "{:?} stats={}\n{}",
            ex.trip,
            ex.stats,
            render_col(&ex.partial)
        ),
        other => format!("{other:?}"),
    }
}

impl Config for ColRun {
    fn engine(&self) -> &'static str {
        "col"
    }

    fn fingerprint(&self) -> u64 {
        let mut e = Enc::new();
        e.put_str("col");
        e.put_str(self.kind());
        e.put_str(&format!("{:?}", self.strategy));
        e.put_str(&format!("{:?}", self.prog.rules));
        e.put_database(&self.db);
        fnv64(&e.finish())
    }

    fn run(&self, gov: &Governor, stats: &mut EvalStats) -> Result<String, String> {
        let r: Result<ColState, ColEvalError> = if self.stratified {
            stratified_governed(
                &self.prog,
                &self.db,
                &self.config,
                self.strategy,
                gov,
                stats,
            )
        } else {
            inflationary_governed(
                &self.prog,
                &self.db,
                &self.config,
                self.strategy,
                gov,
                stats,
            )
        };
        r.map(|s| render_col(&s)).map_err(col_err)
    }
}

const COL_GOLDEN: &[(&str, &str, &str)] = &[
    ("col-stratified-Naive-w1", "state", "40c8ebc5918810ea"),
    ("col-stratified-Naive-w1", "stats", "rounds=10 rules_fired=34 tuples_derived=407 index_probes=48 scan_fallbacks=0 peak_facts=84"),
    ("col-stratified-Naive-w1", "trace", "329d63f97ab9d0ba"),
    ("col-stratified-Naive-w1", "sweep_done_at", "123"),
    ("col-stratified-Naive-w1", "recovered_every1", "round=5 ticks=84 deltas=0 322262adf721dd88"),
    ("col-stratified-Naive-w1", "recovered_every3", "round=5 ticks=84 deltas=0 322262adf721dd88"),
    ("col-stratified-Naive-w1", "max_rounds_trip", "defe06b7bf0a09ed"),
    ("col-stratified-Naive-w4", "state", "40c8ebc5918810ea"),
    ("col-stratified-Naive-w4", "stats", "rounds=10 rules_fired=34 tuples_derived=407 index_probes=48 scan_fallbacks=0 peak_facts=84"),
    ("col-stratified-Naive-w4", "trace", "329d63f97ab9d0ba"),
    ("col-stratified-Naive-w4", "sweep_done_at", "123"),
    ("col-stratified-Naive-w4", "recovered_every1", "round=5 ticks=84 deltas=0 322262adf721dd88"),
    ("col-stratified-Naive-w4", "recovered_every3", "round=5 ticks=84 deltas=0 322262adf721dd88"),
    ("col-stratified-Naive-w4", "max_rounds_trip", "defe06b7bf0a09ed"),
    ("col-stratified-Seminaive-w1", "state", "40c8ebc5918810ea"),
    ("col-stratified-Seminaive-w1", "stats", "rounds=10 rules_fired=26 tuples_derived=82 index_probes=6 scan_fallbacks=0 peak_facts=84"),
    ("col-stratified-Seminaive-w1", "trace", "0f0ccb717de2c973"),
    ("col-stratified-Seminaive-w1", "sweep_done_at", "123"),
    ("col-stratified-Seminaive-w1", "recovered_every1", "round=5 ticks=84 deltas=0 f3f4427560860f68"),
    ("col-stratified-Seminaive-w1", "recovered_every3", "round=5 ticks=84 deltas=0 f3f4427560860f68"),
    ("col-stratified-Seminaive-w1", "max_rounds_trip", "34439f0cfb761961"),
    ("col-stratified-Seminaive-w4", "state", "40c8ebc5918810ea"),
    ("col-stratified-Seminaive-w4", "stats", "rounds=10 rules_fired=26 tuples_derived=82 index_probes=6 scan_fallbacks=0 peak_facts=84"),
    ("col-stratified-Seminaive-w4", "trace", "42a553f0df6d07d7"),
    ("col-stratified-Seminaive-w4", "sweep_done_at", "123"),
    ("col-stratified-Seminaive-w4", "recovered_every1", "round=5 ticks=84 deltas=0 f3f4427560860f68"),
    ("col-stratified-Seminaive-w4", "recovered_every3", "round=5 ticks=84 deltas=0 f3f4427560860f68"),
    ("col-stratified-Seminaive-w4", "max_rounds_trip", "34439f0cfb761961"),
    ("col-inflationary-Naive-w1", "state", "afba77ab4dc8bd13"),
    ("col-inflationary-Naive-w1", "stats", "rounds=8 rules_fired=48 tuples_derived=552 index_probes=48 scan_fallbacks=0 peak_facts=111"),
    ("col-inflationary-Naive-w1", "trace", "39bd0d54a13b10ee"),
    ("col-inflationary-Naive-w1", "sweep_done_at", "162"),
    ("col-inflationary-Naive-w1", "recovered_every1", "round=4 ticks=120 deltas=0 d8fedd705d26984f"),
    ("col-inflationary-Naive-w1", "recovered_every3", "round=4 ticks=120 deltas=0 d8fedd705d26984f"),
    ("col-inflationary-Naive-w1", "max_rounds_trip", "82d8c0b25582138d"),
    ("col-inflationary-Naive-w4", "state", "afba77ab4dc8bd13"),
    ("col-inflationary-Naive-w4", "stats", "rounds=8 rules_fired=48 tuples_derived=552 index_probes=48 scan_fallbacks=0 peak_facts=111"),
    ("col-inflationary-Naive-w4", "trace", "39bd0d54a13b10ee"),
    ("col-inflationary-Naive-w4", "sweep_done_at", "162"),
    ("col-inflationary-Naive-w4", "recovered_every1", "round=4 ticks=120 deltas=0 d8fedd705d26984f"),
    ("col-inflationary-Naive-w4", "recovered_every3", "round=4 ticks=120 deltas=0 d8fedd705d26984f"),
    ("col-inflationary-Naive-w4", "max_rounds_trip", "82d8c0b25582138d"),
    ("col-inflationary-Seminaive-w1", "state", "afba77ab4dc8bd13"),
    ("col-inflationary-Seminaive-w1", "stats", "rounds=8 rules_fired=41 tuples_derived=242 index_probes=6 scan_fallbacks=0 peak_facts=111"),
    ("col-inflationary-Seminaive-w1", "trace", "e71a2c3dbe865859"),
    ("col-inflationary-Seminaive-w1", "sweep_done_at", "162"),
    ("col-inflationary-Seminaive-w1", "recovered_every1", "round=4 ticks=120 deltas=0 f83f248c0233301f"),
    ("col-inflationary-Seminaive-w1", "recovered_every3", "round=4 ticks=120 deltas=0 f83f248c0233301f"),
    ("col-inflationary-Seminaive-w1", "max_rounds_trip", "b90d615418cc63c2"),
    ("col-inflationary-Seminaive-w4", "state", "afba77ab4dc8bd13"),
    ("col-inflationary-Seminaive-w4", "stats", "rounds=8 rules_fired=41 tuples_derived=242 index_probes=6 scan_fallbacks=0 peak_facts=111"),
    ("col-inflationary-Seminaive-w4", "trace", "5574a5bd64eab2cd"),
    ("col-inflationary-Seminaive-w4", "sweep_done_at", "162"),
    ("col-inflationary-Seminaive-w4", "recovered_every1", "round=4 ticks=120 deltas=0 f83f248c0233301f"),
    ("col-inflationary-Seminaive-w4", "recovered_every3", "round=4 ticks=120 deltas=0 f83f248c0233301f"),
    ("col-inflationary-Seminaive-w4", "max_rounds_trip", "b90d615418cc63c2"),
];

#[test]
fn col_observables_are_pinned() {
    let mut rows = Vec::new();
    for stratified in [true, false] {
        for strategy in [ColStrategy::Naive, ColStrategy::Seminaive] {
            let cfg = ColRun {
                stratified,
                strategy,
                prog: if stratified {
                    col_prog()
                } else {
                    col_infl_prog()
                },
                db: graph(),
                config: ColConfig::default(),
            };
            for w in WIDTHS {
                let name = format!("col-{}-{strategy:?}-w{w}", cfg.kind());
                let mut ds = digests(&cfg, w, &name);
                // the per-run round allowance: a run that cannot converge
                // within `max_rounds` trips with its last completed round
                let capped = ColRun {
                    config: ColConfig {
                        max_rounds: 3,
                        ..ColConfig::default()
                    },
                    prog: cfg.prog.clone(),
                    db: cfg.db.clone(),
                    ..cfg
                };
                let mut stats = EvalStats::default();
                let err = capped
                    .run(&base_governor(w), &mut stats)
                    .expect_err("three rounds cannot reach the fixpoint");
                ds.push(("max_rounds_trip".into(), hex(err.as_bytes())));
                rows.push((name, ds));
            }
        }
    }
    check(rows, COL_GOLDEN);
}

// ------------------------------------------------------------ set-valued

const SET_VALUED_GOLDEN: &[(&str, &str, &str)] = &[
    ("set-dl-seminaive-w1", "state", "fd3d2aa8fc79598c"),
    (
        "set-dl-seminaive-w1",
        "stats",
        "rounds=8 rules_fired=9 tuples_derived=41 index_probes=7 scan_fallbacks=0 peak_facts=43",
    ),
    ("set-dl-seminaive-w1", "trace", "7fba44f81d6bdc6c"),
    ("set-dl-seminaive-w1", "sweep_done_at", "46"),
    (
        "set-dl-seminaive-w1",
        "recovered_every1",
        "round=6 ticks=28 deltas=0 32ccccfbd45e6cd5",
    ),
    (
        "set-dl-seminaive-w1",
        "recovered_every3",
        "round=6 ticks=28 deltas=2 680f5ae9ee8ecf77",
    ),
    ("set-dl-seminaive-w4", "state", "fd3d2aa8fc79598c"),
    (
        "set-dl-seminaive-w4",
        "stats",
        "rounds=8 rules_fired=9 tuples_derived=41 index_probes=7 scan_fallbacks=0 peak_facts=43",
    ),
    ("set-dl-seminaive-w4", "trace", "dce17857a7971130"),
    ("set-dl-seminaive-w4", "sweep_done_at", "46"),
    (
        "set-dl-seminaive-w4",
        "recovered_every1",
        "round=6 ticks=28 deltas=0 32ccccfbd45e6cd5",
    ),
    (
        "set-dl-seminaive-w4",
        "recovered_every3",
        "round=6 ticks=28 deltas=2 680f5ae9ee8ecf77",
    ),
    (
        "set-col-stratified-Seminaive-w1",
        "state",
        "cff92c797fc91ff4",
    ),
    (
        "set-col-stratified-Seminaive-w1",
        "stats",
        "rounds=10 rules_fired=26 tuples_derived=82 index_probes=6 scan_fallbacks=0 peak_facts=84",
    ),
    (
        "set-col-stratified-Seminaive-w1",
        "trace",
        "87bbfdfcbfb91799",
    ),
    ("set-col-stratified-Seminaive-w1", "sweep_done_at", "123"),
    (
        "set-col-stratified-Seminaive-w1",
        "recovered_every1",
        "round=5 ticks=84 deltas=0 e8db706d892a3ab8",
    ),
    (
        "set-col-stratified-Seminaive-w1",
        "recovered_every3",
        "round=5 ticks=84 deltas=0 e8db706d892a3ab8",
    ),
    (
        "set-col-stratified-Seminaive-w4",
        "state",
        "cff92c797fc91ff4",
    ),
    (
        "set-col-stratified-Seminaive-w4",
        "stats",
        "rounds=10 rules_fired=26 tuples_derived=82 index_probes=6 scan_fallbacks=0 peak_facts=84",
    ),
    (
        "set-col-stratified-Seminaive-w4",
        "trace",
        "ea46356c126f7449",
    ),
    ("set-col-stratified-Seminaive-w4", "sweep_done_at", "123"),
    (
        "set-col-stratified-Seminaive-w4",
        "recovered_every1",
        "round=5 ticks=84 deltas=0 e8db706d892a3ab8",
    ),
    (
        "set-col-stratified-Seminaive-w4",
        "recovered_every3",
        "round=5 ticks=84 deltas=0 e8db706d892a3ab8",
    ),
];

/// The semi-naive engines over set-valued vertices: joins, negation and
/// head construction on nested values, not only on atoms.
#[test]
fn set_valued_observables_are_pinned() {
    let db = graph_over(chain_vertex);
    let mut rows = Vec::new();
    let dl = DlConfig {
        sem: DlSem::Seminaive,
        prog: dl_prog_from(chain_vertex(0)),
        db: db.clone(),
    };
    let col = ColRun {
        stratified: true,
        strategy: ColStrategy::Seminaive,
        prog: col_prog(),
        db,
        config: ColConfig::default(),
    };
    let configs: [(&str, &dyn Config); 2] = [
        ("set-dl-seminaive", &dl),
        ("set-col-stratified-Seminaive", &col),
    ];
    for (tag, cfg) in configs {
        for w in WIDTHS {
            let name = format!("{tag}-w{w}");
            rows.push((name.clone(), digests(cfg, w, &name)));
        }
    }
    check(rows, SET_VALUED_GOLDEN);
}
