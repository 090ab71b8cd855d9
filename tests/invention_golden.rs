//! Golden digests of the calculus, algebra and GTM engines' observable
//! bytes.
//!
//! Each configuration below — finite invention `Q^fi`, terminal
//! invention `Q^ti` on one query it defines and one it leaves `?`, the
//! algebra's while-TC and powerset-under-while, and the identity, parity
//! and pair-swap machines run as queries — runs at widths 1 and 4 and is
//! reduced to one FNV-64 digest per observable: the answer; the JSONL
//! trace with its wall-clock fields zeroed; each budget trip with its
//! surrendered partial result and `EvalStats`, and that trip's trace; the
//! first `FailPoint::die_at` tick at which the run completes; and the
//! checkpoint recovered after a crash three quarters of the way in
//! (header counters, stats and payload, at `every=1` and `every=3`). Each
//! machine also runs once through `Gtm::run_governed` under a steps
//! budget, pinning the surrendered machine configuration. The digests are
//! fixed constants, so a rewrite of the engines' governed-run plumbing
//! can prove it moved none of them.
//!
//! Stats are rendered with `Debug`, so the advisory intern-pool counters
//! are pinned too: none of these engines folds them into its stats.
//! Every atom is numeric, so no interned name orders anything.

use std::path::PathBuf;

use untyped_sets::algebra::derived::tc_while_program;
use untyped_sets::algebra::{eval_program_governed, EvalError, Program};
use untyped_sets::calculus::invention::{eval_fi_governed, eval_terminal_governed};
use untyped_sets::calculus::InventionOutcome;
use untyped_sets::calculus::{CalcConfig, CalcError, CalcQuery, CalcTerm, Formula};
use untyped_sets::ckpt::{fnv64, Enc, Session, Spec};
use untyped_sets::core::powerset_via_while_program;
use untyped_sets::gtm::encode::encode_database_ordered;
use untyped_sets::gtm::gtm::Config as GtmConfig;
use untyped_sets::gtm::machines::{identity_gtm, parity_gtm, swap_pairs_gtm};
use untyped_sets::gtm::query::run_gtm_query_governed;
use untyped_sets::gtm::{Gtm, GtmQueryError, RunOutcome, TapeSym};
use untyped_sets::guard::{Budget, CkptConfig, FailPoint, Governor};
use untyped_sets::object::{atom, Atom, Database, Instance, RType, Schema, Type, Value};
use untyped_sets::par::ParConfig;
use untyped_sets::trace::TraceHandle;

const WIDTHS: [usize; 2] = [1, 4];
const EVERY: [u64; 2] = [1, 3];

fn hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("uset-inv-golden-{tag}-{}", std::process::id()));
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

/// Canonical rendering of an instance, one member per line. (`Instance`'s
/// `Debug` also prints its mutation stamp, which is a process-global
/// counter, not content.)
fn render_inst(inst: &Instance) -> String {
    inst.iter().map(|v| format!("{v}\n")).collect()
}

fn base_governor(workers: usize) -> Governor {
    budgeted(workers, Budget::unlimited())
}

fn budgeted(workers: usize, budget: Budget) -> Governor {
    Governor::new(budget)
        .with_par(ParConfig::workers(workers))
        .with_ckpt_config(CkptConfig::Off)
}

/// One engine configuration under test, erased to what the digests need.
trait Case {
    /// Checkpoint engine label (`<dir>/<engine>/`).
    fn engine(&self) -> &'static str;
    /// The run fingerprint the engine keys its checkpoints with.
    fn fingerprint(&self) -> u64;
    /// Run under `gov`; `Ok` carries the rendered answer, `Err` the
    /// rendered error (with its trip, partial result and stats).
    fn run(&self, gov: &Governor) -> Result<String, String>;
    /// Budgets that stop the run part-way.
    fn trips(&self) -> Vec<(&'static str, Budget)>;
}

/// The JSONL trace of one run under `gov`, wall-clock scrubbed.
fn traced(case: &dyn Case, gov: Governor) -> (Result<String, String>, String) {
    let (handle, mem) = TraceHandle::mem();
    let out = case.run(&gov.with_trace(handle));
    assert_eq!(mem.dropped(), 0, "trace ring overflowed");
    let trace = mem
        .events()
        .iter()
        .map(|e| scrub_wall(&e.to_json()) + "\n")
        .collect();
    (out, trace)
}

fn outcome(r: &Result<String, String>) -> String {
    match r {
        Ok(s) => format!("ok {}", hex(s.as_bytes())),
        Err(s) => format!("err {}", hex(s.as_bytes())),
    }
}

/// Digest every observable of one configuration at one width.
fn digests(case: &dyn Case, workers: usize, tag: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let answer = case.run(&base_governor(workers));
    assert!(answer.is_ok(), "reference run completes: {answer:?}");
    out.push(("answer".into(), outcome(&answer)));
    let (again, trace) = traced(case, base_governor(workers));
    assert_eq!(again, answer, "tracing changes nothing");
    out.push(("trace".into(), hex(trace.as_bytes())));

    for (name, budget) in case.trips() {
        let gov = || budgeted(workers, budget);
        let tripped = case.run(&gov());
        let (again, trace) = traced(case, gov());
        assert_eq!(again, tripped, "tracing changes nothing");
        out.push((format!("trip_{name}"), outcome(&tripped)));
        out.push((format!("trip_{name}_trace"), hex(trace.as_bytes())));
    }

    // the die-at sweep: the first tick at which the run completes (a
    // die-at fires iff the run reaches its tick, so bisect)
    let completes = |tick: u64| {
        let gov = base_governor(workers).with_failpoint(FailPoint::die_at(tick));
        case.run(&gov).is_ok()
    };
    let (mut lo, mut hi) = (0u64, 1u64);
    while !completes(hi) {
        lo = hi;
        hi *= 2;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if completes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let done_at = hi;
    out.push(("sweep_done_at".into(), done_at.to_string()));

    // a crash mid-run leaves a checkpoint: recover it and pin its header
    // counters, stats and payload
    let crash_at = done_at * 3 / 4;
    for every in EVERY {
        if crash_at == 0 {
            out.push((format!("recovered_every{every}"), "no crash".into()));
            continue;
        }
        let dir = tmpdir(&format!("{tag}-w{workers}-e{every}"));
        let spec = Spec::new(&dir).with_every(every);
        let gov = base_governor(workers)
            .with_ckpt(spec.clone())
            .with_failpoint(FailPoint::die_at(crash_at));
        let err = case.run(&gov).expect_err("the failpoint fires mid-run");
        assert!(err.contains("Died"), "expected a die-at crash: {err}");
        let mut sess =
            Session::open(&spec, case.engine(), case.fingerprint()).expect("session reopens");
        let pinned = match sess.recover() {
            Some(rec) => {
                let mut bytes = format!(
                    "round={} stats={:?} steps={} facts={} ticks={} value_hwm={}\n",
                    rec.round, rec.stats, rec.steps, rec.facts, rec.ticks, rec.value_hwm
                )
                .into_bytes();
                bytes.extend_from_slice(&rec.payload);
                for d in &rec.deltas {
                    bytes.extend_from_slice(b"\n--delta--\n");
                    bytes.extend_from_slice(d);
                }
                format!("round={} ticks={} {}", rec.round, rec.ticks, hex(&bytes))
            }
            None => "nothing durable".into(),
        };
        out.push((format!("recovered_every{every}"), pinned));
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

fn table(cases: &[(&str, &dyn Case)]) -> Vec<(String, Vec<(String, String)>)> {
    let mut rows = Vec::new();
    for (name, case) in cases {
        for w in WIDTHS {
            let tag = format!("{name}-w{w}");
            rows.push((tag.clone(), digests(*case, w, &tag)));
        }
    }
    rows
}

// --------------------------------------------------------------- calculus

fn unary_db(atoms: &[u64]) -> Database {
    let mut db = Database::empty();
    db.set("R", Instance::from_values(atoms.iter().map(|&a| atom(a))));
    db
}

/// `{ x/U | x ≈ x }`: every level's raw answer holds the invented atoms.
fn all_atoms() -> CalcQuery {
    CalcQuery::new(
        "x",
        RType::Atomic,
        Formula::Eq(CalcTerm::var("x"), CalcTerm::var("x")),
    )
}

/// `{ x/U | R(x) }`: no level ever answers an invented atom.
fn domain_bound() -> CalcQuery {
    CalcQuery::new(
        "x",
        RType::Atomic,
        Formula::Pred("R".into(), CalcTerm::var("x")),
    )
}

fn calc_err(e: CalcError) -> String {
    match e {
        CalcError::Exhausted(ex) => format!(
            "{:?} levels_done={} stats={:?}\n{}",
            ex.trip,
            ex.partial.levels_done,
            ex.stats,
            render_inst(&ex.partial.union)
        ),
        other => format!("{other:?}"),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Search {
    Fi,
    Terminal,
}

struct CalcCase {
    search: Search,
    query: CalcQuery,
    db: Database,
    cap: usize,
    trips: Vec<(&'static str, Budget)>,
}

impl Case for CalcCase {
    fn engine(&self) -> &'static str {
        "calculus"
    }

    fn fingerprint(&self) -> u64 {
        let mut e = Enc::new();
        e.put_str("calculus");
        e.put_str(match self.search {
            Search::Fi => "fi",
            Search::Terminal => "terminal",
        });
        e.put_str(&format!("{:?}", self.query));
        e.put_u64(self.cap as u64);
        e.put_database(&self.db);
        fnv64(&e.finish())
    }

    fn run(&self, gov: &Governor) -> Result<String, String> {
        let (q, db, cfg) = (&self.query, &self.db, CalcConfig::default());
        match self.search {
            Search::Fi => eval_fi_governed(q, db, self.cap, &cfg, gov)
                .map(|u| render_inst(&u))
                .map_err(calc_err),
            Search::Terminal => eval_terminal_governed(q, db, self.cap, &cfg, gov)
                .map(|o| match o {
                    InventionOutcome::Defined { n, answer } => {
                        format!("defined n={n}\n{}", render_inst(&answer))
                    }
                    InventionOutcome::Undefined => "undefined".into(),
                })
                .map_err(calc_err),
        }
    }

    fn trips(&self) -> Vec<(&'static str, Budget)> {
        self.trips.clone()
    }
}

#[test]
fn calculus_observables_are_pinned() {
    let steps = |n| Budget::unlimited().with_steps(n);
    let fi = CalcCase {
        search: Search::Fi,
        query: all_atoms(),
        db: unary_db(&[1, 2, 3]),
        cap: 6,
        trips: vec![
            ("steps", steps(3)),
            ("union", Budget::unlimited().with_value_size(2)),
        ],
    };
    let defined = CalcCase {
        search: Search::Terminal,
        query: all_atoms(),
        db: unary_db(&[1, 2]),
        cap: 5,
        trips: vec![("steps", steps(1))],
    };
    let undefined = CalcCase {
        search: Search::Terminal,
        query: domain_bound(),
        db: unary_db(&[1, 2]),
        cap: 6,
        trips: vec![("steps", steps(4))],
    };
    let rows = table(&[
        ("calc-fi", &fi),
        ("calc-ti-defined", &defined),
        ("calc-ti-undefined", &undefined),
    ]);
    check(rows, CALCULUS);
}

// ---------------------------------------------------------------- algebra

fn alg_err(e: EvalError) -> String {
    match e {
        EvalError::Exhausted(ex) => {
            let mut s = format!("{:?} stats={:?}\n", ex.trip, ex.stats);
            for (var, inst) in &ex.partial.env {
                s.push_str(&format!("{var} = {}", render_inst(inst)));
            }
            s
        }
        other => format!("{other:?}"),
    }
}

struct AlgCase {
    prog: Program,
    db: Database,
    trips: Vec<(&'static str, Budget)>,
}

impl Case for AlgCase {
    fn engine(&self) -> &'static str {
        "algebra"
    }

    fn fingerprint(&self) -> u64 {
        let mut e = Enc::new();
        e.put_str("algebra");
        e.put_str(&format!("{:?}", self.prog));
        e.put_database(&self.db);
        fnv64(&e.finish())
    }

    fn run(&self, gov: &Governor) -> Result<String, String> {
        eval_program_governed(&self.prog, &self.db, gov)
            .map(|ans| render_inst(&ans))
            .map_err(alg_err)
    }

    fn trips(&self) -> Vec<(&'static str, Budget)> {
        self.trips.clone()
    }
}

#[test]
fn algebra_observables_are_pinned() {
    let mut path = Database::empty();
    path.set(
        "R",
        Instance::from_rows((0..6u64).map(|i| [atom(i), atom(i + 1)])),
    );
    let tc = AlgCase {
        prog: tc_while_program("R"),
        db: path,
        trips: vec![("steps", Budget::unlimited().with_steps(9))],
    };
    let powerset = AlgCase {
        prog: powerset_via_while_program("R"),
        db: unary_db(&[1, 2, 3, 4]),
        trips: vec![
            ("steps", Budget::unlimited().with_steps(12)),
            ("value_size", Budget::unlimited().with_value_size(10)),
        ],
    };
    let rows = table(&[("alg-tc-while", &tc), ("alg-powerset-while", &powerset)]);
    check(rows, ALGEBRA);
}

// -------------------------------------------------------------------- gtm

fn render_tape(tape: &[TapeSym]) -> String {
    tape.iter().map(|s| format!("{s} ")).collect()
}

fn render_config(cfg: &GtmConfig) -> String {
    format!(
        "state={} head1={} head2={}\n{}\n{}\n",
        cfg.state,
        cfg.head1,
        cfg.head2,
        render_tape(&cfg.tape1),
        render_tape(&cfg.tape2)
    )
}

struct GtmCase {
    machine: Gtm,
    db: Database,
    schema: Schema,
    target: Type,
    /// The steps budget of the direct `Gtm::run_governed` trip.
    trip_steps: u64,
}

impl GtmCase {
    /// The input tape `run_gtm_query_governed` builds: each relation
    /// listed in its instance's order.
    fn tape(&self) -> Vec<TapeSym> {
        let orders: Vec<Vec<Value>> = self
            .schema
            .entries()
            .iter()
            .map(|(name, _)| self.db.get(name).iter().cloned().collect())
            .collect();
        encode_database_ordered(&self.db, &self.schema, &orders).expect("flat input")
    }

    /// The machine run directly on the input tape under a steps budget.
    fn steps_trip(&self, workers: usize) -> String {
        let gov = budgeted(workers, Budget::unlimited().with_steps(self.trip_steps));
        match self.machine.run_governed(self.tape(), &gov) {
            Ok(RunOutcome::Halted(out)) => format!("halted {}", render_tape(&out)),
            Ok(other) => format!("{other:?}"),
            Err(ex) => format!(
                "{:?} stats={:?}\n{}",
                ex.trip,
                ex.stats,
                render_config(&ex.partial)
            ),
        }
    }
}

impl Case for GtmCase {
    fn engine(&self) -> &'static str {
        "gtm"
    }

    fn fingerprint(&self) -> u64 {
        let mut e = Enc::new();
        e.put_str("gtm");
        e.put_str(&format!("{:?}", self.machine));
        let tape = self.tape();
        e.put_usize(tape.len());
        for s in &tape {
            match s {
                TapeSym::Work(w) => {
                    e.put_u8(0);
                    e.put_str(w);
                }
                TapeSym::Dom(a) => {
                    e.put_u8(1);
                    e.put_atom(*a);
                }
            }
        }
        fnv64(&e.finish())
    }

    fn run(&self, gov: &Governor) -> Result<String, String> {
        match run_gtm_query_governed(&self.machine, &self.db, &self.schema, &self.target, gov) {
            Ok(Some(inst)) => Ok(render_inst(&inst)),
            Ok(None) => Ok("undefined".into()),
            Err(GtmQueryError::Exhausted(ex)) => Err(format!(
                "{:?} stats={:?}\n{}",
                ex.trip,
                ex.stats,
                render_config(&ex.partial)
            )),
            Err(other) => Err(format!("{other:?}")),
        }
    }

    fn trips(&self) -> Vec<(&'static str, Budget)> {
        vec![("steps", Budget::unlimited().with_steps(self.trip_steps))]
    }
}

fn unary_rows(atoms: &[u64]) -> Database {
    let mut db = Database::empty();
    db.set("R", Instance::from_rows(atoms.iter().map(|&a| [atom(a)])));
    db
}

#[test]
fn gtm_observables_are_pinned() {
    let binary = |pairs: &[(u64, u64)]| {
        let mut db = Database::empty();
        db.set(
            "R",
            Instance::from_rows(pairs.iter().map(|&(a, b)| [atom(a), atom(b)])),
        );
        db
    };
    let identity = GtmCase {
        machine: identity_gtm(),
        db: binary(&[(1, 2), (3, 4), (5, 6)]),
        schema: Schema::flat([("R", 2)]),
        target: Type::atomic_tuple(2),
        trip_steps: 1,
    };
    let parity = GtmCase {
        machine: parity_gtm(Atom::new(900)),
        db: unary_rows(&[1, 2, 3, 4, 5, 6]),
        schema: Schema::flat([("R", 1)]),
        target: Type::atomic_tuple(1),
        trip_steps: 7,
    };
    let swap = GtmCase {
        machine: swap_pairs_gtm(),
        db: binary(&(0..160u64).map(|i| (i, 1000 + i)).collect::<Vec<_>>()),
        schema: Schema::flat([("R", 2)]),
        target: Type::atomic_tuple(2),
        trip_steps: 1500,
    };
    let cases: [(&str, &GtmCase); 3] = [
        ("gtm-identity", &identity),
        ("gtm-parity", &parity),
        ("gtm-swap-pairs", &swap),
    ];
    let mut rows = Vec::new();
    for (name, case) in cases {
        for w in WIDTHS {
            let tag = format!("{name}-w{w}");
            let mut ds = digests(case, w, &tag);
            ds.push((
                "run_governed_steps_trip".into(),
                hex(case.steps_trip(w).as_bytes()),
            ));
            rows.push((tag, ds));
        }
    }
    check(rows, GTM);
}

const CALCULUS: &[(&str, &str, &str)] = &[
    ("calc-fi-w1", "answer", "ok 080a7591f4190ca0"),
    ("calc-fi-w1", "trace", "753d8a15761fdf44"),
    ("calc-fi-w1", "trip_steps", "err 819422d7be86a435"),
    ("calc-fi-w1", "trip_steps_trace", "598fd456beb664a9"),
    ("calc-fi-w1", "trip_union", "err d6abf78fb03be056"),
    ("calc-fi-w1", "trip_union_trace", "8643e6f0167437b7"),
    ("calc-fi-w1", "sweep_done_at", "8"),
    (
        "calc-fi-w1",
        "recovered_every1",
        "round=5 ticks=5 8a46f02243891ab5",
    ),
    (
        "calc-fi-w1",
        "recovered_every3",
        "round=5 ticks=5 8a46f02243891ab5",
    ),
    ("calc-fi-w4", "answer", "ok 080a7591f4190ca0"),
    ("calc-fi-w4", "trace", "753d8a15761fdf44"),
    ("calc-fi-w4", "trip_steps", "err 819422d7be86a435"),
    ("calc-fi-w4", "trip_steps_trace", "598fd456beb664a9"),
    ("calc-fi-w4", "trip_union", "err d6abf78fb03be056"),
    ("calc-fi-w4", "trip_union_trace", "8643e6f0167437b7"),
    ("calc-fi-w4", "sweep_done_at", "8"),
    (
        "calc-fi-w4",
        "recovered_every1",
        "round=5 ticks=5 8a46f02243891ab5",
    ),
    (
        "calc-fi-w4",
        "recovered_every3",
        "round=5 ticks=5 8a46f02243891ab5",
    ),
    ("calc-ti-defined-w1", "answer", "ok bd85067c81c6c7c7"),
    ("calc-ti-defined-w1", "trace", "443357af37a75af6"),
    ("calc-ti-defined-w1", "trip_steps", "err ef46c30c831bc6f2"),
    ("calc-ti-defined-w1", "trip_steps_trace", "1d267a1e93efd813"),
    ("calc-ti-defined-w1", "sweep_done_at", "3"),
    (
        "calc-ti-defined-w1",
        "recovered_every1",
        "round=1 ticks=1 7bc0e2717ab0a937",
    ),
    (
        "calc-ti-defined-w1",
        "recovered_every3",
        "round=1 ticks=1 7bc0e2717ab0a937",
    ),
    ("calc-ti-defined-w4", "answer", "ok bd85067c81c6c7c7"),
    ("calc-ti-defined-w4", "trace", "443357af37a75af6"),
    ("calc-ti-defined-w4", "trip_steps", "err ef46c30c831bc6f2"),
    ("calc-ti-defined-w4", "trip_steps_trace", "1d267a1e93efd813"),
    ("calc-ti-defined-w4", "sweep_done_at", "3"),
    (
        "calc-ti-defined-w4",
        "recovered_every1",
        "round=1 ticks=1 7bc0e2717ab0a937",
    ),
    (
        "calc-ti-defined-w4",
        "recovered_every3",
        "round=1 ticks=1 7bc0e2717ab0a937",
    ),
    ("calc-ti-undefined-w1", "answer", "ok 22a0e850add468a3"),
    ("calc-ti-undefined-w1", "trace", "bb10980a17e75ead"),
    ("calc-ti-undefined-w1", "trip_steps", "err c5d8f06335725ef6"),
    (
        "calc-ti-undefined-w1",
        "trip_steps_trace",
        "5535a71c997d6b80",
    ),
    ("calc-ti-undefined-w1", "sweep_done_at", "8"),
    (
        "calc-ti-undefined-w1",
        "recovered_every1",
        "round=5 ticks=5 7b33ba699b6d431e",
    ),
    (
        "calc-ti-undefined-w1",
        "recovered_every3",
        "round=5 ticks=5 7b33ba699b6d431e",
    ),
    ("calc-ti-undefined-w4", "answer", "ok 22a0e850add468a3"),
    ("calc-ti-undefined-w4", "trace", "bb10980a17e75ead"),
    ("calc-ti-undefined-w4", "trip_steps", "err c5d8f06335725ef6"),
    (
        "calc-ti-undefined-w4",
        "trip_steps_trace",
        "5535a71c997d6b80",
    ),
    ("calc-ti-undefined-w4", "sweep_done_at", "8"),
    (
        "calc-ti-undefined-w4",
        "recovered_every1",
        "round=5 ticks=5 7b33ba699b6d431e",
    ),
    (
        "calc-ti-undefined-w4",
        "recovered_every3",
        "round=5 ticks=5 7b33ba699b6d431e",
    ),
];

const ALGEBRA: &[(&str, &str, &str)] = &[
    ("alg-tc-while-w1", "answer", "ok ea9ab5649fea002d"),
    ("alg-tc-while-w1", "trace", "cb3a3b7e9dbf8084"),
    ("alg-tc-while-w1", "trip_steps", "err 391e54c4b8407198"),
    ("alg-tc-while-w1", "trip_steps_trace", "e587ee92892e1f57"),
    ("alg-tc-while-w1", "sweep_done_at", "29"),
    (
        "alg-tc-while-w1",
        "recovered_every1",
        "round=6 ticks=19 eb593ebbd95a9e8e",
    ),
    (
        "alg-tc-while-w1",
        "recovered_every3",
        "round=6 ticks=19 eb593ebbd95a9e8e",
    ),
    ("alg-tc-while-w4", "answer", "ok ea9ab5649fea002d"),
    ("alg-tc-while-w4", "trace", "cb3a3b7e9dbf8084"),
    ("alg-tc-while-w4", "trip_steps", "err 391e54c4b8407198"),
    ("alg-tc-while-w4", "trip_steps_trace", "e587ee92892e1f57"),
    ("alg-tc-while-w4", "sweep_done_at", "29"),
    (
        "alg-tc-while-w4",
        "recovered_every1",
        "round=6 ticks=19 eb593ebbd95a9e8e",
    ),
    (
        "alg-tc-while-w4",
        "recovered_every3",
        "round=6 ticks=19 eb593ebbd95a9e8e",
    ),
    ("alg-powerset-while-w1", "answer", "ok f6d8db3b9e8b5fa9"),
    ("alg-powerset-while-w1", "trace", "07b330c9f4b443f9"),
    (
        "alg-powerset-while-w1",
        "trip_steps",
        "err 50253676b0ef2ad6",
    ),
    (
        "alg-powerset-while-w1",
        "trip_steps_trace",
        "dfa156ea9339734f",
    ),
    (
        "alg-powerset-while-w1",
        "trip_value_size",
        "err e7b03486c89531a4",
    ),
    (
        "alg-powerset-while-w1",
        "trip_value_size_trace",
        "d7b1614547044e60",
    ),
    ("alg-powerset-while-w1", "sweep_done_at", "25"),
    (
        "alg-powerset-while-w1",
        "recovered_every1",
        "round=5 ticks=15 11d62bdabb4a4149",
    ),
    (
        "alg-powerset-while-w1",
        "recovered_every3",
        "round=5 ticks=15 11d62bdabb4a4149",
    ),
    ("alg-powerset-while-w4", "answer", "ok f6d8db3b9e8b5fa9"),
    ("alg-powerset-while-w4", "trace", "07b330c9f4b443f9"),
    (
        "alg-powerset-while-w4",
        "trip_steps",
        "err 50253676b0ef2ad6",
    ),
    (
        "alg-powerset-while-w4",
        "trip_steps_trace",
        "dfa156ea9339734f",
    ),
    (
        "alg-powerset-while-w4",
        "trip_value_size",
        "err e7b03486c89531a4",
    ),
    (
        "alg-powerset-while-w4",
        "trip_value_size_trace",
        "d7b1614547044e60",
    ),
    ("alg-powerset-while-w4", "sweep_done_at", "25"),
    (
        "alg-powerset-while-w4",
        "recovered_every1",
        "round=5 ticks=15 11d62bdabb4a4149",
    ),
    (
        "alg-powerset-while-w4",
        "recovered_every3",
        "round=5 ticks=15 11d62bdabb4a4149",
    ),
];

const GTM: &[(&str, &str, &str)] = &[
    ("gtm-identity-w1", "answer", "ok 2153596c0457845a"),
    ("gtm-identity-w1", "trace", "2f7195ed7f53d70d"),
    ("gtm-identity-w1", "trip_steps", "ok 2153596c0457845a"),
    ("gtm-identity-w1", "trip_steps_trace", "2f7195ed7f53d70d"),
    ("gtm-identity-w1", "sweep_done_at", "2"),
    ("gtm-identity-w1", "recovered_every1", "nothing durable"),
    ("gtm-identity-w1", "recovered_every3", "nothing durable"),
    (
        "gtm-identity-w1",
        "run_governed_steps_trip",
        "f48b7cd40a4b8221",
    ),
    ("gtm-identity-w4", "answer", "ok 2153596c0457845a"),
    ("gtm-identity-w4", "trace", "2f7195ed7f53d70d"),
    ("gtm-identity-w4", "trip_steps", "ok 2153596c0457845a"),
    ("gtm-identity-w4", "trip_steps_trace", "2f7195ed7f53d70d"),
    ("gtm-identity-w4", "sweep_done_at", "2"),
    ("gtm-identity-w4", "recovered_every1", "nothing durable"),
    ("gtm-identity-w4", "recovered_every3", "nothing durable"),
    (
        "gtm-identity-w4",
        "run_governed_steps_trip",
        "f48b7cd40a4b8221",
    ),
    ("gtm-parity-w1", "answer", "ok ff35c613c568547f"),
    ("gtm-parity-w1", "trace", "c7457d2a22442df5"),
    ("gtm-parity-w1", "trip_steps", "err 53f1f41cab1014d4"),
    ("gtm-parity-w1", "trip_steps_trace", "e81f95a06c26e5b6"),
    ("gtm-parity-w1", "sweep_done_at", "75"),
    ("gtm-parity-w1", "recovered_every1", "nothing durable"),
    ("gtm-parity-w1", "recovered_every3", "nothing durable"),
    (
        "gtm-parity-w1",
        "run_governed_steps_trip",
        "53f1f41cab1014d4",
    ),
    ("gtm-parity-w4", "answer", "ok ff35c613c568547f"),
    ("gtm-parity-w4", "trace", "c7457d2a22442df5"),
    ("gtm-parity-w4", "trip_steps", "err 53f1f41cab1014d4"),
    ("gtm-parity-w4", "trip_steps_trace", "e81f95a06c26e5b6"),
    ("gtm-parity-w4", "sweep_done_at", "75"),
    ("gtm-parity-w4", "recovered_every1", "nothing durable"),
    ("gtm-parity-w4", "recovered_every3", "nothing durable"),
    (
        "gtm-parity-w4",
        "run_governed_steps_trip",
        "53f1f41cab1014d4",
    ),
    ("gtm-swap-pairs-w1", "answer", "ok 65aa6eacc47bd97d"),
    ("gtm-swap-pairs-w1", "trace", "1d413e7fcfb75384"),
    ("gtm-swap-pairs-w1", "trip_steps", "err 7d21db56e7d1475f"),
    ("gtm-swap-pairs-w1", "trip_steps_trace", "fc3d11d3cabf5185"),
    ("gtm-swap-pairs-w1", "sweep_done_at", "1922"),
    (
        "gtm-swap-pairs-w1",
        "recovered_every1",
        "round=1024 ticks=1024 3dc30c29148d4f99",
    ),
    (
        "gtm-swap-pairs-w1",
        "recovered_every3",
        "round=1024 ticks=1024 3dc30c29148d4f99",
    ),
    (
        "gtm-swap-pairs-w1",
        "run_governed_steps_trip",
        "7d21db56e7d1475f",
    ),
    ("gtm-swap-pairs-w4", "answer", "ok 65aa6eacc47bd97d"),
    ("gtm-swap-pairs-w4", "trace", "1d413e7fcfb75384"),
    ("gtm-swap-pairs-w4", "trip_steps", "err 7d21db56e7d1475f"),
    ("gtm-swap-pairs-w4", "trip_steps_trace", "fc3d11d3cabf5185"),
    ("gtm-swap-pairs-w4", "sweep_done_at", "1922"),
    (
        "gtm-swap-pairs-w4",
        "recovered_every1",
        "round=1024 ticks=1024 3dc30c29148d4f99",
    ),
    (
        "gtm-swap-pairs-w4",
        "recovered_every3",
        "round=1024 ticks=1024 3dc30c29148d4f99",
    ),
    (
        "gtm-swap-pairs-w4",
        "run_governed_steps_trip",
        "7d21db56e7d1475f",
    ),
];
