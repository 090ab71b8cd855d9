//! Golden digests of a DATALOG¬ maintenance session's observable bytes.
//!
//! One journaled [`DatalogSession`] runs TC plus the negation stratum
//! `U(x,y) :- E(x,y), ¬T(y,x)` over singleton-chain vertices, at widths 1
//! and 4, through a batch sequence that over-deletes and rederives `T`
//! (DRed) and moves `U` through `¬T` (counting). Each observable is
//! reduced to a fixed constant: the final state, every `ApplyReport`, the
//! cumulative `maint_stats`, the JSONL trace with its wall-clock fields
//! zeroed, and the journal recovered from the session's checkpoint
//! directory (header counters, snapshot payload and WAL deltas). A
//! rewrite of the maintenance internals must move none of them.
//!
//! Every knob is pinned (width, optimizer, maintenance mode, checkpoint
//! spec, interning pool), so the digests hold under any `USET_*`
//! environment.

use std::path::PathBuf;

use untyped_sets::ckpt::{fnv64, Enc, Session, Spec};
use untyped_sets::deductive::{DatalogProgram, DlAtom, DlRule, DlTerm};
use untyped_sets::guard::{Governor, OptConfig};
use untyped_sets::ivm::{DatalogSession, DeltaBatch, IvmMode, Semantics};
use untyped_sets::object::cons::singleton_chain;
use untyped_sets::object::{intern, Atom, Database, Instance, Value};
use untyped_sets::par::ParConfig;
use untyped_sets::trace::TraceHandle;

fn hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv64(bytes))
}

/// Vertex `i` as a singleton chain `{…{a_i}…}` of mixed depth (1 to 4).
fn vertex(i: u64) -> Value {
    let depth = [1, 3, 2, 4, 1, 2, 3, 1][i as usize];
    singleton_chain(Atom::new(i), depth + 1)
        .pop()
        .expect("chain of length ≥ 1")
}

fn edge(a: u64, b: u64) -> Value {
    Value::Tuple(vec![vertex(a), vertex(b)])
}

/// TC plus `U(x,y) :- E(x,y), ¬T(y,x)`: the edges on no cycle.
fn program() -> DatalogProgram {
    let v = DlTerm::var;
    let atom = |p: &str, a: &str, b: &str| DlAtom::new(p, vec![v(a), v(b)]);
    DatalogProgram::new(vec![
        DlRule::new(atom("T", "x", "y"), vec![(true, atom("E", "x", "y"))]),
        DlRule::new(
            atom("T", "x", "z"),
            vec![(true, atom("E", "x", "y")), (true, atom("T", "y", "z"))],
        ),
        DlRule::new(
            atom("U", "x", "y"),
            vec![(true, atom("E", "x", "y")), (false, atom("T", "y", "x"))],
        ),
    ])
}

/// A diamond 0→1→2, 0→2 into the cycle 2→3→4→2, with a tail 4→5→6.
fn initial() -> Database {
    let mut db = Database::empty();
    let edges = [
        (0, 1),
        (1, 2),
        (0, 2),
        (2, 3),
        (3, 4),
        (4, 2),
        (4, 5),
        (5, 6),
    ];
    db.set(
        "E",
        Instance::from_values(edges.iter().map(|&(a, b)| edge(a, b))),
    );
    db
}

/// The batch sequence. Retracting `1→2` over-deletes every `T(0,·)` and
/// `T(1,·)` fact derived through it, and the `0→2` chord rederives the
/// `T(0,·)` ones. Closing `6→0` puts every edge on a cycle, so `U` loses
/// rows through `¬T`; opening the `4→2` cycle gives some back. The last
/// batch mixes a retraction, an insertion, a row both retracted and
/// inserted (the insertion wins) and a retraction of an absent row.
fn batches() -> Vec<DeltaBatch> {
    vec![
        DeltaBatch::new().retract("E", edge(1, 2)),
        DeltaBatch::new().insert("E", edge(6, 0)),
        DeltaBatch::new().retract("E", edge(4, 2)),
        DeltaBatch::new()
            .retract("E", edge(5, 6))
            .insert("E", edge(5, 7))
            .insert("E", edge(1, 2))
            .retract("E", edge(3, 4))
            .insert("E", edge(3, 4))
            .retract("E", edge(7, 1)),
        DeltaBatch::new()
            .insert("E", edge(7, 0))
            .retract("E", edge(0, 2)),
    ]
}

/// The journal fingerprint `uset-ivm` keys a DATALOG¬ session with:
/// the program, the semantics tag, and the input database.
fn fingerprint(prog: &DatalogProgram, db: &Database) -> u64 {
    let mut e = Enc::new();
    e.put_str(&format!("{prog:?}"));
    e.put_u8(1); // Semantics::StratifiedSeminaive
    e.put_database(db);
    fnv64(&e.finish())
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("uset-ivm-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Zero every wall-clock field of a JSONL line.
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

fn render_db(db: &Database) -> String {
    let mut s = String::new();
    for (name, inst) in db.iter() {
        s.push_str(name);
        for row in inst.iter() {
            s.push_str(&format!(" {row}"));
        }
        s.push('\n');
    }
    s
}

/// Digest every observable of one session run at one width.
fn digests(workers: usize) -> Vec<(String, String)> {
    intern::set_enabled(true);
    let dir = tmpdir(&format!("w{workers}"));
    let spec = Spec::new(&dir).with_every(3);
    let (handle, mem) = TraceHandle::mem();
    let gov = Governor::unlimited()
        .with_opt(OptConfig::Off)
        .with_par(ParConfig::workers(workers))
        .with_trace(handle)
        .with_ckpt(spec.clone());
    let prog = program();
    let db = initial();
    let mut out = Vec::new();
    let mut overdeleted = 0;
    let mut rederived = 0;
    {
        let mut session = DatalogSession::with_mode(
            prog.clone(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .expect("the session materializes");
        assert!(session.journaled(), "the session owns its journal");
        for (i, batch) in batches().iter().enumerate() {
            let r = session.apply(batch).expect("the batch applies");
            assert!(!r.fallback, "maintained incrementally");
            out.push((
                format!("report{}", i + 1),
                format!(
                    "batch={} +{} -{} idb+{} idb-{} {}",
                    r.batch, r.inserted, r.retracted, r.idb_added, r.idb_removed, r.stats
                ),
            ));
        }
        out.push(("state".into(), hex(render_db(session.state()).as_bytes())));
        out.push(("maint_stats".into(), session.maint_stats().to_string()));
        // dropped without `finish`: the journal stays, as after a crash
    }
    assert_eq!(mem.dropped(), 0, "trace ring overflowed");
    let mut trace = String::new();
    for e in mem.events() {
        let line = e.to_json();
        if line.contains("\"rederived\"") {
            overdeleted += field(&line, "overdeleted");
            rederived += field(&line, "rederived\":");
        }
        trace.push_str(&scrub_wall(&line));
        trace.push('\n');
    }
    assert!(overdeleted > 0, "a batch over-deletes");
    assert!(rederived > 0, "a batch rederives");
    out.push(("trace".into(), hex(trace.as_bytes())));

    let mut sess = Session::open(&spec, "ivm", fingerprint(&prog, &db)).expect("journal reopens");
    let rec = sess.recover().expect("the journal recovers");
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
        "journal".into(),
        format!(
            "round={} deltas={} {}",
            rec.round,
            rec.deltas.len(),
            hex(&bytes)
        ),
    ));
    drop(sess);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The number after `key` in a JSON line (0 when absent).
fn field(line: &str, key: &str) -> u64 {
    line.find(key).map_or(0, |at| {
        let rest = &line[at + key.len()..];
        let rest = rest.trim_start_matches(|c: char| !c.is_ascii_digit());
        rest.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or(0)
    })
}

const GOLDEN: &[(&str, &str, &str)] = &[
    ("ivm-w1", "report1", "batch=1 +0 -1 idb+0 idb-6 rounds=5 rules_fired=35 tuples_derived=17 index_probes=0 scan_fallbacks=0 peak_facts=34"),
    ("ivm-w1", "report2", "batch=2 +1 -0 idb+20 idb-3 rounds=7 rules_fired=10 tuples_derived=32 index_probes=0 scan_fallbacks=0 peak_facts=54"),
    ("ivm-w1", "report3", "batch=3 +0 -1 idb+0 idb-0 rounds=13 rules_fired=296 tuples_derived=99 index_probes=0 scan_fallbacks=0 peak_facts=50"),
    ("ivm-w1", "report4", "batch=4 +2 -1 idb+18 idb-25 rounds=19 rules_fired=390 tuples_derived=90 index_probes=0 scan_fallbacks=0 peak_facts=44"),
    ("ivm-w1", "report5", "batch=5 +1 -1 idb+28 idb-7 rounds=12 rules_fired=46 tuples_derived=63 index_probes=0 scan_fallbacks=0 peak_facts=72"),
    ("ivm-w1", "state", "463ca7edf4f7f5b7"),
    ("ivm-w1", "maint_stats", "rounds=56 rules_fired=778 tuples_derived=306 index_probes=0 scan_fallbacks=0 peak_facts=72"),
    ("ivm-w1", "trace", "89d8b915039b6397"),
    ("ivm-w1", "journal", "round=5 deltas=1 d8eb838d2c750a04"),
    ("ivm-w4", "report1", "batch=1 +0 -1 idb+0 idb-6 rounds=5 rules_fired=35 tuples_derived=17 index_probes=0 scan_fallbacks=0 peak_facts=34"),
    ("ivm-w4", "report2", "batch=2 +1 -0 idb+20 idb-3 rounds=7 rules_fired=10 tuples_derived=32 index_probes=0 scan_fallbacks=0 peak_facts=54"),
    ("ivm-w4", "report3", "batch=3 +0 -1 idb+0 idb-0 rounds=13 rules_fired=296 tuples_derived=99 index_probes=0 scan_fallbacks=0 peak_facts=50"),
    ("ivm-w4", "report4", "batch=4 +2 -1 idb+18 idb-25 rounds=19 rules_fired=390 tuples_derived=90 index_probes=0 scan_fallbacks=0 peak_facts=44"),
    ("ivm-w4", "report5", "batch=5 +1 -1 idb+28 idb-7 rounds=12 rules_fired=46 tuples_derived=63 index_probes=0 scan_fallbacks=0 peak_facts=72"),
    ("ivm-w4", "state", "463ca7edf4f7f5b7"),
    ("ivm-w4", "maint_stats", "rounds=56 rules_fired=778 tuples_derived=306 index_probes=0 scan_fallbacks=0 peak_facts=72"),
    ("ivm-w4", "trace", "6d702bc4894773ff"),
    ("ivm-w4", "journal", "round=5 deltas=1 d8eb838d2c750a04"),
];

#[test]
fn maintenance_observables_are_pinned() {
    let mut got = Vec::new();
    for w in [1, 4] {
        for (k, v) in digests(w) {
            got.push((format!("ivm-w{w}"), k, v));
        }
    }
    let want: Vec<(String, String, String)> = GOLDEN
        .iter()
        .map(|(a, b, c)| (a.to_string(), b.to_string(), c.to_string()))
        .collect();
    let table: String = got
        .iter()
        .map(|(a, b, c)| format!("    (\"{a}\", \"{b}\", \"{c}\"),\n"))
        .collect();
    assert!(
        got == want,
        "golden digests changed; actual table:\n{table}"
    );
}
