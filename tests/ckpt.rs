//! Integration tests for `uset-ckpt`: crash-at-every-point + recover must
//! be indistinguishable from the uninterrupted run — same final state,
//! same `EvalStats`, same guard meters — for every engine; and a damaged
//! checkpoint directory (torn WAL tail, flipped bytes, truncated files)
//! must never be loaded, only rolled back past.
//!
//! The crash is the guard's `FailPoint::die_at(n)`: a deterministic
//! in-process stand-in for `kill -9` at the n-th progress tick. Because
//! every tick is a potential crash site, sweeping n over the whole run
//! exercises a crash at (and between) every round boundary.

use std::path::PathBuf;
use std::time::Duration;

use untyped_sets::algebra::derived::tc_while_program;
use untyped_sets::algebra::{eval_program_governed, EvalError as AlgEvalError};
use untyped_sets::bk::eval::{eval_rounds_with, state_from};
use untyped_sets::bk::{BkConfig, BkError, BkObject, BkProgram, BkState};
use untyped_sets::calculus::invention::{eval_fi_governed, eval_terminal_governed};
use untyped_sets::calculus::{CalcConfig, CalcQuery, CalcTerm, Formula, InventionOutcome};
use untyped_sets::ckpt::Spec;
use untyped_sets::deductive::{
    inflationary_governed, stratified_governed, ColConfig, ColEvalError, ColLiteral, ColProgram,
    ColRule, ColState, ColStrategy, ColTerm, DatalogProgram, DlAtom, DlRule, DlTerm,
};
use untyped_sets::gtm::{GtmBuilder, Move as GtmMove, RunOutcome, SymOut, SymPat, TapeSym};
use untyped_sets::guard::{Budget, FailPoint, Governor, Resource};
use untyped_sets::ivm::{ColSemantics, MaterializedSession, Semantics};
use untyped_sets::object::{atom, Database, EvalStats, Instance};

fn dv(name: &str) -> DlTerm {
    DlTerm::var(name)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("uset-ckpt-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn path_db(n: u64) -> Database {
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows((0..n.saturating_sub(1)).map(|i| [atom(i), atom(i + 1)])),
    );
    db
}

/// Transitive closure plus a second stratum that negates through it, so
/// stratified runs exercise a multi-stratum resume.
fn dl_tc_neg() -> DatalogProgram {
    DatalogProgram::new(vec![
        DlRule::new(
            DlAtom::new("T", vec![dv("x"), dv("y")]),
            vec![(true, DlAtom::new("E", vec![dv("x"), dv("y")]))],
        ),
        DlRule::new(
            DlAtom::new("T", vec![dv("x"), dv("z")]),
            vec![
                (true, DlAtom::new("E", vec![dv("x"), dv("y")])),
                (true, DlAtom::new("T", vec![dv("y"), dv("z")])),
            ],
        ),
        DlRule::new(
            DlAtom::new("NR", vec![dv("x"), dv("y")]),
            vec![
                (true, DlAtom::new("E", vec![dv("x"), dv("_w")])),
                (true, DlAtom::new("E", vec![dv("y"), dv("_v")])),
                (false, DlAtom::new("T", vec![dv("x"), dv("y")])),
            ],
        ),
    ])
}

/// Sweep a deterministic crash over every tick of a datalog run under a
/// checkpoint directory, resuming after each crash; every resumed run
/// must reproduce the uninterrupted result and stats exactly.
fn dl_crash_sweep(
    prog: &DatalogProgram,
    db: &Database,
    every: u64,
    tag: &str,
    run: impl Fn(
        &DatalogProgram,
        &Database,
        &Governor,
        &mut EvalStats,
    ) -> Result<Database, untyped_sets::deductive::DlError>,
) {
    let mut ref_stats = EvalStats::default();
    let reference = run(prog, db, &Governor::unlimited(), &mut ref_stats).expect("reference run");
    let dir = tmpdir(tag);
    let mut crashed_at_least_once = false;
    for tick in 1..10_000 {
        let gov = Governor::unlimited()
            .with_failpoint(FailPoint::die_at(tick))
            .with_ckpt(Spec::new(&dir).with_every(every));
        let mut stats = EvalStats::default();
        match run(prog, db, &gov, &mut stats) {
            Ok(out) => {
                // the failpoint never fired: the sweep has passed the
                // end of the run
                assert_eq!(out, reference);
                assert!(crashed_at_least_once, "sweep never crashed");
                break;
            }
            Err(untyped_sets::deductive::DlError::Exhausted(report)) => {
                assert_eq!(report.resource(), Resource::Died);
                crashed_at_least_once = true;
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
        // recover: same program + input + directory, no failpoint
        let gov = Governor::unlimited().with_ckpt(Spec::new(&dir).with_every(every));
        let mut stats = EvalStats::default();
        let out = run(prog, db, &gov, &mut stats).expect("resumed run completes");
        assert_eq!(out, reference, "state diverged after crash at tick {tick}");
        assert_eq!(
            stats, ref_stats,
            "stats diverged after crash at tick {tick}"
        );
        assert!(
            !dir.join("datalog").exists(),
            "a completed run must clear its checkpoint directory"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// TC over `E`, a data function built by a membership head (exercising
/// the function-graph codec), and a negation stratum reading TC.
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

/// Sweep a deterministic crash over every tick of a COL run under a
/// checkpoint directory, resuming after each crash.
fn col_crash_sweep(
    prog: &ColProgram,
    db: &Database,
    strategy: ColStrategy,
    stratified: bool,
    every: u64,
    tag: &str,
) {
    let cfg = ColConfig::default();
    let run = |gov: &Governor, stats: &mut EvalStats| -> Result<ColState, ColEvalError> {
        if stratified {
            stratified_governed(prog, db, &cfg, strategy, gov, stats)
        } else {
            inflationary_governed(prog, db, &cfg, strategy, gov, stats)
        }
    };
    let mut ref_stats = EvalStats::default();
    let reference = run(&Governor::unlimited(), &mut ref_stats).expect("reference run");
    let dir = tmpdir(tag);
    let mut crashed_at_least_once = false;
    for tick in 1..10_000 {
        let gov = Governor::unlimited()
            .with_failpoint(FailPoint::die_at(tick))
            .with_ckpt(Spec::new(&dir).with_every(every));
        match run(&gov, &mut EvalStats::default()) {
            Ok(out) => {
                assert_eq!(out, reference);
                assert!(crashed_at_least_once, "sweep never crashed");
                break;
            }
            Err(ColEvalError::Exhausted(report)) => {
                assert_eq!(report.resource(), Resource::Died);
                crashed_at_least_once = true;
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
        let gov = Governor::unlimited().with_ckpt(Spec::new(&dir).with_every(every));
        let mut stats = EvalStats::default();
        let out = run(&gov, &mut stats).expect("resumed run completes");
        assert_eq!(out, reference, "state diverged after crash at tick {tick}");
        assert_eq!(
            stats, ref_stats,
            "stats diverged after crash at tick {tick}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn col_stratified_seminaive_crash_resume_equals_uninterrupted() {
    col_crash_sweep(
        &col_prog(),
        &path_db(6),
        ColStrategy::Seminaive,
        true,
        2,
        "col-strat-semi",
    );
}

#[test]
fn col_stratified_naive_crash_resume_equals_uninterrupted() {
    col_crash_sweep(
        &col_prog(),
        &path_db(6),
        ColStrategy::Naive,
        true,
        3,
        "col-strat-naive",
    );
}

#[test]
fn col_inflationary_seminaive_crash_resume_equals_uninterrupted() {
    // W(x) ← E(x,y), ¬W(y): unstratifiable, so only inflationary
    // semantics applies — and the negative same-run read forces the
    // semi-naive engine's snapshot fallback class
    let v = ColTerm::var;
    let win = ColProgram::new(vec![ColRule::pred(
        "W",
        vec![v("x")],
        vec![
            ColLiteral::pred("E", vec![v("x"), v("y")]),
            ColLiteral::not_pred("W", vec![v("y")]),
        ],
    )]);
    col_crash_sweep(
        &win,
        &path_db(7),
        ColStrategy::Seminaive,
        false,
        2,
        "col-infl-semi",
    );
}

#[test]
fn col_inflationary_naive_crash_resume_equals_uninterrupted() {
    col_crash_sweep(
        &col_prog(),
        &path_db(5),
        ColStrategy::Naive,
        false,
        2,
        "col-infl-naive",
    );
}

#[test]
fn datalog_seminaive_crash_resume_equals_uninterrupted() {
    dl_crash_sweep(&dl_tc_neg(), &path_db(8), 2, "dl-semi", |p, d, g, s| {
        p.eval_stratified_seminaive_governed(d, g, s)
    });
}

#[test]
fn datalog_naive_crash_resume_equals_uninterrupted() {
    dl_crash_sweep(&dl_tc_neg(), &path_db(8), 3, "dl-naive", |p, d, g, s| {
        p.eval_stratified_governed(d, g, s)
    });
}

#[test]
fn datalog_inflationary_crash_resume_equals_uninterrupted() {
    dl_crash_sweep(&dl_tc_neg(), &path_db(6), 2, "dl-infl", |p, d, g, s| {
        p.eval_inflationary_governed(d, g, s)
    });
}

/// A wall-clock budget spans the crash: the checkpoint header persists
/// the elapsed time the interrupted run consumed *while live*, and a
/// resumed guard debits the remainder instead of starting a fresh
/// clock. (Downtime between the crash and the resume is free — only run
/// time counts.) The interrupted run here burns 250ms of live wall time
/// before committing, so a resumed 200ms budget is already exhausted.
#[test]
fn wall_budget_spans_resume() {
    use untyped_sets::guard::EngineId;
    let dir = tmpdir("dl-wall");
    let fp = 0xfeed_beef_u64;
    let spec = Spec::new(&dir).with_every(1);
    {
        // the "interrupted" run: unlimited budget, dies after one commit
        let gov = Governor::unlimited().with_ckpt(spec.clone());
        let guard = gov.guard(EngineId::Datalog);
        let mut session = guard.ckpt_session(|| fp).expect("session opens");
        std::thread::sleep(Duration::from_millis(250));
        let stats = EvalStats::default();
        session.commit(&guard.round_ckpt(1, &stats, vec![1, 2, 3]));
        assert!(!session.is_poisoned());
        // dropped without finish(): the directory stays, as after a crash
    }
    // resume under a 200ms budget: the persisted 250ms alone exceeds it
    let gov = Governor::new(Budget::unlimited().with_wall(Duration::from_millis(200)))
        .with_ckpt(spec.clone());
    let mut guard = gov.guard(EngineId::Datalog);
    let mut session = guard.ckpt_session(|| fp).expect("session reopens");
    let rec = session.recover().expect("recovers the committed round");
    assert!(
        rec.elapsed_micros >= 250_000,
        "header must carry the live wall time, got {}µs",
        rec.elapsed_micros
    );
    let mut stats = EvalStats::default();
    guard.adopt_recovery(&rec, &mut stats);
    // the deadline poll is strided, so charge enough ticks to reach one;
    // the guard must trip without this run consuming any real time
    let mut tripped = None;
    for _ in 0..256 {
        if let Err(trip) = guard.step() {
            tripped = Some(trip);
            break;
        }
    }
    let trip = tripped.expect("resumed guard trips the spanned deadline");
    assert_eq!(trip.resource, Resource::Deadline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corruption sweep at the engine level: truncate the WAL at every byte
/// boundary of its last record — recovery must fall back to an earlier
/// durable round (or a snapshot) and still reproduce the reference run.
#[test]
fn datalog_recovers_past_truncated_wal_tails() {
    let prog = dl_tc_neg();
    let db = path_db(8);
    let mut ref_stats = EvalStats::default();
    let reference = prog
        .eval_stratified_seminaive_governed(&db, &Governor::unlimited(), &mut ref_stats)
        .expect("reference run");
    let dir = tmpdir("dl-trunc");
    // crash mid-run to leave a populated checkpoint directory behind
    let gov = Governor::unlimited()
        .with_failpoint(FailPoint::die_at(60))
        .with_ckpt(Spec::new(&dir).with_every(4));
    let _ = prog.eval_stratified_seminaive_governed(&db, &gov, &mut EvalStats::default());
    let engine_dir = dir.join("datalog");
    let wal = std::fs::read_dir(&engine_dir)
        .expect("engine dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .expect("crashed run left a WAL");
    let pristine = std::fs::read(&wal).expect("read WAL");
    assert!(!pristine.is_empty(), "WAL should hold at least one record");
    for keep in 0..pristine.len() {
        // restore the full directory contents, then tear the tail
        std::fs::write(&wal, &pristine[..keep]).expect("truncate WAL");
        let gov = Governor::unlimited().with_ckpt(Spec::new(&dir).with_every(4));
        let mut stats = EvalStats::default();
        let out = prog
            .eval_stratified_seminaive_governed(&db, &gov, &mut stats)
            .expect("resume past torn tail");
        assert_eq!(out, reference, "state diverged with WAL cut at {keep}");
        assert_eq!(stats, ref_stats, "stats diverged with WAL cut at {keep}");
        // the successful resume wiped the directory; re-seed it for the
        // next truncation point
        std::fs::create_dir_all(&engine_dir).expect("recreate engine dir");
        let gov = Governor::unlimited()
            .with_failpoint(FailPoint::die_at(60))
            .with_ckpt(Spec::new(&dir).with_every(4));
        let _ = prog.eval_stratified_seminaive_governed(&db, &gov, &mut EvalStats::default());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one byte in every record of the WAL (one at a time): the CRC
/// must reject the record and recovery must roll back to the last round
/// before it, still reproducing the reference run.
#[test]
fn datalog_rejects_flipped_wal_bytes() {
    let prog = dl_tc_neg();
    let db = path_db(8);
    let reference = prog
        .eval_stratified_seminaive_governed(&db, &Governor::unlimited(), &mut EvalStats::default())
        .expect("reference run");
    let dir = tmpdir("dl-flip");
    let gov = Governor::unlimited()
        .with_failpoint(FailPoint::die_at(60))
        .with_ckpt(Spec::new(&dir).with_every(4));
    let _ = prog.eval_stratified_seminaive_governed(&db, &gov, &mut EvalStats::default());
    let engine_dir = dir.join("datalog");
    let wal = std::fs::read_dir(&engine_dir)
        .expect("engine dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .expect("crashed run left a WAL");
    let pristine = std::fs::read(&wal).expect("read WAL");
    // flip one byte per step so every record gets damaged once
    for at in (0..pristine.len()).step_by(7) {
        let mut bytes = pristine.clone();
        bytes[at] ^= 0x40;
        std::fs::write(&wal, &bytes).expect("corrupt WAL");
        let gov = Governor::unlimited().with_ckpt(Spec::new(&dir).with_every(4));
        let mut stats = EvalStats::default();
        let out = prog
            .eval_stratified_seminaive_governed(&db, &gov, &mut stats)
            .expect("resume past corrupt record");
        assert_eq!(out, reference, "state diverged with byte {at} flipped");
        // re-seed the directory for the next corruption point
        std::fs::create_dir_all(&engine_dir).expect("recreate engine dir");
        let gov = Governor::unlimited()
            .with_failpoint(FailPoint::die_at(60))
            .with_ckpt(Spec::new(&dir).with_every(4));
        let _ = prog.eval_stratified_seminaive_governed(&db, &gov, &mut EvalStats::default());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- BK

/// Sweep a deterministic crash over every tick of a BK run under a
/// checkpoint directory, resuming after each crash; the resumed run must
/// reproduce the uninterrupted `(state, derivations, converged)` triple
/// and stats exactly.
fn bk_crash_sweep(prog: &BkProgram, input: &BkState, cfg: &BkConfig, every: u64, tag: &str) {
    let mut ref_stats = EvalStats::default();
    let reference = eval_rounds_with(prog, input, cfg, &Governor::unlimited(), &mut ref_stats)
        .expect("reference run");
    let dir = tmpdir(tag);
    let mut crashed_at_least_once = false;
    for tick in 1..10_000 {
        let gov = Governor::unlimited()
            .with_failpoint(FailPoint::die_at(tick))
            .with_ckpt(Spec::new(&dir).with_every(every));
        match eval_rounds_with(prog, input, cfg, &gov, &mut EvalStats::default()) {
            Ok(out) => {
                assert_eq!(out, reference);
                assert!(crashed_at_least_once, "sweep never crashed");
                break;
            }
            Err(BkError::Exhausted(report)) => {
                assert_eq!(report.resource(), Resource::Died);
                crashed_at_least_once = true;
            }
        }
        let gov = Governor::unlimited().with_ckpt(Spec::new(&dir).with_every(every));
        let mut stats = EvalStats::default();
        let out =
            eval_rounds_with(prog, input, cfg, &gov, &mut stats).expect("resumed run completes");
        assert_eq!(out, reference, "state diverged after crash at tick {tick}");
        assert_eq!(
            stats, ref_stats,
            "stats diverged after crash at tick {tick}"
        );
        assert!(
            !dir.join("bk").exists(),
            "a completed run must clear its checkpoint directory"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn bk_pair(a: &'static str, x: BkObject, b: &'static str, y: BkObject) -> BkObject {
    BkObject::tuple([(a, x), (b, y)])
}

#[test]
fn bk_join_rule_crash_resume_equals_uninterrupted() {
    let input = state_from([
        (
            "R1",
            vec![bk_pair("A", BkObject::atom(1), "B", BkObject::atom(2))],
        ),
        (
            "R2",
            vec![
                bk_pair("B", BkObject::atom(2), "C", BkObject::atom(3)),
                bk_pair("B", BkObject::atom(4), "C", BkObject::atom(5)),
            ],
        ),
    ]);
    bk_crash_sweep(
        &BkProgram::join_rule(),
        &input,
        &BkConfig::default(),
        2,
        "bk-join",
    );
}

/// The paper's divergent chain program, cut off by `max_rounds`: the run
/// ends *non*-converged, so the resume must also restore the per-run
/// round allowance (`rounds_in_run`), not just the state.
#[test]
fn bk_bounded_chain_crash_resume_equals_uninterrupted() {
    let dollar = BkObject::Atom(untyped_sets::object::Atom::named("ckpt-$"));
    let input = state_from([(
        "S",
        vec![BkObject::tuple([
            ("A", dollar.clone()),
            ("B", BkObject::atom(1)),
        ])],
    )]);
    let cfg = BkConfig {
        max_rounds: 5,
        ..BkConfig::default()
    };
    bk_crash_sweep(
        &BkProgram::chain_to_list(dollar),
        &input,
        &cfg,
        2,
        "bk-chain",
    );
}

// ---------------------------------------------------------- calculus

/// Sweep a deterministic crash over every tick of the fi-invention
/// enumeration; each resumed run must reproduce the uninterrupted union.
#[test]
fn calculus_fi_crash_resume_equals_uninterrupted() {
    let mut db = Database::empty();
    db.set("R", Instance::from_values([atom(1), atom(2)]));
    // the all-atoms query: every invention level re-derives the base
    // answer after stripping, so the union is level-independent and the
    // enumeration runs all the way to the budget
    let q = CalcQuery::new(
        "x",
        untyped_sets::object::RType::Atomic,
        Formula::Eq(CalcTerm::var("x"), CalcTerm::var("x")),
    );
    let cfg = CalcConfig::default();
    let budget = 12;
    let reference =
        eval_fi_governed(&q, &db, budget, &cfg, &Governor::unlimited()).expect("reference run");
    let dir = tmpdir("calc-fi");
    let mut crashed_at_least_once = false;
    for tick in 1..10_000 {
        let gov = Governor::unlimited()
            .with_failpoint(FailPoint::die_at(tick))
            .with_ckpt(Spec::new(&dir).with_every(3));
        match eval_fi_governed(&q, &db, budget, &cfg, &gov) {
            Ok(out) => {
                assert_eq!(out, reference);
                assert!(crashed_at_least_once, "sweep never crashed");
                break;
            }
            Err(err) => {
                let e = err.exhausted().expect("died trip");
                assert_eq!(e.resource(), Resource::Died);
                crashed_at_least_once = true;
            }
        }
        let gov = Governor::unlimited().with_ckpt(Spec::new(&dir).with_every(3));
        let out = eval_fi_governed(&q, &db, budget, &cfg, &gov).expect("resumed run completes");
        assert_eq!(out, reference, "union diverged after crash at tick {tick}");
        assert!(
            !dir.join("calculus").exists(),
            "a completed run must clear its checkpoint directory"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Terminal invention on a query that never invents: the search rules out
/// every level up to the cap and ends `Undefined`; crashes anywhere in
/// the search must resume to the same outcome.
#[test]
fn calculus_terminal_crash_resume_equals_uninterrupted() {
    let mut db = Database::empty();
    db.set("R", Instance::from_values([atom(1)]));
    let q = CalcQuery::new(
        "x",
        untyped_sets::object::RType::Atomic,
        Formula::Pred("R".into(), CalcTerm::var("x")),
    );
    let cfg = CalcConfig::default();
    let cap = 12;
    let reference =
        eval_terminal_governed(&q, &db, cap, &cfg, &Governor::unlimited()).expect("reference run");
    assert_eq!(reference, InventionOutcome::Undefined);
    let dir = tmpdir("calc-ti");
    let mut crashed_at_least_once = false;
    for tick in 1..10_000 {
        let gov = Governor::unlimited()
            .with_failpoint(FailPoint::die_at(tick))
            .with_ckpt(Spec::new(&dir).with_every(4));
        match eval_terminal_governed(&q, &db, cap, &cfg, &gov) {
            Ok(out) => {
                assert_eq!(out, reference);
                assert!(crashed_at_least_once, "sweep never crashed");
                break;
            }
            Err(err) => {
                let e = err.exhausted().expect("died trip");
                assert_eq!(e.resource(), Resource::Died);
                crashed_at_least_once = true;
            }
        }
        let gov = Governor::unlimited().with_ckpt(Spec::new(&dir).with_every(4));
        let out = eval_terminal_governed(&q, &db, cap, &cfg, &gov).expect("resumed run completes");
        assert_eq!(
            out, reference,
            "outcome diverged after crash at tick {tick}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ----------------------------------------------------------- algebra

/// Sweep a deterministic crash over every tick of an algebra `while`
/// program (transitive closure on a path graph); each resumed run must
/// reproduce the uninterrupted answer. Commits land at top-level
/// statement and while-iteration boundaries, so the sweep crosses both.
#[test]
fn algebra_while_crash_resume_equals_uninterrupted() {
    let prog = tc_while_program("R");
    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows((0..9u64).map(|i| [atom(i), atom(i + 1)])),
    );
    let reference =
        eval_program_governed(&prog, &db, &Governor::unlimited()).expect("reference run");
    let dir = tmpdir("alg-tc");
    let mut crashed_at_least_once = false;
    for tick in 1..10_000 {
        let gov = Governor::unlimited()
            .with_failpoint(FailPoint::die_at(tick))
            .with_ckpt(Spec::new(&dir).with_every(3));
        match eval_program_governed(&prog, &db, &gov) {
            Ok(out) => {
                assert_eq!(out, reference);
                assert!(crashed_at_least_once, "sweep never crashed");
                break;
            }
            Err(AlgEvalError::Exhausted(e)) => {
                assert_eq!(e.resource(), Resource::Died);
                crashed_at_least_once = true;
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
        let gov = Governor::unlimited().with_ckpt(Spec::new(&dir).with_every(3));
        let out = eval_program_governed(&prog, &db, &gov).expect("resumed run completes");
        assert_eq!(out, reference, "answer diverged after crash at tick {tick}");
        assert!(
            !dir.join("algebra").exists(),
            "a completed run must clear its checkpoint directory"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// --------------------------------------------------------------- gtm

/// GTM commits once per 1024-step stride, so the sweep uses a long tape
/// (several strides of work) and samples crash ticks rather than
/// visiting all of them; each resumed run must reproduce the
/// uninterrupted halting tape.
#[test]
fn gtm_crash_resume_equals_uninterrupted() {
    let c = untyped_sets::object::Atom::named("ckpt-gtm-c");
    // move right overwriting every domain element with c, halt at blank
    let m = GtmBuilder::new()
        .start("s")
        .halt("h")
        .constants([c])
        .transition(
            "s",
            SymPat::Alpha,
            SymPat::Work("_".into()),
            "s",
            SymOut::Const(c),
            SymOut::Work("_".into()),
            GtmMove::R,
            GtmMove::S,
        )
        .transition(
            "s",
            SymPat::Const(c),
            SymPat::Work("_".into()),
            "s",
            SymOut::Const(c),
            SymOut::Work("_".into()),
            GtmMove::R,
            GtmMove::S,
        )
        .transition(
            "s",
            SymPat::Work("_".into()),
            SymPat::Work("_".into()),
            "h",
            SymOut::Work("_".into()),
            SymOut::Work("_".into()),
            GtmMove::S,
            GtmMove::S,
        )
        .build()
        .expect("valid machine");
    let tape: Vec<TapeSym> = (0..2300u64)
        .map(|i| TapeSym::dom(untyped_sets::object::Atom::new(i)))
        .collect();
    let reference = m
        .run_governed(tape.clone(), &Governor::unlimited())
        .expect("reference run");
    assert!(matches!(reference, RunOutcome::Halted(_)));
    let dir = tmpdir("gtm");
    let mut crashed_at_least_once = false;
    for tick in (1..20_000).step_by(131) {
        let gov = Governor::unlimited()
            .with_failpoint(FailPoint::die_at(tick))
            .with_ckpt(Spec::new(&dir).with_every(1));
        match m.run_governed(tape.clone(), &gov) {
            Ok(out) => {
                assert_eq!(out, reference);
                assert!(crashed_at_least_once, "sweep never crashed");
                break;
            }
            Err(e) => {
                assert_eq!(e.resource(), Resource::Died);
                crashed_at_least_once = true;
            }
        }
        let gov = Governor::unlimited().with_ckpt(Spec::new(&dir).with_every(1));
        let out = m
            .run_governed(tape.clone(), &gov)
            .expect("resumed run completes");
        assert_eq!(
            out, reference,
            "outcome diverged after crash at tick {tick}"
        );
        assert!(
            !dir.join("gtm").exists(),
            "a completed run must clear its checkpoint directory"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every maintenance session under one spec journals to `<dir>/ivm/`, so
/// of two live sessions only the first is journaled — a DATALOG¬ and a
/// COL session alike — and says so; once it finishes, the next session
/// opened owns the journal again.
#[test]
fn concurrent_ivm_sessions_report_which_is_journaled() {
    let dir = tmpdir("ivm-owner");
    let gov = Governor::unlimited().with_ckpt(Spec::new(&dir));
    let db = path_db(6);
    let open_dl = || {
        MaterializedSession::datalog(dl_tc_neg(), &db, Semantics::StratifiedSeminaive, &gov)
            .expect("datalog session")
    };
    let open_col = || {
        let (cfg, strategy) = (ColConfig::default(), ColStrategy::Seminaive);
        MaterializedSession::col(
            col_prog(),
            &db,
            cfg,
            strategy,
            ColSemantics::Stratified,
            &gov,
        )
        .expect("col session")
    };
    let mut first = open_dl();
    let (mut col, mut dl) = (open_col(), open_dl());
    assert!(first.journaled());
    assert!(!col.journaled() && !dl.journaled());
    col.finish();
    dl.finish();
    first.finish();
    let mut next = open_col();
    assert!(next.journaled());
    next.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
