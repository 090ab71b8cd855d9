//! Ablation benches for the design choices DESIGN.md §7 calls out:
//!
//! * naive vs semi-naive stratified DATALOG fixpoints (the evaluator
//!   design choice; identical results, different polynomial);
//! * naive vs semi-naive COL fixpoints (same ablation one level up, where
//!   deltas cover data-function membership as well as predicates) — work
//!   counters for one representative size are printed once so the timing
//!   numbers can be read against tuples actually derived;
//! * optimizer on/off for the Theorem 4.1(b) compiled programs (the gated
//!   mechanical code cleans up — measure the evaluation win);
//! * ordinal-chain (von Neumann, doubling size) vs singleton-nesting
//!   chain (linear size) — the index-supply representation choice that
//!   keeps the GTM simulation polynomial;
//! * analysis-driven optimizer (`uset-opt`) off vs on — dead/duplicate
//!   rule chaff stripped before evaluation, and the goal-directed
//!   magic-set query path against full-evaluate-then-filter (states
//!   asserted identical, derived tuples asserted at least halved);
//! * guard overhead — the same COL semi-naive fixpoint under an unlimited
//!   governor vs a fully budgeted one (steps + facts + value size + wall
//!   deadline); the governance layer must cost <5% on the hot loop;
//! * parallel speedup — the identical fixpoint at 1 vs N workers
//!   (`uset-par` round fan-out); states and `EvalStats` work counts are
//!   asserted bit-identical across widths before timing, so the only
//!   thing the width may move is wall-clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uset_algebra::opt::optimize;
use uset_algebra::{eval_program, EvalConfig};
use uset_bench::path_graph;
use uset_core::gtm_to_alg::{compile_gtm, prepare_gtm_input};
use uset_deductive::col::ast::{ColLiteral, ColProgram, ColRule, ColTerm};
use uset_deductive::col::eval::{stratified_governed, stratified_with, ColConfig, ColStrategy};
use uset_deductive::datalog::{DatalogProgram, DlAtom, DlRule, DlTerm};
use uset_gtm::machines::swap_pairs_gtm;
use uset_guard::ckpt::Spec;
use uset_guard::{Budget, CkptConfig, Governor};
use uset_object::cons::{ordinal_chain, singleton_chain};
use uset_object::EvalStats;
use uset_object::{atom, Atom, Database, Instance, Schema, Value};
use uset_trace::TraceHandle;

fn tc_datalog() -> DatalogProgram {
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
    ])
}

fn bench_naive_vs_seminaive(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/naive_vs_seminaive");
    let prog = tc_datalog();
    for n in [8u64, 16, 24] {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| black_box(prog.eval_stratified(&db, 1_000_000).unwrap().get("T").len()))
        });
        group.bench_with_input(BenchmarkId::new("seminaive", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    prog.eval_stratified_seminaive(&db, 1_000_000)
                        .unwrap()
                        .get("T")
                        .len(),
                )
            })
        });
    }
    group.finish();
}

fn tc_col() -> ColProgram {
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
    ])
}

fn bench_col_naive_vs_seminaive(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/col_naive_vs_seminaive");
    let prog = tc_col();
    let cfg = ColConfig::default();
    for n in [16u64, 32, 64] {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        if n == 64 {
            // one-off work counters so the timings can be read against
            // tuples actually derived
            let mut naive = EvalStats::default();
            let mut semi = EvalStats::default();
            stratified_with(&prog, &db, &cfg, ColStrategy::Naive, &mut naive).unwrap();
            stratified_with(&prog, &db, &cfg, ColStrategy::Seminaive, &mut semi).unwrap();
            println!("col tc path-{n} naive:     {naive}");
            println!("col tc path-{n} seminaive: {semi}");
        }
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    stratified_with(
                        &prog,
                        &db,
                        &cfg,
                        ColStrategy::Naive,
                        &mut EvalStats::default(),
                    )
                    .unwrap()
                    .pred("T")
                    .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("seminaive", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    stratified_with(
                        &prog,
                        &db,
                        &cfg,
                        ColStrategy::Seminaive,
                        &mut EvalStats::default(),
                    )
                    .unwrap()
                    .pred("T")
                    .len(),
                )
            })
        });
    }
    group.finish();
}

fn bench_guard_overhead(c: &mut Criterion) {
    // the cost of resource governance itself: the identical COL semi-naive
    // TC fixpoint under an unlimited governor (checks compare against
    // infinity) vs one enforcing every budget axis, none of which trips
    let mut group = c.benchmark_group("ablation/guard_overhead");
    let prog = tc_col();
    let cfg = ColConfig::default();
    let unguarded = Governor::unlimited();
    let budgeted = Governor::new(
        Budget::unlimited()
            .with_steps(1_000_000)
            .with_facts(1_000_000)
            .with_value_size(1_000_000)
            .with_wall(std::time::Duration::from_secs(3600)),
    );
    for n in [32u64, 64] {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        for (label, governor) in [("unguarded", &unguarded), ("budgeted", &budgeted)] {
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    black_box(
                        stratified_governed(
                            &prog,
                            &db,
                            &cfg,
                            ColStrategy::Seminaive,
                            governor,
                            &mut EvalStats::default(),
                        )
                        .unwrap()
                        .pred("T")
                        .len(),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_trace_overhead(c: &mut Criterion) {
    // the cost of the tracing hooks when no tracer is attached: the
    // identical COL semi-naive TC fixpoint under a governor with tracing
    // off (every emit closure is skipped before being built) vs an
    // in-memory ring collector with full per-fact provenance; the
    // disabled case must cost <3% over the never-instrumented baseline
    // measured by ablation/guard_overhead/unguarded
    let mut group = c.benchmark_group("ablation/trace_overhead");
    let prog = tc_col();
    let cfg = ColConfig::default();
    assert!(!Governor::unlimited().trace.enabled());
    for n in [32u64, 64] {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        for enabled in [false, true] {
            let label = if enabled { "mem" } else { "disabled" };
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    // a fresh ring per iteration so the collector never
                    // carries state between runs
                    let governor = if enabled {
                        Governor::unlimited().with_trace(TraceHandle::mem().0)
                    } else {
                        Governor::unlimited()
                    };
                    black_box(
                        stratified_governed(
                            &prog,
                            &db,
                            &cfg,
                            ColStrategy::Seminaive,
                            &governor,
                            &mut EvalStats::default(),
                        )
                        .unwrap()
                        .pred("T")
                        .len(),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_ckpt_overhead(c: &mut Criterion) {
    // the cost of durable checkpointing: the identical DATALOG¬
    // semi-naive TC fixpoint with the knob off vs committing a snapshot
    // every 16 rounds (WAL deltas in between) into a temp directory; the
    // acceptance bar is <10% at every=16 on the path-64 closure
    let mut group = c.benchmark_group("ablation/ckpt_overhead");
    let prog = tc_datalog();
    let dir = std::env::temp_dir().join("uset-ckpt-bench");
    for n in [64u64] {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
        );
        for every in [0u64, 16] {
            let label = if every == 0 {
                "off".to_string()
            } else {
                format!("every{every}")
            };
            let ckpt = if every == 0 {
                CkptConfig::Off
            } else {
                CkptConfig::Spec(Spec::new(&dir).with_every(every))
            };
            group.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| {
                    let governor = Governor::unlimited().with_ckpt_config(ckpt.clone());
                    black_box(
                        prog.eval_stratified_seminaive_governed(
                            &db,
                            &governor,
                            &mut EvalStats::default(),
                        )
                        .unwrap()
                        .get("T")
                        .len(),
                    )
                })
            });
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

/// A set-heavy COL program: TC plus reachability *sets* built by a
/// data-function membership head, plus tuples materializing those sets as
/// values. Each round's phase 1 is dominated by set-valued work — the COL
/// analogue of the powerset stress, kept finite by the path topology.
fn setheavy_col() -> ColProgram {
    let v = ColTerm::var;
    let mut rules = tc_col().rules;
    rules.push(ColRule::func_member(
        "F",
        vec![v("x")],
        v("y"),
        vec![ColLiteral::pred("T", vec![v("x"), v("y")])],
    ));
    rules.push(ColRule::pred(
        "P",
        vec![ColTerm::Tuple(vec![
            v("x"),
            ColTerm::Apply("F".into(), vec![v("x")]),
        ])],
        vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
    ));
    ColProgram::new(rules)
}

/// Parallel fixpoint ablation: wall-clock at widths 1/2/4/8 over
/// *verified-identical* work (the one-off asserts below fail the whole
/// bench if any width changes the final state or the `EvalStats`
/// counters). Interpreting the numbers requires the printed core count:
/// speedup is bounded by `min(workers, cores)` and by how fat each
/// round's delta is — path graphs maximize round *count* (good for the
/// parity check) at the cost of per-round width, so on few-core hosts
/// the per-round fan-out cost can fully absorb the gain.
fn bench_par_speedup(c: &mut Criterion) {
    use uset_par::ParConfig;
    let mut group = c.benchmark_group("ablation/par_speedup");
    group.sample_size(10);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("par_speedup host parallelism: {cores} core(s)");

    // path-256 transitive closure, DATALOG¬ semi-naive rounds
    let prog = tc_datalog();
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows((0..255u64).map(|i| [atom(i), atom(i + 1)])),
    );
    // one-off: widths must not change the state or the work counters —
    // the bench compares wall-clock for *identical* work
    let mut seq_stats = EvalStats::default();
    let seq = prog
        .eval_stratified_seminaive_governed(&db, &Governor::unlimited(), &mut seq_stats)
        .unwrap();
    for verify_width in [2usize, 4] {
        let gov = Governor::unlimited().with_par(ParConfig::workers(verify_width));
        let mut stats = EvalStats::default();
        let par = prog
            .eval_stratified_seminaive_governed(&db, &gov, &mut stats)
            .unwrap();
        assert_eq!(par, seq, "state differs at width {verify_width}");
        assert_eq!(
            stats, seq_stats,
            "work counters differ at width {verify_width}"
        );
    }
    println!("datalog tc path-256 work (any width): {seq_stats}");
    for workers in [1usize, 2, 4, 8] {
        let governor = Governor::unlimited().with_par(ParConfig::workers(workers));
        group.bench_with_input(
            BenchmarkId::new("datalog_tc_path256", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    black_box(
                        prog.eval_stratified_seminaive_governed(
                            &db,
                            &governor,
                            &mut EvalStats::default(),
                        )
                        .unwrap()
                        .get("T")
                        .len(),
                    )
                })
            },
        );
    }

    // set-heavy COL fixpoint (reachability sets via data functions)
    let col_prog = setheavy_col();
    let col_cfg = ColConfig::default();
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows((0..95u64).map(|i| [atom(i), atom(i + 1)])),
    );
    let mut seq_stats = EvalStats::default();
    let seq = stratified_governed(
        &col_prog,
        &db,
        &col_cfg,
        ColStrategy::Seminaive,
        &Governor::unlimited(),
        &mut seq_stats,
    )
    .unwrap();
    {
        let gov = Governor::unlimited().with_par(ParConfig::workers(4));
        let mut stats = EvalStats::default();
        let par = stratified_governed(
            &col_prog,
            &db,
            &col_cfg,
            ColStrategy::Seminaive,
            &gov,
            &mut stats,
        )
        .unwrap();
        assert_eq!(par, seq, "col state differs at width 4");
        assert_eq!(stats, seq_stats, "col work counters differ at width 4");
    }
    println!("col set-heavy path-96 work (any width): {seq_stats}");
    for workers in [1usize, 2, 4, 8] {
        let governor = Governor::unlimited().with_par(ParConfig::workers(workers));
        group.bench_with_input(
            BenchmarkId::new("col_setheavy_path96", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    black_box(
                        stratified_governed(
                            &col_prog,
                            &db,
                            &col_cfg,
                            ColStrategy::Seminaive,
                            &governor,
                            &mut EvalStats::default(),
                        )
                        .unwrap()
                        .pred("T")
                        .len(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_optimizer_on_compiled_program(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/optimizer");
    group.sample_size(10);
    let m = swap_pairs_gtm();
    let raw = compile_gtm(&m);
    let optimized = optimize(&raw);
    let schema = Schema::flat([("R", 2)]);
    let mut db = Database::empty();
    db.set(
        "R",
        Instance::from_rows([[atom(1), atom(2)], [atom(3), atom(4)]]),
    );
    let input = prepare_gtm_input(&db, &schema, None).unwrap();
    let cfg = EvalConfig {
        fuel: 100_000_000,
        max_instance_len: 1_000_000,
    };
    group.bench_function("raw", |b| {
        b.iter(|| black_box(eval_program(&raw, &input, &cfg).unwrap().len()))
    });
    group.bench_function("optimized", |b| {
        b.iter(|| black_box(eval_program(&optimized, &input, &cfg).unwrap().len()))
    });
    group.finish();
}

/// Analysis-driven optimizer ablation (`uset-opt`, DESIGN.md §12): the
/// same DATALOG¬ fixpoint with `USET_OPT` off vs on, on a program
/// carrying the chaff the optimizer exists to strip (an α-equivalent
/// duplicate of the recursive rule and a rule over a provably empty
/// relation), plus the goal-directed magic-set path against
/// full-evaluate-then-filter. One-off asserts pin the contract before
/// timing: identical final states, and the magic query deriving at most
/// half the tuples of the full evaluation — the numbers EXPERIMENTS.md
/// reports.
fn bench_opt_speedup(c: &mut Criterion) {
    use uset_guard::OptConfig;
    use uset_opt::{eval_stratified_seminaive, query_datalog, Goal};
    let mut group = c.benchmark_group("ablation/opt_speedup");
    group.sample_size(10);

    // chaff program: TC + α-duplicate recursive rule + dead rule
    let v = DlTerm::var;
    let mut rules = tc_datalog().rules;
    rules.push(DlRule::new(
        DlAtom::new("T", vec![v("p"), v("q")]),
        vec![
            (true, DlAtom::new("E", vec![v("p"), v("r")])),
            (true, DlAtom::new("T", vec![v("r"), v("q")])),
        ],
    ));
    rules.push(DlRule::new(
        DlAtom::new("Dead", vec![v("x")]),
        vec![
            (true, DlAtom::new("T", vec![v("x"), v("y")])),
            (true, DlAtom::new("Never", vec![v("y")])),
        ],
    ));
    let chaff = DatalogProgram::new(rules);
    let off = Governor::unlimited().with_opt(OptConfig::Off);
    let on = Governor::unlimited().with_opt(OptConfig::On);
    for n in [32u64, 64] {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n).map(|i| [atom(i), atom(i + 1)])),
        );
        // one-off: the knob must not change the state, only the work
        let mut s_off = EvalStats::default();
        let mut s_on = EvalStats::default();
        let r_off = eval_stratified_seminaive(&chaff, &db, &off, &mut s_off).unwrap();
        let r_on = eval_stratified_seminaive(&chaff, &db, &on, &mut s_on).unwrap();
        assert_eq!(r_off, r_on, "USET_OPT changed the final state");
        assert!(s_on.tuples_derived <= s_off.tuples_derived);
        if n == 64 {
            println!("datalog tc+chaff path-{n} USET_OPT=off: {s_off}");
            println!("datalog tc+chaff path-{n} USET_OPT=on:  {s_on}");
        }
        for (label, governor) in [("unopt", &off), ("opt", &on)] {
            group.bench_with_input(BenchmarkId::new(format!("chaff_{label}"), n), &n, |b, _| {
                b.iter(|| {
                    black_box(
                        eval_stratified_seminaive(&chaff, &db, governor, &mut EvalStats::default())
                            .unwrap()
                            .get("T")
                            .len(),
                    )
                })
            });
        }
    }

    // goal-directed: "who reaches the last node" on a path — the bound
    // second argument lets the magic transformation restrict derivation
    // to the single relevant column
    let prog = tc_datalog();
    for n in [64u64, 128] {
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_rows((0..n).map(|i| [atom(i), atom(i + 1)])),
        );
        let goal = Goal::new("T", vec![None, Some(Value::Atom(Atom::new(n)))]);
        let unlimited = Governor::unlimited();
        // one-off: same rows, at most half the derived tuples
        let mut full_stats = EvalStats::default();
        let full = prog
            .eval_stratified_seminaive_governed(&db, &unlimited, &mut full_stats)
            .unwrap();
        let mut magic_stats = EvalStats::default();
        let answer = query_datalog(&prog, &db, &goal, &unlimited, &mut magic_stats).unwrap();
        assert_eq!(answer.len() as u64, n, "goal answer row count");
        assert!(
            magic_stats.tuples_derived * 2 <= full_stats.tuples_derived,
            "magic must at least halve derived tuples: {} vs {}",
            magic_stats.tuples_derived,
            full_stats.tuples_derived
        );
        if n == 128 {
            println!("datalog tc path-{n} full eval:   {full_stats}");
            println!("datalog tc path-{n} magic query: {magic_stats}");
            println!(
                "magic derived-tuple reduction: {:.1}x",
                full_stats.tuples_derived as f64 / magic_stats.tuples_derived.max(1) as f64
            );
        }
        group.bench_with_input(BenchmarkId::new("full_eval_filter", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    prog.eval_stratified_seminaive_governed(
                        &db,
                        &unlimited,
                        &mut EvalStats::default(),
                    )
                    .unwrap()
                    .get("T")
                    .len(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("magic_query", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    query_datalog(&prog, &db, &goal, &unlimited, &mut EvalStats::default())
                        .unwrap()
                        .len(),
                )
            })
        });
        let _ = full;
    }
    group.finish();
}

/// Incremental view maintenance ablation (`uset-ivm`, DESIGN.md §14): a
/// long-lived [`uset_ivm::DatalogSession`] absorbing a 1-edge retraction
/// (then the matching re-insertion, so the session is steady across
/// iterations) vs from-scratch re-evaluation after each delta, on the
/// path-128 transitive closure. One-off asserts pin the contract before
/// timing: the maintained state is bit-identical to recomputing on the
/// updated EDB, and maintenance derives at least 5× fewer tuples than
/// the from-scratch engine — the numbers EXPERIMENTS.md reports.
fn bench_ivm_speedup(c: &mut Criterion) {
    use uset_ivm::{DatalogSession, DeltaBatch, IvmMode, Semantics};
    let mut group = c.benchmark_group("ablation/ivm_speedup");
    group.sample_size(10);
    let prog = tc_datalog();
    let n = 128u64;
    let mut db = Database::empty();
    db.set(
        "E",
        Instance::from_rows((0..n - 1).map(|i| [atom(i), atom(i + 1)])),
    );
    let tail = Value::Tuple(vec![atom(n - 2), atom(n - 1)]);
    let retract = DeltaBatch::new().retract("E", tail.clone());
    let insert = DeltaBatch::new().insert("E", tail.clone());
    let gov = Governor::unlimited();

    // one-off: maintained ≡ recomputed, at ≥5× fewer derived tuples
    let mut sess = DatalogSession::with_mode(
        prog.clone(),
        &db,
        Semantics::StratifiedSeminaive,
        &gov,
        IvmMode::Auto,
    )
    .unwrap();
    let maintain = sess.apply(&retract).unwrap();
    assert!(!maintain.fallback, "path TC must maintain incrementally");
    let mut recompute_stats = EvalStats::default();
    let fresh =
        uset_opt::eval_stratified_seminaive(&prog, sess.edb(), &gov, &mut recompute_stats).unwrap();
    assert_eq!(
        sess.state(),
        &fresh,
        "maintained state differs from recompute"
    );
    println!("ivm tc path-{n} retract-1 maintain:  {}", maintain.stats);
    println!("ivm tc path-{n} retract-1 recompute: {recompute_stats}");
    println!(
        "ivm derived-tuple reduction: {:.1}x",
        recompute_stats.tuples_derived as f64 / maintain.stats.tuples_derived.max(1) as f64
    );
    assert!(
        maintain.stats.tuples_derived * 5 <= recompute_stats.tuples_derived,
        "maintenance must derive at least 5x fewer tuples: {} vs {}",
        maintain.stats.tuples_derived,
        recompute_stats.tuples_derived
    );
    sess.apply(&insert).unwrap();

    // timing: one retract+insert round-trip per iteration, session vs
    // two from-scratch evaluations (one per delta, as a recompute-only
    // engine would pay)
    group.bench_function("maintain_path128", |b| {
        b.iter(|| {
            sess.apply(&retract).unwrap();
            black_box(sess.apply(&insert).unwrap().idb_added)
        })
    });
    let mut db_short = db.clone();
    db_short.remove_row("E", &tail);
    group.bench_function("recompute_path128", |b| {
        b.iter(|| {
            let short = uset_opt::eval_stratified_seminaive(
                &prog,
                &db_short,
                &gov,
                &mut EvalStats::default(),
            )
            .unwrap();
            let full =
                uset_opt::eval_stratified_seminaive(&prog, &db, &gov, &mut EvalStats::default())
                    .unwrap();
            black_box(short.get("T").len() + full.get("T").len())
        })
    });
    group.finish();
}

fn bench_chain_representations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/chain_representation");
    for len in [8usize, 12, 16] {
        group.bench_with_input(BenchmarkId::new("von_neumann", len), &len, |b, &l| {
            b.iter(|| black_box(ordinal_chain(Atom::new(0), l).last().unwrap().size()))
        });
        group.bench_with_input(BenchmarkId::new("singleton", len), &len, |b, &l| {
            b.iter(|| black_box(singleton_chain(Atom::new(0), l).last().unwrap().size()))
        });
    }
    group.finish();
}

fn bench_while_flattening_overhead(c: &mut Criterion) {
    // the Theorem 4.1(b)(iii) transformation is semantics-preserving but
    // pays a constant interpretive factor per gated statement — measure it
    let mut group = c.benchmark_group("ablation/while_flattening");
    let nested = uset_algebra::derived::tc_while_program("R");
    let flat = uset_algebra::flatten_while::flatten_to_single_while(&nested).unwrap();
    let cfg = EvalConfig::default();
    for n in [6u64, 12] {
        let db = path_graph(n);
        group.bench_with_input(BenchmarkId::new("nested_form", n), &n, |b, _| {
            b.iter(|| black_box(eval_program(&nested, &db, &cfg).unwrap().len()))
        });
        group.bench_with_input(BenchmarkId::new("flattened_form", n), &n, |b, _| {
            b.iter(|| black_box(eval_program(&flat, &db, &cfg).unwrap().len()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_naive_vs_seminaive,
    bench_col_naive_vs_seminaive,
    bench_guard_overhead,
    bench_trace_overhead,
    bench_ckpt_overhead,
    bench_par_speedup,
    bench_optimizer_on_compiled_program,
    bench_opt_speedup,
    bench_ivm_speedup,
    bench_chain_representations,
    bench_while_flattening_overhead
);
criterion_main!(benches);
