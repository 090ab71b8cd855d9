//! Golden digests of the BK engine's observable bytes.
//!
//! Each completed run below — the paper's Example 5.2 join rule on its
//! witness and on a 12 + 12 instance in both bind modes, and Example
//! 5.4's chain-to-list program cut off at five rounds — runs at widths 1
//! and 4 and is reduced to one FNV-64 digest per observable: the final
//! state, the derivation log, the `converged` flag, the `EvalStats`
//! counters, and the JSONL trace with provenance, its wall-clock fields
//! zeroed. A trip pins only the trip itself and the surrendered state
//! and log: which tick a cancellation lands on, and the counters and
//! events of the tripping round, are the round driver's business. The
//! digests are fixed constants, so a rewrite of BK's round loop can
//! prove it moved none of them.
//!
//! The only named atom is Example 5.4's `$`, so its id — which orders
//! it against other objects — is the same in every process.

use untyped_sets::bk::eval::{
    eval_fixpoint_governed, eval_rounds_with, state_from, BindMode, BkConfig,
};
use untyped_sets::bk::{BkError, BkObject, BkPartial, BkProgram, BkState, Derivation};
use untyped_sets::ckpt::fnv64;
use untyped_sets::guard::{Budget, CkptConfig, Governor};
use untyped_sets::object::{Atom, EvalStats};
use untyped_sets::par::ParConfig;
use untyped_sets::trace::TraceHandle;

const WIDTHS: [usize; 2] = [1, 4];

fn hex(s: &str) -> String {
    format!("{:016x}", fnv64(s.as_bytes()))
}

fn pair(a: &'static str, x: BkObject, b: &'static str, y: BkObject) -> BkObject {
    BkObject::tuple([(a, x), (b, y)])
}

/// The paper's Example 5.2 witness: R1 = {[A:1,B:2]}, R2 = {[B:2,C:3],
/// [B:4,C:5]}.
fn witness() -> BkState {
    let a = BkObject::atom;
    state_from([
        ("R1", vec![pair("A", a(1), "B", a(2))]),
        (
            "R2",
            vec![pair("B", a(2), "C", a(3)), pair("B", a(4), "C", a(5))],
        ),
    ])
}

/// Example 5.2 scaled to `n` + `n` tuples, the shape the `invention`
/// benchmark uses: R1 = {[A:a_i, B:b_i]}, R2 = {[B:b_i, C:c_i]}.
fn scaled(n: u64) -> BkState {
    let a = BkObject::atom;
    state_from([
        (
            "R1",
            (0..n)
                .map(|i| pair("A", a(i), "B", a(100 + i)))
                .collect::<Vec<_>>(),
        ),
        (
            "R2",
            (0..n)
                .map(|i| pair("B", a(100 + i), "C", a(200 + i)))
                .collect::<Vec<_>>(),
        ),
    ])
}

/// Example 5.4's `$`.
fn dollar() -> BkObject {
    BkObject::Atom(Atom::named("$"))
}

/// Example 5.4's chain input `$ → 1 → 2 → 3`.
fn chain() -> BkState {
    let a = BkObject::atom;
    state_from([(
        "S",
        vec![
            pair("A", dollar(), "B", a(1)),
            pair("A", a(1), "B", a(2)),
            pair("A", a(2), "B", a(3)),
        ],
    )])
}

fn governor(workers: usize) -> Governor {
    Governor::unlimited()
        .with_par(ParConfig::workers(workers))
        .with_ckpt_config(CkptConfig::Off)
}

fn render_state(state: &BkState) -> String {
    let mut s = String::new();
    for (pred, extent) in state {
        s.push_str(pred);
        for o in extent {
            s.push_str(&format!(" {o}"));
        }
        s.push('\n');
    }
    s
}

fn render_log(log: &[Derivation]) -> String {
    let mut s = String::new();
    for d in log {
        s.push_str(&format!("{} {}({}) <-", d.rule, d.pred, d.fact));
        for (var, obj) in &d.bindings {
            s.push_str(&format!(" {var}={obj}"));
        }
        s.push('\n');
    }
    s
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

/// One completed `eval_rounds_with` run at one width, digested.
fn completed(
    prog: &BkProgram,
    input: &BkState,
    cfg: &BkConfig,
    workers: usize,
) -> Vec<(String, String)> {
    let mut stats = EvalStats::default();
    let (state, log, converged) =
        eval_rounds_with(prog, input, cfg, &governor(workers), &mut stats)
            .expect("the run completes");
    let (handle, mem) = TraceHandle::mem();
    let traced = governor(workers).with_trace(handle);
    let again = eval_rounds_with(prog, input, cfg, &traced, &mut EvalStats::default())
        .expect("the traced run completes");
    assert_eq!(again, (state.clone(), log.clone(), converged));
    assert_eq!(mem.dropped(), 0, "trace ring overflowed");
    let trace: String = mem
        .events()
        .iter()
        .map(|e| scrub_wall(&e.to_json()) + "\n")
        .collect();
    assert!(trace.contains("\"derivation\""), "provenance is traced");
    vec![
        ("state".into(), hex(&render_state(&state))),
        ("log".into(), hex(&render_log(&log))),
        ("converged".into(), converged.to_string()),
        ("stats".into(), stats.to_string()),
        ("trace".into(), hex(&trace)),
    ]
}

/// A tripped run from `input`, digested to its trip and surrendered
/// state and log. The tripping round commits nothing, so every
/// surrendered fact is an input fact or a logged derivation.
fn tripped(
    input: &BkState,
    result: Result<impl std::fmt::Debug, BkError>,
) -> Vec<(String, String)> {
    let err = result.expect_err("the run trips");
    let ex = err.exhausted();
    let BkPartial { state, derivations } = &ex.partial;
    for (pred, extent) in state {
        for o in extent {
            let given = input.get(pred).is_some_and(|e| e.contains(o));
            let logged = derivations.iter().any(|d| &d.pred == pred && &d.fact == o);
            assert!(given || logged, "{pred}({o}) surrendered but never derived");
        }
    }
    vec![
        ("trip".into(), format!("{:?}", ex.trip)),
        ("state".into(), hex(&render_state(state))),
        ("log".into(), hex(&render_log(derivations))),
    ]
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

fn mode_cfg(bind_mode: BindMode) -> BkConfig {
    BkConfig {
        bind_mode,
        ..BkConfig::default()
    }
}

#[test]
fn completed_runs_are_pinned() {
    let join = BkProgram::join_rule();
    let mut rows = Vec::new();
    for (label, input) in [("witness", witness()), ("12x12", scaled(12))] {
        for mode in [BindMode::Principal, BindMode::Exhaustive] {
            for w in WIDTHS {
                let name = format!("ex52-{label}-{mode:?}-w{w}");
                rows.push((name, completed(&join, &input, &mode_cfg(mode), w)));
            }
        }
    }
    let capped = BkConfig {
        max_rounds: 5,
        ..BkConfig::default()
    };
    let list = BkProgram::chain_to_list(dollar());
    for w in WIDTHS {
        rows.push((
            format!("ex54-cap5-w{w}"),
            completed(&list, &chain(), &capped, w),
        ));
    }
    check(rows, COMPLETED);
}

#[test]
fn trips_pin_the_surrendered_state() {
    let list = BkProgram::chain_to_list(dollar());
    let join = BkProgram::join_rule();
    let mut rows = Vec::new();
    for w in WIDTHS {
        // a facts budget Example 5.4 overruns mid-round
        let cfg = BkConfig {
            max_rounds: 100,
            max_facts: 12,
            ..BkConfig::default()
        };
        let gov = Governor::new(cfg.budget()).with_par(ParConfig::workers(w));
        let mut stats = EvalStats::default();
        let run = eval_rounds_with(&list, &chain(), &cfg, &gov, &mut stats);
        rows.push((format!("ex54-facts-w{w}"), tripped(&chain(), run)));

        // an exhaustive enumeration past the structural cap
        let cfg = BkConfig {
            max_subobjects: 1,
            ..mode_cfg(BindMode::Exhaustive)
        };
        let run = eval_rounds_with(&join, &scaled(12), &cfg, &governor(w), &mut stats);
        rows.push((format!("ex52-12x12-floor-w{w}"), tripped(&scaled(12), run)));

        // running out of rounds is a steps trip for `eval_fixpoint`
        let cfg = BkConfig {
            max_rounds: 5,
            ..BkConfig::default()
        };
        let gov = Governor::new(Budget::unlimited()).with_par(ParConfig::workers(w));
        let run = eval_fixpoint_governed(&list, &chain(), &cfg, &gov);
        rows.push((format!("ex54-cap5-fixpoint-w{w}"), tripped(&chain(), run)));
    }
    check(rows, TRIPS);
}

const COMPLETED: &[(&str, &str, &str)] = &[
    ("ex52-witness-Principal-w1", "state", "613fd246c0ff6cc9"),
    ("ex52-witness-Principal-w1", "log", "09cd4b792365659f"),
    ("ex52-witness-Principal-w1", "converged", "true"),
    (
        "ex52-witness-Principal-w1",
        "stats",
        "rounds=2 rules_fired=2 tuples_derived=20 index_probes=0 scan_fallbacks=0 peak_facts=9",
    ),
    ("ex52-witness-Principal-w1", "trace", "9279db15a688dc04"),
    ("ex52-witness-Principal-w4", "state", "613fd246c0ff6cc9"),
    ("ex52-witness-Principal-w4", "log", "09cd4b792365659f"),
    ("ex52-witness-Principal-w4", "converged", "true"),
    (
        "ex52-witness-Principal-w4",
        "stats",
        "rounds=2 rules_fired=2 tuples_derived=20 index_probes=0 scan_fallbacks=0 peak_facts=9",
    ),
    ("ex52-witness-Principal-w4", "trace", "9279db15a688dc04"),
    ("ex52-witness-Exhaustive-w1", "state", "613fd246c0ff6cc9"),
    ("ex52-witness-Exhaustive-w1", "log", "09cd4b792365659f"),
    ("ex52-witness-Exhaustive-w1", "converged", "true"),
    (
        "ex52-witness-Exhaustive-w1",
        "stats",
        "rounds=2 rules_fired=2 tuples_derived=20 index_probes=0 scan_fallbacks=0 peak_facts=9",
    ),
    ("ex52-witness-Exhaustive-w1", "trace", "14ba6577ca12e708"),
    ("ex52-witness-Exhaustive-w4", "state", "613fd246c0ff6cc9"),
    ("ex52-witness-Exhaustive-w4", "log", "09cd4b792365659f"),
    ("ex52-witness-Exhaustive-w4", "converged", "true"),
    (
        "ex52-witness-Exhaustive-w4",
        "stats",
        "rounds=2 rules_fired=2 tuples_derived=20 index_probes=0 scan_fallbacks=0 peak_facts=9",
    ),
    ("ex52-witness-Exhaustive-w4", "trace", "14ba6577ca12e708"),
    ("ex52-12x12-Principal-w1", "state", "06ebf5480957d77a"),
    ("ex52-12x12-Principal-w1", "log", "730da92e6f8d23ed"),
    ("ex52-12x12-Principal-w1", "converged", "true"),
    (
        "ex52-12x12-Principal-w1",
        "stats",
        "rounds=2 rules_fired=2 tuples_derived=434 index_probes=0 scan_fallbacks=0 peak_facts=193",
    ),
    ("ex52-12x12-Principal-w1", "trace", "5e617095e2758a8a"),
    ("ex52-12x12-Principal-w4", "state", "06ebf5480957d77a"),
    ("ex52-12x12-Principal-w4", "log", "730da92e6f8d23ed"),
    ("ex52-12x12-Principal-w4", "converged", "true"),
    (
        "ex52-12x12-Principal-w4",
        "stats",
        "rounds=2 rules_fired=2 tuples_derived=434 index_probes=0 scan_fallbacks=0 peak_facts=193",
    ),
    ("ex52-12x12-Principal-w4", "trace", "5e617095e2758a8a"),
    ("ex52-12x12-Exhaustive-w1", "state", "06ebf5480957d77a"),
    ("ex52-12x12-Exhaustive-w1", "log", "730da92e6f8d23ed"),
    ("ex52-12x12-Exhaustive-w1", "converged", "true"),
    (
        "ex52-12x12-Exhaustive-w1",
        "stats",
        "rounds=2 rules_fired=2 tuples_derived=434 index_probes=0 scan_fallbacks=0 peak_facts=193",
    ),
    ("ex52-12x12-Exhaustive-w1", "trace", "3547ebc68ac73a36"),
    ("ex52-12x12-Exhaustive-w4", "state", "06ebf5480957d77a"),
    ("ex52-12x12-Exhaustive-w4", "log", "730da92e6f8d23ed"),
    ("ex52-12x12-Exhaustive-w4", "converged", "true"),
    (
        "ex52-12x12-Exhaustive-w4",
        "stats",
        "rounds=2 rules_fired=2 tuples_derived=434 index_probes=0 scan_fallbacks=0 peak_facts=193",
    ),
    ("ex52-12x12-Exhaustive-w4", "trace", "3547ebc68ac73a36"),
    ("ex54-cap5-w1", "state", "e49ce435cbeea611"),
    ("ex54-cap5-w1", "log", "21ac1f7dac472253"),
    ("ex54-cap5-w1", "converged", "false"),
    (
        "ex54-cap5-w1",
        "stats",
        "rounds=5 rules_fired=10 tuples_derived=412 index_probes=0 scan_fallbacks=0 peak_facts=247",
    ),
    ("ex54-cap5-w1", "trace", "75294fcecfeae27d"),
    ("ex54-cap5-w4", "state", "e49ce435cbeea611"),
    ("ex54-cap5-w4", "log", "21ac1f7dac472253"),
    ("ex54-cap5-w4", "converged", "false"),
    (
        "ex54-cap5-w4",
        "stats",
        "rounds=5 rules_fired=10 tuples_derived=412 index_probes=0 scan_fallbacks=0 peak_facts=247",
    ),
    ("ex54-cap5-w4", "trace", "75294fcecfeae27d"),
];

const TRIPS: &[(&str, &str, &str)] = &[
    (
        "ex54-facts-w1",
        "trip",
        "Trip { engine: Bk, resource: Facts, consumed: 13, limit: 12 }",
    ),
    ("ex54-facts-w1", "state", "80832ad9a29742db"),
    ("ex54-facts-w1", "log", "d312306d32c1f301"),
    (
        "ex52-12x12-floor-w1",
        "trip",
        "Trip { engine: Bk, resource: ValueSize, consumed: 2, limit: 1 }",
    ),
    ("ex52-12x12-floor-w1", "state", "68aaf758e940a890"),
    ("ex52-12x12-floor-w1", "log", "cbf29ce484222325"),
    (
        "ex54-cap5-fixpoint-w1",
        "trip",
        "Trip { engine: Bk, resource: Steps, consumed: 5, limit: 5 }",
    ),
    ("ex54-cap5-fixpoint-w1", "state", "e49ce435cbeea611"),
    ("ex54-cap5-fixpoint-w1", "log", "21ac1f7dac472253"),
    (
        "ex54-facts-w4",
        "trip",
        "Trip { engine: Bk, resource: Facts, consumed: 13, limit: 12 }",
    ),
    ("ex54-facts-w4", "state", "80832ad9a29742db"),
    ("ex54-facts-w4", "log", "d312306d32c1f301"),
    (
        "ex52-12x12-floor-w4",
        "trip",
        "Trip { engine: Bk, resource: ValueSize, consumed: 2, limit: 1 }",
    ),
    ("ex52-12x12-floor-w4", "state", "68aaf758e940a890"),
    ("ex52-12x12-floor-w4", "log", "cbf29ce484222325"),
    (
        "ex54-cap5-fixpoint-w4",
        "trip",
        "Trip { engine: Bk, resource: Steps, consumed: 5, limit: 5 }",
    ),
    ("ex54-cap5-fixpoint-w4", "state", "e49ce435cbeea611"),
    ("ex54-cap5-fixpoint-w4", "log", "21ac1f7dac472253"),
];
