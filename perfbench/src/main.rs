//! One workload of the benchmark, run in this process.
//!
//! ```text
//! perfbench --workload <fixpoint|view-churn|invention> --seed <n>
//!           --seconds <s> --trace <0|1> --state-dir <dir> [--setup-only]
//! ```
//!
//! Prints a `settings` line and, as the last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. With `--setup-only`
//! it stops after warm-up and prints only `{"setup_s": …}`. `perfbench/run.py`
//! builds this binary and runs each workload in fresh processes.

mod calib;
mod churn;
mod fixpoint;
mod harness;
mod invention;
mod reference;
mod rng;
mod spans;
mod stats;

use harness::{Metrics, Outcome, RunCfg};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use uset_guard::{Budget, CkptConfig, Governor, OptConfig};
use uset_object::intern;
use uset_par::ParConfig;

/// Per-layer metrics, with units, reported by every traced run. A layer
/// the workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("deductive.datalog_ms", "ms"),
    ("deductive.col_ms", "ms"),
    ("deductive.tuples_derived", "count"),
    ("deductive.rounds", "count"),
    ("deductive.index_probes", "count"),
    ("deductive.scan_fallbacks", "count"),
    ("deductive.useful_ratio", "ratio"),
    ("opt.goal_ms", "ms"),
    ("opt.goal_tuples_derived", "count"),
    ("opt.goal_vs_full", "ratio"),
    ("ivm.materialize_s", "s"),
    ("ivm.tuples_derived", "count"),
    ("ivm.idb_changed", "count"),
    ("ivm.useful_ratio", "ratio"),
    ("ivm.fallbacks", "count"),
    ("ivm.vs_recompute", "ratio"),
    ("ckpt.bytes_per_batch", "bytes"),
    ("object.intern_hits", "count"),
    ("object.objects_interned", "count"),
    ("object.hit_ratio", "ratio"),
    ("object.cold_objects_interned", "count"),
    ("object.pool_nodes", "count"),
    ("object.pool_growth", "count"),
    ("calculus.powerset_ms", "ms"),
    ("calculus.invention_ms", "ms"),
    ("bk.fixpoint_ms", "ms"),
    ("algebra.while_ms", "ms"),
    ("gtm.run_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// End-to-end metrics, with units, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut state_dir) =
        (None, None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {val:?}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|_| bad("a number"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--state-dir" => state_dir = Some(PathBuf::from(val)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        setup_only,
        state_dir: state_dir.ok_or("--state-dir is required")?,
    })
}

/// Drop every `USET_*` variable the caller's shell set, so no knob
/// (threads, interning, optimizer, tracing, maintenance mode,
/// checkpoints, budgets) reaches the engines; returns their names.
fn scrub_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("USET_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// Budgets loose enough never to trip, so the guard's checks run inside
/// every measured call without ending one.
fn budget() -> Budget {
    Budget::unlimited()
        .with_steps(1 << 40)
        .with_facts(1 << 28)
        .with_value_size(1 << 28)
        .with_wall(Duration::from_secs(3600))
}

/// The governor every workload starts from: sequential, optimizer
/// pre-pass off, no checkpoints, tracing off.
pub fn governor() -> Governor {
    Governor::new(budget())
        .with_par(ParConfig::off())
        .with_opt(OptConfig::Off)
        .with_ckpt_config(CkptConfig::Off)
}

fn json_num(x: f64) -> String {
    // `{:?}` prints the shortest string that reads back to the same f64
    format!("{x:?}")
}

fn print_result(o: &Outcome, names: &[(&str, &str)]) {
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = o.metrics.0.get(name).map_or(0.0, |m| m.0);
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}

fn main() {
    let process_start = Instant::now();
    let scrubbed = scrub_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    intern::set_enabled(true);
    let cfg = RunCfg {
        seconds: args.seconds,
        trace: args.trace,
        setup_only: args.setup_only,
        spans_path: args
            .state_dir
            .join(format!("spans-{}.jsonl", args.workload)),
    };
    let mut settings = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
        ("threads", "1".to_owned()),
        ("intern", "on".to_owned()),
        ("opt_prepass", "off".to_owned()),
        ("budget", format!("{:?}", budget())),
        ("scrubbed_env", scrubbed.join(",")),
    ];
    if let Err(e) = std::fs::create_dir_all(&args.state_dir) {
        eprintln!("perfbench: cannot create {:?}: {e}", args.state_dir);
        std::process::exit(2);
    }
    let outcome = match args.workload.as_str() {
        "fixpoint" => {
            settings.push(("ckpt", "off".to_owned()));
            let w = fixpoint::Fixpoint::setup(args.seed, fixpoint::Sizes::STANDARD, governor());
            harness::run(w, &cfg, process_start)
        }
        "view-churn" => {
            let dir = churn::fresh_journal_dir(&args.state_dir);
            settings.push((
                "ckpt",
                format!("dir={},every=16,sync=normal", dir.display()),
            ));
            settings.push(("ivm", "auto".to_owned()));
            let w = churn::Churn::setup(args.seed, churn::Sizes::STANDARD, &dir, args.trace);
            let out = harness::run(w, &cfg, process_start);
            let _ = std::fs::remove_dir_all(&dir);
            out
        }
        "invention" => {
            settings.push(("ckpt", "off".to_owned()));
            let w = invention::Invention::setup(args.seed, invention::Sizes::STANDARD, governor());
            harness::run(w, &cfg, process_start)
        }
        other => {
            eprintln!("perfbench: unknown workload {other:?} (fixpoint, view-churn, invention)");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        if outcome.failed > 0 {
            eprintln!("perfbench: {} warm-up op(s) failed", outcome.failed);
            std::process::exit(1);
        }
        println!("{{\"setup_s\": {}}}", json_num(outcome.setup_s));
        return;
    }
    let notes = outcome.notes.iter().map(|(k, v)| (k.as_str(), v.clone()));
    let line: Vec<String> = settings
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .chain(notes)
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    println!("settings {{{}}}", line.join(", "));
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    check_names(&outcome.metrics, names);
    print_result(&outcome, names);
}

/// Every metric a workload produced must be one this binary reports.
fn check_names(m: &Metrics, names: &[(&str, &str)]) {
    for (name, (_, unit)) in &m.0 {
        match names.iter().find(|(n, _)| n == name) {
            Some((_, u)) => assert_eq!(u, unit, "unit of {name}"),
            None => panic!("metric {name} is not in the reported list"),
        }
    }
}
