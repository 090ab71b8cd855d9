//! The closed loop shared by the workloads: one client, no worker
//! threads. Warm-up ops run first (checked, untimed), then the loop times
//! one fixed request at a time for the requested number of seconds and
//! checks every answer outside the timed region. Untraced runs time the
//! speed reference after every op and report times at the reference
//! speed (see `calib`).

use crate::calib::{self, Kernel};
use crate::spans::Spans;
use crate::stats::{median, tail};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use uset_object::Pool;

/// Self times per span name, in milliseconds.
pub type LayerMs = BTreeMap<&'static str, Vec<f64>>;

pub trait Workload {
    type Answer;
    /// Ops per input rotation; the traced run switches spans on and off
    /// in blocks of this many ops so both halves see every input.
    fn period(&self) -> u64 {
        1
    }
    /// Untimed ops before the first timed one (part of set-up).
    fn warmup_ops(&self) -> u64;
    /// Timed ops, from the first one on, whose counts the traced run
    /// reports. The traced run goes on until all of them are done.
    fn counted_ops(&self) -> u64;
    /// The fixed request, timed. Calls into the engines go through
    /// `spans`.
    fn op(&mut self, i: u64, spans: &mut Spans) -> Result<Self::Answer, String>;
    /// Compare an answer with the independent reference (untimed).
    /// `counted` marks ops inside the counted window.
    fn check(&mut self, i: u64, answer: Self::Answer, counted: bool) -> Result<(), String>;
    /// Whole-run checks after the loop (stationarity).
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// The workload's per-layer metrics (traced run only).
    fn layer_metrics(&mut self, layer_ms: &LayerMs, out: &mut Metrics);
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name.to_owned(), (value, unit));
    }

    /// Median of the named span self times, or 0 when the run made no
    /// such call.
    pub fn set_layer_ms(&mut self, name: &str, layer_ms: &LayerMs, span: &str) {
        let v = layer_ms.get(span).map_or(0.0, |xs| median(xs));
        self.set(name, v, "ms");
    }
}

pub struct RunCfg {
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
    /// Where the traced run writes its spans.
    pub spans_path: std::path::PathBuf,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub setup_s: f64,
    pub metrics: Metrics,
    /// Facts about the run that are not metrics (tail percentile, sample
    /// counts), printed on the settings line.
    pub notes: Vec<(String, String)>,
}

struct Failures {
    attempted: u64,
    failed: u64,
}

impl Failures {
    fn record(&mut self, i: u64, res: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = res {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("op {i} failed: {e}");
            }
        }
    }
}

/// Timed ops after which `peak_rss_mb` is read. A fixed op count, not the
/// end of the run: `view-churn`'s pool grows with every batch, so a
/// reading at the end would move with the machine's speed.
const RSS_AT_OPS: u64 = 100;

/// Kernel runs after set-up whose median scales `setup_s`.
const SETUP_KERNEL_RUNS: usize = 5;

pub fn run<W: Workload>(mut w: W, cfg: &RunCfg, process_start: Instant) -> Outcome {
    let pool = Pool::global();
    let mut kernel = Kernel::new();
    let mut spans = Spans::new(process_start);
    let mut fails = Failures {
        attempted: 0,
        failed: 0,
    };

    // Warm-up. The first op meets a cold pool; its interning is recorded.
    let mut cold_objects = 0u64;
    for i in 0..w.warmup_ops() {
        let before = pool.stats();
        let res = w.op(i, &mut spans).and_then(|a| w.check(i, a, false));
        if i == 0 {
            cold_objects = pool.stats().delta_since(&before).objects_interned;
        }
        fails.record(i, res);
    }
    let setup_wall_s = process_start.elapsed().as_secs_f64();
    let setup_kernel_ms = median(
        &(0..SETUP_KERNEL_RUNS)
            .map(|_| kernel.time_ms())
            .collect::<Vec<_>>(),
    );
    let setup_s = calib::scaled(setup_wall_s, setup_kernel_ms);
    let mut metrics = Metrics::default();
    if cfg.setup_only {
        return Outcome {
            attempted: fails.attempted,
            failed: fails.failed,
            correct: fails.failed == 0,
            setup_s,
            metrics,
            notes: Vec::new(),
        };
    }

    let first = w.warmup_ops();
    let counted = w.counted_ops();
    let period = w.period();
    let mut traced_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut scaled_ms = Vec::new();
    let mut kernel_ms = Vec::new();
    let mut rss = None;
    let (mut hits, mut interned) = (0u64, 0u64);
    let (mut pool_mid, mut pool_end) = (0usize, 0usize);
    let budget = Duration::from_secs_f64(cfg.seconds);
    let loop_start = Instant::now();
    let mut i = first;
    while loop_start.elapsed() < budget || (cfg.trace && i < first + counted) {
        let traced = cfg.trace && ((i - first) / period).is_multiple_of(2);
        let in_window = i < first + counted;
        let before = pool.stats();
        spans.begin_op(i, traced);
        let t = Instant::now();
        let answer = w.op(i, &mut spans);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        spans.end_op();
        let delta = pool.stats().delta_since(&before);
        fails.record(i, answer.and_then(|a| w.check(i, a, in_window)));
        if traced {
            traced_ms.push(ms);
        } else {
            untraced_ms.push(ms);
        }
        if !cfg.trace {
            let k = kernel.time_ms();
            scaled_ms.push(calib::scaled(ms, k));
            kernel_ms.push(k);
            if i + 1 - first == RSS_AT_OPS {
                rss = peak_rss_mb().map(|mb| (mb, RSS_AT_OPS));
            }
        }
        if in_window {
            hits += delta.intern_hits;
            interned += delta.objects_interned;
            if i + 1 == first + counted / 2 {
                pool_mid = pool.len();
            }
            if i + 1 == first + counted {
                pool_end = pool.len();
            }
        }
        i += 1;
    }
    // run-level checks: a failure here fails the run, not an op
    let mut run_ok = true;
    if let Err(e) = w.finish() {
        eprintln!("run check failed: {e}");
        run_ok = false;
    }

    let mut notes = Vec::new();
    let timed_ops = i - first;
    notes.push(("timed_ops".to_owned(), timed_ops.to_string()));
    if cfg.trace {
        let per_op = |x: u64| x as f64 / counted as f64;
        metrics.set("object.intern_hits", per_op(hits), "count");
        metrics.set("object.objects_interned", per_op(interned), "count");
        let attempts = (hits + interned).max(1) as f64;
        metrics.set("object.hit_ratio", hits as f64 / attempts, "ratio");
        metrics.set("object.cold_objects_interned", cold_objects as f64, "count");
        metrics.set("object.pool_nodes", pool_end as f64, "count");
        let half = (counted - counted / 2) as f64;
        metrics.set(
            "object.pool_growth",
            (pool_end - pool_mid) as f64 / half,
            "count",
        );
        metrics.set(
            "trace.overhead_ratio",
            median(&traced_ms) / median(&untraced_ms),
            "ratio",
        );
        w.layer_metrics(&spans.self_ms_by_name(), &mut metrics);
        if let Err(e) = spans.write_jsonl(&cfg.spans_path) {
            eprintln!("could not write spans to {:?}: {e}", cfg.spans_path);
        }
    } else {
        let total_s: f64 = scaled_ms.iter().sum::<f64>() / 1e3;
        metrics.set("setup_s", setup_s, "s");
        metrics.set("op_p50_ms", median(&scaled_ms), "ms");
        let mut note = |k: &str, v: f64| notes.push((k.to_owned(), format!("{v:?}")));
        note("setup_wall_s", setup_wall_s);
        note("setup_kernel_ms", setup_kernel_ms);
        note("op_p50_wall_ms", median(&untraced_ms));
        note("kernel_p50_ms", median(&kernel_ms));
        note("kernel_reference_ms", calib::REFERENCE_MS);
        match tail(&scaled_ms, 10) {
            Some(t) => {
                metrics.set("op_tail_ms", t.value, "ms");
                notes.push(("op_tail_percentile".to_owned(), t.percentile.to_string()));
                notes.push(("op_tail_beyond".to_owned(), t.beyond.to_string()));
            }
            None => {
                eprintln!("too few timed ops ({timed_ops}) for a tail percentile");
                run_ok = false;
            }
        }
        metrics.set("ops_per_s", scaled_ms.len() as f64 / total_s, "1/s");
        match rss.or_else(|| peak_rss_mb().map(|mb| (mb, timed_ops))) {
            Some((mb, at_ops)) => {
                metrics.set("peak_rss_mb", mb, "MiB");
                notes.push(("peak_rss_at_ops".to_owned(), at_ops.to_string()));
            }
            None => {
                eprintln!("VmHWM is not readable from /proc/self/status");
                run_ok = false;
            }
        }
    }
    Outcome {
        attempted: fails.attempted,
        failed: fails.failed,
        correct: fails.failed == 0 && run_ok,
        setup_s,
        metrics,
        notes,
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}
