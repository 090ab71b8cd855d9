//! `view-churn`: writes against one long-lived, journaled DATALOG¬
//! session over the `fixpoint` program (linear TC plus the negation
//! stratum). Each op is one `DeltaBatch` over a sliding window of a
//! seeded edge stream: it retracts the `batch` oldest edges and inserts
//! the next `batch`. Edges run from older to newer vertices, so the
//! window stays acyclic and its closure stays about the same size; new vertices
//! (fresh values, so the pool keeps growing) enter at a constant rate.

use crate::fixpoint::{chain_vertex, tc_negation_program};
use crate::harness::{LayerMs, Metrics, Workload};
use crate::reference::{closure, one_way, reach};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::median;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;
use uset_guard::ckpt::{Spec, SyncMode};
use uset_guard::Governor;
use uset_ivm::{ApplyReport, DatalogSession, DeltaBatch, IvmMode, Semantics};
use uset_object::{Database, EvalStats, Instance, Value};

#[derive(Clone, Copy)]
pub struct Sizes {
    /// Edges in the window.
    pub window: u64,
    /// Edges retracted and inserted per batch.
    pub batch: u64,
    /// Edges whose head is one vertex (so one new vertex per this many
    /// stream edges).
    pub fan_in: u64,
    /// How many vertices back an edge's tail may lie.
    pub span: u64,
    pub max_depth: usize,
    /// Batches in the counted window (a multiple of the snapshot cadence).
    pub counted: u64,
}

impl Sizes {
    pub const STANDARD: Sizes = Sizes {
        window: 100,
        batch: 4,
        fan_in: 2,
        span: 6,
        max_depth: 8,
        counted: 64,
    };
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        window: 12,
        batch: 2,
        fan_in: 2,
        span: 3,
        max_depth: 3,
        counted: 8,
    };
}

/// Snapshot cadence of the journal, in batches.
const SNAPSHOT_EVERY: u64 = 16;

/// The seeded edge stream: edge `j` points into vertex `j / fan_in`
/// from a distinct earlier vertex at most `span` back.
struct Stream {
    seed: u64,
    sizes: Sizes,
}

impl Stream {
    fn edge(&self, j: u64) -> (u64, u64) {
        let s = &self.sizes;
        let head = s.span + j / s.fan_in;
        // the fan_in tails of one head are distinct offsets in 1..=span
        let mut rng = Rng::new(self.seed ^ head.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let mut offsets: Vec<u64> = (1..=s.span).collect();
        for k in 0..s.fan_in as usize {
            let pick = k + rng.below((offsets.len() - k) as u64) as usize;
            offsets.swap(k, pick);
        }
        (head - offsets[(j % s.fan_in) as usize], head)
    }

    fn vertex(&self, v: u64) -> Value {
        let depth = 1 + Rng::new(self.seed ^ v).below(self.sizes.max_depth as u64) as usize;
        chain_vertex(v, depth)
    }

    fn row(&self, j: u64) -> Value {
        let (a, b) = self.edge(j);
        Value::Tuple(vec![self.vertex(a), self.vertex(b)])
    }
}

/// A fresh, empty journal directory under `state_dir`, unique to this
/// process, so a session never resumes an earlier run's journal.
pub fn fresh_journal_dir(state_dir: &Path) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let dir = state_dir.join(format!("journal-{}-{nanos}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the journal directory");
    dir
}

/// Bytes under `dir`, per file.
fn file_sizes(dir: &Path, out: &mut BTreeMap<PathBuf, u64>) {
    out.clear();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
            } else {
                out.insert(e.path(), meta.len());
            }
        }
    }
}

pub struct Churn {
    stream: Stream,
    session: DatalogSession,
    prog_gov: Governor,
    journal: PathBuf,
    /// Oldest stream edge still in the window.
    lo: u64,
    trace: bool,
    materialize_s: f64,
    last_apply_ms: f64,
    // whole-run series for the stationarity check
    view_sizes: Vec<usize>,
    derived: Vec<u64>,
    // counted-window sums
    counted: u64,
    work: EvalStats,
    idb_changed: u64,
    fallbacks: u64,
    journal_bytes: u64,
    journal_files: BTreeMap<PathBuf, u64>,
    scratch_files: BTreeMap<PathBuf, u64>,
    vs_recompute: Vec<f64>,
}

impl Churn {
    pub fn setup(seed: u64, sizes: Sizes, journal: &Path, trace: bool) -> Churn {
        let stream = Stream { seed, sizes };
        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_values((0..sizes.window).map(|j| stream.row(j))),
        );
        let gov = crate::governor().with_ckpt(
            Spec::new(journal)
                .with_every(SNAPSHOT_EVERY)
                .with_sync(SyncMode::Normal),
        );
        let t = Instant::now();
        let session = DatalogSession::with_mode(
            tc_negation_program(),
            &db,
            Semantics::StratifiedSeminaive,
            &gov,
            IvmMode::Auto,
        )
        .expect("materialize the initial window");
        let materialize_s = t.elapsed().as_secs_f64();
        let mut journal_files = BTreeMap::new();
        file_sizes(journal, &mut journal_files);
        Churn {
            stream,
            session,
            prog_gov: crate::governor(),
            journal: journal.to_path_buf(),
            lo: 0,
            trace,
            materialize_s,
            last_apply_ms: 0.0,
            view_sizes: Vec::new(),
            derived: Vec::new(),
            counted: sizes.counted,
            work: EvalStats::default(),
            idb_changed: 0,
            fallbacks: 0,
            journal_bytes: 0,
            journal_files,
            scratch_files: BTreeMap::new(),
            vs_recompute: Vec::new(),
        }
    }

    /// The reference view of the current window: `E`, `T` and `U`.
    fn reference(&self) -> [(&'static str, BTreeSet<Value>); 3] {
        let s = &self.stream.sizes;
        let hi = self.lo + s.window;
        // tails lie at most `span` before their head, so the window's
        // oldest vertex is the oldest head minus `span`
        let first_vertex = self.lo / s.fan_in;
        let edges: Vec<(usize, usize)> = (self.lo..hi)
            .map(|j| {
                let (a, b) = self.stream.edge(j);
                ((a - first_vertex) as usize, (b - first_vertex) as usize)
            })
            .collect();
        let n = (s.span + (hi - 1) / s.fan_in - first_vertex + 1) as usize;
        let verts: Vec<Value> = (0..n as u64)
            .map(|v| self.stream.vertex(first_vertex + v))
            .collect();
        let rows = |ps: BTreeSet<(usize, usize)>| -> BTreeSet<Value> {
            ps.into_iter()
                .map(|(a, b)| Value::Tuple(vec![verts[a].clone(), verts[b].clone()]))
                .collect()
        };
        let r = reach(n, &edges);
        [
            ("E", rows(edges.iter().copied().collect())),
            ("T", rows(closure(&r))),
            ("U", rows(one_way(&edges, &r))),
        ]
    }
}

impl Workload for Churn {
    type Answer = ApplyReport;

    fn warmup_ops(&self) -> u64 {
        4
    }

    fn counted_ops(&self) -> u64 {
        self.counted
    }

    fn op(&mut self, _i: u64, spans: &mut Spans) -> Result<ApplyReport, String> {
        let k = self.stream.sizes.batch;
        let w = self.stream.sizes.window;
        let mut batch = DeltaBatch::new();
        for j in self.lo..self.lo + k {
            batch = batch.retract("E", self.stream.row(j));
        }
        for j in self.lo + w..self.lo + w + k {
            batch = batch.insert("E", self.stream.row(j));
        }
        self.lo += k;
        let t = Instant::now();
        let report = spans.call("ivm.apply", || self.session.apply(&batch));
        self.last_apply_ms = t.elapsed().as_secs_f64() * 1e3;
        report.map_err(|e| format!("apply: {e}"))
    }

    fn check(&mut self, i: u64, r: ApplyReport, counted: bool) -> Result<(), String> {
        let state = self.session.state();
        for (name, want) in self.reference() {
            if state.get_ref(name).map(|inst| inst.values()) != Some(&want) {
                return Err(format!("maintained {name} differs from the reference"));
            }
        }
        let k = self.stream.sizes.batch;
        if r.inserted != k || r.retracted != k {
            return Err(format!(
                "batch applied {}+/{}- edges",
                r.inserted, r.retracted
            ));
        }
        let view =
            state.get_ref("T").map_or(0, |t| t.len()) + state.get_ref("U").map_or(0, |u| u.len());
        if i + 1 == self.warmup_ops() {
            // bytes the warm-up wrote are not the counted window's
            file_sizes(&self.journal, &mut self.journal_files);
        }
        if i >= self.warmup_ops() {
            self.view_sizes.push(view);
            self.derived.push(r.stats.tuples_derived);
        }
        if counted {
            self.work.absorb(&r.stats);
            self.idb_changed += r.idb_added + r.idb_removed;
            self.fallbacks += u64::from(r.fallback);
            file_sizes(&self.journal, &mut self.scratch_files);
            for (path, &len) in &self.scratch_files {
                let before = self.journal_files.get(path).copied().unwrap_or(0);
                self.journal_bytes += len.saturating_sub(before);
            }
            std::mem::swap(&mut self.journal_files, &mut self.scratch_files);
            if self.trace && i.is_multiple_of(8) {
                let t = Instant::now();
                tc_negation_program()
                    .eval_stratified_seminaive_governed(
                        self.session.edb(),
                        &self.prog_gov,
                        &mut EvalStats::default(),
                    )
                    .map_err(|e| format!("recompute: {e}"))?;
                let recompute_ms = t.elapsed().as_secs_f64() * 1e3;
                self.vs_recompute.push(self.last_apply_ms / recompute_ms);
            }
        }
        Ok(())
    }

    /// The window is stationary by construction; a drift in view size or
    /// maintenance work means the stream or the engine misbehaves.
    fn finish(&mut self) -> Result<(), String> {
        self.session.finish();
        let n = self.view_sizes.len();
        if n < 8 {
            return Ok(());
        }
        let q = n / 4;
        let band = |name: &str, xs: &[f64], factor: f64| {
            let (first, last) = (median(&xs[..q]), median(&xs[n - q..]));
            if last > first * factor || last * factor < first {
                Err(format!(
                    "{name} drifted from {first} to {last} (band ×{factor})"
                ))
            } else {
                Ok(())
            }
        };
        let views: Vec<f64> = self.view_sizes.iter().map(|&v| v as f64).collect();
        let derived: Vec<f64> = self.derived.iter().map(|&v| v as f64).collect();
        band("view size", &views, 1.25)?;
        band("ivm.tuples_derived per batch", &derived, 2.0)
    }

    fn layer_metrics(&mut self, _layer_ms: &LayerMs, m: &mut Metrics) {
        let n = self.counted as f64;
        m.set("ivm.materialize_s", self.materialize_s, "s");
        m.set(
            "ivm.tuples_derived",
            self.work.tuples_derived as f64 / n,
            "count",
        );
        m.set("ivm.idb_changed", self.idb_changed as f64 / n, "count");
        m.set(
            "ivm.useful_ratio",
            self.idb_changed as f64 / self.work.tuples_derived.max(1) as f64,
            "ratio",
        );
        m.set("ivm.fallbacks", self.fallbacks as f64, "count");
        m.set("ivm.vs_recompute", median(&self.vs_recompute), "ratio");
        m.set(
            "ckpt.bytes_per_batch",
            self.journal_bytes as f64 / n,
            "bytes",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintained_view_matches_the_reference_batch_by_batch() {
        let state =
            std::env::temp_dir().join(format!("perfbench-churn-test-{}", std::process::id()));
        let dir = fresh_journal_dir(&state);
        let mut w = Churn::setup(5, Sizes::TINY, &dir, false);
        let mut spans = Spans::new(Instant::now());
        for i in 0..w.warmup_ops() + Sizes::TINY.counted {
            let r = w.op(i, &mut spans).expect("batch applies");
            w.check(i, r, i >= w.warmup_ops())
                .expect("view matches the reference");
        }
        w.finish().expect("stationary");
        assert!(w.journal_bytes > 0, "the journal grew");
        let _ = std::fs::remove_dir_all(&state);
    }

    #[test]
    fn stream_edges_are_distinct_and_point_forward() {
        let stream = Stream {
            seed: 9,
            sizes: Sizes::STANDARD,
        };
        let edges: BTreeSet<(u64, u64)> = (0..1000).map(|j| stream.edge(j)).collect();
        assert_eq!(edges.len(), 1000);
        assert!(edges
            .iter()
            .all(|&(a, b)| a < b && b - a <= Sizes::STANDARD.span));
    }
}
