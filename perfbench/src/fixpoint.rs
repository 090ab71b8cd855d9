//! `fixpoint`: reads over a stable database with a warm pool. Each op
//! runs one request over the next of a few seeded random graphs whose
//! vertices are singleton chains of mixed depth:
//!
//! (a) stratified semi-naive DATALOG¬ — linear TC plus the negation
//!     stratum `U(x,y) :- E(x,y), ¬T(y,x)`;
//! (b) the set-heavy COL program (TC, each vertex's reachable set built
//!     through the data function `F`, and `P([x, F(x)])`) on a smaller
//!     graph over the same vertices;
//! (c) a magic-set goal query for one vertex's `T` successors.

use crate::harness::{LayerMs, Metrics, Workload};
use crate::reference::{closure, one_way, reach};
use crate::rng::Rng;
use crate::spans::Spans;
use std::collections::BTreeSet;
use uset_deductive::col::ast::{ColLiteral, ColProgram, ColRule, ColTerm};
use uset_deductive::col::eval::{stratified_governed, ColConfig, ColState, ColStrategy};
use uset_deductive::datalog::{DatalogProgram, DlAtom, DlRule, DlTerm};
use uset_guard::Governor;
use uset_object::cons::singleton_chain;
use uset_object::{Atom, Database, EvalStats, Instance, Value};
use uset_opt::{query_datalog, Goal};

#[derive(Clone, Copy)]
pub struct Sizes {
    pub graphs: usize,
    /// Shape of the graphs DATALOG¬ and the goal query run on.
    pub shape: Shape,
    /// Shape of the smaller graphs COL runs on (over the same vertices).
    pub col_shape: Shape,
    pub max_depth: usize,
}

impl Sizes {
    pub const STANDARD: Sizes = Sizes {
        graphs: 6,
        shape: Shape {
            components: 4,
            size: 12,
            chords: 1,
            bridges: 2,
        },
        col_shape: Shape {
            components: 3,
            size: 8,
            chords: 1,
            bridges: 2,
        },
        max_depth: 8,
    };
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        graphs: 2,
        shape: Shape {
            components: 2,
            size: 3,
            chords: 1,
            bridges: 1,
        },
        col_shape: Shape {
            components: 2,
            size: 2,
            chords: 0,
            bridges: 1,
        },
        max_depth: 3,
    };
}

/// A seeded random graph with a fixed condensation: `components` strongly
/// connected components of `size` vertices each, in a chain, with
/// `bridges` random edges from each component into the next. Inside a
/// component every vertex has one edge along a random cycle and `chords`
/// random edges to other members. A vertex reaches exactly its own
/// component and the later ones, so the closure's size, the tuples
/// semi-naive evaluation derives, and hence an op's cost are the same for
/// every seed; only which vertex sits where, and the wiring, vary.
#[derive(Clone, Copy)]
pub struct Shape {
    pub components: usize,
    pub size: usize,
    pub chords: usize,
    pub bridges: usize,
}

impl Shape {
    pub fn vertices(&self) -> usize {
        self.components * self.size
    }

    /// Edges over `0..vertices()`, and each vertex's component.
    pub fn generate(&self, rng: &mut Rng) -> (Vec<(usize, usize)>, Vec<usize>) {
        assert!(
            self.chords + 2 <= self.size.max(2),
            "too many chords for the component size"
        );
        let mut order: Vec<usize> = (0..self.vertices()).collect();
        rng.shuffle(&mut order);
        let members: Vec<&[usize]> = order.chunks(self.size).collect();
        let mut component = vec![0; self.vertices()];
        let mut edges = Vec::new();
        for (c, m) in members.iter().enumerate() {
            for (j, &x) in m.iter().enumerate() {
                component[x] = c;
                let next = m[(j + 1) % m.len()];
                if next != x {
                    edges.push((x, next));
                }
                let mut others: Vec<usize> =
                    m.iter().copied().filter(|&y| y != x && y != next).collect();
                rng.shuffle(&mut others);
                edges.extend(others.iter().take(self.chords).map(|&y| (x, y)));
            }
        }
        for pair in members.windows(2) {
            let mut all: Vec<(usize, usize)> = pair[0]
                .iter()
                .flat_map(|&a| pair[1].iter().map(move |&b| (a, b)))
                .collect();
            rng.shuffle(&mut all);
            edges.extend(all.into_iter().take(self.bridges));
        }
        (edges, component)
    }
}

/// `T` = linear transitive closure of `E`; `U` = edges not closing a cycle.
pub fn tc_negation_program() -> DatalogProgram {
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

/// The `setheavy_col` shape: TC, `F(x) ∋ y ← T(x,y)`, `P([x, F(x)]) ← E(x,y)`.
fn setheavy_col() -> ColProgram {
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
            "P",
            vec![ColTerm::Tuple(vec![
                v("x"),
                ColTerm::Apply("F".into(), vec![v("x")]),
            ])],
            vec![ColLiteral::pred("E", vec![v("x"), v("y")])],
        ),
    ])
}

/// A vertex value: `depth` singleton sets around `atom`. Graphs use
/// disjoint atoms, so no two graphs share a vertex value.
pub fn chain_vertex(atom: u64, depth: usize) -> Value {
    singleton_chain(Atom::new(atom), depth + 1)
        .pop()
        .expect("chain of length ≥ 1")
}

/// Index pairs as binary rows. References stay plain value sets: building
/// an `Instance` would intern them and warm the pool before the first op.
fn pairs(verts: &[Value], ps: impl IntoIterator<Item = (usize, usize)>) -> BTreeSet<Value> {
    ps.into_iter()
        .map(|(a, b)| Value::Tuple(vec![verts[a].clone(), verts[b].clone()]))
        .collect()
}

struct Graph {
    db: Database,
    col_db: Database,
    goal: Goal,
    // references
    t: BTreeSet<Value>,
    u: BTreeSet<Value>,
    col_t: BTreeSet<Value>,
    col_f: Vec<(Value, BTreeSet<Value>)>,
    col_p: BTreeSet<Value>,
    goal_rows: BTreeSet<Value>,
}

impl Graph {
    fn new(rng: &mut Rng, index: usize, s: &Sizes) -> Graph {
        let base = 1_000_000 * (index as u64 + 1);
        // every depth in 1..=max_depth equally often, in seeded order
        let n = s.shape.vertices();
        let mut depths: Vec<usize> = (0..n).map(|i| 1 + i % s.max_depth).collect();
        rng.shuffle(&mut depths);
        let verts: Vec<Value> = (0..n)
            .map(|i| chain_vertex(base + i as u64, depths[i]))
            .collect();
        let (edges, component) = s.shape.generate(rng);
        let (col_edges, _) = s.col_shape.generate(rng);
        let r = reach(n, &edges);
        let col_n = s.col_shape.vertices();
        let col_r = reach(col_n, &col_edges);
        // the goal vertex: a seeded pick in the middle component
        let middle: Vec<usize> = (0..n)
            .filter(|&x| component[x] == s.shape.components / 2)
            .collect();
        let g = middle[rng.below(middle.len() as u64) as usize];

        let mut db = Database::empty();
        db.set(
            "E",
            Instance::from_values(pairs(&verts, edges.iter().copied())),
        );
        let mut col_db = Database::empty();
        col_db.set(
            "E",
            Instance::from_values(pairs(&verts, col_edges.iter().copied())),
        );
        let col_sources: BTreeSet<usize> = col_edges.iter().map(|&(a, _)| a).collect();
        let col_f = (0..col_n)
            .filter(|&x| !col_r[x].is_empty())
            .map(|x| {
                (
                    verts[x].clone(),
                    col_r[x].iter().map(|&y| verts[y].clone()).collect(),
                )
            })
            .collect();
        let col_p = col_sources
            .iter()
            .map(|&x| {
                let set: BTreeSet<Value> = col_r[x].iter().map(|&y| verts[y].clone()).collect();
                Value::Tuple(vec![verts[x].clone(), Value::Set(set)])
            })
            .collect();
        Graph {
            goal: Goal::new("T", vec![Some(verts[g].clone()), None]),
            goal_rows: pairs(&verts, r[g].iter().map(|&y| (g, y))),
            t: pairs(&verts, closure(&r)),
            u: pairs(&verts, one_way(&edges, &r)),
            col_t: pairs(&verts, closure(&col_r)),
            col_f,
            col_p,
            db,
            col_db,
        }
    }
}

pub struct Answer {
    graph: usize,
    datalog: Database,
    datalog_stats: EvalStats,
    col: ColState,
    col_stats: EvalStats,
    goal: Instance,
    goal_stats: EvalStats,
}

pub struct Fixpoint {
    graphs: Vec<Graph>,
    prog: DatalogProgram,
    col: ColProgram,
    col_cfg: ColConfig,
    gov: Governor,
    // counted-window sums
    ops: u64,
    work: EvalStats,
    result_facts: u64,
    goal_derived: u64,
    goal_vs_full: f64,
}

impl Fixpoint {
    pub fn setup(seed: u64, sizes: Sizes, gov: Governor) -> Fixpoint {
        let mut rng = Rng::new(seed);
        let graphs = (0..sizes.graphs)
            .map(|g| Graph::new(&mut rng, g, &sizes))
            .collect();
        Fixpoint {
            graphs,
            prog: tc_negation_program(),
            col: setheavy_col(),
            col_cfg: ColConfig::default(),
            gov,
            ops: 0,
            work: EvalStats::default(),
            result_facts: 0,
            goal_derived: 0,
            goal_vs_full: 0.0,
        }
    }
}

fn same(what: &str, got: &Instance, want: &BTreeSet<Value>) -> Result<(), String> {
    if got.values() == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} rows, reference has {} ({} missing)",
            got.len(),
            want.len(),
            want.difference(got.values()).count()
        ))
    }
}

impl Workload for Fixpoint {
    type Answer = Answer;

    fn period(&self) -> u64 {
        self.graphs.len() as u64
    }

    fn warmup_ops(&self) -> u64 {
        self.graphs.len() as u64
    }

    fn counted_ops(&self) -> u64 {
        2 * self.graphs.len() as u64
    }

    fn op(&mut self, i: u64, spans: &mut Spans) -> Result<Answer, String> {
        let graph = (i % self.graphs.len() as u64) as usize;
        let g = &self.graphs[graph];
        let gov = &self.gov;
        let mut datalog_stats = EvalStats::default();
        let datalog = spans
            .call("deductive.datalog", || {
                self.prog
                    .eval_stratified_seminaive_governed(&g.db, gov, &mut datalog_stats)
            })
            .map_err(|e| format!("datalog: {e}"))?;
        let mut col_stats = EvalStats::default();
        let col = spans
            .call("deductive.col", || {
                stratified_governed(
                    &self.col,
                    &g.col_db,
                    &self.col_cfg,
                    ColStrategy::Seminaive,
                    gov,
                    &mut col_stats,
                )
            })
            .map_err(|e| format!("col: {e}"))?;
        let mut goal_stats = EvalStats::default();
        let goal = spans
            .call("opt.goal", || {
                query_datalog(&self.prog, &g.db, &g.goal, gov, &mut goal_stats)
            })
            .map_err(|e| format!("goal: {e}"))?;
        Ok(Answer {
            graph,
            datalog,
            datalog_stats,
            col,
            col_stats,
            goal,
            goal_stats,
        })
    }

    fn check(&mut self, _i: u64, a: Answer, counted: bool) -> Result<(), String> {
        let g = &self.graphs[a.graph];
        same("T", &a.datalog.get("T"), &g.t)?;
        same("U", &a.datalog.get("U"), &g.u)?;
        same("COL T", &a.col.pred("T"), &g.col_t)?;
        same("COL P", &a.col.pred("P"), &g.col_p)?;
        for (x, want) in &g.col_f {
            if &a.col.func("F", std::slice::from_ref(x)) != want {
                return Err(format!("COL F({x}) differs from its reachable set"));
            }
        }
        same("goal", &a.goal, &g.goal_rows)?;
        if counted {
            self.ops += 1;
            self.work.absorb(&a.datalog_stats);
            self.work.absorb(&a.col_stats);
            self.result_facts += (g.t.len() + g.u.len() + g.col_t.len() + g.col_p.len()) as u64;
            self.goal_derived += a.goal_stats.tuples_derived;
            self.goal_vs_full +=
                a.goal_stats.tuples_derived as f64 / a.datalog_stats.tuples_derived as f64;
        }
        Ok(())
    }

    fn layer_metrics(&mut self, layer_ms: &LayerMs, m: &mut Metrics) {
        let n = self.ops as f64;
        m.set_layer_ms("deductive.datalog_ms", layer_ms, "deductive.datalog");
        m.set_layer_ms("deductive.col_ms", layer_ms, "deductive.col");
        m.set(
            "deductive.tuples_derived",
            self.work.tuples_derived as f64 / n,
            "count",
        );
        m.set("deductive.rounds", self.work.rounds as f64 / n, "count");
        m.set(
            "deductive.index_probes",
            self.work.index_probes as f64 / n,
            "count",
        );
        m.set(
            "deductive.scan_fallbacks",
            self.work.scan_fallbacks as f64 / n,
            "count",
        );
        m.set(
            "deductive.useful_ratio",
            self.result_facts as f64 / self.work.tuples_derived as f64,
            "ratio",
        );
        m.set_layer_ms("opt.goal_ms", layer_ms, "opt.goal");
        m.set(
            "opt.goal_tuples_derived",
            self.goal_derived as f64 / n,
            "count",
        );
        m.set("opt.goal_vs_full", self.goal_vs_full / n, "ratio");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn shape_fixes_the_closure_size() {
        let shape = Sizes::STANDARD.shape;
        let k = shape.components;
        let want = shape.size * shape.size * k * (k + 1) / 2;
        for seed in 0..5 {
            let (edges, _) = shape.generate(&mut Rng::new(seed));
            let r = reach(shape.vertices(), &edges);
            assert_eq!(closure(&r).len(), want, "seed {seed}");
        }
    }

    #[test]
    fn engines_agree_with_the_reference_on_tiny_graphs() {
        let mut w = Fixpoint::setup(3, Sizes::TINY, crate::governor());
        let mut spans = Spans::new(Instant::now());
        for i in 0..2 * Sizes::TINY.graphs as u64 {
            let a = w.op(i, &mut spans).expect("op runs");
            w.check(i, a, true).expect("answer matches the reference");
        }
    }

    #[test]
    fn a_wrong_answer_fails_the_check() {
        let mut w = Fixpoint::setup(3, Sizes::TINY, crate::governor());
        let mut spans = Spans::new(Instant::now());
        let mut a = w.op(0, &mut spans).expect("op runs");
        let mut t = a.datalog.get("T");
        let row = t.iter().next().expect("T is not empty").clone();
        t.remove(&row);
        a.datalog.set("T", t);
        assert!(w.check(0, a, false).is_err());
    }
}
