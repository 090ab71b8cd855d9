//! `invention`: the non-deductive engines. Each op runs one request with
//! five parts over seeded inputs:
//!
//! * a calculus query whose variable ranges over the powerset type `{U}`
//!   with a quantifier over `{U}` inside (the `cons_T` enumeration and
//!   the pool's domain cache);
//! * a finite-invention (`eval_fi`) calculus query;
//! * BK's Example 5.2 join-rule fixpoint;
//! * transitive closure by the algebra's `while`;
//! * the pair-swap GTM run as a query.
//!
//! Every answer is checked against a closed-form count or a known output.

use crate::fixpoint::Shape;
use crate::harness::{LayerMs, Metrics, Workload};
use crate::reference::{closure, reach};
use crate::rng::Rng;
use crate::spans::Spans;
use std::collections::BTreeSet;
use uset_algebra::derived::tc_while_program;
use uset_algebra::{eval_program_governed, Program};
use uset_bk::eval::{eval_fixpoint_governed, state_from, BkConfig};
use uset_bk::{BkObject, BkProgram, BkState};
use uset_calculus::ast::{CalcQuery, CalcTerm, Formula};
use uset_calculus::eval::{eval_query, CalcConfig};
use uset_calculus::eval_fi_governed;
use uset_gtm::machines::swap_pairs_gtm;
use uset_gtm::query::run_gtm_query_governed;
use uset_gtm::Gtm;
use uset_guard::Governor;
use uset_object::rtype::RType;
use uset_object::{atom, Atom, Database, Instance, Schema, Type, Value};

#[derive(Clone, Copy)]
pub struct Sizes {
    /// Atoms the powerset query ranges over (`2^n` candidates, each
    /// quantifying over `2^n` sets).
    pub powerset_atoms: u64,
    /// Sets in `D`, the powerset query's relation.
    pub powerset_sets: u64,
    /// Atoms in the invention query's relation.
    pub invention_atoms: u64,
    /// Invention levels `0..=budget`.
    pub invention_budget: usize,
    /// Tuples in each of BK's `R1` and `R2`.
    pub bk_tuples: u64,
    /// Shape of the `while`-TC graph.
    pub tc_shape: Shape,
    /// Pairs the GTM swaps.
    pub gtm_pairs: u64,
}

impl Sizes {
    pub const STANDARD: Sizes = Sizes {
        powerset_atoms: 10,
        powerset_sets: 3,
        invention_atoms: 10,
        invention_budget: 3,
        bk_tuples: 12,
        tc_shape: Shape {
            components: 3,
            size: 8,
            chords: 1,
            bridges: 2,
        },
        gtm_pairs: 1500,
    };
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        powerset_atoms: 4,
        powerset_sets: 2,
        invention_atoms: 3,
        invention_budget: 2,
        bk_tuples: 2,
        tc_shape: Shape {
            components: 2,
            size: 3,
            chords: 1,
            bridges: 1,
        },
        gtm_pairs: 3,
    };
}

/// `n` distinct seeded atom ids.
fn fresh_atoms(rng: &mut Rng, n: u64) -> Vec<u64> {
    let mut ids = BTreeSet::new();
    while (ids.len() as u64) < n {
        ids.insert(rng.range(1, 1 << 30));
    }
    ids.into_iter().collect()
}

fn set_of(atoms: impl IntoIterator<Item = u64>) -> Value {
    Value::Set(atoms.into_iter().map(atom).collect())
}

/// `{ s : {U} | ∀t : {U}. (D(t) → ∀x : U. (x ∈ t → x ∈ s)) }` — the sets
/// containing every member of every set in `D`.
fn powerset_query() -> CalcQuery {
    let set_u = RType::Set(Box::new(RType::Atomic));
    let v = CalcTerm::var;
    let covers = Formula::Member(v("x"), v("t"))
        .not()
        .or(Formula::Member(v("x"), v("s")))
        .forall("x", RType::Atomic);
    let body = Formula::Pred("D".into(), v("t"))
        .not()
        .or(covers)
        .forall("t", set_u.clone());
    CalcQuery::new("s", set_u, body)
}

/// `{ [x, y] | R(x) ∧ R(y) ∧ ∃z : U. ¬R(z) }` — empty over the active
/// domain alone, all of `R × R` once one atom is invented.
fn invention_query() -> CalcQuery {
    let v = CalcTerm::var;
    let body = Formula::Eq(v("p"), CalcTerm::Tuple(vec![v("x"), v("y")]))
        .and(Formula::Pred("R".into(), v("x")))
        .and(Formula::Pred("R".into(), v("y")))
        .and(
            Formula::Pred("R".into(), v("z"))
                .not()
                .exists("z", RType::Atomic),
        )
        .exists("x", RType::Atomic)
        .exists("y", RType::Atomic);
    CalcQuery::new("p", RType::Tuple(vec![RType::Atomic, RType::Atomic]), body)
}

fn bk_pair(a: &'static str, x: BkObject, b: &'static str, y: BkObject) -> BkObject {
    BkObject::tuple([(a, x), (b, y)])
}

pub struct Answer {
    powerset: Instance,
    invention: Instance,
    bk: BkState,
    tc: Instance,
    gtm: Option<Instance>,
}

pub struct Invention {
    gov: Governor,
    calc_cfg: CalcConfig,
    powerset_q: CalcQuery,
    powerset_db: Database,
    invention_q: CalcQuery,
    invention_db: Database,
    invention_budget: usize,
    bk_prog: BkProgram,
    bk_input: BkState,
    bk_cfg: BkConfig,
    tc_prog: Program,
    tc_db: Database,
    gtm: Gtm,
    gtm_db: Database,
    gtm_schema: Schema,
    gtm_target: Type,
    // references
    covered: BTreeSet<Value>,
    powerset_count: usize,
    invention_rows: BTreeSet<Value>,
    bk_rows: BTreeSet<BkObject>,
    tc_rows: BTreeSet<Value>,
    gtm_rows: BTreeSet<Value>,
}

impl Invention {
    pub fn setup(seed: u64, s: Sizes, gov: Governor) -> Invention {
        let mut rng = Rng::new(seed);

        // powerset: R = the atoms, D = a few small sets of them (disjoint
        // pairs, so |∪D| and the answer count are fixed by the sizes). The
        // pairs sit at fixed ranks of the sorted atoms: the calculus
        // enumerates sets in value order and stops a `∀t` at the first
        // counterexample, so pairs at seeded ranks would make the work
        // (up to 3× here) depend on the seed. The seed picks the atom ids.
        let p_atoms = fresh_atoms(&mut rng, s.powerset_atoms);
        let d_sets: BTreeSet<Value> = p_atoms
            .chunks(2)
            .take(s.powerset_sets as usize)
            .map(|pair| set_of(pair.iter().copied()))
            .collect();
        let covered: BTreeSet<Value> = d_sets
            .iter()
            .flat_map(|d| match d {
                Value::Set(xs) => xs.iter().cloned().collect::<Vec<_>>(),
                _ => unreachable!("D holds sets"),
            })
            .collect();
        let powerset_count = 1usize << (p_atoms.len() - covered.len());
        let mut powerset_db = Database::empty();
        powerset_db.set("R", Instance::from_values(p_atoms.iter().map(|&a| atom(a))));
        powerset_db.set("D", Instance::from_values(d_sets));

        // invention: R over seeded atoms; the answer is R × R
        let i_atoms = fresh_atoms(&mut rng, s.invention_atoms);
        let mut invention_db = Database::empty();
        invention_db.set("R", Instance::from_values(i_atoms.iter().map(|&a| atom(a))));
        let invention_rows = i_atoms
            .iter()
            .flat_map(|&x| {
                i_atoms
                    .iter()
                    .map(move |&y| Value::Tuple(vec![atom(x), atom(y)]))
            })
            .collect();

        // BK Example 5.2, scaled: R1 = {[A:a_i, B:b_i]}, R2 = {[B:b_i, C:c_i]}
        let a = fresh_atoms(&mut rng, s.bk_tuples);
        let b = fresh_atoms(&mut rng, s.bk_tuples);
        let c = fresh_atoms(&mut rng, s.bk_tuples);
        let bk_atom = |x: u64| BkObject::Atom(Atom::new(x));
        let bk_input = state_from([
            (
                "R1",
                (0..a.len())
                    .map(|i| bk_pair("A", bk_atom(a[i]), "B", bk_atom(b[i])))
                    .collect::<Vec<_>>(),
            ),
            (
                "R2",
                (0..c.len())
                    .map(|i| bk_pair("B", bk_atom(b[i]), "C", bk_atom(c[i])))
                    .collect(),
            ),
        ]);
        // The rule yields π_A R1 × π_C R2 with ⊥ allowed in either column
        // (the paper's point: y ↦ ⊥ joins everything).
        let xs: Vec<BkObject> = a
            .iter()
            .map(|&x| bk_atom(x))
            .chain([BkObject::Bottom])
            .collect();
        let zs: Vec<BkObject> = c
            .iter()
            .map(|&z| bk_atom(z))
            .chain([BkObject::Bottom])
            .collect();
        let bk_rows = xs
            .iter()
            .flat_map(|x| zs.iter().map(|z| bk_pair("A", x.clone(), "C", z.clone())))
            .collect();

        // while-TC over a seeded random graph of atoms
        let tc_atoms = fresh_atoms(&mut rng, s.tc_shape.vertices() as u64);
        let (edges, _) = s.tc_shape.generate(&mut rng);
        let tc_pair =
            |(x, y): (usize, usize)| Value::Tuple(vec![atom(tc_atoms[x]), atom(tc_atoms[y])]);
        let mut tc_db = Database::empty();
        tc_db.set(
            "R",
            Instance::from_values(edges.iter().copied().map(tc_pair)),
        );
        let tc_rows = closure(&reach(tc_atoms.len(), &edges))
            .into_iter()
            .map(tc_pair)
            .collect();

        // GTM: swap every pair
        let l = fresh_atoms(&mut rng, s.gtm_pairs);
        let r = fresh_atoms(&mut rng, s.gtm_pairs);
        let mut gtm_db = Database::empty();
        gtm_db.set(
            "R",
            Instance::from_rows(l.iter().zip(&r).map(|(&x, &y)| [atom(x), atom(y)])),
        );
        let gtm_rows = l
            .iter()
            .zip(&r)
            .map(|(&x, &y)| Value::Tuple(vec![atom(y), atom(x)]))
            .collect();

        Invention {
            gov,
            calc_cfg: CalcConfig::default(),
            powerset_q: powerset_query(),
            powerset_db,
            invention_q: invention_query(),
            invention_db,
            invention_budget: s.invention_budget,
            bk_prog: BkProgram::join_rule(),
            bk_input,
            bk_cfg: BkConfig::default(),
            tc_prog: tc_while_program("R"),
            tc_db,
            gtm: swap_pairs_gtm(),
            gtm_db,
            gtm_schema: Schema::flat([("R", 2)]),
            gtm_target: Type::atomic_tuple(2),
            covered,
            powerset_count,
            invention_rows,
            bk_rows,
            tc_rows,
            gtm_rows,
        }
    }
}

impl Workload for Invention {
    type Answer = Answer;

    fn warmup_ops(&self) -> u64 {
        2
    }

    fn counted_ops(&self) -> u64 {
        8
    }

    fn op(&mut self, _i: u64, spans: &mut Spans) -> Result<Answer, String> {
        let gov = &self.gov;
        let powerset = spans
            .call("calculus.powerset", || {
                eval_query(&self.powerset_q, &self.powerset_db, &self.calc_cfg)
            })
            .map_err(|e| format!("powerset: {e}"))?;
        let invention = spans
            .call("calculus.invention", || {
                eval_fi_governed(
                    &self.invention_q,
                    &self.invention_db,
                    self.invention_budget,
                    &self.calc_cfg,
                    gov,
                )
            })
            .map_err(|e| format!("invention: {e}"))?;
        let (bk, _derivations) = spans
            .call("bk.fixpoint", || {
                eval_fixpoint_governed(&self.bk_prog, &self.bk_input, &self.bk_cfg, gov)
            })
            .map_err(|e| format!("bk: {e}"))?;
        let tc = spans
            .call("algebra.while", || {
                eval_program_governed(&self.tc_prog, &self.tc_db, gov)
            })
            .map_err(|e| format!("while: {e}"))?;
        let gtm = spans
            .call("gtm.run", || {
                run_gtm_query_governed(
                    &self.gtm,
                    &self.gtm_db,
                    &self.gtm_schema,
                    &self.gtm_target,
                    gov,
                )
            })
            .map_err(|e| format!("gtm: {e}"))?;
        Ok(Answer {
            powerset,
            invention,
            bk,
            tc,
            gtm,
        })
    }

    fn check(&mut self, _i: u64, a: Answer, _counted: bool) -> Result<(), String> {
        if a.powerset.len() != self.powerset_count {
            return Err(format!(
                "powerset: {} sets, closed form 2^(n-|∪D|) = {}",
                a.powerset.len(),
                self.powerset_count
            ));
        }
        for s in a.powerset.iter() {
            match s {
                Value::Set(xs) if self.covered.is_subset(xs) => {}
                other => return Err(format!("powerset: {other} does not cover ∪D")),
            }
        }
        if a.invention.values() != &self.invention_rows {
            return Err(format!(
                "invention: {} rows, closed form |R|² = {}",
                a.invention.len(),
                self.invention_rows.len()
            ));
        }
        match a.bk.get("R") {
            Some(r) if r == &self.bk_rows => {}
            r => {
                return Err(format!(
                    "bk: {} R facts, expected (|R1|+1)·(|R2|+1) = {}",
                    r.map_or(0, |r| r.len()),
                    self.bk_rows.len()
                ))
            }
        }
        if a.tc.values() != &self.tc_rows {
            return Err(format!(
                "while-TC: {} pairs, reference closure has {}",
                a.tc.len(),
                self.tc_rows.len()
            ));
        }
        match a.gtm {
            Some(out) if out.values() == &self.gtm_rows => Ok(()),
            Some(out) => Err(format!(
                "gtm: {} rows differ from the swapped input",
                out.len()
            )),
            None => Err("gtm: undefined output".to_owned()),
        }
    }

    fn layer_metrics(&mut self, layer_ms: &LayerMs, m: &mut Metrics) {
        m.set_layer_ms("calculus.powerset_ms", layer_ms, "calculus.powerset");
        m.set_layer_ms("calculus.invention_ms", layer_ms, "calculus.invention");
        m.set_layer_ms("bk.fixpoint_ms", layer_ms, "bk.fixpoint");
        m.set_layer_ms("algebra.while_ms", layer_ms, "algebra.while");
        m.set_layer_ms("gtm.run_ms", layer_ms, "gtm.run");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn engines_agree_with_the_closed_forms_on_tiny_inputs() {
        let mut w = Invention::setup(4, Sizes::TINY, crate::governor());
        let mut spans = Spans::new(Instant::now());
        for i in 0..2 {
            let a = w.op(i, &mut spans).expect("op runs");
            w.check(i, a, true)
                .expect("answer matches the closed forms");
        }
    }

    #[test]
    fn a_wrong_count_fails_the_check() {
        let mut w = Invention::setup(4, Sizes::TINY, crate::governor());
        let mut spans = Spans::new(Instant::now());
        let mut a = w.op(0, &mut spans).expect("op runs");
        let extra = Value::Tuple(vec![atom(1), atom(2)]);
        a.invention.insert(extra);
        assert!(w.check(0, a, false).is_err());
    }
}
