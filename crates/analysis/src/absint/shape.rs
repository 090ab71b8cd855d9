//! The shape/arity domain: tuple arity and set-nesting-height bounds.
//!
//! Arity is a flat lattice (`Bot < Exact(n) < Mixed`) joined over every
//! defining rule head and (when a database is supplied) every EDB row.
//!
//! Height abstracts [`uset_object::Value::set_depth`]. The interesting
//! transfer is through invention: a set literal or function application
//! in a head builds a value one level deeper than its members, so a
//! recursive rule like the Theorem 5.1 chain `{u} ∈ F(a) ← u ∈ F(a)`
//! climbs the lattice forever. After [`WIDEN_AFTER`] plain iterations a
//! component is widened: every in-component height source is treated as
//! [`Height::Unbounded`], so a variable's bound falls back to the
//! tightest *out-of-component* constraint (an EDB guard keeps the chain
//! [`Height::Finite`]; no guard proves it [`Height::Unbounded`]).

use super::{Ctx, SymbolKind, WIDEN_AFTER};
use crate::passes::col::binding_vars;
use std::collections::{BTreeMap, BTreeSet};
use uset_deductive::{ColHead, ColLiteral, ColRule, ColTerm};
use uset_object::intern;

/// Abstract tuple arity of a symbol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arity {
    /// No defining occurrence observed.
    Bot,
    /// Every defining occurrence has this arity.
    Exact(usize),
    /// Conflicting arities.
    Mixed,
}

impl Arity {
    /// Least upper bound.
    pub fn join(self, other: Arity) -> Arity {
        match (self, other) {
            (Arity::Bot, x) | (x, Arity::Bot) => x,
            (Arity::Exact(a), Arity::Exact(b)) if a == b => Arity::Exact(a),
            _ => Arity::Mixed,
        }
    }
}

/// Abstract set-nesting height. For predicates this bounds the depth of
/// row components; for data functions, the depth of set *members*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Height {
    /// Empty — no value observed.
    Bot,
    /// Depth at most the given bound.
    AtMost(u32),
    /// Finite depth with no known numeric bound (EDB data is finite).
    Finite,
    /// Provably no finite bound: unguarded invention.
    Unbounded,
}

impl Height {
    fn rank(self) -> u64 {
        match self {
            Height::Bot => 0,
            Height::AtMost(h) => 1 + h as u64,
            Height::Finite => u64::MAX - 1,
            Height::Unbounded => u64::MAX,
        }
    }

    /// Least upper bound.
    pub fn join(self, other: Height) -> Height {
        if self.rank() >= other.rank() {
            self
        } else {
            other
        }
    }

    /// The tighter (smaller) of two upper bounds — how constraints on
    /// one variable combine.
    pub fn tighter(self, other: Height) -> Height {
        if self.rank() <= other.rank() {
            self
        } else {
            other
        }
    }

    /// Height after wrapping in one set constructor: one level deeper,
    /// and crucially finite stays finite.
    pub fn bump(self) -> Height {
        match self {
            Height::Bot => Height::AtMost(1), // the empty set has depth 1
            Height::AtMost(h) => Height::AtMost(h.saturating_add(1)),
            Height::Finite => Height::Finite,
            Height::Unbounded => Height::Unbounded,
        }
    }
}

/// Arity of every symbol: joined over rule heads, body uses contribute
/// only for otherwise-undefined (EDB) symbols, and database rows refine
/// EDB predicates.
pub(crate) fn arities(ctx: &Ctx<'_>) -> BTreeMap<String, Arity> {
    let mut out: BTreeMap<String, Arity> = BTreeMap::new();
    let join = |sym: &str, n: usize, out: &mut BTreeMap<String, Arity>| {
        let e = out.entry(sym.to_owned()).or_insert(Arity::Bot);
        *e = e.join(Arity::Exact(n));
    };
    for rule in &ctx.prog.rules {
        match &rule.head {
            ColHead::Pred { name, args } => join(name, args.len(), &mut out),
            ColHead::FuncMember { func, args, .. } => join(func, args.len(), &mut out),
        }
    }
    // body uses pin down the arity of symbols nothing defines
    for rule in &ctx.prog.rules {
        let use_site = |sym: &str, n: usize, out: &mut BTreeMap<String, Arity>| {
            if !ctx.defined.contains(sym) {
                join(sym, n, out);
            }
        };
        for lit in &rule.body {
            if let ColLiteral::Pred { name, args, .. } = lit {
                use_site(name, args.len(), &mut out);
            }
        }
        visit_applies(rule, &mut |f, n| use_site(f, n, &mut out));
    }
    // database rows refine predicates (tuple rows only; bare-object rows
    // of unary relations carry no column structure)
    if let Some(db) = ctx.db {
        for (sym, kind) in ctx.kinds {
            if *kind != SymbolKind::Pred {
                continue;
            }
            if let Some(inst) = db.get_ref(sym) {
                for row in inst.iter() {
                    if let Some(items) = row.as_tuple() {
                        join(sym, items.len(), &mut out);
                    }
                }
            }
        }
    }
    out
}

/// Walk every `Apply(f, args)` in a rule (head and body).
fn visit_applies(rule: &ColRule, f: &mut impl FnMut(&str, usize)) {
    fn term(t: &ColTerm, f: &mut impl FnMut(&str, usize)) {
        match t {
            ColTerm::Var(_) | ColTerm::Const(_) => {}
            ColTerm::Tuple(ts) | ColTerm::SetLit(ts) => ts.iter().for_each(|t| term(t, f)),
            ColTerm::Apply(name, ts) => {
                f(name, ts.len());
                ts.iter().for_each(|t| term(t, f));
            }
        }
    }
    match &rule.head {
        ColHead::Pred { args, .. } => args.iter().for_each(|t| term(t, f)),
        ColHead::FuncMember { args, elem, .. } => {
            args.iter().for_each(|t| term(t, f));
            term(elem, f);
        }
    }
    for lit in &rule.body {
        match lit {
            ColLiteral::Pred { args, .. } => args.iter().for_each(|t| term(t, f)),
            ColLiteral::Member { elem, set, .. } => {
                term(elem, f);
                term(set, f);
            }
            ColLiteral::Eq { left, right, .. } => {
                term(left, f);
                term(right, f);
            }
        }
    }
}

/// Height fixpoint in condensation order with per-component widening.
pub(crate) fn heights(ctx: &Ctx<'_>) -> BTreeMap<String, Height> {
    let mut h: BTreeMap<String, Height> = BTreeMap::new();
    // initial approximations for symbols the rules do not define
    for (sym, kind) in ctx.kinds {
        let init = if ctx.defined.contains(sym) {
            // defined predicates may still be seeded through the database
            db_height(ctx, sym).unwrap_or(Height::Bot)
        } else {
            match kind {
                // an unapplied EDB relation: finite data, bound unknown
                // unless the database is in hand
                SymbolKind::Pred => match ctx.db {
                    Some(_) => db_height(ctx, sym).unwrap_or(Height::Bot),
                    None => Height::Finite,
                },
                // a function nothing defines denotes the empty set
                SymbolKind::Func => Height::Bot,
            }
        };
        h.insert(sym.clone(), init);
    }
    for scc in ctx.sccs {
        let members: BTreeSet<&str> = scc.iter().map(String::as_str).collect();
        let rules: Vec<&ColRule> = scc
            .iter()
            .flat_map(|s| ctx.rules_of.get(s).into_iter().flatten())
            .map(|&i| &ctx.prog.rules[i])
            .collect();
        let mut stable = false;
        for _ in 0..WIDEN_AFTER {
            let mut changed = false;
            for rule in &rules {
                changed |= apply_rule(rule, &mut h, None);
            }
            if !changed {
                stable = true;
                break;
            }
        }
        if !stable {
            // widened evaluation: in-component sources contribute no
            // constraint, so the result depends only on already-final
            // out-of-component heights — one joined pass per rule plus a
            // settling pass reaches the post-widening fixpoint
            loop {
                let mut changed = false;
                for rule in &rules {
                    changed |= apply_rule(rule, &mut h, Some(&members));
                }
                if !changed {
                    break;
                }
            }
        }
    }
    h
}

/// The height of a symbol's database seeding: for predicates, the join
/// over row component depths.
fn db_height(ctx: &Ctx<'_>, sym: &str) -> Option<Height> {
    let inst = ctx.db?.get_ref(sym)?;
    let mut out = Height::Bot;
    for row in inst.iter() {
        // the per-row depth query is the U031 lint's hot loop: with the
        // pool on it reads cached node metadata instead of re-walking
        let d = match row.as_tuple() {
            Some(items) => items.iter().map(intern::fast_set_depth).max().unwrap_or(0),
            None => intern::fast_set_depth(row),
        };
        out = out.join(Height::AtMost(d.min(u32::MAX as usize) as u32));
    }
    Some(out)
}

/// Evaluate one rule under the current map, join the head contribution,
/// report whether anything grew. With `widen`, height sources inside the
/// component read as [`Height::Unbounded`].
fn apply_rule(
    rule: &ColRule,
    h: &mut BTreeMap<String, Height>,
    widen: Option<&BTreeSet<&str>>,
) -> bool {
    let src = |sym: &str, h: &BTreeMap<String, Height>| -> Height {
        if widen.is_some_and(|scc| scc.contains(sym)) {
            Height::Unbounded
        } else {
            h.get(sym).copied().unwrap_or(Height::Finite)
        }
    };
    // per-variable bounds: tightest constraint any positive literal
    // imposes; unconstrained variables are unbounded
    let mut var_bound: BTreeMap<String, Height> = BTreeMap::new();
    let constrain = |vars: BTreeSet<String>, bound: Height, m: &mut BTreeMap<String, Height>| {
        for v in vars {
            let e = m.entry(v).or_insert(Height::Unbounded);
            *e = e.tighter(bound);
        }
    };
    for lit in &rule.body {
        match lit {
            ColLiteral::Pred {
                name,
                args,
                positive: true,
            } => {
                let bound = src(name, h);
                let mut vars = BTreeSet::new();
                for t in args {
                    binding_vars(t, &mut vars);
                }
                constrain(vars, bound, &mut var_bound);
            }
            ColLiteral::Member {
                elem,
                set,
                positive: true,
            } => {
                // the members of the set term bound the element pattern
                let contents = match set {
                    ColTerm::Apply(f, _) => src(f, h),
                    ColTerm::Var(s) => match var_bound.get(s).copied() {
                        Some(Height::AtMost(d)) => Height::AtMost(d.saturating_sub(1)),
                        Some(other) => other,
                        None => Height::Unbounded,
                    },
                    _ => Height::Unbounded,
                };
                let mut vars = BTreeSet::new();
                binding_vars(elem, &mut vars);
                constrain(vars, contents, &mut var_bound);
            }
            // negated literals and equalities filter; they bind nothing
            _ => {}
        }
    }
    let term_height = |t: &ColTerm| -> Height {
        fn go(
            t: &ColTerm,
            var_bound: &BTreeMap<String, Height>,
            src: &dyn Fn(&str) -> Height,
        ) -> Height {
            match t {
                ColTerm::Var(v) => var_bound.get(v).copied().unwrap_or(Height::Unbounded),
                ColTerm::Const(c) => {
                    Height::AtMost(intern::fast_set_depth(c).min(u32::MAX as usize) as u32)
                }
                ColTerm::Tuple(ts) => ts
                    .iter()
                    .map(|t| go(t, var_bound, src))
                    .fold(Height::Bot, Height::join),
                ColTerm::SetLit(ts) => ts
                    .iter()
                    .map(|t| go(t, var_bound, src))
                    .fold(Height::Bot, Height::join)
                    .bump(),
                ColTerm::Apply(f, _) => src(f).bump(),
            }
        }
        go(t, &var_bound, &|f| src(f, h))
    };
    let (sym, contribution) = match &rule.head {
        ColHead::Pred { name, args } => (
            name,
            args.iter().map(term_height).fold(Height::Bot, Height::join),
        ),
        ColHead::FuncMember { func, elem, .. } => (func, term_height(elem)),
    };
    let entry = h.entry(sym.clone()).or_insert(Height::Bot);
    let joined = entry.join(contribution);
    let changed = joined != *entry;
    *entry = joined;
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn height_lattice_orders_and_bumps() {
        use Height::*;
        assert_eq!(Bot.join(AtMost(2)), AtMost(2));
        assert_eq!(AtMost(3).join(AtMost(1)), AtMost(3));
        assert_eq!(AtMost(9).join(Finite), Finite);
        assert_eq!(Finite.join(Unbounded), Unbounded);
        assert_eq!(Unbounded.tighter(Finite), Finite);
        assert_eq!(AtMost(4).tighter(Finite), AtMost(4));
        assert_eq!(Bot.bump(), AtMost(1));
        assert_eq!(AtMost(2).bump(), AtMost(3));
        assert_eq!(Finite.bump(), Finite, "finite + one level stays finite");
        assert_eq!(Unbounded.bump(), Unbounded);
    }

    #[test]
    fn arity_join_is_flat() {
        use Arity::*;
        assert_eq!(Bot.join(Exact(2)), Exact(2));
        assert_eq!(Exact(2).join(Exact(2)), Exact(2));
        assert_eq!(Exact(2).join(Exact(3)), Mixed);
        assert_eq!(Mixed.join(Exact(1)), Mixed);
    }
}
