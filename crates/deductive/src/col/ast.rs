//! Abstract syntax of COL programs over rtypes.
//!
//! COL (Abiteboul–Grumbach 1987) extends DATALOG with complex-object terms
//! and *data functions*: interpreted, set-valued function symbols built up
//! by rules with membership heads `t ∈ F(ū)`. The paper's §5 extension
//! replaces the strong typing of tsCOL with rtypes — each rule may annotate
//! its variables with [`RType`]s (unannotated variables default to `Obj`,
//! i.e. fully untyped).

use std::collections::HashMap;
use uset_object::{RType, Value};

/// A COL term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColTerm {
    /// Variable.
    Var(String),
    /// Constant object.
    Const(Value),
    /// Tuple constructor `[t1, …, tn]`.
    Tuple(Vec<ColTerm>),
    /// Set constructor `{t1, …, tn}` (finite, literal).
    SetLit(Vec<ColTerm>),
    /// Data-function application `F(t1, …, tn)`, denoting the (current)
    /// set value of `F` at the argument tuple.
    Apply(String, Vec<ColTerm>),
}

impl ColTerm {
    /// Shorthand variable.
    pub fn var(name: &str) -> ColTerm {
        ColTerm::Var(name.to_owned())
    }

    /// Shorthand constant.
    pub fn cst(v: Value) -> ColTerm {
        ColTerm::Const(v)
    }

    /// Variables occurring in the term, appended to `out`.
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            ColTerm::Var(v) => out.push(v.clone()),
            ColTerm::Const(_) => {}
            ColTerm::Tuple(ts) | ColTerm::SetLit(ts) | ColTerm::Apply(_, ts) => {
                for t in ts {
                    t.collect_vars(out);
                }
            }
        }
    }

    /// Function symbols used as *evaluated terms* in this term.
    pub fn collect_applies(&self, out: &mut Vec<String>) {
        match self {
            ColTerm::Var(_) | ColTerm::Const(_) => {}
            ColTerm::Tuple(ts) | ColTerm::SetLit(ts) => {
                for t in ts {
                    t.collect_applies(out);
                }
            }
            ColTerm::Apply(f, ts) => {
                out.push(f.clone());
                for t in ts {
                    t.collect_applies(out);
                }
            }
        }
    }
}

/// A body literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColLiteral {
    /// Predicate atom `P(t1, …, tn)` or its negation.
    Pred {
        /// Predicate name.
        name: String,
        /// Argument terms.
        args: Vec<ColTerm>,
        /// Polarity.
        positive: bool,
    },
    /// Membership `elem ∈ set` (or `∉`): `set` is any set-valued term
    /// (a variable, set literal or function application).
    Member {
        /// Element pattern (may bind variables when positive).
        elem: ColTerm,
        /// Set term (must be ground when reached).
        set: ColTerm,
        /// Polarity.
        positive: bool,
    },
    /// Equality `left ≈ right` (or inequality). Both sides must be ground
    /// when reached.
    Eq {
        /// Left term.
        left: ColTerm,
        /// Right term.
        right: ColTerm,
        /// Polarity.
        positive: bool,
    },
}

impl ColLiteral {
    /// Positive predicate literal.
    pub fn pred(name: &str, args: Vec<ColTerm>) -> ColLiteral {
        ColLiteral::Pred {
            name: name.to_owned(),
            args,
            positive: true,
        }
    }

    /// Negated predicate literal.
    pub fn not_pred(name: &str, args: Vec<ColTerm>) -> ColLiteral {
        ColLiteral::Pred {
            name: name.to_owned(),
            args,
            positive: false,
        }
    }

    /// Positive membership literal.
    pub fn member(elem: ColTerm, set: ColTerm) -> ColLiteral {
        ColLiteral::Member {
            elem,
            set,
            positive: true,
        }
    }

    /// Negated membership literal.
    pub fn not_member(elem: ColTerm, set: ColTerm) -> ColLiteral {
        ColLiteral::Member {
            elem,
            set,
            positive: false,
        }
    }

    /// Equality literal.
    pub fn eq(left: ColTerm, right: ColTerm) -> ColLiteral {
        ColLiteral::Eq {
            left,
            right,
            positive: true,
        }
    }

    /// Inequality literal.
    pub fn neq(left: ColTerm, right: ColTerm) -> ColLiteral {
        ColLiteral::Eq {
            left,
            right,
            positive: false,
        }
    }

    /// Polarity: false = negated.
    pub fn positive(&self) -> bool {
        match self {
            ColLiteral::Pred { positive, .. }
            | ColLiteral::Member { positive, .. }
            | ColLiteral::Eq { positive, .. } => *positive,
        }
    }
}

/// A rule head: either a predicate fact or a data-function membership.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColHead {
    /// `P(t1, …, tn) ← …`
    Pred {
        /// Predicate name.
        name: String,
        /// Argument terms.
        args: Vec<ColTerm>,
    },
    /// `t ∈ F(u1, …, um) ← …`
    FuncMember {
        /// Function symbol.
        func: String,
        /// Function arguments.
        args: Vec<ColTerm>,
        /// The element inserted into the set.
        elem: ColTerm,
    },
}

/// A COL rule with optional rtype annotations for its variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColRule {
    /// Head.
    pub head: ColHead,
    /// Body, evaluated left to right (earlier literals bind variables for
    /// later ones).
    pub body: Vec<ColLiteral>,
    /// rtype annotations; unlisted variables default to `Obj` (untyped).
    pub types: HashMap<String, RType>,
}

impl ColRule {
    /// A predicate-headed rule.
    pub fn pred(name: &str, args: Vec<ColTerm>, body: Vec<ColLiteral>) -> ColRule {
        ColRule {
            head: ColHead::Pred {
                name: name.to_owned(),
                args,
            },
            body,
            types: HashMap::new(),
        }
    }

    /// A function-membership-headed rule `elem ∈ func(args) ← body`.
    pub fn func_member(
        func: &str,
        args: Vec<ColTerm>,
        elem: ColTerm,
        body: Vec<ColLiteral>,
    ) -> ColRule {
        ColRule {
            head: ColHead::FuncMember {
                func: func.to_owned(),
                args,
                elem,
            },
            body,
            types: HashMap::new(),
        }
    }

    /// Annotate a variable with an rtype (builder style).
    pub fn with_type(mut self, var: &str, ty: RType) -> ColRule {
        self.types.insert(var.to_owned(), ty);
        self
    }

    /// The symbol defined by the head.
    pub fn head_symbol(&self) -> &str {
        match &self.head {
            ColHead::Pred { name, .. } => name,
            ColHead::FuncMember { func, .. } => func,
        }
    }
}

/// A COL program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColProgram {
    /// The rules.
    pub rules: Vec<ColRule>,
}

impl ColProgram {
    /// Build from rules.
    pub fn new(rules: Vec<ColRule>) -> ColProgram {
        ColProgram { rules }
    }

    /// Head symbols (predicates and functions defined by the program).
    pub fn defined_symbols(&self) -> std::collections::BTreeSet<String> {
        self.rules
            .iter()
            .map(|r| r.head_symbol().to_owned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uset_object::atom;

    #[test]
    fn collect_vars_and_applies() {
        let t = ColTerm::Tuple(vec![
            ColTerm::var("x"),
            ColTerm::SetLit(vec![ColTerm::var("y"), ColTerm::cst(atom(1))]),
            ColTerm::Apply("F".into(), vec![ColTerm::var("x")]),
        ]);
        let mut vars = Vec::new();
        t.collect_vars(&mut vars);
        assert_eq!(vars, vec!["x", "y", "x"]);
        let mut fs = Vec::new();
        t.collect_applies(&mut fs);
        assert_eq!(fs, vec!["F"]);
    }

    #[test]
    fn rule_builders() {
        let r = ColRule::func_member(
            "F",
            vec![ColTerm::cst(atom(0))],
            ColTerm::var("u"),
            vec![ColLiteral::pred("R", vec![ColTerm::var("u")])],
        )
        .with_type("u", RType::Atomic);
        assert_eq!(r.head_symbol(), "F");
        assert_eq!(r.types["u"], RType::Atomic);
        let p = ColRule::pred("ANS", vec![ColTerm::var("x")], vec![]);
        assert_eq!(p.head_symbol(), "ANS");
    }
}
