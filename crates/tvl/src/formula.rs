//! First-order formulas with transitive closure.
//!
//! Formulas are the expression sub-language of a first-order transition
//! system (paper §4.1): they appear as predicate-update right-hand sides, as
//! `requires` checks, as separation-strategy choice conditions, and as the
//! defining formulas of instrumentation predicates such as `relevant`.
//!
//! Variables are plain indices ([`Var`]); quantifiers bind a variable index
//! within their body. Builders on [`Formula`] keep construction readable:
//!
//! ```
//! use hetsep_tvl::formula::{Formula, Var};
//! use hetsep_tvl::{PredTable, PredFlags};
//! let mut t = PredTable::new();
//! let x = t.add_unary("x", PredFlags::reference_variable());
//! let f = t.add_binary("f", PredFlags::reference_field());
//! let (v, w) = (Var(0), Var(1));
//! // ∃w. x(w) ∧ f(w, v)
//! let phi = Formula::exists(w, Formula::unary(x, w).and(Formula::binary(f, w, v)));
//! assert_eq!(phi.free_vars(), vec![v]);
//! ```

use std::fmt;

use crate::kleene::Kleene;
use crate::pred::PredId;

/// A logical variable, identified by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u16);

impl From<u16> for Var {
    fn from(ix: u16) -> Var {
        Var(ix)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A first-order formula with transitive closure over three-valued
/// structures.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// A constant truth value.
    Const(Kleene),
    /// A nullary predicate occurrence.
    Nullary(PredId),
    /// A unary predicate applied to a variable.
    Unary(PredId, Var),
    /// A binary predicate applied to two variables.
    Binary(PredId, Var, Var),
    /// Equality of two individuals. On a summary node `u`, `u == u`
    /// evaluates to `1/2` (the node may stand for several individuals).
    Eq(Var, Var),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Existential quantification.
    Exists(Var, Box<Formula>),
    /// Universal quantification.
    Forall(Var, Box<Formula>),
    /// `Tc { lhs, rhs, a, b, body }` is the (non-reflexive) transitive
    /// closure `(TC a,b : body)(lhs, rhs)`: there is a path of one or more
    /// `body`-steps from `lhs` to `rhs`.
    Tc {
        /// Source endpoint of the closure query.
        lhs: Var,
        /// Target endpoint of the closure query.
        rhs: Var,
        /// Step source variable bound by the closure.
        a: Var,
        /// Step target variable bound by the closure.
        b: Var,
        /// Step formula relating `a` to `b`.
        body: Box<Formula>,
    },
}

impl Formula {
    /// The constant `1`.
    pub fn tt() -> Formula {
        Formula::Const(Kleene::True)
    }

    /// The constant `0`.
    pub fn ff() -> Formula {
        Formula::Const(Kleene::False)
    }

    /// A unary predicate occurrence `p(v)`.
    pub fn unary(p: PredId, v: Var) -> Formula {
        Formula::Unary(p, v)
    }

    /// A binary predicate occurrence `p(a, b)`.
    pub fn binary(p: PredId, a: Var, b: Var) -> Formula {
        Formula::Binary(p, a, b)
    }

    /// A nullary predicate occurrence `p()`.
    pub fn nullary(p: PredId) -> Formula {
        Formula::Nullary(p)
    }

    /// Equality `a == b`.
    pub fn eq(a: Var, b: Var) -> Formula {
        Formula::Eq(a, b)
    }

    /// Negation `¬self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Conjunction `self ∧ rhs`.
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction `self ∨ rhs`.
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(rhs))
    }

    /// Implication `self → rhs`, desugared to `¬self ∨ rhs`.
    pub fn implies(self, rhs: Formula) -> Formula {
        self.not().or(rhs)
    }

    /// If-then-else `cond ? self : other`, desugared to
    /// `(cond ∧ self) ∨ (¬cond ∧ other)`.
    pub fn ite(cond: Formula, then: Formula, other: Formula) -> Formula {
        cond.clone().and(then).or(cond.not().and(other))
    }

    /// Existential quantification `∃v. self`.
    pub fn exists(v: Var, body: Formula) -> Formula {
        Formula::Exists(v, Box::new(body))
    }

    /// Universal quantification `∀v. self`.
    pub fn forall(v: Var, body: Formula) -> Formula {
        Formula::Forall(v, Box::new(body))
    }

    /// Non-reflexive transitive closure `(TC a,b : body)(lhs, rhs)`.
    pub fn tc(lhs: Var, rhs: Var, a: Var, b: Var, body: Formula) -> Formula {
        Formula::Tc {
            lhs,
            rhs,
            a,
            b,
            body: Box::new(body),
        }
    }

    /// Conjunction of an iterator of formulas; empty conjunction is `1`.
    pub fn and_all(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut it = fs.into_iter();
        match it.next() {
            None => Formula::tt(),
            Some(first) => it.fold(first, Formula::and),
        }
    }

    /// Disjunction of an iterator of formulas; empty disjunction is `0`.
    pub fn or_all(fs: impl IntoIterator<Item = Formula>) -> Formula {
        let mut it = fs.into_iter();
        match it.next() {
            None => Formula::ff(),
            Some(first) => it.fold(first, Formula::or),
        }
    }

    /// Free variables of the formula, in ascending order without duplicates.
    pub fn free_vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out.sort();
        out.dedup();
        out
    }

    fn collect_free(&self, bound: &mut Vec<Var>, out: &mut Vec<Var>) {
        match self {
            Formula::Const(_) | Formula::Nullary(_) => {}
            Formula::Unary(_, v) => {
                if !bound.contains(v) {
                    out.push(*v);
                }
            }
            Formula::Binary(_, a, b) | Formula::Eq(a, b) => {
                for v in [a, b] {
                    if !bound.contains(v) {
                        out.push(*v);
                    }
                }
            }
            Formula::Not(f) => f.collect_free(bound, out),
            Formula::And(l, r) | Formula::Or(l, r) => {
                l.collect_free(bound, out);
                r.collect_free(bound, out);
            }
            Formula::Exists(v, f) | Formula::Forall(v, f) => {
                bound.push(*v);
                f.collect_free(bound, out);
                bound.pop();
            }
            Formula::Tc { lhs, rhs, a, b, body } => {
                for v in [lhs, rhs] {
                    if !bound.contains(v) {
                        out.push(*v);
                    }
                }
                bound.push(*a);
                bound.push(*b);
                body.collect_free(bound, out);
                bound.pop();
                bound.pop();
            }
        }
    }

    /// Renames every *free* occurrence of `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` would be captured by a quantifier binding `to` while
    /// `from` occurs free beneath it.
    pub fn rename_free(&self, from: Var, to: Var) -> Formula {
        match self {
            Formula::Const(_) | Formula::Nullary(_) => self.clone(),
            Formula::Unary(p, v) => Formula::Unary(*p, if *v == from { to } else { *v }),
            Formula::Binary(p, a, b) => Formula::Binary(
                *p,
                if *a == from { to } else { *a },
                if *b == from { to } else { *b },
            ),
            Formula::Eq(a, b) => Formula::Eq(
                if *a == from { to } else { *a },
                if *b == from { to } else { *b },
            ),
            Formula::Not(f) => f.rename_free(from, to).not(),
            Formula::And(l, r) => l.rename_free(from, to).and(r.rename_free(from, to)),
            Formula::Or(l, r) => l.rename_free(from, to).or(r.rename_free(from, to)),
            Formula::Exists(v, f) => {
                if *v == from {
                    self.clone()
                } else {
                    assert!(
                        *v != to || !f.free_vars().contains(&from),
                        "variable capture while renaming {from} to {to}"
                    );
                    Formula::exists(*v, f.rename_free(from, to))
                }
            }
            Formula::Forall(v, f) => {
                if *v == from {
                    self.clone()
                } else {
                    assert!(
                        *v != to || !f.free_vars().contains(&from),
                        "variable capture while renaming {from} to {to}"
                    );
                    Formula::forall(*v, f.rename_free(from, to))
                }
            }
            Formula::Tc { lhs, rhs, a, b, body } => {
                let nl = if *lhs == from { to } else { *lhs };
                let nr = if *rhs == from { to } else { *rhs };
                if *a == from || *b == from {
                    Formula::Tc {
                        lhs: nl,
                        rhs: nr,
                        a: *a,
                        b: *b,
                        body: body.clone(),
                    }
                } else {
                    assert!(
                        (*a != to && *b != to) || !body.free_vars().contains(&from),
                        "variable capture while renaming {from} to {to}"
                    );
                    Formula::Tc {
                        lhs: nl,
                        rhs: nr,
                        a: *a,
                        b: *b,
                        body: Box::new(body.rename_free(from, to)),
                    }
                }
            }
        }
    }

    /// Predicates occurring in the formula, in ascending id order without
    /// duplicates.
    pub fn preds(&self) -> Vec<PredId> {
        fn collect(f: &Formula, out: &mut Vec<PredId>) {
            match f {
                Formula::Const(_) | Formula::Eq(..) => {}
                Formula::Nullary(p) | Formula::Unary(p, _) | Formula::Binary(p, ..) => out.push(*p),
                Formula::Not(x) | Formula::Exists(_, x) | Formula::Forall(_, x) => collect(x, out),
                Formula::And(a, b) | Formula::Or(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
                Formula::Tc { body, .. } => collect(body, out),
            }
        }
        let mut out = Vec::new();
        collect(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Largest variable index mentioned anywhere (free or bound), used for
    /// picking fresh variables.
    pub fn max_var(&self) -> Option<Var> {
        match self {
            Formula::Const(_) | Formula::Nullary(_) => None,
            Formula::Unary(_, v) => Some(*v),
            Formula::Binary(_, a, b) | Formula::Eq(a, b) => Some(*a.max(b)),
            Formula::Not(f) => f.max_var(),
            Formula::And(l, r) | Formula::Or(l, r) => match (l.max_var(), r.max_var()) {
                (None, x) | (x, None) => x,
                (Some(a), Some(b)) => Some(a.max(b)),
            },
            Formula::Exists(v, f) | Formula::Forall(v, f) => {
                Some(f.max_var().map_or(*v, |m| m.max(*v)))
            }
            Formula::Tc { lhs, rhs, a, b, body } => {
                let mut m = (*lhs).max(*rhs).max(*a).max(*b);
                if let Some(bm) = body.max_var() {
                    m = m.max(bm);
                }
                Some(m)
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Const(k) => write!(f, "{k}"),
            Formula::Nullary(p) => write!(f, "{p}()"),
            Formula::Unary(p, v) => write!(f, "{p}({v})"),
            Formula::Binary(p, a, b) => write!(f, "{p}({a},{b})"),
            Formula::Eq(a, b) => write!(f, "{a}=={b}"),
            Formula::Not(x) => write!(f, "!({x})"),
            Formula::And(l, r) => write!(f, "({l} & {r})"),
            Formula::Or(l, r) => write!(f, "({l} | {r})"),
            Formula::Exists(v, x) => write!(f, "(E {v}. {x})"),
            Formula::Forall(v, x) => write!(f, "(A {v}. {x})"),
            Formula::Tc { lhs, rhs, a, b, body } => {
                write!(f, "(TC {a},{b}: {body})({lhs},{rhs})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::{PredFlags, PredTable};

    fn preds() -> (PredTable, PredId, PredId) {
        let mut t = PredTable::new();
        let x = t.add_unary("x", PredFlags::reference_variable());
        let f = t.add_binary("f", PredFlags::reference_field());
        (t, x, f)
    }

    #[test]
    fn free_vars_respects_binders() {
        let (_t, x, f) = preds();
        let (v0, v1, v2) = (Var(0), Var(1), Var(2));
        let phi = Formula::exists(v1, Formula::unary(x, v1).and(Formula::binary(f, v1, v0)));
        assert_eq!(phi.free_vars(), vec![v0]);
        let tc = Formula::tc(v0, v2, Var(3), Var(4), Formula::binary(f, Var(3), Var(4)));
        assert_eq!(tc.free_vars(), vec![v0, v2]);
    }

    #[test]
    fn rename_free_skips_bound() {
        let (_t, x, _f) = preds();
        let (v0, v1) = (Var(0), Var(1));
        let phi = Formula::unary(x, v0).and(Formula::exists(v0, Formula::unary(x, v0)));
        let renamed = phi.rename_free(v0, v1);
        assert_eq!(
            renamed,
            Formula::unary(x, v1).and(Formula::exists(v0, Formula::unary(x, v0)))
        );
    }

    #[test]
    #[should_panic(expected = "variable capture")]
    fn rename_detects_capture() {
        let (_t, x, _f) = preds();
        let (v0, v1) = (Var(0), Var(1));
        // ∃v1. x(v0) — renaming v0→v1 would be captured.
        let phi = Formula::exists(v1, Formula::unary(x, v0));
        let _ = phi.rename_free(v0, v1);
    }

    #[test]
    fn and_all_or_all_units() {
        assert_eq!(Formula::and_all([]), Formula::tt());
        assert_eq!(Formula::or_all([]), Formula::ff());
        let (_t, x, _f) = preds();
        let a = Formula::unary(x, Var(0));
        assert_eq!(Formula::and_all([a.clone()]), a);
    }

    #[test]
    fn max_var_spans_binders() {
        let (_t, x, f) = preds();
        let phi = Formula::exists(Var(7), Formula::unary(x, Var(7)).and(Formula::binary(f, Var(2), Var(7))));
        assert_eq!(phi.max_var(), Some(Var(7)));
        assert_eq!(Formula::tt().max_var(), None);
    }

    #[test]
    fn display_is_readable() {
        let (_t, x, f) = preds();
        let phi = Formula::exists(Var(1), Formula::unary(x, Var(1)).and(Formula::binary(f, Var(1), Var(0))));
        let s = phi.to_string();
        assert!(s.contains("E v1"), "{s}");
        assert!(s.contains('&'), "{s}");
    }
}
