//! The predicate language of the engine.
//!
//! Query handles (§7) translate their arguments into these predicates. The
//! language is intentionally small — equality, case-insensitive equality,
//! wildcard matching (for all the "may contain wildcards" queries), integer
//! comparison, and boolean combination — because the paper's design rule is
//! to "maximize local processing in applications": the server never
//! evaluates complex requests.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;
use std::marker::PhantomData;

use crate::schema::{Col, ColId, Int, Str};
use crate::value::Value;
use moira_common::wildcard;

/// A row predicate over column positions, relation erased: the one form the
/// planner and the executor work on. Built only through [`Pred`].
#[derive(Debug, Clone)]
pub(crate) enum RawPred {
    True,
    Eq(ColId, Value),
    EqCi(ColId, String),
    Like(ColId, String),
    LikeCi(ColId, String),
    Cmp(ColId, CmpOp, i64),
    And(Vec<RawPred>),
    Or(Vec<RawPred>),
    Not(Box<RawPred>),
}

/// A row predicate over the columns of relation `R`.
///
/// A thin tag over the engine's index-based predicate: the constructors are
/// spelled like the enum variants they stand for (`Pred::Eq(users::LOGIN,
/// v)`, `Pred::True`) and take [`Col<R, K>`], so a predicate can only combine
/// columns of one relation and selects only from that relation's table,
/// while one untagged copy of the planner serves every relation. The string
/// matches take `str` columns only and `Cmp` takes `int` columns only.
pub struct Pred<R> {
    raw: RawPred,
    _rel: PhantomData<fn() -> R>,
}

impl<R> Clone for Pred<R> {
    fn clone(&self) -> Self {
        Pred::tag(self.raw.clone())
    }
}

impl<R> fmt::Debug for Pred<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.raw.fmt(f)
    }
}

/// Comparison operators for [`Pred::Cmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
}

#[allow(non_snake_case, non_upper_case_globals)]
impl<R> Pred<R> {
    const fn tag(raw: RawPred) -> Self {
        Pred {
            raw,
            _rel: PhantomData,
        }
    }

    pub(crate) fn raw(&self) -> &RawPred {
        &self.raw
    }

    /// Matches every row.
    pub const True: Self = Pred::tag(RawPred::True);

    /// Column equals value exactly.
    pub fn Eq<K>(col: Col<R, K>, value: Value) -> Self {
        Pred::tag(RawPred::Eq(col.id(), value))
    }

    /// String column equals, ASCII case-insensitively.
    pub fn EqCi(col: Col<R, Str>, value: String) -> Self {
        Pred::tag(RawPred::EqCi(col.id(), value))
    }

    /// String column matches a `*`/`?` wildcard pattern.
    pub fn Like(col: Col<R, Str>, pattern: String) -> Self {
        Pred::tag(RawPred::Like(col.id(), pattern))
    }

    /// String column matches a wildcard pattern case-insensitively.
    pub fn LikeCi(col: Col<R, Str>, pattern: String) -> Self {
        Pred::tag(RawPred::LikeCi(col.id(), pattern))
    }

    /// Integer column compares `< / <= / > / >=` against a bound.
    pub fn Cmp(col: Col<R, Int>, op: CmpOp, bound: i64) -> Self {
        Pred::tag(RawPred::Cmp(col.id(), op, bound))
    }

    /// All sub-predicates hold.
    pub fn And(preds: Vec<Pred<R>>) -> Self {
        Pred::tag(RawPred::And(preds.into_iter().map(|p| p.raw).collect()))
    }

    /// Any sub-predicate holds.
    pub fn Or(preds: Vec<Pred<R>>) -> Self {
        Pred::tag(RawPred::Or(preds.into_iter().map(|p| p.raw).collect()))
    }

    /// Sub-predicate does not hold.
    pub fn Not(pred: Pred<R>) -> Self {
        Pred::tag(RawPred::Not(Box::new(pred.raw)))
    }

    /// Convenience: conjunction of two predicates.
    pub fn and(self, other: Pred<R>) -> Pred<R> {
        Pred::tag(match self.raw {
            RawPred::And(mut v) => {
                v.push(other.raw);
                RawPred::And(v)
            }
            p => RawPred::And(vec![p, other.raw]),
        })
    }

    /// Builds an `Eq` or `Like` predicate depending on whether the argument
    /// contains wildcards — the standard treatment of "may contain
    /// wildcards" query arguments.
    pub fn name_match(col: Col<R, Str>, arg: &str) -> Pred<R> {
        if wildcard::has_wildcards(arg) {
            Pred::Like(col, arg.to_owned())
        } else {
            Pred::Eq(col, Value::Str(arg.into()))
        }
    }

    /// Case-insensitive variant of [`Pred::name_match`] (machines,
    /// services).
    pub fn name_match_ci(col: Col<R, Str>, arg: &str) -> Pred<R> {
        if wildcard::has_wildcards(arg) {
            Pred::LikeCi(col, arg.to_owned())
        } else {
            Pred::EqCi(col, arg.to_owned())
        }
    }
}

impl RawPred {
    /// Evaluates the predicate against a row of the relation it was built
    /// for.
    pub(crate) fn eval(&self, row: &[Value]) -> bool {
        match self {
            RawPred::True => true,
            RawPred::Eq(col, v) => &row[col.idx] == v,
            RawPred::EqCi(col, s) => match &row[col.idx] {
                Value::Str(t) => t.eq_ignore_ascii_case(s),
                _ => false,
            },
            RawPred::Like(col, pat) => match &row[col.idx] {
                Value::Str(t) => wildcard::matches(pat, t),
                _ => false,
            },
            RawPred::LikeCi(col, pat) => match &row[col.idx] {
                Value::Str(t) => wildcard::matches_ci(pat, t),
                _ => false,
            },
            RawPred::Cmp(col, op, bound) => match &row[col.idx] {
                Value::Int(i) => match op {
                    CmpOp::Lt => i < bound,
                    CmpOp::Le => i <= bound,
                    CmpOp::Gt => i > bound,
                    CmpOp::Ge => i >= bound,
                },
                _ => false,
            },
            RawPred::And(ps) => ps.iter().all(|p| p.eval(row)),
            RawPred::Or(ps) => ps.iter().any(|p| p.eval(row)),
            RawPred::Not(p) => !p.eval(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::relations! {
        t { LOGIN: str "login", UID: int "uid", ACTIVE: boolean "active" }
    }
    use t::{ACTIVE, LOGIN, UID};

    fn row() -> Vec<Value> {
        vec![
            Value::Str("babette".into()),
            Value::Int(6530),
            Value::Bool(true),
        ]
    }

    fn holds(pred: Pred<t::R>) -> bool {
        pred.raw().eval(&row())
    }

    #[test]
    fn eq_and_like() {
        assert!(holds(Pred::Eq(LOGIN, "babette".into())));
        assert!(holds(Pred::Like(LOGIN, "bab*".into())));
        assert!(!holds(Pred::Like(LOGIN, "z*".into())));
    }

    #[test]
    fn case_insensitive() {
        assert!(holds(Pred::EqCi(LOGIN, "BABETTE".into())));
        assert!(holds(Pred::LikeCi(LOGIN, "BAB*".into())));
    }

    #[test]
    fn comparisons() {
        assert!(holds(Pred::Cmp(UID, CmpOp::Gt, 6000)));
        assert!(!holds(Pred::Cmp(UID, CmpOp::Lt, 6000)));
        assert!(holds(Pred::Cmp(UID, CmpOp::Ge, 6530)));
        assert!(holds(Pred::Cmp(UID, CmpOp::Le, 6530)));
    }

    #[test]
    fn boolean_combinators() {
        assert!(holds(
            Pred::Eq(ACTIVE, true.into()).and(Pred::Like(LOGIN, "b*".into()))
        ));
        assert!(holds(Pred::Or(vec![
            Pred::Eq(UID, 1.into()),
            Pred::Eq(UID, 6530.into()),
        ])));
        assert!(!holds(Pred::Not(Pred::True)));
    }

    #[test]
    fn name_match_chooses_representation() {
        assert!(matches!(
            Pred::name_match(LOGIN, "bab*").raw(),
            RawPred::Like(..)
        ));
        assert!(matches!(
            Pred::name_match(LOGIN, "babette").raw(),
            RawPred::Eq(..)
        ));
    }
}
