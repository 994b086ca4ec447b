//! The predicate planner.
//!
//! Given a [`Pred`](crate::Pred) and the index statistics of one table, the
//! planner picks an access path: a single index bucket, a linear merge of two
//! buckets, a prefix walk over the ordered index, or the full-scan fallback.
//! Columns arrive as positions ([`ColId`]) — the relation tag of the typed
//! predicate is already erased, so one planner serves every relation. The chosen
//! [`Plan`] only narrows the *candidate* set — execution re-evaluates the
//! whole predicate against every candidate row, so a plan can never change
//! results, only cost (the property the proptest oracle pins down).
//!
//! Costs are counted in abstract row-work units: evaluating the predicate
//! against a fetched candidate costs [`EVAL_COST`]; stepping a sorted-bucket
//! merge costs 1. Cardinalities come live from the index buckets themselves
//! (exact, not sampled — a `BTreeMap` bucket knows its length), and the scan
//! baseline from the table's slab length, so the model needs no statistics
//! refresh step. Prefix ranges are costed by a bounded walk capped at the
//! scan cost: pathological prefixes ("a*" over a million logins) price
//! themselves out without the planner itself going linear.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::query::RawPred;
use crate::schema::ColId;
use crate::value::Value;

/// Work units to fetch a candidate row and evaluate the predicate on it,
/// relative to one sorted-merge step.
pub(crate) const EVAL_COST: usize = 4;

/// Bucket size above which a second conjunct's bucket is worth merging.
pub(crate) const INTERSECT_MIN_BUCKET: usize = 16;

/// An access path chosen for one predicate against one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// One exact-value bucket of a secondary index. `ci` selects the
    /// case-folded index; the value then holds the folded key.
    IndexPoint {
        /// Indexed column.
        col: ColId,
        /// Bucket key (folded lowercase when `ci`).
        value: Value,
        /// Use the case-folded index.
        ci: bool,
    },
    /// Linear merge of two sorted exact-value buckets; candidates are the
    /// ids present in both.
    IndexIntersect {
        /// The two `(column, key)` buckets, smallest first.
        terms: Vec<(ColId, Value)>,
    },
    /// All buckets whose string key starts with a literal prefix — the
    /// `name_match("ab*")` shape — walked in key order over the `BTreeMap`
    /// index. `ci` walks the case-folded index with a folded prefix.
    IndexRange {
        /// Indexed string column.
        col: ColId,
        /// Literal prefix (folded lowercase when `ci`).
        prefix: String,
        /// Use the case-folded index.
        ci: bool,
    },
    /// Full slab scan.
    Scan,
}

impl Plan {
    /// The obs counter suffix and EXPLAIN head for this plan shape.
    pub fn kind(&self) -> &'static str {
        match self {
            Plan::IndexPoint { .. } => "point",
            Plan::IndexIntersect { .. } => "intersect",
            Plan::IndexRange { .. } => "range",
            Plan::Scan => "scan",
        }
    }

    /// EXPLAIN-style one-line description, e.g.
    /// `IndexPoint(login="kit")`, `IndexIntersect(list_id=7 & member_id=44)`,
    /// `IndexRange(name ci "w*")`, `Scan`.
    pub fn describe(&self) -> String {
        match self {
            Plan::IndexPoint { col, value, ci } => {
                let fold = if *ci { " ci" } else { "" };
                format!("IndexPoint({}{fold}={value})", col.name)
            }
            Plan::IndexIntersect { terms } => {
                let parts: Vec<String> = terms
                    .iter()
                    .map(|(c, v)| format!("{}={v}", c.name))
                    .collect();
                format!("IndexIntersect({})", parts.join(" & "))
            }
            Plan::IndexRange { col, prefix, ci } => {
                let fold = if *ci { " ci" } else { "" };
                format!("IndexRange({}{fold} \"{prefix}*\")", col.name)
            }
            Plan::Scan => "Scan".to_owned(),
        }
    }
}

/// Live index statistics the cost model reads. Implemented by `Table`, so
/// the planner itself stays free of storage details.
pub(crate) trait PlanStats {
    /// True when `col` carries a secondary index.
    fn is_indexed(&self, col: ColId) -> bool;
    /// True when `col` carries the case-folded companion index (indexed
    /// string columns only).
    fn has_folded_index(&self, col: ColId) -> bool;
    /// Exact bucket length for `col = value` (0 when the key is absent).
    fn bucket_len(&self, col: ColId, value: &Value) -> usize;
    /// Exact bucket length in the folded index for a folded key.
    fn folded_bucket_len(&self, col: ColId, folded: &str) -> usize;
    /// Total ids under the keys starting with `prefix`, walking the index in
    /// order and giving up once the running total reaches `budget`
    /// (returns at least `budget` in that case).
    fn range_len(&self, col: ColId, prefix: &str, ci: bool, budget: usize) -> usize;
    /// Slab length — live rows plus free slots, the cost of a full scan.
    fn slab_len(&self) -> usize;
    /// Live row count, for intersection selectivity.
    fn live_len(&self) -> usize;
}

/// One indexable conjunct found in the predicate.
enum Cand {
    /// `Eq` on an indexed column: bucket key, candidate count.
    Point(ColId, Value, usize),
    /// `EqCi` on a folded-indexed column: folded key, candidate count.
    PointCi(ColId, String, usize),
    /// `Like`/`LikeCi` with a literal prefix: folded flag, candidate count.
    Range(ColId, String, bool, usize),
}

impl Cand {
    fn rows(&self) -> usize {
        match *self {
            Cand::Point(_, _, n) | Cand::PointCi(_, _, n) | Cand::Range(_, _, _, n) => n,
        }
    }
}

/// The literal text before the first wildcard of a pattern, or `None` when
/// the pattern starts with a wildcard (no useful range).
pub(crate) fn literal_prefix(pat: &str) -> Option<&str> {
    let end = pat.find(['*', '?']).unwrap_or(pat.len());
    if end == 0 {
        None
    } else {
        Some(&pat[..end])
    }
}

/// Appends the top-level conjuncts of `pred` (flattening nested `And`s).
fn conjuncts<'p>(pred: &'p RawPred, out: &mut Vec<&'p RawPred>) {
    match pred {
        RawPred::And(ps) => {
            for p in ps {
                conjuncts(p, out);
            }
        }
        p => out.push(p),
    }
}

/// Chooses an access path for `pred` over the table described by `stats`.
pub(crate) fn choose(pred: &RawPred, stats: &dyn PlanStats) -> Plan {
    let scan_cost = stats.slab_len().saturating_mul(EVAL_COST);
    let mut flat = Vec::new();
    conjuncts(pred, &mut flat);

    let mut cands: Vec<Cand> = Vec::new();
    for p in &flat {
        match p {
            RawPred::Eq(col, v) if stats.is_indexed(*col) => {
                cands.push(Cand::Point(*col, v.clone(), stats.bucket_len(*col, v)));
            }
            RawPred::EqCi(col, s) if stats.has_folded_index(*col) => {
                let folded = s.to_ascii_lowercase();
                let n = stats.folded_bucket_len(*col, &folded);
                cands.push(Cand::PointCi(*col, folded, n));
            }
            RawPred::Like(col, pat) if stats.is_indexed(*col) => {
                if let Some(prefix) = literal_prefix(pat) {
                    let n = stats.range_len(*col, prefix, false, stats.slab_len());
                    cands.push(Cand::Range(*col, prefix.to_owned(), false, n));
                }
            }
            RawPred::LikeCi(col, pat) if stats.has_folded_index(*col) => {
                if let Some(prefix) = literal_prefix(pat) {
                    let folded = prefix.to_ascii_lowercase();
                    let n = stats.range_len(*col, &folded, true, stats.slab_len());
                    cands.push(Cand::Range(*col, folded, true, n));
                }
            }
            _ => {}
        }
    }
    if cands.is_empty() {
        return Plan::Scan;
    }

    cands.sort_by_key(Cand::rows);
    let best_cost = cands[0].rows().saturating_mul(EVAL_COST);

    // A merge of the two smallest exact buckets beats filtering the single
    // best bucket when both buckets are substantial and the expected
    // intersection is tiny (independent-selectivity estimate).
    let mut points: Vec<(ColId, &Value, usize)> = cands
        .iter()
        .filter_map(|c| match c {
            Cand::Point(col, v, n) => Some((*col, v, *n)),
            _ => None,
        })
        .collect();
    points.sort_by_key(|&(_, _, n)| n);
    // Two buckets on the same column never intersect usefully.
    let second = points
        .iter()
        .skip(1)
        .find(|&&(col, _, _)| col != points[0].0);
    if let (Some(&(c1, v1, n1)), Some(&(c2, v2, n2))) = (points.first(), second) {
        if n1 >= INTERSECT_MIN_BUCKET {
            let live = stats.live_len().max(1);
            let expected = ((n1.saturating_mul(n2)) / live).max(1);
            let merge_cost = n1 + n2 + expected.saturating_mul(EVAL_COST);
            if merge_cost < best_cost && merge_cost < scan_cost {
                return Plan::IndexIntersect {
                    terms: vec![(c1, v1.clone()), (c2, v2.clone())],
                };
            }
        }
    }

    if best_cost >= scan_cost {
        return Plan::Scan;
    }
    match &cands[0] {
        Cand::Point(col, v, _) => Plan::IndexPoint {
            col: *col,
            value: v.clone(),
            ci: false,
        },
        Cand::PointCi(col, folded, _) => Plan::IndexPoint {
            col: *col,
            value: Value::Str(folded.as_str().into()),
            ci: true,
        },
        Cand::Range(col, prefix, ci, _) => Plan::IndexRange {
            col: *col,
            prefix: prefix.clone(),
            ci: *ci,
        },
    }
}

/// The exclusive upper bound of the range of strings starting with
/// `prefix`, or `None` when the range is unbounded above. Works in char
/// space — UTF-8 byte order equals code-point order, so bumping the last
/// char bounds every continuation of the prefix.
pub(crate) fn prefix_upper_bound(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(last) = chars.pop() {
        if let Some(next) = next_char(last) {
            chars.push(next);
            return Some(chars.into_iter().collect());
        }
    }
    None
}

/// The next code point after `c`, skipping the surrogate gap.
fn next_char(c: char) -> Option<char> {
    let mut u = c as u32 + 1;
    if u == 0xD800 {
        u = 0xE000;
    }
    char::from_u32(u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_prefix_extraction() {
        assert_eq!(literal_prefix("ab*"), Some("ab"));
        assert_eq!(literal_prefix("ab?cd*"), Some("ab"));
        assert_eq!(literal_prefix("exact"), Some("exact"));
        assert_eq!(literal_prefix("*ab"), None);
        assert_eq!(literal_prefix("?"), None);
    }

    #[test]
    fn prefix_bounds() {
        assert_eq!(prefix_upper_bound("ab").as_deref(), Some("ac"));
        assert_eq!(prefix_upper_bound("a\u{7f}").as_deref(), Some("a\u{80}"));
        assert_eq!(
            prefix_upper_bound(&format!("a{}", char::MAX)).as_deref(),
            Some("b")
        );
        assert_eq!(prefix_upper_bound(""), None);
        assert_eq!(prefix_upper_bound(&char::MAX.to_string()), None);
    }

    #[test]
    fn describe_shapes() {
        let col = |idx, name| ColId { idx, name };
        let p = Plan::IndexPoint {
            col: col(0, "login"),
            value: "kit".into(),
            ci: false,
        };
        assert_eq!(p.describe(), "IndexPoint(login=kit)");
        assert_eq!(p.kind(), "point");
        let r = Plan::IndexRange {
            col: col(3, "name"),
            prefix: "w".into(),
            ci: true,
        };
        assert_eq!(r.describe(), "IndexRange(name ci \"w*\")");
        assert_eq!(Plan::Scan.describe(), "Scan");
    }
}
