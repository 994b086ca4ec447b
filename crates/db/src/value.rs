//! Typed column values and the per-database string interner.
//!
//! The Moira schema (§6) uses three storage classes: integers (ids, uids,
//! flags, unix times), short text fields, and booleans (stored as 0/1 in
//! INGRES but typed here). `Value` is the stored cell and the engine's
//! internal currency — index keys, predicate evaluation, the rows `append`
//! takes, and the snapshot, WAL and backup codecs. Code above the engine
//! reads cells through [`Row`](crate::Row), whose getter returns the
//! column's kind (`i64`, `&str`, `bool`) directly, and writes them through
//! `Col::set`; query handles convert to and from the counted strings of the
//! wire protocol at the edge.
//!
//! String cells are `Arc<str>`: at production scale the same handful of
//! strings (machine types, cluster names, shell paths, the owning login
//! repeated across a user's list/filesys/quota rows) would otherwise be
//! heap-allocated millions of times. A [`Symbols`] table shared by every
//! table of one database dedupes them at append/update/import time, so a
//! row costs one pointer per string cell and the text itself is stored
//! once. Interning is invisible to every observer — equality, ordering,
//! hashing, rendering, and the snapshot/WAL wire form are all by content.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::cmp::Ordering;
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

/// The storage class of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    /// 64-bit signed integer (also used for unix times).
    Int,
    /// Text.
    Str,
    /// Boolean (rendered as 0/1 at the protocol edge, as INGRES stored it).
    Bool,
}

/// A stored cell, tagged with its storage class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer cell.
    Int(i64),
    /// A string cell. Cheap to clone; deduped per database by [`Symbols`].
    Str(Arc<str>),
    /// A boolean cell.
    Bool(bool),
}

impl Value {
    /// The storage class of this value.
    pub fn col_type(&self) -> ColType {
        match self {
            Value::Int(_) => ColType::Int,
            Value::Str(_) => ColType::Str,
            Value::Bool(_) => ColType::Bool,
        }
    }

    /// Renders the value the way the protocol sends it: integers in decimal,
    /// booleans as `0`/`1`, strings verbatim.
    pub fn render(&self) -> String {
        match self {
            Value::Int(i) => i.to_string(),
            Value::Str(s) => s.as_ref().to_owned(),
            Value::Bool(b) => if *b { "1" } else { "0" }.to_owned(),
        }
    }

    /// Parses a protocol string into a value of the requested type.
    pub fn parse(ty: ColType, s: &str) -> Option<Value> {
        match ty {
            ColType::Int => s.trim().parse::<i64>().ok().map(Value::Int),
            ColType::Str => Some(Value::Str(Arc::from(s))),
            ColType::Bool => match s.trim() {
                "0" => Some(Value::Bool(false)),
                "1" => Some(Value::Bool(true)),
                _ => s.trim().parse::<i64>().ok().map(|i| Value::Bool(i != 0)),
            },
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            // Cross-type ordering is arbitrary but total: Int < Str < Bool.
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

fn rank(v: &Value) -> u8 {
    match v {
        Value::Int(_) => 0,
        Value::Str(_) => 1,
        Value::Bool(_) => 2,
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(Arc::from(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// Interner state: the canonical `Arc<str>` per distinct string, plus the
/// high-water mark that triggers the next dead-symbol sweep.
struct SymbolsInner {
    set: HashSet<Arc<str>>,
    sweep_at: usize,
}

impl SymbolsInner {
    /// Adds a symbol the set does not hold, sweeping first if the set has
    /// reached its high-water mark.
    fn insert(&mut self, a: Arc<str>) {
        if self.set.len() >= self.sweep_at {
            self.set.retain(|a| Arc::strong_count(a) > 1);
            self.sweep_at = (self.set.len() * 2).max(Symbols::SWEEP_FLOOR);
        }
        self.set.insert(a);
    }
}

/// A per-database symbol table deduplicating [`Value::Str`] payloads.
///
/// Every table of one [`crate::Database`] shares a handle (clones share the
/// underlying set), so the same login/host/type string stored across
/// relations resolves to one allocation. The table holds one strong
/// reference per distinct symbol; when the set doubles past its high-water
/// mark, symbols no longer referenced by any row (`strong_count == 1`) are
/// swept, so deleted rows do not pin their strings forever.
#[derive(Clone)]
pub struct Symbols {
    inner: Arc<Mutex<SymbolsInner>>,
}

impl Symbols {
    /// Initial sweep threshold; doubles as the set grows.
    const SWEEP_FLOOR: usize = 4096;

    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Symbols {
            inner: Arc::new(Mutex::new(SymbolsInner {
                set: HashSet::new(),
                sweep_at: Self::SWEEP_FLOOR,
            })),
        }
    }

    /// Returns the canonical `Arc` for `s`, inserting it if new.
    pub fn intern(&self, s: &str) -> Arc<str> {
        let mut inner = self.inner.lock();
        if let Some(a) = inner.set.get(s) {
            return a.clone();
        }
        let a: Arc<str> = Arc::from(s);
        inner.insert(a.clone());
        a
    }

    /// Rewrites a string value to its canonical `Arc` in place; other value
    /// kinds pass through untouched. One lock and one lookup: on a miss the
    /// value's own `Arc` becomes the canonical one, so nothing allocates.
    pub fn intern_value(&self, v: &mut Value) {
        if let Value::Str(s) = v {
            let mut inner = self.inner.lock();
            match inner.set.get(s.as_ref()) {
                Some(a) => *s = a.clone(),
                None => inner.insert(s.clone()),
            }
        }
    }

    /// Number of distinct symbols currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().set.len()
    }

    /// True when no symbols are interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for Symbols {
    fn default() -> Self {
        Symbols::new()
    }
}

impl fmt::Debug for Symbols {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Symbols").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_int() {
        let v = Value::Int(-42);
        assert_eq!(v.render(), "-42");
        assert_eq!(Value::parse(ColType::Int, "-42"), Some(v));
        assert_eq!(Value::parse(ColType::Int, "x"), None);
    }

    #[test]
    fn render_and_parse_bool() {
        assert_eq!(Value::Bool(true).render(), "1");
        assert_eq!(Value::parse(ColType::Bool, "0"), Some(Value::Bool(false)));
        assert_eq!(Value::parse(ColType::Bool, "7"), Some(Value::Bool(true)));
        assert_eq!(Value::parse(ColType::Bool, "maybe"), None);
    }

    #[test]
    fn parse_str_is_verbatim() {
        assert_eq!(
            Value::parse(ColType::Str, "  spaced  "),
            Some(Value::Str("  spaced  ".into()))
        );
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Str("a".into()) < Value::Str("b".into()));
        assert!(Value::Bool(false) < Value::Bool(true));
    }

    #[test]
    fn ordering_total_across_types() {
        let mut vals = [
            Value::Bool(true),
            Value::Str("m".into()),
            Value::Int(3),
            Value::Int(1),
        ];
        vals.sort();
        assert_eq!(vals[0], Value::Int(1));
        assert_eq!(vals[3], Value::Bool(true));
    }

    #[test]
    fn interning_dedupes_by_pointer() {
        let syms = Symbols::new();
        let a = syms.intern("athena");
        let b = syms.intern("athena");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(syms.len(), 1);

        let mut v = Value::Str("athena".into());
        let before = match &v {
            Value::Str(s) => s.clone(),
            _ => unreachable!(),
        };
        assert!(!Arc::ptr_eq(&before, &a));
        syms.intern_value(&mut v);
        match &v {
            Value::Str(s) => assert!(Arc::ptr_eq(s, &a)),
            _ => unreachable!(),
        }
        // Non-string values pass through.
        let mut i = Value::Int(3);
        syms.intern_value(&mut i);
        assert_eq!(i, Value::Int(3));
    }

    #[test]
    fn interning_preserves_equality_and_order() {
        let syms = Symbols::new();
        let mut a = Value::Str("zeta".into());
        let b = Value::Str("zeta".into());
        syms.intern_value(&mut a);
        assert_eq!(a, b);
        assert_eq!(a.render(), "zeta");
        assert!(Value::Str("alpha".into()) < a);
    }

    #[test]
    fn sweep_drops_unreferenced_symbols() {
        let syms = Symbols::new();
        let kept = syms.intern("alive");
        // Flood with symbols nobody holds: the sweeps along the way drop
        // them but never the live one.
        for i in 0..2 * Symbols::SWEEP_FLOOR {
            let _ = syms.intern(&format!("dead{i}"));
        }
        assert!(
            syms.len() <= Symbols::SWEEP_FLOOR + 1,
            "sweep ran, len = {}",
            syms.len()
        );
        assert!(Arc::ptr_eq(&kept, &syms.intern("alive")));
    }
}
