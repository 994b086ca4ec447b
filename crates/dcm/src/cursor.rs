//! The per-host delta cursor store.
//!
//! For each `(service, host)` pair the [`CursorStore`] remembers the archive the host last
//! confirmed installing — the *base* the update protocol patches against
//! — together with the service generation it belongs to. The invariants:
//!
//! - **Monotone.** [`CursorStore::record`] never moves a cursor to an
//!   older generation; a delayed recording cannot clobber a newer
//!   confirmed install.
//! - **Advance only on confirmation.** Failed legs leave the cursor
//!   untouched: the host may hold the old archive, the new one, or a
//!   torn mix, and its base CRCs in the next stale reply sort that out.
//! - **Dropping costs bytes, never correctness.** A forgotten or stale
//!   cursor merely fails the base-CRC gate at transfer time, falling
//!   back to whole members.

use std::collections::HashMap;
use std::sync::Arc;

use crate::archive::Archive;

/// What the DCM knows one host last installed for one service: the patch
/// base and the generation it belongs to.
#[derive(Debug, Clone)]
pub struct Cursor {
    /// The service generation (`dfgen`) whose archive the host confirmed.
    pub generation: i64,
    base: Arc<Archive>,
}

impl Cursor {
    /// The confirmed archive — the base for line-level patches.
    pub fn base(&self) -> &Arc<Archive> {
        &self.base
    }
}

/// Per-`(service, host)` delta cursors. See the module docs for the
/// invariants.
#[derive(Debug, Default)]
pub struct CursorStore {
    entries: HashMap<(String, String), Cursor>,
}

impl CursorStore {
    /// An empty store.
    pub fn new() -> CursorStore {
        CursorStore::default()
    }

    /// Records a confirmed install of `base` at `generation`. Monotone:
    /// returns `false` (and changes nothing) when the host's cursor is
    /// already at a newer generation.
    pub fn record(
        &mut self,
        service: &str,
        host: &str,
        generation: i64,
        base: Arc<Archive>,
    ) -> bool {
        let key = (service.to_owned(), host.to_owned());
        if let Some(existing) = self.entries.get(&key) {
            if generation < existing.generation {
                return false;
            }
        }
        self.entries.insert(key, Cursor { generation, base });
        true
    }

    /// Unconditional overwrite — the operator-reset escape hatch (and the
    /// fault-matrix tests' way of planting a stale cursor).
    pub fn force(&mut self, service: &str, host: &str, generation: i64, base: Arc<Archive>) {
        self.entries.insert(
            (service.to_owned(), host.to_owned()),
            Cursor { generation, base },
        );
    }

    /// Drops one cursor (the next push ships whole members).
    pub fn forget(&mut self, service: &str, host: &str) {
        self.entries.remove(&(service.to_owned(), host.to_owned()));
    }

    /// The full cursor for one `(service, host)`, if recorded.
    pub fn cursor(&self, service: &str, host: &str) -> Option<&Cursor> {
        self.entries.get(&(service.to_owned(), host.to_owned()))
    }

    /// The patch base for one `(service, host)`, if recorded.
    pub fn base(&self, service: &str, host: &str) -> Option<Arc<Archive>> {
        self.cursor(service, host).map(|c| c.base.clone())
    }

    /// The generation a host last confirmed, if recorded.
    pub fn generation(&self, service: &str, host: &str) -> Option<i64> {
        self.cursor(service, host).map(|c| c.generation)
    }

    /// Number of cursors held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(members: &[(&str, &[u8])]) -> Arc<Archive> {
        Arc::new(
            Archive::from_members(
                members
                    .iter()
                    .map(|(n, d)| (n.to_string(), d.to_vec()))
                    .collect(),
            )
            .unwrap(),
        )
    }

    #[test]
    fn cursor_records_are_monotone() {
        let mut store = CursorStore::new();
        let gen5 = arc(&[("a", b"five")]);
        let gen9 = arc(&[("a", b"nine")]);
        assert!(store.record("HESIOD", "H1", 5, gen5.clone()));
        assert!(store.record("HESIOD", "H1", 9, gen9.clone()));
        assert_eq!(store.generation("HESIOD", "H1"), Some(9));
        // A delayed recording from an older leg is ignored…
        assert!(!store.record("HESIOD", "H1", 5, gen5.clone()));
        assert_eq!(store.generation("HESIOD", "H1"), Some(9));
        assert_eq!(store.base("HESIOD", "H1").unwrap(), gen9);
        // …but an equal generation re-record (idempotent retry) lands.
        assert!(store.record("HESIOD", "H1", 9, gen9.clone()));
        // force() bypasses the monotone check — operator reset.
        store.force("HESIOD", "H1", 5, gen5.clone());
        assert_eq!(store.generation("HESIOD", "H1"), Some(5));
        store.forget("HESIOD", "H1");
        assert!(store.is_empty());
    }

    #[test]
    fn cursor_holds_recorded_base_and_generation() {
        let mut store = CursorStore::new();
        let base = arc(&[("passwd.db", b"root:0"), ("uid.db", b"0:root")]);
        store.record("HESIOD", "H1", 3, base.clone());
        let cursor = store.cursor("HESIOD", "H1").unwrap();
        assert!(Arc::ptr_eq(cursor.base(), &base));
        assert_eq!(cursor.generation, 3);
    }

    #[test]
    fn cursors_are_keyed_per_service_and_host() {
        let mut store = CursorStore::new();
        let a = arc(&[("a", b"1")]);
        store.record("HESIOD", "H1", 1, a.clone());
        store.record("HESIOD", "H2", 2, a.clone());
        store.record("NFS", "H1", 3, a.clone());
        assert_eq!(store.len(), 3);
        assert_eq!(store.generation("HESIOD", "H1"), Some(1));
        assert_eq!(store.generation("NFS", "H1"), Some(3));
        assert_eq!(store.generation("NFS", "H2"), None);
    }
}
