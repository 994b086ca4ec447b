//! The database: a collection of named tables sharing one virtual clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use moira_common::clock::VClock;
use moira_common::errors::{MrError, MrResult};

use crate::query::Pred;
use crate::schema::TableSchema;
use crate::table::{RowId, Table};
use crate::value::{Symbols, Value};

/// Process-wide source of database epochs. Every `Database::new` gets a
/// distinct epoch, so a state rebuilt from backup + journal replay is
/// distinguishable from the live state it replaces even when the replayed
/// generation counters happen to line up.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// A consistent snapshot of per-table mutation generations, taken for a
/// fixed set of tables. Consumers (the DCM's incremental generators) hold a
/// cursor and later ask whether it is still valid against the live database
/// and which tables advanced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenCursor {
    /// Epoch of the database the cursor was cut from.
    pub epoch: u64,
    /// `table name -> generation` at cut time.
    pub gens: BTreeMap<&'static str, u64>,
}

impl GenCursor {
    /// True if deltas taken relative to this cursor are meaningful against
    /// `db`: same epoch, and no table's generation has moved *backwards*
    /// (which would mean the table was rebuilt under us).
    pub fn valid_for(&self, db: &Database) -> bool {
        self.epoch == db.epoch()
            && self
                .gens
                .iter()
                .all(|(name, &g)| db.table(name).generation() >= g)
    }

    /// The cursor's tables whose generation has advanced past the cursor.
    pub fn advanced_tables(&self, db: &Database) -> Vec<&'static str> {
        self.gens
            .iter()
            .filter(|&(name, &g)| db.table(name).generation() > g)
            .map(|(&name, _)| name)
            .collect()
    }

    /// True if the cursor is valid and nothing it covers has changed.
    pub fn unchanged_in(&self, db: &Database) -> bool {
        self.valid_for(db)
            && self
                .gens
                .iter()
                .all(|(name, &g)| db.table(name).generation() == g)
    }
}

/// A named-table database with a shared virtual clock for modtimes.
///
/// Deliberately not `Clone`: the live database has exactly one copy, so a
/// handler can neither read a detached image nor mutate one the journal
/// never sees.
#[derive(Debug)]
pub struct Database {
    tables: BTreeMap<&'static str, Table>,
    clock: VClock,
    epoch: u64,
    /// The shared string interner every table of this database dedupes
    /// `Value::Str` payloads through.
    symbols: Symbols,
    /// Obs registry handed to tables as they are created.
    obs: Option<moira_obs::Registry>,
}

impl Database {
    /// Creates an empty database on the given clock.
    pub fn new(clock: VClock) -> Self {
        Database {
            tables: BTreeMap::new(),
            clock,
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            symbols: Symbols::new(),
            obs: None,
        }
    }

    /// Creates an empty database carrying an *explicit* epoch — the
    /// crash-recovery constructor.
    ///
    /// `Database::new` mints a fresh epoch, which is exactly right for a
    /// rebuild-from-ASCII restore (every cached DCM build must be
    /// invalidated) and exactly wrong for durable recovery: a snapshot +
    /// WAL replay reconstructs the *same* history, so consumers holding a
    /// [`GenCursor`] cut before the crash must find it still valid. The
    /// process-wide epoch counter is advanced past the recovered value so
    /// databases created later can never collide with it.
    pub fn recovered(clock: VClock, epoch: u64) -> Self {
        NEXT_EPOCH.fetch_max(epoch.saturating_add(1), Ordering::Relaxed);
        Database {
            tables: BTreeMap::new(),
            clock,
            epoch,
            symbols: Symbols::new(),
            obs: None,
        }
    }

    /// This database's epoch. Distinct per `Database::new`.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cuts a generation cursor over the named tables.
    ///
    /// # Panics
    ///
    /// Panics on unknown table names, like [`Database::table`].
    pub fn cursor(&self, tables: &[&'static str]) -> GenCursor {
        GenCursor {
            epoch: self.epoch,
            gens: tables
                .iter()
                .map(|&name| (name, self.table(name).generation()))
                .collect(),
        }
    }

    /// The shared clock.
    pub fn clock(&self) -> &VClock {
        &self.clock
    }

    /// Current time in unix seconds (shorthand for `clock().now()`).
    pub fn now(&self) -> i64 {
        self.clock.now()
    }

    /// Creates a table; replaces any previous table of the same name. The
    /// new table shares the database's string interner and obs registry.
    pub fn create_table(&mut self, schema: TableSchema) {
        let mut table = Table::new(schema);
        table.set_symbols(self.symbols.clone());
        if let Some(reg) = &self.obs {
            table.set_obs(reg);
        }
        self.tables.insert(table.schema().name, table);
    }

    /// Attaches an obs registry: every table (current and future) records
    /// its plan choices (`db.plan.*`) and `db.select.rows_examined` there.
    pub fn set_obs(&mut self, reg: &moira_obs::Registry) {
        for table in self.tables.values_mut() {
            table.set_obs(reg);
        }
        self.obs = Some(reg.clone());
    }

    /// The database's string interner.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// EXPLAIN: the plan description `pred` would run under on `table`.
    ///
    /// # Panics
    ///
    /// Panics on unknown table names, like [`Database::table`].
    pub fn explain(&self, table: &str, pred: &Pred) -> String {
        self.table(table).explain(pred)
    }

    /// Borrows a table.
    ///
    /// # Panics
    ///
    /// Panics on unknown table names — the schema is fixed at startup, so an
    /// unknown name is a programming error.
    pub fn table(&self, name: &str) -> &Table {
        self.tables
            .get(name)
            .unwrap_or_else(|| panic!("no table {name}"))
    }

    /// Mutably borrows a table.
    ///
    /// # Panics
    ///
    /// Panics on unknown table names.
    pub fn table_mut(&mut self, name: &str) -> &mut Table {
        self.tables
            .get_mut(name)
            .unwrap_or_else(|| panic!("no table {name}"))
    }

    /// Table names in sorted order.
    pub fn table_names(&self) -> Vec<&'static str> {
        self.tables.keys().copied().collect()
    }

    /// True if the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Appends a row, stamping the table's modtime with the current time.
    pub fn append(&mut self, table: &str, row: Vec<Value>) -> MrResult<RowId> {
        let now = self.now();
        self.table_mut(table).append(row, now)
    }

    /// Updates columns of a row, stamping the modtime.
    pub fn update(&mut self, table: &str, id: RowId, changes: &[(&str, Value)]) -> MrResult<()> {
        let now = self.now();
        self.table_mut(table).update(id, changes, now)
    }

    /// Deletes a row, stamping the modtime.
    pub fn delete(&mut self, table: &str, id: RowId) -> MrResult<()> {
        let now = self.now();
        self.table_mut(table).delete(id, now)
    }

    /// Selects matching row ids.
    pub fn select(&self, table: &str, pred: &Pred) -> Vec<RowId> {
        self.table(table).select(pred)
    }

    /// Deletes every matching row, stamping the modtime; returns the count.
    pub fn delete_where(&mut self, table: &str, pred: &Pred) -> usize {
        let now = self.now();
        self.table_mut(table).delete_where(pred, now)
    }

    /// Selects, requiring the result to identify *exactly one* row — the
    /// pervasive "must match exactly one" rule of the query catalog.
    ///
    /// Returns `not_found` when nothing matches and `MR_NOT_UNIQUE` when
    /// more than one row matches.
    pub fn select_exactly_one(
        &self,
        table: &str,
        pred: &Pred,
        not_found: MrError,
    ) -> MrResult<RowId> {
        let ids = self.select(table, pred);
        match ids.len() {
            0 => Err(not_found),
            1 => Ok(ids[0]),
            _ => Err(MrError::NotUnique),
        }
    }

    /// The value of `col` in row `id` of `table`.
    pub fn cell(&self, table: &str, id: RowId, col: &str) -> Value {
        self.table(table).cell(id, col).clone()
    }

    /// Total mutations (appends + updates + deletes) ever applied across all
    /// tables — a cheap generation counter: if it is unchanged across a
    /// handler invocation, the handler did not touch the database.
    pub fn mutation_count(&self) -> u64 {
        self.tables
            .values()
            .map(|t| {
                let s = t.stats();
                s.appends + s.updates + s.deletes
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;

    fn db() -> Database {
        let mut db = Database::new(VClock::new());
        db.create_table(TableSchema::new(
            "machine",
            vec![ColumnDef::str("name").unique(), ColumnDef::str("type")],
        ));
        db
    }

    #[test]
    fn crud_through_database() {
        let mut d = db();
        let id = d
            .append("machine", vec!["KIWI.MIT.EDU".into(), "VAX".into()])
            .unwrap();
        assert_eq!(d.cell("machine", id, "type"), Value::Str("VAX".into()));
        d.update("machine", id, &[("type", "RT".into())]).unwrap();
        assert_eq!(d.cell("machine", id, "type"), Value::Str("RT".into()));
        d.delete("machine", id).unwrap();
        assert!(d.select("machine", &Pred::True).is_empty());
    }

    #[test]
    fn modtime_tracks_clock() {
        let mut d = db();
        d.clock().set(777);
        d.append("machine", vec!["A".into(), "VAX".into()]).unwrap();
        assert_eq!(d.table("machine").stats().modtime, 777);
    }

    #[test]
    fn exactly_one_semantics() {
        let mut d = db();
        assert_eq!(
            d.select_exactly_one("machine", &Pred::True, MrError::Machine),
            Err(MrError::Machine)
        );
        let id = d.append("machine", vec!["A".into(), "VAX".into()]).unwrap();
        assert_eq!(
            d.select_exactly_one("machine", &Pred::True, MrError::Machine),
            Ok(id)
        );
        d.append("machine", vec!["B".into(), "VAX".into()]).unwrap();
        assert_eq!(
            d.select_exactly_one("machine", &Pred::True, MrError::Machine),
            Err(MrError::NotUnique)
        );
    }

    #[test]
    fn table_names_sorted() {
        let mut d = db();
        d.create_table(TableSchema::new("alias", vec![ColumnDef::str("name")]));
        assert_eq!(d.table_names(), vec!["alias", "machine"]);
        assert!(d.has_table("alias"));
        assert!(!d.has_table("bogus"));
    }

    #[test]
    #[should_panic(expected = "no table")]
    fn unknown_table_panics() {
        db().table("users");
    }

    #[test]
    fn epochs_distinct_per_database() {
        let a = db();
        let b = db();
        assert_ne!(a.epoch(), b.epoch());
    }

    #[test]
    fn recovered_epoch_is_explicit_and_reserved() {
        let original = db();
        let epoch = original.epoch();
        let back = Database::recovered(VClock::new(), epoch);
        assert_eq!(back.epoch(), epoch);
        // Later fresh databases never reuse a recovered epoch.
        assert!(db().epoch() > epoch);
        let far = Database::recovered(VClock::new(), epoch + 500);
        assert!(db().epoch() > far.epoch());
    }

    #[test]
    fn cursor_survives_recovered_database_with_same_epoch() {
        let mut d = db();
        d.append("machine", vec!["A".into(), "VAX".into()]).unwrap();
        let cur = d.cursor(&["machine"]);

        // Recovery path: same epoch, table state imported, then one more
        // mutation replayed on top.
        let mut back = Database::recovered(VClock::new(), d.epoch());
        back.create_table(d.table("machine").schema().clone());
        back.table_mut("machine")
            .import_image(&d.table("machine").export_image())
            .unwrap();
        assert!(cur.valid_for(&back));
        assert!(cur.unchanged_in(&back));

        back.append("machine", vec!["B".into(), "VAX".into()])
            .unwrap();
        assert!(cur.valid_for(&back));
        assert_eq!(cur.advanced_tables(&back), vec!["machine"]);

        // Contrast: a restore into a *fresh* database invalidates it.
        assert!(!cur.valid_for(&db()));
    }

    #[test]
    fn cursor_tracks_advancement_and_epoch() {
        let mut d = db();
        d.append("machine", vec!["A".into(), "VAX".into()]).unwrap();
        let cur = d.cursor(&["machine"]);
        assert!(cur.valid_for(&d));
        assert!(cur.unchanged_in(&d));
        assert!(cur.advanced_tables(&d).is_empty());

        d.append("machine", vec!["B".into(), "VAX".into()]).unwrap();
        assert!(cur.valid_for(&d));
        assert!(!cur.unchanged_in(&d));
        assert_eq!(cur.advanced_tables(&d), vec!["machine"]);

        // A freshly built database (restore/replay) has a new epoch: the
        // cursor is invalid even if the generation counters line up.
        let mut fresh = db();
        fresh
            .append("machine", vec!["A".into(), "VAX".into()])
            .unwrap();
        fresh
            .append("machine", vec!["B".into(), "VAX".into()])
            .unwrap();
        assert!(!cur.valid_for(&fresh));
        assert!(!cur.unchanged_in(&fresh));
    }
}
