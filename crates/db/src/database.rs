//! The database: the relations of one schema set, sharing one virtual clock.
//!
//! Tables live in creation order and are reached by slot: through a typed
//! handle (`db.table(users::T)`, or implied by a column —
//! `db.cell(id, users::LOGIN)`, `db.select(&Pred::Eq(users::LOGIN, v))`) or,
//! where relations are handled as data, through a [`TableId`]. A *name* is
//! resolved in exactly one place, [`Database::lookup`], for the readers of
//! on-disk documents.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use moira_common::clock::VClock;
use moira_common::errors::{MrError, MrResult};

use crate::query::Pred;
use crate::schema::{Col, Relation, TableId, TableSchema};
use crate::table::{RowId, Table, TableRef};
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
    /// `table -> generation` at cut time, in table-name order.
    pub gens: BTreeMap<TableId, u64>,
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
                .all(|(&id, &g)| db.at(id).generation() >= g)
    }

    /// The cursor's tables whose generation has advanced past the cursor,
    /// in name order.
    pub fn advanced_tables(&self, db: &Database) -> Vec<TableId> {
        self.gens
            .iter()
            .filter(|&(&id, &g)| db.at(id).generation() > g)
            .map(|(&id, _)| id)
            .collect()
    }

    /// True if the cursor is valid and nothing it covers has changed.
    pub fn unchanged_in(&self, db: &Database) -> bool {
        self.valid_for(db)
            && self
                .gens
                .iter()
                .all(|(&id, &g)| db.at(id).generation() == g)
    }
}

/// The tables of one schema set, with a shared virtual clock for modtimes.
///
/// Deliberately not `Clone`: the live database has exactly one copy, so a
/// handler can neither read a detached image nor mutate one the journal
/// never sees.
#[derive(Debug)]
pub struct Database {
    /// In creation order; a [`TableId`]'s slot indexes here.
    tables: Vec<Table>,
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
        Self::recovered(clock, NEXT_EPOCH.fetch_add(1, Ordering::Relaxed))
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
            tables: Vec::new(),
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

    /// Cuts a generation cursor over the given tables.
    pub fn cursor(&self, tables: &[TableId]) -> GenCursor {
        GenCursor {
            epoch: self.epoch,
            gens: tables
                .iter()
                .map(|&id| (id, self.at(id).generation()))
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

    /// Creates a table in the next slot and returns its id. The new table
    /// shares the database's string interner and obs registry. A relation
    /// is created once: a second table of the same name is a boot-sequence
    /// bug (checked in debug builds).
    pub fn create_table(&mut self, schema: TableSchema) -> TableId {
        debug_assert!(self.lookup(schema.name).is_none(), "{} exists", schema.name);
        let id = TableId::new(schema.name, self.tables.len());
        let mut table = Table::new(schema);
        table.set_symbols(self.symbols.clone());
        if let Some(reg) = &self.obs {
            table.set_obs(reg);
        }
        self.tables.push(table);
        id
    }

    /// Attaches an obs registry: every table (current and future) records
    /// its plan choices (`db.plan.*`) and `db.select.rows_examined` there.
    pub fn set_obs(&mut self, reg: &moira_obs::Registry) {
        for table in &mut self.tables {
            table.set_obs(reg);
        }
        self.obs = Some(reg.clone());
    }

    /// The database's string interner.
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// The one by-name lookup: the id of the table called `name`, for the
    /// readers of documents that carry relation names as data (checkpoints,
    /// `mrbackup` dumps). Query paths never come here — they hold handles.
    pub fn lookup(&self, name: &str) -> Option<TableId> {
        self.ids().find(|id| id.name() == name)
    }

    /// Every table's id, in name order — the order the on-disk documents
    /// list tables in.
    pub fn table_ids(&self) -> Vec<TableId> {
        let mut ids: Vec<TableId> = self.ids().collect();
        ids.sort_unstable();
        ids
    }

    /// Every table's id, in slot order.
    fn ids(&self) -> impl Iterator<Item = TableId> + '_ {
        self.tables
            .iter()
            .enumerate()
            .map(|(slot, t)| TableId::new(t.schema().name, slot))
    }

    /// The table `id` names, relation erased — for code that handles
    /// relations as data. An id comes from this database's schema set
    /// (`R::ID`, [`Database::lookup`], [`Database::table_ids`]); one from
    /// another set is a construction bug, caught in debug builds.
    pub fn at(&self, id: TableId) -> &Table {
        let table = &self.tables[id.slot()];
        debug_assert_eq!(table.schema().name, id.name(), "id of another schema set");
        table
    }

    /// Mutable [`Database::at`], for the engine's own writers and document
    /// readers.
    pub(crate) fn at_mut(&mut self, id: TableId) -> &mut Table {
        let table = &mut self.tables[id.slot()];
        debug_assert_eq!(table.schema().name, id.name(), "id of another schema set");
        table
    }

    /// Relation `R`'s table, typed: it selects by `R`'s predicates and
    /// hands out `R`'s cells only.
    pub fn table<R: Relation>(&self, rel: R) -> TableRef<'_, R> {
        self.at(R::ID).rel(rel)
    }

    /// Appends a row to `R`, stamping the table's modtime with the current
    /// time.
    pub fn append<R: Relation>(&mut self, _rel: R, row: Vec<Value>) -> MrResult<RowId> {
        let now = self.now();
        self.at_mut(R::ID).append(row, now)
    }

    /// Updates columns of a row of `R`, stamping the modtime.
    pub fn update<R: Relation>(&mut self, id: RowId, changes: &[(Col<R>, Value)]) -> MrResult<()> {
        let now = self.now();
        self.at_mut(R::ID).update(id, changes, now)
    }

    /// Deletes a row of `R`, stamping the modtime.
    pub fn delete<R: Relation>(&mut self, _rel: R, id: RowId) -> MrResult<()> {
        let now = self.now();
        self.at_mut(R::ID).delete(id, now)
    }

    /// Selects the matching row ids of `R`.
    pub fn select<R: Relation>(&self, pred: &Pred<R>) -> Vec<RowId> {
        self.at(R::ID).select(pred.raw())
    }

    /// Deletes every matching row of `R`, stamping the modtime; returns the
    /// count.
    pub fn delete_where<R: Relation>(&mut self, pred: &Pred<R>) -> usize {
        let now = self.now();
        self.at_mut(R::ID).delete_where(pred, now)
    }

    /// Selects, requiring the result to identify *exactly one* row — the
    /// pervasive "must match exactly one" rule of the query catalog.
    ///
    /// Returns `not_found` when nothing matches and `MR_NOT_UNIQUE` when
    /// more than one row matches.
    pub fn select_exactly_one<R: Relation>(
        &self,
        pred: &Pred<R>,
        not_found: MrError,
    ) -> MrResult<RowId> {
        let ids = self.select(pred);
        match ids.len() {
            0 => Err(not_found),
            1 => Ok(ids[0]),
            _ => Err(MrError::NotUnique),
        }
    }

    /// The value of `col` in row `id` of `col`'s relation.
    pub fn cell<R: Relation>(&self, id: RowId, col: Col<R>) -> Value {
        self.at(R::ID).cell_at(id, col.index()).clone()
    }

    /// Total mutations (appends + updates + deletes) ever applied across all
    /// tables — a cheap generation counter: if it is unchanged across a
    /// handler invocation, the handler did not touch the database.
    pub fn mutation_count(&self) -> u64 {
        self.tables
            .iter()
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

    crate::relations! {
        machine { NAME: str "name" unique, TYPE: str "type" }
        alias { NAME: str "name" }
    }

    fn db() -> Database {
        let mut db = Database::new(VClock::new());
        db.create_table(machine::R::schema());
        db
    }

    #[test]
    fn crud_through_database() {
        let mut d = db();
        let id = d
            .append(machine::T, vec!["KIWI.MIT.EDU".into(), "VAX".into()])
            .unwrap();
        assert_eq!(d.cell(id, machine::TYPE), Value::Str("VAX".into()));
        d.update(id, &[(machine::TYPE, "RT".into())]).unwrap();
        assert_eq!(d.cell(id, machine::TYPE), Value::Str("RT".into()));
        d.delete(machine::T, id).unwrap();
        assert!(d.table(machine::T).select(&Pred::True).is_empty());
    }

    #[test]
    fn modtime_tracks_clock() {
        let mut d = db();
        d.clock().set(777);
        d.append(machine::T, vec!["A".into(), "VAX".into()])
            .unwrap();
        assert_eq!(d.table(machine::T).stats().modtime, 777);
    }

    #[test]
    fn exactly_one_semantics() {
        let mut d = db();
        assert_eq!(
            d.select_exactly_one(&Pred::<machine::R>::True, MrError::Machine),
            Err(MrError::Machine)
        );
        let id = d
            .append(machine::T, vec!["A".into(), "VAX".into()])
            .unwrap();
        assert_eq!(
            d.select_exactly_one(&Pred::<machine::R>::True, MrError::Machine),
            Ok(id)
        );
        d.append(machine::T, vec!["B".into(), "VAX".into()])
            .unwrap();
        assert_eq!(
            d.select_exactly_one(&Pred::<machine::R>::True, MrError::Machine),
            Err(MrError::NotUnique)
        );
    }

    #[test]
    fn table_ids_sort_by_name_and_lookup_is_total() {
        let mut d = db();
        assert_eq!(d.create_table(alias::R::schema()), alias::R::ID);
        assert_eq!(d.table_ids(), vec![alias::R::ID, machine::R::ID]);
        assert_eq!(d.lookup("alias"), Some(alias::R::ID));
        assert_eq!(d.lookup("bogus"), None);
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
        d.append(machine::T, vec!["A".into(), "VAX".into()])
            .unwrap();
        let cur = d.cursor(&[machine::R::ID]);

        // Recovery path: same epoch, table state imported, then one more
        // mutation replayed on top.
        let mut back = Database::recovered(VClock::new(), d.epoch());
        back.create_table(machine::R::schema());
        back.at_mut(machine::R::ID)
            .import_image(&d.table(machine::T).export_image())
            .unwrap();
        assert!(cur.valid_for(&back));
        assert!(cur.unchanged_in(&back));

        back.append(machine::T, vec!["B".into(), "VAX".into()])
            .unwrap();
        assert!(cur.valid_for(&back));
        assert_eq!(cur.advanced_tables(&back), vec![machine::R::ID]);

        // Contrast: a restore into a *fresh* database invalidates it.
        assert!(!cur.valid_for(&db()));
    }

    #[test]
    fn cursor_tracks_advancement_and_epoch() {
        let mut d = db();
        d.append(machine::T, vec!["A".into(), "VAX".into()])
            .unwrap();
        let cur = d.cursor(&[machine::R::ID]);
        assert!(cur.valid_for(&d));
        assert!(cur.unchanged_in(&d));
        assert!(cur.advanced_tables(&d).is_empty());

        d.append(machine::T, vec!["B".into(), "VAX".into()])
            .unwrap();
        assert!(cur.valid_for(&d));
        assert!(!cur.unchanged_in(&d));
        assert_eq!(cur.advanced_tables(&d), vec![machine::R::ID]);

        // A freshly built database (restore/replay) has a new epoch: the
        // cursor is invalid even if the generation counters line up.
        let mut fresh = db();
        fresh
            .append(machine::T, vec!["A".into(), "VAX".into()])
            .unwrap();
        fresh
            .append(machine::T, vec!["B".into(), "VAX".into()])
            .unwrap();
        assert!(!cur.valid_for(&fresh));
        assert!(!cur.unchanged_in(&fresh));
    }
}
