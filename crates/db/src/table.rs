//! Tables: slab-stored rows, secondary indexes, planner-driven predicate
//! selection, and the per-table statistics behind the TBLSTATS relation (§6).

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Bound, Deref};

use moira_common::errors::{MrError, MrResult};

use crate::plan::{self, Plan, PlanStats};
use crate::query::{Pred, RawPred};
use crate::schema::{Assign, Col, ColId, ColumnDef, Kind, Relation, TableSchema};
use crate::value::{ColType, Symbols, Value};

/// Identifier of a row within one table (stable across updates, reused only
/// after deletion).
pub type RowId = usize;

/// Mutation counters for one table — the raw material of TBLSTATS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Rows appended over the table's lifetime.
    pub appends: u64,
    /// In-place updates.
    pub updates: u64,
    /// Deletions.
    pub deletes: u64,
    /// Unix time of the last append/update/delete.
    pub modtime: i64,
    /// Monotonic mutation generation: bumped exactly once per
    /// append/update/delete, so per-table generations sum to
    /// `Database::mutation_count`. Unlike `modtime` (seconds granularity)
    /// two mutations can never share a generation.
    pub generation: u64,
}

/// One entry of a [`Table::changed_since`] cursor read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowChange {
    /// The row is live and was appended or updated after the cursor.
    /// A reused slot reports as `Upserted` — consumers replace by id.
    Upserted(RowId),
    /// The row was deleted after the cursor and its slot is still free.
    Deleted(RowId),
}

impl RowChange {
    /// The row id the change applies to.
    pub fn id(&self) -> RowId {
        match *self {
            RowChange::Upserted(id) | RowChange::Deleted(id) => id,
        }
    }
}

/// A faithful copy of a table's mutation state, for durable snapshots.
///
/// Unlike the ASCII backup dump (which keeps only live row *values*), an
/// image preserves everything `changed_since` and slot reuse depend on: row
/// ids, per-row generation stamps, tombstones, the free-list *order* (the
/// slab hands slots back LIFO, so order decides which ids future appends
/// get), and the lifetime statistics. Importing an image and replaying the
/// same mutations therefore lands every row in the same slot with the same
/// generation as the original — the property the crash-recovery torture
/// test asserts byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableImage {
    /// Live rows: `(slot id, generation stamp, values)`, in id order.
    pub rows: Vec<(RowId, u64, Vec<Value>)>,
    /// Tombstones: `(slot id, generation of the delete)`.
    pub dead: Vec<(RowId, u64)>,
    /// The free list, bottom of the stack first (appends pop from the end).
    pub free: Vec<RowId>,
    /// Lifetime mutation statistics.
    pub stats: TableStats,
}

/// Cached obs handles for the planner instruments, resolved once when the
/// registry is attached so the hot select path does not look names up.
#[derive(Clone)]
struct PlanObs {
    point: moira_obs::Counter,
    intersect: moira_obs::Counter,
    range: moira_obs::Counter,
    scan: moira_obs::Counter,
    rows_examined: moira_obs::Histo,
}

impl PlanObs {
    fn new(reg: &moira_obs::Registry) -> Self {
        PlanObs {
            point: reg.counter("db.plan.point"),
            intersect: reg.counter("db.plan.intersect"),
            range: reg.counter("db.plan.range"),
            scan: reg.counter("db.plan.scan"),
            rows_examined: reg.histogram("db.select.rows_examined"),
        }
    }
}

impl fmt::Debug for PlanObs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("PlanObs")
    }
}

/// A table: schema, row slab, secondary indexes, statistics.
#[derive(Debug, Clone)]
pub struct Table {
    schema: TableSchema,
    rows: Vec<Option<Vec<Value>>>,
    /// Parallel to `rows`: the table generation at which each slot last
    /// changed (stamp taken after the bump, so stamps start at 1).
    row_gens: Vec<u64>,
    free: Vec<RowId>,
    live: usize,
    /// Tombstones: slot -> generation of the delete. Cleared when the slab
    /// free-list hands the slot back out, at which point the reused slot
    /// reports as `Upserted` instead.
    dead: BTreeMap<RowId, u64>,
    /// `column index -> value -> row ids`, ids kept sorted within a bucket
    /// so `select` needs no post-sort, `select_one` takes the first
    /// survivor, and `IndexIntersect` merges buckets linearly.
    indexes: BTreeMap<usize, BTreeMap<Value, Vec<RowId>>>,
    /// Case-folded companions for indexed *string* columns:
    /// `column index -> lowercased value -> row ids` (sorted). These serve
    /// the `EqCi`/`LikeCi` predicates (machine and service names), which
    /// would otherwise scan no matter what.
    indexes_ci: BTreeMap<usize, BTreeMap<String, Vec<RowId>>>,
    /// The owning database's string interner (a private one until the table
    /// is attached via [`Table::set_symbols`]).
    symbols: Symbols,
    obs: Option<PlanObs>,
    stats: TableStats,
}

impl Table {
    /// Creates an empty table from a schema.
    pub fn new(schema: TableSchema) -> Self {
        let indexes = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.indexed)
            .map(|(i, _)| (i, BTreeMap::new()))
            .collect();
        let indexes_ci = schema
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.indexed && c.ty == ColType::Str)
            .map(|(i, _)| (i, BTreeMap::new()))
            .collect();
        Table {
            schema,
            rows: Vec::new(),
            row_gens: Vec::new(),
            free: Vec::new(),
            live: 0,
            dead: BTreeMap::new(),
            indexes,
            indexes_ci,
            symbols: Symbols::new(),
            obs: None,
            stats: TableStats::default(),
        }
    }

    /// Points the table at a shared string interner. The database attaches
    /// its per-database [`Symbols`] when the table is created, before any
    /// row exists; already-stored rows are not re-interned.
    pub fn set_symbols(&mut self, symbols: Symbols) {
        self.symbols = symbols;
    }

    /// Attaches an obs registry: plan-choice counters
    /// (`db.plan.{point,intersect,range,scan}`) and the
    /// `db.select.rows_examined` histogram.
    pub fn set_obs(&mut self, reg: &moira_obs::Registry) {
        self.obs = Some(PlanObs::new(reg));
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Mutation statistics.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Current mutation generation (0 for a pristine table).
    pub fn generation(&self) -> u64 {
        self.stats.generation
    }

    /// Every row whose last change is newer than `gen`, in id order.
    ///
    /// Live rows stamped after the cursor report as [`RowChange::Upserted`]
    /// (covering both fresh appends and in-place updates); freed slots whose
    /// delete landed after the cursor report as [`RowChange::Deleted`].
    /// `changed_since(0)` enumerates every live row plus outstanding
    /// tombstones, and `changed_since(self.generation())` is empty.
    pub fn changed_since(&self, gen: u64) -> Vec<RowChange> {
        let mut changes: Vec<RowChange> = self
            .rows_since(gen)
            .map(|(id, _, _)| RowChange::Upserted(id))
            .collect();
        changes.extend(self.dead_since(gen).map(|(id, _)| RowChange::Deleted(id)));
        changes.sort_unstable_by_key(|c| c.id());
        changes
    }

    /// Live rows stamped after `gen`, in id order, borrowed from the slab
    /// with their stamps — what a checkpoint writes. `rows_since(0)` is
    /// every live row.
    pub(crate) fn rows_since(&self, gen: u64) -> impl Iterator<Item = (RowId, u64, &[Value])> {
        self.rows
            .iter()
            .zip(&self.row_gens)
            .enumerate()
            .filter_map(move |(id, (row, &g))| {
                row.as_deref().filter(|_| g > gen).map(|row| (id, g, row))
            })
    }

    /// Tombstones newer than `gen`: `(slot id, generation of the delete)`,
    /// in id order.
    pub(crate) fn dead_since(&self, gen: u64) -> impl Iterator<Item = (RowId, u64)> + '_ {
        self.dead
            .iter()
            .filter(move |&(_, &g)| g > gen)
            .map(|(&id, &g)| (id, g))
    }

    /// The free list, bottom of the stack first (appends pop from the end).
    pub(crate) fn free_list(&self) -> &[RowId] {
        &self.free
    }

    fn check_row(&self, row: &[Value]) -> MrResult<()> {
        if row.len() != self.schema.arity() {
            return Err(MrError::Internal);
        }
        row.iter()
            .zip(&self.schema.columns)
            .try_for_each(|(val, def)| check_cell(val, def))
    }

    /// True if `col` is unique and another live row already holds `value`.
    fn taken(&self, col: usize, value: &Value) -> bool {
        self.schema.columns.get(col).is_some_and(|def| def.unique)
            && self
                .indexes
                .get(&col)
                .is_some_and(|ix| ix.contains_key(value))
    }

    /// Hooks cell `col` of live row `id` into the column's index and, for a
    /// string column, its case-folded index. Unindexed columns have neither.
    fn hook(&mut self, id: RowId, col: usize) {
        let (Some(index), Some(value)) = (self.indexes.get_mut(&col), cell(&self.rows, id, col))
        else {
            return;
        };
        insert_id(index.entry(value.clone()).or_default(), id);
        if let (Some(folded), Value::Str(s)) = (self.indexes_ci.get_mut(&col), value) {
            insert_id(folded.entry(s.to_ascii_lowercase()).or_default(), id);
        }
    }

    /// Undoes [`Table::hook`] for the cell as it stands in the slot.
    fn unhook(&mut self, id: RowId, col: usize) {
        let (Some(index), Some(value)) = (self.indexes.get_mut(&col), cell(&self.rows, id, col))
        else {
            return;
        };
        remove_id(index, value, id);
        if let (Some(folded), Value::Str(s)) = (self.indexes_ci.get_mut(&col), value) {
            remove_id(folded, s.to_ascii_lowercase().as_str(), id);
        }
    }

    fn index_insert(&mut self, id: RowId) {
        for col in 0..self.schema.arity() {
            self.hook(id, col);
        }
    }

    fn index_remove(&mut self, id: RowId) {
        for col in 0..self.schema.arity() {
            self.unhook(id, col);
        }
    }

    /// Appends a row, returning its id.
    ///
    /// Fails with `MR_EXISTS` on unique-column conflicts, `MR_ARG_TOO_LONG`
    /// on over-long strings, and `MR_INTERNAL` on arity or type mismatch.
    pub fn append(&mut self, mut row: Vec<Value>, now: i64) -> MrResult<RowId> {
        self.check_row(&row)?;
        if row.iter().enumerate().any(|(col, v)| self.taken(col, v)) {
            return Err(MrError::Exists);
        }
        for v in &mut row {
            self.symbols.intern_value(v);
        }
        let id = match self.free.pop() {
            Some(id) => {
                self.dead.remove(&id);
                id
            }
            None => {
                self.rows.push(None);
                self.row_gens.push(0);
                self.rows.len() - 1
            }
        };
        self.rows[id] = Some(row);
        self.index_insert(id);
        self.live += 1;
        self.stats.appends += 1;
        self.stats.modtime = now;
        self.stats.generation += 1;
        self.row_gens[id] = self.stats.generation;
        Ok(id)
    }

    /// Borrows a live row's cells; code above the engine reads them
    /// through [`TableRef::row`].
    pub(crate) fn get(&self, id: RowId) -> Option<&[Value]> {
        self.rows.get(id).and_then(|r| r.as_deref())
    }

    /// This table seen as relation `R`: the typed handle selects, cells and
    /// plans go through. `Database::table` is the usual way here; on a
    /// table reached by [`TableId`](crate::TableId) the caller vouches for
    /// the relation (checked in debug builds).
    pub fn rel<R: Relation>(&self, _rel: R) -> TableRef<'_, R> {
        self.check_rel::<R>();
        TableRef {
            table: self,
            _rel: PhantomData,
        }
    }

    fn check_rel<R: Relation>(&self) {
        debug_assert_eq!(self.schema.name, R::ID.name(), "handle of another relation");
    }

    /// The candidate row ids a plan narrows to, sorted ascending, or `None`
    /// for the scan fallback. Candidates still need predicate evaluation —
    /// a plan only bounds where matches can live.
    fn plan_candidates(&self, plan: &Plan) -> Option<Vec<RowId>> {
        match plan {
            Plan::IndexPoint { col, value, ci } => {
                let c = col.idx;
                let bucket = match (*ci, value) {
                    (true, Value::Str(folded)) => self
                        .indexes_ci
                        .get(&c)
                        .and_then(|ix| ix.get(folded.as_ref())),
                    // The planner folds only string keys.
                    (true, _) => None,
                    (false, _) => self.indexes.get(&c).and_then(|ix| ix.get(value)),
                };
                Some(bucket.cloned().unwrap_or_default())
            }
            Plan::IndexIntersect { terms } => {
                let mut merged: Option<Vec<RowId>> = None;
                for (col, value) in terms {
                    let c = col.idx;
                    let bucket = self
                        .indexes
                        .get(&c)
                        .and_then(|ix| ix.get(value))
                        .map(|ids| ids.as_slice())
                        .unwrap_or(&[]);
                    merged = Some(match merged {
                        None => bucket.to_vec(),
                        Some(prev) => intersect_sorted(&prev, bucket),
                    });
                }
                Some(merged.unwrap_or_default())
            }
            Plan::IndexRange { col, prefix, ci } => {
                let c = col.idx;
                let mut ids: Vec<RowId> = Vec::new();
                if *ci {
                    if let Some(ix) = self.indexes_ci.get(&c) {
                        for (_, bucket) in range_ci(ix, prefix) {
                            ids.extend_from_slice(bucket);
                        }
                    }
                } else if let Some(ix) = self.indexes.get(&c) {
                    for (_, bucket) in range_cs(ix, prefix) {
                        ids.extend_from_slice(bucket);
                    }
                }
                // Buckets are sorted but interleave across keys.
                ids.sort_unstable();
                Some(ids)
            }
            Plan::Scan => None,
        }
    }

    /// Records the plan choice and the rows actually examined.
    fn note_plan(&self, plan: &Plan, examined: usize) {
        if let Some(obs) = &self.obs {
            match plan {
                Plan::IndexPoint { .. } => obs.point.inc(),
                Plan::IndexIntersect { .. } => obs.intersect.inc(),
                Plan::IndexRange { .. } => obs.range.inc(),
                Plan::Scan => obs.scan.inc(),
            }
            obs.rows_examined.record(examined as u64);
        }
    }

    /// [`TableRef::select`] under the relation tag.
    pub(crate) fn select(&self, pred: &RawPred) -> Vec<RowId> {
        let plan = plan::choose(pred, self);
        match self.plan_candidates(&plan) {
            Some(cands) => {
                self.note_plan(&plan, cands.len());
                cands
                    .into_iter()
                    .filter(|&id| self.get(id).is_some_and(|row| pred.eval(row)))
                    .collect()
            }
            None => {
                self.note_plan(&plan, self.live);
                self.select_scan(pred)
            }
        }
    }

    /// [`TableRef::select_scan`] under the relation tag.
    pub(crate) fn select_scan(&self, pred: &RawPred) -> Vec<RowId> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(id, row)| row.as_ref().filter(|r| pred.eval(r)).map(|_| id))
            .collect()
    }

    /// [`TableRef::select_one`] under the relation tag: candidates come
    /// sorted from the plan (buckets are kept sorted), so the first survivor
    /// is the minimum; the scan path stops at the first hit.
    pub(crate) fn select_one(&self, pred: &RawPred) -> Option<RowId> {
        let plan = plan::choose(pred, self);
        let mut examined = 0usize;
        let hit = match self.plan_candidates(&plan) {
            Some(cands) => cands.into_iter().find(|&id| {
                examined += 1;
                self.get(id).is_some_and(|row| pred.eval(row))
            }),
            None => self.rows.iter().enumerate().find_map(|(id, row)| {
                row.as_ref()
                    .filter(|r| {
                        examined += 1;
                        pred.eval(r)
                    })
                    .map(|_| id)
            }),
        };
        self.note_plan(&plan, examined);
        hit
    }

    /// [`TableRef::count`] under the relation tag.
    pub(crate) fn count(&self, pred: &RawPred) -> usize {
        let plan = plan::choose(pred, self);
        match self.plan_candidates(&plan) {
            Some(cands) => {
                self.note_plan(&plan, cands.len());
                cands
                    .iter()
                    .filter(|&&id| self.get(id).is_some_and(|row| pred.eval(row)))
                    .count()
            }
            None => {
                self.note_plan(&plan, self.live);
                self.rows
                    .iter()
                    .filter(|row| row.as_ref().is_some_and(|r| pred.eval(r)))
                    .count()
            }
        }
    }

    /// Updates columns of a row in place, touching only the cells that
    /// change.
    ///
    /// Every assignment is validated before any cell moves: first the kind
    /// and `max_len` of each value (`MR_INTERNAL`, `MR_ARG_TOO_LONG`), then
    /// uniqueness of each unique column whose value changes (`MR_EXISTS`); a
    /// dead id is `MR_NO_MATCH`. A failed update leaves the slot, every
    /// index and the statistics as they were. Then each cell whose value
    /// differs is unhooked from its column's indexes, replaced in the slot
    /// and hooked back in; unchanged cells are not copied, checked or
    /// re-indexed. A column named twice takes its last value. An update
    /// that changes no cell still counts: statistics, generation and the
    /// row's stamp move as for any other.
    pub fn update<R: Relation>(
        &mut self,
        id: RowId,
        changes: &[Assign<R>],
        now: i64,
    ) -> MrResult<()> {
        self.check_rel::<R>();
        let row = self.get(id).ok_or(MrError::NoMatch)?;
        for change in effective(changes) {
            let def = self.schema.columns.get(change.col.idx);
            check_cell(&change.value, def.ok_or(MrError::Internal)?)?;
        }
        for change in effective(changes) {
            let col = change.col.idx;
            if row.get(col) != Some(&change.value) && self.taken(col, &change.value) {
                return Err(MrError::Exists);
            }
        }
        for change in effective(changes) {
            let col = change.col.idx;
            if cell(&self.rows, id, col) == Some(&change.value) {
                continue;
            }
            self.unhook(id, col);
            let mut value = change.value.clone();
            self.symbols.intern_value(&mut value);
            if let Some(cells) = &mut self.rows[id] {
                cells[col] = value;
            }
            self.hook(id, col);
        }
        self.stats.updates += 1;
        self.stats.modtime = now;
        self.stats.generation += 1;
        self.row_gens[id] = self.stats.generation;
        Ok(())
    }

    /// Deletes a row.
    pub fn delete(&mut self, id: RowId, now: i64) -> MrResult<()> {
        self.get(id).ok_or(MrError::NoMatch)?;
        self.index_remove(id);
        self.rows[id] = None;
        self.free.push(id);
        self.live -= 1;
        self.stats.deletes += 1;
        self.stats.modtime = now;
        self.stats.generation += 1;
        self.row_gens[id] = self.stats.generation;
        self.dead.insert(id, self.stats.generation);
        Ok(())
    }

    /// Deletes every row matching the predicate, returning how many went.
    pub fn delete_where<R: Relation>(&mut self, pred: &Pred<R>, now: i64) -> usize {
        self.check_rel::<R>();
        let ids = self.select(pred.raw());
        let n = ids.len();
        for id in ids {
            let _ = self.delete(id, now);
        }
        n
    }

    /// Iterates `(id, row)` over live rows in id order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(id, r)| r.as_deref().map(|row| (id, row)))
    }

    /// Exports the table's full mutation state for a durable snapshot.
    pub fn export_image(&self) -> TableImage {
        TableImage {
            rows: self
                .rows_since(0)
                .map(|(id, gen, row)| (id, gen, row.to_vec()))
                .collect(),
            dead: self.dead_since(0).collect(),
            free: self.free.clone(),
            stats: self.stats,
        }
    }

    /// Restores the state captured by [`Table::export_image`] into this
    /// (pristine) table: rows land in their original slots with their
    /// original generation stamps, tombstones and free-list order return,
    /// and the statistics resume where they left off. The image's rows
    /// move into the slab as they are; each string is interned in place.
    ///
    /// Fails with `MR_EXISTS` if the table has ever been mutated, and
    /// `MR_INTERNAL` on arity/type mismatches, on ids that are out of range
    /// or claimed twice, and on stamps outside `1..=generation` — a corrupt
    /// image must not half-apply, and an id read off disk must not size an
    /// allocation.
    pub fn import_image(&mut self, image: TableImage) -> MrResult<()> {
        if self.stats.generation != 0 || !self.is_empty() {
            return Err(MrError::Exists);
        }
        for (_, _, row) in &image.rows {
            self.check_row(row)?;
        }
        // Every slab slot is live or free, so the slab's length is the
        // number of entries the image carries, whatever ids they claim; the
        // checks below then force the ids to be exactly `0..slab_len`.
        let live = image.rows.len();
        let slab_len = live
            .checked_add(image.free.len())
            .ok_or(MrError::Internal)?;
        let stamp_ok = |gen: u64| (1..=image.stats.generation).contains(&gen);
        let mut rows: Vec<Option<Vec<Value>>> = vec![None; slab_len];
        let mut row_gens = vec![0u64; slab_len];
        for (id, gen, mut row) in image.rows {
            if id >= slab_len || rows[id].is_some() || !stamp_ok(gen) {
                return Err(MrError::Internal);
            }
            for v in &mut row {
                self.symbols.intern_value(v);
            }
            rows[id] = Some(row);
            row_gens[id] = gen;
        }
        let mut is_free = vec![false; slab_len];
        for &id in &image.free {
            if id >= slab_len || rows[id].is_some() || std::mem::replace(&mut is_free[id], true) {
                return Err(MrError::Internal);
            }
        }
        for &(id, gen) in &image.dead {
            if id >= slab_len || rows[id].is_some() || !stamp_ok(gen) {
                return Err(MrError::Internal);
            }
            row_gens[id] = gen;
        }
        self.rows = rows;
        self.row_gens = row_gens;
        self.free = image.free;
        self.live = live;
        self.dead = image.dead.into_iter().collect();
        self.stats = image.stats;
        // Index from the interned copies so index keys share the row Arcs.
        for id in 0..slab_len {
            self.index_insert(id);
        }
        Ok(())
    }
}

/// A table seen as relation `R`: selects, plans and rows take `R`'s
/// predicates and columns only. Everything that involves no column (`len`,
/// `iter`, `get`, `stats`, `changed_since`, …) is reached through `Deref`.
pub struct TableRef<'a, R> {
    table: &'a Table,
    _rel: PhantomData<fn() -> R>,
}

impl<R> Clone for TableRef<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for TableRef<'_, R> {}

impl<R> Deref for TableRef<'_, R> {
    type Target = Table;

    fn deref(&self) -> &Table {
        self.table
    }
}

impl<'a, R> TableRef<'a, R> {
    /// Chooses an access path for `pred` — see [`crate::plan`].
    pub fn plan(&self, pred: &Pred<R>) -> Plan {
        plan::choose(pred.raw(), self.table)
    }

    /// EXPLAIN: the one-line description of the plan `pred` would run
    /// under, e.g. `IndexPoint(login=kit)` or `Scan`.
    pub fn explain(&self, pred: &Pred<R>) -> String {
        self.plan(pred).describe()
    }

    /// Returns the ids of rows matching a predicate, in id order, through
    /// the planner: an index bucket, a bucket merge, a prefix walk, or the
    /// scan fallback — whichever the cost model picks.
    pub fn select(&self, pred: &Pred<R>) -> Vec<RowId> {
        self.table.select(pred.raw())
    }

    /// Forced full-scan evaluation, bypassing the planner — the oracle the
    /// property tests and the bench baseline compare plans against.
    pub fn select_scan(&self, pred: &Pred<R>) -> Vec<RowId> {
        self.table.select_scan(pred.raw())
    }

    /// Returns the lowest matching row id, if any, without materializing
    /// the full match set.
    pub fn select_one(&self, pred: &Pred<R>) -> Option<RowId> {
        self.table.select_one(pred.raw())
    }

    /// The matching rows, in id order: [`TableRef::select`] read through
    /// [`TableRef::row`].
    pub fn rows(&self, pred: &Pred<R>) -> impl Iterator<Item = Row<'a, R>> {
        let t = *self;
        self.select(pred)
            .into_iter()
            .filter_map(move |id| t.row(id).ok())
    }

    /// The lowest matching row, if any: [`TableRef::select_one`] read
    /// through [`TableRef::row`].
    pub fn find(&self, pred: &Pred<R>) -> Option<Row<'a, R>> {
        self.select_one(pred).and_then(|id| self.row(id).ok())
    }

    /// Counts matching rows without materializing ids.
    pub fn count(&self, pred: &Pred<R>) -> usize {
        self.table.count(pred.raw())
    }

    /// Every live row, in id order: [`Table::iter`] read as typed rows.
    /// A whole-table pass, so the same `clippy.toml` bans hold it to the
    /// reviewed dumps.
    pub fn iter_rows(&self) -> impl Iterator<Item = Row<'a, R>> {
        let t: &'a Table = self.table;
        t.iter().map(|(_, cells)| Row {
            cells,
            _rel: PhantomData,
        })
    }

    /// Row `id`, live: `MR_NO_MATCH` when the slot is free — the answer
    /// `update` and `delete` give a dead id.
    pub fn row(&self, id: RowId) -> MrResult<Row<'a, R>> {
        let cells = self.table.get(id).ok_or(MrError::NoMatch)?;
        Ok(Row {
            cells,
            _rel: PhantomData,
        })
    }
}

/// A live row of relation `R`, borrowed from its table: the one way a cell
/// is read. Got from [`TableRef::row`], which has already decided liveness.
pub struct Row<'a, R> {
    cells: &'a [Value],
    _rel: PhantomData<fn() -> R>,
}

impl<R> Clone for Row<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for Row<'_, R> {}

impl<'a, R> Row<'a, R> {
    /// The cell of `col`, as its kind's type: `i64`, `&str` or `bool`.
    pub fn get<K: Kind>(self, col: Col<R, K>) -> K::Cell<'a> {
        // `check_cell` refuses a cell whose storage class is not its
        // column's at every way into the slab — every cell `append` and
        // `import_image` store, every value `update` assigns
        // (`backup::restore_table` goes through `append`) —
        // and `relations!` gives each column handle the kind of the schema
        // column it names. So for its handles `read` always matches and the
        // default is never returned; only a handle built by hand with
        // `Col::new` and the wrong kind could reach it.
        K::read(&self.cells[col.index()]).unwrap_or_default()
    }

    /// The cell of `col` the way the protocol sends it: integers in
    /// decimal, booleans as `0`/`1`, strings verbatim.
    pub fn render<K>(self, col: Col<R, K>) -> String {
        self.cells[col.index()].render()
    }
}

impl PlanStats for Table {
    fn is_indexed(&self, col: ColId) -> bool {
        self.indexes.contains_key(&col.idx)
    }

    fn has_folded_index(&self, col: ColId) -> bool {
        self.indexes_ci.contains_key(&col.idx)
    }

    fn bucket_len(&self, col: ColId, value: &Value) -> usize {
        self.indexes
            .get(&col.idx)
            .and_then(|ix| ix.get(value))
            .map_or(0, Vec::len)
    }

    fn folded_bucket_len(&self, col: ColId, folded: &str) -> usize {
        self.indexes_ci
            .get(&col.idx)
            .and_then(|ix| ix.get(folded))
            .map_or(0, Vec::len)
    }

    fn range_len(&self, col: ColId, prefix: &str, ci: bool, budget: usize) -> usize {
        let c = col.idx;
        let mut total = 0usize;
        if ci {
            if let Some(ix) = self.indexes_ci.get(&c) {
                for (_, bucket) in range_ci(ix, prefix) {
                    total += bucket.len();
                    if total >= budget {
                        break;
                    }
                }
            }
        } else if let Some(ix) = self.indexes.get(&c) {
            for (_, bucket) in range_cs(ix, prefix) {
                total += bucket.len();
                if total >= budget {
                    break;
                }
            }
        }
        total
    }

    fn slab_len(&self) -> usize {
        self.rows.len()
    }

    fn live_len(&self) -> usize {
        self.live
    }
}

/// Refuses a cell whose storage class is not its column's (`MR_INTERNAL`)
/// or a string longer than the column's `max_len` (`MR_ARG_TOO_LONG`).
fn check_cell(value: &Value, def: &ColumnDef) -> MrResult<()> {
    if value.col_type() != def.ty {
        return Err(MrError::Internal);
    }
    match value {
        Value::Str(s) if def.max_len > 0 && s.len() > def.max_len => Err(MrError::ArgTooLong),
        _ => Ok(()),
    }
}

/// The assignments of `changes` that take effect: of a column named more
/// than once, only the last.
fn effective<R>(changes: &[Assign<R>]) -> impl Iterator<Item = &Assign<R>> {
    changes
        .iter()
        .enumerate()
        .filter(|&(i, change)| {
            !changes[i + 1..]
                .iter()
                .any(|later| later.col.idx == change.col.idx)
        })
        .map(|(_, change)| change)
}

/// Cell `col` of live row `id`.
fn cell(rows: &[Option<Vec<Value>>], id: RowId, col: usize) -> Option<&Value> {
    rows.get(id)?.as_ref()?.get(col)
}

/// Adds `id` to an index bucket, keeping it sorted.
fn insert_id(ids: &mut Vec<RowId>, id: RowId) {
    if let Err(pos) = ids.binary_search(&id) {
        ids.insert(pos, id);
    }
}

/// Removes `id` from the bucket of `key`, dropping the bucket once empty.
fn remove_id<K, Q>(index: &mut BTreeMap<K, Vec<RowId>>, key: &Q, id: RowId)
where
    K: Borrow<Q> + Ord,
    Q: Ord + ?Sized,
{
    if let Some(ids) = index.get_mut(key) {
        if let Ok(pos) = ids.binary_search(&id) {
            ids.remove(pos);
        }
        if ids.is_empty() {
            index.remove(key);
        }
    }
}

/// Intersection of two ascending id slices, two-pointer merge.
fn intersect_sorted(a: &[RowId], b: &[RowId]) -> Vec<RowId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// The entries of a case-sensitive string index whose key starts with
/// `prefix`, in key order.
fn range_cs<'a>(
    ix: &'a BTreeMap<Value, Vec<RowId>>,
    prefix: &str,
) -> impl Iterator<Item = (&'a Value, &'a Vec<RowId>)> {
    let start = Bound::Included(Value::Str(prefix.into()));
    let end = match plan::prefix_upper_bound(prefix) {
        Some(upper) => Bound::Excluded(Value::Str(upper.as_str().into())),
        None => Bound::Unbounded,
    };
    ix.range((start, end))
        .filter(|(k, _)| matches!(k, Value::Str(_)))
}

/// The entries of a case-folded index whose (lowercased) key starts with
/// the (lowercased) `prefix`, in key order.
fn range_ci<'a>(
    ix: &'a BTreeMap<String, Vec<RowId>>,
    prefix: &str,
) -> impl Iterator<Item = (&'a String, &'a Vec<RowId>)> {
    let start = Bound::Included(prefix.to_owned());
    let end = match plan::prefix_upper_bound(prefix) {
        Some(upper) => Bound::Excluded(upper),
        None => Bound::Unbounded,
    };
    ix.range((start, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::relations! {
        users {
            LOGIN: str "login" unique max_len(8),
            UID: int "uid" indexed,
            ACTIVE: boolean "active",
        }
        members {
            LIST_ID: int "list_id" indexed,
            MEMBER_ID: int "member_id" indexed,
            TAG: str "tag",
        }
        machine { NAME: str "name" unique, TYPE: str "type" }
    }
    use members::{LIST_ID, MEMBER_ID};
    use users::{ACTIVE, LOGIN, UID};

    fn users_table() -> Table {
        Table::new(users::R::schema())
    }

    fn row(login: &str, uid: i64, active: bool) -> Vec<Value> {
        vec![login.into(), uid.into(), active.into()]
    }

    #[test]
    fn append_and_get() {
        let mut t = users_table();
        let id = t.append(row("babette", 6530, true), 100).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(id).unwrap()[0], Value::Str("babette".into()));
        assert_eq!(t.stats().appends, 1);
        assert_eq!(t.stats().modtime, 100);
    }

    #[test]
    fn unique_violation() {
        let mut t = users_table();
        t.append(row("babette", 6530, true), 0).unwrap();
        assert_eq!(
            t.append(row("babette", 6531, true), 0),
            Err(MrError::Exists)
        );
    }

    #[test]
    fn arg_too_long() {
        let mut t = users_table();
        assert_eq!(
            t.append(row("waytoolongname", 1, true), 0),
            Err(MrError::ArgTooLong)
        );
    }

    /// The typed getter's invariant: no way into the slab stores a cell
    /// whose storage class is not its column's. Each entry is handed a
    /// wrong-typed cell; each must answer `MR_INTERNAL` and leave the table
    /// byte-for-byte as it was. `import_image` and `restore_table` need an
    /// empty table, the other two start from one row.
    #[test]
    fn every_entry_refuses_a_wrong_typed_cell() {
        use crate::Database;
        type Entry = fn(&mut Database) -> MrResult<()>;
        fn append(db: &mut Database) -> MrResult<()> {
            let login_as_int = vec![Value::Int(1), Value::Int(2), Value::Bool(true)];
            db.append(users::T, login_as_int).map(drop)
        }
        fn update(db: &mut Database) -> MrResult<()> {
            // `Col::set` cannot build this change; a hand-made handle of the
            // wrong kind can.
            let login_as_int: Col<users::R, crate::Int> = Col::new(LOGIN.index(), "login");
            db.update(0, &[login_as_int.set(7)])
        }
        fn import_image(db: &mut Database) -> MrResult<()> {
            let mut source = users_table();
            source.append(row("a", 1, true), 0)?;
            let mut image = source.export_image();
            image.rows[0].2[LOGIN.index()] = Value::Int(7);
            db.at_mut(users::R::ID).import_image(image)
        }
        fn restore_table(db: &mut Database) -> MrResult<()> {
            // `uid` is an int column.
            crate::backup::restore_table(db, users::R::ID, "a:six:1\n").map(drop)
        }
        let cases: [(&str, bool, Entry); 4] = [
            ("append", true, append),
            ("update", true, update),
            ("import_image", false, import_image),
            ("restore_table", false, restore_table),
        ];
        for (entry, seeded, wrong) in cases {
            let mut db = Database::new(Default::default());
            db.create_table(users::R::schema());
            if seeded {
                db.append(users::T, row("a", 1, true)).unwrap();
            }
            let before = db.at(users::R::ID).export_image();
            assert_eq!(wrong(&mut db), Err(MrError::Internal), "{entry}");
            assert_eq!(db.at(users::R::ID).export_image(), before, "{entry}");
        }
    }

    /// A refused update changes nothing: each case answers today's error
    /// and leaves the image and every indexed column's point selects —
    /// exact and case-folded — as they were. Rows `a` (0) and `b` (1) are
    /// live, slot 2 is dead.
    #[test]
    fn a_failed_update_changes_nothing() {
        use crate::Database;
        type Attempt = fn(&mut Database) -> MrResult<()>;
        fn too_long(db: &mut Database) -> MrResult<()> {
            db.update(0, &[LOGIN.set("waytoolongname")])
        }
        fn valid_then_unique_conflict(db: &mut Database) -> MrResult<()> {
            db.update(0, &[UID.set(5), LOGIN.set("b")])
        }
        fn dead_id(db: &mut Database) -> MrResult<()> {
            db.update(2, &[UID.set(5)])
        }
        fn wrong_kind(db: &mut Database) -> MrResult<()> {
            let login_as_int: Col<users::R, crate::Int> = Col::new(LOGIN.index(), "login");
            db.update(0, &[UID.set(5), login_as_int.set(7)])
        }
        fn probes(db: &Database) -> Vec<Vec<RowId>> {
            let logins = ["a", "b", "c", "A", "B", "waytoolongname"];
            let by_login = logins.iter().flat_map(|&l| {
                [
                    db.select(&Pred::Eq(LOGIN, l.into())),
                    db.select(&Pred::EqCi(LOGIN, l.into())),
                ]
            });
            let by_uid = [1, 2, 3, 5, 7].map(|u| db.select(&Pred::Eq(UID, u.into())));
            by_login.chain(by_uid).collect()
        }
        let cases: [(&str, MrError, Attempt); 4] = [
            ("too long", MrError::ArgTooLong, too_long),
            (
                "valid then unique conflict",
                MrError::Exists,
                valid_then_unique_conflict,
            ),
            ("dead id", MrError::NoMatch, dead_id),
            ("wrong kind", MrError::Internal, wrong_kind),
        ];
        for (case, want, attempt) in cases {
            let mut db = Database::new(Default::default());
            db.create_table(users::R::schema());
            for r in [row("a", 1, true), row("b", 2, true), row("c", 3, true)] {
                db.append(users::T, r).unwrap();
            }
            db.delete(users::T, 2).unwrap();
            let (image, selects) = (db.at(users::R::ID).export_image(), probes(&db));
            assert_eq!(attempt(&mut db), Err(want), "{case}");
            assert_eq!(db.at(users::R::ID).export_image(), image, "{case}");
            assert_eq!(probes(&db), selects, "{case}");
        }
    }

    /// An update that assigns every cell its stored value still counts:
    /// statistics, generation and the row's stamp move, the cells do not.
    #[test]
    fn a_no_op_update_still_counts() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.append(row("b", 2, true), 0).unwrap();
        let before = t.export_image();
        t.update(a, &[LOGIN.set("a"), UID.set(1), ACTIVE.set(true)], 9)
            .unwrap();
        let after = t.export_image();
        assert_eq!(after.stats.updates, before.stats.updates + 1);
        assert_eq!(after.stats.modtime, 9);
        assert_eq!(t.generation(), before.stats.generation + 1);
        assert_eq!(
            t.changed_since(before.stats.generation),
            vec![RowChange::Upserted(a)]
        );
        let cells = |image: &TableImage| -> Vec<Vec<Value>> {
            image.rows.iter().map(|(_, _, row)| row.clone()).collect()
        };
        assert_eq!(cells(&after), cells(&before));
    }

    #[test]
    fn select_by_index_and_scan() {
        let mut t = users_table();
        for i in 0..100 {
            t.append(row(&format!("u{i}"), 6000 + i, i % 2 == 0), 0)
                .unwrap();
        }
        let hits = t.rel(users::T).select(&Pred::Eq(UID, 6042.into()));
        assert_eq!(hits.len(), 1);
        assert_eq!(t.rel(users::T).row(hits[0]).unwrap().get(LOGIN), "u42");
        // Wildcard forces a scan.
        let scans = t.rel(users::T).select(&Pred::Like(LOGIN, "u4?".into()));
        assert_eq!(scans.len(), 10);
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = users_table();
        let id = t.append(row("old", 1, true), 0).unwrap();
        t.update(id, &[LOGIN.set("new"), UID.set(2)], 5).unwrap();
        assert!(t
            .rel(users::T)
            .select(&Pred::Eq(LOGIN, "old".into()))
            .is_empty());
        assert_eq!(
            t.rel(users::T).select(&Pred::Eq(LOGIN, "new".into())),
            vec![id]
        );
        assert_eq!(t.rel(users::T).select(&Pred::Eq(UID, 2.into())), vec![id]);
        assert_eq!(t.stats().updates, 1);
        assert_eq!(t.stats().modtime, 5);
    }

    #[test]
    fn update_unique_conflict_leaves_row_unchanged() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.append(row("b", 2, true), 0).unwrap();
        assert_eq!(t.update(a, &[LOGIN.set("b")], 0), Err(MrError::Exists));
        assert_eq!(t.rel(users::T).row(a).unwrap().get(LOGIN), "a");
    }

    #[test]
    fn update_to_same_unique_value_allowed() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.update(a, &[LOGIN.set("a"), UID.set(9)], 0).unwrap();
        assert_eq!(t.rel(users::T).row(a).unwrap().get(UID), 9);
    }

    #[test]
    fn delete_frees_and_reuses_slots() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.delete(a, 1).unwrap();
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(a), None);
        assert_eq!(t.delete(a, 1), Err(MrError::NoMatch));
        let b = t.append(row("b", 2, true), 2).unwrap();
        assert_eq!(b, a, "slot reused");
        // The unique value of the deleted row is free again.
        t.append(row("a", 3, true), 3).unwrap();
    }

    #[test]
    fn delete_where_counts() {
        let mut t = users_table();
        for i in 0..10 {
            t.append(row(&format!("u{i}"), i, i % 2 == 0), 0).unwrap();
        }
        let gone = t.delete_where(&Pred::Eq(ACTIVE, false.into()), 9);
        assert_eq!(gone, 5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.stats().deletes, 5);
    }

    #[test]
    fn select_one_and_count_agree_with_select() {
        let mut t = users_table();
        for i in 0..50 {
            t.append(row(&format!("u{i}"), 6000 + (i % 7), i % 2 == 0), 0)
                .unwrap();
        }
        // Delete a few so the slab has holes and the index buckets shrink.
        for id in t.rel(users::T).select(&Pred::Eq(UID, 6003.into())) {
            t.delete(id, 1).unwrap();
        }
        let preds = [
            Pred::True,
            Pred::Eq(UID, 6002.into()),      // indexed column
            Pred::Eq(UID, 9999.into()),      // indexed, no matches
            Pred::Eq(ACTIVE, true.into()),   // unindexed scan
            Pred::Like(LOGIN, "u1?".into()), // wildcard scan
            Pred::Like(LOGIN, "zz*".into()), // scan, no matches
        ];
        for pred in &preds {
            let full = t.rel(users::T).select(pred);
            assert_eq!(
                t.rel(users::T).select_one(pred),
                full.first().copied(),
                "{pred:?}"
            );
            assert_eq!(t.rel(users::T).count(pred), full.len(), "{pred:?}");
        }
    }

    #[test]
    fn index_buckets_stay_sorted_across_slot_reuse() {
        let mut t = users_table();
        // Slot 0 freed and reused later: insertion order into the uid-7000
        // bucket is 0, 1, 2, then 0 again — the bucket must come back
        // sorted so select needs no post-sort and select_one takes the
        // first survivor.
        let a = t.append(row("gone", 7000, true), 0).unwrap();
        t.append(row("b", 7000, true), 0).unwrap();
        t.append(row("c", 7000, true), 0).unwrap();
        t.delete(a, 0).unwrap();
        let reused = t.append(row("d", 7000, true), 0).unwrap();
        assert_eq!(reused, a);
        assert_eq!(
            t.rel(users::T).select(&Pred::Eq(UID, 7000.into())),
            vec![0, 1, 2]
        );
        assert_eq!(
            t.rel(users::T).select_one(&Pred::Eq(UID, 7000.into())),
            Some(a)
        );
        assert_eq!(
            t.rel(users::T).select_one(&Pred::Eq(UID, 7000.into())),
            t.rel(users::T)
                .select(&Pred::Eq(UID, 7000.into()))
                .first()
                .copied()
        );
    }

    fn members_table() -> Table {
        Table::new(members::R::schema())
    }

    #[test]
    fn explain_picks_point_range_and_scan() {
        let mut t = users_table();
        for i in 0..200 {
            t.append(row(&format!("u{i}"), 6000 + i, true), 0).unwrap();
        }
        assert_eq!(
            t.rel(users::T).explain(&Pred::Eq(UID, 6042.into())),
            "IndexPoint(uid=6042)"
        );
        assert_eq!(
            t.rel(users::T).explain(&Pred::Like(LOGIN, "u4?".into())),
            "IndexRange(login \"u4*\")"
        );
        // No literal prefix, and no index on `active` — scans.
        assert_eq!(
            t.rel(users::T).explain(&Pred::Like(LOGIN, "*4".into())),
            "Scan"
        );
        assert_eq!(
            t.rel(users::T).explain(&Pred::Eq(ACTIVE, true.into())),
            "Scan"
        );
        assert_eq!(t.rel(users::T).explain(&Pred::True), "Scan");
    }

    #[test]
    fn range_plan_matches_scan_results() {
        let mut t = users_table();
        for i in 0..300 {
            t.append(row(&format!("u{i}"), 6000 + i, i % 3 == 0), 0)
                .unwrap();
        }
        let pred = Pred::Like(LOGIN, "u1*".into());
        assert!(t.rel(users::T).explain(&pred).starts_with("IndexRange"));
        let via_plan = t.rel(users::T).select(&pred);
        assert_eq!(via_plan, t.rel(users::T).select_scan(&pred));
        assert_eq!(via_plan.len(), 111); // u1, u10..u19, u100..u199
        assert_eq!(t.rel(users::T).select_one(&pred), via_plan.first().copied());
        assert_eq!(t.rel(users::T).count(&pred), via_plan.len());
    }

    #[test]
    fn case_insensitive_predicates_use_folded_index() {
        let mut t = Table::new(machine::R::schema());
        for i in 0..100 {
            t.append(vec![format!("HOST{i}.MIT.EDU").into(), "VAX".into()], 0)
                .unwrap();
        }
        let eq = Pred::EqCi(machine::NAME, "host42.mit.edu".into());
        assert_eq!(
            t.rel(machine::T).explain(&eq),
            "IndexPoint(name ci=host42.mit.edu)"
        );
        assert_eq!(
            t.rel(machine::T).select(&eq),
            t.rel(machine::T).select_scan(&eq)
        );
        assert_eq!(t.rel(machine::T).select(&eq).len(), 1);

        let like = Pred::LikeCi(machine::NAME, "host9*".into());
        assert_eq!(
            t.rel(machine::T).explain(&like),
            "IndexRange(name ci \"host9*\")"
        );
        assert_eq!(
            t.rel(machine::T).select(&like),
            t.rel(machine::T).select_scan(&like)
        );
        assert_eq!(t.rel(machine::T).select(&like).len(), 11); // HOST9, HOST90..HOST99

        // The folded index tracks updates and deletes.
        let id = t.rel(machine::T).select_one(&eq).unwrap();
        t.update(id, &[machine::NAME.set("RENAMED.MIT.EDU")], 1)
            .unwrap();
        assert!(t.rel(machine::T).select(&eq).is_empty());
        let renamed = Pred::EqCi(machine::NAME, "renamed.mit.edu".into());
        assert_eq!(t.rel(machine::T).select(&renamed), vec![id]);
        t.delete(id, 2).unwrap();
        assert!(t.rel(machine::T).select(&renamed).is_empty());
    }

    #[test]
    fn conjunction_intersects_two_buckets() {
        let mut t = members_table();
        // 64 lists x 64 members: every bucket holds 64 ids, any pair
        // intersects in exactly one row.
        for list in 0..64 {
            for member in 0..64 {
                t.append(vec![list.into(), member.into(), "m".into()], 0)
                    .unwrap();
            }
        }
        let pred = Pred::And(vec![
            Pred::Eq(LIST_ID, 7.into()),
            Pred::Eq(MEMBER_ID, 44.into()),
        ]);
        assert_eq!(
            t.rel(members::T).explain(&pred),
            "IndexIntersect(list_id=7 & member_id=44)"
        );
        assert_eq!(
            t.rel(members::T).select(&pred),
            t.rel(members::T).select_scan(&pred)
        );
        assert_eq!(t.rel(members::T).select(&pred).len(), 1);
        assert_eq!(t.rel(members::T).count(&pred), 1);
        assert_eq!(
            t.rel(members::T).select_one(&pred),
            t.rel(members::T).select(&pred).first().copied()
        );
    }

    #[test]
    fn tiny_buckets_skip_the_intersect_overhead() {
        let mut t = members_table();
        for member in 0..8 {
            t.append(vec![1.into(), member.into(), "m".into()], 0)
                .unwrap();
        }
        // Both buckets are small — a single point lookup wins.
        let pred = Pred::And(vec![
            Pred::Eq(LIST_ID, 1.into()),
            Pred::Eq(MEMBER_ID, 3.into()),
        ]);
        assert!(t.rel(members::T).explain(&pred).starts_with("IndexPoint"));
        assert_eq!(
            t.rel(members::T).select(&pred),
            t.rel(members::T).select_scan(&pred)
        );
    }

    #[test]
    fn planner_never_changes_results_under_mutation_churn() {
        let mut t = users_table();
        for i in 0..120 {
            t.append(row(&format!("u{i}"), 6000 + (i % 11), i % 2 == 0), 0)
                .unwrap();
        }
        for id in t.rel(users::T).select(&Pred::Eq(UID, 6003.into())) {
            t.delete(id, 1).unwrap();
        }
        for i in 0..30 {
            t.append(row(&format!("r{i}"), 6003, true), 2).unwrap();
        }
        let preds = [
            Pred::True,
            Pred::Eq(UID, 6003.into()),
            Pred::And(vec![
                Pred::Eq(UID, 6003.into()),
                Pred::Eq(ACTIVE, true.into()),
            ]),
            Pred::Like(LOGIN, "u1*".into()),
            Pred::Like(LOGIN, "r*".into()),
            Pred::Or(vec![Pred::Eq(UID, 6001.into()), Pred::Eq(UID, 6002.into())]),
            Pred::Not(Pred::Eq(ACTIVE, true.into())),
        ];
        for pred in &preds {
            let scan = t.rel(users::T).select_scan(pred);
            assert_eq!(
                t.rel(users::T).select(pred),
                scan,
                "{pred:?} / {}",
                t.rel(users::T).explain(pred)
            );
            assert_eq!(
                t.rel(users::T).select_one(pred),
                scan.first().copied(),
                "{pred:?}"
            );
            assert_eq!(t.rel(users::T).count(pred), scan.len(), "{pred:?}");
        }
    }

    #[test]
    fn generation_counts_every_mutation() {
        let mut t = users_table();
        assert_eq!(t.generation(), 0);
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.update(a, &[UID.set(2)], 0).unwrap();
        t.delete(a, 0).unwrap();
        assert_eq!(t.generation(), 3);
        let s = t.stats();
        assert_eq!(s.appends + s.updates + s.deletes, s.generation);
    }

    #[test]
    fn changed_since_reports_upserts_and_tombstones() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        let b = t.append(row("b", 2, true), 0).unwrap();
        let cursor = t.generation();
        assert_eq!(t.changed_since(cursor), vec![]);
        t.update(b, &[UID.set(9)], 1).unwrap();
        t.delete(a, 1).unwrap();
        let c = t.append(row("c", 3, true), 1).unwrap();
        assert_eq!(c, a, "slot reused");
        // The reused slot reports Upserted, not Deleted: the tombstone is
        // cleared when the free list hands the slot back out.
        assert_eq!(
            t.changed_since(cursor),
            vec![RowChange::Upserted(a), RowChange::Upserted(b)]
        );
        // From zero, every live row is visible.
        assert_eq!(
            t.changed_since(0),
            vec![RowChange::Upserted(a), RowChange::Upserted(b)]
        );
        // At the current generation, nothing.
        assert_eq!(t.changed_since(t.generation()), vec![]);
    }

    #[test]
    fn changed_since_keeps_tombstone_until_reuse() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.append(row("b", 2, true), 0).unwrap();
        let cursor = t.generation();
        t.delete(a, 1).unwrap();
        assert_eq!(t.changed_since(cursor), vec![RowChange::Deleted(a)]);
        // An older cursor sees the delete too; a newer one does not.
        assert_eq!(
            t.changed_since(0),
            vec![RowChange::Deleted(a), RowChange::Upserted(1),]
        );
        assert_eq!(t.changed_since(t.generation()), vec![]);
    }

    #[test]
    fn same_second_mutations_have_distinct_generations() {
        let mut t = users_table();
        // Both writes land in second 100 — modtime cannot tell them apart,
        // generations can.
        t.append(row("a", 1, true), 100).unwrap();
        let g1 = t.generation();
        t.append(row("b", 2, true), 100).unwrap();
        assert_eq!(t.stats().modtime, 100);
        assert_eq!(t.changed_since(g1).len(), 1);
    }

    #[test]
    fn image_round_trip_preserves_slots_gens_and_reuse_order() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 10).unwrap();
        let b = t.append(row("b", 2, false), 11).unwrap();
        t.append(row("c", 3, true), 12).unwrap();
        t.update(b, &[UID.set(9)], 13).unwrap();
        t.delete(a, 14).unwrap();
        t.delete(b, 15).unwrap();

        let image = t.export_image();
        let mut back = users_table();
        back.import_image(image.clone()).unwrap();

        assert_eq!(back.export_image(), image);
        assert_eq!(back.stats(), t.stats());
        assert_eq!(back.changed_since(0), t.changed_since(0));
        assert_eq!(back.changed_since(3), t.changed_since(3));
        // Index state survives: lookups and uniqueness behave identically.
        assert_eq!(
            back.rel(users::T).select(&Pred::Eq(UID, 3.into())),
            t.rel(users::T).select(&Pred::Eq(UID, 3.into()))
        );
        assert_eq!(
            back.append(row("c", 7, true), 16),
            Err(MrError::Exists),
            "unique index restored"
        );
        // Free-list order survives: the next two appends reuse the same
        // slots in the same order on both tables.
        let n1 = t.append(row("x", 20, true), 17).unwrap();
        let n2 = t.append(row("y", 21, true), 17).unwrap();
        assert_eq!(back.append(row("x", 20, true), 17).unwrap(), n1);
        assert_eq!(back.append(row("y", 21, true), 17).unwrap(), n2);
        assert_eq!((n1, n2), (b, a), "LIFO reuse");
    }

    #[test]
    fn import_image_rejects_mutated_table_and_corrupt_images() {
        let mut t = users_table();
        t.append(row("a", 1, true), 0).unwrap();
        let image = t.export_image();
        assert_eq!(t.import_image(image.clone()), Err(MrError::Exists));

        let mut bad = image.clone();
        bad.free.push(0); // overlaps the live row in slot 0
        let mut fresh = users_table();
        assert_eq!(fresh.import_image(bad), Err(MrError::Internal));

        let mut wrong_arity = image.clone();
        wrong_arity.rows[0].2.pop();
        let mut fresh = users_table();
        assert_eq!(fresh.import_image(wrong_arity), Err(MrError::Internal));
    }

    #[test]
    fn import_image_bounds_ids_before_allocating() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.append(row("b", 2, true), 0).unwrap();
        t.append(row("c", 3, true), 0).unwrap();
        t.delete(a, 1).unwrap();
        let image = t.export_image();
        assert_eq!(users_table().import_image(image.clone()), Ok(()));

        // `usize::MAX + 1` wraps; 4e15 slots would be a 96 PB slab.
        for hostile in [usize::MAX, 4_000_000_000_000_000] {
            let mut bad = image.clone();
            bad.rows[0].0 = hostile;
            assert_eq!(users_table().import_image(bad), Err(MrError::Internal));
            let mut bad = image.clone();
            bad.free[0] = hostile;
            assert_eq!(users_table().import_image(bad), Err(MrError::Internal));
            let mut bad = image.clone();
            bad.dead[0].0 = hostile;
            assert_eq!(users_table().import_image(bad), Err(MrError::Internal));
        }
        // The same free slot listed twice would be handed out twice.
        let mut bad = image.clone();
        bad.free.push(a);
        assert_eq!(users_table().import_image(bad), Err(MrError::Internal));
        // A stamp the table's generation has not reached yet.
        let mut bad = image.clone();
        bad.rows[0].1 = bad.stats.generation + 1;
        assert_eq!(users_table().import_image(bad), Err(MrError::Internal));
    }

    #[test]
    fn iter_skips_dead_rows() {
        let mut t = users_table();
        let a = t.append(row("a", 1, true), 0).unwrap();
        t.append(row("b", 2, true), 0).unwrap();
        t.delete(a, 0).unwrap();
        let logins: Vec<String> = t.iter().map(|(_, r)| r[0].render()).collect();
        assert_eq!(logins, vec!["b"]);
    }
}
