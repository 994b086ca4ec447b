#![warn(missing_docs)]

//! An embedded relational engine — the substrate standing in for RTI INGRES.
//!
//! The paper (§5.2) is explicit that "Moira does not depend on any special
//! feature of INGRES … Moira can easily utilize other relational databases":
//! every access goes through predefined query handles layered over plain
//! retrieve/append/update/delete operations. This crate supplies exactly that
//! operation set:
//!
//! - [`value`] / [`schema`] — typed columns, table schemas, and the
//!   [`relations!`] declaration that yields a relation's schema and its typed
//!   table and column handles from one entry per column; a column handle
//!   carries its value kind, so a [`Row`] read returns `i64`, `&str` or
//!   `bool` directly.
//! - [`table`] — slab-stored rows, secondary indexes, predicate selection,
//!   and per-table statistics (the TBLSTATS relation's raw material).
//! - [`query`] — the predicate language (equality, wildcard `Like`,
//!   conjunction/disjunction) used by the query-handle layer.
//! - [`plan`] — the predicate planner: point/intersect/range index access
//!   chosen by a cost model over live bucket cardinalities, with the scan
//!   fallback and EXPLAIN descriptions.
//! - [`database`] — the tables of one schema set, reached by handle, with a
//!   shared virtual clock.
//! - [`backup`] — `mrbackup`/`mrrestore`: the colon-separated ASCII dump
//!   format with `\:`, `\\` and `\nnn` escapes, plus three-generation
//!   rotation (§5.2.2).
//! - [`journal`] — the append-only journal of successful changes that closes
//!   the "no more than a day's transactions" recovery gap (§5.2.2).
//! - [`wal`] / [`snapshot`] / [`storage`] — the durable engine: CRC-framed
//!   write-ahead log with group commit, atomic snapshot documents, and
//!   crash recovery that preserves the epoch and per-row generations the
//!   delta-DCM cursors depend on.

pub mod backup;
pub mod database;
pub mod journal;
pub mod plan;
pub mod query;
pub mod schema;
pub mod snapshot;
pub mod storage;
pub mod table;
pub mod value;
pub mod wal;

pub use database::{Database, GenCursor};
pub use plan::Plan;
pub use query::Pred;
pub use schema::{
    Any, Assign, Bool, Col, ColId, ColumnDef, Int, Kind, Relation, Str, TableId, TableSchema,
};
pub use storage::{
    DiskMedia, DurableEngine, GroupCommitConfig, Media, NullStorage, OpKind, RecoveredImage,
    SimMedia, Storage,
};
pub use table::{Row, RowChange, RowId, Table, TableRef};
pub use value::{ColType, Symbols, Value};
