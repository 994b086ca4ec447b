//! Table schemas, and the typed handles relations and columns are reached
//! through.
//!
//! The paper fixes Moira's relations (§6) and reaches them only through
//! predefined query handles; nothing creates a relation at run time. So
//! which slot `users.login` lives in is a compile-time fact, and
//! [`relations!`](crate::relations) states it once: one entry per column
//! yields the [`TableSchema`] installed at boot, a zero-sized tag type per
//! relation, a table handle, and one [`Col`] constant per column carrying
//! the column's index and its value [`Kind`]. Queries are built from those
//! constants — there is no lookup of a table or a column by name on any
//! query path, hence no typo to catch and no "no such column" to panic on.
//!
//! A [`Col`] is tagged with its relation and its kind, and the table is
//! implied by the column. A read of a live row returns the cell as `i64`,
//! `&str` or `bool`; an update pairs a column with a value of its kind:
//!
//! ```
//! moira_db::relations! {
//!     /// Accounts.
//!     users { LOGIN: str "login" unique, UID: int "uid" indexed }
//!     /// Hosts.
//!     machine { NAME: str "name" unique, TYPE: str "type" }
//! }
//! use moira_db::{Database, Pred};
//!
//! let mut db = Database::new(Default::default());
//! create_all_tables(&mut db);
//! let id = db.append(users::T, vec!["kit".into(), 6530.into()]).unwrap();
//! assert_eq!(db.select(&Pred::Eq(users::LOGIN, "kit".into())), vec![id]);
//! db.update(id, &[users::UID.set(6531)]).unwrap();
//! let row = db.table(users::T).row(id).unwrap();
//! assert_eq!((row.get(users::LOGIN), row.get(users::UID)), ("kit", 6531));
//! ```
//!
//! A predicate over `users` cannot name a column of `machine` (E0308) —
//!
//! ```compile_fail
//! # moira_db::relations! {
//! #     users { LOGIN: str "login" unique, UID: int "uid" indexed }
//! #     machine { NAME: str "name" unique, TYPE: str "type" }
//! # }
//! # use moira_db::{Database, Pred};
//! # let mut db = Database::new(Default::default());
//! # create_all_tables(&mut db);
//! let both = Pred::And(vec![
//!     Pred::Eq(users::LOGIN, "kit".into()),
//!     Pred::Eq(machine::NAME, "kit".into()),
//! ]);
//! # let _ = db.select(&both);
//! ```
//!
//! — an update's change list cannot mix relations (E0308) —
//!
//! ```compile_fail
//! # moira_db::relations! {
//! #     users { LOGIN: str "login" unique, UID: int "uid" indexed }
//! #     machine { NAME: str "name" unique, TYPE: str "type" }
//! # }
//! # use moira_db::{Database, Pred};
//! # let mut db = Database::new(Default::default());
//! # create_all_tables(&mut db);
//! # let id = db.append(users::T, vec!["kit".into(), 6530.into()]).unwrap();
//! db.update(id, &[users::UID.set(6531), machine::TYPE.set("VAX")]).unwrap();
//! ```
//!
//! — nor give an `int` column a string (E0308) —
//!
//! ```compile_fail
//! # moira_db::relations! {
//! #     users { LOGIN: str "login" unique, UID: int "uid" indexed }
//! # }
//! # use moira_db::Database;
//! # let mut db = Database::new(Default::default());
//! # create_all_tables(&mut db);
//! # let id = db.append(users::T, vec!["kit".into(), 6530.into()]).unwrap();
//! db.update(id, &[users::UID.set("6531")]).unwrap();
//! ```
//!
//! — a row of one relation hands out cells of its own relation only
//! (E0308) —
//!
//! ```compile_fail
//! # moira_db::relations! {
//! #     users { LOGIN: str "login" unique, UID: int "uid" indexed }
//! #     machine { NAME: str "name" unique, TYPE: str "type" }
//! # }
//! # use moira_db::Database;
//! # let mut db = Database::new(Default::default());
//! # create_all_tables(&mut db);
//! # let id = db.append(users::T, vec!["kit".into(), 6530.into()]).unwrap();
//! let _ = db.table(users::T).row(id).unwrap().get(machine::NAME);
//! ```
//!
//! — and an `int` column does not read as a string (E0308):
//!
//! ```compile_fail
//! # moira_db::relations! {
//! #     users { LOGIN: str "login" unique, UID: int "uid" indexed }
//! # }
//! # use moira_db::Database;
//! # let mut db = Database::new(Default::default());
//! # create_all_tables(&mut db);
//! # let id = db.append(users::T, vec!["kit".into(), 6530.into()]).unwrap();
//! let uid: &str = db.table(users::T).row(id).unwrap().get(users::UID);
//! ```
//!
//! Names stay strings exactly where they are data: in the documents on disk
//! (`snapshot`, `backup`), in `explain()` text and in TBLSTATS rows. Those
//! readers resolve a name through [`Database::lookup`](crate::Database::lookup),
//! the one by-name lookup, which answers `None` rather than panicking.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::fmt;
use std::marker::PhantomData;

use crate::value::{ColType, Value};

/// Definition of one column.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name.
    pub name: &'static str,
    /// Storage class.
    pub ty: ColType,
    /// Maximum rendered length for string columns (0 = unlimited). Exceeding
    /// it yields `MR_ARG_TOO_LONG` at the query layer.
    pub max_len: usize,
    /// If true, the engine rejects duplicate values in this column
    /// (`MR_EXISTS`).
    pub unique: bool,
    /// If true, the table maintains a secondary index on this column.
    pub indexed: bool,
}

impl ColumnDef {
    /// A plain column of the given type.
    pub fn new(name: &'static str, ty: ColType) -> Self {
        ColumnDef {
            name,
            ty,
            max_len: 0,
            unique: false,
            indexed: false,
        }
    }

    /// Shorthand for an integer column.
    pub fn int(name: &'static str) -> Self {
        Self::new(name, ColType::Int)
    }

    /// Shorthand for a string column.
    pub fn str(name: &'static str) -> Self {
        Self::new(name, ColType::Str)
    }

    /// Shorthand for a boolean column.
    pub fn boolean(name: &'static str) -> Self {
        Self::new(name, ColType::Bool)
    }

    /// Sets the maximum string length.
    pub fn max_len(mut self, n: usize) -> Self {
        self.max_len = n;
        self
    }

    /// Marks the column unique (implies indexed).
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self.indexed = true;
        self
    }

    /// Marks the column indexed.
    pub fn indexed(mut self) -> Self {
        self.indexed = true;
        self
    }
}

/// A named table schema.
#[derive(Debug, Clone)]
pub struct TableSchema {
    /// Table (relation) name.
    pub name: &'static str,
    /// Columns in storage order.
    pub columns: Vec<ColumnDef>,
}

impl TableSchema {
    /// Creates a schema.
    ///
    /// A relation declared through [`relations!`](crate::relations) cannot
    /// repeat a column (two constants of one name do not compile); a schema
    /// assembled at run time is checked here, in every build profile — it
    /// happens once, at boot.
    ///
    /// # Panics
    ///
    /// Panics if two columns share a name.
    pub fn new(name: &'static str, columns: Vec<ColumnDef>) -> Self {
        let duplicate = columns
            .iter()
            .enumerate()
            .any(|(i, c)| columns[..i].iter().any(|d| d.name == c.name));
        assert!(!duplicate, "duplicate column in table {name}");
        TableSchema { name, columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }
}

/// A relation declared by [`relations!`](crate::relations): implemented by
/// the zero-sized tag type the macro generates per relation. The tag's only
/// value is the table handle, so code generic over `R` gets the handle as
/// `R::default()`.
pub trait Relation: Copy + Default + 'static {
    /// The relation's erased identity: its name and its slot in a database
    /// the declaring `create_all_tables` built.
    const ID: TableId;

    /// The schema `create_all_tables` installs for this relation.
    fn schema() -> TableSchema;
}

/// A relation's identity with its type erased: what code that handles
/// relations as *data* holds — a generator's dependency list, a generation
/// cursor, a checkpoint walking every table.
///
/// Ordered by name, so sets of ids iterate in the name order the on-disk
/// documents are written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId {
    name: &'static str,
    slot: usize,
}

impl TableId {
    /// An id for the relation called `name`, created `slot`-th.
    pub const fn new(name: &'static str, slot: usize) -> Self {
        TableId { name, slot }
    }

    /// The relation's name.
    pub const fn name(self) -> &'static str {
        self.name
    }

    /// The relation's position in its database.
    pub(crate) const fn slot(self) -> usize {
        self.slot
    }
}

/// A column's position and name with its relation erased — what the engine
/// works on underneath the typed [`Col`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ColId {
    pub(crate) idx: usize,
    /// For `explain()` text only; nothing resolves a column by it.
    pub(crate) name: &'static str,
}

impl fmt::Debug for ColId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// A column's value kind: the storage class `relations!` declared for it,
/// carried in the column handle's type so that a read returns the cell as a
/// plain `i64`, `&str` or `bool` and an update takes only a value of that
/// type. The kinds are [`Int`], [`Str`] and [`Bool`]; [`Any`] is a column
/// with its kind erased, which can be rendered but not read.
pub trait Kind: 'static {
    /// What a read returns, borrowing the row for `'a`.
    type Cell<'a>: Copy + Default;

    /// The cell as this kind, or `None` when it holds another storage class.
    fn read(v: &Value) -> Option<Self::Cell<'_>>;
}

/// The kind of an `int` column: reads as `i64`.
#[derive(Debug)]
pub enum Int {}

/// The kind of a `str` column: reads as `&str`, borrowed from the row.
#[derive(Debug)]
pub enum Str {}

/// The kind of a `boolean` column: reads as `bool`.
#[derive(Debug)]
pub enum Bool {}

/// A column whose kind is erased — the element type of a projection's
/// column list, which mixes kinds and is only ever rendered.
#[derive(Debug)]
pub enum Any {}

impl Kind for Int {
    type Cell<'a> = i64;

    fn read(v: &Value) -> Option<i64> {
        match v {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl Kind for Str {
    type Cell<'a> = &'a str;

    fn read(v: &Value) -> Option<&str> {
        match v {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl Kind for Bool {
    type Cell<'a> = bool;

    fn read(v: &Value) -> Option<bool> {
        match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Maps a `relations!` column type to its [`Kind`].
#[doc(hidden)]
#[macro_export]
macro_rules! __column_kind {
    (str) => {
        $crate::schema::Str
    };
    (int) => {
        $crate::schema::Int
    };
    (boolean) => {
        $crate::schema::Bool
    };
}

/// A column of relation `R` holding values of kind `K`: its index in the
/// row, tagged with the relation so it cannot be applied to another one's
/// rows and with the kind so it reads and writes one type only.
pub struct Col<R, K = Any> {
    id: ColId,
    _rel: PhantomData<fn() -> (R, K)>,
}

impl<R, K> Clone for Col<R, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R, K> Copy for Col<R, K> {}

impl<R, K> fmt::Debug for Col<R, K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.id.fmt(f)
    }
}

impl<R, K> Col<R, K> {
    /// The column at `idx`, called `name`, of kind `K`.
    /// [`relations!`](crate::relations) is the intended caller: it derives
    /// the index, the name and the kind from the one column entry. A handle
    /// built by hand must name the kind its column was declared with; a
    /// read through one that does not returns the kind's default.
    pub const fn new(idx: usize, name: &'static str) -> Self {
        Col {
            id: ColId { idx, name },
            _rel: PhantomData,
        }
    }

    /// The column's index in a row of its relation.
    pub const fn index(self) -> usize {
        self.id.idx
    }

    /// The column's name — for tuple field names on the wire and EXPLAIN.
    pub const fn name(self) -> &'static str {
        self.id.name
    }

    /// The column with its relation erased.
    pub(crate) const fn id(self) -> ColId {
        self.id
    }

    /// The column with its kind erased, for a projection's column list.
    pub const fn erase(self) -> Col<R> {
        Col {
            id: self.id,
            _rel: PhantomData,
        }
    }

    /// The names of `cols`, in order: a query handle that returns exactly a
    /// projection's columns derives its `returns` from the projection.
    pub const fn names<const N: usize>(cols: &[Col<R, K>; N]) -> [&'static str; N] {
        let mut out = [""; N];
        let mut i = 0;
        while i < N {
            out[i] = cols[i].id.name;
            i += 1;
        }
        out
    }

    fn assign(self, value: Value) -> Assign<R> {
        Assign {
            col: self.id,
            value,
            _rel: PhantomData,
        }
    }
}

impl<R> Col<R, Int> {
    /// The change "this column becomes `v`", for an update's change list.
    pub fn set(self, v: i64) -> Assign<R> {
        self.assign(Value::Int(v))
    }
}

impl<R> Col<R, Str> {
    /// The change "this column becomes `v`", for an update's change list.
    pub fn set(self, v: impl AsRef<str>) -> Assign<R> {
        self.assign(v.as_ref().into())
    }
}

impl<R> Col<R, Bool> {
    /// The change "this column becomes `v`", for an update's change list.
    pub fn set(self, v: bool) -> Assign<R> {
        self.assign(Value::Bool(v))
    }
}

/// One entry of an update's change list over relation `R`: a column and a
/// value of the column's kind, made by `Col::set`.
pub struct Assign<R> {
    pub(crate) col: ColId,
    pub(crate) value: Value,
    _rel: PhantomData<fn() -> R>,
}

impl<R> fmt::Debug for Assign<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}={}", self.col, self.value)
    }
}

/// Declares a set of relations, once.
///
/// Each relation is `name { CONST: type "column" flags…, … }` with `type`
/// one of `str`, `int`, `boolean` and flags any of `unique`, `indexed`,
/// `max_len(n)` — the [`ColumnDef`] builders. Per relation this generates a
/// module `name` holding the tag type `R`, the table handle `T`, one
/// `Col<R, K>` constant per column — `K` the [`Kind`] its type names — and
/// `COLUMNS`, all of them in storage order;
/// for the set, `RELATIONS` (the
/// [`TableId`]s in declaration order) and `create_all_tables`, which
/// installs the schemas into an empty [`Database`](crate::Database) in that
/// order — the order the generated slots assume.
#[macro_export]
macro_rules! relations {
    ($(
        $(#[$meta:meta])*
        $rel:ident {
            $( $col:ident : $ty:ident $name:literal $( $flag:ident $( ( $arg:expr ) )? )* ),+ $(,)?
        }
    )+) => {
        #[allow(non_camel_case_types)]
        #[repr(usize)]
        enum RelationSlot { $($rel),+ }

        // A declaration yields every handle; a private invocation (a test's
        // ad hoc schema) need not use them all.
        $(
            $(#[$meta])*
            #[allow(dead_code)]
            pub mod $rel {
                /// The relation's tag type.
                #[derive(Debug, Clone, Copy, Default)]
                pub struct R;

                /// The relation's table handle.
                pub const T: R = R;

                #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
                #[repr(usize)]
                enum Index { $($col),+ }

                $(
                    #[doc = concat!("Column `", $name, "`.")]
                    pub const $col: $crate::schema::Col<R, $crate::__column_kind!($ty)> =
                        $crate::schema::Col::new(Index::$col as usize, $name);
                )+

                /// Every column, in storage order, kinds erased.
                pub const COLUMNS: &[$crate::schema::Col<R>] = &[$($col.erase()),+];
            }

            impl $crate::schema::Relation for $rel::R {
                const ID: $crate::schema::TableId =
                    $crate::schema::TableId::new(stringify!($rel), RelationSlot::$rel as usize);

                fn schema() -> $crate::schema::TableSchema {
                    $crate::schema::TableSchema::new(
                        stringify!($rel),
                        vec![$( $crate::schema::ColumnDef::$ty($name)$(.$flag($($arg)?))* ),+],
                    )
                }
            }
        )+

        /// Every relation of the set, in declaration order.
        #[allow(dead_code)]
        pub const RELATIONS: &[$crate::schema::TableId] =
            &[$(<$rel::R as $crate::schema::Relation>::ID),+];

        /// Builds every relation of the set in `db`, which must hold no
        /// table yet: the generated handles address tables by creation
        /// order.
        #[allow(dead_code)]
        pub fn create_all_tables(db: &mut $crate::Database) {
            $( db.create_table(<$rel::R as $crate::schema::Relation>::schema()); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::relations! {
        users { LOGIN: str "login" unique max_len(8), UID: int "uid" indexed, ACTIVE: boolean "active" }
        machine { NAME: str "name" unique, TYPE: str "type" }
    }

    #[test]
    fn handles_agree_with_the_generated_schema() {
        let s = <users::R as Relation>::schema();
        assert_eq!(s.name, "users");
        assert_eq!(s.arity(), 3);
        for col in users::COLUMNS {
            assert_eq!(s.columns[col.index()].name, col.name());
        }
        assert!(s.columns[0].unique && s.columns[0].indexed);
        assert_eq!(s.columns[0].max_len, 8);
        assert!(s.columns[1].indexed && !s.columns[1].unique);
        assert_eq!(machine::TYPE.index(), 1);
        assert_eq!(
            RELATIONS,
            &[TableId::new("users", 0), TableId::new("machine", 1)]
        );
        assert_eq!(
            Col::names(&[users::UID.erase(), users::LOGIN.erase()]),
            ["uid", "login"]
        );
    }

    #[test]
    fn table_ids_order_by_name() {
        let mut ids = RELATIONS.to_vec();
        ids.sort();
        assert_eq!(ids[0].name(), "machine");
    }

    #[test]
    fn unique_implies_indexed() {
        let c = ColumnDef::str("login").unique();
        assert!(c.unique && c.indexed);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        TableSchema::new("t", vec![ColumnDef::int("a"), ColumnDef::int("a")]);
    }
}
