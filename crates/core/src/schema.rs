//! The Moira database schema — the relations of §6.
//!
//! Field names follow the paper. The three USERS fields the paper marks
//! *"\[unused\] … never implemented"* (`gid`, `uglist_id`, `ugdefault`) are
//! omitted. TBLSTATS is virtual: it is served straight from the engine's
//! per-table statistics rather than stored.

use moira_db::schema::{ColumnDef as C, TableSchema};
use moira_db::Database;

/// Maximum login name length (historic 8-character limit).
pub const MAX_LOGIN_LEN: usize = 8;

/// The `status` values of the USERS relation (§6).
pub mod user_status {
    /// Not registered, but registerable.
    pub const REGISTERABLE: i64 = 0;
    /// Active account.
    pub const ACTIVE: i64 = 1;
    /// Half-registered.
    pub const HALF_REGISTERED: i64 = 2;
    /// Marked for deletion.
    pub const DELETED: i64 = 3;
    /// Not registerable.
    pub const NOT_REGISTERABLE: i64 = 4;
}

/// Sentinel: assign the next unused uid (`UNIQUE_UID` in `<moira.h>`).
pub const UNIQUE_UID: i64 = -1;

/// Sentinel: assign a unique GID (`UNIQUE_GID` in `<mr.h>`).
pub const UNIQUE_GID: i64 = -1;

/// Sentinel login: a `#` followed by the uid (`UNIQUE_LOGIN`).
pub const UNIQUE_LOGIN: &str = "#";

/// Builds every Moira relation in `db`.
pub fn create_all_tables(db: &mut Database) {
    db.create_table(TableSchema::new(
        "users",
        vec![
            C::str("login").unique(),
            C::int("users_id").unique(),
            C::int("uid").indexed(),
            C::str("shell"),
            C::str("last").indexed(),
            C::str("first"),
            C::str("middle"),
            C::int("status"),
            C::str("mit_id").indexed(),
            C::str("mit_year"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
            // Finger fields.
            C::str("fullname"),
            C::str("nickname"),
            C::str("home_addr"),
            C::str("home_phone"),
            C::str("office_addr"),
            C::str("office_phone"),
            C::str("mit_dept"),
            C::str("mit_affil"),
            C::int("fmodtime"),
            C::str("fmodby"),
            C::str("fmodwith"),
            // Pobox fields.
            C::str("potype"),
            C::int("pop_id"),
            C::int("box_id"),
            C::str("saved_pop"), // machine name of previous POP assignment
            C::int("pmodtime"),
            C::str("pmodby"),
            C::str("pmodwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "machine",
        vec![
            C::str("name").unique(),
            C::int("mach_id").unique(),
            C::str("type"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "cluster",
        vec![
            C::str("name").unique(),
            C::int("clu_id").unique(),
            C::str("desc"),
            C::str("location"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "mcmap",
        vec![C::int("mach_id").indexed(), C::int("clu_id").indexed()],
    ));
    db.create_table(TableSchema::new(
        "svc",
        vec![
            C::int("clu_id").indexed(),
            C::str("serv_label"),
            C::str("serv_cluster"),
        ],
    ));
    db.create_table(TableSchema::new(
        "list",
        vec![
            C::str("name").unique(),
            C::int("list_id").unique(),
            C::boolean("active"),
            C::boolean("public"),
            C::boolean("hidden"),
            C::boolean("maillist"),
            C::boolean("grouplist"),
            C::int("gid").indexed(),
            C::str("desc"),
            C::str("acl_type"),
            C::int("acl_id").indexed(),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "members",
        vec![
            C::int("list_id").indexed(),
            C::str("member_type"),
            C::int("member_id").indexed(),
        ],
    ));
    db.create_table(TableSchema::new(
        "servers",
        vec![
            C::str("name").unique(),
            C::int("update_int"),
            C::str("target_file"),
            C::str("script"),
            C::int("dfgen"),
            C::int("dfcheck"),
            C::str("type"),
            C::boolean("enable"),
            C::boolean("inprogress"),
            C::int("harderror"),
            C::str("errmsg"),
            C::str("acl_type"),
            C::int("acl_id"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "serverhosts",
        vec![
            C::str("service").indexed(),
            C::int("mach_id").indexed(),
            C::boolean("enable"),
            C::boolean("override"),
            C::boolean("success"),
            C::boolean("inprogress"),
            C::int("hosterror"),
            C::str("hosterrmsg"),
            C::int("ltt"),
            C::int("lts"),
            C::int("value1"),
            C::int("value2"),
            C::str("value3"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "filesys",
        vec![
            C::str("label").indexed(),
            C::int("order"),
            C::int("filsys_id").unique(),
            C::int("phys_id").indexed(),
            C::str("type"),
            C::int("mach_id").indexed(),
            C::str("name"),
            C::str("mount"),
            C::str("access"),
            C::str("comments"),
            C::int("owner").indexed(),
            C::int("owners").indexed(),
            C::boolean("createflg"),
            C::str("lockertype"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "nfsphys",
        vec![
            C::int("nfsphys_id").unique(),
            C::int("mach_id").indexed(),
            C::str("dir"),
            C::str("device"),
            C::int("status"),
            C::int("allocated"),
            C::int("size"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "nfsquota",
        vec![
            C::int("users_id").indexed(),
            C::int("filsys_id").indexed(),
            C::int("phys_id").indexed(),
            C::int("quota"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "zephyr",
        vec![
            C::str("class").unique(),
            C::str("xmt_type"),
            C::int("xmt_id"),
            C::str("sub_type"),
            C::int("sub_id"),
            C::str("iws_type"),
            C::int("iws_id"),
            C::str("iui_type"),
            C::int("iui_id"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "hostaccess",
        vec![
            C::int("mach_id").unique(),
            C::str("acl_type"),
            C::int("acl_id"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "strings",
        vec![C::int("string_id").unique(), C::str("string").indexed()],
    ));
    db.create_table(TableSchema::new(
        "services",
        vec![
            C::str("name").unique(),
            C::str("protocol"),
            C::int("port"),
            C::str("desc"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "printcap",
        vec![
            C::str("name").unique(),
            C::int("mach_id").indexed(),
            C::str("dir"),
            C::str("rp"),
            C::str("comments"),
            C::int("modtime"),
            C::str("modby"),
            C::str("modwith"),
        ],
    ));
    db.create_table(TableSchema::new(
        "capacls",
        vec![
            C::str("capability").indexed(),
            C::str("tag"),
            C::int("list_id").indexed(),
        ],
    ));
    db.create_table(TableSchema::new(
        "alias",
        vec![
            C::str("name").indexed(),
            C::str("type").indexed(),
            C::str("trans"),
        ],
    ));
    db.create_table(TableSchema::new(
        "values",
        vec![C::str("name").unique(), C::int("value")],
    ));
}

/// Names of every stored relation, in the order §6 presents them.
pub const RELATIONS: &[&str] = &[
    "users",
    "machine",
    "cluster",
    "mcmap",
    "svc",
    "list",
    "members",
    "servers",
    "serverhosts",
    "filesys",
    "nfsphys",
    "nfsquota",
    "zephyr",
    "hostaccess",
    "strings",
    "services",
    "printcap",
    "capacls",
    "alias",
    "values",
];

#[cfg(test)]
mod tests {
    use super::*;
    use moira_common::VClock;

    #[test]
    fn all_relations_created() {
        let mut db = Database::new(VClock::new());
        create_all_tables(&mut db);
        for r in RELATIONS {
            assert!(db.has_table(r), "{r}");
        }
        // 20 stored relations + virtual TBLSTATS = the 21 of §6.
        assert_eq!(RELATIONS.len(), 20);
        assert_eq!(db.table_names().len(), 20, "a table RELATIONS omits");
    }

    #[test]
    fn users_has_the_three_record_groups() {
        let mut db = Database::new(VClock::new());
        create_all_tables(&mut db);
        let t = db.table("users");
        for col in ["login", "fmodtime", "pmodtime", "potype", "mit_id"] {
            assert!(t.schema().col(col).is_some(), "{col}");
        }
    }
}
