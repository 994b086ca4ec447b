//! The Moira database schema — the relations of §6.
//!
//! Field names follow the paper. The three USERS fields the paper marks
//! *"\[unused\] … never implemented"* (`gid`, `uglist_id`, `ugdefault`) are
//! omitted. TBLSTATS is virtual: it is served straight from the engine's
//! per-table statistics rather than stored.
//!
//! Each relation is declared once, below: the entry per column yields the
//! schema [`create_all_tables`] installs, the relation's place in
//! [`RELATIONS`] (§6 order), its table handle (`users::T`) and the column
//! handle handlers name it by (`users::LOGIN`). A misspelt column, or a
//! column of another relation, does not compile.

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

moira_db::relations! {
    /// USERS: accounts, with the finger and pobox record groups.
    users {
        LOGIN: str "login" unique,
        USERS_ID: int "users_id" unique,
        UID: int "uid" indexed,
        SHELL: str "shell",
        LAST: str "last" indexed,
        FIRST: str "first",
        MIDDLE: str "middle",
        STATUS: int "status",
        MIT_ID: str "mit_id" indexed,
        MIT_YEAR: str "mit_year",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
        // Finger fields.
        FULLNAME: str "fullname",
        NICKNAME: str "nickname",
        HOME_ADDR: str "home_addr",
        HOME_PHONE: str "home_phone",
        OFFICE_ADDR: str "office_addr",
        OFFICE_PHONE: str "office_phone",
        MIT_DEPT: str "mit_dept",
        MIT_AFFIL: str "mit_affil",
        FMODTIME: int "fmodtime",
        FMODBY: str "fmodby",
        FMODWITH: str "fmodwith",
        // Pobox fields.
        POTYPE: str "potype",
        POP_ID: int "pop_id",
        BOX_ID: int "box_id",
        SAVED_POP: str "saved_pop", // machine name of previous POP assignment
        PMODTIME: int "pmodtime",
        PMODBY: str "pmodby",
        PMODWITH: str "pmodwith",
    }
    /// MACHINE: every host Moira knows.
    machine {
        NAME: str "name" unique,
        MACH_ID: int "mach_id" unique,
        TYPE: str "type",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// CLUSTER: named groups of machines.
    cluster {
        NAME: str "name" unique,
        CLU_ID: int "clu_id" unique,
        DESC: str "desc",
        LOCATION: str "location",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// MCMAP: machine-to-cluster membership.
    mcmap {
        MACH_ID: int "mach_id" indexed,
        CLU_ID: int "clu_id" indexed,
    }
    /// SVC: per-cluster service data.
    svc {
        CLU_ID: int "clu_id" indexed,
        SERV_LABEL: str "serv_label",
        SERV_CLUSTER: str "serv_cluster",
    }
    /// LIST: mailing lists, groups and ACLs.
    list {
        NAME: str "name" unique,
        LIST_ID: int "list_id" unique,
        ACTIVE: boolean "active",
        PUBLIC: boolean "public",
        HIDDEN: boolean "hidden",
        MAILLIST: boolean "maillist",
        GROUPLIST: boolean "grouplist",
        GID: int "gid" indexed,
        DESC: str "desc",
        ACL_TYPE: str "acl_type",
        ACL_ID: int "acl_id" indexed,
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// MEMBERS: list membership.
    members {
        LIST_ID: int "list_id" indexed,
        MEMBER_TYPE: str "member_type",
        MEMBER_ID: int "member_id" indexed,
    }
    /// SERVERS: the services the DCM updates.
    servers {
        NAME: str "name" unique,
        UPDATE_INT: int "update_int",
        TARGET_FILE: str "target_file",
        SCRIPT: str "script",
        DFGEN: int "dfgen",
        DFCHECK: int "dfcheck",
        TYPE: str "type",
        ENABLE: boolean "enable",
        INPROGRESS: boolean "inprogress",
        HARDERROR: int "harderror",
        ERRMSG: str "errmsg",
        ACL_TYPE: str "acl_type",
        ACL_ID: int "acl_id",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// SERVERHOSTS: the hosts each service runs on.
    serverhosts {
        SERVICE: str "service" indexed,
        MACH_ID: int "mach_id" indexed,
        ENABLE: boolean "enable",
        OVERRIDE: boolean "override",
        SUCCESS: boolean "success",
        INPROGRESS: boolean "inprogress",
        HOSTERROR: int "hosterror",
        HOSTERRMSG: str "hosterrmsg",
        LTT: int "ltt",
        LTS: int "lts",
        VALUE1: int "value1",
        VALUE2: int "value2",
        VALUE3: str "value3",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// FILESYS: lockers and other filesystems.
    filesys {
        LABEL: str "label" indexed,
        ORDER: int "order",
        FILSYS_ID: int "filsys_id" unique,
        PHYS_ID: int "phys_id" indexed,
        TYPE: str "type",
        MACH_ID: int "mach_id" indexed,
        NAME: str "name",
        MOUNT: str "mount",
        ACCESS: str "access",
        COMMENTS: str "comments",
        OWNER: int "owner" indexed,
        OWNERS: int "owners" indexed,
        CREATEFLG: boolean "createflg",
        LOCKERTYPE: str "lockertype",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// NFSPHYS: exported NFS partitions.
    nfsphys {
        NFSPHYS_ID: int "nfsphys_id" unique,
        MACH_ID: int "mach_id" indexed,
        DIR: str "dir",
        DEVICE: str "device",
        STATUS: int "status",
        ALLOCATED: int "allocated",
        SIZE: int "size",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// NFSQUOTA: per-user quotas on NFS filesystems.
    nfsquota {
        USERS_ID: int "users_id" indexed,
        FILSYS_ID: int "filsys_id" indexed,
        PHYS_ID: int "phys_id" indexed,
        QUOTA: int "quota",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// ZEPHYR: controlled Zephyr classes and their ACEs.
    zephyr {
        CLASS: str "class" unique,
        XMT_TYPE: str "xmt_type",
        XMT_ID: int "xmt_id",
        SUB_TYPE: str "sub_type",
        SUB_ID: int "sub_id",
        IWS_TYPE: str "iws_type",
        IWS_ID: int "iws_id",
        IUI_TYPE: str "iui_type",
        IUI_ID: int "iui_id",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// HOSTACCESS: who may log in to a server host.
    hostaccess {
        MACH_ID: int "mach_id" unique,
        ACL_TYPE: str "acl_type",
        ACL_ID: int "acl_id",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// STRINGS: interned free-form strings.
    strings {
        STRING_ID: int "string_id" unique,
        STRING: str "string" indexed,
    }
    /// SERVICES: `/etc/services` entries.
    services {
        NAME: str "name" unique,
        PROTOCOL: str "protocol",
        PORT: int "port",
        DESC: str "desc",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// PRINTCAP: printers.
    printcap {
        NAME: str "name" unique,
        MACH_ID: int "mach_id" indexed,
        DIR: str "dir",
        RP: str "rp",
        COMMENTS: str "comments",
        MODTIME: int "modtime",
        MODBY: str "modby",
        MODWITH: str "modwith",
    }
    /// CAPACLS: the list holding each query capability.
    capacls {
        CAPABILITY: str "capability" indexed,
        TAG: str "tag",
        LIST_ID: int "list_id" indexed,
    }
    /// ALIAS: type-checking keywords and translations.
    alias {
        NAME: str "name" indexed,
        TYPE: str "type" indexed,
        TRANS: str "trans",
    }
    /// VALUES: server variables and id hints.
    values {
        NAME: str "name" unique,
        VALUE: int "value",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moira_common::VClock;
    use moira_db::{Col, Database, Relation};

    /// Every handle of `R` points at the column of that name in the table
    /// `create_all_tables` installed for it.
    fn check<R: Relation>(db: &Database, rel: R, cols: &[Col<R>]) {
        let schema = db.table(rel).schema().clone();
        assert_eq!(schema.name, R::ID.name());
        assert_eq!(cols.len(), schema.arity(), "{}", schema.name);
        for (i, col) in cols.iter().enumerate() {
            assert_eq!(col.index(), i, "{}.{}", schema.name, col.name());
            assert_eq!(schema.columns[i].name, col.name(), "{}", schema.name);
        }
    }

    #[test]
    fn handles_agree_with_the_installed_schema() {
        let mut db = Database::new(VClock::new());
        create_all_tables(&mut db);
        macro_rules! check_all {
            ($($rel:ident),+) => {{
                $( check(&db, $rel::T, $rel::COLUMNS); )+
                [$($rel::R::ID),+]
            }};
        }
        // 20 stored relations + virtual TBLSTATS = the 21 of §6, in §6's
        // order.
        let section_6 = check_all!(
            users,
            machine,
            cluster,
            mcmap,
            svc,
            list,
            members,
            servers,
            serverhosts,
            filesys,
            nfsphys,
            nfsquota,
            zephyr,
            hostaccess,
            strings,
            services,
            printcap,
            capacls,
            alias,
            values
        );
        assert_eq!(RELATIONS, section_6);
        assert_eq!(db.table_ids().len(), 20);
    }
}
