//! Filesystem, NFS physical partition, and quota queries (§7.0.5).

use moira_common::errors::{MrError, MrResult};
use moira_db::{Pred, RowId, Value};

use crate::ace::{list_id_of, user_in_list, users_id_of};
use crate::ids::alloc_id;
use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::schema::{filesys, machine, nfsphys, nfsquota};
use crate::state::{Caller, MoiraState};

use super::helpers::*;

const FS_RETURNS: &[&str] = &[
    "name",
    "fstype",
    "machine",
    "packname",
    "mountpoint",
    "access",
    "comments",
    "owner",
    "owners",
    "create",
    "lockertype",
    "modtime",
    "modby",
    "modwith",
];

const NFSPHYS_RETURNS: &[&str] = &[
    "machine",
    "dir",
    "device",
    "status",
    "allocated",
    "size",
    "modtime",
    "modby",
    "modwith",
];

/// Registers the filesystem queries.
pub fn register(r: &mut Registry) {
    use AccessRule::*;
    use QueryKind::*;
    let qs: &[QueryHandle] = &[
        QueryHandle {
            name: "get_filesys_by_label",
            shortname: "gfsl",
            kind: Retrieve,
            access: Public,
            args: &["name"],
            returns: FS_RETURNS,
            handler: Handler::Read(get_filesys_by_label),
        },
        QueryHandle {
            name: "get_filesys_by_machine",
            shortname: "gfsm",
            kind: Retrieve,
            access: Public,
            args: &["machine"],
            returns: FS_RETURNS,
            handler: Handler::Read(get_filesys_by_machine),
        },
        QueryHandle {
            name: "get_filesys_by_nfsphys",
            shortname: "gfsn",
            kind: Retrieve,
            access: Public,
            args: &["machine", "partition"],
            returns: FS_RETURNS,
            handler: Handler::Read(get_filesys_by_nfsphys),
        },
        QueryHandle {
            name: "get_filesys_by_group",
            shortname: "gfsg",
            kind: Retrieve,
            access: Custom,
            args: &["list"],
            returns: FS_RETURNS,
            handler: Handler::Read(get_filesys_by_group),
        },
        QueryHandle {
            name: "add_filesys",
            shortname: "afil",
            kind: Append,
            access: QueryAcl,
            args: &[
                "name",
                "fstype",
                "machine",
                "packname",
                "mountpoint",
                "access",
                "comments",
                "owner",
                "owners",
                "create",
                "lockertype",
            ],
            returns: &[],
            handler: Handler::Write(add_filesys),
        },
        QueryHandle {
            name: "update_filesys",
            shortname: "ufil",
            kind: Update,
            access: QueryAcl,
            args: &[
                "name",
                "newname",
                "fstype",
                "machine",
                "packname",
                "mountpoint",
                "access",
                "comments",
                "owner",
                "owners",
                "create",
                "lockertype",
            ],
            returns: &[],
            handler: Handler::Write(update_filesys),
        },
        QueryHandle {
            name: "delete_filesys",
            shortname: "dfil",
            kind: Delete,
            access: QueryAcl,
            args: &["name"],
            returns: &[],
            handler: Handler::Write(delete_filesys),
        },
        QueryHandle {
            name: "get_all_nfsphys",
            shortname: "ganf",
            kind: Retrieve,
            access: Public,
            args: &[],
            returns: NFSPHYS_RETURNS,
            handler: Handler::Read(get_all_nfsphys),
        },
        QueryHandle {
            name: "get_nfsphys",
            shortname: "gnfp",
            kind: Retrieve,
            access: Public,
            args: &["machine", "dir"],
            returns: NFSPHYS_RETURNS,
            handler: Handler::Read(get_nfsphys),
        },
        QueryHandle {
            name: "add_nfsphys",
            shortname: "anfp",
            kind: Append,
            access: QueryAcl,
            args: &[
                "machine",
                "directory",
                "device",
                "status",
                "allocated",
                "size",
            ],
            returns: &[],
            handler: Handler::Write(add_nfsphys),
        },
        QueryHandle {
            name: "update_nfsphys",
            shortname: "unfp",
            kind: Update,
            access: QueryAcl,
            args: &[
                "machine",
                "directory",
                "device",
                "status",
                "allocated",
                "size",
            ],
            returns: &[],
            handler: Handler::Write(update_nfsphys),
        },
        QueryHandle {
            name: "adjust_nfsphys_allocation",
            shortname: "ajnf",
            kind: Update,
            access: QueryAcl,
            args: &["machine", "directory", "delta"],
            returns: &[],
            handler: Handler::Write(adjust_nfsphys_allocation),
        },
        QueryHandle {
            name: "delete_nfsphys",
            shortname: "dnfp",
            kind: Delete,
            access: QueryAcl,
            args: &["machine", "directory"],
            returns: &[],
            handler: Handler::Write(delete_nfsphys),
        },
        QueryHandle {
            name: "get_nfs_quota",
            shortname: "gnfq",
            kind: Retrieve,
            access: Custom,
            args: &["filesys", "login"],
            returns: &[
                "filesys",
                "login",
                "quota",
                "directory",
                "machine",
                "modtime",
                "modby",
                "modwith",
            ],
            handler: Handler::Read(get_nfs_quota),
        },
        QueryHandle {
            name: "get_nfs_quotas_by_partition",
            shortname: "gnqp",
            kind: Retrieve,
            access: Public,
            args: &["machine", "directory"],
            returns: &["filesys", "login", "quota", "directory", "machine"],
            handler: Handler::Read(get_nfs_quotas_by_partition),
        },
        QueryHandle {
            name: "add_nfs_quota",
            shortname: "anfq",
            kind: Append,
            access: QueryAcl,
            args: &["filesystem", "login", "quota"],
            returns: &[],
            handler: Handler::Write(add_nfs_quota),
        },
        QueryHandle {
            name: "update_nfs_quota",
            shortname: "unfq",
            kind: Update,
            access: QueryAcl,
            args: &["filesystem", "login", "quota"],
            returns: &[],
            handler: Handler::Write(update_nfs_quota),
        },
        QueryHandle {
            name: "delete_nfs_quota",
            shortname: "dnfq",
            kind: Delete,
            access: QueryAcl,
            args: &["filesystem", "login"],
            returns: &[],
            handler: Handler::Write(delete_nfs_quota),
        },
    ];
    for q in qs {
        r.register(*q);
    }
}

fn render_filesys(state: &MoiraState, row: RowId) -> Vec<String> {
    let t = state.db.table(filesys::T);
    vec![
        t.cell(row, filesys::LABEL).render(),
        t.cell(row, filesys::TYPE).render(),
        machine_name(state, t.cell(row, filesys::MACH_ID).as_int()),
        t.cell(row, filesys::NAME).render(),
        t.cell(row, filesys::MOUNT).render(),
        t.cell(row, filesys::ACCESS).render(),
        t.cell(row, filesys::COMMENTS).render(),
        user_login(state, t.cell(row, filesys::OWNER).as_int()),
        list_name(state, t.cell(row, filesys::OWNERS).as_int()),
        t.cell(row, filesys::CREATEFLG).render(),
        t.cell(row, filesys::LOCKERTYPE).render(),
        t.cell(row, filesys::MODTIME).render(),
        t.cell(row, filesys::MODBY).render(),
        t.cell(row, filesys::MODWITH).render(),
    ]
}

fn get_filesys_by_label(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let ids = state.db.select(&Pred::name_match(filesys::LABEL, &a[0]));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(ids
        .into_iter()
        .map(|id| render_filesys(state, id))
        .collect())
}

fn get_filesys_by_machine(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let mrow = one_machine(state, &a[0])?;
    let mach_id = state.db.cell(mrow, machine::MACH_ID).as_int();
    let ids = state.db.select(&Pred::Eq(filesys::MACH_ID, mach_id.into()));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(ids
        .into_iter()
        .map(|id| render_filesys(state, id))
        .collect())
}

fn get_filesys_by_nfsphys(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let mrow = one_machine(state, &a[0])?;
    let mach_id = state.db.cell(mrow, machine::MACH_ID).as_int();
    let mut phys_ids = Vec::new();
    for prow in state.db.select(&Pred::Eq(nfsphys::MACH_ID, mach_id.into())) {
        let dir = state.db.cell(prow, nfsphys::DIR).render();
        if moira_common::wildcard::matches(&a[1], &dir) {
            phys_ids.push(state.db.cell(prow, nfsphys::NFSPHYS_ID).as_int());
        }
    }
    if phys_ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    let mut out = Vec::new();
    for pid in phys_ids {
        for row in state.db.select(&Pred::Eq(filesys::PHYS_ID, pid.into())) {
            out.push(render_filesys(state, row));
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn get_filesys_by_group(
    state: &MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let list_id = list_id_of(&state.db, &a[0])?;
    // "This query may be executed by a member of the target list."
    let allowed = on_query_acl(state, c, "get_filesys_by_group")
        || c.principal
            .as_deref()
            .and_then(|p| users_id_of(&state.db, p).ok())
            .is_some_and(|uid| user_in_list(&state.db, uid, list_id));
    if !allowed {
        return Err(MrError::Perm);
    }
    let ids = state.db.select(&Pred::Eq(filesys::OWNERS, list_id.into()));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(ids
        .into_iter()
        .map(|id| render_filesys(state, id))
        .collect())
}

/// Validates the pack name against exported NFS partitions: it must lie
/// under an existing nfsphys directory on the same machine (`MR_NFS`
/// "Specified directory not exported"). Returns the `nfsphys_id`.
fn nfs_pack_check(state: &MoiraState, mach_id: i64, packname: &str) -> MrResult<i64> {
    for prow in state.db.select(&Pred::Eq(nfsphys::MACH_ID, mach_id.into())) {
        let dir = state.db.cell(prow, nfsphys::DIR).render();
        if packname == dir || packname.starts_with(&format!("{}/", dir.trim_end_matches('/'))) {
            return Ok(state.db.cell(prow, nfsphys::NFSPHYS_ID).as_int());
        }
    }
    Err(MrError::Nfs)
}

struct FsArgs {
    fstype: String,
    mach_id: i64,
    phys_id: i64,
    owner: i64,
    owners: i64,
    create: bool,
}

#[allow(clippy::too_many_arguments)] // mirrors the add/update_filesys signatures
fn validate_fs_args(
    state: &MoiraState,
    fstype: &str,
    machine: &str,
    packname: &str,
    access: &str,
    owner: &str,
    owners: &str,
    create: &str,
    lockertype: &str,
) -> MrResult<FsArgs> {
    check_type_alias(state, "filesys", fstype, MrError::Fstype)?;
    check_type_alias(state, "lockertype", lockertype, MrError::Type)?;
    let mrow = one_machine(state, machine)?;
    let mach_id = state.db.cell(mrow, machine::MACH_ID).as_int();
    let owner = users_id_of(&state.db, owner)?;
    let owners = list_id_of(&state.db, owners)?;
    let create = parse_bool(create)?;
    let fstype = fstype.to_ascii_uppercase();
    let phys_id = if fstype == "NFS" {
        if access != "r" && access != "w" {
            return Err(MrError::FilesysAccess);
        }
        nfs_pack_check(state, mach_id, packname)?
    } else {
        0
    };
    Ok(FsArgs {
        fstype,
        mach_id,
        phys_id,
        owner,
        owners,
        create,
    })
}

fn add_filesys(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    check_chars(&a[0])?;
    no_wildcards(&a[0])?;
    if state
        .db
        .table(filesys::T)
        .select_one(&Pred::Eq(filesys::LABEL, a[0].as_str().into()))
        .is_some()
    {
        return Err(MrError::FilesysExists);
    }
    let v = validate_fs_args(
        state, &a[1], &a[2], &a[3], &a[5], &a[7], &a[8], &a[9], &a[10],
    )?;
    let filsys_id = alloc_id(state, "filsys_id")?;
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        filesys::T,
        vec![
            a[0].as_str().into(),
            0.into(),
            filsys_id.into(),
            v.phys_id.into(),
            v.fstype.into(),
            v.mach_id.into(),
            a[3].as_str().into(),
            a[4].as_str().into(),
            a[5].as_str().into(),
            a[6].as_str().into(),
            v.owner.into(),
            v.owners.into(),
            v.create.into(),
            a[10].to_ascii_uppercase().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn update_filesys(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_filesys(state, &a[0])?;
    check_chars(&a[1])?;
    no_wildcards(&a[1])?;
    let current = state.db.cell(row, filesys::LABEL).as_str().to_owned();
    if a[1] != current
        && state
            .db
            .table(filesys::T)
            .select_one(&Pred::Eq(filesys::LABEL, a[1].as_str().into()))
            .is_some()
    {
        return Err(MrError::NotUnique);
    }
    let v = validate_fs_args(
        state, &a[2], &a[3], &a[4], &a[6], &a[8], &a[9], &a[10], &a[11],
    )?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (filesys::LABEL, a[1].as_str().into()),
            (filesys::TYPE, v.fstype.into()),
            (filesys::MACH_ID, v.mach_id.into()),
            (filesys::PHYS_ID, v.phys_id.into()),
            (filesys::NAME, a[4].as_str().into()),
            (filesys::MOUNT, a[5].as_str().into()),
            (filesys::ACCESS, a[6].as_str().into()),
            (filesys::COMMENTS, a[7].as_str().into()),
            (filesys::OWNER, v.owner.into()),
            (filesys::OWNERS, v.owners.into()),
            (filesys::CREATEFLG, Value::Bool(v.create)),
            (filesys::LOCKERTYPE, a[11].to_ascii_uppercase().into()),
            (filesys::MODTIME, now.into()),
            (filesys::MODBY, who.into()),
            (filesys::MODWITH, with.into()),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_filesys(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_filesys(state, &a[0])?;
    let filsys_id = state.db.cell(row, filesys::FILSYS_ID).as_int();
    // "Any quotas assigned to that filesystem will be deleted, and the
    // allocation count on the nfs physical partition will be decremented."
    let mut reclaimed = 0i64;
    for qrow in state
        .db
        .select(&Pred::Eq(nfsquota::FILSYS_ID, filsys_id.into()))
    {
        reclaimed += state.db.cell(qrow, nfsquota::QUOTA).as_int();
    }
    state
        .db
        .delete_where(&Pred::Eq(nfsquota::FILSYS_ID, filsys_id.into()));
    let phys_id = state.db.cell(row, filesys::PHYS_ID).as_int();
    if reclaimed > 0 {
        if let Some(prow) = state
            .db
            .table(nfsphys::T)
            .select_one(&Pred::Eq(nfsphys::NFSPHYS_ID, phys_id.into()))
        {
            let allocated = state.db.cell(prow, nfsphys::ALLOCATED).as_int();
            state.db.update(
                prow,
                &[(nfsphys::ALLOCATED, (allocated - reclaimed).into())],
            )?;
        }
    }
    state.db.delete(filesys::T, row)?;
    Ok(Vec::new())
}

fn render_nfsphys(state: &MoiraState, row: RowId) -> Vec<String> {
    let t = state.db.table(nfsphys::T);
    vec![
        machine_name(state, t.cell(row, nfsphys::MACH_ID).as_int()),
        t.cell(row, nfsphys::DIR).render(),
        t.cell(row, nfsphys::DEVICE).render(),
        t.cell(row, nfsphys::STATUS).render(),
        t.cell(row, nfsphys::ALLOCATED).render(),
        t.cell(row, nfsphys::SIZE).render(),
        t.cell(row, nfsphys::MODTIME).render(),
        t.cell(row, nfsphys::MODBY).render(),
        t.cell(row, nfsphys::MODWITH).render(),
    ]
}

fn get_all_nfsphys(state: &MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let ids = state.db.table(nfsphys::T).select(&Pred::True);
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(ids
        .into_iter()
        .map(|id| render_nfsphys(state, id))
        .collect())
}

fn get_nfsphys(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let mrow = one_machine(state, &a[0])?;
    let mach_id = state.db.cell(mrow, machine::MACH_ID).as_int();
    let mut out = Vec::new();
    for row in state.db.select(&Pred::Eq(nfsphys::MACH_ID, mach_id.into())) {
        let dir = state.db.cell(row, nfsphys::DIR).render();
        if moira_common::wildcard::matches(&a[1], &dir) {
            out.push(render_nfsphys(state, row));
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

/// Finds an nfsphys row by machine + exact directory.
fn one_nfsphys(state: &MoiraState, machine: &str, dir: &str) -> MrResult<RowId> {
    let mrow = one_machine(state, machine)?;
    let mach_id = state.db.cell(mrow, machine::MACH_ID).as_int();
    state.db.select_exactly_one(
        &Pred::Eq(nfsphys::MACH_ID, mach_id.into()).and(Pred::Eq(nfsphys::DIR, dir.into())),
        MrError::Nfsphys,
    )
}

fn add_nfsphys(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let mrow = one_machine(state, &a[0])?;
    let mach_id = state.db.cell(mrow, machine::MACH_ID).as_int();
    let status = parse_int(&a[3])?;
    let allocated = parse_int(&a[4])?;
    let size = parse_int(&a[5])?;
    let dup = !state
        .db
        .select(
            &Pred::Eq(nfsphys::MACH_ID, mach_id.into())
                .and(Pred::Eq(nfsphys::DIR, a[1].as_str().into())),
        )
        .is_empty();
    if dup {
        return Err(MrError::Exists);
    }
    let nfsphys_id = alloc_id(state, "nfsphys_id")?;
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        nfsphys::T,
        vec![
            nfsphys_id.into(),
            mach_id.into(),
            a[1].as_str().into(),
            a[2].as_str().into(),
            status.into(),
            allocated.into(),
            size.into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn update_nfsphys(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_nfsphys(state, &a[0], &a[1])?;
    let status = parse_int(&a[3])?;
    let allocated = parse_int(&a[4])?;
    let size = parse_int(&a[5])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (nfsphys::DEVICE, a[2].as_str().into()),
            (nfsphys::STATUS, status.into()),
            (nfsphys::ALLOCATED, allocated.into()),
            (nfsphys::SIZE, size.into()),
            (nfsphys::MODTIME, now.into()),
            (nfsphys::MODBY, who.into()),
            (nfsphys::MODWITH, with.into()),
        ],
    )?;
    Ok(Vec::new())
}

fn adjust_nfsphys_allocation(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_nfsphys(state, &a[0], &a[1])?;
    let delta = parse_int(&a[2])?;
    let allocated = state.db.cell(row, nfsphys::ALLOCATED).as_int();
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (nfsphys::ALLOCATED, (allocated + delta).into()),
            (nfsphys::MODTIME, now.into()),
            (nfsphys::MODBY, who.into()),
            (nfsphys::MODWITH, with.into()),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_nfsphys(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_nfsphys(state, &a[0], &a[1])?;
    let phys_id = state.db.cell(row, nfsphys::NFSPHYS_ID).as_int();
    if !state
        .db
        .select(&Pred::Eq(filesys::PHYS_ID, phys_id.into()))
        .is_empty()
    {
        return Err(MrError::InUse);
    }
    state.db.delete(nfsphys::T, row)?;
    Ok(Vec::new())
}

fn quota_tuple(state: &MoiraState, qrow: RowId, with_mod: bool) -> Vec<String> {
    let t = state.db.table(nfsquota::T);
    let filsys_id = t.cell(qrow, nfsquota::FILSYS_ID).as_int();
    let (label, dir, machine) = state
        .db
        .table(filesys::T)
        .select_one(&Pred::Eq(filesys::FILSYS_ID, filsys_id.into()))
        .map(|fr| {
            let ft = state.db.table(filesys::T);
            (
                ft.cell(fr, filesys::LABEL).render(),
                ft.cell(fr, filesys::NAME).render(),
                machine_name(state, ft.cell(fr, filesys::MACH_ID).as_int()),
            )
        })
        .unwrap_or_else(|| (format!("#{filsys_id}"), String::new(), String::new()));
    let mut out = vec![
        label,
        user_login(state, t.cell(qrow, nfsquota::USERS_ID).as_int()),
        t.cell(qrow, nfsquota::QUOTA).render(),
        dir,
        machine,
    ];
    if with_mod {
        out.push(t.cell(qrow, nfsquota::MODTIME).render());
        out.push(t.cell(qrow, nfsquota::MODBY).render());
        out.push(t.cell(qrow, nfsquota::MODWITH).render());
    }
    out
}

fn get_nfs_quota(state: &MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let users_id = users_id_of(&state.db, &a[1])?;
    // Owner of the target filesystem or the query ACL; a user may also see
    // their own quotas.
    let allowed = on_query_acl(state, c, "get_nfs_quota")
        || c.principal.as_deref() == Some(a[1].as_str())
        || c.principal
            .as_deref()
            .and_then(|p| users_id_of(&state.db, p).ok())
            .is_some_and(|caller_id| {
                state
                    .db
                    .select(&Pred::name_match(filesys::LABEL, &a[0]))
                    .iter()
                    .all(|&fr| state.db.cell(fr, filesys::OWNER).as_int() == caller_id)
            });
    if !allowed {
        return Err(MrError::Perm);
    }
    let mut out = Vec::new();
    for frow in state.db.select(&Pred::name_match(filesys::LABEL, &a[0])) {
        let filsys_id = state.db.cell(frow, filesys::FILSYS_ID).as_int();
        for qrow in state.db.select(
            &Pred::Eq(nfsquota::FILSYS_ID, filsys_id.into())
                .and(Pred::Eq(nfsquota::USERS_ID, users_id.into())),
        ) {
            out.push(quota_tuple(state, qrow, true));
        }
    }
    if out.is_empty() {
        return Err(MrError::NoQuota);
    }
    Ok(out)
}

fn get_nfs_quotas_by_partition(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let mrow = one_machine(state, &a[0])?;
    let mach_id = state.db.cell(mrow, machine::MACH_ID).as_int();
    let mut out = Vec::new();
    for prow in state.db.select(&Pred::Eq(nfsphys::MACH_ID, mach_id.into())) {
        let dir = state.db.cell(prow, nfsphys::DIR).render();
        if !moira_common::wildcard::matches(&a[1], &dir) {
            continue;
        }
        let phys_id = state.db.cell(prow, nfsphys::NFSPHYS_ID).as_int();
        for qrow in state
            .db
            .select(&Pred::Eq(nfsquota::PHYS_ID, phys_id.into()))
        {
            out.push(quota_tuple(state, qrow, false));
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn charge_allocation(state: &mut MoiraState, phys_id: i64, delta: i64) -> MrResult<()> {
    if let Some(prow) = state
        .db
        .table(nfsphys::T)
        .select_one(&Pred::Eq(nfsphys::NFSPHYS_ID, phys_id.into()))
    {
        let allocated = state.db.cell(prow, nfsphys::ALLOCATED).as_int();
        state
            .db
            .update(prow, &[(nfsphys::ALLOCATED, (allocated + delta).into())])?;
    }
    Ok(())
}

fn add_nfs_quota(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let frow = one_filesys(state, &a[0])?;
    let users_id = users_id_of(&state.db, &a[1])?;
    let quota = parse_int(&a[2])?;
    if quota < 0 {
        return Err(MrError::Integer);
    }
    let filsys_id = state.db.cell(frow, filesys::FILSYS_ID).as_int();
    let phys_id = state.db.cell(frow, filesys::PHYS_ID).as_int();
    let dup = !state
        .db
        .select(
            &Pred::Eq(nfsquota::FILSYS_ID, filsys_id.into())
                .and(Pred::Eq(nfsquota::USERS_ID, users_id.into())),
        )
        .is_empty();
    if dup {
        return Err(MrError::Exists);
    }
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        nfsquota::T,
        vec![
            users_id.into(),
            filsys_id.into(),
            phys_id.into(),
            quota.into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    charge_allocation(state, phys_id, quota)?;
    Ok(Vec::new())
}

fn find_quota(state: &MoiraState, filesys: &str, login: &str) -> MrResult<(RowId, i64, i64)> {
    let frow = one_filesys(state, filesys)?;
    let users_id = users_id_of(&state.db, login)?;
    let filsys_id = state.db.cell(frow, filesys::FILSYS_ID).as_int();
    let qrow = state.db.select_exactly_one(
        &Pred::Eq(nfsquota::FILSYS_ID, filsys_id.into())
            .and(Pred::Eq(nfsquota::USERS_ID, users_id.into())),
        MrError::NoQuota,
    )?;
    let phys_id = state.db.cell(qrow, nfsquota::PHYS_ID).as_int();
    let old = state.db.cell(qrow, nfsquota::QUOTA).as_int();
    Ok((qrow, phys_id, old))
}

fn update_nfs_quota(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let quota = parse_int(&a[2])?;
    if quota < 0 {
        return Err(MrError::Integer);
    }
    let (qrow, phys_id, old) = find_quota(state, &a[0], &a[1])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        qrow,
        &[
            (nfsquota::QUOTA, quota.into()),
            (nfsquota::MODTIME, now.into()),
            (nfsquota::MODBY, who.into()),
            (nfsquota::MODWITH, with.into()),
        ],
    )?;
    charge_allocation(state, phys_id, quota - old)?;
    Ok(Vec::new())
}

fn delete_nfs_quota(
    state: &mut MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let (qrow, phys_id, old) = find_quota(state, &a[0], &a[1])?;
    state.db.delete(nfsquota::T, qrow)?;
    charge_allocation(state, phys_id, -old)?;
    Ok(Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testutil::{add_test_machine, state_with_admin};
    use crate::registry::Registry;

    fn run(
        s: &mut MoiraState,
        r: &Registry,
        who: &Caller,
        q: &str,
        args: &[&str],
    ) -> MrResult<Vec<Vec<String>>> {
        let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
        r.execute(s, who, q, &args)
    }

    fn setup() -> (MoiraState, Registry, Caller) {
        let (mut s, _) = state_with_admin("ops");
        add_test_machine(&mut s, "CHARON");
        add_test_machine(&mut s, "HELEN");
        let r = Registry::standard();
        let ops = Caller::new("ops", "filsysmaint");
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["aab", "7000", "/bin/csh", "L", "F", "", "1", "x", "1990"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &[
                "aab-group",
                "1",
                "0",
                "0",
                "0",
                "1",
                "-1",
                "NONE",
                "NONE",
                "",
            ],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_nfsphys",
            &["CHARON", "/u1/lockers", "ra0c", "1", "0", "10000"],
        )
        .unwrap();
        (s, r, ops)
    }

    fn add_aab_filesys(s: &mut MoiraState, r: &Registry, ops: &Caller) {
        run(
            s,
            r,
            ops,
            "add_filesys",
            &[
                "aab",
                "NFS",
                "CHARON",
                "/u1/lockers/aab",
                "/mit/aab",
                "w",
                "locker",
                "aab",
                "aab-group",
                "1",
                "HOMEDIR",
            ],
        )
        .unwrap();
    }

    #[test]
    fn filesys_crud() {
        let (mut s, r, ops) = setup();
        add_aab_filesys(&mut s, &r, &ops);
        let fs = run(&mut s, &r, &ops, "get_filesys_by_label", &["aab"]).unwrap();
        assert_eq!(fs[0][1], "NFS");
        assert_eq!(fs[0][2], "CHARON");
        assert_eq!(fs[0][7], "aab");
        assert_eq!(fs[0][8], "aab-group");
        // Duplicate label.
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_filesys",
                &[
                    "aab",
                    "NFS",
                    "CHARON",
                    "/u1/lockers/aab",
                    "/mit/aab",
                    "w",
                    "",
                    "aab",
                    "aab-group",
                    "1",
                    "HOMEDIR",
                ]
            )
            .unwrap_err(),
            MrError::FilesysExists
        );
        // RVD filesystems skip the NFS checks.
        run(
            &mut s,
            &r,
            &ops,
            "add_filesys",
            &[
                "ade",
                "RVD",
                "HELEN",
                "ade",
                "/mnt/ade",
                "r",
                "rvd pack",
                "aab",
                "aab-group",
                "0",
                "SYSTEM",
            ],
        )
        .unwrap();
        let by_mach = run(&mut s, &r, &ops, "get_filesys_by_machine", &["HELEN"]).unwrap();
        assert_eq!(by_mach.len(), 1);
        assert_eq!(by_mach[0][0], "ade");
        run(&mut s, &r, &ops, "delete_filesys", &["ade"]).unwrap();
        run(&mut s, &r, &ops, "delete_filesys", &["aab"]).unwrap();
    }

    #[test]
    fn nfs_validation_errors() {
        let (mut s, r, ops) = setup();
        // Unexported directory.
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_filesys",
                &[
                    "bad",
                    "NFS",
                    "CHARON",
                    "/u9/nope/bad",
                    "/mit/bad",
                    "w",
                    "",
                    "aab",
                    "aab-group",
                    "1",
                    "HOMEDIR",
                ]
            )
            .unwrap_err(),
            MrError::Nfs
        );
        // Bad access mode.
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_filesys",
                &[
                    "bad",
                    "NFS",
                    "CHARON",
                    "/u1/lockers/bad",
                    "/mit/bad",
                    "x",
                    "",
                    "aab",
                    "aab-group",
                    "1",
                    "HOMEDIR",
                ]
            )
            .unwrap_err(),
            MrError::FilesysAccess
        );
        // Bad fstype / lockertype / owner / owners.
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_filesys",
                &[
                    "bad",
                    "AFS",
                    "CHARON",
                    "x",
                    "/mit/bad",
                    "w",
                    "",
                    "aab",
                    "aab-group",
                    "1",
                    "HOMEDIR",
                ]
            )
            .unwrap_err(),
            MrError::Fstype
        );
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_filesys",
                &[
                    "bad",
                    "RVD",
                    "CHARON",
                    "x",
                    "/mit/bad",
                    "w",
                    "",
                    "aab",
                    "aab-group",
                    "1",
                    "CLOSET",
                ]
            )
            .unwrap_err(),
            MrError::Type
        );
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_filesys",
                &[
                    "bad",
                    "RVD",
                    "CHARON",
                    "x",
                    "/mit/bad",
                    "w",
                    "",
                    "ghost",
                    "aab-group",
                    "1",
                    "SYSTEM",
                ]
            )
            .unwrap_err(),
            MrError::User
        );
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_filesys",
                &[
                    "bad", "RVD", "CHARON", "x", "/mit/bad", "w", "", "aab", "ghosts", "1",
                    "SYSTEM",
                ]
            )
            .unwrap_err(),
            MrError::List
        );
    }

    #[test]
    fn nfsphys_crud_and_allocation() {
        let (mut s, r, ops) = setup();
        let all = run(&mut s, &r, &ops, "get_all_nfsphys", &[]).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0][1], "/u1/lockers");
        run(
            &mut s,
            &r,
            &ops,
            "adjust_nfsphys_allocation",
            &["CHARON", "/u1/lockers", "250"],
        )
        .unwrap();
        let p = run(&mut s, &r, &ops, "get_nfsphys", &["CHARON", "*"]).unwrap();
        assert_eq!(p[0][4], "250");
        run(
            &mut s,
            &r,
            &ops,
            "adjust_nfsphys_allocation",
            &["CHARON", "/u1/lockers", "-250"],
        )
        .unwrap();
        // Cannot delete a partition holding filesystems.
        add_aab_filesys(&mut s, &r, &ops);
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "delete_nfsphys",
                &["CHARON", "/u1/lockers"]
            )
            .unwrap_err(),
            MrError::InUse
        );
        run(&mut s, &r, &ops, "delete_filesys", &["aab"]).unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "delete_nfsphys",
            &["CHARON", "/u1/lockers"],
        )
        .unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_all_nfsphys", &[]).unwrap_err(),
            MrError::NoMatch
        );
    }

    #[test]
    fn quota_lifecycle_charges_allocation() {
        let (mut s, r, ops) = setup();
        add_aab_filesys(&mut s, &r, &ops);
        run(&mut s, &r, &ops, "add_nfs_quota", &["aab", "aab", "300"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "add_nfs_quota", &["aab", "aab", "300"]).unwrap_err(),
            MrError::Exists
        );
        let p = run(&mut s, &r, &ops, "get_nfsphys", &["CHARON", "*"]).unwrap();
        assert_eq!(p[0][4], "300");
        let q = run(&mut s, &r, &ops, "get_nfs_quota", &["aab", "aab"]).unwrap();
        assert_eq!(q[0][2], "300");
        assert_eq!(q[0][4], "CHARON");
        run(&mut s, &r, &ops, "update_nfs_quota", &["aab", "aab", "500"]).unwrap();
        let p = run(&mut s, &r, &ops, "get_nfsphys", &["CHARON", "*"]).unwrap();
        assert_eq!(p[0][4], "500");
        let by_part = run(
            &mut s,
            &r,
            &ops,
            "get_nfs_quotas_by_partition",
            &["CHARON", "/u1/*"],
        )
        .unwrap();
        assert_eq!(by_part.len(), 1);
        assert_eq!(by_part[0][2], "500");
        run(&mut s, &r, &ops, "delete_nfs_quota", &["aab", "aab"]).unwrap();
        let p = run(&mut s, &r, &ops, "get_nfsphys", &["CHARON", "*"]).unwrap();
        assert_eq!(p[0][4], "0");
        assert_eq!(
            run(&mut s, &r, &ops, "get_nfs_quota", &["aab", "aab"]).unwrap_err(),
            MrError::NoQuota
        );
    }

    #[test]
    fn delete_filesys_reclaims_quota_allocation() {
        let (mut s, r, ops) = setup();
        add_aab_filesys(&mut s, &r, &ops);
        run(&mut s, &r, &ops, "add_nfs_quota", &["aab", "aab", "300"]).unwrap();
        run(&mut s, &r, &ops, "delete_filesys", &["aab"]).unwrap();
        let p = run(&mut s, &r, &ops, "get_nfsphys", &["CHARON", "*"]).unwrap();
        assert_eq!(p[0][4], "0", "allocation reclaimed");
    }

    #[test]
    fn group_query_access() {
        let (mut s, r, ops) = setup();
        add_aab_filesys(&mut s, &r, &ops);
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["aab-group", "USER", "aab"],
        )
        .unwrap();
        let member = Caller::new("aab", "attach");
        let fs = run(&mut s, &r, &member, "get_filesys_by_group", &["aab-group"]).unwrap();
        assert_eq!(fs[0][0], "aab");
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["rando", "7999", "/bin/csh", "L", "F", "", "1", "x", "1990"],
        )
        .unwrap();
        let rando = Caller::new("rando", "attach");
        assert_eq!(
            run(&mut s, &r, &rando, "get_filesys_by_group", &["aab-group"]).unwrap_err(),
            MrError::Perm
        );
    }

    #[test]
    fn filesys_by_nfsphys() {
        let (mut s, r, ops) = setup();
        add_aab_filesys(&mut s, &r, &ops);
        let fs = run(
            &mut s,
            &r,
            &ops,
            "get_filesys_by_nfsphys",
            &["CHARON", "/u1/*"],
        )
        .unwrap();
        assert_eq!(fs[0][0], "aab");
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "get_filesys_by_nfsphys",
                &["CHARON", "/u2/*"]
            )
            .unwrap_err(),
            MrError::NoMatch
        );
    }
}
