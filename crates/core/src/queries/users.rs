//! Users, finger, and registration queries (§7.0.1).

use moira_common::errors::{MrError, MrResult};
use moira_db::{Col, Pred, RowId, Value};

use crate::ids::alloc_id;
use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::schema::{
    filesys, hostaccess, list, members, nfsphys, nfsquota, serverhosts, servers, user_status,
    users, MAX_LOGIN_LEN, UNIQUE_LOGIN, UNIQUE_UID,
};
use crate::state::{Caller, MoiraState};

use super::helpers::*;

/// Summary fields for the `get_all_*logins` queries.
const SUMMARY: [Col<users::R>; 6] = [
    users::LOGIN.erase(),
    users::UID.erase(),
    users::SHELL.erase(),
    users::LAST.erase(),
    users::FIRST.erase(),
    users::MIDDLE.erase(),
];
const SUMMARY_NAMES: [&str; 6] = Col::names(&SUMMARY);

/// Full account fields for the `get_user_by_*` queries.
const FULL: [Col<users::R>; 12] = [
    users::LOGIN.erase(),
    users::UID.erase(),
    users::SHELL.erase(),
    users::LAST.erase(),
    users::FIRST.erase(),
    users::MIDDLE.erase(),
    users::STATUS.erase(),
    users::MIT_ID.erase(),
    users::MIT_YEAR.erase(),
    users::MODTIME.erase(),
    users::MODBY.erase(),
    users::MODWITH.erase(),
];
const FULL_NAMES: [&str; 12] = Col::names(&FULL);

/// Finger fields for `get_finger_by_login`.
const FINGER: [Col<users::R>; 12] = [
    users::LOGIN.erase(),
    users::FULLNAME.erase(),
    users::NICKNAME.erase(),
    users::HOME_ADDR.erase(),
    users::HOME_PHONE.erase(),
    users::OFFICE_ADDR.erase(),
    users::OFFICE_PHONE.erase(),
    users::MIT_DEPT.erase(),
    users::MIT_AFFIL.erase(),
    users::FMODTIME.erase(),
    users::FMODBY.erase(),
    users::FMODWITH.erase(),
];
const FINGER_NAMES: [&str; 12] = Col::names(&FINGER);

/// Registers the user queries.
pub fn register(r: &mut Registry) {
    use AccessRule::*;
    use QueryKind::*;
    let qs: &[QueryHandle] = &[
        QueryHandle {
            name: "get_all_logins",
            shortname: "galo",
            kind: Retrieve,
            access: QueryAcl,
            args: &[],
            returns: &SUMMARY_NAMES,
            handler: Handler::Read(get_all_logins),
        },
        QueryHandle {
            name: "get_all_active_logins",
            shortname: "gaal",
            kind: Retrieve,
            access: QueryAcl,
            args: &[],
            returns: &SUMMARY_NAMES,
            handler: Handler::Read(get_all_active_logins),
        },
        QueryHandle {
            name: "get_user_by_login",
            shortname: "gubl",
            kind: Retrieve,
            access: QueryAclOrSelf(0),
            args: &["login"],
            returns: &FULL_NAMES,
            handler: Handler::Read(get_user_by_login),
        },
        QueryHandle {
            name: "get_user_by_uid",
            shortname: "gubu",
            kind: Retrieve,
            access: Custom,
            args: &["uid"],
            returns: &FULL_NAMES,
            handler: Handler::Read(get_user_by_uid),
        },
        QueryHandle {
            name: "get_user_by_name",
            shortname: "gubn",
            kind: Retrieve,
            access: QueryAcl,
            args: &["first", "last"],
            returns: &FULL_NAMES,
            handler: Handler::Read(get_user_by_name),
        },
        QueryHandle {
            name: "get_user_by_class",
            shortname: "gubc",
            kind: Retrieve,
            access: QueryAcl,
            args: &["class"],
            returns: &FULL_NAMES,
            handler: Handler::Read(get_user_by_class),
        },
        QueryHandle {
            name: "get_user_by_mitid",
            shortname: "gubm",
            kind: Retrieve,
            access: QueryAcl,
            args: &["mitid"],
            returns: &FULL_NAMES,
            handler: Handler::Read(get_user_by_mitid),
        },
        QueryHandle {
            name: "add_user",
            shortname: "ausr",
            kind: Append,
            access: QueryAcl,
            args: &[
                "login", "uid", "shell", "last", "first", "middle", "state", "mitid", "class",
            ],
            returns: &[],
            handler: Handler::Write(add_user),
        },
        QueryHandle {
            name: "register_user",
            shortname: "rusr",
            kind: Update,
            access: QueryAcl,
            args: &["uid", "login", "fstype"],
            returns: &[],
            handler: Handler::Write(register_user),
        },
        QueryHandle {
            name: "update_user",
            shortname: "uusr",
            kind: Update,
            access: QueryAcl,
            args: &[
                "login", "newlogin", "uid", "shell", "last", "first", "middle", "state", "mitid",
                "class",
            ],
            returns: &[],
            handler: Handler::Write(update_user),
        },
        QueryHandle {
            name: "update_user_shell",
            shortname: "uush",
            kind: Update,
            access: QueryAclOrSelf(0),
            args: &["login", "shell"],
            returns: &[],
            handler: Handler::Write(update_user_shell),
        },
        QueryHandle {
            name: "update_user_status",
            shortname: "uust",
            kind: Update,
            access: QueryAcl,
            args: &["login", "status"],
            returns: &[],
            handler: Handler::Write(update_user_status),
        },
        QueryHandle {
            name: "delete_user",
            shortname: "dusr",
            kind: Delete,
            access: QueryAcl,
            args: &["login"],
            returns: &[],
            handler: Handler::Write(delete_user),
        },
        QueryHandle {
            name: "delete_user_by_uid",
            shortname: "dubu",
            kind: Delete,
            access: QueryAcl,
            args: &["uid"],
            returns: &[],
            handler: Handler::Write(delete_user_by_uid),
        },
        QueryHandle {
            name: "get_finger_by_login",
            shortname: "gfbl",
            kind: Retrieve,
            access: QueryAclOrSelf(0),
            args: &["login"],
            returns: &FINGER_NAMES,
            handler: Handler::Read(get_finger_by_login),
        },
        QueryHandle {
            name: "update_finger_by_login",
            shortname: "ufbl",
            kind: Update,
            access: QueryAclOrSelf(0),
            args: &[
                "login",
                "fullname",
                "nickname",
                "home_addr",
                "home_phone",
                "office_addr",
                "office_phone",
                "department",
                "affiliation",
            ],
            returns: &[],
            handler: Handler::Write(update_finger_by_login),
        },
    ];
    for q in qs {
        r.register(QueryHandle { ..*q });
    }
}

fn get_all_logins(state: &MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let ids = state.db.table(users::T).select(&Pred::True);
    ids.into_iter()
        .map(|id| project(state, id, &SUMMARY))
        .collect()
}

fn get_all_active_logins(
    state: &MoiraState,
    _c: &Caller,
    _a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    // "every account for which the status field is non-zero".
    let ids = state
        .db
        .select(&Pred::Not(Pred::Eq(users::STATUS, 0.into())));
    ids.into_iter()
        .map(|id| project(state, id, &SUMMARY))
        .collect()
}

fn retrieve_users(state: &MoiraState, pred: &Pred<users::R>) -> MrResult<Vec<Vec<String>>> {
    let ids = state.db.select(pred);
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    ids.into_iter()
        .map(|id| project(state, id, &FULL))
        .collect()
}

fn get_user_by_login(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    retrieve_users(state, &Pred::name_match(users::LOGIN, &a[0]))
}

fn get_user_by_uid(state: &MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let uid = parse_int(&a[0])?;
    let rows = retrieve_users(state, &Pred::Eq(users::UID, uid.into()))?;
    // "If the person executing the query is not on the query ACL, then the
    // query only succeeds if the only retrieved information is about the
    // user making the request."
    if !on_query_acl(state, c, "get_user_by_uid") {
        let me = c.principal.as_deref().unwrap_or("");
        if rows.iter().any(|row| row[0] != me) {
            return Err(MrError::Perm);
        }
    }
    Ok(rows)
}

fn get_user_by_name(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    retrieve_users(
        state,
        &Pred::name_match(users::FIRST, &a[0]).and(Pred::name_match(users::LAST, &a[1])),
    )
}

fn get_user_by_class(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    retrieve_users(state, &Pred::name_match(users::MIT_YEAR, &a[0]))
}

fn get_user_by_mitid(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    retrieve_users(state, &Pred::name_match(users::MIT_ID, &a[0]))
}

fn add_user(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let (mut login, uid_arg, shell, last, first, middle, status, mitid, class) = (
        a[0].clone(),
        &a[1],
        &a[2],
        &a[3],
        &a[4],
        &a[5],
        &a[6],
        &a[7],
        &a[8],
    );
    let uid = if uid_arg == "UNIQUE_UID" || parse_int(uid_arg).ok() == Some(UNIQUE_UID) {
        alloc_id(state, "uid")?
    } else {
        parse_int(uid_arg)?
    };
    if login == UNIQUE_LOGIN {
        login = format!("#{uid}");
    } else {
        check_chars(&login)?;
        no_wildcards(&login)?;
        if login.is_empty() || login.len() > MAX_LOGIN_LEN {
            return Err(MrError::ArgTooLong);
        }
    }
    let status = parse_int(status)?;
    check_type_alias(state, "class", class, MrError::BadClass)?;
    if state
        .db
        .table(users::T)
        .select_one(&Pred::Eq(users::LOGIN, login.clone().into()))
        .is_some()
    {
        return Err(MrError::NotUnique);
    }
    let users_id = alloc_id(state, "users_id")?;
    let (now, who, with) = mod_fields(state, c);
    let fullname = format!("{first} {middle} {last}");
    let row: Vec<Value> = vec![
        login.into(),
        users_id.into(),
        uid.into(),
        shell.as_str().into(),
        last.as_str().into(),
        first.as_str().into(),
        middle.as_str().into(),
        status.into(),
        mitid.as_str().into(),
        class.as_str().into(),
        now.into(),
        who.clone().into(),
        with.clone().into(),
        fullname.into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        "".into(),
        now.into(),
        who.clone().into(),
        with.clone().into(),
        "NONE".into(),
        0.into(),
        0.into(),
        "".into(),
        now.into(),
        who.into(),
        with.into(),
    ];
    state.db.append(users::T, row)?;
    Ok(Vec::new())
}

/// Picks the least-loaded enabled POP server (`value1` = boxes assigned,
/// `value2` = capacity), returning its `mach_id`.
fn least_loaded_pop(state: &MoiraState) -> MrResult<(RowId, i64)> {
    let sh = state.db.table(serverhosts::T);
    let mut best: Option<(RowId, i64, i64)> = None;
    for row in sh.select(&Pred::EqCi(serverhosts::SERVICE, "POP".to_owned())) {
        let r = sh.row(row)?;
        if !r.get(serverhosts::ENABLE) {
            continue;
        }
        let (used, cap) = (r.get(serverhosts::VALUE1), r.get(serverhosts::VALUE2));
        if cap > 0 && used >= cap {
            continue;
        }
        if best.is_none_or(|(_, b, _)| used < b) {
            best = Some((row, used, r.get(serverhosts::MACH_ID)));
        }
    }
    best.map(|(row, _, mach)| (row, mach))
        .ok_or(MrError::Machine)
}

/// Picks the least-loaded NFS partition matching `fstype` bits with room
/// for `quota` more units.
fn least_loaded_nfsphys(state: &MoiraState, fstype: i64, quota: i64) -> MrResult<RowId> {
    let np = state.db.table(nfsphys::T);
    let mut best: Option<(RowId, f64)> = None;
    for row in np.select(&Pred::True) {
        let r = np.row(row)?;
        if r.get(nfsphys::STATUS) & fstype == 0 {
            continue;
        }
        let (allocated, size) = (r.get(nfsphys::ALLOCATED), r.get(nfsphys::SIZE));
        if size <= 0 || allocated + quota > size {
            continue;
        }
        let load = allocated as f64 / size as f64;
        if best.is_none_or(|(_, b)| load < b) {
            best = Some((row, load));
        }
    }
    best.map(|(row, _)| row).ok_or(MrError::NoFilesys)
}

fn register_user(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let uid = parse_int(&a[0])?;
    let login = a[1].clone();
    let fstype = parse_int(&a[2])?;
    check_chars(&login)?;
    no_wildcards(&login)?;
    if login.is_empty() || login.len() > MAX_LOGIN_LEN {
        return Err(MrError::ArgTooLong);
    }
    let user_row = state
        .db
        .select_exactly_one(&Pred::Eq(users::UID, uid.into()), MrError::NoMatch)?;
    let r = state.db.table(users::T).row(user_row)?;
    if r.get(users::STATUS) != user_status::REGISTERABLE {
        return Err(MrError::NotRegisterable);
    }
    let users_id = r.get(users::USERS_ID);
    if state
        .db
        .table(users::T)
        .select_one(&Pred::Eq(users::LOGIN, login.clone().into()))
        .is_some()
    {
        return Err(MrError::InUse);
    }
    let quota = state
        .get_value("def_quota")
        .unwrap_or(crate::seed::DEFAULT_QUOTA);

    // Pobox: least-loaded POP server.
    let (pop_row, pop_mach) = least_loaded_pop(state)?;
    let pop = state.db.table(serverhosts::T).row(pop_row)?;
    let pop_used = pop.get(serverhosts::VALUE1);
    state
        .db
        .update(pop_row, &[serverhosts::VALUE1.set(pop_used + 1)])?;

    // Home filesystem on the least-loaded matching partition.
    let phys_row = least_loaded_nfsphys(state, fstype, quota)?;
    let r = state.db.table(nfsphys::T).row(phys_row)?;
    let (phys_id, phys_mach) = (r.get(nfsphys::NFSPHYS_ID), r.get(nfsphys::MACH_ID));
    let (phys_dir, allocated) = (r.get(nfsphys::DIR).to_owned(), r.get(nfsphys::ALLOCATED));
    state
        .db
        .update(phys_row, &[nfsphys::ALLOCATED.set(allocated + quota)])?;

    let (now, who, with) = mod_fields(state, c);

    // Group list: owned by the user, unique GID, the user as first member.
    let list_id = alloc_id(state, "list_id")?;
    let gid = alloc_id(state, "gid")?;
    state.db.append(
        list::T,
        vec![
            login.clone().into(),
            list_id.into(),
            true.into(),
            false.into(),
            false.into(),
            false.into(),
            true.into(),
            gid.into(),
            format!("{login} group").into(),
            "USER".into(),
            users_id.into(),
            now.into(),
            who.clone().into(),
            with.clone().into(),
        ],
    )?;
    state.db.append(
        members::T,
        vec![list_id.into(), "USER".into(), users_id.into()],
    )?;

    // Filesystem + quota.
    let filsys_id = alloc_id(state, "filsys_id")?;
    let machine = machine_name(state, phys_mach);
    state.db.append(
        filesys::T,
        vec![
            login.clone().into(),
            0.into(),
            filsys_id.into(),
            phys_id.into(),
            "NFS".into(),
            phys_mach.into(),
            format!("{}/{login}", phys_dir.trim_end_matches('/')).into(),
            format!("/mit/{login}").into(),
            "w".into(),
            format!("home directory on {machine}").into(),
            users_id.into(),
            list_id.into(),
            true.into(),
            "HOMEDIR".into(),
            now.into(),
            who.clone().into(),
            with.clone().into(),
        ],
    )?;
    state.db.append(
        nfsquota::T,
        vec![
            users_id.into(),
            filsys_id.into(),
            phys_id.into(),
            quota.into(),
            now.into(),
            who.clone().into(),
            with.clone().into(),
        ],
    )?;

    // Finally flip the user record: login name, POP pobox, half-registered.
    let pop_name = machine_name(state, pop_mach);
    state.db.update(
        user_row,
        &[
            users::LOGIN.set(login),
            users::STATUS.set(user_status::HALF_REGISTERED),
            users::POTYPE.set("POP"),
            users::POP_ID.set(pop_mach),
            users::SAVED_POP.set(pop_name),
            users::PMODTIME.set(now),
            users::PMODBY.set(&who),
            users::PMODWITH.set(&with),
            users::MODTIME.set(now),
            users::MODBY.set(who),
            users::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

fn update_user(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_user(state, &a[0])?;
    let newlogin = &a[1];
    check_chars(newlogin)?;
    no_wildcards(newlogin)?;
    if newlogin.is_empty() || newlogin.len() > MAX_LOGIN_LEN {
        return Err(MrError::ArgTooLong);
    }
    let uid = parse_int(&a[2])?;
    let status = parse_int(&a[7])?;
    check_type_alias(state, "class", &a[9], MrError::BadClass)?;
    let current = state.db.table(users::T).row(row)?.get(users::LOGIN);
    if newlogin != current
        && state
            .db
            .table(users::T)
            .select_one(&Pred::Eq(users::LOGIN, newlogin.as_str().into()))
            .is_some()
    {
        return Err(MrError::NotUnique);
    }
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            users::LOGIN.set(newlogin.as_str()),
            users::UID.set(uid),
            users::SHELL.set(&a[3]),
            users::LAST.set(&a[4]),
            users::FIRST.set(&a[5]),
            users::MIDDLE.set(&a[6]),
            users::STATUS.set(status),
            users::MIT_ID.set(&a[8]),
            users::MIT_YEAR.set(&a[9]),
            users::MODTIME.set(now),
            users::MODBY.set(who),
            users::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

fn update_user_shell(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_user(state, &a[0])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            users::SHELL.set(&a[1]),
            users::MODTIME.set(now),
            users::MODBY.set(who),
            users::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

fn update_user_status(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_user(state, &a[0])?;
    let status = parse_int(&a[1])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            users::STATUS.set(status),
            users::MODTIME.set(now),
            users::MODBY.set(who),
            users::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

/// The referential checks of `delete_user`: "only … allowed if the user is
/// not a member of any lists, has any quotas assigned, or is the owner of
/// an object."
fn check_user_unreferenced(state: &MoiraState, users_id: i64) -> MrResult<()> {
    let member_of = !state
        .db
        .select(
            &Pred::Eq(members::MEMBER_ID, users_id.into())
                .and(Pred::Eq(members::MEMBER_TYPE, "USER".into())),
        )
        .is_empty();
    let has_quota = !state
        .db
        .select(&Pred::Eq(nfsquota::USERS_ID, users_id.into()))
        .is_empty();
    let owns_filesys = !state
        .db
        .select(&Pred::Eq(filesys::OWNER, users_id.into()))
        .is_empty();
    let is_ace = !state
        .db
        .select(
            &Pred::Eq(list::ACL_TYPE, "USER".into()).and(Pred::Eq(list::ACL_ID, users_id.into())),
        )
        .is_empty()
        || !state
            .db
            .select(
                &Pred::Eq(servers::ACL_TYPE, "USER".into())
                    .and(Pred::Eq(servers::ACL_ID, users_id.into())),
            )
            .is_empty()
        || !state
            .db
            .select(
                &Pred::Eq(hostaccess::ACL_TYPE, "USER".into())
                    .and(Pred::Eq(hostaccess::ACL_ID, users_id.into())),
            )
            .is_empty();
    if member_of || has_quota || owns_filesys || is_ace {
        Err(MrError::InUse)
    } else {
        Ok(())
    }
}

fn delete_user_row(state: &mut MoiraState, row: RowId) -> MrResult<Vec<Vec<String>>> {
    let r = state.db.table(users::T).row(row)?;
    if r.get(users::STATUS) != user_status::REGISTERABLE {
        return Err(MrError::InUse);
    }
    let users_id = r.get(users::USERS_ID);
    check_user_unreferenced(state, users_id)?;
    // Finger and pobox information live in the same record and die with it.
    state.db.delete(users::T, row)?;
    Ok(Vec::new())
}

fn delete_user(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_user(state, &a[0])?;
    delete_user_row(state, row)
}

fn delete_user_by_uid(
    state: &mut MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let uid = parse_int(&a[0])?;
    let row = state
        .db
        .select_exactly_one(&Pred::Eq(users::UID, uid.into()), MrError::User)?;
    delete_user_row(state, row)
}

fn get_finger_by_login(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_user(state, &a[0])?;
    Ok(vec![project(state, row, &FINGER)?])
}

fn update_finger_by_login(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_user(state, &a[0])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            users::FULLNAME.set(&a[1]),
            users::NICKNAME.set(&a[2]),
            users::HOME_ADDR.set(&a[3]),
            users::HOME_PHONE.set(&a[4]),
            users::OFFICE_ADDR.set(&a[5]),
            users::OFFICE_PHONE.set(&a[6]),
            users::MIT_DEPT.set(&a[7]),
            users::MIT_AFFIL.set(&a[8]),
            users::FMODTIME.set(now),
            users::FMODBY.set(who),
            users::FMODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

/// Shared by the pobox module: the ACE checks there need user row lookup.
pub(crate) fn user_row_and_id(state: &MoiraState, login: &str) -> MrResult<(RowId, i64)> {
    let row = one_user(state, login)?;
    Ok((row, state.db.table(users::T).row(row)?.get(users::USERS_ID)))
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
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        r.execute(s, who, q, &args)
    }

    fn setup() -> (MoiraState, Registry, Caller) {
        let (s, _) = state_with_admin("ops");
        (s, Registry::standard(), Caller::new("ops", "usermaint"))
    }

    #[test]
    fn add_and_get_user() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &[
                "babette", "6530", "/bin/csh", "Fowler", "Harmon", "C", "1", "xMITIDx", "1990",
            ],
        )
        .unwrap();
        let rows = run(&mut s, &r, &ops, "get_user_by_login", &["babette"]).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][1], "6530");
        assert_eq!(rows[0][6], "1");
        // Finger initialized with the full name.
        let finger = run(&mut s, &r, &ops, "get_finger_by_login", &["babette"]).unwrap();
        assert_eq!(finger[0][1], "Harmon C Fowler");
        // Pobox starts NONE.
        let pobox = run(&mut s, &r, &ops, "get_pobox", &["babette"]).unwrap();
        assert_eq!(pobox[0][1], "NONE");
    }

    #[test]
    fn add_user_unique_sentinels() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &[
                "#",
                "UNIQUE_UID",
                "/bin/csh",
                "One",
                "Test",
                "",
                "0",
                "id1",
                "1990",
            ],
        )
        .unwrap();
        let rows = run(&mut s, &r, &ops, "get_user_by_name", &["Test", "One"]).unwrap();
        let login = &rows[0][0];
        let uid = &rows[0][1];
        assert_eq!(login, &format!("#{uid}"));
    }

    #[test]
    fn add_user_validation() {
        let (mut s, r, ops) = setup();
        let base = [
            "babette", "6530", "/bin/csh", "F", "H", "C", "1", "id", "1990",
        ];
        run(&mut s, &r, &ops, "add_user", &base).unwrap();
        // Duplicate login.
        assert_eq!(
            run(&mut s, &r, &ops, "add_user", &base).unwrap_err(),
            MrError::NotUnique
        );
        // Bad class.
        let mut bad = base;
        bad[0] = "other";
        bad[8] = "NOCLASS";
        assert_eq!(
            run(&mut s, &r, &ops, "add_user", &bad).unwrap_err(),
            MrError::BadClass
        );
        // Bad uid.
        let mut bad = base;
        bad[0] = "other";
        bad[1] = "sixty";
        assert_eq!(
            run(&mut s, &r, &ops, "add_user", &bad).unwrap_err(),
            MrError::Integer
        );
        // Over-long login.
        let mut bad = base;
        bad[0] = "waytoolongloginname";
        assert_eq!(
            run(&mut s, &r, &ops, "add_user", &bad).unwrap_err(),
            MrError::ArgTooLong
        );
        // Bad characters.
        let mut bad = base;
        bad[0] = "a:b";
        assert_eq!(
            run(&mut s, &r, &ops, "add_user", &bad).unwrap_err(),
            MrError::BadChar
        );
    }

    #[test]
    fn wildcard_lookup_and_no_match() {
        let (mut s, r, ops) = setup();
        for (l, u) in [("alpha", "7001"), ("altair", "7002"), ("beta", "7003")] {
            run(
                &mut s,
                &r,
                &ops,
                "add_user",
                &[l, u, "/bin/sh", "L", "F", "", "1", "x", "G"],
            )
            .unwrap();
        }
        let rows = run(&mut s, &r, &ops, "get_user_by_login", &["al*"]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            run(&mut s, &r, &ops, "get_user_by_login", &["zz*"]).unwrap_err(),
            MrError::NoMatch
        );
    }

    #[test]
    fn self_access_rules() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &[
                "babette", "6530", "/bin/csh", "F", "H", "C", "1", "id", "1990",
            ],
        )
        .unwrap();
        let me = Caller::new("babette", "chsh");
        // Self lookup allowed, other's denied.
        assert!(run(&mut s, &r, &me, "get_user_by_login", &["babette"]).is_ok());
        assert_eq!(
            run(&mut s, &r, &me, "get_user_by_login", &["ops"]).unwrap_err(),
            MrError::Perm
        );
        // Self by uid allowed, other's denied.
        assert!(run(&mut s, &r, &me, "get_user_by_uid", &["6530"]).is_ok());
        assert_eq!(
            run(&mut s, &r, &me, "get_user_by_uid", &["6001"]).unwrap_err(),
            MrError::Perm
        );
        // Shell change on self allowed.
        run(
            &mut s,
            &r,
            &me,
            "update_user_shell",
            &["babette", "/bin/sh"],
        )
        .unwrap();
        let rows = run(&mut s, &r, &ops, "get_user_by_login", &["babette"]).unwrap();
        assert_eq!(rows[0][2], "/bin/sh");
        // Shell change on someone else denied.
        assert_eq!(
            run(&mut s, &r, &me, "update_user_shell", &["ops", "/bin/sh"]).unwrap_err(),
            MrError::Perm
        );
    }

    #[test]
    fn update_user_renames_safely() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["aaa", "7100", "/bin/csh", "L", "F", "", "1", "x", "G"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["bbb", "7101", "/bin/csh", "L", "F", "", "1", "x", "G"],
        )
        .unwrap();
        // Rename collision.
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "update_user",
                &["aaa", "bbb", "7100", "/bin/csh", "L", "F", "", "1", "x", "G",]
            )
            .unwrap_err(),
            MrError::NotUnique
        );
        // Self-rename (same name) fine.
        run(
            &mut s,
            &r,
            &ops,
            "update_user",
            &[
                "aaa",
                "aaa",
                "7100",
                "/bin/tcsh",
                "L",
                "F",
                "",
                "1",
                "x",
                "G",
            ],
        )
        .unwrap();
        // Real rename fine; old name gone.
        run(
            &mut s,
            &r,
            &ops,
            "update_user",
            &[
                "aaa",
                "ccc",
                "7100",
                "/bin/tcsh",
                "L",
                "F",
                "",
                "1",
                "x",
                "G",
            ],
        )
        .unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_user_by_login", &["aaa"]).unwrap_err(),
            MrError::NoMatch
        );
        assert!(run(&mut s, &r, &ops, "get_user_by_login", &["ccc"]).is_ok());
    }

    #[test]
    fn delete_user_constraints() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["victim", "7200", "/bin/csh", "L", "F", "", "1", "x", "G"],
        )
        .unwrap();
        // Active user cannot be deleted.
        assert_eq!(
            run(&mut s, &r, &ops, "delete_user", &["victim"]).unwrap_err(),
            MrError::InUse
        );
        run(&mut s, &r, &ops, "update_user_status", &["victim", "0"]).unwrap();
        run(&mut s, &r, &ops, "delete_user", &["victim"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_user_by_login", &["victim"]).unwrap_err(),
            MrError::NoMatch
        );
    }

    #[test]
    fn delete_user_blocked_by_membership() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["member", "7300", "/bin/csh", "L", "F", "", "0", "x", "G"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &[
                "somelist", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", "d",
            ],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["somelist", "USER", "member"],
        )
        .unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "delete_user", &["member"]).unwrap_err(),
            MrError::InUse
        );
        run(
            &mut s,
            &r,
            &ops,
            "delete_member_from_list",
            &["somelist", "USER", "member"],
        )
        .unwrap();
        run(&mut s, &r, &ops, "delete_user", &["member"]).unwrap();
    }

    #[test]
    fn finger_update() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &[
                "babette", "6530", "/bin/csh", "F", "H", "C", "1", "id", "1990",
            ],
        )
        .unwrap();
        let me = Caller::new("babette", "chfn");
        run(
            &mut s,
            &r,
            &me,
            "update_finger_by_login",
            &[
                "babette",
                "Harmon C Fowler",
                "Harm",
                "12 Oak St",
                "555-1212",
                "E40-342",
                "x3-1234",
                "EECS",
                "undergraduate",
            ],
        )
        .unwrap();
        let f = run(&mut s, &r, &ops, "get_finger_by_login", &["babette"]).unwrap();
        assert_eq!(f[0][2], "Harm");
        assert_eq!(f[0][8], "undergraduate");
    }

    #[test]
    fn register_user_full_flow() {
        let (mut s, r, ops) = setup();
        // Infrastructure: a POP server and an NFS partition.
        let pop_mach = add_test_machine(&mut s, "E40-PO");
        let nfs_mach = add_test_machine(&mut s, "CHARON");
        s.db.append(
            serverhosts::T,
            vec![
                "POP".into(),
                pop_mach.into(),
                true.into(),
                false.into(),
                false.into(),
                false.into(),
                0.into(),
                "".into(),
                0.into(),
                0.into(),
                0.into(),
                500.into(),
                "".into(),
                0.into(),
                "t".into(),
                "t".into(),
            ],
        )
        .unwrap();
        s.db.append(
            nfsphys::T,
            vec![
                1.into(),
                nfs_mach.into(),
                "/u1/lockers".into(),
                "ra0c".into(),
                1.into(), // student bit
                0.into(),
                100_000.into(),
                0.into(),
                "t".into(),
                "t".into(),
            ],
        )
        .unwrap();
        // A registerable student record (status 0, no login).
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &[
                "#",
                "8000",
                "/bin/csh",
                "Zimmermann",
                "Martin",
                "",
                "0",
                "hashedid",
                "1990",
            ],
        )
        .unwrap();
        run(&mut s, &r, &ops, "register_user", &["8000", "kazimi", "1"]).unwrap();

        let rows = run(&mut s, &r, &ops, "get_user_by_login", &["kazimi"]).unwrap();
        assert_eq!(rows[0][6], "2", "half-registered");
        // Pobox assigned on the POP server.
        let pobox = run(&mut s, &r, &ops, "get_pobox", &["kazimi"]).unwrap();
        assert_eq!(pobox[0][1], "POP");
        assert_eq!(pobox[0][2], "E40-PO");
        // Group list exists with a GID and the user as member.
        let li = run(&mut s, &r, &ops, "get_list_info", &["kazimi"]).unwrap();
        assert_eq!(li[0][5], "1", "group flag");
        // Filesystem + quota created, allocation charged.
        let fs = run(&mut s, &r, &ops, "get_filesys_by_label", &["kazimi"]).unwrap();
        assert_eq!(fs[0][1], "NFS");
        assert_eq!(fs[0][3], "/u1/lockers/kazimi");
        assert_eq!(fs[0][4], "/mit/kazimi");
        let phys = run(&mut s, &r, &ops, "get_nfsphys", &["CHARON", "*"]).unwrap();
        assert_eq!(phys[0][4], "300", "def_quota allocated");
        // Pop server load counted.
        let sh = run(&mut s, &r, &ops, "get_server_host_info", &["POP", "*"]).unwrap();
        assert_eq!(sh[0][10], "1");
        // Registering the same uid again fails (status moved on).
        assert_eq!(
            run(&mut s, &r, &ops, "register_user", &["8000", "kazimi2", "1"]).unwrap_err(),
            MrError::NotRegisterable
        );
    }

    #[test]
    fn register_user_login_collision() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["taken", "8100", "/bin/csh", "L", "F", "", "1", "x", "G"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["#", "8101", "/bin/csh", "L2", "F2", "", "0", "x", "1990"],
        )
        .unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "register_user", &["8101", "taken", "1"]).unwrap_err(),
            MrError::InUse
        );
    }

    #[test]
    fn get_by_class_and_mitid() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &[
                "grad1", "8200", "/bin/csh", "L", "F", "", "1", "cryptid1", "G",
            ],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &[
                "ug1", "8201", "/bin/csh", "L", "F", "", "1", "cryptid2", "1990",
            ],
        )
        .unwrap();
        let grads = run(&mut s, &r, &ops, "get_user_by_class", &["G"]).unwrap();
        assert!(grads.iter().any(|r| r[0] == "grad1"));
        assert!(!grads.iter().any(|r| r[0] == "ug1"));
        let byid = run(&mut s, &r, &ops, "get_user_by_mitid", &["cryptid2"]).unwrap();
        assert_eq!(byid[0][0], "ug1");
    }

    #[test]
    fn active_logins_subset() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["active1", "8300", "/bin/csh", "L", "F", "", "1", "x", "G"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["inact1", "8301", "/bin/csh", "L", "F", "", "0", "x", "G"],
        )
        .unwrap();
        let all = run(&mut s, &r, &ops, "get_all_logins", &[]).unwrap();
        let active = run(&mut s, &r, &ops, "get_all_active_logins", &[]).unwrap();
        assert!(all.len() > active.len());
        assert!(active.iter().any(|row| row[0] == "active1"));
        assert!(!active.iter().any(|row| row[0] == "inact1"));
    }
}
