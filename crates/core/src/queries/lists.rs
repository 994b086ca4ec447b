//! List and membership queries (§7.0.3).
//!
//! Lists are Moira's general grouping mechanism — mailing lists, unix
//! groups, and ACLs are all lists — so this module carries the richest
//! access-control rules in the catalog: ACE-based administration, public
//! self-service membership, and hidden lists.

use moira_common::errors::{MrError, MrResult};
use moira_db::{Col, Int, Pred, Relation, RowId, Str};

use crate::ace::{list_id_of, members_of, resolve_ace, user_in_list, users_id_of, Ace};
use crate::ids::alloc_id;
use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::schema::{
    capacls, filesys, hostaccess, list, members, servers, strings, zephyr, UNIQUE_GID,
};
use crate::state::{Caller, MoiraState};

use super::helpers::*;
use super::zephyr::ACES as ZEPHYR_ACES;

const LIST_INFO: &[&str] = &[
    "list",
    "active",
    "public",
    "hidden",
    "maillist",
    "group",
    "gid",
    "ace_type",
    "ace_name",
    "description",
    "modtime",
    "modby",
    "modwith",
];

/// Registers the list queries.
pub fn register(r: &mut Registry) {
    use AccessRule::*;
    use QueryKind::*;
    let qs: &[QueryHandle] = &[
        QueryHandle {
            name: "get_list_info",
            shortname: "glin",
            kind: Retrieve,
            access: Custom,
            args: &["list"],
            returns: LIST_INFO,
            handler: Handler::Read(get_list_info),
        },
        QueryHandle {
            name: "expand_list_names",
            shortname: "exln",
            kind: Retrieve,
            access: Custom,
            args: &["list"],
            returns: &["list"],
            handler: Handler::Read(expand_list_names),
        },
        QueryHandle {
            name: "add_list",
            shortname: "alis",
            kind: Append,
            access: QueryAcl,
            args: &[
                "list",
                "active",
                "public",
                "hidden",
                "maillist",
                "group",
                "gid",
                "ace_type",
                "ace_name",
                "description",
            ],
            returns: &[],
            handler: Handler::Write(add_list),
        },
        QueryHandle {
            name: "update_list",
            shortname: "ulis",
            kind: Update,
            access: Custom,
            args: &[
                "list",
                "newname",
                "active",
                "public",
                "hidden",
                "maillist",
                "group",
                "gid",
                "ace_type",
                "ace_name",
                "description",
            ],
            returns: &[],
            handler: Handler::Write(update_list),
        },
        QueryHandle {
            name: "delete_list",
            shortname: "dlis",
            kind: Delete,
            access: Custom,
            args: &["list"],
            returns: &[],
            handler: Handler::Write(delete_list),
        },
        QueryHandle {
            name: "add_member_to_list",
            shortname: "amtl",
            kind: Append,
            access: Custom,
            args: &["list", "type", "member"],
            returns: &[],
            handler: Handler::Write(add_member_to_list),
        },
        QueryHandle {
            name: "delete_member_from_list",
            shortname: "dmfl",
            kind: Delete,
            access: Custom,
            args: &["list", "type", "member"],
            returns: &[],
            handler: Handler::Write(delete_member_from_list),
        },
        QueryHandle {
            name: "get_ace_use",
            shortname: "gaus",
            kind: Retrieve,
            access: Custom,
            args: &["ace_type", "ace_name"],
            returns: &["object_type", "object_name"],
            handler: Handler::Read(get_ace_use),
        },
        QueryHandle {
            name: "qualified_get_lists",
            shortname: "qgli",
            kind: Retrieve,
            access: Custom,
            args: &["active", "public", "hidden", "maillist", "group"],
            returns: &["list"],
            handler: Handler::Read(qualified_get_lists),
        },
        QueryHandle {
            name: "get_members_of_list",
            shortname: "gmol",
            kind: Retrieve,
            access: Custom,
            args: &["list"],
            returns: &["type", "value"],
            handler: Handler::Read(get_members_of_list),
        },
        QueryHandle {
            name: "get_lists_of_member",
            shortname: "glom",
            kind: Retrieve,
            access: Custom,
            args: &["type", "value"],
            returns: &["list", "active", "public", "hidden", "maillist", "group"],
            handler: Handler::Read(get_lists_of_member),
        },
        QueryHandle {
            name: "count_members_of_list",
            shortname: "cmol",
            kind: Retrieve,
            access: Custom,
            args: &["list"],
            returns: &["count"],
            handler: Handler::Read(count_members_of_list),
        },
    ];
    for q in qs {
        r.register(*q);
    }
}

/// Renders one list row into the `get_list_info` tuple.
fn render_list_info(state: &MoiraState, row: RowId) -> MrResult<Vec<String>> {
    let r = state.db.table(list::T).row(row)?;
    let (ace_type, ace_name) =
        crate::ace::render_ace(&state.db, r.get(list::ACL_TYPE), r.get(list::ACL_ID));
    Ok(vec![
        r.render(list::NAME),
        r.render(list::ACTIVE),
        r.render(list::PUBLIC),
        r.render(list::HIDDEN),
        r.render(list::MAILLIST),
        r.render(list::GROUPLIST),
        r.render(list::GID),
        ace_type,
        ace_name,
        r.render(list::DESC),
        r.render(list::MODTIME),
        r.render(list::MODBY),
        r.render(list::MODWITH),
    ])
}

/// True if the caller is on the ACE of list `row`.
fn caller_on_list_ace(state: &MoiraState, c: &Caller, row: RowId) -> bool {
    crate::ace::caller_on_row_ace(
        state,
        c.principal.as_deref(),
        row,
        list::ACL_TYPE,
        list::ACL_ID,
    )
}

fn get_list_info(state: &MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let on_acl = on_query_acl(state, c, "get_list_info");
    if !on_acl {
        // Wildcards only for privileged callers.
        no_wildcards(&a[0]).map_err(|_| MrError::Perm)?;
    }
    let ids = state.db.select(&Pred::name_match(list::NAME, &a[0]));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    let mut out = Vec::new();
    for id in ids {
        let hidden = state.db.table(list::T).row(id)?.get(list::HIDDEN);
        if hidden && !on_acl && !caller_on_list_ace(state, c, id) {
            return Err(MrError::Perm);
        }
        out.push(render_list_info(state, id)?);
    }
    Ok(out)
}

fn expand_list_names(state: &MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let on_acl = on_query_acl(state, c, "expand_list_names");
    let ids = state.db.select(&Pred::name_match(list::NAME, &a[0]));
    let mut out = Vec::new();
    for id in ids {
        let r = state.db.table(list::T).row(id)?;
        if r.get(list::HIDDEN) && !on_acl && !caller_on_list_ace(state, c, id) {
            continue;
        }
        out.push(vec![r.get(list::NAME).to_owned()]);
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn parse_gid(state: &mut MoiraState, group: bool, gid_arg: &str) -> MrResult<i64> {
    let gid = if gid_arg == "UNIQUE_GID" {
        UNIQUE_GID
    } else {
        parse_int(gid_arg)?
    };
    if gid == UNIQUE_GID && group {
        alloc_id(state, "gid")
    } else {
        Ok(gid)
    }
}

fn add_list(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let name = &a[0];
    check_chars(name)?;
    no_wildcards(name)?;
    if name.is_empty() {
        return Err(MrError::BadChar);
    }
    if state
        .db
        .table(list::T)
        .select_one(&Pred::Eq(list::NAME, name.as_str().into()))
        .is_some()
    {
        return Err(MrError::Exists);
    }
    let active = parse_bool(&a[1])?;
    let public = parse_bool(&a[2])?;
    let hidden = parse_bool(&a[3])?;
    let maillist = parse_bool(&a[4])?;
    let group = parse_bool(&a[5])?;
    let gid = parse_gid(state, group, &a[6])?;
    let list_id = alloc_id(state, "list_id")?;
    // "The access list may be the list that is being created
    // (self-referential)."
    let ace = if a[7].eq_ignore_ascii_case("LIST") && &a[8] == name {
        Ace::List(list_id)
    } else {
        resolve_ace(&state.db, &a[7], &a[8])?
    };
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        list::T,
        vec![
            name.as_str().into(),
            list_id.into(),
            active.into(),
            public.into(),
            hidden.into(),
            maillist.into(),
            group.into(),
            gid.into(),
            a[9].as_str().into(),
            ace.type_str().into(),
            ace.id().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn update_list(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_list(state, &a[0])?;
    if !caller_on_list_ace(state, c, row) && !on_query_acl(state, c, "update_list") {
        return Err(MrError::Perm);
    }
    let newname = &a[1];
    check_chars(newname)?;
    no_wildcards(newname)?;
    let r = state.db.table(list::T).row(row)?;
    let (current, list_id) = (r.get(list::NAME).to_owned(), r.get(list::LIST_ID));
    if newname != &current
        && state
            .db
            .table(list::T)
            .select_one(&Pred::Eq(list::NAME, newname.as_str().into()))
            .is_some()
    {
        return Err(MrError::NotUnique);
    }
    let group = parse_bool(&a[6])?;
    let gid = parse_gid(state, group, &a[7])?;
    let ace = if a[8].eq_ignore_ascii_case("LIST") && (&a[9] == newname || a[9] == current) {
        Ace::List(list_id)
    } else {
        resolve_ace(&state.db, &a[8], &a[9])?
    };
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            list::NAME.set(newname.as_str()),
            list::ACTIVE.set(parse_bool(&a[2])?),
            list::PUBLIC.set(parse_bool(&a[3])?),
            list::HIDDEN.set(parse_bool(&a[4])?),
            list::MAILLIST.set(parse_bool(&a[5])?),
            list::GROUPLIST.set(group),
            list::GID.set(gid),
            list::ACL_TYPE.set(ace.type_str()),
            list::ACL_ID.set(ace.id()),
            list::DESC.set(&a[10]),
            list::MODTIME.set(now),
            list::MODBY.set(who),
            list::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

/// Is this list referenced anywhere (member of another list, ACE of an
/// object, owner of a filesystem, capability holder)?
fn list_referenced(state: &MoiraState, list_id: i64) -> bool {
    !state
        .db
        .select(
            &Pred::Eq(members::MEMBER_TYPE, "LIST".into())
                .and(Pred::Eq(members::MEMBER_ID, list_id.into())),
        )
        .is_empty()
        || !rows_with_list_ace(state, list::ACL_TYPE, list::ACL_ID, list_id).is_empty()
        || !rows_with_list_ace(state, servers::ACL_TYPE, servers::ACL_ID, list_id).is_empty()
        || !rows_with_list_ace(state, hostaccess::ACL_TYPE, hostaccess::ACL_ID, list_id).is_empty()
        || !state
            .db
            .select(&Pred::Eq(filesys::OWNERS, list_id.into()))
            .is_empty()
        || !state
            .db
            .select(&Pred::Eq(capacls::LIST_ID, list_id.into()))
            .is_empty()
        || ZEPHYR_ACES.iter().any(|&(type_col, id_col)| {
            !rows_with_list_ace(state, type_col, id_col, list_id).is_empty()
        })
}

/// The rows of `R` whose ACE, held in `type_col`/`id_col`, is list `list_id`.
fn rows_with_list_ace<R: Relation>(
    state: &MoiraState,
    type_col: Col<R, Str>,
    id_col: Col<R, Int>,
    list_id: i64,
) -> Vec<RowId> {
    state
        .db
        .select(&Pred::Eq(type_col, "LIST".into()).and(Pred::Eq(id_col, list_id.into())))
}

fn delete_list(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_list(state, &a[0])?;
    if !caller_on_list_ace(state, c, row) && !on_query_acl(state, c, "delete_list") {
        return Err(MrError::Perm);
    }
    let r = state.db.table(list::T).row(row)?;
    let list_id = r.get(list::LIST_ID);
    let has_members = !state
        .db
        .select(&Pred::Eq(members::LIST_ID, list_id.into()))
        .is_empty();
    // A self-referential ACE does not count as a reference.
    let self_ace = r.get(list::ACL_TYPE) == "LIST" && r.get(list::ACL_ID) == list_id;
    if has_members || (list_referenced(state, list_id) && !self_ace) {
        return Err(MrError::InUse);
    }
    if self_ace && list_referenced_excluding_self(state, list_id) {
        return Err(MrError::InUse);
    }
    state.db.delete(list::T, row)?;
    Ok(Vec::new())
}

fn list_referenced_excluding_self(state: &MoiraState, list_id: i64) -> bool {
    let self_row = state
        .db
        .table(list::T)
        .select_one(&Pred::Eq(list::LIST_ID, list_id.into()));
    rows_with_list_ace(state, list::ACL_TYPE, list::ACL_ID, list_id)
        .into_iter()
        .any(|r| Some(r) != self_row)
        || !rows_with_list_ace(state, servers::ACL_TYPE, servers::ACL_ID, list_id).is_empty()
        || !rows_with_list_ace(state, hostaccess::ACL_TYPE, hostaccess::ACL_ID, list_id).is_empty()
        || !state
            .db
            .select(&Pred::Eq(filesys::OWNERS, list_id.into()))
            .is_empty()
        || !state
            .db
            .select(&Pred::Eq(capacls::LIST_ID, list_id.into()))
            .is_empty()
        || !state
            .db
            .select(
                &Pred::Eq(members::MEMBER_TYPE, "LIST".into())
                    .and(Pred::Eq(members::MEMBER_ID, list_id.into())),
            )
            .is_empty()
}

/// Resolves `(member_type, member_name)` to a member id, creating STRINGS
/// entries on demand.
fn resolve_member(state: &mut MoiraState, mtype: &str, member: &str) -> MrResult<(String, i64)> {
    match mtype.to_ascii_uppercase().as_str() {
        "USER" => Ok((
            "USER".into(),
            users_id_of(&state.db, member).map_err(|_| MrError::NoMatch)?,
        )),
        "LIST" => Ok((
            "LIST".into(),
            list_id_of(&state.db, member).map_err(|_| MrError::NoMatch)?,
        )),
        "STRING" => Ok(("STRING".into(), intern_string(state, member)?)),
        _ => Err(MrError::Type),
    }
}

/// The add/delete-member access rule: self-service on public lists, the
/// list's ACE, or the query ACL.
fn may_edit_members(
    state: &mut MoiraState,
    c: &Caller,
    row: RowId,
    mtype: &str,
    member: &str,
    query: &str,
) -> MrResult<bool> {
    let public = state.db.table(list::T).row(row)?.get(list::PUBLIC);
    if public && mtype.eq_ignore_ascii_case("USER") && c.principal.as_deref() == Some(member) {
        return Ok(true);
    }
    Ok(caller_on_list_ace(state, c, row) || on_query_acl(state, c, query))
}

fn touch_list(state: &mut MoiraState, c: &Caller, row: RowId) -> MrResult<()> {
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            list::MODTIME.set(now),
            list::MODBY.set(who),
            list::MODWITH.set(with),
        ],
    )?;
    Ok(())
}

fn add_member_to_list(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_list(state, &a[0])?;
    if !may_edit_members(state, c, row, &a[1], &a[2], "add_member_to_list")? {
        return Err(MrError::Perm);
    }
    let (mtype, mid) = resolve_member(state, &a[1], &a[2])?;
    let list_id = state.db.table(list::T).row(row)?.get(list::LIST_ID);
    let dup = !state
        .db
        .select(
            &Pred::Eq(members::LIST_ID, list_id.into())
                .and(Pred::Eq(members::MEMBER_TYPE, mtype.as_str().into()))
                .and(Pred::Eq(members::MEMBER_ID, mid.into())),
        )
        .is_empty();
    if dup {
        return Err(MrError::Exists);
    }
    state
        .db
        .append(members::T, vec![list_id.into(), mtype.into(), mid.into()])?;
    touch_list(state, c, row)?;
    Ok(Vec::new())
}

fn delete_member_from_list(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_list(state, &a[0])?;
    if !may_edit_members(state, c, row, &a[1], &a[2], "delete_member_from_list")? {
        return Err(MrError::Perm);
    }
    let (mtype, mid) = resolve_member(state, &a[1], &a[2])?;
    let list_id = state.db.table(list::T).row(row)?.get(list::LIST_ID);
    let gone = state.db.delete_where(
        &Pred::Eq(members::LIST_ID, list_id.into())
            .and(Pred::Eq(members::MEMBER_TYPE, mtype.as_str().into()))
            .and(Pred::Eq(members::MEMBER_ID, mid.into())),
    );
    if gone == 0 {
        return Err(MrError::NoMatch);
    }
    touch_list(state, c, row)?;
    Ok(Vec::new())
}

/// What `get_ace_use` is being asked about.
enum AceTarget {
    User { users_id: i64, recursive: bool },
    List { list_id: i64, recursive: bool },
}

impl AceTarget {
    fn matches(&self, db: &moira_db::Database, ace_type: &str, ace_id: i64) -> bool {
        match (self, ace_type) {
            (AceTarget::User { users_id, .. }, "USER") => ace_id == *users_id,
            (
                AceTarget::User {
                    users_id,
                    recursive: true,
                },
                "LIST",
            ) => user_in_list(db, *users_id, ace_id),
            (AceTarget::List { list_id, recursive }, "LIST") => {
                ace_id == *list_id || (*recursive && list_in_list(db, *list_id, ace_id))
            }
            _ => false,
        }
    }
}

/// True if `inner` is a direct or transitive member (as a LIST member) of
/// `outer`.
fn list_in_list(db: &moira_db::Database, inner: i64, outer: i64) -> bool {
    fn walk(
        db: &moira_db::Database,
        inner: i64,
        outer: i64,
        depth: usize,
        seen: &mut Vec<i64>,
    ) -> bool {
        if depth > 32 || seen.contains(&outer) {
            return false;
        }
        seen.push(outer);
        for r in members_of(db, outer) {
            if r.get(members::MEMBER_TYPE) != "LIST" {
                continue;
            }
            let mid = r.get(members::MEMBER_ID);
            if mid == inner || walk(db, inner, mid, depth + 1, seen) {
                return true;
            }
        }
        false
    }
    walk(db, inner, outer, 0, &mut Vec::new())
}

fn get_ace_use(state: &MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let recursive = a[0].to_ascii_uppercase().starts_with('R');
    let target = match a[0].to_ascii_uppercase().as_str() {
        "USER" | "RUSER" => AceTarget::User {
            users_id: users_id_of(&state.db, &a[1]).map_err(|_| MrError::NoMatch)?,
            recursive,
        },
        "LIST" | "RLIST" => AceTarget::List {
            list_id: list_id_of(&state.db, &a[1]).map_err(|_| MrError::NoMatch)?,
            recursive,
        },
        _ => return Err(MrError::Type),
    };
    // Access: a user asking about themselves, someone on the ACE of the
    // list asking about that list, or the query ACL.
    let allowed = on_query_acl(state, c, "get_ace_use")
        || match &target {
            AceTarget::User { .. } => c.principal.as_deref() == Some(a[1].as_str()),
            AceTarget::List { list_id, .. } => {
                let row = state
                    .db
                    .table(list::T)
                    .select_one(&Pred::Eq(list::LIST_ID, (*list_id).into()));
                row.is_some_and(|r| caller_on_list_ace(state, c, r))
            }
        };
    if !allowed {
        return Err(MrError::Perm);
    }

    let mut out: Vec<Vec<String>> = Vec::new();
    let db = &state.db;
    for r in db.table(list::T).rows(&Pred::True) {
        if target.matches(db, r.get(list::ACL_TYPE), r.get(list::ACL_ID)) {
            out.push(vec!["LIST".into(), r.get(list::NAME).to_owned()]);
        }
    }
    for r in db.table(servers::T).rows(&Pred::True) {
        if target.matches(db, r.get(servers::ACL_TYPE), r.get(servers::ACL_ID)) {
            out.push(vec!["SERVICE".into(), r.get(servers::NAME).to_owned()]);
        }
    }
    for r in db.table(filesys::T).rows(&Pred::True) {
        let owner_matches = target.matches(db, "USER", r.get(filesys::OWNER));
        let owners_matches = target.matches(db, "LIST", r.get(filesys::OWNERS));
        if owner_matches || owners_matches {
            out.push(vec!["FILESYS".into(), r.get(filesys::LABEL).to_owned()]);
        }
    }
    for r in db.table(capacls::T).rows(&Pred::True) {
        if target.matches(db, "LIST", r.get(capacls::LIST_ID)) {
            out.push(vec!["QUERY".into(), r.get(capacls::CAPABILITY).to_owned()]);
        }
    }
    for r in db.table(hostaccess::T).rows(&Pred::True) {
        if target.matches(db, r.get(hostaccess::ACL_TYPE), r.get(hostaccess::ACL_ID)) {
            let host = machine_name(state, r.get(hostaccess::MACH_ID));
            out.push(vec!["HOSTACCESS".into(), host]);
        }
    }
    for r in db.table(zephyr::T).rows(&Pred::True) {
        if ZEPHYR_ACES
            .iter()
            .any(|&(tc, ic)| target.matches(db, r.get(tc), r.get(ic)))
        {
            out.push(vec!["ZEPHYR".into(), r.get(zephyr::CLASS).to_owned()]);
        }
    }
    out.sort();
    out.dedup();
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

// Tristate qualifier over five unindexed flag columns: a genuine dump, no
// index can narrow it.
#[allow(clippy::disallowed_methods)]
fn qualified_get_lists(state: &MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let active = parse_tristate(&a[0])?;
    let public = parse_tristate(&a[1])?;
    let hidden = parse_tristate(&a[2])?;
    let maillist = parse_tristate(&a[3])?;
    let group = parse_tristate(&a[4])?;
    // "Any user may execute this query with active TRUE and hidden FALSE."
    let benign = active == Some(true) && hidden == Some(false);
    if !benign && !on_query_acl(state, c, "qualified_get_lists") {
        return Err(MrError::Perm);
    }
    let mut out = Vec::new();
    for r in state.db.table(list::T).iter_rows() {
        if matches_tristate(r.get(list::ACTIVE), active)
            && matches_tristate(r.get(list::PUBLIC), public)
            && matches_tristate(r.get(list::HIDDEN), hidden)
            && matches_tristate(r.get(list::MAILLIST), maillist)
            && matches_tristate(r.get(list::GROUPLIST), group)
        {
            out.push(vec![r.get(list::NAME).to_owned()]);
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn may_see_members(state: &MoiraState, c: &Caller, row: RowId, query: &str) -> MrResult<bool> {
    let hidden = state.db.table(list::T).row(row)?.get(list::HIDDEN);
    Ok(!hidden || caller_on_list_ace(state, c, row) || on_query_acl(state, c, query))
}

fn get_members_of_list(state: &MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_list(state, &a[0])?;
    if !may_see_members(state, c, row, "get_members_of_list")? {
        return Err(MrError::Perm);
    }
    let list_id = state.db.table(list::T).row(row)?.get(list::LIST_ID);
    let mut out = Vec::new();
    for r in members_of(&state.db, list_id) {
        let (mtype, mid) = (r.get(members::MEMBER_TYPE), r.get(members::MEMBER_ID));
        let value = match mtype {
            "USER" => user_login(state, mid),
            "LIST" => list_name(state, mid),
            _ => string_of(state, mid),
        };
        out.push(vec![mtype.to_owned(), value]);
    }
    out.sort();
    Ok(out)
}

fn get_lists_of_member(state: &MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let upper = a[0].to_ascii_uppercase();
    let recursive = upper.starts_with('R');
    let base_type = upper.trim_start_matches('R').to_owned();
    let (mtype, mid) = match base_type.as_str() {
        "USER" => (
            "USER",
            users_id_of(&state.db, &a[1]).map_err(|_| MrError::NoMatch)?,
        ),
        "LIST" => (
            "LIST",
            list_id_of(&state.db, &a[1]).map_err(|_| MrError::NoMatch)?,
        ),
        "STRING" => (
            "STRING",
            state
                .db
                .table(strings::T)
                .find(&Pred::Eq(strings::STRING, a[1].as_str().into()))
                .map(|r| r.get(strings::STRING_ID))
                .ok_or(MrError::NoMatch)?,
        ),
        _ => return Err(MrError::Type),
    };
    let allowed = on_query_acl(state, c, "get_lists_of_member")
        || (mtype == "USER" && c.principal.as_deref() == Some(a[1].as_str()));
    if !allowed {
        return Err(MrError::Perm);
    }

    // Direct memberships, then (for R types) the transitive closure upward.
    let members = state.db.table(members::T);
    let mut list_ids: Vec<i64> = members
        .rows(
            &Pred::Eq(members::MEMBER_TYPE, mtype.into())
                .and(Pred::Eq(members::MEMBER_ID, mid.into())),
        )
        .map(|r| r.get(members::LIST_ID))
        .collect();
    if recursive {
        let mut frontier = list_ids.clone();
        while let Some(lid) = frontier.pop() {
            for r in members.rows(
                &Pred::Eq(members::MEMBER_TYPE, "LIST".into())
                    .and(Pred::Eq(members::MEMBER_ID, lid.into())),
            ) {
                let parent = r.get(members::LIST_ID);
                if !list_ids.contains(&parent) {
                    list_ids.push(parent);
                    frontier.push(parent);
                }
            }
        }
    }
    list_ids.sort_unstable();
    list_ids.dedup();
    let mut out = Vec::new();
    let lists = state.db.table(list::T);
    for lid in list_ids {
        if let Some(r) = lists.find(&Pred::Eq(list::LIST_ID, lid.into())) {
            out.push(vec![
                r.render(list::NAME),
                r.render(list::ACTIVE),
                r.render(list::PUBLIC),
                r.render(list::HIDDEN),
                r.render(list::MAILLIST),
                r.render(list::GROUPLIST),
            ]);
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn count_members_of_list(
    state: &MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_list(state, &a[0])?;
    if !may_see_members(state, c, row, "count_members_of_list")? {
        return Err(MrError::Perm);
    }
    let list_id = state.db.table(list::T).row(row)?.get(list::LIST_ID);
    Ok(vec![vec![members_of(&state.db, list_id)
        .count()
        .to_string()]])
}

/// Expands a list to its transitive USER member ids plus STRING member ids
/// — the id-level variant of [`expand_members_recursive`] for bulk callers
/// that resolve names themselves.
pub fn expand_member_ids_recursive(state: &MoiraState, list_id: i64) -> (Vec<i64>, Vec<i64>) {
    let mut users = Vec::new();
    let mut strings = Vec::new();
    let mut seen = vec![list_id];
    let mut frontier = vec![list_id];
    while let Some(lid) = frontier.pop() {
        for r in members_of(&state.db, lid) {
            let mid = r.get(members::MEMBER_ID);
            match r.get(members::MEMBER_TYPE) {
                "USER" => users.push(mid),
                "STRING" => strings.push(mid),
                "LIST" if !seen.contains(&mid) => {
                    seen.push(mid);
                    frontier.push(mid);
                }
                _ => {}
            }
        }
    }
    users.sort_unstable();
    users.dedup();
    strings.sort_unstable();
    strings.dedup();
    (users, strings)
}

/// Expands a list to its transitive USER member logins plus STRING members,
/// as the Zephyr ACL and aliases generators need ("Recursive lists will be
/// expanded").
pub fn expand_members_recursive(state: &MoiraState, list_id: i64) -> (Vec<String>, Vec<String>) {
    let mut users = Vec::new();
    let mut strings = Vec::new();
    let mut seen = vec![list_id];
    let mut frontier = vec![list_id];
    while let Some(lid) = frontier.pop() {
        for r in members_of(&state.db, lid) {
            let mid = r.get(members::MEMBER_ID);
            match r.get(members::MEMBER_TYPE) {
                "USER" => users.push(user_login(state, mid)),
                "STRING" => strings.push(string_of(state, mid)),
                "LIST" if !seen.contains(&mid) => {
                    seen.push(mid);
                    frontier.push(mid);
                }
                _ => {}
            }
        }
    }
    users.sort();
    users.dedup();
    strings.sort();
    strings.dedup();
    (users, strings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testutil::state_with_admin;
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
        let r = Registry::standard();
        let ops = Caller::new("ops", "listmaint");
        for (login, uid) in [("babette", "6530"), ("paul", "6531"), ("smyser", "6532")] {
            run(
                &mut s,
                &r,
                &ops,
                "add_user",
                &[login, uid, "/bin/csh", "L", "F", "", "1", "x", "1990"],
            )
            .unwrap();
        }
        (s, r, ops)
    }

    #[test]
    fn list_lifecycle() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &[
                "video-users",
                "1",
                "1",
                "0",
                "1",
                "0",
                "-1",
                "USER",
                "paul",
                "Video Users",
            ],
        )
        .unwrap();
        let info = run(&mut s, &r, &ops, "get_list_info", &["video-users"]).unwrap();
        assert_eq!(info[0][4], "1", "maillist");
        assert_eq!(info[0][7], "USER");
        assert_eq!(info[0][8], "paul");
        // Duplicate.
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_list",
                &[
                    "video-users",
                    "1",
                    "1",
                    "0",
                    "1",
                    "0",
                    "-1",
                    "NONE",
                    "NONE",
                    "",
                ]
            )
            .unwrap_err(),
            MrError::Exists
        );
        // Bad ACE.
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_list",
                &["other", "1", "1", "0", "1", "0", "-1", "USER", "ghost", "",]
            )
            .unwrap_err(),
            MrError::Ace
        );
        run(&mut s, &r, &ops, "delete_list", &["video-users"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_list_info", &["video-users"]).unwrap_err(),
            MrError::NoMatch
        );
    }

    #[test]
    fn unique_gid_assignment() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &[
                "grp1",
                "1",
                "0",
                "0",
                "0",
                "1",
                "UNIQUE_GID",
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
            "add_list",
            &["grp2", "1", "0", "0", "0", "1", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        let g1 = run(&mut s, &r, &ops, "get_list_info", &["grp1"]).unwrap()[0][6]
            .parse::<i64>()
            .unwrap();
        let g2 = run(&mut s, &r, &ops, "get_list_info", &["grp2"]).unwrap()[0][6]
            .parse::<i64>()
            .unwrap();
        assert!(g1 >= 10_900);
        assert_eq!(g2, g1 + 1);
        // Non-group lists keep -1.
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["plain", "1", "0", "0", "1", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_list_info", &["plain"]).unwrap()[0][6],
            "-1"
        );
    }

    #[test]
    fn self_referential_ace() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &[
                "selfgov",
                "1",
                "0",
                "0",
                "0",
                "0",
                "-1",
                "LIST",
                "selfgov",
                "self-governing",
            ],
        )
        .unwrap();
        let info = run(&mut s, &r, &ops, "get_list_info", &["selfgov"]).unwrap();
        assert_eq!(info[0][7], "LIST");
        assert_eq!(info[0][8], "selfgov");
        // Members of the list govern it.
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["selfgov", "USER", "babette"],
        )
        .unwrap();
        let b = Caller::new("babette", "listmaint");
        run(
            &mut s,
            &r,
            &b,
            "add_member_to_list",
            &["selfgov", "USER", "paul"],
        )
        .unwrap();
    }

    #[test]
    fn membership_and_counts() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["m", "1", "0", "0", "1", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["m", "USER", "babette"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["m", "STRING", "rubin@media-lab.mit.edu"],
        )
        .unwrap();
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_member_to_list",
                &["m", "USER", "babette"]
            )
            .unwrap_err(),
            MrError::Exists
        );
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_member_to_list",
                &["m", "USER", "ghost"]
            )
            .unwrap_err(),
            MrError::NoMatch
        );
        assert_eq!(
            run(&mut s, &r, &ops, "add_member_to_list", &["m", "ROBOT", "x"]).unwrap_err(),
            MrError::Type
        );
        let members = run(&mut s, &r, &ops, "get_members_of_list", &["m"]).unwrap();
        assert_eq!(members.len(), 2);
        assert!(members.contains(&vec![
            "STRING".to_owned(),
            "rubin@media-lab.mit.edu".to_owned()
        ]));
        assert_eq!(
            run(&mut s, &r, &ops, "count_members_of_list", &["m"]).unwrap()[0][0],
            "2"
        );
        run(
            &mut s,
            &r,
            &ops,
            "delete_member_from_list",
            &["m", "USER", "babette"],
        )
        .unwrap();
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "delete_member_from_list",
                &["m", "USER", "babette"]
            )
            .unwrap_err(),
            MrError::NoMatch
        );
    }

    #[test]
    fn public_list_self_service() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["pub", "1", "1", "0", "1", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["priv", "1", "0", "0", "1", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        let b = Caller::new("babette", "mailmaint");
        // Self add/remove on a public list is allowed.
        run(
            &mut s,
            &r,
            &b,
            "add_member_to_list",
            &["pub", "USER", "babette"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &b,
            "delete_member_from_list",
            &["pub", "USER", "babette"],
        )
        .unwrap();
        // Adding someone else is not.
        assert_eq!(
            run(
                &mut s,
                &r,
                &b,
                "add_member_to_list",
                &["pub", "USER", "paul"]
            )
            .unwrap_err(),
            MrError::Perm
        );
        // Self add on a private list is not.
        assert_eq!(
            run(
                &mut s,
                &r,
                &b,
                "add_member_to_list",
                &["priv", "USER", "babette"]
            )
            .unwrap_err(),
            MrError::Perm
        );
    }

    #[test]
    fn hidden_lists_guarded() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &[
                "shadow", "1", "0", "1", "0", "0", "-1", "USER", "paul", "hush",
            ],
        )
        .unwrap();
        let b = Caller::new("babette", "x");
        assert_eq!(
            run(&mut s, &r, &b, "get_list_info", &["shadow"]).unwrap_err(),
            MrError::Perm
        );
        assert_eq!(
            run(&mut s, &r, &b, "get_members_of_list", &["shadow"]).unwrap_err(),
            MrError::Perm
        );
        // The ACE holder sees it.
        let p = Caller::new("paul", "x");
        assert!(run(&mut s, &r, &p, "get_list_info", &["shadow"]).is_ok());
        assert!(run(&mut s, &r, &p, "get_members_of_list", &["shadow"]).is_ok());
        // expand_list_names hides it from others.
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["shine", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        let names = run(&mut s, &r, &b, "expand_list_names", &["sh*"]).unwrap();
        assert_eq!(names, vec![vec!["shine".to_owned()]]);
    }

    #[test]
    fn wildcards_require_acl_for_list_info() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["l1", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        let b = Caller::new("babette", "x");
        assert_eq!(
            run(&mut s, &r, &b, "get_list_info", &["l*"]).unwrap_err(),
            MrError::Perm
        );
        assert!(run(&mut s, &r, &ops, "get_list_info", &["l*"]).is_ok());
    }

    #[test]
    fn lists_of_member_and_recursion() {
        let (mut s, r, ops) = setup();
        for name in ["inner", "outer"] {
            run(
                &mut s,
                &r,
                &ops,
                "add_list",
                &[name, "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
            )
            .unwrap();
        }
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["inner", "USER", "babette"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["outer", "LIST", "inner"],
        )
        .unwrap();
        let direct = run(
            &mut s,
            &r,
            &ops,
            "get_lists_of_member",
            &["USER", "babette"],
        )
        .unwrap();
        assert_eq!(direct.len(), 1);
        assert_eq!(direct[0][0], "inner");
        let rec = run(
            &mut s,
            &r,
            &ops,
            "get_lists_of_member",
            &["RUSER", "babette"],
        )
        .unwrap();
        let names: Vec<&str> = rec.iter().map(|t| t[0].as_str()).collect();
        assert!(names.contains(&"inner") && names.contains(&"outer"));
        // A user can ask about themselves.
        let b = Caller::new("babette", "x");
        assert!(run(&mut s, &r, &b, "get_lists_of_member", &["RUSER", "babette"]).is_ok());
        assert_eq!(
            run(&mut s, &r, &b, "get_lists_of_member", &["USER", "paul"]).unwrap_err(),
            MrError::Perm
        );
    }

    #[test]
    fn qualified_get_lists_flags() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["ml", "1", "1", "0", "1", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["grp", "1", "0", "0", "0", "1", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        let mls = run(
            &mut s,
            &r,
            &ops,
            "qualified_get_lists",
            &["TRUE", "DONTCARE", "FALSE", "TRUE", "DONTCARE"],
        )
        .unwrap();
        assert!(mls.iter().any(|t| t[0] == "ml"));
        assert!(!mls.iter().any(|t| t[0] == "grp"));
        // Bad qualifier.
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "qualified_get_lists",
                &["YES", "NO", "NO", "NO", "NO"]
            )
            .unwrap_err(),
            MrError::Type
        );
        // Anyone may run the benign form.
        let b = Caller::new("babette", "x");
        assert!(run(
            &mut s,
            &r,
            &b,
            "qualified_get_lists",
            &["TRUE", "DONTCARE", "FALSE", "DONTCARE", "DONTCARE",]
        )
        .is_ok());
        assert_eq!(
            run(
                &mut s,
                &r,
                &b,
                "qualified_get_lists",
                &["DONTCARE", "DONTCARE", "TRUE", "DONTCARE", "DONTCARE",]
            )
            .unwrap_err(),
            MrError::Perm
        );
    }

    #[test]
    fn ace_use_queries() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["owners", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["owned", "1", "0", "0", "0", "0", "-1", "LIST", "owners", ""],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["owners", "USER", "paul"],
        )
        .unwrap();
        // Direct: paul is not directly an ACE.
        assert_eq!(
            run(&mut s, &r, &ops, "get_ace_use", &["USER", "paul"]).unwrap_err(),
            MrError::NoMatch
        );
        // Recursive: paul reaches `owned` via `owners`.
        let uses = run(&mut s, &r, &ops, "get_ace_use", &["RUSER", "paul"]).unwrap();
        assert!(uses.contains(&vec!["LIST".to_owned(), "owned".to_owned()]));
        // The list itself.
        let uses = run(&mut s, &r, &ops, "get_ace_use", &["LIST", "owners"]).unwrap();
        assert!(uses.contains(&vec!["LIST".to_owned(), "owned".to_owned()]));
        // Self-query allowed.
        let p = Caller::new("paul", "x");
        assert!(run(&mut s, &r, &p, "get_ace_use", &["RUSER", "paul"]).is_ok());
        assert_eq!(
            run(&mut s, &r, &p, "get_ace_use", &["RUSER", "babette"]).unwrap_err(),
            MrError::Perm
        );
        assert_eq!(
            run(&mut s, &r, &ops, "get_ace_use", &["MACHINE", "x"]).unwrap_err(),
            MrError::Type
        );
    }

    #[test]
    fn delete_list_constraints() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["parent", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_list",
            &["child", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["parent", "LIST", "child"],
        )
        .unwrap();
        // child is referenced, parent is non-empty: both refuse deletion.
        assert_eq!(
            run(&mut s, &r, &ops, "delete_list", &["child"]).unwrap_err(),
            MrError::InUse
        );
        assert_eq!(
            run(&mut s, &r, &ops, "delete_list", &["parent"]).unwrap_err(),
            MrError::InUse
        );
        run(
            &mut s,
            &r,
            &ops,
            "delete_member_from_list",
            &["parent", "LIST", "child"],
        )
        .unwrap();
        run(&mut s, &r, &ops, "delete_list", &["child"]).unwrap();
        run(&mut s, &r, &ops, "delete_list", &["parent"]).unwrap();
    }

    #[test]
    fn recursive_expansion_helper() {
        let (mut s, r, ops) = setup();
        for name in ["leaf", "mid", "top"] {
            run(
                &mut s,
                &r,
                &ops,
                "add_list",
                &[name, "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
            )
            .unwrap();
        }
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["leaf", "USER", "babette"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["leaf", "STRING", "x@y.z"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["mid", "LIST", "leaf"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["mid", "USER", "paul"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["top", "LIST", "mid"],
        )
        .unwrap();
        // Cycle for good measure.
        run(
            &mut s,
            &r,
            &ops,
            "add_member_to_list",
            &["leaf", "LIST", "top"],
        )
        .unwrap();
        let top_id = list_id_of(&s.db, "top").unwrap();
        let (users, strings) = expand_members_recursive(&s, top_id);
        assert_eq!(users, vec!["babette".to_owned(), "paul".to_owned()]);
        assert_eq!(strings, vec!["x@y.z".to_owned()]);
    }
}
