//! Server and server-host queries (§7.0.4) — the DCM's control surface.

use moira_common::errors::{MrError, MrResult};
use moira_db::{Col, Pred, Row, RowId};

use crate::ace::{render_ace, resolve_ace};
use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::schema::{serverhosts, servers};
use crate::state::{Caller, MoiraState};

use super::helpers::*;

/// Registers the server queries.
pub fn register(r: &mut Registry) {
    use AccessRule::*;
    use QueryKind::*;
    let qs: &[QueryHandle] = &[
        QueryHandle {
            name: "get_server_info",
            shortname: "gsin",
            kind: Retrieve,
            access: Custom,
            args: &["service"],
            returns: &[
                "service",
                "interval",
                "target",
                "script",
                "dfgen",
                "dfcheck",
                "type",
                "enable",
                "inprogress",
                "harderror",
                "errmsg",
                "ace_type",
                "ace_name",
                "modtime",
                "modby",
                "modwith",
            ],
            handler: Handler::Read(get_server_info),
        },
        QueryHandle {
            name: "qualified_get_server",
            shortname: "qgsv",
            kind: Retrieve,
            access: QueryAcl,
            args: &["enable", "inprogress", "harderror"],
            returns: &["service"],
            handler: Handler::Read(qualified_get_server),
        },
        QueryHandle {
            name: "add_server_info",
            shortname: "asin",
            kind: Append,
            access: QueryAcl,
            args: &[
                "service", "interval", "target", "script", "type", "enable", "ace_type", "ace_name",
            ],
            returns: &[],
            handler: Handler::Write(add_server_info),
        },
        QueryHandle {
            name: "update_server_info",
            shortname: "usin",
            kind: Update,
            access: Custom,
            args: &[
                "service", "interval", "target", "script", "type", "enable", "ace_type", "ace_name",
            ],
            returns: &[],
            handler: Handler::Write(update_server_info),
        },
        QueryHandle {
            name: "reset_server_error",
            shortname: "rsve",
            kind: Update,
            access: Custom,
            args: &["service"],
            returns: &[],
            handler: Handler::Write(reset_server_error),
        },
        QueryHandle {
            name: "set_server_internal_flags",
            shortname: "ssif",
            kind: Update,
            access: QueryAcl,
            args: &[
                "service",
                "dfgen",
                "dfcheck",
                "inprogress",
                "harderror",
                "errmsg",
            ],
            returns: &[],
            handler: Handler::Write(set_server_internal_flags),
        },
        QueryHandle {
            name: "delete_server_info",
            shortname: "dsin",
            kind: Delete,
            access: QueryAcl,
            args: &["service"],
            returns: &[],
            handler: Handler::Write(delete_server_info),
        },
        QueryHandle {
            name: "get_server_host_info",
            shortname: "gshi",
            kind: Retrieve,
            access: Custom,
            args: &["service", "machine"],
            returns: &[
                "service",
                "machine",
                "enable",
                "override",
                "success",
                "inprogress",
                "hosterror",
                "errmsg",
                "lasttry",
                "lastsuccess",
                "value1",
                "value2",
                "value3",
                "modtime",
                "modby",
                "modwith",
            ],
            handler: Handler::Read(get_server_host_info),
        },
        QueryHandle {
            name: "qualified_get_server_host",
            shortname: "qgsh",
            kind: Retrieve,
            access: QueryAcl,
            args: &[
                "service",
                "enable",
                "override",
                "success",
                "inprogress",
                "hosterror",
            ],
            returns: &["service", "machine"],
            handler: Handler::Read(qualified_get_server_host),
        },
        QueryHandle {
            name: "add_server_host_info",
            shortname: "ashi",
            kind: Append,
            access: Custom,
            args: &["service", "machine", "enable", "value1", "value2", "value3"],
            returns: &[],
            handler: Handler::Write(add_server_host_info),
        },
        QueryHandle {
            name: "update_server_host_info",
            shortname: "ushi",
            kind: Update,
            access: Custom,
            args: &["service", "machine", "enable", "value1", "value2", "value3"],
            returns: &[],
            handler: Handler::Write(update_server_host_info),
        },
        QueryHandle {
            name: "reset_server_host_error",
            shortname: "rshe",
            kind: Update,
            access: Custom,
            args: &["service", "machine"],
            returns: &[],
            handler: Handler::Write(reset_server_host_error),
        },
        QueryHandle {
            name: "set_server_host_override",
            shortname: "ssho",
            kind: Update,
            access: Custom,
            args: &["service", "machine"],
            returns: &[],
            handler: Handler::Write(set_server_host_override),
        },
        QueryHandle {
            name: "set_server_host_internal",
            shortname: "sshi",
            kind: Update,
            access: QueryAcl,
            args: &[
                "service",
                "machine",
                "override",
                "success",
                "inprogress",
                "hosterror",
                "errmsg",
                "lasttry",
                "lastsuccess",
            ],
            returns: &[],
            handler: Handler::Write(set_server_host_internal),
        },
        QueryHandle {
            name: "delete_server_host_info",
            shortname: "dshi",
            kind: Delete,
            access: Custom,
            args: &["service", "machine"],
            returns: &[],
            handler: Handler::Write(delete_server_host_info),
        },
        QueryHandle {
            name: "get_server_locations",
            shortname: "gslo",
            kind: Retrieve,
            access: Public,
            args: &["service"],
            returns: &["service", "machine"],
            handler: Handler::Read(get_server_locations),
        },
    ];
    for q in qs {
        r.register(*q);
    }
}

fn caller_on_service_ace(state: &MoiraState, c: &Caller, row: RowId) -> bool {
    crate::ace::caller_on_row_ace(
        state,
        c.principal.as_deref(),
        row,
        servers::ACL_TYPE,
        servers::ACL_ID,
    )
}

/// ACE of the service named in a serverhost operation, resolved through the
/// servers table.
fn caller_on_named_service_ace(state: &MoiraState, c: &Caller, service: &str) -> bool {
    state
        .db
        .table(servers::T)
        .select_one(&Pred::EqCi(servers::NAME, service.to_owned()))
        .is_some_and(|row| caller_on_service_ace(state, c, row))
}

fn render_server(state: &MoiraState, row: RowId) -> MrResult<Vec<String>> {
    let r = state.db.table(servers::T).row(row)?;
    let (ace_type, ace_name) =
        render_ace(&state.db, r.get(servers::ACL_TYPE), r.get(servers::ACL_ID));
    Ok(vec![
        r.render(servers::NAME),
        r.render(servers::UPDATE_INT),
        r.render(servers::TARGET_FILE),
        r.render(servers::SCRIPT),
        r.render(servers::DFGEN),
        r.render(servers::DFCHECK),
        r.render(servers::TYPE),
        r.render(servers::ENABLE),
        r.render(servers::INPROGRESS),
        r.render(servers::HARDERROR),
        r.render(servers::ERRMSG),
        ace_type,
        ace_name,
        r.render(servers::MODTIME),
        r.render(servers::MODBY),
        r.render(servers::MODWITH),
    ])
}

fn get_server_info(state: &MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let name = a[0].to_ascii_uppercase();
    let ids = state.db.select(&Pred::name_match_ci(servers::NAME, &name));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    // "This query may be executed by someone on the service ace if only one
    // service is retrieved."
    let allowed = on_query_acl(state, c, "get_server_info")
        || (ids.len() == 1 && caller_on_service_ace(state, c, ids[0]));
    if !allowed {
        return Err(MrError::Perm);
    }
    ids.into_iter().map(|id| render_server(state, id)).collect()
}

// Tristate qualifier over unindexed status flags: a genuine admin dump
// over a tiny relation, so the planner has nothing to offer.
#[allow(clippy::disallowed_methods)]
fn qualified_get_server(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let enable = parse_tristate(&a[0])?;
    let inprogress = parse_tristate(&a[1])?;
    let harderror = parse_tristate(&a[2])?;
    let mut out = Vec::new();
    for r in state.db.table(servers::T).iter_rows() {
        if matches_tristate(r.get(servers::ENABLE), enable)
            && matches_tristate(r.get(servers::INPROGRESS), inprogress)
            && matches_tristate(r.get(servers::HARDERROR) != 0, harderror)
        {
            out.push(vec![r.render(servers::NAME)]);
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn add_server_info(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let name = a[0].to_ascii_uppercase();
    check_chars(&name)?;
    no_wildcards(&name)?;
    let interval = parse_int(&a[1])?;
    check_type_alias(state, "service", &a[4], MrError::Type)?;
    let enable = parse_bool(&a[5])?;
    let ace = resolve_ace(&state.db, &a[6], &a[7])?;
    if state
        .db
        .table(servers::T)
        .select_one(&Pred::Eq(servers::NAME, name.clone().into()))
        .is_some()
    {
        return Err(MrError::Exists);
    }
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        servers::T,
        vec![
            name.into(),
            interval.into(),
            a[2].as_str().into(),
            a[3].as_str().into(),
            0.into(),
            0.into(),
            a[4].to_ascii_uppercase().into(),
            enable.into(),
            false.into(),
            0.into(),
            "".into(),
            ace.type_str().into(),
            ace.id().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn update_server_info(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_service(state, &a[0])?;
    if !caller_on_service_ace(state, c, row) && !on_query_acl(state, c, "update_server_info") {
        return Err(MrError::Perm);
    }
    let interval = parse_int(&a[1])?;
    check_type_alias(state, "service", &a[4], MrError::Type)?;
    let enable = parse_bool(&a[5])?;
    let ace = resolve_ace(&state.db, &a[6], &a[7])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            servers::UPDATE_INT.set(interval),
            servers::TARGET_FILE.set(&a[2]),
            servers::SCRIPT.set(&a[3]),
            servers::TYPE.set(a[4].to_ascii_uppercase()),
            servers::ENABLE.set(enable),
            servers::ACL_TYPE.set(ace.type_str()),
            servers::ACL_ID.set(ace.id()),
            servers::MODTIME.set(now),
            servers::MODBY.set(who),
            servers::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

fn reset_server_error(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_service(state, &a[0])?;
    if !caller_on_service_ace(state, c, row) && !on_query_acl(state, c, "reset_server_error") {
        return Err(MrError::Perm);
    }
    let dfgen = state.db.table(servers::T).row(row)?.get(servers::DFGEN);
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            servers::HARDERROR.set(0),
            servers::ERRMSG.set(""),
            servers::DFCHECK.set(dfgen),
            servers::MODTIME.set(now),
            servers::MODBY.set(who),
            servers::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

fn set_server_internal_flags(
    state: &mut MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_service(state, &a[0])?;
    let dfgen = parse_int(&a[1])?;
    let dfcheck = parse_int(&a[2])?;
    let inprogress = parse_bool(&a[3])?;
    let harderror = parse_int(&a[4])?;
    // "The service modtime will NOT be set."
    state.db.update(
        row,
        &[
            servers::DFGEN.set(dfgen),
            servers::DFCHECK.set(dfcheck),
            servers::INPROGRESS.set(inprogress),
            servers::HARDERROR.set(harderror),
            servers::ERRMSG.set(&a[5]),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_server_info(
    state: &mut MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_service(state, &a[0])?;
    let r = state.db.table(servers::T).row(row)?;
    let name = r.render(servers::NAME);
    if r.get(servers::INPROGRESS) {
        return Err(MrError::InUse);
    }
    if !state
        .db
        .select(&Pred::EqCi(serverhosts::SERVICE, name))
        .is_empty()
    {
        return Err(MrError::InUse);
    }
    state.db.delete(servers::T, row)?;
    Ok(Vec::new())
}

const HOST_FIELDS: &[Col<serverhosts::R>] = &[
    serverhosts::ENABLE.erase(),
    serverhosts::OVERRIDE.erase(),
    serverhosts::SUCCESS.erase(),
    serverhosts::INPROGRESS.erase(),
    serverhosts::HOSTERROR.erase(),
    serverhosts::HOSTERRMSG.erase(),
    serverhosts::LTT.erase(),
    serverhosts::LTS.erase(),
    serverhosts::VALUE1.erase(),
    serverhosts::VALUE2.erase(),
    serverhosts::VALUE3.erase(),
    serverhosts::MODTIME.erase(),
    serverhosts::MODBY.erase(),
    serverhosts::MODWITH.erase(),
];

/// A serverhost's service and machine name, the head of every serverhost
/// tuple.
fn service_and_host(state: &MoiraState, r: Row<'_, serverhosts::R>) -> Vec<String> {
    let host = machine_name(state, r.get(serverhosts::MACH_ID));
    vec![r.render(serverhosts::SERVICE), host]
}

fn render_server_host(state: &MoiraState, row: RowId) -> MrResult<Vec<String>> {
    let r = state.db.table(serverhosts::T).row(row)?;
    let mut out = service_and_host(state, r);
    out.extend(HOST_FIELDS.iter().map(|&c| r.render(c)));
    Ok(out)
}

fn get_server_host_info(
    state: &MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    if !on_query_acl(state, c, "get_server_host_info")
        && !caller_on_named_service_ace(state, c, &a[0])
    {
        return Err(MrError::Perm);
    }
    let svc_pat = a[0].to_ascii_uppercase();
    let mut out = Vec::new();
    let hosts = state.db.table(serverhosts::T);
    for row in hosts.select(&Pred::name_match_ci(serverhosts::SERVICE, &svc_pat)) {
        let mach_id = hosts.row(row)?.get(serverhosts::MACH_ID);
        if moira_common::wildcard::matches_ci(&a[1], &machine_name(state, mach_id)) {
            out.push(render_server_host(state, row)?);
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn qualified_get_server_host(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let enable = parse_tristate(&a[1])?;
    let override_ = parse_tristate(&a[2])?;
    let success = parse_tristate(&a[3])?;
    let inprogress = parse_tristate(&a[4])?;
    let hosterror = parse_tristate(&a[5])?;
    let svc_pat = a[0].to_ascii_uppercase();
    let t = state.db.table(serverhosts::T);
    let mut out = Vec::new();
    for r in t.rows(&Pred::name_match_ci(serverhosts::SERVICE, &svc_pat)) {
        if matches_tristate(r.get(serverhosts::ENABLE), enable)
            && matches_tristate(r.get(serverhosts::OVERRIDE), override_)
            && matches_tristate(r.get(serverhosts::SUCCESS), success)
            && matches_tristate(r.get(serverhosts::INPROGRESS), inprogress)
            && matches_tristate(r.get(serverhosts::HOSTERROR) != 0, hosterror)
        {
            out.push(service_and_host(state, r));
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

/// The stored service name and the `mach_id` a (service, machine) pair of
/// arguments names.
fn service_and_mach_id(
    state: &MoiraState,
    service: &str,
    machine: &str,
) -> MrResult<(String, i64)> {
    let svc = state
        .db
        .table(servers::T)
        .row(one_service(state, service)?)?;
    Ok((svc.render(servers::NAME), one_machine_id(state, machine)?))
}

/// Finds a serverhost row by exact service + machine.
fn one_server_host(state: &MoiraState, service: &str, machine: &str) -> MrResult<RowId> {
    let (svc, mach_id) = service_and_mach_id(state, service, machine)?;
    state.db.select_exactly_one(
        &Pred::Eq(serverhosts::SERVICE, svc.into())
            .and(Pred::Eq(serverhosts::MACH_ID, mach_id.into())),
        MrError::Machine,
    )
}

fn add_server_host_info(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    if !on_query_acl(state, c, "add_server_host_info")
        && !caller_on_named_service_ace(state, c, &a[0])
    {
        return Err(MrError::Perm);
    }
    let (svc, mach_id) = service_and_mach_id(state, &a[0], &a[1])?;
    let enable = parse_bool(&a[2])?;
    let v1 = parse_int(&a[3])?;
    let v2 = parse_int(&a[4])?;
    let dup = !state
        .db
        .select(
            &Pred::Eq(serverhosts::SERVICE, svc.clone().into())
                .and(Pred::Eq(serverhosts::MACH_ID, mach_id.into())),
        )
        .is_empty();
    if dup {
        return Err(MrError::Exists);
    }
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        serverhosts::T,
        vec![
            svc.into(),
            mach_id.into(),
            enable.into(),
            false.into(),
            false.into(),
            false.into(),
            0.into(),
            "".into(),
            0.into(),
            0.into(),
            v1.into(),
            v2.into(),
            a[5].as_str().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn update_server_host_info(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    if !on_query_acl(state, c, "update_server_host_info")
        && !caller_on_named_service_ace(state, c, &a[0])
    {
        return Err(MrError::Perm);
    }
    let row = one_server_host(state, &a[0], &a[1])?;
    // "This query may only be executed when the inprogress bit is not
    // currently set."
    let host = state.db.table(serverhosts::T).row(row)?;
    if host.get(serverhosts::INPROGRESS) {
        return Err(MrError::InProgress);
    }
    let enable = parse_bool(&a[2])?;
    let v1 = parse_int(&a[3])?;
    let v2 = parse_int(&a[4])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            serverhosts::ENABLE.set(enable),
            serverhosts::VALUE1.set(v1),
            serverhosts::VALUE2.set(v2),
            serverhosts::VALUE3.set(&a[5]),
            serverhosts::MODTIME.set(now),
            serverhosts::MODBY.set(who),
            serverhosts::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

fn reset_server_host_error(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    if !on_query_acl(state, c, "reset_server_host_error")
        && !caller_on_named_service_ace(state, c, &a[0])
    {
        return Err(MrError::Perm);
    }
    let row = one_server_host(state, &a[0], &a[1])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            serverhosts::HOSTERROR.set(0),
            serverhosts::HOSTERRMSG.set(""),
            serverhosts::MODTIME.set(now),
            serverhosts::MODBY.set(who),
            serverhosts::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

fn set_server_host_override(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    if !on_query_acl(state, c, "set_server_host_override")
        && !caller_on_named_service_ace(state, c, &a[0])
    {
        return Err(MrError::Perm);
    }
    let row = one_server_host(state, &a[0], &a[1])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            serverhosts::OVERRIDE.set(true),
            serverhosts::MODTIME.set(now),
            serverhosts::MODBY.set(who),
            serverhosts::MODWITH.set(with),
        ],
    )?;
    // "… and start a new DCM running."
    state.dcm_trigger = true;
    Ok(Vec::new())
}

fn set_server_host_internal(
    state: &mut MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_server_host(state, &a[0], &a[1])?;
    let override_ = parse_bool(&a[2])?;
    let success = parse_bool(&a[3])?;
    let inprogress = parse_bool(&a[4])?;
    let hosterror = parse_int(&a[5])?;
    let ltt = parse_int(&a[7])?;
    let lts = parse_int(&a[8])?;
    // Modtime is NOT set — this is the DCM writing its own bookkeeping.
    state.db.update(
        row,
        &[
            serverhosts::OVERRIDE.set(override_),
            serverhosts::SUCCESS.set(success),
            serverhosts::INPROGRESS.set(inprogress),
            serverhosts::HOSTERROR.set(hosterror),
            serverhosts::HOSTERRMSG.set(&a[6]),
            serverhosts::LTT.set(ltt),
            serverhosts::LTS.set(lts),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_server_host_info(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    if !on_query_acl(state, c, "delete_server_host_info")
        && !caller_on_named_service_ace(state, c, &a[0])
    {
        return Err(MrError::Perm);
    }
    let row = one_server_host(state, &a[0], &a[1])?;
    let host = state.db.table(serverhosts::T).row(row)?;
    if host.get(serverhosts::INPROGRESS) {
        return Err(MrError::InUse);
    }
    state.db.delete(serverhosts::T, row)?;
    Ok(Vec::new())
}

fn get_server_locations(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let pat = a[0].to_ascii_uppercase();
    let t = state.db.table(serverhosts::T);
    let mut out = Vec::new();
    for r in t.rows(&Pred::name_match_ci(serverhosts::SERVICE, &pat)) {
        out.push(service_and_host(state, r));
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    out.sort();
    Ok(out)
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
        add_test_machine(&mut s, "KIWI.MIT.EDU");
        add_test_machine(&mut s, "SUOMI.MIT.EDU");
        (s, Registry::standard(), Caller::new("ops", "dcm_maint"))
    }

    #[test]
    fn server_crud() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_info",
            &[
                "hesiod",
                "360",
                "/tmp/hesiod.out",
                "/u1/sms/bin/hesiod.sh",
                "REPLICAT",
                "1",
                "LIST",
                "moira-admins",
            ],
        )
        .unwrap();
        let info = run(&mut s, &r, &ops, "get_server_info", &["HESIOD"]).unwrap();
        assert_eq!(info[0][0], "HESIOD", "stored uppercase");
        assert_eq!(info[0][1], "360");
        assert_eq!(info[0][6], "REPLICAT");
        assert_eq!(info[0][12], "moira-admins");
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_server_info",
                &["HESIOD", "360", "t", "s", "UNIQUE", "1", "NONE", "NONE",]
            )
            .unwrap_err(),
            MrError::Exists
        );
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_server_info",
                &["X", "10", "t", "s", "WEIRD", "1", "NONE", "NONE",]
            )
            .unwrap_err(),
            MrError::Type
        );
        run(
            &mut s,
            &r,
            &ops,
            "update_server_info",
            &[
                "hesiod",
                "720",
                "/tmp/h2.out",
                "script2",
                "REPLICAT",
                "0",
                "NONE",
                "NONE",
            ],
        )
        .unwrap();
        let info = run(&mut s, &r, &ops, "get_server_info", &["HESIOD"]).unwrap();
        assert_eq!(info[0][1], "720");
        assert_eq!(info[0][7], "0");
        run(&mut s, &r, &ops, "delete_server_info", &["HESIOD"]).unwrap();
    }

    #[test]
    fn serverhost_crud_and_locations() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_info",
            &[
                "HESIOD",
                "360",
                "/tmp/hesiod.out",
                "hes.sh",
                "REPLICAT",
                "1",
                "NONE",
                "NONE",
            ],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_host_info",
            &["HESIOD", "KIWI.MIT.EDU", "1", "0", "0", ""],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_host_info",
            &["HESIOD", "SUOMI.MIT.EDU", "1", "0", "0", ""],
        )
        .unwrap();
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_server_host_info",
                &["HESIOD", "KIWI.MIT.EDU", "1", "0", "0", "",]
            )
            .unwrap_err(),
            MrError::Exists
        );
        // Service with hosts cannot be deleted.
        assert_eq!(
            run(&mut s, &r, &ops, "delete_server_info", &["HESIOD"]).unwrap_err(),
            MrError::InUse
        );
        let locs = run(&mut s, &r, &ops, "get_server_locations", &["HESIOD"]).unwrap();
        assert_eq!(locs.len(), 2);
        assert_eq!(locs[0][1], "KIWI.MIT.EDU");
        // Anyone can ask where a service lives ("safe for this query's ACL
        // to be the list containing everybody").
        let anon = Caller::anonymous("sloc");
        assert!(run(&mut s, &r, &anon, "get_server_locations", &["*"]).is_ok());

        run(
            &mut s,
            &r,
            &ops,
            "update_server_host_info",
            &["HESIOD", "KIWI.MIT.EDU", "1", "7", "9", "cred-list"],
        )
        .unwrap();
        let hi = run(
            &mut s,
            &r,
            &ops,
            "get_server_host_info",
            &["HESIOD", "KIWI*"],
        )
        .unwrap();
        assert_eq!(hi[0][10], "7");
        assert_eq!(hi[0][12], "cred-list");
        run(
            &mut s,
            &r,
            &ops,
            "delete_server_host_info",
            &["HESIOD", "KIWI.MIT.EDU"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "delete_server_host_info",
            &["HESIOD", "SUOMI.MIT.EDU"],
        )
        .unwrap();
        run(&mut s, &r, &ops, "delete_server_info", &["HESIOD"]).unwrap();
    }

    #[test]
    fn internal_flags_do_not_touch_modtime() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_info",
            &[
                "NFS", "720", "/tmp/nfs", "nfs.sh", "UNIQUE", "1", "NONE", "NONE",
            ],
        )
        .unwrap();
        let before = run(&mut s, &r, &ops, "get_server_info", &["NFS"]).unwrap()[0][13].clone();
        s.db.clock().advance(1000);
        let root = Caller::root("dcm");
        run(
            &mut s,
            &r,
            &root,
            "set_server_internal_flags",
            &["NFS", "500", "600", "1", "0", ""],
        )
        .unwrap();
        let info = run(&mut s, &r, &ops, "get_server_info", &["NFS"]).unwrap();
        assert_eq!(info[0][4], "500");
        assert_eq!(info[0][5], "600");
        assert_eq!(info[0][8], "1");
        assert_eq!(info[0][13], before, "modtime untouched");
    }

    #[test]
    fn inprogress_guards_updates() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_info",
            &[
                "ZEPHYR", "1440", "/tmp/z", "z.sh", "REPLICAT", "1", "NONE", "NONE",
            ],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_host_info",
            &["ZEPHYR", "KIWI.MIT.EDU", "1", "0", "0", ""],
        )
        .unwrap();
        let root = Caller::root("dcm");
        run(
            &mut s,
            &r,
            &root,
            "set_server_host_internal",
            &["ZEPHYR", "KIWI.MIT.EDU", "0", "0", "1", "0", "", "0", "0"],
        )
        .unwrap();
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "update_server_host_info",
                &["ZEPHYR", "KIWI.MIT.EDU", "1", "0", "0", "",]
            )
            .unwrap_err(),
            MrError::InProgress
        );
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "delete_server_host_info",
                &["ZEPHYR", "KIWI.MIT.EDU"]
            )
            .unwrap_err(),
            MrError::InUse
        );
    }

    #[test]
    fn override_triggers_dcm() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_info",
            &[
                "MAIL", "1440", "/tmp/m", "m.sh", "UNIQUE", "1", "NONE", "NONE",
            ],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_host_info",
            &["MAIL", "KIWI.MIT.EDU", "1", "0", "0", ""],
        )
        .unwrap();
        assert!(!s.dcm_trigger);
        run(
            &mut s,
            &r,
            &ops,
            "set_server_host_override",
            &["MAIL", "KIWI.MIT.EDU"],
        )
        .unwrap();
        assert!(s.dcm_trigger);
        let hi = run(&mut s, &r, &ops, "get_server_host_info", &["MAIL", "*"]).unwrap();
        assert_eq!(hi[0][3], "1", "override set");
    }

    #[test]
    fn reset_error_flows() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_info",
            &["POP", "30", "/tmp/p", "p.sh", "UNIQUE", "1", "NONE", "NONE"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_host_info",
            &["POP", "KIWI.MIT.EDU", "1", "0", "500", ""],
        )
        .unwrap();
        let root = Caller::root("dcm");
        run(
            &mut s,
            &r,
            &root,
            "set_server_internal_flags",
            &["POP", "100", "200", "0", "77", "boom"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &root,
            "set_server_host_internal",
            &[
                "POP",
                "KIWI.MIT.EDU",
                "0",
                "0",
                "0",
                "88",
                "host boom",
                "10",
                "5",
            ],
        )
        .unwrap();
        let q = run(
            &mut s,
            &r,
            &ops,
            "qualified_get_server",
            &["TRUE", "FALSE", "TRUE"],
        )
        .unwrap();
        assert!(q.iter().any(|t| t[0] == "POP"));
        run(&mut s, &r, &ops, "reset_server_error", &["POP"]).unwrap();
        let info = run(&mut s, &r, &ops, "get_server_info", &["POP"]).unwrap();
        assert_eq!(info[0][9], "0");
        assert_eq!(info[0][5], "100", "dfcheck snapped back to dfgen");
        run(
            &mut s,
            &r,
            &ops,
            "reset_server_host_error",
            &["POP", "KIWI.MIT.EDU"],
        )
        .unwrap();
        let hi = run(&mut s, &r, &ops, "get_server_host_info", &["POP", "*"]).unwrap();
        assert_eq!(hi[0][6], "0");
    }

    #[test]
    fn qualified_server_host() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_info",
            &[
                "NFS", "720", "/tmp/n", "n.sh", "UNIQUE", "1", "NONE", "NONE",
            ],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_host_info",
            &["NFS", "KIWI.MIT.EDU", "1", "0", "0", ""],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_host_info",
            &["NFS", "SUOMI.MIT.EDU", "0", "0", "0", ""],
        )
        .unwrap();
        let hits = run(
            &mut s,
            &r,
            &ops,
            "qualified_get_server_host",
            &[
                "NFS", "TRUE", "DONTCARE", "DONTCARE", "DONTCARE", "DONTCARE",
            ],
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0][1], "KIWI.MIT.EDU");
    }

    #[test]
    fn service_ace_grants_host_management() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &["zoper", "7700", "/bin/csh", "L", "F", "", "1", "x", "STAFF"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_info",
            &[
                "ZEPHYR", "1440", "/tmp/z", "z.sh", "REPLICAT", "1", "USER", "zoper",
            ],
        )
        .unwrap();
        let z = Caller::new("zoper", "dcm_maint");
        // The ACE holder can manage hosts of their service…
        run(
            &mut s,
            &r,
            &z,
            "add_server_host_info",
            &["ZEPHYR", "KIWI.MIT.EDU", "1", "0", "0", ""],
        )
        .unwrap();
        assert!(run(&mut s, &r, &z, "get_server_info", &["ZEPHYR"]).is_ok());
        // …but not create services.
        assert_eq!(
            run(
                &mut s,
                &r,
                &z,
                "add_server_info",
                &["OTHER", "10", "t", "s", "UNIQUE", "1", "NONE", "NONE",]
            )
            .unwrap_err(),
            MrError::Perm
        );
    }
}
