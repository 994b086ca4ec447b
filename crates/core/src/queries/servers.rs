//! Server and server-host queries (§7.0.4) — the DCM's control surface.

use moira_common::errors::{MrError, MrResult};
use moira_db::{Col, Pred, RowId, Value};

use crate::ace::{render_ace, resolve_ace};
use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::schema::{machine, serverhosts, servers};
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

fn render_server(state: &MoiraState, row: RowId) -> Vec<String> {
    let t = state.db.table(servers::T);
    let (ace_type, ace_name) = render_ace(
        &state.db,
        t.cell(row, servers::ACL_TYPE).as_str(),
        t.cell(row, servers::ACL_ID).as_int(),
    );
    vec![
        t.cell(row, servers::NAME).render(),
        t.cell(row, servers::UPDATE_INT).render(),
        t.cell(row, servers::TARGET_FILE).render(),
        t.cell(row, servers::SCRIPT).render(),
        t.cell(row, servers::DFGEN).render(),
        t.cell(row, servers::DFCHECK).render(),
        t.cell(row, servers::TYPE).render(),
        t.cell(row, servers::ENABLE).render(),
        t.cell(row, servers::INPROGRESS).render(),
        t.cell(row, servers::HARDERROR).render(),
        t.cell(row, servers::ERRMSG).render(),
        ace_type,
        ace_name,
        t.cell(row, servers::MODTIME).render(),
        t.cell(row, servers::MODBY).render(),
        t.cell(row, servers::MODWITH).render(),
    ]
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
    Ok(ids.into_iter().map(|id| render_server(state, id)).collect())
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
    let t = state.db.table(servers::T);
    let mut out = Vec::new();
    for (row, _) in t.iter() {
        let he = t.cell(row, servers::HARDERROR).as_int() != 0;
        if matches_tristate(t.cell(row, servers::ENABLE), enable)
            && matches_tristate(t.cell(row, servers::INPROGRESS), inprogress)
            && harderror.is_none_or(|w| he == w)
        {
            out.push(vec![t.cell(row, servers::NAME).render()]);
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
            (servers::UPDATE_INT, interval.into()),
            (servers::TARGET_FILE, a[2].as_str().into()),
            (servers::SCRIPT, a[3].as_str().into()),
            (servers::TYPE, a[4].to_ascii_uppercase().into()),
            (servers::ENABLE, Value::Bool(enable)),
            (servers::ACL_TYPE, ace.type_str().into()),
            (servers::ACL_ID, ace.id().into()),
            (servers::MODTIME, now.into()),
            (servers::MODBY, who.into()),
            (servers::MODWITH, with.into()),
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
    let dfgen = state.db.cell(row, servers::DFGEN).as_int();
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (servers::HARDERROR, 0.into()),
            (servers::ERRMSG, "".into()),
            (servers::DFCHECK, dfgen.into()),
            (servers::MODTIME, now.into()),
            (servers::MODBY, who.into()),
            (servers::MODWITH, with.into()),
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
            (servers::DFGEN, dfgen.into()),
            (servers::DFCHECK, dfcheck.into()),
            (servers::INPROGRESS, Value::Bool(inprogress)),
            (servers::HARDERROR, harderror.into()),
            (servers::ERRMSG, a[5].as_str().into()),
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
    let name = state.db.cell(row, servers::NAME).render();
    if state.db.cell(row, servers::INPROGRESS).as_bool() {
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
    serverhosts::ENABLE,
    serverhosts::OVERRIDE,
    serverhosts::SUCCESS,
    serverhosts::INPROGRESS,
    serverhosts::HOSTERROR,
    serverhosts::HOSTERRMSG,
    serverhosts::LTT,
    serverhosts::LTS,
    serverhosts::VALUE1,
    serverhosts::VALUE2,
    serverhosts::VALUE3,
    serverhosts::MODTIME,
    serverhosts::MODBY,
    serverhosts::MODWITH,
];

fn render_server_host(state: &MoiraState, row: RowId) -> Vec<String> {
    let t = state.db.table(serverhosts::T);
    let mut out = vec![
        t.cell(row, serverhosts::SERVICE).render(),
        machine_name(state, t.cell(row, serverhosts::MACH_ID).as_int()),
    ];
    out.extend(project(state, row, HOST_FIELDS));
    out
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
    for row in state
        .db
        .select(&Pred::name_match_ci(serverhosts::SERVICE, &svc_pat))
    {
        let mach = machine_name(state, state.db.cell(row, serverhosts::MACH_ID).as_int());
        if moira_common::wildcard::matches_ci(&a[1], &mach) {
            out.push(render_server_host(state, row));
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
    for row in t.select(&Pred::name_match_ci(serverhosts::SERVICE, &svc_pat)) {
        let he = t.cell(row, serverhosts::HOSTERROR).as_int() != 0;
        if matches_tristate(t.cell(row, serverhosts::ENABLE), enable)
            && matches_tristate(t.cell(row, serverhosts::OVERRIDE), override_)
            && matches_tristate(t.cell(row, serverhosts::SUCCESS), success)
            && matches_tristate(t.cell(row, serverhosts::INPROGRESS), inprogress)
            && hosterror.is_none_or(|w| he == w)
        {
            out.push(vec![
                t.cell(row, serverhosts::SERVICE).render(),
                machine_name(state, t.cell(row, serverhosts::MACH_ID).as_int()),
            ]);
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

/// Finds a serverhost row by exact service + machine.
fn one_server_host(state: &MoiraState, service: &str, machine: &str) -> MrResult<RowId> {
    let svc_row = one_service(state, service)?;
    let svc = state.db.cell(svc_row, servers::NAME).render();
    let mach_row = one_machine(state, machine)?;
    let mach_id = state.db.cell(mach_row, machine::MACH_ID).as_int();
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
    let svc_row = one_service(state, &a[0])?;
    let svc = state.db.cell(svc_row, servers::NAME).render();
    let mach_row = one_machine(state, &a[1])?;
    let mach_id = state.db.cell(mach_row, machine::MACH_ID).as_int();
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
    if state.db.cell(row, serverhosts::INPROGRESS).as_bool() {
        return Err(MrError::InProgress);
    }
    let enable = parse_bool(&a[2])?;
    let v1 = parse_int(&a[3])?;
    let v2 = parse_int(&a[4])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (serverhosts::ENABLE, Value::Bool(enable)),
            (serverhosts::VALUE1, v1.into()),
            (serverhosts::VALUE2, v2.into()),
            (serverhosts::VALUE3, a[5].as_str().into()),
            (serverhosts::MODTIME, now.into()),
            (serverhosts::MODBY, who.into()),
            (serverhosts::MODWITH, with.into()),
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
            (serverhosts::HOSTERROR, 0.into()),
            (serverhosts::HOSTERRMSG, "".into()),
            (serverhosts::MODTIME, now.into()),
            (serverhosts::MODBY, who.into()),
            (serverhosts::MODWITH, with.into()),
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
            (serverhosts::OVERRIDE, true.into()),
            (serverhosts::MODTIME, now.into()),
            (serverhosts::MODBY, who.into()),
            (serverhosts::MODWITH, with.into()),
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
            (serverhosts::OVERRIDE, Value::Bool(override_)),
            (serverhosts::SUCCESS, Value::Bool(success)),
            (serverhosts::INPROGRESS, Value::Bool(inprogress)),
            (serverhosts::HOSTERROR, hosterror.into()),
            (serverhosts::HOSTERRMSG, a[6].as_str().into()),
            (serverhosts::LTT, ltt.into()),
            (serverhosts::LTS, lts.into()),
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
    if state.db.cell(row, serverhosts::INPROGRESS).as_bool() {
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
    for row in t.select(&Pred::name_match_ci(serverhosts::SERVICE, &pat)) {
        out.push(vec![
            t.cell(row, serverhosts::SERVICE).render(),
            machine_name(state, t.cell(row, serverhosts::MACH_ID).as_int()),
        ]);
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
