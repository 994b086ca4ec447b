//! Miscellaneous queries (§7.0.7): host access, network services,
//! printcaps, aliases, values, and table statistics.

use moira_common::errors::{MrError, MrResult};
use moira_db::{Col, Pred, RowId};

use crate::ace::{render_ace, resolve_ace};
use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::schema::{alias, hostaccess, machine, printcap, services, values};
use crate::state::{Caller, MoiraState};

use super::helpers::*;

/// Registers the miscellaneous queries.
pub fn register(r: &mut Registry) {
    use AccessRule::*;
    use QueryKind::*;
    let qs: &[QueryHandle] = &[
        QueryHandle {
            name: "get_server_host_access",
            shortname: "gsha",
            kind: Retrieve,
            access: QueryAcl,
            args: &["machine"],
            returns: &[
                "machine", "ace_type", "ace_name", "modtime", "modby", "modwith",
            ],
            handler: Handler::Read(get_server_host_access),
        },
        QueryHandle {
            name: "add_server_host_access",
            shortname: "asha",
            kind: Append,
            access: QueryAcl,
            args: &["machine", "ace_type", "ace_name"],
            returns: &[],
            handler: Handler::Write(add_server_host_access),
        },
        QueryHandle {
            name: "update_server_host_access",
            shortname: "usha",
            kind: Update,
            access: QueryAcl,
            args: &["machine", "ace_type", "ace_name"],
            returns: &[],
            handler: Handler::Write(update_server_host_access),
        },
        QueryHandle {
            name: "delete_server_host_access",
            shortname: "dsha",
            kind: Delete,
            access: QueryAcl,
            args: &["machine"],
            returns: &[],
            handler: Handler::Write(delete_server_host_access),
        },
        QueryHandle {
            name: "get_service",
            shortname: "gsvc",
            kind: Retrieve,
            access: Public,
            args: &["service"],
            returns: &[
                "service", "protocol", "port", "desc", "modtime", "modby", "modwith",
            ],
            handler: Handler::Read(get_service),
        },
        QueryHandle {
            name: "add_service",
            shortname: "asvc",
            kind: Append,
            access: QueryAcl,
            args: &["service", "protocol", "port", "description"],
            returns: &[],
            handler: Handler::Write(add_service),
        },
        QueryHandle {
            name: "delete_service",
            shortname: "dsvc",
            kind: Delete,
            access: QueryAcl,
            args: &["service"],
            returns: &[],
            handler: Handler::Write(delete_service),
        },
        QueryHandle {
            name: "get_printcap",
            shortname: "gpcp",
            kind: Retrieve,
            access: Public,
            args: &["printer"],
            returns: &[
                "printer",
                "spool_host",
                "spool_directory",
                "rprinter",
                "comments",
                "modtime",
                "modby",
                "modwith",
            ],
            handler: Handler::Read(get_printcap),
        },
        QueryHandle {
            name: "add_printcap",
            shortname: "apcp",
            kind: Append,
            access: QueryAcl,
            args: &[
                "printer",
                "spool_host",
                "spool_directory",
                "rprinter",
                "comments",
            ],
            returns: &[],
            handler: Handler::Write(add_printcap),
        },
        QueryHandle {
            name: "delete_printcap",
            shortname: "dpcp",
            kind: Delete,
            access: QueryAcl,
            args: &["printer"],
            returns: &[],
            handler: Handler::Write(delete_printcap),
        },
        QueryHandle {
            name: "get_alias",
            shortname: "gali",
            kind: Retrieve,
            access: Public,
            args: &["name", "type", "translation"],
            returns: &["name", "type", "translation"],
            handler: Handler::Read(get_alias),
        },
        QueryHandle {
            name: "add_alias",
            shortname: "aali",
            kind: Append,
            access: QueryAcl,
            args: &["name", "type", "translation"],
            returns: &[],
            handler: Handler::Write(add_alias),
        },
        QueryHandle {
            name: "delete_alias",
            shortname: "dali",
            kind: Delete,
            access: QueryAcl,
            args: &["name", "type", "translation"],
            returns: &[],
            handler: Handler::Write(delete_alias),
        },
        QueryHandle {
            name: "get_value",
            shortname: "gval",
            kind: Retrieve,
            access: Public,
            args: &["variable"],
            returns: &["value"],
            handler: Handler::Read(get_value),
        },
        QueryHandle {
            name: "add_value",
            shortname: "aval",
            kind: Append,
            access: QueryAcl,
            args: &["variable", "value"],
            returns: &[],
            handler: Handler::Write(add_value),
        },
        QueryHandle {
            name: "update_value",
            shortname: "uval",
            kind: Update,
            access: QueryAcl,
            args: &["variable", "value"],
            returns: &[],
            handler: Handler::Write(update_value),
        },
        QueryHandle {
            name: "delete_value",
            shortname: "dval",
            kind: Delete,
            access: QueryAcl,
            args: &["variable"],
            returns: &[],
            handler: Handler::Write(delete_value),
        },
        QueryHandle {
            name: "get_all_table_stats",
            shortname: "gats",
            kind: Retrieve,
            access: Public,
            args: &[],
            returns: &[
                "table",
                "retrieves",
                "appends",
                "updates",
                "deletes",
                "modtime",
                "generation",
            ],
            handler: Handler::Read(get_all_table_stats),
        },
    ];
    for q in qs {
        r.register(*q);
    }
}

fn get_server_host_access(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    // Machine-major: the host pattern resolves through the machine name
    // index (a point lookup for the common exact-host call, a prefix range
    // for "BITSY*"), then each machine probes the unique hostaccess index.
    let mut out = Vec::new();
    let access = state.db.table(hostaccess::T);
    let names = Pred::name_match_ci(machine::NAME, &a[0]);
    for m in state.db.table(machine::T).rows(&names) {
        for r in access.rows(&Pred::Eq(
            hostaccess::MACH_ID,
            m.get(machine::MACH_ID).into(),
        )) {
            let (ty, name) = render_ace(
                &state.db,
                r.get(hostaccess::ACL_TYPE),
                r.get(hostaccess::ACL_ID),
            );
            out.push(vec![
                m.render(machine::NAME),
                ty,
                name,
                r.render(hostaccess::MODTIME),
                r.render(hostaccess::MODBY),
                r.render(hostaccess::MODWITH),
            ]);
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn add_server_host_access(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let mach_id = one_machine_id(state, &a[0])?;
    let ace = resolve_ace(&state.db, &a[1], &a[2])?;
    if state
        .db
        .table(hostaccess::T)
        .select_one(&Pred::Eq(hostaccess::MACH_ID, mach_id.into()))
        .is_some()
    {
        return Err(MrError::Exists);
    }
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        hostaccess::T,
        vec![
            mach_id.into(),
            ace.type_str().into(),
            ace.id().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn one_hostaccess(state: &MoiraState, machine: &str) -> MrResult<RowId> {
    let mach_id = one_machine_id(state, machine)?;
    state.db.select_exactly_one(
        &Pred::Eq(hostaccess::MACH_ID, mach_id.into()),
        MrError::NoMatch,
    )
}

fn update_server_host_access(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_hostaccess(state, &a[0])?;
    let ace = resolve_ace(&state.db, &a[1], &a[2])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            hostaccess::ACL_TYPE.set(ace.type_str()),
            hostaccess::ACL_ID.set(ace.id()),
            hostaccess::MODTIME.set(now),
            hostaccess::MODBY.set(who),
            hostaccess::MODWITH.set(with),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_server_host_access(
    state: &mut MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_hostaccess(state, &a[0])?;
    state.db.delete(hostaccess::T, row)?;
    Ok(Vec::new())
}

const SERVICE_FIELDS: [Col<services::R>; 7] = [
    services::NAME.erase(),
    services::PROTOCOL.erase(),
    services::PORT.erase(),
    services::DESC.erase(),
    services::MODTIME.erase(),
    services::MODBY.erase(),
    services::MODWITH.erase(),
];

fn get_service(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let ids = state.db.select(&Pred::name_match(services::NAME, &a[0]));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    ids.into_iter()
        .map(|id| project(state, id, &SERVICE_FIELDS))
        .collect()
}

fn add_service(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    check_chars(&a[0])?;
    no_wildcards(&a[0])?;
    check_type_alias(state, "protocol", &a[1], MrError::Type)?;
    let port = parse_int(&a[2])?;
    if state
        .db
        .table(services::T)
        .select_one(&Pred::Eq(services::NAME, a[0].as_str().into()))
        .is_some()
    {
        return Err(MrError::Exists);
    }
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        services::T,
        vec![
            a[0].as_str().into(),
            a[1].to_ascii_uppercase().into(),
            port.into(),
            a[3].as_str().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_service(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = exactly_one(state, services::NAME, &a[0], MrError::Service)?;
    state.db.delete(services::T, row)?;
    Ok(Vec::new())
}

fn get_printcap(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let ids = state.db.select(&Pred::name_match(printcap::NAME, &a[0]));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    let t = state.db.table(printcap::T);
    ids.into_iter()
        .map(|id| {
            let r = t.row(id)?;
            Ok(vec![
                r.render(printcap::NAME),
                machine_name(state, r.get(printcap::MACH_ID)),
                r.render(printcap::DIR),
                r.render(printcap::RP),
                r.render(printcap::COMMENTS),
                r.render(printcap::MODTIME),
                r.render(printcap::MODBY),
                r.render(printcap::MODWITH),
            ])
        })
        .collect()
}

fn add_printcap(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    check_chars(&a[0])?;
    no_wildcards(&a[0])?;
    if state
        .db
        .table(printcap::T)
        .select_one(&Pred::Eq(printcap::NAME, a[0].as_str().into()))
        .is_some()
    {
        return Err(MrError::Exists);
    }
    let mach_id = one_machine_id(state, &a[1])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        printcap::T,
        vec![
            a[0].as_str().into(),
            mach_id.into(),
            a[2].as_str().into(),
            a[3].as_str().into(),
            a[4].as_str().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_printcap(
    state: &mut MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = exactly_one(state, printcap::NAME, &a[0], MrError::NoMatch)?;
    state.db.delete(printcap::T, row)?;
    Ok(Vec::new())
}

fn get_alias(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let pred = Pred::name_match(alias::NAME, &a[0])
        .and(Pred::name_match_ci(alias::TYPE, &a[1]))
        .and(Pred::name_match(alias::TRANS, &a[2]));
    let ids = state.db.select(&pred);
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    let fields = [alias::NAME, alias::TYPE, alias::TRANS].map(Col::erase);
    ids.into_iter()
        .map(|id| project(state, id, &fields))
        .collect()
}

fn add_alias(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    check_chars(&a[0])?;
    // "The type must be a known type as recorded under alias in the alias
    // database."
    check_type_alias(state, "alias", &a[1], MrError::Type)?;
    let exact = Pred::Eq(alias::NAME, a[0].as_str().into())
        .and(Pred::Eq(alias::TYPE, a[1].to_ascii_uppercase().into()))
        .and(Pred::Eq(alias::TRANS, a[2].as_str().into()));
    if !state.db.select(&exact).is_empty() {
        return Err(MrError::Exists);
    }
    state.db.append(
        alias::T,
        vec![
            a[0].as_str().into(),
            a[1].to_ascii_uppercase().into(),
            a[2].as_str().into(),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_alias(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let exact = Pred::Eq(alias::NAME, a[0].as_str().into())
        .and(Pred::EqCi(alias::TYPE, a[1].clone()))
        .and(Pred::Eq(alias::TRANS, a[2].as_str().into()));
    let row = state.db.select_exactly_one(&exact, MrError::NoMatch)?;
    state.db.delete(alias::T, row)?;
    Ok(Vec::new())
}

fn get_value(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    match state.get_value(&a[0]) {
        Some(v) => Ok(vec![vec![v.to_string()]]),
        None => Err(MrError::NoMatch),
    }
}

fn add_value(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let value = parse_int(&a[1])?;
    if state.get_value(&a[0]).is_some() {
        return Err(MrError::Exists);
    }
    state.set_value(&a[0], value);
    Ok(Vec::new())
}

fn update_value(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let value = parse_int(&a[1])?;
    if state.get_value(&a[0]).is_none() {
        return Err(MrError::NoMatch);
    }
    state.set_value(&a[0], value);
    Ok(Vec::new())
}

fn delete_value(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = state
        .db
        .table(values::T)
        .select_one(&Pred::Eq(values::NAME, a[0].as_str().into()))
        .ok_or(MrError::NoMatch)?;
    state.db.delete(values::T, row)?;
    Ok(Vec::new())
}

fn get_all_table_stats(
    state: &MoiraState,
    _c: &Caller,
    _a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let mut out = Vec::new();
    for &id in crate::schema::RELATIONS {
        let stats = state.db.at(id).stats();
        out.push(vec![
            id.name().to_owned(),
            // "retrieves … unused now for performance reasons."
            "0".to_owned(),
            stats.appends.to_string(),
            stats.updates.to_string(),
            stats.deletes.to_string(),
            stats.modtime.to_string(),
            stats.generation.to_string(),
        ]);
    }
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
        add_test_machine(&mut s, "BITSY.MIT.EDU");
        (s, Registry::standard(), Caller::new("ops", "misc"))
    }

    #[test]
    fn hostaccess_lifecycle() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_server_host_access",
            &["BITSY.MIT.EDU", "LIST", "moira-admins"],
        )
        .unwrap();
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_server_host_access",
                &["BITSY.MIT.EDU", "NONE", "NONE"]
            )
            .unwrap_err(),
            MrError::Exists
        );
        let ha = run(&mut s, &r, &ops, "get_server_host_access", &["BITSY*"]).unwrap();
        assert_eq!(ha[0][1], "LIST");
        assert_eq!(ha[0][2], "moira-admins");
        run(
            &mut s,
            &r,
            &ops,
            "update_server_host_access",
            &["BITSY.MIT.EDU", "NONE", "NONE"],
        )
        .unwrap();
        let ha = run(&mut s, &r, &ops, "get_server_host_access", &["*"]).unwrap();
        assert_eq!(ha[0][1], "NONE");
        run(
            &mut s,
            &r,
            &ops,
            "delete_server_host_access",
            &["BITSY.MIT.EDU"],
        )
        .unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_server_host_access", &["*"]).unwrap_err(),
            MrError::NoMatch
        );
    }

    #[test]
    fn services_lifecycle() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_service",
            &["smtp", "tcp", "25", "mail transfer"],
        )
        .unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "add_service", &["smtp", "TCP", "25", ""]).unwrap_err(),
            MrError::Exists
        );
        assert_eq!(
            run(&mut s, &r, &ops, "add_service", &["x", "IPX", "1", ""]).unwrap_err(),
            MrError::Type
        );
        assert_eq!(
            run(&mut s, &r, &ops, "add_service", &["x", "udp", "porty", ""]).unwrap_err(),
            MrError::Integer
        );
        let svc = run(&mut s, &r, &ops, "get_service", &["smtp"]).unwrap();
        assert_eq!(svc[0][1], "TCP");
        assert_eq!(svc[0][2], "25");
        run(&mut s, &r, &ops, "delete_service", &["smtp"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "delete_service", &["smtp"]).unwrap_err(),
            MrError::Service
        );
    }

    #[test]
    fn printcap_lifecycle() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_printcap",
            &[
                "linus",
                "BITSY.MIT.EDU",
                "/usr/spool/printer/linus",
                "linus",
                "E40 lw",
            ],
        )
        .unwrap();
        let p = run(&mut s, &r, &ops, "get_printcap", &["lin*"]).unwrap();
        assert_eq!(p[0][1], "BITSY.MIT.EDU");
        assert_eq!(p[0][3], "linus");
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_printcap",
                &["linus", "BITSY.MIT.EDU", "d", "r", ""]
            )
            .unwrap_err(),
            MrError::Exists
        );
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_printcap",
                &["x", "GHOST", "d", "r", ""]
            )
            .unwrap_err(),
            MrError::Machine
        );
        run(&mut s, &r, &ops, "delete_printcap", &["linus"]).unwrap();
    }

    #[test]
    fn alias_lifecycle_allows_duplicate_names() {
        let (mut s, r, ops) = setup();
        run(&mut s, &r, &ops, "add_alias", &["lp", "PRINTER", "linus"]).unwrap();
        run(&mut s, &r, &ops, "add_alias", &["lp", "PRINTER", "helios"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "add_alias", &["lp", "PRINTER", "linus"]).unwrap_err(),
            MrError::Exists
        );
        assert_eq!(
            run(&mut s, &r, &ops, "add_alias", &["x", "ROBOT", "y"]).unwrap_err(),
            MrError::Type
        );
        let hits = run(&mut s, &r, &ops, "get_alias", &["lp", "PRINTER", "*"]).unwrap();
        assert_eq!(hits.len(), 2);
        // Deleting needs all three to match exactly one.
        assert_eq!(
            run(&mut s, &r, &ops, "delete_alias", &["lp", "PRINTER", "nope"]).unwrap_err(),
            MrError::NoMatch
        );
        run(
            &mut s,
            &r,
            &ops,
            "delete_alias",
            &["lp", "PRINTER", "linus"],
        )
        .unwrap();
        let hits = run(&mut s, &r, &ops, "get_alias", &["lp", "PRINTER", "*"]).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn values_lifecycle() {
        let (mut s, r, ops) = setup();
        run(&mut s, &r, &ops, "add_value", &["max_pop", "500"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "add_value", &["max_pop", "600"]).unwrap_err(),
            MrError::Exists
        );
        assert_eq!(
            run(&mut s, &r, &ops, "get_value", &["max_pop"]).unwrap()[0][0],
            "500"
        );
        run(&mut s, &r, &ops, "update_value", &["max_pop", "600"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_value", &["max_pop"]).unwrap()[0][0],
            "600"
        );
        run(&mut s, &r, &ops, "delete_value", &["max_pop"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_value", &["max_pop"]).unwrap_err(),
            MrError::NoMatch
        );
        // The seeded dcm_enable is readable by anybody.
        let anon = Caller::anonymous("dcm");
        assert_eq!(
            run(&mut s, &r, &anon, "get_value", &["dcm_enable"]).unwrap()[0][0],
            "1"
        );
    }

    #[test]
    fn table_stats_reflect_activity() {
        let (mut s, r, ops) = setup();
        let before = run(&mut s, &r, &ops, "get_all_table_stats", &[]).unwrap();
        let machine_before: u64 = before
            .iter()
            .find(|t| t[0] == "machine")
            .map(|t| t[2].parse().unwrap())
            .unwrap();
        run(&mut s, &r, &ops, "add_machine", &["NEWBOX", "VAX"]).unwrap();
        let after = run(&mut s, &r, &ops, "get_all_table_stats", &[]).unwrap();
        let machine_after: u64 = after
            .iter()
            .find(|t| t[0] == "machine")
            .map(|t| t[2].parse().unwrap())
            .unwrap();
        assert_eq!(machine_after, machine_before + 1);
        assert_eq!(after.len(), crate::schema::RELATIONS.len());
        // The trailing generation column equals appends+updates+deletes.
        for row in &after {
            let (a, u, d): (u64, u64, u64) = (
                row[2].parse().unwrap(),
                row[3].parse().unwrap(),
                row[4].parse().unwrap(),
            );
            let generation: u64 = row[6].parse().unwrap();
            assert_eq!(generation, a + u + d, "table {}", row[0]);
        }
    }
}
