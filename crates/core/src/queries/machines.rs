//! Machine, cluster, and service-cluster queries (§7.0.2).

use moira_common::errors::{MrError, MrResult};
use moira_common::strutil::canonicalize_hostname;
use moira_db::{Col, Pred};

use crate::ids::alloc_id;
use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::schema::{
    cluster, filesys, hostaccess, machine, mcmap, nfsphys, printcap, serverhosts, svc, users,
};
use crate::state::{Caller, MoiraState};

use super::helpers::*;

const MACHINE_FIELDS: [Col<machine::R>; 5] = [
    machine::NAME,
    machine::TYPE,
    machine::MODTIME,
    machine::MODBY,
    machine::MODWITH,
];
const MACHINE_NAMES: [&str; 5] = Col::names(&MACHINE_FIELDS);
const CLUSTER_FIELDS: [Col<cluster::R>; 6] = [
    cluster::NAME,
    cluster::DESC,
    cluster::LOCATION,
    cluster::MODTIME,
    cluster::MODBY,
    cluster::MODWITH,
];
const CLUSTER_NAMES: [&str; 6] = Col::names(&CLUSTER_FIELDS);

/// Registers the machine and cluster queries.
pub fn register(r: &mut Registry) {
    use AccessRule::*;
    use QueryKind::*;
    let qs: &[QueryHandle] = &[
        QueryHandle {
            name: "get_machine",
            shortname: "gmac",
            kind: Retrieve,
            access: Public,
            args: &["name"],
            returns: &MACHINE_NAMES,
            handler: Handler::Read(get_machine),
        },
        QueryHandle {
            name: "add_machine",
            shortname: "amac",
            kind: Append,
            access: QueryAcl,
            args: &["name", "type"],
            returns: &[],
            handler: Handler::Write(add_machine),
        },
        QueryHandle {
            name: "update_machine",
            shortname: "umac",
            kind: Update,
            access: QueryAcl,
            args: &["name", "newname", "type"],
            returns: &[],
            handler: Handler::Write(update_machine),
        },
        QueryHandle {
            name: "delete_machine",
            shortname: "dmac",
            kind: Delete,
            access: QueryAcl,
            args: &["name"],
            returns: &[],
            handler: Handler::Write(delete_machine),
        },
        QueryHandle {
            name: "get_cluster",
            shortname: "gclu",
            kind: Retrieve,
            access: Public,
            args: &["name"],
            returns: &CLUSTER_NAMES,
            handler: Handler::Read(get_cluster),
        },
        QueryHandle {
            name: "add_cluster",
            shortname: "aclu",
            kind: Append,
            access: QueryAcl,
            args: &["name", "description", "location"],
            returns: &[],
            handler: Handler::Write(add_cluster),
        },
        QueryHandle {
            name: "update_cluster",
            shortname: "uclu",
            kind: Update,
            access: QueryAcl,
            args: &["name", "newname", "description", "location"],
            returns: &[],
            handler: Handler::Write(update_cluster),
        },
        QueryHandle {
            name: "delete_cluster",
            shortname: "dclu",
            kind: Delete,
            access: QueryAcl,
            args: &["name"],
            returns: &[],
            handler: Handler::Write(delete_cluster),
        },
        QueryHandle {
            name: "get_machine_to_cluster_map",
            shortname: "gmcm",
            kind: Retrieve,
            access: Public,
            args: &["machine", "cluster"],
            returns: &["machine", "cluster"],
            handler: Handler::Read(get_machine_to_cluster_map),
        },
        QueryHandle {
            name: "add_machine_to_cluster",
            shortname: "amtc",
            kind: Append,
            access: QueryAcl,
            args: &["machine", "cluster"],
            returns: &[],
            handler: Handler::Write(add_machine_to_cluster),
        },
        QueryHandle {
            name: "delete_machine_from_cluster",
            shortname: "dmfc",
            kind: Delete,
            access: QueryAcl,
            args: &["machine", "cluster"],
            returns: &[],
            handler: Handler::Write(delete_machine_from_cluster),
        },
        QueryHandle {
            name: "get_cluster_data",
            shortname: "gcld",
            kind: Retrieve,
            access: Public,
            args: &["cluster", "label"],
            returns: &["cluster", "label", "data"],
            handler: Handler::Read(get_cluster_data),
        },
        QueryHandle {
            name: "add_cluster_data",
            shortname: "acld",
            kind: Append,
            access: QueryAcl,
            args: &["cluster", "label", "data"],
            returns: &[],
            handler: Handler::Write(add_cluster_data),
        },
        QueryHandle {
            name: "delete_cluster_data",
            shortname: "dcld",
            kind: Delete,
            access: QueryAcl,
            args: &["cluster", "label", "data"],
            returns: &[],
            handler: Handler::Write(delete_cluster_data),
        },
    ];
    for q in qs {
        r.register(*q);
    }
}

fn get_machine(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let ids = state
        .db
        .select(&Pred::name_match_ci(machine::NAME, a[0].trim()));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(ids
        .into_iter()
        .map(|id| project(state, id, &MACHINE_FIELDS))
        .collect())
}

fn add_machine(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let name = canonicalize_hostname(&a[0]);
    check_chars(&name)?;
    no_wildcards(&name)?;
    if name.is_empty() {
        return Err(MrError::BadChar);
    }
    check_type_alias(state, "mach_type", &a[1], MrError::Type)?;
    if state
        .db
        .table(machine::T)
        .select_one(&Pred::Eq(machine::NAME, name.clone().into()))
        .is_some()
    {
        return Err(MrError::NotUnique);
    }
    let mach_id = alloc_id(state, "mach_id")?;
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        machine::T,
        vec![
            name.into(),
            mach_id.into(),
            a[1].to_ascii_uppercase().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn update_machine(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_machine(state, &a[0])?;
    let newname = canonicalize_hostname(&a[1]);
    check_chars(&newname)?;
    no_wildcards(&newname)?;
    check_type_alias(state, "mach_type", &a[2], MrError::Type)?;
    let current = state.db.cell(row, machine::NAME).as_str().to_owned();
    if newname != current
        && state
            .db
            .table(machine::T)
            .select_one(&Pred::Eq(machine::NAME, newname.clone().into()))
            .is_some()
    {
        return Err(MrError::NotUnique);
    }
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (machine::NAME, newname.into()),
            (machine::TYPE, a[2].to_ascii_uppercase().into()),
            (machine::MODTIME, now.into()),
            (machine::MODBY, who.into()),
            (machine::MODWITH, with.into()),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_machine(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_machine(state, &a[0])?;
    let mach_id = state.db.cell(row, machine::MACH_ID).as_int();
    // "A machine that is in use (post office, file system, printer spooling
    // host, server_host_access, or DCM service update) cannot be deleted."
    let referenced = !state
        .db
        .select(&Pred::Eq(users::POP_ID, mach_id.into()).and(Pred::Eq(users::POTYPE, "POP".into())))
        .is_empty()
        || !state
            .db
            .select(&Pred::Eq(filesys::MACH_ID, mach_id.into()))
            .is_empty()
        || !state
            .db
            .select(&Pred::Eq(printcap::MACH_ID, mach_id.into()))
            .is_empty()
        || !state
            .db
            .select(&Pred::Eq(hostaccess::MACH_ID, mach_id.into()))
            .is_empty()
        || !state
            .db
            .select(&Pred::Eq(serverhosts::MACH_ID, mach_id.into()))
            .is_empty()
        || !state
            .db
            .select(&Pred::Eq(nfsphys::MACH_ID, mach_id.into()))
            .is_empty();
    if referenced {
        return Err(MrError::InUse);
    }
    state
        .db
        .delete_where(&Pred::Eq(mcmap::MACH_ID, mach_id.into()));
    state.db.delete(machine::T, row)?;
    Ok(Vec::new())
}

fn get_cluster(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let ids = state.db.select(&Pred::name_match(cluster::NAME, &a[0]));
    if ids.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(ids
        .into_iter()
        .map(|id| project(state, id, &CLUSTER_FIELDS))
        .collect())
}

fn add_cluster(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    check_chars(&a[0])?;
    no_wildcards(&a[0])?;
    if a[0].is_empty() {
        return Err(MrError::BadChar);
    }
    if state
        .db
        .table(cluster::T)
        .select_one(&Pred::Eq(cluster::NAME, a[0].as_str().into()))
        .is_some()
    {
        return Err(MrError::NotUnique);
    }
    let clu_id = alloc_id(state, "clu_id")?;
    let (now, who, with) = mod_fields(state, c);
    state.db.append(
        cluster::T,
        vec![
            a[0].as_str().into(),
            clu_id.into(),
            a[1].as_str().into(),
            a[2].as_str().into(),
            now.into(),
            who.into(),
            with.into(),
        ],
    )?;
    Ok(Vec::new())
}

fn update_cluster(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_cluster(state, &a[0])?;
    check_chars(&a[1])?;
    no_wildcards(&a[1])?;
    let current = state.db.cell(row, cluster::NAME).as_str().to_owned();
    if a[1] != current
        && state
            .db
            .table(cluster::T)
            .select_one(&Pred::Eq(cluster::NAME, a[1].as_str().into()))
            .is_some()
    {
        return Err(MrError::NotUnique);
    }
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (cluster::NAME, a[1].as_str().into()),
            (cluster::DESC, a[2].as_str().into()),
            (cluster::LOCATION, a[3].as_str().into()),
            (cluster::MODTIME, now.into()),
            (cluster::MODBY, who.into()),
            (cluster::MODWITH, with.into()),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_cluster(state: &mut MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let row = one_cluster(state, &a[0])?;
    let clu_id = state.db.cell(row, cluster::CLU_ID).as_int();
    if !state
        .db
        .select(&Pred::Eq(mcmap::CLU_ID, clu_id.into()))
        .is_empty()
    {
        return Err(MrError::InUse);
    }
    // "Any service cluster information assigned to the cluster will be
    // deleted."
    state.db.delete_where(&Pred::Eq(svc::CLU_ID, clu_id.into()));
    state.db.delete(cluster::T, row)?;
    Ok(Vec::new())
}

fn get_machine_to_cluster_map(
    state: &MoiraState,
    _c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    // Machine-major: the name pattern resolves through the machine index
    // (point or prefix range), and each machine's memberships come from the
    // indexed mcmap bucket — no pass over the full map.
    let mut out = Vec::new();
    for mrow in state.db.select(&Pred::name_match_ci(machine::NAME, &a[0])) {
        let mach_id = state.db.cell(mrow, machine::MACH_ID).as_int();
        let mname = state.db.cell(mrow, machine::NAME).render();
        for row in state.db.select(&Pred::Eq(mcmap::MACH_ID, mach_id.into())) {
            let clu_id = state.db.cell(row, mcmap::CLU_ID).as_int();
            let cname = state
                .db
                .table(cluster::T)
                .select_one(&Pred::Eq(cluster::CLU_ID, clu_id.into()))
                .map(|r| state.db.cell(r, cluster::NAME).render())
                .unwrap_or_default();
            if moira_common::wildcard::matches(&a[1], &cname) {
                out.push(vec![mname.clone(), cname]);
            }
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn mach_and_cluster_ids(state: &MoiraState, machine: &str, cluster: &str) -> MrResult<(i64, i64)> {
    let mrow = one_machine(state, machine)?;
    let crow = one_cluster(state, cluster)?;
    Ok((
        state.db.cell(mrow, machine::MACH_ID).as_int(),
        state.db.cell(crow, cluster::CLU_ID).as_int(),
    ))
}

fn touch_machine(state: &mut MoiraState, c: &Caller, mach_id: i64) -> MrResult<()> {
    let row = state.db.select_exactly_one(
        &Pred::Eq(machine::MACH_ID, mach_id.into()),
        MrError::Machine,
    )?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (machine::MODTIME, now.into()),
            (machine::MODBY, who.into()),
            (machine::MODWITH, with.into()),
        ],
    )?;
    Ok(())
}

fn add_machine_to_cluster(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let (mach_id, clu_id) = mach_and_cluster_ids(state, &a[0], &a[1])?;
    let dup = !state
        .db
        .select(
            &Pred::Eq(mcmap::MACH_ID, mach_id.into()).and(Pred::Eq(mcmap::CLU_ID, clu_id.into())),
        )
        .is_empty();
    if dup {
        return Err(MrError::Exists);
    }
    state
        .db
        .append(mcmap::T, vec![mach_id.into(), clu_id.into()])?;
    touch_machine(state, c, mach_id)?;
    Ok(Vec::new())
}

fn delete_machine_from_cluster(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let (mach_id, clu_id) = mach_and_cluster_ids(state, &a[0], &a[1])?;
    let gone = state.db.delete_where(
        &Pred::Eq(mcmap::MACH_ID, mach_id.into()).and(Pred::Eq(mcmap::CLU_ID, clu_id.into())),
    );
    if gone == 0 {
        return Err(MrError::NoMatch);
    }
    touch_machine(state, c, mach_id)?;
    Ok(Vec::new())
}

fn get_cluster_data(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    // Cluster-major: the cluster pattern resolves through the cluster name
    // index, and each cluster's data rows come from the indexed svc bucket.
    let mut out = Vec::new();
    for crow in state.db.select(&Pred::name_match(cluster::NAME, &a[0])) {
        let clu_id = state.db.cell(crow, cluster::CLU_ID).as_int();
        let cname = state.db.cell(crow, cluster::NAME).render();
        for row in state.db.select(&Pred::Eq(svc::CLU_ID, clu_id.into())) {
            let label = state.db.cell(row, svc::SERV_LABEL).render();
            if moira_common::wildcard::matches(&a[1], &label) {
                let data = state.db.cell(row, svc::SERV_CLUSTER).render();
                out.push(vec![cname.clone(), label, data]);
            }
        }
    }
    if out.is_empty() {
        return Err(MrError::NoMatch);
    }
    Ok(out)
}

fn add_cluster_data(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_cluster(state, &a[0])?;
    let clu_id = state.db.cell(row, cluster::CLU_ID).as_int();
    check_type_alias(state, "slabel", &a[1], MrError::Type)?;
    state.db.append(
        svc::T,
        vec![clu_id.into(), a[1].as_str().into(), a[2].as_str().into()],
    )?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (cluster::MODTIME, now.into()),
            (cluster::MODBY, who.into()),
            (cluster::MODWITH, with.into()),
        ],
    )?;
    Ok(Vec::new())
}

fn delete_cluster_data(
    state: &mut MoiraState,
    c: &Caller,
    a: &[String],
) -> MrResult<Vec<Vec<String>>> {
    let row = one_cluster(state, &a[0])?;
    let clu_id = state.db.cell(row, cluster::CLU_ID).as_int();
    let pred = Pred::Eq(svc::CLU_ID, clu_id.into())
        .and(Pred::Eq(svc::SERV_LABEL, a[1].as_str().into()))
        .and(Pred::Eq(svc::SERV_CLUSTER, a[2].as_str().into()));
    let matches = state.db.select(&pred);
    if matches.len() != 1 {
        return Err(MrError::NotUnique);
    }
    state.db.delete(svc::T, matches[0])?;
    let (now, who, with) = mod_fields(state, c);
    state.db.update(
        row,
        &[
            (cluster::MODTIME, now.into()),
            (cluster::MODBY, who.into()),
            (cluster::MODWITH, with.into()),
        ],
    )?;
    Ok(Vec::new())
}

/// Resolves the union of cluster data for a machine, following the paper's
/// pseudo-cluster rule: a machine in several clusters sees the union of
/// their data. Used by the Hesiod cluster.db generator.
pub fn cluster_data_for_machine(state: &MoiraState, mach_id: i64) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for mrow in state.db.select(&Pred::Eq(mcmap::MACH_ID, mach_id.into())) {
        let clu_id = state.db.cell(mrow, mcmap::CLU_ID).as_int();
        for srow in state.db.select(&Pred::Eq(svc::CLU_ID, clu_id.into())) {
            out.push((
                state.db.cell(srow, svc::SERV_LABEL).render(),
                state.db.cell(srow, svc::SERV_CLUSTER).render(),
            ));
        }
    }
    out.sort();
    out.dedup();
    out
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
        let (s, _) = state_with_admin("ops");
        (s, Registry::standard(), Caller::new("ops", "machmaint"))
    }

    #[test]
    fn machine_crud_uppercases() {
        let (mut s, r, ops) = setup();
        run(&mut s, &r, &ops, "add_machine", &["kiwi.mit.edu", "vax"]).unwrap();
        let m = run(&mut s, &r, &ops, "get_machine", &["KIWI.*"]).unwrap();
        assert_eq!(m[0][0], "KIWI.MIT.EDU");
        assert_eq!(m[0][1], "VAX");
        // Case-insensitive exact lookup too.
        assert!(run(&mut s, &r, &ops, "get_machine", &["kiwi.mit.edu"]).is_ok());
        assert_eq!(
            run(&mut s, &r, &ops, "add_machine", &["KIWI.MIT.EDU", "RT"]).unwrap_err(),
            MrError::NotUnique
        );
        assert_eq!(
            run(&mut s, &r, &ops, "add_machine", &["X", "TOASTER"]).unwrap_err(),
            MrError::Type
        );
        run(
            &mut s,
            &r,
            &ops,
            "update_machine",
            &["KIWI.MIT.EDU", "suomi.mit.edu", "RT"],
        )
        .unwrap();
        let m = run(&mut s, &r, &ops, "get_machine", &["SUOMI.MIT.EDU"]).unwrap();
        assert_eq!(m[0][1], "RT");
        run(&mut s, &r, &ops, "delete_machine", &["SUOMI.MIT.EDU"]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_machine", &["SUOMI.MIT.EDU"]).unwrap_err(),
            MrError::NoMatch
        );
    }

    #[test]
    fn machine_in_use_cannot_be_deleted() {
        let (mut s, r, ops) = setup();
        run(&mut s, &r, &ops, "add_machine", &["PRINTHOST", "VAX"]).unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_printcap",
            &[
                "lw1",
                "PRINTHOST",
                "/usr/spool/printer/lw1",
                "lw1",
                "test printer",
            ],
        )
        .unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "delete_machine", &["PRINTHOST"]).unwrap_err(),
            MrError::InUse
        );
        run(&mut s, &r, &ops, "delete_printcap", &["lw1"]).unwrap();
        run(&mut s, &r, &ops, "delete_machine", &["PRINTHOST"]).unwrap();
    }

    #[test]
    fn cluster_crud_and_membership() {
        let (mut s, r, ops) = setup();
        run(&mut s, &r, &ops, "add_machine", &["TOTO", "RT"]).unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_cluster",
            &["bldge40-rt", "E40 RTs", "E40"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_machine_to_cluster",
            &["TOTO", "bldge40-rt"],
        )
        .unwrap();
        let map = run(&mut s, &r, &ops, "get_machine_to_cluster_map", &["*", "*"]).unwrap();
        assert_eq!(map, vec![vec!["TOTO".to_owned(), "bldge40-rt".to_owned()]]);
        // Duplicate membership rejected.
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_machine_to_cluster",
                &["TOTO", "bldge40-rt"]
            )
            .unwrap_err(),
            MrError::Exists
        );
        // Cluster with members cannot be deleted.
        assert_eq!(
            run(&mut s, &r, &ops, "delete_cluster", &["bldge40-rt"]).unwrap_err(),
            MrError::InUse
        );
        run(
            &mut s,
            &r,
            &ops,
            "delete_machine_from_cluster",
            &["TOTO", "bldge40-rt"],
        )
        .unwrap();
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "delete_machine_from_cluster",
                &["TOTO", "bldge40-rt"]
            )
            .unwrap_err(),
            MrError::NoMatch
        );
        run(&mut s, &r, &ops, "delete_cluster", &["bldge40-rt"]).unwrap();
    }

    #[test]
    fn cluster_names_case_sensitive() {
        let (mut s, r, ops) = setup();
        run(&mut s, &r, &ops, "add_cluster", &["Alpha", "", ""]).unwrap();
        run(&mut s, &r, &ops, "add_cluster", &["alpha", "", ""]).unwrap();
        assert_eq!(
            run(&mut s, &r, &ops, "get_cluster", &["Alpha"])
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn cluster_data_lifecycle() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_cluster",
            &["bldgw20-vs", "W20 VSs", "W20"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_cluster_data",
            &["bldgw20-vs", "zephyr", "neskaya.mit.edu"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_cluster_data",
            &["bldgw20-vs", "lpr", "w20"],
        )
        .unwrap();
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "add_cluster_data",
                &["bldgw20-vs", "bogus", "x"]
            )
            .unwrap_err(),
            MrError::Type
        );
        let all = run(&mut s, &r, &ops, "get_cluster_data", &["bldgw20-vs", "*"]).unwrap();
        assert_eq!(all.len(), 2);
        let one = run(&mut s, &r, &ops, "get_cluster_data", &["*", "lpr"]).unwrap();
        assert_eq!(one[0][2], "w20");
        run(
            &mut s,
            &r,
            &ops,
            "delete_cluster_data",
            &["bldgw20-vs", "lpr", "w20"],
        )
        .unwrap();
        assert_eq!(
            run(
                &mut s,
                &r,
                &ops,
                "delete_cluster_data",
                &["bldgw20-vs", "lpr", "w20"]
            )
            .unwrap_err(),
            MrError::NotUnique
        );
    }

    #[test]
    fn union_for_multi_cluster_machines() {
        let (mut s, r, ops) = setup();
        run(&mut s, &r, &ops, "add_machine", &["SCARECROW", "RT"]).unwrap();
        run(&mut s, &r, &ops, "add_cluster", &["c1", "", ""]).unwrap();
        run(&mut s, &r, &ops, "add_cluster", &["c2", "", ""]).unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_cluster_data",
            &["c1", "zephyr", "z1"],
        )
        .unwrap();
        run(&mut s, &r, &ops, "add_cluster_data", &["c2", "lpr", "p2"]).unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_machine_to_cluster",
            &["SCARECROW", "c1"],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "add_machine_to_cluster",
            &["SCARECROW", "c2"],
        )
        .unwrap();
        let mrow = one_machine(&s, "SCARECROW").unwrap();
        let mach_id = s.db.cell(mrow, machine::MACH_ID).as_int();
        let data = cluster_data_for_machine(&s, mach_id);
        assert_eq!(data.len(), 2);
        assert!(data.contains(&("zephyr".to_owned(), "z1".to_owned())));
        assert!(data.contains(&("lpr".to_owned(), "p2".to_owned())));
    }

    #[test]
    fn anyone_may_read_machines() {
        let (mut s, r, ops) = setup();
        run(&mut s, &r, &ops, "add_machine", &["PUBLIC", "VAX"]).unwrap();
        let anon = Caller::anonymous("probe");
        assert!(run(&mut s, &r, &anon, "get_machine", &["PUBLIC"]).is_ok());
        assert_eq!(
            run(&mut s, &r, &anon, "add_machine", &["EVIL", "VAX"]).unwrap_err(),
            MrError::Perm
        );
    }
}
