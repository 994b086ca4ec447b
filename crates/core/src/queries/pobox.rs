//! Post office box queries (§7.0.1, pobox subset).

use moira_common::errors::{MrError, MrResult};
use moira_db::{Col, Pred};

use crate::registry::{AccessRule, Handler, QueryHandle, QueryKind, Registry};
use crate::schema::{machine, users};
use crate::state::{Caller, MoiraState};

use super::helpers::*;
use super::users::user_row_and_id;

/// Registers the pobox queries.
pub fn register(r: &mut Registry) {
    use AccessRule::*;
    use QueryKind::*;
    let qs: &[QueryHandle] = &[
        QueryHandle {
            name: "get_pobox",
            shortname: "gpob",
            kind: Retrieve,
            access: QueryAclOrSelf(0),
            args: &["login"],
            returns: &["login", "type", "box", "modtime", "modby", "modwith"],
            handler: Handler::Read(get_pobox),
        },
        QueryHandle {
            name: "get_all_poboxes",
            shortname: "gapo",
            kind: Retrieve,
            access: QueryAcl,
            args: &[],
            returns: &["login", "type", "box"],
            handler: Handler::Read(get_all_poboxes),
        },
        QueryHandle {
            name: "get_poboxes_pop",
            shortname: "gpop",
            kind: Retrieve,
            access: QueryAcl,
            args: &[],
            returns: &["login", "type", "machine"],
            handler: Handler::Read(get_poboxes_pop),
        },
        QueryHandle {
            name: "get_poboxes_smtp",
            shortname: "gpos",
            kind: Retrieve,
            access: QueryAcl,
            args: &[],
            returns: &["login", "type", "box"],
            handler: Handler::Read(get_poboxes_smtp),
        },
        QueryHandle {
            name: "set_pobox",
            shortname: "spob",
            kind: Update,
            access: QueryAclOrSelf(0),
            args: &["login", "type", "box"],
            returns: &[],
            handler: Handler::Write(set_pobox),
        },
        QueryHandle {
            name: "set_pobox_pop",
            shortname: "spop",
            kind: Update,
            access: QueryAclOrSelf(0),
            args: &["login"],
            returns: &[],
            handler: Handler::Write(set_pobox_pop),
        },
        QueryHandle {
            name: "delete_pobox",
            shortname: "dpob",
            kind: Update,
            access: QueryAclOrSelf(0),
            args: &["login"],
            returns: &[],
            handler: Handler::Write(delete_pobox),
        },
    ];
    for q in qs {
        r.register(*q);
    }
}

/// Renders the `box` field: POP → machine name, SMTP → stored string,
/// NONE → `NONE`.
fn render_box(state: &MoiraState, row: moira_db::RowId) -> (String, String) {
    let t = state.db.table(users::T);
    let potype = t.cell(row, users::POTYPE).as_str().to_owned();
    let boxval = match potype.as_str() {
        "POP" => machine_name(state, t.cell(row, users::POP_ID).as_int()),
        "SMTP" => string_of(state, t.cell(row, users::BOX_ID).as_int()),
        _ => "NONE".to_owned(),
    };
    (potype, boxval)
}

fn get_pobox(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let (row, _) = user_row_and_id(state, &a[0])?;
    let login = state.db.cell(row, users::LOGIN).render();
    let (potype, boxval) = render_box(state, row);
    let rest = project(
        state,
        row,
        &[users::PMODTIME, users::PMODBY, users::PMODWITH],
    );
    Ok(vec![vec![
        login,
        potype,
        boxval,
        rest[0].clone(),
        rest[1].clone(),
        rest[2].clone(),
    ]])
}

// Dump of every pobox by type — no index on potype, and the query is an
// enumeration by design.
#[allow(clippy::disallowed_methods)]
fn poboxes_where(state: &MoiraState, want: Option<&str>) -> Vec<Vec<String>> {
    state
        .db
        .table(users::T)
        .iter()
        .filter(|(_, r)| {
            let t = r[users::POTYPE.index()].as_str();
            match want {
                Some(w) => t == w,
                None => t != "NONE",
            }
        })
        .map(|(id, _)| {
            let login = state.db.cell(id, users::LOGIN).render();
            let (potype, boxval) = render_box(state, id);
            vec![login, potype, boxval]
        })
        .collect()
}

fn get_all_poboxes(state: &MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
    Ok(poboxes_where(state, None))
}

fn get_poboxes_pop(state: &MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
    Ok(poboxes_where(state, Some("POP")))
}

fn get_poboxes_smtp(state: &MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
    Ok(poboxes_where(state, Some("SMTP")))
}

fn stamp_pobox(
    state: &mut MoiraState,
    c: &Caller,
    row: moira_db::RowId,
    changes: &mut Vec<(Col<users::R>, moira_db::Value)>,
) -> MrResult<()> {
    let (now, who, with) = mod_fields(state, c);
    changes.push((users::PMODTIME, now.into()));
    changes.push((users::PMODBY, who.into()));
    changes.push((users::PMODWITH, with.into()));
    state.db.update(row, changes)?;
    Ok(())
}

fn set_pobox(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let (row, _) = user_row_and_id(state, &a[0])?;
    let potype = a[1].to_ascii_uppercase();
    check_type_alias(state, "pobox", &potype, MrError::Type)?;
    let mut changes: Vec<(Col<users::R>, moira_db::Value)> =
        vec![(users::POTYPE, potype.clone().into())];
    match potype.as_str() {
        "POP" => {
            let mach_row = state
                .db
                .table(machine::T)
                .select_one(&Pred::EqCi(machine::NAME, a[2].clone()))
                .ok_or(MrError::Machine)?;
            let mach_id = state.db.cell(mach_row, machine::MACH_ID).as_int();
            let mach_name = state.db.cell(mach_row, machine::NAME).render();
            changes.push((users::POP_ID, mach_id.into()));
            changes.push((users::SAVED_POP, mach_name.into()));
        }
        "SMTP" => {
            let sid = intern_string(state, &a[2])?;
            changes.push((users::BOX_ID, sid.into()));
        }
        "NONE" => {}
        _ => return Err(MrError::Type),
    }
    stamp_pobox(state, c, row, &mut changes)?;
    Ok(Vec::new())
}

fn set_pobox_pop(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let (row, _) = user_row_and_id(state, &a[0])?;
    let t = state.db.table(users::T);
    if t.cell(row, users::POTYPE).as_str() == "POP" {
        return Ok(Vec::new());
    }
    let saved = t.cell(row, users::SAVED_POP).as_str().to_owned();
    if saved.is_empty() {
        // "If there was no previous post office assignment, the query will
        // fail with MR_MACHINE since it will be unable to choose a post
        // office machine."
        return Err(MrError::Machine);
    }
    let mach_row = state
        .db
        .table(machine::T)
        .select_one(&Pred::EqCi(machine::NAME, saved))
        .ok_or(MrError::Machine)?;
    let mach_id = state.db.cell(mach_row, machine::MACH_ID).as_int();
    let mut changes: Vec<(Col<users::R>, moira_db::Value)> = vec![
        (users::POTYPE, "POP".into()),
        (users::POP_ID, mach_id.into()),
    ];
    stamp_pobox(state, c, row, &mut changes)?;
    Ok(Vec::new())
}

fn delete_pobox(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let (row, _) = user_row_and_id(state, &a[0])?;
    let mut changes: Vec<(Col<users::R>, moira_db::Value)> = vec![(users::POTYPE, "NONE".into())];
    stamp_pobox(state, c, row, &mut changes)?;
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
        add_test_machine(&mut s, "ATHENA-PO-1.MIT.EDU");
        add_test_machine(&mut s, "ATHENA-PO-2.MIT.EDU");
        let r = Registry::standard();
        let ops = Caller::new("ops", "chpobox");
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
        (s, r, ops)
    }

    #[test]
    fn set_pop_pobox() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "set_pobox",
            &["babette", "POP", "athena-po-2.mit.edu"],
        )
        .unwrap();
        let p = run(&mut s, &r, &ops, "get_pobox", &["babette"]).unwrap();
        assert_eq!(p[0][1], "POP");
        assert_eq!(p[0][2], "ATHENA-PO-2.MIT.EDU");
    }

    #[test]
    fn pop_requires_known_machine() {
        let (mut s, r, ops) = setup();
        // The paper's own example typo: e40-p0 is not a machine.
        assert_eq!(
            run(&mut s, &r, &ops, "set_pobox", &["babette", "POP", "e40-p0"]).unwrap_err(),
            MrError::Machine
        );
    }

    #[test]
    fn smtp_pobox_stores_string() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "set_pobox",
            &["babette", "SMTP", "babette@media-lab.mit.edu"],
        )
        .unwrap();
        let p = run(&mut s, &r, &ops, "get_pobox", &["babette"]).unwrap();
        assert_eq!(p[0][1], "SMTP");
        assert_eq!(p[0][2], "babette@media-lab.mit.edu");
    }

    #[test]
    fn invalid_type_rejected() {
        let (mut s, r, ops) = setup();
        assert_eq!(
            run(&mut s, &r, &ops, "set_pobox", &["babette", "UUCP", "x"]).unwrap_err(),
            MrError::Type
        );
    }

    #[test]
    fn delete_and_restore_pop() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "set_pobox",
            &["babette", "POP", "ATHENA-PO-1.MIT.EDU"],
        )
        .unwrap();
        run(&mut s, &r, &ops, "delete_pobox", &["babette"]).unwrap();
        let p = run(&mut s, &r, &ops, "get_pobox", &["babette"]).unwrap();
        assert_eq!(p[0][1], "NONE");
        // set_pobox_pop restores the remembered machine.
        run(&mut s, &r, &ops, "set_pobox_pop", &["babette"]).unwrap();
        let p = run(&mut s, &r, &ops, "get_pobox", &["babette"]).unwrap();
        assert_eq!(p[0][2], "ATHENA-PO-1.MIT.EDU");
    }

    #[test]
    fn set_pobox_pop_without_history_fails() {
        let (mut s, r, ops) = setup();
        assert_eq!(
            run(&mut s, &r, &ops, "set_pobox_pop", &["babette"]).unwrap_err(),
            MrError::Machine
        );
    }

    #[test]
    fn pobox_listings() {
        let (mut s, r, ops) = setup();
        run(
            &mut s,
            &r,
            &ops,
            "add_user",
            &[
                "smtpu", "6531", "/bin/csh", "F", "H", "C", "1", "id2", "1990",
            ],
        )
        .unwrap();
        run(
            &mut s,
            &r,
            &ops,
            "set_pobox",
            &["babette", "POP", "ATHENA-PO-1.MIT.EDU"],
        )
        .unwrap();
        run(&mut s, &r, &ops, "set_pobox", &["smtpu", "SMTP", "x@y.edu"]).unwrap();
        let all = run(&mut s, &r, &ops, "get_all_poboxes", &[]).unwrap();
        assert_eq!(all.len(), 2);
        let pops = run(&mut s, &r, &ops, "get_poboxes_pop", &[]).unwrap();
        assert_eq!(pops.len(), 1);
        assert_eq!(pops[0][0], "babette");
        let smtps = run(&mut s, &r, &ops, "get_poboxes_smtp", &[]).unwrap();
        assert_eq!(smtps.len(), 1);
        assert_eq!(smtps[0][2], "x@y.edu");
    }

    #[test]
    fn owner_may_manage_own_pobox() {
        let (mut s, r, _) = setup();
        let me = Caller::new("babette", "chpobox");
        run(
            &mut s,
            &r,
            &me,
            "set_pobox",
            &["babette", "POP", "ATHENA-PO-1.MIT.EDU"],
        )
        .unwrap();
        assert!(run(&mut s, &r, &me, "get_pobox", &["babette"]).is_ok());
        // But not someone else's.
        assert_eq!(
            run(&mut s, &r, &me, "set_pobox", &["ops", "NONE", ""]).unwrap_err(),
            MrError::Perm
        );
    }
}
