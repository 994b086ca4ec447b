//! Post office box queries (§7.0.1, pobox subset).

use moira_common::errors::{MrError, MrResult};
use moira_db::{Assign, Pred, Row};

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
fn render_box(state: &MoiraState, r: Row<'_, users::R>) -> (String, String) {
    let potype = r.get(users::POTYPE);
    let boxval = match potype {
        "POP" => machine_name(state, r.get(users::POP_ID)),
        "SMTP" => string_of(state, r.get(users::BOX_ID)),
        _ => "NONE".to_owned(),
    };
    (potype.to_owned(), boxval)
}

fn get_pobox(state: &MoiraState, _c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let (row, _) = user_row_and_id(state, &a[0])?;
    let r = state.db.table(users::T).row(row)?;
    let (potype, boxval) = render_box(state, r);
    Ok(vec![vec![
        r.render(users::LOGIN),
        potype,
        boxval,
        r.render(users::PMODTIME),
        r.render(users::PMODBY),
        r.render(users::PMODWITH),
    ]])
}

// Dump of every pobox by type — no index on potype, and the query is an
// enumeration by design.
#[allow(clippy::disallowed_methods)]
fn poboxes_where(state: &MoiraState, want: Option<&str>) -> Vec<Vec<String>> {
    state
        .db
        .table(users::T)
        .iter_rows()
        .filter(|r| match want {
            Some(w) => r.get(users::POTYPE) == w,
            None => r.get(users::POTYPE) != "NONE",
        })
        .map(|r| {
            let (potype, boxval) = render_box(state, r);
            vec![r.render(users::LOGIN), potype, boxval]
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
    changes: &mut Vec<Assign<users::R>>,
) -> MrResult<()> {
    let (now, who, with) = mod_fields(state, c);
    changes.push(users::PMODTIME.set(now));
    changes.push(users::PMODBY.set(who));
    changes.push(users::PMODWITH.set(with));
    state.db.update(row, changes)?;
    Ok(())
}

fn set_pobox(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let (row, _) = user_row_and_id(state, &a[0])?;
    let potype = a[1].to_ascii_uppercase();
    check_type_alias(state, "pobox", &potype, MrError::Type)?;
    let mut changes = vec![users::POTYPE.set(&potype)];
    match potype.as_str() {
        "POP" => {
            let m = state
                .db
                .table(machine::T)
                .find(&Pred::EqCi(machine::NAME, a[2].clone()))
                .ok_or(MrError::Machine)?;
            changes.push(users::POP_ID.set(m.get(machine::MACH_ID)));
            changes.push(users::SAVED_POP.set(m.get(machine::NAME)));
        }
        "SMTP" => {
            let sid = intern_string(state, &a[2])?;
            changes.push(users::BOX_ID.set(sid));
        }
        "NONE" => {}
        _ => return Err(MrError::Type),
    }
    stamp_pobox(state, c, row, &mut changes)?;
    Ok(Vec::new())
}

fn set_pobox_pop(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let (row, _) = user_row_and_id(state, &a[0])?;
    let r = state.db.table(users::T).row(row)?;
    if r.get(users::POTYPE) == "POP" {
        return Ok(Vec::new());
    }
    let saved = r.get(users::SAVED_POP).to_owned();
    if saved.is_empty() {
        // "If there was no previous post office assignment, the query will
        // fail with MR_MACHINE since it will be unable to choose a post
        // office machine."
        return Err(MrError::Machine);
    }
    let mach_id = state
        .db
        .table(machine::T)
        .find(&Pred::EqCi(machine::NAME, saved))
        .ok_or(MrError::Machine)?
        .get(machine::MACH_ID);
    let mut changes = vec![users::POTYPE.set("POP"), users::POP_ID.set(mach_id)];
    stamp_pobox(state, c, row, &mut changes)?;
    Ok(Vec::new())
}

fn delete_pobox(state: &mut MoiraState, c: &Caller, a: &[String]) -> MrResult<Vec<Vec<String>>> {
    let (row, _) = user_row_and_id(state, &a[0])?;
    let mut changes = vec![users::POTYPE.set("NONE")];
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
