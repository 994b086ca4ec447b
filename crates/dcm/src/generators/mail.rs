//! The mail generator: `/usr/lib/aliases` and the mail-hub password file
//! (§5.8.2).
//!
//! "This file contains both mailing lists and post office boxes. Mailing
//! lists are output only if the list is marked active…; Poboxes are only
//! output if the user's account is active." A second file, a complete
//! password file, keeps the mail hub's finger server informed.

use moira_core::queries::lists::expand_members_recursive;
use moira_core::schema::{list, machine, members, strings, users};
use moira_core::state::MoiraState;
use moira_db::{Pred, Relation, TableId};

use super::hostaccess::frag_passwd;
use super::incremental::{DeltaPlan, LineKey, Section, SectionKind};
use super::Generator;

/// Generator for the MAIL service.
pub struct MailGenerator;

impl Generator for MailGenerator {
    fn service(&self) -> &'static str {
        "MAIL"
    }

    fn depends_on(&self) -> &'static [TableId] {
        &[
            users::R::ID,
            list::R::ID,
            members::R::ID,
            strings::R::ID,
            machine::R::ID,
        ]
    }

    fn delta_plan(&self) -> DeltaPlan {
        DeltaPlan {
            sections: vec![
                // aliases = maillist blocks, then pobox routing lines; two
                // sections, same file. The list section names its own
                // driver as a lookup because `render_ace` and list
                // expansion read *other* list rows, so any list change
                // rebuilds the whole section rather than replaying rows.
                Section {
                    file: "aliases",
                    driver: list::R::ID,
                    lookups: &[list::R::ID, members::R::ID, users::R::ID, strings::R::ID],
                    kind: SectionKind::Lines(frag_maillist),
                    // A user edit only re-renders the lists that reach that
                    // user (by membership or ACE); list/member/string
                    // changes still rebuild the whole section.
                    affected: Some(lists_affected_by_user_changes),
                },
                Section {
                    file: "aliases",
                    driver: users::R::ID,
                    lookups: &[machine::R::ID, strings::R::ID],
                    kind: SectionKind::Lines(frag_pobox_routing),
                    affected: None,
                },
                // The standard-format password file for the mail hub's
                // finger server — "an entry for every active account at
                // Athena" — is the unrestricted PASSWD file, line for line.
                Section {
                    file: "passwd",
                    driver: users::R::ID,
                    lookups: &[],
                    kind: SectionKind::Lines(frag_passwd),
                    affected: None,
                },
            ],
        }
    }
}

/// Narrows changed `users` rows to the `list` rows whose aliases block can
/// render differently: every list reachable upward through the membership
/// graph from a changed user, plus lists whose ACE names the user. Climbing
/// from the changed rows keeps a 1%-of-users edit from re-expanding every
/// mailing list. Deleted users fall back to a full section rebuild (their
/// membership rows are gone with them, so the climb has nothing to stand
/// on).
fn lists_affected_by_user_changes(
    state: &MoiraState,
    table: TableId,
    changes: &[moira_db::RowChange],
) -> Option<Vec<moira_db::RowId>> {
    use std::collections::HashSet;
    if table != users::R::ID {
        return None;
    }
    let users = state.db.table(users::T);
    let mut user_ids = Vec::with_capacity(changes.len());
    for change in changes {
        match change {
            moira_db::RowChange::Upserted(id) => {
                user_ids.push(users.row(*id).ok()?.get(users::USERS_ID))
            }
            moira_db::RowChange::Deleted(_) => return None,
        }
    }
    // Climb the membership graph from each changed user through the
    // indexed `member_id` column: per-entity selects, never a whole-table
    // pass (the delta-scan gate; E14 depends on this staying sublinear).
    let members = state.db.table(members::T);
    let mut affected: HashSet<i64> = HashSet::new();
    let mut frontier: Vec<(&str, i64)> = user_ids.iter().map(|&id| ("USER", id)).collect();
    while let Some((member_type, member_id)) = frontier.pop() {
        for r in members.rows(&Pred::Eq(members::MEMBER_ID, member_id.into())) {
            if r.get(members::MEMBER_TYPE) != member_type {
                continue;
            }
            let list_id = r.get(members::LIST_ID);
            if affected.insert(list_id) {
                frontier.push(("LIST", list_id));
            }
        }
    }
    let lists = state.db.table(list::T);
    let mut rows: HashSet<moira_db::RowId> = HashSet::new();
    for &list_id in &affected {
        rows.extend(state.db.select(&Pred::Eq(list::LIST_ID, list_id.into())));
    }
    // Lists whose ACE names a changed user render a different owner line.
    for &uid in &user_ids {
        for row in lists.select(&Pred::Eq(list::ACL_ID, uid.into())) {
            if lists
                .row(row)
                .is_ok_and(|r| r.get(list::ACL_TYPE) == "USER")
            {
                rows.insert(row);
            }
        }
    }
    Some(rows.into_iter().collect())
}

/// One active maillist's aliases block: comment, `owner-` alias from its
/// ACE, member line.
fn frag_maillist(state: &MoiraState, row: moira_db::RowId) -> Option<(LineKey, String)> {
    let r = state.db.table(list::T).row(row).ok()?;
    if !(r.get(list::ACTIVE) && r.get(list::MAILLIST)) {
        return None;
    }
    let name = r.render(list::NAME);
    let desc = r.render(list::DESC);
    let list_id = r.get(list::LIST_ID);
    let mut text = String::new();
    if !desc.is_empty() {
        text.push_str(&format!("# {desc}\n"));
    }
    let (ace_type, ace_name) =
        moira_core::ace::render_ace(&state.db, r.get(list::ACL_TYPE), r.get(list::ACL_ID));
    if ace_type != "NONE" {
        text.push_str(&format!("owner-{name}: {ace_name}\n"));
    }
    let (users, strings) = expand_members_recursive(state, list_id);
    let mut members = users;
    members.extend(strings);
    if members.is_empty() {
        text.push_str(&format!("{name}: /dev/null\n"));
    } else {
        text.push_str(&format!("{name}: {}\n", members.join(", ")));
    }
    Some(((0, name), text))
}

/// One active user's pobox routing line.
fn frag_pobox_routing(state: &MoiraState, row: moira_db::RowId) -> Option<(LineKey, String)> {
    let r = state.db.table(users::T).row(row).ok()?;
    if r.get(users::STATUS) != 1 {
        return None;
    }
    let login = r.get(users::LOGIN);
    let line = match r.get(users::POTYPE) {
        "POP" => {
            let po = po_shortname(state, r.get(users::POP_ID));
            let short = po.split('.').next().unwrap_or(&po);
            format!("{login}: {login}@{short}.LOCAL\n")
        }
        "SMTP" => {
            let addr = moira_core::queries::helpers::string_of(state, r.get(users::BOX_ID));
            format!("{login}: {addr}\n")
        }
        _ => return None,
    };
    Some(((0, login.to_owned()), line))
}

/// Short host name for `@<po>.LOCAL` routing.
fn po_shortname(state: &MoiraState, mach_id: i64) -> String {
    state
        .db
        .table(machine::T)
        .find(&Pred::Eq(machine::MACH_ID, mach_id.into()))
        .map(|r| r.render(machine::NAME))
        .unwrap_or_else(|| format!("#{mach_id}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::member_text;
    use moira_core::queries::testutil::state_with_admin;
    use moira_core::registry::Registry;
    use moira_core::state::Caller;

    fn setup() -> MoiraState {
        let (mut s, _) = state_with_admin("ops");
        let r = Registry::standard();
        let ops = Caller::new("ops", "test");
        let run = |s: &mut MoiraState, q: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
            r.execute(s, &ops, q, &args).unwrap()
        };
        run(&mut s, "add_machine", &["ATHENA-PO-2.MIT.EDU", "VAX"]);
        for (login, uid) in [("babette", "6530"), ("paul", "6531"), ("smyser", "6532")] {
            run(
                &mut s,
                "add_user",
                &[
                    login, uid, "/bin/csh", "Last", "First", "", "1", login, "1990",
                ],
            );
        }
        run(
            &mut s,
            "set_pobox",
            &["babette", "POP", "ATHENA-PO-2.MIT.EDU"],
        );
        run(
            &mut s,
            "set_pobox",
            &["smyser", "SMTP", "smyser@media-lab.mit.edu"],
        );
        run(
            &mut s,
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
        );
        run(
            &mut s,
            "add_member_to_list",
            &["video-users", "USER", "smyser"],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["video-users", "USER", "paul"],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["video-users", "STRING", "rubin@media-lab.mit.edu"],
        );
        // An inactive maillist must not be extracted.
        run(
            &mut s,
            "add_list",
            &[
                "dead-list",
                "0",
                "0",
                "0",
                "1",
                "0",
                "-1",
                "NONE",
                "NONE",
                "",
            ],
        );
        s
    }

    /// One generated file, read out of the archive.
    fn file(s: &MoiraState, name: &str) -> String {
        member_text(&MailGenerator.generate(s, "").unwrap(), name)
    }

    #[test]
    fn aliases_contents() {
        let s = setup();
        let a = file(&s, "aliases");
        assert!(a.contains("# Video Users\n"));
        assert!(a.contains("owner-video-users: paul\n"));
        assert!(a.contains("video-users: paul, smyser, rubin@media-lab.mit.edu\n"));
        assert!(!a.contains("dead-list"));
        assert!(a.contains("babette: babette@ATHENA-PO-2.LOCAL\n"));
        assert!(a.contains("smyser: smyser@media-lab.mit.edu\n"));
        // paul has no pobox: no routing line "paul: ".
        assert!(!a.contains("\npaul: "));
    }

    #[test]
    fn nested_lists_expand() {
        let mut s = setup();
        let r = Registry::standard();
        let ops = Caller::new("ops", "t");
        let run = |s: &mut MoiraState, q: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
            r.execute(s, &ops, q, &args).unwrap()
        };
        run(
            &mut s,
            "add_list",
            &[
                "umbrella", "1", "0", "0", "1", "0", "-1", "NONE", "NONE", "",
            ],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["umbrella", "LIST", "video-users"],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["umbrella", "USER", "babette"],
        );
        let a = file(&s, "aliases");
        assert!(a.contains("umbrella: babette, paul, smyser, rubin@media-lab.mit.edu\n"));
    }

    #[test]
    fn passwd_file_standard_format() {
        let s = setup();
        let p = file(&s, "passwd");
        assert!(p.contains("babette:*:6530:101:First  Last,,,:/mit/babette:/bin/csh\n"));
        assert_eq!(p.lines().count(), 4, "ops + three users");
    }

    #[test]
    fn generator_archive() {
        let s = setup();
        let archive = MailGenerator.generate(&s, "").unwrap();
        assert_eq!(archive.member_names(), vec!["aliases", "passwd"]);
    }
}
