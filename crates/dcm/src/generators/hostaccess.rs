//! The per-machine password-file generator driven by HOSTACCESS.
//!
//! §6 (HOSTACCESS): "This table provides the necessary information for
//! Moira to be generating machine specific /etc/passwd files. It
//! associates an access control entity with a machine." And §7.0.7
//! (`get_server_host_access`): "This will be used to load the /.klogin
//! file on that machine."
//!
//! The paper describes the data but not the generator; this module
//! completes the design: a per-host `PASSWD` service whose archive carries
//! an `/etc/passwd` restricted to the machine's ACE (or all active users
//! when the machine has no HOSTACCESS entry) plus the `/.klogin` file
//! listing the Kerberos principals allowed in as root.

use moira_common::errors::{MrError, MrResult};
use moira_core::queries::lists::expand_member_ids_recursive;
use moira_core::schema::{hostaccess, list, members, users};
use moira_core::state::MoiraState;
use moira_db::{Pred, Relation, TableId};

use crate::archive::Archive;

use super::incremental::{render_lines, DeltaPlan, LineKey, Section, SectionKind};
use super::{user_rows, Generator, PerHostFn};

/// Generator for the PASSWD service (per host).
pub struct HostAccessGenerator;

impl Generator for HostAccessGenerator {
    fn service(&self) -> &'static str {
        "PASSWD"
    }

    fn depends_on(&self) -> &'static [TableId] {
        &[users::R::ID, hostaccess::R::ID, list::R::ID, members::R::ID]
    }

    /// Host-independent form: the unrestricted password file.
    fn delta_plan(&self) -> DeltaPlan {
        DeltaPlan {
            sections: vec![Section {
                file: "passwd",
                driver: users::R::ID,
                lookups: &[],
                kind: SectionKind::Lines(frag_passwd),
                affected: None,
            }],
        }
    }

    fn per_host(&self) -> Option<PerHostFn> {
        Some(HostAccessGenerator::for_host)
    }
}

impl HostAccessGenerator {
    /// Builds the archive for one machine: its `/etc/passwd` — the shared
    /// file, or the lines of the users its HOSTACCESS ACE admits — and its
    /// `/.klogin`.
    pub fn for_host(
        state: &MoiraState,
        mach_id: i64,
        _value3: &str,
        shared: &Archive,
    ) -> MrResult<Archive> {
        let passwd = match hostaccess_users(state, mach_id) {
            Some(admitted) => {
                render_lines(state, frag_passwd, &user_rows(state, &admitted)).into_bytes()
            }
            None => shared.get("passwd").ok_or(MrError::Internal)?.to_vec(),
        };
        let mut archive = Archive::new();
        archive.add("passwd", passwd)?;
        archive.add("klogin", klogin_file(state, mach_id))?;
        Ok(archive)
    }
}

/// One active user's standard-format password line (also the mail hub's
/// `passwd`).
pub(crate) fn frag_passwd(state: &MoiraState, row: moira_db::RowId) -> Option<(LineKey, String)> {
    let users = state.db.table(users::T);
    if users.cell(row, users::STATUS).as_int() != 1 {
        return None;
    }
    let login = users.cell(row, users::LOGIN).as_str().to_owned();
    let uid = users.cell(row, users::UID).as_int();
    let line = format!(
        "{login}:*:{uid}:101:{},,,:/mit/{login}:{}\n",
        users.cell(row, users::FULLNAME).render(),
        users.cell(row, users::SHELL).render(),
    );
    Some(((0, login), line))
}

/// The `users_id` set admitted by a machine's HOSTACCESS ACE, or `None`
/// when the machine is unrestricted.
fn hostaccess_users(state: &MoiraState, mach_id: i64) -> Option<Vec<i64>> {
    let row = state
        .db
        .table(hostaccess::T)
        .select_one(&Pred::Eq(hostaccess::MACH_ID, mach_id.into()))?;
    let ace_type = state.db.cell(row, hostaccess::ACL_TYPE).as_str().to_owned();
    let ace_id = state.db.cell(row, hostaccess::ACL_ID).as_int();
    match ace_type.as_str() {
        "USER" => Some(vec![ace_id]),
        "LIST" => {
            let (users, _strings) = expand_member_ids_recursive(state, ace_id);
            Some(users)
        }
        // A NONE ACE admits nobody beyond root.
        _ => Some(Vec::new()),
    }
}

/// Renders the `/.klogin` file: one `principal.root@REALM`-style line per
/// admitted administrator.
pub fn klogin_file(state: &MoiraState, mach_id: i64) -> String {
    let Some(users) = hostaccess_users(state, mach_id) else {
        return String::new();
    };
    let mut logins: Vec<String> = user_rows(state, &users)
        .into_iter()
        .map(|row| state.db.cell(row, users::LOGIN).render())
        .collect();
    logins.sort();
    logins
        .into_iter()
        .map(|l| format!("{l}.root@ATHENA.MIT.EDU\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::member_text;
    use moira_core::queries::testutil::{add_test_machine, state_with_admin};
    use moira_core::registry::Registry;
    use moira_core::state::Caller;

    fn setup() -> (MoiraState, i64, i64) {
        let (mut s, _) = state_with_admin("ops");
        let r = Registry::standard();
        let root = Caller::root("t");
        let run = |s: &mut MoiraState, q: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
            r.execute(s, &root, q, &args).unwrap()
        };
        let restricted = add_test_machine(&mut s, "DIALUP.MIT.EDU");
        let open = add_test_machine(&mut s, "PUBLIC.MIT.EDU");
        for (login, uid) in [("alice", "7001"), ("bob", "7002"), ("carol", "7003")] {
            run(
                &mut s,
                "add_user",
                &[login, uid, "/bin/csh", "L", "F", "", "1", "x", "STAFF"],
            );
        }
        run(
            &mut s,
            "add_list",
            &[
                "dialup-ok",
                "1",
                "0",
                "0",
                "0",
                "0",
                "-1",
                "NONE",
                "NONE",
                "",
            ],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["dialup-ok", "USER", "alice"],
        );
        run(&mut s, "add_member_to_list", &["dialup-ok", "USER", "bob"]);
        run(
            &mut s,
            "add_server_host_access",
            &["DIALUP.MIT.EDU", "LIST", "dialup-ok"],
        );
        (s, restricted, open)
    }

    /// The archive one machine installs, cut from a fresh shared build.
    fn for_host(s: &MoiraState, mach_id: i64) -> Archive {
        let shared = HostAccessGenerator.generate(s, "").unwrap();
        HostAccessGenerator::for_host(s, mach_id, "", &shared).unwrap()
    }

    #[test]
    fn restricted_host_gets_only_its_ace() {
        let (s, restricted, _) = setup();
        let archive = for_host(&s, restricted);
        let passwd = member_text(&archive, "passwd");
        assert!(passwd.contains("alice:*:7001"));
        assert!(passwd.contains("bob:*:7002"));
        assert!(!passwd.contains("carol"));
        assert!(!passwd.contains("ops"));
        let klogin = member_text(&archive, "klogin");
        assert_eq!(
            klogin,
            "alice.root@ATHENA.MIT.EDU\nbob.root@ATHENA.MIT.EDU\n"
        );
    }

    #[test]
    fn unrestricted_host_gets_everyone_and_empty_klogin() {
        let (s, _, open) = setup();
        let archive = for_host(&s, open);
        let passwd = member_text(&archive, "passwd");
        for login in ["alice", "bob", "carol", "ops"] {
            assert!(passwd.contains(&format!("{login}:*:")), "{login}");
        }
        let klogin = member_text(&archive, "klogin");
        assert!(klogin.is_empty());
    }

    #[test]
    fn none_ace_admits_nobody() {
        let (mut s, restricted, _) = setup();
        let r = Registry::standard();
        r.execute(
            &mut s,
            &Caller::root("t"),
            "update_server_host_access",
            &["DIALUP.MIT.EDU".into(), "NONE".into(), "NONE".into()],
        )
        .unwrap();
        let archive = for_host(&s, restricted);
        let passwd = member_text(&archive, "passwd");
        assert!(passwd.is_empty());
    }

    #[test]
    fn generate_without_host_is_unrestricted() {
        let (s, _, _) = setup();
        let archive = HostAccessGenerator.generate(&s, "").unwrap();
        let passwd = member_text(&archive, "passwd");
        assert!(passwd.contains("carol"));
    }
}
