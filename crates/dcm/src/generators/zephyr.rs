//! The Zephyr generator: per-class ACL files (§5.8.2).
//!
//! "For each existing ACE (even if it is empty), the membership will be
//! output, one entry per line. Recursive lists will be expanded." A `NONE`
//! ACE renders as the open wildcard `*.*@*`, matching the paper's example.

use moira_core::queries::lists::expand_members_recursive;
use moira_core::queries::zephyr::ACES;
use moira_core::schema::{list, members, strings, users, zephyr};
use moira_core::state::MoiraState;
use moira_db::{Pred, Relation, TableId};

use super::incremental::{DeltaPlan, Section, SectionKind};
use super::Generator;

/// Generator for the ZEPHYR service.
pub struct ZephyrGenerator;

/// The file suffix of each of a class's four ACL slots, in the order of
/// [`ACES`] (the slots' `(type, id)` column pairs).
const ACL_SUFFIXES: [&str; 4] = ["xmt", "sub", "iws", "iui"];

impl Generator for ZephyrGenerator {
    fn service(&self) -> &'static str {
        "ZEPHYR"
    }

    fn depends_on(&self) -> &'static [TableId] {
        &[
            zephyr::R::ID,
            list::R::ID,
            members::R::ID,
            users::R::ID,
            strings::R::ID,
        ]
    }

    fn delta_plan(&self) -> DeltaPlan {
        DeltaPlan {
            sections: vec![Section {
                file: "acls",
                driver: zephyr::R::ID,
                lookups: &[list::R::ID, members::R::ID, users::R::ID, strings::R::ID],
                kind: SectionKind::Members(frag_class),
                affected: None,
            }],
        }
    }
}

/// One class's ACL files, in [`ACES`] order.
fn frag_class(state: &MoiraState, row: moira_db::RowId) -> Vec<(String, Vec<u8>)> {
    let Ok(r) = state.db.table(zephyr::T).row(row) else {
        return Vec::new();
    };
    let class = r.get(zephyr::CLASS);
    let mut out = Vec::new();
    for ((type_col, id_col), suffix) in ACES.into_iter().zip(ACL_SUFFIXES) {
        let ace_type = r.get(type_col);
        // "For each existing ACE (even if it is empty), the membership
        // will be output" — NONE slots have no ACE and produce no file
        // (the server treats absence as open).
        if ace_type == "NONE" {
            continue;
        }
        let content = acl_file(state, ace_type, r.get(id_col));
        out.push((format!("{class}.{suffix}.acl"), content.into_bytes()));
    }
    out
}

/// Renders one ACL file from an ACE.
pub fn acl_file(state: &MoiraState, ace_type: &str, ace_id: i64) -> String {
    match ace_type {
        "USER" => {
            let login = state
                .db
                .table(users::T)
                .find(&Pred::Eq(users::USERS_ID, ace_id.into()))
                .map(|r| r.render(users::LOGIN))
                .unwrap_or_else(|| format!("#{ace_id}"));
            format!("{login}@ATHENA.MIT.EDU\n")
        }
        "LIST" => {
            let (users, strings) = expand_members_recursive(state, ace_id);
            let mut out = String::new();
            for u in users {
                out.push_str(&format!("{u}@ATHENA.MIT.EDU\n"));
            }
            for s in strings {
                out.push_str(&format!("{s}\n"));
            }
            out
        }
        // An unrestricted slot: the open wildcard of the paper's example.
        _ => "*.*@*\n".to_owned(),
    }
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
        run(
            &mut s,
            "add_user",
            &["wheel", "7600", "/bin/csh", "W", "H", "", "1", "x", "STAFF"],
        );
        run(
            &mut s,
            "add_list",
            &["zctl", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
        );
        run(
            &mut s,
            "add_list",
            &["zsub", "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
        );
        run(&mut s, "add_member_to_list", &["zctl", "USER", "wheel"]);
        run(&mut s, "add_member_to_list", &["zctl", "LIST", "zsub"]);
        run(&mut s, "add_member_to_list", &["zsub", "USER", "ops"]);
        run(
            &mut s,
            "add_zephyr_class",
            &[
                "MOIRA", "LIST", "zctl", "NONE", "NONE", "USER", "wheel", "NONE", "NONE",
            ],
        );
        s
    }

    #[test]
    fn only_existing_aces_produce_files() {
        let s = setup();
        let archive = ZephyrGenerator.generate(&s, "").unwrap();
        assert_eq!(
            archive.member_names(),
            vec!["MOIRA.xmt.acl", "MOIRA.iws.acl"]
        );
    }

    #[test]
    fn list_ace_expands_recursively() {
        let s = setup();
        let archive = ZephyrGenerator.generate(&s, "").unwrap();
        let xmt = member_text(&archive, "MOIRA.xmt.acl");
        assert!(xmt.contains("wheel@ATHENA.MIT.EDU\n"));
        assert!(
            xmt.contains("ops@ATHENA.MIT.EDU\n"),
            "recursive through zsub: {xmt}"
        );
    }

    #[test]
    fn user_ace_and_open_slots() {
        let s = setup();
        let archive = ZephyrGenerator.generate(&s, "").unwrap();
        let iws = member_text(&archive, "MOIRA.iws.acl");
        assert_eq!(iws, "wheel@ATHENA.MIT.EDU\n");
        // NONE slots produce no file; the server treats absence as open.
        assert!(archive.get("MOIRA.sub.acl").is_none());
        // The raw renderer still produces the open wildcard for NONE.
        assert_eq!(acl_file(&s, "NONE", 0), "*.*@*\n");
    }
}
