//! The NFS generator: credentials, quotas, and directories files (§5.8.2).
//!
//! Unlike Hesiod, NFS files are per-host: each server gets the quotas and
//! directories for the partitions it exports, plus a credentials file whose
//! membership is either all active users or, when the serverhost's `value3`
//! names a list, that list's membership.

use moira_common::errors::{MrError, MrResult};
use moira_core::queries::lists::expand_member_ids_recursive;
use moira_core::schema::{filesys, list, members, nfsphys, nfsquota, users};
use moira_core::state::MoiraState;
use moira_db::{Pred, Relation, TableId};

use crate::archive::Archive;

use super::incremental::{render_lines, DeltaPlan, LineKey, Section, SectionKind};
use super::{groups_of_user, user_rows, Generator, PerHostFn};

/// Generator for the NFS service. Its plan is the shared credentials file;
/// the DCM cuts each host's archive with [`NfsGenerator::for_host`].
pub struct NfsGenerator;

impl Generator for NfsGenerator {
    fn service(&self) -> &'static str {
        "NFS"
    }

    fn depends_on(&self) -> &'static [TableId] {
        &[
            users::R::ID,
            nfsquota::R::ID,
            nfsphys::R::ID,
            filesys::R::ID,
            list::R::ID,
            members::R::ID,
        ]
    }

    fn delta_plan(&self) -> DeltaPlan {
        DeltaPlan {
            sections: vec![Section {
                file: "credentials",
                driver: users::R::ID,
                lookups: &[list::R::ID, members::R::ID],
                kind: SectionKind::Lines(frag_credentials),
                affected: None,
            }],
        }
    }

    fn per_host(&self) -> Option<PerHostFn> {
        Some(NfsGenerator::for_host)
    }
}

impl NfsGenerator {
    /// Builds the archive for one NFS server host: credentials plus a
    /// `.quotas` and `.dirs` file per exported partition. "If this field
    /// \[value3\] is non-blank, it specifies the list whose membership will
    /// appear in the credentials file"; blank, or naming no list, the host
    /// takes the shared file. Fails with `MR_EXISTS` when two partitions'
    /// directories collapse to the same member stem.
    pub fn for_host(
        state: &MoiraState,
        mach_id: i64,
        value3: &str,
        shared: &Archive,
    ) -> MrResult<Archive> {
        let lists = state.db.table(list::T);
        let list = value3.trim();
        let restrict = (!list.is_empty())
            .then(|| lists.select_one(&Pred::Eq(list::NAME, list.into())))
            .flatten()
            .map(|row| lists.cell(row, list::LIST_ID).as_int());
        let credentials = match restrict {
            Some(list_id) => {
                let (admitted, _strings) = expand_member_ids_recursive(state, list_id);
                render_lines(state, frag_credentials, &user_rows(state, &admitted)).into_bytes()
            }
            None => shared.get("credentials").ok_or(MrError::Internal)?.to_vec(),
        };
        let mut archive = Archive::new();
        archive.add("credentials", credentials)?;
        for prow in state.db.select(&Pred::Eq(nfsphys::MACH_ID, mach_id.into())) {
            let dir = state.db.cell(prow, nfsphys::DIR).render();
            let phys_id = state.db.cell(prow, nfsphys::NFSPHYS_ID).as_int();
            let stem = dir.trim_matches('/').replace('/', "_");
            archive.add(&format!("{stem}.quotas"), quotas_file(state, phys_id))?;
            archive.add(&format!("{stem}.dirs"), dirs_file(state, phys_id))?;
        }
        Ok(archive)
    }
}

/// One active user's credentials line: `login:uid:gid:gid…`.
fn frag_credentials(state: &MoiraState, row: moira_db::RowId) -> Option<(LineKey, String)> {
    let users = state.db.table(users::T);
    if users.cell(row, users::STATUS).as_int() != 1 {
        return None;
    }
    let login = users.cell(row, users::LOGIN).as_str().to_owned();
    let uid = users.cell(row, users::UID).as_int();
    let users_id = users.cell(row, users::USERS_ID).as_int();
    let mut line = format!("{login}:{uid}");
    for (_, gid) in groups_of_user(state, users_id) {
        line.push_str(&format!(":{gid}"));
    }
    line.push('\n');
    Some(((0, login), line))
}

/// The quotas file for one partition: `uid quota` per line.
pub fn quotas_file(state: &MoiraState, phys_id: i64) -> String {
    let mut lines: Vec<(i64, i64)> = Vec::new();
    for qrow in state
        .db
        .select(&Pred::Eq(nfsquota::PHYS_ID, phys_id.into()))
    {
        let users_id = state.db.cell(qrow, nfsquota::USERS_ID).as_int();
        let quota = state.db.cell(qrow, nfsquota::QUOTA).as_int();
        if let Some(urow) = state
            .db
            .table(users::T)
            .select_one(&Pred::Eq(users::USERS_ID, users_id.into()))
        {
            lines.push((state.db.cell(urow, users::UID).as_int(), quota));
        }
    }
    lines.sort_unstable();
    lines
        .into_iter()
        .map(|(uid, q)| format!("{uid} {q}\n"))
        .collect()
}

/// The directories file: `name uid gid type` for autocreate lockers on the
/// partition.
pub fn dirs_file(state: &MoiraState, phys_id: i64) -> String {
    let mut lines = Vec::new();
    for frow in state.db.select(&Pred::Eq(filesys::PHYS_ID, phys_id.into())) {
        let t = state.db.table(filesys::T);
        if !t.cell(frow, filesys::CREATEFLG).as_bool() {
            continue;
        }
        let name = t.cell(frow, filesys::NAME).render();
        let owner = t.cell(frow, filesys::OWNER).as_int();
        let owners = t.cell(frow, filesys::OWNERS).as_int();
        let lockertype = t.cell(frow, filesys::LOCKERTYPE).render();
        let uid = state
            .db
            .table(users::T)
            .select_one(&Pred::Eq(users::USERS_ID, owner.into()))
            .map(|r| state.db.cell(r, users::UID).as_int())
            .unwrap_or(0);
        let gid = state
            .db
            .table(list::T)
            .select_one(&Pred::Eq(list::LIST_ID, owners.into()))
            .map(|r| state.db.cell(r, list::GID).as_int())
            .unwrap_or(0);
        lines.push(format!("{name} {uid} {gid} {lockertype}\n"));
    }
    lines.sort();
    lines.concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::member_text;
    use moira_core::queries::testutil::state_with_admin;
    use moira_core::registry::Registry;
    use moira_core::schema::machine;
    use moira_core::state::Caller;

    fn setup() -> (MoiraState, i64) {
        let (mut s, _) = state_with_admin("ops");
        let r = Registry::standard();
        let ops = Caller::new("ops", "test");
        let run = |s: &mut MoiraState, q: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
            r.execute(s, &ops, q, &args).unwrap()
        };
        run(&mut s, "add_machine", &["CHARON", "VAX"]);
        run(
            &mut s,
            "add_user",
            &[
                "mstai", "9296", "/bin/csh", "Stai", "M", "", "1", "x1", "1990",
            ],
        );
        run(
            &mut s,
            "add_user",
            &[
                "mtalford", "14956", "/bin/csh", "Talford", "M", "", "1", "x2", "1990",
            ],
        );
        run(
            &mut s,
            "add_user",
            &[
                "inactive", "9999", "/bin/csh", "Gone", "A", "", "0", "x3", "1990",
            ],
        );
        run(
            &mut s,
            "add_list",
            &[
                "mtalford", "1", "0", "0", "0", "1", "5904", "NONE", "NONE", "",
            ],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["mtalford", "USER", "mtalford"],
        );
        run(
            &mut s,
            "add_list",
            &[
                "staff-cred",
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
            &["staff-cred", "USER", "mstai"],
        );
        run(
            &mut s,
            "add_nfsphys",
            &["CHARON", "/u1/lockers", "ra0c", "1", "0", "99999"],
        );
        run(
            &mut s,
            "add_filesys",
            &[
                "mtalford",
                "NFS",
                "CHARON",
                "/u1/lockers/mtalford",
                "/mit/mtalford",
                "w",
                "",
                "mtalford",
                "mtalford",
                "1",
                "HOMEDIR",
            ],
        );
        run(&mut s, "add_nfs_quota", &["mtalford", "mtalford", "300"]);
        let mach_id =
            s.db.cell(
                s.db.table(machine::T)
                    .select_one(&Pred::Eq(machine::NAME, "CHARON".into()))
                    .unwrap(),
                machine::MACH_ID,
            )
            .as_int();
        (s, mach_id)
    }

    /// The archive CHARON installs, cut from a fresh shared build.
    fn for_host(s: &MoiraState, mach_id: i64, value3: &str) -> Archive {
        let shared = NfsGenerator.generate(s, "").unwrap();
        NfsGenerator::for_host(s, mach_id, value3, &shared).unwrap()
    }

    #[test]
    fn credentials_all_active() {
        let (s, _) = setup();
        let cred = member_text(&NfsGenerator.generate(&s, "").unwrap(), "credentials");
        assert!(cred.contains("mtalford:14956:5904\n"));
        assert!(cred.contains("mstai:9296\n"));
        assert!(!cred.contains("inactive"));
    }

    #[test]
    fn credentials_restricted_by_value3() {
        let (s, mach_id) = setup();
        let cred = member_text(&for_host(&s, mach_id, "staff-cred"), "credentials");
        assert!(cred.contains("mstai"));
        assert!(!cred.contains("mtalford"));
        // Unknown list name falls back to everyone.
        let cred = member_text(&for_host(&s, mach_id, "no-such-list"), "credentials");
        assert!(cred.contains("mtalford"));
    }

    #[test]
    fn quotas_and_dirs() {
        let (s, mach_id) = setup();
        let archive = for_host(&s, mach_id, "");
        assert_eq!(
            archive.member_names(),
            vec!["credentials", "u1_lockers.quotas", "u1_lockers.dirs"]
        );
        let quotas = member_text(&archive, "u1_lockers.quotas");
        assert_eq!(quotas, "14956 300\n");
        let dirs = member_text(&archive, "u1_lockers.dirs");
        assert_eq!(dirs, "/u1/lockers/mtalford 14956 5904 HOMEDIR\n");
    }

    #[test]
    fn non_autocreate_lockers_excluded() {
        let (mut s, mach_id) = setup();
        let r = Registry::standard();
        r.execute(
            &mut s,
            &Caller::new("ops", "t"),
            "add_filesys",
            &[
                "noauto".into(),
                "NFS".into(),
                "CHARON".into(),
                "/u1/lockers/noauto".into(),
                "/mit/noauto".into(),
                "w".into(),
                "".into(),
                "mstai".into(),
                "mtalford".into(),
                "0".into(),
                "PROJECT".into(),
            ],
        )
        .unwrap();
        let archive = for_host(&s, mach_id, "");
        let dirs = member_text(&archive, "u1_lockers.dirs");
        assert!(!dirs.contains("noauto"));
    }
}
