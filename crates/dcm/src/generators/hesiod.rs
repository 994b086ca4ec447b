//! The Hesiod generator: eleven BIND-format `.db` files (§5.8.2).
//!
//! "Moira's responsibility to hesiod is to provide authoritative data.
//! Hesiod uses a BIND data format in all of it's data files." Every Hesiod
//! server receives the same archive; the install script restarts the
//! nameserver so the new files are read into memory.

use moira_core::schema::{
    cluster, filesys, list, machine, mcmap, members, nfsphys, printcap, serverhosts, services,
    strings, svc, users,
};
use moira_core::state::MoiraState;
use moira_db::{Pred, Relation, Row, RowId, TableId};

use super::incremental::{DeltaPlan, LineKey, Section, SectionKind};
use super::{groups_of_user, Generator};

/// Generator for the HESIOD service.
pub struct HesiodGenerator;

/// Formats one BIND `UNSPECA` line.
fn unspeca(name: &str, kind: &str, data: &str) -> String {
    format!("{name}.{kind}\tHS UNSPECA\t\"{data}\"\n")
}

/// Formats one BIND `CNAME` line.
fn cname(name: &str, kind: &str, target: &str) -> String {
    format!("{name}.{kind}\tHS CNAME\t{target}\n")
}

impl Generator for HesiodGenerator {
    fn service(&self) -> &'static str {
        "HESIOD"
    }

    fn depends_on(&self) -> &'static [TableId] {
        &[
            users::R::ID,
            list::R::ID,
            members::R::ID,
            filesys::R::ID,
            machine::R::ID,
            cluster::R::ID,
            mcmap::R::ID,
            svc::R::ID,
            printcap::R::ID,
            services::R::ID,
            serverhosts::R::ID,
            strings::R::ID,
            nfsphys::R::ID,
        ]
    }

    fn delta_plan(&self) -> DeltaPlan {
        DeltaPlan {
            sections: vec![
                // cluster.db = per-cluster svc lines, then per-machine
                // CNAMEs/pseudo-clusters; two sections, same file.
                Section {
                    file: "cluster.db",
                    driver: cluster::R::ID,
                    lookups: &[svc::R::ID],
                    kind: SectionKind::Lines(frag_cluster),
                    affected: None,
                },
                Section {
                    file: "cluster.db",
                    driver: machine::R::ID,
                    lookups: &[mcmap::R::ID, cluster::R::ID, svc::R::ID],
                    kind: SectionKind::Lines(frag_cluster_machine),
                    affected: None,
                },
                Section {
                    file: "filsys.db",
                    driver: filesys::R::ID,
                    lookups: &[machine::R::ID],
                    kind: SectionKind::Lines(frag_filsys),
                    affected: None,
                },
                Section {
                    file: "gid.db",
                    driver: list::R::ID,
                    lookups: &[],
                    kind: SectionKind::Lines(frag_gid),
                    affected: None,
                },
                Section {
                    file: "group.db",
                    driver: list::R::ID,
                    lookups: &[],
                    kind: SectionKind::Lines(frag_group),
                    affected: None,
                },
                Section {
                    file: "grplist.db",
                    driver: users::R::ID,
                    lookups: &[list::R::ID, members::R::ID],
                    kind: SectionKind::Lines(frag_grplist),
                    affected: None,
                },
                Section {
                    file: "passwd.db",
                    driver: users::R::ID,
                    lookups: &[],
                    kind: SectionKind::Lines(frag_passwd),
                    affected: None,
                },
                Section {
                    file: "pobox.db",
                    driver: users::R::ID,
                    lookups: &[machine::R::ID],
                    kind: SectionKind::Lines(frag_pobox),
                    affected: None,
                },
                Section {
                    file: "printcap.db",
                    driver: printcap::R::ID,
                    lookups: &[machine::R::ID],
                    kind: SectionKind::Lines(frag_printcap),
                    affected: None,
                },
                Section {
                    file: "service.db",
                    driver: services::R::ID,
                    lookups: &[],
                    kind: SectionKind::Lines(frag_service),
                    affected: None,
                },
                Section {
                    file: "sloc.db",
                    driver: serverhosts::R::ID,
                    lookups: &[machine::R::ID],
                    kind: SectionKind::Lines(frag_sloc),
                    affected: None,
                },
                Section {
                    file: "uid.db",
                    driver: users::R::ID,
                    lookups: &[],
                    kind: SectionKind::Lines(frag_uid),
                    affected: None,
                },
            ],
        }
    }
}

/// Users row `row`, when it is an active account.
fn active_user(state: &MoiraState, row: RowId) -> Option<Row<'_, users::R>> {
    let r = state.db.table(users::T).row(row).ok();
    r.filter(|r| r.get(users::STATUS) == 1)
}

/// `cluster.db`, first half: one cluster's data lines.
fn frag_cluster(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let c = state.db.table(cluster::T).row(row).ok()?;
    let name = c.get(cluster::NAME);
    let mut text = String::new();
    let svcs = state.db.table(svc::T);
    for r in svcs.rows(&Pred::Eq(svc::CLU_ID, c.get(cluster::CLU_ID).into())) {
        let label = r.get(svc::SERV_LABEL);
        let data = r.get(svc::SERV_CLUSTER);
        text.push_str(&unspeca(name, "cluster", &format!("{label} {data}")));
    }
    Some(((row as i64, String::new()), text))
}

/// `cluster.db`, second half: a CNAME per machine; a machine in several
/// clusters gets a pseudo-cluster holding the union.
fn frag_cluster_machine(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let m = state.db.table(machine::T).row(row).ok()?;
    let (mach, mach_id) = (m.get(machine::NAME), m.get(machine::MACH_ID));
    let memberships = state.db.select(&Pred::Eq(mcmap::MACH_ID, mach_id.into()));
    let mut text = String::new();
    match memberships.as_slice() {
        [] => {}
        [only] => {
            let clu_id = state.db.table(mcmap::T).row(*only).ok()?.get(mcmap::CLU_ID);
            let clusters = state.db.table(cluster::T);
            if let Some(c) = clusters.find(&Pred::Eq(cluster::CLU_ID, clu_id.into())) {
                let cluster = c.get(cluster::NAME);
                text.push_str(&cname(mach, "cluster", &format!("{cluster}.cluster")));
            }
        }
        _ => {
            // "A pseudo-cluster will be made by Moira which has as its
            // cluster data, the union of the data of each of the other
            // clusters this machine is in."
            let pseudo = format!("{}-pseudo", mach.to_ascii_lowercase());
            for (label, data) in
                moira_core::queries::machines::cluster_data_for_machine(state, mach_id)
            {
                text.push_str(&unspeca(&pseudo, "cluster", &format!("{label} {data}")));
            }
            text.push_str(&cname(mach, "cluster", &format!("{pseudo}.cluster")));
        }
    }
    Some(((row as i64, String::new()), text))
}

/// `filsys.db`: every filesystem entry needed to find and attach lockers.
fn frag_filsys(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = state.db.table(filesys::T).row(row).ok()?;
    let (label, fstype, name) = (
        r.get(filesys::LABEL),
        r.get(filesys::TYPE),
        r.get(filesys::NAME),
    );
    let host = machine_name_upper(state, r.get(filesys::MACH_ID)).to_ascii_lowercase();
    let machine = host.split('.').next().unwrap_or_default();
    let (access, mount) = (r.get(filesys::ACCESS), r.get(filesys::MOUNT));
    let line = unspeca(
        label,
        "filsys",
        &format!("{fstype} {name} {machine} {access} {mount}"),
    );
    // NUL joins (label, line) so the key sorts as the tuple would (labels
    // are not unique across filesystems).
    Some(((0, format!("{label}\u{0}{line}")), line))
}

/// `gid.db`: group ID numbers to group entries.
fn frag_gid(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = state.db.table(list::T).row(row).ok()?;
    if !(r.get(list::ACTIVE) && r.get(list::GROUPLIST)) {
        return None;
    }
    let (name, gid) = (r.get(list::NAME), r.get(list::GID));
    let line = cname(&gid.to_string(), "gid", &format!("{name}.group"));
    Some(((0, name.to_owned()), line))
}

/// `group.db`: `/etc/group`-shaped entries (members never filled in).
fn frag_group(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = state.db.table(list::T).row(row).ok()?;
    if !(r.get(list::ACTIVE) && r.get(list::GROUPLIST)) {
        return None;
    }
    let (name, gid) = (r.get(list::NAME), r.get(list::GID));
    let line = unspeca(name, "group", &format!("{name}:*:{gid}:"));
    Some(((0, name.to_owned()), line))
}

/// `grplist.db`: per-user colon-separated (group, gid) pairs.
fn frag_grplist(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = active_user(state, row)?;
    let login = r.get(users::LOGIN);
    let mut entry = login.to_owned();
    for (gname, gid) in groups_of_user(state, r.get(users::USERS_ID)) {
        entry.push_str(&format!(":{gname}:{gid}"));
    }
    let line = unspeca(login, "grplist", &entry);
    Some(((0, login.to_owned()), line))
}

/// `passwd.db`: `/etc/passwd`-shaped entries for active users.
fn frag_passwd(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = active_user(state, row)?;
    let login = r.get(users::LOGIN);
    let line = unspeca(login, "passwd", &passwd_line(r));
    Some(((0, login.to_owned()), line))
}

/// `pobox.db`: the location of each active POP user's post office box.
fn frag_pobox(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = active_user(state, row)?;
    if r.get(users::POTYPE) != "POP" {
        return None;
    }
    let login = r.get(users::LOGIN);
    let machine = machine_name_upper(state, r.get(users::POP_ID));
    let line = unspeca(login, "pobox", &format!("POP {machine} {login}"));
    Some(((0, login.to_owned()), line))
}

/// `printcap.db`: `/etc/printcap` entries.
fn frag_printcap(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = state.db.table(printcap::T).row(row).ok()?;
    let (name, rp, sd) = (
        r.get(printcap::NAME),
        r.get(printcap::RP),
        r.get(printcap::DIR),
    );
    let rm = machine_name_upper(state, r.get(printcap::MACH_ID));
    let line = unspeca(name, "pcap", &format!("{name}:rp={rp}:rm={rm}:sd={sd}"));
    Some(((0, line.clone()), line))
}

/// `service.db`: `/etc/services` entries.
fn frag_service(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = state.db.table(services::T).row(row).ok()?;
    let name = r.get(services::NAME);
    let proto = r.get(services::PROTOCOL).to_ascii_lowercase();
    let port = r.get(services::PORT);
    let line = unspeca(name, "service", &format!("{name} {proto} {port}"));
    Some(((0, line.clone()), line))
}

/// `sloc.db`: DCM service/host tuples, indexed by service.
fn frag_sloc(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = state.db.table(serverhosts::T).row(row).ok()?;
    let service = r.get(serverhosts::SERVICE);
    let machine = machine_name_upper(state, r.get(serverhosts::MACH_ID));
    let line = format!("{service}.sloc\tHS UNSPECA\t{machine}\n");
    Some(((0, line.clone()), line))
}

/// `uid.db`: unix UIDs to password entries, in stable uid order.
fn frag_uid(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let r = active_user(state, row)?;
    let (login, uid) = (r.get(users::LOGIN), r.get(users::UID));
    let line = cname(&uid.to_string(), "uid", &format!("{login}.passwd"));
    Some(((uid, login.to_owned()), line))
}

fn passwd_line(r: Row<'_, users::R>) -> String {
    format!(
        "{}:*:{}:101:{},,,,:/mit/{}:{}",
        r.get(users::LOGIN),
        r.get(users::UID),
        r.get(users::FULLNAME),
        r.get(users::LOGIN),
        r.get(users::SHELL),
    )
}

pub(crate) fn machine_name_upper(state: &MoiraState, mach_id: i64) -> String {
    state
        .db
        .table(machine::T)
        .find(&Pred::Eq(machine::MACH_ID, mach_id.into()))
        .map_or_else(
            || format!("#{mach_id}"),
            |r| r.get(machine::NAME).to_owned(),
        )
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
        run(&mut s, "add_machine", &["CHARON", "VAX"]);
        run(&mut s, "add_machine", &["ATHENA-PO-2.MIT.EDU", "VAX"]);
        run(&mut s, "add_machine", &["BLANKET.MIT.EDU", "VAX"]);
        run(
            &mut s,
            "add_user",
            &[
                "babette", "6530", "/bin/csh", "Fowler", "Harmon", "C", "1", "x1", "1990",
            ],
        );
        run(
            &mut s,
            "update_finger_by_login",
            &["babette", "Harmon C Fowler", "", "", "", "", "", "", ""],
        );
        run(
            &mut s,
            "add_user",
            &[
                "ghost", "6599", "/bin/csh", "Gone", "Al", "", "0", "x2", "1990",
            ],
        );
        run(
            &mut s,
            "set_pobox",
            &["babette", "POP", "ATHENA-PO-2.MIT.EDU"],
        );
        run(
            &mut s,
            "add_list",
            &[
                "babette", "1", "0", "0", "0", "1", "10914", "NONE", "NONE", "",
            ],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["babette", "USER", "babette"],
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
                "aab",
                "NFS",
                "CHARON",
                "/u1/lockers/aab",
                "/mit/aab",
                "w",
                "",
                "babette",
                "babette",
                "1",
                "HOMEDIR",
            ],
        );
        run(
            &mut s,
            "add_printcap",
            &[
                "linus",
                "BLANKET.MIT.EDU",
                "/usr/spool/printer/linus",
                "linus",
                "",
            ],
        );
        run(&mut s, "add_service", &["smtp", "TCP", "25", "mail"]);
        run(
            &mut s,
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
        );
        run(
            &mut s,
            "add_server_host_info",
            &["HESIOD", "CHARON", "1", "0", "0", ""],
        );
        run(&mut s, "add_cluster", &["bldge40-vs", "", "E40"]);
        run(&mut s, "add_cluster", &["bldge40-rt", "", "E40"]);
        run(
            &mut s,
            "add_cluster_data",
            &["bldge40-vs", "zephyr", "neskaya.mit.edu"],
        );
        run(&mut s, "add_cluster_data", &["bldge40-rt", "lpr", "e40"]);
        run(&mut s, "add_machine", &["TOTO", "RT"]);
        run(&mut s, "add_machine", &["SCARECROW", "RT"]);
        run(&mut s, "add_machine_to_cluster", &["TOTO", "bldge40-rt"]);
        run(
            &mut s,
            "add_machine_to_cluster",
            &["SCARECROW", "bldge40-rt"],
        );
        run(
            &mut s,
            "add_machine_to_cluster",
            &["SCARECROW", "bldge40-vs"],
        );
        s
    }

    /// One generated file, read out of the archive.
    fn file(s: &MoiraState, name: &str) -> String {
        member_text(&HesiodGenerator.generate(s, "").unwrap(), name)
    }

    #[test]
    fn passwd_and_uid_cross_reference() {
        let s = setup();
        let passwd = file(&s, "passwd.db");
        assert!(passwd.contains(
            "babette.passwd\tHS UNSPECA\t\"babette:*:6530:101:Harmon C Fowler,,,,:/mit/babette:/bin/csh\""
        ));
        // Inactive users excluded.
        assert!(!passwd.contains("ghost"));
        let uid = file(&s, "uid.db");
        assert!(uid.contains("6530.uid\tHS CNAME\tbabette.passwd"));
        assert!(!uid.contains("6599"));
        // Every uid entry points at a passwd entry.
        for line in uid.lines() {
            let target = line.rsplit('\t').next().unwrap();
            assert!(passwd.contains(&format!("{target}\t")), "{target}");
        }
    }

    #[test]
    fn pobox_entries() {
        let s = setup();
        let pobox = file(&s, "pobox.db");
        assert!(pobox.contains("babette.pobox\tHS UNSPECA\t\"POP ATHENA-PO-2.MIT.EDU babette\""));
        assert_eq!(pobox.lines().count(), 1);
    }

    #[test]
    fn group_files_consistent() {
        let s = setup();
        let group = file(&s, "group.db");
        let gid = file(&s, "gid.db");
        let grplist = file(&s, "grplist.db");
        assert!(group.contains("babette.group\tHS UNSPECA\t\"babette:*:10914:\""));
        assert!(gid.contains("10914.gid\tHS CNAME\tbabette.group"));
        assert!(grplist.contains("\"babette:babette:10914\""));
    }

    #[test]
    fn filsys_format() {
        let s = setup();
        let f = file(&s, "filsys.db");
        assert!(
            f.contains("aab.filsys\tHS UNSPECA\t\"NFS /u1/lockers/aab charon w /mit/aab\""),
            "{f}"
        );
    }

    #[test]
    fn printcap_service_sloc() {
        let s = setup();
        assert!(file(&s, "printcap.db").contains(
            "linus.pcap\tHS UNSPECA\t\"linus:rp=linus:rm=BLANKET.MIT.EDU:sd=/usr/spool/printer/linus\""
        ));
        assert!(file(&s, "service.db").contains("smtp.service\tHS UNSPECA\t\"smtp tcp 25\""));
        assert!(file(&s, "sloc.db").contains("HESIOD.sloc\tHS UNSPECA\tCHARON"));
    }

    #[test]
    fn cluster_pseudo_union() {
        let s = setup();
        let c = file(&s, "cluster.db");
        assert!(c.contains("bldge40-vs.cluster\tHS UNSPECA\t\"zephyr neskaya.mit.edu\""));
        assert!(c.contains("TOTO.cluster\tHS CNAME\tbldge40-rt.cluster"));
        // SCARECROW is in both clusters: pseudo-cluster with the union.
        assert!(c.contains("SCARECROW.cluster\tHS CNAME\tscarecrow-pseudo.cluster"));
        assert!(c.contains("scarecrow-pseudo.cluster\tHS UNSPECA\t\"lpr e40\""));
        assert!(c.contains("scarecrow-pseudo.cluster\tHS UNSPECA\t\"zephyr neskaya.mit.edu\""));
    }

    #[test]
    fn archive_has_eleven_files() {
        let s = setup();
        let archive = HesiodGenerator.generate(&s, "").unwrap();
        assert_eq!(archive.len(), 11);
        assert_eq!(
            archive.member_names(),
            vec![
                "cluster.db",
                "filsys.db",
                "gid.db",
                "group.db",
                "grplist.db",
                "passwd.db",
                "pobox.db",
                "printcap.db",
                "service.db",
                "sloc.db",
                "uid.db"
            ]
        );
    }

    #[test]
    fn no_change_detection() {
        use crate::generators::check_no_change;
        let mut s = setup();
        let cursor = s.generation_cursor(HesiodGenerator.depends_on());
        assert!(
            check_no_change(&HesiodGenerator, &s, &cursor).is_err(),
            "nothing changed"
        );
        // A same-second mutation (no clock advance) must still register —
        // the retired modtime comparison missed exactly this case.
        let r = Registry::standard();
        r.execute(
            &mut s,
            &Caller::new("ops", "t"),
            "add_machine",
            &["NEWBOX".into(), "VAX".into()],
        )
        .unwrap();
        assert!(
            check_no_change(&HesiodGenerator, &s, &cursor).is_ok(),
            "machine changed"
        );
    }
}
