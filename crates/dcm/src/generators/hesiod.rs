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
use moira_db::{Pred, Relation, RowId, TableId};

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

/// True when the users row is an active account.
fn user_active(state: &MoiraState, row: RowId) -> bool {
    state.db.table(users::T).cell(row, users::STATUS).as_int() == 1
}

/// `cluster.db`, first half: one cluster's data lines.
fn frag_cluster(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let clusters = state.db.table(cluster::T);
    let name = clusters.cell(row, cluster::NAME).as_str().to_owned();
    let clu_id = clusters.cell(row, cluster::CLU_ID).as_int();
    let mut text = String::new();
    for srow in state.db.select(&Pred::Eq(svc::CLU_ID, clu_id.into())) {
        let label = state.db.cell(srow, svc::SERV_LABEL).render();
        let data = state.db.cell(srow, svc::SERV_CLUSTER).render();
        text.push_str(&unspeca(&name, "cluster", &format!("{label} {data}")));
    }
    Some(((row as i64, String::new()), text))
}

/// `cluster.db`, second half: a CNAME per machine; a machine in several
/// clusters gets a pseudo-cluster holding the union.
fn frag_cluster_machine(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let machines = state.db.table(machine::T);
    let mach = machines.cell(row, machine::NAME).as_str().to_owned();
    let mach_id = machines.cell(row, machine::MACH_ID).as_int();
    let memberships = state.db.select(&Pred::Eq(mcmap::MACH_ID, mach_id.into()));
    let mut text = String::new();
    match memberships.len() {
        0 => {}
        1 => {
            let clu_id = state.db.cell(memberships[0], mcmap::CLU_ID).as_int();
            if let Some(crow) = state
                .db
                .table(cluster::T)
                .select_one(&Pred::Eq(cluster::CLU_ID, clu_id.into()))
            {
                let cluster = state.db.cell(crow, cluster::NAME).render();
                text.push_str(&cname(&mach, "cluster", &format!("{cluster}.cluster")));
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
            text.push_str(&cname(&mach, "cluster", &format!("{pseudo}.cluster")));
        }
    }
    Some(((row as i64, String::new()), text))
}

/// `filsys.db`: every filesystem entry needed to find and attach lockers.
fn frag_filsys(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let t = state.db.table(filesys::T);
    let label = t.cell(row, filesys::LABEL).as_str().to_owned();
    let fstype = t.cell(row, filesys::TYPE).as_str().to_owned();
    let name = t.cell(row, filesys::NAME).as_str().to_owned();
    let machine = machine_name_upper(state, t.cell(row, filesys::MACH_ID).as_int())
        .to_ascii_lowercase()
        .split('.')
        .next()
        .unwrap_or_default()
        .to_owned();
    let access = t.cell(row, filesys::ACCESS).as_str().to_owned();
    let mount = t.cell(row, filesys::MOUNT).as_str().to_owned();
    let line = unspeca(
        &label,
        "filsys",
        &format!("{fstype} {name} {machine} {access} {mount}"),
    );
    // NUL joins (label, line) so the key sorts as the tuple would (labels
    // are not unique across filesystems).
    Some(((0, format!("{label}\u{0}{line}")), line))
}

/// `gid.db`: group ID numbers to group entries.
fn frag_gid(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let t = state.db.table(list::T);
    if !(t.cell(row, list::ACTIVE).as_bool() && t.cell(row, list::GROUPLIST).as_bool()) {
        return None;
    }
    let name = t.cell(row, list::NAME).as_str().to_owned();
    let gid = t.cell(row, list::GID).as_int();
    let line = cname(&gid.to_string(), "gid", &format!("{name}.group"));
    Some(((0, name), line))
}

/// `group.db`: `/etc/group`-shaped entries (members never filled in).
fn frag_group(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let t = state.db.table(list::T);
    if !(t.cell(row, list::ACTIVE).as_bool() && t.cell(row, list::GROUPLIST).as_bool()) {
        return None;
    }
    let name = t.cell(row, list::NAME).as_str().to_owned();
    let gid = t.cell(row, list::GID).as_int();
    let line = unspeca(&name, "group", &format!("{name}:*:{gid}:"));
    Some(((0, name), line))
}

/// `grplist.db`: per-user colon-separated (group, gid) pairs.
fn frag_grplist(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    if !user_active(state, row) {
        return None;
    }
    let t = state.db.table(users::T);
    let login = t.cell(row, users::LOGIN).as_str().to_owned();
    let users_id = t.cell(row, users::USERS_ID).as_int();
    let mut entry = login.clone();
    for (gname, gid) in groups_of_user(state, users_id) {
        entry.push_str(&format!(":{gname}:{gid}"));
    }
    let line = unspeca(&login, "grplist", &entry);
    Some(((0, login), line))
}

/// `passwd.db`: `/etc/passwd`-shaped entries for active users.
fn frag_passwd(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    if !user_active(state, row) {
        return None;
    }
    let t = state.db.table(users::T);
    let login = t.cell(row, users::LOGIN).as_str().to_owned();
    let line = unspeca(&login, "passwd", &passwd_line(state, row));
    Some(((0, login), line))
}

/// `pobox.db`: the location of each active POP user's post office box.
fn frag_pobox(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    if !user_active(state, row) {
        return None;
    }
    let t = state.db.table(users::T);
    if t.cell(row, users::POTYPE).as_str() != "POP" {
        return None;
    }
    let login = t.cell(row, users::LOGIN).as_str().to_owned();
    let machine = machine_name_upper(state, t.cell(row, users::POP_ID).as_int());
    let line = unspeca(&login, "pobox", &format!("POP {machine} {login}"));
    Some(((0, login), line))
}

/// `printcap.db`: `/etc/printcap` entries.
fn frag_printcap(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let t = state.db.table(printcap::T);
    let name = t.cell(row, printcap::NAME).as_str().to_owned();
    let rp = t.cell(row, printcap::RP).as_str().to_owned();
    let rm = machine_name_upper(state, t.cell(row, printcap::MACH_ID).as_int());
    let sd = t.cell(row, printcap::DIR).as_str().to_owned();
    let line = unspeca(&name, "pcap", &format!("{name}:rp={rp}:rm={rm}:sd={sd}"));
    Some(((0, line.clone()), line))
}

/// `service.db`: `/etc/services` entries.
fn frag_service(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let t = state.db.table(services::T);
    let name = t.cell(row, services::NAME).as_str().to_owned();
    let proto = t
        .cell(row, services::PROTOCOL)
        .as_str()
        .to_ascii_lowercase();
    let port = t.cell(row, services::PORT).as_int();
    let line = unspeca(&name, "service", &format!("{name} {proto} {port}"));
    Some(((0, line.clone()), line))
}

/// `sloc.db`: DCM service/host tuples, indexed by service.
fn frag_sloc(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    let t = state.db.table(serverhosts::T);
    let service = t.cell(row, serverhosts::SERVICE).as_str().to_owned();
    let machine = machine_name_upper(state, t.cell(row, serverhosts::MACH_ID).as_int());
    let line = format!("{service}.sloc\tHS UNSPECA\t{machine}\n");
    Some(((0, line.clone()), line))
}

/// `uid.db`: unix UIDs to password entries, in stable uid order.
fn frag_uid(state: &MoiraState, row: RowId) -> Option<(LineKey, String)> {
    if !user_active(state, row) {
        return None;
    }
    let t = state.db.table(users::T);
    let login = t.cell(row, users::LOGIN).as_str().to_owned();
    let uid = t.cell(row, users::UID).as_int();
    let line = cname(&uid.to_string(), "uid", &format!("{login}.passwd"));
    Some(((uid, login), line))
}

fn passwd_line(state: &MoiraState, row: RowId) -> String {
    let t = state.db.table(users::T);
    format!(
        "{}:*:{}:101:{},,,,:/mit/{}:{}",
        t.cell(row, users::LOGIN).render(),
        t.cell(row, users::UID).render(),
        t.cell(row, users::FULLNAME).render(),
        t.cell(row, users::LOGIN).render(),
        t.cell(row, users::SHELL).render(),
    )
}

pub(crate) fn machine_name_upper(state: &MoiraState, mach_id: i64) -> String {
    state
        .db
        .table(machine::T)
        .select_one(&Pred::Eq(machine::MACH_ID, mach_id.into()))
        .map(|r| state.db.cell(r, machine::NAME).render())
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
