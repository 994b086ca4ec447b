//! Experiment E1: the §5.1.G File Organization table.
//!
//! Builds the paper-scale population (10,000 active users, 20 NFS servers,
//! one Hesiod target, one mail hub, three Zephyr servers), runs every
//! generator, and prints Service / File / Size / Number / Propagations /
//! Interval with the paper's reported sizes alongside. The paper's totals
//! — 59 files, 90 propagations — are reproduced structurally.

use moira_bench::{write_json, Table};
use moira_core::registry::Registry;
use moira_core::schema::machine;
use moira_core::seed::seed_capacls;
use moira_core::state::MoiraState;
use moira_db::Pred;
use moira_dcm::generators::hesiod::HesiodGenerator;
use moira_dcm::generators::mail::MailGenerator;
use moira_dcm::generators::nfs::NfsGenerator;
use moira_dcm::generators::zephyr::ZephyrGenerator;
use moira_dcm::generators::Generator;
use moira_sim::{populate, PopulationSpec};

/// The paper's reported sizes, byte for byte, for the comparison column.
const PAPER: &[(&str, &str, u64, u64, u64, &str)] = &[
    ("Hesiod", "cluster.db", 53_656, 1, 1, "6 hours"),
    ("Hesiod", "filsys.db", 541_482, 1, 1, "6 hours"),
    ("Hesiod", "gid.db", 341_012, 1, 1, "6 hours"),
    ("Hesiod", "group.db", 453_636, 1, 1, "6 hours"),
    ("Hesiod", "grplist.db", 357_662, 1, 1, "6 hours"),
    ("Hesiod", "passwd.db", 712_446, 1, 1, "6 hours"),
    ("Hesiod", "pobox.db", 415_688, 1, 1, "6 hours"),
    ("Hesiod", "printcap.db", 4_318, 1, 1, "6 hours"),
    ("Hesiod", "service.db", 9_052, 1, 1, "6 hours"),
    ("Hesiod", "sloc.db", 3_734, 1, 1, "6 hours"),
    ("Hesiod", "uid.db", 256_381, 1, 1, "6 hours"),
    ("NFS", "<partition>.dirs", 2_784, 20, 20, "12 hours"),
    ("NFS", "<partition>.quotas", 1_205, 20, 20, "12 hours"),
    ("NFS", "credentials", 152_648, 1, 20, "12 hours"),
    ("Mail", "/usr/lib/aliases", 445_000, 1, 1, "24 hours"),
    ("Zephyr", "class.acl", 100, 6, 18, "24 hours"),
];

fn main() {
    eprintln!("building the 10,000-user Athena population (this is the paper's full scale)…");
    let spec = PopulationSpec::athena_1988();
    let registry = Registry::standard();
    let mut state = MoiraState::new(moira_common::VClock::new());
    seed_capacls(&mut state, &registry);
    let t0 = std::time::Instant::now();
    let report = populate(&mut state, &registry, &spec).expect("population");
    eprintln!(
        "populated: {} active users, {} queries, {:.1}s",
        report.active_logins.len(),
        report.queries_run,
        t0.elapsed().as_secs_f64()
    );

    let t1 = std::time::Instant::now();
    let hesiod = HesiodGenerator
        .generate(&state, "")
        .expect("hesiod generation");
    let mail = MailGenerator.generate(&state, "").expect("mail generation");
    let zephyr = ZephyrGenerator
        .generate(&state, "")
        .expect("zephyr generation");
    // NFS files are per-host; take the first server as the representative
    // (as the paper's single-size rows do) and count all twenty.
    let nfs_mach_ids: Vec<i64> = report
        .nfs_servers
        .iter()
        .map(|name| {
            let row = state
                .db
                .table(machine::T)
                .select_one(&Pred::Eq(machine::NAME, name.as_str().into()))
                .expect("nfs server machine");
            state.db.cell(row, machine::MACH_ID).as_int()
        })
        .collect();
    let nfs_shared = NfsGenerator.generate(&state, "").expect("nfs generation");
    let nfs_archives: Vec<_> = nfs_mach_ids
        .iter()
        .map(|&m| {
            NfsGenerator::for_host(&state, m, "", &nfs_shared).expect("distinct partition stems")
        })
        .collect();
    eprintln!(
        "generated all service files in {:.2}s",
        t1.elapsed().as_secs_f64()
    );

    let mut measured: Vec<(String, String, u64, u64, u64, String)> = Vec::new();
    let hesiod_props = report.hesiod_servers.len() as u64;
    for (name, data) in hesiod.iter() {
        measured.push((
            "Hesiod".into(),
            name.to_owned(),
            data.len() as u64,
            1,
            hesiod_props,
            "6 hours".into(),
        ));
    }
    let rep = &nfs_archives[0];
    let dirs_size = rep
        .iter()
        .find(|(n, _)| n.ends_with(".dirs"))
        .map(|(_, d)| d.len())
        .unwrap_or(0);
    let quota_size = rep
        .iter()
        .find(|(n, _)| n.ends_with(".quotas"))
        .map(|(_, d)| d.len())
        .unwrap_or(0);
    let cred_size = rep.get("credentials").map(|d| d.len()).unwrap_or(0);
    let n = nfs_archives.len() as u64;
    measured.push((
        "NFS".into(),
        "<partition>.dirs".into(),
        dirs_size as u64,
        n,
        n,
        "12 hours".into(),
    ));
    measured.push((
        "NFS".into(),
        "<partition>.quotas".into(),
        quota_size as u64,
        n,
        n,
        "12 hours".into(),
    ));
    measured.push((
        "NFS".into(),
        "credentials".into(),
        cred_size as u64,
        1,
        n,
        "12 hours".into(),
    ));
    let aliases_size = mail.get("aliases").map(|d| d.len()).unwrap_or(0);
    measured.push((
        "Mail".into(),
        "/usr/lib/aliases".into(),
        aliases_size as u64,
        1,
        report.mail_hubs.len() as u64,
        "24 hours".into(),
    ));
    let zfiles = zephyr.len() as u64;
    let zsize = (zephyr.payload_size() as u64)
        .checked_div(zfiles)
        .unwrap_or(0);
    let zprops = zfiles * report.zephyr_servers.len() as u64;
    measured.push((
        "Zephyr".into(),
        "class.acl".into(),
        zsize,
        zfiles,
        zprops,
        "24 hours".into(),
    ));

    let mut table = Table::new(&[
        "Service",
        "File",
        "Size",
        "Paper size",
        "Number",
        "Propagations",
        "Interval",
    ]);
    let mut total_files = 0u64;
    let mut total_props = 0u64;
    let mut json_rows = Vec::new();
    for (svc, file, size, number, props, interval) in &measured {
        let paper = PAPER
            .iter()
            .find(|(ps, pf, ..)| ps == svc && (pf == file || file.ends_with(pf)))
            .map(|(_, _, sz, ..)| sz.to_string())
            .unwrap_or_else(|| "-".into());
        table.row(&[
            svc.clone(),
            file.clone(),
            size.to_string(),
            paper,
            number.to_string(),
            props.to_string(),
            interval.clone(),
        ]);
        total_files += number;
        total_props += props;
        json_rows.push(serde_json::json!({
            "service": svc, "file": file, "size": size,
            "number": number, "propagations": props, "interval": interval,
        }));
    }
    table.row(&[
        "TOTAL".into(),
        String::new(),
        String::new(),
        String::new(),
        total_files.to_string(),
        total_props.to_string(),
        String::new(),
    ]);
    table.print("E1 — File Organization (paper §5.1.G; paper totals: 59 files, 90 propagations)");
    println!(
        "\nmeasured totals: {total_files} files, {total_props} propagations \
         (paper: 59 files, 90 propagations)"
    );
    write_json(
        "table_file_org",
        &serde_json::json!({
            "rows": json_rows,
            "total_files": total_files,
            "total_propagations": total_props,
            "paper_total_files": 59,
            "paper_total_propagations": 90,
        }),
    );
}
