//! The synthetic population generator.
//!
//! Builds an Athena-scale database through the *real* query layer (every
//! record flows through the same validation and ID allocation an
//! administrator's client would exercise), scaled to the paper's system
//! assumptions (§5.1): 10,000 active users, 20 NFS locker servers, one
//! Hesiod replica set, one `/usr/lib/aliases` propagation, Zephyr ACLs.

use moira_common::errors::MrResult;
use moira_common::rng::Mt;
use moira_core::registry::Registry;
use moira_core::state::{Caller, MoiraState};

use crate::names;

/// Scale parameters for a synthetic deployment.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// RNG seed — everything is deterministic given the spec.
    pub seed: u64,
    /// Active accounts (§5.1.A: "designed optimally for 10,000 active
    /// users").
    pub active_users: usize,
    /// Registerable-but-unregistered records (the registrar's tape).
    pub unregistered_users: usize,
    /// Machine clusters.
    pub clusters: usize,
    /// Workstations spread across the clusters.
    pub workstations: usize,
    /// NFS locker servers (§5.1.F: 20).
    pub nfs_servers: usize,
    /// Post office servers.
    pub pop_servers: usize,
    /// Hesiod nameservers (§5.1.F: one propagation target set).
    pub hesiod_servers: usize,
    /// Zephyr servers (class.acl × 3 propagation targets in §5.1.G).
    pub zephyr_servers: usize,
    /// Mail hubs (§5.1.F: one /usr/lib/aliases propagation).
    pub mail_hubs: usize,
    /// Printers.
    pub printers: usize,
    /// `/etc/services` entries.
    pub network_services: usize,
    /// Mailing lists beyond per-user groups.
    pub maillists: usize,
    /// Mean members per mailing list.
    pub maillist_avg_members: usize,
    /// Controlled Zephyr classes.
    pub zephyr_classes: usize,
    /// Dialup/server machines receiving HOSTACCESS-restricted /etc/passwd
    /// files (the PASSWD extension service).
    pub dialup_servers: usize,
}

impl PopulationSpec {
    /// The paper's deployment scale.
    pub fn athena_1988() -> PopulationSpec {
        PopulationSpec {
            seed: 1988,
            active_users: 10_000,
            unregistered_users: 1_000,
            clusters: 30,
            workstations: 1_200,
            nfs_servers: 20,
            pop_servers: 2,
            hesiod_servers: 1,
            zephyr_servers: 3,
            mail_hubs: 1,
            printers: 40,
            network_services: 150,
            maillists: 500,
            maillist_avg_members: 8,
            zephyr_classes: 2,
            dialup_servers: 2,
        }
    }

    /// A two-orders-of-magnitude-smaller population for fast tests.
    pub fn small() -> PopulationSpec {
        PopulationSpec {
            seed: 42,
            active_users: 100,
            unregistered_users: 20,
            clusters: 4,
            workstations: 20,
            nfs_servers: 3,
            pop_servers: 2,
            hesiod_servers: 1,
            zephyr_servers: 2,
            mail_hubs: 1,
            printers: 5,
            network_services: 10,
            maillists: 10,
            maillist_avg_members: 4,
            zephyr_classes: 2,
            dialup_servers: 2,
        }
    }

    /// A production deployment of `users` active accounts, keeping the
    /// paper's 1988 distribution *shapes*: every infrastructure dimension
    /// grows in the same ratio to the user body as the Athena deployment
    /// had (one workstation per ~8 users, a cluster per ~40 workstations,
    /// an NFS locker server per 500 users, a mailing list per 20 users with
    /// the same mean fan-out, and so on), with the fixed singleton services
    /// (Hesiod replica set, mail hub propagation) growing only
    /// logarithmically, as replica sets do.
    pub fn production(users: usize) -> PopulationSpec {
        let base = Self::athena_1988();
        let factor = users as f64 / base.active_users.max(1) as f64;
        let scale = |n: usize| ((n as f64) * factor).round().max(1.0) as usize;
        // Replica-set services: grow with log10 of the scale factor, not
        // linearly — one more replica tier per order of magnitude.
        let tier = factor.max(1.0).log10().ceil() as usize;
        PopulationSpec {
            seed: 1988,
            active_users: users,
            unregistered_users: scale(base.unregistered_users),
            clusters: scale(base.clusters),
            workstations: scale(base.workstations),
            nfs_servers: scale(base.nfs_servers),
            pop_servers: scale(base.pop_servers),
            hesiod_servers: base.hesiod_servers + tier,
            zephyr_servers: base.zephyr_servers + tier,
            mail_hubs: base.mail_hubs + tier,
            printers: scale(base.printers),
            network_services: base.network_services,
            maillists: scale(base.maillists),
            maillist_avg_members: base.maillist_avg_members,
            zephyr_classes: base.zephyr_classes + tier,
            dialup_servers: base.dialup_servers + tier,
        }
    }

    /// A copy scaled by `factor` on the user-proportional dimensions (for
    /// scaling sweeps).
    pub fn scaled_users(&self, users: usize) -> PopulationSpec {
        let mut spec = self.clone();
        let factor = users as f64 / self.active_users.max(1) as f64;
        spec.active_users = users;
        spec.unregistered_users = ((self.unregistered_users as f64) * factor).ceil() as usize;
        spec.maillists = ((self.maillists as f64) * factor).ceil().max(1.0) as usize;
        spec
    }
}

/// What `populate` created, with the names needed to drive experiments.
#[derive(Debug, Clone, Default)]
pub struct PopulationReport {
    /// Logins of active users.
    pub active_logins: Vec<String>,
    /// The registrar records not yet registered: `(first, last, id_number)`.
    pub unregistered: Vec<(String, String, String)>,
    /// NFS server machine names.
    pub nfs_servers: Vec<String>,
    /// Hesiod server machine names.
    pub hesiod_servers: Vec<String>,
    /// Zephyr server machine names.
    pub zephyr_servers: Vec<String>,
    /// Mail hub machine names.
    pub mail_hubs: Vec<String>,
    /// POP server machine names.
    pub pop_servers: Vec<String>,
    /// Public mailing list names.
    pub public_lists: Vec<String>,
    /// Dialup machines receiving restricted /etc/passwd files.
    pub dialup_servers: Vec<String>,
    /// Total queries executed while populating.
    pub queries_run: usize,
}

/// Fills `state` with a synthetic Athena per `spec`. Returns the report.
pub fn populate(
    state: &mut MoiraState,
    registry: &Registry,
    spec: &PopulationSpec,
) -> MrResult<PopulationReport> {
    let mut rng = Mt::new(spec.seed);
    let caller = Caller::root("populate");
    let mut queries_run = 0usize;
    let run = |state: &mut MoiraState,
               queries_run: &mut usize,
               q: &str,
               args: &[String]|
     -> MrResult<()> {
        registry.execute(state, &caller, q, args)?;
        *queries_run += 1;
        Ok(())
    };
    // Like `run`, but tolerates MR_EXISTS (random member picks may repeat).
    let run_dup_ok = |state: &mut MoiraState,
                      queries_run: &mut usize,
                      q: &str,
                      args: &[String]|
     -> MrResult<()> {
        *queries_run += 1;
        match registry.execute(state, &caller, q, args) {
            Ok(_) | Err(moira_common::MrError::Exists) => Ok(()),
            Err(e) => Err(e),
        }
    };
    let s = |v: &str| v.to_owned();

    // --- Server machines -------------------------------------------------
    let mut server_idx = 0usize;
    let mut next_servers = |n: usize| -> Vec<String> {
        let v: Vec<String> = (0..n).map(|k| names::server_name(server_idx + k)).collect();
        server_idx += n;
        v
    };
    let nfs_servers = next_servers(spec.nfs_servers);
    let hesiod_servers = next_servers(spec.hesiod_servers);
    let zephyr_servers = next_servers(spec.zephyr_servers);
    let mail_hubs = next_servers(spec.mail_hubs);
    let dialup_servers: Vec<String> = (0..spec.dialup_servers)
        .map(|i| format!("DIALUP-{}.MIT.EDU", i + 1))
        .collect();
    let pop_servers: Vec<String> = (0..spec.pop_servers)
        .map(|i| format!("ATHENA-PO-{}.MIT.EDU", i + 1))
        .collect();
    let all_servers: Vec<String> = nfs_servers
        .iter()
        .chain(&hesiod_servers)
        .chain(&zephyr_servers)
        .chain(&mail_hubs)
        .chain(&pop_servers)
        .chain(&dialup_servers)
        .cloned()
        .collect();
    for name in &all_servers {
        run(
            state,
            &mut queries_run,
            "add_machine",
            &[name.clone(), s("VAX")],
        )?;
    }

    // --- Clusters and workstations ---------------------------------------
    let cluster_names: Vec<String> = (0..spec.clusters)
        .map(|i| format!("cluster-{i:02}"))
        .collect();
    for (i, name) in cluster_names.iter().enumerate() {
        run(
            state,
            &mut queries_run,
            "add_cluster",
            &[
                name.clone(),
                format!("Cluster {i}"),
                format!("Building {i}"),
            ],
        )?;
        if let Some(z) = zephyr_servers.first() {
            run(
                state,
                &mut queries_run,
                "add_cluster_data",
                &[name.clone(), s("zephyr"), z.to_ascii_lowercase()],
            )?;
        }
        run(
            state,
            &mut queries_run,
            "add_cluster_data",
            &[
                name.clone(),
                s("lpr"),
                format!("prn{:02}", i % spec.printers.max(1)),
            ],
        )?;
    }
    for i in 0..spec.workstations {
        let ws = names::workstation_name(&mut rng, i);
        run(
            state,
            &mut queries_run,
            "add_machine",
            &[ws.clone(), s("RT")],
        )?;
        let cluster = rng.choice(&cluster_names).clone();
        run(
            state,
            &mut queries_run,
            "add_machine_to_cluster",
            &[ws, cluster],
        )?;
    }

    // --- NFS partitions ---------------------------------------------------
    for server in &nfs_servers {
        run(
            state,
            &mut queries_run,
            "add_nfsphys",
            &[
                server.clone(),
                s("/u1/lockers"),
                s("ra0c"),
                s("15"), // student|faculty|staff|misc
                s("0"),
                s("100000000"),
            ],
        )?;
    }

    // --- Services (DCM) ---------------------------------------------------
    // Intervals from the File Organization table: hesiod 6h, NFS 12h,
    // aliases 24h, zephyr 24h.
    for (name, interval, target, script, stype) in [
        (
            "HESIOD",
            "360",
            "/tmp/hesiod.out",
            "install-hesiod",
            "REPLICAT",
        ),
        ("NFS", "720", "/tmp/nfs.out", "install-nfs", "UNIQUE"),
        ("MAIL", "1440", "/tmp/mail.out", "install-mail", "UNIQUE"),
        (
            "ZEPHYR",
            "1440",
            "/tmp/zephyr.out",
            "install-zephyr",
            "REPLICAT",
        ),
        // The PASSWD extension: HOSTACCESS-restricted password files.
        (
            "PASSWD",
            "1440",
            "/tmp/passwd.out",
            "install-passwd",
            "UNIQUE",
        ),
        // POP has no generator; its serverhosts carry pobox load counters.
        ("POP", "0", "", "", "REPLICAT"),
    ] {
        run(
            state,
            &mut queries_run,
            "add_server_info",
            &[
                s(name),
                s(interval),
                s(target),
                s(script),
                s(stype),
                s("1"),
                s("NONE"),
                s("NONE"),
            ],
        )?;
    }
    let host_sets: [(&str, &Vec<String>, &str); 6] = [
        ("HESIOD", &hesiod_servers, "0"),
        ("NFS", &nfs_servers, "0"),
        ("MAIL", &mail_hubs, "0"),
        ("ZEPHYR", &zephyr_servers, "0"),
        ("PASSWD", &dialup_servers, "0"),
        ("POP", &pop_servers, "10000"),
    ];
    for (svc, hosts, value2) in host_sets {
        for h in hosts.iter() {
            run(
                state,
                &mut queries_run,
                "add_server_host_info",
                &[s(svc), h.clone(), s("1"), s("0"), s(value2), s("")],
            )?;
        }
    }

    // --- Printers and network services -------------------------------------
    for i in 0..spec.printers {
        let spool = rng.choice(&nfs_servers).clone();
        run(
            state,
            &mut queries_run,
            "add_printcap",
            &[
                format!("prn{i:02}"),
                spool,
                format!("/usr/spool/printer/prn{i:02}"),
                format!("prn{i:02}"),
                format!("printer {i}"),
            ],
        )?;
    }
    for i in 0..spec.network_services {
        run(
            state,
            &mut queries_run,
            "add_service",
            &[
                format!("svc{i}"),
                if i % 4 == 0 { s("UDP") } else { s("TCP") },
                (1000 + i).to_string(),
                format!("network service {i}"),
            ],
        )?;
    }

    // --- Users --------------------------------------------------------------
    let total_people = spec.active_users + spec.unregistered_users;
    let people = names::people(&mut rng, total_people);
    let mut active_logins = Vec::with_capacity(spec.active_users);
    let mut unregistered = Vec::with_capacity(spec.unregistered_users);
    for (i, person) in people.iter().enumerate() {
        let active = i < spec.active_users;
        let hashed = moira_krb::crypt::hash_mit_id(&person.id_number, &person.first, &person.last);
        if !active {
            // A registrar record: no login, status 0.
            run(
                state,
                &mut queries_run,
                "add_user",
                &[
                    s("#"),
                    s("UNIQUE_UID"),
                    s("/bin/csh"),
                    person.last.clone(),
                    person.first.clone(),
                    person.middle.clone(),
                    s("0"),
                    hashed,
                    person.class.clone(),
                ],
            )?;
            unregistered.push((
                person.first.clone(),
                person.last.clone(),
                person.id_number.clone(),
            ));
            continue;
        }
        run(
            state,
            &mut queries_run,
            "add_user",
            &[
                person.login.clone(),
                s("UNIQUE_UID"),
                s("/bin/csh"),
                person.last.clone(),
                person.first.clone(),
                person.middle.clone(),
                s("1"),
                hashed,
                person.class.clone(),
            ],
        )?;
        // Pobox on a round-robin post office.
        let po = pop_servers[i % pop_servers.len()].clone();
        run(
            state,
            &mut queries_run,
            "set_pobox",
            &[person.login.clone(), s("POP"), po],
        )?;
        // Personal group.
        run(
            state,
            &mut queries_run,
            "add_list",
            &[
                person.login.clone(),
                s("1"),
                s("0"),
                s("0"),
                s("0"),
                s("1"),
                s("UNIQUE_GID"),
                s("USER"),
                person.login.clone(),
                format!("{} group", person.login),
            ],
        )?;
        run(
            state,
            &mut queries_run,
            "add_member_to_list",
            &[person.login.clone(), s("USER"), person.login.clone()],
        )?;
        // Home locker + quota on a round-robin NFS server.
        let server = nfs_servers[i % nfs_servers.len()].clone();
        run(
            state,
            &mut queries_run,
            "add_filesys",
            &[
                person.login.clone(),
                s("NFS"),
                server,
                format!("/u1/lockers/{}", person.login),
                format!("/mit/{}", person.login),
                s("w"),
                s("home"),
                person.login.clone(),
                person.login.clone(),
                s("1"),
                s("HOMEDIR"),
            ],
        )?;
        run(
            state,
            &mut queries_run,
            "add_nfs_quota",
            &[person.login.clone(), person.login.clone(), s("300")],
        )?;
        active_logins.push(person.login.clone());
    }

    // --- Mailing lists -------------------------------------------------------
    let mut public_lists = Vec::new();
    for i in 0..spec.maillists {
        let name = format!("ml-{i:03}");
        let public = rng.chance(0.5);
        run(
            state,
            &mut queries_run,
            "add_list",
            &[
                name.clone(),
                s("1"),
                if public { s("1") } else { s("0") },
                s("0"),
                s("1"),
                s("0"),
                s("-1"),
                s("NONE"),
                s("NONE"),
                format!("Mailing list {i}"),
            ],
        )?;
        let member_count = 1 + rng.below(2 * spec.maillist_avg_members as u64) as usize;
        for _ in 0..member_count {
            let member = rng.choice(&active_logins).clone();
            run_dup_ok(
                state,
                &mut queries_run,
                "add_member_to_list",
                &[name.clone(), s("USER"), member],
            )?;
        }
        if public {
            public_lists.push(name);
        }
    }

    // --- Zephyr classes --------------------------------------------------------
    for i in 0..spec.zephyr_classes {
        let ctl = format!("zctl-{i}");
        run(
            state,
            &mut queries_run,
            "add_list",
            &[
                ctl.clone(),
                s("1"),
                s("0"),
                s("0"),
                s("0"),
                s("0"),
                s("-1"),
                s("NONE"),
                s("NONE"),
                format!("zephyr class {i} controllers"),
            ],
        )?;
        for _ in 0..3 {
            let member = rng.choice(&active_logins).clone();
            run_dup_ok(
                state,
                &mut queries_run,
                "add_member_to_list",
                &[ctl.clone(), s("USER"), member],
            )?;
        }
        // Three restricted slots per class: with the paper's two classes
        // this yields the File Organization table's six ACL files.
        run(
            state,
            &mut queries_run,
            "add_zephyr_class",
            &[
                format!("zclass-{i}"),
                s("LIST"),
                ctl.clone(),
                s("LIST"),
                ctl.clone(),
                s("LIST"),
                ctl,
                s("NONE"),
                s("NONE"),
            ],
        )?;
    }

    // The first dialup machine is access-restricted to the operations
    // staff through HOSTACCESS; the rest carry full password files.
    if let Some(first_dialup) = dialup_servers.first() {
        run(
            state,
            &mut queries_run,
            "add_server_host_access",
            &[first_dialup.clone(), s("LIST"), s("moira-admins")],
        )?;
    }

    Ok(PopulationReport {
        active_logins,
        unregistered,
        nfs_servers,
        hesiod_servers,
        zephyr_servers,
        mail_hubs,
        pop_servers,
        public_lists,
        dialup_servers,
        queries_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moira_core::queries::testutil::state_with_admin;
    use moira_core::schema::{filesys, nfsphys, nfsquota, users};

    fn build_small() -> (MoiraState, Registry, PopulationReport) {
        let (mut state, _) = state_with_admin("ops");
        let registry = Registry::standard();
        let report = populate(&mut state, &registry, &PopulationSpec::small()).unwrap();
        (state, registry, report)
    }

    #[test]
    fn small_population_builds() {
        let (state, _, report) = build_small();
        assert_eq!(report.active_logins.len(), 100);
        assert_eq!(report.unregistered.len(), 20);
        assert_eq!(report.nfs_servers.len(), 3);
        // users = 100 active + 20 unregistered + 1 admin.
        assert_eq!(state.db.table(users::T).len(), 121);
        // Every active user has a personal group, a locker, and a quota.
        assert_eq!(state.db.table(nfsquota::T).len(), 100);
        assert_eq!(state.db.table(filesys::T).len(), 100);
        assert!(report.queries_run > 500);
    }

    #[test]
    fn population_is_deterministic() {
        let (_, _, a) = build_small();
        let (_, _, b) = build_small();
        assert_eq!(a.active_logins, b.active_logins);
        assert_eq!(a.unregistered, b.unregistered);
        assert_eq!(a.queries_run, b.queries_run);
    }

    #[test]
    fn pobox_load_spread_across_pop_servers() {
        let (state, registry, report) = build_small();
        let mut s = state;
        let rows = registry
            .execute(&mut s, &Caller::root("t"), "get_poboxes_pop", &[])
            .unwrap();
        assert_eq!(rows.len(), 100);
        for po in &report.pop_servers {
            let n = rows.iter().filter(|r| &r[2] == po).count();
            assert_eq!(n, 50, "{po}");
        }
    }

    #[test]
    fn quota_allocation_charged() {
        let (state, _, _) = build_small();
        let t = state.db.table(nfsphys::T);
        let total: i64 = t
            .iter()
            .map(|(id, _)| t.cell(id, nfsphys::ALLOCATED).as_int())
            .sum();
        assert_eq!(total, 100 * 300);
    }

    #[test]
    fn scaled_spec() {
        let spec = PopulationSpec::athena_1988().scaled_users(1000);
        assert_eq!(spec.active_users, 1000);
        assert_eq!(spec.maillists, 50);
        assert_eq!(spec.nfs_servers, 20, "infrastructure unchanged");
    }

    #[test]
    fn production_spec_keeps_1988_ratios() {
        // At the paper's own scale, production == the paper's deployment.
        let base = PopulationSpec::athena_1988();
        let same = PopulationSpec::production(10_000);
        assert_eq!(same.workstations, base.workstations);
        assert_eq!(same.nfs_servers, base.nfs_servers);
        assert_eq!(same.maillists, base.maillists);

        // 100x the users: linear dimensions scale 100x, replica-set
        // services add one tier per order of magnitude.
        let big = PopulationSpec::production(1_000_000);
        assert_eq!(big.active_users, 1_000_000);
        assert_eq!(big.workstations, 120_000);
        assert_eq!(big.clusters, 3_000);
        assert_eq!(big.nfs_servers, 2_000);
        assert_eq!(big.maillists, 50_000);
        assert_eq!(big.maillist_avg_members, base.maillist_avg_members);
        assert_eq!(big.hesiod_servers, base.hesiod_servers + 2);
        assert_eq!(big.mail_hubs, base.mail_hubs + 2);
        // Ratios to the user body match the paper's.
        let ratio = |n: usize, users: usize| n as f64 / users as f64;
        assert!(
            (ratio(big.workstations, big.active_users)
                - ratio(base.workstations, base.active_users))
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn production_population_builds_at_small_scale() {
        // Drive the production constructor through the real registry at a
        // test-friendly size; the 1M build is the bench's job.
        let (mut state, _) = state_with_admin("ops");
        let registry = Registry::standard();
        let spec = PopulationSpec {
            seed: 7,
            ..PopulationSpec::production(200)
        };
        let report = populate(&mut state, &registry, &spec).unwrap();
        assert_eq!(report.active_logins.len(), 200);
        assert_eq!(state.db.table(filesys::T).len(), 200);
    }
}
