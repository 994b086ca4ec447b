//! The paper's evaluation as golden tests: EXPERIMENTS.md E1–E4 and E6–E11.
//!
//! The paper reports no latencies; its evaluation is the §5.1.G File
//! Organization table plus counted claims. Every constant below was printed
//! by the parent commit's experiment binaries (`crates/bench`, deleted in
//! the same change), run in a scratch clone; none was edited afterwards.
//! Each test repeats its binary's procedure and asserts the figures the
//! experiment's verdict rests on. No elapsed time is asserted, and neither
//! is E8's Busy-resend count, which depends on thread scheduling.
//!
//! `cargo test --test paper_tables e4_` runs one experiment.

use std::sync::{Arc, OnceLock};

use moira::client::apps::INTERFACE_PROGRAMS;
use moira::client::{DirectClient, MoiraConn, ServerThread};
use moira::common::rng::Mt;
use moira::common::VClock;
use moira::core::queries::testutil::add_test_user;
use moira::core::registry::{QueryKind, Registry};
use moira::core::schema::{
    create_all_tables, machine, members, nfsquota, serverhosts, servers, users, RELATIONS,
};
use moira::core::seed::seed_capacls;
use moira::core::server::standard_server;
use moira::core::state::{shared, Caller, MoiraState};
use moira::core::userreg::{make_authenticator, RegReply, RegRequest};
use moira::db::backup::{backup_size, mrbackup, mrrestore};
use moira::db::{Database, Pred};
use moira::dcm::generators::hesiod::HesiodGenerator;
use moira::dcm::generators::mail::MailGenerator;
use moira::dcm::generators::nfs::NfsGenerator;
use moira::dcm::generators::zephyr::ZephyrGenerator;
use moira::dcm::generators::Generator;
use moira::dcm::retry::RetryPolicy;
use moira::sim::cron::run_cron;
use moira::sim::{populate, Deployment, PopulationReport, PopulationSpec};
use moira::svc::mail::Destination;

/// The §5.1 population (10 000 active users), built once for the
/// experiments that only read it (E1, E4).
fn athena() -> &'static (MoiraState, PopulationReport) {
    static POPULATION: OnceLock<(MoiraState, PopulationReport)> = OnceLock::new();
    POPULATION.get_or_init(|| {
        let registry = Registry::standard();
        let mut state = MoiraState::new(VClock::new());
        seed_capacls(&mut state, &registry);
        let report =
            populate(&mut state, &registry, &PopulationSpec::athena_1988()).expect("population");
        (state, report)
    })
}

fn mach_id(state: &MoiraState, name: &str) -> i64 {
    let r = state
        .db
        .table(machine::T)
        .find(&Pred::Eq(machine::NAME, name.into()))
        .expect("machine");
    r.get(machine::MACH_ID)
}

/// E1 rows: (service, file, size in bytes, files, propagations).
const E1_FILES: &[(&str, &str, usize, usize, usize)] = &[
    ("Hesiod", "cluster.db", 69_605, 1, 1),
    ("Hesiod", "filsys.db", 782_627, 1, 1),
    ("Hesiod", "gid.db", 339_709, 1, 1),
    ("Hesiod", "group.db", 459_418, 1, 1),
    ("Hesiod", "grplist.db", 539_127, 1, 1),
    ("Hesiod", "passwd.db", 916_853, 1, 1),
    ("Hesiod", "pobox.db", 609_418, 1, 1),
    ("Hesiod", "printcap.db", 3_457, 1, 1),
    ("Hesiod", "service.db", 6_380, 1, 1),
    ("Hesiod", "sloc.db", 1_072, 1, 1),
    ("Hesiod", "uid.db", 346_209, 1, 1),
    ("NFS", "<partition>.dirs", 20_314, 20, 20),
    ("NFS", "<partition>.quotas", 4_825, 20, 20),
    ("NFS", "credentials", 206_209, 1, 20),
    ("Mail", "/usr/lib/aliases", 425_213, 1, 1),
    ("Zephyr", "class.acl", 88, 6, 18),
];

/// §5.1.G: every generator over the 10k population. NFS files are per
/// host; the first server stands for all twenty, as the paper's
/// single-size rows do. Zephyr's size is the mean of its six ACL files.
#[test]
fn e1_file_organization() {
    let (state, report) = athena();
    let hesiod = HesiodGenerator.generate(state, "").expect("hesiod");
    let mail = MailGenerator.generate(state, "").expect("mail");
    let zephyr = ZephyrGenerator.generate(state, "").expect("zephyr");
    let nfs_shared = NfsGenerator.generate(state, "").expect("nfs");
    let nfs: Vec<_> = report
        .nfs_servers
        .iter()
        .map(|name| {
            NfsGenerator::for_host(state, mach_id(state, name), "", &nfs_shared)
                .expect("distinct partition stems")
        })
        .collect();

    let mut rows: Vec<(&str, &str, usize, usize, usize)> = hesiod
        .iter()
        .map(|(name, data)| ("Hesiod", name, data.len(), 1, report.hesiod_servers.len()))
        .collect();
    let nfs_member = |suffix: &str| {
        nfs[0]
            .iter()
            .find(|(name, _)| name.ends_with(suffix))
            .map_or(0, |(_, data)| data.len())
    };
    let n = nfs.len();
    let credentials = nfs[0].get("credentials").map_or(0, <[u8]>::len);
    rows.push(("NFS", "<partition>.dirs", nfs_member(".dirs"), n, n));
    rows.push(("NFS", "<partition>.quotas", nfs_member(".quotas"), n, n));
    rows.push(("NFS", "credentials", credentials, 1, n));
    let aliases = mail.get("aliases").map_or(0, <[u8]>::len);
    rows.push((
        "Mail",
        "/usr/lib/aliases",
        aliases,
        1,
        report.mail_hubs.len(),
    ));
    let z = zephyr.len();
    let z_props = z * report.zephyr_servers.len();
    rows.push(("Zephyr", "class.acl", zephyr.payload_size() / z, z, z_props));

    assert_eq!(rows, E1_FILES);
    let files: usize = rows.iter().map(|r| r.3).sum();
    let propagations: usize = rows.iter().map(|r| r.4).sum();
    assert_eq!((files, propagations), (59, 90), "the paper's totals");
}

/// Figure 1: one change through application → library → protocol → server
/// → database, then one DCM cycle through update protocol → hosts →
/// consumers.
#[test]
fn e2_system_structure() {
    let (server, state, _) = standard_server(VClock::new());
    {
        let mut s = state.write();
        let uid = add_test_user(&mut s, "admin", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    let thread = ServerThread::spawn(server);
    let mut client = thread.connect();
    client.auth("admin", "machmaint").unwrap();
    let args = ["DOWNY.MIT.EDU", "VAX"];
    client.access("add_machine", &args).expect("ACL pre-check");
    client.query("add_machine", &args, &mut |_| {}).unwrap();
    let rows = client.query_collect("get_machine", &args[..1]).unwrap();
    assert_eq!(
        rows,
        [["DOWNY.MIT.EDU", "VAX", "567993600", "admin", "machmaint"]]
    );
    {
        let s = state.read();
        let last = s.journal.entries().last().map(|e| e.query.clone());
        assert_eq!((s.journal.len(), last.as_deref()), (1, Some("add_machine")));
    }
    drop(client);
    drop(thread);

    let mut d = Deployment::build(&PopulationSpec::small());
    let report = d.run_dcm_once();
    let generated = [
        ("HESIOD", 11, 42_111),
        ("NFS", 1, 1_980),
        ("MAIL", 2, 10_439),
        ("ZEPHYR", 6, 525),
        ("PASSWD", 1, 6_075),
    ]
    .map(|(svc, files, bytes)| (svc.to_owned(), files, bytes));
    assert_eq!(report.generated, generated);
    let updates: Vec<(&str, &str)> = report
        .updates
        .iter()
        .map(|(svc, host, result)| {
            assert!(result.is_ok(), "{svc} on {host}: {result:?}");
            (svc.as_str(), host.as_str())
        })
        .collect();
    assert_eq!(
        updates,
        [
            ("HESIOD", "ORPHEUS.MIT.EDU"),
            ("NFS", "CHARON.MIT.EDU"),
            ("NFS", "EURYDICE.MIT.EDU"),
            ("NFS", "HELEN.MIT.EDU"),
            ("MAIL", "CASSIOPEIA.MIT.EDU"),
            ("ZEPHYR", "PERSEUS.MIT.EDU"),
            ("ZEPHYR", "ANDROMEDA.MIT.EDU"),
            ("PASSWD", "DIALUP-1.MIT.EDU"),
            ("PASSWD", "DIALUP-2.MIT.EDU"),
        ]
    );
    // The paper's four services account for seven of the host updates;
    // PASSWD is this reproduction's documented extension.
    assert_eq!(
        updates.iter().filter(|(svc, _)| *svc != "PASSWD").count(),
        7
    );

    let login = &d.population.active_logins[0];
    let answer = d.hesiod_one().lock().resolve(login, "pobox").unwrap();
    assert_eq!(
        (login.as_str(), answer[0].as_str()),
        ("kcook0", "POP ATHENA-PO-1.MIT.EDU kcook0")
    );
}

/// §5.1.C: "over 100 query handles".
#[test]
fn e3_query_catalog() {
    let registry = Registry::standard();
    let kinds = [
        (QueryKind::Retrieve, 44),
        (QueryKind::Append, 18),
        (QueryKind::Update, 25),
        (QueryKind::Delete, 19),
        (QueryKind::Special, 3),
    ];
    for (kind, n) in kinds {
        let count = registry.handles().iter().filter(|h| h.kind == kind).count();
        assert_eq!(count, n, "{kind:?}");
    }
    assert_eq!(registry.len(), 109, "over 100");
}

/// E4 rows: (relation, rows, bytes) of the `mrbackup` dump.
const E4_RELATIONS: &[(&str, usize, usize)] = &[
    ("alias", 48, 887),
    ("capacls", 110, 2_659),
    ("cluster", 30, 1_801),
    ("filesys", 10_000, 1_106_821),
    ("hostaccess", 1, 34),
    ("list", 10_505, 824_514),
    ("machine", 1_229, 62_278),
    ("mcmap", 1_200, 8_193),
    ("members", 14_309, 216_281),
    ("nfsphys", 20, 1_322),
    ("nfsquota", 10_000, 403_288),
    ("printcap", 40, 2_974),
    ("serverhosts", 29, 1_497),
    ("servers", 6, 506),
    ("services", 150, 8_780),
    ("strings", 0, 0),
    ("svc", 60, 1_092),
    ("users", 11_000, 2_047_005),
    ("values", 10, 129),
    ("zephyr", 2, 146),
];

/// §5.2.2: the ASCII backup "takes up about 3.2 MB"; restore must
/// round-trip it.
#[test]
fn e4_backup_size() {
    let (state, _) = athena();
    let backup = mrbackup(&state.db);
    let sizes: Vec<(&str, usize, usize)> = backup
        .iter()
        .map(|(name, dump)| (name.as_str(), dump.lines().count(), dump.len()))
        .collect();
    assert_eq!(sizes, E4_RELATIONS);
    assert_eq!(backup_size(&backup), 4_690_207);

    let mut fresh = Database::new(VClock::new());
    create_all_tables(&mut fresh);
    assert_eq!(mrrestore(&mut fresh, &backup).expect("restore"), 58_749);
    assert!(mrbackup(&fresh) == backup, "re-dump is byte-identical");
}

/// Runs the §5.5 double-check workload — access pre-check then execute,
/// 2 000 times — as a user reaching `moira-admins` through three nested
/// lists. Returns the access cache's (hits, misses).
fn e6_double_checks(cache: bool) -> (u64, u64) {
    let registry = Arc::new(Registry::standard());
    let mut state = MoiraState::new(VClock::new());
    seed_capacls(&mut state, &registry);
    let report = populate(&mut state, &registry, &PopulationSpec::small()).expect("population");
    let operator = report.active_logins[0].clone();
    let root = Caller::root("e6");
    let mut run = |q: &str, args: &[&str]| {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        registry.execute(&mut state, &root, q, &args).unwrap();
    };
    for level in ["level1", "level2", "level3"] {
        run(
            "add_list",
            &[level, "1", "0", "0", "0", "0", "-1", "NONE", "NONE", ""],
        );
    }
    run("add_member_to_list", &["moira-admins", "LIST", "level1"]);
    run("add_member_to_list", &["level1", "LIST", "level2"]);
    run("add_member_to_list", &["level2", "LIST", "level3"]);
    run("add_member_to_list", &["level3", "USER", &operator]);

    let state = shared(state);
    state.read().access_cache.set_enabled(cache);
    let mut conn = DirectClient::connect(state.clone(), registry, &operator, "chsh");
    for i in 0..2_000 {
        let target = format!("user{i}");
        conn.access("update_user_shell", &[&target, "/bin/csh"])
            .unwrap();
        // The target does not exist: the ACL check still runs first and
        // the cheap MR_USER miss keeps the workload access-dominated.
        let _ = conn.query("update_user_shell", &[&target, "/bin/csh"], &mut |_| {});
    }
    let s = state.read();
    (s.access_cache.hits(), s.access_cache.misses())
}

/// §5.5: checks "performed twice" — the cache removes 3 999 of 4 000
/// membership walks.
#[test]
fn e6_access_cache() {
    assert_eq!(e6_double_checks(false), (0, 4_000), "cache off");
    assert_eq!(e6_double_checks(true), (3_999, 1), "cache on");
}

/// One simulated week of hourly cron on the small deployment, where each
/// hour a user's shell changes with probability `rate`. Returns
/// (generations, no-change checks, host updates, bytes generated).
fn e7_week_at_rate(rate: f64) -> (u64, u64, usize, usize) {
    let mut d = Deployment::build(&PopulationSpec::small());
    d.run_dcm_once();
    let mut rng = Mt::new((rate * 1000.0) as u64 + 7);
    let logins = d.population.active_logins.clone();
    let (gens0, nochange0) = (d.dcm.stats.generations, d.dcm.stats.no_changes);
    let (mut updates, mut bytes) = (0, 0);
    for _ in 0..7 * 24 {
        if rng.chance(rate) {
            let login = rng.choice(&logins).clone();
            let shell = if rng.chance(0.5) {
                "/bin/csh"
            } else {
                "/bin/sh"
            };
            let mut s = d.state.write();
            let args = [login, shell.into()];
            let root = Caller::root("e7");
            d.registry
                .execute(&mut s, &root, "update_user_shell", &args)
                .unwrap();
        }
        let run = run_cron(&mut d, 3600, 3600);
        updates += run.total_updates();
        bytes += run
            .reports
            .iter()
            .flat_map(|r| &r.generated)
            .map(|(_, _, b)| b)
            .sum::<usize>();
    }
    let gens = d.dcm.stats.generations - gens0;
    (gens, d.dcm.stats.no_changes - nochange0, updates, bytes)
}

/// §5.1.E/G: files are generated and propagated only if the data changed.
#[test]
fn e7_incremental_dcm() {
    let rows = [0.0, 0.05, 0.25, 1.0].map(e7_week_at_rate);
    assert_eq!(
        rows,
        [
            (0, 63, 0, 0),
            (8, 55, 16, 112_744),
            (35, 28, 68, 509_747),
            (56, 7, 91, 1_321_198),
        ]
    );
    // The naive baseline regenerates every interval (hesiod 6 h, nfs 12 h,
    // mail/zephyr/passwd 24 h): 28 + 14 + 3 × 7 = 63 generations, pushed
    // to 1 + 3 + 1 + 2 + 2 hosts for 105 updates. Even at one change an
    // hour, change-driven generation stays under it.
    assert!(rows.iter().all(|&(generations, ..)| generations < 63));
}

/// Every installed hesiod passwd.db parses as whole BIND lines.
fn no_torn_files(d: &Deployment) -> bool {
    d.hosts.values().all(|host| {
        let h = host.lock();
        h.read_file("/var/hesiod/passwd.db").is_none_or(|bytes| {
            std::str::from_utf8(bytes).is_ok_and(|text| {
                (text.is_empty() || text.ends_with('\n'))
                    && text.lines().all(|l| l.contains("HS UNSPECA"))
            })
        })
    })
}

/// Every enabled serverhost (POP is bookkeeping) reports success.
fn converged(d: &Deployment) -> bool {
    let s = d.state.read();
    let t = s.db.table(serverhosts::T);
    let all = t.iter().all(|(row, _)| {
        let r = t.row(row).unwrap();
        !r.get(serverhosts::ENABLE)
            || r.get(serverhosts::SERVICE) == "POP"
            || r.get(serverhosts::SUCCESS)
    });
    all
}

/// Injects one failure, runs a DCM pass, recovers, runs four more a day
/// apart. Returns (first error, any hard error, torn during, converged and
/// untorn after).
fn e8_scenario(
    inject: impl FnOnce(&mut Deployment),
    recover: impl FnOnce(&mut Deployment),
) -> (String, bool, bool, bool) {
    let mut d = Deployment::build(&PopulationSpec::small());
    inject(&mut d);
    let report = d.run_dcm_once();
    let errors: Vec<_> = report
        .updates
        .iter()
        .filter_map(|u| u.2.as_ref().err())
        .collect();
    let first = errors.first().map_or("none".into(), |e| e.message());
    let hard = errors.iter().any(|e| e.is_hard());
    let torn = !no_torn_files(&d);
    recover(&mut d);
    for _ in 0..4 {
        d.advance(25 * 3600);
        d.run_dcm_once();
    }
    (first, hard, torn, converged(&d) && no_torn_files(&d))
}

/// The operator's `reset_server_error` / `reset_server_host_error` on
/// every service and host.
fn reset_errors(d: &mut Deployment) {
    let mut s = d.state.write();
    let t = s.db.table(servers::T);
    let services: Vec<String> = t
        .iter()
        .map(|(row, _)| t.row(row).unwrap().render(servers::NAME))
        .collect();
    let operator = Caller::root("operator");
    for svc in services {
        let _ = d.registry.execute(
            &mut s,
            &operator,
            "reset_server_error",
            std::slice::from_ref(&svc),
        );
        let t = s.db.table(serverhosts::T);
        let hosts: Vec<String> = t
            .select(&Pred::Eq(serverhosts::SERVICE, svc.clone().into()))
            .into_iter()
            .map(|r| {
                let m = s.db.table(machine::T);
                let id = t.row(r).unwrap().get(serverhosts::MACH_ID);
                m.select(&Pred::Eq(machine::MACH_ID, id.into()))
                    .first()
                    .map(|&mr| m.row(mr).unwrap().render(machine::NAME))
                    .unwrap_or_default()
            })
            .collect();
        for host in hosts {
            let args = [svc.clone(), host];
            let _ = d
                .registry
                .execute(&mut s, &operator, "reset_server_host_error", &args);
        }
    }
}

/// Update attempts against one permanently partitioned host over twelve
/// hourly passes, never escalating.
fn e8_attempts_against_dead_host(policy: RetryPolicy) -> u64 {
    let mut d = Deployment::build(&PopulationSpec::small());
    let victim = d.population.hesiod_servers[0].clone();
    d.net.partition(&victim);
    d.dcm.set_retry_policy(RetryPolicy {
        escalate_after: u32::MAX,
        ..policy
    });
    for _ in 0..12 {
        d.run_dcm_once();
        d.advance(3600);
    }
    d.dcm.stats.updates_attempted
}

/// A server dispatching one request per pass sheds the rest with `Busy`;
/// four clients retrying with backoff land all twelve adds.
fn e8_overload_landed() -> usize {
    let (mut server, state, _) = standard_server(VClock::new());
    {
        let mut s = state.write();
        let uid = add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    server.set_overload_limit(Some(1));
    let thread = Arc::new(ServerThread::spawn(server));
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let thread = thread.clone();
            std::thread::spawn(move || {
                let mut client = thread.connect();
                client.set_busy_retry(64, 1);
                client.auth("ops", &format!("e8-{i}")).unwrap();
                for j in 0..3 {
                    let name = format!("E8-{i}-{j}");
                    client
                        .query("add_machine", &[&name, "VAX"], &mut |_| {})
                        .unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let s = state.read();
    s.db.table(machine::T)
        .select(&Pred::Like(machine::NAME, "E8-*".into()))
        .len()
}

/// §5.9: "completely automatic update for normal cases and expected kinds
/// of failures".
#[test]
fn e8_update_recovery() {
    type Step = Box<dyn FnOnce(&mut Deployment)>;
    fn hes(d: &Deployment) -> Arc<parking_lot::Mutex<moira::dcm::host::SimHost>> {
        d.hosts[&d.population.hesiod_servers[0]].clone()
    }
    fn victim(d: &Deployment) -> String {
        d.population.hesiod_servers[0].clone()
    }
    let scenarios: Vec<(&str, &str, bool, Step, Step)> = vec![
        (
            "healthy baseline",
            "none",
            false,
            Box::new(|_| {}),
            Box::new(|_| {}),
        ),
        (
            "server down at update time",
            "server host unreachable",
            false,
            Box::new(|d| hes(d).lock().up = false),
            Box::new(|d| hes(d).lock().reboot()),
        ),
        (
            "connection refused",
            "server host unreachable",
            false,
            Box::new(|d| hes(d).lock().fail.refuse_connect = true),
            Box::new(|d| hes(d).lock().fail.refuse_connect = false),
        ),
        (
            "crash during transfer",
            "server host unreachable",
            false,
            Box::new(|d| hes(d).lock().fail.crash_after_ops = Some(1)),
            Box::new(|d| hes(d).lock().reboot()),
        ),
        (
            "crash during execution",
            "server host unreachable",
            false,
            Box::new(|d| hes(d).lock().fail.crash_after_ops = Some(9)),
            Box::new(|d| hes(d).lock().reboot()),
        ),
        (
            "corrupted transfer (checksum)",
            "file checksum mismatch",
            false,
            Box::new(|d| hes(d).lock().fail.corrupt_transfers = true),
            Box::new(|d| hes(d).lock().fail.corrupt_transfers = false),
        ),
        (
            "operation timeout",
            "update timed out",
            false,
            Box::new(|d| hes(d).lock().fail.hang = true),
            Box::new(|d| hes(d).lock().fail.hang = false),
        ),
        (
            "network partition during transfer",
            "server host unreachable",
            false,
            Box::new(|d| d.net.partition(&victim(d))),
            Box::new(|d| d.net.heal(&victim(d))),
        ),
        (
            "drop-heavy flaky link (60% loss)",
            "update timed out",
            false,
            Box::new(|d| d.net.set_drop_prob(&victim(d), 0.6)),
            Box::new(|d| d.net.set_drop_prob(&victim(d), 0.0)),
        ),
        (
            "partition healing mid-run (no operator)",
            "server host unreachable",
            false,
            Box::new(|d| d.net.partition_until(&victim(d), d.clock.now() + 30 * 3600)),
            Box::new(|_| {}),
        ),
        (
            "install script hard failure",
            "install script exited 13",
            true,
            Box::new(|d| hes(d).lock().fail.fail_exec_with = Some(13)),
            Box::new(|d| {
                hes(d).lock().fail.fail_exec_with = None;
                reset_errors(d);
            }),
        ),
        (
            // Generate, lose the DCM's in-memory state (caches, last-pushed
            // archives), then change what the lost files held.
            "Moira crash (data files lost, inprogress flags orphaned)",
            "none",
            false,
            Box::new(|d| {
                d.run_dcm_once();
                d.restart_dcm();
                let mut s = d.state.write();
                let args = [d.population.active_logins[0].clone(), "/bin/newsh".into()];
                d.registry
                    .execute(&mut s, &Caller::root("e8"), "update_user_shell", &args)
                    .unwrap();
            }),
            Box::new(|_| {}),
        ),
    ];
    for (name, first_error, hard, inject, recover) in scenarios {
        let outcome = e8_scenario(inject, recover);
        assert_eq!(outcome, (first_error.into(), hard, false, true), "{name}");
    }

    let naive = e8_attempts_against_dead_host(RetryPolicy {
        base_secs: 0,
        max_secs: 0,
        jitter_frac: 0.0,
        ..RetryPolicy::default()
    });
    let gated = e8_attempts_against_dead_host(RetryPolicy::default());
    assert_eq!((naive, gated), (20, 14), "retry storm contained by backoff");

    assert_eq!(e8_overload_landed(), 12, "every shed request landed");
}

/// §5.10: ~1000 accounts at the start of term with no staff intervention.
/// Every tenth student first asks for the taken login "wizard".
#[test]
fn e9_registration() {
    let mut spec = PopulationSpec::athena_1988().scaled_users(2_000);
    spec.unregistered_users = 1_000;
    let d = Deployment::build(&spec);
    let students = d.population.unregistered.clone();
    let (mut registered, mut collisions, mut failures) = (0, 0, 0);
    for (i, (first, last, id)) in students.iter().enumerate() {
        let request = |login: Option<&str>| {
            (
                first.clone(),
                last.clone(),
                make_authenticator(id, first, last, login),
            )
        };
        let (first, last, authenticator) = request(None);
        let verify = RegRequest::VerifyUser {
            first,
            last,
            authenticator,
        };
        if !matches!(d.regserver.handle(&verify), RegReply::Ok(0)) {
            failures += 1;
            continue;
        }
        let mut choices = Vec::new();
        if i % 10 == 0 {
            choices.push("wizard".to_owned());
        }
        choices.push(format!("f{i:05}"));
        let mut got = false;
        for login in choices {
            let (first, last, authenticator) = request(Some(&login));
            match d.regserver.handle(&RegRequest::GrabLogin {
                first,
                last,
                authenticator,
            }) {
                RegReply::Ok(_) => {
                    got = true;
                    break;
                }
                RegReply::LoginTaken => collisions += 1,
                _ => break,
            }
        }
        if !got {
            failures += 1;
            continue;
        }
        let (first, last, authenticator) = request(Some("hunter2"));
        match d.regserver.handle(&RegRequest::SetPassword {
            first,
            last,
            authenticator,
        }) {
            RegReply::Ok(_) => registered += 1,
            _ => failures += 1,
        }
    }
    assert_eq!((registered, collisions, failures), (1_000, 99, 0));

    let s = d.state.read();
    let t = s.db.table(users::T);
    let half = t.select(&Pred::Eq(users::STATUS, 2.into())).len();
    let poboxes = t
        .iter()
        .map(|(row, _)| t.row(row).unwrap())
        .filter(|r| r.get(users::STATUS) == 2 && r.get(users::POTYPE) == "POP")
        .count();
    let principals = (0..students.len())
        .filter(|i| d.kdc.principal_exists(&format!("f{i:05}")))
        .count();
    let quotas = s.db.table(nfsquota::T).len();
    assert_eq!(
        (half, poboxes, principals, quotas),
        (1_000, 1_000, 999, 3_000)
    );
}

/// §5.8: every distributed file is loaded by its consumer and answers the
/// queries of its §5.8.2 clients; each probe is (passed, total).
#[test]
fn e10_consumer_roundtrip() {
    let mut d = Deployment::build(&PopulationSpec::athena_1988().scaled_users(500));
    let report = d.run_dcm_once();
    assert!(
        report.updates.iter().all(|u| u.2.is_ok()),
        "clean propagation"
    );
    let mut rng = Mt::new(10);
    let logins = d.population.active_logins.clone();
    let sample: Vec<String> = (0..100).map(|_| rng.choice(&logins).clone()).collect();
    let mut probes: Vec<(usize, usize)> = Vec::new();

    let hes = d.hesiod_one();
    let hes = hes.lock();
    let users = sample.iter().filter(|login| {
        let [Ok(p), Ok(po), Ok(f), Ok(g)] =
            ["passwd", "pobox", "filsys", "grplist"].map(|t| hes.resolve(login, t))
        else {
            return false;
        };
        let uid = p[0].split(':').nth(2).unwrap_or("");
        let prefix = format!("{login}:");
        hes.resolve(uid, "uid")
            .is_ok_and(|b| b[0].starts_with(&prefix))
            && po[0].starts_with("POP ")
            && f[0].starts_with("NFS ")
            && g[0].starts_with(&prefix)
    });
    probes.push((users.count(), sample.len()));
    let entries = [("svc0", "service"), ("prn00", "pcap"), ("HESIOD", "sloc")];
    probes.push((
        entries
            .iter()
            .filter(|(k, t)| hes.resolve(k, t).is_ok())
            .count(),
        3,
    ));
    drop(hes);

    let hub = d.mail_one();
    let hub = hub.lock();
    let routed = sample.iter().filter(|login| {
        hub.resolve(login)
            .iter()
            .all(|dst| matches!(dst, Destination::PoBox { .. }))
    });
    probes.push((routed.count(), sample.len()));
    let list = hub.resolve("ml-000");
    probes.push((
        list.iter()
            .all(|dst| !matches!(dst, Destination::Bounce(_))) as usize,
        1,
    ));
    drop(hub);

    let served = sample.iter().take(50).filter(|login| {
        let path = format!("/u1/lockers/{login}");
        d.nfs.values().any(|srv| {
            let s = srv.lock();
            s.locker(&path).is_some_and(|l| l.init_files)
                && s.credential(login)
                    .is_some_and(|c| s.quota(c.uid) == Some(300))
        })
    });
    probes.push((served.count(), 50));

    let (mut ok, mut total) = (0, 0);
    for z in d.zephyr.values() {
        let mut z = z.lock();
        total += 2;
        ok += z.transmit("not-a-member", "zclass-0", "i", "m").is_err() as usize;
        ok += z.transmit("anyone", "UNRESTRICTED", "i", "m").is_ok() as usize;
    }
    probes.push((ok, total));

    assert_eq!(
        probes,
        [(100, 100), (3, 3), (100, 100), (1, 1), (50, 50), (6, 6)]
    );
}

/// §5.1's counted claims: 4 services, over 20 files, over 100 handles, 12
/// interface programs, 21 relations, 20 NFS servers, 10 000 users.
#[test]
fn e11_deployment_shape() {
    let mut d = Deployment::build(&PopulationSpec::athena_1988());
    let report = d.run_dcm_once();
    let s = d.state.read();
    let services = ["HESIOD", "NFS", "MAIL", "ZEPHYR"]
        .iter()
        .filter(|&&n| {
            s.db.table(servers::T)
                .select_one(&Pred::Eq(servers::NAME, n.into()))
                .is_some()
        })
        .count();
    // NFS per-host files come from a real host archive; its shared
    // credentials file was already counted once in `generated`.
    let shared_nfs = d.dcm.prepared("NFS").expect("NFS generated");
    let nfs_host = mach_id(&s, &d.population.nfs_servers[0]);
    let per_host = NfsGenerator::for_host(&s, nfs_host, "", shared_nfs)
        .expect("distinct partition stems")
        .len();
    let files = report.generated.iter().map(|g| g.1).sum::<usize>() + per_host - 1;
    let shape = [
        services,
        files,
        Registry::standard().len(),
        INTERFACE_PROGRAMS.len(),
        RELATIONS.len() + 1, // plus the virtual TBLSTATS
        d.population.nfs_servers.len(),
        d.population.active_logins.len(),
    ];
    assert_eq!(shape, [4, 23, 109, 12, 21, 20, 10_000]);
}
