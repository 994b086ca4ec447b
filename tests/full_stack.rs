//! Integration tests spanning every crate: client → protocol → server →
//! database → DCM → update protocol → consumers.

use moira::client::{MoiraConn, ServerThread};
use moira::common::errors::MrError;
use moira::core::schema::{cluster, machine, members};
use moira::core::server::standard_server;
use moira::core::state::Caller;
use moira::sim::cron::run_cron;
use moira::sim::{Deployment, PopulationSpec};

fn server_with_admin() -> (ServerThread, moira::client::RpcClient) {
    let (server, state, _) = standard_server(moira::common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira::core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    let thread = ServerThread::spawn(server);
    let mut client = thread.connect();
    client.auth("ops", "itest").unwrap();
    (thread, client)
}

#[test]
fn admin_change_reaches_every_consumer() {
    let mut athena = Deployment::build(&PopulationSpec::small());
    athena.run_dcm_once();
    athena.advance(60);

    // One administrative session makes several kinds of changes.
    {
        let mut s = athena.state.write();
        let root = Caller::root("itest");
        let run = |s: &mut _, q: &str, args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            athena.registry.execute(s, &root, q, &args).unwrap()
        };
        run(
            &mut s,
            "add_user",
            &[
                "newhire", "9100", "/bin/csh", "Hire", "New", "", "1", "xid", "STAFF",
            ],
        );
        run(
            &mut s,
            "set_pobox",
            &["newhire", "POP", "ATHENA-PO-1.MIT.EDU"],
        );
        run(
            &mut s,
            "add_list",
            &[
                "newhire",
                "1",
                "0",
                "0",
                "0",
                "1",
                "UNIQUE_GID",
                "USER",
                "newhire",
                "",
            ],
        );
        run(
            &mut s,
            "add_member_to_list",
            &["newhire", "USER", "newhire"],
        );
        let nfs_server = athena.population.nfs_servers[0].clone();
        run(
            &mut s,
            "add_filesys",
            &[
                "newhire",
                "NFS",
                &nfs_server,
                "/u1/lockers/newhire",
                "/mit/newhire",
                "w",
                "",
                "newhire",
                "newhire",
                "1",
                "HOMEDIR",
            ],
        );
        run(&mut s, "add_nfs_quota", &["newhire", "newhire", "300"]);
    }

    // One simulated day of cron is enough for every interval.
    let run = run_cron(&mut athena, 25 * 3600, 3600);
    assert!(run.successful_updates() > 0);

    // Hesiod.
    let hesiod = athena.hesiod_one();
    let hesiod = hesiod.lock();
    assert!(hesiod.resolve("newhire", "passwd").unwrap()[0].starts_with("newhire:*:9100"));
    assert_eq!(
        hesiod.resolve("newhire", "pobox").unwrap()[0],
        "POP ATHENA-PO-1.MIT.EDU newhire"
    );
    assert!(hesiod.resolve("newhire", "filsys").unwrap()[0].starts_with("NFS /u1/lockers/newhire"));
    drop(hesiod);

    // Mail hub.
    let hub = athena.mail_one();
    let dests = hub.lock().resolve("newhire");
    assert!(matches!(
        dests[0],
        moira::svc::mail::Destination::PoBox { ref office, .. } if office == "ATHENA-PO-1"
    ));

    // NFS: credentials + locker + quota on the right server.
    let home = &athena.population.nfs_servers[0];
    let nfs = athena.nfs[home].lock();
    let cred = nfs.credential("newhire").expect("credentials distributed");
    assert_eq!(cred.uid, 9100);
    assert!(nfs
        .locker("/u1/lockers/newhire")
        .is_some_and(|l| l.init_files));
    assert_eq!(nfs.quota(9100), Some(300));
}

#[test]
fn rpc_error_codes_cross_the_wire() {
    let (_thread, mut client) = server_with_admin();
    assert_eq!(
        client.query_collect("no_such_query", &[]).unwrap_err(),
        MrError::NoHandle
    );
    assert_eq!(
        client
            .query_collect("get_user_by_login", &["ghost"])
            .unwrap_err(),
        MrError::NoMatch
    );
    assert_eq!(
        client
            .query_collect("add_machine", &["X", "TOASTER"])
            .unwrap_err(),
        MrError::Type
    );
    assert_eq!(
        client.query_collect("get_machine", &[]).unwrap_err(),
        MrError::Args
    );
    // Unauthenticated second connection: permission errors.
    let (thread, _) = server_with_admin();
    let mut anon = thread.connect();
    assert_eq!(
        anon.query_collect("add_machine", &["X", "VAX"])
            .unwrap_err(),
        MrError::Perm
    );
}

#[test]
fn journal_replays_onto_restored_backup() {
    // The §5.2.2 recovery story: nightly backup + journal = no lost
    // transactions.
    let (server, state, registry) = standard_server(moira::common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira::core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    drop(server);
    let root = Caller::root("itest");

    // Day 1: work happens, then the nightly backup runs.
    {
        let mut s = state.write();
        registry
            .execute(
                &mut s,
                &root,
                "add_machine",
                &["DAY1.MIT.EDU".into(), "VAX".into()],
            )
            .unwrap();
    }
    let backup = moira::db::backup::mrbackup(&state.read().db);
    let backup_time = state.read().now();

    // Day 2: more work, journaled but not yet backed up.
    {
        let mut s = state.write();
        s.db.clock().advance(3600);
        registry
            .execute(
                &mut s,
                &root,
                "add_machine",
                &["DAY2.MIT.EDU".into(), "VAX".into()],
            )
            .unwrap();
        registry
            .execute(
                &mut s,
                &root,
                "add_cluster",
                &["late-cluster".into(), "".into(), "".into()],
            )
            .unwrap();
    }
    let journal_text = state.read().journal.to_text();

    // Disaster: the database is lost. Restore the backup…
    let mut recovered = moira::core::state::MoiraState::new(moira::common::VClock::new());
    // (restore into empty relations requires clearing the seeded ones)
    let mut empty_db = moira::db::Database::new(recovered.db.clock().clone());
    moira::core::schema::create_all_tables(&mut empty_db);
    recovered.db = empty_db;
    moira::db::backup::mrrestore(&mut recovered.db, &backup).unwrap();
    // …and replay the journal entries after the backup time.
    let journal = moira::db::journal::Journal::from_text(&journal_text).unwrap();
    for entry in journal.since(backup_time) {
        registry
            .execute(
                &mut recovered,
                &Caller::new(&entry.who, &entry.with),
                &entry.query,
                &entry.args,
            )
            .unwrap();
    }

    // Everything from both days is present.
    for name in ["DAY1.MIT.EDU", "DAY2.MIT.EDU"] {
        assert!(
            recovered
                .db
                .table(machine::T)
                .select_one(&moira::db::Pred::Eq(machine::NAME, name.into()))
                .is_some(),
            "{name}"
        );
    }
    assert!(recovered
        .db
        .table(cluster::T)
        .select_one(&moira::db::Pred::Eq(cluster::NAME, "late-cluster".into()))
        .is_some());
}

#[test]
fn access_precheck_agrees_with_execution_across_catalog() {
    // The Access major request must agree with Query for a sample of the
    // catalog, for both an admin and a plain user.
    let (server, state, registry) = standard_server(moira::common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira::core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
        moira::core::queries::testutil::add_test_user(&mut s, "plain", 2);
    }
    drop(server);
    let cases: &[(&str, Vec<&str>)] = &[
        ("add_machine", vec!["PRE.MIT.EDU", "VAX"]),
        ("add_cluster", vec!["c", "", ""]),
        ("get_machine", vec!["*"]),
        ("update_user_shell", vec!["plain", "/bin/sh"]),
        ("delete_user", vec!["nobody"]),
    ];
    for who in ["ops", "plain"] {
        let caller = Caller::new(who, "itest");
        for (query, args) in cases {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            let mut s = state.write();
            let pre = registry.check_access(&s, &caller, query, &args);
            let exec = registry.execute(&mut s, &caller, query, &args);
            match pre {
                Ok(()) => {
                    // Allowed queries may still fail on data (NoMatch etc.)
                    // but never on permissions.
                    assert_ne!(exec.as_ref().err(), Some(&MrError::Perm), "{who} {query}");
                }
                Err(e) => {
                    assert_eq!(exec.unwrap_err(), e, "{who} {query}");
                }
            }
        }
    }
}

#[test]
fn concurrent_admin_sessions_are_serialized_safely() {
    let (server, state, _) = standard_server(moira::common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira::core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    let thread = ServerThread::spawn(server);
    let mut handles = Vec::new();
    for t in 0..4 {
        let mut client = thread.connect();
        handles.push(std::thread::spawn(move || {
            client.auth("ops", "stress").unwrap();
            for i in 0..25 {
                client
                    .query("add_machine", &[&format!("T{t}-M{i}"), "RT"], &mut |_| {})
                    .unwrap();
            }
            let rows = client
                .query_collect("get_machine", &[&format!("T{t}-*")])
                .unwrap();
            assert_eq!(rows.len(), 25);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = state.read().db.table(machine::T).len();
    assert_eq!(total, 100);
}

#[test]
fn tcp_client_full_round_trip() {
    let (mut server, state, _) = standard_server(moira::common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira::core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let _thread = ServerThread::spawn(server);
    let mut client = moira::client::RpcClient::connect_tcp(&addr.to_string()).expect("tcp connect");
    client.noop().unwrap();
    client.auth("ops", "tcp-itest").unwrap();
    client
        .query("add_machine", &["OVERTCP.MIT.EDU", "VAX"], &mut |_| {})
        .unwrap();
    let rows = client
        .query_collect("get_machine", &["OVERTCP.MIT.EDU"])
        .unwrap();
    assert_eq!(rows[0][1], "VAX");
    // A second concurrent TCP client sees the same data.
    let mut second =
        moira::client::RpcClient::connect_tcp(&addr.to_string()).expect("tcp connect 2");
    second.auth("ops", "tcp-itest-2").unwrap();
    let rows = second.query_collect("get_machine", &["OVERTCP*"]).unwrap();
    assert_eq!(rows.len(), 1);
    client.disconnect().unwrap();
    second.disconnect().unwrap();
}

#[test]
fn server_statistics_over_tcp_report_real_latencies() {
    let (mut server, state, _) = standard_server(moira::common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira::core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
        // Enough machines that the planner prefers the name-index range
        // over a scan for the wildcard lookups below (on a near-empty
        // table a scan is legitimately just as cheap).
        for i in 0..32 {
            moira::core::queries::testutil::add_test_machine(&mut s, &format!("FILLER{i}.MIT.EDU"));
        }
    }
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let _thread = ServerThread::spawn(server);
    let mut client = moira::client::RpcClient::connect_tcp(&addr.to_string()).expect("tcp connect");
    client.auth("ops", "stats-itest").unwrap();

    // Generate traffic on both tiers before asking for the numbers.
    client
        .query("add_machine", &["STATS.MIT.EDU", "VAX"], &mut |_| {})
        .unwrap();
    for _ in 0..4 {
        let rows = client.query_collect("get_machine", &["STATS*"]).unwrap();
        assert_eq!(rows.len(), 1);
    }

    let rows = client.query_collect("get_server_statistics", &[]).unwrap();
    let stat = |name: &str| -> u64 {
        rows.iter()
            .find(|row| row[0] == name)
            .unwrap_or_else(|| panic!("statistic {name} missing"))[1]
            .parse()
            .unwrap_or_else(|_| panic!("statistic {name} not numeric"))
    };
    assert!(stat("server.reads_dispatched") >= 4);
    assert!(stat("server.writes_dispatched") >= 2, "auth + add_machine");
    let p50 = stat("server.latency.read.p50_ns");
    let p99 = stat("server.latency.read.p99_ns");
    assert!(p50 > 0, "real TCP round-trips take real time");
    assert!(p99 >= p50, "quantiles are ordered");
    assert!(stat("server.latency.write.count") >= 2);
    // Connection-tier instruments ride the same wire: this very TCP
    // session is accepted and open, nothing has been torn down or
    // backpressured, and every dispatched request carries a
    // readiness-to-dispatch sample.
    assert!(stat("server.connections.accepted") >= 1);
    assert!(stat("server.connections.open") >= 1, "this session is open");
    assert_eq!(stat("server.connections.closed"), 0);
    assert_eq!(stat("server.backpressure.engaged"), 0, "client drains");
    assert!(
        stat("server.latency.readiness_to_dispatch.count") >= 6,
        "each dispatched request samples readiness-to-dispatch"
    );
    assert!(
        stat("server.latency.readiness_to_dispatch.p99_ns")
            >= stat("server.latency.readiness_to_dispatch.p50_ns"),
        "quantiles are ordered"
    );
    // The query planner's instruments ride the same snapshot. Each of the
    // four `get_machine STATS*` calls carries a trailing wildcard, so the
    // planner serves it as an IndexRange over the folded machine-name
    // index; the exact-name lookups on the way (authentication resolving
    // the login, add_machine's duplicate check) are index points. Every
    // planned select also records how many rows it actually examined.
    assert!(stat("db.plan.range") >= 4, "STATS* is a prefix range");
    assert!(stat("db.plan.point") >= 1, "exact lookups are index points");
    assert!(
        stat("db.select.rows_examined.count") >= 5,
        "planned selects sample rows-examined"
    );
    client.disconnect().unwrap();
}

/// A server booted from durable media — including one rebooted after a
/// crash — surfaces its WAL telemetry through the same
/// `get_server_statistics` query clients already use.
#[test]
fn wal_statistics_surface_over_tcp_after_durable_boot() {
    use moira::db::storage::{GroupCommitConfig, SimMedia};

    let cfg = GroupCommitConfig {
        flush_interval_secs: 0,
        flush_bytes: 1, // fsync-per-commit: every ack is durable
        snapshot_every: 0,
    };
    let media = SimMedia::new();
    let registry = std::sync::Arc::new(moira::core::Registry::standard());

    // First life: durable boot, committed TCP traffic, then kill -9.
    {
        let (mut st, report) = moira::core::recovery::boot_durable(
            moira::common::VClock::new(),
            &registry,
            Box::new(media.clone()),
            cfg,
        )
        .expect("first durable boot");
        assert!(!report.recovered);
        moira::core::seed::seed_capacls(&mut st, &registry);
        let uid = moira::core::queries::testutil::add_test_user(&mut st, "ops", 1);
        st.db
            .append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
        // The seeding above went straight to the database; seal it into the
        // snapshot so only client traffic rides the WAL.
        st.storage.snapshot(&st.db, &st.journal).expect("seal seed");

        let mut server =
            moira::core::MoiraServer::new(moira::core::state::shared(st), registry.clone(), None);
        let addr = server.listen_tcp("127.0.0.1:0").unwrap();
        let _thread = ServerThread::spawn(server);
        let mut client =
            moira::client::RpcClient::connect_tcp(&addr.to_string()).expect("tcp connect");
        client.auth("ops", "wal-itest").unwrap();
        client
            .query("add_machine", &["DURABLE-TCP.MIT.EDU", "VAX"], &mut |_| {})
            .unwrap();
        client.disconnect().unwrap();
    }
    media.power_cycle();

    // Second life: recover from the WAL, serve stats over TCP.
    let (st, report) = moira::core::recovery::boot_durable(
        moira::common::VClock::new(),
        &registry,
        Box::new(media),
        cfg,
    )
    .expect("recovery boot");
    assert!(report.recovered);
    assert!(report.replayed > 0, "the TCP write came back: {report:?}");
    let mut server = moira::core::MoiraServer::new(moira::core::state::shared(st), registry, None);
    let addr = server.listen_tcp("127.0.0.1:0").unwrap();
    let _thread = ServerThread::spawn(server);
    let mut client =
        moira::client::RpcClient::connect_tcp(&addr.to_string()).expect("tcp reconnect");
    client.auth("ops", "wal-itest-2").unwrap();
    let rows = client
        .query_collect("get_machine", &["DURABLE-TCP.MIT.EDU"])
        .unwrap();
    assert_eq!(rows[0][1], "VAX", "pre-crash commit survived");
    client
        .query("add_machine", &["AFTERBOOT.MIT.EDU", "VAX"], &mut |_| {})
        .unwrap();

    let rows = client.query_collect("get_server_statistics", &[]).unwrap();
    let stat = |name: &str| -> u64 {
        rows.iter()
            .find(|row| row[0] == name)
            .unwrap_or_else(|| panic!("statistic {name} missing"))[1]
            .parse()
            .unwrap_or_else(|_| panic!("statistic {name} not numeric"))
    };
    assert!(stat("db.wal.appends") > 0, "post-boot commits hit the WAL");
    assert!(stat("db.wal.fsyncs") > 0, "fsync-per-commit policy fsynced");
    assert!(
        stat("db.wal.recovered_frames") > 0,
        "recovery telemetry survives into the serving registry"
    );
    assert_eq!(stat("db.wal.torn_tail_truncations"), 0, "clean tail");
    client.disconnect().unwrap();
}

#[test]
fn kerberos_end_to_end_through_rpc() {
    use moira::krb::realm::Kdc;
    use moira::krb::ticket::{make_authenticator, Verifier};

    let clock = moira::common::VClock::new();
    let kdc = Kdc::new(clock.clone());
    kdc.register("babette", "pw").unwrap();
    let skey = kdc.register_service("moira").unwrap();

    let registry = std::sync::Arc::new(moira::core::Registry::standard());
    let mut st = moira::core::MoiraState::new(clock.clone());
    moira::core::seed::seed_capacls(&mut st, &registry);
    moira::core::queries::testutil::add_test_user(&mut st, "babette", 42);
    let state = moira::core::state::shared(st);
    let server = moira::core::MoiraServer::new(
        state.clone(),
        registry,
        Some(Verifier::new("moira", skey, clock.clone())),
    );
    let thread = ServerThread::spawn(server);

    let mut client = thread.connect();
    let (ticket, session) = kdc.initial_ticket("babette", "pw", "moira").unwrap();
    let auth = make_authenticator(session, "babette", clock.now(), 1);
    client.auth_krb(&ticket, &auth, "chsh").unwrap();
    client
        .query("update_user_shell", &["babette", "/bin/sh"], &mut |_| {})
        .unwrap();
    // A replayed authenticator is rejected on a new connection.
    let mut replayer = thread.connect();
    assert_eq!(
        replayer.auth_krb(&ticket, &auth, "chsh").unwrap_err(),
        MrError::Replay
    );
}
