//! The paper's own worked examples and scenarios, verbatim, as tests.

use moira::client::apps::{MailMaint, UserMaint};
use moira::client::{DirectClient, MoiraConn};
use moira::common::errors::MrError;
use moira::core::schema::users;
use moira::core::state::Caller;
use moira::core::userreg::{make_authenticator, RegReply, RegRequest};
use moira::sim::{Deployment, PopulationSpec};

/// §3, first example: "One example is for the user accounts administrator
/// to run an application on her workstation which will change the disk
/// quota assigned to a user. She doesn't need to log in to any other
/// machine to do this, and the change will automatically take place on the
/// proper server a short time later."
#[test]
fn quota_change_example() {
    let mut athena = Deployment::build(&PopulationSpec::small());
    athena.run_dcm_once();
    athena.advance(60);
    let user = athena.population.active_logins[3].clone();

    // The administrator runs the application on *her workstation* — i.e. a
    // client connection, not a login to the NFS server.
    let mut conn =
        DirectClient::connect_as_root(athena.state.clone(), athena.registry.clone(), "usermaint");
    UserMaint::set_quota(&mut conn, &user, &user, 450).unwrap();

    // "a short time later" — the next NFS interval.
    athena.advance(13 * 3600);
    athena.run_dcm_once();
    let uid: i64 = {
        let s = athena.state.read();
        let row =
            s.db.table(users::T)
                .select_one(&moira::db::Pred::Eq(users::LOGIN, user.clone().into()))
                .unwrap();
        s.db.cell(row, users::UID).as_int()
    };
    // Exactly the proper server has the new quota.
    let holders = athena
        .nfs
        .values()
        .filter(|srv| srv.lock().quota(uid) == Some(450))
        .count();
    assert_eq!(holders, 1);
}

/// §3, second example: "Another example is for a user to run an application
/// to add themselves to a public mailing list. … Sometime later, the
/// mailing lists file on the central mail hub will be updated to show this
/// change."
#[test]
fn mailing_list_self_service_example() {
    let mut athena = Deployment::build(&PopulationSpec::small());
    athena.run_dcm_once();
    athena.advance(60);
    let user = athena.population.active_logins[5].clone();
    let list = athena.population.public_lists[0].clone();

    let mut me = DirectClient::connect(
        athena.state.clone(),
        athena.registry.clone(),
        &user,
        "mailmaint",
    );
    MailMaint::subscribe(&mut me, &user, &list).unwrap();

    // Before propagation the hub's aliases file is stale…
    let hub = athena.mail_one();
    let already =
        hub.lock().resolve(&list).iter().any(
            |d| matches!(d, moira::svc::mail::Destination::PoBox { user: u, .. } if *u == user),
        );
    assert!(!already, "change must not be visible before the DCM runs");

    // …"sometime later" (the 24-hour aliases interval) it shows the change.
    athena.advance(25 * 3600);
    athena.run_dcm_once();
    let now_there =
        hub.lock().resolve(&list).iter().any(
            |d| matches!(d, moira::svc::mail::Destination::PoBox { user: u, .. } if *u == user),
        );
    assert!(now_there);
}

/// §5.2.1's input-checking example: "If, instead of typing e40-po (a valid
/// post office server), the user typed in e40-p0 (a nonexistant machine),
/// all the user's mail would be 'returned to sender' as undelivereable" —
/// so the server rejects it.
#[test]
fn input_checking_example() {
    let athena = Deployment::build(&PopulationSpec::small());
    let user = athena.population.active_logins[0].clone();
    let mut conn =
        DirectClient::connect_as_root(athena.state.clone(), athena.registry.clone(), "chpobox");
    let err = conn
        .query("set_pobox", &[&user, "POP", "e40-p0"], &mut |_| {})
        .unwrap_err();
    assert_eq!(err, MrError::Machine, "the typo is caught by validation");
}

/// §5.8.2 NFS: "the user will not benefit from this allocation for a
/// maximum of six hours … When the … time is reached the DCM will create
/// the above two files and send them to the appropriate target servers."
#[test]
fn registration_lag_scenario() {
    let mut spec = PopulationSpec::small();
    spec.unregistered_users = 1;
    let mut athena = Deployment::build(&spec);
    athena.run_dcm_once();
    athena.advance(60);

    let (first, last, id) = athena.population.unregistered[0].clone();
    let grab = athena.regserver.handle(&RegRequest::GrabLogin {
        first: first.clone(),
        last: last.clone(),
        authenticator: make_authenticator(&id, &first, &last, Some("lagtest")),
    });
    assert!(matches!(grab, RegReply::Ok(_)));
    {
        // Accounts staff activates the account so extraction picks it up.
        let mut s = athena.state.write();
        athena
            .registry
            .execute(
                &mut s,
                &Caller::root("staff"),
                "update_user_status",
                &["lagtest".into(), "1".into()],
            )
            .unwrap();
    }

    // Immediately: no locker exists anywhere.
    let locker = "/u1/lockers/lagtest".to_owned();
    assert!(athena
        .nfs
        .values()
        .all(|n| n.lock().locker(&locker).is_none()));

    // After the NFS interval the DCM ships the dirs file and the install
    // script creates the locker with init files.
    athena.advance(13 * 3600);
    athena.run_dcm_once();
    let created = athena
        .nfs
        .values()
        .filter(|n| n.lock().locker(&locker).is_some_and(|l| l.init_files))
        .count();
    assert_eq!(created, 1);
}

/// §5.8.2 Hesiod: "Moira will propagate hesiod files to the target disk and
/// the run a shell script which will kill the running server and then
/// restart it, causing the newly updated files to be read into memory."
#[test]
fn hesiod_restart_semantics() {
    let mut athena = Deployment::build(&PopulationSpec::small());
    athena.run_dcm_once();
    let hes = athena.hesiod_one();
    assert_eq!(hes.lock().restarts, 1, "first install restarted the server");
    let names_before = hes.lock().name_count();
    assert!(names_before > 0);

    // A change, then the next interval: the server restarts and the new
    // memory image contains the change.
    athena.advance(60);
    {
        let mut s = athena.state.write();
        athena
            .registry
            .execute(
                &mut s,
                &Caller::root("t"),
                "add_machine",
                &["RESTARTME".into(), "RT".into()],
            )
            .unwrap();
        let login = athena.population.active_logins[0].clone();
        athena
            .registry
            .execute(
                &mut s,
                &Caller::root("t"),
                "update_user_shell",
                &[login, "/bin/zsh".into()],
            )
            .unwrap();
    }
    athena.advance(7 * 3600);
    athena.run_dcm_once();
    let hes = hes.lock();
    assert_eq!(hes.restarts, 2);
    let login = athena.population.active_logins[0].clone();
    assert!(hes.resolve(&login, "passwd").unwrap()[0].ends_with(":/bin/zsh"));
}

/// §4: "Moira must be tamper-proof. It should be safe from denial-of-service
/// attacks and malicious network attacks (such as replay of transactions,
/// or arbitrary 'deathgrams')."
#[test]
fn tamper_resistance_scenario() {
    use moira::client::ServerThread;
    use moira::core::server::standard_server;
    use moira::protocol::transport::{pair, Channel};

    let (mut server, _state, _) = standard_server(moira::common::VClock::new());
    let (mut attacker, server_end) = pair();
    server.attach(Box::new(server_end), "attacker", 666);
    let thread = ServerThread::spawn(server);

    // Arbitrary garbage frames ("deathgrams") must not kill the server.
    for garbage in [
        bytes::Bytes::from_static(b""),
        bytes::Bytes::from_static(b"\x00"),
        bytes::Bytes::from_static(b"\xff\xff\xff\xff\xff\xff\xff\xff\xff"),
        bytes::Bytes::from(vec![0x41u8; 4096]),
    ] {
        attacker.send(garbage).unwrap();
    }
    // The server is still alive and serving a legitimate client.
    let mut legit = thread.connect();
    legit.noop().expect("server survived the deathgrams");
}
