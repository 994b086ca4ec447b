//! Quickstart: bring up a Moira server, connect a client, make an
//! administrative change, and watch the DCM distribute it.
//!
//! Run with: `cargo run --example quickstart`

use moira::client::{MoiraConn, ServerThread};
use moira::core::schema::members;
use moira::core::server::standard_server;
use moira::sim::{Deployment, PopulationSpec};

fn main() {
    // --- 1. A Moira server with a seeded database. -------------------------
    let (server, state, _registry) = standard_server(moira::common::VClock::new());
    {
        // Bootstrap one administrator onto the moira-admins list (id 2).
        let mut s = state.write();
        let uid = moira::core::queries::testutil::add_test_user(&mut s, "admin", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    let thread = ServerThread::spawn(server);

    // --- 2. A client connects, authenticates, and works. -------------------
    let mut client = thread.connect();
    client.noop().expect("mr_noop handshake");
    client.auth("admin", "quickstart").expect("mr_auth");
    println!("connected and authenticated as admin");

    client
        .query("add_machine", &["E40-PO.MIT.EDU", "VAX"], &mut |_| {})
        .expect("add a machine");
    client
        .query(
            "add_user",
            &[
                "babette", "6530", "/bin/csh", "Fowler", "Harmon", "C", "1", "xid", "1990",
            ],
            &mut |_| {},
        )
        .expect("add a user");
    client
        .query(
            "set_pobox",
            &["babette", "POP", "E40-PO.MIT.EDU"],
            &mut |_| {},
        )
        .expect("assign a post office box");

    let mut rows = Vec::new();
    client
        .query("get_user_by_login", &["babette"], &mut |tuple| {
            rows.push(tuple.to_vec())
        })
        .expect("retrieve");
    println!(
        "get_user_by_login(babette) -> login={} uid={} shell={}",
        rows[0][0], rows[0][1], rows[0][2]
    );

    // Unauthorized callers are refused: a fresh, unauthenticated connection
    // cannot mutate.
    let mut anonymous = thread.connect();
    let denied = anonymous.query("add_machine", &["EVIL", "VAX"], &mut |_| {});
    println!("unauthenticated add_machine -> {:?}", denied.unwrap_err());
    drop(client);
    drop(anonymous);
    drop(thread);

    // --- 3. The full pipeline: population, DCM, consumers. -----------------
    println!("\nbuilding a small simulated Athena and running one DCM cycle…");
    let mut athena = Deployment::build(&PopulationSpec::small());
    let report = athena.run_dcm_once();
    for (svc, files, bytes) in &report.generated {
        println!("  generated {svc}: {files} files, {bytes} bytes");
    }
    println!(
        "  pushed {} host updates, all succeeded: {}",
        report.updates.len(),
        report.updates.iter().all(|(_, _, r)| r.is_ok())
    );
    let login = athena.population.active_logins[0].clone();
    let hesiod = athena.hesiod_one();
    let answer = hesiod
        .lock()
        .resolve(&login, "pobox")
        .expect("hesiod lookup");
    println!("  hesiod now answers: {login}.pobox -> {:?}", answer[0]);
    println!("\nquickstart complete.");
}
