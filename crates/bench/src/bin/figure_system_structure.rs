//! Experiment E2: Figure 1, "The Moira System Structure".
//!
//! Reproduces the figure as a component trace: one administrative change
//! travels client → application library → Moira protocol → Moira server →
//! database, and one DCM cycle travels database → DCM → update protocol →
//! server host → consumer. Every arrow in the figure is exercised and
//! printed.

use moira_client::{MoiraConn, ServerThread};
use moira_core::schema::members;
use moira_core::server::standard_server;
use moira_sim::{Deployment, PopulationSpec};

fn main() {
    println!("=== E2 — Figure 1: The Moira System Structure ===\n");
    println!(
        "  [application]--[application library]--(Moira protocol)--[Moira server]--[database]"
    );
    println!("  [database]--[DCM]--(update protocol)--[server hosts]--[consumers]\n");

    // Leg 1: administrative application through the RPC stack.
    let (server, state, _registry) = standard_server(moira_common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira_core::queries::testutil::add_test_user(&mut s, "admin", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    let thread = ServerThread::spawn(server);
    let mut client = thread.connect();
    println!("client: mr_connect()                      -> connected (in-process transport)");
    client.auth("admin", "machmaint").unwrap();
    println!("client: mr_auth(\"admin\", \"machmaint\")     -> authenticated");
    client
        .access("add_machine", &["DOWNY.MIT.EDU", "VAX"])
        .unwrap();
    println!("client: mr_access(add_machine, …)         -> permitted (ACL pre-check)");
    client
        .query("add_machine", &["DOWNY.MIT.EDU", "VAX"], &mut |_| {})
        .unwrap();
    println!("client: mr_query(add_machine, …)          -> executed; journaled by server");
    let rows = client
        .query_collect("get_machine", &["DOWNY.MIT.EDU"])
        .unwrap();
    println!(
        "client: mr_query(get_machine, …)          -> tuple {:?}",
        rows[0]
    );
    {
        let s = state.read();
        println!(
            "server: journal                           -> {} entries; last = {}",
            s.journal.len(),
            s.journal
                .entries()
                .last()
                .map(|e| e.query.as_str())
                .unwrap_or("-")
        );
    }
    drop(client);
    drop(thread);

    // Leg 2: the DCM distribution path over a small deployment.
    println!();
    let mut d = Deployment::build(&PopulationSpec::small());
    let report = d.run_dcm_once();
    for (svc, files, bytes) in &report.generated {
        println!("dcm: generate {svc:<7} -> {files} files, {bytes} bytes");
    }
    for (svc, host, result) in &report.updates {
        println!(
            "dcm: update {svc:<7} on {host:<22} -> {}",
            if result.is_ok() {
                "installed + script run"
            } else {
                "FAILED"
            }
        );
    }
    let login = d.population.active_logins[0].clone();
    let hes = d.hesiod_one();
    let answer = hes.lock().resolve(&login, "pobox").unwrap();
    println!(
        "consumer: hesiod.resolve({login}, pobox)  -> {:?}",
        answer[0]
    );
    println!("\nAll components of Figure 1 exercised end to end.");
}
