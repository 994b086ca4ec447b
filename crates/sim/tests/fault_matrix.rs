//! The network-fault convergence matrix (E8's integration-level half).
//!
//! Each test injects one class of network fault through the deployment's
//! [`NetFabric`], lets the DCM retry under the unified backoff policy, and
//! asserts *convergence*: the final installed files match what a fault-free
//! run produces, with no torn files and no unbounded retry storm.

use moira_client::MoiraConn;
use moira_core::schema::{machine, members, serverhosts};
use moira_dcm::retry::RetryPolicy;
use moira_dcm::update::UpdateError;
use moira_sim::{Deployment, PopulationSpec};

/// The installed Hesiod passwd.db on `host`, if any.
fn hesiod_passwd(d: &Deployment, host: &str) -> Option<Vec<u8>> {
    d.hosts[host]
        .lock()
        .read_file("/var/hesiod/passwd.db")
        .map(|b| b.to_vec())
}

/// Every enabled serverhost reports success.
fn converged(d: &Deployment) -> bool {
    let s = d.state.read();
    let all_ok = s.db.table(serverhosts::T).iter_rows().all(|r| {
        !r.get(serverhosts::ENABLE)
            || r.get(serverhosts::SERVICE) == "POP"
            || r.get(serverhosts::SUCCESS)
    });
    all_ok
}

/// What a fault-free run installs — the convergence target. Deployment
/// construction is deterministic, so a second build is a valid oracle.
fn fault_free_passwd() -> Vec<u8> {
    let mut d = Deployment::build(&PopulationSpec::small());
    d.run_dcm_once();
    let host = d.population.hesiod_servers[0].clone();
    hesiod_passwd(&d, &host).expect("fault-free run installs hesiod")
}

#[test]
fn partition_during_transfer_converges_after_heal() {
    let mut d = Deployment::build(&PopulationSpec::small());
    let victim = d.population.hesiod_servers[0].clone();
    d.net.partition(&victim);
    let report = d.run_dcm_once();
    let failure = report
        .updates
        .iter()
        .find(|(_, h, _)| h == &victim)
        .expect("partitioned host attempted");
    assert_eq!(
        failure.2,
        Err(UpdateError::HostDown),
        "partition = host down"
    );
    assert!(
        hesiod_passwd(&d, &victim).is_none(),
        "nothing crossed the partition"
    );
    assert!(!converged(&d));
    // Heal; the soft-failure retry converges to the fault-free state.
    d.net.heal(&victim);
    d.advance(25 * 3600);
    d.run_dcm_once();
    assert!(converged(&d));
    assert_eq!(hesiod_passwd(&d, &victim).unwrap(), fault_free_passwd());
}

#[test]
fn drop_heavy_flaky_link_converges_through_the_flake() {
    let mut d = Deployment::build(&PopulationSpec::small());
    let victim = d.population.hesiod_servers[0].clone();
    // A link losing a third of its legs, never healed. Escalation is
    // raised out of the way: this test is about the retry loop itself.
    d.net.set_drop_prob(&victim, 0.35);
    d.dcm.set_retry_policy(RetryPolicy {
        escalate_after: u32::MAX,
        ..RetryPolicy::default()
    });
    let mut passes = 0;
    loop {
        d.run_dcm_once();
        if converged(&d) {
            break;
        }
        passes += 1;
        assert!(passes < 60, "flaky link never converged");
        d.advance(25 * 3600);
    }
    assert_eq!(
        hesiod_passwd(&d, &victim).unwrap(),
        fault_free_passwd(),
        "converged state matches the fault-free run exactly"
    );
    let stats = d.net.stats();
    assert!(stats.drops > 0, "the flake actually fired: {stats:?}");
}

#[test]
fn partition_healing_mid_run_needs_no_operator() {
    let mut d = Deployment::build(&PopulationSpec::small());
    let victim = d.population.hesiod_servers[0].clone();
    let now = d.clock.now();
    // The partition heals by itself while the DCM is still retrying.
    d.net.partition_until(&victim, now + 30 * 3600);
    d.run_dcm_once();
    assert!(!converged(&d));
    d.advance(25 * 3600); // still partitioned
    d.run_dcm_once();
    assert!(!converged(&d), "partition still up at +25h");
    d.advance(25 * 3600); // now past +30h: healed
    d.run_dcm_once();
    assert!(
        converged(&d),
        "healed partition converges without any reset"
    );
    assert_eq!(hesiod_passwd(&d, &victim).unwrap(), fault_free_passwd());
}

#[test]
fn escalation_pages_operator_when_partition_outlives_the_streak() {
    let mut d = Deployment::build(&PopulationSpec::small());
    let victim = d.population.hesiod_servers[0].clone();
    d.net.partition(&victim);
    d.dcm.set_retry_policy(RetryPolicy {
        base_secs: 60,
        max_secs: 3600,
        jitter_frac: 0.0,
        escalate_after: 3,
        per_run_budget: usize::MAX,
    });
    for _ in 0..6 {
        d.run_dcm_once();
        d.advance(2 * 3600);
    }
    assert_eq!(d.dcm.stats.escalations, 1);
    assert!(
        d.dcm
            .notices
            .iter()
            .any(|n| n.kind == "mail" && n.message.contains("escalated after 3")),
        "operator mailed about the stuck host"
    );
    // hosterror now gates the host: no more attempts pile onto the dead
    // link, however long the outage lasts.
    let before = d.dcm.stats.updates_attempted;
    for _ in 0..4 {
        d.advance(25 * 3600);
        d.run_dcm_once();
    }
    assert_eq!(d.dcm.stats.updates_attempted, before, "no retry storm");
}

#[test]
fn backoff_gate_reduces_attempts_versus_naive_retry() {
    // The same permanent outage, driven through the same cron cadence,
    // under the naive retry-every-pass policy and under the backoff gate.
    let attempts_under = |policy: RetryPolicy| -> u64 {
        let mut d = Deployment::build(&PopulationSpec::small());
        let victim = d.population.hesiod_servers[0].clone();
        d.net.partition(&victim);
        d.dcm.set_retry_policy(policy);
        for _ in 0..12 {
            d.run_dcm_once();
            d.advance(3600);
        }
        d.dcm.stats.updates_attempted
    };
    let naive = attempts_under(RetryPolicy {
        base_secs: 0,
        max_secs: 0,
        jitter_frac: 0.0,
        escalate_after: u32::MAX,
        per_run_budget: usize::MAX,
    });
    let gated = attempts_under(RetryPolicy {
        escalate_after: u32::MAX,
        ..RetryPolicy::default()
    });
    assert!(
        gated < naive,
        "backoff gate must reduce attempts: gated={gated} naive={naive}"
    );
}

#[test]
fn overloaded_server_is_client_visible_and_recoverable() {
    use moira_common::errors::MrError;
    use moira_core::server::standard_server;

    // A server with no dispatch budget sheds every request with the
    // distinct Busy status; clients see it, not a hang or a vague abort.
    let (mut server, _, _) = standard_server(moira_common::VClock::new());
    server.set_overload_limit(Some(0));
    let thread = moira_client::ServerThread::spawn(server);
    let mut client = thread.connect();
    client.set_busy_retry(1, 0);
    assert_eq!(client.noop(), Err(MrError::Busy));
    drop(thread);

    // Under a tight but non-zero budget, concurrent clients retrying with
    // backoff all make it through the contention.
    let (mut server, state, _) = standard_server(moira_common::VClock::new());
    {
        let mut s = state.write();
        let uid = moira_core::queries::testutil::add_test_user(&mut s, "ops", 1);
        s.db.append(members::T, vec![2.into(), "USER".into(), uid.into()])
            .unwrap();
    }
    server.set_overload_limit(Some(1));
    let thread = std::sync::Arc::new(moira_client::ServerThread::spawn(server));
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let thread = thread.clone();
            std::thread::spawn(move || {
                let mut client = thread.connect();
                client.set_busy_retry(64, 1);
                client.auth("ops", &format!("w{i}")).unwrap();
                for j in 0..3 {
                    client
                        .query(
                            "add_machine",
                            &[&format!("BOX-{i}-{j}"), "VAX"],
                            &mut |_| {},
                        )
                        .unwrap();
                }
                client.busy_resends
            })
        })
        .collect();
    let resends: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let machines = {
        let s = state.read();
        s.db.table(machine::T)
            .select(&moira_db::Pred::Like(machine::NAME, "BOX-*".into()))
            .len()
    };
    assert_eq!(machines, 12, "every shed request eventually landed");
    // Informational: contention may or may not have produced sheds, but
    // the accounting must be consistent either way.
    let _ = resends;
}
