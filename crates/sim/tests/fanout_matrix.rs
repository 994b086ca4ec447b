//! The adversarial fault matrix for DCM convergence: a host with a
//! poisoned stale cursor, a straggler three generations behind, and a
//! black-holed host that costs one failed update and nothing more.
//!
//! Every scenario asserts *how* convergence happened — the patch/full byte
//! split through the `dcm.transfer.*` counters — not just that it
//! happened.

use std::sync::Arc;

use moira_dcm::host::SimHost;
use moira_dcm::net::{NetFault, Network};
use moira_dcm::retry::RetryPolicy;
use moira_dcm::update::UpdateError;
use moira_sim::{Deployment, PopulationSpec};
use parking_lot::Mutex;

/// Fast deterministic retries with escalation out of the way: the matrix
/// is about convergence, not the backoff/escalation ladder.
fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        base_secs: 1,
        max_secs: 8,
        jitter_frac: 0.0,
        escalate_after: u32::MAX,
        per_run_budget: usize::MAX,
    }
}

/// Every Hesiod server's name, sorted, with quick retries installed.
fn quick_hesiods(d: &mut Deployment) -> Vec<String> {
    let mut names = d.population.hesiod_servers.clone();
    names.sort();
    d.dcm.set_retry_policy(quick_retry());
    names
}

fn set_shell(d: &Deployment, login: &str, shell: &str) {
    let mut s = d.state.write();
    d.registry
        .execute(
            &mut s,
            &moira_core::state::Caller::root("t"),
            "update_user_shell",
            &[login.to_string(), shell.to_string()],
        )
        .unwrap();
}

fn counter(d: &Deployment, name: &str) -> u64 {
    d.state.read().obs.snapshot().counter(name)
}

/// Install-relevant files of one host (staging/backup artifacts record the
/// history of attempts, not the converged state).
fn files_of(d: &Deployment, host: &str) -> Vec<(String, Vec<u8>)> {
    let mut h = d.hosts[host].lock();
    let mut files: Vec<(String, Vec<u8>)> = h
        .files_mut()
        .iter()
        .filter(|(name, _)| !name.contains(".moira_backup") && !name.contains(".moira_update"))
        .map(|(name, data)| (name.clone(), data.clone()))
        .collect();
    files.sort();
    files
}

fn hesiod_updates(report: &moira_dcm::dcm::DcmReport) -> Vec<(String, Result<(), UpdateError>)> {
    report
        .updates
        .iter()
        .filter(|(svc, _, _)| svc == "HESIOD")
        .map(|(_, h, r)| (h.clone(), *r))
        .collect()
}

/// Forwards to the fabric and notes the transfer counters at every
/// connection. The scan updates one host at a time, so what the counters
/// gain between one host's connect and the next is that host's.
struct PerHostTransfers {
    inner: Arc<moira_sim::NetFabric>,
    obs: moira_obs::Registry,
    marks: Mutex<Vec<(String, [u64; 2])>>,
}

impl PerHostTransfers {
    fn counters(&self) -> [u64; 2] {
        let snap = self.obs.snapshot();
        [
            snap.counter("dcm.transfer.patch_members"),
            snap.counter("dcm.transfer.full_members"),
        ]
    }

    /// Per host, the `[patch_members, full_members]` its update shipped.
    fn split(&self) -> Vec<(String, [u64; 2])> {
        let marks = self.marks.lock();
        let ends = marks
            .iter()
            .skip(1)
            .map(|(_, c)| *c)
            .chain([self.counters()]);
        marks
            .iter()
            .zip(ends)
            .map(|((host, from), to)| (host.clone(), [to[0] - from[0], to[1] - from[1]]))
            .collect()
    }
}

impl Network for PerHostTransfers {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        let mark = (host.to_owned(), self.counters());
        self.marks.lock().push(mark);
        self.inner.connect(host)
    }

    fn transmit(&self, host: &str, len: usize) -> Result<(), NetFault> {
        self.inner.transmit(host, len)
    }
}

#[test]
fn stale_cursor_falls_back_to_full_and_repairs_itself() {
    let mut d = Deployment::build(&PopulationSpec {
        hesiod_servers: 2,
        ..PopulationSpec::small()
    });
    let names = quick_hesiods(&mut d);
    let (honest, poisoned) = (names[0].clone(), names[1].clone());
    d.run_dcm_once();
    let base0 = d
        .dcm
        .cursors()
        .base("HESIOD", &poisoned)
        .expect("cursor cut on first converge");

    let login = d.population.active_logins[0].clone();
    set_shell(&d, &login, "/bin/gen-one");
    d.advance(25 * 3600);
    d.run_dcm_once();
    let gen1 = d.dcm.cursors().generation("HESIOD", &poisoned).unwrap();

    // Poison one host's cursor: right generation, wrong base archive —
    // the store believes the host still holds generation-zero bytes.
    d.dcm.cursors_mut().force("HESIOD", &poisoned, gen1, base0);

    set_shell(&d, &login, "/bin/gen-two");
    d.advance(25 * 3600);
    let per_host = Arc::new(PerHostTransfers {
        inner: d.net.clone(),
        obs: d.state.read().obs.clone(),
        marks: Mutex::new(Vec::new()),
    });
    d.dcm.set_network(per_host.clone());
    let report = d.run_dcm_once();
    let updates = hesiod_updates(&report);
    assert_eq!(updates.len(), 2, "{updates:?}");
    assert!(updates.iter().all(|(_, r)| r.is_ok()), "{updates:?}");

    // The honest host's cursor matched what it held: it patched. The
    // poisoned host's base CRCs no longer matched, so the protocol shipped
    // the member whole — a wrong cursor costs bytes, never correctness.
    let split: Vec<(String, [u64; 2])> = per_host
        .split()
        .into_iter()
        .filter(|(host, _)| names.contains(host))
        .collect();
    assert_eq!(split.len(), 2, "one connection per host: {split:?}");
    let of = |host: &str| split.iter().find(|(h, _)| h == host).map(|(_, c)| *c);
    let [honest_patch, _] = of(&honest).unwrap();
    let [poisoned_patch, poisoned_full] = of(&poisoned).unwrap();
    assert!(honest_patch > 0, "{split:?}");
    assert_eq!(poisoned_patch, 0, "{split:?}");
    assert!(poisoned_full > 0, "{split:?}");
    assert_eq!(files_of(&d, &poisoned), files_of(&d, &honest));
    let gen2 = d.dcm.cursors().generation("HESIOD", &poisoned).unwrap();
    assert!(gen2 > gen1, "the confirmed install repaired the cursor");
}

#[test]
fn straggler_three_generations_behind_catches_up_with_one_patch() {
    let mut d = Deployment::build(&PopulationSpec {
        hesiod_servers: 4,
        ..PopulationSpec::small()
    });
    let names = quick_hesiods(&mut d);
    let straggler = names.last().unwrap().clone();
    d.run_dcm_once();
    let gen0 = d.dcm.cursors().generation("HESIOD", &straggler).unwrap();

    // Three generations pass while the straggler's link is dead; every
    // other host tracks each one of them.
    d.net.partition(&straggler);
    for (i, login) in d.population.active_logins[..3].to_vec().iter().enumerate() {
        set_shell(&d, login, &format!("/bin/gen-{i}"));
        d.advance(25 * 3600);
        let report = d.run_dcm_once();
        let updates = hesiod_updates(&report);
        for (host, result) in &updates {
            if host == &straggler {
                assert!(result.is_err(), "partitioned: {updates:?}");
            } else {
                assert!(result.is_ok(), "{updates:?}");
            }
        }
        assert_eq!(
            d.dcm.cursors().generation("HESIOD", &straggler),
            Some(gen0),
            "no confirmation, no cursor movement"
        );
    }

    // Heal: its cursor still describes exactly what it holds, so three
    // generations of drift cross as one line patch, not a full archive.
    d.net.heal(&straggler);
    d.advance(60);
    let patch = counter(&d, "dcm.transfer.patch_members");
    let full = counter(&d, "dcm.transfer.full_members");
    let report = d.run_dcm_once();
    assert!(
        hesiod_updates(&report).iter().all(|(_, r)| r.is_ok()),
        "{report:?}"
    );
    assert!(counter(&d, "dcm.transfer.patch_members") > patch);
    assert_eq!(counter(&d, "dcm.transfer.full_members"), full);
    assert_eq!(files_of(&d, &straggler), files_of(&d, &names[0]));
    assert!(d.dcm.cursors().generation("HESIOD", &straggler).unwrap() > gen0);
}

/// A network where one host swallows every connection until the
/// protocol timeout: the shape of a black-holed host in a serial scan.
struct BlackHole {
    victim: String,
}

impl Network for BlackHole {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        if host == self.victim {
            return Err(NetFault::TimedOut);
        }
        Ok(())
    }

    fn transmit(&self, _host: &str, _len: usize) -> Result<(), NetFault> {
        Ok(())
    }
}

#[test]
fn black_holed_host_costs_one_budget() {
    use moira_core::queries::testutil::{add_test_machine, state_with_admin};
    use moira_core::registry::Registry;
    use moira_core::state::Caller;
    use moira_dcm::dcm::Dcm;

    let (mut s, _) = state_with_admin("ops");
    let registry = Arc::new(Registry::standard());
    let ops = Caller::new("ops", "test");
    let run = |s: &mut moira_core::state::MoiraState, q: &str, args: &[&str]| {
        let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
        registry.execute(s, &ops, q, &args).unwrap()
    };
    run(
        &mut s,
        "add_server_info",
        &[
            "HESIOD",
            "360",
            "/tmp/hesiod.out",
            "restart-hesiod",
            "UNIQUE",
            "1",
            "NONE",
            "NONE",
        ],
    );
    let names: Vec<String> = (0..17).map(|k| format!("BH{k:02}.MIT.EDU")).collect();
    for name in &names {
        add_test_machine(&mut s, name);
        run(
            &mut s,
            "add_server_host_info",
            &["HESIOD", name, "1", "0", "0", ""],
        );
    }
    run(
        &mut s,
        "add_user",
        &[
            "babette", "6530", "/bin/csh", "F", "H", "C", "1", "x", "1990",
        ],
    );
    let state = moira_core::state::shared(s);
    let mut dcm = Dcm::new(state.clone(), registry);
    dcm.set_retry_policy(quick_retry());
    let victim = names[3].clone();
    dcm.set_network(Arc::new(BlackHole {
        victim: victim.clone(),
    }));
    let hosts: Vec<Arc<Mutex<SimHost>>> = names
        .iter()
        .map(|n| Arc::new(Mutex::new(SimHost::new(n))))
        .collect();
    for h in &hosts {
        dcm.add_host(h.clone());
    }

    // The victim fails once, with a soft timeout, and the scan moves on
    // to every host after it.
    let report = dcm.run_once();
    let (ok, failed): (Vec<_>, Vec<_>) = report.updates.iter().partition(|(_, _, r)| r.is_ok());
    assert_eq!(ok.len(), 16, "every healthy host updated: {report:?}");
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].1, victim);
    assert_eq!(failed[0].2, Err(UpdateError::Timeout), "one budget, shed");
}
