//! The adversarial fault matrix for the hierarchical fan-out tier: relay
//! crash mid-fan-out, a relay with a poisoned stale cursor, a whole rack
//! partitioned and healing after the cycle, a straggler three generations
//! behind, and a black-holed host that must not stall the pool.
//!
//! Every scenario asserts *how* convergence happened — plan-time versus
//! transfer-time deferrals through `dcm.fanout.*`, and the patch/full
//! byte split through the tiered `dcm.transfer.{origin,relay}.*`
//! counters — not just that it happened.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moira_dcm::host::SimHost;
use moira_dcm::net::{NetFault, Network};
use moira_dcm::relay::RackTopology;
use moira_dcm::retry::RetryPolicy;
use moira_dcm::update::UpdateError;
use moira_sim::{Deployment, PopulationSpec};
use parking_lot::Mutex;

/// Fast deterministic retries with escalation out of the way: the matrix
/// is about the fan-out tier, not the backoff/escalation ladder.
fn quick_retry() -> RetryPolicy {
    RetryPolicy {
        base_secs: 1,
        max_secs: 8,
        jitter_frac: 0.0,
        escalate_after: u32::MAX,
        per_run_budget: usize::MAX,
    }
}

/// One rack holding every Hesiod server, wired into the DCM (and, when
/// `fabric` is set, into the net fabric's fault domains). Returns the
/// sorted member names: index 0 is the relay the election will pick.
fn rack_the_hesiods(d: &mut Deployment, width: usize, fabric: bool) -> Vec<String> {
    let mut names = d.population.hesiod_servers.clone();
    names.sort();
    let mut topo = RackTopology::new();
    topo.add_rack("r0", names.iter().cloned());
    if fabric {
        for n in &names {
            d.net.assign_rack(n, "r0");
        }
    }
    d.dcm.set_topology(topo);
    d.dcm.set_fanout_width(width);
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

/// A fabric wrapper that downs the rack relay the moment the fan-out
/// reaches its second leaf — the relay dies *mid*-fan-out, after its own
/// wave-1 update and one leaf have already succeeded.
struct RelayKiller {
    inner: Arc<moira_sim::NetFabric>,
    relay: Arc<Mutex<SimHost>>,
    leaves: HashSet<String>,
    armed: AtomicBool,
    seen: Mutex<HashSet<String>>,
}

impl Network for RelayKiller {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        if self.armed.load(Ordering::SeqCst) && self.leaves.contains(host) {
            let mut seen = self.seen.lock();
            seen.insert(host.to_owned());
            if seen.len() == 2 {
                self.relay.lock().up = false;
                self.armed.store(false, Ordering::SeqCst);
            }
        }
        self.inner.connect(host)
    }

    fn transmit(&self, host: &str, len: usize) -> Result<(), NetFault> {
        self.inner.transmit(host, len)
    }
}

#[test]
fn relay_crash_mid_fanout_defers_remaining_leaves_then_patches() {
    let mut d = Deployment::build(&PopulationSpec {
        hesiod_servers: 4,
        ..PopulationSpec::small()
    });
    // Width 1 makes the leg order deterministic: relay wave, then leaves
    // one at a time.
    let names = rack_the_hesiods(&mut d, 1, false);
    let relay = names[0].clone();
    d.run_dcm_once();
    assert!(hesiod_updates(&d.dcm.run_once()).is_empty(), "converged");

    let killer = Arc::new(RelayKiller {
        inner: d.net.clone(),
        relay: d.hosts[&relay].clone(),
        leaves: names[1..].iter().cloned().collect(),
        armed: AtomicBool::new(true),
        seen: Mutex::new(HashSet::new()),
    });
    d.dcm.set_network(killer);

    let login = d.population.active_logins[0].clone();
    set_shell(&d, &login, "/bin/crash-cycle");
    d.advance(25 * 3600);
    let deferrals = d.dcm.stats.relay_deferrals;
    let leg_relay = counter(&d, "dcm.retry.leg.relay");
    let deferred = counter(&d, "dcm.fanout.relay_deferred");
    let report = d.run_dcm_once();

    // Relay + two leaves landed before the crash; the last leaf was
    // refused at its relay gate and charged to the "relay" leg.
    let updates = hesiod_updates(&report);
    assert_eq!(updates.len(), 4, "{updates:?}");
    let failed: Vec<_> = updates.iter().filter(|(_, r)| r.is_err()).collect();
    assert_eq!(failed.len(), 1, "{updates:?}");
    assert_eq!(failed[0].1, Err(UpdateError::HostDown), "soft, retried");
    assert_ne!(failed[0].0, relay, "the relay itself finished first");
    assert_eq!(d.dcm.stats.relay_deferrals, deferrals + 1);
    assert_eq!(counter(&d, "dcm.retry.leg.relay"), leg_relay + 1);
    assert_eq!(counter(&d, "dcm.fanout.relay_deferred"), deferred + 1);

    // The relay reboots with its files intact; the deferred leaf recovers
    // by patch — its cursor base still matches what it holds.
    d.hosts[&relay].lock().reboot();
    d.advance(60);
    let patch = counter(&d, "dcm.transfer.relay.patch_members");
    let full = counter(&d, "dcm.transfer.relay.full_members");
    let report = d.run_dcm_once();
    assert!(
        hesiod_updates(&report).iter().all(|(_, r)| r.is_ok()),
        "{report:?}"
    );
    assert!(counter(&d, "dcm.transfer.relay.patch_members") > patch);
    assert_eq!(counter(&d, "dcm.transfer.relay.full_members"), full);
    for n in &names[1..] {
        assert_eq!(files_of(&d, n), files_of(&d, &relay), "{n} diverged");
    }
}

#[test]
fn stale_relay_cursor_falls_back_to_full_and_repairs_itself() {
    let mut d = Deployment::build(&PopulationSpec {
        hesiod_servers: 2,
        ..PopulationSpec::small()
    });
    let names = rack_the_hesiods(&mut d, 2, false);
    let (relay, leaf) = (names[0].clone(), names[1].clone());
    d.run_dcm_once();
    let base0 = d
        .dcm
        .cursors()
        .base("HESIOD", &leaf)
        .expect("cursor cut on first converge");

    let login = d.population.active_logins[0].clone();
    set_shell(&d, &login, "/bin/gen-one");
    d.advance(25 * 3600);
    d.run_dcm_once();
    let gen1 = d.dcm.cursors().generation("HESIOD", &leaf).unwrap();

    // Poison the leaf's cursor: right generation, wrong base archive —
    // the store believes the leaf still holds generation-zero bytes.
    d.dcm.cursors_mut().force("HESIOD", &leaf, gen1, base0);

    set_shell(&d, &login, "/bin/gen-two");
    d.advance(25 * 3600);
    let origin_patch = counter(&d, "dcm.transfer.origin.patch_members");
    let relay_patch = counter(&d, "dcm.transfer.relay.patch_members");
    let relay_full = counter(&d, "dcm.transfer.relay.full_members");
    let report = d.run_dcm_once();
    assert!(
        hesiod_updates(&report).iter().all(|(_, r)| r.is_ok()),
        "{report:?}"
    );

    // The relay's own cursor was honest: it patched. The leaf's base CRC
    // no longer matched the poisoned base, so the protocol shipped the
    // member whole — wrong cursor costs bytes, never correctness.
    assert!(counter(&d, "dcm.transfer.origin.patch_members") > origin_patch);
    assert_eq!(counter(&d, "dcm.transfer.relay.patch_members"), relay_patch);
    assert!(counter(&d, "dcm.transfer.relay.full_members") > relay_full);
    assert_eq!(files_of(&d, &leaf), files_of(&d, &relay));
    let gen2 = d.dcm.cursors().generation("HESIOD", &leaf).unwrap();
    assert!(gen2 > gen1, "the confirmed install repaired the cursor");
}

#[test]
fn partitioned_rack_defers_leaves_at_plan_time_and_heals_by_patch() {
    let mut d = Deployment::build(&PopulationSpec {
        hesiod_servers: 5,
        ..PopulationSpec::small()
    });
    let names = rack_the_hesiods(&mut d, 4, true);
    d.run_dcm_once();

    let login = d.population.active_logins[0].clone();
    set_shell(&d, &login, "/bin/partitioned");
    d.advance(25 * 3600);
    d.net.partition_rack("r0");
    let deferrals = d.dcm.stats.relay_deferrals;
    let deferred = counter(&d, "dcm.fanout.relay_deferred");
    let report = d.run_dcm_once();

    // The relay's origin leg failed against the rack's dead uplink, so
    // every leaf was deferred at plan time: no prepare, no report entry,
    // no retry charge — one failed leg stands for the whole rack.
    let updates = hesiod_updates(&report);
    assert_eq!(
        updates.len(),
        1,
        "only the relay was attempted: {updates:?}"
    );
    assert_eq!(updates[0].1, Err(UpdateError::HostDown));
    assert_eq!(d.dcm.stats.relay_deferrals, deferrals + 4);
    assert_eq!(counter(&d, "dcm.fanout.relay_deferred"), deferred + 4);

    // The rack heals after the cycle; everything converges by patch.
    d.net.heal_rack("r0");
    d.advance(60);
    let origin_patch = counter(&d, "dcm.transfer.origin.patch_members");
    let relay_patch = counter(&d, "dcm.transfer.relay.patch_members");
    let origin_full = counter(&d, "dcm.transfer.origin.full_members");
    let relay_full = counter(&d, "dcm.transfer.relay.full_members");
    let report = d.run_dcm_once();
    let updates = hesiod_updates(&report);
    assert_eq!(updates.len(), 5, "{updates:?}");
    assert!(updates.iter().all(|(_, r)| r.is_ok()), "{updates:?}");
    assert!(counter(&d, "dcm.transfer.origin.patch_members") > origin_patch);
    assert!(counter(&d, "dcm.transfer.relay.patch_members") > relay_patch);
    assert_eq!(counter(&d, "dcm.transfer.origin.full_members"), origin_full);
    assert_eq!(counter(&d, "dcm.transfer.relay.full_members"), relay_full);
    for n in &names[1..] {
        assert_eq!(files_of(&d, n), files_of(&d, &names[0]), "{n} diverged");
    }
}

#[test]
fn straggler_three_generations_behind_catches_up_with_one_patch() {
    let mut d = Deployment::build(&PopulationSpec {
        hesiod_servers: 4,
        ..PopulationSpec::small()
    });
    let names = rack_the_hesiods(&mut d, 4, false);
    let straggler = names.last().unwrap().clone();
    d.run_dcm_once();
    let gen0 = d.dcm.cursors().generation("HESIOD", &straggler).unwrap();

    // Three generations pass while the straggler's own link is dead; the
    // rest of the rack tracks every one of them.
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

/// A network where one host swallows connections for a long real-world
/// beat while every healthy leg takes a short one — the shape of a
/// black-holed host stalling a serial scan.
struct BlackHole {
    victim: String,
}

// The sleeps model wire latency on the DCM's update legs, which are
// themselves an asserted seam.
#[allow(clippy::disallowed_methods)]
impl Network for BlackHole {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        if host == self.victim {
            std::thread::sleep(Duration::from_millis(200));
            return Err(NetFault::TimedOut);
        }
        std::thread::sleep(Duration::from_millis(4));
        Ok(())
    }

    fn transmit(&self, _host: &str, _len: usize) -> Result<(), NetFault> {
        std::thread::sleep(Duration::from_millis(4));
        Ok(())
    }
}

#[test]
fn black_holed_host_cannot_stall_the_cycle_past_one_budget() {
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
    dcm.set_fanout_width(8);
    let hosts: Vec<Arc<Mutex<SimHost>>> = names
        .iter()
        .map(|n| Arc::new(Mutex::new(SimHost::new(n))))
        .collect();
    for h in &hosts {
        dcm.add_host(h.clone());
    }

    // Serially this cycle costs 16 healthy hosts × 7 × 4 ms plus the
    // victim's 200 ms timeout ≈ 650 ms. With an 8-wide pool the victim's
    // budget overlaps the healthy legs instead of adding to them.
    let start = Instant::now();
    let report = dcm.run_once();
    let wall = start.elapsed();

    let (ok, failed): (Vec<_>, Vec<_>) = report.updates.iter().partition(|(_, _, r)| r.is_ok());
    assert_eq!(ok.len(), 16, "every healthy host updated: {report:?}");
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].1, victim);
    assert_eq!(failed[0].2, Err(UpdateError::Timeout), "one budget, shed");
    assert!(
        wall < Duration::from_millis(480),
        "one black hole must not serialize the cycle: {wall:?}"
    );
    // The overlap is also visible in the instruments: wall-clock spent in
    // the fan-out is strictly less than the sum of its legs.
    let snap = state.read().obs.snapshot();
    assert!(snap.counter("dcm.fanout.wall_ns") < snap.counter("dcm.fanout.legs_ns_total"));
}
