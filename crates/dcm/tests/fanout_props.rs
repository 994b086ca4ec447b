//! Property suite for DCM convergence under faults (the serial host scan
//! and its per-host delta cursors).
//!
//! For random host counts (up to 96), random mutation batches, and random
//! fault schedules (per-host partitions and drop probabilities), the
//! faulty push must converge every host byte-identical to a fault-free
//! oracle driven through the identical schedule — and no host's delta
//! cursor may ever regress. The proptest shim derives its seed from the
//! module path and test name, so CI runs are reproducible.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use moira_core::queries::testutil::{add_test_machine, state_with_admin};
use moira_core::registry::Registry;
use moira_core::state::{shared, Caller, MoiraState, SharedState};
use moira_dcm::dcm::Dcm;
use moira_dcm::host::SimHost;
use moira_dcm::net::{NetFault, Network};
use moira_dcm::retry::RetryPolicy;
use parking_lot::Mutex;
use proptest::prelude::*;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(x: &mut u64) -> f64 {
    (splitmix(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic lossy network local to this suite (the dcm crate
/// cannot depend on the sim crate's fabric).
#[derive(Default)]
struct LossyNet {
    state: Mutex<LossyState>,
}

#[derive(Default)]
struct LossyState {
    rng: u64,
    drop_prob: HashMap<String, f64>,
    partitioned: HashSet<String>,
}

impl LossyNet {
    fn new(seed: u64) -> Arc<LossyNet> {
        let net = LossyNet::default();
        net.state.lock().rng = seed;
        Arc::new(net)
    }

    fn set_faults(&self, partitioned: HashSet<String>, drop_prob: HashMap<String, f64>) {
        let mut st = self.state.lock();
        st.partitioned = partitioned;
        st.drop_prob = drop_prob;
    }

    fn heal(&self) {
        let mut st = self.state.lock();
        st.partitioned.clear();
        st.drop_prob.clear();
    }

    fn roll(&self, host: &str, connecting: bool) -> Result<(), NetFault> {
        let mut st = self.state.lock();
        if st.partitioned.contains(host) {
            return Err(NetFault::Partitioned);
        }
        let p = st.drop_prob.get(host).copied().unwrap_or(0.0);
        if p > 0.0 && unit(&mut st.rng) < p {
            return Err(if connecting {
                NetFault::TimedOut
            } else {
                NetFault::Dropped
            });
        }
        Ok(())
    }
}

impl Network for LossyNet {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        self.roll(host, true)
    }

    fn transmit(&self, host: &str, _len: usize) -> Result<(), NetFault> {
        self.roll(host, false)
    }
}

struct World {
    dcm: Dcm,
    state: SharedState,
    hosts: Vec<(String, Arc<Mutex<SimHost>>)>,
    uid: i64,
}

impl World {
    /// One HESIOD-like service over `host_names`, plus a baseline user.
    fn build(host_names: &[String]) -> World {
        let (mut s, _) = state_with_admin("ops");
        let registry = Arc::new(Registry::standard());
        let ops = Caller::new("ops", "test");
        let run = |s: &mut MoiraState, q: &str, args: &[&str]| {
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
        for name in host_names {
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
                "baseline", "6000", "/bin/csh", "F", "H", "C", "1", "x", "1990",
            ],
        );
        let state = shared(s);
        let mut dcm = Dcm::new(state.clone(), registry);
        // Quick deterministic retries: streaks reopen within one 60 s
        // advance, and nothing escalates to an operator-gated hard error.
        dcm.set_retry_policy(RetryPolicy {
            base_secs: 1,
            max_secs: 8,
            jitter_frac: 0.0,
            escalate_after: u32::MAX,
            per_run_budget: usize::MAX,
        });
        let hosts: Vec<(String, Arc<Mutex<SimHost>>)> = host_names
            .iter()
            .map(|n| (n.clone(), Arc::new(Mutex::new(SimHost::new(n)))))
            .collect();
        for (_, h) in &hosts {
            dcm.add_host(h.clone());
        }
        World {
            dcm,
            state,
            hosts,
            uid: 7000,
        }
    }

    fn add_user(&mut self, login: &str) {
        self.uid += 1;
        let uid = self.uid.to_string();
        let mut s = self.state.write();
        Registry::standard()
            .execute(
                &mut s,
                &Caller::new("ops", "test"),
                "add_user",
                &[
                    login.into(),
                    uid,
                    "/bin/csh".into(),
                    "F".into(),
                    "H".into(),
                    "C".into(),
                    "1".into(),
                    "x".into(),
                    "1990".into(),
                ],
            )
            .unwrap();
    }

    fn advance(&self, secs: i64) {
        self.state.write().db.clock().advance(secs);
    }

    /// Install-relevant files of one host — backup and staging artifacts
    /// excluded (they encode the *history* of attempts, not the state).
    fn files_of(&self, idx: usize) -> Vec<(String, Vec<u8>)> {
        let mut h = self.hosts[idx].1.lock();
        let mut files: Vec<(String, Vec<u8>)> = h
            .files_mut()
            .iter()
            .filter(|(name, _)| !name.contains(".moira_backup") && !name.contains(".moira_update"))
            .map(|(name, data)| (name.clone(), data.clone()))
            .collect();
        files.sort();
        files
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..Default::default() })]
    #[test]
    fn faulty_fanout_matches_fault_free_oracle(
        hosts in 1usize..=96,
        net_seed in any::<u64>(),
        fault_seeds in prop::collection::vec(any::<u64>(), 1..4usize),
    ) {
        let names: Vec<String> = (0..hosts)
            .map(|k| format!("H{k:03}.MIT.EDU"))
            .collect();

        // Subject: faulty. Oracle: perfect.
        let mut subject = World::build(&names);
        let lossy = LossyNet::new(net_seed);
        subject.dcm.set_network(lossy.clone());
        let mut oracle = World::build(&names);

        // Cursor monotonicity ledger for the subject.
        let mut cursor_gen: HashMap<String, i64> = HashMap::new();
        let mut check_cursors = |dcm: &Dcm| {
            for name in &names {
                if let Some(g) = dcm.cursors().generation("HESIOD", name) {
                    let prev = cursor_gen.insert(name.clone(), g);
                    prop_assert!(
                        prev.is_none_or(|p| g >= p),
                        "cursor regressed on {name}: {prev:?} -> {g}"
                    );
                }
            }
            Ok(())
        };

        // Both worlds run the identical schedule of mutations and clock
        // advances; only the subject sees faults.
        subject.dcm.run_once();
        check_cursors(&subject.dcm)?;
        oracle.dcm.run_once();
        for (b, fault_seed) in fault_seeds.iter().enumerate() {
            let mut fs = *fault_seed;
            let n_users = 1 + (splitmix(&mut fs) % 2) as usize;
            for u in 0..n_users {
                let login = format!("u{b}x{u}");
                subject.add_user(&login);
                oracle.add_user(&login);
            }
            subject.advance(7 * 3600);
            oracle.advance(7 * 3600);
            // A fault round: partition ~15% of hosts, make ~30% lossy.
            let mut partitioned = HashSet::new();
            let mut drops = HashMap::new();
            for name in &names {
                if unit(&mut fs) < 0.15 {
                    partitioned.insert(name.clone());
                }
                if unit(&mut fs) < 0.30 {
                    drops.insert(name.clone(), 0.05 + unit(&mut fs) * 0.45);
                }
            }
            lossy.set_faults(partitioned, drops);
            subject.dcm.run_once();
            check_cursors(&subject.dcm)?;
            oracle.dcm.run_once();
            // Heal, then recovery cycles in lockstep (no-ops for the
            // oracle, which converged on the first pass).
            lossy.heal();
            for _ in 0..3 {
                subject.advance(60);
                oracle.advance(60);
                subject.dcm.run_once();
                check_cursors(&subject.dcm)?;
                oracle.dcm.run_once();
            }
        }

        // Converged: one more pass finds nothing to do…
        subject.advance(60);
        oracle.advance(60);
        prop_assert!(subject.dcm.run_once().updates.is_empty());
        prop_assert!(oracle.dcm.run_once().updates.is_empty());
        // …and every host installed files byte-identical to the fault-free
        // oracle's.
        for (idx, name) in names.iter().enumerate() {
            prop_assert!(!subject.files_of(idx).is_empty(), "{} installed nothing", name);
            prop_assert_eq!(
                subject.files_of(idx),
                oracle.files_of(idx),
                "host {} diverged from the fault-free oracle",
                name
            );
        }
    }
}
