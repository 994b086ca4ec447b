//! Experiment E20: hierarchical fan-out at 20 → 200 → 1000 hosts.
//!
//! The scaling half of the fan-out work: one service pushed to N hosts
//! grouped into racks of 25, over a fabric dropping 5% of every link's
//! legs, with every protocol leg costing 1 ms of real round-trip latency
//! (the quantity the relay tier exists to hide). The worker pool is sized
//! to the rack count — one worker per relay, which is exactly the
//! parallelism a real relay tier has: every rack pushes to its leaves
//! concurrently. Measures the wall-clock of the mutate → converge phase
//! and the patch/full byte split, and gates on the two claims the relay
//! tier makes:
//!
//! - the push converges byte-identical to a fault-free serial oracle
//!   despite the link faults, and
//! - per-host wall-clock *falls* as the host count grows (leg latency
//!   overlaps across racks and the fixed extraction cost amortizes),
//!   i.e. total wall-clock is sublinear in host count.
//!
//! `--quick` runs the 20- and 200-host points as a CI smoke check (no
//! timing gate: sub-millisecond phases are scheduler noise); the full run
//! adds the 1000-host point and enforces the gates.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moira_bench::{write_json, Table};
use moira_core::queries::testutil::{add_test_machine, state_with_admin};
use moira_core::registry::Registry;
use moira_core::schema::serverhosts;
use moira_core::state::{Caller, MoiraState, SharedState};
use moira_dcm::dcm::Dcm;
use moira_dcm::host::SimHost;
use moira_dcm::net::{NetFault, Network};
use moira_dcm::relay::RackTopology;
use moira_dcm::retry::RetryPolicy;
use moira_sim::NetFabric;
use parking_lot::Mutex;

const USERS: usize = 200;
const RACK_SIZE: usize = 25;
const DROP_PROB: f64 = 0.05;
const LEG_LATENCY: Duration = Duration::from_millis(1);

/// One pool worker per rack relay.
fn width_for(n_hosts: usize) -> usize {
    n_hosts.div_ceil(RACK_SIZE)
}

/// The subject's network: every leg pays a real round-trip before it
/// crosses the (dropping) fabric. Virtual-clock latency would not do
/// here — the sublinearity gate is about *wall* time, and wall time is
/// what overlapping legs across racks saves.
struct LatentNet {
    inner: Arc<NetFabric>,
}

impl Network for LatentNet {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        std::thread::sleep(LEG_LATENCY);
        self.inner.connect(host)
    }

    fn transmit(&self, host: &str, len: usize) -> Result<(), NetFault> {
        std::thread::sleep(LEG_LATENCY);
        self.inner.transmit(host, len)
    }
}

struct World {
    dcm: Dcm,
    state: SharedState,
    hosts: Vec<Arc<Mutex<SimHost>>>,
    fabric: Option<Arc<NetFabric>>,
}

/// One UNIQUE service pushed to `n_hosts`. `faulty` wires the racked
/// topology, the worker pool, and the 5%-drop fabric; the oracle keeps
/// the serial perfect-network configuration.
fn build(n_hosts: usize, faulty: bool) -> World {
    let (mut s, _) = state_with_admin("ops");
    let registry = Arc::new(Registry::standard());
    let ops = Caller::new("ops", "e20");
    let run = |s: &mut MoiraState, q: &str, args: &[&str]| {
        let args: Vec<String> = args.iter().map(|x| x.to_string()).collect();
        registry.execute(s, &ops, q, &args).expect(q)
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
    let names: Vec<String> = (0..n_hosts).map(|k| format!("H{k:04}.MIT.EDU")).collect();
    for name in &names {
        add_test_machine(&mut s, name);
        run(
            &mut s,
            "add_server_host_info",
            &["HESIOD", name, "1", "0", "0", ""],
        );
    }
    for u in 0..USERS {
        let login = format!("u{u:04}");
        let uid = (7000 + u).to_string();
        run(
            &mut s,
            "add_user",
            &[&login, &uid, "/bin/csh", "F", "H", "C", "1", "x", "1990"],
        );
    }
    let state = moira_core::state::shared(s);
    let mut dcm = Dcm::new(state.clone(), registry);
    dcm.set_retry_policy(RetryPolicy {
        base_secs: 1,
        max_secs: 8,
        jitter_frac: 0.0,
        escalate_after: u32::MAX,
        per_run_budget: usize::MAX,
    });
    let fabric = if faulty {
        let clock = state.read().db.clock().clone();
        let fabric = Arc::new(NetFabric::new(clock, 0x0e20_5eed ^ n_hosts as u64));
        for name in &names {
            fabric.set_drop_prob(name, DROP_PROB);
        }
        dcm.set_network(Arc::new(LatentNet {
            inner: fabric.clone(),
        }));
        let mut topo = RackTopology::new();
        for (r, chunk) in names.chunks(RACK_SIZE).enumerate() {
            topo.add_rack(&format!("rack-{r}"), chunk.iter().cloned());
        }
        dcm.set_topology(topo);
        dcm.set_fanout_width(width_for(n_hosts));
        Some(fabric)
    } else {
        None
    };
    let hosts: Vec<Arc<Mutex<SimHost>>> = names
        .iter()
        .map(|n| Arc::new(Mutex::new(SimHost::new(n))))
        .collect();
    for h in &hosts {
        dcm.add_host(h.clone());
    }
    World {
        dcm,
        state,
        hosts,
        fabric,
    }
}

/// Every enabled serverhost reports success.
fn converged(state: &SharedState) -> bool {
    let s = state.read();
    let t = s.db.table(serverhosts::T);
    let all_ok = t.iter().all(|(row, _)| {
        !t.cell(row, serverhosts::ENABLE).as_bool() || t.cell(row, serverhosts::SUCCESS).as_bool()
    });
    all_ok
}

/// Cycles run_once (with one-minute gaps for the retry backoff) until
/// every host converged; returns the number of passes.
fn converge(w: &mut World, cap: usize) -> usize {
    let mut passes = 0;
    loop {
        w.dcm.run_once();
        passes += 1;
        if converged(&w.state) {
            return passes;
        }
        assert!(passes < cap, "no convergence after {cap} passes");
        w.state.write().db.clock().advance(60);
    }
}

/// Flips 1% of the user shells (the inter-cycle mutation batch).
fn mutate(w: &World, round: usize) {
    let registry = Arc::new(Registry::standard());
    let mut s = w.state.write();
    for u in 0..(USERS / 100).max(1) {
        registry
            .execute(
                &mut s,
                &Caller::new("ops", "e20"),
                "update_user_shell",
                &[format!("u{u:04}"), format!("/bin/gen{round}")],
            )
            .expect("shell flip");
    }
}

/// Install-relevant files of one host, sorted (staging/backup artifacts
/// are attempt history, not converged state).
fn files_of(host: &Arc<Mutex<SimHost>>) -> Vec<(String, Vec<u8>)> {
    let mut h = host.lock();
    let mut files: Vec<(String, Vec<u8>)> = h
        .files_mut()
        .iter()
        .filter(|(name, _)| !name.contains(".moira_backup") && !name.contains(".moira_update"))
        .map(|(name, data)| (name.clone(), data.clone()))
        .collect();
    files.sort();
    files
}

struct Sample {
    n_hosts: usize,
    seed_passes: usize,
    delta_passes: usize,
    delta_wall_us: u128,
    per_host_us: f64,
    patch_members: u64,
    patch_bytes: u64,
    full_members: u64,
    full_bytes: u64,
    fanout_wall_ns: u64,
    legs_ns: u64,
    drops: u64,
}

fn push_at(n_hosts: usize) -> Sample {
    // Subject: racked + pooled + faulty. Oracle: the identical world on a
    // perfect serial path (the generated files depend on the machine
    // list, so the oracle must hold the same hosts).
    let mut subject = build(n_hosts, true);
    let mut oracle = build(n_hosts, false);

    let seed_passes = converge(&mut subject, 200);
    converge(&mut oracle, 10);

    mutate(&subject, 1);
    mutate(&oracle, 1);
    subject.state.write().db.clock().advance(7 * 3600);
    oracle.state.write().db.clock().advance(7 * 3600);

    let snap = subject.state.read().obs.snapshot();
    let patch0 = snap.counter("dcm.transfer.patch_members");
    let pbytes0 = snap.counter("dcm.transfer.patch_bytes");
    let full0 = snap.counter("dcm.transfer.full_members");
    let fbytes0 = snap.counter("dcm.transfer.full_bytes");
    let wall0 = snap.counter("dcm.fanout.wall_ns");
    let legs0 = snap.counter("dcm.fanout.legs_ns_total");

    let t0 = Instant::now();
    let delta_passes = converge(&mut subject, 200);
    let delta_wall_us = t0.elapsed().as_micros();
    converge(&mut oracle, 10);

    let snap = subject.state.read().obs.snapshot();
    let sample = Sample {
        n_hosts,
        seed_passes,
        delta_passes,
        delta_wall_us,
        per_host_us: delta_wall_us as f64 / n_hosts as f64,
        patch_members: snap.counter("dcm.transfer.patch_members") - patch0,
        patch_bytes: snap.counter("dcm.transfer.patch_bytes") - pbytes0,
        full_members: snap.counter("dcm.transfer.full_members") - full0,
        full_bytes: snap.counter("dcm.transfer.full_bytes") - fbytes0,
        fanout_wall_ns: snap.counter("dcm.fanout.wall_ns") - wall0,
        legs_ns: snap.counter("dcm.fanout.legs_ns_total") - legs0,
        drops: subject.fabric.as_ref().unwrap().stats().drops,
    };

    // Convergence means byte-identical: every subject host matches its
    // fault-free oracle twin exactly, faults and relays notwithstanding.
    for (k, (host, twin)) in subject.hosts.iter().zip(&oracle.hosts).enumerate() {
        let files = files_of(host);
        assert!(!files.is_empty(), "host {k} installed something");
        assert_eq!(
            files,
            files_of(twin),
            "host {k} of {n_hosts} diverged from the serial oracle"
        );
    }
    sample
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[20, 200] } else { &[20, 200, 1000] };

    let mut table = Table::new(&[
        "Hosts",
        "Seed passes",
        "Delta passes",
        "Delta wall (ms)",
        "Per-host (us)",
        "Patch members",
        "Full members",
        "Patch bytes",
        "Link drops",
    ]);
    let mut json_rows = Vec::new();
    let mut samples = Vec::new();
    for &n in sizes {
        eprintln!("fan-out push to {n} hosts…");
        let s = push_at(n);
        eprintln!(
            "  delta wall {:.2} ms, fan-out wall {:.2} ms, leg sum {:.2} ms",
            s.delta_wall_us as f64 / 1000.0,
            s.fanout_wall_ns as f64 / 1e6,
            s.legs_ns as f64 / 1e6
        );
        table.row(&[
            s.n_hosts.to_string(),
            s.seed_passes.to_string(),
            s.delta_passes.to_string(),
            format!("{:.2}", s.delta_wall_us as f64 / 1000.0),
            format!("{:.1}", s.per_host_us),
            s.patch_members.to_string(),
            s.full_members.to_string(),
            s.patch_bytes.to_string(),
            s.drops.to_string(),
        ]);
        json_rows.push(serde_json::json!({
            "hosts": s.n_hosts,
            "fanout_width": width_for(s.n_hosts),
            "seed_passes": s.seed_passes,
            "delta_passes": s.delta_passes,
            "delta_wall_us": s.delta_wall_us as u64,
            "per_host_us": s.per_host_us,
            "patch_members": s.patch_members,
            "patch_bytes": s.patch_bytes,
            "full_members": s.full_members,
            "full_bytes": s.full_bytes,
            "fanout_wall_ns": s.fanout_wall_ns,
            "legs_ns_total": s.legs_ns,
            "link_drops": s.drops,
        }));
        samples.push(s);
    }
    table.print(if quick {
        "E20 — Hierarchical fan-out (quick smoke, 20/200 hosts)"
    } else {
        "E20 — Hierarchical fan-out under 5% link faults (20/200/1000 hosts)"
    });

    // The delta cycle must ride the patch path end to end: stragglers and
    // drop-victims recover via line patches, never whole archives.
    for s in &samples {
        assert!(
            s.patch_members > 0 && s.full_members == 0,
            "{} hosts: delta phase must be all-patch (patch={}, full={})",
            s.n_hosts,
            s.patch_members,
            s.full_members
        );
        assert!(
            s.drops > 0,
            "{} hosts: the fabric must actually drop",
            s.n_hosts
        );
    }
    let mut gate_ok = true;
    if !quick {
        // The sublinearity gate: fifty times the hosts must cost far less
        // than fifty times the wall — per-host cost at 1000 is required to
        // be under half the 20-host figure (measured ~10x under; the 2x
        // margin absorbs shared-runner noise).
        let small = &samples[0];
        let large = samples.last().unwrap();
        gate_ok = large.per_host_us < small.per_host_us * 0.5;
        println!(
            "\nsublinear gate (per-host us at {} hosts < 0.5x at {} hosts): {:.1} vs {:.1} -> {}",
            large.n_hosts,
            small.n_hosts,
            large.per_host_us,
            small.per_host_us,
            if gate_ok { "PASS" } else { "FAIL" }
        );
    }
    write_json(
        "dcm_fanout",
        &serde_json::json!({
            "rack_size": RACK_SIZE,
            "drop_prob": DROP_PROB,
            "leg_latency_ms": LEG_LATENCY.as_millis() as u64,
            "rows": json_rows,
            "gate_sublinear": gate_ok,
        }),
    );
    assert!(gate_ok, "wall-clock must be sublinear in host count");
}
