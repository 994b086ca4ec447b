//! Instrumentation overhead on the read-throughput path.
//!
//! The obs registry's promise is that always-on metrics are cheap enough
//! to leave enabled in production: counters are single atomic adds, and a
//! latency sample is two clock reads plus one atomic bucket increment.
//! This bench proves it on a retrieve-only workload: the 4-worker read
//! tier serving 8 in-process clients, timed with the
//! registry enabled and with it disabled (the handles short-circuit to
//! no-ops), A/B-interleaved with best-of-N per mode so scheduler noise
//! cancels instead of accumulating into either arm.

use std::sync::Arc;

use moira_bench::{write_json, Table};
use moira_core::registry::Registry;
use moira_core::server::MoiraServer;
use moira_core::state::shared;
use moira_protocol::transport::{pair, recv_blocking, Channel, InProcChannel};
use moira_protocol::wire::{MajorRequest, Reply, Request};
use moira_sim::{populate, PopulationSpec};

const CLIENTS: usize = 8;
const ROUNDS: usize = 80;
const TRIALS: usize = 5;
const MAX_OVERHEAD: f64 = 0.05;

/// Builds a populated server with `CLIENTS` authenticated connections.
fn build() -> (MoiraServer, Vec<InProcChannel>, Vec<String>) {
    let registry = Arc::new(Registry::standard());
    let mut state = moira_core::state::MoiraState::new(moira_common::VClock::new());
    moira_core::seed::seed_capacls(&mut state, &registry);
    let report = populate(&mut state, &registry, &PopulationSpec::small()).expect("population");
    let logins = report.active_logins.clone();
    let mut server = MoiraServer::new(shared(state), registry, None);
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        let (client, server_end) = pair();
        server.attach(Box::new(server_end), "local", 0);
        clients.push(client);
    }
    for c in clients.iter_mut() {
        c.send(Request::new(MajorRequest::Auth, &["root", "obs-bench"]).encode())
            .unwrap();
    }
    server.run_until_idle(2);
    for c in clients.iter_mut() {
        let r = Reply::decode(recv_blocking(c, 1_000_000).expect("auth reply")).unwrap();
        assert_eq!(r.code, 0);
    }
    (server, clients, logins)
}

/// The retrieve mix: mostly point lookups, some wildcard scans.
fn request_for(logins: &[String], round: usize, client: usize) -> Request {
    let n = round * CLIENTS + client;
    if n % 8 == 7 {
        Request::new(MajorRequest::Query, &["get_machine", "*"])
    } else {
        let login = &logins[n % logins.len()];
        Request::new(MajorRequest::Query, &["get_user_by_login", login])
    }
}

/// One timed run of the workload with the registry on or off. Returns the
/// wall-clock seconds for the request loop alone (build excluded).
fn run_trial(instrumented: bool) -> f64 {
    let (mut server, mut clients, logins) = build();
    server.set_read_workers(4);
    server.obs().set_enabled(instrumented);
    let t0 = std::time::Instant::now();
    for round in 0..ROUNDS {
        for (i, c) in clients.iter_mut().enumerate() {
            c.send(request_for(&logins, round, i).encode()).unwrap();
        }
        server.poll_once();
        for c in clients.iter_mut() {
            loop {
                let r = Reply::decode(recv_blocking(c, 1_000_000).expect("reply")).unwrap();
                assert!(r.code >= 0 || r.is_more_data(), "query failed: {}", r.code);
                if !r.is_more_data() {
                    break;
                }
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    if instrumented {
        // The snapshot and exposition paths must hold up too — and the
        // run must actually have recorded.
        let snap = server.obs().snapshot();
        assert_eq!(
            snap.counter("server.reads_dispatched"),
            (ROUNDS * CLIENTS) as u64,
            "instrumented run recorded every dispatch"
        );
        let text = server.obs().render_text();
        assert!(text.contains("server.latency.read"));
    }
    elapsed
}

fn main() {
    let requests = ROUNDS * CLIENTS;
    eprintln!(
        "obs overhead: {CLIENTS} clients x {ROUNDS} rounds, {TRIALS} interleaved trials per mode"
    );

    // Warm-up pair (page cache, allocator), discarded.
    run_trial(false);
    run_trial(true);

    let mut on = Vec::with_capacity(TRIALS);
    let mut off = Vec::with_capacity(TRIALS);
    for trial in 0..TRIALS {
        // Alternate which arm goes first so drift charges both equally.
        if trial % 2 == 0 {
            on.push(run_trial(true));
            off.push(run_trial(false));
        } else {
            off.push(run_trial(false));
            on.push(run_trial(true));
        }
    }
    let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let best_on = best(&on);
    let best_off = best(&off);
    let overhead = ((best_on - best_off) / best_off).max(0.0);

    let mut table = Table::new(&["Registry", "Best wall (s)", "Best qps"]);
    table.row(&[
        "disabled".into(),
        format!("{best_off:.4}"),
        format!("{:.0}", requests as f64 / best_off),
    ]);
    table.row(&[
        "enabled".into(),
        format!("{best_on:.4}"),
        format!("{:.0}", requests as f64 / best_on),
    ]);
    table.print("Read-path instrumentation overhead");
    println!(
        "\noverhead: {:.2}% (gate: <{:.0}%)",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );

    write_json(
        "obs_overhead",
        &serde_json::json!({
            "clients": CLIENTS,
            "rounds": ROUNDS,
            "requests_per_trial": requests,
            "trials_per_mode": TRIALS,
            "methodology": "A/B-interleaved trials of the 4-worker read tier, order alternating per pair; best-of-N wall time per mode; overhead = (best_on - best_off) / best_off, clamped at 0",
            "best_wall_s": { "enabled": best_on, "disabled": best_off },
            "all_wall_s": { "enabled": on, "disabled": off },
            "overhead_fraction": overhead,
            "gate": MAX_OVERHEAD,
        }),
    );
    assert!(
        overhead < MAX_OVERHEAD,
        "instrumentation overhead {:.2}% exceeds the {:.0}% gate",
        overhead * 100.0,
        MAX_OVERHEAD * 100.0
    );
}
