//! The request path: `read_point`, `write_commit` and `mixed_admin`.
//!
//! Set-up builds the paper's population in memory, puts a durable engine
//! under it on the metered media, and starts the shipped `MoiraServer` on a
//! thread behind a TCP listener. The load thread then runs, one after the
//! other: a fixed number of commits, a crash that keeps only flushed bytes
//! and `boot_durable` from that image (the recovery, on an image that does
//! not depend on the run's speed); a closed-loop latency phase
//! through the unmodified `RpcClient` (an admin program waits for each
//! reply); a pipelined throughput phase that keeps [`WINDOW`] requests in
//! flight on one `TcpChannel` (the wire protocol is pipelined; this
//! saturates the server thread the way many workstations do at start of
//! term); and a closing crash and boot. After either crash every
//! acknowledged write must be readable.
//!
//! A traced run is shorter and adds what the layer budget needs: the server
//! driven in-process on the load thread so that spans nest, and direct
//! timings of each layer's public functions over the workload's own
//! messages.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use moira_client::{MoiraConn, RpcClient, ServerThread};
use moira_common::clock::VClock;
use moira_core::recovery::boot_durable;
use moira_core::registry::Registry;
use moira_core::seed::seed_capacls;
use moira_core::state::{shared, Caller, MoiraState, SharedState};
use moira_core::{schema, MoiraServer};
use moira_db::snapshot::encode_snapshot;
use moira_db::storage::{DurableEngine, GroupCommitConfig, NullStorage, Storage};
use moira_db::Database;
use moira_protocol::transport::{pair, Channel, TcpChannel};
use moira_protocol::wire::{MajorRequest, Reply, Request};
use moira_sim::populate;
use serde_json::{json, Value};

use crate::media::{MediaHandle, MeteredMedia, RamMedia};
use crate::ops::{Mix, Names, Op, OpGen, KINDS, SHELLS};
use crate::report::Outcome;
use crate::stats::{check_trial, median, ms, quantile_sorted, spread, tail_quantile};
use crate::{host, trace, Config};

/// Requests kept in flight in the throughput phase.
pub const WINDOW: usize = 32;

/// The flush policy of every request workload: one group-commit fsync per
/// server write batch before any reply (acknowledged means flushed), an
/// eager flush at 256 KiB, a snapshot every 1024 commits.
pub const FLUSH_POLICY: GroupCommitConfig = GroupCommitConfig {
    flush_interval_secs: 0,
    flush_bytes: 256 * 1024,
    snapshot_every: 1024,
};

/// The non-privileged principal the load authenticates as, so that
/// `access::enforce` and the access cache do real work (`root` bypasses
/// both).
const ADMIN: &str = "benchadm";

/// How a run divides its `--seconds`.
struct Plan {
    setups: usize,
    warm: Duration,
    latency_trials: usize,
    latency: Duration,
    throughput_trials: usize,
    throughput: Duration,
    /// Length of each in-process trial of a traced run.
    inproc: Duration,
    /// Operations per direct layer probe of a traced run.
    probe_ops: usize,
}

impl Plan {
    fn new(cfg: &Config) -> Plan {
        let s = cfg.seconds;
        let secs = Duration::from_secs_f64;
        if cfg.traced {
            Plan {
                setups: 1,
                warm: secs(s / 15.0),
                latency_trials: 1,
                latency: secs(s * 0.2),
                throughput_trials: 1,
                throughput: secs(s * 0.2),
                inproc: secs(s * 0.1),
                probe_ops: if cfg.smoke { 500 } else { 20_000 },
            }
        } else {
            // The closed-loop median is steady within a second; the
            // pipelined rate is not, so it gets most of the time and the
            // median of more trials.
            let warm = s / 15.0;
            let latency = s * 0.08;
            Plan {
                setups: 3,
                warm: secs(warm),
                latency_trials: 3,
                latency: secs(latency),
                throughput_trials: 9,
                throughput: secs((s - warm - 3.0 * latency) / 9.0),
                inproc: Duration::ZERO,
                probe_ops: 0,
            }
        }
    }
}

/// A populated server behind TCP with a connected, authenticated client.
struct Served {
    registry: Arc<Registry>,
    /// Held until a crash, which drops it (and the engine with it).
    state: Option<SharedState>,
    media: MediaHandle,
    /// The engine's files; a clone is another handle on the same files.
    files: RamMedia,
    names: Names,
    thread: Option<ServerThread>,
    addr: String,
    client: Option<RpcClient>,
    read_workers: usize,
    populate_s: f64,
    populate_queries: usize,
    initial_snapshot_ms: f64,
}

fn mr<T, E: std::fmt::Debug>(what: &str, r: Result<T, E>) -> Result<T, String> {
    r.map_err(|e| format!("{what}: {e:?}"))
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_owned()).collect()
}

impl Served {
    fn start(cfg: &Config) -> Result<Served, String> {
        let registry = Arc::new(Registry::standard());
        let mut st = MoiraState::new(VClock::new());
        seed_capacls(&mut st, &registry);
        let t0 = Instant::now();
        let pop = mr("populate", populate(&mut st, &registry, &cfg.spec))?;
        let populate_s = t0.elapsed().as_secs_f64();

        // The bench administrator, made through the query surface.
        let root = Caller::root("moira-bench");
        mr(
            "add_user",
            registry.execute(
                &mut st,
                &root,
                "add_user",
                &strings(&[
                    ADMIN,
                    "UNIQUE_UID",
                    "/bin/csh",
                    "Admin",
                    "Bench",
                    "",
                    "1",
                    "",
                    "STAFF",
                ]),
            ),
        )?;
        mr(
            "add_member_to_list",
            registry.execute(
                &mut st,
                &root,
                "add_member_to_list",
                &strings(&["moira-admins", "USER", ADMIN]),
            ),
        )?;

        let login_idx: HashMap<&str, u32> = pop
            .active_logins
            .iter()
            .enumerate()
            .map(|(i, l)| (l.as_str(), i as u32))
            .collect();
        let mut members = HashSet::new();
        for (m, list) in pop.public_lists.iter().enumerate() {
            let rows = mr(
                "get_members_of_list",
                registry.execute_read(
                    &st,
                    &root,
                    "get_members_of_list",
                    std::slice::from_ref(list),
                ),
            )?;
            for row in rows {
                if let Some(&l) = login_idx.get(row[1].as_str()).filter(|_| row[0] == "USER") {
                    members.insert((m as u32, l));
                }
            }
        }
        drop(login_idx);
        let names = Names {
            logins: pop.active_logins,
            lists: pop.public_lists,
            members,
        };

        let files = RamMedia::default();
        let (media, handle) = MeteredMedia::new(files.clone());
        let (mut engine, _) = mr(
            "engine open",
            DurableEngine::open(Box::new(media), FLUSH_POLICY),
        )?;
        engine.set_obs(&st.obs);
        let t0 = Instant::now();
        mr("initial snapshot", engine.snapshot(&st.db, &st.journal))?;
        let initial_snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
        st.storage = Box::new(engine);

        let mut served = Served {
            registry,
            state: None,
            media: handle,
            files,
            names,
            thread: None,
            addr: String::new(),
            client: None,
            read_workers: 0,
            populate_s,
            populate_queries: pop.queries_run,
            initial_snapshot_ms,
        };
        served.serve(st)?;
        Ok(served)
    }

    /// Puts `st` behind the shipped server on a thread of its own, listening
    /// on TCP, and connects the closed-loop client.
    fn serve(&mut self, st: MoiraState) -> Result<(), String> {
        let state = shared(st);
        let mut server = MoiraServer::new(state.clone(), self.registry.clone(), None);
        self.read_workers = server.read_workers();
        self.addr = mr("listen", server.listen_tcp("127.0.0.1:0"))?.to_string();
        self.thread = Some(ServerThread::spawn(server));
        let mut client = mr("connect", RpcClient::connect_tcp(&self.addr))?;
        // A shed request becomes latency plus a resend count; whatever
        // still fails after twelve tries is a real failure.
        client.set_busy_retry(12, 1);
        mr("auth", client.auth(ADMIN, "moira-bench"))?;
        mr("noop", client.noop())?;
        self.client = Some(client);
        self.state = Some(state);
        Ok(())
    }

    fn state(&self) -> &SharedState {
        self.state
            .as_ref()
            .expect("the state is held until a crash")
    }

    fn client(&mut self) -> &mut RpcClient {
        self.client
            .as_mut()
            .expect("the client lives until a crash")
    }

    /// Stops the server thread and hands the server back.
    fn stop(&mut self) -> Option<MoiraServer> {
        self.thread.take().map(ServerThread::shutdown)
    }

    /// Crash and recovery. The server and its state are dropped, every
    /// file is cut back to its last-flushed length, and `boot_durable` runs
    /// from what is left. Returns the booted state, which the caller
    /// checks against the model.
    fn crash_and_boot(&mut self, pieces: bool) -> Result<(MoiraState, Recovery), String> {
        drop(self.stop());
        self.client = None;
        self.state = None;
        mr("crash", self.media.crash(&mut self.files.clone()))?;
        let pieces = if pieces {
            // Boots a copy of the image, so the real boot finds it untouched.
            Some(timed_recovery_pieces(&self.registry, self.files.copy())?)
        } else {
            None
        };
        let metered = MeteredMedia::resume(self.files.clone(), &self.media);
        let t0 = Instant::now();
        let (state, report) = mr(
            "boot_durable",
            boot_durable(
                VClock::new(),
                &self.registry,
                Box::new(metered),
                FLUSH_POLICY,
            ),
        )?;
        let recovery = Recovery {
            boot_ms: ms(t0.elapsed()),
            replayed: report.replayed,
            pieces,
        };
        Ok((state, recovery))
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        drop(self.stop());
    }
}

/// What the recovery boot after a crash measured.
struct Recovery {
    boot_ms: f64,
    replayed: usize,
    /// `(open_ms, replay_ms)` of a traced run.
    pieces: Option<(f64, f64)>,
}

/// What a correct reply to `op` looks like. `shell` is the shell index the
/// login had when the request was sent: one connection is FIFO, so a read
/// sent after a write must observe it.
fn reply_ok(names: &Names, op: Op, shell: u8, rows: &[Vec<String>]) -> bool {
    let login = |l: u32| names.logins[l as usize].as_str();
    match op {
        Op::GetUser(l) => {
            rows.len() == 1 && rows[0][0] == login(l) && rows[0][2] == SHELLS[shell as usize]
        }
        Op::FilesysByLabel(l) => rows.len() == 1 && rows[0][0] == login(l),
        Op::ListsOfMember(l) => rows.iter().any(|r| r[0] == login(l)),
        Op::MembersOfList(_) => !rows.is_empty() && rows.iter().all(|r| r.len() == 2),
        Op::SetShell(..) | Op::AddMember(..) | Op::DelMember(..) | Op::AccessShell(_) => {
            rows.is_empty()
        }
    }
}

/// The next operation and the shell its login has as of now.
fn next(gen: &mut OpGen) -> (Op, u8) {
    let op = gen.next_op();
    let shell = match op {
        Op::GetUser(l) => gen.shell[l as usize],
        _ => 0,
    };
    (op, shell)
}

#[derive(Default)]
struct Latencies {
    read: Vec<u64>,
    write: Vec<u64>,
}

impl Latencies {
    fn all_sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.read.iter().chain(&self.write).copied().collect();
        v.sort_unstable();
        v
    }
}

/// One closed-loop trial through `RpcClient`; one request at a time.
fn closed_loop(
    client: &mut RpcClient,
    gen: &mut OpGen,
    names: &Names,
    len: Duration,
    out: &mut Outcome,
) -> Latencies {
    let mut lat = Latencies::default();
    let t0 = Instant::now();
    while t0.elapsed() < len {
        let (op, shell) = next(gen);
        let (major, args) = names.call(op);
        let t = Instant::now();
        let result = if major == MajorRequest::Access {
            client.access(args[0], &args[1..]).map(|()| Vec::new())
        } else {
            client.query_collect(args[0], &args[1..])
        };
        let ns = t.elapsed().as_nanos() as u64;
        out.check(result.is_ok_and(|rows| reply_ok(names, op, shell, &rows)));
        if op.is_write() {
            lat.write.push(ns);
        } else {
            lat.read.push(ns);
        }
    }
    lat
}

/// Counts from one pipelined trial.
#[derive(Debug, Default, Clone, Copy)]
struct Pipelined {
    ops: u64,
    writes: u64,
    tuples: u64,
    wire_bytes: u64,
    wall: Duration,
}

/// Receives until the final (non-`MR_MORE_DATA`) reply of one request.
fn recv_status(chan: &mut dyn Channel) -> Result<i32, String> {
    loop {
        let frame = mr(
            "recv",
            moira_protocol::transport::recv_blocking(chan, 5_000_000),
        )?;
        let reply = mr("reply", Reply::decode(frame))?;
        if !reply.is_more_data() {
            return Ok(reply.code);
        }
    }
}

/// One pipelined trial: keeps [`WINDOW`] requests in flight on `chan`
/// until `len` has passed, then drains. Replies come back in request
/// order, each request ending with its status frame.
fn pipelined(
    chan: &mut dyn Channel,
    gen: &mut OpGen,
    names: &Names,
    len: Duration,
    out: &mut Outcome,
) -> Result<Pipelined, String> {
    let mut p = Pipelined::default();
    let mut inflight: VecDeque<(Op, u8, Vec<Vec<String>>)> = VecDeque::with_capacity(WINDOW);
    let t0 = Instant::now();
    loop {
        let sending = t0.elapsed() < len;
        if !sending && inflight.is_empty() {
            break;
        }
        while sending && inflight.len() < WINDOW {
            let (op, shell) = next(gen);
            let frame = names.request(op).encode();
            p.wire_bytes += frame.len() as u64 + 4;
            mr("send", chan.send(frame))?;
            inflight.push_back((op, shell, Vec::new()));
        }
        let mut progressed = false;
        while let Some(frame) = mr("recv", chan.try_recv())? {
            progressed = true;
            p.wire_bytes += frame.len() as u64 + 4;
            let reply = mr("reply", Reply::decode(frame))?;
            if reply.is_more_data() {
                let row = mr("tuple", reply.string_fields())?;
                match inflight.front_mut() {
                    Some(front) => front.2.push(row),
                    None => return Err("a tuple arrived with no request in flight".into()),
                }
                continue;
            }
            let Some((op, shell, rows)) = inflight.pop_front() else {
                return Err("a status arrived with no request in flight".into());
            };
            out.check(reply.code == 0 && reply_ok(names, op, shell, &rows));
            p.ops += 1;
            p.writes += u64::from(op.is_write());
            p.tuples += rows.len() as u64;
        }
        if !progressed {
            mr("flush", chan.flush())?;
            std::thread::yield_now();
        }
    }
    p.wall = t0.elapsed();
    Ok(p)
}

/// Snapshot intervals the disk-bytes figure is taken over.
const BYTES_WINDOW: usize = 8;

/// Disk bytes per commit over the first [`BYTES_WINDOW`] whole snapshot
/// intervals. Between two seals lie exactly `snapshot_every` commits, so
/// the figure does not depend on where a timed phase happened to end; and
/// because the snapshot document carries the journal and so grows with
/// every commit, the window is fixed rather than "as many as the run got
/// through", which would tie the figure to the run's speed. `timed_from`
/// is the commit count at the recovery that preceded the timed phases.
/// Falls back to fewer intervals, then to the WAL bytes alone, when the
/// run was too short to cut a snapshot.
fn disk_bytes_per_commit(media: &MediaHandle, timed_from: u64) -> f64 {
    let snaps = media.snapshots();
    // The seal the last recovery boot ended with starts the first whole
    // interval.
    let from = snaps
        .iter()
        .rposition(|s| s.wal_appends <= timed_from)
        .unwrap_or(0);
    let seals = &snaps[from.min(snaps.len())..];
    if let (Some(first), Some(last)) = (seals.first(), seals.get(BYTES_WINDOW).or(seals.last())) {
        let commits = last.wal_appends - first.wal_appends;
        if commits > 0 {
            return (last.bytes_written - first.bytes_written) as f64 / commits as f64;
        }
    }
    let total = media.stats();
    let commits = total.wal_append.count - timed_from;
    if commits == 0 {
        0.0
    } else {
        total.wal_append.bytes as f64 / total.wal_append.count as f64
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Commits made before the standard crash: one whole snapshot interval
/// plus half of the next, so every recovery loads one sealed snapshot and
/// replays the same 512 WAL entries whatever the run's speed.
const COMMITS_BEFORE_CRASH: u64 = 1536;

/// Runs one request workload.
pub fn run(cfg: &Config, mix: Mix) -> Result<Outcome, String> {
    let plan = Plan::new(cfg);
    if !cfg.smoke {
        check_trial(plan.latency)?;
        check_trial(plan.throughput)?;
    }
    let mut out = Outcome::default();

    // Set-up, several times over: the median is the reported figure, the
    // last instance is the one measured.
    let mut setup_s = Vec::new();
    let mut served = None;
    for _ in 0..plan.setups {
        drop(served.take());
        let t0 = Instant::now();
        served = Some(Served::start(cfg)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut sv = served.expect("at least one set-up");
    let names = std::mem::take(&mut sv.names);
    let mut gen = OpGen::new(mix, cfg.seed, &names);
    let registry = sv.registry.clone();

    // The standard crash, before anything is timed: the image recovered
    // (and the memory it takes) must not depend on how many operations
    // the timed phases get through, or a faster server would read as a
    // slower recovery.
    if mix != Mix::ReadPoint {
        while sv.media.stats().wal_append.count < COMMITS_BEFORE_CRASH {
            let (_, args) = names.call(gen.next_write());
            let ok = sv.client().query_collect(args[0], &args[1..]);
            out.check(ok.is_ok_and(|rows| rows.is_empty()));
        }
    }
    let (state, recovery) = sv.crash_and_boot(cfg.traced)?;
    verify_recovered(&registry, &state, &names, &gen, &mut out);
    sv.serve(state)?;
    let peak_rss_mb = host::peak_rss_mb();
    let timed_from = sv.media.stats();

    // Warm-up: caches fill, lazy set-up finishes. Checked, not timed.
    closed_loop(sv.client(), &mut gen, &names, plan.warm, &mut out);

    let mut noop_rtt_us = 0.0;
    if cfg.traced {
        let mut rtts = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed() < plan.warm {
            let t = Instant::now();
            out.check(sv.client().noop().is_ok());
            rtts.push(t.elapsed().as_nanos() as u64);
        }
        rtts.sort_unstable();
        noop_rtt_us = quantile_sorted(&rtts, 0.5).map_or(0.0, us);
    }

    // Latency phase.
    let before_latency = sv.media.stats();
    let mut lat_all = Latencies::default();
    let mut p50_ms = Vec::new();
    let mut read_p50_us = Vec::new();
    let mut write_p50_us = Vec::new();
    for _ in 0..plan.latency_trials {
        let mut lat = closed_loop(sv.client(), &mut gen, &names, plan.latency, &mut out);
        lat.read.sort_unstable();
        lat.write.sort_unstable();
        // The end-to-end figure is the operation the workload is there
        // for: a retrieve on `read_point`, a durable mutation elsewhere
        // (over the whole mix of `mixed_admin` the reads would hide it).
        let own = if mix == Mix::ReadPoint {
            &lat.read
        } else {
            &lat.write
        };
        p50_ms.extend(quantile_sorted(own, 0.5).map(|p| p as f64 / 1e6));
        read_p50_us.extend(quantile_sorted(&lat.read, 0.5).map(us));
        write_p50_us.extend(quantile_sorted(&lat.write, 0.5).map(us));
        lat_all.read.append(&mut lat.read);
        lat_all.write.append(&mut lat.write);
    }
    let after_latency = sv.media.stats();

    // Throughput phase, on a connection of its own.
    let mut chan = mr("connect", TcpChannel::connect(&sv.addr))?;
    mr(
        "send auth",
        chan.send(Request::new(MajorRequest::Auth, &[ADMIN, "moira-bench"]).encode()),
    )?;
    if recv_status(&mut chan)? != 0 {
        return Err("pipelined connection failed to authenticate".into());
    }
    let obs = sv.state().read().obs.clone();
    let obs_before = obs.snapshot();
    let cache = |sv: &Served| {
        let st = sv.state().read();
        (st.access_cache.hits(), st.access_cache.misses())
    };
    let cache_before = cache(&sv);
    let snaps_before_thr = sv.media.snapshots().len();
    let groups_before_thr = sv.media.group_sizes().len();
    let mut thr = Pipelined::default();
    let mut ops_per_s = Vec::new();
    for _ in 0..plan.throughput_trials {
        let t = pipelined(&mut chan, &mut gen, &names, plan.throughput, &mut out)?;
        ops_per_s.push(t.ops as f64 / t.wall.as_secs_f64());
        thr.ops += t.ops;
        thr.writes += t.writes;
        thr.tuples += t.tuples;
        thr.wire_bytes += t.wire_bytes;
        thr.wall += t.wall;
    }
    drop(chan);
    let snaps_after_thr = sv.media.snapshots().len();
    let groups_after_thr = sv.media.group_sizes().len();
    let obs_after = obs.snapshot();
    let cache_after = cache(&sv);

    // A traced run now drives the same server in-process on this thread,
    // then puts it back on its own thread for the rest.
    let mut inproc = None;
    if cfg.traced {
        if let Some(mut server) = sv.stop() {
            inproc = Some(run_inproc(&mut server, &mut gen, &names, &plan, &mut out)?);
            sv.thread = Some(ServerThread::spawn(server));
        }
    }

    // The closing crash, untimed: whatever the phases above were
    // acknowledged — group commits of up to 32 included — must be
    // readable from the flushed bytes alone.
    let busy_resends = sv.client().busy_resends;
    let media_total = sv.media.stats();
    let per_commit = disk_bytes_per_commit(&sv.media, timed_from.wal_append.count);
    let snapshots = sv.media.snapshots();
    let (mut recovered, _) = sv.crash_and_boot(false)?;
    verify_recovered(&registry, &recovered, &names, &gen, &mut out);

    // Results.
    out.detail.insert(
        "host".into(),
        json!({
            "cores": host::cores(),
            "kernel": host::kernel(),
            "store": "ram: files held in the bench process, flushes counted",
            "read_workers": sv.read_workers,
            "window": WINDOW,
            "latency_trials": plan.latency_trials,
            "throughput_trials": plan.throughput_trials,
            "latency_trial_s": plan.latency.as_secs_f64(),
            "throughput_trial_s": plan.throughput.as_secs_f64(),
            "users": names.logins.len(),
            "mix": Value::Object(
                KINDS
                    .iter()
                    .zip(mix.shares())
                    .map(|(kind, share)| ((*kind).to_owned(), json!(share)))
                    .collect(),
            ),
        }),
    );
    let wire_per_op = thr.wire_bytes as f64 / thr.ops.max(1) as f64;
    // The stated share, not the drawn one: the figure is then exact.
    let write_share: f64 = mix.shares()[1..4].iter().sum();
    let all_sorted = lat_all.all_sorted();
    lat_all.read.sort_unstable();
    lat_all.write.sort_unstable();
    out.detail.insert(
        "trials".into(),
        json!({
            "setup_s": setup_s.clone(),
            "op_p50_ms": p50_ms.clone(),
            "ops_per_s": ops_per_s.clone(),
            "boot_ms": recovery.boot_ms,
            "spread": {
                "setup_s": spread(&setup_s),
                "op_p50_ms": spread(&p50_ms),
                "ops_per_s": spread(&ops_per_s),
            },
            "latency_samples": all_sorted.len(),
            "read_samples": lat_all.read.len(),
            "write_samples": lat_all.write.len(),
            "throughput_ops": thr.ops,
            "wire_bytes_per_op": wire_per_op,
            "disk_bytes_per_commit": per_commit,
            "commits": media_total.wal_append.count,
            "snapshots": snapshots.len(),
            "replayed_entries": recovery.replayed,
            "rss_at_exit_mb": host::peak_rss_mb(),
        }),
    );
    out.detail.insert("media".into(), media_total.json());
    if !cfg.traced {
        out.e2e("setup_s", median(&setup_s).unwrap_or(0.0));
        out.e2e("op_p50_ms", median(&p50_ms).unwrap_or(0.0));
        out.e2e("ops_per_s", median(&ops_per_s).unwrap_or(0.0));
        out.e2e("io_bytes_per_op", wire_per_op + per_commit * write_share);
        out.e2e("peak_rss_mb", peak_rss_mb);
        return Ok(out);
    }

    // Per-layer figures of the traced run.
    let counter = |name: &str| obs_after.counter(name) - obs_before.counter(name);
    let per_kop = |name: &str| counter(name) as f64 * 1e3 / thr.ops.max(1) as f64;
    out.layer("protocol.noop_rtt_us", noop_rtt_us);
    out.layer("protocol.wire_bytes_per_op", wire_per_op);
    out.layer("client.read_p50_us", median(&read_p50_us).unwrap_or(0.0));
    out.layer("client.write_p50_us", median(&write_p50_us).unwrap_or(0.0));
    out.layer(
        "client.read_p99_us",
        tail_quantile(&lat_all.read, 0.99).map_or(0.0, us),
    );
    out.layer(
        "client.write_p99_us",
        tail_quantile(&lat_all.write, 0.99).map_or(0.0, us),
    );
    out.layer(
        "client.write_p999_us",
        tail_quantile(&lat_all.write, 0.999).map_or(0.0, us),
    );
    out.layer(
        "client.max_ms",
        all_sorted.last().map_or(0.0, |&n| n as f64 / 1e6),
    );
    out.layer("client.busy_resends", busy_resends as f64);
    out.layer("client.trial_spread", spread(&ops_per_s));
    out.layer(
        "core.server.reads_dispatched",
        counter("server.reads_dispatched") as f64,
    );
    out.layer(
        "core.server.writes_dispatched",
        counter("server.writes_dispatched") as f64,
    );
    out.layer(
        "core.server.shed_requests",
        counter("server.shed_requests") as f64,
    );
    let histo_p50 = |name: &str| obs_after.histogram(name).map_or(0, |h| h.p50());
    out.layer(
        "core.server.ready_to_dispatch_p50_us",
        us(histo_p50("server.latency.readiness_to_dispatch")),
    );
    out.layer(
        "core.server.handler_read_p50_ns",
        histo_p50("server.latency.read") as f64,
    );
    out.layer(
        "core.server.handler_write_p50_ns",
        histo_p50("server.latency.write") as f64,
    );
    let (hits, misses) = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
    );
    out.layer(
        "core.access.cache_hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    for name in [
        "db.plan.point",
        "db.plan.intersect",
        "db.plan.range",
        "db.plan.scan",
    ] {
        out.layer(name, per_kop(name));
    }
    let examined =
        |s: &moira_obs::Snapshot| s.histogram("db.select.rows_examined").map_or(0, |h| h.sum);
    // A result is a tuple returned or a mutation applied.
    out.layer(
        "db.plan.rows_examined_per_result",
        (examined(&obs_after) - examined(&obs_before)) as f64
            / (thr.tuples + thr.writes).max(1) as f64,
    );
    out.layer("db.wal.append_ns", media_total.wal_append.mean_ns());
    out.layer("db.wal.fsync_us", media_total.wal_fsync.mean_ns() / 1e3);
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.layer(
        "db.wal.bytes_per_commit",
        per(media_total.wal_append.bytes, media_total.wal_append.count),
    );
    out.layer(
        "db.wal.fsyncs_per_commit",
        per(
            after_latency.wal_fsync.count - before_latency.wal_fsync.count,
            after_latency.wal_append.count - before_latency.wal_append.count,
        ),
    );
    let mut groups: Vec<u64> = sv.media.group_sizes()[groups_before_thr..groups_after_thr]
        .iter()
        .map(|&g| u64::from(g))
        .collect();
    groups.sort_unstable();
    out.layer(
        "db.wal.group_commit_p50",
        quantile_sorted(&groups, 0.5).unwrap_or(0) as f64,
    );
    // Snapshots cut by commits; the re-seal a boot ends with is recovery's.
    let stalls: Vec<f64> = snapshots
        .windows(2)
        .filter(|w| w[1].wal_appends > w[0].wal_appends)
        .map(|w| w[1].millis())
        .collect();
    out.layer("db.snapshot.count", stalls.len() as f64);
    out.layer("db.snapshot.ms_p50", median(&stalls).unwrap_or(0.0));
    out.layer(
        "db.snapshot.ms_max",
        stalls.iter().copied().fold(0.0, f64::max),
    );
    out.layer(
        "db.snapshot.bytes",
        snapshots.last().map_or(0.0, |s| s.bytes as f64),
    );
    out.layer("db.snapshot.initial_ms", sv.initial_snapshot_ms);
    let stalled: f64 = snapshots[snaps_before_thr..snaps_after_thr]
        .iter()
        .map(|s| s.millis())
        .sum();
    out.layer("db.snapshot.stall_share", stalled / ms(thr.wall).max(1e-9));
    out.layer("sim.populate_s", sv.populate_s);
    out.layer("sim.populate_queries", sv.populate_queries as f64);
    if let Some((open_ms, replay_ms)) = recovery.pieces {
        out.layer("db.recovery.open_ms", open_ms);
        out.layer("db.recovery.replay_ms", replay_ms);
    }
    out.layer("db.recovery.boot_ms", recovery.boot_ms);
    out.layer("db.recovery.replayed_entries", recovery.replayed as f64);

    let mut trace_doc = std::collections::BTreeMap::new();
    if let Some(ip) = inproc {
        out.layer("core.server.pass_ns_per_req.b1", ip.pass_ns_b1);
        out.layer("core.server.pass_ns_per_req.b32", ip.pass_ns_b32);
        trace_doc.insert("tracing_overhead".to_owned(), ip.overhead());
        trace_doc.insert("spans".to_owned(), trace::spans_json(&ip.spans));
        trace_doc.insert(
            "self_time".to_owned(),
            trace::self_time_json(&ip.spans, ip.traced_ops),
        );
    }
    probes(
        &registry,
        &mut recovered,
        &names,
        gen,
        plan.probe_ops,
        &mut out,
    )?;
    out.trace = Some(Value::Object(trace_doc));
    Ok(out)
}

/// Checks the recovered state against the model: every login's last
/// acknowledged shell and every acknowledged membership must be readable.
fn verify_recovered(
    registry: &Registry,
    state: &MoiraState,
    names: &Names,
    gen: &OpGen,
    out: &mut Outcome,
) {
    let root = Caller::root("moira-bench");
    for (login, &shell) in names.logins.iter().zip(&gen.shell) {
        let rows = registry.execute_read(
            state,
            &root,
            "get_user_by_login",
            std::slice::from_ref(login),
        );
        out.check(rows.is_ok_and(|r| r.len() == 1 && r[0][2] == SHELLS[shell as usize]));
    }
    let mut by_list: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(list, login) in &gen.touched_members {
        by_list.entry(list).or_default().push(login);
    }
    for (list, logins) in by_list {
        let rows = registry
            .execute_read(
                state,
                &root,
                "get_members_of_list",
                &[names.lists[list as usize].clone()],
            )
            .unwrap_or_default();
        let present: HashSet<&str> = rows.iter().map(|r| r[1].as_str()).collect();
        for login in logins {
            let want = gen.pending_member == Some((list, login));
            out.check(present.contains(names.logins[login as usize].as_str()) == want);
        }
    }
}

/// Times the pieces of a durable boot directly, through the same public
/// functions `boot_durable` composes: `(open_ms, replay_ms)`.
fn timed_recovery_pieces(registry: &Registry, files: RamMedia) -> Result<(f64, f64), String> {
    let (metered, _) = MeteredMedia::new(files);
    let t0 = Instant::now();
    let (_engine, image) = mr(
        "engine open",
        DurableEngine::open(Box::new(metered), FLUSH_POLICY),
    )?;
    let open_ms = ms(t0.elapsed());
    let image = image.ok_or("nothing to recover")?;
    let snap = image.snapshot.ok_or("no sealed snapshot")?;
    let clock = VClock::new();
    clock.set(snap.now);
    let mut db = Database::recovered(clock.clone(), snap.epoch);
    schema::create_all_tables(&mut db);
    mr("snapshot apply", snap.apply(&mut db))?;
    let mut state = MoiraState::recovered(db, snap.journal);
    let t0 = Instant::now();
    for entry in &image.wal {
        clock.set(entry.time);
        mr("replay", registry.replay(&mut state, entry))?;
    }
    Ok((open_ms, ms(t0.elapsed())))
}

/// What the in-process trials of a traced run found.
struct Inproc {
    pass_ns_b1: f64,
    pass_ns_b32: f64,
    untraced_ops_per_s: f64,
    traced_ops_per_s: f64,
    traced_ops: u64,
    spans: Vec<trace::SpanRec>,
}

impl Inproc {
    fn overhead(&self) -> Value {
        json!({
            "untraced_ops_per_s": self.untraced_ops_per_s,
            "traced_ops_per_s": self.traced_ops_per_s,
            "share_lost": 1.0 - self.traced_ops_per_s / self.untraced_ops_per_s.max(1e-9),
            "note": "both figures from the in-process driver, 32 requests per pass",
        })
    }
}

/// Drives the server on the load thread over an in-process channel pair:
/// encode, `poll_once`, decode, all on one stack, so spans nest and the
/// metered media's spans fall inside `poll_once`.
fn run_inproc(
    server: &mut MoiraServer,
    gen: &mut OpGen,
    names: &Names,
    plan: &Plan,
    out: &mut Outcome,
) -> Result<Inproc, String> {
    let (mut chan, server_end) = pair();
    server.attach(Box::new(server_end), "inproc", 0);
    mr(
        "send auth",
        chan.send(Request::new(MajorRequest::Auth, &[ADMIN, "moira-bench"]).encode()),
    )?;
    server.poll_once();
    if recv_status(&mut chan)? != 0 {
        return Err("in-process connection failed to authenticate".into());
    }
    let mut trial = |batch: usize, record: bool| -> Result<(u64, u64, Duration), String> {
        let mut ops = 0u64;
        let mut pass_ns = 0u64;
        let mut batch_id = 0u64;
        let mut pending: Vec<(Op, u8)> = Vec::with_capacity(batch);
        let t0 = Instant::now();
        if record {
            trace::enable();
        }
        while t0.elapsed() < plan.inproc {
            batch_id += 1;
            trace::set_id(batch_id);
            let _root = trace::span("bench.batch");
            pending.clear();
            for _ in 0..batch {
                let (op, shell) = next(gen);
                let frame = {
                    let _s = trace::span("protocol.encode");
                    names.request(op).encode()
                };
                mr("send", chan.send(frame))?;
                pending.push((op, shell));
            }
            let mut done = 0;
            let mut rows = Vec::new();
            while done < pending.len() {
                let t = Instant::now();
                {
                    let _s = trace::span("core.server.poll_once");
                    server.poll_once();
                }
                pass_ns += t.elapsed().as_nanos() as u64;
                while let Some(frame) = mr("recv", chan.try_recv())? {
                    let _s = trace::span("protocol.decode");
                    let reply = mr("reply", Reply::decode(frame))?;
                    if reply.is_more_data() {
                        rows.push(mr("tuple", reply.string_fields())?);
                        continue;
                    }
                    let (op, shell) = pending[done];
                    out.check(reply.code == 0 && reply_ok(names, op, shell, &rows));
                    rows.clear();
                    done += 1;
                }
            }
            ops += pending.len() as u64;
        }
        Ok((ops, pass_ns, t0.elapsed()))
    };
    let (ops1, ns1, _) = trial(1, false)?;
    let (ops32, ns32, wall32) = trial(WINDOW, false)?;
    let (traced_ops, _, traced_wall) = trial(WINDOW, true)?;
    let spans = trace::disable();
    Ok(Inproc {
        pass_ns_b1: ns1 as f64 / ops1.max(1) as f64,
        pass_ns_b32: ns32 as f64 / ops32.max(1) as f64,
        untraced_ops_per_s: ops32 as f64 / wall32.as_secs_f64(),
        traced_ops_per_s: traced_ops as f64 / traced_wall.as_secs_f64(),
        traced_ops,
        spans,
    })
}

/// Times each layer's public functions directly over the workload's own
/// operations: `gen` carries on the run's stream, whose model the
/// recovered `state` has just been checked against (so writing to it is
/// harmless and no add can meet an existing member).
fn probes(
    registry: &Registry,
    state: &mut MoiraState,
    names: &Names,
    mut gen: OpGen,
    n: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let admin = Caller::new(ADMIN, "moira-bench");
    let ops: Vec<Op> = (0..n).map(|_| gen.next_op()).collect();
    let calls: Vec<(MajorRequest, Vec<String>)> = ops
        .iter()
        .map(|&op| {
            let (major, args) = names.call(op);
            (major, strings(&args))
        })
        .collect();

    // No WAL under the write probe: the media has its own timings.
    let storage = std::mem::replace(&mut state.storage, Box::new(NullStorage));
    let (mut read_ns, mut reads, mut write_ns, mut writes) = (0u64, 0u64, 0u64, 0u64);
    let mut replies: Vec<Vec<Reply>> = Vec::with_capacity(n);
    for (op, (major, args)) in ops.iter().zip(&calls) {
        let t = Instant::now();
        let result = if *major == MajorRequest::Access {
            registry
                .check_access(state, &admin, &args[0], &args[1..])
                .map(|()| Vec::new())
        } else if op.is_write() {
            registry.execute(state, &admin, &args[0], &args[1..])
        } else {
            registry.execute_read(state, &admin, &args[0], &args[1..])
        };
        let ns = t.elapsed().as_nanos() as u64;
        if op.is_write() {
            write_ns += ns;
            writes += 1;
        } else {
            read_ns += ns;
            reads += 1;
        }
        let rows = mr("probe operation", result)?;
        let mut r: Vec<Reply> = rows.iter().map(|t| Reply::tuple(t)).collect();
        r.push(Reply::status(0));
        replies.push(r);
    }
    state.storage = storage;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    out.layer("core.registry.execute_read_ns", per(read_ns, reads));
    out.layer("core.registry.execute_write_ns", per(write_ns, writes));

    let login = names.logins[0].clone();
    let args = [login, SHELLS[1].to_owned()];
    let t = Instant::now();
    for _ in 0..n {
        mr(
            "check_access",
            registry.check_access(state, &admin, "update_user_shell", &args),
        )?;
    }
    out.layer(
        "core.access.check_ns",
        per(t.elapsed().as_nanos() as u64, n as u64),
    );

    // Encode and decode of both directions, per operation.
    let requests: Vec<Request> = ops.iter().map(|&op| names.request(op)).collect();
    let t = Instant::now();
    let request_frames: Vec<_> = requests.iter().map(Request::encode).collect();
    let reply_frames: Vec<Vec<_>> = replies
        .iter()
        .map(|rs| rs.iter().map(Reply::encode).collect())
        .collect();
    out.layer(
        "protocol.encode_ns",
        per(t.elapsed().as_nanos() as u64, n as u64),
    );
    let t = Instant::now();
    for frame in request_frames {
        mr("request decode", Request::decode(frame))?;
    }
    for frames in reply_frames {
        for frame in frames {
            mr("reply decode", Reply::decode(frame))?;
        }
    }
    out.layer(
        "protocol.decode_ns",
        per(t.elapsed().as_nanos() as u64, n as u64),
    );

    let encodes: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(encode_snapshot(&state.db, &state.journal, 1));
            ms(t.elapsed())
        })
        .collect();
    out.layer("db.snapshot.encode_ms", median(&encodes).unwrap_or(0.0));
    Ok(())
}
