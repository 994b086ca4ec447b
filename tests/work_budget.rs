//! Work budgets: exact per-operation counts for the request-path op mix
//! and for a DCM cycle, where wall-clock on a small host cannot resolve a
//! change.
//!
//! For each query handle the benchmark's request workloads issue, the test
//! builds the small population, runs the handle once to warm the access
//! cache and the interner, then once more and pins two counts of that
//! second call:
//!
//! - heap allocations made on the calling thread (a counting global
//!   allocator over `System`; each test thread keeps its own count), and
//! - rows the planner examined (`db.select.rows_examined`'s sum).
//!
//! For the DCM the test builds the small deployment and pins, for its first
//! cycle and for one cycle after a 1 % shell change, the hosts confirmed,
//! the install commands run, the hosts that confirmed without one, the
//! bytes on the wire and the patch/whole member split of the transfer.
//!
//! And it pins the journal's heap footprint after populate: the bytes its
//! drop gives back, at most twice the journal file those entries make.
//! And the recovery boot's: booting the sealed small population may peak
//! only a bounded share above the state it boots, and that state may hold
//! no more heap than it did when each row was decoded and then cloned.
//!
//! Nothing here is timed. A change that moves a constant updates it and
//! says why; a rise nobody explained is a regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use moira::common::clock::VClock;
use moira::core::boot_durable;
use moira::core::registry::Registry;
use moira::core::seed::seed_capacls;
use moira::core::state::{Caller, MoiraState};
use moira::db::storage::{DurableEngine, GroupCommitConfig, SimMedia, Storage};
use moira::dcm::net::{NetFault, Network};
use moira::sim::{populate, Deployment, PopulationSpec};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// `System`, counting every allocation and reallocation on the calling
/// thread, the bytes the thread holds (what it allocated less what it
/// freed), and the most it has held since [`reset_peak`].
struct Counting;

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn hold(bytes: i64) {
    let _ = LIVE.try_with(|c| {
        let live = c.get() + bytes;
        c.set(live);
        let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// count is a thread-local `Cell` with no destructor, so it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        hold(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        hold(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        hold(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Starts a new high-water mark at what the thread holds now.
fn reset_peak() {
    PEAK.with(|p| p.set(live_bytes()));
}

fn peak_bytes() -> i64 {
    PEAK.with(Cell::get)
}

/// `(handle, heap allocations, rows examined)` of the measured call.
///
/// An access-cache hit allocates nothing (the principal is borrowed and
/// the key built in a reused buffer), and a commit encodes its journal
/// line straight into the journal's tail with no per-field copy.
/// A string the interner has not seen keeps the `Arc` it arrived in as
/// the canonical one.
const BUDGET: [(&str, u64, u64); 7] = [
    ("get_user_by_login", 18, 1),
    ("update_user_shell", 29, 5),
    ("add_member_to_list", 45, 7),
    ("delete_member_from_list", 43, 8),
    ("get_lists_of_member", 25, 3),
    ("get_members_of_list", 17, 3),
    ("get_filesys_by_label", 33, 4),
];

/// The benchmark's administrator: an ordinary user on `moira-admins`, so
/// access checks take the capability-list path rather than root's bypass.
const ADMIN: &str = "wbadmin";

struct Bench {
    state: MoiraState,
    registry: Registry,
    logins: Vec<String>,
    list: String,
}

impl Bench {
    fn new() -> Bench {
        let registry = Registry::standard();
        let mut state = MoiraState::new(VClock::new());
        seed_capacls(&mut state, &registry);
        let pop = populate(&mut state, &registry, &PopulationSpec::small()).expect("populate");
        let root = Caller::root("work-budget");
        for (q, args) in [
            (
                "add_user",
                vec![
                    ADMIN,
                    "UNIQUE_UID",
                    "/bin/csh",
                    "Admin",
                    "Budget",
                    "",
                    "1",
                    "",
                    "STAFF",
                ],
            ),
            ("add_member_to_list", vec!["moira-admins", "USER", ADMIN]),
        ] {
            let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
            registry.execute(&mut state, &root, q, &args).expect(q);
        }
        Bench {
            state,
            registry,
            logins: pop.active_logins,
            list: pop.public_lists[0].clone(),
        }
    }

    /// Runs `call[0]` with the rest as arguments and returns its
    /// `(allocations, rows examined)`.
    fn measure(&mut self, call: &[String]) -> (u64, u64) {
        let caller = Caller::new(ADMIN, "work-budget");
        let examined = self.state.obs.histogram("db.select.rows_examined");
        let rows0 = examined.snapshot().sum;
        let a0 = allocs();
        let reply = self
            .registry
            .execute(&mut self.state, &caller, &call[0], &call[1..]);
        let a1 = allocs();
        let rows1 = examined.snapshot().sum;
        reply.unwrap_or_else(|e| panic!("{call:?}: {e:?}"));
        (a1 - a0, rows1 - rows0)
    }
}

/// The warm-up and measured argument lists of handle `name`.
fn calls(b: &Bench, name: &str) -> [Vec<String>; 2] {
    let (l0, l1, l2, l3) = (&b.logins[0], &b.logins[1], &b.logins[2], &b.logins[3]);
    let list = &b.list;
    let v = |args: &[&str]| -> Vec<String> {
        std::iter::once(name)
            .chain(args.iter().copied())
            .map(str::to_owned)
            .collect()
    };
    match name {
        "get_user_by_login" => [v(&[l0]), v(&[l1])],
        "update_user_shell" => [v(&[l0, "/bin/sh"]), v(&[l1, "/bin/tcsh"])],
        "add_member_to_list" => [v(&[list, "USER", l2]), v(&[list, "USER", l3])],
        "delete_member_from_list" => [v(&[list, "USER", l2]), v(&[list, "USER", l3])],
        "get_lists_of_member" => [v(&["USER", l0]), v(&["USER", l1])],
        "get_members_of_list" => [v(&[list]), v(&[list])],
        "get_filesys_by_label" => [v(&[l0]), v(&[l1])],
        other => panic!("no calls for {other}"),
    }
}

#[test]
fn request_ops_stay_within_budget() {
    let mut b = Bench::new();
    let mut measured = Vec::new();
    // One state for all seven, in this order, so the membership the add
    // makes is the one the delete removes.
    for (name, _, _) in BUDGET {
        let [warm, run] = calls(&b, name);
        b.measure(&warm);
        measured.push((name, b.measure(&run)));
    }
    for ((name, want_allocs, want_rows), (_, (allocs, rows))) in BUDGET.iter().zip(&measured) {
        assert_eq!(
            (*allocs, *rows),
            (*want_allocs, *want_rows),
            "{name}: (allocations, rows examined) moved; measured {measured:?}"
        );
    }
}

/// The journal populate leaves holds at most this many heap bytes per
/// byte of the journal file its entries make.
const JOURNAL_HEAP_PER_FILE_BYTE: f64 = 2.0;

#[test]
fn journal_heap_stays_near_its_file_size() {
    let registry = Registry::standard();
    let mut state = MoiraState::new(VClock::new());
    seed_capacls(&mut state, &registry);
    populate(&mut state, &registry, &PopulationSpec::small()).expect("populate");
    let file_bytes = state.journal.end().bytes;
    let before = live_bytes();
    drop(std::mem::take(&mut state.journal));
    let heap = before - live_bytes();
    let ratio = heap as f64 / file_bytes as f64;
    assert!(
        ratio <= JOURNAL_HEAP_PER_FILE_BYTE,
        "the journal holds {heap} heap bytes for a {file_bytes}-byte file ({ratio:.2}x)"
    );
}

/// A durable boot of the small population may hold at most this many
/// transient heap bytes (its peak, less the booted state) per byte of the
/// state it boots. It reads 0.18: the checkpoint's bytes, one escaped
/// string per live row, and one table's rows while they move into its
/// slab. With a string per field and a second copy of each table's rows it
/// read 0.70.
const BOOT_TRANSIENT_PER_BOOTED_BYTE: f64 = 0.25;

/// The heap the booted state of the small population holds. Rows are
/// sized to their arity exactly; a rounded-up `Vec` per row would show
/// here.
const BOOTED_HEAP_BYTES: i64 = 707_105;

#[test]
fn recovery_boot_heap_stays_near_the_database() {
    let registry = Registry::standard();
    let config = GroupCommitConfig::default();
    let media = SimMedia::new();
    {
        // Seal the populated database as `Deployment::enable_durable_storage`
        // does, then let it go: only the media carries it to the boot.
        let mut state = MoiraState::new(VClock::new());
        seed_capacls(&mut state, &registry);
        populate(&mut state, &registry, &PopulationSpec::small()).expect("populate");
        let (mut engine, _) =
            DurableEngine::open(Box::new(media.clone()), config).expect("fresh media opens");
        engine
            .snapshot(&state.db, &state.journal)
            .expect("sealing the populated database");
    }
    let baseline = live_bytes();
    reset_peak();
    // Held to the end: the booted heap is measured with the state alive.
    let (_state, report) =
        boot_durable(VClock::new(), &registry, Box::new(media), config).expect("boot");
    assert!(report.recovered);
    let booted = live_bytes() - baseline;
    let transient = peak_bytes() - baseline - booted;
    let ratio = transient as f64 / booted as f64;
    assert!(
        ratio <= BOOT_TRANSIENT_PER_BOOTED_BYTE,
        "the boot peaked {transient} bytes above the {booted}-byte state it booted ({ratio:.2}x)"
    );
    assert!(
        booted <= BOOTED_HEAP_BYTES,
        "the booted state holds {booted} heap bytes, more than {BOOTED_HEAP_BYTES}"
    );
}

/// What one DCM cycle did, summed over every host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CycleWork {
    /// Host updates that ended `Ok`.
    confirmed: u64,
    /// Commands the hosts' install scripts ran (growth of `exec_log`).
    installs: u64,
    /// Bytes every update leg put on the wire.
    wire_bytes: u64,
    /// `dcm.transfer.patch_members`.
    patch_members: u64,
    /// `dcm.transfer.full_members`.
    full_members: u64,
    /// `dcm.transfer.already_installed`: hosts that confirmed without
    /// running their install script.
    already_installed: u64,
}

/// The first cycle, then one cycle after a 1 % shell change. The change
/// regenerates four services, but four of the seven hosts they serve (the
/// three NFS servers, whose files carry no shell, and the restricted
/// dialup, whose cut leaves the changed user out) already hold what is
/// pushed: they confirm without running their install command.
const DCM_BUDGET: [(&str, CycleWork); 2] = [
    (
        "first",
        CycleWork {
            confirmed: 9,
            installs: 9,
            wire_bytes: 75519,
            patch_members: 0,
            full_members: 38,
            already_installed: 0,
        },
    ),
    (
        "shell change",
        CycleWork {
            confirmed: 7,
            installs: 3,
            wire_bytes: 2882,
            patch_members: 3,
            full_members: 0,
            already_installed: 4,
        },
    ),
];

/// Forwards to the deployment's fabric, counting transmitted bytes.
struct CountingNet {
    inner: Arc<dyn Network>,
    bytes: AtomicU64,
}

impl Network for CountingNet {
    fn connect(&self, host: &str) -> Result<(), NetFault> {
        self.inner.connect(host)
    }

    fn transmit(&self, host: &str, len: usize) -> Result<(), NetFault> {
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
        self.inner.transmit(host, len)
    }
}

/// Runs one DCM cycle and returns what it did.
fn dcm_cycle(d: &mut Deployment, net: &CountingNet) -> CycleWork {
    let installs = |d: &Deployment| -> u64 {
        d.hosts
            .values()
            .map(|h| h.lock().exec_log.len() as u64)
            .sum()
    };
    let counter = |d: &Deployment, name: &str| d.state.read().obs.snapshot().counter(name);
    let before = (
        installs(d),
        net.bytes.load(Ordering::Relaxed),
        counter(d, "dcm.transfer.patch_members"),
        counter(d, "dcm.transfer.full_members"),
        counter(d, "dcm.transfer.already_installed"),
    );
    d.advance(25 * 3600);
    let report = d.run_dcm_once();
    CycleWork {
        confirmed: report.updates.iter().filter(|u| u.2.is_ok()).count() as u64,
        installs: installs(d) - before.0,
        wire_bytes: net.bytes.load(Ordering::Relaxed) - before.1,
        patch_members: counter(d, "dcm.transfer.patch_members") - before.2,
        full_members: counter(d, "dcm.transfer.full_members") - before.3,
        already_installed: counter(d, "dcm.transfer.already_installed") - before.4,
    }
}

#[test]
fn dcm_cycle_stays_within_budget() {
    let mut d = Deployment::build(&PopulationSpec::small());
    let net = Arc::new(CountingNet {
        inner: d.net.clone(),
        bytes: AtomicU64::new(0),
    });
    d.dcm.set_network(net.clone());
    let mut measured = vec![("first", dcm_cycle(&mut d, &net))];

    let logins = d.population.active_logins.clone();
    let root = Caller::root("work-budget");
    {
        let mut st = d.state.write();
        for login in logins.iter().take((logins.len() / 100).max(1)) {
            let args = [login.clone(), "/bin/tcsh".to_owned()];
            d.registry
                .execute(&mut st, &root, "update_user_shell", &args)
                .expect("shell change on a populated login");
        }
    }
    measured.push(("shell change", dcm_cycle(&mut d, &net)));
    assert_eq!(measured, DCM_BUDGET, "a DCM cycle's work moved");
}
