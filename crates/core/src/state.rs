//! Server state: database, journal, locks, access cache, connected clients.
//!
//! [`SharedState`] records each guard it hands out in the thread's
//! held-set ([`moira_common::lockorder`]); in debug builds the blocking
//! seams refuse to run while one is live.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use moira_common::clock::VClock;
use moira_common::lockorder::{self, Held};
use moira_db::journal::Journal;
use moira_db::lock::LockManager;
use moira_db::storage::{NullStorage, Storage};
use moira_db::Database;
use parking_lot::RwLock;

use crate::access::AccessCache;
use crate::schema::{self, values};
use crate::seed;

/// The shared handle every component holds on the server state.
///
/// A reader-writer lock, not a mutex: the server loop's read tier, the
/// DCM and the registration server read under shared guards side by side,
/// while mutations serialize under the exclusive guard.
///
/// The handle is a struct (not a bare `Arc<RwLock<..>>`) so every guard it
/// hands out is recorded in the thread's held-set
/// ([`moira_common::lockorder`]). In debug builds a same-thread blocking
/// re-acquisition — a guaranteed self-deadlock under parking_lot's
/// non-reentrant lock — panics at the acquisition site instead of hanging,
/// and the blocking seams (reactor wait, `recv_blocking`, DCM update legs,
/// client retry sleeps) panic while a guard is live.
#[derive(Clone)]
pub struct SharedState {
    inner: Arc<RwLock<MoiraState>>,
}

/// A shared guard on the state; derefs to [`MoiraState`].
pub struct StateReadGuard<'a> {
    guard: parking_lot::RwLockReadGuard<'a, MoiraState>,
    _held: Held,
}

impl Deref for StateReadGuard<'_> {
    type Target = MoiraState;
    fn deref(&self) -> &MoiraState {
        &self.guard
    }
}

/// An exclusive guard on the state; derefs to [`MoiraState`].
pub struct StateWriteGuard<'a> {
    guard: parking_lot::RwLockWriteGuard<'a, MoiraState>,
    _held: Held,
}

impl Deref for StateWriteGuard<'_> {
    type Target = MoiraState;
    fn deref(&self) -> &MoiraState {
        &self.guard
    }
}

impl DerefMut for StateWriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut MoiraState {
        &mut self.guard
    }
}

impl SharedState {
    /// Acquires the shared (read) guard, blocking until granted.
    pub fn read(&self) -> StateReadGuard<'_> {
        let held = self.hold(true);
        StateReadGuard {
            guard: self.inner.read(),
            _held: held,
        }
    }

    /// Acquires the exclusive (write) guard, blocking until granted.
    pub fn write(&self) -> StateWriteGuard<'_> {
        let held = self.hold(true);
        StateWriteGuard {
            guard: self.inner.write(),
            _held: held,
        }
    }

    /// Non-blocking shared acquisition.
    pub fn try_read(&self) -> Option<StateReadGuard<'_>> {
        let held = self.hold(false);
        Some(StateReadGuard {
            guard: self.inner.try_read()?,
            _held: held,
        })
    }

    /// Non-blocking exclusive acquisition.
    pub fn try_write(&self) -> Option<StateWriteGuard<'_>> {
        let held = self.hold(false);
        Some(StateWriteGuard {
            guard: self.inner.try_write()?,
            _held: held,
        })
    }

    /// Records the acquisition in the thread's held-set before the lock
    /// operation, so a blocking re-acquisition panics rather than hangs.
    fn hold(&self, blocking: bool) -> Held {
        lockorder::hold(Arc::as_ptr(&self.inner) as usize, blocking)
    }
}

/// Wraps a state in the [`SharedState`] handle.
pub fn shared(state: MoiraState) -> SharedState {
    SharedState {
        inner: Arc::new(RwLock::new(state)),
    }
}

/// The identity on whose behalf a request runs.
///
/// "All requests received after this \[Authenticate\] request should be
/// performed on behalf of the principal identified by the authenticator"
/// (§5.3).
#[derive(Debug, Clone, Default)]
pub struct Caller {
    /// Authenticated Kerberos principal; `None` before authentication.
    pub principal: Option<String>,
    /// Name of the program acting on behalf of the user (`mr_auth`'s
    /// `clientname`), recorded as `modwith`.
    pub client_name: String,
}

impl Caller {
    /// An authenticated caller.
    pub fn new(principal: &str, client_name: &str) -> Caller {
        Caller {
            principal: Some(principal.to_owned()),
            client_name: client_name.to_owned(),
        }
    }

    /// An unauthenticated caller (read-only queries only).
    pub fn anonymous(client_name: &str) -> Caller {
        Caller {
            principal: None,
            client_name: client_name.to_owned(),
        }
    }

    /// The privileged identity the DCM and backup tools use ("connects to
    /// the database and authenticates as **root**", §5.7.1).
    pub fn root(client_name: &str) -> Caller {
        Caller::new("root", client_name)
    }

    /// The principal, or `"???"` for anonymous callers — the string written
    /// into `modby`.
    pub fn who(&self) -> &str {
        self.principal.as_deref().unwrap_or("???")
    }

    /// True for the all-powerful principals that bypass ACLs (`root`, used
    /// by the DCM, and the registration server's identity).
    pub fn is_privileged(&self) -> bool {
        matches!(
            self.principal.as_deref(),
            Some("root") | Some("sms") | Some("register")
        )
    }
}

/// One connected client, for the `_list_users` introspection query.
#[derive(Debug, Clone)]
pub struct ClientInfo {
    /// Authenticated principal, if any.
    pub principal: Option<String>,
    /// Peer host (address or `"local"`).
    pub host: String,
    /// Peer port number (0 for in-process connections).
    pub port: u16,
    /// Unix time of connection.
    pub connect_time: i64,
    /// Monotonic client number.
    pub client_number: u64,
}

/// The entire mutable state of the Moira server.
pub struct MoiraState {
    /// The database of §6.
    pub db: Database,
    /// Journal of successful side-effecting queries (§5.2.2).
    pub journal: Journal,
    /// Service/host lock manager used by the DCM (§5.7.1).
    pub locks: LockManager,
    /// The §5.5 access cache.
    pub access_cache: AccessCache,
    /// Connected clients (maintained by the server loop).
    pub clients: Vec<ClientInfo>,
    /// Set by a `Trigger_DCM` request; drained by whoever runs DCM cycles.
    pub dcm_trigger: bool,
    /// The instrument registry every layer records into (server dispatch,
    /// lock manager, DCM stages) and `get_server_statistics` snapshots.
    pub obs: moira_obs::Registry,
    /// The durable backend committed mutations are appended to. Defaults
    /// to [`NullStorage`] (the historical in-memory server); the durable
    /// boot path swaps in a `DurableEngine`.
    pub storage: Box<dyn Storage>,
    next_client_no: u64,
}

impl MoiraState {
    /// Creates a fully seeded server state on the given clock.
    pub fn new(clock: VClock) -> MoiraState {
        let mut db = Database::new(clock);
        schema::create_all_tables(&mut db);
        let mut state = MoiraState::bare(db);
        seed::seed(&mut state);
        state
    }

    /// Assembles a state around an already-recovered database and journal
    /// (schema created, rows imported, epoch preserved). No seeding: the
    /// snapshot and WAL replay are the only sources of truth.
    pub fn recovered(db: Database, journal: Journal) -> MoiraState {
        MoiraState {
            journal,
            ..MoiraState::bare(db)
        }
    }

    fn bare(mut db: Database) -> MoiraState {
        let obs = moira_obs::Registry::new();
        db.set_obs(&obs);
        MoiraState {
            db,
            journal: Journal::new(),
            locks: LockManager::with_obs(obs.clone()),
            access_cache: AccessCache::new(),
            clients: Vec::new(),
            dcm_trigger: false,
            obs,
            storage: Box::new(NullStorage),
            next_client_no: 0,
        }
    }

    /// Current time from the database clock.
    pub fn now(&self) -> i64 {
        self.db.now()
    }

    /// Cuts a mutation-generation cursor over `tables`. Callers holding the
    /// PR-2 shared read lock get a consistent snapshot: the cursor and any
    /// `changed_since` reads taken under the same guard describe the same
    /// database version, since writers need the exclusive lock to mutate.
    pub fn generation_cursor(&self, tables: &[moira_db::TableId]) -> moira_db::GenCursor {
        self.db.cursor(tables)
    }

    /// Allocates the next client number for `_list_users`.
    pub fn next_client_number(&mut self) -> u64 {
        self.next_client_no += 1;
        self.next_client_no
    }

    /// Reads an integer from the `values` relation (§6 VALUES).
    pub fn get_value(&self, name: &str) -> Option<i64> {
        let t = self.db.table(values::T);
        t.select_one(&moira_db::Pred::Eq(values::NAME, name.into()))
            .map(|id| t.cell(id, values::VALUE).as_int())
    }

    /// Writes an integer into the `values` relation, creating it if absent.
    pub fn set_value(&mut self, name: &str, value: i64) {
        let existing = self
            .db
            .table(values::T)
            .select_one(&moira_db::Pred::Eq(values::NAME, name.into()));
        match existing {
            Some(id) => self
                .db
                .update(id, &[(values::VALUE, value.into())])
                .expect("values update"),
            None => {
                self.db
                    .append(values::T, vec![name.into(), value.into()])
                    .expect("values append");
            }
        }
    }
}

// The read tier hands shared references to worker threads; losing Send +
// Sync on MoiraState would silently serialize the server again, so make it
// a compile error instead.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MoiraState>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::alias;

    #[test]
    fn fresh_state_is_seeded() {
        let s = MoiraState::new(VClock::new());
        assert!(s.get_value("dcm_enable").is_some());
        assert!(s.db.table(alias::T).len() > 10);
    }

    #[test]
    fn values_round_trip() {
        let mut s = MoiraState::new(VClock::new());
        assert_eq!(s.get_value("bogus"), None);
        s.set_value("bogus", 7);
        assert_eq!(s.get_value("bogus"), Some(7));
        s.set_value("bogus", 8);
        assert_eq!(s.get_value("bogus"), Some(8));
    }

    #[test]
    fn caller_identities() {
        assert_eq!(Caller::anonymous("x").who(), "???");
        assert_eq!(Caller::new("babette", "chsh").who(), "babette");
        assert!(Caller::root("dcm").is_privileged());
        assert!(!Caller::new("babette", "chsh").is_privileged());
    }

    #[test]
    fn client_numbers_increment() {
        let mut s = MoiraState::new(VClock::new());
        assert_eq!(s.next_client_number(), 1);
        assert_eq!(s.next_client_number(), 2);
    }

    #[test]
    fn same_thread_try_acquisition_is_exempt() {
        let s = shared(MoiraState::new(VClock::new()));
        // try_* under a held guard sheds instead of deadlocking, so the
        // witness lets it through (trylock rule).
        let held = s.write();
        assert!(s.try_write().is_none());
        assert!(s.try_read().is_none());
        drop(held);
        assert!(s.try_write().is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "same-thread re-acquisition")]
    fn same_thread_reacquisition_panics() {
        let s = shared(MoiraState::new(VClock::new()));
        let _outer = s.read();
        let _inner = s.read();
    }
}
