//! The query-handle registry.
//!
//! "All access to the database is provided through the application
//! library/database server interface. This interface provides a limited set
//! of predefined, named queries" (§7). Each handle carries its signature
//! (argument and return field names), its class (retrieve / append / update
//! / delete), its access rule, and the handler function. The server and the
//! application library are "designed to allow for the easy addition of
//! queries" — adding one here is a single [`Registry::register`] call.

use std::collections::HashMap;

use moira_common::errors::{MrError, MrResult};
use moira_db::journal::JournalEntry;

use crate::access;
use crate::state::{Caller, MoiraState};

/// The four classes of §7, plus the built-in specials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Reads data; journal-exempt, mostly ACL-exempt (§5.5).
    Retrieve,
    /// Adds records.
    Append,
    /// Modifies records.
    Update,
    /// Removes records.
    Delete,
    /// Built-in introspection (`_help`, `_list_queries`, `_list_users`).
    Special,
}

impl QueryKind {
    /// True for the side-effecting classes that are journaled and
    /// ACL-checked.
    pub fn is_mutation(self) -> bool {
        matches!(
            self,
            QueryKind::Append | QueryKind::Update | QueryKind::Delete
        )
    }
}

/// How the registry gate decides access before invoking the handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessRule {
    /// Anyone, authenticated or not ("safe for this query's ACL to be the
    /// list containing everybody" — and cheaper).
    Public,
    /// Caller must hold the query's capability in CAPACLS.
    QueryAcl,
    /// Capability, or the caller *is* the login named by argument `n`
    /// ("this query may be executed by the target user").
    QueryAclOrSelf(usize),
    /// The handler enforces its own rule (list ACEs, public lists, …).
    Custom,
}

/// Read-tier handler signature: shared state, caller, string arguments →
/// tuples. The `&MoiraState` makes it a type error for a retrieve to mutate:
/// every `Database`/`Table` mutator takes `&mut self`, rows have no interior
/// mutability, and `Database` is not `Clone`, so there is no detached copy to
/// read or write either. A retrieve compiles —
///
/// ```
/// # use moira_common::errors::MrResult;
/// # use moira_core::registry::ReadHandler;
/// # use moira_core::state::{Caller, MoiraState};
/// # use moira_core::schema::users;
/// # use moira_db::Pred;
/// fn retrieve(state: &MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
///     let _ = state.db.table(users::T).select(&Pred::True);
///     Ok(Vec::new())
/// }
/// let _: ReadHandler = retrieve;
/// ```
///
/// — the same handler mutating through the shared reference does not (E0596) —
///
/// ```compile_fail
/// # use moira_common::errors::MrResult;
/// # use moira_core::registry::ReadHandler;
/// # use moira_core::state::{Caller, MoiraState};
/// # use moira_core::schema::users;
/// # use moira_db::Pred;
/// fn retrieve(state: &MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
///     let _ = state.db.delete_where(&Pred::<users::R>::True);
///     Ok(Vec::new())
/// }
/// let _: ReadHandler = retrieve;
/// ```
///
/// — and neither does cloning the database out from under the tiers (E0599):
///
/// ```compile_fail
/// # use moira_common::errors::MrResult;
/// # use moira_core::registry::ReadHandler;
/// # use moira_core::state::{Caller, MoiraState};
/// # use moira_core::schema::users;
/// # use moira_db::Pred;
/// fn retrieve(state: &MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
///     let _ = state.db.clone().table(users::T).select(&Pred::True);
///     Ok(Vec::new())
/// }
/// let _: ReadHandler = retrieve;
/// ```
pub type ReadHandler = fn(&MoiraState, &Caller, &[String]) -> MrResult<Vec<Vec<String>>>;

/// Write-tier handler signature: exclusive state access for the
/// side-effecting classes.
///
/// Contract: a write handler must effect every durable change through
/// `state.db` (table appends/updates/deletes). Journaling keys on the
/// database's mutation counter, so a handler that mutated only other
/// `MoiraState` fields would succeed without being journaled — see
/// [`Registry::execute`].
pub type WriteHandler = fn(&mut MoiraState, &Caller, &[String]) -> MrResult<Vec<Vec<String>>>;

/// A query implementation, split by tier.
///
/// `Read` handlers run under the server's shared lock, concurrently with
/// each other; `Write` handlers serialize under the exclusive lock. The
/// split is enforced by the compiler: a `Read` handler cannot obtain
/// `&mut MoiraState` no matter what its body does.
#[derive(Clone, Copy)]
pub enum Handler {
    /// Retrieve-class implementation over shared state.
    Read(ReadHandler),
    /// Mutating implementation over exclusive state.
    Write(WriteHandler),
}

impl Handler {
    /// True for the shared-lock tier.
    pub fn is_read(&self) -> bool {
        matches!(self, Handler::Read(_))
    }
}

/// One predefined query.
#[derive(Clone, Copy)]
pub struct QueryHandle {
    /// Long name, e.g. `get_user_by_login`.
    pub name: &'static str,
    /// Four-character tag, e.g. `gubl` (the CAPACLS `tag`).
    pub shortname: &'static str,
    /// Query class.
    pub kind: QueryKind,
    /// Registry-level access rule.
    pub access: AccessRule,
    /// Argument names, defining the expected argument count.
    pub args: &'static [&'static str],
    /// Names of returned tuple fields (empty for non-retrieves).
    pub returns: &'static [&'static str],
    /// The implementation.
    pub handler: Handler,
}

/// The catalog of predefined queries.
pub struct Registry {
    handles: Vec<QueryHandle>,
    by_name: HashMap<&'static str, usize>,
}

impl Registry {
    /// An empty registry.
    pub fn empty() -> Registry {
        Registry {
            handles: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The full standard catalog of §7.
    pub fn standard() -> Registry {
        let mut r = Registry::empty();
        crate::queries::register_all(&mut r);
        r
    }

    /// Registers a handle under both its long and short names.
    ///
    /// # Panics
    ///
    /// Panics on duplicate names, a mutation class on the read tier (or the
    /// reverse), or a `QueryAclOrSelf` index past the declared arguments —
    /// the catalog is static, so all three are build-time bugs.
    pub fn register(&mut self, handle: QueryHandle) {
        assert_eq!(
            handle.kind.is_mutation(),
            matches!(handle.handler, Handler::Write(_)),
            "query {} registers a {:?} handle on the wrong tier",
            handle.name,
            handle.kind,
        );
        if let AccessRule::QueryAclOrSelf(i) = handle.access {
            // `access::enforce` reads `args.get(i)`: out of range, the owner
            // would be answered MR_PERM forever.
            assert!(
                i < handle.args.len(),
                "query {}: QueryAclOrSelf({i}) indexes past its {} argument(s)",
                handle.name,
                handle.args.len()
            );
        }
        let idx = self.handles.len();
        assert!(
            self.by_name.insert(handle.name, idx).is_none(),
            "duplicate query {}",
            handle.name
        );
        assert!(
            self.by_name.insert(handle.shortname, idx).is_none(),
            "duplicate tag {}",
            handle.shortname
        );
        self.handles.push(handle);
    }

    /// Looks a query up by long or short name.
    pub fn get(&self, name: &str) -> Option<&QueryHandle> {
        self.by_name.get(name).map(|&i| &self.handles[i])
    }

    /// Every handle, in registration order.
    pub fn handles(&self) -> &[QueryHandle] {
        &self.handles
    }

    /// Number of registered query handles.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True if no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// True if `name` resolves to a shared-tier (read) handle — the server
    /// uses this to route a request before taking any lock.
    pub fn is_read_query(&self, name: &str) -> bool {
        self.get(name).is_some_and(|h| h.handler.is_read())
    }

    /// The access pre-check behind the `Access` major request: would this
    /// query be allowed? (Does not execute it.) Requires only shared state —
    /// access decisions never mutate beyond the interior-mutable cache.
    pub fn check_access(
        &self,
        state: &MoiraState,
        caller: &Caller,
        name: &str,
        args: &[String],
    ) -> MrResult<()> {
        let handle = self.get(name).ok_or(MrError::NoHandle)?;
        if args.len() != handle.args.len() {
            return Err(MrError::Args);
        }
        access::enforce(state, caller, handle.access, handle.name, args)
    }

    /// `_help` and `_list_queries` introspect the registry itself, which
    /// handlers cannot reach; they are answered here. `None` for every other
    /// query.
    fn intercept(&self, name: &str, args: &[String]) -> Option<MrResult<Vec<Vec<String>>>> {
        match name {
            "_help" => Some(match self.get(&args[0]) {
                Some(target) => Ok(vec![vec![crate::queries::special::help_message(target)]]),
                None => Err(MrError::NoHandle),
            }),
            "_list_queries" => Some(Ok(self
                .handles
                .iter()
                .map(|h| vec![h.name.to_owned(), h.shortname.to_owned()])
                .collect())),
            _ => None,
        }
    }

    /// Executes a read-tier query against shared state: arity check, access
    /// check, handler. Write-class handles are never dispatched here — route
    /// them through [`Registry::execute`] (returns `MR_INTERNAL` otherwise).
    pub fn execute_read(
        &self,
        state: &MoiraState,
        caller: &Caller,
        name: &str,
        args: &[String],
    ) -> MrResult<Vec<Vec<String>>> {
        let handle = self.get(name).ok_or(MrError::NoHandle)?;
        if args.len() != handle.args.len() {
            return Err(MrError::Args);
        }
        access::enforce(state, caller, handle.access, handle.name, args)?;
        if let Some(result) = self.intercept(handle.name, args) {
            return result;
        }
        match handle.handler {
            Handler::Read(f) => f(state, caller, args),
            Handler::Write(_) => Err(MrError::Internal),
        }
    }

    /// Executes a query of either tier: arity check, access check, handler,
    /// and journaling of successful mutations that actually changed the
    /// database (validate-only successes are not journaled).
    ///
    /// "Changed" is detected via `state.db`'s mutation counter, which covers
    /// table appends, updates, and deletes. That is the whole journaling
    /// contract: mutation-class handlers must route durable changes through
    /// the database tables (all standard handlers do). A hypothetical write
    /// that touched only other `MoiraState` fields would not be journaled —
    /// register such maintenance actions as `Special`/server-level requests
    /// (like `Trigger_DCM`) instead of mutation-class queries.
    pub fn execute(
        &self,
        state: &mut MoiraState,
        caller: &Caller,
        name: &str,
        args: &[String],
    ) -> MrResult<Vec<Vec<String>>> {
        let handle = self.get(name).ok_or(MrError::NoHandle)?;
        if args.len() != handle.args.len() {
            return Err(MrError::Args);
        }
        access::enforce(state, caller, handle.access, handle.name, args)?;
        if let Some(result) = self.intercept(handle.name, args) {
            return result;
        }
        let before = handle.kind.is_mutation().then(|| state.db.mutation_count());
        let result = match handle.handler {
            Handler::Read(f) => f(state, caller, args)?,
            Handler::Write(f) => f(state, caller, args)?,
        };
        if before.is_some_and(|b| state.db.mutation_count() != b) {
            let entry = JournalEntry {
                time: state.db.now(),
                who: caller.who().to_owned(),
                with: caller.client_name.clone(),
                query: handle.name.to_owned(),
                args: args.to_vec(),
            };
            state.journal.log(entry.clone());
            // Write-ahead: the commit is not acknowledged until the entry
            // is at least buffered in the WAL (group commit fsyncs it). A
            // failed append is surfaced to the caller — the in-memory
            // change stands, but its durability cannot be promised.
            //
            // Durability is the one sanctioned blocking step on the write
            // path: the group-commit fsync is bounded, and the journal
            // order must match the guard order, so the append cannot move
            // outside the write lock (DESIGN.md "Durable storage").
            let now = state.db.now();
            // lint:allow(lock-discipline, reactor-discipline)
            if let Err(e) = state.storage.append(&entry, now) {
                state.obs.counter("db.wal.append_errors").inc();
                return Err(e);
            }
            if state.storage.wants_snapshot() {
                if let Err(_e) = state.storage.snapshot(&state.db, &state.journal) {
                    // Non-fatal: the WAL still holds every commit; the
                    // next mutation re-triggers the snapshot.
                    state.obs.counter("db.wal.snapshot_errors").inc();
                }
            }
        }
        Ok(result)
    }

    /// Re-applies a recovered journal entry during crash recovery.
    ///
    /// Unlike [`Registry::execute`] this skips ACL enforcement: the entry
    /// was already authorized when it first committed, and the principal
    /// may have lost (or never re-gains) those privileges in the recovered
    /// world — recovery must not re-litigate history. It also leaves the
    /// storage backend untouched; the caller replays with a `NullStorage`
    /// installed precisely so recovered entries are not re-appended.
    pub fn replay(&self, state: &mut MoiraState, entry: &JournalEntry) -> MrResult<()> {
        let handle = self.get(&entry.query).ok_or(MrError::NoHandle)?;
        if entry.args.len() != handle.args.len() {
            return Err(MrError::Args);
        }
        let caller = Caller {
            principal: (entry.who != "???").then(|| entry.who.clone()),
            client_name: entry.with.clone(),
        };
        let before = state.db.mutation_count();
        match handle.handler {
            Handler::Read(f) => f(state, &caller, &entry.args).map(|_| ())?,
            Handler::Write(f) => f(state, &caller, &entry.args).map(|_| ())?,
        }
        if state.db.mutation_count() != before {
            state.journal.log(entry.clone());
        }
        Ok(())
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_catalog_exceeds_one_hundred() {
        let r = Registry::standard();
        assert!(
            r.len() > 100,
            "paper claims over 100 query handles, got {}",
            r.len()
        );
    }

    #[test]
    fn lookup_by_both_names() {
        let r = Registry::standard();
        let long = r.get("get_user_by_login").expect("long name");
        let short = r.get("gubl").expect("short name");
        assert_eq!(long.name, short.name);
        assert!(r.get("no_such_query").is_none());
    }

    #[test]
    fn unknown_query_is_no_handle() {
        let r = Registry::standard();
        let mut s = MoiraState::new(moira_common::VClock::new());
        let err = r
            .execute(&mut s, &Caller::root("t"), "bogus", &[])
            .unwrap_err();
        assert_eq!(err, MrError::NoHandle);
    }

    #[test]
    fn arity_mismatch_is_args() {
        let r = Registry::standard();
        let mut s = MoiraState::new(moira_common::VClock::new());
        let err = r
            .execute(&mut s, &Caller::root("t"), "get_user_by_login", &[])
            .unwrap_err();
        assert_eq!(err, MrError::Args);
    }

    #[test]
    fn mutations_are_journaled() {
        let r = Registry::standard();
        let mut s = MoiraState::new(moira_common::VClock::new());
        let before = s.journal.len();
        r.execute(
            &mut s,
            &Caller::root("t"),
            "add_machine",
            &["KIWI.MIT.EDU".into(), "VAX".into()],
        )
        .unwrap();
        assert_eq!(s.journal.len(), before + 1);
        assert_eq!(s.journal.entries().last().unwrap().query, "add_machine");
        // Retrieves are not journaled.
        r.execute(
            &mut s,
            &Caller::root("t"),
            "get_machine",
            &["KIWI.MIT.EDU".into()],
        )
        .unwrap();
        assert_eq!(s.journal.len(), before + 1);
    }

    #[test]
    fn failed_mutations_not_journaled() {
        let r = Registry::standard();
        let mut s = MoiraState::new(moira_common::VClock::new());
        let before = s.journal.len();
        let err = r
            .execute(
                &mut s,
                &Caller::root("t"),
                "add_machine",
                &["X".into(), "TOASTER".into()],
            )
            .unwrap_err();
        assert_eq!(err, MrError::Type);
        assert_eq!(s.journal.len(), before);
    }

    fn noop_write(_s: &mut MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
        // Validates (vacuously) and reports zero rows changed.
        Ok(Vec::new())
    }

    #[test]
    fn validate_only_mutation_not_journaled() {
        let mut r = Registry::standard();
        r.register(QueryHandle {
            name: "touch_nothing",
            shortname: "tnth",
            kind: QueryKind::Update,
            access: AccessRule::Public,
            args: &[],
            returns: &[],
            handler: Handler::Write(noop_write),
        });
        let mut s = MoiraState::new(moira_common::VClock::new());
        let before = s.journal.len();
        r.execute(&mut s, &Caller::root("t"), "touch_nothing", &[])
            .unwrap();
        assert_eq!(
            s.journal.len(),
            before,
            "a mutation class handler that changed nothing must not journal"
        );
        // A real change is journaled as before.
        r.execute(
            &mut s,
            &Caller::root("t"),
            "add_machine",
            &["JOURNALBOX".into(), "VAX".into()],
        )
        .unwrap();
        assert_eq!(s.journal.len(), before + 1);
    }

    fn noop_read(_s: &MoiraState, _c: &Caller, _a: &[String]) -> MrResult<Vec<Vec<String>>> {
        Ok(Vec::new())
    }

    const PROBE: QueryHandle = QueryHandle {
        name: "probe_query",
        shortname: "prbq",
        kind: QueryKind::Retrieve,
        access: AccessRule::Public,
        args: &["login"],
        returns: &[],
        handler: Handler::Read(noop_read),
    };

    #[test]
    #[should_panic(expected = "duplicate query get_user_by_login")]
    fn duplicate_name_is_refused() {
        Registry::standard().register(QueryHandle {
            name: "get_user_by_login",
            ..PROBE
        });
    }

    #[test]
    #[should_panic(expected = "duplicate tag gubl")]
    fn duplicate_tag_is_refused() {
        Registry::standard().register(QueryHandle {
            shortname: "gubl",
            ..PROBE
        });
    }

    #[test]
    #[should_panic(expected = "on the wrong tier")]
    fn mutation_class_on_the_read_tier_is_refused() {
        Registry::empty().register(QueryHandle {
            kind: QueryKind::Update,
            ..PROBE
        });
    }

    #[test]
    #[should_panic(expected = "QueryAclOrSelf(1) indexes past its 1 argument(s)")]
    fn self_access_index_past_the_arguments_is_refused() {
        Registry::empty().register(QueryHandle {
            access: AccessRule::QueryAclOrSelf(1),
            ..PROBE
        });
    }

    #[test]
    fn read_tier_dispatch() {
        let r = Registry::standard();
        let mut s = MoiraState::new(moira_common::VClock::new());
        r.execute(
            &mut s,
            &Caller::root("t"),
            "add_machine",
            &["RBOX".into(), "VAX".into()],
        )
        .unwrap();
        // Retrieves and specials resolve to the read tier; mutations do not.
        assert!(r.is_read_query("get_machine"));
        assert!(r.is_read_query("_list_queries"));
        assert!(!r.is_read_query("add_machine"));
        assert!(!r.is_read_query("no_such_query"));
        // execute_read serves retrieves over shared state…
        let rows = r
            .execute_read(&s, &Caller::root("t"), "get_machine", &["RBOX".into()])
            .unwrap();
        assert_eq!(rows[0][0], "RBOX");
        let help = r
            .execute_read(&s, &Caller::root("t"), "_help", &["get_machine".into()])
            .unwrap();
        assert!(help[0][0].contains("gmac"));
        // …and refuses write-class handles outright.
        assert_eq!(
            r.execute_read(
                &s,
                &Caller::root("t"),
                "add_machine",
                &["X".into(), "VAX".into()]
            )
            .unwrap_err(),
            MrError::Internal
        );
    }

    #[test]
    fn all_tags_are_four_chars() {
        let r = Registry::standard();
        for h in r.handles() {
            assert_eq!(h.shortname.len(), 4, "{} has tag {}", h.name, h.shortname);
        }
    }
}
