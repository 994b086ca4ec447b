//! Per-query access control (§5.5) and the access cache.
//!
//! "The server performs access control on all queries which might
//! side-effect the database. As most information in the database will be
//! loaded into the nameserver …, placing access control on read-only
//! queries is unnecessary." Capability ACLs live in the CAPACLS relation:
//! each query name appears as a capability tied to a list.
//!
//! Because the `Access` major request lets clients pre-check a query, "many
//! access checks will have to be performed twice … It is expected that some
//! form of access caching will eventually be worked into the server for
//! performance reasons." We implement that cache here (and make it an
//! ablation switch for the benchmarks): positive and negative results are
//! cached per (principal, capability) and invalidated whenever the tables
//! that define membership change.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use moira_common::errors::{MrError, MrResult};
use moira_common::hashtab::HashTable;
use moira_db::{Pred, Relation};
use parking_lot::Mutex;

use crate::ace::{user_in_list, users_id_of};
use crate::schema::{capacls, list, members, users};
use crate::state::{Caller, MoiraState};

/// The §5.5 access cache with hit/miss accounting.
///
/// Interior-mutable so access checks work against a shared `&MoiraState`:
/// the read tier of the server dispatches retrieves under a shared lock, and
/// ACL decisions (a cache write at worst) must not require `&mut` state.
pub struct AccessCache {
    entries: Mutex<Entries>,
    /// Whether caching is active (ablation switch).
    enabled: AtomicBool,
    /// Cache hits served.
    hits: AtomicU64,
    /// Lookups that had to compute.
    misses: AtomicU64,
}

/// The cached decisions, `(generation, allowed)` by `principal` `\u{1}`
/// `capability`, and the buffer every lookup builds its key in, so a hit
/// allocates nothing.
#[derive(Default)]
struct Entries {
    table: HashTable<(u64, bool)>,
    key: String,
}

impl AccessCache {
    /// Creates an enabled, empty cache.
    pub fn new() -> Self {
        AccessCache {
            entries: Mutex::new(Entries::default()),
            enabled: AtomicBool::new(true),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Turns caching on or off (ablation switch).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether caching is active.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Cache hits served.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::SeqCst)
    }

    /// Lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::SeqCst)
    }

    /// Runs `f` on the table and the key of `(principal, capability)`.
    fn keyed<R>(
        &self,
        principal: &str,
        capability: &str,
        f: impl FnOnce(&mut HashTable<(u64, bool)>, &str) -> R,
    ) -> R {
        let mut entries = self.entries.lock();
        let Entries { table, key } = &mut *entries;
        key.clear();
        key.push_str(principal);
        key.push('\u{1}');
        key.push_str(capability);
        f(table, key)
    }

    fn get(&self, principal: &str, capability: &str, generation: u64) -> Option<bool> {
        if !self.enabled() {
            return None;
        }
        match self.keyed(principal, capability, |table, key| {
            table.lookup(key).copied()
        }) {
            Some((gen, allowed)) if gen == generation => {
                self.hits.fetch_add(1, Ordering::SeqCst);
                Some(allowed)
            }
            _ => None,
        }
    }

    fn put(&self, principal: &str, capability: &str, generation: u64, allowed: bool) {
        self.misses.fetch_add(1, Ordering::SeqCst);
        if self.enabled() {
            self.keyed(principal, capability, |table, key| {
                table.store(key, (generation, allowed));
            });
        }
    }

    /// Drops every cached decision.
    pub fn flush(&self) {
        self.entries.lock().table.clear();
    }
}

impl Default for AccessCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The membership-defining generation: any append/update/delete to the
/// relations that feed ACL decisions invalidates cached results.
fn acl_generation(state: &MoiraState) -> u64 {
    [list::R::ID, members::R::ID, capacls::R::ID, users::R::ID]
        .iter()
        .map(|&t| state.db.at(t).generation())
        .sum()
}

/// Checks whether `caller` may exercise `capability` (a query name or
/// pseudo-query like `trigger_dcm`), consulting CAPACLS.
///
/// Rules, in order: privileged principals always pass; unauthenticated
/// callers always fail; a capability whose ACL is the `everybody` list
/// admits any authenticated principal; otherwise the caller must be a
/// direct or recursive member of some list the capability is tied to.
pub fn caller_has_capability(state: &MoiraState, caller: &Caller, capability: &str) -> bool {
    if caller.is_privileged() {
        return true;
    }
    let Some(principal) = caller.principal.as_deref() else {
        return false;
    };
    let generation = acl_generation(state);
    if let Some(hit) = state.access_cache.get(principal, capability, generation) {
        return hit;
    }
    let allowed = compute_capability(state, principal, capability);
    state
        .access_cache
        .put(principal, capability, generation, allowed);
    allowed
}

fn compute_capability(state: &MoiraState, principal: &str, capability: &str) -> bool {
    let caps = state.db.table(capacls::T);
    let rows = caps.select(&Pred::Eq(capacls::CAPABILITY, capability.into()));
    if rows.is_empty() {
        return false;
    }
    let Ok(users_id) = users_id_of(&state.db, principal) else {
        return false;
    };
    for r in rows.into_iter().filter_map(|row| caps.row(row).ok()) {
        let list_id = r.get(capacls::LIST_ID);
        // The "list containing everybody" admits any authenticated user.
        let lists = state.db.table(list::T);
        if let Some(lr) = lists.find(&Pred::Eq(list::LIST_ID, list_id.into())) {
            if lr.get(list::NAME) == "everybody" {
                return true;
            }
        }
        if user_in_list(&state.db, users_id, list_id) {
            return true;
        }
    }
    false
}

/// The registry-level access decision for a query, per its
/// [`crate::registry::AccessRule`]. Returns `MR_PERM` when denied.
pub fn enforce(
    state: &MoiraState,
    caller: &Caller,
    rule: crate::registry::AccessRule,
    query_name: &str,
    args: &[String],
) -> MrResult<()> {
    use crate::registry::AccessRule;
    match rule {
        AccessRule::Public => Ok(()),
        AccessRule::Custom => Ok(()),
        AccessRule::QueryAcl => {
            if caller_has_capability(state, caller, query_name) {
                Ok(())
            } else {
                Err(MrError::Perm)
            }
        }
        AccessRule::QueryAclOrSelf(arg_index) => {
            if caller_has_capability(state, caller, query_name) {
                return Ok(());
            }
            match (caller.principal.as_deref(), args.get(arg_index)) {
                (Some(p), Some(target)) if p == target => Ok(()),
                _ => Err(MrError::Perm),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queries::testutil::{add_test_list, add_test_user, state_with_admin};

    #[test]
    fn privileged_bypasses_everything() {
        let s = MoiraState::new(moira_common::VClock::new());
        assert!(caller_has_capability(
            &s,
            &Caller::root("dcm"),
            "anything_at_all"
        ));
    }

    #[test]
    fn anonymous_denied() {
        let s = MoiraState::new(moira_common::VClock::new());
        assert!(!caller_has_capability(
            &s,
            &Caller::anonymous("x"),
            "add_user"
        ));
    }

    #[test]
    fn membership_grants_capability() {
        let (mut s, _) = state_with_admin("ops");
        assert!(caller_has_capability(
            &s,
            &Caller::new("ops", "t"),
            "add_user"
        ));
        add_test_user(&mut s, "rando", 7777);
        assert!(!caller_has_capability(
            &s,
            &Caller::new("rando", "t"),
            "add_user"
        ));
    }

    #[test]
    fn everybody_list_admits_any_principal() {
        let (mut s, _) = state_with_admin("ops");
        add_test_user(&mut s, "rando", 7777);
        // get_machine's capability is tied to `everybody` by the seed.
        assert!(caller_has_capability(
            &s,
            &Caller::new("rando", "t"),
            "get_machine"
        ));
    }

    #[test]
    fn cache_hits_and_invalidation() {
        let (mut s, admin_list) = state_with_admin("ops");
        let caller = Caller::new("ops", "t");
        caller_has_capability(&s, &caller, "add_user");
        let misses_before = s.access_cache.misses();
        assert!(caller_has_capability(&s, &caller, "add_user"));
        assert_eq!(
            s.access_cache.misses(),
            misses_before,
            "second check was cached"
        );
        assert!(s.access_cache.hits() >= 1);
        // Mutating membership invalidates.
        let uid = add_test_user(&mut s, "newbie", 7878);
        s.db.append(
            members::T,
            vec![admin_list.into(), "USER".into(), uid.into()],
        )
        .unwrap();
        let hits_before = s.access_cache.hits();
        assert!(caller_has_capability(&s, &caller, "add_user"));
        assert_eq!(
            s.access_cache.hits(),
            hits_before,
            "generation changed, recomputed"
        );
    }

    #[test]
    fn cache_disable_ablation() {
        let (s, _) = state_with_admin("ops");
        s.access_cache.set_enabled(false);
        let caller = Caller::new("ops", "t");
        caller_has_capability(&s, &caller, "add_user");
        caller_has_capability(&s, &caller, "add_user");
        assert_eq!(s.access_cache.hits(), 0);
        assert_eq!(s.access_cache.misses(), 2);
    }

    #[test]
    fn self_rule() {
        let (mut s, _) = state_with_admin("ops");
        add_test_user(&mut s, "babette", 6530);
        let rule = crate::registry::AccessRule::QueryAclOrSelf(0);
        let me = Caller::new("babette", "chsh");
        assert!(enforce(&s, &me, rule, "update_user_shell", &["babette".into()]).is_ok());
        assert_eq!(
            enforce(&s, &me, rule, "update_user_shell", &["other".into()]),
            Err(MrError::Perm)
        );
    }

    #[test]
    fn nested_list_membership_grants() {
        let (mut s, admin_list) = state_with_admin("ops");
        let sub = add_test_list(&mut s, "sub-ops", false);
        let uid = add_test_user(&mut s, "deputy", 7900);
        s.db.append(members::T, vec![sub.into(), "USER".into(), uid.into()])
            .unwrap();
        s.db.append(
            members::T,
            vec![admin_list.into(), "LIST".into(), sub.into()],
        )
        .unwrap();
        assert!(caller_has_capability(
            &s,
            &Caller::new("deputy", "t"),
            "add_user"
        ));
    }
}
