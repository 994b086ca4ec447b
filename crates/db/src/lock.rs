//! Named shared/exclusive locks with deadlock detection.
//!
//! The DCM locks services and server-hosts (§5.7.1): an exclusive lock on a
//! service while generating files, shared locks during host scans of unique
//! services (exclusive for replicated ones), and an exclusive per-host lock
//! during each update. The database layer can return `MR_DEADLOCK`
//! ("Database deadlock; try again later", §7.1); this lock manager is where
//! that comes from: acquisition conflicts register a wait-for edge, and a
//! cycle in the wait-for graph is reported as deadlock rather than ever
//! blocking.
//!
//! No acquisition ever blocks — a conflict answers `MR_IN_USE` and the
//! caller retries later — so the order in which an owner takes its locks
//! cannot hang it. The one production owner, `"dcm"`, takes a service lock
//! and then its host locks.

use std::collections::{HashMap, HashSet};

use moira_common::errors::{MrError, MrResult};

/// Locking mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Multiple holders allowed.
    Shared,
    /// Single holder, excludes everyone else.
    Exclusive,
}

#[derive(Debug, Default)]
struct LockState {
    exclusive: Option<String>,
    shared: HashSet<String>,
}

impl LockState {
    fn holders(&self) -> impl Iterator<Item = &String> {
        self.exclusive.iter().chain(self.shared.iter())
    }

    fn held_by(&self, owner: &str) -> bool {
        self.exclusive.as_deref() == Some(owner) || self.shared.contains(owner)
    }

    fn is_free_for(&self, owner: &str, mode: LockMode) -> bool {
        match mode {
            LockMode::Shared => {
                self.exclusive.is_none() || self.exclusive.as_deref() == Some(owner)
            }
            LockMode::Exclusive => {
                let others_shared = self.shared.iter().any(|o| o != owner);
                let others_excl = self.exclusive.as_deref().is_some_and(|o| o != owner);
                !others_shared && !others_excl
            }
        }
    }
}

/// The lock manager.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: HashMap<String, LockState>,
    /// `owner -> resource it is waiting for`.
    waits: HashMap<String, String>,
    /// `owner -> clock nanos of its first conflicted attempt`, so a later
    /// successful acquire can report how long the owner spent retrying.
    wait_since: HashMap<String, u64>,
    /// Instrumentation sink; `None` on unwired managers (tests, tools).
    obs: Option<moira_obs::Registry>,
}

impl LockManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a manager reporting wait times and abort counts to `obs`
    /// (`db.lock.wait_ns`, `db.lock.acquired` / `conflicts` / `deadlocks`).
    pub fn with_obs(obs: moira_obs::Registry) -> Self {
        LockManager {
            obs: Some(obs),
            ..Self::default()
        }
    }

    /// Attempts to acquire; returns `Ok(true)` on success, `Ok(false)` if
    /// the resource is busy (no wait is recorded).
    pub fn try_acquire(&mut self, owner: &str, resource: &str, mode: LockMode) -> bool {
        if let Some(state) = self.locks.get(resource) {
            if !state.is_free_for(owner, mode) {
                return false;
            }
        }
        let state = self.locks.entry(resource.to_owned()).or_default();
        match mode {
            LockMode::Shared => {
                if state.exclusive.as_deref() != Some(owner) {
                    state.shared.insert(owner.to_owned());
                }
            }
            LockMode::Exclusive => {
                state.shared.remove(owner);
                state.exclusive = Some(owner.to_owned());
            }
        }
        true
    }

    /// Acquires with deadlock detection.
    ///
    /// On conflict the owner is recorded as waiting for the resource; if
    /// that wait would close a cycle in the wait-for graph the wait is
    /// cancelled and `MR_DEADLOCK` returned, otherwise `MR_IN_USE` is
    /// returned and the caller is expected to retry later (the DCM's "tagged
    /// for retry" behaviour).
    pub fn acquire(&mut self, owner: &str, resource: &str, mode: LockMode) -> MrResult<()> {
        if self.try_acquire(owner, resource, mode) {
            self.waits.remove(owner);
            if let Some(obs) = &self.obs {
                // Wait time is measured from the owner's first conflicted
                // attempt on this acquisition (0 for an uncontended grant).
                let waited = self
                    .wait_since
                    .remove(owner)
                    .map(|since| obs.now_nanos().saturating_sub(since))
                    .unwrap_or(0);
                obs.histogram("db.lock.wait_ns").record(waited);
                obs.counter("db.lock.acquired").inc();
            }
            return Ok(());
        }
        self.waits.insert(owner.to_owned(), resource.to_owned());
        if self.wait_cycle_from(owner) {
            self.waits.remove(owner);
            if let Some(obs) = &self.obs {
                self.wait_since.remove(owner);
                obs.counter("db.lock.deadlocks").inc();
            }
            return Err(MrError::Deadlock);
        }
        if let Some(obs) = &self.obs {
            let now = obs.now_nanos();
            self.wait_since.entry(owner.to_owned()).or_insert(now);
            obs.counter("db.lock.conflicts").inc();
        }
        Err(MrError::InUse)
    }

    fn wait_cycle_from(&self, start: &str) -> bool {
        // Follow owner -> awaited resource -> holders -> their awaited
        // resources; a return to `start` is a cycle.
        let mut frontier = vec![start.to_owned()];
        let mut seen = HashSet::new();
        while let Some(owner) = frontier.pop() {
            let Some(resource) = self.waits.get(&owner) else {
                continue;
            };
            let Some(state) = self.locks.get(resource) else {
                continue;
            };
            for holder in state.holders() {
                if holder == start {
                    return true;
                }
                if seen.insert(holder.clone()) {
                    frontier.push(holder.clone());
                }
            }
        }
        false
    }

    /// Releases one lock held by `owner`.
    pub fn release(&mut self, owner: &str, resource: &str) {
        if let Some(state) = self.locks.get_mut(resource) {
            if state.exclusive.as_deref() == Some(owner) {
                state.exclusive = None;
            }
            state.shared.remove(owner);
        }
        self.waits.remove(owner);
        self.wait_since.remove(owner);
    }

    /// Releases everything `owner` holds or waits for (crash cleanup).
    pub fn release_all(&mut self, owner: &str) {
        for state in self.locks.values_mut() {
            if state.exclusive.as_deref() == Some(owner) {
                state.exclusive = None;
            }
            state.shared.remove(owner);
        }
        self.waits.remove(owner);
        self.wait_since.remove(owner);
    }

    /// True if `owner` currently holds `resource` in any mode.
    pub fn holds(&self, owner: &str, resource: &str) -> bool {
        self.locks.get(resource).is_some_and(|s| s.held_by(owner))
    }

    /// True when nothing is held and nobody is waiting — the clean state
    /// the adversarial connection tests assert after slow-loris, stalled,
    /// or mid-frame-disconnect clients are torn down.
    pub fn is_idle(&self) -> bool {
        self.waits.is_empty()
            && self
                .locks
                .values()
                .all(|s| s.exclusive.is_none() && s.shared.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new();
        assert!(lm.try_acquire("a", "svc:HESIOD", LockMode::Shared));
        assert!(lm.try_acquire("b", "svc:HESIOD", LockMode::Shared));
        assert!(!lm.try_acquire("c", "svc:HESIOD", LockMode::Exclusive));
    }

    #[test]
    fn exclusive_excludes() {
        let mut lm = LockManager::new();
        assert!(lm.try_acquire("a", "r", LockMode::Exclusive));
        assert!(!lm.try_acquire("b", "r", LockMode::Shared));
        assert!(!lm.try_acquire("b", "r", LockMode::Exclusive));
        lm.release("a", "r");
        assert!(lm.try_acquire("b", "r", LockMode::Shared));
    }

    #[test]
    fn reentrant_upgrade_for_sole_holder() {
        let mut lm = LockManager::new();
        assert!(lm.try_acquire("a", "r", LockMode::Shared));
        assert!(lm.try_acquire("a", "r", LockMode::Exclusive));
        assert!(lm.holds("a", "r"));
        assert!(!lm.try_acquire("b", "r", LockMode::Shared));
    }

    #[test]
    fn upgrade_blocked_by_other_sharer() {
        let mut lm = LockManager::new();
        lm.try_acquire("a", "r", LockMode::Shared);
        lm.try_acquire("b", "r", LockMode::Shared);
        assert!(!lm.try_acquire("a", "r", LockMode::Exclusive));
    }

    #[test]
    fn busy_is_in_use() {
        let mut lm = LockManager::new();
        lm.acquire("a", "r", LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire("b", "r", LockMode::Exclusive),
            Err(MrError::InUse)
        );
    }

    #[test]
    fn two_party_deadlock_detected() {
        let mut lm = LockManager::new();
        lm.acquire("a", "r1", LockMode::Exclusive).unwrap();
        lm.acquire("b", "r2", LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire("a", "r2", LockMode::Exclusive),
            Err(MrError::InUse)
        );
        // b waiting on r1 (held by a, which waits on r2 held by b) closes
        // the cycle.
        assert_eq!(
            lm.acquire("b", "r1", LockMode::Exclusive),
            Err(MrError::Deadlock)
        );
    }

    #[test]
    fn three_party_deadlock_detected() {
        let mut lm = LockManager::new();
        lm.acquire("a", "r1", LockMode::Exclusive).unwrap();
        lm.acquire("b", "r2", LockMode::Exclusive).unwrap();
        lm.acquire("c", "r3", LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire("a", "r2", LockMode::Exclusive),
            Err(MrError::InUse)
        );
        assert_eq!(
            lm.acquire("b", "r3", LockMode::Exclusive),
            Err(MrError::InUse)
        );
        assert_eq!(
            lm.acquire("c", "r1", LockMode::Exclusive),
            Err(MrError::Deadlock)
        );
    }

    #[test]
    fn successful_acquire_clears_wait() {
        let mut lm = LockManager::new();
        lm.acquire("a", "r", LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire("b", "r", LockMode::Exclusive),
            Err(MrError::InUse)
        );
        lm.release("a", "r");
        lm.acquire("b", "r", LockMode::Exclusive).unwrap();
        assert!(lm.holds("b", "r"));
    }

    #[test]
    fn obs_reports_waits_and_deadlocks() {
        let obs = moira_obs::Registry::new();
        let clock = moira_common::clock::VClock::new();
        obs.set_virtual_clock(clock.clone());
        let mut lm = LockManager::with_obs(obs.clone());
        lm.acquire("a", "r", LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire("b", "r", LockMode::Exclusive),
            Err(MrError::InUse)
        );
        clock.advance(3);
        lm.release("a", "r");
        lm.acquire("b", "r", LockMode::Exclusive).unwrap();
        // Opposite-order acquisition closes a deadlock cycle.
        lm.acquire("a", "r2", LockMode::Exclusive).unwrap();
        assert_eq!(
            lm.acquire("b", "r2", LockMode::Exclusive),
            Err(MrError::InUse)
        );
        assert_eq!(
            lm.acquire("a", "r", LockMode::Exclusive),
            Err(MrError::Deadlock)
        );
        let snap = obs.snapshot();
        assert_eq!(snap.counter("db.lock.acquired"), 3);
        assert_eq!(snap.counter("db.lock.conflicts"), 2);
        assert_eq!(snap.counter("db.lock.deadlocks"), 1);
        let waits = snap.histogram("db.lock.wait_ns").expect("wait histogram");
        assert_eq!(waits.count, 3);
        // b's grant waited the 3 virtual seconds between its conflicted
        // attempt and the release.
        assert_eq!(waits.max, 3_000_000_000);
    }

    #[test]
    fn release_all_cleans_up() {
        let mut lm = LockManager::new();
        lm.acquire("dcm", "svc:NFS", LockMode::Exclusive).unwrap();
        lm.acquire("dcm", "host:CHARON", LockMode::Exclusive)
            .unwrap();
        lm.release_all("dcm");
        assert!(!lm.holds("dcm", "svc:NFS"));
        assert!(lm.try_acquire("other", "host:CHARON", LockMode::Exclusive));
    }
}
