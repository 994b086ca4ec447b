//! The `LockManager`'s wait-for deadlock detector: two sessions taking
//! table locks in opposite order must terminate with exactly one of them
//! receiving `MrError::Deadlock` — never by hanging.

use std::sync::{mpsc, Arc, Barrier};
use std::thread;
use std::time::Duration;

use moira_common::errors::MrError;
use moira_db::lock::{LockManager, LockMode};
use parking_lot::Mutex;

/// Deterministic shape first: session `a` holds `table:users` and waits on
/// `table:list`; session `b` holds `table:list` and closes the cycle, so
/// `b` is the victim. `a`'s own wait stays a plain `InUse`.
#[test]
fn opposite_order_table_locks_deadlock_detected() {
    let mut lm = LockManager::new();

    lm.acquire("session-a", "table:users", LockMode::Exclusive)
        .expect("a takes users first");
    lm.acquire("session-b", "table:list", LockMode::Exclusive)
        .expect("b takes list first");

    // a now wants b's table: busy, and a is registered as waiting.
    assert_eq!(
        lm.acquire("session-a", "table:list", LockMode::Exclusive),
        Err(MrError::InUse)
    );
    // b wanting a's table closes the wait-for cycle: detected, not hung.
    assert_eq!(
        lm.acquire("session-b", "table:users", LockMode::Exclusive),
        Err(MrError::Deadlock)
    );

    // The victim backs off; the survivor's retry goes through.
    lm.release_all("session-b");
    lm.acquire("session-a", "table:list", LockMode::Exclusive)
        .expect("survivor proceeds once the victim releases");
    assert!(lm.holds("session-a", "table:users"));
    assert!(lm.holds("session-a", "table:list"));
}

/// The same collision from two real threads, with a watchdog instead of a
/// trust-me comment: both sessions must finish inside the timeout, exactly
/// one as the deadlock victim, and the survivor must end up holding both
/// tables.
#[test]
fn concurrent_sessions_never_hang() {
    let lm = Arc::new(Mutex::new(LockManager::new()));
    let (done_tx, done_rx) = mpsc::channel();
    // Both sessions must hold their first table before either tries the
    // second, or one can win both locks outright and no cycle ever forms.
    let both_hold_first = Arc::new(Barrier::new(2));

    let spawn_session = |owner: &'static str, first: &'static str, second: &'static str| {
        let lm = Arc::clone(&lm);
        let done = done_tx.clone();
        let barrier = Arc::clone(&both_hold_first);
        thread::spawn(move || {
            lm.lock()
                .acquire(owner, first, LockMode::Exclusive)
                .expect("first table is uncontended");
            barrier.wait();
            let victim = loop {
                let got_second = lm.lock().acquire(owner, second, LockMode::Exclusive);
                match got_second {
                    Ok(()) => break false,
                    Err(MrError::Deadlock) => {
                        // The protocol the server follows: the victim drops
                        // everything so the other session can finish.
                        lm.lock().release_all(owner);
                        break true;
                    }
                    // Back off off-mutex: a bare yield can starve the
                    // other session of the manager mutex entirely.
                    #[allow(clippy::disallowed_methods)]
                    Err(_) => thread::sleep(Duration::from_millis(1)),
                }
            };
            done.send((owner, victim)).unwrap();
        })
    };

    let a = spawn_session("session-a", "table:users", "table:list");
    let b = spawn_session("session-b", "table:list", "table:users");

    let mut outcomes = Vec::new();
    for _ in 0..2 {
        let outcome = done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a session hung instead of getting the deadlock error");
        outcomes.push(outcome);
    }
    a.join().unwrap();
    b.join().unwrap();

    let victims: Vec<&str> = outcomes
        .iter()
        .filter(|(_, victim)| *victim)
        .map(|(owner, _)| *owner)
        .collect();
    assert_eq!(victims.len(), 1, "exactly one victim, got {outcomes:?}");

    let survivor = outcomes
        .iter()
        .find(|(_, victim)| !victim)
        .map(|(owner, _)| *owner)
        .unwrap();
    let lm = lm.lock();
    assert!(lm.holds(survivor, "table:users"));
    assert!(lm.holds(survivor, "table:list"));
}
