//! The unified retry/backoff policy for soft update failures.
//!
//! The paper is terse about retry timing — soft failures are "tagged for
//! retry at a later time" (§5.7.1) — which in the original meant *every*
//! DCM pass retried every soft-failed host. Against a host that stays down
//! for a weekend that is a retry storm: a connection attempt every cron
//! interval, forever. This module centralizes the policy:
//!
//! - the **first** soft failure is retried on the very next pass (a host
//!   that blips recovers at full speed, as the paper intends);
//! - from the **second consecutive** failure on, retries back off
//!   exponentially (`base · 2^(n-2)`, capped) with deterministic jitter so
//!   a rack of hosts lost together does not thunder back together;
//! - after `escalate_after` consecutive soft failures the failure is
//!   *escalated*: treated like a hard error (operator notification via
//!   Zephyr and mail, `hosterror` set) so a silently dead host cannot hide
//!   behind soft-retry bookkeeping forever;
//! - each DCM pass attempts at most `per_run_budget` *re*-tries per
//!   service, so a mass outage cannot starve first-time updates.
//!
//! All state lives in a [`RetryBook`] keyed by `(service, host)`; the
//! serverhosts `override` bit bypasses the gate entirely (an operator
//! asking for an immediate push gets one).

use std::collections::HashMap;

/// Tunable knobs of the retry policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Backoff delay after the second consecutive soft failure, seconds.
    pub base_secs: i64,
    /// Ceiling on the backoff delay, seconds.
    pub max_secs: i64,
    /// Jitter added to each delay, as a fraction of the delay (`0.25` adds
    /// up to 25%). Deterministic per `(host, attempt)`.
    pub jitter_frac: f64,
    /// Consecutive soft failures before escalation to a hard error.
    pub escalate_after: u32,
    /// Maximum retried hosts attempted per service per DCM pass.
    pub per_run_budget: usize,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base_secs: 900,
            max_secs: 6 * 3600,
            jitter_frac: 0.25,
            escalate_after: 8,
            per_run_budget: usize::MAX,
        }
    }
}

/// Per-`(service, host)` retry state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryState {
    /// Soft failures since the last success (or operator reset).
    pub consecutive_soft: u32,
    /// Earliest virtual time the next retry may be attempted.
    pub next_retry_at: i64,
    /// Soft failures recorded over this entry's lifetime.
    pub total_failures: u64,
}

/// What recording a soft failure decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftOutcome {
    /// Keep the failure soft; retry no earlier than `delay_secs` from now.
    Backoff {
        /// Which consecutive failure this was (1 = first).
        attempt: u32,
        /// Seconds until the retry gate reopens (0 = next pass).
        delay_secs: i64,
    },
    /// The failure streak crossed `escalate_after`: report it like a hard
    /// error and stop retrying until an operator intervenes.
    Escalate {
        /// Length of the streak that triggered escalation.
        consecutive: u32,
    },
}

/// SplitMix64 finalizer — a stateless integer hash good enough for jitter.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The DCM's ledger of soft-failure streaks.
#[derive(Debug, Default)]
pub struct RetryBook {
    policy: RetryPolicy,
    entries: HashMap<(String, String), RetryState>,
}

impl RetryBook {
    /// A book applying `policy`.
    pub fn new(policy: RetryPolicy) -> RetryBook {
        RetryBook {
            policy,
            entries: HashMap::new(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Replaces the policy (existing streaks keep their scheduled times).
    pub fn set_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// The recorded state for one `(service, host)`, if any failure streak
    /// is open.
    pub fn state(&self, service: &str, host: &str) -> Option<RetryState> {
        self.entries
            .get(&(service.to_owned(), host.to_owned()))
            .copied()
    }

    /// True if this `(service, host)` is an open retry (has failed at least
    /// once since its last success).
    pub fn is_retry(&self, service: &str, host: &str) -> bool {
        self.state(service, host).is_some()
    }

    /// True if an update of `host` may be attempted at virtual time `now`.
    /// Hosts with no open streak are always ready.
    pub fn ready(&self, service: &str, host: &str, now: i64) -> bool {
        match self.state(service, host) {
            None => true,
            Some(state) => now >= state.next_retry_at,
        }
    }

    /// Records a confirmed success, closing any open streak.
    pub fn record_success(&mut self, service: &str, host: &str) {
        self.entries.remove(&(service.to_owned(), host.to_owned()));
    }

    /// Clears an open streak without a success — the operator-reset path
    /// (`reset_server_host_error` gives the host a fresh start).
    pub fn reset(&mut self, service: &str, host: &str) {
        self.record_success(service, host);
    }

    /// Records one soft failure at virtual time `now` and decides whether
    /// to back off or escalate. On escalation the streak is cleared: the
    /// host is now gated by `hosterror`, and an operator reset restarts it
    /// from a clean slate.
    pub fn record_soft_failure(&mut self, service: &str, host: &str, now: i64) -> SoftOutcome {
        let key = (service.to_owned(), host.to_owned());
        let attempt = {
            let state = self.entries.entry(key.clone()).or_default();
            state.consecutive_soft += 1;
            state.total_failures += 1;
            state.consecutive_soft
        };
        if attempt >= self.policy.escalate_after {
            self.entries.remove(&key);
            return SoftOutcome::Escalate {
                consecutive: attempt,
            };
        }
        let delay_secs = self.delay_for(host, attempt);
        let state = self.entries.get_mut(&key).expect("just inserted");
        state.next_retry_at = now + delay_secs;
        SoftOutcome::Backoff {
            attempt,
            delay_secs,
        }
    }

    /// The backoff delay before retry `attempt + 1`: zero after the first
    /// failure, then `base · 2^(n-2)` capped at `max`, plus deterministic
    /// jitter derived from the host name and attempt number.
    fn delay_for(&self, host: &str, attempt: u32) -> i64 {
        if attempt <= 1 {
            return 0;
        }
        let exp = (attempt - 2).min(32);
        let raw = self.policy.base_secs.saturating_mul(1i64 << exp);
        let capped = raw.min(self.policy.max_secs);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in host.as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let roll = splitmix(h ^ u64::from(attempt));
        let jitter_span = (capped as f64 * self.policy.jitter_frac) as i64;
        let jitter = if jitter_span > 0 {
            (roll % (jitter_span as u64 + 1)) as i64
        } else {
            0
        };
        capped + jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_policy() -> RetryPolicy {
        RetryPolicy {
            base_secs: 100,
            max_secs: 800,
            jitter_frac: 0.0,
            escalate_after: 4,
            per_run_budget: usize::MAX,
        }
    }

    #[test]
    fn first_failure_retries_immediately() {
        let mut book = RetryBook::new(quick_policy());
        assert!(book.ready("HESIOD", "KIWI.MIT.EDU", 0));
        let outcome = book.record_soft_failure("HESIOD", "KIWI.MIT.EDU", 1000);
        assert_eq!(
            outcome,
            SoftOutcome::Backoff {
                attempt: 1,
                delay_secs: 0
            }
        );
        // The very next pass may retry: a transient blip costs nothing.
        assert!(book.ready("HESIOD", "KIWI.MIT.EDU", 1000));
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let mut book = RetryBook::new(quick_policy());
        let mut delays = Vec::new();
        for i in 0..3 {
            match book.record_soft_failure("HESIOD", "H", 1000 + i) {
                SoftOutcome::Backoff { delay_secs, .. } => delays.push(delay_secs),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(delays, vec![0, 100, 200]);
        // A longer streak under a higher escalation threshold hits the cap.
        let mut book = RetryBook::new(RetryPolicy {
            escalate_after: 20,
            ..quick_policy()
        });
        let mut last = 0;
        for i in 0..10 {
            if let SoftOutcome::Backoff { delay_secs, .. } =
                book.record_soft_failure("HESIOD", "H", i)
            {
                last = delay_secs;
            }
        }
        assert_eq!(last, 800, "capped at max_secs");
    }

    #[test]
    fn gate_blocks_until_delay_elapses() {
        let mut book = RetryBook::new(quick_policy());
        book.record_soft_failure("HESIOD", "H", 1000);
        match book.record_soft_failure("HESIOD", "H", 1000) {
            SoftOutcome::Backoff { delay_secs, .. } => assert_eq!(delay_secs, 100),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!book.ready("HESIOD", "H", 1050));
        assert!(book.ready("HESIOD", "H", 1100));
    }

    #[test]
    fn success_resets_the_streak() {
        let mut book = RetryBook::new(quick_policy());
        for i in 0..3 {
            book.record_soft_failure("HESIOD", "H", i);
        }
        book.record_success("HESIOD", "H");
        assert!(!book.is_retry("HESIOD", "H"));
        // The streak restarts from the immediate-retry state.
        assert_eq!(
            book.record_soft_failure("HESIOD", "H", 50),
            SoftOutcome::Backoff {
                attempt: 1,
                delay_secs: 0
            }
        );
    }

    #[test]
    fn escalates_after_threshold_and_clears() {
        let mut book = RetryBook::new(quick_policy());
        let mut outcome = None;
        for i in 0..4 {
            outcome = Some(book.record_soft_failure("HESIOD", "H", i));
        }
        assert_eq!(outcome, Some(SoftOutcome::Escalate { consecutive: 4 }));
        // Escalation hands the gate to `hosterror`; the book forgets, so an
        // operator reset starts a fresh streak.
        assert!(!book.is_retry("HESIOD", "H"));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            jitter_frac: 0.25,
            escalate_after: 20,
            ..quick_policy()
        };
        let delays: Vec<Vec<i64>> = (0..2)
            .map(|_| {
                let mut book = RetryBook::new(policy);
                (0..5)
                    .filter_map(|i| match book.record_soft_failure("NFS", "OZ", i) {
                        SoftOutcome::Backoff { delay_secs, .. } => Some(delay_secs),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        assert_eq!(delays[0], delays[1], "same inputs, same schedule");
        for (i, &d) in delays[0].iter().enumerate().skip(1) {
            let base = 100i64 << (i - 1).min(3);
            let capped = base.min(800);
            assert!(
                d >= capped && d <= capped + capped / 4,
                "attempt {}: {d} outside [{capped}, {}]",
                i + 1,
                capped + capped / 4
            );
        }
        // Different hosts land on different offsets (the anti-thundering
        // herd property) at least somewhere in the schedule.
        let mut other = RetryBook::new(policy);
        let other_delays: Vec<i64> = (0..5)
            .filter_map(|i| match other.record_soft_failure("NFS", "DOROTHY", i) {
                SoftOutcome::Backoff { delay_secs, .. } => Some(delay_secs),
                _ => None,
            })
            .collect();
        assert_ne!(delays[0], other_delays);
    }
}
