//! Client-side retry with deterministic exponential backoff.
//!
//! A [`RetryPolicy`] bounds how hard a consumer leans on a flaky
//! transport: at most `max_attempts` sends, exponentially growing
//! pauses between them (with deterministic jitter, so a seeded run
//! replays exactly), and a hard ceiling on the *total* time spent
//! sleeping. The [`ServiceClient`](crate::client::ServiceClient) applies
//! the policy only to actions whose [`Access`](crate::action::Access) is
//! `Read` — re-sending a property read is safe, re-sending an insert is
//! not — and bills every re-send to
//! [`BusStats::retries`](crate::bus::BusStats).

use crate::bus::BusError;
use crate::client::CallError;
use crate::fault::DaisFault;
use dais_util::rng::mix2;
use dais_util::sync::pause;
use std::sync::Arc;
use std::time::Duration;

/// How a client paces re-sends of a failed idempotent request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total sends, first attempt included (minimum 1).
    pub max_attempts: u32,
    /// Pause after the first failure; later pauses double from here.
    pub base_delay: Duration,
    /// Ceiling on any single pause.
    pub max_delay: Duration,
    /// Ceiling on the *sum* of pauses — once the budget cannot cover the
    /// next pause, the client gives up and returns the last error.
    pub deadline: Duration,
    /// Seed for jitter; the full backoff schedule is a pure function of
    /// the policy, so equal policies retry identically.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A policy with sensible defaults for `max_attempts` sends.
    pub fn new(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(5),
            deadline: Duration::from_secs(30),
            jitter_seed: 0,
        }
    }

    /// Never retry.
    pub fn none() -> RetryPolicy {
        RetryPolicy::new(1)
    }

    pub fn base_delay(mut self, d: Duration) -> Self {
        self.base_delay = d;
        self
    }

    pub fn max_delay(mut self, d: Duration) -> Self {
        self.max_delay = d;
        self
    }

    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = d;
        self
    }

    pub fn jitter_seed(mut self, seed: u64) -> Self {
        self.jitter_seed = seed;
        self
    }

    /// The pause after failed attempt `attempt` (1-based). The schedule
    /// is monotone non-decreasing: the raw delay doubles each step while
    /// jitter stays below half the raw delay, and the cap is applied
    /// after jitter, so `delay(k+1) >= delay(k)` for any parameters.
    pub fn backoff_delay(&self, attempt: u32) -> Duration {
        let attempt = attempt.max(1);
        let base = self.base_delay.as_nanos().min(u64::MAX as u128) as u64;
        let raw = (u128::from(base) << (attempt - 1).min(64)).min(u128::from(u64::MAX)) as u64;
        let span = raw / 2;
        let jitter = if span == 0 { 0 } else { mix2(self.jitter_seed, u64::from(attempt)) % span };
        let capped = raw
            .saturating_add(jitter)
            .min(self.max_delay.as_nanos().min(u128::from(u64::MAX)) as u64);
        Duration::from_nanos(capped)
    }

    /// The whole pause schedule (one entry per possible retry).
    pub fn backoff_schedule(&self) -> Vec<Duration> {
        (1..self.max_attempts).map(|k| self.backoff_delay(k)).collect()
    }
}

/// How the client sleeps between attempts — injectable so tests retry
/// without wall-clock cost.
pub type SleepFn = Arc<dyn Fn(Duration) + Send + Sync>;

/// A policy plus the sleep mechanism.
#[derive(Clone)]
pub struct RetryConfig {
    pub policy: RetryPolicy,
    sleep: SleepFn,
}

impl RetryConfig {
    pub fn new(policy: RetryPolicy) -> RetryConfig {
        RetryConfig { policy, sleep: Arc::new(pause) }
    }

    /// Replace the sleeper (tests pass a recorder; the default
    /// [`pause`] blocks the calling thread).
    pub fn with_sleep(mut self, sleep: SleepFn) -> RetryConfig {
        self.sleep = sleep;
        self
    }

    /// Wait out a backoff through the configured sleeper. Debug builds
    /// assert first that no lock guard is held, so an injected recorder
    /// catches a guard across a backoff just as the real sleep would.
    pub fn sleep(&self, d: Duration) {
        #[cfg(debug_assertions)]
        dais_util::lockorder::assert_no_guard_held("a retry backoff");
        (self.sleep)(d)
    }
}

impl std::fmt::Debug for RetryConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryConfig").field("policy", &self.policy).finish_non_exhaustive()
    }
}

/// Whether an error is worth re-sending the same request for: transient
/// transport loss and the WS-DAI "try again later" faults qualify;
/// everything else (bad requests, missing endpoints, application
/// faults) will fail identically on a re-send.
pub fn is_retryable(error: &CallError) -> bool {
    match error {
        CallError::Transport(BusError::Timeout(_))
        | CallError::Transport(BusError::MalformedEnvelope(_))
        | CallError::Transport(BusError::Overloaded { .. })
        | CallError::Transport(BusError::ConnectionLost(_)) => true,
        CallError::Transport(BusError::NoSuchEndpoint(_)) => false,
        CallError::Fault(f) => {
            f.is(DaisFault::ServiceBusy) || f.is(DaisFault::DataResourceUnavailable)
        }
        CallError::UnexpectedResponse(_) => false,
    }
}

/// The server-supplied pacing hint carried by an error, if any. An
/// [`Overloaded`](BusError::Overloaded) refusal names the earliest
/// moment a re-send could be admitted; the retry loop takes the *max*
/// of this hint and its own backoff schedule, so a shed never re-sends
/// sooner than the executor asked for.
pub fn retry_after_hint(error: &CallError) -> Option<Duration> {
    match error {
        CallError::Transport(BusError::Overloaded { retry_after, .. }) => Some(*retry_after),
        _ => None,
    }
}

/// Where an `Overloaded{retry_after}` refusal originated relative to
/// the endpoint the caller addressed. A generic retry loop treats every
/// overload the same way — back off — but a replica-aware router wants
/// to distinguish *this replica is hot* (switch to a sibling now, no
/// sleep) from *admission upstream of the replica shed the request*
/// (backing off is all there is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadOrigin {
    /// The shed names the endpoint the caller addressed: the replica
    /// itself refused. Prefer failing over to a sibling replica.
    Replica,
    /// The shed names some other endpoint — admission upstream of the
    /// addressed replica (e.g. the federation endpoint's own executor).
    /// No sibling replica would fare better; honour the pacing hint.
    Upstream,
}

/// Classify an `Overloaded` error against the endpoint the caller
/// addressed; `None` for every other error. This is what lets the
/// federation failover loop prefer switching replica over backing off
/// (the "one hot replica, one idle replica" case) while still honouring
/// `retry_after` when the whole shard is hot.
pub fn overload_origin(error: &CallError, addressed: &str) -> Option<(OverloadOrigin, Duration)> {
    match error {
        CallError::Transport(BusError::Overloaded { endpoint, retry_after }) => {
            let origin = if endpoint == addressed {
                OverloadOrigin::Replica
            } else {
                OverloadOrigin::Upstream
            };
            Some((origin, *retry_after))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::new(6)
            .base_delay(Duration::from_millis(10))
            .max_delay(Duration::from_millis(55))
            .jitter_seed(7);
        let schedule = p.backoff_schedule();
        assert_eq!(schedule.len(), 5);
        for pair in schedule.windows(2) {
            assert!(pair[1] >= pair[0], "{schedule:?} not monotone");
        }
        for d in &schedule {
            assert!(*d <= Duration::from_millis(55));
        }
        // First pause: raw 10ms plus jitter below 5ms.
        assert!(schedule[0] >= Duration::from_millis(10));
        assert!(schedule[0] < Duration::from_millis(15));
        assert_eq!(*schedule.last().unwrap(), Duration::from_millis(55));
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_policy() {
        let p = RetryPolicy::new(8).jitter_seed(0xFEED);
        assert_eq!(p.backoff_schedule(), p.backoff_schedule());
        let q = p.jitter_seed(0xBEEF);
        assert_ne!(p.backoff_schedule(), q.backoff_schedule());
    }

    #[test]
    fn zero_base_delay_never_sleeps() {
        let p = RetryPolicy::new(5).base_delay(Duration::ZERO);
        assert!(p.backoff_schedule().iter().all(|d| d.is_zero()));
    }

    #[test]
    fn retryable_classification() {
        assert!(is_retryable(&CallError::Transport(BusError::Timeout("t".into()))));
        assert!(is_retryable(&CallError::Transport(BusError::MalformedEnvelope("m".into()))));
        assert!(!is_retryable(&CallError::Transport(BusError::NoSuchEndpoint("e".into()))));
        assert!(is_retryable(&CallError::Transport(BusError::ConnectionLost("c".into()))));
        assert!(is_retryable(&CallError::Fault(Fault::dais(DaisFault::ServiceBusy, "b"))));
        assert!(is_retryable(&CallError::Fault(Fault::dais(
            DaisFault::DataResourceUnavailable,
            "u"
        ))));
        assert!(!is_retryable(&CallError::Fault(Fault::dais(DaisFault::InvalidExpression, "x"))));
        assert!(!is_retryable(&CallError::Fault(Fault::client("c"))));
        assert!(!is_retryable(&CallError::UnexpectedResponse("r".into())));
    }

    #[test]
    fn overload_origin_distinguishes_replica_from_upstream() {
        let hot = CallError::Transport(BusError::Overloaded {
            endpoint: "bus://fleet/shard/0/r0".into(),
            retry_after: Duration::from_millis(25),
        });
        assert_eq!(
            overload_origin(&hot, "bus://fleet/shard/0/r0"),
            Some((OverloadOrigin::Replica, Duration::from_millis(25)))
        );
        assert_eq!(
            overload_origin(&hot, "bus://fleet/shard/0/r1"),
            Some((OverloadOrigin::Upstream, Duration::from_millis(25)))
        );
        assert_eq!(
            overload_origin(&CallError::Transport(BusError::Timeout("t".into())), "bus://x"),
            None
        );
        assert_eq!(overload_origin(&CallError::Fault(Fault::client("c")), "bus://x"), None);
    }
}
