//! Property-based tests of the retry layer's backoff schedule, driven
//! by the in-repo mini property harness (`dais_util::prop`); failing
//! cases print a replay seed.
//!
//! The invariants under test, for *arbitrary* policies:
//! * a client never sends more than `max_attempts` times;
//! * pauses are monotone non-decreasing and never exceed `max_delay`;
//! * the pauses actually slept sum to at most `deadline`.

use dais_soap::envelope::Envelope;
use dais_soap::fault::{DaisFault, Fault};
use dais_soap::retry::{RetryConfig, RetryPolicy};
use dais_soap::service::SoapDispatcher;
use dais_soap::{Bus, ServiceClient};
use dais_util::prop::{run_cases, Gen};
use dais_util::sync::Mutex;
use dais_xml::XmlElement;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod actions {
    dais_soap::actions! {
        READ = "urn:read", Read;
    }
}

fn arb_policy(g: &mut Gen) -> RetryPolicy {
    RetryPolicy::new(g.u64_in(1, 12) as u32)
        .base_delay(Duration::from_nanos(g.u64_in(0, 2_000_000_000)))
        .max_delay(Duration::from_nanos(g.u64_in(0, 4_000_000_000)))
        .deadline(Duration::from_nanos(g.u64_in(0, 8_000_000_000)))
        .jitter_seed(g.rng().next_u64())
}

/// An always-busy service plus a counter of how often it was reached.
fn busy_bus() -> (Bus, Arc<AtomicU32>) {
    let bus = Bus::new();
    let hits = Arc::new(AtomicU32::new(0));
    let mut d = SoapDispatcher::new();
    let h = hits.clone();
    d.register(actions::READ, move |_: &Envelope| {
        h.fetch_add(1, Ordering::SeqCst);
        Err(Fault::dais(DaisFault::ServiceBusy, "always busy"))
    });
    bus.register("bus://busy", Arc::new(d));
    (bus, hits)
}

/// A client whose sleeps are recorded instead of slept.
fn recording_client(bus: Bus, policy: RetryPolicy) -> (ServiceClient, Arc<Mutex<Vec<Duration>>>) {
    let sleeps: Arc<Mutex<Vec<Duration>>> = Arc::default();
    let recorder = sleeps.clone();
    let config = RetryConfig::new(policy).with_sleep(Arc::new(move |d| recorder.lock().push(d)));
    (ServiceClient::new(bus, "bus://busy").with_retry(config), sleeps)
}

#[test]
fn schedule_is_monotone_and_capped_for_arbitrary_policies() {
    run_cases("schedule_monotone_capped", 256, 0x5C4E, |g| {
        let policy = arb_policy(g);
        let schedule = policy.backoff_schedule();
        assert_eq!(schedule.len(), policy.max_attempts as usize - 1);
        for pair in schedule.windows(2) {
            assert!(pair[1] >= pair[0], "{policy:?}: {schedule:?} not monotone");
        }
        for d in &schedule {
            assert!(*d <= policy.max_delay, "{policy:?}: pause {d:?} above cap");
        }
    });
}

#[test]
fn schedule_survives_extreme_parameters() {
    // Hand-picked corners the random sweep may miss: saturating growth,
    // zero base, zero cap, one attempt.
    for policy in [
        RetryPolicy::new(200).base_delay(Duration::from_secs(10_000)),
        RetryPolicy::new(64).base_delay(Duration::from_nanos(1)).max_delay(Duration::MAX),
        RetryPolicy::new(8).base_delay(Duration::ZERO),
        RetryPolicy::new(8).max_delay(Duration::ZERO),
        RetryPolicy::new(1),
    ] {
        let schedule = policy.backoff_schedule();
        for pair in schedule.windows(2) {
            assert!(pair[1] >= pair[0], "{policy:?}: {schedule:?} not monotone");
        }
        for d in &schedule {
            assert!(*d <= policy.max_delay);
        }
    }
}

#[test]
fn attempts_never_exceed_the_policy_maximum() {
    run_cases("attempts_bounded", 48, 0xA77E, |g| {
        let policy = arb_policy(g);
        let (bus, hits) = busy_bus();
        let (client, sleeps) = recording_client(bus.clone(), policy);
        client.request(actions::READ, XmlElement::new_local("q")).unwrap_err();
        let attempts = hits.load(Ordering::SeqCst);
        assert!(attempts >= 1);
        assert!(attempts <= policy.max_attempts, "{policy:?}: {attempts} attempts");
        // One pause per re-send, and the bus agrees on the re-send count.
        assert_eq!(sleeps.lock().len() as u32, attempts - 1);
        assert_eq!(bus.stats().retries, u64::from(attempts) - 1);
    });
}

#[test]
fn total_sleep_stays_within_the_deadline() {
    run_cases("deadline_budget", 48, 0xDEAD, |g| {
        let policy = arb_policy(g);
        let (bus, _) = busy_bus();
        let (client, sleeps) = recording_client(bus, policy);
        client.request(actions::READ, XmlElement::new_local("q")).unwrap_err();
        let total: Duration = sleeps.lock().iter().sum();
        assert!(total <= policy.deadline, "{policy:?}: slept {total:?}");
    });
}

#[test]
fn equal_policies_sleep_identically() {
    run_cases("schedule_deterministic", 24, 0x1DE0, |g| {
        let policy = arb_policy(g);
        let observe = || {
            let (bus, _) = busy_bus();
            let (client, sleeps) = recording_client(bus, policy);
            client.request(actions::READ, XmlElement::new_local("q")).unwrap_err();
            let v = sleeps.lock().clone();
            v
        };
        assert_eq!(observe(), observe());
    });
}
