//! Replica-aware scatter calls with failover.
//!
//! [`call_shard`] is the one way the federation talks to a shard: it
//! sweeps the shard's replicas in router-preferred order, fails over
//! *immediately* (no sleep) when a replica itself reports hot — the
//! idle sibling answers now — and only backs off between sweeps, by the
//! max of the server's `retry_after` hint and the policy's own
//! exponential schedule. Replica health feeds back into the
//! [`ShardRouter`] so later calls skip known-bad
//! replicas until their half-open probe budget elapses.
//!
//! [`scatter_shards`] runs one such call per shard *concurrently* on
//! scoped threads, so query latency tracks the slowest shard, not the
//! sum of all of them — and a single overloaded shard backing off does
//! not stall the gather of its siblings. [`call_replica`] is the
//! all-replica fan-out's unit: one fixed replica, transient failures
//! retried on the policy's schedule (failing over is not an option when
//! *every* replica must apply the operation).

use std::time::Duration;

use dais_soap::retry::{is_retryable, overload_origin, retry_after_hint, OverloadOrigin};
use dais_soap::{Bus, BusError, CallError, RetryConfig, ServiceClient};

use crate::router::ShardRouter;

/// Call one shard through whichever replica answers.
///
/// `call` receives a [`ServiceClient`] bound to a replica's endpoint and
/// that replica's index (callers resolve per-replica abstract names with
/// it). Outcomes per error class:
///
/// * **replica-origin `Overloaded`** — that replica is hot: mark it
///   down, remember the pacing hint, and try the next candidate *now*.
/// * **upstream-origin `Overloaded`** — no sibling would fare better:
///   end the sweep and back off.
/// * **other retryable** (timeout, lost connection, `ServiceBusy`,
///   `DataResourceUnavailable`) — mark the replica down, next candidate.
/// * **non-retryable** — returned to the caller unchanged.
///
/// Between sweeps the wait is `max(retry_after hint, backoff schedule)`,
/// exactly like the single-endpoint retry loop. Every send after the
/// first is billed as a retry to the replica it goes to.
pub fn call_shard<T>(
    bus: &Bus,
    router: &ShardRouter,
    shard: usize,
    retry: &RetryConfig,
    mut call: impl FnMut(&ServiceClient, usize) -> Result<T, CallError>,
) -> Result<T, CallError> {
    let attempts = retry.policy.max_attempts.max(1);
    let mut last_err: Option<CallError> = None;
    fn note_hint(h: Option<Duration>, hint: &mut Option<Duration>) {
        if let Some(h) = h {
            *hint = Some(hint.map_or(h, |cur| cur.max(h)));
        }
    }
    let mut sent = false;
    for attempt in 1..=attempts {
        let mut hint: Option<Duration> = None;
        for r in router.candidates(shard) {
            let replica = router.replica(shard, r);
            let address = replica.endpoint_address();
            if std::mem::replace(&mut sent, true) {
                bus.record_retry(&address);
            }
            let client = ServiceClient::new(bus.clone(), &*address);
            match call(&client, r) {
                Ok(v) => {
                    router.mark_success(shard, r);
                    return Ok(v);
                }
                Err(e) => match overload_origin(&e, &address) {
                    Some((OverloadOrigin::Replica, after)) => {
                        router.mark_failure(shard, r);
                        note_hint(Some(after), &mut hint);
                        last_err = Some(e);
                    }
                    Some((OverloadOrigin::Upstream, after)) => {
                        note_hint(Some(after), &mut hint);
                        last_err = Some(e);
                        break;
                    }
                    None if is_retryable(&e) => {
                        router.mark_failure(shard, r);
                        note_hint(retry_after_hint(&e), &mut hint);
                        last_err = Some(e);
                    }
                    None => return Err(e),
                },
            }
        }
        if attempt < attempts {
            let delay = hint.unwrap_or(Duration::ZERO).max(retry.policy.backoff_delay(attempt));
            if delay > Duration::ZERO {
                retry.sleep(delay);
            }
        }
    }
    Err(last_err.unwrap_or_else(|| {
        CallError::Transport(BusError::Timeout(router.replica(shard, 0).endpoint_address()))
    }))
}

/// Run `work(shard)` for every shard concurrently and gather the
/// results in shard order.
///
/// Each shard runs on a scoped thread adopted into the bus workers'
/// inline-dispatch discipline ([`dais_soap::executor::adopt_worker_thread`]):
/// the spawning handler blocks joining the scatter, so letting the
/// nested shard calls queue behind the same finite executor pool could
/// deadlock the pool on itself. A single shard short-circuits the
/// spawning entirely — the 1-shard oracle topology stays truly inline.
pub fn scatter_shards<T, E>(
    shards: usize,
    work: impl Fn(usize) -> Result<T, E> + Sync,
) -> Vec<Result<T, E>>
where
    T: Send,
    E: Send,
{
    if shards <= 1 {
        return (0..shards).map(&work).collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move || {
                    dais_soap::executor::adopt_worker_thread();
                    work(shard)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// Call one *fixed* replica, retrying transient failures on the
/// policy's schedule (waiting out `max(retry_after hint, backoff)`
/// between attempts) before giving up.
///
/// This is the unit of the all-replica factory fan-out, where failover
/// is not an answer: every replica must apply the operation itself, so
/// a transient timeout must be retried against the same replica rather
/// than permanently costing the derived resource that replica's slot.
/// Non-retryable errors return immediately; each re-send is billed as
/// a retry.
pub fn call_replica<T>(
    bus: &Bus,
    address: &str,
    retry: &RetryConfig,
    mut call: impl FnMut(&ServiceClient) -> Result<T, CallError>,
) -> Result<T, CallError> {
    let attempts = retry.policy.max_attempts.max(1);
    let client = ServiceClient::new(bus.clone(), address);
    let mut attempt = 1;
    loop {
        match call(&client) {
            Ok(v) => return Ok(v),
            Err(e) if attempt < attempts && is_retryable(&e) => {
                let delay = retry_after_hint(&e)
                    .unwrap_or(Duration::ZERO)
                    .max(retry.policy.backoff_delay(attempt));
                if delay > Duration::ZERO {
                    retry.sleep(delay);
                }
                bus.record_retry(address);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::ShardScheme;
    use dais_core::ResourceRef;
    use dais_soap::envelope::Envelope;
    use dais_soap::interceptor::{CallInfo, Intercept, Interceptor};
    use dais_soap::{Fault, RetryPolicy, SoapDispatcher};
    use dais_util::sync::Mutex;
    use dais_xml::XmlElement;
    use std::sync::Arc;

    dais_soap::actions! {
        ECHO = "urn:test:echo", Read;
    }
    const TEST_NS: &str = "urn:test:ns";

    fn echo_service(bus: &Bus, address: &str, tag: &str) {
        let mut d = SoapDispatcher::new();
        let tag = tag.to_string();
        d.register(ECHO, move |_req| {
            Ok(Envelope::with_body(XmlElement::new(TEST_NS, "t", "Echo").with_text(tag.clone())))
        });
        bus.register(address, Arc::new(d));
    }

    /// Synthesises `BusError::Overloaded` for chosen endpoints — the
    /// executor-admission error the injector's chaos gates cannot
    /// produce on demand.
    struct HotReplica {
        hot: Mutex<Vec<String>>,
        retry_after: Duration,
    }

    impl Interceptor for HotReplica {
        fn on_request(&self, call: &CallInfo<'_>, _bytes: &[u8]) -> Intercept {
            if self.hot.lock().iter().any(|h| h == call.to) {
                Intercept::Abort(BusError::Overloaded {
                    endpoint: call.to.to_string(),
                    retry_after: self.retry_after,
                })
            } else {
                Intercept::Pass
            }
        }
    }

    fn fed_router(replicas: usize) -> ShardRouter {
        let set = (0..replicas)
            .map(|r| ResourceRef::parse(&format!("dais://fleet/r{r}/urn:dais:r{r}:db:0")).unwrap())
            .collect();
        ShardRouter::new(
            ResourceRef::parse("dais://fed/urn:dais:fed:db:0").unwrap(),
            ShardScheme::Hash { column: "id".into() },
            vec![set],
            11,
            2,
        )
    }

    fn echo_through(client: &ServiceClient) -> Result<String, CallError> {
        let reply = client.request(ECHO, XmlElement::new(TEST_NS, "t", "Echo"))?;
        Ok(reply.text())
    }

    /// The satellite-3 regression: one hot replica, one idle replica.
    /// The hot replica's `Overloaded{retry_after}` must cause an
    /// *immediate* switch to the idle sibling — zero sleeps — instead of
    /// the generic retry loop's back-off.
    #[test]
    fn hot_replica_fails_over_without_sleeping() {
        let bus = Bus::new();
        echo_service(&bus, "bus://fleet/r0", "r0");
        echo_service(&bus, "bus://fleet/r1", "r1");
        let hot = Arc::new(HotReplica {
            hot: Mutex::new(vec!["bus://fleet/r0".into()]),
            retry_after: Duration::from_millis(40),
        });
        bus.add_interceptor(hot.clone());

        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let recorder = slept.clone();
        let policy = RetryConfig::new(RetryPolicy::new(3))
            .with_sleep(Arc::new(move |d| recorder.lock().push(d)));

        let router = fed_router(2);
        // Whichever replica the rotation offers first, the answer must
        // come from the idle one with no sleep in between.
        for _ in 0..4 {
            let got = call_shard(&bus, &router, 0, &policy, |c, _r| echo_through(c)).unwrap();
            assert_eq!(got, "r1");
        }
        assert!(slept.lock().is_empty(), "failover must not back off: {:?}", slept.lock());
        assert!(!router.is_healthy(0, 0), "the hot replica should be marked down");
    }

    /// When *every* replica is hot the loop has nothing to switch to:
    /// it must honour the largest `retry_after` hint between sweeps.
    #[test]
    fn all_replicas_hot_backs_off_with_the_hint() {
        let bus = Bus::new();
        echo_service(&bus, "bus://fleet/r0", "r0");
        echo_service(&bus, "bus://fleet/r1", "r1");
        let hot = Arc::new(HotReplica {
            hot: Mutex::new(vec!["bus://fleet/r0".into(), "bus://fleet/r1".into()]),
            retry_after: Duration::from_millis(25),
        });
        bus.add_interceptor(hot.clone());

        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let recorder = slept.clone();
        let policy = RetryConfig::new(RetryPolicy::new(2))
            .with_sleep(Arc::new(move |d| recorder.lock().push(d)));

        let router = fed_router(2);
        let err = call_shard(&bus, &router, 0, &policy, |c, _r| echo_through(c)).unwrap_err();
        assert!(matches!(err, CallError::Transport(BusError::Overloaded { .. })));
        let slept = slept.lock();
        assert_eq!(slept.len(), 1, "one back-off between the two sweeps");
        assert!(slept[0] >= Duration::from_millis(25), "hint honoured, got {:?}", slept[0]);
    }

    /// Recovery: once the hot replica cools, its half-open probe brings
    /// it back into rotation.
    #[test]
    fn cooled_replica_rejoins_via_half_open_probe() {
        let bus = Bus::new();
        echo_service(&bus, "bus://fleet/r0", "r0");
        echo_service(&bus, "bus://fleet/r1", "r1");
        let hot = Arc::new(HotReplica {
            hot: Mutex::new(vec!["bus://fleet/r0".into()]),
            retry_after: Duration::from_millis(5),
        });
        bus.add_interceptor(hot.clone());

        let policy = RetryConfig::new(RetryPolicy::new(2))
            .with_sleep(Arc::new(|_| panic!("no sleep expected")));
        let router = fed_router(2);
        let _ = call_shard(&bus, &router, 0, &policy, |c, _r| echo_through(c)).unwrap();
        assert!(!router.is_healthy(0, 0));

        hot.hot.lock().clear();
        let mut seen_r0 = false;
        for _ in 0..8 {
            let got = call_shard(&bus, &router, 0, &policy, |c, _r| echo_through(c)).unwrap();
            seen_r0 |= got == "r0";
        }
        assert!(seen_r0, "probed replica should serve again after cooling");
        assert!(router.is_healthy(0, 0));
    }

    /// Synthesises a fixed number of dropped sends (timeouts) for one
    /// endpoint, then lets traffic through — the transient blip a
    /// replica-pinned retry must ride out.
    struct FailFirst {
        endpoint: String,
        remaining: Mutex<u32>,
    }

    impl Interceptor for FailFirst {
        fn on_request(&self, call: &CallInfo<'_>, _bytes: &[u8]) -> Intercept {
            if call.to == self.endpoint {
                let mut remaining = self.remaining.lock();
                if *remaining > 0 {
                    *remaining -= 1;
                    return Intercept::Abort(BusError::Timeout(call.to.to_string()));
                }
            }
            Intercept::Pass
        }
    }

    /// A transient failure of a *fixed* replica retries against that
    /// same replica (failover is not an option when every replica must
    /// apply the operation) and succeeds once the blip passes, pacing
    /// itself on the backoff schedule.
    #[test]
    fn call_replica_rides_out_transient_failures() {
        let bus = Bus::new();
        echo_service(&bus, "bus://fleet/r0", "r0");
        bus.add_interceptor(Arc::new(FailFirst {
            endpoint: "bus://fleet/r0".into(),
            remaining: Mutex::new(2),
        }));

        let slept: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
        let recorder = slept.clone();
        let policy = RetryConfig::new(RetryPolicy::new(3))
            .with_sleep(Arc::new(move |d| recorder.lock().push(d)));

        let got = call_replica(&bus, "bus://fleet/r0", &policy, echo_through).unwrap();
        assert_eq!(got, "r0");
        assert_eq!(slept.lock().len(), 2, "one backoff per failed attempt");
        assert_eq!(bus.endpoint_stats("bus://fleet/r0").retries, 2, "each re-send is a retry");
    }

    /// A failover re-send is a retry, billed to the replica that
    /// receives it: the first candidate drops once, its sibling answers.
    #[test]
    fn call_shard_bills_a_failover_as_one_retry_to_the_replica_that_answered() {
        let bus = Bus::new();
        echo_service(&bus, "bus://fleet/r0", "r0");
        echo_service(&bus, "bus://fleet/r1", "r1");
        // A twin router with the same seed offers the same first candidate.
        let first = fed_router(2).candidates(0)[0];
        let other = 1 - first;
        bus.add_interceptor(Arc::new(FailFirst {
            endpoint: format!("bus://fleet/r{first}"),
            remaining: Mutex::new(1),
        }));
        let policy = RetryConfig::new(RetryPolicy::new(3))
            .with_sleep(Arc::new(|_| panic!("no sleep expected")));

        let router = fed_router(2);
        let got = call_shard(&bus, &router, 0, &policy, |c, _r| echo_through(c)).unwrap();
        assert_eq!(got, format!("r{other}"));
        assert_eq!(bus.endpoint_stats(&format!("bus://fleet/r{other}")).retries, 1);
        assert_eq!(bus.endpoint_stats(&format!("bus://fleet/r{first}")).retries, 0);
        assert_eq!(bus.stats().retries, 1);
    }

    /// Non-retryable errors return immediately — no sleeps, no repeats.
    #[test]
    fn call_replica_surfaces_application_faults_immediately() {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(ECHO, |_req| Err(Fault::client("no such thing")));
        bus.register("bus://fleet/r0", Arc::new(d));

        let policy = RetryConfig::new(RetryPolicy::new(3))
            .with_sleep(Arc::new(|_| panic!("no sleep expected")));
        let err = call_replica(&bus, "bus://fleet/r0", &policy, echo_through).unwrap_err();
        assert!(matches!(err, CallError::Fault(_)), "got {err:?}");
    }

    /// The scatter runs shards concurrently (more than one in flight at
    /// once) and still gathers results in shard order, with a failed
    /// shard's error in its own slot.
    #[test]
    fn scatter_shards_runs_concurrently_and_gathers_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let results = scatter_shards(4, |s| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            dais_util::sync::pause(Duration::from_millis(20));
            in_flight.fetch_sub(1, Ordering::SeqCst);
            if s == 2 {
                Err(format!("shard {s} down"))
            } else {
                Ok(s * 10)
            }
        });
        assert_eq!(
            results,
            vec![Ok(0), Ok(10), Err("shard 2 down".to_string()), Ok(30)],
            "shard order must survive the concurrent gather"
        );
        assert!(
            peak.load(Ordering::SeqCst) > 1,
            "shards must overlap, got peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    /// Non-retryable faults pass through unchanged — failover must not
    /// mask an application error as a busy shard.
    #[test]
    fn non_retryable_faults_surface_immediately() {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(ECHO, |_req| Err(Fault::client("no such thing")));
        bus.register("bus://fleet/r0", Arc::new(d));
        echo_service(&bus, "bus://fleet/r1", "r1");

        let policy = RetryConfig::new(RetryPolicy::new(3))
            .with_sleep(Arc::new(|_| panic!("no sleep expected")));
        let router = fed_router(2);
        // Pin the sweep at r0 by marking r1 down first.
        router.mark_failure(0, 1);
        let err = call_shard(&bus, &router, 0, &policy, |c, _r| echo_through(c)).unwrap_err();
        assert!(matches!(err, CallError::Fault(_)), "got {err:?}");
        assert!(router.is_healthy(0, 0), "an application fault is not a health signal");
    }
}
