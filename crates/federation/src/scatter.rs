//! Replica-aware scatter calls with failover, and the helpers that run
//! a scatter's legs.
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
//! `LegPool::scatter` runs one such call per target shard. A one-leg
//! scatter (a pruned key lookup, a one-shard fleet) runs on the calling
//! thread. A wider one runs its legs *concurrently*, on the caller and
//! the service's long-lived `LegHelpers`, so query latency tracks the
//! slowest shard, not the sum of all of them, and a single overloaded
//! shard backing off does not stall the gather of its siblings — with
//! no thread spawned per query. [`call_replica`] is the all-replica
//! fan-out's unit: one fixed replica, transient failures retried on the
//! policy's schedule (failing over is not an option when *every*
//! replica must apply the operation).

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use dais_soap::retry::{is_retryable, overload_origin, retry_after_hint, OverloadOrigin};
use dais_soap::{Bus, BusError, CallError, RetryConfig, ServiceClient};
use dais_util::sync::{Condvar, Mutex};

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

/// The long-lived threads that run scatter legs beside the caller.
///
/// A [`FederationService`](crate::FederationService) starts `shards − 1`
/// of them at launch. Each adopts itself into the bus workers'
/// inline-dispatch discipline
/// ([`dais_soap::executor::adopt_worker_thread`]) before its first leg:
/// the scattering handler blocks until its legs are in, so letting their
/// nested shard calls queue behind the same finite executor pool could
/// deadlock the pool on itself. Dropping the `LegHelpers` stops and
/// joins the threads; a [`LegPool`] that outlives them still scatters,
/// with the caller running every leg.
pub(crate) struct LegHelpers {
    pool: LegPool,
    threads: Vec<JoinHandle<()>>,
}

impl LegHelpers {
    /// Start `count` helper threads. A thread the OS refuses is simply
    /// not there: the caller runs the leg it would have taken.
    pub(crate) fn start(count: usize) -> LegHelpers {
        let pool = LegPool(Arc::new(Pool {
            state: Mutex::new(PoolState { offers: VecDeque::new(), idle: 0, closed: false }),
            wake: Condvar::new(),
        }));
        let threads: Vec<JoinHandle<()>> = (0..count)
            .filter_map(|i| {
                let pool = pool.0.clone();
                std::thread::Builder::new()
                    .name(format!("fed-leg-{i}"))
                    .spawn(move || helper_loop(&pool))
                    .ok()
            })
            .collect();
        pool.0.state.lock().idle = threads.len();
        LegHelpers { pool, threads }
    }

    /// The handle a handler scatters through.
    pub(crate) fn pool(&self) -> LegPool {
        self.pool.clone()
    }
}

impl Drop for LegHelpers {
    fn drop(&mut self) {
        self.pool.0.state.lock().closed = true;
        self.pool.0.wake.notify_all();
        let me = std::thread::current().id();
        for thread in self.threads.drain(..) {
            if thread.thread().id() != me {
                let _ = thread.join();
            }
        }
    }
}

/// A scatter handle over a [`LegHelpers`]' threads. Cheap to clone.
#[derive(Clone)]
pub(crate) struct LegPool(Arc<Pool>);

struct Pool {
    state: Mutex<PoolState>,
    wake: Condvar,
}

struct PoolState {
    /// Scatters offered to idle helpers: one entry per reserved helper.
    offers: VecDeque<Arc<dyn Legs>>,
    /// Helpers neither running a scatter's legs nor reserved by an offer.
    idle: usize,
    closed: bool,
}

fn helper_loop(pool: &Pool) {
    dais_soap::executor::adopt_worker_thread();
    let mut state = pool.state.lock();
    loop {
        if let Some(legs) = state.offers.pop_front() {
            drop(state);
            legs.run_legs();
            drop(legs);
            state = pool.state.lock();
            state.idle += 1;
        } else if state.closed {
            return;
        } else {
            state = pool.wake.wait(state);
        }
    }
}

/// One scatter's legs, claimable by any thread that holds it.
trait Legs: Send + Sync {
    /// Claim and run legs until none is left unclaimed.
    fn run_legs(&self);
}

struct Scatter<R, F> {
    first: usize,
    count: usize,
    /// The next unclaimed leg.
    cursor: AtomicUsize,
    work: F,
    gathered: Mutex<Vec<(usize, std::thread::Result<R>)>>,
    all_in: Condvar,
}

impl<R: Send, F: Fn(usize) -> R + Send + Sync> Legs for Scatter<R, F> {
    fn run_legs(&self) {
        loop {
            // Relaxed: the cursor only hands out indices. The legs' inputs
            // reach a helper through the pool lock, and their results come
            // back under `gathered`.
            let leg = self.cursor.fetch_add(1, Ordering::Relaxed);
            if leg >= self.count {
                return;
            }
            let out = catch_unwind(AssertUnwindSafe(|| (self.work)(self.first + leg)));
            let mut gathered = self.gathered.lock();
            gathered.push((leg, out));
            if gathered.len() == self.count {
                self.all_in.notify_all();
            }
        }
    }
}

impl LegPool {
    /// Run `work(shard)` for every shard in `shards` and gather the
    /// results in shard order.
    ///
    /// One leg runs on the calling thread. More run "caller-runs": the
    /// caller offers the scatter to as many idle helpers as there are
    /// legs beyond its own, then it and they each claim the next
    /// unclaimed leg from one cursor until none is left. A leg therefore
    /// never waits behind another query's leg: with every helper busy,
    /// the caller runs every leg itself, so concurrent and nested
    /// scatters cannot deadlock. `work` owns its inputs (`'static`), so
    /// a leg still running on a helper borrows nothing from the caller.
    /// A panic in a leg is re-raised on the caller once every claimed
    /// leg is in; the helper that ran it lives on.
    pub(crate) fn scatter<R, F>(&self, shards: Range<usize>, work: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        let count = shards.len();
        if count <= 1 {
            return shards.map(work).collect();
        }
        let scatter = Arc::new(Scatter {
            first: shards.start,
            count,
            cursor: AtomicUsize::new(0),
            work,
            gathered: Mutex::new(Vec::with_capacity(count)),
            all_in: Condvar::new(),
        });
        self.offer(&(scatter.clone() as Arc<dyn Legs>), count - 1);
        scatter.run_legs();
        let mut gathered = {
            let mut gathered = scatter.gathered.lock();
            while gathered.len() < count {
                gathered = scatter.all_in.wait(gathered);
            }
            std::mem::take(&mut *gathered)
        };
        gathered.sort_unstable_by_key(|(leg, _)| *leg);
        gathered
            .into_iter()
            .map(|(_, out)| out.unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    }

    /// Reserve up to `wanted` idle helpers for `legs` and wake them.
    fn offer(&self, legs: &Arc<dyn Legs>, wanted: usize) {
        let pool = &self.0;
        let mut state = pool.state.lock();
        if state.closed {
            return;
        }
        let reserved = wanted.min(state.idle);
        state.idle -= reserved;
        state.offers.extend(std::iter::repeat_n(legs, reserved).cloned());
        drop(state);
        for _ in 0..reserved {
            pool.wake.notify_one();
        }
    }
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
    use dais_xml::XmlElement;

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
        let helpers = LegHelpers::start(3);
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (counter, high) = (in_flight.clone(), peak.clone());
        let results = helpers.pool().scatter(0..4, move |s| {
            let now = counter.fetch_add(1, Ordering::SeqCst) + 1;
            high.fetch_max(now, Ordering::SeqCst);
            dais_util::sync::pause(Duration::from_millis(20));
            counter.fetch_sub(1, Ordering::SeqCst);
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

    /// A sub-range scatters only its own shards, in order; one leg runs
    /// on the calling thread.
    #[test]
    fn scatter_visits_exactly_its_range() {
        let helpers = LegHelpers::start(3);
        let caller = std::thread::current().id();
        assert_eq!(helpers.pool().scatter(1..3, |s| s), vec![1, 2]);
        assert_eq!(
            helpers.pool().scatter(2..3, move |s| (s, std::thread::current().id() == caller)),
            vec![(2, true)]
        );
        assert!(helpers.pool().scatter(0..0, |s| s).is_empty());
    }

    /// A panicking leg is re-raised on the caller with its own payload,
    /// and the helper that ran it keeps serving. Every leg a helper runs
    /// panics, and the caller's own leg waits until a helper has run
    /// one, so each round panics on a helper: with three helpers, six
    /// rounds complete only if none of them died with its leg.
    #[test]
    fn a_panicking_leg_is_re_raised_on_the_caller_and_the_helpers_live_on() {
        let helpers = LegHelpers::start(3);
        let pool = helpers.pool();
        for round in 0..6 {
            let helper_legs = Arc::new(AtomicUsize::new(0));
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.scatter(0..4, move |s| {
                    let on_helper = std::thread::current()
                        .name()
                        .is_some_and(|name| name.starts_with("fed-leg-"));
                    if on_helper {
                        helper_legs.fetch_add(1, Ordering::SeqCst);
                        panic!("leg {s} blew up");
                    }
                    let deadline = std::time::Instant::now() + Duration::from_secs(10);
                    while helper_legs.load(Ordering::SeqCst) == 0 {
                        assert!(std::time::Instant::now() < deadline, "no helper ran a leg");
                        dais_util::sync::pause(Duration::from_millis(1));
                    }
                    s
                })
            }));
            let payload = caught.expect_err("a helper's panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(message.contains("blew up"), "round {round}: got {message:?}");
        }
        assert_eq!(pool.scatter(0..4, |s| s * 2), vec![0, 2, 4, 6]);
    }

    /// Eight callers scatter at once over three helpers, several times
    /// each: the helpers are saturated, so most legs run on their own
    /// callers, and every scatter still completes with every leg.
    #[test]
    fn concurrent_callers_over_saturated_helpers_all_complete() {
        let helpers = LegHelpers::start(3);
        let callers: Vec<_> = (0..8)
            .map(|c| {
                let pool = helpers.pool();
                std::thread::spawn(move || {
                    for round in 0..20 {
                        let got = pool.scatter(0..4, move |s| {
                            dais_util::sync::pause(Duration::from_micros(200));
                            c * 1000 + round * 10 + s
                        });
                        let want: Vec<usize> = (0..4).map(|s| c * 1000 + round * 10 + s).collect();
                        assert_eq!(got, want);
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("every caller completes");
        }
    }

    /// A leg that itself scatters over the same pool (a federation over
    /// federations) cannot deadlock it: the nested caller runs whatever
    /// no helper is free to take.
    #[test]
    fn nested_scatters_over_one_pool_complete() {
        let helpers = LegHelpers::start(2);
        let inner = helpers.pool();
        let got = helpers.pool().scatter(0..3, move |s| inner.scatter(0..3, move |t| s * 3 + t));
        assert_eq!(got, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]]);
    }

    /// Once its helpers are gone a pool still scatters: the caller runs
    /// every leg.
    #[test]
    fn a_pool_outliving_its_helpers_runs_every_leg_on_the_caller() {
        let helpers = LegHelpers::start(3);
        let pool = helpers.pool();
        drop(helpers);
        let caller = std::thread::current().id();
        let ran_here = pool.scatter(0..4, move |_| std::thread::current().id() == caller);
        assert_eq!(ran_here, vec![true; 4]);
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
