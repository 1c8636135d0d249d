//! The sharded bus executor: a bounded worker pool behind [`Bus::call`].
//!
//! With no executor installed the bus keeps its seed behaviour — every
//! call executes inline on the caller's thread ([`ExecMode::Inline`]).
//! Installing a [`BusExecutor`] ([`Bus::install_executor`]) switches the
//! bus to [`ExecMode::Queued`]: requests are admitted to **bounded
//! per-endpoint MPMC work queues** and executed by N worker threads, so
//! many consumers keep requests in flight at once and an overloaded
//! endpoint sheds work instead of melting.
//!
//! Admission control has two knobs, both per endpoint:
//!
//! * `queue_capacity` bounds the waiting room. A submit against a full
//!   queue is refused with [`BusError::Overloaded`] — carrying a
//!   retry-after hint the retry layer folds into its backoff — and
//!   billed to the `shed` counter.
//! * `max_in_flight` caps concurrent executions: workers leave an
//!   endpoint's queue untouched while that many of its requests are
//!   already running, so one hot endpoint cannot monopolise the pool.
//!
//! Endpoints are hashed onto shards (each with its own lock, condvar
//! and queue map) by a seeded hash; workers are assigned round-robin to
//! shards and pick among their shard's eligible queues with a
//! per-worker seeded RNG. With one worker the whole schedule is a pure
//! function of the seed, which is what the deterministic tests lean on.
//!
//! A nested call — a service handler calling back into the bus while
//! running on a worker — always executes inline on that worker thread:
//! queueing it could starve a finite pool into deadlock (every worker
//! blocked waiting for a job only another worker could run).

use crate::bus::{Bus, BusError, BusInner, Endpoint};
use crate::envelope::Envelope;
use crate::fault::Fault;
use crate::interceptor::Interceptor;
use dais_obs::names::{event_names, span_names};
use dais_obs::TraceContext;
use dais_util::pool::PooledBuf;
use dais_util::rng::{mix2, SplitMix64};
use dais_util::sync::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a completed exchange resolves to: the serialised reply
/// envelope, or the fault it carried.
pub type ExchangeOutcome = Result<Result<PooledBuf, Fault>, BusError>;

/// How a bus executes requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// No executor installed: every call runs on the caller's thread.
    Inline,
    /// An executor is installed: calls go through its bounded queues.
    Queued,
}

/// Admission-control and scheduling knobs for a [`BusExecutor`]. All
/// zero/empty values are normalised up to 1 at install time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorConfig {
    /// Worker threads pulling from the queues.
    pub workers: usize,
    /// Queue-map shards (each with its own lock). `0` derives one shard
    /// per two workers, so every shard has multiple consumers.
    pub shards: usize,
    /// Per-endpoint bound on queued (not yet executing) requests; a
    /// submit beyond it sheds with [`BusError::Overloaded`].
    pub queue_capacity: usize,
    /// Per-endpoint cap on concurrently *executing* requests.
    pub max_in_flight: usize,
    /// The retry-after hint carried by [`BusError::Overloaded`].
    pub retry_after: Duration,
    /// Seed for shard assignment and worker scheduling; equal seeds
    /// give equal schedules for a serial caller.
    pub seed: u64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            workers: 4,
            shards: 0,
            queue_capacity: 64,
            max_in_flight: 16,
            retry_after: Duration::from_micros(500),
            seed: 0,
        }
    }
}

impl ExecutorConfig {
    /// A default configuration with `workers` worker threads.
    pub fn new(workers: usize) -> ExecutorConfig {
        ExecutorConfig { workers, ..ExecutorConfig::default() }
    }

    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.queue_capacity = n;
        self
    }

    pub fn max_in_flight(mut self, n: usize) -> Self {
        self.max_in_flight = n;
        self
    }

    pub fn retry_after(mut self, d: Duration) -> Self {
        self.retry_after = d;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn normalised(mut self) -> Self {
        self.workers = self.workers.max(1);
        if self.shards == 0 {
            self.shards = (self.workers / 2).max(1);
        }
        self.shards = self.shards.min(self.workers).max(1);
        self.queue_capacity = self.queue_capacity.max(1);
        self.max_in_flight = self.max_in_flight.max(1);
        self
    }
}

// ---------------------------------------------------------------------------
// Reply slots and the Pending handle
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Slot {
    outcome: Mutex<Option<ExchangeOutcome>>,
    cv: Condvar,
}

impl Slot {
    fn fulfil(&self, outcome: ExchangeOutcome) {
        *self.outcome.lock() = Some(outcome);
        self.cv.notify_all();
    }
}

/// A request in flight. Every admitted request's handle resolves
/// eventually: executed by a worker, or failed with
/// [`BusError::Timeout`] when the executor shuts down first. What it
/// resolves to is the exchange's reply *bytes*: a waiter that wants a
/// tree ([`wait`](Self::wait)) parses them on its own thread, so a
/// worker never builds a tree its caller may not need and a pipelining
/// caller's parse overlaps the workers' next exchanges.
pub struct Pending(State);

enum State {
    /// Executed inline: resolved before the handle existed.
    Ready(ExchangeOutcome),
    Queued(Arc<Slot>),
}

impl std::fmt::Debug for Pending {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pending").field("ready", &self.is_ready()).finish()
    }
}

impl Pending {
    pub(crate) fn ready(outcome: ExchangeOutcome) -> Pending {
        Pending(State::Ready(outcome))
    }

    fn unresolved() -> (Pending, Arc<Slot>) {
        let slot = Arc::new(Slot::default());
        (Pending(State::Queued(Arc::clone(&slot))), slot)
    }

    /// Has the exchange finished? Never blocks.
    pub fn is_ready(&self) -> bool {
        match &self.0 {
            State::Ready(_) => true,
            State::Queued(slot) => slot.outcome.lock().is_some(),
        }
    }

    /// Block until the exchange finishes and take the reply bytes.
    pub fn wait_bytes(self) -> ExchangeOutcome {
        let slot = match self.0 {
            State::Ready(outcome) => return outcome,
            State::Queued(slot) => slot,
        };
        #[cfg(debug_assertions)]
        dais_util::lockorder::assert_no_guard_held("a queued reply wait");
        let mut guard = slot.outcome.lock();
        loop {
            if let Some(outcome) = guard.take() {
                return outcome;
            }
            guard = slot.cv.wait(guard);
        }
    }

    /// Block until the exchange finishes and parse the reply envelope —
    /// exactly what [`Bus::call`] returns.
    #[allow(clippy::type_complexity)]
    pub fn wait(self) -> Result<Result<Envelope, Fault>, BusError> {
        match self.wait_bytes()? {
            Ok(bytes) => Envelope::from_bytes(&bytes)
                .map(Ok)
                .map_err(|e| BusError::MalformedEnvelope(e.to_string())),
            Err(fault) => Ok(Err(fault)),
        }
    }
}

// ---------------------------------------------------------------------------
// Work queues
// ---------------------------------------------------------------------------

struct Job {
    endpoint: Endpoint,
    chain: Arc<Vec<Arc<dyn Interceptor>>>,
    to: String,
    action: String,
    request: Envelope,
    /// The `bus.enqueue` span's context; the worker's `bus.execute`
    /// span joins the trace through it.
    enqueue_ctx: Option<TraceContext>,
    enqueued_at: Instant,
    slot: Arc<Slot>,
}

#[derive(Default)]
struct EndpointQueue {
    jobs: VecDeque<Job>,
    executing: usize,
}

#[derive(Default)]
struct ShardState {
    queues: BTreeMap<String, EndpointQueue>,
}

#[derive(Default)]
struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

struct ExecShared {
    config: ExecutorConfig,
    shards: Vec<Shard>,
    shutdown: AtomicBool,
}

impl ExecShared {
    fn shard_of(&self, to: &str) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        to.hash(&mut h);
        (mix2(self.config.seed, h.finish()) % self.shards.len() as u64) as usize
    }
}

/// The worker pool. Owned by the bus it serves; workers hold a `Weak`
/// back-reference so dropping the last bus handle tears everything
/// down instead of leaking a keep-alive cycle.
pub struct BusExecutor {
    shared: Arc<ExecShared>,
    bus: Weak<BusInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl BusExecutor {
    /// Spawn the worker pool.
    pub(crate) fn start(config: ExecutorConfig, bus: Weak<BusInner>) -> BusExecutor {
        let config = config.normalised();
        let shards = (0..config.shards).map(|_| Shard::default()).collect();
        let shared = Arc::new(ExecShared { config, shards, shutdown: AtomicBool::new(false) });
        let workers = (0..config.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let bus = bus.clone();
                std::thread::spawn(move || worker_loop(shared, bus, w))
            })
            .collect();
        BusExecutor { shared, bus, workers: Mutex::new(workers) }
    }

    /// The normalised configuration the pool runs with.
    pub(crate) fn config(&self) -> ExecutorConfig {
        self.shared.config
    }

    /// Admit one request to its endpoint's queue. Returns the pending
    /// handle and the queue depth after admission, or hands the
    /// endpoint back with the refusal so the caller can bill the shed.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    pub(crate) fn submit(
        &self,
        bus: &Bus,
        endpoint: Endpoint,
        chain: Arc<Vec<Arc<dyn Interceptor>>>,
        to: &str,
        action: &str,
        request: &Envelope,
        enqueue_ctx: Option<TraceContext>,
    ) -> Result<(Pending, usize), (Endpoint, BusError)> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            let err = BusError::Timeout(format!("executor shut down; request to '{to}' refused"));
            return Err((endpoint, err));
        }
        let shard = &self.shared.shards[self.shared.shard_of(to)];
        let mut state = shard.state.lock();
        let queue = state.queues.entry(to.to_string()).or_default();
        if queue.jobs.len() >= self.shared.config.queue_capacity {
            bus.obs().journal.event_ctx(
                event_names::QUEUE_SHED,
                enqueue_ctx,
                queue.jobs.len() as u64,
            );
            let err = BusError::Overloaded {
                endpoint: to.to_string(),
                retry_after: self.shared.config.retry_after,
            };
            return Err((endpoint, err));
        }
        let (pending, slot) = Pending::unresolved();
        // Gauges move under the shard lock (dequeues do too), so the
        // depth counters can never transiently underflow.
        endpoint.stats().record_enqueued();
        bus.total_stats().record_enqueued();
        queue.jobs.push_back(Job {
            endpoint,
            chain,
            to: to.to_string(),
            action: action.to_string(),
            request: request.clone(),
            enqueue_ctx,
            enqueued_at: Instant::now(),
            slot,
        });
        let depth = queue.jobs.len();
        bus.obs().journal.event_ctx(event_names::QUEUE_ENQUEUE, enqueue_ctx, depth as u64);
        shard.cv.notify_one();
        Ok((pending, depth))
    }

    /// Stop the pool: signal shutdown, join every worker (except the
    /// calling thread, when a worker itself triggered the teardown),
    /// then fail whatever was still queued so no waiter blocks forever.
    pub(crate) fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for shard in &self.shared.shards {
            shard.cv.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock());
        let me = std::thread::current().id();
        for handle in handles {
            if handle.thread().id() == me {
                continue;
            }
            let _ = handle.join();
        }
        let total = self.bus.upgrade();
        for shard in &self.shared.shards {
            let queues = std::mem::take(&mut shard.state.lock().queues);
            for (_, queue) in queues {
                for job in queue.jobs {
                    job.endpoint.stats().record_dequeued();
                    if let Some(inner) = &total {
                        Bus::from_inner(Arc::clone(inner)).total_stats().record_dequeued();
                    }
                    job.slot.fulfil(Err(BusError::Timeout(format!(
                        "executor shut down before the request to '{}' was executed",
                        job.to
                    ))));
                }
            }
        }
    }
}

impl Drop for BusExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Worker threads
// ---------------------------------------------------------------------------

thread_local! {
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Is the current thread a bus-executor worker? Nested calls from a
/// worker execute inline (see the module docs).
pub(crate) fn on_worker_thread() -> bool {
    ON_WORKER.with(Cell::get)
}

/// Mark the current thread as a worker without it belonging to an
/// executor pool. Transport server connection threads set this so a
/// service handler that calls back into the bus runs inline instead of
/// queueing — the same starvation-avoidance rule the pool's own workers
/// follow.
pub(crate) fn mark_worker_thread() {
    ON_WORKER.with(|w| w.set(true));
}

/// Adopt the calling thread into the workers' inline-dispatch
/// discipline: bus calls made from it execute on this thread instead of
/// queueing onto the executor. A service handler that fans work out to
/// helper threads (e.g. a scatter over shards) must call this at the top
/// of each helper — the handler blocks joining them, so letting their
/// nested calls queue behind a finite worker pool could deadlock the
/// pool on itself.
pub fn adopt_worker_thread() {
    mark_worker_thread();
}

fn worker_loop(shared: Arc<ExecShared>, bus: Weak<BusInner>, worker_idx: usize) {
    ON_WORKER.with(|w| w.set(true));
    let mut rng = SplitMix64::new(mix2(shared.config.seed, worker_idx as u64 + 1));
    let shard = &shared.shards[worker_idx % shared.shards.len()];
    loop {
        let job = {
            let mut state = shard.state.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(job) = pick_job(&mut state, &mut rng, shared.config.max_in_flight) {
                    // Leaving the queue: move the depth gauges while
                    // still holding the shard lock.
                    job.endpoint.stats().record_dequeued();
                    if let Some(inner) = bus.upgrade() {
                        Bus::from_inner(inner).total_stats().record_dequeued();
                    }
                    break job;
                }
                // Timed wait doubles as liveness: if every bus handle is
                // gone the weak upgrade fails and the worker retires.
                state = shard.cv.wait_timeout(state, Duration::from_millis(50)).0;
                if bus.strong_count() == 0 {
                    return;
                }
            }
        };
        execute(&bus, shard, job);
    }
}

/// Pick the next job in this shard: among endpoints with queued work
/// and spare in-flight budget, chosen by the worker's seeded RNG.
fn pick_job(state: &mut ShardState, rng: &mut SplitMix64, max_in_flight: usize) -> Option<Job> {
    let eligible: Vec<String> = state
        .queues
        .iter()
        .filter(|(_, q)| !q.jobs.is_empty() && q.executing < max_in_flight)
        .map(|(addr, _)| addr.clone())
        .collect();
    if eligible.is_empty() {
        return None;
    }
    let pick = rng.gen_range(0, eligible.len() as u64) as usize;
    let queue = state.queues.get_mut(&eligible[pick])?;
    let job = queue.jobs.pop_front()?;
    queue.executing += 1;
    Some(job)
}

/// Run one job through the single exchange path, resolve its handle,
/// and release the endpoint's in-flight budget.
fn execute(bus: &Weak<BusInner>, shard: &Shard, job: Job) {
    let outcome = match bus.upgrade() {
        Some(inner) => {
            let bus = Bus::from_inner(inner);
            let tracer = &bus.obs().tracer;
            let wait_ns = job.enqueued_at.elapsed().as_nanos() as u64;
            bus.obs().journal.event_ctx(event_names::QUEUE_DEQUEUE, job.enqueue_ctx, wait_ns);
            let mut span = tracer.child_span(span_names::BUS_EXECUTE, job.enqueue_ctx);
            if span.is_recording() {
                span.attr("to", &job.to);
                span.attr("action", &job.action);
                span.attr("queue_wait_ns", wait_ns);
            }
            bus.perform(&job.endpoint, &job.chain, &job.to, &job.action, &job.request, &mut span)
        }
        None => Err(BusError::Timeout(format!(
            "bus dropped before the request to '{}' was executed",
            job.to
        ))),
    };
    job.slot.fulfil(outcome);
    {
        let mut state = shard.state.lock();
        if let Some(queue) = state.queues.get_mut(&job.to) {
            queue.executing = queue.executing.saturating_sub(1);
        }
    }
    // An endpoint may have been waiting on its in-flight budget; every
    // worker on the shard gets a chance to re-scan.
    shard.cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SoapDispatcher;
    use dais_xml::XmlElement;
    use std::sync::atomic::AtomicU32;

    mod actions {
        crate::actions! {
            ECHO = "urn:echo", Read;
            BLOCK = "urn:block", Read;
            RELAY = "urn:relay", Read;
        }
    }

    fn echo_bus() -> Bus {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
        bus.register("bus://svc", Arc::new(d));
        bus
    }

    fn env(text: &str) -> Envelope {
        Envelope::with_body(XmlElement::new_local("m").with_text(text))
    }

    #[test]
    fn queued_call_round_trips_like_inline() {
        let bus = echo_bus();
        assert_eq!(bus.exec_mode(), ExecMode::Inline);
        bus.install_executor(ExecutorConfig::new(2).seed(7));
        assert_eq!(bus.exec_mode(), ExecMode::Queued);
        let out = bus.call("bus://svc", "urn:echo", &env("queued")).unwrap().unwrap();
        assert_eq!(out, env("queued"));
        let s = bus.stats();
        assert_eq!(s.messages, 1);
        assert_eq!(s.queue_peak, 1);
        assert_eq!(s.queue_depth, 0);
        bus.shutdown_executor();
        assert_eq!(bus.exec_mode(), ExecMode::Inline);
    }

    #[test]
    fn call_async_keeps_many_requests_in_flight() {
        let bus = echo_bus();
        bus.install_executor(ExecutorConfig::new(4).queue_capacity(64).seed(3));
        let pendings: Vec<Pending> = (0..32)
            .map(|i| bus.call_async("bus://svc", "urn:echo", &env(&format!("m{i}"))).unwrap())
            .collect();
        for (i, p) in pendings.into_iter().enumerate() {
            let out = p.wait().unwrap().unwrap();
            assert_eq!(out, env(&format!("m{i}")), "reply order matches submit order");
        }
        assert_eq!(bus.stats().messages, 32);
        bus.shutdown_executor();
    }

    #[test]
    fn call_async_without_executor_resolves_inline() {
        let bus = echo_bus();
        let pending = bus.call_async("bus://svc", "urn:echo", &env("now")).unwrap();
        assert!(pending.is_ready());
        assert_eq!(pending.wait().unwrap().unwrap(), env("now"));
    }

    #[test]
    fn full_queue_sheds_with_retry_after_hint() {
        let bus = Bus::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicU32::new(0));
        let mut d = SoapDispatcher::new();
        {
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            d.register(actions::BLOCK, move |req: &Envelope| {
                entered.fetch_add(1, Ordering::SeqCst);
                let mut open = gate.0.lock();
                while !*open {
                    open = gate.1.wait(open);
                }
                Ok(req.clone())
            });
        }
        bus.register("bus://slow", Arc::new(d));
        let hint = Duration::from_millis(3);
        bus.install_executor(
            ExecutorConfig::new(1).queue_capacity(2).max_in_flight(1).retry_after(hint).seed(1),
        );
        // First request occupies the single worker...
        let first = bus.call_async("bus://slow", "urn:block", &env("a")).unwrap();
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        // ...two more fill the queue to capacity...
        let queued: Vec<Pending> =
            (0..2).map(|_| bus.call_async("bus://slow", "urn:block", &env("b")).unwrap()).collect();
        assert_eq!(bus.endpoint_stats("bus://slow").queue_depth, 2);
        // ...and the next is shed with the configured hint.
        let err = bus.call_async("bus://slow", "urn:block", &env("c")).unwrap_err();
        assert_eq!(err, BusError::Overloaded { endpoint: "bus://slow".into(), retry_after: hint });
        let stats = bus.endpoint_stats("bus://slow");
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.queue_peak, 2);
        // Release the gate: everything admitted completes.
        *gate.0.lock() = true;
        gate.1.notify_all();
        assert!(first.wait().is_ok());
        for p in queued {
            assert!(p.wait().is_ok());
        }
        assert_eq!(bus.endpoint_stats("bus://slow").queue_depth, 0);
        bus.shutdown_executor();
    }

    #[test]
    fn shutdown_fails_undelivered_requests_instead_of_losing_them() {
        let bus = Bus::new();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicU32::new(0));
        let mut d = SoapDispatcher::new();
        {
            let gate = Arc::clone(&gate);
            let entered = Arc::clone(&entered);
            d.register(actions::BLOCK, move |req: &Envelope| {
                entered.fetch_add(1, Ordering::SeqCst);
                let mut open = gate.0.lock();
                while !*open {
                    open = gate.1.wait(open);
                }
                Ok(req.clone())
            });
        }
        bus.register("bus://slow", Arc::new(d));
        bus.install_executor(ExecutorConfig::new(1).queue_capacity(8).max_in_flight(1).seed(2));
        let executing = bus.call_async("bus://slow", "urn:block", &env("x")).unwrap();
        while entered.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let stuck = bus.call_async("bus://slow", "urn:block", &env("y")).unwrap();
        // Shutdown from another thread: it must join the worker, which
        // only finishes once the gate opens.
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                dais_util::sync::pause(Duration::from_millis(20));
                *gate.0.lock() = true;
                gate.1.notify_all();
            })
        };
        bus.shutdown_executor();
        opener.join().ok();
        assert!(executing.wait().is_ok(), "in-flight request completed");
        assert!(matches!(stuck.wait(), Err(BusError::Timeout(_))), "queued request failed loudly");
    }

    #[test]
    fn nested_calls_from_a_handler_run_inline_and_do_not_deadlock() {
        let bus = Bus::new();
        let mut backend = SoapDispatcher::new();
        backend.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
        bus.register("bus://backend", Arc::new(backend));
        let mut front = SoapDispatcher::new();
        {
            let bus = bus.clone();
            front.register(actions::RELAY, move |req: &Envelope| {
                // Runs on the (single) worker; a queued nested call
                // would wait on ourselves forever.
                bus.call("bus://backend", "urn:echo", req)
                    .map_err(|e| Fault::server(e.to_string()))?
            });
        }
        bus.register("bus://front", Arc::new(front));
        bus.install_executor(ExecutorConfig::new(1).seed(5));
        let out = bus.call("bus://front", "urn:relay", &env("hop")).unwrap().unwrap();
        assert_eq!(out, env("hop"));
        assert_eq!(bus.stats().messages, 2, "both hops billed");
        bus.shutdown_executor();
    }

    #[test]
    fn same_seed_same_single_worker_schedule() {
        // With one worker and a serial submitter, completion order is a
        // pure function of the seed: replies arrive in submit order per
        // endpoint, and the queue gauges replay identically.
        let run = |seed: u64| -> Vec<String> {
            let bus = Bus::new();
            let mut d = SoapDispatcher::new();
            d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
            let svc = Arc::new(d);
            for addr in ["bus://a", "bus://b"] {
                bus.register(addr, svc.clone());
            }
            bus.install_executor(ExecutorConfig::new(1).queue_capacity(32).seed(seed));
            let pendings: Vec<(String, Pending)> = (0..12)
                .map(|i| {
                    let addr = if i % 2 == 0 { "bus://a" } else { "bus://b" };
                    let p = bus.call_async(addr, "urn:echo", &env(&format!("{i}"))).unwrap();
                    (format!("{addr}#{i}"), p)
                })
                .collect();
            let mut order = Vec::new();
            for (label, p) in pendings {
                p.wait().unwrap().unwrap();
                order.push(label);
            }
            bus.shutdown_executor();
            order
        };
        assert_eq!(run(0xDA15), run(0xDA15));
    }
}
