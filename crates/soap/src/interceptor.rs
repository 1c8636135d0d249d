//! Transport interceptors and deterministic fault injection.
//!
//! A [`Bus`](crate::bus::Bus) carries an ordered chain of
//! [`Interceptor`]s. Every call's serialised wire bytes pass through the
//! chain — request phase in registration order, response phase in
//! reverse — and each interceptor can wave the bytes through, rewrite
//! them, answer on the service's behalf, or kill the call with a
//! transport error. This is the seam where chaos lives: the bundled
//! [`FaultInjector`] drops, delays, corrupts, and synthesises WS-DAI
//! faults according to per-endpoint policies, driven entirely by a
//! caller-seeded RNG so a failure run replays byte-for-byte.
//!
//! An empty chain leaves [`Bus::call`](crate::bus::Bus::call) exactly as
//! it was: the bus takes one shared-pointer clone and skips the loop, so
//! the paper-figure experiments measure unchanged behaviour.

use crate::bus::BusError;
use crate::envelope::Envelope;
use crate::fault::{DaisFault, Fault};
use dais_util::rng::SplitMix64;
use dais_util::sync::{pause, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Identity of the call being intercepted.
#[derive(Debug, Clone, Copy)]
pub struct CallInfo<'a> {
    /// Logical bus address of the callee.
    pub to: &'a str,
    /// SOAP action URI.
    pub action: &'a str,
}

/// An interceptor's verdict on one direction of one call.
#[derive(Debug)]
pub enum Intercept {
    /// Let the bytes through untouched.
    Pass,
    /// Replace the bytes and continue down the chain.
    Tamper(Vec<u8>),
    /// Answer in the service's place: the bytes are the response wire
    /// image. On the request phase this skips the service entirely; on
    /// the response phase it replaces the response and stops the chain.
    Reply(Vec<u8>),
    /// Kill the call with a transport error.
    Abort(BusError),
}

/// A stage in the bus's transport chain. Both hooks default to
/// [`Intercept::Pass`], so an interceptor implements only the direction
/// it cares about.
pub trait Interceptor: Send + Sync {
    fn on_request(&self, _call: &CallInfo<'_>, _bytes: &[u8]) -> Intercept {
        Intercept::Pass
    }

    fn on_response(&self, _call: &CallInfo<'_>, _bytes: &[u8]) -> Intercept {
        Intercept::Pass
    }

    /// What this stage has injected so far — for the whole bus
    /// (`None`) or one endpoint address. The bus folds every stage's
    /// ledger into
    /// [`StatsSnapshot::fault_injection`](crate::bus::StatsSnapshot::fault_injection),
    /// so one snapshot tells the whole
    /// story. Passive interceptors keep the default empty ledger.
    fn injection_ledger(&self, _endpoint: Option<&str>) -> InjectorSnapshot {
        InjectorSnapshot::default()
    }

    /// Zero the ledger; called by `Bus::reset_stats` so measurement
    /// epochs stay consistent with the traffic counters.
    fn reset_injection_ledger(&self) {}
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Per-endpoint chaos policy. Probabilities are drawn independently in a
/// fixed order — drop, busy, unavailable, corrupt, delay — and the first
/// gate that fires decides the call's fate (delay excepted: it lets the
/// call proceed after sleeping).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPolicy {
    /// Swallow the request: the caller sees [`BusError::Timeout`].
    pub drop_probability: f64,
    /// Answer with a synthetic `ServiceBusyFault` envelope.
    pub busy_probability: f64,
    /// Answer with a synthetic `DataResourceUnavailableFault` envelope.
    pub unavailable_probability: f64,
    /// Mangle the request bytes so they no longer parse.
    pub corrupt_probability: f64,
    /// Stall the request before delivery.
    pub delay_probability: f64,
    /// Upper bound for an injected stall.
    pub max_delay: Duration,
}

impl FaultPolicy {
    pub fn drop(mut self, p: f64) -> Self {
        self.drop_probability = p;
        self
    }

    pub fn busy(mut self, p: f64) -> Self {
        self.busy_probability = p;
        self
    }

    pub fn unavailable(mut self, p: f64) -> Self {
        self.unavailable_probability = p;
        self
    }

    pub fn corrupt(mut self, p: f64) -> Self {
        self.corrupt_probability = p;
        self
    }

    pub fn delay(mut self, p: f64, max: Duration) -> Self {
        self.delay_probability = p;
        self.max_delay = max;
        self
    }

    fn is_noop(&self) -> bool {
        self.drop_probability <= 0.0
            && self.busy_probability <= 0.0
            && self.unavailable_probability <= 0.0
            && self.corrupt_probability <= 0.0
            && self.delay_probability <= 0.0
    }
}

/// What the injector has done so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectorSnapshot {
    pub drops: u64,
    pub busy: u64,
    pub unavailable: u64,
    pub corruptions: u64,
    pub delays: u64,
}

impl InjectorSnapshot {
    /// Every event the injector produced.
    pub fn total(&self) -> u64 {
        self.drops + self.busy + self.unavailable + self.corruptions + self.delays
    }

    /// Fold another ledger in (used by the bus to sum a chain).
    pub fn merge(&mut self, other: InjectorSnapshot) {
        self.drops += other.drops;
        self.busy += other.busy;
        self.unavailable += other.unavailable;
        self.corruptions += other.corruptions;
        self.delays += other.delays;
    }
}

/// Which gate fired, for ledger bookkeeping.
#[derive(Clone, Copy)]
enum InjectedKind {
    Drop,
    Busy,
    Unavailable,
    Corrupt,
    Delay,
}

struct InjectorInner {
    rng: Mutex<SplitMix64>,
    policies: RwLock<HashMap<String, FaultPolicy>>,
    default_policy: RwLock<Option<FaultPolicy>>,
    /// Per-endpoint injected-fault counts; the whole-bus ledger is the
    /// sum. Only touched when a gate actually fires, so the no-fault
    /// path never takes this lock.
    ledger: Mutex<BTreeMap<String, InjectorSnapshot>>,
}

/// A chaos interceptor: injects transport and service failures on the
/// request path according to [`FaultPolicy`]s, deterministically from a
/// seed. Cheap to clone (shared state), so callers keep a handle for
/// reading counters after handing one to the bus.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl FaultInjector {
    /// An injector with no policies; `seed` fixes every future decision.
    pub fn new(seed: u64) -> FaultInjector {
        FaultInjector {
            inner: Arc::new(InjectorInner {
                rng: Mutex::new(SplitMix64::new(seed)),
                policies: RwLock::new(HashMap::new()),
                default_policy: RwLock::new(None),
                ledger: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    fn note(&self, endpoint: &str, kind: InjectedKind) {
        let mut ledger = self.inner.ledger.lock();
        let entry = ledger.entry(endpoint.to_string()).or_default();
        match kind {
            InjectedKind::Drop => entry.drops += 1,
            InjectedKind::Busy => entry.busy += 1,
            InjectedKind::Unavailable => entry.unavailable += 1,
            InjectedKind::Corrupt => entry.corruptions += 1,
            InjectedKind::Delay => entry.delays += 1,
        }
    }

    /// Set (or replace) the policy for one endpoint address.
    pub fn set_policy(&self, endpoint: impl Into<String>, policy: FaultPolicy) {
        self.inner.policies.write().insert(endpoint.into(), policy);
    }

    /// Policy applied to endpoints without their own entry.
    pub fn set_default_policy(&self, policy: FaultPolicy) {
        *self.inner.default_policy.write() = Some(policy);
    }

    /// Stop injecting everywhere (policies are kept; counters are kept).
    pub fn clear_default_policy(&self) {
        *self.inner.default_policy.write() = None;
    }

    /// Everything injected so far, summed across endpoints.
    pub fn snapshot(&self) -> InjectorSnapshot {
        let mut total = InjectorSnapshot::default();
        for entry in self.inner.ledger.lock().values() {
            total.merge(*entry);
        }
        total
    }

    /// What was injected against one endpoint address.
    pub fn endpoint_snapshot(&self, endpoint: &str) -> InjectorSnapshot {
        self.inner.ledger.lock().get(endpoint).copied().unwrap_or_default()
    }

    fn policy_for(&self, endpoint: &str) -> Option<FaultPolicy> {
        if let Some(p) = self.inner.policies.read().get(endpoint) {
            return Some(*p);
        }
        *self.inner.default_policy.read()
    }

    /// Serialised fault envelope for a synthetic service answer.
    fn synthetic_fault(kind: DaisFault, endpoint: &str) -> Vec<u8> {
        let fault = Fault::dais(kind, format!("injected by chaos policy for '{endpoint}'"));
        let mut out = Vec::new();
        Envelope::with_body(fault.to_xml()).to_bytes_into(&mut out);
        out
    }

    /// Mangle wire bytes so they are guaranteed not to parse: truncate
    /// to half and append an unbalanced tag.
    fn corrupt(bytes: &[u8]) -> Vec<u8> {
        let mut out = bytes[..bytes.len() / 2].to_vec();
        out.extend_from_slice(b"<chaos-corrupted>");
        out
    }
}

impl Interceptor for FaultInjector {
    fn on_request(&self, call: &CallInfo<'_>, bytes: &[u8]) -> Intercept {
        let Some(policy) = self.policy_for(call.to) else { return Intercept::Pass };
        if policy.is_noop() {
            return Intercept::Pass;
        }
        // All decisions come off one RNG stream under a lock, in a fixed
        // gate order, so a seed fully determines the fault schedule for
        // a serial caller.
        let mut rng = self.inner.rng.lock();
        if rng.gen_bool(policy.drop_probability) {
            drop(rng);
            self.note(call.to, InjectedKind::Drop);
            return Intercept::Abort(BusError::Timeout(format!(
                "injected timeout calling '{}'",
                call.to
            )));
        }
        if rng.gen_bool(policy.busy_probability) {
            drop(rng);
            self.note(call.to, InjectedKind::Busy);
            return Intercept::Reply(Self::synthetic_fault(DaisFault::ServiceBusy, call.to));
        }
        if rng.gen_bool(policy.unavailable_probability) {
            drop(rng);
            self.note(call.to, InjectedKind::Unavailable);
            return Intercept::Reply(Self::synthetic_fault(
                DaisFault::DataResourceUnavailable,
                call.to,
            ));
        }
        if rng.gen_bool(policy.corrupt_probability) {
            drop(rng);
            self.note(call.to, InjectedKind::Corrupt);
            return Intercept::Tamper(Self::corrupt(bytes));
        }
        if rng.gen_bool(policy.delay_probability) {
            let micros = policy.max_delay.as_micros() as u64;
            let stall = if micros == 0 { 0 } else { rng.gen_range(0, micros + 1) };
            drop(rng); // never sleep while holding the stream
            self.note(call.to, InjectedKind::Delay);
            if stall > 0 {
                pause(Duration::from_micros(stall));
            }
        }
        Intercept::Pass
    }

    fn injection_ledger(&self, endpoint: Option<&str>) -> InjectorSnapshot {
        match endpoint {
            None => self.snapshot(),
            Some(address) => self.endpoint_snapshot(address),
        }
    }

    fn reset_injection_ledger(&self) {
        self.inner.ledger.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info<'a>(to: &'a str) -> CallInfo<'a> {
        CallInfo { to, action: "urn:test" }
    }

    fn always(p: fn(FaultPolicy) -> FaultPolicy) -> FaultPolicy {
        p(FaultPolicy::default())
    }

    #[test]
    fn no_policy_means_pass() {
        let inj = FaultInjector::new(1);
        assert!(matches!(inj.on_request(&info("bus://x"), b"<e/>"), Intercept::Pass));
        assert_eq!(inj.snapshot(), InjectorSnapshot::default());
    }

    #[test]
    fn drop_policy_aborts_with_timeout() {
        let inj = FaultInjector::new(1);
        inj.set_policy("bus://x", always(|p| p.drop(1.0)));
        match inj.on_request(&info("bus://x"), b"<e/>") {
            Intercept::Abort(BusError::Timeout(m)) => assert!(m.contains("bus://x")),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(inj.snapshot().drops, 1);
    }

    #[test]
    fn busy_policy_replies_with_fault_envelope() {
        let inj = FaultInjector::new(1);
        inj.set_default_policy(always(|p| p.busy(1.0)));
        match inj.on_request(&info("bus://y"), b"<e/>") {
            Intercept::Reply(bytes) => {
                let env = Envelope::from_bytes(&bytes).unwrap();
                let fault = Fault::from_xml(env.payload().unwrap()).unwrap();
                assert!(fault.is(DaisFault::ServiceBusy));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(inj.snapshot().busy, 1);
    }

    #[test]
    fn corruption_defeats_the_parser() {
        let inj = FaultInjector::new(1);
        inj.set_policy("bus://x", always(|p| p.corrupt(1.0)));
        let mut original = Vec::new();
        Envelope::default().to_bytes_into(&mut original);
        match inj.on_request(&info("bus://x"), &original) {
            Intercept::Tamper(bytes) => {
                assert!(Envelope::from_bytes(&bytes).is_err());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn per_endpoint_policy_shadows_default() {
        let inj = FaultInjector::new(1);
        inj.set_default_policy(always(|p| p.drop(1.0)));
        inj.set_policy("bus://safe", FaultPolicy::default());
        assert!(matches!(inj.on_request(&info("bus://safe"), b"<e/>"), Intercept::Pass));
        assert!(matches!(
            inj.on_request(&info("bus://other"), b"<e/>"),
            Intercept::Abort(BusError::Timeout(_))
        ));
    }

    #[test]
    fn ledger_tracks_per_endpoint_counts_and_resets() {
        let inj = FaultInjector::new(1);
        inj.set_policy("bus://a", always(|p| p.drop(1.0)));
        inj.set_policy("bus://b", always(|p| p.busy(1.0)));
        inj.on_request(&info("bus://a"), b"<e/>");
        inj.on_request(&info("bus://a"), b"<e/>");
        inj.on_request(&info("bus://b"), b"<e/>");
        assert_eq!(inj.endpoint_snapshot("bus://a").drops, 2);
        assert_eq!(inj.endpoint_snapshot("bus://b").busy, 1);
        assert_eq!(inj.snapshot().total(), 3);
        // The Interceptor-trait view agrees with the inherent accessors.
        assert_eq!(inj.injection_ledger(Some("bus://a")), inj.endpoint_snapshot("bus://a"));
        assert_eq!(inj.injection_ledger(None), inj.snapshot());
        inj.reset_injection_ledger();
        assert_eq!(inj.snapshot(), InjectorSnapshot::default());
    }

    #[test]
    fn same_seed_same_schedule() {
        let schedule = |seed: u64| -> Vec<u8> {
            let inj = FaultInjector::new(seed);
            inj.set_default_policy(always(|p| p.drop(0.3).busy(0.3).corrupt(0.3)));
            (0..64)
                .map(|_| match inj.on_request(&info("bus://x"), b"<e/>") {
                    Intercept::Pass => 0,
                    Intercept::Tamper(_) => 1,
                    Intercept::Reply(_) => 2,
                    Intercept::Abort(_) => 3,
                })
                .collect()
        };
        assert_eq!(schedule(0xC0FFEE), schedule(0xC0FFEE));
        assert_ne!(schedule(0xC0FFEE), schedule(0xDECAF)); // astronomically unlikely to tie
    }
}
