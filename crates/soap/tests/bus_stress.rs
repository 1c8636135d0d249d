//! Transport-level stress: the bus under concurrent registration,
//! unregistration and traffic, statistics coherence, and the
//! interceptor chain under fire from many threads.

use dais_soap::bus::{Bus, BusError};
use dais_soap::envelope::Envelope;
use dais_soap::fault::Fault;
use dais_soap::interceptor::{CallInfo, FaultInjector, FaultPolicy, Intercept, Interceptor};
use dais_soap::service::SoapDispatcher;
use dais_xml::XmlElement;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod actions {
    dais_soap::actions! {
        ECHO = "urn:echo", Read;
        FAIL = "urn:fail", Write;
    }
}

fn echo_dispatcher() -> Arc<SoapDispatcher> {
    let mut d = SoapDispatcher::new();
    d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
    d.register(actions::FAIL, |_: &Envelope| Err(Fault::server("nope")));
    Arc::new(d)
}

#[test]
fn stats_are_exact_under_concurrency() {
    let bus = Bus::new();
    bus.register("bus://s", echo_dispatcher());
    let threads = 8;
    let per_thread = 50;
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let bus = bus.clone();
            std::thread::spawn(move || {
                for j in 0..per_thread {
                    let action = if (i + j) % 5 == 0 { "urn:fail" } else { "urn:echo" };
                    let env = Envelope::with_body(
                        XmlElement::new_local("m").with_text(format!("{i}:{j}")),
                    );
                    let _ = bus.call("bus://s", action, &env).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let s = bus.stats();
    assert_eq!(s.messages, (threads * per_thread) as u64);
    let expected_faults = (0..threads)
        .flat_map(|i| (0..per_thread).map(move |j| (i + j) % 5 == 0))
        .filter(|x| *x)
        .count();
    assert_eq!(s.faults, expected_faults as u64);
    assert_eq!(bus.endpoint_stats("bus://s").messages, s.messages);
}

#[test]
fn register_unregister_race_is_safe() {
    let bus = Bus::new();
    bus.register("bus://flap", echo_dispatcher());
    let flapper = {
        let bus = bus.clone();
        std::thread::spawn(move || {
            for _ in 0..100 {
                bus.unregister("bus://flap");
                bus.register("bus://flap", echo_dispatcher());
            }
        })
    };
    let caller = {
        let bus = bus.clone();
        std::thread::spawn(move || {
            let mut ok = 0;
            let mut gone = 0;
            let attempt = |ok: &mut u32, gone: &mut u32| {
                match bus.call(
                    "bus://flap",
                    "urn:echo",
                    &Envelope::with_body(XmlElement::new_local("x")),
                ) {
                    Ok(Ok(_)) => *ok += 1,
                    Ok(Err(_)) => panic!("echo cannot fault"),
                    Err(_) => *gone += 1, // transiently unregistered: fine
                }
            };
            for _ in 0..200 {
                attempt(&mut ok, &mut gone);
            }
            // Failing fast is cheap, so a caller preempted inside one
            // unregistered window can burn every attempt there. The
            // flapper always leaves the endpoint registered when it
            // exits, so insisting on one delivery terminates.
            while ok == 0 {
                std::thread::yield_now();
                attempt(&mut ok, &mut gone);
            }
            (ok, gone)
        })
    };
    flapper.join().unwrap();
    let (ok, gone) = caller.join().unwrap();
    assert!(ok + gone >= 200);
    assert!(ok > 0, "some calls must get through");
}

#[test]
fn many_endpoints() {
    let bus = Bus::new();
    for i in 0..200 {
        bus.register(format!("bus://svc{i}"), echo_dispatcher());
    }
    assert_eq!(bus.addresses().len(), 200);
    for i in (0..200).step_by(17) {
        let out = bus
            .call(
                &format!("bus://svc{i}"),
                "urn:echo",
                &Envelope::with_body(XmlElement::new_local("ping")),
            )
            .unwrap()
            .unwrap();
        assert_eq!(out.payload().unwrap().name.local, "ping");
    }
}

/// Counts every byte that passes each way — a pure observer.
#[derive(Default)]
struct Meter {
    requests: AtomicU64,
    responses: AtomicU64,
}

impl Interceptor for Meter {
    fn on_request(&self, _: &CallInfo<'_>, _: &[u8]) -> Intercept {
        self.requests.fetch_add(1, Ordering::Relaxed);
        Intercept::Pass
    }

    fn on_response(&self, _: &CallInfo<'_>, _: &[u8]) -> Intercept {
        self.responses.fetch_add(1, Ordering::Relaxed);
        Intercept::Pass
    }
}

#[test]
fn interceptor_chain_is_exact_under_concurrency() {
    let bus = Bus::new();
    bus.register("bus://s", echo_dispatcher());
    let outer = Arc::new(Meter::default());
    let injector = FaultInjector::new(0x57E55);
    injector.set_policy("bus://s", FaultPolicy::default().drop(0.2).busy(0.2).corrupt(0.2));
    let inner = Arc::new(Meter::default());
    // Observer / chaos / observer: the outer meter sees every call, the
    // inner only those the injector lets through to the service.
    bus.add_interceptor(outer.clone());
    bus.add_interceptor(Arc::new(injector.clone()));
    bus.add_interceptor(inner.clone());

    let threads = 8;
    let per_thread = 100;
    let outcomes: Vec<(u64, u64, u64, u64)> = (0..threads)
        .map(|i| {
            let bus = bus.clone();
            std::thread::spawn(move || {
                let (mut ok, mut timeouts, mut malformed, mut busy) = (0u64, 0u64, 0u64, 0u64);
                for j in 0..per_thread {
                    let env = Envelope::with_body(
                        XmlElement::new_local("m").with_text(format!("{i}:{j}")),
                    );
                    match bus.call("bus://s", "urn:echo", &env) {
                        Ok(Ok(_)) => ok += 1,
                        Ok(Err(_)) => busy += 1,
                        Err(BusError::Timeout(_)) => timeouts += 1,
                        Err(BusError::MalformedEnvelope(_)) => malformed += 1,
                        Err(other) => panic!("unexpected {other}"),
                    }
                }
                (ok, timeouts, malformed, busy)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|h| h.join().unwrap())
        .collect();

    let total = (threads * per_thread) as u64;
    let ok: u64 = outcomes.iter().map(|o| o.0).sum();
    let timeouts: u64 = outcomes.iter().map(|o| o.1).sum();
    let malformed: u64 = outcomes.iter().map(|o| o.2).sum();
    let busy: u64 = outcomes.iter().map(|o| o.3).sum();
    assert_eq!(ok + timeouts + malformed + busy, total);

    // No event lost or double-counted anywhere in the stack:
    // the injector's own ledger matches caller-observed outcomes...
    let inj = injector.snapshot();
    assert_eq!(inj.drops, timeouts);
    assert_eq!(inj.corruptions, malformed);
    assert_eq!(inj.busy, busy);
    assert_eq!(inj.unavailable + inj.delays, 0);
    // ...the bus counted exactly one interference per injector event...
    let s = bus.stats();
    assert_eq!(s.injected, inj.total());
    assert_eq!(s.messages, total);
    assert_eq!(s.faults, busy);
    assert_eq!(bus.endpoint_stats("bus://s").messages, total);
    // ...and the meters bracket the injector correctly: every call hits
    // the outer request hook; only uninjured calls reach the inner one.
    assert_eq!(outer.requests.load(Ordering::Relaxed), total);
    assert_eq!(inner.requests.load(Ordering::Relaxed), ok + malformed);
    // Responses: the inner meter sees real service responses (including
    // ones that then fail to parse — none do here); the outer sees every
    // response that came back at all (service or synthetic).
    assert_eq!(inner.responses.load(Ordering::Relaxed), ok);
    assert_eq!(outer.responses.load(Ordering::Relaxed), ok + busy);
}

#[test]
fn large_payloads_roundtrip() {
    let bus = Bus::new();
    bus.register("bus://big", echo_dispatcher());
    let mut body = XmlElement::new_local("blob");
    body.push_text("y".repeat(2_000_000));
    let env = Envelope::with_body(body);
    let out = bus.call("bus://big", "urn:echo", &env).unwrap().unwrap();
    assert_eq!(out.payload().unwrap().text().len(), 2_000_000);
    assert!(bus.stats().request_bytes >= 2_000_000);
}
