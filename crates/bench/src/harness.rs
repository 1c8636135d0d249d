//! Measurement helpers for the experiment harness.

use dais_soap::bus::Bus;
use dais_soap::interceptor::InjectorSnapshot;
use std::time::{Duration, Instant};

/// One measured run: wall time plus the bus traffic it generated,
/// including the chaos-layer deltas (injected faults, retry attempts)
/// so failure experiments can report recovery cost alongside throughput.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    pub elapsed: Duration,
    pub messages: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    pub injected: u64,
    pub retries: u64,
    /// What the chaos layer actually did during the run, by kind.
    pub fault_injection: InjectorSnapshot,
}

impl Measurement {
    pub fn total_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }

    /// Mean microseconds per iteration for a run of `n` iterations.
    pub fn micros_per_iter(&self, n: u64) -> f64 {
        self.elapsed.as_micros() as f64 / n.max(1) as f64
    }
}

/// Run `f`, measuring wall time and the bus traffic it generates.
///
/// Opens a fresh stats epoch (`Bus::reset_stats`) before the workload,
/// so the snapshot afterwards *is* the measurement — no manual
/// subtraction, and the chaos ledger lines up with the traffic it
/// accompanied.
pub fn measure(bus: &Bus, f: impl FnOnce()) -> Measurement {
    bus.reset_stats();
    let start = Instant::now();
    f();
    let elapsed = start.elapsed();
    let s = bus.stats();
    Measurement {
        elapsed,
        messages: s.messages,
        request_bytes: s.request_bytes,
        response_bytes: s.response_bytes,
        injected: s.injected,
        retries: s.retries,
        fault_injection: s.fault_injection,
    }
}

/// Format a byte count for table output.
pub fn fmt_bytes(bytes: u64) -> String {
    if bytes >= 1_048_576 {
        format!("{:.2} MiB", bytes as f64 / 1_048_576.0)
    } else if bytes >= 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// Format a duration for table output.
pub fn fmt_duration(d: Duration) -> String {
    let micros = d.as_micros();
    if micros >= 1_000_000 {
        format!("{:.2} s", d.as_secs_f64())
    } else if micros >= 1000 {
        format!("{:.2} ms", micros as f64 / 1000.0)
    } else {
        format!("{micros} µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dais_soap::envelope::Envelope;
    use dais_soap::service::SoapDispatcher;
    use dais_xml::XmlElement;
    use std::sync::Arc;

    mod actions {
        dais_soap::actions! {
            ECHO = "urn:echo", Read;
        }
    }

    #[test]
    fn measures_traffic_delta() {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
        bus.register("bus://svc", Arc::new(d));
        // Pre-existing traffic is excluded from the measurement.
        bus.call("bus://svc", "urn:echo", &Envelope::with_body(XmlElement::new_local("x")))
            .unwrap()
            .unwrap();
        let m = measure(&bus, || {
            for _ in 0..3 {
                bus.call("bus://svc", "urn:echo", &Envelope::with_body(XmlElement::new_local("y")))
                    .unwrap()
                    .unwrap();
            }
        });
        assert_eq!(m.messages, 3);
        assert!(m.total_bytes() > 0);
        assert!(m.micros_per_iter(3) >= 0.0);
        // A healthy bus with no chaos layer reports zero deltas.
        assert_eq!((m.injected, m.retries), (0, 0));
    }

    #[test]
    fn measures_chaos_deltas() {
        use dais_soap::interceptor::{FaultInjector, FaultPolicy};

        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
        bus.register("bus://chaos", Arc::new(d));
        let injector = FaultInjector::new(7);
        injector.set_policy("bus://chaos", FaultPolicy::default().drop(1.0));
        bus.add_interceptor(Arc::new(injector));
        let m = measure(&bus, || {
            let _ = bus.call(
                "bus://chaos",
                "urn:echo",
                &Envelope::with_body(XmlElement::new_local("x")),
            );
        });
        assert_eq!(m.injected, 1);
        assert_eq!(m.fault_injection.drops, 1);
        assert_eq!(m.fault_injection.total(), 1);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert!(fmt_bytes(3 * 1024 * 1024).contains("MiB"));
        assert!(fmt_duration(Duration::from_micros(500)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).contains("s"));
    }
}
