//! The monitoring resource: a WS-DAI-style read-only property document
//! over the bus's observability fabric.
//!
//! Every launched service registers one [`MonitoringResource`] alongside
//! its data resources, so a plain `GetDataResourcePropertyDocument`
//! against its abstract name returns the live picture — traffic
//! counters, injected-fault ledger, and latency histograms — rendered as
//! extension properties in the `urn:dais:obs` namespace. Nothing about
//! the core protocol changes: monitoring rides the same operations,
//! resource list, and resolution path as data.

use crate::name::AbstractName;
use crate::properties::{CoreProperties, ResourceManagementKind};
use crate::resource::DataResource;
use dais_obs::metrics::ENDPOINT_PREFIX;
use dais_obs::slo::SloReport;
use dais_obs::{HistogramSnapshot, SloSample};
use dais_soap::bus::Bus;
use dais_xml::XmlElement;
use std::sync::Arc;

/// Namespace for the monitoring extension properties.
pub const MON_NS: &str = "urn:dais:obs";

fn mon(local: &str) -> XmlElement {
    XmlElement::new(MON_NS, "mon", local)
}

/// A service-managed resource whose property document is the live
/// monitoring view of one bus endpoint.
pub struct MonitoringResource {
    properties: Arc<CoreProperties>,
    bus: Bus,
    address: String,
}

impl MonitoringResource {
    pub fn new(name: AbstractName, bus: Bus, address: impl Into<String>) -> MonitoringResource {
        let address = address.into();
        let mut properties = CoreProperties::new(name, ResourceManagementKind::ServiceManaged);
        properties.description =
            format!("live observability document for bus endpoint '{address}'");
        MonitoringResource { properties: Arc::new(properties), bus, address }
    }

    /// The `mon:BusMonitoring` element: endpoint traffic, the whole-bus
    /// injected-fault ledger, and every latency histogram the bus's
    /// metrics registry holds.
    fn monitoring_element(&self) -> XmlElement {
        let mut root = mon("BusMonitoring");
        root.push(mon("Endpoint").with_text(&self.address));

        let stats = self.bus.endpoint_stats(&self.address);
        let mut traffic = mon("Traffic");
        traffic.set_attr("messages", stats.messages.to_string());
        traffic.set_attr("requestBytes", stats.request_bytes.to_string());
        traffic.set_attr("responseBytes", stats.response_bytes.to_string());
        traffic.set_attr("faults", stats.faults.to_string());
        traffic.set_attr("injected", stats.injected.to_string());
        traffic.set_attr("retries", stats.retries.to_string());
        traffic.set_attr("epoch", stats.epoch.to_string());
        root.push(traffic);

        let mut queue = mon("Queue");
        queue.set_attr("depth", stats.queue_depth.to_string());
        queue.set_attr("peakDepth", stats.queue_peak.to_string());
        queue.set_attr("shed", stats.shed.to_string());
        root.push(queue);

        // Admission-control knobs, present only while an executor is
        // installed (queued mode).
        if let Some(config) = self.bus.executor_config() {
            let mut executor = mon("Executor");
            executor.set_attr("workers", config.workers.to_string());
            executor.set_attr("shards", config.shards.to_string());
            executor.set_attr("queueCapacity", config.queue_capacity.to_string());
            executor.set_attr("maxInFlight", config.max_in_flight.to_string());
            executor.set_attr("retryAfterNs", config.retry_after.as_nanos().to_string());
            root.push(executor);
        }

        let injected = self.bus.stats().fault_injection;
        let mut ledger = mon("InjectedFaults");
        ledger.set_attr("drops", injected.drops.to_string());
        ledger.set_attr("busy", injected.busy.to_string());
        ledger.set_attr("unavailable", injected.unavailable.to_string());
        ledger.set_attr("corruptions", injected.corruptions.to_string());
        ledger.set_attr("delays", injected.delays.to_string());
        root.push(ledger);

        let snapshots = self.bus.obs().metrics.snapshot();
        for (key, snapshot) in &snapshots {
            root.push(histogram_element(key, snapshot));
        }

        // Service levels: rendering the document IS the sampling tick.
        // Each metrics key gets one cumulative sample (the SLO engine
        // turns consecutive samples into per-second delta frames); the
        // fault and shed counters only exist per endpoint, so only this
        // resource's endpoint key carries them — action and connection
        // keys are latency-only.
        let slo = &self.bus.obs().slo;
        let endpoint_key = format!("{ENDPOINT_PREFIX}{}", self.address);
        for (key, snapshot) in &snapshots {
            let (faults, shed) =
                if *key == endpoint_key { (stats.faults, stats.shed) } else { (0, 0) };
            slo.observe(key, SloSample { hist: *snapshot, faults, shed });
        }
        for report in slo.reports() {
            root.push(service_level_element(&report));
        }
        root
    }
}

/// The `mon:ServiceLevel` element: one per metrics key, carrying the
/// engine's objective, the multi-window burn-alert verdict, and one
/// `mon:Window` child per rolling window.
fn service_level_element(report: &SloReport) -> XmlElement {
    let mut sl = mon("ServiceLevel");
    sl.set_attr("key", report.key.clone());
    sl.set_attr("targetP99Ns", report.objective.target_p99_ns.to_string());
    sl.set_attr("maxErrorRate", report.objective.max_error_rate.to_string());
    sl.set_attr("maxShedRate", report.objective.max_shed_rate.to_string());
    sl.set_attr("burnAlert", report.burn_alert().to_string());
    for w in &report.windows {
        let mut win = mon("Window");
        win.set_attr("seconds", w.window_s.to_string());
        win.set_attr("completed", w.completed.to_string());
        win.set_attr("faults", w.faults.to_string());
        win.set_attr("shed", w.shed.to_string());
        win.set_attr("p99Ns", w.p99_ns.to_string());
        win.set_attr("errorRate", format!("{:.6}", w.error_rate));
        win.set_attr("shedRate", format!("{:.6}", w.shed_rate));
        win.set_attr("errorBurn", format!("{:.3}", w.error_burn));
        win.set_attr("shedBurn", format!("{:.3}", w.shed_burn));
        win.set_attr("p99Breached", w.p99_breached.to_string());
        sl.push(win);
    }
    sl
}

fn histogram_element(key: &str, snapshot: &HistogramSnapshot) -> XmlElement {
    let mut hist = mon("LatencyHistogram");
    hist.set_attr("key", key);
    hist.set_attr("count", snapshot.count.to_string());
    hist.set_attr("meanNs", snapshot.mean().to_string());
    hist.set_attr("p50Ns", snapshot.percentile(0.50).to_string());
    hist.set_attr("p95Ns", snapshot.percentile(0.95).to_string());
    hist.set_attr("p99Ns", snapshot.percentile(0.99).to_string());
    for (lower, upper, count) in snapshot.non_empty() {
        let mut bucket = mon("Bucket");
        bucket.set_attr("lowerNs", lower.to_string());
        bucket.set_attr("upperNs", upper.to_string());
        bucket.set_attr("observations", count.to_string());
        hist.push(bucket);
    }
    hist
}

impl DataResource for MonitoringResource {
    fn abstract_name(&self) -> &AbstractName {
        &self.properties.abstract_name
    }

    fn core_properties(&self) -> Arc<CoreProperties> {
        self.properties.clone()
    }

    fn property_document(&self) -> XmlElement {
        // The core document plus one extension property, mirroring how
        // realisations extend it with their model-specific properties.
        let mut doc = self.properties.to_xml();
        doc.push(self.monitoring_element());
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dais_soap::envelope::Envelope;
    use dais_soap::service::SoapDispatcher;

    mod actions {
        dais_soap::actions! {
            ECHO = "urn:echo", Read;
        }
    }

    fn traffic_bus() -> Bus {
        let bus = Bus::new();
        let mut d = SoapDispatcher::new();
        d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
        bus.register("bus://svc", Arc::new(d));
        for _ in 0..3 {
            bus.call("bus://svc", "urn:echo", &Envelope::default()).unwrap().unwrap();
        }
        bus
    }

    fn make(bus: &Bus) -> MonitoringResource {
        let name = AbstractName::new("urn:dais:t:monitoring:9").unwrap();
        MonitoringResource::new(name, bus.clone(), "bus://svc")
    }

    #[test]
    fn document_reports_traffic_and_histograms() {
        let bus = traffic_bus();
        let doc = make(&bus).property_document();
        let monitoring = doc
            .children_named(MON_NS, "BusMonitoring")
            .next()
            .expect("BusMonitoring extension property");
        let traffic = monitoring.children_named(MON_NS, "Traffic").next().unwrap();
        assert_eq!(traffic.attribute("messages"), Some("3"));
        let hists: Vec<_> = monitoring.children_named(MON_NS, "LatencyHistogram").collect();
        assert_eq!(hists.len(), 2, "endpoint + action histograms");
        for hist in hists {
            assert_eq!(hist.attribute("count"), Some("3"));
            let buckets: Vec<_> = hist.children_named(MON_NS, "Bucket").collect();
            assert!(!buckets.is_empty(), "non-zero buckets after traffic");
            let total: u64 = buckets
                .iter()
                .map(|b| b.attribute("observations").unwrap().parse::<u64>().unwrap())
                .sum();
            assert_eq!(total, 3);
        }
    }

    #[test]
    fn document_reports_queue_and_executor() {
        let bus = traffic_bus();
        // Inline mode: queue gauges present (all zero), no Executor.
        let doc = make(&bus).property_document();
        let monitoring = doc.children_named(MON_NS, "BusMonitoring").next().unwrap();
        let queue = monitoring.children_named(MON_NS, "Queue").next().unwrap();
        assert_eq!(queue.attribute("depth"), Some("0"));
        assert_eq!(queue.attribute("shed"), Some("0"));
        assert!(monitoring.children_named(MON_NS, "Executor").next().is_none());

        // Queued mode: the admission-control knobs are published.
        bus.install_executor(dais_soap::executor::ExecutorConfig::new(3).queue_capacity(16));
        bus.call("bus://svc", "urn:echo", &Envelope::default()).unwrap().unwrap();
        let doc = make(&bus).property_document();
        let monitoring = doc.children_named(MON_NS, "BusMonitoring").next().unwrap();
        let executor = monitoring.children_named(MON_NS, "Executor").next().unwrap();
        assert_eq!(executor.attribute("workers"), Some("3"));
        assert_eq!(executor.attribute("queueCapacity"), Some("16"));
        let queue = monitoring.children_named(MON_NS, "Queue").next().unwrap();
        assert_eq!(queue.attribute("peakDepth"), Some("1"));
        bus.shutdown_executor();
    }

    #[test]
    fn document_reports_service_levels() {
        let bus = traffic_bus();
        let resource = make(&bus);
        // First render primes the engine (cumulative baseline), the
        // second render turns the traffic into frames.
        resource.property_document();
        let doc = resource.property_document();
        let monitoring = doc.children_named(MON_NS, "BusMonitoring").next().unwrap();
        let levels: Vec<_> = monitoring.children_named(MON_NS, "ServiceLevel").collect();
        assert_eq!(levels.len(), 2, "endpoint + action service levels");
        for level in levels {
            assert_eq!(level.attribute("burnAlert"), Some("false"));
            assert_eq!(level.attribute("targetP99Ns"), Some("50000000"));
            let windows: Vec<_> = level.children_named(MON_NS, "Window").collect();
            assert_eq!(windows.len(), 3, "1 s / 10 s / 60 s windows");
            let w60 = windows.last().unwrap();
            assert_eq!(w60.attribute("seconds"), Some("60"));
            assert_eq!(w60.attribute("completed"), Some("3"));
            assert_eq!(w60.attribute("faults"), Some("0"));
            assert_eq!(w60.attribute("p99Breached"), Some("false"));
        }
    }

    #[test]
    fn document_keeps_the_core_shape() {
        let bus = traffic_bus();
        let resource = make(&bus);
        let doc = resource.property_document();
        assert!(doc.name.is(dais_xml::ns::WSDAI, "PropertyDocument"));
        let name =
            doc.children_named(dais_xml::ns::WSDAI, "DataResourceAbstractName").next().unwrap();
        assert_eq!(name.text(), resource.abstract_name().as_str());
        // Read-only: property updates are refused like any other
        // descriptive resource.
        let attempt = XmlElement::new(dais_xml::ns::WSDAI, "wsdai", "Readable").with_text("false");
        assert!(resource.set_property(&attempt).is_err());
    }
}
