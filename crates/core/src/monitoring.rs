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
//!
//! Rendering is a pure read of state the bus already keeps, as a WS-DAI
//! property document should be: two renders with no traffic between
//! them are equal. Rates are one division away — the fault and shed
//! counters over the endpoint histogram's count.

use crate::name::AbstractName;
use crate::properties::{CoreProperties, ResourceManagementKind};
use crate::resource::DataResource;
use dais_obs::HistogramSnapshot;
use dais_soap::bus::{Bus, WeakBus};
use dais_xml::XmlElement;
use std::sync::Arc;

/// Namespace for the monitoring extension properties.
pub const MON_NS: &str = "urn:dais:obs";

fn mon(local: &str) -> XmlElement {
    XmlElement::new(MON_NS, "mon", local)
}

/// A service-managed resource whose property document is the live
/// monitoring view of one bus endpoint. It holds its bus weakly: the
/// bus owns the endpoint whose registry owns this resource, so a strong
/// handle would keep the whole service alive forever.
pub struct MonitoringResource {
    properties: Arc<CoreProperties>,
    bus: WeakBus,
    address: String,
}

impl MonitoringResource {
    pub fn new(name: AbstractName, bus: &Bus, address: impl Into<String>) -> MonitoringResource {
        let address = address.into();
        let mut properties = CoreProperties::new(name, ResourceManagementKind::ServiceManaged);
        properties.description =
            format!("live observability document for bus endpoint '{address}'");
        MonitoringResource { properties: Arc::new(properties), bus: bus.downgrade(), address }
    }

    /// The `mon:BusMonitoring` element: endpoint traffic, the whole-bus
    /// injected-fault ledger, and every latency histogram the bus's
    /// metrics registry holds.
    fn monitoring_element(&self, bus: &Bus) -> XmlElement {
        let mut root = mon("BusMonitoring");
        root.push(mon("Endpoint").with_text(&self.address));

        let stats = bus.endpoint_stats(&self.address);
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
        if let Some(config) = bus.executor_config() {
            let mut executor = mon("Executor");
            executor.set_attr("workers", config.workers.to_string());
            executor.set_attr("shards", config.shards.to_string());
            executor.set_attr("queueCapacity", config.queue_capacity.to_string());
            executor.set_attr("maxInFlight", config.max_in_flight.to_string());
            executor.set_attr("retryAfterNs", config.retry_after.as_nanos().to_string());
            root.push(executor);
        }

        let injected = bus.stats().fault_injection;
        let mut ledger = mon("InjectedFaults");
        ledger.set_attr("drops", injected.drops.to_string());
        ledger.set_attr("busy", injected.busy.to_string());
        ledger.set_attr("unavailable", injected.unavailable.to_string());
        ledger.set_attr("corruptions", injected.corruptions.to_string());
        ledger.set_attr("delays", injected.delays.to_string());
        root.push(ledger);

        for (key, snapshot) in &bus.obs().metrics.snapshot() {
            root.push(histogram_element(key, snapshot));
        }
        root
    }
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
        // With its bus gone there is nothing live to describe.
        let mut doc = self.properties.to_xml();
        if let Some(bus) = self.bus.upgrade() {
            doc.push(self.monitoring_element(&bus));
        }
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
        MonitoringResource::new(name, bus, "bus://svc")
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
    fn rendering_is_a_pure_read() {
        let bus = traffic_bus();
        let resource = make(&bus);
        // A read changes nothing: with no traffic between them, two
        // renders are the same document, also a clock second apart.
        let first = resource.property_document();
        dais_util::sync::pause(std::time::Duration::from_millis(1_050));
        assert_eq!(first, resource.property_document());
        let monitoring = first.children_named(MON_NS, "BusMonitoring").next().unwrap();
        let endpoint = monitoring
            .children_named(MON_NS, "LatencyHistogram")
            .find(|h| h.attribute("key") == Some("endpoint:bus://svc"))
            .unwrap();
        for quantile in ["p50Ns", "p95Ns", "p99Ns"] {
            assert!(endpoint.attribute(quantile).is_some(), "{quantile} is published");
        }
    }

    #[test]
    fn document_without_its_bus_is_the_core_document() {
        let bus = traffic_bus();
        let resource = make(&bus);
        drop(bus);
        let doc = resource.property_document();
        assert!(doc.children_named(MON_NS, "BusMonitoring").next().is_none());
        assert_eq!(doc, resource.core_properties().to_xml());
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
