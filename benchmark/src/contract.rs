//! `BENCHMARK.json`, as the benchmark itself reads it: the run length,
//! the workload list, and each gated metric's bound. Compiled in, so the
//! binary and the contract it is judged by cannot drift apart unnoticed
//! (a self-test compares the names on both sides).

use crate::json::Json;

const TEXT: &str = include_str!("../../BENCHMARK.json");

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `None` for per-layer metrics, which are not gated.
    pub bound: Option<f64>,
}

pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metric_specs(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
    doc.get(key)
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| MetricSpec {
            name: field(m, "name"),
            unit: field(m, "unit"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

pub fn load() -> Contract {
    let doc = Json::parse(TEXT).expect("BENCHMARK.json must be valid JSON");
    Contract {
        run_seconds: doc.get("run_seconds").and_then(Json::as_f64).expect("run_seconds"),
        workloads: doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect(),
        end_to_end: metric_specs(&doc, "end_to_end"),
        per_layer: metric_specs(&doc, "per_layer"),
    }
}
