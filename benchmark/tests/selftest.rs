//! The benchmark's own tests: `cargo test --manifest-path
//! benchmark/Cargo.toml`, independent of the repository's tier-1 suite.
//! (Percentile selection and span arithmetic are unit-tested next to
//! their code in `src/stats.rs` and `src/trace.rs`.)

use dais_core::DaisClient;
use dais_dair::{RelationalService, SqlClient};
use dais_soap::Bus;
use dais_sql::{Database, Value};
use dais_util::SplitMix64;
use daisbench::contract;
use daisbench::engine::{self, Limits, Observe};
use daisbench::run::{self, Config, Outcome};
use daisbench::trace::{self, Recorder};
use daisbench::workloads::point_lookup::SqlReader;
use daisbench::workloads::{
    self, item_rows, load_items, ExpectedRead, Instance, Kind, OpInput, Oracle, Spec,
};
use std::path::Path;

/// Every size at 1 %: seconds become tenths, thousands become tens.
const SMALL: f64 = 0.01;

fn small_run(spec: &Spec, seed: u64, trace: bool) -> Outcome {
    run::run(spec, &Config { seed, seconds: 0.4, trace, scale: SMALL, idle_guard: false })
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome.metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
}

#[test]
fn every_workload_passes_its_oracle_at_one_percent_size() {
    for spec in workloads::ALL {
        let outcome = small_run(spec, 7, false);
        assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.failures);
        assert!(outcome.attempted > 20, "{} ran only {} ops", spec.name, outcome.attempted);
        for m in &outcome.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{} {} = {}", spec.name, m.name, m.value);
        }
    }
}

#[test]
fn every_workload_traces_with_an_exact_partition() {
    for spec in workloads::ALL {
        // `run` fails the outcome if any traced op's seam self times do
        // not sum to its root, so `correct` covers the partition.
        let outcome = small_run(spec, 7, true);
        assert!(outcome.correct(), "{}: {:?}", spec.name, outcome.failures);
        let doc = outcome.trace.as_ref().expect("a traced run yields a trace document");
        assert!(doc.get("ops").is_some_and(|ops| !ops.as_arr().is_empty()));
        let handle = metric(&outcome, "core.service_handle_ns");
        assert!(handle > 0.0, "{}: no service handle time recorded", spec.name);
        let federated = spec.name == "fed_scan";
        assert_eq!(metric(&outcome, "fed.legs_per_query"), if federated { 4.0 } else { 0.0 });
        let xml = spec.name == "xml_mix";
        assert_eq!(metric(&outcome, "sql.parse_ns") == 0.0, xml, "{}", spec.name);
        assert_eq!(metric(&outcome, "xmldb.xpath_ns") > 0.0, xml, "{}", spec.name);
    }
}

#[test]
fn results_carry_exactly_the_metrics_the_contract_names() {
    let contract = contract::load();
    let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
    assert_eq!(contract.workloads, names, "BENCHMARK.json workloads vs workloads::ALL");

    let spec = workloads::find("point_lookup").unwrap();
    for (trace, expected) in [(false, &contract.end_to_end), (true, &contract.per_layer)] {
        let outcome = small_run(spec, 7, trace);
        let got: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let mut want: Vec<(&str, &str)> =
            expected.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect();
        let mut got_sorted = got.clone();
        got_sorted.sort_unstable();
        want.sort_unstable();
        assert_eq!(got_sorted, want, "--trace {}", u8::from(trace));
    }
    assert!(contract.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b <= 0.25)));
    assert!(contract.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
}

/// The first `n` ops a fresh set-up would issue, without issuing them.
fn op_sequence(spec: &Spec, seed: u64, n: usize) -> Vec<Vec<(usize, OpInput)>> {
    let mut instance = (spec.setup)(seed, SMALL);
    instance
        .clients
        .iter_mut()
        .map(|client| (0..n).map(|_| (client.prepare(), client.input())).collect())
        .collect()
}

#[test]
fn the_seed_decides_the_op_sequence() {
    for spec in workloads::ALL {
        let a = op_sequence(spec, 11, 60);
        assert_eq!(a, op_sequence(spec, 11, 60), "{}: same seed, same ops", spec.name);
        assert_ne!(a, op_sequence(spec, 12, 60), "{}: another seed, other ops", spec.name);
    }
}

#[test]
fn the_seed_decides_the_exact_counts_and_other_seeds_still_pass() {
    // One client, so no interleaving: byte counts must repeat exactly.
    for name in ["range_scan", "page_stream.tcp", "fed_scan", "xml_mix"] {
        let spec = workloads::find(name).unwrap();
        let (a, b, c) =
            (small_run(spec, 11, false), small_run(spec, 11, false), small_run(spec, 12, false));
        for m in ["wire_bytes_per_op", "wire_bytes_per_row"] {
            assert_eq!(metric(&a, m), metric(&b, m), "{name} {m}: same seed");
        }
        assert!(c.correct(), "{name} on another seed: {:?}", c.failures);
    }
}

#[test]
fn the_seam_wrappers_are_absent_until_a_traced_phase_installs_them() {
    for spec in workloads::ALL {
        let mut instance = (spec.setup)(7, SMALL);
        let own_transport = instance.client_bus.transport_name();
        let phase = engine::run_phase(spec, &mut instance, Limits::ops(20), &Observe::default());
        assert_eq!(phase.failed, 0, "{}: {:?}", spec.name, phase.failures);
        assert_eq!(instance.client_bus.interceptor_count(), 0, "{}", spec.name);
        assert_eq!(instance.service_bus.interceptor_count(), 0, "{}", spec.name);
        assert_eq!(instance.client_bus.transport_name(), own_transport);
        assert_ne!(own_transport, Some(trace::TIMED_TRANSPORT_NAME));

        let recorder = Recorder::new(1024);
        trace::install(
            &recorder,
            &instance.client_bus,
            &instance.service_bus,
            instance.transport.clone(),
        );
        assert_eq!(instance.client_bus.interceptor_count(), 1);
        assert_eq!(instance.client_bus.transport_name(), Some(trace::TIMED_TRANSPORT_NAME));
    }
}

const CORRUPTED: Spec = Spec {
    name: "corrupted_oracle",
    kinds: &[Kind { name: "lookup", share: 1.0 }],
    warmup_ops: 20,
    setup: corrupted_setup,
};

/// `point_lookup` in miniature, with one oracle entry falsified.
fn corrupted_setup(seed: u64, _scale: f64) -> Instance {
    const SQL: &str = "SELECT id, category, price FROM item WHERE id = ?";
    let mut rng = SplitMix64::new(seed);
    let rows = item_rows(&mut rng, 50, 8);
    let (served, oracle) = (Database::new("items"), Database::new("oracle"));
    load_items(&served, &rows);
    load_items(&oracle, &rows);
    let mut pool: Vec<ExpectedRead> =
        (0..4).map(|id| ExpectedRead::compute(&oracle, SQL, vec![Value::Int(id)])).collect();
    pool[2].checksum ^= 1;

    let bus = Bus::new();
    let service = RelationalService::launch(&bus, "bus://items", served, Default::default());
    let client = SqlClient::builder().bus(bus.clone()).address("bus://items").build();
    let reader = SqlReader::new(client, service.db_resource.clone(), pool, &mut rng);
    Instance {
        clients: vec![Box::new(reader)],
        client_bus: bus.clone(),
        service_bus: bus,
        transport: None,
        oracle: Oracle::Sql(oracle),
        keep_alive: Box::new(service),
    }
}

#[test]
fn a_corrupted_oracle_entry_fails_the_run() {
    let outcome = run::run(
        &CORRUPTED,
        &Config { seed: 7, seconds: 0.2, trace: false, scale: 1.0, idle_guard: false },
    );
    assert!(!outcome.correct());
    assert!(outcome.failed > 0 && outcome.failed < outcome.attempted, "one entry in four is wrong");
    assert!(outcome.failures[0].contains("checksum"), "{:?}", outcome.failures);
    assert!(outcome.result_line().starts_with("{\"correct\":false,"));
}

/// The twin-path collapse must be able to land without editing the
/// benchmark, so the benchmark may not call what that change deletes.
#[test]
fn the_benchmark_calls_only_the_api_the_roadmap_keeps() {
    // Needles are assembled from halves so this file does not match itself.
    let banned: Vec<String> = [
        ("Client::", "new("),      // deprecated typed-client constructors
        ("::with_", "transport("), // (ClientBuilder's `.transport(` is the kept form)
        (".to_", "xml("),          // Rowset / SqlResponseData tree encoders
        ("::from_", "xml("),       // … and tree decoders
        ("read_from", "_pull"),
        ("call_bytes", "_into"),
        ("call_", "async"),
    ]
    .into_iter()
    .map(|(a, b)| format!("{a}{b}"))
    .collect();

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    let mut dirs = vec![root.join("src"), root.join("tests")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    assert!(files.len() >= 15, "expected the benchmark's sources, found {files:?}");
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        for needle in &banned {
            assert!(!text.contains(needle.as_str()), "{} calls `{needle}`", file.display());
        }
    }
}
