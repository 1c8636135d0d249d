//! Self-tests: the fixture tree under `fixtures/violations/` seeds one
//! deliberate violation of every lint, and the real workspace stays
//! clean. One test per lint so a regression names the broken check.

use dais_check::{check_workspace, Report, Violation};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Every lint `dais-check` reports. The fixtures seed each one, so a lint
/// that stops firing, or a retired one that still fires, fails
/// `fixtures_trip_exactly_the_catalogue` by name.
const CATALOGUE: &[&str] = &[
    "guard-across-dispatch",
    "guard-across-sleep",
    "raw-sync-primitive",
    "stale-allowlist",
    "transport-bypass",
    "unwrap-in-library",
];

fn fixtures_report() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/violations");
    check_workspace(&root).expect("fixture scan")
}

fn find<'a>(report: &'a Report, lint: &str) -> Vec<&'a Violation> {
    report.violations.iter().filter(|v| v.lint == lint).collect()
}

fn assert_fires(lint: &str, in_file: &str) -> Vec<(PathBuf, usize, String)> {
    let report = fixtures_report();
    let hits = find(&report, lint);
    assert!(
        !hits.is_empty(),
        "fixtures did not trip `{lint}`; tripped: {:?}",
        report.violations.iter().map(|v| v.lint).collect::<Vec<_>>()
    );
    assert!(
        hits.iter().any(|v| v.file.to_string_lossy().replace('\\', "/").contains(in_file)),
        "`{lint}` did not fire in {in_file}: {hits:?}"
    );
    hits.iter().map(|v| (v.file.clone(), v.line, v.message.clone())).collect()
}

#[test]
fn trips_unwrap_in_library() {
    assert_fires("unwrap-in-library", "alpha/src/client.rs");
}

#[test]
fn trips_transport_bypass() {
    let hits = assert_fires("transport-bypass", "alpha/src/socket.rs");
    assert!(hits[0].2.contains("crates/soap/src/tcp.rs"));
    assert!(hits[0].2.contains("Transport"));
    // The fixture's own soap/src/tcp.rs uses sockets too and stays
    // silent: the exemption holds.
    assert_eq!(hits.len(), 1, "{hits:?}");
}

#[test]
fn trips_guard_across_dispatch() {
    let hits = assert_fires("guard-across-dispatch", "alpha/src/guards.rs");
    assert!(hits[0].2.contains("guard `guard`"), "{hits:?}");
    assert!(hits[0].2.contains("`.call(`"), "{hits:?}");
    assert!(hits[0].2.contains("drop the guard first"), "{hits:?}");
    // The scoped-block variant in the same fixture stays silent.
    assert_eq!(hits.len(), 1, "{hits:?}");
}

#[test]
fn trips_guard_across_sleep() {
    let hits = assert_fires("guard-across-sleep", "alpha/src/sleepy.rs");
    assert!(hits[0].2.contains("`sleep(`"), "{hits:?}");
    assert!(hits[0].2.contains("drop the guard before pausing"), "{hits:?}");
    // The sleep-then-lock variant stays silent.
    assert_eq!(hits.len(), 1, "{hits:?}");
}

#[test]
fn trips_raw_sync_primitive() {
    let hits = assert_fires("raw-sync-primitive", "alpha/src/rawsync.rs");
    assert!(hits[0].2.contains("std::sync::Mutex"), "{hits:?}");
    assert!(hits[0].2.contains("dais_util::sync::Mutex"), "{hits:?}");
}

#[test]
fn trips_stale_allowlist_both_ways() {
    let report = fixtures_report();
    let hits = find(&report, "stale-allowlist");
    // One undershot entry (store.rs) and one entry naming no file.
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().any(|v| v.message.contains("store.rs")));
    assert!(hits.iter().any(|v| v.message.contains("missing.rs")));
}

#[test]
fn fixture_scan_is_not_clean_and_renders_rustc_style() {
    let report = fixtures_report();
    assert!(!report.is_clean());
    let rendered = report.render();
    assert!(rendered.contains("error[dais-check::transport-bypass]:"));
    assert!(rendered.contains("  --> "));
    assert!(rendered.contains("violation(s)"));
}

#[test]
fn fixtures_trip_exactly_the_catalogue() {
    let report = fixtures_report();
    let tripped: BTreeSet<&str> = report.violations.iter().map(|v| v.lint).collect();
    assert_eq!(tripped, CATALOGUE.iter().copied().collect::<BTreeSet<_>>());
}

#[test]
fn real_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = check_workspace(&root).expect("workspace scan");
    assert!(report.is_clean(), "\n{}", report.render());
    assert!(report.files_scanned > 50, "suspiciously few files scanned");
}
