//! The cross-checks ("lints") run over the extracted facts.
//!
//! Each lint has a stable kebab-case name used in diagnostics and in the
//! self-test fixtures. See DESIGN.md §9 for the catalogue.

use crate::scan::FileFacts;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;

/// Diagnostic severity. Everything reported is a violation (non-zero
/// exit); severity only affects presentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Error,
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub lint: &'static str,
    pub severity: Severity,
    pub file: PathBuf,
    pub line: usize,
    pub message: String,
}

/// The parsed `dais-check.allow` ratchet file.
#[derive(Debug, Default)]
pub struct Allowlist {
    pub path: PathBuf,
    /// file path (relative, `/`-separated) → (allowed count, entry line).
    /// Bare entries belong to the `unwrap-in-library` ratchet.
    pub entries: BTreeMap<String, (usize, usize)>,
    /// `<lint>:<file>`-prefixed entries for other ratcheting lints:
    /// (lint name, file path) → (allowed count, entry line).
    pub lint_entries: BTreeMap<(String, String), (usize, usize)>,
}

impl Allowlist {
    pub fn parse(path: PathBuf, content: &str) -> Allowlist {
        let mut entries = BTreeMap::new();
        let mut lint_entries = BTreeMap::new();
        for (idx, raw) in content.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(file), Some(count)) = (parts.next(), parts.next()) else {
                continue;
            };
            let Ok(n) = count.parse::<usize>() else {
                continue;
            };
            match file.split_once(':') {
                Some((lint, file)) => {
                    lint_entries.insert((lint.to_string(), file.to_string()), (n, idx + 1));
                }
                None => {
                    entries.insert(file.to_string(), (n, idx + 1));
                }
            }
        }
        Allowlist { path, entries, lint_entries }
    }

    /// Allowed count for a prefixed `<lint>:<file>` entry (0 if absent).
    fn allowed_for(&self, lint: &str, file: &str) -> usize {
        self.lint_entries.get(&(lint.to_string(), file.to_string())).map(|(n, _)| *n).unwrap_or(0)
    }
}

fn norm(p: &std::path::Path) -> String {
    p.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/")
}

/// One site a ratcheting lint counted: its line, plus whatever detail
/// the lint's message builder wants to show for the first excess site.
type RatchetSite = (usize, String);

/// The shared engine behind every `<lint>:<file>`-ratcheted lint: count
/// the file's sites against the allowlist, report the first excess site
/// with `describe(actual, allowed, detail)`, flag over-generous entries
/// as stale, and record entry consumption so the final sweep can catch
/// entries that match no scanned file. `noun` names the counted thing in
/// stale-allowlist messages ("unwrap()/expect() call(s)" etc.).
#[allow(clippy::too_many_arguments)]
fn ratchet_file(
    out: &mut Vec<Violation>,
    allowlist: &Allowlist,
    lint: &'static str,
    noun: &str,
    consumed: &mut BTreeSet<String>,
    file: &FileFacts,
    sites: &[RatchetSite],
    describe: &dyn Fn(usize, usize, &str) -> String,
) {
    let path = norm(&file.path);
    let allowed = allowlist.allowed_for(lint, &path);
    if allowlist.lint_entries.contains_key(&(lint.to_string(), path.clone())) {
        consumed.insert(path.clone());
    }
    let actual = sites.len();
    if actual > allowed {
        let (line, detail) = &sites[allowed];
        out.push(Violation {
            lint,
            severity: Severity::Error,
            file: file.path.clone(),
            line: *line,
            message: describe(actual, allowed, detail),
        });
    } else if actual < allowed {
        let (_, entry_line) = allowlist.lint_entries[&(lint.to_string(), path.clone())];
        out.push(Violation {
            lint: "stale-allowlist",
            severity: Severity::Warning,
            file: allowlist.path.clone(),
            line: entry_line,
            message: format!(
                "allowlist permits {allowed} {noun} in {path} but only {actual} remain; \
                 ratchet the entry down"
            ),
        });
    }
}

/// Run every lint over the extracted facts.
pub fn run_lints(files: &[FileFacts], allowlist: &Allowlist) -> Vec<Violation> {
    let mut out = Vec::new();

    // ---- unwrap ratchet. -------------------------------------------------
    let mut counted: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        let path = norm(&f.path);
        let allowed = allowlist.entries.get(&path).map(|(n, _)| *n).unwrap_or(0);
        if let Some((k, _)) = allowlist.entries.get_key_value(&path) {
            counted.insert(k);
        }
        let actual = f.unwrap_sites.len();
        if actual > allowed {
            let first_excess = f.unwrap_sites.get(allowed).copied().unwrap_or(0);
            out.push(Violation {
                lint: "unwrap-in-library",
                severity: Severity::Error,
                file: f.path.clone(),
                line: first_excess,
                message: format!(
                    "{actual} unwrap()/expect() call(s) in library code (allowlist permits \
                     {allowed}); handle the error or extend {}",
                    allowlist.path.display()
                ),
            });
        } else if actual < allowed {
            let (_, entry_line) = allowlist.entries[&path];
            out.push(Violation {
                lint: "stale-allowlist",
                severity: Severity::Warning,
                file: allowlist.path.clone(),
                line: entry_line,
                message: format!(
                    "allowlist permits {allowed} unwrap()/expect() call(s) in {path} but only \
                     {actual} remain; ratchet the entry down"
                ),
            });
        }
    }
    for (path, (_, entry_line)) in &allowlist.entries {
        if !counted.contains(path.as_str()) {
            out.push(Violation {
                lint: "stale-allowlist",
                severity: Severity::Warning,
                file: allowlist.path.clone(),
                line: *entry_line,
                message: format!("allowlist entry for `{path}` matches no scanned file"),
            });
        }
    }

    // ---- Ratcheting lints: per-file counts against `<lint>:<file>`
    // allowlist entries, all driven by the shared `ratchet_file` engine.
    let mut consumed: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();

    let allow_path = allowlist.path.display().to_string();
    // `TcpStream`/`TcpListener` outside `crates/soap/src/tcp.rs` opens a
    // side channel around the Transport seam — no length-prefixed
    // framing, no pooled reconnects, no timeout→`BusError` mapping, and
    // none of the interceptor/tracing/stats layers that sit above the
    // trait. (Integration tests are outside the scan and may play raw
    // peers.) Exceptions carry `transport-bypass:<file>`.
    const TRANSPORT_LINT: &str = "transport-bypass";
    for f in files.iter().filter(|f| !norm(&f.path).ends_with("soap/src/tcp.rs")) {
        let sites: Vec<RatchetSite> =
            f.tcp_stream_sites.iter().map(|&l| (l, String::new())).collect();
        ratchet_file(
            &mut out,
            allowlist,
            TRANSPORT_LINT,
            "raw socket use(s)",
            consumed.entry(TRANSPORT_LINT).or_default(),
            f,
            &sites,
            &|actual, allowed, _| {
                format!(
                    "{actual} raw TcpStream/TcpListener use(s) outside crates/soap/src/tcp.rs \
                     (allowlist permits {allowed}); go through the `Transport` seam or extend \
                     {allow_path}"
                )
            },
        );
    }

    // A lock guard live across a `Bus::call`/`call_async`/transport call
    // or socket I/O: the callee can block on a timeout, a full queue, or
    // a remote peer while every other contender of that lock waits — the
    // deadlock-by-blocking shape the dynamic lock-order detector cannot
    // see (it only orders lock pairs, and the blocked party here holds
    // none). Guards must drop before the exchange.
    const GUARD_DISPATCH_LINT: &str = "guard-across-dispatch";
    for f in files {
        let sites: Vec<RatchetSite> = f
            .guard_dispatch_sites
            .iter()
            .map(|c| {
                (
                    c.line,
                    format!(
                        "guard `{}` (taken on line {}) across `{}`",
                        c.guard, c.guard_line, c.what
                    ),
                )
            })
            .collect();
        ratchet_file(
            &mut out,
            allowlist,
            GUARD_DISPATCH_LINT,
            "guard-across-dispatch site(s)",
            consumed.entry(GUARD_DISPATCH_LINT).or_default(),
            f,
            &sites,
            &|_, _, detail| {
                format!(
                    "lock {detail}: a blocking exchange under a live guard stalls every \
                     contender and can deadlock the fabric; drop the guard first"
                )
            },
        );
    }

    // A lock guard live across `thread::sleep`/`recv_timeout`/injected
    // sleeps: the nap is billed to every thread contending for the lock.
    // (Condvar `wait`/`wait_timeout` are exempt by construction — a wait
    // atomically releases its own mutex.)
    const GUARD_SLEEP_LINT: &str = "guard-across-sleep";
    for f in files {
        let sites: Vec<RatchetSite> = f
            .guard_sleep_sites
            .iter()
            .map(|c| {
                (
                    c.line,
                    format!(
                        "guard `{}` (taken on line {}) across `{}`",
                        c.guard, c.guard_line, c.what
                    ),
                )
            })
            .collect();
        ratchet_file(
            &mut out,
            allowlist,
            GUARD_SLEEP_LINT,
            "guard-across-sleep site(s)",
            consumed.entry(GUARD_SLEEP_LINT).or_default(),
            f,
            &sites,
            &|_, _, detail| {
                format!(
                    "lock {detail}: sleeping under a live guard stalls every contender for \
                     the whole pause; drop the guard before pausing"
                )
            },
        );
    }

    // Direct `std::sync::Mutex`/`RwLock`/`Condvar` use outside the
    // `dais_util::sync` wrappers bypasses the lock-order deadlock
    // detector: acquisitions are never classed or edge-checked, so an
    // inversion through such a lock goes unobserved until it deadlocks
    // for real. The wrapper module and the detector's own internals are
    // exempt (they *are* the implementation).
    const RAW_SYNC_LINT: &str = "raw-sync-primitive";
    const RAW_SYNC_EXEMPT: &[&str] =
        &["util/src/sync.rs", "util/src/lockorder.rs", "util/src/pool.rs"];
    for f in files {
        let path = norm(&f.path);
        if RAW_SYNC_EXEMPT.iter().any(|e| path.ends_with(e)) {
            continue;
        }
        let sites: Vec<RatchetSite> =
            f.raw_sync_sites.iter().map(|l| (l.line, l.value.clone())).collect();
        ratchet_file(
            &mut out,
            allowlist,
            RAW_SYNC_LINT,
            "raw std::sync primitive(s)",
            consumed.entry(RAW_SYNC_LINT).or_default(),
            f,
            &sites,
            &|_, _, name| {
                format!(
                    "`std::sync::{name}` bypasses the lock-order deadlock detector; use \
                     `dais_util::sync::{name}` (see crates/util/src/lockorder.rs)"
                )
            },
        );
    }

    // ---- Staleness sweep over every `<lint>:<file>` entry: an entry
    // whose lint never consumed it names a file outside the lint's scope
    // (or a lint that does not exist) and must go.
    for ((lint, path), (_, entry_line)) in &allowlist.lint_entries {
        let stale = consumed.get(lint.as_str()).is_none_or(|c| !c.contains(path));
        if stale {
            out.push(Violation {
                lint: "stale-allowlist",
                severity: Severity::Warning,
                file: allowlist.path.clone(),
                line: *entry_line,
                message: format!("allowlist entry `{lint}:{path}` matches no scanned file"),
            });
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parsing() {
        let a = Allowlist::parse(
            PathBuf::from("x.allow"),
            "# comment\ncrates/a/src/b.rs 3\n\ncrates/c/src/d.rs 1 # trailing\n\
             transport-bypass:crates/soap/src/e.rs 2\n",
        );
        assert_eq!(a.entries.len(), 2);
        assert_eq!(a.entries["crates/a/src/b.rs"], (3, 2));
        assert_eq!(a.entries["crates/c/src/d.rs"], (1, 4));
        assert_eq!(a.lint_entries.len(), 1);
        assert_eq!(a.allowed_for("transport-bypass", "crates/soap/src/e.rs"), 2);
        assert_eq!(a.allowed_for("transport-bypass", "crates/soap/src/f.rs"), 0);
    }
}
