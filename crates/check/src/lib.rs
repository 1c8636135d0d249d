//! # dais-check
//!
//! Static analysis over this workspace's own source, for the rules the
//! type system does not carry. SOAP actions, DAIS faults, property names
//! and shard addresses are typed values (`dais_soap::Action`,
//! `dais_soap::DaisFault`, `dais_core::PropertyName`,
//! `dais_federation::ShardAddress`), and `Envelope` has no owned-bytes
//! serialiser, so the compiler already refuses what the retired
//! convention lints used to police. What is left are facts about call
//! sites, checked here with a self-contained token scanner (no syn, no
//! external deps: the workspace builds offline): lock guards held across
//! blocking calls, raw `std::sync` and socket use, and the unwrap
//! ratchet. See DESIGN.md §9 for the lint catalogue.
//!
//! Run it with `cargo run -p dais-check`. Exit status is non-zero when
//! any violation is found; `crates/check/dais-check.allow` holds the
//! ratchet allowlist for the `unwrap-in-library` lint.

pub mod lexer;
pub mod lints;
pub mod scan;

pub use lints::{Allowlist, Severity, Violation};

use scan::FileFacts;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The outcome of a workspace scan.
#[derive(Debug)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Render all diagnostics rustc-style.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}[dais-check::{}]: {}\n  --> {}:{}\n",
                v.severity,
                v.lint,
                v.message,
                v.file.display(),
                v.line
            ));
        }
        if self.is_clean() {
            out.push_str(&format!("dais-check: clean ({} files scanned)\n", self.files_scanned));
        } else {
            out.push_str(&format!(
                "dais-check: {} violation(s) across {} files scanned\n",
                self.violations.len(),
                self.files_scanned
            ));
        }
        out
    }

    /// Render the report as a single JSON object for machine consumers
    /// (CI annotations, dashboards). The schema is stable: a `violations`
    /// array of `{lint, severity, file, line, message}` objects plus
    /// `files_scanned` and `clean`. Written by hand — the workspace
    /// builds offline, so no serde.
    pub fn render_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let mut out = String::from("{\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"lint\": \"{}\", \"severity\": \"{}\", \"file\": \"{}\", \
                 \"line\": {}, \"message\": \"{}\"}}",
                esc(v.lint),
                v.severity,
                esc(&v.file.display().to_string()),
                v.line,
                esc(&v.message)
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.is_clean()
        ));
        out
    }
}

/// Scan the workspace rooted at `root` (the directory containing
/// `crates/`) and run every lint.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let allowlist = load_allowlist(root)?;
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs_files(root, &src, &mut files)?;
        }
    }
    let files_scanned = files.len();
    let violations = lints::run_lints(&files, &allowlist);
    Ok(Report { violations, files_scanned })
}

/// The allowlist lives next to this crate in the real workspace; fixture
/// trees keep one at their own root.
fn load_allowlist(root: &Path) -> io::Result<Allowlist> {
    for candidate in [root.join("crates/check/dais-check.allow"), root.join("dais-check.allow")] {
        if candidate.is_file() {
            let content = fs::read_to_string(&candidate)?;
            return Ok(Allowlist::parse(candidate, &content));
        }
    }
    Ok(Allowlist { path: root.join("dais-check.allow"), ..Allowlist::default() })
}

/// Recursively collect and scan `.rs` files under `dir`, skipping `bin/`
/// directories (binaries are experiment drivers, not library surface).
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<FileFacts>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = fs::read_to_string(&path)?;
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            out.push(scan::scan_file(&rel, &src));
        }
    }
    Ok(())
}
