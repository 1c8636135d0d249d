//! Per-file fact extraction.
//!
//! Walks a token stream (with `#[cfg(test)]` items stripped) and pulls
//! out the facts the lints cross-check: SOAP action constants and their
//! use sites, fault-name and property-name literals, and
//! `unwrap()`/`expect()` calls.

use crate::lexer::{tokenize, Token, TokenKind};
use std::path::{Path, PathBuf};

/// Where an action reference appears, which determines what the
/// cross-checks expect of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A client sends this action (`*client.rs` outside special fns).
    Send,
    /// A dispatcher registers a handler for it (`*service.rs`).
    Register,
    /// Listed in an `idempotent_actions()` declaration.
    IdempotencyDecl,
    /// Anything else (re-exports, docs-adjacent helpers).
    Other,
}

/// A `pub const NAME: &str = "uri"` inside a `pub mod actions` block.
#[derive(Debug, Clone)]
pub struct ActionConst {
    pub name: String,
    pub uri: String,
    pub line: usize,
}

/// A path reference ending in `actions::NAME` outside the defining mod.
#[derive(Debug, Clone)]
pub struct ActionSite {
    /// `dais_<crate>` qualifier if the path named one explicitly.
    pub crate_hint: Option<String>,
    pub const_name: String,
    pub kind: SiteKind,
    pub line: usize,
}

/// A string literal with its line.
#[derive(Debug, Clone)]
pub struct Literal {
    pub value: String,
    pub line: usize,
}

/// A lock guard observed live across a blocking call: the binding, where
/// it was taken, and the first offending call inside its live range.
#[derive(Debug, Clone)]
pub struct GuardCrossing {
    /// The guard binding's name.
    pub guard: String,
    /// Line of the `let guard = ….lock()/read()/write()` binding.
    pub guard_line: usize,
    /// Line of the call the guard is live across.
    pub line: usize,
    /// What the guard crossed, e.g. `.call(` or `thread::sleep(`.
    pub what: String,
}

/// Everything extracted from one source file.
#[derive(Debug, Default)]
pub struct FileFacts {
    /// Path relative to the scan root.
    pub path: PathBuf,
    /// The crate directory name under `crates/`.
    pub crate_name: String,
    pub consts: Vec<ActionConst>,
    /// Const names listed in the mod's `ALL` inventory, if it has one.
    pub all_members: Option<Vec<String>>,
    /// Line of the `ALL` inventory declaration.
    pub all_line: usize,
    pub sites: Vec<ActionSite>,
    /// Literals shaped like DAIS fault names (`UpperCamelFault`).
    pub fault_literals: Vec<Literal>,
    /// Upper-camel literals in `properties.rs` files (property QNames).
    pub property_literals: Vec<Literal>,
    /// String literals outside `mod actions` (checked against action URIs).
    pub string_literals: Vec<Literal>,
    /// Lines of `.unwrap()` / `.expect("...")` calls in library code.
    pub unwrap_sites: Vec<usize>,
    /// Lines of `.to_bytes()` calls (checked on the soap wire path,
    /// where the pooled `to_bytes_into` variant avoids the allocation).
    pub to_bytes_sites: Vec<usize>,
    /// Lines mentioning `TcpStream`/`TcpListener` (raw sockets are
    /// confined to `crates/soap/src/tcp.rs`, behind the Transport seam).
    pub tcp_stream_sites: Vec<usize>,
    /// Lock guards live across a bus/transport call (`.call(`,
    /// `.call_async(`, socket I/O, …): the deadlock-by-blocking shape the
    /// dynamic lock-order detector cannot see.
    pub guard_dispatch_sites: Vec<GuardCrossing>,
    /// Lock guards live across a sleep (`thread::sleep`, `recv_timeout`,
    /// injected-sleep call sites): every contender stalls for the nap.
    pub guard_sleep_sites: Vec<GuardCrossing>,
    /// `std::sync::Mutex`/`RwLock`/`Condvar` references (imports or
    /// qualified paths); raw primitives bypass the lock-order detector
    /// in `dais_util::sync`. `value` holds the primitive's name.
    pub raw_sync_sites: Vec<Literal>,
}

/// Tokenise and strip `#[cfg(test)]` items, then extract facts.
pub fn scan_file(root: &Path, rel_path: &Path, src: &str) -> FileFacts {
    let tokens = strip_cfg_test(tokenize(src));
    let crate_name = rel_path
        .components()
        .nth(1)
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .unwrap_or_default();
    let _ = root;
    let file_name = rel_path.file_name().map(|f| f.to_string_lossy().into_owned());
    let file_name = file_name.unwrap_or_default();
    let default_kind = if file_name.ends_with("client.rs") {
        SiteKind::Send
    } else if file_name.ends_with("service.rs") {
        SiteKind::Register
    } else {
        SiteKind::Other
    };

    let mut facts = FileFacts { path: rel_path.to_path_buf(), crate_name, ..FileFacts::default() };

    // Byte-offset-free context tracking: ranges are token indexes.
    let actions_mod = find_block(&tokens, |w| {
        w.len() >= 3 && w[0].is_ident("pub") && w[1].is_ident("mod") && w[2].is_ident("actions")
    });
    let idem_fn = find_block(&tokens, |w| {
        w.len() >= 2 && w[0].is_ident("fn") && w[1].is_ident("idempotent_actions")
    });

    let in_range = |r: &Option<(usize, usize)>, i: usize| r.is_some_and(|(a, b)| i >= a && i < b);

    let is_properties_file = file_name == "properties.rs";

    let mut i = 0;
    while i < tokens.len() {
        let tok = &tokens[i];
        match tok.kind {
            TokenKind::Str => {
                if in_range(&actions_mod, i) {
                    // Const definitions are handled below; skip literals here.
                } else {
                    facts.string_literals.push(Literal { value: tok.text.clone(), line: tok.line });
                    if looks_like_fault_name(&tok.text) {
                        facts
                            .fault_literals
                            .push(Literal { value: tok.text.clone(), line: tok.line });
                    }
                    if is_properties_file && is_upper_camel(&tok.text) {
                        facts
                            .property_literals
                            .push(Literal { value: tok.text.clone(), line: tok.line });
                    }
                }
            }
            TokenKind::Ident => {
                // Raw socket types anywhere in library code: `use`
                // imports, type positions, and `TcpStream::connect`
                // call paths all count — the transport module is the
                // only place sockets belong.
                if tok.text == "TcpStream" || tok.text == "TcpListener" {
                    facts.tcp_stream_sites.push(tok.line);
                }
                // `std::sync::Mutex`/`RwLock`/`Condvar` — either a
                // qualified path or members of a `use std::sync::{...}`
                // tree. Construction sites always follow one of these.
                if tok.text == "std"
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 3).is_some_and(|t| t.is_ident("sync"))
                    && tokens.get(i + 4).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 5).is_some_and(|t| t.is_punct(':'))
                {
                    match tokens.get(i + 6) {
                        Some(t) if is_raw_sync_primitive(&t.text) => {
                            facts
                                .raw_sync_sites
                                .push(Literal { value: t.text.clone(), line: t.line });
                        }
                        Some(t) if t.is_punct('{') => {
                            // Walk the use-tree; nested sub-trees (e.g.
                            // `atomic::{...}`) contain no primitive names.
                            let open_depth = t.depth;
                            let mut j = i + 7;
                            while j < tokens.len() {
                                let m = &tokens[j];
                                if m.is_punct('}') && m.depth == open_depth {
                                    break;
                                }
                                if m.kind == TokenKind::Ident
                                    && is_raw_sync_primitive(&m.text)
                                    && m.depth == open_depth + 1
                                {
                                    facts
                                        .raw_sync_sites
                                        .push(Literal { value: m.text.clone(), line: m.line });
                                }
                                j += 1;
                            }
                        }
                        _ => {}
                    }
                }
                // `pub const NAME: ... = "uri";` inside the actions mod.
                if in_range(&actions_mod, i) && tok.is_ident("const") {
                    if let Some(name_tok) = tokens.get(i + 1) {
                        if name_tok.kind == TokenKind::Ident {
                            if name_tok.text == "ALL" {
                                let (members, end) = scan_all_inventory(&tokens, i + 2);
                                facts.all_members = Some(members);
                                facts.all_line = name_tok.line;
                                i = end;
                                continue;
                            }
                            // Find the value literal before the `;`.
                            let mut j = i + 2;
                            while j < tokens.len() && !tokens[j].is_punct(';') {
                                if tokens[j].kind == TokenKind::Str {
                                    facts.consts.push(ActionConst {
                                        name: name_tok.text.clone(),
                                        uri: tokens[j].text.clone(),
                                        line: name_tok.line,
                                    });
                                    break;
                                }
                                j += 1;
                            }
                        }
                    }
                }
                // `.unwrap()` / `.expect("...")` — only the argument-free
                // Option/Result forms, not `unwrap_or`, not parser methods
                // taking non-string arguments.
                if i > 0 && tokens[i - 1].is_punct('.') {
                    if tok.is_ident("unwrap")
                        && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                        && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
                    {
                        facts.unwrap_sites.push(tok.line);
                    }
                    if tok.is_ident("expect")
                        && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                        && tokens.get(i + 2).is_some_and(|t| t.kind == TokenKind::Str)
                    {
                        facts.unwrap_sites.push(tok.line);
                    }
                    // `.to_bytes()` — the argument-free serialise-to-owned
                    // form with a pooled `to_bytes_into` counterpart.
                    if tok.is_ident("to_bytes")
                        && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
                        && tokens.get(i + 2).is_some_and(|t| t.is_punct(')'))
                    {
                        facts.to_bytes_sites.push(tok.line);
                    }
                }
                // `...actions::NAME` path references outside the mod.
                if !in_range(&actions_mod, i)
                    && (tok.text == "actions" || tok.text.ends_with("_actions"))
                    && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
                    && tokens.get(i + 3).is_some_and(|t| {
                        t.kind == TokenKind::Ident
                            && t.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                    })
                {
                    let name_tok = &tokens[i + 3];
                    let kind = if in_range(&idem_fn, i) {
                        SiteKind::IdempotencyDecl
                    } else {
                        default_kind
                    };
                    facts.sites.push(ActionSite {
                        crate_hint: crate_hint(&tokens, i),
                        const_name: name_tok.text.clone(),
                        kind,
                        line: name_tok.line,
                    });
                    i += 4;
                    continue;
                }
            }
            TokenKind::Punct => {}
        }
        i += 1;
    }
    scan_guard_bindings(&tokens, &mut facts);
    facts
}

/// Methods whose arg-free trailing call marks a lock-guard binding.
fn is_guard_method(name: &str) -> bool {
    matches!(name, "lock" | "read" | "write")
}

fn is_raw_sync_primitive(name: &str) -> bool {
    matches!(name, "Mutex" | "RwLock" | "Condvar")
}

/// Calls that block on another party while a guard is live: bus
/// exchanges and socket I/O. `wait`/`wait_timeout` are deliberately
/// absent — a condvar wait *must* hold its own mutex's guard.
fn dispatch_trigger(name: &str) -> bool {
    matches!(name, "call" | "call_async" | "serve_wire" | "write_all" | "read_exact" | "flush")
}

/// Recognise `let [mut] NAME = <expr>.lock()/.read()/.write()[.unwrap()
/// /.expect("…")];` bindings and scan each guard's live range — from the
/// binding to `drop(NAME)` or the end of the enclosing block — for calls
/// it must not cross. Purely lexical: a guard moved into another binding
/// or returned escapes this analysis, which is fine for a lint whose job
/// is the common shapes.
fn scan_guard_bindings(tokens: &[Token], facts: &mut FileFacts) {
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("let") {
            i += 1;
            continue;
        }
        let let_depth = tokens[i].depth;
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        let Some(name_tok) = tokens.get(j).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        // `let NAME = …` or `let NAME: Type = …`; pattern bindings
        // (`let Some(g) = …`) never bind a bare guard and are skipped.
        let mut k = j + 1;
        if tokens.get(k).is_some_and(|t| t.is_punct(':')) {
            while k < tokens.len()
                && !(tokens[k].is_punct('=') && tokens[k].depth == let_depth)
                && !(tokens[k].is_punct(';') && tokens[k].depth == let_depth)
            {
                k += 1;
            }
        }
        if !tokens.get(k).is_some_and(|t| t.is_punct('=') && t.depth == let_depth) {
            i += 1;
            continue;
        }
        // The statement's terminating `;` sits back at the let's depth.
        let mut semi = k + 1;
        while semi < tokens.len()
            && !(tokens[semi].is_punct(';') && tokens[semi].depth == let_depth)
        {
            semi += 1;
        }
        if semi >= tokens.len() {
            break;
        }
        // Strip trailing `.unwrap()` / `.expect("…")`, then require the
        // initializer to end in an arg-free `.lock()`/`.read()`/`.write()`
        // (arg-free distinguishes them from `io::Read`/`io::Write`).
        let mut end = semi;
        loop {
            if end >= 4
                && tokens[end - 1].is_punct(')')
                && tokens[end - 2].is_punct('(')
                && tokens[end - 3].is_ident("unwrap")
                && tokens[end - 4].is_punct('.')
            {
                end -= 4;
            } else if end >= 5
                && tokens[end - 1].is_punct(')')
                && tokens[end - 2].kind == TokenKind::Str
                && tokens[end - 3].is_punct('(')
                && tokens[end - 4].is_ident("expect")
                && tokens[end - 5].is_punct('.')
            {
                end -= 5;
            } else {
                break;
            }
        }
        let is_guard = end >= 4
            && tokens[end - 1].is_punct(')')
            && tokens[end - 2].is_punct('(')
            && tokens[end - 3].kind == TokenKind::Ident
            && is_guard_method(&tokens[end - 3].text)
            && tokens[end - 4].is_punct('.');
        if !is_guard {
            i = semi;
            continue;
        }
        let guard = name_tok.text.clone();
        let guard_line = name_tok.line;
        // Live range: to `drop(NAME)` or the `}` closing the let's block.
        let mut scope_end = tokens.len();
        let mut d = semi + 1;
        while d < tokens.len() {
            let t = &tokens[d];
            if t.is_punct('}') && t.depth < let_depth {
                scope_end = d;
                break;
            }
            if t.is_ident("drop")
                && tokens.get(d + 1).is_some_and(|n| n.is_punct('('))
                && tokens.get(d + 2).is_some_and(|n| n.is_ident(&guard))
                && tokens.get(d + 3).is_some_and(|n| n.is_punct(')'))
            {
                scope_end = d;
                break;
            }
            d += 1;
        }
        let mut dispatch_hit = false;
        let mut sleep_hit = false;
        for t in semi + 1..scope_end {
            let tok = &tokens[t];
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let crossing = |what: String| GuardCrossing {
                guard: guard.clone(),
                guard_line,
                line: tok.line,
                what,
            };
            if !dispatch_hit {
                let method_call = t >= 1
                    && tokens[t - 1].is_punct('.')
                    && dispatch_trigger(&tok.text)
                    && tokens.get(t + 1).is_some_and(|n| n.is_punct('('));
                if method_call {
                    facts.guard_dispatch_sites.push(crossing(format!(".{}(", tok.text)));
                    dispatch_hit = true;
                } else if tok.text == "TcpStream" || tok.text == "TcpListener" {
                    facts.guard_dispatch_sites.push(crossing(tok.text.clone()));
                    dispatch_hit = true;
                }
            }
            if !sleep_hit
                && (tok.is_ident("sleep") || tok.is_ident("recv_timeout"))
                && tokens.get(t + 1).is_some_and(|n| n.is_punct('('))
            {
                facts.guard_sleep_sites.push(crossing(format!("{}(", tok.text)));
                sleep_hit = true;
            }
            if dispatch_hit && sleep_hit {
                break;
            }
        }
        i = semi;
    }
}

/// `dais_core::messages::actions::X` → Some("core"); also resolves
/// `wsrf_actions` aliases (`use dais_wsrf::actions as wsrf_actions`).
fn crate_hint(tokens: &[Token], actions_idx: usize) -> Option<String> {
    let seg = &tokens[actions_idx].text;
    if let Some(prefix) = seg.strip_suffix("_actions") {
        if !prefix.is_empty() {
            return Some(prefix.to_string());
        }
    }
    // Walk leading `ident ::` segments backwards looking for `dais_<x>`.
    let mut i = actions_idx;
    while i >= 3
        && tokens[i - 1].is_punct(':')
        && tokens[i - 2].is_punct(':')
        && tokens[i - 3].kind == TokenKind::Ident
    {
        i -= 3;
        if let Some(c) = tokens[i].text.strip_prefix("dais_") {
            return Some(c.to_string());
        }
    }
    None
}

/// `pub const ALL: &[&str] = &[A, B, ...];` — collect the member idents.
fn scan_all_inventory(tokens: &[Token], mut i: usize) -> (Vec<String>, usize) {
    let mut members = Vec::new();
    // Skip to the `=`, then collect idents until the closing `;`.
    while i < tokens.len() && !tokens[i].is_punct('=') {
        i += 1;
    }
    while i < tokens.len() && !tokens[i].is_punct(';') {
        if tokens[i].kind == TokenKind::Ident {
            members.push(tokens[i].text.clone());
        }
        i += 1;
    }
    (members, i)
}

/// Find the token-index range `(start_of_block, past_close)` of the first
/// item whose header matches `pred` (a window starting at each token).
fn find_block(tokens: &[Token], pred: impl Fn(&[Token]) -> bool) -> Option<(usize, usize)> {
    for i in 0..tokens.len() {
        if pred(&tokens[i..]) {
            // Find the opening brace of the item body.
            let mut j = i;
            while j < tokens.len() && !tokens[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 0usize;
            let start = j;
            while j < tokens.len() {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        return Some((start, j + 1));
                    }
                }
                j += 1;
            }
            return Some((start, tokens.len()));
        }
    }
    None
}

/// Remove every item annotated `#[cfg(test)]` (or any `cfg(...)` whose
/// predicate mentions `test` without a `not`). Items end at a matching
/// closing brace or, for brace-less items like `use`, at a `;`.
pub fn strip_cfg_test(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_punct('#')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            // Collect the cfg predicate idents up to the matching `)`.
            let mut j = i + 4;
            let mut depth = 1usize;
            let mut has_test = false;
            let mut has_not = false;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('(') {
                    depth += 1;
                } else if tokens[j].is_punct(')') {
                    depth -= 1;
                } else if tokens[j].is_ident("test") {
                    has_test = true;
                } else if tokens[j].is_ident("not") {
                    has_not = true;
                }
                j += 1;
            }
            // Step past the closing `]`.
            while j < tokens.len() && !tokens[j].is_punct(']') {
                j += 1;
            }
            j += 1;
            if has_test && !has_not {
                // Skip the annotated item: through further attributes and
                // the header to `{ ... }` (matched) or a bare `;`.
                let mut depth = 0usize;
                while j < tokens.len() {
                    if tokens[j].is_punct('{') {
                        depth += 1;
                    } else if tokens[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    } else if tokens[j].is_punct(';') && depth == 0 {
                        j += 1;
                        break;
                    }
                    j += 1;
                }
                i = j;
                continue;
            }
            // Not test-gated: keep the attribute tokens verbatim.
            out.extend_from_slice(&tokens[i..j.min(tokens.len())]);
            i = j;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Does a literal look like a SOAP action URI (namespace plus an
/// operation segment), as opposed to a bare namespace? Namespace
/// constants (`BASE`, `ns::WSDAIR`) share the prefix but stop at the
/// spec segment.
pub fn looks_like_action_uri(s: &str) -> bool {
    if let Some(rest) = s.strip_prefix("http://www.ggf.org/namespaces/") {
        // `<date>/WS-DAIx` is a namespace; an action has a further segment.
        if let Some(pos) = rest.find("/WS-DAI") {
            let after = &rest[pos + 1..];
            return after.contains('/') && !after.ends_with('/');
        }
        return false;
    }
    if let Some(rest) = s.strip_prefix("http://docs.oasis-open.org/wsrf/") {
        // `rpw-2` alone is a namespace; `rpw-2/GetResourceProperty` acts.
        return rest.contains('/') && !rest.ends_with('/');
    }
    false
}

/// `InvalidResourceNameFault` — upper-camel, alphanumeric, `Fault` suffix.
pub fn looks_like_fault_name(s: &str) -> bool {
    s.len() > "Fault".len()
        && s.ends_with("Fault")
        && s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_ascii_alphanumeric())
}

/// `DataResourceAbstractName` — an upper-camel alphanumeric word.
pub fn is_upper_camel(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && s.len() > 1
        && s.chars().all(|c| c.is_ascii_alphanumeric())
        && s.chars().any(|c| c.is_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(name: &str, src: &str) -> FileFacts {
        scan_file(Path::new("."), Path::new(name), src)
    }

    #[test]
    fn extracts_consts_and_inventory() {
        let src = r#"
            pub mod actions {
                pub const GET_X: &str = "http://example.org/ns/GetX";
                pub const PUT_X: &str = "http://example.org/ns/PutX";
                pub const ALL: &[&str] = &[GET_X, PUT_X];
            }
        "#;
        let f = scan("crates/alpha/src/messages.rs", src);
        assert_eq!(f.consts.len(), 2);
        assert_eq!(f.consts[0].name, "GET_X");
        assert_eq!(f.consts[0].uri, "http://example.org/ns/GetX");
        assert_eq!(f.all_members.as_deref(), Some(&["GET_X".to_string(), "PUT_X".to_string()][..]));
        assert!(f.sites.is_empty(), "ALL members are not use sites");
    }

    #[test]
    fn classifies_sites_by_context() {
        let src = r#"
            pub fn idempotent_actions() -> IdempotencySet {
                IdempotencySet::new([actions::GET_X, dais_core::messages::actions::RESOLVE])
            }
            pub fn send(c: &Client) {
                c.request(actions::GET_X, body);
            }
        "#;
        let f = scan("crates/alpha/src/client.rs", src);
        assert_eq!(f.sites.len(), 3);
        assert_eq!(f.sites[0].kind, SiteKind::IdempotencyDecl);
        assert_eq!(f.sites[1].kind, SiteKind::IdempotencyDecl);
        assert_eq!(f.sites[1].crate_hint.as_deref(), Some("core"));
        assert_eq!(f.sites[2].kind, SiteKind::Send);
    }

    #[test]
    fn service_files_register_and_aliases_resolve() {
        let src = "fn reg(d: &mut D) { d.register(wsrf_actions::DESTROY, h); }";
        let f = scan("crates/alpha/src/service.rs", src);
        assert_eq!(f.sites.len(), 1);
        assert_eq!(f.sites[0].kind, SiteKind::Register);
        assert_eq!(f.sites[0].crate_hint.as_deref(), Some("wsrf"));
    }

    #[test]
    fn cfg_test_items_are_stripped() {
        let src = r#"
            fn lib() { x.unwrap(); }
            #[cfg(test)]
            mod tests {
                fn t() { y.unwrap(); y.expect("boom"); }
            }
            #[cfg(not(test))]
            fn kept() { z.unwrap(); }
        "#;
        let f = scan("crates/alpha/src/lib.rs", src);
        assert_eq!(f.unwrap_sites.len(), 2);
    }

    #[test]
    fn unwrap_forms_are_distinguished() {
        let src = r#"
            fn f() {
                a.unwrap();
                b.unwrap_or(0);
                c.unwrap_or_else(|| 0);
                d.expect("msg");
                self.expect(&Token::Comma);
                e.expected("not it");
            }
        "#;
        let f = scan("crates/alpha/src/x.rs", src);
        assert_eq!(f.unwrap_sites.len(), 2);
    }

    #[test]
    fn to_bytes_calls_are_recorded_but_definitions_are_not() {
        let src = r#"
            pub fn to_bytes(&self) -> Vec<u8> { self.to_bytes_into(&mut v) }
            fn hot(env: &Envelope) { let b = env.to_bytes(); send(b); }
            #[cfg(test)]
            mod tests { fn t(e: &Envelope) { e.to_bytes(); } }
        "#;
        let f = scan("crates/soap/src/x.rs", src);
        assert_eq!(f.to_bytes_sites.len(), 1);
    }

    #[test]
    fn raw_socket_idents_are_recorded_outside_tests() {
        let src = r#"
            use std::net::{TcpListener, TcpStream};
            fn open(addr: &str) -> std::io::Result<TcpStream> {
                TcpStream::connect(addr)
            }
            fn named() { let _ = tcp_stream_count(); }
            #[cfg(test)]
            mod tests { use std::net::TcpStream; fn t() { TcpStream::connect("x"); } }
        "#;
        let f = scan("crates/alpha/src/socket.rs", src);
        // Import (both idents), return type, and call path — tests and
        // lookalike identifiers stay silent.
        assert_eq!(f.tcp_stream_sites.len(), 4);
    }

    #[test]
    fn fault_and_property_literal_shapes() {
        assert!(looks_like_fault_name("ServiceBusyFault"));
        assert!(!looks_like_fault_name("Fault"));
        assert!(!looks_like_fault_name("fault"));
        assert!(!looks_like_fault_name("Not A Fault"));
        assert!(is_upper_camel("DataResourceAbstractName"));
        assert!(!is_upper_camel("SCREAMING"));
        assert!(!is_upper_camel("lower"));
        assert!(!is_upper_camel("Has Space"));
    }

    #[test]
    fn guard_across_dispatch_is_recorded() {
        let src = r#"
            fn bad(&self, bus: &Bus) {
                let state = self.state.lock();
                bus.call(to, action, req);
            }
            fn also_bad(&self) {
                let mut table = self.routes.write().unwrap();
                let stream = TcpStream::connect(addr);
            }
            fn fine(&self, bus: &Bus) {
                let state = self.state.lock();
                drop(state);
                bus.call(to, action, req);
            }
            fn scoped_fine(&self, bus: &Bus) {
                {
                    let state = self.state.lock();
                    state.touch();
                }
                bus.call(to, action, req);
            }
        "#;
        let f = scan("crates/alpha/src/driver.rs", src);
        assert_eq!(f.guard_dispatch_sites.len(), 2);
        assert_eq!(f.guard_dispatch_sites[0].guard, "state");
        assert_eq!(f.guard_dispatch_sites[0].what, ".call(");
        assert_eq!(f.guard_dispatch_sites[1].guard, "table");
        assert_eq!(f.guard_dispatch_sites[1].what, "TcpStream");
    }

    #[test]
    fn guard_across_sleep_is_recorded_but_condvar_waits_are_not() {
        let src = r#"
            fn bad(&self) {
                let g = self.inner.lock();
                std::thread::sleep(Duration::from_millis(5));
            }
            fn injected(&self, config: &RetryConfig) {
                let g = self.inner.read();
                config.sleep(pause);
            }
            fn polling(&self, rx: &Receiver<u8>) {
                let g = self.inner.lock();
                let _ = rx.recv_timeout(Duration::from_millis(5));
            }
            fn condvar_ok(&self) {
                let mut g = self.inner.lock();
                while !*g {
                    g = self.cv.wait(g);
                }
                let (h, timed_out) = self.cv.wait_timeout(self.inner.lock(), d);
            }
        "#;
        let f = scan("crates/alpha/src/driver.rs", src);
        let whats: Vec<&str> = f.guard_sleep_sites.iter().map(|c| c.what.as_str()).collect();
        assert_eq!(whats, ["sleep(", "sleep(", "recv_timeout("]);
        assert!(f.guard_dispatch_sites.is_empty());
    }

    #[test]
    fn guard_recognition_handles_ascription_expect_and_non_guards() {
        let src = r#"
            fn f(&self) {
                let g: MutexGuard<'_, u8> = self.a.lock().expect("poisoned");
                std::thread::sleep(d);
            }
            fn not_guards(&self, file: &mut File, buf: &mut [u8]) {
                let n = file.read(buf);
                let bytes = self.encode().write_all(out);
                let x = compute();
                std::thread::sleep(d);
            }
        "#;
        let f = scan("crates/alpha/src/driver.rs", src);
        assert_eq!(f.guard_sleep_sites.len(), 1);
        assert_eq!(f.guard_sleep_sites[0].guard, "g");
    }

    #[test]
    fn raw_sync_paths_and_use_trees_are_recorded() {
        let src = r#"
            use std::sync::{Arc, Condvar, Mutex, Weak};
            use std::sync::RwLock;
            use std::sync::atomic::{AtomicBool, Ordering};
            fn f() -> std::sync::Mutex<u8> { std::sync::Mutex::new(0) }
            #[cfg(test)]
            mod tests { use std::sync::Mutex; }
        "#;
        let f = scan("crates/alpha/src/driver.rs", src);
        let names: Vec<&str> = f.raw_sync_sites.iter().map(|l| l.value.as_str()).collect();
        assert_eq!(names, ["Condvar", "Mutex", "RwLock", "Mutex", "Mutex"]);
    }

    #[test]
    fn property_literals_only_in_properties_files() {
        let src = r#"fn f() { doc.child(ns::WSDAI, "Readable"); }"#;
        let f = scan("crates/alpha/src/properties.rs", src);
        assert_eq!(f.property_literals.len(), 1);
        let f = scan("crates/alpha/src/resource.rs", src);
        assert!(f.property_literals.is_empty());
    }
}
