//! Per-file fact extraction.
//!
//! Walks a token stream (with `#[cfg(test)]` items stripped) and pulls
//! out the facts the lints check: `unwrap()`/`expect()` calls, raw
//! socket and `std::sync` uses, and lock guards live across blocking
//! calls.

use crate::lexer::{tokenize, Token, TokenKind};
use std::path::{Path, PathBuf};

/// A named site with its line.
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
    /// Lines of `.unwrap()` / `.expect("...")` calls in library code.
    pub unwrap_sites: Vec<usize>,
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
pub fn scan_file(rel_path: &Path, src: &str) -> FileFacts {
    let tokens = strip_cfg_test(tokenize(src));
    let mut facts = FileFacts { path: rel_path.to_path_buf(), ..FileFacts::default() };

    for (i, tok) in tokens.iter().enumerate() {
        match tok.kind {
            TokenKind::Str | TokenKind::Punct => {}
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
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(name: &str, src: &str) -> FileFacts {
        scan_file(Path::new(name), src)
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
}
