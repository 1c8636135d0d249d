//! A deterministic lock-order deadlock detector (debug builds only).
//!
//! Every [`crate::sync::Mutex`] and [`crate::sync::RwLock`] is classed by
//! its *construction site* (file:line:column, captured with
//! `#[track_caller]`). Acquisitions push onto a thread-local stack of
//! held classes; each `(held, acquiring)` pair feeds a process-global
//! order graph. The first acquisition that would close a cycle in that
//! graph panics immediately — before blocking — with both acquisition
//! chains, so an ABBA deadlock is caught the first time the two orders
//! are *observed*, even when the interleaving that would actually
//! deadlock never happens in the run.
//!
//! Acquisitions carry a [`Mode`]: `RwLock::read` is [`Mode::Shared`],
//! `RwLock::write` and `Mutex::lock` are [`Mode::Exclusive`]. A
//! shared-while-shared pair records no edge — two readers never block
//! each other, so `read(A) → read(B)` against `read(B) → read(A)` cannot
//! deadlock. Every pair with an exclusive end stays a strict edge:
//! `read(A) → write(B)` against `read(B) → write(A)` deadlocks (each
//! writer blocks on the other thread's reader), and the detector treats
//! it exactly like a Mutex inversion.
//!
//! Same-class edges are deliberately ignored: two locks built at one
//! site (e.g. per-resource locks minted in a loop) share a class, and
//! nesting them is indistinguishable from re-acquisition at this level.
//! The detector therefore never false-positives on instance fan-out, at
//! the cost of missing same-site inversions.
//!
//! The observed graph is exportable: [`snapshot`] returns the edge list
//! (deterministically ordered) and [`dot`] renders it as Graphviz for
//! review. `tests/lock_order_atlas.rs` drives representative workloads
//! and pins the file-level projection of this graph as a golden
//! artifact, so a PR that introduces a new lock ordering shows up as a
//! reviewed diff rather than a latent deadlock.
//!
//! The whole module is compiled out of release builds; see
//! [`crate::sync`] for the `cfg(debug_assertions)` call sites.

#![expect(clippy::disallowed_types, reason = "the detector cannot track its own graph")]

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::panic::Location;
use std::sync::{Mutex as StdMutex, OnceLock};

/// A lock class: the `&'static Location` of the lock's constructor.
pub type Site = &'static Location<'static>;

/// How an acquisition excludes other holders. Shared acquisitions
/// (`RwLock::read`) coexist; exclusive ones (`Mutex::lock`,
/// `RwLock::write`) block everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mode {
    Shared,
    Exclusive,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Shared => "R",
            Mode::Exclusive => "W",
        }
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Entries the per-thread `KNOWN` edge cache may hold before it is
/// reset. The cache only short-circuits the global mutex on steady-state
/// re-observations; clearing it is always correct, merely slower.
const KNOWN_CAP: usize = 4096;

#[derive(Clone, Copy)]
struct Held {
    /// Class of the lock this frame holds.
    class: Site,
    /// Where this acquisition happened.
    acquired_at: Site,
    mode: Mode,
    token: u64,
}

/// First observation of an ordering edge `from -> to`.
struct EdgeInfo {
    /// Where the `from` lock had been acquired when the edge was seen.
    holder_acquired_at: Site,
    /// Where the `to` acquisition that created the edge happened.
    acquiring_at: Site,
    /// Modes of the two acquisitions at first observation.
    held_mode: Mode,
    acquiring_mode: Mode,
}

#[derive(Default)]
struct Graph {
    edges: HashMap<(Site, Site), EdgeInfo>,
    adjacency: HashMap<Site, Vec<Site>>,
}

impl Graph {
    /// Is `to` reachable from `from` over recorded edges?
    fn reaches(&self, from: Site, to: Site) -> bool {
        let mut stack = vec![from];
        let mut seen: HashSet<Site> = HashSet::new();
        while let Some(node) = stack.pop() {
            if std::ptr::eq(node, to) {
                return true;
            }
            if !seen.insert(node) {
                continue;
            }
            if let Some(next) = self.adjacency.get(&node) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }
}

fn graph() -> &'static StdMutex<Graph> {
    static GRAPH: OnceLock<StdMutex<Graph>> = OnceLock::new();
    GRAPH.get_or_init(|| StdMutex::new(Graph::default()))
}

thread_local! {
    static HELD: RefCell<Vec<Held>> = const { RefCell::new(Vec::new()) };
    /// Per-thread cache of edges already recorded globally, so steady
    /// state acquisitions skip the global mutex entirely. Bounded by
    /// [`KNOWN_CAP`]: a long-lived thread touching many lock pairs
    /// resets the cache instead of growing it without limit.
    static KNOWN: RefCell<HashSet<(Site, Site)>> = RefCell::new(HashSet::new());
    static NEXT_TOKEN: RefCell<u64> = const { RefCell::new(0) };
}

fn site(s: Site) -> String {
    format!("{}:{}:{}", s.file(), s.line(), s.column())
}

/// Number of distinct ordering edges observed so far (for tests and the
/// stress workloads' sanity checks).
pub fn edges_observed() -> usize {
    graph().lock().unwrap_or_else(|e| e.into_inner()).edges.len()
}

/// One lock construction site, decomposed for export.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SiteInfo {
    pub file: String,
    pub line: u32,
    pub column: u32,
}

impl SiteInfo {
    fn of(s: Site) -> SiteInfo {
        SiteInfo { file: s.file().to_string(), line: s.line(), column: s.column() }
    }
}

impl fmt::Display for SiteInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.file, self.line, self.column)
    }
}

/// One observed acquisition-order edge: a lock of class `from` was held
/// (in `from_mode`) while a lock of class `to` was acquired (in
/// `to_mode`, modes as first observed).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EdgeSnapshot {
    pub from: SiteInfo,
    pub to: SiteInfo,
    pub from_mode: Mode,
    pub to_mode: Mode,
}

/// The observed acquisition-order graph, deterministically ordered by
/// (from, to) site. Empty in release builds (nothing records).
pub fn snapshot() -> Vec<EdgeSnapshot> {
    let graph = graph().lock().unwrap_or_else(|e| e.into_inner());
    let mut edges: Vec<EdgeSnapshot> = graph
        .edges
        .iter()
        .map(|((from, to), info)| EdgeSnapshot {
            from: SiteInfo::of(from),
            to: SiteInfo::of(to),
            from_mode: info.held_mode,
            to_mode: info.acquiring_mode,
        })
        .collect();
    edges.sort();
    edges
}

/// Render the observed acquisition-order graph as a Graphviz digraph.
/// Nodes are lock classes (construction sites); each edge is labelled
/// with the held/acquiring modes at first observation, e.g. `R->W`.
pub fn dot() -> String {
    let edges = snapshot();
    let mut nodes: Vec<&SiteInfo> = Vec::new();
    for e in &edges {
        for s in [&e.from, &e.to] {
            if !nodes.contains(&s) {
                nodes.push(s);
            }
        }
    }
    nodes.sort();
    let mut out = String::from("digraph lock_order {\n");
    for n in &nodes {
        out.push_str(&format!("  \"{n}\";\n"));
    }
    for e in &edges {
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}->{}\"];\n",
            e.from, e.to, e.from_mode, e.to_mode
        ));
    }
    out.push_str("}\n");
    out
}

/// Record that the current thread is about to acquire the lock classed
/// `class` from `acquired_at`, in `mode`. Panics if the acquisition
/// would invert an order already observed somewhere in the process.
/// Returns a token to hand back to [`release`] when the guard drops.
pub fn acquire(class: Site, acquired_at: Site, mode: Mode) -> u64 {
    let held: Vec<Held> = HELD.with(|h| h.borrow().clone());
    for frame in &held {
        if std::ptr::eq(frame.class, class) {
            // Same class: re-acquisition or sibling instance; not tracked.
            continue;
        }
        if frame.mode == Mode::Shared && mode == Mode::Shared {
            // Shared-while-shared: readers never exclude each other, so
            // opposite read orders cannot close a waits-for cycle.
            continue;
        }
        let edge = (frame.class, class);
        let cached = KNOWN.with(|k| k.borrow().contains(&edge));
        if cached {
            continue;
        }
        let mut graph = graph().lock().unwrap_or_else(|e| e.into_inner());
        if !graph.edges.contains_key(&edge) {
            if graph.reaches(class, frame.class) {
                let conflict = describe_conflict(&graph, class, frame.class);
                let chain = describe_held(&held);
                drop(graph);
                panic!(
                    "lock-order inversion: acquiring lock {} ({}, at {}) while holding lock {} \
                     would close a cycle in the observed acquisition order.\n  \
                     this thread holds:\n{chain}\n  \
                     conflicting order previously observed:\n{conflict}",
                    site(class),
                    mode,
                    site(acquired_at),
                    site(frame.class),
                );
            }
            graph.edges.insert(
                edge,
                EdgeInfo {
                    holder_acquired_at: frame.acquired_at,
                    acquiring_at: acquired_at,
                    held_mode: frame.mode,
                    acquiring_mode: mode,
                },
            );
            graph.adjacency.entry(frame.class).or_default().push(class);
        }
        drop(graph);
        KNOWN.with(|k| {
            let mut known = k.borrow_mut();
            if known.len() >= KNOWN_CAP {
                known.clear();
            }
            known.insert(edge);
        });
    }
    let token = NEXT_TOKEN.with(|t| {
        let mut t = t.borrow_mut();
        *t += 1;
        *t
    });
    HELD.with(|h| h.borrow_mut().push(Held { class, acquired_at, mode, token }));
    token
}

/// One line per held guard: its lock class, mode and acquisition site.
fn describe_held(held: &[Held]) -> String {
    held.iter()
        .map(|f| {
            format!("    {} held {}, acquired at {}", site(f.class), f.mode, site(f.acquired_at))
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Panic if the calling thread holds any tracked lock guard. Called
/// where a thread is about to block on something other than a lock —
/// a bus exchange, a queued reply, a sleep — because a guard held there
/// stalls every contender of its lock for the whole wait, and can
/// deadlock the fabric when the awaited party needs that lock. The
/// order graph cannot see this shape (the blocked party acquires
/// nothing), so it is checked where the blocking happens instead, and
/// through any depth of function calls.
pub fn assert_no_guard_held(what: &str) {
    let chain = HELD.with(|h| {
        let held = h.borrow();
        (!held.is_empty()).then(|| describe_held(&held))
    });
    if let Some(chain) = chain {
        panic!(
            "lock guard held across {what}: a blocking wait under a live guard stalls every \
             contender and can deadlock; drop the guard first.\n  this thread holds:\n{chain}"
        );
    }
}

/// Walk the recorded path `from -> ... -> to` and render each edge's
/// first-observed acquisition sites. Iterative DFS with an explicit
/// frame stack: the acquisition-order graph can grow one node per lock
/// construction site, and a panic path must not itself overflow the
/// stack on a deep chain.
fn describe_conflict(graph: &Graph, from: Site, to: Site) -> String {
    const NO_CHILDREN: &[Site] = &[];
    // Each frame is (node, index of the next child to try). The current
    // path is exactly the stack's nodes, in order.
    let mut stack: Vec<(Site, usize)> = vec![(from, 0)];
    let mut seen: HashSet<Site> = HashSet::new();
    seen.insert(from);
    let found = loop {
        let Some(frame) = stack.last_mut() else {
            break false;
        };
        let node = frame.0;
        if std::ptr::eq(node, to) {
            break true;
        }
        let children = graph.adjacency.get(&node).map(Vec::as_slice).unwrap_or(NO_CHILDREN);
        match children.get(frame.1) {
            Some(&next) => {
                frame.1 += 1;
                if seen.insert(next) {
                    stack.push((next, 0));
                }
            }
            None => {
                stack.pop();
            }
        }
    };
    if !found {
        return "    (path vanished — concurrent graph mutation)".to_string();
    }
    let path: Vec<Site> = stack.iter().map(|&(node, _)| node).collect();
    path.windows(2)
        .map(|w| {
            let info = &graph.edges[&(w[0], w[1])];
            format!(
                "    {} (held {}, acquired at {}) then {} ({}, acquired at {})",
                site(w[0]),
                info.held_mode,
                site(info.holder_acquired_at),
                site(w[1]),
                info.acquiring_mode,
                site(info.acquiring_at),
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The guard carrying `token` dropped; forget the acquisition. Guards
/// may drop out of LIFO order, so removal is by token, not by popping.
pub fn release(token: u64) {
    HELD.with(|h| {
        let mut held = h.borrow_mut();
        if let Some(i) = held.iter().rposition(|f| f.token == token) {
            held.remove(i);
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::sync::{Mutex, RwLock};
    use std::sync::Arc;

    #[test]
    fn consistent_order_never_panics() {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(RwLock::new(0u32));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (a, b) = (a.clone(), b.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let ga = a.lock();
                    let gb = b.write();
                    drop(gb);
                    drop(ga);
                }
            }));
        }
        for h in handles {
            h.join().expect("ordered workers never panic");
        }
    }

    #[test]
    fn inverted_order_is_caught_deterministically() {
        // Single-threaded: A then B records the edge; B then A must
        // panic before any real deadlock can form.
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        let (a2, b2) = (a.clone(), b.clone());
        let result = std::thread::spawn(move || {
            let _gb = b2.lock();
            let _ga = a2.lock(); // inversion
        })
        .join();
        let panic = result.expect_err("inverted acquisition must panic");
        let message = panic.downcast_ref::<String>().expect("panic carries a message");
        assert!(message.contains("lock-order inversion"), "{message}");
        assert!(message.contains("previously observed"), "{message}");
    }

    #[test]
    fn read_read_orders_never_edge_or_panic() {
        // Opposite read-read orders over the same pair: harmless, and
        // the graph must not even record them (the atlas stays quiet).
        let built_at = line!();
        let a = Arc::new(RwLock::new(0u32));
        let b = Arc::new(RwLock::new(0u32));
        {
            let _ga = a.read();
            let _gb = b.read();
        }
        {
            let _gb = b.read();
            let _ga = a.read(); // reversed, still fine
        }
        // Other tests in this binary record edges concurrently, so look
        // for an edge touching this pair's classes (built on the two
        // lines after `built_at`), not at the global edge count.
        let ours = |s: &super::SiteInfo| {
            s.file == file!() && (s.line == built_at + 1 || s.line == built_at + 2)
        };
        let edged = super::snapshot().iter().any(|e| ours(&e.from) || ours(&e.to));
        assert!(!edged, "read-read pairs must not edge");
    }

    #[test]
    fn read_then_write_edges_stay_strict() {
        // read(A) → write(B) vs read(B) → write(A) is a real deadlock
        // (each writer waits on the other thread's reader): the second
        // order must panic even though every hold is partly shared.
        let a = Arc::new(RwLock::new(0u32));
        let b = Arc::new(RwLock::new(0u32));
        {
            let _ga = a.read();
            let _gb = b.write();
        }
        let (a2, b2) = (a.clone(), b.clone());
        let result = std::thread::spawn(move || {
            let _gb = b2.read();
            let _ga = a2.write(); // inversion through a shared hold
        })
        .join();
        let panic = result.expect_err("shared/exclusive inversion must panic");
        let message = panic.downcast_ref::<String>().expect("panic carries a message");
        assert!(message.contains("lock-order inversion"), "{message}");
        assert!(message.contains("held R"), "modes must render: {message}");
    }

    #[test]
    fn same_class_nesting_is_ignored() {
        // Two locks from one construction site share a class; nesting
        // them must not be treated as an inversion.
        fn mint() -> Vec<Mutex<u32>> {
            (0..2).map(Mutex::new).collect()
        }
        let locks = mint();
        let _g0 = locks[0].lock();
        let _g1 = locks[1].lock();
    }

    #[test]
    fn out_of_order_guard_drops_are_tracked() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        let ga = a.lock();
        let gb = b.lock();
        drop(ga); // drop the outer guard first
        drop(gb);
        // The held stack must be empty again: a fresh acquisition pair
        // in the same order succeeds without phantom frames.
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    fn edges_accumulate() {
        let a = Mutex::new(0u32);
        let b = Mutex::new(0u32);
        let before = super::edges_observed();
        let _ga = a.lock();
        let _gb = b.lock();
        assert!(super::edges_observed() > before);
    }

    #[test]
    fn snapshot_and_dot_render_the_observed_edges() {
        let a = Mutex::new(0u32);
        let b = RwLock::new(0u32);
        {
            let _ga = a.lock();
            let _gb = b.read();
        }
        let snap = super::snapshot();
        let here = file!();
        let edge = snap
            .iter()
            .find(|e| e.from.file == here && e.to.file == here && e.to_mode == super::Mode::Shared)
            .unwrap_or_else(|| panic!("edge from this test missing from snapshot: {snap:?}"));
        assert_eq!(edge.from_mode, super::Mode::Exclusive);
        assert!(edge.from.line < edge.to.line, "constructor order: {edge:?}");
        let dot = super::dot();
        assert!(dot.starts_with("digraph lock_order {"), "{dot}");
        assert!(dot.contains("label=\"W->R\""), "{dot}");
        // Deterministic: a second render is byte-identical.
        assert_eq!(dot, super::dot());
    }

    #[test]
    fn conflict_paths_render_through_chains() {
        // A → B → C recorded edge by edge; C → A then closes the cycle
        // and the panic must describe the full conflicting chain.
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let c = Arc::new(Mutex::new(0u32));
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        {
            let _gb = b.lock();
            let _gc = c.lock();
        }
        let (a2, c2) = (a.clone(), c.clone());
        let result = std::thread::spawn(move || {
            let _gc = c2.lock();
            let _ga = a2.lock(); // closes A → B → C → A
        })
        .join();
        let panic = result.expect_err("transitive inversion must panic");
        let message = panic.downcast_ref::<String>().expect("panic carries a message");
        // The rendered conflict path must walk both edges of the chain.
        assert!(message.matches(") then ").count() >= 2, "{message}");
    }
}
