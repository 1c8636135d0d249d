//! Allocation accounting for the wire fast lane.
//!
//! A counting `#[global_allocator]` meters heap allocations performed by
//! one `Bus::call` echo round-trip (serialise → route → parse, both
//! legs). The fast lane (PR 3: interned QNames, borrowed-text parsing,
//! pooled wire buffers) must cut allocations by at least 30% against the
//! pre-change implementation, whose count is recorded below as the
//! baseline.

use dais_soap::service::SoapDispatcher;
use dais_soap::{Bus, Envelope};
use dais_xml::{ns, XmlElement};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

mod actions {
    dais::soap::actions! {
        ECHO = "urn:echo", Read;
    }
}

struct Counting;

// Per-thread meters: libtest runs this file's tests on parallel threads,
// so a process-global counter would bill neighbours' allocations to each
// other's windows. Const-initialised `Cell`s need no lazy init and no
// destructor, so touching them inside the allocator cannot recurse.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: the allocator still runs while a thread tears down.
    let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

/// Allocations and heap bytes (incl. reallocs) performed by `f` on the
/// calling thread.
fn allocs_during(f: impl FnOnce()) -> (u64, u64) {
    let (a0, b0) = (ALLOCS.get(), BYTES.get());
    f();
    (ALLOCS.get() - a0, BYTES.get() - b0)
}

/// The echo round-trip allocation count measured on the pre-fast-lane
/// implementation (seed + PR 2, commit 5d0b3a0) with this exact payload
/// and harness. The fast lane must stay at or below 70% of it.
const PRE_CHANGE_ALLOCS: u64 = 450;

fn echo_payload() -> Envelope {
    let payload = XmlElement::new(ns::WSDAI, "wsdai", "SQLExecuteRequest")
        .with_child(
            XmlElement::new(ns::WSDAI, "wsdai", "DataResourceAbstractName")
                .with_text("urn:dais:alloc:db"),
        )
        .with_child(
            XmlElement::new(ns::WSDAIR, "wsdair", "SQLExpression")
                .with_attr("language", "urn:sql")
                .with_text("SELECT id, label, price FROM item WHERE id < 100"),
        );
    Envelope::with_body(payload)
        .with_header(XmlElement::new(ns::WSA, "wsa", "To").with_text("bus://alloc"))
        .with_header(
            XmlElement::new(ns::WSA, "wsa", "Action")
                .with_text("http://www.ggf.org/namespaces/2005/12/WS-DAIR/SQLExecute"),
        )
}

/// The echo figure measured on the fast lane *before* the observability
/// fabric (PR 3, commit c7a7182) with this exact payload and harness.
/// Disabled tracing must not add a single allocation on top of it.
const PRE_OBS_ALLOCS: u64 = 96;

fn echo_bus() -> Bus {
    let bus = Bus::new();
    let mut d = SoapDispatcher::new();
    d.register(actions::ECHO, |req: &Envelope| Ok(req.clone()));
    bus.register("bus://alloc", Arc::new(d));
    bus
}

/// Median allocation count and heap bytes of an echo round trip, after
/// warming the thread-local pools, interner cells and lazy statics.
fn median_echo_allocs(bus: &Bus, env: &Envelope) -> (u64, u64) {
    for _ in 0..8 {
        bus.call("bus://alloc", "urn:echo", env).unwrap().unwrap();
    }
    // Median of several runs keeps incidental reallocs out of the figure.
    let mut runs: Vec<(u64, u64)> = (0..9)
        .map(|_| {
            allocs_during(|| {
                bus.call("bus://alloc", "urn:echo", env).unwrap().unwrap();
            })
        })
        .collect();
    runs.sort_unstable();
    runs[runs.len() / 2]
}

/// A wide-ish rowset page for metering the streamed encoder.
fn page_rowset(rows: usize) -> dais_sql::Rowset {
    use dais_sql::{Rowset, RowsetColumn, SqlType, Value};
    let mut rs = Rowset::new(vec![
        RowsetColumn { name: "id".into(), ty: SqlType::Integer },
        RowsetColumn { name: "label".into(), ty: SqlType::Varchar },
        RowsetColumn { name: "price".into(), ty: SqlType::Double },
    ]);
    for i in 0..rows as i64 {
        rs.rows.push(vec![
            Value::Int(i),
            if i % 7 == 0 { Value::Null } else { Value::Str(format!("item <{i}> & \"co\"")) },
            Value::Double(i as f64 * 1.5),
        ]);
    }
    rs
}

/// The streamed page encoder (`write_get_tuples_response` over
/// `Rowset::write_window_into`) must cost O(1) allocations per page, not
/// O(rows): every cell is written straight into the (reused) output
/// buffer. A 512-row page may therefore allocate at most a small
/// constant more than a 16-row page.
#[test]
fn streamed_page_encoding_allocates_constant_not_per_row() {
    use dais_dair::messages;
    use dais_xml::XmlWriter;

    let small = page_rowset(16);
    let big = page_rowset(512);
    let mut buf = String::new();
    let mut encode = |rs: &dais_sql::Rowset| {
        buf.clear();
        let mut w = XmlWriter::new(&mut buf);
        messages::write_get_tuples_response(&mut w, rs, 0, rs.row_count());
        w.finish();
    };
    // Warm the buffer to the big page's size and the QName interner.
    encode(&big);
    encode(&small);

    let (a_small, _) = allocs_during(|| encode(&small));
    let (a_big, b_big) = allocs_during(|| encode(&big));
    println!("streamed encode: 16 rows = {a_small} allocs, 512 rows = {a_big} allocs ({b_big} B)");
    assert!(
        a_big <= a_small + 8,
        "encoding 512 rows allocated {a_big} times vs {a_small} for 16 rows; \
         the per-row path must not allocate"
    );
}

/// `get_tuples_many` takes every reply that is already there at once,
/// so with the bus executing inline the batch keeps handing the same
/// pooled reply buffer (`PooledBuf`) back and forth: paging N windows
/// must not re-allocate N reply buffers, and the marginal heap bytes per
/// page stay well under one reply's size once decode output is
/// accounted for.
#[test]
fn get_tuples_many_reuses_its_reply_buffer() {
    use dais_core::{AbstractName, DaisClient};
    use dais_dair::{RelationalService, RelationalServiceOptions, SqlClient};
    use dais_sql::Database;

    let bus = Bus::new();
    let db = Database::new("alloc");
    db.execute_script("CREATE TABLE item (id INTEGER PRIMARY KEY, label VARCHAR)").unwrap();
    for i in 0..200 {
        db.execute(
            &format!("INSERT INTO item VALUES ({i}, 'payload <{i}> & \"co\" {i:0>32}')"),
            &[],
        )
        .unwrap();
    }
    let svc = RelationalService::launch(
        &bus,
        "bus://alloc-dair",
        db,
        RelationalServiceOptions::default(),
    );
    let client = SqlClient::builder().bus(bus.clone()).address("bus://alloc-dair").build();
    let db_name = svc.db_resource.clone();

    let epr = client
        .execute_factory(&db_name, "SELECT * FROM item ORDER BY id", &[], None, None)
        .unwrap();
    let response_name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    let rowset_epr = client.rowset_factory(&response_name, None, None).unwrap();
    let rowset_name = AbstractName::new(rowset_epr.resource_abstract_name().unwrap()).unwrap();

    let page: (usize, usize) = (0, 200);
    let one = [page];
    let eight = [page; 8];
    // Warm pools, interner and the service-side rowset materialisation.
    for r in client.get_tuples_many(&rowset_name, &eight, 8) {
        r.unwrap();
    }

    let (a_one, b_one) = allocs_during(|| {
        for r in client.get_tuples_many(&rowset_name, &one, 1) {
            r.unwrap();
        }
    });
    let (a_eight, b_eight) = allocs_during(|| {
        for r in client.get_tuples_many(&rowset_name, &eight, 8) {
            r.unwrap();
        }
    });
    let reply_bytes = {
        let req = dais_dair::messages::get_tuples_request(&rowset_name, page.0, page.1);
        let action = dais_dair::actions::GET_TUPLES;
        let raw = client.service().request_bytes(action, &req, action.resendable()).unwrap();
        raw.len() as u64
    };
    let marginal_bytes = (b_eight - b_one) / 7;
    let marginal_allocs = (a_eight - a_one) / 7;
    println!(
        "get_tuples_many: 1 page = {a_one} allocs/{b_one} B, 8 pages = {a_eight} allocs/\
         {b_eight} B, marginal {marginal_allocs} allocs and {marginal_bytes} B/page, \
         reply {reply_bytes} B"
    );
    // Measured on this implementation with this exact payload: a
    // marginal page costs ~510 allocations / ~150.7 KB — request build,
    // service-side streamed encode, client pull decode, which allocates
    // twice for each of the 200 rows: the row's `Vec` and its string
    // cell, the entity-decoded text moved in rather than copied — with the pooled
    // reply buffer contributing nothing after warm-up. The allocation
    // budget leaves ~10% headroom, so a third allocation per row fails
    // it. Dropping the pooled buffer (a fresh `Vec` per page) adds ~2x
    // the ~34.5 KB reply in growth-doubling writes; rematerialising the
    // page server-side adds the page clone on top: either regression
    // blows the byte budget.
    const MARGINAL_PAGE_ALLOCS: u64 = 560;
    const MARGINAL_PAGE_BYTES: u64 = 180_000;
    assert!(reply_bytes > 30_000, "fixture shrank; re-measure the budgets ({reply_bytes} B reply)");
    assert!(
        marginal_allocs <= MARGINAL_PAGE_ALLOCS,
        "marginal page performed {marginal_allocs} allocations (budget {MARGINAL_PAGE_ALLOCS})"
    );
    assert!(
        marginal_bytes <= MARGINAL_PAGE_BYTES,
        "marginal page cost {marginal_bytes} heap bytes (budget {MARGINAL_PAGE_BYTES}): \
         the batch is churning buffers instead of reusing the pooled one"
    );
}

#[test]
fn echo_round_trip_allocates_30_percent_less_than_baseline() {
    let bus = echo_bus();
    let env = echo_payload();
    let (median, median_bytes) = median_echo_allocs(&bus, &env);

    let ceiling = PRE_CHANGE_ALLOCS * 7 / 10;
    let mut wire = Vec::new();
    env.to_bytes_into(&mut wire);
    println!(
        "echo round-trip: {median} allocations, {median_bytes} heap bytes, \
         {} wire bytes/leg (pre-change baseline {PRE_CHANGE_ALLOCS} allocations, \
         ceiling {ceiling})",
        wire.len()
    );
    assert!(
        median <= ceiling,
        "echo round-trip performed {median} allocations; the fast lane requires \
         <= {ceiling} (70% of the pre-change {PRE_CHANGE_ALLOCS})"
    );
}

#[test]
fn disabled_tracing_adds_zero_allocations() {
    let bus = echo_bus();
    let env = echo_payload();

    // With tracing off (the default), the observability layer costs one
    // relaxed atomic load and two lock-free histogram records: the round
    // trip must allocate no more than the pre-observability fast lane.
    let (disabled, _) = median_echo_allocs(&bus, &env);
    assert!(
        disabled <= PRE_OBS_ALLOCS,
        "disabled tracing added allocations: {disabled} > pre-observability {PRE_OBS_ALLOCS}"
    );

    // A finished tracing session leaves no residue: enable, trace a few
    // calls, drain the sink, disable — allocation-identical again.
    bus.enable_tracing(7);
    for _ in 0..4 {
        bus.call("bus://alloc", "urn:echo", &env).unwrap().unwrap();
    }
    let traced = bus.obs().tracer.take();
    assert!(!traced.is_empty(), "the traced warm-up should have recorded spans");
    bus.disable_tracing();
    let (after, _) = median_echo_allocs(&bus, &env);
    assert_eq!(
        after, disabled,
        "turning tracing on and off again changed the steady-state allocation count"
    );
}

/// A peer that announces a near-maximal frame and then sends only a
/// trickle must cost the reader heap in proportion to the bytes it
/// actually sent: nothing is reserved against the length prefix, so a
/// hostile prefix cannot make a connection hold 16 MiB.
#[test]
fn frame_reader_allocates_for_bytes_fed_not_bytes_announced() {
    use dais_soap::tcp::{FrameReader, MAX_FRAME_LEN};

    let announced = u32::try_from(MAX_FRAME_LEN - 1).unwrap().to_be_bytes();
    let mut reader = FrameReader::new();
    let mut next = Ok(None);
    let (_, heap_bytes) = allocs_during(|| {
        reader.feed(&announced);
        reader.feed(&[0u8; 100]);
        next = reader.next_frame();
    });
    assert_eq!(next, Ok(None), "a frame announced but not delivered is incomplete");
    assert_eq!(reader.pending_bytes(), 104);
    assert!(heap_bytes < 64 * 1024, "fed 104 bytes but the reader took {heap_bytes} heap bytes");
}

/// A selective XPath over a stored collection costs allocations per
/// answer, not per document or per node: a document whose element fails
/// the query's leading equality (`@id = '7'`) is never indexed, the one
/// that passes is laid out in an index buffer whose entries own nothing,
/// and only the selected node is cloned. The same query over four times
/// the documents, or over documents with four times the nodes, allocates
/// the same, beyond cloning the bigger answer.
#[test]
fn selective_xpath_allocates_per_answer_not_per_document() {
    use dais_xmldb::XmlDatabase;

    let collection = |documents: u64, notes: usize| {
        let db = XmlDatabase::new("alloc-xml");
        db.create_collection("books").unwrap();
        for i in 0..documents {
            let mut book = XmlElement::new_local("book")
                .with_attr("id", i.to_string())
                .with_child(XmlElement::new_local("title").with_text(format!("Book {i}")))
                .with_child(XmlElement::new_local("price").with_text((i % 100).to_string()));
            for n in 0..notes {
                book.push(
                    XmlElement::new_local("note").with_attr("n", n.to_string()).with_text("x"),
                );
            }
            db.add_document_element("books", &format!("book{i:04}"), book).unwrap();
        }
        db
    };
    let query = |db: &XmlDatabase| {
        let hits = db.xpath_query("books", "/book[@id = '7']").unwrap();
        assert_eq!(hits.len(), 1);
        hits
    };
    let (small, many, large) = (collection(400, 2), collection(1600, 2), collection(400, 16));
    // Warm the index buffer's growth path and the interner.
    let (small_hit, large_hit) = (query(&small), query(&large));
    drop(query(&many));

    let (a_small, _) = allocs_during(|| drop(query(&small)));
    let (a_many, _) = allocs_during(|| drop(query(&many)));
    let (a_large, _) = allocs_during(|| drop(query(&large)));
    let (clone_small, _) = allocs_during(|| drop(small_hit.clone()));
    let (clone_large, _) = allocs_during(|| drop(large_hit.clone()));
    println!(
        "/book[@id = '7']: {a_small} allocations over 400 documents of 12 nodes, {a_many} over \
         1 600, {a_large} over 400 of 54 nodes (answer clones {clone_small} and {clone_large})"
    );
    // Measured on this implementation: 35 in each of the first two. The
    // unfiltered walk it replaced indexed every document: 832 over 400.
    assert_eq!(
        a_many, a_small,
        "four times the documents cost {a_many} allocations against {a_small}: \
         the query allocates per document"
    );
    assert!(
        a_large <= a_small + (clone_large - clone_small) + 8,
        "four times the nodes cost {a_large} allocations against {a_small}: \
         the evaluator allocates per node"
    );
}
