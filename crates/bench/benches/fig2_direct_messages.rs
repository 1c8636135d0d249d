//! E2 / Figure 2: the direct-access message pattern cost breakdown —
//! request building, full round trip, and the WebRowSet marshalling that
//! dominates large responses.

use dais_bench::crit::{BenchmarkId, Criterion};
use dais_bench::workload::populate_items;
use dais_bench::{criterion_group, criterion_main};
use dais_core::DaisClient;
use dais_dair::{messages, RelationalService, SqlClient};
use dais_soap::Bus;
use dais_sql::{Database, Rowset, RowsetCursor, Value};
use dais_xml::{ns, to_string, PullParser, XmlWriter};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_direct_messages");
    group.sample_size(20);

    // Request construction + serialisation (constant-size messages).
    let name = dais_core::AbstractName::new("urn:dais:b:db:0").unwrap();
    group.bench_function("build_and_serialise_request", |b| {
        b.iter(|| {
            let req = messages::sql_execute_request(
                &name,
                ns::ROWSET,
                "SELECT * FROM item WHERE category = ? AND price > ?",
                &[Value::Int(3), Value::Double(10.0)],
            );
            to_string(&req)
        });
    });

    // Response parse cost by result size (the WebRowSet decode path).
    for rows in [10usize, 100, 1000] {
        let db = Database::new("fig2");
        populate_items(&db, rows, 32);
        let rowset = db.execute("SELECT * FROM item", &[]).unwrap().rowset().unwrap().clone();
        let mut wire = String::new();
        let mut w = XmlWriter::new(&mut wire);
        rowset.write_into(&mut w);
        w.finish();
        group.bench_with_input(BenchmarkId::new("parse_webrowset", rows), &rows, |b, _| {
            b.iter(|| {
                let mut cursor = RowsetCursor::new(PullParser::new(&wire).unwrap()).unwrap();
                Rowset::from_cursor(&mut cursor).unwrap()
            });
        });
    }

    // End-to-end round trip by result size.
    for rows in [10usize, 1000] {
        let bus = Bus::new();
        let db = Database::new("fig2");
        populate_items(&db, rows, 32);
        let svc = RelationalService::launch(&bus, "bus://fig2", db, Default::default());
        let client = SqlClient::builder().bus(bus).address("bus://fig2").build();
        group.bench_with_input(BenchmarkId::new("round_trip", rows), &rows, |b, _| {
            b.iter(|| client.execute(&svc.db_resource, "SELECT * FROM item", &[]).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
