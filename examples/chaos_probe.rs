//! Drives the chaos transport layer through the public `dais` prelude
//! exactly as a consumer would: corruption, drops and synthetic faults
//! against plain and retrying clients, including the abuse cases
//! (probability > 1, non-idempotent writes under total failure).

use dais::prelude::*;
use std::sync::Arc;

fn main() {
    // A relational service on a bus with a hostile transport.
    let bus = Bus::new();
    let db = Database::new("probe");
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR)", &[]).unwrap();
    db.execute("INSERT INTO t VALUES (1, 'one'), (2, 'two')", &[]).unwrap();
    let svc = RelationalService::launch(&bus, "bus://probe", db, Default::default());

    let injector = FaultInjector::new(0xBADCAFE);
    bus.add_interceptor(Arc::new(injector.clone()));

    // 1. Corruption at p=1.0, NO retry: the consumer sees the transport error.
    injector.set_default_policy(FaultPolicy::default().corrupt(1.0));
    let plain = SqlClient::builder().bus(bus.clone()).address("bus://probe").build();
    let err = plain.execute(&svc.db_resource, "SELECT * FROM t", &[]).unwrap_err();
    println!("1. corrupt(1.0), no retry  -> {err}");

    // 2. Same policy, retrying client: exhausts its budget, then errors.
    let retrying = SqlClient::builder()
        .bus(bus.clone())
        .address("bus://probe")
        .retry(RetryPolicy::new(4).base_delay(std::time::Duration::from_micros(5)))
        .build();
    let err = retrying.execute(&svc.db_resource, "SELECT * FROM t", &[]).unwrap_err();
    println!("2. corrupt(1.0), retry x4  -> {err} (bus retries: {})", bus.stats().retries);

    // 3. Abusive probability > 1.0: must behave as always-on, not panic.
    injector.set_default_policy(FaultPolicy::default().drop(7.5));
    let err = plain.execute(&svc.db_resource, "SELECT * FROM t", &[]).unwrap_err();
    println!("3. drop(7.5), no retry     -> {err}");

    // 4. Sustained moderate chaos against a deep retry budget: every
    //    read must converge to the right answer.
    injector.set_default_policy(FaultPolicy::default().corrupt(0.3).drop(0.15));
    let deep = SqlClient::builder()
        .bus(bus.clone())
        .address("bus://probe")
        .retry(RetryPolicy::new(20).base_delay(std::time::Duration::from_micros(5)))
        .build();
    let mut ok = 0;
    for _ in 0..50 {
        let data = deep.execute(&svc.db_resource, "SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(2));
        ok += 1;
    }
    println!(
        "4. corrupt(.3)+drop(.15), retry x20 -> {ok}/50 reads correct ({} events absorbed, {} retries)",
        injector.snapshot().total(),
        bus.stats().retries
    );

    // 5. Non-idempotent op under total chaos: fails immediately, no retry.
    let before = bus.stats().retries;
    injector.set_default_policy(FaultPolicy::default().busy(1.0));
    let err = retrying.execute(&svc.db_resource, "INSERT INTO t VALUES (3, 'x')", &[]).unwrap_err();
    println!("5. busy(1.0), INSERT       -> {err} (new retries: {})", bus.stats().retries - before);

    // 6. Chaos off: the insert never half-happened; reads are clean.
    injector.clear_default_policy();
    let data = plain.execute(&svc.db_resource, "SELECT COUNT(*) FROM t", &[]).unwrap();
    println!("6. chaos off               -> COUNT(*) = {:?}", data.rowset().unwrap().rows[0][0]);
}
