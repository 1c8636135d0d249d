//! E9 (§3/§4.2 `Sensitivity`) and E10 (§4.2 `ConcurrentAccess`,
//! `TransactionInitiation`, `TransactionIsolation`): derived-resource
//! freshness semantics and the per-message transactional guarantees.

use dais::core::TransactionIsolation;
use dais::prelude::*;
use dais::soap::fault::DaisFault;
use dais::soap::CallError;
use dais::xml::ns;
use std::sync::Arc;

/// The SQLSTATE an `InvalidExpressionFault` reports.
fn sqlstate_of(err: CallError) -> String {
    match err {
        CallError::Fault(f) if f.dais == Some(DaisFault::InvalidExpression) => {
            f.reason.split(']').next().unwrap_or("").replace("[SQLSTATE ", "")
        }
        other => panic!("expected InvalidExpressionFault, got {other:?}"),
    }
}

fn setup(rows_sql: &str) -> (Bus, SqlClient, AbstractName) {
    let bus = Bus::new();
    let db = Database::new("s");
    db.execute(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, balance DOUBLE, CHECK (balance >= 0))",
        &[],
    )
    .unwrap();
    db.execute(rows_sql, &[]).unwrap();
    let svc = RelationalService::launch(&bus, "bus://s", db, Default::default());
    (bus.clone(), SqlClient::builder().bus(bus).address("bus://s").build(), svc.db_resource)
}

// ---------------------------------------------------------------------------
// E9: Sensitivity
// ---------------------------------------------------------------------------

#[test]
fn sensitivity_controls_derived_freshness() {
    let (_, client, db) = setup("INSERT INTO acct VALUES (1, 100.0), (2, 50.0)");

    let make = |sensitivity: Sensitivity| {
        let config = ConfigurationDocument { sensitivity: Some(sensitivity), ..Default::default() };
        let epr = client
            .execute_factory(&db, "SELECT SUM(balance) FROM acct", &[], None, Some(&config))
            .unwrap();
        AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap()
    };
    let snapshot = make(Sensitivity::Insensitive);
    let live = make(Sensitivity::Sensitive);

    // Both agree initially.
    let read = |name: &AbstractName| client.get_sql_rowset(name, 1).unwrap().rows[0][0].clone();
    assert_eq!(read(&snapshot), Value::Double(150.0));
    assert_eq!(read(&live), Value::Double(150.0));

    // Mutate the parent.
    client.execute(&db, "UPDATE acct SET balance = balance + 25 WHERE id = 1", &[]).unwrap();

    // The sensitive resource reflects the parent; the snapshot does not.
    assert_eq!(read(&live), Value::Double(175.0));
    assert_eq!(read(&snapshot), Value::Double(150.0));

    // The property documents advertise which is which.
    let p = client.core().get_property_document(&live).unwrap();
    assert_eq!(p.sensitivity, Sensitivity::Sensitive);
    let p = client.core().get_property_document(&snapshot).unwrap();
    assert_eq!(p.sensitivity, Sensitivity::Insensitive);
}

#[test]
fn sensitive_resource_faults_if_parent_schema_vanishes() {
    let (_, client, db) = setup("INSERT INTO acct VALUES (1, 1.0)");
    let config =
        ConfigurationDocument { sensitivity: Some(Sensitivity::Sensitive), ..Default::default() };
    let epr = client.execute_factory(&db, "SELECT * FROM acct", &[], None, Some(&config)).unwrap();
    let live = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    client.execute(&db, "DROP TABLE acct", &[]).unwrap();
    // Re-evaluation now fails — surfaced as a DAIS fault, not a panic.
    let err = client.get_sql_rowset(&live, 1).unwrap_err();
    assert_eq!(err.dais_fault(), Some(dais::soap::fault::DaisFault::InvalidExpression));
}

// ---------------------------------------------------------------------------
// E10: per-message transactions and concurrency
// ---------------------------------------------------------------------------

/// TransactionInitiation=TransactionalPerMessage: a failing statement
/// leaves no partial effects, observed end-to-end through the service.
#[test]
fn per_message_atomicity_over_the_wire() {
    let (_, client, db) = setup("INSERT INTO acct VALUES (1, 100.0), (2, 50.0)");
    // This update succeeds on row 1 then violates the CHECK on row 2;
    // the whole message must roll back.
    let err = client
        .execute(&db, "UPDATE acct SET balance = balance - 60 WHERE id IN (1, 2)", &[])
        .unwrap_err();
    assert_eq!(err.dais_fault(), Some(dais::soap::fault::DaisFault::InvalidExpression));
    let data = client.execute(&db, "SELECT balance FROM acct ORDER BY id", &[]).unwrap();
    assert_eq!(
        data.rowset().unwrap().rows,
        vec![vec![Value::Double(100.0)], vec![Value::Double(50.0)]],
        "failed message left partial effects"
    );
}

/// An UPDATE whose arithmetic overflows at its second row is one fault
/// (SQLSTATE 22003), and the first row's write is undone with the rest.
#[test]
fn overflowing_update_is_one_fault_and_changes_no_row() {
    let (bus, client, db) = setup("INSERT INTO acct VALUES (1, 1.0)");
    client.execute(&db, "CREATE TABLE n (id INTEGER PRIMARY KEY, x INTEGER)", &[]).unwrap();
    client
        .execute(&db, "INSERT INTO n VALUES (1, 5), (2, 9223372036854775807), (3, 7)", &[])
        .unwrap();
    let faults = bus.stats().faults;
    let err = client.execute(&db, "UPDATE n SET x = x * 2", &[]).unwrap_err();
    assert_eq!(sqlstate_of(err), "22003");
    assert_eq!(bus.stats().faults, faults + 1);
    let data = client.execute(&db, "SELECT x FROM n ORDER BY id", &[]).unwrap();
    let unchanged: Vec<Vec<Value>> = [5, i64::MAX, 7].map(|x| vec![Value::Int(x)]).into();
    assert_eq!(data.rowset().unwrap().rows, unchanged);
}

/// A message is the only transaction. `BEGIN`, `COMMIT` and `ROLLBACK`
/// are not statements, so a writeable resource refuses them instead of
/// accepting a transaction that ends with the message.
#[test]
fn transaction_control_is_refused_on_a_writeable_resource() {
    let (_, client, db) = setup("INSERT INTO acct VALUES (1, 1.0)");
    assert!(client.core().get_property_document(&db).unwrap().writeable);
    for sql in ["BEGIN", "BEGIN TRANSACTION", "COMMIT", "ROLLBACK"] {
        assert_eq!(sqlstate_of(client.execute(&db, sql, &[]).unwrap_err()), "42601", "{sql}");
    }
}

#[test]
fn advertised_transaction_properties() {
    let (_, client, db) = setup("INSERT INTO acct VALUES (1, 1.0)");
    let props = client.core().get_property_document(&db).unwrap();
    assert_eq!(
        props.transaction_initiation,
        dais::core::TransactionInitiation::TransactionalPerMessage
    );
    // Every message is one statement that holds the storage lock for its
    // whole run, so messages are serializable.
    assert_eq!(props.transaction_isolation, TransactionIsolation::Serializable);
    assert!(props.concurrent_access);

    // A federated query reads its shards at different instants: it sees
    // committed statements only, but no snapshot common to all shards.
    let bus = Bus::new();
    let scheme = ShardScheme::Hash { column: "k".into() };
    let schema = "CREATE TABLE t (k INTEGER PRIMARY KEY)";
    let fleet = RelationalFleet::launch(&bus, "iso", schema, scheme, FleetOptions::default());
    let client = SqlClient::builder().bus(bus).resource(fleet.resource()).build();
    let props = client.core().get_property_document(fleet.resource().resource()).unwrap();
    assert_eq!(props.transaction_isolation, TransactionIsolation::ReadCommitted);
}

/// ConcurrentAccess=true: many consumers hammer one service; totals add
/// up. A transfer is one statement over two rows, so a concurrent `SUM`
/// sees all of it or none of it (the advertised `Serializable`).
#[test]
fn concurrent_consumers() {
    let (bus, _, db) = setup("INSERT INTO acct VALUES (1, 500.0), (2, 500.0), (3, 0.0)");
    let threads: Vec<_> = (0..16)
        .map(|i| {
            let bus = bus.clone();
            let db = db.clone();
            std::thread::spawn(move || {
                let client = SqlClient::builder().bus(bus).address("bus://s").build();
                let run = |sql: &str| client.execute(&db, sql, &[]).unwrap();
                for _ in 0..25 {
                    match i % 4 {
                        0 => {
                            run("UPDATE acct SET balance = balance + 1 WHERE id = 3");
                        }
                        1 => {
                            let data = run("SELECT balance FROM acct WHERE id = 3");
                            assert_eq!(data.rowset().unwrap().row_count(), 1);
                        }
                        2 => {
                            run("UPDATE acct SET balance = balance + \
                                 CASE WHEN id = 1 THEN -1 ELSE 1 END WHERE id IN (1, 2)");
                        }
                        _ => {
                            let data = run("SELECT SUM(balance) FROM acct WHERE id IN (1, 2)");
                            assert_eq!(data.rowset().unwrap().rows[0][0], Value::Double(1000.0));
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let client = SqlClient::builder().bus(bus).address("bus://s").build();
    let data = client.execute(&db, "SELECT balance FROM acct ORDER BY id", &[]).unwrap();
    // 4 incrementers and 4 transferrers, 25 statements each.
    let balances = [400.0, 600.0, 100.0].map(|b| vec![Value::Double(b)]);
    assert_eq!(data.rowset().unwrap().rows, balances.to_vec());
}

/// Concurrent factories mint distinct resources without collisions.
#[test]
fn concurrent_factories() {
    let (bus, _, db) = setup("INSERT INTO acct VALUES (1, 1.0)");
    let names: Vec<AbstractName> = (0..6)
        .map(|_| {
            let bus = bus.clone();
            let db = db.clone();
            std::thread::spawn(move || {
                let client = SqlClient::builder().bus(bus).address("bus://s").build();
                let epr =
                    client.execute_factory(&db, "SELECT * FROM acct", &[], None, None).unwrap();
                AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap()
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    let mut dedup = names.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(dedup.len(), names.len(), "abstract names must be unique");
    // All of them resolve and serve data.
    let client = SqlClient::builder().bus(bus).address("bus://s").build();
    for n in &names {
        assert_eq!(client.get_sql_rowset(n, 1).unwrap().row_count(), 1);
    }
}

/// The communication area reports SQLSTATE 02000 for no-data outcomes,
/// end to end (Figure 2's diagnostic channel).
#[test]
fn communication_area_diagnostics() {
    let (_, client, db) = setup("INSERT INTO acct VALUES (1, 1.0)");
    let data = client.execute(&db, "DELETE FROM acct WHERE id = 999", &[]).unwrap();
    assert_eq!(data.communication_area.sqlstate, "02000");
    assert_eq!(data.update_count(), Some(0));

    let epr =
        client.execute_factory(&db, "SELECT * FROM acct WHERE id = 999", &[], None, None).unwrap();
    let name = AbstractName::new(epr.resource_abstract_name().unwrap()).unwrap();
    let comm = client.get_sql_communication_area(&name).unwrap();
    assert_eq!(comm.sqlstate, "02000");
}

/// Thick vs thin wrappers (E8, §2.1): a rewriting service intercepts
/// statements; a thin one passes them through untouched.
#[test]
fn thick_wrapper_rewrites_e2e() {
    let bus = Bus::new();
    let db = Database::new("wrap");
    db.execute_script(
        "CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1), (2), (3);
         CREATE TABLE audit (a INTEGER);",
    )
    .unwrap();
    // The thick wrapper redirects every statement to a canned audit query.
    let rewriter: dais::core::service::QueryRewriter = Arc::new(|lang: &str, _expr: &str| {
        (lang.to_string(), "SELECT COUNT(*) FROM t".to_string())
    });
    let svc = RelationalService::launch(
        &bus,
        "bus://thick",
        db,
        RelationalServiceOptions { query_rewriter: Some(rewriter), ..Default::default() },
    );
    let client = SqlClient::builder().bus(bus).address("bus://thick").build();
    // Whatever we send, the wrapper's rewrite executes.
    let data = client.execute(&svc.db_resource, "SELECT a FROM t WHERE a = 1", &[]).unwrap();
    assert_eq!(data.rowset().unwrap().rows[0][0], Value::Int(3));
    // The response structure is unchanged — wrappers are transparent to
    // the message pattern.
    assert!(data.communication_area.is_success());
    let _ = ns::WSDAIR; // silence unused import on some cfgs
}
