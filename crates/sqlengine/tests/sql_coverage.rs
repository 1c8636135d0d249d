//! Scenario coverage for the SQL engine: multi-table analytics over a
//! small orders schema (the kind of workload a DAIS service fronts).

use dais_sql::{Database, SqlErrorKind, Value};

fn shop() -> Database {
    let db = Database::new("shop");
    db.execute_script(
        "CREATE TABLE customer (
             id INTEGER PRIMARY KEY,
             name VARCHAR NOT NULL,
             region VARCHAR NOT NULL
         );
         CREATE TABLE product (
             id INTEGER PRIMARY KEY,
             name VARCHAR NOT NULL UNIQUE,
             price DOUBLE NOT NULL,
             CHECK (price > 0)
         );
         CREATE TABLE orders (
             id INTEGER PRIMARY KEY,
             customer_id INTEGER NOT NULL REFERENCES customer (id),
             product_id INTEGER NOT NULL REFERENCES product (id),
             quantity INTEGER NOT NULL DEFAULT 1,
             CHECK (quantity > 0)
         );
         INSERT INTO customer VALUES
             (1, 'ada', 'north'), (2, 'bob', 'south'), (3, 'cyd', 'north'), (4, 'dee', 'east');
         INSERT INTO product VALUES
             (10, 'anvil', 100.0), (11, 'rope', 5.0), (12, 'rocket', 250.0), (13, 'paint', 15.0);
         INSERT INTO orders (id, customer_id, product_id, quantity) VALUES
             (100, 1, 10, 1), (101, 1, 11, 4), (102, 2, 12, 1),
             (103, 3, 11, 2), (104, 3, 13, 3), (105, 1, 12, 2);",
    )
    .unwrap();
    db
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    db.execute(sql, &[]).unwrap().rowset().unwrap().rows.clone()
}

#[test]
fn three_way_join_with_aggregation() {
    let db = shop();
    let r = rows(
        &db,
        "SELECT c.region, SUM(p.price * o.quantity) AS revenue
         FROM orders o
         JOIN customer c ON o.customer_id = c.id
         JOIN product p ON o.product_id = p.id
         GROUP BY c.region
         ORDER BY revenue DESC",
    );
    // north: ada(100 + 4*5 + 2*250) + cyd(2*5 + 3*15) = 620 + 55 = 675
    // south: bob 250; east: none (dee never ordered)
    assert_eq!(r.len(), 2);
    assert_eq!(r[0][0], Value::Str("north".into()));
    assert_eq!(r[0][1], Value::Double(675.0));
    assert_eq!(r[1][1], Value::Double(250.0));
}

#[test]
fn left_join_finds_customers_without_orders() {
    let db = shop();
    let r = rows(
        &db,
        "SELECT c.name FROM customer c
         LEFT JOIN orders o ON o.customer_id = c.id
         WHERE o.id IS NULL",
    );
    assert_eq!(r, vec![vec![Value::Str("dee".into())]]);
}

#[test]
fn self_join() {
    let db = shop();
    // Pairs of customers from the same region.
    let r = rows(
        &db,
        "SELECT a.name, b.name FROM customer a
         JOIN customer b ON a.region = b.region
         WHERE a.id < b.id",
    );
    assert_eq!(r, vec![vec![Value::Str("ada".into()), Value::Str("cyd".into())]]);
}

#[test]
fn having_filters_groups() {
    let db = shop();
    let r = rows(
        &db,
        "SELECT customer_id, COUNT(*) AS n FROM orders
         GROUP BY customer_id HAVING COUNT(*) >= 2 ORDER BY n DESC",
    );
    assert_eq!(r.len(), 2); // ada (3), cyd (2)
    assert_eq!(r[0][0], Value::Int(1));
    assert_eq!(r[0][1], Value::Int(3));
}

#[test]
fn case_expressions_in_projection_and_order() {
    let db = shop();
    let r = rows(
        &db,
        "SELECT name, CASE WHEN price >= 100 THEN 'premium'
                           WHEN price >= 10 THEN 'standard'
                           ELSE 'budget' END AS tier
         FROM product ORDER BY tier, name",
    );
    let tiers: Vec<String> = r.iter().map(|row| row[1].to_display_string()).collect();
    assert_eq!(tiers, vec!["budget", "premium", "premium", "standard"]);
}

#[test]
fn insert_select_copies_across_tables() {
    let db = shop();
    db.execute("CREATE TABLE big_spender (id INTEGER, name VARCHAR)", &[]).unwrap();
    let r = db
        .execute(
            "INSERT INTO big_spender
             SELECT c.id, c.name FROM customer c
             JOIN orders o ON o.customer_id = c.id
             JOIN product p ON o.product_id = p.id
             WHERE p.price >= 250",
            &[],
        )
        .unwrap();
    assert_eq!(r.update_count(), 2); // ada (rocket) and bob (rocket)
    let r = rows(&db, "SELECT name FROM big_spender ORDER BY name");
    assert_eq!(r.len(), 2);
}

#[test]
fn distinct_on_expressions() {
    let db = shop();
    let r = rows(&db, "SELECT DISTINCT region FROM customer ORDER BY region");
    assert_eq!(r.len(), 3);
    let r = rows(
        &db,
        "SELECT DISTINCT o.product_id FROM orders o WHERE o.quantity > 1 ORDER BY o.product_id",
    );
    assert_eq!(r.len(), 3); // rope(101,103), paint(104), rocket(105)
}

#[test]
fn scalar_functions_compose() {
    let db = shop();
    let r = rows(
        &db,
        "SELECT UPPER(SUBSTRING(name, 1, 3)) || '-' || LENGTH(name) FROM product WHERE id = 10",
    );
    assert_eq!(r[0][0], Value::Str("ANV-5".into()));
    let r =
        rows(&db, "SELECT COALESCE(NULLIF(region, 'north'), 'home') FROM customer WHERE id = 1");
    assert_eq!(r[0][0], Value::Str("home".into()));
}

#[test]
fn aggregate_expressions_combine() {
    let db = shop();
    let r = rows(&db, "SELECT MAX(price) - MIN(price), AVG(price) * 2, COUNT(*) + 1 FROM product");
    assert_eq!(r[0][0], Value::Double(245.0));
    assert_eq!(r[0][1], Value::Double(185.0));
    assert_eq!(r[0][2], Value::Int(5));
}

#[test]
fn update_with_join_like_subcondition_via_in() {
    let db = shop();
    // No subqueries: but IN over literals + expression predicates cover
    // the common service patterns.
    let r = db.execute("UPDATE product SET price = price * 1.1 WHERE id IN (10, 12)", &[]).unwrap();
    assert_eq!(r.update_count(), 2);
    let check = rows(&db, "SELECT price FROM product WHERE id = 10");
    assert!(matches!(check[0][0], Value::Double(p) if (p - 110.0).abs() < 1e-9));
}

#[test]
fn fk_chain_enforced_end_to_end() {
    let db = shop();
    // Cannot delete a customer with orders.
    let err = db.execute("DELETE FROM customer WHERE id = 1", &[]).unwrap_err();
    assert_eq!(err.kind, SqlErrorKind::ForeignKeyViolation);
    // Delete the orders first, then the customer goes.
    db.execute("DELETE FROM orders WHERE customer_id = 1", &[]).unwrap();
    db.execute("DELETE FROM customer WHERE id = 1", &[]).unwrap();
    // Dropping the referenced table is still blocked by remaining FKs.
    let err = db.execute("DROP TABLE product", &[]).unwrap_err();
    assert_eq!(err.kind, SqlErrorKind::ForeignKeyViolation);
}

#[test]
fn order_by_multiple_keys_with_nulls() {
    let db = shop();
    db.execute("CREATE TABLE s (a INTEGER, b INTEGER)", &[]).unwrap();
    db.execute("INSERT INTO s VALUES (1, 2), (1, NULL), (2, 1), (1, 1)", &[]).unwrap();
    let r = rows(&db, "SELECT a, b FROM s ORDER BY a, b DESC");
    // a=1 group first; within it b DESC with NULL last (total order: null
    // sorts first ascending, so DESC puts it last).
    assert_eq!(r[0], vec![Value::Int(1), Value::Int(2)]);
    assert_eq!(r[1], vec![Value::Int(1), Value::Int(1)]);
    assert!(r[2][1].is_null());
    assert_eq!(r[3], vec![Value::Int(2), Value::Int(1)]);
}

#[test]
fn cross_join_cardinality() {
    let db = shop();
    let r = rows(&db, "SELECT COUNT(*) FROM customer CROSS JOIN product");
    assert_eq!(r[0][0], Value::Int(16));
}

#[test]
fn group_by_expression() {
    let db = shop();
    let r =
        rows(&db, "SELECT price >= 100, COUNT(*) FROM product GROUP BY price >= 100 ORDER BY 1");
    assert_eq!(r.len(), 2);
    assert_eq!(r[0][1], Value::Int(2)); // cheap: rope, paint
    assert_eq!(r[1][1], Value::Int(2)); // premium: anvil, rocket
}

#[test]
fn union_combines_and_deduplicates() {
    let db = shop();
    // Plain UNION deduplicates.
    let r =
        rows(&db, "SELECT region FROM customer UNION SELECT region FROM customer ORDER BY region");
    assert_eq!(r.len(), 3); // east, north, south
                            // UNION ALL keeps duplicates.
    let r = rows(&db, "SELECT region FROM customer UNION ALL SELECT region FROM customer");
    assert_eq!(r.len(), 8);
    // Heterogeneous sources with matching arity.
    let r = rows(
        &db,
        "SELECT name, price FROM product WHERE price > 100
         UNION SELECT name, 0.0 FROM customer WHERE region = 'east'
         ORDER BY 2 DESC, 1",
    );
    assert_eq!(r.len(), 2);
    assert_eq!(r[0][0], Value::Str("rocket".into()));
    assert_eq!(r[1][0], Value::Str("dee".into()));
}

#[test]
fn union_chains_and_limits() {
    let db = shop();
    let r = rows(
        &db,
        "SELECT id FROM customer UNION ALL SELECT id FROM product UNION ALL SELECT id FROM orders
         ORDER BY id LIMIT 5 OFFSET 2",
    );
    assert_eq!(r.len(), 5);
    assert_eq!(r[0][0], Value::Int(3)); // 1,2,[3,4,10,11,12],13,...
    assert_eq!(r[4][0], Value::Int(12));
}

#[test]
fn union_errors() {
    let db = shop();
    // Mismatched arity.
    let e =
        db.execute("SELECT id FROM customer UNION SELECT id, name FROM product", &[]).unwrap_err();
    assert_eq!(e.sqlstate(), "42601");
    // ORDER BY over a union must name an output column.
    let e = db
        .execute("SELECT name FROM customer UNION SELECT name FROM product ORDER BY region", &[])
        .unwrap_err();
    assert_eq!(e.kind, dais_sql::SqlErrorKind::NotSupported);
}

#[test]
fn union_with_aggregates_and_params() {
    let db = shop();
    let r = db
        .execute(
            "SELECT 'customers', COUNT(*) FROM customer
             UNION ALL SELECT 'products', COUNT(*) FROM product
             UNION ALL SELECT 'big-orders', COUNT(*) FROM orders WHERE quantity > ?
             ORDER BY 1",
            &[Value::Int(1)],
        )
        .unwrap();
    let r = &r.rowset().unwrap().rows;
    assert_eq!(r.len(), 3);
    assert_eq!(r[0][0], Value::Str("big-orders".into()));
    assert_eq!(r[0][1], Value::Int(4)); // orders 101, 103, 104, 105
    assert_eq!(r[1][1], Value::Int(4)); // customers
}

#[test]
fn like_and_in_against_strings() {
    let db = shop();
    let r = rows(&db, "SELECT name FROM product WHERE name LIKE 'r%' ORDER BY name");
    assert_eq!(r.len(), 2); // rocket, rope
    let r = rows(&db, "SELECT name FROM customer WHERE region IN ('north', 'east') ORDER BY name");
    assert_eq!(r.len(), 3);
}
