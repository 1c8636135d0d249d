//! Deterministic workload generators.

use dais_sql::{Database, Value};
use dais_util::SplitMix64;
use dais_xmldb::XmlDatabase;

/// A seeded RNG for reproducible workloads.
pub fn seeded_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed)
}

/// Create and populate an `item` table with `rows` rows. Each row has an
/// integer key, a category (ten distinct values), a price and a VARCHAR
/// payload of `payload_width` characters — the knob the E1/E2 message-size
/// sweeps turn.
pub fn populate_items(db: &Database, rows: usize, payload_width: usize) {
    #[expect(clippy::expect_used, reason = "fixture setup aborts by design")]
    db.execute(
        "CREATE TABLE item (
            id INTEGER PRIMARY KEY,
            category INTEGER NOT NULL,
            price DOUBLE NOT NULL,
            payload VARCHAR NOT NULL
        )",
        &[],
    )
    .expect("create item table");
    let mut rng = seeded_rng(42);
    // Insert in batches to keep statement parse cost out of the data load.
    let mut pending: Vec<String> = Vec::new();
    for i in 0..rows {
        let category = rng.gen_range(0, 10);
        let price = (rng.gen_range(0, 100_000) as f64) / 100.0;
        let payload: String =
            (0..payload_width).map(|_| char::from(b'a' + rng.gen_range(0, 26) as u8)).collect();
        pending.push(format!("({i}, {category}, {price}, '{payload}')"));
        if pending.len() == 256 {
            #[expect(clippy::expect_used, reason = "fixture setup aborts by design")]
            db.execute(&format!("INSERT INTO item VALUES {}", pending.join(", ")), &[])
                .expect("insert items");
            pending.clear();
        }
    }
    if !pending.is_empty() {
        #[expect(clippy::expect_used, reason = "fixture setup aborts by design")]
        db.execute(&format!("INSERT INTO item VALUES {}", pending.join(", ")), &[])
            .expect("insert items");
    }
}

/// Populate a `books` collection with `n` book documents (title, author,
/// year, price and a variable-length abstract).
pub fn populate_books(db: &XmlDatabase, collection: &str, n: usize) {
    if !db.has_collection(collection) {
        #[expect(clippy::expect_used, reason = "fixture setup aborts by design")]
        db.create_collection(collection).expect("create collection");
    }
    let mut rng = seeded_rng(7);
    for i in 0..n {
        let year = 1990 + rng.gen_range(0, 35);
        let price = rng.gen_range(5, 120);
        let abstract_len = rng.gen_range(10, 60);
        let abstract_text: String =
            (0..abstract_len).map(|_| char::from(b'a' + rng.gen_range(0, 26) as u8)).collect();
        let doc = format!(
            "<book id='{i}'>\
               <title>Book {i}</title>\
               <author>Author {}</author>\
               <year>{year}</year>\
               <price>{price}</price>\
               <abstract>{abstract_text}</abstract>\
             </book>",
            i % 17
        );
        #[expect(clippy::expect_used, reason = "fixture setup aborts by design")]
        db.add_document(collection, &format!("book{i}"), &doc).expect("add book");
    }
}

/// A helper for parameterised query workloads: the selectivity knob. The
/// returned predicate value selects roughly `fraction` of `populate_items`
/// rows via `category < value` (categories are uniform over 0..10).
pub fn category_threshold(fraction: f64) -> Value {
    Value::Int((fraction * 10.0).round() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_are_deterministic() {
        let a = Database::new("a");
        let b = Database::new("b");
        populate_items(&a, 500, 16);
        populate_items(&b, 500, 16);
        let qa = a.execute("SELECT SUM(price), COUNT(*) FROM item", &[]).unwrap();
        let qb = b.execute("SELECT SUM(price), COUNT(*) FROM item", &[]).unwrap();
        assert_eq!(qa.rowset().unwrap().rows, qb.rowset().unwrap().rows);
        assert_eq!(qa.rowset().unwrap().rows[0][1], Value::Int(500));
    }

    #[test]
    fn payload_width_respected() {
        let db = Database::new("w");
        populate_items(&db, 10, 32);
        let q = db.execute("SELECT LENGTH(payload) FROM item LIMIT 1", &[]).unwrap();
        assert_eq!(q.rowset().unwrap().rows[0][0], Value::Int(32));
    }

    #[test]
    fn books_are_deterministic_and_queryable() {
        let a = XmlDatabase::new("a");
        populate_books(&a, "books", 50);
        assert_eq!(a.document_count(), 50);
        let hits = a.xpath_query("books", "/book[price > 60]").unwrap();
        let b = XmlDatabase::new("b");
        populate_books(&b, "books", 50);
        assert_eq!(hits.len(), b.xpath_query("books", "/book[price > 60]").unwrap().len());
    }

    #[test]
    fn selectivity_knob() {
        let db = Database::new("s");
        populate_items(&db, 2000, 8);
        let half = db
            .execute("SELECT COUNT(*) FROM item WHERE category < ?", &[category_threshold(0.5)])
            .unwrap();
        let n = match half.rowset().unwrap().rows[0][0] {
            Value::Int(n) => n,
            ref other => panic!("{other:?}"),
        };
        // Roughly half (uniform categories).
        assert!((800..1200).contains(&n), "selectivity off: {n}");
    }
}
