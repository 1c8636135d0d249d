//! Fixtures shared by the integration suites.

use dais::sql::Database;
use dais_util::SplitMix64;

/// Create and populate an `item` table with `rows` seeded rows: an
/// integer key, a category (ten distinct values), a price and a VARCHAR
/// payload of `payload_width` characters, the knob the message-size
/// tests turn.
pub fn populate_items(db: &Database, rows: usize, payload_width: usize) {
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
    let mut rng = SplitMix64::new(42);
    let mut pending: Vec<String> = Vec::new();
    for i in 0..rows {
        let category = rng.gen_range(0, 10);
        let price = (rng.gen_range(0, 100_000) as f64) / 100.0;
        let payload: String =
            (0..payload_width).map(|_| char::from(b'a' + rng.gen_range(0, 26) as u8)).collect();
        pending.push(format!("({i}, {category}, {price}, '{payload}')"));
        // Insert in batches to keep statement parse cost out of the load.
        if pending.len() == 256 || i + 1 == rows {
            db.execute(&format!("INSERT INTO item VALUES {}", pending.join(", ")), &[])
                .expect("insert items");
            pending.clear();
        }
    }
}
