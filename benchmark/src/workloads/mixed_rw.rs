//! `mixed_rw` — writes beside reads on the same table and lock.
//!
//! Two clients, in process, inline dispatch, one `item` table of 10 000
//! rows behind one service. The reader runs 200-row range scans; the
//! writer alternates a ~1 000-row `UPDATE … WHERE category = ?` with a
//! single-row `INSERT` (which also deletes the row the previous insert
//! added, so the table does not grow with run length). It is the one
//! place a reader stalled behind a writer, or a read optimisation paid
//! for by writers, can show.
//!
//! Reads are checked for row count, contiguous ids and every column the
//! writer leaves alone; each write's update count is checked against a
//! tally; and after the last op `SUM(price)`/`COUNT(*)` must equal what
//! the writes actually issued add up to.

use super::{item_rows, load_items, scaled, Client, Deck, Instance, Kind, OpInput, Oracle, Spec};
use crate::trace::Probe;
use dais_core::{AbstractName, DaisClient};
use dais_dair::{RelationalService, SqlClient, SqlResponseData};
use dais_soap::{Bus, CallError};
use dais_sql::{Database, Value};
use dais_util::SplitMix64;

const READ: usize = 0;
const UPDATE: usize = 1;
const INSERT: usize = 2;

pub const SPEC: Spec = Spec {
    name: "mixed_rw",
    kinds: &[
        Kind { name: "read", share: 0.5 },
        Kind { name: "update", share: 0.25 },
        Kind { name: "insert", share: 0.25 },
    ],
    warmup_ops: READ_POOL,
    setup,
};

const ROWS: usize = 10_000;
const PAYLOAD_WIDTH: usize = 64;
const READ_ROWS: usize = 200;
const READ_POOL: usize = 200;
const PRICE_COLUMN: usize = 2;
const SQL_READ: &str =
    "SELECT id, category, price, payload FROM item WHERE id >= ? AND id < ? ORDER BY id";
const SQL_UPDATE: &str = "UPDATE item SET price = price + 1 WHERE category = ?";
const SQL_INSERT: &str = "INSERT INTO item VALUES (?, ?, ?, ?)";
const SQL_DELETE: &str = "DELETE FROM item WHERE id = ?";
const SQL_TOTALS: &str = "SELECT SUM(price), COUNT(*) FROM item";

struct ExpectedScan {
    params: Vec<Value>,
    first_id: i64,
    rows: usize,
    /// Checksum over id, category and payload: everything but `price`.
    stable_checksum: u64,
}

fn setup(seed: u64, scale: f64) -> Instance {
    let mut rng = SplitMix64::new(seed);
    let rows = item_rows(&mut rng, scaled(ROWS, scale, 100), PAYLOAD_WIDTH);
    let (served, oracle) = (Database::new("items"), Database::new("oracle"));
    load_items(&served, &rows);
    load_items(&oracle, &rows);

    let read_rows = scaled(READ_ROWS, scale, 5);
    let pool: Vec<ExpectedScan> = (0..scaled(READ_POOL, scale, 8))
        .map(|_| {
            let lo = rng.gen_range(0, (rows.len() - read_rows) as u64 + 1) as i64;
            let params = vec![Value::Int(lo), Value::Int(lo + read_rows as i64)];
            let result = oracle.execute(SQL_READ, &params).expect("oracle scan must run");
            let rowset = result.rowset().expect("oracle scan returns rows");
            ExpectedScan {
                params,
                first_id: lo,
                rows: rowset.row_count(),
                stable_checksum: crate::checksum::rowset_skipping(rowset, PRICE_COLUMN),
            }
        })
        .collect();

    let mut category_rows = [0u64; super::CATEGORIES as usize];
    for row in &rows {
        category_rows[row.category as usize] += 1;
    }

    let bus = Bus::new();
    let service = RelationalService::launch(&bus, "bus://items", served, Default::default());
    let client = || SqlClient::builder().bus(bus.clone()).address("bus://items").build();
    let reader = Reader {
        client: client(),
        resource: service.db_resource.clone(),
        deck: Deck::shuffled(pool.len(), &mut rng),
        pool,
        next: 0,
        reply: None,
    };
    let writer = Writer {
        client: client(),
        resource: service.db_resource.clone(),
        rng: rng.split(),
        issued: 0,
        next: Write::Update { category: 0 },
        replies: Vec::new(),
        category_rows,
        live_insert: None,
        next_id: rows.len() as i64,
        expected_sum: rows.iter().map(|r| r.price).sum(),
        expected_count: rows.len() as u64,
    };
    Instance {
        clients: vec![Box::new(reader), Box::new(writer)],
        client_bus: bus.clone(),
        service_bus: bus,
        transport: None,
        oracle: Oracle::Sql(oracle),
        keep_alive: Box::new(service),
    }
}

struct Reader {
    client: SqlClient,
    resource: AbstractName,
    pool: Vec<ExpectedScan>,
    deck: Deck,
    next: usize,
    reply: Option<SqlResponseData>,
}

impl Client for Reader {
    fn prepare(&mut self) -> usize {
        self.next = self.deck.draw();
        READ
    }

    fn execute(&mut self, probe: &Probe) -> Result<(), CallError> {
        let q = &self.pool[self.next];
        self.reply = Some(probe.call(|| self.client.execute(&self.resource, SQL_READ, &q.params))?);
        Ok(())
    }

    fn verify(&mut self) -> Result<u64, String> {
        let q = &self.pool[self.next];
        let reply = self.reply.take().ok_or("no reply to verify")?;
        let rowset = reply.rowset().ok_or("reply carries no rowset")?;
        if rowset.row_count() != q.rows {
            return Err(format!(
                "scan from {}: {} rows of {}",
                q.first_id,
                rowset.row_count(),
                q.rows
            ));
        }
        for (i, row) in rowset.rows.iter().enumerate() {
            if row.first() != Some(&Value::Int(q.first_id + i as i64)) {
                return Err(format!("scan from {}: row {i} is out of sequence", q.first_id));
            }
        }
        if crate::checksum::rowset_skipping(rowset, PRICE_COLUMN) != q.stable_checksum {
            return Err(format!("scan from {}: a column no writer touches changed", q.first_id));
        }
        Ok(q.rows as u64)
    }

    fn input(&self) -> OpInput {
        OpInput::Sql { sql: SQL_READ.to_string(), params: self.pool[self.next].params.clone() }
    }
}

enum Write {
    Update { category: i64 },
    Insert { id: i64, category: i64, price: f64, payload: String },
}

struct Writer {
    client: SqlClient,
    resource: AbstractName,
    rng: SplitMix64,
    issued: usize,
    next: Write,
    replies: Vec<SqlResponseData>,
    /// Rows per category right now, the live inserted row included.
    category_rows: [u64; super::CATEGORIES as usize],
    /// The row the previous insert op added: `(id, category, price)`,
    /// price as it stands after the updates since.
    live_insert: Option<(i64, i64, f64)>,
    next_id: i64,
    expected_sum: f64,
    expected_count: u64,
}

impl Writer {
    fn update_count(reply: &SqlResponseData, what: &str, expected: u64) -> Result<(), String> {
        match reply.update_count() {
            Some(n) if n == expected => Ok(()),
            other => Err(format!("{what}: update count {other:?}, expected {expected}")),
        }
    }
}

impl Client for Writer {
    fn prepare(&mut self) -> usize {
        self.replies.clear();
        let kind = if self.issued.is_multiple_of(2) { UPDATE } else { INSERT };
        self.issued += 1;
        let category = self.rng.gen_range(0, super::CATEGORIES) as i64;
        self.next = if kind == UPDATE {
            Write::Update { category }
        } else {
            let id = self.next_id;
            self.next_id += 1;
            Write::Insert {
                id,
                category,
                price: self.rng.gen_range(0, 400_000) as f64 / 4.0,
                payload: format!("inserted-{id}"),
            }
        };
        kind
    }

    fn execute(&mut self, probe: &Probe) -> Result<(), CallError> {
        let mut send = |sql: &str, params: &[Value]| -> Result<(), CallError> {
            let reply = probe.call(|| self.client.execute(&self.resource, sql, params))?;
            self.replies.push(reply);
            Ok(())
        };
        match &self.next {
            Write::Update { category } => send(SQL_UPDATE, &[Value::Int(*category)]),
            Write::Insert { id, category, price, payload } => {
                send(
                    SQL_INSERT,
                    &[
                        Value::Int(*id),
                        Value::Int(*category),
                        Value::Double(*price),
                        Value::Str(payload.clone()),
                    ],
                )?;
                match self.live_insert {
                    Some((previous, _, _)) => send(SQL_DELETE, &[Value::Int(previous)]),
                    None => Ok(()),
                }
            }
        }
    }

    fn verify(&mut self) -> Result<u64, String> {
        match &self.next {
            Write::Update { category } => {
                let touched = self.category_rows[*category as usize];
                let reply = self.replies.first().ok_or("no reply to verify")?;
                Writer::update_count(reply, "UPDATE", touched)?;
                self.expected_sum += touched as f64;
                if let Some((_, live_category, price)) = &mut self.live_insert {
                    if live_category == category {
                        *price += 1.0;
                    }
                }
            }
            Write::Insert { id, category, price, .. } => {
                let reply = self.replies.first().ok_or("no reply to verify")?;
                Writer::update_count(reply, "INSERT", 1)?;
                self.expected_sum += price;
                self.expected_count += 1;
                self.category_rows[*category as usize] += 1;
                if let Some((_, old_category, old_price)) = self.live_insert {
                    let reply = self.replies.get(1).ok_or("no DELETE reply to verify")?;
                    Writer::update_count(reply, "DELETE", 1)?;
                    self.expected_sum -= old_price;
                    self.expected_count -= 1;
                    self.category_rows[old_category as usize] -= 1;
                }
                self.live_insert = Some((*id, *category, *price));
            }
        }
        Ok(0)
    }

    fn input(&self) -> OpInput {
        OpInput::Opaque
    }

    fn finish(&mut self) -> Result<(), String> {
        let reply = self
            .client
            .execute(&self.resource, SQL_TOTALS, &[])
            .map_err(|e| format!("final totals query failed: {e:?}"))?;
        let row =
            reply.rowset().and_then(|r| r.rows.first()).ok_or("totals query returned no row")?;
        let expected = [Value::Double(self.expected_sum), Value::Int(self.expected_count as i64)];
        if row.as_slice() != expected {
            return Err(format!(
                "table totals are {row:?}; the writes issued add up to {expected:?}"
            ));
        }
        Ok(())
    }
}
