//! The six workloads, behind one shape the engine can drive.
//!
//! A workload is a set-up function that builds stores, services, typed
//! clients and an oracle from a seed, and hands back closed-loop
//! [`Client`]s. Each op is split in three so the clock covers only what
//! a consumer would wait for: `prepare` picks the op (off the clock),
//! `execute` makes the typed-client calls (on the clock), `verify`
//! checks what came back against the oracle (off the clock).

pub mod fed_scan;
pub mod mixed_rw;
pub mod page_stream;
pub mod point_lookup;
pub mod range_scan;
pub mod xml_mix;

use crate::trace::Probe;
use dais_soap::{Bus, CallError, Transport};
use dais_sql::{Database, Value};
use dais_util::SplitMix64;
use dais_xmldb::XmlDatabase;
use std::any::Any;
use std::sync::Arc;

/// One kind of op within a workload and its fixed share of the op mix.
/// Headline latencies are the share-weighted sum of per-kind
/// percentiles, so they do not jump when a median falls between modes.
pub struct Kind {
    pub name: &'static str,
    pub share: f64,
}

pub struct Spec {
    pub name: &'static str,
    pub kinds: &'static [Kind],
    /// Untimed ops each client runs before the measured phase; the
    /// exact wire-byte metrics are taken over these.
    pub warmup_ops: usize,
    pub setup: fn(seed: u64, scale: f64) -> Instance,
}

pub const ALL: [&Spec; 6] = [
    &point_lookup::SPEC,
    &range_scan::SPEC,
    &page_stream::SPEC,
    &fed_scan::SPEC,
    &mixed_rw::SPEC,
    &xml_mix::SPEC,
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.into_iter().find(|s| s.name == name)
}

/// What a captured op asked for, in the terms the engine layers speak —
/// the shadow calls' input.
#[derive(Debug, Clone, PartialEq)]
pub enum OpInput {
    Sql {
        sql: String,
        params: Vec<Value>,
    },
    XPath(String),
    /// Nothing a layer function can replay on its own (writes, document
    /// fetches, XQuery): only the envelope shadows apply.
    Opaque,
}

/// A closed-loop caller: the next op starts when the previous one has
/// been answered.
pub trait Client: Send {
    /// Choose the next op; returns its kind (an index into the spec's
    /// `kinds`).
    fn prepare(&mut self) -> usize;
    /// Make the op's typed-client calls, each inside `probe.call`.
    fn execute(&mut self, probe: &Probe) -> Result<(), CallError>;
    /// Check the answer against the oracle; returns the rows (tuples,
    /// XML items or documents) the op delivered.
    fn verify(&mut self) -> Result<u64, String>;
    /// The prepared op's input, for the shadow calls.
    fn input(&self) -> OpInput;
    /// A check over everything this client did, after the last op.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// The identical second store the oracle answers from.
pub enum Oracle {
    Sql(Database),
    Xml { db: XmlDatabase, collection: &'static str },
}

/// A set-up workload.
pub struct Instance {
    pub clients: Vec<Box<dyn Client>>,
    /// The bus the clients call through: its `BusStats` are the wire
    /// byte counts, and the traced run installs the capture interceptor
    /// and the timed transport here.
    pub client_bus: Bus,
    /// The bus the services are registered on (the same bus in process;
    /// the far side of the socket over TCP).
    pub service_bus: Bus,
    /// The transport the workload itself installed, if any. A workload
    /// with one talks over a socket: its threads sleep in the kernel
    /// between messages, so it runs under an
    /// [`IdleGuard`](crate::idle::IdleGuard).
    pub transport: Option<Arc<dyn Transport>>,
    pub oracle: Oracle,
    /// Services, servers and fleets that must outlive the clients.
    pub keep_alive: Box<dyn Any>,
}

/// Deals a pool's indices in a seeded order, round after round: every
/// `len` draws cover the pool exactly once. Drawing with replacement
/// would make each run a different sample of the pool, and the exact
/// byte counts would carry that sampling noise; dealt this way, a
/// warm-up that is a whole number of rounds counts every pooled query
/// equally often, whatever the seed ordered them as.
pub struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    pub fn shuffled(len: usize, rng: &mut SplitMix64) -> Deck {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            order.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
        }
        Deck { order, next: 0 }
    }

    pub fn draw(&mut self) -> usize {
        let drawn = self.order[self.next];
        self.next = (self.next + 1) % self.order.len();
        drawn
    }
}

/// `n` scaled for the self-tests' small runs, never below `floor`.
pub fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale) as usize).max(floor)
}

/// The `item` table every relational workload but `fed_scan` uses.
/// Prices are multiples of 0.25, so sums of them are exact in an f64 and
/// `mixed_rw` can check `SUM(price)` for equality.
pub const ITEM_SCHEMA: &str = "CREATE TABLE item (
    id INTEGER PRIMARY KEY,
    category INTEGER NOT NULL,
    price DOUBLE NOT NULL,
    payload VARCHAR NOT NULL
)";

pub const CATEGORIES: u64 = 10;

pub struct ItemRow {
    pub id: i64,
    pub category: i64,
    pub price: f64,
    pub payload: String,
}

/// Seeded `item` rows, ids `0..rows`.
pub fn item_rows(rng: &mut SplitMix64, rows: usize, payload_width: usize) -> Vec<ItemRow> {
    (0..rows)
        .map(|id| ItemRow {
            id: id as i64,
            category: rng.gen_range(0, CATEGORIES) as i64,
            price: rng.gen_range(0, 400_000) as f64 / 4.0,
            payload: (0..payload_width)
                .map(|_| char::from(b'a' + rng.gen_range(0, 26) as u8))
                .collect(),
        })
        .collect()
}

/// Create and fill an `item` table, in batches so statement parsing
/// stays out of the load.
pub fn load_items(db: &Database, rows: &[ItemRow]) {
    db.execute(ITEM_SCHEMA, &[]).expect("item schema must apply");
    for batch in rows.chunks(256) {
        let values: Vec<String> = batch
            .iter()
            .map(|r| format!("({}, {}, {}, '{}')", r.id, r.category, r.price, r.payload))
            .collect();
        db.execute(&format!("INSERT INTO item VALUES {}", values.join(", ")), &[])
            .expect("item rows must insert");
    }
}

/// A read the oracle has already answered.
pub struct ExpectedRead {
    pub sql: &'static str,
    pub params: Vec<Value>,
    pub rows: u64,
    pub checksum: u64,
}

impl ExpectedRead {
    /// Answer `sql` from the oracle store directly — no service, no wire.
    pub fn compute(oracle: &Database, sql: &'static str, params: Vec<Value>) -> ExpectedRead {
        let result = oracle.execute(sql, &params).expect("oracle query must run");
        let rowset = result.rowset().expect("oracle query returns rows");
        ExpectedRead {
            sql,
            rows: rowset.row_count() as u64,
            checksum: crate::checksum::rowset(rowset),
            params,
        }
    }

    pub fn check(&self, rows: u64, checksum: u64) -> Result<u64, String> {
        if rows != self.rows {
            return Err(format!(
                "{} {:?}: {rows} rows, oracle has {}",
                self.sql, self.params, self.rows
            ));
        }
        if checksum != self.checksum {
            return Err(format!(
                "{} {:?}: checksum {checksum:016x}, oracle has {:016x}",
                self.sql, self.params, self.checksum
            ));
        }
        Ok(rows)
    }

    pub fn input(&self) -> OpInput {
        OpInput::Sql { sql: self.sql.to_string(), params: self.params.clone() }
    }
}
