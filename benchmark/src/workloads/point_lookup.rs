//! `point_lookup` — the smallest message the stack carries.
//!
//! One client, in process, inline dispatch; a primary-key probe on
//! 10 000 rows with seeded uniform keys. Envelope, addressing, bus and
//! dispatch cost are nearly the whole op, so this is where a change to
//! the per-request path shows and a change to the scan or codec does not.

use super::{
    item_rows, load_items, scaled, Client, Deck, ExpectedRead, Instance, Kind, OpInput, Oracle,
    Spec,
};
use crate::trace::Probe;
use dais_core::{AbstractName, DaisClient};
use dais_dair::{RelationalService, SqlClient, SqlResponseData};
use dais_soap::{Bus, CallError};
use dais_sql::{Database, Value};
use dais_util::SplitMix64;

pub const SPEC: Spec = Spec {
    name: "point_lookup",
    kinds: &[Kind { name: "lookup", share: 1.0 }],
    warmup_ops: POOL,
    setup,
};

const ROWS: usize = 10_000;
const PAYLOAD_WIDTH: usize = 64;
/// Keys the oracle pre-answers; ops are dealt from this pool.
const POOL: usize = 1_024;
const SQL: &str = "SELECT id, category, price FROM item WHERE id = ?";

fn setup(seed: u64, scale: f64) -> Instance {
    let mut rng = SplitMix64::new(seed);
    let rows = item_rows(&mut rng, scaled(ROWS, scale, 50), PAYLOAD_WIDTH);
    let (served, oracle) = (Database::new("items"), Database::new("oracle"));
    load_items(&served, &rows);
    load_items(&oracle, &rows);

    let pool = (0..scaled(POOL, scale, 16))
        .map(|_| {
            let key = rng.gen_range(0, rows.len() as u64) as i64;
            ExpectedRead::compute(&oracle, SQL, vec![Value::Int(key)])
        })
        .collect();

    let bus = Bus::new();
    let service = RelationalService::launch(&bus, "bus://items", served, Default::default());
    let client = SqlClient::builder().bus(bus.clone()).address("bus://items").build();
    let reader = SqlReader::new(client, service.db_resource.clone(), pool, &mut rng);
    Instance {
        clients: vec![Box::new(reader)],
        client_bus: bus.clone(),
        service_bus: bus,
        transport: None,
        oracle: Oracle::Sql(oracle),
        keep_alive: Box::new(service),
    }
}

/// A client that issues direct-access `SQLExecute` reads dealt from a
/// pool of oracle-answered queries. Shared with `range_scan`.
pub struct SqlReader {
    client: SqlClient,
    resource: AbstractName,
    pool: Vec<ExpectedRead>,
    deck: Deck,
    next: usize,
    reply: Option<SqlResponseData>,
}

impl SqlReader {
    pub fn new(
        client: SqlClient,
        resource: AbstractName,
        pool: Vec<ExpectedRead>,
        rng: &mut SplitMix64,
    ) -> SqlReader {
        let deck = Deck::shuffled(pool.len(), rng);
        SqlReader { client, resource, pool, deck, next: 0, reply: None }
    }
}

impl Client for SqlReader {
    fn prepare(&mut self) -> usize {
        self.next = self.deck.draw();
        0
    }

    fn execute(&mut self, probe: &Probe) -> Result<(), CallError> {
        let q = &self.pool[self.next];
        self.reply = Some(probe.call(|| self.client.execute(&self.resource, q.sql, &q.params))?);
        Ok(())
    }

    fn verify(&mut self) -> Result<u64, String> {
        let reply = self.reply.take().ok_or("no reply to verify")?;
        let rowset = reply.rowset().ok_or("reply carries no rowset")?;
        self.pool[self.next].check(rowset.row_count() as u64, crate::checksum::rowset(rowset))
    }

    fn input(&self) -> OpInput {
        self.pool[self.next].input()
    }
}
