//! `range_scan` — the bypass workload for any envelope or bus change.
//!
//! One client, in process; a direct-access `SQLExecute` returning 1 000
//! ordered rows of 20 000 with a 64-byte payload. The engine scan and
//! the WebRowSet codec dominate and per-message overhead is diluted a
//! thousandfold, so a per-request saving should leave this unmoved.

use super::point_lookup::SqlReader;
use super::{item_rows, load_items, scaled, ExpectedRead, Instance, Kind, Oracle, Spec};
use dais_core::DaisClient;
use dais_dair::{RelationalService, SqlClient};
use dais_soap::Bus;
use dais_sql::{Database, Value};
use dais_util::SplitMix64;

pub const SPEC: Spec = Spec {
    name: "range_scan",
    kinds: &[Kind { name: "scan", share: 1.0 }],
    warmup_ops: POOL,
    setup,
};

const ROWS: usize = 20_000;
const PAYLOAD_WIDTH: usize = 64;
const SCAN_ROWS: usize = 1_000;
const POOL: usize = 128;
const SQL: &str =
    "SELECT id, category, price, payload FROM item WHERE id >= ? AND id < ? ORDER BY id";

fn setup(seed: u64, scale: f64) -> Instance {
    let mut rng = SplitMix64::new(seed);
    let rows = item_rows(&mut rng, scaled(ROWS, scale, 100), PAYLOAD_WIDTH);
    let (served, oracle) = (Database::new("items"), Database::new("oracle"));
    load_items(&served, &rows);
    load_items(&oracle, &rows);

    let span = scaled(SCAN_ROWS, scale, 10);
    let pool = (0..scaled(POOL, scale, 8))
        .map(|_| {
            let lo = rng.gen_range(0, (rows.len() - span) as u64 + 1) as i64;
            let params = vec![Value::Int(lo), Value::Int(lo + span as i64)];
            ExpectedRead::compute(&oracle, SQL, params)
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
