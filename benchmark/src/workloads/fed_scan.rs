//! `fed_scan` — scatter, legs and k-way merge.
//!
//! One client, in process, against a 4-shard × 2-replica
//! `RelationalFleet` (hash on `k`, 8 000 rows; sized for two cores)
//! behind one logical WS-DAI endpoint. Three kinds of query separate
//! what shard pruning could and could not help: `key_eq` and
//! `key_range` constrain the shard key, `nonkey_limit` does not. Every
//! answer is checksummed against a single store holding the same rows:
//! a federated view is only a view if it is indistinguishable from one.

use super::{
    scaled, Client, Deck, ExpectedRead, Instance, Kind, OpInput, Oracle, Spec, CATEGORIES,
};
use crate::trace::Probe;
use dais_core::{AbstractName, DaisClient};
use dais_dair::{SqlClient, SqlResponseData};
use dais_federation::{FleetOptions, RelationalFleet, ShardScheme};
use dais_soap::{Bus, CallError};
use dais_sql::{Database, Value};
use dais_util::SplitMix64;

const KEY_EQ: usize = 0;
const KEY_RANGE: usize = 1;
const NONKEY_LIMIT: usize = 2;

pub const SPEC: Spec = Spec {
    name: "fed_scan",
    kinds: &[
        Kind { name: "key_eq", share: 0.4 },
        Kind { name: "key_range", share: 0.4 },
        Kind { name: "nonkey_limit", share: 0.2 },
    ],
    // Sixty cycles: one round of each key pool, six of the categories.
    warmup_ops: 60 * CYCLE.len(),
    setup,
};

/// The op mix as a fixed cycle rather than a draw per op: every prefix
/// of the run has the stated shares, so the mix adds no sampling noise
/// of its own to any metric. Parameters are still seeded.
const CYCLE: [usize; 5] = [KEY_EQ, KEY_RANGE, KEY_EQ, KEY_RANGE, NONKEY_LIMIT];

pub const AUTHORITY: &str = "fed";
const SHARDS: usize = 4;
const REPLICAS: usize = 2;
const ROWS: usize = 8_000;
const RANGE_ROWS: usize = 500;
/// Pooled `key_eq` and `key_range` queries (`nonkey_limit` has one per
/// category).
const KEY_POOL: usize = 120;
const SCHEMA: &str =
    "CREATE TABLE t (k INTEGER PRIMARY KEY, category INTEGER NOT NULL, v VARCHAR NOT NULL)";
const INSERT: &str = "INSERT INTO t VALUES (?, ?, ?)";
const SQL_KEY_EQ: &str = "SELECT k, category, v FROM t WHERE k = ?";
const SQL_KEY_RANGE: &str = "SELECT k, category, v FROM t WHERE k >= ? AND k < ? ORDER BY k";
const SQL_NONKEY_LIMIT: &str =
    "SELECT k, category, v FROM t WHERE category = ? ORDER BY k LIMIT 100";

fn setup(seed: u64, scale: f64) -> Instance {
    let mut rng = SplitMix64::new(seed);
    let rows = scaled(ROWS, scale, 80);
    let range_rows = scaled(RANGE_ROWS, scale, 5);

    let bus = Bus::new();
    let fleet = RelationalFleet::launch(
        &bus,
        AUTHORITY,
        SCHEMA,
        ShardScheme::Hash { column: "k".into() },
        FleetOptions { shards: SHARDS, replicas: REPLICAS, seed, ..FleetOptions::default() },
    );
    let oracle = Database::new("oracle");
    oracle.execute(SCHEMA, &[]).expect("oracle schema must apply");
    for k in 0..rows as i64 {
        let row = [
            Value::Int(k),
            Value::Int(rng.gen_range(0, CATEGORIES) as i64),
            Value::Str(format!("row{k:05}-{:08x}", rng.next_u64() as u32)),
        ];
        oracle.execute(INSERT, &row).expect("oracle row must insert");
        fleet.ingest(&row[0], INSERT, &row).expect("fleet row must ingest");
    }

    let mut pools: [Vec<ExpectedRead>; 3] = Default::default();
    for _ in 0..scaled(KEY_POOL, scale, 8) {
        let k = rng.gen_range(0, rows as u64) as i64;
        pools[KEY_EQ].push(ExpectedRead::compute(&oracle, SQL_KEY_EQ, vec![Value::Int(k)]));
    }
    for _ in 0..scaled(KEY_POOL, scale, 4) {
        let lo = rng.gen_range(0, (rows - range_rows) as u64 + 1) as i64;
        let params = vec![Value::Int(lo), Value::Int(lo + range_rows as i64)];
        pools[KEY_RANGE].push(ExpectedRead::compute(&oracle, SQL_KEY_RANGE, params));
    }
    for category in 0..CATEGORIES as i64 {
        pools[NONKEY_LIMIT].push(ExpectedRead::compute(
            &oracle,
            SQL_NONKEY_LIMIT,
            vec![Value::Int(category)],
        ));
    }

    let client = SqlClient::builder().bus(bus.clone()).resource(fleet.resource()).build();
    let reader = FedReader {
        client,
        resource: fleet.resource().resource().clone(),
        decks: std::array::from_fn(|kind| Deck::shuffled(pools[kind].len(), &mut rng)),
        pools,
        issued: 0,
        next: (KEY_EQ, 0),
        reply: None,
    };
    Instance {
        clients: vec![Box::new(reader)],
        client_bus: bus.clone(),
        service_bus: bus,
        transport: None,
        oracle: Oracle::Sql(oracle),
        keep_alive: Box::new(fleet),
    }
}

struct FedReader {
    client: SqlClient,
    resource: AbstractName,
    pools: [Vec<ExpectedRead>; 3],
    decks: [Deck; 3],
    issued: usize,
    next: (usize, usize),
    reply: Option<SqlResponseData>,
}

impl FedReader {
    fn query(&self) -> &ExpectedRead {
        &self.pools[self.next.0][self.next.1]
    }
}

impl Client for FedReader {
    fn prepare(&mut self) -> usize {
        let kind = CYCLE[self.issued % CYCLE.len()];
        self.issued += 1;
        self.next = (kind, self.decks[kind].draw());
        kind
    }

    fn execute(&mut self, probe: &Probe) -> Result<(), CallError> {
        let q = self.query();
        self.reply = Some(probe.call(|| self.client.execute(&self.resource, q.sql, &q.params))?);
        Ok(())
    }

    fn verify(&mut self) -> Result<u64, String> {
        let reply = self.reply.take().ok_or("no reply to verify")?;
        let rowset = reply.rowset().ok_or("reply carries no rowset")?;
        self.query().check(rowset.row_count() as u64, crate::checksum::rowset(rowset))
    }

    fn input(&self) -> OpInput {
        self.query().input()
    }
}
