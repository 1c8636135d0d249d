//! `page_stream.tcp` — the paper's indirect access pattern, end to end,
//! over a real socket.
//!
//! One client on its own bus reaches the service bus through
//! `TcpTransport` → `TcpServer` on loopback, one connection. Each op is
//! `SQLExecuteFactory` (2 000 rows) → `SQLRowsetFactory` → `GetTuples`
//! in 256-row pages until a short page → destroy both derived
//! resources. It is the only workload where transport framing, sockets
//! and resource lifecycle do work, and it streams the same rowset codec
//! as `range_scan` in pages instead of one reply.

use super::{
    item_rows, load_items, scaled, Client, Deck, ExpectedRead, Instance, Kind, OpInput, Oracle,
    Spec,
};
use crate::checksum::{fold_rowset, Fnv};
use crate::trace::Probe;
use dais_core::{AbstractName, DaisClient};
use dais_dair::{RelationalService, SqlClient};
use dais_soap::{Bus, CallError, Epr, TcpConfig, TcpServer, TcpTransport};
use dais_sql::{Database, Rowset, Value};
use dais_util::SplitMix64;
use std::sync::Arc;

pub const SPEC: Spec = Spec {
    name: "page_stream.tcp",
    kinds: &[Kind { name: "stream", share: 1.0 }],
    warmup_ops: POOL,
    setup,
};

const ROWS: usize = 20_000;
const PAYLOAD_WIDTH: usize = 64;
const RESULT_ROWS: usize = 2_000;
const PAGE_ROWS: usize = 256;
const POOL: usize = 64;
const SQL: &str =
    "SELECT id, category, price, payload FROM item WHERE id >= ? AND id < ? ORDER BY id";

fn setup(seed: u64, scale: f64) -> Instance {
    let mut rng = SplitMix64::new(seed);
    let rows = item_rows(&mut rng, scaled(ROWS, scale, 200), PAYLOAD_WIDTH);
    let (served, oracle) = (Database::new("items"), Database::new("oracle"));
    load_items(&served, &rows);
    load_items(&oracle, &rows);

    let span = scaled(RESULT_ROWS, scale, 20);
    let page_rows = scaled(PAGE_ROWS, scale, 8);
    let pool: Vec<ExpectedRead> = (0..scaled(POOL, scale, 4))
        .map(|_| {
            let lo = rng.gen_range(0, (rows.len() - span) as u64 + 1) as i64;
            let params = vec![Value::Int(lo), Value::Int(lo + span as i64)];
            ExpectedRead::compute(&oracle, SQL, params)
        })
        .collect();

    let service_bus = Bus::new();
    let service =
        RelationalService::launch(&service_bus, "bus://items", served, Default::default());
    let server = TcpServer::bind(&service_bus, "127.0.0.1:0").expect("loopback must bind");
    let transport = Arc::new(TcpTransport::new(TcpConfig { pool_size: 1, ..TcpConfig::default() }));
    transport.set_default_route(server.local_addr());

    let client_bus = Bus::new();
    let client = SqlClient::builder()
        .bus(client_bus.clone())
        .transport(transport.clone())
        .address("bus://items")
        .build();
    let streamer = Streamer {
        client,
        database: service.db_resource.clone(),
        page_rows,
        deck: Deck::shuffled(pool.len(), &mut rng),
        pool,
        next: 0,
        pages: Vec::new(),
    };
    Instance {
        clients: vec![Box::new(streamer)],
        client_bus,
        service_bus,
        transport: Some(transport),
        oracle: Oracle::Sql(oracle),
        keep_alive: Box::new((service, server)),
    }
}

fn name_of(epr: &Epr) -> Result<AbstractName, CallError> {
    epr.resource_abstract_name()
        .and_then(|name| AbstractName::new(name).ok())
        .ok_or_else(|| CallError::UnexpectedResponse("factory EPR names no resource".into()))
}

struct Streamer {
    client: SqlClient,
    database: AbstractName,
    page_rows: usize,
    pool: Vec<ExpectedRead>,
    deck: Deck,
    next: usize,
    pages: Vec<Rowset>,
}

impl Client for Streamer {
    fn prepare(&mut self) -> usize {
        self.next = self.deck.draw();
        self.pages.clear();
        0
    }

    fn execute(&mut self, probe: &Probe) -> Result<(), CallError> {
        let q = &self.pool[self.next];
        let bus = self.client.bus().clone();
        let response_epr = probe
            .call(|| self.client.execute_factory(&self.database, q.sql, &q.params, None, None))?;
        let response = name_of(&response_epr)?;
        let responses = SqlClient::builder().bus(bus.clone()).epr(response_epr).build();
        let rowset_epr = probe.call(|| responses.rowset_factory(&response, None, None))?;
        let rowset = name_of(&rowset_epr)?;
        let rowsets = SqlClient::builder().bus(bus).epr(rowset_epr).build();
        let mut fetched = 0;
        loop {
            let page = probe.call(|| rowsets.get_tuples(&rowset, fetched, self.page_rows))?;
            let n = page.row_count();
            fetched += n;
            self.pages.push(page);
            if n < self.page_rows {
                break;
            }
        }
        probe.call(|| rowsets.core().destroy(&rowset))?;
        probe.call(|| responses.core().destroy(&response))?;
        Ok(())
    }

    fn verify(&mut self) -> Result<u64, String> {
        let mut h = Fnv::new();
        let mut rows = 0;
        for page in &self.pages {
            rows += page.row_count() as u64;
            fold_rowset(&mut h, page);
        }
        self.pool[self.next].check(rows, h.finish())
    }

    fn input(&self) -> OpInput {
        self.pool[self.next].input()
    }
}
