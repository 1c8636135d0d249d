//! Shard pruning never loses a row.
//!
//! A federated statement reaches only the shards its shard-key
//! conjuncts leave possible (`DistributedStatement::target_shards`). The
//! premise of a federated view is that its answer equals the single
//! store's, so a seeded stream of statements — key equalities and
//! ranges, bound as literals and as `?`, with `Int`, `Double` and `NULL`
//! bounds, `OR`, expressions on the key, non-key filters, windows and a
//! table-less `SELECT` — runs against hash and range fleets of one and
//! four shards and against one plain database holding the same rows,
//! and every answer must agree row for row. The wire proves the
//! pruning: a key lookup costs the consumer's message and one leg's. A
//! second pass kills the first replica of every shard, so each pruned
//! leg must fail over.

use std::sync::Arc;

use dais::core::DaisClient;
use dais::dair::SqlClient;
use dais::federation::{FleetOptions, RelationalFleet, ShardScheme};
use dais::soap::retry::SleepFn;
use dais::soap::{Bus, CallError, FaultCode, FaultInjector, FaultPolicy, RetryConfig, RetryPolicy};
use dais::sql::{Database, Rowset, Value};
use dais_util::SplitMix64;

const SCHEMA: &str = "CREATE TABLE t (k INTEGER PRIMARY KEY, c INTEGER, v VARCHAR)";
const INSERT: &str = "INSERT INTO t VALUES (?, ?, ?)";
/// Keys are drawn from `KEYS`, so some lookups miss and ranges straddle
/// every range-shard bound (including below zero).
const KEYS: std::ops::Range<i64> = -10..70;
const ROWS: usize = 60;
const STATEMENTS: usize = 400;

fn scheme(range: bool, shards: usize) -> ShardScheme {
    if range {
        // Shards cover [.., 0), [0, 20), [20, 40), [40, ..) at four.
        let bounds = [0, 20, 40].into_iter().take(shards - 1).collect();
        ShardScheme::Range { column: "k".into(), bounds }
    } else {
        ShardScheme::Hash { column: "k".into() }
    }
}

/// One statement of the stream, and whether its answer's row order is
/// defined (otherwise answers compare as multisets).
struct Statement {
    sql: String,
    params: Vec<Value>,
    ordered: bool,
    /// A key equality with an `Int` bound: it must cost one leg.
    key_lookup: bool,
}

fn statement(rng: &mut SplitMix64) -> Statement {
    // Keys beside a range-shard bound, where an off-by-one in the
    // pruned run would lose a row.
    let edge =
        |rng: &mut SplitMix64| [-1, 0, 1, 19, 20, 21, 39, 40, 41][rng.gen_range(0, 9) as usize];
    let key = |rng: &mut SplitMix64| {
        if rng.gen_bool(1.0 / 3.0) {
            edge(rng)
        } else {
            rng.gen_range(0, (KEYS.end - KEYS.start) as u64) as i64 + KEYS.start
        }
    };
    let (a, b, c) = (key(rng), key(rng), rng.gen_range(0, 4) as i64);
    let (lo, hi) = (a.min(b), a.max(b));
    let plain = |sql: String, params: Vec<Value>, ordered| Statement {
        sql,
        params,
        ordered,
        key_lookup: false,
    };
    match rng.gen_range(0, 16) {
        0 => Statement {
            sql: "SELECT k, c, v FROM t WHERE k = ?".into(),
            params: vec![Value::Int(a)],
            ordered: true,
            key_lookup: true,
        },
        1 => Statement {
            sql: format!("SELECT v, k FROM t WHERE {} = k AND (c = ? OR c IS NULL)", a.abs()),
            params: vec![Value::Int(c)],
            ordered: true,
            key_lookup: true,
        },
        2 => Statement {
            sql: "SELECT x.k, x.v FROM t x WHERE x.k = ? AND x.k >= ?".into(),
            params: vec![Value::Int(a), Value::Int(lo)],
            ordered: true,
            key_lookup: true,
        },
        3 => plain(
            "SELECT k, v FROM t WHERE k >= ? AND k < ? ORDER BY k".into(),
            vec![Value::Int(lo), Value::Int(hi)],
            true,
        ),
        4 => {
            let (lower, upper) = (edge(rng), edge(rng));
            let lower_op = [">", ">="][rng.gen_range(0, 2) as usize];
            // The upper bound written from the literal's side.
            let upper_op = [">", ">="][rng.gen_range(0, 2) as usize];
            plain(
                format!(
                    "SELECT k FROM t WHERE k {lower_op} ? AND {} {upper_op} k ORDER BY k DESC",
                    upper.abs()
                ),
                vec![Value::Int(lower.min(a))],
                true,
            )
        }
        5 => plain(
            "SELECT k, c FROM t WHERE c = ? ORDER BY k LIMIT 5 OFFSET 1".into(),
            vec![Value::Int(c)],
            true,
        ),
        6 => plain(
            "SELECT k FROM t WHERE k = ? OR k = ?".into(),
            vec![Value::Int(a), Value::Int(b)],
            false,
        ),
        // Bound as a `Double`, `NULL` or a string: no pruning, same answer.
        7 => plain("SELECT k, v FROM t WHERE k = ?".into(), vec![Value::Double(a as f64)], false),
        8 => plain("SELECT k FROM t WHERE k = ?".into(), vec![Value::Null], false),
        9 => plain(format!("SELECT k FROM t WHERE k = {}.0", a.abs()), vec![], false),
        10 => plain("SELECT k FROM t WHERE k + 0 = ?".into(), vec![Value::Int(a)], false),
        11 => plain(format!("SELECT k FROM t WHERE k < {a} AND k > -5"), vec![], false),
        12 => plain(
            "SELECT k, v FROM t WHERE k BETWEEN ? AND ? ORDER BY k".into(),
            vec![Value::Int(lo), Value::Int(hi)],
            true,
        ),
        13 => plain(
            "SELECT k FROM t WHERE k >= ? ORDER BY k LIMIT 3".into(),
            vec![Value::Int(a)],
            true,
        ),
        14 => plain("SELECT 7, 'seven'".into(), vec![], true),
        _ => plain("SELECT k, c, v FROM t WHERE c = ?".into(), vec![Value::Int(c)], false),
    }
}

fn canon(rowset: &Rowset, ordered: bool) -> Vec<String> {
    let mut rows: Vec<String> = rowset
        .rows
        .iter()
        .map(|row| row.iter().map(Value::to_display_string).collect::<Vec<_>>().join("\u{1f}"))
        .collect();
    if !ordered {
        rows.sort();
    }
    rows
}

/// The seeded rows, as `(k, c, v)`; `c` is sometimes NULL.
fn rows(seed: u64) -> Vec<[Value; 3]> {
    let mut rng = SplitMix64::new(seed);
    let mut keys: Vec<i64> = KEYS.collect();
    let mut rows = Vec::with_capacity(ROWS);
    for _ in 0..ROWS {
        let k = keys.swap_remove(rng.gen_range(0, keys.len() as u64) as usize);
        let c =
            if rng.gen_bool(0.2) { Value::Null } else { Value::Int(rng.gen_range(0, 4) as i64) };
        rows.push([Value::Int(k), c, Value::Str(format!("row{k}"))]);
    }
    rows
}

/// Run the seeded statement stream over a `range`/hash fleet of
/// `shards` shards × 2 replicas, with the first replica of every shard
/// dead when `kill` is set, and compare every answer with one database.
fn differential(range: bool, shards: usize, kill: bool) {
    let seed = 0x5EED ^ (shards as u64) ^ (u64::from(range) << 8) ^ (u64::from(kill) << 9);
    let label = format!("{} × {shards}, kill {kill}", if range { "range" } else { "hash" });
    let single = Database::new("single");
    single.execute(SCHEMA, &[]).unwrap();

    let bus = Bus::new();
    let no_sleep: SleepFn = Arc::new(|_| {});
    let fleet = RelationalFleet::launch(
        &bus,
        "prune",
        SCHEMA,
        scheme(range, shards),
        FleetOptions {
            shards,
            replicas: 2,
            seed,
            failover: RetryConfig::new(RetryPolicy::new(3)).with_sleep(no_sleep),
            ..FleetOptions::default()
        },
    );
    for row in rows(seed) {
        single.execute(INSERT, &row).unwrap();
        fleet.ingest(&row[0], INSERT, &row).unwrap();
    }
    if kill {
        let injector = FaultInjector::new(seed);
        for s in 0..shards {
            injector
                .set_policy(fleet.router.replica_address(s, 0), FaultPolicy::default().drop(1.0));
        }
        bus.add_interceptor(Arc::new(injector));
    }
    let client = SqlClient::builder().bus(bus.clone()).resource(fleet.resource()).build();

    let mut rng = SplitMix64::new(seed);
    let mut lookups = 0;
    for i in 0..STATEMENTS {
        let stmt = statement(&mut rng);
        let expected = single
            .execute(&stmt.sql, &stmt.params)
            .map(|r| r.rowset().map(|r| canon(r, stmt.ordered)));
        let before = bus.stats().messages;
        let got = client.execute(fleet.resource().resource(), &stmt.sql, &stmt.params);
        let messages = bus.stats().messages - before;
        match (expected, got) {
            (Ok(Some(rows)), Ok(data)) => {
                let rowset = data.rowset().expect("a SELECT answers with a rowset");
                assert_eq!(
                    canon(rowset, stmt.ordered),
                    rows,
                    "{label}: statement {i} `{}` {:?}",
                    stmt.sql,
                    stmt.params
                );
            }
            (Err(_), Err(CallError::Fault(_))) => {}
            (expected, got) => panic!(
                "{label}: statement {i} `{}` {:?}: one node {expected:?}, fleet {got:?}",
                stmt.sql, stmt.params
            ),
        }
        if stmt.key_lookup && !kill {
            lookups += 1;
            assert_eq!(
                messages, 2,
                "{label}: `{}` must cost the consumer's and one leg's",
                stmt.sql
            );
        }
    }
    assert!(kill || lookups > 10, "{label}: the stream must exercise key lookups, got {lookups}");
}

#[test]
fn hash_fleets_answer_like_one_node() {
    for shards in [1, 4] {
        differential(false, shards, false);
    }
}

#[test]
fn range_fleets_answer_like_one_node() {
    for shards in [1, 4] {
        differential(true, shards, false);
    }
}

#[test]
fn pruned_legs_fail_over_when_the_first_replica_is_dead() {
    for range in [false, true] {
        for shards in [1, 4] {
            differential(range, shards, true);
        }
    }
}

/// A statement that constrains nothing about the key reaches every
/// shard: the consumer's message plus one leg per shard.
#[test]
fn an_unconstrained_scan_still_reaches_every_shard() {
    let bus = Bus::new();
    let fleet =
        RelationalFleet::launch(&bus, "wide", SCHEMA, scheme(true, 4), FleetOptions::default());
    for row in rows(3) {
        fleet.ingest(&row[0], INSERT, &row).unwrap();
    }
    let client = SqlClient::builder().bus(bus.clone()).resource(fleet.resource()).build();
    for (sql, legs) in [
        ("SELECT k FROM t WHERE c = 1", 4),
        ("SELECT k FROM t WHERE k >= 0 AND k < 20", 1),
        ("SELECT k FROM t WHERE k >= 10 AND k < 30", 2),
        ("SELECT k FROM t WHERE k < 0 OR k > 50", 4),
    ] {
        let before = bus.stats().messages;
        client.execute(fleet.resource().resource(), sql, &[]).unwrap();
        assert_eq!(bus.stats().messages - before, 1 + legs, "{sql}");
    }
}

/// Under `Hash` and `Range` a row is placed by the `Int` value of its
/// key; any other key is refused before a shard is written, since a
/// `Double(5.0)` key would hash as `"5.0"` where `k = 5` prunes to the
/// shard of `"5"`.
#[test]
fn ingest_refuses_a_key_that_is_not_an_int() {
    for range in [false, true] {
        let bus = Bus::new();
        let fleet = RelationalFleet::launch(
            &bus,
            "keys",
            SCHEMA,
            scheme(range, 4),
            FleetOptions::default(),
        );
        for key in [Value::Double(5.0), Value::Str("5".into()), Value::Null] {
            let row = [Value::Int(5), Value::Int(1), Value::Str("five".into())];
            match fleet.ingest(&key, INSERT, &row) {
                Err(CallError::Fault(f)) => assert_eq!(f.code, FaultCode::Client, "{key:?}: {f:?}"),
                other => panic!("{key:?}: expected a client fault, got {other:?}"),
            }
        }
        let client = SqlClient::builder().bus(bus.clone()).resource(fleet.resource()).build();
        let data = client.execute(fleet.resource().resource(), "SELECT k FROM t", &[]).unwrap();
        assert_eq!(data.rowset().unwrap().row_count(), 0, "a refused row reached no shard");
    }
}
