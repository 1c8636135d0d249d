//! Shard routing and replica health for a federated data resource.
//!
//! A [`ShardRouter`] maps one *logical* resource to N backing resources,
//! each held by a replica set. Routing is deterministic (hash or range on
//! a key column for WS-DAIR, collection/document name for WS-DAIX);
//! replica choice is not: the router rotates healthy replicas with a
//! seeded counter and applies half-open probing to replicas it has
//! marked unhealthy, so a recovered shard service re-enters rotation
//! without operator action.

use dais_core::ResourceRef;
use dais_sql::Value;
use dais_util::rng::mix2;
use dais_util::sync::Mutex;

/// How a key value is assigned to a shard.
///
/// The placement contract under `Hash` and `Range`: every table's rows
/// are placed by the `Value::Int` value of the scheme's key column, so a
/// row whose key is `k` lives on `shard_of(Int(k))` and nowhere else.
/// [`RelationalFleet::ingest`](crate::RelationalFleet::ingest) refuses
/// any other key, and shard pruning
/// ([`DistributedStatement::target_shards`](crate::DistributedStatement::target_shards))
/// relies on it to skip shards without losing a row.
#[derive(Debug, Clone)]
pub enum ShardScheme {
    /// Hash the key column's canonical text rendering.
    Hash { column: String },
    /// Range-partition an integer key column: `bounds` holds the ascending
    /// upper bounds (exclusive) of every shard but the last, so
    /// `bounds.len() + 1` shards cover the whole line.
    Range { column: String, bounds: Vec<i64> },
    /// Hash the collection/document name (WS-DAIX).
    Collection,
}

impl ShardScheme {
    /// The key column a WS-DAIR statement is partitioned on, if any.
    pub fn key_column(&self) -> Option<&str> {
        match self {
            ShardScheme::Hash { column } | ShardScheme::Range { column, .. } => Some(column),
            ShardScheme::Collection => None,
        }
    }

    /// Deterministically assign `key` to one of `shards` shards.
    pub fn shard_of(&self, shards: usize, key: &Value) -> usize {
        debug_assert!(shards > 0);
        match self {
            ShardScheme::Range { bounds, .. } => {
                if let Some(i) = key_as_int(key) {
                    bounds.partition_point(|b| *b <= i).min(shards - 1)
                } else {
                    hash_shard(shards, key)
                }
            }
            ShardScheme::Hash { .. } | ShardScheme::Collection => hash_shard(shards, key),
        }
    }
}

fn key_as_int(key: &Value) -> Option<i64> {
    match key {
        Value::Int(i) => Some(*i),
        Value::Double(d) => Some(*d as i64),
        _ => None,
    }
}

fn hash_shard(shards: usize, key: &Value) -> usize {
    let mut text = String::new();
    key.write_display_into(&mut text);
    let mut h = 0xDA15_u64;
    for b in text.bytes() {
        h = mix2(h, u64::from(b));
    }
    (h % shards as u64) as usize
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Healthy,
    /// Marked down; `skips` counts candidate sweeps since the mark. Once it
    /// reaches the router's `probe_after` threshold the replica is offered
    /// again as a trailing half-open probe.
    Unhealthy {
        skips: u32,
    },
}

struct RouterState {
    health: Vec<Vec<Health>>,
    /// One rotation turn counter per shard, so the turn a shard takes
    /// does not depend on how its siblings' concurrent sweeps interleave.
    rotation: Vec<u64>,
}

/// The bus address of one replica of one shard.
///
/// Only this crate builds one: a fleet lays its replicas out as
/// `bus://<authority>/shard/<s>/r<r>`, and consumers ask the router
/// ([`ShardRouter::replica_address`]) rather than spelling that path out,
/// which does not compile:
///
/// ```compile_fail
/// let endpoint = dais_federation::ShardAddress::new("fleet", 0, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAddress(String);

impl ShardAddress {
    pub(crate) fn new(authority: &str, shard: usize, replica: usize) -> ShardAddress {
        ShardAddress(format!("bus://{authority}/shard/{shard}/r{replica}"))
    }

    pub(crate) fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<ShardAddress> for String {
    fn from(address: ShardAddress) -> String {
        address.0
    }
}

/// Maps a logical [`ResourceRef`] onto its backing shard/replica grid and
/// tracks per-replica health.
///
/// All locking is internal and every method returns owned data, so callers
/// never hold the router's lock across a bus call.
pub struct ShardRouter {
    resource: ResourceRef,
    scheme: ShardScheme,
    replicas: Vec<Vec<ResourceRef>>,
    probe_after: u32,
    seed: u64,
    state: Mutex<RouterState>,
}

impl ShardRouter {
    /// `replicas[s][r]` addresses replica `r` of shard `s`. Every shard
    /// must have at least one replica.
    pub fn new(
        resource: ResourceRef,
        scheme: ShardScheme,
        replicas: Vec<Vec<ResourceRef>>,
        seed: u64,
        probe_after: u32,
    ) -> ShardRouter {
        assert!(!replicas.is_empty(), "a federation needs at least one shard");
        assert!(
            replicas.iter().all(|set| !set.is_empty()),
            "every shard needs at least one replica"
        );
        let health = replicas.iter().map(|set| vec![Health::Healthy; set.len()]).collect();
        let rotation = vec![0; replicas.len()];
        ShardRouter {
            resource,
            scheme,
            replicas,
            probe_after: probe_after.max(1),
            seed,
            state: Mutex::new(RouterState { health, rotation }),
        }
    }

    /// The logical resource this router federates.
    pub fn resource(&self) -> &ResourceRef {
        &self.resource
    }

    pub fn scheme(&self) -> &ShardScheme {
        &self.scheme
    }

    pub fn shards(&self) -> usize {
        self.replicas.len()
    }

    pub fn replica_count(&self, shard: usize) -> usize {
        self.replicas[shard].len()
    }

    /// The backing resource behind `(shard, replica)`.
    pub fn replica(&self, shard: usize, replica: usize) -> &ResourceRef {
        &self.replicas[shard][replica]
    }

    /// The bus address of `(shard, replica)`, e.g. for a fault policy
    /// aimed at one replica.
    pub fn replica_address(&self, shard: usize, replica: usize) -> ShardAddress {
        ShardAddress(self.replicas[shard][replica].endpoint_address())
    }

    /// Route a key value to its owning shard.
    pub fn route(&self, key: &Value) -> usize {
        self.scheme.shard_of(self.shards(), key)
    }

    /// Replica indices for `shard` in preferred order: any unhealthy
    /// replica whose skip budget has elapsed *leads* as a half-open
    /// probe (it only recovers by taking a request, and a still-bad
    /// probe fails over to the next candidate with no sleep), followed
    /// by the healthy replicas rotated by the shard's seeded turn counter
    /// so load spreads. If every replica is down, all are offered — the
    /// caller's failure is then an honest `ServiceBusy`.
    pub fn candidates(&self, shard: usize) -> Vec<usize> {
        let mut state = self.state.lock();
        let turn = state.rotation[shard];
        state.rotation[shard] = turn.wrapping_add(1);
        let health = &mut state.health[shard];
        let n = health.len();

        let mut healthy: Vec<usize> = Vec::with_capacity(n);
        let mut probes: Vec<usize> = Vec::new();
        for (i, h) in health.iter_mut().enumerate() {
            match h {
                Health::Healthy => healthy.push(i),
                Health::Unhealthy { skips } => {
                    *skips += 1;
                    if *skips >= self.probe_after {
                        *skips = 0;
                        probes.push(i);
                    }
                }
            }
        }
        if healthy.is_empty() && probes.is_empty() {
            return (0..n).collect();
        }
        if !healthy.is_empty() {
            let rot = (mix2(self.seed, turn) % healthy.len() as u64) as usize;
            healthy.rotate_left(rot);
        }
        probes.extend(healthy);
        probes
    }

    /// Record a successful call: the replica re-enters healthy rotation.
    pub fn mark_success(&self, shard: usize, replica: usize) {
        self.state.lock().health[shard][replica] = Health::Healthy;
    }

    /// Record a failed call: the replica leaves rotation until its
    /// half-open probe budget elapses.
    pub fn mark_failure(&self, shard: usize, replica: usize) {
        self.state.lock().health[shard][replica] = Health::Unhealthy { skips: 0 };
    }

    /// Whether `(shard, replica)` is currently in healthy rotation.
    pub fn is_healthy(&self, shard: usize, replica: usize) -> bool {
        self.state.lock().health[shard][replica] == Health::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(shards: usize, replicas: usize) -> Vec<Vec<ResourceRef>> {
        (0..shards)
            .map(|s| {
                (0..replicas)
                    .map(|r| {
                        ResourceRef::parse(&format!(
                            "dais://fleet/shard/{s}/r{r}/urn:dais:shard{s}-r{r}:db:0"
                        ))
                        .unwrap()
                    })
                    .collect()
            })
            .collect()
    }

    fn router(shards: usize, replicas: usize) -> ShardRouter {
        ShardRouter::new(
            ResourceRef::parse("dais://fed/urn:dais:fed:db:0").unwrap(),
            ShardScheme::Hash { column: "id".into() },
            refs(shards, replicas),
            7,
            3,
        )
    }

    #[test]
    fn hash_routing_is_deterministic_and_spreads() {
        let r = router(4, 1);
        let mut seen = [false; 4];
        for i in 0..64 {
            let s = r.route(&Value::Int(i));
            assert_eq!(s, r.route(&Value::Int(i)));
            seen[s] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 keys should reach all 4 shards");
    }

    #[test]
    fn range_routing_respects_bounds() {
        let scheme = ShardScheme::Range { column: "id".into(), bounds: vec![10, 20, 30] };
        assert_eq!(scheme.shard_of(4, &Value::Int(-5)), 0);
        assert_eq!(scheme.shard_of(4, &Value::Int(9)), 0);
        assert_eq!(scheme.shard_of(4, &Value::Int(10)), 1);
        assert_eq!(scheme.shard_of(4, &Value::Int(29)), 2);
        assert_eq!(scheme.shard_of(4, &Value::Int(1_000)), 3);
    }

    #[test]
    fn failed_replica_leaves_rotation_until_probe_budget_elapses() {
        let r = router(1, 2);
        r.mark_failure(0, 1);
        // probe_after = 3: two sweeps without the failed replica …
        assert_eq!(r.candidates(0), vec![0]);
        assert_eq!(r.candidates(0), vec![0]);
        // … then it leads the sweep as a half-open probe.
        let c = r.candidates(0);
        assert_eq!(c.first(), Some(&1));
        assert!(c.contains(&0));
        // Probe succeeded: full rotation again.
        r.mark_success(0, 1);
        assert!(r.is_healthy(0, 1));
        assert_eq!(r.candidates(0).len(), 2);
    }

    #[test]
    fn all_replicas_down_still_offers_every_candidate() {
        let r = router(1, 3);
        for i in 0..3 {
            r.mark_failure(0, i);
        }
        let mut c = r.candidates(0);
        c.sort_unstable();
        assert_eq!(c, vec![0, 1, 2]);
    }

    #[test]
    fn healthy_rotation_varies_with_seed() {
        let r = router(1, 4);
        let firsts: std::collections::BTreeSet<usize> =
            (0..16).map(|_| r.candidates(0)[0]).collect();
        assert!(firsts.len() > 1, "seeded rotation should not pin one replica");
    }
}
