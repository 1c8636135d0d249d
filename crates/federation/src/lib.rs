//! # dais-federation
//!
//! Federated scatter-gather over WS-DAI services: one *logical* data
//! resource backed by N shards × M replicas, each shard an ordinary
//! WS-DAIR/WS-DAIX service. The federation endpoint is itself a WS-DAI
//! service — it advertises the logical resource's property document and
//! dispatches the standard action URIs — so a consumer cannot tell a
//! federated resource from a plain one.
//!
//! The moving parts:
//!
//! * [`router`] — deterministic shard assignment (hash/range on a key
//!   column, or collection name) plus per-replica health with seeded
//!   rotation and half-open probing.
//! * [`scatter`] — [`scatter::call_shard`], the replica-aware call loop:
//!   immediate failover to a sibling when a replica reports hot,
//!   back-off (honouring `retry_after`) only when a whole shard is; and
//!   the long-lived helper threads a scatter's legs run on beside the
//!   caller.
//! * [`statement`] — scatter admission: a statement is proven
//!   distributable (or refused, or its `LIMIT`/`OFFSET` rewritten to a
//!   global merge window) before anything reaches a shard, and its
//!   shard-key conjuncts name the only shards that can hold its rows.
//! * [`merge`] — streaming k-way merge of WebRowSet pages off
//!   [`RowsetCursor`](dais_sql::RowsetCursor)s: no shard page and no
//!   merged result is ever materialised.
//! * [`service`] — the federation WS-DAI endpoint itself.
//! * [`fleet`] — test/bench topology builders: launch a shard × replica
//!   grid in one call and ingest rows/documents through the router.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod fleet;
pub mod merge;
pub mod router;
pub mod scatter;
pub mod service;
pub mod statement;

pub use fleet::{FleetOptions, RelationalFleet, XmlFleet};
pub use merge::{merge_cursors, MergeKey, SortKey};
pub use router::{ShardAddress, ShardRouter, ShardScheme};
pub use scatter::{call_replica, call_shard};
pub use service::{FederationOptions, FederationService};
pub use statement::{analyze, AdmissionError, DistributedStatement};
