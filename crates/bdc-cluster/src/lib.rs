//! Sharded multi-process serving for the biodegradable-computing stack.
//!
//! A `bdc-cluster` fleet is N independent `bdc_serve` worker processes —
//! each with its own engine, response cache, and artifact cache — behind
//! one shard router. Three mechanisms hold it together:
//!
//! * **The ring** ([`bdc_exec::cluster`], re-exported here as
//!   [`cluster`]): a seeded consistent-hash ring with virtual nodes maps
//!   every experiment cache key and artifact address to an owning shard.
//!   Router and workers build the identical ring from
//!   (`shards`, `ring_seed`, `DEFAULT_VNODES`), so "who owns what" is a pure
//!   function the whole fleet agrees on with zero coordination traffic.
//! * **The router** ([`router`]): proxies each request to the slot owner,
//!   fails over along the ring on transport errors and retryable statuses
//!   with seeded backoff, answers deterministic-body routes locally, and
//!   aggregates fleet-wide `/healthz` and `/v1/metrics`.
//! * **The supervisor** ([`supervisor`]): spawns workers with their
//!   cluster identity in the environment, restarts crashes with seeded
//!   backoff, and drains the fleet on shutdown.
//!
//! Workers cross-fill artifact caches over the peer protocol
//! (`/v1/peer/artifact`, `bdc-artifact-v1` framing with checksum verify
//! and quarantine-on-corruption) — a shard that misses locally asks the
//! ring owner before recomputing.
//!
//! The invariant that makes all of this safe: every response body is
//! byte-deterministic, so any shard — or the router itself — renders the
//! same bytes for the same request. Failover and resharding change
//! latency, never content.

pub mod breaker;
pub mod cli;
pub mod router;
pub mod supervisor;

/// The shared ring/topology types (re-export of [`bdc_exec::cluster`]).
pub use bdc_exec::cluster;

pub use breaker::{Breaker, BreakerDecision, BreakerSnapshot};
pub use cli::{parse_cluster_args, run_cluster, ClusterArgs};
pub use router::{start_router, RouterConfig, RouterHandle, RouterMetrics};
pub use supervisor::{start_supervisor, Supervisor, SupervisorConfig};
