#![warn(missing_docs)]

//! Deterministic parallel execution and artifact caching for the flow.
//!
//! The paper's Figure-10 flow is a DAG of expensive, pure computations:
//! transient simulations (characterization grids), synthesis/STA runs, and
//! cycle-accurate core simulations. This crate supplies the two primitives
//! every hot path shares:
//!
//! * [`par_map`] / [`par_mapi`] — a scoped thread pool whose output is
//!   **bit-identical to serial execution**: results are collected in index
//!   order, every task is a pure function of its index and input, and
//!   randomized tasks derive their seed from [`task_seed`] rather than
//!   from a shared sequential stream. At most [`workers`] threads run tasks
//!   at once, process-wide, and a fan-out nested inside a task draws on
//!   that same budget, so a slot left idle by one fan-out goes to another
//!   that still has work. Worker count comes from [`set_workers`], the
//!   `BDC_WORKERS` environment variable, or the machine; `workers() == 1`
//!   runs inline on the calling thread — the serial path *is* the
//!   parallel path with one worker.
//! * [`ArtifactCache`] — a content-addressed on-disk memo for flow
//!   artifacts (characterized libraries, synthesized-core results). Keys
//!   are FNV-1a hashes over every input that affects the artifact plus a
//!   schema-version salt; invalidation is key change, so stale entries are
//!   simply never addressed again. Flow stages reach it through one entry
//!   point, [`cached`], and keep in-process memos in a [`MemoTable`] — the
//!   per-key single-flight table [`cached`] is built on. Stages whose
//!   artifacts must reload bit-exactly encode them with [`RecordWriter`]
//!   and decode them with [`RecordReader`], the one store record codec.
//!
//! Four supporting pieces ride along: [`env_config`] validates the shared
//! `BDC_WORKERS` / `BDC_CACHE_DIR` / `BDC_NO_CACHE` / `BDC_FAULTS` /
//! `BDC_BATCH_LANES` environment knobs plus the cluster
//! topology knobs (`BDC_SHARDS` / `BDC_RING_SEED` / `BDC_SHARD_ID` /
//! `BDC_PEER_PORTS`) once at process start (every binary front door calls
//! it instead of re-reading the variables ad hoc), [`json`] holds the
//! deterministic JSON codec used by registry renders, run manifests, and
//! the serving layer alike, [`faults`] is the seeded fault-injection
//! framework the chaos tests and CI drive through `BDC_FAULTS` — inert
//! (zero branches taken, zero bytes changed) unless explicitly enabled —
//! and [`cluster`] hosts the seeded consistent-hash ring that maps cache
//! keys to owning shards for `bdc-cluster`'s router and the cache's
//! peer-fill hooks ([`install_peer_hooks`]).
//!
//! The crate is std-only by design: it sits below every other crate in the
//! workspace and the environment has no registry access (see
//! `crates/compat/README.md`).

mod batch;
mod cache;
pub mod cluster;
mod env;
pub mod faults;
pub mod json;
mod memo;
mod pool;
mod record;
mod seed;
mod stages;

pub use batch::{
    batch_lanes, parse_batch_lanes, set_batch_lanes, DEFAULT_BATCH_LANES, MAX_BATCH_LANES,
};
pub use cache::{
    fnv1a, frame_artifact, install_peer_hooks, parse_cache_budget_mb, unframe_artifact,
    validate_cache_dir, ArtifactCache, PeerFetch, PeerHooks, QUARANTINE_REAP_GENERATIONS,
};
pub use env::{env_config, EnvConfig};
pub use memo::{cached, MemoTable};
pub use pool::{par_map, par_mapi, parse_workers, set_workers, workers};
pub use record::{RecordReader, RecordWriter};
pub use seed::{task_seed, SplitMix64};
pub use stages::{
    enter_scope, new_scope, note_stage, scope_counters, stage_counters, stage_delta, StageCount,
};
