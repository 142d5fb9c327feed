#![warn(missing_docs)]

//! `bdc-serve` — a batching, cache-backed experiment-serving daemon.
//!
//! The Figure-10 flow answers questions — *what does the organic library
//! look like? what clock does a 12-stage, 2-wide core reach? what IPC does
//! mcf see on it?* — but until this crate the only way to ask was to run a
//! one-shot experiment binary. `bdc-serve` turns the flow into a service:
//! a std-only HTTP/1.1-over-TCP daemon whose JSON endpoints cover library
//! characterization (`/v1/library`), core synthesis (`/v1/synth`),
//! depth/width sweep points (`/v1/depth`, `/v1/width`), and per-workload
//! IPC simulation (`/v1/ipc`), plus `/v1/metrics` and `/healthz`.
//!
//! The serving pipeline (DESIGN.md §5f):
//!
//! ```text
//! accept ─ bounded hand-off ─ HTTP parse ─ route/validate
//!                                   │
//!                     response cache (bounded, FIFO)
//!                                   │ miss
//!                     coalesce onto in-flight flight
//!                                   │ new
//!                     bounded queue ── full → 429 + Retry-After
//!                                   │
//!                     batch → bdc_exec::par_map → flow
//!                          (TechKit::load_or_build, synthesize_core_cached,
//!                           measure_ipc_cached — all artifact-cached)
//! ```
//!
//! Two properties are load-bearing and pinned by tests:
//!
//! * **Byte determinism** — a given query's response body is byte-identical
//!   whether computed serially, under 8 workers, from the artifact cache,
//!   or from the response cache (`tests/determinism.rs`).
//! * **Bounded overload** — every queue is bounded; saturation produces
//!   `429 Too Many Requests` with `Retry-After`, never a panic or
//!   unbounded growth (`tests/e2e.rs`, the engine unit tests).

pub mod api;
pub mod client;
pub mod engine;
pub mod http;
pub mod metrics;
pub mod peer;
pub mod server;

pub use engine::{Engine, EngineConfig, Submission};
pub use http::{Request, Response};
pub use metrics::{Endpoint, Registry};
pub use server::{install_signal_handlers, start, ServeConfig, ServerHandle};
