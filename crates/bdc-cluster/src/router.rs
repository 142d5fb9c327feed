//! The shard router: one front door for an N-shard `bdc_serve` fleet.
//!
//! Every request is routed by the same seeded consistent-hash ring the
//! shards build their peer-fetch topology from ([`bdc_exec::cluster`]):
//! a computational call's slot is derived from its canonical cache key, so
//! the same query always lands on the same shard (maximizing that shard's
//! response-cache and coalescing hit rates), and a peer artifact transfer
//! lands on the artifact's ring owner. Static and invalid requests are
//! answered locally — the bodies are deterministic, so a router-rendered
//! 404 is byte-identical to a shard-rendered one.
//!
//! **Failover:** a proxied request that dies in transport or comes back
//! retryable (429/500/503/504) is re-sent to the next distinct shard in
//! ring order ([`Ring::replicas`]) after a seeded backoff, up to
//! `PROXY_RETRIES` extra attempts; only when every attempt is spent
//! does the client see a `502`. Because any shard serves byte-identical
//! bodies, failover is invisible except for the `x-bdc-shard` header.
//!
//! **Circuit breakers:** each shard carries a [`Breaker`] over a rolling
//! window of attempt outcomes and latencies. An open breaker takes its
//! shard out of the replica walk entirely (no connect timeout paid), then
//! half-opens after a bounded number of bypasses to admit a live probe
//! request; the probe's outcome closes or reopens it. Closed breakers are
//! byte-inert — the zero-fault determinism gate routes exactly as before.
//!
//! **Fleet observability:** the router answers `/healthz` with per-shard
//! `ok|degraded|draining|down` states, `/v1/metrics` with its own proxy
//! counters plus every shard's snapshot and a fleet-wide sum, and
//! `/v1/cluster` with the ring topology.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bdc_exec::cluster::{artifact_slot, key_slot, Ring, DEFAULT_VNODES};
use bdc_exec::faults;
use bdc_exec::json::{self, Json};
use bdc_serve::api::{self, Route};
use bdc_serve::client::{self, Connection};
use bdc_serve::server::{AcceptLoop, Service};
use bdc_serve::{http, Response};

use crate::breaker::{Breaker, BreakerDecision};

/// Per-attempt connect/read deadline for proxied requests. Generous
/// enough for a cold characterization on the shard (seconds), small
/// enough that a dead shard fails over quickly on connect.
const PROXY_TIMEOUT: Duration = Duration::from_secs(60);

/// Short deadline for the fan-out aggregation calls (`/healthz`,
/// `/v1/metrics`): a down shard must not stall the fleet view.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Extra proxy attempts after the first (the failover budget).
const PROXY_RETRIES: usize = 3;

/// Router settings.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (port 0 picks an ephemeral port).
    pub addr: String,
    /// One backend address per shard, in shard-id order.
    pub shard_addrs: Vec<String>,
    /// Ring seed — must match the fleet's `BDC_RING_SEED`.
    pub ring_seed: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            shard_addrs: Vec::new(),
            ring_seed: 0,
        }
    }
}

/// The router's own counters (shard counters live on the shards).
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Requests proxied to a shard (excludes locally answered ones).
    pub proxied: AtomicU64,
    /// Attempts that failed over to another replica.
    pub failovers: AtomicU64,
    /// Requests whose whole failover budget was spent (answered 502).
    pub exhausted: AtomicU64,
    /// Requests answered by the router itself (health, metrics,
    /// topology, validation errors).
    pub local: AtomicU64,
    /// Connections shed at accept time.
    pub shed: AtomicU64,
    /// Attempts skipped because the candidate shard's breaker was open.
    pub breaker_skips: AtomicU64,
    /// Probe requests admitted by a half-open breaker.
    pub breaker_probes: AtomicU64,
    /// Times any shard's breaker opened (including reopens).
    pub breaker_opened: AtomicU64,
}

struct Shared {
    cfg: RouterConfig,
    ring: Ring,
    metrics: RouterMetrics,
    /// One breaker per shard, indexed like `cfg.shard_addrs`.
    breakers: Vec<Breaker>,
}

/// A running router.
pub struct RouterHandle {
    shared: Arc<Shared>,
    accept: AcceptLoop,
}

impl RouterHandle {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.accept.port()
    }

    /// The router's proxy counters.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.shared.metrics
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests, join
    /// every thread.
    pub fn shutdown(self) {
        self.accept.stop();
        self.accept.join();
    }
}

/// Binds the router and spawns its acceptor + connection workers (the
/// shard server's [`AcceptLoop`]).
///
/// # Errors
/// Propagates bind failures; rejects an empty shard list.
pub fn start_router(cfg: RouterConfig) -> std::io::Result<RouterHandle> {
    if cfg.shard_addrs.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "router needs at least one shard address",
        ));
    }
    let listener = TcpListener::bind(&cfg.addr)?;

    let ring = Ring::new(cfg.shard_addrs.len(), DEFAULT_VNODES, cfg.ring_seed);
    let breakers = (0..cfg.shard_addrs.len())
        .map(|_| Breaker::default())
        .collect();
    let shared = Arc::new(Shared {
        cfg,
        ring,
        metrics: RouterMetrics::default(),
        breakers,
    });
    let accept = AcceptLoop::spawn(
        listener,
        "bdc-router",
        "router saturated; retry",
        Arc::clone(&shared),
    )?;
    Ok(RouterHandle { shared, accept })
}

impl Service for Shared {
    fn answer(&self, request: &http::Request, _t0: Instant) -> Response {
        handle(request, self)
    }

    fn shed(&self) {
        self.metrics.shed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Routes one request: answered locally (health, metrics, topology,
/// validation errors) or proxied to a shard chosen by the ring with
/// bounded failover.
fn handle(request: &http::Request, shared: &Shared) -> Response {
    // `/v1/cluster` exists only on the router (shards know their own id,
    // not the fleet), so it is matched before the shared route table.
    if request.path == "/v1/cluster" {
        shared.metrics.local.fetch_add(1, Ordering::Relaxed);
        return topology(shared);
    }
    match api::route(request).1 {
        Route::Healthz => {
            shared.metrics.local.fetch_add(1, Ordering::Relaxed);
            healthz(shared)
        }
        Route::Metrics => {
            shared.metrics.local.fetch_add(1, Ordering::Relaxed);
            metrics(shared)
        }
        // The catalogue is static and identical on every shard; answering
        // locally keeps it off the proxy path entirely.
        Route::Experiments => {
            shared.metrics.local.fetch_add(1, Ordering::Relaxed);
            api::experiments_response()
        }
        // Validation failures render deterministically — a router-rendered
        // 400/404 is byte-identical to a shard-rendered one.
        Route::Error(response) => {
            shared.metrics.local.fetch_add(1, Ordering::Relaxed);
            response
        }
        Route::Call(query) => proxy(request, shared, key_slot(api::cache_key(&query))),
        Route::PeerFetch { name, key } | Route::PeerStore { name, key } => {
            proxy(request, shared, artifact_slot(&name, key))
        }
    }
}

/// Proxies a request to the slot's owner, failing over along the replica
/// order with seeded backoff until the per-request attempt budget is
/// spent. Candidate shards whose circuit breaker is open are skipped (the
/// breaker's half-open probe admits one live request through); when every
/// candidate's breaker is open the nominal owner is tried anyway —
/// fail-static beats failing closed on a fully-tripped fleet.
fn proxy(request: &http::Request, shared: &Shared, slot: u64) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(b) => b,
        Err(_) => return Response::error(400, "body is not utf-8"),
    };
    let path_query = if request.query.is_empty() {
        request.path.clone()
    } else {
        format!("{}?{}", request.path, request.query)
    };
    shared.metrics.proxied.fetch_add(1, Ordering::Relaxed);
    let replicas = shared.ring.replicas(slot);
    let mut last_status = None;
    for attempt in 0..=PROXY_RETRIES {
        if attempt > 0 {
            shared.metrics.failovers.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(faults::backoff_delay(&path_query, attempt as u64));
        }
        // Breaker walk: the first candidate (in ring order from this
        // attempt) whose breaker admits the request.
        let mut shard = replicas[attempt % replicas.len()];
        let mut decision = shared.breakers[shard].decide();
        if decision == BreakerDecision::Skip {
            shared.metrics.breaker_skips.fetch_add(1, Ordering::Relaxed);
            for step in 1..replicas.len() {
                let candidate = replicas[(attempt + step) % replicas.len()];
                match shared.breakers[candidate].decide() {
                    BreakerDecision::Skip => {
                        shared.metrics.breaker_skips.fetch_add(1, Ordering::Relaxed);
                    }
                    admitted => {
                        shard = candidate;
                        decision = admitted;
                        break;
                    }
                }
            }
            // Every breaker open: fall through with the nominal candidate.
        }
        if decision == BreakerDecision::Probe {
            shared
                .metrics
                .breaker_probes
                .fetch_add(1, Ordering::Relaxed);
        }
        let addr = &shared.cfg.shard_addrs[shard];
        // An injected partition severs this attempt before any bytes move
        // — the seeded roll heals across attempts, so failover recovers.
        let partitioned = faults::inject_partition(&path_query, attempt as u64);
        // bdc-lint: allow(D002, breaker latency telemetry, not artifact bytes)
        let attempt_start = Instant::now();
        let result = if partitioned {
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected partition",
            ))
        } else {
            Connection::open_with_timeout(addr, PROXY_TIMEOUT).and_then(|mut c| {
                match request.method {
                    http::Method::Get => c.get(&path_query),
                    http::Method::Post => c.post(&path_query, body),
                }
            })
        };
        let failed = match &result {
            Ok(r) => client::is_retryable(r.status),
            Err(_) => true,
        };
        let elapsed_ms = attempt_start.elapsed().as_millis() as u64;
        let transitioned =
            shared.breakers[shard].record(decision == BreakerDecision::Probe, failed, elapsed_ms);
        if transitioned && shared.breakers[shard].is_open() {
            shared
                .metrics
                .breaker_opened
                .fetch_add(1, Ordering::Relaxed);
        }
        match result {
            Ok(r) if !failed => {
                let mut resp = Response::json(r.status, r.body);
                resp.extra_headers
                    .push(("x-bdc-shard".into(), shard.to_string()));
                return resp;
            }
            Ok(r) => last_status = Some(r.status),
            Err(_) => {}
        }
    }
    shared.metrics.exhausted.fetch_add(1, Ordering::Relaxed);
    let detail = match last_status {
        Some(s) => format!("all replicas failed (last status {s})"),
        None => "all replicas unreachable".to_string(),
    };
    Response::error(502, &detail)
}

/// One aggregation probe: `GET path` on a shard with a short deadline.
fn probe(addr: &str, path: &str) -> Option<client::ClientResponse> {
    Connection::open_with_timeout(addr, PROBE_TIMEOUT)
        .and_then(|mut c| c.get(path))
        .ok()
}

/// The fleet `/healthz`: per-shard `ok|degraded|draining|down` plus an
/// overall state — `ok` when every shard is ok, `down` (503) when no
/// shard answers, `degraded` otherwise.
fn healthz(shared: &Shared) -> Response {
    let mut states = Vec::with_capacity(shared.cfg.shard_addrs.len());
    for addr in &shared.cfg.shard_addrs {
        let state = match probe(addr, "/healthz") {
            Some(r) => json::parse(&String::from_utf8_lossy(&r.body))
                .ok()
                .and_then(|j| j.get("status").and_then(|s| s.as_str().map(String::from)))
                .unwrap_or_else(|| "down".to_string()),
            None => "down".to_string(),
        };
        states.push(state);
    }
    let up = states.iter().filter(|s| s.as_str() != "down").count();
    let overall = if up == 0 {
        "down"
    } else if states.iter().all(|s| s == "ok") {
        "ok"
    } else {
        "degraded"
    };
    let body = Json::Obj(vec![
        ("status".into(), Json::str(overall)),
        (
            "shards".into(),
            Json::Arr(
                states
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        Json::Obj(vec![
                            ("shard".into(), Json::Int(i as i64)),
                            ("status".into(), Json::str(s.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let code = if up == 0 { 503 } else { 200 };
    Response::json(code, body.encode().into_bytes())
}

/// Fields summed across shards into the fleet view: per-endpoint request
/// outcomes from `endpoints.*`, cache effectiveness from `engine.*`, and
/// the survival counters from `faults.*`.
const FLEET_ENGINE_FIELDS: [&str; 3] = ["cache_hits", "coalesced", "queue_shed"];
const FLEET_FAULT_FIELDS: [&str; 5] = [
    "quarantined",
    "rebuilt",
    "peer_hits",
    "peer_misses",
    "peer_pushes",
];
const FLEET_ENDPOINT_FIELDS: [&str; 4] = ["requests", "ok", "shed", "server_error"];

/// The fleet `/v1/metrics`: the router's own proxy counters, every
/// shard's full snapshot (or `null` for a down shard), and a fleet-wide
/// sum of the cross-shard counters.
fn metrics(shared: &Shared) -> Response {
    let m = &shared.metrics;
    let load = |a: &AtomicU64| Json::Int(a.load(Ordering::Relaxed) as i64);
    let mut shard_snaps = Vec::with_capacity(shared.cfg.shard_addrs.len());
    for addr in &shared.cfg.shard_addrs {
        let snap = probe(addr, "/v1/metrics")
            .and_then(|r| json::parse(&String::from_utf8_lossy(&r.body)).ok());
        shard_snaps.push(snap);
    }

    let mut fleet: Vec<(String, i64)> = Vec::new();
    let mut add = |key: &str, v: u64| match fleet.iter_mut().find(|(k, _)| k == key) {
        Some((_, total)) => *total += v as i64,
        None => fleet.push((key.to_string(), v as i64)),
    };
    for snap in shard_snaps.iter().flatten() {
        for field in FLEET_ENDPOINT_FIELDS {
            let mut total = 0;
            if let Some(Json::Obj(endpoints)) = snap.get("endpoints") {
                for (_, stats) in endpoints {
                    total += stats.get(field).and_then(Json::as_u64).unwrap_or(0);
                }
            }
            add(field, total);
        }
        for field in FLEET_ENGINE_FIELDS {
            let v = snap
                .get("engine")
                .and_then(|e| e.get(field))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            add(field, v);
        }
        for field in FLEET_FAULT_FIELDS {
            let v = snap
                .get("faults")
                .and_then(|f| f.get(field))
                .and_then(Json::as_u64)
                .unwrap_or(0);
            add(field, v);
        }
    }

    let body = Json::Obj(vec![
        (
            "router".into(),
            Json::Obj(vec![
                ("proxied".into(), load(&m.proxied)),
                ("failovers".into(), load(&m.failovers)),
                ("exhausted".into(), load(&m.exhausted)),
                ("local".into(), load(&m.local)),
                ("shed".into(), load(&m.shed)),
                ("breaker_skips".into(), load(&m.breaker_skips)),
                ("breaker_probes".into(), load(&m.breaker_probes)),
                ("breaker_opened".into(), load(&m.breaker_opened)),
                (
                    "shards".into(),
                    Json::Int(shared.cfg.shard_addrs.len() as i64),
                ),
                (
                    "breakers".into(),
                    Json::Arr(
                        shared
                            .breakers
                            .iter()
                            .enumerate()
                            .map(|(i, b)| {
                                let snap = b.snapshot();
                                Json::Obj(vec![
                                    ("shard".into(), Json::Int(i as i64)),
                                    ("state".into(), Json::str(snap.state)),
                                    ("failure_rate".into(), Json::Num(snap.failure_rate)),
                                    ("mean_ms".into(), Json::Num(snap.mean_ms)),
                                    ("opened_total".into(), Json::Int(snap.opened_total as i64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ),
        (
            "shards".into(),
            Json::Arr(
                shard_snaps
                    .into_iter()
                    .enumerate()
                    .map(|(i, snap)| {
                        Json::Obj(vec![
                            ("shard".into(), Json::Int(i as i64)),
                            ("up".into(), Json::Bool(snap.is_some())),
                            ("metrics".into(), snap.unwrap_or(Json::Null)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "fleet".into(),
            Json::Obj(fleet.into_iter().map(|(k, v)| (k, Json::Int(v))).collect()),
        ),
    ]);
    Response::json(200, body.encode().into_bytes())
}

/// The `/v1/cluster` topology body: fleet shape plus each member's
/// address, so tools can discover shards through the router.
fn topology(shared: &Shared) -> Response {
    let body = Json::Obj(vec![
        (
            "shards".into(),
            Json::Int(shared.cfg.shard_addrs.len() as i64),
        ),
        ("ring_seed".into(), Json::Int(shared.cfg.ring_seed as i64)),
        ("vnodes".into(), Json::Int(DEFAULT_VNODES as i64)),
        (
            "members".into(),
            Json::Arr(
                shared
                    .cfg
                    .shard_addrs
                    .iter()
                    .enumerate()
                    .map(|(i, addr)| {
                        Json::Obj(vec![
                            ("shard".into(), Json::Int(i as i64)),
                            ("addr".into(), Json::str(addr.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, body.encode().into_bytes())
}
