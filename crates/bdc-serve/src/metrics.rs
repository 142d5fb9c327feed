//! Lock-free serving metrics: per-endpoint counters and latency
//! histograms with p50/p95/p99 estimates.
//!
//! Latencies land in log₂-spaced microsecond buckets (`[2^i, 2^{i+1})` µs,
//! 40 buckets ≈ 18 minutes of range), so recording is two atomic adds and
//! a quantile is a cumulative walk at snapshot time. Quantiles report the
//! bucket's upper bound — a ≤ 2× overestimate, which is the right bias for
//! a latency gate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of log₂ latency buckets.
const BUCKETS: usize = 40;

/// How recently a fault/retry event must have occurred for `/healthz` to
/// report `degraded` instead of `ok`.
const HEALTH_WINDOW: Duration = Duration::from_secs(10);

/// Sentinel for "no fault event observed yet".
const NEVER: u64 = u64::MAX;

/// The endpoints the server meters, plus a catch-all. The discriminant
/// indexes the per-endpoint metrics, in [`Endpoint::all`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/healthz`.
    Healthz,
    /// `/v1/metrics`.
    Metrics,
    /// `/v1/library`.
    Library,
    /// `/v1/synth`.
    Synth,
    /// `/v1/depth`.
    Depth,
    /// `/v1/width`.
    Width,
    /// `/v1/ipc`.
    Ipc,
    /// `/v1/experiments` (the registry catalogue).
    Experiments,
    /// `/v1/experiment` (one rendered registry node).
    Experiment,
    /// `/v1/peer/artifact` (intra-fleet cache transfer).
    Peer,
    /// Anything else (404s, parse failures).
    Other,
}

impl Endpoint {
    /// All endpoints in metrics-report order.
    pub fn all() -> [Endpoint; 11] {
        [
            Endpoint::Healthz,
            Endpoint::Metrics,
            Endpoint::Library,
            Endpoint::Synth,
            Endpoint::Depth,
            Endpoint::Width,
            Endpoint::Ipc,
            Endpoint::Experiments,
            Endpoint::Experiment,
            Endpoint::Peer,
            Endpoint::Other,
        ]
    }

    /// Metric label.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Library => "library",
            Endpoint::Synth => "synth",
            Endpoint::Depth => "depth",
            Endpoint::Width => "width",
            Endpoint::Ipc => "ipc",
            Endpoint::Experiments => "experiments",
            Endpoint::Experiment => "experiment",
            Endpoint::Peer => "peer",
            Endpoint::Other => "other",
        }
    }
}

/// A latency histogram with log₂ µs buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / n as f64 / 1000.0
        }
    }

    /// The `q`-quantile (0 < q ≤ 1) in milliseconds: the upper bound of
    /// the bucket holding the q·count-th observation, 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return (1u64 << (i + 1)) as f64 / 1000.0;
            }
        }
        (1u64 << BUCKETS) as f64 / 1000.0
    }
}

/// Counters for one endpoint.
#[derive(Debug, Default)]
pub struct EndpointStats {
    /// Requests routed here.
    pub requests: AtomicU64,
    /// 2xx responses.
    pub ok: AtomicU64,
    /// 4xx responses other than 429.
    pub client_error: AtomicU64,
    /// 429 load-shed responses.
    pub shed: AtomicU64,
    /// 5xx responses.
    pub server_error: AtomicU64,
    /// Latency histogram (request read → response written).
    pub latency: Histogram,
}

impl EndpointStats {
    /// Classifies a finished request.
    pub fn record(&self, status: u16, us: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let class = match status {
            429 => &self.shed,
            200..=299 => &self.ok,
            400..=499 => &self.client_error,
            _ => &self.server_error,
        };
        class.fetch_add(1, Ordering::Relaxed);
        self.latency.record_us(us);
    }
}

/// The server-wide metrics registry.
#[derive(Debug)]
pub struct Registry {
    start: Instant,
    endpoints: [EndpointStats; 11],
    /// Connections accepted since boot.
    pub connections: AtomicU64,
    /// Connections shed at accept time (conn queue full).
    pub connections_shed: AtomicU64,
    /// Requests answered from the response cache.
    pub cache_hits: AtomicU64,
    /// Requests that joined an identical in-flight computation.
    pub coalesced: AtomicU64,
    /// Requests shed by the engine's bounded queue.
    pub queue_shed: AtomicU64,
    /// Batches the engine executed.
    pub batches: AtomicU64,
    /// Jobs across all executed batches.
    pub batched_jobs: AtomicU64,
    /// Engine job retries after a contained panic.
    pub task_retries: AtomicU64,
    /// Submissions whose compute deadline expired (answered 503).
    pub deadline_expired: AtomicU64,
    /// Uptime (µs) of the most recent fault/retry event; [`NEVER`] when
    /// none has occurred. Drives the `degraded` health state.
    last_fault_us: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            // bdc-lint: allow(D002, uptime telemetry for /v1/metrics, not artifact bytes)
            start: Instant::now(),
            endpoints: Default::default(),
            connections: AtomicU64::new(0),
            connections_shed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            queue_shed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_jobs: AtomicU64::new(0),
            task_retries: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            last_fault_us: AtomicU64::new(NEVER),
        }
    }
}

impl Registry {
    /// Stats for one endpoint.
    pub fn endpoint(&self, e: Endpoint) -> &EndpointStats {
        &self.endpoints[e as usize]
    }

    /// Seconds since the registry was created.
    pub fn uptime_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Stamps a fault/retry event (an engine retry, a contained panic, an
    /// expired deadline) so `/healthz` reports `degraded` for the next
    /// [`HEALTH_WINDOW`].
    pub fn note_fault_event(&self) {
        self.last_fault_us
            .store(self.start.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    /// The health state this registry implies: `draining` when the server
    /// is shutting down, `degraded` for [`HEALTH_WINDOW`] after a
    /// fault/retry event, else `ok`.
    pub fn health(&self, draining: bool) -> &'static str {
        if draining {
            return "draining";
        }
        let last = self.last_fault_us.load(Ordering::Relaxed);
        if last != NEVER {
            let now = self.start.elapsed().as_micros() as u64;
            if now.saturating_sub(last) <= HEALTH_WINDOW.as_micros() as u64 {
                return "degraded";
            }
        }
        "ok"
    }

    /// Renders the registry as the `/v1/metrics` JSON document. (This
    /// endpoint reports wall-clock state and is deliberately excluded from
    /// the byte-determinism contract.) `health` is the current
    /// `ok|degraded|draining` state (see [`Registry::health`]).
    pub fn snapshot(
        &self,
        queue_depth: usize,
        queue_cap: usize,
        health: &str,
    ) -> bdc_exec::json::Json {
        use bdc_exec::json::Json;
        let load = |a: &AtomicU64| Json::Int(a.load(Ordering::Relaxed) as i64);
        let endpoints = Endpoint::all()
            .into_iter()
            .map(|e| {
                let s = self.endpoint(e);
                (
                    e.name().to_string(),
                    Json::Obj(vec![
                        ("requests".into(), load(&s.requests)),
                        ("ok".into(), load(&s.ok)),
                        ("client_error".into(), load(&s.client_error)),
                        ("shed".into(), load(&s.shed)),
                        ("server_error".into(), load(&s.server_error)),
                        ("mean_ms".into(), Json::Num(s.latency.mean_ms())),
                        ("p50_ms".into(), Json::Num(s.latency.quantile_ms(0.50))),
                        ("p95_ms".into(), Json::Num(s.latency.quantile_ms(0.95))),
                        ("p99_ms".into(), Json::Num(s.latency.quantile_ms(0.99))),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("uptime_s".into(), Json::Num(self.uptime_s())),
            ("health".into(), Json::str(health)),
            ("endpoints".into(), Json::Obj(endpoints)),
            (
                "engine".into(),
                Json::Obj(vec![
                    ("cache_hits".into(), load(&self.cache_hits)),
                    ("coalesced".into(), load(&self.coalesced)),
                    ("queue_shed".into(), load(&self.queue_shed)),
                    ("batches".into(), load(&self.batches)),
                    ("batched_jobs".into(), load(&self.batched_jobs)),
                    ("queue_depth".into(), Json::Int(queue_depth as i64)),
                    ("queue_cap".into(), Json::Int(queue_cap as i64)),
                    ("task_retries".into(), load(&self.task_retries)),
                    ("deadline_expired".into(), load(&self.deadline_expired)),
                ]),
            ),
            (
                "connections".into(),
                Json::Obj(vec![
                    ("accepted".into(), load(&self.connections)),
                    ("shed".into(), load(&self.connections_shed)),
                ]),
            ),
            // Process-wide survival counters from the execution layer
            // (quarantines, rebuilds, injected faults) — same shape as the
            // run-manifest `faults` object.
            (
                "faults".into(),
                bdc_core::registry::fault_counters_json(&bdc_exec::faults::counters()),
            ),
            // Fine-grained stage-cache telemetry: per-stage hit/miss
            // counters since boot, plus the "what changed" list — every
            // stage that recomputed (recorded a miss) in this process.
            ("stages".into(), {
                let counters = bdc_exec::stage_counters();
                let changed: Vec<Json> = counters
                    .iter()
                    .filter(|(_, (_, misses))| *misses > 0)
                    .map(|(name, _)| Json::str(name.as_str()))
                    .collect();
                Json::Obj(vec![
                    (
                        "counters".into(),
                        Json::Obj(
                            counters
                                .iter()
                                .map(|(name, (hits, misses))| {
                                    (
                                        name.clone(),
                                        Json::Obj(vec![
                                            ("hits".into(), Json::Int(*hits as i64)),
                                            ("misses".into(), Json::Int(*misses as i64)),
                                        ]),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                    ("changed".into(), Json::Arr(changed)),
                ])
            }),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::default();
        for us in [100u64, 200, 400, 800, 100_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_ms(0.5);
        // Third observation (400 µs) lands in [256, 512) µs → upper bound
        // 0.512 ms.
        assert!((p50 - 0.512).abs() < 1e-9, "p50 = {p50}");
        // p99 picks the slowest bucket.
        assert!(h.quantile_ms(0.99) >= 100.0);
        assert!(h.mean_ms() > 0.0);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_ms(0.99), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn record_classifies_statuses() {
        let s = EndpointStats::default();
        s.record(200, 10);
        s.record(400, 10);
        s.record(429, 10);
        s.record(500, 10);
        assert_eq!(s.ok.load(Ordering::Relaxed), 1);
        assert_eq!(s.client_error.load(Ordering::Relaxed), 1);
        assert_eq!(s.shed.load(Ordering::Relaxed), 1);
        assert_eq!(s.server_error.load(Ordering::Relaxed), 1);
        assert_eq!(s.requests.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn snapshot_has_required_fields() {
        let r = Registry::default();
        r.endpoint(Endpoint::Width).record(200, 1500);
        let snap = r.snapshot(3, 64, r.health(false));
        let width = snap.get("endpoints").and_then(|e| e.get("width")).unwrap();
        assert_eq!(width.get("requests").and_then(|v| v.as_u64()), Some(1));
        let engine = snap.get("engine").unwrap();
        assert_eq!(engine.get("queue_cap").and_then(|v| v.as_u64()), Some(64));
        assert_eq!(
            engine.get("deadline_expired").and_then(|v| v.as_u64()),
            Some(0)
        );
        assert!(snap.get("health").is_some());
        let faults = snap.get("faults").unwrap();
        assert!(faults.get("quarantined").is_some());
        assert!(faults.get("retries").is_some());
        let stages = snap.get("stages").unwrap();
        assert!(stages.get("counters").is_some());
        assert!(stages.get("changed").is_some());
    }

    #[test]
    fn health_degrades_on_fault_events_and_drains_on_shutdown() {
        let r = Registry::default();
        assert_eq!(r.health(false), "ok");
        r.note_fault_event();
        assert_eq!(r.health(false), "degraded");
        // Draining wins over everything.
        assert_eq!(r.health(true), "draining");
    }
}
