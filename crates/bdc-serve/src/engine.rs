//! The serving engine: request coalescing, batching, admission control,
//! and a bounded response cache.
//!
//! Three mechanisms keep the daemon stable and fast under load:
//!
//! * **Coalescing** — requests are keyed by their canonical content hash;
//!   a request whose key matches an in-flight computation joins that
//!   flight instead of queueing a duplicate. N identical concurrent
//!   queries cost one computation.
//! * **Batching** — distinct queued requests are drained in batches and
//!   executed together with [`bdc_exec::par_map`], so a burst of cold
//!   queries fans out across the deterministic worker pool instead of
//!   running head-of-line serially.
//! * **Admission control** — the work queue is bounded. When it is full,
//!   [`Engine::submit`] returns [`Submission::Shed`] immediately and the
//!   HTTP layer answers `429 Too Many Requests` with `Retry-After`. The
//!   queue can never grow without bound, and overload never panics. A
//!   submitter waits for its flight at most the compute deadline
//!   ([`EngineConfig::wait_timeout`]), then gets [`Submission::TimedOut`]
//!   (503 + `Retry-After`).
//!
//! Completed responses enter a FIFO-bounded response cache keyed by the
//! same hash, so warm repeats are answered with a map lookup — no queue,
//! no pool, microseconds. Responses are `Arc`ed; a cache hit is a clone of
//! a pointer.
//!
//! The engine is generic over the job type and executor so tests can
//! drive it with synthetic workloads (e.g. a barrier-gated executor that
//! deterministically holds the queue full to exercise shedding).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::http::Response;
use crate::metrics::Registry;

/// Most jobs drained into one `par_map` batch.
const MAX_BATCH: usize = 16;

/// Most entries the response cache holds (FIFO eviction).
const CACHE_CAP: usize = 4096;

/// Engine settings.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Most jobs admitted to the queue at once; beyond this, submissions
    /// are shed with 429.
    pub queue_cap: usize,
    /// Per-request compute deadline: how long a submitter waits for its
    /// flight before giving up (503 + `Retry-After`).
    pub wait_timeout: Duration,
    /// How many times a panicking executor job is retried (with seeded
    /// backoff) before it becomes a 500.
    pub max_retries: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_cap: 64,
            wait_timeout: Duration::from_secs(300),
            max_retries: 2,
        }
    }
}

/// An in-flight computation that identical requests wait on.
#[derive(Debug, Default)]
struct Flight {
    slot: Mutex<Option<Arc<Response>>>,
    done: Condvar,
}

impl Flight {
    fn complete(&self, response: Arc<Response>) {
        *self.slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(response);
        self.done.notify_all();
    }

    fn wait(&self, timeout: Duration) -> Option<Arc<Response>> {
        let guard = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        let (guard, result) = self
            .done
            .wait_timeout_while(guard, timeout, |slot| slot.is_none())
            .unwrap_or_else(|p| p.into_inner());
        if result.timed_out() && guard.is_none() {
            None
        } else {
            guard.clone()
        }
    }
}

/// What happened to a submitted request.
pub enum Submission {
    /// Answered from the response cache.
    CacheHit(Arc<Response>),
    /// Computed (either this submission queued it, or it coalesced onto an
    /// identical in-flight request).
    Done(Arc<Response>),
    /// The bounded queue was full; answer 429.
    Shed,
    /// The flight missed the per-request compute deadline; answer 503
    /// with `Retry-After`.
    TimedOut,
    /// The engine is shutting down; answer 503.
    ShuttingDown,
}

struct EngineState<J> {
    queue: VecDeque<(u64, J)>,
    // Both maps are only ever indexed by key — iteration order never
    // reaches a response byte (eviction walks `cache_order`, FIFO).
    // bdc-lint: allow(D001, flights is keyed lookup only, never iterated)
    flights: HashMap<u64, Arc<Flight>>,
    // bdc-lint: allow(D001, cache is keyed lookup only, eviction uses cache_order)
    cache: HashMap<u64, Arc<Response>>,
    cache_order: VecDeque<u64>,
    shutdown: bool,
}

/// The coalescing, batching request engine. `J` is the job payload handed
/// to the executor; the executor must be a pure function of the job so
/// that coalescing and caching are semantically invisible.
pub struct Engine<J> {
    state: Mutex<EngineState<J>>,
    work: Condvar,
    cfg: EngineConfig,
    metrics: Arc<Registry>,
}

impl<J: Send + Sync + 'static> Engine<J> {
    /// Creates an engine (no worker thread yet; see [`Engine::run`]).
    pub fn new(cfg: EngineConfig, metrics: Arc<Registry>) -> Arc<Engine<J>> {
        Arc::new(Engine {
            state: Mutex::new(EngineState {
                queue: VecDeque::new(),
                // bdc-lint: allow(D001, constructing the keyed-lookup maps declared above)
                flights: HashMap::new(),
                // bdc-lint: allow(D001, constructing the keyed-lookup maps declared above)
                cache: HashMap::new(),
                cache_order: VecDeque::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            cfg,
            metrics,
        })
    }

    /// The engine's metrics registry.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Current queue depth (for the metrics snapshot).
    pub fn queue_depth(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .queue
            .len()
    }

    /// The configured queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.cfg.queue_cap
    }

    /// Submits a job keyed by its canonical content hash and blocks until
    /// it resolves (cache hit, computed, shed, or timed out). The flight
    /// wait is bounded by the compute deadline
    /// ([`EngineConfig::wait_timeout`]); a submitter that gives up leaves
    /// the flight computing, so its result still lands in the response
    /// cache for the retry.
    pub fn submit(&self, key: u64, job: J) -> Submission {
        let flight = {
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            if st.shutdown {
                return Submission::ShuttingDown;
            }
            if let Some(hit) = st.cache.get(&key) {
                self.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Submission::CacheHit(Arc::clone(hit));
            }
            if let Some(flight) = st.flights.get(&key) {
                self.metrics.coalesced.fetch_add(1, Ordering::Relaxed);
                Arc::clone(flight)
            } else {
                if st.queue.len() >= self.cfg.queue_cap {
                    self.metrics.queue_shed.fetch_add(1, Ordering::Relaxed);
                    return Submission::Shed;
                }
                let flight = Arc::new(Flight::default());
                st.flights.insert(key, Arc::clone(&flight));
                st.queue.push_back((key, job));
                self.work.notify_one();
                flight
            }
        };
        match flight.wait(self.cfg.wait_timeout) {
            Some(response) => Submission::Done(response),
            None => {
                self.metrics
                    .deadline_expired
                    .fetch_add(1, Ordering::Relaxed);
                self.metrics.note_fault_event();
                Submission::TimedOut
            }
        }
    }

    /// Whether [`Engine::shutdown`] has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .shutdown
    }

    /// The `ok|degraded|draining` health state `/healthz` reports.
    pub fn health(&self) -> &'static str {
        self.metrics.health(self.is_shutting_down())
    }

    /// Runs the batching loop until [`Engine::shutdown`]: drain up to
    /// `MAX_BATCH` queued jobs, execute them as one index-ordered
    /// [`bdc_exec::par_map`] fan-out, publish each result to its flight
    /// and the response cache. Call from a dedicated thread.
    pub fn run(&self, execute: impl Fn(&J) -> Response + Sync) {
        loop {
            let batch: Vec<(u64, J)> = {
                let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
                while st.queue.is_empty() && !st.shutdown {
                    st = self.work.wait(st).unwrap_or_else(|p| p.into_inner());
                }
                if st.queue.is_empty() && st.shutdown {
                    return;
                }
                let n = st.queue.len().min(MAX_BATCH);
                st.queue.drain(..n).collect()
            };
            self.metrics.batches.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .batched_jobs
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            // Each job is guarded individually: a panicking executor
            // (whether a genuine bug or an injected `task_panic` fault) is
            // retried with seeded backoff, then answered 500 — one bad job
            // never takes its batchmates (or the daemon) down.
            let max_retries = self.cfg.max_retries;
            let results = bdc_exec::par_map(&batch, |(key, job)| {
                let site = format!("serve-job-{key:016x}");
                let mut attempt: u64 = 0;
                loop {
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        bdc_exec::faults::maybe_panic(&site, attempt);
                        execute(job)
                    }));
                    match caught {
                        Ok(response) => break Arc::new(response),
                        Err(_) => {
                            bdc_exec::faults::note_panic_contained();
                            self.metrics.note_fault_event();
                            if attempt >= u64::from(max_retries) {
                                break Arc::new(Response::error(500, "internal error"));
                            }
                            bdc_exec::faults::note_retry();
                            self.metrics.task_retries.fetch_add(1, Ordering::Relaxed);
                            attempt += 1;
                            std::thread::sleep(bdc_exec::faults::backoff_delay(&site, attempt));
                        }
                    }
                }
            });
            let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
            for ((key, _), response) in batch.iter().zip(results) {
                // 5xx responses are transient (a contained panic that
                // exhausted its retries) — caching one would hand every
                // future retry the same stale failure. 2xx/4xx are pure
                // functions of the job and cache safely.
                if response.status < 500 {
                    if st.cache.len() >= CACHE_CAP {
                        if let Some(old) = st.cache_order.pop_front() {
                            st.cache.remove(&old);
                        }
                    }
                    if st.cache.insert(*key, Arc::clone(&response)).is_none() {
                        st.cache_order.push_back(*key);
                    }
                }
                if let Some(flight) = st.flights.remove(key) {
                    flight.complete(response);
                }
            }
        }
    }

    /// Initiates shutdown: pending queued jobs still execute, new
    /// submissions are refused, and [`Engine::run`] returns once the queue
    /// drains.
    pub fn shutdown(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.shutdown = true;
        self.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::{Barrier, RwLock};

    fn engine(cfg: EngineConfig) -> Arc<Engine<u64>> {
        Engine::new(cfg, Arc::new(Registry::default()))
    }

    fn spawn_runner(
        e: &Arc<Engine<u64>>,
        execute: impl Fn(&u64) -> Response + Sync + Send + 'static,
    ) -> std::thread::JoinHandle<()> {
        let e = Arc::clone(e);
        std::thread::spawn(move || e.run(execute))
    }

    fn body(job: &u64) -> Response {
        Response::json(200, format!("{{\"job\":{job}}}").into_bytes())
    }

    #[test]
    fn computes_then_serves_from_cache() {
        let e = engine(EngineConfig::default());
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let runner = spawn_runner(&e, move |j| {
            c.fetch_add(1, Ordering::SeqCst);
            body(j)
        });
        let first = match e.submit(7, 7) {
            Submission::Done(r) => r,
            _ => panic!("expected Done"),
        };
        let second = match e.submit(7, 7) {
            Submission::CacheHit(r) => r,
            _ => panic!("expected CacheHit"),
        };
        assert_eq!(first.body, second.body);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        e.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn identical_concurrent_requests_coalesce() {
        let e = engine(EngineConfig::default());
        let calls = Arc::new(AtomicU64::new(0));
        let gate = Arc::new(Barrier::new(2)); // executor + test
        let (c, g) = (Arc::clone(&calls), Arc::clone(&gate));
        let runner = spawn_runner(&e, move |j| {
            c.fetch_add(1, Ordering::SeqCst);
            g.wait();
            body(j)
        });
        // First submission occupies the executor...
        let e1 = Arc::clone(&e);
        let t1 = std::thread::spawn(move || e1.submit(42, 42));
        // ...wait until it is actually in flight, then pile on a duplicate.
        while calls.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        let e2 = Arc::clone(&e);
        let t2 = std::thread::spawn(move || e2.submit(42, 42));
        // Give the duplicate a moment to coalesce, then release the gate.
        while e.metrics().coalesced.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        gate.wait();
        for t in [t1, t2] {
            match t.join().unwrap() {
                Submission::Done(r) => assert_eq!(r.status, 200),
                _ => panic!("expected Done"),
            }
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1, "coalesced into one call");
        e.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn full_queue_sheds_deterministically() {
        let cfg = EngineConfig {
            queue_cap: 2,
            ..EngineConfig::default()
        };
        let e = engine(cfg);
        // The executor blocks while the test holds the write lock.
        let gate = Arc::new(RwLock::new(()));
        let held = gate.write().unwrap();
        let g = Arc::clone(&gate);
        let runner = spawn_runner(&e, move |j| {
            drop(g.read().unwrap_or_else(|p| p.into_inner()));
            body(j)
        });
        // Job 1 is picked up by the runner and blocks on the gate; only
        // then do jobs 2 and 3 fill the queue, so job 4 must shed.
        let e1 = Arc::clone(&e);
        let mut waiters = vec![std::thread::spawn(move || e1.submit(1, 1))];
        while e.metrics().batches.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        for key in 2..=3u64 {
            let e = Arc::clone(&e);
            waiters.push(std::thread::spawn(move || e.submit(key, key)));
        }
        while e.queue_depth() < 2 {
            std::thread::yield_now();
        }
        assert!(matches!(e.submit(4, 4), Submission::Shed));
        assert_eq!(e.metrics().queue_shed.load(Ordering::Relaxed), 1);
        // Release every batch, however the runner grouped the jobs.
        drop(held);
        for w in waiters {
            assert!(matches!(w.join().unwrap(), Submission::Done(_)));
        }
        e.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn cache_is_fifo_bounded() {
        let e = engine(EngineConfig::default());
        let runner = spawn_runner(&e, body);
        let newest = CACHE_CAP as u64;
        for key in 0..=newest {
            assert!(matches!(e.submit(key, key), Submission::Done(_)));
        }
        // One key past the bound evicts only the oldest.
        assert!(matches!(e.submit(1, 1), Submission::CacheHit(_)));
        assert!(matches!(e.submit(newest, newest), Submission::CacheHit(_)));
        assert!(matches!(e.submit(0, 0), Submission::Done(_)));
        e.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn executor_panic_becomes_500_not_a_crash() {
        let e = engine(EngineConfig::default());
        let runner = spawn_runner(&e, |j| {
            assert!(*j != 13, "boom");
            body(j)
        });
        match e.submit(13, 13) {
            Submission::Done(r) => assert_eq!(r.status, 500),
            _ => panic!("expected Done(500)"),
        }
        // The engine survives and keeps serving.
        assert!(matches!(e.submit(1, 1), Submission::Done(_)));
        e.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn contained_panic_is_retried_before_it_becomes_a_500() {
        let cfg = EngineConfig {
            max_retries: 1,
            ..EngineConfig::default()
        };
        let e = engine(cfg);
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        // The first execution panics, the retry succeeds: the submitter
        // must see the recovered 200, never the transient failure.
        let runner = spawn_runner(&e, move |j| {
            assert!(c.fetch_add(1, Ordering::SeqCst) != 0, "transient boom");
            body(j)
        });
        match e.submit(13, 13) {
            Submission::Done(r) => assert_eq!(r.status, 200),
            _ => panic!("expected Done(200)"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(e.metrics().task_retries.load(Ordering::Relaxed), 1);
        e.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn exhausted_500_is_not_cached_and_recomputes() {
        let cfg = EngineConfig {
            max_retries: 0,
            ..EngineConfig::default()
        };
        let e = engine(cfg);
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        // First execution panics, every later one succeeds: a transient
        // fault, exactly what retry-after-500 is for.
        let runner = spawn_runner(&e, move |j| {
            assert!(c.fetch_add(1, Ordering::SeqCst) != 0, "transient boom");
            body(j)
        });
        match e.submit(13, 13) {
            Submission::Done(r) => assert_eq!(r.status, 500),
            _ => panic!("expected Done(500)"),
        }
        // The 500 must not have entered the response cache: the retry
        // recomputes and gets the recovered 200.
        match e.submit(13, 13) {
            Submission::Done(r) => assert_eq!(r.status, 200),
            other => panic!(
                "expected recomputed Done(200), got {}",
                match other {
                    Submission::CacheHit(_) => "CacheHit (stale 500 cached)",
                    _ => "non-Done",
                }
            ),
        }
        e.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn cache_policy_boundary_is_exactly_500() {
        // 2xx/4xx are pure functions of the job and cache; 5xx are
        // transient and must never cache. Probe both sides of the line:
        // 499 (still a deterministic client-class answer here) caches,
        // 500 recomputes.
        let e = engine(EngineConfig::default());
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        let runner = spawn_runner(&e, move |j| {
            c.fetch_add(1, Ordering::SeqCst);
            match *j {
                4 => Response::error(422, "bad spec"),
                499 => Response::error(499, "client closed"),
                _ => Response::error(500, "upstream down"),
            }
        });
        // A deterministic 4xx enters the cache: one execution, then a hit.
        match e.submit(4, 4) {
            Submission::Done(r) => assert_eq!(r.status, 422),
            _ => panic!("expected Done(422)"),
        }
        match e.submit(4, 4) {
            Submission::CacheHit(r) => assert_eq!(r.status, 422),
            _ => panic!("422 should be served from cache"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        // status 499 is still on the cacheable side of the boundary.
        match e.submit(499, 499) {
            Submission::Done(r) => assert_eq!(r.status, 499),
            _ => panic!("expected Done(499)"),
        }
        assert!(matches!(e.submit(499, 499), Submission::CacheHit(_)));
        // An executor-returned 500 (not just a contained panic) must also
        // stay out of the cache: the resubmit recomputes.
        match e.submit(9, 9) {
            Submission::Done(r) => assert_eq!(r.status, 500),
            _ => panic!("expected Done(500)"),
        }
        let before = calls.load(Ordering::SeqCst);
        match e.submit(9, 9) {
            Submission::Done(r) => assert_eq!(r.status, 500),
            Submission::CacheHit(_) => panic!("500 must never be cached"),
            _ => panic!("expected Done(500)"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), before + 1);
        e.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn deadline_budget_bounds_the_flight_wait() {
        let e = engine(EngineConfig {
            wait_timeout: Duration::from_millis(10),
            ..EngineConfig::default()
        });
        let gate = Arc::new(Barrier::new(2));
        let g = Arc::clone(&gate);
        let runner = spawn_runner(&e, move |j| {
            g.wait();
            body(j)
        });
        // A 10 ms compute deadline against an executor parked on a
        // barrier: the submission must give up at the deadline. It runs on
        // its own thread so an unbounded wait fails the test instead of
        // hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let e1 = Arc::clone(&e);
        let waiter = std::thread::spawn(move || tx.send(e1.submit(5, 5)));
        let verdict = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the compute deadline must bound the flight wait");
        assert!(waiter.join().unwrap().is_ok());
        assert!(matches!(verdict, Submission::TimedOut));
        assert_eq!(e.metrics().deadline_expired.load(Ordering::Relaxed), 1);
        // Release the parked executor; its result still lands in the cache
        // for the retry.
        gate.wait();
        loop {
            match e.submit(5, 5) {
                Submission::CacheHit(r) => {
                    assert_eq!(r.status, 200);
                    break;
                }
                Submission::Done(r) => {
                    assert_eq!(r.status, 200);
                    break;
                }
                _ => std::thread::yield_now(),
            }
        }
        e.shutdown();
        runner.join().unwrap();
    }

    #[test]
    fn shutdown_refuses_new_work() {
        let e = engine(EngineConfig::default());
        let runner = spawn_runner(&e, body);
        e.shutdown();
        runner.join().unwrap();
        assert!(matches!(e.submit(1, 1), Submission::ShuttingDown));
    }
}
