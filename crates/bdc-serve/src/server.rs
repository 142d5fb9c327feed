//! The TCP front end: accept loop, connection workers, graceful shutdown.
//!
//! Topology: one non-blocking acceptor thread feeds accepted sockets to a
//! fixed pool of connection workers over a bounded channel (the first
//! admission-control layer — when every worker is busy and the hand-off
//! queue is full, the acceptor answers `429` itself and closes). Each
//! worker speaks keep-alive HTTP/1.1, routes requests, and resolves
//! computational calls through the [`Engine`] (the second layer: response
//! cache → coalesce → bounded queue → shed).
//!
//! Shutdown: `SIGTERM`/`SIGINT` set a flag (see [`install_signal_handlers`])
//! that [`ServerHandle::run_until_signalled`] polls; tests and the bench
//! harness call [`ServerHandle::shutdown`] directly. Either way the
//! listener stops accepting, workers finish their current request, the
//! engine drains its queue, and every thread is joined before the handle
//! returns — no request is abandoned mid-computation.

use std::io::{BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bdc_core::Process;

use crate::api::{self, Route};
use crate::engine::{Engine, EngineConfig, Submission};
use crate::http::{self, Response};
use crate::metrics::{Endpoint, Registry};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8731`; port 0 picks an ephemeral
    /// port (reported by [`ServerHandle::port`]).
    pub addr: String,
    /// Connection-worker threads.
    pub conn_threads: usize,
    /// Accepted sockets that may wait for a worker before the acceptor
    /// sheds new connections with 429.
    pub conn_backlog: usize,
    /// Engine knobs (queue bound, batch size, response-cache bound).
    pub engine: EngineConfig,
    /// Processes whose libraries are characterized before the listener
    /// starts accepting (cold-start avoidance).
    pub warm: Vec<Process>,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout — a stalled client that stops
    /// draining its receive window can otherwise pin a worker forever.
    pub write_timeout: Duration,
    /// Shard identity in a `bdc-cluster` fleet: when set, every response
    /// carries an `x-bdc-shard: N` header so clients and the byte-identity
    /// tests can see which worker answered. `None` for a standalone
    /// server (no header — single-process bodies stay byte-identical to
    /// pre-cluster builds).
    pub shard: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8731".into(),
            conn_threads: 8,
            conn_backlog: 64,
            engine: EngineConfig::default(),
            warm: Vec::new(),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            shard: None,
        }
    }
}

/// Signal-driven shutdown flag, shared with the handlers below.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Installs `SIGINT`/`SIGTERM` handlers that request a graceful shutdown
/// (idempotent; unix only — elsewhere it is a no-op and ctrl-c falls back
/// to process default).
#[cfg(unix)]
pub fn install_signal_handlers() {
    // The one unsafe block in the workspace: registering a libc signal
    // handler has no safe std equivalent, and the handler body is
    // async-signal-safe (a single atomic store).
    #[allow(unsafe_code)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        unsafe {
            signal(2, on_signal); // SIGINT
            signal(15, on_signal); // SIGTERM
        }
    }
}

/// No-op fallback for non-unix targets.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Whether a shutdown signal has been observed.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// A running server: join handles plus the shared engine and metrics.
pub struct ServerHandle {
    port: u16,
    engine: Arc<Engine<api::ApiCall>>,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Arc<Registry> {
        self.engine.metrics()
    }

    /// Blocks until a shutdown signal arrives, then shuts down gracefully.
    pub fn run_until_signalled(self) {
        while !signalled() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.shutdown();
    }

    /// Graceful shutdown: stop accepting, drain the engine, join every
    /// thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.engine.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds the listener, spawns the engine, acceptor, and connection
/// workers, and returns the handle. The library warm-up (if requested)
/// happens before binding so the first accepted request never pays
/// characterization latency.
///
/// # Errors
/// Propagates bind failures.
pub fn start(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    for p in &cfg.warm {
        let _ = bdc_core::process::shared_kit(*p);
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let port = listener.local_addr()?.port();
    listener.set_nonblocking(true)?;

    let metrics = Arc::new(Registry::default());
    let engine: Arc<Engine<api::ApiCall>> = Engine::new(cfg.engine.clone(), Arc::clone(&metrics));
    let stop = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();

    // Engine batching loop.
    {
        let engine = Arc::clone(&engine);
        threads.push(
            std::thread::Builder::new()
                .name("bdc-serve-engine".into())
                .spawn(move || engine.run(api::execute))?,
        );
    }

    // Connection hand-off channel (bounded: admission-control layer 1).
    let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(cfg.conn_backlog);
    let rx = Arc::new(Mutex::new(rx));
    for i in 0..cfg.conn_threads.max(1) {
        let rx = Arc::clone(&rx);
        let engine = Arc::clone(&engine);
        let metrics = Arc::clone(&metrics);
        let stop = Arc::clone(&stop);
        let timeouts = (cfg.read_timeout, cfg.write_timeout);
        let shard = cfg.shard;
        threads.push(
            std::thread::Builder::new()
                .name(format!("bdc-serve-conn-{i}"))
                .spawn(move || conn_worker(&rx, &engine, &metrics, &stop, timeouts, shard))?,
        );
    }

    // Acceptor.
    {
        let metrics = Arc::clone(&metrics);
        let stop = Arc::clone(&stop);
        threads.push(
            std::thread::Builder::new()
                .name("bdc-serve-accept".into())
                .spawn(move || acceptor(&listener, &tx, &metrics, &stop))?,
        );
    }

    Ok(ServerHandle {
        port,
        engine,
        stop,
        threads,
    })
}

fn acceptor(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    metrics: &Registry,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                metrics.connections.fetch_add(1, Ordering::Relaxed);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        // Every worker busy and the backlog full: shed at
                        // the door rather than queue unboundedly. A short
                        // write timeout keeps a stalled client from
                        // pinning the acceptor itself.
                        metrics.connections_shed.fetch_add(1, Ordering::Relaxed);
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                        let mut resp = Response::error(429, "server saturated; retry");
                        resp.extra_headers.push(("retry-after".into(), "1".into()));
                        let _ = resp.write_to(&mut stream, false);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Dropping `tx` disconnects the channel; workers drain and exit.
}

fn conn_worker(
    rx: &Mutex<Receiver<TcpStream>>,
    engine: &Engine<api::ApiCall>,
    metrics: &Registry,
    stop: &AtomicBool,
    timeouts: (Duration, Duration),
    shard: Option<usize>,
) {
    loop {
        // Poll with a timeout so workers also notice `stop` when idle.
        let stream = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv_timeout(Duration::from_millis(100))
        };
        match stream {
            Ok(stream) => {
                serve_connection(stream, engine, metrics, stop, timeouts, shard);
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serves one keep-alive connection until close, error, or shutdown.
fn serve_connection(
    stream: TcpStream,
    engine: &Engine<api::ApiCall>,
    metrics: &Registry,
    stop: &AtomicBool,
    (read_timeout, write_timeout): (Duration, Duration),
    shard: Option<usize>,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        // bdc-lint: allow(D002, latency telemetry; responses carry no Date header)
        let t0 = Instant::now();
        let request = match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    metrics
                        .endpoint(Endpoint::Other)
                        .record(status, t0.elapsed().as_micros() as u64);
                    let _ = Response::error(status, &format!("{e:?}")).write_to(&mut writer, false);
                }
                return;
            }
        };
        let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
        let (endpoint, mut response) = handle(&request, engine);
        if let Some(shard) = shard {
            // Identity rides in a header so the *body* stays byte-identical
            // across shards — the cluster acceptance gate.
            response
                .extra_headers
                .push(("x-bdc-shard".into(), shard.to_string()));
        }
        metrics
            .endpoint(endpoint)
            .record(response.status, t0.elapsed().as_micros() as u64);
        if response.write_to(&mut writer, keep_alive).is_err() {
            return;
        }
        if !keep_alive {
            let _ = writer.flush();
            return;
        }
    }
}

/// Routes and resolves one request. Exposed for the in-process bench
/// harness and tests.
pub fn handle(request: &http::Request, engine: &Engine<api::ApiCall>) -> (Endpoint, Response) {
    match api::route(request) {
        Route::Healthz => (Endpoint::Healthz, api::healthz(engine.health())),
        // The catalogue is static metadata — answered inline, no engine
        // round-trip.
        Route::Experiments => (Endpoint::Experiments, api::experiments_response()),
        Route::Metrics => {
            let snap = engine.metrics().snapshot(
                engine.queue_depth(),
                engine.queue_cap(),
                engine.health(),
            );
            (
                Endpoint::Metrics,
                Response::json(200, snap.encode().into_bytes()),
            )
        }
        // Peer cache transfers touch only the artifact directory — no
        // engine round-trip, no computation, so a peer fetch can never
        // cascade into another peer fetch.
        Route::PeerFetch { name, key } => (Endpoint::Peer, api::peer_fetch_response(&name, key)),
        Route::PeerStore { name, key } => (
            Endpoint::Peer,
            api::peer_store_response(&name, key, &request.body),
        ),
        Route::Error(endpoint, response) => (endpoint, response),
        Route::Call(call) => {
            let endpoint = call.endpoint();
            let key = call.cache_key();
            let response = match engine.submit(key, call) {
                Submission::CacheHit(r) | Submission::Done(r) => (*r).clone(),
                Submission::Shed => {
                    let mut r = Response::error(429, "queue full; retry");
                    r.extra_headers.push(("retry-after".into(), "1".into()));
                    r
                }
                Submission::TimedOut => {
                    // The compute deadline expired. 503 + Retry-After
                    // tells a well-behaved client the result may well be
                    // cached by the time it retries.
                    let mut r = Response::error(503, "compute deadline exceeded; retry");
                    r.extra_headers.push(("retry-after".into(), "2".into()));
                    r
                }
                Submission::ShuttingDown => Response::error(503, "shutting down"),
            };
            (endpoint, response)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn parse(raw: &str) -> http::Request {
        http::read_request(&mut raw.as_bytes()).expect("well-formed request")
    }

    #[test]
    fn stray_deadline_header_is_ignored() {
        // Older clients may still send `x-bdc-deadline-ms`; the server no
        // longer reads it, so a 1 ms "budget" must neither refuse nor time
        // out the request. The executor sleeps so the cold miss outlasts
        // that budget, which a deadline-honouring server would have
        // answered with a 503.
        let engine: Arc<Engine<api::ApiCall>> =
            Engine::new(EngineConfig::default(), Arc::new(Registry::default()));
        let runner = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine.run(|call| {
                    std::thread::sleep(Duration::from_millis(20));
                    api::execute(call)
                })
            })
        };
        let path = "/v1/ipc?workload=gzip&outer=5&instructions=4000";
        let (_, with) = handle(
            &parse(&format!(
                "GET {path} HTTP/1.1\r\nx-bdc-deadline-ms: 1\r\n\r\n"
            )),
            &engine,
        );
        let (_, without) = handle(&parse(&format!("GET {path} HTTP/1.1\r\n\r\n")), &engine);
        assert_eq!(with.status, 200);
        assert_eq!(with.to_bytes(true), without.to_bytes(true));
        engine.shutdown();
        runner.join().unwrap();
    }
}
