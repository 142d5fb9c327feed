//! The TCP front end: accept loop, connection workers, graceful shutdown.
//!
//! Topology: one blocking acceptor thread feeds accepted sockets to a
//! fixed pool of connection workers over a bounded channel (the first
//! admission-control layer — when every worker is busy and the hand-off
//! queue is full, the acceptor answers `429` itself and closes). Each
//! worker speaks keep-alive HTTP/1.1, routes requests, and resolves
//! computational calls through the [`Engine`] (the second layer: response
//! cache → coalesce → bounded queue → shed). The `bdc-cluster` router
//! runs the same [`AcceptLoop`] with its own connection handler.
//!
//! Shutdown: `SIGTERM`/`SIGINT` set a flag and write a self-pipe (see
//! [`install_signal_handlers`]) that wakes [`wait_for_signal`] — and so
//! [`ServerHandle::run_until_signalled`] and `bdc cluster` — at once;
//! tests and the bench harness call [`ServerHandle::shutdown`] directly.
//! Either way the acceptor is woken by one connection to the listener's
//! own address and stops accepting, the read side of every open
//! connection is shut so an idle keep-alive client cannot hold a worker,
//! workers answer the request they have already read, the engine drains
//! its queue, and every thread is joined before the handle returns — no
//! request is abandoned mid-computation.

use std::io::{BufRead, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::sync::atomic::AtomicI32;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
#[cfg(unix)]
use std::sync::OnceLock;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bdc_core::registry::query::Query;
use bdc_core::Process;

use crate::api::{self, Route};
use crate::engine::{Engine, EngineConfig, Submission};
use crate::http::{self, Response};
use crate::metrics::{Endpoint, Registry};

/// Connection-worker threads per [`AcceptLoop`].
const CONN_THREADS: usize = 8;

/// Accepted sockets that may wait for a worker before the acceptor sheds
/// new connections with 429.
const CONN_BACKLOG: usize = 64;

/// Per-connection socket read and write timeout. The write side matters
/// too: a stalled client that stops draining its receive window could
/// otherwise pin a worker forever.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// Server settings.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8731`; port 0 picks an ephemeral
    /// port (reported by [`ServerHandle::port`]).
    pub addr: String,
    /// Engine settings (queue bound, compute deadline, retries).
    pub engine: EngineConfig,
    /// Processes whose libraries are characterized before the listener
    /// starts accepting (cold-start avoidance).
    pub warm: Vec<Process>,
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
            engine: EngineConfig::default(),
            warm: Vec::new(),
            shard: None,
        }
    }
}

/// Signal-driven shutdown flag, shared with the handlers below.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Raw descriptor of the self-pipe's write end, for the handler; -1 until
/// [`install_signal_handlers`] runs.
#[cfg(unix)]
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

/// The self-pipe `(read end, write end)`: the handler writes one byte
/// after setting [`SIGNALLED`], which wakes [`wait_for_signal`] at once.
/// `None` if the pipe cannot be made; the wait then polls the flag.
#[cfg(unix)]
fn wake_pipe() -> Option<&'static (UnixStream, UnixStream)> {
    static PIPE: OnceLock<Option<(UnixStream, UnixStream)>> = OnceLock::new();
    PIPE.get_or_init(|| {
        let (rx, tx) = UnixStream::pair().ok()?;
        // A burst of signals must never block the handler on a full pipe.
        tx.set_nonblocking(true).ok()?;
        Some((rx, tx))
    })
    .as_ref()
}

/// Installs `SIGINT`/`SIGTERM` handlers that request a graceful shutdown
/// (idempotent; unix only — elsewhere it is a no-op and ctrl-c falls back
/// to process default).
#[cfg(unix)]
pub fn install_signal_handlers() {
    use std::os::fd::AsRawFd;
    if let Some((_, tx)) = wake_pipe() {
        WAKE_FD.store(tx.as_raw_fd(), Ordering::SeqCst);
    }
    // The one unsafe block in the workspace: registering a libc signal
    // handler has no safe std equivalent, and the handler body is
    // async-signal-safe (two atomics and one non-blocking write(2), which
    // sets errno only when the pipe is already full of wake bytes).
    #[allow(unsafe_code)]
    {
        extern "C" fn on_signal(_sig: i32) {
            SIGNALLED.store(true, Ordering::SeqCst);
            let fd = WAKE_FD.load(Ordering::SeqCst);
            if fd >= 0 {
                let byte = 1u8;
                // SAFETY: `buf` points at one live byte on this stack, and
                // `fd` is the write end that `wake_pipe` keeps open for the
                // life of the process.
                unsafe {
                    write(fd, &byte, 1);
                }
            }
        }
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            fn write(fd: i32, buf: *const u8, count: usize) -> isize;
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
fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Blocks until a shutdown signal has been observed, reading the
/// self-pipe between checks of the flag (polling where there is none).
/// Signals only wake it once [`install_signal_handlers`] has run.
pub fn wait_for_signal() {
    while !signalled() {
        #[cfg(unix)]
        if let Some((rx, _)) = wake_pipe() {
            // A wake byte or an interrupted read both lead back to the check.
            let _ = std::io::Read::read(&mut &*rx, &mut [0u8; 1]);
            continue;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// A running server: the accept loop, the engine and its batching thread.
pub struct ServerHandle {
    engine: Arc<Engine<Query>>,
    accept: AcceptLoop,
    engine_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound port.
    pub fn port(&self) -> u16 {
        self.accept.port()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Arc<Registry> {
        self.engine.metrics()
    }

    /// Blocks until a shutdown signal arrives, then shuts down gracefully.
    pub fn run_until_signalled(self) {
        wait_for_signal();
        self.shutdown();
    }

    /// Graceful shutdown: stop accepting, drain the engine, join every
    /// thread.
    pub fn shutdown(self) {
        self.accept.stop();
        self.engine.shutdown();
        self.accept.join();
        let _ = self.engine_thread.join();
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

    let metrics = Arc::new(Registry::default());
    let engine: Arc<Engine<Query>> = Engine::new(cfg.engine.clone(), Arc::clone(&metrics));
    let engine_thread = {
        let engine = Arc::clone(&engine);
        std::thread::Builder::new()
            .name("bdc-serve-engine".into())
            .spawn(move || engine.run(api::execute))?
    };
    let service = EngineService {
        engine: Arc::clone(&engine),
        metrics,
        shard: cfg.shard,
    };
    let accept = AcceptLoop::spawn(
        listener,
        "bdc-serve",
        "server saturated; retry",
        Arc::new(service),
    )?;
    Ok(ServerHandle {
        engine,
        accept,
        engine_thread,
    })
}

/// What an [`AcceptLoop`] serves: its owner's answers and counters.
pub trait Service: Send + Sync + 'static {
    /// Answers one parsed request; `t0` is when its first byte arrived.
    fn answer(&self, request: &http::Request, t0: Instant) -> Response;
    /// Notes a request that did not parse, answered `status` by the loop.
    fn rejected(&self, _status: u16, _t0: Instant) {}
    /// Notes a client connection, before it is handed to a worker.
    fn accepted(&self) {}
    /// Notes a connection answered `429` at the door.
    fn shed(&self) {}
}

/// The shard server's [`Service`]: the engine, plus the metrics of every
/// request and connection.
struct EngineService {
    engine: Arc<Engine<Query>>,
    metrics: Arc<Registry>,
    shard: Option<usize>,
}

impl EngineService {
    fn record(&self, endpoint: Endpoint, status: u16, t0: Instant) {
        let micros = t0.elapsed().as_micros() as u64;
        self.metrics.endpoint(endpoint).record(status, micros);
    }
}

impl Service for EngineService {
    fn answer(&self, request: &http::Request, t0: Instant) -> Response {
        let (endpoint, mut response) = handle(request, &self.engine);
        if let Some(shard) = self.shard {
            // Identity rides in a header so the *body* stays byte-identical
            // across shards — the cluster acceptance gate.
            response
                .extra_headers
                .push(("x-bdc-shard".into(), shard.to_string()));
        }
        self.record(endpoint, response.status, t0);
        response
    }

    fn rejected(&self, status: u16, t0: Instant) {
        self.record(Endpoint::Other, status, t0);
    }

    fn accepted(&self) {
        self.metrics.connections.fetch_add(1, Ordering::Relaxed);
    }

    fn shed(&self) {
        self.metrics
            .connections_shed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// A listener served by one blocking acceptor thread and a fixed pool of
/// connection workers, which take accepted sockets from a bounded channel
/// and speak keep-alive HTTP/1.1 on them. The shard server and the
/// `bdc-cluster` router both run one.
pub struct AcceptLoop {
    /// The listener's own address, an unspecified IP mapped to loopback:
    /// where [`AcceptLoop::stop`] connects to wake the acceptor.
    wake: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Each worker's current connection, so [`AcceptLoop::stop`] can end
    /// a read that waits on an idle client.
    open: Arc<OpenConns>,
    threads: Vec<JoinHandle<()>>,
}

/// One slot per worker: a handle on the connection it is serving.
type OpenConns = Mutex<Vec<Option<TcpStream>>>;

impl AcceptLoop {
    /// Spawns `{name}-accept` and `CONN_THREADS` threads
    /// `{name}-conn-{i}` on `listener`. Up to `CONN_BACKLOG` accepted
    /// sockets wait for a worker; past that the acceptor answers `429`
    /// with `shed_body` and closes.
    ///
    /// # Errors
    /// Propagates `local_addr` and thread-spawn failures.
    pub fn spawn(
        listener: TcpListener,
        name: &str,
        shed_body: &'static str,
        service: Arc<impl Service>,
    ) -> std::io::Result<AcceptLoop> {
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            let loopback = match wake {
                SocketAddr::V4(_) => IpAddr::from(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::from(Ipv6Addr::LOCALHOST),
            };
            wake.set_ip(loopback);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let open = Arc::new(Mutex::new((0..CONN_THREADS).map(|_| None).collect()));
        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(CONN_BACKLOG);
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::new();
        for i in 0..CONN_THREADS {
            let (rx, service) = (Arc::clone(&rx), Arc::clone(&service));
            let (stop, open) = (Arc::clone(&stop), Arc::clone(&open));
            threads.push(
                std::thread::Builder::new()
                    .name(format!("{name}-conn-{i}"))
                    .spawn(move || conn_worker(i, &rx, &*service, &stop, &open))?,
            );
        }
        let acceptor_stop = Arc::clone(&stop);
        let run = move || acceptor(&listener, &tx, &acceptor_stop, shed_body, &*service);
        threads.push(
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(run)?,
        );
        Ok(AcceptLoop {
            wake,
            stop,
            open,
            threads,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.wake.port()
    }

    /// Begins shutdown: sets the stop flag, then wakes the blocked accept
    /// with one connection to the listener's own address. The acceptor
    /// drops that connection uncounted and exits, closing the listener.
    /// Every open connection's read side is shut, so a worker waiting on
    /// an idle keep-alive client reads end-of-stream at once; a request it
    /// has already read is still answered.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
        for stream in lock(&self.open).iter().flatten() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Joins the acceptor and every worker; each worker first finishes
    /// the connections already handed to it. Call after
    /// [`AcceptLoop::stop`].
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

fn acceptor(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    stop: &AtomicBool,
    shed_body: &str,
    service: &dyn Service,
) {
    loop {
        match listener.accept() {
            // The shutdown wake, or a client that raced it.
            Ok(_) if stop.load(Ordering::SeqCst) => return,
            Ok((stream, _)) => {
                service.accepted();
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        // Every worker busy and the backlog full: shed at
                        // the door rather than queue unboundedly. A short
                        // write timeout keeps a stalled client from
                        // pinning the acceptor itself.
                        service.shed();
                        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                        let mut resp = Response::error(429, shed_body);
                        resp.extra_headers.push(("retry-after".into(), "1".into()));
                        let _ = resp.write_to(&mut stream, false);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) if stop.load(Ordering::SeqCst) => return,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Returning drops `tx` and the listener: workers drain and exit.
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn conn_worker(
    slot: usize,
    rx: &Mutex<Receiver<TcpStream>>,
    service: &dyn Service,
    stop: &AtomicBool,
    open: &OpenConns,
) {
    loop {
        // The guard drops at the end of this statement, so other workers
        // can take the next socket while this one serves. `recv` fails
        // once the acceptor has exited and the queue is empty.
        let Ok(stream) = lock(rx).recv() else {
            return;
        };
        if let Ok(handle) = stream.try_clone() {
            // Checked under the lock `stop` takes after setting the flag:
            // either `stop` sees this handle, or this sees the flag.
            let mut open = lock(open);
            if stop.load(Ordering::SeqCst) {
                let _ = handle.shutdown(Shutdown::Read);
            }
            open[slot] = Some(handle);
        }
        serve_connection(stream, service, stop);
        lock(open)[slot] = None;
    }
}

/// Serves one keep-alive connection until close, error, or shutdown.
fn serve_connection(stream: TcpStream, service: &dyn Service, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    loop {
        // An idle keep-alive client is not request latency: the clock
        // starts at the first byte. End of stream, a read timeout or a
        // shut read side leave no request to answer.
        if !matches!(reader.fill_buf(), Ok(bytes) if !bytes.is_empty()) {
            return;
        }
        // bdc-lint: allow(D002, latency telemetry; responses carry no Date header)
        let t0 = Instant::now();
        let request = match http::read_request(&mut reader) {
            Ok(r) => r,
            Err(e) => {
                let status = e.status();
                if status != 0 {
                    service.rejected(status, t0);
                    let _ = Response::error(status, &format!("{e:?}")).write_to(&mut writer, false);
                }
                return;
            }
        };
        let keep_alive = request.keep_alive && !stop.load(Ordering::SeqCst);
        let response = service.answer(&request, t0);
        if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Routes and resolves one request. Exposed for the in-process bench
/// harness and tests.
pub fn handle(request: &http::Request, engine: &Engine<Query>) -> (Endpoint, Response) {
    let (endpoint, route) = api::route(request);
    let response = match route {
        Route::Healthz => api::healthz(engine.health()),
        // The catalogue is static metadata — answered inline, no engine
        // round-trip.
        Route::Experiments => api::experiments_response(),
        Route::Metrics => {
            let snap = engine.metrics().snapshot(
                engine.queue_depth(),
                engine.queue_cap(),
                engine.health(),
            );
            Response::json(200, snap.encode().into_bytes())
        }
        // Peer cache transfers touch only the artifact directory — no
        // engine round-trip, no computation, so a peer fetch can never
        // cascade into another peer fetch.
        Route::PeerFetch { name, key } => api::peer_fetch_response(&name, key),
        Route::PeerStore { name, key } => api::peer_store_response(&name, key, &request.body),
        Route::Error(response) => response,
        Route::Call(query) => match engine.submit(api::cache_key(&query), query) {
            Submission::CacheHit(r) | Submission::Done(r) => (*r).clone(),
            Submission::Shed => {
                let mut r = Response::error(429, "queue full; retry");
                r.extra_headers.push(("retry-after".into(), "1".into()));
                r
            }
            Submission::TimedOut => {
                // The compute deadline expired. 503 + Retry-After tells a
                // well-behaved client the result may well be cached by the
                // time it retries.
                let mut r = Response::error(503, "compute deadline exceeded; retry");
                r.extra_headers.push(("retry-after".into(), "2".into()));
                r
            }
            Submission::ShuttingDown => Response::error(503, "shutting down"),
        },
    };
    (endpoint, response)
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
        let engine: Arc<Engine<Query>> =
            Engine::new(EngineConfig::default(), Arc::new(Registry::default()));
        let runner = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine.run(|query| {
                    std::thread::sleep(Duration::from_millis(20));
                    api::execute(query)
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
