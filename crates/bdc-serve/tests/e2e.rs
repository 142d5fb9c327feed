//! End-to-end tests: boot the real daemon stack on an ephemeral port,
//! drive it over TCP with the real client, and check routing, validation,
//! metrics accounting, and graceful shutdown.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bdc_exec::json::{self, Json};
use bdc_serve::client::{get_once, Connection};
use bdc_serve::{EngineConfig, ServeConfig};

fn boot() -> (bdc_serve::ServerHandle, String) {
    boot_at("127.0.0.1:0")
}

fn boot_at(bind: &str) -> (bdc_serve::ServerHandle, String) {
    let cfg = ServeConfig {
        addr: bind.into(),
        engine: EngineConfig {
            queue_cap: 16,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = bdc_serve::start(cfg).expect("bind ephemeral port");
    let addr = format!("127.0.0.1:{}", handle.port());
    (handle, addr)
}

fn body_json(body: &[u8]) -> Json {
    json::parse(std::str::from_utf8(body).expect("utf-8 body")).expect("json body")
}

#[test]
fn serves_a_mixed_session_end_to_end() {
    let (handle, addr) = boot();
    let mut conn = Connection::open(&addr).expect("connect");

    // Liveness.
    let r = conn.get("/healthz").expect("healthz");
    assert_eq!(r.status, 200);
    assert_eq!(
        body_json(&r.body).get("status").and_then(Json::as_str),
        Some("ok")
    );

    // A real computation over GET...
    let r = conn
        .get("/v1/ipc?workload=gzip&outer=5&instructions=4000&process=silicon")
        .expect("ipc");
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.body));
    let v = body_json(&r.body);
    assert!(v.get("ipc").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(v.get("cycles").and_then(Json::as_u64).unwrap() > 0);

    // ...and the same query as a POST body normalizes to the same bytes.
    let r2 = conn
        .post(
            "/v1/ipc",
            r#"{"workload":"gzip","outer":5,"instructions":4000,"process":"silicon"}"#,
        )
        .expect("ipc post");
    assert_eq!(r2.status, 200);
    assert_eq!(r.body, r2.body, "GET and POST bodies must coincide");

    // Validation failures are 400 with a JSON error, not a closed socket.
    let r = conn.get("/v1/width?fe=99").expect("bad width");
    assert_eq!(r.status, 400);
    assert!(body_json(&r.body).get("error").is_some());

    // Unknown routes 404; the connection stays usable afterwards.
    let r = conn.get("/v2/nope").expect("404");
    assert_eq!(r.status, 404);
    let r = conn.get("/healthz").expect("healthz after 404");
    assert_eq!(r.status, 200);

    // Metrics reflect the traffic above.
    let r = conn.get("/v1/metrics").expect("metrics");
    assert_eq!(r.status, 200);
    let m = body_json(&r.body);
    let accepted = m
        .get("connections")
        .and_then(|c| c.get("accepted"))
        .and_then(Json::as_u64)
        .expect("connections.accepted");
    assert!(accepted >= 1);
    assert_eq!(
        m.get("engine")
            .and_then(|e| e.get("queue_cap"))
            .and_then(Json::as_u64),
        Some(16),
        "{}",
        String::from_utf8_lossy(&r.body)
    );
    let ipc = m
        .get("endpoints")
        .and_then(|e| e.get("ipc"))
        .expect("ipc endpoint entry");
    assert_eq!(ipc.get("ok").and_then(Json::as_u64), Some(2));
    assert!(ipc.get("p99_ms").and_then(Json::as_f64).unwrap() >= 0.0);

    handle.shutdown();
}

#[test]
fn malformed_http_gets_a_4xx_not_a_hang() {
    let (handle, addr) = boot();
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(&addr).expect("connect");
    s.write_all(b"NONSENSE\r\n\r\n").expect("write");
    let mut buf = Vec::new();
    let _ = s.read_to_end(&mut buf);
    let head = String::from_utf8_lossy(&buf);
    assert!(
        head.starts_with("HTTP/1.1 4"),
        "expected a 4xx status line, got: {head:.60}"
    );
    handle.shutdown();
}

#[test]
fn identical_concurrent_queries_coalesce_over_tcp() {
    let (handle, addr) = boot();
    let q = "/v1/ipc?workload=mcf&outer=4&instructions=3000";
    std::thread::scope(|s| {
        for _ in 0..6 {
            let addr = &addr;
            s.spawn(move || {
                let r = get_once(addr, q).expect("request");
                assert_eq!(r.status, 200);
            });
        }
    });
    let m = handle.metrics();
    let coalesced = m.coalesced.load(Ordering::Relaxed);
    let hits = m.cache_hits.load(Ordering::Relaxed);
    // Six identical queries cost one computation; the other five either
    // joined the in-flight computation or hit the response cache.
    assert_eq!(coalesced + hits, 5, "coalesced={coalesced} hits={hits}");
    handle.shutdown();
}

#[test]
fn shutdown_is_clean_and_idempotent_under_load() {
    let (handle, addr) = boot();
    // Leave a response in the cache, then shut down mid-session.
    let mut conn = Connection::open(&addr).expect("connect");
    let r = conn.get("/v1/library?process=silicon").expect("library");
    assert_eq!(r.status, 200);
    handle.shutdown();
    // The listener is gone: new connections are refused (or reset).
    assert!(
        get_once(&addr, "/healthz").is_err(),
        "listener survived shutdown"
    );
}

/// Runs `f` on its own thread and fails the test unless it returns within
/// `limit`, so a lost shutdown wake fails the test instead of hanging it.
fn within<T: Send + 'static>(limit: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let watched = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(value) => value,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("did not return within {limit:?}"),
        // `f` panicked: re-raise its panic here.
        Err(mpsc::RecvTimeoutError::Disconnected) => match watched.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the thread sends before it returns"),
        },
    }
}

#[test]
fn idle_shutdown_wakes_the_acceptor_and_does_not_count_the_wake() {
    // The acceptor blocks in `accept`; shutdown wakes it with one
    // connection to the listener's own address, loopback for an
    // unspecified bind. That connection is not a client.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let (handle, addr) = boot_at(bind);
        let r = get_once(&addr, "/healthz").expect("healthz");
        assert_eq!(r.status, 200);
        let metrics = Arc::clone(handle.metrics());
        within(Duration::from_secs(2), move || handle.shutdown());
        assert_eq!(
            metrics.connections.load(Ordering::Relaxed),
            1,
            "{bind}: connections.accepted counts the one client, not the wake"
        );
        assert!(
            get_once(&addr, "/healthz").is_err(),
            "{bind}: listener survived shutdown"
        );
    }
}

#[test]
fn an_idle_keep_alive_connection_does_not_hold_up_other_clients() {
    // Each worker takes a socket off the hand-off queue and serves it to
    // the end; the others must stay free to take the next one.
    let (handle, addr) = boot();
    let mut idle = Connection::open(&addr).expect("connect");
    assert_eq!(idle.get("/healthz").expect("healthz").status, 200);
    let other = addr.clone();
    let status = within(Duration::from_secs(2), move || {
        get_once(&other, "/healthz").map(|r| r.status).ok()
    });
    assert_eq!(status, Some(200));
    drop(idle);
    within(Duration::from_secs(2), move || handle.shutdown());
}

#[test]
fn endpoint_latency_excludes_keep_alive_idle_time() {
    // Three `/healthz` requests 300 ms apart on one connection: each
    // answer takes microseconds, so the server's latency must not count
    // the time the client sat idle before sending.
    let (handle, addr) = boot();
    let mut conn = Connection::open(&addr).expect("connect");
    for i in 0..3 {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(300));
        }
        assert_eq!(conn.get("/healthz").expect("healthz").status, 200);
    }
    let r = get_once(&addr, "/v1/metrics").expect("metrics");
    let healthz = body_json(&r.body)
        .get("endpoints")
        .and_then(|e| e.get("healthz"))
        .cloned()
        .expect("healthz endpoint entry");
    assert_eq!(healthz.get("requests").and_then(Json::as_u64), Some(3));
    let p50 = healthz
        .get("p50_ms")
        .and_then(Json::as_f64)
        .expect("p50_ms");
    assert!(
        p50 < 50.0,
        "healthz p50 {p50} ms counts the client's idle time"
    );
    drop(conn);
    within(Duration::from_secs(2), move || handle.shutdown());
}
