//! Cluster integration tests: a real 3-shard in-process fleet behind the
//! real router, driven over TCP.
//!
//! The load-bearing claims: any shard (or the router) serves bodies
//! byte-identical to a standalone single-process server; a dead shard is
//! hidden by failover (no client-visible 5xx); the router's fleet views
//! aggregate per-shard state; and the peer artifact protocol round-trips
//! through the router to the ring owner.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use bdc_cluster::cluster::{artifact_slot, Ring, DEFAULT_VNODES};
use bdc_cluster::router::{start_router, RouterConfig};
use bdc_exec::json::{self, Json};
use bdc_serve::client::Connection;
use bdc_serve::{EngineConfig, ServeConfig};

const RING_SEED: u64 = 42;

/// Boots `n` in-process shard servers and a router over them. Returns
/// (shard handles, shard addrs, router handle, router addr).
fn boot_fleet(
    n: usize,
) -> (
    Vec<bdc_serve::ServerHandle>,
    Vec<String>,
    bdc_cluster::RouterHandle,
    String,
) {
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..n {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            engine: EngineConfig {
                queue_cap: 16,
                ..EngineConfig::default()
            },
            shard: Some(shard),
            ..ServeConfig::default()
        };
        let handle = bdc_serve::start(cfg).expect("bind shard");
        addrs.push(format!("127.0.0.1:{}", handle.port()));
        handles.push(handle);
    }
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: addrs.clone(),
        ring_seed: RING_SEED,
    })
    .expect("bind router");
    let router_addr = format!("127.0.0.1:{}", router.port());
    (handles, addrs, router, router_addr)
}

fn boot_standalone() -> (bdc_serve::ServerHandle, String) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        engine: EngineConfig {
            queue_cap: 16,
            ..EngineConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle = bdc_serve::start(cfg).expect("bind standalone");
    let addr = format!("127.0.0.1:{}", handle.port());
    (handle, addr)
}

fn body_json(body: &[u8]) -> Json {
    json::parse(std::str::from_utf8(body).expect("utf-8 body")).expect("json body")
}

/// The request mix: compute endpoints, the static catalogue, a validation
/// error, and a 404 — every body must be identical no matter who renders
/// it.
const PATHS: [&str; 5] = [
    "/v1/experiments",
    "/v1/library?process=silicon",
    "/v1/ipc?workload=gzip&outer=5&instructions=4000",
    "/v1/width?fe=99",
    "/v2/nope",
];

#[test]
fn any_shard_and_the_router_serve_byte_identical_bodies() {
    let (handles, addrs, router, router_addr) = boot_fleet(3);
    let (standalone, standalone_addr) = boot_standalone();

    for path in PATHS {
        let reference = Connection::open(&standalone_addr)
            .expect("connect standalone")
            .get(path)
            .expect("standalone get");
        assert!(
            reference.header("x-bdc-shard").is_none(),
            "standalone must not claim a shard id"
        );

        let via_router = Connection::open(&router_addr)
            .expect("connect router")
            .get(path)
            .expect("router get");
        assert_eq!(via_router.status, reference.status, "{path}");
        assert_eq!(via_router.body, reference.body, "router body for {path}");

        for (shard, addr) in addrs.iter().enumerate() {
            let direct = Connection::open(addr)
                .expect("connect shard")
                .get(path)
                .expect("direct get");
            assert_eq!(direct.status, reference.status, "{path} via shard {shard}");
            assert_eq!(direct.body, reference.body, "{path} via shard {shard}");
            assert_eq!(
                direct.header("x-bdc-shard"),
                Some(shard.to_string().as_str()),
                "direct response must carry its shard id"
            );
        }
    }

    // Proxied routes carry the answering shard's id, and a healthy fleet
    // never fails over — so the claimed shard is the slot owner.
    let mut conn = Connection::open(&router_addr).expect("connect router");
    let r = conn
        .get("/v1/ipc?workload=gzip&outer=5&instructions=4000")
        .expect("proxied get");
    let claimed: usize = r
        .header("x-bdc-shard")
        .expect("proxied response carries x-bdc-shard")
        .parse()
        .expect("numeric shard id");
    assert!(claimed < 3);
    let metrics = body_json(&conn.get("/v1/metrics").expect("metrics").body);
    assert_eq!(
        metrics
            .get("router")
            .and_then(|r| r.get("failovers"))
            .and_then(Json::as_u64),
        Some(0),
        "healthy fleet must not fail over"
    );

    router.shutdown();
    standalone.shutdown();
    for h in handles {
        h.shutdown();
    }
}

/// One `connection: close` GET with `extra` header lines, returning the
/// raw response bytes (the client API sends no custom headers).
fn raw_get(addr: &str, path: &str, extra: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect router");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: bdc\r\n{extra}connection: close\r\n\r\n"
    )
    .expect("send request");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read response");
    out
}

#[test]
fn router_ignores_a_stray_deadline_header() {
    // Older clients may still send `x-bdc-deadline-ms`. Neither the router
    // nor the shards read it any more, so a 1 ms "budget" on a cold miss
    // must get the same bytes (status, shard, body) as the bare request
    // rather than a deadline 503.
    let (handles, _addrs, router, router_addr) = boot_fleet(3);
    for path in PATHS {
        let with = raw_get(&router_addr, path, "x-bdc-deadline-ms: 1\r\n");
        let without = raw_get(&router_addr, path, "");
        assert!(with.starts_with(b"HTTP/1.1 "), "{path}");
        assert_eq!(
            String::from_utf8_lossy(&with),
            String::from_utf8_lossy(&without),
            "{path}"
        );
    }
    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn failover_hides_a_dead_shard_and_the_fleet_views_report_it() {
    let (mut handles, _addrs, router, router_addr) = boot_fleet(3);

    // Healthy fleet: overall ok, 3 shards ok, topology visible.
    let mut conn = Connection::open(&router_addr).expect("connect router");
    let health = body_json(&conn.get("/healthz").expect("healthz").body);
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));

    let topo = body_json(&conn.get("/v1/cluster").expect("topology").body);
    assert_eq!(topo.get("shards").and_then(Json::as_u64), Some(3));
    assert_eq!(
        topo.get("members")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(3)
    );

    // Kill the shard that owns a proxied compute route, so at least one
    // of the requests below must fail over. The owner is discovered from
    // the healthy fleet's shard header rather than hard-coded — the key
    // layout (and therefore slot ownership) may legitimately change when
    // the response-cache salt does.
    let owner: usize = conn
        .get("/v1/ipc?workload=gzip&outer=5&instructions=4000")
        .expect("proxied get")
        .header("x-bdc-shard")
        .expect("proxied response carries x-bdc-shard")
        .parse()
        .expect("numeric shard id");
    handles.remove(owner).shutdown();

    // Every request must still succeed — the router fails over to a
    // surviving replica and the client never sees a 5xx.
    for round in 0..3 {
        for path in PATHS {
            let r = Connection::open(&router_addr)
                .expect("connect router")
                .get(path)
                .expect("get after kill");
            assert!(
                r.status < 500,
                "round {round}: {path} surfaced {} after shard kill",
                r.status
            );
        }
    }

    // The kill is visible in the fleet views even though clients are
    // insulated from it.
    let mut conn = Connection::open(&router_addr).expect("reconnect router");
    let health = body_json(&conn.get("/healthz").expect("healthz").body);
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded")
    );
    let down = match health.get("shards") {
        Some(Json::Arr(rows)) => rows
            .iter()
            .filter(|r| r.get("status").and_then(Json::as_str) == Some("down"))
            .count(),
        _ => 0,
    };
    assert_eq!(down, 1, "exactly one shard is down: {health:?}");

    let metrics = body_json(&conn.get("/v1/metrics").expect("metrics").body);
    let router_section = metrics.get("router").expect("router section");
    assert_eq!(router_section.get("shards").and_then(Json::as_u64), Some(3));
    assert!(
        router_section
            .get("failovers")
            .and_then(Json::as_u64)
            .expect("failovers counter")
            > 0,
        "requests owned by the dead shard must have failed over"
    );
    assert_eq!(
        router_section.get("exhausted").and_then(Json::as_u64),
        Some(0),
        "no request may exhaust its failover budget with 2 shards alive"
    );
    let ups = match metrics.get("shards") {
        Some(Json::Arr(rows)) => rows
            .iter()
            .filter(|r| r.get("up") == Some(&Json::Bool(true)))
            .count(),
        _ => 0,
    };
    assert_eq!(ups, 2, "metrics must report exactly two shards up");
    assert!(
        metrics
            .get("fleet")
            .and_then(|f| f.get("requests"))
            .and_then(Json::as_u64)
            .expect("fleet request sum")
            > 0,
        "fleet sum must aggregate the surviving shards' counters"
    );

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn breaker_routes_around_a_dead_shard() {
    let (mut handles, _addrs, router, router_addr) = boot_fleet(3);
    let path = "/v1/ipc?workload=gzip&outer=5&instructions=4000";
    let mut conn = Connection::open(&router_addr).expect("connect router");
    let owner: usize = conn
        .get(path)
        .expect("proxied get")
        .header("x-bdc-shard")
        .expect("proxied response carries x-bdc-shard")
        .parse()
        .expect("numeric shard id");
    handles.remove(owner).shutdown();

    // Each request first tries the dead owner until its breaker has seen
    // `min_samples` (8) failures and opens; from then on the router skips
    // the owner without a connection attempt.
    for _ in 0..12 {
        let r = Connection::open(&router_addr)
            .expect("connect router")
            .get(path)
            .expect("get after kill");
        assert_eq!(r.status, 200);
    }
    let metrics = body_json(&conn.get("/v1/metrics").expect("metrics").body);
    let router_section = metrics.get("router").expect("router section");
    let counter = |name: &str| router_section.get(name).and_then(Json::as_u64);
    assert_eq!(counter("breaker_opened"), Some(1));
    assert!(
        counter("breaker_skips").unwrap_or(0) > 0,
        "an open breaker must route around its shard: {router_section:?}"
    );

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
}

#[test]
fn peer_artifact_protocol_round_trips_through_the_router() {
    let (handles, _addrs, router, router_addr) = boot_fleet(3);

    let name = "clustertest";
    let key = 0x00ab_u64;
    let payload = "peer payload, framed and checksummed\n";
    let framed = bdc_exec::frame_artifact(payload);

    // Store via the router: routed to the artifact's ring owner.
    let mut conn = Connection::open(&router_addr).expect("connect router");
    let store = conn
        .post(
            &format!("/v1/peer/artifact?name={name}&key={key:016x}"),
            &framed,
        )
        .expect("peer store");
    assert_eq!(
        store.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&store.body)
    );
    let owner = store
        .header("x-bdc-shard")
        .expect("store carries owner id")
        .to_string();
    assert_eq!(
        owner,
        Ring::new(3, DEFAULT_VNODES, RING_SEED)
            .owner(artifact_slot(name, key))
            .to_string(),
        "peer routes must land on the ring owner"
    );

    // Fetch it back via the router: same owner, identical framed bytes.
    let fetch = conn
        .get(&format!("/v1/peer/artifact?name={name}&key={key:016x}"))
        .expect("peer fetch");
    assert_eq!(fetch.status, 200);
    assert_eq!(fetch.body, framed.as_bytes(), "framed round trip");
    assert_eq!(fetch.header("x-bdc-shard"), Some(owner.as_str()));

    // A missing artifact is a clean 404 through the same path.
    let miss = conn
        .get("/v1/peer/artifact?name=definitely-absent&key=00000000000000ff")
        .expect("peer miss");
    assert_eq!(miss.status, 404);

    // Bad addresses are rejected before touching any shard: the error is
    // rendered locally by the router, so it carries no shard id.
    let bad = conn
        .get("/v1/peer/artifact?name=../evil&key=zz")
        .expect("peer bad");
    assert_eq!(bad.status, 400);
    assert!(bad.header("x-bdc-shard").is_none());

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
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
fn idle_router_and_shard_shut_down_promptly() {
    // Router and shard share one blocking accept loop, woken at shutdown
    // by a connection to the listener's own address (loopback for an
    // unspecified bind). The wake is not a client, so the shard counts
    // only the router's health probe.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let shard = bdc_serve::start(ServeConfig {
            addr: bind.into(),
            shard: Some(0),
            ..ServeConfig::default()
        })
        .expect("bind shard");
        let router = start_router(RouterConfig {
            addr: bind.into(),
            shard_addrs: vec![format!("127.0.0.1:{}", shard.port())],
            ..RouterConfig::default()
        })
        .expect("bind router");
        let router_addr = format!("127.0.0.1:{}", router.port());
        let health = raw_get(&router_addr, "/healthz", "");
        assert!(health.starts_with(b"HTTP/1.1 200"), "{bind}");

        within(Duration::from_secs(2), move || router.shutdown());
        assert!(
            TcpStream::connect(&router_addr).is_err(),
            "{bind}: router listener survived shutdown"
        );
        let metrics = Arc::clone(shard.metrics());
        within(Duration::from_secs(2), move || shard.shutdown());
        assert_eq!(
            metrics.connections.load(Ordering::Relaxed),
            1,
            "{bind}: connections.accepted counts the router's probe, not the wake"
        );
    }
}

#[test]
fn an_idle_keep_alive_client_does_not_hold_up_shutdown() {
    // A client that sent one request and then keeps its connection open
    // without sending another leaves a worker blocked in a read; shutdown
    // must end that read instead of waiting out the read timeout.
    let shard = bdc_serve::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        shard: Some(0),
        ..ServeConfig::default()
    })
    .expect("bind shard");
    let shard_addr = format!("127.0.0.1:{}", shard.port());
    let router = start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: vec![shard_addr.clone()],
        ..RouterConfig::default()
    })
    .expect("bind router");
    let router_addr = format!("127.0.0.1:{}", router.port());
    let mut idle = Vec::new();
    for (addr, path) in [
        (&router_addr, "/v1/library?process=silicon"),
        (&shard_addr, "/healthz"),
    ] {
        let mut conn = Connection::open(addr).expect("connect");
        assert_eq!(conn.get(path).expect("first request").status, 200, "{addr}");
        idle.push(conn);
    }
    within(Duration::from_secs(2), move || router.shutdown());
    within(Duration::from_secs(2), move || shard.shutdown());
    drop(idle);
}
