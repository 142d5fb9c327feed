//! The `partition=` fault kind against a real in-process fleet: severed
//! proxy hops must be absorbed by router failover, so clients see no 5xx.
//! Lives in its own test binary because the fault configuration is
//! process-global.

use bdc_cluster::router::{start_router, RouterConfig};
use bdc_exec::faults::{self, FaultConfig};
use bdc_exec::json::{self, Json};
use bdc_serve::client::Connection;
use bdc_serve::ServeConfig;

#[test]
fn injected_partitions_are_absorbed_by_failover() {
    let shards: Vec<_> = (0..2)
        .map(|shard| {
            bdc_serve::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                shard: Some(shard),
                ..ServeConfig::default()
            })
            .expect("bind shard")
        })
        .collect();
    let router = start_router(RouterConfig {
        shard_addrs: shards
            .iter()
            .map(|h| format!("127.0.0.1:{}", h.port()))
            .collect(),
        ring_seed: 42,
        ..RouterConfig::default()
    })
    .expect("bind router");
    let addr = format!("127.0.0.1:{}", router.port());

    faults::install(Some(FaultConfig {
        partition: 0.5,
        seed: 42,
        ..FaultConfig::default()
    }));
    let before = faults::counters();
    for outer in 1..=8 {
        let path = format!("/v1/ipc?workload=gzip&outer={outer}&instructions=2000");
        let r = Connection::open(&addr)
            .expect("connect router")
            .get(&path)
            .expect("proxied get");
        assert_eq!(
            r.status,
            200,
            "{path}: {}",
            String::from_utf8_lossy(&r.body)
        );
    }
    let injected = faults::counters().since(&before).injected_partitions;
    faults::install(None);

    let metrics = Connection::open(&addr)
        .expect("connect router")
        .get("/v1/metrics")
        .expect("metrics");
    let metrics = json::parse(std::str::from_utf8(&metrics.body).unwrap()).unwrap();
    let failovers = metrics
        .get("router")
        .and_then(|r| r.get("failovers"))
        .and_then(Json::as_u64)
        .expect("failovers counter");
    assert!(injected > 0, "a 0.5 rate must sever some hops");
    assert_eq!(failovers, injected, "each severed hop fails over once");

    router.shutdown();
    for h in shards {
        h.shutdown();
    }
}
