//! Chaos survival report: the full flow under escalating fault rates.
//!
//! Installs a seeded [`bdc_exec::faults`] configuration in-process (no
//! `BDC_FAULTS` needed), then for each escalation level runs the whole
//! experiment plan at the quick budget *and* a serve-layer request burst
//! against an in-process daemon, recording what survived: nodes rendered
//! vs failed, client responses after retries, quarantine/rebuild and
//! panic-containment counters, and the daemon's health state after the
//! burst. Prints a survival table and writes it to
//! `results/chaos_report.json`.
//!
//! The zero-rate level doubles as the determinism gate: with every rate
//! at 0 the plan must complete all nodes first-try, the burst must see
//! only 200s, and every fault counter must stay flat — otherwise the
//! report exits 1, because the injection framework would be perturbing
//! the unfaulted flow.

use std::fmt::Write as _;

use bdc_core::registry::{self, NODES};
use bdc_exec::faults::{self, FaultConfig, FaultCounters};
use bdc_exec::json::{self, Json};
use bdc_serve::client;
use bdc_serve::ServeConfig;

/// Root seed every level derives its injection decisions from; fixed so
/// two runs of the report inject the same faults at the same sites.
const CHAOS_SEED: u64 = 42;

/// Retry budget given to the plan scheduler at every level.
const PLAN_MAX_RETRIES: u32 = 3;

/// Client-side retry budget for each burst request.
const CLIENT_RETRIES: u32 = 3;

/// The request mix each burst drives through the daemon (three passes).
const BURST_QUERIES: [&str; 6] = [
    "/v1/library?process=organic",
    "/v1/library?process=silicon",
    "/v1/synth?process=silicon",
    "/v1/width?process=silicon&fe=2&be=4",
    "/v1/ipc?workload=dhrystone&outer=5&instructions=4000",
    "/v1/ipc?workload=gzip&outer=5&instructions=4000",
];
const BURST_PASSES: usize = 3;

/// One escalation level of the chaos ladder.
struct Level {
    label: &'static str,
    cfg: FaultConfig,
}

/// What one level's plan + burst survived.
struct Survival {
    label: &'static str,
    spec: String,
    nodes_total: usize,
    nodes_ok: usize,
    serve_requests: usize,
    serve_ok: usize,
    serve_failed: usize,
    health: String,
    cluster_requests: usize,
    cluster_ok: usize,
    cluster_failed: usize,
    cluster_health: String,
    faults: FaultCounters,
}

fn levels() -> Vec<Level> {
    let mk = |label, cache_corrupt, task_panic, disk_full, partition| Level {
        label,
        cfg: FaultConfig {
            cache_corrupt,
            task_panic,
            disk_full,
            partition,
            seed: CHAOS_SEED,
        },
    };
    vec![
        mk("none", 0.0, 0.0, 0.0, 0.0),
        mk("light", 0.05, 0.02, 0.02, 0.01),
        mk("moderate", 0.2, 0.1, 0.1, 0.05),
        mk("heavy", 0.5, 0.25, 0.25, 0.1),
    ]
}

/// Boots the daemon, drives the burst with client-side retries, reads
/// `/healthz`, and shuts down cleanly. Returns
/// `(requests, ok, failed_after_retry, health)`.
fn serve_burst() -> (usize, usize, usize, String) {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let handle = match bdc_serve::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("chaos_report: serve burst skipped: bind failed: {e}");
            return (0, 0, 0, "unavailable".into());
        }
    };
    let addr = format!("127.0.0.1:{}", handle.port());
    let (mut ok, mut failed) = (0usize, 0usize);
    for _ in 0..BURST_PASSES {
        for q in BURST_QUERIES {
            match client::get_with_retry(&addr, q, CLIENT_RETRIES) {
                Ok(r) if r.status == 200 => ok += 1,
                Ok(r) => {
                    eprintln!("chaos_report: {q} -> {} after retries", r.status);
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("chaos_report: {q} failed after retries: {e}");
                    failed += 1;
                }
            }
        }
    }
    // Health after the burst: `degraded` is expected while injection is
    // live; the status string goes into the survival row as-is.
    let health = match client::get_once(&addr, "/healthz") {
        Ok(r) => json::parse(&String::from_utf8_lossy(&r.body))
            .ok()
            .and_then(|j| j.get("status").and_then(|s| s.as_str().map(String::from)))
            .unwrap_or_else(|| format!("http {}", r.status)),
        Err(e) => format!("unreachable: {e}"),
    };
    handle.shutdown();
    (ok + failed, ok, failed, health)
}

/// The cluster burst: a 2-shard in-process fleet behind the router, the
/// same request mix via the router — with one shard killed halfway
/// through the burst. The fault injection level applies to the shard
/// engines (same process), so this measures survival under simultaneous
/// data faults and a topology fault. Returns
/// `(requests, ok, failed_after_retry, router_health_after)`.
fn cluster_burst() -> (usize, usize, usize, String) {
    use bdc_cluster::router::{start_router, RouterConfig};

    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..2 {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            shard: Some(shard),
            ..ServeConfig::default()
        };
        match bdc_serve::start(cfg) {
            Ok(h) => {
                addrs.push(format!("127.0.0.1:{}", h.port()));
                handles.push(h);
            }
            Err(e) => {
                eprintln!("chaos_report: cluster burst skipped: bind failed: {e}");
                for h in handles {
                    h.shutdown();
                }
                return (0, 0, 0, "unavailable".into());
            }
        }
    }
    let router = match start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: addrs,
        ring_seed: CHAOS_SEED,
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos_report: cluster burst skipped: router bind failed: {e}");
            for h in handles {
                h.shutdown();
            }
            return (0, 0, 0, "unavailable".into());
        }
    };
    let addr = format!("127.0.0.1:{}", router.port());

    let total = BURST_PASSES * BURST_QUERIES.len();
    let kill_at = total / 2;
    let (mut ok, mut failed, mut issued) = (0usize, 0usize, 0usize);
    for _ in 0..BURST_PASSES {
        for q in BURST_QUERIES {
            if issued == kill_at {
                // Topology fault: one shard dies mid-burst. The router
                // must fail its keys over to the survivor invisibly.
                handles.remove(0).shutdown();
            }
            issued += 1;
            match client::get_with_retry(&addr, q, CLIENT_RETRIES) {
                Ok(r) if r.status == 200 => ok += 1,
                Ok(r) => {
                    eprintln!("chaos_report: cluster {q} -> {} after retries", r.status);
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("chaos_report: cluster {q} failed after retries: {e}");
                    failed += 1;
                }
            }
        }
    }
    let health = match client::get_once(&addr, "/healthz") {
        Ok(r) => json::parse(&String::from_utf8_lossy(&r.body))
            .ok()
            .and_then(|j| j.get("status").and_then(|s| s.as_str().map(String::from)))
            .unwrap_or_else(|| format!("http {}", r.status)),
        Err(e) => format!("unreachable: {e}"),
    };
    router.shutdown();
    for h in handles {
        h.shutdown();
    }
    (ok + failed, ok, failed, health)
}

fn run_level(level: &Level) -> Survival {
    faults::install(Some(level.cfg.clone()));
    let before = faults::counters();

    let ids: Vec<&str> = NODES.iter().map(|n| n.id).collect();
    let (nodes_total, nodes_ok) =
        match registry::run_plan_with_retries(&ids, true, PLAN_MAX_RETRIES) {
            Ok(report) => {
                for node in report.failed() {
                    eprintln!(
                        "chaos_report: [{}] node {} failed after {} attempts: {}",
                        level.label,
                        node.id,
                        node.attempts,
                        node.error.as_deref().unwrap_or("?")
                    );
                }
                let ok = report.nodes.iter().filter(|n| n.ok()).count();
                (report.nodes.len(), ok)
            }
            Err(e) => {
                eprintln!("chaos_report: [{}] plan rejected: {e}", level.label);
                (ids.len(), 0)
            }
        };

    let (serve_requests, serve_ok, serve_failed, health) = serve_burst();
    let (cluster_requests, cluster_ok, cluster_failed, cluster_health) = cluster_burst();

    Survival {
        label: level.label,
        spec: level.cfg.to_spec(),
        nodes_total,
        nodes_ok,
        serve_requests,
        serve_ok,
        serve_failed,
        health,
        cluster_requests,
        cluster_ok,
        cluster_failed,
        cluster_health,
        faults: faults::counters().since(&before),
    }
}

/// The zero-rate level must be indistinguishable from an unfaulted run:
/// nothing injected, nothing panicking, every node and request served.
/// Quarantine/rebuild counts are deliberately NOT gated — a store holding
/// artifacts from an older framing version heals them on first read, and
/// that migration is correct behavior, not injection leakage.
fn inert_level_is_clean(s: &Survival) -> bool {
    let f = &s.faults;
    let flat = f.injected_corrupt == 0
        && f.injected_panics == 0
        && f.panics_contained == 0
        && f.injected_disk_full == 0
        && f.injected_partitions == 0;
    // The cluster burst kills a shard even at the inert level, so its
    // health is `degraded` by design — but failover must make the kill
    // invisible to clients: zero failed-after-retry.
    s.nodes_ok == s.nodes_total
        && s.serve_failed == 0
        && s.health == "ok"
        && s.cluster_failed == 0
        && flat
}

fn survival_json(rows: &[Survival]) -> Json {
    Json::Obj(vec![
        ("seed".into(), Json::Int(CHAOS_SEED as i64)),
        (
            "plan_max_retries".into(),
            Json::Int(i64::from(PLAN_MAX_RETRIES)),
        ),
        (
            "client_retries".into(),
            Json::Int(i64::from(CLIENT_RETRIES)),
        ),
        (
            "levels".into(),
            Json::Arr(
                rows.iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("level".into(), Json::str(s.label)),
                            ("spec".into(), Json::str(&*s.spec)),
                            ("nodes_total".into(), Json::Int(s.nodes_total as i64)),
                            ("nodes_ok".into(), Json::Int(s.nodes_ok as i64)),
                            ("serve_requests".into(), Json::Int(s.serve_requests as i64)),
                            ("serve_ok".into(), Json::Int(s.serve_ok as i64)),
                            (
                                "serve_failed_after_retry".into(),
                                Json::Int(s.serve_failed as i64),
                            ),
                            ("health_after_burst".into(), Json::str(&*s.health)),
                            (
                                "cluster_requests".into(),
                                Json::Int(s.cluster_requests as i64),
                            ),
                            ("cluster_ok".into(), Json::Int(s.cluster_ok as i64)),
                            (
                                "cluster_failed_after_retry".into(),
                                Json::Int(s.cluster_failed as i64),
                            ),
                            (
                                "cluster_health_after_kill".into(),
                                Json::str(&*s.cluster_health),
                            ),
                            ("faults".into(), registry::fault_counters_json(&s.faults)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes the survival table to `results/chaos_report.json`.
fn write_report_json(report: &Json) {
    let path = "results/chaos_report.json";
    let written = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(path, report.encode() + "\n"));
    match written {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("chaos_report: could not write {path}: {e}"),
    }
}

fn main() {
    if let Err(e) = bdc_exec::env_config() {
        eprintln!("chaos_report: {e}");
        std::process::exit(2);
    }
    bdc_bench::header(
        "chaos",
        "plan + serve survival under escalating fault rates",
    );
    println!(
        "   seed {CHAOS_SEED}, plan retries {PLAN_MAX_RETRIES}, client retries {CLIENT_RETRIES}\n"
    );

    let mut rows = Vec::new();
    for level in levels() {
        println!("-- level {}: {}", level.label, level.cfg.to_spec());
        rows.push(run_level(&level));
    }
    faults::install(None);

    let mut table = String::new();
    let _ = writeln!(
        table,
        "\n{:<10} {:>8} {:>9} {:>8} {:>10} {:>8} {:>10} {:>7} {:>10} {:>8} {:>9}",
        "level",
        "nodes",
        "serve ok",
        "5xx/err",
        "cluster ok",
        "cl. err",
        "contained",
        "retry",
        "quarantine",
        "rebuilt",
        "health"
    );
    for s in &rows {
        let _ = writeln!(
            table,
            "{:<10} {:>8} {:>9} {:>8} {:>10} {:>8} {:>10} {:>7} {:>10} {:>8} {:>9}",
            s.label,
            format!("{}/{}", s.nodes_ok, s.nodes_total),
            format!("{}/{}", s.serve_ok, s.serve_requests),
            s.serve_failed,
            format!("{}/{}", s.cluster_ok, s.cluster_requests),
            s.cluster_failed,
            s.faults.panics_contained,
            s.faults.retries,
            s.faults.quarantined,
            s.faults.rebuilt,
            s.health
        );
    }
    print!("{table}");

    write_report_json(&survival_json(&rows));

    match rows.iter().find(|s| s.label == "none") {
        Some(inert) if inert_level_is_clean(inert) => {
            println!("chaos_report: zero-rate level clean (determinism gate holds)");
        }
        Some(_) => {
            eprintln!(
                "chaos_report: FAIL — zero-rate level saw failures or counter \
                 movement; injection is not inert"
            );
            std::process::exit(1);
        }
        None => unreachable!("levels() always includes the inert level"),
    }
}
