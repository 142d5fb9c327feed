//! Flow-stage timing report: serial vs parallel, cold vs warm cache.
//!
//! Times each expensive stage of the Figure-10 flow under controlled
//! worker counts and cache states, prints a table, and writes
//! `BENCH_flow.json` (repo root, machine-readable — CI uploads it and
//! gates on the warm-cache library load) plus `results/bench_report.txt`.
//!
//! Methodology notes:
//! * "cold" rows bypass the artifact cache entirely
//!   ([`TechKit::build`] / `synthesize_core`); "warm" rows go through the
//!   cached entry points after priming them, so they measure a cache hit.
//! * serial rows pin the pool to one worker with
//!   [`bdc_exec::set_workers`]; parallel rows use every available core.
//!   On a single-core machine the two coincide — the report records the
//!   worker counts actually used rather than assuming a speedup.

use std::fmt::Write as _;
use std::time::Instant;

use bdc_core::experiments::{width_ipc_matrix, SimBudget};
use bdc_core::{synthesize_core, synthesize_core_cached, CoreSpec, Process, TechKit};
use bdc_device::variation::{VariedModel, VtVariation};
use bdc_device::TftParams;
use bdc_serve::client::Connection;
use bdc_serve::{ServeConfig, ServerHandle};

/// One timed measurement.
struct Row {
    stage: &'static str,
    detail: String,
    workers: usize,
    /// Batch-lane count in effect for the measurement (1 = scalar kernel).
    lanes: usize,
    cache: &'static str,
    seconds: f64,
}

/// Scalar-vs-batched summary for one library's cold characterization.
struct Speedup {
    process: &'static str,
    scalar_s: f64,
    batched_s: f64,
    lanes: usize,
}

/// Incremental-sweep summary: one measured grid plus its 21-point
/// projection against independent cold runs.
struct SweepBench {
    /// Grid points actually executed.
    points: usize,
    /// Wall time of the cold first point (every stage computes).
    cold_s: f64,
    /// Effective wall time per incremental point:
    /// `(elapsed - cold) / (points - 1)`, so concurrent points divide
    /// correctly instead of summing their overlapping spans.
    incr_s: f64,
    /// Stage-cache hit rate across the incremental points.
    hit_rate: f64,
    /// Cross-point stage-key collisions (must be zero).
    collisions: usize,
    /// Projected wall for a 21-point sweep: `cold + 20 * incr`.
    sweep21_s: f64,
    /// Projected wall for 21 independent cold runs: `21 * cold`.
    cold21_s: f64,
}

/// Runs a 5-point organic V_T sweep (standard budget) in a throwaway
/// cache directory. Point 0 is a genuine cold plan run; each later point
/// recomputes only the organic invalidation cone. The 21-point
/// projection is the acceptance comparison for `bdc sweep`: one sweep vs
/// 21 independent cold runs of the same plan.
fn sweep_section() -> Option<SweepBench> {
    use bdc_core::sweep::{run_sweep, stage_key_collisions, SweepSpec};
    let dir = std::env::temp_dir().join(format!("bdc-bench-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let prev = std::env::var_os("BDC_CACHE_DIR");
    std::env::set_var("BDC_CACHE_DIR", &dir);
    let spec = SweepSpec::parse("organic.vt=-1.5:-1.1:5").expect("bench sweep spec");
    let ids: Vec<&str> = bdc_core::registry::NODES.iter().map(|n| n.id).collect();
    let outcome = run_sweep(&spec, &ids, false);
    match prev {
        Some(v) => std::env::set_var("BDC_CACHE_DIR", v),
        None => std::env::remove_var("BDC_CACHE_DIR"),
    }
    let _ = std::fs::remove_dir_all(&dir);
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep section skipped: {e}");
            return None;
        }
    };
    let points = report.points.len();
    let cold_s = report.points[0].wall_s;
    let incr_s = (report.elapsed_s - cold_s).max(0.0) / (points - 1) as f64;
    let (mut hits, mut misses) = (0u64, 0u64);
    for p in report.points.iter().skip(1) {
        let (h, m) = p.totals();
        hits += h;
        misses += m;
    }
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    Some(SweepBench {
        points,
        cold_s,
        incr_s,
        hit_rate,
        collisions: stage_key_collisions(&report),
        sweep21_s: cold_s + 20.0 * incr_s,
        cold21_s: 21.0 * cold_s,
    })
}

/// One serve-layer measurement: a request mix driven through the full
/// HTTP stack against an in-process daemon.
struct ServeStat {
    cache: &'static str,
    requests: u64,
    rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn quantile_ms(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx] as f64 / 1000.0
}

/// Boots the daemon on an ephemeral port, measures the cold pass (every
/// query computes through the engine) and a warm pass (every query is a
/// response-cache hit), and shuts the server down cleanly.
fn serve_section() -> Vec<ServeStat> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let handle: ServerHandle = match bdc_serve::start(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("serve section skipped: bind failed: {e}");
            return Vec::new();
        }
    };
    let addr = format!("127.0.0.1:{}", handle.port());
    let queries = [
        "/v1/library?process=organic",
        "/v1/library?process=silicon",
        "/v1/synth?process=silicon",
        "/v1/width?process=silicon&fe=2&be=4",
        "/v1/ipc?workload=dhrystone&outer=5&instructions=4000",
        "/v1/ipc?workload=gzip&outer=5&instructions=4000",
    ];
    let mut stats = Vec::new();
    let mut conn = match Connection::open(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve section skipped: connect failed: {e}");
            handle.shutdown();
            return Vec::new();
        }
    };
    // Cold: first issue of each distinct query computes in the engine.
    // Warm: every repeat is answered from the engine's response cache.
    for (cache, passes) in [("cold", 1usize), ("warm", 50)] {
        let mut lat_us: Vec<u64> = Vec::new();
        let t0 = Instant::now();
        for _ in 0..passes {
            for q in queries {
                let t = Instant::now();
                match conn.get(q) {
                    Ok(r) if r.status == 200 => {
                        lat_us.push(t.elapsed().as_micros() as u64);
                    }
                    Ok(r) => eprintln!("serve section: {q} returned {}", r.status),
                    Err(e) => eprintln!("serve section: {q} failed: {e}"),
                }
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        lat_us.sort_unstable();
        stats.push(ServeStat {
            cache,
            requests: lat_us.len() as u64,
            rps: if elapsed > 0.0 {
                lat_us.len() as f64 / elapsed
            } else {
                0.0
            },
            p50_ms: quantile_ms(&lat_us, 0.50),
            p95_ms: quantile_ms(&lat_us, 0.95),
            p99_ms: quantile_ms(&lat_us, 0.99),
        });
    }
    handle.shutdown();
    stats
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// One cluster measurement: the same warm query stream via a shard
/// directly and via the router, isolating the proxy hop's cost.
struct ClusterStat {
    path: &'static str,
    requests: u64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Boots a 3-shard in-process fleet behind the router and measures the
/// router's proxy overhead (warm query direct vs proxied) and the peer
/// artifact path (framed fetch wall vs full recharacterization wall).
fn cluster_section() -> (Vec<ClusterStat>, Option<(f64, f64)>) {
    use bdc_cluster::router::{start_router, RouterConfig};

    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for shard in 0..3 {
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
                eprintln!("cluster section skipped: shard bind failed: {e}");
                for h in handles {
                    h.shutdown();
                }
                return (Vec::new(), None);
            }
        }
    }
    let router = match start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        shard_addrs: addrs.clone(),
        ring_seed: 42,
        ..RouterConfig::default()
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cluster section skipped: router bind failed: {e}");
            for h in handles {
                h.shutdown();
            }
            return (Vec::new(), None);
        }
    };
    let router_addr = format!("127.0.0.1:{}", router.port());

    // Warm overhead: the identical cached query, 100 times direct to a
    // shard vs 100 times through the router. The difference is one proxy
    // hop (connect + parse + forward).
    let query = "/v1/ipc?workload=gzip&outer=5&instructions=4000";
    let mut stats = Vec::new();
    for (path, addr) in [("direct-warm", &addrs[0]), ("router-warm", &router_addr)] {
        let mut lat_us = Vec::new();
        if let Ok(mut conn) = Connection::open(addr) {
            let _ = conn.get(query); // warm this target's response cache
            for _ in 0..100 {
                let t = Instant::now();
                if matches!(conn.get(query), Ok(r) if r.status == 200) {
                    lat_us.push(t.elapsed().as_micros() as u64);
                }
            }
        }
        lat_us.sort_unstable();
        stats.push(ClusterStat {
            path,
            requests: lat_us.len() as u64,
            p50_ms: quantile_ms(&lat_us, 0.50),
            p99_ms: quantile_ms(&lat_us, 0.99),
        });
    }

    // Peer-fetch vs recompute: fetching the framed library artifact from
    // its ring owner vs characterizing the library from scratch — the
    // wall-time argument for cross-filling caches instead of recomputing.
    let (name, key) = bdc_core::library_artifact(bdc_core::Process::Silicon);
    let peer = Connection::open(&router_addr).ok().and_then(|mut conn| {
        // Ensure the artifact exists: computing the library on any shard
        // stores it in the artifact cache the peer endpoint reads.
        let _ = conn.get("/v1/library?process=silicon");
        let peer_path = format!("/v1/peer/artifact?name={name}&key={key:016x}");
        let t = Instant::now();
        match conn.get(&peer_path) {
            Ok(r) if r.status == 200 => Some(t.elapsed().as_secs_f64() * 1000.0),
            _ => None,
        }
    });
    let pair = peer.map(|peer_ms| {
        let (_, rebuild_s) = time(|| bdc_core::TechKit::build(bdc_core::Process::Silicon));
        (peer_ms, rebuild_s * 1000.0)
    });

    router.shutdown();
    for h in handles {
        h.shutdown();
    }
    (stats, pair)
}

fn main() {
    if let Err(e) = bdc_exec::env_config() {
        eprintln!("bench_report: {e}");
        std::process::exit(2);
    }
    bdc_bench::header("bench", "flow-stage timings (serial/parallel, cold/warm)");
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ambient_lanes = bdc_exec::batch_lanes();
    // Worker sweeps: on a 1-core runner the "parallel" point IS the serial
    // point, so emit it once and label rows with the effective count
    // instead of claiming a speedup that was never measured.
    let mut worker_points: Vec<(usize, &str)> = vec![(1, "serial")];
    if avail > 1 {
        worker_points.push((avail, "parallel"));
    }
    let mut rows: Vec<Row> = Vec::new();

    // --- Library characterization: the slew x load grid fans out per cell
    // (workers) and packs into SoA lanes (batched kernel). Both kernels run
    // cold at one worker so the speedup row isolates the lane win; the
    // scalar row is pinned via the lane override, the batched rows use the
    // environment's resolution (so BDC_BATCH_LANES=1 makes them coincide).
    // Batched rows come first: the scalar run's per-attempt solver churn
    // leaves the allocator fragmented, which taxes the batched kernel's
    // large SoA buffers by ~25% if it runs second — each row is a cold
    // build either way, so the order only removes cross-kernel bleed.
    let mut speedups: Vec<Speedup> = Vec::new();
    for p in Process::both() {
        bdc_exec::set_workers(Some(1));
        bdc_exec::set_batch_lanes(None);
        let lanes = bdc_exec::batch_lanes();
        let (_, batched_s) = time(|| TechKit::build(p).expect("characterization"));
        rows.push(Row {
            stage: "characterize_library",
            detail: format!("{} batched", p.name()),
            workers: 1,
            lanes,
            cache: "cold",
            seconds: batched_s,
        });
        bdc_exec::set_workers(Some(avail));
        let (_, s) = time(|| TechKit::build(p).expect("characterization"));
        rows.push(Row {
            stage: "characterize_library",
            detail: format!("{} batched", p.name()),
            workers: avail,
            lanes,
            cache: "cold",
            seconds: s,
        });
        bdc_exec::set_workers(Some(1));
        bdc_exec::set_batch_lanes(Some(1));
        let (_, scalar_s) = time(|| TechKit::build(p).expect("characterization"));
        rows.push(Row {
            stage: "characterize_library",
            detail: format!("{} scalar", p.name()),
            workers: 1,
            lanes: 1,
            cache: "cold",
            seconds: scalar_s,
        });
        speedups.push(Speedup {
            process: p.name(),
            scalar_s,
            batched_s,
            lanes,
        });
        bdc_exec::set_batch_lanes(None);
        bdc_exec::set_workers(Some(avail));
        // Prime, then measure the warm load (Liberty parse, no simulation).
        let _ = TechKit::load_or_build(p).expect("prime");
        let (_, s) = time(|| TechKit::load_or_build(p).expect("cached"));
        rows.push(Row {
            stage: "load_library",
            detail: p.name().into(),
            workers: avail,
            lanes,
            cache: "warm",
            seconds: s,
        });
    }

    // --- Core synthesis: baseline spec, cold vs warm.
    for p in Process::both() {
        let kit = TechKit::load_or_build(p).expect("characterization");
        let spec = CoreSpec::baseline();
        let (_, s) = time(|| synthesize_core(&kit, &spec));
        rows.push(Row {
            stage: "synthesize_core",
            detail: format!("{} baseline", p.name()),
            workers: 1,
            lanes: ambient_lanes,
            cache: "cold",
            seconds: s,
        });
        let _ = synthesize_core_cached(&kit, &spec);
        let (_, s) = time(|| synthesize_core_cached(&kit, &spec));
        rows.push(Row {
            stage: "synthesize_core",
            detail: format!("{} baseline", p.name()),
            workers: 1,
            lanes: ambient_lanes,
            cache: "warm",
            seconds: s,
        });
    }

    // --- OoO simulation fan-out: a 2x2 width sub-matrix, quick budget.
    for &(w, label) in &worker_points {
        bdc_exec::set_workers(Some(w));
        let (_, s) = time(|| width_ipc_matrix(&[1, 2], &[3, 4], SimBudget::quick()));
        rows.push(Row {
            stage: "width_ipc_matrix",
            detail: format!("2x2 quick, {label} x{w}"),
            workers: w,
            lanes: ambient_lanes,
            cache: "none",
            seconds: s,
        });
    }

    // --- Monte-Carlo V_T sampling.
    let base = TftParams::pentacene();
    let (_, s) = time(|| {
        let mut v = VtVariation::paper_spread(base.clone(), 7);
        VariedModel::sample_population(&mut v, 2000)
    });
    rows.push(Row {
        stage: "monte_carlo_vt",
        detail: "2000 draws, sequential stream".into(),
        workers: 1,
        lanes: ambient_lanes,
        cache: "none",
        seconds: s,
    });
    for &(w, label) in &worker_points {
        bdc_exec::set_workers(Some(w));
        let (_, s) = time(|| VariedModel::sample_population_par(&base, 0.5 / 3.0, 7, 2000));
        rows.push(Row {
            stage: "monte_carlo_vt",
            detail: format!("2000 draws, per-index seeds, {label} x{w}"),
            workers: w,
            lanes: ambient_lanes,
            cache: "none",
            seconds: s,
        });
    }
    bdc_exec::set_workers(None);

    // --- Experiment registry: every catalogued node at the quick budget,
    // scheduled through the plan runner (fan-out + artifact cache). One
    // row per node so regressions localize.
    let ids: Vec<&str> = bdc_core::registry::NODES.iter().map(|n| n.id).collect();
    match bdc_core::registry::run_plan(&ids, true) {
        Ok(report) => {
            for node in &report.nodes {
                rows.push(Row {
                    stage: "experiment_node",
                    detail: format!("{} --quick", node.id),
                    workers: report.workers,
                    lanes: ambient_lanes,
                    cache: if node.cache_hit { "warm" } else { "cold" },
                    seconds: node.wall_s,
                });
            }
        }
        Err(e) => eprintln!("registry section skipped: {e}"),
    }

    // --- Incremental sweep: cold first point vs per-point recompute of
    // the organic invalidation cone, projected to the 21-point grid.
    bdc_exec::set_workers(None);
    let sweep = sweep_section();
    if let Some(s) = &sweep {
        rows.push(Row {
            stage: "sweep_point",
            detail: "organic.vt grid, cold first point".into(),
            workers: avail,
            lanes: ambient_lanes,
            cache: "cold",
            seconds: s.cold_s,
        });
        rows.push(Row {
            stage: "sweep_point",
            detail: "organic.vt grid, incremental point".into(),
            workers: avail,
            lanes: ambient_lanes,
            cache: "warm",
            seconds: s.incr_s,
        });
    }

    // --- Serving layer: the same queries through the full HTTP stack,
    // cold (engine compute) vs warm (response-cache hit).
    let serve = serve_section();

    // --- Cluster layer: proxy overhead and peer-fetch vs recompute.
    let (cluster, peer_pair) = cluster_section();

    // --- Render.
    let mut txt = String::new();
    let _ = writeln!(
        txt,
        "flow-stage timings ({avail} core(s) available)\n\n{:<22} {:<34} {:>7} {:>5} {:>6} {:>10}",
        "stage", "detail", "workers", "lanes", "cache", "seconds"
    );
    for r in &rows {
        let _ = writeln!(
            txt,
            "{:<22} {:<34} {:>7} {:>5} {:>6} {:>10.4}",
            r.stage, r.detail, r.workers, r.lanes, r.cache, r.seconds
        );
    }
    if !speedups.is_empty() {
        let _ = writeln!(
            txt,
            "\ncold characterization, scalar vs batched kernel (1 worker)\n\n{:<10} {:>10} {:>10} {:>6} {:>8}",
            "process", "scalar s", "batched s", "lanes", "speedup"
        );
        for s in &speedups {
            let _ = writeln!(
                txt,
                "{:<10} {:>10.4} {:>10.4} {:>6} {:>7.2}x",
                s.process,
                s.scalar_s,
                s.batched_s,
                s.lanes,
                s.scalar_s / s.batched_s
            );
        }
    }
    if let Some(s) = &sweep {
        let _ = writeln!(
            txt,
            "\nincremental sweep (organic.vt, {} measured points, standard budget)\n\n\
             cold point {:.3} s, incremental point {:.3} s, stage hit rate {:.3}, \
             key collisions {}\n\
             21-point projection: sweep {:.1} s vs 21 cold runs {:.1} s ({:.1}x less wall)",
            s.points,
            s.cold_s,
            s.incr_s,
            s.hit_rate,
            s.collisions,
            s.sweep21_s,
            s.cold21_s,
            s.cold21_s / s.sweep21_s.max(1e-9)
        );
    }
    if !serve.is_empty() {
        let _ = writeln!(
            txt,
            "\nserve layer (in-process daemon, 6-query mix)\n\n{:<6} {:>9} {:>10} {:>9} {:>9} {:>9}",
            "cache", "requests", "req/s", "p50 ms", "p95 ms", "p99 ms"
        );
        for s in &serve {
            let _ = writeln!(
                txt,
                "{:<6} {:>9} {:>10.1} {:>9.3} {:>9.3} {:>9.3}",
                s.cache, s.requests, s.rps, s.p50_ms, s.p95_ms, s.p99_ms
            );
        }
    }
    if !cluster.is_empty() {
        let _ = writeln!(
            txt,
            "\ncluster layer (3 in-process shards behind the router)\n\n{:<12} {:>9} {:>9} {:>9}",
            "path", "requests", "p50 ms", "p99 ms"
        );
        for c in &cluster {
            let _ = writeln!(
                txt,
                "{:<12} {:>9} {:>9.3} {:>9.3}",
                c.path, c.requests, c.p50_ms, c.p99_ms
            );
        }
        if let Some((peer_ms, rebuild_ms)) = peer_pair {
            let _ = writeln!(
                txt,
                "\npeer artifact fetch {peer_ms:.3} ms vs recharacterize {rebuild_ms:.3} ms \
                 ({:.1}x cheaper)",
                rebuild_ms / peer_ms.max(0.001)
            );
        }
    }
    print!("{txt}");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"bench_report\",");
    let _ = writeln!(json, "  \"workers_available\": {avail},");
    let _ = writeln!(json, "  \"serve\": [");
    for (i, s) in serve.iter().enumerate() {
        let comma = if i + 1 < serve.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"cache\": \"{}\", \"requests\": {}, \"rps\": {:.2}, \
             \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}{comma}",
            s.cache, s.requests, s.rps, s.p50_ms, s.p95_ms, s.p99_ms
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"cluster\": {{");
    let _ = writeln!(json, "    \"paths\": [");
    for (i, c) in cluster.iter().enumerate() {
        let comma = if i + 1 < cluster.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"path\": \"{}\", \"requests\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{comma}",
            c.path, c.requests, c.p50_ms, c.p99_ms
        );
    }
    let _ = writeln!(json, "    ],");
    match peer_pair {
        Some((peer_ms, rebuild_ms)) => {
            let _ = writeln!(
                json,
                "    \"peer_fetch_ms\": {peer_ms:.3}, \"recompute_ms\": {rebuild_ms:.3}"
            );
        }
        None => {
            let _ = writeln!(json, "    \"peer_fetch_ms\": null, \"recompute_ms\": null");
        }
    }
    let _ = writeln!(json, "  }},");
    match &sweep {
        Some(s) => {
            let _ = writeln!(
                json,
                "  \"sweep\": {{\"param\": \"organic.vt\", \"points_measured\": {}, \
                 \"cold_point_s\": {:.6}, \"incremental_point_s\": {:.6}, \
                 \"incremental_hit_rate\": {:.4}, \"stage_key_collisions\": {}, \
                 \"sweep_21pt_s\": {:.3}, \"cold_runs_21_s\": {:.3}, \
                 \"reuse_speedup_21pt\": {:.2}}},",
                s.points,
                s.cold_s,
                s.incr_s,
                s.hit_rate,
                s.collisions,
                s.sweep21_s,
                s.cold21_s,
                s.cold21_s / s.sweep21_s.max(1e-9)
            );
        }
        None => {
            let _ = writeln!(json, "  \"sweep\": null,");
        }
    }
    let _ = writeln!(json, "  \"characterize_speedup\": [");
    for (i, s) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"process\": \"{}\", \"scalar_s\": {:.6}, \"batched_s\": {:.6}, \
             \"lanes\": {}, \"speedup\": {:.3}}}{comma}",
            s.process,
            s.scalar_s,
            s.batched_s,
            s.lanes,
            s.scalar_s / s.batched_s
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"stage\": \"{}\", \"detail\": \"{}\", \"workers\": {}, \"lanes\": {}, \"cache\": \"{}\", \"seconds\": {:.6}}}{comma}",
            r.stage, r.detail, r.workers, r.lanes, r.cache, r.seconds
        );
    }
    let _ = writeln!(json, "  ]\n}}");
    match std::fs::write("BENCH_flow.json", &json) {
        Ok(()) => println!("\nwrote BENCH_flow.json"),
        Err(e) => eprintln!("could not write BENCH_flow.json: {e}"),
    }
    if std::fs::create_dir_all("results").is_ok() {
        match std::fs::write("results/bench_report.txt", &txt) {
            Ok(()) => println!("wrote results/bench_report.txt"),
            Err(e) => eprintln!("could not write results/bench_report.txt: {e}"),
        }
    }
}
