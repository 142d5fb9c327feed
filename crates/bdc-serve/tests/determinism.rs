//! The serving layer's determinism contract (ISSUE acceptance criterion):
//! for a fixed query, the response body is **byte-identical** whether the
//! engine runs serial or with 8 workers, and whether the answer was
//! computed cold or replayed from a warm artifact/response cache.
//!
//! The worker-count override is process-global, so every test that touches
//! it serializes on one mutex and restores the default before releasing it
//! (the same pattern as `bdc-core/tests/determinism.rs`).

use std::sync::{Mutex, MutexGuard, OnceLock};

use bdc_core::process::shared_kit;
use bdc_core::registry::query::{self, Query};
use bdc_core::{CoreSpec, Process, TechKit};
use bdc_exec::set_workers;
use bdc_serve::api;
use bdc_serve::client::Connection;
use bdc_serve::ServeConfig;

/// Guards the global worker-count override; resets it on drop.
struct PoolLock {
    _guard: MutexGuard<'static, ()>,
}

impl PoolLock {
    fn acquire() -> PoolLock {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let m = LOCK.get_or_init(|| Mutex::new(()));
        PoolLock {
            _guard: m.lock().unwrap_or_else(|p| p.into_inner()),
        }
    }
}

impl Drop for PoolLock {
    fn drop(&mut self) {
        set_workers(None);
    }
}

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The query set pinned across worker counts: every computational
/// endpoint, silicon only (the organic library is expensive to
/// characterize and adds nothing to the byte-equality argument).
fn calls() -> Vec<Query> {
    use bdc_uarch::Workload;
    let spec = CoreSpec::baseline();
    vec![
        Query::Library {
            process: Process::Silicon,
        },
        Query::Synth {
            process: Process::Silicon,
            spec: spec.clone(),
        },
        Query::Width {
            process: Process::Silicon,
            fe: 2,
            be: 4,
        },
        Query::Ipc {
            spec,
            workload: Workload::Gzip,
            outer: 5,
            instructions: 4_000,
        },
    ]
}

#[test]
fn execute_is_byte_identical_across_worker_counts() {
    let _lock = PoolLock::acquire();
    let calls = calls();
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for w in WORKER_COUNTS {
        set_workers(Some(w));
        let bodies: Vec<Vec<u8>> = calls
            .iter()
            .map(|c| {
                let r = api::execute(c);
                assert_eq!(r.status, 200, "{c:?} with {w} workers");
                r.body
            })
            .collect();
        match &reference {
            None => reference = Some(bodies),
            Some(r) => assert_eq!(*r, bodies, "{w} workers diverged from serial"),
        }
    }
}

#[test]
fn cold_and_cache_loaded_kits_render_identical_bodies() {
    // A warm start loads the library from its Liberty-text artifact; the
    // response renderer must not be able to tell. Round-trip the in-memory
    // library through the exact representation the artifact cache stores
    // and compare whole response bodies.
    let kit = shared_kit(Process::Silicon);
    let reloaded = bdc_cells::parse_library(&bdc_cells::write_library(&kit.lib)).expect("parse");
    let kit2 = TechKit::with_library(Process::Silicon, reloaded);

    let a = query::library_json(kit).expect("library body").encode();
    let b = query::library_json(&kit2).expect("library body").encode();
    assert_eq!(a, b, "library body differs cold vs cache-loaded");

    let spec = CoreSpec::baseline();
    let a = query::synth_json(kit, &spec, &[]).encode();
    let b = query::synth_json(&kit2, &spec, &[]).encode();
    assert_eq!(a, b, "synth body differs cold vs cache-loaded");
}

#[test]
fn served_responses_are_byte_identical_cold_then_warm() {
    let _lock = PoolLock::acquire();
    set_workers(Some(8));
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let handle = bdc_serve::start(cfg).expect("bind");
    let addr = format!("127.0.0.1:{}", handle.port());
    let queries = [
        "/v1/library?process=silicon",
        "/v1/synth?process=silicon&fe_width=2&be_pipes=4",
        "/v1/ipc?workload=gzip&outer=5&instructions=4000",
    ];
    let mut conn = Connection::open(&addr).expect("connect");
    for q in queries {
        let cold = conn.get(q).expect("cold");
        assert_eq!(cold.status, 200, "{q}");
        // The repeat is served from the engine's response cache; a second
        // connection checks the transport doesn't perturb the bytes either.
        let warm = conn.get(q).expect("warm");
        let other = Connection::open(&addr)
            .expect("connect")
            .get(q)
            .expect("other-conn");
        assert_eq!(cold.body, warm.body, "{q}: warm repeat differs");
        assert_eq!(cold.body, other.body, "{q}: fresh connection differs");
    }
    assert!(
        handle
            .metrics()
            .cache_hits
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 3,
        "warm repeats should be response-cache hits"
    );
    handle.shutdown();
}
