//! Integration contract of the fault-injection framework against the
//! real plan scheduler (DESIGN.md §5h):
//!
//! * **Containment** — with `task_panic=1` every attempt of every node
//!   panics, yet the plan completes: each node becomes a `failed` row
//!   with its attempt count and panic message, the other survival
//!   counters move, and `run_plan_with_retries` still returns `Ok`.
//! * **Recovery** — a sub-certain rate plus the retry budget lets the
//!   deterministic re-rolls find a clean attempt, so the same node that
//!   fails at rate 1 renders at a lower rate.
//! * **Rate-0 identity** — an installed all-zero config renders byte
//!   output identical to a disarmed run.
//!
//! The fault configuration is process-global, so these tests serialize
//! on one mutex and disarm injection before releasing it.

use std::sync::{Mutex, MutexGuard, OnceLock};

use bdc_core::registry;
use bdc_exec::faults::{self, FaultConfig};

/// Guards the global fault install; disarms it on drop.
struct FaultLock {
    _guard: MutexGuard<'static, ()>,
}

impl FaultLock {
    fn acquire() -> FaultLock {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let m = LOCK.get_or_init(|| Mutex::new(()));
        FaultLock {
            _guard: m.lock().unwrap_or_else(|p| p.into_inner()),
        }
    }
}

impl Drop for FaultLock {
    fn drop(&mut self) {
        faults::install(None);
    }
}

fn config(task_panic: f64) -> FaultConfig {
    FaultConfig {
        task_panic,
        seed: 42,
        ..FaultConfig::default()
    }
}

#[test]
fn certain_panics_become_failed_rows_not_aborts() {
    let _lock = FaultLock::acquire();
    faults::install(Some(config(1.0)));
    let before = faults::counters();

    let report =
        registry::run_plan_with_retries(&["fig03"], true, 1).expect("plan itself must not abort");
    let node = &report.nodes[0];
    assert!(!node.ok(), "every attempt panics at rate 1");
    assert_eq!(node.attempts, 2, "initial attempt + 1 retry");
    assert!(node.text.is_empty(), "failed node renders no text");
    let err = node.error.as_deref().expect("failed row carries the panic");
    assert!(
        err.contains("injected fault"),
        "error must carry the panic message, got: {err}"
    );

    let delta = faults::counters().since(&before);
    assert!(delta.injected_panics >= 2, "both attempts injected");
    assert!(delta.panics_contained >= 2, "both panics were caught");
    assert_eq!(delta.retries, 1, "one retry was budgeted and taken");
}

#[test]
fn retries_recover_below_certainty() {
    let _lock = FaultLock::acquire();
    // At rate 0.3 with a generous budget, the per-attempt re-rolls are
    // deterministic in (seed, site, attempt) — and for this seed a clean
    // attempt exists well inside 8 retries (P(all 9 fire) = 0.3^9 even
    // before fixing the seed).
    faults::install(Some(config(0.3)));
    let report = registry::run_plan_with_retries(&["fig03"], true, 8).expect("plan runs");
    let node = &report.nodes[0];
    assert!(node.ok(), "a clean attempt exists: {:?}", node.error);
    assert!(!node.text.is_empty());
}

#[test]
fn installed_zero_rates_are_byte_identical_to_disarmed() {
    let _lock = FaultLock::acquire();

    faults::install(None);
    let disarmed = registry::run_plan(&["fig03"], true).expect("disarmed run");

    faults::install(Some(config(0.0)));
    let before = faults::counters();
    let inert = registry::run_plan(&["fig03"], true).expect("inert run");

    assert_eq!(
        disarmed.nodes[0].text, inert.nodes[0].text,
        "rate-0 injection must not perturb rendered bytes"
    );
    let delta = faults::counters().since(&before);
    assert_eq!(delta.injected_panics, 0);
    assert_eq!(delta.injected_corrupt, 0);
}
