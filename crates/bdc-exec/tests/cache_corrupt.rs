//! Integration contract of the `cache_corrupt=` fault kind against the
//! real artifact cache: a read handed corrupted bytes is quarantined and
//! reported as a miss, and the next store heals the address. Lives in its
//! own test binary because the fault configuration is process-global.

use bdc_exec::faults::{self, FaultConfig};
use bdc_exec::ArtifactCache;

#[test]
fn injected_corruption_quarantines_then_the_store_heals() {
    let dir = std::env::temp_dir().join(format!("bdc-exec-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let c = ArtifactCache::new(&dir);
    assert!(c.store("lib", 7, "payload"));
    faults::install(Some(FaultConfig {
        cache_corrupt: 1.0,
        seed: 42,
        ..FaultConfig::default()
    }));
    let before = faults::counters();
    assert_eq!(c.load("lib", 7), None, "a corrupted read must miss");
    faults::install(None);
    let delta = faults::counters().since(&before);
    assert_eq!(delta.injected_corrupt, 1);
    assert_eq!(delta.quarantined, 1);
    assert!(c.quarantine_dir().join("lib-0000000000000007.txt").exists());
    // The rebuild lands and is counted as a recovery.
    assert!(c.store("lib", 7, "payload"));
    assert_eq!(c.load("lib", 7).as_deref(), Some("payload"));
    assert_eq!(faults::counters().since(&before).rebuilt, 1);
    let _ = std::fs::remove_dir_all(c.root());
}
