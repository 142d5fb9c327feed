//! `bdc run`'s run manifest accounts for the library prewarm, which runs
//! before any node's clock starts.
//!
//! The invocation runs in its own scratch directory with its own store,
//! so the repo's `results/` stays untouched.

use std::process::Command;

use bdc_exec::json;

#[test]
fn cold_table_library_manifest_times_the_library_prewarm() {
    let dir = std::env::temp_dir().join(format!("bdc-run-cli-prewarm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_bdc"))
        .args(["run", "--quick", "table-library"])
        .current_dir(&dir)
        .env("BDC_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("spawn bdc");
    let manifest = std::fs::read_to_string(dir.join("results/run_manifest.json"));
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("(library prewarm)"), "{stderr}");
    let manifest = json::parse(&manifest.expect("manifest written")).expect("manifest parses");
    let field = |k: &str| manifest.get(k).and_then(|v| v.as_f64());
    let prewarm_s = field("prewarm_s").expect("prewarm_s");
    let wall_s = field("wall_s").expect("wall_s");
    assert!(prewarm_s > 0.0, "a cold library prewarm took {prewarm_s} s");
    assert!(
        wall_s >= prewarm_s,
        "plan {wall_s} s < prewarm {prewarm_s} s"
    );
}
