//! Golden test: `bdc verify` is byte-stable across worker counts.
//!
//! The verify report is a build artifact other tooling diffs, so its
//! stdout and its `results/verify_report.json` must be identical whether
//! the process runs with 1, 2, or 8 workers (`BDC_WORKERS`). The static
//! pass renders nothing, but `--audit-deps` executes every node through
//! `bdc_exec` — the same machinery whose parallelism must never leak into
//! artifact bytes.
//!
//! Each invocation runs in its own scratch directory (outside the
//! workspace, so `find_workspace_root` falls back to the cwd and the
//! report lands in the scratch `results/`), keeping the real repo's
//! `results/` untouched and proving the report carries no absolute paths.

use std::path::Path;
use std::process::Command;

struct VerifyOutput {
    stdout: Vec<u8>,
    report: Vec<u8>,
}

fn run_verify(dir: &Path, workers: &str, extra: &[&str]) -> VerifyOutput {
    let out = Command::new(env!("CARGO_BIN_EXE_bdc"))
        .arg("verify")
        .args(extra)
        .current_dir(dir)
        .env("BDC_WORKERS", workers)
        .output()
        .expect("spawn bdc");
    assert!(
        out.status.success(),
        "bdc verify failed under BDC_WORKERS={workers}: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let report =
        std::fs::read(dir.join("results/verify_report.json")).expect("verify_report.json written");
    VerifyOutput {
        stdout: out.stdout,
        report,
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("bdc-verify-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn verify_report_is_byte_stable_across_workers() {
    let baseline = {
        let dir = scratch("w1");
        let out = run_verify(&dir, "1", &[]);
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    assert!(
        baseline
            .stdout
            .starts_with(b"plan-graph: 25 nodes, 50 cache keys, 0 finding(s)\n"),
        "unexpected verify stdout: {}",
        String::from_utf8_lossy(&baseline.stdout)
    );
    let json = String::from_utf8(baseline.report.clone()).expect("report is UTF-8");
    assert!(json.contains("\"version\":\"bdc-verify-v2\""), "{json}");
    assert!(json.contains("\"stages\":47"), "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");

    for workers in ["2", "8"] {
        let dir = scratch(&format!("w{workers}"));
        let out = run_verify(&dir, workers, &[]);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            out.stdout, baseline.stdout,
            "stdout differs at BDC_WORKERS={workers}"
        );
        assert_eq!(
            out.report, baseline.report,
            "verify_report.json differs at BDC_WORKERS={workers}"
        );
    }
}

#[test]
fn audited_verify_report_is_byte_stable_across_workers() {
    // The dynamic PG006 audit renders all 25 nodes (quick budget); the
    // report must still not depend on how many workers rendered them.
    let baseline = {
        let dir = scratch("aw1");
        let out = run_verify(&dir, "1", &["--audit-deps", "--quick"]);
        let _ = std::fs::remove_dir_all(&dir);
        out
    };
    let json = String::from_utf8(baseline.report.clone()).expect("report is UTF-8");
    assert!(json.contains("\"dep_audit\":\"quick\""), "{json}");
    assert!(json.contains("\"findings\":[]"), "{json}");

    let dir = scratch("aw8");
    let out = run_verify(&dir, "8", &["--audit-deps", "--quick"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.stdout, baseline.stdout, "stdout differs across workers");
    assert_eq!(out.report, baseline.report, "report differs across workers");
}
