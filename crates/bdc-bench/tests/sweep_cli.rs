//! `bdc sweep`'s command line: the summary counts the nodes a point ran,
//! a sweep moves exactly one `--param`, and `--resume` is gone (re-running
//! the same command resumes from the artifact store).
//!
//! Each invocation runs in its own scratch directory with its own store,
//! so the repo's `results/` stays untouched.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdc-sweep-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn sweep(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bdc"))
        .arg("sweep")
        .arg("--quick")
        .args(args)
        .current_dir(dir)
        .env("BDC_CACHE_DIR", dir.join("cache"))
        .output()
        .expect("spawn bdc")
}

#[test]
fn summary_counts_the_nodes_a_point_ran_not_the_ids_typed() {
    let dir = scratch("dup");
    let out = sweep(
        &dir,
        &["--param", "organic.vt=-1.3:-1.3:1", "fig03", "fig03"],
    );
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("==== sweep point").count(), 1, "{stdout}");
    assert!(
        stderr.contains("over 1 point(s), 1 node(s) each"),
        "{stderr}"
    );
}

#[test]
fn second_param_exits_2_with_usage() {
    let dir = scratch("param2");
    let out = sweep(
        &dir,
        &[
            "--param",
            "organic.vt=-1.3:-1.3:1",
            "--param",
            "organic.vt=-1.2:-1.2:1",
            "fig03",
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--param given twice"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn resume_flag_exits_2_as_unknown() {
    let dir = scratch("resume");
    let out = sweep(
        &dir,
        &["--resume", "--param", "organic.vt=-1.3:-1.3:1", "fig03"],
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag `--resume`"), "{stderr}");
}
