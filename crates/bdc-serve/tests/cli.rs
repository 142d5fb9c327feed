//! `bdc_serve` flag validation as an operator sees it: a value that would
//! stop all serving exits with status 2 before the daemon binds.

use std::process::{Command, Stdio};
use std::time::Duration;

/// Runs `bdc_serve` with `args`, killing it if it is still up after 10 s
/// (a daemon that accepted the flags never exits on its own). Returns the
/// exit code (`None` if it had to be killed) and stderr.
fn run_serve(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bdc_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bdc_serve");
    let mut code = None;
    for _ in 0..500 {
        if let Some(status) = child.try_wait().expect("poll bdc_serve") {
            code = status.code();
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    if code.is_none() {
        let _ = child.kill();
    }
    let out = child.wait_with_output().expect("collect stderr");
    (code, String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn zero_queue_cap_exits_2() {
    let (code, stderr) = run_serve(&["--queue-cap", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--queue-cap must be a positive integer"),
        "{stderr}"
    );
}

#[test]
fn zero_deadline_exits_2() {
    let (code, stderr) = run_serve(&["--deadline-ms", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--deadline-ms must be a positive integer"),
        "{stderr}"
    );
}
