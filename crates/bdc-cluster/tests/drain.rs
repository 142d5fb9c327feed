//! Supervisor teardown waits on events, not polls.
//!
//! This spawns real child processes, so it lives in its own test binary:
//! a process spawned concurrently from a sibling test can still show this
//! binary's command line when `supervisor`'s pid-file tests inspect it.

#![cfg(unix)]

use std::os::unix::fs::PermissionsExt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bdc_cluster::{start_supervisor, SupervisorConfig};

#[test]
fn shutdown_wakes_the_monitor_and_reaps_at_once() {
    // A stand-in worker that ignores its flags and dies on SIGTERM.
    let dir = std::env::temp_dir().join(format!("bdc-drain-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("worker.sh");
    std::fs::write(&bin, "#!/bin/sh\nexec sleep 30\n").unwrap();
    std::fs::set_permissions(&bin, std::fs::Permissions::from_mode(0o755)).unwrap();
    let sup = start_supervisor(SupervisorConfig {
        shards: 2,
        base_port: 1,
        ring_seed: 0,
        serve_bin: bin,
        cache_root: dir.clone(),
        passthrough: Vec::new(),
        pid_file: PathBuf::new(),
    })
    .expect("spawn stand-in workers");
    let pids: Vec<u32> = sup.pids().into_iter().flatten().collect();
    assert_eq!(pids.len(), 2);
    // Stop inside the monitor's first 200 ms poll sleep: a monitor that
    // sleeps out its poll, or a drain that polls each worker in 50 ms
    // steps, takes well over 150 ms here.
    std::thread::sleep(Duration::from_millis(30));
    let t0 = Instant::now();
    sup.shutdown();
    let took = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(took < Duration::from_millis(150), "shutdown took {took:?}");
    for pid in pids {
        let proc_dir = format!("/proc/{pid}");
        assert!(!std::path::Path::new(&proc_dir).exists(), "{pid} lives");
    }
}
