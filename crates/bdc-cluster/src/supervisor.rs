//! The worker supervisor: spawns N `bdc_serve` shard processes, restarts
//! crashed ones with seeded backoff, and tears the fleet down cleanly.
//!
//! Each worker is launched with its full cluster identity in the
//! environment (`BDC_SHARDS`, `BDC_RING_SEED`, `BDC_SHARD_ID`,
//! `BDC_PEER_PORTS`) plus a *per-shard* artifact cache root
//! (`BDC_CACHE_DIR=<cache-root>/shard-N`) — disjoint caches are what make
//! the peer-fetch path observable: a shard that did not compute an
//! artifact genuinely does not have it on disk.
//!
//! **Restart policy:** a worker that exits while the fleet is up is
//! relaunched after a seeded, jittered exponential backoff
//! ([`bdc_exec::faults::backoff_delay`] — deterministic for a given
//! shard/attempt, so chaos runs reproduce). The attempt counter resets
//! once a worker survives [`STABLE_UPTIME`], so a long-lived shard that
//! eventually crashes restarts fast, while a crash-looping one backs off.
//!
//! **Teardown:** stop wakes the monitor at once, then SIGTERM to every
//! worker (the daemon's graceful-drain path), a blocking wait for each,
//! and SIGKILL for stragglers still running after [`DRAIN_WAIT`].

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bdc_exec::faults;

/// Uptime after which a worker's restart-attempt counter resets.
const STABLE_UPTIME: Duration = Duration::from_secs(30);

/// How long teardown waits for a SIGTERMed worker before SIGKILL.
const DRAIN_WAIT: Duration = Duration::from_secs(10);

/// Monitor poll interval.
const POLL: Duration = Duration::from_millis(200);

/// Waits up to `timeout` on a stop channel and reports whether it has
/// been stopped: dropping the sender ends every wait on it at once.
fn stopped(stop: &Receiver<()>, timeout: Duration) -> bool {
    !matches!(stop.recv_timeout(timeout), Err(RecvTimeoutError::Timeout))
}

/// Fleet launch parameters.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Number of shard workers.
    pub shards: usize,
    /// First worker port; shard `i` listens on `base_port + i`.
    pub base_port: u16,
    /// The fleet's ring seed (must match the router's).
    pub ring_seed: u64,
    /// Path to the `bdc_serve` binary.
    pub serve_bin: PathBuf,
    /// Root under which each shard gets its own cache directory.
    pub cache_root: PathBuf,
    /// Extra argv passed through to every worker (`--queue-cap`, …).
    pub passthrough: Vec<String>,
    /// Where the fleet pid file is written (`results/cluster_pids.json`);
    /// empty disables it.
    pub pid_file: PathBuf,
}

/// One supervised worker slot.
struct Slot {
    shard: usize,
    child: Option<Child>,
    // bdc-lint: allow(D002, restart-policy uptime tracking, not artifact bytes)
    started: Instant,
    attempt: u64,
}

/// A running fleet of supervised workers.
pub struct Supervisor {
    cfg: SupervisorConfig,
    slots: Arc<Mutex<Vec<Slot>>>,
    stop: Sender<()>,
    monitor: std::thread::JoinHandle<()>,
}

/// The loopback address shard `i` listens on.
pub fn shard_addr(cfg: &SupervisorConfig, shard: usize) -> String {
    format!("127.0.0.1:{}", cfg.base_port + shard as u16)
}

/// Spawns the fleet and its monitor thread.
///
/// # Errors
/// Propagates spawn failures for the initial launch (a worker that later
/// crashes is restarted, not propagated).
pub fn start_supervisor(cfg: SupervisorConfig) -> std::io::Result<Supervisor> {
    check_stale_pid_file(&cfg.pid_file)?;
    let mut slots = Vec::with_capacity(cfg.shards);
    for shard in 0..cfg.shards {
        let child = spawn_worker(&cfg, shard)?;
        slots.push(Slot {
            shard,
            child: Some(child),
            // bdc-lint: allow(D002, restart-policy uptime tracking, not artifact bytes)
            started: Instant::now(),
            attempt: 0,
        });
    }
    let slots = Arc::new(Mutex::new(slots));
    let (stop, stop_rx) = channel();
    write_pid_file(&cfg, &slots.lock().unwrap_or_else(|p| p.into_inner()));

    let monitor = {
        let cfg = cfg.clone();
        let slots = Arc::clone(&slots);
        std::thread::Builder::new()
            .name("bdc-cluster-monitor".into())
            .spawn(move || monitor_loop(&cfg, &slots, &stop_rx))?
    };
    Ok(Supervisor {
        cfg,
        slots,
        stop,
        monitor,
    })
}

/// Launches one shard worker with its identity environment.
fn spawn_worker(cfg: &SupervisorConfig, shard: usize) -> std::io::Result<Child> {
    let ports: Vec<String> = (0..cfg.shards)
        .map(|i| (cfg.base_port + i as u16).to_string())
        .collect();
    let cache_dir = cfg.cache_root.join(format!("shard-{shard}"));
    Command::new(&cfg.serve_bin)
        .arg("--addr")
        .arg(shard_addr(cfg, shard))
        .args(&cfg.passthrough)
        .env("BDC_SHARDS", cfg.shards.to_string())
        .env("BDC_RING_SEED", cfg.ring_seed.to_string())
        .env("BDC_SHARD_ID", shard.to_string())
        .env("BDC_PEER_PORTS", ports.join(","))
        .env("BDC_CACHE_DIR", &cache_dir)
        .stdin(Stdio::null())
        .spawn()
}

/// The monitor: restart crashed workers with seeded backoff until the
/// fleet is stopped. Stopping wakes it from its poll and backoff sleeps.
fn monitor_loop(cfg: &SupervisorConfig, slots: &Mutex<Vec<Slot>>, stop: &Receiver<()>) {
    while !stopped(stop, POLL) {
        let mut restarted = false;
        {
            let mut guard = slots.lock().unwrap_or_else(|p| p.into_inner());
            for slot in guard.iter_mut() {
                let exited = match &mut slot.child {
                    Some(child) => matches!(child.try_wait(), Ok(Some(_)) | Err(_)),
                    None => true,
                };
                if !exited {
                    if slot.attempt > 0 && slot.started.elapsed() >= STABLE_UPTIME {
                        slot.attempt = 0;
                    }
                    continue;
                }
                slot.child = None;
                slot.attempt += 1;
                let delay = faults::backoff_delay(&format!("shard-{}", slot.shard), slot.attempt);
                eprintln!(
                    "bdc-cluster: shard {} exited; restart attempt {} in {:?}",
                    slot.shard, slot.attempt, delay
                );
                if stopped(stop, delay) {
                    return;
                }
                match spawn_worker(cfg, slot.shard) {
                    Ok(child) => {
                        slot.child = Some(child);
                        // bdc-lint: allow(D002, restart-policy uptime tracking, not artifact bytes)
                        slot.started = Instant::now();
                        restarted = true;
                    }
                    Err(e) => {
                        eprintln!("bdc-cluster: shard {} respawn failed: {e}", slot.shard);
                    }
                }
            }
            if restarted {
                write_pid_file(cfg, &guard);
            }
        }
    }
}

/// Inspects an existing fleet pid file before launch. A pid file whose
/// every recorded pid is dead — or recycled by the kernel to a non-`bdc`
/// process — is stale debris from a crashed or SIGKILLed supervisor and
/// is replaced silently; one that still names a live `bdc` worker means
/// another fleet owns these ports, and launching over it would double-bind
/// and corrupt per-shard caches.
///
/// # Errors
/// `AddrInUse` when the pid file names a live `bdc` process.
fn check_stale_pid_file(pid_file: &std::path::Path) -> std::io::Result<()> {
    if pid_file.as_os_str().is_empty() || !pid_file.exists() {
        return Ok(());
    }
    let pids = match std::fs::read_to_string(pid_file)
        .ok()
        .and_then(|raw| bdc_exec::json::parse(&raw).ok())
    {
        Some(doc) => match doc.get("workers") {
            Some(bdc_exec::json::Json::Arr(rows)) => rows
                .iter()
                .filter_map(|row| row.get("pid").and_then(bdc_exec::json::Json::as_u64))
                .collect::<Vec<u64>>(),
            // Parseable JSON without a workers array: not ours, replace.
            _ => Vec::new(),
        },
        // Unparseable debris (e.g. a torn write): replace.
        None => Vec::new(),
    };
    for pid in pids {
        if let Some(cmd) = live_process_command(pid) {
            if cmd.contains("bdc") {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!(
                        "pid file {} names live bdc worker pid {pid} ({cmd}); \
                         is another fleet running?",
                        pid_file.display()
                    ),
                ));
            }
            eprintln!(
                "bdc-cluster: pid file {} entry {pid} was recycled by `{cmd}`; treating as stale",
                pid_file.display()
            );
        }
    }
    eprintln!(
        "bdc-cluster: replacing stale pid file {} (no live bdc worker)",
        pid_file.display()
    );
    Ok(())
}

/// The command name (`/proc/<pid>/cmdline` argv[0] file stem) of a live
/// process, or `None` when the pid is dead. On platforms without procfs
/// every pid reads as dead, so a stale file is always replaced — the
/// conservative failure mode for a best-effort observability file.
fn live_process_command(pid: u64) -> Option<String> {
    let raw = std::fs::read(format!("/proc/{pid}/cmdline")).ok()?;
    let argv0 = raw.split(|b| *b == 0).next().unwrap_or(&[]);
    let argv0 = String::from_utf8_lossy(argv0);
    let stem = std::path::Path::new(argv0.as_ref())
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| argv0.into_owned());
    if stem.is_empty() {
        // A zombie or kernel thread with an empty cmdline cannot be a
        // worker holding our ports.
        return None;
    }
    Some(stem)
}

/// Rewrites the fleet pid file (best effort — observability, not a lock).
fn write_pid_file(cfg: &SupervisorConfig, slots: &[Slot]) {
    if cfg.pid_file.as_os_str().is_empty() {
        return;
    }
    use bdc_exec::json::Json;
    let rows = slots
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("shard".into(), Json::Int(s.shard as i64)),
                (
                    "port".into(),
                    Json::Int(i64::from(cfg.base_port) + s.shard as i64),
                ),
                (
                    "pid".into(),
                    match &s.child {
                        Some(c) => Json::Int(i64::from(c.id())),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    let body = Json::Obj(vec![
        ("shards".into(), Json::Int(cfg.shards as i64)),
        ("ring_seed".into(), Json::Int(cfg.ring_seed as i64)),
        ("workers".into(), Json::Arr(rows)),
    ]);
    if let Some(dir) = cfg.pid_file.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let _ = std::fs::write(&cfg.pid_file, body.encode() + "\n");
}

/// Sends a signal to a pid (unix only; no-op elsewhere).
#[cfg(unix)]
fn send_signal(pid: u32, sig: i32) {
    // Mirrors the one unsafe precedent in `bdc_serve::install_signal_handlers`:
    // libc signalling has no safe std equivalent, and `kill(2)` with a
    // pid we spawned is memory-safe by construction.
    #[allow(unsafe_code)]
    {
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(pid as i32, sig);
        }
    }
}

#[cfg(not(unix))]
fn send_signal(_pid: u32, _sig: i32) {}

impl Supervisor {
    /// Every worker's loopback address, in shard order.
    pub fn shard_addrs(&self) -> Vec<String> {
        (0..self.cfg.shards)
            .map(|i| shard_addr(&self.cfg, i))
            .collect()
    }

    /// Current pids, in shard order (`None` for a slot mid-restart).
    pub fn pids(&self) -> Vec<Option<u32>> {
        let guard = self.slots.lock().unwrap_or_else(|p| p.into_inner());
        guard
            .iter()
            .map(|s| s.child.as_ref().map(Child::id))
            .collect()
    }

    /// Polls every shard's `/healthz` until all answer or the deadline
    /// expires; returns whether the fleet came up.
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        // bdc-lint: allow(D002, boot-deadline tracking, not artifact bytes)
        let t0 = Instant::now();
        let addrs = self.shard_addrs();
        loop {
            let ready = addrs
                .iter()
                .filter(|addr| {
                    bdc_serve::client::Connection::open_with_timeout(
                        addr,
                        Duration::from_millis(500),
                    )
                    .and_then(|mut c| c.get("/healthz"))
                    .map(|r| r.status == 200)
                    .unwrap_or(false)
                })
                .count();
            if ready == addrs.len() {
                return true;
            }
            if t0.elapsed() > timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// Graceful teardown: SIGTERM every worker (triggering the daemon's
    /// drain path) and reap each with a blocking wait; a watchdog SIGKILLs
    /// whatever is still running after [`DRAIN_WAIT`].
    pub fn shutdown(self) {
        drop(self.stop);
        let _ = self.monitor.join();
        let mut children: Vec<Child> = {
            let mut guard = self.slots.lock().unwrap_or_else(|p| p.into_inner());
            guard.iter_mut().filter_map(|s| s.child.take()).collect()
        };
        for child in &children {
            send_signal(child.id(), 15); // SIGTERM
        }
        // Pids not yet reaped. Each leaves the list as soon as its wait
        // returns, so the watchdog never signals a pid long after it was
        // freed for reuse.
        let unreaped = &Mutex::new(children.iter().map(Child::id).collect::<Vec<u32>>());
        let (reaped, reaped_rx) = channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                if !stopped(&reaped_rx, DRAIN_WAIT) {
                    for &pid in unreaped.lock().unwrap_or_else(|p| p.into_inner()).iter() {
                        send_signal(pid, 9); // SIGKILL
                    }
                }
            });
            for child in &mut children {
                let _ = child.wait();
                let pid = child.id();
                unreaped
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .retain(|&p| p != pid);
            }
            drop(reaped);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid_file(label: &str, pids: &[u64]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdc-pidfile-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows: Vec<String> = pids
            .iter()
            .enumerate()
            .map(|(i, pid)| format!("{{\"shard\":{i},\"port\":0,\"pid\":{pid}}}"))
            .collect();
        let path = dir.join("cluster_pids.json");
        std::fs::write(
            &path,
            format!(
                "{{\"shards\":{},\"workers\":[{}]}}\n",
                pids.len(),
                rows.join(",")
            ),
        )
        .unwrap();
        path
    }

    #[test]
    fn absent_or_empty_pid_file_is_fine() {
        assert!(check_stale_pid_file(std::path::Path::new("")).is_ok());
        assert!(check_stale_pid_file(std::path::Path::new("/nonexistent/pids.json")).is_ok());
    }

    #[test]
    fn dead_pids_make_the_file_stale() {
        // Far beyond any kernel's pid_max: guaranteed dead.
        let path = pid_file("dead", &[999_999_999]);
        assert!(check_stale_pid_file(&path).is_ok());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn recycled_pid_on_a_non_bdc_process_is_stale() {
        // A live process that is definitely not a bdc worker.
        let mut child = Command::new("sleep")
            .arg("5")
            .stdin(Stdio::null())
            .spawn()
            .expect("spawn sleep");
        let path = pid_file("recycled", &[u64::from(child.id())]);
        assert!(check_stale_pid_file(&path).is_ok());
        let _ = child.kill();
        let _ = child.wait();
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn live_bdc_pid_refuses_to_launch_over_it() {
        // This very test binary is named `bdc_cluster-<hash>` — a live
        // process whose command contains "bdc", exactly what a stolen
        // port set would look like.
        let path = pid_file("live", &[u64::from(std::process::id())]);
        let err = check_stale_pid_file(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("another fleet"), "{err}");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn garbage_pid_file_is_stale_not_fatal() {
        let dir = std::env::temp_dir().join(format!("bdc-pidfile-garbage-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cluster_pids.json");
        std::fs::write(&path, "{torn wri").unwrap();
        assert!(check_stale_pid_file(&path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
