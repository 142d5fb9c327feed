//! The `bdc cluster` entry point: boot a supervised shard fleet behind
//! the router and serve until signalled.
//!
//! ```text
//! bdc cluster [--shards N] [--addr HOST:PORT] [--base-port P]
//!             [--ring-seed S] [--serve-bin PATH] [--cache-root DIR]
//!             [--pid-file PATH]
//!             [--queue-cap N] [--deadline-ms MS] [--max-retries N] [--warm]
//! ```
//!
//! Every shard gets `DEFAULT_VNODES` (128) ring points, and the router
//! retries a failed proxy hop on up to 3 more shards.
//!
//! The last row of flags is passed through verbatim to every worker, so a
//! fleet can be tuned exactly like a single `bdc_serve` daemon; `--warm`
//! warms both libraries on each (`bdc_serve --warm organic,silicon`). Flag
//! errors exit with status 2 (matching the `BDC_FAULTS` validation
//! discipline); runtime failures exit 1.

use std::path::PathBuf;
use std::time::Duration;

use crate::router::{start_router, RouterConfig};
use crate::supervisor::{start_supervisor, SupervisorConfig};

/// Parsed `bdc cluster` flags.
#[derive(Debug, Clone)]
pub struct ClusterArgs {
    /// Worker count (1..=[`bdc_exec::cluster::MAX_SHARDS`]).
    pub shards: usize,
    /// Router bind address.
    pub addr: String,
    /// First worker port.
    pub base_port: u16,
    /// Fleet ring seed.
    pub ring_seed: u64,
    /// Worker binary; `None` means "sibling `bdc_serve` of this binary".
    pub serve_bin: Option<PathBuf>,
    /// Per-shard cache directories live under here.
    pub cache_root: PathBuf,
    /// Fleet pid file.
    pub pid_file: PathBuf,
    /// Flags forwarded verbatim to every worker.
    pub passthrough: Vec<String>,
}

impl Default for ClusterArgs {
    fn default() -> Self {
        ClusterArgs {
            shards: 3,
            addr: "127.0.0.1:8800".into(),
            base_port: 8810,
            ring_seed: 42,
            serve_bin: None,
            cache_root: PathBuf::from("results/cluster"),
            pid_file: PathBuf::from("results/cluster_pids.json"),
            passthrough: Vec::new(),
        }
    }
}

/// Parses `bdc cluster` argv (everything after the subcommand).
///
/// # Errors
/// Returns a message naming the offending flag; callers should print it
/// and exit 2.
pub fn parse_cluster_args(args: &[String]) -> Result<ClusterArgs, String> {
    let mut out = ClusterArgs::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--shards" => {
                let v = value("--shards")?;
                out.shards = v
                    .parse::<usize>()
                    .ok()
                    .filter(|n| (1..=bdc_exec::cluster::MAX_SHARDS).contains(n))
                    .ok_or_else(|| {
                        format!(
                            "--shards must be 1..={} (got {v:?})",
                            bdc_exec::cluster::MAX_SHARDS
                        )
                    })?;
            }
            "--addr" => out.addr = value("--addr")?,
            "--base-port" => {
                let v = value("--base-port")?;
                out.base_port = v
                    .parse::<u16>()
                    .ok()
                    .filter(|p| *p != 0)
                    .ok_or_else(|| format!("--base-port must be a nonzero port (got {v:?})"))?;
            }
            "--ring-seed" => {
                let v = value("--ring-seed")?;
                out.ring_seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--ring-seed must be a u64 (got {v:?})"))?;
            }
            "--serve-bin" => out.serve_bin = Some(PathBuf::from(value("--serve-bin")?)),
            "--cache-root" => out.cache_root = PathBuf::from(value("--cache-root")?),
            "--pid-file" => out.pid_file = PathBuf::from(value("--pid-file")?),
            "--warm" => out
                .passthrough
                .extend(["--warm".into(), "organic,silicon".into()]),
            "--queue-cap" | "--deadline-ms" | "--max-retries" => {
                let v = value(flag)?;
                // Checked here with `bdc_serve`'s own rule, so a bad value
                // fails the command instead of every worker spawn: a zero
                // queue cap or deadline would stop all serving.
                let zero_ok = flag == "--max-retries";
                if !v.parse::<usize>().is_ok_and(|n| zero_ok || n > 0) {
                    let kind = if zero_ok { "non-negative" } else { "positive" };
                    return Err(format!("{flag} must be a {kind} integer (got {v:?})"));
                }
                out.passthrough.push(flag.clone());
                out.passthrough.push(v);
            }
            other => return Err(format!("unknown flag {other:?} (see `bdc cluster --help`)")),
        }
    }
    // Port-range sanity: workers occupy base_port..base_port+shards.
    if usize::from(out.base_port) + out.shards > usize::from(u16::MAX) {
        return Err(format!(
            "--base-port {} + --shards {} overflows the port range",
            out.base_port, out.shards
        ));
    }
    Ok(out)
}

/// Resolves the worker binary: explicit flag, else the `bdc_serve`
/// sibling of the running executable.
fn resolve_serve_bin(args: &ClusterArgs) -> Result<PathBuf, String> {
    if let Some(bin) = &args.serve_bin {
        return Ok(bin.clone());
    }
    let me = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let sibling = me.with_file_name("bdc_serve");
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "no bdc_serve next to {} — pass --serve-bin",
            me.display()
        ))
    }
}

/// Runs the fleet until SIGTERM/SIGINT, blocking on
/// [`bdc_serve::server::wait_for_signal`] (the caller installs the
/// handlers with [`bdc_serve::install_signal_handlers`]). Returns a
/// process exit code.
pub fn run_cluster(args: &ClusterArgs) -> i32 {
    let serve_bin = match resolve_serve_bin(args) {
        Ok(bin) => bin,
        Err(e) => {
            eprintln!("bdc cluster: {e}");
            return 2;
        }
    };
    let sup_cfg = SupervisorConfig {
        shards: args.shards,
        base_port: args.base_port,
        ring_seed: args.ring_seed,
        serve_bin,
        cache_root: args.cache_root.clone(),
        passthrough: args.passthrough.clone(),
        pid_file: args.pid_file.clone(),
    };
    let supervisor = match start_supervisor(sup_cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bdc cluster: worker spawn failed: {e}");
            return 1;
        }
    };
    if !supervisor.wait_ready(Duration::from_secs(30)) {
        eprintln!("bdc cluster: fleet did not become healthy within 30s");
        supervisor.shutdown();
        return 1;
    }
    let router_cfg = RouterConfig {
        addr: args.addr.clone(),
        shard_addrs: supervisor.shard_addrs(),
        ring_seed: args.ring_seed,
    };
    let router = match start_router(router_cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bdc cluster: router bind failed: {e}");
            supervisor.shutdown();
            return 1;
        }
    };
    println!(
        "bdc cluster: {} shards on ports {}..={} behind {} (ring seed {}); pid file {}",
        args.shards,
        args.base_port,
        args.base_port + args.shards as u16 - 1,
        args.addr,
        args.ring_seed,
        args.pid_file.display()
    );
    bdc_serve::server::wait_for_signal();
    println!("bdc cluster: draining");
    router.shutdown();
    supervisor.shutdown();
    println!("bdc cluster: done");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ClusterArgs, String> {
        parse_cluster_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn worker_flags_pass_through_with_their_values() {
        let args = parse(&[
            "--queue-cap",
            "16",
            "--warm",
            "--deadline-ms",
            "250",
            "--max-retries",
            "2",
        ])
        .expect("valid flags");
        // `bdc_serve --warm` takes a process list, so the bare cluster flag
        // must expand to one rather than swallow the next worker flag.
        assert_eq!(
            args.passthrough,
            [
                "--queue-cap",
                "16",
                "--warm",
                "organic,silicon",
                "--deadline-ms",
                "250",
                "--max-retries",
                "2"
            ]
        );
    }

    #[test]
    fn zero_queue_cap_or_deadline_is_rejected_but_zero_retries_is_not() {
        for flag in ["--queue-cap", "--deadline-ms"] {
            for bad in ["0", "-1", "soon"] {
                let err = parse(&[flag, bad]).expect_err(bad);
                assert!(err.contains(flag) && err.contains("positive"), "{err}");
            }
            assert_eq!(parse(&[flag, "1"]).unwrap().passthrough, [flag, "1"]);
        }
        assert_eq!(
            parse(&["--max-retries", "0"]).unwrap().passthrough,
            ["--max-retries", "0"]
        );
        assert!(parse(&["--max-retries", "x"]).is_err());
    }

    #[test]
    fn ring_and_failover_settings_are_not_flags() {
        for args in [["--vnodes", "64"], ["--proxy-retries", "1"]] {
            let err = parse(&args).expect_err(args[0]);
            assert!(err.contains("unknown flag"), "{err}");
        }
    }
}
