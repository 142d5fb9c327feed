//! The `bdc_serve` daemon binary.
//!
//! ```text
//! bdc_serve [--addr HOST:PORT] [--queue-cap N] [--warm organic,silicon]
//!           [--deadline-ms N] [--max-retries N]
//! ```
//!
//! Boots the serving stack from `bdc-serve`, optionally pre-characterizes
//! libraries (`--warm`), prints the bound address, and runs until SIGTERM
//! or ctrl-c, then shuts down gracefully (drains the queue, joins every
//! thread) and exits 0.
//!
//! When launched by the `bdc cluster` supervisor with a complete cluster
//! identity (`BDC_SHARDS` + `BDC_SHARD_ID` + `BDC_PEER_PORTS`), the
//! worker additionally installs the peer cache-fill hooks
//! ([`bdc_serve::peer`]) — local cache misses first ask the artifact's
//! ring-owner shard before recomputing — and stamps every response with
//! its `x-bdc-shard` header.

use bdc_core::Process;
use bdc_serve::ServeConfig;

fn usage() -> ! {
    eprintln!(
        "usage: bdc_serve [--addr HOST:PORT] [--queue-cap N] [--warm organic,silicon] \
         [--deadline-ms N] [--max-retries N]"
    );
    std::process::exit(2)
}

fn parse_args() -> ServeConfig {
    let mut cfg = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("bdc_serve: {flag} needs a {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("host:port"),
            "--queue-cap" => cfg.engine.queue_cap = parse_positive(&flag, &value("count")),
            "--deadline-ms" => {
                cfg.engine.wait_timeout = std::time::Duration::from_millis(parse_positive(
                    &flag,
                    &value("milliseconds"),
                ) as u64)
            }
            "--max-retries" => cfg.engine.max_retries = parse_num(&flag, &value("count")) as u32,
            "--warm" => {
                for name in value("process list").split(',') {
                    let name = name.trim();
                    let Some(process) = Process::from_name(name) else {
                        eprintln!("bdc_serve: unknown process `{name}`");
                        usage()
                    };
                    cfg.warm.push(process);
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("bdc_serve: unknown flag `{other}`");
                usage()
            }
        }
    }
    cfg
}

fn parse_num(flag: &str, raw: &str) -> usize {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("bdc_serve: {flag} must be a non-negative integer, got `{raw}`");
        usage()
    })
}

/// [`parse_num`] for flags where 0 would stop all serving: a zero queue
/// cap sheds every compute request, a zero deadline times out every
/// flight the moment it is queued.
fn parse_positive(flag: &str, raw: &str) -> usize {
    match raw.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("bdc_serve: {flag} must be a positive integer, got `{raw}`");
            usage()
        }
    }
}

fn main() {
    let env = match bdc_exec::env_config() {
        Ok(env) => env,
        Err(e) => {
            eprintln!("bdc_serve: {e}");
            std::process::exit(2);
        }
    };
    let mut cfg = parse_args();
    if let Some(cluster) = &env.cluster {
        cfg.shard = bdc_serve::peer::install_cluster_hooks(cluster);
        if let Some(shard) = cfg.shard {
            println!(
                "bdc_serve: shard {shard}/{} (ring seed {}, peer fetch {})",
                cluster.shards,
                cluster.ring_seed,
                if cluster.peer_ports.is_empty() {
                    "off"
                } else {
                    "on"
                }
            );
        }
    }
    bdc_serve::install_signal_handlers();
    if !cfg.warm.is_empty() {
        let names: Vec<&str> = cfg.warm.iter().map(|p| p.name()).collect();
        println!("bdc_serve: warming libraries: {}", names.join(", "));
    }
    match bdc_serve::start(cfg) {
        Ok(handle) => {
            println!(
                "bdc_serve: listening on 127.0.0.1:{} (SIGTERM/ctrl-c to stop)",
                handle.port()
            );
            handle.run_until_signalled();
            println!("bdc_serve: drained and stopped cleanly");
        }
        Err(e) => {
            eprintln!("bdc_serve: bind failed: {e}");
            std::process::exit(1);
        }
    }
}
