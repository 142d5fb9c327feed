//! One-stop validation of the shared environment knobs.
//!
//! Every binary in the workspace honours the same variables:
//! `BDC_WORKERS` (worker-thread count), `BDC_CACHE_DIR` (artifact-cache
//! root), `BDC_NO_CACHE` (disable the cache), `BDC_FAULTS` (the
//! fault-injection spec, see [`crate::faults`]), `BDC_CACHE_BUDGET_MB`
//! (the artifact-store disk budget), and the cluster topology
//! knobs `BDC_SHARDS`/`BDC_RING_SEED`/`BDC_SHARD_ID`/`BDC_PEER_PORTS`
//! (see [`crate::cluster`]). Before this module each
//! binary read them ad hoc and the first *use* — possibly deep inside a
//! parallel region — panicked on a malformed value. [`env_config`] is the
//! single front door: call it first thing in `main`, print the `Err` and
//! exit on failure, and every later read (which uses the same hardened
//! parsers) is guaranteed to succeed.

use std::path::PathBuf;

use crate::batch::parse_batch_lanes;
use crate::cache::{parse_cache_budget_mb, validate_cache_dir};
use crate::cluster::{self, ClusterEnv};
use crate::faults::{self, FaultConfig};
use crate::pool::parse_workers;

/// Validated snapshot of the shared environment knobs.
///
/// Fields are `None` when the corresponding variable is unset; values are
/// already validated, so feeding `workers` to [`crate::set_workers`] or
/// `cache_dir` to the cache layer cannot fail.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvConfig {
    /// `BDC_WORKERS`, parsed and range-checked by [`parse_workers`].
    pub workers: Option<usize>,
    /// `BDC_CACHE_DIR`, canonicalized by [`validate_cache_dir`].
    pub cache_dir: Option<PathBuf>,
    /// Whether `BDC_NO_CACHE` is set (any value — presence disables the
    /// artifact cache, matching `ArtifactCache::shared`).
    pub no_cache: bool,
    /// `BDC_FAULTS`, parsed by [`faults::parse_spec`]. `None` when unset;
    /// an inert config (all rates zero) when set to e.g. `seed=1`.
    pub faults: Option<FaultConfig>,
    /// `BDC_BATCH_LANES`, parsed and range-checked by
    /// [`parse_batch_lanes`].
    pub batch_lanes: Option<usize>,
    /// The cluster topology knobs (`BDC_SHARDS`, `BDC_RING_SEED`,
    /// `BDC_SHARD_ID`, `BDC_PEER_PORTS`), cross-validated by
    /// [`cluster::cluster_env`]. `None` when no cluster knob is set.
    pub cluster: Option<ClusterEnv>,
    /// `BDC_CACHE_BUDGET_MB`, parsed and range-checked by
    /// [`parse_cache_budget_mb`]. `None` when unset (no disk budget).
    pub cache_budget_mb: Option<u64>,
}

/// Reads and validates `BDC_WORKERS`, `BDC_CACHE_DIR`, `BDC_NO_CACHE`,
/// `BDC_FAULTS`, `BDC_BATCH_LANES`, and the cluster topology knobs
/// (`BDC_SHARDS`, `BDC_RING_SEED`, `BDC_SHARD_ID`, `BDC_PEER_PORTS`).
///
/// # Errors
/// Returns the hardened parsers' diagnostics (which name the offending
/// variable) when a set variable is malformed, so callers can print the
/// message verbatim and exit instead of panicking mid-run. The removed
/// `BDC_NO_BATCH` knob is rejected the same way, pointing at its
/// replacement, so a script that still sets it fails loudly instead of
/// silently running the batched kernel.
pub fn env_config() -> Result<EnvConfig, String> {
    let workers = match std::env::var("BDC_WORKERS") {
        Ok(raw) => Some(parse_workers(&raw)?),
        Err(_) => None,
    };
    let no_cache = std::env::var_os("BDC_NO_CACHE").is_some();
    let cache_dir = match std::env::var("BDC_CACHE_DIR") {
        // BDC_NO_CACHE wins over BDC_CACHE_DIR in `ArtifactCache::shared`,
        // but a malformed directory is still a configuration error worth
        // rejecting up front.
        Ok(raw) => Some(validate_cache_dir(std::path::Path::new(&raw))?),
        Err(_) => None,
    };
    let fault_cfg = match std::env::var("BDC_FAULTS") {
        Ok(raw) => Some(faults::parse_spec(&raw)?),
        Err(_) => None,
    };
    let batch_lanes = match std::env::var("BDC_BATCH_LANES") {
        Ok(raw) => Some(parse_batch_lanes(&raw)?),
        Err(_) => None,
    };
    if std::env::var_os("BDC_NO_BATCH").is_some() {
        return Err(
            "BDC_NO_BATCH was removed; set BDC_BATCH_LANES=1 for the scalar reference path".into(),
        );
    }
    let cluster = cluster::cluster_env()?;
    let cache_budget_mb = match std::env::var("BDC_CACHE_BUDGET_MB") {
        Ok(raw) => Some(parse_cache_budget_mb(&raw)?),
        Err(_) => None,
    };
    Ok(EnvConfig {
        workers,
        cache_dir,
        no_cache,
        faults: fault_cfg,
        batch_lanes,
        cluster,
        cache_budget_mb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // Environment-variable tests mutate process-global state; the pool and
    // cache crates already pin the parser behaviour itself, so here we only
    // exercise the pure composition path with the variables unset (the
    // default in `cargo test`) — full end-to-end env handling is covered by
    // the CLI integration tests in bdc-bench.
    #[test]
    fn unset_environment_is_all_none() {
        if std::env::var_os("BDC_WORKERS").is_none()
            && std::env::var_os("BDC_CACHE_DIR").is_none()
            && std::env::var_os("BDC_NO_CACHE").is_none()
            && std::env::var_os("BDC_FAULTS").is_none()
            && std::env::var_os("BDC_BATCH_LANES").is_none()
            && std::env::var_os("BDC_NO_BATCH").is_none()
            && std::env::var_os("BDC_SHARDS").is_none()
            && std::env::var_os("BDC_RING_SEED").is_none()
            && std::env::var_os("BDC_SHARD_ID").is_none()
            && std::env::var_os("BDC_PEER_PORTS").is_none()
            && std::env::var_os("BDC_CACHE_BUDGET_MB").is_none()
        {
            let cfg = env_config().expect("empty env is valid");
            assert_eq!(
                cfg,
                EnvConfig {
                    workers: None,
                    cache_dir: None,
                    no_cache: false,
                    faults: None,
                    batch_lanes: None,
                    cluster: None,
                    cache_budget_mb: None,
                }
            );
        }
    }

    // `env_config` routes `BDC_CACHE_BUDGET_MB` and `BDC_FAULTS` through
    // the same hardened parsers exercised here, so rejection coverage for
    // the new knobs lives at the parser level (process-env mutation is not
    // safe under parallel tests).
    #[test]
    fn cache_budget_parser_rejects_bad_values() {
        for bad in ["", "0", "-1", "1.5", "64MB", "lots", "18446744073709551616"] {
            let err = parse_cache_budget_mb(bad).expect_err(bad);
            assert!(err.contains("BDC_CACHE_BUDGET_MB"), "{bad}: {err}");
        }
        assert_eq!(parse_cache_budget_mb("64").unwrap(), 64);
        assert_eq!(parse_cache_budget_mb(" 8 ").unwrap(), 8);
    }

    #[test]
    fn fault_spec_parser_rejects_bad_new_kinds() {
        for bad in [
            "disk_full=2",
            "partition=-0.5",
            "disk_full=0.1,disk_full=0.1",
            "partition=0.1,partition=0.1",
            "disk_fill=0.1",
        ] {
            let err = faults::parse_spec(bad).expect_err(bad);
            assert!(err.contains("BDC_FAULTS"), "{bad}: {err}");
        }
    }
}
