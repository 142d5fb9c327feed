//! Seeded, deterministic fault injection for the flow's three fragile
//! layers: the artifact cache, the plan/pool scheduler, and the serving
//! engine.
//!
//! The paper's substrate degrades (V_T drift, mobility loss — §2); this
//! module makes the *software* failure modes just as inspectable. A
//! `BDC_FAULTS` spec like
//!
//! ```text
//! BDC_FAULTS=cache_corrupt=0.05,task_panic=0.01,seed=42
//! ```
//!
//! arms the injection hooks of the kinds it names:
//!
//! * `cache_corrupt` — probability that an artifact read is handed
//!   corrupted bytes (a bit flip in the payload), exercising the cache's
//!   checksum/quarantine/rebuild path.
//! * `task_panic` — probability that a guarded task site (a plan node, a
//!   serve engine job) panics before running, exercising the
//!   `catch_unwind` + bounded-retry containment.
//! * `disk_full` — probability that an artifact store attempt sees a
//!   synthetic ENOSPC, exercising the cache's failures-are-misses
//!   contract and the disk-budget eviction path.
//! * `partition` — probability that a peer or proxy connection attempt
//!   is refused outright, exercising router failover and breakers.
//!
//! **Determinism:** every decision is a pure function of
//! `(seed, kind, site, attempt)` — never of wall clock, thread schedule,
//! or a shared counter — so two runs with the same spec inject the same
//! faults at the same sites, regardless of worker count. With the spec
//! unset (or every rate 0) the hooks are inert and output is
//! byte-identical to an uninstrumented run.
//!
//! The module also owns the process-wide *survival counters* (retries,
//! contained panics, quarantined/rebuilt artifacts). They count real
//! events as well as injected ones — a genuinely corrupt artifact
//! increments `quarantined` whether or not injection is armed — and feed
//! the run manifest, `/v1/metrics`, and the `chaos_report` survival table.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::cache::fnv1a;
use crate::seed::{task_seed, SplitMix64};

/// A validated `BDC_FAULTS` specification.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability in `[0, 1]` that an artifact read sees corrupted bytes.
    pub cache_corrupt: f64,
    /// Probability in `[0, 1]` that a guarded task site panics (per
    /// attempt, so retries re-roll).
    pub task_panic: f64,
    /// Probability in `[0, 1]` that an artifact store attempt sees a
    /// synthetic ENOSPC.
    pub disk_full: f64,
    /// Probability in `[0, 1]` that a peer/proxy connection attempt is
    /// refused.
    pub partition: f64,
    /// Root seed all injection decisions derive from.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            cache_corrupt: 0.0,
            task_panic: 0.0,
            disk_full: 0.0,
            partition: 0.0,
            seed: 0,
        }
    }
}

impl FaultConfig {
    /// Whether every knob is at its inert value (rates 0).
    pub fn is_inert(&self) -> bool {
        self.cache_corrupt == 0.0
            && self.task_panic == 0.0
            && self.disk_full == 0.0
            && self.partition == 0.0
    }

    /// Renders the spec in the exact `key=value,...` syntax
    /// [`parse_spec`] accepts (round-trip pinned by the property tests).
    pub fn to_spec(&self) -> String {
        format!(
            "cache_corrupt={},task_panic={},disk_full={},partition={},seed={}",
            self.cache_corrupt, self.task_panic, self.disk_full, self.partition, self.seed
        )
    }
}

/// Parses a `BDC_FAULTS` value: comma-separated `key=value` pairs with
/// keys `cache_corrupt`, `task_panic`, `disk_full`, `partition`
/// (probabilities in `[0, 1]`) and `seed` (a u64). Missing keys default to the
/// inert value; duplicate or unknown keys are rejected.
///
/// # Errors
/// A one-line diagnostic naming `BDC_FAULTS`, the offending key, and the
/// offending value, suitable for printing verbatim at process start.
pub fn parse_spec(raw: &str) -> Result<FaultConfig, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(
            "BDC_FAULTS is set but empty; unset it, or give a spec like \
             `cache_corrupt=0.05,task_panic=0.01,seed=42`"
                .to_string(),
        );
    }
    let mut cfg = FaultConfig::default();
    let mut seen: Vec<&str> = Vec::new();
    for pair in raw.split(',') {
        let pair = pair.trim();
        let Some((key, value)) = pair.split_once('=') else {
            return Err(format!(
                "BDC_FAULTS entries must be `key=value`, got `{pair}`"
            ));
        };
        let (key, value) = (key.trim(), value.trim());
        if seen.contains(&key) {
            return Err(format!("BDC_FAULTS sets `{key}` twice"));
        }
        match key {
            "cache_corrupt" => cfg.cache_corrupt = parse_rate(key, value)?,
            "task_panic" => cfg.task_panic = parse_rate(key, value)?,
            "disk_full" => cfg.disk_full = parse_rate(key, value)?,
            "partition" => cfg.partition = parse_rate(key, value)?,
            "seed" => {
                cfg.seed = value.parse::<u64>().map_err(|_| {
                    format!("BDC_FAULTS `seed` must be an unsigned integer, got `{value}`")
                })?;
            }
            other => {
                return Err(format!(
                    "BDC_FAULTS has unknown key `{other}` (known: cache_corrupt, \
                     task_panic, disk_full, partition, seed)"
                ));
            }
        }
        seen.push(key);
    }
    Ok(cfg)
}

fn parse_rate(key: &str, value: &str) -> Result<f64, String> {
    let rate: f64 = value.parse().map_err(|_| {
        format!("BDC_FAULTS `{key}` must be a probability in [0, 1], got `{value}`")
    })?;
    if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
        return Err(format!(
            "BDC_FAULTS `{key}` must be a probability in [0, 1], got `{value}`"
        ));
    }
    Ok(rate)
}

/// The installed configuration. `initialized` distinguishes "nobody
/// looked yet" (read the environment on first use) from an explicit
/// [`install`], so tests and `chaos_report` can swap configs at runtime.
struct FaultsState {
    initialized: bool,
    cfg: Option<Arc<FaultConfig>>,
}

static STATE: Mutex<FaultsState> = Mutex::new(FaultsState {
    initialized: false,
    cfg: None,
});

/// Installs (or, with `None`, disarms) the process-wide fault
/// configuration, overriding whatever `BDC_FAULTS` says. `chaos_report`
/// uses this to escalate rates within one process; tests use it to run
/// hermetically.
pub fn install(cfg: Option<FaultConfig>) {
    let mut st = STATE.lock().unwrap_or_else(|p| p.into_inner());
    st.initialized = true;
    st.cfg = cfg.map(Arc::new);
}

/// The active fault configuration: the installed one, else `BDC_FAULTS`
/// from the environment (read once). Returns `None` when injection is
/// disarmed.
///
/// A malformed `BDC_FAULTS` reaching this point exits with a one-line
/// diagnostic — binaries validate it up front through
/// [`crate::env_config`], so this is a backstop, and silently ignoring an
/// explicitly requested fault spec would make chaos runs lie.
pub fn active() -> Option<Arc<FaultConfig>> {
    let mut st = STATE.lock().unwrap_or_else(|p| p.into_inner());
    if !st.initialized {
        st.initialized = true;
        st.cfg = match std::env::var("BDC_FAULTS") {
            Ok(raw) => match parse_spec(&raw) {
                Ok(cfg) => Some(Arc::new(cfg)),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                }
            },
            Err(_) => None,
        };
    }
    st.cfg.clone()
}

/// A uniform draw in `[0, 1)` that is a pure function of
/// `(seed, kind, site, attempt)`.
fn roll(seed: u64, kind: &str, site: &str, attempt: u64) -> f64 {
    let h = fnv1a(&[kind, site, &attempt.to_string()]);
    SplitMix64::new(task_seed(seed, h)).next_f64()
}

/// Whether the artifact read at `(name, key)` should be handed corrupted
/// bytes. Counts the injection when it fires.
pub fn inject_cache_corrupt(name: &str, key: u64) -> bool {
    let Some(cfg) = active() else { return false };
    if cfg.cache_corrupt <= 0.0 {
        return false;
    }
    let site = format!("{name}-{key:016x}");
    let fire = roll(cfg.seed, "cache_corrupt", &site, 0) < cfg.cache_corrupt;
    if fire {
        COUNTERS.injected_corrupt.fetch_add(1, Ordering::Relaxed);
    }
    fire
}

/// Panics (by design) when the guarded task site draws an injected fault
/// for this attempt. Call at the top of a `catch_unwind`-wrapped task;
/// retries pass an incremented `attempt` and re-roll.
pub fn maybe_panic(site: &str, attempt: u64) {
    let Some(cfg) = active() else { return };
    if cfg.task_panic <= 0.0 {
        return;
    }
    if roll(cfg.seed, "task_panic", site, attempt) < cfg.task_panic {
        COUNTERS.injected_panics.fetch_add(1, Ordering::Relaxed);
        panic!("injected fault: task panic at `{site}` (attempt {attempt})");
    }
}

/// Whether the artifact store attempt at `site` should see a synthetic
/// ENOSPC. Counts the injection when it fires.
pub fn inject_disk_full(site: &str) -> bool {
    let Some(cfg) = active() else { return false };
    if cfg.disk_full <= 0.0 {
        return false;
    }
    let fire = roll(cfg.seed, "disk_full", site, 0) < cfg.disk_full;
    if fire {
        COUNTERS.injected_disk_full.fetch_add(1, Ordering::Relaxed);
    }
    fire
}

/// Whether the peer/proxy connection attempt at `site` should be refused
/// as if the network were partitioned. Retries pass an incremented
/// `attempt` and re-roll, so a partition heals under failover. Counts the
/// injection when it fires.
pub fn inject_partition(site: &str, attempt: u64) -> bool {
    let Some(cfg) = active() else { return false };
    if cfg.partition <= 0.0 {
        return false;
    }
    let fire = roll(cfg.seed, "partition", site, attempt) < cfg.partition;
    if fire {
        COUNTERS.injected_partitions.fetch_add(1, Ordering::Relaxed);
    }
    fire
}

/// The seeded backoff delay before retry `attempt` (1-based) at `site`:
/// exponential base doubling from 5 ms, plus up to 50% deterministic
/// jitter so synchronized failures do not retry in lockstep.
pub fn backoff_delay(site: &str, attempt: u64) -> Duration {
    let seed = active().map_or(0, |c| c.seed);
    let base_ms = 5u64.saturating_mul(1 << attempt.min(6));
    let jitter = (roll(seed, "backoff", site, attempt) * 0.5 * base_ms as f64) as u64;
    Duration::from_millis(base_ms + jitter)
}

/// Process-wide survival counters (see module docs).
struct Counters {
    injected_corrupt: AtomicU64,
    injected_panics: AtomicU64,
    retries: AtomicU64,
    panics_contained: AtomicU64,
    quarantined: AtomicU64,
    rebuilt: AtomicU64,
    peer_hits: AtomicU64,
    peer_misses: AtomicU64,
    peer_pushes: AtomicU64,
    injected_disk_full: AtomicU64,
    injected_partitions: AtomicU64,
    evicted: AtomicU64,
    quarantine_reaped: AtomicU64,
}

static COUNTERS: Counters = Counters {
    injected_corrupt: AtomicU64::new(0),
    injected_panics: AtomicU64::new(0),
    retries: AtomicU64::new(0),
    panics_contained: AtomicU64::new(0),
    quarantined: AtomicU64::new(0),
    rebuilt: AtomicU64::new(0),
    peer_hits: AtomicU64::new(0),
    peer_misses: AtomicU64::new(0),
    peer_pushes: AtomicU64::new(0),
    injected_disk_full: AtomicU64::new(0),
    injected_partitions: AtomicU64::new(0),
    evicted: AtomicU64::new(0),
    quarantine_reaped: AtomicU64::new(0),
};

/// A point-in-time copy of the survival counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Artifact reads handed injected-corrupt bytes.
    pub injected_corrupt: u64,
    /// Injected task panics raised.
    pub injected_panics: u64,
    /// Task retries taken (after a panic or error).
    pub retries: u64,
    /// Panics contained by a `catch_unwind` guard.
    pub panics_contained: u64,
    /// Artifacts quarantined by the cache's verifier.
    pub quarantined: u64,
    /// Artifacts rebuilt after a quarantine.
    pub rebuilt: u64,
    /// Cache misses satisfied by a verified peer-shard fetch (no
    /// recomputation).
    pub peer_hits: u64,
    /// Peer fetches attempted but not satisfied (owner down, artifact
    /// absent, or the fetched frame failed verification).
    pub peer_misses: u64,
    /// Freshly stored artifacts pushed to their ring-owner shard.
    pub peer_pushes: u64,
    /// Artifact stores refused by an injected synthetic ENOSPC.
    pub injected_disk_full: u64,
    /// Peer/proxy connections refused by an injected partition.
    pub injected_partitions: u64,
    /// Artifacts evicted by the disk-budget LRU (real and fault-driven).
    pub evicted: u64,
    /// Quarantined artifacts reaped by the generation-age bound.
    pub quarantine_reaped: u64,
}

impl FaultCounters {
    /// The counter deltas `self - earlier` (saturating).
    pub fn since(&self, earlier: &FaultCounters) -> FaultCounters {
        FaultCounters {
            injected_corrupt: self
                .injected_corrupt
                .saturating_sub(earlier.injected_corrupt),
            injected_panics: self.injected_panics.saturating_sub(earlier.injected_panics),
            retries: self.retries.saturating_sub(earlier.retries),
            panics_contained: self
                .panics_contained
                .saturating_sub(earlier.panics_contained),
            quarantined: self.quarantined.saturating_sub(earlier.quarantined),
            rebuilt: self.rebuilt.saturating_sub(earlier.rebuilt),
            peer_hits: self.peer_hits.saturating_sub(earlier.peer_hits),
            peer_misses: self.peer_misses.saturating_sub(earlier.peer_misses),
            peer_pushes: self.peer_pushes.saturating_sub(earlier.peer_pushes),
            injected_disk_full: self
                .injected_disk_full
                .saturating_sub(earlier.injected_disk_full),
            injected_partitions: self
                .injected_partitions
                .saturating_sub(earlier.injected_partitions),
            evicted: self.evicted.saturating_sub(earlier.evicted),
            quarantine_reaped: self
                .quarantine_reaped
                .saturating_sub(earlier.quarantine_reaped),
        }
    }
}

/// Snapshots the survival counters.
pub fn counters() -> FaultCounters {
    FaultCounters {
        injected_corrupt: COUNTERS.injected_corrupt.load(Ordering::Relaxed),
        injected_panics: COUNTERS.injected_panics.load(Ordering::Relaxed),
        retries: COUNTERS.retries.load(Ordering::Relaxed),
        panics_contained: COUNTERS.panics_contained.load(Ordering::Relaxed),
        quarantined: COUNTERS.quarantined.load(Ordering::Relaxed),
        rebuilt: COUNTERS.rebuilt.load(Ordering::Relaxed),
        peer_hits: COUNTERS.peer_hits.load(Ordering::Relaxed),
        peer_misses: COUNTERS.peer_misses.load(Ordering::Relaxed),
        peer_pushes: COUNTERS.peer_pushes.load(Ordering::Relaxed),
        injected_disk_full: COUNTERS.injected_disk_full.load(Ordering::Relaxed),
        injected_partitions: COUNTERS.injected_partitions.load(Ordering::Relaxed),
        evicted: COUNTERS.evicted.load(Ordering::Relaxed),
        quarantine_reaped: COUNTERS.quarantine_reaped.load(Ordering::Relaxed),
    }
}

/// Counts a retry of a guarded task.
pub fn note_retry() {
    COUNTERS.retries.fetch_add(1, Ordering::Relaxed);
}

/// Counts a panic contained by a guard.
pub fn note_panic_contained() {
    COUNTERS.panics_contained.fetch_add(1, Ordering::Relaxed);
}

/// Counts an artifact quarantined by the cache verifier.
pub fn note_quarantine() {
    COUNTERS.quarantined.fetch_add(1, Ordering::Relaxed);
}

/// Counts an artifact rebuilt after a quarantine.
pub fn note_rebuilt() {
    COUNTERS.rebuilt.fetch_add(1, Ordering::Relaxed);
}

/// Counts a cache miss satisfied by a verified peer fetch.
pub fn note_peer_hit() {
    COUNTERS.peer_hits.fetch_add(1, Ordering::Relaxed);
}

/// Counts a peer fetch that did not produce a usable artifact.
pub fn note_peer_miss() {
    COUNTERS.peer_misses.fetch_add(1, Ordering::Relaxed);
}

/// Counts an artifact pushed to its ring-owner shard.
pub fn note_peer_push() {
    COUNTERS.peer_pushes.fetch_add(1, Ordering::Relaxed);
}

/// Counts an artifact evicted by the disk-budget LRU.
pub fn note_evicted() {
    COUNTERS.evicted.fetch_add(1, Ordering::Relaxed);
}

/// Counts a quarantined artifact reaped by the generation-age bound.
pub fn note_quarantine_reaped() {
    COUNTERS.quarantine_reaped.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_spec() {
        let cfg =
            parse_spec("cache_corrupt=0.05,task_panic=0.01,disk_full=0.1,partition=0.02,seed=42")
                .unwrap();
        assert_eq!(
            cfg,
            FaultConfig {
                cache_corrupt: 0.05,
                task_panic: 0.01,
                disk_full: 0.1,
                partition: 0.02,
                seed: 42,
            }
        );
    }

    #[test]
    fn missing_keys_default_to_inert() {
        let cfg = parse_spec("seed=7").unwrap();
        assert_eq!(cfg.cache_corrupt, 0.0);
        assert_eq!(cfg.task_panic, 0.0);
        assert!(cfg.is_inert());
    }

    #[test]
    fn rejects_bad_specs_with_diagnostics() {
        for bad in [
            "",
            "   ",
            "cache_corrupt",
            "cache_corrupt=1.5",
            "cache_corrupt=-0.1",
            "cache_corrupt=NaN",
            "task_panic=two",
            "io_slow=20ms",
            "disk_full=1.5",
            "disk_full=-0.1",
            "disk_full=NaN",
            "peer_slow=5ms",
            "partition=2",
            "partition=half",
            "seed=-1",
            "seed=1.5",
            "nosuch=1",
            "seed=1,seed=2",
            "disk_full=0.1,disk_full=0.2",
            "partition=0,partition=0",
        ] {
            let err = parse_spec(bad).expect_err(bad);
            assert!(err.contains("BDC_FAULTS"), "{bad}: {err}");
        }
    }

    #[test]
    fn spec_round_trips() {
        let cfg = FaultConfig {
            cache_corrupt: 0.125,
            task_panic: 0.5,
            disk_full: 0.25,
            partition: 0.0625,
            seed: 99,
        };
        assert_eq!(parse_spec(&cfg.to_spec()).unwrap(), cfg);
    }

    #[test]
    fn new_kinds_default_to_inert() {
        let cfg = parse_spec("seed=7").unwrap();
        assert_eq!(cfg.disk_full, 0.0);
        assert_eq!(cfg.partition, 0.0);
        assert!(cfg.is_inert());
        // Any one of the new kinds alone makes the spec non-inert.
        assert!(!parse_spec("disk_full=0.1").unwrap().is_inert());
        assert!(!parse_spec("partition=0.1").unwrap().is_inert());
    }

    #[test]
    fn partition_rolls_heal_across_attempts() {
        // A partition decision is a pure function of (site, attempt), so a
        // high-but-not-certain rate must eventually let a retry through.
        let a = roll(42, "partition", "peer:127.0.0.1:9", 0);
        let b = roll(42, "partition", "peer:127.0.0.1:9", 1);
        assert_ne!(a, b);
    }

    #[test]
    fn decisions_are_deterministic_in_the_site() {
        let a = roll(42, "task_panic", "node:fig12", 1);
        let b = roll(42, "task_panic", "node:fig12", 1);
        assert_eq!(a, b);
        assert_ne!(a, roll(42, "task_panic", "node:fig12", 2));
        assert_ne!(a, roll(43, "task_panic", "node:fig12", 1));
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn backoff_grows_and_stays_bounded() {
        let d1 = backoff_delay("node:x", 1);
        let d3 = backoff_delay("node:x", 3);
        assert!(d1 >= Duration::from_millis(10));
        assert!(d3 >= Duration::from_millis(40));
        assert!(backoff_delay("node:x", 60) <= Duration::from_millis(5 * 64 * 2));
    }
}
