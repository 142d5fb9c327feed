//! Property tests for the `BDC_FAULTS` spec parser.
//!
//! Two contracts are pinned:
//!
//! * **Round trip** — any valid [`FaultConfig`] renders via
//!   [`FaultConfig::to_spec`] into text that [`faults::parse_spec`]
//!   accepts and parses back to an equal config, whitespace and key
//!   order notwithstanding.
//! * **Rejection, never panic** — unknown keys, duplicate keys,
//!   out-of-range rates, and arbitrary junk all come back as `Err` with
//!   a diagnostic naming `BDC_FAULTS`; the parser never panics.

use std::time::Duration;

use proptest::prelude::*;

use bdc_exec::faults::{self, FaultConfig};

/// A valid config: rates anywhere in `[0, 1]`, any seed.
fn arb_config() -> BoxedStrategy<FaultConfig> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(|(c, t, d, p, seed)| FaultConfig {
            cache_corrupt: f64::from(c) / f64::from(u32::MAX),
            task_panic: f64::from(t) / f64::from(u32::MAX),
            disk_full: f64::from(d) / f64::from(u32::MAX),
            partition: f64::from(p) / f64::from(u32::MAX),
            seed,
        })
        .boxed()
}

/// A short lowercase identifier (`[a-z_]`), for unknown-key draws.
fn arb_ident() -> BoxedStrategy<String> {
    proptest::collection::vec(0u32..27, 1..16)
        .prop_map(|codes| {
            codes
                .into_iter()
                .map(|c| {
                    if c == 26 {
                        '_'
                    } else {
                        char::from(b'a' + c as u8)
                    }
                })
                .collect()
        })
        .boxed()
}

proptest! {
    #[test]
    fn spec_round_trips(cfg in arb_config()) {
        let spec = cfg.to_spec();
        let parsed = faults::parse_spec(&spec).expect("to_spec output must parse");
        prop_assert_eq!(parsed, cfg);
    }

    #[test]
    fn whitespace_and_key_order_do_not_matter(cfg in arb_config(), swap in any::<bool>()) {
        let mut pairs = [
            format!("cache_corrupt = {}", cfg.cache_corrupt),
            format!("task_panic = {}", cfg.task_panic),
            format!("disk_full = {}", cfg.disk_full),
            format!("partition = {}", cfg.partition),
            format!("seed = {}", cfg.seed),
        ];
        if swap {
            pairs.reverse();
        }
        let spec = format!("  {}  ", pairs.join(" , "));
        prop_assert_eq!(faults::parse_spec(&spec).expect("spaced spec"), cfg);
    }

    #[test]
    fn omitted_keys_default_to_inert(seed in any::<u64>()) {
        let cfg = faults::parse_spec(&format!("seed={seed}")).expect("seed-only spec");
        prop_assert!(cfg.is_inert());
        prop_assert_eq!(cfg.seed, seed);
    }

    #[test]
    fn unknown_keys_are_rejected(key in arb_ident(), value in 0u32..2) {
        prop_assume!(!matches!(
            key.as_str(),
            "cache_corrupt" | "task_panic" | "disk_full" | "partition" | "seed"
        ));
        let err = faults::parse_spec(&format!("{key}={value}")).unwrap_err();
        prop_assert!(err.contains("BDC_FAULTS"), "diagnostic must name the variable: {}", err);
        prop_assert!(err.contains(&key), "diagnostic must name the key: {}", err);
    }

    #[test]
    fn duplicate_keys_are_rejected(cfg in arb_config()) {
        let spec = format!("seed={},seed={}", cfg.seed, cfg.seed);
        let err = faults::parse_spec(&spec).unwrap_err();
        prop_assert!(err.contains("twice"), "{}", err);
    }

    #[test]
    fn out_of_range_rates_are_rejected(excess in any::<u32>(), negative in any::<bool>()) {
        // Anything outside [0, 1] on either side must be refused.
        let rate = 1.0 + f64::from(excess.max(1)) / f64::from(u32::MAX);
        let value = if negative { -rate } else { rate };
        let err = faults::parse_spec(&format!("task_panic={value}")).unwrap_err();
        prop_assert!(err.contains("BDC_FAULTS"), "{}", err);
        prop_assert!(err.contains("[0, 1]"), "{}", err);
    }

    #[test]
    fn arbitrary_junk_is_rejected_without_panicking(
        bytes in proptest::collection::vec(32u8..=126, 0..64),
    ) {
        // Printable-ASCII fuzz: the parser returns Ok or a BDC_FAULTS
        // diagnostic — it never panics. (Most draws are junk; the few
        // that happen to be valid specs are fine too.)
        let raw: String = bytes.into_iter().map(char::from).collect();
        if let Err(e) = faults::parse_spec(&raw) {
            prop_assert!(e.contains("BDC_FAULTS"), "diagnostic must name the variable: {}", e);
        }
    }

    #[test]
    fn backoff_is_deterministic_and_bounded(
        site_bytes in proptest::collection::vec(97u8..=122, 1..24),
        attempt in 0u64..16,
    ) {
        let site: String = site_bytes.into_iter().map(char::from).collect();
        let d1 = faults::backoff_delay(&site, attempt);
        let d2 = faults::backoff_delay(&site, attempt);
        prop_assert_eq!(d1, d2, "same (site, attempt) must sleep identically");
        // Base 5 ms doubling (capped at 2^6), plus at most 50% jitter.
        let base = 5u64 * (1 << attempt.min(6));
        prop_assert!(d1 >= Duration::from_millis(base));
        prop_assert!(d1 <= Duration::from_millis(base + base / 2 + 1));
    }
}
