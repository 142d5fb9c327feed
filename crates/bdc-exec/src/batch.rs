//! The batched-transient lane-count knob.
//!
//! The SoA lockstep kernel in `bdc-circuit` advances up to `batch_lanes()`
//! independent grid points per transient call. Like the worker count in
//! [`crate::pool`], the knob resolves override → environment → default, and
//! a malformed value is rejected loudly instead of silently falling back.
//! `BDC_BATCH_LANES=1` selects the scalar reference path; every lane count
//! produces byte-identical results — lanes only change how the work is
//! scheduled, never what it computes.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Lane count used when neither the override nor the environment says
/// otherwise. Eight matches the widest slew-grid chunk the characterization
/// packs produce and two AVX-512 / four AVX2 f64 vectors.
pub const DEFAULT_BATCH_LANES: usize = 8;

/// Largest accepted lane count: beyond this the batch state outgrows L1
/// for the bigger cells and lockstep divergence (stragglers holding the
/// batch) outweighs vector width.
pub const MAX_BATCH_LANES: usize = 32;

/// Lane-count override installed by [`set_batch_lanes`]; 0 means "not set".
static LANE_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the lane count for subsequent [`batch_lanes`] reads in this
/// process. `None` restores the default resolution order (environment,
/// then [`DEFAULT_BATCH_LANES`]). The parity suite uses this to pin
/// scalar-vs-batched runs without mutating the environment.
pub fn set_batch_lanes(n: Option<usize>) {
    LANE_OVERRIDE.store(
        n.map_or(0, |v| v.clamp(1, MAX_BATCH_LANES)),
        Ordering::Relaxed,
    );
}

/// The lane count batched characterization will use: the
/// [`set_batch_lanes`] override if installed, else `BDC_BATCH_LANES` from
/// the environment, else [`DEFAULT_BATCH_LANES`].
///
/// A malformed `BDC_BATCH_LANES` prints the parser's one-line diagnostic
/// to stderr and exits with status 2, exactly like [`crate::workers`]:
/// a typo'd knob must not silently run a different kernel than the user
/// asked to measure. Binaries that call [`crate::env_config`] up front
/// never reach this backstop.
pub fn batch_lanes() -> usize {
    let forced = LANE_OVERRIDE.load(Ordering::Relaxed);
    if forced != 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("BDC_BATCH_LANES") {
        return parse_batch_lanes(&raw).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
    }
    DEFAULT_BATCH_LANES
}

/// Validates a `BDC_BATCH_LANES` value: an integer in
/// `1..=`[`MAX_BATCH_LANES`], surrounding whitespace tolerated.
///
/// # Errors
/// A one-line diagnostic naming the variable and the offending value.
pub fn parse_batch_lanes(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "BDC_BATCH_LANES must be >= 1 (use 1 for the scalar reference path), got `{raw}`"
        )),
        Ok(n) if n > MAX_BATCH_LANES => Err(format!(
            "BDC_BATCH_LANES must be <= {MAX_BATCH_LANES}, got `{raw}`"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "BDC_BATCH_LANES must be a positive integer (e.g. `BDC_BATCH_LANES=8`), got `{raw}`"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serialize tests that touch the global override.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn set_batch_lanes_overrides_default() {
        let _g = LOCK.lock().unwrap();
        set_batch_lanes(Some(4));
        assert_eq!(batch_lanes(), 4);
        set_batch_lanes(Some(1));
        assert_eq!(batch_lanes(), 1);
        set_batch_lanes(None);
        // Default resolution (no env mutation in tests): either the
        // documented default or whatever the ambient environment pins.
        assert!((1..=MAX_BATCH_LANES).contains(&batch_lanes()));
    }

    #[test]
    fn override_is_clamped_into_range() {
        let _g = LOCK.lock().unwrap();
        set_batch_lanes(Some(10_000));
        assert_eq!(batch_lanes(), MAX_BATCH_LANES);
        set_batch_lanes(Some(0));
        // 0 would mean "not set"; the setter clamps it to the scalar path.
        assert_eq!(batch_lanes(), 1);
        set_batch_lanes(None);
    }

    #[test]
    fn parse_accepts_in_range_integers() {
        for (raw, expect) in [("1", 1), ("4", 4), (" 8 ", 8), ("32", 32)] {
            assert_eq!(parse_batch_lanes(raw), Ok(expect), "{raw:?}");
        }
    }

    #[test]
    fn parse_rejects_with_a_diagnostic() {
        for raw in ["0", "33", "-2", "", " ", "abc", "1.5", "8lanes", "+"] {
            let err = parse_batch_lanes(raw).expect_err(raw);
            assert!(
                err.contains("BDC_BATCH_LANES"),
                "diagnostic names the knob: {err}"
            );
            assert!(err.contains(raw.trim()) || raw.trim().is_empty(), "{err}");
        }
    }
}
