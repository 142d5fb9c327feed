//! Per-shard circuit breakers for the router's failover path.
//!
//! Each shard gets one [`Breaker`] tracking a rolling window of proxy
//! attempt outcomes (transport errors, retryable statuses, and attempts
//! slower than the `SLOW_MS` latency ceiling all count as failures).
//! When the failure fraction over a full-enough window crosses the
//! threshold the breaker **opens**: the router stops offering that shard
//! requests and routes straight to the next ring replica, so a dying
//! shard stops eating a connect timeout per request. After a bounded
//! number of bypassed routing decisions the breaker **half-opens** and
//! lets exactly one live request through as a probe; a successful probe
//! closes the breaker (window cleared — the shard starts fresh), a failed
//! one reopens it.
//!
//! The state machine is driven entirely by request outcomes and decision
//! counts — no wall-clock cool-down — so a chaos run replays the same
//! open/probe/close sequence for the same request sequence. A breaker
//! that never sees a failure never leaves `closed` and never perturbs
//! routing: the zero-fault byte-determinism gate holds.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Rolling outcome-window length.
const WINDOW: usize = 16;

/// Open when `failures / window_len >= FAILURE_THRESHOLD` (with at least
/// [`MIN_SAMPLES`] outcomes recorded).
const FAILURE_THRESHOLD: f64 = 0.5;

/// Outcomes required before a breaker may open — a single cold-start
/// failure must not blacklist a shard.
pub const MIN_SAMPLES: usize = 8;

/// Bypassed routing decisions while open before the breaker half-opens and
/// admits a probe request.
const PROBE_AFTER: u64 = 8;

/// Attempt latency (ms) counted as a failure even when the response itself
/// was fine — a shard answering at crawl speed is as routed around as a
/// dead one.
const SLOW_MS: u64 = 30_000;

/// What the router should do with a candidate shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerDecision {
    /// Closed: route normally.
    Allow,
    /// Half-open: admit this one request as the probe.
    Probe,
    /// Open (or a probe is already in flight): skip to the next replica.
    Skip,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum State {
    #[default]
    Closed,
    /// `bypassed` counts routing decisions skipped since opening.
    Open { bypassed: u64 },
    /// One probe request is in flight; its outcome decides.
    HalfOpen,
}

#[derive(Debug, Default)]
struct Inner {
    state: State,
    /// Rolling outcomes, `true` = failure, newest at the back.
    window: VecDeque<bool>,
    /// Rolling attempt latencies (ms), parallel to `window`.
    latencies: VecDeque<u64>,
    /// Times this breaker has opened (monotone, for observability).
    opened_total: u64,
}

/// One shard's circuit breaker, closed when made.
#[derive(Debug, Default)]
pub struct Breaker {
    inner: Mutex<Inner>,
}

/// An observability snapshot of one breaker.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerSnapshot {
    /// `closed` | `open` | `half-open`.
    pub state: &'static str,
    /// Failure fraction over the current window (0 when empty).
    pub failure_rate: f64,
    /// Mean attempt latency (ms) over the current window.
    pub mean_ms: f64,
    /// Times this breaker has opened since boot.
    pub opened_total: u64,
}

impl Breaker {
    /// One routing decision for this shard. Closed breakers always allow
    /// and mutate nothing, so the no-fault path is untouched.
    pub fn decide(&self) -> BreakerDecision {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        match inner.state {
            State::Closed => BreakerDecision::Allow,
            State::HalfOpen => BreakerDecision::Skip,
            State::Open { bypassed } => {
                if bypassed + 1 >= PROBE_AFTER {
                    inner.state = State::HalfOpen;
                    BreakerDecision::Probe
                } else {
                    inner.state = State::Open {
                        bypassed: bypassed + 1,
                    };
                    BreakerDecision::Skip
                }
            }
        }
    }

    /// Records the outcome of an attempt admitted by [`Breaker::decide`].
    /// `failed` covers transport errors and retryable statuses; an attempt
    /// slower than the latency ceiling counts as failed regardless.
    /// Returns `true` when this outcome transitioned the breaker
    /// (closed → open, or resolved a probe).
    pub fn record(&self, was_probe: bool, failed: bool, elapsed_ms: u64) -> bool {
        let failed = failed || elapsed_ms > SLOW_MS;
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if was_probe {
            // Resolve the half-open probe. (If the breaker was somehow
            // re-closed meanwhile, the outcome just joins the window.)
            if inner.state == State::HalfOpen {
                if failed {
                    inner.state = State::Open { bypassed: 0 };
                    inner.opened_total += 1;
                } else {
                    inner.state = State::Closed;
                    inner.window.clear();
                    inner.latencies.clear();
                }
                return true;
            }
        }
        inner.window.push_back(failed);
        inner.latencies.push_back(elapsed_ms);
        while inner.window.len() > WINDOW {
            inner.window.pop_front();
            inner.latencies.pop_front();
        }
        if inner.state == State::Closed && inner.window.len() >= MIN_SAMPLES {
            let failures = inner.window.iter().filter(|f| **f).count();
            if failures as f64 / inner.window.len() as f64 >= FAILURE_THRESHOLD {
                inner.state = State::Open { bypassed: 0 };
                inner.opened_total += 1;
                return true;
            }
        }
        false
    }

    /// Whether the breaker is currently routing around its shard.
    pub fn is_open(&self) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        !matches!(inner.state, State::Closed)
    }

    /// The observability snapshot for `/v1/metrics`.
    pub fn snapshot(&self) -> BreakerSnapshot {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let n = inner.window.len();
        let failure_rate = if n == 0 {
            0.0
        } else {
            inner.window.iter().filter(|f| **f).count() as f64 / n as f64
        };
        let mean_ms = if n == 0 {
            0.0
        } else {
            inner.latencies.iter().sum::<u64>() as f64 / n as f64
        };
        BreakerSnapshot {
            state: match inner.state {
                State::Closed => "closed",
                State::Open { .. } => "open",
                State::HalfOpen => "half-open",
            },
            failure_rate,
            mean_ms,
            opened_total: inner.opened_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_breaker_always_allows_and_stays_inert() {
        let b = Breaker::default();
        for _ in 0..100 {
            assert_eq!(b.decide(), BreakerDecision::Allow);
        }
        // Healthy traffic never opens it.
        for _ in 0..100 {
            assert!(!b.record(false, false, 5));
        }
        assert!(!b.is_open());
        assert_eq!(b.snapshot().state, "closed");
        assert_eq!(b.snapshot().opened_total, 0);
    }

    /// `PROBE_AFTER - 1` skips, then the decision that probes.
    fn assert_probes_after_the_bypass_budget(b: &Breaker) {
        for _ in 1..PROBE_AFTER {
            assert_eq!(b.decide(), BreakerDecision::Skip);
        }
        assert_eq!(b.decide(), BreakerDecision::Probe);
    }

    #[test]
    fn sustained_failures_open_then_probe_then_close() {
        let b = Breaker::default();
        // Failures below MIN_SAMPLES: still closed.
        for _ in 1..MIN_SAMPLES {
            assert!(!b.record(false, true, 5));
        }
        assert!(!b.is_open());
        // The next one reaches MIN_SAMPLES at 100% failure → open.
        assert!(b.record(false, true, 5));
        assert!(b.is_open());
        assert_eq!(b.snapshot().state, "open");
        assert_probes_after_the_bypass_budget(&b);
        // While the probe is in flight, everything else skips.
        assert_eq!(b.decide(), BreakerDecision::Skip);
        assert_eq!(b.snapshot().state, "half-open");
        // Probe succeeds → closed with a fresh window.
        assert!(b.record(true, false, 5));
        assert!(!b.is_open());
        assert_eq!(b.decide(), BreakerDecision::Allow);
        assert_eq!(b.snapshot().failure_rate, 0.0);
    }

    #[test]
    fn failed_probe_reopens() {
        let b = Breaker::default();
        for _ in 0..MIN_SAMPLES {
            b.record(false, true, 5);
        }
        // An open breaker probes within its bypass budget; a bounded loop
        // turns a breaker that never probes into a failure, not a hang.
        let probed = (0..=PROBE_AFTER).any(|_| b.decide() == BreakerDecision::Probe);
        assert!(probed, "no probe within the bypass budget");
        assert!(b.record(true, true, 5));
        assert_eq!(b.snapshot().state, "open");
        assert_eq!(b.snapshot().opened_total, 2);
        // And it earns another probe after the bypass budget again.
        assert_probes_after_the_bypass_budget(&b);
    }

    #[test]
    fn slow_attempts_count_as_failures() {
        let b = Breaker::default();
        // A 200 OK at exactly the ceiling is still a success.
        for _ in 0..WINDOW {
            assert!(!b.record(false, false, SLOW_MS));
        }
        assert_eq!(b.snapshot().failure_rate, 0.0);
        // Slower than the ceiling, until half the window is slow → open.
        for _ in 1..WINDOW / 2 {
            assert!(!b.record(false, false, SLOW_MS + 1));
        }
        assert!(b.record(false, false, SLOW_MS + 1));
        assert!(b.is_open());
    }

    #[test]
    fn mixed_window_respects_the_threshold() {
        let b = Breaker::default();
        // 1 failure in 4 outcomes = 25% < 50%: stays closed at every
        // point of the window's growth and once it rolls.
        for i in 0..2 * WINDOW {
            assert!(!b.record(false, i % 4 == 0, 5));
        }
        assert!(!b.is_open());
        let snap = b.snapshot();
        assert!((snap.failure_rate - 0.25).abs() < 1e-12);
        assert!(snap.mean_ms > 0.0);
    }
}
