//! Injectable time sources for the whole stack.
//!
//! Lint rule L007 bans ambient wall-clock reads (`Instant::now`) outside
//! this file and the bench timing loop: a trace, span, cost sample or
//! transport that reads the real clock cannot be replayed bit-identically. All timing therefore
//! goes through the [`Clock`] trait — production code uses [`WallClock`]
//! (the one sanctioned wall-clock read in the workspace), while tests and
//! replay harnesses inject a [`ManualClock`] they advance explicitly.
//!
//! This module originated in `dinar-fl` and then lived in `dinar-telemetry`;
//! it sits here, at the bottom of the dependency stack, so the cost
//! accounting in [`crate::cost`], the telemetry span layer and the FL
//! runtime all share one clock abstraction (`dinar-telemetry` and
//! `dinar-fl` re-export it).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source measured from a fixed epoch.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Time elapsed since the clock's epoch.
    fn elapsed(&self) -> Duration;
}

/// The real monotonic clock, anchored at construction time.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Creates a wall clock whose epoch is "now".
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn elapsed(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A deterministic clock that only moves when [`advance`](ManualClock::advance)
/// is called — timestamps become part of the test's inputs instead of
/// ambient state.
#[derive(Debug, Default)]
pub struct ManualClock {
    micros: AtomicU64,
}

impl ManualClock {
    /// Creates a manual clock at `0`.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Advances the clock by `by`.
    pub fn advance(&self, by: Duration) {
        let us = u64::try_from(by.as_micros()).unwrap_or(u64::MAX);
        self.micros.fetch_add(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn elapsed(&self) -> Duration {
        Duration::from_micros(self.micros.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotonic() {
        let clock = WallClock::new();
        let a = clock.elapsed();
        let b = clock.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_moves_only_on_advance() {
        let clock = ManualClock::new();
        assert_eq!(clock.elapsed(), Duration::ZERO);
        clock.advance(Duration::from_millis(250));
        assert_eq!(clock.elapsed(), Duration::from_millis(250));
        assert_eq!(clock.elapsed(), Duration::from_millis(250));
        clock.advance(Duration::from_micros(3));
        assert_eq!(clock.elapsed(), Duration::from_micros(250_003));
    }

    #[test]
    fn clocks_are_object_safe_and_shareable() {
        let clock: std::sync::Arc<dyn Clock> = std::sync::Arc::new(ManualClock::new());
        let c2 = clock.clone();
        let h = std::thread::spawn(move || c2.elapsed());
        assert_eq!(h.join().expect("clock thread"), Duration::ZERO);
    }
}
