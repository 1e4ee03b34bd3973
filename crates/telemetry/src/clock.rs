//! The workspace's single wall-clock.
//!
//! This module is the only place in the workspace allowed to call
//! `std::time::Instant::now()` (clippy's `disallowed_methods`, configured
//! in the root `clippy.toml`, rejects it everywhere else, tests
//! included). Routing stages, the simulated device, the executor and the
//! bench harness all measure through [`Stopwatch`], so every reported
//! second originates from one clock.

use std::time::Instant;

/// A started wall-clock stopwatch.
///
/// # Example
///
/// ```
/// use fastgr_telemetry::Stopwatch;
///
/// let clock = Stopwatch::start();
/// let seconds = clock.elapsed_seconds();
/// assert!(seconds >= 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a stopwatch at the current instant.
    #[expect(clippy::disallowed_methods, reason = "the workspace's one clock")]
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Microseconds elapsed since [`Stopwatch::start`] (the Chrome
    /// `trace_event` time unit).
    pub fn elapsed_micros(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e6
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let clock = Stopwatch::start();
        let a = clock.elapsed_seconds();
        let b = clock.elapsed_seconds();
        assert!(b >= a);
        assert!(a >= 0.0);
    }

    #[test]
    fn micros_follow_seconds() {
        let clock = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let s = clock.elapsed_seconds();
        let us = clock.elapsed_micros();
        assert!(us >= s * 1e6 * 0.5, "{us} vs {s}");
    }
}
