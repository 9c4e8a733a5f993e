//! The benchmark's only clock: a wall-clock stopwatch.

// lint: allow(determinism-time) — the benchmark measures wall time by design; no program result depends on it
use std::time::Instant;

/// Wall seconds since it was started.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(
    // lint: allow(determinism-time) — the benchmark measures wall time by design; no program result depends on it
    Instant,
);

impl Stopwatch {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        // lint: allow(determinism-time) — the benchmark measures wall time by design; no program result depends on it
        Stopwatch(Instant::now())
    }

    /// Wall seconds since [`Stopwatch::start`].
    pub fn seconds(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result with its wall seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::start();
    let r = f();
    (r, sw.seconds())
}
