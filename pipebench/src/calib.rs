//! Host-speed calibration of the wall-clock end-to-end metrics.
//!
//! A shared host's speed drifts by up to ~40 % over seconds to minutes as
//! neighbours contend for its cores and caches, and the drift moves every
//! wall-clock metric of a run together. So a fixed, benchmark-owned kernel
//! runs interleaved with the measured work (between input builds, and
//! between jobs), taking a fixed share of its wall time, and the wall-clock
//! end-to-end metrics are scaled to a reference host speed:
//! raw × [`Calibration::speed`].
//!
//! The kernel is a small leaky integrate-and-fire simulation of its own
//! over a fixed random network: scattered reads and writes over ~0.6 MB
//! and short-lived allocations, like the code it calibrates. It shares no
//! code with the crates under test, so a change to them moves the scaled
//! metrics as much as the raw ones.

use crate::wall::Stopwatch;

const NEURONS: usize = 3000;
const FAN_OUT: usize = 24;
const STEPS: usize = 24;
const INPUTS_PER_STEP: usize = 100;
/// Wall seconds of one kernel unit on the reference host: the median over
/// runs on a 2-vCPU x86-64 VM, release build.
const REFERENCE_UNIT_S: f64 = 0.009;

/// Kernel time interleaved with one measured phase of a run.
pub struct Calibration {
    targets: Vec<u32>,
    weights: Vec<f32>,
    /// Kernel seconds owed per measured second.
    share: f64,
    /// Kernel seconds owed and not yet run (negative when ahead).
    owed_s: f64,
    kernel_s: f64,
    units: u64,
}

impl Calibration {
    /// A calibration that runs the kernel for `share` of the measured time.
    pub fn new(share: f64) -> Self {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edges = NEURONS * FAN_OUT;
        let targets = (0..edges)
            .map(|_| (next() % NEURONS as u64) as u32)
            .collect();
        let weights = (0..edges)
            .map(|_| (next() % 1000) as f32 / 2000.0)
            .collect();
        Calibration {
            targets,
            weights,
            share,
            owed_s: 0.0,
            kernel_s: 0.0,
            units: 0,
        }
    }

    /// Records `measured_s` more wall seconds of measured work and runs
    /// kernel units until the kernel has had its share of them.
    pub fn keep_up(&mut self, measured_s: f64) {
        self.owed_s += self.share * measured_s;
        while self.owed_s > 0.0 {
            let s = self.unit();
            self.owed_s -= s;
            self.kernel_s += s;
            self.units += 1;
        }
    }

    /// Host speed relative to the reference host (above 1 when faster):
    /// reference ÷ measured kernel time per unit, or 1 before any unit.
    pub fn speed(&self) -> f64 {
        if self.units == 0 {
            return 1.0;
        }
        REFERENCE_UNIT_S * self.units as f64 / self.kernel_s
    }

    /// Wall seconds spent in the kernel.
    pub fn seconds(&self) -> f64 {
        self.kernel_s
    }

    /// One kernel unit: a 24-step simulation of the fixed network under the
    /// same input spikes. Returns its wall seconds.
    fn unit(&self) -> f64 {
        let t = Stopwatch::start();
        let mut potential = vec![0.0f32; NEURONS];
        let mut spikes: Vec<u32> = Vec::new();
        let mut fires = 0usize;
        for step in 0..STEPS {
            spikes.extend((0..INPUTS_PER_STEP).map(|i| ((i * 7919 + step * 101) % NEURONS) as u32));
            let mut fired = vec![false; NEURONS];
            let mut next = Vec::new();
            for &s in &spikes {
                let base = s as usize * FAN_OUT;
                for e in base..base + FAN_OUT {
                    let target = self.targets[e] as usize;
                    potential[target] += self.weights[e];
                    if potential[target] > 1.0 && !fired[target] {
                        fired[target] = true;
                        potential[target] = 0.0;
                        next.push(target as u32);
                    }
                }
            }
            for p in &mut potential {
                *p *= 0.9;
            }
            fires += next.len();
            spikes = next;
        }
        std::hint::black_box(fires);
        t.seconds()
    }
}
