//! Host-speed calibration.
//!
//! The reference host shares its cores with other tenants. For seconds
//! to minutes at a time their load slows this program by up to 1.8×
//! (user time, not steal time), so raw wall times from two runs of the
//! same code can differ by more than any bound worth setting. A short
//! benchmark-owned probe — sorting a fixed array, then evaluating a
//! fixed random gate network — slows down with it: read between the
//! campaigns of 40 rounds, each of its two parts tracked the program's
//! per-round speed with correlation 0.9 on both tiled workloads (see
//! `README.md`).
//!
//! The measured loop reads the probe between timed steps. Each step's
//! wall time is then scaled by [`REFERENCE_PROBE_S`] over the median
//! probe reading around it: the time the step would have taken at the
//! probe speed the reference host shows when it is quiet. The probe is
//! the benchmark's own code, so a change to the program moves the
//! scaled times exactly as it moves the raw ones.

use std::time::Instant;

/// Median probe time on the quiet reference host (2-core Intel Xeon),
/// in seconds. It fixes the scale only: ratios between runs, and so
/// every comparison, do not depend on it.
pub const REFERENCE_PROBE_S: f64 = 0.000_38;
/// Readings this far before a step starts or after it ends still count
/// for the step.
const WINDOW_S: f64 = 2.0;
/// Elements the probe sorts.
const SORT_LEN: usize = 1 << 14;
/// Gates in the probe's network; with [`GATE_SWEEPS`] its values fit
/// the first-level cache, where the other tenants' load shows most.
const GATES: usize = 2048;
/// Evaluations of the whole network per probe.
const GATE_SWEEPS: usize = 24;
/// Primary inputs of the network.
const GATE_INPUTS: usize = 64;

/// The probe and its readings over one run.
pub struct HostSpeed {
    start: Instant,
    sort_data: Vec<u32>,
    scratch: Vec<u32>,
    /// Per gate: the two fan-in indices and the operation.
    gates: Vec<(u32, u32, u8)>,
    values: Vec<u64>,
    rng: u64,
    /// `(seconds since start, probe seconds)`, in time order.
    readings: Vec<(f64, f64)>,
}

impl HostSpeed {
    /// A probe with fixed data; no readings yet.
    pub fn new() -> Self {
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let sort_data = (0..SORT_LEN).map(|_| xorshift(&mut rng) as u32).collect();
        let gates = (0..GATES)
            .map(|i| {
                let mut fanin = || {
                    if i < GATE_INPUTS {
                        i as u32
                    } else {
                        (xorshift(&mut rng) % i as u64) as u32
                    }
                };
                let (a, b) = (fanin(), fanin());
                (a, b, (xorshift(&mut rng) % 3) as u8)
            })
            .collect();
        HostSpeed {
            start: Instant::now(),
            sort_data,
            scratch: vec![0; SORT_LEN],
            gates,
            values: vec![0; GATES],
            rng,
            readings: Vec::new(),
        }
    }

    /// Seconds since the probe was made: the clock steps are placed on.
    pub fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Runs the probe `n` times and records each reading.
    pub fn read(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            self.scratch.copy_from_slice(&self.sort_data);
            self.scratch.sort_unstable();
            std::hint::black_box(&self.scratch);
            for sweep in 0..GATE_SWEEPS {
                for i in 0..GATE_INPUTS {
                    self.values[i] = xorshift(&mut self.rng) ^ sweep as u64;
                }
                for i in GATE_INPUTS..GATES {
                    let (a, b, op) = self.gates[i];
                    let (x, y) = (self.values[a as usize], self.values[b as usize]);
                    self.values[i] = match op {
                        0 => x & y,
                        1 => x | !y,
                        _ => x ^ y,
                    };
                }
            }
            std::hint::black_box(&self.values);
            let secs = t.elapsed().as_secs_f64();
            let mid = (t - self.start).as_secs_f64() + secs / 2.0;
            self.readings.push((mid, secs));
        }
    }

    /// Median of the readings from [`WINDOW_S`] before `from` to
    /// [`WINDOW_S`] after `to`; the nearest reading on each side when
    /// the window holds none.
    fn local_probe_s(&self, from: f64, to: f64) -> f64 {
        let lo = self.readings.partition_point(|r| r.0 < from - WINDOW_S);
        let hi = self.readings.partition_point(|r| r.0 <= to + WINDOW_S);
        let window: Vec<f64> = if lo < hi {
            self.readings[lo..hi].iter().map(|r| r.1).collect()
        } else {
            let at = self.readings.partition_point(|r| r.0 < from);
            self.readings[at.saturating_sub(1)..(at + 1).min(self.readings.len())]
                .iter()
                .map(|r| r.1)
                .collect()
        };
        crate::median(&window)
    }

    /// `wall_s` measured over `[from, to]`, scaled to the quiet
    /// reference host.
    pub fn scale(&self, wall_s: f64, from: f64, to: f64) -> f64 {
        wall_s * REFERENCE_PROBE_S / self.local_probe_s(from, to)
    }

    /// Median over every reading of the run.
    pub fn median_probe_s(&self) -> f64 {
        crate::median(&self.readings.iter().map(|r| r.1).collect::<Vec<_>>())
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}
