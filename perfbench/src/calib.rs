//! Host-speed calibration.
//!
//! On a shared virtual machine the same single-threaded work takes
//! anywhere from 1× to 1.9× its best CPU time from one second to the
//! next: the neighbours on the physical core change how fast this vCPU
//! runs, and the CPU clock cannot tell. So every timed phase runs a
//! fixed kernel of the benchmark's own, independent of the program,
//! between blocks of about 100 ms of measured work, and scales each time
//! measured in a block to reference host speed by
//!
//! ```text
//! (REFERENCE_KERNEL_NS / mean kernel time at the block's two ends) ^ sensitivity
//! ```
//!
//! The kernel mixes what the program does — a binary heap, an ordered
//! map, short sorts and allocation — and a slow stretch of the host
//! slows the kernel and the program together (correlation 0.91 to 0.99
//! over passes of about a second), but the program more: its time goes
//! as the kernel's to a power of 1.2 to 2.1, depending on the workload
//! and on how the host is loaded. Each workload's `sensitivity` is that
//! power, fitted on the tuning host two ways: as the slope of log(time of
//! a fixed pass of the workload) against log(kernel time) over a minute
//! of passes, and from runs of the same seeds taken while the host ran
//! at speeds 1.25× to 1.8× apart.

use std::collections::{BTreeMap, BinaryHeap};
use std::time::Duration;

use crate::report::{ratio, CpuInstant};

/// The kernel's CPU time at reference host speed: about its time on the
/// 2-vCPU x86-64 virtual machine the benchmark was tuned on, when calm.
pub const REFERENCE_KERNEL_NS: f64 = 1_600_000.0;
/// Measured CPU time between two calibrations.
pub const BLOCK: Duration = Duration::from_millis(100);
const KERNEL_STEPS: u64 = 12_000;

/// The calibration kernel: deterministic work of a fixed size.
fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut heap = BinaryHeap::with_capacity(600);
    let mut map = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(std::cmp::Reverse(x % 100_000));
        if heap.len() > 512 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |r| r.0));
        }
        *map.entry(x % 4096).or_insert(0u64) += i;
        if i % 3 == 0 {
            map.remove(&(x.rotate_left(7) % 4096));
        }
        if i % 1000 == 0 {
            let mut keys: Vec<u64> = map.keys().copied().take(256).collect();
            keys.sort_unstable_by(|a, b| b.cmp(a));
            acc ^= keys.first().copied().unwrap_or(0);
        }
    }
    acc
}

/// The calibrations of one timed phase. Block `b` is the measured work
/// between calibration `b` and calibration `b + 1`.
pub struct Calibration {
    kernel_ns: Vec<u64>,
    since: Duration,
    sensitivity: f64,
}

impl Calibration {
    /// Starts a phase of a workload with the given sensitivity, with the
    /// phase's first calibration.
    pub fn start(sensitivity: f64) -> Calibration {
        let mut c = Calibration {
            kernel_ns: Vec::with_capacity(512),
            since: Duration::ZERO,
            sensitivity,
        };
        c.calibrate();
        c
    }

    fn calibrate(&mut self) {
        let start = CpuInstant::now();
        std::hint::black_box(kernel());
        self.kernel_ns.push(start.elapsed().as_nanos() as u64);
        self.since = Duration::ZERO;
    }

    /// Counts `measured` CPU time into the current block and returns that
    /// block's index; calibrates once the block is full, so the next
    /// measurement opens a new block.
    pub fn charge(&mut self, measured: Duration) -> usize {
        let block = self.kernel_ns.len() - 1;
        self.since += measured;
        if self.since >= BLOCK {
            self.calibrate();
        }
        block
    }

    /// Closes the last block. Call once, after the last measurement.
    pub fn finish(&mut self) {
        if self.since > Duration::ZERO || self.kernel_ns.len() == 1 {
            self.calibrate();
        }
    }

    /// The factor that turns a CPU time measured in `block` into a time
    /// at reference host speed.
    pub fn factor(&self, block: usize) -> f64 {
        let ends = self.kernel_ns[block] + self.kernel_ns[block + 1];
        (2.0 * REFERENCE_KERNEL_NS / ends as f64).powf(self.sensitivity)
    }

    /// `ns` measured in `block`, at reference host speed.
    pub fn scale(&self, block: usize, ns: u64) -> f64 {
        ns as f64 * self.factor(block)
    }

    /// Median host speed over the phase, relative to the reference.
    pub fn speed(&self) -> f64 {
        let mut k = self.kernel_ns.clone();
        k.sort_unstable();
        REFERENCE_KERNEL_NS / k[k.len() / 2] as f64
    }

    /// The note every timed run prints about its host: how much of the
    /// timed phase's wall time this thread was not running (steal,
    /// preemption), and how fast the host ran against the reference.
    pub fn note(&self, cpu: Duration, wall: Duration) -> String {
        let calibrating = Duration::from_nanos(self.kernel_ns.iter().sum());
        let on_cpu = ratio((cpu + calibrating).as_secs_f64(), wall.as_secs_f64());
        format!(
            "host: {:.3} s CPU measured in {:.3} s wall ({:.1}% of wall time off CPU); \
             speed {:.3} of reference, the median of {} calibrations taking {:.3} s",
            cpu.as_secs_f64(),
            wall.as_secs_f64(),
            100.0 * (1.0 - on_cpu).max(0.0),
            self.speed(),
            self.kernel_ns.len(),
            calibrating.as_secs_f64()
        )
    }
}

/// Times `f` on the CPU clock between two calibrations and returns its
/// product with the time at reference host speed.
pub fn timed<T>(sensitivity: f64, f: impl FnOnce() -> T) -> (T, Duration) {
    let mut cal = Calibration::start(sensitivity);
    let start = CpuInstant::now();
    let out = f();
    let raw = start.elapsed();
    let block = cal.charge(raw);
    cal.finish();
    let ns = cal.scale(block, raw.as_nanos() as u64);
    (out, Duration::from_nanos(ns as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_close_after_enough_work() {
        let mut cal = Calibration::start(1.0);
        assert_eq!(cal.charge(BLOCK / 2), 0);
        assert_eq!(cal.charge(BLOCK / 2), 0);
        assert_eq!(cal.charge(BLOCK / 2), 1);
        cal.finish();
        assert_eq!(cal.kernel_ns.len(), 3);
        assert!(cal.factor(0) > 0.0 && cal.factor(1) > 0.0);
    }

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }
}
