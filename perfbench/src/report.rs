//! What a run reports, and the small measuring helpers every workload
//! shares: the CPU clock, percentiles, output digests, peak RSS and seed
//! mixing.

use std::fmt::Write as _;
use std::time::Duration;

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued.
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (digest, tail
    /// percentile, per-rung latencies).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite value is a bug in the
    /// benchmark and aborts the run rather than printing invalid JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The percentile ladder the tail is chosen from.
const TAIL_LADDER: [f64; 5] = [0.9, 0.95, 0.99, 0.999, 0.9999];

/// The tail percentile a workload reports: fixed per workload so the
/// metric means the same thing on every run, chosen as the highest
/// ladder step that leaves at least ten samples beyond it at the
/// workload's usual sample count. With fewer samples than that (a much
/// slower program), it steps down the ladder until ten remain beyond.
pub fn tail_quantile(preferred: f64, samples: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .filter(|&q| q <= preferred)
        .find(|&q| (samples as f64) * (1.0 - q) >= 10.0)
        .unwrap_or(0.5)
}

/// Nearest-rank quantile of `sorted` (ascending). Empty input reads 0.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Latency summary of one sample of per-operation nanoseconds.
pub struct Latency {
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub tail_q: f64,
    pub samples: usize,
}

impl Latency {
    /// The median and the `tail_q` quantile of `ns`.
    pub fn of(mut ns: Vec<u64>, tail_q: f64) -> Latency {
        ns.sort_unstable();
        Latency {
            p50_ms: quantile(&ns, 0.5) as f64 / 1e6,
            tail_ms: quantile(&ns, tail_q) as f64 / 1e6,
            tail_q,
            samples: ns.len(),
        }
    }

    /// The percentile label, e.g. `p99.9`.
    pub fn tail_label(&self) -> String {
        format!("p{}", (self.tail_q * 1000.0).round() / 10.0)
    }
}

/// FNV-1a over 64-bit words: the output digest. Stable across builds
/// and platforms, so two commits can compare digests directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn int(&mut self, v: i64) {
        self.word(v as u64);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64: derives independent per-item seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// A reading of this thread's CPU clock (`CLOCK_THREAD_CPUTIME_ID`).
///
/// Every timing of the program is taken on this clock. The load is one
/// thread that neither sleeps nor waits on I/O, so on an idle machine
/// its CPU time is its wall time; on a shared machine the CPU clock
/// leaves out the time other processes, or the hypervisor's other
/// guests (steal), run on the CPU instead.
#[derive(Clone, Copy, Debug)]
pub struct CpuInstant(u64);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

impl CpuInstant {
    pub fn now() -> CpuInstant {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `timespec` for the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the thread CPU clock is readable");
        CpuInstant(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }

    /// CPU time this thread has used since `self`.
    pub fn elapsed(self) -> Duration {
        Duration::from_nanos(CpuInstant::now().0 - self.0)
    }
}

/// Times `build` `reps` times on the CPU clock, each at reference host
/// speed for the workload's `sensitivity` (see `calib`), and returns the
/// last product with the median time: the `setup_s` metric.
pub fn timed_setup<T>(reps: usize, sensitivity: f64, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (product, time) = crate::calib::timed(sensitivity, &mut build);
        last = Some(product);
        times.push(time);
    }
    times.sort_unstable();
    let median: Duration = times[times.len() / 2];
    (last.expect("at least one set-up"), median.as_secs_f64())
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(0.99, 5_000), 0.99);
        assert_eq!(tail_quantile(0.999, 5_000), 0.99);
        assert_eq!(tail_quantile(0.999, 10_000), 0.999);
        assert_eq!(tail_quantile(0.95, 150), 0.9);
        assert_eq!(tail_quantile(0.95, 20), 0.5);
    }

    #[test]
    fn the_cpu_clock_counts_work_and_not_sleep() {
        let start = CpuInstant::now();
        std::thread::sleep(Duration::from_millis(50));
        assert!(start.elapsed() < Duration::from_millis(25));
        let start = CpuInstant::now();
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("latency_p50_ms", 1.25, "ms");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
