//! The transport study: endpoint-driven reliable signaling measured over
//! a grid of drop rate × retransmission timeout × backoff, for all four
//! protocols, plus a failure-detector leg against a ground-truth crash
//! schedule.
//!
//! Each grid run draws a synthetic §5.1 system, attaches a constant-
//! latency channel with seeded endpoint drops and the ack/retransmit
//! transport (unbounded retry budget), and simulates it next to a
//! drop-free twin of the same system. The study reports, per
//! `(protocol, drop rate, timeout, backoff)` cell,
//!
//! * **deadline-miss-or-loss ratio** — `(missed + lost) / (measured +
//!   lost)` end-to-end instances;
//! * **EER inflation** — mean per-task `avg-EER(lossy) /
//!   avg-EER(drop-free)`, isolating what retransmission delay alone
//!   costs;
//! * **transport counters** — frames, retransmissions, duplicate
//!   deliveries, abandoned frames (always zero here: the budget is
//!   unbounded).
//!
//! The detector leg injects seeded random crashes
//! ([`rtsync_sim::CrashSchedule::Random`]) under a heartbeat failure
//! detector and reports detection accuracy against the ground-truth
//! schedule: suspects/deads with their false-positive counts, the
//! false-positive rate, forced (degraded) releases and suppressed stale
//! signals.
//!
//! Like [`chaos`](crate::chaos), both legs are embarrassingly parallel
//! over runs and bit-for-bit deterministic for a given seed regardless
//! of the thread count.

use crate::campaign::{
    fmt_f64, mean, mean_inflation, miss_or_loss_ratio, missed_and_measured, run_grid, Csv,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::protocol::Protocol;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, SimConfig};
use rtsync_sim::nonideal::ChannelModel;
use rtsync_sim::{DetectorConfig, FaultConfig, TransportConfig, ViolationKind};
use rtsync_workload::{generate, WorkloadSpec};

/// Transport-study parameters.
#[derive(Clone, Debug)]
pub struct TransportStudyConfig {
    /// Protocols under test.
    pub protocols: Vec<Protocol>,
    /// Endpoint drop probabilities, one grid level per value.
    pub drop_rates: Vec<f64>,
    /// Initial retransmission timeouts (ticks), one grid level per value.
    pub timeouts: Vec<i64>,
    /// Exponential backoff factors, one grid level per value (the timeout
    /// cap is always `8 × timeout`).
    pub backoffs: Vec<u32>,
    /// Runs per grid cell (distinct synthetic systems).
    pub runs_per_cell: usize,
    /// Subtasks per task of the synthetic systems.
    pub n: usize,
    /// Per-processor utilization of the synthetic systems.
    pub u: f64,
    /// End-to-end instances simulated per task.
    pub instances_per_task: u64,
    /// Constant one-way signal latency (ticks).
    pub signal_latency: i64,
    /// Detector leg: mean uptime between crashes (ticks).
    pub mean_uptime: i64,
    /// Detector leg: restart delay after each crash (ticks).
    pub restart_delay: i64,
    /// Detector leg: heartbeat period (ticks); suspicion and death
    /// thresholds keep their defaults (3× and 6× the period).
    pub heartbeat_period: i64,
    /// Detector leg: runs per protocol.
    pub detector_runs: usize,
    /// Master seed; system and channel seeds derive from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for TransportStudyConfig {
    fn default() -> TransportStudyConfig {
        TransportStudyConfig {
            protocols: Protocol::ALL.to_vec(),
            drop_rates: vec![0.0, 0.1, 0.3, 0.5],
            timeouts: vec![2_000, 8_000],
            backoffs: vec![1, 2],
            runs_per_cell: 3,
            n: 3,
            u: 0.6,
            instances_per_task: 10,
            signal_latency: 1_000,
            mean_uptime: 2_000_000,
            restart_delay: 300_000,
            heartbeat_period: 10_000,
            detector_runs: 5,
            seed: 0x7EA5_0A7B,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl TransportStudyConfig {
    /// A reduced study for CI smoke jobs and tests: the same axes with
    /// fewer levels and runs.
    pub fn smoke() -> TransportStudyConfig {
        TransportStudyConfig {
            drop_rates: vec![0.0, 0.3],
            timeouts: vec![2_000],
            backoffs: vec![2],
            runs_per_cell: 1,
            instances_per_task: 6,
            detector_runs: 2,
            ..TransportStudyConfig::default()
        }
    }

    /// Total grid runs (the detector leg adds `protocols × detector_runs`).
    pub fn total_grid_runs(&self) -> usize {
        self.protocols.len()
            * self.drop_rates.len()
            * self.timeouts.len()
            * self.backoffs.len()
            * self.runs_per_cell
    }
}

/// Aggregate of one `(protocol, drop rate, timeout, backoff)` cell.
#[derive(Clone, Debug)]
pub struct TransportCell {
    /// The protocol.
    pub protocol: Protocol,
    /// Endpoint drop probability.
    pub drop_rate: f64,
    /// Initial retransmission timeout (ticks).
    pub timeout: i64,
    /// Backoff factor.
    pub backoff: u32,
    /// Runs aggregated.
    pub runs: usize,
    /// Frames sent (first transmissions).
    pub sent: u64,
    /// Retransmissions.
    pub retransmissions: u64,
    /// Duplicate deliveries suppressed by sequence numbers.
    pub dup_deliveries: u64,
    /// Frames abandoned (must be zero: the budget is unbounded).
    pub gave_up: u64,
    /// End-to-end instances lost.
    pub lost: u64,
    /// Aggregate `(missed + lost) / (measured + lost)`.
    pub miss_or_loss_ratio: f64,
    /// Mean per-run mean EER inflation over the drop-free twin.
    pub mean_inflation: f64,
    /// Runs that stopped before resolving every instance.
    pub stalls: usize,
}

/// Detection accuracy of one protocol's detector-leg runs.
#[derive(Clone, Debug)]
pub struct DetectorSummary {
    /// The protocol.
    pub protocol: Protocol,
    /// Runs aggregated.
    pub runs: usize,
    /// Ground-truth crashes injected.
    pub crashes: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// Suspect transitions (with how many were false).
    pub suspects: u64,
    /// Suspect transitions while the subject was actually up.
    pub false_suspects: u64,
    /// Dead declarations.
    pub deads: u64,
    /// Dead declarations while the subject was actually up.
    pub false_deads: u64,
    /// Degraded releases forced from local information.
    pub forced_releases: u64,
    /// Real signals suppressed because their instance was force-released.
    pub stale_suppressed: u64,
    /// `SignalLost` violations (must be zero: the budget is unbounded).
    pub signal_lost: u64,
    /// End-to-end instances lost (to crashes, never to the transport).
    pub lost: u64,
    /// Aggregate `(missed + lost) / (measured + lost)`.
    pub miss_or_loss_ratio: f64,
}

impl DetectorSummary {
    /// `false_deads / deads`, `None` before any dead declaration.
    pub fn false_positive_rate(&self) -> Option<f64> {
        (self.deads > 0).then(|| self.false_deads as f64 / self.deads as f64)
    }
}

/// The whole study's outcome.
#[derive(Clone, Debug)]
pub struct TransportOutcome {
    /// Grid cells: protocol outer, then drop rate, timeout, backoff.
    pub cells: Vec<TransportCell>,
    /// Detector-leg accuracy, one row per protocol.
    pub detectors: Vec<DetectorSummary>,
}

impl TransportOutcome {
    /// `true` when no run abandoned a frame, lost an instance to the
    /// transport, or stalled.
    pub fn is_clean(&self) -> bool {
        self.cells.iter().all(|c| c.gave_up == 0 && c.stalls == 0)
            && self.detectors.iter().all(|d| d.signal_lost == 0)
    }
}

struct GridRun {
    sent: u64,
    retransmissions: u64,
    dup_deliveries: u64,
    gave_up: u64,
    lost: u64,
    missed: u64,
    measured: u64,
    inflation: f64,
    stalled: bool,
}

fn grid_sim(cfg: &TransportStudyConfig, cell: &(Protocol, f64, i64, u32), seed: u64) -> SimConfig {
    let &(protocol, drop, timeout, backoff) = cell;
    let channel = ChannelModel::constant(Dur::from_ticks(cfg.signal_latency))
        .with_endpoint_drops(drop)
        .with_seed(seed ^ 0xCAFE);
    SimConfig::new(protocol)
        .with_instances(cfg.instances_per_task)
        .with_channel(channel)
        .with_transport(
            TransportConfig::new(Dur::from_ticks(timeout))
                .with_backoff(backoff, Dur::from_ticks(8 * timeout))
                .with_seed(seed ^ 0xF00D),
        )
}

fn evaluate_grid_run(
    cfg: &TransportStudyConfig,
    cell: &(Protocol, f64, i64, u32),
    system_seed: u64,
) -> GridRun {
    let spec = WorkloadSpec::paper(cfg.n, cfg.u).with_random_phases();
    let set = generate(&spec, &mut StdRng::seed_from_u64(system_seed))
        .expect("paper spec always generates");
    let lossy = simulate(&set, &grid_sim(cfg, cell, system_seed))
        .expect("study systems are analyzable under SA/PM");
    // The drop-free twin rides the identical channel and transport so the
    // inflation attributes retransmission delay alone.
    let twin_cell = (cell.0, 0.0, cell.2, cell.3);
    let baseline = simulate(&set, &grid_sim(cfg, &twin_cell, system_seed))
        .expect("study systems are analyzable under SA/PM");

    let (missed, measured) = missed_and_measured(&lossy);
    let ts = &lossy.transport_stats;
    GridRun {
        sent: ts.sent,
        retransmissions: ts.retransmissions,
        dup_deliveries: ts.dup_deliveries,
        gave_up: ts.gave_up,
        lost: lossy.metrics.total_lost(),
        missed,
        measured,
        inflation: mean_inflation(&baseline, &lossy),
        stalled: !lossy.reached_target,
    }
}

struct DetectorRun {
    crashes: u64,
    heartbeats: u64,
    suspects: u64,
    false_suspects: u64,
    deads: u64,
    false_deads: u64,
    forced_releases: u64,
    stale_suppressed: u64,
    signal_lost: u64,
    lost: u64,
    missed: u64,
    measured: u64,
}

fn evaluate_detector_run(
    cfg: &TransportStudyConfig,
    protocol: Protocol,
    system_seed: u64,
    fault_seed: u64,
) -> DetectorRun {
    let spec = WorkloadSpec::paper(cfg.n, cfg.u).with_random_phases();
    let set = generate(&spec, &mut StdRng::seed_from_u64(system_seed))
        .expect("paper spec always generates");
    let channel = ChannelModel::constant(Dur::from_ticks(cfg.signal_latency))
        .with_endpoint_drops(0.2)
        .with_seed(system_seed ^ 0xCAFE);
    let faults = FaultConfig::random(
        Dur::from_ticks(cfg.mean_uptime),
        Dur::from_ticks(cfg.restart_delay),
        fault_seed,
    );
    let sim = SimConfig::new(protocol)
        .with_instances(cfg.instances_per_task)
        .with_channel(channel)
        .with_faults(faults)
        .with_transport(
            TransportConfig::new(Dur::from_ticks(4 * cfg.signal_latency.max(250)))
                .with_seed(system_seed ^ 0xF00D)
                .with_detector(DetectorConfig::new(Dur::from_ticks(cfg.heartbeat_period))),
        );
    let out = simulate(&set, &sim).expect("study systems are analyzable under SA/PM");
    let (missed, measured) = missed_and_measured(&out);
    let ds = &out.detect_stats;
    DetectorRun {
        crashes: out.fault_stats.crashes,
        heartbeats: ds.heartbeats_sent,
        suspects: ds.suspects,
        false_suspects: ds.false_suspects,
        deads: ds.deads,
        false_deads: ds.false_deads,
        forced_releases: ds.forced_releases,
        stale_suppressed: ds.stale_signals_suppressed,
        signal_lost: out
            .violations
            .iter()
            .filter(|v| v.kind == ViolationKind::SignalLost)
            .count() as u64,
        lost: out.metrics.total_lost(),
        missed,
        measured,
    }
}

/// Runs the whole study: the drop × timeout × backoff grid (unbounded
/// retry budget) and the detector leg (random crashes, heartbeat
/// detection). Bit-for-bit deterministic for a given config regardless
/// of `threads`.
pub fn run_transport_study(cfg: &TransportStudyConfig) -> TransportOutcome {
    let cells: Vec<(Protocol, f64, i64, u32)> = cfg
        .protocols
        .iter()
        .flat_map(|&p| {
            cfg.drop_rates.iter().flat_map(move |&d| {
                cfg.timeouts
                    .iter()
                    .flat_map(move |&t| cfg.backoffs.iter().map(move |&b| (p, d, t, b)))
            })
        })
        .collect();
    let grid = run_grid(
        cfg.seed,
        &cells,
        cfg.runs_per_cell,
        cfg.threads,
        |cell, job| evaluate_grid_run(cfg, cell, job.system_seed),
    );
    let legs = run_grid(
        cfg.seed,
        &cfg.protocols,
        cfg.detector_runs,
        cfg.threads,
        |&protocol, job| evaluate_detector_run(cfg, protocol, job.system_seed, job.cond_seed),
    );

    let cells = cells
        .iter()
        .zip(&grid)
        .map(|(&(protocol, drop_rate, timeout, backoff), runs)| {
            let total = |f: fn(&GridRun) -> u64| runs.iter().map(f).sum::<u64>();
            TransportCell {
                protocol,
                drop_rate,
                timeout,
                backoff,
                runs: runs.len(),
                sent: total(|r| r.sent),
                retransmissions: total(|r| r.retransmissions),
                dup_deliveries: total(|r| r.dup_deliveries),
                gave_up: total(|r| r.gave_up),
                lost: total(|r| r.lost),
                miss_or_loss_ratio: miss_or_loss_ratio(
                    total(|r| r.missed),
                    total(|r| r.lost),
                    total(|r| r.measured),
                ),
                mean_inflation: mean(runs.iter().map(|r| r.inflation).filter(|v| v.is_finite())),
                stalls: runs.iter().filter(|r| r.stalled).count(),
            }
        })
        .collect();

    let detectors = cfg
        .protocols
        .iter()
        .zip(&legs)
        .map(|(&protocol, runs)| {
            let total = |f: fn(&DetectorRun) -> u64| runs.iter().map(f).sum::<u64>();
            DetectorSummary {
                protocol,
                runs: runs.len(),
                crashes: total(|r| r.crashes),
                heartbeats: total(|r| r.heartbeats),
                suspects: total(|r| r.suspects),
                false_suspects: total(|r| r.false_suspects),
                deads: total(|r| r.deads),
                false_deads: total(|r| r.false_deads),
                forced_releases: total(|r| r.forced_releases),
                stale_suppressed: total(|r| r.stale_suppressed),
                signal_lost: total(|r| r.signal_lost),
                lost: total(|r| r.lost),
                miss_or_loss_ratio: miss_or_loss_ratio(
                    total(|r| r.missed),
                    total(|r| r.lost),
                    total(|r| r.measured),
                ),
            }
        })
        .collect();

    TransportOutcome { cells, detectors }
}

/// Grid CSV: one row per `(protocol, drop rate, timeout, backoff)` cell.
pub fn grid_csv(outcome: &TransportOutcome) -> String {
    Csv::new(&outcome.cells)
        .col("protocol", |c| c.protocol.tag())
        .col("drop_rate", |c| c.drop_rate)
        .col("timeout", |c| c.timeout)
        .col("backoff", |c| c.backoff)
        .col("runs", |c| c.runs)
        .col("sent", |c| c.sent)
        .col("retransmissions", |c| c.retransmissions)
        .col("dup_deliveries", |c| c.dup_deliveries)
        .col("gave_up", |c| c.gave_up)
        .col("lost", |c| c.lost)
        .float("miss_or_loss_ratio", |c| c.miss_or_loss_ratio)
        .float("mean_inflation", |c| c.mean_inflation)
        .col("stalls", |c| c.stalls)
        .render()
}

/// Detector-leg CSV: one row per protocol, with the false-positive rate
/// against the ground-truth crash schedule.
pub fn summary_csv(outcome: &TransportOutcome) -> String {
    Csv::new(&outcome.detectors)
        .col("protocol", |d| d.protocol.tag())
        .col("runs", |d| d.runs)
        .col("crashes", |d| d.crashes)
        .col("heartbeats", |d| d.heartbeats)
        .col("suspects", |d| d.suspects)
        .col("false_suspects", |d| d.false_suspects)
        .col("deads", |d| d.deads)
        .col("false_deads", |d| d.false_deads)
        .float("false_positive_rate", |d| {
            d.false_positive_rate().unwrap_or(f64::NAN)
        })
        .col("forced_releases", |d| d.forced_releases)
        .col("stale_suppressed", |d| d.stale_suppressed)
        .col("signal_lost", |d| d.signal_lost)
        .col("lost", |d| d.lost)
        .float("miss_or_loss_ratio", |d| d.miss_or_loss_ratio)
        .render()
}

/// ASCII rendering of the study for the terminal.
pub fn render(outcome: &TransportOutcome) -> String {
    let mut out =
        String::from("transport study: miss-or-loss ratio (EER inflation | retransmissions)\n");
    for c in &outcome.cells {
        out.push_str(&format!(
            "  {:>3} drop {:.2} rto {:>5} x{}: {:<7} (x{:<7} | {:>5} retx){}{}\n",
            c.protocol.tag(),
            c.drop_rate,
            c.timeout,
            c.backoff,
            fmt_f64(c.miss_or_loss_ratio),
            fmt_f64(c.mean_inflation),
            c.retransmissions,
            if c.gave_up > 0 {
                format!(", {} ABANDONED", c.gave_up)
            } else {
                String::new()
            },
            if c.stalls > 0 {
                format!(", {} STALLED", c.stalls)
            } else {
                String::new()
            },
        ));
    }
    out.push_str("detector accuracy vs ground truth:\n");
    for d in &outcome.detectors {
        out.push_str(&format!(
            "  {:>3}: {} crashes, {} dead declarations ({} false, fp-rate {}), \
             {} forced releases, {} stale suppressed\n",
            d.protocol.tag(),
            d.crashes,
            d.deads,
            d.false_deads,
            d.false_positive_rate().map_or("-".into(), fmt_f64),
            d.forced_releases,
            d.stale_suppressed,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> TransportStudyConfig {
        TransportStudyConfig {
            drop_rates: vec![0.0, 0.3],
            timeouts: vec![2_000],
            backoffs: vec![2],
            runs_per_cell: 1,
            instances_per_task: 5,
            detector_runs: 1,
            threads: 2,
            ..TransportStudyConfig::default()
        }
    }

    #[test]
    fn study_is_clean_and_retransmits() {
        let outcome = run_transport_study(&tiny_cfg());
        assert!(outcome.is_clean());
        assert_eq!(outcome.cells.len(), 8);
        assert_eq!(outcome.detectors.len(), 4);
        let retx: u64 = outcome.cells.iter().map(|c| c.retransmissions).sum();
        assert!(retx > 0, "30% drops must force retransmissions");
        // Drop-free cells never retransmit (acks are loss-free here).
        for c in outcome.cells.iter().filter(|c| c.drop_rate == 0.0) {
            assert_eq!(c.retransmissions, 0, "{}", c.protocol.tag());
            assert_eq!(c.lost, 0, "{}", c.protocol.tag());
        }
        let crashes: u64 = outcome.detectors.iter().map(|d| d.crashes).sum();
        assert!(crashes > 0, "the detector leg must actually crash nodes");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut cfg = tiny_cfg();
        cfg.threads = 1;
        let a = run_transport_study(&cfg);
        cfg.threads = 4;
        let b = run_transport_study(&cfg);
        assert_eq!(grid_csv(&a), grid_csv(&b));
        assert_eq!(summary_csv(&a), summary_csv(&b));
    }

    #[test]
    fn smoke_config_covers_every_protocol() {
        let cfg = TransportStudyConfig::smoke();
        assert_eq!(cfg.protocols.len(), 4);
        assert!(cfg.total_grid_runs() >= 8);
    }
}
