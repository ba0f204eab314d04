//! The chaos campaign: seeded crash/recovery fault injection over a grid
//! of protocols × crash rates, every run checked against the protocol
//! invariants of [`rtsync_sim::InvariantObserver`].
//!
//! Each run draws a synthetic §5.1 system, injects a seeded random crash
//! schedule ([`rtsync_sim::CrashSchedule::Random`]) and simulates it next
//! to a fault-free baseline of the same system. The campaign reports, per
//! `(protocol, mean-uptime)` cell,
//!
//! * **deadline-miss-or-loss ratio** — `(missed + lost) / (measured +
//!   lost)` end-to-end instances, the paper's miss rate extended to count
//!   chain instances that died in a crash;
//! * **EER inflation** — mean per-task `avg-EER(faulted) /
//!   avg-EER(baseline)` over tasks that completed in both runs;
//! * **availability** — fraction of processor-ticks not spent down;
//! * **invariant verdicts** — precedence order, RG guard spacing, no
//!   activity on a down processor, signal conservation among surviving
//!   signals and bounded backlog, with any violation reported as a
//!   [`ChaosFailure`].
//!
//! A failing run is **minimized**: its random schedule is resolved to the
//! explicit crash windows that actually fired and binary-searched down to
//! the shortest time-ordered prefix that still fails, then packaged as a
//! [`ReproBundle`] (human summary + JSONL event log + Perfetto trace).
//!
//! Like [`robustness`](crate::robustness), the campaign is
//! embarrassingly parallel over runs and bit-for-bit deterministic for a
//! given seed regardless of the thread count.

use crate::campaign::{
    fmt_f64, mean, mean_inflation, miss_or_loss_ratio, missed_and_measured, run_grid, Csv, Job,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_core::time::{Dur, Time};
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig, SimOutcome};
use rtsync_sim::nonideal::ChannelModel;
use rtsync_sim::{
    CrashWindow, DetectorConfig, EventLogObserver, FaultConfig, InvariantObserver,
    InvariantViolation, OverloadPolicy, Tee, TelemetryObserver, TelemetryReport, TransportConfig,
};
use rtsync_workload::{generate, WorkloadSpec};

/// Chaos-campaign parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Protocols under test.
    pub protocols: Vec<Protocol>,
    /// Mean uptime between crashes, in ticks — one grid level per value
    /// (crash rate = 1 / mean uptime). The §5.1 workload has periods of
    /// 1e5–1e7 ticks, so meaningful uptimes are millions of ticks.
    pub mean_uptimes: Vec<i64>,
    /// Restart delay after each crash, in ticks.
    pub restart_delay: i64,
    /// Runs per `(protocol, uptime)` cell. Overload policies rotate over
    /// the run index; odd runs add a constant-latency signal channel so
    /// the conservation invariant is exercised with in-flight deliveries.
    pub runs_per_cell: usize,
    /// Subtasks per task of the synthetic systems.
    pub n: usize,
    /// Per-processor utilization of the synthetic systems.
    pub u: f64,
    /// End-to-end instances simulated per task.
    pub instances_per_task: u64,
    /// Constant signal latency (ticks) applied on odd-indexed runs.
    pub signal_latency: i64,
    /// Attach the endpoint transport (ack/retransmit + heartbeat failure
    /// detection) to every run. Channel runs gain 10% endpoint drops so
    /// retransmission is exercised alongside the crash schedule; the
    /// retry budget stays unbounded, so signal loss remains a failure.
    pub transport: bool,
    /// Master seed; system and fault seeds derive from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            protocols: Protocol::ALL.to_vec(),
            mean_uptimes: vec![20_000_000, 5_000_000, 1_000_000],
            restart_delay: 200_000,
            runs_per_cell: 17,
            n: 3,
            u: 0.6,
            instances_per_task: 12,
            signal_latency: 1_000,
            transport: false,
            seed: 0xC4A0_5CA2,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl ChaosConfig {
    /// A reduced campaign for CI smoke jobs and tests: fewer, shorter
    /// runs with the same grid shape (25 runs over the 12 cells).
    pub fn smoke() -> ChaosConfig {
        ChaosConfig {
            runs_per_cell: 3,
            instances_per_task: 6,
            ..ChaosConfig::default()
        }
    }

    /// Grid cells: protocols × crash rates.
    pub fn cells(&self) -> usize {
        self.protocols.len() * self.mean_uptimes.len()
    }

    /// Total runs in the campaign.
    pub fn total_runs(&self) -> usize {
        self.cells() * self.runs_per_cell
    }
}

/// The verdict of one chaos run.
#[derive(Clone, Debug)]
pub struct RunVerdict {
    /// The protocol.
    pub protocol: Protocol,
    /// Mean uptime (ticks) of this run's cell.
    pub mean_uptime: i64,
    /// Overload policy applied at recovery.
    pub policy: OverloadPolicy,
    /// Run index within the cell.
    pub run_index: usize,
    /// Seed the synthetic system was generated from.
    pub system_seed: u64,
    /// Seed of the random crash schedule.
    pub fault_seed: u64,
    /// Whether this run rode a constant-latency signal channel.
    pub with_channel: bool,
    /// Fault-domain counters of the faulted run.
    pub crashes: u64,
    /// Recoveries (equals crashes unless the run ended while down).
    pub recoveries: u64,
    /// Jobs killed mid-execution or while queued on a crashed processor.
    pub killed_jobs: u64,
    /// End-to-end instances lost to crashes.
    pub lost: u64,
    /// End-to-end deadline misses among completed instances.
    pub missed: u64,
    /// End-to-end instances with measured response times.
    pub measured: u64,
    /// Mean per-task EER inflation over the fault-free baseline (`NaN`
    /// when no task completed in both runs).
    pub mean_inflation: f64,
    /// Processor-ticks spent down, summed over processors.
    pub downtime_ticks: i64,
    /// Run span in ticks × number of processors (availability denominator).
    pub span_ticks: i64,
    /// `true` if the run stopped before resolving every instance.
    pub stalled: bool,
    /// Invariant violations (empty for a clean run).
    pub violations: Vec<InvariantViolation>,
}

impl RunVerdict {
    /// `true` when the run upheld every invariant and resolved all work.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && !self.stalled
    }

    /// `(missed + lost) / (measured + lost)`, `NaN` with no instances.
    pub fn miss_or_loss_ratio(&self) -> f64 {
        miss_or_loss_ratio(self.missed, self.lost, self.measured)
    }
}

/// Aggregate of one `(protocol, mean uptime)` cell.
#[derive(Clone, Debug)]
pub struct ChaosCell {
    /// The protocol.
    pub protocol: Protocol,
    /// Mean uptime (ticks).
    pub mean_uptime: i64,
    /// Runs aggregated.
    pub runs: usize,
    /// Total crashes injected.
    pub crashes: u64,
    /// Total jobs killed.
    pub killed_jobs: u64,
    /// Total end-to-end instances lost.
    pub lost: u64,
    /// Aggregate `(missed + lost) / (measured + lost)`.
    pub miss_or_loss_ratio: f64,
    /// Mean of per-run mean EER inflation (finite runs only).
    pub mean_inflation: f64,
    /// Mean fraction of processor-ticks spent up.
    pub availability: f64,
    /// Runs that stopped before resolving every instance.
    pub stalls: usize,
    /// Total invariant violations across the cell's runs.
    pub invariant_violations: usize,
}

/// A failing run: its verdict plus the minimized crash schedule.
#[derive(Clone, Debug)]
pub struct ChaosFailure {
    /// The failing run's verdict.
    pub verdict: RunVerdict,
    /// Shortest failing prefix of the resolved crash windows, as
    /// `(processor, window)` in time order — `None` when the resolved
    /// schedule did not reproduce the failure (the original random
    /// config is then the repro).
    pub minimized: Option<Vec<(usize, CrashWindow)>>,
    /// Number of resolved windows before minimization.
    pub original_windows: usize,
}

/// The whole campaign's outcome.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Cell aggregates, protocols outer × uptimes inner.
    pub cells: Vec<ChaosCell>,
    /// Per-run verdicts in deterministic (cell, run) order.
    pub verdicts: Vec<RunVerdict>,
    /// Failing runs with minimized schedules (empty on a clean campaign).
    pub failures: Vec<ChaosFailure>,
}

impl ChaosOutcome {
    /// `true` when every run upheld every invariant and resolved.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A self-contained reproduction of one failing run.
#[derive(Clone, Debug)]
pub struct ReproBundle {
    /// Human-readable summary: config, seeds, schedule, violations.
    pub summary: String,
    /// JSONL event log of the failing run.
    pub jsonl: String,
    /// Perfetto/Chrome trace of the failing run.
    pub perfetto_json: String,
}

/// The simulation config of one chaos run, minus the fault schedule.
/// `seed` feeds the channel/transport RNG streams in transport mode; the
/// ideal (transport-off) configs ignore it.
fn base_sim_config(
    cfg: &ChaosConfig,
    protocol: Protocol,
    with_channel: bool,
    seed: u64,
) -> SimConfig {
    let mut sim = SimConfig::new(protocol).with_instances(cfg.instances_per_task);
    if with_channel && cfg.signal_latency > 0 {
        let mut channel = ChannelModel::constant(Dur::from_ticks(cfg.signal_latency));
        if cfg.transport {
            channel = channel.with_endpoint_drops(0.1).with_seed(seed ^ 0xCAFE);
        }
        sim = sim.with_channel(channel);
    }
    if cfg.transport {
        let timeout = Dur::from_ticks(4 * cfg.signal_latency.max(250));
        sim = sim.with_transport(
            TransportConfig::new(timeout)
                .with_seed(seed ^ 0xF00D)
                .with_detector(DetectorConfig::new(Dur::from_ticks(
                    (cfg.restart_delay / 20).max(1),
                ))),
        );
    }
    sim
}

/// Runs one faulted simulation under the invariant observer.
fn checked_run(
    set: &TaskSet,
    sim: &SimConfig,
    faults: FaultConfig,
) -> (SimOutcome, Vec<InvariantViolation>) {
    let mut obs = InvariantObserver::default();
    let out = simulate_observed(set, &sim.clone().with_faults(faults), &mut obs)
        .expect("chaos systems are analyzable under SA/PM");
    obs.check_outcome(&out);
    (out, obs.violations().to_vec())
}

/// Total downtime the resolved schedule imposes before `end`.
fn downtime_before(windows: &[Vec<CrashWindow>], end: Time) -> i64 {
    windows
        .iter()
        .flatten()
        .map(|w| {
            let up = w.recovers_at().min(end);
            (up - w.at).ticks().max(0)
        })
        .sum()
}

/// Evaluates one run of one `(protocol, mean uptime)` cell.
fn evaluate_run(
    cfg: &ChaosConfig,
    (protocol, mean_uptime): (Protocol, i64),
    job: Job,
) -> (RunVerdict, Option<ChaosFailure>) {
    let (run_index, system_seed, fault_seed) = (job.run, job.system_seed, job.cond_seed);
    let spec = WorkloadSpec::paper(cfg.n, cfg.u).with_random_phases();
    let set = generate(&spec, &mut StdRng::seed_from_u64(system_seed))
        .expect("paper spec always generates");
    let policy = OverloadPolicy::ALL[run_index % OverloadPolicy::ALL.len()];
    let with_channel = run_index % 2 == 1;
    let sim = base_sim_config(cfg, protocol, with_channel, system_seed);
    let faults = FaultConfig::random(
        Dur::from_ticks(mean_uptime),
        Dur::from_ticks(cfg.restart_delay),
        fault_seed,
    )
    .with_policy(policy);

    let baseline = simulate(&set, &sim).expect("chaos systems are analyzable under SA/PM");
    let (out, violations) = checked_run(&set, &sim, faults.clone());
    let (missed, measured) = missed_and_measured(&out);
    let resolved = faults.resolve(set.num_processors(), out.end_time);
    let verdict = RunVerdict {
        protocol,
        mean_uptime,
        policy,
        run_index,
        system_seed,
        fault_seed,
        with_channel,
        crashes: out.fault_stats.crashes,
        recoveries: out.fault_stats.recoveries,
        killed_jobs: out.fault_stats.killed_jobs,
        lost: out.metrics.total_lost(),
        missed,
        measured,
        mean_inflation: mean_inflation(&baseline, &out),
        downtime_ticks: downtime_before(&resolved, out.end_time),
        span_ticks: out.end_time.since_origin().ticks() * set.num_processors() as i64,
        stalled: !out.reached_target,
        violations,
    };

    let failure = (!verdict.is_clean()).then(|| {
        let minimized = minimize_schedule(&set, &sim, policy, &resolved);
        ChaosFailure {
            verdict: verdict.clone(),
            original_windows: resolved.iter().map(Vec::len).sum(),
            minimized,
        }
    });
    (verdict, failure)
}

/// Flattens per-processor windows into one time-ordered list.
fn flatten_windows(windows: &[Vec<CrashWindow>]) -> Vec<(usize, CrashWindow)> {
    let mut flat: Vec<(usize, CrashWindow)> = windows
        .iter()
        .enumerate()
        .flat_map(|(p, ws)| ws.iter().map(move |&w| (p, w)))
        .collect();
    flat.sort_by_key(|&(p, w)| (w.at, p));
    flat
}

/// Rebuilds per-processor windows from a flat prefix.
fn unflatten(prefix: &[(usize, CrashWindow)], num_procs: usize) -> Vec<Vec<CrashWindow>> {
    let mut out = vec![Vec::new(); num_procs];
    for &(p, w) in prefix {
        out[p].push(w);
    }
    out
}

/// Binary-searches the resolved crash windows of a failing run down to
/// the shortest time-ordered prefix that still fails. Returns `None`
/// when the explicit full schedule does not reproduce the failure (the
/// run is then reported with its original random config).
fn minimize_schedule(
    set: &TaskSet,
    sim: &SimConfig,
    policy: OverloadPolicy,
    resolved: &[Vec<CrashWindow>],
) -> Option<Vec<(usize, CrashWindow)>> {
    let flat = flatten_windows(resolved);
    let fails = |k: usize| -> bool {
        let faults =
            FaultConfig::explicit(unflatten(&flat[..k], set.num_processors())).with_policy(policy);
        let (out, violations) = checked_run(set, sim, faults);
        !violations.is_empty() || !out.reached_target
    };
    if !fails(flat.len()) {
        return None;
    }
    // Invariant: fails(hi) holds; lo is the largest known-passing prefix.
    let (mut lo, mut hi) = (0usize, flat.len());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fails(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(flat[..hi].to_vec())
}

/// Runs the whole campaign: `protocols × mean_uptimes × runs_per_cell`
/// seeded runs, each checked against the protocol invariants. Cells come
/// back protocol-outer, uptime-inner; verdicts in (cell, run) order. The
/// outcome is bit-for-bit deterministic for a given config regardless of
/// `threads`.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    let cells: Vec<(Protocol, i64)> = cfg
        .protocols
        .iter()
        .flat_map(|&p| cfg.mean_uptimes.iter().map(move |&u| (p, u)))
        .collect();
    let results = run_grid(
        cfg.seed,
        &cells,
        cfg.runs_per_cell,
        cfg.threads,
        |&cell, job| evaluate_run(cfg, cell, job),
    );

    let cells = cells
        .iter()
        .zip(&results)
        .map(|(&(protocol, mean_uptime), runs)| {
            let total = |f: fn(&RunVerdict) -> u64| runs.iter().map(|(v, _)| f(v)).sum::<u64>();
            let ticks = |f: fn(&RunVerdict) -> i64| runs.iter().map(|(v, _)| f(v)).sum::<i64>();
            let (down, span) = (ticks(|v| v.downtime_ticks), ticks(|v| v.span_ticks));
            ChaosCell {
                protocol,
                mean_uptime,
                runs: runs.len(),
                crashes: total(|v| v.crashes),
                killed_jobs: total(|v| v.killed_jobs),
                lost: total(|v| v.lost),
                miss_or_loss_ratio: miss_or_loss_ratio(
                    total(|v| v.missed),
                    total(|v| v.lost),
                    total(|v| v.measured),
                ),
                mean_inflation: mean(
                    runs.iter()
                        .map(|(v, _)| v.mean_inflation)
                        .filter(|i| i.is_finite()),
                ),
                availability: if span > 0 {
                    1.0 - down as f64 / span as f64
                } else {
                    f64::NAN
                },
                stalls: runs.iter().filter(|(v, _)| v.stalled).count(),
                invariant_violations: runs.iter().map(|(v, _)| v.violations.len()).sum(),
            }
        })
        .collect();

    let (verdicts, failures): (Vec<RunVerdict>, Vec<Option<ChaosFailure>>) =
        results.into_iter().flatten().unzip();
    ChaosOutcome {
        cells,
        verdicts,
        failures: failures.into_iter().flatten().collect(),
    }
}

/// Re-runs the campaign's worst run with the telemetry recorder attached
/// and returns its verdict plus the windowed time series — the crash
/// dips and recovery backlog drain are visible in the per-processor
/// backlog, detector-census and completion series.
///
/// "Worst" is the run with the most `missed + lost` instances, ties
/// broken by crash count then killed jobs (integer keys, so a campaign
/// with NaN ratios still picks deterministically). `window` is the
/// telemetry window width; pass `None` to auto-size to ~120 windows via
/// an untelemetered pre-run. Returns `None` on an empty campaign.
pub fn worst_case_telemetry(
    cfg: &ChaosConfig,
    outcome: &ChaosOutcome,
    window: Option<Dur>,
) -> Option<(RunVerdict, TelemetryReport)> {
    let v = outcome
        .verdicts
        .iter()
        .max_by_key(|v| (v.missed + v.lost, v.crashes, v.killed_jobs))?
        .clone();
    let spec = WorkloadSpec::paper(cfg.n, cfg.u).with_random_phases();
    let set = generate(&spec, &mut StdRng::seed_from_u64(v.system_seed))
        .expect("paper spec always generates");
    let sim = base_sim_config(cfg, v.protocol, v.with_channel, v.system_seed);
    let faults = FaultConfig::random(
        Dur::from_ticks(v.mean_uptime),
        Dur::from_ticks(cfg.restart_delay),
        v.fault_seed,
    )
    .with_policy(v.policy);
    let sim = sim.with_faults(faults);
    let width = window.unwrap_or_else(|| {
        let end = simulate(&set, &sim)
            .expect("telemetry re-run of an analyzable system")
            .end_time;
        Dur::from_ticks((end.ticks() / 120).max(1))
    });
    let mut tel = TelemetryObserver::new(width);
    simulate_observed(&set, &sim, &mut tel).expect("telemetry re-run of an analyzable system");
    Some((v, tel.into_report()))
}

/// Rebuilds a failure's exact run and packages it for offline debugging.
/// The rerun uses the minimized explicit schedule when one reproduced,
/// otherwise the original random config.
pub fn repro_bundle(cfg: &ChaosConfig, failure: &ChaosFailure) -> ReproBundle {
    let v = &failure.verdict;
    let spec = WorkloadSpec::paper(cfg.n, cfg.u).with_random_phases();
    let set = generate(&spec, &mut StdRng::seed_from_u64(v.system_seed))
        .expect("paper spec always generates");
    let sim = base_sim_config(cfg, v.protocol, v.with_channel, v.system_seed);
    let faults = match &failure.minimized {
        Some(prefix) => {
            FaultConfig::explicit(unflatten(prefix, set.num_processors())).with_policy(v.policy)
        }
        None => FaultConfig::random(
            Dur::from_ticks(v.mean_uptime),
            Dur::from_ticks(cfg.restart_delay),
            v.fault_seed,
        )
        .with_policy(v.policy),
    };

    let mut log = EventLogObserver::default();
    let mut inv = InvariantObserver::default();
    let out = simulate_observed(&set, &sim.with_faults(faults), &mut Tee(&mut inv, &mut log))
        .expect("repro of an analyzable system");
    inv.check_outcome(&out);

    let mut summary = String::new();
    summary.push_str(&format!(
        "chaos failure: protocol={} mean_uptime={} policy={} run_index={}\n\
         system_seed={:#018x} fault_seed={:#018x} channel={}\n",
        v.protocol.tag(),
        v.mean_uptime,
        v.policy.tag(),
        v.run_index,
        v.system_seed,
        v.fault_seed,
        if v.with_channel {
            format!("constant {} ticks", cfg.signal_latency)
        } else {
            "none".to_string()
        },
    ));
    match &failure.minimized {
        Some(prefix) => {
            summary.push_str(&format!(
                "minimized schedule ({} of {} windows):\n",
                prefix.len(),
                failure.original_windows
            ));
            for (p, w) in prefix {
                summary.push_str(&format!(
                    "  P{p}: crash at {} recover at {}\n",
                    w.at.ticks(),
                    w.recovers_at().ticks()
                ));
            }
        }
        None => summary.push_str(
            "schedule: not minimized (explicit replay did not reproduce; \
             use the random config above)\n",
        ),
    }
    summary.push_str(&format!(
        "stalled={} violations={}\n",
        !out.reached_target,
        inv.violations().len()
    ));
    for viol in inv.violations() {
        summary.push_str(&format!("  {viol}\n"));
    }
    ReproBundle {
        summary,
        jsonl: log.to_jsonl(),
        perfetto_json: log.to_chrome_trace(),
    }
}

/// Cell-level CSV: the per-protocol degradation curves (one row per
/// `(protocol, mean uptime)` cell).
pub fn to_csv(outcome: &ChaosOutcome) -> String {
    Csv::new(&outcome.cells)
        .col("protocol", |c| c.protocol.tag())
        .col("mean_uptime", |c| c.mean_uptime)
        .col("runs", |c| c.runs)
        .col("crashes", |c| c.crashes)
        .col("killed_jobs", |c| c.killed_jobs)
        .col("lost", |c| c.lost)
        .float("miss_or_loss_ratio", |c| c.miss_or_loss_ratio)
        .float("mean_inflation", |c| c.mean_inflation)
        .float("availability", |c| c.availability)
        .col("stalls", |c| c.stalls)
        .col("invariant_violations", |c| c.invariant_violations)
        .render()
}

/// Run-level CSV: one row per run, in deterministic (cell, run) order.
pub fn runs_csv(outcome: &ChaosOutcome) -> String {
    Csv::new(&outcome.verdicts)
        .col("protocol", |v| v.protocol.tag())
        .col("mean_uptime", |v| v.mean_uptime)
        .col("policy", |v| v.policy.tag())
        .col("run_index", |v| v.run_index)
        .col("system_seed", |v| v.system_seed)
        .col("fault_seed", |v| v.fault_seed)
        .col("channel", |v| u8::from(v.with_channel))
        .col("crashes", |v| v.crashes)
        .col("recoveries", |v| v.recoveries)
        .col("killed_jobs", |v| v.killed_jobs)
        .col("lost", |v| v.lost)
        .col("missed", |v| v.missed)
        .col("measured", |v| v.measured)
        .float("miss_or_loss_ratio", |v| v.miss_or_loss_ratio())
        .float("mean_inflation", |v| v.mean_inflation)
        .col("downtime_ticks", |v| v.downtime_ticks)
        .col("span_ticks", |v| v.span_ticks)
        .col("stalled", |v| u8::from(v.stalled))
        .col("violations", |v| v.violations.len())
        .render()
}

/// ASCII rendering of the campaign for the terminal.
pub fn render(outcome: &ChaosOutcome) -> String {
    let mut out =
        String::from("chaos campaign: miss-or-loss ratio (EER inflation | availability)\n");
    for c in &outcome.cells {
        out.push_str(&format!(
            "  {:>3} @ uptime {:>10}: {:<7} (x{:<7} | {:.4}) — {} crashes, {} lost{}{}\n",
            c.protocol.tag(),
            c.mean_uptime,
            fmt_f64(c.miss_or_loss_ratio),
            fmt_f64(c.mean_inflation),
            c.availability,
            c.crashes,
            c.lost,
            if c.stalls > 0 {
                format!(", {} STALLED", c.stalls)
            } else {
                String::new()
            },
            if c.invariant_violations > 0 {
                format!(", {} VIOLATIONS", c.invariant_violations)
            } else {
                String::new()
            },
        ));
    }
    out.push_str(&format!(
        "{} runs, {} failing\n",
        outcome.verdicts.len(),
        outcome.failures.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ChaosConfig {
        ChaosConfig {
            mean_uptimes: vec![5_000_000, 1_000_000],
            runs_per_cell: 2,
            instances_per_task: 6,
            threads: 2,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn campaign_is_clean_and_injects_crashes() {
        let outcome = run_chaos(&tiny_cfg());
        assert!(outcome.is_clean(), "{:?}", outcome.failures);
        assert_eq!(outcome.verdicts.len(), 16);
        let total_crashes: u64 = outcome.cells.iter().map(|c| c.crashes).sum();
        assert!(total_crashes > 0, "the grid must actually crash nodes");
        for c in &outcome.cells {
            assert!(
                c.availability.is_finite() && c.availability <= 1.0,
                "{}: {}",
                c.protocol.tag(),
                c.availability
            );
        }
    }

    #[test]
    fn transport_campaign_is_clean() {
        // The endpoint transport (retransmission over lossy channel runs,
        // heartbeat detection, degraded releases) must not break any
        // invariant the oracle-recovery campaign holds.
        let mut cfg = tiny_cfg();
        cfg.transport = true;
        let outcome = run_chaos(&cfg);
        assert!(outcome.is_clean(), "{:?}", outcome.failures);
        let total_crashes: u64 = outcome.cells.iter().map(|c| c.crashes).sum();
        assert!(total_crashes > 0, "the grid must actually crash nodes");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut cfg = tiny_cfg();
        cfg.threads = 1;
        let a = run_chaos(&cfg);
        cfg.threads = 4;
        let b = run_chaos(&cfg);
        assert_eq!(to_csv(&a), to_csv(&b));
        assert_eq!(runs_csv(&a), runs_csv(&b));
    }

    #[test]
    fn smoke_config_covers_the_grid() {
        let cfg = ChaosConfig::smoke();
        assert!(cfg.total_runs() >= 25);
        assert_eq!(cfg.protocols.len(), 4);
        assert!(cfg.mean_uptimes.len() >= 3);
    }

    #[test]
    fn minimization_finds_a_short_failing_prefix() {
        // Plant a synthetic failure predicate via a passing schedule: the
        // minimizer must return None when the full schedule is clean...
        let cfg = tiny_cfg();
        let spec = WorkloadSpec::paper(cfg.n, cfg.u).with_random_phases();
        let set = generate(&spec, &mut StdRng::seed_from_u64(7)).unwrap();
        let sim = base_sim_config(&cfg, Protocol::DirectSync, false, 7);
        let faults = FaultConfig::random(
            Dur::from_ticks(2_000_000),
            Dur::from_ticks(cfg.restart_delay),
            3,
        );
        let (out, violations) = checked_run(&set, &sim, faults.clone());
        assert!(violations.is_empty() && out.reached_target);
        let resolved = faults.resolve(set.num_processors(), out.end_time);
        assert_eq!(
            minimize_schedule(&set, &sim, OverloadPolicy::ReleaseAll, &resolved),
            Option::None,
            "a clean run has no failing prefix"
        );
        // ...and the flatten/unflatten round trip preserves the schedule.
        let flat = flatten_windows(&resolved);
        let round = unflatten(&flat, set.num_processors());
        assert_eq!(resolved, round);
    }

    #[test]
    fn repro_bundle_is_self_describing() {
        // Bundle an arbitrary (clean) run as if it had failed: the bundle
        // must carry the config, the schedule and a non-empty event log.
        let cfg = tiny_cfg();
        let outcome = run_chaos(&cfg);
        let failure = ChaosFailure {
            verdict: outcome.verdicts[0].clone(),
            minimized: Option::None,
            original_windows: 0,
        };
        let bundle = repro_bundle(&cfg, &failure);
        assert!(bundle.summary.contains("protocol=DS"));
        assert!(bundle.summary.contains("fault_seed="));
        assert!(bundle.jsonl.lines().count() > 2);
        assert!(bundle.perfetto_json.contains("\"ph\""));
    }
}
