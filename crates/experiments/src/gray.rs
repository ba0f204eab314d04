//! The gray-failure campaign: processor slowdowns × GC-pause stalls ×
//! degraded links, swept as a grid with a fixed-timeout and an adaptive
//! φ-accrual failure-detector arm over the *same* seeded conditions.
//!
//! Each run draws a synthetic §5.1 system (4 processors), lays a seeded
//! gray schedule over it — slow windows stretching execution by the
//! cell's factor, full-stop stalls, lossy/laggy link windows — and
//! simulates it twice with heartbeat failure detection riding the acked
//! endpoint transport: once under the fixed `suspect_after`/`dead_after`
//! cliff and once under φ-accrual with the `Degraded` intermediate
//! state. No processor ever actually crashes, so *every* Dead verdict
//! in the campaign is false by ground truth. The campaign reports, per
//! `(slow factor, stall span, link drop)` cell,
//!
//! * **verdict accuracy** — false-dead and false-suspect counts per arm,
//!   with the adaptive arm's Degraded verdicts scored against gray
//!   ground truth (`gray_hits`). The headline is the slowdown-only
//!   column: a merely-slow peer false-deads the fixed cliff on every
//!   stretched heartbeat gap while φ re-centers on the observed
//!   inter-arrival mean and holds at Degraded;
//! * **EER inflation** — mean per-task `avg-EER(gray) / avg-EER(benign)`
//!   per arm against a same-system, same-conditions run with every gray
//!   knob off — the cost of the degradation itself plus whatever the
//!   detector's false verdicts (forced releases, premature cadences)
//!   add on top;
//! * **invariant verdicts** — the [`InvariantObserver`] battery on both
//!   arms. Clock-independent safety invariants (precedence, signal
//!   conservation, down-processor silence) are fatal in every cell;
//!   load-dependent kinds (backlog growth, guard spacing) are recorded
//!   but non-fatal in gray cells, where a 16x slowdown legitimately
//!   piles up backlog.
//!
//! Like [`chaos`](crate::chaos) and [`adversary`](crate::adversary),
//! the campaign is embarrassingly parallel over runs and bit-for-bit
//! deterministic for a given seed regardless of the thread count.

use crate::campaign::{mean, mean_inflation, run_grid, Csv, Job};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::protocol::Protocol;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, simulate_observed, SimConfig};
use rtsync_sim::nonideal::ChannelModel;
use rtsync_sim::{
    DetectorConfig, FaultConfig, GrayConfig, InvariantKind, InvariantObserver, InvariantViolation,
    LinkSchedule, PhiConfig, SlowSchedule, StallSchedule, TransportConfig,
};
use rtsync_workload::{generate, WorkloadSpec};

/// Gray-campaign parameters.
#[derive(Clone, Debug)]
pub struct GrayStudyConfig {
    /// Execution-rate divisors to sweep; `1` keeps processors at nominal
    /// speed. `8` stays below φ's dead threshold (9.2x the observed
    /// mean) while sailing past the fixed 6-period cliff; `16` crosses
    /// even φ's warmup deadline once per window — the adaptive arm's own
    /// cliff, documented rather than hidden.
    pub slow_factors: Vec<u32>,
    /// Stall spans (ticks) to sweep; `0` disables stalls. Spans beyond
    /// both arms' death thresholds false-dead *both* detectors — a long
    /// enough freeze is indistinguishable from death.
    pub stall_spans: Vec<i64>,
    /// Link drop probabilities (permille) to sweep; `0` disables link
    /// degradation windows.
    pub link_drops: Vec<u32>,
    /// Runs per grid cell; the protocol rotates over the run index, so 4
    /// runs cover DS/PM/MPM/RG.
    pub runs_per_cell: usize,
    /// Subtasks per task of the synthetic systems.
    pub n: usize,
    /// Per-processor utilization of the synthetic systems.
    pub u: f64,
    /// End-to-end instances simulated per task.
    pub instances_per_task: u64,
    /// Heartbeat broadcast period (ticks).
    pub heartbeat: i64,
    /// Upper bound of the uniform channel latency (ticks).
    pub latency: i64,
    /// Span of every slow window (ticks).
    pub slow_span: i64,
    /// Mean healthy time between slow windows (ticks).
    pub slow_mean_healthy: i64,
    /// Mean healthy time between stalls (ticks).
    pub stall_mean_healthy: i64,
    /// Span of every link-degradation window (ticks).
    pub link_span: i64,
    /// Mean healthy time between link windows (ticks).
    pub link_mean_healthy: i64,
    /// Deterministic extra latency inside link windows (ticks).
    pub link_extra_latency: i64,
    /// Per-frame jitter bound inside link windows (ticks).
    pub link_jitter: i64,
    /// Consecutive deadline misses before the watchdog trips.
    pub watchdog_misses: u32,
    /// Master seed; system and condition seeds derive from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for GrayStudyConfig {
    fn default() -> GrayStudyConfig {
        GrayStudyConfig {
            slow_factors: vec![1, 8, 16],
            stall_spans: vec![0, 40_000, 400_000],
            link_drops: vec![0, 200, 500],
            runs_per_cell: 4,
            n: 3,
            u: 0.6,
            instances_per_task: 10,
            heartbeat: 10_000,
            latency: 1_000,
            slow_span: 400_000,
            slow_mean_healthy: 20_000_000,
            stall_mean_healthy: 25_000_000,
            link_span: 1_000_000,
            link_mean_healthy: 10_000_000,
            link_extra_latency: 2_000,
            link_jitter: 1_000,
            watchdog_misses: 4,
            seed: 0x6EA7_FA11,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl GrayStudyConfig {
    /// A reduced campaign for CI smoke jobs and tests: the same three
    /// axes with fewer levels and runs (16 runs over the 8 cells).
    pub fn smoke() -> GrayStudyConfig {
        GrayStudyConfig {
            slow_factors: vec![1, 8],
            stall_spans: vec![0, 400_000],
            link_drops: vec![0, 500],
            runs_per_cell: 2,
            instances_per_task: 6,
            ..GrayStudyConfig::default()
        }
    }

    /// Grid cells: slow factors × stall spans × link drops.
    pub fn cells(&self) -> usize {
        self.slow_factors.len() * self.stall_spans.len() * self.link_drops.len()
    }

    /// Total runs in the campaign (each run simulates both detector arms
    /// plus one benign baseline).
    pub fn total_runs(&self) -> usize {
        self.cells() * self.runs_per_cell
    }
}

/// One grid coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CellSpec {
    slow_factor: u32,
    stall_span: i64,
    link_drop: u32,
}

impl CellSpec {
    /// Slowdowns only — the headline column: no stall or link window
    /// ever silences a peer outright, so a dead verdict has no excuse.
    fn slowdown_only(&self) -> bool {
        self.slow_factor > 1 && self.stall_span == 0 && self.link_drop == 0
    }
}

/// One detector arm's counters out of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArmStats {
    /// Suspect verdicts.
    pub suspects: u64,
    /// Suspect verdicts on an up peer.
    pub false_suspects: u64,
    /// Dead verdicts.
    pub deads: u64,
    /// Dead verdicts on an up peer (= all of them: nothing crashes).
    pub false_deads: u64,
    /// False deads whose subject was gray at the verdict instant.
    pub false_dead_gray: u64,
    /// Degraded verdicts (φ arm only).
    pub degradeds: u64,
    /// Degraded verdicts confirmed gray by ground truth (φ arm only).
    pub gray_hits: u64,
    /// Heartbeats held back from reviving a suspect by hysteresis.
    pub hysteresis_holds: u64,
    /// Suspect/Dead -> Alive revivals.
    pub revivals: u64,
    /// Successor instances force-released on a dead verdict.
    pub forced_releases: u64,
    /// Deadline-watchdog trips.
    pub watchdog_trips: u64,
    /// Mean per-task EER inflation over the benign twin (`NaN` when no
    /// task completed in both runs).
    pub mean_inflation: f64,
    /// `true` if the run stopped before resolving every instance.
    pub stalled: bool,
}

/// The verdict of one gray run (both arms over the same conditions).
#[derive(Clone, Debug)]
pub struct GrayVerdict {
    /// The protocol (rotates over the run index).
    pub protocol: Protocol,
    /// Execution-rate divisor of this run's cell.
    pub slow_factor: u32,
    /// Stall span of this run's cell (ticks, 0 = none).
    pub stall_span: i64,
    /// Link drop rate of this run's cell (permille, 0 = none).
    pub link_drop: u32,
    /// Run index within the cell.
    pub run_index: usize,
    /// Seed the synthetic system was generated from.
    pub system_seed: u64,
    /// Seed of the run's condition streams (channel, gray schedules).
    pub cond_seed: u64,
    /// The fixed suspect/dead-cliff arm.
    pub fixed: ArmStats,
    /// The adaptive φ-accrual arm.
    pub adaptive: ArmStats,
    /// Slow windows entered (adaptive arm's run).
    pub slowdowns: u64,
    /// Stalls entered (adaptive arm's run).
    pub stalls: u64,
    /// Link windows opened (adaptive arm's run).
    pub link_degrades: u64,
    /// Heartbeats dropped by degraded links (adaptive arm's run).
    pub gray_dropped_heartbeats: u64,
    /// Extra latency injected by degraded links (adaptive arm's run).
    pub gray_extra_latency_ticks: u64,
    /// Fixed-arm invariant violations.
    pub fixed_violations: Vec<InvariantViolation>,
    /// Adaptive-arm invariant violations.
    pub adaptive_violations: Vec<InvariantViolation>,
}

impl GrayVerdict {
    /// `true` when both arms upheld every clock-independent safety
    /// invariant. Load-dependent kinds (backlog growth under a 16x
    /// slowdown, guard spacing under degraded-mode slack) are recorded
    /// but non-fatal once any gray persona is armed.
    pub fn is_clean(&self) -> bool {
        let gray = self.slow_factor > 1 || self.stall_span > 0 || self.link_drop > 0;
        let load_dependent = [InvariantKind::UnboundedBacklog, InvariantKind::GuardSpacing];
        self.fixed_violations
            .iter()
            .chain(&self.adaptive_violations)
            .filter(|v| !gray || !load_dependent.contains(&v.kind))
            .count()
            == 0
    }
}

/// Aggregate of one `(slow factor, stall span, link drop)` cell.
#[derive(Clone, Debug)]
pub struct GrayCell {
    /// Execution-rate divisor.
    pub slow_factor: u32,
    /// Stall span (ticks).
    pub stall_span: i64,
    /// Link drop rate (permille).
    pub link_drop: u32,
    /// Whether this is a slowdown-only cell (the headline column).
    pub slowdown_only: bool,
    /// Runs aggregated.
    pub runs: usize,
    /// Fixed-arm false deads (every dead is false: nothing crashes).
    pub fixed_false_deads: u64,
    /// Fixed-arm false deads charged to gray ground truth.
    pub fixed_false_dead_gray: u64,
    /// Fixed-arm false suspects.
    pub fixed_false_suspects: u64,
    /// Fixed-arm forced releases.
    pub fixed_forced_releases: u64,
    /// Fixed-arm watchdog trips.
    pub fixed_watchdog_trips: u64,
    /// Adaptive-arm false deads.
    pub adaptive_false_deads: u64,
    /// Adaptive-arm false deads charged to gray ground truth.
    pub adaptive_false_dead_gray: u64,
    /// Adaptive-arm false suspects.
    pub adaptive_false_suspects: u64,
    /// Adaptive-arm Degraded verdicts.
    pub adaptive_degradeds: u64,
    /// Adaptive-arm Degraded verdicts confirmed gray.
    pub adaptive_gray_hits: u64,
    /// Adaptive-arm forced releases.
    pub adaptive_forced_releases: u64,
    /// Adaptive-arm watchdog trips.
    pub adaptive_watchdog_trips: u64,
    /// Slow windows entered across the cell's runs.
    pub slowdowns: u64,
    /// Stalls entered.
    pub stalls: u64,
    /// Link windows opened.
    pub link_degrades: u64,
    /// Mean of per-run mean EER inflation, fixed arm (finite runs only).
    pub fixed_inflation: f64,
    /// Mean of per-run mean EER inflation, adaptive arm.
    pub adaptive_inflation: f64,
    /// Runs (either arm) that stopped before the instance target.
    pub stalled_runs: usize,
    /// Total invariant violations recorded across both arms.
    pub invariant_violations: usize,
}

/// The whole campaign's outcome.
#[derive(Clone, Debug)]
pub struct GrayOutcome {
    /// Cell aggregates: slow factors outer, stall spans middle, link
    /// drops inner.
    pub cells: Vec<GrayCell>,
    /// Per-run verdicts in deterministic (cell, run) order.
    pub verdicts: Vec<GrayVerdict>,
}

impl GrayOutcome {
    /// `true` when every run upheld every clock-independent safety
    /// invariant in both arms.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(GrayVerdict::is_clean)
    }

    /// The failing runs.
    pub fn failures(&self) -> Vec<&GrayVerdict> {
        self.verdicts.iter().filter(|v| !v.is_clean()).collect()
    }

    /// `true` when the adaptive arm strictly dominates the fixed arm on
    /// false deads in every slowdown-only cell that false-deads at all —
    /// the campaign's headline claim.
    pub fn adaptive_dominates(&self) -> bool {
        self.cells
            .iter()
            .filter(|c| c.slowdown_only && c.fixed_false_deads + c.adaptive_false_deads > 0)
            .all(|c| c.adaptive_false_deads < c.fixed_false_deads)
    }
}

/// The gray personas of one cell, seeded from the run's condition seed.
fn gray_config(cfg: &GrayStudyConfig, cell: CellSpec, cond_seed: u64) -> GrayConfig {
    let mut gray = GrayConfig::new().with_frame_seed(cond_seed ^ 0xF4A3_E0E0);
    if cell.slow_factor > 1 {
        gray = gray.with_slow(SlowSchedule::Random {
            mean_healthy: Dur::from_ticks(cfg.slow_mean_healthy),
            span: Dur::from_ticks(cfg.slow_span),
            factor: cell.slow_factor,
            seed: cond_seed ^ 0x510_0000,
        });
    }
    if cell.stall_span > 0 {
        gray = gray.with_stalls(StallSchedule::Random {
            mean_healthy: Dur::from_ticks(cfg.stall_mean_healthy),
            span: Dur::from_ticks(cell.stall_span),
            seed: cond_seed ^ 0x57A_1100,
        });
    }
    if cell.link_drop > 0 {
        gray = gray.with_links(LinkSchedule::Random {
            mean_healthy: Dur::from_ticks(cfg.link_mean_healthy),
            span: Dur::from_ticks(cfg.link_span),
            extra_latency: Dur::from_ticks(cfg.link_extra_latency),
            jitter: Dur::from_ticks(cfg.link_jitter),
            drop_permille: cell.link_drop,
            seed: cond_seed ^ 0x11C4_0000,
        });
    }
    gray
}

/// The endpoint transport of one arm: acked signals plus the heartbeat
/// detector, fixed cliff or φ-accrual.
fn transport(cfg: &GrayStudyConfig, cond_seed: u64, phi: bool) -> TransportConfig {
    let mut det =
        DetectorConfig::new(Dur::from_ticks(cfg.heartbeat)).with_watchdog(cfg.watchdog_misses);
    if phi {
        det = det.with_phi(PhiConfig::new());
    }
    TransportConfig::new(Dur::from_ticks((4 * cfg.latency).max(250)))
        .with_seed(cond_seed ^ 0xF00D)
        .with_detector(det)
}

/// Evaluates one run of one cell: a benign baseline plus both detector
/// arms over the same seeded gray schedule.
fn evaluate_run(cfg: &GrayStudyConfig, cell: CellSpec, job: Job) -> GrayVerdict {
    let (run_index, system_seed, cond_seed) = (job.run, job.system_seed, job.cond_seed);
    let spec = WorkloadSpec::paper(cfg.n, cfg.u).with_random_phases();
    let set = generate(&spec, &mut StdRng::seed_from_u64(system_seed))
        .expect("paper spec always generates");
    let protocol = Protocol::ALL[run_index % Protocol::ALL.len()];
    let channel = ChannelModel::uniform(Dur::ZERO, Dur::from_ticks(cfg.latency))
        .with_seed(cond_seed ^ 0x5ca1_ab1e);

    let base = |phi: bool| {
        SimConfig::new(protocol)
            .with_instances(cfg.instances_per_task)
            .with_channel(channel)
            .with_transport(transport(cfg, cond_seed, phi))
    };

    // The benign twin: same system, channel, transport and detector
    // cadence, every gray knob off — the inflation baseline. Detector
    // mode is irrelevant without gray faults (no verdict ever fires), so
    // one baseline serves both arms.
    let baseline = simulate(&set, &base(false)).expect("paper systems are analyzable under SA/PM");

    let arm = |phi: bool| {
        let sim = base(phi).with_faults(FaultConfig::gray_only(gray_config(cfg, cell, cond_seed)));
        let mut obs = InvariantObserver::default();
        let out = simulate_observed(&set, &sim, &mut obs)
            .expect("paper systems are analyzable under SA/PM");
        obs.check_outcome(&out);
        let dt = &out.detect_stats;
        let stats = ArmStats {
            suspects: dt.suspects,
            false_suspects: dt.false_suspects,
            deads: dt.deads,
            false_deads: dt.false_deads,
            false_dead_gray: dt.false_dead_gray,
            degradeds: dt.degradeds,
            gray_hits: dt.gray_hits,
            hysteresis_holds: dt.hysteresis_holds,
            revivals: dt.revivals,
            forced_releases: dt.forced_releases,
            watchdog_trips: dt.watchdog_trips,
            mean_inflation: mean_inflation(&baseline, &out),
            stalled: !out.reached_target,
        };
        (stats, out, obs.violations().to_vec())
    };

    let (fixed, _, fixed_violations) = arm(false);
    let (adaptive, adaptive_out, adaptive_violations) = arm(true);

    GrayVerdict {
        protocol,
        slow_factor: cell.slow_factor,
        stall_span: cell.stall_span,
        link_drop: cell.link_drop,
        run_index,
        system_seed,
        cond_seed,
        fixed,
        adaptive,
        slowdowns: adaptive_out.fault_stats.slowdowns,
        stalls: adaptive_out.fault_stats.stalls,
        link_degrades: adaptive_out.fault_stats.link_degrades,
        gray_dropped_heartbeats: adaptive_out.fault_stats.gray_dropped_heartbeats,
        gray_extra_latency_ticks: adaptive_out.fault_stats.gray_extra_latency_ticks,
        fixed_violations,
        adaptive_violations,
    }
}

/// Runs the whole campaign: `slow factors × stall spans × link drops ×
/// runs_per_cell` seeded runs, two detector arms each. Cells come back
/// factors-outer, spans-middle, drops-inner; verdicts in (cell, run)
/// order. The outcome is bit-for-bit deterministic for a given config
/// regardless of `threads`.
pub fn run_gray(cfg: &GrayStudyConfig) -> GrayOutcome {
    let cells: Vec<CellSpec> = cfg
        .slow_factors
        .iter()
        .flat_map(|&slow_factor| {
            cfg.stall_spans.iter().flat_map(move |&stall_span| {
                cfg.link_drops.iter().map(move |&link_drop| CellSpec {
                    slow_factor,
                    stall_span,
                    link_drop,
                })
            })
        })
        .collect();
    let verdicts = run_grid(
        cfg.seed,
        &cells,
        cfg.runs_per_cell,
        cfg.threads,
        |&cell, job| evaluate_run(cfg, cell, job),
    );

    let cells = cells
        .iter()
        .zip(&verdicts)
        .map(|(spec, runs)| {
            let total = |f: fn(&GrayVerdict) -> u64| runs.iter().map(f).sum::<u64>();
            let inflation =
                |f: fn(&GrayVerdict) -> f64| mean(runs.iter().map(f).filter(|i| i.is_finite()));
            GrayCell {
                slow_factor: spec.slow_factor,
                stall_span: spec.stall_span,
                link_drop: spec.link_drop,
                slowdown_only: spec.slowdown_only(),
                runs: runs.len(),
                fixed_false_deads: total(|v| v.fixed.false_deads),
                fixed_false_dead_gray: total(|v| v.fixed.false_dead_gray),
                fixed_false_suspects: total(|v| v.fixed.false_suspects),
                fixed_forced_releases: total(|v| v.fixed.forced_releases),
                fixed_watchdog_trips: total(|v| v.fixed.watchdog_trips),
                adaptive_false_deads: total(|v| v.adaptive.false_deads),
                adaptive_false_dead_gray: total(|v| v.adaptive.false_dead_gray),
                adaptive_false_suspects: total(|v| v.adaptive.false_suspects),
                adaptive_degradeds: total(|v| v.adaptive.degradeds),
                adaptive_gray_hits: total(|v| v.adaptive.gray_hits),
                adaptive_forced_releases: total(|v| v.adaptive.forced_releases),
                adaptive_watchdog_trips: total(|v| v.adaptive.watchdog_trips),
                slowdowns: total(|v| v.slowdowns),
                stalls: total(|v| v.stalls),
                link_degrades: total(|v| v.link_degrades),
                fixed_inflation: inflation(|v| v.fixed.mean_inflation),
                adaptive_inflation: inflation(|v| v.adaptive.mean_inflation),
                stalled_runs: runs
                    .iter()
                    .filter(|v| v.fixed.stalled || v.adaptive.stalled)
                    .count(),
                invariant_violations: runs
                    .iter()
                    .map(|v| v.fixed_violations.len() + v.adaptive_violations.len())
                    .sum(),
            }
        })
        .collect();

    GrayOutcome {
        cells,
        verdicts: verdicts.into_iter().flatten().collect(),
    }
}

/// Cell-level CSV: one row per grid coordinate, both arms side by side.
pub fn grid_csv(outcome: &GrayOutcome) -> String {
    Csv::new(&outcome.cells)
        .col("slow_factor", |c| c.slow_factor)
        .col("stall_span", |c| c.stall_span)
        .col("link_drop", |c| c.link_drop)
        .col("slowdown_only", |c| u8::from(c.slowdown_only))
        .col("runs", |c| c.runs)
        .col("slowdowns", |c| c.slowdowns)
        .col("stalls", |c| c.stalls)
        .col("link_degrades", |c| c.link_degrades)
        .col("fixed_false_deads", |c| c.fixed_false_deads)
        .col("fixed_false_dead_gray", |c| c.fixed_false_dead_gray)
        .col("fixed_false_suspects", |c| c.fixed_false_suspects)
        .col("fixed_forced_releases", |c| c.fixed_forced_releases)
        .col("fixed_watchdog_trips", |c| c.fixed_watchdog_trips)
        .float("fixed_inflation", |c| c.fixed_inflation)
        .col("adaptive_false_deads", |c| c.adaptive_false_deads)
        .col("adaptive_false_dead_gray", |c| c.adaptive_false_dead_gray)
        .col("adaptive_false_suspects", |c| c.adaptive_false_suspects)
        .col("adaptive_degradeds", |c| c.adaptive_degradeds)
        .col("adaptive_gray_hits", |c| c.adaptive_gray_hits)
        .col("adaptive_forced_releases", |c| c.adaptive_forced_releases)
        .col("adaptive_watchdog_trips", |c| c.adaptive_watchdog_trips)
        .float("adaptive_inflation", |c| c.adaptive_inflation)
        .col("stalled_runs", |c| c.stalled_runs)
        .col("invariant_violations", |c| c.invariant_violations)
        .render()
}

/// Summary CSV: one row per slowdown factor, aggregated over the stall
/// and link axes — the false-dead cliff in three lines.
pub fn summary_csv(outcome: &GrayOutcome) -> String {
    let mut levels: Vec<u32> = outcome.cells.iter().map(|c| c.slow_factor).collect();
    levels.dedup();
    let groups: Vec<Vec<&GrayCell>> = levels
        .iter()
        .map(|&f| {
            outcome
                .cells
                .iter()
                .filter(|c| c.slow_factor == f)
                .collect()
        })
        .collect();
    let sum = |g: &Vec<&GrayCell>, f: fn(&GrayCell) -> u64| g.iter().map(|&c| f(c)).sum::<u64>();
    let runs = |g: &Vec<&GrayCell>| g.iter().map(|c| c.runs).sum::<usize>();
    let per_run = |g: &Vec<&GrayCell>, f| sum(g, f) as f64 / runs(g).max(1) as f64;
    let inflation = |g: &Vec<&GrayCell>, f: fn(&GrayCell) -> f64| {
        mean(g.iter().map(|&c| f(c)).filter(|v| v.is_finite()))
    };
    Csv::new(&groups)
        .col("slow_factor", |g| g[0].slow_factor)
        .col("cells", |g| g.len())
        .col("runs", runs)
        .col("fixed_false_deads", |g| sum(g, |c| c.fixed_false_deads))
        .float("fixed_false_dead_rate", |g| {
            per_run(g, |c| c.fixed_false_deads)
        })
        .col("adaptive_false_deads", |g| {
            sum(g, |c| c.adaptive_false_deads)
        })
        .float("adaptive_false_dead_rate", |g| {
            per_run(g, |c| c.adaptive_false_deads)
        })
        .col("adaptive_degradeds", |g| sum(g, |c| c.adaptive_degradeds))
        .col("adaptive_gray_hits", |g| sum(g, |c| c.adaptive_gray_hits))
        .float("fixed_inflation", |g| inflation(g, |c| c.fixed_inflation))
        .float("adaptive_inflation", |g| {
            inflation(g, |c| c.adaptive_inflation)
        })
        .col("invariant_violations", |g| {
            sum(g, |c| c.invariant_violations as u64)
        })
        .render()
}

/// ASCII rendering of the campaign for the terminal.
pub fn render(outcome: &GrayOutcome) -> String {
    let mut out = String::from(
        "gray campaign: false deads fixed vs adaptive (degradeds | gray hits | dropped hbs)\n",
    );
    for c in &outcome.cells {
        out.push_str(&format!(
            "  slow {:>2}x stall {:>7} drop {:>3}: {:>4} vs {:<4} ({:>5} | {:>5} | {:>5}){}{}\n",
            c.slow_factor,
            c.stall_span,
            c.link_drop,
            c.fixed_false_deads,
            c.adaptive_false_deads,
            c.adaptive_degradeds,
            c.adaptive_gray_hits,
            outcome
                .verdicts
                .iter()
                .filter(|v| {
                    v.slow_factor == c.slow_factor
                        && v.stall_span == c.stall_span
                        && v.link_drop == c.link_drop
                })
                .map(|v| v.gray_dropped_heartbeats)
                .sum::<u64>(),
            if c.slowdown_only { "  <- headline" } else { "" },
            if c.invariant_violations > 0 {
                format!(", {} recorded violations", c.invariant_violations)
            } else {
                String::new()
            },
        ));
    }
    let failures = outcome.failures();
    out.push_str(&format!(
        "{} runs, {} failing, adaptive dominates slowdown-only cells: {}\n",
        outcome.verdicts.len(),
        failures.len(),
        outcome.adaptive_dominates(),
    ));
    for v in failures {
        out.push_str(&format!(
            "  FAIL {} slow={} stall={} drop={} run={} seed={:#018x}: {}\n",
            v.protocol.tag(),
            v.slow_factor,
            v.stall_span,
            v.link_drop,
            v.run_index,
            v.cond_seed,
            v.fixed_violations
                .first()
                .or(v.adaptive_violations.first())
                .map_or_else(|| "stalled".to_string(), |viol| viol.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> GrayStudyConfig {
        GrayStudyConfig {
            slow_factors: vec![1, 8],
            stall_spans: vec![0],
            link_drops: vec![0],
            runs_per_cell: 2,
            instances_per_task: 5,
            threads: 2,
            ..GrayStudyConfig::default()
        }
    }

    #[test]
    fn campaign_is_clean_and_adaptive_dominates_slowdowns() {
        let outcome = run_gray(&tiny_cfg());
        assert!(
            outcome.is_clean(),
            "{:?}",
            outcome
                .failures()
                .first()
                .map(|v| (&v.fixed_violations, &v.adaptive_violations))
        );
        assert_eq!(outcome.verdicts.len(), 4);
        let slowdowns: u64 = outcome.cells.iter().map(|c| c.slowdowns).sum();
        assert!(slowdowns > 0, "slow cells must enter slow windows");
        let headline: Vec<&GrayCell> = outcome.cells.iter().filter(|c| c.slowdown_only).collect();
        assert!(!headline.is_empty());
        for c in &headline {
            assert!(
                c.fixed_false_deads > 0,
                "the fixed cliff must false-dead the slow peer: {c:?}"
            );
            assert_eq!(
                c.adaptive_false_deads, 0,
                "φ must absorb an 8x slowdown: {c:?}"
            );
            assert!(c.adaptive_gray_hits > 0, "{c:?}");
        }
        assert!(outcome.adaptive_dominates());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut cfg = tiny_cfg();
        cfg.threads = 1;
        let a = run_gray(&cfg);
        cfg.threads = 4;
        let b = run_gray(&cfg);
        assert_eq!(grid_csv(&a), grid_csv(&b));
        assert_eq!(summary_csv(&a), summary_csv(&b));
    }

    #[test]
    fn smoke_config_covers_the_grid() {
        let cfg = GrayStudyConfig::smoke();
        assert!(cfg.total_runs() >= 16);
        assert!(cfg.slow_factors.contains(&1) && cfg.slow_factors.iter().any(|&f| f > 1));
        assert!(cfg.stall_spans.iter().any(|&s| s > 0));
        assert!(cfg.link_drops.iter().any(|&d| d > 0));
    }
}
