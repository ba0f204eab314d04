//! The nonideal-conditions robustness study: a grid over clock drift ε
//! and signal latency L, all four protocols, on synthetic §5.1 systems.
//!
//! The paper argues (§4, §6) that PM "requires that clocks on different
//! processors be synchronized" while MPM and RG need only local clocks
//! and tolerate late signals. This study measures that claim: each grid
//! cell simulates the same set of synthetic systems under ideal and
//! nonideal conditions and reports, per protocol,
//!
//! * **EER inflation** — mean per-task `avg-EER(nonideal) /
//!   avg-EER(ideal)`;
//! * **deadline-miss rate** — missed / measured end-to-end instances;
//! * **precedence violations** — successors released before their
//!   predecessor's completion (PM's failure mode, and an over-drifted
//!   MPM timer's).
//!
//! Like [`study`](crate::study), the run is embarrassingly parallel over
//! systems and bit-for-bit deterministic for a given seed regardless of
//! the thread count.

use crate::campaign::{fmt_f64, inflation_tally, missed_and_measured, run_grid, Csv};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, SimConfig};
use rtsync_sim::nonideal::{ChannelModel, ClockModel, NonidealConfig};
use rtsync_sim::ViolationKind;
use rtsync_workload::{generate, WorkloadSpec};

/// Robustness-grid parameters.
#[derive(Clone, Debug)]
pub struct RobustnessConfig {
    /// Clock drift bounds ε in parts per million (0 = ideal clocks).
    pub drift_ppm_values: Vec<i64>,
    /// Signal latency bounds L in ticks (0 = instantaneous signals).
    /// The §5.1 workload uses 1000 ticks per paper time unit and periods
    /// of 100–10,000 units, so meaningful latencies are thousands of
    /// ticks — a 1-tick "network" is invisible at this resolution.
    pub latency_values: Vec<i64>,
    /// Clock offset bound in ticks, applied whenever ε > 0 (a drifting
    /// clock also starts misaligned).
    pub max_offset: i64,
    /// Subtasks per task of the synthetic systems.
    pub n: usize,
    /// Per-processor utilization of the synthetic systems.
    pub u: f64,
    /// Systems evaluated per grid cell (the *same* systems in every cell).
    pub systems_per_config: usize,
    /// Master seed; system and nonideal seeds derive from it.
    pub seed: u64,
    /// End-to-end instances simulated per task.
    pub instances_per_task: u64,
    /// Worker threads.
    pub threads: usize,
    /// Analysis knobs (PM/MPM need SA/PM bounds).
    pub analysis: AnalysisConfig,
}

impl Default for RobustnessConfig {
    fn default() -> RobustnessConfig {
        RobustnessConfig {
            drift_ppm_values: vec![0, 1_000, 10_000, 50_000],
            latency_values: vec![0, 1_000, 20_000, 100_000],
            max_offset: 1_000,
            n: 3,
            u: 0.6,
            systems_per_config: 10,
            seed: 0xD81F_7001,
            instances_per_task: 20,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            analysis: AnalysisConfig::default(),
        }
    }
}

/// One protocol's aggregate over one grid cell.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolRobustness {
    /// The protocol.
    pub protocol: Protocol,
    /// Mean per-task EER inflation over the ideal run (1.0 = unaffected;
    /// `NaN` when no task completed in both runs).
    pub mean_inflation: f64,
    /// Missed / measured end-to-end instances.
    pub miss_rate: f64,
    /// Total precedence violations across the cell's systems.
    pub precedence_violations: u64,
    /// Total MPM timer overruns across the cell's systems.
    pub mpm_overruns: u64,
}

/// One cell of the drift × latency grid.
#[derive(Clone, Debug)]
pub struct RobustnessCell {
    /// Clock drift bound ε in ppm.
    pub drift_ppm: i64,
    /// Signal latency bound L in ticks.
    pub latency: i64,
    /// Aggregates in [`Protocol::ALL`] order.
    pub protocols: Vec<ProtocolRobustness>,
}

/// Per-system, per-protocol raw numbers (summed into the cell aggregate).
#[derive(Clone, Copy, Default)]
struct Tally {
    inflation: crate::campaign::Tally,
    missed: u64,
    measured: u64,
    precedence_violations: u64,
    mpm_overruns: u64,
}

/// The nonideal conditions of one grid cell.
pub(crate) fn cell_conditions(
    cfg: &RobustnessConfig,
    drift_ppm: i64,
    latency: i64,
    seed: u64,
) -> NonidealConfig {
    let mut ni = NonidealConfig::default();
    if drift_ppm > 0 {
        ni = ni.with_clocks(ClockModel::Random {
            max_offset: Dur::from_ticks(cfg.max_offset),
            max_drift_ppm: drift_ppm,
            seed,
        });
    }
    if latency > 0 {
        ni = ni.with_channel(
            ChannelModel::uniform(Dur::ZERO, Dur::from_ticks(latency))
                .with_seed(seed ^ 0x5ca1_ab1e),
        );
    }
    ni
}

/// Evaluates one system in one cell: ideal + nonideal run per protocol.
fn evaluate_system(
    set: &TaskSet,
    cfg: &RobustnessConfig,
    conditions: &NonidealConfig,
) -> Vec<Tally> {
    Protocol::ALL
        .iter()
        .map(|&protocol| {
            let ideal = simulate(
                set,
                &SimConfig::new(protocol).with_instances(cfg.instances_per_task),
            )
            .expect("study systems are analyzable under SA/PM");
            let observed = simulate(
                set,
                &SimConfig::new(protocol)
                    .with_instances(cfg.instances_per_task)
                    .with_nonideal(conditions.clone()),
            )
            .expect("same system, same analysis");
            let (missed, measured) = missed_and_measured(&observed);
            let count = |kind| {
                observed
                    .violations
                    .iter()
                    .filter(|v| v.kind == kind)
                    .count() as u64
            };
            Tally {
                inflation: inflation_tally(&ideal, &observed),
                missed,
                measured,
                precedence_violations: count(ViolationKind::PrecedenceViolated),
                mpm_overruns: count(ViolationKind::MpmOverrun),
            }
        })
        .collect()
}

/// Runs the whole drift × latency grid. Cells come back in row-major
/// order (drift outer, latency inner). The same synthetic systems are
/// reused in every cell, so cells differ only in the modeled conditions.
pub fn run_robustness(cfg: &RobustnessConfig) -> Vec<RobustnessCell> {
    let spec = WorkloadSpec::paper(cfg.n, cfg.u).with_random_phases();
    let cells: Vec<(i64, i64)> = cfg
        .drift_ppm_values
        .iter()
        .flat_map(|&eps| cfg.latency_values.iter().map(move |&l| (eps, l)))
        .collect();
    let results = run_grid(
        cfg.seed,
        &cells,
        cfg.systems_per_config,
        cfg.threads,
        |&(eps, latency), job| {
            let set = generate(&spec, &mut StdRng::seed_from_u64(job.system_seed))
                .expect("paper spec always generates");
            let conditions = cell_conditions(cfg, eps, latency, job.cond_seed);
            evaluate_system(&set, cfg, &conditions)
        },
    );

    cells
        .iter()
        .zip(&results)
        .map(|(&(eps, latency), systems)| {
            let mut sums = vec![Tally::default(); Protocol::ALL.len()];
            for system in systems {
                for (p, t) in system.iter().enumerate() {
                    sums[p].inflation.merge(t.inflation);
                    sums[p].missed += t.missed;
                    sums[p].measured += t.measured;
                    sums[p].precedence_violations += t.precedence_violations;
                    sums[p].mpm_overruns += t.mpm_overruns;
                }
            }
            RobustnessCell {
                drift_ppm: eps,
                latency,
                protocols: Protocol::ALL
                    .iter()
                    .zip(&sums)
                    .map(|(&protocol, t)| ProtocolRobustness {
                        protocol,
                        mean_inflation: t.inflation.mean(),
                        miss_rate: if t.measured == 0 {
                            f64::NAN
                        } else {
                            t.missed as f64 / t.measured as f64
                        },
                        precedence_violations: t.precedence_violations,
                        mpm_overruns: t.mpm_overruns,
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Long-format CSV over the whole grid: one row per (cell, protocol).
pub fn to_csv(cells: &[RobustnessCell]) -> String {
    let rows: Vec<(&RobustnessCell, &ProtocolRobustness)> = cells
        .iter()
        .flat_map(|cell| cell.protocols.iter().map(move |p| (cell, p)))
        .collect();
    Csv::new(&rows)
        .col("drift_ppm", |(c, _)| c.drift_ppm)
        .col("latency", |(c, _)| c.latency)
        .col("protocol", |(_, p)| p.protocol.tag())
        .float("mean_inflation", |(_, p)| p.mean_inflation)
        .float("miss_rate", |(_, p)| p.miss_rate)
        .col("precedence_violations", |(_, p)| p.precedence_violations)
        .col("mpm_overruns", |(_, p)| p.mpm_overruns)
        .render()
}

/// One protocol's inflation matrix as CSV: rows ε, columns L.
pub fn inflation_matrix_csv(cells: &[RobustnessCell], protocol: Protocol) -> String {
    let mut drifts: Vec<i64> = cells.iter().map(|c| c.drift_ppm).collect();
    drifts.dedup();
    let mut latencies: Vec<i64> = cells.iter().map(|c| c.latency).collect();
    latencies.sort_unstable();
    latencies.dedup();
    matrix_csv(&drifts, &latencies, |d, l| {
        cells
            .iter()
            .find(|c| c.drift_ppm == drifts[d] && c.latency == latencies[l])
            .and_then(|c| c.protocols.iter().find(|p| p.protocol == protocol))
            .map_or(f64::NAN, |p| p.mean_inflation)
    })
}

/// A drift × latency matrix as CSV: a `drift_ppm,L=…` header, then one
/// row per drift with `value(drift index, latency index)` per column,
/// empty where the value is not finite.
pub(crate) fn matrix_csv(
    drifts: &[i64],
    latencies: &[i64],
    value: impl Fn(usize, usize) -> f64,
) -> String {
    let mut out = String::from("drift_ppm");
    for l in latencies {
        out.push_str(&format!(",L={l}"));
    }
    out.push('\n');
    for (d, eps) in drifts.iter().enumerate() {
        out.push_str(&eps.to_string());
        for l in 0..latencies.len() {
            out.push(',');
            let v = value(d, l);
            if v.is_finite() {
                out.push_str(&fmt_f64(v));
            }
        }
        out.push('\n');
    }
    out
}

/// ASCII rendering of the grid for the terminal.
pub fn render(cells: &[RobustnessCell]) -> String {
    let mut out =
        String::from("robustness grid: mean EER inflation (miss rate | precedence violations)\n");
    for cell in cells {
        out.push_str(&format!(
            "  ε = {:>6} ppm, L = {} ticks:\n",
            cell.drift_ppm, cell.latency
        ));
        for p in &cell.protocols {
            out.push_str(&format!(
                "    {:>3}: x{:<7} ({:.3} | {}{})\n",
                p.protocol.tag(),
                fmt_f64(p.mean_inflation),
                p.miss_rate,
                p.precedence_violations,
                if p.mpm_overruns > 0 {
                    format!(", {} MPM overruns", p.mpm_overruns)
                } else {
                    String::new()
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> RobustnessConfig {
        RobustnessConfig {
            drift_ppm_values: vec![0, 50_000],
            latency_values: vec![0, 50_000],
            systems_per_config: 2,
            instances_per_task: 8,
            threads: 2,
            ..RobustnessConfig::default()
        }
    }

    #[test]
    fn ideal_cell_reads_inflation_one() {
        let cells = run_robustness(&tiny_cfg());
        let ideal = &cells[0];
        assert_eq!((ideal.drift_ppm, ideal.latency), (0, 0));
        for p in &ideal.protocols {
            assert!(
                (p.mean_inflation - 1.0).abs() < 1e-12,
                "{}: {}",
                p.protocol.tag(),
                p.mean_inflation
            );
            assert_eq!(p.precedence_violations, 0, "{}", p.protocol.tag());
        }
    }

    #[test]
    fn drift_breaks_pm_but_not_rg() {
        let cells = run_robustness(&tiny_cfg());
        let drifted = cells
            .iter()
            .find(|c| c.drift_ppm == 50_000 && c.latency == 0)
            .unwrap();
        let of = |proto: Protocol| {
            drifted
                .protocols
                .iter()
                .find(|p| p.protocol == proto)
                .unwrap()
        };
        assert!(
            of(Protocol::PhaseModification).precedence_violations > 0,
            "5% drift with offsets must break PM"
        );
        assert_eq!(of(Protocol::ReleaseGuard).precedence_violations, 0);
        assert_eq!(of(Protocol::DirectSync).precedence_violations, 0);
    }

    #[test]
    fn latency_inflates_signal_driven_eer() {
        let cells = run_robustness(&tiny_cfg());
        let delayed = cells
            .iter()
            .find(|c| c.drift_ppm == 0 && c.latency == 50_000)
            .unwrap();
        for proto in [
            Protocol::DirectSync,
            Protocol::ModifiedPhaseModification,
            Protocol::ReleaseGuard,
        ] {
            let p = delayed
                .protocols
                .iter()
                .find(|p| p.protocol == proto)
                .unwrap();
            assert!(
                p.mean_inflation > 1.0001,
                "{}: 50k-tick latency must visibly inflate EER, got {}",
                proto.tag(),
                p.mean_inflation
            );
        }
        // PM sends no signals: latency alone cannot touch it.
        let pm = delayed
            .protocols
            .iter()
            .find(|p| p.protocol == Protocol::PhaseModification)
            .unwrap();
        assert!(
            (pm.mean_inflation - 1.0).abs() < 1e-12,
            "{}",
            pm.mean_inflation
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mut cfg = tiny_cfg();
        cfg.threads = 1;
        let a = run_robustness(&cfg);
        cfg.threads = 4;
        let b = run_robustness(&cfg);
        assert_eq!(to_csv(&a), to_csv(&b));
    }

    #[test]
    fn csv_shapes() {
        let cells = run_robustness(&tiny_cfg());
        let csv = to_csv(&cells);
        // Header + 4 cells × 4 protocols.
        assert_eq!(csv.lines().count(), 1 + 4 * 4);
        let matrix = inflation_matrix_csv(&cells, Protocol::ReleaseGuard);
        assert_eq!(matrix.lines().count(), 1 + 2); // header + 2 drift rows
        assert!(matrix.starts_with("drift_ppm,L=0,L=50000"));
    }
}
