//! The admission-control throughput study: how many online admit/retire
//! decisions per second the incremental engine sustains on §5.1
//! synthetic workloads, and what the memoization actually buys.
//!
//! Each run draws a seeded §5.1 system (4 processors), converts its task
//! chains into [`ChainRequest`]s ranked shortest-period-first, and
//! drives the same operation sequence through two
//! [`AdmissionState`] arms over identical requests:
//!
//! * **warm** — memoization on: `admit` re-runs fixed points only for
//!   subtasks whose interference set changed, seeded from the memoized
//!   bounds;
//! * **cold** — memoization off: every decision re-analyzes the whole
//!   resident system from scratch, exactly the batch analyses.
//!
//! The sequence admits every chain, then churns: each round retires one
//! resident (cycling over the admitted ids) and re-admits it. That is
//! the online steady state the engine exists for — membership changes
//! one chain at a time against a warm resident set. Per `(N, U, mode)`
//! cell the study reports decisions/s for both arms, the warm/cold
//! speedup, the subtask re-analyses each arm actually ran, and a
//! verdict-agreement count: any admit/retire whose outcome differs
//! between the arms is a correctness failure
//! ([`AdmitOutcome::is_clean`]), since memoization is exactness-
//! preserving by construction.
//!
//! Timings are wall-clock and machine-dependent; the recorded CSVs are
//! a snapshot, the agreement counters are invariants.

use std::time::Instant;

use crate::campaign::{run_grid, Csv};
use crate::seeding::job_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::admission::{
    AdmissionConfig, AdmissionMode, AdmissionState, ChainRequest,
};
use rtsync_workload::{generate, WorkloadSpec};

/// Admission-study parameters.
#[derive(Clone, Debug)]
pub struct AdmitStudyConfig {
    /// Workload shapes to sweep: `(subtasks per task, per-processor
    /// utilization)` of the §5.1 generator.
    pub shapes: Vec<(usize, f64)>,
    /// Analysis modes to sweep.
    pub modes: Vec<AdmissionMode>,
    /// Systems drawn per `(shape, mode)` cell.
    pub systems_per_cell: usize,
    /// Retire + re-admit rounds per system after the initial fill.
    pub churn_rounds: usize,
    /// Master seed; system seeds derive from it.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl Default for AdmitStudyConfig {
    fn default() -> AdmitStudyConfig {
        AdmitStudyConfig {
            shapes: vec![(2, 0.25), (4, 0.25), (4, 0.50), (8, 0.50)],
            modes: vec![AdmissionMode::PmFamily, AdmissionMode::DirectSync],
            systems_per_cell: 8,
            churn_rounds: 200,
            seed: 0xAD31_7000,
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        }
    }
}

impl AdmitStudyConfig {
    /// A reduced study for CI smoke jobs and tests.
    pub fn smoke() -> AdmitStudyConfig {
        AdmitStudyConfig {
            shapes: vec![(2, 0.25), (4, 0.50)],
            systems_per_cell: 2,
            churn_rounds: 12,
            ..AdmitStudyConfig::default()
        }
    }

    /// Total runs in the study (each run drives both arms).
    pub fn total_runs(&self) -> usize {
        self.shapes.len() * self.modes.len() * self.systems_per_cell
    }
}

/// One arm's measurements out of one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdmitArm {
    /// Admit + retire operations served.
    pub ops: u64,
    /// Chains admitted (initial fill + churn re-admissions).
    pub admitted: u64,
    /// Admissions rejected.
    pub rejected: u64,
    /// Subtask analyses actually re-run.
    pub reanalyzed: u64,
    /// Subtask analyses skipped by memoization.
    pub skipped: u64,
    /// Wall-clock seconds spent inside the engine.
    pub seconds: f64,
}

impl AdmitArm {
    /// Decisions per second (admits + retires over engine time).
    pub fn rate(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// The verdict of one run: both arms over the same operation sequence.
#[derive(Clone, Debug)]
pub struct AdmitVerdict {
    /// Subtasks per task of this run's cell.
    pub n: usize,
    /// Per-processor utilization of this run's cell.
    pub u: f64,
    /// Analysis mode of this run's cell.
    pub mode: AdmissionMode,
    /// Run index within the cell.
    pub run_index: usize,
    /// Seed the synthetic system was generated from.
    pub system_seed: u64,
    /// The memoizing arm.
    pub warm: AdmitArm,
    /// The from-scratch arm.
    pub cold: AdmitArm,
    /// Operations whose outcome differed between the arms (must be 0).
    pub disagreements: u64,
}

/// Aggregate of one `(N, U, mode)` cell.
#[derive(Clone, Debug)]
pub struct AdmitCell {
    /// Subtasks per task.
    pub n: usize,
    /// Per-processor utilization.
    pub u: f64,
    /// Analysis mode.
    pub mode: AdmissionMode,
    /// Runs aggregated.
    pub runs: usize,
    /// Warm-arm totals.
    pub warm: AdmitArm,
    /// Cold-arm totals.
    pub cold: AdmitArm,
    /// Total operations that disagreed between the arms.
    pub disagreements: u64,
}

impl AdmitCell {
    /// Warm-over-cold throughput ratio.
    pub fn speedup(&self) -> f64 {
        speedup(&self.warm, &self.cold)
    }
}

/// The whole study's outcome.
#[derive(Clone, Debug)]
pub struct AdmitOutcome {
    /// Cell aggregates: shapes outer, modes inner.
    pub cells: Vec<AdmitCell>,
    /// Per-run verdicts in deterministic (cell, run) order.
    pub verdicts: Vec<AdmitVerdict>,
}

impl AdmitOutcome {
    /// `true` when the warm and cold arms agreed on every single
    /// operation's outcome — the memoization exactness invariant.
    pub fn is_clean(&self) -> bool {
        self.verdicts.iter().all(|v| v.disagreements == 0)
    }

    /// Decisions/s of the memoizing arm across all runs.
    pub fn overall_warm_rate(&self) -> f64 {
        let (ops, secs) = self.verdicts.iter().fold((0u64, 0.0), |(o, s), v| {
            (o + v.warm.ops, s + v.warm.seconds)
        });
        if secs > 0.0 {
            ops as f64 / secs
        } else {
            0.0
        }
    }
}

/// The §5.1 system of one run, as admission requests: one chain per
/// task, id = task index, ranked shortest-period-first (the deadline-
/// monotonic order the workload generator assigns priorities in).
fn requests_of(system_seed: u64, n: usize, u: f64) -> (usize, Vec<ChainRequest>) {
    let spec = WorkloadSpec::paper(n, u);
    let set = generate(&spec, &mut StdRng::seed_from_u64(system_seed))
        .expect("paper spec always generates");
    let requests = set
        .tasks()
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let subtasks = task
                .subtasks()
                .iter()
                .map(|sub| (sub.processor().index(), sub.execution()))
                .collect();
            ChainRequest::new(i as u64, task.period(), subtasks)
                .with_deadline(task.deadline())
                .with_rank(task.period().ticks().min(i64::from(u32::MAX)) as u32)
        })
        .collect();
    (set.num_processors(), requests)
}

/// Drives one arm through the full sequence: admit every chain, then
/// `churn_rounds` retire + re-admit rounds cycling over the admitted
/// ids. Returns the measurements plus the per-operation outcome trace
/// (admitted flag per admit, success flag per retire) for agreement
/// checking.
fn drive(
    processors: usize,
    requests: &[ChainRequest],
    churn_rounds: usize,
    cfg: AdmissionConfig,
) -> (AdmitArm, Vec<bool>) {
    let mut state = AdmissionState::new(processors, cfg);
    let mut outcomes = Vec::with_capacity(requests.len() + 2 * churn_rounds);
    let mut arm = AdmitArm::default();
    let started = Instant::now();
    let mut resident_ids: Vec<u64> = Vec::new();
    for req in requests {
        let decision = state.admit(req.clone());
        if decision.admitted {
            resident_ids.push(req.id);
        }
        outcomes.push(decision.admitted);
    }
    for round in 0..churn_rounds {
        if resident_ids.is_empty() {
            break;
        }
        let id = resident_ids[round % resident_ids.len()];
        let retired = state.retire(id).is_ok();
        outcomes.push(retired);
        let req = requests[id as usize].clone();
        let readmitted = state.admit(req).admitted;
        outcomes.push(readmitted);
        if !readmitted {
            // Shrinking a schedulable system and re-growing it to the
            // same membership cannot fail; recorded for the agreement
            // check rather than assumed.
            resident_ids.retain(|&r| r != id);
        }
    }
    arm.seconds = started.elapsed().as_secs_f64();
    let stats = state.stats();
    arm.ops = stats.decisions + stats.retired;
    arm.admitted = stats.admitted;
    arm.rejected = stats.rejected;
    arm.reanalyzed = stats.subtasks_reanalyzed;
    arm.skipped = stats.subtasks_skipped;
    (arm, outcomes)
}

/// Evaluates one run of one cell: both arms over the same sequence.
fn evaluate_run(
    cell: (usize, f64, AdmissionMode),
    run_index: usize,
    system_seed: u64,
    churn_rounds: usize,
) -> AdmitVerdict {
    let (n, u, mode) = cell;
    let (processors, requests) = requests_of(system_seed, n, u);
    let base = AdmissionConfig::new(mode);
    let (warm, warm_outcomes) = drive(processors, &requests, churn_rounds, base);
    let (cold, cold_outcomes) = drive(
        processors,
        &requests,
        churn_rounds,
        base.with_memoization(false),
    );
    let disagreements = warm_outcomes
        .iter()
        .zip(&cold_outcomes)
        .filter(|(w, c)| w != c)
        .count() as u64
        + warm_outcomes.len().abs_diff(cold_outcomes.len()) as u64;
    AdmitVerdict {
        n,
        u,
        mode,
        run_index,
        system_seed,
        warm,
        cold,
        disagreements,
    }
}

/// Runs the whole study: `shapes × modes × systems_per_cell` seeded
/// runs, two arms each. Cells come back shapes-outer, modes-inner;
/// verdicts in (cell, run) order. Outcome *verdicts* are deterministic
/// for a given config; the timings are wall-clock.
pub fn run_admit_study(cfg: &AdmitStudyConfig) -> AdmitOutcome {
    let cells: Vec<(usize, (usize, f64), AdmissionMode)> = cfg
        .shapes
        .iter()
        .enumerate()
        .flat_map(|(i, &shape)| cfg.modes.iter().map(move |&mode| (i, shape, mode)))
        .collect();
    let verdicts = run_grid(
        cfg.seed,
        &cells,
        cfg.systems_per_cell,
        cfg.threads,
        |&(shape_index, (n, u), mode), job| {
            // Same shape + run index → same system seed, so every mode
            // (and both arms) sees identical systems.
            let system_seed = job_seed(cfg.seed, shape_index, job.run);
            evaluate_run((n, u, mode), job.run, system_seed, cfg.churn_rounds)
        },
    );

    let cells = cells
        .iter()
        .zip(&verdicts)
        .map(|(&(_, (n, u), mode), runs)| {
            let (runs, warm, cold, disagreements) = fold_runs(runs);
            AdmitCell {
                n,
                u,
                mode,
                runs,
                warm,
                cold,
                disagreements,
            }
        })
        .collect();

    AdmitOutcome {
        cells,
        verdicts: verdicts.into_iter().flatten().collect(),
    }
}

/// Run count, summed arms and summed disagreements of `runs`.
fn fold_runs<'a>(
    runs: impl IntoIterator<Item = &'a AdmitVerdict>,
) -> (usize, AdmitArm, AdmitArm, u64) {
    let mut totals = (0, AdmitArm::default(), AdmitArm::default(), 0);
    for v in runs {
        totals.0 += 1;
        for (total, arm) in [(&mut totals.1, &v.warm), (&mut totals.2, &v.cold)] {
            total.ops += arm.ops;
            total.admitted += arm.admitted;
            total.rejected += arm.rejected;
            total.reanalyzed += arm.reanalyzed;
            total.skipped += arm.skipped;
            total.seconds += arm.seconds;
        }
        totals.3 += v.disagreements;
    }
    totals
}

/// Warm-over-cold throughput ratio, `NaN` when the cold arm measured no
/// time.
fn speedup(warm: &AdmitArm, cold: &AdmitArm) -> f64 {
    if cold.rate() > 0.0 {
        warm.rate() / cold.rate()
    } else {
        f64::NAN
    }
}

/// The mode's CSV/column tag.
fn mode_tag(mode: AdmissionMode) -> &'static str {
    match mode {
        AdmissionMode::PmFamily => "pm",
        AdmissionMode::DirectSync => "ds",
    }
}

/// Cell-level CSV: one row per `(N, U, mode)` coordinate.
pub fn grid_csv(outcome: &AdmitOutcome) -> String {
    Csv::new(&outcome.cells)
        .col("n", |c| c.n)
        .col("u", |c| format!("{:.2}", c.u))
        .col("mode", |c| mode_tag(c.mode))
        .col("runs", |c| c.runs)
        .col("ops", |c| c.warm.ops)
        .col("admitted", |c| c.warm.admitted)
        .col("rejected", |c| c.warm.rejected)
        .col("warm_decisions_per_sec", |c| {
            format!("{:.0}", c.warm.rate())
        })
        .col("cold_decisions_per_sec", |c| {
            format!("{:.0}", c.cold.rate())
        })
        .col("speedup", |c| format!("{:.2}", c.speedup()))
        .col("warm_reanalyzed", |c| c.warm.reanalyzed)
        .col("warm_skipped", |c| c.warm.skipped)
        .col("cold_reanalyzed", |c| c.cold.reanalyzed)
        .col("disagreements", |c| c.disagreements)
        .render()
}

/// Headline CSV: one row per mode plus the overall line the acceptance
/// gate reads (`mode=all`).
pub fn summary_csv(outcome: &AdmitOutcome) -> String {
    let mut rows: Vec<_> = [AdmissionMode::PmFamily, AdmissionMode::DirectSync]
        .into_iter()
        .map(|mode| {
            let runs = outcome.verdicts.iter().filter(|v| v.mode == mode);
            (mode_tag(mode), fold_runs(runs))
        })
        .filter(|(_, totals)| totals.0 > 0)
        .collect();
    rows.push(("all", fold_runs(&outcome.verdicts)));
    Csv::new(&rows)
        .col("mode", |(tag, _)| *tag)
        .col("runs", |(_, t)| t.0)
        .col("ops", |(_, t)| t.1.ops)
        .col("warm_decisions_per_sec", |(_, t)| {
            format!("{:.0}", t.1.rate())
        })
        .col("cold_decisions_per_sec", |(_, t)| {
            format!("{:.0}", t.2.rate())
        })
        .col("speedup", |(_, t)| format!("{:.2}", speedup(&t.1, &t.2)))
        .col("disagreements", |(_, t)| t.3)
        .render()
}

/// ASCII rendering of the grid.
pub fn render(outcome: &AdmitOutcome) -> String {
    let mut out =
        String::from("admission throughput (decisions/s, warm = memoized, cold = from-scratch)\n");
    out.push_str(&format!(
        "{:<4}{:<6}{:<6}{:>10}{:>14}{:>14}{:>10}{:>14}{:>12}\n",
        "N", "U", "mode", "ops", "warm dec/s", "cold dec/s", "speedup", "reanalyzed", "disagree"
    ));
    for c in &outcome.cells {
        out.push_str(&format!(
            "{:<4}{:<6.2}{:<6}{:>10}{:>14.0}{:>14.0}{:>10.2}{:>14}{:>12}\n",
            c.n,
            c.u,
            mode_tag(c.mode),
            c.warm.ops,
            c.warm.rate(),
            c.cold.rate(),
            c.speedup(),
            c.warm.reanalyzed,
            c.disagreements,
        ));
    }
    out.push_str(&format!(
        "overall warm throughput: {:.0} decisions/s over {} runs\n",
        outcome.overall_warm_rate(),
        outcome.verdicts.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_runs_and_arms_agree() {
        let cfg = AdmitStudyConfig {
            threads: 2,
            ..AdmitStudyConfig::smoke()
        };
        let outcome = run_admit_study(&cfg);
        assert_eq!(outcome.cells.len(), cfg.shapes.len() * cfg.modes.len());
        assert_eq!(outcome.verdicts.len(), cfg.total_runs());
        assert!(outcome.is_clean(), "memoized and cold verdicts must agree");
        for v in &outcome.verdicts {
            assert!(v.warm.ops > 0);
            assert_eq!(v.warm.ops, v.cold.ops, "both arms serve the same sequence");
            assert_eq!(v.warm.admitted, v.cold.admitted);
            assert_eq!(v.warm.rejected, v.cold.rejected);
        }
        // The §5.1 chains are schedulable as generated: the fill admits
        // every chain and churn keeps re-admitting, so the memoizing arm
        // skips work the cold arm repeats.
        let warm_skips: u64 = outcome.verdicts.iter().map(|v| v.warm.skipped).sum();
        assert!(warm_skips > 0, "memoization never skipped anything");
    }

    #[test]
    fn deterministic_verdicts_across_thread_counts() {
        let cfg1 = AdmitStudyConfig {
            threads: 1,
            ..AdmitStudyConfig::smoke()
        };
        let cfg4 = AdmitStudyConfig {
            threads: 4,
            ..AdmitStudyConfig::smoke()
        };
        let a = run_admit_study(&cfg1);
        let b = run_admit_study(&cfg4);
        for (x, y) in a.verdicts.iter().zip(&b.verdicts) {
            assert_eq!(x.system_seed, y.system_seed);
            assert_eq!(x.warm.admitted, y.warm.admitted);
            assert_eq!(x.warm.rejected, y.warm.rejected);
            assert_eq!(x.warm.reanalyzed, y.warm.reanalyzed);
            assert_eq!(x.disagreements, y.disagreements);
        }
    }

    #[test]
    fn csvs_have_matching_shapes() {
        let outcome = run_admit_study(&AdmitStudyConfig {
            threads: 1,
            systems_per_cell: 1,
            churn_rounds: 4,
            shapes: vec![(2, 0.25)],
            ..AdmitStudyConfig::smoke()
        });
        let grid = grid_csv(&outcome);
        assert_eq!(grid.lines().count(), 1 + outcome.cells.len());
        let summary = summary_csv(&outcome);
        // pm + ds + all.
        assert_eq!(summary.lines().count(), 1 + 3);
        assert!(render(&outcome).contains("overall warm throughput"));
    }
}
