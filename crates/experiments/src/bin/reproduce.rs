//! `reproduce` — regenerate the paper's figures from the command line.
//!
//! ```text
//! reproduce all                      # every figure, small default study
//! reproduce fig3 fig7                # just the schedule traces
//! reproduce fig12 --systems 1000     # the paper-scale failure-rate study
//! reproduce study --out results/     # figs 12-16 + CSVs under results/
//! ```
//!
//! Options: `--systems N` (per configuration; paper used 1000),
//! `--instances I` (end-to-end instances per task in the average-EER
//! simulations), `--seed S`, `--threads T`, `--out DIR` (write CSVs).

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use rtsync_experiments::figures::{custom_grid, figure_grid, Figure};
use rtsync_experiments::robustness::{self, RobustnessConfig};
use rtsync_experiments::study::{run_study, StudyConfig};
use rtsync_experiments::traces::TraceFigure;

struct Options {
    trace_figures: BTreeSet<u32>,
    study_figures: BTreeSet<u32>,
    run_rule2_ablation: bool,
    run_distribution_ablation: bool,
    run_tightness: bool,
    run_exact: bool,
    run_tails: bool,
    run_contention: bool,
    run_policies: bool,
    run_convergence: bool,
    run_robustness: bool,
    run_sync: bool,
    obs: bool,
    cfg: StudyConfig,
    /// `--seed`, when given: studies with their own default seed keep it
    /// otherwise.
    seed: Option<u64>,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut trace_figures = BTreeSet::new();
    let mut study_figures = BTreeSet::new();
    let mut run_rule2_ablation = false;
    let mut run_distribution_ablation = false;
    let mut run_tightness = false;
    let mut run_exact = false;
    let mut run_tails = false;
    let mut run_contention = false;
    let mut run_policies = false;
    let mut run_convergence = false;
    let mut run_robustness = false;
    let mut run_sync = false;
    let mut obs = false;
    let mut cfg = StudyConfig::default();
    let mut seed = None;
    let mut out_dir = None;
    let mut saw_selector = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut grab = |name: &str| -> Result<String, String> {
            args.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "all" => {
                saw_selector = true;
                trace_figures.extend([3, 5, 6, 7]);
                study_figures.extend([12, 13, 14, 15, 16]);
            }
            "traces" => {
                saw_selector = true;
                trace_figures.extend([3, 5, 6, 7]);
            }
            "study" => {
                saw_selector = true;
                study_figures.extend([12, 13, 14, 15, 16]);
            }
            "fig3" => {
                saw_selector = true;
                trace_figures.insert(3);
            }
            "fig5" => {
                saw_selector = true;
                trace_figures.insert(5);
            }
            "fig6" => {
                saw_selector = true;
                trace_figures.insert(6);
            }
            "fig7" => {
                saw_selector = true;
                trace_figures.insert(7);
            }
            "fig12" | "fig13" | "fig14" | "fig15" | "fig16" => {
                saw_selector = true;
                study_figures.insert(arg[3..].parse().expect("matched digits"));
            }
            "rule2" => {
                saw_selector = true;
                run_rule2_ablation = true;
            }
            "distributions" => {
                saw_selector = true;
                run_distribution_ablation = true;
            }
            "tightness" => {
                saw_selector = true;
                run_tightness = true;
            }
            "exact" => {
                saw_selector = true;
                run_exact = true;
            }
            "tails" => {
                saw_selector = true;
                run_tails = true;
            }
            "contention" => {
                saw_selector = true;
                run_contention = true;
            }
            "policies" => {
                saw_selector = true;
                run_policies = true;
            }
            "convergence" => {
                saw_selector = true;
                run_convergence = true;
            }
            "robustness" => {
                saw_selector = true;
                run_robustness = true;
            }
            "sync" => {
                saw_selector = true;
                run_sync = true;
            }
            "ablations" => {
                saw_selector = true;
                run_rule2_ablation = true;
                run_distribution_ablation = true;
                run_tightness = true;
                run_contention = true;
                run_policies = true;
            }
            "--systems" => {
                cfg.systems_per_config = grab("--systems")?
                    .parse()
                    .map_err(|e| format!("--systems: {e}"))?;
            }
            "--instances" => {
                cfg.instances_per_task = grab("--instances")?
                    .parse()
                    .map_err(|e| format!("--instances: {e}"))?;
            }
            "--seed" => {
                cfg.seed = grab("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
                seed = Some(cfg.seed);
            }
            "--threads" => {
                cfg.threads = grab("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--out" => out_dir = Some(PathBuf::from(grab("--out")?)),
            "--obs" => obs = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !saw_selector {
        trace_figures.extend([3, 5, 6, 7]);
        study_figures.extend([12, 13, 14, 15, 16]);
    }
    Ok(Options {
        trace_figures,
        study_figures,
        run_rule2_ablation,
        run_distribution_ablation,
        run_tightness,
        run_exact,
        run_tails,
        run_contention,
        run_policies,
        run_convergence,
        run_robustness,
        run_sync,
        obs,
        cfg,
        seed,
        out_dir,
    })
}

/// `git describe` of the working tree, for run-log provenance.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Accumulates the provenance log written to `results/reproduce_run.txt`:
/// seed, git revision, and wall-clock / event-throughput per study.
struct RunLog {
    lines: Vec<String>,
}

impl RunLog {
    fn new(cfg: &StudyConfig) -> RunLog {
        RunLog {
            lines: vec![
                format!("command: reproduce {}", {
                    let args: Vec<String> = std::env::args().skip(1).collect();
                    args.join(" ")
                }),
                format!("git: {}", git_describe()),
                format!("seed: {:#x}", cfg.seed),
                format!(
                    "config: {} systems/config, {} instances/task, {} threads",
                    cfg.systems_per_config, cfg.instances_per_task, cfg.threads
                ),
            ],
        }
    }

    /// Records one study section: wall-clock, and events/sec when the
    /// section reports simulated-event totals (`events > 0`).
    fn study(&mut self, name: &str, elapsed: std::time::Duration, events: u64) {
        let secs = elapsed.as_secs_f64();
        let mut line = format!("{name}: {secs:.2}s");
        if events > 0 {
            line.push_str(&format!(
                ", {events} events ({:.0} events/s)",
                events as f64 / secs.max(1e-9)
            ));
        }
        self.lines.push(line);
    }

    fn render(&self) -> String {
        let mut out = self.lines.join("\n");
        out.push('\n');
        out
    }
}

fn write_csv(out_dir: &Option<PathBuf>, name: &str, content: &str) -> Result<(), String> {
    let Some(dir) = out_dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    rtsync_experiments::exit_quietly_on_broken_pipe();
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: reproduce [all|traces|study|fig3..fig7|fig12..fig16|rule2|distributions|tightness|exact|tails|contention|policies|convergence|robustness|sync|ablations]... \
                 [--systems N] [--instances I] [--seed S] [--threads T] [--out DIR] [--obs]"
            );
            return ExitCode::FAILURE;
        }
    };
    let mut run_log = RunLog::new(&opts.cfg);

    for fig in TraceFigure::ALL {
        if opts.trace_figures.contains(&fig.number()) {
            println!("{}", fig.render());
        }
    }

    if opts.run_tails {
        println!("running the tail-latency study (p99 EER ratios; beyond the paper)…");
        let started = std::time::Instant::now();
        let outcomes = run_study(&opts.cfg);
        run_log.study(
            "tails",
            started.elapsed(),
            outcomes.iter().map(|o| o.events).sum(),
        );
        for (name, file, extract) in [
            (
                "p99-EER ratio PM/DS",
                "tails_pm_ds_p99.csv",
                (|o: &rtsync_experiments::ConfigOutcome| o.pm_ds_p99_mean)
                    as fn(&rtsync_experiments::ConfigOutcome) -> f64,
            ),
            ("p99-EER ratio RG/DS", "tails_rg_ds_p99.csv", |o| {
                o.rg_ds_p99_mean
            }),
        ] {
            let grid = custom_grid(name, &outcomes, extract);
            println!("{grid}");
            if let Err(e) = write_csv(&opts.out_dir, file, &grid.to_csv()) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if !opts.study_figures.is_empty() {
        println!(
            "running the simulation study: {} configurations x {} systems, \
             {} instances/task, seed {} ({} threads)",
            opts.cfg.n_values.len() * opts.cfg.u_values.len(),
            opts.cfg.systems_per_config,
            opts.cfg.instances_per_task,
            opts.cfg.seed,
            opts.cfg.threads,
        );
        let started = std::time::Instant::now();
        let outcomes = run_study(&opts.cfg);
        run_log.study(
            "study",
            started.elapsed(),
            outcomes.iter().map(|o| o.events).sum(),
        );
        // The paper: "the 90% confidence intervals are negligibly small".
        let max_ci = |f: fn(&rtsync_experiments::ConfigOutcome) -> f64| {
            outcomes
                .iter()
                .map(f)
                .filter(|v| v.is_finite())
                .fold(0.0f64, f64::max)
        };
        println!(
            "90% CI half-widths (max over the grid): PM/DS ±{:.3}, RG/DS ±{:.3}, bound ratio ±{:.3}\n",
            max_ci(|o| o.pm_ds_ci90),
            max_ci(|o| o.rg_ds_ci90),
            max_ci(|o| o.bound_ratio_ci90),
        );
        for fig in Figure::ALL {
            if !opts.study_figures.contains(&fig.number()) {
                continue;
            }
            let grid = figure_grid(fig, &outcomes);
            println!("{grid}");
            if let Err(e) = write_csv(
                &opts.out_dir,
                &format!("fig{}.csv", fig.number()),
                &grid.to_csv(),
            ) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.run_rule2_ablation {
        println!("running the RG rule-2 ablation…");
        let grid = rtsync_experiments::ablation::rule2_ablation(&opts.cfg);
        println!("{grid}");
        if let Err(e) = write_csv(&opts.out_dir, "ablation_rule2.csv", &grid.to_csv()) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    if opts.run_distribution_ablation {
        println!("running the period-distribution ablation…");
        for (i, grid) in rtsync_experiments::ablation::distribution_ablation(&opts.cfg)
            .iter()
            .enumerate()
        {
            println!("{grid}");
            if let Err(e) = write_csv(
                &opts.out_dir,
                &format!("ablation_distribution_{i}.csv"),
                &grid.to_csv(),
            ) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.run_exact {
        use rtsync_core::analysis::sa_ds::analyze_ds;
        use rtsync_core::analysis::sa_pm::analyze_pm;
        use rtsync_core::examples::example2;
        use rtsync_core::protocol::Protocol;
        use rtsync_experiments::exact::{exact_worst_case, ExactConfig};
        println!("exhaustive phase search on Example 2 (full integer grid):");
        let set = example2();
        let cfg = ExactConfig {
            phase_steps: 0,
            instances_per_task: 12,
            max_combinations: 1_000,
        };
        let pm = analyze_pm(&set, &opts.cfg.analysis).expect("example 2 analyzes");
        let ds = analyze_ds(&set, &opts.cfg.analysis).expect("example 2 analyzes");
        for protocol in [
            Protocol::DirectSync,
            Protocol::ReleaseGuard,
            Protocol::PhaseModification,
        ] {
            let exact = exact_worst_case(&set, protocol, &cfg).expect("example 2 simulates");
            println!("  {}:", protocol.tag());
            for (i, w) in exact.iter().enumerate() {
                let bound = match protocol {
                    Protocol::DirectSync => ds.task_bounds()[i],
                    _ => pm.task_bounds()[i],
                };
                println!(
                    "    T{i}: exact worst observed {} vs analyzed bound {}{}",
                    w.ticks(),
                    bound.ticks(),
                    if *w == bound { "  (tight)" } else { "" }
                );
            }
        }
    }

    if opts.run_contention {
        println!("running the resource-contention ablation…");
        for (i, grid) in rtsync_experiments::ablation::contention_ablation(&opts.cfg, &[0.2, 0.5])
            .iter()
            .enumerate()
        {
            println!("{grid}");
            if let Err(e) = write_csv(
                &opts.out_dir,
                &format!("ablation_contention_{i}.csv"),
                &grid.to_csv(),
            ) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.run_policies {
        println!("running the priority-policy (deadline split) ablation…");
        for (i, grid) in rtsync_experiments::ablation::priority_policy_ablation(&opts.cfg)
            .iter()
            .enumerate()
        {
            println!("{grid}");
            if let Err(e) = write_csv(
                &opts.out_dir,
                &format!("ablation_policy_{i}.csv"),
                &grid.to_csv(),
            ) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.run_robustness {
        println!("running the nonideal-conditions robustness grid (drift × latency)…");
        let rcfg = RobustnessConfig {
            systems_per_config: opts.cfg.systems_per_config.min(20),
            seed: opts.cfg.seed,
            instances_per_task: opts.cfg.instances_per_task,
            threads: opts.cfg.threads,
            analysis: opts.cfg.analysis,
            ..RobustnessConfig::default()
        };
        println!(
            "  {} drift values x {} latency values x {} systems, seed {} ({} threads)",
            rcfg.drift_ppm_values.len(),
            rcfg.latency_values.len(),
            rcfg.systems_per_config,
            rcfg.seed,
            rcfg.threads,
        );
        let started = std::time::Instant::now();
        let cells = robustness::run_robustness(&rcfg);
        run_log.study("robustness", started.elapsed(), 0);
        println!("{}", robustness::render(&cells));
        // The robustness grid always records its results (default:
        // `results/`), so the recorded-run command line in EXPERIMENTS.md
        // reproduces the committed CSVs.
        let dir = opts
            .out_dir
            .clone()
            .or_else(|| Some(PathBuf::from("results")));
        if let Err(e) = write_csv(&dir, "robustness.csv", &robustness::to_csv(&cells)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        for protocol in rtsync_core::protocol::Protocol::ALL {
            let name = format!("robustness_inflation_{}.csv", protocol.tag().to_lowercase());
            let csv = robustness::inflation_matrix_csv(&cells, protocol);
            if let Err(e) = write_csv(&dir, &name, &csv) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.run_sync {
        use rtsync_experiments::sync::{self, SyncStudyConfig};
        println!("running the clock-synchronization study (drift × latency × sync-period)…");
        let defaults = SyncStudyConfig::default();
        let scfg = SyncStudyConfig {
            systems_per_config: opts.cfg.systems_per_config.min(10),
            seed: opts.seed.unwrap_or(defaults.seed),
            threads: opts.cfg.threads,
            analysis: opts.cfg.analysis,
            ..defaults
        };
        println!(
            "  {} drift values x {} latency values x {} periods x {} systems \
             ({} simulation runs, seed {}, {} threads)",
            scfg.drift_ppm_values.len(),
            scfg.latency_values.len(),
            scfg.sync_periods.len(),
            scfg.systems_per_config,
            scfg.total_runs(),
            scfg.seed,
            scfg.threads,
        );
        let started = std::time::Instant::now();
        let outcome = sync::run_sync_study(&scfg);
        run_log.study("sync", started.elapsed(), 0);
        println!("{}", sync::render(&outcome));
        // Like the robustness grid, the sync study always records its
        // results so EXPERIMENTS.md's recorded command reproduces the
        // committed CSVs.
        let dir = opts
            .out_dir
            .clone()
            .or_else(|| Some(PathBuf::from("results")));
        if let Err(e) = write_csv(&dir, "sync_grid.csv", &sync::grid_csv(&outcome)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = write_csv(&dir, "sync_summary.csv", &sync::summary_csv(&outcome)) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        // The PM-synced companion to robustness_inflation_pm.csv: same
        // grid, same systems and seeds, PM with sync at a feasible
        // period (10k ticks: 5% drift accumulates only ~500 ticks of
        // error between rounds, against task periods of 100k–10M ticks).
        println!("re-running the robustness PM rows with sync attached…");
        let rcfg = RobustnessConfig {
            systems_per_config: opts.cfg.systems_per_config.min(10),
            seed: opts.cfg.seed,
            instances_per_task: opts.cfg.instances_per_task,
            threads: opts.cfg.threads,
            analysis: opts.cfg.analysis,
            ..RobustnessConfig::default()
        };
        let started = std::time::Instant::now();
        let csv = sync::robustness_pm_synced_csv(&rcfg, 10_000, rtsync_sim::SyncPolicy::Step);
        run_log.study("robustness_pm_synced", started.elapsed(), 0);
        print!("PM inflation matrix, synced (period 10000, step policy):\n{csv}");
        if let Err(e) = write_csv(&dir, "robustness_pm_synced.csv", &csv) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }

    if opts.run_convergence {
        println!("running the ratio-convergence study…");
        let started = std::time::Instant::now();
        for (n, u) in [(3usize, 0.6f64), (6, 0.8)] {
            let rows = rtsync_experiments::convergence::convergence_study(
                n,
                u,
                &opts.cfg,
                &[5, 10, 20, 40, 80],
            );
            println!("{}", rtsync_experiments::convergence::render(n, u, &rows));
        }
        run_log.study("convergence", started.elapsed(), 0);
        if opts.obs {
            // Analysis-convergence instrumentation: per-system SA/PM
            // iteration counts and SA/DS sweep trajectories, as CSV.
            println!("running the analysis-convergence study (--obs)…");
            let mut all = Vec::new();
            for (n, u) in [(3usize, 0.6f64), (6, 0.8)] {
                let rows =
                    rtsync_experiments::convergence::analysis_convergence_study(n, u, &opts.cfg);
                print!(
                    "{}",
                    rtsync_experiments::convergence::render_analysis(&rows)
                );
                all.extend(rows);
            }
            let dir = opts
                .out_dir
                .clone()
                .or_else(|| Some(PathBuf::from("results")));
            if let Err(e) = write_csv(
                &dir,
                "convergence_obs.csv",
                &rtsync_experiments::convergence::analysis_convergence_csv(&all),
            ) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if opts.run_tightness {
        println!("running the bound-tightness study…");
        let mut rows = Vec::new();
        for &n in &opts.cfg.n_values {
            for &u in &opts.cfg.u_values {
                rows.push(rtsync_experiments::tightness::tightness_config(
                    n, u, &opts.cfg,
                ));
            }
        }
        println!("{}", rtsync_experiments::tightness::render(&rows));
    }

    // Provenance run log: what ran, from which revision, how fast.
    let dir = opts
        .out_dir
        .clone()
        .or_else(|| Some(PathBuf::from("results")));
    if let Err(e) = write_csv(&dir, "reproduce_run.txt", &run_log.render()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
