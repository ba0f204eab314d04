//! `paper_study`: the paper's own workload, closed loop.
//!
//! §5.1 systems spread over the paper's full grid, N ∈ 2..8 subtasks
//! per task × U ∈ 0.5..0.9 per-processor utilization, with random
//! phases. One operation evaluates one system the way `reproduce study`
//! does: SA/PM and SA/DS bounds, then ideal DS, PM and RG simulations
//! at 20 instances per task. Each simulated maximum end-to-end response
//! is checked against its bound (Theorem 1 for PM and RG; the SA/DS
//! bound for DS when it is finite).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::sa_ds::{analyze_ds, analyze_ds_traced, SweepOrder};
use rtsync_core::analysis::sa_pm::{analyze_pm, analyze_pm_traced};
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::{TaskId, TaskSet};
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, SimConfig};
use rtsync_workload::{generate, WorkloadSpec};

use crate::metrics::{Values, PER_LAYER};
use crate::report::{mix, ratio, timed_setup, Digest, Report};
use crate::sim_layer::{
    bound_breaches, closed_loop, cost_model, digest_outcome, emit_engine_spans, profile_shares,
    report_closed_loop, task_instances, traced_pass, OpOut, Probe, SimCounters, Untraced,
};
use crate::Args;

const N_VALUES: [usize; 7] = [2, 3, 4, 5, 6, 7, 8];
const U_VALUES: [f64; 5] = [0.5, 0.6, 0.7, 0.8, 0.9];
const CELLS: usize = N_VALUES.len() * U_VALUES.len();
/// Systems per grid cell in the pool; more than a run gets through.
const SYSTEMS_PER_CELL: usize = 24;
/// The study's instances per task.
const INSTANCES: u64 = 20;
const PROTOCOLS: [Protocol; 3] = [
    Protocol::DirectSync,
    Protocol::PhaseModification,
    Protocol::ReleaseGuard,
];
/// Tail percentile: a run evaluates a few hundred systems.
const TAIL: f64 = 0.95;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// This workload's sensitivity to a slow stretch of the host (see
/// `calib`): fitted 1.47 within a minute, 1.2 to 1.45 across runs.
const SENSITIVITY: f64 = 1.3;
/// Warm-up operations: the first entries of a fixed pool, N = 2 cells.
const WARMUP_OPS: usize = 5;

/// The generated inputs of one run.
struct Inputs {
    /// Cell-major round robin: entry `k * CELLS + c` is the `k`-th
    /// system of cell `c`, so any prefix covers the grid evenly.
    pool: Vec<TaskSet>,
    configs: [SimConfig; 3],
}

fn build(seed: u64, per_cell: usize) -> Inputs {
    let mut pool = Vec::with_capacity(per_cell * CELLS);
    for k in 0..per_cell {
        for (ni, &n) in N_VALUES.iter().enumerate() {
            for (ui, &u) in U_VALUES.iter().enumerate() {
                let spec = WorkloadSpec::paper(n, u).with_random_phases();
                let salt = ((k * N_VALUES.len() + ni) * U_VALUES.len() + ui) as u64;
                let mut rng = StdRng::seed_from_u64(mix(seed, salt));
                pool.push(generate(&spec, &mut rng).expect("the paper's spec generates"));
            }
        }
    }
    let configs = PROTOCOLS.map(|p| SimConfig::new(p).with_instances(INSTANCES));
    Inputs { pool, configs }
}

/// Evaluates one system. A failed SA/DS analysis is a result; an
/// SA/PM error, a simulation error or a bound breach fails the
/// operation.
fn eval(
    set: &TaskSet,
    configs: &[SimConfig; 3],
    probe: &mut impl Probe,
    mut counters: Option<&mut SimCounters>,
) -> OpOut {
    let cfg = AnalysisConfig::default();
    let pm = probe.layer("analysis.sa_pm", || analyze_pm(set, &cfg));
    let ds = probe.layer("analysis.sa_ds", || analyze_ds(set, &cfg));
    let task_ids = || (0..set.num_tasks()).map(TaskId::new);
    let mut d = Digest::default();
    let mut failed = false;
    let pm_bounds: Option<Vec<Dur>> = match &pm {
        Ok(b) => Some(task_ids().map(|t| b.task_bound(t)).collect()),
        Err(_) => {
            failed = true;
            None
        }
    };
    let ds_bounds: Option<Vec<Dur>> = match &ds {
        Ok(b) => {
            d.word(b.sweeps());
            Some(task_ids().map(|t| b.task_bound(t)).collect())
        }
        Err(e) => {
            failed |= !e.is_failure();
            d.word(u64::MAX);
            None
        }
    };
    for b in pm_bounds.iter().chain(ds_bounds.iter()).flatten() {
        d.int(b.ticks());
    }
    let mut instances = 0;
    let mut sim_ns = 0;
    for cfg in configs {
        let Ok(out) = probe.sim(&mut sim_ns, || simulate(set, cfg)) else {
            failed = true;
            continue;
        };
        digest_outcome(&mut d, &out);
        instances += task_instances(&out);
        if let Some(c) = counters.as_deref_mut() {
            c.add(&out, 0);
        }
        let bounds = match cfg.protocol {
            Protocol::DirectSync => ds_bounds.as_deref(),
            _ => pm_bounds.as_deref(),
        };
        if let Some(b) = bounds {
            failed |= bound_breaches(b, &out) > 0;
        }
    }
    OpOut {
        digest: d.value(),
        failed,
        task_instances: instances,
        sim_ns,
    }
}

/// A fixed warm-up, the same on every seed.
fn warm_up() {
    let warm = build(0, 1);
    for set in &warm.pool[..WARMUP_OPS] {
        std::hint::black_box(eval(set, &warm.configs, &mut Untraced, None));
    }
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let (inputs, setup_s) = timed_setup(SETUP_REPS, SENSITIVITY, || {
        let inputs = build(args.seed, SYSTEMS_PER_CELL);
        warm_up();
        inputs
    });
    let lp = closed_loop(inputs.pool.len(), CELLS, args.seconds, SENSITIVITY, |i| {
        eval(&inputs.pool[i], &inputs.configs, &mut Untraced, None)
    });
    let mut report = Report::default();
    report.note(format!(
        "digest paper_study seed={} first_{}_systems={:016x}",
        args.seed, CELLS, lp.digest
    ));
    report_closed_loop(&mut report, &lp, TAIL, setup_s);
    report
}

/// Systems in the traced list per second of `--seconds`, rounded up to
/// whole grids: each pass over the list takes about a third of the run.
const TRACE_OPS_PER_S: f64 = 3.5;
/// Runs sampled for the cost model and the profile.
const SAMPLE_RUNS: usize = 12;

fn traced(args: &Args) -> Report {
    let mut v = Values::new(&PER_LAYER);
    let gen_start = Instant::now();
    let inputs = build(args.seed, SYSTEMS_PER_CELL);
    v.set(
        "workload.generate_ms",
        gen_start.elapsed().as_secs_f64() * 1e3,
    );
    v.set("workload.systems", inputs.pool.len() as f64);
    let grids = ((args.seconds * TRACE_OPS_PER_S / CELLS as f64).ceil() as usize)
        .clamp(1, SYSTEMS_PER_CELL);
    let list = &inputs.pool[..grids * CELLS];
    let mut report = Report::default();

    warm_up();
    let mut counters = SimCounters::default();
    let pass = traced_pass(
        "paper_study.op",
        list.len(),
        &mut report,
        |i| eval(&list[i], &inputs.configs, &mut Untraced, None),
        |i, probe| eval(&list[i], &inputs.configs, probe, Some(&mut counters)),
    );
    let spans = pass.spans;
    v.set("bench.trace_overhead", pass.overhead);
    counters.emit(&mut v);

    let totals = spans.totals();
    for name in ["analysis.sa_pm", "analysis.sa_ds"] {
        let t = totals[name];
        v.set(&format!("{name}.calls"), t.calls as f64);
        v.set(&format!("{name}.self_ms"), t.self_ns as f64 / 1e6);
        v.set(
            &format!("{name}.allocs"),
            ratio(t.allocs.count as f64, t.calls as f64),
        );
    }
    emit_engine_spans(&spans, &mut v);

    // Iterations and sweeps from the analyses' traced variants, run
    // outside the spans.
    let cfg = AnalysisConfig::default();
    let (mut iters, mut sweeps, mut failures) = (0u64, 0u64, 0u64);
    for set in list {
        if let Ok((_, rep)) = analyze_pm_traced(set, &cfg) {
            iters += rep.total_iterations();
        }
        if let Ok((_, rep)) = analyze_ds_traced(set, &cfg, SweepOrder::Jacobi) {
            sweeps += rep.sweeps;
            failures += u64::from(!rep.converged);
        }
    }
    v.set("analysis.sa_pm.fixed_point_iters", iters as f64);
    v.set("analysis.sa_ds.sweeps", sweeps as f64);
    v.set("analysis.sa_ds.failures", failures as f64);

    let sample: Vec<(&TaskSet, SimConfig)> = (0..SAMPLE_RUNS)
        .map(|i| (&list[i * 3 % CELLS], inputs.configs[i % 3].clone()))
        .collect();
    let (setup_us, ns_per_event) = cost_model(&sample, INSTANCES / 4, INSTANCES * 2, 3);
    v.set("sim.engine.setup_us", setup_us);
    v.set("sim.engine.ns_per_event", ns_per_event);
    profile_shares(&sample, &mut v);

    crate::write_spans(&spans, args);
    v.emit(&mut report);
    report
}
