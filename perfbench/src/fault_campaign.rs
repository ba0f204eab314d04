//! `fault_campaign`: dense condition tiers, closed loop.
//!
//! Seeded §5.1 systems run under four condition tiers — `sync`,
//! `partition`, `faults_transport` and `gray`, with the settings of the
//! `rtsync bench` suite's tiers — each under all four protocols. One
//! operation is one simulated run with an `InvariantObserver` attached
//! and its end-of-run `check_outcome`; any violation fails the
//! operation. Heartbeats, sync frames and retransmissions dominate the
//! event mix, and analysis does almost no work.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::protocol::Protocol;
use rtsync_core::task::TaskSet;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate_observed, SimConfig};
use rtsync_sim::nonideal::{ChannelModel, ClockModel};
use rtsync_sim::{
    DetectorConfig, FaultConfig, GrayConfig, InvariantObserver, LinkSchedule, PartitionSchedule,
    PhiConfig, SlowSchedule, StallSchedule, SyncConfig, TransportConfig,
};
use rtsync_workload::{generate, WorkloadSpec};

use crate::metrics::{Values, PER_LAYER};
use crate::report::{mix, timed_setup, Digest, Report};
use crate::sim_layer::{
    closed_loop, cost_model, digest_outcome, emit_engine_spans, profile_shares, report_closed_loop,
    task_instances, traced_pass, OpOut, Probe, SimCounters, Untraced,
};
use crate::Args;

/// §5.1 shapes the systems rotate through: (subtasks per task, U).
const SHAPES: [(usize, f64); 3] = [(3, 0.6), (4, 0.7), (5, 0.8)];
const TIERS: [Tier; 4] = [
    Tier::Sync,
    Tier::Partition,
    Tier::FaultsTransport,
    Tier::Gray,
];
const INSTANCES: u64 = 20;
/// RG guard spacing is measured in true time while guards tick on
/// drifting local clocks: allow twice the tiers' 200 ppm drift bound.
const SPACING_SLACK_PPM: i64 = 400;
const TAIL: f64 = 0.95;
const SETUP_REPS: usize = 3;
/// This workload's sensitivity to a slow stretch of the host (see
/// `calib`): fitted 1.77 and 1.78 within a minute, 1.5 to 2.1 across
/// runs.
const SENSITIVITY: f64 = 1.55;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    Sync,
    Partition,
    FaultsTransport,
    Gray,
}

/// Drifting clocks and a latency channel, as in the `sync` bench tier.
fn drifting(base: SimConfig, seed: u64) -> SimConfig {
    base.with_clocks(ClockModel::Random {
        max_offset: Dur::from_ticks(500),
        max_drift_ppm: 200,
        seed: mix(seed, 1),
    })
    .with_channel(
        ChannelModel::uniform(Dur::from_ticks(50), Dur::from_ticks(400)).with_seed(mix(seed, 2)),
    )
    .with_sync(SyncConfig::new(Dur::from_ticks(20_000)))
}

/// The tier's configuration, with every model seed drawn from `seed`.
fn tier_config(tier: Tier, protocol: Protocol, seed: u64) -> SimConfig {
    let base = SimConfig::new(protocol).with_instances(INSTANCES);
    let latency = 1_000;
    match tier {
        Tier::Sync => drifting(base, seed),
        Tier::Partition => drifting(base, seed).with_faults(
            FaultConfig::explicit(Vec::new()).with_partitions(PartitionSchedule::Random {
                mean_connected: Dur::from_ticks(2_000_000),
                heal_delay: Dur::from_ticks(500_000),
                seed: mix(seed, 3),
            }),
        ),
        Tier::FaultsTransport => {
            let restart_delay = 200_000;
            base.with_channel(
                ChannelModel::constant(Dur::from_ticks(latency))
                    .with_endpoint_drops(0.05)
                    .with_seed(mix(seed, 4)),
            )
            .with_transport(
                TransportConfig::new(Dur::from_ticks(4 * latency))
                    .with_seed(mix(seed, 5))
                    .with_detector(DetectorConfig::new(Dur::from_ticks(restart_delay / 20))),
            )
            .with_faults(FaultConfig::random(
                Dur::from_ticks(5_000_000),
                Dur::from_ticks(restart_delay),
                mix(seed, 6),
            ))
        }
        Tier::Gray => base
            .with_channel(ChannelModel::constant(Dur::from_ticks(latency)).with_seed(mix(seed, 4)))
            .with_transport(
                TransportConfig::new(Dur::from_ticks(4 * latency))
                    .with_seed(mix(seed, 5))
                    .with_detector(
                        DetectorConfig::new(Dur::from_ticks(10_000)).with_phi(PhiConfig::new()),
                    ),
            )
            .with_faults(FaultConfig::gray_only(
                GrayConfig::new()
                    .with_slow(SlowSchedule::Random {
                        mean_healthy: Dur::from_ticks(4_000_000),
                        span: Dur::from_ticks(200_000),
                        factor: 8,
                        seed: mix(seed, 7),
                    })
                    .with_stalls(StallSchedule::Random {
                        mean_healthy: Dur::from_ticks(6_000_000),
                        span: Dur::from_ticks(40_000),
                        seed: mix(seed, 8),
                    })
                    .with_links(LinkSchedule::Random {
                        mean_healthy: Dur::from_ticks(3_000_000),
                        span: Dur::from_ticks(400_000),
                        extra_latency: Dur::from_ticks(2_000),
                        jitter: Dur::from_ticks(1_000),
                        drop_permille: 300,
                        seed: mix(seed, 9),
                    })
                    .with_frame_seed(mix(seed, 10)),
            )),
    }
}

/// The observer armed on every run of `tier`.
fn observer(tier: Tier) -> InvariantObserver {
    match tier {
        Tier::Sync | Tier::Partition => {
            InvariantObserver::default().with_spacing_slack_ppm(SPACING_SLACK_PPM)
        }
        Tier::FaultsTransport | Tier::Gray => InvariantObserver::default(),
    }
}

/// One simulated run of the pool.
struct Run {
    set: TaskSet,
    tier: Tier,
    cfg: SimConfig,
}

/// Runs in the pool; more than a run of the benchmark gets through.
const POOL: usize = 1024;

/// Every run simulates a system of its own. Run `k` takes tier
/// `k % 4` and protocol `k / 4 % 4`, so any 16 consecutive runs cover
/// every tier under every protocol, and the shapes rotate with `k`.
fn build(seed: u64, runs: usize) -> Vec<Run> {
    (0..runs)
        .map(|k| {
            let (n, u) = SHAPES[k % SHAPES.len()];
            let tier = TIERS[k % TIERS.len()];
            let protocol = Protocol::ALL[k / TIERS.len() % Protocol::ALL.len()];
            let mut rng = StdRng::seed_from_u64(mix(seed, k as u64));
            let set = generate(&WorkloadSpec::paper(n, u).with_random_phases(), &mut rng)
                .expect("the paper's spec generates");
            let cfg = tier_config(tier, protocol, mix(seed, k as u64 + (1 << 32)));
            Run { set, tier, cfg }
        })
        .collect()
}

/// Simulates one run under its tier's observer. Any invariant
/// violation, or a simulation error, fails the operation.
fn eval(run: &Run, probe: &mut impl Probe, counters: Option<&mut SimCounters>) -> OpOut {
    eval_observed(run, observer(run.tier), probe, counters)
}

fn eval_observed(
    run: &Run,
    mut obs: InvariantObserver,
    probe: &mut impl Probe,
    counters: Option<&mut SimCounters>,
) -> OpOut {
    let mut sim_ns = 0;
    let Ok(out) = probe.sim(&mut sim_ns, || {
        simulate_observed(&run.set, &run.cfg, &mut obs)
    }) else {
        return OpOut {
            digest: 0,
            failed: true,
            task_instances: 0,
            sim_ns,
        };
    };
    obs.check_outcome(&out);
    let violations = obs.violations().len() as u64;
    if let Some(c) = counters {
        c.add(&out, violations);
    }
    let mut d = Digest::default();
    digest_outcome(&mut d, &out);
    d.word(violations);
    OpOut {
        digest: d.value(),
        failed: violations > 0,
        task_instances: task_instances(&out),
        sim_ns,
    }
}

/// Runs of the fixed warm-up: one per tier, the same on every seed.
const WARMUP_RUNS: usize = TIERS.len();

fn warm_up() {
    for run in build(0, WARMUP_RUNS) {
        std::hint::black_box(eval(&run, &mut Untraced, None));
    }
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let (pool, setup_s) = timed_setup(SETUP_REPS, SENSITIVITY, || {
        let pool = build(args.seed, POOL);
        warm_up();
        pool
    });
    let lp = closed_loop(pool.len(), DIGEST_RUNS, args.seconds, SENSITIVITY, |i| {
        eval(&pool[i], &mut Untraced, None)
    });
    let mut report = Report::default();
    report.note(format!(
        "digest fault_campaign seed={} first_{DIGEST_RUNS}_runs={:016x}",
        args.seed, lp.digest
    ));
    report_closed_loop(&mut report, &lp, TAIL, setup_s);
    report
}

/// Runs every timed run makes and the digest covers: every tier under
/// every protocol, twice.
const DIGEST_RUNS: usize = 2 * TIERS.len() * Protocol::ALL.len();
/// Runs in the traced list per second of `--seconds`, rounded up to
/// whole cycles of tiers and protocols: each pass over the list takes
/// about a third of the run.
const TRACE_RUNS_PER_S: f64 = 3.2;

fn traced(args: &Args) -> Report {
    let mut v = Values::new(&PER_LAYER);
    let gen_start = Instant::now();
    let pool = build(args.seed, POOL);
    v.set(
        "workload.generate_ms",
        gen_start.elapsed().as_secs_f64() * 1e3,
    );
    v.set("workload.systems", pool.len() as f64);
    let cycle = TIERS.len() * Protocol::ALL.len();
    let cycles =
        ((args.seconds * TRACE_RUNS_PER_S / cycle as f64).ceil() as usize).clamp(1, POOL / cycle);
    let list = &pool[..cycles * cycle];
    let mut report = Report::default();
    warm_up();

    let mut counters = SimCounters::default();
    let pass = traced_pass(
        "fault_campaign.op",
        list.len(),
        &mut report,
        |i| eval(&list[i], &mut Untraced, None),
        |i, probe| eval(&list[i], probe, Some(&mut counters)),
    );
    let spans = pass.spans;
    v.set("bench.trace_overhead", pass.overhead);
    emit_engine_spans(&spans, &mut v);
    counters.emit(&mut v);

    // Every tier under every protocol, once.
    let sample: Vec<(&TaskSet, SimConfig)> = list[..cycle]
        .iter()
        .map(|run| (&run.set, run.cfg.clone()))
        .collect();
    let (setup_us, ns_per_event) = cost_model(&sample, INSTANCES / 4, INSTANCES, 3);
    v.set("sim.engine.setup_us", setup_us);
    v.set("sim.engine.ns_per_event", ns_per_event);
    profile_shares(&sample, &mut v);

    crate::write_spans(&spans, args);
    v.emit(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_invariant_violation_fails_the_run() {
        // RG on the sync tier: its guards tick on drifting local clocks,
        // so an observer measuring spacing in true time without the
        // drift slack sees guard-spacing breaks.
        let pool = build(1, 64);
        let rg_sync: Vec<&Run> = pool
            .iter()
            .filter(|r| r.tier == Tier::Sync && r.cfg.protocol == Protocol::ReleaseGuard)
            .collect();
        assert!(!rg_sync.is_empty());
        let strict = rg_sync
            .iter()
            .filter(|r| eval_observed(r, InvariantObserver::default(), &mut Untraced, None).failed)
            .count();
        assert!(strict > 0, "no guard-spacing break without the slack");
        assert!(rg_sync.iter().all(|r| !eval(r, &mut Untraced, None).failed));
    }
}
