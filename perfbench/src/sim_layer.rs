//! What the two simulator workloads share: the per-operation probe
//! (spans on or off), the output checks and digests, the simulator's
//! layer counters, the engine cost model and the in-program profile.

use std::time::{Duration, Instant};

use rtsync_core::task::TaskSet;
use rtsync_core::time::Dur;
use rtsync_sim::engine::{simulate, simulate_profiled, SimConfig, SimOutcome};
use rtsync_sim::{EngineProfile, PerfScope};

use crate::calib::Calibration;
use crate::metrics::{Values, END_TO_END};
use crate::report::{peak_rss_mb, ratio, tail_quantile, CpuInstant, Digest, Latency, Report};
use crate::spans::Spans;

/// Wraps each layer call of one operation: a no-op when untraced, a
/// child span when traced.
pub trait Probe {
    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T;

    /// A simulator call, timed either way: its CPU time is added to
    /// `sim_ns`.
    fn sim<T>(&mut self, sim_ns: &mut u64, f: impl FnOnce() -> T) -> T {
        let start = CpuInstant::now();
        let out = self.layer("sim.engine", f);
        *sim_ns += start.elapsed().as_nanos() as u64;
        out
    }
}

/// The timed run's probe: calls straight through.
pub struct Untraced;

impl Probe for Untraced {
    #[inline(always)]
    fn layer<T>(&mut self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// The traced run's probe: one child span per layer call under `op`.
pub struct Traced<'a> {
    pub spans: &'a mut Spans,
    pub op: usize,
}

impl Probe for Traced<'_> {
    fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.spans.layer(self.op, name, f)
    }
}

/// What one operation produced, as far as the benchmark needs it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpOut {
    /// Digest of everything the operation computed.
    pub digest: u64,
    /// A correctness check failed.
    pub failed: bool,
    /// End-to-end task instances the simulations completed.
    pub task_instances: u64,
    /// CPU time spent inside the simulator.
    pub sim_ns: u64,
}

/// End-to-end task instances a run completed.
pub fn task_instances(out: &SimOutcome) -> u64 {
    out.metrics.tasks().iter().map(|t| t.completed()).sum()
}

/// Theorem 1 as a check: tasks whose simulated maximum end-to-end
/// response exceeds the analytical bound for that task.
pub fn bound_breaches(bounds: &[Dur], out: &SimOutcome) -> u64 {
    out.metrics
        .tasks()
        .iter()
        .zip(bounds)
        .filter(|(t, b)| t.max_eer().is_some_and(|m| m > **b))
        .count() as u64
}

/// Folds a run's simulated statistics into a digest.
pub fn digest_outcome(d: &mut Digest, out: &SimOutcome) {
    d.word(out.events);
    d.int(out.end_time.ticks());
    d.word(out.violations.len() as u64);
    for t in out.metrics.tasks() {
        d.word(t.completed());
        d.word(t.lost());
        d.word(t.deadline_misses());
        d.int(t.max_eer().map_or(-1, Dur::ticks));
        d.word(t.avg_eer().map_or(0, f64::to_bits));
    }
    let ch = &out.channel_stats;
    for w in [ch.sent, ch.applied, ch.dropped] {
        d.word(w);
    }
    let tr = &out.transport_stats;
    for w in [tr.sent, tr.retransmissions, tr.acks, tr.delivered] {
        d.word(w);
    }
    let de = &out.detect_stats;
    for w in [de.heartbeats_sent, de.false_suspects, de.deads] {
        d.word(w);
    }
    let sy = &out.sync_stats;
    for w in [sy.rounds, sy.frames, sy.estimates] {
        d.word(w);
    }
    let fa = &out.fault_stats;
    for w in [fa.crashes, fa.killed_jobs, fa.severed_signals, fa.stalls] {
        d.word(w);
    }
}

/// The simulator's layer counters, summed over a traced pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimCounters {
    events: u64,
    task_instances: u64,
    channel_sent: u64,
    channel_applied: u64,
    channel_dropped: u64,
    transport_sent: u64,
    retransmissions: u64,
    acks: u64,
    transport_delivered: u64,
    heartbeats_sent: u64,
    false_suspects: u64,
    sync_rounds: u64,
    sync_frames: u64,
    sync_estimates: u64,
    crashes: u64,
    killed_jobs: u64,
    severed_signals: u64,
    violations: u64,
}

impl SimCounters {
    /// Adds one run; `violations` is what its invariant observer found.
    pub fn add(&mut self, out: &SimOutcome, violations: u64) {
        self.events += out.events;
        self.task_instances += task_instances(out);
        self.channel_sent += out.channel_stats.sent;
        self.channel_applied += out.channel_stats.applied;
        self.channel_dropped += out.channel_stats.dropped;
        self.transport_sent += out.transport_stats.sent;
        self.retransmissions += out.transport_stats.retransmissions;
        self.acks += out.transport_stats.acks;
        self.transport_delivered += out.transport_stats.delivered;
        self.heartbeats_sent += out.detect_stats.heartbeats_sent;
        self.false_suspects += out.detect_stats.false_suspects;
        self.sync_rounds += out.sync_stats.rounds;
        self.sync_frames += out.sync_stats.frames;
        self.sync_estimates += out.sync_stats.estimates;
        self.crashes += out.fault_stats.crashes;
        self.killed_jobs += out.fault_stats.killed_jobs;
        self.severed_signals += out.fault_stats.severed_signals;
        self.violations += violations;
    }

    pub fn emit(&self, v: &mut Values) {
        v.set("sim.engine.events", self.events as f64);
        v.set("sim.engine.task_instances", self.task_instances as f64);
        v.set("sim.channel.sent", self.channel_sent as f64);
        v.set("sim.channel.applied", self.channel_applied as f64);
        v.set("sim.channel.dropped", self.channel_dropped as f64);
        v.set("sim.transport.sent", self.transport_sent as f64);
        v.set("sim.transport.retransmissions", self.retransmissions as f64);
        v.set("sim.transport.acks", self.acks as f64);
        v.set(
            "sim.transport.delivery_ratio",
            ratio(self.transport_delivered as f64, self.transport_sent as f64),
        );
        v.set("sim.detect.heartbeats_sent", self.heartbeats_sent as f64);
        v.set("sim.detect.false_suspects", self.false_suspects as f64);
        v.set("sim.sync.rounds", self.sync_rounds as f64);
        v.set("sim.sync.frames", self.sync_frames as f64);
        v.set("sim.sync.estimates", self.sync_estimates as f64);
        v.set("sim.faults.crashes", self.crashes as f64);
        v.set("sim.faults.killed_jobs", self.killed_jobs as f64);
        v.set("sim.faults.severed_signals", self.severed_signals as f64);
        v.set("sim.observe.violations", self.violations as f64);
    }
}

/// The engine's cost split, measured from outside: each sampled run is
/// simulated at `lo` and at `hi` instances per task (best of `reps`
/// timings each), and a line through the summed (events, time) points
/// gives the per-event slope and the per-run intercept. Returns
/// `(setup_us, ns_per_event)`.
pub fn cost_model(sample: &[(&TaskSet, SimConfig)], lo: u64, hi: u64, reps: usize) -> (f64, f64) {
    let mut time = [0.0f64; 2];
    let mut events = [0.0f64; 2];
    for (set, cfg) in sample {
        for (k, n) in [lo, hi].into_iter().enumerate() {
            let cfg = cfg.clone().with_instances(n);
            let mut best = Duration::MAX;
            let mut ev = 0;
            for _ in 0..reps {
                let start = CpuInstant::now();
                let out = simulate(set, &cfg).expect("sampled runs simulate");
                best = best.min(start.elapsed());
                ev = out.events;
            }
            time[k] += best.as_nanos() as f64;
            events[k] += ev as f64;
        }
    }
    let slope = ratio(time[1] - time[0], events[1] - events[0]);
    let intercept_ns = (time[0] - slope * events[0]) / sample.len().max(1) as f64;
    (intercept_ns / 1e3, slope)
}

/// The engine's own profile (`simulate_profiled`) over the sample: each
/// event family's share of the accounted time. In-program numbers.
pub fn profile_shares(sample: &[(&TaskSet, SimConfig)], v: &mut Values) {
    let mut total: Option<EngineProfile> = None;
    for (set, cfg) in sample {
        let (_, p) = simulate_profiled(set, cfg).expect("sampled runs simulate");
        match total.as_mut() {
            Some(t) => t.merge(&p),
            None => total = Some(p),
        }
    }
    let Some(total) = total else { return };
    let accounted = total.accounted().as_secs_f64();
    for scope in PerfScope::ALL {
        v.set(
            &format!("sim.profile.{}_share", scope.label()),
            ratio(total.scope_time(scope).as_secs_f64(), accounted),
        );
    }
}

/// Sets the engine's span-derived metrics from a traced pass.
pub fn emit_engine_spans(spans: &Spans, v: &mut Values) {
    let totals = spans.totals();
    if let Some(t) = totals.get("sim.engine") {
        v.set("sim.engine.calls", t.calls as f64);
        v.set("sim.engine.self_ms", t.self_ns as f64 / 1e6);
        v.set(
            "sim.engine.allocs",
            ratio(t.allocs.count as f64, t.calls as f64),
        );
        v.set(
            "sim.engine.alloc_bytes",
            ratio(t.allocs.bytes as f64, t.calls as f64),
        );
    }
}

/// What a closed-loop timed phase measured. Times are CPU times at
/// reference host speed (see `calib`).
pub struct ClosedLoop {
    pub ops: u64,
    pub failed: u64,
    /// Per-operation time, in issue order.
    pub latencies_ns: Vec<u64>,
    /// The operations' time, summed.
    pub busy_ns: f64,
    pub task_instances: u64,
    /// Time inside the simulator, summed.
    pub sim_ns: f64,
    /// Digest over the outputs of the first `digest_ops` operations.
    pub digest: u64,
    /// The host note (see `Calibration::note`).
    pub host: String,
}

/// The closed loop of one client: issues pool operations in order,
/// the next as soon as the previous returns, wrapping around the pool,
/// until `seconds` of wall time have passed and at least `digest_ops`
/// operations ran. Each operation is timed on the CPU clock and scaled
/// to reference host speed for the workload's `sensitivity`.
/// An operation that returns a different output than the same pool
/// entry did earlier in the run counts as failed: the simulator and the
/// analyses are deterministic.
pub fn closed_loop(
    pool_len: usize,
    digest_ops: usize,
    seconds: f64,
    sensitivity: f64,
    mut eval: impl FnMut(usize) -> OpOut,
) -> ClosedLoop {
    let mut first = vec![None::<u64>; pool_len];
    let mut digest = Digest::default();
    let mut out = ClosedLoop {
        ops: 0,
        failed: 0,
        latencies_ns: Vec::with_capacity(4096),
        busy_ns: 0.0,
        task_instances: 0,
        sim_ns: 0.0,
        digest: 0,
        host: String::new(),
    };
    // (block, operation CPU ns, simulator CPU ns) per operation.
    let mut raw: Vec<(usize, u64, u64)> = Vec::with_capacity(4096);
    let mut cpu = Duration::ZERO;
    let budget = Duration::from_secs_f64(seconds);
    let mut cal = Calibration::start(sensitivity);
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let entry = i % pool_len;
        let t = CpuInstant::now();
        let r = eval(entry);
        let op = t.elapsed();
        cpu += op;
        raw.push((cal.charge(op), op.as_nanos() as u64, r.sim_ns));
        out.ops += 1;
        out.task_instances += r.task_instances;
        let repeat_differs = *first[entry].get_or_insert(r.digest) != r.digest;
        out.failed += u64::from(r.failed || repeat_differs);
        if i < digest_ops {
            digest.word(r.digest);
        }
        i += 1;
        if i >= digest_ops && start.elapsed() >= budget {
            break;
        }
    }
    let wall = start.elapsed();
    cal.finish();
    for (block, op_ns, sim_ns) in raw {
        let op = cal.scale(block, op_ns);
        out.latencies_ns.push(op as u64);
        out.busy_ns += op;
        out.sim_ns += cal.scale(block, sim_ns);
    }
    out.host = cal.note(cpu, wall);
    out.digest = digest.value();
    out
}

/// Fills the report from a closed-loop timed phase. Throughput is
/// operations per second of the operations' time. A single client
/// that waits for each reply sustains exactly its completion rate, so
/// `sustained_rate_per_s` equals `throughput_per_s` here.
/// `ns_per_task_instance` is simulator time per end-to-end task
/// instance the simulations completed.
pub fn report_closed_loop(report: &mut Report, lp: &ClosedLoop, tail: f64, setup_s: f64) {
    let secs = lp.busy_ns / 1e9;
    let lat = Latency::of(
        lp.latencies_ns.clone(),
        tail_quantile(tail, lp.latencies_ns.len()),
    );
    report.attempted = lp.ops;
    report.failed = lp.failed;
    report.note(format!(
        "latency_tail_ms is {} over {} operations",
        lat.tail_label(),
        lat.samples
    ));
    report.note(lp.host.clone());
    let throughput = lp.ops as f64 / secs;
    let mut v = Values::new(&END_TO_END);
    v.set("throughput_per_s", throughput);
    v.set("latency_p50_ms", lat.p50_ms);
    v.set("latency_tail_ms", lat.tail_ms);
    v.set(
        "ns_per_task_instance",
        lp.sim_ns / lp.task_instances.max(1) as f64,
    );
    v.set("sustained_rate_per_s", throughput);
    v.set("setup_s", setup_s);
    v.set("peak_rss_mb", peak_rss_mb());
    v.emit(report);
}

/// Spans of a traced pass, with its overhead against untraced passes.
pub struct TracedPass {
    pub spans: Spans,
    /// `bench.trace_overhead`: the traced pass's time over the mean of
    /// the untraced passes just before and just after it, which cancels
    /// a host that speeds up or slows down steadily.
    pub overhead: f64,
}

/// Runs operations `0..n` untraced, traced (one `op` span each, with
/// the layer spans `traced` opens under it), and untraced again,
/// counting every operation into `report`.
pub fn traced_pass(
    op: &'static str,
    n: usize,
    report: &mut Report,
    mut plain: impl FnMut(usize) -> OpOut,
    mut traced: impl FnMut(usize, &mut Traced) -> OpOut,
) -> TracedPass {
    let mut count = |r: OpOut| {
        report.attempted += 1;
        report.failed += u64::from(r.failed);
    };
    let start = CpuInstant::now();
    (0..n).for_each(|i| count(plain(i)));
    let before = start.elapsed();
    let mut spans = Spans::with_capacity(n * 8);
    let start = CpuInstant::now();
    for i in 0..n {
        let id = spans.op(op);
        let r = traced(
            i,
            &mut Traced {
                spans: &mut spans,
                op: id,
            },
        );
        spans.close(id);
        count(r);
    }
    let during = start.elapsed();
    let start = CpuInstant::now();
    (0..n).for_each(|i| count(plain(i)));
    let after = start.elapsed();
    TracedPass {
        spans,
        overhead: ratio(2.0 * during.as_secs_f64(), (before + after).as_secs_f64()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsync_core::protocol::Protocol;

    #[test]
    fn a_bound_below_the_simulated_max_is_a_breach() {
        let set = rtsync_core::examples::example1();
        let out = simulate(
            &set,
            &SimConfig::new(Protocol::ReleaseGuard).with_instances(10),
        )
        .expect("example simulates");
        let maxes: Vec<Dur> = out
            .metrics
            .tasks()
            .iter()
            .map(|t| t.max_eer().expect("every task completed"))
            .collect();
        assert_eq!(bound_breaches(&maxes, &out), 0);
        let mut shrunk = maxes.clone();
        shrunk[0] = Dur::from_ticks(maxes[0].ticks() - 1);
        assert_eq!(bound_breaches(&shrunk, &out), 1);
    }
}
