//! `admit_stream`: the incremental admission engine, open loop.
//!
//! A cluster holds eight §5.1 systems, two of each admit-study shape —
//! (N, U) = (2, 0.25), (4, 0.25), (4, 0.5) and (8, 0.5) — on 32
//! processors, each system on four processors of its own. One resident
//! PM-family `AdmissionState` serves a seeded stream of requests made of
//!
//! * a fill: every chain of the eight systems asks to join;
//! * churn: cycling over the chains, each is retired and re-admitted;
//! * over-budget admits, one after each churn pair, alternating a chain
//!   whose first subtask alone needs 90% of its processor (the
//!   utilization gate must reject it) and a chain whose deadline is
//!   shorter than its total execution (the analysis must reject it).
//!
//! There are three clusters, each drawn from the seed. The timed phase
//! serves the same stretch of each cluster's stream in rounds, each on a
//! fresh engine, and times every request on the CPU clock at reference
//! host speed (see `calib`); a request's service time is its median over
//! its cluster's rounds. The open loop is then played in virtual time
//! over those service times, the clusters' streams interleaved a request
//! at a time: request `i` is due at `i / rate`, starts when it is due or
//! when the one before it finishes, whichever is later, and its latency
//! runs from its due instant, so a slow request charges every request queued
//! behind it. That gives the latency at the reference rate and at each
//! rung of a fixed ladder, and the highest rate whose p99 latency meets
//! the limit with no growing backlog. A host that stalls or slows the
//! process moves none of these numbers; the program's own slow requests
//! move all of them.
//!
//! Afterwards each cluster's served sequence is replayed through a
//! memo-off engine (`with_memoization(false)`), the batch oracle: every
//! verdict, bound and resident count must agree. Every later round must
//! repeat its cluster's first round's verdicts exactly.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::admission::{
    AdmissionConfig, AdmissionMode, AdmissionState, ChainRequest, Decision, RetireError,
    RetireOutcome,
};
use rtsync_core::task::TaskSet;
use rtsync_core::time::Dur;
use rtsync_workload::{generate, WorkloadSpec};

use crate::calib::Calibration;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::report::{
    mix, peak_rss_mb, quantile, ratio, tail_quantile, timed_setup, CpuInstant, Digest, Latency,
    Report,
};
use crate::Args;

/// The admit-study shapes: (subtasks per task, per-processor U).
const SHAPES: [(usize, f64); 4] = [(2, 0.25), (4, 0.25), (4, 0.5), (8, 0.5)];
/// Systems of each shape in the cluster: more systems average out how
/// much one seed's systems cost to admit.
const SYSTEMS_PER_SHAPE: usize = 2;
const SYSTEMS: usize = SHAPES.len() * SYSTEMS_PER_SHAPE;
/// Processors per system; system `g` runs on `4g..4g + 4`.
const GROUP: usize = 4;
const PROCESSORS: usize = GROUP * SYSTEMS;
/// The rate ladder the notes report: from 2000 requests/s up by
/// 2^(1/2) per rung.
const LADDER: [f64; 7] = [
    2_000.0, 2_828.4, 4_000.0, 5_656.9, 8_000.0, 11_313.7, 16_000.0,
];
/// The rate whose latencies are the end-to-end latency metrics.
const REFERENCE_RATE: f64 = 2_000.0;
/// A rate is sustained when its p99 latency stays within this limit
/// and no backlog grows: the median request of its last tenth also
/// finishes within it.
const LATENCY_LIMIT_NS: u64 = 1_000_000;
/// Preferred tail percentile of the latency at the reference rate.
/// p99 would leave ten distinct requests beyond it, but they are a
/// handful of cold retires per cycle, and which chains they retire,
/// so how slow they are, is down to the seed.
const TAIL: f64 = 0.95;
/// Requests per round, per second of `--seconds`, rounded up to whole
/// churn cycles: on a 2-vCPU x86-64 virtual machine the rounds together
/// take about `--seconds`.
const ROUND_REQUESTS_PER_S: f64 = 800.0;
/// Rounds the timed phase serves each cluster: a service time is the
/// median over its cluster's rounds. The number is fixed, so every run
/// does the same work and holds the same memory.
const ROUNDS: usize = 3;
/// Independent clusters, each with a stream of its own, served by a
/// fresh engine per round: three draws of eight systems average out how
/// much one draw costs, where a cluster three times the size would cost
/// more per request.
const CLUSTERS: usize = 3;
const SETUP_REPS: usize = 5;
/// This workload's sensitivity to a slow stretch of the host (see
/// `calib`): fitted 1.28 within a minute, 1.3 to 1.45 across runs.
const SENSITIVITY: f64 = 1.3;
/// Churn cycles served untimed to warm up.
const WARMUP_CYCLES: usize = 4;

/// One request of the stream.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Admit template `i`.
    Admit(usize),
    /// Retire the chain with this id.
    Retire(u64),
}

/// The stream: a fill, then a churn cycle repeated forever.
struct Stream {
    templates: Vec<ChainRequest>,
    fill: Vec<Op>,
    cycle: Vec<Op>,
}

impl Stream {
    fn op(&self, pos: usize) -> Op {
        match self.fill.get(pos) {
            Some(op) => *op,
            None => self.cycle[(pos - self.fill.len()) % self.cycle.len()],
        }
    }
}

fn chains(set: &TaskSet, group: usize) -> Vec<ChainRequest> {
    set.tasks()
        .iter()
        .enumerate()
        .map(|(i, task)| {
            let subtasks = task
                .subtasks()
                .iter()
                .map(|sub| (group * GROUP + sub.processor().index(), sub.execution()))
                .collect();
            ChainRequest::new((group * 1_000 + i) as u64, task.period(), subtasks)
                .with_deadline(task.deadline())
                .with_rank(task.period().ticks().min(i64::from(u32::MAX)) as u32)
        })
        .collect()
}

/// The stream of cluster `cluster`, whose systems are drawn from
/// `seed`.
fn build(seed: u64, cluster: usize) -> Stream {
    let groups: Vec<Vec<ChainRequest>> = (0..SYSTEMS)
        .map(|g| {
            let (n, u) = SHAPES[g % SHAPES.len()];
            let salt = (cluster * SYSTEMS + g) as u64;
            let mut rng = StdRng::seed_from_u64(mix(seed, salt));
            let set =
                generate(&WorkloadSpec::paper(n, u), &mut rng).expect("the paper's spec generates");
            chains(&set, g)
        })
        .collect();
    // Fill order: round robin over the systems.
    let longest = groups.iter().map(Vec::len).max().unwrap_or(0);
    let members: Vec<ChainRequest> = (0..longest)
        .flat_map(|i| groups.iter().filter_map(move |g| g.get(i).cloned()))
        .collect();
    let mut templates = members.clone();
    let mut cycle = Vec::with_capacity(members.len() * 3);
    for (j, m) in members.iter().enumerate() {
        let over = if j % 2 == 0 {
            let mut c = m.clone();
            c.subtasks[0].1 = Dur::from_ticks(m.period.ticks() * 9 / 10);
            c
        } else {
            let total: i64 = m.subtasks.iter().map(|s| s.1.ticks()).sum();
            m.clone().with_deadline(Dur::from_ticks((total - 1).max(1)))
        };
        templates.push(ChainRequest {
            id: 1_000_000 + j as u64,
            ..over
        });
        cycle.extend([Op::Retire(m.id), Op::Admit(j), Op::Admit(members.len() + j)]);
    }
    let fill = (0..members.len()).map(Op::Admit).collect();
    Stream {
        templates,
        fill,
        cycle,
    }
}

/// What the engine answered, minus its work counters (which differ
/// between the memoized engine and the oracle by design).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Verdict {
    Admit {
        admitted: bool,
        bound: Option<Dur>,
        reject: Option<String>,
        residents: usize,
    },
    Retire(Result<usize, RetireError>),
}

impl Verdict {
    fn of_decision(d: &Decision) -> Verdict {
        Verdict::Admit {
            admitted: d.admitted,
            bound: d.bound,
            reject: d.reject.as_ref().map(|r| format!("{r:?}")),
            residents: d.residents,
        }
    }

    fn of_retire(r: &Result<RetireOutcome, RetireError>) -> Verdict {
        Verdict::Retire(r.as_ref().map(|o| o.residents).map_err(Clone::clone))
    }

    /// The verdict's digest: what the log keeps and the oracle compares.
    fn hash(&self) -> u64 {
        let mut d = Digest::default();
        match self {
            Verdict::Admit {
                admitted,
                bound,
                reject,
                residents,
            } => {
                d.word(u64::from(*admitted));
                d.int(bound.map_or(-1, Dur::ticks));
                d.bytes(reject.as_deref().unwrap_or("").as_bytes());
                d.word(*residents as u64);
            }
            Verdict::Retire(r) => {
                d.word(2);
                match r {
                    Ok(n) => d.word(*n as u64),
                    Err(e) => d.bytes(format!("{e:?}").as_bytes()),
                }
            }
        }
        d.value()
    }
}

/// The raw answer of one request, kept as returned so the timed path
/// does no formatting.
enum Answer {
    Admit(Decision),
    Retire(Result<RetireOutcome, RetireError>),
}

impl Answer {
    fn verdict(&self) -> Verdict {
        match self {
            Answer::Admit(d) => Verdict::of_decision(d),
            Answer::Retire(r) => Verdict::of_retire(r),
        }
    }
}

fn engine(memo: bool) -> AdmissionState {
    AdmissionState::new(
        PROCESSORS,
        AdmissionConfig::new(AdmissionMode::PmFamily).with_memoization(memo),
    )
}

/// A request as handed to the engine.
enum Request {
    Admit(ChainRequest),
    Retire(u64),
}

/// The request at stream position `pos`, copied out of the stream as a
/// client would hand it over.
fn request(stream: &Stream, pos: usize) -> Request {
    match stream.op(pos) {
        Op::Admit(i) => Request::Admit(stream.templates[i].clone()),
        Op::Retire(id) => Request::Retire(id),
    }
}

fn answer(state: &mut AdmissionState, req: Request) -> Answer {
    match req {
        Request::Admit(r) => Answer::Admit(state.admit(r)),
        Request::Retire(id) => Answer::Retire(state.retire(id)),
    }
}

fn serve(state: &mut AdmissionState, stream: &Stream, pos: usize) -> Answer {
    answer(state, request(stream, pos))
}

/// Replays the served requests through the memo-off oracle and counts
/// those whose verdict differs.
///
/// The oracle's answer is a function of its ordered resident list and
/// the request, and after the fill the stream repeats one churn cycle.
/// So once the oracle starts a cycle with exactly the residents (ids in
/// priority order, and their bounds) it started an earlier cycle with,
/// every later verdict is the one at the same place in that earlier
/// stretch: the replay stops there and reads the rest from it. If the
/// residents never repeat, every request is replayed.
fn oracle_disagreements(stream: &Stream, verdicts: &[u64]) -> u64 {
    let mut oracle = engine(false);
    let mut expected: Vec<u64> = Vec::with_capacity(verdicts.len());
    let mut starts: Vec<(usize, Vec<(u64, Dur)>)> = Vec::new();
    let mut repeat: Option<(usize, usize)> = None;
    for pos in 0..verdicts.len() {
        let v = match repeat {
            Some((from, period)) => expected[from + (pos - from) % period],
            None => {
                let cycle_start = pos >= stream.fill.len()
                    && (pos - stream.fill.len()).is_multiple_of(stream.cycle.len());
                if cycle_start {
                    let residents = oracle.resident_bounds();
                    if let Some((from, _)) = starts.iter().find(|(_, r)| *r == residents) {
                        repeat = Some((*from, pos - from));
                    } else {
                        starts.push((pos, residents));
                    }
                }
                match repeat {
                    Some((from, _)) => expected[from],
                    None => serve(&mut oracle, stream, pos).verdict().hash(),
                }
            }
        };
        expected.push(v);
    }
    verdicts
        .iter()
        .zip(&expected)
        .filter(|(v, e)| v != e)
        .count() as u64
}

/// What one round measured, in stream order.
struct Round {
    /// (calibration block, CPU ns) of each request.
    service: Vec<(usize, u64)>,
    /// Each verdict's digest.
    verdicts: Vec<u64>,
}

/// One round: a fresh engine serves stream positions `0..len`, each
/// request timed on the CPU clock and charged to `cal`.
fn serve_round(stream: &Stream, len: usize, cal: &mut Calibration) -> Round {
    let mut state = engine(true);
    let mut service = Vec::with_capacity(len);
    let mut answers = Vec::with_capacity(len);
    for pos in 0..len {
        let req = request(stream, pos);
        let start = CpuInstant::now();
        let a = answer(&mut state, req);
        let cpu = start.elapsed();
        service.push((cal.charge(cpu), cpu.as_nanos() as u64));
        answers.push(a);
    }
    let verdicts = answers.iter().map(|a| a.verdict().hash()).collect();
    Round { service, verdicts }
}

/// The open loop in virtual time: request `i` is due at `i / rate`
/// seconds and a single server takes `service_ns[i]`, first come first
/// served. Returns each request's latency from its due instant.
fn open_loop(service_ns: &[u64], rate: f64) -> Vec<u64> {
    let gap = 1e9 / rate;
    let mut free = 0.0f64;
    service_ns
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let due = i as f64 * gap;
            free = free.max(due) + s as f64;
            (free - due) as u64
        })
        .collect()
}

/// The p99 latency at `rate`, and whether the rate is sustained: p99
/// within the limit and the median request of the last tenth too, so no
/// backlog is growing.
fn probe(service_ns: &[u64], rate: f64) -> (u64, bool) {
    let lat = open_loop(service_ns, rate);
    let mut last: Vec<u64> = lat[lat.len() - lat.len() / 10..].to_vec();
    last.sort_unstable();
    let mut sorted = lat;
    sorted.sort_unstable();
    let p99 = quantile(&sorted, 0.99);
    let sustained = p99 <= LATENCY_LIMIT_NS && quantile(&last, 0.5) <= LATENCY_LIMIT_NS;
    (p99, sustained)
}

/// The highest sustained rate. Every latency of the virtual open loop
/// grows with the rate, so the rates that are sustained form an
/// interval from 0, and bisection on a log scale finds its end to a
/// part in a million. If even a nearly idle server misses the limit,
/// the rate is scaled down by how far p99 overshoots it.
fn sustained_rate(service_ns: &[u64]) -> f64 {
    let capacity = 1e9 * service_ns.len() as f64 / service_ns.iter().sum::<u64>().max(1) as f64;
    let mut lo = capacity / 100.0;
    let (p99, ok) = probe(service_ns, lo);
    if !ok {
        return lo * LATENCY_LIMIT_NS as f64 / p99.max(1) as f64;
    }
    let mut hi = 2.0 * capacity;
    if probe(service_ns, hi).1 {
        return hi;
    }
    while hi / lo > 1.000_001 {
        let mid = (lo * hi).sqrt();
        if probe(service_ns, mid).1 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The median over the rounds of each position's service time, at
/// reference host speed.
fn median_service(rounds: &[&Round], cal: &Calibration) -> Vec<u64> {
    let mut column = Vec::with_capacity(rounds.len());
    (0..rounds[0].service.len())
        .map(|pos| {
            column.clear();
            column.extend(rounds.iter().map(|r| {
                let (block, ns) = r.service[pos];
                cal.scale(block, ns) as u64
            }));
            column.sort_unstable();
            column[column.len() / 2]
        })
        .collect()
}

/// Warms the engine code and the allocator on a throw-away engine.
fn warm_up(stream: &Stream) {
    let mut state = engine(true);
    for pos in 0..stream.fill.len() + WARMUP_CYCLES * stream.cycle.len() {
        std::hint::black_box(serve(&mut state, stream, pos));
    }
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let (streams, setup_s) = timed_setup(SETUP_REPS, SENSITIVITY, || {
        let streams: Vec<Stream> = (0..CLUSTERS).map(|c| build(args.seed, c)).collect();
        streams.iter().for_each(warm_up);
        streams
    });
    let cycle_len = streams[0].cycle.len();
    let cycles = (args.seconds * ROUND_REQUESTS_PER_S / cycle_len as f64).ceil() as usize;
    let len = streams[0].fill.len() + cycles * cycle_len;

    // The timed phase: round `r` serves cluster `r % CLUSTERS`.
    let mut cal = Calibration::start(SENSITIVITY);
    let start = Instant::now();
    let rounds: Vec<Round> = (0..ROUNDS * CLUSTERS)
        .map(|r| serve_round(&streams[r % CLUSTERS], len, &mut cal))
        .collect();
    let wall = start.elapsed();
    cal.finish();
    let cpu_ns: u64 = rounds.iter().flat_map(|r| &r.service).map(|s| s.1).sum();

    // One server takes the clusters' streams interleaved, a request of
    // each in turn.
    let per_cluster: Vec<Vec<u64>> = (0..CLUSTERS)
        .map(|c| {
            let own: Vec<&Round> = rounds.iter().skip(c).step_by(CLUSTERS).collect();
            median_service(&own, &cal)
        })
        .collect();
    let service: Vec<u64> = (0..len)
        .flat_map(|i| per_cluster.iter().map(move |s| s[i]))
        .collect();
    let mean_ns = service.iter().sum::<u64>() as f64 / service.len() as f64;
    // Each stream repeats one churn cycle, so the fills and one cycle of
    // each are the distinct requests the tail must leave ten of.
    let distinct = CLUSTERS * (streams[0].fill.len() + cycle_len);
    let reference = Latency::of(
        open_loop(&service, REFERENCE_RATE),
        tail_quantile(TAIL, distinct),
    );
    let sustained = sustained_rate(&service);

    let mut report = Report::default();
    for rate in LADDER {
        let mut lat = open_loop(&service, rate);
        lat.sort_unstable();
        report.note(format!(
            "rung {rate:>8.1}/s p50 {:>9.3} ms p99 {:>9.3} ms {}",
            quantile(&lat, 0.5) as f64 / 1e6,
            quantile(&lat, 0.99) as f64 / 1e6,
            if probe(&service, rate).1 {
                "sustained"
            } else {
                "not sustained"
            }
        ));
    }
    report.note(format!(
        "latency at {REFERENCE_RATE}/s in virtual time over the median service of {} rounds of {len} requests; latency_tail_ms is {} over {} requests, {distinct} of them distinct",
        rounds.len(),
        reference.tail_label(),
        reference.samples
    ));
    report.note(cal.note(Duration::from_nanos(cpu_ns), wall));

    // Correctness, outside the timed phase: each cluster's first round
    // against the oracle, every later round against its first.
    let mut digest = Digest::default();
    let digest_ops = streams[0].fill.len() + cycle_len;
    report.attempted = (len * rounds.len()) as u64;
    for (c, stream) in streams.iter().enumerate() {
        let first = &rounds[c].verdicts;
        for v in &first[..digest_ops.min(len)] {
            digest.word(*v);
        }
        report.failed += oracle_disagreements(stream, first);
        report.failed += rounds[c + CLUSTERS..]
            .iter()
            .step_by(CLUSTERS)
            .flat_map(|r| r.verdicts.iter().zip(first).filter(|(v, f)| v != f))
            .count() as u64;
    }
    report.note(format!(
        "digest admit_stream seed={} first_{digest_ops}_verdicts_of_{CLUSTERS}_clusters={:016x}",
        args.seed,
        digest.value()
    ));

    let mut v = Values::new(&END_TO_END);
    v.set("throughput_per_s", 1e9 / mean_ns);
    v.set("latency_p50_ms", reference.p50_ms);
    v.set("latency_tail_ms", reference.tail_ms);
    v.set("ns_per_task_instance", mean_ns);
    v.set("sustained_rate_per_s", sustained);
    v.set("setup_s", setup_s);
    v.set("peak_rss_mb", peak_rss_mb());
    v.emit(&mut report);
    report
}

/// Churn cycles in the traced list (after the fill) per second of
/// `--seconds`: each pass over the list takes about a third of the run.
const TRACE_CYCLES_PER_S: f64 = 6.0;

fn traced(args: &Args) -> Report {
    let mut v = Values::new(&PER_LAYER);
    let start = Instant::now();
    let stream = build(args.seed, 0);
    v.set("workload.generate_ms", start.elapsed().as_secs_f64() * 1e3);
    v.set("workload.systems", SYSTEMS as f64);
    warm_up(&stream);
    let cycles = (args.seconds * TRACE_CYCLES_PER_S).ceil() as usize;
    let n = stream.fill.len() + cycles * stream.cycle.len();
    let mut report = Report::default();

    // Untraced, traced and untraced again over the same requests, each
    // pass closed loop on a fresh engine.
    let untraced_pass = || {
        let mut state = engine(true);
        let start = Instant::now();
        let answers: Vec<Answer> = (0..n).map(|pos| serve(&mut state, &stream, pos)).collect();
        (start.elapsed(), answers)
    };
    let (before, first) = untraced_pass();

    let mut spans = crate::spans::Spans::with_capacity(2 * n);
    let mut state = engine(true);
    let mut traced_answers = Vec::with_capacity(n);
    let start = Instant::now();
    for pos in 0..n {
        let op = spans.op("admit_stream.op");
        let req = request(&stream, pos);
        let name = match req {
            Request::Admit(_) => "analysis.admission.admit",
            Request::Retire(_) => "analysis.admission.retire",
        };
        traced_answers.push(spans.layer(op, name, || answer(&mut state, req)));
        spans.close(op);
    }
    let traced = start.elapsed();
    let (after, last) = untraced_pass();
    let mut admit_ns = spans.durations("analysis.admission.admit");
    let mut retire_ns = spans.durations("analysis.admission.retire");
    let totals = spans.totals();
    let calls: u64 = ["analysis.admission.admit", "analysis.admission.retire"]
        .iter()
        .filter_map(|name| totals.get(name))
        .map(|t| t.allocs.count)
        .sum();
    v.set(
        "bench.trace_overhead",
        ratio(2.0 * traced.as_secs_f64(), (before + after).as_secs_f64()),
    );
    admit_ns.sort_unstable();
    retire_ns.sort_unstable();
    v.set(
        "analysis.admission.admit_us_p50",
        quantile(&admit_ns, 0.5) as f64 / 1e3,
    );
    v.set(
        "analysis.admission.admit_us_p99",
        quantile(&admit_ns, 0.99) as f64 / 1e3,
    );
    v.set(
        "analysis.admission.retire_us_p50",
        quantile(&retire_ns, 0.5) as f64 / 1e3,
    );
    v.set(
        "analysis.admission.retire_us_p99",
        quantile(&retire_ns, 0.99) as f64 / 1e3,
    );
    let stats = state.stats();
    v.set("analysis.admission.gate_rejects", stats.gate_rejects as f64);
    v.set(
        "analysis.admission.reanalyzed",
        stats.subtasks_reanalyzed as f64,
    );
    v.set("analysis.admission.skipped", stats.subtasks_skipped as f64);
    v.set(
        "analysis.admission.memo_hit_ratio",
        ratio(
            stats.subtasks_skipped as f64,
            (stats.subtasks_reanalyzed + stats.subtasks_skipped) as f64,
        ),
    );
    v.set("analysis.admission.allocs", ratio(calls as f64, n as f64));

    for answers in [first, traced_answers, last] {
        let verdicts: Vec<u64> = answers.iter().map(|a| a.verdict().hash()).collect();
        report.attempted += n as u64;
        report.failed += oracle_disagreements(&stream, &verdicts);
    }

    // Generator lag: one second of a real open loop at the reference
    // rate, the generator spinning to each due instant.
    let mut lags = generator_lags(&stream, REFERENCE_RATE as usize);
    lags.sort_unstable();
    v.set("bench.generator_lag_ms", quantile(&lags, 0.99) as f64 / 1e6);

    crate::write_spans(&spans, args);
    v.emit(&mut report);
    report
}

/// Serves `n` requests on a fresh engine, request `i` due at
/// `i / REFERENCE_RATE` seconds of wall time, the generator spinning to
/// each due instant. Returns how late it issued each request it was
/// free to issue on time, in nanoseconds.
fn generator_lags(stream: &Stream, n: usize) -> Vec<u64> {
    let mut state = engine(true);
    let mut lags = Vec::with_capacity(n);
    let start = Instant::now();
    for pos in 0..n {
        let due = start + Duration::from_secs_f64(pos as f64 / REFERENCE_RATE);
        let mut now = Instant::now();
        let idle = now < due;
        while now < due {
            std::hint::spin_loop();
            now = Instant::now();
        }
        if idle {
            lags.push((now - due).as_nanos() as u64);
        }
        std::hint::black_box(serve(&mut state, stream, pos));
    }
    lags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_verdict_is_a_disagreement() {
        let stream = build(3, 0);
        let mut state = engine(true);
        let n = stream.fill.len() + 3 * stream.cycle.len();
        let mut verdicts: Vec<Verdict> = (0..n)
            .map(|pos| serve(&mut state, &stream, pos).verdict())
            .collect();
        let hashes = |v: &[Verdict]| v.iter().map(Verdict::hash).collect::<Vec<u64>>();
        assert_eq!(oracle_disagreements(&stream, &hashes(&verdicts)), 0);
        // Flip one admission in the churn, past the point where the
        // oracle stops replaying and reads its earlier answers.
        let flip = verdicts
            .iter()
            .rposition(|v| matches!(v, Verdict::Admit { admitted: true, .. }))
            .expect("the churn re-admits chains");
        if let Verdict::Admit { admitted, .. } = &mut verdicts[flip] {
            *admitted = false;
        }
        assert_eq!(oracle_disagreements(&stream, &hashes(&verdicts)), 1);
    }

    #[test]
    fn the_virtual_open_loop_queues_behind_slow_requests() {
        // Due every 5 ns; the 20 ns request holds up those after it
        // until the queue drains.
        assert_eq!(
            open_loop(&[2, 20, 2, 2, 2, 2, 2], 2e8),
            vec![2, 20, 17, 14, 11, 8, 5]
        );
        // A server that needs 1 µs per request sustains about 1e6/s: a
        // backlog over 100 000 requests stays within 1 ms up to 1%
        // beyond capacity. 2 ms requests miss the limit at any rate.
        let rate = sustained_rate(&[1_000; 100_000]);
        assert!(rate > 0.99e6 && rate < 1.02e6, "{rate}");
        assert!(sustained_rate(&[2_000_000; 100]) < 1_000.0);
    }

    #[test]
    fn over_budget_requests_are_rejected_by_the_gate_and_by_the_analysis() {
        let stream = build(5, 0);
        let mut state = engine(true);
        for pos in 0..stream.fill.len() + stream.cycle.len() {
            serve(&mut state, &stream, pos);
        }
        let stats = state.stats();
        assert!(stats.gate_rejects > 0);
        assert!(stats.rejected > stats.gate_rejects);
    }
}
