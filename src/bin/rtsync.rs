//! `rtsync` — analyze and simulate distributed real-time task sets from
//! the command line.
//!
//! ```text
//! rtsync example 2 > system.rts          # a starting point (paper Example 2)
//! rtsync check system.rts                # parse + validate + utilizations
//! rtsync analyze system.rts              # schedulability under all protocols
//! rtsync analyze system.rts --protocol rg
//! rtsync simulate system.rts --protocol ds --instances 100 --gantt 30
//! rtsync simulate system.rts --protocol rg --sporadic 4 --seed 7
//! ```
//!
//! Task sets use the plain-text format of `rtsync_core::textfmt` (see
//! `rtsync example 2` for a template). Pass `-` to read from stdin.

use std::io::Read as _;
use std::process::ExitCode;

use rtsync::core::analysis::report::analyze;
use rtsync::core::examples::{example1, example2};
use rtsync::core::task::{ProcessorId, TaskSet};
use rtsync::core::textfmt;
use rtsync::core::time::{Dur, Time};
use rtsync::core::{AnalysisConfig, Protocol};
use rtsync::experiments::campaign::runs_per_cell;
use rtsync::sim::{
    render_dashboard, simulate, simulate_observed, ChannelModel, EventLogObserver, FaultConfig,
    GrayConfig, ProtocolCounters, SimConfig, SlowSchedule, SlowWindow, SourceModel, StallSchedule,
    StallWindow, SyncConfig, SyncPolicy, Tee, TelemetryObserver, TransportConfig,
};

fn main() -> ExitCode {
    rtsync::experiments::exit_quietly_on_broken_pipe();
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "example" => cmd_example(&args[1..]),
        "check" => cmd_check(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "admit" => cmd_admit(&args[1..]),
        "sensitivity" => cmd_sensitivity(&args[1..]),
        "exact" => cmd_exact(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "simulate" => cmd_simulate(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "study" => cmd_study(&args[1..]),
        "bench" => cmd_bench(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     rtsync example <1|2>\n  \
     rtsync check <file|->\n  \
     rtsync analyze <file|-> [--protocol ds|pm|mpm|rg|all] [--convergence]\n  \
     rtsync admit <file|-> [--processors N] [--mode pm|ds] [--no-memo] \
     [--no-gate] [--batch] [--expect FILE]\n  \
     rtsync sensitivity <file|->\n  \
     rtsync exact <file|-> [--steps N] [--instances I]\n  \
     rtsync compare <file|-> [--instances N]\n  \
     rtsync simulate <file|-> --protocol ds|pm|mpm|rg [--instances N] \
     [--gantt TICKS] [--sporadic MAX_EXTRA] [--seed S] [--no-rule2] \
     [--trace-csv FILE] [--latency TICKS] [--drop P] [--transport] \
     [--timeout TICKS] [--sync-period TICKS] [--sync-policy step|slew:MAX|observe] \
     [--slow PROC:AT:SPAN:FACTOR] [--stall PROC:AT:SPAN] \
     [--telemetry FILE] [--window TICKS]\n  \
     rtsync report <file|-|--paper N:U> --protocol ds|pm|mpm|rg [--instances N] \
     [--window TICKS] [--out FILE] [--csv FILE] [--jsonl FILE] \
     [nonideal flags as in simulate]\n  \
     rtsync report --from CSV [--out FILE]\n  \
     rtsync trace <file|-> --protocol ds|pm|mpm|rg [--instances N] \
     [--format perfetto|jsonl|gantt] [--counters] [--telemetry] [--window TICKS] \
     [--out FILE] [--sporadic MAX_EXTRA] [--seed S]\n  \
     rtsync study <chaos|transport|sync|adversary|gray|admit> [--smoke] [--runs N] \
     [--seed S] [--threads T] [--out DIR]\n    \
     (--runs: chaos, adversary and gray only; chaos also takes [--transport] \
     [--telemetry FILE] [--window TICKS])\n  \
     rtsync bench [--json] [--smoke] [--out FILE] [--profile] \
     [--compare BASELINE] [--tolerance FRAC|scenario=FRAC]"
        .to_string()
}

fn cmd_example(args: &[String]) -> Result<(), String> {
    let which = args.first().map(String::as_str).unwrap_or("2");
    let set = match which {
        "1" => example1(),
        "2" => example2(),
        other => return Err(format!("unknown example `{other}` (use 1 or 2)")),
    };
    print!("{}", textfmt::to_text(&set));
    Ok(())
}

fn load(path: &str) -> Result<TaskSet, String> {
    let text = if path == "-" {
        let mut buffer = String::new();
        std::io::stdin()
            .read_to_string(&mut buffer)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buffer
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
    };
    textfmt::parse(&text).map_err(|e| e.to_string())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    println!(
        "ok: {} processors, {} tasks, {} subtasks",
        set.num_processors(),
        set.num_tasks(),
        set.num_subtasks()
    );
    for p in 0..set.num_processors() {
        let proc = ProcessorId::new(p);
        let util = set.processor_utilization_ppm(proc) as f64 / 1e4;
        println!(
            "  {proc}: {} subtasks, utilization {util:.2}%",
            set.subtasks_on(proc).count()
        );
    }
    Ok(())
}

fn parse_protocol(tag: &str) -> Result<Protocol, String> {
    match tag.to_ascii_lowercase().as_str() {
        "ds" => Ok(Protocol::DirectSync),
        "pm" => Ok(Protocol::PhaseModification),
        "mpm" => Ok(Protocol::ModifiedPhaseModification),
        "rg" => Ok(Protocol::ReleaseGuard),
        other => Err(format!("unknown protocol `{other}` (ds, pm, mpm, rg)")),
    }
}

fn parse_sync_policy(tag: &str) -> Result<SyncPolicy, String> {
    let tag = tag.to_ascii_lowercase();
    match tag.as_str() {
        "step" => Ok(SyncPolicy::Step),
        "observe" => Ok(SyncPolicy::Observe),
        _ => match tag.strip_prefix("slew:") {
            Some(max) => {
                let max: i64 = max
                    .parse()
                    .map_err(|e| format!("--sync-policy slew: {e}"))?;
                if max <= 0 {
                    return Err("--sync-policy slew:MAX needs a positive MAX".to_string());
                }
                Ok(SyncPolicy::Slew {
                    max_step: Dur::from_ticks(max),
                })
            }
            None => Err(format!(
                "unknown sync policy `{tag}` (step, slew:MAX, observe)"
            )),
        },
    }
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut protocols: Vec<Protocol> = Protocol::ALL.to_vec();
    let mut convergence = false;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--protocol" => {
                let tag = it.next().ok_or("--protocol needs a value")?;
                if tag != "all" {
                    protocols = vec![parse_protocol(tag)?];
                }
            }
            "--convergence" => convergence = true,
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let cfg = AnalysisConfig::default();
    for protocol in protocols {
        match analyze(&set, protocol, &cfg) {
            Ok(report) => println!("{report}\n"),
            Err(e) if e.is_failure() => println!(
                "schedulability under {protocol} protocol\n\
                 no finite bound found ({e}) — the paper's failure outcome\n"
            ),
            Err(e) => return Err(e.to_string()),
        }
    }
    if convergence {
        print_convergence(&set, &cfg)?;
    }
    Ok(())
}

/// How the iterative analyses reached (or failed to reach) their fixed
/// points: SA/PM busy-period iterations and the SA/DS IEERT sweep
/// trajectory.
fn print_convergence(set: &TaskSet, cfg: &AnalysisConfig) -> Result<(), String> {
    use rtsync::core::analysis::sa_ds::{analyze_ds_traced, SweepOrder};
    use rtsync::core::analysis::sa_pm::analyze_pm_traced;
    match analyze_pm_traced(set, cfg) {
        Ok((_, report)) => println!("{report}"),
        Err(e) if e.is_failure() => {
            println!("SA/PM convergence: no finite bound found ({e})\n")
        }
        Err(e) => return Err(e.to_string()),
    }
    let (_, report) =
        analyze_ds_traced(set, cfg, SweepOrder::default()).map_err(|e| e.to_string())?;
    println!("{report}");
    Ok(())
}

/// `rtsync admit` — serve admission-control requests over JSONL: one
/// request object per input line, one verdict object per output line.
///
/// ```text
/// {"op":"admit","id":1,"period":100,"deadline":80,"rank":2,"subtasks":[[0,30],[1,20]]}
/// {"op":"retire","id":1}
/// ```
///
/// Admit replies carry `admitted`, the end-to-end `bound` (when
/// admitted), the `reject` reason (when not), the resident count, the
/// reanalyzed/skipped work split, and the decision latency in
/// microseconds. Retire replies carry `ok` (plus `error` when the id is
/// unknown). Blank lines and `#` comments are skipped. By default stdin
/// is served a line at a time (each reply flushed); `--batch` reads the
/// whole input first and reports throughput. `--expect FILE` compares
/// every verdict against a recorded reply line and exits nonzero on any
/// mismatch (work counters and latency are not compared).
fn cmd_admit(args: &[String]) -> Result<(), String> {
    use rtsync::bench::json;
    use rtsync::core::analysis::admission::{AdmissionConfig, AdmissionMode, AdmissionState};
    use std::io::{BufRead as _, Write as _};

    let path = args.first().ok_or_else(usage)?;
    let mut processors = 4usize;
    let mut mode = AdmissionMode::PmFamily;
    let mut memo = true;
    let mut gate = true;
    let mut batch = false;
    let mut expect_path: Option<String> = None;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--processors" => {
                processors = grab("--processors")?
                    .parse()
                    .map_err(|e| format!("--processors: {e}"))?
            }
            "--mode" => {
                mode = match grab("--mode")?.as_str() {
                    "pm" | "mpm" | "rg" => AdmissionMode::PmFamily,
                    "ds" => AdmissionMode::DirectSync,
                    other => return Err(format!("unknown mode `{other}` (pm, ds)")),
                }
            }
            "--no-memo" => memo = false,
            "--no-gate" => gate = false,
            "--batch" => batch = true,
            "--expect" => expect_path = Some(grab("--expect")?.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if processors == 0 {
        return Err("--processors must be at least 1".to_string());
    }
    let cfg = AdmissionConfig::new(mode)
        .with_memoization(memo)
        .with_quick_gate(gate);
    let mut state = AdmissionState::new(processors, cfg);

    let expected: Option<Vec<json::Json>> = match &expect_path {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let verdicts: Result<Vec<json::Json>, String> = text
                .lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
                .collect();
            Some(verdicts?)
        }
        None => None,
    };

    let mut served = 0usize;
    let mut mismatches: Vec<String> = Vec::new();
    let started = std::time::Instant::now();
    {
        // One closure serves a request line and checks it against the
        // expectations; the two input paths below share it.
        let mut serve = |line: &str, sink: &mut dyn std::io::Write| -> Result<(), String> {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return Ok(());
            }
            let reply = admit_serve(&mut state, line)
                .map_err(|e| format!("request {}: {e}", served + 1))?;
            if let Some(expected) = &expected {
                let got = admit_verdict_key(&json::parse(&reply).expect("replies are JSON"));
                match expected.get(served) {
                    Some(want) if admit_verdict_key(want) == got => {}
                    Some(want) => mismatches.push(format!(
                        "request {}: expected {} got {got}",
                        served + 1,
                        admit_verdict_key(want)
                    )),
                    None => mismatches.push(format!(
                        "request {}: no expected verdict on file",
                        served + 1
                    )),
                }
            }
            served += 1;
            writeln!(sink, "{reply}").map_err(stdout_error("writing reply"))?;
            Ok(())
        };
        if path == "-" && !batch {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for line in stdin.lock().lines() {
                let line = line.map_err(|e| format!("reading stdin: {e}"))?;
                serve(&line, &mut out)?;
                out.flush().map_err(stdout_error("flushing stdout"))?;
            }
        } else {
            let text = if path == "-" {
                let mut buffer = String::new();
                std::io::stdin()
                    .read_to_string(&mut buffer)
                    .map_err(|e| format!("reading stdin: {e}"))?;
                buffer
            } else {
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
            };
            let mut replies = Vec::with_capacity(text.len());
            for line in text.lines() {
                serve(line, &mut replies)?;
            }
            std::io::stdout()
                .write_all(&replies)
                .map_err(stdout_error("writing replies"))?;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let stats = state.stats();
    eprintln!(
        "served {served} requests in {:.1} ms ({:.0} decisions/s): \
         {} admitted, {} rejected ({} by gate), {} retired; \
         {} subtask analyses run, {} skipped",
        elapsed * 1e3,
        if elapsed > 0.0 {
            served as f64 / elapsed
        } else {
            0.0
        },
        stats.admitted,
        stats.rejected,
        stats.gate_rejects,
        stats.retired,
        stats.subtasks_reanalyzed,
        stats.subtasks_skipped,
    );
    if let Some(expected) = &expected {
        for missing in served..expected.len() {
            mismatches.push(format!(
                "request {}: expected but never served",
                missing + 1
            ));
        }
        if !mismatches.is_empty() {
            return Err(format!(
                "{} verdict mismatch(es) vs {}:\n  {}",
                mismatches.len(),
                expect_path.as_deref().unwrap_or("-"),
                mismatches.join("\n  ")
            ));
        }
        eprintln!(
            "all {served} verdicts match {}",
            expect_path.as_deref().unwrap_or("-")
        );
    }
    Ok(())
}

/// Maps a failed stdout write to an error message, except a closed pipe,
/// which ends the process as quietly as a failed `print!` does.
fn stdout_error(context: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(rtsync::experiments::BROKEN_PIPE_EXIT);
        }
        format!("{context}: {e}")
    }
}

/// Serves one JSONL admission request against the engine and renders the
/// reply line. The decision latency covers the engine call alone, not
/// parsing or I/O.
fn admit_serve(
    state: &mut rtsync::core::analysis::admission::AdmissionState,
    line: &str,
) -> Result<String, String> {
    use rtsync::bench::json::{self, Json};
    use rtsync::core::analysis::admission::ChainRequest;

    let v = json::parse(line)?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field \"op\"")?;
    let id = v
        .get("id")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field \"id\"")? as u64;
    match op {
        "admit" => {
            let period = v
                .get("period")
                .and_then(Json::as_f64)
                .ok_or("missing numeric field \"period\"")? as i64;
            let pairs = v
                .get("subtasks")
                .and_then(Json::as_arr)
                .ok_or("missing array field \"subtasks\"")?;
            let mut subtasks = Vec::with_capacity(pairs.len());
            for pair in pairs {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or("\"subtasks\" entries are [processor, execution] pairs")?;
                let proc = pair[0]
                    .as_f64()
                    .ok_or("subtask processor must be a number")?
                    as usize;
                let exec = pair[1]
                    .as_f64()
                    .ok_or("subtask execution must be a number")? as i64;
                subtasks.push((proc, Dur::from_ticks(exec)));
            }
            let mut req = ChainRequest::new(id, Dur::from_ticks(period), subtasks);
            if let Some(deadline) = v.get("deadline").and_then(Json::as_f64) {
                req = req.with_deadline(Dur::from_ticks(deadline as i64));
            }
            if let Some(rank) = v.get("rank").and_then(Json::as_f64) {
                req = req.with_rank(rank as u32);
            }
            let t0 = std::time::Instant::now();
            let decision = state.admit(req);
            let latency_us = t0.elapsed().as_nanos() as f64 / 1e3;
            let mut reply = format!(
                "{{\"op\":\"admit\",\"id\":{id},\"admitted\":{}",
                decision.admitted
            );
            if let Some(bound) = decision.bound {
                reply.push_str(&format!(",\"bound\":{}", bound.ticks()));
            }
            if let Some(reject) = &decision.reject {
                reply.push_str(&format!(
                    ",\"reject\":\"{}\"",
                    admit_json_escape(&reject.to_string())
                ));
            }
            reply.push_str(&format!(
                ",\"residents\":{},\"reanalyzed\":{},\"skipped\":{},\"latency_us\":{latency_us:.1}}}",
                decision.residents, decision.reanalyzed, decision.skipped
            ));
            Ok(reply)
        }
        "retire" => {
            let t0 = std::time::Instant::now();
            let outcome = state.retire(id);
            let latency_us = t0.elapsed().as_nanos() as f64 / 1e3;
            Ok(match outcome {
                Ok(out) => format!(
                    "{{\"op\":\"retire\",\"id\":{id},\"ok\":true,\"residents\":{},\
                     \"reanalyzed\":{},\"skipped\":{},\"latency_us\":{latency_us:.1}}}",
                    out.residents, out.reanalyzed, out.skipped
                ),
                Err(e) => format!(
                    "{{\"op\":\"retire\",\"id\":{id},\"ok\":false,\"error\":\"{}\",\
                     \"latency_us\":{latency_us:.1}}}",
                    admit_json_escape(&e.to_string())
                ),
            })
        }
        other => Err(format!("unknown op `{other}` (admit, retire)")),
    }
}

/// The fields of a reply that constitute the verdict — everything
/// `--expect` compares. Latency and the reanalyzed/skipped work split
/// are measurements, not verdicts, and stay out.
fn admit_verdict_key(v: &rtsync::bench::json::Json) -> String {
    [
        "op",
        "id",
        "admitted",
        "ok",
        "bound",
        "reject",
        "error",
        "residents",
    ]
    .iter()
    .filter_map(|key| v.get(key).map(|value| format!("{key}={value:?}")))
    .collect::<Vec<String>>()
    .join(",")
}

/// Escapes a string for embedding in a JSON reply.
fn admit_json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn cmd_sensitivity(args: &[String]) -> Result<(), String> {
    use rtsync::core::analysis::sensitivity::critical_scaling;
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let cfg = AnalysisConfig::default();
    println!("critical scaling factor per protocol (analysis headroom):");
    for protocol in Protocol::ALL {
        let permille = critical_scaling(&set, protocol, &cfg, 10_000);
        let verdict = match permille {
            0 => "unschedulable even with minimal execution times".to_string(),
            p if p >= 10_000 => ">= 10.0x (search cap)".to_string(),
            p => format!(
                "{}.{:03}x — provably schedulable up to this load scaling",
                p / 1000,
                p % 1000
            ),
        };
        println!("  {:<4} {}", protocol.tag(), verdict);
    }
    Ok(())
}

fn cmd_exact(args: &[String]) -> Result<(), String> {
    use rtsync::core::analysis::sa_ds::analyze_ds;
    use rtsync::core::analysis::sa_pm::analyze_pm;
    use rtsync::experiments::exact::{exact_worst_case, ExactConfig};
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut cfg = ExactConfig::default();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--steps" => {
                cfg.phase_steps = grab("--steps")?
                    .parse()
                    .map_err(|e| format!("--steps: {e}"))?
            }
            "--instances" => {
                cfg.instances_per_task = grab("--instances")?
                    .parse()
                    .map_err(|e| format!("--instances: {e}"))?
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let acfg = AnalysisConfig::default();
    let pm = analyze_pm(&set, &acfg).map_err(|e| e.to_string())?;
    let ds = analyze_ds(&set, &acfg).ok();
    println!(
        "exhaustive phase search ({} grid, {} instances/task):",
        if cfg.phase_steps == 0 {
            "full integer".to_string()
        } else {
            format!("{}-step", cfg.phase_steps)
        },
        cfg.instances_per_task
    );
    for protocol in [Protocol::DirectSync, Protocol::ReleaseGuard] {
        let exact = exact_worst_case(&set, protocol, &cfg).map_err(|e| e.to_string())?;
        println!("  {}:", protocol.tag());
        for (i, w) in exact.iter().enumerate() {
            let bound = match protocol {
                Protocol::DirectSync => ds
                    .as_ref()
                    .map(|b| b.task_bounds()[i].ticks().to_string())
                    .unwrap_or_else(|| "infinite".into()),
                _ => pm.task_bounds()[i].ticks().to_string(),
            };
            println!(
                "    T{i}: worst observed {} vs analyzed bound {}",
                w.ticks(),
                bound
            );
        }
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    use rtsync::experiments::compare::compare;
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut instances = 200u64;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--instances" => {
                instances = it
                    .next()
                    .ok_or("--instances needs a value")?
                    .parse()
                    .map_err(|e| format!("--instances: {e}"))?
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let cmp = compare(&set, instances, &AnalysisConfig::default()).map_err(|e| e.to_string())?;
    print!("{cmp}");
    Ok(())
}

/// The nonideal-world knobs shared by `simulate` and `report`: channel
/// latency/drops, endpoint transport, clock imperfection, and the clock
/// synchronization service.
struct NonidealFlags {
    seed: u64,
    sporadic: Option<i64>,
    latency: i64,
    drop: f64,
    transport: bool,
    timeout: Option<i64>,
    drift_ppm: i64,
    clock_offset: i64,
    sync_period: Option<i64>,
    sync_policy: SyncPolicy,
    slow: Vec<SlowWindowSpec>,
    stall: Vec<StallWindowSpec>,
}

/// One `--slow PROC:AT:SPAN:FACTOR` occurrence.
struct SlowWindowSpec {
    proc: usize,
    at: i64,
    span: i64,
    factor: u32,
}

/// One `--stall PROC:AT:SPAN` occurrence.
struct StallWindowSpec {
    proc: usize,
    at: i64,
    span: i64,
}

impl NonidealFlags {
    fn new() -> NonidealFlags {
        NonidealFlags {
            seed: 0,
            sporadic: None,
            latency: 0,
            drop: 0.0,
            transport: false,
            timeout: None,
            drift_ppm: 0,
            clock_offset: 0,
            sync_period: None,
            sync_policy: SyncPolicy::Step,
            slow: Vec::new(),
            stall: Vec::new(),
        }
    }

    /// Consumes `arg` (and its value from `it`) when it is one of the
    /// shared flags; `Ok(false)` hands it back to the caller's parser.
    fn consume(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg {
            "--sporadic" => {
                self.sporadic = Some(
                    grab("--sporadic")?
                        .parse()
                        .map_err(|e| format!("--sporadic: {e}"))?,
                )
            }
            "--seed" => {
                self.seed = grab("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--latency" => {
                self.latency = grab("--latency")?
                    .parse()
                    .map_err(|e| format!("--latency: {e}"))?
            }
            "--drop" => {
                self.drop = grab("--drop")?
                    .parse()
                    .map_err(|e| format!("--drop: {e}"))?
            }
            "--transport" => self.transport = true,
            "--timeout" => {
                self.timeout = Some(
                    grab("--timeout")?
                        .parse()
                        .map_err(|e| format!("--timeout: {e}"))?,
                )
            }
            "--drift" => {
                self.drift_ppm = grab("--drift")?
                    .parse()
                    .map_err(|e| format!("--drift: {e}"))?
            }
            "--clock-offset" => {
                self.clock_offset = grab("--clock-offset")?
                    .parse()
                    .map_err(|e| format!("--clock-offset: {e}"))?
            }
            "--sync-period" => {
                self.sync_period = Some(
                    grab("--sync-period")?
                        .parse()
                        .map_err(|e| format!("--sync-period: {e}"))?,
                )
            }
            "--sync-policy" => self.sync_policy = parse_sync_policy(grab("--sync-policy")?)?,
            "--slow" => {
                let spec = grab("--slow")?;
                let parts: Vec<&str> = spec.split(':').collect();
                let [proc, at, span, factor] = parts[..] else {
                    return Err(format!("--slow wants PROC:AT:SPAN:FACTOR, got `{spec}`"));
                };
                self.slow.push(SlowWindowSpec {
                    proc: proc.parse().map_err(|e| format!("--slow PROC: {e}"))?,
                    at: at.parse().map_err(|e| format!("--slow AT: {e}"))?,
                    span: span.parse().map_err(|e| format!("--slow SPAN: {e}"))?,
                    factor: factor.parse().map_err(|e| format!("--slow FACTOR: {e}"))?,
                });
            }
            "--stall" => {
                let spec = grab("--stall")?;
                let parts: Vec<&str> = spec.split(':').collect();
                let [proc, at, span] = parts[..] else {
                    return Err(format!("--stall wants PROC:AT:SPAN, got `{spec}`"));
                };
                self.stall.push(StallWindowSpec {
                    proc: proc.parse().map_err(|e| format!("--stall PROC: {e}"))?,
                    at: at.parse().map_err(|e| format!("--stall AT: {e}"))?,
                    span: span.parse().map_err(|e| format!("--stall SPAN: {e}"))?,
                });
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn apply(&self, mut cfg: SimConfig) -> Result<SimConfig, String> {
        if self.drop > 0.0 && !self.transport {
            return Err("--drop loses signals for good without --transport".to_string());
        }
        if self.latency > 0 || self.drop > 0.0 {
            cfg = cfg.with_channel(
                ChannelModel::constant(Dur::from_ticks(self.latency))
                    .with_endpoint_drops(self.drop)
                    .with_seed(self.seed ^ 0xCAFE),
            );
        }
        if self.transport {
            // Default RTO: four times the one-way latency, floored so a
            // zero-latency channel still gets a meaningful timer.
            let rto = self.timeout.unwrap_or_else(|| (4 * self.latency).max(8));
            cfg = cfg.with_transport(
                TransportConfig::new(Dur::from_ticks(rto)).with_seed(self.seed ^ 0xF00D),
            );
        }
        if self.drift_ppm > 0 || self.clock_offset > 0 {
            cfg = cfg.with_clocks(rtsync::sim::ClockModel::Random {
                max_offset: Dur::from_ticks(self.clock_offset),
                max_drift_ppm: self.drift_ppm,
                seed: self.seed ^ 0xC10C,
            });
        }
        if let Some(period) = self.sync_period {
            if period <= 0 {
                return Err("--sync-period must be positive".to_string());
            }
            cfg = cfg
                .with_sync(SyncConfig::new(Dur::from_ticks(period)).with_policy(self.sync_policy));
        }
        if let Some(max_extra) = self.sporadic {
            cfg = cfg.with_source(SourceModel::Sporadic {
                max_extra: Dur::from_ticks(max_extra),
                seed: self.seed,
            });
        }
        if !self.slow.is_empty() || !self.stall.is_empty() {
            let mut gray = GrayConfig::new().with_frame_seed(self.seed ^ 0x6EA7);
            if !self.slow.is_empty() {
                let procs = self.slow.iter().map(|w| w.proc).max().unwrap_or(0) + 1;
                let mut per_proc = vec![Vec::new(); procs];
                for w in &self.slow {
                    if w.factor < 2 {
                        return Err("--slow FACTOR must be at least 2".to_string());
                    }
                    per_proc[w.proc].push(SlowWindow {
                        at: Time::from_ticks(w.at),
                        span: Dur::from_ticks(w.span),
                        factor: w.factor,
                    });
                }
                gray = gray.with_slow(SlowSchedule::Explicit(per_proc));
            }
            if !self.stall.is_empty() {
                let procs = self.stall.iter().map(|w| w.proc).max().unwrap_or(0) + 1;
                let mut per_proc = vec![Vec::new(); procs];
                for w in &self.stall {
                    per_proc[w.proc].push(StallWindow {
                        at: Time::from_ticks(w.at),
                        span: Dur::from_ticks(w.span),
                    });
                }
                gray = gray.with_stalls(StallSchedule::Explicit(per_proc));
            }
            cfg = cfg.with_faults(FaultConfig::gray_only(gray));
        }
        Ok(cfg)
    }
}

/// The telemetry window width: the explicit `--window`, or an auto fit
/// that sizes ~64 windows off an untelemetered probe run (cheap next to
/// the observed run, and keeps dashboards legible at any horizon).
fn telemetry_width(window: Option<i64>, set: &TaskSet, cfg: &SimConfig) -> Result<Dur, String> {
    match window {
        Some(w) if w > 0 => Ok(Dur::from_ticks(w)),
        Some(_) => Err("--window must be positive".to_string()),
        None => {
            let probe = simulate(set, cfg).map_err(|e| e.to_string())?;
            Ok(Dur::from_ticks((probe.end_time.ticks() / 64).max(1)))
        }
    }
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut protocol = None;
    let mut instances = 100u64;
    let mut gantt: Option<i64> = None;
    let mut rule2 = true;
    let mut trace_csv: Option<String> = None;
    let mut telemetry_out: Option<String> = None;
    let mut window: Option<i64> = None;
    let mut flags = NonidealFlags::new();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        if flags.consume(arg, &mut it)? {
            continue;
        }
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => protocol = Some(parse_protocol(grab("--protocol")?)?),
            "--instances" => {
                instances = grab("--instances")?
                    .parse()
                    .map_err(|e| format!("--instances: {e}"))?
            }
            "--gantt" => {
                gantt = Some(
                    grab("--gantt")?
                        .parse()
                        .map_err(|e| format!("--gantt: {e}"))?,
                )
            }
            "--no-rule2" => rule2 = false,
            "--trace-csv" => trace_csv = Some(grab("--trace-csv")?.clone()),
            "--telemetry" => telemetry_out = Some(grab("--telemetry")?.clone()),
            "--window" => {
                window = Some(
                    grab("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?,
                )
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let protocol = protocol.ok_or("simulate requires --protocol")?;
    let mut cfg = flags.apply(SimConfig::new(protocol).with_instances(instances))?;
    if gantt.is_some() || trace_csv.is_some() {
        cfg = cfg.with_trace();
    }
    if !rule2 {
        cfg = cfg.without_rg_rule2();
    }
    let (outcome, telemetry) = match &telemetry_out {
        None => (simulate(&set, &cfg).map_err(|e| e.to_string())?, None),
        Some(_) => {
            let mut tel = TelemetryObserver::new(telemetry_width(window, &set, &cfg)?);
            let outcome = simulate_observed(&set, &cfg, &mut tel).map_err(|e| e.to_string())?;
            (outcome, Some(tel.into_report()))
        }
    };

    println!(
        "{} protocol: {} events, ended at t={}{}",
        protocol.tag(),
        outcome.events,
        outcome.end_time.ticks(),
        if outcome.reached_target {
            ""
        } else {
            " (horizon reached before the instance target)"
        }
    );
    println!(
        "{:<6}{:>10}{:>12}{:>10}{:>8}{:>8}{:>8}{:>10}{:>10}{:>8}",
        "task", "done", "avg EER", "min", "p50", "p95", "p99", "max", "jitter", "misses"
    );
    let q = |s: &rtsync::sim::TaskStats, q: f64| -> String {
        s.eer_quantile(q)
            .map_or("-".into(), |v| v.ticks().to_string())
    };
    for task in set.tasks() {
        let s = outcome.metrics.task(task.id());
        println!(
            "{:<6}{:>10}{:>12}{:>10}{:>8}{:>8}{:>8}{:>10}{:>10}{:>8}",
            task.id().to_string(),
            s.completed(),
            s.avg_eer().map_or("-".into(), |v| format!("{v:.1}")),
            s.min_eer().map_or("-".into(), |v| v.ticks().to_string()),
            q(s, 0.50),
            q(s, 0.95),
            q(s, 0.99),
            s.max_eer().map_or("-".into(), |v| v.ticks().to_string()),
            s.max_output_jitter().ticks(),
            s.deadline_misses(),
        );
    }
    if !outcome.violations.is_empty() {
        println!("protocol violations: {}", outcome.violations.len());
    }
    let ch = &outcome.channel_stats;
    if ch.sent > 0 {
        println!(
            "channel: {} sent, {} applied, {} dropped, {} duplicates, {} reordered",
            ch.sent, ch.applied, ch.dropped, ch.duplicates_injected, ch.reordered
        );
    }
    let tr = &outcome.transport_stats;
    if tr.sent > 0 {
        println!(
            "transport: {} frames, {} retransmissions, {} dup deliveries, \
             {} acks ({} dup), {} abandoned",
            tr.sent, tr.retransmissions, tr.dup_deliveries, tr.acks, tr.dup_acks, tr.gave_up
        );
    }
    let dt = &outcome.detect_stats;
    if dt.heartbeats_sent > 0 {
        println!(
            "detector: {} heartbeats, {} suspects ({} false), {} deads ({} false), \
             {} forced releases, {} watchdog trips",
            dt.heartbeats_sent,
            dt.suspects,
            dt.false_suspects,
            dt.deads,
            dt.false_deads,
            dt.forced_releases,
            dt.watchdog_trips
        );
        if dt.degradeds + dt.false_dead_gray + dt.hysteresis_holds > 0 {
            println!(
                "detector (gray): {} degradeds ({} confirmed gray), \
                 {} false deads on gray peers, {} hysteresis holds",
                dt.degradeds, dt.gray_hits, dt.false_dead_gray, dt.hysteresis_holds
            );
        }
    }
    let fs = &outcome.fault_stats;
    if fs.slowdowns + fs.stalls + fs.link_degrades > 0 {
        println!(
            "gray faults: {} slowdowns, {} stalls, {} link windows, \
             {} heartbeats dropped, {} extra latency ticks",
            fs.slowdowns,
            fs.stalls,
            fs.link_degrades,
            fs.gray_dropped_heartbeats,
            fs.gray_extra_latency_ticks
        );
    }
    let sy = &outcome.sync_stats;
    if sy.rounds > 0 {
        println!(
            "sync: {} rounds, {} exchanges, {} corrections, \
             clock error mean {:.1} max {} ticks, bound <= {} ticks",
            sy.rounds,
            sy.exchanges,
            sy.corrections.len(),
            sy.mean_true_error().unwrap_or(0.0),
            sy.max_true_error.ticks(),
            sy.max_uncertainty.ticks(),
        );
        if sy.frames_lost + sy.frames_severed + sy.retransmits + sy.corrupted_samples > 0 {
            println!(
                "sync faults: {} frames lost, {} severed by partitions, \
                 {} retransmits, {} corrupted samples",
                sy.frames_lost, sy.frames_severed, sy.retransmits, sy.corrupted_samples
            );
        }
    }
    if let (Some(until), Some(trace)) = (gantt, &outcome.trace) {
        println!("\n{}", trace.render_gantt(Time::from_ticks(until)));
    }
    if let (Some(path), Some(trace)) = (trace_csv, &outcome.trace) {
        std::fs::write(&path, trace.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let (Some(path), Some(report)) = (&telemetry_out, &telemetry) {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!(
            "wrote {path} ({} windows x {} ticks)",
            report.windows.len(),
            report.width.ticks()
        );
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let first = args.first().ok_or_else(usage)?;
    if first == "--from" {
        let csv_path = args.get(1).ok_or("--from needs a CSV file")?;
        let mut out = "telemetry.html".to_string();
        let mut it = args[2..].iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => out = it.next().ok_or("--out needs a value")?.clone(),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        let text =
            std::fs::read_to_string(csv_path).map_err(|e| format!("reading {csv_path}: {e}"))?;
        let series = series_from_csv(&text)?;
        let html = render_dashboard(
            "rtsync telemetry",
            &format!("replayed from {csv_path}"),
            &series,
        );
        std::fs::write(&out, html).map_err(|e| format!("writing {out}: {e}"))?;
        println!(
            "wrote {out} ({} series replayed from {csv_path})",
            series.len()
        );
        return Ok(());
    }
    let (paper, rest): (Option<&String>, &[String]) = if first == "--paper" {
        (
            Some(args.get(1).ok_or("--paper needs N:U (e.g. 4:0.25)")?),
            &args[2..],
        )
    } else {
        (None, &args[1..])
    };
    let mut protocol = None;
    let mut instances = 200u64;
    let mut window: Option<i64> = None;
    let mut out = "telemetry.html".to_string();
    let mut csv_out: Option<String> = None;
    let mut jsonl_out: Option<String> = None;
    let mut flags = NonidealFlags::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if flags.consume(arg, &mut it)? {
            continue;
        }
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => protocol = Some(parse_protocol(grab("--protocol")?)?),
            "--instances" => {
                instances = grab("--instances")?
                    .parse()
                    .map_err(|e| format!("--instances: {e}"))?
            }
            "--window" => {
                window = Some(
                    grab("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?,
                )
            }
            "--out" => out = grab("--out")?.clone(),
            "--csv" => csv_out = Some(grab("--csv")?.clone()),
            "--jsonl" => jsonl_out = Some(grab("--jsonl")?.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let protocol = protocol.ok_or("report requires --protocol")?;
    let set = match paper {
        Some(spec) => {
            // A §5.1 synthetic system: N subtasks per task at per-processor
            // utilization U, random phases, seeded by --seed.
            let (n, u) = spec
                .split_once(':')
                .ok_or("--paper needs N:U (e.g. 4:0.25)")?;
            let n: usize = n.parse().map_err(|e| format!("--paper: {e}"))?;
            let u: f64 = u.parse().map_err(|e| format!("--paper: {e}"))?;
            if n == 0 || !(u > 0.0 && u <= 1.0) {
                return Err("--paper needs N >= 1 and U in (0, 1]".to_string());
            }
            rtsync::workload::generate_seeded(
                &rtsync::workload::WorkloadSpec::paper(n, u).with_random_phases(),
                flags.seed,
            )
            .map_err(|e| e.to_string())?
        }
        None => load(first)?,
    };
    let cfg = flags.apply(SimConfig::new(protocol).with_instances(instances))?;
    let mut tel = TelemetryObserver::new(telemetry_width(window, &set, &cfg)?);
    let outcome = simulate_observed(&set, &cfg, &mut tel).map_err(|e| e.to_string())?;
    let report = tel.into_report();
    if let Some(path) = &csv_out {
        std::fs::write(path, report.to_csv()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = &jsonl_out {
        std::fs::write(path, report.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    std::fs::write(&out, report.to_html()).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {out}: {} windows x {} ticks, {} series ({} events, ended at t={})",
        report.windows.len(),
        report.width.ticks(),
        report.series().len(),
        outcome.events,
        outcome.end_time.ticks()
    );
    Ok(())
}

/// Rebuilds dashboard series from a telemetry CSV written by
/// `--telemetry`/`--csv`: every column except the window bookkeeping
/// becomes one series; empty cells (gauges with nothing to report yet)
/// carry the previous value forward.
fn series_from_csv(text: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty telemetry CSV")?;
    let cols: Vec<&str> = header.split(',').collect();
    let keep: Vec<usize> = cols
        .iter()
        .enumerate()
        .filter(|(_, name)| !matches!(**name, "window" | "start" | "end"))
        .map(|(i, _)| i)
        .collect();
    if keep.is_empty() {
        return Err("no data columns in the CSV header".to_string());
    }
    let mut series: Vec<(String, Vec<f64>)> = keep
        .iter()
        .map(|&i| (cols[i].to_string(), Vec::new()))
        .collect();
    for (lineno, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        for (slot, &col) in keep.iter().enumerate() {
            let values = &mut series[slot].1;
            let value = match cells.get(col).copied().unwrap_or("") {
                "" => values.last().copied().unwrap_or(0.0),
                cell => cell
                    .parse::<f64>()
                    .map_err(|e| format!("line {}: column `{}`: {e}", lineno + 2, cols[col]))?,
            };
            values.push(value);
        }
    }
    Ok(series)
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or_else(usage)?;
    let set = load(path)?;
    let mut protocol = None;
    let mut instances = 100u64;
    let mut format = "perfetto".to_string();
    let mut counters = false;
    let mut telemetry = false;
    let mut window: Option<i64> = None;
    let mut out: Option<String> = None;
    let mut sporadic: Option<i64> = None;
    let mut seed = 0u64;
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let mut grab = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--protocol" => protocol = Some(parse_protocol(grab("--protocol")?)?),
            "--instances" => {
                instances = grab("--instances")?
                    .parse()
                    .map_err(|e| format!("--instances: {e}"))?
            }
            "--format" => format = grab("--format")?.clone(),
            "--counters" => counters = true,
            "--telemetry" => telemetry = true,
            "--window" => {
                window = Some(
                    grab("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?,
                )
            }
            "--out" => out = Some(grab("--out")?.clone()),
            "--sporadic" => {
                sporadic = Some(
                    grab("--sporadic")?
                        .parse()
                        .map_err(|e| format!("--sporadic: {e}"))?,
                )
            }
            "--seed" => {
                seed = grab("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let protocol = protocol.ok_or("trace requires --protocol")?;
    if !matches!(format.as_str(), "perfetto" | "jsonl" | "gantt") {
        return Err(format!(
            "unknown format `{format}` (perfetto, jsonl, gantt)"
        ));
    }
    if telemetry && format != "perfetto" {
        return Err("--telemetry adds counter tracks; it requires --format perfetto".to_string());
    }
    let mut cfg = SimConfig::new(protocol).with_instances(instances);
    if format == "gantt" {
        cfg = cfg.with_trace();
    }
    if let Some(max_extra) = sporadic {
        cfg = cfg.with_source(SourceModel::Sporadic {
            max_extra: Dur::from_ticks(max_extra),
            seed,
        });
    }
    // The event log, the counters, and the telemetry recorder are all
    // observers; Tees feed every requested report from the same run.
    let mut log = EventLogObserver::default();
    let mut tally = ProtocolCounters::default();
    let mut tel: Option<TelemetryObserver> = if telemetry {
        Some(TelemetryObserver::new(telemetry_width(window, &set, &cfg)?))
    } else {
        None
    };
    let outcome = match (&mut tel, counters) {
        (None, false) => simulate_observed(&set, &cfg, &mut log),
        (None, true) => simulate_observed(&set, &cfg, &mut Tee(&mut tally, &mut log)),
        (Some(t), false) => simulate_observed(&set, &cfg, &mut Tee(&mut log, t)),
        (Some(t), true) => {
            let mut inner = Tee(&mut log, t);
            simulate_observed(&set, &cfg, &mut Tee(&mut tally, &mut inner))
        }
    }
    .map_err(|e| e.to_string())?;

    let rendered = match format.as_str() {
        "perfetto" => match tel {
            Some(t) => log.to_chrome_trace_with(&t.into_report().chrome_counter_events()),
            None => log.to_chrome_trace(),
        },
        "jsonl" => log.to_jsonl(),
        _ => outcome
            .trace
            .as_ref()
            .map(|t| t.render_gantt(outcome.end_time))
            .unwrap_or_default(),
    };
    match &out {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path} ({} events)", log.len());
        }
        None => print!("{rendered}"),
    }
    if counters {
        let report = tally.render();
        if out.is_none() && format != "gantt" {
            // Keep stdout machine-readable; the report goes to stderr.
            eprint!("{report}");
        } else {
            print!("{report}");
        }
    }
    Ok(())
}

/// The campaigns behind `rtsync study`, each with the flags it takes
/// beyond the common `--smoke`, `--seed`, `--threads` and `--out`.
const STUDIES: [(&str, &[&str]); 6] = [
    (
        "chaos",
        &["--runs", "--transport", "--telemetry", "--window"],
    ),
    ("transport", &[]),
    ("sync", &[]),
    ("adversary", &["--runs"]),
    ("gray", &["--runs"]),
    ("admit", &[]),
];

/// Parsed `rtsync study` flags; each study reads the ones it accepts.
#[derive(Default)]
struct StudyArgs {
    smoke: bool,
    runs: Option<usize>,
    seed: Option<u64>,
    threads: Option<usize>,
    out: Option<String>,
    transport: bool,
    telemetry: Option<String>,
    window: Option<i64>,
}

fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = it.next().ok_or(format!("{flag} needs a value"))?;
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn cmd_study(args: &[String]) -> Result<(), String> {
    let requested = args.first().map_or("", String::as_str);
    let Some(&(name, extra)) = STUDIES.iter().find(|(name, _)| *name == requested) else {
        let names: Vec<&str> = STUDIES.iter().map(|(name, _)| *name).collect();
        return Err(format!(
            "unknown study `{requested}`: expected one of {}",
            names.join(", ")
        ));
    };
    let mut a = StudyArgs::default();
    let mut it = args[1..].iter();
    while let Some(arg) = it.next() {
        let flag = arg.as_str();
        if !["--smoke", "--seed", "--threads", "--out"].contains(&flag) && !extra.contains(&flag) {
            return Err(format!("study {name} does not accept `{flag}`"));
        }
        match flag {
            "--smoke" => a.smoke = true,
            "--transport" => a.transport = true,
            "--runs" => a.runs = Some(flag_value(&mut it, flag)?),
            "--seed" => a.seed = Some(flag_value(&mut it, flag)?),
            "--threads" => a.threads = Some(flag_value::<usize>(&mut it, flag)?.max(1)),
            "--out" => a.out = Some(flag_value(&mut it, flag)?),
            "--telemetry" => a.telemetry = Some(flag_value(&mut it, flag)?),
            _ => a.window = Some(flag_value(&mut it, flag)?),
        }
    }
    match name {
        "chaos" => study_chaos(&a),
        "transport" => study_transport(&a),
        "sync" => study_sync(&a),
        "adversary" => study_adversary(&a),
        "gray" => study_gray(&a),
        _ => study_admit(&a),
    }
}

/// Writes each `(file name, contents)` pair under `dir`, creating it, and
/// reports the paths on stderr. Does nothing without a directory.
fn write_files(dir: Option<&str>, files: &[(&str, &str)]) -> Result<(), String> {
    let Some(dir) = dir else {
        return Ok(());
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    let mut paths = Vec::new();
    for (name, contents) in files {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, contents).map_err(|e| format!("writing {path}: {e}"))?;
        paths.push(path);
    }
    eprintln!("wrote {}", paths.join(" and "));
    Ok(())
}

fn study_chaos(a: &StudyArgs) -> Result<(), String> {
    use rtsync::experiments::chaos::{
        render, repro_bundle, run_chaos, runs_csv, to_csv, worst_case_telemetry, ChaosConfig,
    };
    if a.window.is_some_and(|w| w <= 0) {
        return Err("--window must be positive".to_string());
    }
    let mut cfg = if a.smoke {
        ChaosConfig::smoke()
    } else {
        ChaosConfig::default()
    };
    if let Some(total) = a.runs {
        cfg.runs_per_cell = runs_per_cell(total, cfg.cells());
    }
    cfg.transport = a.transport;
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);

    eprintln!(
        "chaos campaign: {} runs ({} protocols x {} crash rates x {} runs/cell), seed {:#x}{}",
        cfg.total_runs(),
        cfg.protocols.len(),
        cfg.mean_uptimes.len(),
        cfg.runs_per_cell,
        cfg.seed,
        if cfg.transport {
            ", endpoint transport + failure detector attached"
        } else {
            ""
        }
    );
    let outcome = run_chaos(&cfg);
    print!("{}", render(&outcome));
    write_files(
        a.out.as_deref(),
        &[
            ("chaos_summary.csv", &to_csv(&outcome)),
            ("chaos_runs.csv", &runs_csv(&outcome)),
        ],
    )?;

    if let Some(path) = &a.telemetry {
        match worst_case_telemetry(&cfg, &outcome, a.window.map(Dur::from_ticks)) {
            Some((v, report)) => {
                std::fs::write(path, report.to_csv())
                    .map_err(|e| format!("writing {path}: {e}"))?;
                eprintln!(
                    "wrote {path}: worst run replayed under telemetry ({} windows x {} ticks; \
                     {} {:?}, system seed {:#x}, fault seed {:#x}: {} missed, {} lost, {} crashes)",
                    report.windows.len(),
                    report.width.ticks(),
                    v.protocol.tag(),
                    v.policy,
                    v.system_seed,
                    v.fault_seed,
                    v.missed,
                    v.lost,
                    v.crashes
                );
            }
            None => eprintln!("no chaos runs to capture telemetry from"),
        }
    }

    if !outcome.is_clean() {
        let dir = a.out.clone().unwrap_or_else(|| ".".to_string());
        for (i, failure) in outcome.failures.iter().enumerate() {
            let bundle = repro_bundle(&cfg, failure);
            write_files(
                Some(&dir),
                &[
                    (&format!("chaos_repro_{i}.txt"), &bundle.summary),
                    (&format!("chaos_repro_{i}.jsonl"), &bundle.jsonl),
                    (
                        &format!("chaos_repro_{i}.perfetto.json"),
                        &bundle.perfetto_json,
                    ),
                ],
            )?;
            eprint!("{}", bundle.summary);
        }
        return Err(format!(
            "{} of {} chaos runs violated invariants; repro bundles written to {dir}/",
            outcome.failures.len(),
            outcome.verdicts.len()
        ));
    }
    Ok(())
}

fn study_transport(a: &StudyArgs) -> Result<(), String> {
    use rtsync::experiments::transport::{
        grid_csv, render, run_transport_study, summary_csv, TransportStudyConfig,
    };
    let mut cfg = if a.smoke {
        TransportStudyConfig::smoke()
    } else {
        TransportStudyConfig::default()
    };
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);

    eprintln!(
        "transport study: {} grid runs + {} detector runs, seed {:#x}",
        cfg.total_grid_runs(),
        cfg.protocols.len() * cfg.detector_runs,
        cfg.seed
    );
    let outcome = run_transport_study(&cfg);
    print!("{}", render(&outcome));
    write_files(
        a.out.as_deref(),
        &[
            ("transport_grid.csv", &grid_csv(&outcome)),
            ("transport_summary.csv", &summary_csv(&outcome)),
        ],
    )?;
    if !outcome.is_clean() {
        return Err(
            "transport study saw abandoned frames, lost signals, or stalled runs".to_string(),
        );
    }
    Ok(())
}

fn study_sync(a: &StudyArgs) -> Result<(), String> {
    use rtsync::experiments::sync::{
        grid_csv, render, run_sync_study, summary_csv, SyncStudyConfig,
    };
    let mut cfg = if a.smoke {
        SyncStudyConfig::smoke()
    } else {
        SyncStudyConfig::default()
    };
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);

    eprintln!(
        "sync study: {} runs over {} drift x latency cells, seed {:#x}",
        cfg.total_runs(),
        cfg.drift_ppm_values.len() * cfg.latency_values.len(),
        cfg.seed
    );
    let outcome = run_sync_study(&cfg);
    print!("{}", render(&outcome));
    write_files(
        a.out.as_deref(),
        &[
            ("sync_grid.csv", &grid_csv(&outcome)),
            ("sync_summary.csv", &summary_csv(&outcome)),
        ],
    )
}

fn study_adversary(a: &StudyArgs) -> Result<(), String> {
    use rtsync::experiments::adversary::{
        grid_csv, render, run_adversary, summary_csv, AdversaryConfig,
    };
    let mut cfg = if a.smoke {
        AdversaryConfig::smoke()
    } else {
        AdversaryConfig::default()
    };
    if let Some(total) = a.runs {
        cfg.runs_per_cell = runs_per_cell(total, cfg.cells());
    }
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);

    eprintln!(
        "adversary campaign: {} runs ({} liar levels x {} partition spans x \
         {} asymmetry biases x {} runs/cell), seed {:#x}",
        cfg.total_runs(),
        cfg.liar_counts.len(),
        cfg.partition_spans.len(),
        cfg.asym_biases.len(),
        cfg.runs_per_cell,
        cfg.seed
    );
    let outcome = run_adversary(&cfg);
    print!("{}", render(&outcome));
    write_files(
        a.out.as_deref(),
        &[
            ("adversary_grid.csv", &grid_csv(&outcome)),
            ("adversary_summary.csv", &summary_csv(&outcome)),
        ],
    )?;
    if !outcome.is_clean() {
        return Err(format!(
            "{} of {} adversarial runs violated an armed invariant or stalled",
            outcome.failures().len(),
            outcome.verdicts.len()
        ));
    }
    Ok(())
}

fn study_gray(a: &StudyArgs) -> Result<(), String> {
    use rtsync::experiments::gray::{grid_csv, render, run_gray, summary_csv, GrayStudyConfig};
    let mut cfg = if a.smoke {
        GrayStudyConfig::smoke()
    } else {
        GrayStudyConfig::default()
    };
    if let Some(total) = a.runs {
        cfg.runs_per_cell = runs_per_cell(total, cfg.cells());
    }
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);

    eprintln!(
        "gray campaign: {} runs ({} slow factors x {} stall spans x \
         {} link drops x {} runs/cell), seed {:#x}",
        cfg.total_runs(),
        cfg.slow_factors.len(),
        cfg.stall_spans.len(),
        cfg.link_drops.len(),
        cfg.runs_per_cell,
        cfg.seed
    );
    let outcome = run_gray(&cfg);
    print!("{}", render(&outcome));
    write_files(
        a.out.as_deref(),
        &[
            ("gray_grid.csv", &grid_csv(&outcome)),
            ("gray_summary.csv", &summary_csv(&outcome)),
        ],
    )?;
    if !outcome.is_clean() {
        return Err(format!(
            "{} of {} gray runs violated a clock-independent safety invariant",
            outcome.failures().len(),
            outcome.verdicts.len()
        ));
    }
    if !outcome.adaptive_dominates() {
        return Err(
            "the adaptive detector failed to dominate the fixed cliff on false deads \
             in a slowdown-only cell"
                .to_string(),
        );
    }
    Ok(())
}

fn study_admit(a: &StudyArgs) -> Result<(), String> {
    use rtsync::experiments::admit::{
        grid_csv, render, run_admit_study, summary_csv, AdmitStudyConfig,
    };
    let mut cfg = if a.smoke {
        AdmitStudyConfig::smoke()
    } else {
        AdmitStudyConfig::default()
    };
    cfg.seed = a.seed.unwrap_or(cfg.seed);
    cfg.threads = a.threads.unwrap_or(cfg.threads);

    eprintln!(
        "admission study: {} runs over {} shape x mode cells, seed {:#x}",
        cfg.total_runs(),
        cfg.shapes.len() * cfg.modes.len(),
        cfg.seed
    );
    let outcome = run_admit_study(&cfg);
    print!("{}", render(&outcome));
    write_files(
        a.out.as_deref(),
        &[
            ("admit_grid.csv", &grid_csv(&outcome)),
            ("admit_summary.csv", &summary_csv(&outcome)),
        ],
    )?;
    if !outcome.is_clean() {
        return Err(
            "memoized and from-scratch admission verdicts disagreed on some operation".to_string(),
        );
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    use rtsync::bench::compare::{compare, parse_baseline, Tolerances};
    use rtsync::bench::run_suite_opts;
    use rtsync::sim::EngineProfile;
    let mut json = false;
    let mut smoke = false;
    let mut profile = false;
    let mut out: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tol_specs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--smoke" => smoke = true,
            "--profile" => profile = true,
            "--out" => out = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--compare" => {
                baseline_path = Some(it.next().ok_or("--compare needs a value")?.clone())
            }
            "--tolerance" => tol_specs.push(it.next().ok_or("--tolerance needs a value")?.clone()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    // A global fraction replaces the default; `scenario=FRAC` overrides
    // it per scenario. Apply globals first so order on the command line
    // doesn't matter.
    let parse_frac = |spec: &str, text: &str| -> Result<f64, String> {
        let frac: f64 = text
            .parse()
            .map_err(|e| format!("--tolerance {spec}: {e}"))?;
        if !frac.is_finite() || frac < 0.0 {
            return Err(format!("--tolerance {spec}: must be a fraction >= 0"));
        }
        Ok(frac)
    };
    let mut tol = Tolerances::default();
    for spec in tol_specs.iter().filter(|s| !s.contains('=')) {
        tol = Tolerances::uniform(parse_frac(spec, spec)?);
    }
    for spec in tol_specs.iter().filter(|s| s.contains('=')) {
        let (scenario, frac) = spec.split_once('=').expect("filtered on '='");
        tol = tol.with_scenario(scenario, parse_frac(spec, frac)?);
    }
    if !tol_specs.is_empty() && baseline_path.is_none() {
        return Err("--tolerance only means something with --compare".to_string());
    }

    eprintln!(
        "bench suite: every protocol x {{ideal, nonideal, sync, partition, faults_transport, \
         gray, admit}}{}",
        if smoke {
            " (smoke: reduced workload, numbers are a crash canary only)"
        } else {
            ""
        }
    );
    let report = run_suite_opts(smoke, profile);

    if json {
        let path = out.unwrap_or_else(|| "BENCH_sim.json".to_string());
        std::fs::write(&path, report.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path} ({} cells)", report.results.len());
    } else {
        println!(
            "{:<6}{:<18}{:>14}{:>12}{:>14}{:>14}",
            "proto", "scenario", "events/iter", "iters", "events/sec", "best ev/sec"
        );
        for r in &report.results {
            println!(
                "{:<6}{:<18}{:>14}{:>12}{:>14.0}{:>14.0}",
                r.protocol,
                r.scenario,
                r.events_per_iter,
                r.iterations,
                r.events_per_sec,
                r.best_events_per_sec
            );
        }
    }
    if profile {
        // One profiled run per cell; merge them per scenario so the
        // table shows where each workload shape spends its time.
        let mut merged: Vec<(String, EngineProfile)> = Vec::new();
        for r in &report.results {
            if let Some(p) = &r.profile {
                match merged.iter_mut().find(|(s, _)| *s == r.scenario) {
                    Some((_, acc)) => acc.merge(p),
                    None => merged.push((r.scenario.to_string(), p.clone())),
                }
            }
        }
        println!("\nengine self-profile (one extra profiled run per cell, merged per scenario):");
        for (scenario, prof) in &merged {
            println!("[{scenario}]");
            print!("{}", prof.render_table());
        }
    }
    if let Some(path) = &baseline_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let baseline = parse_baseline(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let cmp = compare(&report, &baseline, &tol);
        print!("{}", cmp.render());
        if !cmp.is_clean() {
            return Err(format!(
                "{} cell(s) regressed past tolerance vs {path}",
                cmp.regressions().count()
            ));
        }
    }
    Ok(())
}
