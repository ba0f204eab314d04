//! The rtsync benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_study|fault_campaign|admit_stream> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. `--trace 0` times the workload with no
//! instruments beyond the allocation counter and prints the end-to-end
//! metrics; `--trace 1` runs the traced variant and prints the
//! per-layer metrics. Either way the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `perfbench/README.md`.

mod admit_stream;
mod alloc;
mod calib;
mod fault_campaign;
mod metrics;
mod paper_study;
mod report;
mod sim_layer;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: rtsync-perfbench --workload <paper_study|fault_campaign|admit_stream> --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Writes the traced run's spans next to the build, as JSON lines.
pub fn write_spans(spans: &spans::Spans, args: &Args) {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    let path = dir
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper_study" => paper_study::run(&args),
        "fault_campaign" => fault_campaign::run(&args),
        "admit_stream" => admit_stream::run(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("{note}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
