//! End-to-end tests of the `rtsync` CLI binary: real process invocations
//! over the text format, checking exit codes and output.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn rtsync() -> Command {
    // Integration tests run from the workspace root; cargo puts the binary
    // next to the test executable's profile directory.
    let mut path = PathBuf::from(env!("CARGO_BIN_EXE_rtsync"));
    if !path.exists() {
        path = PathBuf::from("target/debug/rtsync");
    }
    Command::new(path)
}

fn run(args: &[&str]) -> Output {
    rtsync().args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn example_check_analyze_simulate_pipeline() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("example2.rts");

    // 1. `example 2` prints the text format.
    let out = run(&["example", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("processors 2"));
    assert!(text.contains("task period=6 phase=4"));
    std::fs::write(&file, &text).unwrap();
    let file = file.to_str().unwrap();

    // 2. `check` validates and reports utilizations.
    let out = run(&["check", file]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("2 processors, 3 tasks, 4 subtasks"));
    assert!(text.contains("83.33%"));

    // 3. `analyze` under RG proves T2 schedulable; under DS it does not.
    let out = run(&["analyze", file, "--protocol", "rg"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("release guard"));
    let out = run(&["analyze", file, "--protocol", "ds"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("MISS"));

    // 4. `simulate` with a Gantt chart.
    let out = run(&[
        "simulate",
        file,
        "--protocol",
        "rg",
        "--instances",
        "10",
        "--gantt",
        "24",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("RG protocol:"));
    assert!(text.contains("avg EER"));
    assert!(text.contains("P0"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_input_reports_line_numbers() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bad.rts");
    std::fs::write(&file, "processors 1\nbogus nonsense\n").unwrap();

    let out = run(&["check", file.to_str().unwrap()]);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(err.contains("line 2"), "{err}");
    assert!(err.contains("unknown keyword"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_prints_usage_successfully() {
    for flag in ["--help", "-h", "help"] {
        let out = run(&[flag]);
        assert!(out.status.success(), "{flag}");
        assert!(stdout(&out).contains("usage"), "{flag}");
        assert!(stdout(&out).contains("compare"), "{flag}");
    }
}

#[test]
fn compare_command_runs() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-cmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();

    let out = run(&["compare", file.to_str().unwrap(), "--instances", "20"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("protocol comparison"), "{text}");
    assert!(text.contains("DS | PM | MPM | RG"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = run(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("usage"));
}

#[test]
fn missing_protocol_for_simulate() {
    let out = run(&["example", "1"]);
    let dir = std::env::temp_dir().join(format!("rtsync-cli-mp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex1.rts");
    std::fs::write(&file, stdout(&out)).unwrap();

    let out = run(&["simulate", file.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("requires --protocol"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sensitivity_reports_scaling_factors() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-sens-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();

    let out = run(&["sensitivity", file.to_str().unwrap()]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("critical scaling factor"), "{text}");
    // Example 2 is not provably schedulable as given: all factors < 1.0x.
    assert!(text.contains("0.666x"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exact_search_certifies_example2_bounds() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-exact-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();

    let out = run(&[
        "exact",
        file.to_str().unwrap(),
        "--steps",
        "0",
        "--instances",
        "12",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("worst observed 8 vs analyzed bound 8"),
        "{text}"
    );
    assert!(
        text.contains("worst observed 5 vs analyzed bound 5"),
        "{text}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_csv_export() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    let csv = dir.join("trace.csv");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();

    let out = run(&[
        "simulate",
        file.to_str().unwrap(),
        "--protocol",
        "ds",
        "--instances",
        "5",
        "--trace-csv",
        csv.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let content = std::fs::read_to_string(&csv).unwrap();
    assert!(content.starts_with("kind,processor,task,subtask,instance,start,end"));
    assert!(content.contains("\nrun,"), "{content}");
    assert!(content.contains("\ncomplete,"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_smoke_runs_clean_and_writes_csvs() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let out = run(&[
        "study",
        "chaos",
        "--smoke",
        "--runs",
        "12",
        "--seed",
        "3",
        "--threads",
        "4",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("chaos campaign"), "{text}");
    assert!(text.contains("0 failing"), "{text}");

    let summary = std::fs::read_to_string(dir.join("chaos_summary.csv")).unwrap();
    assert!(summary.starts_with("protocol,mean_uptime,runs,crashes"));
    // 4 protocols × 3 crash-rate levels.
    assert_eq!(summary.lines().count(), 1 + 12, "{summary}");
    let runs_csv = std::fs::read_to_string(dir.join("chaos_runs.csv")).unwrap();
    assert!(runs_csv.contains("fault_seed"), "{runs_csv}");
    assert!(runs_csv.lines().count() > 12);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sporadic_and_no_rule2_flags_accepted() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-sp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();
    let file = file.to_str().unwrap();

    let out = run(&[
        "simulate",
        file,
        "--protocol",
        "rg",
        "--instances",
        "20",
        "--sporadic",
        "3",
        "--seed",
        "5",
        "--no-rule2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("RG protocol:"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_study_fails_and_lists_the_studies() {
    let out = run(&["study", "bogus"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    for name in ["chaos", "transport", "sync", "adversary", "gray", "admit"] {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
}

#[test]
fn study_rejects_flags_it_does_not_take() {
    for (study, flag) in [
        ("sync", "--runs"),
        ("admit", "--transport"),
        ("gray", "--telemetry"),
    ] {
        let out = run(&["study", study, flag, "5"]);
        assert!(!out.status.success(), "{study} {flag}");
        let err = stderr(&out);
        assert!(
            err.contains(&format!("study {study} does not accept `{flag}`")),
            "{err}"
        );
    }
}

#[test]
fn closed_stdout_exits_quietly() {
    let dir = std::env::temp_dir().join(format!("rtsync-cli-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("ex2.rts");
    std::fs::write(&file, stdout(&run(&["example", "2"]))).unwrap();

    // Far more than a pipe buffer (64 KiB) of JSONL, so the writer is
    // still mid-output when the reader goes away, as under `| head`.
    let mut child = rtsync()
        .args([
            "trace",
            file.to_str().unwrap(),
            "--protocol",
            "rg",
            "--instances",
            "300",
            "--format",
            "jsonl",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut reader = child.stdout.take().unwrap();
    let mut head = [0u8; 1024];
    reader.read_exact(&mut head).unwrap();
    drop(reader);
    let out = child.wait_with_output().unwrap();
    let err = stderr(&out);
    assert!(!err.contains("panicked"), "{err}");
    assert!(!err.contains("Broken pipe"), "{err}");
    assert_eq!(out.status.code(), Some(141), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}
