//! # rtsync-experiments
//!
//! The reproduction harness for the evaluation of Sun & Liu (ICDCS 1996):
//!
//! * [`traces`] — the schedule-illustration figures (3, 5, 6, 7) replayed
//!   exactly on the paper's running examples;
//! * [`study`] — the §5 simulation study: synthetic systems per
//!   configuration `(N, U)`, analyzed with SA/PM and SA/DS and simulated
//!   under the DS, PM and RG protocols;
//! * [`figures`] — the mapping from study outcomes to Figures 12–16;
//! * [`robustness`] — the nonideal-conditions grid (clock drift ×
//!   signal latency) measuring the paper's §6 robustness claims;
//! * [`chaos`] — seeded crash/recovery campaigns checked against the
//!   protocol invariants, with failing runs minimized into repro bundles;
//! * [`transport`] — the endpoint-transport study: miss/loss ratio and
//!   EER inflation over drop rate × timeout × backoff, plus heartbeat
//!   failure-detector accuracy against a ground-truth crash schedule;
//! * [`sync`] — the clock-synchronization study: PM's EER inflation
//!   over drift × latency × sync-period, the achieved clock error, and
//!   the sync-accuracy threshold at which PM beats MPM/RG again;
//! * [`adversary`] — Byzantine timeservers × partitions × asymmetric
//!   links against the hardened sync layer's honesty promise;
//! * [`gray`] — slowdowns × stalls × degraded links, with a fixed and an
//!   adaptive φ-accrual failure detector over the same runs;
//! * [`admit`] — warm (memoized) versus cold admission-control
//!   throughput, with a verdict-agreement invariant;
//! * [`campaign`] — the kernel the §5 study and every campaign above run
//!   on: one deterministic worker pool, the `cells × runs` grid, fold
//!   helpers and the column-table CSV writer;
//! * [`seeding`] — the per-job and per-system seed mixers;
//! * [`grid`] — `(N, U)` result grids with CSV/ASCII rendering.
//!
//! The `reproduce` binary drives the figures and the robustness and sync
//! grids; `rtsync study <chaos|transport|sync|adversary|gray|admit>` runs
//! the campaigns:
//!
//! ```text
//! reproduce all --systems 1000 --out results/
//! reproduce fig12 fig13
//! reproduce fig7
//! rtsync study chaos --smoke --out results/
//! ```
//!
//! ```
//! use rtsync_experiments::study::{run_config, StudyConfig};
//!
//! let cfg = StudyConfig {
//!     systems_per_config: 2,
//!     instances_per_task: 5,
//!     ..StudyConfig::default()
//! };
//! let outcome = run_config(3, 0.6, &cfg);
//! assert_eq!(outcome.systems, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod admit;
pub mod adversary;
pub mod campaign;
pub mod chaos;
pub mod compare;
pub mod convergence;
pub mod exact;
pub mod figures;
pub mod gray;
pub mod grid;
pub mod robustness;
pub mod seeding;
pub mod study;
pub mod sync;
pub mod tightness;
pub mod traces;
pub mod transport;

pub use admit::{run_admit_study, AdmitCell, AdmitOutcome, AdmitStudyConfig, AdmitVerdict};
pub use adversary::{run_adversary, AdversaryCell, AdversaryConfig, AdversaryOutcome};
pub use chaos::{run_chaos, ChaosConfig, ChaosFailure, ChaosOutcome, ReproBundle};
pub use figures::{figure_grid, Figure};
pub use gray::{run_gray, GrayCell, GrayOutcome, GrayStudyConfig, GrayVerdict};
pub use grid::Grid;
pub use robustness::{run_robustness, RobustnessCell, RobustnessConfig};
pub use study::{run_config, run_study, ConfigOutcome, StudyConfig};
pub use sync::{run_sync_study, SyncStudyConfig, SyncStudyOutcome};
pub use traces::TraceFigure;
pub use transport::{run_transport_study, TransportOutcome, TransportStudyConfig};

/// Exit status of a command whose stdout reader went away (`… | head`):
/// the status a shell reports for a process killed by `SIGPIPE`, so a
/// truncated run never passes for a successful one.
pub const BROKEN_PIPE_EXIT: i32 = 141;

/// Ends the process with [`BROKEN_PIPE_EXIT`], silently, when `print!` or
/// `eprint!` panics because its reader closed the pipe. Every other panic
/// still reports as usual. Call once at the top of `main`.
pub fn exit_quietly_on_broken_pipe() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        if message.starts_with("failed printing to std") && message.contains("Broken pipe") {
            std::process::exit(BROKEN_PIPE_EXIT);
        }
        default(info);
    }));
}
