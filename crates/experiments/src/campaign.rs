//! The campaign kernel every study runs on: one deterministic worker
//! pool, one `cells × runs` grid with its seeding, one set of fold
//! helpers and one CSV writer.
//!
//! A study is its config, an `evaluate_run` over one [`Job`] and a fold
//! of each cell's results. Everything else lives here, once:
//!
//! * **Pool.** [`run_indexed`] evaluates jobs `0..count` on up to
//!   `threads` scoped workers that pull the next index from a shared
//!   counter. Slot `i` of the result always holds job `i`'s value, so the
//!   output is a pure function of the job list whatever the thread count
//!   or the schedule.
//! * **Grid.** [`run_grid`] expands `cells × runs` into jobs, seeds each
//!   through [`job_seed`] and hands the results back one `Vec` per cell.
//!   [`runs_per_cell`] turns a requested run total into a per-cell count.
//! * **Folds.** [`Tally`] and [`mean`] average with `NaN` for "no
//!   samples"; [`mean_inflation`], [`missed_and_measured`] and
//!   [`miss_or_loss_ratio`] are the per-run measures most studies share.
//! * **CSV.** [`Csv`] renders rows through columns declared once each,
//!   as a header name and a value, so the header and the rows cannot
//!   drift apart; [`fmt_f64`] is the one float format.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::seeding::job_seed;
use rtsync_sim::engine::SimOutcome;
use rtsync_sim::nonideal::eer_inflation;

/// Evaluates `f(0)`, …, `f(count - 1)` on up to `threads` worker threads
/// and returns the results in index order. Which worker runs which index
/// varies from run to run; the returned `Vec` does not.
pub fn run_indexed<T: Send>(count: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    // The counter only hands out indices; results travel through the mutex.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, count.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let result = f(i);
                results
                    .lock()
                    .expect("no worker panics while holding the lock")[i] = Some(result);
            });
        }
    });
    results
        .into_inner()
        .expect("every worker has joined")
        .into_iter()
        .map(|r| r.expect("every index was evaluated"))
        .collect()
}

/// One run of a campaign grid: where it sits and the seeds it draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Cell index, in the order the study listed its cells.
    pub cell: usize,
    /// Run index within the cell.
    pub run: usize,
    /// `job_seed(master, 0, run)`: equal across cells, so run `r` of every
    /// cell draws the same synthetic system and cells differ only in the
    /// conditions they impose.
    pub system_seed: u64,
    /// `job_seed(master, cell + 1, run)`: the run's condition streams
    /// (faults, clocks, channel, personas), distinct per cell.
    pub cond_seed: u64,
}

/// Evaluates every run of every cell on the pool and returns, per cell in
/// order, its `runs` results in run order. Deterministic for a given
/// `master` seed regardless of `threads`.
pub fn run_grid<C: Sync, T: Send>(
    master: u64,
    cells: &[C],
    runs: usize,
    threads: usize,
    eval: impl Fn(&C, Job) -> T + Sync,
) -> Vec<Vec<T>> {
    let mut results = run_indexed(cells.len() * runs, threads, |j| {
        let (cell, run) = (j / runs, j % runs);
        let job = Job {
            cell,
            run,
            system_seed: job_seed(master, 0, run),
            cond_seed: job_seed(master, cell + 1, run),
        };
        eval(&cells[cell], job)
    })
    .into_iter();
    cells
        .iter()
        .map(|_| results.by_ref().take(runs).collect())
        .collect()
}

/// Runs per cell for a campaign of `total` runs over `cells` cells: the
/// total rounded up so every cell runs equally often, and at least once.
pub fn runs_per_cell(total: usize, cells: usize) -> usize {
    total.div_ceil(cells.max(1)).max(1)
}

/// A running sum and count. Merging tallies adds their partial sums, so a
/// fold over systems sums in system order whatever the thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Sum of the samples.
    pub sum: f64,
    /// Number of samples.
    pub count: u64,
}

impl Tally {
    /// Adds another tally's samples.
    pub fn merge(&mut self, other: Tally) {
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The mean, `NaN` with no samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

impl FromIterator<f64> for Tally {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Tally {
        let mut tally = Tally::default();
        for v in values {
            tally.sum += v;
            tally.count += 1;
        }
        tally
    }
}

/// Mean of `values`, `NaN` when there are none.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().collect::<Tally>().mean()
}

/// The per-task EER inflation ratios of `observed` over `baseline`, for
/// the tasks that completed in both runs.
pub fn inflation_tally(baseline: &SimOutcome, observed: &SimOutcome) -> Tally {
    eer_inflation(&baseline.metrics, &observed.metrics)
        .into_iter()
        .flatten()
        .collect()
}

/// Mean per-task EER inflation of `observed` over `baseline`, `NaN` when
/// no task completed in both runs.
pub fn mean_inflation(baseline: &SimOutcome, observed: &SimOutcome) -> f64 {
    inflation_tally(baseline, observed).mean()
}

/// End-to-end `(deadline misses, measured instances)` summed over tasks.
pub fn missed_and_measured(out: &SimOutcome) -> (u64, u64) {
    out.metrics
        .tasks()
        .iter()
        .fold((0, 0), |(missed, measured), t| {
            (missed + t.deadline_misses(), measured + t.measured())
        })
}

/// `(missed + lost) / (measured + lost)`: the paper's miss rate extended
/// to count lost instances as misses; `NaN` with no instances.
pub fn miss_or_loss_ratio(missed: u64, lost: u64, measured: u64) -> f64 {
    if measured + lost == 0 {
        f64::NAN
    } else {
        (missed + lost) as f64 / (measured + lost) as f64
    }
}

/// The campaigns' float format: four decimals, `NaN` for any non-finite
/// value.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        String::from("NaN")
    }
}

/// A CSV table over borrowed rows, declared column by column. Each
/// column is declared once, as a header name and the value a row renders
/// into it, so the header and the rows cannot drift apart.
pub struct Csv<'a, R> {
    rows: &'a [R],
    columns: Vec<Column<'a, R>>,
}

/// One column of a [`Csv`]: its header name and how a row renders into it.
type Column<'a, R> = (&'static str, Box<dyn Fn(&R) -> String + 'a>);

impl<'a, R> Csv<'a, R> {
    /// A table over `rows`, with no columns yet.
    pub fn new(rows: &'a [R]) -> Csv<'a, R> {
        Csv {
            rows,
            columns: Vec::new(),
        }
    }

    /// Adds a column rendering `value(row)` through `Display`.
    pub fn col<V: std::fmt::Display>(
        mut self,
        name: &'static str,
        value: impl Fn(&R) -> V + 'a,
    ) -> Csv<'a, R> {
        self.columns
            .push((name, Box::new(move |row| value(row).to_string())));
        self
    }

    /// Adds a float column in the campaigns' format, [`fmt_f64`].
    pub fn float(self, name: &'static str, value: impl Fn(&R) -> f64 + 'a) -> Csv<'a, R> {
        self.col(name, move |row| fmt_f64(value(row)))
    }

    /// The header line, then one line per row with one field per column.
    pub fn render(self) -> String {
        let mut out = self
            .columns
            .iter()
            .map(|&(name, _)| name)
            .collect::<Vec<_>>()
            .join(",");
        out.push('\n');
        for row in self.rows {
            let fields: Vec<String> = self.columns.iter().map(|(_, value)| value(row)).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_returns_results_in_index_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            for count in [0, 1, 2, 5, 37] {
                let squares = run_indexed(count, threads, |i| i * i);
                let expected: Vec<usize> = (0..count).map(|i| i * i).collect();
                assert_eq!(squares, expected, "threads {threads}, count {count}");
            }
        }
        // More threads than jobs, and a zero thread count, still run
        // every job exactly once.
        assert_eq!(run_indexed(2, 8, |i| i), vec![0, 1]);
        assert_eq!(run_indexed(3, 0, |i| i), vec![0, 1, 2]);
        assert!(run_indexed(0, 8, |i| i).is_empty());
    }

    #[test]
    fn grid_is_cell_major_and_seeds_through_job_seed() {
        let cells = ['a', 'b', 'c'];
        for threads in [1, 2, 3, 8] {
            let grid = run_grid(7, &cells, 2, threads, |&c, job| (c, job));
            assert_eq!(grid.len(), 3);
            for (c, runs) in grid.iter().enumerate() {
                assert_eq!(runs.len(), 2);
                for (r, &(label, job)) in runs.iter().enumerate() {
                    assert_eq!(label, cells[c]);
                    assert_eq!((job.cell, job.run), (c, r));
                    assert_eq!(job.system_seed, job_seed(7, 0, r));
                    assert_eq!(job.cond_seed, job_seed(7, c + 1, r));
                }
            }
        }
        let empty = run_grid(7, &cells, 0, 2, |_, job| job);
        assert_eq!(empty, vec![Vec::new(), Vec::new(), Vec::new()]);
    }

    #[test]
    fn runs_per_cell_rounds_up_to_whole_cells() {
        assert_eq!(runs_per_cell(25, 12), 3);
        assert_eq!(runs_per_cell(24, 12), 2);
        assert_eq!(runs_per_cell(0, 12), 1);
        assert_eq!(runs_per_cell(5, 0), 5);
    }

    #[test]
    fn means_are_nan_without_samples() {
        assert!(mean([]).is_nan());
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        let mut t: Tally = [1.0, 3.0].into_iter().collect();
        t.merge(Tally { sum: 5.0, count: 1 });
        assert_eq!(t.mean(), 3.0);
        assert!(miss_or_loss_ratio(0, 0, 0).is_nan());
        assert_eq!(miss_or_loss_ratio(1, 1, 3), 0.5);
    }

    #[test]
    fn csv_header_and_rows_have_equal_width() {
        let rows = [(1u64, 0.5f64), (2, f64::NAN), (3, f64::INFINITY)];
        let text = Csv::new(&rows)
            .col("id", |r| r.0)
            .float("ratio", |r| r.1)
            .col("twice", |r| 2 * r.0)
            .render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "id,ratio,twice");
        assert_eq!(lines[1], "1,0.5000,2");
        // Non-finite values render as `NaN`, exactly as every study's CSVs
        // always have.
        assert_eq!(lines[2], "2,NaN,4");
        assert_eq!(lines[3], "3,NaN,6");
        for line in &lines {
            assert_eq!(line.split(',').count(), 3, "{line}");
        }
        let empty: [(u64, f64); 0] = [];
        assert_eq!(Csv::new(&empty).col("id", |r| r.0).render(), "id\n");
    }
}
