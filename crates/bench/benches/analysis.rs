//! Benchmarks of the schedulability analyses: Algorithm SA/PM, Algorithm
//! SA/DS (Jacobi, per the paper's Figure 11) and the Gauss–Seidel ablation
//! from DESIGN.md, plus the busy-period fixed-point kernel.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rtsync_core::analysis::busy_period::{fixed_point, DemandTerm, FixedPointLimits};
use rtsync_core::analysis::sa_ds::{analyze_ds_with, SweepOrder};
use rtsync_core::analysis::sa_pm::analyze_pm;
use rtsync_core::analysis::AnalysisConfig;
use rtsync_core::task::TaskSet;
use rtsync_core::time::Dur;
use rtsync_workload::{generate, WorkloadSpec};

fn system(n: usize, u: f64, seed: u64) -> TaskSet {
    let mut rng = StdRng::seed_from_u64(seed);
    generate(&WorkloadSpec::paper(n, u), &mut rng).expect("paper spec generates")
}

fn bench_sa_pm(c: &mut Criterion) {
    let cfg = AnalysisConfig::default();
    let mut group = c.benchmark_group("sa_pm");
    group.sample_size(20);
    for (n, u) in [(2, 0.5), (5, 0.7), (8, 0.9)] {
        let set = system(n, u, 42);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("n{n}_u{}", (u * 100.0) as u32)),
            &set,
            |b, set| b.iter(|| analyze_pm(black_box(set), &cfg).unwrap()),
        );
    }
    group.finish();
}

fn bench_sa_ds_sweep_orders(c: &mut Criterion) {
    // The DESIGN.md ablation: the literal Jacobi iteration of Figure 11
    // versus in-place Gauss–Seidel sweeps (same least fixed point).
    let cfg = AnalysisConfig::default();
    let mut group = c.benchmark_group("sa_ds");
    group.sample_size(20);
    for (n, u) in [(2, 0.5), (4, 0.6), (5, 0.7)] {
        let set = system(n, u, 42);
        for (label, order) in [
            ("jacobi", SweepOrder::Jacobi),
            ("gauss_seidel", SweepOrder::GaussSeidel),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("n{n}_u{}", (u * 100.0) as u32)),
                &set,
                |b, set| b.iter(|| analyze_ds_with(black_box(set), &cfg, order).unwrap()),
            );
        }
    }
    group.finish();
}

fn bench_sa_ds_failure_path(c: &mut Criterion) {
    // How fast the failure criterion fires on a hostile configuration.
    // Failing systems are most of SA/DS time at high (N, U): on the
    // 210-system `paper_study` pools of seeds 3 and 11 they take 50% and
    // 85% of it. The incremental sweeps sped converging systems up about
    // 3× but failing ones only about 1.5×; before, their shares were 33%
    // and 74%.
    let cfg = AnalysisConfig::default();
    let mut group = c.benchmark_group("sa_ds_failure");
    group.sample_size(10);
    // Find a failing seed at (8, 90) once, outside the hot loop.
    let set = (0..50)
        .map(|s| system(8, 0.9, s))
        .find(|set| analyze_ds_with(set, &cfg, SweepOrder::Jacobi).is_err())
        .expect("(8, 90) fails for most seeds");
    group.bench_function("n8_u90_first_failing_seed", |b| {
        b.iter(|| {
            let r = analyze_ds_with(black_box(&set), &cfg, SweepOrder::Jacobi);
            debug_assert!(r.is_err());
            r.is_err()
        })
    });
    group.finish();
}

fn bench_busy_period_kernel(c: &mut Criterion) {
    // The fixed-point solver on a representative interference stack.
    let terms: Vec<DemandTerm> = (1..=12)
        .map(|k| {
            DemandTerm::jittered(
                Dur::from_ticks(100_000 + 37_000 * k),
                Dur::from_ticks(5_000 + 700 * k),
                Dur::from_ticks(10_000 * (k % 4)),
            )
        })
        .collect();
    let limits = FixedPointLimits::new(Dur::from_ticks(1_000_000_000), 100_000);
    c.bench_function("busy_period_fixed_point", |b| {
        b.iter(|| fixed_point(black_box(Dur::from_ticks(9_000)), black_box(&terms), limits))
    });
}

criterion_group!(
    benches,
    bench_sa_pm,
    bench_sa_ds_sweep_orders,
    bench_sa_ds_failure_path,
    bench_busy_period_kernel
);
criterion_main!(benches);
