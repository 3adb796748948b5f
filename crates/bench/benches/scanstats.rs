//! Microbenchmarks of the statistical substrate: the Naus tail evaluation,
//! critical-value search (cold, memoised, and along an estimator's drift),
//! kernel estimator updates and the binomial quantile used by censored
//! feeding.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use svq_scanstats::{
    critical_value, scan_tail_probability, CriticalValueTable, KernelEstimator, ScanConfig,
};

fn bench_scan_tail(c: &mut Criterion) {
    c.bench_function("naus_tail_w50", |b| {
        b.iter(|| scan_tail_probability(black_box(12), black_box(0.05), 50, 200.0))
    });
    c.bench_function("naus_tail_w250", |b| {
        b.iter(|| scan_tail_probability(black_box(30), black_box(0.05), 250, 200.0))
    });
}

fn bench_critical_value(c: &mut Criterion) {
    c.bench_function("critical_value_w50_cold", |b| {
        b.iter(|| critical_value(black_box(0.05), 50, 200.0, 0.05))
    });
    c.bench_function("critical_value_w50_cached", |b| {
        let mut table = CriticalValueTable::new(ScanConfig::new(50, 200.0, 0.05));
        table.critical_value(0.05);
        b.iter(|| table.critical_value(black_box(0.0500001)))
    });
    // The lookups one SVAQD predicate makes: the estimates of a warm
    // estimator fed 50-frame clips, mostly quiet, a few with one or two
    // positive frames, each looked up once, in order.
    c.bench_function("critical_value_drifting", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        let mut est = KernelEstimator::new(20_000.0, 0.01);
        let mut feed = |est: &mut KernelEstimator| {
            let events = match rng.gen_range(0..100) {
                0..=69 => 0,
                70..=94 => 1,
                _ => 2,
            };
            est.observe_run(50, events);
            est.estimate()
        };
        for _ in 0..2_000 {
            feed(&mut est);
        }
        let ps: Vec<f64> = (0..4_096).map(|_| feed(&mut est)).collect();
        let mut table = CriticalValueTable::new(ScanConfig::new(50, 200.0, 0.05));
        for &p in &ps {
            table.critical_value(p);
        }
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % ps.len();
            table.critical_value(black_box(ps[i]))
        })
    });
}

fn bench_kernel(c: &mut Criterion) {
    c.bench_function("kernel_observe_clip_of_50", |b| {
        let mut est = KernelEstimator::new(20_000.0, 0.01);
        b.iter(|| black_box(&mut est).observe_run(black_box(50), black_box(7)))
    });
    // The same clip from the window's precomputed run constants, as SVAQD
    // steps its estimators.
    c.bench_function("kernel_observe_window_clip_of_50", |b| {
        let mut est = KernelEstimator::new(20_000.0, 0.01);
        let run = est.window_run(50);
        b.iter(|| black_box(&mut est).observe_window(&run, black_box(7)))
    });
    // The common feed: a clip with no positive unit.
    c.bench_function("kernel_observe_quiet_clip_of_50", |b| {
        let mut est = KernelEstimator::new(20_000.0, 0.01);
        b.iter(|| black_box(&mut est).observe_run(black_box(50), black_box(0)))
    });
    // A long-lived standing query: 2e7 quiet units in, past the point
    // where the prior's mass leaves the normal range.
    c.bench_function("kernel_observe_quiet_clip_of_50_after_2e7_units", |b| {
        let mut est = KernelEstimator::new(20_000.0, 0.01);
        for _ in 0..400_000 {
            est.observe_run(50, 0);
        }
        b.iter(|| black_box(&mut est).observe_run(black_box(50), black_box(0)))
    });
    c.bench_function("binomial_quantile_w50", |b| {
        b.iter(|| svq_scanstats::binomial::quantile(black_box(0.99), 50, black_box(0.05)))
    });
}

criterion_group!(benches, bench_scan_tail, bench_critical_value, bench_kernel);
criterion_main!(benches);
