//! Seeded Monte-Carlo estimation of the scan-statistic tail.
//!
//! Used by the test-suite as a second, approximation-free reference for
//! window lengths beyond the exact DP's reach.

/// Estimate `P(S_w(N) ≥ k)` for i.i.d. Bernoulli(p) trials by simulation.
///
/// `rng` supplies all randomness; runs are reproducible for a fixed seed.
/// The estimator's standard error is `sqrt(q(1-q)/runs)` for true tail `q`.
pub fn scan_tail_montecarlo(
    k: u64,
    p: f64,
    w: u32,
    n: u64,
    runs: u32,
    rng: &mut impl rand::Rng,
) -> f64 {
    assert!(w > 0 && n >= w as u64, "need n >= w >= 1");
    assert!((0.0..=1.0).contains(&p));
    if k == 0 {
        return 1.0;
    }
    if k > w as u64 {
        return 0.0;
    }
    let w = w as usize;
    let mut hits = 0u32;
    // Ring buffer of the last w outcomes; `count` is the window popcount.
    let mut ring = vec![false; w];
    for _ in 0..runs {
        ring.iter_mut().for_each(|b| *b = false);
        let mut count = 0u64;
        let mut hit = false;
        for t in 0..n as usize {
            let slot = t % w;
            if ring[slot] {
                count -= 1;
            }
            let success = rng.gen_bool(p);
            ring[slot] = success;
            if success {
                count += 1;
            }
            // Only a full window constitutes a scanning interval.
            if t + 1 >= w && count >= k {
                hit = true;
                break;
            }
        }
        hits += hit as u32;
    }
    hits as f64 / runs as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Three-sigma Monte-Carlo tolerance for `runs` samples.
    fn tol(q: f64, runs: u32) -> f64 {
        3.0 * (q * (1.0 - q) / runs as f64).sqrt() + 1e-3
    }

    #[test]
    fn matches_exact_dp_on_grid() {
        let mut rng = StdRng::seed_from_u64(7);
        let runs = 20_000;
        for &(k, p, w, n) in &[
            (2u64, 0.05f64, 10u32, 100u64),
            (3, 0.1, 10, 200),
            (4, 0.2, 12, 120),
            (5, 0.3, 8, 64),
        ] {
            let exact = crate::exact::scan_tail_exact(k, p, w, n);
            let mc = scan_tail_montecarlo(k, p, w, n, runs, &mut rng);
            assert!(
                (mc - exact).abs() <= tol(exact, runs),
                "k={k} p={p} w={w} n={n}: mc={mc} exact={exact}"
            );
        }
    }

    #[test]
    fn naus_approximation_agrees_with_simulation() {
        // The headline validation: the closed form used by the engine is
        // close to simulated truth across realistic parameters, including
        // clip-sized windows (w = 50) the exact DP cannot reach.
        let mut rng = StdRng::seed_from_u64(11);
        let runs = 20_000;
        for &(k, p, w, l) in &[
            (3u64, 0.01f64, 50u32, 20.0f64),
            (5, 0.02, 50, 40.0),
            (4, 0.05, 25, 30.0),
            (8, 0.1, 50, 10.0),
            (3, 0.005, 100, 10.0),
        ] {
            let n = (l * w as f64) as u64;
            let naus = crate::naus::scan_tail_probability(k, p, w, l);
            let mc = scan_tail_montecarlo(k, p, w, n, runs, &mut rng);
            // Naus is itself an approximation: allow MC noise plus a small
            // approximation budget.
            assert!(
                (mc - naus).abs() <= tol(naus.clamp(0.01, 0.99), runs) + 0.02,
                "k={k} p={p} w={w} l={l}: mc={mc} naus={naus}"
            );
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = scan_tail_montecarlo(3, 0.1, 10, 100, 5_000, &mut StdRng::seed_from_u64(3));
        let b = scan_tail_montecarlo(3, 0.1, 10, 100, 5_000, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(scan_tail_montecarlo(0, 0.5, 5, 20, 10, &mut rng), 1.0);
        assert_eq!(scan_tail_montecarlo(6, 0.5, 5, 20, 10, &mut rng), 0.0);
        assert_eq!(scan_tail_montecarlo(1, 0.0, 5, 20, 100, &mut rng), 0.0);
        assert_eq!(scan_tail_montecarlo(5, 1.0, 5, 20, 100, &mut rng), 1.0);
    }
}
