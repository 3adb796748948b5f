//! Numerically stable binomial probabilities.
//!
//! The Naus approximation evaluates binomial pmf values `b(k; w, p)` and cdf
//! values `F(k; w, p)` for window lengths up to a few hundred and background
//! probabilities as small as `1e-6`. Computing `C(w,k) p^k q^{w-k}` directly
//! under- and over-flows; everything here works in log space via a Lanczos
//! log-gamma.

/// Lanczos approximation of `ln Γ(x)` for `x > 0`.
///
/// Coefficients are the classic g=7, n=9 set; absolute error is below
/// `1e-13` over the domain used here, far below the Monte-Carlo noise floor
/// the test-suite validates against.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires a positive argument, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy for small arguments.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// `ln C(n, k)`; zero when `k == 0` or `k == n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose requires k <= n");
    if k == 0 || k == n {
        return 0.0;
    }
    ln_gamma(n as f64 + 1.0) - ln_gamma(k as f64 + 1.0) - ln_gamma((n - k) as f64 + 1.0)
}

/// Binomial pmf `b(k; n, p) = C(n,k) p^k (1-p)^{n-k}`.
///
/// Handles the boundary probabilities exactly: `p = 0` puts all mass on
/// `k = 0`, `p = 1` on `k = n`.
pub fn pmf(k: u64, n: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0,1], got {p}");
    if k > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln.exp()
}

/// Binomial cdf `F(k; n, p) = Σ_{i≤k} b(i; n, p)`.
///
/// `k` is signed so the Naus formulas can write `F(k-3)` without guarding:
/// negative arguments return `0`, arguments `≥ n` return `1`.
pub fn cdf(k: i64, n: u64, p: f64) -> f64 {
    if k < 0 {
        return 0.0;
    }
    let k = k as u64;
    if k >= n {
        return 1.0;
    }
    // Direct summation: n is a window length (tens to low hundreds) so the
    // loop is short, and summing ascending pmf terms is stable.
    let mut acc = 0.0;
    for i in 0..=k {
        acc += pmf(i, n, p);
    }
    acc.min(1.0)
}

/// Window lengths up to which [`quantile`] reads `ln Γ(i + 1)` from
/// [`ln_factorials`] instead of re-evaluating the Lanczos series.
const LN_FACTORIALS: usize = 512;

/// `ln Γ(i + 1)` for `i = 0..=LN_FACTORIALS`, built once per process from
/// the very [`ln_gamma`] calls [`ln_choose`] makes, so every entry is
/// bit-identical to the value it replaces.
fn ln_factorials() -> &'static [f64] {
    static TABLE: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        (0..=LN_FACTORIALS)
            .map(|i| ln_gamma(i as f64 + 1.0))
            .collect()
    })
}

/// The smallest `k` with `F(k; n, p) ≥ q` — the binomial quantile used by
/// the censored background estimators ("counts beyond the (1−α) noise
/// quantile are truncated to the quantile").
///
/// Every SVAQD background update reads it, through [`quantile_at_most`].
/// For `0 < p < 1` and
/// `n ≤ LN_FACTORIALS` each term is [`pmf`]'s own expression with its two
/// logarithms hoisted and its log-gammas read from a table — the same
/// floating-point operations in the same order, hence the same bits.
pub fn quantile(q: f64, n: u64, p: f64) -> u64 {
    quantile_at_most(q, n, p, n)
}

/// `quantile(q, n, p).min(limit)`, stopping the search at `k == limit`:
/// the same loop as [`quantile`], so every term it does sum is the same
/// bits. A caller that only needs the quantile up to a bound skips the
/// terms above it.
pub fn quantile_at_most(q: f64, n: u64, p: f64, limit: u64) -> u64 {
    assert!((0.0..=1.0).contains(&q));
    let table = (p > 0.0 && p < 1.0)
        .then(ln_factorials)
        .filter(|t| n < t.len() as u64);
    let (ln_p, ln_q) = (p.ln(), (1.0 - p).ln());
    let mut acc = 0.0;
    for k in 0..=n {
        if k == limit {
            return limit;
        }
        acc += match table {
            Some(ln_fact) => {
                let ln_choose = if k == 0 || k == n {
                    0.0
                } else {
                    ln_fact[n as usize] - ln_fact[k as usize] - ln_fact[(n - k) as usize]
                };
                (ln_choose + k as f64 * ln_p + (n - k) as f64 * ln_q).exp()
            }
            None => pmf(k, n, p),
        };
        if acc >= q {
            return k;
        }
    }
    n
}

/// Precomputed pmf and cdf tables for a fixed `(n, p)` — the Naus formulas
/// reference `b(·)` and `F(·)` many times, so the critical-value search
/// builds one of these per window configuration.
#[derive(Debug, Clone)]
pub struct BinomialTable {
    pmf: Vec<f64>,
    cdf: Vec<f64>,
    n: u64,
}

impl BinomialTable {
    /// Tabulate `b(k; n, p)` and `F(k; n, p)` for `k = 0..=n`.
    pub fn new(n: u64, p: f64) -> Self {
        let mut pmf_v = Vec::with_capacity(n as usize + 1);
        let mut cdf_v = Vec::with_capacity(n as usize + 1);
        let mut acc = 0.0;
        for k in 0..=n {
            let b = pmf(k, n, p);
            acc = (acc + b).min(1.0);
            pmf_v.push(b);
            cdf_v.push(acc);
        }
        Self {
            pmf: pmf_v,
            cdf: cdf_v,
            n,
        }
    }

    /// `b(k; n, p)`; zero outside `0..=n` (signed for formula convenience).
    pub fn pmf(&self, k: i64) -> f64 {
        if k < 0 || k > self.n as i64 {
            0.0
        } else {
            self.pmf[k as usize]
        }
    }

    /// `F(k; n, p)`; zero below 0, one at and above `n`.
    pub fn cdf(&self, k: i64) -> f64 {
        if k < 0 {
            0.0
        } else if k >= self.n as i64 {
            1.0
        } else {
            self.cdf[k as usize]
        }
    }

    /// The window length `n`.
    pub fn n(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n+1) = n!
        let facts: [f64; 8] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0, 5040.0];
        for (n, f) in facts.iter().enumerate() {
            assert!(
                (ln_gamma(n as f64 + 1.0) - f.ln()).abs() < 1e-10,
                "ln_gamma({}) mismatch",
                n + 1
            );
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi).
        let expect = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expect).abs() < 1e-10);
    }

    #[test]
    fn choose_small_cases() {
        assert!((ln_choose(5, 2).exp() - 10.0).abs() < 1e-9);
        assert!((ln_choose(10, 5).exp() - 252.0).abs() < 1e-9);
        assert_eq!(ln_choose(7, 0), 0.0);
        assert_eq!(ln_choose(7, 7), 0.0);
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(10u64, 0.3), (50, 0.01), (100, 0.5), (200, 1e-4)] {
            let total: f64 = (0..=n).map(|k| pmf(k, n, p)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn pmf_boundary_probabilities() {
        assert_eq!(pmf(0, 10, 0.0), 1.0);
        assert_eq!(pmf(1, 10, 0.0), 0.0);
        assert_eq!(pmf(10, 10, 1.0), 1.0);
        assert_eq!(pmf(9, 10, 1.0), 0.0);
        assert_eq!(pmf(11, 10, 0.5), 0.0);
    }

    #[test]
    fn pmf_matches_direct_computation() {
        // b(2; 4, 0.5) = 6/16.
        assert!((pmf(2, 4, 0.5) - 0.375).abs() < 1e-12);
        // b(1; 3, 0.2) = 3 * 0.2 * 0.64 = 0.384.
        assert!((pmf(1, 3, 0.2) - 0.384).abs() < 1e-12);
    }

    #[test]
    fn cdf_signed_boundaries() {
        assert_eq!(cdf(-1, 10, 0.3), 0.0);
        assert_eq!(cdf(10, 10, 0.3), 1.0);
        assert_eq!(cdf(99, 10, 0.3), 1.0);
        assert!((cdf(4, 10, 0.3) - (0..=4).map(|k| pmf(k, 10, 0.3)).sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn table_agrees_with_scalar_functions() {
        let t = BinomialTable::new(30, 0.07);
        for k in -2i64..=32 {
            assert!(
                (t.pmf(k)
                    - if (0..=30).contains(&k) {
                        pmf(k as u64, 30, 0.07)
                    } else {
                        0.0
                    })
                .abs()
                    < 1e-12
            );
            assert!((t.cdf(k) - cdf(k, 30, 0.07)).abs() < 1e-12);
        }
    }

    #[test]
    fn quantile_is_cdf_inverse() {
        for &(n, p) in &[(5u64, 0.05f64), (50, 0.12), (10, 0.5)] {
            for q in [0.5, 0.95, 0.99] {
                let k = quantile(q, n, p);
                assert!(cdf(k as i64, n, p) >= q);
                if k > 0 {
                    assert!(cdf(k as i64 - 1, n, p) < q);
                }
            }
        }
        assert_eq!(quantile(0.99, 5, 0.0), 0);
        assert_eq!(quantile(0.5, 5, 1.0), 5);
    }

    /// The pre-table [`quantile`]: a fresh [`pmf`] (three Lanczos
    /// log-gammas and two logarithms) per term. The reference the fast
    /// path must reproduce bit for bit.
    fn quantile_reference(q: f64, n: u64, p: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q));
        let mut acc = 0.0;
        for k in 0..=n {
            acc += pmf(k, n, p);
            if acc >= q {
                return k;
            }
        }
        n
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn quantile_equals_the_per_term_pmf_sum(n in 1u64..301, e in -12.0f64..0.0) {
            // p from 1e-12 up to 1 − 1e-12 on a log scale, plus both
            // boundaries (which take the untabled loop).
            for p in [10f64.powf(e), 1.0 - 10f64.powf(e), 0.0, 1.0] {
                for q in [0.5, 0.9, 0.99, 1.0] {
                    prop_assert_eq!(
                        quantile(q, n, p),
                        quantile_reference(q, n, p),
                        "n={} p={} q={}", n, p, q
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn quantile_at_most_is_the_capped_quantile(
            n in 1u64..301,
            e in -12.0f64..0.0,
            limit in 0u64..320,
        ) {
            for p in [10f64.powf(e), 1.0 - 10f64.powf(e), 0.0, 1.0] {
                for q in [0.5, 0.9, 0.99, 1.0] {
                    for limit in [limit, limit % (n + 1), n, n + 1] {
                        prop_assert_eq!(
                            quantile_at_most(q, n, p, limit),
                            quantile_reference(q, n, p).min(limit),
                            "n={} p={} q={} limit={}", n, p, q, limit
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quantile_falls_back_beyond_the_table() {
        for n in [LN_FACTORIALS as u64, LN_FACTORIALS as u64 + 1, 900] {
            for p in [1e-6, 0.03, 0.5] {
                assert_eq!(quantile(0.99, n, p), quantile_reference(0.99, n, p));
            }
        }
    }

    #[test]
    fn tiny_p_does_not_underflow_to_nan() {
        let t = BinomialTable::new(250, 1e-6);
        assert!(t.pmf(3).is_finite());
        assert!(t.cdf(3) > 0.0);
        assert!(t.cdf(250) == 1.0);
    }
}
