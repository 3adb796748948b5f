//! Exact distribution of the discrete scan statistic for small windows.
//!
//! A sliding-window bitmask dynamic program: the state after trial `t` is
//! the outcome pattern of the last `w` trials (a `w`-bit mask). Any state
//! whose popcount reaches `k` transitions to an absorbing "hit" state. The
//! probability mass remaining outside the hit state after `N` trials is
//! `P(S_w(N) < k)`.
//!
//! Cost is `O(N · 2^w)`, so this is only practical for `w ≲ 18` — which is
//! exactly its purpose: a ground-truth oracle against which the test-suite
//! validates the Naus closed-form approximation (`crate::naus`).

/// Exact `P(S_w(N) ≥ k)` for i.i.d. Bernoulli(p) trials.
///
/// # Panics
/// If `w > 20` (state space would exceed ~1M) or `w == 0` or `N < w`.
pub fn scan_tail_exact(k: u64, p: f64, w: u32, n: u64) -> f64 {
    scan_tail_exact_markov(k, p, p, w, n)
}

/// Exact `P(S_w(N) ≥ k)` for first-order Markov-dependent Bernoulli trials.
///
/// The chain starts from its stationary distribution; `p01` is the success
/// probability after a failure, `p11` after a success. With `p01 == p11`
/// this reduces to the i.i.d. case.
pub fn scan_tail_exact_markov(k: u64, p01: f64, p11: f64, w: u32, n: u64) -> f64 {
    assert!(w > 0 && w <= 20, "exact DP supports 1 <= w <= 20, got {w}");
    assert!(n >= w as u64, "need at least one full window (n >= w)");
    assert!((0.0..=1.0).contains(&p01) && (0.0..=1.0).contains(&p11));
    if k == 0 {
        return 1.0;
    }
    if k > w as u64 {
        return 0.0;
    }

    let states = 1usize << w;
    let mask = states - 1;
    // dist[s] = probability the last w trial outcomes equal bit pattern s
    // (bit 0 = most recent trial) and no window so far reached k successes.
    let mut dist = vec![0.0f64; states];
    let mut next = vec![0.0f64; states];
    let mut hit = 0.0f64;

    // Stationary success probability pi1 = p01 / (1 - p11 + p01).
    let denom = 1.0 - p11 + p01;
    let pi1 = if denom.abs() < 1e-15 {
        0.5
    } else {
        p01 / denom
    };

    // Seed the first w trials one at a time, tracking the partial window.
    // Pattern bit layout: bit i = outcome of the trial i steps back.
    dist[0] = 1.0 - pi1;
    dist[1] = pi1;
    let mut filled = 1u32;
    while filled < w {
        next.iter_mut().for_each(|x| *x = 0.0);
        for (s, &pr) in dist.iter().enumerate() {
            if pr <= 0.0 {
                continue;
            }
            let p_succ = if s & 1 == 1 { p11 } else { p01 };
            let grown0 = s << 1;
            let grown1 = (s << 1) | 1;
            next[grown0 & mask] += pr * (1.0 - p_succ);
            next[grown1 & mask] += pr * p_succ;
        }
        std::mem::swap(&mut dist, &mut next);
        filled += 1;
    }
    // First full window observed: absorb states already at k successes.
    for (s, mass) in dist.iter_mut().enumerate().take(states) {
        if (s as u32).count_ones() as u64 >= k && *mass > 0.0 {
            hit += *mass;
            *mass = 0.0;
        }
    }

    // Remaining trials slide the window by one each step.
    for _ in w as u64..n {
        next.iter_mut().for_each(|x| *x = 0.0);
        for (s, &pr) in dist.iter().enumerate() {
            if pr <= 0.0 {
                continue;
            }
            let p_succ = if s & 1 == 1 { p11 } else { p01 };
            for (bit, pp) in [(0usize, 1.0 - p_succ), (1, p_succ)] {
                if pp <= 0.0 {
                    continue;
                }
                let ns = ((s << 1) | bit) & mask;
                if (ns as u32).count_ones() as u64 >= k {
                    hit += pr * pp;
                } else {
                    next[ns] += pr * pp;
                }
            }
        }
        std::mem::swap(&mut dist, &mut next);
    }
    hit.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_equals_n_reduces_to_binomial_tail() {
        // With N = w there is exactly one window: P(S >= k) = P(Bin(w,p) >= k).
        let (w, p) = (8u32, 0.3);
        for k in 1..=8u64 {
            let exact = scan_tail_exact(k, p, w, w as u64);
            let bin_tail: f64 = (k..=w as u64)
                .map(|i| crate::binomial::pmf(i, w as u64, p))
                .sum();
            assert!(
                (exact - bin_tail).abs() < 1e-10,
                "k={k}: {exact} vs {bin_tail}"
            );
        }
    }

    #[test]
    fn k_one_is_any_success() {
        // P(S_w(N) >= 1) = 1 - (1-p)^N.
        let (w, p, n) = (5u32, 0.1, 40u64);
        let exact = scan_tail_exact(1, p, w, n);
        let expect = 1.0 - (1.0f64 - p).powi(n as i32);
        assert!((exact - expect).abs() < 1e-10);
    }

    #[test]
    fn k_equals_w_is_run_of_w_successes() {
        // Small enough to verify against brute force over all outcomes.
        let (w, p, n) = (3u32, 0.4, 6u64);
        let mut brute = 0.0;
        for outcome in 0u32..(1 << n) {
            let mut prob = 1.0;
            for t in 0..n {
                prob *= if outcome >> t & 1 == 1 { p } else { 1.0 - p };
            }
            let mut max_run_window = 0;
            for start in 0..=(n - w as u64) {
                let mut cnt = 0;
                for t in start..start + w as u64 {
                    cnt += (outcome >> t & 1) as u64;
                }
                max_run_window = max_run_window.max(cnt);
            }
            if max_run_window >= w as u64 {
                brute += prob;
            }
        }
        let exact = scan_tail_exact(w as u64, p, w, n);
        assert!((exact - brute).abs() < 1e-10, "{exact} vs {brute}");
    }

    #[test]
    fn brute_force_grid_agreement() {
        // Full brute force over all 2^N outcomes for a grid of (w, k).
        let n = 10u64;
        let p = 0.25;
        for w in [3u32, 4, 5] {
            for k in 1..=w as u64 {
                let mut brute = 0.0;
                for outcome in 0u32..(1 << n) {
                    let mut prob = 1.0;
                    for t in 0..n {
                        prob *= if outcome >> t & 1 == 1 { p } else { 1.0 - p };
                    }
                    let mut s = 0;
                    for start in 0..=(n - w as u64) {
                        let mut cnt = 0;
                        for t in start..start + w as u64 {
                            cnt += (outcome >> t & 1) as u64;
                        }
                        s = s.max(cnt);
                    }
                    if s >= k {
                        brute += prob;
                    }
                }
                let exact = scan_tail_exact(k, p, w, n);
                assert!(
                    (exact - brute).abs() < 1e-9,
                    "w={w} k={k}: {exact} vs {brute}"
                );
            }
        }
    }

    #[test]
    fn markov_reduces_to_iid_when_probabilities_match() {
        let a = scan_tail_exact_markov(3, 0.2, 0.2, 6, 30);
        let b = scan_tail_exact(3, 0.2, 6, 30);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn positive_dependence_increases_burstiness() {
        // Sticky successes (p11 > p01) concentrate events, raising the
        // probability of a dense window at equal stationary rate.
        // Stationary rate: pi1 = p01/(1-p11+p01); pick pairs with pi1 = 0.2.
        let iid = scan_tail_exact_markov(4, 0.2, 0.2, 8, 64);
        // p11 = 0.6, want pi1 = 0.2 -> p01 = pi1(1-p11)/(1-pi1) = 0.1.
        let sticky = scan_tail_exact_markov(4, 0.1, 0.6, 8, 64);
        assert!(sticky > iid, "sticky={sticky} iid={iid}");
    }
}
