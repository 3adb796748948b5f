//! Naus (1982) approximation of the discrete scan-statistic tail and the
//! critical-value machinery of the paper's Eq. 5.
//!
//! For `N = L·w` i.i.d. Bernoulli(p) trials, let `S_w(N)` be the maximum
//! number of successes in any window of `w` consecutive trials. The paper's
//! footnote 6 uses the classic approximation
//!
//! ```text
//! P(S_w(N) ≥ k)  ≈  1 − Q2 · (Q3 / Q2)^(L−2)
//! ```
//!
//! where `Q2 = P(S_w(2w) < k)` and `Q3 = P(S_w(3w) < k)` are *exact* and
//! given by Naus' closed forms in terms of the binomial pmf `b(·; w, p)` and
//! cdf `F(·; w, p)`:
//!
//! ```text
//! Q2 = F(k−1)² − (k−1)·b(k)·F(k−2) + w·p·b(k)·F(k−3)
//! Q3 = F(k−1)³ − A1 + A2 + A3 − A4
//! A1 = 2·b(k)·F(k−1)·[(k−1)·F(k−2) − w·p·F(k−3)]
//! A2 = ½·b(k)²·[(k−1)(k−2)·F(k−3) − 2(k−2)·w·p·F(k−4) + w²p²·F(k−5)]
//! A3 = Σ_{r=1}^{k−1} b(2k−r)·F(r−1)²
//! A4 = Σ_{r=2}^{k−1} b(2k−r)·b(r)·(r−1)·F(r−2)
//! ```
//!
//! The test-suite validates this implementation against an exact bitmask
//! DP and a Monte-Carlo estimator (the test-only `exact` and `montecarlo`
//! modules) over a grid of `(w, p, L, k)`.

use crate::binomial::BinomialTable;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Configuration of one scan-statistic test: window length `w` (the clip
/// length in occurrence units), horizon factor `L = N/w`, and significance
/// level `α`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScanConfig {
    /// Window length in occurrence units (frames for objects, shots for
    /// actions): the paper's `w`.
    pub window: u32,
    /// Number of windows in the reference horizon: the paper's `L = N/w`.
    /// SVAQ/SVAQD use the stream length observed so far (at least 2).
    pub horizon_windows: f64,
    /// Significance level `α` of Eq. 5.
    pub alpha: f64,
}

impl ScanConfig {
    /// Construct a validated configuration.
    pub fn new(window: u32, horizon_windows: f64, alpha: f64) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(
            horizon_windows >= 1.0,
            "horizon must cover at least one window"
        );
        assert!(
            (0.0..1.0).contains(&alpha) && alpha > 0.0,
            "alpha must be in (0,1)"
        );
        Self {
            window,
            horizon_windows,
            alpha,
        }
    }

    /// The default significance level used throughout the reproduction.
    pub const DEFAULT_ALPHA: f64 = 0.05;
}

/// `Q2 = P(S_w(2w) < k)`, exact (Naus 1982).
fn q2(k: u64, w: u64, p: f64, t: &BinomialTable) -> f64 {
    let k_i = k as i64;
    let f1 = t.cdf(k_i - 1);
    let bk = t.pmf(k_i);
    f1 * f1 - (k as f64 - 1.0) * bk * t.cdf(k_i - 2) + w as f64 * p * bk * t.cdf(k_i - 3)
}

/// `Q3 = P(S_w(3w) < k)`, exact (Naus 1982).
fn q3(k: u64, w: u64, p: f64, t: &BinomialTable) -> f64 {
    let k_i = k as i64;
    let kf = k as f64;
    let wp = w as f64 * p;
    let f1 = t.cdf(k_i - 1);
    let bk = t.pmf(k_i);

    let a1 = 2.0 * bk * f1 * ((kf - 1.0) * t.cdf(k_i - 2) - wp * t.cdf(k_i - 3));
    let a2 = 0.5
        * bk
        * bk
        * ((kf - 1.0) * (kf - 2.0) * t.cdf(k_i - 3) - 2.0 * (kf - 2.0) * wp * t.cdf(k_i - 4)
            + wp * wp * t.cdf(k_i - 5));
    let mut a3 = 0.0;
    for r in 1..k_i {
        let fr1 = t.cdf(r - 1);
        a3 += t.pmf(2 * k_i - r) * fr1 * fr1;
    }
    let mut a4 = 0.0;
    for r in 2..k_i {
        a4 += t.pmf(2 * k_i - r) * t.pmf(r) * (r as f64 - 1.0) * t.cdf(r - 2);
    }
    f1 * f1 * f1 - a1 + a2 + a3 - a4
}

/// `P(S_w(N) ≥ k | p, w, L)` via the Naus approximation.
///
/// Degenerate cases are handled exactly: `k = 0` always occurs (probability
/// 1); `k > w` can never occur (a window of `w` trials holds at most `w`
/// successes); `p ∈ {0, 1}` are deterministic.
pub fn scan_tail_probability(k: u64, p: f64, w: u32, horizon_windows: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must lie in [0,1]");
    assert!(w > 0, "window must be positive");
    let wu = w as u64;
    if k == 0 {
        return 1.0;
    }
    if k > wu {
        return 0.0;
    }
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 1.0 {
        return 1.0;
    }

    let table = BinomialTable::new(wu, p);
    let q2v = q2(k, wu, p, &table).clamp(0.0, 1.0);
    if q2v <= 0.0 {
        return 1.0;
    }
    let l = horizon_windows.max(2.0);
    let q3v = q3(k, wu, p, &table).clamp(0.0, q2v);
    let ratio = (q3v / q2v).clamp(0.0, 1.0);
    (1.0 - q2v * ratio.powf(l - 2.0)).clamp(0.0, 1.0)
}

/// The critical value of Eq. 5: the smallest `k` such that
/// `P(S_w(N) ≥ k | p, w, L) ≤ α`.
///
/// The tail probability is non-increasing in `k`, so a binary search over
/// `k ∈ [1, w]` finds the threshold in `O(log w)` tail evaluations. If even
/// `k = w` (every occurrence unit positive) is not significant at level `α`
/// — which happens when the background probability is high relative to the
/// window — the value is clamped to `w`, the strictest test the window
/// admits; SVAQD's dynamic background updates make this a transient state.
pub fn critical_value(p: f64, w: u32, horizon_windows: f64, alpha: f64) -> u32 {
    assert!(
        (0.0..1.0).contains(&alpha) && alpha > 0.0,
        "alpha must be in (0,1)"
    );
    let mut lo = 1u32; // candidate answers live in [lo, hi]
    let mut hi = w;
    if scan_tail_probability(w as u64, p, w, horizon_windows) > alpha {
        return w;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if scan_tail_probability(mid as u64, p, w, horizon_windows) <= alpha {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Quantisation step of the critical-value grid: 1% relative
/// (`ln 1.01 ≈ 0.00995`).
const GRID_LN_STEP: f64 = 0.00995;

/// Grid cells for `p ∈ [1e-12, 1]`: keys `-2777 ..= 0`.
const CELLS: usize = 2_778;

/// Scan configurations the process-wide registry shares a table for. A
/// table for a configuration past it owns a private array instead.
const REGISTRY_CAPACITY: usize = 64;

/// One configuration's resolved critical values, one slot per grid cell:
/// `0` while unresolved (a critical value is at least 1), the cell's
/// critical value once resolved.
type Cells = [AtomicU32; CELLS];

/// A registry key: `(w, L-bits, α-bits)`.
type ConfigKey = (u32, u64, u64);

/// The shared tables, at most [`REGISTRY_CAPACITY`] of them, never evicted.
/// Locked only by [`CriticalValueTable::new`].
static REGISTRY: Mutex<Vec<(ConfigKey, Arc<Cells>)>> = Mutex::new(Vec::new());

fn unresolved() -> Arc<Cells> {
    Arc::new(std::array::from_fn(|_| AtomicU32::new(0)))
}

/// Relative margin that pulls each cell's edges inward: far above the
/// rounding of `ln` and `exp` (a few ulps, ~1e-15 relative), so every `p`
/// between a cell's pulled-in edges has that cell as its `key`.
const EDGE_MARGIN: f64 = 1e-9;

/// Most cells a lookup walks from its hint before it falls back to `key`.
const WALK: usize = 8;

/// Per cell index `i = −cell`, the cell's edges `exp((cell ∓ ½)·step)`
/// pulled inward by [`EDGE_MARGIN`]: `[low, high]`. Built once per
/// process, 2 × 2 778 `f64`.
fn cell_edges() -> &'static [[f64; 2]; CELLS] {
    static EDGES: OnceLock<Box<[[f64; 2]; CELLS]>> = OnceLock::new();
    EDGES.get_or_init(|| {
        // Collected straight onto the heap: a 44 KB array built on the
        // stack first would stay resident there.
        let edges: Box<[[f64; 2]]> = (0..CELLS)
            .map(|i| {
                let cell = -(i as f64);
                [
                    ((cell - 0.5) * GRID_LN_STEP).exp() * (1.0 + EDGE_MARGIN),
                    ((cell + 0.5) * GRID_LN_STEP).exp() * (1.0 - EDGE_MARGIN),
                ]
            })
            .collect();
        edges.try_into().expect("one pair per cell")
    })
}

/// A memoised critical-value table: a handle to one dense array of
/// resolved critical values per scan configuration `(w, L, α)`.
///
/// SVAQD recomputes critical values every time a background probability is
/// refreshed (Algorithm 3, line 9). Probabilities are quantised onto a 1 %
/// log grid (2 778 cells over `[1e-12, 1]`; the quantisation is far below
/// the estimator's own noise) and each slot is evaluated at the *canonical
/// probability of its cell*, not the first probability that landed there,
/// so a resolved value is a pure function of `(w, L, α, cell)`.
///
/// That purity lets every table of one configuration share its array
/// through a process-wide registry: a cold Naus evaluation costs tens of
/// microseconds and a drifting background crosses dozens of cells per
/// stream, so without sharing every freshly built SVAQD run (one per
/// `stream` request) would re-pay the warm-up. A lookup finds its cell
/// and does one `Relaxed` load; a miss evaluates and stores the value.
/// Racing writers store the same value, and the slot publishes nothing
/// else, so no ordering is needed. The registry holds at most 64
/// configurations and never evicts; a table for any further configuration
/// resolves into a private array of its own, with the same values.
///
/// Finding the cell takes no logarithm when `p` stays near the last
/// lookup's, as an estimator's drifting background does: each table
/// keeps the cell of its last lookup as a hint and walks up to 8 cells
/// from it, comparing `p` with the cells' edges pulled inward by a 1e-9
/// relative margin (a process-wide array). A `p` inside a margin, past
/// the walk, at a grid end or `NaN` falls back to `key`'s logarithm, so
/// the walk returns `key`'s cell by construction. Clones share their
/// array but each walks from its own hint, so give each stream of lookups
/// (each SVAQD predicate) its own clone.
#[derive(Clone)]
pub struct CriticalValueTable {
    window: u32,
    horizon_windows: f64,
    alpha: f64,
    cells: Arc<Cells>,
    /// Cell index (`−cell`) of the last lookup, kept inside the grid's
    /// interior `1..CELLS − 1`: where the next lookup starts its walk.
    hint: usize,
}

impl std::fmt::Debug for CriticalValueTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CriticalValueTable")
            .field("window", &self.window)
            .field("horizon_windows", &self.horizon_windows)
            .field("alpha", &self.alpha)
            .finish_non_exhaustive()
    }
}

impl CriticalValueTable {
    /// Create a table for a fixed `(w, L, α)`: the registry's array for
    /// that configuration, registering it while there is room.
    pub fn new(config: ScanConfig) -> Self {
        let key = (
            config.window,
            config.horizon_windows.to_bits(),
            config.alpha.to_bits(),
        );
        // Every update is one push, so a poisoned registry is still whole.
        let mut registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        let cells = match registry.iter().find(|(k, _)| *k == key) {
            Some((_, cells)) => Arc::clone(cells),
            None if registry.len() < REGISTRY_CAPACITY => {
                let cells = unresolved();
                registry.push((key, Arc::clone(&cells)));
                cells
            }
            None => unresolved(),
        };
        drop(registry);
        Self {
            window: config.window,
            horizon_windows: config.horizon_windows,
            alpha: config.alpha,
            cells,
            hint: 1,
        }
    }

    /// Quantisation key: index of `p` on a 1%-relative log grid, clamped
    /// to `[-2777, 0]` (`NaN` and `p < 1e-12` land on the lowest cell,
    /// `p > 1` on cell 0, whose canonical probability is 1).
    fn key(p: f64) -> i32 {
        ((p.max(1e-12).ln() / GRID_LN_STEP).round() as i32).min(0)
    }

    /// Canonical probability of a grid cell (its log-space centre).
    fn cell_p(cell: i32) -> f64 {
        (cell as f64 * GRID_LN_STEP).exp().min(1.0)
    }

    /// `p`'s cell index `−key(p)`, walked to by comparison from the hint
    /// when it lies within [`WALK`] interior cells of it, from `key`
    /// otherwise; the hint moves to it.
    #[inline]
    fn locate(&mut self, p: f64) -> usize {
        let edges = cell_edges();
        let mut i = self.hint;
        for _ in 0..WALK {
            let [low, high] = edges[i];
            // A larger index is a smaller probability.
            if p < low {
                i += 1;
            } else if p > high {
                i -= 1;
            } else if p.is_nan() {
                break;
            } else {
                self.hint = i;
                return i;
            }
            if i == 0 || i == CELLS - 1 {
                break;
            }
        }
        let i = Self::key(p).unsigned_abs() as usize;
        self.hint = i.clamp(1, CELLS - 2);
        i
    }

    /// The critical value for background probability `p` (cached).
    #[inline]
    pub fn critical_value(&mut self, p: f64) -> u32 {
        let i = self.locate(p);
        let slot = &self.cells[i];
        match slot.load(Ordering::Relaxed) {
            0 => {
                let cell = -(i as i32);
                let k = critical_value(
                    Self::cell_p(cell),
                    self.window,
                    self.horizon_windows,
                    self.alpha,
                );
                slot.store(k, Ordering::Relaxed);
                k
            }
            k => k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn degenerate_cases() {
        assert_eq!(scan_tail_probability(0, 0.3, 10, 5.0), 1.0);
        assert_eq!(scan_tail_probability(11, 0.3, 10, 5.0), 0.0);
        assert_eq!(scan_tail_probability(3, 0.0, 10, 5.0), 0.0);
        assert_eq!(scan_tail_probability(3, 1.0, 10, 5.0), 1.0);
    }

    #[test]
    fn tail_is_monotone_decreasing_in_k() {
        for &(w, p, l) in &[(10u32, 0.1, 6.0), (50, 0.01, 20.0), (25, 0.3, 4.0)] {
            let mut prev = 1.0;
            for k in 1..=w as u64 {
                let t = scan_tail_probability(k, p, w, l);
                assert!(
                    t <= prev + 1e-9,
                    "tail not monotone at w={w} p={p} l={l} k={k}: {t} > {prev}"
                );
                prev = t;
            }
        }
    }

    #[test]
    fn tail_is_monotone_increasing_in_horizon() {
        for k in [3u64, 5] {
            let mut prev = 0.0;
            for l in [2.0, 4.0, 8.0, 16.0, 64.0] {
                let t = scan_tail_probability(k, 0.05, 20, l);
                assert!(t >= prev - 1e-12, "k={k} l={l}: {t} < {prev}");
                prev = t;
            }
        }
    }

    #[test]
    fn critical_value_is_threshold() {
        for &(w, p, l, alpha) in &[
            (50u32, 1e-4, 100.0, 0.05),
            (50, 0.01, 100.0, 0.05),
            (10, 0.05, 20.0, 0.01),
            (25, 0.2, 50.0, 0.05),
        ] {
            let k = critical_value(p, w, l, alpha);
            assert!(k >= 1 && k <= w);
            assert!(
                scan_tail_probability(k as u64, p, w, l) <= alpha,
                "k_crit not significant: w={w} p={p}"
            );
            if k > 1 && k < w {
                assert!(
                    scan_tail_probability(k as u64 - 1, p, w, l) > alpha,
                    "k_crit not minimal: w={w} p={p}"
                );
            }
        }
    }

    #[test]
    fn critical_value_grows_with_background() {
        let ks: Vec<u32> = [1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.2]
            .iter()
            .map(|&p| critical_value(p, 50, 100.0, 0.05))
            .collect();
        for pair in ks.windows(2) {
            assert!(pair[0] <= pair[1], "critical values not monotone: {ks:?}");
        }
        // A vanishing background needs only a couple of hits; a heavy one
        // needs many.
        assert!(ks[0] <= 4);
        assert!(*ks.last().unwrap() >= 15);
    }

    #[test]
    fn high_background_clamps_to_window() {
        // With p close to 1 even an all-positive window is unsurprising.
        assert_eq!(critical_value(0.999, 10, 1000.0, 1e-6), 10);
    }

    #[test]
    fn naus_matches_exact_dp_for_small_windows() {
        // The closed form against ground truth (no Monte-Carlo noise).
        for &(w, p) in &[(8u32, 0.05f64), (10, 0.1), (12, 0.2), (14, 0.02)] {
            for l in [2.0f64, 4.0, 10.0] {
                let n = (l * w as f64) as u64;
                for k in 1..=w as u64 {
                    let naus = scan_tail_probability(k, p, w, l);
                    let exact = crate::exact::scan_tail_exact(k, p, w, n);
                    assert!(
                        (naus - exact).abs() < 0.03,
                        "w={w} p={p} l={l} k={k}: naus={naus} exact={exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_returns_consistent_values() {
        let mut table = CriticalValueTable::new(ScanConfig::new(50, 100.0, 0.05));
        let a = table.critical_value(1e-4);
        let b = table.critical_value(1.0000001e-4); // same grid cell
        assert_eq!(a, b);
        assert_eq!(a, critical_value(1e-4, 50, 100.0, 0.05));
        // A resolved cell answers again without a re-evaluation, and a
        // second cell resolves to its own canonical value.
        assert_eq!(table.critical_value(1e-4), a);
        let c = CriticalValueTable::cell_p(CriticalValueTable::key(0.3));
        assert_eq!(
            table.critical_value(0.3),
            critical_value(c, 50, 100.0, 0.05)
        );
    }

    /// Reference memo: one sparse map per table, keyed by the unclamped
    /// cell, each entry evaluated at the cell's canonical probability.
    struct MapTable {
        config: ScanConfig,
        cache: std::collections::HashMap<i32, u32>,
    }

    impl MapTable {
        fn new(config: ScanConfig) -> Self {
            let cache = std::collections::HashMap::new();
            Self { config, cache }
        }

        fn critical_value(&mut self, p: f64) -> u32 {
            let cell = (p.max(1e-12).ln() / GRID_LN_STEP).round() as i32;
            let c = self.config;
            *self.cache.entry(cell).or_insert_with(|| {
                let p = CriticalValueTable::cell_p(cell);
                critical_value(p, c.window, c.horizon_windows, c.alpha)
            })
        }
    }

    fn registered(config: ScanConfig) -> bool {
        let key = (
            config.window,
            config.horizon_windows.to_bits(),
            config.alpha.to_bits(),
        );
        let registry = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(registry.len() <= REGISTRY_CAPACITY, "registry overran");
        registry.iter().any(|(k, _)| *k == key)
    }

    /// Probabilities outside `(1e-12, 1)` that must still answer like the
    /// map memo: zero, `NaN`, one, above one, infinities, negatives.
    const EDGE_PS: [f64; 8] = [0.0, f64::NAN, 1.0, 1.5, f64::INFINITY, -0.5, 1e-13, 1e-12];

    /// Every probe of `table` answers its cell's canonical value, as the
    /// map memo does; two tables of one configuration share their array
    /// exactly when the registry holds that configuration.
    fn check_table(config: ScanConfig, ps: &[f64]) {
        let mut table = CriticalValueTable::new(config);
        let mut twin = CriticalValueTable::new(config);
        assert_eq!(Arc::ptr_eq(&table.cells, &twin.cells), registered(config));
        let mut map = MapTable::new(config);
        for &p in ps.iter().chain(&EDGE_PS) {
            let cell = CriticalValueTable::key(p);
            let canonical = critical_value(
                CriticalValueTable::cell_p(cell),
                config.window,
                config.horizon_windows,
                config.alpha,
            );
            let k = table.critical_value(p);
            assert_eq!(k, canonical, "p={p} config={config:?}");
            assert_eq!(k, map.critical_value(p), "p={p} config={config:?}");
            assert_eq!(twin.critical_value(p), k, "p={p} config={config:?}");
        }
    }

    /// A hostile horizon `L ≥ 1`: ordinary, boundary, huge or infinite.
    fn hostile_horizon() -> impl Strategy<Value = f64> {
        let edges = [1.0, 1.0 + f64::EPSILON, f64::MAX, f64::INFINITY];
        (0usize..8, 1.0f64..1e6).prop_map(move |(i, l)| edges.get(i).copied().unwrap_or(l))
    }

    /// A hostile significance level `α ∈ (0, 1)`: ordinary, subnormal or
    /// just below one.
    fn hostile_alpha() -> impl Strategy<Value = f64> {
        let edges = [f64::MIN_POSITIVE, 5e-324, 1.0 - f64::EPSILON / 2.0];
        (0usize..6, -300.0f64..0.0)
            .prop_map(move |(i, e)| edges.get(i).copied().unwrap_or(10f64.powf(e).min(0.5)))
    }

    proptest! {
        #[test]
        fn registry_is_bounded_and_answers_like_the_map_memo(
            configs in prop::collection::vec(
                (1u32..65, hostile_horizon(), hostile_alpha()),
                1..9,
            ),
            exponents in prop::collection::vec(-13.0f64..0.5, 0..9),
        ) {
            let ps: Vec<f64> = exponents.iter().map(|&e| 10f64.powf(e)).collect();
            for (w, l, alpha) in configs {
                check_table(ScanConfig::new(w, l, alpha), &ps);
            }
        }
    }

    /// The cell index `table` walks to for `p` from `hint`; the hint it
    /// leaves must stay in the grid's interior.
    fn walked(table: &mut CriticalValueTable, hint: usize, p: f64) -> usize {
        table.hint = hint;
        let i = table.locate(p);
        assert!((1..CELLS - 1).contains(&table.hint), "hint {}", table.hint);
        i
    }

    fn key_index(p: f64) -> usize {
        CriticalValueTable::key(p).unsigned_abs() as usize
    }

    /// Both edges of every cell, exact (`exp((cell ∓ ½)·step)`) and pulled
    /// in by the margin, each ±64 ulps, walked from the cell and both its
    /// neighbours: every probe lands where `key` puts it.
    #[test]
    fn registry_cell_walk_equals_key_at_every_edge() {
        let mut table = CriticalValueTable::new(ScanConfig::new(5, 100.0, 0.05));
        for (i, &inner) in cell_edges().iter().enumerate() {
            let cell = -(i as f64);
            let exact = [-0.5, 0.5].map(|half| ((cell + half) * GRID_LN_STEP).exp());
            for base in exact.into_iter().chain(inner) {
                for ulps in -64i64..=64 {
                    let p = f64::from_bits(base.to_bits().wrapping_add_signed(ulps));
                    let want = key_index(p);
                    for hint in [i.saturating_sub(1), i, i + 1] {
                        let hint = hint.clamp(1, CELLS - 2);
                        assert_eq!(walked(&mut table, hint, p), want, "p={p:e} hint {hint}");
                    }
                }
            }
        }
    }

    proptest! {
        /// Random `p` over the estimator's clamp range `[1e-6, 0.9]`, from
        /// random hints and as a drifting chain of lookups from one hint,
        /// plus the probabilities outside it and `NaN`: the walk lands on
        /// `key`'s cell and the table answers the cell's value.
        #[test]
        fn registry_cell_walk_equals_key_from_random_hints(
            probes in prop::collection::vec((-6.0f64..-0.0458, 1usize..CELLS - 1), 1..64),
            drift in prop::collection::vec(-0.03f64..0.03, 0..256),
            start in -6.0f64..-0.0458,
        ) {
            let config = ScanConfig::new(50, 100.0, 0.05);
            let mut table = CriticalValueTable::new(config);
            for (exponent, hint) in probes {
                let p = 10f64.powf(exponent);
                prop_assert_eq!(walked(&mut table, hint, p), key_index(p), "p={:e}", p);
            }
            for &p in &EDGE_PS {
                for hint in [1, CELLS / 2, CELLS - 2] {
                    prop_assert_eq!(walked(&mut table, hint, p), key_index(p), "p={:e}", p);
                }
            }
            let mut map = MapTable::new(config);
            let mut exponent = start;
            for step in drift {
                exponent = (exponent + step).clamp(-6.0, -0.0458);
                let p = 10f64.powf(exponent);
                let hint = table.hint;
                prop_assert_eq!(walked(&mut table, hint, p), key_index(p), "p={:e}", p);
                prop_assert_eq!(table.critical_value(p), map.critical_value(p), "p={:e}", p);
            }
        }
    }

    #[test]
    fn registry_overflow_tables_are_private_and_answer_alike() {
        // More fresh configurations than the registry holds: it fills and
        // stops, and the tables past it still answer every probe.
        for i in 0..REGISTRY_CAPACITY + 8 {
            let config = ScanConfig::new(3, 7_000.0 + i as f64, 0.05);
            check_table(config, &[1e-4, 0.02, 0.3]);
        }
        let full = REGISTRY.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(full.len(), REGISTRY_CAPACITY);
        drop(full);
        let late = ScanConfig::new(3, 7_000.5, 0.05);
        assert!(!registered(late));
        check_table(late, &[1e-4, 0.02, 0.3]);
    }

    #[test]
    fn registry_racing_threads_resolve_identical_values() {
        // Four threads resolve every cell of one shared array, two walking
        // the grid upwards and two downwards, so most cells race.
        let (w, l, alpha) = (12, 321.0, 0.0125);
        let table = CriticalValueTable::new(ScanConfig::new(w, l, alpha));
        let cells: Vec<i32> = (1 - CELLS as i32..=0).collect();
        let start = std::sync::Barrier::new(4);
        let runs: Vec<Vec<u32>> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|t| {
                    let (mut table, cells, start) = (table.clone(), &cells, &start);
                    s.spawn(move || {
                        let mut ks = vec![0; cells.len()];
                        let mut order: Vec<usize> = (0..cells.len()).collect();
                        if t % 2 == 1 {
                            order.reverse();
                        }
                        start.wait();
                        for i in order {
                            let p = CriticalValueTable::cell_p(cells[i]);
                            ks[i] = table.critical_value(p);
                        }
                        ks
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        let expected: Vec<u32> = cells
            .iter()
            .map(|&c| {
                assert_eq!(CriticalValueTable::key(CriticalValueTable::cell_p(c)), c);
                critical_value(CriticalValueTable::cell_p(c), w, l, alpha)
            })
            .collect();
        for run in &runs {
            assert_eq!(run, &expected);
        }
    }

    #[test]
    fn tables_agree_regardless_of_lookup_order() {
        // Entries are evaluated at the canonical probability of their grid
        // cell, so two tables must resolve identical values no matter which
        // probabilities they saw first — the property that makes the
        // process-wide memo safe to share across concurrent queries.
        let config = ScanConfig::new(50, 200.0, 0.05);
        let probes = [1e-4, 2.3e-3, 0.017, 0.09, 0.31, 0.0099];
        let mut forward = CriticalValueTable::new(config);
        let mut backward = CriticalValueTable::new(config);
        let hits: Vec<u32> = probes.iter().map(|&p| forward.critical_value(p)).collect();
        let rev: Vec<u32> = probes
            .iter()
            .rev()
            .map(|&p| backward.critical_value(p))
            .collect();
        let rev: Vec<u32> = rev.into_iter().rev().collect();
        assert_eq!(hits, rev);
        // Nearby probabilities in the same 1%-relative cell share an entry.
        let mut jittered = CriticalValueTable::new(config);
        for (&p, &k) in probes.iter().zip(&hits) {
            assert_eq!(jittered.critical_value(p * 1.000001), k);
        }
    }
}
