//! # svq-scanstats
//!
//! Discrete scan statistics for event sequences — the statistical substrate
//! of SVAQ/SVAQD (§3.2-3.3 of the paper).
//!
//! The engine treats each positive model prediction (an object detected on a
//! frame, an action recognised on a shot) as a Bernoulli event with some
//! *background* success probability `p`. A clip "contains" a predicate when
//! the number of positive predictions inside it is *statistically
//! surprising* under the background: at least `k_crit`, the smallest `k`
//! with `P(S_w(N) ≥ k | p, w, L) ≤ α` (Eq. 5), where `S_w(N)` is the scan
//! statistic — the maximum number of successes in any window of `w`
//! consecutive trials among `N = L·w` trials.
//!
//! This crate provides:
//!
//! * [`binomial`] — numerically stable binomial pmf/cdf in log space;
//! * [`naus`] — the Naus (1982) `Q2`/`Q3` approximation of the scan-statistic
//!   tail (the paper's footnote 6) and the critical-value search of Eq. 5;
//! * [`exact`] — an exact sliding-window bitmask DP, usable for small `w`,
//!   which the test-suite uses as ground truth for the approximation;
//! * [`montecarlo`] — a seeded Monte-Carlo estimator of the same tail, the
//!   second line of defence in validation;
//! * [`kernel`] — the exponential-kernel background-probability estimator
//!   with edge correction (Eq. 6) that powers SVAQD's dynamic parameter
//!   updates.

#![forbid(unsafe_code)]

pub mod binomial;
pub mod exact;
pub mod kernel;
pub mod montecarlo;
pub mod naus;

pub use kernel::KernelEstimator;
pub use naus::{critical_value, scan_tail_probability, CriticalValueTable, ScanConfig};
