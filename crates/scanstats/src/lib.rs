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
//! * [`kernel`] — the exponential-kernel background-probability estimator
//!   with edge correction (Eq. 6) that powers SVAQD's dynamic parameter
//!   updates.
//!
//! Two test-only modules validate the approximation: `exact`, a
//! sliding-window bitmask DP usable for small `w`, and `montecarlo`, a
//! seeded simulation of the same tail for windows beyond the DP's reach.

#![forbid(unsafe_code)]

pub mod binomial;
#[cfg(test)]
mod exact;
pub mod kernel;
#[cfg(test)]
mod montecarlo;
pub mod naus;

pub use kernel::{KernelEstimator, WindowRun};
pub use naus::{critical_value, scan_tail_probability, CriticalValueTable, ScanConfig};
