//! What the benchmark reads from the operating system, plus the small
//! statistics every workload shares.

use std::path::PathBuf;

/// On-CPU time of one task from its `schedstat` (first field, exact
/// nanoseconds from the scheduler), milliseconds.
fn schedstat_ms(path: &std::path::Path) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let ns: u64 = text.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 / 1e6)
}

/// CPU time every live thread of this process has used so far,
/// milliseconds. Summed from per-task `schedstat` rather than read from
/// `/proc/self/stat`: the latter is charged by sampling at 100 Hz, which
/// misses most of the sub-millisecond bursts a request server runs in.
/// Threads alive across a measured interval (all of the server's are)
/// contribute exactly; a thread that exits inside it drops out.
pub fn process_cpu_ms() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .filter_map(|t| schedstat_ms(&t.ok()?.path().join("schedstat")))
        .sum()
}

/// CPU time the calling thread has used so far, milliseconds.
pub fn thread_cpu_ms() -> f64 {
    schedstat_ms(std::path::Path::new("/proc/thread-self/schedstat")).unwrap_or(0.0)
}

fn status_mb(key: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// How long the scheduler has kept the calling thread waiting on a run
/// queue so far (second field of its `schedstat`), milliseconds. Exact by
/// the time the thread runs again, unlike the first field (time on CPU),
/// which is brought up to date only at a tick or a switch — too coarse
/// for a 3 ms chore pass.
fn thread_wait_ms() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| t.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e6)
}

/// What a chore pass takes on the sizing box beside a running workload
/// when its neighbours are quiet, milliseconds (2.9 alone). Only a scale: it
/// makes a value "at reference speed" read like a raw one on a quiet box.
const CHORE_REF_MS: f64 = 3.4;

/// A fixed single-threaded chore — fill, sort and probe 64k pseudo-random
/// keys: branches, cache misses, no syscalls — timed to tell how fast the
/// box is at this moment. Owns its buffers, so a pass never allocates (a
/// 512 KB allocation is page faults on one call and none on the next).
pub struct Chore {
    keys: Vec<u64>,
    probes: Vec<u64>,
}

impl Chore {
    pub fn new() -> Self {
        let mut chore = Self {
            keys: vec![0; 65_536],
            probes: vec![0; 65_536],
        };
        // Touch every page before the first timed pass.
        chore.pass_ms();
        chore
    }

    /// Wall time of one pass, milliseconds.
    fn pass_ms(&mut self) -> f64 {
        let started = std::time::Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for key in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *key = x;
        }
        self.probes.copy_from_slice(&self.keys);
        self.keys.sort_unstable();
        let found = self
            .probes
            .iter()
            .filter(|&&k| self.keys.binary_search(&k.rotate_left(1)).is_ok())
            .count();
        std::hint::black_box(found);
        started.elapsed().as_secs_f64() * 1e3
    }

    /// How slow this box is right now: the time of a chore pass over
    /// [`CHORE_REF_MS`], 1.0 on the sizing box at its quietest. On a shared
    /// host the speed of a core moves by tens of percent for tens of seconds
    /// at a time (a neighbour on the sibling hyperthread, the shared cache,
    /// the clock), which is as long as a run; a time measured next to a
    /// chore pass and divided by this factor repeats, a raw one does not.
    ///
    /// A pass counts when the scheduler never made the thread wait during
    /// it (the benchmark's own threads compete for the same cores), so its
    /// wall time is its CPU time; after three disturbed passes the least
    /// disturbed one stands in.
    pub fn slowness(&mut self) -> f64 {
        let mut least = f64::INFINITY;
        for _ in 0..3 {
            let waited = thread_wait_ms();
            let wall = self.pass_ms();
            let on_cpu = wall - (thread_wait_ms() - waited);
            if on_cpu == wall {
                return wall / CHORE_REF_MS;
            }
            // A wait charged late can exceed the pass it is charged to.
            least = least.min(if on_cpu > 0.0 { on_cpu } else { wall });
        }
        least / CHORE_REF_MS
    }
}

/// Where run artefacts (spill directories, trace files) go: under cargo's
/// target directory, so they stay inside the checkout and out of git.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("svqbench")
}

/// The `p`-quantile of an ascending slice (nearest rank); 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Median of an unordered sample; 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    percentile(&values, 0.5)
}

/// Mean of the middle half of an unordered sample (of the middle two of
/// four, of the one of one); 0 when empty. What a median is for many
/// values, for a handful: one outlier on either side cannot move it, and
/// it does not jump between two neighbours.
pub fn midmean(mut values: Vec<f64>) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One completed operation: when it completed, in seconds since its pass
/// began, and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub at_s: f64,
    pub lat_ms: f64,
}

/// Time, process CPU and box speed read at a slice boundary of a measured
/// pass.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub at_s: f64,
    pub cpu_ms: f64,
    /// [`Chore::slowness`] of the box at this moment.
    pub slow: f64,
}

/// The four rate and latency metrics of one measured pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sliced {
    pub ops_per_s: f64,
    pub lat_p50_ms: f64,
    pub lat_p95_ms: f64,
    pub cpu_ms_per_op: f64,
}

/// The quartile of an unordered sample on its better side: the first when
/// lower is better, the third when higher is; 0 when empty.
///
/// A neighbour on a shared host only ever takes time away, for seconds to a
/// minute at a stretch, so the slices of a pass are a mix of undisturbed
/// ones and slowed ones in a proportion that changes from run to run. The
/// median flips between the two kinds when about half are slowed; the
/// better quartile stays with the undisturbed kind until three in four are.
pub fn better_quartile(mut values: Vec<f64>, lower_is_better: bool) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    percentile(&values, if lower_is_better { 0.25 } else { 0.75 })
}

/// Each metric per slice (the interval between two consecutive marks) at
/// reference speed, one vector per metric in the order of [`Sliced`]'s
/// fields; slices without a completed operation are skipped. A slice's
/// slowness is the mean of its two marks'. CPU per operation is always
/// scaled by it; rate and latency are too unless the workload is
/// `timer_bound` (its waits are set by a clock, not by how fast the box
/// computes, and scaling them would put the box's wobble into them).
pub fn per_slice(samples: &[Sample], marks: &[Mark], timer_bound: bool) -> [Vec<f64>; 4] {
    let mut values: [Vec<f64>; 4] = Default::default();
    for pair in marks.windows(2) {
        let (from, to) = (pair[0], pair[1]);
        let mut lats: Vec<f64> = samples
            .iter()
            .filter(|s| s.at_s >= from.at_s && s.at_s < to.at_s)
            .map(|s| s.lat_ms)
            .collect();
        if lats.is_empty() {
            continue;
        }
        lats.sort_by(|a, b| a.total_cmp(b));
        let slow = (from.slow + to.slow) / 2.0;
        let wall_slow = if timer_bound { 1.0 } else { slow };
        values[0].push(ratio(lats.len() as f64, to.at_s - from.at_s) * wall_slow);
        values[1].push(percentile(&lats, 0.50) / wall_slow);
        values[2].push(percentile(&lats, 0.95) / wall_slow);
        values[3].push(ratio(to.cpu_ms - from.cpu_ms, lats.len() as f64) / slow);
    }
    values
}

/// The better quartile of each metric over the slices of a pass.
pub fn sliced_quartiles(samples: &[Sample], marks: &[Mark], timer_bound: bool) -> Sliced {
    let [rate, p50, p95, cpu] = per_slice(samples, marks, timer_bound);
    Sliced {
        ops_per_s: better_quartile(rate, false),
        lat_p50_ms: better_quartile(p50, true),
        lat_p95_ms: better_quartile(p95, true),
        cpu_ms_per_op: better_quartile(cpu, true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_take_the_better_quartile_and_skip_empty_ones() {
        // Three one-second slices: 2, 4 and 0 operations.
        let samples: Vec<Sample> = [
            (0.2, 1.0),
            (0.7, 3.0),
            (1.1, 5.0),
            (1.2, 5.0),
            (1.5, 7.0),
            (1.9, 9.0),
        ]
        .iter()
        .map(|&(at_s, lat_ms)| Sample { at_s, lat_ms })
        .collect();
        let marks = |slow: f64| -> Vec<Mark> {
            [(0.0, 0.0), (1.0, 10.0), (2.0, 50.0), (3.0, 50.0)]
                .iter()
                .map(|&(at_s, cpu_ms)| Mark { at_s, cpu_ms, slow })
                .collect()
        };
        assert_eq!(per_slice(&samples, &marks(1.0), false)[0], [2.0, 4.0]);
        let s = sliced_quartiles(&samples, &marks(1.0), false);
        // Of two slices the better one under nearest rank.
        assert_eq!(s.ops_per_s, 4.0);
        assert_eq!(s.cpu_ms_per_op, 5.0);
        assert_eq!(s.lat_p50_ms, 3.0);
        assert_eq!(sliced_quartiles(&[], &marks(1.0), false).ops_per_s, 0.0);
        // On a box twice as slow the same readings mean twice the speed.
        let s = sliced_quartiles(&samples, &marks(2.0), false);
        assert_eq!(
            (s.ops_per_s, s.lat_p50_ms, s.cpu_ms_per_op),
            (8.0, 1.5, 2.5)
        );
        // A timer-bound workload keeps its rate and latency as read.
        let s = sliced_quartiles(&samples, &marks(2.0), true);
        assert_eq!(
            (s.ops_per_s, s.lat_p50_ms, s.cpu_ms_per_op),
            (4.0, 3.0, 2.5)
        );
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(better_quartile(v.clone(), true), 3.0);
        assert_eq!(better_quartile(v, false), 7.0);
    }

    #[test]
    fn midmean_drops_a_quarter_from_each_end() {
        assert_eq!(midmean(vec![9.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(midmean(vec![5.0]), 5.0);
        assert_eq!(midmean(vec![1.0, 2.0, 30.0]), 11.0);
        assert_eq!(midmean(Vec::new()), 0.0);
    }

    #[test]
    fn proc_readers_return_something_plausible() {
        let before = thread_cpu_ms();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = thread_cpu_ms();
        assert!(after > before);
        assert!(process_cpu_ms() >= after);
        assert!(peak_rss_mb() >= status_mb("VmRSS:") && status_mb("VmRSS:") > 0.0);
    }
}
