//! Schedule execution, seed sweeps, failure shrinking, and the corpus.
//!
//! A schedule is named by `(scenario, seed, size, faults)`. [`run_one`]
//! executes exactly one; [`sweep`] derives per-schedule seeds from a base
//! seed and runs thousands, shrinking the first failure down to the
//! smallest `size` — and the fewest fault injectors — that still
//! reproduces it and reporting a one-line repro command;
//! [`run_corpus_line`] replays one line of the committed seed corpus
//! (`crates/sim/corpus/seeds.txt`).

use crate::rng;
use crate::scenario::{self, FaultPlan, Scenario, ScenarioCtx, INJECTORS};
use crate::world::{run_world, ScheduleOutcome, WorldConfig};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One fully named schedule.
#[derive(Clone, Copy)]
pub struct RunSpec {
    pub scenario: &'static Scenario,
    pub seed: u64,
    pub size: u64,
    pub faults: FaultPlan,
    /// Keep the full event trace (for replay comparison / debugging).
    pub keep_trace: bool,
}

impl RunSpec {
    /// A spec with the scenario's default size, no faults, no trace.
    pub fn new(scenario: &'static Scenario, seed: u64) -> Self {
        Self {
            scenario,
            seed,
            size: scenario.default_size,
            faults: FaultPlan::none(),
            keep_trace: false,
        }
    }

    /// The command that replays this schedule.
    pub fn repro_line(&self) -> String {
        format!(
            "svqact sim --scenario {} --seed {} --size {} --faults {}",
            self.scenario.name,
            self.seed,
            self.size,
            self.faults.label()
        )
    }
}

/// Step budget scaled to the scenario size: generous enough for every
/// healthy schedule, tight enough that a livelock is caught in wall-clock
/// milliseconds rather than minutes.
fn step_budget(size: u64) -> u64 {
    1_000_000 + size.saturating_mul(100_000)
}

/// Execute one schedule.
pub fn run_one(spec: &RunSpec) -> ScheduleOutcome {
    let config = WorldConfig {
        seed: spec.seed,
        step_budget: step_budget(spec.size),
        wall_limit: Duration::from_secs(120),
        keep_trace: spec.keep_trace,
    };
    let ctx = ScenarioCtx {
        seed: spec.seed,
        size: spec.size,
        faults: spec.faults,
    };
    (spec.scenario.prepare)(ctx);
    let run = spec.scenario.run;
    run_world(&config, move || run(ctx))
}

/// Shrink a failing schedule along two axes. First repeatedly halve
/// `size` while the failure still reproduces (the seed stays fixed — it
/// names the interleaving family); then drop enabled fault injectors one
/// at a time, keeping each drop whose schedule still fails, so the repro
/// line names only the faults the failure actually needs. Returns the
/// smallest reproducing spec and its outcome.
pub fn shrink(failing: &RunSpec) -> (RunSpec, ScheduleOutcome) {
    let mut best = *failing;
    let mut best_outcome = run_one(&best);
    debug_assert!(
        best_outcome.failure.is_some(),
        "shrink wants a failing spec"
    );
    while best.size > 1 {
        let candidate = RunSpec {
            size: best.size / 2,
            ..best
        };
        let outcome = run_one(&candidate);
        if outcome.failure.is_some() {
            best = candidate;
            best_outcome = outcome;
        } else {
            break;
        }
    }
    for (_, flag) in INJECTORS {
        let mut candidate = best;
        if !std::mem::take(flag(&mut candidate.faults)) {
            continue;
        }
        let outcome = run_one(&candidate);
        if outcome.failure.is_some() {
            best = candidate;
            best_outcome = outcome;
        }
    }
    (best, best_outcome)
}

/// Re-run `spec` with trace capture and persist the full event trace to
/// `<dir>/<scenario>-<seed>.txt` for side-by-side diffing against a later
/// replay. The file leads with the repro command and the outcome, then
/// one line per event. Determinism makes this safe: the same named
/// schedule replays the same interleaving whether or not the trace is
/// kept.
pub fn persist_trace(spec: &RunSpec, dir: &Path) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let traced = RunSpec {
        keep_trace: true,
        ..*spec
    };
    let outcome = run_one(&traced);
    let path = dir.join(format!("{}-{}.txt", spec.scenario.name, spec.seed));
    let mut text = format!("# {}\n", spec.repro_line());
    match &outcome.failure {
        Some(f) => text.push_str(&format!("# result: FAIL ({f})\n")),
        None => text.push_str("# result: ok\n"),
    }
    text.push_str(&outcome.render_trace());
    std::fs::write(&path, text)?;
    Ok(path)
}

/// One failure found by a sweep, already shrunk.
pub struct SweepFailure {
    pub spec: RunSpec,
    pub repro: String,
    pub detail: String,
    /// Persisted event trace of the shrunk schedule, when the sweep was
    /// given a trace directory.
    pub trace: Option<PathBuf>,
}

/// What a seed sweep observed.
pub struct SweepReport {
    pub schedules: u64,
    pub steps: u64,
    pub virtual_nanos: u64,
    /// Schedules that failed, out of `schedules`.
    pub failed: u64,
    /// The first `max_failures` failures, shrunk, one per failing seed.
    pub failures: Vec<SweepFailure>,
}

/// Run all `schedules` schedules of `scenario` with seeds derived from
/// `base_seed`, counting every failure but shrinking only the first
/// `max_failures`, so the count is the sweep's catch rate. Per-schedule
/// seeds are `mix(base ^ index)` so a repro line names the exact derived
/// seed, not the sweep.
pub fn sweep(
    scenario: &'static Scenario,
    base_seed: u64,
    schedules: u64,
    size: u64,
    faults: FaultPlan,
    max_failures: usize,
) -> SweepReport {
    sweep_persisting(
        scenario,
        base_seed,
        schedules,
        size,
        faults,
        max_failures,
        None,
    )
}

/// [`sweep`], additionally persisting each shrunk failure's event trace
/// under `trace_dir` (see [`persist_trace`]).
#[allow(clippy::too_many_arguments)]
pub fn sweep_persisting(
    scenario: &'static Scenario,
    base_seed: u64,
    schedules: u64,
    size: u64,
    faults: FaultPlan,
    max_failures: usize,
    trace_dir: Option<&Path>,
) -> SweepReport {
    let mut report = SweepReport {
        schedules: 0,
        steps: 0,
        virtual_nanos: 0,
        failed: 0,
        failures: Vec::new(),
    };
    for index in 0..schedules {
        let spec = RunSpec {
            scenario,
            seed: rng::mix(base_seed ^ index),
            size,
            faults,
            keep_trace: false,
        };
        let outcome = run_one(&spec);
        report.schedules += 1;
        report.steps += outcome.steps;
        report.virtual_nanos += outcome.virtual_nanos;
        if outcome.failure.is_none() {
            continue;
        }
        report.failed += 1;
        if report.failures.len() < max_failures {
            let (shrunk, shrunk_outcome) = shrink(&spec);
            let detail = shrunk_outcome
                .failure
                .map(|f| f.to_string())
                .unwrap_or_else(|| "failure vanished during shrink".to_string());
            let trace = trace_dir.and_then(|dir| persist_trace(&shrunk, dir).ok());
            report.failures.push(SweepFailure {
                spec: shrunk,
                repro: shrunk.repro_line(),
                detail,
                trace,
            });
        }
    }
    report
}

/// Replay one corpus line: `scenario seed size faults`, `#` comments and
/// blank lines skipped. Returns the spec and outcome, or `None` for a
/// skipped line.
pub fn run_corpus_line(line: &str) -> Result<Option<(RunSpec, ScheduleOutcome)>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = trimmed.split_whitespace().collect();
    if fields.len() != 4 {
        return Err(format!(
            "corpus line needs `scenario seed size faults`, got {trimmed:?}"
        ));
    }
    let scenario = scenario::find(fields[0])
        .ok_or_else(|| format!("unknown scenario {:?} in corpus", fields[0]))?;
    let seed: u64 = fields[1]
        .parse()
        .map_err(|e| format!("bad seed {:?}: {e}", fields[1]))?;
    let size: u64 = fields[2]
        .parse()
        .map_err(|e| format!("bad size {:?}: {e}", fields[2]))?;
    let faults = FaultPlan::parse(fields[3])?;
    let spec = RunSpec {
        scenario,
        seed,
        size,
        faults,
        keep_trace: false,
    };
    let outcome = run_one(&spec);
    Ok(Some((spec, outcome)))
}

/// The committed seed corpus, compiled in so `svqact sim --corpus` and the
/// corpus test replay the same bytes.
pub const CORPUS: &str = include_str!("../corpus/seeds.txt");

#[cfg(test)]
mod tests {
    use super::*;

    fn noop_prepare(_ctx: ScenarioCtx) {}

    /// Fails whenever `worker_panic` is armed, regardless of size — the
    /// other five injectors are red herrings the shrinker must discard.
    fn needs_worker_panic(ctx: ScenarioCtx) {
        assert!(!ctx.faults.worker_panic, "worker-panic fault tripped");
    }

    static NEEDY: Scenario = Scenario {
        name: "test_needs_worker_panic",
        about: "test fixture: fails iff worker-panic is armed",
        default_size: 8,
        prepare: noop_prepare,
        run: needs_worker_panic,
    };

    #[test]
    fn shrink_minimises_size_and_fault_plan() {
        let spec = RunSpec {
            scenario: &NEEDY,
            seed: 7,
            size: 8,
            faults: FaultPlan::all(),
            keep_trace: false,
        };
        let (shrunk, outcome) = shrink(&spec);
        assert!(outcome.failure.is_some(), "the shrunk spec still fails");
        assert_eq!(shrunk.size, 1, "size halved to the floor");
        assert_eq!(
            shrunk.faults,
            FaultPlan {
                worker_panic: true,
                ..FaultPlan::none()
            },
            "only the fault the failure needs survives shrinking"
        );
        assert!(
            shrunk.repro_line().ends_with("--faults worker-panic"),
            "the repro line names the minimal plan: {}",
            shrunk.repro_line()
        );
    }
}
