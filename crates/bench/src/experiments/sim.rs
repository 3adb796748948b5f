//! Deterministic-simulation sweep: the `svq-sim` harness at scale.
//!
//! Not a paper experiment: this is the verification counterpart of the
//! concurrency work (PR 3's mux, PR 4's spill sinks, PR 5's server). Every
//! registered scenario — the real exec/serve/storage stack under the
//! seeded virtual-time scheduler — is swept across hundreds of randomized
//! schedules, unfaulted and with every fault armed, and the committed seed
//! corpus is replayed. Any violation is shrunk to the smallest reproducing
//! size and reported as a one-line `svqact sim …` repro command before the
//! experiment fails.
//!
//! At the default scale the sweep covers ≥1000 schedules; `--scale 0.01`
//! (the CI smoke slice) trims it to a few dozen per scenario. Virtual time
//! dwarfs wall time — that is the point of the harness.
//!
//! Results land in `results/sim.txt`.

use super::ExpContext;
use crate::Table;
use std::time::Instant;
use svq_sim::{run_corpus_line, sweep_persisting, FaultPlan, CORPUS, SCENARIOS};

pub fn run(ctx: &ExpContext) {
    let smoke = ctx.scale < 0.05;
    // Shrunk failing schedules persist their full event trace next to the
    // report so a violation can be diffed against a local replay.
    let trace_dir = ctx.out_dir.join("sim-traces");
    let per_plan: u64 = if smoke { 10 } else { 100 };
    let plans = [("none", FaultPlan::none()), ("all", FaultPlan::all())];

    let mut table = Table::new(&[
        "scenario",
        "faults",
        "schedules",
        "steps",
        "virtual s",
        "wall s",
        "failed",
    ]);
    let mut total_schedules = 0u64;
    let mut repro_lines = Vec::new();

    for (si, scenario) in SCENARIOS.iter().enumerate() {
        for (pi, (label, faults)) in plans.iter().enumerate() {
            let base_seed = ctx.seed ^ ((si as u64) << 8) ^ ((pi as u64) << 4);
            let start = Instant::now();
            let report = sweep_persisting(
                scenario,
                base_seed,
                per_plan,
                scenario.default_size,
                *faults,
                3,
                Some(&trace_dir),
            );
            total_schedules += report.schedules;
            table.row(vec![
                scenario.name.to_string(),
                label.to_string(),
                report.schedules.to_string(),
                report.steps.to_string(),
                format!("{:.3}", report.virtual_nanos as f64 / 1e9),
                format!("{:.3}", start.elapsed().as_secs_f64()),
                format!("{} of {}", report.failed, report.schedules),
            ]);
            for failure in report.failures {
                match &failure.trace {
                    Some(path) => repro_lines.push(format!(
                        "{} [{}]  # trace: {}",
                        failure.repro,
                        failure.detail,
                        path.display()
                    )),
                    None => repro_lines.push(format!("{} [{}]", failure.repro, failure.detail)),
                }
            }
        }
    }

    // Corpus replay: every committed schedule stays green.
    let mut corpus_replayed = 0u64;
    for line in CORPUS.lines() {
        match run_corpus_line(line) {
            Ok(None) => {}
            Ok(Some((spec, outcome))) => {
                corpus_replayed += 1;
                total_schedules += 1;
                if let Some(f) = outcome.failure {
                    repro_lines.push(format!("{} [{f}]", spec.repro_line()));
                }
            }
            Err(e) => repro_lines.push(format!("corpus line unparseable: {e}")),
        }
    }

    let mut report = table.render();
    report.push_str(&format!(
        "\ntotal schedules: {total_schedules} (corpus: {corpus_replayed})\n"
    ));
    if repro_lines.is_empty() {
        report.push_str("violations: none\n");
    } else {
        report.push_str("violations:\n");
        for line in &repro_lines {
            report.push_str(&format!("  {line}\n"));
        }
    }
    ctx.emit("sim", &report);

    assert!(
        repro_lines.is_empty(),
        "simulation sweep found violations; repro commands:\n{}",
        repro_lines.join("\n")
    );
    assert!(
        smoke || total_schedules >= 1000,
        "full-scale sweep covers at least a thousand schedules, got {total_schedules}"
    );
}
