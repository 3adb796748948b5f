//! One catalog, many runs at once.
//!
//! An offline run owns its access ledger and a catalog is immutable, so
//! concurrent `execute_offline` calls on one shared `Arc<IngestedVideo>`
//! must each report exactly what the same statement reports when it runs
//! alone — ranked sequences, bounds, iterations and, above all, `disk`.

use std::sync::{Arc, Barrier};
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_query::{execute_offline, parse, LogicalPlan, QueryOutcome};
use svq_types::{ActionClass, ObjectClass, PaperScoring, VideoId};
use svq_vision::models::ModelSuite;
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

const THREADS: usize = 4;
const RUNS_PER_THREAD: usize = 50;
const SHAPES: [&str; 3] = ["'car'", "'person'", "'car', 'person'"];
const KS: [usize; 3] = [1, 3, 10];

fn plans() -> Vec<LogicalPlan> {
    SHAPES
        .iter()
        .flat_map(|shape| {
            KS.iter().map(move |k| {
                let sql = format!(
                    "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
                     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
                     act USING ActionRecognizer) \
                     WHERE act='jumping' AND obj.include({shape}) \
                     ORDER BY RANK(act, obj) LIMIT {k}"
                );
                LogicalPlan::from_statement(&parse(&sql).expect("statement parses"))
                    .expect("statement plans")
            })
        })
        .collect()
}

fn canonical_json(outcome: &QueryOutcome) -> String {
    serde_json::to_string(&outcome.canonical()).expect("outcome encodes")
}

#[test]
fn concurrent_runs_on_one_catalog_match_their_sequential_runs() {
    let oracle = ScenarioSpec::activitynet(
        VideoId::new(0),
        60_000,
        ActionClass::named("jumping"),
        vec![
            ObjectSpec::correlated(ObjectClass::named("car")),
            ObjectSpec::scene(ObjectClass::named("person")),
        ],
        20_230_403,
    )
    .generate()
    .oracle(ModelSuite::accurate());
    let catalog = Arc::new(ingest(&oracle, &PaperScoring, &OnlineConfig::default()));
    let plans = Arc::new(plans());
    let expected: Arc<Vec<String>> = Arc::new(
        plans
            .iter()
            .map(|plan| {
                let outcome = execute_offline(plan, &catalog, &PaperScoring).expect("runs");
                assert!(outcome.disk.total() > 0, "every statement reads the tables");
                canonical_json(&outcome)
            })
            .collect(),
    );

    let start = Arc::new(Barrier::new(THREADS));
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let (catalog, plans, expected, start) = (
                catalog.clone(),
                plans.clone(),
                expected.clone(),
                start.clone(),
            );
            std::thread::spawn(move || {
                start.wait();
                (0..RUNS_PER_THREAD)
                    .filter_map(|i| {
                        let s = (t * 5 + i) % plans.len();
                        let outcome =
                            execute_offline(&plans[s], &catalog, &PaperScoring).expect("runs");
                        let got = canonical_json(&outcome);
                        (got != expected[s])
                            .then(|| format!("thread {t} run {i} statement {s}: {got}"))
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mismatches: Vec<String> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("worker thread"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} concurrent runs differ from their sequential run:\n{}",
        mismatches.len(),
        THREADS * RUNS_PER_THREAD,
        mismatches.join("\n")
    );
}
