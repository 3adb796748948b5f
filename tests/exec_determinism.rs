//! Determinism of the svq-exec concurrency layer.
//!
//! The executor's contract is that concurrency is *invisible* in results:
//! an online run on a pool worker produces byte-for-byte what a sequential
//! engine run over the same stream produces, and a parallel ingest produces
//! the same repository as a sequential one, at any worker count.

use std::sync::{mpsc, Arc};
use svq_core::offline::ingest;
use svq_core::online::{OnlineConfig, Svaqd};
use svq_core::{PaperScoring, ScoringFunctions};
use svq_exec::{
    parallel_ingest, Backpressure, ExecMetrics, MuxOptions, SessionEngine, SessionMux, WorkerPool,
};
use svq_query::{execute_online, parse, LogicalPlan, QueryResults};
use svq_storage::VideoRepository;
use svq_types::{ActionClass, ActionQuery, ClipInterval, ObjectClass, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};
use svq_vision::VideoStream;

fn oracles(n: u64) -> Vec<Arc<DetectionOracle>> {
    (0..n)
        .map(|i| {
            let spec = ScenarioSpec::activitynet(
                VideoId::new(i),
                5_000,
                ActionClass::named("jumping"),
                vec![ObjectSpec::correlated(ObjectClass::named("car"))],
                31 + i,
            );
            Arc::new(spec.generate().oracle(ModelSuite::accurate()))
        })
        .collect()
}

fn query() -> ActionQuery {
    ActionQuery::named("jumping", &["car"])
}

fn sequential_run(oracle: &DetectionOracle) -> Vec<ClipInterval> {
    let mut stream = VideoStream::new(oracle);
    let mut engine = Svaqd::new(
        query(),
        stream.geometry(),
        OnlineConfig::default(),
        1e-4,
        1e-4,
    );
    let mut sequences = Vec::new();
    while let Some(mut view) = stream.next_clip() {
        sequences.extend(engine.push_clip(&mut view).closed);
    }
    sequences.extend(engine.finish());
    sequences
}

/// N multiplexed sessions equal N sequential engine runs, at several
/// worker counts (including more workers than sessions).
#[test]
fn multiplexer_is_worker_count_invariant() {
    let oracles = oracles(3);
    let expected: Vec<Vec<ClipInterval>> = oracles.iter().map(|o| sequential_run(o)).collect();
    for workers in [1, 2, 8] {
        let mux = SessionMux::new(workers, ExecMetrics::new());
        let ids: Vec<_> = oracles
            .iter()
            .enumerate()
            .map(|(i, oracle)| {
                let engine = SessionEngine::Svaqd(Svaqd::new(
                    query(),
                    oracle.truth().geometry,
                    OnlineConfig::default(),
                    1e-4,
                    1e-4,
                ));
                mux.register(
                    format!("v{i}"),
                    oracle.clone(),
                    engine,
                    Backpressure::Block,
                    8,
                )
            })
            .collect();
        mux.feed_streams(&ids);
        for (id, expected) in ids.iter().zip(&expected) {
            let result = mux.wait(*id).expect("healthy session");
            assert_eq!(
                &result.sequences, expected,
                "results drifted at {workers} workers"
            );
        }
        mux.shutdown();
    }
}

/// The sharded ingress is likewise invisible: every worker-count ×
/// shard-count combination reproduces the sequential runs byte for byte.
/// Shards only change *which feeder thread* delivers a session's clips,
/// never the per-session clip order.
#[test]
fn multiplexer_is_worker_and_shard_invariant() {
    let oracles = oracles(3);
    let expected: Vec<Vec<ClipInterval>> = oracles.iter().map(|o| sequential_run(o)).collect();
    for workers in [1, 2, 4] {
        for shards in [1, 2, 4] {
            let mux = SessionMux::with_options(
                MuxOptions::new(workers).with_shards(shards),
                ExecMetrics::new(),
            );
            let ids: Vec<_> = oracles
                .iter()
                .enumerate()
                .map(|(i, oracle)| {
                    let engine = SessionEngine::Svaqd(Svaqd::new(
                        query(),
                        oracle.truth().geometry,
                        OnlineConfig::default(),
                        1e-4,
                        1e-4,
                    ));
                    mux.register(
                        format!("v{i}"),
                        oracle.clone(),
                        engine,
                        Backpressure::Block,
                        8,
                    )
                })
                .collect();
            mux.feed_streams(&ids);
            for (id, expected) in ids.iter().zip(&expected) {
                let result = mux.wait(*id).expect("healthy session");
                assert_eq!(
                    &result.sequences, expected,
                    "results drifted at {workers} workers, {shards} shards"
                );
            }
            mux.shutdown();
        }
    }
}

/// One `execute_online` run's results as wire bytes, with the one
/// wall-clock field (the algorithm's own time) zeroed.
fn online_bytes(plan: &LogicalPlan, oracle: &DetectionOracle) -> String {
    let outcome = execute_online(plan, &mut VideoStream::new(oracle), OnlineConfig::default())
        .expect("online plan");
    let QueryResults::Online {
        sequences,
        mut cost,
    } = outcome.results
    else {
        panic!("online plan answered offline")
    };
    cost.algorithm_ms = 0.0;
    serde_json::to_string(&QueryResults::Online { sequences, cost }).expect("encodes")
}

/// N `execute_online` pool jobs equal N sequential runs byte for byte, at
/// several worker counts — the shape a served `stream` request and
/// `svqact mux` take.
#[test]
fn execute_online_pool_jobs_match_sequential_runs() {
    let sql = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
               WHERE act='jumping' AND obj.include('car')";
    let plan = Arc::new(LogicalPlan::from_statement(&parse(sql).unwrap()).unwrap());
    let oracles = oracles(3);
    let expected: Vec<String> = oracles.iter().map(|o| online_bytes(&plan, o)).collect();
    for workers in [1, 2, 4] {
        let pool = WorkerPool::new(workers, oracles.len(), ExecMetrics::new());
        let (tx, rx) = mpsc::channel();
        for (slot, oracle) in oracles.iter().enumerate() {
            let (plan, oracle, tx) = (plan.clone(), oracle.clone(), tx.clone());
            pool.submit(Box::new(move || {
                let _ = tx.send((slot, online_bytes(&plan, &oracle)));
            }));
        }
        drop(tx);
        let mut got: Vec<Option<String>> = vec![None; oracles.len()];
        for (slot, bytes) in rx {
            got[slot] = Some(bytes);
        }
        pool.shutdown();
        for (got, expected) in got.into_iter().zip(&expected) {
            assert_eq!(
                got.as_ref(),
                Some(expected),
                "results drifted at {workers} workers"
            );
        }
    }
}

/// Parallel ingestion merges to the same repository as sequential
/// ingestion — compared through the catalog file encoding, so the check is
/// bytewise.
#[test]
fn parallel_ingest_is_deterministic() {
    let oracles = oracles(3);
    let config = OnlineConfig::default();
    let sequential =
        VideoRepository::from_catalogs(oracles.iter().map(|o| ingest(o, &PaperScoring, &config)));
    for workers in [1, 4] {
        let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
        let parallel = parallel_ingest(&oracles, scoring, config, workers, ExecMetrics::new());
        assert_eq!(parallel.len(), sequential.len());
        for (got, want) in parallel.catalogs().zip(sequential.catalogs()) {
            let (got, want) = (got.unwrap(), want.unwrap());
            assert_eq!(
                got.encode().unwrap(),
                want.encode().unwrap(),
                "catalog for video {:?} drifted at {workers} workers",
                want.video
            );
        }
    }
}
