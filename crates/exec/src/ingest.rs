//! Parallel repository ingestion over a pluggable [`CatalogSink`].
//!
//! Ingestion (§4.1) is query-independent and per-video: each video's catalog
//! is built from its own detections only. That makes the fan-out trivial to
//! parallelise — one pool job per video — and the fan-in the only place
//! determinism (and memory) could leak. [`parallel_ingest_into`] closes both
//! holes:
//!
//! * **Determinism.** The sink decides the merge: [`MemorySink`] keys by
//!   [`svq_types::VideoId`] and [`svq_storage::DirSink`] canonicalises
//!   its manifest at finish, so the output is identical to a sequential
//!   ingest no matter how workers interleaved.
//! * **Memory.** Workers hand each finished [`svq_storage::IngestedVideo`]
//!   through a *bounded* (capacity-1) channel to a single consumer that
//!   feeds the sink, instead of the unbounded buffering of the old
//!   `Vec`-collect fan-in. A worker takes one of `workers + 1` permits
//!   before it sends, and the consumer returns it once the sink has taken
//!   the catalog, so at most `workers + 1` finished catalogs exist at any
//!   instant: on a blocked send, in the channel, or held by the consumer
//!   while `CatalogSink::accept` runs. The spill sink therefore ingests
//!   repositories far larger than RAM.
//!
//! The permits held are the hand-off depth in [`ExecMetrics::ingest`]
//! (`buffered`, peak `buffered_high_water`), which tests and the
//! `ingest-spill` bench assert against the `workers + 1` bound.

use crate::metrics::ExecMetrics;
use crate::pool::WorkerPool;
use crossbeam::channel::bounded;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_core::ScoringFunctions;
use svq_storage::{CatalogSink, MemorySink, VideoRepository};
use svq_types::SvqResult;
use svq_vision::models::DetectionOracle;

/// Ingest many videos concurrently, streaming each finished catalog into
/// `sink` the moment a worker completes it.
///
/// Spawns one job per oracle on a fresh pool of `workers` threads (metrics
/// land in `metrics` under one session entry per video, hand-off depth and
/// sink latency under [`ExecMetrics::ingest`]). Panicking ingests are
/// isolated by the pool; their videos are simply absent from the result,
/// mirroring how the multiplexer poisons only the failing session. A sink
/// error aborts consumption and is returned after the pool drains.
pub fn parallel_ingest_into<S: CatalogSink>(
    oracles: &[Arc<DetectionOracle>],
    scoring: Arc<dyn ScoringFunctions + Send + Sync>,
    config: OnlineConfig,
    workers: usize,
    metrics: ExecMetrics,
    mut sink: S,
) -> SvqResult<S::Output> {
    let pool = WorkerPool::new(workers, oracles.len().max(1), metrics.clone());
    // Capacity 1: a worker with a finished catalog blocks until the
    // consumer is ready. The permits are a token per finished catalog not
    // yet sunk; their capacity bounds resident catalogs at `workers + 1`.
    let (tx, rx) = bounded(1);
    let (permit, permits) = bounded(workers + 1);
    for oracle in oracles {
        let oracle = oracle.clone();
        let scoring = scoring.clone();
        let (tx, permit) = (tx.clone(), permit.clone());
        let metrics = metrics.clone();
        let counters = pool
            .metrics()
            .register_session(format!("ingest/v{}", oracle.truth().video.raw()));
        pool.submit(Box::new(move || {
            let started = std::time::Instant::now();
            let catalog = ingest(&oracle, scoring.as_ref(), &config);
            counters
                .clips_processed
                .fetch_add(catalog.clip_count, Ordering::Relaxed);
            counters
                .eval_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            // The gauge rises only after a permit is taken and falls before
            // one is returned, so it never exceeds the permits' capacity.
            let _ = permit.send(());
            metrics.ingest().enter_buffer();
            let _ = tx.send(catalog);
        }));
    }
    drop((tx, permit));
    // Workers drop their tx clones with the job closures; consuming until
    // disconnect therefore drains exactly the non-panicked catalogs. After
    // a sink error the rest are dropped unsunk, so workers never block
    // forever.
    let mut sink_error = None;
    for catalog in rx.iter() {
        if sink_error.is_none() {
            let accepted = std::time::Instant::now();
            let outcome = sink.accept(catalog);
            let ing = metrics.ingest();
            ing.sink_nanos
                .fetch_add(accepted.elapsed().as_nanos() as u64, Ordering::Relaxed);
            match outcome {
                Ok(()) => {
                    ing.catalogs_sunk.fetch_add(1, Ordering::Relaxed);
                    ing.bytes_written
                        .store(sink.bytes_written(), Ordering::Relaxed);
                }
                Err(e) => sink_error = Some(e),
            }
        }
        metrics.ingest().exit_buffer();
        let _ = permits.recv();
    }
    pool.shutdown();
    match sink_error {
        Some(e) => Err(e),
        None => sink.finish(),
    }
}

/// Ingest many videos concurrently into one deterministic in-memory
/// repository — [`parallel_ingest_into`] with a [`MemorySink`].
pub fn parallel_ingest(
    oracles: &[Arc<DetectionOracle>],
    scoring: Arc<dyn ScoringFunctions + Send + Sync>,
    config: OnlineConfig,
    workers: usize,
    metrics: ExecMetrics,
) -> VideoRepository {
    parallel_ingest_into(
        oracles,
        scoring,
        config,
        workers,
        metrics,
        MemorySink::new(),
    )
    .expect("MemorySink never fails")
}

#[cfg(test)]
mod tests {
    use super::*;
    use svq_core::PaperScoring;
    use svq_storage::DirSink;
    use svq_types::{ActionClass, ObjectClass, VideoId};
    use svq_vision::models::ModelSuite;
    use svq_vision::synth::{ObjectSpec, ScenarioSpec};

    fn oracles(n: u64) -> Vec<Arc<DetectionOracle>> {
        (0..n)
            .map(|i| {
                let spec = ScenarioSpec::activitynet(
                    VideoId::new(i),
                    1_500,
                    ActionClass::named("jumping"),
                    vec![ObjectSpec::correlated(ObjectClass::named("car"))],
                    7 + i,
                );
                Arc::new(spec.generate().oracle(ModelSuite::accurate()))
            })
            .collect()
    }

    /// Byte-identical repository comparison via the persistence format.
    fn fingerprint(repo: &VideoRepository) -> Vec<Vec<u8>> {
        repo.catalogs()
            .map(|v| v.unwrap().encode().unwrap())
            .collect()
    }

    #[test]
    fn parallel_ingest_matches_sequential() {
        let oracles = oracles(4);
        let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
        let config = OnlineConfig::default();

        let sequential = VideoRepository::from_catalogs(
            oracles.iter().map(|o| ingest(o, &PaperScoring, &config)),
        );
        let parallel = parallel_ingest(&oracles, scoring, config, 4, ExecMetrics::new());

        assert_eq!(parallel.len(), 4);
        assert_eq!(fingerprint(&parallel), fingerprint(&sequential));
    }

    #[test]
    fn spilled_ingest_matches_memory_and_bounds_buffering() {
        let oracles = oracles(6);
        let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
        let config = OnlineConfig::default();
        let workers = 2;

        let memory = parallel_ingest(
            &oracles,
            scoring.clone(),
            config,
            workers,
            ExecMetrics::new(),
        );

        let dir =
            std::env::temp_dir().join(format!("svq_parallel_spill_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let metrics = ExecMetrics::new();
        let report = parallel_ingest_into(
            &oracles,
            scoring,
            config,
            workers,
            metrics.clone(),
            DirSink::create(&dir).unwrap(),
        )
        .unwrap();
        assert_eq!(report.videos, 6);
        assert!(report.bytes_written > 0);

        let snap = metrics.snapshot();
        assert_eq!(snap.ingest.catalogs_built, 6);
        assert_eq!(snap.ingest.catalogs_sunk, 6);
        assert_eq!(snap.ingest.buffered, 0, "hand-off drained");
        assert!(
            snap.ingest.buffered_high_water <= workers as u64 + 1,
            "hand-off exceeded workers+1: {}",
            snap.ingest.buffered_high_water
        );
        assert_eq!(snap.ingest.bytes_written, report.bytes_written);

        // The spilled directory reloads into the same repository the
        // memory sink produced.
        let reloaded = VideoRepository::open_dir(&dir).unwrap();
        assert_eq!(fingerprint(&reloaded), fingerprint(&memory));
        std::fs::remove_dir_all(&dir).ok();
    }
}
