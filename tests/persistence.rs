//! Persistence round-trips: `save_dir` → `open_dir` (or each member file
//! on its own) must reproduce the repository byte-for-byte, and the
//! streaming `DirSink` must spell the same bytes onto disk as `MemorySink`
//! + `save_dir` at any worker count.

use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_exec::{parallel_ingest, parallel_ingest_into, ExecMetrics};
use svq_storage::{read_manifest, DirSink, FailingSink, IngestedVideo, VideoRepository};
use svq_types::{ActionClass, ObjectClass, PaperScoring, ScoringFunctions, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

fn oracle(video: u64, frames: u64, seed: u64) -> DetectionOracle {
    ScenarioSpec::activitynet(
        VideoId::new(video),
        frames,
        ActionClass::named("jumping"),
        vec![ObjectSpec::correlated(ObjectClass::named("car"))],
        seed,
    )
    .generate()
    .oracle(ModelSuite::accurate())
}

/// Canonical byte-level view of a repository: every catalog's encoded
/// file, in `VideoId` order.
fn fingerprint(repo: &VideoRepository) -> Vec<Vec<u8>> {
    repo.catalogs()
        .map(|c| c.unwrap().encode().unwrap())
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("svq_persistence_{tag}_{}", std::process::id()))
}

proptest! {
    /// `save_dir` → every member file loaded up front (eager) and
    /// `open_dir` (lazy) both reconstruct the repository byte-identically,
    /// and re-saving the reloaded repository reproduces the directory
    /// file-for-file.
    #[test]
    fn save_dir_round_trips_eagerly_and_lazily(
        specs in prop::collection::vec((400..1200u64, 0..1000u64), 1..4),
    ) {
        let mut repo = VideoRepository::new();
        for (i, &(frames, seed)) in specs.iter().enumerate() {
            let oracle = oracle(i as u64, frames, seed);
            repo.add(ingest(&oracle, &PaperScoring, &OnlineConfig::default()));
        }
        let want = fingerprint(&repo);

        let dir = scratch("prop");
        std::fs::remove_dir_all(&dir).ok();
        let report = repo.save_dir(&dir).unwrap();
        prop_assert_eq!(report.videos as usize, specs.len());

        // Eager reload: each member file on its own, no manifest involved.
        let eager = VideoRepository::from_catalogs(
            (0..specs.len()).map(|i| IngestedVideo::load(dir.join(format!("video-{i}.svqc"))).unwrap()),
        );
        prop_assert_eq!(eager.loaded_count(), specs.len());
        prop_assert_eq!(&fingerprint(&eager), &want);

        // Lazy reload: nothing resident until read, same bytes after.
        let lazy = VideoRepository::open_dir(&dir).unwrap();
        prop_assert_eq!(lazy.loaded_count(), 0);
        prop_assert_eq!(lazy.len(), specs.len());
        prop_assert_eq!(&fingerprint(&lazy), &want);
        prop_assert_eq!(lazy.loaded_count(), specs.len());

        // Re-saving the lazily loaded repository reproduces every file.
        let dir2 = scratch("prop2");
        std::fs::remove_dir_all(&dir2).ok();
        lazy.save_dir(&dir2).unwrap();
        let mut names: Vec<String> =
            read_manifest(&dir).unwrap().into_iter().map(|e| e.file).collect();
        names.push("manifest.json".to_string());
        for name in names {
            let a = std::fs::read(dir.join(&name)).unwrap();
            let b = std::fs::read(dir2.join(&name)).unwrap();
            prop_assert_eq!(a, b, "{} drifted across the round trip", name);
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }
}

proptest! {
    /// Crash-restart round trip: kill ingestion at a random sink write
    /// (optionally tearing the manifest's final line, as a crash between
    /// append and flush would), resume from the manifest, re-ingest only
    /// what is not yet durable — and the recovered directory is
    /// byte-identical to an uninterrupted run, file for file.
    #[test]
    fn crash_restart_recovers_byte_identical_repository(
        n_videos in 2..5usize,
        fail_after in 0..4u64,
        workers in 1..3usize,
        torn in any::<bool>(),
    ) {
        let oracles: Vec<Arc<DetectionOracle>> = (0..n_videos as u64)
            .map(|i| Arc::new(oracle(i, 500 + 100 * i, 70 + i)))
            .collect();
        let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
        let config = OnlineConfig::default();

        // Uninterrupted reference run.
        let ref_dir = scratch("crash_ref");
        std::fs::remove_dir_all(&ref_dir).ok();
        parallel_ingest_into(
            &oracles, scoring.clone(), config, workers,
            ExecMetrics::new(), DirSink::create(&ref_dir).unwrap(),
        ).unwrap();

        // Crashing run: the sink dies after `fail_after` accepts.
        let dir = scratch("crash_run");
        std::fs::remove_dir_all(&dir).ok();
        let crashed = parallel_ingest_into(
            &oracles, scoring.clone(), config, workers,
            ExecMetrics::new(),
            FailingSink::new(DirSink::create(&dir).unwrap(), fail_after),
        );
        prop_assert_eq!(
            crashed.is_err(),
            fail_after < n_videos as u64,
            "the injected crash fires iff it lands within the stream"
        );

        if torn {
            // A crash mid-append leaves a torn final manifest line.
            let path = dir.join("manifest.json");
            let text = std::fs::read_to_string(&path).unwrap();
            if !text.is_empty() {
                std::fs::write(&path, &text.as_bytes()[..text.len() - 2]).unwrap();
            }
        }

        // Restart: resume the directory, skip what already survived.
        let resumed = DirSink::resume(&dir).unwrap();
        let durable: Vec<u64> =
            resumed.recovered().iter().map(|e| e.video.raw()).collect();
        let remaining: Vec<Arc<DetectionOracle>> = oracles
            .iter()
            .filter(|o| !durable.contains(&o.truth().video.raw()))
            .cloned()
            .collect();
        parallel_ingest_into(
            &remaining, scoring, config, workers, ExecMetrics::new(), resumed,
        ).unwrap();

        // Byte identity, file for file.
        let mut names: Vec<String> =
            read_manifest(&ref_dir).unwrap().into_iter().map(|e| e.file).collect();
        names.push("manifest.json".to_string());
        prop_assert_eq!(names.len(), n_videos + 1);
        for name in names {
            let a = std::fs::read(ref_dir.join(&name)).unwrap();
            let b = std::fs::read(dir.join(&name)).unwrap();
            prop_assert_eq!(a, b, "{} drifted across crash-restart", name);
        }
        std::fs::remove_dir_all(&ref_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The streaming spill sink writes the exact bytes that collecting in RAM
/// and saving afterwards would — per catalog file and manifest — no matter
/// how many workers race the fan-in.
#[test]
fn json_dir_sink_matches_memory_sink_bytes() {
    let oracles: Vec<Arc<DetectionOracle>> =
        (0..5).map(|i| Arc::new(oracle(i, 1_000, 40 + i))).collect();
    let config = OnlineConfig::default();

    let mem_dir = scratch("mem");
    std::fs::remove_dir_all(&mem_dir).ok();
    let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
    let repo = parallel_ingest(&oracles, scoring.clone(), config, 2, ExecMetrics::new());
    repo.save_dir(&mem_dir).unwrap();

    for workers in [1usize, 2, 4] {
        let spill_dir = scratch(&format!("spill{workers}"));
        std::fs::remove_dir_all(&spill_dir).ok();
        let report = parallel_ingest_into(
            &oracles,
            scoring.clone(),
            config,
            workers,
            ExecMetrics::new(),
            DirSink::create(&spill_dir).unwrap(),
        )
        .unwrap();
        assert_eq!(report.videos, 5, "workers={workers}");

        let mut names: Vec<String> = read_manifest(&spill_dir)
            .unwrap()
            .into_iter()
            .map(|e| e.file)
            .collect();
        names.push("manifest.json".to_string());
        assert_eq!(names.len(), 6, "workers={workers}");
        for name in names {
            let a = std::fs::read(spill_dir.join(&name)).unwrap();
            let b = std::fs::read(mem_dir.join(&name)).unwrap();
            assert_eq!(a, b, "{name} differs at {workers} workers");
        }
        std::fs::remove_dir_all(&spill_dir).ok();
    }
    std::fs::remove_dir_all(&mem_dir).ok();
}
