//! Spill-to-disk ingestion vs the in-memory fan-in.
//!
//! Not a paper experiment: the paper ingests one video into RAM. This
//! benchmarks the PR 4 [`svq_storage::CatalogSink`] redesign — parallel
//! ingestion streaming every finished catalog through a bounded hand-off
//! into either sink:
//!
//! * **MemorySink** — today's behaviour: merge into an in-RAM
//!   [`svq_storage::VideoRepository`] (then persisted once with
//!   `save_dir` so the disk artifacts are comparable).
//! * **DirSink** — write-optimised spill: each catalog goes straight
//!   to `video-<id>.svqc` (temp-file + rename) the moment its worker
//!   finishes, with an append-only crash-safe manifest.
//!
//! For workers {1, 2, 4, 8} (smoke: {1, 2}) the sweep reports catalogs/sec,
//! bytes written, and the hand-off high-water mark, asserting two
//! invariants on every configuration: the high-water mark never exceeds
//! `workers + 1` (the bounded-memory contract), and the spill directory is
//! byte-identical to the memory-sink + `save_dir` directory (the
//! determinism contract).
//!
//! Results land in `results/ingest-spill.txt` (table) and
//! `results/ingest-spill.json` (machine-readable series).

use super::ExpContext;
use crate::Table;
use std::path::Path;
use std::sync::Arc;
use svq_core::online::OnlineConfig;
use svq_exec::{parallel_ingest_into, ExecMetrics};
use svq_storage::{read_manifest, DirSink, MemorySink};
use svq_types::{ActionClass, ObjectClass, PaperScoring, ScoringFunctions, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

const VIDEOS: u64 = 12;

fn oracles(ctx: &ExpContext, frames: u64) -> Vec<Arc<DetectionOracle>> {
    (0..VIDEOS)
        .map(|i| {
            let spec = ScenarioSpec::activitynet(
                VideoId::new(i),
                frames,
                ActionClass::named("jumping"),
                vec![ObjectSpec::correlated(ObjectClass::named("car"))],
                ctx.seed + i,
            );
            Arc::new(spec.generate().oracle(ModelSuite::accurate()))
        })
        .collect()
}

/// Assert the two sink directories hold byte-identical files.
fn assert_dirs_match(spill: &Path, mem: &Path, workers: usize) {
    let manifest = read_manifest(spill).expect("spill manifest readable");
    assert_eq!(
        manifest.len(),
        VIDEOS as usize,
        "manifest covers all videos"
    );
    let mut names: Vec<String> = manifest.into_iter().map(|e| e.file).collect();
    names.push("manifest.json".to_string());
    for name in names {
        let a = std::fs::read(spill.join(&name)).expect("spill file readable");
        let b = std::fs::read(mem.join(&name)).expect("mem file readable");
        assert_eq!(a, b, "{name} differs between sinks at {workers} workers");
    }
}

pub fn run(ctx: &ExpContext) {
    let smoke = ctx.scale < 0.05;
    let worker_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    let frames = ((ctx.scale * 30_000.0) as u64).max(1_500);
    let oracles = oracles(ctx, frames);
    let scratch = ctx.out_dir.join("ingest-spill-scratch");

    let mut table = Table::new(&[
        "workers",
        "mem catalogs/s",
        "spill catalogs/s",
        "ratio",
        "spill MB",
        "hand-off peak",
        "bound",
    ]);
    let mut series = Vec::new();
    for &workers in worker_counts {
        let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
        let mem_dir = scratch.join(format!("mem-{workers}"));
        let spill_dir = scratch.join(format!("spill-{workers}"));
        std::fs::remove_dir_all(&mem_dir).ok();
        std::fs::remove_dir_all(&spill_dir).ok();

        let started = std::time::Instant::now();
        let repo = parallel_ingest_into(
            &oracles,
            scoring.clone(),
            OnlineConfig::default(),
            workers,
            ExecMetrics::new(),
            MemorySink::new(),
        )
        .expect("memory sink never fails");
        let mem_wall = started.elapsed().as_secs_f64();
        repo.save_dir(&mem_dir).expect("save_dir");

        let metrics = ExecMetrics::new();
        let started = std::time::Instant::now();
        let report = parallel_ingest_into(
            &oracles,
            scoring,
            OnlineConfig::default(),
            workers,
            metrics.clone(),
            DirSink::create(&spill_dir).expect("create spill dir"),
        )
        .expect("spill ingest");
        let spill_wall = started.elapsed().as_secs_f64();

        let ing = metrics.snapshot().ingest;
        let bound = workers as u64 + 1;
        assert!(
            ing.buffered_high_water <= bound,
            "hand-off exceeded workers+1 at {workers} workers: {}",
            ing.buffered_high_water
        );
        assert_eq!(report.videos, VIDEOS);
        assert_eq!(report.bytes_written, ing.bytes_written);
        assert_dirs_match(&spill_dir, &mem_dir, workers);

        let mem_cps = VIDEOS as f64 / mem_wall;
        let spill_cps = VIDEOS as f64 / spill_wall;
        table.row(vec![
            workers.to_string(),
            format!("{mem_cps:.2}"),
            format!("{spill_cps:.2}"),
            format!("{:.2}x", spill_cps / mem_cps),
            format!("{:.1}", report.bytes_written as f64 / 1e6),
            ing.buffered_high_water.to_string(),
            bound.to_string(),
        ]);
        series.push(format!(
            "{{\"workers\": {workers}, \"mem_cps\": {mem_cps:.3}, \
             \"mem_wall_sec\": {mem_wall:.3}, \"spill_cps\": {spill_cps:.3}, \
             \"spill_wall_sec\": {spill_wall:.3}, \
             \"spill_bytes\": {}, \"sink_ms\": {:.2}, \
             \"handoff_high_water\": {}, \"handoff_bound\": {bound}, \
             \"byte_identical\": true}}",
            report.bytes_written, ing.sink_ms, ing.buffered_high_water
        ));
    }
    std::fs::remove_dir_all(&scratch).ok();

    let mut report = table.render();
    report.push_str(&format!(
        "\n{VIDEOS} videos x {frames} frames; spill directories byte-identical \
         to MemorySink + save_dir at every worker count; hand-off never \
         exceeded workers + 1 finished catalogs\n"
    ));
    ctx.emit("ingest-spill", &report);
    let json = format!(
        "{{\"experiment\": \"ingest-spill\", \"videos\": {VIDEOS}, \
         \"frames\": {frames}, \"scale\": {}, \"seed\": {}, \
         \"smoke\": {smoke}, \"sweep\": [\n  {}\n]}}\n",
        ctx.scale,
        ctx.seed,
        series.join(",\n  ")
    );
    if std::fs::create_dir_all(&ctx.out_dir).is_ok() {
        let _ = std::fs::write(ctx.out_dir.join("ingest-spill.json"), json);
    }
}
