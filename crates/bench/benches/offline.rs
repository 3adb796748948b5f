//! Offline-path benchmarks: ingestion, the Eq. 12 interval intersection,
//! RVAQ versus the baselines on a movie catalog, RVAQ at K = 3 and K = 10 on
//! 1200- and 2400-clip catalogs of the svqbench corpus, the served mix of
//! svqbench's nine exact-score statements on its video 0, and the catalog
//! file codec on the 360-clip catalogs svqbench's `topk_cold` decodes once
//! per cache miss. TBClip's bookkeeping must stay close to linear in its
//! table accesses, so the larger sizes must not cost much more per access
//! than the small one: a call re-keys only the clips that can still lead,
//! off a queue whose stored keys never rank ahead of a clip's current one
//! (frontiers only move away from their end, and memoising only moves a
//! key back) — on svqbench's `topk_hot`, 11.7 clips keyed per call where
//! bounding every live clip was 126.
//!
//! Every catalog is built on first use, so a filtered run
//! (`cargo bench -p svq-bench --bench offline -- rvaq_served_mix`) builds
//! only what the selected benches read.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::LazyLock;
use svq_core::offline::{ingest, FaTopK, PqTraverse, Rvaq, RvaqOptions};
use svq_core::online::OnlineConfig;
use svq_eval::workloads::movies_workload;
use svq_storage::{IngestedVideo, SequenceSet};
use svq_types::{
    ActionClass, ActionQuery, ClipId, ClipInterval, Interval, ObjectClass, PaperScoring, VideoId,
};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

/// The first movie of the Table 2 workload: its query, oracle and catalog.
struct Movie {
    query: ActionQuery,
    oracle: DetectionOracle,
    catalog: IngestedVideo,
}

/// svqbench's video 0 (`crates/svqbench/src/gen.rs`) at `frames` frames,
/// ingested on first use.
fn svqbench_catalog(frames: u64) -> LazyLock<IngestedVideo, impl FnOnce() -> IngestedVideo> {
    LazyLock::new(move || {
        let oracle = ScenarioSpec::activitynet(
            VideoId::new(0),
            frames,
            ActionClass::named("jumping"),
            vec![
                ObjectSpec::correlated(ObjectClass::named("car")),
                ObjectSpec::scene(ObjectClass::named("person")),
            ],
            20_230_403,
        )
        .generate()
        .oracle(ModelSuite::accurate());
        ingest(&oracle, &PaperScoring, &OnlineConfig::default())
    })
}

fn bench_offline(c: &mut Criterion) {
    let movie = LazyLock::new(|| {
        let case = movies_workload(0.1, 7).swap_remove(0);
        let oracle = case.video.oracle(ModelSuite::accurate());
        let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
        Movie {
            query: case.query,
            oracle,
            catalog,
        }
    });

    c.bench_function("ingest_10min_movie", |b| {
        let oracle = &movie.oracle;
        b.iter(|| ingest(oracle, &PaperScoring, &OnlineConfig::default()))
    });
    c.bench_function("rvaq_top5", |b| {
        let m: &Movie = &movie;
        b.iter(|| Rvaq::run(&m.catalog, &m.query, &PaperScoring, RvaqOptions::new(5)))
    });
    c.bench_function("pq_traverse_top5", |b| {
        let m: &Movie = &movie;
        b.iter(|| PqTraverse::run(&m.catalog, &m.query, &PaperScoring, 5))
    });
    c.bench_function("fa_top5", |b| {
        let m: &Movie = &movie;
        b.iter(|| FaTopK::run(&m.catalog, &m.query, &PaperScoring, 5))
    });

    // svqbench's video 0 at 60 000 and 120 000 frames, its costliest
    // statement shape, K = 3 and K = 10. At K = 10 runs take many more
    // iterator calls, so TBClip's per-call candidate ranking weighs most.
    let query = ActionQuery::named("jumping", &["car", "person"]);
    let catalog_360 = svqbench_catalog(18_000);
    let catalog_1200 = svqbench_catalog(60_000);
    let catalog_2400 = svqbench_catalog(120_000);
    for (catalog, clips) in [(&catalog_1200, 1200), (&catalog_2400, 2400)] {
        for k in [3, 10] {
            c.bench_function(&format!("rvaq_top{k}_{clips}_clips"), |b| {
                let catalog: &IngestedVideo = catalog;
                b.iter(|| Rvaq::run(catalog, &query, &PaperScoring, RvaqOptions::new(k)))
            });
        }
    }

    // The served shape: svqbench's statements on video 0, its three object
    // shapes at K = 1, 3 and 10, with exact scores as `execute_offline`
    // asks for them. One iteration runs all nine.
    let served: Vec<(ActionQuery, RvaqOptions)> =
        [&["car"][..], &["person"][..], &["car", "person"][..]]
            .into_iter()
            .flat_map(|objects| {
                [1, 3, 10].map(|k| {
                    (
                        ActionQuery::named("jumping", objects),
                        RvaqOptions::new(k).with_exact_scores(),
                    )
                })
            })
            .collect();
    c.bench_function("rvaq_served_mix_1200_clips", |b| {
        let catalog: &IngestedVideo = &catalog_1200;
        b.iter(|| {
            for (query, options) in &served {
                black_box(Rvaq::run(catalog, query, &PaperScoring, *options));
            }
        })
    });

    // The catalog file: `topk_cold` spills 18 000-frame videos.
    c.bench_function("catalog_encode_360_clips", |b| {
        let catalog: &IngestedVideo = &catalog_360;
        b.iter(|| catalog.encode())
    });
    for (catalog, clips) in [(&catalog_360, 360), (&catalog_1200, 1200)] {
        let bytes = LazyLock::new(|| catalog.encode().expect("synth clip ids fit u32"));
        c.bench_function(&format!("catalog_decode_{clips}_clips"), |b| {
            let bytes: &[u8] = &bytes;
            b.iter(|| IngestedVideo::decode(bytes))
        });
    }

    // Eq. 12 interval sweep on synthetic interval sets.
    let mk = |offset: u64, step: u64, len: u64, n: u64| {
        SequenceSet::new(
            (0..n)
                .map(|i| {
                    let s = offset + i * step;
                    Interval::new(ClipId::new(s), ClipId::new(s + len)) as ClipInterval
                })
                .collect(),
        )
    };
    let a = mk(0, 20, 8, 2_000);
    let b2 = mk(5, 17, 6, 2_000);
    c.bench_function("interval_sweep_2k_x_2k", |b| b.iter(|| a.intersect(&b2)));
}

criterion_group!(benches, bench_offline);
criterion_main!(benches);
