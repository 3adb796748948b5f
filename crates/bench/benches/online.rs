//! Online-path throughput: clips per second through SVAQ and SVAQD
//! (excluding simulated model cost — the pure query-algorithm overhead the
//! paper reports as <2 % of latency), and `execute_online` — what one
//! served `stream` request runs — on a 1200-clip video for svqbench's three
//! online statement shapes. The video stays resident across iterations, as
//! it does in a server, so its occurrence counts are built by the first
//! iteration and read by the rest.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use svq_core::online::{OnlineConfig, Svaqd};
use svq_eval::workloads::youtube_query_set;
use svq_query::{execute_online, parse, LogicalPlan};
use svq_types::{ActionClass, ObjectClass, VideoId};
use svq_vision::models::ModelSuite;
use svq_vision::synth::{ObjectSpec, ScenarioSpec};
use svq_vision::{VideoStream, WallClock};

fn bench_online(c: &mut Criterion) {
    let set = youtube_query_set(1, 0.1, 7);
    let video = &set.videos[0];
    let oracle = video.oracle(ModelSuite::accurate());
    let clips = video.truth.geometry.clip_count(video.truth.total_frames);

    let mut group = c.benchmark_group("online");
    group.throughput(Throughput::Elements(clips));
    group.bench_function("svaq_full_video", |b| {
        b.iter(|| {
            let mut stream = VideoStream::new(&oracle);
            Svaqd::svaq(
                set.query.clone(),
                stream.geometry(),
                OnlineConfig::default(),
                1e-2,
                1e-2,
            )
            .run_over(&mut stream, &WallClock::new())
        })
    });
    group.bench_function("svaqd_full_video", |b| {
        b.iter(|| {
            let mut stream = VideoStream::new(&oracle);
            Svaqd::run(
                set.query.clone(),
                &mut stream,
                OnlineConfig::default(),
                1e-4,
                1e-4,
            )
        })
    });
    group.finish();
}

fn bench_execute_online(c: &mut Criterion) {
    // svqbench's corpus video 0 (`crates/svqbench/src/gen.rs`).
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
    let shapes = [
        ("car", "obj.include('car')"),
        ("car_person", "obj.include('car', 'person')"),
        (
            "car_or_person",
            "(obj.include('car') OR obj.include('person'))",
        ),
    ];
    let mut group = c.benchmark_group("online");
    group.throughput(Throughput::Elements(oracle.clip_count()));
    for (name, predicate) in shapes {
        let sql = format!(
            "SELECT MERGE(clipID) AS Sequence FROM (PROCESS inputVideo PRODUCE clipID) \
             WHERE act='jumping' AND {predicate}"
        );
        let plan = LogicalPlan::from_statement(&parse(&sql).expect("parse")).expect("plan");
        group.bench_function(&format!("execute_online_{name}_1200_clips"), |b| {
            b.iter(|| {
                execute_online(
                    &plan,
                    &mut VideoStream::new(&oracle),
                    OnlineConfig::default(),
                )
                .expect("online plan")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_online, bench_execute_online);
criterion_main!(benches);
