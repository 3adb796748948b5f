//! Frame encode and decode cost, and the engine run they wrap.
//!
//! One `outcome` frame written to wire text, the way the server answers a
//! request (`encode_response_line`, with a pipeline id) and the way a
//! client checks an answer against in-process execution
//! (`serde_json::to_string` of the canonical outcome); the client's read of
//! that line (`*_decode_response_line`, straight from the text); the
//! server's read of the `stream` request line (`request_decode`,
//! `parse_request_frame`); and, for scale, the `execute_online` run that
//! answers it (`stream_execute_online`).
//!
//! Two outcomes from svqbench's corpus video 0 (1200 clips): the `stream`
//! answer to its single-object online statement (`stream_*`, ~1.1 kB of
//! text) and a top-10 offline answer (`top10_*`). The frame sizes print
//! first, on stderr, so a change to a frame's shape shows beside the
//! times.
//!
//! Run with `cargo bench -p svq-serve --bench protocol`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_query::{execute_offline, execute_online, parse, LogicalPlan, QueryOutcome};
use svq_serve::{
    encode_request_line, encode_response_line, parse_request_frame, Request, Response,
    ResponseFrame,
};
use svq_types::{ActionClass, ObjectClass, PaperScoring, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};
use svq_vision::VideoStream;

const STREAM_SQL: &str = "SELECT MERGE(clipID) AS Sequence \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car')";

const TOP10_SQL: &str = "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car') \
     ORDER BY RANK(act, obj) LIMIT 10";

fn plan(sql: &str) -> LogicalPlan {
    LogicalPlan::from_statement(&parse(sql).expect("parse")).expect("plan")
}

/// svqbench's corpus video 0.
fn corpus_video_0() -> DetectionOracle {
    ScenarioSpec::activitynet(
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
    .oracle(ModelSuite::accurate())
}

fn stream(oracle: &DetectionOracle, plan: &LogicalPlan) -> QueryOutcome {
    execute_online(plan, &mut VideoStream::new(oracle), OnlineConfig::default())
        .expect("online plan")
}

/// svqbench's stream and top-10 outcomes on its corpus video 0.
fn outcomes(oracle: &DetectionOracle) -> [(&'static str, QueryOutcome); 2] {
    let stream = stream(oracle, &plan(STREAM_SQL));
    let catalog = ingest(oracle, &PaperScoring, &OnlineConfig::default());
    let top10 = execute_offline(&plan(TOP10_SQL), &catalog, &PaperScoring).expect("offline plan");
    [("stream", stream), ("top10", top10)]
}

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol");
    let oracle = corpus_video_0();
    let request = encode_request_line(
        &Request::Stream {
            sql: STREAM_SQL.into(),
            video: Some(0),
        },
        Some(7),
    );
    eprintln!("stream: request line {} B", request.len());
    group.bench_function("request_decode", |b| {
        b.iter(|| parse_request_frame(black_box(request.trim_end().as_bytes())).expect("decodes"))
    });
    let online = plan(STREAM_SQL);
    group.bench_function("stream_execute_online", |b| {
        b.iter(|| stream(black_box(&oracle), &online))
    });
    for (name, outcome) in outcomes(&oracle) {
        let response = Response::Outcome(outcome.clone());
        let canonical = outcome.canonical();
        eprintln!(
            "{name}: response line {} B, canonical outcome {} B",
            encode_response_line(&response, Some(7)).len(),
            serde_json::to_string(&canonical).expect("encodes").len()
        );
        group.bench_function(&format!("{name}_encode_response_line"), |b| {
            b.iter(|| encode_response_line(black_box(&response), Some(7)))
        });
        group.bench_function(&format!("{name}_canonical_to_string"), |b| {
            b.iter(|| serde_json::to_string(black_box(&canonical)).expect("encodes"))
        });
        // The client's side of the same frame: read straight from the text.
        let line = encode_response_line(&response, Some(7));
        group.bench_function(&format!("{name}_decode_response_line"), |b| {
            b.iter(|| {
                serde_json::from_str::<ResponseFrame>(black_box(line.trim_end())).expect("decodes")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_protocol);
criterion_main!(benches);
