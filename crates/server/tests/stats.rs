//! The `stats` frame: its exact wire line, and the catalog residency
//! counts a served repository reports through it.

use std::sync::Arc;
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_serve::{
    encode_response_line, Client, Request, Response, ResponseFrame, ServeConfig, Server,
    StatsFrame, VideoScope,
};
use svq_storage::VideoRepository;
use svq_types::{
    ActionClass, BBox, FrameId, Interval, ObjectClass, PaperScoring, TrackId, VideoGeometry,
    VideoId,
};
use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

/// A frame with a distinct value in every field, so a field that moves,
/// vanishes or changes name changes the line.
fn distinct_frame() -> StatsFrame {
    StatsFrame {
        active_conns: 1,
        peak_conns: 2,
        accepted: 3,
        rejected_busy: 4,
        rejected_draining: 5,
        timed_out: 6,
        malformed: 7,
        accept_errors: 8,
        catalog_hits: 9,
        catalog_misses: 10,
        catalog_videos: 11,
        live_streams: 12,
        req_query: 13,
        req_stream: 14,
        req_subscribe: 15,
        req_unsubscribe: 16,
        req_stats: 17,
        req_shutdown: 18,
        requests: 19,
        subs_active: 20,
        subs_peak: 21,
        subs_opened: 22,
        subs_events: 23,
        subs_lagged: 24,
        subs_missed: 25,
        subs_queue_depth: 26,
        latency_p50_ms: 27.5,
        latency_p95_ms: 28.25,
        latency_p99_ms: 29.125,
        total_clips: 30,
        shards: 31,
        shards_up: 32,
    }
}

const STATS_LINE: &str = concat!(
    r#"{"kind":"stats","stats":{"active_conns":1,"peak_conns":2,"accepted":3,"#,
    r#""rejected_busy":4,"rejected_draining":5,"timed_out":6,"malformed":7,"#,
    r#""accept_errors":8,"catalog_hits":9,"catalog_misses":10,"catalog_videos":11,"#,
    r#""live_streams":12,"req_query":13,"req_stream":14,"req_subscribe":15,"#,
    r#""req_unsubscribe":16,"req_stats":17,"req_shutdown":18,"requests":19,"#,
    r#""subs_active":20,"subs_peak":21,"subs_opened":22,"subs_events":23,"#,
    r#""subs_lagged":24,"subs_missed":25,"subs_queue_depth":26,"latency_p50_ms":27.5,"#,
    r#""latency_p95_ms":28.25,"latency_p99_ms":29.125,"total_clips":30,"shards":31,"#,
    r#""shards_up":32}}"#,
    "\n"
);

#[test]
fn stats_line_is_byte_stable() {
    let frame = distinct_frame();
    let line = encode_response_line(&Response::Stats(frame), None);
    assert_eq!(line, STATS_LINE);
    let back: ResponseFrame = serde_json::from_str(line.trim_end()).expect("line decodes");
    assert_eq!(back.response, Response::Stats(frame));
}

const OFFLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car') \
     ORDER BY RANK(act, obj) LIMIT 3";

fn oracle(video: u64) -> DetectionOracle {
    let mut gt = GroundTruth::new(VideoId::new(video), VideoGeometry::default(), 1_200);
    gt.tracks.push(ObjectTrack {
        class: ObjectClass::named("car"),
        track: TrackId::new(1),
        frames: Interval::new(FrameId::new(300), FrameId::new(799)),
        visibility: 1.0,
        bbox: BBox::FULL,
    });
    gt.actions.push(ActionSpan {
        class: ActionClass::named("jumping"),
        frames: Interval::new(FrameId::new(400), FrameId::new(899)),
        salience: 1.0,
    });
    let confusion = SceneConfusion {
        objects: vec![(ObjectClass::named("car"), 1.0)],
        actions: vec![(ActionClass::named("jumping"), 1.0)],
    };
    DetectionOracle::new(Arc::new(gt), ModelSuite::accurate(), &confusion, 7 + video)
}

#[test]
fn served_catalog_counts_are_the_repository_counts() {
    let dir = std::env::temp_dir().join(format!("svq_serve_stats_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    VideoRepository::from_catalogs(
        (0..2).map(|v| ingest(&oracle(v), &PaperScoring, &OnlineConfig::default())),
    )
    .save_dir(&dir)
    .expect("catalogs spill");
    let repo = Arc::new(
        VideoRepository::open_dir(&dir)
            .expect("manifest reads")
            .with_cache_capacity(1),
    );
    let handle = Server::start(
        ServeConfig::default(),
        Some(repo.clone()),
        Vec::new(),
        svq_exec::ExecMetrics::new(),
    )
    .expect("server binds an ephemeral port");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for video in [
        VideoScope::One(0),
        VideoScope::One(1),
        VideoScope::One(1),
        VideoScope::All,
        VideoScope::One(0),
    ] {
        client
            .expect_outcome(&Request::Query {
                sql: OFFLINE_SQL.into(),
                video,
            })
            .expect("query answers");
    }
    let Response::Stats(frame) = client.request(&Request::Stats).expect("stats answers") else {
        panic!("expected a stats frame");
    };
    let cache = repo.cache_stats();
    assert_eq!(
        (frame.catalog_hits, frame.catalog_misses),
        (cache.hits, cache.misses)
    );
    // Capacity 1 over two videos: 0 miss, 1 miss, 1 hit, then `all`
    // misses 0 and 1 in turn, and 0 misses again.
    assert_eq!((cache.hits, cache.misses), (1, 5));
    assert_eq!(frame.catalog_videos, 2);
    assert_eq!(frame.req_query, 5);
    handle.shutdown();
    handle.wait();
    std::fs::remove_dir_all(&dir).ok();
}
