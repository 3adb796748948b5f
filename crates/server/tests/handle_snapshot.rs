//! `ServerHandle::snapshot` and `ServerHandle::spawn_reporter`: the
//! registry's snapshot completed by the backend, as a `stats` request
//! answers it.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_serve::{Client, Request, Response, ServeConfig, Server, VideoScope};
use svq_storage::VideoRepository;
use svq_types::{
    ActionClass, BBox, FrameId, Interval, ObjectClass, PaperScoring, TrackId, VideoGeometry,
    VideoId,
};
use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

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
fn the_handle_snapshot_is_the_completed_stats_frame() {
    let live = Arc::new(oracle(0));
    let repo = Arc::new(VideoRepository::from_catalogs([ingest(
        &live,
        &PaperScoring,
        &OnlineConfig::default(),
    )]));
    let handle = Server::start(
        ServeConfig::default(),
        Some(repo),
        vec![live],
        svq_exec::ExecMetrics::new(),
    )
    .expect("server binds an ephemeral port");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client
        .expect_outcome(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::Sole,
        })
        .expect("query answers");
    let Response::Stats(frame) = client.request(&Request::Stats).expect("stats answers") else {
        panic!("expected a stats frame");
    };

    // The registry leaves what only the backend knows at 0; the handle
    // completes it as the `stats` answer does.
    let raw = handle.metrics().snapshot().server;
    assert_eq!(
        (raw.catalog_hits, raw.catalog_videos, raw.live_streams),
        (0, 0, 0)
    );
    let completed = handle.snapshot().server;
    for f in [&frame, &completed] {
        assert_eq!((f.catalog_hits, f.catalog_misses), (1, 0));
        assert_eq!((f.catalog_videos, f.live_streams), (1, 1));
    }

    // The periodic reporter delivers completed snapshots too.
    let (tx, rx) = mpsc::channel();
    let reporter = handle.spawn_reporter(Duration::from_millis(5), move |snapshot| {
        let _ = tx.send(snapshot.server);
    });
    let reported = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the reporter fires");
    reporter.stop();
    assert_eq!((reported.catalog_videos, reported.live_streams), (1, 1));
    handle.shutdown();
    handle.wait();
}
