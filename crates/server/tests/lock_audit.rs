//! The serving workload must be free of lock-order inversions.
//!
//! Drives the full service concurrently — admission races, mixed
//! query/stream/stats traffic, malformed frames, and a drain racing
//! in-flight requests — with parking_lot's `lock-audit` feature recording
//! every acquisition into the global order graph, then asserts the graph
//! is acyclic. Compiled only under
//! `cargo test -p svq-serve --features lock-audit`.

#![cfg(feature = "lock-audit")]

use std::sync::Arc;
use std::time::Duration;
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_serve::{Client, Request, Response, ServeConfig, Server};
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
     ORDER BY RANK(act, obj) LIMIT 2";

const ONLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car')";

fn oracle(video: u64, seed: u64) -> Arc<DetectionOracle> {
    let mut gt = GroundTruth::new(VideoId::new(video), VideoGeometry::default(), 2_000);
    gt.tracks.push(ObjectTrack {
        class: ObjectClass::named("car"),
        track: TrackId::new(1),
        frames: Interval::new(FrameId::new(600), FrameId::new(999)),
        visibility: 1.0,
        bbox: BBox::FULL,
    });
    gt.actions.push(ActionSpan {
        class: ActionClass::named("jumping"),
        frames: Interval::new(FrameId::new(600), FrameId::new(999)),
        salience: 1.0,
    });
    let confusion = SceneConfusion {
        objects: vec![(ObjectClass::named("car"), 1.0)],
        actions: vec![(ActionClass::named("jumping"), 1.0)],
    };
    Arc::new(DetectionOracle::new(
        Arc::new(gt),
        ModelSuite::accurate(),
        &confusion,
        seed,
    ))
}

#[test]
fn serving_workload_has_no_lock_order_inversions() {
    parking_lot::lock_audit::reset();

    let oracles: Vec<_> = (0..3).map(|i| oracle(i, 500 + i)).collect();
    let repo = Arc::new(VideoRepository::from_catalogs(
        oracles
            .iter()
            .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default())),
    ));
    let handle = Server::start(
        ServeConfig::builder()
            .max_conns(4)
            .workers(4)
            .drain_timeout(Duration::from_secs(30))
            .build()
            .expect("config is valid"),
        Some(repo),
        oracles,
        svq_exec::ExecMetrics::new(),
    )
    .expect("server starts");
    let addr = handle.local_addr();

    // Eight clients race four slots with mixed traffic: admission control,
    // per-video query gates, mux sessions, the metrics registry, and the
    // malformed path all contend at once.
    let clients: Vec<_> = (0..8u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(client) => client,
                    Err(_) => return,
                };
                for round in 0..4u64 {
                    let video = Some((c + round) % 3);
                    let result = match (c + round) % 4 {
                        0 => client.request(&Request::Query {
                            sql: OFFLINE_SQL.into(),
                            video: video.into(),
                        }),
                        1 => client.request(&Request::Stream {
                            sql: ONLINE_SQL.into(),
                            video,
                        }),
                        2 => client.request(&Request::Stats),
                        _ => client.send_raw(b"{\"kind\": \"warp\"}"),
                    };
                    match result {
                        // A busy frame ends the exchange (the server closed).
                        Ok(Response::Error { reason, .. })
                            if reason == svq_types::RejectReason::Busy =>
                        {
                            return
                        }
                        Ok(_) => {}
                        Err(_) => return,
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    // Drain racing one more in-flight request.
    let late = std::thread::spawn(move || {
        if let Ok(mut client) = Client::connect(addr) {
            let _ = client.request(&Request::Stream {
                sql: ONLINE_SQL.into(),
                video: Some(1),
            });
        }
    });
    handle.shutdown();
    late.join().expect("late client");
    let report = handle.wait();
    assert!(report.accepted >= 1);

    let reports = parking_lot::lock_audit::reports();
    assert!(
        reports.is_empty(),
        "serving workload produced lock-order inversions:\n{}",
        reports
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
