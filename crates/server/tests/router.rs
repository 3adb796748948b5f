//! Cluster router end-to-end tests: a router fronting hash-sliced shard
//! servers must be observably identical to one server holding the whole
//! catalog — byte-identical outcomes for targeted, sole-video, and
//! cross-catalog queries — and a killed shard must surface as a typed
//! `shard_unavailable` error, never a hang.

use std::sync::Arc;
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_exec::shard_index;
use svq_query::QueryOutcome;
use svq_serve::{
    Client, Request, Response, RouteConfig, Router, ServeConfig, ServeReport, Server, ServerHandle,
    VideoScope,
};
use svq_storage::VideoRepository;
use svq_types::{
    ActionClass, BBox, FrameId, Interval, ObjectClass, PaperScoring, RejectReason, TrackId,
    VideoGeometry, VideoId,
};
use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

const OFFLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car') \
     ORDER BY RANK(act, obj) LIMIT 3";

const ONLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car')";

/// Deterministic oracle per video: car & jumping on a span whose start
/// varies with the video id, so different videos rank differently and a
/// cross-shard merge has real ordering work to do.
fn oracle(video: u64, frames: u64) -> Arc<DetectionOracle> {
    let mut gt = GroundTruth::new(VideoId::new(video), VideoGeometry::default(), frames);
    let start = 400 + (video % 4) * 100;
    gt.tracks.push(ObjectTrack {
        class: ObjectClass::named("car"),
        track: TrackId::new(1),
        frames: Interval::new(FrameId::new(start), FrameId::new(999)),
        visibility: 1.0,
        bbox: BBox::FULL,
    });
    gt.actions.push(ActionSpan {
        class: ActionClass::named("jumping"),
        frames: Interval::new(FrameId::new(start), FrameId::new(999)),
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
        42 + video,
    ))
}

fn repo_of(oracles: &[Arc<DetectionOracle>]) -> Arc<VideoRepository> {
    Arc::new(VideoRepository::from_catalogs(
        oracles
            .iter()
            .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default())),
    ))
}

/// One shard server holding the catalog slice `shard_index(v, count) ==
/// index` — the same placement rule the router and `svqact serve
/// --shard-index` use.
fn start_shard(videos: &[u64], index: usize, count: usize, frames: u64) -> ServerHandle {
    let oracles: Vec<_> = videos
        .iter()
        .filter(|&&v| shard_index(VideoId::new(v), count) == index)
        .map(|&v| oracle(v, frames))
        .collect();
    let repo = repo_of(&oracles);
    Server::start(
        ServeConfig::default(),
        Some(repo),
        oracles,
        svq_exec::ExecMetrics::new(),
    )
    .expect("shard binds")
}

/// A whole cluster: `count` shard servers plus a router fronting them.
fn start_cluster(videos: &[u64], count: usize, frames: u64) -> (ServerHandle, Vec<ServerHandle>) {
    let shards: Vec<_> = (0..count)
        .map(|i| start_shard(videos, i, count, frames))
        .collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.local_addr().to_string()).collect();
    let router = Router::start(
        RouteConfig::builder().build().expect("config is valid"),
        &addrs,
        svq_exec::ExecMetrics::new(),
    )
    .expect("router binds");
    (router, shards)
}

fn canonical_json(outcome: &QueryOutcome) -> String {
    serde_json::to_string(&outcome.canonical()).expect("outcome encodes")
}

/// Drain the router, then its shards; returns the router's report.
fn shutdown_all(router: ServerHandle, shards: Vec<ServerHandle>) -> ServeReport {
    router.shutdown();
    let report = router.wait();
    for shard in shards {
        shard.shutdown();
        shard.wait();
    }
    report
}

#[test]
fn cluster_outcomes_are_byte_identical_to_a_single_server() {
    let videos = [0u64, 1, 2, 3, 4, 5];
    let frames = 1_500;
    // Reference: one server holding every video.
    let single = start_shard(&videos, 0, 1, frames);
    let mut single_client = Client::connect(single.local_addr()).expect("connect single");

    for count in [1usize, 2, 4] {
        let (router, shards) = start_cluster(&videos, count, frames);
        let mut client = Client::connect(router.local_addr()).expect("connect router");

        // Targeted queries hit exactly the owning shard and answer
        // byte-identically to the monolith.
        for &v in &videos {
            let request = Request::Query {
                sql: OFFLINE_SQL.into(),
                video: VideoScope::One(v),
            };
            let via_router = client.expect_outcome(&request).expect("router answers");
            let via_single = single_client
                .expect_outcome(&request)
                .expect("single answers");
            assert_eq!(
                canonical_json(&via_router),
                canonical_json(&via_single),
                "video {v} over {count} shard(s)"
            );
            assert!(!via_router.sequences().is_empty());
        }

        // Cross-catalog top-k scatter-gathers and merges byte-identically.
        let all = Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::All,
        };
        let via_router = client.expect_outcome(&all).expect("cluster top-k answers");
        let via_single = single_client.expect_outcome(&all).expect("single answers");
        assert_eq!(
            canonical_json(&via_router),
            canonical_json(&via_single),
            "cross-catalog top-k over {count} shard(s)"
        );

        // Online streams route to the shard that owns the live scene.
        for &v in &videos {
            let request = Request::Stream {
                sql: ONLINE_SQL.into(),
                video: Some(v),
            };
            let via_router = client.expect_outcome(&request).expect("stream answers");
            let via_single = single_client
                .expect_outcome(&request)
                .expect("single answers");
            assert_eq!(
                canonical_json(&via_router),
                canonical_json(&via_single),
                "stream {v} over {count} shard(s)"
            );
        }

        // Stats aggregate the cluster view.
        match client.request(&Request::Stats).expect("stats answer") {
            Response::Stats(stats) => {
                assert_eq!(stats.shards, count as u64, "configured fan-out");
                assert_eq!(stats.shards_up, count as u64, "all shards reachable");
                assert_eq!(stats.catalog_videos, videos.len() as u64, "summed catalog");
                assert_eq!(stats.live_streams, videos.len() as u64, "summed streams");
            }
            other => panic!("expected stats, got {other:?}"),
        }

        let report = shutdown_all(router, shards);
        assert!(report.drained_in_deadline, "{report:?}");
        assert_eq!(report.forced_closes, 0, "{report:?}");
        assert_eq!(report.malformed, 0, "{report:?}");
    }
    single.shutdown();
    single.wait();
}

#[test]
fn a_sole_video_cluster_resolves_omitted_targets() {
    // One video across two shards: one slice is empty, yet an id-less
    // query must still find the sole catalog video — same contract as a
    // single server.
    let videos = [7u64];
    let (router, shards) = start_cluster(&videos, 2, 1_200);
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let sole = client
        .expect_outcome(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::Sole,
        })
        .expect("sole-video query resolves");
    let targeted = client
        .expect_outcome(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::One(7),
        })
        .expect("targeted query answers");
    assert_eq!(canonical_json(&sole), canonical_json(&targeted));

    let stream = client
        .expect_outcome(&Request::Stream {
            sql: ONLINE_SQL.into(),
            video: None,
        })
        .expect("sole-stream resolves");
    assert!(!stream.sequences().is_empty());

    shutdown_all(router, shards);
}

#[test]
fn an_ambiguous_omitted_target_is_a_bad_request() {
    let (router, shards) = start_cluster(&[0u64, 1, 2, 3], 2, 1_000);
    let mut client = Client::connect(router.local_addr()).expect("connect");
    match client
        .request(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::Sole,
        })
        .expect("answered")
    {
        Response::Error { reason, message } => {
            assert_eq!(reason, RejectReason::BadRequest);
            assert!(message.contains("4 catalog videos served"), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    shutdown_all(router, shards);
}

#[test]
fn a_killed_shard_answers_as_typed_shard_unavailable_never_a_hang() {
    let videos = [0u64, 1, 2, 3];
    let (router, shards) = start_cluster(&videos, 2, 1_000);
    let mut client = Client::connect(router.local_addr()).expect("connect");

    // Sort the videos by owner so the test stays correct whatever the
    // hash assigns.
    let dead_shard = 1usize;
    let (dead_videos, live_videos): (Vec<u64>, Vec<u64>) = videos
        .iter()
        .partition(|&&v| shard_index(VideoId::new(v), 2) == dead_shard);
    assert!(
        !dead_videos.is_empty() && !live_videos.is_empty(),
        "the fixture must place videos on both shards"
    );

    // Kill shard 1 outright.
    let mut shards = shards;
    let dead = shards.remove(dead_shard);
    dead.shutdown();
    dead.wait();

    // A query owned by the dead shard answers with the typed error.
    match client
        .request(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::One(dead_videos[0]),
        })
        .expect("the router answers rather than hanging")
    {
        Response::Error { reason, message } => {
            assert_eq!(reason, RejectReason::ShardUnavailable, "{message}");
            assert!(message.contains("shard 1"), "{message}");
        }
        other => panic!("expected shard_unavailable, got {other:?}"),
    }

    // The live shard keeps serving through the same router connection.
    let alive = client
        .expect_outcome(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::One(live_videos[0]),
        })
        .expect("live shard still answers");
    assert!(!alive.sequences().is_empty());

    // A cross-catalog top-k cannot silently drop the dead slice: it fails
    // whole, typed.
    match client
        .request(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::All,
        })
        .expect("answered")
    {
        Response::Error { reason, .. } => assert_eq!(reason, RejectReason::ShardUnavailable),
        other => panic!("expected shard_unavailable, got {other:?}"),
    }

    // Stats stay best-effort: the cluster view reports the outage instead
    // of failing.
    match client.request(&Request::Stats).expect("stats answer") {
        Response::Stats(stats) => {
            assert_eq!(stats.shards, 2);
            assert_eq!(stats.shards_up, 1, "dead shard lowers shards_up");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // And the router still drains cleanly.
    router.shutdown();
    let report = router.wait();
    assert!(
        report.drained_in_deadline,
        "drain never hangs on a dead shard"
    );
    shutdown_all_remaining(shards);
}

fn shutdown_all_remaining(shards: Vec<ServerHandle>) {
    for shard in shards {
        shard.shutdown();
        shard.wait();
    }
}

#[test]
fn pipelined_callers_fan_out_through_the_router() {
    // The typed Caller API drives the router exactly as it drives a plain
    // server: many in-flight requests over one connection, matched by id.
    let videos = [0u64, 1, 2, 3, 4, 5];
    let (router, shards) = start_cluster(&videos, 2, 1_000);
    let caller = Client::connect(router.local_addr())
        .expect("connect")
        .into_caller()
        .expect("caller starts");

    let handles: Vec<_> = videos
        .iter()
        .map(|&v| {
            caller
                .call(&Request::Query {
                    sql: OFFLINE_SQL.into(),
                    video: VideoScope::One(v),
                })
                .expect("call accepted")
        })
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.id(), i as u64 + 1, "ids allocate in call order");
        match handle.wait().expect("response arrives") {
            Response::Outcome(outcome) => assert!(!outcome.sequences().is_empty()),
            other => panic!("expected outcome, got {other:?}"),
        }
    }

    shutdown_all(router, shards);
}

/// The route builder validates its front-door half through the serve
/// builder, yet names the entry point the caller used: every refusal reads
/// `route: <field>`, for a delegated serve field and a route-only one alike.
#[test]
fn route_config_refusals_name_the_route_field() {
    use std::time::Duration;
    let cases = [
        ("max_conns", RouteConfig::builder().max_conns(0).build()),
        (
            "upstream_timeout",
            RouteConfig::builder()
                .upstream_timeout(Duration::ZERO)
                .build(),
        ),
    ];
    for (field, result) in cases {
        let err = result.expect_err(field).to_string();
        assert!(err.contains(&format!("route: {field}")), "{field}: {err}");
    }
    let config = RouteConfig::builder()
        .max_conns(3)
        .pipeline_depth(5)
        .build()
        .expect("valid");
    assert_eq!(
        (config.serve().max_conns(), config.serve().pipeline_depth()),
        (3, 5),
        "front-door setters reach the serving half"
    );
}
