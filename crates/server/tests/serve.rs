//! End-to-end service tests: wire results vs in-process execution,
//! admission control, graceful drain, deadlines, and dispatch errors.

use std::sync::Arc;
use std::time::{Duration, Instant};
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_query::{execute_offline, execute_online, parse, LogicalPlan, QueryOutcome};
use svq_serve::{Client, Request, Response, ServeConfig, Server, ServerHandle, VideoScope};
use svq_storage::VideoRepository;
use svq_types::{
    ActionClass, BBox, FrameId, Interval, ObjectClass, PaperScoring, RejectReason, TrackId,
    VideoGeometry, VideoId,
};
use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};
use svq_vision::VideoStream;

const OFFLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car') \
     ORDER BY RANK(act, obj) LIMIT 3";

const ONLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car')";

/// Deterministic oracle: car & jumping on frames 600..=999. Identical
/// (video, seed, frames) arguments reproduce identical detections, so a
/// reference built here matches what an identically-constructed server
/// serves — the byte-identity anchor of these tests.
fn oracle(video: u64, seed: u64, frames: u64) -> Arc<DetectionOracle> {
    let mut gt = GroundTruth::new(VideoId::new(video), VideoGeometry::default(), frames);
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

fn repo_of(oracles: &[Arc<DetectionOracle>]) -> Arc<VideoRepository> {
    Arc::new(VideoRepository::from_catalogs(
        oracles
            .iter()
            .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default())),
    ))
}

fn start(config: ServeConfig, frames: u64) -> ServerHandle {
    let oracles = vec![oracle(0, 42, frames)];
    let repo = repo_of(&oracles);
    Server::start(config, Some(repo), oracles, svq_exec::ExecMetrics::new())
        .expect("server binds an ephemeral port")
}

fn canonical_json(outcome: &QueryOutcome) -> String {
    serde_json::to_string(&outcome.canonical()).expect("outcome encodes")
}

fn wait_until(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::yield_now();
    }
    cond()
}

#[test]
fn wire_results_are_byte_identical_to_in_process_execution() {
    let handle = start(ServeConfig::default(), 2_000);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Offline: reference on a separately ingested but identical catalog.
    let served = client
        .expect_outcome(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::One(0),
        })
        .expect("query answers");
    let reference_oracle = oracle(0, 42, 2_000);
    let catalog = ingest(&reference_oracle, &PaperScoring, &OnlineConfig::default());
    let plan = LogicalPlan::from_statement(&parse(OFFLINE_SQL).expect("parses")).expect("plans");
    let local = execute_offline(&plan, &catalog, &PaperScoring).expect("executes");
    assert_eq!(
        canonical_json(&served),
        canonical_json(&local),
        "served offline result must be byte-identical to in-process"
    );
    assert!(
        !served.sequences().is_empty(),
        "query found the car+jumping span"
    );

    // Online: reference over a fresh stream on an identical oracle. The
    // `video` field is omitted — the sole served stream is implied.
    let served = client
        .expect_outcome(&Request::Stream {
            sql: ONLINE_SQL.into(),
            video: None,
        })
        .expect("stream answers");
    let mut stream = VideoStream::new(&reference_oracle);
    let plan = LogicalPlan::from_statement(&parse(ONLINE_SQL).expect("parses")).expect("plans");
    let local = execute_online(&plan, &mut stream, OnlineConfig::default()).expect("executes");
    assert_eq!(
        canonical_json(&served),
        canonical_json(&local),
        "served online result must be byte-identical to in-process"
    );
    let served_car = canonical_json(&served);

    // Stats reflect the two answered requests (the stats frame is built
    // before its own request is counted).
    match client.request(&Request::Stats).expect("stats answers") {
        Response::Stats(stats) => {
            assert_eq!(stats.req_query, 1);
            assert_eq!(stats.req_stream, 1);
            assert_eq!(stats.requests, 2);
            assert_eq!(stats.active_conns, 1);
            assert_eq!(stats.accepted, 1);
            assert_eq!(stats.malformed, 0);
            assert_eq!(stats.total_clips, 40, "the stream session's clips");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // Every other online statement shape: two objects, a CNF disjunction,
    // a spatial relationship, and `A OR A`, which must answer exactly as `A`.
    let car_or_car = "(obj.include('car') OR obj.include('car'))";
    for predicate in [
        "obj.include('car', 'person')",
        "(obj.include('car') OR obj.include('person'))",
        "leftOf('car','person')",
        car_or_car,
    ] {
        let sql = format!(
            "SELECT MERGE(clipID) AS Sequence FROM (PROCESS inputVideo PRODUCE clipID) \
             WHERE act='jumping' AND {predicate}"
        );
        let served = client
            .expect_outcome(&Request::Stream {
                sql: sql.clone(),
                video: None,
            })
            .expect("stream answers");
        let mut stream = VideoStream::new(&reference_oracle);
        let plan = LogicalPlan::from_statement(&parse(&sql).expect("parses")).expect("plans");
        let local = execute_online(&plan, &mut stream, OnlineConfig::default()).expect("executes");
        assert_eq!(
            canonical_json(&served),
            canonical_json(&local),
            "served `{predicate}` result must be byte-identical to in-process"
        );
        if predicate == car_or_car {
            assert_eq!(
                canonical_json(&served),
                served_car,
                "served `{predicate}` must answer byte-identically to `obj.include('car')`"
            );
        }
    }

    // Wire shutdown: acknowledged, then the server drains.
    match client
        .request(&Request::Shutdown)
        .expect("shutdown answers")
    {
        Response::Bye => {}
        other => panic!("expected bye, got {other:?}"),
    }
    let report = handle.wait();
    assert!(report.drained_in_deadline);
    assert_eq!(report.forced_closes, 0);
    assert_eq!(report.requests, 8);
    // wait() is idempotent: the same latched report.
    assert_eq!(handle.wait(), report);
}

#[test]
fn over_limit_connections_get_a_busy_frame_and_a_clean_close() {
    let handle = start(
        ServeConfig::builder()
            .max_conns(1)
            .build()
            .expect("config is valid"),
        2_000,
    );
    let mut first = Client::connect(handle.local_addr()).expect("connect");
    // Round-trip proves the slot is held before the second connect.
    assert!(matches!(
        first.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));

    let mut second = Client::connect(handle.local_addr()).expect("tcp connect succeeds");
    match second.read_response().expect("busy frame arrives") {
        Response::Error { reason, message } => {
            assert_eq!(reason, RejectReason::Busy);
            assert!(!message.is_empty());
        }
        other => panic!("expected busy error, got {other:?}"),
    }
    // Clean close after the frame: EOF, not a reset mid-frame.
    assert!(second.read_response().is_err());

    // The admitted connection is unaffected.
    assert!(matches!(
        first.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));

    // Releasing the slot re-opens admission.
    drop(first);
    let metrics = handle.metrics().clone();
    assert!(
        wait_until(
            move || metrics.snapshot().server.active_conns == 0,
            Duration::from_secs(5)
        ),
        "slot frees after the first client disconnects"
    );
    let mut third = Client::connect(handle.local_addr()).expect("connect");
    assert!(matches!(
        third.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));

    handle.shutdown();
    let report = handle.wait();
    assert_eq!(report.rejected_busy, 1);
    assert_eq!(report.accepted, 2);
}

#[test]
fn graceful_drain_finishes_in_flight_work_and_refuses_new_connects() {
    // 60 000 clips: long enough that the stream request is reliably still
    // executing when the drain triggers. A stream is one pool job at about
    // a microsecond per clip, so this is tens of milliseconds; 3 000 clips
    // finished in about 3 ms, short enough for the poll below to miss.
    let handle = start(
        ServeConfig::builder()
            .drain_timeout(Duration::from_secs(30))
            .build()
            .expect("config is valid"),
        3_000_000,
    );
    let addr = handle.local_addr();

    // An idle connection: drain must close it without waiting for its
    // read deadline.
    let mut idle = Client::connect(addr).expect("connect");
    assert!(matches!(
        idle.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));

    // The in-flight request, issued from its own thread.
    let worker = std::thread::spawn(move || {
        let mut busy = Client::connect(addr).expect("connect");
        busy.request(&Request::Stream {
            sql: ONLINE_SQL.into(),
            video: Some(0),
        })
    });
    // The mux session appearing in metrics proves the server is mid-request.
    let metrics = handle.metrics().clone();
    assert!(
        wait_until(
            move || !metrics.snapshot().sessions.is_empty(),
            Duration::from_secs(10)
        ),
        "stream request never started executing"
    );

    handle.shutdown();

    // New connections are answered with `draining`, not dropped.
    let mut late = Client::connect(addr).expect("tcp connect succeeds");
    match late.read_response().expect("draining frame arrives") {
        Response::Error { reason, .. } => assert_eq!(reason, RejectReason::Draining),
        other => panic!("expected draining error, got {other:?}"),
    }

    // The in-flight request completed with a real outcome.
    match worker.join().expect("worker thread") {
        Ok(Response::Outcome(outcome)) => {
            assert!(outcome.online().is_some(), "stream answers online results");
        }
        other => panic!("in-flight request must complete, got {other:?}"),
    }

    // The idle connection was closed by the drain.
    assert!(idle.read_response().is_err(), "idle connection closes");

    let report = handle.wait();
    assert!(report.drained_in_deadline, "{report:?}");
    assert_eq!(report.forced_closes, 0);
    assert!(report.rejected_draining >= 1);
    assert!(
        handle.metrics().snapshot().sessions.is_empty(),
        "session released"
    );
}

#[test]
fn expired_read_deadline_answers_timeout_and_closes() {
    let handle = start(
        ServeConfig::builder()
            .read_timeout(Duration::from_millis(150))
            .build()
            .expect("config is valid"),
        2_000,
    );
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    // Say nothing; the server's read deadline expires first.
    match client.read_response().expect("timeout frame arrives") {
        Response::Error { reason, .. } => assert_eq!(reason, RejectReason::Timeout),
        other => panic!("expected timeout error, got {other:?}"),
    }
    assert!(client.read_response().is_err(), "connection closed after");
    handle.shutdown();
    let report = handle.wait();
    assert_eq!(report.timed_out, 1);
}

#[test]
fn dispatch_errors_are_typed_and_recoverable() {
    let handle = start(ServeConfig::default(), 2_000);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let expect_reject = |client: &mut Client, request: &Request, want: RejectReason| match client
        .request(request)
        .expect("answered")
    {
        Response::Error { reason, message } => {
            assert_eq!(reason, want, "{message}");
        }
        other => panic!("expected {want} error, got {other:?}"),
    };

    // Unknown video, both modes.
    expect_reject(
        &mut client,
        &Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::One(9),
        },
        RejectReason::UnknownVideo,
    );
    expect_reject(
        &mut client,
        &Request::Stream {
            sql: ONLINE_SQL.into(),
            video: Some(9),
        },
        RejectReason::UnknownVideo,
    );
    // Mode mismatches route to the other request kind.
    expect_reject(
        &mut client,
        &Request::Query {
            sql: ONLINE_SQL.into(),
            video: VideoScope::One(0),
        },
        RejectReason::BadRequest,
    );
    expect_reject(
        &mut client,
        &Request::Stream {
            sql: OFFLINE_SQL.into(),
            video: Some(0),
        },
        RejectReason::BadRequest,
    );
    // Unparseable SQL.
    expect_reject(
        &mut client,
        &Request::Query {
            sql: "SELECT FROM WHERE".into(),
            video: VideoScope::One(0),
        },
        RejectReason::BadRequest,
    );

    // The connection survived five rejections.
    let served = client
        .expect_outcome(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::One(0),
        })
        .expect("query still answers");
    assert!(!served.sequences().is_empty());

    handle.shutdown();
    handle.wait();
}

#[test]
fn a_server_without_a_catalog_rejects_queries_but_streams() {
    let oracles = vec![oracle(3, 7, 2_000)];
    let handle = Server::start(
        ServeConfig::default(),
        None,
        oracles,
        svq_exec::ExecMetrics::new(),
    )
    .expect("server starts");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    match client
        .request(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::Sole,
        })
        .expect("answered")
    {
        Response::Error { reason, .. } => assert_eq!(reason, RejectReason::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }
    let outcome = client
        .expect_outcome(&Request::Stream {
            sql: ONLINE_SQL.into(),
            video: None,
        })
        .expect("stream answers");
    assert!(outcome.online().is_some());
    handle.shutdown();
    handle.wait();
}
