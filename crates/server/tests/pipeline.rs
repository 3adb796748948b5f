//! Protocol v2 pipelining and acceptor-robustness regression tests.
//!
//! The pipelining tests pin the tentpole semantics: id-tagged requests
//! complete out of order and match by id, id-less (v1) frames keep strict
//! request→response ordering, and pipelined results stay byte-identical
//! to in-process execution. The regression tests pin the three acceptor
//! bugs: a failing listener must back off instead of busy-spinning, a
//! failed handler spawn must answer a typed frame instead of silently
//! dropping the admitted socket, and a connection whose registry clone
//! cannot be made must be refused instead of served unregistered.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_query::{execute_offline, execute_online, parse, LogicalPlan, QueryOutcome};
use svq_serve::{
    encode_request_line, Client, Conn, MemTransport, Request, Response, ServeConfig, Server,
    ServerHandle, Transport, VideoScope,
};
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

fn start(config: ServeConfig, frames: u64) -> ServerHandle {
    let oracles = vec![oracle(0, 42, frames)];
    let repo = Arc::new(VideoRepository::from_catalogs(
        oracles
            .iter()
            .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default())),
    ));
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

// ---------------------------------------------------------------------------
// Pipelining
// ---------------------------------------------------------------------------

#[test]
fn pipelined_queries_match_in_process_execution_by_id() {
    // Depth 2 on purpose: the reader must block at the bound and resume,
    // exercising the per-connection backpressure path, not just the fast
    // path where every request fits in flight at once.
    let handle = start(
        ServeConfig::builder()
            .workers(4)
            .pipeline_depth(2)
            .build()
            .expect("config is valid"),
        2_000,
    );
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    const N: u64 = 8;
    for id in 0..N {
        client
            .send(
                &Request::Query {
                    sql: OFFLINE_SQL.into(),
                    video: VideoScope::One(0),
                },
                Some(id),
            )
            .expect("pipelined send");
    }

    let reference_oracle = oracle(0, 42, 2_000);
    let catalog = ingest(&reference_oracle, &PaperScoring, &OnlineConfig::default());
    let plan = LogicalPlan::from_statement(&parse(OFFLINE_SQL).expect("parses")).expect("plans");
    let local = execute_offline(&plan, &catalog, &PaperScoring).expect("executes");
    let want = canonical_json(&local);

    let mut seen = BTreeMap::new();
    for _ in 0..N {
        let (id, response) = client.read_tagged().expect("tagged response");
        let id = id.expect("v2 responses echo the request id");
        match response {
            Response::Outcome(outcome) => {
                assert_eq!(
                    canonical_json(&outcome),
                    want,
                    "pipelined result {id} must be byte-identical to in-process"
                );
                assert!(
                    seen.insert(id, ()).is_none(),
                    "response id {id} answered twice"
                );
            }
            other => panic!("expected an outcome for id {id}, got {other:?}"),
        }
    }
    assert_eq!(seen.len() as u64, N, "every request answered exactly once");

    handle.shutdown();
    let report = handle.wait();
    assert_eq!(report.requests, N);
    assert!(report.drained_in_deadline);
}

/// A pipelined burst of different top-K statements, all on one video, on
/// four workers: the runs share the catalog and overlap, and each response
/// must still be byte-identical, `disk` included, to its own statement run
/// in process.
#[test]
fn pipelined_same_video_burst_matches_in_process_execution_by_id() {
    const FRAMES: u64 = 30_000;
    let handle = start(
        ServeConfig::builder()
            .workers(4)
            .pipeline_depth(16)
            .build()
            .expect("config is valid"),
        FRAMES,
    );
    let statements: Vec<String> = [1, 3, 10]
        .iter()
        .flat_map(|k| {
            ["'car'", "'car', 'person'"].map(|objects| {
                format!(
                    "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
                     FROM (PROCESS inputVideo PRODUCE clipID) \
                     WHERE act='jumping' AND obj.include({objects}) \
                     ORDER BY RANK(act, obj) LIMIT {k}"
                )
            })
        })
        .collect();
    let reference_oracle = oracle(0, 42, FRAMES);
    let catalog = ingest(&reference_oracle, &PaperScoring, &OnlineConfig::default());
    let want: Vec<String> = statements
        .iter()
        .map(|sql| {
            let plan = LogicalPlan::from_statement(&parse(sql).expect("parses")).expect("plans");
            canonical_json(&execute_offline(&plan, &catalog, &PaperScoring).expect("executes"))
        })
        .collect();

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    const N: u64 = 48;
    for id in 0..N {
        client
            .send(
                &Request::Query {
                    sql: statements[id as usize % statements.len()].clone(),
                    video: VideoScope::One(0),
                },
                Some(id),
            )
            .expect("pipelined send");
    }
    let mut seen = BTreeMap::new();
    for _ in 0..N {
        let (id, response) = client.read_tagged().expect("tagged response");
        let id = id.expect("v2 responses echo the request id");
        match response {
            Response::Outcome(outcome) => {
                assert_eq!(
                    canonical_json(&outcome),
                    want[id as usize % statements.len()],
                    "pipelined result {id} must be byte-identical to its in-process run"
                );
                assert!(
                    seen.insert(id, ()).is_none(),
                    "response id {id} answered twice"
                );
            }
            other => panic!("expected an outcome for id {id}, got {other:?}"),
        }
    }
    assert_eq!(seen.len() as u64, N, "every request answered exactly once");

    handle.shutdown();
    let report = handle.wait();
    assert_eq!(report.requests, N);
    assert!(report.drained_in_deadline);
}

#[test]
fn v2_responses_complete_out_of_order_while_v1_keeps_strict_order() {
    // 12 000 clips and no catalog, so nothing has read the video before the
    // first stream: it runs cold, for milliseconds.
    let handle = Server::start(
        ServeConfig::default(),
        None,
        vec![oracle(0, 42, 600_000)],
        svq_exec::ExecMetrics::new(),
    )
    .expect("server binds an ephemeral port");
    let socket = TcpStream::connect(handle.local_addr()).expect("connect");
    let mut writer = socket.try_clone().expect("clone the socket");
    let mut client = Client::over(Box::new(socket), Duration::from_secs(30)).expect("client");
    let stream = Request::Stream {
        sql: ONLINE_SQL.into(),
        video: Some(0),
    };
    // Both frames go out in one write, so the reader takes them from one
    // buffer: it answers the stats microseconds after dispatching the
    // stream, with no second packet or wakeup to wait for in between.
    let both = |stream_id, stats_id| {
        encode_request_line(&stream, stream_id) + &encode_request_line(&Request::Stats, stats_id)
    };

    // A slow stream first, then an instant stats — both id-tagged. The
    // stats response must overtake the stream's: out-of-order completion
    // is the whole point of v2.
    writer
        .write_all(both(Some(1), Some(2)).as_bytes())
        .expect("send stream and stats");
    let (first, response) = client.read_tagged().expect("first response");
    assert_eq!(
        first,
        Some(2),
        "the instant stats must overtake the slow stream, got {response:?}"
    );
    assert!(matches!(response, Response::Stats(_)));
    let (second, response) = client.read_tagged().expect("second response");
    assert_eq!(second, Some(1));
    match response {
        Response::Outcome(outcome) => {
            assert!(outcome.online().is_some(), "stream answers online results")
        }
        other => panic!("expected the stream outcome, got {other:?}"),
    }

    // The same shape, id-less: v1 ordering must hold even though the
    // stats completes long before the stream does.
    writer
        .write_all(both(None, None).as_bytes())
        .expect("send stream and stats");
    let (first, response) = client.read_tagged().expect("first response");
    assert_eq!(first, None, "v1 responses carry no id");
    match response {
        Response::Outcome(outcome) => {
            assert!(outcome.online().is_some(), "the stream answers first")
        }
        other => panic!("v1 ordering violated: expected the stream outcome, got {other:?}"),
    }
    let (second, response) = client.read_tagged().expect("second response");
    assert_eq!(second, None);
    assert!(
        matches!(response, Response::Stats(_)),
        "the stats response flushes after the stream's"
    );

    handle.shutdown();
    let report = handle.wait();
    assert_eq!(report.requests, 4);
    assert!(report.drained_in_deadline, "{report:?}");
}

/// One dispatch rule orders v1 frames: an id-less frame is dispatched only
/// after every earlier request on the connection, tagged or not, has
/// completed. So it is answered after all of them, and a burst of id-less
/// frames is answered in request order.
#[test]
fn id_less_frame_is_answered_after_every_earlier_request() {
    const FRAMES: u64 = 150_000;
    let handle = start(ServeConfig::default(), FRAMES);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // A slow tagged stream, then an instant id-less stats: the stats may
    // not overtake the stream, because the stream came first.
    client
        .send(
            &Request::Stream {
                sql: ONLINE_SQL.into(),
                video: Some(0),
            },
            Some(1),
        )
        .expect("send stream");
    client.send(&Request::Stats, None).expect("send stats");
    let (first, response) = client.read_tagged().expect("first response");
    assert_eq!(
        first,
        Some(1),
        "the id-less stats overtook the earlier tagged stream: {response:?}"
    );
    assert!(
        matches!(&response, Response::Outcome(outcome) if outcome.online().is_some()),
        "the stream answers online results, got {response:?}"
    );
    let (second, response) = client.read_tagged().expect("second response");
    assert_eq!(second, None, "v1 responses carry no id");
    assert!(matches!(response, Response::Stats(_)), "got {response:?}");

    // A burst of id-less frames written before any read: slow and instant
    // kinds interleaved, answered strictly in request order.
    let reference_oracle = oracle(0, 42, FRAMES);
    let catalog = ingest(&reference_oracle, &PaperScoring, &OnlineConfig::default());
    let offline = LogicalPlan::from_statement(&parse(OFFLINE_SQL).expect("parses")).expect("plans");
    let online = LogicalPlan::from_statement(&parse(ONLINE_SQL).expect("parses")).expect("plans");
    let expected = [
        canonical_json(&execute_offline(&offline, &catalog, &PaperScoring).expect("executes")),
        canonical_json(
            &execute_online(
                &online,
                &mut VideoStream::new(&reference_oracle),
                OnlineConfig::default(),
            )
            .expect("executes"),
        ),
    ];
    // Kinds: 0 query, 1 stream, 2 stats.
    let burst = [1usize, 2, 0, 2, 1, 0];
    for &kind in &burst {
        let request = match kind {
            0 => Request::Query {
                sql: OFFLINE_SQL.into(),
                video: VideoScope::One(0),
            },
            1 => Request::Stream {
                sql: ONLINE_SQL.into(),
                video: Some(0),
            },
            _ => Request::Stats,
        };
        client.send(&request, None).expect("send burst frame");
    }
    for (at, &kind) in burst.iter().enumerate() {
        let (id, response) = client.read_tagged().expect("burst response");
        assert_eq!(id, None, "v1 responses carry no id");
        match (kind, response) {
            (0 | 1, Response::Outcome(outcome)) => assert_eq!(
                canonical_json(&outcome),
                expected[kind],
                "burst frame {at} (kind {kind}) diverged from in-process execution"
            ),
            (2, Response::Stats(_)) => {}
            (_, other) => panic!("burst frame {at} (kind {kind}) answered out of order: {other:?}"),
        }
    }

    handle.shutdown();
    let report = handle.wait();
    assert_eq!(report.requests, 2 + burst.len() as u64);
    assert!(report.drained_in_deadline, "{report:?}");
}

/// Round `r` of every client: the kind cycles `query`/`stream`/`stats` and
/// the video shifts each cycle, so each client issues every (kind, video)
/// pair once, each in its own order.
fn mixed_request(client: u64, round: u64) -> (Request, usize, u64) {
    let kind = (round % 3) as usize;
    let video = (client + round / 3) % 3;
    let request = match kind {
        0 => Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::One(video),
        },
        1 => Request::Stream {
            sql: ONLINE_SQL.into(),
            video: Some(video),
        },
        _ => Request::Stats,
    };
    (request, kind, video)
}

/// `expected[video]` holds the canonical in-process `[query, stream]`
/// outcomes.
fn verify(response: Response, kind: usize, video: u64, expected: &[[String; 2]]) {
    match (kind, response) {
        (0 | 1, Response::Outcome(outcome)) => assert_eq!(
            canonical_json(&outcome),
            expected[video as usize][kind],
            "wire outcome diverged from in-process (kind {kind}, video {video})"
        ),
        (2, Response::Stats(_)) => {}
        (_, other) => panic!("unexpected response to kind {kind}: {other:?}"),
    }
}

/// Two serial v1 clients and two pipelined v2 clients at once, mixing
/// `query`, `stream` and `stats` over three videos: every outcome stays
/// byte-identical to in-process execution, and the server's closing
/// report accounts for exactly the requests issued.
#[test]
fn concurrent_serial_and_pipelined_clients_close_the_servers_books() {
    const ROUNDS: u64 = 9;
    const FRAMES: u64 = 2_000;
    let oracles: Vec<_> = (0..3).map(|v| oracle(v, 42 + v, FRAMES)).collect();
    let offline = LogicalPlan::from_statement(&parse(OFFLINE_SQL).expect("parses")).expect("plans");
    let online = LogicalPlan::from_statement(&parse(ONLINE_SQL).expect("parses")).expect("plans");
    let expected: Arc<Vec<[String; 2]>> = Arc::new(
        oracles
            .iter()
            .map(|o| {
                let catalog = ingest(o, &PaperScoring, &OnlineConfig::default());
                let query = execute_offline(&offline, &catalog, &PaperScoring).expect("executes");
                let mut stream = VideoStream::new(o);
                let streamed = execute_online(&online, &mut stream, OnlineConfig::default())
                    .expect("executes");
                [canonical_json(&query), canonical_json(&streamed)]
            })
            .collect(),
    );
    let repo = Arc::new(VideoRepository::from_catalogs(
        oracles
            .iter()
            .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default())),
    ));
    let handle = Server::start(
        ServeConfig::builder()
            .workers(4)
            .build()
            .expect("config is valid"),
        Some(repo),
        oracles,
        svq_exec::ExecMetrics::new(),
    )
    .expect("server binds an ephemeral port");
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                if c < 2 {
                    for r in 0..ROUNDS {
                        let (request, kind, video) = mixed_request(c, r);
                        let response = client.request(&request).expect("exchange completes");
                        verify(response, kind, video, &expected);
                    }
                } else {
                    for r in 0..ROUNDS {
                        let (request, _, _) = mixed_request(c, r);
                        client.send(&request, Some(r)).expect("pipelined send");
                    }
                    let mut seen = BTreeMap::new();
                    for _ in 0..ROUNDS {
                        let (id, response) = client.read_tagged().expect("tagged response");
                        let id = id.expect("v2 responses echo the request id");
                        assert!(seen.insert(id, ()).is_none(), "id {id} answered twice");
                        let (_, kind, video) = mixed_request(c, id);
                        verify(response, kind, video, &expected);
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    handle.shutdown();
    let report = handle.wait();
    assert_eq!(
        report.requests,
        4 * ROUNDS,
        "the server answered every request"
    );
    assert_eq!(
        report.rejected_busy, 0,
        "admission never spilled: {report:?}"
    );
    assert_eq!(report.malformed, 0, "every frame parsed: {report:?}");
    assert_eq!(report.forced_closes, 0, "{report:?}");
    assert!(report.drained_in_deadline, "{report:?}");
}

// ---------------------------------------------------------------------------
// Bug 1: accept failures must back off, not busy-spin
// ---------------------------------------------------------------------------

/// A transport whose `accept` fails while `fail` is set, counting every
/// attempt. The pre-backoff acceptor spun through millions of attempts per
/// second here; the fixed one stays within the backoff budget.
struct FlakyTransport {
    inner: Arc<MemTransport>,
    fail: AtomicBool,
    attempts: AtomicU64,
}

impl Transport for FlakyTransport {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        self.attempts.fetch_add(1, Ordering::Relaxed);
        if self.fail.load(Ordering::Relaxed) {
            return Err(io::Error::other("injected accept failure"));
        }
        self.inner.accept()
    }

    fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    fn wake(&self) {
        self.inner.wake()
    }
}

#[test]
fn persistent_accept_errors_back_off_instead_of_busy_spinning() {
    let mem = MemTransport::new();
    let transport = Arc::new(FlakyTransport {
        inner: mem.clone(),
        fail: AtomicBool::new(true),
        attempts: AtomicU64::new(0),
    });
    let oracles = vec![oracle(0, 42, 2_000)];
    let handle = Server::start_on(
        transport.clone(),
        ServeConfig::default(),
        None,
        oracles,
        None,
        svq_exec::ExecMetrics::new(),
    )
    .expect("server starts");

    // Let the failing listener run. Backoff doubles 1ms → 100ms, so 300ms
    // admits at most a few dozen attempts; the old busy-spin made
    // hundreds of thousands.
    std::thread::sleep(Duration::from_millis(300));
    let attempts = transport.attempts.load(Ordering::Relaxed);
    assert!(
        attempts < 1_000,
        "acceptor busy-spun through {attempts} accept attempts in 300ms"
    );
    assert!(attempts > 0, "the failing accept path never ran");
    let errors = handle.metrics().snapshot().server.accept_errors;
    assert!(errors > 0, "accept failures must be counted");

    // The condition clears; the acceptor must recover promptly.
    transport.fail.store(false, Ordering::Relaxed);
    let mut client = Client::over(Box::new(mem.connect()), Duration::from_secs(5)).expect("client");
    assert!(
        matches!(
            client.request(&Request::Stats).expect("stats"),
            Response::Stats(_)
        ),
        "acceptor recovers after the fault clears"
    );

    handle.shutdown();
    let report = handle.wait();
    assert!(report.accept_errors > 0, "{report:?}");
    assert_eq!(report.accepted, 1);
}

// ---------------------------------------------------------------------------
// Bug 2: a failed handler spawn must answer, not silently drop
// ---------------------------------------------------------------------------

#[test]
fn failed_handler_spawn_answers_a_typed_internal_frame() {
    let handle = start(
        ServeConfig::builder()
            .debug_fail_spawns(1)
            .build()
            .expect("config is valid"),
        2_000,
    );

    // The first connection hits the injected spawn failure. The old code
    // deregistered and moved on, leaving this client staring at a socket
    // that never says anything until it times out; the fix answers a
    // typed `internal` frame and closes cleanly.
    let mut first = Client::connect(handle.local_addr()).expect("tcp connect succeeds");
    match first.read_response().expect("a frame must arrive") {
        Response::Error { reason, message } => {
            assert_eq!(reason, RejectReason::Internal);
            assert!(
                message.contains("handler"),
                "the frame names the failure: {message}"
            );
        }
        other => panic!("expected an internal error frame, got {other:?}"),
    }
    assert!(
        first.read_response().is_err(),
        "clean close after the frame"
    );

    // The slot was released and the server is unharmed.
    let mut second = Client::connect(handle.local_addr()).expect("connect");
    assert!(matches!(
        second.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));

    handle.shutdown();
    let report = handle.wait();
    assert_eq!(report.accepted, 2);
    assert!(report.drained_in_deadline, "{report:?}");
    assert_eq!(report.forced_closes, 0);
}

// ---------------------------------------------------------------------------
// Bug 3: a connection whose registry clone fails must be refused
// ---------------------------------------------------------------------------

/// A connection whose `try_clone_conn` always fails — the acceptor can
/// never register it for drain, so it must refuse it.
struct UncloneableConn(Box<dyn Conn>);

impl Read for UncloneableConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for UncloneableConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Conn for UncloneableConn {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(timeout)
    }

    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.0.set_write_timeout(timeout)
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.0.shutdown_both()
    }

    fn shutdown_write(&self) -> io::Result<()> {
        self.0.shutdown_write()
    }

    fn try_clone_conn(&self) -> io::Result<Box<dyn Conn>> {
        Err(io::Error::other("injected clone failure"))
    }
}

/// Hands out unclonable connections for the first `poisoned` accepts.
struct PoisonedCloneTransport {
    inner: Arc<MemTransport>,
    poisoned: AtomicU64,
}

impl Transport for PoisonedCloneTransport {
    fn accept(&self) -> io::Result<Box<dyn Conn>> {
        let conn = self.inner.accept()?;
        let poison = self
            .poisoned
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok();
        if poison {
            Ok(Box::new(UncloneableConn(conn)))
        } else {
            Ok(conn)
        }
    }

    fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    fn wake(&self) {
        self.inner.wake()
    }
}

#[test]
fn unregistrable_connections_are_refused_not_served_invisible_to_drain() {
    let mem = MemTransport::new();
    let transport = Arc::new(PoisonedCloneTransport {
        inner: mem.clone(),
        poisoned: AtomicU64::new(1),
    });
    let oracles = vec![oracle(0, 42, 2_000)];
    let metrics = svq_exec::ExecMetrics::new();
    let handle = Server::start_on(
        transport,
        ServeConfig::default(),
        None,
        oracles,
        None,
        metrics.clone(),
    )
    .expect("server starts");

    // The first connection cannot be registered: it must be refused with
    // a typed frame. The old code served it anyway, invisible to drain
    // and to the force-close sweep.
    let mut first = Client::over(Box::new(mem.connect()), Duration::from_secs(5)).expect("client");
    match first.read_response().expect("a frame must arrive") {
        Response::Error { reason, message } => {
            assert_eq!(reason, RejectReason::Internal);
            assert!(!message.is_empty());
        }
        other => panic!("expected an internal error frame, got {other:?}"),
    }
    assert!(
        first.read_response().is_err(),
        "clean close after the frame"
    );

    // Its admission slot was released...
    assert!(
        wait_until(
            {
                let metrics = metrics.clone();
                move || metrics.snapshot().server.active_conns == 0
            },
            Duration::from_secs(5)
        ),
        "the refused connection's slot frees"
    );
    // ...and the next connection is served normally.
    let mut second = Client::over(Box::new(mem.connect()), Duration::from_secs(5)).expect("client");
    assert!(matches!(
        second.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));

    handle.shutdown();
    let report = handle.wait();
    assert!(report.drained_in_deadline, "{report:?}");
    assert_eq!(report.forced_closes, 0);
}
