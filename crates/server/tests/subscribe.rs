//! Standing-query accounting at fleet size.
//!
//! A fleet of subscriptions to one statement, fanned out over up to 16
//! pipelined connections against a paced live source, must close every
//! subscription's books exactly: event `seq`s strictly increase past the
//! join position, the events a client received equal the terminal
//! `delivered`, `delivered + missed == total`, and `lagged` notices never
//! report more than `missed`. The server's `stats` counters must agree
//! with the client-side tallies, and the closing drain must be clean.

use std::sync::Arc;
use std::time::Duration;
use svq_core::online::{OnlineConfig, Svaqd};
use svq_query::{parse, LogicalPlan};
use svq_serve::{
    encode_response_line, mem_pair, parse_request_frame, read_bounded_line, Caller, Client,
    LineEvent, LiveSourceConfig, Request, Response, ServeConfig, Server, ServerHandle,
    Subscription, MAX_LINE_BYTES,
};
use svq_types::{ActionClass, ClipId, ObjectClass, VideoId};
use svq_vision::models::ModelSuite;
use svq_vision::synth::{ObjectSpec, ScenarioSpec};
use svq_vision::OwnedClipView;

const SQL: &str = "SELECT MERGE(clipID) AS Sequence \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car')";

const TIMEOUT: Duration = Duration::from_secs(60);

/// What one subscription received, checked against its terminal frame.
struct Tally {
    events: u64,
    missed: u64,
}

/// Read one subscription to its terminal frame, checking order and
/// accounting on the way.
fn drain(sub: &Subscription) -> Tally {
    let (mut events, mut lagged) = (0u64, 0u64);
    let mut last_seq = sub.from_seq();
    let mut terminal = None;
    while let Some(frame) = sub.next().expect("the subscription stream stays healthy") {
        match frame {
            Response::Event { seq, .. } => {
                assert!(
                    seq > last_seq,
                    "event seqs strictly increase past from_seq ({seq} after {last_seq})"
                );
                last_seq = seq;
                events += 1;
            }
            Response::Lagged { missed, .. } => {
                assert!(missed > 0, "a lagged notice reports a non-empty gap");
                lagged += missed;
            }
            Response::Unsubscribed {
                delivered,
                missed,
                total,
                ..
            } => terminal = Some((delivered, missed, total)),
            other => panic!("unexpected pushed frame: {other:?}"),
        }
    }
    let (delivered, missed, total) = terminal.expect("a terminal frame arrived");
    assert_eq!(
        events, delivered,
        "every delivered event reached the client"
    );
    assert_eq!(delivered + missed, total, "the terminal accounting closes");
    assert!(
        lagged <= missed,
        "lagged notices report {lagged}, more than the terminal's {missed} missed"
    );
    Tally { events, missed }
}

#[test]
fn every_subscription_closes_its_books_and_the_server_agrees() {
    for fleet in [1usize, 64] {
        let conns = fleet.min(16);
        let per_conn = fleet / conns;
        // 600 clips at 400 clips/s: every subscriber joins early in the
        // replay, and the source exhausts on its own.
        let source =
            LiveSourceConfig::parse("action=jumping,objects=car,minutes=20,seed=42,rate=400")
                .expect("source spec parses");
        let handle = Server::start_with_source(
            ServeConfig::builder()
                .max_conns(conns + 4)
                .workers(4)
                .read_timeout(TIMEOUT)
                .write_timeout(TIMEOUT)
                .drain_timeout(Duration::from_secs(30))
                .build()
                .expect("config is valid"),
            None,
            Vec::new(),
            Some(source),
            svq_exec::ExecMetrics::new(),
        )
        .expect("server starts with a live source");
        let addr = handle.local_addr();

        let connections: Vec<_> = (0..conns)
            .map(|_| {
                std::thread::spawn(move || {
                    let caller = Caller::connect(addr, TIMEOUT).expect("caller connects");
                    let subs: Vec<_> = (0..per_conn)
                        .map(|_| caller.subscribe(SQL, None, 0).expect("subscribe acks"))
                        .collect();
                    subs.iter().map(drain).collect::<Vec<_>>()
                })
            })
            .collect();
        let tallies: Vec<Tally> = connections
            .into_iter()
            .flat_map(|c| c.join().expect("connection thread"))
            .collect();
        assert_eq!(
            tallies.len(),
            fleet,
            "every subscription reached its terminal"
        );
        let events: u64 = tallies.iter().map(|t| t.events).sum();
        let missed: u64 = tallies.iter().map(|t| t.missed).sum();
        assert!(events > 0, "the source produced events for the fleet");

        // The server's books agree with the client-side tallies.
        let verifier = Caller::connect(addr, TIMEOUT).expect("verifier connects");
        match verifier.call(&Request::Stats).and_then(|p| p.wait()) {
            Ok(Response::Stats(stats)) => {
                assert_eq!(stats.subs_opened, fleet as u64, "every subscribe counted");
                assert_eq!(
                    stats.subs_active, 0,
                    "the source end retired every subscription"
                );
                assert_eq!(
                    stats.subs_events, events,
                    "server events equal client receipts"
                );
                assert_eq!(
                    stats.subs_missed, missed,
                    "server missed equals the terminals'"
                );
            }
            other => panic!("stats exchange failed: {other:?}"),
        }
        verifier.close();

        handle.shutdown();
        let report = handle.wait();
        assert!(report.drained_in_deadline, "fleet {fleet}: {report:?}");
        assert_eq!(report.forced_closes, 0, "fleet {fleet}: {report:?}");
    }
}

/// A one-connection server over `spec`'s live source.
fn serve_source(spec: &str) -> ServerHandle {
    let source = LiveSourceConfig::parse(spec).expect("source spec parses");
    Server::start_with_source(
        ServeConfig::builder()
            .read_timeout(TIMEOUT)
            .write_timeout(TIMEOUT)
            .build()
            .expect("config is valid"),
        None,
        Vec::new(),
        Some(source),
        svq_exec::ExecMetrics::new(),
    )
    .expect("server starts with a live source")
}

#[test]
fn a_join_after_the_last_clip_is_acked_then_closed_empty() {
    // 30 clips at 1000 clips/s: the replay ends within ~40 ms.
    let handle = serve_source("action=jumping,objects=car,minutes=1,seed=42,rate=1000");
    let caller = Caller::connect(handle.local_addr(), TIMEOUT).expect("caller connects");
    // A probe's terminal arrives only once the source has ended, so the
    // next subscription joins a finished replay.
    let probe = caller.subscribe(SQL, None, 0).expect("probe subscribes");
    drain(&probe);

    // `subscribe` fails unless `subscribed` is the first frame.
    let late = caller.subscribe(SQL, None, 0).expect("late join acks");
    assert_eq!(late.from_seq(), 30, "a late join starts past the last clip");
    match late.next().expect("the stream stays healthy") {
        Some(Response::Unsubscribed {
            delivered,
            missed,
            total,
            ..
        }) => assert_eq!((delivered, missed, total), (0, 0, 0)),
        other => panic!("expected the empty terminal frame, got {other:?}"),
    }
    assert!(late.next().expect("closed cleanly").is_none());
    caller.close();
    handle.shutdown();
    assert!(handle.wait().drained_in_deadline);
}

/// One pushed frame as the engine predicts it, backgrounds by bits.
#[derive(Debug, PartialEq)]
enum Pushed {
    Event {
        seq: u64,
        clip: u64,
        first: u64,
        last: u64,
    },
    Drift {
        backgrounds: Vec<u64>,
        criticals: Vec<u32>,
    },
}

#[test]
fn served_pushes_equal_the_engine_stepped_from_the_join() {
    const DRIFT_EVERY: u64 = 5;
    let spec = "action=jumping,objects=car,minutes=10,seed=42,rate=400";
    let handle = serve_source(spec);
    let caller = Caller::connect(handle.local_addr(), TIMEOUT).expect("caller connects");
    let sub = caller
        .subscribe(SQL, None, DRIFT_EVERY)
        .expect("subscribe acks");
    let from = sub.from_seq();
    let mut served = Vec::new();
    while let Some(frame) = sub.next().expect("the stream stays healthy") {
        match frame {
            Response::Event {
                seq,
                clip,
                first,
                last,
                ..
            } => served.push(Pushed::Event {
                seq,
                clip,
                first,
                last,
            }),
            Response::Drift {
                backgrounds,
                criticals,
                ..
            } => served.push(Pushed::Drift {
                backgrounds: backgrounds.iter().map(|b| b.to_bits()).collect(),
                criticals,
            }),
            Response::Unsubscribed { missed, .. } => assert_eq!(missed, 0, "nothing was shed"),
            other => panic!("unexpected pushed frame: {other:?}"),
        }
    }
    caller.close();
    handle.shutdown();
    handle.wait();

    // The same scenario, stepped in process from the join position: the
    // subscription's statement was created by this subscriber.
    let source = LiveSourceConfig::parse(spec).expect("source spec parses");
    let oracle = Arc::new(
        ScenarioSpec::activitynet(
            VideoId::new(source.video),
            source.minutes * 60 * 25,
            ActionClass::named(&source.action),
            source
                .objects
                .iter()
                .map(|o| ObjectSpec::correlated(ObjectClass::named(o)))
                .collect(),
            source.seed,
        )
        .generate()
        .oracle(ModelSuite::accurate()),
    );
    let plan = LogicalPlan::from_statement(&parse(SQL).expect("SQL parses")).expect("SQL plans");
    let mut engine = Svaqd::new(
        &plan.predicate,
        oracle.truth().geometry,
        OnlineConfig::default(),
        1e-4,
        1e-4,
    );
    let mut expected = Vec::new();
    for clip in from..oracle.clip_count() {
        let seq = clip + 1;
        let mut view = OwnedClipView::new(oracle.clone(), ClipId::new(clip));
        if let Some(closed) = engine.push_clip(&mut view).closed {
            expected.push(Pushed::Event {
                seq,
                clip,
                first: closed.start.raw(),
                last: closed.end.raw(),
            });
        }
        if seq.is_multiple_of(DRIFT_EVERY) {
            expected.push(Pushed::Drift {
                backgrounds: engine.backgrounds().iter().map(|b| b.to_bits()).collect(),
                criticals: engine.criticals(),
            });
        }
    }
    let events = expected
        .iter()
        .filter(|p| matches!(p, Pushed::Event { .. }))
        .count();
    assert!(events > 0, "the replay after clip {from} closes sequences");
    assert_eq!(served, expected, "served pushes from clip {from}");
}

#[test]
fn a_dead_connection_yields_the_queued_pushes_then_an_error() {
    use std::io::{BufReader, Write};
    let (client_end, server_end) = mem_pair();
    // A scripted server: ack the subscription, push three events, and
    // hang up before the client has read any of them.
    let script = std::thread::spawn(move || {
        let mut conn = BufReader::new(server_end);
        let LineEvent::Line(line) = read_bounded_line(&mut conn, MAX_LINE_BYTES) else {
            panic!("no subscribe frame arrived");
        };
        let frame = parse_request_frame(&line).expect("a valid request frame");
        assert!(matches!(frame.request, Request::Subscribe { .. }));
        let mut out = encode_response_line(
            &Response::Subscribed {
                sub: 7,
                from_seq: 0,
            },
            frame.id,
        );
        for seq in 1..=3 {
            let event = Response::Event {
                sub: 7,
                seq,
                clip: seq - 1,
                first: 0,
                last: 24,
                at: 0,
            };
            out.push_str(&encode_response_line(&event, frame.id));
        }
        conn.get_mut()
            .write_all(out.as_bytes())
            .expect("frames written");
    });
    let caller = Client::over(Box::new(client_end), TIMEOUT)
        .and_then(Client::into_caller)
        .expect("caller starts");
    let sub = caller.subscribe(SQL, None, 0).expect("subscribe acks");
    script.join().expect("the script runs");
    let deadline = std::time::Instant::now() + TIMEOUT;
    while caller.is_alive() {
        assert!(
            std::time::Instant::now() < deadline,
            "the hang-up never surfaced"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for want in 1..=3 {
        match sub.next() {
            Ok(Some(Response::Event { seq, .. })) => assert_eq!(seq, want),
            other => panic!("expected queued event {want}, got {other:?}"),
        }
    }
    let err = sub
        .next()
        .expect_err("the dead connection surfaces after the queue");
    assert!(err.to_string().contains("connection closed"), "{err}");
    assert!(sub.next().expect("the stream stays ended").is_none());
}
