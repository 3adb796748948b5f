//! Standing-query accounting at fleet size.
//!
//! A fleet of subscriptions to one statement, fanned out over up to 16
//! pipelined connections against a paced live source, must close every
//! subscription's books exactly: event `seq`s strictly increase past the
//! join position, the events a client received equal the terminal
//! `delivered`, `delivered + missed == total`, and `lagged` notices never
//! report more than `missed`. The server's `stats` counters must agree
//! with the client-side tallies, and the closing drain must be clean.

use std::time::Duration;
use svq_serve::{Caller, LiveSourceConfig, Request, Response, ServeConfig, Server, Subscription};

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
                .shards(2)
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
