//! Malformed-input hardening: every rejected frame is answered with a
//! typed error, and neither the connection nor the server dies — plus a
//! property test that frame encode/decode round-trips arbitrary request
//! content.

use proptest::prelude::*;
use std::time::Duration;
use svq_serve::{
    encode_line, encode_request_line, encode_response_line, parse_request, read_bounded_line,
    Client, LineEvent, LiveSourceConfig, Request, Response, ResponseFrame, ServeConfig, Server,
    MAX_LINE_BYTES,
};
use svq_types::RejectReason;

fn start_bare(max_line: usize) -> svq_serve::ServerHandle {
    Server::start(
        ServeConfig::builder()
            .max_line(max_line)
            .read_timeout(Duration::from_secs(10))
            .build()
            .expect("config is valid"),
        None,
        Vec::new(),
        svq_exec::ExecMetrics::new(),
    )
    .expect("server starts")
}

#[test]
fn each_malformed_shape_gets_its_typed_error_and_the_connection_survives() {
    let handle = start_bare(1_024);
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    let cases: [(&[u8], RejectReason); 5] = [
        (&[0xff, 0xfe, b'{'], RejectReason::BadUtf8),
        (b"{\"kind\": \"que", RejectReason::BadJson),
        (b"]][[", RejectReason::BadJson),
        (b"{\"kind\": \"warp\"}", RejectReason::UnknownKind),
        (b"{\"video\": 3}", RejectReason::BadRequest),
    ];
    for (raw, want) in cases {
        match client.send_raw(raw).expect("typed error arrives") {
            Response::Error { reason, message } => {
                assert_eq!(reason, want, "{message}");
                assert!(!message.is_empty());
            }
            other => panic!("expected {want} error, got {other:?}"),
        }
    }

    // Oversize line: answered, discarded, and the next frame still parses.
    let oversized = vec![b'x'; 4_096];
    match client.send_raw(&oversized).expect("oversize answered") {
        Response::Error { reason, .. } => assert_eq!(reason, RejectReason::Oversize),
        other => panic!("expected oversize error, got {other:?}"),
    }

    // Same connection keeps working after six rejected frames.
    match client.request(&Request::Stats).expect("stats answers") {
        Response::Stats(stats) => {
            assert_eq!(stats.malformed, 6, "all six rejects counted");
            assert_eq!(stats.requests, 0, "rejects are not answered requests");
            assert_eq!(stats.active_conns, 1, "connection survived");
        }
        other => panic!("expected stats, got {other:?}"),
    }

    // And the server survives for entirely new connections.
    let mut second = Client::connect(handle.local_addr()).expect("connect");
    assert!(matches!(
        second.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));

    handle.shutdown();
    let report = handle.wait();
    assert_eq!(report.malformed, 6);
    assert_eq!(report.accepted, 2);
}

#[test]
fn an_unterminated_final_frame_is_still_parsed() {
    // A client that sends a complete JSON object but closes without the
    // trailing newline: the line reader surfaces the tail, and the
    // request is answered before the connection winds down.
    let handle = start_bare(MAX_LINE_BYTES);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    use std::io::Write;
    use std::net::TcpStream;
    let mut raw = TcpStream::connect(handle.local_addr()).expect("connect");
    raw.write_all(b"{\"kind\": \"stats\"}").expect("write");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reader = std::io::BufReader::new(raw);
    match svq_serve::read_bounded_line(&mut reader, MAX_LINE_BYTES) {
        svq_serve::LineEvent::Line(line) => {
            let text = std::str::from_utf8(&line).expect("utf8 frame");
            let frame: Response = serde_json::from_str(text).expect("frame parses");
            assert!(matches!(frame, Response::Stats(_)));
        }
        other => panic!("expected a response line, got {other:?}"),
    }
    // The well-behaved connection is unaffected.
    assert!(matches!(
        client.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));
    handle.shutdown();
    handle.wait();
}

#[test]
fn a_line_of_openers_is_bad_json_and_the_connection_survives() {
    // As many `[` as the line cap admits: the parser stops at its nesting
    // limit instead of recursing once per opener off the reader thread's
    // stack, which would abort the whole server.
    let handle = start_bare(MAX_LINE_BYTES);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let openers = vec![b'['; MAX_LINE_BYTES - 1];
    match client.send_raw(&openers).expect("nested line answered") {
        Response::Error { reason, message } => {
            assert_eq!(reason, RejectReason::BadJson, "{message}")
        }
        other => panic!("expected bad_json, got {other:?}"),
    }
    match client.request(&Request::Stats).expect("stats answers") {
        Response::Stats(stats) => {
            assert_eq!(stats.malformed, 1);
            assert_eq!(stats.active_conns, 1, "connection survived");
        }
        other => panic!("expected stats, got {other:?}"),
    }
    handle.shutdown();
    assert_eq!(handle.wait().malformed, 1);
}

/// Numbers and strings that RFC 8259 forbids are `bad_json`, not a
/// lenient reading: `01` is not the id 1. Each frame is answered with its
/// typed error, and a `stats` on the same connection still answers.
#[test]
fn numbers_and_strings_json_forbids_are_bad_json_and_the_connection_survives() {
    let handle = start_bare(1_024);
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    let forbidden: [&[u8]; 8] = [
        b"{\"kind\":\"stats\",\"id\":01}",
        b"{\"kind\":\"stats\",\"id\":-01}",
        b"{\"kind\":\"stats\",\"id\":00}",
        b"{\"kind\":\"stats\",\"id\":1.}",
        b"{\"kind\":\"stats\",\"id\":1.e5}",
        b"{\"kind\":\"stats\",\"x\":\"a\x00b\"}",
        b"{\"kind\":\"stats\",\"x\":\"tab\there\"}",
        b"{\"kind\":\"st\x1fats\"}",
    ];
    for (i, raw) in forbidden.into_iter().enumerate() {
        match client.send_raw(raw).expect("typed error arrives") {
            Response::Error { reason, message } => {
                assert_eq!(reason, RejectReason::BadJson, "{message}")
            }
            other => panic!("expected bad_json, got {other:?}"),
        }
        match client.request(&Request::Stats).expect("stats answers") {
            Response::Stats(stats) => {
                assert_eq!(stats.malformed, i as u64 + 1);
                assert_eq!(stats.active_conns, 1, "connection survived");
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }
    // The forms JSON allows still read: `-0` is the id 0.
    match client.send_raw(b"{\"kind\":\"stats\",\"id\":-0}") {
        Ok(Response::Stats(_)) => {}
        other => panic!("expected stats, got {other:?}"),
    }
    handle.shutdown();
    assert_eq!(handle.wait().malformed, forbidden.len() as u64);
}

proptest! {
    #[test]
    fn request_frames_round_trip_arbitrary_content(
        bytes in prop::collection::vec(0u8..255, 0..48),
        video in 0u64..1_000_000,
        has_video in any::<bool>(),
        kind in 0u8..6,
    ) {
        // Arbitrary (possibly non-ASCII) SQL content must survive the
        // JSON escaping round trip byte-for-byte.
        let sql = String::from_utf8_lossy(&bytes).into_owned();
        let video = if has_video { Some(video) } else { None };
        let frame = match kind {
            0 => Request::Query { sql, video: video.into() },
            1 => Request::Stream { sql, video },
            2 => Request::Subscribe { sql, video, drift_every: video.unwrap_or(0) },
            3 => Request::Unsubscribe { sub: video.unwrap_or(0) },
            4 => Request::Stats,
            _ => Request::Shutdown,
        };
        let line = encode_line(&frame);
        prop_assert!(line.ends_with('\n'));
        prop_assert!(!line.trim_end_matches('\n').contains('\n'),
            "a frame is exactly one line");
        let back = parse_request(line.trim_end().as_bytes());
        match back {
            Ok(decoded) => prop_assert_eq!(decoded, frame),
            Err((reason, message)) => {
                prop_assert!(false, "round trip failed: {reason} {message}");
            }
        }
    }

    #[test]
    fn arbitrary_garbage_never_panics_the_parser(
        bytes in prop::collection::vec(0u8..255, 0..64),
    ) {
        // Whatever arrives, the parser returns a typed classification.
        if let Err((reason, message)) = parse_request(&bytes) {
            prop_assert!(!message.is_empty(), "{reason} without detail");
        }
    }

    #[test]
    fn push_frames_round_trip_with_their_id(
        sub in 0u64..1_000_000,
        a in 0u64..u64::MAX / 2,
        b in 0u64..u64::MAX / 2,
        sixteenths in prop::collection::vec(0u32..160_000u32, 0..4),
        runs in prop::collection::vec(0u32..10_000u32, 0..4),
        id in prop::option::of(0u64..1_000_000),
        kind in 0u8..5,
    ) {
        // Server-initiated frames (subscription pushes and terminals)
        // survive the wire byte-exactly, id included. Drift estimates are
        // dyadic fractions so float round-tripping is exact by
        // construction.
        let frame = match kind {
            0 => Response::Subscribed { sub, from_seq: a },
            1 => Response::Event { sub, seq: a, clip: b, first: b / 2, last: b, at: a ^ b },
            2 => Response::Drift {
                sub,
                backgrounds: sixteenths.iter().map(|&s| f64::from(s) / 16.0).collect(),
                criticals: runs,
            },
            3 => Response::Lagged { sub, missed: 1 + a },
            _ => Response::Unsubscribed { sub, delivered: a, missed: b, total: a + b },
        };
        let line = encode_response_line(&frame, id);
        prop_assert!(line.ends_with('\n'));
        prop_assert!(!line.trim_end_matches('\n').contains('\n'),
            "a pushed frame is exactly one line");
        match serde_json::from_str::<ResponseFrame>(line.trim_end()) {
            Ok(back) => {
                prop_assert_eq!(back.id, id, "the correlation id survives the round trip");
                prop_assert_eq!(back.response, frame);
            }
            Err(e) => prop_assert!(false, "push frame does not decode: {e}"),
        }
    }

    #[test]
    fn near_miss_subscription_frames_never_panic_the_parser(
        kind in prop::sample::select(vec!["subscribe", "unsubscribe"]),
        field in prop::sample::select(vec!["sql", "video", "drift_every", "sub", "id"]),
        value in prop::sample::select(vec!["-1", "1e999", "\"car\"", "null", "[]", "{}", "3.5"]),
    ) {
        // Subscription frames with a plausible shape but a hostile field
        // value are classified, never a panic — and a rejection always
        // carries detail.
        let line = format!("{{\"kind\": \"{kind}\", \"{field}\": {value}}}");
        if let Err((reason, message)) = parse_request(line.as_bytes()) {
            prop_assert!(!message.is_empty(), "{reason} without detail");
        }
    }
}

/// A live subscription outlives a malformed frame on its own connection:
/// the garbage is answered with a typed error, pushes keep flowing, and
/// the explicit `unsubscribe` still closes the books exactly.
#[test]
fn a_subscription_survives_a_malformed_frame_on_its_connection() {
    let source = LiveSourceConfig::parse("action=jumping,objects=car,minutes=10,seed=42,rate=120")
        .expect("source spec parses");
    let handle = Server::start_with_source(
        ServeConfig::builder()
            .read_timeout(Duration::from_secs(30))
            .build()
            .expect("config is valid"),
        None,
        Vec::new(),
        Some(source),
        svq_exec::ExecMetrics::new(),
    )
    .expect("server starts with a live source");

    use std::io::Write;
    let mut conn = std::net::TcpStream::connect(handle.local_addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(20)))
        .expect("deadline set");
    let mut reader = std::io::BufReader::new(conn.try_clone().expect("clone"));
    let mut next = move || -> ResponseFrame {
        match read_bounded_line(&mut reader, MAX_LINE_BYTES) {
            LineEvent::Line(line) => {
                let text = std::str::from_utf8(&line).expect("utf8 frame");
                serde_json::from_str(text).expect("frame decodes")
            }
            other => panic!("expected a frame line, got {other:?}"),
        }
    };
    let sql = "SELECT MERGE(clipID) AS Sequence \
         FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
         act USING ActionRecognizer) \
         WHERE act='jumping' AND obj.include('car')";

    // An id-less subscribe is a v1 frame: refused as a typed bad_request
    // (standing queries are v2-only), connection intact.
    conn.write_all(
        encode_line(&Request::Subscribe {
            sql: sql.into(),
            video: None,
            drift_every: 0,
        })
        .as_bytes(),
    )
    .expect("write");
    match next().response {
        Response::Error { reason, .. } => assert_eq!(reason, RejectReason::BadRequest),
        other => panic!("id-less subscribe must be refused, got {other:?}"),
    }

    // The real subscription, then garbage on the same connection.
    conn.write_all(
        encode_request_line(
            &Request::Subscribe {
                sql: sql.into(),
                video: None,
                drift_every: 0,
            },
            Some(9),
        )
        .as_bytes(),
    )
    .expect("write");
    let ack = next();
    assert_eq!(ack.id, Some(9), "the ack echoes the subscribe id");
    let sub = match ack.response {
        Response::Subscribed { sub, .. } => sub,
        other => panic!("expected a subscribed ack, got {other:?}"),
    };
    conn.write_all(b"{\"kind\": \"warp\"}\n").expect("write");

    // Pushes and the typed error interleave; wait until both the error
    // and at least one event prove the subscription survived the garbage.
    let (mut saw_error, mut events, mut last_seq) = (false, 0u64, 0u64);
    let mut terminal = None;
    while !(saw_error && events >= 1) && terminal.is_none() {
        let frame = next();
        match frame.response {
            Response::Error { reason, .. } => {
                assert_eq!(
                    reason,
                    RejectReason::UnknownKind,
                    "the garbage is classified"
                );
                assert_eq!(frame.id, None, "an unparseable frame has no id to echo");
                saw_error = true;
            }
            Response::Event { sub: s, seq, .. } => {
                assert_eq!(s, sub);
                assert!(seq > last_seq, "event seqs strictly increase");
                last_seq = seq;
                events += 1;
            }
            Response::Unsubscribed {
                delivered,
                missed,
                total,
                ..
            } => {
                terminal = Some((delivered, missed, total));
            }
            other => panic!("unexpected frame mid-subscription: {other:?}"),
        }
    }
    assert!(saw_error, "the malformed frame was answered");

    // Close the books. The terminal arrives twice — once as the
    // unsubscribe ack, once pushed into the subscription's own stream —
    // unless the source exhausted first, in which case the ack is a typed
    // refusal for an already-retired handle.
    conn.write_all(encode_request_line(&Request::Unsubscribe { sub }, Some(10)).as_bytes())
        .expect("write");
    let mut acked = false;
    while terminal.is_none() || !acked {
        let frame = next();
        match frame.response {
            Response::Event { seq, .. } => {
                assert!(seq > last_seq, "event seqs strictly increase");
                last_seq = seq;
                events += 1;
            }
            Response::Unsubscribed {
                delivered,
                missed,
                total,
                ..
            } => {
                if frame.id == Some(10) {
                    acked = true;
                }
                let books = (delivered, missed, total);
                if let Some(prior) = terminal {
                    assert_eq!(prior, books, "both terminal copies agree");
                }
                terminal = Some(books);
            }
            Response::Error { .. } if frame.id == Some(10) => {
                // The source exhausted and retired the handle first.
                acked = true;
            }
            other => panic!("unexpected frame during teardown: {other:?}"),
        }
    }
    let (delivered, missed, total) = terminal.expect("a terminal frame arrived");
    assert_eq!(
        events, delivered,
        "every delivered event reached the client"
    );
    assert_eq!(delivered + missed, total, "the terminal accounting closes");

    // The connection still answers requests after all of that.
    conn.write_all(encode_request_line(&Request::Stats, Some(11)).as_bytes())
        .expect("write");
    loop {
        let frame = next();
        if let Response::Stats(stats) = frame.response {
            assert_eq!(frame.id, Some(11));
            assert_eq!(stats.subs_active, 0, "the subscription was retired");
            assert_eq!(stats.subs_opened, 1, "exactly one subscription was opened");
            break;
        }
    }

    handle.shutdown();
    let report = handle.wait();
    assert!(report.drained_in_deadline, "drain terminates");
    assert_eq!(report.forced_closes, 0, "nothing was force-closed");
}
