//! The `svq-serve` wire protocol: JSON lines over TCP.
//!
//! One frame per line, UTF-8 JSON, `\n`-terminated, at most
//! [`MAX_LINE_BYTES`] bytes including the newline. Requests and responses
//! are internally tagged by a `kind` member, written first (serde's
//! internally tagged representation, derived both ways), and a pipeline
//! `id`, when given, is written last:
//!
//! ```text
//! -> {"kind": "query",  "sql": "SELECT …", "video": 3}
//! -> {"kind": "query",  "sql": "SELECT …", "video": "all"}
//! -> {"kind": "stream", "sql": "SELECT …", "video": 3}
//! -> {"kind": "subscribe", "sql": "SELECT …", "drift_every": 16, "id": 1}
//! -> {"kind": "unsubscribe", "sub": 0, "id": 2}
//! -> {"kind": "stats"}
//! -> {"kind": "shutdown"}
//! <- {"kind": "outcome", "outcome": {…QueryOutcome…}}
//! <- {"kind": "stats",   "stats": {…StatsFrame…}}
//! <- {"kind": "subscribed", "sub": 0, "from_seq": 3, "id": 1}
//! <- {"kind": "event", "sub": 0, "seq": 9, "clip": 41, …, "id": 1}
//! <- {"kind": "lagged", "sub": 0, "missed": 5, "id": 1}
//! <- {"kind": "drift", "sub": 0, "backgrounds": […], "criticals": […], "id": 1}
//! <- {"kind": "unsubscribed", "sub": 0, "delivered": 7, …, "id": 1}
//! <- {"kind": "bye"}
//! <- {"kind": "error", "code": "busy", "message": "…"}
//! ```
//!
//! A `query` frame's `video` field is a [`VideoScope`]: a concrete id, the
//! string `"all"` (scatter the offline plan over the whole catalog and
//! merge — the cluster top-K), or absent (legal only on a single-video
//! catalog, which is then inferred). `stream` frames always target one
//! video.
//!
//! `outcome` frames embed the exact [`QueryOutcome`] envelope the
//! in-process executors return, so a wire result is byte-identical (in its
//! canonical form) to calling `execute_offline` / `execute_online`
//! directly — the determinism anchor `tests/serve.rs` and
//! `tests/pipeline.rs` assert.
//! Error frames carry a stable [`RejectReason`] code; prose rides
//! separately in `message` and is never part of the contract.
//!
//! A `stats` frame carries a [`StatsFrame`]. It lives in `svq_exec::metrics`
//! (it is the `server` part of every `MetricsSnapshot`, so the registry and
//! the wire share one declaration) and is re-exported from here.
//!
//! **Protocol v2 — pipelining.** Any request frame may carry a
//! client-chosen `id` (a JSON integer); the response to it echoes that
//! `id` and may arrive out of order relative to other in-flight requests
//! on the same connection. Frames *without* an `id` keep the v1 contract:
//! their responses come back in exactly the order the requests were sent
//! (even when the server executes them concurrently), so v1 clients work
//! unchanged. The two styles may be mixed on one connection; only the
//! relative order of the id-less responses is guaranteed. Server-initiated
//! frames (read-timeout and oversize errors) never carry an `id`.
//!
//! **Standing queries.** A `subscribe` frame registers a continuous
//! monitoring query against the server's live source. It is v2-only: the
//! frame *must* carry an `id`, because every pushed frame for that
//! subscription (`event`, `lagged`, `drift`, and the terminal
//! `unsubscribed`) is tagged with it — that id is how a pipelining client
//! tells pushes apart from its one-shot responses. The `subscribed` ack
//! carries the server-assigned `sub` handle used by `unsubscribe` (which
//! is answered twice: the terminal `unsubscribed` push under the
//! subscription's id, then the same frame again under the `unsubscribe`
//! request's own id as its ack). Push delivery is bounded per
//! subscription: when a slow reader's push queue overflows, events are
//! counted and a `lagged {missed}` frame marks the gap — never an
//! unbounded buffer, never a silent drop.
//!
//! Malformed input is answered, not dropped: an oversize line, invalid
//! UTF-8, truncated JSON, an unknown `kind` or an ill-typed member each
//! produce a typed error frame, without an `id` even when the line carried
//! one, and leave the connection usable (the reader resynchronises on the
//! next newline). A request is decoded by its derived reader; only a line
//! that fails it is judged again, on its tree, for the error's category
//! (see [`parse_request_frame`]). Hand-written here are only
//! [`VideoScope`]'s wire shape and the frames' shared `id` reader.

use serde::{json, DeError, Deserialize, EncodeError, Serialize, Value};
use std::io::{BufRead, ErrorKind, Read};
use std::sync::atomic::AtomicU64;
use svq_exec::ServerCounters;
pub use svq_exec::StatsFrame;
use svq_query::QueryOutcome;
use svq_types::RejectReason;

/// Hard cap on one frame (request or response line), newline included.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Which videos an offline `query` targets.
///
/// On the wire: an absent (or `null`) `video` field is [`Sole`], a JSON
/// integer is [`One`], and the string `"all"` is [`All`]. Any other string
/// is a typed `bad_request`.
///
/// [`Sole`]: VideoScope::Sole
/// [`One`]: VideoScope::One
/// [`All`]: VideoScope::All
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VideoScope {
    /// No video named: legal only when the server holds exactly one, which
    /// is then inferred (the v1 convenience contract).
    #[default]
    Sole,
    /// One explicitly named video.
    One(u64),
    /// Every video the catalog holds — the cluster-wide scatter-gather
    /// top-K (`QueryResults::Cluster` in the outcome).
    All,
}

impl VideoScope {
    /// The named video, when the scope targets exactly one.
    pub fn one(self) -> Option<u64> {
        match self {
            VideoScope::One(v) => Some(v),
            _ => None,
        }
    }
}

/// On the wire: `null`, the id, or `"all"`.
impl Serialize for VideoScope {
    fn to_value(&self) -> Value {
        match self {
            VideoScope::All => "all".to_value(),
            scope => scope.one().to_value(),
        }
    }

    fn write_json(&self, out: &mut String) -> Result<(), EncodeError> {
        match self {
            VideoScope::All => "all".write_json(out),
            scope => scope.one().write_json(out),
        }
    }
}

impl Deserialize for VideoScope {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Str(s) if s == "all" => Ok(VideoScope::All),
            Value::Str(s) => Err(DeError(format!(
                "expected a video id or \"all\", got {s:?}"
            ))),
            other => Option::<u64>::from_value(other).map(VideoScope::from),
        }
    }
}

impl From<Option<u64>> for VideoScope {
    fn from(video: Option<u64>) -> Self {
        video.map_or(VideoScope::Sole, VideoScope::One)
    }
}

/// A client-to-server frame. A member marked `default` may be absent or
/// `null`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Request {
    /// Offline top-K query against the served catalog repository.
    Query {
        sql: String,
        #[serde(default)]
        video: VideoScope,
    },
    /// Online query over one of the served live streams. Streams always
    /// target a single (named or sole) video; `"all"` is rejected.
    Stream {
        sql: String,
        #[serde(default)]
        video: Option<u64>,
    },
    /// Register a standing query against the server's paced live source;
    /// the server pushes `event` frames as clip indicators fire. v2-only:
    /// the frame must carry an `id` (it tags every pushed frame).
    Subscribe {
        sql: String,
        /// The live-source video this subscription watches (absent: the
        /// sole served source is inferred).
        #[serde(default)]
        video: Option<u64>,
        /// Push a `drift` estimator snapshot every this many source clips
        /// (0 = never).
        #[serde(default)]
        drift_every: u64,
    },
    /// Tear one subscription down by its server-assigned handle.
    Unsubscribe { sub: u64 },
    /// Metrics snapshot.
    Stats,
    /// Ask the server to begin a graceful drain.
    Shutdown,
}

impl Request {
    /// The `kind` tag on the wire.
    pub fn kind(&self) -> &'static str {
        self.class().0
    }

    /// The `kind` tag beside the registry counter an answer to this
    /// request bumps. The match is exhaustive, so a new request kind
    /// cannot be filed under another's counter.
    pub(crate) fn class(&self) -> (&'static str, fn(&ServerCounters) -> &AtomicU64) {
        match self {
            Request::Query { .. } => ("query", |srv| &srv.req_query),
            Request::Stream { .. } => ("stream", |srv| &srv.req_stream),
            Request::Subscribe { .. } => ("subscribe", |srv| &srv.req_subscribe),
            Request::Unsubscribe { .. } => ("unsubscribe", |srv| &srv.req_unsubscribe),
            Request::Stats => ("stats", |srv| &srv.req_stats),
            Request::Shutdown => ("shutdown", |srv| &srv.req_shutdown),
        }
    }
}

/// One decoded request line: the request plus its optional v2 pipeline
/// `id`. Requests without an `id` are v1 frames with strict response
/// ordering; see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// The client-chosen correlation id, echoed on the response.
    pub id: Option<u64>,
    pub request: Request,
}

/// A server-to-client frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum Response {
    /// A `query`/`stream` result: the unified executor envelope.
    Outcome(QueryOutcome),
    /// A `stats` result.
    Stats(StatsFrame),
    /// Acknowledges a `subscribe`: the server-assigned handle and the
    /// source position joined at (pushed events carry `seq > from_seq`).
    Subscribed { sub: u64, from_seq: u64 },
    /// A pushed standing-query event: source clip number `seq` (1-based
    /// position in the paced replay) fired an indicator; `clip` is the
    /// clip id and `[first, last]` the result interval it closed.
    /// `at` is the server's monotonic-nanosecond stamp at enqueue time,
    /// for delivery-lag measurement against the same clock domain.
    Event {
        sub: u64,
        seq: u64,
        clip: u64,
        first: u64,
        last: u64,
        at: u64,
    },
    /// A periodic snapshot of the dynamic p(t) estimator: per-predicate
    /// background activation estimates (objects in query order, then the
    /// action) and the matching critical run lengths.
    Drift {
        sub: u64,
        backgrounds: Vec<f64>,
        criticals: Vec<u32>,
    },
    /// The subscription's bounded push queue overflowed: `missed` events
    /// were dropped since the last delivered frame. The gap is counted,
    /// never silent.
    Lagged { sub: u64, missed: u64 },
    /// Terminal frame of a subscription (explicit `unsubscribe`, source
    /// end, or teardown): final accounting with
    /// `delivered + missed == total` events since `from_seq`.
    Unsubscribed {
        sub: u64,
        delivered: u64,
        missed: u64,
        total: u64,
    },
    /// Acknowledgement of `shutdown`; the connection closes after it.
    Bye,
    /// A typed refusal. The connection survives unless the reason is
    /// connection-fatal (`busy`, `draining`, `timeout`).
    Error {
        #[serde(rename = "code")]
        reason: RejectReason,
        message: String,
    },
}

/// Encode any frame as one newline-terminated line.
pub fn encode_line<T: Serialize + ?Sized>(frame: &T) -> String {
    encode_with(frame, None)
}

/// Encode a request with a pipeline `id` as one newline-terminated line.
pub fn encode_request_line(request: &Request, id: Option<u64>) -> String {
    encode_with(request, id)
}

/// Encode a response, echoing the request's pipeline `id` when present.
pub fn encode_response_line(response: &Response, id: Option<u64>) -> String {
    encode_with(response, id)
}

/// Write `frame` straight from its typed value (no [`Value`] is built),
/// with the pipeline `id` as the object's last member when given, and
/// terminate its line.
fn encode_with<T: Serialize + ?Sized>(frame: &T, id: Option<u64>) -> String {
    serde_json::write_to_string(|line| {
        frame.write_json(line)?;
        if let Some(id) = id {
            // A frame is an object holding at least its `kind`: reopen it.
            let close = line.pop();
            debug_assert_eq!(close, Some('}'));
            line.push_str(",\"id\":");
            json::write_u64(id, line);
            line.push('}');
        }
        line.push('\n');
        Ok(())
    })
    .unwrap_or_else(|e| {
        // Only a non-finite float fails, and no frame should hold one.
        // Answer something parseable regardless.
        format!(
            "{{\"kind\": \"error\", \"code\": \"internal\", \"message\": {:?}}}\n",
            e.to_string()
        )
    })
}

/// One decoded response line: the response plus the echoed pipeline `id`
/// (absent on v1 responses and server-initiated frames).
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    pub id: Option<u64>,
    pub response: Response,
}

/// A frame's `Deserialize`: its tagged members, with the pipeline `id`
/// read beside them in the same pass (the first `id` wins, `null` is none).
macro_rules! framed {
    ($frame:ident, $field:ident: $inner:ident) => {
        impl Deserialize for $frame {
            fn from_value(value: &Value) -> Result<Self, DeError> {
                Ok($frame {
                    $field: $inner::from_value(value)?,
                    id: value.member_or_default("id")?,
                })
            }

            fn read_json(reader: &mut json::Reader<'_>) -> Result<Self, json::ReadError> {
                let mut id: Option<Option<u64>> = None;
                let inner = $inner::read_tagged(reader, |key, reader| match key {
                    "id" => json::read_member(reader, &mut id, "id"),
                    _ => reader.skip(),
                })?;
                match inner {
                    Some($field) => Ok($frame {
                        id: id.flatten(),
                        $field,
                    }),
                    None => reader.fallback(),
                }
            }
        }
    };
}

framed!(RequestFrame, request: Request);
framed!(ResponseFrame, response: Response);

/// Decode one raw request line into a [`Request`], mapping each failure
/// mode to its wire category. Discards any pipeline `id`; servers use
/// [`parse_request_frame`].
pub fn parse_request(line: &[u8]) -> Result<Request, (RejectReason, String)> {
    parse_request_frame(line).map(|frame| frame.request)
}

/// Decode one raw request line into a [`RequestFrame`] (request plus
/// optional pipeline `id`), mapping each failure mode to its wire category.
///
/// The frame is read straight from the text by its derived reader, which
/// builds no tree. Only a line that does not read is parsed again, as a
/// tree, to choose its category: text that is not JSON anywhere on the
/// line is `bad_json`, whatever its members hold; a string `kind` that no
/// request has is `unknown_kind`; anything else is `bad_request`.
pub fn parse_request_frame(line: &[u8]) -> Result<RequestFrame, (RejectReason, String)> {
    let text = std::str::from_utf8(line)
        .map_err(|e| (RejectReason::BadUtf8, format!("request line: {e}")))?;
    let mut reader = json::Reader::new(text);
    RequestFrame::read_json(&mut reader)
        .and_then(|frame| reader.finish().map(|()| frame))
        .map_err(|e| rejection(text, e))
}

/// The category of a request line that did not read as a frame, judged on
/// its tree, with `error`, the reader's, as the message.
#[cold]
fn rejection(text: &str, error: json::ReadError) -> (RejectReason, String) {
    let tree: Value = match serde_json::from_str(text) {
        Ok(tree) => tree,
        Err(e) => return (RejectReason::BadJson, format!("request line: {e}")),
    };
    let kind = match tree.get("kind") {
        Some(Value::Str(kind)) => kind.as_str(),
        _ => return (RejectReason::BadRequest, error.to_string()),
    };
    if !Request::TAGS.contains(&kind) {
        return (RejectReason::UnknownKind, error.to_string());
    }
    let target = match kind {
        "stream" => "video",
        "subscribe" => "live source",
        _ => return (RejectReason::BadRequest, error.to_string()),
    };
    let message = match tree.get("video") {
        Some(Value::Str(all)) if all == "all" => {
            format!(
                "`{kind}` requests target a single {target}; `\"all\"` is only valid for `query`"
            )
        }
        _ => error.to_string(),
    };
    (RejectReason::BadRequest, message)
}

/// What one bounded line read produced.
#[derive(Debug)]
pub enum LineEvent {
    /// A complete line (without its terminating newline).
    Line(Vec<u8>),
    /// The line exceeded the cap. The overflow has been consumed up to and
    /// including its newline, so the stream is resynchronised; `eof` is
    /// true when the connection ended mid-overflow.
    Oversize { eof: bool },
    /// Clean end of stream (no pending bytes).
    Eof,
    /// The read deadline expired.
    TimedOut,
    /// Any other transport failure.
    Failed(std::io::Error),
}

/// Read one `\n`-terminated line of at most `cap` bytes from a buffered
/// reader, classifying every failure mode a serving loop must handle.
pub fn read_bounded_line<R: BufRead + Read>(reader: &mut R, cap: usize) -> LineEvent {
    let mut line: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let (consumed, done) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return LineEvent::TimedOut;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return LineEvent::Failed(e),
            };
            if buf.is_empty() {
                // EOF. Mid-line bytes with no newline are a truncated frame;
                // surface what arrived (the JSON layer rejects it precisely).
                return match (overflowed, line.is_empty()) {
                    (true, _) => LineEvent::Oversize { eof: true },
                    (false, true) => LineEvent::Eof,
                    (false, false) => LineEvent::Line(std::mem::take(&mut line)),
                };
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(at) => {
                    if !overflowed {
                        line.extend_from_slice(&buf[..at]);
                    }
                    (at + 1, true)
                }
                None => {
                    if !overflowed {
                        line.extend_from_slice(buf);
                    }
                    (buf.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if !overflowed && line.len() >= cap {
            // Too big: stop buffering, keep consuming until the newline so
            // the connection can carry the next frame.
            overflowed = true;
            line.clear();
        }
        if done {
            return if overflowed {
                LineEvent::Oversize { eof: false }
            } else {
                LineEvent::Line(std::mem::take(&mut line))
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_lines_round_trip() {
        let frames = [
            Request::Query {
                sql: "SELECT MERGE(clipID) …".into(),
                video: VideoScope::One(3),
            },
            Request::Query {
                sql: "SELECT MERGE(clipID) …".into(),
                video: VideoScope::Sole,
            },
            Request::Query {
                sql: "SELECT MERGE(clipID) …".into(),
                video: VideoScope::All,
            },
            Request::Stream {
                sql: "SELECT".into(),
                video: None,
            },
            Request::Stream {
                sql: "SELECT".into(),
                video: Some(7),
            },
            Request::Subscribe {
                sql: "SELECT".into(),
                video: None,
                drift_every: 0,
            },
            Request::Subscribe {
                sql: "SELECT".into(),
                video: Some(9),
                drift_every: 16,
            },
            Request::Unsubscribe { sub: 3 },
            Request::Stats,
            Request::Shutdown,
        ];
        for frame in frames {
            let line = encode_line(&frame);
            assert!(line.ends_with('\n'));
            let back = parse_request(line.trim_end().as_bytes()).expect("round trip");
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn video_scope_wire_shapes() {
        // "all" only parses for `query` …
        let req = parse_request(b"{\"kind\": \"query\", \"sql\": \"S\", \"video\": \"all\"}")
            .expect("query all");
        assert_eq!(
            req,
            Request::Query {
                sql: "S".into(),
                video: VideoScope::All
            }
        );
        let (reason, message) =
            parse_request(b"{\"kind\": \"stream\", \"sql\": \"S\", \"video\": \"all\"}")
                .expect_err("stream all");
        assert_eq!(reason, RejectReason::BadRequest);
        assert!(message.contains("single video"), "{message}");
        // … any other string is a typed bad_request …
        let (reason, _) =
            parse_request(b"{\"kind\": \"query\", \"sql\": \"S\", \"video\": \"every\"}")
                .expect_err("bad scope");
        assert_eq!(reason, RejectReason::BadRequest);
        // … and the scope helpers behave.
        assert_eq!(VideoScope::One(4).one(), Some(4));
        assert_eq!(VideoScope::All.one(), None);
        assert_eq!(VideoScope::from(Some(2)), VideoScope::One(2));
        assert_eq!(VideoScope::from(None), VideoScope::Sole);
    }

    #[test]
    fn decode_classifies_each_failure() {
        let cases: [(&[u8], RejectReason); 6] = [
            (b"\xff\xfe{}", RejectReason::BadUtf8),
            (b"{\"kind\": \"que", RejectReason::BadJson),
            (b"not json at all", RejectReason::BadJson),
            (b"{\"kind\": \"warp\"}", RejectReason::UnknownKind),
            (b"{\"sql\": \"SELECT\"}", RejectReason::BadRequest),
            (b"{\"kind\": \"query\"}", RejectReason::BadRequest),
        ];
        for (raw, want) in cases {
            let (reason, message) = parse_request(raw).expect_err("must fail");
            assert_eq!(reason, want, "{message}");
            assert!(!message.is_empty());
        }
        // `video` must be an id, not prose.
        let (reason, _) =
            parse_request(b"{\"kind\": \"query\", \"sql\": \"S\", \"video\": \"three\"}")
                .expect_err("bad video");
        assert_eq!(reason, RejectReason::BadRequest);
    }

    #[test]
    fn pipeline_ids_round_trip_and_misfits_are_typed() {
        // Request side: id survives the encode/decode round trip …
        let line = encode_request_line(
            &Request::Query {
                sql: "SELECT".into(),
                video: VideoScope::One(1),
            },
            Some(7),
        );
        let frame = parse_request_frame(line.trim_end().as_bytes()).expect("round trip");
        assert_eq!(frame.id, Some(7));
        // … its absence decodes as a v1 frame …
        let line = encode_request_line(&Request::Stats, None);
        let frame = parse_request_frame(line.trim_end().as_bytes()).expect("v1 frame");
        assert_eq!(frame.id, None);
        assert!(!line.contains("\"id\""));
        // … and an ill-typed id is a typed bad_request, not a panic.
        for raw in [
            &b"{\"kind\": \"stats\", \"id\": \"seven\"}"[..],
            &b"{\"kind\": \"stats\", \"id\": -3}"[..],
            &b"{\"kind\": \"stats\", \"id\": 1.5}"[..],
        ] {
            let (reason, message) = parse_request_frame(raw).expect_err("bad id");
            assert_eq!(reason, RejectReason::BadRequest, "{message}");
        }
        // Response side: the echoed id rides outside the Response enum.
        let line = encode_response_line(&Response::Bye, Some(42));
        let frame: ResponseFrame = serde_json::from_str(line.trim_end()).expect("decodes");
        assert_eq!(frame.id, Some(42));
        assert_eq!(frame.response, Response::Bye);
        // A v1 decoder ignores the id entirely.
        let plain: Response = serde_json::from_str(line.trim_end()).expect("v1 decode");
        assert_eq!(plain, Response::Bye);
        let line = encode_response_line(&Response::Bye, None);
        let frame: ResponseFrame = serde_json::from_str(line.trim_end()).expect("decodes");
        assert_eq!(frame.id, None);
    }

    #[test]
    fn subscription_frames_round_trip_and_misfits_are_typed() {
        // Every push-side frame survives the wire, id-tagged like any
        // other v2 response.
        let pushes = [
            Response::Subscribed {
                sub: 4,
                from_seq: 2,
            },
            Response::Event {
                sub: 4,
                seq: 9,
                clip: 41,
                first: 40,
                last: 41,
                at: 123_456_789,
            },
            Response::Drift {
                sub: 4,
                backgrounds: vec![0.25, 0.5],
                criticals: vec![3, 2],
            },
            Response::Lagged { sub: 4, missed: 17 },
            Response::Unsubscribed {
                sub: 4,
                delivered: 10,
                missed: 17,
                total: 27,
            },
        ];
        for frame in pushes {
            let line = encode_response_line(&frame, Some(11));
            let back: ResponseFrame = serde_json::from_str(line.trim_end()).expect("decodes");
            assert_eq!(back.id, Some(11));
            assert_eq!(back.response, frame);
        }
        // Request-side misfits are typed, never panics.
        let cases: [(&[u8], &str); 4] = [
            (b"{\"kind\": \"subscribe\"}", "sql"),
            (
                b"{\"kind\": \"subscribe\", \"sql\": \"S\", \"video\": \"all\"}",
                "single live source",
            ),
            (
                b"{\"kind\": \"subscribe\", \"sql\": \"S\", \"drift_every\": -1}",
                "drift_every",
            ),
            (b"{\"kind\": \"unsubscribe\"}", "sub"),
        ];
        for (raw, needle) in cases {
            let (reason, message) = parse_request(raw).expect_err("must fail");
            assert_eq!(reason, RejectReason::BadRequest, "{message}");
            assert!(message.contains(needle), "{message}");
        }
        // A truncated push frame decodes to a typed error, not a panic.
        let err = Response::from_value(
            &serde_json::from_str::<Value>("{\"kind\": \"event\", \"sub\": 1}").expect("json"),
        )
        .expect_err("missing fields");
        assert!(err.0.contains("seq"), "{}", err.0);
    }

    #[test]
    fn error_frames_round_trip_every_reason() {
        for reason in svq_types::RejectReason::ALL {
            let frame = Response::Error {
                reason,
                message: format!("because {reason}"),
            };
            let line = encode_line(&frame);
            let back: Response = serde_json::from_str(line.trim_end()).expect("decodes");
            assert_eq!(back, frame);
        }
    }

    #[test]
    fn bounded_reader_survives_oversize_and_resyncs() {
        let mut payload = vec![b'x'; 64];
        payload.push(b'\n');
        payload.extend_from_slice(b"after\n");
        let mut reader = BufReader::with_capacity(8, payload.as_slice());
        match read_bounded_line(&mut reader, 16) {
            LineEvent::Oversize { eof: false } => {}
            other => panic!("expected oversize, got {other:?}"),
        }
        // Resynchronised on the next frame.
        match read_bounded_line(&mut reader, 16) {
            LineEvent::Line(line) => assert_eq!(line, b"after"),
            other => panic!("expected line, got {other:?}"),
        }
        match read_bounded_line(&mut reader, 16) {
            LineEvent::Eof => {}
            other => panic!("expected eof, got {other:?}"),
        }
    }

    #[test]
    fn bounded_reader_reports_truncated_tail() {
        let mut reader = BufReader::new(&b"{\"kind\": \"stats\"}"[..]);
        match read_bounded_line(&mut reader, 1024) {
            LineEvent::Line(line) => assert_eq!(line, b"{\"kind\": \"stats\"}"),
            other => panic!("unterminated tail must surface, got {other:?}"),
        }
        let mut reader = BufReader::new(&b""[..]);
        assert!(matches!(
            read_bounded_line(&mut reader, 1024),
            LineEvent::Eof
        ));
    }
}
