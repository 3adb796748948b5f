//! The `svq-serve` wire protocol: JSON lines over TCP.
//!
//! One frame per line, UTF-8 JSON, `\n`-terminated, at most
//! [`MAX_LINE_BYTES`] bytes including the newline. Requests and responses
//! are externally tagged by a `kind` field:
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
//! UTF-8, truncated JSON, or an unknown `kind` each produce a typed error
//! frame and leave the connection usable (the reader resynchronises on the
//! next newline).

use serde::{json, DeError, Deserialize, EncodeError, Serialize, Value};
use std::io::{BufRead, ErrorKind, Read};
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VideoScope {
    /// No video named: legal only when the server holds exactly one, which
    /// is then inferred (the v1 convenience contract).
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

impl From<Option<u64>> for VideoScope {
    fn from(video: Option<u64>) -> Self {
        video.map_or(VideoScope::Sole, VideoScope::One)
    }
}

/// A client-to-server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Offline top-K query against the served catalog repository.
    Query { sql: String, video: VideoScope },
    /// Online query over one of the served live streams. Streams always
    /// target a single (named or sole) video; `"all"` is rejected.
    Stream { sql: String, video: Option<u64> },
    /// Register a standing query against the server's paced live source;
    /// the server pushes `event` frames as clip indicators fire. v2-only:
    /// the frame must carry an `id` (it tags every pushed frame).
    Subscribe {
        sql: String,
        /// The live-source video this subscription watches (absent: the
        /// sole served source is inferred).
        video: Option<u64>,
        /// Push a `drift` estimator snapshot every this many source clips
        /// (0 = never).
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
    /// The `kind` tag on the wire (also the per-kind metrics key).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Query { .. } => "query",
            Request::Stream { .. } => "stream",
            Request::Subscribe { .. } => "subscribe",
            Request::Unsubscribe { .. } => "unsubscribe",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
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
#[derive(Debug, Clone, PartialEq)]
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
        reason: RejectReason,
        message: String,
    },
}

// Externally tagged by `kind`; hand-written because the derive stand-in
// has no struct-variant support and because decoding distinguishes
// unknown kinds from ill-typed fields (different [`RejectReason`]s).
impl Serialize for Request {
    fn to_value(&self) -> Value {
        match self {
            Request::Query { sql, video } => tagged(
                "query",
                vec![
                    ("sql".into(), sql.to_value()),
                    (
                        "video".into(),
                        match video {
                            VideoScope::Sole => Value::Null,
                            VideoScope::One(v) => v.to_value(),
                            VideoScope::All => Value::Str("all".into()),
                        },
                    ),
                ],
            ),
            Request::Stream { sql, video } => tagged(
                "stream",
                vec![
                    ("sql".into(), sql.to_value()),
                    ("video".into(), video.to_value()),
                ],
            ),
            Request::Subscribe {
                sql,
                video,
                drift_every,
            } => tagged(
                "subscribe",
                vec![
                    ("sql".into(), sql.to_value()),
                    ("video".into(), video.to_value()),
                    ("drift_every".into(), drift_every.to_value()),
                ],
            ),
            Request::Unsubscribe { sub } => {
                tagged("unsubscribe", vec![("sub".into(), sub.to_value())])
            }
            Request::Stats => tagged("stats", vec![]),
            Request::Shutdown => tagged("shutdown", vec![]),
        }
    }

    fn write_json(&self, out: &mut String) -> Result<(), EncodeError> {
        self.write_frame(None, out)
    }
}

impl Deserialize for Request {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        RequestMembers::of(value).frame().map(|frame| frame.request)
    }

    fn read_json(reader: &mut json::Reader<'_>) -> Result<Self, json::ReadError> {
        let frame = RequestMembers::read(reader)?.frame()?;
        Ok(frame.request)
    }
}

impl Deserialize for RequestFrame {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        RequestMembers::of(value).frame()
    }

    fn read_json(reader: &mut json::Reader<'_>) -> Result<Self, json::ReadError> {
        Ok(RequestMembers::read(reader)?.frame()?)
    }
}

impl Request {
    /// Write the frame's JSON text: `kind`, the variant's fields in
    /// [`Serialize::to_value`]'s order, then the pipeline `id` when given.
    fn write_frame(&self, id: Option<u64>, out: &mut String) -> Result<(), EncodeError> {
        let mut object = json::Object::begin(out);
        object.field("kind", self.kind())?;
        match self {
            Request::Query { sql, video } => {
                object.field("sql", sql)?;
                match video {
                    VideoScope::All => object.field("video", "all")?,
                    scope => object.field("video", &scope.one())?,
                };
            }
            Request::Stream { sql, video } => {
                object.field("sql", sql)?.field("video", video)?;
            }
            Request::Subscribe {
                sql,
                video,
                drift_every,
            } => {
                object
                    .field("sql", sql)?
                    .field("video", video)?
                    .field("drift_every", drift_every)?;
            }
            Request::Unsubscribe { sub } => {
                object.field("sub", sub)?;
            }
            Request::Stats | Request::Shutdown => {}
        }
        if let Some(id) = id {
            object.field("id", &id)?;
        }
        object.end()
    }
}

impl Serialize for Response {
    fn to_value(&self) -> Value {
        match self {
            Response::Outcome(outcome) => {
                tagged("outcome", vec![("outcome".into(), outcome.to_value())])
            }
            Response::Stats(stats) => tagged("stats", vec![("stats".into(), stats.to_value())]),
            Response::Subscribed { sub, from_seq } => tagged(
                "subscribed",
                vec![
                    ("sub".into(), sub.to_value()),
                    ("from_seq".into(), from_seq.to_value()),
                ],
            ),
            Response::Event {
                sub,
                seq,
                clip,
                first,
                last,
                at,
            } => tagged(
                "event",
                vec![
                    ("sub".into(), sub.to_value()),
                    ("seq".into(), seq.to_value()),
                    ("clip".into(), clip.to_value()),
                    ("first".into(), first.to_value()),
                    ("last".into(), last.to_value()),
                    ("at".into(), at.to_value()),
                ],
            ),
            Response::Drift {
                sub,
                backgrounds,
                criticals,
            } => tagged(
                "drift",
                vec![
                    ("sub".into(), sub.to_value()),
                    ("backgrounds".into(), backgrounds.to_value()),
                    ("criticals".into(), criticals.to_value()),
                ],
            ),
            Response::Lagged { sub, missed } => tagged(
                "lagged",
                vec![
                    ("sub".into(), sub.to_value()),
                    ("missed".into(), missed.to_value()),
                ],
            ),
            Response::Unsubscribed {
                sub,
                delivered,
                missed,
                total,
            } => tagged(
                "unsubscribed",
                vec![
                    ("sub".into(), sub.to_value()),
                    ("delivered".into(), delivered.to_value()),
                    ("missed".into(), missed.to_value()),
                    ("total".into(), total.to_value()),
                ],
            ),
            Response::Bye => tagged("bye", vec![]),
            Response::Error { reason, message } => tagged(
                "error",
                vec![
                    ("code".into(), Value::Str(reason.code().into())),
                    ("message".into(), message.to_value()),
                ],
            ),
        }
    }

    fn write_json(&self, out: &mut String) -> Result<(), EncodeError> {
        self.write_frame(None, out)
    }
}

impl Response {
    /// Write the frame's JSON text: `kind`, the variant's fields in
    /// [`Serialize::to_value`]'s order, then the pipeline `id` when given.
    fn write_frame(&self, id: Option<u64>, out: &mut String) -> Result<(), EncodeError> {
        let mut object = json::Object::begin(out);
        match self {
            Response::Outcome(outcome) => {
                object.field("kind", "outcome")?.field("outcome", outcome)?;
            }
            Response::Stats(stats) => {
                object.field("kind", "stats")?.field("stats", stats)?;
            }
            Response::Subscribed { sub, from_seq } => {
                object
                    .field("kind", "subscribed")?
                    .field("sub", sub)?
                    .field("from_seq", from_seq)?;
            }
            Response::Event {
                sub,
                seq,
                clip,
                first,
                last,
                at,
            } => {
                object
                    .field("kind", "event")?
                    .field("sub", sub)?
                    .field("seq", seq)?
                    .field("clip", clip)?
                    .field("first", first)?
                    .field("last", last)?
                    .field("at", at)?;
            }
            Response::Drift {
                sub,
                backgrounds,
                criticals,
            } => {
                object
                    .field("kind", "drift")?
                    .field("sub", sub)?
                    .field("backgrounds", backgrounds)?
                    .field("criticals", criticals)?;
            }
            Response::Lagged { sub, missed } => {
                object
                    .field("kind", "lagged")?
                    .field("sub", sub)?
                    .field("missed", missed)?;
            }
            Response::Unsubscribed {
                sub,
                delivered,
                missed,
                total,
            } => {
                object
                    .field("kind", "unsubscribed")?
                    .field("sub", sub)?
                    .field("delivered", delivered)?
                    .field("missed", missed)?
                    .field("total", total)?;
            }
            Response::Bye => {
                object.field("kind", "bye")?;
            }
            Response::Error { reason, message } => {
                object
                    .field("kind", "error")?
                    .field("code", reason.code())?
                    .field("message", message)?;
            }
        }
        if let Some(id) = id {
            object.field("id", &id)?;
        }
        object.end()
    }
}

impl Deserialize for Response {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let kind = match value.get("kind") {
            Some(Value::Str(k)) => k.as_str(),
            _ => return Err(DeError("response frame without a string `kind`".into())),
        };
        let field = |name: &'static str| {
            value
                .get(name)
                .ok_or_else(|| DeError::missing_field("Response", name))
        };
        match kind {
            "outcome" => value
                .get("outcome")
                .ok_or_else(|| DeError::missing_field("Response", "outcome"))
                .and_then(Deserialize::from_value)
                .map(Response::Outcome),
            "stats" => value
                .get("stats")
                .ok_or_else(|| DeError::missing_field("Response", "stats"))
                .and_then(Deserialize::from_value)
                .map(Response::Stats),
            "subscribed" => Ok(Response::Subscribed {
                sub: field("sub").and_then(u64::from_value)?,
                from_seq: field("from_seq").and_then(u64::from_value)?,
            }),
            "event" => Ok(Response::Event {
                sub: field("sub").and_then(u64::from_value)?,
                seq: field("seq").and_then(u64::from_value)?,
                clip: field("clip").and_then(u64::from_value)?,
                first: field("first").and_then(u64::from_value)?,
                last: field("last").and_then(u64::from_value)?,
                at: field("at").and_then(u64::from_value)?,
            }),
            "drift" => Ok(Response::Drift {
                sub: field("sub").and_then(u64::from_value)?,
                backgrounds: field("backgrounds").and_then(Deserialize::from_value)?,
                criticals: field("criticals").and_then(Deserialize::from_value)?,
            }),
            "lagged" => Ok(Response::Lagged {
                sub: field("sub").and_then(u64::from_value)?,
                missed: field("missed").and_then(u64::from_value)?,
            }),
            "unsubscribed" => Ok(Response::Unsubscribed {
                sub: field("sub").and_then(u64::from_value)?,
                delivered: field("delivered").and_then(u64::from_value)?,
                missed: field("missed").and_then(u64::from_value)?,
                total: field("total").and_then(u64::from_value)?,
            }),
            "bye" => Ok(Response::Bye),
            "error" => {
                let code = match value.get("code") {
                    Some(Value::Str(c)) => c.as_str(),
                    _ => return Err(DeError::missing_field("Response", "code")),
                };
                let reason = RejectReason::from_code(code)
                    .ok_or_else(|| DeError(format!("unknown error code {code:?}")))?;
                let message = value
                    .get("message")
                    .ok_or_else(|| DeError::missing_field("Response", "message"))
                    .and_then(Deserialize::from_value)?;
                Ok(Response::Error { reason, message })
            }
            other => Err(DeError(format!("unknown response kind {other:?}"))),
        }
    }

    fn read_json(reader: &mut json::Reader<'_>) -> Result<Self, json::ReadError> {
        match read_response(reader, false)? {
            Some((_, response)) => Ok(response),
            None => reader.fallback(),
        }
    }
}

/// The integer members each response `kind` reads, in its field order.
fn integer_members(kind: &str) -> &'static [&'static str] {
    match kind {
        "subscribed" => &["sub", "from_seq"],
        "event" => &["sub", "seq", "clip", "first", "last", "at"],
        "drift" => &["sub"],
        "lagged" => &["sub", "missed"],
        "unsubscribed" => &["sub", "delivered", "missed", "total"],
        _ => &[],
    }
}

/// Read a response frame (and its `id`, when `with_id`) straight from the
/// text: the `kind` member first, then the members that kind reads, in any
/// order, the first of a repeated key winning and every other member
/// skipped. `None` when the next value is not an object whose first member
/// is a string `kind`; the caller reads that one as a tree.
fn read_response(
    reader: &mut json::Reader<'_>,
    with_id: bool,
) -> Result<Option<(Option<u64>, Response)>, json::ReadError> {
    let Some(kind) = reader.tagged("kind")? else {
        return Ok(None);
    };
    let mut first = false;
    let kind = match &*kind {
        "outcome" | "stats" | "subscribed" | "event" | "drift" | "lagged" | "unsubscribed"
        | "bye" | "error" => kind,
        other => return Err(DeError(format!("unknown response kind {other:?}")).into()),
    };
    let integers = integer_members(&kind);
    let mut ints = [None; 6];
    let (mut outcome, mut stats, mut backgrounds, mut criticals) = (None, None, None, None);
    let (mut code, mut message, mut id) = (None::<String>, None, None::<Option<u64>>);
    while let Some(key) = reader.key(&mut first)? {
        if let Some(i) = integers.iter().position(|&name| name == key) {
            json::read_member(reader, &mut ints[i])?;
            continue;
        }
        match (&*kind, &*key) {
            ("outcome", "outcome") => json::read_member(reader, &mut outcome)?,
            ("stats", "stats") => json::read_member(reader, &mut stats)?,
            ("drift", "backgrounds") => json::read_member(reader, &mut backgrounds)?,
            ("drift", "criticals") => json::read_member(reader, &mut criticals)?,
            ("error", "code") => json::read_member(reader, &mut code)?,
            ("error", "message") => json::read_member(reader, &mut message)?,
            (_, "id") if with_id => json::read_member(reader, &mut id)?,
            _ => reader.skip()?,
        }
    }
    let int = |i: usize| json::required(ints[i], "Response", integers[i]);
    let response = match &*kind {
        "outcome" => Response::Outcome(json::required(outcome, "Response", "outcome")?),
        "stats" => Response::Stats(json::required(stats, "Response", "stats")?),
        "subscribed" => Response::Subscribed {
            sub: int(0)?,
            from_seq: int(1)?,
        },
        "event" => Response::Event {
            sub: int(0)?,
            seq: int(1)?,
            clip: int(2)?,
            first: int(3)?,
            last: int(4)?,
            at: int(5)?,
        },
        "drift" => Response::Drift {
            sub: int(0)?,
            backgrounds: json::required(backgrounds, "Response", "backgrounds")?,
            criticals: json::required(criticals, "Response", "criticals")?,
        },
        "lagged" => Response::Lagged {
            sub: int(0)?,
            missed: int(1)?,
        },
        "unsubscribed" => Response::Unsubscribed {
            sub: int(0)?,
            delivered: int(1)?,
            missed: int(2)?,
            total: int(3)?,
        },
        "bye" => Response::Bye,
        _ => {
            let code = json::required(code, "Response", "code")?;
            let reason = RejectReason::from_code(&code)
                .ok_or_else(|| DeError(format!("unknown error code {code:?}")))?;
            Response::Error {
                reason,
                message: json::required(message, "Response", "message")?,
            }
        }
    };
    Ok(Some((id.flatten(), response)))
}

fn tagged(kind: &str, mut fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    all.append(&mut fields);
    Value::Object(all)
}

/// Encode any frame as one newline-terminated line.
pub fn encode_line<T: Serialize + ?Sized>(frame: &T) -> String {
    encode_with(|line| frame.write_json(line))
}

/// Encode a request with a pipeline `id` as one newline-terminated line.
pub fn encode_request_line(request: &Request, id: Option<u64>) -> String {
    encode_with(|line| request.write_frame(id, line))
}

/// Encode a response, echoing the request's pipeline `id` when present.
pub fn encode_response_line(response: &Response, id: Option<u64>) -> String {
    encode_with(|line| response.write_frame(id, line))
}

/// Run one frame writer and terminate its line. Every encode writes the
/// text straight from the typed frame; no [`Value`] is built.
fn encode_with(write: impl FnOnce(&mut String) -> Result<(), EncodeError>) -> String {
    serde_json::write_to_string(|line| {
        write(line)?;
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

impl Deserialize for ResponseFrame {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let id = match value.get("id") {
            None | Some(Value::Null) => None,
            Some(v) => Some(u64::from_value(v)?),
        };
        Ok(ResponseFrame {
            id,
            response: Response::from_value(value)?,
        })
    }

    fn read_json(reader: &mut json::Reader<'_>) -> Result<Self, json::ReadError> {
        match read_response(reader, true)? {
            Some((id, response)) => Ok(ResponseFrame { id, response }),
            None => reader.fallback(),
        }
    }
}

/// The members a request frame is decoded from: each the first of its key,
/// as [`Value::get`] returns it, read as a tree (a request member is a
/// scalar); every other member is only checked as JSON.
#[derive(Debug, Default)]
struct RequestMembers {
    kind: Option<Value>,
    sql: Option<Value>,
    video: Option<Value>,
    drift_every: Option<Value>,
    sub: Option<Value>,
    id: Option<Value>,
}

impl RequestMembers {
    fn slot(&mut self, key: &str) -> Option<&mut Option<Value>> {
        match key {
            "kind" => Some(&mut self.kind),
            "sql" => Some(&mut self.sql),
            "video" => Some(&mut self.video),
            "drift_every" => Some(&mut self.drift_every),
            "sub" => Some(&mut self.sub),
            "id" => Some(&mut self.id),
            _ => None,
        }
    }

    /// The members of a frame's tree (none, if it is not an object).
    fn of(value: &Value) -> Self {
        let member = |key| value.get(key).cloned();
        RequestMembers {
            kind: member("kind"),
            sql: member("sql"),
            video: member("video"),
            drift_every: member("drift_every"),
            sub: member("sub"),
            id: member("id"),
        }
    }

    /// The members read straight from the text (none, if the next value is
    /// not an object). Fails only on text that is not JSON.
    fn read(reader: &mut json::Reader<'_>) -> Result<Self, json::ReadError> {
        let mut members = RequestMembers::default();
        if reader.peek()? != b'{' {
            reader.skip()?;
            return Ok(members);
        }
        reader.begin_object()?;
        let mut first = true;
        while let Some(key) = reader.key(&mut first)? {
            match members.slot(&key) {
                Some(slot @ None) => *slot = Some(reader.value()?),
                _ => reader.skip()?,
            }
        }
        Ok(members)
    }

    /// [`RequestMembers::decode`] for `Deserialize`: the category becomes
    /// the error's prefix.
    fn frame(self) -> Result<RequestFrame, DeError> {
        self.decode()
            .map_err(|(reason, message)| DeError(format!("{reason}: {message}")))
    }

    /// The request these members spell, or the wire category of the first
    /// thing wrong with it: the `kind`, then the kind's fields, then the
    /// pipeline `id`.
    fn decode(self) -> Result<RequestFrame, (RejectReason, String)> {
        let kind = match self.kind {
            Some(Value::Str(k)) => k,
            Some(other) => {
                return Err((
                    RejectReason::BadRequest,
                    format!("`kind` must be a string, got {}", other.kind()),
                ))
            }
            None => {
                return Err((
                    RejectReason::BadRequest,
                    "request frame without a `kind` field".into(),
                ))
            }
        };
        let request = match kind.as_str() {
            "query" => Request::Query {
                sql: sql(self.sql, "query")?,
                video: scope(self.video)?,
            },
            "stream" => Request::Stream {
                sql: sql(self.sql, "stream")?,
                video: match scope(self.video)? {
                    VideoScope::Sole => None,
                    VideoScope::One(v) => Some(v),
                    VideoScope::All => {
                        return Err((
                            RejectReason::BadRequest,
                            "`stream` requests target a single video; \
                             `\"all\"` is only valid for `query`"
                                .into(),
                        ))
                    }
                },
            },
            "subscribe" => Request::Subscribe {
                sql: sql(self.sql, "subscribe")?,
                video: match scope(self.video)? {
                    VideoScope::Sole => None,
                    VideoScope::One(v) => Some(v),
                    VideoScope::All => {
                        return Err((
                            RejectReason::BadRequest,
                            "`subscribe` requests target a single live source; \
                             `\"all\"` is only valid for `query`"
                                .into(),
                        ))
                    }
                },
                drift_every: match self.drift_every {
                    None | Some(Value::Null) => 0,
                    Some(v) => u64::from_value(&v).map_err(|e| {
                        (
                            RejectReason::BadRequest,
                            format!("`drift_every` must be a non-negative integer: {e}"),
                        )
                    })?,
                },
            },
            "unsubscribe" => Request::Unsubscribe {
                sub: match self.sub {
                    Some(v) => u64::from_value(&v).map_err(|e| {
                        (
                            RejectReason::BadRequest,
                            format!("`sub` must be a subscription handle: {e}"),
                        )
                    })?,
                    None => {
                        return Err((
                            RejectReason::BadRequest,
                            "`unsubscribe` requests need a `sub` field".into(),
                        ))
                    }
                },
            },
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            other => {
                return Err((
                    RejectReason::UnknownKind,
                    format!(
                        "unknown request kind {other:?} \
                         (query|stream|subscribe|unsubscribe|stats|shutdown)"
                    ),
                ))
            }
        };
        let id = match self.id {
            None | Some(Value::Null) => None,
            Some(v) => Some(u64::from_value(&v).map_err(|e| {
                (
                    RejectReason::BadRequest,
                    format!("`id` must be a non-negative integer: {e}"),
                )
            })?),
        };
        Ok(RequestFrame { id, request })
    }
}

/// A request's `sql` member.
fn sql(member: Option<Value>, kind: &str) -> Result<String, (RejectReason, String)> {
    match member {
        Some(Value::Str(s)) => Ok(s),
        Some(other) => Err((
            RejectReason::BadRequest,
            format!("`sql` must be a string, got {}", other.kind()),
        )),
        None => Err((
            RejectReason::BadRequest,
            format!("`{kind}` requests need a `sql` field"),
        )),
    }
}

/// A request's `video` member.
fn scope(member: Option<Value>) -> Result<VideoScope, (RejectReason, String)> {
    match member {
        None | Some(Value::Null) => Ok(VideoScope::Sole),
        Some(Value::Str(s)) if s == "all" => Ok(VideoScope::All),
        Some(Value::Str(s)) => Err((
            RejectReason::BadRequest,
            format!("`video` must be a video id or \"all\", got {s:?}"),
        )),
        Some(v) => u64::from_value(&v).map(VideoScope::One).map_err(|e| {
            (
                RejectReason::BadRequest,
                format!("`video` must be a video id: {e}"),
            )
        }),
    }
}

/// Decode one raw request line into a [`Request`], mapping each failure
/// mode to its wire category. Discards any pipeline `id`; servers use
/// [`parse_request_frame`].
pub fn parse_request(line: &[u8]) -> Result<Request, (RejectReason, String)> {
    parse_request_frame(line).map(|frame| frame.request)
}

/// Decode one raw request line into a [`RequestFrame`] (request plus
/// optional pipeline `id`), mapping each failure mode to its wire category.
///
/// Reads the frame straight from the text, building no tree: text that is
/// not JSON anywhere on the line is `bad_json`, whatever its members hold;
/// then the `kind`, the kind's fields and the `id` are judged in that
/// order, as the frame's tree would be.
pub fn parse_request_frame(line: &[u8]) -> Result<RequestFrame, (RejectReason, String)> {
    let text = std::str::from_utf8(line)
        .map_err(|e| (RejectReason::BadUtf8, format!("request line: {e}")))?;
    let mut reader = json::Reader::new(text);
    let members = RequestMembers::read(&mut reader)
        .and_then(|members| reader.finish().map(|()| members))
        .map_err(|e| {
            (
                RejectReason::BadJson,
                format!("request line: json error: {e}"),
            )
        })?;
    members.decode()
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
