//! Every protocol type reads its value straight from JSON text
//! (`Deserialize::read_json`, which `serde_json::from_str` takes), and the
//! result must be that of the tree path, `from_value` of the text's parsed
//! `Value`: the same value (down to the sign of a zero), or an error
//! exactly when the tree path fails. A request
//! line must get the same `RejectReason` from `parse_request_frame` as from
//! the tree decoder it replaced, kept below as [`reference_request`].
//!
//! Each value is fed as encoded and in mutated forms: members shuffled,
//! repeated (the first wins), unknown, with escaped keys, or wrapped in
//! whitespace; a subtree swapped for a value of another type; the text
//! truncated; a byte overwritten; a number given a leading zero.
//!
//! Covered: every `Request` and `Response` variant (with and without a
//! pipeline `id`), `QueryOutcome` in online, offline and cluster mode,
//! `StatsFrame`, and the derived interval, ledger, ranking and config
//! types, including derived enums with unit, newtype and tuple variants.
//! The deep run is `PROPTEST_CASES=2000 cargo test --release -p svq-serve
//! --test decode`.

use proptest::prelude::*;
use proptest::TestRng;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;
use svq_core::offline::{RankedSequence, TopKResult};
use svq_core::online::{BackgroundUpdate, OnlineConfig};
use svq_query::cluster::{ClusterRanked, ClusterTopK};
use svq_query::{QueryOutcome, QueryResults};
use svq_serve::{
    encode_request_line, encode_response_line, parse_request_frame, Request, RequestFrame,
    Response, ResponseFrame, StatsFrame, VideoScope,
};
use svq_storage::DiskStats;
use svq_types::{ActionClass, ClipId, ClipInterval, ObjectClass, Predicate, RejectReason, VideoId};
use svq_vision::CostLedger;

/// A strategy from a plain generator function.
struct Gen<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

fn below(rng: &mut TestRng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn int(rng: &mut TestRng) -> u64 {
    match below(rng, 4) {
        0 => below(rng, 10),
        1 => below(rng, 100_000),
        2 => rng.next_u64() >> below(rng, 64),
        _ => u64::MAX - below(rng, 3),
    }
}

/// Finite floats of every spelling the writer has: integral (`2.0`),
/// fractional, integral past 1e15 (bare digits, which read back as an
/// integer), subnormal, `-0.0`.
fn float(rng: &mut TestRng) -> f64 {
    match below(rng, 4) {
        0 => -0.0,
        1 => below(rng, 2_001) as f64 - 1_000.0,
        2 => (rng.unit_f64() - 0.5) * 1e6,
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break f;
            }
        },
    }
}

const CHARS: [char; 12] = [
    'a', ' ', '/', '"', '\\', '\n', '\u{0}', '\u{1f}', '\u{7f}', 'é', '日', '🎬',
];

fn string(rng: &mut TestRng) -> String {
    (0..below(rng, 8))
        .map(|_| CHARS[below(rng, CHARS.len() as u64) as usize])
        .collect()
}

fn vec_of<T>(rng: &mut TestRng, item: fn(&mut TestRng) -> T) -> Vec<T> {
    (0..below(rng, 5)).map(|_| item(rng)).collect()
}

fn option_of<T>(rng: &mut TestRng, item: fn(&mut TestRng) -> T) -> Option<T> {
    (below(rng, 3) > 0).then(|| item(rng))
}

fn interval(rng: &mut TestRng) -> ClipInterval {
    let (a, b) = (int(rng), int(rng));
    ClipInterval::new(ClipId::new(a.min(b)), ClipId::new(a.max(b)))
}

fn disk(rng: &mut TestRng) -> DiskStats {
    DiskStats {
        sorted_accesses: int(rng),
        random_accesses: int(rng),
    }
}

fn ledger(rng: &mut TestRng) -> CostLedger {
    CostLedger {
        object_frames: int(rng),
        action_shots: int(rng),
        object_ms: float(rng),
        action_ms: float(rng),
        algorithm_ms: float(rng),
    }
}

fn topk(rng: &mut TestRng) -> TopKResult {
    TopKResult {
        ranked: vec_of(rng, |rng| RankedSequence {
            interval: interval(rng),
            lower: float(rng),
            upper: float(rng),
            exact: option_of(rng, float),
        }),
        disk: disk(rng),
        wall_ms: float(rng),
        io_ms: float(rng),
        iterations: int(rng),
        total_sequences: int(rng) as usize,
    }
}

fn cluster(rng: &mut TestRng) -> ClusterTopK {
    ClusterTopK {
        k: int(rng) as usize,
        ranked: vec_of(rng, |rng| ClusterRanked {
            video: VideoId::new(int(rng)),
            interval: interval(rng),
            score: float(rng),
        }),
        tail_bound: option_of(rng, float),
        videos: int(rng) as usize,
        total_sequences: int(rng) as usize,
        wall_ms: float(rng),
    }
}

fn outcome(rng: &mut TestRng) -> QueryOutcome {
    let results = match below(rng, 3) {
        0 => QueryResults::Online {
            sequences: vec_of(rng, interval),
            cost: ledger(rng),
        },
        1 => QueryResults::Offline(topk(rng)),
        _ => QueryResults::Cluster(cluster(rng)),
    };
    QueryOutcome {
        results,
        disk: disk(rng),
        wall_ms: float(rng),
    }
}

/// The default frame's tree with each leaf redrawn.
fn stats(rng: &mut TestRng) -> StatsFrame {
    let Value::Object(fields) = StatsFrame::default().to_value() else {
        unreachable!("a struct is an object")
    };
    let fields = fields
        .into_iter()
        .map(|(key, leaf)| match leaf {
            Value::Float(_) => (key, Value::Float(float(rng))),
            _ => (key, Value::UInt(int(rng))),
        })
        .collect();
    StatsFrame::from_value(&Value::Object(fields)).expect("every leaf keeps its type")
}

fn request(rng: &mut TestRng) -> Request {
    match below(rng, 6) {
        0 => Request::Query {
            sql: string(rng),
            video: match below(rng, 3) {
                0 => VideoScope::Sole,
                1 => VideoScope::One(int(rng)),
                _ => VideoScope::All,
            },
        },
        1 => Request::Stream {
            sql: string(rng),
            video: option_of(rng, int),
        },
        2 => Request::Subscribe {
            sql: string(rng),
            video: option_of(rng, int),
            drift_every: int(rng),
        },
        3 => Request::Unsubscribe { sub: int(rng) },
        4 => Request::Stats,
        _ => Request::Shutdown,
    }
}

fn response(rng: &mut TestRng) -> Response {
    match below(rng, 9) {
        0 => Response::Outcome(outcome(rng)),
        1 => Response::Stats(stats(rng)),
        2 => Response::Subscribed {
            sub: int(rng),
            from_seq: int(rng),
        },
        3 => Response::Event {
            sub: int(rng),
            seq: int(rng),
            clip: int(rng),
            first: int(rng),
            last: int(rng),
            at: int(rng),
        },
        4 => Response::Drift {
            sub: int(rng),
            backgrounds: vec_of(rng, float),
            criticals: vec_of(rng, |rng| int(rng) as u32),
        },
        5 => Response::Lagged {
            sub: int(rng),
            missed: int(rng),
        },
        6 => Response::Unsubscribed {
            sub: int(rng),
            delivered: int(rng),
            missed: int(rng),
            total: int(rng),
        },
        7 => Response::Bye,
        _ => Response::Error {
            reason: RejectReason::ALL[below(rng, RejectReason::ALL.len() as u64) as usize],
            message: string(rng),
        },
    }
}

fn predicates(rng: &mut TestRng) -> Vec<Predicate> {
    vec_of(rng, |rng| {
        let object = |rng: &mut TestRng| ObjectClass(below(rng, 1 << 16) as u16);
        match below(rng, 3) {
            0 => Predicate::Object(object(rng)),
            1 => Predicate::Action(ActionClass(below(rng, 1 << 16) as u16)),
            _ => Predicate::LeftOf(object(rng), object(rng)),
        }
    })
}

fn config(rng: &mut TestRng) -> OnlineConfig {
    OnlineConfig {
        t_obj: float(rng),
        t_act: float(rng),
        alpha: float(rng),
        horizon_windows: float(rng),
        update: [
            BackgroundUpdate::NegativeClips,
            BackgroundUpdate::AllClips,
            BackgroundUpdate::PositiveClips,
        ][below(rng, 3) as usize],
    }
}

// --- mutations ------------------------------------------------------------

/// Any value: a scalar of each type, or a small container of scalars.
fn any_value(rng: &mut TestRng) -> Value {
    match below(rng, 9) {
        0 => Value::Null,
        1 => Value::Bool(below(rng, 2) == 1),
        2 => Value::UInt(int(rng)),
        3 => Value::Int(-1 - below(rng, 1 << 40) as i64),
        4 => Value::Float(float(rng)),
        5 => Value::Str(string(rng)),
        6 => {
            Value::Str(["all", "online", "outcome", "stats", "busy"][below(rng, 5) as usize].into())
        }
        7 => Value::Array((0..below(rng, 3)).map(|_| Value::UInt(int(rng))).collect()),
        _ => Value::Object(vec![("k".into(), Value::UInt(int(rng)))]),
    }
}

/// Every node of `value`, counted in pre-order.
fn nodes(value: &Value) -> usize {
    1 + match value {
        Value::Array(items) => items.iter().map(nodes).sum(),
        Value::Object(fields) => fields.iter().map(|(_, v)| nodes(v)).sum(),
        _ => 0,
    }
}

/// Replace the pre-order node `at` of `value` with `with`.
fn replace(value: &mut Value, at: &mut usize, with: &mut Option<Value>) {
    if *at == 0 {
        if let Some(new) = with.take() {
            *value = new;
        }
        return;
    }
    *at -= 1;
    match value {
        Value::Array(items) => items.iter_mut().for_each(|v| replace(v, at, with)),
        Value::Object(fields) => fields.iter_mut().for_each(|(_, v)| replace(v, at, with)),
        _ => {}
    }
}

/// `value` with one subtree (below the root) swapped for another value.
fn retyped(rng: &mut TestRng, value: &Value) -> Value {
    let mut value = value.clone();
    let count = nodes(&value);
    if count > 1 {
        let mut at = 1 + below(rng, count as u64 - 1) as usize;
        replace(&mut value, &mut at, &mut Some(any_value(rng)));
    }
    value
}

fn whitespace(rng: &mut TestRng, out: &mut String) {
    if below(rng, 6) == 0 {
        out.push_str([" ", "\n", "\t\r ", "  "][below(rng, 4) as usize]);
    }
}

/// A key spelled with some of its characters as `\u` escapes.
fn escaped_key(rng: &mut TestRng, key: &str, out: &mut String) {
    out.push('"');
    for c in key.chars() {
        if c.is_ascii_alphanumeric() && below(rng, 2) == 0 {
            out.push_str(&format!("\\u{:04x}", c as u32));
        } else {
            let quoted = serde_json::to_string(&c.to_string()).expect("a string encodes");
            out.push_str(&quoted[1..quoted.len() - 1]);
        }
    }
    out.push('"');
}

/// `value` as JSON text, noisily: whitespace around tokens, and objects
/// with members shuffled, repeated with another value, unknown members
/// added, and keys escaped.
fn noisy(rng: &mut TestRng, value: &Value, out: &mut String) {
    whitespace(rng, out);
    match value {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                noisy(rng, item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            let mut members: Vec<(String, Value)> = fields.clone();
            if below(rng, 4) == 0 {
                for i in (1..members.len()).rev() {
                    members.swap(i, below(rng, i as u64 + 1) as usize);
                }
            }
            if !members.is_empty() && below(rng, 4) == 0 {
                let (key, _) = members[below(rng, members.len() as u64) as usize].clone();
                let at = below(rng, members.len() as u64 + 1) as usize;
                members.insert(at, (key, any_value(rng)));
            }
            if below(rng, 4) == 0 {
                let key = ["zz", "kinds", "", "ID", "extra"][below(rng, 5) as usize].to_string();
                let at = below(rng, members.len() as u64 + 1) as usize;
                members.insert(at, (key, any_value(rng)));
            }
            out.push('{');
            for (i, (key, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                whitespace(rng, out);
                if below(rng, 5) == 0 {
                    escaped_key(rng, key, out);
                } else {
                    serde::json::write_str(key, out);
                }
                whitespace(rng, out);
                out.push(':');
                noisy(rng, item, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&serde_json::to_string(scalar).expect("finite scalars encode")),
    }
    whitespace(rng, out);
}

/// `text` cut at a random character boundary.
fn truncated(rng: &mut TestRng, text: &str) -> String {
    let mut at = below(rng, text.len() as u64 + 1) as usize;
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    text[..at].to_string()
}

/// `text` with one ASCII byte overwritten by another ASCII byte that a
/// token may hinge on, so the text stays UTF-8.
fn overwritten(rng: &mut TestRng, text: &str) -> String {
    let ascii: Vec<usize> = (0..text.len())
        .filter(|&i| text.as_bytes()[i].is_ascii())
        .collect();
    let mut bytes = text.as_bytes().to_vec();
    if let Some(&at) = ascii.get(below(rng, ascii.len().max(1) as u64) as usize) {
        bytes[at] = b"0.e-+\"\\:,}]{[n\x01 x"[below(rng, 17) as usize];
    }
    String::from_utf8(bytes).expect("ASCII for ASCII keeps the text UTF-8")
}

/// `text` with a `0` put before the first digit of one number.
fn leading_zero(rng: &mut TestRng, text: &str) -> String {
    let starts: Vec<usize> = (0..text.len())
        .filter(|&i| {
            let b = text.as_bytes();
            b[i].is_ascii_digit() && (i == 0 || matches!(b[i - 1], b':' | b',' | b'[' | b'-'))
        })
        .collect();
    match starts.get(below(rng, starts.len().max(1) as u64) as usize) {
        Some(&at) => format!("{}0{}", &text[..at], &text[at..]),
        None => text.to_string(),
    }
}

/// The encoded text and its mutated forms.
fn texts(rng: &mut TestRng, text: &str) -> Vec<String> {
    let tree: Value = serde_json::from_str(text).expect("encoded text parses");
    let mut out = vec![text.to_string()];
    for _ in 0..3 {
        let mut noise = String::new();
        noisy(rng, &tree, &mut noise);
        out.push(noise);
        let mut wrong = String::new();
        let retyped = retyped(rng, &tree);
        noisy(rng, &retyped, &mut wrong);
        out.push(wrong);
    }
    let last = out[out.len() - 2].clone();
    out.push(truncated(rng, text));
    out.push(truncated(rng, &last));
    out.push(overwritten(rng, text));
    out.push(overwritten(rng, &last));
    out.push(leading_zero(rng, text));
    out
}

// --- the checks -------------------------------------------------------------

/// The typed reader and the tree path agree on `text`: both fail, or both
/// read equal values whose `Debug` forms match too (so `-0.0` is not
/// `0.0`).
fn agree<T: Deserialize + PartialEq + Debug>(text: &str) {
    let typed = serde_json::from_str::<T>(text);
    let tree = serde_json::from_str::<Value>(text)
        .map_err(|e| e.to_string())
        .and_then(|v| T::from_value(&v).map_err(|e| e.to_string()));
    match (typed, tree) {
        (Ok(typed), Ok(tree)) => {
            assert_eq!(typed, tree, "{text}");
            assert_eq!(format!("{typed:?}"), format!("{tree:?}"), "{text}");
        }
        (Err(_), Err(_)) => {}
        (typed, tree) => panic!(
            "{}: typed {typed:?}, tree {tree:?}, on {text:?}",
            std::any::type_name::<T>()
        ),
    }
}

/// The request decoder as it read a line before it read the text
/// directly: parse the whole line into a tree, then judge the `kind`, the
/// kind's fields, and the `id`, each member looked up with `Value::get`.
fn reference_request(line: &str) -> Result<RequestFrame, RejectReason> {
    let bad = RejectReason::BadRequest;
    let value: Value = serde_json::from_str(line).map_err(|_| RejectReason::BadJson)?;
    let kind = match value.get("kind") {
        Some(Value::Str(kind)) => kind.clone(),
        _ => return Err(bad),
    };
    let sql = || match value.get("sql") {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(bad),
    };
    let scope = || match value.get("video") {
        None | Some(Value::Null) => Ok(VideoScope::Sole),
        Some(Value::Str(s)) if s == "all" => Ok(VideoScope::All),
        Some(Value::Str(_)) => Err(bad),
        Some(v) => u64::from_value(v).map(VideoScope::One).map_err(|_| bad),
    };
    let single = |scope: VideoScope| match scope {
        VideoScope::All => Err(bad),
        scope => Ok(scope.one()),
    };
    let integer = |key: &str| match value.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => u64::from_value(v).map(Some).map_err(|_| bad),
    };
    let request = match kind.as_str() {
        "query" => Request::Query {
            sql: sql()?,
            video: scope()?,
        },
        "stream" => Request::Stream {
            sql: sql()?,
            video: single(scope()?)?,
        },
        "subscribe" => Request::Subscribe {
            sql: sql()?,
            video: single(scope()?)?,
            drift_every: integer("drift_every")?.unwrap_or(0),
        },
        "unsubscribe" => Request::Unsubscribe {
            sub: match value.get("sub") {
                Some(v) => u64::from_value(v).map_err(|_| bad)?,
                None => return Err(bad),
            },
        },
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        _ => return Err(RejectReason::UnknownKind),
    };
    Ok(RequestFrame {
        id: integer("id")?,
        request,
    })
}

fn agree_request_line(line: &str) {
    let served = parse_request_frame(line.as_bytes()).map_err(|(reason, _)| reason);
    assert_eq!(served, reference_request(line), "{line:?}");
    agree::<Request>(line);
    agree::<RequestFrame>(line);
}

/// [`agree`] on the encoded text of `value` and on each mutated form.
fn agree_on<T: Deserialize + Serialize + PartialEq + Debug>(rng: &mut TestRng, value: &T) {
    let text = serde_json::to_string(value).expect("finite values encode");
    for text in texts(rng, &text) {
        agree::<T>(&text);
    }
}

/// The stand-in strategy hands each case its own generator seeded from the
/// case, so mutations draw from a stream of their own.
fn mutations() -> Gen<TestRng> {
    Gen(|rng| TestRng::for_case("mutations", rng.next_u64()))
}

proptest! {
    #[test]
    fn request_lines_read_as_their_tree_and_reject_alike(
        request in Gen(request),
        id in Gen(|rng| option_of(rng, int)),
        rng in mutations(),
    ) {
        let mut rng = rng;
        let line = encode_request_line(&request, id);
        for text in texts(&mut rng, line.trim_end()) {
            agree_request_line(&text);
        }
    }

    #[test]
    fn response_lines_read_as_their_tree(
        response in Gen(response),
        id in Gen(|rng| option_of(rng, int)),
        rng in mutations(),
    ) {
        let mut rng = rng;
        let line = encode_response_line(&response, id);
        for text in texts(&mut rng, line.trim_end()) {
            agree::<Response>(&text);
            agree::<ResponseFrame>(&text);
        }
    }

    #[test]
    fn outcomes_read_as_their_tree_in_every_mode(outcome in Gen(outcome), rng in mutations()) {
        let mut rng = rng;
        agree_on(&mut rng, &outcome);
        agree_on(&mut rng, &outcome.results);
    }

    #[test]
    fn stats_frames_read_as_their_tree(stats in Gen(stats), rng in mutations()) {
        let mut rng = rng;
        agree_on(&mut rng, &stats);
    }

    #[test]
    fn derived_types_read_as_their_tree(
        topk in Gen(topk),
        cluster in Gen(cluster),
        cost in Gen(ledger),
        predicates in Gen(predicates),
        config in Gen(config),
        rng in mutations(),
    ) {
        let mut rng = rng;
        agree_on(&mut rng, &topk);
        agree_on(&mut rng, &cluster);
        agree_on(&mut rng, &cost);
        agree_on(&mut rng, &predicates);
        agree_on(&mut rng, &config);
        agree_on(&mut rng, &config.update);
        if let Some(ranked) = topk.ranked.first() {
            agree_on(&mut rng, ranked);
            agree_on(&mut rng, &ranked.interval);
        }
    }
}

/// Hand-picked shapes the mutations reach only by chance.
#[test]
fn edge_shapes_read_as_their_tree() {
    let lines = [
        r#"{"kind":"stats","id":01}"#,
        r#"{"kind":"stats","id":-0}"#,
        r#"{"kind":"stats","id":1.}"#,
        r#"{"kind":"stats","id":1.0}"#,
        r#"{"kind":"stats","id":1e0}"#,
        r#"{"kind":"stats","id":"x","kind":"warp"}"#,
        r#"{"id":"x","kind":"warp"}"#,
        r#"{"id":"x","kind":"stream"}"#,
        r#"{"kind":"stream","sql":3,"oops":[1,]}"#,
        r#"{"kind":"stream","sql":"s","sql":3}"#,
        r#"{"kind":"stream","sql":3,"sql":"s"}"#,
        r#"{"k\u0069nd":"stats","\u0069d":4}"#,
        r#"{"kind":"stats","x":"a\u0000b"}"#,
        "{\"kind\":\"stats\",\"x\":\"a\u{1}b\"}",
        r#"{"kind":"stats","x":"\ud800"}"#,
        r#"{"kind":"stats","x":"\ud800\u0041"}"#,
        r#"{"kind":"stats","x":"\u+041"}"#,
        r#"[{"kind":"stats"}]"#,
        r#""stats""#,
        r#"{"kind":"stats"} {}"#,
        r#"{"kind":"unsubscribe","sub":null}"#,
        r#"{"kind":"subscribe","sql":"s","drift_every":null,"video":"all"}"#,
    ];
    for line in lines {
        agree_request_line(line);
    }
    let responses = [
        r#"{"id":3,"kind":"bye"}"#,
        r#"{"kind":"bye","id":3,"id":"x"}"#,
        r#"{"kind":"bye","id":"x"}"#,
        r#"{"kind":"bye","sub":"x"}"#,
        r#"{"kind":"lagged","sub":1,"missed":2,"sub":"x"}"#,
        r#"{"kind":"lagged","missed":2,"sub":1,"kind":"bye"}"#,
        r#"{"kind":"error","code":"busy","message":"m","code":7}"#,
        r#"{"kind":"error","code":"nope","message":"m"}"#,
        r#"{"kind":"drift","sub":1,"backgrounds":[1,-0.0,1e400],"criticals":[]}"#,
        r#"{"kind":"outcome","outcome":{"wall_ms":1,"disk":{"sorted_accesses":0,"random_accesses":0},"results":{"sequences":[],"mode":"online","cost":{"object_frames":0,"action_shots":0,"object_ms":0,"action_ms":0,"algorithm_ms":0}}}}"#,
        r#"{"kind":"outcome","outcome":{"wall_ms":1,"disk":{"sorted_accesses":0,"random_accesses":0},"results":{"mode":"warp"}}}"#,
    ];
    for text in responses {
        agree::<Response>(text);
        agree::<ResponseFrame>(text);
    }
}
