//! Every protocol type writes its JSON text straight from the typed value
//! (`Serialize::write_json`), and the bytes must be exactly those of the
//! `Value` tree (`to_value`, then the tree writer): the same fields in the
//! same order, the same number spellings, the same escapes. A value
//! holding a non-finite float must fail on both paths, and any text that
//! encodes must decode back to the value it came from.
//!
//! Covered: every `Request` and `Response` variant (with and without a
//! pipeline `id`), `QueryOutcome` in online, offline and cluster mode,
//! `StatsFrame`, and the derived id, interval, ledger, ranking and config
//! types, including derived enums with unit, newtype and tuple variants.
//! The deep run is `PROPTEST_CASES=2000 cargo test --release -p svq-serve
//! --test encode`.

use proptest::prelude::*;
use proptest::TestRng;
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;
use svq_core::offline::{RankedSequence, TopKResult};
use svq_core::online::{BackgroundUpdate, OnlineConfig};
use svq_query::cluster::{ClusterRanked, ClusterTopK};
use svq_query::{QueryOutcome, QueryResults};
use svq_serve::{
    encode_line, encode_request_line, encode_response_line, parse_request_frame, Request,
    RequestFrame, Response, ResponseFrame, StatsFrame, VideoScope,
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

/// Integers of every width, so short and 20-digit spellings both appear.
fn int(rng: &mut TestRng) -> u64 {
    match below(rng, 4) {
        0 => below(rng, 10),
        1 => below(rng, 100_000),
        2 => rng.next_u64() >> below(rng, 64),
        _ => u64::MAX - below(rng, 3),
    }
}

/// Floats of every spelling the writer has: integral (`2.0`), fractional,
/// integral past 1e15 (bare digits), subnormal, -0.0, and now and then a
/// non-finite one, which neither path may encode.
fn float(rng: &mut TestRng) -> f64 {
    match below(rng, 40) {
        0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][below(rng, 3) as usize],
        1 => -0.0,
        2..=9 => below(rng, 2_001) as f64 - 1_000.0,
        10..=19 => (rng.unit_f64() - 0.5) * 1e6,
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break f;
            }
        },
    }
}

/// Characters that exercise every branch of string escaping.
const CHARS: [char; 14] = [
    'a', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '日', '🎬',
];

fn string(rng: &mut TestRng) -> String {
    let len = below(rng, 12);
    (0..len)
        .map(|_| match below(rng, 4) {
            0 => char::from_u32(below(rng, 0x20) as u32).expect("a control character"),
            _ => CHARS[below(rng, CHARS.len() as u64) as usize],
        })
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

fn ranked(rng: &mut TestRng) -> RankedSequence {
    RankedSequence {
        interval: interval(rng),
        lower: float(rng),
        upper: float(rng),
        exact: option_of(rng, float),
    }
}

fn topk(rng: &mut TestRng) -> TopKResult {
    TopKResult {
        ranked: vec_of(rng, ranked),
        disk: disk(rng),
        wall_ms: float(rng),
        io_ms: float(rng),
        iterations: int(rng),
        total_sequences: int(rng) as usize,
    }
}

fn cluster_ranked(rng: &mut TestRng) -> ClusterRanked {
    ClusterRanked {
        video: VideoId::new(int(rng)),
        interval: interval(rng),
        score: float(rng),
    }
}

fn cluster(rng: &mut TestRng) -> ClusterTopK {
    ClusterTopK {
        k: int(rng) as usize,
        ranked: vec_of(rng, cluster_ranked),
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

/// Every field of a `StatsFrame` is a `u64` or an `f64`, so a random one is
/// the default's tree with each leaf redrawn.
fn stats(rng: &mut TestRng) -> StatsFrame {
    let Value::Object(fields) = StatsFrame::default().to_value() else {
        unreachable!("a struct is an object")
    };
    let fields = fields
        .into_iter()
        .map(|(key, leaf)| {
            let leaf = match leaf {
                Value::UInt(_) => Value::UInt(int(rng)),
                Value::Float(_) => Value::Float(float(rng)),
                other => panic!("StatsFrame field `{key}` is a {}", other.kind()),
            };
            (key, leaf)
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

fn predicate(rng: &mut TestRng) -> Predicate {
    let object = |rng: &mut TestRng| ObjectClass(below(rng, 1 << 16) as u16);
    match below(rng, 3) {
        0 => Predicate::Object(object(rng)),
        1 => Predicate::Action(ActionClass(below(rng, 1 << 16) as u16)),
        _ => Predicate::LeftOf(object(rng), object(rng)),
    }
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

fn id(rng: &mut TestRng) -> Option<u64> {
    option_of(rng, int)
}

/// The text of `value` both ways: written straight from the type, and
/// written from its tree. They must agree byte for byte, or fail alike.
fn both_paths<T: Serialize>(value: &T) -> Result<String, serde_json::Error> {
    let typed = serde_json::to_string(value);
    let tree = serde_json::to_string(&value.to_value());
    assert_eq!(typed, tree, "write_json and the tree disagree");
    typed
}

/// [`both_paths`], then the text must decode to `value` again.
fn check<T: Serialize + Deserialize + PartialEq + Debug>(value: &T) {
    if let Ok(text) = both_paths(value) {
        assert_eq!(
            &serde_json::from_str::<T>(&text).expect("decodes"),
            value,
            "{text}"
        );
    }
}

/// The tree form of a frame line: the frame's object with the pipeline `id`
/// appended as its last member.
fn tree_line(frame: Value, id: Option<u64>) -> Result<String, serde_json::Error> {
    let Value::Object(mut fields) = frame else {
        panic!("a frame is an object")
    };
    if let Some(id) = id {
        fields.push(("id".into(), Value::UInt(id)));
    }
    serde_json::to_string(&Value::Object(fields)).map(|text| text + "\n")
}

/// A line that failed to encode is answered with a typed `internal` error.
fn assert_internal(line: &str) {
    let frame: ResponseFrame = serde_json::from_str(line.trim_end()).expect("fallback decodes");
    assert!(
        matches!(
            frame.response,
            Response::Error {
                reason: RejectReason::Internal,
                ..
            }
        ),
        "{line}"
    );
}

proptest! {
    #[test]
    fn requests_encode_as_their_tree(request in Gen(request), id in Gen(id)) {
        check(&request);
        let line = encode_request_line(&request, id);
        prop_assert_eq!(Ok(line.clone()), tree_line(request.to_value(), id));
        prop_assert_eq!(encode_line(&request), tree_line(request.to_value(), None).unwrap());
        let frame = parse_request_frame(line.trim_end().as_bytes()).expect("request decodes");
        prop_assert_eq!(frame, RequestFrame { id, request });
    }

    #[test]
    fn responses_encode_as_their_tree(response in Gen(response), id in Gen(id)) {
        check(&response);
        let line = encode_response_line(&response, id);
        match tree_line(response.to_value(), id) {
            Ok(tree) => {
                prop_assert_eq!(&line, &tree);
                prop_assert_eq!(&encode_line(&response), &tree_line(response.to_value(), None).unwrap());
                let frame: ResponseFrame =
                    serde_json::from_str(line.trim_end()).expect("response decodes");
                prop_assert_eq!(frame, ResponseFrame { id, response });
            }
            Err(_) => {
                assert_internal(&line);
                assert_internal(&encode_line(&response));
            }
        }
    }

    #[test]
    fn outcomes_encode_as_their_tree_in_every_mode(outcome in Gen(outcome)) {
        check(&outcome);
        check(&outcome.results);
        check(&outcome.canonical());
    }

    #[test]
    fn stats_frames_encode_as_their_tree(stats in Gen(stats)) {
        check(&stats);
    }

    #[test]
    fn derived_types_encode_as_their_tree(topk in Gen(topk), cluster in Gen(cluster)) {
        check(&topk);
        check(&cluster);
        for ranked in &topk.ranked {
            check(ranked);
            check(&ranked.interval);
            check(&ranked.interval.start);
        }
        for ranked in &cluster.ranked {
            check(ranked);
            check(&ranked.video);
        }
        check(&topk.disk);
    }

    #[test]
    fn derived_ledgers_enums_and_configs_encode_as_their_tree(
        cost in Gen(ledger),
        predicates in Gen(|rng| vec_of(rng, predicate)),
        config in Gen(config),
    ) {
        check(&cost);
        check(&predicates);
        check(&config);
        check(&config.update);
    }
}

#[test]
fn a_non_finite_float_fails_both_paths_and_answers_internal() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let drift = Response::Drift {
            sub: 1,
            backgrounds: vec![0.5, bad],
            criticals: vec![3, 4],
        };
        let typed = serde_json::to_string(&drift).expect_err("not JSON");
        assert_eq!(Err(typed), serde_json::to_string(&drift.to_value()));
        assert_internal(&encode_response_line(&drift, Some(9)));
    }
}
