//! Golden wire bytes: the exact encoded line of every frame shape.
//!
//! `encode.rs` and `decode.rs` check the text path against the `Value`
//! tree path; when one codec generates both, the two agree by
//! construction, so only literal bytes show that the wire did not move.
//! Pinned here, from fixed values: every `Request` variant with each
//! `VideoScope`, each with a pipeline `id` of `None`, `Some(0)` and
//! `Some(u64::MAX)`; every `Response` variant, including all eleven
//! `RejectReason` codes and a message that needs escaping; a `drift` frame
//! with fractional, integral and subnormal floats; an `outcome` in online,
//! offline and cluster mode; and the default `stats` frame. Every line must
//! also decode back to its frame, through `serde_json::from_str` and
//! through `from_value` of its tree (and a request line through
//! `parse_request_frame`).
//!
//! `golden/wire.txt` holds one `label line` pair per line. To re-render
//! after a *deliberate* wire change:
//! `cargo test -p svq-serve --test wire_golden -- --ignored --nocapture`.

use serde::{Deserialize, Value};
use svq_core::offline::{RankedSequence, TopKResult};
use svq_query::cluster::{ClusterRanked, ClusterTopK};
use svq_query::{QueryOutcome, QueryResults};
use svq_serve::{
    encode_request_line, encode_response_line, parse_request_frame, Request, RequestFrame,
    Response, ResponseFrame, StatsFrame, VideoScope,
};
use svq_storage::DiskStats;
use svq_types::{ClipId, ClipInterval, RejectReason, VideoId};
use svq_vision::CostLedger;

const IDS: [Option<u64>; 3] = [None, Some(0), Some(u64::MAX)];

fn interval(start: u64, end: u64) -> ClipInterval {
    ClipInterval::new(ClipId::new(start), ClipId::new(end))
}

fn requests() -> Vec<(&'static str, Request)> {
    let sql = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='jumping'";
    vec![
        (
            "query_sole",
            Request::Query {
                sql: sql.into(),
                video: VideoScope::Sole,
            },
        ),
        (
            "query_one",
            Request::Query {
                sql: sql.into(),
                video: VideoScope::One(3),
            },
        ),
        (
            "query_all",
            Request::Query {
                sql: sql.into(),
                video: VideoScope::All,
            },
        ),
        (
            "stream_sole",
            Request::Stream {
                sql: sql.into(),
                video: None,
            },
        ),
        (
            "stream_one",
            Request::Stream {
                sql: sql.into(),
                video: Some(u64::MAX),
            },
        ),
        (
            "subscribe_sole",
            Request::Subscribe {
                sql: sql.into(),
                video: None,
                drift_every: 0,
            },
        ),
        (
            "subscribe_one",
            Request::Subscribe {
                sql: sql.into(),
                video: Some(9),
                drift_every: 16,
            },
        ),
        ("unsubscribe", Request::Unsubscribe { sub: 3 }),
        ("stats", Request::Stats),
        ("shutdown", Request::Shutdown),
    ]
}

fn online() -> QueryOutcome {
    QueryOutcome {
        results: QueryResults::Online {
            sequences: vec![interval(10, 17), interval(20, 20)],
            cost: CostLedger {
                object_frames: 1_200,
                action_shots: 75,
                object_ms: 12.5,
                action_ms: 3.0,
                algorithm_ms: 0.125,
            },
        },
        disk: DiskStats::default(),
        wall_ms: 0.0625,
    }
}

fn offline() -> QueryOutcome {
    let disk = DiskStats {
        sorted_accesses: 42,
        random_accesses: 7,
    };
    QueryOutcome {
        results: QueryResults::Offline(TopKResult {
            ranked: vec![
                RankedSequence {
                    interval: interval(10, 17),
                    lower: 0.75,
                    upper: 1.0,
                    exact: Some(0.875),
                },
                RankedSequence {
                    interval: interval(30, 31),
                    lower: -0.0,
                    upper: 0.5,
                    exact: None,
                },
            ],
            disk,
            wall_ms: 1.5,
            io_ms: 2.0,
            iterations: 3,
            total_sequences: 5,
        }),
        disk,
        wall_ms: 1.5,
    }
}

fn cluster() -> QueryOutcome {
    QueryOutcome {
        results: QueryResults::Cluster(ClusterTopK {
            k: 2,
            ranked: vec![
                ClusterRanked {
                    video: VideoId::new(0),
                    interval: interval(10, 17),
                    score: 0.875,
                },
                ClusterRanked {
                    video: VideoId::new(u64::MAX),
                    interval: interval(4, 6),
                    score: 1e20,
                },
            ],
            tail_bound: Some(0.25),
            videos: 2,
            total_sequences: 9,
            wall_ms: 3.25,
        }),
        disk: DiskStats {
            sorted_accesses: 84,
            random_accesses: 14,
        },
        wall_ms: 3.25,
    }
}

fn responses() -> Vec<(String, Response)> {
    let mut out: Vec<(String, Response)> = vec![
        ("outcome_online".into(), Response::Outcome(online())),
        ("outcome_offline".into(), Response::Outcome(offline())),
        ("outcome_cluster".into(), Response::Outcome(cluster())),
        (
            "stats_default".into(),
            Response::Stats(StatsFrame::default()),
        ),
        (
            "subscribed".into(),
            Response::Subscribed {
                sub: 4,
                from_seq: 2,
            },
        ),
        (
            "event".into(),
            Response::Event {
                sub: 4,
                seq: 9,
                clip: 41,
                first: 40,
                last: 41,
                at: u64::MAX,
            },
        ),
        (
            "drift".into(),
            Response::Drift {
                sub: 4,
                backgrounds: vec![0.25, 2.0, -3.0, 5e-324, 2.2250738585072014e-308, 1e-7, 1e20],
                criticals: vec![3, 0, u32::MAX],
            },
        ),
        (
            "drift_empty".into(),
            Response::Drift {
                sub: 0,
                backgrounds: vec![],
                criticals: vec![],
            },
        ),
        ("lagged".into(), Response::Lagged { sub: 4, missed: 17 }),
        (
            "unsubscribed".into(),
            Response::Unsubscribed {
                sub: 4,
                delivered: 10,
                missed: 17,
                total: 27,
            },
        ),
        ("bye".into(), Response::Bye),
        (
            "error_escaped".into(),
            Response::Error {
                reason: RejectReason::BadRequest,
                message: "a \"quoted\" \\ path\nline\t\u{1}\u{7f} é 日 🎬".into(),
            },
        ),
    ];
    for reason in RejectReason::ALL {
        out.push((
            format!("error_{}", reason.code()),
            Response::Error {
                reason,
                message: format!("because {reason}"),
            },
        ));
    }
    out
}

fn id_label(id: Option<u64>) -> String {
    match id {
        None => "none".into(),
        Some(id) => id.to_string(),
    }
}

/// Every golden line, each decoded back to its frame on the way.
fn render() -> String {
    let mut out = String::new();
    for (label, request) in requests() {
        for id in IDS {
            let line = encode_request_line(&request, id);
            let text = line.strip_suffix('\n').expect("a line ends in a newline");
            let frame = RequestFrame {
                id,
                request: request.clone(),
            };
            assert_eq!(parse_request_frame(text.as_bytes()), Ok(frame.clone()));
            assert_eq!(
                serde_json::from_str::<RequestFrame>(text),
                Ok(frame.clone())
            );
            let tree: Value = serde_json::from_str(text).expect("a line parses");
            assert_eq!(RequestFrame::from_value(&tree), Ok(frame));
            out.push_str(&format!("request_{label}_id_{} {text}\n", id_label(id)));
        }
    }
    for (label, response) in responses() {
        for id in IDS {
            let line = encode_response_line(&response, id);
            let text = line.strip_suffix('\n').expect("a line ends in a newline");
            let frame = ResponseFrame {
                id,
                response: response.clone(),
            };
            assert_eq!(
                serde_json::from_str::<ResponseFrame>(text),
                Ok(frame.clone())
            );
            assert_eq!(serde_json::from_str::<Response>(text), Ok(response.clone()));
            let tree: Value = serde_json::from_str(text).expect("a line parses");
            assert_eq!(ResponseFrame::from_value(&tree), Ok(frame));
            assert_eq!(Response::from_value(&tree), Ok(response.clone()));
            out.push_str(&format!("response_{label}_id_{} {text}\n", id_label(id)));
        }
    }
    out
}

#[test]
fn wire_lines_match_the_golden() {
    let golden = include_str!("golden/wire.txt");
    let got = render();
    for (i, (g, e)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, e, "golden line {}", i + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count());
}

#[test]
#[ignore = "prints the lines for re-rendering golden/wire.txt"]
fn print_wire_golden() {
    print!("{}", render());
}
