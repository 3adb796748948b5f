//! Hostile request lines take time linear in their length.
//!
//! Four shapes a client can fill a line with — openers, `\u0000` escapes,
//! digits, and members — each at 128 KiB and at 1 MiB (the line cap). Each
//! is decoded or rejected, by `parse_request_frame`, by the typed response
//! reader and by the tree parser, with the verdict checked; and the 1 MiB
//! line may take at most as long as eight 128 KiB ones (a quadratic reader
//! would take 8× that). The eight are distinct copies, so both sides read
//! 1 MiB of text that is not yet in cache. Linear readers measure 0.8–1.2
//! of the bound on a 2-CPU Xeon, from cache and allocator effects, so the
//! check allows a quarter more, plus 1 ms for timer and scheduling noise on
//! lines rejected within the first few hundred bytes. Times are the best of
//! five interleaved runs. One test, so no other test of this binary runs
//! beside it.

use std::time::{Duration, Instant};
use svq_serve::{parse_request_frame, Request, ResponseFrame, MAX_LINE_BYTES};
use svq_types::RejectReason;

const SMALL: usize = 128 << 10;
const LARGE: usize = MAX_LINE_BYTES - 1;

/// A line of about `len` bytes: `head`, then `unit` repeated, then `tail`.
fn line(head: &str, unit: &str, tail: &str, len: usize) -> String {
    let count = len.saturating_sub(head.len() + tail.len()) / unit.len();
    format!("{head}{}{tail}", unit.repeat(count))
}

/// A line of about `len` bytes of members with distinct keys.
fn members(head: &str, len: usize) -> String {
    let mut text = String::from(head);
    let mut i = 0;
    while text.len() + 16 < len {
        text.push_str(&format!(",\"k{i}\":{i}"));
        i += 1;
    }
    text.push('}');
    text
}

/// The best of five interleaved runs: of `decode` on the large line, and
/// of `decode` on each of eight copies of the small line in turn (so both
/// runs read 1 MiB of text that is not yet in cache).
fn best_times(smalls: &[String], large: &str, decode: &dyn Fn(&str)) -> (Duration, Duration) {
    let mut best = (Duration::MAX, Duration::MAX);
    for _ in 0..5 {
        let start = Instant::now();
        smalls.iter().for_each(|small| decode(small));
        best.0 = best.0.min(start.elapsed());
        let start = Instant::now();
        decode(large);
        best.1 = best.1.min(start.elapsed());
    }
    best
}

fn assert_linear(name: &str, make: &dyn Fn(usize) -> String, decode: &dyn Fn(&str)) {
    let smalls: Vec<String> = (0..8).map(|_| make(SMALL)).collect();
    let large = make(LARGE);
    assert!(large.len() <= LARGE && large.len() > LARGE - 64, "{name}");
    let (t_smalls, t_large) = best_times(&smalls, &large, decode);
    assert!(
        t_large <= t_smalls * 5 / 4 + Duration::from_millis(1),
        "{name}: {} B in {t_large:?}, 8 x {} B in {t_smalls:?}",
        large.len(),
        smalls[0].len()
    );
}

fn request_verdict(text: &str) -> Result<Request, RejectReason> {
    parse_request_frame(text.as_bytes())
        .map(|frame| frame.request)
        .map_err(|(reason, _)| reason)
}

#[test]
fn hostile_lines_are_decoded_or_rejected_in_linear_time() {
    let openers = |len: usize| "[".repeat(len);
    assert_linear("openers, request", &openers, &|text| {
        assert_eq!(request_verdict(text), Err(RejectReason::BadJson));
    });
    assert_linear("openers, tree", &openers, &|text| {
        assert!(serde_json::from_str::<serde::Value>(text).is_err());
    });
    let object_openers = |len: usize| line("", "{\"k\":", "", len);
    assert_linear("object openers, response", &object_openers, &|text| {
        assert!(serde_json::from_str::<ResponseFrame>(text).is_err());
    });

    let escapes = |len: usize| line(r#"{"kind":"stream","sql":""#, r"\u0000", r#""}"#, len);
    assert_linear(
        "escapes, request",
        &escapes,
        &|text| match request_verdict(text) {
            Ok(Request::Stream { sql, video: None }) => {
                assert!(sql.len() > SMALL / 8 && sql.bytes().all(|b| b == 0))
            }
            other => panic!("expected a stream request, got {other:?}"),
        },
    );
    let message = |len: usize| {
        line(
            r#"{"kind":"error","code":"busy","message":""#,
            r"\u0000",
            r#"","id":1}"#,
            len,
        )
    };
    assert_linear("escapes, response", &message, &|text| {
        let frame: ResponseFrame = serde_json::from_str(text).expect("an error frame");
        assert_eq!(frame.id, Some(1));
    });

    let digits = |len: usize| line(r#"{"kind":"stats","id":"#, "9", "}", len);
    assert_linear("digits, request", &digits, &|text| {
        // Past 64 bits the id reads as a float, which no id is.
        assert_eq!(request_verdict(text), Err(RejectReason::BadRequest));
    });
    let float = |len: usize| line("", "7", "", len);
    assert_linear("digits, tree", &float, &|text| {
        assert!(serde_json::from_str::<f64>(text).is_ok_and(|f| f > 1e300));
    });

    let keys = |len: usize| members(r#"{"kind":"stats""#, len);
    assert_linear("members, request", &keys, &|text| {
        assert_eq!(request_verdict(text), Ok(Request::Stats));
    });
    let repeated = |len: usize| line(r#"{"kind":"stats""#, r#","id":1"#, "}", len);
    assert_linear("repeated members, request", &repeated, &|text| {
        assert_eq!(request_verdict(text), Ok(Request::Stats));
    });
    let pushed = |len: usize| members(r#"{"kind":"lagged","sub":1,"missed":2"#, len);
    assert_linear("members, response", &pushed, &|text| {
        let frame: ResponseFrame = serde_json::from_str(text).expect("a lagged frame");
        assert_eq!(frame.id, None);
    });
    let late_tag = |len: usize| members(r#"{"sub":1,"missed":2,"kind":"lagged""#, len);
    assert_linear("members before the tag, response", &late_tag, &|text| {
        assert!(serde_json::from_str::<ResponseFrame>(text).is_ok());
    });
}
