//! Golden request decoding: hand-picked request lines, each with the
//! outcome `parse_request_frame` gives it.
//!
//! `decode.rs` checks generated and mutated lines against a reference
//! decoder, reason by reason; this file pins literal lines at the edges of
//! the request grammar: members absent or `null`, repeated keys (the first
//! wins), `kind` not written first, an ill-typed `id` beside an unknown and
//! a known `kind`, `"all"` where one video is needed, a negative
//! `drift_every`, `unsubscribe` without `sub`, lines that are not objects,
//! trailing garbage and bytes that are not UTF-8.
//!
//! `golden/requests.txt` holds one case per pair of lines: `> ` and the
//! line (or `x> ` and its bytes in hex), then `= ` and the outcome: the
//! decoded frame encoded again by `encode_request_line`, or `reject` and
//! the `RejectReason` code. `#` lines are comments. To re-render the
//! outcomes after a *deliberate* change to request decoding:
//! `cargo test -p svq-serve --test request_golden -- --ignored --nocapture`.

use svq_serve::{encode_request_line, parse_request_frame};

const GOLDEN: &str = include_str!("golden/requests.txt");

/// A case's input bytes, from its `> ` or `x> ` line.
fn input(line: &str) -> Option<Vec<u8>> {
    if let Some(text) = line.strip_prefix("> ") {
        return Some(text.as_bytes().to_vec());
    }
    let hex = line.strip_prefix("x> ")?;
    Some(
        hex.split_whitespace()
            .map(|b| u8::from_str_radix(b, 16).expect("a hex byte"))
            .collect(),
    )
}

/// What `parse_request_frame` makes of `line`.
fn outcome(line: &[u8]) -> String {
    match parse_request_frame(line) {
        Ok(frame) => encode_request_line(&frame.request, frame.id)
            .trim_end()
            .to_string(),
        Err((reason, _)) => format!("reject {}", reason.code()),
    }
}

/// The golden file with every outcome rendered afresh from its input.
fn render() -> String {
    let mut out = String::new();
    let mut lines = GOLDEN.lines();
    while let Some(line) = lines.next() {
        out.push_str(line);
        out.push('\n');
        if let Some(bytes) = input(line) {
            let pinned = lines.next().unwrap_or_default();
            assert!(pinned.starts_with("= "), "no outcome after {line:?}");
            out.push_str(&format!("= {}\n", outcome(&bytes)));
        }
    }
    out
}

#[test]
fn request_lines_decode_as_the_golden() {
    let got = render();
    for (i, (g, e)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, e, "golden line {}", i + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count());
    let cases = GOLDEN.lines().filter(|l| input(l).is_some()).count();
    assert!(cases >= 40, "only {cases} cases");
}

#[test]
#[ignore = "prints the file for re-rendering golden/requests.txt"]
fn print_request_golden() {
    print!("{}", render());
}
