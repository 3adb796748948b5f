//! Golden `Rvaq::run` matrix over the svqbench corpus.
//!
//! `golden/rvaq_matrix.txt` was rendered by [`render_matrix`] at the last
//! commit whose TBClip iterator recomputed its candidate state from
//! `BTreeMap`s on every step. Everything a query outcome's canonical form
//! is made of — `ranked` (intervals and bit-exact bounds, digested), `disk`,
//! `iterations`, `total_sequences` — is pinned to those values, so a
//! bookkeeping change in the iterator cannot move a result or an access
//! count unnoticed. To re-render after a *deliberate* semantic change:
//! `cargo test -p svq-core --test rvaq_golden -- --ignored --nocapture`.

use std::fmt::Write as _;
use svq_core::offline::{ingest, RankedSequence, Rvaq, RvaqOptions};
use svq_core::online::OnlineConfig;
use svq_types::{ActionClass, ActionQuery, ObjectClass, PaperScoring, VideoId};
use svq_vision::models::ModelSuite;
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

/// svqbench's corpus (`crates/svqbench/src/gen.rs`): video `v` is scenario
/// seed `CORPUS_SEED + v` with a correlated `car` and a scene `person`.
const CORPUS_SEED: u64 = 20_230_403;

/// `(frames, videos)`: the three svqbench catalog sizes (180 / 360 / 1200
/// clips) plus the 2400-clip size that made the old scaling visible.
const CORPUS: [(u64, u64); 4] = [(9_000, 3), (18_000, 3), (60_000, 2), (120_000, 1)];

const OBJECT_SHAPES: [&[&str]; 4] = [&[], &["car"], &["person"], &["car", "person"]];

/// 1, 3, 10 and one past any `|P_q|` in the corpus.
const KS: [usize; 4] = [1, 3, 10, 100_000];

/// FNV-1a over every ranked sequence's interval and bit-exact bounds, so a
/// 432-cell matrix stays a reviewable file.
fn ranked_digest(ranked: &[RankedSequence]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for s in ranked {
        mix(s.interval.start.raw());
        mix(s.interval.end.raw());
        mix(s.lower.to_bits());
        mix(s.upper.to_bits());
        mix(s.exact.map_or(u64::MAX, f64::to_bits));
    }
    h
}

fn render_matrix() -> String {
    type Mode = fn(RvaqOptions) -> RvaqOptions;
    let modes: [(&str, Mode); 3] = [
        ("default", |o| o),
        ("exact", RvaqOptions::with_exact_scores),
        ("noskip", RvaqOptions::without_skip),
    ];
    let mut out = String::new();
    for (frames, videos) in CORPUS {
        for v in 0..videos {
            let oracle = ScenarioSpec::activitynet(
                VideoId::new(v),
                frames,
                ActionClass::named("jumping"),
                vec![
                    ObjectSpec::correlated(ObjectClass::named("car")),
                    ObjectSpec::scene(ObjectClass::named("person")),
                ],
                CORPUS_SEED + v,
            )
            .generate()
            .oracle(ModelSuite::accurate());
            let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
            for objects in OBJECT_SHAPES {
                let query = ActionQuery::named("jumping", objects);
                for (mode, apply) in modes {
                    for k in KS {
                        let r =
                            Rvaq::run(&catalog, &query, &PaperScoring, apply(RvaqOptions::new(k)));
                        write!(
                            out,
                            "frames={frames} v={v} objs={} mode={mode} k={k} | total={} iters={} sorted={} random={} |",
                            objects.join("+"),
                            r.total_sequences,
                            r.iterations,
                            r.disk.sorted_accesses,
                            r.disk.random_accesses,
                        )
                        .expect("write to String");
                        writeln!(
                            out,
                            " ranked={}:{:016x}",
                            r.ranked.len(),
                            ranked_digest(&r.ranked)
                        )
                        .expect("write to String");
                    }
                }
            }
        }
    }
    out
}

#[test]
fn rvaq_matrix_matches_the_btree_iterator() {
    let golden = include_str!("golden/rvaq_matrix.txt");
    let got = render_matrix();
    for (i, (g, e)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, e, "golden line {}", i + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count());
}

#[test]
#[ignore = "prints the matrix for re-rendering golden/rvaq_matrix.txt"]
fn print_rvaq_matrix() {
    print!("{}", render_matrix());
}
