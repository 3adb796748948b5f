//! Golden `PqTraverse` / `FaTopK` matrix over the svqbench corpus.
//!
//! `golden/rvaq_matrix.txt` pins `Rvaq::run`; this file pins the two §5.1
//! baselines over the same corpus, query shapes and K values: `|P_q|`,
//! iterations, sorted and random accesses, and a digest of the ranked
//! sequences (intervals and bit-exact scores). Their access counts are what
//! Tables 6–8 compare RVAQ against, so a change to how the engines charge
//! table accesses cannot move them unnoticed. To re-render after a
//! *deliberate* semantic change:
//! `cargo test -p svq-core --test baseline_golden -- --ignored --nocapture`.

use std::fmt::Write as _;
use svq_core::offline::{ingest, FaTopK, PqTraverse, RankedSequence, TopKResult};
use svq_core::online::OnlineConfig;
use svq_storage::IngestedVideo;
use svq_types::{ActionClass, ActionQuery, ObjectClass, PaperScoring, VideoId};
use svq_vision::models::ModelSuite;
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

/// svqbench's corpus (`crates/svqbench/src/gen.rs`), as in `rvaq_golden.rs`.
const CORPUS_SEED: u64 = 20_230_403;

const CORPUS: [(u64, u64); 4] = [(9_000, 3), (18_000, 3), (60_000, 2), (120_000, 1)];

const OBJECT_SHAPES: [&[&str]; 4] = [&[], &["car"], &["person"], &["car", "person"]];

const KS: [usize; 4] = [1, 3, 10, 100_000];

/// FNV-1a over every ranked sequence's interval and bit-exact bounds.
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
    type Baseline = fn(&IngestedVideo, &ActionQuery, usize) -> TopKResult;
    let baselines: [(&str, Baseline); 2] = [
        ("pq-traverse", |c, q, k| {
            PqTraverse::run(c, q, &PaperScoring, k)
        }),
        ("fa", |c, q, k| FaTopK::run(c, q, &PaperScoring, k)),
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
                for (method, run) in baselines {
                    for k in KS {
                        let r = run(&catalog, &query, k);
                        writeln!(
                            out,
                            "frames={frames} v={v} objs={} method={method} k={k} | total={} iters={} sorted={} random={} | ranked={}:{:016x}",
                            objects.join("+"),
                            r.total_sequences,
                            r.iterations,
                            r.disk.sorted_accesses,
                            r.disk.random_accesses,
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
fn baseline_matrix_matches_the_golden() {
    let golden = include_str!("golden/baseline_matrix.txt");
    let got = render_matrix();
    for (i, (g, e)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, e, "golden line {}", i + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count());
}

#[test]
#[ignore = "prints the matrix for re-rendering golden/baseline_matrix.txt"]
fn print_baseline_matrix() {
    print!("{}", render_matrix());
}
