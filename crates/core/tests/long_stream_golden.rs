//! Golden digests of SVAQD over svqbench-length streams.
//!
//! `online_matrix.txt` stops at 360 clips, too short for a change in the
//! background estimator's rounding to build up into a moved critical
//! value. This file pins SVAQD over svqbench's full corpus — four
//! 1200-clip videos — on the three svqbench online statements, per video
//! and as one 4800-clip set-long stream whose estimators persist across
//! videos ([`Svaqd::next_video`]), under the default `NegativeClips` policy
//! and under `AllClips`, which feeds every clip's count (positive clips
//! included) to the estimators. Each line holds a digest of the result
//! sequences and of every clip's evaluation (counts, criticals), collected
//! from the rows the engine's steps return. Ingestion runs the same
//! per-predicate state once per class, so every class's individual
//! sequence set is pinned too. To re-render after a *deliberate* semantic
//! change:
//! `cargo test --release -p svq-core --test long_stream_golden -- --ignored --nocapture`.

use std::fmt::Write as _;
use svq_core::offline::ingest;
use svq_core::online::{BackgroundUpdate, OnlineConfig, Svaqd};
use svq_query::{parse, LogicalPlan};
use svq_storage::SequenceSet;
use svq_types::{ActionClass, ClipInterval, ObjectClass, PaperScoring, VideoId, Vocabulary};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};
use svq_vision::VideoStream;

/// svqbench's corpus seed (`crates/svqbench/src/gen.rs`).
const CORPUS_SEED: u64 = 20_230_403;

/// svqbench's corpus: four 60 000-frame (1200-clip) videos.
const VIDEOS: u64 = 4;
const FRAMES: u64 = 60_000;

/// svqbench's three online predicates (`gen::online_sql`).
const PREDICATES: [&str; 3] = [
    "obj.include('car')",
    "obj.include('car', 'person')",
    "(obj.include('car') OR obj.include('person'))",
];

/// `execute_online`'s priors.
const P0: f64 = 1e-4;

/// FNV-1a, fed one `u64` at a time.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn intervals(&mut self, seqs: &[ClipInterval]) {
        for s in seqs {
            self.mix(s.start.raw());
            self.mix(s.end.raw());
        }
    }
}

fn sequences(seqs: &[ClipInterval]) -> String {
    let mut d = Digest::new();
    d.intervals(seqs);
    format!("{}:{:016x}", seqs.len(), d.0)
}

/// Step `engine` over `oracle`'s stream: the sequences its steps closed,
/// and every clip's row digested as `clips:digest`, the caller's own
/// record of the evaluations.
fn evaluations(engine: &mut Svaqd, oracle: &DetectionOracle) -> (Vec<ClipInterval>, String) {
    let (mut stream, mut d, mut clips) = (VideoStream::new(oracle), Digest::new(), 0);
    let mut seqs = Vec::new();
    while let Some(mut view) = stream.next_clip() {
        let e = engine.push_clip(&mut view);
        seqs.extend(e.closed);
        d.mix(e.clip.raw());
        d.mix(u64::from(e.positive));
        for &c in e.counts {
            d.mix(c.map_or(u64::MAX, u64::from));
        }
        for &k in e.criticals {
            d.mix(u64::from(k));
        }
        clips += 1;
    }
    (seqs, format!("{clips}:{:016x}", d.0))
}

/// Every class's sequence set, in class-index order: total intervals and
/// a digest of `(class, intervals)`.
fn class_sequences<'a>(sets: impl Iterator<Item = &'a SequenceSet>) -> String {
    let mut d = Digest::new();
    let mut total = 0;
    for (class, set) in sets.enumerate() {
        d.mix(class as u64);
        d.mix(set.len() as u64);
        d.intervals(set.intervals());
        total += set.len();
    }
    format!("{total}:{:016x}", d.0)
}

fn oracles() -> Vec<DetectionOracle> {
    (0..VIDEOS)
        .map(|v| {
            ScenarioSpec::activitynet(
                VideoId::new(v),
                FRAMES,
                ActionClass::named("jumping"),
                vec![
                    ObjectSpec::correlated(ObjectClass::named("car")),
                    ObjectSpec::scene(ObjectClass::named("person")),
                ],
                CORPUS_SEED + v,
            )
            .generate()
            .oracle(ModelSuite::accurate())
        })
        .collect()
}

fn configs() -> [(&'static str, OnlineConfig); 2] {
    [
        ("negative-clips", OnlineConfig::default()),
        (
            "all-clips",
            OnlineConfig::default().with_update(BackgroundUpdate::AllClips),
        ),
    ]
}

fn plan(predicate: &str) -> LogicalPlan {
    let sql = format!(
        "SELECT MERGE(clipID) AS Sequence \
         FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
         act USING ActionRecognizer) \
         WHERE act='jumping' AND {predicate}"
    );
    LogicalPlan::from_statement(&parse(&sql).expect("parse")).expect("plan")
}

fn line(out: &mut String, at: &str, seqs: &[ClipInterval], evals: &str) {
    writeln!(out, "{at} | seqs={} | evals={evals}", sequences(seqs)).expect("write to String");
}

fn render_matrix() -> String {
    let oracles = oracles();
    let geometry = oracles[0].truth().geometry;
    let mut out = String::new();
    for (config_name, config) in configs() {
        for (stmt, predicate) in PREDICATES.iter().enumerate() {
            let plan = plan(predicate);
            for (v, oracle) in oracles.iter().enumerate() {
                let mut engine = Svaqd::new(&plan.predicate, geometry, config, P0, P0);
                let (mut seqs, evals) = evaluations(&mut engine, oracle);
                seqs.extend(engine.finish());
                let at = format!("cfg={config_name} stmt={stmt} video={v} method=svaqd");
                line(&mut out, &at, &seqs, &evals);
            }
            // One engine over the whole set: the estimators carry 4800
            // clips of history into the last video.
            let mut engine = Svaqd::new(&plan.predicate, geometry, config, P0, P0);
            for (v, oracle) in oracles.iter().enumerate() {
                let (mut seqs, evals) = evaluations(&mut engine, oracle);
                seqs.extend(engine.next_video());
                let at = format!("cfg={config_name} stmt={stmt} video={v} method=svaqd-set");
                line(&mut out, &at, &seqs, &evals);
            }
        }
    }
    for (v, oracle) in oracles.iter().enumerate() {
        let catalog = ingest(oracle, &PaperScoring, &OnlineConfig::default());
        let objects = (0..ObjectClass::cardinality())
            .map(|i| catalog.object_sequences(ObjectClass::from_index(i)));
        let actions = (0..ActionClass::cardinality())
            .map(|i| catalog.action_sequences(ActionClass::from_index(i)));
        writeln!(
            out,
            "video={v} method=ingest | objects={} | actions={}",
            class_sequences(objects),
            class_sequences(actions)
        )
        .expect("write to String");
    }
    out
}

#[test]
fn long_stream_matrix_matches_the_golden() {
    let golden = include_str!("golden/long_stream_matrix.txt");
    let got = render_matrix();
    for (i, (g, e)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, e, "golden line {}", i + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count());
}

#[test]
#[ignore = "prints the matrix for re-rendering golden/long_stream_matrix.txt"]
fn print_long_stream_matrix() {
    print!("{}", render_matrix());
}
