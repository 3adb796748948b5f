//! Golden matrix of the online engines over svqbench-style videos.
//!
//! Pins the one online engine — as SVAQ (`Svaqd::svaq`), as SVAQD in
//! query order and in learned order — and `svq_query::execute_online` on
//! the four svqbench online statements plus one `leftOf` statement, at the
//! default thresholds and at `t_obj 0.6 / t_act 0.55`: result sequences,
//! ledger unit counts, the `f64::to_bits` of every ledger millisecond
//! field, and a digest of every clip's evaluation (counts, criticals).
//! Each oracle is queried at the
//! default thresholds first, so the second threshold pair reads a video
//! whose occurrence counts were already asked for at another threshold.
//! `algorithm_ms` is pinned only where a `ManualClock` drives it;
//! `execute_online` reads the wall clock. To re-render after a
//! *deliberate* semantic change:
//! `cargo test -p svq-core --test online_golden -- --ignored --nocapture`.

use std::fmt::Write as _;
use std::time::Duration;
use svq_core::online::{ClipEvaluation, OnlineConfig, OnlineResult, Svaqd};
use svq_query::{execute_online, parse, LogicalPlan, QueryResults};
use svq_types::{ActionClass, ClipInterval, ManualClock, ObjectClass, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec, SyntheticVideo};
use svq_vision::{CostLedger, VideoStream};

/// svqbench's corpus seed (`crates/svqbench/src/gen.rs`).
const CORPUS_SEED: u64 = 20_230_403;

/// `(frames, videos)`: svqbench's scenarios at reduced lengths.
const CORPUS: [(u64, u64); 3] = [(3_000, 2), (9_000, 2), (18_000, 1)];

/// The four svqbench online predicates, then a relationship.
const PREDICATES: [&str; 5] = [
    "obj.include('car')",
    "obj.include('car', 'person')",
    "(obj.include('car') OR obj.include('person'))",
    "obj.include('person')",
    "leftOf('car', 'person')",
];

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
}

fn sequences(seqs: &[ClipInterval]) -> String {
    let mut d = Digest::new();
    for s in seqs {
        d.mix(s.start.raw());
        d.mix(s.end.raw());
    }
    format!("{}:{:016x}", seqs.len(), d.0)
}

fn ledger(cost: &CostLedger, with_algorithm: bool) -> String {
    let mut out = format!(
        "frames={} shots={} object_ms={:016x} action_ms={:016x}",
        cost.object_frames,
        cost.action_shots,
        cost.object_ms.to_bits(),
        cost.action_ms.to_bits()
    );
    if with_algorithm {
        write!(out, " algorithm_ms={:016x}", cost.algorithm_ms.to_bits()).expect("write");
    }
    out
}

fn evaluations(evals: &[ClipEvaluation]) -> String {
    let mut d = Digest::new();
    let count = |c: Option<u32>| c.map_or(u64::MAX, u64::from);
    for e in evals {
        d.mix(e.clip.raw());
        d.mix(u64::from(e.positive));
        for &c in &e.counts {
            d.mix(count(c));
        }
        for &k in &e.criticals {
            d.mix(u64::from(k));
        }
    }
    format!("{}:{:016x}", evals.len(), d.0)
}

fn clock() -> ManualClock {
    ManualClock::stepping(Duration::from_micros(1_250))
}

fn online_line(result: &OnlineResult) -> String {
    format!(
        "seqs={} | {} | evals={}",
        sequences(&result.sequences),
        ledger(&result.cost, true),
        evaluations(&result.evaluations)
    )
}

fn suites() -> [(&'static str, ModelSuite); 2] {
    [
        ("accurate", ModelSuite::accurate()),
        ("ideal", ModelSuite::ideal()),
    ]
}

fn configs() -> [(&'static str, OnlineConfig); 2] {
    [
        ("default", OnlineConfig::default()),
        (
            "t0.6/0.55",
            OnlineConfig::default().with_thresholds(0.6, 0.55),
        ),
    ]
}

/// Every corpus video as `(frames, v, video)`.
fn corpus() -> impl Iterator<Item = (u64, u64, SyntheticVideo)> {
    CORPUS.into_iter().flat_map(|(frames, videos)| {
        (0..videos).map(move |v| {
            let video = ScenarioSpec::activitynet(
                VideoId::new(v),
                frames,
                ActionClass::named("jumping"),
                vec![
                    ObjectSpec::correlated(ObjectClass::named("car")),
                    ObjectSpec::scene(ObjectClass::named("person")),
                ],
                CORPUS_SEED + v,
            )
            .generate();
            (frames, v, video)
        })
    })
}

fn plan(predicate: &str) -> LogicalPlan {
    let sql = format!(
        "SELECT MERGE(clipID) AS Sequence \
         FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
         act USING ActionRecognizer) \
         WHERE {predicate}"
    );
    LogicalPlan::from_statement(&parse(&sql).expect("parse")).expect("plan")
}

/// `execute_online`'s sequences and ledger.
fn served(
    plan: &LogicalPlan,
    oracle: &DetectionOracle,
    config: OnlineConfig,
) -> (Vec<ClipInterval>, CostLedger) {
    let outcome =
        execute_online(plan, &mut VideoStream::new(oracle), config).expect("execute_online");
    let QueryResults::Online { sequences, cost } = outcome.results else {
        panic!("online plan returned an offline payload");
    };
    (sequences, cost)
}

fn render_matrix() -> String {
    let mut out = String::new();
    for (frames, v, truth) in corpus() {
        for (suite_name, suite) in suites() {
            let oracle = truth.oracle(suite);
            for (config_name, config) in configs() {
                for (stmt, predicate) in PREDICATES.iter().enumerate() {
                    let plan = plan(&format!("act='jumping' AND {predicate}"));
                    let (seqs, cost) = served(&plan, &oracle, config);
                    let mut lines = vec![(
                        "execute_online",
                        format!("seqs={} | {}", sequences(&seqs), ledger(&cost, false)),
                    )];
                    let geometry = oracle.truth().geometry;
                    let adaptive = config.with_adaptive_order();
                    let engines = [
                        (
                            "svaq",
                            Svaqd::svaq(&plan.predicate, geometry, config, 1e-2, 1e-2),
                        ),
                        (
                            "svaqd",
                            Svaqd::new(&plan.predicate, geometry, config, 1e-4, 1e-4),
                        ),
                        (
                            "svaqd-adaptive",
                            Svaqd::new(&plan.predicate, geometry, adaptive, 1e-4, 1e-4),
                        ),
                    ];
                    for (method, engine) in engines {
                        let r = engine.run_over(&mut VideoStream::new(&oracle), &clock());
                        lines.push((method, online_line(&r)));
                    }
                    for (method, line) in lines {
                        writeln!(
                            out,
                            "frames={frames} v={v} suite={suite_name} cfg={config_name} stmt={stmt} method={method} | {line}"
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
fn online_matrix_matches_the_golden() {
    let golden = include_str!("golden/online_matrix.txt");
    let got = render_matrix();
    for (i, (g, e)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(g, e, "golden line {}", i + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count());
}

#[test]
#[ignore = "prints the matrix for re-rendering golden/online_matrix.txt"]
fn print_online_matrix() {
    print!("{}", render_matrix());
}

/// Equivalent spellings of one statement answer alike on the served path:
/// equal sequences and equal ledger unit counts over the whole corpus, with
/// both model suites and both threshold configs. Covered: `A` against
/// `(A OR A)`, a repeated object, an `obj.include` list against its
/// conjunction, and the action clause written first or last. Predicate
/// order inside one AND or one OR is Algorithm 2's evaluation order
/// (footnote 5) — it decides which estimators a short-circuited clip
/// feeds — so it stays outside the property.
#[test]
fn equivalent_spellings_answer_alike() {
    let car = "obj.include('car')";
    let car_or_person = "(obj.include('car') OR obj.include('person'))";
    let pairs = [
        (
            format!("act='jumping' AND {car}"),
            format!("act='jumping' AND ({car} OR {car})"),
        ),
        (
            "act='jumping' AND obj.include('person')".into(),
            "(act='jumping' OR act='jumping') AND obj.include('person')".into(),
        ),
        (
            "act='jumping' AND leftOf('car', 'person')".into(),
            "act='jumping' AND (leftOf('car', 'person') OR leftOf('car', 'person'))".into(),
        ),
        (
            format!("act='jumping' AND {car}"),
            "act='jumping' AND obj.include('car', 'car')".into(),
        ),
        (
            "act='jumping' AND obj.include('car', 'person')".into(),
            format!("act='jumping' AND {car} AND obj.include('person')"),
        ),
        (
            format!("act='jumping' AND {car}"),
            format!("{car} AND act='jumping'"),
        ),
        (
            format!("act='jumping' AND {car_or_person}"),
            format!("{car_or_person} AND act='jumping'"),
        ),
    ];
    for (frames, v, truth) in corpus() {
        for (suite_name, suite) in suites() {
            let oracle = truth.oracle(suite);
            for (config_name, config) in configs() {
                for (a, b) in &pairs {
                    let ((seqs_a, cost_a), (seqs_b, cost_b)) = (
                        served(&plan(a), &oracle, config),
                        served(&plan(b), &oracle, config),
                    );
                    let at = format!("frames={frames} v={v} suite={suite_name} cfg={config_name}");
                    assert_eq!(seqs_a, seqs_b, "`{a}` vs `{b}` at {at}");
                    assert_eq!(
                        (cost_a.object_frames, cost_a.action_shots),
                        (cost_b.object_frames, cost_b.action_shots),
                        "`{a}` vs `{b}` at {at}"
                    );
                }
            }
        }
    }
}
