//! Golden matrix of the online engines over svqbench-style videos.
//!
//! Pins `Svaq`, `Svaqd` (query order and learned order), `ExprSvaqd` and
//! `svq_query::execute_online` on the four svqbench online statements plus
//! one `leftOf` statement, at the default thresholds and at
//! `t_obj 0.6 / t_act 0.55`: result sequences, ledger unit counts, the
//! `f64::to_bits` of every ledger millisecond field, and a digest of every
//! clip's evaluation (counts, criticals; for `ExprSvaqd` its per-clip
//! criticals and background estimates). Each oracle is queried at the
//! default thresholds first, so the second threshold pair reads a video
//! whose occurrence counts were already asked for at another threshold.
//! `algorithm_ms` is pinned only where a `ManualClock` drives it;
//! `execute_online` reads the wall clock. To re-render after a
//! *deliberate* semantic change:
//! `cargo test -p svq-core --test online_golden -- --ignored --nocapture`.

use std::fmt::Write as _;
use std::time::Duration;
use svq_core::expr::{CnfQuery, ExprSvaqd};
use svq_core::online::{ClipEvaluation, OnlineConfig, OnlineResult, Svaq, Svaqd};
use svq_query::plan::PlannedPredicate;
use svq_query::{execute_online, parse, LogicalPlan, QueryResults};
use svq_types::{ActionClass, ClipInterval, ManualClock, ObjectClass, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};
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
        for &c in &e.object_counts {
            d.mix(count(c));
        }
        d.mix(count(e.action_count));
        for &k in &e.criticals.objects {
            d.mix(u64::from(k));
        }
        d.mix(u64::from(e.criticals.action));
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

/// `ExprSvaqd` clip by clip, digesting each clip's closed sequence,
/// criticals and background estimates.
fn expr_line(oracle: &DetectionOracle, query: CnfQuery, config: OnlineConfig) -> String {
    let mut stream = VideoStream::new(oracle);
    let mut engine = ExprSvaqd::new(query, stream.geometry(), config, 1e-4, 1e-4);
    let mut d = Digest::new();
    while let Some(mut view) = stream.next_clip() {
        let closed = engine.push_clip(&mut view);
        d.mix(closed.map_or(u64::MAX, |s| s.start.raw() << 32 | s.end.raw()));
        for k in engine.criticals() {
            d.mix(u64::from(k));
        }
        for b in engine.backgrounds() {
            d.mix(b.to_bits());
        }
    }
    let seqs = engine.finish();
    format!(
        "seqs={} | {} | clips={:016x}",
        sequences(&seqs),
        ledger(stream.ledger(), false),
        d.0
    )
}

fn render_matrix() -> String {
    let suites = [
        ("accurate", ModelSuite::accurate()),
        ("ideal", ModelSuite::ideal()),
    ];
    let configs = [
        ("default", OnlineConfig::default()),
        (
            "t0.6/0.55",
            OnlineConfig::default().with_thresholds(0.6, 0.55),
        ),
    ];
    let mut out = String::new();
    for (frames, videos) in CORPUS {
        for v in 0..videos {
            let truth = ScenarioSpec::activitynet(
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
            for (suite_name, suite) in suites {
                let oracle = truth.oracle(suite);
                for (config_name, config) in configs {
                    for (stmt, predicate) in PREDICATES.iter().enumerate() {
                        let sql = format!(
                            "SELECT MERGE(clipID) AS Sequence \
                             FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
                             act USING ActionRecognizer) \
                             WHERE act='jumping' AND {predicate}"
                        );
                        let plan = LogicalPlan::from_statement(&parse(&sql).expect("parse"))
                            .expect("plan");
                        let mut lines: Vec<(&str, String)> = Vec::new();

                        let outcome = execute_online(&plan, &mut VideoStream::new(&oracle), config)
                            .expect("execute_online");
                        let QueryResults::Online {
                            sequences: seqs,
                            cost,
                        } = &outcome.results
                        else {
                            panic!("online plan returned an offline payload");
                        };
                        lines.push((
                            "execute_online",
                            format!("seqs={} | {}", sequences(seqs), ledger(cost, false)),
                        ));

                        let cnf = match &plan.predicate {
                            PlannedPredicate::Simple(q) => {
                                let r = Svaq::run_with_clock(
                                    q.clone(),
                                    &mut VideoStream::new(&oracle),
                                    config,
                                    1e-2,
                                    1e-2,
                                    &clock(),
                                );
                                lines.push(("svaq", online_line(&r)));
                                let r = Svaqd::run_with_clock(
                                    q.clone(),
                                    &mut VideoStream::new(&oracle),
                                    config,
                                    1e-4,
                                    1e-4,
                                    &clock(),
                                );
                                lines.push(("svaqd", online_line(&r)));
                                let r = Svaqd::run_with_clock(
                                    q.clone(),
                                    &mut VideoStream::new(&oracle),
                                    config.with_adaptive_order(),
                                    1e-4,
                                    1e-4,
                                    &clock(),
                                );
                                lines.push(("svaqd-adaptive", online_line(&r)));
                                CnfQuery::from_action_query(q)
                            }
                            PlannedPredicate::Cnf(q) => q.clone(),
                        };
                        lines.push(("expr-svaqd", expr_line(&oracle, cnf, config)));

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
