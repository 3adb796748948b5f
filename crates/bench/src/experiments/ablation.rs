//! Ablations beyond the paper's tables, covering the design choices
//! DESIGN.md calls out:
//!
//! 1. SVAQD background-update policies (NegativeClips / AllClips /
//!    PositiveClips — the §3.2-vs-Algorithm-3 ambiguity);
//! 2. significance level α;
//! 3. the skip mechanism's access savings as K varies (complementing
//!    Table 6's fixed comparison);
//! 4. adaptive predicate ordering (footnote 5): evaluated object
//!    predicates per clip with the user's order versus the learned order.

use super::ExpContext;
use crate::Table;
use svq_core::offline::{ingest, Rvaq, RvaqOptions};
use svq_core::online::{BackgroundUpdate, OnlineConfig};
use svq_eval::runner::{run_query_set, OnlineAlgorithm};
use svq_eval::workloads::{movies_workload, youtube_query_set};
use svq_types::PaperScoring;
use svq_vision::models::ModelSuite;

pub fn run(ctx: &ExpContext) {
    let mut report = String::new();

    // 1. Update policies.
    let set = youtube_query_set(1, ctx.scale, ctx.seed);
    let mut t = Table::new(&["update policy", "SVAQD F1"]);
    for (name, policy) in [
        ("NegativeClips (default)", BackgroundUpdate::NegativeClips),
        ("AllClips (literal Eq. 6)", BackgroundUpdate::AllClips),
        (
            "PositiveClips (literal Alg. 3)",
            BackgroundUpdate::PositiveClips,
        ),
    ] {
        let out = run_query_set(
            &set,
            OnlineAlgorithm::Svaqd { p0: 1e-4 },
            ModelSuite::accurate(),
            OnlineConfig::default().with_update(policy),
        );
        t.row(vec![name.to_string(), format!("{:.3}", out.f1())]);
    }
    report.push_str(&t.render());

    // 2. Significance level.
    let mut t = Table::new(&["alpha", "SVAQD F1"]);
    for alpha in [0.01, 0.05, 0.1, 0.2] {
        let out = run_query_set(
            &set,
            OnlineAlgorithm::Svaqd { p0: 1e-4 },
            ModelSuite::accurate(),
            OnlineConfig::default().with_alpha(alpha),
        );
        t.row(vec![format!("{alpha}"), format!("{:.3}", out.f1())]);
    }
    report.push('\n');
    report.push_str(&t.render());

    // 3. Skip savings vs K.
    let movies = movies_workload(ctx.scale, ctx.seed);
    let case = &movies[0];
    let oracle = case.video.oracle(ModelSuite::accurate());
    let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
    let mut t = Table::new(&["K", "RVAQ accesses", "noSkip accesses", "saved"]);
    for k in [1usize, 3, 5, 9] {
        let with = Rvaq::run(&catalog, &case.query, &PaperScoring, RvaqOptions::new(k));
        let without = Rvaq::run(
            &catalog,
            &case.query,
            &PaperScoring,
            RvaqOptions::new(k).without_skip(),
        );
        let saved =
            1.0 - with.disk.random_accesses as f64 / without.disk.random_accesses.max(1) as f64;
        t.row(vec![
            format!("{k}"),
            format!("{}", with.disk.random_accesses),
            format!("{}", without.disk.random_accesses),
            format!("{:.0} %", 100.0 * saved),
        ]);
    }
    report.push('\n');
    report.push_str(&t.render());

    // 4. Adaptive predicate ordering. Query with a common first object and
    // a rare second one: the user's order wastes an evaluation on most
    // clips; the learned order short-circuits on the rare predicate.
    let q3 = youtube_query_set(2, ctx.scale, ctx.seed); // walking the dog
    let ordered_query = svq_types::ActionQuery::named("walking the dog", &["tree", "zebra"]);
    let objects = ordered_query.objects.len();
    let mut t = Table::new(&["ordering", "avg object predicates evaluated/clip"]);
    for (name, adaptive) in [
        ("query order (user)", false),
        ("learned (footnote 5)", true),
    ] {
        let mut evaluated = 0u64;
        let mut clips = 0u64;
        for video in &q3.videos {
            let oracle = video.oracle(ModelSuite::accurate());
            let mut stream = svq_vision::VideoStream::new(&oracle);
            let config = if adaptive {
                OnlineConfig::default().with_adaptive_order()
            } else {
                OnlineConfig::default()
            };
            let mut engine = svq_core::online::Svaqd::new(
                ordered_query.clone(),
                stream.geometry(),
                config,
                1e-4,
                1e-4,
            );
            while let Some(mut view) = stream.next_clip() {
                engine.push_clip(&mut view);
            }
            let (_, evals) = engine.finish();
            clips += evals.len() as u64;
            evaluated += evals
                .iter()
                .map(|e| e.counts[..objects].iter().flatten().count() as u64)
                .sum::<u64>();
        }
        t.row(vec![
            name.to_string(),
            format!("{:.2}", evaluated as f64 / clips.max(1) as f64),
        ]);
    }
    report.push('\n');
    report.push_str(&t.render());

    ctx.emit("ablation", &report);
}
