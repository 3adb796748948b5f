//! End-to-end integration: synthetic scene → online streaming → offline
//! ingestion → SQL surface, all against one another.

use svq_act::prelude::*;
use svq_core::online::OnlineConfig;
use svq_query::plan::QueryMode;

fn scene(seed: u64) -> SyntheticVideo {
    ScenarioSpec::activitynet(
        VideoId::new(9),
        6_000,
        ActionClass::named("archery"),
        vec![ObjectSpec::correlated(ObjectClass::named("person"))],
        seed,
    )
    .generate()
}

#[test]
fn online_and_offline_agree_on_ideal_models() {
    // With ground-truth models, the streaming result sequences and the
    // offline P_q are built from the same per-class machinery; they may
    // disagree by a boundary clip or two (their background estimators see
    // different clip diets — the online action estimator only observes
    // clips whose object predicates held), but must agree structurally:
    // same sequence count, differing by at most one boundary clip per
    // sequence.
    let video = scene(3);
    let query = ActionQuery::named("archery", &["person"]);

    let oracle = video.oracle(ModelSuite::ideal());
    let mut stream = VideoStream::new(&oracle);
    let online = Svaqd::run(
        query.clone(),
        &mut stream,
        OnlineConfig::default(),
        1e-4,
        1e-4,
    );

    let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
    let offline_pq = catalog.result_sequences(&query);

    assert!(!online.sequences.is_empty());
    assert_eq!(online.sequences.len(), offline_pq.len());
    for (a, b) in online.sequences.iter().zip(offline_pq.intervals()) {
        let sym_diff = a.len() + b.len() - 2 * a.overlap_len(b);
        assert!(sym_diff <= 2, "{a:?} vs {b:?} differ by {sym_diff} clips");
    }
}

#[test]
fn rvaq_matches_pq_traverse_ranking() {
    // RVAQ's top-K (with exact scores) must equal the brute-force ranking.
    let video = scene(5);
    let query = ActionQuery::named("archery", &["person"]);
    let oracle = video.oracle(ModelSuite::accurate());
    let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());

    let total = catalog.result_sequences(&query).len();
    assert!(total >= 2, "need several sequences, got {total}");
    for k in 1..=total.min(4) {
        let rvaq = Rvaq::run(
            &catalog,
            &query,
            &PaperScoring,
            RvaqOptions::new(k).with_exact_scores(),
        );
        let brute = PqTraverse::run(&catalog, &query, &PaperScoring, k);
        let rvaq_ivs: Vec<_> = rvaq.ranked.iter().map(|r| r.interval).collect();
        let brute_ivs: Vec<_> = brute.ranked.iter().map(|r| r.interval).collect();
        assert_eq!(rvaq_ivs, brute_ivs, "k={k}");
        for (a, b) in rvaq.ranked.iter().zip(&brute.ranked) {
            let (ea, eb) = (a.exact.unwrap(), b.exact.unwrap());
            assert!(
                (ea - eb).abs() < 1e-6 * eb.abs().max(1.0),
                "k={k}: scores {ea} vs {eb}"
            );
        }
    }
}

#[test]
fn fa_and_pq_traverse_agree_exactly() {
    let video = scene(7);
    let query = ActionQuery::named("archery", &["person"]);
    let oracle = video.oracle(ModelSuite::accurate());
    let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
    let total = catalog.result_sequences(&query).len();
    let fa = FaTopK::run(&catalog, &query, &PaperScoring, total);
    let brute = PqTraverse::run(&catalog, &query, &PaperScoring, total);
    assert_eq!(
        fa.ranked.iter().map(|r| r.interval).collect::<Vec<_>>(),
        brute.ranked.iter().map(|r| r.interval).collect::<Vec<_>>()
    );
}

#[test]
fn sql_surface_matches_direct_api() {
    let video = scene(11);
    let sql_online = "SELECT MERGE(clipID) AS Sequence \
        FROM (PROCESS v PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) \
        WHERE act='archery' AND obj.include('person')";
    let stmt = svq_query::parse(sql_online).unwrap();
    let plan = LogicalPlan::from_statement(&stmt).unwrap();
    assert_eq!(plan.mode, QueryMode::Online);

    let oracle = video.oracle(ModelSuite::accurate());
    let mut stream = VideoStream::new(&oracle);
    let via_sql = execute_online(&plan, &mut stream, OnlineConfig::default()).unwrap();

    let oracle2 = video.oracle(ModelSuite::accurate());
    let mut stream2 = VideoStream::new(&oracle2);
    let direct = Svaqd::run(
        ActionQuery::named("archery", &["person"]),
        &mut stream2,
        OnlineConfig::default(),
        1e-4,
        1e-4,
    );
    assert_eq!(via_sql.sequences(), direct.sequences);
    assert!(via_sql.online().is_some() && via_sql.offline().is_none());
}

#[test]
fn catalog_persistence_preserves_query_results() {
    let video = scene(13);
    let query = ActionQuery::named("archery", &["person"]);
    let oracle = video.oracle(ModelSuite::accurate());
    let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
    let before = Rvaq::run(
        &catalog,
        &query,
        &PaperScoring,
        RvaqOptions::new(3).with_exact_scores(),
    );

    let path = std::env::temp_dir().join("svq_e2e_catalog.svqc");
    catalog.save(&path).unwrap();
    let reloaded = IngestedVideo::load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let after = Rvaq::run(
        &reloaded,
        &query,
        &PaperScoring,
        RvaqOptions::new(3).with_exact_scores(),
    );
    assert_eq!(
        before.ranked.iter().map(|r| r.interval).collect::<Vec<_>>(),
        after.ranked.iter().map(|r| r.interval).collect::<Vec<_>>()
    );
}

#[test]
fn short_circuit_saves_action_inference_end_to_end() {
    // A query whose object almost never appears: the action recognizer
    // should run on only a small fraction of clips.
    let video = scene(17);
    let query = ActionQuery::named("archery", &["zebra"]);
    let oracle = video.oracle(ModelSuite::accurate());
    let mut stream = VideoStream::new(&oracle);
    let result = Svaqd::run(query, &mut stream, OnlineConfig::default(), 1e-4, 1e-4);
    let clips = video.truth.geometry.clip_count(video.truth.total_frames);
    assert!(result.sequences.is_empty());
    assert_eq!(result.cost.object_frames, clips * 50);
    assert!(
        result.cost.action_shots < clips * 5 / 10,
        "action ran on {} shots of {} total",
        result.cost.action_shots,
        clips * 5
    );
}

#[test]
fn alternative_scoring_algebra_works_offline() {
    // The engine is agnostic to the scoring functions (§4.1): run the
    // max-based algebra end-to-end and cross-check against brute force.
    use svq_types::scoring::MaxScoring;
    let video = scene(23);
    let query = ActionQuery::named("archery", &["person"]);
    let oracle = video.oracle(ModelSuite::accurate());
    let catalog = svq_core::offline::ingest(&oracle, &MaxScoring, &OnlineConfig::default());
    let total = catalog.result_sequences(&query).len();
    assert!(total >= 2);
    let rvaq = Rvaq::run(
        &catalog,
        &query,
        &MaxScoring,
        RvaqOptions::new(1).with_exact_scores(),
    );
    let brute = PqTraverse::run(&catalog, &query, &MaxScoring, 1);
    assert_eq!(rvaq.ranked[0].interval, brute.ranked[0].interval);
    assert!((rvaq.ranked[0].exact.unwrap() - brute.ranked[0].exact.unwrap()).abs() < 1e-9);
}

#[test]
fn repository_global_topk_end_to_end() {
    use svq_core::offline::RepositoryRvaq;
    use svq_storage::VideoRepository;
    let query = ActionQuery::named("archery", &["person"]);
    let mut repo = VideoRepository::new();
    for seed in [31u64, 32, 33] {
        let mut video = scene(seed);
        // Distinct video ids per repository entry.
        let mut truth = (*video.truth).clone();
        truth.video = VideoId::new(seed);
        video.truth = std::sync::Arc::new(truth);
        let oracle = video.oracle(ModelSuite::accurate());
        repo.add(svq_core::offline::ingest(
            &oracle,
            &PaperScoring,
            &OnlineConfig::default(),
        ));
    }
    let top = RepositoryRvaq::run(&repo, &query, &PaperScoring, 4).unwrap();
    assert!(!top.ranked.is_empty());
    for w in top.ranked.windows(2) {
        assert!(w[0].score >= w[1].score);
    }
    // Persist the repository and re-query.
    let dir = std::env::temp_dir().join("svq_e2e_repo");
    repo.save_dir(&dir).unwrap();
    let reloaded = VideoRepository::open_dir(&dir).unwrap();
    let again = RepositoryRvaq::run(&reloaded, &query, &PaperScoring, 4).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(top.ranked.len(), again.ranked.len());
    for (a, b) in top.ranked.iter().zip(&again.ranked) {
        assert_eq!((a.video, a.interval), (b.video, b.interval));
        // Exact scores may differ in the last ulp: the fold order over clip
        // scores depends on the iterator's absorption order.
        assert!((a.score - b.score).abs() < 1e-6 * a.score.abs().max(1.0));
    }
}

#[test]
fn disjunctive_sql_statement_end_to_end() {
    // Footnote 4 through the whole stack: parse OR, plan to CNF, execute.
    let video = scene(27);
    let sql = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
        WHERE (act='archery' OR act='kissing') AND obj.include('person')";
    let stmt = svq_query::parse(sql).unwrap();
    let plan = LogicalPlan::from_statement(&stmt).unwrap();
    let oracle = video.oracle(ModelSuite::ideal());
    let mut stream = VideoStream::new(&oracle);
    let via_or = execute_online(&plan, &mut stream, OnlineConfig::default())
        .unwrap()
        .sequences();
    // With no kissing in the scene, the disjunction equals the plain query.
    let oracle2 = video.oracle(ModelSuite::ideal());
    let mut stream2 = VideoStream::new(&oracle2);
    let plain = Svaqd::run(
        ActionQuery::named("archery", &["person"]),
        &mut stream2,
        OnlineConfig::default(),
        1e-4,
        1e-4,
    );
    assert_eq!(via_or, plain.sequences);
    assert!(!via_or.is_empty());
}
