//! Plan execution: bind a [`LogicalPlan`] to the engines.
//!
//! Online plans run SVAQD over a [`VideoStream`] — one engine for the
//! canonical conjunction and every extended (CNF) predicate; offline plans
//! run RVAQ over an [`IngestedVideo`].
//! Both entry points return the same [`QueryOutcome`] envelope — mode
//! payload, disk-access delta, and wall time — so the CLI and the bench
//! harness report either mode through one code path.

use crate::cluster::{self, ClusterTopK};
use crate::plan::{LogicalPlan, PlannedPredicate, QueryMode};
use serde::{Deserialize, Serialize};
use std::time::Instant;
use svq_core::offline::{Rvaq, RvaqOptions, TopKResult};
use svq_core::online::{OnlineConfig, OnlineResult, Svaqd};
use svq_storage::{DiskStats, IngestedVideo, VideoRepository};
use svq_types::{ClipInterval, ScoringFunctions, SvqError, SvqResult};
use svq_vision::{CostLedger, VideoStream};

/// Mode-specific payload of a statement execution.
///
/// On the wire, tagged by `mode`:
/// `{"mode": "online", "sequences": [...], "cost": {...}}`,
/// `{"mode": "offline", "topk": {...}}` or `{"mode": "cluster", "topk": {...}}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "mode", rename_all = "snake_case")]
pub enum QueryResults {
    /// Online (SVAQD, any predicate shape) output: result sequences plus
    /// the simulated inference cost the stream accumulated.
    Online {
        sequences: Vec<ClipInterval>,
        cost: CostLedger,
    },
    /// Offline (RVAQ) output, with exact scores materialised so ranks are
    /// user-meaningful.
    #[serde(content = "topk")]
    Offline(TopKResult),
    /// Cluster-wide offline output: the scatter-gather merge of per-video
    /// top-Ks across the whole catalog (see [`crate::cluster`]).
    #[serde(content = "topk")]
    Cluster(ClusterTopK),
}

/// Uniform envelope returned by [`execute_online`] and [`execute_offline`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Mode-specific results.
    pub results: QueryResults,
    /// Simulated-disk accesses this execution performed. Always zero for
    /// online statements — SVAQD never touches the catalog store.
    pub disk: DiskStats,
    /// Wall-clock execution time of the engine call, in milliseconds.
    pub wall_ms: f64,
}

impl QueryOutcome {
    /// Result sequences in rank order (offline) or stream order (online).
    pub fn sequences(&self) -> Vec<ClipInterval> {
        match &self.results {
            QueryResults::Online { sequences, .. } => sequences.clone(),
            QueryResults::Offline(topk) => topk.ranked.iter().map(|r| r.interval).collect(),
            QueryResults::Cluster(topk) => topk.ranked.iter().map(|r| r.interval).collect(),
        }
    }

    /// Online payload, if this was an online execution.
    pub fn online(&self) -> Option<(&[ClipInterval], &CostLedger)> {
        match &self.results {
            QueryResults::Online { sequences, cost } => Some((sequences, cost)),
            _ => None,
        }
    }

    /// Offline payload, if this was a single-video offline execution.
    pub fn offline(&self) -> Option<&TopKResult> {
        match &self.results {
            QueryResults::Offline(topk) => Some(topk),
            _ => None,
        }
    }

    /// Cluster payload, if this was a catalog-wide offline execution.
    pub fn cluster(&self) -> Option<&ClusterTopK> {
        match &self.results {
            QueryResults::Cluster(topk) => Some(topk),
            _ => None,
        }
    }

    /// A copy with every real wall-clock field zeroed.
    ///
    /// Sequences, scores, bounds, simulated inference/I/O costs, disk
    /// accesses, and iteration counts are all deterministic for a fixed
    /// workload; only `wall_ms`, `cost.algorithm_ms`, and the offline
    /// `topk.wall_ms` measure the host machine. Comparing canonical forms
    /// (e.g. their serialized JSON) therefore proves two executions were
    /// byte-identical where identity is meaningful — the anchor the
    /// server tests and svqbench's response checks rely on.
    pub fn canonical(&self) -> QueryOutcome {
        let mut out = self.clone();
        out.wall_ms = 0.0;
        match &mut out.results {
            QueryResults::Online { cost, .. } => cost.algorithm_ms = 0.0,
            QueryResults::Offline(topk) => topk.wall_ms = 0.0,
            QueryResults::Cluster(topk) => topk.wall_ms = 0.0,
        }
        out
    }
}

/// Execute an online plan over a stream with SVAQD defaults
/// (`p_obj_0 = p_act_0 = 1e-4`; SVAQD is insensitive to the choice).
pub fn execute_online(
    plan: &LogicalPlan,
    stream: &mut VideoStream<'_>,
    config: OnlineConfig,
) -> SvqResult<QueryOutcome> {
    match plan.mode {
        QueryMode::Online => {}
        QueryMode::Offline { .. } => {
            return Err(SvqError::InvalidQuery(
                "offline plan executed against a stream; use execute_offline".into(),
            ))
        }
    }
    let started = Instant::now();
    let OnlineResult { sequences, .. } = Svaqd::run(&plan.predicate, stream, config, 1e-4, 1e-4);
    Ok(QueryOutcome {
        results: QueryResults::Online {
            sequences,
            cost: *stream.ledger(),
        },
        disk: DiskStats::default(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

/// Execute an offline plan against an ingested catalog with exact scores.
///
/// Generic over the scoring functions, like [`Rvaq::run`]: a concrete `S`
/// runs RVAQ with `g` and `f` inlined, a `&dyn ScoringFunctions` through
/// the trait object.
pub fn execute_offline<S: ScoringFunctions + ?Sized>(
    plan: &LogicalPlan,
    catalog: &IngestedVideo,
    scoring: &S,
) -> SvqResult<QueryOutcome> {
    let k = match plan.mode {
        QueryMode::Offline { k } => k,
        QueryMode::Online => {
            return Err(SvqError::InvalidQuery(
                "online plan executed against a repository; use execute_online".into(),
            ))
        }
    };
    match &plan.predicate {
        PlannedPredicate::Simple(q) => {
            let started = Instant::now();
            let topk = Rvaq::run(catalog, q, scoring, RvaqOptions::new(k).with_exact_scores());
            let disk = topk.disk;
            Ok(QueryOutcome {
                results: QueryResults::Offline(topk),
                disk,
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
            })
        }
        PlannedPredicate::Cnf(_) => Err(SvqError::InvalidQuery(
            "extended (CNF) predicates are supported online; the offline \
             engine requires the canonical single-action conjunction"
                .into(),
        )),
    }
}

/// Execute an offline plan against *every* video of a repository and merge
/// the per-video top-Ks into one cluster-wide [`QueryResults::Cluster`]
/// outcome.
///
/// Videos run in `VideoId` order — the repository iterates its `BTreeMap` —
/// so the execution (and therefore every deterministic field of the
/// outcome) is a pure function of the catalog contents. The cluster router
/// reproduces exactly this result by merging shard-local answers; see
/// [`crate::cluster`] for why the grouping cannot change a byte.
pub fn execute_offline_all<S: ScoringFunctions + ?Sized>(
    plan: &LogicalPlan,
    repo: &VideoRepository,
    scoring: &S,
) -> SvqResult<QueryOutcome> {
    let k = match plan.mode {
        QueryMode::Offline { k } => k,
        QueryMode::Online => {
            return Err(SvqError::InvalidQuery(
                "online plan executed against a repository; use execute_online".into(),
            ))
        }
    };
    let started = Instant::now();
    let mut parts = Vec::new();
    let mut disk = DiskStats::default();
    for video in repo.video_ids() {
        let Some(catalog) = repo.get(video)? else {
            continue;
        };
        let outcome = execute_offline(plan, &catalog, scoring)?;
        let topk = outcome
            .offline()
            .expect("execute_offline returns an offline payload");
        disk.sorted_accesses += topk.disk.sorted_accesses;
        disk.random_accesses += topk.disk.random_accesses;
        parts.push(cluster::part_of_video(video, topk));
    }
    let (mut merged, _stats) = cluster::merge_cluster(k, parts);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    merged.wall_ms = wall_ms;
    Ok(QueryOutcome {
        results: QueryResults::Cluster(merged),
        disk,
        wall_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::sync::Arc;
    use svq_core::offline::ingest;
    use svq_types::{
        ActionClass, BBox, ClipId, FrameId, Interval, ObjectClass, PaperScoring, TrackId,
        VideoGeometry, VideoId,
    };
    use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
    use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

    fn oracle() -> DetectionOracle {
        let mut gt = GroundTruth::new(VideoId::new(0), VideoGeometry::default(), 1_500);
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("car"),
            track: TrackId::new(1),
            frames: Interval::new(FrameId::new(400), FrameId::new(999)),
            visibility: 1.0,
            bbox: BBox::FULL,
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("jumping"),
            frames: Interval::new(FrameId::new(500), FrameId::new(899)),
            salience: 1.0,
        });
        DetectionOracle::new(
            Arc::new(gt),
            ModelSuite::ideal(),
            &SceneConfusion::default(),
            0,
        )
    }

    #[test]
    fn end_to_end_online_statement() {
        let stmt = parse(
            "SELECT MERGE(clipID) AS Sequence \
             FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
             act USING ActionRecognizer) \
             WHERE act='jumping' AND obj.include('car')",
        )
        .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let result = execute_online(&plan, &mut stream, OnlineConfig::default()).unwrap();
        // jumping 500-899 = clips 10..=17; car covers it.
        assert_eq!(
            result.sequences(),
            vec![Interval::new(ClipId::new(10), ClipId::new(17))]
        );
        let (sequences, cost) = result.online().unwrap();
        assert_eq!(sequences, result.sequences().as_slice());
        assert!(cost.inference_ms() >= 0.0);
        assert!(result.offline().is_none());
        assert_eq!(result.disk, DiskStats::default());
        assert!(result.wall_ms >= 0.0);
    }

    #[test]
    fn end_to_end_offline_statement() {
        let stmt = parse(
            "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
             FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
             act USING ActionRecognizer) \
             WHERE act='jumping' AND obj.include('car') \
             ORDER BY RANK(act, obj) LIMIT 1",
        )
        .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        let oracle = oracle();
        let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
        let result = execute_offline(&plan, &catalog, &PaperScoring).unwrap();
        let topk = result.offline().unwrap();
        assert_eq!(topk.ranked.len(), 1);
        assert_eq!(
            topk.ranked[0].interval,
            Interval::new(ClipId::new(10), ClipId::new(17))
        );
        // Exact scores are materialised for user-facing ranks.
        assert!(topk.ranked[0].exact.is_some());
        assert_eq!(result.sequences(), vec![topk.ranked[0].interval]);
        assert_eq!(result.disk, topk.disk);
        assert!(result.online().is_none());
    }

    #[test]
    fn mode_mismatch_is_rejected() {
        let stmt =
            parse("SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='jumping'")
                .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        let oracle = oracle();
        let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
        assert!(execute_offline(&plan, &catalog, &PaperScoring).is_err());
    }

    #[test]
    fn outcome_json_round_trips_both_modes() {
        let online_stmt = parse(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' AND obj.include('car')",
        )
        .unwrap();
        let offline_stmt = parse(
            "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' AND obj.include('car') \
             ORDER BY RANK(act, obj) LIMIT 2",
        )
        .unwrap();
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let online = execute_online(
            &LogicalPlan::from_statement(&online_stmt).unwrap(),
            &mut stream,
            OnlineConfig::default(),
        )
        .unwrap();
        let catalog = ingest(&oracle, &PaperScoring, &OnlineConfig::default());
        let offline = execute_offline(
            &LogicalPlan::from_statement(&offline_stmt).unwrap(),
            &catalog,
            &PaperScoring,
        )
        .unwrap();
        for outcome in [online, offline] {
            let json = serde_json::to_string(&outcome).unwrap();
            let back: QueryOutcome = serde_json::from_str(&json).unwrap();
            assert_eq!(back, outcome, "JSON round-trip must be lossless");
            // Canonicalisation zeroes exactly the wall-clock fields, so two
            // canonical encodings of the same logical result are equal bytes.
            let canon = serde_json::to_string(&outcome.canonical()).unwrap();
            assert_eq!(
                canon,
                serde_json::to_string(&back.canonical()).unwrap(),
                "canonical forms are byte-identical"
            );
            assert_eq!(outcome.canonical().wall_ms, 0.0);
        }
    }

    #[test]
    fn results_deserialize_rejects_bad_mode() {
        let err = serde_json::from_str::<QueryResults>("{\"mode\": \"sideways\"}");
        assert!(err.is_err());
        let err = serde_json::from_str::<QueryResults>("{\"sequences\": []}");
        assert!(err.is_err());
    }

    #[test]
    fn online_cnf_statement_executes() {
        let stmt = parse(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE (act='jumping' OR act='kissing') AND obj.include('car')",
        )
        .unwrap();
        let plan = LogicalPlan::from_statement(&stmt).unwrap();
        let oracle = oracle();
        let mut stream = VideoStream::new(&oracle);
        let result = execute_online(&plan, &mut stream, OnlineConfig::default()).unwrap();
        assert_eq!(
            result.sequences(),
            vec![Interval::new(ClipId::new(10), ClipId::new(17))]
        );
    }
}
