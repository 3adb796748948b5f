//! Drive the online algorithms over a query set and reduce to the
//! paper-reported numbers.

use crate::metrics::{clips_to_frames, frame_counts, match_counts, MatchCounts};
use crate::workloads::QuerySet;
use svq_core::online::{OnlineConfig, Svaqd};
use svq_types::ActionQuery;
use svq_vision::models::ModelSuite;
use svq_vision::synth::SyntheticVideo;
use svq_vision::{CostLedger, VideoStream, WallClock};

/// Which online algorithm to run, with its background initialisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OnlineAlgorithm {
    /// Algorithm 1 with fixed `p0` for objects and action.
    Svaq { p0: f64 },
    /// Algorithm 3 with initial `p0` (quickly washed out).
    Svaqd { p0: f64 },
}

/// Aggregated outcome over a query set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// Sequence-level counters at IoU η = 0.5.
    pub counts: MatchCounts,
    /// Frame-level counters.
    pub frames: MatchCounts,
    /// Number of result sequences found.
    pub sequences_found: u64,
    /// Total frames claimed by result sequences.
    pub frames_found: u64,
    /// Accumulated inference/algorithm cost.
    pub cost: CostLedger,
}

impl EvalOutcome {
    /// Sequence-level F1 (the headline metric of Figures 2-3, Tables 3-4).
    pub fn f1(&self) -> f64 {
        self.counts.f1()
    }

    /// Frame-level F1 (Figure 5).
    pub fn frame_f1(&self) -> f64 {
        self.frames.f1()
    }
}

/// The IoU matching threshold η of §5.1.
pub const ETA: f64 = 0.5;

/// Run one algorithm over one video and score it against the query truth.
pub fn run_video(
    video: &SyntheticVideo,
    query: &ActionQuery,
    algorithm: OnlineAlgorithm,
    suite: ModelSuite,
    config: OnlineConfig,
) -> EvalOutcome {
    let oracle = video.oracle(suite);
    let mut stream = VideoStream::new(&oracle);
    let geometry = video.truth.geometry;
    let engine = match algorithm {
        OnlineAlgorithm::Svaq { p0 } => Svaqd::svaq(query.clone(), geometry, config, p0, p0),
        OnlineAlgorithm::Svaqd { p0 } => Svaqd::new(query.clone(), geometry, config, p0, p0),
    };
    let result = engine.run_over(&mut stream, &WallClock::new());
    let predicted = clips_to_frames(&result.sequences, geometry);
    let truth = video.truth.query_truth(query);
    EvalOutcome {
        counts: match_counts(&predicted, &truth, ETA),
        frames: frame_counts(&predicted, &truth, video.truth.total_frames),
        sequences_found: result.sequences.len() as u64,
        frames_found: predicted.iter().map(|iv| iv.len()).sum(),
        cost: result.cost,
    }
}

/// Run one algorithm over every video of a query set and aggregate.
pub fn run_query_set(
    set: &QuerySet,
    algorithm: OnlineAlgorithm,
    suite: ModelSuite,
    config: OnlineConfig,
) -> EvalOutcome {
    run_videos(&set.videos, &set.query, algorithm, suite, config)
}

/// Run over an explicit list of videos (used by Table 3's ladders, which
/// share footage across queries). Each video is evaluated independently —
/// the benchmark protocol: every ActivityNet file is a separate stream.
pub fn run_videos(
    videos: &[SyntheticVideo],
    query: &ActionQuery,
    algorithm: OnlineAlgorithm,
    suite: ModelSuite,
    config: OnlineConfig,
) -> EvalOutcome {
    let mut total = EvalOutcome {
        counts: MatchCounts::default(),
        frames: MatchCounts::default(),
        sequences_found: 0,
        frames_found: 0,
        cost: CostLedger::default(),
    };
    for video in videos {
        let o = run_video(video, query, algorithm, suite, config);
        total.counts.add(o.counts);
        total.frames.add(o.frames);
        total.sequences_found += o.sequences_found;
        total.frames_found += o.frames_found;
        total.cost.merge(&o.cost);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::youtube_query_set;

    #[test]
    fn ideal_models_reach_f1_one() {
        // Table 4's control row: with ground-truth models both algorithms
        // recover exactly the truth.
        let set = youtube_query_set(1, 0.08, 42); // q2: blowing leaves
        for algo in [
            OnlineAlgorithm::Svaq { p0: 1e-4 },
            OnlineAlgorithm::Svaqd { p0: 1e-4 },
        ] {
            let out = run_query_set(&set, algo, ModelSuite::ideal(), OnlineConfig::default());
            assert!(
                out.f1() > 0.99,
                "{algo:?}: F1 {} counts {:?}",
                out.f1(),
                out.counts
            );
        }
    }

    #[test]
    fn realistic_models_land_in_the_paper_band() {
        let set = youtube_query_set(1, 0.4, 42);
        let out = run_query_set(
            &set,
            OnlineAlgorithm::Svaqd { p0: 1e-4 },
            ModelSuite::accurate(),
            OnlineConfig::default(),
        );
        // Paper band for SVAQD F1: 0.79-0.93; the q2 workload includes
        // deliberately extreme-noise videos (2.6x confusion), so allow
        // slack below at reduced footage.
        assert!(
            (0.45..=1.0).contains(&out.f1()),
            "F1 {} counts {:?}",
            out.f1(),
            out.counts
        );
    }

    #[test]
    fn svaqd_beats_svaq_under_bad_p0() {
        let set = youtube_query_set(1, 0.4, 42);
        let svaq = run_query_set(
            &set,
            OnlineAlgorithm::Svaq { p0: 1e-6 },
            ModelSuite::accurate(),
            OnlineConfig::default(),
        );
        let svaqd = run_query_set(
            &set,
            OnlineAlgorithm::Svaqd { p0: 1e-6 },
            ModelSuite::accurate(),
            OnlineConfig::default(),
        );
        assert!(
            svaqd.f1() > svaq.f1(),
            "svaqd {} <= svaq {}",
            svaqd.f1(),
            svaq.f1()
        );
    }

    #[test]
    fn cost_accumulates_across_videos() {
        let set = youtube_query_set(0, 0.05, 42);
        let out = run_query_set(
            &set,
            OnlineAlgorithm::Svaqd { p0: 1e-4 },
            ModelSuite::accurate(),
            OnlineConfig::default(),
        );
        assert!(out.cost.object_frames > 0);
        assert!(out.cost.inference_ms() > 0.0);
    }
}
