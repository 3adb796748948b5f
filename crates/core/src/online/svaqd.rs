//! SVAQD — Algorithm 3.
//!
//! SVAQ with dynamic parameter adjustment: each predicate carries an
//! exponential-kernel background estimator (Eq. 6). After a clip is
//! evaluated, the estimators observe the clip's occurrence units (per the
//! configured [`BackgroundUpdate`] policy) and the critical values are
//! re-derived from the updated estimates through the memoised
//! critical-value table. The initial probabilities `p_obj_0` / `p_act_0`
//! only matter until roughly one kernel bandwidth of stream has been
//! observed — the insensitivity Figure 2 demonstrates.

use super::config::{BackgroundUpdate, OnlineConfig};
use super::indicator::{evaluate_clip, evaluate_clip_ordered, ClipEvaluation, CriticalValues};
use super::merger::SequenceMerger;
use super::ordering::SelectivityOrderer;
use super::OnlineResult;
use std::time::Duration;
use svq_scanstats::{CriticalValueTable, KernelEstimator, ScanConfig};
use svq_types::{ActionQuery, ClipInterval, Clock, VideoGeometry};
use svq_vision::stream::ClipAccess;
use svq_vision::{VideoStream, WallClock};

/// Algorithm 3: streaming action-query processing with dynamic background
/// estimation.
#[derive(Debug)]
pub struct Svaqd {
    query: ActionQuery,
    config: OnlineConfig,
    geometry: VideoGeometry,
    object_estimators: Vec<KernelEstimator>,
    action_estimator: KernelEstimator,
    object_table: CriticalValueTable,
    action_table: CriticalValueTable,
    criticals: CriticalValues,
    merger: SequenceMerger,
    evaluations: Vec<ClipEvaluation>,
    /// Previous clip's per-predicate indicators (objects…, then action).
    /// Under [`BackgroundUpdate::NegativeClips`], a clip immediately
    /// following a predicate-positive clip is excluded from that predicate's
    /// background update: such clips sit in the vicinity of genuine events
    /// (episode-interior recognition dropouts, episode tails) and would
    /// otherwise leak near-signal rates into the noise floor — the standard
    /// guard in scan-statistics-based online anomaly detection.
    ///
    /// Two further safeguards keep the estimate↔critical-value feedback
    /// loop well-behaved. Critical values are clamped to `[2, w−1]`: a
    /// single positive occurrence unit is never a statistically meaningful
    /// burst (and `k_crit = 1` would leave the negative-clip diet with only
    /// empty clips, stalling adaptation), while `k_crit = w` — demanding
    /// *every* occurrence unit positive — makes the clip indicator
    /// non-robust to a single recognition dropout, fragmenting genuine
    /// episodes; the action window (`w` = shots per clip, 5 by default) is
    /// coarse enough that this matters. And every fed count is *censored at
    /// `k_crit − 1`*: the background is by definition the event rate outside
    /// significant bursts, so occurrence units beyond the significance
    /// threshold are replaced by the threshold (rank-truncated estimation).
    /// Censoring bounds the damage when genuine signal leaks past the
    /// negative-clip gate (e.g. two consecutive recognition dropouts inside
    /// an episode defeat the one-clip vicinity guard) — without it a single
    /// leak can start a death spiral: signal inflates the background, the
    /// critical value rises, more episode clips turn negative and feed more
    /// signal, until the whole stream is rejected.
    prev_indicators: Vec<Option<bool>>,
    clips_seen: u32,
    /// Learned object-predicate evaluation order (footnote 5), active when
    /// [`OnlineConfig::adaptive_order`] is set.
    orderer: SelectivityOrderer,
}

impl Svaqd {
    /// Initialise with background priors `p_obj_0` (shared by all object
    /// predicates) and `p_act_0`.
    pub fn new(
        query: ActionQuery,
        geometry: VideoGeometry,
        config: OnlineConfig,
        p_obj_0: f64,
        p_act_0: f64,
    ) -> Self {
        let w_obj = geometry.frames_per_clip();
        let w_act = geometry.shots_per_clip;
        let mut object_table =
            CriticalValueTable::new(ScanConfig::new(w_obj, config.horizon_windows, config.alpha));
        let mut action_table =
            CriticalValueTable::new(ScanConfig::new(w_act, config.horizon_windows, config.alpha));
        let object_estimators: Vec<KernelEstimator> = query
            .objects
            .iter()
            .map(|_| KernelEstimator::new(config.bandwidth_frames, p_obj_0))
            .collect();
        let action_estimator = KernelEstimator::new(config.bandwidth_shots, p_act_0);
        let clamp = |k: u32, w: u32| k.clamp(2, (w - 1).max(2));
        let criticals = CriticalValues {
            objects: object_estimators
                .iter()
                .map(|e| clamp(object_table.critical_value(e.estimate()), w_obj))
                .collect(),
            action: clamp(
                action_table.critical_value(action_estimator.estimate()),
                w_act,
            ),
        };
        let n_predicates = query.objects.len() + 1;
        Self {
            query,
            config,
            geometry,
            object_estimators,
            action_estimator,
            object_table,
            action_table,
            criticals,
            merger: SequenceMerger::new(),
            evaluations: Vec::new(),
            prev_indicators: vec![None; n_predicates],
            clips_seen: 0,
            orderer: SelectivityOrderer::new(n_predicates - 1),
        }
    }

    /// The critical values currently in force.
    pub fn criticals(&self) -> &CriticalValues {
        &self.criticals
    }

    /// The learned predicate-ordering state (footnote 5).
    pub fn orderer(&self) -> &SelectivityOrderer {
        &self.orderer
    }

    /// Current background estimates (objects in query order, then action).
    pub fn backgrounds(&self) -> Vec<f64> {
        self.object_estimators
            .iter()
            .map(|e| e.estimate())
            .chain(std::iter::once(self.action_estimator.estimate()))
            .collect()
    }

    /// Process the next clip; returns a result sequence if this clip closed
    /// one.
    pub fn push_clip<C: ClipAccess>(&mut self, view: &mut C) -> Option<ClipInterval> {
        let eval = if self.config.adaptive_order {
            let order = self.orderer.order();
            evaluate_clip_ordered(view, &self.query, &self.criticals, &self.config, order)
        } else {
            evaluate_clip(view, &self.query, &self.criticals, &self.config)
        };
        if self.config.adaptive_order {
            let outcomes: Vec<Option<bool>> = eval
                .object_counts
                .iter()
                .enumerate()
                .map(|(i, c)| c.map(|n| n >= self.criticals.objects[i]))
                .collect();
            self.orderer.record(&outcomes);
        }

        // Update background estimators with this clip's observations.
        let w_obj = self.geometry.frames_per_clip() as u64;
        let w_act = self.geometry.shots_per_clip as u64;
        let mut changed = false;
        let n_obj = self.query.objects.len();
        let in_warmup = self.clips_seen < self.config.warmup_clips;
        self.clips_seen += 1;
        for (i, est) in self.object_estimators.iter_mut().enumerate() {
            if let Some(count) = eval.object_counts[i] {
                let positive = count >= self.criticals.objects[i];
                let after_positive = self.prev_indicators[i] == Some(true);
                let update = in_warmup
                    || match self.config.update {
                        BackgroundUpdate::NegativeClips => !positive && !after_positive,
                        BackgroundUpdate::AllClips => true,
                        BackgroundUpdate::PositiveClips => eval.positive,
                    };
                if update {
                    est.observe_run(w_obj, censor(count, w_obj, est.estimate()) as u64);
                    changed = true;
                }
                self.prev_indicators[i] = Some(positive);
            } else {
                self.prev_indicators[i] = None;
            }
        }
        if let Some(count) = eval.action_count {
            let positive = count >= self.criticals.action;
            let after_positive = self.prev_indicators[n_obj] == Some(true);
            let update = in_warmup
                || match self.config.update {
                    BackgroundUpdate::NegativeClips => !positive && !after_positive,
                    BackgroundUpdate::AllClips => true,
                    BackgroundUpdate::PositiveClips => eval.positive,
                };
            if update {
                let censored = censor(count, w_act, self.action_estimator.estimate());
                self.action_estimator.observe_run(w_act, censored as u64);
                changed = true;
            }
            self.prev_indicators[n_obj] = Some(positive);
        } else {
            self.prev_indicators[n_obj] = None;
        }
        // Re-derive critical values from the moved estimates (Algorithm 3
        // line 9). The memoised table makes this cheap when estimates are
        // stable.
        if changed {
            let w_obj_u = self.geometry.frames_per_clip();
            let w_act_u = self.geometry.shots_per_clip;
            let clamp = |k: u32, w: u32| k.clamp(2, (w - 1).max(2));
            for (i, est) in self.object_estimators.iter().enumerate() {
                self.criticals.objects[i] =
                    clamp(self.object_table.critical_value(est.estimate()), w_obj_u);
            }
            self.criticals.action = clamp(
                self.action_table
                    .critical_value(self.action_estimator.estimate()),
                w_act_u,
            );
        }

        let closed = self.merger.push(eval.clip, eval.positive);
        self.evaluations.push(eval);
        closed
    }

    /// End of stream.
    pub fn finish(self) -> (Vec<ClipInterval>, Vec<ClipEvaluation>) {
        (self.merger.finish(), self.evaluations)
    }

    /// Advance to the next video of a multi-video stream (e.g. a query
    /// set): per-video state — open sequences, the evaluation trace, clip
    /// numbering, the vicinity guard — resets, while the background
    /// estimators and critical values persist: the noise floor of a
    /// detector is a property of the model and the scene distribution, not
    /// of one file, so a set-long stream should not re-learn it per video.
    /// Returns the finished video's sequences and evaluations.
    pub fn next_video(&mut self) -> (Vec<ClipInterval>, Vec<ClipEvaluation>) {
        let merger = std::mem::take(&mut self.merger);
        let evaluations = std::mem::take(&mut self.evaluations);
        for p in &mut self.prev_indicators {
            *p = None;
        }
        (merger.finish(), evaluations)
    }

    /// Convenience: run over a whole stream, charging algorithm time from
    /// the platform clock.
    pub fn run(
        query: ActionQuery,
        stream: &mut VideoStream<'_>,
        config: OnlineConfig,
        p_obj_0: f64,
        p_act_0: f64,
    ) -> OnlineResult {
        Self::run_with_clock(query, stream, config, p_obj_0, p_act_0, &WallClock::new())
    }

    /// [`Svaqd::run`] with an injected [`Clock`] — the only time source the
    /// algorithm reads, so a [`svq_types::ManualClock`] makes the full
    /// result (cost ledger included) byte-deterministic.
    pub fn run_with_clock(
        query: ActionQuery,
        stream: &mut VideoStream<'_>,
        config: OnlineConfig,
        p_obj_0: f64,
        p_act_0: f64,
        clock: &dyn Clock,
    ) -> OnlineResult {
        let mut svaqd = Svaqd::new(query, stream.geometry(), config, p_obj_0, p_act_0);
        let start = clock.now_nanos();
        while let Some(mut view) = stream.next_clip() {
            svaqd.push_clip(&mut view);
        }
        stream
            .ledger_mut()
            .charge_algorithm(Duration::from_nanos(clock.nanos_since(start)));
        let (sequences, evaluations) = svaqd.finish();
        OnlineResult {
            sequences,
            cost: *stream.ledger(),
            evaluations,
        }
    }
}

/// A fed count censored at `max(2·Q, 1)`, `Q` the 0.99 binomial quantile of
/// `w` units at background `p`. The quantile search stops at
/// `m = ⌈count/2⌉`, which is exact:
/// `count.min(max(2·min(Q, m), 1)) == count.min(max(2·Q, 1))`, because
/// `2·m ≥ count` whenever `Q > m`.
pub(crate) fn censor(count: u32, w: u64, p: f64) -> u32 {
    let limit = u64::from(count.div_ceil(2));
    let cap = (2 * svq_scanstats::binomial::quantile_at_most(0.99, w, p, limit)).max(1) as u32;
    count.min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svq_types::{ActionClass, BBox, ClipId, FrameId, Interval, ObjectClass, TrackId, VideoId};
    use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
    use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

    /// 100 clips (5000 frames); the query holds on clips 60..=79.
    fn oracle(suite: ModelSuite, seed: u64) -> DetectionOracle {
        let mut gt = GroundTruth::new(VideoId::new(0), VideoGeometry::default(), 5_000);
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("car"),
            track: TrackId::new(1),
            frames: Interval::new(FrameId::new(3_000), FrameId::new(3_999)),
            visibility: 1.0,
            bbox: BBox::FULL,
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("jumping"),
            frames: Interval::new(FrameId::new(3_000), FrameId::new(3_999)),
            salience: 1.0,
        });
        let confusion = SceneConfusion {
            objects: vec![(ObjectClass::named("car"), 1.0)],
            actions: vec![(ActionClass::named("jumping"), 1.0)],
        };
        DetectionOracle::new(Arc::new(gt), suite, &confusion, seed)
    }

    fn truth_interval() -> Interval<ClipId> {
        Interval::new(ClipId::new(60), ClipId::new(79))
    }

    /// Fraction of truth clips covered by found sequences.
    fn coverage(sequences: &[Interval<ClipId>]) -> f64 {
        let truth = truth_interval();
        let covered: u64 = sequences.iter().map(|s| s.overlap_len(&truth)).sum();
        covered as f64 / truth.len() as f64
    }

    /// Clips claimed outside the truth.
    fn spurious_clips(sequences: &[Interval<ClipId>]) -> u64 {
        let truth = truth_interval();
        sequences
            .iter()
            .map(|s| s.len() - s.overlap_len(&truth))
            .sum()
    }

    fn f1_proxy(sequences: &[Interval<ClipId>]) -> bool {
        // Episode substantially recovered (model-noise fragmentation is
        // expected — it is why the paper's F1 sits at 0.8-0.9, not 1.0)
        // and little is claimed outside it.
        coverage(sequences) >= 0.6 && spurious_clips(sequences) <= 4
    }

    #[test]
    fn recovers_episode_regardless_of_initial_p0() {
        // The Figure 2 property: SVAQD's accuracy is insensitive to p0.
        for &p0 in &[1e-6, 1e-4, 1e-2, 0.3] {
            let oracle = oracle(ModelSuite::accurate(), 5);
            let mut stream = VideoStream::new(&oracle);
            let result = Svaqd::run(
                ActionQuery::named("jumping", &["car"]),
                &mut stream,
                OnlineConfig::default(),
                p0,
                p0,
            );
            assert!(
                f1_proxy(&result.sequences),
                "p0={p0}: sequences {:?} miss the episode",
                result.sequences
            );
        }
    }

    #[test]
    fn adapts_critical_values_to_observed_noise() {
        let oracle = oracle(ModelSuite::accurate(), 7);
        let mut stream = VideoStream::new(&oracle);
        let query = ActionQuery::named("jumping", &["car"]);
        let mut svaqd = Svaqd::new(
            query,
            stream.geometry(),
            OnlineConfig::default(),
            1e-6,
            1e-6,
        );
        let k0 = svaqd.criticals().objects[0];
        while let Some(mut view) = stream.next_clip() {
            svaqd.push_clip(&mut view);
        }
        // The confusable FP rate (~0.2/frame) must have pushed the object
        // critical value well above its near-zero-background initial value.
        let k_end = svaqd.criticals().objects[0];
        assert!(
            k_end > k0 + 3,
            "critical value failed to adapt: {k0} -> {k_end}"
        );
        // And the background estimate reflects the noise floor.
        let p_obj = svaqd.backgrounds()[0];
        assert!((0.01..0.3).contains(&p_obj), "estimated background {p_obj}");
    }

    #[test]
    fn fewer_false_positive_clips_than_svaq_with_bad_p0() {
        let query = ActionQuery::named("jumping", &["car"]);
        let oracle = oracle(ModelSuite::accurate(), 11);

        let mut s1 = VideoStream::new(&oracle);
        let svaq =
            super::super::Svaq::run(query.clone(), &mut s1, OnlineConfig::default(), 1e-6, 1e-6);
        let mut s2 = VideoStream::new(&oracle);
        let svaqd = Svaqd::run(query, &mut s2, OnlineConfig::default(), 1e-6, 1e-6);

        let spurious = |r: &OnlineResult| {
            r.evaluations
                .iter()
                .filter(|e| e.positive && !truth_interval().contains(e.clip))
                .count()
        };
        assert!(
            spurious(&svaqd) < spurious(&svaq),
            "svaqd {} vs svaq {}",
            spurious(&svaqd),
            spurious(&svaq)
        );
        assert!(f1_proxy(&svaqd.sequences));
    }

    #[test]
    fn ideal_models_still_exact() {
        let oracle = oracle(ModelSuite::ideal(), 3);
        let mut stream = VideoStream::new(&oracle);
        let result = Svaqd::run(
            ActionQuery::named("jumping", &["car"]),
            &mut stream,
            OnlineConfig::default(),
            1e-4,
            1e-4,
        );
        assert_eq!(result.sequences, vec![truth_interval()]);
    }

    #[test]
    fn update_policies_differ_in_adaptation() {
        let query = ActionQuery::named("jumping", &["car"]);
        let run_with = |policy| {
            let oracle = oracle(ModelSuite::accurate(), 13);
            let mut stream = VideoStream::new(&oracle);
            Svaqd::run(
                query.clone(),
                &mut stream,
                OnlineConfig::default().with_update(policy),
                1e-4,
                1e-4,
            )
        };
        let neg = run_with(BackgroundUpdate::NegativeClips);
        let all = run_with(BackgroundUpdate::AllClips);
        // Both should substantially recover the episode; AllClips inflates
        // the background during the episode so it may fragment more, but it
        // must stay functional.
        assert!(f1_proxy(&neg.sequences), "neg: {:?}", neg.sequences);
        assert!(
            coverage(&all.sequences) >= 0.4 && spurious_clips(&all.sequences) <= 6,
            "all: {:?}",
            all.sequences
        );
    }

    #[test]
    fn backgrounds_reports_one_entry_per_predicate_plus_action() {
        let q = ActionQuery::named("jumping", &["car", "person"]);
        let svaqd = Svaqd::new(
            q,
            VideoGeometry::default(),
            OnlineConfig::default(),
            0.01,
            0.02,
        );
        let b = svaqd.backgrounds();
        assert_eq!(b.len(), 3);
        assert!((b[0] - 0.01).abs() < 1e-9);
        assert!((b[2] - 0.02).abs() < 1e-9);
    }
}
