//! SVAQD — Algorithm 3, and SVAQ (Algorithm 1) as its frozen special case.
//!
//! SVAQ with dynamic parameter adjustment: each distinct predicate carries
//! an exponential-kernel background estimator (Eq. 6). After a clip is
//! evaluated, the estimators observe the clip's occurrence units (per the
//! configured [`BackgroundUpdate`] policy) and the critical values are
//! re-derived from the updated estimates through the memoised
//! critical-value table. The initial probabilities `p_obj_0` / `p_act_0`
//! only matter until roughly one kernel bandwidth of stream has been
//! observed — the insensitivity Figure 2 demonstrates.
//!
//! One engine runs every online statement: the canonical conjunction, and
//! the footnote 2–4 extensions (multiple actions, `OR`, `leftOf`) as a
//! [`CnfQuery`], all through the same Algorithm 2 evaluation and the same
//! per-predicate state.

use super::config::{BackgroundUpdate, OnlineConfig};
use super::indicator::{unit, Clauses};
use super::merger::SequenceMerger;
use super::ordering::SelectivityOrderer;
use super::trace::EvaluationTrace;
use super::OnlineResult;
use crate::expr::CnfQuery;
use std::time::Duration;
use svq_scanstats::{critical_value, CriticalValueTable, KernelEstimator, ScanConfig};
use svq_types::{ClipInterval, Clock, VideoGeometry};
use svq_vision::stream::ClipAccess;
use svq_vision::{VideoStream, WallClock};

/// One predicate's SVAQD state: its background estimator, the critical
/// value in force, and the vicinity guard.
///
/// Under [`BackgroundUpdate::NegativeClips`], a clip immediately following
/// a predicate-positive clip is excluded from that predicate's background
/// update: such clips sit in the vicinity of genuine events (episode-interior
/// recognition dropouts, episode tails) and would otherwise leak near-signal
/// rates into the noise floor — the standard guard in scan-statistics-based
/// online anomaly detection.
///
/// Two further safeguards keep the estimate↔critical-value feedback loop
/// well-behaved. Critical values are clamped to `[2, w−1]`: a single
/// positive occurrence unit is never a statistically meaningful burst (and
/// `k_crit = 1` would leave the negative-clip diet with only empty clips,
/// stalling adaptation), while `k_crit = w` — demanding *every* occurrence
/// unit positive — makes the clip indicator non-robust to a single
/// recognition dropout, fragmenting genuine episodes; the action window
/// (`w` = shots per clip, 5 by default) is coarse enough that this matters.
/// And every fed count is *censored* ([`censor`]): the background is by
/// definition the event rate outside significant bursts, so occurrence
/// units beyond the noise quantile are replaced by it (rank-truncated
/// estimation). Censoring bounds the damage when genuine signal leaks past
/// the negative-clip gate (e.g. two consecutive recognition dropouts inside
/// an episode defeat the one-clip vicinity guard) — without it a single
/// leak can start a death spiral: signal inflates the background, the
/// critical value rises, more episode clips turn negative and feed more
/// signal, until the whole stream is rejected.
///
/// During the engine-wide warm-up ([`OnlineConfig::warmup_clips`]) every
/// evaluated clip feeds the estimator regardless of the policy. Ingestion's
/// per-class trackers are this same state.
#[derive(Debug, Clone)]
pub(crate) struct PredicateState {
    estimator: KernelEstimator,
    /// Occurrence units per clip (frames or shots).
    window: u32,
    critical: u32,
    /// Whether the previous clip held this predicate.
    after_positive: bool,
}

impl PredicateState {
    /// A dynamic state starting from background `prior`.
    pub(crate) fn new(
        bandwidth: f64,
        prior: f64,
        window: u32,
        table: &mut CriticalValueTable,
    ) -> Self {
        let mut state = Self {
            estimator: KernelEstimator::new(bandwidth, prior),
            window,
            critical: 0,
            after_positive: false,
        };
        state.rederive(table);
        state
    }

    fn rederive(&mut self, table: &mut CriticalValueTable) {
        let k = table.critical_value(self.estimator.estimate());
        self.critical = k.clamp(2, (self.window - 1).max(2));
    }

    /// The critical value in force.
    pub(crate) fn critical(&self) -> u32 {
        self.critical
    }

    /// Observe one clip: `count` is the predicate's positive-unit count
    /// (`None` if evaluation short-circuited before it) and `clip_positive`
    /// the clip's query indicator.
    pub(crate) fn observe(
        &mut self,
        count: Option<u32>,
        clip_positive: bool,
        in_warmup: bool,
        config: &OnlineConfig,
        table: &mut CriticalValueTable,
    ) {
        let Some(count) = count else {
            self.after_positive = false;
            return;
        };
        let positive = count >= self.critical;
        let feed = in_warmup
            || match config.update {
                BackgroundUpdate::NegativeClips => !positive && !self.after_positive,
                BackgroundUpdate::AllClips => true,
                BackgroundUpdate::PositiveClips => clip_positive,
            };
        if feed {
            let w = u64::from(self.window);
            let censored = censor(count, w, self.estimator.estimate());
            self.estimator.observe_run(w, u64::from(censored));
            self.rederive(table);
        }
        self.after_positive = positive;
    }
}

/// Algorithm 3: streaming action-query processing with dynamic background
/// estimation, over any [`CnfQuery`].
#[derive(Debug)]
pub struct Svaqd {
    clauses: Clauses,
    /// One state per distinct predicate, matching `clauses.predicates`.
    states: Vec<PredicateState>,
    config: OnlineConfig,
    /// Frame and shot critical-value tables; `None` for Algorithm 1, whose
    /// critical values never move.
    tables: Option<[CriticalValueTable; 2]>,
    merger: SequenceMerger,
    trace: EvaluationTrace,
    clips_seen: u32,
    /// Learned frame-clause evaluation order (footnote 5), active when
    /// [`OnlineConfig::adaptive_order`] is set.
    orderer: SelectivityOrderer,
}

impl Svaqd {
    /// Initialise with background priors `p_obj_0` (shared by every
    /// frame-level predicate: objects and relationships) and `p_act_0`
    /// (every action).
    pub fn new(
        query: impl Into<CnfQuery>,
        geometry: VideoGeometry,
        config: OnlineConfig,
        p_obj_0: f64,
        p_act_0: f64,
    ) -> Self {
        Self::build(query.into(), geometry, config, [p_obj_0, p_act_0], true)
    }

    /// Algorithm 1 (SVAQ): the same engine with critical values derived
    /// once by Eq. 5 from `p_obj` / `p_act`, unclamped, and no background
    /// updates. Its accuracy therefore depends on how well `p0` matches the
    /// stream's true noise floor — the sensitivity Figure 2 demonstrates
    /// and [`Svaqd::new`] removes.
    pub fn svaq(
        query: impl Into<CnfQuery>,
        geometry: VideoGeometry,
        config: OnlineConfig,
        p_obj: f64,
        p_act: f64,
    ) -> Self {
        Self::build(query.into(), geometry, config, [p_obj, p_act], false)
    }

    fn build(
        query: CnfQuery,
        geometry: VideoGeometry,
        config: OnlineConfig,
        priors: [f64; 2],
        dynamic: bool,
    ) -> Self {
        let clauses = Clauses::new(&query);
        let windows = [geometry.frames_per_clip(), geometry.shots_per_clip];
        let bandwidths = [config.bandwidth_frames, config.bandwidth_shots];
        let mut tables = windows.map(|w| {
            CriticalValueTable::new(ScanConfig::new(w, config.horizon_windows, config.alpha))
        });
        let states = clauses
            .predicates
            .iter()
            .map(|p| {
                let u = unit(p);
                let mut state =
                    PredicateState::new(bandwidths[u], priors[u], windows[u], &mut tables[u]);
                if !dynamic {
                    state.critical =
                        critical_value(priors[u], windows[u], config.horizon_windows, config.alpha);
                }
                state
            })
            .collect();
        Self {
            orderer: SelectivityOrderer::new(clauses.frame.len()),
            trace: EvaluationTrace::new(clauses.predicates.len()),
            clauses,
            states,
            config,
            tables: dynamic.then_some(tables),
            merger: SequenceMerger::new(),
            clips_seen: 0,
        }
    }

    /// The critical values currently in force, per distinct predicate in
    /// first-appearance order ([`CnfQuery::predicates`]; a canonical
    /// query's objects in query order, then the action) — the order of
    /// [`Svaqd::backgrounds`] and of every
    /// [`ClipEvaluation`](super::ClipEvaluation).
    pub fn criticals(&self) -> Vec<u32> {
        self.states.iter().map(PredicateState::critical).collect()
    }

    /// Current background estimates, per predicate.
    pub fn backgrounds(&self) -> Vec<f64> {
        self.states.iter().map(|s| s.estimator.estimate()).collect()
    }

    /// Process the next clip; returns a result sequence if this clip closed
    /// one (results stream out with bounded delay).
    pub fn push_clip<C: ClipAccess>(&mut self, view: &mut C) -> Option<ClipInterval> {
        let orderer = self.config.adaptive_order.then_some(&mut self.orderer);
        // Algorithm 2 writes its counts straight into the clip's trace row,
        // against the critical values in force.
        let eval = self.trace.record(
            view.clip(),
            self.states.iter().map(PredicateState::critical),
            |criticals, counts| {
                self.clauses
                    .indicate(view, criticals, &self.config, orderer, counts)
            },
        );
        // Update background estimators with this clip's observations and
        // re-derive their critical values (Algorithm 3 lines 7-9). The
        // memoised table makes this cheap when estimates are stable.
        if let Some(tables) = &mut self.tables {
            let in_warmup = self.clips_seen < self.config.warmup_clips;
            for ((state, &count), p) in self
                .states
                .iter_mut()
                .zip(eval.counts)
                .zip(&self.clauses.predicates)
            {
                let table = &mut tables[unit(p)];
                state.observe(count, eval.positive, in_warmup, &self.config, table);
            }
        }
        self.clips_seen += 1;
        self.merger.push(eval.clip, eval.positive)
    }

    /// End of stream: all result sequences plus the evaluation trace.
    pub fn finish(self) -> (Vec<ClipInterval>, EvaluationTrace) {
        (self.merger.finish(), self.trace)
    }

    /// Advance to the next video of a multi-video stream (e.g. a query
    /// set): per-video state — open sequences, the evaluation trace, clip
    /// numbering, the vicinity guard — resets, while the background
    /// estimators and critical values persist: the noise floor of a
    /// detector is a property of the model and the scene distribution, not
    /// of one file, so a set-long stream should not re-learn it per video.
    /// Returns the finished video's sequences and evaluations.
    pub fn next_video(&mut self) -> (Vec<ClipInterval>, EvaluationTrace) {
        let merger = std::mem::take(&mut self.merger);
        let fresh = EvaluationTrace::new(self.states.len());
        let trace = std::mem::replace(&mut self.trace, fresh);
        for state in &mut self.states {
            state.after_positive = false;
        }
        (merger.finish(), trace)
    }

    /// Run this engine over the rest of `stream`, charging algorithm time
    /// from `clock` — the only time source the algorithm reads, so a
    /// [`svq_types::ManualClock`] makes the full result (cost ledger
    /// included) byte-deterministic.
    pub fn run_over(mut self, stream: &mut VideoStream<'_>, clock: &dyn Clock) -> OnlineResult {
        let start = clock.now_nanos();
        while let Some(mut view) = stream.next_clip() {
            self.push_clip(&mut view);
        }
        stream
            .ledger_mut()
            .charge_algorithm(Duration::from_nanos(clock.nanos_since(start)));
        let (sequences, evaluations) = self.finish();
        OnlineResult {
            sequences,
            cost: *stream.ledger(),
            evaluations,
        }
    }

    /// Convenience: run SVAQD over a whole stream, charging algorithm time
    /// from the platform clock.
    pub fn run(
        query: impl Into<CnfQuery>,
        stream: &mut VideoStream<'_>,
        config: OnlineConfig,
        p_obj_0: f64,
        p_act_0: f64,
    ) -> OnlineResult {
        Self::new(query, stream.geometry(), config, p_obj_0, p_act_0)
            .run_over(stream, &WallClock::new())
    }
}

/// A fed count censored at `max(2·Q, 1)`, `Q` the 0.99 binomial quantile of
/// `w` units at background `p`. A count of 0 or 1 is returned as it is,
/// before any logarithm: the cap is never below 1. Otherwise the quantile
/// search stops at `m = ⌈count/2⌉`, which is exact:
/// `count.min(max(2·min(Q, m), 1)) == count.min(max(2·Q, 1))`, because
/// `2·m ≥ count` whenever `Q > m`. Fed clips are mostly quiet: on the
/// long-stream golden's runs over svqbench's corpus, ingest's per-class
/// trackers included, 95 % of fed counts are 0 or 1 and take the first
/// branch.
fn censor(count: u32, w: u64, p: f64) -> u32 {
    if count <= 1 {
        return count;
    }
    let limit = u64::from(count.div_ceil(2));
    let cap = (2 * svq_scanstats::binomial::quantile_at_most(0.99, w, p, limit)).max(1) as u32;
    count.min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use svq_types::{
        ActionClass, ActionQuery, BBox, ClipId, FrameId, Interval, ManualClock, ObjectClass,
        Predicate, TrackId, VideoId,
    };
    use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
    use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

    /// `frames` frames with car and jumping together on `[from, to]`, both
    /// confusable at the default rate.
    fn oracle(suite: ModelSuite, seed: u64, frames: u64, from: u64, to: u64) -> DetectionOracle {
        let mut gt = GroundTruth::new(VideoId::new(0), VideoGeometry::default(), frames);
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("car"),
            track: TrackId::new(1),
            frames: Interval::new(FrameId::new(from), FrameId::new(to)),
            visibility: 1.0,
            bbox: BBox::FULL,
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("jumping"),
            frames: Interval::new(FrameId::new(from), FrameId::new(to)),
            salience: 1.0,
        });
        let confusion = SceneConfusion {
            objects: vec![(ObjectClass::named("car"), 1.0)],
            actions: vec![(ActionClass::named("jumping"), 1.0)],
        };
        DetectionOracle::new(Arc::new(gt), suite, &confusion, seed)
    }

    /// 100 clips (5000 frames); the query holds on clips 60..=79.
    fn long(suite: ModelSuite, seed: u64) -> DetectionOracle {
        oracle(suite, seed, 5_000, 3_000, 3_999)
    }

    /// 20 clips; car & jumping together on clips 5..=9.
    fn short(suite: ModelSuite, seed: u64) -> DetectionOracle {
        oracle(suite, seed, 1_000, 250, 499)
    }

    fn query() -> ActionQuery {
        ActionQuery::named("jumping", &["car"])
    }

    fn iv(s: u64, e: u64) -> ClipInterval {
        Interval::new(ClipId::new(s), ClipId::new(e))
    }

    fn svaq_run(oracle: &DetectionOracle, p0: f64) -> OnlineResult {
        let mut stream = VideoStream::new(oracle);
        Svaqd::svaq(query(), stream.geometry(), OnlineConfig::default(), p0, p0)
            .run_over(&mut stream, &WallClock::new())
    }

    fn svaqd_run(oracle: &DetectionOracle, config: OnlineConfig, p0: f64) -> OnlineResult {
        Svaqd::run(query(), &mut VideoStream::new(oracle), config, p0, p0)
    }

    /// Fraction of truth clips (60..=79) covered by found sequences.
    fn coverage(sequences: &[ClipInterval]) -> f64 {
        let covered: u64 = sequences.iter().map(|s| s.overlap_len(&iv(60, 79))).sum();
        covered as f64 / 20.0
    }

    /// Clips claimed outside the truth.
    fn spurious_clips(sequences: &[ClipInterval]) -> u64 {
        sequences
            .iter()
            .map(|s| s.len() - s.overlap_len(&iv(60, 79)))
            .sum()
    }

    fn f1_proxy(sequences: &[ClipInterval]) -> bool {
        // Episode substantially recovered (model-noise fragmentation is
        // expected — it is why the paper's F1 sits at 0.8-0.9, not 1.0)
        // and little is claimed outside it.
        coverage(sequences) >= 0.6 && spurious_clips(sequences) <= 4
    }

    #[test]
    fn recovers_episode_regardless_of_initial_p0() {
        // The Figure 2 property: SVAQD's accuracy is insensitive to p0.
        for &p0 in &[1e-6, 1e-4, 1e-2, 0.3] {
            let result = svaqd_run(
                &long(ModelSuite::accurate(), 5),
                OnlineConfig::default(),
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
        let oracle = long(ModelSuite::accurate(), 7);
        let mut stream = VideoStream::new(&oracle);
        let mut svaqd = Svaqd::new(
            query(),
            stream.geometry(),
            OnlineConfig::default(),
            1e-6,
            1e-6,
        );
        let k0 = svaqd.criticals()[0];
        while let Some(mut view) = stream.next_clip() {
            svaqd.push_clip(&mut view);
        }
        // The confusable FP rate (~0.2/frame) must have pushed the object
        // critical value well above its near-zero-background initial value.
        let k_end = svaqd.criticals()[0];
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
        let oracle = long(ModelSuite::accurate(), 11);
        let svaq = svaq_run(&oracle, 1e-6);
        let svaqd = svaqd_run(&oracle, OnlineConfig::default(), 1e-6);
        let spurious = |r: &OnlineResult| {
            r.evaluations
                .iter()
                .filter(|e| e.positive && !iv(60, 79).contains(e.clip))
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
        let result = svaqd_run(&long(ModelSuite::ideal(), 3), OnlineConfig::default(), 1e-4);
        assert_eq!(result.sequences, vec![iv(60, 79)]);
        let result = svaq_run(&short(ModelSuite::ideal(), 21), 1e-4);
        assert_eq!(result.sequences, vec![iv(5, 9)]);
        assert_eq!(result.positive_clips(), 5);
    }

    #[test]
    fn update_policies_differ_in_adaptation() {
        let run_with = |policy| {
            let config = OnlineConfig::default().with_update(policy);
            svaqd_run(&long(ModelSuite::accurate(), 13), config, 1e-4)
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
    fn one_state_per_distinct_predicate() {
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

        // A repeated object is one predicate.
        let q = ActionQuery::named("jumping", &["car", "car"]);
        let svaqd = Svaqd::new(
            q,
            VideoGeometry::default(),
            OnlineConfig::default(),
            0.01,
            0.02,
        );
        assert_eq!(svaqd.criticals().len(), 2);
    }

    #[test]
    fn svaq_realistic_models_find_the_episode_with_reasonable_p0() {
        let result = svaq_run(&short(ModelSuite::accurate(), 21), 0.05);
        // The episode (clips 5..=9) must be substantially covered, allowing
        // model-noise fragmentation.
        let covered: u64 = result
            .sequences
            .iter()
            .map(|s| s.overlap_len(&iv(5, 9)))
            .sum();
        assert!(
            covered >= 3,
            "sequences {:?} miss the episode",
            result.sequences
        );
    }

    #[test]
    fn svaq_too_low_p0_floods_with_false_positives() {
        // With p0 = 1e-6 the object critical value is ~2 frames; the bursty
        // confusable noise (FPR ~0.2) then satisfies predicates everywhere.
        // Seed chosen so the noise realization produces clearly-extra
        // positives rather than sitting at the 5 genuine clips.
        let result = svaq_run(&short(ModelSuite::accurate(), 4), 1e-6);
        assert!(
            result.positive_clips() > 5,
            "expected noise-driven positives, got {}",
            result.positive_clips()
        );
    }

    #[test]
    fn streaming_emission_matches_batch_result() {
        let oracle = short(ModelSuite::accurate(), 21);
        let batch = svaq_run(&oracle, 0.05);
        let mut stream = VideoStream::new(&oracle);
        let mut svaq = Svaqd::svaq(
            query(),
            stream.geometry(),
            OnlineConfig::default(),
            0.05,
            0.05,
        );
        let mut streamed = Vec::new();
        while let Some(mut view) = stream.next_clip() {
            if let Some(seq) = svaq.push_clip(&mut view) {
                streamed.push(seq);
            }
        }
        let (all, _) = svaq.finish();
        assert_eq!(all, batch.sequences);
        // Every streamed (early-emitted) sequence is a prefix of the final.
        assert_eq!(&all[..streamed.len()], &streamed[..]);
    }

    #[test]
    fn manual_clock_makes_algorithm_cost_deterministic() {
        let oracle = short(ModelSuite::accurate(), 21);
        let run = |step_ms: u64| {
            let mut stream = VideoStream::new(&oracle);
            let clock = ManualClock::stepping(Duration::from_millis(step_ms));
            Svaqd::svaq(
                query(),
                stream.geometry(),
                OnlineConfig::default(),
                0.05,
                0.05,
            )
            .run_over(&mut stream, &clock)
        };
        // The clock is read exactly twice (start and elapsed), so the
        // charged algorithm time is exactly one step — reproducibly.
        let (a, b) = (run(2), run(2));
        assert!(
            (a.cost.algorithm_ms - 2.0).abs() < 1e-9,
            "{}",
            a.cost.algorithm_ms
        );
        assert_eq!(a.cost.algorithm_ms.to_bits(), b.cost.algorithm_ms.to_bits());
        assert_eq!(a.sequences, b.sequences);
    }

    #[test]
    fn svaq_higher_p0_raises_critical_values() {
        let geometry = VideoGeometry::default();
        let config = OnlineConfig::default();
        let low = Svaqd::svaq(query(), geometry, config, 1e-5, 1e-5).criticals();
        let high = Svaqd::svaq(query(), geometry, config, 0.2, 0.2).criticals();
        assert!(high[0] > low[0]);
        assert!(high[1] >= low[1]);
    }

    /// `censor`'s shortcuts (a count of 0 or 1 returned before any
    /// logarithm, the quantile search capped at `⌈count/2⌉`) change no
    /// fed count: every count of a clip, both windows, `p` from 1e-12 to 1
    /// on a log grid, against the uncapped search and the full quantile.
    #[test]
    fn censor_equals_the_full_quantile_path() {
        use svq_scanstats::binomial::{quantile, quantile_at_most};
        for w in [5u64, 50] {
            for i in 0..=96 {
                let p = 10f64.powf(-f64::from(i) / 8.0);
                let full = quantile(0.99, w, p);
                for count in 0..=w as u32 {
                    let searched = quantile_at_most(0.99, w, p, u64::from(count.div_ceil(2)));
                    let want = count.min((2 * searched).max(1) as u32);
                    assert_eq!(censor(count, w, p), want, "count {count} w {w} p {p:e}");
                    assert_eq!(want, count.min((2 * full).max(1) as u32));
                }
            }
        }
    }

    /// 4 clips (200 frames), ideal models: car on clips 1-2, jumping on
    /// clip 2 only.
    fn tiny() -> DetectionOracle {
        let mut gt = GroundTruth::new(VideoId::new(0), VideoGeometry::default(), 200);
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("car"),
            track: TrackId::new(1),
            frames: Interval::new(FrameId::new(50), FrameId::new(149)),
            visibility: 1.0,
            bbox: BBox::FULL,
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("jumping"),
            frames: Interval::new(FrameId::new(100), FrameId::new(149)),
            salience: 1.0,
        });
        DetectionOracle::new(
            Arc::new(gt),
            ModelSuite::ideal(),
            &SceneConfusion::default(),
            0,
        )
    }

    fn tiny_run(query: impl Into<CnfQuery>) -> OnlineResult {
        let oracle = tiny();
        let mut stream = VideoStream::new(&oracle);
        let config = OnlineConfig::default();
        let clock = ManualClock::stepping(Duration::from_millis(1));
        Svaqd::svaq(query, stream.geometry(), config, 1e-4, 1e-4).run_over(&mut stream, &clock)
    }

    #[test]
    fn indicator_conjunction_short_circuits_action_inference() {
        let result = tiny_run(query());
        let e: Vec<_> = result.evaluations.iter().collect();
        assert_eq!(e.len(), 4);
        // Clip 0: no car — negative, action never evaluated.
        assert_eq!((e[0].positive, e[0].counts), (false, &[Some(0), None][..]));
        // Clip 1: car but no action.
        assert_eq!(
            (e[1].positive, e[1].counts),
            (false, &[Some(50), Some(0)][..])
        );
        // Clip 2: car + jumping.
        assert_eq!(
            (e[2].positive, e[2].counts),
            (true, &[Some(50), Some(5)][..])
        );
        assert!(!e[3].positive);
        // Object inference on all 4 clips; action only on the two clips
        // whose object predicate held.
        assert_eq!(
            (result.cost.object_frames, result.cost.action_shots),
            (200, 10)
        );
    }

    #[test]
    fn action_only_query_skips_object_detection() {
        let result = tiny_run(ActionQuery::named("jumping", &[]));
        assert_eq!(result.positive_clips(), 1);
        assert_eq!(
            (result.cost.object_frames, result.cost.action_shots),
            (0, 20)
        );
    }

    #[test]
    fn a_clause_held_by_its_frame_predicate_skips_the_recognizer() {
        let car = Predicate::Object(ObjectClass::named("car"));
        let kissing = Predicate::Action(ActionClass::named("kissing"));
        // (kissing OR car): car holds on clips 1-2, so only clips 0 and 3
        // run the recognizer, and kissing never holds.
        let result = tiny_run(CnfQuery::new(vec![vec![kissing, car]]));
        assert_eq!(result.sequences, vec![iv(1, 2)]);
        assert_eq!(
            (result.cost.object_frames, result.cost.action_shots),
            (200, 10)
        );
        assert_eq!(result.evaluations.get(1).unwrap().counts, [None, Some(50)]);
    }

    #[test]
    fn repeated_predicates_and_clauses_change_nothing() {
        let car = Predicate::Object(ObjectClass::named("car"));
        let jumping = Predicate::Action(ActionClass::named("jumping"));
        let plain = tiny_run(query());
        for clauses in [
            vec![vec![jumping], vec![car, car]],
            vec![vec![car], vec![jumping], vec![car]],
        ] {
            let spelled = tiny_run(CnfQuery::new(clauses));
            assert_eq!(
                (spelled.sequences, spelled.cost),
                (plain.sequences.clone(), plain.cost)
            );
        }
    }
}
