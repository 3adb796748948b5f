//! The simulated vision models.
//!
//! [`DetectionOracle`] materialises, for one video and one [`ModelSuite`],
//! every model output the paper's pipeline would produce: per-frame tracked
//! object detections and per-shot action scores. Outcomes are a
//! deterministic function of `(ground truth, suite, seed)` — independent of
//! *which* algorithm later reads them and in what order, exactly as a real
//! video's pixels are. Inference *cost* is charged separately at access
//! time (see [`crate::stream`]), so predicate short-circuiting saves
//! simulated inference without perturbing outcomes.
//!
//! The oracle also owns Algorithm 2's occurrence counts: how many of a
//! clip's frames hold an object class at `score ≥ T_obj`, and how many of
//! its shots hold an action class at `score ≥ T_act`. The definition is a
//! row scan ([`count_object_frames`], [`count_action_shots`]); the oracle
//! memoises it per class, for the first threshold asked, in one
//! [`OnceLock`] slot per vocabulary class — see
//! [`DetectionOracle::object_count`].
//!
//! Error structure (see [`crate::noise`]): misses and false fires are bursty
//! two-state Markov processes; false fires on scene-confusable classes run
//! at the profile's confusable rate (optionally scaled per class by the
//! scenario), all other classes at a low base rate; the tracker occasionally
//! switches identities.

use crate::noise::BurstProcess;
use crate::profiles::{
    ActionRecognizerProfile, ObjectDetectorProfile, TrackerProfile, CENTER_TRACK, I3D,
    IDEAL_DETECTOR, IDEAL_RECOGNIZER, IDEAL_TRACKER, MASK_RCNN, YOLOV3,
};
use crate::truth::GroundTruth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use svq_types::{
    ActionClass, ActionScore, BBox, ClipId, Detection, FrameId, ObjectClass, ShotId, TrackId,
    TrackedDetection, Vocabulary,
};

/// Marker trait for simulated object detectors (implemented by the oracle's
/// read view); exists so downstream crates can be generic over detector
/// sources if they bring their own.
pub trait ObjectDetector {
    /// Detections on one frame (already tracked).
    fn detect(&self, frame: FrameId) -> &[TrackedDetection];
    /// Simulated inference cost per frame, milliseconds.
    fn ms_per_frame(&self) -> f64;
}

/// Marker trait for simulated action recognizers.
pub trait ActionRecognizer {
    /// Scores of all predicted action categories on one shot.
    fn recognize(&self, shot: ShotId) -> &[ActionScore];
    /// Simulated inference cost per shot, milliseconds.
    fn ms_per_shot(&self) -> f64;
}

/// A bundle of model profiles: detector + recognizer + tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSuite {
    pub detector: ObjectDetectorProfile,
    pub recognizer: ActionRecognizerProfile,
    pub tracker: TrackerProfile,
}

impl ModelSuite {
    /// Mask R-CNN + I3D + CenterTrack — the paper's accurate configuration.
    pub fn accurate() -> Self {
        Self {
            detector: MASK_RCNN,
            recognizer: I3D,
            tracker: CENTER_TRACK,
        }
    }

    /// YOLOv3 + I3D + CenterTrack — the faster, noisier configuration.
    pub fn fast() -> Self {
        Self {
            detector: YOLOV3,
            recognizer: I3D,
            tracker: CENTER_TRACK,
        }
    }

    /// Ground-truth models — the paper's Ideal Model control (Table 4).
    pub fn ideal() -> Self {
        Self {
            detector: IDEAL_DETECTOR,
            recognizer: IDEAL_RECOGNIZER,
            tracker: IDEAL_TRACKER,
        }
    }

    /// A human-readable name, e.g. `"MaskRCNN+I3D"`.
    pub fn name(&self) -> String {
        format!("{}+{}", self.detector.name, self.recognizer.name)
    }
}

/// Scene-level confusability: which classes the scene tends to fool the
/// models into firing on, with a per-class rate multiplier applied to the
/// profile's confusable FP rate.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SceneConfusion {
    pub objects: Vec<(ObjectClass, f64)>,
    pub actions: Vec<(ActionClass, f64)>,
}

/// Compressed sparse row storage: per-row slices over one backing vector.
#[derive(Debug, Clone)]
struct Csr<T> {
    items: Vec<T>,
    offsets: Vec<u32>,
}

impl<T> Csr<T> {
    fn builder(rows_hint: usize) -> CsrBuilder<T> {
        CsrBuilder {
            items: Vec::new(),
            offsets: {
                let mut v = Vec::with_capacity(rows_hint + 1);
                v.push(0);
                v
            },
        }
    }

    fn row(&self, i: usize) -> &[T] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.items[lo..hi]
    }

    fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Rows `range`, borrowed in place.
    fn rows_in(&self, range: std::ops::Range<u64>) -> Rows<'_, T> {
        Rows {
            items: &self.items,
            offsets: &self.offsets[range.start as usize..=range.end as usize],
        }
    }
}

/// A run of consecutive oracle rows (one per frame or shot), borrowed
/// without copying: iterates the rows in order as slices. `Copy`, so a
/// consumer can walk the same clip's rows once per predicate.
pub struct Rows<'a, T> {
    items: &'a [T],
    /// `offsets[i]..offsets[i + 1]` bounds row `i` within `items`.
    offsets: &'a [u32],
}

impl<T> Clone for Rows<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T> Copy for Rows<'_, T> {}

impl<'a, T> Iterator for Rows<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<&'a [T]> {
        match *self.offsets {
            [lo, hi, ..] => {
                self.offsets = &self.offsets[1..];
                Some(&self.items[lo as usize..hi as usize])
            }
            _ => None,
        }
    }
}

struct CsrBuilder<T> {
    items: Vec<T>,
    offsets: Vec<u32>,
}

impl<T> CsrBuilder<T> {
    fn push_row(&mut self, row: impl IntoIterator<Item = T>) {
        self.items.extend(row);
        self.offsets.push(self.items.len() as u32);
    }

    fn finish(self) -> Csr<T> {
        Csr {
            items: self.items,
            offsets: self.offsets,
        }
    }
}

/// Algorithm 2's object occurrence count over a run of frames: the frames
/// holding `class` at `score ≥ t_obj` (the `𝟙_{o_i}^{(v)}` of Eq. 1). The
/// definition every memoised count must equal.
pub fn count_object_frames(
    frames: Rows<'_, TrackedDetection>,
    class: ObjectClass,
    t_obj: f64,
) -> u32 {
    frames
        .filter(|detections| {
            detections
                .iter()
                .any(|d| d.detection.class == class && d.detection.score >= t_obj)
        })
        .count() as u32
}

/// Algorithm 2's action occurrence count over a run of shots: the shots
/// holding `class` at `score ≥ t_act` (Eq. 2).
pub fn count_action_shots(shots: Rows<'_, ActionScore>, class: ActionClass, t_act: f64) -> u32 {
    shots
        .filter(|actions| actions.iter().any(|a| a.class == class && a.score >= t_act))
        .count() as u32
}

/// One class's occurrence count for every clip of the video, at one
/// threshold.
struct OccurrenceCounts {
    /// `f64::to_bits` of the threshold the counts were taken at.
    threshold: u64,
    per_clip: PerClip,
}

/// Per-clip counts, one byte each when a clip has at most 255 units.
enum PerClip {
    Narrow(Box<[u8]>),
    Wide(Box<[u32]>),
}

impl OccurrenceCounts {
    fn build(threshold: f64, units_per_clip: u32, counts: impl Iterator<Item = u32>) -> Self {
        let per_clip = if units_per_clip <= u32::from(u8::MAX) {
            PerClip::Narrow(counts.map(|c| c as u8).collect())
        } else {
            PerClip::Wide(counts.collect())
        };
        Self {
            threshold: threshold.to_bits(),
            per_clip,
        }
    }

    /// The count of `clip`, if it was taken at `threshold`.
    fn get(&self, clip: ClipId, threshold: f64) -> Option<u32> {
        if self.threshold != threshold.to_bits() {
            return None;
        }
        let i = clip.index();
        match &self.per_clip {
            PerClip::Narrow(c) => c.get(i).map(|&n| u32::from(n)),
            PerClip::Wide(c) => c.get(i).copied(),
        }
    }
}

/// One lazily built [`OccurrenceCounts`] slot per vocabulary class.
fn occurrence_slots<C: Vocabulary>() -> Box<[OnceLock<OccurrenceCounts>]> {
    (0..C::cardinality()).map(|_| OnceLock::new()).collect()
}

/// All model outputs for one `(video, suite, seed)` triple.
///
/// Construction simulates the full inference pass; accessors are cheap
/// slices. Use [`crate::stream::VideoStream`] to consume it clip-by-clip
/// with cost accounting, or index it directly during ingestion.
pub struct DetectionOracle {
    truth: Arc<GroundTruth>,
    suite: ModelSuite,
    frames: Csr<TrackedDetection>,
    shots: Csr<ActionScore>,
    /// Per object class: positive frames per clip, built on first ask.
    object_counts: Box<[OnceLock<OccurrenceCounts>]>,
    /// Per action class: positive shots per clip, built on first ask.
    action_counts: Box<[OnceLock<OccurrenceCounts>]>,
}

impl DetectionOracle {
    /// Simulate the suite over the whole video.
    pub fn new(
        truth: Arc<GroundTruth>,
        suite: ModelSuite,
        confusion: &SceneConfusion,
        seed: u64,
    ) -> Self {
        let mut rng =
            StdRng::seed_from_u64(seed ^ truth.video.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let frames = Self::simulate_objects(&truth, &suite, confusion, &mut rng);
        let shots = Self::simulate_actions(&truth, &suite, confusion, &mut rng);
        Self {
            truth,
            suite,
            frames,
            shots,
            object_counts: occurrence_slots::<ObjectClass>(),
            action_counts: occurrence_slots::<ActionClass>(),
        }
    }

    fn simulate_objects(
        truth: &GroundTruth,
        suite: &ModelSuite,
        confusion: &SceneConfusion,
        rng: &mut StdRng,
    ) -> Csr<TrackedDetection> {
        let det = &suite.detector;
        let n_frames = truth.total_frames as usize;
        let mut builder = Csr::builder(n_frames);

        // Per-class false-positive processes. Confusable classes get bursty
        // processes at the (scaled) confusable rate; every other class fires
        // i.i.d. at the base rate.
        let confusable: HashMap<ObjectClass, BurstProcess> = confusion
            .objects
            .iter()
            .map(|&(class, mult)| {
                let rate = (det.fp_rate_confusable * mult).min(0.95);
                (class, BurstProcess::with_rate(rate, det.fp_burst))
            })
            .collect();
        let mut fp_procs: Vec<(ObjectClass, BurstProcess)> = confusable.into_iter().collect();
        fp_procs.sort_by_key(|(c, _)| *c);

        // Per-track miss processes and tracker identity state.
        let mut miss: HashMap<TrackId, BurstProcess> = truth
            .tracks
            .iter()
            .map(|t| {
                (
                    t.track,
                    BurstProcess::with_rate(det.miss_rate, det.miss_burst),
                )
            })
            .collect();
        let mut assigned: HashMap<TrackId, TrackId> = HashMap::new();
        // Synthetic ids for tracker switches and phantom (FP) tracks live
        // far above ground-truth ids.
        let mut next_synthetic: u64 = 1 << 32;
        // Current phantom track per confusable class (one per burst).
        let mut phantom: HashMap<ObjectClass, TrackId> = HashMap::new();
        let mut phantom_active: HashMap<ObjectClass, bool> = HashMap::new();

        // Sort tracks by start frame for an active-set sweep.
        let mut order: Vec<usize> = (0..truth.tracks.len()).collect();
        order.sort_by_key(|&i| truth.tracks[i].frames.start);
        let mut next_track = 0usize;
        let mut active: Vec<usize> = Vec::new();

        let base_classes: Vec<ObjectClass> = if det.fp_rate_base > 0.0 {
            ObjectClass::all()
                .filter(|c| !confusion.objects.iter().any(|(cc, _)| cc == c))
                .collect()
        } else {
            Vec::new()
        };

        let mut row: Vec<TrackedDetection> = Vec::new();
        for f in 0..truth.total_frames {
            row.clear();
            let frame = FrameId::new(f);
            // Maintain the active track set.
            while next_track < order.len() && truth.tracks[order[next_track]].frames.start <= frame
            {
                active.push(order[next_track]);
                next_track += 1;
            }
            active.retain(|&i| truth.tracks[i].frames.end >= frame);

            // True detections.
            for &i in &active {
                let track = &truth.tracks[i];
                let in_miss = miss
                    .get_mut(&track.track)
                    .map(|m| m.step(rng))
                    .unwrap_or(false);
                let p = (det.tpr * (0.85 + 0.15 * track.visibility)).min(1.0);
                if !in_miss && p > 0.0 && rng.gen_bool(p) {
                    // Tracker identity, with occasional switches.
                    let id = assigned.entry(track.track).or_insert(track.track);
                    if suite.tracker.id_switch_rate > 0.0
                        && rng.gen_bool(suite.tracker.id_switch_rate)
                    {
                        *id = TrackId::new(next_synthetic);
                        next_synthetic += 1;
                    }
                    let jitter = 0.01 * (rng.gen::<f32>() - 0.5);
                    row.push(TrackedDetection {
                        detection: Detection {
                            class: track.class,
                            score: det.scores.sample_tp(track.visibility, rng),
                            bbox: BBox::new(
                                (track.bbox.x0 + jitter).clamp(0.0, 1.0),
                                (track.bbox.y0 + jitter).clamp(0.0, 1.0),
                                (track.bbox.x1 + jitter).clamp(0.0, 1.0),
                                (track.bbox.y1 + jitter).clamp(0.0, 1.0),
                            ),
                        },
                        track: *id,
                    });
                }
            }

            // Bursty false positives on confusable classes.
            for (class, proc_) in fp_procs.iter_mut() {
                let was_active = phantom_active.get(class).copied().unwrap_or(false);
                if proc_.step(rng) {
                    if !was_active {
                        phantom.insert(*class, TrackId::new(next_synthetic));
                        next_synthetic += 1;
                        phantom_active.insert(*class, true);
                    }
                    row.push(TrackedDetection {
                        detection: Detection {
                            class: *class,
                            score: det.scores.sample_fp(rng),
                            bbox: BBox::new(0.4, 0.4, 0.6, 0.6),
                        },
                        track: phantom[class],
                    });
                } else if was_active {
                    phantom_active.insert(*class, false);
                }
            }

            // Low-rate i.i.d. false positives everywhere else.
            if det.fp_rate_base > 0.0 {
                for &class in &base_classes {
                    if rng.gen_bool(det.fp_rate_base) {
                        row.push(TrackedDetection {
                            detection: Detection {
                                class,
                                score: det.scores.sample_fp(rng),
                                bbox: BBox::new(0.45, 0.45, 0.55, 0.55),
                            },
                            track: TrackId::new(next_synthetic),
                        });
                        next_synthetic += 1;
                    }
                }
            }

            builder.push_row(row.drain(..));
        }
        builder.finish()
    }

    fn simulate_actions(
        truth: &GroundTruth,
        suite: &ModelSuite,
        confusion: &SceneConfusion,
        rng: &mut StdRng,
    ) -> Csr<ActionScore> {
        let rec = &suite.recognizer;
        let n_shots = truth.geometry.shot_count(truth.total_frames) as usize;
        let mut builder = Csr::builder(n_shots);

        let mut fp_procs: Vec<(ActionClass, BurstProcess)> = confusion
            .actions
            .iter()
            .map(|&(class, mult)| {
                let rate = (rec.fp_rate_confusable * mult).min(0.95);
                (class, BurstProcess::with_rate(rate, rec.fp_burst))
            })
            .collect();
        fp_procs.sort_by_key(|(c, _)| *c);

        // Dropout processes per action class present in the truth.
        let mut miss: HashMap<ActionClass, BurstProcess> = truth
            .actions
            .iter()
            .map(|a| {
                (
                    a.class,
                    BurstProcess::with_rate(rec.miss_rate, rec.miss_burst),
                )
            })
            .collect();

        let base_classes: Vec<ActionClass> = if rec.fp_rate_base > 0.0 {
            ActionClass::all()
                .filter(|c| !confusion.actions.iter().any(|(cc, _)| cc == c))
                .collect()
        } else {
            Vec::new()
        };

        let mut row: Vec<ActionScore> = Vec::new();
        for s in 0..n_shots {
            row.clear();
            let shot_frames = truth.geometry.frames_of_shot(ShotId::new(s as u64));
            // True recognitions: one per action class active in the shot.
            let mut active_classes: Vec<(ActionClass, f64)> = Vec::new();
            for span in &truth.actions {
                if truth
                    .action_in_shot(shot_frames.clone(), span.class)
                    .map(|found| std::ptr::eq(found, span))
                    .unwrap_or(false)
                {
                    active_classes.push((span.class, span.salience));
                }
            }
            for (class, salience) in active_classes {
                let in_miss = miss.get_mut(&class).map(|m| m.step(rng)).unwrap_or(false);
                let p = (rec.tpr * (0.9 + 0.1 * salience)).min(1.0);
                if !in_miss && p > 0.0 && rng.gen_bool(p) {
                    row.push(ActionScore {
                        class,
                        score: rec.scores.sample_tp(salience, rng),
                    });
                }
            }
            // Bursty confusable false positives.
            for (class, proc_) in fp_procs.iter_mut() {
                if proc_.step(rng) && !row.iter().any(|a| a.class == *class) {
                    row.push(ActionScore {
                        class: *class,
                        score: rec.scores.sample_fp(rng),
                    });
                }
            }
            // Base-rate false positives.
            if rec.fp_rate_base > 0.0 {
                for &class in &base_classes {
                    if rng.gen_bool(rec.fp_rate_base) && !row.iter().any(|a| a.class == class) {
                        row.push(ActionScore {
                            class,
                            score: rec.scores.sample_fp(rng),
                        });
                    }
                }
            }
            builder.push_row(row.drain(..));
        }
        builder.finish()
    }

    /// The ground truth the oracle was simulated from.
    pub fn truth(&self) -> &Arc<GroundTruth> {
        &self.truth
    }

    /// Number of whole clips in this oracle's stream. Cheap metadata read
    /// for feeders and schedulers — no truth clone, no score-table access.
    pub fn clip_count(&self) -> u64 {
        self.truth.geometry.clip_count(self.truth.total_frames)
    }

    /// The simulated model suite.
    pub fn suite(&self) -> &ModelSuite {
        &self.suite
    }

    /// Number of frames simulated.
    pub fn frame_count(&self) -> u64 {
        self.frames.rows() as u64
    }

    /// Number of shots simulated.
    pub fn shot_count(&self) -> u64 {
        self.shots.rows() as u64
    }

    /// Detections on every frame of `clip`, one row per frame, borrowed in
    /// place.
    pub fn clip_frame_rows(&self, clip: ClipId) -> Rows<'_, TrackedDetection> {
        self.frames
            .rows_in(self.truth.geometry.frames_of_clip(clip))
    }

    /// Action scores on every shot of `clip`, one row per shot, borrowed in
    /// place.
    pub fn clip_shot_rows(&self, clip: ClipId) -> Rows<'_, ActionScore> {
        self.shots.rows_in(self.truth.geometry.shots_of_clip(clip))
    }

    /// [`count_object_frames`] over `clip`'s frames. The first ask for
    /// `class` counts every clip of the video at `t_obj` in one pass and
    /// keeps the counts; later asks at the same `t_obj` read them. An ask
    /// at any other threshold scans the clip's rows. Charges nothing —
    /// inference cost is the stream's business ([`crate::stream`]).
    pub fn object_count(&self, clip: ClipId, class: ObjectClass, t_obj: f64) -> u32 {
        let memo = self.object_counts[class.index()].get_or_init(|| {
            let geometry = self.truth.geometry;
            OccurrenceCounts::build(
                t_obj,
                geometry.frames_per_clip(),
                (0..self.clip_count()).map(|c| {
                    count_object_frames(self.clip_frame_rows(ClipId::new(c)), class, t_obj)
                }),
            )
        });
        memo.get(clip, t_obj)
            .unwrap_or_else(|| count_object_frames(self.clip_frame_rows(clip), class, t_obj))
    }

    /// [`count_action_shots`] over `clip`'s shots, memoised per class as
    /// [`DetectionOracle::object_count`] is.
    pub fn action_count(&self, clip: ClipId, class: ActionClass, t_act: f64) -> u32 {
        let memo = self.action_counts[class.index()].get_or_init(|| {
            let geometry = self.truth.geometry;
            OccurrenceCounts::build(
                t_act,
                geometry.shots_per_clip,
                (0..self.clip_count())
                    .map(|c| count_action_shots(self.clip_shot_rows(ClipId::new(c)), class, t_act)),
            )
        });
        memo.get(clip, t_act)
            .unwrap_or_else(|| count_action_shots(self.clip_shot_rows(clip), class, t_act))
    }
}

impl ObjectDetector for DetectionOracle {
    fn detect(&self, frame: FrameId) -> &[TrackedDetection] {
        self.frames.row(frame.index())
    }

    fn ms_per_frame(&self) -> f64 {
        self.suite.detector.ms_per_frame + self.suite.tracker.ms_per_frame
    }
}

impl ActionRecognizer for DetectionOracle {
    fn recognize(&self, shot: ShotId) -> &[ActionScore] {
        self.shots.row(shot.index())
    }

    fn ms_per_shot(&self) -> f64 {
        self.suite.recognizer.ms_per_shot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::{ActionSpan, ObjectTrack};
    use svq_types::{Interval, VideoGeometry, VideoId};

    fn truth_with_signal() -> Arc<GroundTruth> {
        let mut gt = GroundTruth::new(VideoId::new(1), VideoGeometry::default(), 5_000);
        gt.tracks.push(ObjectTrack {
            class: ObjectClass::named("car"),
            track: TrackId::new(1),
            frames: Interval::new(FrameId::new(1_000), FrameId::new(2_999)),
            visibility: 1.0,
            bbox: BBox::FULL,
        });
        gt.actions.push(ActionSpan {
            class: ActionClass::named("jumping"),
            frames: Interval::new(FrameId::new(1_500), FrameId::new(2_499)),
            salience: 1.0,
        });
        Arc::new(gt)
    }

    fn rate_inside_outside(
        oracle: &DetectionOracle,
        class: ObjectClass,
        inside: std::ops::Range<u64>,
    ) -> (f64, f64) {
        let mut hits_in = 0u64;
        let mut hits_out = 0u64;
        let mut n_in = 0u64;
        let mut n_out = 0u64;
        for f in 0..oracle.frame_count() {
            let fired = oracle
                .detect(FrameId::new(f))
                .iter()
                .any(|d| d.detection.class == class && d.detection.score >= 0.5);
            if inside.contains(&f) {
                n_in += 1;
                hits_in += fired as u64;
            } else {
                n_out += 1;
                hits_out += fired as u64;
            }
        }
        (hits_in as f64 / n_in as f64, hits_out as f64 / n_out as f64)
    }

    #[test]
    fn ideal_models_match_ground_truth_exactly() {
        let truth = truth_with_signal();
        let oracle = DetectionOracle::new(
            truth.clone(),
            ModelSuite::ideal(),
            &SceneConfusion::default(),
            1,
        );
        for f in 0..truth.total_frames {
            let dets = oracle.detect(FrameId::new(f));
            let visible = truth.object_visible(FrameId::new(f), ObjectClass::named("car"));
            assert_eq!(
                dets.iter()
                    .any(|d| d.detection.class == ObjectClass::named("car")),
                visible
            );
            for d in dets {
                assert!(d.detection.score >= 0.99);
            }
        }
        // Shots: action recognised exactly on majority-covered shots.
        for s in 0..oracle.shot_count() {
            let fired = oracle
                .recognize(ShotId::new(s))
                .iter()
                .any(|a| a.class == ActionClass::named("jumping"));
            let expected = truth
                .action_in_shot(
                    truth.geometry.frames_of_shot(ShotId::new(s)),
                    ActionClass::named("jumping"),
                )
                .is_some();
            assert_eq!(fired, expected, "shot {s}");
        }
    }

    #[test]
    fn realistic_detector_rates_match_profile() {
        let truth = truth_with_signal();
        let car = ObjectClass::named("car");
        let confusion = SceneConfusion {
            objects: vec![(car, 1.0)],
            actions: vec![],
        };
        let oracle = DetectionOracle::new(truth, ModelSuite::accurate(), &confusion, 7);
        let (tpr, fpr) = rate_inside_outside(&oracle, car, 1_000..3_000);
        // Inside: tpr * (1 - miss_rate) ≈ 0.97 * 0.97 ≈ 0.94.
        assert!((0.85..=1.0).contains(&tpr), "tpr {tpr}");
        // Outside: the raw confusable rate is ≈ 0.2, but most false fires
        // score below the 0.5 threshold this test applies — the separation
        // the decision thresholds exploit.
        assert!((0.02..=0.2).contains(&fpr), "fpr {fpr}");
    }

    #[test]
    fn determinism_for_fixed_seed() {
        let truth = truth_with_signal();
        let confusion = SceneConfusion {
            objects: vec![(ObjectClass::named("car"), 1.0)],
            actions: vec![(ActionClass::named("jumping"), 1.0)],
        };
        let a = DetectionOracle::new(truth.clone(), ModelSuite::accurate(), &confusion, 42);
        let b = DetectionOracle::new(truth, ModelSuite::accurate(), &confusion, 42);
        for f in 0..a.frame_count() {
            assert_eq!(a.detect(FrameId::new(f)), b.detect(FrameId::new(f)));
        }
        for s in 0..a.shot_count() {
            assert_eq!(a.recognize(ShotId::new(s)), b.recognize(ShotId::new(s)));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let truth = truth_with_signal();
        let confusion = SceneConfusion {
            objects: vec![(ObjectClass::named("car"), 1.0)],
            actions: vec![],
        };
        let a = DetectionOracle::new(truth.clone(), ModelSuite::accurate(), &confusion, 1);
        let b = DetectionOracle::new(truth, ModelSuite::accurate(), &confusion, 2);
        let differs =
            (0..a.frame_count()).any(|f| a.detect(FrameId::new(f)) != b.detect(FrameId::new(f)));
        assert!(differs);
    }

    #[test]
    fn action_recognition_fires_inside_episodes() {
        let truth = truth_with_signal();
        let jumping = ActionClass::named("jumping");
        let confusion = SceneConfusion {
            objects: vec![],
            actions: vec![(jumping, 1.0)],
        };
        let oracle = DetectionOracle::new(truth.clone(), ModelSuite::accurate(), &confusion, 3);
        // Shots fully inside the episode: frames 1500-2499 = shots 150-249.
        let mut hits_in = 0;
        let mut hits_out = 0;
        let (mut n_in, mut n_out) = (0, 0);
        for s in 0..oracle.shot_count() {
            let fired = oracle
                .recognize(ShotId::new(s))
                .iter()
                .any(|a| a.class == jumping && a.score >= 0.45);
            if (150..250).contains(&s) {
                n_in += 1;
                hits_in += fired as u32;
            } else {
                n_out += 1;
                hits_out += fired as u32;
            }
        }
        let tpr = hits_in as f64 / n_in as f64;
        let fpr = hits_out as f64 / n_out as f64;
        assert!(tpr > 0.8, "action tpr {tpr}");
        // Post-threshold rate: most false fires score below T_act.
        assert!((0.01..0.25).contains(&fpr), "action fpr {fpr}");
    }

    #[test]
    fn tracker_ids_are_mostly_stable() {
        let truth = truth_with_signal();
        let oracle =
            DetectionOracle::new(truth, ModelSuite::accurate(), &SceneConfusion::default(), 9);
        let car = ObjectClass::named("car");
        let mut ids = std::collections::HashSet::new();
        for f in 1_000..3_000u64 {
            for d in oracle.detect(FrameId::new(f)) {
                if d.detection.class == car {
                    ids.insert(d.track);
                }
            }
        }
        // 2000 frames at 0.4% switch rate: expect a handful of identities,
        // never hundreds.
        assert!(!ids.is_empty());
        assert!(ids.len() < 40, "too many identity switches: {}", ids.len());
    }

    #[test]
    fn base_rate_false_positives_are_rare_but_present() {
        let truth = truth_with_signal();
        let oracle = DetectionOracle::new(
            truth,
            ModelSuite::accurate(),
            &SceneConfusion::default(),
            11,
        );
        let mut spurious = 0u64;
        for f in 0..oracle.frame_count() {
            spurious += oracle
                .detect(FrameId::new(f))
                .iter()
                .filter(|d| d.detection.class != ObjectClass::named("car"))
                .count() as u64;
        }
        // 5000 frames * 89 classes * 0.0008 ≈ 356 expected.
        assert!(
            spurious > 100,
            "expected some base-rate FPs, got {spurious}"
        );
        assert!(spurious < 1_200, "too many base-rate FPs: {spurious}");
    }
}
