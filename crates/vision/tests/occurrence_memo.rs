//! The oracle's occurrence memo against Algorithm 2's row-scan definition.
//!
//! Over random oracles (geometry, scripts, suites, seeds), for every
//! vocabulary class and every clip: the memoised count equals
//! `count_object_frames` / `count_action_shots` over the clip's rows at the
//! first threshold asked and at a second one (which takes the row-scan
//! fallback); four threads racing the first initialisation at two
//! thresholds all read the definition; and charging through the stream's
//! handles (borrowed stream views and owned clip tickets alike) leaves the
//! ledger the per-unit charge loop would, whatever the handles are then
//! asked. `PROPTEST_CASES` sets the depth (default 64).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Barrier};
use svq_types::{
    ActionClass, BBox, ClipId, FrameId, Interval, ObjectClass, TrackId, VideoGeometry, VideoId,
    Vocabulary,
};
use svq_vision::models::{
    count_action_shots, count_object_frames, DetectionOracle, ModelSuite, SceneConfusion,
};
use svq_vision::{ActionSpan, ClipAccess, CostLedger, CostModel, GroundTruth, ObjectTrack};
use svq_vision::{OwnedClipView, VideoStream};

/// A random video: geometry (clips of up to 7 × 64 frames, so both the
/// one-byte and the four-byte count columns), a handful of tracks and
/// episodes on random classes, those classes confusable, a random suite.
fn random_oracle(seed: u64) -> DetectionOracle {
    let mut rng = StdRng::seed_from_u64(seed);
    let geometry = VideoGeometry::new([1, 4, 10, 64][rng.gen_range(0..4)], rng.gen_range(1..8), 25);
    let clips = rng.gen_range(1..40u64);
    let frames = clips * u64::from(geometry.frames_per_clip()) + rng.gen_range(0..20);
    let mut truth = GroundTruth::new(VideoId::new(seed % 7), geometry, frames);
    let span = |rng: &mut StdRng| {
        let start = rng.gen_range(0..frames);
        let end = rng.gen_range(start..frames);
        Interval::new(FrameId::new(start), FrameId::new(end))
    };
    let mut confusion = SceneConfusion::default();
    for t in 0..rng.gen_range(0..5u64) {
        let class = ObjectClass::from_index(rng.gen_range(0..ObjectClass::cardinality()));
        let (x, y) = (rng.gen::<f32>() * 0.5, rng.gen::<f32>() * 0.5);
        truth.tracks.push(ObjectTrack {
            class,
            track: TrackId::new(t + 1),
            frames: span(&mut rng),
            visibility: rng.gen(),
            bbox: BBox::new(x, y, x + 0.3, y + 0.3),
        });
        confusion.objects.push((class, rng.gen_range(0.5..2.0)));
    }
    for _ in 0..rng.gen_range(0..4) {
        let class = ActionClass::from_index(rng.gen_range(0..ActionClass::cardinality()));
        truth.actions.push(ActionSpan {
            class,
            frames: span(&mut rng),
            salience: rng.gen(),
        });
        confusion.actions.push((class, rng.gen_range(0.5..2.0)));
    }
    let suite = [
        ModelSuite::accurate(),
        ModelSuite::fast(),
        ModelSuite::ideal(),
    ][rng.gen_range(0..3)];
    DetectionOracle::new(Arc::new(truth), suite, &confusion, rng.gen())
}

/// Two distinct thresholds in (0, 1).
fn thresholds(seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let first: f64 = rng.gen_range(0.05..0.95);
    let second = loop {
        let t: f64 = rng.gen_range(0.05..0.95);
        if t != first {
            break t;
        }
    };
    (first, second)
}

fn clips(oracle: &DetectionOracle) -> impl Iterator<Item = ClipId> {
    (0..oracle.clip_count()).map(ClipId::new)
}

/// Every class, every clip, at `t`: the oracle's answer vs the definition.
fn check_all(oracle: &DetectionOracle, t: f64) {
    for class in ObjectClass::all() {
        for clip in clips(oracle) {
            prop_assert_eq!(
                oracle.object_count(clip, class, t),
                count_object_frames(oracle.clip_frame_rows(clip), class, t),
                "object {:?} clip {:?} t {}",
                class,
                clip,
                t
            );
        }
    }
    for class in ActionClass::all() {
        for clip in clips(oracle) {
            prop_assert_eq!(
                oracle.action_count(clip, class, t),
                count_action_shots(oracle.clip_shot_rows(clip), class, t),
                "action {:?} clip {:?} t {}",
                class,
                clip,
                t
            );
        }
    }
}

proptest! {
    #[test]
    fn memo_equals_the_row_scan_at_first_and_other_thresholds(seed in any::<u64>()) {
        let oracle = random_oracle(seed);
        let (first, second) = thresholds(seed);
        check_all(&oracle, first);
        check_all(&oracle, second);
        // The memo stays at the first threshold.
        check_all(&oracle, first);
    }

    #[test]
    fn racing_first_asks_all_read_the_definition(seed in any::<u64>()) {
        let oracle = random_oracle(seed);
        let (first, second) = thresholds(seed);
        let objects: Vec<ObjectClass> = oracle
            .truth()
            .tracks
            .iter()
            .map(|t| t.class)
            .chain([ObjectClass::from_index(seed as usize % ObjectClass::cardinality())])
            .collect();
        let actions: Vec<ActionClass> = oracle
            .truth()
            .actions
            .iter()
            .map(|a| a.class)
            .chain([ActionClass::from_index(seed as usize % ActionClass::cardinality())])
            .collect();
        let barrier = Barrier::new(4);
        std::thread::scope(|s| {
            for thread in 0..4 {
                let (oracle, barrier) = (&oracle, &barrier);
                let (objects, actions) = (&objects, &actions);
                // Two threads ask at each threshold: whichever wins the
                // slot, every answer must be the definition's.
                let t = if thread % 2 == 0 { first } else { second };
                s.spawn(move || {
                    barrier.wait();
                    for clip in clips(oracle) {
                        for &class in objects {
                            assert_eq!(
                                oracle.object_count(clip, class, t),
                                count_object_frames(oracle.clip_frame_rows(clip), class, t)
                            );
                        }
                        for &class in actions {
                            assert_eq!(
                                oracle.action_count(clip, class, t),
                                count_action_shots(oracle.clip_shot_rows(clip), class, t)
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn ledger_is_the_per_unit_charge_loop(seed in any::<u64>(), pattern in any::<u64>()) {
        let oracle = Arc::new(random_oracle(seed));
        let (t, _) = thresholds(seed);
        let geometry = oracle.truth().geometry;
        let model = CostModel::from_suite(oracle.suite());
        let object = ObjectClass::from_index(seed as usize % ObjectClass::cardinality());
        let action = ActionClass::from_index(pattern as usize % ActionClass::cardinality());
        let mut stream = VideoStream::new(&oracle);
        let mut reference = CostLedger::default();
        while let Some(mut view) = stream.next_clip() {
            let clip = view.clip();
            let mut owned = OwnedClipView::new(oracle.clone(), clip);
            let mut owned_reference = CostLedger::default();
            // Two bits per clip: frames requested, shots requested; asks
            // per handle vary with the clip, and never change a charge.
            let bits = pattern.rotate_right((clip.raw() % 32 * 2) as u32);
            let asks = clip.raw() % 3;
            if bits & 1 == 1 {
                for _ in 0..geometry.frames_per_clip() {
                    reference.charge_object_frame(&model);
                    owned_reference.charge_object_frame(&model);
                }
                let (a, b) = (view.frames(), owned.frames());
                for _ in 0..asks {
                    prop_assert_eq!(a.count(object, t), b.count(object, t));
                }
            }
            if bits & 2 == 2 {
                for _ in 0..geometry.shots_per_clip {
                    reference.charge_action_shot(&model);
                    owned_reference.charge_action_shot(&model);
                }
                let (a, b) = (view.shots(), owned.shots());
                for _ in 0..asks {
                    prop_assert_eq!(a.count(action, t), b.count(action, t));
                }
            }
            prop_assert_eq!(*stream.ledger(), reference, "clip {:?}", clip);
            prop_assert_eq!(*owned.ledger(), owned_reference, "clip {:?}", clip);
        }
    }
}
