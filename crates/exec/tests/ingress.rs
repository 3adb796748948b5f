//! Stall isolation of the sharded ingress.
//!
//! Streams hash to ingress shards by `VideoId`, and a full `Block`
//! mailbox stalls only its own shard's feeder. So sessions on other shards
//! must run to completion while a stalled session still holds unprocessed
//! clips. With one feeder for everything, the fast sessions would queue
//! behind the stalled mailbox instead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, RwLock};
use std::time::Duration;
use svq_core::online::OnlineConfig;
use svq_core::Svaqd;
use svq_exec::{shard_index, Backpressure, ExecMetrics, MuxOptions, SessionEngine, SessionMux};
use svq_types::{
    ActionClass, ActionQuery, BBox, FrameId, Interval, ObjectClass, TrackId, VideoGeometry, VideoId,
};
use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

const SHARDS: usize = 4;

/// 40 clips; car & jumping on clips 12..=19.
fn oracle(video: u64) -> Arc<DetectionOracle> {
    let mut gt = GroundTruth::new(VideoId::new(video), VideoGeometry::default(), 2_000);
    gt.tracks.push(ObjectTrack {
        class: ObjectClass::named("car"),
        track: TrackId::new(1),
        frames: Interval::new(FrameId::new(600), FrameId::new(999)),
        visibility: 1.0,
        bbox: BBox::FULL,
    });
    gt.actions.push(ActionSpan {
        class: ActionClass::named("jumping"),
        frames: Interval::new(FrameId::new(600), FrameId::new(999)),
        salience: 1.0,
    });
    let confusion = SceneConfusion {
        objects: vec![(ObjectClass::named("car"), 1.0)],
        actions: vec![(ActionClass::named("jumping"), 1.0)],
    };
    Arc::new(DetectionOracle::new(
        Arc::new(gt),
        ModelSuite::accurate(),
        &confusion,
        video,
    ))
}

fn engine(oracle: &DetectionOracle) -> SessionEngine {
    SessionEngine::Svaqd(Svaqd::new(
        ActionQuery::named("jumping", &["car"]),
        oracle.truth().geometry,
        OnlineConfig::default(),
        1e-4,
        1e-4,
    ))
}

/// Two videos on shard 0 and six on the other shards, by the executor's
/// own placement.
fn placed_videos() -> (Vec<u64>, Vec<u64>) {
    let (slow, fast): (Vec<u64>, Vec<u64>) =
        (100..200u64).partition(|&v| shard_index(VideoId::new(v), SHARDS) == 0);
    assert!(
        slow.len() >= 2 && fast.len() >= 6,
        "100 consecutive ids must spread over the shards"
    );
    (slow[..2].to_vec(), fast[..6].to_vec())
}

#[test]
fn fast_sessions_finish_while_a_stalled_shard_still_holds_clips() {
    let (slow_videos, fast_videos) = placed_videos();
    let mux = Arc::new(SessionMux::with_options(
        MuxOptions::new(4).with_shards(SHARDS),
        ExecMetrics::new(),
    ));
    // The slow sessions' consumers stop after their first clip until the
    // gate opens: their mailboxes of 2 fill, and shard 0's feeder blocks.
    let gate = Arc::new(RwLock::new(()));
    let closed = gate.write().expect("gate starts closed");
    let slow: Vec<_> = slow_videos
        .iter()
        .map(|&v| {
            let oracle = oracle(v);
            let id = mux.register(
                format!("slow{v}"),
                oracle.clone(),
                engine(&oracle),
                Backpressure::Block,
                2,
            );
            let processed = Arc::new(AtomicU64::new(0));
            let (gate, seen) = (gate.clone(), processed.clone());
            mux.set_observer(id, move |notice| {
                seen.store(notice.clips_processed, Ordering::Release);
                // A poisoned gate means the test already failed: let the
                // worker through either way.
                let _held = gate.read();
            });
            (id, oracle.clip_count(), processed)
        })
        .collect();
    let fast: Vec<_> = fast_videos
        .iter()
        .map(|&v| {
            let oracle = oracle(v);
            mux.register(
                format!("fast{v}"),
                oracle.clone(),
                engine(&oracle),
                Backpressure::Block,
                2,
            )
        })
        .collect();
    let ids: Vec<_> = slow
        .iter()
        .map(|s| s.0)
        .chain(fast.iter().copied())
        .collect();
    mux.feed_streams(&ids);

    // A starved fast session fails the test instead of hanging it.
    let (done_tx, done_rx) = mpsc::channel();
    let waiters: Vec<_> = fast
        .iter()
        .map(|&id| {
            let (mux, done_tx) = (mux.clone(), done_tx.clone());
            std::thread::spawn(move || {
                let _ = done_tx.send(mux.wait(id));
            })
        })
        .collect();
    for _ in &fast {
        let result = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a fast session starved behind the stalled shard");
        assert_eq!(result.expect("healthy fast session").clips_processed, 40);
    }
    for waiter in waiters {
        waiter.join().expect("waiter thread");
    }
    for (_, clips, processed) in &slow {
        let processed = processed.load(Ordering::Acquire);
        assert!(
            processed < *clips,
            "the stalled session processed {processed} of {clips} clips before the fast ones finished"
        );
    }

    drop(closed);
    for (id, clips, _) in &slow {
        let result = mux.wait(*id).expect("healthy slow session");
        assert_eq!(result.clips_processed, *clips, "the stall lost no clip");
    }
    Arc::try_unwrap(mux)
        .ok()
        .expect("the waiters were joined")
        .shutdown();
}
