//! The real executor workload must be free of lock-order inversions.
//!
//! Runs the session multiplexer end-to-end — many sessions, shared worker
//! pool, backpressure, metrics — with parking_lot's `lock-audit` feature
//! recording every acquisition into the global order graph, then asserts
//! the graph is acyclic. Compiled only under
//! `cargo test -p svq-exec --features lock-audit`.

#![cfg(feature = "lock-audit")]

use std::sync::Arc;
use svq_core::online::OnlineConfig;
use svq_core::Svaqd;
use svq_exec::{Backpressure, ExecMetrics, MuxOptions, SessionEngine, SessionMux};
use svq_types::{
    ActionClass, ActionQuery, BBox, FrameId, Interval, ObjectClass, TrackId, VideoGeometry, VideoId,
};
use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

/// 40 clips; car & jumping on clips 12..=19.
fn oracle(video: u64, seed: u64) -> Arc<DetectionOracle> {
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
        seed,
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

#[test]
fn mux_workload_has_no_lock_order_inversions() {
    parking_lot::lock_audit::reset();

    let mux = SessionMux::with_options(MuxOptions::new(4).with_shards(2), ExecMetrics::new());
    let oracles: Vec<_> = (0..6).map(|i| oracle(i, 100 + i)).collect();
    let ids: Vec<_> = oracles
        .iter()
        .enumerate()
        .map(|(i, o)| {
            mux.register(
                format!("audited-{i}"),
                o.clone(),
                engine(o),
                Backpressure::Block,
                8,
            )
        })
        .collect();
    for &id in &ids {
        mux.feed_stream(id);
    }
    for &id in &ids {
        let result = mux.wait(id).expect("session completes");
        assert_eq!(result.clips_processed, 40);
    }
    let snapshot = mux.metrics().snapshot();
    assert_eq!(snapshot.server.total_clips, 240);
    mux.shutdown();

    let reports = parking_lot::lock_audit::reports();
    assert!(
        reports.is_empty(),
        "executor workload produced lock-order inversions:\n{}",
        reports
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
