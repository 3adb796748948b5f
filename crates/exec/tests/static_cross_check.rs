//! Soundness gate for the static lock graph in `svq-lint`: every lock
//! ordering the runtime auditor actually observes while the executor
//! workload runs must be covered by the statically derived graph.
//!
//! The two analyses speak one currency — `((holder file, holder line),
//! (acquired file, acquired line))` site pairs — so no lock identities
//! need to be shared. A runtime edge the static pass missed means the
//! guard walker or the call-graph resolver lost track of a region, and
//! the static `lock-cycle` / `blocking-under-lock` rules can no longer be
//! trusted. Compiled only under
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
fn runtime_lock_edges_are_covered_by_the_static_graph() {
    parking_lot::lock_audit::reset();

    // The same mux workload the inversion audit drives: many sessions,
    // shared worker pool, backpressure, metrics, pacing.
    let mux = SessionMux::with_options(MuxOptions::new(4).with_shards(2), ExecMetrics::new());
    // The reporter thread snapshots under its stop guard — the executor's
    // nested first-party acquisitions (`stop` → `sessions`/`shards`).
    let reporter = mux
        .metrics()
        .spawn_reporter(std::time::Duration::from_millis(1), |_snap| {});
    let oracles: Vec<_> = (0..6).map(|i| oracle(i, 300 + i)).collect();
    let ids: Vec<_> = oracles
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let id = mux.register(
                format!("cross-{i}"),
                o.clone(),
                engine(o),
                Backpressure::Block,
                8,
            );
            if i % 2 == 0 {
                mux.set_pacing(id, 1e-6).expect("valid pacing");
            }
            id
        })
        .collect();
    mux.feed_streams(&ids);
    for &id in &ids {
        let result = mux.wait(id).expect("session completes");
        assert_eq!(result.clips_processed, 40);
    }
    let _ = mux.metrics().snapshot();
    reporter.stop();
    mux.shutdown();

    // Only edges with both endpoints in first-party code are in scope:
    // the vendored stand-ins (crossbeam channels are built on parking_lot
    // mutexes) take locks of their own that the workspace analyzer
    // deliberately does not model.
    let observed: Vec<_> = parking_lot::lock_audit::edge_sites()
        .into_iter()
        .filter(|((hf, _), (af, _))| hf.starts_with("crates/") && af.starts_with("crates/"))
        .collect();
    assert!(
        !observed.is_empty(),
        "workload recorded no first-party lock edges; the gate is vacuous"
    );

    let root = svq_lint::find_workspace_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root");
    let graph = svq_lint::lock_graph(&root).expect("static analysis runs");

    let missing: Vec<String> = observed
        .iter()
        .filter(|((hf, hl), (af, al))| !graph.covers((hf, *hl), (af, *al)))
        .map(|((hf, hl), (af, al))| format!("holding {hf}:{hl} acquired {af}:{al}"))
        .collect();
    assert!(
        missing.is_empty(),
        "{} runtime lock edge(s) missing from the static lock graph \
         (the guard walker or call resolver lost a region):\n{}",
        missing.len(),
        missing.join("\n"),
    );
}
