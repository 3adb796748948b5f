//! Soundness gate for the static lock graph in `svq-lint`, server side:
//! every lock ordering the runtime auditor observes while the full TCP
//! service runs — admission races, mixed traffic, drain — must be covered
//! by the statically derived graph. See the executor twin in
//! `crates/exec/tests/static_cross_check.rs` for the rationale. Compiled
//! only under `cargo test -p svq-serve --features lock-audit`.

#![cfg(feature = "lock-audit")]

use std::sync::Arc;
use std::time::Duration;
use svq_core::offline::ingest;
use svq_core::online::OnlineConfig;
use svq_exec::shard_index;
use svq_serve::{
    Client, LiveSourceConfig, Request, Response, RouteConfig, Router, ServeConfig, Server,
    ServerHandle, VideoScope,
};
use svq_storage::VideoRepository;
use svq_types::{
    ActionClass, BBox, FrameId, Interval, ObjectClass, PaperScoring, TrackId, VideoGeometry,
    VideoId,
};
use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};

const OFFLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car') \
     ORDER BY RANK(act, obj) LIMIT 2";

const ONLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car')";

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

/// The audit ledger is process-global, so the two workloads must not
/// interleave: a concurrent `reset()` would empty the other test's
/// observation window and trip its vacuity assert.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The first-party lock edges the runtime auditor recorded. The vendored
/// stand-ins take locks of their own that the workspace analyzer
/// deliberately does not model.
fn observed_edges() -> Vec<((String, u32), (String, u32))> {
    parking_lot::lock_audit::edge_sites()
        .into_iter()
        .filter(|((hf, _), (af, _))| hf.starts_with("crates/") && af.starts_with("crates/"))
        .collect()
}

/// Shared tail of both workloads: require each observed edge in the
/// static graph.
fn assert_edges_covered(observed: &[((String, u32), (String, u32))]) {
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

/// Mixed request traffic plus one standing-query round. The subscribe
/// round is what records first-party lock edges: its ack completes under
/// the registry's `queries` and per-statement `state` locks and reaches
/// the connection writer's lock. Offline and stream requests take only
/// leaf locks.
#[test]
fn runtime_lock_edges_are_covered_by_the_static_graph() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    parking_lot::lock_audit::reset();

    let oracles: Vec<_> = (0..3).map(|i| oracle(i, 900 + i)).collect();
    let repo = Arc::new(VideoRepository::from_catalogs(
        oracles
            .iter()
            .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default())),
    ));
    let source = LiveSourceConfig::parse("action=jumping,objects=car,minutes=2,seed=42,rate=400")
        .expect("source spec parses");
    let handle = Server::start_with_source(
        ServeConfig::builder()
            .max_conns(4)
            .workers(4)
            .drain_timeout(Duration::from_secs(30))
            .build()
            .expect("config is valid"),
        Some(repo),
        oracles,
        Some(source),
        svq_exec::ExecMetrics::new(),
    )
    .expect("server starts");
    let addr = handle.local_addr();

    let clients: Vec<_> = (0..8u64)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = match Client::connect(addr) {
                    Ok(client) => client,
                    Err(_) => return,
                };
                for round in 0..4u64 {
                    let video = Some((c + round) % 3);
                    let result = match (c + round) % 4 {
                        0 => client.request(&Request::Query {
                            sql: OFFLINE_SQL.into(),
                            video: video.into(),
                        }),
                        1 => client.request(&Request::Stream {
                            sql: ONLINE_SQL.into(),
                            video,
                        }),
                        2 => client.request(&Request::Stats),
                        _ => client.send_raw(b"{\"kind\": \"warp\"}"),
                    };
                    match result {
                        Ok(Response::Error { reason, .. })
                            if reason == svq_types::RejectReason::Busy =>
                        {
                            return
                        }
                        Ok(_) => {}
                        Err(_) => return,
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    let caller = Client::connect(addr)
        .and_then(Client::into_caller)
        .expect("caller connects");
    let sub = caller
        .subscribe(ONLINE_SQL, None, 0)
        .expect("subscription opens");
    sub.next().expect("a pushed frame arrives");
    sub.unsubscribe().expect("unsubscribe acked");
    drop(sub);
    drop(caller);

    handle.shutdown();
    let report = handle.wait();
    assert!(report.accepted >= 1);

    let observed = observed_edges();
    assert!(
        !observed.is_empty(),
        "workload recorded no first-party lock edges; the gate is vacuous"
    );
    assert_edges_covered(&observed);
}

/// The router twin: the same soundness gate over the cluster paths — the
/// per-shard link cache and its reconnect loop, the scatter-gather state,
/// the pipelined caller's demux, and the typed failure path when a shard
/// dies mid-traffic. Every lock edge those take at runtime must be in the
/// static graph too.
///
/// These paths never hold two first-party locks at once: each router and
/// caller lock is a leaf, released before the next is taken. The edge set
/// may therefore be empty, and non-vacuity is checked on what the auditor
/// did see — acquisitions at `router.rs` and `client.rs` sites — so the
/// test still fails if the workload stops reaching the cluster code.
#[test]
fn router_runtime_lock_edges_are_covered_by_the_static_graph() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    parking_lot::lock_audit::reset();

    const SHARDS: usize = 2;
    let videos: Vec<u64> = (0..4).collect();
    let shard_handles: Vec<ServerHandle> = (0..SHARDS)
        .map(|index| {
            let oracles: Vec<_> = videos
                .iter()
                .copied()
                .filter(|&v| shard_index(VideoId::new(v), SHARDS) == index)
                .map(|v| oracle(v, 900 + v))
                .collect();
            let repo = Arc::new(VideoRepository::from_catalogs(
                oracles
                    .iter()
                    .map(|o| ingest(o, &PaperScoring, &OnlineConfig::default())),
            ));
            Server::start(
                ServeConfig::builder()
                    .max_conns(8)
                    .workers(2)
                    .drain_timeout(Duration::from_secs(30))
                    .build()
                    .expect("config is valid"),
                Some(repo),
                oracles,
                svq_exec::ExecMetrics::new(),
            )
            .expect("shard starts")
        })
        .collect();
    let addrs: Vec<String> = shard_handles
        .iter()
        .map(|s| s.local_addr().to_string())
        .collect();
    let router = Router::start(
        RouteConfig::builder()
            .max_conns(8)
            .drain_timeout(Duration::from_secs(30))
            .upstream_timeout(Duration::from_secs(10))
            .connect_attempts(2)
            .build()
            .expect("config is valid"),
        &addrs,
        svq_exec::ExecMetrics::new(),
    )
    .expect("router starts");
    let addr = router.local_addr();

    // Mixed routed traffic: targeted queries and streams (single-shard
    // forward), stats and cross-catalog top-k (scatter-gather), all
    // through the pipelined caller so the demux threads run too.
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            std::thread::spawn(move || {
                let caller = match Client::connect(addr).and_then(Client::into_caller) {
                    Ok(caller) => caller,
                    Err(_) => return,
                };
                let pending: Vec<_> = (0..4u64)
                    .filter_map(|round| {
                        let video = (c + round) % 4;
                        let request = match (c + round) % 4 {
                            0 => Request::Query {
                                sql: OFFLINE_SQL.into(),
                                video: VideoScope::One(video),
                            },
                            1 => Request::Stream {
                                sql: ONLINE_SQL.into(),
                                video: Some(video),
                            },
                            2 => Request::Stats,
                            _ => Request::Query {
                                sql: OFFLINE_SQL.into(),
                                video: VideoScope::All,
                            },
                        };
                        caller.call(&request).ok()
                    })
                    .collect();
                for handle in pending {
                    let _ = handle.wait();
                }
            })
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }

    // Kill one shard and drive the typed-unavailable path: the dead
    // link's reconnect/backoff locks and the error fan-in.
    let dead = &shard_handles[SHARDS - 1];
    dead.shutdown();
    dead.wait();
    let dead_video = videos
        .iter()
        .copied()
        .find(|&v| shard_index(VideoId::new(v), SHARDS) == SHARDS - 1)
        .expect("some video hashes to the dead shard");
    if let Ok(mut client) = Client::connect(addr) {
        let _ = client.request(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::One(dead_video),
        });
        let _ = client.request(&Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::All,
        });
    }

    router.shutdown();
    let report = router.wait();
    assert!(report.accepted >= 1);
    for shard in &shard_handles {
        shard.shutdown();
        shard.wait();
    }

    let sites: Vec<String> = parking_lot::lock_audit::guard_report()
        .into_iter()
        .map(|hold| hold.site)
        .collect();
    for file in [
        "crates/server/src/router.rs:",
        "crates/server/src/client.rs:",
    ] {
        assert!(
            sites.iter().any(|site| site.starts_with(file)),
            "workload recorded no acquisition at a {file} site; the gate is vacuous: {sites:?}"
        );
    }
    assert_edges_covered(&observed_edges());
}
