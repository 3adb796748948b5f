//! Scenarios: the real SVQ-ACT stack wired into the simulated world.
//!
//! A scenario is a function that runs as the world's root task. It builds
//! production components (a [`svq_exec::SessionMux`], a loopback
//! [`svq_serve`] server, a [`svq_storage`] spill sink), drives them while
//! the scheduler explores one seeded interleaving, injects whatever the
//! [`FaultPlan`] enables, and asserts the standing invariants with plain
//! `assert!` — an assertion failure unwinds the root task and surfaces as
//! a [`crate::FailureKind::RootPanic`] with the message and trace tail.
//!
//! Standing invariants, across every scenario:
//!
//! * **Determinism of results** — every non-faulted session's outcome is
//!   byte-identical to a single-threaded reference run of the same engine
//!   over the same stream.
//! * **Fault isolation** — an injected fault poisons at most its own
//!   session/connection; everyone else still matches the reference.
//! * **Conservation** — every fed ticket crosses an ingress shard; gauges
//!   return to zero after a drain.
//! * **Liveness** — drains, waits, and stops terminate in virtual time
//!   (a wedge is a detected deadlock/livelock, never a hang).

use crate::rng::{self, SimRng};
use parking_lot::rt;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, OnceLock};
use std::time::Duration;
use svq_core::offline::ingest;
use svq_core::online::{OnlineConfig, Svaqd};
use svq_exec::{
    parallel_ingest_into, Backpressure, ExecMetrics, MuxOptions, SessionEngine, SessionError,
    SessionMux,
};
use svq_query::{
    execute_offline, execute_offline_all, execute_online, parse, LogicalPlan, QueryOutcome,
};
use svq_serve::{
    encode_line, encode_request_line, Caller, Client, Conn, Connector, LiveSourceConfig,
    MemTransport, Request, Response, RouteConfig, Router, ServeConfig, Server, Transport,
    VideoScope,
};
use svq_storage::{DirSink, FailingSink, VideoRepository};
use svq_types::{
    ActionClass, ActionQuery, BBox, ClipId, FrameId, Interval, ObjectClass, PaperScoring,
    RejectReason, ScoringFunctions, TrackId, VideoGeometry, VideoId,
};
use svq_vision::models::{DetectionOracle, ModelSuite, SceneConfusion};
use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};
use svq_vision::VideoStream;

/// Which fault injectors a schedule enables. Each scenario consults the
/// flags it understands and ignores the rest, so `all` is always a valid
/// plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Feed one out-of-range clip ticket so a worker panics mid-drain.
    pub worker_panic: bool,
    /// Close a client connection mid-frame (half-written request line).
    pub drop_conn: bool,
    /// A client that stops reading/writing long enough to trip the
    /// server's read timeout.
    pub stall_client: bool,
    /// Fail the ingestion sink partway through a spill, then restart from
    /// the manifest left behind.
    pub crash_sink: bool,
    /// Truncate the recovered manifest mid-line first, as a crash between
    /// write and flush would.
    pub torn_manifest: bool,
    /// A cluster shard that accepts upstream connections but never answers
    /// a frame, so the router's upstream read deadline is what fails it.
    pub stall_shard: bool,
}

impl FaultPlan {
    /// No faults: the reference-behaviour plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every fault injector armed.
    pub fn all() -> Self {
        Self {
            worker_panic: true,
            drop_conn: true,
            stall_client: true,
            crash_sink: true,
            torn_manifest: true,
            stall_shard: true,
        }
    }

    /// Parse `none`, `all`, or a comma-separated subset of
    /// `worker-panic,drop-conn,stall-client,crash-sink,torn-manifest,stall-shard`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        match spec.trim() {
            "" | "none" => return Ok(Self::none()),
            "all" => return Ok(Self::all()),
            _ => {}
        }
        let mut plan = Self::none();
        for part in spec.split(',') {
            match part.trim() {
                "worker-panic" => plan.worker_panic = true,
                "drop-conn" => plan.drop_conn = true,
                "stall-client" => plan.stall_client = true,
                "crash-sink" => plan.crash_sink = true,
                "torn-manifest" => plan.torn_manifest = true,
                "stall-shard" => plan.stall_shard = true,
                other => {
                    return Err(format!(
                        "unknown fault {other:?}; expected none, all, or a comma list of \
                         worker-panic, drop-conn, stall-client, crash-sink, torn-manifest, \
                         stall-shard"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Canonical spelling accepted back by [`FaultPlan::parse`].
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.worker_panic {
            parts.push("worker-panic");
        }
        if self.drop_conn {
            parts.push("drop-conn");
        }
        if self.stall_client {
            parts.push("stall-client");
        }
        if self.crash_sink {
            parts.push("crash-sink");
        }
        if self.torn_manifest {
            parts.push("torn-manifest");
        }
        if self.stall_shard {
            parts.push("stall-shard");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join(",")
        }
    }
}

/// Everything a scenario learns about the schedule it runs under.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioCtx {
    /// The schedule seed. The scheduler's RNG is already seeded with it;
    /// scenarios derive their own decision stream via [`ScenarioCtx::rng`]
    /// so fault placement varies with the seed but never collides with
    /// scheduling randomness.
    pub seed: u64,
    /// Scale knob — clips per stream, tickets fed, clients connected;
    /// each scenario documents its meaning. The shrinker halves it.
    pub size: u64,
    pub faults: FaultPlan,
}

impl ScenarioCtx {
    /// The scenario-level decision stream (fault placement, knob jitter).
    pub fn rng(&self) -> SimRng {
        SimRng::new(rng::mix(self.seed ^ 0x005c_e0a9_1a11_u64))
    }
}

/// A named, registered scenario.
pub struct Scenario {
    pub name: &'static str,
    pub about: &'static str,
    /// Default `size` when the caller does not pass one.
    pub default_size: u64,
    /// Runs *outside* the simulated world, before every schedule: warms
    /// process-wide caches (reference outcomes) whose first computation
    /// would otherwise emit lock events into the first schedule's trace
    /// and break byte-identical replay.
    pub prepare: fn(ScenarioCtx),
    /// Runs as the root task of a simulated world.
    pub run: fn(ScenarioCtx),
}

/// Default [`Scenario::prepare`]: nothing to warm.
fn no_prepare(_ctx: ScenarioCtx) {}

/// Registry, in documentation order.
pub static SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "mux_pipeline",
        about: "sessions across a sharded mux match single-threaded reference results; \
                an injected worker panic poisons only its own session",
        default_size: 10,
        prepare: no_prepare,
        run: mux_pipeline,
    },
    Scenario {
        name: "double_wait",
        about: "two tasks wait() on one session; both get the same latched result \
                (guards the v3 wait() lost-notify deadlock)",
        default_size: 8,
        prepare: no_prepare,
        run: double_wait,
    },
    Scenario {
        name: "reporter",
        about: "metrics reporter ticks on virtual time and stop() returns without \
                consuming an interval (guards the v5 reporter lost-wakeup)",
        default_size: 2,
        prepare: no_prepare,
        run: reporter,
    },
    Scenario {
        name: "serve_mem",
        about: "the full svq-serve stack over an in-memory loopback transport: \
                well-behaved clients get byte-identical outcomes while dropped \
                connections and stalled clients are refused in isolation, and \
                drain always terminates",
        default_size: 6,
        prepare: serve_mem_prepare,
        run: serve_mem,
    },
    Scenario {
        name: "serve_pipeline",
        about: "protocol-v2 pipelining over the loopback serve stack: clients burst \
                id-tagged requests and every response matches its request id with a \
                byte-identical outcome; a client bursting id-less frames gets them \
                answered in request order, byte-identical too; dropped and stalled \
                connections fail in isolation, and drain terminates",
        default_size: 6,
        prepare: serve_mem_prepare,
        run: serve_pipeline,
    },
    Scenario {
        name: "subscribe_fanout",
        about: "standing queries over the loopback serve stack: a paced live source \
                fans events to concurrent subscribers with per-subscription ordering \
                and closed accounting, dropped and stalled connections fail in \
                isolation, and a drain during active subscriptions terminates",
        default_size: 6,
        prepare: no_prepare,
        run: subscribe_fanout,
    },
    Scenario {
        name: "cluster_router",
        about: "a shard router fronting two in-memory shard servers: routed outcomes \
                are byte-identical to in-process execution, a dead or stalled shard \
                answers as a typed shard_unavailable (never a hang), and the router's \
                drain terminates",
        default_size: 4,
        prepare: cluster_router_prepare,
        run: cluster_router,
    },
    Scenario {
        name: "ingest_crash",
        about: "parallel ingestion killed at a random sink write (optionally tearing \
                the manifest tail) restarts from the spill manifest and recovers a \
                byte-identical repository",
        default_size: 4,
        prepare: no_prepare,
        run: ingest_crash,
    },
];

/// Look up a scenario by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

/// The standing query every scenario session runs.
fn query() -> ActionQuery {
    ActionQuery::named("jumping", &["car"])
}

/// A deterministic oracle: `clips` clips with car + jumping on the middle
/// third of the video. The oracle seed is derived from (video, clips) only
/// — *not* the schedule seed — so reference results are shared by every
/// schedule of the same size and the cache below actually hits.
fn oracle(video: u64, clips: u64) -> Arc<DetectionOracle> {
    let frames = clips * 50; // default geometry: 10 fps/shot × 5 shots/clip
    let band = Interval::new(
        FrameId::new(frames / 3),
        FrameId::new((2 * frames / 3).saturating_sub(1).max(frames / 3)),
    );
    let mut gt = GroundTruth::new(VideoId::new(video), VideoGeometry::default(), frames);
    gt.tracks.push(ObjectTrack {
        class: ObjectClass::named("car"),
        track: TrackId::new(1),
        frames: band,
        visibility: 1.0,
        bbox: BBox::FULL,
    });
    gt.actions.push(ActionSpan {
        class: ActionClass::named("jumping"),
        frames: band,
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
        rng::mix(video.wrapping_mul(31).wrapping_add(clips)),
    ))
}

fn engine(oracle: &DetectionOracle) -> SessionEngine {
    SessionEngine::Svaqd(Svaqd::new(
        query(),
        oracle.truth().geometry,
        OnlineConfig::default(),
        1e-4,
        1e-4,
    ))
}

/// Canonical byte encoding of a session outcome, for exact comparisons
/// between the multiplexed run and the single-threaded reference.
fn canon(sequences: &[svq_types::ClipInterval], clips: u64, cost: (u64, u64)) -> String {
    format!(
        "seqs={sequences:?} clips={clips} object_frames={} action_shots={}",
        cost.0, cost.1
    )
}

/// Single-threaded reference for [`oracle`]`(video, clips)`, cached across
/// schedules. The computation is pure (no locks, no scheduler events), so
/// a cache hit and a miss leave identical traces.
fn reference(video: u64, clips: u64) -> Arc<String> {
    type Cache = OnceLock<StdMutex<BTreeMap<(u64, u64), Arc<String>>>>;
    static CACHE: Cache = OnceLock::new();
    let cache = CACHE.get_or_init(|| StdMutex::new(BTreeMap::new()));
    if let Some(hit) = cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&(video, clips))
    {
        return hit.clone();
    }
    let oracle = oracle(video, clips);
    let mut stream = VideoStream::new(&oracle);
    let mut reference_engine = Svaqd::new(
        query(),
        stream.geometry(),
        OnlineConfig::default(),
        1e-4,
        1e-4,
    );
    let mut seqs = Vec::new();
    while let Some(mut view) = stream.next_clip() {
        seqs.extend(reference_engine.push_clip(&mut view).closed);
    }
    seqs.extend(reference_engine.finish());
    let ledger = *stream.ledger();
    let canonical = Arc::new(canon(
        &seqs,
        clips,
        (ledger.object_frames, ledger.action_shots),
    ));
    cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert((video, clips), canonical.clone());
    canonical
}

// ---------------------------------------------------------------------------
// mux_pipeline
// ---------------------------------------------------------------------------

/// Three sessions over a sharded mux; round-robin interleaved feeds;
/// optional worker-panic fault into session 0 at a seeded offset.
fn mux_pipeline(ctx: ScenarioCtx) {
    let mut rng = ctx.rng();
    let clips = ctx.size.max(2);
    let sessions = 3u64;
    let options = MuxOptions::new(1 + rng.below(3)).with_shards(1 + rng.below(2));
    let mux = SessionMux::with_options(options, ExecMetrics::new());

    let oracles: Vec<Arc<DetectionOracle>> = (0..sessions).map(|v| oracle(v, clips)).collect();
    let ids: Vec<_> = oracles
        .iter()
        .enumerate()
        .map(|(i, o)| {
            mux.register(
                format!("sim{i}"),
                o.clone(),
                engine(o),
                Backpressure::Block,
                4 + rng.below(8),
            )
        })
        .collect();

    // Round-robin feed with optional poison ticket into session 0.
    let poison_at = ctx
        .faults
        .worker_panic
        .then(|| rng.below(clips as usize) as u64);
    let mut fed = 0u64;
    for c in 0..clips {
        for (s, &id) in ids.iter().enumerate() {
            if s == 0 && poison_at == Some(c) {
                // The poison sentinel panics the evaluating worker; the
                // pool isolates the panic and poisons only session 0.
                mux.feed(id, svq_exec::POISON_CLIP).expect("stream open");
                fed += 1;
            }
            mux.feed(id, ClipId::new(c)).expect("stream open");
            fed += 1;
        }
    }
    for &id in &ids {
        mux.finish_session(id);
    }

    for (s, &id) in ids.iter().enumerate() {
        let poisoned = s == 0 && poison_at.is_some();
        match mux.wait(id) {
            Ok(result) => {
                assert!(
                    !poisoned,
                    "session 0 swallowed a poison ticket without failing"
                );
                let got = canon(
                    &result.sequences,
                    result.clips_processed,
                    (result.cost.object_frames, result.cost.action_shots),
                );
                assert_eq!(
                    got,
                    *reference(s as u64, clips),
                    "session {s} drifted from its single-threaded reference"
                );
            }
            Err(SessionError::Poisoned) => {
                assert!(poisoned, "session {s} poisoned without an injected fault");
            }
        }
        mux.release(id);
    }

    let snap = mux.metrics().snapshot();
    let delivered: u64 = snap.shards.iter().map(|s| s.delivered).sum();
    assert_eq!(delivered, fed, "every fed ticket crosses an ingress shard");
    let depth: u64 = snap.shards.iter().map(|s| s.ingress_depth).sum();
    assert_eq!(depth, 0, "ingress gauges return to zero after drain");
    assert!(
        snap.jobs_panicked <= 1,
        "at most the injected panic: {}",
        snap.jobs_panicked
    );
    if poison_at.is_none() {
        assert_eq!(snap.jobs_panicked, 0, "no panics without the fault");
    }

    // Liveness: shutdown must terminate (a wedge here is reported by the
    // scheduler as deadlock/livelock, never a hang).
    mux.shutdown();
}

// ---------------------------------------------------------------------------
// double_wait
// ---------------------------------------------------------------------------

/// Two tasks wait() on the same session concurrently. The result is
/// latched, so both must return the same value — and both must *return*:
/// the v3 bug where one waiter consumed the completion notify left the
/// other parked forever, which this world reports as a deadlock.
fn double_wait(ctx: ScenarioCtx) {
    let clips = ctx.size.max(2);
    let mux = Arc::new(SessionMux::new(2, ExecMetrics::new()));
    let o = oracle(0, clips);
    let id = mux.register(
        "shared".into(),
        o.clone(),
        engine(&o),
        Backpressure::Block,
        8,
    );

    let waiters: Vec<_> = (0..2)
        .map(|w| {
            let mux = mux.clone();
            rt::spawn(&format!("waiter{w}"), move || {
                mux.wait(id).expect("session is never poisoned here")
            })
            .expect("sim spawn cannot fail")
        })
        .collect();

    mux.feed_stream(id);

    let mut outcomes = Vec::new();
    for waiter in waiters {
        let result = waiter.join().expect("waiter does not panic");
        outcomes.push(canon(
            &result.sequences,
            result.clips_processed,
            (result.cost.object_frames, result.cost.action_shots),
        ));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "both waiters observe the same latched result"
    );
    assert_eq!(
        outcomes[0],
        *reference(0, clips),
        "latched result matches the single-threaded reference"
    );

    match Arc::try_unwrap(mux) {
        Ok(mux) => mux.shutdown(),
        Err(_) => unreachable!("waiters joined; root holds the last mux handle"),
    }
}

// ---------------------------------------------------------------------------
// reporter
// ---------------------------------------------------------------------------

/// The metrics reporter under virtual time: with a 10 ms interval and a
/// `size × 10 ms + 5 ms` observation window it must tick exactly `size`
/// times, and `stop()` must return in (virtually) no time at all — the v5
/// lost-wakeup left stop() waiting out a full interval because the
/// reporter parked without re-checking the stop flag.
fn reporter(ctx: ScenarioCtx) {
    let ticks_expected = ctx.size.clamp(1, 50);
    let metrics = ExecMetrics::new();
    let ticks = Arc::new(AtomicU64::new(0));
    let sink_ticks = ticks.clone();
    let handle = metrics.spawn_reporter(Duration::from_millis(10), move |_snap| {
        sink_ticks.fetch_add(1, Ordering::Relaxed);
    });

    // Observe for `ticks_expected` intervals plus half an interval of
    // slack, so the count is unambiguous on the virtual clock.
    rt::sleep(Duration::from_millis(10 * ticks_expected + 5));

    let stop_started = rt::monotonic_nanos();
    handle.stop();
    let stop_nanos = rt::monotonic_nanos().saturating_sub(stop_started);
    assert!(
        stop_nanos < 5_000_000,
        "stop() consumed {stop_nanos} ns of virtual time — the reporter \
         parked without re-checking its stop flag (lost wakeup)"
    );
    assert_eq!(
        ticks.load(Ordering::Relaxed),
        ticks_expected,
        "reporter ticks on the virtual clock"
    );
}

// ---------------------------------------------------------------------------
// serve_mem
// ---------------------------------------------------------------------------

/// The offline statement every simulated `query` request carries (the
/// serve test fixture: car + jumping, top 3).
const OFFLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence, RANK(act, obj) \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car') \
     ORDER BY RANK(act, obj) LIMIT 3";

/// The online statement every simulated `stream` request carries.
const ONLINE_SQL: &str = "SELECT MERGE(clipID) AS Sequence \
     FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector, \
     act USING ActionRecognizer) \
     WHERE act='jumping' AND obj.include('car')";

/// Canonical (wall-clock-free) byte encoding of a wire outcome.
fn canonical_json(outcome: &QueryOutcome) -> String {
    serde_json::to_string(&outcome.canonical())
        .unwrap_or_else(|e| unreachable!("canonical outcomes always encode: {e}"))
}

/// In-process reference executions for [`oracle`]`(0, clips)`:
/// `(offline, online)` canonical outcome JSON. Pure computation, cached
/// across schedules (same reasoning as [`reference`]).
fn serve_reference(clips: u64) -> Arc<(String, String)> {
    type Cache = OnceLock<StdMutex<BTreeMap<u64, Arc<(String, String)>>>>;
    static CACHE: Cache = OnceLock::new();
    let cache = CACHE.get_or_init(|| StdMutex::new(BTreeMap::new()));
    if let Some(hit) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(&clips) {
        return hit.clone();
    }
    let o = oracle(0, clips);
    let statement = parse(OFFLINE_SQL).expect("fixture SQL parses");
    let plan = LogicalPlan::from_statement(&statement).expect("fixture SQL plans");
    let catalog = ingest(&o, &PaperScoring, &OnlineConfig::default());
    let offline = execute_offline(&plan, &catalog, &PaperScoring).expect("offline reference runs");
    let statement = parse(ONLINE_SQL).expect("fixture SQL parses");
    let plan = LogicalPlan::from_statement(&statement).expect("fixture SQL plans");
    let mut stream = VideoStream::new(&o);
    let online =
        execute_online(&plan, &mut stream, OnlineConfig::default()).expect("online reference runs");
    let pair = Arc::new((canonical_json(&offline), canonical_json(&online)));
    cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(clips, pair.clone());
    pair
}

/// [`Scenario::prepare`] for [`serve_mem`]: compute the reference outcomes
/// outside the world so a cache miss never shows up in a trace.
fn serve_mem_prepare(ctx: ScenarioCtx) {
    serve_reference(ctx.size.max(2));
}

/// The full `svq-serve` stack — acceptor, admission, per-connection
/// handlers, the shared worker pool — over [`MemTransport`], with concurrent
/// protocol clients as sim tasks. Optional faults: a connection dropped
/// abortively mid-frame (`drop_conn`) and a client that stalls past the
/// server's read deadline (`stall_client`). Invariants: every well-behaved
/// client's outcomes are byte-identical (canonically) to in-process
/// execution, faulted connections are refused/closed in isolation, and
/// shutdown + drain terminate with nothing force-closed.
fn serve_mem(ctx: ScenarioCtx) {
    let mut rng = ctx.rng();
    let clips = ctx.size.max(2);
    let reference = serve_reference(clips);

    let o = oracle(0, clips);
    let repo = Arc::new(VideoRepository::from_catalogs([ingest(
        &o,
        &PaperScoring,
        &OnlineConfig::default(),
    )]));
    let transport = MemTransport::new();
    let read_timeout = Duration::from_millis(50 + rng.below(4) as u64 * 25);
    let config = ServeConfig::builder()
        .max_conns(8)
        .read_timeout(read_timeout)
        .write_timeout(Duration::from_millis(200))
        .drain_timeout(Duration::from_millis(200))
        .workers(1 + rng.below(2))
        .build()
        .expect("config is valid");
    let handle = Server::start_on(
        transport.clone(),
        config,
        Some(repo),
        vec![o],
        ExecMetrics::new(),
    )
    .expect("in-memory server starts");

    let mut tasks = Vec::new();

    // Well-behaved clients: one query + one stream each, checked against
    // the in-process reference byte-for-byte (canonical form).
    for c in 0..2 {
        let transport = transport.clone();
        let reference = reference.clone();
        tasks.push(
            rt::spawn(&format!("client{c}"), move || {
                let mut client =
                    Client::over(Box::new(transport.connect()), Duration::from_secs(5))
                        .expect("loopback connect");
                let served = client
                    .expect_outcome(&Request::Query {
                        sql: OFFLINE_SQL.into(),
                        video: VideoScope::One(0),
                    })
                    .expect("query answered");
                assert_eq!(
                    canonical_json(&served),
                    reference.0,
                    "served offline outcome drifted from in-process execution"
                );
                let served = client
                    .expect_outcome(&Request::Stream {
                        sql: ONLINE_SQL.into(),
                        video: Some(0),
                    })
                    .expect("stream answered");
                assert_eq!(
                    canonical_json(&served),
                    reference.1,
                    "served online outcome drifted from in-process execution"
                );
            })
            .expect("sim spawn cannot fail"),
        );
    }

    // Fault: a connection abortively closed with half a request frame on
    // the wire. The server may see a truncated line or a bare EOF
    // (schedule-dependent); either way nobody else notices.
    if ctx.faults.drop_conn {
        let transport = transport.clone();
        let cut = 1 + rng.below(encode_line(&Request::Stats).len() - 2);
        tasks.push(
            rt::spawn("dropper", move || {
                let mut conn = transport.connect();
                let line = encode_line(&Request::Stats);
                let _ = std::io::Write::write_all(&mut conn, &line.as_bytes()[..cut]);
                let _ = conn.shutdown_both();
            })
            .expect("sim spawn cannot fail"),
        );
    }

    // Fault: a client that goes silent past the read deadline. It must be
    // answered with a typed `timeout` frame and a close — never hold its
    // slot forever.
    if ctx.faults.stall_client {
        let transport = transport.clone();
        tasks.push(
            rt::spawn("staller", move || {
                let mut client =
                    Client::over(Box::new(transport.connect()), Duration::from_secs(5))
                        .expect("loopback connect");
                rt::sleep(read_timeout * 2);
                match client.read_response() {
                    Ok(Response::Error { reason, .. }) => {
                        assert_eq!(reason, RejectReason::Timeout, "stall answered with timeout");
                    }
                    other => unreachable!("stalled client expected a timeout frame: {other:?}"),
                }
            })
            .expect("sim spawn cannot fail"),
        );
    }

    for task in tasks {
        task.join().expect("client task does not panic");
    }

    // Shut down over the wire or via the handle — both paths must drain.
    if rng.chance(1, 2) {
        let mut client = Client::over(Box::new(transport.connect()), Duration::from_secs(5))
            .expect("loopback connect");
        let bye = client
            .request(&Request::Shutdown)
            .expect("shutdown answered");
        assert_eq!(bye, Response::Bye, "wire shutdown acknowledged");
    } else {
        handle.shutdown();
    }
    let report = handle.wait();
    assert!(report.accepted >= 2, "both well-behaved clients admitted");
    assert!(report.requests >= 4, "four data requests served");
    assert!(
        report.drained_in_deadline && report.forced_closes == 0,
        "drain terminates with nothing force-closed: {report:?}"
    );
    let expected_timeouts = u64::from(ctx.faults.stall_client);
    assert_eq!(
        report.timed_out, expected_timeouts,
        "exactly the stalled client times out"
    );
}

// ---------------------------------------------------------------------------
// serve_pipeline
// ---------------------------------------------------------------------------

/// Protocol-v2 pipelining under the simulated scheduler: clients burst
/// id-tagged `query`/`stream`/`stats` frames without waiting, then match
/// every response back to its request id and check outcomes byte-for-byte
/// against the in-process reference. One more client bursts id-less frames
/// of random kinds before reading any, and must get them answered in
/// request order, byte-identical too. Optional faults: a connection aborted
/// with a complete frame answered and a second frame torn mid-line
/// (`drop_conn`), and a client silent past the read deadline
/// (`stall_client`). Invariants: per-id matching (each id answered exactly
/// once, with the outcome its kind demands), v1 request order, fault
/// isolation, and a drain that terminates with nothing force-closed.
fn serve_pipeline(ctx: ScenarioCtx) {
    let mut rng = ctx.rng();
    let clips = ctx.size.max(2);
    let reference = serve_reference(clips);

    let o = oracle(0, clips);
    let repo = Arc::new(VideoRepository::from_catalogs([ingest(
        &o,
        &PaperScoring,
        &OnlineConfig::default(),
    )]));
    let transport = MemTransport::new();
    let read_timeout = Duration::from_millis(50 + rng.below(4) as u64 * 25);
    let config = ServeConfig::builder()
        .max_conns(8)
        .read_timeout(read_timeout)
        .write_timeout(Duration::from_millis(200))
        .drain_timeout(Duration::from_millis(400))
        .workers(1 + rng.below(2))
        // Depth 2 forces the reader to park at the in-flight bound under
        // some schedules; deeper depths keep the whole burst in flight.
        .pipeline_depth(2 + rng.below(4))
        .build()
        .expect("config is valid");
    let handle = Server::start_on(
        transport.clone(),
        config,
        Some(repo),
        vec![o],
        ExecMetrics::new(),
    )
    .expect("in-memory server starts");

    let mut tasks = Vec::new();

    // Pipelined clients: each bursts `burst` id-tagged requests of rotating
    // kinds, then reads the whole batch back and matches by id.
    let mut data_requests = 0u64;
    for c in 0..2u64 {
        let transport = transport.clone();
        let reference = reference.clone();
        let burst = 3 + rng.below(3) as u64;
        data_requests += burst;
        tasks.push(
            rt::spawn(&format!("pipeliner{c}"), move || {
                let kind_of = |id: u64| (id + c) % 3;
                let request_of = |id: u64| match kind_of(id) {
                    0 => Request::Query {
                        sql: OFFLINE_SQL.into(),
                        video: VideoScope::One(0),
                    },
                    1 => Request::Stream {
                        sql: ONLINE_SQL.into(),
                        video: Some(0),
                    },
                    _ => Request::Stats,
                };
                let mut client =
                    Client::over(Box::new(transport.connect()), Duration::from_secs(5))
                        .expect("loopback connect");
                for id in 0..burst {
                    client
                        .send(&request_of(id), Some(id))
                        .expect("pipelined send");
                }
                let mut answered = BTreeMap::new();
                for _ in 0..burst {
                    let (id, response) = client.read_tagged().expect("tagged response");
                    let id = id.unwrap_or_else(|| unreachable!("v2 responses echo the id"));
                    assert!(id < burst, "response for an id never requested: {id}");
                    assert!(
                        answered.insert(id, ()).is_none(),
                        "response id {id} answered twice"
                    );
                    match (kind_of(id), response) {
                        (0, Response::Outcome(outcome)) => assert_eq!(
                            canonical_json(&outcome),
                            reference.0,
                            "pipelined query {id} drifted from in-process execution"
                        ),
                        (1, Response::Outcome(outcome)) => assert_eq!(
                            canonical_json(&outcome),
                            reference.1,
                            "pipelined stream {id} drifted from in-process execution"
                        ),
                        (2, Response::Stats(_)) => {}
                        (kind, other) => {
                            unreachable!("id {id} (kind {kind}) answered with {other:?}")
                        }
                    }
                }
                assert_eq!(
                    answered.len() as u64,
                    burst,
                    "every id answered exactly once"
                );
            })
            .expect("sim spawn cannot fail"),
        );
    }

    // An id-less burst: every frame goes out before the first read, so
    // only the server's dispatch rule keeps the responses in request order.
    let kinds: Vec<usize> = (0..4 + rng.below(3)).map(|_| rng.below(3)).collect();
    data_requests += kinds.len() as u64;
    {
        let transport = transport.clone();
        let reference = reference.clone();
        tasks.push(
            rt::spawn("v1burst", move || {
                let mut client =
                    Client::over(Box::new(transport.connect()), Duration::from_secs(5))
                        .expect("loopback connect");
                for &kind in &kinds {
                    let request = match kind {
                        0 => Request::Query {
                            sql: OFFLINE_SQL.into(),
                            video: VideoScope::One(0),
                        },
                        1 => Request::Stream {
                            sql: ONLINE_SQL.into(),
                            video: Some(0),
                        },
                        _ => Request::Stats,
                    };
                    client.send(&request, None).expect("id-less send");
                }
                for (at, &kind) in kinds.iter().enumerate() {
                    let (id, response) = client.read_tagged().expect("v1 response");
                    assert!(id.is_none(), "v1 response {at} carries an id: {id:?}");
                    match (kind, response) {
                        (0, Response::Outcome(outcome)) => assert_eq!(
                            canonical_json(&outcome),
                            reference.0,
                            "id-less query {at} drifted from in-process execution"
                        ),
                        (1, Response::Outcome(outcome)) => assert_eq!(
                            canonical_json(&outcome),
                            reference.1,
                            "id-less stream {at} drifted from in-process execution"
                        ),
                        (2, Response::Stats(_)) => {}
                        (kind, other) => unreachable!(
                            "id-less frame {at} (kind {kind}) answered out of order: {other:?}"
                        ),
                    }
                }
            })
            .expect("sim spawn cannot fail"),
        );
    }

    // Fault: an id-tagged connection aborted mid-pipeline — one complete
    // frame on the wire, a second torn mid-line, then an abortive close.
    // The complete frame may or may not be answered (the abort races the
    // writer); nobody else's ids are disturbed either way.
    if ctx.faults.drop_conn {
        let transport = transport.clone();
        let line = encode_request_line(&Request::Stats, Some(7));
        let cut = 1 + rng.below(line.len() - 2);
        tasks.push(
            rt::spawn("dropper", move || {
                let mut conn = transport.connect();
                let whole = encode_request_line(&Request::Stats, Some(3));
                let _ = std::io::Write::write_all(&mut conn, whole.as_bytes());
                let _ = std::io::Write::write_all(&mut conn, &line.as_bytes()[..cut]);
                let _ = conn.shutdown_both();
            })
            .expect("sim spawn cannot fail"),
        );
    }

    // Fault: a client silent past the read deadline must get a typed
    // `timeout` frame and a close, exactly as under v1 — pipelining never
    // lets an idle connection hold its slot.
    if ctx.faults.stall_client {
        let transport = transport.clone();
        tasks.push(
            rt::spawn("staller", move || {
                let mut client =
                    Client::over(Box::new(transport.connect()), Duration::from_secs(5))
                        .expect("loopback connect");
                rt::sleep(read_timeout * 2);
                match client.read_response() {
                    Ok(Response::Error { reason, .. }) => {
                        assert_eq!(reason, RejectReason::Timeout, "stall answered with timeout");
                    }
                    other => unreachable!("stalled client expected a timeout frame: {other:?}"),
                }
            })
            .expect("sim spawn cannot fail"),
        );
    }

    for task in tasks {
        task.join().expect("client task does not panic");
    }

    if rng.chance(1, 2) {
        let mut client = Client::over(Box::new(transport.connect()), Duration::from_secs(5))
            .expect("loopback connect");
        let bye = client
            .request(&Request::Shutdown)
            .expect("shutdown answered");
        assert_eq!(bye, Response::Bye, "wire shutdown acknowledged");
    } else {
        handle.shutdown();
    }
    let report = handle.wait();
    assert!(report.accepted >= 3, "every pipelining client admitted");
    assert!(
        report.requests >= data_requests,
        "every pipelined request answered: {report:?}"
    );
    assert!(
        report.drained_in_deadline && report.forced_closes == 0,
        "drain terminates with nothing force-closed: {report:?}"
    );
    let expected_timeouts = u64::from(ctx.faults.stall_client);
    assert_eq!(
        report.timed_out, expected_timeouts,
        "exactly the stalled client times out"
    );
}

// ---------------------------------------------------------------------------
// subscribe_fanout
// ---------------------------------------------------------------------------

/// Standing queries under the simulated scheduler: an in-memory server
/// with a paced live source fans events out to `size` concurrent
/// subscribers while the schedule tears at the registry. Half the
/// schedules drain the server mid-replay — while subscriptions are still
/// live — and half let the source exhaust and fan terminal frames first.
/// Optional faults: a connection that subscribes and then aborts with a
/// torn `unsubscribe` frame on the wire (`drop_conn`), and a client
/// silent past the read deadline (`stall_client`). Invariants: event
/// `seq`s arrive strictly increasing past `from_seq`; every terminal's
/// accounting closes (`delivered + missed == total`, with every delivered
/// event received and `lagged` notices within `missed`); a subscription
/// only loses its stream without a terminal once the drain began; and
/// shutdown + drain terminate with nothing force-closed even with
/// subscriptions live.
fn subscribe_fanout(ctx: ScenarioCtx) {
    let mut rng = ctx.rng();
    let subs = ctx.size.max(2) as usize;

    // The episode script is pinned (seed 42, the bench-validated source)
    // so every schedule replays footage that produces events no matter
    // the scheduler seed; pacing jitter and interleaving still vary.
    let source = LiveSourceConfig::parse("action=jumping,objects=car,minutes=10,seed=42,rate=800")
        .expect("fixture source spec parses");
    let clips = source.minutes * 30;
    // Per-clip gaps are jittered within [3/4, 5/4] of the nominal
    // interval, so this bounds the whole replay in virtual time.
    let replay_ceiling = Duration::from_nanos(clips * (1_000_000_000 / source.rate) * 5 / 4);

    let transport = MemTransport::new();
    let read_timeout = Duration::from_secs(2);
    let config = ServeConfig::builder()
        .max_conns(subs + 6)
        .read_timeout(read_timeout)
        .write_timeout(Duration::from_millis(500))
        .drain_timeout(Duration::from_secs(2))
        .workers(1 + rng.below(2))
        .build()
        .expect("config is valid");
    let handle = Server::start_on_with_source(
        transport.clone(),
        config,
        None,
        vec![],
        Some(source),
        ExecMetrics::new(),
    )
    .expect("in-memory server starts with a live source");

    // Set before the shutdown is initiated: losing a subscription stream
    // without its terminal frame is legal only once this is true.
    let closing = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));
    let events_total = Arc::new(AtomicU64::new(0));
    let terminals = Arc::new(AtomicU64::new(0));

    let mut tasks = Vec::new();
    // At most one subscriber unsubscribes explicitly right after its ack;
    // the rest hold their subscription until the source exhausts or the
    // drain closes them.
    let early_unsub = if rng.chance(1, 2) {
        Some(rng.below(subs))
    } else {
        None
    };
    for s in 0..subs {
        let transport = transport.clone();
        let closing = closing.clone();
        let acked = acked.clone();
        let events_total = events_total.clone();
        let terminals = terminals.clone();
        let early = early_unsub == Some(s);
        let drift_every = if s % 3 == 0 { 25 } else { 0 };
        tasks.push(
            rt::spawn(&format!("subscriber{s}"), move || {
                let caller = Caller::over(Box::new(transport.connect()), Duration::from_secs(5))
                    .expect("loopback connect");
                let sub = caller
                    .subscribe(ONLINE_SQL, None, drift_every)
                    .expect("subscribe acked before the drain begins");
                acked.fetch_add(1, Ordering::SeqCst);
                if early {
                    match sub.unsubscribe() {
                        Ok(Response::Unsubscribed {
                            delivered,
                            missed,
                            total,
                            ..
                        }) => assert_eq!(
                            delivered + missed,
                            total,
                            "unsubscribe ack accounting closes"
                        ),
                        Ok(other) => unreachable!("unsubscribe acked with {other:?}"),
                        // The drain may beat the unsubscribe frame to the
                        // server; the mailbox still ends cleanly below.
                        Err(e) => assert!(
                            closing.load(Ordering::SeqCst),
                            "unsubscribe failed outside the drain: {e}"
                        ),
                    }
                }
                let mut last_seq = sub.from_seq();
                let (mut events, mut lagged) = (0u64, 0u64);
                let mut terminal = None;
                loop {
                    match sub.next() {
                        Ok(Some(Response::Event { seq, .. })) => {
                            assert!(
                                seq > last_seq,
                                "event seqs strictly increase past from_seq \
                                 ({seq} after {last_seq})"
                            );
                            last_seq = seq;
                            events += 1;
                        }
                        Ok(Some(Response::Lagged { missed, .. })) => {
                            assert!(missed > 0, "a lagged notice reports a non-empty gap");
                            lagged += missed;
                        }
                        Ok(Some(Response::Drift { .. })) => {}
                        Ok(Some(Response::Unsubscribed {
                            delivered,
                            missed,
                            total,
                            ..
                        })) => terminal = Some((delivered, missed, total)),
                        Ok(Some(other)) => unreachable!("unexpected pushed frame: {other:?}"),
                        Ok(None) => break,
                        Err(e) => {
                            assert!(
                                closing.load(Ordering::SeqCst),
                                "subscription died outside the drain: {e}"
                            );
                            break;
                        }
                    }
                }
                if let Some((delivered, missed, total)) = terminal {
                    assert_eq!(
                        events, delivered,
                        "every delivered event reached the client (no silent drop)"
                    );
                    assert_eq!(delivered + missed, total, "terminal accounting closes");
                    assert!(
                        lagged <= missed,
                        "lagged notices stay within the terminal missed count"
                    );
                    terminals.fetch_add(1, Ordering::SeqCst);
                }
                events_total.fetch_add(events, Ordering::SeqCst);
            })
            .expect("sim spawn cannot fail"),
        );
    }

    // Fault: a connection that subscribes, tears half an `unsubscribe`
    // frame onto the wire, and aborts. `conn_closed` retires its
    // subscription without a push; nobody else's stream is disturbed.
    if ctx.faults.drop_conn {
        let transport = transport.clone();
        let whole = encode_request_line(
            &Request::Subscribe {
                sql: ONLINE_SQL.into(),
                video: None,
                drift_every: 0,
            },
            Some(1),
        );
        let torn = encode_request_line(&Request::Unsubscribe { sub: 1 }, Some(2));
        let cut = 1 + rng.below(torn.len() - 2);
        tasks.push(
            rt::spawn("dropper", move || {
                let mut conn = transport.connect();
                let _ = std::io::Write::write_all(&mut conn, whole.as_bytes());
                let _ = std::io::Write::write_all(&mut conn, &torn.as_bytes()[..cut]);
                let _ = conn.shutdown_both();
            })
            .expect("sim spawn cannot fail"),
        );
    }

    // Fault: a silent client. It gets the usual typed `timeout` frame —
    // unless this schedule's drain closes the connection first (the
    // scenario shuts down while subscriptions are live, so both endings
    // are legal here, unlike in `serve_mem`).
    if ctx.faults.stall_client {
        let transport = transport.clone();
        let closing = closing.clone();
        tasks.push(
            rt::spawn("staller", move || {
                let mut client =
                    Client::over(Box::new(transport.connect()), Duration::from_secs(5))
                        .expect("loopback connect");
                rt::sleep(read_timeout * 2);
                match client.read_response() {
                    Ok(Response::Error { reason, .. }) => {
                        assert_eq!(reason, RejectReason::Timeout, "stall answered with timeout");
                    }
                    Ok(other) => unreachable!("stalled client expected a timeout frame: {other:?}"),
                    Err(e) => assert!(
                        closing.load(Ordering::SeqCst),
                        "stalled connection died outside the drain: {e}"
                    ),
                }
            })
            .expect("sim spawn cannot fail"),
        );
    }

    // Every subscription is live before the shutdown decision, so the
    // drain — whenever it lands — always races active subscriptions.
    while acked.load(Ordering::SeqCst) < subs as u64 {
        rt::sleep(Duration::from_millis(1));
    }
    let exhaust_first = rng.chance(1, 2);
    if exhaust_first {
        rt::sleep(replay_ceiling * 2);
    } else {
        rt::sleep(Duration::from_millis(rng.below(150) as u64));
    }
    closing.store(true, Ordering::SeqCst);
    if rng.chance(1, 2) {
        let mut client = Client::over(Box::new(transport.connect()), Duration::from_secs(5))
            .expect("loopback connect");
        let bye = client
            .request(&Request::Shutdown)
            .expect("shutdown answered");
        assert_eq!(bye, Response::Bye, "wire shutdown acknowledged");
    } else {
        handle.shutdown();
    }
    for task in tasks {
        task.join().expect("subscriber task does not panic");
    }
    let report = handle.wait();
    assert!(
        report.accepted >= subs as u64,
        "every subscriber connection admitted"
    );
    assert!(
        report.drained_in_deadline && report.forced_closes == 0,
        "drain terminates with nothing force-closed: {report:?}"
    );
    if exhaust_first {
        assert_eq!(
            terminals.load(Ordering::SeqCst),
            subs as u64,
            "an exhausted source fans a terminal frame to every survivor"
        );
        assert!(
            events_total.load(Ordering::SeqCst) > 0,
            "the replay produced events for the fleet"
        );
    }
}

// ---------------------------------------------------------------------------
// cluster_router
// ---------------------------------------------------------------------------

/// The two videos a simulated cluster serves: the first ids that
/// `svq_exec::shard_index` places on shard 0 and shard 1 of a two-shard
/// cluster, so placement in the scenario is exactly the deployed hash.
fn cluster_videos() -> (u64, u64) {
    let on = |shard: usize| {
        (0u64..64)
            .find(|&v| svq_exec::shard_index(VideoId::new(v), 2) == shard)
            .unwrap_or_else(|| unreachable!("splitmix64 covers both shards within 64 ids"))
    };
    (on(0), on(1))
}

/// In-process references for the cluster scenario, cached across schedules:
/// canonical offline outcome JSON per video, plus the cross-catalog
/// (`video: "all"`) outcome over the combined repository.
fn cluster_reference(clips: u64) -> Arc<(BTreeMap<u64, String>, String)> {
    type Cache = OnceLock<StdMutex<BTreeMap<u64, Arc<(BTreeMap<u64, String>, String)>>>>;
    static CACHE: Cache = OnceLock::new();
    let cache = CACHE.get_or_init(|| StdMutex::new(BTreeMap::new()));
    if let Some(hit) = cache.lock().unwrap_or_else(|e| e.into_inner()).get(&clips) {
        return hit.clone();
    }
    let (va, vb) = cluster_videos();
    let statement = parse(OFFLINE_SQL).expect("fixture SQL parses");
    let plan = LogicalPlan::from_statement(&statement).expect("fixture SQL plans");
    let mut per_video = BTreeMap::new();
    let mut catalogs = Vec::new();
    for v in [va, vb] {
        let catalog = ingest(&oracle(v, clips), &PaperScoring, &OnlineConfig::default());
        let outcome =
            execute_offline(&plan, &catalog, &PaperScoring).expect("offline reference runs");
        per_video.insert(v, canonical_json(&outcome));
        catalogs.push(catalog);
    }
    let combined = VideoRepository::from_catalogs(catalogs);
    let all = execute_offline_all(&plan, &combined, &PaperScoring).expect("cluster reference runs");
    let entry = Arc::new((per_video, canonical_json(&all)));
    cache
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(clips, entry.clone());
    entry
}

/// [`Scenario::prepare`] for [`cluster_router`].
fn cluster_router_prepare(ctx: ScenarioCtx) {
    cluster_reference(ctx.size.max(2));
}

/// One shard server owning exactly `video`, over its own [`MemTransport`].
fn start_mem_shard(
    transport: Arc<MemTransport>,
    video: u64,
    clips: u64,
) -> svq_serve::ServerHandle {
    let o = oracle(video, clips);
    let repo = Arc::new(VideoRepository::from_catalogs([ingest(
        &o,
        &PaperScoring,
        &OnlineConfig::default(),
    )]));
    let config = ServeConfig::builder()
        .max_conns(8)
        .read_timeout(Duration::from_secs(2))
        .write_timeout(Duration::from_millis(200))
        .drain_timeout(Duration::from_millis(400))
        .workers(1)
        .build()
        .expect("config is valid");
    Server::start_on(transport, config, Some(repo), vec![o], ExecMetrics::new())
        .expect("in-memory shard starts")
}

/// A router fronting two in-memory shard servers, with faults at both
/// layers. `stall_shard` replaces shard 1 with an acceptor that takes
/// connections but never answers a frame — the router's upstream read
/// deadline must convert the silence into a typed `shard_unavailable`,
/// never a hang. The always-on kill phase (when shard 1 is real) shuts it
/// down and asserts the same typed answer over refused dials. `drop_conn`
/// aborts a front-door connection mid-frame. Shard 0 must stay untouched
/// by every fault, and the router's drain must terminate with nothing
/// force-closed.
fn cluster_router(ctx: ScenarioCtx) {
    let mut rng = ctx.rng();
    let clips = ctx.size.max(2);
    let reference = cluster_reference(clips);
    let (va, vb) = cluster_videos();

    let shard_a = MemTransport::new();
    let shard_b = MemTransport::new();
    let server_a = start_mem_shard(shard_a.clone(), va, clips);

    // Shard 1: a real server, or — under the stall fault — an acceptor
    // that parks every connection unanswered until told to stop.
    let mut server_b = None;
    let mut staller = None;
    let stall_stop = Arc::new(AtomicBool::new(false));
    if ctx.faults.stall_shard {
        let transport = shard_b.clone();
        let stop = stall_stop.clone();
        staller = Some(
            rt::spawn("stalled-shard", move || {
                let mut parked = Vec::new();
                loop {
                    match transport.accept() {
                        Ok(conn) => parked.push(conn),
                        Err(_) if stop.load(Ordering::Acquire) => break,
                        Err(_) => {}
                    }
                }
                drop(parked);
            })
            .expect("sim spawn cannot fail"),
        );
    } else {
        server_b = Some(start_mem_shard(shard_b.clone(), vb, clips));
    }

    // The router: upstream deadlines far below the client's read timeout,
    // so a stalled shard resolves typed while the client still waits.
    let upstream_timeout = Duration::from_millis(100 + rng.below(4) as u64 * 50);
    let front = MemTransport::new();
    let config = RouteConfig::builder()
        .max_conns(8)
        .read_timeout(Duration::from_secs(2))
        .write_timeout(Duration::from_millis(200))
        .drain_timeout(Duration::from_millis(400))
        .upstream_timeout(upstream_timeout)
        .connect_attempts(2)
        .build()
        .expect("config is valid");
    let connectors: Vec<Arc<dyn Connector>> = vec![shard_a.clone(), shard_b.clone()];
    let router = Router::start_on(front.clone(), config, connectors, ExecMetrics::new())
        .expect("in-memory router starts");

    let mut client =
        Client::over(Box::new(front.connect()), Duration::from_secs(10)).expect("loopback connect");

    // Fault: a front-door connection aborted mid-frame. The router's own
    // protocol hardening answers it; nobody else notices.
    let dropper = ctx.faults.drop_conn.then(|| {
        let transport = front.clone();
        let cut = 1 + rng.below(encode_line(&Request::Stats).len() - 2);
        rt::spawn("dropper", move || {
            let mut conn = transport.connect();
            let line = encode_line(&Request::Stats);
            let _ = std::io::Write::write_all(&mut conn, &line.as_bytes()[..cut]);
            let _ = conn.shutdown_both();
        })
        .expect("sim spawn cannot fail")
    });

    let query_one = |v: u64| Request::Query {
        sql: OFFLINE_SQL.into(),
        video: VideoScope::One(v),
    };
    let query_all = Request::Query {
        sql: OFFLINE_SQL.into(),
        video: VideoScope::All,
    };
    let expect_unavailable = |client: &mut Client, request: &Request, what: &str| match client
        .request(request)
        .expect("typed answer, not a hang")
    {
        Response::Error { reason, message } => {
            assert_eq!(
                reason,
                RejectReason::ShardUnavailable,
                "{what}: wrong reason ({message})"
            );
            assert!(
                message.contains("shard 1"),
                "{what} names the shard: {message}"
            );
        }
        other => unreachable!("{what} expected shard_unavailable, got {other:?}"),
    };

    // Shard 0 serves byte-identically through the router, whatever the
    // fault plan does to shard 1.
    let served = client
        .expect_outcome(&query_one(va))
        .expect("shard 0 query answered");
    assert_eq!(
        canonical_json(&served),
        reference.0[&va],
        "routed outcome for video {va} drifted from in-process execution"
    );

    if ctx.faults.stall_shard {
        // The stalled shard resolves typed at the upstream deadline.
        expect_unavailable(&mut client, &query_one(vb), "stalled targeted query");
        expect_unavailable(&mut client, &query_all, "stalled cluster top-k");
    } else {
        // Healthy cluster: targeted, cross-catalog, and aggregate views.
        let served = client
            .expect_outcome(&query_one(vb))
            .expect("shard 1 query answered");
        assert_eq!(
            canonical_json(&served),
            reference.0[&vb],
            "routed outcome for video {vb} drifted from in-process execution"
        );
        let served = client
            .expect_outcome(&query_all)
            .expect("cluster top-k answered");
        assert_eq!(
            canonical_json(&served),
            reference.1,
            "routed cluster top-k drifted from in-process execution"
        );
        match client.request(&Request::Stats).expect("stats answered") {
            Response::Stats(stats) => {
                assert_eq!(
                    (stats.shards, stats.shards_up),
                    (2, 2),
                    "healthy cluster view"
                );
                assert_eq!(stats.catalog_videos, 2, "summed catalogs");
            }
            other => unreachable!("stats expected, got {other:?}"),
        }

        // Kill phase: a shard shut down mid-service answers as typed
        // shard_unavailable over refused dials — and only that shard.
        let dead = server_b
            .take()
            .unwrap_or_else(|| unreachable!("real shard exists"));
        dead.shutdown();
        dead.wait();
        expect_unavailable(&mut client, &query_one(vb), "killed targeted query");
        expect_unavailable(&mut client, &query_all, "killed cluster top-k");
    }

    // Fault isolation: shard 0 still serves, and stats degrade to a
    // best-effort cluster view rather than failing.
    let served = client
        .expect_outcome(&query_one(va))
        .expect("shard 0 survives the faults");
    assert_eq!(
        canonical_json(&served),
        reference.0[&va],
        "shard 0 drifted after faults elsewhere"
    );
    match client.request(&Request::Stats).expect("stats answered") {
        Response::Stats(stats) => {
            assert_eq!(stats.shards, 2, "configured fan-out");
            assert_eq!(stats.shards_up, 1, "the faulted shard counts down");
        }
        other => unreachable!("stats expected, got {other:?}"),
    }

    if let Some(dropper) = dropper {
        dropper.join().expect("dropper does not panic");
    }

    // Drain the router — over the wire or via the handle — and the
    // surviving shard. Both must terminate with nothing force-closed.
    if rng.chance(1, 2) {
        let bye = client
            .request(&Request::Shutdown)
            .expect("shutdown answered");
        assert_eq!(bye, Response::Bye, "wire shutdown acknowledged");
    } else {
        router.shutdown();
    }
    drop(client);
    let report = router.wait();
    assert!(
        report.drained_in_deadline && report.forced_closes == 0,
        "router drain terminates with nothing force-closed: {report:?}"
    );

    if let Some(staller) = staller {
        stall_stop.store(true, Ordering::Release);
        shard_b.wake();
        staller.join().expect("stalled shard acceptor exits");
    }
    server_a.shutdown();
    let report = server_a.wait();
    assert!(
        report.drained_in_deadline,
        "shard drain terminates: {report:?}"
    );
}

// ---------------------------------------------------------------------------
// Scenario: ingest_crash
// ---------------------------------------------------------------------------

/// Parallel ingestion spilling through [`DirSink`], killed mid-stream
/// and restarted. Faults: `crash_sink` makes the sink die after a
/// seed-chosen number of accepts (the process "crashes" with some catalogs
/// durable and some not); `torn_manifest` additionally tears bytes off the
/// manifest's final line, as a crash between append and flush would.
/// Restart resumes from the manifest, re-ingests only what is not durable,
/// and the recovered directory must be byte-identical — manifest and every
/// catalog file — to a purely computed reference, under every schedule.
fn ingest_crash(ctx: ScenarioCtx) {
    let mut rng = ctx.rng();
    let clips = ctx.size.clamp(2, 12);
    let n_videos = 3u64;
    let oracles: Vec<Arc<DetectionOracle>> = (0..n_videos).map(|v| oracle(v, clips)).collect();
    let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
    let config = OnlineConfig::default();
    let workers = 1 + rng.below(2);

    // Reference bytes, computed without any sink or pool: per-video catalog
    // file plus the manifest `finish()` must leave behind (VideoId order).
    let mut expected = Vec::new();
    let mut want_manifest = String::new();
    for v in 0..n_videos {
        let catalog = ingest(&oracles[v as usize], &PaperScoring, &config);
        let bytes = catalog
            .encode()
            .expect("synth clip ids fit the file's columns");
        want_manifest.push_str(&format!(
            "{{\"video\":{v},\"file\":\"video-{v}.svqc\",\"clips\":{},\"bytes\":{}}}\n",
            catalog.clip_count,
            bytes.len()
        ));
        expected.push((format!("video-{v}.svqc"), bytes));
    }

    let dir = std::env::temp_dir().join(format!(
        "svq_sim_ingest_{}_{}_{}_{}",
        std::process::id(),
        ctx.seed,
        ctx.size,
        ctx.faults.label().replace(',', "+")
    ));
    std::fs::remove_dir_all(&dir).ok();

    // First run: dies mid-stream when the crash fault is armed.
    if ctx.faults.crash_sink {
        let fail_after = rng.below(n_videos as usize) as u64;
        let crashed = parallel_ingest_into(
            &oracles,
            scoring.clone(),
            config,
            workers,
            ExecMetrics::new(),
            FailingSink::new(
                DirSink::create(&dir).expect("spill dir creates"),
                fail_after,
            ),
        );
        assert!(crashed.is_err(), "the injected sink crash surfaces");
    } else {
        let report = parallel_ingest_into(
            &oracles,
            scoring.clone(),
            config,
            workers,
            ExecMetrics::new(),
            DirSink::create(&dir).expect("spill dir creates"),
        )
        .expect("uninterrupted ingest completes");
        assert_eq!(report.videos, n_videos, "every video spilled");
    }

    if ctx.faults.torn_manifest {
        // A crash between append and flush leaves a torn final line.
        let path = dir.join("manifest.json");
        let text = std::fs::read_to_string(&path).expect("manifest readable");
        if !text.is_empty() {
            let keep = text.len().saturating_sub(1 + rng.below(3));
            std::fs::write(&path, &text.as_bytes()[..keep]).expect("manifest tears");
        }
    }

    // Restart: resume the directory, skip what already survived, re-ingest
    // the rest. (Without faults this is a no-op resume over a complete
    // directory — it must still converge to the same bytes.)
    if ctx.faults.crash_sink || ctx.faults.torn_manifest {
        let resumed = DirSink::resume(&dir).expect("resume reads the manifest");
        let durable: Vec<u64> = resumed.recovered().iter().map(|e| e.video.raw()).collect();
        let remaining: Vec<Arc<DetectionOracle>> = oracles
            .iter()
            .filter(|o| !durable.contains(&o.truth().video.raw()))
            .cloned()
            .collect();
        let report = parallel_ingest_into(
            &remaining,
            scoring,
            config,
            workers,
            ExecMetrics::new(),
            resumed,
        )
        .expect("restarted ingest completes");
        assert_eq!(
            report.videos, n_videos,
            "recovered + re-ingested covers every video"
        );
    }

    // Byte identity, file for file, against the purely computed reference —
    // no matter where the crash landed or how the workers interleaved.
    let got = std::fs::read_to_string(dir.join("manifest.json")).expect("manifest readable");
    assert_eq!(got, want_manifest, "manifest drifted from reference bytes");
    for (name, want) in &expected {
        let got = std::fs::read(dir.join(name)).expect("catalog file readable");
        assert_eq!(&got, want, "{name} drifted from reference bytes");
    }
    std::fs::remove_dir_all(&dir).ok();
}
