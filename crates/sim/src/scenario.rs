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
//! * **Conservation** — every fed clip is evaluated exactly once (up to an
//!   injected fault); gauges return to zero after a drain.
//! * **Liveness** — drains, waits, and stops terminate in virtual time
//!   (a wedge is a detected deadlock/livelock, never a hang).

use crate::rng::{self, SimRng};
use parking_lot::rt;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
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
    encode_line, encode_request_line, Client, Conn, Connector, LiveSourceConfig, MemTransport,
    Request, Response, RouteConfig, Router, ServeConfig, Server, ServerHandle, Transport,
    VideoScope,
};
use svq_storage::{CatalogSink, DirSink, FailingSink, IngestedVideo, VideoRepository};
use svq_types::{
    ActionClass, ActionQuery, BBox, ClipId, FrameId, Interval, ObjectClass, PaperScoring,
    RejectReason, ScoringFunctions, SvqResult, TrackId, VideoGeometry, VideoId,
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

/// The flag of one fault injector within a plan.
type Injector = fn(&mut FaultPlan) -> &mut bool;

/// Every fault injector: its spelling in a plan and its flag, in canonical
/// order (the order [`FaultPlan::label`] lists them and the shrinker drops
/// them).
pub(crate) const INJECTORS: [(&str, Injector); 6] = [
    ("worker-panic", |f| &mut f.worker_panic),
    ("drop-conn", |f| &mut f.drop_conn),
    ("stall-client", |f| &mut f.stall_client),
    ("crash-sink", |f| &mut f.crash_sink),
    ("torn-manifest", |f| &mut f.torn_manifest),
    ("stall-shard", |f| &mut f.stall_shard),
];

impl FaultPlan {
    /// No faults: the reference-behaviour plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every fault injector armed.
    pub fn all() -> Self {
        let mut plan = Self::none();
        for (_, flag) in INJECTORS {
            *flag(&mut plan) = true;
        }
        plan
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
            let Some((_, flag)) = INJECTORS.iter().find(|(name, _)| *name == part.trim()) else {
                let names: Vec<&str> = INJECTORS.iter().map(|(name, _)| *name).collect();
                return Err(format!(
                    "unknown fault {:?}; expected none, all, or a comma list of {}",
                    part.trim(),
                    names.join(", ")
                ));
            };
            *flag(&mut plan) = true;
        }
        Ok(plan)
    }

    /// Canonical spelling accepted back by [`FaultPlan::parse`].
    pub fn label(&self) -> String {
        let mut plan = *self;
        let parts: Vec<&str> = INJECTORS
            .iter()
            .filter(|(_, flag)| *flag(&mut plan))
            .map(|(name, _)| *name)
            .collect();
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

/// A cache of reference outcomes shared by every schedule in the process.
type Memo<K, V> = StdMutex<BTreeMap<K, Arc<V>>>;

/// `compute()` for `key`, computed once per process. Every reference
/// computation is pure (no instrumented locks, no scheduler events), so a
/// cache hit and a miss leave identical traces.
fn memo<K: Ord, V>(cache: &Memo<K, V>, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
    let mut cache = cache.lock().unwrap_or_else(|e| e.into_inner());
    cache
        .entry(key)
        .or_insert_with(|| Arc::new(compute()))
        .clone()
}

/// Single-threaded reference for [`oracle`]`(video, clips)`, cached across
/// schedules.
fn reference(video: u64, clips: u64) -> Arc<String> {
    static CACHE: Memo<(u64, u64), String> = StdMutex::new(BTreeMap::new());
    memo(&CACHE, (video, clips), || {
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
        canon(&seqs, clips, (ledger.object_frames, ledger.action_shots))
    })
}

// ---------------------------------------------------------------------------
// mux_pipeline
// ---------------------------------------------------------------------------

/// Three sessions over a mux; round-robin interleaved feeds; optional
/// worker-panic fault into session 0 at a seeded offset.
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

    // Every fed clip is evaluated exactly once, except that the poisoned
    // session stops at the poison ticket (clips `poison_at..` and the
    // ticket itself are discarded).
    let snap = mux.metrics().snapshot();
    let discarded = poison_at.map_or(0, |at| clips + 1 - at);
    assert_eq!(
        snap.server.total_clips,
        fed - discarded,
        "every fed clip is evaluated exactly once"
    );
    assert_eq!(snap.pool_queue_depth, 0, "pool gauge returns to zero");
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
/// `(offline, online)` canonical outcome JSON, cached across schedules.
fn serve_reference(clips: u64) -> Arc<(String, String)> {
    static CACHE: Memo<u64, (String, String)> = StdMutex::new(BTreeMap::new());
    memo(&CACHE, clips, || {
        let o = oracle(0, clips);
        let statement = parse(OFFLINE_SQL).expect("fixture SQL parses");
        let plan = LogicalPlan::from_statement(&statement).expect("fixture SQL plans");
        let catalog = ingest(&o, &PaperScoring, &OnlineConfig::default());
        let offline =
            execute_offline(&plan, &catalog, &PaperScoring).expect("offline reference runs");
        let statement = parse(ONLINE_SQL).expect("fixture SQL parses");
        let plan = LogicalPlan::from_statement(&statement).expect("fixture SQL plans");
        let mut stream = VideoStream::new(&o);
        let online = execute_online(&plan, &mut stream, OnlineConfig::default())
            .expect("online reference runs");
        (canonical_json(&offline), canonical_json(&online))
    })
}

/// [`Scenario::prepare`] for [`serve_mem`]: compute the reference outcomes
/// outside the world so a cache miss never shows up in a trace.
fn serve_mem_prepare(ctx: ScenarioCtx) {
    serve_reference(ctx.size.max(2));
}

/// The read deadline of every loopback client but the cluster's.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(5);

/// A protocol client over a fresh loopback connection.
fn connect(transport: &MemTransport, timeout: Duration) -> Client {
    Client::over(Box::new(transport.connect()), timeout).expect("loopback connect")
}

/// An in-memory server over `transport`, serving the catalog and the live
/// stream of [`oracle`]`(video, clips)` when `video` is given and standing
/// queries over `source` when one is.
fn start_server(
    transport: &Arc<MemTransport>,
    config: ServeConfig,
    video: Option<(u64, u64)>,
    source: Option<LiveSourceConfig>,
) -> ServerHandle {
    let (repo, oracles) = match video {
        Some((video, clips)) => {
            let o = oracle(video, clips);
            let catalog = ingest(&o, &PaperScoring, &OnlineConfig::default());
            let repo = Arc::new(VideoRepository::from_catalogs([catalog]));
            (Some(repo), vec![o])
        }
        None => (None, Vec::new()),
    };
    Server::start_on_with_source(
        transport.clone(),
        config,
        repo,
        oracles,
        source,
        ExecMetrics::new(),
    )
    .expect("in-memory server starts")
}

/// Fault: a connection that writes the complete frames `whole`, then
/// `torn` (a frame cut mid-line), and closes abortively. The server may
/// see a truncated line or a bare EOF (schedule-dependent); either way
/// nobody else notices.
fn spawn_dropper(
    transport: &Arc<MemTransport>,
    whole: Option<String>,
    torn: &[u8],
) -> rt::JoinHandle<()> {
    let transport = transport.clone();
    let torn = torn.to_vec();
    rt::spawn("dropper", move || {
        let mut conn = transport.connect();
        if let Some(whole) = whole {
            let _ = std::io::Write::write_all(&mut conn, whole.as_bytes());
        }
        let _ = std::io::Write::write_all(&mut conn, &torn);
        let _ = conn.shutdown_both();
    })
    .expect("sim spawn cannot fail")
}

/// Fault: a client that goes silent past the read deadline. It must be
/// answered with a typed `timeout` frame and a close, never hold its slot
/// forever. With `closing`, a connection the drain closes first is legal
/// too, once the drain has begun.
fn spawn_staller(
    transport: &Arc<MemTransport>,
    read_timeout: Duration,
    closing: Option<Arc<AtomicBool>>,
) -> rt::JoinHandle<()> {
    let transport = transport.clone();
    rt::spawn("staller", move || {
        let mut client = connect(&transport, CLIENT_TIMEOUT);
        rt::sleep(read_timeout * 2);
        match (client.read_response(), closing) {
            (Ok(Response::Error { reason, .. }), _) => {
                assert_eq!(reason, RejectReason::Timeout, "stall answered with timeout");
            }
            (Err(e), Some(closing)) => assert!(
                closing.load(Ordering::SeqCst),
                "stalled connection died outside the drain: {e}"
            ),
            (other, _) => unreachable!("stalled client expected a timeout frame: {other:?}"),
        }
    })
    .expect("sim spawn cannot fail")
}

/// Drain over the wire — a `shutdown` frame on `wire`, acknowledged with
/// `bye` — or, without a wire client, through `handle_shutdown`.
fn shut_down(wire: Option<&mut Client>, handle_shutdown: impl FnOnce()) {
    match wire {
        Some(client) => {
            let bye = client
                .request(&Request::Shutdown)
                .expect("shutdown answered");
            assert_eq!(bye, Response::Bye, "wire shutdown acknowledged");
        }
        None => handle_shutdown(),
    }
}

/// Wait for `handle`'s drain, which must terminate within its deadline
/// with nothing force-closed.
fn drained(handle: &ServerHandle) -> svq_serve::ServeReport {
    let report = handle.wait();
    assert!(
        report.drained_in_deadline && report.forced_closes == 0,
        "drain terminates with nothing force-closed: {report:?}"
    );
    report
}

/// The data request of `kind`: 0 the offline `query`, 1 the online
/// `stream`, 2 `stats`.
fn data_request(kind: usize) -> Request {
    match kind {
        0 => Request::Query {
            sql: OFFLINE_SQL.into(),
            video: VideoScope::One(0),
        },
        1 => Request::Stream {
            sql: ONLINE_SQL.into(),
            video: Some(0),
        },
        _ => Request::Stats,
    }
}

/// Check the answer to [`data_request`]`(kind)`: outcomes byte-identical
/// (canonically) to the in-process `reference`, stats as stats.
fn check_answer(kind: usize, response: Response, reference: &(String, String), what: &str) {
    match (kind, response) {
        (0, Response::Outcome(outcome)) => assert_eq!(
            canonical_json(&outcome),
            reference.0,
            "{what}: served offline outcome drifted from in-process execution"
        ),
        (1, Response::Outcome(outcome)) => assert_eq!(
            canonical_json(&outcome),
            reference.1,
            "{what}: served online outcome drifted from in-process execution"
        ),
        (2, Response::Stats(_)) => {}
        (kind, other) => unreachable!("{what} (kind {kind}) answered with {other:?}"),
    }
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
    let handle = start_server(&transport, config, Some((0, clips)), None);

    let mut tasks = Vec::new();

    // Well-behaved clients: one query + one stream each, checked against
    // the in-process reference byte-for-byte (canonical form).
    for c in 0..2 {
        let transport = transport.clone();
        let reference = reference.clone();
        tasks.push(
            rt::spawn(&format!("client{c}"), move || {
                let mut client = connect(&transport, CLIENT_TIMEOUT);
                for kind in 0..2 {
                    let served = client
                        .expect_outcome(&data_request(kind))
                        .expect("data request answered");
                    check_answer(kind, Response::Outcome(served), &reference, "client");
                }
            })
            .expect("sim spawn cannot fail"),
        );
    }

    if ctx.faults.drop_conn {
        let line = encode_line(&Request::Stats);
        let cut = 1 + rng.below(line.len() - 2);
        tasks.push(spawn_dropper(&transport, None, &line.as_bytes()[..cut]));
    }
    if ctx.faults.stall_client {
        tasks.push(spawn_staller(&transport, read_timeout, None));
    }

    for task in tasks {
        task.join().expect("client task does not panic");
    }

    // Shut down over the wire or via the handle — both paths must drain.
    let by_wire = rng.chance(1, 2);
    shut_down(
        by_wire
            .then(|| connect(&transport, CLIENT_TIMEOUT))
            .as_mut(),
        || handle.shutdown(),
    );
    let report = drained(&handle);
    assert!(report.accepted >= 2, "both well-behaved clients admitted");
    assert!(report.requests >= 4, "four data requests served");
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
    let handle = start_server(&transport, config, Some((0, clips)), None);

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
                let kind_of = |id: u64| ((id + c) % 3) as usize;
                let mut client = connect(&transport, CLIENT_TIMEOUT);
                for id in 0..burst {
                    client
                        .send(&data_request(kind_of(id)), Some(id))
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
                    check_answer(
                        kind_of(id),
                        response,
                        &reference,
                        &format!("pipelined id {id}"),
                    );
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
                let mut client = connect(&transport, CLIENT_TIMEOUT);
                for &kind in &kinds {
                    client
                        .send(&data_request(kind), None)
                        .expect("id-less send");
                }
                for (at, &kind) in kinds.iter().enumerate() {
                    let (id, response) = client.read_tagged().expect("v1 response");
                    assert!(id.is_none(), "v1 response {at} carries an id: {id:?}");
                    check_answer(kind, response, &reference, &format!("id-less frame {at}"));
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
        let line = encode_request_line(&Request::Stats, Some(7));
        let cut = 1 + rng.below(line.len() - 2);
        let whole = encode_request_line(&Request::Stats, Some(3));
        tasks.push(spawn_dropper(
            &transport,
            Some(whole),
            &line.as_bytes()[..cut],
        ));
    }
    // Pipelining never lets an idle connection hold its slot.
    if ctx.faults.stall_client {
        tasks.push(spawn_staller(&transport, read_timeout, None));
    }

    for task in tasks {
        task.join().expect("client task does not panic");
    }

    let by_wire = rng.chance(1, 2);
    shut_down(
        by_wire
            .then(|| connect(&transport, CLIENT_TIMEOUT))
            .as_mut(),
        || handle.shutdown(),
    );
    let report = drained(&handle);
    assert!(report.accepted >= 3, "every pipelining client admitted");
    assert!(
        report.requests >= data_requests,
        "every pipelined request answered: {report:?}"
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
    let handle = start_server(&transport, config, None, Some(source));

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
                let caller = connect(&transport, CLIENT_TIMEOUT)
                    .into_caller()
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
        tasks.push(spawn_dropper(
            &transport,
            Some(whole),
            &torn.as_bytes()[..cut],
        ));
    }

    // Fault: a silent client. The scenario shuts down while subscriptions
    // are live, so a drain that closes the connection before the `timeout`
    // frame is legal here, unlike in `serve_mem`.
    if ctx.faults.stall_client {
        tasks.push(spawn_staller(
            &transport,
            read_timeout,
            Some(closing.clone()),
        ));
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
    let by_wire = rng.chance(1, 2);
    shut_down(
        by_wire
            .then(|| connect(&transport, CLIENT_TIMEOUT))
            .as_mut(),
        || handle.shutdown(),
    );
    for task in tasks {
        task.join().expect("subscriber task does not panic");
    }
    let report = drained(&handle);
    assert!(
        report.accepted >= subs as u64,
        "every subscriber connection admitted"
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
    static CACHE: Memo<u64, (BTreeMap<u64, String>, String)> = StdMutex::new(BTreeMap::new());
    memo(&CACHE, clips, || {
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
        let all =
            execute_offline_all(&plan, &combined, &PaperScoring).expect("cluster reference runs");
        (per_video, canonical_json(&all))
    })
}

/// [`Scenario::prepare`] for [`cluster_router`].
fn cluster_router_prepare(ctx: ScenarioCtx) {
    cluster_reference(ctx.size.max(2));
}

/// One shard server owning exactly `video`, over its own [`MemTransport`].
fn start_mem_shard(transport: &Arc<MemTransport>, video: u64, clips: u64) -> ServerHandle {
    let config = ServeConfig::builder()
        .max_conns(8)
        .read_timeout(Duration::from_secs(2))
        .write_timeout(Duration::from_millis(200))
        .drain_timeout(Duration::from_millis(400))
        .workers(1)
        .build()
        .expect("config is valid");
    start_server(transport, config, Some((video, clips)), None)
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
    let server_a = start_mem_shard(&shard_a, va, clips);

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
        server_b = Some(start_mem_shard(&shard_b, vb, clips));
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

    let mut client = connect(&front, Duration::from_secs(10));

    // Fault: a front-door connection aborted mid-frame. The router's own
    // protocol hardening answers it; nobody else notices.
    let dropper = ctx.faults.drop_conn.then(|| {
        let line = encode_line(&Request::Stats);
        let cut = 1 + rng.below(line.len() - 2);
        spawn_dropper(&front, None, &line.as_bytes()[..cut])
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
    shut_down(rng.chance(1, 2).then_some(&mut client), || {
        router.shutdown()
    });
    drop(client);
    drained(&router);

    if let Some(staller) = staller {
        stall_stop.store(true, Ordering::Release);
        shard_b.wake();
        staller.join().expect("stalled shard acceptor exits");
    }
    server_a.shutdown();
    drained(&server_a);
}

// ---------------------------------------------------------------------------
// Scenario: ingest_crash
// ---------------------------------------------------------------------------

/// A sink whose every accept first spends `write_time` of virtual time, as
/// a slow disk would, so the workers run on while the consumer still holds
/// the catalog it is sinking.
struct SlowSink<S> {
    inner: S,
    write_time: Duration,
}

impl<S: CatalogSink> CatalogSink for SlowSink<S> {
    type Output = S::Output;

    fn accept(&mut self, catalog: IngestedVideo) -> SvqResult<()> {
        rt::sleep(self.write_time);
        self.inner.accept(catalog)
    }

    fn finish(self) -> SvqResult<S::Output> {
        self.inner.finish()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }
}

/// Parallel ingestion spilling through [`DirSink`], killed mid-stream
/// and restarted. Faults: `crash_sink` makes the sink die after a
/// seed-chosen number of accepts (the process "crashes" with some catalogs
/// durable and some not); `torn_manifest` additionally tears bytes off the
/// manifest's final line, as a crash between append and flush would.
/// Restart resumes from the manifest, re-ingests only what is not durable,
/// and the recovered directory must be byte-identical — manifest and every
/// catalog file — to a purely computed reference, under every schedule.
/// Every run must also keep the hand-off's peak depth within its
/// `workers + 1` permits.
fn ingest_crash(ctx: ScenarioCtx) {
    let mut rng = ctx.rng();
    let clips = ctx.size.clamp(2, 12);
    let workers = 1 + rng.below(2);
    // Each video past the permits' `workers + 1` is another chance for a
    // worker to finish a catalog while the consumer is still sinking one;
    // a disk that takes virtual time to write holds that window open.
    let n_videos = 3 + rng.below(6) as u64;
    let write_time = Duration::from_millis(rng.below(3) as u64);
    let oracles: Vec<Arc<DetectionOracle>> = (0..n_videos).map(|v| oracle(v, clips)).collect();
    let scoring: Arc<dyn ScoringFunctions + Send + Sync> = Arc::new(PaperScoring);
    let config = OnlineConfig::default();
    let metrics = ExecMetrics::new();
    let handed_off_within_bound = || {
        let peak = metrics.ingest().buffered_high_water.load(Ordering::Relaxed);
        assert!(
            peak <= workers as u64 + 1,
            "ingest hand-off held {peak} catalogs, over its {} permits",
            workers + 1
        );
    };

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
            metrics.clone(),
            SlowSink {
                inner: FailingSink::new(
                    DirSink::create(&dir).expect("spill dir creates"),
                    fail_after,
                ),
                write_time,
            },
        );
        assert!(crashed.is_err(), "the injected sink crash surfaces");
        handed_off_within_bound();
    } else {
        let report = parallel_ingest_into(
            &oracles,
            scoring.clone(),
            config,
            workers,
            metrics.clone(),
            SlowSink {
                inner: DirSink::create(&dir).expect("spill dir creates"),
                write_time,
            },
        )
        .expect("uninterrupted ingest completes");
        handed_off_within_bound();
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
            metrics.clone(),
            resumed,
        )
        .expect("restarted ingest completes");
        handed_off_within_bound();
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
