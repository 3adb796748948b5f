//! Concurrent session multiplexer.
//!
//! A *session* pairs one parsed query's online engine ([`Svaqd`], which
//! runs every online statement shape) with one video stream, identified by
//! the oracle it reads. [`SessionMux::feed`] appends clip ids to the
//! session's list; [`SessionMux::finish_session`] hands the engine and the
//! list to one [`WorkerPool`] job, which steps the engine over the clips in
//! feed order — the shape a served `stream` request and `svqact mux`
//! already take (one pool job running `execute_online`).
//!
//! * **Determinism.** One job owns the engine and consumes its clips in
//!   feed order, so a multiplexed run is byte-identical to running its
//!   sessions sequentially at any worker count.
//! * **Isolation.** A panic anywhere in a session's run poisons only that
//!   session — [`SessionMux::wait`] reports [`SessionError::Poisoned`] —
//!   while every other session and the pool keep running.
//! * **Liveness.** [`SessionMux::feed`] never waits on evaluation, and
//!   [`SessionMux::wait`] is idempotent (a condvar-guarded result latch, so
//!   repeated waits return the same result instead of deadlocking).

use crate::metrics::{ExecMetrics, SessionCounters};
use crate::pool::WorkerPool;
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;
use svq_core::online::Svaqd;
use svq_types::{ClipId, ClipInterval};
use svq_vision::models::DetectionOracle;
use svq_vision::{CostLedger, OwnedClipView};

/// Accepted and ignored; kept only until the benchmark stops naming it
/// (ROADMAP item 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Accepted and ignored; kept only until the benchmark stops naming it
    /// (ROADMAP item 19).
    #[default]
    Block,
}

/// Sentinel clip id whose evaluation deterministically panics the worker —
/// the fault-injection hook behind `svq-sim`'s worker-panic scenarios. The
/// panic is an explicit assert, not an arithmetic-overflow trap, so it
/// fires identically in debug and release builds. `u64::MAX` can never
/// name a real clip: every geometry computation overflows long before.
pub const POISON_CLIP: ClipId = ClipId::new(u64::MAX);

/// The per-session online engine. Both variants hold the one engine.
#[derive(Debug)]
pub enum SessionEngine {
    Svaqd(Svaqd),
    /// The same engine under its former CNF name; kept only until the
    /// benchmark stops naming it (ROADMAP item 19).
    Expr(Svaqd),
}

impl SessionEngine {
    fn into_svaqd(self) -> Svaqd {
        match self {
            SessionEngine::Svaqd(e) | SessionEngine::Expr(e) => e,
        }
    }
}

/// What a per-clip observer (see [`SessionMux::set_observer`]) is handed
/// after each successfully evaluated clip.
#[derive(Debug, Clone)]
pub struct ClipNotice {
    /// The evaluated clip.
    pub clip: ClipId,
    /// The result interval this clip closed, if any.
    pub closed: Option<ClipInterval>,
    /// Clips the session has evaluated so far, this one included (a
    /// 1-based position in the session's feed order).
    pub clips_processed: u64,
    /// Per-predicate background activation estimates, in the engine's
    /// distinct-predicate order (a canonical query's objects in query
    /// order, then the action).
    pub backgrounds: Vec<f64>,
    /// Critical run lengths matching `backgrounds` positionally.
    pub criticals: Vec<u32>,
}

/// Per-clip observer hook; runs on the session's worker, outside every mux
/// lock.
type ClipObserver = Box<dyn Fn(ClipNotice) + Send + Sync>;

/// Handle to a registered session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

/// What a finished session produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Result sequences, as the engine's `finish` reports them.
    pub sequences: Vec<ClipInterval>,
    /// Inference cost charged by this session's clip evaluations.
    pub cost: CostLedger,
    /// Clips evaluated.
    pub clips_processed: u64,
}

/// Why a session failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// A clip evaluation panicked; the session's remaining work was
    /// discarded. Other sessions are unaffected.
    Poisoned,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Poisoned => {
                write!(f, "session poisoned by a panicking clip evaluation")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Why a [`SessionMux::feed`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeedError {
    /// [`SessionMux::finish_session`] was already called for the session;
    /// its clip list went to the worker, so a late clip would be silently
    /// lost. A hard error in every build profile.
    SessionClosed,
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::SessionClosed => {
                write!(f, "feed after finish_session: the stream is closed")
            }
        }
    }
}

impl std::error::Error for FeedError {}

/// Construction knobs for [`SessionMux`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxOptions {
    /// Worker threads running sessions.
    pub workers: usize,
    /// Accepted and ignored; kept only until the benchmark stops naming it
    /// (ROADMAP item 19).
    pub shards: usize,
}

impl MuxOptions {
    /// `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        Self { workers, shards: 1 }
    }

    /// Accepted and ignored; kept only until the benchmark stops naming it
    /// (ROADMAP item 19).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

struct SessionState {
    /// `Some` until [`SessionMux::finish_session`] hands it to the job.
    engine: Option<SessionEngine>,
    /// Clips fed so far, in feed order.
    clips: Vec<ClipId>,
    result: Option<Result<SessionResult, SessionError>>,
}

struct Session {
    oracle: Arc<DetectionOracle>,
    state: Mutex<SessionState>,
    /// Signalled once `state.result` is latched; makes `wait` idempotent.
    done: Condvar,
    /// Set-once per-clip observer ([`SessionMux::set_observer`]).
    observer: OnceLock<ClipObserver>,
    counters: Arc<SessionCounters>,
}

/// Multiplexes many query sessions over one worker pool, one job per
/// session.
pub struct SessionMux {
    pool: WorkerPool,
    /// Slot table: `None` marks a released slot awaiting reuse, so a
    /// long-lived caller registering a session per stream keeps the table
    /// (and the ids it hands out) bounded by its concurrency, not its
    /// uptime.
    sessions: Mutex<Vec<Option<Arc<Session>>>>,
}

impl SessionMux {
    /// A multiplexer over `workers` threads reporting into `metrics`.
    pub fn new(workers: usize, metrics: ExecMetrics) -> Self {
        Self::with_options(MuxOptions::new(workers), metrics)
    }

    /// A multiplexer built from `options`.
    pub fn with_options(options: MuxOptions, metrics: ExecMetrics) -> Self {
        Self {
            pool: WorkerPool::new(options.workers, 1024, metrics),
            sessions: Mutex::new(Vec::new()),
        }
    }

    /// The metrics registry shared with the pool.
    pub fn metrics(&self) -> &ExecMetrics {
        self.pool.metrics()
    }

    /// Register a session: one engine consuming one oracle's clip stream.
    /// `label` names the session in metrics snapshots. `_policy` and
    /// `_mailbox_cap` are accepted and ignored; kept only until the
    /// benchmark stops naming them (ROADMAP item 19).
    pub fn register(
        &self,
        label: String,
        oracle: Arc<DetectionOracle>,
        engine: SessionEngine,
        _policy: Backpressure,
        _mailbox_cap: usize,
    ) -> SessionId {
        let session = Arc::new(Session {
            oracle,
            state: Mutex::new(SessionState {
                engine: Some(engine),
                clips: Vec::new(),
                result: None,
            }),
            done: Condvar::new(),
            observer: OnceLock::new(),
            counters: self.metrics().register_session(label),
        });
        let mut sessions = self.sessions.lock();
        match sessions.iter().position(Option::is_none) {
            Some(free) => {
                sessions[free] = Some(session);
                SessionId(free)
            }
            None => {
                sessions.push(Some(session));
                SessionId(sessions.len() - 1)
            }
        }
    }

    fn session(&self, id: SessionId) -> Arc<Session> {
        self.sessions.lock()[id.0]
            .clone()
            .expect("session id used after release")
    }

    /// Release a finished session's slot for reuse and retire its metrics
    /// line (its processed-clip total stays in the registry's monotonic
    /// residue). Call after [`SessionMux::wait`]; the id is dead afterwards
    /// and may be handed out again by a later [`SessionMux::register`].
    pub fn release(&self, id: SessionId) {
        let taken = self.sessions.lock()[id.0]
            .take()
            .expect("session id released twice");
        self.metrics().retire_session(&taken.counters);
    }

    /// Append one clip to a session's stream. Never waits on evaluation.
    /// Feeding a session whose end-of-stream was already declared is a
    /// hard error in every build profile.
    pub fn feed(&self, id: SessionId, clip: ClipId) -> Result<(), FeedError> {
        let session = self.session(id);
        let mut state = session.state.lock();
        if state.engine.is_none() {
            return Err(FeedError::SessionClosed);
        }
        state.clips.push(clip);
        Ok(())
    }

    /// Attach a per-clip observer to a session: `observer` runs on the
    /// session's worker after every successfully evaluated clip, outside
    /// every mux lock, carrying the clip, any closed result interval, and
    /// the engine's current drift surface. Set-once (a second call
    /// panics), before [`SessionMux::finish_session`].
    pub fn set_observer<F>(&self, id: SessionId, observer: F)
    where
        F: Fn(ClipNotice) + Send + Sync + 'static,
    {
        let set = self.session(id).observer.set(Box::new(observer));
        assert!(set.is_ok(), "session observer set twice");
    }

    /// Declare end-of-stream for a session: submit the job that steps its
    /// engine over every fed clip in feed order, then finalises it. Later
    /// feeds fail with [`FeedError::SessionClosed`]; a second call does
    /// nothing.
    pub fn finish_session(&self, id: SessionId) {
        let session = self.session(id);
        let mut state = session.state.lock();
        let Some(engine) = state.engine.take() else {
            return;
        };
        let clips = std::mem::take(&mut state.clips);
        drop(state);
        self.pool
            .submit(Box::new(move || run(&session, engine, clips)));
    }

    /// Block until a finished session's result is available. Idempotent:
    /// the result is latched, so repeated waits return the same value.
    pub fn wait(&self, id: SessionId) -> Result<SessionResult, SessionError> {
        let session = self.session(id);
        let mut state = session.state.lock();
        loop {
            if let Some(result) = &state.result {
                return result.clone();
            }
            session.done.wait(&mut state);
        }
    }

    /// Convenience: feed every clip of the session's oracle in stream order
    /// and declare end-of-stream.
    pub fn feed_stream(&self, id: SessionId) {
        self.feed_streams(&[id]);
    }

    /// Feed each session every clip of its oracle in stream order, then
    /// declare its end-of-stream.
    pub fn feed_streams(&self, ids: &[SessionId]) {
        for &id in ids {
            for c in 0..self.session(id).oracle.clip_count() {
                self.feed(id, ClipId::new(c))
                    .expect("feed_streams feeds before declaring end-of-stream");
            }
            self.finish_session(id);
        }
    }

    /// Shut down after all sessions were waited on: drain and join the
    /// pool.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

/// The session's job: step `engine` over `clips` in order, notify the
/// observer after each, finalise, and latch the result. A panic anywhere
/// in the run latches [`SessionError::Poisoned`] instead.
fn run(session: &Session, engine: SessionEngine, clips: Vec<ClipId>) {
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut engine = engine.into_svaqd();
        let mut result = SessionResult {
            sequences: Vec::new(),
            cost: CostLedger::default(),
            clips_processed: 0,
        };
        for clip in clips {
            assert!(
                clip != POISON_CLIP,
                "poison clip evaluated (injected worker fault)"
            );
            let mut view = OwnedClipView::new(session.oracle.clone(), clip);
            let closed = engine.push_clip(&mut view).closed;
            result.cost.merge(view.ledger());
            result.sequences.extend(closed);
            result.clips_processed += 1;
            session
                .counters
                .clips_processed
                .fetch_add(1, Ordering::Relaxed);
            if let Some(observer) = session.observer.get() {
                observer(ClipNotice {
                    clip,
                    closed,
                    clips_processed: result.clips_processed,
                    backgrounds: engine.backgrounds(),
                    criticals: engine.criticals(),
                });
            }
        }
        result.sequences.extend(engine.finish());
        result
    }));
    let eval_nanos = started.elapsed().as_nanos() as u64;
    session
        .counters
        .eval_nanos
        .fetch_add(eval_nanos, Ordering::Relaxed);
    let mut state = session.state.lock();
    state.result = Some(outcome.map_err(|_| SessionError::Poisoned));
    session.done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use svq_core::online::OnlineConfig;
    use svq_types::{
        ActionClass, ActionQuery, BBox, FrameId, Interval, ObjectClass, TrackId, VideoGeometry,
        VideoId,
    };
    use svq_vision::models::{ModelSuite, SceneConfusion};
    use svq_vision::truth::{ActionSpan, GroundTruth, ObjectTrack};
    use svq_vision::VideoStream;

    /// 40 clips (2000 frames); car & jumping on clips 12..=19.
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

    fn svaqd_engine(oracle: &DetectionOracle) -> SessionEngine {
        SessionEngine::Svaqd(Svaqd::new(
            ActionQuery::named("jumping", &["car"]),
            oracle.truth().geometry,
            OnlineConfig::default(),
            1e-4,
            1e-4,
        ))
    }

    /// One clip as a [`ClipNotice`] reports it, backgrounds by bits.
    #[derive(Debug, PartialEq)]
    struct Step {
        clip: ClipId,
        closed: Option<ClipInterval>,
        clips_processed: u64,
        criticals: Vec<u32>,
        backgrounds: Vec<u64>,
    }

    fn bits(backgrounds: &[f64]) -> Vec<u64> {
        backgrounds.iter().map(|b| b.to_bits()).collect()
    }

    /// Reference: the same engine run single-threaded over a VideoStream —
    /// its sequences, each `push_clip` step with the engine's drift after
    /// it, and the inference ledger.
    fn sequential(oracle: &DetectionOracle) -> (Vec<ClipInterval>, Vec<Step>, CostLedger) {
        let mut stream = VideoStream::new(oracle);
        let mut engine = Svaqd::new(
            ActionQuery::named("jumping", &["car"]),
            stream.geometry(),
            OnlineConfig::default(),
            1e-4,
            1e-4,
        );
        let (mut sequences, mut steps) = (Vec::new(), Vec::new());
        while let Some(mut view) = stream.next_clip() {
            let e = engine.push_clip(&mut view);
            let (clip, closed) = (e.clip, e.closed);
            sequences.extend(closed);
            steps.push(Step {
                clip,
                closed,
                clips_processed: steps.len() as u64 + 1,
                criticals: engine.criticals(),
                backgrounds: bits(&engine.backgrounds()),
            });
        }
        sequences.extend(engine.finish());
        (sequences, steps, *stream.ledger())
    }

    #[test]
    fn multiplexed_sessions_match_sequential_runs() {
        // The determinism contract must survive every ingress shape:
        // sharded feeders may reorder *work*, never *results*. Clip by
        // clip, each session's engine must step exactly as the sequential
        // engine does: same clip, same closed sequence, same critical
        // values and background bits after the step.
        for shards in [1usize, 2, 4] {
            let mux = SessionMux::with_options(
                MuxOptions::new(4).with_shards(shards),
                ExecMetrics::new(),
            );
            let oracles: Vec<_> = (0..6).map(|i| oracle(i, 100 + i)).collect();
            let sessions: Vec<_> = oracles
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    let id = mux.register(
                        format!("s{i}"),
                        o.clone(),
                        svaqd_engine(o),
                        Backpressure::Block,
                        16,
                    );
                    let (tx, rx) = std::sync::mpsc::channel();
                    mux.set_observer(id, move |n: ClipNotice| {
                        let _ = tx.send(Step {
                            clip: n.clip,
                            closed: n.closed,
                            clips_processed: n.clips_processed,
                            criticals: n.criticals,
                            backgrounds: bits(&n.backgrounds),
                        });
                    });
                    (id, rx)
                })
                .collect();
            for (id, _) in &sessions {
                mux.feed_stream(*id);
            }
            for ((id, notices), o) in sessions.iter().zip(&oracles) {
                let got = mux.wait(*id).unwrap();
                let (seqs, steps, cost) = sequential(o);
                assert_eq!(got.sequences, seqs, "drifted at {shards} shards");
                // A clip's notice is sent before its session can finish.
                let noticed: Vec<Step> = notices.try_iter().collect();
                assert_eq!(noticed, steps, "a step drifted at {shards} shards");
                assert_eq!(got.clips_processed, 40);
                // Same clips evaluated in the same order: identical
                // inference charge (algorithm wall-clock is not charged
                // by either path here).
                assert_eq!(got.cost.object_frames, cost.object_frames);
                assert_eq!(got.cost.action_shots, cost.action_shots);
            }
            let snap = mux.metrics().snapshot();
            assert_eq!(snap.server.total_clips, 240);
            assert_eq!(snap.jobs_panicked, 0);
            mux.shutdown();
        }
    }

    #[test]
    fn panicking_clip_poisons_only_its_session() {
        let mux = SessionMux::new(2, ExecMetrics::new());
        let o = oracle(0, 3);
        let bad = mux.register(
            "bad".into(),
            o.clone(),
            svaqd_engine(&o),
            Backpressure::Block,
            8,
        );
        let good = mux.register(
            "good".into(),
            o.clone(),
            svaqd_engine(&o),
            Backpressure::Block,
            8,
        );
        // Clip 10_000 is far past the 40-clip video: evaluating it panics
        // inside the oracle, which must poison `bad` and nothing else.
        mux.feed(bad, ClipId::new(0)).unwrap();
        mux.feed(bad, ClipId::new(10_000)).unwrap();
        mux.feed(bad, ClipId::new(1)).unwrap();
        mux.finish_session(bad);
        mux.feed_stream(good);
        assert_eq!(mux.wait(bad), Err(SessionError::Poisoned));
        let healthy = mux.wait(good).unwrap();
        assert_eq!(healthy.clips_processed, 40);
        mux.shutdown();
    }

    #[test]
    fn empty_session_finishes_immediately() {
        let mux = SessionMux::new(2, ExecMetrics::new());
        let o = oracle(0, 1);
        let id = mux.register(
            "empty".into(),
            o.clone(),
            svaqd_engine(&o),
            Backpressure::Block,
            4,
        );
        mux.finish_session(id);
        let result = mux.wait(id).unwrap();
        assert_eq!(result.clips_processed, 0);
        assert!(result.sequences.is_empty());
        mux.shutdown();
    }

    /// Regression: `wait` used to consume a `bounded(1)` done token, so a
    /// second call deadlocked forever. The condvar latch makes it
    /// idempotent — verified under a 5 s watchdog.
    #[test]
    fn wait_twice_returns_the_same_result() {
        let mux = Arc::new(SessionMux::new(2, ExecMetrics::new()));
        let o = oracle(0, 9);
        let id = mux.register(
            "idempotent".into(),
            o.clone(),
            svaqd_engine(&o),
            Backpressure::Block,
            8,
        );
        mux.feed_stream(id);
        let waiter = {
            let mux = mux.clone();
            std::thread::spawn(move || (mux.wait(id), mux.wait(id)))
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        while !waiter.is_finished() {
            assert!(
                Instant::now() < deadline,
                "repeated wait() deadlocked (watchdog fired)"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let (first, second) = waiter.join().expect("waiter thread");
        let first = first.expect("healthy session");
        assert_eq!(first.clips_processed, 40);
        assert_eq!(Ok(first), second, "second wait saw a different result");
        Arc::try_unwrap(mux).ok().expect("waiter joined").shutdown();
    }

    /// Slot reuse: releasing a finished session frees its id for the next
    /// registration and retires its metrics line without losing clip
    /// totals — the contract a long-lived server leans on.
    #[test]
    fn released_slots_are_reused_and_totals_survive() {
        let mux = SessionMux::new(2, ExecMetrics::new());
        let o = oracle(0, 11);
        let first = mux.register(
            "gen1".into(),
            o.clone(),
            svaqd_engine(&o),
            Backpressure::Block,
            8,
        );
        mux.feed_stream(first);
        let result = mux.wait(first).unwrap();
        assert_eq!(result.clips_processed, 40);
        mux.release(first);
        let snap = mux.metrics().snapshot();
        assert_eq!(snap.sessions.len(), 0, "metrics line retired");
        assert_eq!(snap.server.total_clips, 40, "clips survive retirement");

        // The freed slot is handed out again; the session works end-to-end.
        let second = mux.register(
            "gen2".into(),
            o.clone(),
            svaqd_engine(&o),
            Backpressure::Block,
            8,
        );
        assert_eq!(second, first, "slot is reused");
        mux.feed_stream(second);
        assert_eq!(mux.wait(second).unwrap().clips_processed, 40);
        let snap = mux.metrics().snapshot();
        assert_eq!(snap.sessions.len(), 1);
        assert_eq!(snap.server.total_clips, 80);

        // Occupied slots are untouched: a live third session keeps its id.
        let third = mux.register(
            "gen3".into(),
            o.clone(),
            svaqd_engine(&o),
            Backpressure::Block,
            8,
        );
        assert_ne!(third, second);
        mux.release(second);
        mux.feed_stream(third);
        assert_eq!(mux.wait(third).unwrap().clips_processed, 40);
        mux.release(third);
        assert_eq!(mux.metrics().snapshot().server.total_clips, 120);
        mux.shutdown();
    }

    /// A late feed after `finish_session` is rejected with a hard error —
    /// identically in debug and release builds (this was a `debug_assert!`
    /// that silently dropped the ticket in release).
    #[test]
    fn feed_after_finish_is_a_hard_error() {
        let mux = SessionMux::new(1, ExecMetrics::new());
        let o = oracle(0, 5);
        let id = mux.register(
            "closed".into(),
            o.clone(),
            svaqd_engine(&o),
            Backpressure::Block,
            8,
        );
        mux.feed(id, ClipId::new(0)).unwrap();
        mux.feed(id, ClipId::new(1)).unwrap();
        mux.finish_session(id);
        assert_eq!(mux.feed(id, ClipId::new(2)), Err(FeedError::SessionClosed));
        let result = mux.wait(id).unwrap();
        assert_eq!(result.clips_processed, 2, "late ticket must not slip in");
        mux.shutdown();
    }
}
