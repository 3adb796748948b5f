//! Concurrent session multiplexer.
//!
//! A *session* pairs one parsed query's online engine ([`Svaqd`], which
//! runs every online statement shape) with one video stream, identified by
//! the oracle it reads.
//! The multiplexer runs many sessions over one [`WorkerPool`]: the accept
//! path enqueues lightweight clip tickets into per-shard ingress queues
//! (see [`crate::ingress`]), shard feeder threads move them into
//! per-session mailboxes (bounded crossbeam channels), and workers perform
//! the heavy per-clip model reads and engine evaluation, one ticket per
//! state-lock acquisition.
//!
//! Three properties anchor the design:
//!
//! * **Determinism.** A session is an actor: at most one worker drains a
//!   given mailbox at a time (an atomic `scheduled` flag arbitrates), and a
//!   mailbox is FIFO, so each engine consumes its clips in exactly feed
//!   order regardless of worker count or shard count. A multiplexed run is
//!   therefore byte-identical to running its sessions sequentially.
//! * **Isolation.** A panic while evaluating a clip poisons only the owning
//!   session — its remaining tickets are discarded and [`SessionMux::wait`]
//!   reports [`SessionError::Poisoned`] — while every other session and the
//!   pool keep running. Likewise a session stalled on a full
//!   [`Backpressure::Block`] mailbox stalls only its shard's feeder, never
//!   the accept path and never other shards.
//! * **Liveness.** [`SessionMux::feed`] never blocks the caller, and
//!   [`SessionMux::wait`] is idempotent (a condvar-guarded result latch, so
//!   repeated waits return the same result instead of deadlocking).
//!
//! A full mailbox stalls the session's shard feeder until a worker catches
//! up: no clip is ever lost.

use crate::ingress::Ingress;
use crate::metrics::{ExecMetrics, SessionCounters, ShardCounters};
use crate::pool::WorkerPool;
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use svq_core::online::Svaqd;
use svq_types::{ClipId, ClipInterval};
use svq_vision::models::DetectionOracle;
use svq_vision::{ClipAccess, CostLedger, OwnedClipView};

/// Mailbox policy when a session's queue is full. Its one variant stays
/// only until the benchmark stops naming it (ROADMAP item 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Block the shard feeder until the worker catches up (lossless).
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
    /// benchmark stops naming it (ROADMAP item 2).
    Expr(Svaqd),
}

impl SessionEngine {
    fn push_clip(&mut self, view: &mut OwnedClipView) -> Option<ClipInterval> {
        assert!(
            view.clip() != POISON_CLIP,
            "poison clip evaluated (injected worker fault)"
        );
        match self {
            SessionEngine::Svaqd(e) | SessionEngine::Expr(e) => e.push_clip(view).closed,
        }
    }

    fn finish(self) -> Option<ClipInterval> {
        match self {
            SessionEngine::Svaqd(e) | SessionEngine::Expr(e) => e.finish(),
        }
    }

    /// The dynamic p(t) estimator's current drift surface: per-predicate
    /// background activation estimates and the matching critical run
    /// lengths, positionally aligned in the engine's distinct-predicate
    /// order (a canonical query's objects in query order, then the action).
    fn drift(&self) -> (Vec<f64>, Vec<u32>) {
        match self {
            SessionEngine::Svaqd(e) | SessionEngine::Expr(e) => (e.backgrounds(), e.criticals()),
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

/// Per-clip observer hook; runs on the draining worker, outside every mux
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
    /// [`SessionMux::finish_session`] was already called for the session. A
    /// late ticket would race finalisation and be silently dropped with the
    /// queue-depth gauge left skewed, so it is a hard error in every build
    /// profile.
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
    /// Worker threads evaluating clips.
    pub workers: usize,
    /// Ingress shards (feeder threads); streams hash to shards by
    /// `VideoId`, so a blocked mailbox stalls only its shard.
    pub shards: usize,
}

impl MuxOptions {
    /// Defaults: one ingress shard.
    pub fn new(workers: usize) -> Self {
        Self { workers, shards: 1 }
    }

    /// Builder-style override of the ingress shard count (min 1).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

pub(crate) struct SessionState {
    engine: Option<SessionEngine>,
    /// Result sequences closed so far, in stream order.
    sequences: Vec<ClipInterval>,
    ledger: CostLedger,
    clips_processed: u64,
    poisoned: bool,
    result: Option<Result<SessionResult, SessionError>>,
}

pub(crate) struct Session {
    tx: Sender<ClipId>,
    rx: Receiver<ClipId>,
    /// Shared read-only clip source; outside the state mutex so feeders can
    /// read stream metadata (e.g. [`DetectionOracle::clip_count`]) without
    /// contending with evaluation.
    oracle: Arc<DetectionOracle>,
    state: Mutex<SessionState>,
    /// Signalled once `state.result` is latched; makes `wait` idempotent.
    done: Condvar,
    /// True while a worker owns (or is committed to owning) the drain loop.
    scheduled: AtomicBool,
    /// Accept-side: set by `finish_session`; later feeds are hard errors.
    closed: AtomicBool,
    /// Drain-side: set once the shard feeder delivered end-of-stream.
    finishing: AtomicBool,
    /// Set-once per-clip observer ([`SessionMux::set_observer`]); a
    /// `OnceLock` so the drain loop reads it without any lock-order
    /// entanglement with `state`.
    observer: std::sync::OnceLock<ClipObserver>,
    /// The ingress shard this session's stream hashes to.
    shard: usize,
    counters: Arc<SessionCounters>,
}

/// What the accept path hands a shard feeder.
pub(crate) enum IngressEvent {
    /// Deliver one clip ticket into the session's mailbox.
    Feed(Arc<Session>, ClipId),
    /// Deliver the end-of-stream marker (ordered behind prior feeds).
    Finish(Arc<Session>),
}

/// Everything shared between the accept path, the shard feeders, and the
/// worker pool. Feeders hold an `Arc` so they can schedule drains after the
/// `SessionMux` handle itself is consumed by `shutdown`.
pub(crate) struct MuxCore {
    pub(crate) pool: WorkerPool,
    /// Slot table: `None` marks a released slot awaiting reuse, so a
    /// long-lived server registering a session per `stream` request keeps
    /// the table (and the ids it hands out) bounded by its concurrency,
    /// not its uptime.
    sessions: Mutex<Vec<Option<Arc<Session>>>>,
}

/// Multiplexes many query sessions over one worker pool behind a sharded
/// asynchronous ingress.
pub struct SessionMux {
    // Declared before `core`: dropping the mux joins the shard feeders
    // (draining every queued ticket) before the pool shuts down.
    ingress: Ingress,
    core: Arc<MuxCore>,
}

impl SessionMux {
    /// A multiplexer over `workers` threads reporting into `metrics`, with
    /// a single ingress shard.
    pub fn new(workers: usize, metrics: ExecMetrics) -> Self {
        Self::with_options(MuxOptions::new(workers), metrics)
    }

    /// A multiplexer with an explicit ingress shard count.
    pub fn with_options(options: MuxOptions, metrics: ExecMetrics) -> Self {
        let core = Arc::new(MuxCore {
            pool: WorkerPool::new(options.workers, 1024, metrics),
            sessions: Mutex::new(Vec::new()),
        });
        let ingress = Ingress::new(options.shards.max(1), core.clone());
        Self { ingress, core }
    }

    /// The metrics registry shared with the pool.
    pub fn metrics(&self) -> &ExecMetrics {
        self.core.pool.metrics()
    }

    /// Register a session: one engine consuming one oracle's clip stream.
    /// `mailbox_cap` bounds the ticket queue; `label` names the session in
    /// metrics snapshots. A full mailbox always blocks (see
    /// [`Backpressure`]).
    pub fn register(
        &self,
        label: String,
        oracle: Arc<DetectionOracle>,
        engine: SessionEngine,
        _policy: Backpressure,
        mailbox_cap: usize,
    ) -> SessionId {
        let (tx, rx) = bounded(mailbox_cap.max(1));
        let counters = self.metrics().register_session(label);
        let shard = self.ingress.shard_of(oracle.truth().video);
        let session = Arc::new(Session {
            tx,
            rx,
            oracle,
            state: Mutex::new(SessionState {
                engine: Some(engine),
                sequences: Vec::new(),
                ledger: CostLedger::default(),
                clips_processed: 0,
                poisoned: false,
                result: None,
            }),
            done: Condvar::new(),
            scheduled: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            finishing: AtomicBool::new(false),
            observer: std::sync::OnceLock::new(),
            shard,
            counters,
        });
        let mut sessions = self.core.sessions.lock();
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
        self.core.sessions.lock()[id.0]
            .clone()
            .expect("session id used after release")
    }

    /// Release a finished session's slot for reuse and retire its metrics
    /// line (its processed-clip total stays in the registry's monotonic
    /// residue). Call after [`SessionMux::wait`]; the id is dead afterwards
    /// and may be handed out again by a later [`SessionMux::register`].
    pub fn release(&self, id: SessionId) {
        let taken = self.core.sessions.lock()[id.0]
            .take()
            .expect("session id released twice");
        self.metrics().retire_session(&taken.counters);
    }

    /// Enqueue one clip for a session. Never blocks: the ticket lands on
    /// the session's ingress shard and a feeder thread applies the
    /// backpressure policy, so a full mailbox stalls only that shard.
    /// Feeding a session whose end-of-stream was already declared is a
    /// hard error in every build profile.
    pub fn feed(&self, id: SessionId, clip: ClipId) -> Result<(), FeedError> {
        let session = self.session(id);
        if session.closed.load(Ordering::Acquire) {
            return Err(FeedError::SessionClosed);
        }
        let shard = session.shard;
        self.ingress
            .enqueue(shard, IngressEvent::Feed(session, clip));
        Ok(())
    }

    /// Attach a per-clip observer to a session: `observer` runs on the
    /// draining worker after every successfully evaluated clip, outside
    /// every mux lock, carrying the clip, any closed result interval, and
    /// the engine's current drift surface. Set-once (a second call
    /// panics), before the first feed.
    pub fn set_observer<F>(&self, id: SessionId, observer: F)
    where
        F: Fn(ClipNotice) + Send + Sync + 'static,
    {
        let set = self.session(id).observer.set(Box::new(observer));
        assert!(set.is_ok(), "session observer set twice");
    }

    /// Declare end-of-stream for a session. Must be called after the last
    /// [`SessionMux::feed`] for it; the engine finalises once the mailbox
    /// drains. Later feeds fail with [`FeedError::SessionClosed`].
    pub fn finish_session(&self, id: SessionId) {
        let session = self.session(id);
        session.closed.store(true, Ordering::Release);
        let shard = session.shard;
        self.ingress.enqueue(shard, IngressEvent::Finish(session));
    }

    /// Block until a finished session's result is available. Idempotent:
    /// the result is latched, so repeated waits return the same value.
    pub fn wait(&self, id: SessionId) -> Result<SessionResult, SessionError> {
        let session = self.session(id);
        let mut state = session.state.lock();
        while state.result.is_none() {
            session.done.wait(&mut state);
        }
        match &state.result {
            Some(result) => result.clone(),
            None => unreachable!("wait loop exits only once a result is latched"),
        }
    }

    /// Convenience: feed every clip of the session's oracle in stream order
    /// and declare end-of-stream.
    pub fn feed_stream(&self, id: SessionId) {
        self.feed_streams(&[id]);
    }

    /// Feed several sessions their oracles' clips interleaved round-robin —
    /// the arrival order of concurrent live streams — then declare
    /// end-of-stream on each. The enqueue is non-blocking, so this returns
    /// as soon as every ticket is on its ingress shard.
    pub fn feed_streams(&self, ids: &[SessionId]) {
        let clip_counts: Vec<u64> = ids
            .iter()
            .map(|&id| self.session(id).oracle.clip_count())
            .collect();
        let longest = clip_counts.iter().copied().max().unwrap_or(0);
        for c in 0..longest {
            for (&id, &count) in ids.iter().zip(&clip_counts) {
                if c < count {
                    self.feed(id, ClipId::new(c))
                        .expect("feed_streams feeds before declaring end-of-stream");
                }
            }
        }
        for &id in ids {
            self.finish_session(id);
        }
    }

    /// Shut down after all sessions were waited on: join the shard feeders
    /// (delivering everything still queued), then drain and join the pool.
    pub fn shutdown(self) {
        let Self { ingress, core } = self;
        drop(ingress);
        match Arc::try_unwrap(core) {
            Ok(MuxCore { pool, .. }) => pool.shutdown(),
            // A feeder clone outliving the join is impossible, but dropping
            // still drains and joins the pool via its Drop impl.
            Err(core) => drop(core),
        }
    }
}

/// Feeder side: move one ingress event into its session, then make sure a
/// worker is scheduled to react to it. Runs on the shard feeder threads.
pub(crate) fn deliver(core: &MuxCore, event: IngressEvent, shard: &ShardCounters) {
    match event {
        IngressEvent::Feed(session, clip) => {
            deliver_clip(&session, clip, shard);
            shard.delivered.fetch_add(1, Ordering::Relaxed);
            schedule(&core.pool, &session);
        }
        IngressEvent::Finish(session) => {
            session.finishing.store(true, Ordering::Release);
            schedule(&core.pool, &session);
        }
    }
}

/// Put one ticket in the session's mailbox, blocking the feeder while it
/// is full.
fn deliver_clip(session: &Session, clip: ClipId, shard: &ShardCounters) {
    // Count the ticket before it becomes visible to workers: a racing
    // drain's decrement then always pairs with an earlier increment, so the
    // queue-depth gauge can never transiently wrap below zero.
    session.counters.queue_depth.fetch_add(1, Ordering::Relaxed);
    if let Err(TrySendError::Full(clip)) = session.tx.try_send(clip) {
        let blocked = Instant::now();
        session.tx.send(clip).expect("session mailbox open");
        let nanos = blocked.elapsed().as_nanos() as u64;
        SessionCounters::add(&session.counters.feed_block_nanos, nanos);
        SessionCounters::add(&shard.feed_block_nanos, nanos);
    }
}

/// Hand a drain job to the pool unless one is already scheduled.
fn schedule(pool: &WorkerPool, session: &Arc<Session>) {
    if session
        .scheduled
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
    {
        let session = session.clone();
        pool.submit(Box::new(move || drain(&session)));
    }
}

/// Worker side: serially process a session's mailbox one ticket per
/// state-lock acquisition, then finalise if the feeder delivered
/// end-of-stream. The `scheduled` flag guarantees only one worker runs this
/// per session; the hand-off re-check closes the race between draining the
/// last ticket and a feeder enqueueing a new one.
fn drain(session: &Session) {
    loop {
        if let Ok(clip) = session.rx.try_recv() {
            session.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            evaluate(session, clip);
            continue;
        }
        // End-of-stream: finalise exactly once, after the mailbox drained.
        if session.finishing.load(Ordering::Acquire) && session.rx.is_empty() {
            let mut state = session.state.lock();
            if state.result.is_none() && session.rx.is_empty() {
                let result = if state.poisoned {
                    Err(SessionError::Poisoned)
                } else {
                    let engine = state.engine.take().expect("finalised once");
                    let mut sequences = std::mem::take(&mut state.sequences);
                    sequences.extend(engine.finish());
                    Ok(SessionResult {
                        sequences,
                        cost: state.ledger,
                        clips_processed: state.clips_processed,
                    })
                };
                state.result = Some(result);
                session.done.notify_all();
            }
        }

        session.scheduled.store(false, Ordering::Release);
        let more_work = !session.rx.is_empty()
            || (session.finishing.load(Ordering::Acquire) && session.state.lock().result.is_none());
        if !more_work {
            return;
        }
        // New tickets (or the finish marker) arrived between the drain and
        // the flag clear — reclaim ownership or leave it to the scheduler.
        if session
            .scheduled
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
    }
}

/// Evaluate one clip under the state lock. The observer notice runs after
/// the guard drops, so feeders reading stream metadata and metrics
/// observers are never blocked on it.
fn evaluate(session: &Session, clip: ClipId) {
    let mut state = session.state.lock();
    if state.poisoned {
        return;
    }
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut view = OwnedClipView::new(session.oracle.clone(), clip);
        let closed = state
            .engine
            .as_mut()
            .expect("engine present until finish")
            .push_clip(&mut view);
        (*view.ledger(), closed)
    }));
    SessionCounters::add(
        &session.counters.eval_nanos,
        started.elapsed().as_nanos() as u64,
    );
    let Ok((ledger, closed)) = outcome else {
        state.poisoned = true;
        return;
    };
    state.ledger.merge(&ledger);
    state.sequences.extend(closed);
    state.clips_processed += 1;
    session
        .counters
        .clips_processed
        .fetch_add(1, Ordering::Relaxed);
    let observer = session.observer.get();
    // The notice reads the engine, so it is built under the lock.
    let notice = observer.and(state.engine.as_ref()).map(|engine| {
        let (backgrounds, criticals) = engine.drift();
        ClipNotice {
            clip,
            closed,
            clips_processed: state.clips_processed,
            backgrounds,
            criticals,
        }
    });
    drop(state);
    if let (Some(observer), Some(notice)) = (observer, notice) {
        observer(notice);
    }
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
            assert_eq!(snap.total_clips, 240);
            assert_eq!(snap.jobs_panicked, 0);
            assert_eq!(snap.shards.len(), shards);
            let delivered: u64 = snap.shards.iter().map(|s| s.delivered).sum();
            assert_eq!(delivered, 240, "every ticket crosses an ingress shard");
            assert_eq!(snap.shards.iter().map(|s| s.ingress_depth).sum::<u64>(), 0);
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
        assert_eq!(snap.total_clips, 40, "clips survive retirement");

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
        assert_eq!(snap.total_clips, 80);

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
        assert_eq!(mux.metrics().snapshot().total_clips, 120);
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
        let snap = mux.metrics().snapshot();
        assert_eq!(snap.sessions[0].queue_depth, 0, "gauge must stay balanced");
        mux.shutdown();
    }
}
