//! Standing queries: the subscription registry and the paced live source.
//!
//! A `subscribe` frame registers a continuous SVAQD query against the
//! server's **live source** — a synthetic scenario
//! ([`svq_vision::synth::ScenarioSpec`]) replayed clip-by-clip at a paced,
//! seeded rate by one **driver thread**. The server pushes an `event`
//! frame to every subscriber the moment a clip indicator closes a result
//! sequence, plus periodic `drift` snapshots of the dynamic p(t)
//! estimator; `unsubscribe`, connection close, and drain all tear a
//! subscription down cleanly.
//!
//! Shape of the fan-out:
//!
//! * **One mux session per distinct statement.** Every subscriber with the
//!   same SQL shares one engine: the driver feeds each registered session
//!   the current source clip, a per-clip observer
//!   ([`svq_exec::SessionMux::set_observer`]) fans the resulting
//!   [`ClipNotice`] out to that statement's subscribers, and each push
//!   rides the subscriber's existing per-connection writer thread as one
//!   more line in its first-in, first-out queue, holding no pipeline slot.
//!   Ten thousand subscribers to one statement cost one engine, not ten
//!   thousand.
//! * **Bounded push queues, counted losses.** Each subscription owns a
//!   `queued` gauge shared with its connection writer; an event arriving
//!   while `queued` is at the budget is *dropped and counted*, and the
//!   moment the queue has room again a typed `lagged { missed }` frame
//!   reports the gap — never an unbounded buffer, never a silent drop.
//!   The terminal `unsubscribed` frame carries the full accounting with
//!   the invariant `delivered + missed == total` events since `from_seq`.
//!   `drift` frames are best-effort: at budget they are skipped outright
//!   (the next snapshot supersedes them) and never counted as missed.
//! * **Lock order** (outermost first): `queries` map → `subs` map →
//!   `Query::state` → connection-writer state. `Query::state` and the
//!   `subs` map are never held together.
//!
//! Teardown paths: an explicit `unsubscribe` answers twice (the terminal
//! frame under the subscription's original id, then the same frame as the
//! ack of the `unsubscribe` request itself); a closing connection tears
//! its subscriptions down via [`SubscriptionRegistry::conn_closed`]
//! without pushing (the peer is gone); source exhaustion finishes every
//! statement's session and fans the terminal frame to the survivors; a
//! drain closes subscriber connections (pushes never hold an in-flight
//! slot, so subscription connections count as idle) and stops the driver
//! once the drain settles.

use crate::protocol::{encode_response_line, Response};
use crate::server::{plan_of, ConnWriter, LocalBackend, Pending};
use parking_lot::{rt, Mutex};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;
use svq_core::online::{OnlineConfig, Svaqd};
use svq_exec::{Backpressure, ClipNotice, ExecMetrics, SessionEngine, SessionId};
use svq_query::QueryMode;
use svq_types::{
    ActionClass, ClipId, ObjectClass, RejectReason, SvqError, SvqResult, VideoId, Vocabulary,
};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

/// Frames pushed to one subscription that may be queued in its connection
/// writer at once (events + lagged notices; the terminal frame is exempt
/// so accounting always closes). Small enough that a stalled subscriber
/// costs a bounded number of resident lines, large enough that a healthy
/// one never lags on burst.
pub(crate) const PUSH_BUDGET: u64 = 256;

/// How the `serve --source` live source is synthesised and paced, parsed
/// from a `key=value,...` spec (e.g.
/// `action=jumping,objects=car,minutes=2,seed=7,rate=120,video=9000`).
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSourceConfig {
    /// Video id the source replays (subscriptions may name it or omit
    /// `video`).
    pub video: u64,
    /// Action class of the scenario's episodes.
    pub action: String,
    /// Object classes in the scenario (correlated with the action).
    pub objects: Vec<String>,
    /// Replay length in minutes of source footage (25 fps).
    pub minutes: u64,
    /// Seed for both the scenario script and the pacing jitter.
    pub seed: u64,
    /// Replay rate, clips per second.
    pub rate: u64,
}

impl Default for LiveSourceConfig {
    fn default() -> Self {
        Self {
            video: 9000,
            action: "jumping".into(),
            objects: vec!["car".into()],
            minutes: 2,
            seed: 7,
            rate: 120,
        }
    }
}

impl LiveSourceConfig {
    /// Parse a `key=value,...` spec on top of the defaults. Every failure
    /// is a typed [`SvqError::InvalidConfig`] naming the offending key.
    pub fn parse(spec: &str) -> SvqResult<Self> {
        let mut config = Self::default();
        let fail = |msg: String| Err(SvqError::InvalidConfig(msg));
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let Some((key, value)) = part.split_once('=') else {
                return fail(format!(
                    "source: expected key=value, got {part:?} (keys: action, objects, minutes, seed, rate, video)"
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            let int = |what: &str| -> SvqResult<u64> {
                value.parse().map_err(|_| {
                    SvqError::InvalidConfig(format!(
                        "source: {what} must be an integer, got {value:?}"
                    ))
                })
            };
            match key {
                "action" => config.action = value.to_string(),
                "objects" => {
                    config.objects = value
                        .split('+')
                        .map(str::trim)
                        .filter(|o| !o.is_empty())
                        .map(String::from)
                        .collect();
                }
                "minutes" => config.minutes = int("minutes")?,
                "seed" => config.seed = int("seed")?,
                "rate" => config.rate = int("rate")?,
                "video" => config.video = int("video")?,
                other => {
                    return fail(format!(
                        "source: unknown key {other:?} (keys: action, objects, minutes, seed, rate, video)"
                    ))
                }
            }
        }
        config.validate()?;
        Ok(config)
    }

    fn validate(&self) -> SvqResult<()> {
        let fail = |msg: String| Err(SvqError::InvalidConfig(msg));
        if ActionClass::lookup(&self.action).is_none() {
            return fail(format!("source: unknown action class {:?}", self.action));
        }
        for object in &self.objects {
            if ObjectClass::lookup(object).is_none() {
                return fail(format!("source: unknown object class {object:?}"));
            }
        }
        if self.objects.is_empty() {
            return fail("source: objects must name at least one class".into());
        }
        if self.minutes == 0 {
            return fail("source: minutes must be at least 1".into());
        }
        if self.rate == 0 {
            return fail("source: rate must be at least 1 clip/s".into());
        }
        Ok(())
    }

    /// Materialise the source: generate the scenario once and wrap its
    /// oracle with the pacing state the driver thread consumes.
    pub(crate) fn build(self) -> SvqResult<LiveSource> {
        self.validate()?;
        let spec = ScenarioSpec::activitynet(
            VideoId::new(self.video),
            self.minutes * 60 * 25,
            ActionClass::named(&self.action),
            self.objects
                .iter()
                .map(|o| ObjectSpec::correlated(ObjectClass::named(o)))
                .collect(),
            self.seed,
        );
        let oracle = Arc::new(spec.generate().oracle(ModelSuite::accurate()));
        let interval_nanos = 1_000_000_000 / self.rate.max(1);
        Ok(LiveSource {
            config: self,
            oracle,
            interval_nanos,
            position: AtomicU64::new(0),
            exhausted: AtomicBool::new(false),
        })
    }
}

/// The materialised live source: one synthetic oracle replayed by the
/// driver thread.
pub(crate) struct LiveSource {
    pub(crate) config: LiveSourceConfig,
    pub(crate) oracle: Arc<DetectionOracle>,
    interval_nanos: u64,
    /// Source clips fed to statement sessions so far; a subscription's
    /// `from_seq`. Written under the `queries` lock so joins serialize
    /// against the driver's feed tick.
    position: AtomicU64,
    /// The replay reached its last clip; later subscriptions register a
    /// session and finish it immediately.
    exhausted: AtomicBool,
}

/// One standing statement: the shared mux session every subscriber with
/// this SQL fans out from.
struct Query {
    session: SessionId,
    state: Mutex<QueryState>,
    /// Subscribers with `drift_every > 0` — lets the observer skip
    /// event-less clips without taking `state`.
    drift_subs: AtomicUsize,
}

struct QueryState {
    subs: BTreeMap<u64, Arc<Sub>>,
}

/// One subscription: who to push to and the delivery accounting.
struct Sub {
    conn: u64,
    /// The subscribe frame's v2 id — tags every pushed frame.
    req_id: u64,
    writer: Arc<ConnWriter>,
    /// Source position at join; only events with `seq > from_seq` belong
    /// to this subscription.
    from_seq: u64,
    drift_every: u64,
    /// Pushed lines resident in the connection writer (shared with it:
    /// the writer decrements as lines flush). Claimed against
    /// [`PUSH_BUDGET`].
    queued: Arc<AtomicU64>,
    /// Counters below are mutated only under the owning `Query::state`
    /// lock; `Relaxed` atomics make the cross-thread reads in `stats` safe.
    delivered: AtomicU64,
    /// Events dropped since the last `lagged` notice flushed.
    missed_pending: AtomicU64,
    missed_total: AtomicU64,
    total: AtomicU64,
    /// The terminal frame was sent (or the connection is gone): wins the
    /// race between explicit unsubscribe, connection close, and source
    /// end, so exactly one path closes the books.
    closed: AtomicBool,
}

/// A live subscription plus the standing statement it fans out from.
type SubEntry = (Arc<Query>, Arc<Sub>);

struct RegistryInner {
    source: Option<LiveSource>,
    metrics: ExecMetrics,
    /// Per-statement mailbox capacity for the shared sessions.
    mailbox: usize,
    /// Standing statements by SQL text; outermost lock.
    queries: Mutex<BTreeMap<String, Arc<Query>>>,
    /// Every live subscription by handle, for `unsubscribe`/`conn_closed`
    /// lookup and the stats queue-depth sum.
    subs: Mutex<BTreeMap<u64, SubEntry>>,
    next_sub: AtomicU64,
    stopping: AtomicBool,
    driver: Mutex<Option<rt::JoinHandle<()>>>,
}

/// The subscription registry a [`LocalBackend`] owns. Present (empty) even
/// without a live source so `unsubscribe` stays answerable.
pub(crate) struct SubscriptionRegistry {
    inner: Arc<RegistryInner>,
}

impl SubscriptionRegistry {
    pub(crate) fn new(source: Option<LiveSource>, metrics: ExecMetrics, mailbox: usize) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                source,
                metrics,
                mailbox: mailbox.max(1),
                queries: Mutex::new(BTreeMap::new()),
                subs: Mutex::new(BTreeMap::new()),
                next_sub: AtomicU64::new(1),
                stopping: AtomicBool::new(false),
                driver: Mutex::new(None),
            }),
        }
    }

    /// Spawn the paced replay driver. Called once, right after the owning
    /// backend is constructed; a registry without a source never starts
    /// one.
    pub(crate) fn start_driver(&self, backend: &Arc<LocalBackend>) -> SvqResult<()> {
        if self.inner.source.is_none() {
            return Ok(());
        }
        let backend = backend.clone();
        let handle = rt::spawn("svq-subscribe-driver", move || driver_loop(&backend))
            .map_err(SvqError::Io)?;
        *self.inner.driver.lock() = Some(handle);
        Ok(())
    }

    /// Stop the driver and join it. Called from [`LocalBackend`]'s
    /// teardown hook after the drain settled.
    pub(crate) fn stop(&self) {
        self.inner.stopping.store(true, Ordering::Release);
        let handle = self.inner.driver.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Register one subscription and answer the `subscribe` frame. The
    /// ack is completed *before* the subscription becomes visible to the
    /// fan-out, so `subscribed` always precedes the first `event` on the
    /// wire. `req_id` is the frame's (mandatory) v2 id.
    #[allow(clippy::too_many_arguments)] // the subscribe frame's fields 1:1
    pub(crate) fn subscribe(
        &self,
        backend: &Arc<LocalBackend>,
        conn_id: u64,
        req_id: u64,
        sql: &str,
        video: Option<u64>,
        drift_every: u64,
        writer: Arc<ConnWriter>,
        pending: Pending,
    ) {
        let inner = &self.inner;
        let reject = |pending: Pending, reason: RejectReason, message: String| {
            pending.complete(Response::Error { reason, message });
        };
        let Some(source) = inner.source.as_ref() else {
            return reject(
                pending,
                RejectReason::BadRequest,
                "this server has no live source; start one with `serve --source …`".into(),
            );
        };
        if let Some(v) = video {
            if v != source.config.video {
                return reject(
                    pending,
                    RejectReason::BadRequest,
                    format!(
                        "the live source replays video {}; subscribe to it or omit `video`",
                        source.config.video
                    ),
                );
            }
        }
        // Everything below holds the `queries` lock: joins serialize
        // against each other, against the driver's feed tick (so
        // `from_seq` is exact), and against source exhaustion.
        let mut queries = inner.queries.lock();
        let exhausted = source.exhausted.load(Ordering::Acquire);
        let (query, finish_now) = match queries.get(sql) {
            Some(query) => (query.clone(), false),
            None => match self.register_query(backend, sql, source) {
                Ok(query) => {
                    queries.insert(sql.to_string(), query.clone());
                    (query, exhausted)
                }
                Err((reason, message)) => return reject(pending, reason, message),
            },
        };
        let sub_id = inner.next_sub.fetch_add(1, Ordering::Relaxed);
        let from_seq = source.position.load(Ordering::Acquire);
        let sub = Arc::new(Sub {
            conn: conn_id,
            req_id,
            writer,
            from_seq,
            drift_every,
            queued: Arc::new(AtomicU64::new(0)),
            delivered: AtomicU64::new(0),
            missed_pending: AtomicU64::new(0),
            missed_total: AtomicU64::new(0),
            total: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        });
        {
            let mut state = query.state.lock();
            // Ack while the subscription is still invisible to the
            // observer: a short frame enqueue onto this connection's own
            // writer. svq-lint: allow(blocking-under-lock)
            pending.complete(Response::Subscribed {
                sub: sub_id,
                from_seq,
            });
            state.subs.insert(sub_id, sub.clone());
        }
        if drift_every > 0 {
            query.drift_subs.fetch_add(1, Ordering::Relaxed);
        }
        inner.subs.lock().insert(sub_id, (query.clone(), sub));
        inner.metrics.server().sub_opened();
        drop(queries);
        if finish_now {
            // Joined after the replay ended: the fresh session finishes
            // with zero clips and the terminal frame follows the ack.
            backend.mux.finish_session(query.session);
        }
    }

    /// Create the shared session for a statement seen for the first time.
    /// The caller holds the `queries` lock and inserts the returned entry
    /// itself, so the driver's next tick feeds the session.
    fn register_query(
        &self,
        backend: &Arc<LocalBackend>,
        sql: &str,
        source: &LiveSource,
    ) -> Result<Arc<Query>, (RejectReason, String)> {
        let plan = plan_of(sql)?;
        if plan.mode != QueryMode::Online {
            return Err((
                RejectReason::BadRequest,
                "statement plans offline (top-K); standing queries are online predicates".into(),
            ));
        }
        let geometry = source.oracle.truth().geometry;
        let engine = SessionEngine::Svaqd(Svaqd::new(
            &plan.predicate,
            geometry,
            OnlineConfig::default(),
            1e-4,
            1e-4,
        ));
        let session = backend.mux.register(
            format!("standing/{sql}"),
            source.oracle.clone(),
            engine,
            Backpressure::Block,
            self.inner.mailbox,
        );
        let query = Arc::new(Query {
            session,
            state: Mutex::new(QueryState {
                subs: BTreeMap::new(),
            }),
            drift_subs: AtomicUsize::new(0),
        });
        let observer_inner = self.inner.clone();
        let observer_query = query.clone();
        backend.mux.set_observer(session, move |notice| {
            on_notice(&observer_inner, &observer_query, &notice);
        });
        let result_inner = self.inner.clone();
        let result_backend = Arc::downgrade(backend);
        let result_sql = sql.to_string();
        backend.mux.on_result(session, move |_result| {
            finish_query(&result_inner, &result_backend, &result_sql);
        });
        Ok(query)
    }

    /// Answer one `unsubscribe` frame: terminal push under the
    /// subscription's original id, then the same frame as the request's
    /// ack.
    pub(crate) fn unsubscribe(&self, conn_id: u64, sub_id: u64, pending: Pending) {
        let entry = {
            let mut subs = self.inner.subs.lock();
            match subs.get(&sub_id) {
                Some((_, sub)) if sub.conn != conn_id => Some(Err(format!(
                    "subscription {sub_id} belongs to another connection"
                ))),
                Some(_) => subs.remove(&sub_id).map(Ok),
                None => None,
            }
        };
        match entry {
            None => pending.complete(Response::Error {
                reason: RejectReason::BadRequest,
                message: format!("unknown subscription {sub_id}"),
            }),
            Some(Err(message)) => pending.complete(Response::Error {
                reason: RejectReason::BadRequest,
                message,
            }),
            Some(Ok((query, sub))) => {
                let terminal = {
                    let mut state = query.state.lock();
                    state.subs.remove(&sub_id);
                    self.retire(&query, &sub, sub_id, true)
                };
                match terminal {
                    Some(terminal) => pending.complete(terminal),
                    // The source-end fan-out won the race and already
                    // closed the books; ack with its accounting.
                    None => pending.complete(unsubscribed_frame(sub_id, &sub)),
                }
            }
        }
    }

    /// Tear down every subscription of a closing connection. No terminal
    /// pushes — the peer is gone and its writer is about to exit.
    pub(crate) fn conn_closed(&self, conn_id: u64) {
        let torn: Vec<(u64, Arc<Query>, Arc<Sub>)> = {
            let mut subs = self.inner.subs.lock();
            let ids: Vec<u64> = subs
                .iter()
                .filter(|(_, (_, sub))| sub.conn == conn_id)
                .map(|(&id, _)| id)
                .collect();
            ids.into_iter()
                .filter_map(|id| subs.remove(&id).map(|(q, s)| (id, q, s)))
                .collect()
        };
        for (sub_id, query, sub) in torn {
            let mut state = query.state.lock();
            state.subs.remove(&sub_id);
            drop(state);
            if !sub.closed.swap(true, Ordering::AcqRel) {
                if sub.drift_every > 0 {
                    query.drift_subs.fetch_sub(1, Ordering::Relaxed);
                }
                self.inner.metrics.server().sub_closed();
            }
        }
    }

    /// Close one subscription's books (caller removed it from the maps):
    /// claim the terminal, push it under the subscription's id, return the
    /// frame for reuse as an ack. `None` if another path already closed it.
    fn retire(
        &self,
        query: &Query,
        sub: &Arc<Sub>,
        sub_id: u64,
        push_terminal: bool,
    ) -> Option<Response> {
        if sub.closed.swap(true, Ordering::AcqRel) {
            return None;
        }
        if sub.drift_every > 0 {
            query.drift_subs.fetch_sub(1, Ordering::Relaxed);
        }
        let terminal = unsubscribed_frame(sub_id, sub);
        if push_terminal {
            // Terminal frames are exempt from the budget so accounting
            // always reaches the client; the gauge is still claimed so the
            // writer's decrement balances.
            sub.queued.fetch_add(1, Ordering::AcqRel);
            sub.writer.enqueue_push(
                encode_response_line(&terminal, Some(sub.req_id)),
                sub.queued.clone(),
            );
        }
        self.inner.metrics.server().sub_closed();
        Some(terminal)
    }

    /// Sum of pushed lines currently resident in connection writers, for
    /// the `stats` frame.
    pub(crate) fn queue_depth(&self) -> u64 {
        self.inner
            .subs
            .lock()
            .values()
            .map(|(_, sub)| sub.queued.load(Ordering::Acquire))
            .sum()
    }

    /// The live source's video id, if one is configured (stats/CLI).
    pub(crate) fn source_video(&self) -> Option<u64> {
        self.inner.source.as_ref().map(|s| s.config.video)
    }
}

/// The terminal accounting frame; invariant `delivered + missed == total`.
fn unsubscribed_frame(sub_id: u64, sub: &Sub) -> Response {
    Response::Unsubscribed {
        sub: sub_id,
        delivered: sub.delivered.load(Ordering::Relaxed),
        missed: sub.missed_total.load(Ordering::Relaxed),
        total: sub.total.load(Ordering::Relaxed),
    }
}

/// The per-clip fan-out: runs on the draining worker, outside every mux
/// lock, once per evaluated source clip of one statement's session.
fn on_notice(inner: &Arc<RegistryInner>, query: &Arc<Query>, notice: &ClipNotice) {
    let seq = notice.clip.raw() + 1;
    let drift_due = query.drift_subs.load(Ordering::Relaxed) > 0;
    if notice.closed.is_none() && !drift_due {
        return;
    }
    let at = rt::monotonic_nanos();
    let srv = inner.metrics.server();
    let state = query.state.lock();
    for (&sub_id, sub) in &state.subs {
        if sub.closed.load(Ordering::Acquire) || seq <= sub.from_seq {
            continue;
        }
        if let Some(interval) = notice.closed {
            sub.total.fetch_add(1, Ordering::Relaxed);
            // A pending gap notice takes the first free slot, so the gap
            // is reported before anything newer.
            if sub.missed_pending.load(Ordering::Relaxed) > 0 && claim_slot(&sub.queued) {
                let missed = sub.missed_pending.swap(0, Ordering::Relaxed);
                push_line(
                    sub,
                    &Response::Lagged {
                        sub: sub_id,
                        missed,
                    },
                );
                srv.subs_lagged.fetch_add(1, Ordering::Relaxed);
            }
            if claim_slot(&sub.queued) {
                push_line(
                    sub,
                    &Response::Event {
                        sub: sub_id,
                        seq,
                        clip: notice.clip.raw(),
                        first: interval.start.raw(),
                        last: interval.end.raw(),
                        at,
                    },
                );
                sub.delivered.fetch_add(1, Ordering::Relaxed);
                srv.subs_events.fetch_add(1, Ordering::Relaxed);
            } else {
                sub.missed_pending.fetch_add(1, Ordering::Relaxed);
                sub.missed_total.fetch_add(1, Ordering::Relaxed);
                srv.subs_missed.fetch_add(1, Ordering::Relaxed);
            }
        }
        if sub.drift_every > 0 && seq.is_multiple_of(sub.drift_every) && claim_slot(&sub.queued) {
            // Best-effort: skipped at budget, never counted as missed.
            push_line(
                sub,
                &Response::Drift {
                    sub: sub_id,
                    backgrounds: notice.backgrounds.clone(),
                    criticals: notice.criticals.clone(),
                },
            );
        }
    }
    drop(state);
}

/// Claim one push slot against the budget; the writer thread releases it
/// when the line flushes.
fn claim_slot(queued: &AtomicU64) -> bool {
    queued
        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
            (n < PUSH_BUDGET).then_some(n + 1)
        })
        .is_ok()
}

/// Enqueue one pushed frame on the subscriber's connection writer, tagged
/// with the subscription's request id. Caller holds `Query::state`; the
/// enqueue only appends to the writer's deque and signals its condvar.
/// svq-lint: allow(blocking-under-lock)
fn push_line(sub: &Sub, response: &Response) {
    sub.writer.enqueue_push(
        encode_response_line(response, Some(sub.req_id)),
        sub.queued.clone(),
    );
}

/// Statement session finished (source exhausted, or a post-exhaustion
/// join): fan the terminal frame to the surviving subscribers, drop the
/// statement, and retire the session.
fn finish_query(inner: &Arc<RegistryInner>, backend: &Weak<LocalBackend>, sql: &str) {
    let query = inner.queries.lock().remove(sql);
    let Some(query) = query else { return };
    let survivors: Vec<(u64, Arc<Sub>)> = {
        let mut state = query.state.lock();
        std::mem::take(&mut state.subs).into_iter().collect()
    };
    let srv = inner.metrics.server();
    for (sub_id, sub) in survivors {
        inner.subs.lock().remove(&sub_id);
        if sub.closed.swap(true, Ordering::AcqRel) {
            continue;
        }
        if sub.drift_every > 0 {
            query.drift_subs.fetch_sub(1, Ordering::Relaxed);
        }
        sub.queued.fetch_add(1, Ordering::AcqRel);
        sub.writer.enqueue_push(
            encode_response_line(&unsubscribed_frame(sub_id, &sub), Some(sub.req_id)),
            sub.queued.clone(),
        );
        srv.sub_closed();
    }
    if let Some(backend) = backend.upgrade() {
        backend.mux.release(query.session);
    }
}

/// The paced replay: feed each source clip to every standing statement's
/// session, bump the join position, sleep one jittered inter-clip gap.
/// Runs until the source is exhausted or the registry is stopping.
fn driver_loop(backend: &Arc<LocalBackend>) {
    let inner = &backend.subs.inner;
    let Some(source) = inner.source.as_ref() else {
        return;
    };
    let clips = source.oracle.clip_count();
    let mut jitter = source.config.seed | 1;
    for c in 0..clips {
        if inner.stopping.load(Ordering::Acquire) {
            return;
        }
        {
            let queries = inner.queries.lock();
            for query in queries.values() {
                // Non-blocking: the ticket lands on an ingress shard.
                // svq-lint: allow(blocking-under-lock)
                let _ = backend.mux.feed(query.session, ClipId::new(c));
            }
            source.position.store(c + 1, Ordering::Release);
        }
        // Seeded ±25% jitter around the nominal inter-clip gap, chunked so
        // a stop request is honoured promptly even at slow rates.
        jitter ^= jitter << 13;
        jitter ^= jitter >> 7;
        jitter ^= jitter << 17;
        let base = source.interval_nanos;
        let nanos = base * 3 / 4 + jitter % (base / 2).max(1);
        sleep_unless_stopping(inner, nanos);
    }
    // Exhaustion and the final statement collection share one critical
    // section: a join that observes `exhausted` finishes its own fresh
    // session, one that does not is in the list finished here.
    let sessions: Vec<SessionId> = {
        let queries = inner.queries.lock();
        source.exhausted.store(true, Ordering::Release);
        queries.values().map(|q| q.session).collect()
    };
    for session in sessions {
        backend.mux.finish_session(session);
    }
}

fn sleep_unless_stopping(inner: &RegistryInner, nanos: u64) {
    let mut remaining = nanos;
    while remaining > 0 && !inner.stopping.load(Ordering::Acquire) {
        let chunk = remaining.min(50_000_000);
        rt::sleep(Duration::from_nanos(chunk));
        remaining -= chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_spec_parses_and_rejects_typos() {
        let config = LiveSourceConfig::parse(
            "action=jumping,objects=car+person,minutes=3,seed=11,rate=40,video=77",
        )
        .unwrap();
        assert_eq!(config.action, "jumping");
        assert_eq!(config.objects, vec!["car".to_string(), "person".into()]);
        assert_eq!(config.minutes, 3);
        assert_eq!(config.seed, 11);
        assert_eq!(config.rate, 40);
        assert_eq!(config.video, 77);
        // Defaults apply for omitted keys; the empty spec is the default.
        assert_eq!(
            LiveSourceConfig::parse("").unwrap(),
            LiveSourceConfig::default()
        );
        for (spec, needle) in [
            ("pace=9", "unknown key"),
            ("rate", "key=value"),
            ("rate=fast", "integer"),
            ("rate=0", "rate"),
            ("minutes=0", "minutes"),
            ("action=definitely_not_a_class", "action class"),
            ("objects=car+not_a_thing", "object class"),
        ] {
            let err = LiveSourceConfig::parse(spec).unwrap_err().to_string();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn built_source_paces_from_the_spec() {
        let source = LiveSourceConfig::parse("rate=50,minutes=1")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(source.interval_nanos, 20_000_000);
        // 1 minute at 25 fps, 50-frame clips: 30 clips.
        assert_eq!(source.oracle.clip_count(), 30);
        assert!(!source.exhausted.load(Ordering::Acquire));
    }
}
