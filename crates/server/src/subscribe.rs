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
//! * **One engine per distinct statement, stepped on its source.** Every
//!   subscriber with the same SQL shares one [`Svaqd`], held beside the
//!   statement's subscriber map. For each source clip the driver steps
//!   every standing statement's engine once and fans the result out
//!   inline: each push rides the subscriber's existing per-connection
//!   writer thread as one more line in its first-in, first-out queue,
//!   holding no pipeline slot. Ten thousand subscribers to one statement
//!   cost one engine step per clip, not ten thousand. A step that panics
//!   retires its own statement and no other.
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
//! without pushing (the peer is gone); at source exhaustion the driver
//! finishes every statement and pushes the terminal frame to the
//! survivors; a drain closes subscriber connections (pushes never hold an
//! in-flight slot, so subscription connections count as idle) and stops
//! the driver once the drain settles.

use crate::protocol::{encode_response_line, Response};
use crate::server::{plan_of, ConnWriter, Pending};
use parking_lot::{rt, Mutex};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svq_core::online::{OnlineConfig, Svaqd};
use svq_exec::metrics::SessionCounters;
use svq_exec::{ExecMetrics, ServerCounters};
use svq_query::QueryMode;
use svq_types::{
    ActionClass, ClipId, ClipInterval, ObjectClass, RejectReason, SvqError, SvqResult, VideoId,
    Vocabulary,
};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};
use svq_vision::OwnedClipView;

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
        if self.frames().is_none() {
            return fail(format!(
                "source: minutes={} overflows the frame count",
                self.minutes
            ));
        }
        if self.rate == 0 {
            return fail("source: rate must be at least 1 clip/s".into());
        }
        Ok(())
    }

    /// Source footage in frames (25 fps); `None` if it overflows.
    fn frames(&self) -> Option<u64> {
        self.minutes.checked_mul(60 * 25)
    }

    /// Materialise the source: generate the scenario once and wrap its
    /// oracle with the pacing state the driver thread consumes.
    pub(crate) fn build(self) -> SvqResult<LiveSource> {
        self.validate()?;
        let spec = ScenarioSpec::activitynet(
            VideoId::new(self.video),
            self.frames().expect("validated"),
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
    /// Source clips the driver has ticked so far; a subscription's
    /// `from_seq`. Written under the `queries` lock so joins serialize
    /// against the driver's clip tick.
    position: AtomicU64,
    /// The replay reached its last clip; a later subscription builds its
    /// statement and finishes it right after the ack.
    exhausted: AtomicBool,
}

/// One standing statement: the engine every subscriber with this SQL
/// shares, beside the subscribers it fans out to.
struct Query {
    state: Mutex<QueryState>,
    /// The statement's metrics line: clips stepped and time spent stepping.
    counters: Arc<SessionCounters>,
}

struct QueryState {
    /// `None` once the statement finished or a step panicked.
    engine: Option<Svaqd>,
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
    /// Standing statements by SQL text; outermost lock.
    queries: Mutex<BTreeMap<String, Arc<Query>>>,
    /// Every live subscription by handle, for `unsubscribe`/`conn_closed`
    /// lookup and the stats queue-depth sum.
    subs: Mutex<BTreeMap<u64, SubEntry>>,
    next_sub: AtomicU64,
    stopping: AtomicBool,
    driver: Mutex<Option<rt::JoinHandle<()>>>,
}

/// The subscription registry a [`LocalBackend`](crate::server::LocalBackend)
/// owns. Present (empty) even without a live source so `unsubscribe` stays
/// answerable.
pub(crate) struct SubscriptionRegistry {
    inner: Arc<RegistryInner>,
}

impl SubscriptionRegistry {
    pub(crate) fn new(source: Option<LiveSource>, metrics: ExecMetrics) -> Self {
        Self {
            inner: Arc::new(RegistryInner {
                source,
                metrics,
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
    pub(crate) fn start_driver(&self) -> SvqResult<()> {
        if self.inner.source.is_none() {
            return Ok(());
        }
        let inner = self.inner.clone();
        let handle =
            rt::spawn("svq-subscribe-driver", move || driver_loop(&inner)).map_err(SvqError::Io)?;
        *self.inner.driver.lock() = Some(handle);
        Ok(())
    }

    /// Stop the driver and join it. Called from the owning backend's
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
        // against each other, against the driver's clip tick (so
        // `from_seq` is exact), and against source exhaustion.
        let mut queries = inner.queries.lock();
        let exhausted = source.exhausted.load(Ordering::Acquire);
        let query = match queries.get(sql) {
            Some(query) => query.clone(),
            None => match self.register_query(sql, source) {
                Ok(query) => {
                    // After the replay the statement never reaches the
                    // map: it finishes below, right after the ack.
                    if !exhausted {
                        queries.insert(sql.to_string(), query.clone());
                    }
                    query
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
            // fan-out: a short frame enqueue onto this connection's own
            // writer. svq-lint: allow(blocking-under-lock)
            pending.complete(Response::Subscribed {
                sub: sub_id,
                from_seq,
            });
            state.subs.insert(sub_id, sub.clone());
        }
        inner.subs.lock().insert(sub_id, (query.clone(), sub));
        inner.metrics.server().sub_opened();
        drop(queries);
        if exhausted {
            // Joined after the replay ended: the fresh statement finishes
            // with zero clips and the terminal frame follows the ack.
            finish_statement(inner, &query);
        }
    }

    /// Build the engine for a statement seen for the first time. The
    /// caller holds the `queries` lock and inserts the returned entry
    /// itself, so the driver's next tick steps it.
    fn register_query(
        &self,
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
        let engine = Svaqd::new(
            &plan.predicate,
            source.oracle.truth().geometry,
            OnlineConfig::default(),
            1e-4,
            1e-4,
        );
        Ok(Arc::new(Query {
            state: Mutex::new(QueryState {
                engine: Some(engine),
                subs: BTreeMap::new(),
            }),
            counters: self
                .inner
                .metrics
                .register_session(format!("standing/{sql}")),
        }))
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
                    close_books(self.inner.metrics.server(), sub_id, &sub)
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
                self.inner.metrics.server().sub_closed();
            }
        }
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

/// Close one subscription's books (the caller removed it from the maps):
/// claim the terminal, push it under the subscription's id, and return it
/// for reuse as an ack. `None` if another path already closed it.
fn close_books(srv: &ServerCounters, sub_id: u64, sub: &Sub) -> Option<Response> {
    if sub.closed.swap(true, Ordering::AcqRel) {
        return None;
    }
    // Counted before the push: a client holding the terminal never reads
    // the subscription as still active in `stats`.
    srv.sub_closed();
    let terminal = unsubscribed_frame(sub_id, sub);
    // Terminal frames are exempt from the budget so accounting always
    // reaches the client; the gauge is still claimed so the writer's
    // decrement balances.
    sub.queued.fetch_add(1, Ordering::AcqRel);
    sub.writer.enqueue_push(
        encode_response_line(&terminal, Some(sub.req_id)),
        sub.queued.clone(),
    );
    Some(terminal)
}

/// Step one statement's engine on a source clip and fan the result out.
/// Runs on the driver thread under `Query::state`. `false` if the step
/// panicked: the engine's state is then unknown and the caller retires
/// the statement.
fn step(srv: &ServerCounters, source: &LiveSource, query: &Query, clip: ClipId) -> bool {
    let mut state = query.state.lock();
    let QueryState { engine, subs } = &mut *state;
    let Some(engine) = engine.as_mut() else {
        return true;
    };
    let started = Instant::now();
    let stepped = catch_unwind(AssertUnwindSafe(|| {
        engine
            .push_clip(&mut OwnedClipView::new(source.oracle.clone(), clip))
            .closed
    }));
    let nanos = started.elapsed().as_nanos() as u64;
    query
        .counters
        .eval_nanos
        .fetch_add(nanos, Ordering::Relaxed);
    let Ok(closed) = stepped else {
        return false;
    };
    query
        .counters
        .clips_processed
        .fetch_add(1, Ordering::Relaxed);
    let seq = clip.raw() + 1;
    let drift_due = subs
        .values()
        .any(|sub| sub.drift_every > 0 && seq.is_multiple_of(sub.drift_every));
    if closed.is_none() && !drift_due {
        return true;
    }
    let drift = drift_due.then(|| (engine.backgrounds(), engine.criticals()));
    fan_out(srv, subs, seq, closed, drift);
    true
}

/// Push one stepped clip to a statement's subscribers: the sequence it
/// closed (counted against each push budget) and any drift frame due.
/// Caller holds `Query::state`.
fn fan_out(
    srv: &ServerCounters,
    subs: &BTreeMap<u64, Arc<Sub>>,
    seq: u64,
    closed: Option<ClipInterval>,
    drift: Option<(Vec<f64>, Vec<u32>)>,
) {
    let at = rt::monotonic_nanos();
    for (&sub_id, sub) in subs {
        if sub.closed.load(Ordering::Acquire) || seq <= sub.from_seq {
            continue;
        }
        if let Some(interval) = closed {
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
                        clip: seq - 1,
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
        if let Some((backgrounds, criticals)) = &drift {
            if sub.drift_every > 0 && seq.is_multiple_of(sub.drift_every) && claim_slot(&sub.queued)
            {
                // Best-effort: skipped at budget, never counted as missed.
                push_line(
                    sub,
                    &Response::Drift {
                        sub: sub_id,
                        backgrounds: backgrounds.clone(),
                        criticals: criticals.clone(),
                    },
                );
            }
        }
    }
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

/// Finish a statement (source end, a join after it, or a panicked step):
/// drop its engine, push the terminal frame to every surviving
/// subscriber, and retire its metrics line. The caller already took it
/// out of the `queries` map.
fn finish_statement(inner: &RegistryInner, query: &Query) {
    let survivors = {
        let mut state = query.state.lock();
        state.engine = None;
        std::mem::take(&mut state.subs)
    };
    let srv = inner.metrics.server();
    for (sub_id, sub) in survivors {
        inner.subs.lock().remove(&sub_id);
        close_books(srv, sub_id, &sub);
    }
    inner.metrics.retire_session(&query.counters);
}

/// The paced replay: step every standing statement on each source clip,
/// then sleep to the next clip's jittered due time — the work comes out
/// of the gap, so it does not slow the source. At the end every statement
/// finishes. Runs until the source is exhausted or the registry is
/// stopping.
fn driver_loop(inner: &RegistryInner) {
    let Some(source) = inner.source.as_ref() else {
        return;
    };
    let clips = source.oracle.clip_count();
    let mut jitter = source.config.seed | 1;
    let mut due = rt::monotonic_nanos();
    let mut statements: Vec<Arc<Query>> = Vec::new();
    for c in 0..clips {
        if inner.stopping.load(Ordering::Acquire) {
            return;
        }
        // Advancing the join cursor and listing the statements share one
        // critical section: a join before it sees this clip, one after it
        // starts past it (and a statement it creates is stepped from the
        // next clip on).
        {
            let queries = inner.queries.lock();
            statements.extend(queries.values().cloned());
            source.position.store(c + 1, Ordering::Release);
        }
        for query in statements.drain(..) {
            if !step(inner.metrics.server(), source, &query, ClipId::new(c)) {
                // Retire this statement and no other.
                inner.queries.lock().retain(|_, q| !Arc::ptr_eq(q, &query));
                finish_statement(inner, &query);
            }
        }
        // Seeded ±25% jitter around the nominal inter-clip gap.
        jitter ^= jitter << 13;
        jitter ^= jitter >> 7;
        jitter ^= jitter << 17;
        let base = source.interval_nanos;
        due += base * 3 / 4 + jitter % (base / 2).max(1);
        sleep_until(inner, due);
    }
    // Exhaustion and taking the statements share one critical section: a
    // join that observes `exhausted` finishes its own fresh statement, one
    // that does not is finished here.
    let statements = {
        let mut queries = inner.queries.lock();
        source.exhausted.store(true, Ordering::Release);
        std::mem::take(&mut *queries)
    };
    for query in statements.values() {
        finish_statement(inner, query);
    }
}

/// Sleep until the monotonic clock reaches `due`, in chunks so a stop
/// request is honoured promptly even at slow rates.
fn sleep_until(inner: &RegistryInner, due: u64) {
    loop {
        let now = rt::monotonic_nanos();
        if now >= due || inner.stopping.load(Ordering::Acquire) {
            return;
        }
        rt::sleep(Duration::from_nanos((due - now).min(50_000_000)));
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
            ("minutes=18446744073709551615", "minutes"),
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

    #[test]
    fn a_panicking_step_is_caught_and_other_statements_keep_stepping() {
        let source = LiveSourceConfig::parse("minutes=1")
            .unwrap()
            .build()
            .unwrap();
        let registry = SubscriptionRegistry::new(Some(source), ExecMetrics::new());
        let inner = &registry.inner;
        let source = inner.source.as_ref().unwrap();
        let sql = "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
                   WHERE act='jumping' AND obj.include('car')";
        let bad = registry.register_query(sql, source).unwrap();
        let good = registry.register_query(sql, source).unwrap();
        let srv = inner.metrics.server();
        // Clip 10 000 is far past the 30-clip source: reading it panics
        // inside the oracle, and the step reports it instead of unwinding.
        assert!(!step(srv, source, &bad, ClipId::new(10_000)));
        for c in 0..30 {
            assert!(step(srv, source, &good, ClipId::new(c)));
        }
        finish_statement(inner, &bad);
        assert!(bad.state.lock().engine.is_none());
        let snap = inner.metrics.snapshot();
        assert_eq!(
            snap.sessions.len(),
            1,
            "the retired statement's line is gone"
        );
        assert_eq!(
            snap.server.total_clips, 30,
            "only the healthy statement stepped"
        );
    }
}
