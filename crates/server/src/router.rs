//! The cluster shard router: one front door over N `svq-serve` shards.
//!
//! A cluster partitions the catalog by `svq_exec::shard_index(video, n)`
//! (a splitmix placement), so every video has exactly one owning shard.
//! The router listens on the ordinary line protocol (clients talk to it
//! exactly as to a single server) and reuses the whole serving core —
//! acceptor, admission, pipelined per-connection I/O, drain — behind the
//! `Backend` seam; only request *execution* differs:
//!
//! * `query`/`stream` naming a video forward verbatim to the owning shard
//!   over that shard's one persistent pipelined upstream connection (a
//!   [`Caller`]); the shard's response — outcome or typed error — relays
//!   byte-for-byte.
//! * `query` with `video: "all"` scatters to every shard and merges the
//!   per-shard [`ClusterTopK`]s with [`merge_cluster`] — the same
//!   reduction a single process runs per video, so the merged outcome is
//!   byte-identical to the single-process answer by the merge's
//!   associativity (see `svq_query::cluster`).
//! * id-less `query`/`stream` (the "sole served video" convenience)
//!   resolve ownership by a stats scatter over the shards' static
//!   inventory, then forward — or mirror the single server's
//!   `bad_request` when the cluster serves zero or many candidates.
//! * `stats` aggregates the cluster view: the router's own front-door
//!   connection/request counters and latency, shard-summed execution
//!   counters, and `shards` / `shards_up` membership.
//!
//! **Failure is typed, never silent and never a hang.** Each shard link
//! re-dials a dead upstream with bounded attempts and exponential backoff
//! (1 ms doubling to the same 100 ms ceiling as the acceptor's
//! accept-error backoff); when the budget is exhausted — or the shard
//! times out mid-request — the client gets a `shard_unavailable` error
//! frame naming the shard. A scatter fails whole: partial top-k results
//! are never served as if they were complete.
//!
//! Send-side work (including a link's bounded reconnect) runs on the
//! requesting connection's reader thread; responses complete on the shard
//! links' demux threads. The router holds no execution pool of its own.

use crate::client::{Caller, Client};
use crate::protocol::{Request, Response, VideoScope};
use crate::server::{Backend, Pending, ServeConfig, ServeConfigBuilder, Server, ServerHandle};
use crate::transport::{Conn, TcpTransport, Transport};
use parking_lot::{rt, Mutex};
use std::io;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};
use svq_exec::{shard_index, ExecMetrics};
use svq_query::{merge_cluster, ClusterPart, QueryOutcome, QueryResults};
use svq_storage::DiskStats;
use svq_types::{RejectReason, SvqError, SvqResult, VideoId};

/// Ceiling of a shard link's reconnect backoff; mirrors the acceptor's
/// `ACCEPT_BACKOFF_MAX` so upstream and downstream recovery pace alike.
const RECONNECT_BACKOFF_MAX: Duration = Duration::from_millis(100);

/// How the router reaches one shard. [`TcpConnector`] is the production
/// path; `Arc<MemTransport>` implements it too, which is how `svq-sim`
/// wires a router to in-memory shard servers under virtual time.
pub trait Connector: Send + Sync {
    fn connect(&self) -> io::Result<Box<dyn Conn>>;
    /// How this upstream is named in `shard_unavailable` messages.
    fn describe(&self) -> String;
}

/// Dial a shard over TCP.
pub struct TcpConnector {
    addr: String,
}

impl TcpConnector {
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into() }
    }
}

impl Connector for TcpConnector {
    fn connect(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(TcpStream::connect(&self.addr)?))
    }

    fn describe(&self) -> String {
        self.addr.clone()
    }
}

impl Connector for crate::transport::MemTransport {
    fn connect(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_connect()?))
    }

    fn describe(&self) -> String {
        "mem".into()
    }
}

/// Construction knobs for [`Router::start`], built (and validated) by
/// [`RouteConfig::builder`]. The front-door half is a [`ServeConfig`]
/// (the router listens with the same serving core); on top come the
/// upstream knobs: the per-operation deadline on shard connections and
/// the reconnect budget of a dead link.
#[derive(Debug, Clone)]
pub struct RouteConfig {
    pub(crate) serve: ServeConfig,
    pub(crate) upstream_timeout: Duration,
    pub(crate) connect_attempts: u32,
}

impl Default for RouteConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::default(),
            upstream_timeout: Duration::from_secs(30),
            connect_attempts: 5,
        }
    }
}

impl RouteConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> RouteConfigBuilder {
        let defaults = RouteConfig::default();
        RouteConfigBuilder {
            serve: ServeConfig::builder(),
            upstream_timeout: defaults.upstream_timeout,
            connect_attempts: defaults.connect_attempts,
        }
    }

    /// Read/write deadline on upstream shard connections.
    pub fn upstream_timeout(&self) -> Duration {
        self.upstream_timeout
    }

    /// Dial attempts (with backoff) before a dead shard link reports
    /// `shard_unavailable`.
    pub fn connect_attempts(&self) -> u32 {
        self.connect_attempts
    }

    /// The front-door serving half.
    pub fn serve(&self) -> &ServeConfig {
        &self.serve
    }
}

/// Validating builder for [`RouteConfig`]. The front-door setters delegate
/// to a [`ServeConfigBuilder`], so both entry points validate the serving
/// half with the same code.
#[derive(Debug, Clone)]
pub struct RouteConfigBuilder {
    serve: ServeConfigBuilder,
    upstream_timeout: Duration,
    connect_attempts: u32,
}

impl RouteConfigBuilder {
    /// Front-door bind address (`host:port`; port 0 picks ephemeral).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.serve = self.serve.addr(addr);
        self
    }

    /// Admission limit on front-door connections.
    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.serve = self.serve.max_conns(max_conns);
        self
    }

    /// Per-connection front-door read deadline.
    pub fn read_timeout(mut self, read_timeout: Duration) -> Self {
        self.serve = self.serve.read_timeout(read_timeout);
        self
    }

    /// Per-connection front-door write deadline.
    pub fn write_timeout(mut self, write_timeout: Duration) -> Self {
        self.serve = self.serve.write_timeout(write_timeout);
        self
    }

    /// Drain deadline before stragglers are force-closed.
    pub fn drain_timeout(mut self, drain_timeout: Duration) -> Self {
        self.serve = self.serve.drain_timeout(drain_timeout);
        self
    }

    /// Frame-size cap (bytes, newline included).
    pub fn max_line(mut self, max_line: usize) -> Self {
        self.serve = self.serve.max_line(max_line);
        self
    }

    /// Requests one front-door connection may have in flight.
    pub fn pipeline_depth(mut self, pipeline_depth: usize) -> Self {
        self.serve = self.serve.pipeline_depth(pipeline_depth);
        self
    }

    /// Read/write deadline on upstream shard connections.
    pub fn upstream_timeout(mut self, upstream_timeout: Duration) -> Self {
        self.upstream_timeout = upstream_timeout;
        self
    }

    /// Dial attempts (with backoff) before a dead link reports
    /// `shard_unavailable`.
    pub fn connect_attempts(mut self, connect_attempts: u32) -> Self {
        self.connect_attempts = connect_attempts;
        self
    }

    /// Validate and produce the config. Every failure is a typed
    /// [`SvqError::InvalidConfig`] naming the offending field, prefixed
    /// `route:`.
    pub fn build(self) -> SvqResult<RouteConfig> {
        if self.upstream_timeout.is_zero() {
            return Err(SvqError::InvalidConfig(
                "route: upstream_timeout must be positive".into(),
            ));
        }
        if self.connect_attempts == 0 {
            return Err(SvqError::InvalidConfig(
                "route: connect_attempts must be at least 1".into(),
            ));
        }
        let serve = self.serve.build().map_err(|e| match e {
            // Keep the field name, but attribute it to the route entry
            // point the caller actually used.
            SvqError::InvalidConfig(msg) => {
                SvqError::InvalidConfig(msg.replacen("serve:", "route:", 1))
            }
            other => other,
        })?;
        Ok(RouteConfig {
            serve,
            upstream_timeout: self.upstream_timeout,
            connect_attempts: self.connect_attempts,
        })
    }
}

/// Entry point for the cluster router.
pub struct Router;

impl Router {
    /// Bind the front door and route to the shards at `shard_addrs`
    /// (index `i` in the list owns the videos with
    /// `shard_index(v, len) == i`). Returns once the listener accepts.
    pub fn start(
        config: RouteConfig,
        shard_addrs: &[String],
        metrics: ExecMetrics,
    ) -> SvqResult<ServerHandle> {
        let connectors = shard_addrs
            .iter()
            .map(|addr| Arc::new(TcpConnector::new(addr.clone())) as Arc<dyn Connector>)
            .collect();
        let transport = Arc::new(TcpTransport::bind(config.serve.addr())?);
        Self::start_on(transport, config, connectors, metrics)
    }

    /// Route over explicit transports — the seam `svq-sim` uses to run a
    /// router and its shards entirely on in-memory loopbacks under the
    /// deterministic scheduler.
    pub fn start_on(
        transport: Arc<dyn Transport>,
        config: RouteConfig,
        shards: Vec<Arc<dyn Connector>>,
        metrics: ExecMetrics,
    ) -> SvqResult<ServerHandle> {
        if shards.is_empty() {
            return Err(SvqError::InvalidConfig(
                "route: at least one shard is required".into(),
            ));
        }
        let backend = Arc::new(RouterBackend {
            links: shards.into_iter().map(ShardLink::new).collect(),
            upstream_timeout: config.upstream_timeout,
            connect_attempts: config.connect_attempts,
            metrics: metrics.clone(),
        });
        Server::start_with_backend(transport, config.serve, backend, metrics)
    }
}

/// One persistent pipelined upstream connection, lazily (re)dialled.
struct ShardLink {
    connector: Arc<dyn Connector>,
    caller: Mutex<Option<Caller>>,
}

impl ShardLink {
    fn new(connector: Arc<dyn Connector>) -> Self {
        Self {
            connector,
            caller: Mutex::new(None),
        }
    }

    /// The cached caller, if it is still alive.
    fn cached(&self) -> Option<Caller> {
        self.caller
            .lock()
            .as_ref()
            .filter(|c| c.is_alive())
            .cloned()
    }

    /// A live caller for this shard: the cached one, or a fresh dial with
    /// bounded attempts and exponential backoff. Sleeps and dials happen
    /// outside the link lock so concurrent requests never convoy behind a
    /// reconnect. `Err` carries the human half of a `shard_unavailable`.
    fn ensure(&self, timeout: Duration, attempts: u32) -> Result<Caller, String> {
        if let Some(caller) = self.cached() {
            return Ok(caller);
        }
        let mut backoff = Duration::from_millis(1);
        let mut last_err = String::from("no dial attempted");
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                rt::sleep(backoff);
                backoff = (backoff * 2).min(RECONNECT_BACKOFF_MAX);
                // Another request may have reconnected while we slept.
                if let Some(caller) = self.cached() {
                    return Ok(caller);
                }
            }
            match self.connector.connect() {
                Ok(conn) => match Client::over(conn, timeout).and_then(Client::into_caller) {
                    Ok(fresh) => {
                        let mut slot = self.caller.lock();
                        if let Some(existing) = slot.as_ref().filter(|c| c.is_alive()) {
                            // A concurrent dial won; keep one connection
                            // per shard and discard ours.
                            let existing = existing.clone();
                            drop(slot);
                            fresh.close();
                            return Ok(existing);
                        }
                        *slot = Some(fresh.clone());
                        return Ok(fresh);
                    }
                    Err(e) => last_err = e.to_string(),
                },
                Err(e) => last_err = e.to_string(),
            }
        }
        Err(format!(
            "{} unreachable after {} attempts: {last_err}",
            self.connector.describe(),
            attempts.max(1)
        ))
    }

    fn close(&self) {
        // Take the caller out first: close() shuts the socket and takes
        // the caller's own locks, none of which belongs under the slot.
        let caller = self.caller.lock().take();
        if let Some(caller) = caller {
            caller.close();
        }
    }
}

/// The forwarding backend behind the router's serving core.
struct RouterBackend {
    links: Vec<ShardLink>,
    upstream_timeout: Duration,
    connect_attempts: u32,
    metrics: ExecMetrics,
}

/// A [`Pending`] that must complete exactly once, shared between a shard
/// callback and the send-side error path.
type PendingCell = Arc<Mutex<Option<Pending>>>;

fn complete_cell(cell: &PendingCell, response: Response) {
    // Take outside the cell lock: complete() enqueues on the connection
    // writer, which takes the writer's own state lock.
    let pending = cell.lock().take();
    if let Some(pending) = pending {
        pending.complete(response);
    }
}

fn unavailable(shard: usize, why: &str) -> Response {
    Response::Error {
        reason: RejectReason::ShardUnavailable,
        message: format!("shard {shard}: {why}"),
    }
}

/// Map one relayed shard response for a forwarded request: outcomes and
/// the shard's own typed errors pass through byte-for-byte; transport
/// failures become `shard_unavailable`.
fn relay(shard: usize, result: SvqResult<Response>) -> Response {
    match result {
        Ok(response @ (Response::Outcome(_) | Response::Error { .. })) => response,
        Ok(other) => Response::Error {
            reason: RejectReason::Internal,
            message: format!("shard {shard} answered out of protocol: {other:?}"),
        },
        Err(e) => unavailable(shard, &e.to_string()),
    }
}

impl Backend for RouterBackend {
    fn dispatch(self: Arc<Self>, _conn_id: u64, _reqno: u64, request: Request, pending: Pending) {
        match request {
            Request::Query { sql, video } => match video {
                VideoScope::One(v) => {
                    let shard = self.owner(v);
                    self.forward(
                        shard,
                        Request::Query {
                            sql,
                            video: VideoScope::One(v),
                        },
                        pending,
                    );
                }
                VideoScope::All => self.query_all(sql, pending),
                VideoScope::Sole => self.resolve_sole(sql, pending, SoleKind::Query),
            },
            Request::Stream { sql, video } => match video {
                Some(v) => {
                    let shard = self.owner(v);
                    self.forward(
                        shard,
                        Request::Stream {
                            sql,
                            video: Some(v),
                        },
                        pending,
                    );
                }
                None => self.resolve_sole(sql, pending, SoleKind::Stream),
            },
            // Standing queries need a push channel pinned to one shard's
            // live source; cross-shard subscription replication is a
            // later layer, so the router refuses rather than forwarding
            // to an arbitrary shard.
            Request::Subscribe { .. } | Request::Unsubscribe { .. } => {
                pending.complete(Response::Error {
                    reason: RejectReason::BadRequest,
                    message: "the cluster router does not serve standing queries yet; \
                              subscribe to a shard's own address"
                        .into(),
                })
            }
            Request::Stats => self.stats(pending),
            // The serving core answers `shutdown` itself; never reached.
            Request::Shutdown => pending.complete(Response::Bye),
        }
    }

    fn stop(&self) {
        for link in &self.links {
            link.close();
        }
    }
}

/// Which id-less request a sole-video discovery is resolving.
#[derive(Clone, Copy)]
enum SoleKind {
    Query,
    Stream,
}

impl RouterBackend {
    fn owner(&self, video: u64) -> usize {
        shard_index(VideoId::new(video), self.links.len())
    }

    /// Forward one request to `shard` and relay whatever comes back. A
    /// caller that died between the liveness check and the write gets one
    /// reconnect round before the request fails typed.
    fn forward(&self, shard: usize, request: Request, pending: Pending) {
        let cell: PendingCell = Arc::new(Mutex::new(Some(pending)));
        for _round in 0..2 {
            let caller =
                match self.links[shard].ensure(self.upstream_timeout, self.connect_attempts) {
                    Ok(caller) => caller,
                    Err(why) => {
                        complete_cell(&cell, unavailable(shard, &why));
                        return;
                    }
                };
            let done = cell.clone();
            let sent = caller.call_with(&request, move |result| {
                complete_cell(&done, relay(shard, result));
            });
            if sent.is_ok() {
                return;
            }
        }
        complete_cell(
            &cell,
            unavailable(shard, "upstream connection died while sending"),
        );
    }

    /// Scatter `request` to every shard; when the last response lands,
    /// `finish` folds the per-shard results and completes the client's
    /// `pending` (exactly once — the fold owns it). Runs on whichever
    /// demux thread completes last (or inline, if every send fails
    /// synchronously). `finish` must never block on a response from one
    /// of this backend's links — it runs on a link's read loop.
    fn scatter(
        self: &Arc<Self>,
        request: &Request,
        pending: Pending,
        finish: impl FnOnce(&Arc<RouterBackend>, Vec<SvqResult<Response>>, Pending) + Send + 'static,
    ) {
        let n = self.links.len();
        let state = Arc::new(ScatterState {
            backend: self.clone(),
            fold: Mutex::new(Some(Fold {
                results: (0..n).map(|_| None).collect(),
                remaining: n,
                finish: Box::new(finish),
                pending,
            })),
        });
        for shard in 0..n {
            let sent: Result<(), String> = (|| {
                let caller =
                    self.links[shard].ensure(self.upstream_timeout, self.connect_attempts)?;
                let st = state.clone();
                caller
                    .call_with(request, move |result| st.deliver(shard, result))
                    .map_err(|e| e.to_string())?;
                Ok(())
            })();
            if let Err(why) = sent {
                state.deliver(shard, Err(SvqError::Storage(why)));
            }
        }
    }

    /// `query` with `video: "all"`: scatter, then merge the per-shard
    /// cluster top-ks. Any unreachable shard fails the whole query typed —
    /// a partial top-k silently missing a shard's videos would be wrong in
    /// the worst way (plausible but incomplete).
    fn query_all(self: &Arc<Self>, sql: String, pending: Pending) {
        let started = Instant::now();
        let request = Request::Query {
            sql,
            video: VideoScope::All,
        };
        self.scatter(&request, pending, move |_backend, results, pending| {
            let mut parts = Vec::with_capacity(results.len());
            let mut disk = DiskStats::default();
            let mut k = 0usize;
            for (shard, result) in results.into_iter().enumerate() {
                let outcome = match relay(shard, result) {
                    Response::Outcome(outcome) => outcome,
                    error => return pending.complete(error),
                };
                disk.sorted_accesses += outcome.disk.sorted_accesses;
                disk.random_accesses += outcome.disk.random_accesses;
                match outcome.results {
                    QueryResults::Cluster(topk) => {
                        k = k.max(topk.k);
                        parts.push(ClusterPart::from(topk));
                    }
                    _ => {
                        return pending.complete(Response::Error {
                            reason: RejectReason::Internal,
                            message: format!("shard {shard} answered a non-cluster outcome"),
                        })
                    }
                }
            }
            let (mut merged, _stats) = merge_cluster(k, parts);
            merged.wall_ms = started.elapsed().as_secs_f64() * 1e3;
            pending.complete(Response::Outcome(QueryOutcome {
                results: QueryResults::Cluster(merged),
                disk,
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
            }));
        });
    }

    /// Resolve an id-less request against the cluster's static inventory
    /// (each shard's `catalog_videos` / `live_streams` stats), then
    /// forward to the sole owner — or mirror the single server's
    /// `bad_request` when the cluster serves zero or many candidates.
    fn resolve_sole(self: &Arc<Self>, sql: String, pending: Pending, kind: SoleKind) {
        self.scatter(
            &Request::Stats,
            pending,
            move |backend, results, pending| {
                let mut counts = Vec::with_capacity(results.len());
                for (shard, result) in results.into_iter().enumerate() {
                    match result {
                        Ok(Response::Stats(frame)) => counts.push(match kind {
                            SoleKind::Query => frame.catalog_videos,
                            SoleKind::Stream => frame.live_streams,
                        }),
                        Ok(other) => {
                            return pending.complete(Response::Error {
                                reason: RejectReason::Internal,
                                message: format!(
                                    "shard {shard} answered out of protocol: {other:?}"
                                ),
                            })
                        }
                        Err(e) => return pending.complete(unavailable(shard, &e.to_string())),
                    }
                }
                let total: u64 = counts.iter().sum();
                let (what, request) = match kind {
                    SoleKind::Query => (
                        "catalog video",
                        Request::Query {
                            sql,
                            video: VideoScope::Sole,
                        },
                    ),
                    SoleKind::Stream => ("live stream", Request::Stream { sql, video: None }),
                };
                if total != 1 {
                    return pending.complete(Response::Error {
                        reason: RejectReason::BadRequest,
                        message: format!("{total} {what}s served; name one with `video`"),
                    });
                }
                let owner = counts.iter().position(|&c| c == 1).unwrap_or_default();
                // Second hop, still asynchronous: `forward` registers a
                // callback and returns, so this demux thread's read loop is
                // never held hostage to the owner's response — even when the
                // owner is the link whose thread runs this fold.
                backend.forward(owner, request, pending);
            },
        );
    }

    /// Aggregate the cluster view: router front-door counters and latency
    /// (this is the service the client talks to), shard-summed execution
    /// counters and inventory, `shards_up` from who answered. Stats stay
    /// best-effort — a dead shard lowers `shards_up` instead of failing
    /// the frame.
    fn stats(self: &Arc<Self>, pending: Pending) {
        self.scatter(&Request::Stats, pending, |backend, results, pending| {
            let mut frame = backend.metrics.snapshot().server;
            frame.shards = backend.links.len() as u64;
            for result in results {
                if let Ok(Response::Stats(shard)) = result {
                    frame.shards_up += 1;
                    frame.catalog_hits += shard.catalog_hits;
                    frame.catalog_misses += shard.catalog_misses;
                    frame.catalog_videos += shard.catalog_videos;
                    frame.live_streams += shard.live_streams;
                    frame.total_clips += shard.total_clips;
                }
            }
            pending.complete(Response::Stats(frame));
        });
    }
}

/// Shared state of one in-flight scatter; see [`RouterBackend::scatter`].
struct ScatterState {
    backend: Arc<RouterBackend>,
    /// Taken by the last delivery, which runs the fold.
    fold: Mutex<Option<Fold>>,
}

struct Fold {
    results: Vec<Option<SvqResult<Response>>>,
    remaining: usize,
    finish: FinishFn,
    pending: Pending,
}

type FinishFn = Box<dyn FnOnce(&Arc<RouterBackend>, Vec<SvqResult<Response>>, Pending) + Send>;

impl ScatterState {
    fn deliver(self: &Arc<Self>, shard: usize, result: SvqResult<Response>) {
        let done = {
            let mut slot = self.fold.lock();
            let Some(fold) = slot.as_mut() else { return };
            fold.results[shard] = Some(result);
            fold.remaining -= 1;
            if fold.remaining > 0 {
                return;
            }
            slot.take()
        };
        // Last one in folds, with no lock held, so a `finish` that issues
        // new calls can never deadlock back into this state.
        if let Some(fold) = done {
            let results = fold
                .results
                .into_iter()
                .map(|slot| {
                    slot.unwrap_or_else(|| {
                        Err(SvqError::Storage("scatter slot never delivered".into()))
                    })
                })
                .collect();
            (fold.finish)(&self.backend, results, fold.pending);
        }
    }
}
