//! The service itself: acceptor, admission control, pipelined
//! per-connection I/O threads, and graceful drain.
//!
//! Architecture (`std::net`, the build is fully offline, so there is no
//! async runtime to lean on):
//!
//! * An **acceptor** thread owns the listener. Every accepted socket is
//!   answered: admitted connections get a reader thread; connections over
//!   the slot limit get a typed `busy` frame and a clean close; during
//!   drain everyone new gets `draining`. A socket is never silently
//!   dropped while the server runs — including when a handler thread
//!   cannot be spawned (typed `internal` frame) or when the listener
//!   itself fails persistently (bounded backoff, never a busy-spin).
//! * A per-connection **reader** thread speaks the line protocol under
//!   read/write deadlines, but does not execute requests: each decoded
//!   `query`/`stream` is handed to the shared `svq-exec` worker pool and
//!   the reader moves on to the next frame, so one connection can have
//!   many requests in flight (bounded by [`ServeConfig::pipeline_depth`]).
//!   Malformed frames are answered and survived; expired read deadlines
//!   answer `timeout`, let the in-flight responses flush, and close.
//! * A per-connection **writer** thread is the single owner of the write
//!   half: completions enqueue encoded frames and the writer flushes them
//!   in completion order. One dispatch rule keeps v1 (id-less) responses
//!   in request order: an id-less frame, like every error frame the
//!   reader makes itself, is dispatched only once every earlier request
//!   on the connection has completed.
//! * The **phase** cell (`running → draining → stopped`) is the drain
//!   state machine. [`ServerHandle::shutdown`] (or a wire `shutdown`
//!   request) flips it to draining: idle connections are closed
//!   immediately, in-flight requests run to completion, and new
//!   connections are refused with `draining` until teardown. Whoever wins
//!   the [`ServerHandle::wait`] teardown race force-closes stragglers at
//!   the drain deadline, joins the acceptor, and latches a [`ServeReport`]
//!   every other waiter observes — `wait` is idempotent, like the mux's.
//!
//! Offline `query` requests execute on pool workers against a shared
//! lazily-loaded [`VideoRepository`] (optionally residency-bounded — see
//! [`VideoRepository::with_cache_capacity`]). A `stream` request is one
//! pool job too: the whole stream runs to completion through
//! [`execute_online`], the in-process reference path, so wire results are
//! the exact in-process [`QueryOutcome`] envelopes (see `protocol`) by
//! construction. Standing queries (`subscribe`), whose clips arrive over
//! time, are stepped clip by clip on the live source's driver thread (see
//! `subscribe`), not on the pool.

use crate::protocol::{
    encode_line, encode_response_line, parse_request_frame, read_bounded_line, LineEvent, Request,
    Response, StatsFrame, VideoScope, MAX_LINE_BYTES,
};
use crate::subscribe::{LiveSourceConfig, SubscriptionRegistry};
use crate::transport::{Conn, TcpTransport, Transport};
use parking_lot::{rt, Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, ErrorKind, Write};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svq_core::online::OnlineConfig;
use svq_exec::{ExecMetrics, WorkerPool};
use svq_query::{
    execute_offline, execute_offline_all, execute_online, parse, LogicalPlan, QueryMode,
    QueryOutcome,
};
use svq_storage::VideoRepository;
use svq_types::{PaperScoring, RejectReason, SvqError, SvqResult, VideoId};
use svq_vision::models::DetectionOracle;
use svq_vision::VideoStream;

/// Construction knobs for [`Server::start`], built (and validated) by
/// [`ServeConfig::builder`].
///
/// Fields are private: every construction path — `svqact serve`, the
/// benches, the simulation scenarios — goes through the builder, so an
/// out-of-range knob is a typed [`SvqError::InvalidConfig`] naming the
/// offending field instead of a latent misbehaviour at serve time.
/// [`ServeConfig::default`] is the builder's starting point and always
/// valid.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    pub(crate) addr: String,
    pub(crate) max_conns: usize,
    pub(crate) read_timeout: Duration,
    pub(crate) write_timeout: Duration,
    pub(crate) drain_timeout: Duration,
    pub(crate) max_line: usize,
    pub(crate) workers: usize,
    pub(crate) pipeline_depth: usize,
    pub(crate) debug_fail_spawns: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            max_conns: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            max_line: MAX_LINE_BYTES,
            workers: 2,
            pipeline_depth: 64,
            debug_fail_spawns: 0,
        }
    }
}

impl ServeConfig {
    /// Start building a config from the defaults.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }

    /// Bind address; port 0 picks an ephemeral port (read it back via
    /// [`ServerHandle::local_addr`]).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Admission limit: connections held concurrently.
    pub fn max_conns(&self) -> usize {
        self.max_conns
    }

    /// Per-connection read deadline.
    pub fn read_timeout(&self) -> Duration {
        self.read_timeout
    }

    /// Per-connection write deadline.
    pub fn write_timeout(&self) -> Duration {
        self.write_timeout
    }

    /// How long a drain waits before force-closing stragglers.
    pub fn drain_timeout(&self) -> Duration {
        self.drain_timeout
    }

    /// Frame-size cap (bytes, newline included).
    pub fn max_line(&self) -> usize {
        self.max_line
    }

    /// Worker threads in the shared execution pool.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Requests one connection may have in flight.
    pub fn pipeline_depth(&self) -> usize {
        self.pipeline_depth
    }
}

/// Validating builder for [`ServeConfig`]: setters only record values, and
/// [`Self::build`] returns one [`SvqError::InvalidConfig`] naming the first
/// invalid field. [`crate::RouteConfigBuilder`] delegates its front-door half
/// here.
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Admission limit: connections held concurrently.
    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.config.max_conns = max_conns;
        self
    }

    /// Per-connection read deadline.
    pub fn read_timeout(mut self, read_timeout: Duration) -> Self {
        self.config.read_timeout = read_timeout;
        self
    }

    /// Per-connection write deadline.
    pub fn write_timeout(mut self, write_timeout: Duration) -> Self {
        self.config.write_timeout = write_timeout;
        self
    }

    /// Drain deadline before stragglers are force-closed.
    pub fn drain_timeout(mut self, drain_timeout: Duration) -> Self {
        self.config.drain_timeout = drain_timeout;
        self
    }

    /// Frame-size cap (bytes, newline included).
    pub fn max_line(mut self, max_line: usize) -> Self {
        self.config.max_line = max_line;
        self
    }

    /// Worker threads in the shared execution pool.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Accepted and ignored; kept only until the benchmark stops naming it
    /// (ROADMAP item 19).
    #[doc(hidden)]
    pub fn shards(self, _shards: usize) -> Self {
        self
    }

    /// Requests one connection may have in flight (per-connection
    /// backpressure bound).
    pub fn pipeline_depth(mut self, pipeline_depth: usize) -> Self {
        self.config.pipeline_depth = pipeline_depth;
        self
    }

    /// Test hook: fail this many handler spawns artificially (exercises
    /// the spawn-failure answer path, which real resource exhaustion makes
    /// impractical to reach deterministically). Production configs leave
    /// this 0.
    #[doc(hidden)]
    pub fn debug_fail_spawns(mut self, debug_fail_spawns: u64) -> Self {
        self.config.debug_fail_spawns = debug_fail_spawns;
        self
    }

    /// Validate and produce the config. Every failure is a typed
    /// [`SvqError::InvalidConfig`] naming the offending field.
    pub fn build(self) -> SvqResult<ServeConfig> {
        let c = &self.config;
        let fail = |msg: String| Err(SvqError::InvalidConfig(msg));
        if c.addr.is_empty() {
            return fail("serve: addr must not be empty".into());
        }
        if c.max_conns == 0 {
            return fail("serve: max_conns must be at least 1".into());
        }
        if c.read_timeout.is_zero() {
            return fail("serve: read_timeout must be positive".into());
        }
        if c.write_timeout.is_zero() {
            return fail("serve: write_timeout must be positive".into());
        }
        if c.drain_timeout.is_zero() {
            return fail("serve: drain_timeout must be positive".into());
        }
        if c.max_line < 64 {
            return fail(format!(
                "serve: max_line must be at least 64 bytes, got {}",
                c.max_line
            ));
        }
        if c.workers == 0 {
            return fail("serve: workers must be at least 1".into());
        }
        if c.pipeline_depth == 0 {
            return fail("serve: pipeline_depth must be at least 1".into());
        }
        Ok(self.config)
    }
}

/// What a completed serve run did, latched by [`ServerHandle::wait`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeReport {
    /// The address actually bound (resolves port 0).
    pub addr: SocketAddr,
    pub accepted: u64,
    pub rejected_busy: u64,
    pub rejected_draining: u64,
    pub timed_out: u64,
    pub malformed: u64,
    /// Listener `accept` failures survived with backoff.
    pub accept_errors: u64,
    pub requests: u64,
    /// Whether every connection closed within the drain deadline.
    pub drained_in_deadline: bool,
    /// Connections force-closed at the deadline.
    pub forced_closes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Draining,
    Stopped,
}

/// One admitted connection's registry entry. The stream clone shares the
/// socket, so drain can close idle connections (and force-close stragglers
/// at the deadline) without the handler's cooperation.
struct ConnEntry {
    id: u64,
    stream: Box<dyn Conn>,
    /// Requests dispatched on this connection whose responses have not
    /// flushed yet (shared with its [`ConnWriter`]). Drain closes only
    /// connections observed at zero, so in-flight requests complete.
    in_flight: Arc<AtomicU64>,
}

/// What executes decoded requests behind the serving core.
///
/// The acceptor / admission / per-connection reader & writer / drain
/// machinery is backend-agnostic: [`LocalBackend`] executes against the
/// in-process engines, and the cluster router (`crate::router`) forwards
/// over upstream connections — both behind the same wire behaviour, which
/// is what lets clients talk to a router exactly as to a single server.
pub(crate) trait Backend: Send + Sync {
    /// Answer one decoded request: complete `pending` exactly once, from
    /// whatever thread finishes the work. `shutdown` frames never reach
    /// the backend — the serving core answers `bye` and drains itself.
    fn dispatch(self: Arc<Self>, conn_id: u64, reqno: u64, request: Request, pending: Pending);

    /// Stop backend-owned machinery (upstream links, sessions, the live
    /// source driver) during teardown, after the drain settled and before
    /// the report latches.
    fn stop(&self) {}

    /// A connection's reader loop ended (EOF, deadline, drain close): the
    /// backend drops whatever it holds on the connection's behalf —
    /// standing subscriptions, for the local backend. Runs before the
    /// connection's writer is told to finish, so nothing enqueues onto a
    /// retired writer.
    fn conn_closed(&self, _conn_id: u64) {}
}

pub(crate) struct Shared {
    config: ServeConfig,
    transport: Arc<dyn Transport>,
    backend: Arc<dyn Backend>,
    metrics: ExecMetrics,
    phase: Mutex<Phase>,
    phase_cv: Condvar,
    /// The admitted connections: admission is `len() < max_conns` under
    /// this lock, and the condvar signals every removal so teardown can
    /// wait for the registry to empty.
    conns: Mutex<Vec<ConnEntry>>,
    conns_cv: Condvar,
    next_conn: AtomicU64,
    /// Remaining injected spawn failures ([`ServeConfig::debug_fail_spawns`]).
    spawn_faults: AtomicU64,
    local_addr: SocketAddr,
}

impl Shared {
    fn phase(&self) -> Phase {
        *self.phase.lock()
    }

    fn take_spawn_fault(&self) -> bool {
        self.spawn_faults
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Flip to draining (idempotent): refuse new work, close idle
    /// connections, let in-flight requests finish.
    fn begin_drain(&self) {
        {
            let mut phase = self.phase.lock();
            if *phase != Phase::Running {
                return;
            }
            *phase = Phase::Draining;
            self.phase_cv.notify_all();
        }
        close_idle(&self.conns.lock());
    }
}

/// Close connections observed idle so their blocked reads return now
/// rather than at the read deadline. A connection whose request is racing
/// this scan at most loses that request — the same outcome as arriving one
/// instant after the drain began. The teardown loop re-runs this scan: a
/// pipelined connection may only *become* idle (its last response flushed)
/// after the drain began, with its reader already parked in a blocked read.
fn close_idle(conns: &[ConnEntry]) {
    for conn in conns {
        if conn.in_flight.load(Ordering::Acquire) == 0 {
            let _ = conn.stream.shutdown_both();
        }
    }
}

/// Entry point for the service layer.
pub struct Server;

/// Handle to a running server. Cheap operations only; the heavy teardown
/// happens in [`ServerHandle::wait`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Mutex<Option<rt::JoinHandle<()>>>,
    /// Claims the (single) teardown; losers of the race wait on the latch.
    teardown_claimed: AtomicBool,
    report: Mutex<Option<ServeReport>>,
    report_cv: Condvar,
}

impl Server {
    /// Bind and serve. `repo` backs `query` requests (absent: `query` is
    /// answered `bad_request`); `oracles` back `stream` requests, keyed by
    /// their ground truth's video id. Returns once the listener is bound
    /// and accepting.
    pub fn start(
        config: ServeConfig,
        repo: Option<Arc<VideoRepository>>,
        oracles: Vec<Arc<DetectionOracle>>,
        metrics: ExecMetrics,
    ) -> SvqResult<ServerHandle> {
        Self::start_with_source(config, repo, oracles, None, metrics)
    }

    /// [`Server::start`] plus an optional live source backing `subscribe`
    /// requests (see [`LiveSourceConfig`]); without one, `subscribe` is
    /// answered `bad_request`.
    pub fn start_with_source(
        config: ServeConfig,
        repo: Option<Arc<VideoRepository>>,
        oracles: Vec<Arc<DetectionOracle>>,
        source: Option<LiveSourceConfig>,
        metrics: ExecMetrics,
    ) -> SvqResult<ServerHandle> {
        let transport = Arc::new(TcpTransport::bind(&config.addr)?);
        Self::start_on_with_source(transport, config, repo, oracles, source, metrics)
    }

    /// Serve over an explicit [`Transport`] — the seam `svq-sim` uses to
    /// run the whole service on an in-memory loopback under its
    /// deterministic scheduler. [`Server::start`] is `start_on` with a
    /// freshly bound [`TcpTransport`].
    pub fn start_on(
        transport: Arc<dyn Transport>,
        config: ServeConfig,
        repo: Option<Arc<VideoRepository>>,
        oracles: Vec<Arc<DetectionOracle>>,
        metrics: ExecMetrics,
    ) -> SvqResult<ServerHandle> {
        Self::start_on_with_source(transport, config, repo, oracles, None, metrics)
    }

    /// The fully general local server: explicit transport plus an optional
    /// live source for standing queries.
    pub fn start_on_with_source(
        transport: Arc<dyn Transport>,
        config: ServeConfig,
        repo: Option<Arc<VideoRepository>>,
        oracles: Vec<Arc<DetectionOracle>>,
        source: Option<LiveSourceConfig>,
        metrics: ExecMetrics,
    ) -> SvqResult<ServerHandle> {
        let pool = WorkerPool::new(config.workers.max(1), 1024, metrics.clone());
        let oracles = oracles.into_iter().map(|o| (o.truth().video, o)).collect();
        let live = match source {
            Some(config) => Some(config.build()?),
            None => None,
        };
        let subs = SubscriptionRegistry::new(live, metrics.clone());
        let backend = Arc::new(LocalBackend {
            repo,
            oracles,
            pool,
            subs,
            metrics: metrics.clone(),
        });
        backend.subs.start_driver()?;
        Self::start_with_backend(transport, config, backend, metrics)
    }

    /// The backend-agnostic serving core: acceptor, admission, drain —
    /// shared between [`Server::start_on`] and the cluster router.
    pub(crate) fn start_with_backend(
        transport: Arc<dyn Transport>,
        config: ServeConfig,
        backend: Arc<dyn Backend>,
        metrics: ExecMetrics,
    ) -> SvqResult<ServerHandle> {
        if config.max_conns == 0 {
            return Err(SvqError::InvalidConfig(
                "serve: max_conns must be at least 1".into(),
            ));
        }
        let local_addr = transport.local_addr();
        let spawn_faults = AtomicU64::new(config.debug_fail_spawns);
        let shared = Arc::new(Shared {
            config,
            transport,
            backend,
            metrics,
            phase: Mutex::new(Phase::Running),
            phase_cv: Condvar::new(),
            conns: Mutex::new(Vec::new()),
            conns_cv: Condvar::new(),
            next_conn: AtomicU64::new(0),
            spawn_faults,
            local_addr,
        });
        let acceptor = {
            let shared = shared.clone();
            rt::spawn("svq-serve-acceptor", move || accept_loop(&shared)).map_err(SvqError::Io)?
        };
        Ok(ServerHandle {
            shared,
            acceptor: Mutex::new(Some(acceptor)),
            teardown_claimed: AtomicBool::new(false),
            report: Mutex::new(None),
            report_cv: Condvar::new(),
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves a `:0` ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The shared metrics registry: the server block, the pool, and one
    /// session line per running `stream` request and standing statement.
    pub fn metrics(&self) -> &ExecMetrics {
        &self.shared.metrics
    }

    /// Trigger a graceful drain and return immediately. Idempotent; also
    /// triggered by a wire `shutdown` request.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Block until the server has fully stopped and return what it did.
    /// Blocks across the whole serve lifetime if no drain was triggered
    /// yet. Idempotent: every caller observes the same latched report.
    pub fn wait(&self) -> ServeReport {
        {
            let mut phase = self.shared.phase.lock();
            while *phase == Phase::Running {
                self.shared.phase_cv.wait(&mut phase);
            }
        }
        if !self.teardown_claimed.swap(true, Ordering::AcqRel) {
            let report = self.teardown();
            *self.report.lock() = Some(report);
            self.report_cv.notify_all();
        }
        let mut latched = self.report.lock();
        while latched.is_none() {
            self.report_cv.wait(&mut latched);
        }
        match *latched {
            Some(report) => report,
            None => unreachable!("wait loop exits only once the report is latched"),
        }
    }

    /// The single-winner teardown: wait out the drain, force-close
    /// stragglers at the deadline, stop the acceptor, report.
    fn teardown(&self) -> ServeReport {
        let shared = &self.shared;
        // Deadlines run on `rt::monotonic_nanos` so a simulated drain
        // consumes virtual time, not wall time.
        let deadline =
            rt::monotonic_nanos().saturating_add(shared.config.drain_timeout.as_nanos() as u64);
        let mut forced_closes = 0u64;
        {
            let mut conns = shared.conns.lock();
            while !conns.is_empty() {
                let now = rt::monotonic_nanos();
                if now >= deadline {
                    break;
                }
                // Tick so the idle re-scan below runs even while nothing
                // deregisters: a connection may become idle only after the
                // `begin_drain` scan, with its reader parked in a read.
                let tick = Duration::from_nanos((deadline - now).min(25_000_000));
                shared.conns_cv.wait_for(&mut conns, tick);
                close_idle(&conns);
            }
            if !conns.is_empty() {
                for conn in conns.iter() {
                    let _ = conn.stream.shutdown_both();
                }
                forced_closes = conns.len() as u64;
                // The sockets are dead; handlers unwind on their next read
                // or write. Give them a bounded grace to deregister.
                let grace = rt::monotonic_nanos().saturating_add(5_000_000_000);
                while !conns.is_empty() && rt::monotonic_nanos() < grace {
                    shared
                        .conns_cv
                        .wait_for(&mut conns, Duration::from_millis(50));
                }
            }
        }
        let drained_in_deadline = forced_closes == 0;
        // The drain settled (or stragglers were force-closed): stop
        // backend-owned machinery — for a router, the upstream shard links
        // and their reconnect loops.
        shared.backend.stop();
        {
            let mut phase = shared.phase.lock();
            *phase = Phase::Stopped;
            shared.phase_cv.notify_all();
        }
        // Wake the acceptor out of its blocking accept; it observes
        // `Stopped` and exits.
        shared.transport.wake();
        // Take the handle out first so the `acceptor` mutex is released
        // before the (blocking) join — a concurrent `stop()` must never
        // queue behind a join that waits on the accept loop to notice.
        let handle = self.acceptor.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        // Release the bound socket: dials after shutdown must be refused,
        // not parked in a backlog nobody will ever accept.
        shared.transport.close();
        let snap = shared.metrics.snapshot().server;
        ServeReport {
            addr: shared.local_addr,
            accepted: snap.accepted,
            rejected_busy: snap.rejected_busy,
            rejected_draining: snap.rejected_draining,
            timed_out: snap.timed_out,
            malformed: snap.malformed,
            accept_errors: snap.accept_errors,
            requests: snap.requests,
            drained_in_deadline,
            forced_closes,
        }
    }
}

/// Ceiling of the accept-error backoff. Deep enough to take a persistent
/// EMFILE from a busy-spin to ~10 syscalls/s, shallow enough that recovery
/// after the condition clears is prompt.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);

fn accept_loop(shared: &Arc<Shared>) {
    let mut backoff = Duration::ZERO;
    loop {
        let stream = match shared.transport.accept() {
            Ok(stream) => {
                backoff = Duration::ZERO;
                stream
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                if shared.phase() == Phase::Stopped {
                    return;
                }
                // Persistent accept failures (EMFILE, ENFILE, transport
                // faults) must not busy-spin the acceptor at 100% CPU:
                // back off exponentially, bounded, and count each one.
                shared
                    .metrics
                    .server()
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                backoff = (backoff * 2).clamp(Duration::from_millis(1), ACCEPT_BACKOFF_MAX);
                rt::sleep(backoff);
                if shared.phase() == Phase::Stopped {
                    return;
                }
                continue;
            }
        };
        match shared.phase() {
            Phase::Stopped => return,
            Phase::Draining => {
                shared
                    .metrics
                    .server()
                    .rejected_draining
                    .fetch_add(1, Ordering::Relaxed);
                refuse(
                    stream,
                    shared,
                    RejectReason::Draining,
                    "server is draining towards shutdown",
                );
                continue;
            }
            Phase::Running => {}
        }
        let mut conns = shared.conns.lock();
        if conns.len() >= shared.config.max_conns {
            drop(conns);
            shared
                .metrics
                .server()
                .rejected_busy
                .fetch_add(1, Ordering::Relaxed);
            refuse(
                stream,
                shared,
                RejectReason::Busy,
                "all connection slots are occupied; retry shortly",
            );
            continue;
        }
        shared.metrics.server().conn_opened();
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        // Register *before* spawning: a connection that cannot enter the
        // registry would be invisible to drain (neither closed idle nor
        // force-closed at the deadline), so a clone failure refuses the
        // connection instead of admitting it unreachable.
        let clone = match stream.try_clone_conn() {
            Ok(clone) => clone,
            Err(e) => {
                drop(conns);
                shared.metrics.server().conn_closed();
                refuse(
                    stream,
                    shared,
                    RejectReason::Internal,
                    &format!("connection setup failed: {e}"),
                );
                continue;
            }
        };
        let in_flight = Arc::new(AtomicU64::new(0));
        conns.push(ConnEntry {
            id: conn_id,
            stream: clone,
            in_flight: in_flight.clone(),
        });
        drop(conns);
        let in_thread = shared.clone();
        let spawned = if shared.take_spawn_fault() {
            Err(std::io::Error::other("injected handler-spawn failure"))
        } else {
            rt::spawn(&format!("svq-serve-conn{conn_id}"), move || {
                handle_conn(&in_thread, conn_id, stream, &in_flight);
                deregister(&in_thread, conn_id);
            })
        };
        if spawned.is_err() {
            // The spawn consumed (and dropped) the accepted socket, but
            // the registry clone still shares it: answer a typed frame
            // and close cleanly — never a silent drop.
            answer_spawn_failure(shared, conn_id);
        }
    }
}

/// Answer a refused connection with a typed frame and close it cleanly
/// (frame, FIN) — never a silent drop.
fn refuse(mut stream: Box<dyn Conn>, shared: &Shared, reason: RejectReason, message: &str) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let frame = Response::Error {
        reason,
        message: message.into(),
    };
    let _ = stream.write_all(encode_line(&frame).as_bytes());
    let _ = stream.shutdown_write();
}

/// Spawn-failure path: take the connection's registry entry and answer a
/// typed `internal` frame on its clone. The write happens after the entry
/// leaves the registry, outside the `conns` lock.
fn answer_spawn_failure(shared: &Shared, conn_id: u64) {
    if let Some(mut entry) = deregister(shared, conn_id) {
        let _ = entry
            .stream
            .set_write_timeout(Some(shared.config.write_timeout));
        let frame = Response::Error {
            reason: RejectReason::Internal,
            message: "server could not start a connection handler".into(),
        };
        let _ = entry.stream.write_all(encode_line(&frame).as_bytes());
        let _ = entry.stream.shutdown_write();
    }
}

/// Take a finished connection out of the registry, which frees its
/// admission slot, and wake a teardown waiting for the registry to empty.
fn deregister(shared: &Shared, conn_id: u64) -> Option<ConnEntry> {
    let mut conns = shared.conns.lock();
    let entry = conns
        .iter()
        .position(|c| c.id == conn_id)
        .map(|at| conns.remove(at));
    shared.metrics.server().conn_closed();
    shared.conns_cv.notify_all();
    entry
}

/// One line in a connection writer's flush queue, with the counter its
/// flush releases.
struct OutLine {
    line: String,
    /// `None`: a response occupying one of the connection's in-flight
    /// pipeline slots. `Some(gauge)`: a subscription push, accounted
    /// against its subscription's bounded `queued` gauge instead — pushes
    /// never hold pipeline slots, so a connection that only receives
    /// pushes stays drain-closable.
    push: Option<Arc<AtomicU64>>,
}

struct WriterState {
    /// Encoded lines ready to flush, in completion order.
    ready: VecDeque<OutLine>,
    /// Dispatched requests whose responses are not in `ready` yet.
    executing: u64,
    /// Reader finished; exit once everything in flight has flushed.
    closed: bool,
    /// A write failed; remaining lines are consumed without writing so
    /// the in-flight accounting still terminates.
    failed: bool,
}

/// The per-connection response writer: reader-side dispatch acquires an
/// in-flight slot per request, completions enqueue encoded frames, and
/// one writer thread flushes them first in, first out.
pub(crate) struct ConnWriter {
    state: Mutex<WriterState>,
    /// Signals enqueued lines, in-flight decrements, and close.
    cv: Condvar,
    /// Mirror of the dispatched-unflushed count, shared with the
    /// connection's registry entry so drain can observe idleness without
    /// the state lock. Mutated only under `state`.
    in_flight: Arc<AtomicU64>,
}

/// A running [`ConnWriter`] plus its thread, joined by `finish`.
struct WriterHandle {
    writer: Arc<ConnWriter>,
    thread: rt::JoinHandle<()>,
}

impl ConnWriter {
    /// Spawn the writer thread owning `stream`'s write half.
    fn start(
        conn_id: u64,
        stream: Box<dyn Conn>,
        in_flight: Arc<AtomicU64>,
    ) -> std::io::Result<WriterHandle> {
        let writer = Arc::new(ConnWriter {
            state: Mutex::new(WriterState {
                ready: VecDeque::new(),
                executing: 0,
                closed: false,
                failed: false,
            }),
            cv: Condvar::new(),
            in_flight,
        });
        let in_thread = writer.clone();
        let thread = rt::spawn(&format!("svq-serve-writer{conn_id}"), move || {
            writer_loop(&in_thread, stream)
        })?;
        Ok(WriterHandle { writer, thread })
    }

    /// Reader side: block until the connection is below `depth` in-flight
    /// responses and, for an id-less frame (`ordered`), until every
    /// earlier request has completed; then claim a slot. Every claimed
    /// slot must be paired with exactly one later [`ConnWriter::enqueue`].
    fn acquire(&self, depth: u64, ordered: bool) {
        let mut state = self.state.lock();
        while !state.failed
            && (self.in_flight.load(Ordering::Acquire) >= depth || (ordered && state.executing > 0))
        {
            self.cv.wait(&mut state);
        }
        state.executing += 1;
        self.in_flight.fetch_add(1, Ordering::AcqRel);
    }

    /// Completion side: hand one encoded response line to the writer.
    fn enqueue(&self, line: String) {
        let mut state = self.state.lock();
        state.executing -= 1;
        state.ready.push_back(OutLine { line, push: None });
        self.cv.notify_all();
    }

    /// Reader side: answer a frame the reader made itself (malformed,
    /// oversize, timeout) in its id-less turn.
    fn answer(&self, depth: u64, response: &Response) {
        self.acquire(depth, true);
        self.enqueue(encode_response_line(response, None));
    }

    /// Push side (standing queries): hand one server-initiated frame to
    /// the writer without claiming a pipeline slot. `queued` is the
    /// subscription's resident-line gauge, already incremented by the
    /// caller's budget claim; the writer decrements it when the line
    /// flushes (or is consumed after a write failure).
    pub(crate) fn enqueue_push(&self, line: String, queued: Arc<AtomicU64>) {
        let mut state = self.state.lock();
        state.ready.push_back(OutLine {
            line,
            push: Some(queued),
        });
        self.cv.notify_all();
    }

    /// Reader side: no more requests will be dispatched.
    fn close(&self) {
        self.state.lock().closed = true;
        self.cv.notify_all();
    }
}

impl WriterHandle {
    /// Declare end-of-dispatch and wait for every in-flight response to
    /// flush (or be dropped after a write failure).
    fn finish(self) {
        self.writer.close();
        let _ = self.thread.join();
    }
}

/// The writer thread: pop one flushable line at a time and write it with
/// no lock held. Exits once the reader closed the dispatch side and the
/// last in-flight response has flushed.
fn writer_loop(writer: &ConnWriter, mut stream: Box<dyn Conn>) {
    loop {
        let (out, failed) = {
            let mut state = writer.state.lock();
            loop {
                if let Some(out) = state.ready.pop_front() {
                    break (Some(out), state.failed);
                }
                if state.closed && writer.in_flight.load(Ordering::Acquire) == 0 {
                    break (None, state.failed);
                }
                writer.cv.wait(&mut state);
            }
        };
        let Some(out) = out else { return };
        if !failed {
            let ok = stream
                .write_all(out.line.as_bytes())
                .and_then(|()| stream.flush())
                .is_ok();
            if !ok {
                // Unblock the reader (and the peer); later lines are
                // consumed without writing so accounting terminates.
                let _ = stream.shutdown_both();
                writer.state.lock().failed = true;
            }
        }
        let state = writer.state.lock();
        match out.push {
            // A flushed (or consumed) push releases its subscription's
            // budget slot; pipeline slots are untouched.
            Some(queued) => {
                queued.fetch_sub(1, Ordering::AcqRel);
            }
            None => {
                writer.in_flight.fetch_sub(1, Ordering::AcqRel);
            }
        }
        writer.cv.notify_all();
        drop(state);
    }
}

/// Everything one dispatched request needs to answer: completion calls
/// [`Pending::complete`] exactly once, from whatever thread finished the
/// work.
pub(crate) struct Pending {
    shared: Arc<Shared>,
    writer: Arc<ConnWriter>,
    id: Option<u64>,
    kind: &'static str,
    started: Instant,
}

impl Pending {
    pub(crate) fn complete(self, response: Response) {
        record_request(&self.shared, self.kind, self.started.elapsed());
        self.writer
            .enqueue(encode_response_line(&response, self.id));
    }
}

fn handle_conn(
    shared: &Arc<Shared>,
    conn_id: u64,
    stream: Box<dyn Conn>,
    in_flight: &Arc<AtomicU64>,
) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut reader = match stream.try_clone_conn() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => {
            // No read half: answer before closing — never a silent drop.
            let mut stream = stream;
            let frame = Response::Error {
                reason: RejectReason::Internal,
                message: "connection setup failed".into(),
            };
            let _ = stream.write_all(encode_line(&frame).as_bytes());
            let _ = stream.shutdown_write();
            return;
        }
    };
    let writer = match ConnWriter::start(conn_id, stream, in_flight.clone()) {
        Ok(writer) => writer,
        Err(_) => {
            // The stream went into the failed spawn attempt; the reader
            // clone still shares the socket — answer on it.
            let frame = Response::Error {
                reason: RejectReason::Internal,
                message: "server could not start a connection writer".into(),
            };
            let half = reader.get_mut();
            let _ = half.write_all(encode_line(&frame).as_bytes());
            let _ = half.shutdown_write();
            return;
        }
    };
    let depth = shared.config.pipeline_depth.max(1) as u64;
    let srv = shared.metrics.server();
    let mut reqno = 0u64;
    loop {
        if shared.phase() != Phase::Running {
            break;
        }
        match read_bounded_line(&mut reader, shared.config.max_line) {
            LineEvent::Line(line) => {
                let started = Instant::now();
                let frame = match parse_request_frame(&line) {
                    Ok(frame) => frame,
                    Err((reason, message)) => {
                        srv.malformed.fetch_add(1, Ordering::Relaxed);
                        writer
                            .writer
                            .answer(depth, &Response::Error { reason, message });
                        continue;
                    }
                };
                reqno += 1;
                writer.writer.acquire(depth, frame.id.is_none());
                let pending = Pending {
                    shared: shared.clone(),
                    writer: writer.writer.clone(),
                    id: frame.id,
                    kind: frame.request.kind(),
                    started,
                };
                match frame.request {
                    Request::Shutdown => {
                        pending.complete(Response::Bye);
                        shared.begin_drain();
                        // Stop reading; the writer flushes the bye (and
                        // everything still in flight) first.
                        break;
                    }
                    request => shared
                        .backend
                        .clone()
                        .dispatch(conn_id, reqno, request, pending),
                }
            }
            LineEvent::Oversize { eof } => {
                srv.malformed.fetch_add(1, Ordering::Relaxed);
                let message = format!(
                    "request line exceeded {} bytes; frame discarded",
                    shared.config.max_line
                );
                writer.writer.answer(
                    depth,
                    &Response::Error {
                        reason: RejectReason::Oversize,
                        message,
                    },
                );
                if eof {
                    break;
                }
            }
            LineEvent::TimedOut => {
                if shared.phase() == Phase::Running {
                    srv.timed_out.fetch_add(1, Ordering::Relaxed);
                    writer.writer.answer(
                        depth,
                        &Response::Error {
                            reason: RejectReason::Timeout,
                            message: "read deadline expired; closing".into(),
                        },
                    );
                }
                break;
            }
            LineEvent::Eof | LineEvent::Failed(_) => break,
        }
    }
    // The reader is done: drop backend-held per-connection state (standing
    // subscriptions) before the writer retires, so nothing enqueues onto a
    // finished writer. Already-enqueued pushes still flush below.
    shared.backend.conn_closed(conn_id);
    // Let every dispatched request flush its response before the
    // connection closes — a stalled pipeline drains, never vanishes.
    writer.finish();
}

/// The in-process execution backend: the engines, catalogs and live
/// streams a single `svq-serve` instance owns. The cluster router swaps
/// this for `crate::router`'s forwarding backend behind the same
/// [`Backend`] seam.
///
/// Catalogs are immutable and every offline run owns its access ledger, so
/// any number of queries on one video run at once, one per pool worker,
/// and each outcome's `disk` counts exactly that run's accesses.
pub(crate) struct LocalBackend {
    repo: Option<Arc<VideoRepository>>,
    oracles: BTreeMap<VideoId, Arc<DetectionOracle>>,
    /// Runs `query` and `stream` requests, one job each.
    pool: WorkerPool,
    /// Standing-query registry (empty, but answerable, without a source).
    subs: SubscriptionRegistry,
    metrics: ExecMetrics,
}

impl Backend for LocalBackend {
    fn dispatch(self: Arc<Self>, conn_id: u64, reqno: u64, request: Request, pending: Pending) {
        match request {
            Request::Stats => pending.complete(Response::Stats(self.stats())),
            Request::Query { sql, video } => self.dispatch_query(pending, sql, video),
            Request::Stream { sql, video } => {
                self.dispatch_stream(conn_id, reqno, sql, video, pending)
            }
            Request::Subscribe {
                sql,
                video,
                drift_every,
            } => self.dispatch_subscribe(conn_id, sql, video, drift_every, pending),
            Request::Unsubscribe { sub } => self.subs.unsubscribe(conn_id, sub, pending),
            // The serving core answers `shutdown` itself; never reached.
            Request::Shutdown => pending.complete(Response::Bye),
        }
    }

    fn stop(&self) {
        self.subs.stop();
    }

    fn conn_closed(&self, conn_id: u64) {
        self.subs.conn_closed(conn_id);
    }
}

impl LocalBackend {
    /// Run an offline `query` on the shared pool; the response flushes
    /// through the connection's writer whenever it completes.
    fn dispatch_query(self: Arc<Self>, pending: Pending, sql: String, video: VideoScope) {
        let me = self.clone();
        self.pool.submit(Box::new(move || {
            pending.complete(guarded("query", || me.do_query(&sql, video)));
        }));
    }

    /// Validate a `stream` request, then run the whole stream as one pool
    /// job — the in-process reference path, [`execute_online`], so the
    /// wire outcome is that execution's by construction. While it runs the
    /// job holds a metrics session line, which also carries its clips into
    /// `total_clips`.
    fn dispatch_stream(
        &self,
        conn_id: u64,
        reqno: u64,
        sql: String,
        video: Option<u64>,
        pending: Pending,
    ) {
        let (plan, oracle) = match self.prepare_stream(&sql, video) {
            Ok(prepared) => prepared,
            Err((reason, message)) => {
                return pending.complete(Response::Error { reason, message });
            }
        };
        let metrics = self.metrics.clone();
        self.pool.submit(Box::new(move || {
            let session = metrics.register_session(format!("conn{conn_id}/r{reqno}"));
            let response = guarded("stream", || {
                execute_online(
                    &plan,
                    &mut VideoStream::new(&oracle),
                    OnlineConfig::default(),
                )
                .map_err(|e| (reject_of(&e), e.to_string()))
            });
            if let Response::Outcome(_) = response {
                session
                    .clips_processed
                    .fetch_add(oracle.clip_count(), Ordering::Relaxed);
            }
            metrics.retire_session(&session);
            pending.complete(response);
        }));
    }

    /// Validate the v2 requirement and hand a `subscribe` to the registry.
    /// The registry completes `pending` itself (the ack must flush before
    /// the subscription becomes visible to the event fan-out).
    fn dispatch_subscribe(
        &self,
        conn_id: u64,
        sql: String,
        video: Option<u64>,
        drift_every: u64,
        pending: Pending,
    ) {
        let Some(req_id) = pending.id else {
            return pending.complete(Response::Error {
                reason: RejectReason::BadRequest,
                message: "`subscribe` requires a protocol-v2 `id`: every pushed frame is tagged \
                          with it"
                    .into(),
            });
        };
        let writer = pending.writer.clone();
        self.subs
            .subscribe(conn_id, req_id, &sql, video, drift_every, writer, pending);
    }

    fn do_query(
        &self,
        sql: &str,
        video: VideoScope,
    ) -> Result<QueryOutcome, (RejectReason, String)> {
        let repo = self.repo.as_ref().ok_or((
            RejectReason::BadRequest,
            "this server holds no offline catalog; only `stream` and `stats` are available"
                .to_string(),
        ))?;
        let plan = plan_of(sql)?;
        if !matches!(plan.mode, QueryMode::Offline { .. }) {
            return Err((
                RejectReason::BadRequest,
                "statement plans online (no ORDER BY RANK … LIMIT); send it as a `stream` request"
                    .into(),
            ));
        }
        let id = match video {
            VideoScope::All => return self.query_all(&plan, repo),
            VideoScope::One(v) => VideoId::new(v),
            VideoScope::Sole => target_video(None, repo.video_ids(), "catalog video")?,
        };
        self.query_one(&plan, repo, id)
    }

    fn query_one(
        &self,
        plan: &LogicalPlan,
        repo: &VideoRepository,
        id: VideoId,
    ) -> Result<QueryOutcome, (RejectReason, String)> {
        let catalog = repo
            .get(id)
            .map_err(|e| (reject_of(&e), e.to_string()))?
            .ok_or_else(|| {
                (
                    RejectReason::UnknownVideo,
                    format!("video {id:?} is not in the served catalog"),
                )
            })?;
        execute_offline(plan, &catalog, &PaperScoring).map_err(|e| (reject_of(&e), e.to_string()))
    }

    /// `video: "all"` — the cluster reduction over every served catalog.
    /// Routed through [`execute_offline_all`] so the served path *is* the
    /// library path (a router merging per-shard answers is therefore
    /// byte-identical by construction).
    fn query_all(
        &self,
        plan: &LogicalPlan,
        repo: &VideoRepository,
    ) -> Result<QueryOutcome, (RejectReason, String)> {
        execute_offline_all(plan, repo, &PaperScoring).map_err(|e| (reject_of(&e), e.to_string()))
    }

    /// The synchronous half of a `stream` request: validate the statement
    /// and resolve its live stream.
    fn prepare_stream(
        &self,
        sql: &str,
        video: Option<u64>,
    ) -> Result<(LogicalPlan, Arc<DetectionOracle>), (RejectReason, String)> {
        if self.oracles.is_empty() {
            return Err((
                RejectReason::BadRequest,
                "this server holds no live streams; only `query` and `stats` are available".into(),
            ));
        }
        let plan = plan_of(sql)?;
        if plan.mode != QueryMode::Online {
            return Err((
                RejectReason::BadRequest,
                "statement plans offline (top-K); send it as a `query` request".into(),
            ));
        }
        let id = target_video(video, self.oracles.keys().copied(), "live stream")?;
        let oracle = self.oracles.get(&id).ok_or_else(|| {
            (
                RejectReason::UnknownVideo,
                format!("video {id:?} is not among the served live streams"),
            )
        })?;
        Ok((plan, oracle.clone()))
    }

    /// The registry's server snapshot plus what only this backend knows:
    /// catalog residency and inventory, live streams, push-queue depth.
    fn stats(&self) -> StatsFrame {
        let mut frame = self.metrics.snapshot().server;
        if let Some(repo) = &self.repo {
            let cache = repo.cache_stats();
            frame.catalog_hits = cache.hits;
            frame.catalog_misses = cache.misses;
            frame.catalog_videos = repo.len() as u64;
        }
        frame.live_streams =
            self.oracles.len() as u64 + u64::from(self.subs.source_video().is_some());
        frame.subs_queue_depth = self.subs.queue_depth();
        frame
    }
}

fn record_request(shared: &Shared, kind: &'static str, elapsed: Duration) {
    let srv = shared.metrics.server();
    let counter = match kind {
        "query" => &srv.req_query,
        "stream" => &srv.req_stream,
        "subscribe" => &srv.req_subscribe,
        "unsubscribe" => &srv.req_unsubscribe,
        "stats" => &srv.req_stats,
        _ => &srv.req_shutdown,
    };
    counter.fetch_add(1, Ordering::Relaxed);
    srv.latency.record(elapsed);
}

/// Run one pool job's execution and turn it into its response. An acquired
/// in-flight slot must always produce a response, or drain would wait on it
/// forever: a panicking execution answers `internal` instead of
/// propagating into the pool's catch-all.
fn guarded(
    kind: &str,
    execute: impl FnOnce() -> Result<QueryOutcome, (RejectReason, String)>,
) -> Response {
    match catch_unwind(AssertUnwindSafe(execute)) {
        Ok(Ok(outcome)) => Response::Outcome(outcome),
        Ok(Err((reason, message))) => Response::Error { reason, message },
        Err(_) => Response::Error {
            reason: RejectReason::Internal,
            message: format!("{kind} execution panicked"),
        },
    }
}

/// Classify an execution-layer error for the wire: anything the client
/// could have known (bad SQL, wrong mode, unknown label) is `bad_request`;
/// genuine server-side failures are `internal`.
fn reject_of(err: &SvqError) -> RejectReason {
    match err {
        SvqError::UnknownLabel { .. }
        | SvqError::InvalidQuery(_)
        | SvqError::InvalidConfig(_)
        | SvqError::Parse { .. } => RejectReason::BadRequest,
        SvqError::MissingMetadata(_) | SvqError::Storage(_) | SvqError::Io(_) => {
            RejectReason::Internal
        }
    }
}

pub(crate) fn plan_of(sql: &str) -> Result<LogicalPlan, (RejectReason, String)> {
    let statement = parse(sql).map_err(|e| (reject_of(&e), e.to_string()))?;
    LogicalPlan::from_statement(&statement).map_err(|e| (reject_of(&e), e.to_string()))
}

/// Pick the target of a request: the named id, or the sole served one.
fn target_video(
    named: Option<u64>,
    served: impl Iterator<Item = VideoId>,
    what: &str,
) -> Result<VideoId, (RejectReason, String)> {
    if let Some(v) = named {
        return Ok(VideoId::new(v));
    }
    let served: Vec<VideoId> = served.collect();
    match served.as_slice() {
        [sole] => Ok(*sole),
        _ => Err((
            RejectReason::BadRequest,
            format!("{} {what}s served; name one with `video`", served.len()),
        )),
    }
}
