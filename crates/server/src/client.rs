//! Clients for the line protocol, at two levels.
//!
//! [`Client`] is the low-level blocking half: [`Client::request`] keeps
//! the classic v1 shape — one request/response exchange per call, strictly
//! ordered — and [`Client::send`] / [`Client::read_tagged`] expose raw
//! protocol-v2 pipelining where the caller matches responses to requests
//! by id. The hardening and pipelining tests deliberately stay at this
//! level to exercise the wire.
//!
//! [`Caller`] is the typed pipelined API on top: it owns id allocation
//! and out-of-order matching behind a demux thread, so concurrent users
//! share one connection without seeing ids at all. [`Caller::call`]
//! returns a [`Pending`] handle to `wait()` on; [`Caller::call_with`]
//! runs a completion callback instead — the router's fan-out path.
//! `svqact request --repeat` and the cluster router both sit on `Caller`.

use crate::protocol::{
    encode_line, encode_request_line, read_bounded_line, LineEvent, Request, Response,
    ResponseFrame, MAX_LINE_BYTES,
};
use crate::transport::Conn;
use parking_lot::{rt, Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use svq_query::QueryOutcome;
use svq_types::{RejectReason, SvqError, SvqResult};

/// Blocking JSON-lines client over any [`Conn`] — a real TCP socket or an
/// in-memory loopback half from [`crate::transport::MemTransport`].
pub struct Client {
    stream: Box<dyn Conn>,
    reader: BufReader<Box<dyn Conn>>,
}

impl Client {
    /// Connect with a 30 s I/O deadline.
    pub fn connect(addr: impl ToSocketAddrs) -> SvqResult<Self> {
        Self::connect_with_timeout(addr, Duration::from_secs(30))
    }

    /// Connect with an explicit per-operation read/write deadline.
    pub fn connect_with_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> SvqResult<Self> {
        Self::over(Box::new(TcpStream::connect(addr)?), timeout)
    }

    /// Speak the protocol over an already-established connection (the
    /// simulation harness hands in [`crate::transport::MemConn`] halves).
    pub fn over(stream: Box<dyn Conn>, timeout: Duration) -> SvqResult<Self> {
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone_conn()?);
        Ok(Self { stream, reader })
    }

    /// Send one request frame and read its response frame.
    pub fn request(&mut self, request: &Request) -> SvqResult<Response> {
        self.stream.write_all(encode_line(request).as_bytes())?;
        self.read_response()
    }

    /// Pipelined send: write one request frame — tagged with `id` when
    /// given — without waiting for a response. Pair with
    /// [`Client::read_tagged`]; an id-less send keeps v1 ordering, an
    /// id-tagged one may complete out of order.
    pub fn send(&mut self, request: &Request, id: Option<u64>) -> SvqResult<()> {
        self.stream
            .write_all(encode_request_line(request, id).as_bytes())?;
        Ok(())
    }

    /// Read the next response frame together with the request id it
    /// answers (`None` for v1 responses and server-initiated frames).
    pub fn read_tagged(&mut self) -> SvqResult<(Option<u64>, Response)> {
        match read_bounded_line(&mut self.reader, MAX_LINE_BYTES) {
            LineEvent::Line(line) => {
                let text = std::str::from_utf8(&line)
                    .map_err(|e| SvqError::Storage(format!("response not UTF-8: {e}")))?;
                let frame: ResponseFrame = serde_json::from_str(text)
                    .map_err(|e| SvqError::Storage(format!("response not a frame: {e}")))?;
                Ok((frame.id, frame.response))
            }
            LineEvent::Eof => Err(SvqError::Storage(
                "connection closed before a response frame arrived".into(),
            )),
            LineEvent::Oversize { .. } => Err(SvqError::Storage(
                "response frame exceeded the line cap".into(),
            )),
            LineEvent::TimedOut => Err(SvqError::Storage(
                "timed out waiting for a response frame".into(),
            )),
            LineEvent::Failed(e) => Err(SvqError::Io(e)),
        }
    }

    /// Send raw bytes as one line (the newline is appended) and read the
    /// response — the hardening tests' way of speaking malformed frames.
    pub fn send_raw(&mut self, line: &[u8]) -> SvqResult<Response> {
        self.stream.write_all(line)?;
        self.stream.write_all(b"\n")?;
        self.read_response()
    }

    /// Read the next response frame off the connection.
    pub fn read_response(&mut self) -> SvqResult<Response> {
        self.read_tagged().map(|(_, response)| response)
    }

    /// Convenience: a `query`/`stream` exchange that insists on an
    /// `outcome` frame, converting error frames into [`SvqError::Storage`].
    pub fn expect_outcome(&mut self, request: &Request) -> SvqResult<QueryOutcome> {
        match self.request(request)? {
            Response::Outcome(outcome) => Ok(outcome),
            Response::Error { reason, message } => Err(SvqError::Storage(format!(
                "server refused ({reason}): {message}"
            ))),
            other => Err(SvqError::Storage(format!(
                "expected an outcome frame, got {other:?}"
            ))),
        }
    }

    /// Upgrade to the typed pipelined API, reusing this connection. The
    /// read deadline set at connect time keeps bounding every wait.
    pub fn into_caller(self) -> SvqResult<Caller> {
        Caller::start(self.stream, self.reader)
    }
}

/// Where a finished [`Caller`] request delivers its result.
enum Sink {
    /// A [`Pending`] handle is (or will be) blocked on this slot.
    Slot(Arc<Slot>),
    /// Run on the demux thread the moment the response arrives.
    Callback(Box<dyn FnOnce(SvqResult<Response>) + Send>),
}

impl Sink {
    fn fulfill(self, result: SvqResult<Response>) {
        match self {
            Sink::Slot(slot) => {
                *slot.cell.lock() = Some(result);
                slot.cv.notify_all();
            }
            Sink::Callback(done) => done(result),
        }
    }
}

struct Slot {
    cell: Mutex<Option<SvqResult<Response>>>,
    cv: Condvar,
}

/// One in-flight [`Caller::call`]: redeem with [`Pending::wait`].
///
/// Dropping the handle abandons the result without disturbing the
/// connection — the response is discarded on arrival.
pub struct Pending {
    slot: Arc<Slot>,
    id: u64,
}

impl Pending {
    /// The protocol-v2 request id this call went out under.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the response arrives (bounded by the connection's read
    /// deadline: an expired deadline with requests in flight fails them
    /// all) and return it.
    pub fn wait(self) -> SvqResult<Response> {
        let mut cell = self.slot.cell.lock();
        loop {
            match cell.take() {
                Some(result) => return result,
                None => self.slot.cv.wait(&mut cell),
            }
        }
    }

    /// Like [`Pending::wait`] but insisting on an `outcome` frame.
    pub fn wait_outcome(self) -> SvqResult<QueryOutcome> {
        match self.wait()? {
            Response::Outcome(outcome) => Ok(outcome),
            Response::Error { reason, message } => Err(SvqError::Storage(format!(
                "server refused ({reason}): {message}"
            ))),
            other => Err(SvqError::Storage(format!(
                "expected an outcome frame, got {other:?}"
            ))),
        }
    }
}

/// Push-frame mailbox shared between a [`Subscription`] handle and the
/// demux thread.
struct SubShared {
    queue: Mutex<SubQueue>,
    cv: Condvar,
}

struct SubQueue {
    frames: VecDeque<Response>,
    /// The terminal frame arrived: nothing further will be pushed.
    done: bool,
    /// The session died; [`Subscription::next`] surfaces this as an error
    /// once queued frames drain.
    failed: Option<String>,
}

impl SubShared {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            queue: Mutex::new(SubQueue {
                frames: VecDeque::new(),
                done: false,
                failed: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Deliver one demuxed frame; `terminal` closes the mailbox.
    fn push(&self, frame: Response, terminal: bool) {
        let mut queue = self.queue.lock();
        queue.frames.push_back(frame);
        if terminal {
            queue.done = true;
        }
        self.cv.notify_all();
    }

    fn fail(&self, why: &str) {
        let mut queue = self.queue.lock();
        if queue.failed.is_none() {
            queue.failed = Some(why.to_string());
        }
        queue.done = true;
        self.cv.notify_all();
    }

    /// Block for the next frame: queued frames first, then the failure (if
    /// any), then `None` once the mailbox closed cleanly.
    fn next(&self) -> SvqResult<Option<Response>> {
        let mut queue = self.queue.lock();
        loop {
            if let Some(frame) = queue.frames.pop_front() {
                return Ok(Some(frame));
            }
            if let Some(why) = queue.failed.as_deref() {
                return Err(SvqError::Storage(why.to_string()));
            }
            if queue.done {
                return Ok(None);
            }
            self.cv.wait(&mut queue);
        }
    }
}

struct CallerInner {
    /// The write half. `None` once the connection is abandoned; the mutex
    /// also serializes frames so pipelined writers never interleave lines.
    write: Mutex<Option<Box<dyn Conn>>>,
    /// In-flight requests by id, removed when their response demuxes.
    slots: Mutex<BTreeMap<u64, Sink>>,
    /// Standing subscriptions by the id their `subscribe` frame went out
    /// under — every frame tagged with that id (the ack included) routes
    /// here instead of `slots`, and the entry survives until the terminal
    /// `unsubscribed` frame. Checked before `slots` in the demux loop.
    subs: Mutex<BTreeMap<u64, Arc<SubShared>>>,
    next_id: AtomicU64,
    alive: AtomicBool,
}

impl CallerInner {
    /// Kill the session: mark dead and fail every in-flight request with
    /// `why`. Sinks are drained first and fulfilled outside the lock — a
    /// callback is allowed to issue (and fail) new calls without
    /// deadlocking on `slots`.
    fn fail_all(&self, why: &str) {
        self.alive.store(false, Ordering::Release);
        let drained: Vec<Sink> = {
            let mut slots = self.slots.lock();
            std::mem::take(&mut *slots).into_values().collect()
        };
        for sink in drained {
            sink.fulfill(Err(SvqError::Storage(why.to_string())));
        }
        let subs: Vec<Arc<SubShared>> = {
            let mut subs = self.subs.lock();
            std::mem::take(&mut *subs).into_values().collect()
        };
        for sub in subs {
            sub.fail(why);
        }
    }
}

const WRITE_FAILED: &str = "a request write failed; connection abandoned";

fn dead() -> SvqError {
    SvqError::Storage("caller connection is dead; open a fresh one".into())
}

/// Bounded retry for [`Caller::call_retrying`]: how many times to re-issue
/// a request refused with `shard_unavailable`, and the initial backoff
/// (doubled per retry). The default is [`RetryPolicy::none`] — retries are
/// strictly opt-in, because re-issuing is only safe for requests the
/// caller knows are idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-issues after the first attempt; `0` means fail fast.
    pub attempts: u32,
    /// Sleep before the first retry; doubles on each subsequent one.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// No retries: `call_retrying` behaves exactly like `call().wait()`.
    pub fn none() -> Self {
        Self {
            attempts: 0,
            backoff: Duration::ZERO,
        }
    }

    /// Up to `attempts` re-issues with exponential backoff from `backoff`.
    pub fn new(attempts: u32, backoff: Duration) -> Self {
        Self { attempts, backoff }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// The typed pipelined client: one connection, many concurrent calls.
///
/// A `Caller` owns protocol-v2 id allocation and out-of-order response
/// matching. [`Caller::call`] tags the request, registers a completion
/// slot, and returns a [`Pending`] handle immediately; a demux thread
/// reads whichever response completes next and routes it by id. `&self`
/// everywhere — clone the `Caller` (cheap, `Arc`) or share references to
/// pipeline from many threads.
///
/// Failure is fail-fast and total: a dead socket, an expired read deadline
/// with requests in flight, or an untagged server frame fails **every**
/// in-flight call with a typed error and marks the caller dead
/// ([`Caller::is_alive`]); later calls are refused. The caller never
/// reconnects — that policy belongs above (the router's shard links
/// re-dial with bounded backoff and fresh `Caller`s).
#[derive(Clone)]
pub struct Caller {
    inner: Arc<CallerInner>,
}

impl Caller {
    /// Connect with an explicit per-operation read/write deadline.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> SvqResult<Self> {
        Self::over(Box::new(TcpStream::connect(addr)?), timeout)
    }

    /// Speak the pipelined protocol over an already-established connection
    /// (e.g. a [`crate::transport::MemConn`] half in the simulation).
    pub fn over(stream: Box<dyn Conn>, timeout: Duration) -> SvqResult<Self> {
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let reader = BufReader::new(stream.try_clone_conn()?);
        Self::start(stream, reader)
    }

    fn start(stream: Box<dyn Conn>, reader: BufReader<Box<dyn Conn>>) -> SvqResult<Self> {
        let inner = Arc::new(CallerInner {
            write: Mutex::new(Some(stream)),
            slots: Mutex::new(BTreeMap::new()),
            subs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            alive: AtomicBool::new(true),
        });
        let demux_inner = inner.clone();
        rt::spawn("svq-client-demux", move || demux(&demux_inner, reader)).map_err(SvqError::Io)?;
        Ok(Self { inner })
    }

    /// Whether the connection is still usable. `false` after any fatal
    /// event; in-flight calls at that point have already been failed.
    pub fn is_alive(&self) -> bool {
        self.inner.alive.load(Ordering::Acquire)
    }

    /// Send `request` without waiting; redeem the returned [`Pending`]
    /// with [`Pending::wait`] whenever convenient. Calls from any number
    /// of threads pipeline onto the one connection.
    pub fn call(&self, request: &Request) -> SvqResult<Pending> {
        let slot = Arc::new(Slot {
            cell: Mutex::new(None),
            cv: Condvar::new(),
        });
        let id = self.submit(request, Sink::Slot(slot.clone()))?;
        Ok(Pending { slot, id })
    }

    /// Send `request` and run `done` with the response when it arrives.
    /// `done` runs on the demux thread: keep it short and never block it
    /// on another response from this same caller (that response is behind
    /// it in the read loop). Returns the request id.
    pub fn call_with(
        &self,
        request: &Request,
        done: impl FnOnce(SvqResult<Response>) + Send + 'static,
    ) -> SvqResult<u64> {
        self.submit(request, Sink::Callback(Box::new(done)))
    }

    fn submit(&self, request: &Request, sink: Sink) -> SvqResult<u64> {
        let id = self.next_id()?;
        self.inner.slots.lock().insert(id, sink);
        if let Err(e) = self.write_frame(request, id) {
            // Unregister before failing the rest so this call reports the
            // precise write error rather than the generic teardown one.
            self.inner.slots.lock().remove(&id);
            self.inner.fail_all(WRITE_FAILED);
            return Err(e);
        }
        Ok(id)
    }

    /// Allocate a request id, refusing once the connection is dead.
    fn next_id(&self) -> SvqResult<u64> {
        if !self.is_alive() {
            return Err(dead());
        }
        Ok(self.inner.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Write one frame tagged `id`. The write lock is what keeps
    /// concurrent frames from interleaving mid-line.
    fn write_frame(&self, request: &Request, id: u64) -> SvqResult<()> {
        let line = encode_request_line(request, Some(id));
        let mut write = self.inner.write.lock();
        match write.as_mut() {
            // A short frame onto an established socket under the write
            // deadline. svq-lint: allow(blocking-under-lock)
            Some(conn) => conn.write_all(line.as_bytes()).map_err(SvqError::Io),
            None => Err(dead()),
        }
    }

    /// Like [`Caller::call`] + [`Pending::wait`], but re-issuing the
    /// request under `policy` when a shard answers `shard_unavailable` —
    /// the transient state the cluster router reports while it re-dials a
    /// dead shard. Every other outcome (success, other error frames,
    /// transport failure) returns immediately; [`RetryPolicy::none`]
    /// (the default) makes this identical to a plain call.
    pub fn call_retrying(&self, request: &Request, policy: RetryPolicy) -> SvqResult<Response> {
        let mut backoff = policy.backoff;
        for attempt in 0..=policy.attempts {
            let response = self.call(request)?.wait()?;
            let transient = matches!(
                &response,
                Response::Error {
                    reason: RejectReason::ShardUnavailable,
                    ..
                }
            );
            if !transient || attempt == policy.attempts {
                return Ok(response);
            }
            rt::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        unreachable!("the loop returns on its last attempt");
    }

    /// Open a standing query: send a `subscribe` frame, wait for the
    /// server's `subscribed` ack, and return a [`Subscription`] whose
    /// [`Subscription::next`] yields the pushed `event` / `drift` /
    /// `lagged` frames in arrival order. A server refusal (no live source,
    /// offline statement, wrong video) surfaces as a typed error here.
    pub fn subscribe(
        &self,
        sql: &str,
        video: Option<u64>,
        drift_every: u64,
    ) -> SvqResult<Subscription> {
        let id = self.next_id()?;
        let shared = SubShared::new();
        self.inner.subs.lock().insert(id, shared.clone());
        let request = Request::Subscribe {
            sql: sql.to_string(),
            video,
            drift_every,
        };
        if let Err(e) = self.write_frame(&request, id) {
            self.inner.subs.lock().remove(&id);
            self.inner.fail_all(WRITE_FAILED);
            return Err(e);
        }
        // The ack is the first frame demuxed to the mailbox.
        match shared.next()? {
            Some(Response::Subscribed { sub, from_seq }) => Ok(Subscription {
                caller: self.clone(),
                shared,
                id,
                sub,
                from_seq,
            }),
            Some(Response::Error { reason, message }) => {
                self.inner.subs.lock().remove(&id);
                Err(SvqError::Storage(format!(
                    "server refused the subscription ({reason}): {message}"
                )))
            }
            other => {
                self.inner.subs.lock().remove(&id);
                Err(SvqError::Storage(format!(
                    "expected a subscribed ack, got {other:?}"
                )))
            }
        }
    }

    /// Abandon the connection: shut the socket both ways (the demux thread
    /// exits on the resulting EOF) and fail any in-flight calls. Safe from
    /// any thread except a completion callback; idempotent.
    pub fn close(&self) {
        if let Some(conn) = self.inner.write.lock().take() {
            let _ = conn.shutdown_both();
        }
        self.inner.fail_all("caller closed; connection abandoned");
    }
}

impl Drop for Caller {
    fn drop(&mut self) {
        // Last handle out closes the socket so the demux thread exits; no
        // join — callbacks run on that thread, and the last handle may be
        // dropped *by* one.
        if Arc::strong_count(&self.inner) == 1 {
            self.close();
        }
    }
}

/// One standing query opened with [`Caller::subscribe`].
///
/// [`Subscription::next`] blocks for pushed frames in arrival order and
/// returns `Ok(None)` after the terminal `unsubscribed` frame (which is
/// itself yielded first, carrying the delivery accounting). Dropping the
/// handle detaches the mailbox — later pushes for it are discarded — but
/// does **not** tell the server; call [`Subscription::unsubscribe`] for a
/// clean close.
pub struct Subscription {
    caller: Caller,
    shared: Arc<SubShared>,
    /// The id the `subscribe` frame went out under; every push echoes it.
    id: u64,
    sub: u64,
    from_seq: u64,
}

impl Subscription {
    /// The server-assigned subscription handle.
    pub fn sub(&self) -> u64 {
        self.sub
    }

    /// Source position at join: every pushed event has `seq > from_seq`.
    pub fn from_seq(&self) -> u64 {
        self.from_seq
    }

    /// Block for the next pushed frame — `event`, `drift`, or `lagged` —
    /// in arrival order. `Ok(None)` after the terminal `unsubscribed`
    /// frame; a dead connection is an error once queued frames drain.
    pub fn next(&self) -> SvqResult<Option<Response>> {
        self.shared.next()
    }

    /// Ask the server to close the subscription and return its ack (the
    /// terminal accounting frame). The same frame is also pushed into the
    /// mailbox, so a consumer loop on [`Subscription::next`] still sees
    /// the terminal and then `Ok(None)`.
    pub fn unsubscribe(&self) -> SvqResult<Response> {
        self.caller
            .call(&Request::Unsubscribe { sub: self.sub })?
            .wait()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Detach the mailbox; the demux loop discards frames for ids it
        // no longer knows.
        self.caller.inner.subs.lock().remove(&self.id);
    }
}

/// The read loop behind a [`Caller`]: route each id-tagged response to its
/// registered sink; treat anything else as fatal for the session.
fn demux(inner: &Arc<CallerInner>, mut reader: BufReader<Box<dyn Conn>>) {
    loop {
        if !inner.alive.load(Ordering::Acquire) {
            return;
        }
        match read_bounded_line(&mut reader, MAX_LINE_BYTES) {
            LineEvent::Line(line) => {
                let frame: Option<ResponseFrame> = std::str::from_utf8(&line)
                    .ok()
                    .and_then(|text| serde_json::from_str(text).ok());
                let Some(frame) = frame else {
                    inner.fail_all("response was not a protocol frame; connection abandoned");
                    return;
                };
                match frame.id {
                    Some(id) => {
                        // A subscription id routes to its mailbox — ack,
                        // pushes, and terminal alike — and owns the id
                        // until the terminal frame retires it.
                        let sub = inner.subs.lock().get(&id).cloned();
                        if let Some(sub) = sub {
                            let terminal = matches!(
                                frame.response,
                                Response::Unsubscribed { .. } | Response::Error { .. }
                            );
                            sub.push(frame.response, terminal);
                            if terminal {
                                inner.subs.lock().remove(&id);
                            }
                            continue;
                        }
                        let sink = inner.slots.lock().remove(&id);
                        // An unknown id is the late response of a call that
                        // already failed (e.g. its write erred): discard.
                        if let Some(sink) = sink {
                            sink.fulfill(Ok(frame.response));
                        }
                    }
                    // Every request goes out id-tagged, so an untagged
                    // frame is server-initiated — a reject or a connection
                    // -level error. It dooms the pipelined session.
                    None => {
                        let why = match frame.response {
                            Response::Error { reason, message } => {
                                format!("server error ({reason}): {message}")
                            }
                            other => format!("unexpected untagged frame: {other:?}"),
                        };
                        inner.fail_all(&why);
                        return;
                    }
                }
            }
            LineEvent::TimedOut => {
                if inner.slots.lock().is_empty() {
                    continue; // idle between calls: keep listening
                }
                inner.fail_all("read deadline expired with requests in flight");
                return;
            }
            LineEvent::Eof => {
                inner.fail_all("connection closed before all responses arrived");
                return;
            }
            LineEvent::Oversize { .. } => {
                inner.fail_all("response frame exceeded the line cap");
                return;
            }
            LineEvent::Failed(e) => {
                inner.fail_all(&format!("connection failed: {e}"));
                return;
            }
        }
    }
}
