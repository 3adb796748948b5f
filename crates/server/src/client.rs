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
//! runs a completion callback instead — the router's fan-out path. The
//! demux thread hands a response to its `Pending` through a one-slot
//! channel, and a [`Subscription`]'s pushed frames through an unbounded
//! one whose sender it drops at the terminal frame.
//! `svqact request --repeat` and the cluster router both sit on `Caller`.

use crate::protocol::{
    encode_line, encode_request_line, read_bounded_line, LineEvent, Request, Response,
    ResponseFrame, MAX_LINE_BYTES,
};
use crate::transport::Conn;
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{rt, Mutex};
use std::collections::BTreeMap;
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
            LineEvent::Line(line) => decode_frame(&line).map(|frame| (frame.id, frame.response)),
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

/// A finished [`Caller`] request's completion, run on the demux thread.
type Done = Box<dyn FnOnce(SvqResult<Response>) + Send>;

/// The receiving end of one standing query's frames: pushed frames in
/// arrival order, then the failure that ended the session, if any.
type Frames = Receiver<SvqResult<Response>>;

/// One in-flight [`Caller::call`]: redeem with [`Pending::wait`].
///
/// Dropping the handle abandons the result without disturbing the
/// connection — the response is discarded on arrival.
pub struct Pending {
    rx: Receiver<SvqResult<Response>>,
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
        self.rx.recv().unwrap_or_else(|_| Err(dead()))
    }
}

/// The next frame of a subscription: queued frames first, then the
/// failure (if any), then `Ok(None)` — for every further call too — once
/// the demux loop has dropped the sending end.
fn next_frame(frames: &Frames) -> SvqResult<Option<Response>> {
    frames.recv().map_or(Ok(None), |frame| frame.map(Some))
}

struct CallerInner {
    /// The write half. `None` once the connection is abandoned; the mutex
    /// also serializes frames so pipelined writers never interleave lines.
    write: Mutex<Option<Box<dyn Conn>>>,
    /// In-flight requests by id, removed when their response demuxes.
    slots: Mutex<BTreeMap<u64, Done>>,
    /// Standing subscriptions by the id their `subscribe` frame went out
    /// under — every frame tagged with that id (the ack included) routes
    /// here instead of `slots`, and the entry survives until the terminal
    /// `unsubscribed` frame; dropping the sender ends the subscription's
    /// channel. Checked before `slots` in the demux loop.
    subs: Mutex<BTreeMap<u64, Sender<SvqResult<Response>>>>,
    next_id: AtomicU64,
    alive: AtomicBool,
}

impl CallerInner {
    /// Kill the session: mark dead and fail every in-flight request and
    /// subscription with `why`. Both maps are drained first and completed
    /// outside their locks — a callback is allowed to issue (and fail) new
    /// calls without deadlocking on `slots`.
    fn fail_all(&self, why: &str) {
        self.alive.store(false, Ordering::Release);
        let drained = std::mem::take(&mut *self.slots.lock());
        for done in drained.into_values() {
            done(Err(SvqError::Storage(why.to_string())));
        }
        let subs = std::mem::take(&mut *self.subs.lock());
        for frames in subs.into_values() {
            let _ = frames.send(Err(SvqError::Storage(why.to_string())));
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
        Client::connect_with_timeout(addr, timeout)?.into_caller()
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
        let (tx, rx) = bounded(1);
        let id = self.call_with(request, move |result| {
            let _ = tx.send(result);
        })?;
        Ok(Pending { rx, id })
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
        let id = self.next_id()?;
        self.inner.slots.lock().insert(id, Box::new(done));
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
        let (frames_tx, frames) = unbounded();
        self.inner.subs.lock().insert(id, frames_tx);
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
        // The ack is the first frame demuxed to the channel.
        match next_frame(&frames)? {
            Some(Response::Subscribed { sub, from_seq }) => Ok(Subscription {
                caller: self.clone(),
                frames,
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
/// handle detaches its channel — later pushes for it are discarded — but
/// does **not** tell the server; call [`Subscription::unsubscribe`] for a
/// clean close.
pub struct Subscription {
    caller: Caller,
    frames: Frames,
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
    /// After either end, every further call returns `Ok(None)`.
    pub fn next(&self) -> SvqResult<Option<Response>> {
        next_frame(&self.frames)
    }

    /// Ask the server to close the subscription and return its ack (the
    /// terminal accounting frame). The same frame is also pushed into the
    /// subscription's channel, so a consumer loop on [`Subscription::next`]
    /// still sees the terminal and then `Ok(None)`.
    pub fn unsubscribe(&self) -> SvqResult<Response> {
        self.caller
            .call(&Request::Unsubscribe { sub: self.sub })?
            .wait()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        // Detach the channel; the demux loop discards frames for ids it
        // no longer knows.
        self.caller.inner.subs.lock().remove(&self.id);
    }
}

/// Decode one response line — the framing both [`Client::read_tagged`]
/// and a [`Caller`]'s demux loop read with.
fn decode_frame(line: &[u8]) -> SvqResult<ResponseFrame> {
    let text = std::str::from_utf8(line)
        .map_err(|e| SvqError::Storage(format!("response not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| SvqError::Storage(format!("response not a frame: {e}")))
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
                let Ok(frame) = decode_frame(&line) else {
                    inner.fail_all("response was not a protocol frame; connection abandoned");
                    return;
                };
                match frame.id {
                    Some(id) => {
                        // A subscription id routes to its channel — ack,
                        // pushes, and terminal alike — and owns the id
                        // until the terminal frame retires it, dropping
                        // the sender.
                        let mut subs = inner.subs.lock();
                        if let Some(frames) = subs.get(&id) {
                            let terminal = matches!(
                                frame.response,
                                Response::Unsubscribed { .. } | Response::Error { .. }
                            );
                            let _ = frames.send(Ok(frame.response));
                            if terminal {
                                subs.remove(&id);
                            }
                            continue;
                        }
                        // A completion may call back into this caller:
                        // run it with no lock held.
                        drop(subs);
                        let done = inner.slots.lock().remove(&id);
                        // An unknown id is the late response of a call that
                        // already failed (e.g. its write erred): discard.
                        if let Some(done) = done {
                            done(Ok(frame.response));
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
