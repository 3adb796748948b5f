//! `fanout_push`: the open-loop workload. A server-side live source paced
//! at 200 clips/s drives four standing statements; 4 x 1024 subscriptions
//! on two raw connections receive every pushed frame live. One operation
//! is one `event` delivered to one subscription; its latency is receipt
//! minus the frame's server-side `at` stamp (same process, same
//! monotonic clock). Every subscriber of a statement must see the same
//! event sequence, and that sequence must equal an in-process run of the
//! statement over the same source from the clip its session started at.
//! An untraced run measures several such servers in turn (see [`run`]).
//! Not listed in `BENCHMARK.json` (see `schema::WORKLOADS`): its times are
//! reported as read, not at reference speed.

use crate::gen;
use crate::layers;
use crate::reqload::{serve_config, unclean_drain, wire_stats, CLIENT_TIMEOUT};
use crate::schema::{Metrics, RunResult};
use crate::sys::{self, median, percentile, ratio};
use crate::trace::{self, SpanBuf};
use crate::{Args, Res};
use parking_lot::{rt, Mutex};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use svq_exec::{Backpressure, ExecMetrics};
use svq_serve::{Client, LiveSourceConfig, Request, Response, Server, ServerHandle, StatsFrame};
use svq_types::{ActionClass, ClipId, ObjectClass, VideoId};
use svq_vision::models::{DetectionOracle, ModelSuite};
use svq_vision::synth::{ObjectSpec, ScenarioSpec};

const CONNS: usize = 2;
/// Servers one untraced run measures in turn, splitting its seconds.
const INSTANCES: usize = 4;
const STATEMENTS: usize = 4;
/// Source pace, clips per second. With ~3% of clips closing a sequence
/// per statement this pushes roughly 28k frames/s at 4096 subscriptions.
const RATE: u64 = 200;
/// The source's scenario seed and video id: constants, like the corpus.
const SOURCE_SEED: u64 = 20_230_404;
const SOURCE_VIDEO: u64 = 9_000;
/// Subscribe frames kept in flight per connection while joining.
const JOIN_WINDOW: usize = 32;
const SPAN_CAP: usize = 150_000;
/// The traced pass records every this-many-th pushed frame: three spans a
/// frame at ~18k frames/s a connection would overrun any sensible cap.
const TRACE_EVERY: u64 = 4;

struct Shape {
    subs_per_statement: usize,
    /// Seconds of source reserved for the subscribe phase.
    join_allowance_s: f64,
}

fn shape(quick: bool) -> Shape {
    if quick {
        Shape {
            subs_per_statement: 16,
            join_allowance_s: 0.5,
        }
    } else {
        Shape {
            subs_per_statement: 1024,
            join_allowance_s: 0.5,
        }
    }
}

/// One source event as a subscriber must see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    seq: u64,
    clip: u64,
    first: u64,
    last: u64,
}

/// The source's oracle, rebuilt exactly as the server materialises it.
fn source_oracle(minutes: u64) -> Arc<DetectionOracle> {
    let spec = ScenarioSpec::activitynet(
        VideoId::new(SOURCE_VIDEO),
        minutes * 60 * 25,
        ActionClass::named(gen::ACTION),
        gen::OBJECTS
            .iter()
            .map(|o| ObjectSpec::correlated(ObjectClass::named(o)))
            .collect(),
        SOURCE_SEED,
    );
    Arc::new(spec.generate().oracle(ModelSuite::accurate()))
}

/// Run the statements over the source in an in-process `SessionMux` (no
/// sockets, no pacing), each from the clip its served session started at
/// — a standing session is created by its first subscriber and sees the
/// source from there on, and SVAQD's estimators depend on that history.
/// Returns, per statement, every event the server must have pushed; also
/// measures the `exec` layer's socket-free throughput.
fn reference_events(
    oracle: &Arc<DetectionOracle>,
    statements: &[String],
    starts: &[u64],
    m: &mut Metrics,
) -> Res<Vec<Vec<Expected>>> {
    let metrics = ExecMetrics::new();
    let mux = layers::server_like_mux(metrics.clone());
    let collected: Vec<Arc<Mutex<Vec<Expected>>>> = statements
        .iter()
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let mut ids = Vec::new();
    for (sql, sink) in statements.iter().zip(&collected) {
        let id = mux.register(
            format!("reference/{sql}"),
            oracle.clone(),
            layers::engine_of(sql, oracle)?,
            Backpressure::Block,
            64,
        );
        let sink = sink.clone();
        mux.set_observer(id, move |notice| {
            if let Some(interval) = notice.closed {
                sink.lock().push(Expected {
                    seq: notice.clip.raw() + 1,
                    clip: notice.clip.raw(),
                    first: interval.start.raw(),
                    last: interval.end.raw(),
                });
            }
        });
        ids.push(id);
    }
    let clips = oracle.clip_count();
    let started = Instant::now();
    let mut fed = 0u64;
    for clip in 0..clips {
        for (&id, &start) in ids.iter().zip(starts) {
            if clip >= start {
                mux.feed(id, ClipId::new(clip)).map_err(|e| e.to_string())?;
                fed += 1;
            }
        }
    }
    for &id in &ids {
        mux.finish_session(id);
    }
    for &id in &ids {
        mux.wait(id).map_err(|e| e.to_string())?;
    }
    let wall = started.elapsed().as_secs_f64();
    let snap = metrics.snapshot();
    m.insert("exec.mux_clips_per_s", ratio(fed as f64, wall));
    m.insert("exec.mux_stream_ms", wall * 1e3);
    m.insert(
        "exec.session_eval_ms",
        ratio(
            snap.sessions.iter().map(|s| s.eval_ms).sum(),
            snap.sessions.len() as f64,
        ),
    );
    for id in ids {
        mux.release(id);
    }
    mux.shutdown();
    Ok(collected.iter().map(|c| c.lock().clone()).collect())
}

/// What one subscription has seen so far.
struct SubState {
    statement: usize,
    from_seq: u64,
    /// Index into the statement's sequence of the next event due; unknown
    /// until the subscription's first event locates it.
    cursor: Option<usize>,
    acked: bool,
    events: u64,
    /// `total` of the terminal frame, once it arrived.
    terminal: Option<u64>,
}

/// One statement's event sequence as one connection saw it, with the
/// first and last receipt of each event among the connection's
/// subscribers.
#[derive(Default)]
struct Sequence {
    events: Vec<Expected>,
    receipts: Vec<(u64, u64)>,
}

/// What one connection's reader observed.
#[derive(Default)]
struct ConnTally {
    /// (receipt, lag) of every event, nanoseconds on the shared clock.
    events: Vec<(u64, u64)>,
    sequences: Vec<Sequence>,
    /// Per subscription: (statement, from_seq, terminal total).
    joins: Vec<(usize, u64, Option<u64>)>,
    ack_ms: Vec<f64>,
    failed: u64,
    /// Receipt of the first terminal frame: the source has ended.
    source_end_ns: Option<u64>,
    cpu_ms: f64,
    errors: Vec<String>,
}

impl ConnTally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 3 {
            self.errors.push(why);
        }
    }
}

struct ConnPlan<'a> {
    statements: &'a [String],
    subs: usize,
    /// After joining, send one request the server must refuse (tests).
    inject_fault: bool,
    /// Event records to make room for before the first arrives.
    event_room: usize,
    tracing: &'a AtomicBool,
    /// Connections join one after the other: the server fans an event out
    /// in subscription-id order, so racing joins would interleave the two
    /// connections' subscribers differently on every run — and with them
    /// who waits behind whom (same-seed lag p50 read 3.5 and 6.0 ms).
    /// Fires when it is this connection's turn to subscribe.
    turn: mpsc::Receiver<()>,
    /// The next connection's `turn`.
    next: Option<mpsc::Sender<()>>,
}

/// One connection: join `plan.subs` subscriptions (statement = id mod 4),
/// then read and check every pushed frame until each subscription's
/// terminal arrived. Signals `joined` once, at the last ack.
fn conn_loop(
    client: &mut Client,
    plan: &ConnPlan<'_>,
    joined: &mpsc::Sender<()>,
    buf: &mut SpanBuf,
    thread: u64,
) -> ConnTally {
    let cpu_start = sys::thread_cpu_ms();
    let mut tally = ConnTally {
        events: Vec::with_capacity(plan.event_room),
        ..ConnTally::default()
    };
    tally
        .sequences
        .resize_with(plan.statements.len(), Sequence::default);
    let mut subs: Vec<SubState> = (0..plan.subs)
        .map(|id| SubState {
            statement: id % plan.statements.len(),
            from_seq: 0,
            cursor: None,
            acked: false,
            events: 0,
            terminal: None,
        })
        .collect();
    let (mut sent, mut acked, mut terminals) = (0usize, 0usize, 0usize);
    let mut sent_at = vec![Instant::now(); plan.subs];
    let mut frame_no = 0u64;
    let mut signalled = false;
    let _ = plan.turn.recv();
    while terminals < plan.subs {
        // Keep a window of subscribe frames in flight; events for already
        // joined subscriptions interleave with the acks.
        while sent < plan.subs && sent - acked < JOIN_WINDOW {
            let request = Request::Subscribe {
                sql: plan.statements[subs[sent].statement].clone(),
                video: None,
                drift_every: 0,
            };
            sent_at[sent] = Instant::now();
            if let Err(e) = client.send(&request, Some(sent as u64)) {
                tally.fail(format!("subscribe send: {e}"));
                tally.cpu_ms = sys::thread_cpu_ms() - cpu_start;
                return tally;
            }
            sent += 1;
        }
        if acked == plan.subs && !signalled {
            signalled = true;
            let _ = joined.send(());
            if let Some(next) = &plan.next {
                let _ = next.send(());
            }
            if plan.inject_fault {
                // Its typed error comes back under an id no subscription
                // owns and is counted as a failed operation below.
                let bogus = Request::Unsubscribe { sub: u64::MAX };
                if let Err(e) = client.send(&bogus, Some(plan.subs as u64)) {
                    tally.fail(format!("fault send: {e}"));
                }
            }
        }
        buf.set_enabled(
            plan.tracing.load(Ordering::Relaxed) && frame_no.is_multiple_of(TRACE_EVERY),
        );
        let op_id = (thread << 48) | frame_no;
        frame_no += 1;
        let span = buf.open("push", None, op_id);
        let read = buf.within("client.recv", span, op_id, || client.read_tagged());
        let now = rt::monotonic_nanos();
        let verify = buf.open("client.verify", span, op_id);
        match read {
            Err(e) => {
                tally.fail(format!("transport: {e}"));
                break;
            }
            Ok((id, frame)) => match id.and_then(|i| subs.get_mut(i as usize)) {
                None => tally.fail(format!("frame under unknown id {id:?}: {frame:?}")),
                Some(sub) => match frame {
                    Response::Subscribed { from_seq, .. } if !sub.acked => {
                        sub.acked = true;
                        sub.from_seq = from_seq;
                        acked += 1;
                        let i = id.unwrap_or(0) as usize;
                        tally.ack_ms.push(sent_at[i].elapsed().as_secs_f64() * 1e3);
                    }
                    Response::Event {
                        seq,
                        clip,
                        first,
                        last,
                        at,
                        ..
                    } => {
                        let got = Expected {
                            seq,
                            clip,
                            first,
                            last,
                        };
                        sub.events += 1;
                        let sequence = &mut tally.sequences[sub.statement];
                        let at_index = sub
                            .cursor
                            .unwrap_or_else(|| sequence.events.partition_point(|e| e.seq < seq));
                        // Either the next event the connection already
                        // knows, or a new one extending the sequence.
                        let fits = match sequence.events.get(at_index) {
                            Some(known) => *known == got,
                            None => {
                                let extends = at_index == sequence.events.len()
                                    && sequence.events.last().is_none_or(|l| l.seq < seq);
                                if extends {
                                    sequence.events.push(got);
                                    sequence.receipts.push((now, now));
                                }
                                extends
                            }
                        };
                        if fits && seq > sub.from_seq {
                            let slot = &mut sequence.receipts[at_index];
                            slot.0 = slot.0.min(now);
                            slot.1 = slot.1.max(now);
                            sub.cursor = Some(at_index + 1);
                            tally.events.push((now, now.saturating_sub(at)));
                        } else {
                            // Out of order, duplicated, before the join, or
                            // not what the other subscribers saw: locate
                            // the cursor afresh so one fault counts once.
                            sub.cursor = None;
                            let statement = sub.statement;
                            tally.fail(format!(
                                "event {got:?} breaks the sequence of statement {statement}"
                            ));
                        }
                    }
                    Response::Lagged { missed, .. } => {
                        sub.cursor = sub.cursor.map(|c| c + missed as usize);
                    }
                    Response::Unsubscribed {
                        delivered,
                        missed,
                        total,
                        ..
                    } if sub.terminal.is_none() => {
                        sub.terminal = Some(total);
                        terminals += 1;
                        tally.source_end_ns.get_or_insert(now);
                        tally.failed += missed;
                        if delivered != sub.events || delivered + missed != total {
                            let saw = sub.events;
                            tally.fail(format!(
                                "accounting open: delivered {delivered} (saw {saw}), \
                                 missed {missed}, total {total}"
                            ));
                        }
                    }
                    other => tally.fail(format!("unexpected frame {other:?}")),
                },
            },
        }
        buf.close(verify, None);
        buf.close(span, None);
    }
    tally.joins = subs
        .iter()
        .filter(|s| s.acked)
        .map(|s| (s.statement, s.from_seq, s.terminal))
        .collect();
    tally.cpu_ms = sys::thread_cpu_ms() - cpu_start;
    tally
}

/// After the run: both connections must have seen the same sequence per
/// statement, it must equal the in-process reference, and every terminal
/// `total` must count exactly the events after that subscription's join.
/// Returns one message per discrepancy.
fn check_against_reference(
    tallies: &[ConnTally],
    oracle: &Arc<DetectionOracle>,
    statements: &[String],
    m: &mut Metrics,
) -> Res<Vec<String>> {
    // A statement's session starts at its first subscriber's position.
    let starts: Vec<u64> = (0..statements.len())
        .map(|s| {
            tallies
                .iter()
                .flat_map(|t| t.joins.iter())
                .filter(|j| j.0 == s)
                .map(|j| j.1)
                .min()
                .unwrap_or(0)
        })
        .collect();
    let reference = reference_events(oracle, statements, &starts, m)?;
    let mut problems = Vec::new();
    for (s, expected) in reference.iter().enumerate() {
        for (c, tally) in tallies.iter().enumerate() {
            // A connection sees the sequence from its own first join on.
            let first_join = tally.joins.iter().filter(|j| j.0 == s).map(|j| j.1).min();
            let Some(first_join) = first_join else {
                continue;
            };
            let due = &expected[expected.partition_point(|e| e.seq <= first_join)..];
            if tally.sequences[s].events != due {
                problems.push(format!(
                    "statement {s} on connection {c}: {} events seen, {} due in-process",
                    tally.sequences[s].events.len(),
                    due.len()
                ));
            }
            for &(_, from_seq, total) in tally.joins.iter().filter(|j| j.0 == s) {
                let due = (expected.len() - expected.partition_point(|e| e.seq <= from_seq)) as u64;
                if total.is_some_and(|t| t != due) {
                    problems.push(format!(
                        "statement {s}: a terminal counts {total:?} events, {due} due since seq {from_seq}"
                    ));
                }
            }
        }
    }
    Ok(problems)
}

fn start_server(minutes: u64) -> Res<ServerHandle> {
    let source = LiveSourceConfig {
        video: SOURCE_VIDEO,
        action: gen::ACTION.into(),
        objects: gen::OBJECTS.iter().map(|o| o.to_string()).collect(),
        minutes,
        seed: SOURCE_SEED,
        rate: RATE,
    };
    Server::start_with_source(
        serve_config()?,
        None,
        Vec::new(),
        Some(source),
        ExecMetrics::new(),
    )
    .map_err(|e| e.to_string())
}

fn connect(addr: SocketAddr) -> Res<Vec<Client>> {
    (0..CONNS)
        .map(|_| Client::connect_with_timeout(addr, CLIENT_TIMEOUT))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())
}

fn drain(server: &ServerHandle) -> (f64, Option<String>) {
    let started = Instant::now();
    server.shutdown();
    let report = server.wait();
    let ms = started.elapsed().as_secs_f64() * 1e3;
    (ms, unclean_drain("server", &report))
}

/// A measurement window on the shared monotonic clock and the process
/// CPU spent inside it.
struct Window {
    start_ns: u64,
    end_ns: u64,
    cpu_ms: f64,
}

impl Window {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    fn holds(&self, at_ns: u64) -> bool {
        (self.start_ns..self.end_ns).contains(&at_ns)
    }

    /// Lag of every event received inside the window, ms, ascending.
    fn lags_ms(&self, tallies: &[ConnTally]) -> Vec<f64> {
        let mut lags: Vec<f64> = tallies
            .iter()
            .flat_map(|t| t.events.iter())
            .filter(|(at, _)| self.holds(*at))
            .map(|&(_, lag)| lag as f64 / 1e6)
            .collect();
        lags.sort_by(|a, b| a.total_cmp(b));
        lags
    }
}

/// Highest gauges the sampler saw: pushed lines resident in connection
/// writers, pool queue depth, ingress shard depth.
#[derive(Default, Clone, Copy)]
struct GaugeMax {
    push_queue: u64,
    pool_queue: u64,
    ingress: u64,
}

/// Sleep through a window; with `sampler`, poll the server's queue gauges
/// every 100 ms meanwhile.
fn hold_window(
    seconds: f64,
    mut sampler: Option<(&mut Client, &ServerHandle)>,
) -> (Window, GaugeMax) {
    let due = Instant::now() + Duration::from_secs_f64(seconds);
    let start_ns = rt::monotonic_nanos();
    let cpu_start_ms = sys::process_cpu_ms();
    let mut max = GaugeMax::default();
    let mut now = Instant::now();
    while now < due {
        let nap = due - now;
        match &mut sampler {
            None => std::thread::sleep(nap),
            Some((client, server)) => {
                if let Ok(frame) = wire_stats(client) {
                    max.push_queue = max.push_queue.max(frame.subs_queue_depth);
                }
                let snap = server.metrics().snapshot();
                max.pool_queue = max.pool_queue.max(snap.pool_queue_depth);
                for shard in &snap.shards {
                    max.ingress = max.ingress.max(shard.ingress_depth);
                }
                std::thread::sleep(nap.min(Duration::from_millis(100)));
            }
        }
        now = Instant::now();
    }
    let window = Window {
        start_ns,
        end_ns: rt::monotonic_nanos(),
        cpu_ms: sys::process_cpu_ms() - cpu_start_ms,
    };
    (window, max)
}

/// What every instance of one run shares.
struct RunPlan<'a> {
    traced: bool,
    minutes: u64,
    /// Discarded seconds between the last ack and the window. Half the
    /// request workloads' warm-up: nothing here is lazily built per request.
    warmup_s: f64,
    /// Measured seconds per instance (traced: split into two halves).
    window_s: f64,
    subs_per_conn: usize,
    event_room: usize,
    statements: &'a [String],
    oracle: &'a Arc<DetectionOracle>,
}

/// One server from start to drain: set-up, warm-up, the measured window,
/// the rest of the source, the closing checks.
struct Instance {
    setup_s: f64,
    tallies: Vec<ConnTally>,
    bufs: Vec<SpanBuf>,
    /// The untraced window, cut short if the source ended inside it.
    window: Window,
    /// Its events' lags, ms, ascending.
    lags: Vec<f64>,
    traced_window: Option<Window>,
    gauges: GaugeMax,
    stats: StatsFrame,
    drain_ms: f64,
    /// `VmHWM` once every event of this instance was held.
    peak_rss_mb: f64,
    /// Process CPU up to the end of the source, generators included.
    cpu_total_ms: f64,
    /// One message per failed check (unclean drain, a lost connection
    /// thread, a sequence that differs from the in-process run).
    problems: Vec<String>,
}

fn run_instance(plan: &RunPlan<'_>, inject_fault: bool, m: &mut Metrics) -> Res<Instance> {
    let tracing = AtomicBool::new(false);
    let mut problems = Vec::new();
    let started = Instant::now();
    let server = start_server(plan.minutes)?;
    let mut clients = connect(server.local_addr())?;
    let mut sampler = Client::connect_with_timeout(server.local_addr(), CLIENT_TIMEOUT)
        .map_err(|e| e.to_string())?;
    let epoch = Instant::now();
    let (joined_tx, joined_rx) = mpsc::channel();
    let (first_turn, mut turn) = mpsc::channel();
    let _ = first_turn.send(());
    let (tallies, bufs, setup_s, window, traced_window, gauges) = std::thread::scope(|scope| {
        let last = clients.len() - 1;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let joined_tx = joined_tx.clone();
                let (next, next_turn) = mpsc::channel();
                let conn = ConnPlan {
                    statements: plan.statements,
                    subs: plan.subs_per_conn,
                    inject_fault: inject_fault && i == 0,
                    event_room: plan.event_room,
                    tracing: &tracing,
                    turn: std::mem::replace(&mut turn, next_turn),
                    next: (i < last).then_some(next),
                };
                let traced = plan.traced;
                scope.spawn(move || {
                    let mut buf = if traced {
                        SpanBuf::recording(SPAN_CAP, epoch)
                    } else {
                        SpanBuf::disabled()
                    };
                    buf.set_enabled(false);
                    let tally = conn_loop(client, &conn, &joined_tx, &mut buf, i as u64);
                    (tally, buf)
                })
            })
            .collect();
        drop(joined_tx);
        // Set-up ends at the last connection's last `subscribed` ack (or
        // when a connection gave up).
        for _ in 0..CONNS {
            let _ = joined_rx.recv();
        }
        let setup_s = started.elapsed().as_secs_f64();
        std::thread::sleep(Duration::from_secs_f64(plan.warmup_s));
        let (window, traced_window, gauges) = if plan.traced {
            let half = plan.window_s / 2.0;
            let (plain, gauges) = hold_window(half, Some((&mut sampler, &server)));
            tracing.store(true, Ordering::Relaxed);
            let (traced_window, _) = hold_window(half, None);
            tracing.store(false, Ordering::Relaxed);
            (plain, Some(traced_window), gauges)
        } else {
            let (window, gauges) = hold_window(plan.window_s, None);
            (window, None, gauges)
        };
        let mut tallies = Vec::new();
        let mut bufs = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok((tally, buf)) => {
                    tallies.push(tally);
                    bufs.push(buf);
                }
                Err(_) => problems.push("a connection thread panicked".into()),
            }
        }
        (tallies, bufs, setup_s, window, traced_window, gauges)
    });
    let peak_rss_mb = sys::peak_rss_mb();
    // The connection threads have exited, so the per-task sum no longer
    // holds them; the server's threads are all still alive.
    let cpu_total_ms = sys::process_cpu_ms() + tallies.iter().map(|t| t.cpu_ms).sum::<f64>();
    let stats = wire_stats(&mut sampler);
    drop(sampler);
    drop(clients);
    let (drain_ms, unclean) = drain(&server);
    problems.extend(unclean);
    for e in tallies.iter().flat_map(|t| t.errors.iter()) {
        crate::say(&format!("  connection failure: {e}"));
    }
    problems.extend(check_against_reference(
        &tallies,
        plan.oracle,
        plan.statements,
        m,
    )?);
    for p in &problems {
        crate::say(&format!("  failure: {p}"));
    }

    // A source that ended inside the window (the join overran its
    // allowance) shortens the window instead of diluting the rate.
    let source_end = tallies.iter().filter_map(|t| t.source_end_ns).min();
    if source_end.is_some_and(|e| e < window.end_ns) {
        crate::say("  warning: the source ended inside the measured window");
    }
    let window = Window {
        end_ns: source_end.map_or(window.end_ns, |e| e.clamp(window.start_ns, window.end_ns)),
        ..window
    };
    let lags = window.lags_ms(&tallies);
    crate::say(&format!(
        "  {} stamped events in a {:.2} s window: lag p50 {:.3} p95 {:.3} p99 {:.3} \
             max {:.3} ms; set-up {setup_s:.3} s",
        lags.len(),
        window.seconds(),
        percentile(&lags, 0.50),
        percentile(&lags, 0.95),
        percentile(&lags, 0.99),
        lags.last().copied().unwrap_or(0.0),
    ));
    Ok(Instance {
        setup_s,
        tallies,
        bufs,
        window,
        lags,
        traced_window,
        gauges,
        stats: stats?,
        drain_ms,
        peak_rss_mb,
        cpu_total_ms,
        problems,
    })
}

pub fn run(args: &Args, traced: bool) -> Res<RunResult> {
    let shape = shape(args.quick);
    // Whether the two writers and two readers of an instance settle into
    // waking per frame or draining backlogs is decided by how its threads
    // happen to land on the cores, and holds for the instance's life: one
    // 20 s instance read a lag p50 anywhere from 3.5 to 6.5 ms on one seed.
    // So the measured time is split over several servers and the lag
    // percentiles are the mean of the middle two; each is one more
    // `setup_s` too.
    let instances = if traced || args.quick { 1 } else { INSTANCES };
    let window_s = if traced {
        args.seconds * 0.8
    } else {
        args.seconds / instances as f64
    };
    let warmup_s = args.warmup_s() / 2.0;
    let source_s = shape.join_allowance_s + warmup_s + window_s + 0.3;
    // The source is sized in whole minutes of 25 fps footage: 30 clips.
    let minutes = (source_s * RATE as f64 / 30.0).ceil() as u64;
    let statements: Vec<String> = (0..STATEMENTS).map(gen::online_sql).collect();

    let mut m = Metrics::new();
    let started = Instant::now();
    let oracle = source_oracle(minutes);
    m.insert(
        "vision.synth_ms_per_video",
        started.elapsed().as_secs_f64() * 1e3,
    );
    let plan = RunPlan {
        traced,
        minutes,
        warmup_s,
        window_s,
        subs_per_conn: shape.subs_per_statement * STATEMENTS / CONNS,
        // Room for every event record up front, so the vectors never
        // regrow (and `VmHWM` does not depend on which side of a doubling
        // a run ends).
        event_room: (source_s * 25_000.0) as usize,
        statements: &statements,
        oracle: &oracle,
    };
    let runs: Vec<Instance> = (0..instances)
        .map(|i| run_instance(&plan, args.inject_fault && i == 0, &mut m))
        .collect::<Res<_>>()?;

    let events: f64 = runs.iter().map(|r| r.lags.len() as f64).sum();
    let received: u64 = runs
        .iter()
        .flat_map(|r| r.tallies.iter())
        .map(|t| t.events.len() as u64)
        .sum();
    let failed: u64 = runs
        .iter()
        .map(|r| r.tallies.iter().map(|t| t.failed).sum::<u64>() + r.problems.len() as u64)
        .sum();
    let over_instances =
        |p: f64| sys::midmean(runs.iter().map(|r| percentile(&r.lags, p)).collect());
    m.insert("setup_s", median(runs.iter().map(|r| r.setup_s).collect()));
    m.insert(
        "ops_per_s",
        ratio(events, runs.iter().map(|r| r.window.seconds()).sum()),
    );
    m.insert("lat_p50_ms", over_instances(0.50));
    m.insert("lat_p95_ms", over_instances(0.95));
    m.insert(
        "cpu_ms_per_op",
        ratio(runs.iter().map(|r| r.window.cpu_ms).sum(), events),
    );
    // Read after the first instance: dropping a server leaves the
    // allocator in a state that varies from run to run.
    m.insert("peak_rss_mb", runs[0].peak_rss_mb);

    if traced {
        let Instance {
            tallies,
            bufs,
            window,
            lags,
            traced_window,
            gauges,
            stats,
            drain_ms,
            cpu_total_ms,
            ..
        } = &runs[0];
        layers::probe_common(&mut m, std::slice::from_ref(&oracle), args.quick);
        m.insert("serve.subscribe.events", stats.subs_events as f64);
        m.insert("serve.subscribe.missed", stats.subs_missed as f64);
        m.insert("serve.subscribe.lagged", stats.subs_lagged as f64);
        m.insert("serve.subscribe.queue_depth_max", gauges.push_queue as f64);
        m.insert("exec.pool_queue_depth_max", gauges.pool_queue as f64);
        m.insert("exec.ingress_depth_max", gauges.ingress as f64);
        m.insert(
            "serve.subscribe.subscribe_ack_ms",
            median(
                tallies
                    .iter()
                    .flat_map(|t| t.ack_ms.iter().copied())
                    .collect(),
            ),
        );
        // Per source event in the window: last minus first receipt across
        // every subscriber of its statement, both connections.
        let mut spreads = Vec::new();
        let mut seqs = (u64::MAX, 0u64);
        for s in 0..statements.len() {
            let mut by_seq = std::collections::BTreeMap::new();
            for sequence in tallies.iter().map(|t| &t.sequences[s]) {
                for (event, &(first, last)) in sequence.events.iter().zip(&sequence.receipts) {
                    let slot = by_seq.entry(event.seq).or_insert((first, last));
                    *slot = (slot.0.min(first), slot.1.max(last));
                }
            }
            for (seq, (first, last)) in by_seq {
                if window.holds(first) {
                    spreads.push((last - first) as f64 / 1e6);
                    seqs = (seqs.0.min(seq), seqs.1.max(seq));
                }
            }
        }
        let spread_p50 = median(spreads);
        m.insert("serve.subscribe.fanout_spread_p50_ms", spread_p50);
        m.insert(
            "serve.subscribe.source_clips_per_s",
            ratio(seqs.1.saturating_sub(seqs.0) as f64, window.seconds()),
        );
        m.insert("serve.server.requests", stats.requests as f64);
        m.insert("serve.server.malformed", stats.malformed as f64);
        m.insert("serve.server.timed_out", stats.timed_out as f64);
        m.insert("serve.server.rejected_busy", stats.rejected_busy as f64);
        m.insert("serve.server.latency_p50_ms", stats.latency_p50_ms);
        m.insert("serve.server.latency_p99_ms", stats.latency_p99_ms);
        m.insert("serve.server.drain_ms", *drain_ms);
        m.insert("client.samples", lags.len() as f64);
        m.insert("client.lat_p50_ms", percentile(lags, 0.50));
        m.insert("client.lat_p99_ms", percentile(lags, 0.99));
        m.insert("client.lat_max_ms", lags.last().copied().unwrap_or(0.0));
        m.insert(
            "client.cpu_share",
            ratio(tallies.iter().map(|t| t.cpu_ms).sum(), *cpu_total_ms),
        );
        let totals = trace::totals_by_name(bufs);
        m.insert(
            "client.verify_us",
            totals.get("client.verify").map_or(0.0, |t| t.mean_us()),
        );
        if let Some(traced_window) = traced_window {
            // Open loop: the source sets the rate, so tracing shows up as
            // CPU per event, not as fewer events.
            let traced_events = traced_window.lags_ms(tallies).len() as f64;
            let traced_cpu = ratio(traced_window.cpu_ms, traced_events);
            let plain_cpu = ratio(window.cpu_ms, lags.len() as f64);
            m.insert(
                "client.trace_overhead_pct",
                100.0 * (ratio(traced_cpu, plain_cpu) - 1.0),
            );
        }
        // Half the spread is how long the median subscriber waits behind
        // the other copies of the same event in the two writers.
        m.insert(
            "bench.dominant_layer_share",
            ratio(spread_p50 / 2.0, percentile(lags, 0.50)).min(1.0),
        );
        let path = sys::out_dir().join("trace-fanout_push.jsonl");
        trace::write_jsonl(&path, bufs).map_err(|e| format!("{}: {e}", path.display()))?;
        crate::say(&format!(
            "  trace: {} spans ({} dropped at the cap) -> {}",
            bufs.iter().map(|b| b.spans().len()).sum::<usize>(),
            bufs.iter().map(|b| b.dropped).sum::<u64>(),
            path.display()
        ));
    }
    Ok(RunResult {
        attempted: received + failed,
        failed,
        metrics: m,
    })
}
