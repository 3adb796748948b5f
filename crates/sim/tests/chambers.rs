//! Bug chambers: miniature re-creations of the three historical
//! concurrency bugs this repo has shipped and fixed, each proven to be
//! *caught* by the simulation harness within a small seed sweep — and the
//! corrected pattern proven to sweep clean. This is the evidence behind
//! the corpus header's claim that re-introducing the first or third bug
//! turns a corpus line red.
//!
//! 1. **v3 `wait()` lost-notify deadlock** — the first waiter *consumed*
//!    the latched result, so the second waiter parked forever.
//! 2. **v3 mailbox gauge underflow** — a queue-depth gauge decremented
//!    before the matching increment landed, wrapping to `u64::MAX`. No
//!    corpus scenario samples a session's gauge mid-drain, so this
//!    chamber alone guards the pattern.
//! 3. **v5 reporter lost-wakeup** — the reporter parked without first
//!    re-checking its stop flag, so a stop that landed early waited out a
//!    whole reporting interval.

use parking_lot::{rt, Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use svq_sim::{run_world, FailureKind, WorldConfig};

fn config(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        step_budget: 200_000,
        wall_limit: Duration::from_secs(30),
        keep_trace: false,
    }
}

/// Sweep seeds until the harness reports a failure; `None` if `seeds`
/// schedules all pass.
fn first_failure<F>(seeds: u64, scenario: F) -> Option<(u64, svq_sim::Failure)>
where
    F: Fn() -> Box<dyn FnOnce() + Send + 'static>,
{
    for seed in 0..seeds {
        let outcome = run_world(&config(seed), scenario());
        if let Some(failure) = outcome.failure {
            return Some((seed, failure));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Chamber 1: consuming result latch (v3 wait deadlock)
// ---------------------------------------------------------------------------

fn result_latch(consume: bool) -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(move || {
        let latch: Arc<(Mutex<Option<u64>>, Condvar)> =
            Arc::new((Mutex::new(None), Condvar::new()));
        let waiters: Vec<_> = (0..2)
            .map(|w| {
                let latch = latch.clone();
                rt::spawn(&format!("waiter{w}"), move || {
                    let mut slot = latch.0.lock();
                    loop {
                        // Buggy: `take()` consumes the latch, so exactly one
                        // waiter wins and the other parks forever. Fixed:
                        // clone and leave the result latched.
                        let observed = if consume { slot.take() } else { *slot };
                        if let Some(v) = observed {
                            return v;
                        }
                        latch.1.wait(&mut slot);
                    }
                })
                .expect("sim spawn cannot fail")
            })
            .collect();
        *latch.0.lock() = Some(42);
        latch.1.notify_all();
        for w in waiters {
            assert_eq!(w.join().expect("waiter returns"), 42);
        }
    })
}

#[test]
fn consuming_latch_is_caught_as_deadlock() {
    let (seed, failure) =
        first_failure(20, || result_latch(true)).expect("the consumed latch must deadlock");
    assert_eq!(
        failure.kind,
        FailureKind::Deadlock,
        "seed {seed}: expected a deadlock, got {failure}"
    );
    assert!(
        failure.detail.contains("waiter"),
        "report names the stuck waiter: {}",
        failure.detail
    );
}

#[test]
fn latched_result_sweeps_clean() {
    assert!(
        first_failure(20, || result_latch(false)).is_none(),
        "the fixed latch must pass every schedule"
    );
}

// ---------------------------------------------------------------------------
// Chamber 2: gauge decrement before increment (v3 underflow)
// ---------------------------------------------------------------------------

fn depth_gauge(increment_after_send: bool) -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(move || {
        let gauge = Arc::new(AtomicU64::new(0));
        let (tx, rx) = crossbeam::channel::bounded::<u64>(4);
        let consumer = {
            let gauge = gauge.clone();
            rt::spawn("consumer", move || {
                while rx.recv().is_ok() {
                    let before = gauge.fetch_sub(1, Ordering::AcqRel);
                    // The standing invariant every metrics observer relies
                    // on: a depth gauge never wraps below zero.
                    assert!(
                        before > 0,
                        "queue depth gauge underflowed: decrement before increment"
                    );
                }
            })
            .expect("sim spawn cannot fail")
        };
        for ticket in 0..8u64 {
            if increment_after_send {
                // Buggy ordering: the consumer can observe the ticket (and
                // decrement) before this increment lands.
                tx.send(ticket).expect("consumer alive");
                gauge.fetch_add(1, Ordering::AcqRel);
            } else {
                gauge.fetch_add(1, Ordering::AcqRel);
                tx.send(ticket).expect("consumer alive");
            }
        }
        drop(tx);
        consumer.join().expect("consumer must not underflow");
    })
}

#[test]
fn gauge_underflow_is_caught() {
    let (_seed, failure) = first_failure(50, || depth_gauge(true))
        .expect("some schedule must interleave decrement before increment");
    assert!(
        matches!(
            failure.kind,
            FailureKind::TaskPanic | FailureKind::RootPanic
        ),
        "underflow surfaces as an assertion: {failure}"
    );
    assert!(
        failure.detail.contains("underflow"),
        "report carries the gauge assertion: {}",
        failure.detail
    );
}

#[test]
fn gauge_increment_before_send_sweeps_clean() {
    assert!(
        first_failure(50, || depth_gauge(false)).is_none(),
        "the fixed ordering must pass every schedule"
    );
}

// ---------------------------------------------------------------------------
// Chamber 3: reporter parks before checking stop (v5 lost wakeup)
// ---------------------------------------------------------------------------

fn stoppable_reporter(check_before_park: bool) -> Box<dyn FnOnce() + Send + 'static> {
    Box::new(move || {
        let every = Duration::from_millis(10);
        let shared: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
        let in_thread = shared.clone();
        let reporter = rt::spawn("reporter", move || {
            let (stop, cv) = &*in_thread;
            let mut stopped = stop.lock();
            loop {
                if check_before_park && *stopped {
                    return;
                }
                cv.wait_for(&mut stopped, every);
                if *stopped {
                    return;
                }
            }
        })
        .expect("sim spawn cannot fail");

        // Stop immediately: when the stop lands before the reporter first
        // parks, the buggy variant has already spent the notification and
        // sleeps out a whole interval before noticing.
        let started = rt::monotonic_nanos();
        *shared.0.lock() = true;
        shared.1.notify_all();
        reporter.join().expect("reporter exits");
        let stop_nanos = rt::monotonic_nanos().saturating_sub(started);
        assert!(
            stop_nanos < every.as_nanos() as u64 / 2,
            "stop consumed {stop_nanos} ns of virtual time: reporter parked \
             without re-checking its stop flag (lost wakeup)"
        );
    })
}

#[test]
fn reporter_lost_wakeup_is_caught() {
    let (_seed, failure) = first_failure(30, || stoppable_reporter(false))
        .expect("some schedule must land the stop before the reporter parks");
    assert_eq!(failure.kind, FailureKind::RootPanic, "{failure}");
    assert!(
        failure.detail.contains("lost wakeup"),
        "report carries the virtual-time assertion: {}",
        failure.detail
    );
}

#[test]
fn reporter_with_precheck_sweeps_clean() {
    assert!(
        first_failure(30, || stoppable_reporter(true)).is_none(),
        "the fixed reporter must pass every schedule"
    );
}
