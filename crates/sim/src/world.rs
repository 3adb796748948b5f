//! The virtual-time scheduler: one world, many cooperative tasks, one seed.
//!
//! # Model
//!
//! Every thread the system under test creates (via `parking_lot::rt::spawn`)
//! becomes a *task* backed by a real OS thread, but **exactly one task runs
//! at any moment**: every other task waits on its own condvar under the
//! world's mutex. At every instrumented point — lock acquire, guard drop,
//! condvar wait/notify, channel block, sleep, spawn, join — the running
//! task calls back into the scheduler, which picks the next task to run
//! with the schedule's seeded RNG, and the scheduler wakes exactly the task
//! it picked. Determinism therefore does not depend on OS wakeup order: no
//! other thread is woken, and a spurious wakeup re-checks `current` and
//! parks again. The runner thread is woken only once the world has
//! finished or failed.
//!
//! # Time
//!
//! The clock is virtual. It only advances when **no task is runnable**: the
//! scheduler jumps straight to the earliest pending deadline (a sleep or a
//! timed wait). A schedule that simulates minutes of reporter ticks
//! completes in microseconds of wall time, and a timeout can never mask a
//! lost wakeup the way a generous real-time timeout does.
//!
//! # Blocking and progress
//!
//! Parks are generation-counted ([`SimOps::block`] records the progress
//! generation at park time; any later progress event — an unlock, a
//! notify, a task exit — makes the task runnable again and it re-checks
//! its condition). A task parked with no pending progress and no deadline
//! in the whole world is a **deadlock**, reported with every blocked
//! task's last label. A schedule that keeps making "progress" without
//! finishing trips the step budget and is reported as a **livelock**.
//!
//! # Failure freezing
//!
//! On any failure the world freezes: `frozen` is set, every parked task
//! stays parked forever (their OS threads are deliberately leaked — waking
//! them would run destructors and tool the world past the snapshot), and
//! the runner thread harvests the trace tail and failure report.

use crate::rng::{self, SimRng};
use parking_lot::sim::{self, SimOps};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdGuard};
use std::time::{Duration, Instant};

/// Rendered events kept for failure reports regardless of trace mode.
const TAIL_EVENTS: usize = 40;

/// Knobs for one schedule execution.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Seed for the interleaving RNG (and, by convention, for whatever
    /// randomness the scenario itself derives).
    pub seed: u64,
    /// Scheduling steps before the run is declared a livelock.
    pub step_budget: u64,
    /// Wall-clock safety net for the runner thread. A healthy schedule
    /// finishes in milliseconds; hitting this means the world itself is
    /// stuck on something outside its control (e.g. real file I/O).
    pub wall_limit: Duration,
    /// Keep the full event trace (step/task/label/clock) for byte-exact
    /// replay comparison. Off for sweeps: the running digest is enough.
    pub keep_trace: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            step_budget: 2_000_000,
            wall_limit: Duration::from_secs(60),
            keep_trace: false,
        }
    }
}

/// How a schedule failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// No task runnable, no pending deadline: the system under test is
    /// waiting on a wakeup that can never arrive.
    Deadlock,
    /// The step budget was exhausted: tasks keep running without the root
    /// scenario completing.
    Livelock,
    /// The root scenario task panicked — an invariant assertion failed.
    RootPanic,
    /// A non-root task panicked outside any panic-isolation boundary.
    TaskPanic,
    /// The runner's wall-clock safety net fired.
    WallClockTimeout,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            FailureKind::Deadlock => "deadlock",
            FailureKind::Livelock => "livelock",
            FailureKind::RootPanic => "invariant violation",
            FailureKind::TaskPanic => "task panic",
            FailureKind::WallClockTimeout => "wall-clock timeout",
        };
        f.write_str(name)
    }
}

/// A schedule failure with enough context to debug it.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: FailureKind,
    pub detail: String,
    /// The last [`TAIL_EVENTS`] scheduler events before the failure.
    pub trace_tail: Vec<String>,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.detail)
    }
}

/// One scheduler event. `label` is static because every instrumentation
/// point passes a literal; the hot path never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub task: usize,
    pub label: &'static str,
    pub clock_nanos: u64,
}

/// What one schedule execution produced.
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// Running digest over (task, label, clock) of every event. Two runs of
    /// the same (scenario, seed, size, faults) must produce equal hashes.
    pub trace_hash: u64,
    /// Scheduling steps taken.
    pub steps: u64,
    /// Final virtual clock reading.
    pub virtual_nanos: u64,
    /// Names of every task the schedule created, in spawn order.
    pub task_names: Vec<String>,
    /// Full event trace; empty unless [`WorldConfig::keep_trace`].
    pub trace: Vec<TraceEvent>,
    pub failure: Option<Failure>,
}

impl ScheduleOutcome {
    /// Render the kept trace as one line per event (byte-comparable).
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for (step, e) in self.trace.iter().enumerate() {
            let name = self
                .task_names
                .get(e.task)
                .map(String::as_str)
                .unwrap_or("?");
            out.push_str(&format!(
                "{step:>7} t{}:{name} {} @{}\n",
                e.task, e.label, e.clock_nanos
            ));
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    /// Runnable; not waiting on anything.
    Ready,
    /// The task the world's `current` points at.
    Running,
    /// Parked until a progress event newer than `gen`.
    Blocked {
        gen: u64,
    },
    /// Parked until a progress event newer than `gen` or until `deadline`.
    BlockedUntil {
        gen: u64,
        deadline: u64,
    },
    /// Parked until `deadline`.
    Sleeping {
        deadline: u64,
    },
    Done {
        panicked: bool,
    },
}

impl TaskState {
    fn runnable(&self, progress_gen: u64, clock: u64) -> bool {
        match *self {
            TaskState::Ready => true,
            TaskState::Running => false,
            TaskState::Blocked { gen } => gen < progress_gen,
            TaskState::BlockedUntil { gen, deadline } => gen < progress_gen || deadline <= clock,
            TaskState::Sleeping { deadline } => deadline <= clock,
            TaskState::Done { .. } => false,
        }
    }

    fn deadline(&self) -> Option<u64> {
        match *self {
            TaskState::BlockedUntil { deadline, .. } | TaskState::Sleeping { deadline } => {
                Some(deadline)
            }
            _ => None,
        }
    }
}

struct Task {
    name: String,
    state: TaskState,
    /// The task's own wake-up; only its OS thread ever waits on it.
    wake: Arc<StdCondvar>,
    /// Last scheduler label this task passed — the "where is it stuck"
    /// answer in deadlock reports.
    last_label: &'static str,
    panic_msg: Option<String>,
}

/// The world's single lock-protected state.
struct Sched {
    tasks: Vec<Task>,
    current: Option<usize>,
    clock: u64,
    progress_gen: u64,
    rng: SimRng,
    steps: u64,
    step_budget: u64,
    events: u64,
    hash: u64,
    keep_trace: bool,
    trace: Vec<TraceEvent>,
    tail: VecDeque<(u64, TraceEvent)>,
    failure: Option<Failure>,
    frozen: bool,
}

impl Sched {
    fn record(&mut self, task: usize, label: &'static str) {
        self.hash = rng::fold_u64(
            rng::fold_bytes(rng::fold_u64(self.hash, task as u64), label.as_bytes()),
            self.clock,
        );
        let event = TraceEvent {
            task,
            label,
            clock_nanos: self.clock,
        };
        if self.keep_trace {
            self.trace.push(event.clone());
        }
        if self.tail.len() == TAIL_EVENTS {
            self.tail.pop_front();
        }
        self.tail.push_back((self.events, event));
        self.events += 1;
    }

    fn tail_lines(&self) -> Vec<String> {
        self.tail
            .iter()
            .map(|(step, e)| {
                let name = self
                    .tasks
                    .get(e.task)
                    .map(|t| t.name.as_str())
                    .unwrap_or("?");
                format!(
                    "{step:>7} t{}:{name} {} @{}",
                    e.task, e.label, e.clock_nanos
                )
            })
            .collect()
    }

    fn fail(&mut self, kind: FailureKind, detail: String) {
        if self.failure.is_none() {
            let trace_tail = self.tail_lines();
            self.failure = Some(Failure {
                kind,
                detail,
                trace_tail,
            });
        }
        self.frozen = true;
        self.current = None;
    }

    fn all_done(&self) -> bool {
        self.tasks
            .iter()
            .all(|t| matches!(t.state, TaskState::Done { .. }))
    }

    /// Pick the next task to run, advancing the virtual clock when nothing
    /// is runnable; records a deadlock failure when nothing ever will be.
    fn pick_next(&mut self) {
        loop {
            let runnable: Vec<usize> = self
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state.runnable(self.progress_gen, self.clock))
                .map(|(i, _)| i)
                .collect();
            if !runnable.is_empty() {
                self.current = Some(runnable[self.rng.below(runnable.len())]);
                return;
            }
            if self.all_done() {
                self.current = None;
                return;
            }
            match self.tasks.iter().filter_map(|t| t.state.deadline()).min() {
                Some(deadline) => {
                    // Virtual time jumps straight to the earliest deadline;
                    // the loop re-evaluates runnability at the new clock.
                    self.clock = self.clock.max(deadline);
                }
                None => {
                    let blocked: Vec<String> = self
                        .tasks
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| !matches!(t.state, TaskState::Done { .. }))
                        .map(|(i, t)| format!("t{i}:{} at {}", t.name, t.last_label))
                        .collect();
                    self.fail(
                        FailureKind::Deadlock,
                        format!(
                            "no runnable task and no pending timer; waiting: [{}]",
                            blocked.join(", ")
                        ),
                    );
                    return;
                }
            }
        }
    }
}

struct Shared {
    sched: StdMutex<Sched>,
    /// The runner's wake-up: notified once the world has finished or failed.
    done: StdCondvar,
}

impl Shared {
    fn lock(&self) -> StdGuard<'_, Sched> {
        // The world lock is only ever held across scheduler bookkeeping,
        // which does not panic; recover the guard rather than cascade.
        self.sched.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Wake whoever acts after a scheduling decision: the task `pick_next`
    /// chose, or the runner when no task was chosen because the world has
    /// finished or failed.
    fn wake_next(&self, sched: &Sched) {
        match sched.current {
            Some(next) => sched.tasks[next].wake.notify_one(),
            None => self.done.notify_one(),
        }
    }
}

/// The state a task parks into when it surrenders the CPU.
enum Park {
    Ready,
    Blocked,
    BlockedUntil(u64),
    SleepFor(u64),
}

/// The per-task [`SimOps`] handle installed into each task's OS thread.
struct TaskOps {
    shared: Arc<Shared>,
    id: usize,
    wake: Arc<StdCondvar>,
}

impl TaskOps {
    /// Surrender the CPU: record the event, adopt `park`, optionally
    /// announce progress, let the scheduler pick the next task, and wait
    /// until scheduled again. The single preemption primitive every
    /// [`SimOps`] entry point funnels through.
    fn switch(&self, park: Park, label: &'static str, announce_progress: bool) {
        let me = self.id;
        let mut sched = self.shared.lock();
        if sched.frozen {
            // Only the runner's watchdog freezes a world with a task
            // running; that task parks for good like every other.
            self.park(sched);
            return;
        }
        sched.record(me, label);
        sched.tasks[me].last_label = label;
        sched.tasks[me].state = match park {
            Park::Ready => TaskState::Ready,
            Park::Blocked => TaskState::Blocked {
                gen: sched.progress_gen,
            },
            Park::BlockedUntil(deadline) => TaskState::BlockedUntil {
                gen: sched.progress_gen,
                deadline,
            },
            Park::SleepFor(nanos) => TaskState::Sleeping {
                deadline: sched.clock.saturating_add(nanos),
            },
        };
        if announce_progress {
            sched.progress_gen += 1;
        }
        sched.steps += 1;
        if sched.steps >= sched.step_budget {
            let budget = sched.step_budget;
            sched.fail(
                FailureKind::Livelock,
                format!("step budget {budget} exhausted without the scenario completing"),
            );
        } else {
            // The scheduler lock *is* the parking primitive: pick_next may
            // park a worker, but the wait releases this very guard and the
            // guard is the only lock a switching task can hold.
            // svq-lint: allow(blocking-under-lock)
            sched.pick_next();
        }
        self.shared.wake_next(&sched);
        self.park(sched);
    }

    /// Wait on this task's own condvar until the scheduler picks it, then
    /// mark it running. A frozen world never unfreezes: failed schedules
    /// park their tasks here forever and leak the threads by design.
    fn park(&self, mut sched: StdGuard<'_, Sched>) {
        while sched.frozen || sched.current != Some(self.id) {
            sched = self.wake.wait(sched).unwrap_or_else(|e| e.into_inner());
        }
        sched.tasks[self.id].state = TaskState::Running;
    }

    /// Task exit: mark done (a progress event — joiners wake), hand the
    /// CPU to the next task, and let the OS thread return.
    fn finish_task(&self, panicked: bool, panic_msg: Option<String>) {
        let me = self.id;
        let mut sched = self.shared.lock();
        if sched.frozen {
            // The world already failed; this thread just goes away.
            return;
        }
        sched.record(me, "task.exit");
        sched.tasks[me].state = TaskState::Done { panicked };
        sched.tasks[me].panic_msg = panic_msg;
        sched.progress_gen += 1;
        sched.steps += 1;
        // Same invariant as `switch`: the scheduler guard is the parking
        // primitive, and an exiting task holds nothing else.
        // svq-lint: allow(blocking-under-lock)
        sched.pick_next();
        self.shared.wake_next(&sched);
    }
}

impl SimOps for TaskOps {
    fn yield_point(&self, label: &'static str) {
        self.switch(Park::Ready, label, false);
    }

    fn block(&self, label: &'static str) {
        self.switch(Park::Blocked, label, false);
    }

    fn block_until(&self, label: &'static str, deadline_nanos: u64) {
        self.switch(Park::BlockedUntil(deadline_nanos), label, false);
    }

    fn progress(&self, label: &'static str) {
        self.switch(Park::Ready, label, true);
    }

    fn now_nanos(&self) -> u64 {
        self.shared.lock().clock
    }

    fn sleep(&self, nanos: u64) {
        self.switch(Park::SleepFor(nanos), "task.sleep", false);
    }

    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) -> u64 {
        let id = spawn_task(&self.shared, name, f);
        // A new runnable task is a state change other tasks (and the
        // scheduler) may act on — announce it and offer a preemption point,
        // so the child may run before the spawner's next line.
        self.switch(Park::Ready, "task.spawn", true);
        id as u64
    }

    fn join(&self, id: u64) -> bool {
        loop {
            {
                let sched = self.shared.lock();
                if let TaskState::Done { panicked } = sched.tasks[id as usize].state {
                    return panicked;
                }
            }
            self.block("task.join");
        }
    }

    fn current_task(&self) -> u64 {
        self.id as u64
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Register a task and start its backing OS thread (parked until first
/// scheduled). Shared by [`SimOps::spawn`] and the root bootstrap.
fn spawn_task(shared: &Arc<Shared>, name: &str, f: Box<dyn FnOnce() + Send>) -> usize {
    let wake = Arc::new(StdCondvar::new());
    let id = {
        let mut sched = shared.lock();
        let id = sched.tasks.len();
        sched.tasks.push(Task {
            name: name.to_string(),
            state: TaskState::Ready,
            wake: wake.clone(),
            last_label: "task.start",
            panic_msg: None,
        });
        sched.record(id, "task.start");
        id
    };
    let ops = Arc::new(TaskOps {
        shared: shared.clone(),
        id,
        wake,
    });
    std::thread::Builder::new()
        .name(format!("sim-{name}"))
        .spawn(move || {
            sim::install(ops.clone());
            ops.park(ops.shared.lock());
            let result = catch_unwind(AssertUnwindSafe(f));
            let (panicked, msg) = match result {
                Ok(()) => (false, None),
                Err(payload) => (true, Some(panic_message(payload.as_ref()))),
            };
            ops.finish_task(panicked, msg);
        })
        .expect("OS can always back a simulated task with a thread");
    id
}

/// Run `root` as task 0 of a fresh world and drive the schedule to
/// completion (all tasks exited) or failure (deadlock, livelock, panic,
/// wall-clock timeout). The calling thread is the *runner*: it is not a
/// simulated task and only observes.
pub fn run_world<F>(config: &WorldConfig, root: F) -> ScheduleOutcome
where
    F: FnOnce() + Send + 'static,
{
    let shared = Arc::new(Shared {
        sched: StdMutex::new(Sched {
            tasks: Vec::new(),
            current: None,
            clock: 0,
            progress_gen: 0,
            rng: SimRng::new(config.seed),
            steps: 0,
            step_budget: config.step_budget.max(1),
            events: 0,
            hash: 0,
            keep_trace: config.keep_trace,
            trace: Vec::new(),
            tail: VecDeque::with_capacity(TAIL_EVENTS),
            failure: None,
            frozen: false,
        }),
        done: StdCondvar::new(),
    });

    spawn_task(&shared, "root", Box::new(root));
    let deadline = Instant::now() + config.wall_limit;
    let mut sched = shared.lock();
    // Scheduler guard is the parking primitive (see `switch`); the
    // bootstrap thread holds nothing else here.
    // svq-lint: allow(blocking-under-lock)
    sched.pick_next();
    shared.wake_next(&sched);
    loop {
        if sched.failure.is_some() || sched.all_done() {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            let limit = config.wall_limit;
            sched.fail(
                FailureKind::WallClockTimeout,
                format!("runner watchdog fired after {limit:?} of wall time"),
            );
            break;
        }
        let (guard, _) = shared
            .done
            .wait_timeout(sched, deadline - now)
            .unwrap_or_else(|e| e.into_inner());
        sched = guard;
    }

    // Panics outrank scheduler-level failures in reports: an invariant
    // assertion that unwound into a deadlock (cleanup never ran) should
    // read as the assertion, not the secondary wedge.
    let mut failure = sched.failure.clone();
    let panicked_task = sched
        .tasks
        .iter()
        .position(|t| matches!(t.state, TaskState::Done { panicked: true }));
    if let Some(idx) = panicked_task {
        let kind = if idx == 0 {
            FailureKind::RootPanic
        } else {
            FailureKind::TaskPanic
        };
        let msg = sched.tasks[idx].panic_msg.clone();
        let name = sched.tasks[idx].name.clone();
        let secondary = failure
            .as_ref()
            .map(|f| format!("; then {f}"))
            .unwrap_or_default();
        let detail = format!(
            "task t{idx}:{name} panicked: {}{}",
            msg.unwrap_or_else(|| "<no message>".into()),
            secondary
        );
        let trace_tail = failure
            .as_ref()
            .map(|f| f.trace_tail.clone())
            .unwrap_or_else(|| sched.tail_lines());
        failure = Some(Failure {
            kind,
            detail,
            trace_tail,
        });
    }

    ScheduleOutcome {
        trace_hash: rng::mix(sched.hash ^ sched.events),
        steps: sched.steps,
        virtual_nanos: sched.clock,
        task_names: sched.tasks.iter().map(|t| t.name.clone()).collect(),
        trace: std::mem::take(&mut sched.trace),
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::{rt, Condvar, Mutex};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn cfg(seed: u64) -> WorldConfig {
        WorldConfig {
            seed,
            step_budget: 100_000,
            wall_limit: Duration::from_secs(20),
            keep_trace: true,
        }
    }

    #[test]
    fn empty_root_completes() {
        let out = run_world(&cfg(1), || {});
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert_eq!(out.task_names, vec!["root".to_string()]);
    }

    #[test]
    fn spawned_tasks_share_locks_deterministically() {
        let run = |seed: u64| {
            run_world(&cfg(seed), || {
                let total = Arc::new(Mutex::new(0u64));
                let handles: Vec<_> = (0..3)
                    .map(|i| {
                        let total = total.clone();
                        rt::spawn(&format!("adder{i}"), move || {
                            for _ in 0..10 {
                                *total.lock() += 1;
                            }
                        })
                        .expect("sim spawn cannot fail")
                    })
                    .collect();
                for h in handles {
                    h.join().expect("adders do not panic");
                }
                assert_eq!(*total.lock(), 30);
            })
        };
        let a = run(7);
        assert!(a.failure.is_none(), "{:?}", a.failure);
        // Same seed twice: byte-identical traces. Different seed: different
        // interleaving (with overwhelming probability at 60+ lock events).
        let b = run(7);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.render_trace(), b.render_trace());
        let c = run(8);
        assert_ne!(a.trace_hash, c.trace_hash, "seed must steer interleaving");
    }

    #[test]
    fn condvar_wakeups_cross_tasks() {
        let out = run_world(&cfg(3), || {
            let slot: Arc<(Mutex<Option<u64>>, Condvar)> =
                Arc::new((Mutex::new(None), Condvar::new()));
            let producer = {
                let slot = slot.clone();
                rt::spawn("producer", move || {
                    rt::sleep(Duration::from_millis(5));
                    *slot.0.lock() = Some(99);
                    slot.1.notify_all();
                })
                .expect("sim spawn cannot fail")
            };
            let mut guard = slot.0.lock();
            while guard.is_none() {
                slot.1.wait(&mut guard);
            }
            assert_eq!(*guard, Some(99));
            drop(guard);
            producer.join().expect("producer does not panic");
        });
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(
            out.virtual_nanos >= 5_000_000,
            "the producer's sleep must consume virtual time"
        );
    }

    #[test]
    fn virtual_sleep_costs_no_wall_time() {
        let started = Instant::now();
        let out = run_world(&cfg(4), || {
            rt::sleep(Duration::from_secs(3600));
        });
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(out.virtual_nanos >= 3_600_000_000_000);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "an hour of virtual time must not take an hour"
        );
    }

    #[test]
    fn lost_wakeup_is_reported_as_deadlock() {
        // The waiter parks on a raw block() with no one left to make
        // progress: the scheduler must call it a deadlock, not hang.
        let out = run_world(&cfg(5), || {
            let ops = sim::current().expect("root task runs under the scheduler");
            ops.block("never.signalled");
        });
        let failure = out.failure.expect("deadlock must be detected");
        assert_eq!(failure.kind, FailureKind::Deadlock);
        assert!(
            failure.detail.contains("never.signalled"),
            "report names the stuck label: {}",
            failure.detail
        );
        assert!(!failure.trace_tail.is_empty());
    }

    #[test]
    fn livelock_trips_step_budget() {
        let config = WorldConfig {
            step_budget: 500,
            ..cfg(6)
        };
        let out = run_world(&config, || {
            let ops = sim::current().expect("root task runs under the scheduler");
            loop {
                ops.yield_point("spin.forever");
            }
        });
        let failure = out.failure.expect("livelock must be detected");
        assert_eq!(failure.kind, FailureKind::Livelock);
    }

    #[test]
    fn wall_clock_watchdog_fails_a_root_blocked_outside_the_scheduler() {
        // A real sleep is invisible to the scheduler: no task switch ever
        // comes, so only the runner's wall-clock watchdog can end the run.
        let config = WorldConfig {
            wall_limit: Duration::from_millis(50),
            ..cfg(10)
        };
        let out = run_world(&config, || std::thread::sleep(Duration::from_millis(500)));
        let failure = out.failure.expect("the watchdog must fire");
        assert_eq!(failure.kind, FailureKind::WallClockTimeout);
    }

    #[test]
    fn root_panic_is_reported_with_message() {
        let out = run_world(&cfg(7), || {
            assert_eq!(1 + 1, 3, "deliberate invariant violation");
        });
        let failure = out.failure.expect("root panic must be reported");
        assert_eq!(failure.kind, FailureKind::RootPanic);
        assert!(
            failure.detail.contains("deliberate invariant violation"),
            "{}",
            failure.detail
        );
    }

    #[test]
    fn timed_wait_advances_clock_past_deadline() {
        let out = run_world(&cfg(8), || {
            let pair: Arc<(Mutex<bool>, Condvar)> = Arc::new((Mutex::new(false), Condvar::new()));
            let mut guard = pair.0.lock();
            // Nobody notifies: the wait must return via its virtual
            // deadline rather than deadlock.
            let result = pair.1.wait_for(&mut guard, Duration::from_millis(250));
            assert!(result.timed_out(), "timeout path reports no wakeup");
        });
        assert!(out.failure.is_none(), "{:?}", out.failure);
        assert!(out.virtual_nanos >= 250_000_000);
    }

    #[test]
    fn channels_cross_tasks_under_sim() {
        let out = run_world(&cfg(9), || {
            let (tx, rx) = crossbeam::channel::bounded::<u64>(2);
            let producer = rt::spawn("tx", move || {
                for v in 0..20 {
                    tx.send(v).expect("receiver outlives the stream");
                }
            })
            .expect("sim spawn cannot fail");
            let sum = AtomicU64::new(0);
            for _ in 0..20 {
                sum.fetch_add(rx.recv().expect("producer sends 20"), Ordering::Relaxed);
            }
            producer.join().expect("producer does not panic");
            assert_eq!(sum.load(Ordering::Relaxed), 190);
        });
        assert!(out.failure.is_none(), "{:?}", out.failure);
    }
}
