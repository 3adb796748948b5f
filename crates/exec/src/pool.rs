//! Panic-isolated worker pool over bounded crossbeam channels.
//!
//! Workers pull boxed jobs from one bounded MPMC channel. A panicking job is
//! caught at the worker, so one bad job never takes the pool down (a
//! `mux` session also catches its own run's panic, to latch it as
//! poisoned). Shutdown is graceful: closing the job channel lets every
//! worker drain what it already accepted, then the pool joins them.

use crate::metrics::ExecMetrics;
use crossbeam::channel::{bounded, Sender};
use parking_lot::rt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-size thread pool with a bounded job queue.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<rt::JoinHandle<()>>,
    metrics: ExecMetrics,
}

impl WorkerPool {
    /// Spawn `workers` threads behind a queue of `queue_cap` pending jobs.
    pub fn new(workers: usize, queue_cap: usize, metrics: ExecMetrics) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = bounded::<Job>(queue_cap.max(1));
        metrics.attach_pool(workers, &rx);
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let metrics = metrics.clone();
                rt::spawn(&format!("svq-exec-{i}"), move || {
                    for job in rx.iter() {
                        let outcome = catch_unwind(AssertUnwindSafe(job));
                        metrics.pool().jobs_executed.fetch_add(1, Ordering::Relaxed);
                        if outcome.is_err() {
                            metrics.pool().jobs_panicked.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
                .expect("spawn worker")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers: handles,
            metrics,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The metrics registry this pool reports into.
    pub fn metrics(&self) -> &ExecMetrics {
        &self.metrics
    }

    /// Submit a job; blocks while the queue is full (pool backpressure).
    pub fn submit(&self, job: Job) {
        let tx = self.tx.as_ref().expect("pool not shut down");
        if tx.send(job).is_err() {
            unreachable!("receiver ends held by live workers");
        }
    }

    /// Graceful shutdown: stop accepting jobs, drain the queue, join every
    /// worker. Dropping the pool does the same.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // Closing the channel ends each worker's `rx.iter()` once drained.
        self.tx.take();
        for handle in self.workers.drain(..) {
            // A job may own the last reference to whatever owns the pool,
            // so this can run on a worker. That worker cannot join itself:
            // its handle is dropped (detached) and the thread exits on its
            // own once the job returns to the closed channel.
            if !handle.is_current() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn executes_all_jobs_across_workers() {
        let metrics = ExecMetrics::new();
        let pool = WorkerPool::new(4, 8, metrics.clone());
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..100u64 {
            let counter = counter.clone();
            pool.submit(Box::new(move || {
                counter.fetch_add(i, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 4950);
        let snap = metrics.snapshot();
        assert_eq!(snap.jobs_executed, 100);
        assert_eq!(snap.jobs_panicked, 0);
        assert_eq!(snap.pool_queue_depth, 0);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool() {
        let metrics = ExecMetrics::new();
        let pool = WorkerPool::new(2, 4, metrics.clone());
        let done = Arc::new(AtomicU64::new(0));
        pool.submit(Box::new(|| panic!("poisoned clip")));
        for _ in 0..10 {
            let done = done.clone();
            pool.submit(Box::new(move || {
                done.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 10);
        let snap = metrics.snapshot();
        assert_eq!(snap.jobs_executed, 11);
        assert_eq!(snap.jobs_panicked, 1);
    }

    #[test]
    fn dropping_the_pool_from_one_of_its_own_jobs_does_not_self_join() {
        let metrics = ExecMetrics::new();
        let pool = Arc::new(WorkerPool::new(2, 4, metrics.clone()));
        let held = pool.clone();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        pool.submit(Box::new(move || {
            // Outlive the submitter's reference, then drop the last one:
            // `WorkerPool::drop` runs here, on a worker of that pool.
            while Arc::strong_count(&held) > 1 {
                std::thread::yield_now();
            }
            drop(held);
            let _ = done_tx.send(());
        }));
        drop(pool);
        // A self-join panics inside the job ("Resource deadlock avoided"),
        // which drops `done_tx` unsent and counts a panicked job.
        done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the job finished dropping its own pool");
        while metrics.snapshot().jobs_executed < 1 {
            std::thread::yield_now();
        }
        assert_eq!(metrics.snapshot().jobs_panicked, 0);
    }

    #[test]
    fn queue_depth_never_reads_past_the_channel_capacity() {
        // One worker parked in a job, then `CAP + 2` submitters: `CAP`
        // fill the queue and two block in `send`. The gauge is the job
        // channel's length, so a blocked submitter is never counted.
        const CAP: usize = 3;
        let metrics = ExecMetrics::new();
        let pool = Arc::new(WorkerPool::new(1, CAP, metrics.clone()));
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        pool.submit(Box::new(move || {
            started_tx.send(()).expect("test waits for the start");
            let _ = release_rx.recv();
        }));
        started_rx.recv().expect("the worker took the parking job");
        let entered = Arc::new(AtomicU64::new(0));
        let submitters: Vec<_> = (0..CAP + 2)
            .map(|_| {
                let (pool, entered) = (pool.clone(), entered.clone());
                std::thread::spawn(move || {
                    entered.fetch_add(1, Ordering::SeqCst);
                    pool.submit(Box::new(|| {}));
                })
            })
            .collect();
        let blocked = || submitters.iter().filter(|h| !h.is_finished()).count();
        let mut depth = 0;
        let mut settled = 0;
        // Sample while the submitters pile up, then 200 more times once
        // all have entered `submit` and all but two have returned.
        while settled < 200 {
            depth = metrics.snapshot().pool_queue_depth;
            assert!(
                depth <= CAP as u64,
                "queue depth {depth} past capacity {CAP}"
            );
            if entered.load(Ordering::SeqCst) == (CAP + 2) as u64 && blocked() == 2 {
                settled += 1;
            }
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        assert_eq!(depth, CAP as u64, "the full queue reads its capacity");
        assert_eq!(blocked(), 2, "two submitters stay blocked in `send`");
        release_tx.send(()).expect("the parked job is waiting");
        for submitter in submitters {
            submitter.join().expect("submitter returns");
        }
        drop(pool);
        let snap = metrics.snapshot();
        assert_eq!(snap.pool_queue_depth, 0);
        assert_eq!(snap.jobs_executed, CAP as u64 + 3);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = WorkerPool::new(0, 0, ExecMetrics::new());
        assert_eq!(pool.worker_count(), 1);
        let ran = Arc::new(AtomicU64::new(0));
        let r = ran.clone();
        pool.submit(Box::new(move || {
            r.store(1, Ordering::Relaxed);
        }));
        pool.shutdown();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }
}
